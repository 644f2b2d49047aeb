#!/usr/bin/env bash
# Full verification gate: formatting, release build, test suite, strict
# lints. CI runs exactly this script (see .github/workflows/ci.yml), so a
# clean local `scripts/verify.sh` means a green CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> benchmark build (BENCHMARK.json's nested package, own lockfile)"
# `cargo test` compiles the benchmark sources only as tps-bench's `perf`
# binary under the root lockfile; this builds the nested package the way
# BENCHMARK.json runs it, so a broken nested build or a stale lockfile
# fails here.
cargo build --release --offline --locked -q \
  --manifest-path crates/bench/src/bin/perf/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> trace budget + counter-drift gate (repro smoke -> tps trace)"
# CI sets TRACE_DIR so the traces survive a mid-gate failure and get
# uploaded as artifacts; locally we default to a throwaway mktemp dir.
if [ -n "${TRACE_DIR:-}" ]; then
  trace_tmp="$TRACE_DIR"
  mkdir -p "$trace_tmp"
else
  trace_tmp="$(mktemp -d)"
  trap 'rm -rf "$trace_tmp"' EXIT
fi
cargo run -q -p tps-bench --release --bin repro -- smoke \
  --trace-out "$trace_tmp/smoke-trace.json" > /dev/null
./target/release/tps trace check "$trace_tmp/smoke-trace.json" \
  --budgets budgets.toml
./target/release/tps trace diff results/baselines/smoke-counters.json \
  "$trace_tmp/smoke-trace.json"

echo "==> chaos fault-injection gate (repro chaos -> tps trace)"
# The chaos experiment injects transient + permanent faults into the smoke
# world; the run must still complete, quarantine the casualties, and obey
# every budget rule (including the retry-accounting ones).
cargo run -q -p tps-bench --release --bin repro -- chaos \
  --trace-out "$trace_tmp/chaos-trace.json" > /dev/null
./target/release/tps trace check "$trace_tmp/chaos-trace.json" \
  --budgets budgets.toml
grep -q '"completed": true' "$trace_tmp/chaos-trace.json" \
  || { echo "chaos trace did not complete"; exit 1; }
if grep -q '"casualties": \[\]' "$trace_tmp/chaos-trace.json"; then
  echo "chaos trace recorded no casualties despite injected faults"
  exit 1
fi

echo "==> serve load-generation gate (repro loadgen -> tps trace)"
# The loadgen experiment runs the resident server in-process: responses
# must be byte-identical to one-shot runs, the cache must collapse the
# repeats, overload must shed with structured rejections, and the drained
# aggregate trace must obey every serve.* budget rule.
cargo run -q -p tps-bench --release --bin repro -- loadgen \
  --trace-out "$trace_tmp/serve-trace.json" > /dev/null
./target/release/tps trace check "$trace_tmp/serve-trace.json" \
  --budgets budgets.toml
grep -q '"completed": true' "$trace_tmp/serve-trace.json" \
  || { echo "serve trace did not complete"; exit 1; }

echo "==> ann indexed gate (streamed 10k world -> tps trace)"
# The streamed index-assisted offline build must complete on a 10k-model
# world without the dense O(M^2) path, obey the ann.* budget rules, and
# feed an indexed select whose trace shows the sublinear candidate fan-out.
# `--ann exact` (and no flag at all) must stay byte-identical.
./target/release/tps world --domain synthetic --models 10000 --benchmarks 12 \
  --targets 1 --seed 11 --out "$trace_tmp/ann-world.json"
./target/release/tps offline --world "$trace_tmp/ann-world.json" \
  --ann indexed --stream-batch 512 --out "$trace_tmp/ann-artifacts.json" \
  --trace-out "$trace_tmp/ann-offline-trace.json"
./target/release/tps trace check "$trace_tmp/ann-offline-trace.json" \
  --budgets budgets.toml
grep -q '"ann.index_nodes"' "$trace_tmp/ann-offline-trace.json" \
  || { echo "indexed offline trace missing ann.* counters"; exit 1; }
./target/release/tps select --world "$trace_tmp/ann-world.json" \
  --artifacts "$trace_tmp/ann-artifacts.json" --target target-0 \
  --ann indexed --trace-out "$trace_tmp/ann-select-trace.json" > /dev/null
./target/release/tps trace check "$trace_tmp/ann-select-trace.json" \
  --budgets budgets.toml
grep -q '"ann.candidates"' "$trace_tmp/ann-select-trace.json" \
  || { echo "indexed select trace missing ann.* counters"; exit 1; }
./target/release/tps world --domain cv --seed 7 --out "$trace_tmp/cv-world.json"
./target/release/tps offline --world "$trace_tmp/cv-world.json" \
  --out "$trace_tmp/cv-default.json"
./target/release/tps offline --world "$trace_tmp/cv-world.json" \
  --ann exact --out "$trace_tmp/cv-exact.json"
cmp "$trace_tmp/cv-default.json" "$trace_tmp/cv-exact.json" \
  || { echo "--ann exact diverged from the default offline build"; exit 1; }

echo "==> live-zoo generation-parity gate (tps update / store -> cmp)"
# The determinism proof as a shell gate, mirroring CI's store-smoke job:
# commit a base generation, apply an incremental churn stream with `tps
# update`, commit the delta generation, and require (a) a non-empty store
# diff, (b) the incrementally maintained artifacts to cmp byte-identical
# to a from-scratch rebuild of the mutated world, (c) rollback to restore
# the original bytes, and (d) an export/import round-trip to reproduce
# the blobs exactly.
store_dir="$trace_tmp/gen-store"
./target/release/tps world --domain synthetic --models 16 --benchmarks 8 \
  --targets 2 --seed 5 --out "$trace_tmp/live-world.json"
./target/release/tps offline --world "$trace_tmp/live-world.json" \
  --ann indexed --threshold 0.05 --out "$trace_tmp/live-artifacts.json"
cp "$trace_tmp/live-world.json" "$trace_tmp/world-v1.json"
cp "$trace_tmp/live-artifacts.json" "$trace_tmp/artifacts-v1.json"
./target/release/tps store commit --store "$store_dir" --note base \
  --world "$trace_tmp/live-world.json" \
  --artifacts "$trace_tmp/live-artifacts.json" > /dev/null
./target/release/tps update --world "$trace_tmp/live-world.json" \
  --artifacts "$trace_tmp/live-artifacts.json" --ops 6 --seed 9 \
  --ann indexed --threshold 0.05 \
  --trace-out "$trace_tmp/update-trace.json" > /dev/null
./target/release/tps trace check "$trace_tmp/update-trace.json" \
  --budgets budgets.toml
grep -q '"incremental.updates"' "$trace_tmp/update-trace.json" \
  || { echo "update trace missing incremental.* counters"; exit 1; }
./target/release/tps store commit --store "$store_dir" --note churn \
  --world "$trace_tmp/live-world.json" \
  --artifacts "$trace_tmp/live-artifacts.json" > /dev/null
./target/release/tps store diff 1 2 --store "$store_dir" \
  | grep -q 'entr(ies) differ' \
  || { echo "store diff between generations is empty"; exit 1; }
./target/release/tps offline --world "$trace_tmp/live-world.json" \
  --ann indexed --threshold 0.05 --out "$trace_tmp/scratch-artifacts.json"
cmp "$trace_tmp/scratch-artifacts.json" "$trace_tmp/live-artifacts.json" \
  || { echo "incremental artifacts diverged from a from-scratch rebuild"; exit 1; }
./target/release/tps store rollback 1 --store "$store_dir" > /dev/null
./target/release/tps store cat 1 world --store "$store_dir" \
  --out "$trace_tmp/world-restored.json"
./target/release/tps store cat 1 artifacts --store "$store_dir" \
  --out "$trace_tmp/artifacts-restored.json"
cmp "$trace_tmp/world-restored.json" "$trace_tmp/world-v1.json" \
  || { echo "rollback did not restore the original world bytes"; exit 1; }
cmp "$trace_tmp/artifacts-restored.json" "$trace_tmp/artifacts-v1.json" \
  || { echo "rollback did not restore the original artifact bytes"; exit 1; }
./target/release/tps store export 1 --store "$store_dir" \
  --out "$trace_tmp/gen1.bundle" > /dev/null
./target/release/tps store import "$trace_tmp/gen1.bundle" \
  --store "$trace_tmp/gen-store-copy" > /dev/null
./target/release/tps store cat 1 artifacts --store "$trace_tmp/gen-store-copy" \
  --out "$trace_tmp/artifacts-imported.json"
cmp "$trace_tmp/artifacts-imported.json" "$trace_tmp/artifacts-v1.json" \
  || { echo "export/import did not round-trip the artifact bytes"; exit 1; }
./target/release/tps fsck --store "$store_dir" > /dev/null

echo "==> live observability gate (tps serve -> metrics scrape / top / access log)"
# Mirrors CI's obs-smoke job: a real background server is scraped twice
# without draining; the deterministic counter lines of the two expositions
# must be byte-identical (only wall-clock histograms and point-in-time
# gauges may move), `tps top --once` must emit a machine-readable line,
# and the structured access log + drain trace must close their accounting.
./target/release/tps serve --world "$trace_tmp/cv-world.json" \
  --artifacts "$trace_tmp/cv-default.json" \
  --ready-file "$trace_tmp/obs-ready" \
  --access-log "$trace_tmp/obs-access.jsonl" --slo-ms 60000 \
  --trace-out "$trace_tmp/obs-trace.json" > /dev/null &
obs_pid=$!
for _ in $(seq 1 100); do
  [ -s "$trace_tmp/obs-ready" ] && break
  sleep 0.1
done
obs_addr="$(cat "$trace_tmp/obs-ready")"
./target/release/tps client --addr "$obs_addr" \
  --request '{"id":1,"target":"beans"}' > /dev/null
./target/release/tps client --addr "$obs_addr" \
  --request '{"id":1,"target":"beans"}' > /dev/null
./target/release/tps client --addr "$obs_addr" --metrics true \
  > "$trace_tmp/obs-scrape-1.txt"
./target/release/tps client --addr "$obs_addr" --metrics true \
  > "$trace_tmp/obs-scrape-2.txt"
grep '_total ' "$trace_tmp/obs-scrape-1.txt" > "$trace_tmp/obs-counters-1.txt"
grep '_total ' "$trace_tmp/obs-scrape-2.txt" > "$trace_tmp/obs-counters-2.txt"
cmp "$trace_tmp/obs-counters-1.txt" "$trace_tmp/obs-counters-2.txt" \
  || { echo "live scrape counter lines drifted between identical scrapes"; exit 1; }
grep -q 'tps_serve_requests_total 2' "$trace_tmp/obs-scrape-1.txt" \
  || { echo "scrape missing the request counter"; exit 1; }
grep -q '# EOF' "$trace_tmp/obs-scrape-1.txt" \
  || { echo "scrape not terminated with # EOF"; exit 1; }
./target/release/tps top --addr "$obs_addr" --once true \
  | grep -q '"requests":2' \
  || { echo "tps top --once disagrees with the request history"; exit 1; }
./target/release/tps client --addr "$obs_addr" --shutdown true > /dev/null
wait "$obs_pid"
[ "$(wc -l < "$trace_tmp/obs-access.jsonl")" = "2" ] \
  || { echo "access log does not carry one record per request"; exit 1; }
./target/release/tps trace check "$trace_tmp/obs-trace.json" \
  --budgets budgets.toml

echo "==> chaos-serve gate (repro chaos-serve + real crash-recovery drill)"
# Mirrors CI's chaos-serve-smoke job. Part 1: the in-process chaos
# experiment — commit crash matrix, scheduled connection faults with
# byte-identical retries, reload refusal under fire — whose drain trace
# must reconcile injected vs observed counters under the chaos budget
# rules (serve-conn-errors-accounted / serve-malformed-accounted /
# store-recovery-terminal).
cargo run -q -p tps-bench --release --bin repro -- chaos-serve \
  --trace-out "$trace_tmp/chaos-serve-trace.json" > /dev/null
./target/release/tps trace check "$trace_tmp/chaos-serve-trace.json" \
  --budgets budgets.toml
grep -q '"serve.injected_conn_faults"' "$trace_tmp/chaos-serve-trace.json" \
  || { echo "chaos-serve trace missing injected-fault counters"; exit 1; }

# Part 2: REAL process deaths, not in-process error returns. An armed
# TPS_STORE_CRASH aborts `tps store commit` at a named crash point; the
# next open must recover to exactly the parent (crash before the
# generation record lands) or the child (crash once the commit is fully
# recorded), and end fsck-clean either way.
crash_store="$trace_tmp/crash-store"
./target/release/tps store commit --store "$crash_store" --note base \
  --world "$trace_tmp/world-v1.json" \
  --artifacts "$trace_tmp/artifacts-v1.json" > /dev/null
set +e
TPS_STORE_CRASH="gen 0 before" ./target/release/tps store commit \
  --store "$crash_store" --note doomed \
  --world "$trace_tmp/live-world.json" \
  --artifacts "$trace_tmp/live-artifacts.json" > /dev/null 2>&1
crash_rc=$?
set -e
[ "$crash_rc" -ne 0 ] || { echo "armed crash did not abort the commit"; exit 1; }
./target/release/tps fsck --store "$crash_store" \
  | grep -q 'recovered 1 interrupted commit' \
  || { echo "reopen after pre-gen crash did not recover the journal"; exit 1; }
./target/release/tps store log --store "$crash_store" \
  | grep -q 'generation 1 (head)' \
  || { echo "pre-gen crash did not roll back to the parent"; exit 1; }
set +e
TPS_STORE_CRASH="clear 0 before" ./target/release/tps store commit \
  --store "$crash_store" --note survives \
  --world "$trace_tmp/live-world.json" \
  --artifacts "$trace_tmp/live-artifacts.json" > /dev/null 2>&1
crash_rc=$?
set -e
[ "$crash_rc" -ne 0 ] || { echo "armed crash did not abort the commit"; exit 1; }
./target/release/tps fsck --store "$crash_store" \
  | grep -q 'recovered 1 interrupted commit' \
  || { echo "reopen after post-head crash did not recover the journal"; exit 1; }
./target/release/tps store log --store "$crash_store" \
  | grep -q 'generation 2 (head)' \
  || { echo "post-head crash did not roll forward to the child"; exit 1; }
./target/release/tps fsck --store "$crash_store" > /dev/null

# fsck --repair quarantines a deliberately corrupted blob and leaves a
# store plain fsck accepts again.
repair_store="$trace_tmp/repair-store"
cp -r "$crash_store" "$repair_store"
victim="$(ls -S "$repair_store"/objects/blob-*.rec | head -1)"
printf '\xff' | dd of="$victim" bs=1 \
  seek=$(( $(stat -c %s "$victim") - 1 )) conv=notrunc status=none
./target/release/tps fsck --store "$repair_store" > /dev/null 2>&1 \
  && { echo "fsck accepted a corrupted blob"; exit 1; }
./target/release/tps fsck --store "$repair_store" --repair true \
  | grep -q 'quarantined' \
  || { echo "fsck --repair did not quarantine the corrupt blob"; exit 1; }
./target/release/tps fsck --store "$repair_store" > /dev/null

# Part 3: kill -9 a live server mid-request. The client must fail fast
# (no hang, no fabricated response), and a fresh server must come up and
# answer a retried client afterwards.
./target/release/tps serve --world "$trace_tmp/cv-world.json" \
  --artifacts "$trace_tmp/cv-default.json" \
  --ready-file "$trace_tmp/chaos-ready-1" > /dev/null 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -s "$trace_tmp/chaos-ready-1" ] && break
  sleep 0.1
done
chaos_addr="$(cat "$trace_tmp/chaos-ready-1")"
./target/release/tps client --addr "$chaos_addr" \
  --request '{"id":9,"target":"beans","hold_ms":3000}' > /dev/null 2>&1 &
client_pid=$!
sleep 0.4
kill -9 "$serve_pid"
set +e
wait "$client_pid"
client_rc=$?
wait "$serve_pid" 2>/dev/null
set -e
[ "$client_rc" -ne 0 ] \
  || { echo "client reported success from a kill -9'd server"; exit 1; }
./target/release/tps serve --world "$trace_tmp/cv-world.json" \
  --artifacts "$trace_tmp/cv-default.json" \
  --ready-file "$trace_tmp/chaos-ready-2" > /dev/null &
serve2_pid=$!
for _ in $(seq 1 100); do
  [ -s "$trace_tmp/chaos-ready-2" ] && break
  sleep 0.1
done
chaos_addr2="$(cat "$trace_tmp/chaos-ready-2")"
./target/release/tps client --addr "$chaos_addr2" --retries 2 \
  --retry-backoff-ms 100 --timeout-ms 5000 \
  --request '{"id":10,"target":"beans"}' \
  | grep -q '"status":"ok"' \
  || { echo "restarted server did not answer a retried client"; exit 1; }
./target/release/tps client --addr "$chaos_addr2" --shutdown true > /dev/null
wait "$serve2_pid"

echo "verify: OK"
