//! Load-generation experiment for the resident selection service.
//!
//! Spins up an **in-process** `tps-serve` server over a small multi-target
//! world and drives it through two phases:
//!
//! 1. **Correctness under concurrency**: four concurrent clients replay a
//!    seeded request mix (24 requests over 8 distinct fingerprints). Every
//!    response must be **bit-identical** to a one-shot
//!    `two_phase_select` of the same request, the cache must collapse the
//!    repeats (`executed == 8`, `cache_hits == 16`), and per-request epoch
//!    budgets and fault plans must flow through the wire unharmed.
//! 2. **Overload and deadlines**: a 1-worker/1-slot server is saturated
//!    with a held request; the burst behind it must be answered with
//!    structured `overloaded` rejections (never a hang or abort), and a
//!    `deadline_ms: 0` request must come back `deadline_exceeded`.
//!
//! Phase 1 runs with the observability plane armed: a structured JSONL
//! access log (whose drop accounting must close exactly at drain) and a
//! generous SLO objective (whose burn counter must stay at zero under
//! non-overload). The record persists the server-side rolling-window
//! percentiles alongside the client-side ones.
//!
//! Both drains flush an aggregate trace that is checked against the
//! committed `budgets.toml` — the same gate `scripts/verify.sh` applies
//! via `tps trace check` to the record's embedded `trace`.

use crate::table::{epochs, Table};
use crate::{Report, WorldBundle, SEED};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;
use tps_core::fault::{self, FaultPlan};
use tps_core::parallel::ParallelConfig;
use tps_core::pipeline::{two_phase_select_traced, PipelineConfig};
use tps_core::recall::RecallConfig;
use tps_core::select::fine::FineSelectionConfig;
use tps_core::telemetry::{budget, Telemetry, TraceReport};
use tps_serve::protocol::{extract_result, status_of};
use tps_serve::{Client, Request, SelectionResult, ServeConfig, ServeSummary, Server};
use tps_zoo::{SyntheticConfig, World, ZooOracle, ZooTrainer};

/// Concurrent clients in the correctness phase.
const CLIENTS: usize = 4;
/// Requests each client issues.
const PER_CLIENT: usize = 6;
/// The two recall sizes the mix alternates between.
const TOP_KS: [usize; 2] = [10, 8];

#[derive(Serialize, Deserialize)]
struct LoadgenRecord {
    n_models: usize,
    n_targets: usize,
    clients: usize,
    /// Phase-1 accounting (deterministic at any `max_inflight`).
    requests: u64,
    executed: u64,
    cache_hits: u64,
    distinct_fingerprints: usize,
    byte_identical: bool,
    budget_violations: u64,
    fault_casualties: usize,
    /// Phase-2 accounting (saturated 1-worker/1-slot server).
    overload_requests: u64,
    overload_rejected: u64,
    deadline_rejected: u64,
    /// Wall-clock latency percentiles of the phase-1 storm (µs),
    /// measured client-side.
    latency_p50_us: u64,
    latency_p95_us: u64,
    latency_max_us: u64,
    /// Server-side rolling-window percentiles at drain (µs).
    window_p50_us: u64,
    window_p95_us: u64,
    window_p99_us: u64,
    /// SLO burn and access-log accounting of the phase-1 server.
    slo_violations: u64,
    access_log_records: u64,
    access_log_dropped: u64,
    /// Epoch-equivalents billed by the phase-1 server.
    total_epochs: f64,
    /// Phase-1 aggregate trace (extracted by `repro loadgen --trace-out`;
    /// checked against `budgets.toml` in CI).
    trace: TraceReport,
}

/// A 4-target sibling of the chaos/smoke world — same shape, but with
/// enough targets that the request mix exercises distinct fingerprints.
fn serve_world() -> World {
    World::synthetic(&SyntheticConfig {
        seed: SEED,
        n_families: 4,
        family_size: (2, 4),
        n_singletons: 8,
        n_benchmarks: 12,
        n_targets: 4,
        stages: 5,
    })
}

/// Exactly the pipeline configuration the server builds for a request with
/// the given recall size and otherwise default knobs.
fn pipeline_config(world: &World, top_k: usize) -> PipelineConfig {
    PipelineConfig {
        recall: RecallConfig {
            top_k,
            ..RecallConfig::default()
        },
        fine: FineSelectionConfig {
            threshold: 0.0,
            ..FineSelectionConfig::default()
        },
        total_stages: world.stages,
        parallel: ParallelConfig { threads: 1 },
        ann: Default::default(),
    }
}

/// One-shot reference run: the same oracle/trainer wiring, fault wrapping
/// and serializer the server uses, so payloads can be compared byte for
/// byte. Returns the serialized [`SelectionResult`] and the casualty count.
fn one_shot(
    bundle: &WorldBundle,
    target: usize,
    top_k: usize,
    plan: Option<&FaultPlan>,
) -> (String, usize) {
    let (tel, _sink) = Telemetry::recording();
    let oracle = ZooOracle::new(&bundle.world, target).expect("target exists");
    let trainer = ZooTrainer::new(&bundle.world, target)
        .expect("target exists")
        .with_telemetry(tel.clone());
    let (oracle, mut trainer) = fault::wrap_pair(oracle, trainer, plan);
    let config = pipeline_config(&bundle.world, top_k);
    let outcome = two_phase_select_traced(&bundle.artifacts, &oracle, &mut trainer, &config, &tel)
        .expect("one-shot selection completes");
    let casualties = outcome.casualties.len();
    let result = SelectionResult::new(&bundle.world, &bundle.artifacts, target, outcome);
    (
        serde_json::to_string(&result).expect("selection result serializes"),
        casualties,
    )
}

/// The request mix: request `n` targets dataset `n % 4` with the recall
/// size alternating every four requests — 24 requests, 8 fingerprints,
/// each repeated three times.
fn mix(n: usize) -> (usize, usize) {
    (n % 4, TOP_KS[(n / 4) % 2])
}

fn check_against_budgets(trace: &TraceReport, what: &str) {
    let budgets = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../budgets.toml");
    let spec = budget::parse_spec(&std::fs::read_to_string(budgets).expect("budgets.toml"))
        .expect("budgets.toml parses");
    let outcome = budget::check(trace, &spec);
    assert!(
        outcome.ok(),
        "{what} trace violates budgets: {:?}",
        outcome.violations
    );
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn clip(line: &str) -> &str {
    &line[..line.len().min(120)]
}

/// Phase 1: concurrent storm + cache + budgets + faults, then drain.
/// Runs with the observability plane fully armed: a structured access log
/// and a generous SLO, both audited against the drain accounting.
fn correctness_phase(
    bundle: &WorldBundle,
    expected: &HashMap<(usize, usize), String>,
) -> (ServeSummary, Vec<u64>, usize) {
    let access_path =
        std::env::temp_dir().join(format!("tps-loadgen-access-{}.jsonl", std::process::id()));
    let server = Server::bind(
        &bundle.world,
        &bundle.artifacts,
        ServeConfig {
            max_inflight: 2,
            queue_depth: 32,
            cache_capacity: 64,
            access_log: Some(access_path.to_str().expect("utf-8 temp path").to_string()),
            slo_ms: Some(60_000),
            ..ServeConfig::default()
        },
    )
    .expect("bind a loopback listener");
    let addr = server.addr().to_string();
    let latencies = Mutex::new(Vec::new());
    let mismatches = Mutex::new(Vec::new());
    let mut fault_casualties = 0;
    let summary = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run().expect("server drains cleanly"));
        std::thread::scope(|cs| {
            for c in 0..CLIENTS {
                let (addr, latencies, mismatches) = (&addr, &latencies, &mismatches);
                cs.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    for j in 0..PER_CLIENT {
                        let n = c * PER_CLIENT + j;
                        let (target, top_k) = mix(n);
                        let mut req =
                            Request::select((n + 1) as u64, &bundle.world.targets[target].name);
                        req.top_k = Some(top_k);
                        let started = Instant::now();
                        let line = client.request(&req).expect("server answers");
                        latencies
                            .lock()
                            .unwrap()
                            .push(started.elapsed().as_micros() as u64);
                        let want = &expected[&(target, top_k)];
                        if extract_result(&line) != Some(want.as_str()) {
                            mismatches.lock().unwrap().push(format!(
                                "request {}: {}",
                                n + 1,
                                clip(&line)
                            ));
                        }
                    }
                });
            }
        });
        // The storm is joined; audit the server on a fresh connection.
        let mut client = Client::connect(&addr).expect("audit client connects");

        // A repeat request with a tiny epoch budget: still served (from
        // cache, byte-identically) but the overrun is surfaced.
        let mut tight = Request::select(91, &bundle.world.targets[0].name);
        tight.top_k = Some(TOP_KS[0]);
        tight.max_epochs = Some(0.001);
        let line = client.request(&tight).expect("budget request answered");
        assert_eq!(status_of(&line), Some("ok"), "{}", clip(&line));
        assert!(
            line.contains("\"violations\":["),
            "epoch overrun must be surfaced: {}",
            clip(&line)
        );
        assert_eq!(
            extract_result(&line),
            Some(expected[&(0, TOP_KS[0])].as_str()),
            "violations must not disturb the payload bytes"
        );

        // A scripted permanent fault aimed at a recalled model: the request
        // degrades gracefully and matches its one-shot twin byte for byte.
        let baseline: SelectionResult =
            serde_json::from_str(&expected[&(0, TOP_KS[0])]).expect("payload parses back");
        let victim = baseline.outcome.selection.pool_history[0][2];
        let plan = FaultPlan::parse(&format!("advance m{} 0 permanent\n", victim.index()))
            .expect("scripted plan parses");
        let (faulted_payload, casualties) = one_shot(bundle, 0, TOP_KS[0], Some(&plan));
        assert!(casualties > 0, "a permanent fault on the pool quarantines");
        fault_casualties = casualties;
        let mut chaos = Request::select(92, &bundle.world.targets[0].name);
        chaos.top_k = Some(TOP_KS[0]);
        chaos.fault_plan = Some(plan.to_text());
        let line = client.request(&chaos).expect("fault request answered");
        assert_eq!(
            extract_result(&line),
            Some(faulted_payload.as_str()),
            "faulted selection must match its one-shot twin"
        );

        let line = client
            .request(&Request::control(99, "shutdown"))
            .expect("shutdown acknowledged");
        assert_eq!(status_of(&line), Some("ok"), "{}", clip(&line));
        handle.join().expect("server thread joins")
    });
    let mismatches = mismatches.into_inner().unwrap();
    assert!(
        mismatches.is_empty(),
        "{} responses diverged from one-shot runs:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    let mut latencies = latencies.into_inner().unwrap();
    latencies.sort_unstable();

    // The access log wrote exactly one JSONL record per processed request,
    // and nothing in this synthetic world takes a minute.
    assert_eq!(summary.stats.slo_violations, 0, "generous SLO never burns");
    assert_eq!(summary.stats.access_log_records, summary.stats.requests);
    assert_eq!(summary.stats.access_log_dropped, 0);
    let log = std::fs::read_to_string(&access_path).expect("access log flushed");
    assert_eq!(
        log.lines().count() as u64,
        summary.stats.access_log_written,
        "one line per written record"
    );
    std::fs::remove_file(&access_path).ok();

    (summary, latencies, fault_casualties)
}

/// Phase 2: saturate a 1-worker/1-slot server and verify structured
/// shedding — `overloaded` for the burst, `deadline_exceeded` for the
/// stale request, a real answer for the held one.
fn overload_phase(
    bundle: &WorldBundle,
    expected: &HashMap<(usize, usize), String>,
) -> ServeSummary {
    let server = Server::bind(
        &bundle.world,
        &bundle.artifacts,
        ServeConfig {
            max_inflight: 1,
            queue_depth: 1,
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    )
    .expect("bind a loopback listener");
    let addr = server.addr().to_string();
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run().expect("server drains cleanly"));
        let mut client = Client::connect(&addr).expect("client connects");
        let send = |client: &mut Client, req: &Request| {
            client
                .send_line(&serde_json::to_string(req).expect("request serializes"))
                .expect("request sent");
        };
        // Fill the worker: one request held for 400ms of think-time.
        let mut held = Request::select(200, &bundle.world.targets[0].name);
        held.top_k = Some(TOP_KS[0]);
        held.hold_ms = Some(400);
        send(&mut client, &held);
        // Fill the single queue slot with an already-expired deadline.
        let mut stale = Request::select(201, &bundle.world.targets[1].name);
        stale.deadline_ms = Some(0);
        send(&mut client, &stale);
        // Burst: occupancy is at capacity (2), so all four are shed.
        for i in 0..4u64 {
            send(
                &mut client,
                &Request::select(202 + i, &bundle.world.targets[(i as usize) % 4].name),
            );
        }
        let lines: Vec<String> = (0..6)
            .map(|_| client.recv_line().expect("every request is answered"))
            .collect();
        let count = |status: &str| {
            lines
                .iter()
                .filter(|l| status_of(l) == Some(status))
                .count()
        };
        assert_eq!(count("overloaded"), 4, "burst is shed: {lines:?}");
        assert_eq!(count("deadline_exceeded"), 1, "stale request: {lines:?}");
        assert_eq!(count("ok"), 1, "held request completes: {lines:?}");
        let ok_line = lines
            .iter()
            .find(|l| status_of(l) == Some("ok"))
            .expect("one ok line");
        assert_eq!(
            extract_result(ok_line),
            Some(expected[&(0, TOP_KS[0])].as_str()),
            "the uncached path is byte-identical too"
        );
        let line = client
            .request(&Request::control(299, "shutdown"))
            .expect("shutdown acknowledged");
        assert_eq!(status_of(&line), Some("ok"), "{}", clip(&line));
        handle.join().expect("server thread joins")
    })
}

/// Service load test: concurrency, caching, budgets, faults, overload.
pub fn loadgen() -> Report {
    let bundle = WorldBundle::from_world(serve_world());
    let mut expected = HashMap::new();
    for target in 0..bundle.world.n_targets() {
        for &top_k in &TOP_KS {
            expected.insert((target, top_k), one_shot(&bundle, target, top_k, None).0);
        }
    }

    let (summary, latencies, fault_casualties) = correctness_phase(&bundle, &expected);
    let stats = &summary.stats;
    let storm = (CLIENTS * PER_CLIENT) as u64;
    // 24 storm requests + 1 budget-check repeat + 1 faulted request.
    assert_eq!(stats.requests, storm + 2);
    // Distinct fingerprints execute exactly once; everything else hits.
    assert_eq!(
        stats.executed,
        expected.len() as u64 + 1,
        "8 mixes + 1 fault"
    );
    assert_eq!(stats.cache_hits, storm - expected.len() as u64 + 1);
    assert_eq!(stats.rejected, 0, "no shedding below capacity");
    assert_eq!(
        stats.deadline_rejected + stats.drain_rejected + stats.errors,
        0
    );
    assert_eq!(stats.budget_violations, 1, "the tight-budget repeat");
    assert!(stats.total_epochs > 0.0);
    assert!(summary.trace.completed);
    let roots = summary
        .trace
        .spans
        .iter()
        .filter(|s| s.name == "serve.request")
        .count();
    assert_eq!(roots as u64, stats.executed, "one root span per execution");
    check_against_budgets(&summary.trace, "correctness-phase");

    let overload = overload_phase(&bundle, &expected);
    assert_eq!(overload.stats.requests, 6);
    assert_eq!(overload.stats.executed, 1);
    assert_eq!(overload.stats.rejected, 4);
    assert_eq!(overload.stats.deadline_rejected, 1);
    assert_eq!(overload.stats.errors, 0);
    assert_eq!(
        overload.stats.queue_peak, overload.stats.queue_capacity,
        "rejections only under saturation"
    );
    assert!(overload.trace.completed);
    check_against_budgets(&overload.trace, "overload-phase");

    let mut table = Table::new(vec![
        "phase", "requests", "executed", "hits", "rejected", "epochs",
    ]);
    table.row(vec![
        "storm (4 clients)".to_string(),
        stats.requests.to_string(),
        stats.executed.to_string(),
        stats.cache_hits.to_string(),
        stats.rejected.to_string(),
        epochs(stats.total_epochs),
    ]);
    table.row(vec![
        "saturated (1 slot)".to_string(),
        overload.stats.requests.to_string(),
        overload.stats.executed.to_string(),
        overload.stats.cache_hits.to_string(),
        overload.stats.rejected.to_string(),
        epochs(overload.stats.total_epochs),
    ]);
    let body = format!(
        "{}\nall {} responses byte-identical to one-shot runs \
         ({} distinct fingerprints, {} cache hits)\n\
         storm latency µs: p50 {}, p95 {}, max {}\n\
         overload: {} shed, {} past deadline, held request still answered\n",
        table.render(),
        storm,
        expected.len(),
        stats.cache_hits,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 1.0),
        overload.stats.rejected,
        overload.stats.deadline_rejected,
    );
    let body = format!(
        "{body}server window µs: p50 {}, p95 {}, p99 {} — {} SLO violation(s), \
         access log {} record(s) ({} dropped)\n",
        summary.window.p50_us,
        summary.window.p95_us,
        summary.window.p99_us,
        stats.slo_violations,
        stats.access_log_records,
        stats.access_log_dropped,
    );

    let record = LoadgenRecord {
        n_models: bundle.world.n_models(),
        n_targets: bundle.world.n_targets(),
        clients: CLIENTS,
        requests: stats.requests,
        executed: stats.executed,
        cache_hits: stats.cache_hits,
        distinct_fingerprints: expected.len() + 1,
        byte_identical: true,
        budget_violations: stats.budget_violations,
        fault_casualties,
        overload_requests: overload.stats.requests,
        overload_rejected: overload.stats.rejected,
        deadline_rejected: overload.stats.deadline_rejected,
        latency_p50_us: percentile(&latencies, 0.50),
        latency_p95_us: percentile(&latencies, 0.95),
        latency_max_us: percentile(&latencies, 1.0),
        window_p50_us: summary.window.p50_us,
        window_p95_us: summary.window.p95_us,
        window_p99_us: summary.window.p99_us,
        slo_violations: stats.slo_violations,
        access_log_records: stats.access_log_records,
        access_log_dropped: stats.access_log_dropped,
        total_epochs: stats.total_epochs,
        trace: summary.trace,
    };
    // Persisted as `results/serve.json` — the service's benchmark record
    // (the `loadgen` registry id stays the runner's name).
    Report::new(
        "serve",
        "Service load test: concurrent clients vs the resident server",
        body,
        &record,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadgen_certifies_the_service() {
        // `loadgen()` asserts byte-identity, cache accounting, structured
        // shedding and budget compliance internally; surviving the call is
        // the test. Spot-check the persisted record.
        let report = loadgen();
        let record: LoadgenRecord = serde_json::from_value(report.json).unwrap();
        assert!(record.byte_identical);
        assert_eq!(record.requests, 26);
        assert_eq!(record.executed, 9);
        assert_eq!(record.cache_hits, 17);
        assert_eq!(record.overload_rejected, 4);
        assert!(record.fault_casualties > 0);
        assert!(record.trace.completed);
        // Observability accounting rides along in the record.
        assert_eq!(record.slo_violations, 0);
        assert_eq!(record.access_log_records, 26);
        assert_eq!(record.access_log_dropped, 0);
        assert_eq!(record.trace.counter("serve.access_log_records"), Some(26.0));
        assert!(record.window_p50_us <= record.window_p95_us);
        assert!(record.window_p95_us <= record.window_p99_us);
    }
}
