//! Service-layer integration tests: the resident server must be a
//! transparent, deterministic wrapper around `two_phase_select` — identical
//! response bytes at any `max_inflight`, identical to one-shot runs, and a
//! cache hit must replay the miss path's bytes verbatim.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;
use tps_bench::WorldBundle;
use tps_core::fault;
use tps_core::parallel::ParallelConfig;
use tps_core::pipeline::{two_phase_select_traced, PipelineConfig};
use tps_core::recall::RecallConfig;
use tps_core::select::fine::FineSelectionConfig;
use tps_core::telemetry::Telemetry;
use tps_serve::protocol::{extract_result, status_of};
use tps_serve::{Client, Request, SelectionResult, ServeConfig, ServeSummary, Server};
use tps_zoo::{SyntheticConfig, World, ZooOracle, ZooTrainer};

/// The recall sizes the request mix alternates between.
const TOP_KS: [usize; 2] = [6, 8];

fn small_world(seed: u64) -> World {
    World::synthetic(&SyntheticConfig {
        seed,
        n_families: 3,
        family_size: (2, 3),
        n_singletons: 4,
        n_benchmarks: 8,
        n_targets: 3,
        stages: 4,
    })
}

/// One-shot reference: the same wiring and serializer the server uses.
fn one_shot(bundle: &WorldBundle, target: usize, top_k: usize) -> String {
    let (tel, _sink) = Telemetry::recording();
    let oracle = ZooOracle::new(&bundle.world, target).unwrap();
    let trainer = ZooTrainer::new(&bundle.world, target)
        .unwrap()
        .with_telemetry(tel.clone());
    let (oracle, mut trainer) = fault::wrap_pair(oracle, trainer, None);
    let config = PipelineConfig {
        recall: RecallConfig {
            top_k,
            ..RecallConfig::default()
        },
        fine: FineSelectionConfig {
            threshold: 0.0,
            ..FineSelectionConfig::default()
        },
        total_stages: bundle.world.stages,
        parallel: ParallelConfig { threads: 1 },
        ann: Default::default(),
    };
    let outcome =
        two_phase_select_traced(&bundle.artifacts, &oracle, &mut trainer, &config, &tel).unwrap();
    let result = SelectionResult::new(&bundle.world, &bundle.artifacts, target, outcome);
    serde_json::to_string(&result).unwrap()
}

/// The request mix: every (target, top_k) fingerprint exactly twice.
fn request_mix(world: &World) -> Vec<Request> {
    let mut requests = Vec::new();
    for _ in 0..2 {
        for target in 0..world.n_targets() {
            for &top_k in &TOP_KS {
                let mut req =
                    Request::select((requests.len() + 1) as u64, &world.targets[target].name);
                req.top_k = Some(top_k);
                requests.push(req);
            }
        }
    }
    requests
}

/// Run every request on its own concurrent connection against a fresh
/// in-process server; return the responses in request order plus the
/// drain summary.
fn drive_concurrent(
    bundle: &WorldBundle,
    config: ServeConfig,
    requests: &[Request],
) -> (Vec<String>, ServeSummary) {
    let server = Server::bind(&bundle.world, &bundle.artifacts, config).unwrap();
    let addr = server.addr().to_string();
    let lines: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; requests.len()]);
    let summary = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run().expect("server drains cleanly"));
        std::thread::scope(|cs| {
            for (i, req) in requests.iter().enumerate() {
                let (addr, lines) = (&addr, &lines);
                cs.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let line = client.request(req).expect("request answered");
                    lines.lock().unwrap()[i] = Some(line);
                });
            }
        });
        let mut client = Client::connect(&addr).expect("control client connects");
        let ack = client.request(&Request::control(999, "shutdown")).unwrap();
        assert_eq!(status_of(&ack), Some("ok"));
        handle.join().expect("server thread joins")
    });
    let lines = lines
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|l| l.expect("every request was answered"))
        .collect();
    (lines, summary)
}

fn serve_config(max_inflight: usize) -> ServeConfig {
    ServeConfig {
        max_inflight,
        queue_depth: 64,
        cache_capacity: 64,
        ..ServeConfig::default()
    }
}

/// Drive `requests` to completion on concurrent connections, scrape the
/// live `{"op":"metrics"}` exposition (no drain), then shut down; returns
/// the exposition and the drain summary.
fn drive_and_scrape(
    bundle: &WorldBundle,
    config: ServeConfig,
    requests: &[Request],
) -> (String, ServeSummary) {
    let server = Server::bind(&bundle.world, &bundle.artifacts, config).unwrap();
    let addr = server.addr().to_string();
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run().expect("server drains cleanly"));
        std::thread::scope(|cs| {
            for req in requests {
                let addr = &addr;
                cs.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let line = client.request(req).expect("request answered");
                    assert_eq!(status_of(&line), Some("ok"), "{line}");
                });
            }
        });
        let mut client = Client::connect(&addr).expect("control client connects");
        let scrape = client.scrape(998).expect("live metrics scrape");
        let ack = client.request(&Request::control(999, "shutdown")).unwrap();
        assert_eq!(status_of(&ack), Some("ok"));
        (scrape, handle.join().expect("server thread joins"))
    })
}

/// The deterministic slice of an exposition: every counter sample line
/// (`…_total value`). Histogram series (wall-clock) and gauges
/// (point-in-time) are explicitly outside the byte-stability contract.
fn counter_lines(exposition: &str) -> Vec<&str> {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|name| name.ends_with("_total"))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For any world seed, serving a fixed request mix at `max_inflight
    /// 1` and `4` produces byte-identical responses — each bit-identical
    /// to a one-shot `two_phase_select` of the same request — and the
    /// deterministic accounting (executed = distinct fingerprints,
    /// everything else a cache hit) is independent of the concurrency.
    #[test]
    fn responses_are_identical_at_any_max_inflight(seed in 0u64..100) {
        let bundle = WorldBundle::from_world(small_world(seed));
        let mut expected = HashMap::new();
        for target in 0..bundle.world.n_targets() {
            for &top_k in &TOP_KS {
                expected.insert((target, top_k), one_shot(&bundle, target, top_k));
            }
        }
        let requests = request_mix(&bundle.world);

        let (serial, s1) = drive_concurrent(&bundle, serve_config(1), &requests);
        let (parallel, s4) = drive_concurrent(&bundle, serve_config(4), &requests);

        prop_assert_eq!(&serial, &parallel, "responses depend on max_inflight");
        for (i, req) in requests.iter().enumerate() {
            let key = (
                bundle.world.target_by_name(req.target.as_deref().unwrap()).unwrap(),
                req.top_k.unwrap(),
            );
            prop_assert_eq!(
                extract_result(&serial[i]),
                Some(expected[&key].as_str()),
                "response {} diverged from its one-shot twin",
                i
            );
        }

        let distinct = expected.len() as u64;
        let total = requests.len() as u64;
        for stats in [&s1.stats, &s4.stats] {
            prop_assert_eq!(stats.requests, total);
            prop_assert_eq!(stats.executed, distinct);
            prop_assert_eq!(stats.cache_hits, total - distinct);
            prop_assert_eq!(stats.rejected, 0);
            prop_assert_eq!(stats.errors, 0);
        }
        // The epoch meter is the same sum either way (only the addition
        // order may differ between schedules).
        prop_assert!((s1.stats.total_epochs - s4.stats.total_epochs).abs() < 1e-9);
        prop_assert!(s1.trace.completed && s4.trace.completed);
    }

    /// Acceptance: the live metrics scrape's deterministic counter lines
    /// are byte-identical for the same request history at `max_inflight 1`
    /// and `4`. Wall-clock histograms and point-in-time gauges are the
    /// only schedule-dependent parts of the exposition.
    #[test]
    fn live_scrape_counter_lines_are_byte_identical_across_schedules(seed in 0u64..100) {
        let bundle = WorldBundle::from_world(small_world(seed));
        let requests = request_mix(&bundle.world);

        let (scrape1, s1) = drive_and_scrape(&bundle, serve_config(1), &requests);
        let (scrape4, s4) = drive_and_scrape(&bundle, serve_config(4), &requests);

        let lines1 = counter_lines(&scrape1);
        prop_assert_eq!(
            &lines1,
            &counter_lines(&scrape4),
            "live counter lines depend on max_inflight"
        );
        // The scrape reflects the full request history and is well-formed.
        prop_assert!(!lines1.is_empty());
        let total = requests.len();
        prop_assert!(
            scrape1.contains(&format!("tps_serve_requests_total {total}")),
            "scrape missing the request counter: {}", scrape1
        );
        prop_assert!(
            scrape1.contains(&format!("tps_serve_executed_total {}", s1.stats.executed)),
            "scrape disagrees with the drain stats: {}", scrape1
        );
        prop_assert!(scrape1.contains("tps_serve_request_latency_us_bucket"));
        prop_assert!(scrape1.contains("tps_serve_window_p50_us"));
        prop_assert!(scrape1.ends_with("# EOF\n"));
        // Scraping never drained anything: both servers still answered
        // every request and flushed complete traces afterwards.
        prop_assert_eq!(s1.stats.requests, total as u64);
        prop_assert!(s1.trace.completed && s4.trace.completed);
    }
}

/// `{"op":"stats"}` is point-in-time: while a held request is being
/// executed, the snapshot shows it as live occupancy; after the drain the
/// cumulative counters reconcile with the admission accounting.
#[test]
fn stats_op_reports_point_in_time_occupancy() {
    use tps_serve::ServeStats;

    let bundle = WorldBundle::from_world(small_world(7));
    let server = Server::bind(&bundle.world, &bundle.artifacts, serve_config(1)).unwrap();
    let addr = server.addr().to_string();
    let summary = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run().expect("server drains cleanly"));
        let mut client = Client::connect(&addr).unwrap();
        // Pipeline a held select and a stats poll on ONE connection: the
        // reader admits the select before it answers the stats op, and
        // both replies come back in processing order, so the snapshot is
        // guaranteed to see the held request as waiting or in flight.
        let mut held = Request::select(1, &bundle.world.targets[0].name);
        held.hold_ms = Some(300);
        client
            .send_line(&serde_json::to_string(&held).unwrap())
            .unwrap();
        let stats_line = client.request(&Request::control(2, "stats")).unwrap();
        let live: ServeStats = serde_json::from_str(extract_result(&stats_line).unwrap()).unwrap();
        assert_eq!(
            live.queue_waiting + live.queue_inflight,
            1,
            "snapshot must count the held request: {stats_line}"
        );
        assert_eq!(live.requests, 1, "{stats_line}");
        assert_eq!(live.executed, 0, "{stats_line}");
        assert_eq!(live.cache_entries, 0, "{stats_line}");

        // The held select then completes and populates the cache.
        let select_line = client.recv_line().unwrap();
        assert_eq!(status_of(&select_line), Some("ok"), "{select_line}");
        let after_line = client.request(&Request::control(3, "stats")).unwrap();
        let after: ServeStats = serde_json::from_str(extract_result(&after_line).unwrap()).unwrap();
        assert_eq!(
            after.queue_waiting + after.queue_inflight,
            0,
            "{after_line}"
        );
        assert_eq!(after.executed, 1, "{after_line}");
        assert_eq!(after.cache_entries, 1, "{after_line}");

        client.request(&Request::control(999, "shutdown")).unwrap();
        handle.join().unwrap()
    });
    // Drain-time reconciliation: every admitted request is accounted for.
    let st = &summary.stats;
    assert_eq!(st.requests, 1);
    assert_eq!(
        st.requests,
        st.executed
            + st.cache_hits
            + st.rejected
            + st.drain_rejected
            + st.deadline_rejected
            + st.errors
    );
    assert_eq!(st.queue_waiting + st.queue_inflight, 0);
}

/// Access-log and SLO accounting close exactly at drain: one JSONL record
/// per processed request, `records == written + dropped`, and the SLO burn
/// counter is 0 under a generous objective but counts every request under
/// an impossible one.
#[test]
fn access_log_and_slo_accounting_close_at_drain() {
    let bundle = WorldBundle::from_world(small_world(7));
    let requests = request_mix(&bundle.world);
    let total = requests.len() as u64;
    let log_path = std::env::temp_dir().join(format!(
        "tps-serve-access-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));

    // Generous SLO: nothing in this synthetic world takes a minute.
    let config = ServeConfig {
        access_log: Some(log_path.to_str().unwrap().to_string()),
        slo_ms: Some(60_000),
        ..serve_config(4)
    };
    let (_, summary) = drive_concurrent(&bundle, config, &requests);
    assert_eq!(summary.stats.requests, total);
    assert_eq!(summary.stats.slo_violations, 0);
    assert_eq!(summary.stats.access_log_records, total);
    assert_eq!(summary.stats.access_log_dropped, 0);
    assert_eq!(
        summary.stats.access_log_records,
        summary.stats.access_log_written + summary.stats.access_log_dropped,
        "accounting must close exactly at drain"
    );
    // The same accounting is visible to budget rules in the drain trace.
    assert_eq!(
        summary.trace.counter("serve.access_log_records"),
        Some(total as f64)
    );
    assert_eq!(summary.trace.counter("serve.slo_violations"), Some(0.0));
    // The rolling window saw every processed request.
    assert_eq!(summary.window.count, total);
    assert!(summary.window.p50_us <= summary.window.p95_us);
    assert!(summary.window.p95_us <= summary.window.p99_us);

    // One structured JSONL record per processed request, every line a
    // parseable object carrying the documented fields.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), total as usize);
    let mut hits = 0u64;
    for line in &lines {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert!(v["fingerprint"].as_str().is_some(), "{line}");
        assert_eq!(v["generation"], 1, "{line}");
        assert_eq!(v["status"], "ok", "{line}");
        assert!(v["exec_us"].as_u64().is_some(), "{line}");
        assert!(v["queue_wait_us"].as_u64().is_some(), "{line}");
        match v["cache"].as_str().unwrap() {
            "hit" | "flight" => hits += 1,
            "miss" => assert!(v["epochs"].as_f64().unwrap() > 0.0, "{line}"),
            other => panic!("unexpected cache verdict {other}: {line}"),
        }
    }
    assert_eq!(
        hits, summary.stats.cache_hits,
        "access-log verdicts must reconcile with the stats"
    );
    std::fs::remove_file(&log_path).ok();

    // Impossible SLO: every processed request burns the budget.
    let config = ServeConfig {
        slo_ms: Some(0),
        ..serve_config(4)
    };
    let (_, summary) = drive_concurrent(&bundle, config, &requests);
    assert_eq!(summary.stats.slo_violations, total);
    assert_eq!(
        summary.trace.counter("serve.slo_violations"),
        Some(total as f64)
    );
}

/// A cache hit replays the miss path's bytes verbatim: two identical
/// requests (same correlation id) produce byte-identical response lines,
/// with exactly one execution between them.
#[test]
fn cache_hit_is_byte_identical_to_miss() {
    let bundle = WorldBundle::from_world(small_world(7));
    let server = Server::bind(&bundle.world, &bundle.artifacts, serve_config(2)).unwrap();
    let addr = server.addr().to_string();
    let summary = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run().expect("server drains cleanly"));
        let mut client = Client::connect(&addr).unwrap();
        let req = Request::select(7, &bundle.world.targets[0].name);
        let miss = client.request(&req).unwrap();
        let hit = client.request(&req).unwrap();
        assert_eq!(status_of(&miss), Some("ok"), "{miss}");
        assert_eq!(miss, hit, "hit path must replay the miss path's bytes");
        assert_eq!(
            extract_result(&miss),
            Some(one_shot(&bundle, 0, 10).as_str()),
            "and both match the one-shot run"
        );
        client.request(&Request::control(999, "shutdown")).unwrap();
        handle.join().unwrap()
    });
    assert_eq!(summary.stats.requests, 2);
    assert_eq!(summary.stats.executed, 1);
    assert_eq!(summary.stats.cache_hits, 1);
}

/// Hot-swap: an in-flight request completes on the generation it was
/// admitted under, the swap invalidates the result cache (same request
/// re-executes on the new artifacts), and the envelope `generation` field
/// is monotonic across the reload.
#[test]
fn hot_swap_pins_in_flight_requests_and_invalidates_the_cache() {
    use tps_serve::protocol::generation_of;

    let old = WorldBundle::from_world(small_world(7));
    let new = WorldBundle::from_world(small_world(8));
    let (new_world, new_artifacts) = (new.world.clone(), new.artifacts.clone());
    let server = Server::bind(&old.world, &old.artifacts, serve_config(2))
        .unwrap()
        .with_reload_source(Box::new(move || {
            Ok((new_world.clone(), new_artifacts.clone()))
        }));
    let addr = server.addr().to_string();

    let summary = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run().expect("server drains cleanly"));

        // Admit a request that executes slowly enough to still be in
        // flight when the reload lands.
        let slow_line = {
            let addr = addr.clone();
            s.spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut req = Request::select(1, "target-0");
                req.hold_ms = Some(400);
                client.request(&req).unwrap()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(100));

        let mut client = Client::connect(&addr).unwrap();
        let ack = client.request(&Request::control(2, "reload")).unwrap();
        assert_eq!(status_of(&ack), Some("ok"), "{ack}");
        assert_eq!(
            generation_of(&ack),
            Some(2),
            "reload advances the generation"
        );

        // The in-flight request finishes on generation 1, answering with
        // the OLD artifacts — byte-identical to a one-shot on them.
        let slow_line = slow_line.join().unwrap();
        assert_eq!(status_of(&slow_line), Some("ok"), "{slow_line}");
        assert_eq!(
            generation_of(&slow_line),
            Some(1),
            "in-flight requests keep the generation pinned at admission"
        );
        assert_eq!(
            extract_result(&slow_line),
            Some(one_shot(&old, 0, 10).as_str()),
            "in-flight request must answer from the old artifacts"
        );

        // Post-swap, the identical request is a cache MISS (the
        // generation is folded into the fingerprint): it re-executes on
        // the new artifacts under generation 2.
        let fresh = client.request(&Request::select(3, "target-0")).unwrap();
        assert_eq!(status_of(&fresh), Some("ok"), "{fresh}");
        assert_eq!(generation_of(&fresh), Some(2));
        assert_eq!(
            extract_result(&fresh),
            Some(one_shot(&new, 0, 10).as_str()),
            "post-swap request must answer from the new artifacts"
        );
        assert!(
            generation_of(&slow_line) < generation_of(&fresh),
            "generation is monotonic across a reload"
        );

        // Same-generation repeat is a plain cache hit again.
        let hit = client.request(&Request::select(4, "target-0")).unwrap();
        assert_eq!(hit.replace("\"id\":4", "\"id\":3"), fresh);

        client.request(&Request::control(999, "shutdown")).unwrap();
        handle.join().unwrap()
    });
    assert_eq!(summary.stats.requests, 3);
    assert_eq!(
        summary.stats.executed, 2,
        "one execution per generation: the swap invalidated the cache"
    );
    assert_eq!(summary.stats.cache_hits, 1);
    assert_eq!(summary.stats.reloads, 1);
    assert_eq!(summary.stats.generation, 2);
    // The committed budget rule: serve.generation == serve.reloads + 1.
    assert_eq!(
        summary.trace.counters["serve.generation"],
        summary.trace.counters["serve.reloads"] + 1.0
    );
}

/// Without a reload source, `reload` is answered with a structured error
/// and the server keeps serving the bound generation.
#[test]
fn reload_without_a_source_is_a_structured_error() {
    let bundle = WorldBundle::from_world(small_world(9));
    let server = Server::bind(&bundle.world, &bundle.artifacts, serve_config(1)).unwrap();
    let addr = server.addr().to_string();
    let summary = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run().expect("server drains cleanly"));
        let mut client = Client::connect(&addr).unwrap();
        let nack = client.request(&Request::control(1, "reload")).unwrap();
        assert_eq!(status_of(&nack), Some("reload_failed"), "{nack}");
        let ok = client.request(&Request::select(2, "target-0")).unwrap();
        assert_eq!(status_of(&ok), Some("ok"), "{ok}");
        assert_eq!(tps_serve::protocol::generation_of(&ok), Some(1));
        client.request(&Request::control(999, "shutdown")).unwrap();
        handle.join().unwrap()
    });
    assert_eq!(summary.stats.reloads, 0);
    assert_eq!(summary.stats.generation, 1);
}
