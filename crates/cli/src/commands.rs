//! Implementation of the `tps` subcommands. Each command is a function from
//! parsed flags to a rendered report string, so the whole surface is unit
//! testable without spawning processes.

use crate::args::{ArgError, ParsedArgs};
use std::fmt::Write as _;
use std::path::Path;
use tps_core::ann::{AnnConfig, AnnMode};
use tps_core::fault::{self, FaultPlan};
use tps_core::ids::ModelId;
use tps_core::parallel::ParallelConfig;
use tps_core::pipeline::{
    two_phase_select_traced, OfflineArtifacts, OfflineConfig, PipelineConfig,
};
use tps_core::recall::RecallConfig;
use tps_core::select::brute::brute_force_traced;
use tps_core::select::fine::FineSelectionConfig;
use tps_core::select::halving::successive_halving_traced;
use tps_core::telemetry::{analysis, budget, openmetrics, RecordingSink, Telemetry, TraceReport};
use tps_zoo::{SyntheticConfig, World, ZooOracle, ZooTrainer};

/// Top-level CLI error: argument problems, IO, or framework errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Bad command line.
    Args(ArgError),
    /// File IO / JSON problems.
    Io(String),
    /// Selection-framework error.
    Selection(tps_core::error::SelectionError),
    /// Anything else (unknown command, unknown target…).
    Usage(String),
    /// A gate failed — trace drift or budget violations. Carries the full
    /// rendered report; the process exits nonzero so CI fails.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            // Render the whole cause chain: a quarantine-triggering
            // substrate failure prints as `... : caused by: ...` so the
            // underlying fault is visible from the shell.
            CliError::Selection(e) => write!(f, "{}", e.chain_to_string()),
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Failed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Args(e) => Some(e),
            CliError::Selection(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<tps_core::error::SelectionError> for CliError {
    fn from(e: tps_core::error::SelectionError) -> Self {
        CliError::Selection(e)
    }
}

/// Run one parsed command, returning the text to print.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    match args.command.as_str() {
        "world" => cmd_world(args),
        "offline" => cmd_offline(args),
        "inspect" => cmd_inspect(args),
        "select" => cmd_select(args),
        "compare" => cmd_compare(args),
        "grow" => cmd_grow(args),
        "update" => cmd_update(args),
        "archive" => cmd_archive(args),
        "store" => cmd_store(args),
        "catalog" => cmd_catalog(args),
        "fsck" => cmd_fsck(args),
        "trace" => cmd_trace(args),
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        "top" => cmd_top(args),
        "help" => Ok(usage()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`; try `tps help`"
        ))),
    }
}

/// The help text.
pub fn usage() -> String {
    "\
tps — two-phase model selection (coarse-recall + fine-selection)

commands:
  world    generate a synthetic world        --domain nlp|cv|synthetic [--seed N]
                                             [--models N --benchmarks N --targets N
                                             --stages N] --out FILE
  offline  build offline artifacts           --world FILE --out FILE [--top-k-sim N]
                                             [--threshold F] [--threads N]
                                             [--trace-out FILE] [--ann exact|indexed]
                                             [--ann-k N] [--ann-ef N] [--stream-batch N]
  inspect  summarise offline artifacts       --artifacts FILE
  select   two-phase selection for a target  --world FILE --artifacts FILE
                                             --target NAME [--top-k N] [--threshold F]
                                             [--stages N] [--threads N] [--trace-out FILE]
                                             [--fault-plan FILE | --fault-seed N]
                                             [--ann exact|indexed] [--ann-k N] [--ann-ef N]
  compare  BF vs SH vs 2PH on one target     --world FILE --artifacts FILE --target NAME
                                             [--threads N] [--trace-out FILE]
                                             [--fault-plan FILE | --fault-seed N]

`--threads 0` resolves the worker count from $TPS_THREADS or the machine's
available parallelism; results are identical for any thread count.
`--trace-out FILE` records structured telemetry (per-phase wall-clock spans
plus proxy-eval / epoch / survivor counters) and writes it as JSON.
`--fault-plan FILE` injects scripted substrate faults (one `site model
attempt kind` line each, e.g. `advance m3 1 transient`); `--fault-seed N`
generates a pseudo-random schedule instead. The pipeline retries transient
failures and quarantines models lost to permanent ones; casualties are
listed in the output and recorded in the trace.
`--ann indexed` turns on ANN-indexed mode: the offline build replaces the
dense O(M^2) similarity matrix with an HNSW-style index (and supports
`--stream-batch N` to fold models in waves without holding every curve),
and online recall proxy-scores only ~k*log(M) index-near clusters instead
of every representative. `--ann exact` (the default) is byte-identical to
the pre-index behaviour. `--ann-k` / `--ann-ef` tune neighbour count and
search beam; results are deterministic for any thread count either way.
  grow     add a model incrementally         --world FILE --artifacts FILE --name NAME
                                             [--like MODEL] [--capability F] [--seed N]
  update   apply a deterministic churn       --world FILE --artifacts FILE [--ops N]
           stream (add/retire/refresh        [--seed N] [--top-k-sim N] [--threshold F]
           models, add/drop benchmarks)      [--threads N] [--trace-out FILE]
           through the incremental delta     [--ann exact|indexed] [--ann-k N] [--ann-ef N]
           engine; both files are rewritten  (flags must match the original offline build
           in place, byte-identical to a     for the byte-identity guarantee to hold)
           from-scratch offline build
  archive  persist world+artifacts durably   --store DIR --name TAG --world FILE
                                             --artifacts FILE [--force true]
  store    versioned generations of raw artifact files (content-addressed):
           store commit --store DIR --world FILE --artifacts FILE [--note TEXT]
           store log --store DIR               history from head, newest first
           store diff A B --store DIR          entry-level changes between generations
           store rollback N --store DIR        move head back to generation N
           store cat N ENTRY --store DIR --out FILE   extract entry bytes verbatim
           store export N --store DIR --out FILE      one-file bundle of generation N
           store import FILE --store DIR              ingest an exported bundle
           store gc --store DIR                drop generations/blobs unreachable from head
  catalog  list a store's contents           --store DIR
  fsck     verify every stored record        --store DIR [--repair true]
           `--repair true` quarantines corrupt/truncated records and orphan
           blobs into DIR/quarantine/ and reindexes salvageable ones
  trace    analyse --trace-out files:
           trace summarize FILE [--top N] [--format text|json]
                                               top spans by self-time + counter tables
           trace diff A B [--tolerance F]      deterministic drift check, nonzero on drift
           trace check FILE [--budgets FILE]   evaluate budgets.toml cost invariants
           trace export FILE [--out FILE]      OpenMetrics/Prometheus text exposition
           trace baseline FILE --out FILE      strip to deterministic payload for committing
  serve    resident selection service         (--store DIR --name TAG | --world FILE
                                             --artifacts FILE) [--addr HOST:PORT]
                                             [--max-inflight N] [--queue-depth N]
                                             [--cache N] [--threads N] [--top-k N]
                                             [--threshold F] [--stages N]
                                             [--ann exact|indexed] [--ann-k N] [--ann-ef N]
                                             [--ready-file FILE] [--trace-out FILE]
                                             [--access-log FILE] [--slo-ms N]
                                             [--max-line-bytes N] [--stall-timeout-ms N]
                                             [--net-fault-plan FILE]
           a `{\"op\":\"reload\"}` request (or SIGHUP) hot-swaps to the current
           on-disk world+artifacts without dropping in-flight requests;
           request lines over --max-line-bytes (default 1 MiB) are rejected
           with a `malformed` envelope, and a partial line idle past
           --stall-timeout-ms (default 30000; 0 disables) drops the
           connection; --net-fault-plan injects deterministic response
           faults (`response INDEX disconnect|partial|garbage|stall`) for
           chaos drills
  client   send requests to a running server  --addr HOST:PORT [--request JSON]
                                             [--file FILE] [--metrics true]
                                             [--shutdown true] [--retries N]
                                             [--retry-backoff-ms N] [--timeout-ms N]
                                             (stdin lines when no request source given)
           --retries reconnects and resends through severed/garbled/stalled
           connections; safe because retried responses are byte-identical
  top      live dashboard over a server       --addr HOST:PORT [--interval-ms N]
                                             [--samples N] [--once true]
           polls `{\"op\":\"metrics\"}` + `{\"op\":\"stats\"}` and renders rates,
           window percentiles, occupancy, generation, and SLO burn;
           `--once true` prints one machine-readable JSON line for CI
  help     this message

`tps serve` loads the artifacts once, then answers line-delimited JSON
selection requests (e.g. `{\"id\":1,\"target\":\"mnli\"}`) until a
`{\"op\":\"shutdown\"}` request or SIGTERM drains it; the drain flushes one
aggregate trace (`--trace-out`) that `tps trace check` can audit. The
server is observable while live: `{\"op\":\"metrics\"}` (or `tps client
--metrics true`) scrapes an OpenMetrics snapshot without draining,
`--access-log FILE` records one JSONL line per admitted request off the
critical path, and `--slo-ms N` burns `serve.slo_violations` for every
answered request slower than the objective.
"
    .to_string()
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, CliError> {
    let data = std::fs::read_to_string(Path::new(path))
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    serde_json::from_str(&data).map_err(|e| CliError::Io(format!("cannot parse {path}: {e}")))
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    let data =
        serde_json::to_string(value).map_err(|e| CliError::Io(format!("cannot serialize: {e}")))?;
    std::fs::write(Path::new(path), data)
        .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))
}

fn cmd_world(args: &ParsedArgs) -> Result<String, CliError> {
    args.restrict(&[
        "domain",
        "seed",
        "models",
        "benchmarks",
        "targets",
        "stages",
        "out",
    ])?;
    let seed = args.get_parse("seed", 42u64, "integer")?;
    let out = args.require("out")?;
    let world = match args.get("domain").unwrap_or("nlp") {
        "nlp" => World::nlp(seed),
        "cv" => World::cv(seed),
        "synthetic" => {
            let models = args.get_parse("models", 40usize, "integer")?;
            // Models split ~2/3 into families of ~4, 1/3 singletons.
            let n_singletons = models / 3;
            let n_families = ((models - n_singletons) / 4).max(1);
            World::synthetic(&SyntheticConfig {
                seed,
                n_families,
                family_size: (3, 5),
                n_singletons,
                n_benchmarks: args.get_parse("benchmarks", 20usize, "integer")?,
                n_targets: args.get_parse("targets", 4usize, "integer")?,
                stages: args.get_parse("stages", 5usize, "integer")?,
            })
        }
        other => {
            return Err(CliError::Usage(format!(
                "--domain must be nlp, cv or synthetic (got {other})"
            )))
        }
    };
    write_json(out, &world)?;
    Ok(format!(
        "wrote world to {out}: {} models, {} benchmark datasets, {} targets ({} stages)\n",
        world.n_models(),
        world.n_benchmarks(),
        world.n_targets(),
        world.stages,
    ))
}

/// Parse `--threads N` into a [`ParallelConfig`] (default: serial; `0`
/// resolves from `TPS_THREADS` / available parallelism).
fn parallel_config(args: &ParsedArgs) -> Result<ParallelConfig, CliError> {
    Ok(ParallelConfig::with_threads(
        args.get_parse("threads", 1usize, "integer")?,
    ))
}

/// Telemetry plumbing for `--trace-out FILE`: without the flag, tracing is
/// disabled (and costs nothing); with it, a recording sink collects spans +
/// counters which [`write_trace`] renders to the file after the command.
fn telemetry_for(args: &ParsedArgs) -> (Telemetry, Option<std::sync::Arc<RecordingSink>>) {
    if args.get("trace-out").is_some() {
        let (tel, sink) = Telemetry::recording();
        (tel, Some(sink))
    } else {
        (Telemetry::disabled(), None)
    }
}

/// Write the collected trace (if any) to the `--trace-out` path, appending
/// a note to the command output.
fn write_trace(
    args: &ParsedArgs,
    sink: Option<std::sync::Arc<RecordingSink>>,
    out: &mut String,
) -> Result<(), CliError> {
    if let (Some(sink), Some(path)) = (sink, args.get("trace-out")) {
        let report = sink.report();
        write_json(path, &report)?;
        let _ = writeln!(
            out,
            "wrote trace to {path}: {} root span(s), {} counter(s)",
            report.spans.len(),
            report.counters.len()
        );
    }
    Ok(())
}

/// Run a traced command body. On success the trace is written normally; on
/// error the partial trace is still flushed, marked `"completed": false`,
/// so failed runs stay diagnosable instead of silently dropping telemetry.
fn with_trace(
    args: &ParsedArgs,
    body: impl FnOnce(&Telemetry) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let (tel, sink) = telemetry_for(args);
    match body(&tel) {
        Ok(mut out) => {
            write_trace(args, sink, &mut out)?;
            Ok(out)
        }
        Err(e) => {
            if let (Some(sink), Some(path)) = (sink, args.get("trace-out")) {
                let mut report = sink.report();
                report.completed = false;
                // Best-effort: the pipeline error stays the primary failure.
                let _ = write_json(path, &report);
            }
            Err(e)
        }
    }
}

/// Parse `--fault-plan FILE` / `--fault-seed N` into an optional fault
/// schedule. The flags are mutually exclusive; a seeded plan schedules a
/// handful of faults over the repository's models.
fn fault_plan_from(args: &ParsedArgs, n_models: usize) -> Result<Option<FaultPlan>, CliError> {
    match (args.get("fault-plan"), args.get("fault-seed")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--fault-plan and --fault-seed are mutually exclusive".into(),
        )),
        (Some(path), None) => {
            let text = std::fs::read_to_string(Path::new(path))
                .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
            Ok(Some(FaultPlan::parse(&text)?))
        }
        (None, Some(_)) => {
            let seed = args.get_parse("fault-seed", 0u64, "integer")?;
            Ok(Some(FaultPlan::seeded(seed, n_models, 4, 3)))
        }
        (None, None) => Ok(None),
    }
}

/// Parse `--ann exact|indexed` plus `--ann-k N` / `--ann-ef N` overrides
/// into an [`AnnConfig`] (defaults: exact mode, the core's tuning).
fn ann_config(args: &ParsedArgs) -> Result<AnnConfig, CliError> {
    let mut config = AnnConfig::default();
    if let Some(mode) = args.get("ann") {
        config.mode = mode
            .parse()
            .map_err(|_| CliError::Usage("--ann must be `exact` or `indexed`".into()))?;
    }
    config.k = args.get_parse("ann-k", config.k, "integer")?;
    config.ef_search = args.get_parse("ann-ef", config.ef_search, "integer")?;
    Ok(config)
}

fn offline_config(args: &ParsedArgs) -> Result<OfflineConfig, CliError> {
    let mut config = OfflineConfig::default();
    config.similarity_top_k = args.get_parse("top-k-sim", config.similarity_top_k, "integer")?;
    if let Some(t) = args.get("threshold") {
        let t: f64 = t
            .parse()
            .map_err(|_| CliError::Usage("--threshold expects a number".into()))?;
        config.cluster = tps_core::pipeline::ClusterMethod::HierarchicalThreshold(t);
    }
    config.parallel = parallel_config(args)?;
    config.ann = ann_config(args)?;
    Ok(config)
}

fn cmd_offline(args: &ParsedArgs) -> Result<String, CliError> {
    args.restrict(&[
        "world",
        "out",
        "top-k-sim",
        "threshold",
        "threads",
        "trace-out",
        "ann",
        "ann-k",
        "ann-ef",
        "stream-batch",
    ])?;
    let world: World = read_json(args.require("world")?)?;
    let out = args.require("out")?;
    let config = offline_config(args)?;
    let stream_batch = match args.get("stream-batch") {
        Some(_) => Some(args.get_parse("stream-batch", 0usize, "integer")?),
        None => None,
    };
    if stream_batch.is_some() && config.ann.mode != AnnMode::Indexed {
        return Err(CliError::Usage(
            "--stream-batch requires --ann indexed (the dense exact build cannot stream)".into(),
        ));
    }
    with_trace(args, |tel| {
        let artifacts = match stream_batch {
            // Streamed: models are simulated and folded in `batch`-sized
            // waves, so million-model worlds never hold all curves (or any
            // O(M²) structure) in memory.
            Some(batch) => world.build_offline_streamed(batch, &config, tel)?,
            None => {
                let (matrix, curves) =
                    world.build_offline_traced(config.parallel.resolve(), tel)?;
                OfflineArtifacts::build_traced(matrix, &curves, &config, tel)?
            }
        };
        write_json(out, &artifacts)?;
        Ok(format!(
            "wrote offline artifacts to {out}: {} x {} performance matrix, {} clusters \
             ({} non-singleton)\n",
            artifacts.matrix.n_models(),
            artifacts.matrix.n_datasets(),
            artifacts.clustering.n_clusters(),
            artifacts.clustering.non_singleton_clusters().len(),
        ))
    })
}

fn cmd_inspect(args: &ParsedArgs) -> Result<String, CliError> {
    args.restrict(&["artifacts"])?;
    let artifacts: OfflineArtifacts = read_json(args.require("artifacts")?)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "performance matrix: {} models x {} benchmark datasets",
        artifacts.matrix.n_models(),
        artifacts.matrix.n_datasets()
    );
    let _ = writeln!(
        out,
        "clusters: {} total, {} non-singleton",
        artifacts.clustering.n_clusters(),
        artifacts.clustering.non_singleton_clusters().len()
    );
    for c in artifacts.clustering.non_singleton_clusters() {
        let members: Vec<&str> = artifacts
            .clustering
            .members(c)
            .iter()
            .map(|&m| artifacts.matrix.model_name(m))
            .collect();
        let _ = writeln!(out, "  [{:2}] {}", members.len(), members.join(", "));
    }
    let mut ranked: Vec<(String, f64)> = artifacts
        .matrix
        .model_ids()
        .map(|m| {
            (
                artifacts.matrix.model_name(m).to_string(),
                artifacts.matrix.avg_accuracy(m),
            )
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let _ = writeln!(out, "top models by average benchmark accuracy:");
    for (name, avg) in ranked.iter().take(5) {
        let _ = writeln!(out, "  {avg:.3}  {name}");
    }
    Ok(out)
}

fn target_index(world: &World, name: &str) -> Result<usize, CliError> {
    world.target_by_name(name).ok_or_else(|| {
        let known: Vec<&str> = world.targets.iter().map(|t| t.name.as_str()).collect();
        CliError::Usage(format!(
            "unknown target `{name}`; this world has: {}",
            known.join(", ")
        ))
    })
}

fn cmd_select(args: &ParsedArgs) -> Result<String, CliError> {
    args.restrict(&[
        "world",
        "artifacts",
        "target",
        "top-k",
        "threshold",
        "stages",
        "threads",
        "trace-out",
        "fault-plan",
        "fault-seed",
        "ann",
        "ann-k",
        "ann-ef",
    ])?;
    let world: World = read_json(args.require("world")?)?;
    let artifacts: OfflineArtifacts = read_json(args.require("artifacts")?)?;
    let target = target_index(&world, args.require("target")?)?;
    let fault_plan = fault_plan_from(args, world.n_models())?;
    let config = PipelineConfig {
        recall: RecallConfig {
            top_k: args.get_parse("top-k", 10usize, "integer")?,
            ..Default::default()
        },
        fine: FineSelectionConfig {
            threshold: args.get_parse("threshold", 0.0f64, "number")?,
            ..Default::default()
        },
        total_stages: args.get_parse("stages", world.stages, "integer")?,
        parallel: parallel_config(args)?,
        ann: ann_config(args)?,
    };
    with_trace(args, |tel| {
        let (oracle, mut trainer) = fault::wrap_pair(
            ZooOracle::new(&world, target)?,
            ZooTrainer::new(&world, target)?.with_telemetry(tel.clone()),
            fault_plan.as_ref(),
        );
        let outcome = two_phase_select_traced(&artifacts, &oracle, &mut trainer, &config, tel)?;

        let mut out = String::new();
        let _ = writeln!(
            out,
            "selected `{}` for target `{}`",
            artifacts.matrix.model_name(outcome.selection.winner),
            world.targets[target].name
        );
        let _ = writeln!(out, "  test accuracy {:.3}", outcome.selection.winner_test);
        let _ = writeln!(out, "  cost          {}", outcome.ledger);
        let _ = writeln!(
            out,
            "  recalled pool {}",
            outcome
                .recall
                .recalled
                .iter()
                .map(|&m| artifacts.matrix.model_name(m))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let c = &outcome.counters;
        let _ = writeln!(
            out,
            "  accounting    {} proxy evals, {} recalled, pools {:?} over {} stages",
            c.proxy_evals, c.recalled, c.pool_per_stage, c.stages
        );
        for cas in &outcome.casualties {
            let _ = writeln!(
                out,
                "  quarantined   {} at {}: {}",
                artifacts.matrix.model_name(cas.model),
                cas.stage,
                cas.cause
            );
        }
        Ok(out)
    })
}

fn cmd_compare(args: &ParsedArgs) -> Result<String, CliError> {
    args.restrict(&[
        "world",
        "artifacts",
        "target",
        "threads",
        "trace-out",
        "fault-plan",
        "fault-seed",
    ])?;
    let world: World = read_json(args.require("world")?)?;
    let artifacts: OfflineArtifacts = read_json(args.require("artifacts")?)?;
    let target = target_index(&world, args.require("target")?)?;
    let fault_plan = fault_plan_from(args, world.n_models())?;
    let parallel = parallel_config(args)?;
    let threads = parallel.resolve();
    let everyone: Vec<ModelId> = artifacts.matrix.model_ids().collect();

    with_trace(args, |tel| {
        // Each selector faces the same fault schedule from a fresh wrapper
        // (attempt counters restart), so the comparison stays apples to
        // apples under injected failures.
        let mut t1 = fault::wrap_trainer(
            ZooTrainer::new(&world, target)?.with_telemetry(tel.clone()),
            fault_plan.as_ref(),
        );
        let bf = brute_force_traced(&mut t1, &everyone, world.stages, threads, tel)?;
        let mut t2 = fault::wrap_trainer(
            ZooTrainer::new(&world, target)?.with_telemetry(tel.clone()),
            fault_plan.as_ref(),
        );
        let sh = successive_halving_traced(&mut t2, &everyone, world.stages, threads, tel)?;
        let (oracle, mut t3) = fault::wrap_pair(
            ZooOracle::new(&world, target)?,
            ZooTrainer::new(&world, target)?.with_telemetry(tel.clone()),
            fault_plan.as_ref(),
        );
        let two_phase = two_phase_select_traced(
            &artifacts,
            &oracle,
            &mut t3,
            &PipelineConfig {
                total_stages: world.stages,
                parallel,
                ..Default::default()
            },
            tel,
        )?;

        let mut out = String::new();
        let _ = writeln!(out, "target `{}`:", world.targets[target].name);
        let mut row = |name: &str, acc: f64, epochs: f64, model: ModelId| {
            let _ = writeln!(
                out,
                "  {name:<18} acc {acc:.3}  {epochs:>7.1} epochs  -> {}",
                artifacts.matrix.model_name(model)
            );
        };
        row("brute force", bf.winner_test, bf.ledger.total(), bf.winner);
        row(
            "successive halving",
            sh.winner_test,
            sh.ledger.total(),
            sh.winner,
        );
        row(
            "two-phase",
            two_phase.selection.winner_test,
            two_phase.ledger.total(),
            two_phase.selection.winner,
        );
        let _ = writeln!(
            out,
            "  two-phase speedup: {:.2}x vs BF, {:.2}x vs SH",
            bf.ledger.total() / two_phase.ledger.total(),
            sh.ledger.total() / two_phase.ledger.total()
        );
        for (who, cs) in [
            ("brute force", &bf.casualties),
            ("successive halving", &sh.casualties),
            ("two-phase", &two_phase.casualties),
        ] {
            for cas in cs.iter() {
                let _ = writeln!(
                    out,
                    "  {who}: quarantined {} at {}: {}",
                    artifacts.matrix.model_name(cas.model),
                    cas.stage,
                    cas.cause
                );
            }
        }
        Ok(out)
    })
}

/// Usage for the `trace` family (also embedded in [`usage`]).
fn trace_usage() -> String {
    "usage: tps trace <summarize|diff|check|export|baseline> ...
  trace summarize FILE [--top N] [--format text|json]
                                      top spans by self-time + counter/histogram tables
  trace diff A B [--tolerance F]      compare deterministic payloads; nonzero exit on drift
  trace check FILE [--budgets FILE]   evaluate cost budgets (default budgets.toml)
  trace export FILE [--out FILE]      render OpenMetrics text exposition
  trace baseline FILE --out FILE      strip to the deterministic payload for committing
"
    .to_string()
}

fn read_trace(path: &str) -> Result<TraceReport, CliError> {
    read_json(path)
}

/// Expect exactly `n` positional arguments after a verb-style subcommand
/// (`trace summarize FILE`, `store diff A B`, …).
fn expect_positionals<'a>(
    rest: &'a [String],
    n: usize,
    what: &str,
    usage: &str,
) -> Result<&'a [String], CliError> {
    if rest.len() == n {
        Ok(rest)
    } else {
        Err(CliError::Usage(format!(
            "{what}: expected {n} positional argument(s), got {}\n{usage}",
            rest.len(),
        )))
    }
}

/// `tps trace …` — offline analysis of `--trace-out` files.
fn cmd_trace(args: &ParsedArgs) -> Result<String, CliError> {
    let pos = args.positionals();
    let Some(sub) = pos.first() else {
        return Err(CliError::Usage(trace_usage()));
    };
    let rest = &pos[1..];
    match sub.as_str() {
        "summarize" => {
            args.restrict_flags(&["top", "format"])?;
            let files = expect_positionals(rest, 1, "trace summarize", &trace_usage())?;
            let report = read_trace(&files[0])?;
            let top = args.get_parse("top", 10usize, "integer")?;
            match args.get("format").unwrap_or("text") {
                "text" => Ok(analysis::summarize(&report, top)),
                "json" => {
                    let summary = analysis::summary(&report, top);
                    let json = serde_json::to_string(&summary)
                        .map_err(|e| CliError::Io(format!("cannot serialize summary: {e}")))?;
                    Ok(format!("{json}\n"))
                }
                other => Err(CliError::Usage(format!(
                    "unknown summarize format `{other}` (expected text or json)"
                ))),
            }
        }
        "diff" => {
            args.restrict_flags(&["tolerance"])?;
            let files = expect_positionals(rest, 2, "trace diff", &trace_usage())?;
            let a = read_trace(&files[0])?;
            let b = read_trace(&files[1])?;
            let tolerance = args.get_parse("tolerance", 0.0f64, "number")?;
            let mut d = analysis::diff(&a, &b, tolerance);
            if a.completed != b.completed {
                d.structure.push(format!(
                    "completedness differs: {} vs {}",
                    a.completed, b.completed
                ));
            }
            let text = analysis::render_diff(&d);
            if d.is_clean() {
                Ok(text)
            } else {
                Err(CliError::Failed(format!(
                    "trace drift between {} and {}:\n{text}",
                    files[0], files[1]
                )))
            }
        }
        "check" => {
            args.restrict_flags(&["budgets"])?;
            let files = expect_positionals(rest, 1, "trace check", &trace_usage())?;
            let report = read_trace(&files[0])?;
            let budgets_path = args.get("budgets").unwrap_or("budgets.toml");
            let text = std::fs::read_to_string(budgets_path)
                .map_err(|e| CliError::Io(format!("cannot read {budgets_path}: {e}")))?;
            let spec = budget::parse_spec(&text)
                .map_err(|e| CliError::Usage(format!("{budgets_path}: {e}")))?;
            if !report.completed {
                return Err(CliError::Failed(format!(
                    "{} is a partial trace (completed = false); budgets only apply to \
                     finished runs",
                    files[0]
                )));
            }
            let outcome = budget::check(&report, &spec);
            if outcome.ok() {
                let mut out = format!(
                    "all {} budget check(s) passed against {}\n",
                    outcome.passed.len(),
                    files[0]
                );
                for p in &outcome.passed {
                    let _ = writeln!(out, "  ok      {p}");
                }
                for s in &outcome.skipped {
                    let _ = writeln!(out, "  skipped {s} (counters absent, rule not required)");
                }
                Ok(out)
            } else {
                let mut out = format!(
                    "{} budget violation(s) in {} (of {} checked):\n",
                    outcome.violations.len(),
                    files[0],
                    outcome.violations.len() + outcome.passed.len()
                );
                for v in &outcome.violations {
                    let _ = writeln!(out, "  FAIL {v}");
                }
                Err(CliError::Failed(out))
            }
        }
        "export" => {
            args.restrict_flags(&["out"])?;
            let files = expect_positionals(rest, 1, "trace export", &trace_usage())?;
            let report = read_trace(&files[0])?;
            let text = openmetrics::render(&report);
            match args.get("out") {
                Some(path) => {
                    std::fs::write(Path::new(path), &text)
                        .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
                    Ok(format!(
                        "wrote OpenMetrics exposition to {path}: {} metric line(s)\n",
                        text.lines().count()
                    ))
                }
                None => Ok(text),
            }
        }
        "baseline" => {
            args.restrict_flags(&["out"])?;
            let files = expect_positionals(rest, 1, "trace baseline", &trace_usage())?;
            let report = read_trace(&files[0])?;
            let out = args.require("out")?;
            let base = analysis::baseline_of(&report);
            write_json(out, &base)?;
            Ok(format!(
                "wrote baseline to {out}: {} counter(s), {} deterministic histogram(s)\n",
                base.counters.len(),
                base.histograms.len()
            ))
        }
        other => Err(CliError::Usage(format!(
            "unknown trace subcommand `{other}`\n{}",
            trace_usage()
        ))),
    }
}

fn open_store(args: &ParsedArgs) -> Result<tps_store::Store, CliError> {
    tps_store::Store::open(args.require("store")?).map_err(|e| CliError::Io(e.to_string()))
}

/// Persist a world + artifacts pair into a durable, checksummed store.
fn cmd_archive(args: &ParsedArgs) -> Result<String, CliError> {
    use tps_store::ArtifactKind;
    args.restrict(&["store", "name", "world", "artifacts", "force"])?;
    let name = args.require("name")?;
    let world: World = read_json(args.require("world")?)?;
    let artifacts: OfflineArtifacts = read_json(args.require("artifacts")?)?;
    let mut store = open_store(args)?;
    let force = args.get("force") == Some("true");
    let (w_name, a_name) = (format!("{name}.world"), format!("{name}.artifacts"));
    let result = if force {
        store
            .put_overwrite(&w_name, ArtifactKind::World, &world)
            .and_then(|_| store.put_overwrite(&a_name, ArtifactKind::OfflineArtifacts, &artifacts))
    } else {
        store
            .put(&w_name, ArtifactKind::World, &world)
            .and_then(|_| store.put(&a_name, ArtifactKind::OfflineArtifacts, &artifacts))
    };
    result.map_err(|e| CliError::Io(e.to_string()))?;
    Ok(format!(
        "archived `{name}` ({} models, {} benchmark datasets) as {w_name} + {a_name}
",
        world.n_models(),
        world.n_benchmarks()
    ))
}

/// List everything in a store.
fn cmd_catalog(args: &ParsedArgs) -> Result<String, CliError> {
    args.restrict(&["store"])?;
    let store = open_store(args)?;
    let entries = store.list();
    if entries.is_empty() {
        return Ok("store is empty
"
        .into());
    }
    let mut out = String::new();
    for (name, entry) in entries {
        let _ = writeln!(
            out,
            "{name:<32} {:>18?} {:>9} bytes  crc {:08x}",
            entry.kind, entry.size, entry.checksum
        );
    }
    Ok(out)
}

/// Verify every record's integrity; `--repair true` quarantines what
/// cannot be salvaged instead of merely reporting it.
fn cmd_fsck(args: &ParsedArgs) -> Result<String, CliError> {
    args.restrict(&["store", "repair"])?;
    let mut store = open_store(args)?;
    let recovered = store.recovery().recovered();
    let mut out = String::new();
    if recovered > 0 {
        let _ = writeln!(
            out,
            "open recovered {} interrupted commit(s) from the journal",
            recovered
        );
    }
    if args.get("repair") == Some("true") {
        let report = store.fsck_repair().map_err(store_err)?;
        if report.is_clean() {
            let _ = writeln!(
                out,
                "{} records verified, nothing to repair",
                store.list().len()
            );
        } else {
            let _ = writeln!(
                out,
                "repaired: {} corrupt record(s) and {} orphan blob(s) quarantined, \
                 {} record(s) reindexed",
                report.quarantined_corrupt.len(),
                report.quarantined_orphans.len(),
                report.reindexed.len(),
            );
            for name in &report.quarantined_corrupt {
                let _ = writeln!(out, "  quarantined corrupt: {name}");
            }
            for name in &report.quarantined_orphans {
                let _ = writeln!(out, "  quarantined orphan:  {name}");
            }
        }
        return Ok(out);
    }
    let bad = store.fsck();
    if bad.is_empty() {
        let _ = writeln!(out, "{} records verified, all healthy", store.list().len());
        Ok(out)
    } else {
        Err(CliError::Usage(format!(
            "corrupt records: {} (rerun with --repair true to quarantine)",
            bad.join(", ")
        )))
    }
}

fn store_usage() -> String {
    "usage: tps store <commit|log|diff|rollback|cat|export|import|gc> --store DIR ...
  store commit --store DIR --world FILE --artifacts FILE [--note TEXT]
  store log --store DIR               parent-linked history from head, newest first
  store diff A B --store DIR          entry-level changes between two generations
  store rollback N --store DIR        move head back to generation N
  store cat N ENTRY --store DIR --out FILE   write an entry's bytes verbatim
  store export N --store DIR --out FILE      bundle generation N into one file
  store import FILE --store DIR              ingest an exported bundle
  store gc --store DIR                drop generations/blobs unreachable from head
"
    .to_string()
}

fn store_err(e: tps_store::StoreError) -> CliError {
    CliError::Io(e.to_string())
}

fn read_bytes(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(Path::new(path)).map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))
}

fn parse_generation_id(s: &str) -> Result<u64, CliError> {
    s.parse()
        .map_err(|_| CliError::Usage(format!("expected a generation id, got `{s}`")))
}

/// `tps store …` — snapshot-versioned generations over the durable store.
/// A generation is an immutable commit of raw artifact files (entries
/// `world` and `artifacts`) addressed by content, so identical payloads
/// share one blob across generations and `cat` replays the exact bytes
/// that were committed — the substrate of the CI generation-parity gate.
fn cmd_store(args: &ParsedArgs) -> Result<String, CliError> {
    let pos = args.positionals();
    let Some(sub) = pos.first() else {
        return Err(CliError::Usage(store_usage()));
    };
    let rest = &pos[1..];
    match sub.as_str() {
        "commit" => {
            args.restrict_flags(&["store", "world", "artifacts", "note"])?;
            expect_positionals(rest, 0, "store commit", &store_usage())?;
            let world = read_bytes(args.require("world")?)?;
            let artifacts = read_bytes(args.require("artifacts")?)?;
            let mut store = open_store(args)?;
            // Test hook for the chaos CI gate: TPS_STORE_CRASH="<site> <index>
            // <kind>" aborts this process at the named commit point, so the
            // recovery path is exercised by a REAL kill, not just in-process
            // error returns.
            if let Ok(plan_text) = std::env::var("TPS_STORE_CRASH") {
                let plan = tps_store::CrashPlan::parse(&plan_text)
                    .map_err(|e| CliError::Usage(format!("bad TPS_STORE_CRASH: {e}")))?;
                store.set_crash_plan(plan.with_abort());
            }
            let rec = store
                .commit_generation(
                    &[("world", &world), ("artifacts", &artifacts)],
                    args.get("note").unwrap_or(""),
                )
                .map_err(store_err)?;
            Ok(format!(
                "committed generation {} (parent {}): {} entries, {} bytes\n",
                rec.id,
                rec.parent
                    .map_or_else(|| "none".to_string(), |p| p.to_string()),
                rec.entries.len(),
                rec.entries.values().map(|b| b.size).sum::<u64>(),
            ))
        }
        "log" => {
            args.restrict_flags(&["store"])?;
            expect_positionals(rest, 0, "store log", &store_usage())?;
            let store = open_store(args)?;
            let log = store.generation_log(None).map_err(store_err)?;
            if log.is_empty() {
                return Ok("no generations committed\n".into());
            }
            let head = log[0].id;
            let mut out = String::new();
            for rec in &log {
                let _ = writeln!(
                    out,
                    "generation {}{}  parent {}{}",
                    rec.id,
                    if rec.id == head { " (head)" } else { "" },
                    rec.parent
                        .map_or_else(|| "none".to_string(), |p| p.to_string()),
                    if rec.note.is_empty() {
                        String::new()
                    } else {
                        format!("  — {}", rec.note)
                    },
                );
                for (name, blob) in &rec.entries {
                    let _ = writeln!(
                        out,
                        "    {name:<12} {:>9} bytes  crc {:08x}",
                        blob.size, blob.checksum
                    );
                }
            }
            Ok(out)
        }
        "diff" => {
            args.restrict_flags(&["store"])?;
            let ids = expect_positionals(rest, 2, "store diff", &store_usage())?;
            let (a, b) = (parse_generation_id(&ids[0])?, parse_generation_id(&ids[1])?);
            let store = open_store(args)?;
            let diffs = store.diff_generations(a, b).map_err(store_err)?;
            if diffs.is_empty() {
                return Ok(format!("generations {a} and {b} are identical\n"));
            }
            let mut out = String::new();
            for d in &diffs {
                use tps_store::EntryChange;
                let _ = match &d.change {
                    EntryChange::Added(blob) => {
                        writeln!(out, "  added   {:<12} ({} bytes)", d.entry, blob.size)
                    }
                    EntryChange::Removed(blob) => {
                        writeln!(out, "  removed {:<12} ({} bytes)", d.entry, blob.size)
                    }
                    EntryChange::Changed { from, to } => writeln!(
                        out,
                        "  changed {:<12} crc {:08x} -> {:08x} ({} -> {} bytes)",
                        d.entry, from.checksum, to.checksum, from.size, to.size
                    ),
                };
            }
            let _ = writeln!(
                out,
                "{} entr(ies) differ between generations {a} and {b}",
                diffs.len()
            );
            Ok(out)
        }
        "rollback" => {
            args.restrict_flags(&["store"])?;
            let ids = expect_positionals(rest, 1, "store rollback", &store_usage())?;
            let id = parse_generation_id(&ids[0])?;
            let mut store = open_store(args)?;
            let rec = store.rollback_generation(id).map_err(store_err)?;
            Ok(format!(
                "head is now generation {} ({} entries); run `tps store gc` to drop \
                 unreachable generations\n",
                rec.id,
                rec.entries.len()
            ))
        }
        "cat" => {
            args.restrict_flags(&["store", "out"])?;
            let p = expect_positionals(rest, 2, "store cat", &store_usage())?;
            let id = parse_generation_id(&p[0])?;
            let out_path = args.require("out")?;
            let store = open_store(args)?;
            let bytes = store.generation_entry(id, &p[1]).map_err(store_err)?;
            std::fs::write(Path::new(out_path), &bytes)
                .map_err(|e| CliError::Io(format!("cannot write {out_path}: {e}")))?;
            Ok(format!(
                "wrote generation {id} entry `{}` to {out_path}: {} bytes\n",
                p[1],
                bytes.len()
            ))
        }
        "export" => {
            args.restrict_flags(&["store", "out"])?;
            let ids = expect_positionals(rest, 1, "store export", &store_usage())?;
            let id = parse_generation_id(&ids[0])?;
            let out_path = args.require("out")?;
            let store = open_store(args)?;
            store
                .export_generation(id, Path::new(out_path))
                .map_err(store_err)?;
            Ok(format!("exported generation {id} to {out_path}\n"))
        }
        "import" => {
            args.restrict_flags(&["store"])?;
            let files = expect_positionals(rest, 1, "store import", &store_usage())?;
            let mut store = open_store(args)?;
            let rec = store
                .import_generation(Path::new(files[0].as_str()))
                .map_err(store_err)?;
            Ok(format!(
                "imported generation {} ({} entries)\n",
                rec.id,
                rec.entries.len()
            ))
        }
        "gc" => {
            args.restrict_flags(&["store"])?;
            expect_positionals(rest, 0, "store gc", &store_usage())?;
            let mut store = open_store(args)?;
            let report = store.gc_generations().map_err(store_err)?;
            Ok(format!(
                "gc removed {} generation record(s) and {} blob(s)\n",
                report.removed_generations, report.removed_blobs
            ))
        }
        other => Err(CliError::Usage(format!(
            "unknown store subcommand `{other}`\n{}",
            store_usage()
        ))),
    }
}

/// Incrementally grow the repository: synthesize a new model (optionally
/// near an existing one), simulate its benchmark fine-tuning runs, and
/// update both the world file and the offline artifacts in place — no
/// global rebuild.
fn cmd_grow(args: &ParsedArgs) -> Result<String, CliError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tps_core::incremental::{ModelAddition, Placement};
    use tps_zoo::ModelSpec;

    args.restrict(&["world", "artifacts", "name", "like", "capability", "seed"])?;
    let world_path = args.require("world")?;
    let arts_path = args.require("artifacts")?;
    let name = args.require("name")?;
    let mut world: World = read_json(world_path)?;
    let mut artifacts: OfflineArtifacts = read_json(arts_path)?;
    if artifacts.matrix.n_models() != world.n_models() {
        return Err(CliError::Usage(
            "world and artifacts disagree on the model count; rebuild offline artifacts".into(),
        ));
    }
    if world.models.iter().any(|m| m.name == name) {
        return Err(CliError::Usage(format!("model `{name}` already exists")));
    }

    let mut rng = StdRng::seed_from_u64(args.get_parse("seed", 1u64, "integer")?);
    let spec = match args.get("like") {
        Some(like) => {
            let base = world
                .models
                .iter()
                .find(|m| m.name == like)
                .ok_or_else(|| CliError::Usage(format!("no model named `{like}`")))?;
            let capability = args.get_parse("capability", base.capability, "number")?;
            ModelSpec::new(
                name,
                base.family,
                base.domain.jitter(0.05, &mut rng),
                capability,
                base.upstream.clone(),
                base.n_source_labels,
            )
            .with_speed(rng.gen_range(0.7..=1.3))
        }
        None => {
            let capability = args.get_parse("capability", 0.6f64, "number")?;
            ModelSpec::new(
                name,
                tps_zoo::Family::TextEncoder,
                tps_zoo::DomainVec::sample(&mut rng),
                capability,
                "custom",
                2,
            )
            .with_speed(rng.gen_range(0.7..=1.3))
        }
    };

    // Simulate the new model's offline fine-tuning on every benchmark.
    let curves: Vec<tps_core::curve::LearningCurve> = world
        .benchmarks
        .iter()
        .map(|bench| {
            world
                .law
                .run(&spec, bench, world.stages, world.hyper, world.seed)
                .to_curve()
        })
        .collect();
    let report = artifacts.add_model(
        &ModelAddition {
            name: name.to_string(),
            benchmark_curves: curves,
        },
        &OfflineConfig::default(),
    )?;
    world.models.push(spec);
    write_json(world_path, &world)?;
    write_json(arts_path, &artifacts)?;

    let placement = match report.placement {
        Placement::Joined {
            cluster,
            similarity,
        } => {
            let members: Vec<&str> = artifacts
                .clustering
                .members(cluster)
                .iter()
                .filter(|&&m| m != report.model)
                .map(|&m| artifacts.matrix.model_name(m))
                .collect();
            format!(
                "joined cluster {cluster} (similarity {similarity:.3}) with {}",
                members.join(", ")
            )
        }
        Placement::NewSingleton { cluster } => format!("new singleton cluster {cluster}"),
    };
    Ok(format!(
        "added `{name}` as model {} ({} benchmark runs simulated): {placement}
",
        report.model,
        artifacts.matrix.n_datasets(),
    ))
}

/// `tps update` — run a deterministic live-zoo churn stream (publish /
/// retire / refresh models, add / drop benchmarks) through the
/// incremental delta engine. Each event is folded into the offline
/// artifacts with localized work — no global rebuild — yet the rewritten
/// world + artifacts files are byte-identical to what a from-scratch
/// `tps offline` on the mutated world would produce, provided the build
/// flags (`--top-k-sim`, `--threshold`, `--ann*`) match the original
/// build. CI's `store-smoke` job enforces exactly that with `cmp`.
fn cmd_update(args: &ParsedArgs) -> Result<String, CliError> {
    use tps_core::incremental::DeltaEngine;
    use tps_zoo::Churn;

    args.restrict(&[
        "world",
        "artifacts",
        "ops",
        "seed",
        "top-k-sim",
        "threshold",
        "threads",
        "trace-out",
        "ann",
        "ann-k",
        "ann-ef",
    ])?;
    let world_path = args.require("world")?;
    let arts_path = args.require("artifacts")?;
    let mut world: World = read_json(world_path)?;
    let artifacts: OfflineArtifacts = read_json(arts_path)?;
    if artifacts.matrix.n_models() != world.n_models() {
        return Err(CliError::Usage(
            "world and artifacts disagree on the model count; rebuild offline artifacts".into(),
        ));
    }
    let n_ops = args.get_parse("ops", 1usize, "integer")?;
    let seed = args.get_parse("seed", 1u64, "integer")?;
    let config = offline_config(args)?;
    with_trace(args, |tel| {
        // The engine needs the curve table the artifacts were built from;
        // regenerate it through the transfer law (pure in (model, dataset))
        // — the constructor cross-checks every curve against the matrix,
        // so a world/artifacts mismatch fails loudly here.
        let (_, curves) = world.build_offline_par(config.parallel.resolve())?;
        let mut engine = DeltaEngine::from_curve_set(artifacts, &curves, config)?;
        let mut churn = Churn::new(seed);
        let mut out = String::new();
        for _ in 0..n_ops {
            let event = churn.next_update(&world);
            let update = world.apply_churn(&event).map_err(CliError::Usage)?;
            let report = engine.apply_update_traced(&update, tel)?;
            let _ = writeln!(
                out,
                "applied {} `{}`: {} models x {} datasets, {} clusters \
                 ({} row(s) re-mined, {} kNN list(s) touched)",
                report.op,
                report.target,
                report.models,
                report.datasets,
                report.clusters,
                report.remined_rows,
                report.touched_lists,
            );
        }
        write_json(world_path, &world)?;
        write_json(arts_path, engine.artifacts())?;
        let _ = writeln!(
            out,
            "rewrote {world_path} + {arts_path} after {n_ops} event(s)"
        );
        Ok(out)
    })
}

/// Where `serve` loads its world + artifacts pair from: the artifact
/// store (`--store DIR --name TAG`, as written by `tps archive`) or plain
/// JSON files (`--world FILE --artifacts FILE`). Owned, so the server's
/// reload source can re-read the same inputs on a hot-swap long after the
/// parsed arguments are gone.
#[derive(Clone)]
enum ServeSource {
    Store { dir: String, name: String },
    Files { world: String, artifacts: String },
}

fn serve_source(args: &ParsedArgs) -> Result<ServeSource, CliError> {
    match (args.get("store"), args.get("world")) {
        (Some(dir), None) => Ok(ServeSource::Store {
            dir: dir.to_string(),
            name: args.require("name")?.to_string(),
        }),
        (None, Some(world)) => Ok(ServeSource::Files {
            world: world.to_string(),
            artifacts: args.require("artifacts")?.to_string(),
        }),
        _ => Err(CliError::Usage(
            "serve needs either --store DIR --name TAG or --world FILE --artifacts FILE".into(),
        )),
    }
}

fn load_serve_source(source: &ServeSource) -> Result<(World, OfflineArtifacts), String> {
    use tps_store::ArtifactKind;
    match source {
        ServeSource::Store { dir, name } => {
            let store = tps_store::Store::open(dir).map_err(|e| e.to_string())?;
            let world = store
                .get(&format!("{name}.world"), ArtifactKind::World)
                .map_err(|e| e.to_string())?;
            let artifacts = store
                .get(&format!("{name}.artifacts"), ArtifactKind::OfflineArtifacts)
                .map_err(|e| e.to_string())?;
            Ok((world, artifacts))
        }
        ServeSource::Files { world, artifacts } => Ok((
            read_json(world).map_err(|e| e.to_string())?,
            read_json(artifacts).map_err(|e| e.to_string())?,
        )),
    }
}

/// Run the resident selection service until a `shutdown` request or
/// SIGTERM drains it, then report final stats (and the aggregate trace,
/// when `--trace-out` is given).
fn cmd_serve(args: &ParsedArgs) -> Result<String, CliError> {
    args.restrict(&[
        "store",
        "name",
        "world",
        "artifacts",
        "addr",
        "max-inflight",
        "queue-depth",
        "cache",
        "threads",
        "top-k",
        "threshold",
        "stages",
        "ready-file",
        "trace-out",
        "ann",
        "ann-k",
        "ann-ef",
        "access-log",
        "slo-ms",
        "max-line-bytes",
        "stall-timeout-ms",
        "net-fault-plan",
    ])?;
    let source = serve_source(args)?;
    let (world, artifacts) = load_serve_source(&source).map_err(CliError::Io)?;
    let net_faults = match args.get("net-fault-plan") {
        None => tps_serve::NetFaultPlan::empty(),
        Some(path) => {
            let text = std::fs::read_to_string(Path::new(path))
                .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
            tps_serve::NetFaultPlan::parse(&text)
                .map_err(|e| CliError::Usage(format!("bad net-fault plan {path}: {e}")))?
        }
    };
    let config = tps_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        max_inflight: args.get_parse("max-inflight", 2usize, "integer")?,
        queue_depth: args.get_parse("queue-depth", 16usize, "integer")?,
        cache_capacity: args.get_parse("cache", 64usize, "integer")?,
        threads: parallel_config(args)?.resolve(),
        top_k: args.get_parse("top-k", 10usize, "integer")?,
        threshold: args.get_parse("threshold", 0.0f64, "number")?,
        stages: match args.get("stages") {
            Some(_) => Some(args.get_parse("stages", world.stages, "integer")?),
            None => None,
        },
        ann: ann_config(args)?,
        access_log: args.get("access-log").map(str::to_string),
        slo_ms: match args.get("slo-ms") {
            Some(_) => Some(args.get_parse("slo-ms", 0u64, "integer")?),
            None => None,
        },
        max_line_bytes: args.get_parse("max-line-bytes", 1usize << 20, "integer")?,
        stall_timeout_ms: match args.get_parse("stall-timeout-ms", 30_000u64, "integer")? {
            0 => None, // 0 disables the slow-loris timeout
            ms => Some(ms),
        },
        net_faults: std::sync::Arc::new(net_faults),
    };
    tps_serve::install_signal_drain();
    let server = tps_serve::Server::bind(&world, &artifacts, config)
        .map_err(|e| CliError::Io(format!("bind: {e}")))?
        // `{"op":"reload"}` / SIGHUP re-reads the same inputs and
        // hot-swaps to them without dropping in-flight requests.
        .with_reload_source(Box::new(move || load_serve_source(&source)));
    let addr = server.addr();
    // `run` blocks until drain, so the listening line goes straight to
    // stdout now instead of into the returned report.
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        let _ = writeln!(
            stdout,
            "serving {} models / {} targets on {addr} — drain with {{\"op\":\"shutdown\"}} or \
             SIGTERM, hot-swap with {{\"op\":\"reload\"}} or SIGHUP",
            world.n_models(),
            world.n_targets()
        );
        let _ = stdout.flush();
    }
    if let Some(path) = args.get("ready-file") {
        std::fs::write(Path::new(path), format!("{addr}\n"))
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    }
    let summary = server
        .run()
        .map_err(|e| CliError::Io(format!("serve: {e}")))?;
    let s = &summary.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "drained after {} request(s): {} executed, {} cache hit(s), {} overloaded, \
         {} drain-rejected, {} deadline-rejected, {} error(s)",
        s.requests,
        s.executed,
        s.cache_hits,
        s.rejected,
        s.drain_rejected,
        s.deadline_rejected,
        s.errors
    );
    let _ = writeln!(
        out,
        "  queue peak {}/{} capacity; {:.1} epoch-equivalents spent",
        s.queue_peak, s.queue_capacity, s.total_epochs
    );
    let w = &summary.window;
    let _ = writeln!(
        out,
        "  window: {} request(s), p50 {}µs p95 {}µs p99 {}µs; {} SLO violation(s)",
        w.count, w.p50_us, w.p95_us, w.p99_us, s.slo_violations
    );
    if args.get("access-log").is_some() {
        let _ = writeln!(
            out,
            "  access log: {} record(s), {} written, {} dropped",
            s.access_log_records, s.access_log_written, s.access_log_dropped
        );
    }
    if let Some(path) = args.get("trace-out") {
        write_json(path, &summary.trace)?;
        let _ = writeln!(
            out,
            "wrote aggregate trace to {path}: {} request span(s), {} counter(s)",
            summary.trace.spans.len(),
            summary.trace.counters.len()
        );
    }
    Ok(out)
}

/// Send requests to a running server and print the response lines.
fn cmd_client(args: &ParsedArgs) -> Result<String, CliError> {
    args.restrict(&[
        "addr",
        "request",
        "file",
        "shutdown",
        "metrics",
        "retries",
        "retry-backoff-ms",
        "timeout-ms",
    ])?;
    let addr = args.require("addr")?;
    let policy = tps_serve::RetryPolicy {
        retries: args.get_parse("retries", 0u32, "integer")?,
        backoff_ms: args.get_parse("retry-backoff-ms", 50u64, "integer")?,
        timeout_ms: match args.get("timeout-ms") {
            Some(_) => Some(args.get_parse("timeout-ms", 0u64, "integer")?),
            None => None,
        },
    };
    if args.get("metrics") == Some("true") {
        // A scrape prints the decoded OpenMetrics text, not the JSON
        // envelope, so the output pipes straight into Prometheus tooling.
        let mut client = tps_serve::Client::connect(addr)
            .map_err(|e| CliError::Io(format!("connect {addr}: {e}")))?;
        return client
            .scrape(0)
            .map_err(|e| CliError::Io(format!("metrics scrape failed: {e}")));
    }
    let mut lines: Vec<String> = Vec::new();
    if let Some(req) = args.get("request") {
        lines.push(req.to_string());
    }
    if let Some(path) = args.get("file") {
        let text = std::fs::read_to_string(Path::new(path))
            .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
        lines.extend(
            text.lines()
                .filter(|l| !l.trim().is_empty())
                .map(str::to_string),
        );
    }
    if args.get("shutdown") == Some("true") {
        lines.push("{\"op\":\"shutdown\"}".to_string());
    }
    if lines.is_empty() {
        use std::io::BufRead as _;
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| CliError::Io(format!("stdin: {e}")))?;
            if !line.trim().is_empty() {
                lines.push(line);
            }
        }
    }
    // Retries resend through a fresh connection; the server's fingerprint
    // cache makes the retried response byte-identical, so a flaky network
    // changes latency but never output.
    let mut client = tps_serve::RetryClient::new(addr, policy);
    let mut out = String::new();
    for line in &lines {
        let response = client
            .roundtrip(line)
            .map_err(|e| CliError::Io(format!("request failed: {e}")))?;
        let _ = writeln!(out, "{response}");
    }
    Ok(out)
}

/// One polled sample of a live server: the stats snapshot plus every
/// sample line parsed out of the metrics exposition (gauges and
/// counters alike, keyed by exposition metric name).
struct TopSample {
    stats: serde_json::Value,
    metrics: std::collections::BTreeMap<String, f64>,
}

impl TopSample {
    fn stat(&self, key: &str) -> u64 {
        self.stats.get(key).and_then(|v| v.as_u64()).unwrap_or(0)
    }

    fn metric(&self, name: &str) -> u64 {
        self.metrics.get(name).copied().unwrap_or(0.0) as u64
    }
}

fn top_sample(client: &mut tps_serve::Client, id: u64) -> Result<TopSample, CliError> {
    let line = client
        .request(&tps_serve::Request::control(id, "stats"))
        .map_err(|e| CliError::Io(format!("stats poll failed: {e}")))?;
    let result = tps_serve::protocol::extract_result(&line)
        .ok_or_else(|| CliError::Io(format!("stats poll returned no result: {line}")))?;
    let stats: serde_json::Value = serde_json::from_str(result)
        .map_err(|e| CliError::Io(format!("cannot parse stats: {e}")))?;
    let exposition = client
        .scrape(id + 1)
        .map_err(|e| CliError::Io(format!("metrics scrape failed: {e}")))?;
    let mut metrics = std::collections::BTreeMap::new();
    for sample in exposition.lines() {
        if sample.starts_with('#') || sample.contains('{') {
            continue; // comments and labelled bucket series
        }
        let mut parts = sample.split_whitespace();
        if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
            if let Ok(v) = value.parse::<f64>() {
                metrics.insert(name.to_string(), v);
            }
        }
    }
    Ok(TopSample { stats, metrics })
}

/// The `--once` machine-readable line: one JSON object combining the
/// stats counters with the window gauges, for CI consumption.
fn top_once_line(s: &TopSample) -> String {
    format!(
        "{{\"generation\":{},\"requests\":{},\"executed\":{},\"cache_hits\":{},\
         \"rejected\":{},\"errors\":{},\"queue_waiting\":{},\"queue_inflight\":{},\
         \"queue_peak\":{},\"cache_entries\":{},\"slo_violations\":{},\
         \"access_log_records\":{},\"access_log_dropped\":{},\"window_count\":{},\
         \"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
        s.stat("generation"),
        s.stat("requests"),
        s.stat("executed"),
        s.stat("cache_hits"),
        s.stat("rejected"),
        s.stat("errors"),
        s.stat("queue_waiting"),
        s.stat("queue_inflight"),
        s.stat("queue_peak"),
        s.stat("cache_entries"),
        s.stat("slo_violations"),
        s.stat("access_log_records"),
        s.stat("access_log_dropped"),
        s.metric("tps_serve_window_count"),
        s.metric("tps_serve_window_p50_us"),
        s.metric("tps_serve_window_p95_us"),
        s.metric("tps_serve_window_p99_us"),
    )
}

/// Render one dashboard frame. `prev` is the previous sample's request
/// count and age, for the requests/s rate.
fn render_top(addr: &str, s: &TopSample, prev: Option<(u64, std::time::Duration)>) -> String {
    let rate = match prev {
        Some((prev_requests, age)) if age.as_secs_f64() > 0.0 => {
            (s.stat("requests").saturating_sub(prev_requests)) as f64 / age.as_secs_f64()
        }
        _ => 0.0,
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tps top — {addr} · generation {} · {} worker(s)",
        s.stat("generation"),
        s.metric("tps_serve_workers"),
    );
    let _ = writeln!(
        out,
        "  requests {} ({rate:.1}/s) · executed {} · cache hits {} · rejected {} · errors {}",
        s.stat("requests"),
        s.stat("executed"),
        s.stat("cache_hits"),
        s.stat("rejected"),
        s.stat("errors"),
    );
    let _ = writeln!(
        out,
        "  queue {}/{} (waiting {}, inflight {}, peak {}) · cache {} entries",
        s.stat("queue_waiting") + s.stat("queue_inflight"),
        s.stat("queue_capacity"),
        s.stat("queue_waiting"),
        s.stat("queue_inflight"),
        s.stat("queue_peak"),
        s.stat("cache_entries"),
    );
    let _ = writeln!(
        out,
        "  window[{}]: p50 {}µs · p95 {}µs · p99 {}µs · SLO violations {}",
        s.metric("tps_serve_window_count"),
        s.metric("tps_serve_window_p50_us"),
        s.metric("tps_serve_window_p95_us"),
        s.metric("tps_serve_window_p99_us"),
        s.stat("slo_violations"),
    );
    if s.stat("access_log_records") > 0 || s.stat("access_log_dropped") > 0 {
        let _ = writeln!(
            out,
            "  access log: {} record(s), {} dropped",
            s.stat("access_log_records"),
            s.stat("access_log_dropped"),
        );
    }
    out
}

/// `tps top` — poll a live server's metrics/stats ops and render a
/// one-screen dashboard, or one machine-readable JSON line with
/// `--once true`.
fn cmd_top(args: &ParsedArgs) -> Result<String, CliError> {
    args.restrict(&["addr", "interval-ms", "samples", "once"])?;
    let addr = args.require("addr")?;
    let interval_ms = args.get_parse("interval-ms", 1_000u64, "integer")?;
    let samples = args.get_parse("samples", 0usize, "integer")?;
    let mut client = tps_serve::Client::connect(addr)
        .map_err(|e| CliError::Io(format!("connect {addr}: {e}")))?;
    if args.get("once") == Some("true") {
        let sample = top_sample(&mut client, 0)?;
        return Ok(format!("{}\n", top_once_line(&sample)));
    }
    let mut prev: Option<(u64, std::time::Instant)> = None;
    let mut taken = 0usize;
    loop {
        let sample = match top_sample(&mut client, (taken as u64) * 2) {
            Ok(sample) => sample,
            // A server draining away mid-watch ends the dashboard; it is
            // only an error if we never got a single frame.
            Err(_) if taken > 0 => return Ok("top: server went away\n".to_string()),
            Err(e) => return Err(e),
        };
        let now = std::time::Instant::now();
        let frame = render_top(
            addr,
            &sample,
            prev.map(|(requests, at)| (requests, now.duration_since(at))),
        );
        {
            use std::io::Write as _;
            let mut stdout = std::io::stdout();
            let _ = write!(stdout, "{frame}");
            let _ = stdout.flush();
        }
        prev = Some((sample.stat("requests"), now));
        taken += 1;
        if samples > 0 && taken >= samples {
            return Ok(String::new());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tps-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_line(line: &[&str]) -> Result<String, CliError> {
        run(&ParsedArgs::parse(line.iter().copied()).unwrap())
    }

    #[test]
    fn full_cli_workflow() {
        let dir = tmpdir();
        let world = dir.join("w.json");
        let arts = dir.join("a.json");
        let world_s = world.to_str().unwrap();
        let arts_s = arts.to_str().unwrap();

        let out = run_line(&["world", "--domain", "cv", "--seed", "7", "--out", world_s]).unwrap();
        assert!(out.contains("30 models"));

        let out = run_line(&["offline", "--world", world_s, "--out", arts_s]).unwrap();
        assert!(out.contains("30 x 10"));

        let out = run_line(&["inspect", "--artifacts", arts_s]).unwrap();
        assert!(out.contains("non-singleton"));
        assert!(out.contains("top models"));

        let out = run_line(&[
            "select",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--target",
            "beans",
        ])
        .unwrap();
        assert!(out.contains("selected `"));
        assert!(out.contains("test accuracy"));

        let out = run_line(&[
            "compare",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--target",
            "beans",
        ])
        .unwrap();
        assert!(out.contains("two-phase speedup"));
    }

    #[test]
    fn trace_out_writes_a_consistent_trace() {
        use tps_core::telemetry::TraceReport;
        let dir = tmpdir();
        let world = dir.join("tw.json");
        let arts = dir.join("ta.json");
        let trace = dir.join("trace.json");
        let offline_trace = dir.join("offline-trace.json");
        let world_s = world.to_str().unwrap();
        let arts_s = arts.to_str().unwrap();
        let trace_s = trace.to_str().unwrap();

        run_line(&["world", "--domain", "cv", "--seed", "7", "--out", world_s]).unwrap();
        let out = run_line(&[
            "offline",
            "--world",
            world_s,
            "--out",
            arts_s,
            "--trace-out",
            offline_trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote trace to"), "{out}");
        let offline_report: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&offline_trace).unwrap()).unwrap();
        assert!(offline_report.find_span("zoo.offline.build").is_some());
        assert!(offline_report.find_span("offline.build").is_some());
        // 30 models x 10 benchmarks simulated.
        assert_eq!(offline_report.counter("zoo.offline.runs"), Some(300.0));
        assert_eq!(offline_report.counter("offline.models"), Some(30.0));

        let out = run_line(&[
            "select",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--target",
            "beans",
            "--trace-out",
            trace_s,
        ])
        .unwrap();
        assert!(out.contains("wrote trace to"), "{out}");
        let report: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        // Counters are self-consistent with the printed accounting and each
        // other: epochs the selectors charged equal epochs the trainer ran.
        assert_eq!(
            report.counter("select.train_epochs"),
            report.counter("zoo.train.stages"),
        );
        assert_eq!(report.counter("recall.recalled"), Some(10.0));
        let pipeline = report.find_span("pipeline.two_phase_select").unwrap();
        assert!(pipeline.find("recall.coarse").is_some());
        assert!(pipeline.find("select.fine").is_some());

        // compare traces all three selectors.
        let cmp_trace = dir.join("cmp-trace.json");
        run_line(&[
            "compare",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--target",
            "beans",
            "--trace-out",
            cmp_trace.to_str().unwrap(),
        ])
        .unwrap();
        let cmp: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&cmp_trace).unwrap()).unwrap();
        for span in [
            "select.brute",
            "select.halving",
            "pipeline.two_phase_select",
        ] {
            assert!(cmp.find_span(span).is_some(), "missing {span}");
        }
        // BF trains everyone for every stage: 30 models x stages epochs of
        // the total; SH and 2PH add theirs on top.
        assert!(cmp.counter("select.train_epochs").unwrap() > 30.0 * 4.0);
    }

    #[test]
    fn fault_plan_quarantines_and_still_selects() {
        use tps_core::telemetry::TraceReport;
        let dir = tmpdir();
        let world = dir.join("fw.json");
        let arts = dir.join("fa.json");
        let trace = dir.join("ftrace.json");
        let (world_s, arts_s, trace_s) = (
            world.to_str().unwrap(),
            arts.to_str().unwrap(),
            trace.to_str().unwrap(),
        );
        run_line(&["world", "--domain", "cv", "--seed", "7", "--out", world_s]).unwrap();
        run_line(&["offline", "--world", world_s, "--out", arts_s]).unwrap();

        let select = |extra: &[&str]| {
            let mut line = vec![
                "select",
                "--world",
                world_s,
                "--artifacts",
                arts_s,
                "--target",
                "beans",
            ];
            line.extend_from_slice(extra);
            run_line(&line)
        };
        let baseline = select(&[]).unwrap();
        let winner = baseline.split('`').nth(1).unwrap().to_string();
        let artifacts: OfflineArtifacts = read_json(arts_s).unwrap();
        let idx = artifacts
            .matrix
            .model_ids()
            .find(|&m| artifacts.matrix.model_name(m) == winner)
            .unwrap()
            .index();

        // Permanently kill the fault-free winner's first training stage:
        // the run must quarantine it, pick someone else, and say so.
        let plan = dir.join("faults.txt");
        let plan_s = plan.to_str().unwrap();
        std::fs::write(&plan, format!("advance m{idx} 0 permanent\n")).unwrap();
        let out = select(&["--fault-plan", plan_s, "--trace-out", trace_s]).unwrap();
        assert!(out.contains("selected `"), "{out}");
        assert!(out.contains("quarantined"), "{out}");
        assert!(out.contains("injected permanent fault"), "{out}");
        assert_ne!(out.split('`').nth(1).unwrap(), winner);

        let report: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(report.completed);
        assert_eq!(report.casualties.len(), 1);
        assert_eq!(report.casualties[0].model.index(), idx);
        assert_eq!(report.counter("fault.permanent"), Some(1.0));

        // The two fault flags are mutually exclusive.
        assert!(matches!(
            select(&["--fault-plan", plan_s, "--fault-seed", "3"]),
            Err(CliError::Usage(_))
        ));
        // A garbage plan file is rejected with a line-numbered error.
        std::fs::write(&plan, "advance m0 zero permanent\n").unwrap();
        let err = select(&["--fault-plan", plan_s]).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn indexed_offline_and_select_workflow() {
        let dir = tmpdir();
        let world = dir.join("iw.json");
        let arts_exact = dir.join("ia-exact.json");
        let arts_indexed = dir.join("ia-indexed.json");
        let arts_streamed = dir.join("ia-streamed.json");
        let world_s = world.to_str().unwrap();

        run_line(&["world", "--domain", "cv", "--seed", "7", "--out", world_s]).unwrap();

        // Exact artifacts with an explicit `--ann exact` are byte-identical
        // to the flagless build (the legacy path).
        run_line(&[
            "offline",
            "--world",
            world_s,
            "--out",
            arts_exact.to_str().unwrap(),
            "--ann",
            "exact",
        ])
        .unwrap();
        let flagless = dir.join("ia-flagless.json");
        run_line(&[
            "offline",
            "--world",
            world_s,
            "--out",
            flagless.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&arts_exact).unwrap(),
            std::fs::read_to_string(&flagless).unwrap()
        );

        // Indexed batch and streamed builds agree byte-for-byte.
        run_line(&[
            "offline",
            "--world",
            world_s,
            "--out",
            arts_indexed.to_str().unwrap(),
            "--ann",
            "indexed",
        ])
        .unwrap();
        run_line(&[
            "offline",
            "--world",
            world_s,
            "--out",
            arts_streamed.to_str().unwrap(),
            "--ann",
            "indexed",
            "--stream-batch",
            "7",
        ])
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&arts_indexed).unwrap(),
            std::fs::read_to_string(&arts_streamed).unwrap()
        );

        // Indexed select works end-to-end and emits the ann.* counters.
        let trace = dir.join("itrace.json");
        let out = run_line(&[
            "select",
            "--world",
            world_s,
            "--artifacts",
            arts_indexed.to_str().unwrap(),
            "--target",
            "beans",
            "--ann",
            "indexed",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("selected `"), "{out}");
        let report: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(report.counter("ann.k").is_some());
        assert!(report.counter("ann.candidates").is_some());

        // Streaming without indexed mode is refused up front.
        assert!(matches!(
            run_line(&[
                "offline",
                "--world",
                world_s,
                "--out",
                flagless.to_str().unwrap(),
                "--stream-batch",
                "8",
            ]),
            Err(CliError::Usage(_))
        ));
        // Bad mode string.
        assert!(matches!(
            run_line(&[
                "offline",
                "--world",
                world_s,
                "--out",
                flagless.to_str().unwrap(),
                "--ann",
                "fuzzy",
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn synthetic_world_generation() {
        let dir = tmpdir();
        let world = dir.join("syn.json");
        let out = run_line(&[
            "world",
            "--domain",
            "synthetic",
            "--models",
            "30",
            "--benchmarks",
            "12",
            "--out",
            world.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("12 benchmark datasets"));
    }

    /// The CI generation-parity gate in unit form: churn applied through
    /// the incremental engine must leave files byte-identical to a
    /// from-scratch rebuild, and a store rollback must restore the
    /// pre-churn bytes exactly.
    #[test]
    fn update_store_generation_workflow() {
        let dir = tmpdir();
        let world = dir.join("live-w.json");
        let arts = dir.join("live-a.json");
        let scratch = dir.join("live-scratch.json");
        let store = dir.join("live-store");
        let (world_s, arts_s, store_s) = (
            world.to_str().unwrap(),
            arts.to_str().unwrap(),
            store.to_str().unwrap(),
        );
        let build = |out| {
            vec![
                "offline",
                "--world",
                world_s,
                "--out",
                out,
                "--ann",
                "indexed",
                "--threshold",
                "0.05",
            ]
        };

        run_line(&[
            "world",
            "--domain",
            "synthetic",
            "--models",
            "12",
            "--benchmarks",
            "6",
            "--targets",
            "2",
            "--stages",
            "4",
            "--seed",
            "5",
            "--out",
            world_s,
        ])
        .unwrap();
        run_line(&build(arts_s)).unwrap();
        let (world_v1, arts_v1) = (
            std::fs::read(&world).unwrap(),
            std::fs::read(&arts).unwrap(),
        );

        let out = run_line(&[
            "store",
            "commit",
            "--store",
            store_s,
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--note",
            "base",
        ])
        .unwrap();
        assert!(
            out.contains("committed generation 1 (parent none)"),
            "{out}"
        );

        let out = run_line(&[
            "update",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--ops",
            "2",
            "--seed",
            "9",
            "--ann",
            "indexed",
            "--threshold",
            "0.05",
        ])
        .unwrap();
        assert!(out.contains("applied "), "{out}");
        assert!(out.contains("rewrote "), "{out}");

        let out = run_line(&[
            "store",
            "commit",
            "--store",
            store_s,
            "--world",
            world_s,
            "--artifacts",
            arts_s,
        ])
        .unwrap();
        assert!(out.contains("committed generation 2 (parent 1)"), "{out}");

        let out = run_line(&["store", "diff", "1", "2", "--store", store_s]).unwrap();
        assert!(out.contains("changed"), "{out}");
        assert!(out.contains("entr(ies) differ"), "{out}");

        // Generation parity: a from-scratch rebuild of the churned world
        // is byte-identical to the incrementally maintained artifacts.
        run_line(&build(scratch.to_str().unwrap())).unwrap();
        assert_eq!(
            std::fs::read(&scratch).unwrap(),
            std::fs::read(&arts).unwrap(),
            "incremental artifacts differ from a from-scratch rebuild"
        );

        // Rollback + cat restore the pre-churn bytes exactly.
        let out = run_line(&["store", "rollback", "1", "--store", store_s]).unwrap();
        assert!(out.contains("head is now generation 1"), "{out}");
        let restored = dir.join("live-restored.json");
        let restored_s = restored.to_str().unwrap();
        run_line(&[
            "store", "cat", "1", "world", "--store", store_s, "--out", restored_s,
        ])
        .unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), world_v1);
        run_line(&[
            "store",
            "cat",
            "1",
            "artifacts",
            "--store",
            store_s,
            "--out",
            restored_s,
        ])
        .unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), arts_v1);

        let out = run_line(&["store", "log", "--store", store_s]).unwrap();
        assert!(out.contains("generation 1 (head)"), "{out}");

        // Export/import round-trips the abandoned generation 2 elsewhere;
        // gc then prunes it from the original store.
        let bundle = dir.join("live-gen2.bundle");
        let bundle_s = bundle.to_str().unwrap();
        run_line(&[
            "store", "export", "2", "--store", store_s, "--out", bundle_s,
        ])
        .unwrap();
        let store2 = dir.join("live-store-2");
        let out = run_line(&[
            "store",
            "import",
            bundle_s,
            "--store",
            store2.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("imported generation 2"), "{out}");

        let out = run_line(&["store", "gc", "--store", store_s]).unwrap();
        assert!(out.contains("removed 1 generation record(s)"), "{out}");
        assert!(run_line(&["store", "fsck"]).is_err());
        let out = run_line(&["fsck", "--store", store_s]).unwrap();
        assert!(out.contains("all healthy"), "{out}");
    }

    #[test]
    fn helpful_errors() {
        assert!(matches!(run_line(&["frobnicate"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_line(&["world", "--domain", "quantum", "--out", "/tmp/x.json"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_line(&["inspect", "--artifacts", "/nonexistent/a.json"]),
            Err(CliError::Io(_))
        ));
        assert!(matches!(
            run_line(&["select", "--world", "/nonexistent/w.json"]),
            Err(CliError::Args(_)) | Err(CliError::Io(_))
        ));
        // Unknown target names list the available ones.
        let dir = tmpdir();
        let world = dir.join("w2.json");
        let arts = dir.join("a2.json");
        run_line(&["world", "--domain", "cv", "--out", world.to_str().unwrap()]).unwrap();
        run_line(&[
            "offline",
            "--world",
            world.to_str().unwrap(),
            "--out",
            arts.to_str().unwrap(),
        ])
        .unwrap();
        let err = run_line(&[
            "select",
            "--world",
            world.to_str().unwrap(),
            "--artifacts",
            arts.to_str().unwrap(),
            "--target",
            "nope",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("beans"));
    }

    #[test]
    fn help_lists_commands() {
        let h = run_line(&["help"]).unwrap();
        for cmd in ["world", "offline", "inspect", "select", "compare", "grow"] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn archive_catalog_fsck_workflow() {
        let dir = tmpdir();
        let world = dir.join("sw.json");
        let arts = dir.join("sa.json");
        let store = dir.join("store");
        let (world_s, arts_s, store_s) = (
            world.to_str().unwrap(),
            arts.to_str().unwrap(),
            store.to_str().unwrap(),
        );
        run_line(&["world", "--domain", "cv", "--out", world_s]).unwrap();
        run_line(&["offline", "--world", world_s, "--out", arts_s]).unwrap();

        let out = run_line(&[
            "archive",
            "--store",
            store_s,
            "--name",
            "cv-v1",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
        ])
        .unwrap();
        assert!(out.contains("archived `cv-v1`"), "{out}");

        // Double-archive without --force is refused.
        assert!(run_line(&[
            "archive",
            "--store",
            store_s,
            "--name",
            "cv-v1",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
        ])
        .is_err());
        // With --force it succeeds.
        run_line(&[
            "archive",
            "--store",
            store_s,
            "--name",
            "cv-v1",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--force",
            "true",
        ])
        .unwrap();

        let out = run_line(&["catalog", "--store", store_s]).unwrap();
        assert!(out.contains("cv-v1.world"), "{out}");
        assert!(out.contains("cv-v1.artifacts"), "{out}");

        let out = run_line(&["fsck", "--store", store_s]).unwrap();
        assert!(out.contains("all healthy"), "{out}");
    }

    #[test]
    fn grow_adds_a_model_incrementally() {
        let dir = tmpdir();
        let world = dir.join("gw.json");
        let arts = dir.join("ga.json");
        let world_s = world.to_str().unwrap();
        let arts_s = arts.to_str().unwrap();
        run_line(&["world", "--domain", "cv", "--out", world_s]).unwrap();
        run_line(&["offline", "--world", world_s, "--out", arts_s]).unwrap();

        // A sibling of an existing family member joins its cluster.
        let out = run_line(&[
            "grow",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--name",
            "lab/vit-clone",
            "--like",
            "google/vit-base-patch16-224",
        ])
        .unwrap();
        assert!(out.contains("joined cluster"), "{out}");

        // The grown repository is still fully usable.
        let out = run_line(&["inspect", "--artifacts", arts_s]).unwrap();
        assert!(out.contains("31 models"));
        let out = run_line(&[
            "select",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--target",
            "beans",
        ])
        .unwrap();
        assert!(out.contains("selected `"));

        // Duplicate names are rejected.
        assert!(run_line(&[
            "grow",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--name",
            "lab/vit-clone",
        ])
        .is_err());
    }

    /// Build a world + artifacts + select trace in `dir`, returning the
    /// trace path. Shared by the `trace` family tests.
    fn make_trace(dir: &std::path::Path, tag: &str) -> std::path::PathBuf {
        let world = dir.join(format!("{tag}-w.json"));
        let arts = dir.join(format!("{tag}-a.json"));
        let trace = dir.join(format!("{tag}-trace.json"));
        let world_s = world.to_str().unwrap();
        let arts_s = arts.to_str().unwrap();
        run_line(&["world", "--domain", "cv", "--seed", "7", "--out", world_s]).unwrap();
        run_line(&["offline", "--world", world_s, "--out", arts_s]).unwrap();
        run_line(&[
            "select",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--target",
            "beans",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        trace
    }

    #[test]
    fn trace_summarize_export_and_baseline() {
        let dir = tmpdir();
        let trace = make_trace(&dir, "sum");
        let trace_s = trace.to_str().unwrap();

        let out = run_line(&["trace", "summarize", trace_s]).unwrap();
        assert!(out.contains("pipeline.two_phase_select"), "{out}");
        assert!(out.contains("recall.recalled"), "{out}");
        // --top 1 keeps the span table to a single row.
        let brief = run_line(&["trace", "summarize", trace_s, "--top", "1"]).unwrap();
        assert!(brief.len() < out.len());

        // --format json emits one machine-readable object mirroring the text.
        let json = run_line(&["trace", "summarize", trace_s, "--format", "json"]).unwrap();
        let summary: tps_core::telemetry::analysis::TraceSummary =
            serde_json::from_str(json.trim()).unwrap();
        assert!(summary.completed);
        assert!(summary.counters.contains_key("recall.recalled"));
        assert!(summary
            .spans
            .iter()
            .any(|s| s.name == "pipeline.two_phase_select"));
        let brief_json = run_line(&[
            "trace",
            "summarize",
            trace_s,
            "--top",
            "1",
            "--format",
            "json",
        ])
        .unwrap();
        let brief_summary: tps_core::telemetry::analysis::TraceSummary =
            serde_json::from_str(brief_json.trim()).unwrap();
        assert_eq!(brief_summary.spans.len(), 1);
        assert!(matches!(
            run_line(&["trace", "summarize", trace_s, "--format", "yaml"]),
            Err(CliError::Usage(_))
        ));

        let om = run_line(&["trace", "export", trace_s]).unwrap();
        assert!(om.starts_with("# TYPE") || om.contains("# TYPE"), "{om}");
        assert!(om.contains("tps_recall_recalled_total"), "{om}");
        assert!(om.contains("_bucket{le=\"+Inf\"}"), "{om}");
        assert!(om.ends_with("# EOF\n"), "{om}");
        let om_file = dir.join("metrics.txt");
        run_line(&[
            "trace",
            "export",
            trace_s,
            "--out",
            om_file.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(std::fs::read_to_string(&om_file).unwrap(), om);

        let base = dir.join("base.json");
        let base_s = base.to_str().unwrap();
        let out = run_line(&["trace", "baseline", trace_s, "--out", base_s]).unwrap();
        assert!(out.contains("wrote baseline"), "{out}");
        let report: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&base).unwrap()).unwrap();
        assert!(report.spans.is_empty());
        assert!(report.histograms.values().all(|h| !h.is_wall_clock()));

        // A fresh identical run diffs clean against the stripped baseline.
        let trace2 = make_trace(&dir, "sum2");
        let out = run_line(&["trace", "diff", base_s, trace2.to_str().unwrap()]).unwrap();
        assert!(out.contains("no drift"), "{out}");

        // Usage errors: bad subcommand, wrong arity.
        assert!(matches!(
            run_line(&["trace", "frobnicate"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run_line(&["trace"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_line(&["trace", "diff", trace_s]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_diff_fails_on_counter_drift() {
        let dir = tmpdir();
        let trace = make_trace(&dir, "drift");
        let trace_s = trace.to_str().unwrap();
        // Perturb one deterministic counter in a copy.
        let mut report: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        *report.counters.get_mut("recall.recalled").unwrap() += 1.0;
        let forged = dir.join("forged.json");
        write_json(forged.to_str().unwrap(), &report).unwrap();

        let err = run_line(&["trace", "diff", trace_s, forged.to_str().unwrap()]).unwrap_err();
        match err {
            CliError::Failed(msg) => {
                assert!(msg.contains("recall.recalled"), "{msg}");
                assert!(msg.contains("drift"), "{msg}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn trace_check_enforces_budgets() {
        let dir = tmpdir();
        let trace = make_trace(&dir, "check");
        let trace_s = trace.to_str().unwrap();
        let budgets = dir.join("budgets.toml");
        std::fs::write(
            &budgets,
            "version = 1\n\
             \n\
             [[rule]]\n\
             name = \"recall-cap\"\n\
             expect = \"recall.recalled <= 10\"\n\
             \n\
             [[rule]]\n\
             name = \"halving\"\n\
             per_stage = \"fine\"\n\
             expect = \"fine.stage{t}.survivors <= ceil(fine.stage{t}.pool / 2)\"\n",
        )
        .unwrap();
        let out = run_line(&[
            "trace",
            "check",
            trace_s,
            "--budgets",
            budgets.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("passed"), "{out}");

        // An impossible rule produces a structured FAIL and nonzero exit.
        std::fs::write(
            &budgets,
            "version = 1\n[[rule]]\nname = \"impossible\"\nexpect = \"recall.recalled <= 0\"\n",
        )
        .unwrap();
        let err = run_line(&[
            "trace",
            "check",
            trace_s,
            "--budgets",
            budgets.to_str().unwrap(),
        ])
        .unwrap_err();
        match err {
            CliError::Failed(msg) => assert!(msg.contains("impossible"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn failed_run_flushes_partial_trace() {
        let dir = tmpdir();
        let world = dir.join("pw.json");
        let arts = dir.join("pa.json");
        let trace = dir.join("partial.json");
        let world_s = world.to_str().unwrap();
        let arts_s = arts.to_str().unwrap();
        let trace_s = trace.to_str().unwrap();
        run_line(&["world", "--domain", "cv", "--seed", "7", "--out", world_s]).unwrap();
        run_line(&["offline", "--world", world_s, "--out", arts_s]).unwrap();

        // --stages 0 fails validation *inside* the traced pipeline body.
        let err = run_line(&[
            "select",
            "--world",
            world_s,
            "--artifacts",
            arts_s,
            "--target",
            "beans",
            "--stages",
            "0",
            "--trace-out",
            trace_s,
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Selection(_)), "{err:?}");

        // The partial trace still landed on disk, marked incomplete.
        let report: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(!report.completed);
        // And downstream tooling refuses to budget-check it.
        let budgets = dir.join("b.toml");
        std::fs::write(
            &budgets,
            "version = 1\n[[rule]]\nname = \"x\"\nexpect = \"1 <= 2\"\n",
        )
        .unwrap();
        let err = run_line(&[
            "trace",
            "check",
            trace_s,
            "--budgets",
            budgets.to_str().unwrap(),
        ])
        .unwrap_err();
        match err {
            CliError::Failed(msg) => assert!(msg.contains("partial"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // `summarize` flags it instead of pretending the run finished.
        let out = run_line(&["trace", "summarize", trace_s]).unwrap();
        assert!(out.contains("INCOMPLETE"), "{out}");
    }

    #[test]
    fn serve_and_client_round_trip_through_a_drain() {
        use tps_core::telemetry::TraceReport;
        let dir = tmpdir();
        let world = dir.join("sw.json");
        let arts = dir.join("sa.json");
        let ready = dir.join("serve-ready");
        let trace = dir.join("serve-trace.json");
        let access = dir.join("serve-access.jsonl");
        let world_s = world.to_str().unwrap().to_string();
        let arts_s = arts.to_str().unwrap().to_string();
        let ready_s = ready.to_str().unwrap().to_string();
        let trace_s = trace.to_str().unwrap().to_string();
        let access_s = access.to_str().unwrap().to_string();

        run_line(&["world", "--domain", "cv", "--seed", "7", "--out", &world_s]).unwrap();
        run_line(&["offline", "--world", &world_s, "--out", &arts_s]).unwrap();

        let server = std::thread::spawn({
            let (world_s, arts_s, ready_s, trace_s, access_s) = (
                world_s.clone(),
                arts_s.clone(),
                ready_s.clone(),
                trace_s.clone(),
                access_s.clone(),
            );
            move || {
                run_line(&[
                    "serve",
                    "--world",
                    &world_s,
                    "--artifacts",
                    &arts_s,
                    "--ready-file",
                    &ready_s,
                    "--trace-out",
                    &trace_s,
                    "--access-log",
                    &access_s,
                    "--slo-ms",
                    "60000",
                ])
            }
        });
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&ready) {
                if text.contains(':') {
                    break text.trim().to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        // One-shot select for the same target: the served result must embed
        // a bit-identical outcome.
        let expected = run_line(&[
            "select",
            "--world",
            &world_s,
            "--artifacts",
            &arts_s,
            "--target",
            "beans",
        ])
        .unwrap();
        let out = run_line(&[
            "client",
            "--addr",
            &addr,
            "--request",
            r#"{"id":1,"target":"beans"}"#,
        ])
        .unwrap();
        assert!(out.contains("\"status\":\"ok\""), "{out}");
        let winner = expected
            .lines()
            .next()
            .and_then(|l| l.split('`').nth(1))
            .unwrap();
        assert!(out.contains(&format!("\"winner\":\"{winner}\"")), "{out}");

        // Repeat → cache hit, byte-identical response line.
        let again = run_line(&[
            "client",
            "--addr",
            &addr,
            "--request",
            r#"{"id":1,"target":"beans"}"#,
        ])
        .unwrap();
        assert_eq!(out, again);

        // Live scrape without draining: a full OpenMetrics exposition.
        let exposition = run_line(&["client", "--addr", &addr, "--metrics", "true"]).unwrap();
        assert!(
            exposition.contains("tps_serve_requests_total 2"),
            "{exposition}"
        );
        assert!(
            exposition.contains("tps_serve_cache_hits_total 1"),
            "{exposition}"
        );
        assert!(
            exposition.contains("tps_serve_request_latency_us_count 2"),
            "{exposition}"
        );
        assert!(
            exposition.contains("tps_serve_window_p50_us"),
            "{exposition}"
        );
        assert!(exposition.trim_end().ends_with("# EOF"), "{exposition}");

        // `tps top --once` condenses the same scrape into one JSON line.
        let top = run_line(&["top", "--addr", &addr, "--once", "true"]).unwrap();
        let top_json: serde_json::Value = serde_json::from_str(top.trim()).unwrap();
        assert_eq!(top_json["requests"], 2, "{top}");
        assert_eq!(top_json["executed"], 1, "{top}");
        assert_eq!(top_json["cache_hits"], 1, "{top}");
        assert_eq!(top_json["slo_violations"], 0, "{top}");
        assert_eq!(top_json["access_log_records"], 2, "{top}");
        assert_eq!(top_json["window_count"], 2, "{top}");

        let out = run_line(&["client", "--addr", &addr, "--shutdown", "true"]).unwrap();
        assert!(out.contains("draining"), "{out}");
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("drained after 2 request(s)"), "{summary}");
        assert!(summary.contains("1 executed, 1 cache hit(s)"), "{summary}");
        assert!(summary.contains("window: 2 request(s)"), "{summary}");
        assert!(summary.contains("0 SLO violation(s)"), "{summary}");
        assert!(summary.contains("access log: 2 record(s)"), "{summary}");

        let report: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(report.completed);
        assert_eq!(report.counter("serve.requests"), Some(2.0));
        assert_eq!(report.counter("serve.executed"), Some(1.0));
        assert_eq!(report.counter("serve.cache_hits"), Some(1.0));
        assert_eq!(report.spans_named("serve.request").len(), 1);
        assert_eq!(report.counter("serve.slo_violations"), Some(0.0));
        assert_eq!(report.counter("serve.access_log_records"), Some(2.0));
        assert_eq!(report.counter("serve.access_log_dropped"), Some(0.0));

        // The access log carries one JSONL record per admitted request,
        // and the cache verdicts reconcile with the stats.
        let log = std::fs::read_to_string(&access).unwrap();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2, "{log}");
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(first["cache"], "miss", "{log}");
        assert_eq!(second["cache"], "hit", "{log}");
        assert_eq!(first["status"], "ok", "{log}");
        assert_eq!(first["fingerprint"], second["fingerprint"], "{log}");
    }
}
