//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <e3|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--rounds <n>]
//! ```
//!
//! Every input the program sees is generated from `--seed`.  A run sets up
//! many times (each workload's `SETUPS`) and reports the median set-up
//! time, measures for `--seconds` (or exactly `--rounds` queries of each
//! kind, per client on `serve_mixed`), checks every output of every pass
//! outside the measured region, prints one `metric`/`layer` line per measurement,
//! a `counters` line of deterministic work counts, and last the JSON
//! result line.  `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs a warm-up pass, then the same queries with spans on and off, and
//! reports the per-layer split and the tracing overhead (the traced
//! `query_p50_ms` minus the untraced one), dumping the spans under
//! `.bench_out/`.

mod e3;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use util::{metric, Metric};

/// Threads, connections and worker processes per workload: the reference
/// box has two cores.
const THREADS: &str = "2";

/// The per-layer metrics every traced run prints, in order.  A layer a
/// workload does not cross reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("exec.skeleton_ms", "ms"),
    ("storage.pages_read", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("exec.instantiate_ms", "ms"),
    ("exec.prepare_ms", "ms"),
    ("exec.instantiate_calls", "count"),
    ("exec.bytes_materialized_mib", "MiB"),
    ("exec.buffer_reuses", "count"),
    ("exec.aggregate_ms", "ms"),
    ("exec.aggregate_calls", "count"),
    ("mcdb.engine_self_ms", "ms"),
    ("mcdb.naive_queries", "count"),
    ("core.gibbs_self_ms", "ms"),
    ("core.tail_queries", "count"),
    ("core.candidates", "count"),
    ("core.acceptance", "ratio"),
    ("core.exhausted", "count"),
    ("core.replenishments", "count"),
    ("core.consumed_per_materialized", "ratio"),
    ("dispatch.instantiate_ms", "ms"),
    ("dispatch.prepare_ms", "ms"),
    ("dispatch.tasks", "count"),
    ("dispatch.wire_rx_mib", "MiB"),
    ("dispatch.wire_tx_mib", "MiB"),
    ("dispatch.respawns", "count"),
    ("dispatch.retries", "count"),
    ("dispatch.circuit_trips", "count"),
    ("dispatch.deadline_timeouts", "count"),
    ("dispatch.store_evictions", "count"),
    ("server.exec_cold_ms", "ms"),
    ("server.exec_hot_ms", "ms"),
    ("server.skeleton_hit_ratio", "ratio"),
    ("server.exec_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.outside_exec_ms", "ms"),
    ("server.wire_bytes_per_query", "B"),
    ("server.queries", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// When a measured pass stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    Rounds(u64),
}

impl Limit {
    /// Whether a pass that started at `start` and completed `done` rounds
    /// is over.
    pub fn done(self, done: u64, start: Instant) -> bool {
        match self {
            Limit::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Limit::Rounds(n) => done >= n,
        }
    }

    /// When a pass that started at `start` must stop, for a time limit.
    pub fn deadline(self, start: Instant) -> Option<Instant> {
        match self {
            Limit::Seconds(s) => Some(start + Duration::from_secs_f64(s)),
            Limit::Rounds(_) => None,
        }
    }

    /// A share of a time limit; a round count stays as it is.
    pub fn scaled(self, share: f64) -> Limit {
        match self {
            Limit::Seconds(s) => Limit::Seconds(s * share),
            rounds => rounds,
        }
    }
}

#[derive(Debug)]
pub struct Args {
    workload: String,
    pub seed: u64,
    pub limit: Limit,
    pub trace: bool,
}

/// The verdicts of a run's output checks.  An operation fails when its
/// output is wrong or when it ran degraded (recovered from a fault, or
/// was refused); only wrong outputs make the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed: u64,
    /// One message per wrong output.
    pub wrong: Vec<String>,
    /// One message per degraded operation.
    pub degraded: Vec<String>,
}

impl Checks {
    pub fn wrong(&mut self, message: String) {
        self.failed += 1;
        self.wrong.push(message);
    }

    /// Fold another pass's verdicts into these.
    pub fn merge(&mut self, other: Checks) {
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
        self.degraded.extend(other.degraded);
    }

    /// Record one checked operation.
    pub fn record(&mut self, what: String, wrong: Option<String>, degraded: bool) {
        if let Some(message) = wrong {
            self.wrong(message);
        } else if degraded {
            self.failed += 1;
        }
        if degraded {
            self.degraded.push(format!("{what}: degraded"));
        }
    }
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub checks: Checks,
    /// The end-to-end metrics `BENCHMARK.json` names.
    pub e2e: Vec<Metric>,
    /// Further end-to-end figures, printed but not gated.
    pub report: Vec<Metric>,
    /// Per-layer metrics of a traced run.
    pub layers: Vec<Metric>,
    /// Work counts that repeat exactly for one seed and round count.
    pub counters: Vec<(&'static str, u64)>,
    pub spans: Vec<trace::Span>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut rounds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--rounds" => rounds = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let limit = match (rounds, seconds) {
        (Some(n), _) if n > 0 => Limit::Rounds(n),
        (Some(_), _) => return Err("--rounds must be positive".into()),
        (None, Some(s)) => Limit::Seconds(s),
        (None, None) => return Err("one of --seconds or --rounds is required".into()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        limit,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pin the program's environment knobs: no inherited backend, fault,
/// deadline or disk setting may change what a run measures, and every
/// workload runs two threads.
fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MCDBR_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("MCDBR_THREADS", THREADS);
}

fn print_metrics(kind: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{kind} {} = {} {}", m.name, m.value, m.unit);
    }
}

/// Every per-layer metric in [`LAYERS`] order; absent ones read 0.
fn layer_metrics(measured: &[Metric]) -> Result<Vec<Metric>, String> {
    if let Some(m) = measured
        .iter()
        .find(|m| !LAYERS.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("per-layer metric {} is not in LAYERS", m.name));
    }
    Ok(LAYERS
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    pin_environment();
    let out = match args.workload.as_str() {
        "e3" => e3::run(&args)?,
        "serve_mixed" => serve::run(&args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    for message in out.checks.wrong.iter().chain(&out.checks.degraded).take(20) {
        eprintln!("failed: {message}");
    }
    print_metrics("metric", &out.e2e);
    print_metrics("metric", &out.report);
    let metrics = if args.trace {
        let layers = layer_metrics(&out.layers)?;
        print_metrics("layer", &layers);
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        trace::dump(&out.spans, &path).map_err(|e| format!("span dump {}: {e}", path.display()))?;
        println!("spans {} written to {}", out.spans.len(), path.display());
        layers
    } else {
        out.e2e.clone()
    };
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("counters {{{}}}", counters.join(", "));
    let correct = out.checks.wrong.is_empty();
    println!(
        "{}",
        util::result_line(correct, out.attempted, out.checks.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
