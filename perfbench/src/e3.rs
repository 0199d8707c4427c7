//! `e3`: the paper's Appendix D experiment, MCDB-R tail sampling against
//! naive MCDB on the TPC-H join query, on the in-process and the process
//! backend.
//!
//! A run measures three phases back to back, every query under its own
//! master seed:
//!
//! 1. naive MCDB queries (`McdbEngine::run_samples`, one batch of
//!    repetitions each) on the in-process backend;
//! 2. MCDB-R tail queries (`GibbsLooper::run`, Appendix D configuration)
//!    on the in-process backend;
//! 3. the same tail queries, seed for seed, on `ProcessBackend` with two
//!    workers, each checked bit for bit against its phase-2 twin.
//!
//! The gated end-to-end metrics time phase 1, which runs first so that
//! the memory a heavy tail query leaves behind cannot slow it.  Tail
//! figures are reported, not gated: a tail query costs ~100 ms plus ~8 ms
//! per replenishment at test scale, and the replenishment count runs from
//! 5 to over 250 depending on the master seed (every stream is extended
//! whenever one runs dry), so the median tail query of a run moves by ~25%
//! between workload seeds.  The process backend's figures are not gated
//! either: its queries hand megabytes through pipes between three
//! processes on two cores, and on a host that steals CPU time its run
//! medians spread by up to a third between seeds.  The TPC-H data is the
//! scale's own fixed catalog, as in the paper's experiment; the workload
//! seed picks the master seeds.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mcdbr_bench::appendix_d_config;
use mcdbr_core::{GibbsLooper, TailSampleResult};
use mcdbr_dispatch::ProcessBackend;
use mcdbr_exec::aggregate::{AggregateSpec, QueryResultSamples};
use mcdbr_exec::{
    BlockBufferPool, BundleSet, DeterministicPrefix, ExecBackend, Expr, InProcessBackend, PlanNode,
    SessionCache, ShardStats,
};
use mcdbr_mcdb::{McdbEngine, MonteCarloQuery};
use mcdbr_storage::{BufferPool, Catalog, Error, PageCacheStats};
use mcdbr_workloads::{TpchConfig, TpchWorkload};

use crate::trace::{self, span, TracedBackend, Tracer};
use crate::util::{fingerprint, median, metric, ms, quantile, Seeds, MIB};
use crate::{Args, Checks, Limit, Outcome};

/// The Appendix D sample budget `N` (`appendix_d_config(500, ·)`).
const TAIL_BUDGET: usize = 500;
/// Worker processes of the process backend, one per core of the
/// reference box.
const WORKERS: usize = 2;
/// Repetitions per naive MCDB query: one block of the Appendix D
/// configuration (`appendix_d_config` keeps the looper's 1000-value
/// blocks), so a naive query materializes as many values as one block
/// request of a tail query.
const NAIVE_REPS: usize = 1000;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 31;
/// Shares of a run's time per phase.  Phase 1 of a 40 s run holds several
/// hundred naive queries, so their 95th percentile has well over ten
/// samples beyond it.
const NAIVE_SHARE: f64 = 0.4;
const TAIL_SHARE: f64 = 0.3;

/// A backend, and the tracing decorator in front of it on a traced run.
struct Backend {
    exec: Arc<dyn ExecBackend>,
    traced: Option<Arc<TracedBackend>>,
}

impl Backend {
    fn new(inner: Arc<dyn ExecBackend>, tracer: Option<&Arc<Tracer>>, dispatch: bool) -> Backend {
        let traced =
            tracer.map(|t| Arc::new(TracedBackend::new(inner.clone(), t.clone(), dispatch)));
        let exec: Arc<dyn ExecBackend> = match &traced {
            Some(t) => t.clone(),
            None => inner,
        };
        Backend { exec, traced }
    }

    /// Stream values materialized so far (traced runs only).
    fn values(&self) -> u64 {
        self.traced.as_ref().map_or(0, |t| t.values_materialized())
    }
}

/// Everything a run needs before its measured phases.
struct Setup {
    workload: TpchWorkload,
    query: MonteCarloQuery,
    local: Backend,
    process: Backend,
    cache: Arc<SessionCache>,
    engine: McdbEngine,
    skeleton_ns: u64,
    pages: PageCacheStats,
}

/// The `mcdbr-worker` binary `ProcessBackend` will spawn: beside this
/// executable.  Without it the backend would quietly degrade every task to
/// local execution, so a missing binary stops the run instead.
fn require_worker_binary() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let worker = exe.with_file_name(format!("mcdbr-worker{}", std::env::consts::EXE_SUFFIX));
    if worker.is_file() {
        Ok(())
    } else {
        Err(format!(
            "mcdbr-worker not found at {}; build it into this binary's directory \
             (run.py builds the dispatch crate's bin there) so phase 3 measures the process backend, not its local fallback",
            worker.display()
        ))
    }
}

impl Setup {
    /// Catalog generation and sealing, the first skeleton build, a
    /// one-repetition engine warm-up and the workers' spawn and handshake
    /// (a one-value block that ships them the plan).
    fn new(seeds: &Seeds, tracer: Option<&Arc<Tracer>>) -> Result<Setup, String> {
        let pages_before = BufferPool::global().stats();
        let workload = span(tracer, "setup.catalog", 0, || {
            TpchWorkload::generate(TpchConfig::test_scale())
        })
        .map_err(|e| format!("tpch: {e}"))?;
        let query = workload.total_loss_query();
        let catalog = &workload.catalog;

        let cache = Arc::new(SessionCache::new());
        let t0 = Instant::now();
        span(tracer, "exec.skeleton", 0, || {
            cache.session(&query.plan, catalog, seeds.tail(0))
        })
        .map_err(|e| format!("skeleton: {e}"))?;
        let skeleton_ns = t0.elapsed().as_nanos() as u64;

        let local = Backend::new(Arc::new(InProcessBackend::new()), tracer, false);
        let mut engine = McdbEngine::new().with_backend(local.exec.clone());
        span(tracer, "setup.engine_warmup", 0, || {
            engine.run_samples(&query, catalog, 1, seeds.naive(u64::MAX))
        })
        .map_err(|e| format!("engine warm-up: {e}"))?;

        require_worker_binary()?;
        let process = Backend::new(Arc::new(ProcessBackend::new(WORKERS)), tracer, true);
        span(tracer, "setup.workers", 0, || {
            cache
                .session(&query.plan, catalog, seeds.tail(0))?
                .with_backend(process.exec.clone())
                .instantiate_block(catalog, 0, 1)
        })
        .map_err(|e| format!("worker warm-up: {e}"))?;
        let spawned = process.exec.shard_stats().workers_spawned;
        if spawned != WORKERS {
            return Err(format!(
                "expected {WORKERS} workers after warm-up, saw {spawned}"
            ));
        }
        Ok(Setup {
            pages: BufferPool::global().stats().since(&pages_before),
            workload,
            query,
            local,
            process,
            cache,
            engine,
            skeleton_ns,
        })
    }
}

struct TailOp {
    seed: u64,
    ns: u64,
    values: u64,
    result: Result<TailSampleResult, String>,
}

struct NaiveOp {
    seed: u64,
    ns: u64,
    result: Result<Vec<f64>, String>,
}

/// When each phase of a pass stops.
#[derive(Debug, Clone, Copy)]
struct Limits {
    naive: Limit,
    tail: Limit,
    dispatched: Limit,
}

impl Limits {
    fn of(limit: Limit, share: f64) -> Limits {
        Limits {
            naive: limit.scaled(NAIVE_SHARE * share),
            tail: limit.scaled(TAIL_SHARE * share),
            dispatched: limit.scaled((1.0 - NAIVE_SHARE - TAIL_SHARE) * share),
        }
    }
}

#[derive(Default)]
struct Pass {
    naives: Vec<NaiveOp>,
    /// Phase 2, in-process.
    tails: Vec<TailOp>,
    /// Phase 3: `dispatched[k]` re-runs `tails[k]`'s seed on the process
    /// backend.
    dispatched: Vec<TailOp>,
    /// Tail queries still running when their phase's time ran out.
    tails_cut: u64,
    wall_ns: u64,
    /// The process backend's counters over the pass.
    stats: ShardStats,
    bytes_naive: u64,
    reuses_naive: u64,
}

fn ms_of(ops: &[TailOp]) -> Vec<f64> {
    ops.iter().map(|t| ms(t.ns)).collect()
}

fn ok(ops: &[TailOp]) -> impl Iterator<Item = &TailSampleResult> {
    ops.iter().filter_map(|t| t.result.as_ref().ok())
}

impl Pass {
    fn naive_ms(&self) -> Vec<f64> {
        self.naives.iter().map(|n| ms(n.ns)).collect()
    }

    /// Naive repetitions generated and aggregated per second of naive
    /// query time.
    fn naive_reps_per_s(&self) -> f64 {
        let secs: f64 = self.naives.iter().map(|n| n.ns as f64 / 1e9).sum();
        (self.naives.len() * NAIVE_REPS) as f64 / secs
    }

    fn attempted(&self) -> u64 {
        (self.naives.len() + self.tails.len() + self.dispatched.len()) as u64
    }

    /// Every completed looper run, both backends.
    fn loopers(&self) -> impl Iterator<Item = &TailSampleResult> {
        ok(&self.tails).chain(ok(&self.dispatched))
    }
}

/// Run tail queries on `backend` until `limit`, one per seed of `seeds`.
/// Queries cut at the limit are counted, not kept.
fn tail_phase(
    setup: &Setup,
    backend: &Backend,
    seeds: impl Iterator<Item = u64>,
    limit: Limit,
    first_qid: u64,
    tracer: Option<&Arc<Tracer>>,
    cut: &mut u64,
) -> Vec<TailOp> {
    let mut ops = Vec::new();
    let start = Instant::now();
    for (j, seed) in seeds.enumerate() {
        if limit.done(j as u64, start) {
            break;
        }
        let cutoff = Arc::new(Cutoff::new(backend.exec.clone(), limit.deadline(start)));
        let looper = GibbsLooper::new(setup.query.clone(), appendix_d_config(TAIL_BUDGET, seed))
            .with_cache(setup.cache.clone())
            .with_backend(cutoff.clone());
        let values_before = backend.values();
        let t0 = Instant::now();
        let result = span(tracer, "core.looper", first_qid + j as u64, || {
            looper.run(&setup.workload.catalog)
        })
        .map_err(|e| e.to_string());
        let ns = t0.elapsed().as_nanos() as u64;
        if cutoff.tripped() {
            *cut += 1;
            break;
        }
        ops.push(TailOp {
            seed,
            ns,
            values: backend.values() - values_before,
            result,
        });
    }
    ops
}

fn run_pass(
    setup: &mut Setup,
    seeds: &Seeds,
    limits: Limits,
    tracer: Option<&Arc<Tracer>>,
) -> Pass {
    let stats_before = setup.process.exec.shard_stats();
    let (bytes_before, reuses_before) = (
        setup.engine.bytes_materialized(),
        setup.engine.buffer_reuses(),
    );
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut i = 0u64;
    while !limits.naive.done(i, start) {
        let seed = seeds.naive(i);
        let t0 = Instant::now();
        let result = span(tracer, "mcdb.run_samples", i, || {
            setup
                .engine
                .run_samples(&setup.query, &setup.workload.catalog, NAIVE_REPS, seed)
        })
        .and_then(|s| s.single().map(<[f64]>::to_vec))
        .map_err(|e| e.to_string());
        let ns = t0.elapsed().as_nanos() as u64;
        pass.naives.push(NaiveOp { seed, ns, result });
        i += 1;
    }
    pass.bytes_naive = setup.engine.bytes_materialized() - bytes_before;
    pass.reuses_naive = setup.engine.buffer_reuses() - reuses_before;

    let setup = &*setup;
    pass.tails = tail_phase(
        setup,
        &setup.local,
        (0..).map(|j| seeds.tail(j)),
        limits.tail,
        i,
        tracer,
        &mut pass.tails_cut,
    );
    let twins: Vec<u64> = pass.tails.iter().map(|t| t.seed).collect();
    pass.dispatched = tail_phase(
        setup,
        &setup.process,
        twins.into_iter(),
        limits.dispatched,
        i + pass.tails.len() as u64,
        tracer,
        &mut pass.tails_cut,
    );
    pass.wall_ns = start.elapsed().as_nanos() as u64;
    pass.stats = setup.process.exec.shard_stats().since(stats_before);
    pass
}

/// Forwards to `inner` until `until` (if any), then refuses new blocks.
/// A tail query's cost depends on its master seed: on the process backend
/// about one query in 80 runs for over a minute and reads GiBs back from
/// the workers.  A query still running when its phase's time is up is cut
/// at its next block, so it cannot stretch a run past its limit; it is
/// counted as cut, neither attempted nor failed (`tail_cut`).
#[derive(Debug)]
struct Cutoff {
    inner: Arc<dyn ExecBackend>,
    until: Option<Instant>,
    tripped: AtomicBool,
}

impl Cutoff {
    fn new(inner: Arc<dyn ExecBackend>, until: Option<Instant>) -> Self {
        Cutoff {
            inner,
            until,
            tripped: AtomicBool::new(false),
        }
    }

    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

impl ExecBackend for Cutoff {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn instantiate_block(
        &self,
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> mcdbr_storage::Result<BundleSet> {
        if self.until.is_some_and(|until| Instant::now() >= until) {
            self.tripped.store(true, Ordering::Relaxed);
            return Err(Error::Timeout("the tail phase's time is up".into()));
        }
        self.inner
            .instantiate_block(prefix, pool, threads, base_pos, num_values)
    }

    fn aggregate(
        &self,
        set: &BundleSet,
        agg: &AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&Expr>,
        threads: usize,
    ) -> mcdbr_storage::Result<QueryResultSamples> {
        self.inner
            .aggregate(set, agg, group_by, final_predicate, threads)
    }

    fn shard_stats(&self) -> ShardStats {
        self.inner.shard_stats()
    }

    fn prepare_dispatch(
        &self,
        plan: &PlanNode,
        catalog: &Catalog,
        prefix: &DeterministicPrefix,
    ) -> mcdbr_storage::Result<()> {
        self.inner.prepare_dispatch(plan, catalog, prefix)
    }
}

/// A dispatched operation that needed any recovery, or never reached a
/// worker, ran degraded: its answer may be right, but it did not measure
/// the healthy path.
fn degraded(r: &TailSampleResult) -> bool {
    r.tasks_dispatched == 0
        || r.worker_respawns + r.task_retries + r.circuit_trips + r.deadline_timeouts > 0
}

/// Output checks, run after the measured phases.
fn check(setup: &Setup, pass: &Pass) -> Checks {
    let mut checks = Checks::default();
    let l = appendix_d_config(TAIL_BUDGET, 0).l;
    let tail_ok = |what: &str, r: &TailSampleResult| -> Option<String> {
        let cutoff = r.cutoffs.last().copied().unwrap_or(f64::NAN);
        (r.tail_samples.len() != l || !r.tail_samples.iter().all(|&x| x >= cutoff)).then(|| {
            format!(
                "{what}: {} samples, want {l} all >= the final cutoff {cutoff}",
                r.tail_samples.len()
            )
        })
    };
    for op in &pass.tails {
        let what = format!("tail query, master seed {:#x}", op.seed);
        match &op.result {
            Ok(r) => checks.record(what.clone(), tail_ok(&what, r), false),
            Err(e) => checks.wrong(format!("{what}: {e}")),
        }
    }
    // Bit identity across backends (DESIGN.md §4): each dispatched query
    // against its in-process twin.
    for (op, twin) in pass.dispatched.iter().zip(&pass.tails) {
        let what = format!("dispatched tail query, master seed {:#x}", op.seed);
        let r = match &op.result {
            Ok(r) => r,
            Err(e) => {
                checks.wrong(format!("{what}: {e}"));
                continue;
            }
        };
        let wrong = tail_ok(&what, r).or_else(|| match &twin.result {
            Ok(t)
                if fingerprint(&t.tail_samples) == fingerprint(&r.tail_samples)
                    && fingerprint(&t.cutoffs) == fingerprint(&r.cutoffs) =>
            {
                None
            }
            _ => Some(format!("{what}: differs from the in-process looper")),
        });
        checks.record(what, wrong, degraded(r));
    }
    let oracle = &setup.workload.oracle;
    for op in &pass.naives {
        let what = format!("naive query, master seed {:#x}", op.seed);
        let samples = match &op.result {
            Ok(s) => s,
            Err(e) => {
                checks.wrong(format!("{what}: {e}"));
                continue;
            }
        };
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        // The sum of normals has an analytic distribution; a correct batch's
        // mean lies within six standard errors of it.
        let wrong = (samples.len() != NAIVE_REPS
            || (mean - oracle.mean).abs() > 6.0 * oracle.sd() / n.sqrt())
        .then(|| {
            format!(
                "{what}: {} samples with mean {mean}, oracle {} ± {}",
                samples.len(),
                oracle.mean,
                oracle.sd()
            )
        });
        checks.record(what, wrong, false);
    }
    checks
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seeds = Seeds::new(args.seed);
    let tracer = args.trace.then(Tracer::new);
    let mut setup_s = Vec::new();
    let mut skeleton_ms = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        // Tear the previous set-up down first (this reaps its workers).
        drop(setup.take());
        let t0 = Instant::now();
        let s = Setup::new(&seeds, tracer.as_ref())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        skeleton_ms.push(ms(s.skeleton_ns));
        setup = Some(s);
    }
    let mut setup = setup.expect("SETUPS >= 1");
    let setup_spans = tracer.as_ref().map(|t| t.take()).unwrap_or_default();

    let (pass, warm, base) = match &tracer {
        None => (
            run_pass(&mut setup, &seeds, Limits::of(args.limit, 1.0), None),
            None,
            None,
        ),
        Some(t) => {
            // An untraced pass warms the buffer pools and fixes the query
            // counts; the same queries then run traced and untraced again.
            // The difference between those two is the tracing overhead.
            t.set_enabled(false);
            let warm = run_pass(&mut setup, &seeds, Limits::of(args.limit, 1.0 / 3.0), None);
            let limits = Limits {
                naive: Limit::Rounds(warm.naives.len() as u64),
                tail: Limit::Rounds(warm.tails.len() as u64),
                dispatched: Limit::Rounds(warm.dispatched.len() as u64),
            };
            t.set_enabled(true);
            let pass = run_pass(&mut setup, &seeds, limits, Some(t));
            t.set_enabled(false);
            let base = run_pass(&mut setup, &seeds, limits, None);
            (pass, Some(warm), Some(base))
        }
    };
    // The untraced passes of a traced run are checked and counted too, so
    // no figure comes from an unchecked operation.
    let mut checks = check(&setup, &pass);
    let mut attempted = pass.attempted();
    for other in warm.iter().chain(&base) {
        checks.merge(check(&setup, other));
        attempted += other.attempted();
    }

    let l = appendix_d_config(TAIL_BUDGET, 0).l as f64;
    let p = appendix_d_config(TAIL_BUDGET, 0).p;
    let tail_p50_ms = median(&ms_of(&pass.tails));
    let naive_rate = pass.naive_reps_per_s();
    let tail_secs: f64 = pass.tails.iter().map(|t| t.ns as f64 / 1e9).sum();
    let mut out = Outcome {
        attempted,
        checks,
        ..Outcome::default()
    };
    out.e2e = vec![
        metric("query_p50_ms", median(&pass.naive_ms()), "ms"),
        metric("naive_reps_per_s", naive_rate, "1/s"),
        metric("setup_s", median(&setup_s), "s"),
    ];
    let exhausted: u64 = pass.loopers().map(|r| r.gibbs.exhausted).sum();
    let replenishments: u64 = pass.loopers().map(|r| r.replenishments as u64).sum();
    out.report = vec![
        metric("query_p95_ms", quantile(&pass.naive_ms(), 0.95), "ms"),
        metric("tail_p50_ms", tail_p50_ms, "ms"),
        metric(
            "tail_per_min",
            60.0 * pass.tails.len() as f64 / tail_secs,
            "1/min",
        ),
        metric(
            "dispatched_tail_p50_ms",
            median(&ms_of(&pass.dispatched)),
            "ms",
        ),
        metric("peak_rss_mb", crate::util::peak_rss_mb(), "MiB"),
        metric("naive_queries", pass.naives.len() as f64, "count"),
        metric("tail_queries", pass.tails.len() as f64, "count"),
        metric(
            "dispatched_tail_queries",
            pass.dispatched.len() as f64,
            "count",
        ),
        metric("tail_cut", pass.tails_cut as f64, "count"),
        metric(
            "fail_ratio",
            out.checks.failed as f64 / attempted as f64,
            "ratio",
        ),
        // Naive time for l / p repetitions over the median MCDB-R query:
        // the paper's headline ratio, printed for reference only, since a
        // faster naive path lowers it.
        metric("speedup", (l / p / naive_rate) / (tail_p50_ms / 1e3), "x"),
        metric("core.exhausted", exhausted as f64, "count"),
        metric("core.replenishments", replenishments as f64, "count"),
    ];

    let st = pass.stats;
    let tail_bytes: u64 = pass.loopers().map(|r| r.bytes_materialized).sum();
    let tail_reuses: u64 = pass.loopers().map(|r| r.buffer_reuses).sum();
    out.counters = vec![
        ("replenishments", replenishments),
        (
            "candidates",
            pass.loopers().map(|r| r.gibbs.candidates()).sum(),
        ),
        ("exhausted", exhausted),
        ("tasks", st.tasks_dispatched as u64),
        ("wire_rx_bytes", st.wire_bytes_received),
        ("wire_tx_bytes", st.wire_bytes_sent),
        ("bytes_materialized", tail_bytes + pass.bytes_naive),
        (
            "skeleton_hits",
            pass.loopers().map(|r| r.skeleton_hits as u64).sum(),
        ),
        ("pages_read", setup.pages.pages_read),
    ];

    if let (Some(t), Some(base)) = (&tracer, base) {
        let spans = t.take();
        let selfs = trace::self_times(&spans)?;
        let get = |name: &str| ms(selfs.get(name).copied().unwrap_or(0));
        let attributed: u64 = selfs.values().sum();
        let consumed: u64 = pass.loopers().map(|r| r.stream_positions_consumed).sum();
        let tail_values: u64 = pass
            .tails
            .iter()
            .chain(&pass.dispatched)
            .map(|t| t.values)
            .sum();
        let candidates: u64 = pass.loopers().map(|r| r.gibbs.candidates()).sum();
        let accepted: u64 = pass.loopers().map(|r| r.gibbs.accepted).sum();
        let page_pins = setup.pages.pages_read + setup.pages.pool_hits;
        let instantiate_calls =
            trace::count(&spans, "exec.instantiate") + trace::count(&spans, "dispatch.instantiate");
        out.layers = vec![
            metric("exec.skeleton_ms", median(&skeleton_ms), "ms"),
            metric("storage.pages_read", setup.pages.pages_read as f64, "count"),
            metric(
                "storage.pool_hit_ratio",
                setup.pages.pool_hits as f64 / page_pins.max(1) as f64,
                "ratio",
            ),
            metric("exec.instantiate_ms", get("exec.instantiate"), "ms"),
            metric("exec.prepare_ms", get("exec.prepare"), "ms"),
            metric("exec.instantiate_calls", instantiate_calls as f64, "count"),
            metric(
                "exec.bytes_materialized_mib",
                (tail_bytes + pass.bytes_naive) as f64 / MIB,
                "MiB",
            ),
            metric(
                "exec.buffer_reuses",
                (tail_reuses + pass.reuses_naive) as f64,
                "count",
            ),
            metric("exec.aggregate_ms", get("exec.aggregate"), "ms"),
            metric(
                "exec.aggregate_calls",
                trace::count(&spans, "exec.aggregate") as f64,
                "count",
            ),
            metric("mcdb.engine_self_ms", get("mcdb.run_samples"), "ms"),
            metric("mcdb.naive_queries", pass.naives.len() as f64, "count"),
            metric("core.gibbs_self_ms", get("core.looper"), "ms"),
            metric(
                "core.tail_queries",
                (pass.tails.len() + pass.dispatched.len()) as f64,
                "count",
            ),
            metric("core.candidates", candidates as f64, "count"),
            metric(
                "core.acceptance",
                accepted as f64 / candidates.max(1) as f64,
                "ratio",
            ),
            metric("core.exhausted", exhausted as f64, "count"),
            metric("core.replenishments", replenishments as f64, "count"),
            metric(
                "core.consumed_per_materialized",
                consumed as f64 / tail_values.max(1) as f64,
                "ratio",
            ),
            metric("dispatch.instantiate_ms", get("dispatch.instantiate"), "ms"),
            metric("dispatch.prepare_ms", get("dispatch.prepare"), "ms"),
            metric("dispatch.tasks", st.tasks_dispatched as f64, "count"),
            metric(
                "dispatch.wire_rx_mib",
                st.wire_bytes_received as f64 / MIB,
                "MiB",
            ),
            metric(
                "dispatch.wire_tx_mib",
                st.wire_bytes_sent as f64 / MIB,
                "MiB",
            ),
            metric("dispatch.respawns", st.worker_respawns as f64, "count"),
            metric("dispatch.retries", st.task_retries as f64, "count"),
            metric("dispatch.circuit_trips", st.circuit_trips as f64, "count"),
            metric(
                "dispatch.deadline_timeouts",
                st.deadline_timeouts as f64,
                "count",
            ),
            metric(
                "dispatch.store_evictions",
                st.store_evictions as f64,
                "count",
            ),
            metric("trace.wall_ms", ms(pass.wall_ns), "ms"),
            metric(
                "trace.unattributed_ms",
                ms(pass.wall_ns.saturating_sub(attributed)),
                "ms",
            ),
            metric(
                "trace.overhead_ms",
                median(&pass.naive_ms()) - median(&base.naive_ms()),
                "ms",
            ),
        ];
        out.spans = setup_spans.into_iter().chain(spans).collect();
    }
    Ok(out)
}
