//! `serve_mixed`: a resident `Server` driven by closed-loop clients.
//!
//! Each client sends its next query only after the previous reply, so the
//! loop is closed and a slow server receives less load.  Seven in eight
//! queries repeat the demo plan, whose skeleton the server's session cache
//! holds; the eighth carries a plan the cache has never seen (the demo
//! filter plus an always-true `cid` bound no other query uses), so it pays
//! phase 1 and a storage scan on the serving path while computing the same
//! rows as a hot query.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcdbr_dispatch::wire::ReplyCode;
use mcdbr_exec::{Expr, InProcessBackend};
use mcdbr_mcdb::{McdbEngine, MonteCarloQuery};
use mcdbr_server::demo::{demo_catalog, demo_query};
use mcdbr_server::{QueryReply, Server, ServerClient, ServerConfig, ServerHandle};
use mcdbr_storage::{BufferPool, Catalog, PageCacheStats};

use crate::trace::{self, span, Tracer};
use crate::util::{fingerprint, median, metric, ms, quantile, Seeds, MIB};
use crate::{Args, Checks, Limit, Outcome};

/// Concurrent closed-loop clients, one per core of the reference box.
const CLIENTS: u64 = 2;
/// Scheduler pool width of the server.
const SERVER_WORKERS: usize = 2;
/// Repetitions per query: the repository's own server traffic (`loadgen`'s
/// default `--reps` and `benches/server.rs`, whose committed
/// `BENCH_server.json` holds the seed's 88 ms p50).
const REPS: usize = 64;
/// Set-ups per run; the median is reported.  One takes about 1.5 ms, most
/// of it thread and socket start-up, so many are needed for a steady
/// median.
const SETUPS: usize = 301;
/// One query in this many is cold.
const COLD_EVERY: u64 = 8;
/// Replies re-run locally for the bit-identity check, at most.
const MAX_VERIFIED: usize = 600;
/// Busy replies tolerated for one query before it counts as refused.
const MAX_BUSY: u32 = 100;

/// The `k`-th cold query: a plan no other query in the run uses.
fn cold_query(k: u64) -> MonteCarloQuery {
    let mut q = demo_query();
    q.plan = q.plan.filter(Expr::col("cid").gt(Expr::lit(-1 - k as i64)));
    q
}

/// Whether client `c`'s `j`-th query of pass `pass` is cold, and if so its
/// plan number, unique across the run.  The two clients' cold queries are
/// staggered by half a cycle.
fn cold_id(pass: u64, c: u64, j: u64) -> Option<u64> {
    ((j + c * COLD_EVERY / 2) % COLD_EVERY == COLD_EVERY - 1)
        .then_some((pass << 40) | (j * CLIENTS + c))
}

struct Setup {
    catalog: Catalog,
    handle: ServerHandle,
    clients: Vec<ServerClient>,
    skeleton_ns: u64,
    pages: PageCacheStats,
}

impl Setup {
    /// Catalog generation and sealing, server start, the hot plan's first
    /// skeleton build in the server's cache, and the clients' handshakes.
    fn new(seeds: &Seeds, tracer: Option<&Arc<Tracer>>) -> Result<Setup, String> {
        let pages_before = BufferPool::global().stats();
        let catalog =
            span(tracer, "setup.catalog", 0, demo_catalog).map_err(|e| format!("catalog: {e}"))?;
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: SERVER_WORKERS,
            max_inflight: 2 * SERVER_WORKERS,
            query_deadline: None,
        };
        let handle = span(tracer, "server.start", 0, || {
            Server::start(catalog.clone(), Arc::new(InProcessBackend::new()), config)
        })
        .map_err(|e| format!("server start: {e}"))?;
        // The clone shares the catalog's epoch, so this fills the server's
        // own cache entry for the hot plan.
        let t0 = Instant::now();
        span(tracer, "exec.skeleton", 0, || {
            handle
                .cache()
                .session(&demo_query().plan, &catalog, seeds.client(CLIENTS, 0))
        })
        .map_err(|e| format!("skeleton: {e}"))?;
        let skeleton_ns = t0.elapsed().as_nanos() as u64;
        let clients = span(tracer, "server.connect", 0, || {
            (0..CLIENTS)
                .map(|_| ServerClient::connect(handle.addr()))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("connect: {e}"))?;
        Ok(Setup {
            pages: BufferPool::global().stats().since(&pages_before),
            catalog,
            handle,
            clients,
            skeleton_ns,
        })
    }

    fn shutdown(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// One answered (or refused) query.
struct QueryRec {
    cold: Option<u64>,
    seed: u64,
    latency_ns: u64,
    exec_ns: u64,
    queue_wait_ns: u64,
    skeleton_hit: bool,
    /// Fingerprint of the reply's samples; `None` when refused.
    answer: Option<u64>,
}

#[derive(Default)]
struct ClientLog {
    queries: Vec<QueryRec>,
    attempts: u64,
    refusals: u64,
    wall_ns: u64,
    wire_bytes: u64,
}

fn client_loop(
    pass: u64,
    c: u64,
    client: &mut ServerClient,
    seeds: &Seeds,
    limit: Limit,
    start: Instant,
    tracer: Option<&Arc<Tracer>>,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let wire_before = client.wire_bytes_sent() + client.wire_bytes_received();
    let t_start = Instant::now();
    let mut j = 0u64;
    while !limit.done(j, start) {
        let cold = cold_id(pass, c, j);
        let query = cold.map_or_else(demo_query, cold_query);
        let seed = seeds.client(c, j);
        let qid = (c << 32) | j;
        let mut run = |span_id: Option<u64>| -> Result<QueryRec, String> {
            let t0 = Instant::now();
            let span_start = tracer.map_or(0, |t| t.now_ns());
            let mut busy = 0;
            loop {
                log.attempts += 1;
                match client
                    .query(&query, REPS, seed)
                    .map_err(|e| format!("client {c}: {e}"))?
                {
                    QueryReply::Ok { samples, stats } => {
                        if let (Some(t), Some(id)) = (tracer, span_id) {
                            t.reported_child(id, qid, "server.exec", span_start, stats.exec_ns);
                        }
                        return Ok(QueryRec {
                            cold,
                            seed,
                            latency_ns: t0.elapsed().as_nanos() as u64,
                            exec_ns: stats.exec_ns,
                            queue_wait_ns: stats.queue_wait_ns,
                            skeleton_hit: stats.skeleton_hit,
                            answer: samples.single().ok().map(fingerprint),
                        });
                    }
                    QueryReply::Rejected {
                        code: ReplyCode::Busy,
                        ..
                    } if busy < MAX_BUSY => {
                        // A refused attempt counts as failed; the retry's
                        // wait stays inside this query's latency.
                        log.refusals += 1;
                        busy += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    QueryReply::Rejected { .. } => {
                        log.refusals += 1;
                        return Ok(QueryRec {
                            cold,
                            seed,
                            latency_ns: t0.elapsed().as_nanos() as u64,
                            exec_ns: 0,
                            queue_wait_ns: 0,
                            skeleton_hit: false,
                            answer: None,
                        });
                    }
                }
            }
        };
        let rec = match tracer {
            Some(t) if t.enabled() => t.span_with_id("client.query", qid, |id| run(Some(id)))?,
            _ => run(None)?,
        };
        log.queries.push(rec);
        j += 1;
    }
    log.wall_ns = t_start.elapsed().as_nanos() as u64;
    log.wire_bytes = client.wire_bytes_sent() + client.wire_bytes_received() - wire_before;
    Ok(log)
}

struct Pass {
    logs: Vec<ClientLog>,
    wall_ns: u64,
    pages: PageCacheStats,
    bytes_materialized: u64,
    buffer_reuses: u64,
}

impl Pass {
    fn answered(&self) -> impl Iterator<Item = &QueryRec> {
        self.logs
            .iter()
            .flat_map(|l| l.queries.iter())
            .filter(|q| q.answer.is_some())
    }

    fn attempts(&self) -> u64 {
        self.logs.iter().map(|l| l.attempts).sum()
    }

    fn per_client_rounds(&self) -> u64 {
        self.logs
            .iter()
            .map(|l| l.queries.len() as u64)
            .min()
            .unwrap_or(0)
    }
}

fn run_pass(
    pass: u64,
    setup: &mut Setup,
    seeds: &Seeds,
    limit: Limit,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Pass, String> {
    let pages_before = BufferPool::global().stats();
    let pool = setup.handle.pool();
    let (bytes_before, reuses_before) = (pool.bytes_materialized(), pool.buffer_reuses());
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || client_loop(pass, c as u64, client, seeds, limit, start, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    let pool = setup.handle.pool();
    Ok(Pass {
        logs,
        wall_ns,
        pages: BufferPool::global().stats().since(&pages_before),
        bytes_materialized: pool.bytes_materialized() - bytes_before,
        buffer_reuses: pool.buffer_reuses() - reuses_before,
    })
}

/// Count every refused attempt (Busy, Timeout or any other refusal) as
/// failed, then re-run answered queries on a local in-process engine and
/// compare the samples bit for bit.  Every reply is checked up to
/// [`MAX_VERIFIED`]; beyond that an evenly spaced subset is.
fn check(setup: &Setup, pass: &Pass) -> Checks {
    let mut checks = Checks::default();
    let refusals: u64 = pass.logs.iter().map(|l| l.refusals).sum();
    if refusals > 0 {
        checks.failed += refusals;
        checks
            .degraded
            .push(format!("{refusals} query attempts refused"));
    }
    let answered: Vec<&QueryRec> = pass.answered().collect();
    let stride = answered.len().div_ceil(MAX_VERIFIED).max(1);
    let mut engine = McdbEngine::new().with_backend(Arc::new(InProcessBackend::new()));
    for q in answered.iter().step_by(stride) {
        let query = q.cold.map_or_else(demo_query, cold_query);
        let expect = engine
            .run_samples(&query, &setup.catalog, REPS, q.seed)
            .ok()
            .and_then(|s| s.single().ok().map(fingerprint));
        if expect != q.answer {
            checks.wrong(format!(
                "query, master seed {:#x}: reply differs from a local run_samples",
                q.seed
            ));
        }
    }
    checks
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seeds = Seeds::new(args.seed);
    let tracer = args.trace.then(Tracer::new);
    let mut setup_s = Vec::new();
    let mut skeleton_ms = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = setup.take() {
            old.shutdown();
        }
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
            run_pass(0, &mut setup, &seeds, args.limit, None)?,
            None,
            None,
        ),
        Some(t) => {
            // An untraced pass warms the server and fixes the query count;
            // the same queries (with fresh cold plans) then run traced and
            // untraced again.  The difference between those two is the
            // tracing overhead.
            t.set_enabled(false);
            let warm = run_pass(0, &mut setup, &seeds, args.limit.scaled(1.0 / 3.0), Some(t))?;
            let rounds = Limit::Rounds(warm.per_client_rounds());
            t.set_enabled(true);
            let pass = run_pass(1, &mut setup, &seeds, rounds, Some(t))?;
            t.set_enabled(false);
            let base = run_pass(2, &mut setup, &seeds, rounds, Some(t))?;
            (pass, Some(warm), Some(base))
        }
    };
    // Storage counters cover the last set-up and the measured pass.
    let pages_read = setup.pages.pages_read + pass.pages.pages_read;
    let pool_hits = setup.pages.pool_hits + pass.pages.pool_hits;
    let lat_ms: Vec<f64> = pass.answered().map(|q| ms(q.latency_ns)).collect();
    let answered = lat_ms.len() as f64;
    let wall_s = pass.wall_ns as f64 / 1e9;
    // The untraced passes of a traced run are checked and counted too, so
    // no figure comes from an unchecked operation.
    let mut checks = check(&setup, &pass);
    let mut attempted = pass.attempts();
    for other in warm.iter().chain(&base) {
        checks.merge(check(&setup, other));
        attempted += other.attempts();
    }
    let mut out = Outcome {
        attempted,
        checks,
        ..Outcome::default()
    };
    out.e2e = vec![
        metric("query_p50_ms", median(&lat_ms), "ms"),
        metric("naive_reps_per_s", answered * REPS as f64 / wall_s, "1/s"),
        metric("setup_s", median(&setup_s), "s"),
    ];
    out.report = vec![
        metric("query_p95_ms", quantile(&lat_ms, 0.95), "ms"),
        metric("qps", answered / wall_s, "1/s"),
        metric("peak_rss_mb", crate::util::peak_rss_mb(), "MiB"),
        metric("queries", answered, "count"),
        metric(
            "fail_ratio",
            out.checks.failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let hits = pass.answered().filter(|q| q.skeleton_hit).count() as u64;
    let wire: u64 = pass.logs.iter().map(|l| l.wire_bytes).sum();
    out.counters = vec![
        ("queries", answered as u64),
        ("skeleton_hits", hits),
        ("wire_bytes", wire),
        ("bytes_materialized", pass.bytes_materialized),
        ("pages_read", pages_read),
    ];

    if let (Some(t), Some(base)) = (&tracer, base) {
        let spans = t.take();
        let selfs = trace::self_times(&spans)?;
        let get = |name: &str| ms(selfs.get(name).copied().unwrap_or(0));
        let attributed: u64 = selfs.values().sum();
        // Each client's thread is one timeline; the split is over their sum.
        let client_wall: u64 = pass.logs.iter().map(|l| l.wall_ns).sum();
        let exec = |cold: bool| -> Vec<f64> {
            pass.answered()
                .filter(|q| q.cold.is_some() == cold)
                .map(|q| ms(q.exec_ns))
                .collect()
        };
        let pins = pages_read + pool_hits;
        out.layers = vec![
            metric("exec.skeleton_ms", median(&skeleton_ms), "ms"),
            metric("storage.pages_read", pages_read as f64, "count"),
            metric(
                "storage.pool_hit_ratio",
                pool_hits as f64 / pins.max(1) as f64,
                "ratio",
            ),
            metric(
                "exec.bytes_materialized_mib",
                pass.bytes_materialized as f64 / MIB,
                "MiB",
            ),
            metric("exec.buffer_reuses", pass.buffer_reuses as f64, "count"),
            metric("server.exec_cold_ms", median(&exec(true)), "ms"),
            metric("server.exec_hot_ms", median(&exec(false)), "ms"),
            metric("server.skeleton_hit_ratio", hits as f64 / answered, "ratio"),
            metric("server.exec_ms", get("server.exec"), "ms"),
            metric(
                "server.queue_wait_ms",
                ms(pass.answered().map(|q| q.queue_wait_ns).sum()),
                "ms",
            ),
            metric("server.outside_exec_ms", get("client.query"), "ms"),
            metric("server.wire_bytes_per_query", wire as f64 / answered, "B"),
            metric("server.queries", answered, "count"),
            metric("trace.wall_ms", ms(client_wall), "ms"),
            metric(
                "trace.unattributed_ms",
                ms(client_wall.saturating_sub(attributed)),
                "ms",
            ),
            metric(
                "trace.overhead_ms",
                median(&lat_ms)
                    - median(
                        &base
                            .answered()
                            .map(|q| ms(q.latency_ns))
                            .collect::<Vec<_>>(),
                    ),
                "ms",
            ),
        ];
        out.spans = setup_spans.into_iter().chain(spans).collect();
    }
    setup.shutdown();
    Ok(out)
}
