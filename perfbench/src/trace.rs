//! Spans recorded from outside the program, around calls into its public
//! entry points, plus the `ExecBackend` decorator that times the
//! backend's methods.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! query id it belongs to.  Spans stay in memory until the run ends.  A
//! span's self time is its duration minus the durations of its direct
//! children; the spans the benchmark opens never overlap their siblings
//! on one thread, so summing self times over every span of a pass gives
//! the summed root durations exactly.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcdbr_exec::aggregate::{AggregateSpec, QueryResultSamples};
use mcdbr_exec::{
    BlockBufferPool, BundleSet, DeterministicPrefix, ExecBackend, Expr, PlanNode, ShardStats,
};
use mcdbr_storage::{Catalog, Result};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub qid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The duration was reported by the program (a server's `exec_ns`),
    /// not timed here; the span is placed at its parent's start.
    pub reported: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost open span on this thread: `(span id, query id)`.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// The in-memory span store.  While disabled, spans cost one branch and
/// record nothing: a traced run times the same work both ways to report
/// the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Run `f` inside a span named `name`.  Its parent is the innermost
    /// open span on this thread; without one, the span is a root of query
    /// `qid`.
    pub fn span<T>(&self, name: &'static str, qid: u64, f: impl FnOnce() -> T) -> T {
        self.span_with_id(name, qid, |_| f())
    }

    /// [`Tracer::span`], handing `f` the new span's id so it can attach
    /// reported children.
    pub fn span_with_id<T>(&self, name: &'static str, qid: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled() {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.get());
        let (parent, qid) = match outer {
            Some((pid, pqid)) => (Some(pid), pqid),
            None => (None, qid),
        };
        CURRENT.with(|c| c.set(Some((id, qid))));
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(outer));
        self.push(Span {
            id,
            parent,
            qid,
            name,
            start_ns,
            end_ns,
            reported: false,
        });
        out
    }

    /// Attach a child of `parent` whose duration the program reported.
    pub fn reported_child(
        &self,
        parent: u64,
        qid: u64,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: Some(parent),
            qid,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            reported: true,
        });
    }

    /// Remove and return every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Write `spans` as one JSON object per line.
pub fn dump(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"qid\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"reported\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.qid,
            s.name,
            s.start_ns,
            s.end_ns,
            s.reported
        )?;
    }
    out.flush()
}

/// [`Tracer::span`] when tracing, else just `f()`.
pub fn span<T>(
    tracer: Option<&Arc<Tracer>>,
    name: &'static str,
    qid: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, qid, f),
        None => f(),
    }
}

/// Self time per span name over `spans`, in nanoseconds.  Errors when a
/// span's children outlast it, which would make the split meaningless.
pub fn self_times(spans: &[Span]) -> std::result::Result<BTreeMap<&'static str, u64>, String> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        let own = s.dur_ns().checked_sub(children).ok_or_else(|| {
            format!(
                "span {} ({}) lasted {} ns but its children {} ns",
                s.id,
                s.name,
                s.dur_ns(),
                children
            )
        })?;
        *out.entry(s.name).or_default() += own;
    }
    Ok(out)
}

/// Count of the spans named `name`.
pub fn count(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// An [`ExecBackend`] decorator: times `instantiate_block`, `aggregate`
/// and `prepare_dispatch` as spans of the calling thread, counts the
/// values each block materializes, and forwards everything to `inner`.
///
/// The instantiate/prepare spans belong to the `exec` layer for an
/// in-process inner and to `dispatch` for the process backend, whose
/// blocks are made by worker processes.  Aggregation always runs in this
/// process, so its span is `exec.aggregate` either way.
///
/// The server is not decorated: its per-query backend runs in-process
/// shard tasks itself and never calls its inner backend's
/// `instantiate_block`, so a decorator there would time nothing.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Arc<dyn ExecBackend>,
    tracer: Arc<Tracer>,
    instantiate: &'static str,
    prepare: &'static str,
    values: AtomicU64,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn ExecBackend>, tracer: Arc<Tracer>, dispatch: bool) -> Self {
        let (instantiate, prepare) = if dispatch {
            ("dispatch.instantiate", "dispatch.prepare")
        } else {
            ("exec.instantiate", "exec.prepare")
        };
        TracedBackend {
            inner,
            tracer,
            instantiate,
            prepare,
            values: AtomicU64::new(0),
        }
    }

    /// Stream values materialized through this backend so far: active
    /// streams times block length, summed over blocks.
    pub fn values_materialized(&self) -> u64 {
        self.values.load(Ordering::Relaxed)
    }
}

impl ExecBackend for TracedBackend {
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
    ) -> Result<BundleSet> {
        self.values.fetch_add(
            (prefix.num_active_streams() * num_values) as u64,
            Ordering::Relaxed,
        );
        self.tracer.span(self.instantiate, 0, || {
            self.inner
                .instantiate_block(prefix, pool, threads, base_pos, num_values)
        })
    }

    fn aggregate(
        &self,
        set: &BundleSet,
        agg: &AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&Expr>,
        threads: usize,
    ) -> Result<QueryResultSamples> {
        self.tracer.span("exec.aggregate", 0, || {
            self.inner
                .aggregate(set, agg, group_by, final_predicate, threads)
        })
    }

    fn shard_stats(&self) -> ShardStats {
        self.inner.shard_stats()
    }

    fn prepare_dispatch(
        &self,
        plan: &PlanNode,
        catalog: &Catalog,
        prefix: &DeterministicPrefix,
    ) -> Result<()> {
        self.tracer.span(self.prepare, 0, || {
            self.inner.prepare_dispatch(plan, catalog, prefix)
        })
    }
}
