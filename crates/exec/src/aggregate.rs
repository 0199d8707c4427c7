//! Per-repetition aggregation over a [`BundleSet`].
//!
//! An MCDB query result is not a single number but one number per generated
//! DB instance (paper §1).  This module evaluates an aggregation query over a
//! bundle set once per Monte Carlo repetition, producing the vector of
//! query-result samples that the `mcdbr-mcdb` result-distribution machinery
//! (and, at smaller granularity, the Gibbs Looper) consumes.
//!
//! Grouping follows paper Appendix A footnote 4: "Grouping is handled by, in
//! effect, treating a GROUP BY query over g groups as g separate,
//! simultaneous queries" — group keys must therefore be deterministic
//! (constant) attributes.

use std::ops::Range;

use mcdbr_storage::{Error, Mask, Result, Schema, SelVec, Value};

use crate::bundle::{BundleSet, BundleValue};
use crate::expr::Expr;
use crate::kernels::{self, Lane, NumVals};
use crate::par;

/// Aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the aggregand (0.0 over an empty group instance).
    Sum,
    /// Count of contributing tuples.
    Count,
    /// Average of the aggregand (NaN over an empty group instance).
    Avg,
    /// Minimum of the aggregand (NaN over an empty group instance).
    Min,
    /// Maximum of the aggregand (NaN over an empty group instance).
    Max,
}

/// An aggregate to compute: `func(expr) AS alias`.
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregand, e.g. `val` or `sal2 - sal1`.
    pub expr: Expr,
    /// Output name, e.g. `totalLoss`.
    pub alias: String,
}

impl AggregateSpec {
    /// `SUM(expr) AS alias`
    pub fn sum(expr: Expr, alias: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggFunc::Sum,
            expr,
            alias: alias.into(),
        }
    }

    /// `COUNT(*) AS alias`
    pub fn count(alias: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggFunc::Count,
            expr: Expr::lit(1i64),
            alias: alias.into(),
        }
    }

    /// `AVG(expr) AS alias`
    pub fn avg(expr: Expr, alias: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggFunc::Avg,
            expr,
            alias: alias.into(),
        }
    }

    /// `MIN(expr) AS alias`
    pub fn min(expr: Expr, alias: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggFunc::Min,
            expr,
            alias: alias.into(),
        }
    }

    /// `MAX(expr) AS alias`
    pub fn max(expr: Expr, alias: impl Into<String>) -> Self {
        AggregateSpec {
            func: AggFunc::Max,
            expr,
            alias: alias.into(),
        }
    }
}

/// Query-result samples: for each group, one aggregate value per repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResultSamples {
    /// Names of the grouping columns (empty for an ungrouped query).
    pub group_columns: Vec<String>,
    /// `(group key, per-repetition aggregate values)` pairs, in first-seen
    /// group order.  Ungrouped queries have exactly one entry with an empty
    /// key.
    pub groups: Vec<(Vec<Value>, Vec<f64>)>,
}

impl QueryResultSamples {
    /// The per-repetition samples of an ungrouped query.
    pub fn single(&self) -> Result<&[f64]> {
        if self.groups.len() == 1 {
            Ok(&self.groups[0].1)
        } else {
            Err(Error::InvalidOperation(format!(
                "expected a single group, found {}",
                self.groups.len()
            )))
        }
    }

    /// The samples for a specific group key.
    pub fn group(&self, key: &[Value]) -> Option<&[f64]> {
        self.groups
            .iter()
            .find(|(k, _)| k.len() == key.len() && k.iter().zip(key).all(|(a, b)| a.sql_eq(b)))
            .map(|(_, v)| v.as_slice())
    }
}

/// Evaluate `agg` over `set`, once per repetition.
///
/// `final_predicate` is an optional extra selection applied per repetition
/// before a tuple contributes to the aggregate — this mirrors the selection
/// predicate that MCDB-R pulls up into the GibbsLooper (paper Appendix A,
/// input 3), and lets the naive-MCDB baseline execute exactly the same query
/// specification.
pub fn evaluate_aggregate(
    set: &BundleSet,
    agg: &AggregateSpec,
    group_by: &[String],
    final_predicate: Option<&Expr>,
) -> Result<QueryResultSamples> {
    evaluate_aggregate_threads(set, agg, group_by, final_predicate, par::default_threads())
}

/// [`evaluate_aggregate`] with an explicit worker-thread count.  The
/// repetitions split into at most `threads` balanced contiguous ranges;
/// within a repetition bundles are folded in set order, so the result is
/// bit-identical for every thread count.
pub fn evaluate_aggregate_threads(
    set: &BundleSet,
    agg: &AggregateSpec,
    group_by: &[String],
    final_predicate: Option<&Expr>,
    threads: usize,
) -> Result<QueryResultSamples> {
    evaluate_aggregate_partials(set, agg, group_by, final_predicate, threads, threads)
        .map(|(samples, _)| samples)
}

/// The sharded-partials variant behind
/// [`crate::shard::ShardedBackend::aggregate`]: repetitions are partitioned
/// into at most `shards` contiguous ranges, each range becomes one aggregate
/// partial (computed concurrently, up to `threads` at a time), and partials
/// are finished back in repetition order.
///
/// Shards partition **repetitions**, not bundles, because the accumulation
/// order over bundles *within* a repetition is the floating-point
/// bit-identity contract: a repetition's fold must happen wholly inside one
/// shard.  Since every repetition is computed by exactly one partial, the
/// result is bit-identical to [`evaluate_aggregate_threads`] for every
/// shard count.  Partials finish straight into the per-group sample
/// vectors, exactly as the unsharded path does, so there is no separate
/// merge step to account.
///
/// Returns `(samples, partials spawned)`.
pub(crate) fn evaluate_aggregate_partials(
    set: &BundleSet,
    agg: &AggregateSpec,
    group_by: &[String],
    final_predicate: Option<&Expr>,
    shards: usize,
    threads: usize,
) -> Result<(QueryResultSamples, usize)> {
    let plan = AggPlan::new(set, agg, group_by, final_predicate)?;
    let partials = plan.partials(shards, threads)?;
    let spawned = partials.len();
    Ok((plan.layout.finish(&partials, group_by), spawned))
}

/// One contiguous repetition range's accumulators, produced by
/// [`aggregate_rep_range`] and merged by [`merge_rep_partials`] — the unit
/// an *external* scheduler (e.g. `mcdbr-server`'s fair scheduler, which
/// interleaves work from concurrent queries) fans aggregation out by, and
/// the unit every internal path accumulates in.  Opaque: the lane layout
/// is this module's private contract.
#[derive(Debug)]
pub struct AggPartial {
    lo: usize,
    len: usize,
    lanes: Lanes,
}

impl AggPartial {
    /// First repetition of the range this partial covers.
    pub fn start(&self) -> usize {
        self.lo
    }

    /// Number of repetitions this partial covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Aggregate the contiguous repetition range `lo..hi` of `set` into one
/// [`AggPartial`].
///
/// The group layout is discovered over the **full** set (first-seen bundle
/// order), never over the range, so layout — and with it every group index
/// — is identical across ranges: any decomposition of `0..num_reps` into
/// contiguous ranges, merged back in order by [`merge_rep_partials`], is
/// bit-identical to [`evaluate_aggregate_threads`].  `hi` is clamped to the
/// set's repetition count, `lo` to `hi`.
pub fn aggregate_rep_range(
    set: &BundleSet,
    agg: &AggregateSpec,
    group_by: &[String],
    final_predicate: Option<&Expr>,
    lo: usize,
    hi: usize,
) -> Result<AggPartial> {
    let hi = hi.min(set.num_reps);
    AggPlan::new(set, agg, group_by, final_predicate)?.range(lo.min(hi), hi)
}

/// Merge rep-range partials back into the per-group sample matrix.  The
/// partials must exactly tile `0..set.num_reps` (any order — they are
/// sorted by range start here) and must have been computed for `agg` over
/// `set`'s group layout; gaps, overlaps, missing repetitions or mismatched
/// partials are an error rather than a silently wrong result.
pub fn merge_rep_partials(
    set: &BundleSet,
    agg: &AggregateSpec,
    group_by: &[String],
    mut partials: Vec<AggPartial>,
) -> Result<QueryResultSamples> {
    let layout = GroupLayout::discover(set, group_by)?;
    // Empty ranges sort ahead of the range they share a start with.
    partials.sort_by_key(|p| (p.lo, p.len));
    let mut next = 0usize;
    for partial in &partials {
        if partial.lo != next {
            return Err(Error::Invalid(format!(
                "aggregate partials do not tile the repetitions: expected start {next}, got {}",
                partial.lo
            )));
        }
        if partial.lanes.func() != agg.func
            || partial.lanes.slots() != layout.keys.len() * partial.len
        {
            return Err(Error::Invalid(
                "aggregate partial was computed for a different aggregate or group layout".into(),
            ));
        }
        next += partial.len;
    }
    if next != set.num_reps {
        return Err(Error::Invalid(format!(
            "aggregate partials cover {next} of {} repetitions",
            set.num_reps
        )));
    }
    Ok(layout.finish(&partials, group_by))
}

/// The group structure of a bundle set: every distinct key in first-seen
/// order plus each bundle's group assignment.  Every path discovers it over
/// the full set, so all of them resolve groups identically.
struct GroupLayout {
    keys: Vec<Vec<Value>>,
    key_of_bundle: Vec<usize>,
}

impl GroupLayout {
    fn discover(set: &BundleSet, group_by: &[String]) -> Result<GroupLayout> {
        let schema = &set.schema;
        let group_idx: Vec<usize> = group_by
            .iter()
            .map(|g| schema.index_of(g))
            .collect::<Result<_>>()?;

        // Group keys must be deterministic.
        for bundle in &set.bundles {
            for &gi in &group_idx {
                if !bundle.values[gi].is_const() {
                    return Err(Error::InvalidOperation(format!(
                        "group-by column {} is a random attribute; grouping keys must be \
                         deterministic (paper App. A, fn. 4)",
                        schema.field(gi).name
                    )));
                }
            }
        }

        // Discover groups in first-seen order.
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut key_of_bundle: Vec<usize> = Vec::with_capacity(set.bundles.len());
        for bundle in &set.bundles {
            let key: Vec<Value> = group_idx
                .iter()
                .map(|&gi| bundle.values[gi].value_at(0).clone())
                .collect();
            let pos = keys
                .iter()
                .position(|k| k.len() == key.len() && k.iter().zip(&key).all(|(a, b)| a.sql_eq(b)));
            let idx = match pos {
                Some(i) => i,
                None => {
                    keys.push(key.clone());
                    keys.len() - 1
                }
            };
            key_of_bundle.push(idx);
        }
        if keys.is_empty() {
            // No bundles at all: an ungrouped query still has one (empty) group.
            if group_idx.is_empty() {
                keys.push(Vec::new());
            }
        }
        Ok(GroupLayout {
            keys,
            key_of_bundle,
        })
    }

    /// Finish `partials` (in repetition order) into one sample vector per
    /// group: each group's result is its lane from every partial, in turn.
    fn finish(self, partials: &[AggPartial], group_by: &[String]) -> QueryResultSamples {
        let reps: usize = partials.iter().map(|p| p.len).sum();
        let groups = self
            .keys
            .into_iter()
            .enumerate()
            .map(|(gidx, key)| {
                let mut samples = Vec::with_capacity(reps);
                for p in partials {
                    p.lanes
                        .finish_into(gidx * p.len..(gidx + 1) * p.len, &mut samples);
                }
                (key, samples)
            })
            .collect();
        QueryResultSamples {
            group_columns: group_by.to_vec(),
            groups,
        }
    }
}

/// Column-major accumulator lanes for one contiguous range of `len`
/// repetitions: group `g` owns slots `g * len..(g + 1) * len`, one per
/// repetition, so a bundle's contribution to a range is one pass over one
/// contiguous lane.  Each function keeps only the state its result needs.
#[derive(Debug)]
enum Lanes {
    /// Running sums.
    Sum(Vec<f64>),
    /// Contributing tuples.
    Count(Vec<u64>),
    /// `(contributing tuples, running sum)`.
    Avg(Vec<(u64, f64)>),
    /// `(contributing tuples, running minimum)`.
    Min(Vec<(u64, f64)>),
    /// `(contributing tuples, running maximum)`.
    Max(Vec<(u64, f64)>),
}

impl Lanes {
    fn zeroed(func: AggFunc, slots: usize) -> Lanes {
        match func {
            AggFunc::Sum => Lanes::Sum(vec![0.0; slots]),
            AggFunc::Count => Lanes::Count(vec![0; slots]),
            AggFunc::Avg => Lanes::Avg(vec![(0, 0.0); slots]),
            AggFunc::Min => Lanes::Min(vec![(0, 0.0); slots]),
            AggFunc::Max => Lanes::Max(vec![(0, 0.0); slots]),
        }
    }

    fn func(&self) -> AggFunc {
        match self {
            Lanes::Sum(_) => AggFunc::Sum,
            Lanes::Count(_) => AggFunc::Count,
            Lanes::Avg(_) => AggFunc::Avg,
            Lanes::Min(_) => AggFunc::Min,
            Lanes::Max(_) => AggFunc::Max,
        }
    }

    fn slots(&self) -> usize {
        match self {
            Lanes::Sum(v) => v.len(),
            Lanes::Count(v) => v.len(),
            Lanes::Avg(v) | Lanes::Min(v) | Lanes::Max(v) => v.len(),
        }
    }

    /// Store the scalar referee's accumulator for one `(repetition, group)`.
    fn store(&mut self, slot: usize, acc: &Accum) {
        match self {
            Lanes::Sum(v) => v[slot] = acc.sum,
            Lanes::Count(v) => v[slot] = acc.count,
            Lanes::Avg(v) => v[slot] = (acc.count, acc.sum),
            Lanes::Min(v) => v[slot] = (acc.count, acc.min),
            Lanes::Max(v) => v[slot] = (acc.count, acc.max),
        }
    }

    /// Append the finished values of `slots`, with [`Accum::finish`]'s
    /// empty-instance conventions.
    fn finish_into(&self, slots: Range<usize>, out: &mut Vec<f64>) {
        match self {
            Lanes::Sum(v) => out.extend_from_slice(&v[slots]),
            Lanes::Count(v) => out.extend(v[slots].iter().map(|&c| c as f64)),
            Lanes::Avg(v) => out.extend(v[slots].iter().map(|&(count, sum)| {
                if count == 0 {
                    f64::NAN
                } else {
                    sum / count as f64
                }
            })),
            Lanes::Min(v) | Lanes::Max(v) => out.extend(v[slots].iter().map(
                |&(count, extreme)| {
                    if count == 0 {
                        f64::NAN
                    } else {
                        extreme
                    }
                },
            )),
        }
    }
}

/// One aggregate over one bundle set, ready to accumulate any repetition
/// range: the group layout, plus — when every bundle is in the vectorized
/// subset — one compiled column per bundle.  Compilation declines (the
/// whole set takes the scalar [`accumulate_rep`] loop) whenever any bundle
/// leaves that subset (multi-segment chain, non-compilable expression,
/// [`kernels::KernelMode::ForceScalar`]), so the columnar path is
/// bit-identical to the scalar loop wherever it engages.
struct AggPlan<'a> {
    set: &'a BundleSet,
    agg: &'a AggregateSpec,
    final_predicate: Option<&'a Expr>,
    layout: GroupLayout,
    columns: Option<Vec<PlanBundle<'a>>>,
}

/// A bundle's aggregand across every repetition, plus the repetitions that
/// contribute (presence ∧ final predicate).  `sel == None` means all of
/// them — no presence flags and no final predicate, or a mask that kept
/// everything — so no selection vector is built and the bundle folds
/// into its lane as one dense pass.
struct PlanBundle<'a> {
    gidx: usize,
    vals: NumVals<'a>,
    sel: Option<SelVec>,
}

impl<'a> AggPlan<'a> {
    fn new(
        set: &'a BundleSet,
        agg: &'a AggregateSpec,
        group_by: &[String],
        final_predicate: Option<&'a Expr>,
    ) -> Result<AggPlan<'a>> {
        let layout = GroupLayout::discover(set, group_by)?;
        let columns = compile_columns(set, &layout, agg, final_predicate);
        Ok(AggPlan {
            set,
            agg,
            final_predicate,
            layout,
            columns,
        })
    }

    /// Every repetition, as at most `parts` balanced contiguous ranges
    /// (computed up to `threads` at a time), in repetition order.
    fn partials(&self, parts: usize, threads: usize) -> Result<Vec<AggPartial>> {
        let mut ranges: Vec<Range<usize>> = Vec::new();
        let mut lo = 0usize;
        for len in mcdbr_prng::balanced_chunks(self.set.num_reps, parts.max(1)) {
            ranges.push(lo..lo + len);
            lo += len;
        }
        par::try_par_map_threads(&ranges, threads, |r| self.range(r.start, r.end))
    }

    /// Accumulate the repetition range `lo..hi`.
    fn range(&self, lo: usize, hi: usize) -> Result<AggPartial> {
        let len = hi - lo;
        let slots = self.layout.keys.len() * len;
        let lanes = match &self.columns {
            Some(columns) => accumulate_range(columns, self.agg.func, slots, lo, hi),
            None => {
                let mut lanes = Lanes::zeroed(self.agg.func, slots);
                for rep in lo..hi {
                    let accs = accumulate_rep(
                        self.set,
                        &self.layout,
                        self.agg,
                        self.final_predicate,
                        rep,
                    )?;
                    for (gidx, acc) in accs.iter().enumerate() {
                        lanes.store(gidx * len + rep - lo, acc);
                    }
                }
                lanes
            }
        };
        Ok(AggPartial { lo, len, lanes })
    }
}

fn compile_columns<'a>(
    set: &'a BundleSet,
    layout: &GroupLayout,
    agg: &AggregateSpec,
    final_predicate: Option<&Expr>,
) -> Option<Vec<PlanBundle<'a>>> {
    if !kernels::vectorized_enabled() {
        return None;
    }
    let schema = &set.schema;
    let n = set.num_reps;
    let mut columns = Vec::with_capacity(set.bundles.len());
    // One scratch lane row serves every bundle.
    let mut lanes: Vec<Lane<'a>> = Vec::with_capacity(schema.len());
    for (bundle, &gidx) in set.bundles.iter().zip(&layout.key_of_bundle) {
        // Every attribute must be a broadcast constant or expose a single
        // contiguous column segment of exactly `n` repetitions to become an
        // expression lane (replenished chains are longer and multi-segment;
        // the scalar loop handles those).
        lanes.clear();
        for v in &bundle.values {
            lanes.push(match v {
                BundleValue::Const(c) => Lane::Const(c),
                chained => {
                    let seg = chained.chain()?.as_single()?;
                    if seg.len() != n {
                        return None;
                    }
                    Lane::Col(seg)
                }
            });
        }
        let vals = kernels::numeric_values(&agg.expr, schema, &lanes, n)?;
        let sel = if bundle.is_pres.is_none() && final_predicate.is_none() {
            None
        } else {
            let mut keep = match &bundle.is_pres {
                None => Mask::ones(n),
                Some(flags) => {
                    // Out-of-range repetitions count as absent, matching
                    // `TupleBundle::is_present`.
                    let mut m = Mask::zeros(n);
                    for (i, &f) in flags.iter().take(n).enumerate() {
                        if f {
                            m.set(i, true);
                        }
                    }
                    m
                }
            };
            if let Some(pred) = final_predicate {
                keep.and_assign(&kernels::predicate_mask(pred, schema, &lanes, n)?);
            }
            (!keep.all()).then(|| SelVec::from_mask(&keep))
        };
        columns.push(PlanBundle { gidx, vals, sel });
    }
    Some(columns)
}

/// Accumulate the contiguous repetition range `lo..hi` column-at-a-time
/// into `slots` fresh lane slots.  The function is matched once, outside
/// every loop; each arm folds the bundles in set order with its own
/// per-value step.  Per `(repetition, group)` slot the steps arrive in
/// exactly the scalar path's bundle order over exactly the same `f64`s,
/// starting from the same zero state and applying [`Accum::add`]'s
/// arithmetic, so the result is bit-identical to [`accumulate_rep`].
fn accumulate_range(
    columns: &[PlanBundle<'_>],
    func: AggFunc,
    slots: usize,
    lo: usize,
    hi: usize,
) -> Lanes {
    let mut lanes = Lanes::zeroed(func, slots);
    match &mut lanes {
        Lanes::Sum(v) => fold_columns(columns, lo, hi, v, |s, x| *s += x),
        Lanes::Count(v) => fold_columns(columns, lo, hi, v, |c, _| *c += 1),
        Lanes::Avg(v) => fold_columns(columns, lo, hi, v, |(c, s), x| {
            *c += 1;
            *s += x;
        }),
        Lanes::Min(v) => fold_columns(columns, lo, hi, v, |(c, m), x| {
            *m = if *c == 0 { x } else { m.min(x) };
            *c += 1;
        }),
        Lanes::Max(v) => fold_columns(columns, lo, hi, v, |(c, m), x| {
            *m = if *c == 0 { x } else { m.max(x) };
            *c += 1;
        }),
    }
    lanes
}

/// Fold every bundle's repetitions `lo..hi` into its group's lane with
/// `step`.  A dense bundle (no selection) is one zipped pass —
/// `lane[i] ⊕= v[lo + i]` — that the compiler vectorizes for `SUM`; a
/// selected bundle visits its `SelVec` slice for the range.
fn fold_columns<T>(
    columns: &[PlanBundle<'_>],
    lo: usize,
    hi: usize,
    lanes: &mut [T],
    step: impl Fn(&mut T, f64),
) {
    let len = hi - lo;
    for b in columns {
        let lane = &mut lanes[b.gidx * len..(b.gidx + 1) * len];
        match (&b.sel, &b.vals) {
            (None, NumVals::Col(v)) => {
                for (slot, &x) in lane.iter_mut().zip(&v[lo..hi]) {
                    step(slot, x);
                }
            }
            (None, &NumVals::Const(c)) => {
                for slot in lane {
                    step(slot, c);
                }
            }
            (Some(sel), NumVals::Col(v)) => {
                for &rep in sel.slice_in_range(lo, hi) {
                    step(&mut lane[rep as usize - lo], v[rep as usize]);
                }
            }
            (Some(sel), &NumVals::Const(c)) => {
                for &rep in sel.slice_in_range(lo, hi) {
                    step(&mut lane[rep as usize - lo], c);
                }
            }
        }
    }
}

/// Accumulate one repetition's aggregates over every group, visiting bundles
/// in set order — the scalar referee the columnar path must match.
fn accumulate_rep(
    set: &BundleSet,
    layout: &GroupLayout,
    agg: &AggregateSpec,
    final_predicate: Option<&Expr>,
    rep: usize,
) -> Result<Vec<Accum>> {
    let schema = &set.schema;
    let mut accs = vec![Accum::default(); layout.keys.len()];
    // One scratch row serves every bundle of this repetition: the bundle
    // columns are read in place and cloned into the buffer (scalar copies /
    // string refcount bumps), never into a fresh per-bundle Vec.
    let mut row: Vec<Value> = Vec::with_capacity(schema.len());
    for (bundle, &gidx) in set.bundles.iter().zip(&layout.key_of_bundle) {
        if !bundle.is_present(rep) {
            continue;
        }
        bundle.write_row_into(rep, &mut row);
        if let Some(pred) = final_predicate {
            if !pred.eval_bool(schema, &row)? {
                continue;
            }
        }
        accs[gidx].add(agg.expr.eval_f64(schema, &row)?);
    }
    Ok(accs)
}

/// Evaluate the aggregate for one repetition over explicit rows — used by the
/// naive (non-bundled) engine in `mcdbr-mcdb` so that both engines share
/// exactly the same aggregation semantics.
pub fn aggregate_rows(
    schema: &Schema,
    rows: &[Vec<Value>],
    agg: &AggregateSpec,
    final_predicate: Option<&Expr>,
) -> Result<f64> {
    let mut acc = Accum::default();
    for row in rows {
        if let Some(pred) = final_predicate {
            if !pred.eval_bool(schema, row)? {
                continue;
            }
        }
        acc.add(agg.expr.eval_f64(schema, row)?);
    }
    Ok(acc.finish(agg.func))
}

/// Streaming accumulator shared by every aggregate function.
#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Accum {
    fn add(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
    }

    fn finish(self, func: AggFunc) -> f64 {
        match func {
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as f64,
            AggFunc::Avg => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum / self.count as f64
                }
            }
            AggFunc::Min => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.min
                }
            }
            AggFunc::Max => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.max
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{BundleValue, TupleBundle};
    use crate::stream_registry::StreamRegistry;
    use mcdbr_storage::{Field, Schema};

    /// Build a small bundle set by hand: three "customers" with known
    /// per-repetition losses and a deterministic region.
    fn test_set() -> BundleSet {
        let schema = Schema::new(vec![Field::utf8("region"), Field::float64("loss")]);
        let mk = |region: &str, seed: u64, vals: Vec<f64>| TupleBundle {
            values: vec![
                BundleValue::Const(Value::str(region)),
                BundleValue::Random {
                    seed,
                    vg_row: 0,
                    vg_col: 0,
                    base_pos: 0,
                    values: crate::bundle::ValueChain::from_f64s(vals),
                },
            ],
            is_pres: None,
        };
        BundleSet {
            schema,
            bundles: vec![
                mk("EU", 1, vec![1.0, 2.0, 3.0]),
                mk("EU", 2, vec![10.0, 20.0, 30.0]),
                mk("US", 3, vec![100.0, 200.0, 300.0]),
            ],
            registry: StreamRegistry::new(),
            num_reps: 3,
        }
    }

    #[test]
    fn ungrouped_sum_per_repetition() {
        let set = test_set();
        let agg = AggregateSpec::sum(Expr::col("loss"), "totalLoss");
        let res = evaluate_aggregate(&set, &agg, &[], None).unwrap();
        assert_eq!(res.single().unwrap(), &[111.0, 222.0, 333.0]);
    }

    #[test]
    fn grouped_aggregates() {
        let set = test_set();
        let agg = AggregateSpec::sum(Expr::col("loss"), "totalLoss");
        let res = evaluate_aggregate(&set, &agg, &["region".to_string()], None).unwrap();
        assert_eq!(res.groups.len(), 2);
        assert_eq!(res.group(&[Value::str("EU")]).unwrap(), &[11.0, 22.0, 33.0]);
        assert_eq!(
            res.group(&[Value::str("US")]).unwrap(),
            &[100.0, 200.0, 300.0]
        );
        assert!(res.group(&[Value::str("APAC")]).is_none());
        assert!(res.single().is_err());
    }

    #[test]
    fn count_avg_min_max() {
        let set = test_set();
        let count = evaluate_aggregate(&set, &AggregateSpec::count("n"), &[], None).unwrap();
        assert_eq!(count.single().unwrap(), &[3.0, 3.0, 3.0]);
        let avg = evaluate_aggregate(&set, &AggregateSpec::avg(Expr::col("loss"), "a"), &[], None)
            .unwrap();
        assert_eq!(avg.single().unwrap(), &[37.0, 74.0, 111.0]);
        let min = evaluate_aggregate(&set, &AggregateSpec::min(Expr::col("loss"), "m"), &[], None)
            .unwrap();
        assert_eq!(min.single().unwrap(), &[1.0, 2.0, 3.0]);
        let max = evaluate_aggregate(&set, &AggregateSpec::max(Expr::col("loss"), "M"), &[], None)
            .unwrap();
        assert_eq!(max.single().unwrap(), &[100.0, 200.0, 300.0]);
    }

    #[test]
    fn final_predicate_restricts_contributions() {
        let set = test_set();
        let agg = AggregateSpec::sum(Expr::col("loss"), "totalLoss");
        let pred = Expr::col("loss").gt_eq(Expr::lit(10.0));
        let res = evaluate_aggregate(&set, &agg, &[], Some(&pred)).unwrap();
        assert_eq!(res.single().unwrap(), &[110.0, 220.0, 330.0]);
    }

    #[test]
    fn presence_masks_exclude_tuples() {
        let mut set = test_set();
        set.bundles[2].restrict_presence(&[true, false, true]);
        let agg = AggregateSpec::sum(Expr::col("loss"), "totalLoss");
        let res = evaluate_aggregate(&set, &agg, &[], None).unwrap();
        assert_eq!(res.single().unwrap(), &[111.0, 22.0, 333.0]);
    }

    #[test]
    fn empty_instances_follow_sql_conventions() {
        let mut set = test_set();
        for b in &mut set.bundles {
            b.restrict_presence(&[false, true, true]);
        }
        let sum = evaluate_aggregate(&set, &AggregateSpec::sum(Expr::col("loss"), "s"), &[], None)
            .unwrap();
        assert_eq!(sum.single().unwrap()[0], 0.0);
        let avg = evaluate_aggregate(&set, &AggregateSpec::avg(Expr::col("loss"), "a"), &[], None)
            .unwrap();
        assert!(avg.single().unwrap()[0].is_nan());
        let count = evaluate_aggregate(&set, &AggregateSpec::count("n"), &[], None).unwrap();
        assert_eq!(count.single().unwrap()[0], 0.0);
    }

    #[test]
    fn grouping_on_random_attribute_is_rejected() {
        let set = test_set();
        let agg = AggregateSpec::sum(Expr::col("loss"), "s");
        assert!(evaluate_aggregate(&set, &agg, &["loss".to_string()], None).is_err());
        assert!(evaluate_aggregate(&set, &agg, &["missing".to_string()], None).is_err());
    }

    #[test]
    fn expression_aggregands() {
        // SUM(2*loss + 1) — exercised because the salary-inversion query
        // aggregates an expression over two attributes.
        let set = test_set();
        let agg = AggregateSpec::sum(
            Expr::col("loss").mul(Expr::lit(2.0)).add(Expr::lit(1.0)),
            "s",
        );
        let res = evaluate_aggregate(&set, &agg, &[], None).unwrap();
        assert_eq!(res.single().unwrap(), &[225.0, 447.0, 669.0]);
    }

    #[test]
    fn sharded_partials_are_bit_identical_for_every_shard_count() {
        let set = test_set();
        let group = vec!["region".to_string()];
        for agg in [
            AggregateSpec::sum(Expr::col("loss"), "s"),
            AggregateSpec::avg(Expr::col("loss"), "a"),
            AggregateSpec::min(Expr::col("loss"), "m"),
        ] {
            let reference = evaluate_aggregate_threads(&set, &agg, &group, None, 1).unwrap();
            for shards in [1usize, 2, 3, 7] {
                let (sharded, spawned) =
                    evaluate_aggregate_partials(&set, &agg, &group, None, shards, 2).unwrap();
                // 3 repetitions: never more partials than repetitions.
                assert_eq!(spawned, shards.min(3));
                assert_eq!(reference.group_columns, sharded.group_columns);
                for ((ka, va), (kb, vb)) in reference.groups.iter().zip(&sharded.groups) {
                    assert_eq!(ka, kb);
                    assert!(va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits()));
                }
            }
        }
    }

    #[test]
    fn sharded_partials_handle_empty_repetitions() {
        let mut set = test_set();
        set.num_reps = 0;
        for b in &mut set.bundles {
            if let BundleValue::Random { values, .. } = &mut b.values[1] {
                *values = crate::bundle::ValueChain::new();
            }
        }
        let agg = AggregateSpec::sum(Expr::col("loss"), "s");
        let (res, spawned) = evaluate_aggregate_partials(&set, &agg, &[], None, 4, 2).unwrap();
        assert_eq!(spawned, 0);
        assert_eq!(res.single().unwrap(), &[] as &[f64]);
    }

    #[test]
    fn aggregate_rows_matches_bundle_path() {
        let set = test_set();
        let agg = AggregateSpec::sum(Expr::col("loss"), "s");
        // Repetition 1 materialized as plain rows.
        let rows: Vec<Vec<Value>> = set.bundles.iter().map(|b| b.row_at(1)).collect();
        let direct = aggregate_rows(&set.schema, &rows, &agg, None).unwrap();
        let bundled = evaluate_aggregate(&set, &agg, &[], None).unwrap();
        assert_eq!(direct, bundled.single().unwrap()[1]);
    }

    #[test]
    fn empty_bundle_set_gives_single_empty_group() {
        let set = BundleSet {
            schema: Schema::new(vec![Field::float64("x")]),
            bundles: vec![],
            registry: StreamRegistry::new(),
            num_reps: 4,
        };
        let res =
            evaluate_aggregate(&set, &AggregateSpec::sum(Expr::col("x"), "s"), &[], None).unwrap();
        assert_eq!(res.single().unwrap(), &[0.0, 0.0, 0.0, 0.0]);
    }
}
