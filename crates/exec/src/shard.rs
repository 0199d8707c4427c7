//! Shard-partitioned phase-2 execution: `PlanSkeleton + seed + StreamKey
//! range` is a complete description of a slice of a block's work.
//!
//! The in-process fan-out (`crate::par`) scales phase 2 across the threads
//! of one process; this module makes the *unit of distribution* explicit so
//! the same work can scale across processes.  A [`ShardTask`] carries
//! everything a worker needs:
//!
//! * a reference to the seed-independent [`PlanSkeleton`] (in-process an
//!   `Arc`; across processes the skeleton is re-derivable from the plan and
//!   catalog, or shippable by its `(plan fingerprint, catalog epoch)` cache
//!   key — every other field is plain data),
//! * the `master_seed` the shard binds the skeleton to itself (each shard
//!   runs against **its own** [`DeterministicPrefix`]; stream seeds are
//!   pure functions of `(master_seed, key)` and VG recipes live on the
//!   skeleton, so the per-shard binding carries no per-stream state at all
//!   — no shared mutable state, no per-block binding cost),
//! * a [`StreamKeyRange`] naming the slice of the key space the shard owns,
//! * the block window `base_pos .. base_pos + num_values`.
//!
//! **The shard contract.** The [planner](plan_shards) partitions the
//! skeleton's distinct bundle *anchor* keys (each bundle's smallest stream
//! key) into contiguous ranges that jointly cover the whole key space, so
//! ownership — not just stream generation — balances across shards.  A
//! shard owns every bundle whose anchor falls in its range (bundles with no
//! streams anchor at [`StreamKey::MIN`], i.e. the first shard).  Cross-shard bundles — a join
//! of streams from two ranges — are handled without communication: the
//! owning shard regenerates the foreign streams itself, which is
//! bit-identical by the position-addressable PRNG contract, so duplicated
//! generation trades a little CPU for zero coordination.  Each shard
//! returns its bundles tagged with their skeleton index; the merge visits
//! partials in ascending key-range order (the canonical `StreamKey` order
//! the planner emitted) and writes each bundle into its skeleton slot, so
//! the flattened output *is* the skeleton's bundle order — bit-identical to
//! [`InProcessBackend`](crate::backend::InProcessBackend) for every shard
//! count.  `tests/session_determinism.rs` proves this for shard counts
//! {1, 2, 3, 7} × thread counts, across replenishment boundaries, and on
//! cache hits.
//!
//! Aggregation shards partition **repetitions**, not bundles: within one
//! repetition the floating-point accumulation order over bundles is the
//! bit-identity contract, so the only safe parallel unit is the repetition
//! itself — exactly the unit the thread fan-out already uses.  Partials
//! merge in repetition order.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mcdbr_prng::{StreamKey, StreamKeyRange};
use mcdbr_storage::Result;

use crate::aggregate::{self, AggregateSpec, QueryResultSamples};
use crate::backend::{ExecBackend, ShardStats};
use crate::bundle::{BundleSet, TupleBundle};
use crate::expr::Expr;
use crate::par;
use crate::pool::BlockBufferPool;
use crate::session::{self, DeterministicPrefix, PlanSkeleton};

/// One self-describing slice of a block instantiation: bind `skeleton` to
/// `master_seed`, own every bundle anchored in `key_range`, materialize the
/// window `base_pos .. base_pos + num_values`.
///
/// Everything here is either plain data or re-derivable state (see the
/// module docs), which is what makes the task the natural unit for
/// multi-process dispatch.
#[derive(Debug, Clone)]
pub struct ShardTask {
    /// The seed-independent skeleton the shard binds and executes against.
    pub skeleton: Arc<PlanSkeleton>,
    /// The master seed; each shard derives its own stream seeds from it.
    pub master_seed: u64,
    /// The slice of the stream-key space this shard owns.
    pub key_range: StreamKeyRange,
    /// First stream position of the block window.
    pub base_pos: u64,
    /// Number of stream positions to materialize.
    pub num_values: usize,
}

/// What one shard hands back to the merge.
#[derive(Debug)]
pub struct ShardOutput {
    /// `(skeleton bundle index, materialized bundle)` pairs — `None` for
    /// bundles whose presence mask is false everywhere — for the merge to
    /// slot back into skeleton order.
    pub bundles: Vec<(usize, Option<TupleBundle>)>,
    /// Streams outside this shard's key range that it regenerated locally
    /// because an owned bundle references them (cross-shard joins).
    pub foreign_streams: usize,
}

impl ShardTask {
    /// Execute the shard: decide bundle ownership from the skeleton and the
    /// key range alone, bind a private prefix restricted to the streams the
    /// owned bundles reference (foreign keys included), generate those
    /// streams into columnar buffers from `pool`, and materialize the owned
    /// bundles.  Concurrent shard tasks share the pool safely — each
    /// acquisition hands out a distinct buffer — so a multi-shard block
    /// still reuses every buffer on the next block.
    pub fn run(&self, pool: &BlockBufferPool) -> Result<ShardOutput> {
        let skeleton = &self.skeleton;

        // Ownership: a bundle belongs to the shard whose range contains its
        // smallest stream key; fully deterministic bundles anchor at MIN.
        // Per-bundle key sets were computed once during the skeleton pass.
        let mut owned: Vec<usize> = Vec::new();
        let mut needed: BTreeSet<StreamKey> = BTreeSet::new();
        for (idx, keys) in skeleton.bundle_keys.iter().enumerate() {
            let anchor = keys.first().copied().unwrap_or(StreamKey::MIN);
            if self.key_range.contains(anchor) {
                owned.push(idx);
                needed.extend(keys.iter().copied());
            }
        }

        // Generate every stream an owned bundle touches.  Keys outside the
        // range (cross-shard joins) are regenerated locally: `(seed, pos)`
        // addressing makes the duplicate bit-identical to the owner shard's
        // copy.  The shard's own prefix carries no bound registry — seeds
        // are pure in `(master_seed, key)` and recipes live on the skeleton
        // — so per-shard binding costs nothing regardless of plan size.
        let foreign_streams = needed
            .iter()
            .filter(|&&key| !self.key_range.contains(key))
            .count();
        let prefix = skeleton.bind_for_shard(self.master_seed);
        // Each generated block's cells are moved into recycled shared
        // columns and the pooled buffer is released immediately — on every
        // exit path, so partial work is metered and the buffers stay warm.
        let mut cells = session::CellData::with_capacity(needed.len());
        pool.sweep_cells();
        let mut generation: Result<()> = Ok(());
        for key in needed {
            match session::generate_stream_block(&prefix, key, self.base_pos, self.num_values, pool)
            {
                Ok(mut block) => {
                    cells.insert(key, session::CellCols::from_block(&mut block, pool));
                    pool.release(block);
                }
                Err(e) => {
                    generation = Err(e);
                    break;
                }
            }
        }

        let bundles: Result<Vec<(usize, Option<TupleBundle>)>> = generation.and_then(|()| {
            owned
                .into_iter()
                .map(|idx| {
                    let bundle = session::materialize_bundle(
                        &skeleton.bundles[idx],
                        &prefix,
                        &cells,
                        self.base_pos,
                        self.num_values,
                    )?;
                    Ok((idx, bundle))
                })
                .collect()
        });
        Ok(ShardOutput {
            bundles: bundles?,
            foreign_streams,
        })
    }
}

/// The shard planner: partition a skeleton's distinct bundle *anchor* keys
/// into exactly `min(shards, anchors)` contiguous, balanced
/// [`StreamKeyRange`]s covering the whole key space (a single all-covering
/// range for stream-free plans).
///
/// Anchors — not all active streams — are what ownership is decided by, so
/// partitioning them is what balances the bundles each shard materializes:
/// on a multi-table join every bundle anchors at its smallest key, and
/// ranges drawn over the higher tables' keys would own nothing.
pub fn plan_shards(skeleton: &PlanSkeleton, shards: usize) -> Vec<StreamKeyRange> {
    StreamKeyRange::partition(skeleton.anchor_keys(), shards)
}

/// The sharded execution backend: phase 2 as a fan-out of [`ShardTask`]s.
///
/// In this process the tasks run on the same deterministic thread pool the
/// in-process backend uses (up to `threads` concurrent shard slots); the
/// point of the exercise is that nothing about a task *requires* that —
/// see the module docs for the shard contract and the merge-order
/// guarantee.
#[derive(Debug)]
pub struct ShardedBackend {
    shards: usize,
    shards_spawned: AtomicUsize,
    shard_merge_ns: AtomicU64,
    cross_shard_regens: AtomicUsize,
}

impl ShardedBackend {
    /// Create a backend targeting `shards` shards per block (minimum 1;
    /// blocks with fewer active streams than shards get fewer).
    pub fn new(shards: usize) -> Self {
        ShardedBackend {
            shards: shards.max(1),
            shards_spawned: AtomicUsize::new(0),
            shard_merge_ns: AtomicU64::new(0),
            cross_shard_regens: AtomicUsize::new(0),
        }
    }

    /// The target shard count per block.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl ExecBackend for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn instantiate_block(
        &self,
        prefix: &DeterministicPrefix,
        pool: &BlockBufferPool,
        threads: usize,
        base_pos: u64,
        num_values: usize,
    ) -> Result<BundleSet> {
        let skeleton = prefix.skeleton();
        let tasks: Vec<ShardTask> = plan_shards(skeleton, self.shards)
            .into_iter()
            .map(|key_range| ShardTask {
                skeleton: Arc::clone(skeleton),
                master_seed: prefix.master_seed(),
                key_range,
                base_pos,
                num_values,
            })
            .collect();
        self.shards_spawned
            .fetch_add(tasks.len(), Ordering::Relaxed);
        let partials = par::try_par_map_threads(&tasks, threads, |task| task.run(pool))?;

        // Merge: partials arrive in ascending key-range order; slotting each
        // bundle at its skeleton index restores the exact output order of
        // single-shard execution.  Only the slot placement is timed as merge
        // overhead — the flatten and BundleSet construction (schema/registry
        // clones) are work the in-process path performs identically.
        let merge_start = Instant::now();
        let mut slots: Vec<Option<TupleBundle>> = Vec::with_capacity(skeleton.num_bundles());
        slots.resize_with(skeleton.num_bundles(), || None);
        let mut foreign = 0usize;
        for partial in partials {
            foreign += partial.foreign_streams;
            for (idx, bundle) in partial.bundles {
                slots[idx] = bundle;
            }
        }
        self.shard_merge_ns
            .fetch_add(merge_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.cross_shard_regens
            .fetch_add(foreign, Ordering::Relaxed);
        Ok(BundleSet {
            schema: skeleton.schema().clone(),
            bundles: slots.into_iter().flatten().collect(),
            registry: prefix.registry().clone(),
            num_reps: num_values,
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
        let (samples, partials) = aggregate::evaluate_aggregate_partials(
            set,
            agg,
            group_by,
            final_predicate,
            self.shards,
            threads,
        )?;
        self.shards_spawned.fetch_add(partials, Ordering::Relaxed);
        Ok(samples)
    }

    fn shard_stats(&self) -> ShardStats {
        ShardStats {
            shards_spawned: self.shards_spawned.load(Ordering::Relaxed),
            shard_merge_ns: self.shard_merge_ns.load(Ordering::Relaxed),
            cross_shard_regens: self.cross_shard_regens.load(Ordering::Relaxed),
            ..ShardStats::default()
        }
        .with_pager()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InProcessBackend;
    use crate::expr::Expr;
    use crate::plan::{scalar_random_table, PlanNode};
    use crate::session::ExecSession;
    use mcdbr_storage::{Catalog, Field, Schema, TableBuilder, Value};
    use mcdbr_vg::NormalVg;

    fn catalog() -> Catalog {
        let mut means =
            TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]));
        for i in 0..8i64 {
            means = means.row([Value::Int64(i), Value::Float64(2.0 + i as f64)]);
        }
        let regions = TableBuilder::new(Schema::new(vec![
            Field::int64("rcid"),
            Field::utf8("region"),
        ]))
        .row([Value::Int64(0), Value::str("EU")])
        .row([Value::Int64(1), Value::str("US")])
        .row([Value::Int64(2), Value::str("US")])
        .row([Value::Int64(5), Value::str("APAC")])
        .build()
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.register("means", means.build().unwrap()).unwrap();
        catalog.register("regions", regions).unwrap();
        catalog
    }

    /// Scan + random table + both filter kinds + join + computed projection.
    fn complex_plan() -> PlanNode {
        PlanNode::random_table(scalar_random_table(
            "Losses",
            "means",
            Arc::new(NormalVg),
            vec![Expr::col("m"), Expr::lit(1.0)],
            &["cid"],
            "val",
            1,
        ))
        .filter(Expr::col("cid").lt(Expr::lit(6i64)))
        .join(PlanNode::scan("regions"), vec![("cid", "rcid")])
        .filter(Expr::col("val").gt(Expr::lit(2.5)))
        .project(vec![
            ("cid", Expr::col("cid")),
            ("loss", Expr::col("val")),
            ("scaled", Expr::col("val").mul(Expr::lit(2.0))),
            ("region", Expr::col("region")),
        ])
    }

    fn assert_sets_identical(a: &BundleSet, b: &BundleSet) {
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.num_reps, b.num_reps);
        assert_eq!(a.bundles, b.bundles);
    }

    #[test]
    fn sharded_blocks_match_in_process_for_every_shard_count() {
        let pool = BlockBufferPool::new();
        let catalog = catalog();
        let plan = complex_plan();
        let session = ExecSession::prepare(&plan, &catalog, 42).unwrap();
        let prefix = session.prefix().unwrap();
        let reference = InProcessBackend::new()
            .instantiate_block(prefix, &pool, 1, 0, 64)
            .unwrap();
        for shards in [1usize, 2, 3, 7, 50] {
            for threads in [1usize, 2, 8] {
                let backend = ShardedBackend::new(shards);
                let block = backend
                    .instantiate_block(prefix, &pool, threads, 0, 64)
                    .unwrap();
                assert_sets_identical(&reference, &block);
            }
        }
    }

    #[test]
    fn planner_never_exceeds_bundle_anchors_and_counters_accumulate() {
        let pool = BlockBufferPool::new();
        let catalog = catalog();
        let plan = complex_plan();
        let session = ExecSession::prepare(&plan, &catalog, 7).unwrap();
        let prefix = session.prefix().unwrap();
        let skeleton = prefix.skeleton();
        // Single-stream bundles: every active stream is some bundle's anchor.
        let anchors = skeleton.anchor_keys().len();
        assert_eq!(anchors, skeleton.num_active_streams());
        assert!(anchors >= 2);
        assert_eq!(plan_shards(skeleton, 3).len(), 3);
        assert_eq!(plan_shards(skeleton, 100).len(), anchors);
        assert_eq!(plan_shards(skeleton, 0).len(), 1);

        let backend = ShardedBackend::new(3);
        assert_eq!(backend.shards(), 3);
        assert_eq!(backend.name(), "sharded");
        // Pager counters are process-global and may be nonzero when the
        // suite runs under `MCDBR_DATA_DIR`; the backend's own work must
        // be zero and a self-window is always all-zero.
        let fresh = backend.shard_stats();
        assert_eq!(fresh.shards_spawned, 0);
        assert_eq!(fresh.shard_merge_ns, 0);
        assert_eq!(fresh.cross_shard_regens, 0);
        assert_eq!(fresh.since(fresh), ShardStats::default());
        let _ = backend.instantiate_block(prefix, &pool, 2, 0, 8).unwrap();
        let after_one = backend.shard_stats();
        assert_eq!(after_one.shards_spawned, 3);
        let _ = backend.instantiate_block(prefix, &pool, 2, 8, 8).unwrap();
        assert_eq!(backend.shard_stats().shards_spawned, 6);
        assert_eq!(backend.shard_stats().since(after_one).shards_spawned, 3);
    }

    #[test]
    fn shard_tasks_are_self_describing_and_cover_all_bundles() {
        let pool = BlockBufferPool::new();
        let catalog = catalog();
        let plan = complex_plan();
        let session = ExecSession::prepare(&plan, &catalog, 11).unwrap();
        let prefix = session.prefix().unwrap();
        let skeleton = prefix.skeleton();
        let ranges = plan_shards(skeleton, 3);
        let mut seen = std::collections::BTreeSet::new();
        for key_range in ranges {
            let task = ShardTask {
                skeleton: Arc::clone(skeleton),
                master_seed: 11,
                key_range,
                base_pos: 0,
                num_values: 4,
            };
            let output = task.run(&pool).unwrap();
            // Single-stream bundles never cross range boundaries.
            assert_eq!(output.foreign_streams, 0);
            for (idx, _) in output.bundles {
                assert!(seen.insert(idx), "bundle {idx} owned by two shards");
            }
        }
        assert_eq!(seen.len(), skeleton.num_bundles());
    }

    #[test]
    fn cross_shard_joins_regenerate_foreign_streams_and_stay_identical() {
        let pool = BlockBufferPool::new();
        // Two uncertain tables (tags 1 and 2) joined on cid: every bundle
        // references one stream from each table, so any split between the
        // tables makes every bundle cross-shard — the owning shard must
        // regenerate the foreign stream locally and still merge exactly.
        let catalog = catalog();
        let mk = |tag, name: &str| {
            PlanNode::random_table(scalar_random_table(
                name,
                "means",
                Arc::new(NormalVg),
                vec![Expr::col("m"), Expr::lit(1.0)],
                &["cid"],
                name,
                tag,
            ))
        };
        let plan = mk(1, "a").join(mk(2, "b"), vec![("cid", "cid")]);
        let session = ExecSession::prepare(&plan, &catalog, 13).unwrap();
        let prefix = session.prefix().unwrap();
        let reference = InProcessBackend::new()
            .instantiate_block(prefix, &pool, 1, 0, 32)
            .unwrap();
        for shards in [2usize, 3, 7] {
            let backend = ShardedBackend::new(shards);
            let block = backend.instantiate_block(prefix, &pool, 2, 0, 32).unwrap();
            assert_sets_identical(&reference, &block);
            assert!(
                backend.shard_stats().cross_shard_regens > 0,
                "{shards} shards over a two-table join must cross ranges"
            );
        }
        // One shard owns everything: nothing is foreign.
        let single = ShardedBackend::new(1);
        let _ = single.instantiate_block(prefix, &pool, 1, 0, 32).unwrap();
        assert_eq!(single.shard_stats().cross_shard_regens, 0);

        // The planner partitions *anchors* (all tag-1 here), so both shards
        // of a 2-way split own bundles — the non-anchor tag-2 keys never
        // starve a range of work.
        let skeleton = prefix.skeleton();
        assert_eq!(skeleton.anchor_keys().len(), 8);
        assert_eq!(skeleton.num_active_streams(), 16);
        for key_range in plan_shards(skeleton, 2) {
            let output = ShardTask {
                skeleton: Arc::clone(skeleton),
                master_seed: 13,
                key_range,
                base_pos: 0,
                num_values: 4,
            }
            .run(&pool)
            .unwrap();
            assert_eq!(output.bundles.len(), 4, "ownership must balance 4/4");
        }
    }

    #[test]
    fn deterministic_only_plans_run_on_one_shard() {
        let pool = BlockBufferPool::new();
        let catalog = catalog();
        let session = ExecSession::prepare(&PlanNode::scan("regions"), &catalog, 1).unwrap();
        let prefix = session.prefix().unwrap();
        let backend = ShardedBackend::new(4);
        let block = backend.instantiate_block(prefix, &pool, 4, 0, 3).unwrap();
        assert_eq!(block.len(), 4);
        assert!(block.registry.is_empty());
        assert_eq!(backend.shard_stats().shards_spawned, 1);
    }

    #[test]
    fn sharded_sessions_are_bit_identical_end_to_end() {
        let catalog = catalog();
        let plan = complex_plan();
        let mut in_process = ExecSession::prepare(&plan, &catalog, 9)
            .unwrap()
            .with_backend(Arc::new(InProcessBackend::new()));
        let mut sharded = ExecSession::prepare(&plan, &catalog, 9)
            .unwrap()
            .with_backend(Arc::new(ShardedBackend::new(3)));
        assert_eq!(sharded.backend().name(), "sharded");
        for (base, n) in [(0u64, 16usize), (16, 8), (1000, 4)] {
            let a = in_process.instantiate_block(&catalog, base, n).unwrap();
            let b = sharded.instantiate_block(&catalog, base, n).unwrap();
            assert_sets_identical(&a, &b);
        }
        assert_eq!(sharded.backend().shard_stats().shards_spawned, 9);
    }
}
