//! Criterion bench for the vectorized phase-2 kernels.
//!
//! Three sweeps, each pitting the vectorized path against the retained
//! scalar path it must match bit for bit (the determinism suite proves the
//! equality; this bench prices it):
//!
//! * `sampler/*` — batched VG block generation (`generate_block_into`:
//!   two-pass uniforms-then-transform for the normal samplers, interned
//!   subtractive scan / alias table for the discrete ones) vs the
//!   per-position `generate` loop the default trait method runs.
//! * `selective_filter/*` and `join/*` — whole-block materialization with
//!   the kernel mode flipped: `vectorized` compiles predicates to packed
//!   masks + selection vectors and computed columns to `f64` lanes;
//!   `scalar` forces the row-at-a-time loop.  An allocation census per
//!   block (counting global allocator, outside the timer) accompanies the
//!   wall-clock numbers, since "filters stop materializing row copies" is
//!   the structural claim.
//! * `aggregate/*` — per-repetition aggregation: the dense-lane
//!   naive-baseline `SUM` over the TPC-H join (no selection at all), and
//!   selection-vector, column-at-a-time aggregation vs the scalar
//!   bundles-inner loop with a final predicate.  Each arm records its
//!   allocations per call, and the dense arm's count is gated: it must not
//!   grow with the bundle count.
//!
//! Every result lands in `BENCH_ablation_kernels.json` (values/sec plus
//! `allocs_per_block` metrics) via the criterion stand-in's report.
//!
//! Run with `cargo bench --bench ablation_kernels`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcdbr_bench::test_tpch;
use mcdbr_exec::aggregate::evaluate_aggregate_threads;
use mcdbr_exec::plan::scalar_random_table;
use mcdbr_exec::{
    set_kernel_mode, AggregateSpec, BlockBufferPool, BundleSet, DeterministicPrefix, ExecBackend,
    ExecSession, Expr, KernelMode, PlanNode,
};
use mcdbr_prng::{seed_for, RandomStream, SeedId};
use mcdbr_storage::{Catalog, ColumnBlock, Value};
use mcdbr_vg::{AliasDiscreteVg, BoxMullerNormalVg, DiscreteVg, NormalVg, VgFunction};
use mcdbr_workloads::{customer_losses_catalog, customer_losses_query, TpchConfig, TpchWorkload};

/// A pass-through allocator that counts every allocation, so the bench can
/// report allocations-per-block for each kernel mode.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations performed by one run of `f`.
fn count_allocs(mut f: impl FnMut()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The scalar sampler reference: the `VgFunction::generate_block_into`
/// default body — one per-position `generate` call, rows pushed boxed.
fn scalar_sampler_block(
    vg: &dyn VgFunction,
    params: &[Value],
    seed: SeedId,
    n: usize,
    out: &mut ColumnBlock,
) {
    out.clear();
    let stream = RandomStream::new(seed);
    for i in 0..n {
        let mut gen = stream.generator_at(i as u64);
        let rows = vg.generate(params, &mut gen).unwrap();
        out.push_position(&rows).unwrap();
    }
}

fn bench_samplers(c: &mut Criterion) {
    let n = 4096usize;
    let normal_params = [Value::Float64(3.0), Value::Float64(4.0)];
    let weights: Vec<Value> = (1..=8).map(|w| Value::Float64(w as f64)).collect();
    let categories: Vec<Value> = (0..8).map(|k| Value::Float64(k as f64 * 10.0)).collect();
    let cases: Vec<(&str, Box<dyn VgFunction>, Vec<Value>)> = vec![
        (
            "normal_inverse_cdf",
            Box::new(NormalVg),
            normal_params.to_vec(),
        ),
        (
            "normal_box_muller",
            Box::new(BoxMullerNormalVg),
            normal_params.to_vec(),
        ),
        (
            "discrete_scan",
            Box::new(DiscreteVg::new(categories.clone())),
            weights.clone(),
        ),
        (
            "discrete_alias",
            Box::new(AliasDiscreteVg::new(categories)),
            weights,
        ),
    ];
    let mut group = c.benchmark_group("sampler");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n as u64));
    for (label, vg, params) in &cases {
        let seed = seed_for(11, 1, 0);
        let mut block = ColumnBlock::default();
        group.bench_with_input(
            BenchmarkId::new(format!("{label}/scalar"), n),
            &n,
            |b, &n| b.iter(|| scalar_sampler_block(vg.as_ref(), params, seed, n, &mut block)),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("{label}/batched"), n),
            &n,
            |b, &n| {
                b.iter(|| {
                    vg.generate_block_into(params, seed, 0, n, &mut block)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

struct Workload {
    label: &'static str,
    prefix: DeterministicPrefix,
    values_per_block: u64,
    /// The `MCDBR_BACKEND`-resolved execution backend, primed for dispatch.
    /// Defaults to in-process (the headline numbers); `MCDBR_BACKEND=process`
    /// reroutes every materialization through the worker fleet so CI smoke
    /// runs exercise the kernels there too.  Note the kernel-mode flag and
    /// the allocation census are process-local, so the scalar-vs-vectorized
    /// split is only meaningful on the in-process backend.
    backend: Arc<dyn ExecBackend>,
}

fn prepared(label: &'static str, plan: &PlanNode, catalog: &Catalog, block: usize) -> Workload {
    let session = ExecSession::prepare(plan, catalog, 7).expect("cacheable plan");
    let prefix = session.prefix().expect("cacheable plan").clone();
    let values_per_block = (prefix.num_active_streams() * block) as u64;
    let backend = mcdbr_dispatch::default_backend();
    backend
        .prepare_dispatch(plan, catalog, &prefix)
        .expect("dispatch priming");
    Workload {
        label,
        prefix,
        values_per_block,
        backend,
    }
}

/// Bench whole-block materialization under both kernel modes, with an
/// allocation census per mode.
fn bench_modes(c: &mut Criterion, w: &Workload, block: usize) {
    let pool = BlockBufferPool::new();
    let backend = &w.backend;
    // Warm fully: buffer capacities stabilize only after the recycled cell
    // storage has made one full round trip (block -> Arc -> block).
    for _ in 0..3 {
        let _ = backend
            .instantiate_block(&w.prefix, &pool, 1, 0, block)
            .unwrap();
    }
    let mut mode_allocs = [0u64; 2];
    for (slot, (mode, mode_label)) in [
        (KernelMode::Auto, "vectorized"),
        (KernelMode::ForceScalar, "scalar"),
    ]
    .into_iter()
    .enumerate()
    {
        set_kernel_mode(mode);
        mode_allocs[slot] = count_allocs(|| {
            criterion::black_box(
                backend
                    .instantiate_block(&w.prefix, &pool, 1, 0, block)
                    .unwrap(),
            );
        });
        criterion::record_metric(
            format!("{}/{mode_label}/{block}", w.label),
            "allocs_per_block",
            mode_allocs[slot] as f64,
        );
    }
    set_kernel_mode(KernelMode::Auto);
    println!(
        "{}/allocs_per_block/{block}: vectorized={} scalar={} ({:.1}x fewer)",
        w.label,
        mode_allocs[0],
        mode_allocs[1],
        mode_allocs[1] as f64 / mode_allocs[0].max(1) as f64
    );

    let mut group = c.benchmark_group(w.label);
    group.sample_size(20);
    group.throughput(Throughput::Elements(w.values_per_block));
    for (mode, mode_label) in [
        (KernelMode::Auto, "vectorized"),
        (KernelMode::ForceScalar, "scalar"),
    ] {
        group.bench_with_input(BenchmarkId::new(mode_label, block), &block, |b, &block| {
            set_kernel_mode(mode);
            b.iter(|| {
                backend
                    .instantiate_block(&w.prefix, &pool, 1, 0, block)
                    .unwrap()
            });
            set_kernel_mode(KernelMode::Auto);
        });
    }
    group.finish();
}

/// The §2 selective-filter workload of `ablation_columnar`, extended with a
/// phase-2 predicate over the random loss value — the shape where the
/// vectorized path replaces per-row predicate evaluation and row-copy
/// filtering with a packed mask and a selection vector.
fn bench_selective_filter(c: &mut Criterion) {
    let n_customers = 2_000i64;
    let catalog = customer_losses_catalog(n_customers as usize, (1.0, 5.0), 11).unwrap();
    let plan = customer_losses_query(None)
        .plan
        .filter(Expr::col("cid").lt(Expr::lit(n_customers / 10)))
        .filter(Expr::col("val").gt(Expr::lit(4.0)));
    let block = 256usize;
    let w = prepared("selective_filter", &plan, &catalog, block);
    bench_modes(c, &w, block);
}

/// The §2 selective-filter workload itself (deterministic `cid` filter, no
/// phase-2 predicate — the `ablation_columnar` acceptance workload) under
/// both normal samplers.  Whole-block materialization here is
/// generation-bound, so the batched sampler *is* the end-to-end story: the
/// inverse-CDF leg prices the bit-frozen default, the Box-Muller leg prices
/// the opt-in batched variant (`BoxMullerNormalVg`, a distinct VG
/// configuration with its own value stream).
fn bench_filter_samplers(c: &mut Criterion) {
    let n_customers = 2_000i64;
    let catalog = customer_losses_catalog(n_customers as usize, (1.0, 5.0), 11).unwrap();
    let block = 256usize;
    let samplers: [(&str, std::sync::Arc<dyn VgFunction>); 2] = [
        ("inverse_cdf", Arc::new(NormalVg)),
        ("box_muller", Arc::new(BoxMullerNormalVg)),
    ];
    let mut group = c.benchmark_group("filter_sampler");
    group.sample_size(20);
    for (label, vg) in samplers {
        let plan = mcdbr_exec::PlanNode::random_table(scalar_random_table(
            "Losses",
            "means",
            vg,
            vec![Expr::col("m"), Expr::lit(1.0)],
            &["cid"],
            "val",
            1,
        ))
        .filter(Expr::col("cid").lt(Expr::lit(n_customers / 10)));
        let w = prepared("filter_sampler", &plan, &catalog, block);
        let pool = BlockBufferPool::new();
        let backend = &w.backend;
        // Warm fully (see `bench_modes` on the cell-storage round trip).
        for _ in 0..3 {
            let _ = backend
                .instantiate_block(&w.prefix, &pool, 1, 0, block)
                .unwrap();
        }
        let allocs = count_allocs(|| {
            criterion::black_box(
                backend
                    .instantiate_block(&w.prefix, &pool, 1, 0, block)
                    .unwrap(),
            );
        });
        println!("filter_sampler/{label}/allocs_per_block/{block}: {allocs}");
        criterion::record_metric(
            format!("filter_sampler/{label}/{block}"),
            "allocs_per_block",
            allocs as f64,
        );
        group.throughput(Throughput::Elements(w.values_per_block));
        group.bench_with_input(BenchmarkId::new(label, block), &block, |b, &block| {
            b.iter(|| {
                backend
                    .instantiate_block(&w.prefix, &pool, 1, 0, block)
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// The Appendix D join workload under both kernel modes.
fn bench_join(c: &mut Criterion) {
    let w_tpch = test_tpch();
    let plan = w_tpch.total_loss_query().plan;
    let block = 256usize;
    let w = prepared("join", &plan, &w_tpch.catalog, block);
    bench_modes(c, &w, block);
}

/// One block of the Appendix D naive-baseline query (`random_ord ⋈
/// lineitem` at test scale, with `num_lineitems` join rows).
fn tpch_block(num_lineitems: usize, reps: usize) -> BundleSet {
    let w = TpchWorkload::generate(TpchConfig {
        num_lineitems,
        ..TpchConfig::test_scale()
    })
    .expect("workload generation");
    let q = w.total_loss_query();
    ExecSession::prepare(&q.plan, &w.catalog, 7)
        .unwrap()
        .instantiate_block(&w.catalog, 0, reps)
        .unwrap()
}

/// Per-repetition aggregation, one thread, three arms:
///
/// * `dense` — the naive-baseline `SUM(val)` over the TPC-H join with no
///   final predicate: every bundle folds into its group's lane as one
///   dense pass, with no selection vector built.
/// * `selvec` / `scalar` — the §2 losses query with a final predicate:
///   the selection-vector column path vs the scalar bundles-inner loop.
///
/// Every arm records its allocations per aggregate call.  Outside the
/// timer, the dense arm's count must not grow with the bundle count
/// (100 vs 800 join rows): the lane layout allocates per group and per
/// range, never per bundle.
fn bench_aggregate(c: &mut Criterion) {
    let dense_reps = 1_000usize;
    let dense_agg = AggregateSpec::sum(Expr::col("val"), "totalLoss");
    let dense = tpch_block(800, dense_reps);
    let dense_allocs = |set: &BundleSet| {
        count_allocs(|| {
            criterion::black_box(
                evaluate_aggregate_threads(set, &dense_agg, &[], None, 1).unwrap(),
            );
        })
    };
    let small_allocs = dense_allocs(&tpch_block(100, dense_reps));
    let large_allocs = dense_allocs(&dense);
    println!(
        "aggregate/dense/allocs_per_block/{dense_reps}: {small_allocs} (100 join rows), \
         {large_allocs} (800 join rows)"
    );
    assert_eq!(
        small_allocs, large_allocs,
        "dense aggregation allocates per bundle: {small_allocs} allocations over 100 join \
         rows, {large_allocs} over 800"
    );
    criterion::record_metric(
        format!("aggregate/dense/{dense_reps}"),
        "allocs_per_block",
        large_allocs as f64,
    );

    let catalog = customer_losses_catalog(400, (1.0, 5.0), 11).unwrap();
    let q = customer_losses_query(None);
    let reps = 2048usize;
    let set = ExecSession::prepare(&q.plan, &catalog, 7)
        .unwrap()
        .instantiate_block(&catalog, 0, reps)
        .unwrap();
    let agg = AggregateSpec::sum(Expr::col("val"), "total");
    let pred = Expr::col("val").gt(Expr::lit(3.5));
    let modes = [
        (KernelMode::Auto, "selvec"),
        (KernelMode::ForceScalar, "scalar"),
    ];
    for (mode, mode_label) in modes {
        set_kernel_mode(mode);
        let allocs = count_allocs(|| {
            criterion::black_box(
                evaluate_aggregate_threads(&set, &agg, &[], Some(&pred), 1).unwrap(),
            );
        });
        set_kernel_mode(KernelMode::Auto);
        println!("aggregate/{mode_label}/allocs_per_block/{reps}: {allocs}");
        criterion::record_metric(
            format!("aggregate/{mode_label}/{reps}"),
            "allocs_per_block",
            allocs as f64,
        );
    }

    let mut group = c.benchmark_group("aggregate");
    group.sample_size(20);
    group.throughput(Throughput::Elements(
        (dense.bundles.len() * dense_reps) as u64,
    ));
    group.bench_with_input(
        BenchmarkId::new("dense", dense_reps),
        &dense_reps,
        |b, _| b.iter(|| evaluate_aggregate_threads(&dense, &dense_agg, &[], None, 1).unwrap()),
    );
    group.throughput(Throughput::Elements((set.bundles.len() * reps) as u64));
    for (mode, mode_label) in modes {
        group.bench_with_input(BenchmarkId::new(mode_label, reps), &reps, |b, _| {
            set_kernel_mode(mode);
            b.iter(|| evaluate_aggregate_threads(&set, &agg, &[], Some(&pred), 1).unwrap());
            set_kernel_mode(KernelMode::Auto);
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_samplers,
    bench_selective_filter,
    bench_filter_samplers,
    bench_join,
    bench_aggregate
);
criterion_main!(benches);
