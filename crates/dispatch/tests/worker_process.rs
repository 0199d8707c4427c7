//! The real `mcdbr-worker` executable over real pipes: handshake, the
//! content-addressed plan exchange, one task, and a clean shutdown — with
//! the shipped partials bit-identical to in-process execution.
//!
//! Being an integration test of this package also makes `cargo test` build
//! the package's `mcdbr-worker` bin, which every `ProcessBackend` in the
//! workspace suites resolves as a sibling of its test executable.

use std::io::{BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;

use mcdbr_dispatch::wire::{self, Frame, PlanKey, TaskHeader};
use mcdbr_exec::plan::scalar_random_table;
use mcdbr_exec::{ExecSession, Expr, InProcessBackend, PlanNode};
use mcdbr_prng::StreamKeyRange;
use mcdbr_storage::{Catalog, Field, Schema, TableBuilder, Value};
use mcdbr_vg::NormalVg;

fn catalog() -> Catalog {
    let mut means = TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]));
    for i in 0..6i64 {
        means = means.row([Value::Int64(i), Value::Float64(1.0 + i as f64)]);
    }
    let mut catalog = Catalog::new();
    catalog.register("means", means.build().unwrap()).unwrap();
    catalog
}

fn plan() -> PlanNode {
    PlanNode::random_table(scalar_random_table(
        "Losses",
        "means",
        Arc::new(NormalVg),
        vec![Expr::col("m"), Expr::lit(1.0)],
        &["cid"],
        "val",
        1,
    ))
    .filter(Expr::col("val").gt(Expr::lit(2.0)))
}

#[test]
fn worker_binary_serves_a_task_over_real_pipes_bit_identically() {
    let catalog = catalog();
    let plan = plan();
    let (master_seed, base_pos, num_values) = (42u64, 16u64, 32usize);

    // The spawned worker runs without a fault plan, whatever the suite's
    // environment says: this test checks the protocol, not recovery.
    let mut child = Command::new(env!("CARGO_BIN_EXE_mcdbr-worker"))
        .env_remove(mcdbr_faults::FAULTS_ENV)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap();
    let mut to_worker = child.stdin.take().unwrap();
    let mut from_worker = BufReader::new(child.stdout.take().unwrap());
    let mut next_frame = || {
        let (payload, _) = wire::read_frame(&mut from_worker).unwrap().unwrap();
        wire::decode_frame(&payload).unwrap()
    };

    wire::write_frame(&mut to_worker, &wire::encode_hello()).unwrap();
    to_worker.flush().unwrap();
    match next_frame() {
        Frame::Hello { magic, version } => {
            assert_eq!((magic, version), (wire::WIRE_MAGIC, wire::WIRE_VERSION));
        }
        other => panic!("expected Hello, got {other:?}"),
    }

    let key = PlanKey {
        fingerprint: plan.fingerprint(),
        epoch: catalog.epoch(),
    };
    wire::write_frame(
        &mut to_worker,
        &wire::encode_plan(key, &plan, &catalog).unwrap(),
    )
    .unwrap();
    to_worker.flush().unwrap();
    let Frame::NeedTables { hashes } = next_frame() else {
        panic!("expected NeedTables in reply to Plan");
    };
    for hash in hashes {
        let table_ref = wire::plan_table_refs(&plan, &catalog)
            .unwrap()
            .into_iter()
            .find(|r| r.hash == hash)
            .expect("worker asked for a table the plan reads");
        let table = catalog.get(&table_ref.name).unwrap();
        wire::write_frame(
            &mut to_worker,
            &wire::encode_table_data(hash, table).unwrap(),
        )
        .unwrap();
    }
    wire::write_frame(
        &mut to_worker,
        &wire::encode_task(&TaskHeader {
            key,
            master_seed,
            key_range: StreamKeyRange::all(),
            base_pos,
            num_values,
        }),
    )
    .unwrap();
    to_worker.flush().unwrap();

    let mut shipped = Vec::new();
    let stats = loop {
        match next_frame() {
            Frame::Bundle { idx, bundle } => shipped.push((idx, bundle)),
            Frame::TaskStats(stats) => break stats,
            other => panic!("unexpected frame in a task reply: {other:?}"),
        }
    };
    assert_eq!(stats.bundles, shipped.len());

    wire::write_frame(&mut to_worker, &wire::encode_shutdown()).unwrap();
    to_worker.flush().unwrap();
    drop(to_worker);
    assert!(child.wait().unwrap().success(), "worker must exit cleanly");

    let expected = ExecSession::prepare(&plan, &catalog, master_seed)
        .unwrap()
        .with_backend(Arc::new(InProcessBackend::new()))
        .instantiate_block(&catalog, base_pos, num_values)
        .unwrap();
    shipped.sort_by_key(|(idx, _)| *idx);
    let got: Vec<_> = shipped.into_iter().filter_map(|(_, b)| b).collect();
    assert!(!got.is_empty());
    assert_eq!(got, expected.bundles);
}
