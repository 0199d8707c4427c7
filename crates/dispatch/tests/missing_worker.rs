//! A `ProcessBackend` with no worker executable fails fast with a typed
//! configuration error instead of respawning, tripping breakers, and
//! quietly degrading to local execution.
//!
//! The test points `MCDBR_WORKER_BIN` at a path that does not exist, so it
//! lives alone in this test binary: no other test shares its environment.

use std::sync::Arc;

use mcdbr_dispatch::ProcessBackend;
use mcdbr_exec::plan::scalar_random_table;
use mcdbr_exec::{ExecBackend, ExecSession, Expr, PlanNode};
use mcdbr_storage::{Catalog, Field, Schema, TableBuilder, Value};
use mcdbr_vg::NormalVg;

#[test]
fn missing_worker_binary_fails_the_first_block_without_touching_the_ladder() {
    let missing = std::env::temp_dir().join(format!(
        "mcdbr-worker-absent-{}/mcdbr-worker",
        std::process::id()
    ));
    std::env::set_var("MCDBR_WORKER_BIN", &missing);

    let means = TableBuilder::new(Schema::new(vec![Field::int64("cid"), Field::float64("m")]))
        .row([Value::Int64(1), Value::Float64(3.0)])
        .build()
        .unwrap();
    let mut catalog = Catalog::new();
    catalog.register("means", means).unwrap();
    let plan = PlanNode::random_table(scalar_random_table(
        "Losses",
        "means",
        Arc::new(NormalVg),
        vec![Expr::col("m"), Expr::lit(1.0)],
        &["cid"],
        "val",
        1,
    ));

    let backend = Arc::new(ProcessBackend::new(2));
    let mut session = ExecSession::prepare(&plan, &catalog, 7)
        .unwrap()
        .with_backend(backend.clone());
    for block in 0..2u64 {
        let err = session
            .instantiate_block(&catalog, block * 8, 8)
            .expect_err("a block cannot run without its worker binary");
        let message = err.to_string();
        assert!(
            message.contains("worker binary not found")
                && message.contains(&missing.display().to_string()),
            "block {block}: the error must name the missing path, got: {message}"
        );
    }

    let stats = backend.shard_stats();
    assert_eq!(stats.workers_spawned, 0);
    assert_eq!(stats.tasks_dispatched, 0);
    assert_eq!(stats.worker_respawns, 0);
    assert_eq!(stats.task_retries, 0);
    assert_eq!(stats.circuit_trips, 0);
    assert_eq!(stats.deadline_timeouts, 0);
}
