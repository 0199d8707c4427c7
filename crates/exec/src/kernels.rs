//! Vectorized (column-at-a-time) expression kernels for phase 2.
//!
//! The scalar evaluator in [`crate::expr`] is the semantic referee: it
//! defines NaN/null conventions, error cases, and `Int64` overflow checking.
//! This module compiles the *error-free subset* of those semantics into
//! branchless column kernels — packed-bitmap predicate masks and `f64`
//! value lanes — and **refuses** (returns `None`) whenever the scalar path
//! could error or take a type-dependent branch the kernels do not model.
//! A `None` simply routes the caller to the retained scalar loop, so the
//! vectorized path is bit-identical to the scalar path wherever it engages:
//!
//! * Comparisons lower to [`CmpOp`] lanes, which mirror `partial_cmp`-with-
//!   `Equal`-fallback for orderings and IEEE equality for `=`/`<>`.
//! * A null operand makes any comparison false; null bitmaps are applied
//!   with one `and_not` per side, after the branchless compare.
//! * `And`/`Or`/`Not` combine masks word-at-a-time.  The scalar evaluator
//!   short-circuits, but every operand this module agrees to compile is
//!   pure and error-free on all rows, so eager evaluation is equivalent.
//! * Arithmetic vectorizes as `f64` only when the scalar path would have
//!   produced `Float64` on every row: both-`Int64` operands (the checked
//!   integer path), nullable lanes (scalar errors on `Null` arithmetic),
//!   and zero divisors (scalar errors) all decline.
//!
//! The global [`KernelMode`] lets tests and benches force the scalar path;
//! both modes produce identical bundles, so flipping it mid-flight only
//! affects speed, never results.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU8, Ordering};

use mcdbr_storage::selvec::{cmp_const_f64, cmp_f64_const, cmp_f64_f64};
use mcdbr_storage::{CmpOp, Column, DataType, Mask, Schema, Value};

use crate::expr::{BinaryOp, Expr};

/// Whether phase 2 may use the vectorized kernels or must take the scalar
/// row loop.  Process-wide, because the ablation benches and determinism
/// tests compare whole executions under each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Vectorize wherever the compiled subset covers the expression
    /// (the default); fall back to the scalar loop elsewhere.
    Auto,
    /// Always take the scalar loop — the referee configuration.
    ForceScalar,
}

static KERNEL_MODE: AtomicU8 = AtomicU8::new(0);

/// Set the process-wide kernel mode.  Safe to flip at any point: both modes
/// produce bit-identical results (the determinism suite pins this), so the
/// switch only selects an implementation.
pub fn set_kernel_mode(mode: KernelMode) {
    KERNEL_MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current process-wide kernel mode.
pub fn kernel_mode() -> KernelMode {
    match KERNEL_MODE.load(Ordering::Relaxed) {
        0 => KernelMode::Auto,
        _ => KernelMode::ForceScalar,
    }
}

pub(crate) fn vectorized_enabled() -> bool {
    kernel_mode() == KernelMode::Auto
}

/// One input lane of an expression: a per-row column or a broadcast
/// constant, positionally matching the expression's schema.
#[derive(Clone, Copy)]
pub enum Lane<'a> {
    /// Every row sees this one value (a bundle constant).
    Const(&'a Value),
    /// Per-row values backed by a column.
    Col(&'a Column),
}

/// A numeric value lane: per-row `f64`s (borrowed straight from a `Float64`
/// column, or widened/computed into a scratch vector) or one broadcast
/// constant, plus the positions that are SQL NULL.
enum FVals<'a> {
    Const(f64),
    Slice(&'a [f64]),
    Owned(Vec<f64>),
}

struct NumLane<'a> {
    vals: FVals<'a>,
    /// Set bits are NULL rows (their `vals` entries are placeholders).
    /// `None` means null-free.  Only comparison consumers accept nulls.
    nulls: Option<Mask>,
}

impl NumLane<'_> {
    fn slice(&self) -> Option<&[f64]> {
        match &self.vals {
            FVals::Const(_) => None,
            FVals::Slice(s) => Some(s),
            FVals::Owned(v) => Some(v),
        }
    }
}

/// Compile + evaluate `expr` as a predicate over `n` rows, producing a
/// packed mask, or `None` when the expression leaves the vectorizable
/// subset (caller falls back to the scalar row loop).  `lanes[i]` backs
/// `schema` column `i`.
pub fn predicate_mask(expr: &Expr, schema: &Schema, lanes: &[Lane<'_>], n: usize) -> Option<Mask> {
    if !vectorized_enabled() {
        return None;
    }
    eval_bool(expr, schema, lanes, n)
}

/// Compile + evaluate `expr` as a per-row value column.  Engages only when
/// the root guarantees a fixed output type on every row — `Float64` for
/// vectorized arithmetic, `Bool` for predicates — so the produced values
/// are exactly what the scalar evaluator would box.
pub fn computed_column(
    expr: &Expr,
    schema: &Schema,
    lanes: &[Lane<'_>],
    n: usize,
) -> Option<Column> {
    if !vectorized_enabled() {
        return None;
    }
    match expr {
        Expr::Binary { op, .. } if op.is_arithmetic() => {
            let lane = eval_num(expr, schema, lanes, n, false)?;
            let mut col = Column::default();
            match &lane.vals {
                FVals::Const(c) => {
                    for _ in 0..n {
                        col.push_f64(*c);
                    }
                }
                FVals::Slice(s) => {
                    for &v in *s {
                        col.push_f64(v);
                    }
                }
                FVals::Owned(v) => {
                    for &v in v {
                        col.push_f64(v);
                    }
                }
            }
            Some(col)
        }
        Expr::Not(_) => mask_to_bool_column(eval_bool(expr, schema, lanes, n)?, n),
        Expr::Binary { op, .. } if op.is_comparison() || op.is_logical() => {
            mask_to_bool_column(eval_bool(expr, schema, lanes, n)?, n)
        }
        _ => None,
    }
}

/// A compiled numeric lane: one broadcast constant (`COUNT(*)`'s `lit(1)`
/// never materializes a per-repetition vector) or per-row `f64`s —
/// borrowed straight from a `Float64` column, owned only when computed or
/// widened.
pub enum NumVals<'a> {
    /// One value broadcast to every row.
    Const(f64),
    /// Per-row values.
    Col(Cow<'a, [f64]>),
}

/// Compile + evaluate `expr` as null-free per-row numerics (the aggregand
/// path: the scalar referee is `expr.eval(..)?.as_f64()`).  Boolean roots
/// widen to `1.0`/`0.0` exactly like [`Value::as_f64`] — but only roots
/// guaranteed to produce `Bool` on every row (`NOT`, comparisons,
/// `AND`/`OR`).  A bare `Bool` column root must go through `eval_num`
/// instead: `eval_bool` maps null rows to `false` (the `as_bool`
/// convention), while `as_f64(Null)` errors, so compiling one here would
/// diverge from the scalar path.
pub fn numeric_values<'a>(
    expr: &Expr,
    schema: &Schema,
    lanes: &[Lane<'a>],
    n: usize,
) -> Option<NumVals<'a>> {
    if !vectorized_enabled() {
        return None;
    }
    if let Some(lane) = eval_num(expr, schema, lanes, n, false) {
        return Some(match lane.vals {
            FVals::Const(c) => NumVals::Const(c),
            FVals::Slice(s) => NumVals::Col(Cow::Borrowed(s)),
            FVals::Owned(v) => NumVals::Col(Cow::Owned(v)),
        });
    }
    let bool_root = matches!(expr, Expr::Not(_))
        || matches!(expr, Expr::Binary { op, .. } if op.is_comparison() || op.is_logical());
    if !bool_root {
        return None;
    }
    let mask = eval_bool(expr, schema, lanes, n)?;
    Some(NumVals::Col(Cow::Owned(
        (0..n)
            .map(|i| if mask.get(i) { 1.0 } else { 0.0 })
            .collect(),
    )))
}

fn mask_to_bool_column(mask: Mask, n: usize) -> Option<Column> {
    let mut col = Column::default();
    for i in 0..n {
        col.push_bool(mask.get(i));
    }
    Some(col)
}

impl BinaryOp {
    fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div
        )
    }

    fn is_comparison(self) -> bool {
        self.cmp_op().is_some()
    }

    fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    fn cmp_op(self) -> Option<CmpOp> {
        Some(match self {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::NotEq => CmpOp::NotEq,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::LtEq => CmpOp::LtEq,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::GtEq => CmpOp::GtEq,
            _ => return None,
        })
    }
}

/// Resolve a `Column` reference to its lane, or bail on unknown names
/// (scalar will produce the error).
fn lane_of<'a>(name: &str, schema: &Schema, lanes: &[Lane<'a>]) -> Option<Lane<'a>> {
    let idx = schema.index_of(name).ok()?;
    lanes.get(idx).copied()
}

/// True when the scalar evaluator could see `Value::Int64` from this node —
/// the condition under which binary arithmetic takes the checked-integer
/// path instead of `Float64`.
fn could_be_int64(expr: &Expr, schema: &Schema, lanes: &[Lane<'_>]) -> bool {
    match expr {
        Expr::Literal(v) => matches!(v, Value::Int64(_)),
        Expr::Column(name) => match lane_of(name, schema, lanes) {
            Some(Lane::Const(v)) => matches!(v, Value::Int64(_)),
            Some(Lane::Col(col)) => !matches!(
                col.data_type(),
                Some(DataType::Float64) | Some(DataType::Bool)
            ),
            None => true,
        },
        // Vectorized arithmetic sub-nodes produce Float64 on every row (the
        // both-Int64 case declines below), comparisons produce Bool; other
        // shapes decline in `eval_num` anyway.
        Expr::Binary { op, .. } => !op.is_arithmetic() && !op.is_comparison(),
        Expr::Not(_) => false,
    }
}

/// True when the node is SQL NULL on every row (a comparison against it is
/// false everywhere; arithmetic over it errors, so only `eval_bool`'s
/// comparison arm consults this).
fn always_null(expr: &Expr, schema: &Schema, lanes: &[Lane<'_>]) -> bool {
    match expr {
        Expr::Literal(Value::Null) => true,
        Expr::Column(name) => {
            matches!(lane_of(name, schema, lanes), Some(Lane::Const(Value::Null)))
        }
        _ => false,
    }
}

/// Evaluate a numeric sub-expression into an `f64` lane.  `allow_nulls`
/// is true only for direct comparison operands (a comparison maps null
/// rows to false); arithmetic over a nullable lane declines, because the
/// scalar path errors on the first null row.
fn eval_num<'a>(
    expr: &Expr,
    schema: &Schema,
    lanes: &[Lane<'a>],
    n: usize,
    allow_nulls: bool,
) -> Option<NumLane<'a>> {
    let lane = match expr {
        Expr::Literal(v) => NumLane {
            vals: FVals::Const(v.as_f64().ok()?),
            nulls: None,
        },
        Expr::Column(name) => match lane_of(name, schema, lanes)? {
            Lane::Const(v) => NumLane {
                vals: FVals::Const(v.as_f64().ok()?),
                nulls: None,
            },
            Lane::Col(col) => {
                if col.len() != n {
                    return None;
                }
                let nulls = if col.nulls().any() {
                    Some(col.null_mask())
                } else {
                    None
                };
                let vals = match col.data_type()? {
                    DataType::Float64 => FVals::Slice(col.f64_raw()?),
                    // Null placeholders widen to 0.0 under the mask.
                    DataType::Int64 => {
                        FVals::Owned(col.i64_raw()?.iter().map(|&i| i as f64).collect())
                    }
                    DataType::Bool => FVals::Owned(
                        col.bool_raw()?
                            .iter()
                            .map(|&b| if b { 1.0 } else { 0.0 })
                            .collect(),
                    ),
                    _ => return None,
                };
                NumLane { vals, nulls }
            }
        },
        Expr::Binary { op, lhs, rhs } if op.is_arithmetic() => {
            // Both-Int64 would take the scalar checked-integer path.
            if could_be_int64(lhs, schema, lanes) && could_be_int64(rhs, schema, lanes) {
                return None;
            }
            let l = eval_num(lhs, schema, lanes, n, false)?;
            let r = eval_num(rhs, schema, lanes, n, false)?;
            if *op == BinaryOp::Div {
                // Scalar errors on any zero divisor; let it.
                let any_zero = match &r.vals {
                    FVals::Const(c) => *c == 0.0,
                    FVals::Slice(s) => s.contains(&0.0),
                    FVals::Owned(v) => v.contains(&0.0),
                };
                if any_zero {
                    return None;
                }
            }
            let f = match op {
                BinaryOp::Add => |a: f64, b: f64| a + b,
                BinaryOp::Sub => |a: f64, b: f64| a - b,
                BinaryOp::Mul => |a: f64, b: f64| a * b,
                BinaryOp::Div => |a: f64, b: f64| a / b,
                _ => unreachable!("is_arithmetic"),
            };
            let vals = match (&l.vals, &r.vals) {
                (FVals::Const(a), FVals::Const(b)) => FVals::Const(f(*a, *b)),
                (FVals::Const(a), _) => {
                    let rs = r.slice().expect("non-const lane has rows");
                    FVals::Owned(rs.iter().map(|&b| f(*a, b)).collect())
                }
                (_, FVals::Const(b)) => {
                    let ls = l.slice().expect("non-const lane has rows");
                    FVals::Owned(ls.iter().map(|&a| f(a, *b)).collect())
                }
                (_, _) => {
                    let ls = l.slice().expect("non-const lane has rows");
                    let rs = r.slice().expect("non-const lane has rows");
                    if ls.len() != rs.len() {
                        return None;
                    }
                    FVals::Owned(ls.iter().zip(rs).map(|(&a, &b)| f(a, b)).collect())
                }
            };
            NumLane { vals, nulls: None }
        }
        _ => return None,
    };
    if !allow_nulls && lane.nulls.is_some() {
        return None;
    }
    Some(lane)
}

/// Evaluate a boolean sub-expression into a packed mask, or decline.
fn eval_bool(expr: &Expr, schema: &Schema, lanes: &[Lane<'_>], n: usize) -> Option<Mask> {
    match expr {
        Expr::Literal(Value::Bool(b)) => Some(if *b { Mask::ones(n) } else { Mask::zeros(n) }),
        // `as_bool(Null)` is false, not an error.
        Expr::Literal(Value::Null) => Some(Mask::zeros(n)),
        Expr::Literal(_) => None,
        Expr::Column(name) => match lane_of(name, schema, lanes)? {
            Lane::Const(Value::Bool(b)) => Some(if *b { Mask::ones(n) } else { Mask::zeros(n) }),
            Lane::Const(Value::Null) => Some(Mask::zeros(n)),
            Lane::Const(_) => None,
            Lane::Col(col) => {
                if col.len() != n {
                    return None;
                }
                match col.data_type() {
                    // Null rows hold the `false` placeholder, which is what
                    // `as_bool(Null)` evaluates to — no mask-off needed.
                    Some(DataType::Bool) => Some(Mask::from_bools(col.bool_raw()?)),
                    // An untyped column of n rows is all-null.
                    None if !matches!(col.data(), mcdbr_storage::ColumnData::Mixed(_)) => {
                        Some(Mask::zeros(n))
                    }
                    _ => None,
                }
            }
        },
        Expr::Not(inner) => {
            let mut m = eval_bool(inner, schema, lanes, n)?;
            m.not_assign();
            Some(m)
        }
        Expr::Binary { op, lhs, rhs } => {
            if let Some(cmp) = op.cmp_op() {
                // A null side makes every row false under all six operators
                // (sql_eq and the ordering prelude both test nulls first).
                if always_null(lhs, schema, lanes) || always_null(rhs, schema, lanes) {
                    return Some(Mask::zeros(n));
                }
                let l = eval_num(lhs, schema, lanes, n, true)?;
                let r = eval_num(rhs, schema, lanes, n, true)?;
                let mut m = Mask::default();
                match (&l.vals, &r.vals) {
                    (FVals::Const(a), FVals::Const(b)) => {
                        m = if cmp.lane(*a, *b) {
                            Mask::ones(n)
                        } else {
                            Mask::zeros(n)
                        };
                    }
                    (FVals::Const(a), _) => {
                        cmp_const_f64(cmp, *a, r.slice().expect("rows"), &mut m)
                    }
                    (_, FVals::Const(b)) => {
                        cmp_f64_const(cmp, l.slice().expect("rows"), *b, &mut m)
                    }
                    (_, _) => {
                        let ls = l.slice().expect("rows");
                        let rs = r.slice().expect("rows");
                        if ls.len() != rs.len() {
                            return None;
                        }
                        cmp_f64_f64(cmp, ls, rs, &mut m);
                    }
                }
                if let Some(ln) = &l.nulls {
                    m.and_not_assign(ln);
                }
                if let Some(rn) = &r.nulls {
                    m.and_not_assign(rn);
                }
                return Some(m);
            }
            match op {
                // Both operands compile => both are pure and error-free on
                // every row, so the scalar short-circuit is unobservable.
                BinaryOp::And => {
                    let mut l = eval_bool(lhs, schema, lanes, n)?;
                    let r = eval_bool(rhs, schema, lanes, n)?;
                    l.and_assign(&r);
                    Some(l)
                }
                BinaryOp::Or => {
                    let mut l = eval_bool(lhs, schema, lanes, n)?;
                    let r = eval_bool(rhs, schema, lanes, n)?;
                    l.or_assign(&r);
                    Some(l)
                }
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdbr_storage::Field;

    /// The kernel mode is process-global; tests that read or flip it take
    /// this lock so the parallel test runner cannot interleave them.
    static MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn schema(names: &[&str]) -> Schema {
        Schema::new(
            names
                .iter()
                .map(|&n| Field::new(n, DataType::Float64))
                .collect(),
        )
    }

    fn f64_col(vals: &[f64]) -> Column {
        let mut c = Column::default();
        for &v in vals {
            c.push_f64(v);
        }
        c
    }

    /// The scalar referee: evaluate the expression row-wise.
    fn scalar_mask(expr: &Expr, schema: &Schema, lanes: &[Lane<'_>], n: usize) -> Vec<bool> {
        (0..n)
            .map(|i| {
                let row: Vec<Value> = lanes
                    .iter()
                    .map(|l| match l {
                        Lane::Const(v) => (*v).clone(),
                        Lane::Col(c) => c.value_at(i),
                    })
                    .collect();
                expr.eval_bool(schema, &row).unwrap()
            })
            .collect()
    }

    #[test]
    fn vectorized_predicates_match_scalar_including_nan_and_null() {
        let _guard = MODE_LOCK.lock().unwrap();
        let s = schema(&["a", "b"]);
        let mut a = Column::default();
        for v in [1.0, f64::NAN, -2.0, 0.0] {
            a.push_f64(v);
        }
        a.push_null();
        let b = f64_col(&[0.5, 0.5, -2.0, f64::NAN, 3.0]);
        let lanes = [Lane::Col(&a), Lane::Col(&b)];
        let exprs = [
            Expr::col("a").lt(Expr::col("b")),
            Expr::col("a").lt_eq(Expr::col("b")),
            Expr::col("a").eq(Expr::col("b")),
            Expr::col("a").not_eq(Expr::col("b")),
            Expr::col("a").gt_eq(Expr::lit(Value::Float64(0.0))),
            Expr::col("a")
                .lt(Expr::lit(Value::Float64(1.5)))
                .and(Expr::col("b").gt(Expr::lit(Value::Float64(-3.0)))),
            Expr::col("a")
                .gt(Expr::lit(Value::Float64(0.0)))
                .or(Expr::col("b").lt(Expr::lit(Value::Float64(0.0))))
                .not(),
            Expr::col("a").eq(Expr::lit(Value::Null)),
        ];
        for expr in &exprs {
            let mask = predicate_mask(expr, &s, &lanes, 5).expect("in the vectorized subset");
            let want = scalar_mask(expr, &s, &lanes, 5);
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(mask.get(i), w, "{expr} row {i}");
            }
        }
    }

    #[test]
    fn arithmetic_compiles_only_when_scalar_is_float_and_error_free() {
        let _guard = MODE_LOCK.lock().unwrap();
        let s = schema(&["a", "b"]);
        let a = f64_col(&[2.0, 4.0, -1.0]);
        let b = f64_col(&[1.0, 0.5, 2.0]);
        let lanes = [Lane::Col(&a), Lane::Col(&b)];
        // (a * 2 + b / 4) compiles and matches scalar bit-for-bit.
        let expr = Expr::col("a")
            .mul(Expr::lit(Value::Float64(2.0)))
            .add(Expr::col("b").div(Expr::lit(Value::Float64(4.0))));
        let col = computed_column(&expr, &s, &lanes, 3).expect("vectorizable");
        for i in 0..3 {
            let row = [a.value_at(i), b.value_at(i)];
            assert_eq!(col.value_at(i), expr.eval(&s, &row).unwrap(), "row {i}");
        }
        // Division by a lane containing zero declines (scalar errors).
        let z = f64_col(&[1.0, 0.0, 2.0]);
        let zl = [Lane::Col(&a), Lane::Col(&z)];
        assert!(computed_column(&Expr::col("a").div(Expr::col("b")), &s, &zl, 3).is_none());
        // Int64 literals on both sides would take the checked-int path.
        let ii = Expr::lit(Value::Int64(3)).add(Expr::lit(Value::Int64(4)));
        assert!(computed_column(&ii, &s, &lanes, 3).is_none());
    }

    #[test]
    fn force_scalar_mode_disables_compilation() {
        let _guard = MODE_LOCK.lock().unwrap();
        let s = schema(&["a"]);
        let a = f64_col(&[1.0, 2.0]);
        let lanes = [Lane::Col(&a)];
        let expr = Expr::col("a").gt(Expr::lit(Value::Float64(1.5)));
        set_kernel_mode(KernelMode::ForceScalar);
        assert!(predicate_mask(&expr, &s, &lanes, 2).is_none());
        set_kernel_mode(KernelMode::Auto);
        assert!(predicate_mask(&expr, &s, &lanes, 2).is_some());
    }
}
