//! CPU operator implementations.
//!
//! Each operator performs real work over the batch and returns the simulated
//! time charged against the worker's [`CpuCostModel`]. Within a compiled
//! pipeline these run back-to-back over one packet — the data makes a single
//! trip through the core (the JIT fusion property, §2.2); only the columns an
//! operator actually touches are charged for bandwidth.

use hape_sim::{CpuCostModel, SimTime};
use hape_storage::Batch;

use crate::agg::{AggSpec, AggState};
use crate::expr::{eval, eval_bool, Expr};

/// Cost of a source scan delivering `bytes` from local memory.
pub fn scan_cost(bytes: u64, model: &CpuCostModel) -> SimTime {
    model.seq_read(bytes)
}

/// Cost of a fused filter over `rows` input rows at `pred_ops` predicate
/// operations per row (see [`filter`]): the predicate evaluation only —
/// survivors stay in selection vectors.
pub fn filter_cost(rows: u64, pred_ops: f64, model: &CpuCostModel) -> SimTime {
    model.compute_simd(rows, pred_ops + 1.0)
}

/// Cost of a fused projection of `rows` rows at `ops` expression operations
/// per row (see [`project`]).
pub fn project_cost(rows: u64, ops: f64, model: &CpuCostModel) -> SimTime {
    model.compute_simd(rows, ops + 0.5)
}

/// Cost of folding `rows` input rows into an aggregation whose group table
/// holds `n_groups` groups *after* the fold (see [`agg_update`]): expression
/// evaluation plus random accesses into the group hash table. Split out so
/// the control plane can price a packet's fold from recorded statistics
/// while the actual fold runs on the data plane.
pub fn agg_cost(spec: &AggSpec, rows: u64, n_groups: usize, model: &CpuCostModel) -> SimTime {
    let table_bytes = (n_groups.max(1) * 64) as u64;
    model.compute_simd(rows, spec.ops_per_row()) + model.random_accesses(rows, table_bytes)
}

/// Filter: keep rows where `pred` holds. Returns the surviving batch.
///
/// Charged as a *fused* operator: the pipeline's source scan already paid
/// for streaming the packet, and in JIT-compiled pipelines survivors stay
/// in registers/selection vectors (§2.2) — so a fused filter costs only its
/// predicate evaluation. Consumers that genuinely materialise (vector-at-a-
/// time engines, pipeline breakers) charge that themselves.
pub fn filter(batch: &Batch, pred: &Expr, model: &CpuCostModel) -> (Batch, SimTime) {
    let n = batch.rows() as u64;
    let keep = eval_bool(pred, batch);
    let sel: Vec<u32> =
        keep.iter().enumerate().filter(|(_, &k)| k).map(|(i, _)| i as u32).collect();
    let out = Batch { columns: batch.columns.iter().map(|c| c.take(&sel)).collect() };
    let compute = filter_cost(n, pred.ops_per_row(), model);
    (out, compute)
}

/// Materialise one projection expression over a batch. A bare reference to
/// an `f64` column is a zero-copy view of the Arc-backed storage; everything
/// else evaluates into a fresh `f64` column.
pub fn project_column(e: &Expr, batch: &Batch) -> hape_storage::Column {
    if let Expr::Col(i) = e {
        let c = batch.col(*i);
        if c.data_type() == hape_storage::table::DataType::F64 {
            return c.clone();
        }
    }
    hape_storage::Column::from_f64(eval(e, batch).into_f64().into_owned())
}

/// Project: produce one `f64` column per expression.
pub fn project(batch: &Batch, exprs: &[Expr], model: &CpuCostModel) -> (Batch, SimTime) {
    let n = batch.rows() as u64;
    let mut cols = Vec::with_capacity(exprs.len());
    let mut ops = 0.0;
    for e in exprs {
        ops += e.ops_per_row();
        cols.push(project_column(e, batch));
    }
    let out = Batch { columns: cols };
    // Fused projection: inputs were streamed by the scan, outputs stay in
    // registers for the next fused operator.
    let t = project_cost(n, ops, model);
    (out, t)
}

/// Fold one batch into an aggregation state.
pub fn agg_update(state: &mut AggState, batch: &Batch, model: &CpuCostModel) -> SimTime {
    let n = batch.rows() as u64;
    let spec = state.spec().clone();
    state.update(batch);
    // Fused aggregation: the argument columns were streamed by the scan;
    // what remains is expression evaluation plus random accesses into the
    // (usually tiny) group hash table.
    agg_cost(&spec, n, state.n_groups(), model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use hape_sim::CpuSpec;
    use hape_storage::Column;

    fn model() -> CpuCostModel {
        CpuCostModel::new(CpuSpec::xeon_e5_2650l_v3(), 12)
    }

    fn batch(n: usize) -> Batch {
        Batch::new(vec![
            Column::from_i32((0..n as i32).collect()),
            Column::from_f64((0..n).map(|i| i as f64).collect()),
        ])
    }

    #[test]
    fn filter_selects_and_charges() {
        let b = batch(1000);
        let pred = Expr::lt(Expr::col(0), Expr::LitI32(100));
        let (out, t) = filter(&b, &pred, &model());
        assert_eq!(out.rows(), 100);
        assert!(t.as_ns() > 0.0);
        // All columns survive, filtered.
        assert_eq!(out.col(1).as_f64()[99], 99.0);
    }

    #[test]
    fn filter_cost_scales_with_input() {
        let pred = Expr::lt(Expr::col(0), Expr::LitI32(0));
        let (_, small) = filter(&batch(1_000), &pred, &model());
        let (_, large) = filter(&batch(100_000), &pred, &model());
        assert!(large.as_secs() > 50.0 * small.as_secs());
    }

    #[test]
    fn project_computes() {
        let b = batch(10);
        let (out, _) = project(&b, &[Expr::mul(Expr::col(1), Expr::LitF64(2.0))], &model());
        assert_eq!(out.col(0).as_f64()[3], 6.0);
    }

    #[test]
    fn agg_update_folds_and_charges() {
        let spec = AggSpec::ungrouped(vec![(AggFunc::Sum, Expr::col(1))]);
        let mut st = AggState::new(spec);
        let t = agg_update(&mut st, &batch(100), &model());
        assert!(t.as_ns() > 0.0);
        assert_eq!(st.finish()[0].1[0], (0..100).sum::<usize>() as f64);
    }
}
