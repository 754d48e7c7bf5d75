//! GPU operator implementations (kernels on the simulator).
//!
//! Operators process the batch block-by-block inside a fused kernel, exactly
//! as the paper's GPU device provider generates them: streaming, coalesced
//! reads of the referenced columns, register-resident intermediates, and
//! scratchpad-based aggregation (one partial aggregate per block, merged on
//! the host side afterwards).

use hape_sim::{BlockCtx, GpuSim, KernelReport, LaunchConfig, Region, SimTime};
use hape_storage::Batch;

use crate::agg::AggSpec;
use crate::expr::{eval_bool, Expr};

/// Rows each thread block processes.
pub const ITEMS_PER_BLOCK: usize = 8192;
/// Threads per block for operator kernels.
pub const BLOCK_THREADS: usize = 256;

/// Launch geometry for `rows` items.
pub fn grid_for(rows: usize) -> LaunchConfig {
    LaunchConfig::new(rows.div_ceil(ITEMS_PER_BLOCK).max(1), BLOCK_THREADS, 0)
}

fn bytes_used_per_row(e: &Expr, batch: &Batch) -> u64 {
    e.columns_used().iter().map(|&i| batch.col(i).data_type().width() as u64).sum()
}

/// The rows this block covers.
fn block_range(blk: &BlockCtx<'_>, rows: usize) -> (usize, usize) {
    let start = blk.block_idx * ITEMS_PER_BLOCK;
    let end = (start + ITEMS_PER_BLOCK).min(rows);
    (start, end.max(start))
}

/// Per-block survivor counts of a filter's selection vector — the
/// statistic [`filter_cost`] replays instead of re-evaluating the
/// predicate. `sel` holds the surviving row indices in ascending order.
pub fn block_survivors(sel: &[u32], rows: usize) -> Vec<u32> {
    let mut counts = vec![0u32; rows.div_ceil(ITEMS_PER_BLOCK).max(1)];
    for &i in sel {
        counts[i as usize / ITEMS_PER_BLOCK] += 1;
    }
    counts
}

/// Cost-only replay of [`filter`] from recorded statistics: `rows` input
/// rows whose predicate touches `row_bytes` per row, `out_row_bytes` per
/// surviving row, and the per-block survivor counts the functional pass
/// observed (see [`block_survivors`]). Charges exactly what [`filter`]
/// charges, without re-running the predicate — this is what lets the
/// data plane evaluate a packet once and price it for every device class.
pub fn filter_cost(
    sim: &GpuSim,
    region: Region,
    rows: usize,
    row_bytes: u64,
    out_row_bytes: u64,
    pred_ops: f64,
    survivors: &[u32],
) -> KernelReport {
    sim.launch(&grid_for(rows), |blk| {
        let (start, end) = block_range(blk, rows);
        if start >= end {
            return;
        }
        let n = end - start;
        let selected = survivors.get(blk.block_idx).copied().unwrap_or(0);
        // Coalesced read of referenced columns, register compute, warp-level
        // compaction, coalesced write of survivors.
        blk.global_read_stream(&region, start as u64 * row_bytes, n as u64 * row_bytes);
        blk.compute(n as u64, pred_ops + 2.0);
        blk.global_write_stream(selected as u64 * out_row_bytes);
    })
}

/// GPU filter: evaluates `pred` per block and compacts survivors.
///
/// `region` is the device-memory residence of the input batch.
pub fn filter(
    sim: &GpuSim,
    region: Region,
    batch: &Batch,
    pred: &Expr,
) -> (Batch, KernelReport) {
    let rows = batch.rows();
    let row_bytes = bytes_used_per_row(pred, batch).max(1);
    let out_row_bytes: u64 = batch.columns.iter().map(|c| c.data_type().width() as u64).sum();
    let keep = eval_bool(pred, batch);
    let sel: Vec<u32> =
        keep.iter().enumerate().filter(|(_, &k)| k).map(|(i, _)| i as u32).collect();
    let report = filter_cost(
        sim,
        region,
        rows,
        row_bytes,
        out_row_bytes,
        pred.ops_per_row(),
        &block_survivors(&sel, rows),
    );
    let out = Batch { columns: batch.columns.iter().map(|c| c.take(&sel)).collect() };
    (out, report)
}

/// GPU aggregation cost: per-block partial aggregates in the scratchpad.
/// Charges the fused-aggregation kernel for `batch` under `spec` without
/// folding any state — the fold itself ([`crate::AggState::update`]) runs on the
/// data plane, in routed packet order.
pub fn agg_cost(sim: &GpuSim, region: Region, batch: &Batch, spec: &AggSpec) -> KernelReport {
    let rows = batch.rows();
    let mut row_bytes = 0u64;
    for (_, e) in &spec.aggs {
        row_bytes += bytes_used_per_row(e, batch);
    }
    for &g in &spec.group_by {
        row_bytes += batch.col(g).data_type().width() as u64;
    }
    let row_bytes = row_bytes.max(1);
    // Scratchpad for per-block group table: 64B per group slot, pessimistic
    // 1024 slots.
    let smem = 16 << 10;
    let cfg = LaunchConfig::new(rows.div_ceil(ITEMS_PER_BLOCK).max(1), BLOCK_THREADS, smem);

    sim.launch(&cfg, |blk| {
        let (start, end) = block_range(blk, rows);
        if start >= end {
            return;
        }
        let n = end - start;
        blk.global_read_stream(&region, start as u64 * row_bytes, n as u64 * row_bytes);
        blk.compute(n as u64, spec.ops_per_row());
        // One scratchpad atomic per row per aggregate; group keys map to
        // scratchpad words. With few groups the same-word serialisation is
        // mitigated by warp-level pre-aggregation: model one atomic per warp
        // per aggregate plus one smem update per row.
        let words: Vec<u32> = (0..n.min(1024) as u32).map(|i| i % 241).collect();
        blk.smem_access(&words);
        let warp_atomics: Vec<u32> = (0..(n / 32).max(1) as u32).map(|i| i % 61).collect();
        for _ in &spec.aggs {
            blk.smem_atomic(&warp_atomics);
        }
    })
}

/// Cost-only helper: a fused streaming pass of `bytes` through a GPU
/// pipeline stage (used for scans and for projections whose outputs stay in
/// registers).
pub fn stream_pass(sim: &GpuSim, region: Region, bytes: u64, ops_per_item: f64) -> SimTime {
    let rows = (bytes / 8).max(1) as usize;
    let report = sim.launch(&grid_for(rows), |blk| {
        let (start, end) = block_range(blk, rows);
        if start >= end {
            return;
        }
        let n = (end - start) as u64;
        blk.global_read_stream(&region, start as u64 * 8, n * 8);
        blk.compute(n, ops_per_item);
    });
    report.time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggFunc, AggState};
    use hape_sim::{Fidelity, GpuSpec};
    use hape_storage::Column;

    fn sim() -> GpuSim {
        GpuSim::new(GpuSpec::gtx_1080(), Fidelity::Analytic)
    }

    fn batch(n: usize) -> Batch {
        Batch::new(vec![
            Column::from_i32((0..n as i32).collect()),
            Column::from_f64((0..n).map(|i| i as f64).collect()),
        ])
    }

    #[test]
    fn gpu_filter_matches_cpu_semantics() {
        let b = batch(20_000);
        let pred = Expr::lt(Expr::col(0), Expr::LitI32(5_000));
        let region = Region::at(1 << 20, b.bytes());
        let (out, report) = filter(&sim(), region, &b, &pred);
        assert_eq!(out.rows(), 5_000);
        assert_eq!(out.col(0).as_i32()[4_999], 4_999);
        assert!(report.time.as_us() > 0.0);
        assert!(report.stats.dram_bytes > 0.0);
    }

    #[test]
    fn gpu_agg_matches_reference() {
        let b = batch(10_000);
        let spec = AggSpec::ungrouped(vec![
            (AggFunc::Sum, Expr::col(1)),
            (AggFunc::Count, Expr::col(1)),
        ]);
        let mut st = AggState::new(spec);
        let region = Region::at(1 << 20, b.bytes());
        let report = agg_cost(&sim(), region, &b, st.spec());
        st.update(&b);
        let rows = st.finish();
        assert_eq!(rows[0].1[0], (0..10_000u64).sum::<u64>() as f64);
        assert_eq!(rows[0].1[1], 10_000.0);
        assert!(report.stats.smem_ops > 0);
    }

    #[test]
    fn filter_time_scales_with_rows() {
        let pred = Expr::lt(Expr::col(0), Expr::LitI32(0));
        let region = Region::at(1 << 20, 1 << 30);
        let (_, small) = filter(&sim(), region, &batch(100_000), &pred);
        let (_, large) = filter(&sim(), region, &batch(4_000_000), &pred);
        assert!(
            large.time.as_secs() > 5.0 * small.time.as_secs(),
            "large={} small={}",
            large.time,
            small.time
        );
    }

    #[test]
    fn stream_pass_near_bandwidth() {
        let s = sim();
        let bytes = 1u64 << 28;
        let t = stream_pass(&s, Region::at(1 << 20, bytes), bytes, 1.0);
        let ideal = bytes as f64 / s.spec().dram_bw;
        assert!(t.as_secs() < ideal * 3.0, "{} vs ideal {}", t.as_secs(), ideal);
    }
}
