//! Order-sensitive stateful aggregates: the behavioral-analytics suite.
//!
//! Sessionization, window funnels, retention cohorts and sequence matching
//! all share one shape: the input is a stream of `(user, timestamp, event)`
//! rows sorted by `(user, timestamp)`, and the operator runs a small state
//! machine *sequentially* over each user's run, emitting one row per user.
//! That sequential per-user dependency is exactly what makes the family
//! GPU-hostile — the chain traversal cannot be latency-hidden the way the
//! paper's streaming scans and hash probes can (§2.1) — so these operators
//! are the stress test for a cost model that claims placement follows from
//! hardware, not fiat: the optimizer must *price* the GPU's random-access
//! penalty ([`gpu_cost`]) against the CPU's cache-friendly run scan
//! ([`cpu_cost`]) and route accordingly.
//!
//! The kernels assume each packet holds whole users (the engine aligns
//! packet boundaries on user changes), so per-packet state machines are
//! exact and the output is independent of packet size, thread count and
//! device placement.

use hape_sim::{CpuCostModel, GpuSim, Region, SimTime};
use hape_storage::table::DataType;
use hape_storage::{Batch, Column};

use crate::gpu::grid_for;

/// GPU slowdown factor for the sequential per-user state walk, applied on
/// top of [`GpuSpec::random_access_ns`](hape_sim::GpuSpec::random_access_ns):
/// one thread owns one user's run, so consecutive state transitions form a
/// serial dependency chain — warp lanes serialise on divergent run lengths
/// and every access drags a full device-memory line it cannot amortise
/// across the warp. The factor models warp-width serialisation (×32) with
/// partial overlap across resident warps.
pub const GPU_SEQ_CHAIN_FACTOR: f64 = 192.0;

/// One order-sensitive per-user aggregate. Column indices are positions in
/// the operator's *input* batch; event codes are dictionary codes resolved
/// at lowering time (an unknown event name resolves to `-1`, which matches
/// no row — the standard missing-dictionary-entry sentinel).
///
/// Every variant emits one output row per user with all-`i64` columns,
/// user first:
///
/// | variant | output columns |
/// |---|---|
/// | `Sessionize` | `user, sessions, events` |
/// | `WindowFunnel` | `user, depth` |
/// | `Retention` | `user, in_cohort, ret_1 … ret_k` |
/// | `SequenceMatch` | `user, matched` |
#[derive(Debug, Clone, PartialEq)]
pub enum StatefulAgg {
    /// Split each user's run into sessions separated by timestamp gaps
    /// exceeding `gap`; emits the session count and the event count.
    Sessionize {
        /// User-id column (integer-typed).
        user_col: usize,
        /// Timestamp column (integer-typed, ascending within a user).
        ts_col: usize,
        /// Maximum intra-session gap between consecutive events.
        gap: i64,
    },
    /// Deepest prefix of `steps` a user completes in order within `window`
    /// of the chain's first step (the ClickHouse `windowFunnel` shape).
    WindowFunnel {
        /// User-id column.
        user_col: usize,
        /// Timestamp column.
        ts_col: usize,
        /// Event-type column (dictionary-encoded strings).
        event_col: usize,
        /// Funnel step event codes, in order.
        steps: Vec<i32>,
        /// Window from the chain's first step to its last.
        window: i64,
    },
    /// Cohort membership and per-period return flags: a user is in the
    /// cohort at the first `cohort_event`; `ret_i` is set when a
    /// `return_events[i]` event lands in `(cohort_ts + i·period,
    /// cohort_ts + (i+1)·period]` — "returned in week i+1".
    Retention {
        /// User-id column.
        user_col: usize,
        /// Timestamp column.
        ts_col: usize,
        /// Event-type column.
        event_col: usize,
        /// The cohort-defining event code.
        cohort_event: i32,
        /// One return event code per period slot.
        return_events: Vec<i32>,
        /// Width of each return window.
        period: i64,
    },
    /// Whether the user's events contain `pattern` as a subsequence.
    SequenceMatch {
        /// User-id column.
        user_col: usize,
        /// Timestamp column.
        ts_col: usize,
        /// Event-type column.
        event_col: usize,
        /// Event codes to match in order.
        pattern: Vec<i32>,
    },
}

impl StatefulAgg {
    /// The user-id column the engine aligns packet boundaries on.
    pub fn user_col(&self) -> usize {
        match self {
            StatefulAgg::Sessionize { user_col, .. }
            | StatefulAgg::WindowFunnel { user_col, .. }
            | StatefulAgg::Retention { user_col, .. }
            | StatefulAgg::SequenceMatch { user_col, .. } => *user_col,
        }
    }

    /// The timestamp column.
    pub fn ts_col(&self) -> usize {
        match self {
            StatefulAgg::Sessionize { ts_col, .. }
            | StatefulAgg::WindowFunnel { ts_col, .. }
            | StatefulAgg::Retention { ts_col, .. }
            | StatefulAgg::SequenceMatch { ts_col, .. } => *ts_col,
        }
    }

    /// The event-type column, when the variant inspects event types.
    pub fn event_col(&self) -> Option<usize> {
        match self {
            StatefulAgg::Sessionize { .. } => None,
            StatefulAgg::WindowFunnel { event_col, .. }
            | StatefulAgg::Retention { event_col, .. }
            | StatefulAgg::SequenceMatch { event_col, .. } => Some(*event_col),
        }
    }

    /// Names of the output columns the aggregate appends after the user
    /// column (the user column keeps its input name).
    pub fn out_names(&self) -> Vec<String> {
        match self {
            StatefulAgg::Sessionize { .. } => vec!["sessions".into(), "events".into()],
            StatefulAgg::WindowFunnel { .. } => vec!["funnel_depth".into()],
            StatefulAgg::Retention { return_events, .. } => {
                let mut names = vec!["in_cohort".to_string()];
                names.extend((1..=return_events.len()).map(|i| format!("ret{i}")));
                names
            }
            StatefulAgg::SequenceMatch { .. } => vec!["matched".into()],
        }
    }

    /// Total output width (user column included).
    pub fn out_width(&self) -> usize {
        1 + self.out_names().len()
    }

    /// Per-user state footprint in bytes (accumulators plus per-level
    /// chain timestamps), the working set the cost arms charge random
    /// accesses against.
    pub fn state_bytes_per_user(&self) -> u64 {
        match self {
            StatefulAgg::Sessionize { .. } => 32,
            StatefulAgg::WindowFunnel { steps, .. } => 16 * (steps.len() as u64 + 2),
            StatefulAgg::Retention { return_events, .. } => {
                16 * (return_events.len() as u64 + 2)
            }
            StatefulAgg::SequenceMatch { pattern, .. } => 16 + 8 * pattern.len() as u64,
        }
    }

    /// Approximate state-machine operations per input row (compare,
    /// branch, accumulator update), for compute charging.
    pub fn ops_per_row(&self) -> f64 {
        match self {
            StatefulAgg::Sessionize { .. } => 4.0,
            StatefulAgg::WindowFunnel { steps, .. } => 4.0 + steps.len() as f64,
            StatefulAgg::Retention { return_events, .. } => 4.0 + return_events.len() as f64,
            StatefulAgg::SequenceMatch { .. } => 4.0,
        }
    }

    /// Short label for plan rendering (`explain`).
    pub fn label(&self) -> String {
        match self {
            StatefulAgg::Sessionize { gap, .. } => format!("sessionize(gap={gap})"),
            StatefulAgg::WindowFunnel { steps, window, .. } => {
                format!("window_funnel(steps={}, window={window})", steps.len())
            }
            StatefulAgg::Retention { return_events, period, .. } => {
                format!("retention(returns={}, period={period})", return_events.len())
            }
            StatefulAgg::SequenceMatch { pattern, .. } => {
                format!("sequence_match(len={})", pattern.len())
            }
        }
    }
}

/// Read an integer-valued column entry as `i64` (string columns read their
/// dictionary code). Panics on `f64` columns — lowering type-checks the
/// operator's inputs, so a float here is a plan-construction bug.
pub fn int_value_at(col: &Column, row: usize) -> i64 {
    match col.data_type() {
        DataType::I32 | DataType::Date => col.as_i32()[row] as i64,
        DataType::I64 => col.as_i64()[row],
        DataType::Str => col.as_codes()[row] as i64,
        DataType::F64 => panic!("stateful aggregate over a float column"),
    }
}

/// Split a batch into packets of roughly `rows_per_packet` rows whose
/// boundaries never cut a user's run in two: each packet ends at the last
/// user boundary at or before the size target, or stretches to the run's
/// end when a single user's history exceeds the target. Concatenating the
/// per-packet [`run_stateful`] outputs therefore equals the whole-batch
/// output — the invariant the engine's packet loop relies on.
pub fn split_user_aligned(
    batch: &Batch,
    user_col: usize,
    rows_per_packet: usize,
) -> Vec<Batch> {
    let n = batch.rows();
    if n == 0 {
        return Vec::new();
    }
    let col = batch.col(user_col);
    let same_user = |i: usize| int_value_at(col, i) == int_value_at(col, i - 1);
    let mut packets = Vec::new();
    let mut cur = 0usize;
    while cur < n {
        let target = (cur + rows_per_packet.max(1)).min(n);
        let mut end = target;
        if end < n {
            while end > cur + 1 && same_user(end) {
                end -= 1;
            }
            if end == cur + 1 && same_user(end) {
                // One user's run exceeds the packet target: extend to the
                // run's end rather than splitting it.
                end = target;
                while end < n && same_user(end) {
                    end += 1;
                }
            }
        }
        packets.push(batch.slice(cur, end - cur));
        cur = end;
    }
    packets
}

fn sessionize_run(ts: &[i64], gap: i64) -> (i64, i64) {
    let mut sessions = 1i64;
    for w in ts.windows(2) {
        if w[1] - w[0] > gap {
            sessions += 1;
        }
    }
    (sessions, ts.len() as i64)
}

fn funnel_run(ts: &[i64], ev: &[i64], steps: &[i32], window: i64) -> i64 {
    let k = steps.len();
    // start[j] = start timestamp of a chain that has matched j steps.
    let mut start: Vec<Option<i64>> = vec![None; k + 1];
    for (&t, &e) in ts.iter().zip(ev) {
        for j in (1..=k).rev() {
            if e != steps[j - 1] as i64 {
                continue;
            }
            if j == 1 {
                // A later chain start leaves more window headroom.
                start[1] = Some(t);
            } else if let Some(s) = start[j - 1] {
                if t - s <= window {
                    start[j] = Some(s);
                }
            }
        }
    }
    (1..=k).rev().find(|&j| start[j].is_some()).unwrap_or(0) as i64
}

fn retention_run(
    ts: &[i64],
    ev: &[i64],
    cohort_event: i32,
    return_events: &[i32],
    period: i64,
) -> Vec<i64> {
    let cohort_ts = ts.iter().zip(ev).find(|(_, &e)| e == cohort_event as i64).map(|(&t, _)| t);
    let mut out = Vec::with_capacity(1 + return_events.len());
    out.push(cohort_ts.is_some() as i64);
    for (i, &re) in return_events.iter().enumerate() {
        let hit = cohort_ts.is_some_and(|t0| {
            let (lo, hi) = (t0 + i as i64 * period, t0 + (i as i64 + 1) * period);
            ts.iter().zip(ev).any(|(&t, &e)| e == re as i64 && t > lo && t <= hi)
        });
        out.push(hit as i64);
    }
    out
}

fn sequence_match_run(ev: &[i64], pattern: &[i32]) -> i64 {
    let mut next = 0usize;
    for &e in ev {
        if next < pattern.len() && e == pattern[next] as i64 {
            next += 1;
        }
    }
    (next == pattern.len()) as i64
}

/// Run a stateful aggregate over one packet sorted by `(user, ts)`: one
/// sequential state machine per user run, one all-`i64` output row per
/// user. Returns the output batch and the number of users seen (the
/// statistic the cost arms replay).
pub fn run_stateful(agg: &StatefulAgg, batch: &Batch) -> (Batch, usize) {
    let n = batch.rows();
    let user = batch.col(agg.user_col());
    let ts_col = batch.col(agg.ts_col());
    let ev_col = agg.event_col().map(|c| batch.col(c));
    let width = agg.out_width();
    let mut out: Vec<Vec<i64>> = vec![Vec::new(); width];
    let mut users = 0usize;
    let mut start = 0usize;
    let mut ts_buf: Vec<i64> = Vec::new();
    let mut ev_buf: Vec<i64> = Vec::new();
    while start < n {
        let uid = int_value_at(user, start);
        let mut end = start + 1;
        while end < n && int_value_at(user, end) == uid {
            end += 1;
        }
        ts_buf.clear();
        ts_buf.extend((start..end).map(|r| int_value_at(ts_col, r)));
        debug_assert!(ts_buf.windows(2).all(|w| w[0] <= w[1]), "run not ts-sorted");
        if let Some(ev) = ev_col {
            ev_buf.clear();
            ev_buf.extend((start..end).map(|r| int_value_at(ev, r)));
        }
        users += 1;
        out[0].push(uid);
        match agg {
            StatefulAgg::Sessionize { gap, .. } => {
                let (sessions, events) = sessionize_run(&ts_buf, *gap);
                out[1].push(sessions);
                out[2].push(events);
            }
            StatefulAgg::WindowFunnel { steps, window, .. } => {
                out[1].push(funnel_run(&ts_buf, &ev_buf, steps, *window));
            }
            StatefulAgg::Retention { cohort_event, return_events, period, .. } => {
                let flags =
                    retention_run(&ts_buf, &ev_buf, *cohort_event, return_events, *period);
                for (slot, v) in out[1..].iter_mut().zip(flags) {
                    slot.push(v);
                }
            }
            StatefulAgg::SequenceMatch { pattern, .. } => {
                out[1].push(sequence_match_run(&ev_buf, pattern));
            }
        }
        start = end;
    }
    let columns = out.into_iter().map(Column::from_i64).collect();
    (Batch { columns }, users)
}

/// CPU cost of a stateful pass over `rows` input rows covering `users`
/// user runs: a SIMD-hostile but cache-friendly sequential scan (the state
/// machine fits registers while a run streams through) plus one random
/// excursion into the per-user state region per run.
pub fn cpu_cost(
    rows: u64,
    users: u64,
    state_bytes: u64,
    ops_per_row: f64,
    model: &CpuCostModel,
) -> SimTime {
    model.compute_simd(rows, ops_per_row) + model.random_accesses(users, state_bytes.max(64))
}

/// GPU cost of the same pass: the packet streams through device memory
/// like any kernel, but every row's state transition is one step of a
/// serial per-user chain — priced as a random device-memory access
/// ([`GpuSpec::random_access_ns`](hape_sim::GpuSpec::random_access_ns))
/// stretched by [`GPU_SEQ_CHAIN_FACTOR`]. This is the term that makes the
/// behavioral suite lose on GPUs in proportion to the hardware model, not
/// by fiat: scale the GPU's memory system up and the penalty shrinks with
/// it.
pub fn gpu_cost(
    sim: &GpuSim,
    region: Region,
    rows: usize,
    row_bytes: u64,
    state_bytes: u64,
    ops_per_row: f64,
) -> SimTime {
    let streamed = sim.launch(&grid_for(rows.max(1)), |blk| {
        let start = blk.block_idx * crate::gpu::ITEMS_PER_BLOCK;
        let end = (start + crate::gpu::ITEMS_PER_BLOCK).min(rows);
        if start >= end {
            return;
        }
        let n = (end - start) as u64;
        blk.global_read_stream(&region, start as u64 * row_bytes, n * row_bytes);
        blk.compute(n, ops_per_row);
    });
    let chain_ns =
        rows as f64 * sim.spec().random_access_ns(state_bytes.max(64)) * GPU_SEQ_CHAIN_FACTOR;
    streamed.time + SimTime::from_ns(chain_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_sim::{CpuSpec, Fidelity, GpuSpec};

    /// The fixed reference log the oracle tests hand-compute against:
    /// three users, sorted by (user, ts). Dictionary codes intern in
    /// first-seen order: view=0 cart=1 purchase=2 signup=3 visit=4.
    fn tiny_log() -> Batch {
        #[rustfmt::skip]
        let (users, ts, ev) = (
            vec![1, 1, 1, 1,      2, 2, 2,        3, 3],
            vec![0, 100, 5000, 5200,  0, 50, 9000,    10, 4000],
            vec!["view", "cart", "purchase", "view",
                 "signup", "view", "visit",
                 "view", "purchase"],
        );
        Batch::new(vec![Column::from_i32(users), Column::from_i32(ts), Column::from_strs(ev)])
    }

    #[test]
    fn sessionize_oracle() {
        // gap=1000: user1 splits at 100→5000 (2 sessions, 4 events);
        // user2 splits at 50→9000 (2 sessions, 3 events); user3 splits
        // at 10→4000 (2 sessions, 2 events).
        let agg = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1000 };
        let (out, users) = run_stateful(&agg, &tiny_log());
        assert_eq!(users, 3);
        assert_eq!(out.col(0).as_i64(), &[1, 2, 3]);
        assert_eq!(out.col(1).as_i64(), &[2, 2, 2]);
        assert_eq!(out.col(2).as_i64(), &[4, 3, 2]);
    }

    #[test]
    fn sessionize_single_session_when_gap_large() {
        let agg = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1 << 30 };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[1, 1, 1]);
    }

    #[test]
    fn window_funnel_oracle() {
        // Steps view→cart→purchase. user1: view@0, cart@100, purchase@5000
        // is outside window=1000 of the chain start, so depth 2 — but the
        // view@... no later view restarts the chain, depth stays 2.
        // user2: view@50 only → depth 1. user3: view@10, purchase@4000 →
        // depth 1 (no cart).
        let agg = StatefulAgg::WindowFunnel {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            steps: vec![0, 1, 2],
            window: 1000,
        };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[2, 1, 1]);
        // A wide window completes user1's funnel.
        let agg = StatefulAgg::WindowFunnel {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            steps: vec![0, 1, 2],
            window: 10_000,
        };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[3, 1, 1]);
    }

    #[test]
    fn funnel_restarts_prefer_later_chain_start() {
        // view@0 (chain start), cart@900, view@1000 (restart), cart@1100,
        // purchase@1900: the restarted chain fits window=1000 end to end.
        let b = Batch::new(vec![
            Column::from_i32(vec![7, 7, 7, 7, 7]),
            Column::from_i32(vec![0, 900, 1000, 1100, 1900]),
            Column::from_strs(["view", "cart", "view", "cart", "purchase"]),
        ]);
        let agg = StatefulAgg::WindowFunnel {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            steps: vec![0, 1, 2],
            window: 1000,
        };
        let (out, _) = run_stateful(&agg, &b);
        assert_eq!(out.col(1).as_i64(), &[3]);
    }

    #[test]
    fn retention_oracle() {
        // Cohort = signup (code 3), returns = [visit, visit], period 5000.
        // user2 signs up at ts 0; visit@9000 lands in window 2
        // (5000, 10000] → ret1=0, ret2=1. Users 1 and 3 never sign up.
        let agg = StatefulAgg::Retention {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            cohort_event: 3,
            return_events: vec![4, 4],
            period: 5000,
        };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[0, 1, 0], "in_cohort");
        assert_eq!(out.col(2).as_i64(), &[0, 0, 0], "ret1");
        assert_eq!(out.col(3).as_i64(), &[0, 1, 0], "ret2");
    }

    #[test]
    fn sequence_match_oracle() {
        // Pattern view→purchase: user1 (view@0 … purchase@5000) and user3
        // (view@10, purchase@4000) match; user2 has no purchase.
        let agg = StatefulAgg::SequenceMatch {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            pattern: vec![0, 2],
        };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[1, 0, 1]);
    }

    #[test]
    fn unknown_event_code_sentinel_matches_nothing() {
        let agg = StatefulAgg::SequenceMatch {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            pattern: vec![-1],
        };
        let (out, _) = run_stateful(&agg, &tiny_log());
        assert_eq!(out.col(1).as_i64(), &[0, 0, 0]);
    }

    #[test]
    fn output_is_packet_concatenation_of_user_runs() {
        // Splitting the log at a user boundary and concatenating the two
        // packet outputs must equal the whole-batch output — the invariant
        // the engine's aligned packet split relies on.
        let log = tiny_log();
        let agg = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1000 };
        let (whole, _) = run_stateful(&agg, &log);
        let (a, _) = run_stateful(&agg, &log.slice(0, 4));
        let (b, _) = run_stateful(&agg, &log.slice(4, 5));
        for c in 0..whole.columns.len() {
            let merged: Vec<i64> =
                a.col(c).as_i64().iter().chain(b.col(c).as_i64()).copied().collect();
            assert_eq!(whole.col(c).as_i64(), &merged[..]);
        }
    }

    #[test]
    fn split_user_aligned_never_cuts_a_run() {
        let log = tiny_log(); // users [1×4, 2×3, 3×2]
        for target in 1..=10 {
            let packets = split_user_aligned(&log, 0, target);
            let total: usize = packets.iter().map(|p| p.rows()).sum();
            assert_eq!(total, log.rows(), "target {target} loses rows");
            for p in &packets {
                assert!(p.rows() > 0, "target {target} yields an empty packet");
                // No packet starts mid-run: its first user differs from the
                // previous packet's last user.
            }
            let mut off = 0usize;
            for p in &packets {
                if off > 0 {
                    assert_ne!(
                        int_value_at(log.col(0), off - 1),
                        int_value_at(log.col(0), off),
                        "target {target} cuts a user run at row {off}"
                    );
                }
                off += p.rows();
            }
        }
        // A single oversized run stays whole.
        let one_user = log.slice(0, 4);
        let packets = split_user_aligned(&one_user, 0, 2);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].rows(), 4);
    }

    #[test]
    fn empty_batch_yields_no_users() {
        let log = tiny_log();
        let agg = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1000 };
        let (out, users) = run_stateful(&agg, &log.slice(0, 0));
        assert_eq!(users, 0);
        assert_eq!(out.rows(), 0);
        assert_eq!(out.columns.len(), 3);
    }

    #[test]
    fn gpu_cost_dwarfs_cpu_cost_on_the_paper_testbed() {
        // The whole point of the suite: per-row sequential state walks are
        // priced far above the CPU's streaming run scan on the GTX 1080's
        // memory system.
        let model = CpuCostModel::new(CpuSpec::xeon_e5_2650l_v3(), 12);
        let sim = GpuSim::new(GpuSpec::gtx_1080(), Fidelity::Analytic);
        let rows = 1 << 16;
        let users = rows / 32;
        let cpu = cpu_cost(rows, users, 64 * users, 4.0, &model);
        let gpu = gpu_cost(&sim, Region::at(1 << 20, rows * 12), rows as usize, 12, 64, 4.0);
        assert!(
            gpu.as_ns() > 10.0 * cpu.as_ns(),
            "gpu {gpu} must dwarf cpu {cpu} on stateful work"
        );
    }

    #[test]
    fn labels_and_shapes_render() {
        let s = StatefulAgg::Sessionize { user_col: 0, ts_col: 1, gap: 1800 };
        assert_eq!(s.label(), "sessionize(gap=1800)");
        assert_eq!(s.out_width(), 3);
        assert_eq!(s.state_bytes_per_user(), 32);
        let f = StatefulAgg::WindowFunnel {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            steps: vec![0, 1, 2],
            window: 3600,
        };
        assert_eq!(f.label(), "window_funnel(steps=3, window=3600)");
        assert_eq!(f.out_names(), vec!["funnel_depth"]);
        assert_eq!(f.event_col(), Some(2));
        let r = StatefulAgg::Retention {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            cohort_event: 3,
            return_events: vec![4, 4],
            period: 604_800,
        };
        assert_eq!(r.out_width(), 4);
        assert!(r.label().contains("returns=2"));
        let m = StatefulAgg::SequenceMatch {
            user_col: 0,
            ts_col: 1,
            event_col: 2,
            pattern: vec![0, 2],
        };
        assert_eq!(m.label(), "sequence_match(len=2)");
        assert!(m.ops_per_row() > 0.0 && m.state_bytes_per_user() > 0);
    }
}
