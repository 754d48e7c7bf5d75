//! The golden behaviour matrix: every cell of the benchmark matrix
//! (TPC-H Q1/Q5/Q6/Q9* at SF 0.01 and B1–B4 over 2 000 users, each under
//! `cpu`, `gpu`, `hybrid` and `auto`) run once, its simulated outcome
//! pinned bit for bit in `golden_matrix.txt`.
//!
//! A refactor must reproduce the file exactly: the makespan and busy-time
//! bits, the host-to-device bytes, the stream packets per device class and
//! a hash over the result rows' keys and value bits — or, for a cell the
//! engine refuses, the same typed error. A change that moves any of these
//! is a model change; its author replaces the file with the one the
//! failing test prints and says so.

mod tests {
    use hape_core::{ExecConfig, QueryReport};

    use crate::matrix::run_matrix;

    /// The committed expectation, one line per cell.
    const EXPECTED: &str = include_str!("golden_matrix.txt");

    /// FNV-1a over the result rows: each group key's four words, then each
    /// value's bits, in row order.
    fn rows_hash(report: &QueryReport) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (key, values) in &report.rows {
            for &k in key {
                eat(k as u64);
            }
            for v in values {
                eat(v.to_bits());
            }
        }
        h
    }

    /// The matrix rendered one cell per line, in [`run_matrix`] order.
    fn golden_lines() -> String {
        let lines = run_matrix(0.01, 2_000, |cell| {
            let label = format!("{} {}", cell.plan.name, cell.placement);
            match cell.engine.run(cell.catalog, cell.plan, &ExecConfig::new(cell.placement)) {
                Ok(r) => format!(
                    "{label} time={:016x} cpu_busy={:016x} gpu_busy={:016x} h2d={} \
                     packets_cpu={} packets_gpu={} rows={} rows_hash={:016x}",
                    r.time.as_secs().to_bits(),
                    r.cpu_busy.as_secs().to_bits(),
                    r.gpu_busy.as_secs().to_bits(),
                    r.h2d_bytes,
                    r.packets_cpu,
                    r.packets_gpu,
                    r.rows.len(),
                    rows_hash(&r),
                ),
                Err(e) => format!("{label} error={e:?}"),
            }
        });
        lines.join("\n") + "\n"
    }

    #[test]
    fn golden_matrix_is_bit_identical() {
        let actual = golden_lines();
        assert_eq!(actual.lines().count(), 32, "the matrix is 8 queries x 4 placements");
        if actual != EXPECTED {
            let changed: Vec<String> = EXPECTED
                .lines()
                .zip(actual.lines())
                .filter(|(e, a)| e != a)
                .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
                .collect();
            panic!(
                "the golden matrix moved ({} cells differ):\n{}\n\
                 replacement golden_matrix.txt (a model change):\n{actual}",
                changed.len(),
                changed.join("\n"),
            );
        }
    }
}
