//! The behavioral B1–B4 rows of the benchmark matrix, checked: every cell
//! completes, and `auto`'s simulated makespan is no worse than the best
//! manual placement, because the optimizer prices the GPU's
//! sequential-state penalty instead of pinning stateful pipelines anywhere
//! by rule.

mod tests {
    use hape_core::{ExecConfig, Placement};
    use hape_tpch::events::behavioral_queries;

    use crate::matrix::{json_str, run_matrix, sweep_json, Fields};

    /// Slack for the `auto <= best manual` check: `auto` typically *ties*
    /// the best manual placement (it picks the same device subset), so the
    /// comparison tolerates nothing beyond float formatting noise.
    const AUTO_SLACK: f64 = 1.0 + 1e-9;

    #[test]
    fn smoke_bench_auto_matches_best_manual_and_json_is_stable() {
        let names: Vec<String> = behavioral_queries().into_iter().map(|q| q.name).collect();
        let points: Vec<(String, Placement, Option<f64>)> = run_matrix(0.01, 1_000, |cell| {
            let mut cfg = ExecConfig::new(cell.placement);
            cfg.threads = Some(2);
            let sim =
                cell.engine.run(cell.catalog, cell.plan, &cfg).ok().map(|r| r.time.as_secs());
            (cell.plan.name.clone(), cell.placement, sim)
        })
        .into_iter()
        .filter(|(query, _, _)| names.contains(query))
        .collect();
        // 4 queries × 4 placements, all completed.
        assert_eq!(points.len(), 16);
        assert!(points.iter().all(|(_, _, sim)| sim.is_some()), "{points:?}");
        let sim_of = |query: &str, placement: Placement| {
            points.iter().find(|(q, p, _)| q == query && *p == placement).and_then(|c| c.2)
        };
        for query in &names {
            let auto = sim_of(query, Placement::Auto).unwrap_or(f64::INFINITY);
            let best_manual = [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid]
                .into_iter()
                .filter_map(|p| sim_of(query, p))
                .fold(f64::INFINITY, f64::min);
            assert!(
                auto <= best_manual * AUTO_SLACK,
                "{query}: auto ({auto}s) must match the best manual placement ({best_manual}s)"
            );
        }
        let header: Fields = vec![("n_users", "1000".into())];
        let rows: Vec<Fields> = points
            .iter()
            .map(|(query, placement, sim)| {
                vec![
                    ("query", json_str(query)),
                    ("placement", json_str(&placement.to_string())),
                    ("sim_seconds", format!("{}", sim.unwrap_or(0.0))),
                    ("completed", sim.is_some().to_string()),
                ]
            })
            .collect();
        let json = sweep_json(&header, &rows);
        assert!(json.contains("\"n_users\": 1000"));
        assert!(json.contains("\"placement\": \"auto\""));
        assert!(json.ends_with('}'));
    }
}
