//! The benchmark query × placement matrix and the JSON writer its sweeps
//! share.
//!
//! [`run_matrix`] hands every cell — TPC-H Q1/Q5/Q6/Q9* over the scaled
//! paper testbed, then the behavioral B1–B4 suite over the paper testbed,
//! each under `cpu`, `gpu`, `hybrid` and `auto` — to a per-cell probe:
//! the static-verification verdict (`figures --verify`) or the
//! clean-vs-faulted run (`figures --chaos`). [`sweep_json`] renders any
//! sweep's result in one shape (hand-rolled — no serde in the offline
//! workspace).

use hape_core::trace::json_escape;
use hape_core::{Catalog, Engine, LoweredQuery, Placement, QueryPlan};
use hape_sim::topology::Server;
use hape_tpch::events::{behavioral_queries, generate_events};
use hape_tpch::queries::{base_catalog, tpch_queries};

/// The placements every sweep runs, in output order.
const PLACEMENTS: [Placement; 4] =
    [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid, Placement::Auto];

/// The TPC-H queries lowered over SF `sf` (data seed 420), and the testbed
/// whose GPU memory scales with `sf` so the paper's SF-100 capacity
/// effects reproduce.
pub(crate) fn tpch_lowered(sf: f64) -> (Server, Vec<LoweredQuery>) {
    let catalog = base_catalog(&hape_tpch::generate(sf, 420));
    let queries = tpch_queries()
        .iter()
        .map(|q| q.lower(&catalog).unwrap_or_else(|e| panic!("{} lowers: {e}", q.name)))
        .collect();
    (Server::tpch_scaled(sf), queries)
}

/// One `(query, placement)` cell of the matrix.
pub(crate) struct Cell<'a> {
    /// The engine over the cell's testbed.
    pub(crate) engine: &'a Engine,
    /// The lowered query's catalog.
    pub(crate) catalog: &'a Catalog,
    /// The lowered plan; its name labels the cell (`Q1`, …, `B1_sessions`).
    pub(crate) plan: &'a QueryPlan,
    /// The cell's placement.
    pub(crate) placement: Placement,
}

/// Run `probe` on every cell: the TPC-H queries of [`tpch_lowered`], then
/// B1–B4 over an `n_users`-user event log (seed 7171) on
/// `Server::paper_testbed()`, each under every placement in
/// [`PLACEMENTS`].
pub(crate) fn run_matrix<P>(
    sf: f64,
    n_users: usize,
    mut probe: impl FnMut(&Cell<'_>) -> P,
) -> Vec<P> {
    let (server, tpch) = tpch_lowered(sf);
    let mut catalog = Catalog::new();
    catalog.register(generate_events(n_users, 7171));
    let behavioral: Vec<LoweredQuery> = behavioral_queries()
        .iter()
        .map(|q| q.lower(&catalog).unwrap_or_else(|e| panic!("{} lowers: {e}", q.name)))
        .collect();
    let mut points = Vec::new();
    for (engine, queries) in
        [(Engine::new(server), tpch), (Engine::new(Server::paper_testbed()), behavioral)]
    {
        for q in &queries {
            for placement in PLACEMENTS {
                points.push(probe(&Cell {
                    engine: &engine,
                    catalog: &q.catalog,
                    plan: &q.plan,
                    placement,
                }));
            }
        }
    }
    points
}

/// A JSON object's fields in output order, each value already rendered
/// as JSON.
pub(crate) type Fields = Vec<(&'static str, String)>;

/// A JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Render a sweep: `header` fields one per line, then `"points"` with one
/// object per line.
pub(crate) fn sweep_json(header: &Fields, points: &[Fields]) -> String {
    let object = |fields: &Fields| {
        fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect::<Vec<_>>().join(", ")
    };
    let mut out = String::from("{\n");
    for (k, v) in header {
        out.push_str(&format!("  \"{k}\": {v},\n"));
    }
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 < points.len() { "," } else { "" };
        out.push_str(&format!("    {{{}}}{sep}\n", object(p)));
    }
    out.push_str("  ]\n}");
    out
}

/// Write [`sweep_json`] to `path`, newline-terminated.
pub(crate) fn write_sweep_json(
    path: &str,
    header: &Fields,
    points: &[Fields],
) -> std::io::Result<()> {
    std::fs::write(path, sweep_json(header, points) + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_json_shape_is_stable() {
        let header: Fields = vec![("sf", "0.01".into()), ("clean", "true".into())];
        let points: Vec<Fields> = vec![
            vec![("query", json_str("Q\"1")), ("ok", "true".into())],
            vec![("query", json_str("B1")), ("ok", "false".into())],
        ];
        assert_eq!(
            sweep_json(&header, &points),
            "{\n  \"sf\": 0.01,\n  \"clean\": true,\n  \"points\": [\n    \
             {\"query\": \"Q\\\"1\", \"ok\": true},\n    {\"query\": \"B1\", \"ok\": false}\n  ]\n}"
        );
    }
}
