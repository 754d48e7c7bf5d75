//! DBMS G: the GPU operator-at-a-time engine.

use hape_core::engine::EngineError;
use hape_core::plan::{JoinTable, PipeOp, QueryPlan, Stage};
use hape_core::provider::{probe_join, TableStore};
use hape_core::Catalog;
use hape_join::{gpu_npj, JoinInput, JoinOutcome, OutputMode};
use hape_ops::agg::AggState;
use hape_sim::gpu::OutOfGpuMemory;
use hape_sim::topology::Server;
use hape_sim::{Fidelity, GpuSim, SimTime};
use hape_storage::Batch;

use crate::{BaselineError, BaselineReport};

/// Why DBMS G refused a query.
#[derive(Debug, Clone)]
pub struct GpuUnsupported {
    /// Human-readable reason (matches the paper's capacity argument).
    pub reason: String,
}

impl std::fmt::Display for GpuUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DBMS G cannot run this query: {}", self.reason)
    }
}

impl std::error::Error for GpuUnsupported {}

/// Operator-at-a-time materialisation overhead versus a fused pipeline
/// (extra kernels + full intermediate writes/reads in device memory).
const MATERIALISE_FACTOR: f64 = 1.15;

/// The DBMS G stand-in.
#[derive(Debug, Clone)]
pub struct DbmsG {
    /// Host server (its GPUs and PCIe links are used).
    pub server: Server,
}

impl DbmsG {
    /// DBMS G on a server.
    pub fn new(server: Server) -> Self {
        assert!(!server.gpus.is_empty(), "DBMS G needs GPUs");
        DbmsG { server }
    }

    fn aggregate_capacity(&self) -> u64 {
        self.server.gpus.iter().map(|g| g.dram_capacity as u64).sum()
    }

    /// Run a plan operator-at-a-time, entirely in GPU memory.
    ///
    /// Every operator is a separate kernel launch over the *whole* column
    /// set, reading its materialised input and materialising its output in
    /// device memory — so the query's working set is inputs + every
    /// intermediate + the hash tables, all at once. Queries that do not fit
    /// return [`GpuUnsupported`] (in the paper DBMS G could run only Q6 of
    /// the four, §6.4).
    pub fn run_plan(
        &self,
        catalog: &Catalog,
        plan: &QueryPlan,
    ) -> Result<BaselineReport, BaselineError> {
        plan.validate().map_err(EngineError::InvalidPlan)?;
        let n_gpus = self.server.gpus.len() as f64;
        let gpu = &self.server.gpus[0];
        let pcie_bw: f64 = self.server.pcie.iter().map(|l| l.bw).sum();
        let mut tables = TableStore::new();
        let mut total = SimTime::ZERO;
        let mut rows = Vec::new();
        let mut resident: u64 = 0; // bytes pinned in device memory

        for stage in &plan.stages {
            let pipeline = match stage {
                Stage::Build { pipeline, .. } | Stage::Stream { pipeline } => pipeline,
            };
            let table = catalog.lookup(&pipeline.source)?;
            // Transfer the inputs (split across the PCIe links).
            let in_bytes = table.bytes();
            resident += in_bytes;
            total += SimTime::from_secs(in_bytes as f64 / pcie_bw + 20e-6);

            // Operator-at-a-time execution over the whole input.
            let mut cur = table.data.clone();
            let mut t_stage = SimTime::ZERO;
            for op in &pipeline.ops {
                if cur.rows() == 0 {
                    break;
                }
                let in_b = cur.bytes();
                match op {
                    PipeOp::Filter(pred) => {
                        let keep = hape_ops::eval_bool(pred, &cur);
                        let sel: Vec<u32> = keep
                            .iter()
                            .enumerate()
                            .filter(|(_, &k)| k)
                            .map(|(i, _)| i as u32)
                            .collect();
                        cur = Batch {
                            columns: cur.columns.iter().map(|c| c.take(&sel)).collect(),
                        };
                    }
                    PipeOp::Project(exprs) => {
                        let cols = exprs
                            .iter()
                            .map(|e| {
                                hape_storage::Column::from_f64(
                                    hape_ops::eval(e, &cur).as_f64().to_vec(),
                                )
                            })
                            .collect();
                        cur = Batch { columns: cols };
                    }
                    PipeOp::JoinProbe { ht, key_col, build_payload_cols, .. } => {
                        let jt = tables.get(ht).expect("table built");
                        let probes = cur.rows() as f64;
                        let (out, chain) = probe_join(&cur, jt, *key_col, build_payload_cols);
                        // Random device-memory probes over-fetch a line each.
                        t_stage += SimTime::from_secs(
                            probes * (1.0 + chain) * gpu.l1.line as f64
                                / (gpu.dram_bw * n_gpus),
                        );
                        cur = out;
                    }
                    PipeOp::Stateful(sagg) => {
                        // Operator-at-a-time over the whole input, so the
                        // per-user runs stay intact — but every row is one
                        // step of a serial state chain the GPU cannot
                        // latency-hide (the engine's sequential-state term,
                        // at full strength).
                        let rows = cur.rows() as f64;
                        let (out, users) = hape_ops::stateful::run_stateful(sagg, &cur);
                        let state_ws = (users as u64 * sagg.state_bytes_per_user()).max(64);
                        t_stage += SimTime::from_secs(
                            rows * gpu.random_access_ns(state_ws)
                                * hape_ops::stateful::GPU_SEQ_CHAIN_FACTOR
                                / 1e9
                                / n_gpus,
                        );
                        cur = out;
                    }
                }
                let out_b = cur.bytes();
                resident += out_b;
                // One kernel per operator: stream in + materialise out.
                t_stage += SimTime::from_secs(
                    (in_b + out_b) as f64 * MATERIALISE_FACTOR / (gpu.dram_bw * n_gpus),
                ) + SimTime::from_ns(gpu.launch_overhead_ns);
            }
            if resident > self.aggregate_capacity() {
                return Err(GpuUnsupported {
                    reason: format!(
                        "working set {resident} bytes exceeds aggregate GPU memory {}",
                        self.aggregate_capacity()
                    ),
                }
                .into());
            }
            total += t_stage;
            match stage {
                Stage::Build { name, key_col, .. } => {
                    let jt = JoinTable::build(cur, *key_col);
                    resident += jt.bytes();
                    tables.insert(name.clone(), std::sync::Arc::new(jt));
                }
                Stage::Stream { pipeline } => {
                    // Guaranteed by the validate() at entry.
                    let spec = pipeline.agg.clone().expect("validated stream aggregates");
                    let mut agg = AggState::new(spec);
                    if cur.rows() > 0 {
                        // Final aggregation kernel.
                        total +=
                            SimTime::from_secs(cur.bytes() as f64 / (gpu.dram_bw * n_gpus))
                                + SimTime::from_ns(gpu.launch_overhead_ns);
                        agg.update(&cur);
                    }
                    rows = agg.finish();
                }
            }
        }
        Ok(BaselineReport { rows, time: total })
    }

    /// DBMS G's equi-join for Figure 6 (data pre-loaded in GPU memory):
    /// a non-partitioned join plus operator-at-a-time materialisation.
    pub fn join_microbench(
        &self,
        r: JoinInput<'_>,
        s: JoinInput<'_>,
    ) -> Result<JoinOutcome, OutOfGpuMemory> {
        let sim = GpuSim::new(self.server.gpus[0].clone(), Fidelity::Analytic);
        // Materialised join output must also fit (before aggregation).
        let pool_extra = (r.len() as u64) * 16;
        let mut probe_pool = hape_sim::GpuMemPool::for_spec(sim.spec());
        probe_pool.alloc(r.bytes() + s.bytes() + r.bytes() * 3 + pool_extra).map(|_| ())?;
        let mut out = gpu_npj(&sim, r, s, OutputMode::AggregateOnly)?;
        out.time = out.time * MATERIALISE_FACTOR
            + SimTime::from_secs(pool_extra as f64 / sim.spec().dram_bw);
        Ok(out)
    }

    /// DBMS G on out-of-GPU data (Figure 7): UVA-style access over the
    /// interconnect. Every hash-table access drags a cache line across
    /// PCIe, so the join collapses to interconnect random-access throughput
    /// — "not designed for out-of-GPU datasets … performs poorly even after
    /// 512 million tuples" (§6.3).
    pub fn join_uva_time(&self, n_tuples: u64) -> SimTime {
        let gpu = &self.server.gpus[0];
        let pcie_bw: f64 = self.server.pcie.iter().map(|l| l.bw).sum();
        let line = gpu.l1.line as f64;
        // Build: stream r over PCIe + random HT writes (line each).
        // Probe: stream s + ~1.5 chain accesses, a line each.
        let stream = 2.0 * (n_tuples * 8) as f64 / pcie_bw;
        let random = (n_tuples as f64) * (1.0 + 1.5) * line / pcie_bw;
        SimTime::from_secs(stream + random)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hape_core::JoinAlgo;
    use hape_storage::datagen::gen_unique_keys;
    use hape_tpch::queries::{base_catalog, q1_query, q5_query, q6_query, q9_query};
    use hape_tpch::reference::{q6_reference, rows_approx_eq};

    fn scaled_server(sf: f64) -> Server {
        Server::tpch_scaled(sf)
    }

    #[test]
    fn q6_runs_and_matches_reference() {
        let sf = 0.01;
        let data = hape_tpch::generate(sf, 41);
        let q6 = q6_query().lower(&base_catalog(&data)).unwrap();
        let dbms = DbmsG::new(scaled_server(sf));
        let rep = dbms.run_plan(&q6.catalog, &q6.plan).unwrap();
        assert!(rows_approx_eq(&rep.rows, &q6_reference(&data)));
    }

    #[test]
    fn q1_q5_q9_unsupported_at_paper_scale() {
        // With GPU memory scaled to the data's scale factor (as at SF 100),
        // DBMS G can run only Q6 of the four (§6.4).
        let sf = 0.01;
        let data = hape_tpch::generate(sf, 42);
        let catalog = base_catalog(&data);
        let dbms = DbmsG::new(scaled_server(sf));
        let lower = |q: hape_core::Query| q.lower(&catalog).unwrap();
        let q1 = lower(q1_query());
        assert!(dbms.run_plan(&q1.catalog, &q1.plan).is_err(), "Q1 should not fit");
        let q5 = lower(q5_query(JoinAlgo::NonPartitioned));
        assert!(dbms.run_plan(&q5.catalog, &q5.plan).is_err(), "Q5 should not fit");
        let q9 = lower(q9_query(JoinAlgo::NonPartitioned));
        assert!(dbms.run_plan(&q9.catalog, &q9.plan).is_err(), "Q9 should not fit");
        let q6 = lower(q6_query());
        assert!(dbms.run_plan(&q6.catalog, &q6.plan).is_ok(), "Q6 must fit");
    }

    #[test]
    fn microbench_join_works_in_gpu_sizes() {
        let n = 1 << 16;
        let keys = gen_unique_keys(n, 6);
        let vals = vec![0u32; n];
        let r = JoinInput::new(&keys, &vals);
        let dbms = DbmsG::new(Server::paper_testbed());
        let out = dbms.join_microbench(r, r).unwrap();
        assert_eq!(out.stats.matches, n as u64);
    }

    #[test]
    fn uva_join_collapses_out_of_gpu() {
        let dbms = DbmsG::new(Server::paper_testbed());
        let t_256m = dbms.join_uva_time(256 << 20);
        let t_512m = dbms.join_uva_time(512 << 20);
        // Linear in n but at PCIe random-access throughput: seconds, not ms.
        assert!(t_256m.as_secs() > 1.0, "{t_256m}");
        assert!(t_512m.as_secs() > 1.9 * t_256m.as_secs() * 0.9);
    }
}
