//! Generated inputs, the queries run over them, and the answer oracle.

use std::time::Instant;

use hape_core::{ExecConfig, JoinAlgo, Placement, Query, Session};
use hape_ops::GroupKey;
use hape_sim::topology::Server;
use hape_tpch::events::{behavioral_queries, generate_events};
use hape_tpch::reference::{
    q1_reference, q5_reference, q6_reference, q9_reference, rows_approx_eq,
};
use hape_tpch::{q1_query, q5_query, q6_query, q9_query, TpchData};

use crate::clock::CpuTime;
use crate::Opts;

/// Aggregated result rows, as the engine returns them.
pub type Rows = Vec<(GroupKey, Vec<f64>)>;

/// Which query a job runs, so its answer can be checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// TPC-H Q1, Q5, Q6 or Q9* (index 0..4 in that order).
    Tpch(usize),
    /// Behavioral query B1..B4 (index 0..4).
    Behavioral(usize),
}

/// One query under one placement.
#[derive(Clone)]
pub struct Job {
    /// Metric label, e.g. `q5_auto`.
    pub label: String,
    /// What the answer is checked against.
    pub which: Which,
    /// The logical query.
    pub query: Query,
    /// Its placement.
    pub placement: Placement,
}

impl Job {
    /// The execution config: the given placement, every other knob at its
    /// default (so the data plane runs on `nproc` threads).
    pub fn config(&self) -> ExecConfig {
        ExecConfig::new(self.placement)
    }
}

fn tpch_query(i: usize) -> Query {
    match i {
        0 => q1_query(),
        1 => q5_query(JoinAlgo::Partitioned),
        2 => q6_query(),
        _ => q9_query(JoinAlgo::Partitioned),
    }
}

const TPCH_NAMES: [&str; 4] = ["q1", "q5", "q6", "q9"];

fn tpch_job(i: usize, placement: Placement) -> Job {
    Job {
        label: format!("{}_{placement}", TPCH_NAMES[i]),
        which: Which::Tpch(i),
        query: tpch_query(i),
        placement,
    }
}

/// The eight solo cells: Q1, Q5, Q6 and Q9* under `cpu` and `auto`.
pub fn cells() -> Vec<Job> {
    (0..4).flat_map(|i| [Placement::CpuOnly, Placement::Auto].map(|p| tpch_job(i, p))).collect()
}

/// The serving batch: Q5 hybrid and auto, Q6 gpu and hybrid, B1–B4 auto.
pub fn batch() -> Vec<Job> {
    let mut jobs = vec![
        tpch_job(1, Placement::Hybrid),
        tpch_job(1, Placement::Auto),
        tpch_job(2, Placement::GpuOnly),
        tpch_job(2, Placement::Hybrid),
    ];
    for (i, query) in behavioral_queries().into_iter().enumerate() {
        jobs.push(Job {
            label: format!("b{}_auto", i + 1),
            which: Which::Behavioral(i),
            query,
            placement: Placement::Auto,
        });
    }
    jobs
}

/// Generate TPC-H at `--sf` and, when `--users` > 0, the event log, and
/// register them in a session over the SF-scaled paper testbed. Also
/// returns the seconds TPC-H generation took.
pub fn session(o: &Opts) -> (Session, TpchData, f64) {
    let t = Instant::now();
    let data = hape_tpch::generate(o.sf, o.tpch_seed);
    let gen_s = t.elapsed().as_secs_f64();
    let mut session = Session::new(Server::tpch_scaled(o.sf));
    for table in [
        &data.lineitem,
        &data.orders,
        &data.customer,
        &data.supplier,
        &data.partsupp,
        &data.nation,
        &data.region,
    ] {
        session.register(table.clone());
    }
    if o.users > 0 {
        session.register(generate_events(o.users, o.events_seed));
    }
    (session, data, gen_s)
}

/// `--setups` timed set-ups, each a [`session`] handed to `warm_up`.
/// Returns every set-up's CPU seconds, and the last set-up's tables and
/// warmed state. The previous set-up is dropped before the next starts,
/// so peak memory is one set-up's.
pub fn timed_setups<T>(
    o: &Opts,
    mut warm_up: impl FnMut(Session, &TpchData) -> T,
) -> Result<(Vec<f64>, TpchData, T), String> {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..o.setups {
        drop(last.take());
        let t = CpuTime::now();
        let (session, data, _) = session(o);
        let warm = warm_up(session, &data);
        setup_s.push(t.secs());
        last = Some((data, warm));
    }
    let (data, warm) = last.ok_or("no set-up")?;
    Ok((setup_s, data, warm))
}

/// The expected answers: the naive TPC-H reference evaluators, and the
/// `cpu` solo answers of the behavioral queries.
pub struct Oracle {
    tpch: Vec<Rows>,
    behavioral: Vec<Rows>,
}

impl Oracle {
    /// Compute every expected answer (behavioral ones only when the
    /// session holds the event log).
    pub fn new(data: &TpchData, session: &Session) -> Result<Self, String> {
        let tpch = vec![
            q1_reference(data),
            q5_reference(data),
            q6_reference(data),
            q9_reference(data),
        ];
        let mut behavioral = Vec::new();
        if session.catalog().lookup("events").is_ok() {
            for q in behavioral_queries() {
                let rep = session
                    .execute_with(&q, &ExecConfig::new(Placement::CpuOnly))
                    .map_err(|e| format!("{} cpu oracle: {e}", q.name))?;
                behavioral.push(rep.rows);
            }
        }
        Ok(Oracle { tpch, behavioral })
    }

    /// Whether `rows` is the right answer for `which`: TPC-H within the
    /// engine's float-summation tolerance, behavioral queries exactly.
    pub fn matches(&self, which: Which, rows: &Rows) -> bool {
        match which {
            Which::Tpch(i) => rows_approx_eq(rows, &self.tpch[i]),
            Which::Behavioral(i) => self.behavioral.get(i).is_some_and(|want| want == rows),
        }
    }
}
