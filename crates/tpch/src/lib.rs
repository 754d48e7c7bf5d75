//! # hape-tpch — TPC-H substrate
//!
//! A dbgen-equivalent generator at configurable scale factor, plus the
//! paper's evaluation queries (§6.4) as engine plans: Q1 and Q6 (scan-bound
//! aggregations) and Q5 and Q9* (join-heavy; Q9 per the paper runs without
//! the `LIKE` condition and the join to the filtered `part` table).
//!
//! Every query also has a naive reference evaluator used by the tests to
//! validate engine results bit-for-bit across CPU-only / GPU-only / hybrid
//! placements.

#![forbid(unsafe_code)]

pub mod dates;
pub mod events;
pub mod gen;
pub mod queries;
pub mod reference;

pub use dates::{date, Date};
pub use events::{behavioral_queries, events_catalog, generate_events};
pub use gen::{generate, TpchData};
pub use queries::{base_catalog, q1_query, q5_query, q6_query, q9_query, tpch_queries};
pub use reference::{q1_reference, q5_reference, q6_reference, q9_reference};

/// Commonly used items.
pub mod prelude {
    pub use crate::events::{behavioral_queries, events_catalog, generate_events};
    pub use crate::gen::{generate, TpchData};
    pub use crate::queries::{
        base_catalog, q1_query, q5_query, q6_query, q9_query, tpch_queries,
    };
}
