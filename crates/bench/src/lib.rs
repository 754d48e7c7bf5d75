//! # hape-bench — the paper-figure regeneration harness
//!
//! One function per evaluation figure (§6). Each returns a [`Figure`] whose
//! series mirror the paper's legend, with simulated-time y-values. Default
//! input sizes are scaled down from the paper's (the shapes, crossovers and
//! ratios are the reproduction target); `full` variants run at paper scale
//! where memory permits.
//!
//! Next to the figures: two sweeps over one query × placement matrix,
//! written by one JSON writer — static verification ([`verify`]) and
//! clean-vs-faulted execution ([`chaos`]) — a golden test pinning every
//! cell of that matrix bit for bit (`golden_matrix.txt`), a traced TPC-H run
//! ([`trace`]), and the flag parser the `figures` binary and the
//! `tpch_hybrid` example share ([`cli`]). Wall-clock and per-layer
//! performance is measured by the separate `perf/` benchmark package.

#![forbid(unsafe_code)]

#[cfg(test)]
mod behavioral;
pub mod chaos;
pub mod cli;
pub mod figures;
#[cfg(test)]
mod golden;
mod matrix;
pub mod trace;
pub mod verify;

pub use chaos::{chaos_tpch, print_chaos, ChaosPoint, ChaosSweep};
pub use cli::{Args, CliError};
pub use figures::{
    fig5, fig6, fig7, fig8, fig9, print_figure, Figure, Series, FIG6_DEFAULT_SIZES,
    FIG7_DEFAULT_SIZES,
};
pub use trace::{trace_tpch, write_chrome_trace};
pub use verify::{print_verify, verify_tpch, VerifyPoint, VerifySweep};
