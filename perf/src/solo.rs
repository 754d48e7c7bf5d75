//! `tpch-solo`: a closed loop over the eight solo cells at SF 0.1.

use std::time::{Duration, Instant};

use crate::cells;
use crate::data::{self, Oracle};
use crate::report::Report;
use crate::{end_to_end, per_layer, Opts};

/// Passes the measured loop makes at least, however short `--seconds`.
const MIN_PASSES: usize = 5;
/// Rounds the traced run makes at least.
const MIN_ROUNDS: usize = 3;

/// The end-to-end run: `--setups` timed set-ups (generation, registration
/// and one warm-up pass), then passes over the cells for `--seconds`.
pub fn untraced(o: &Opts, rep: &mut Report) -> Result<(), String> {
    let cells = data::cells();
    let (setup_s, data, (session, warm)) = data::timed_setups(o, |session, _| {
        let warm = cells::warm_up(&session, &cells);
        (session, warm)
    })?;
    let oracle = Oracle::new(&data, &session)?;
    let refs = cells::references(rep, &oracle, &cells, warm.iter().map(Result::as_ref));
    let mut cell_ms = vec![Vec::new(); cells.len()];
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed() < Duration::from_secs_f64(o.seconds) {
        passes.push(cells::pass(&session, &cells, &oracle, &refs, &mut cell_ms, rep));
    }
    end_to_end(rep, &setup_s, &passes, &cells, &cell_ms);
    Ok(())
}

/// The traced run: untraced, traced and one-thread passes in rounds for
/// `--seconds`, then the optimizer's accuracy.
pub fn traced(o: &Opts, rep: &mut Report) -> Result<(), String> {
    let cells = data::cells();
    let (session, data, gen_s) = data::session(o);
    let warm = cells::warm_up(&session, &cells);
    let oracle = Oracle::new(&data, &session)?;
    let refs = cells::references(rep, &oracle, &cells, warm.iter().map(Result::as_ref));
    let rounds =
        cells::layered_rounds(&session, &cells, &oracle, &refs, o.seconds, MIN_ROUNDS, rep);
    let acc = cells::accuracy(&session, &cells).map_err(|e| e.to_string())?;
    per_layer(rep, &rounds.passes, &rounds.cells, &rounds.walls, &acc, None, gen_s);
    Ok(())
}
