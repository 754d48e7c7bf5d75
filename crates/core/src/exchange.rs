//! HetExchange meta-operators: routing, device crossing, mem-move (§3, §4.2).
//!
//! The **router** converts the parallelism trait: it receives packets from
//! producers and routes each to one of its consumer instances. Control flow
//! is CPU-side and *content-free*: decisions use only packet metadata
//! (size) and consumer load — never the tuple values. The **device
//! crossing** converts the device trait (the engine swaps providers); the
//! **mem-move** converts locality (the GPU workers charge it on their own
//! PCIe links, broadcasting each probed hash table once per link).

use hape_sim::topology::MemNode;
use hape_sim::SimTime;

use crate::traits::DeviceType;

/// An explicit trait-conversion operator on a placed-plan edge (§3,
/// Fig. 3). The placement pass ([`mod@crate::place`]) inserts one wherever two
/// adjacent pipeline segments disagree on a [`crate::traits::HetTraits`]
/// component; relational operators never convert traits themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exchange {
    /// Converts the *parallelism* trait: receives packets from `from_dop`
    /// producer instances and routes each to one of `to_dop` consumer
    /// instances by the load-aware rule ([`route`]).
    Router {
        /// Producer-side degree of parallelism.
        from_dop: usize,
        /// Consumer-side degree of parallelism (summed over segments).
        to_dop: usize,
    },
    /// Converts the *locality* trait: moves bytes between memory nodes
    /// over the topology's links. `table` names a broadcast hash-table
    /// payload; `None` is the streaming per-packet move.
    MemMove {
        /// Source memory node.
        from: MemNode,
        /// Destination memory node.
        to: MemNode,
        /// Hash table broadcast by this move (`None` = packet stream).
        table: Option<String>,
    },
    /// Converts the *device* trait: the executor swaps the device provider
    /// that runs the downstream segment's compiled pipeline.
    DeviceCrossing {
        /// Producer-side device type.
        from: DeviceType,
        /// Consumer-side device type.
        to: DeviceType,
    },
}

impl Exchange {
    /// True for broadcast hash-table mem-moves.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Exchange::MemMove { table: Some(_), .. })
    }
}

impl std::fmt::Display for Exchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exchange::Router { from_dop, to_dop } => {
                write!(f, "Router(LoadAware, {from_dop} -> {to_dop})")
            }
            Exchange::MemMove { from, to, table: None } => {
                write!(f, "MemMove({from} -> {to})")
            }
            Exchange::MemMove { from, to, table: Some(t) } => {
                write!(f, "MemMove({from} -> {to}, broadcast {t:?})")
            }
            Exchange::DeviceCrossing { from, to } => {
                write!(f, "DeviceCrossing({from:?} -> {to:?})")
            }
        }
    }
}

/// Identity of a worker instance the router can route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerId {
    /// CPU core `core` on socket `socket`.
    CpuCore {
        /// Socket index.
        socket: usize,
        /// Core index within the socket.
        core: usize,
    },
    /// GPU `idx`.
    Gpu(usize),
}

impl WorkerId {
    /// True for GPU workers.
    pub fn is_gpu(&self) -> bool {
        matches!(self, WorkerId::Gpu(_))
    }
}

impl std::fmt::Display for WorkerId {
    /// Compact lane label (`cpu0.3`, `gpu1`) — the tracing plane's
    /// per-worker thread names.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerId::CpuCore { socket, core } => write!(f, "cpu{socket}.{core}"),
            WorkerId::Gpu(idx) => write!(f, "gpu{idx}"),
        }
    }
}

/// What the router knows about each candidate consumer — metadata only.
#[derive(Debug, Clone, Copy)]
pub struct CandidateLoad {
    /// When the consumer could start this packet (clock + transfer).
    pub ready_at: SimTime,
    /// Expected processing time per byte for this consumer (calibrated from
    /// past packets; used to break ties toward faster consumers).
    pub est_ns_per_byte: f64,
}

/// The router's one rule (§4.2, load-aware): send a `bytes`-byte packet to
/// the consumer that would finish it first — its `ready_at` plus
/// `est_ns_per_byte * bytes` — the first such consumer on a tie. Fast
/// consumers drain their queues sooner and attract more packets, which is
/// what load-balances hybrid execution. Returns 0 for an empty slice.
pub fn route(candidates: &[CandidateLoad], bytes: u64) -> usize {
    let bytes = bytes as f64;
    let mut best = 0;
    let mut best_done = f64::INFINITY;
    for (i, c) in candidates.iter().enumerate() {
        let done = c.ready_at.as_ns() + c.est_ns_per_byte * bytes;
        if done < best_done {
            best_done = done;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(ready_ns: f64, rate: f64) -> CandidateLoad {
        CandidateLoad { ready_at: SimTime::from_ns(ready_ns), est_ns_per_byte: rate }
    }

    #[test]
    fn load_aware_prefers_idle_consumer() {
        let c = vec![load(1000.0, 1.0), load(0.0, 1.0)];
        assert_eq!(route(&c, 12), 1);
    }

    #[test]
    fn load_aware_prefers_faster_consumer_when_equally_free() {
        let c = vec![load(0.0, 10.0), load(0.0, 1.0)];
        assert_eq!(route(&c, 12), 1);
    }

    #[test]
    fn exchange_renders_compactly() {
        let r = Exchange::Router { from_dop: 1, to_dop: 26 };
        assert_eq!(r.to_string(), "Router(LoadAware, 1 -> 26)");
        let m = Exchange::MemMove {
            from: MemNode::CpuDram(0),
            to: MemNode::GpuDram(1),
            table: None,
        };
        assert_eq!(m.to_string(), "MemMove(dram0 -> gmem1)");
        assert!(!m.is_broadcast());
        let b = Exchange::MemMove {
            from: MemNode::CpuDram(0),
            to: MemNode::GpuDram(0),
            table: Some("Q5.orders".into()),
        };
        assert_eq!(b.to_string(), "MemMove(dram0 -> gmem0, broadcast \"Q5.orders\")");
        assert!(b.is_broadcast());
        let d = Exchange::DeviceCrossing { from: DeviceType::Cpu, to: DeviceType::Gpu };
        assert_eq!(d.to_string(), "DeviceCrossing(Cpu -> Gpu)");
    }
}
