//! Switch-side aggregation (§3.3, §3.5, Appendix B).
//!
//! Two state machines, exactly mirroring the paper's pseudocode:
//!
//! * [`basic::BasicSwitch`] — Algorithm 1, the lossless-network core
//!   primitive (a pool of integer aggregators with per-slot counters).
//! * [`reliable::ReliableSwitch`] — Algorithm 3, adding the two-pool
//!   shadow-copy scheme and per-worker `seen` bitmaps for packet-loss
//!   recovery.
//!
//! Both are sans-IO with one ingress, `on_view`: a validated
//! [`PacketView`] in, the response encoded into the caller's frame and
//! a [`WireAction`] saying where it goes. Every embedding — the
//! threaded transports, the simulator's nodes, the in-process harness,
//! the model checker — moves frames through it.
//!
//! [`pipeline`] models the Tofino resource envelope the paper's P4
//! program fits in. The multi-rack tree of §6 composes these switches
//! in `switchml_transport::hier`: its leaf is a `ReliableSwitch` under
//! an up-hop worker engine, its spine a plain `ReliableSwitch`.

pub mod basic;
pub mod multijob;
pub mod pipeline;
pub mod reliable;

use crate::error::Result;
use crate::packet::{Packet, PacketView, WorkerId};

/// [`WireAction`] with the response decoded into an owned [`Packet`]:
/// what [`multijob::MultiJobSwitch::on_packet`] returns to the
/// benchmark's traced pipeline, and the vocabulary tests assert in.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchAction {
    /// Slot completed: broadcast the aggregated result to every worker
    /// (the traffic manager duplicates the packet, Appendix B).
    Multicast(Packet),
    /// A retransmission arrived for an already-completed slot: unicast
    /// the cached result to just that worker (Algorithm 3, line 21).
    Unicast(WorkerId, Packet),
    /// Aggregated (or ignored as duplicate); nothing to send.
    Drop,
}

/// What the switch does in response to one received packet
/// ([`basic::BasicSwitch::on_view`], [`reliable::ReliableSwitch::on_view`]).
/// The response packet is not carried here — it is already encoded into
/// the caller's scratch buffer, ready to put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAction {
    /// The scratch buffer holds a result packet to broadcast to every
    /// worker.
    Multicast,
    /// The scratch buffer holds a cached result to unicast to this
    /// worker (Algorithm 3, line 21).
    Unicast(WorkerId),
    /// Aggregated (or ignored as duplicate); scratch untouched.
    Drop,
}

/// Counters exposed by both switch variants, for tests and the
/// evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Update packets processed (after decode).
    pub updates: u64,
    /// Updates ignored as duplicates (seen-bitmap hit).
    pub duplicates: u64,
    /// Completed aggregations (multicasts emitted).
    pub completions: u64,
    /// Unicast result retransmissions served.
    pub result_retx: u64,
    /// Packets rejected for malformed fields (bad slot, bad wid, bad
    /// element count).
    pub rejected: u64,
    /// Updates counted-and-dropped because their job generation did
    /// not match the switch's (epoch fence, §5.4): traffic from before
    /// a reconfiguration that must never be aggregated.
    pub stale_epoch: u64,
}

impl SwitchStats {
    /// Fold another switch's counters into this one (shards of a
    /// partitioned pool, or successive pools of one job's epochs).
    pub fn merge(&mut self, other: SwitchStats) {
        self.updates += other.updates;
        self.duplicates += other.duplicates;
        self.completions += other.completions;
        self.result_retx += other.result_retx;
        self.rejected += other.rejected;
        self.stale_epoch += other.stale_epoch;
    }
}

/// Encode `p`, run it through a switch's wire ingress and decode the
/// response it encoded.
fn through_wire(
    p: &Packet,
    ingress: impl FnOnce(&PacketView<'_>, &mut Vec<u8>) -> Result<WireAction>,
) -> Result<SwitchAction> {
    let frame = p.encode();
    let mut out = Vec::new();
    Ok(match ingress(&PacketView::parse(&frame)?, &mut out)? {
        WireAction::Drop => SwitchAction::Drop,
        WireAction::Multicast => SwitchAction::Multicast(Packet::decode(&out)?),
        WireAction::Unicast(w) => SwitchAction::Unicast(w, Packet::decode(&out)?),
    })
}

/// Unit tests hand-build updates as [`Packet`]s and read responses as
/// [`SwitchAction`]s; `feed` carries them through `on_view`.
#[cfg(test)]
pub(crate) trait Feed {
    fn feed(&mut self, p: Packet) -> Result<SwitchAction>;
}

#[cfg(test)]
impl Feed for basic::BasicSwitch {
    fn feed(&mut self, p: Packet) -> Result<SwitchAction> {
        through_wire(&p, |v, out| self.on_view(v, out))
    }
}

#[cfg(test)]
impl Feed for reliable::ReliableSwitch {
    fn feed(&mut self, p: Packet) -> Result<SwitchAction> {
        through_wire(&p, |v, out| self.on_view(v, out))
    }
}
