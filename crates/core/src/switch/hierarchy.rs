//! Hierarchical (multi-rack) aggregation — §6 "Scaling beyond a rack".
//!
//! Switches compose into a tree: a layer-i switch aggregates updates
//! from its `d` downstream ports and forwards the *partial aggregate*
//! upstream as if it were a single worker of its parent; the root
//! completes the aggregation and multicasts downward, and each
//! intermediate switch re-multicasts to its children.
//!
//! Loss recovery composes exactly as the paper argues: a worker
//! retransmission that reaches a switch which already aggregated that
//! packet is recognized via the `seen` bitmap; if the final result is
//! not yet known the switch re-forwards its partial aggregate upward,
//! "so that the switch affected by the loss is always reached", and if
//! it is known (cached from the parent) the switch answers directly.

use super::reliable::ReliableSwitch;
use super::{SwitchStats, WireAction};
use crate::config::Protocol;
use crate::error::{Error, Result};
use crate::packet::{
    encode_result_into, restamp_as_update, ElemOffset, PacketKind, PacketView, ResultMeta,
    WireElems, WorkerId,
};

/// Position of a switch in the aggregation tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Completes aggregations and originates result multicasts.
    Root,
    /// Aggregates a subtree and appears to its parent as worker
    /// `upstream_wid`.
    Intermediate { upstream_wid: WorkerId },
}

/// Where the frame a hierarchical switch encoded into the caller's
/// buffer goes — [`WireAction`] for a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierAction {
    /// The buffer holds a (partial-aggregate) update for the parent.
    SendUp,
    /// The buffer holds a result to broadcast to every downstream child.
    MulticastDown,
    /// The buffer holds a result for this one downstream child.
    UnicastDown(WorkerId),
    /// Aggregated (or ignored as duplicate); buffer untouched.
    Drop,
}

#[derive(Debug, Clone)]
struct CachedResult {
    off: ElemOffset,
    values: Vec<i32>,
}

/// A switch in a multi-rack aggregation tree.
#[derive(Debug)]
pub struct HierarchicalSwitch {
    inner: ReliableSwitch,
    role: Role,
    /// Final results cached from the parent, per (version, slot), so
    /// children's retransmissions can be served locally.
    results: [Vec<Option<CachedResult>>; 2],
    /// Results from the parent rejected as malformed.
    rejected_results: u64,
}

impl HierarchicalSwitch {
    /// `proto.n_workers` must be the number of *direct children*
    /// (workers or child switches) of this switch.
    pub fn new(proto: &Protocol, role: Role) -> Result<Self> {
        let inner = ReliableSwitch::new(proto)?;
        let s = proto.pool_size;
        Ok(HierarchicalSwitch {
            inner,
            role,
            results: [vec![None; s], vec![None; s]],
            rejected_results: 0,
        })
    }

    /// The aggregation pool's counters; `rejected` also counts results
    /// from the parent for a slot or width this switch does not have.
    pub fn stats(&self) -> SwitchStats {
        let mut stats = self.inner.stats();
        stats.rejected += self.rejected_results;
        stats
    }

    /// Handle an update arriving from a downstream child, encoding what
    /// to send into `out`.
    pub fn on_update_from_below(
        &mut self,
        v: &PacketView<'_>,
        out: &mut Vec<u8>,
    ) -> Result<HierAction> {
        let (ver, idx, off) = (v.ver().index(), v.idx() as usize, v.off());
        match self.inner.on_view(v, out)? {
            WireAction::Multicast => match self.role {
                Role::Root => Ok(HierAction::MulticastDown),
                Role::Intermediate { upstream_wid } => {
                    // A fresh phase completed here: any cached final
                    // result for this (ver, slot) belongs to the phase
                    // two iterations ago and is now dead.
                    self.results[ver][idx] = None;
                    restamp_as_update(out, upstream_wid, false);
                    Ok(HierAction::SendUp)
                }
            },
            WireAction::Unicast(wid) => match self.role {
                // Root already holds the final result in its shadow
                // copy: answer the child directly.
                Role::Root => Ok(HierAction::UnicastDown(wid)),
                Role::Intermediate { upstream_wid } => {
                    if let Some(cached) = &self.results[ver][idx] {
                        if cached.off == off {
                            // Final result known: serve it downward.
                            encode_result_into(ResultMeta::answering(v), &cached.values, out);
                            return Ok(HierAction::UnicastDown(wid));
                        }
                    }
                    // Final not yet known: re-forward our partial
                    // aggregate upstream (it may have been lost).
                    restamp_as_update(out, upstream_wid, true);
                    Ok(HierAction::SendUp)
                }
            },
            WireAction::Drop => Ok(HierAction::Drop),
        }
    }

    /// Handle a result arriving from the parent: cache it, and copy it
    /// into `out` to re-multicast. A result for no slot of this switch,
    /// of the wrong width, or sent to the root (which has no parent) is
    /// counted in [`Self::stats`]' `rejected` and refused.
    pub fn on_result_from_above(
        &mut self,
        v: &PacketView<'_>,
        out: &mut Vec<u8>,
    ) -> Result<HierAction> {
        let idx = v.idx() as usize;
        if self.role == Role::Root // the root has no parent
            || v.kind() != PacketKind::Result
            || idx >= self.inner.pool_size()
            || v.n_elems() != self.inner.k()
        {
            self.rejected_results += 1;
            return Err(Error::OutOfRange("result for no slot of this switch"));
        }
        // Reuse the cache entry's allocation across phases: this runs
        // once per result per slot, steady-state, and the vector is
        // always exactly k elements.
        let cached = self.results[v.ver().index()][idx].get_or_insert_with(|| CachedResult {
            off: 0,
            values: Vec::new(),
        });
        cached.off = v.off();
        v.to_i32_into(&mut cached.values);
        out.clear();
        out.extend_from_slice(v.frame());
        Ok(HierAction::MulticastDown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, Payload, PoolVersion};

    fn proto(n: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k: 1,
            pool_size: 2,
            ..Protocol::default()
        }
    }

    fn upd(wid: u16, ver: PoolVersion, idx: u32, off: u64, v: i32) -> Packet {
        Packet {
            kind: PacketKind::Update,
            wid,
            ver,
            idx,
            off,
            job: 0,
            epoch: 0,
            retransmission: false,
            payload: Payload::I32(vec![v]),
        }
    }

    /// Run `p` through `sw` from below (or, for a result, from above);
    /// the action and the frame it left in the buffer, decoded.
    fn feed(sw: &mut HierarchicalSwitch, p: &Packet) -> (HierAction, Option<Packet>) {
        let frame = p.encode();
        let v = PacketView::parse(&frame).unwrap();
        let mut out = Vec::new();
        let act = match p.kind {
            PacketKind::Update => sw.on_update_from_below(&v, &mut out),
            PacketKind::Result => sw.on_result_from_above(&v, &mut out),
        }
        .unwrap();
        (
            act,
            (act != HierAction::Drop).then(|| Packet::decode(&out).unwrap()),
        )
    }

    /// Drive a full 2-rack aggregation by hand: rack switches with 2
    /// workers each, one root with 2 children.
    #[test]
    fn two_rack_end_to_end() {
        let mut rack0 =
            HierarchicalSwitch::new(&proto(2), Role::Intermediate { upstream_wid: 0 }).unwrap();
        let mut rack1 =
            HierarchicalSwitch::new(&proto(2), Role::Intermediate { upstream_wid: 1 }).unwrap();
        let mut root = HierarchicalSwitch::new(&proto(2), Role::Root).unwrap();
        let v0 = PoolVersion::V0;

        // Rack 0's workers contribute 1 and 2.
        assert_eq!(feed(&mut rack0, &upd(0, v0, 0, 0, 1)).0, HierAction::Drop);
        let up0 = match feed(&mut rack0, &upd(1, v0, 0, 0, 2)) {
            (HierAction::SendUp, Some(p)) => p,
            other => panic!("{other:?}"),
        };
        assert_eq!(up0.payload, Payload::I32(vec![3]));
        assert_eq!(up0.wid, 0); // rack 0 poses as worker 0 of the root
        assert_eq!(up0.kind, PacketKind::Update);
        assert!(!up0.retransmission);

        // Rack 1's workers contribute 10 and 20.
        assert_eq!(feed(&mut rack1, &upd(0, v0, 0, 0, 10)).0, HierAction::Drop);
        let up1 = match feed(&mut rack1, &upd(1, v0, 0, 0, 20)) {
            (HierAction::SendUp, Some(p)) => p,
            other => panic!("{other:?}"),
        };

        // Root aggregates the partials.
        assert_eq!(feed(&mut root, &up0).0, HierAction::Drop);
        let down = match feed(&mut root, &up1) {
            (HierAction::MulticastDown, Some(p)) => p,
            other => panic!("{other:?}"),
        };
        assert_eq!(down.payload, Payload::I32(vec![33]));
        assert_eq!(down.kind, PacketKind::Result);

        // Racks re-multicast to their workers, unchanged.
        assert_eq!(
            feed(&mut rack0, &down),
            (HierAction::MulticastDown, Some(down.clone()))
        );
        assert_eq!(feed(&mut rack1, &down).0, HierAction::MulticastDown);
    }

    #[test]
    fn child_retx_before_final_triggers_upward_retx() {
        let mut rack =
            HierarchicalSwitch::new(&proto(2), Role::Intermediate { upstream_wid: 3 }).unwrap();
        let v0 = PoolVersion::V0;
        feed(&mut rack, &upd(0, v0, 0, 0, 1));
        feed(&mut rack, &upd(1, v0, 0, 0, 2)); // partial sent up (lost, say)

        // Worker 0 times out and retransmits; rack has no final yet →
        // it must re-forward the partial upward.
        match feed(&mut rack, &upd(0, v0, 0, 0, 1)) {
            (HierAction::SendUp, Some(p)) => {
                assert_eq!(p.payload, Payload::I32(vec![3]));
                assert_eq!(p.wid, 3);
                assert_eq!(p.kind, PacketKind::Update);
                assert!(p.retransmission);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn child_retx_after_final_served_from_cache() {
        let mut rack =
            HierarchicalSwitch::new(&proto(2), Role::Intermediate { upstream_wid: 0 }).unwrap();
        let v0 = PoolVersion::V0;
        feed(&mut rack, &upd(0, v0, 0, 0, 1));
        feed(&mut rack, &upd(1, v0, 0, 0, 2));
        // Final arrives from the parent.
        let final_pkt = Packet {
            kind: PacketKind::Result,
            ..upd(0, v0, 0, 0, 33)
        };
        feed(&mut rack, &final_pkt);
        // Worker 1 missed the downward multicast and retransmits.
        match feed(&mut rack, &upd(1, v0, 0, 0, 2)) {
            (HierAction::UnicastDown(1), Some(p)) => {
                assert_eq!(p.payload, Payload::I32(vec![33]));
                assert_eq!(p.kind, PacketKind::Result);
                assert_eq!(p.wid, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn root_serves_retx_from_shadow() {
        let mut root = HierarchicalSwitch::new(&proto(2), Role::Root).unwrap();
        let v0 = PoolVersion::V0;
        feed(&mut root, &upd(0, v0, 0, 0, 5));
        feed(&mut root, &upd(1, v0, 0, 0, 6));
        match feed(&mut root, &upd(0, v0, 0, 0, 5)) {
            (HierAction::UnicastDown(0), Some(p)) => {
                assert_eq!(p.payload, Payload::I32(vec![11]))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn misdirected_results_from_above_are_counted_and_refused() {
        let mut rack =
            HierarchicalSwitch::new(&proto(2), Role::Intermediate { upstream_wid: 0 }).unwrap();
        let result = |idx: u32, v: Vec<i32>| Packet {
            kind: PacketKind::Result,
            idx,
            payload: Payload::I32(v),
            ..upd(0, PoolVersion::V0, 0, 0, 0)
        };
        let mut out = Vec::new();
        for bad in [result(2, vec![1]), result(0, vec![1, 2])] {
            let frame = bad.encode();
            let v = PacketView::parse(&frame).unwrap();
            assert!(rack.on_result_from_above(&v, &mut out).is_err());
        }
        assert_eq!(rack.stats().rejected, 2);
        let mut root = HierarchicalSwitch::new(&proto(2), Role::Root).unwrap();
        let frame = result(0, vec![1]).encode();
        let v = PacketView::parse(&frame).unwrap();
        assert!(root.on_result_from_above(&v, &mut out).is_err());
        assert_eq!(root.stats().rejected, 1);
        assert!(out.is_empty());
    }
}
