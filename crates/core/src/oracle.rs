//! Protocol invariant oracles (§3.5, Appendix A).
//!
//! One executable definition of "the switch behaved correctly",
//! shared by every substrate that hosts a switch state machine: the
//! netsim switch node, the threaded single-core and sharded runners
//! (as `debug_assertions`-only checks on their hot paths), and the
//! `switchml-check` model checker (as a hard oracle on every explored
//! schedule).
//!
//! The oracle is a *reference model*: an independent re-execution of
//! Algorithm 3 (or Algorithm 1 for [`BasicOracle`]) fed the same
//! packet stream. After each packet it checks
//!
//! * **action correctness** — the switch dropped / multicast / unicast
//!   exactly when the reference model says it should;
//! * **no double-add** — the slot value equals the reference sum,
//!   computed with the very same [`WireElems`] arithmetic, so any
//!   duplicate folded in twice diverges bit-exactly;
//! * **bitmap ⊆ contributors** — the `seen` bitmap equals the
//!   reference contributor set (Algorithm 3's per-(version, slot)
//!   bookkeeping);
//! * **counter discipline** — `count == popcount(seen) mod n`, the
//!   §3.5 relation that makes completion detection and shadow-copy
//!   retention work;
//! * **phase-offset discipline** — all contributions of a phase carry
//!   one element offset (pool-version phase discipline).
//!
//! The comparisons read the implementation through narrow read-only
//! views ([`ReliableStateView`]) so the checker can also point the
//! same oracle at deliberately broken switch implementations
//! (mutation testing).

use crate::bitmap::WorkerBitmap;
use crate::config::Protocol;
use crate::packet::{ElemOffset, PacketView, PoolVersion, WireElems};
use crate::switch::basic::BasicSwitch;
use crate::switch::reliable::{CellView, ReliableSwitch};
use crate::switch::WireAction;
use std::fmt;

/// A violated protocol invariant: which oracle fired and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// Short stable identifier of the invariant (used by trace files).
    pub oracle: &'static str,
    /// Human-readable diagnosis.
    pub message: String,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.message)
    }
}

fn violation(oracle: &'static str, message: String) -> OracleViolation {
    OracleViolation { oracle, message }
}

/// Read-only access to a reliable switch's per-(version, slot) cells.
/// [`ReliableSwitch`] implements it; so do the model checker's mutant
/// switches, which is what lets one oracle judge both.
pub trait ReliableStateView {
    fn cell_view(&self, ver: PoolVersion, idx: usize) -> CellView<'_>;
}

impl ReliableStateView for ReliableSwitch {
    fn cell_view(&self, ver: PoolVersion, idx: usize) -> CellView<'_> {
        self.cell(ver, idx)
    }
}

/// Reference state for one (version, slot) cell.
#[derive(Debug, Clone)]
struct RefCell {
    sum: Vec<i32>,
    count: usize,
    contributors: WorkerBitmap,
    off: ElemOffset,
    /// Did the last phase aggregated here run to completion (so the
    /// cell holds a shadow copy a laggard may still request)?
    complete: bool,
}

/// Reference model of [`ReliableSwitch`] (Algorithm 3), §3.5 oracle.
#[derive(Debug, Clone)]
pub struct ReliableOracle {
    n: usize,
    k: usize,
    wrapping: bool,
    cells: [Vec<RefCell>; 2],
}

impl ReliableOracle {
    pub fn new(n_workers: usize, k: usize, pool_size: usize, wrapping: bool) -> Self {
        let mk = || {
            (0..pool_size)
                .map(|_| RefCell {
                    sum: vec![0; k],
                    count: 0,
                    contributors: WorkerBitmap::empty(),
                    off: 0,
                    complete: false,
                })
                .collect::<Vec<_>>()
        };
        ReliableOracle {
            n: n_workers,
            k,
            wrapping,
            cells: [mk(), mk()],
        }
    }

    pub fn for_proto(proto: &Protocol) -> Self {
        Self::new(
            proto.n_workers,
            proto.k,
            proto.pool_size,
            proto.wrapping_add,
        )
    }

    pub fn for_switch(sw: &ReliableSwitch) -> Self {
        Self::new(sw.n_workers(), sw.k(), sw.pool_size(), sw.wrapping())
    }

    /// The reference model's view of a cell's aggregate, for callers
    /// (the checker's final-result oracle) that want the spec's sum.
    pub fn reference_sum(&self, ver: PoolVersion, idx: usize) -> &[i32] {
        &self.cells[ver.index()][idx].sum
    }

    /// Feed one update the switch processed successfully (answering
    /// `observed`), advance the reference model, and compare the
    /// implementation's state against it.
    ///
    /// Malformed packets the switch *rejected* (returned an error for)
    /// must not be fed here: rejection leaves both states untouched.
    pub fn observe_update<S: ReliableStateView>(
        &mut self,
        update: &PacketView<'_>,
        observed: WireAction,
        switch: &S,
    ) -> std::result::Result<(), OracleViolation> {
        let (wid, off) = (update.wid(), update.off());
        let idx = update.idx() as usize;
        let w = wid as usize;
        if idx >= self.cells[0].len() || w >= self.n || update.n_elems() != self.k {
            return Err(violation(
                "reject-discipline",
                format!(
                    "switch accepted a malformed update (wid {wid} slot {idx} k {})",
                    update.n_elems()
                ),
            ));
        }
        let v = update.ver().index();
        let o = 1 - v;

        let expected = if !self.cells[v][idx].contributors.contains(w) {
            // Fresh contribution to this phase.
            self.cells[o][idx].contributors.clear(w);
            let cell = &mut self.cells[v][idx];
            if cell.count == 0 {
                // First contribution of the phase overwrites (implicit
                // release of the shadow copy two phases back).
                update.overwrite_into(&mut cell.sum);
                cell.off = off;
                cell.complete = false;
            } else {
                if cell.off != off {
                    // The switch must have rejected this; seeing it
                    // here with an Ok action is itself a violation.
                    return Err(violation(
                        "phase-offset",
                        format!(
                            "slot {idx} ver {v}: worker {w} folded in off {off} into a phase at off {}",
                            cell.off
                        ),
                    ));
                }
                update.add_into(&mut cell.sum, self.wrapping);
            }
            cell.contributors.set(w);
            cell.count = (cell.count + 1) % self.n;
            if cell.count == 0 {
                cell.complete = true;
                WireAction::Multicast
            } else {
                WireAction::Drop
            }
        } else {
            // Duplicate within the phase.
            let cell = &self.cells[v][idx];
            if cell.complete {
                WireAction::Unicast(wid)
            } else {
                WireAction::Drop
            }
        };

        if observed != expected {
            return Err(violation(
                "action",
                format!(
                    "slot {idx} ver {v} worker {w} off {off}: switch answered {observed:?}, \
                     Algorithm 3 requires {expected:?}"
                ),
            ));
        }

        // Compare implementation state against the reference model for
        // both versions of the touched slot.
        for ver_ix in 0..2 {
            let cell = &self.cells[ver_ix][idx];
            let actual = switch.cell_view(PoolVersion::from_bit(ver_ix == 1), idx);
            if actual.count != cell.count {
                return Err(violation(
                    "counter-discipline",
                    format!(
                        "slot {idx} ver {ver_ix}: count {} but reference model has {}",
                        actual.count, cell.count
                    ),
                ));
            }
            if actual.seen != cell.contributors {
                return Err(violation(
                    "bitmap-contributors",
                    format!(
                        "slot {idx} ver {ver_ix}: seen bitmap {:?} != reference contributor set {:?}",
                        actual.seen.iter().collect::<Vec<_>>(),
                        cell.contributors.iter().collect::<Vec<_>>()
                    ),
                ));
            }
            // §3.5 count/bitmap relation: while a phase aggregates,
            // the counter tracks the set bits exactly; once it
            // completes the counter is 0 while the bitmap drains into
            // the other pool one fresh contribution at a time.
            let coherent = if cell.complete {
                actual.count == 0
            } else {
                actual.count == cell.contributors.count()
            };
            if !coherent {
                return Err(violation(
                    "counter-discipline",
                    format!(
                        "slot {idx} ver {ver_ix}: count {} incoherent with popcount(seen) {} \
                         (phase complete: {})",
                        actual.count,
                        cell.contributors.count(),
                        cell.complete
                    ),
                ));
            }
            if actual.off != cell.off {
                return Err(violation(
                    "phase-offset",
                    format!(
                        "slot {idx} ver {ver_ix}: phase off {} but reference model has {}",
                        actual.off, cell.off
                    ),
                ));
            }
            if actual.value != cell.sum.as_slice() {
                return Err(violation(
                    "double-add",
                    format!(
                        "slot {idx} ver {ver_ix}: aggregate diverged from the reference sum \
                         (switch {:?} vs reference {:?})",
                        &actual.value[..actual.value.len().min(8)],
                        &cell.sum[..cell.sum.len().min(8)]
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Reference model of [`BasicSwitch`] (Algorithm 1): per-slot sums and
/// counters on a lossless fabric. No duplicate protection exists to
/// check, so the oracle is exact-sum plus counter discipline.
#[derive(Debug, Clone)]
pub struct BasicOracle {
    n: usize,
    k: usize,
    wrapping: bool,
    sums: Vec<Vec<i32>>,
    counts: Vec<usize>,
}

impl BasicOracle {
    pub fn new(n_workers: usize, k: usize, pool_size: usize, wrapping: bool) -> Self {
        BasicOracle {
            n: n_workers,
            k,
            wrapping,
            sums: vec![vec![0; k]; pool_size],
            counts: vec![0; pool_size],
        }
    }

    pub fn for_proto(proto: &Protocol) -> Self {
        Self::new(
            proto.n_workers,
            proto.k,
            proto.pool_size,
            proto.wrapping_add,
        )
    }

    /// Feed one update the switch accepted and compare state. `switch`
    /// must be inspected *after* it processed the packet (i.e. after
    /// the completed slot was released).
    pub fn observe_update(
        &mut self,
        update: &PacketView<'_>,
        observed: WireAction,
        switch: &BasicSwitch,
    ) -> std::result::Result<(), OracleViolation> {
        let idx = update.idx() as usize;
        if idx >= self.sums.len() || update.n_elems() != self.k {
            return Err(violation(
                "reject-discipline",
                format!("switch accepted a malformed update (slot {idx})"),
            ));
        }
        update.add_into(&mut self.sums[idx], self.wrapping);
        self.counts[idx] += 1;
        let expected = if self.counts[idx] == self.n {
            // Completion: Algorithm 1 zeroes the slot after emitting.
            self.counts[idx] = 0;
            self.sums[idx].iter_mut().for_each(|x| *x = 0);
            WireAction::Multicast
        } else {
            WireAction::Drop
        };
        if observed != expected {
            return Err(violation(
                "action",
                format!(
                    "slot {idx}: switch answered {observed:?}, Algorithm 1 requires {expected:?}"
                ),
            ));
        }
        let (value, count) = switch.slot(idx);
        if count != self.counts[idx] {
            return Err(violation(
                "counter-discipline",
                format!(
                    "slot {idx}: count {count} but reference model has {}",
                    self.counts[idx]
                ),
            ));
        }
        if value != self.sums[idx].as_slice() {
            return Err(violation(
                "double-add",
                format!("slot {idx}: aggregate diverged from the reference sum"),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketKind, Payload};

    fn proto(n: usize, k: usize, s: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k,
            pool_size: s,
            ..Protocol::default()
        }
    }

    fn upd(wid: u16, ver: PoolVersion, idx: u32, off: u64, v: Vec<i32>) -> Vec<u8> {
        Packet {
            kind: PacketKind::Update,
            wid,
            ver,
            idx,
            off,
            job: 0,
            epoch: 0,
            retransmission: false,
            payload: Payload::I32(v),
        }
        .encode()
        .to_vec()
    }

    #[test]
    fn clean_run_passes_the_oracle() {
        let p = proto(2, 2, 1);
        let mut sw = ReliableSwitch::new(&p).unwrap();
        let mut oracle = ReliableOracle::for_proto(&p);
        let mut out = Vec::new();
        let script = [
            upd(0, PoolVersion::V0, 0, 0, vec![1, 2]),
            upd(0, PoolVersion::V0, 0, 0, vec![1, 2]), // dup before completion
            upd(1, PoolVersion::V0, 0, 0, vec![3, 4]), // completes
            upd(1, PoolVersion::V0, 0, 0, vec![3, 4]), // dup after: unicast
            upd(0, PoolVersion::V1, 0, 2, vec![5, 6]),
            upd(1, PoolVersion::V1, 0, 2, vec![7, 8]),
        ];
        for frame in script {
            let v = PacketView::parse(&frame).unwrap();
            let action = sw.on_view(&v, &mut out).unwrap();
            oracle.observe_update(&v, action, &sw).unwrap();
        }
        assert_eq!(oracle.reference_sum(PoolVersion::V1, 0), &[12, 14]);
    }

    #[test]
    fn divergent_state_is_flagged() {
        // Feed the oracle a *different* switch than the one that
        // processed the packet: states diverge, the oracle fires.
        let p = proto(2, 1, 1);
        let mut sw = ReliableSwitch::new(&p).unwrap();
        let fresh = ReliableSwitch::new(&p).unwrap();
        let mut oracle = ReliableOracle::for_proto(&p);
        let frame = upd(0, PoolVersion::V0, 0, 0, vec![9]);
        let v = PacketView::parse(&frame).unwrap();
        let action = sw.on_view(&v, &mut Vec::new()).unwrap();
        let err = oracle.observe_update(&v, action, &fresh).unwrap_err();
        assert!(
            err.oracle == "counter-discipline" || err.oracle == "bitmap-contributors",
            "{err}"
        );
    }

    #[test]
    fn wrong_action_is_flagged() {
        let p = proto(2, 1, 1);
        let mut sw = ReliableSwitch::new(&p).unwrap();
        let mut oracle = ReliableOracle::for_proto(&p);
        let frame = upd(0, PoolVersion::V0, 0, 0, vec![1]);
        let v = PacketView::parse(&frame).unwrap();
        sw.on_view(&v, &mut Vec::new()).unwrap();
        // Claim the switch multicast when it should have dropped.
        let err = oracle
            .observe_update(&v, WireAction::Multicast, &sw)
            .unwrap_err();
        assert_eq!(err.oracle, "action");
    }

    #[test]
    fn basic_oracle_tracks_algorithm_1() {
        let p = proto(2, 2, 2);
        let mut sw = BasicSwitch::new(&p).unwrap();
        let mut oracle = BasicOracle::for_proto(&p);
        let mut out = Vec::new();
        for frame in [
            upd(0, PoolVersion::V0, 0, 0, vec![1, 1]),
            upd(1, PoolVersion::V0, 0, 0, vec![2, 2]),
            upd(0, PoolVersion::V0, 1, 4, vec![3, 3]),
        ] {
            let v = PacketView::parse(&frame).unwrap();
            let action = sw.on_view(&v, &mut out).unwrap();
            oracle.observe_update(&v, action, &sw).unwrap();
        }
    }
}
