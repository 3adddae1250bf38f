//! The switch under test, with its invariant oracle attached.
//!
//! [`SwitchModel`] pairs each switch state machine with the matching
//! reference-model oracle from [`switchml_core::oracle`] and runs the
//! two in lock-step: every delivered update advances both, and any
//! divergence (state or action) surfaces as a [`Violation`] carrying
//! the oracle's diagnosis.
//!
//! [`MutantSwitch`] is the checker's built-in mutation: Algorithm 3
//! re-implemented *without* the `seen`-bitmap duplicate check, so a
//! duplicated or retransmitted update is folded into the aggregate
//! twice. The explorer must catch it — that is the acceptance test for
//! the whole harness.
//!
//! The second seeded mutation is [`SwitchKind::MutantNoEpoch`]: a real
//! [`ReliableSwitch`] whose ingress admits whatever generation a packet
//! carries, deleting the §5.4 epoch fence. Every
//! switch model is audited on stale-generation packets by the
//! `epoch-fence` oracle: the only correct response is counted-and-drop
//! with the pool untouched.
//!
//! Every switch model ingests what the sockets deliver: a validated
//! [`PacketView`], the response encoded into the caller's frame.

use crate::scenario::{Scenario, SwitchKind};
use crate::world::Violation;
use switchml_core::bitmap::WorkerBitmap;
use switchml_core::error::Error;
use switchml_core::oracle::{BasicOracle, ReliableOracle, ReliableStateView};
use switchml_core::packet::{encode_result_into, PacketView, PoolVersion, ResultMeta, WireElems};
use switchml_core::switch::basic::BasicSwitch;
use switchml_core::switch::multijob::MultiJobSwitch;
use switchml_core::switch::pipeline::PipelineModel;
use switchml_core::switch::reliable::{CellView, ReliableSwitch};
use switchml_core::switch::WireAction;

/// A switch plus the oracle that audits it.
#[derive(Debug, Clone)]
pub enum SwitchModel {
    Basic {
        sw: BasicSwitch,
        oracle: BasicOracle,
    },
    Reliable {
        sw: ReliableSwitch,
        oracle: ReliableOracle,
    },
    MultiJob {
        sw: MultiJobSwitch,
        /// One oracle per admitted job, indexed by job id (0-based).
        oracles: Vec<ReliableOracle>,
    },
    Mutant {
        sw: MutantSwitch,
        oracle: ReliableOracle,
    },
    /// A real [`ReliableSwitch`] behind an ingress that admits any
    /// packet's generation — the no-epoch-fence mutation.
    MutantNoEpoch {
        sw: ReliableSwitch,
        oracle: ReliableOracle,
    },
    /// Two tenants mapped onto ONE shared physical pool: the
    /// scheduler mutation that skipped the slot-disjointness check
    /// when partitioning the pool. Every live job claims the same
    /// slot range, so the first switch-bound delivery trips the
    /// `partition-disjoint` oracle.
    MutantOverlap { sw: ReliableSwitch },
}

/// Owned copy of one slot's protocol-visible state across both pool
/// versions, for before/after comparison around a stale-generation
/// packet. `None` entries mean the switch kind has no such cell
/// (Algorithm 1 has a single unversioned pool, snapshotted as V0).
type PoolSnapshot = Vec<Option<(Vec<i32>, usize, WorkerBitmap, u64)>>;

impl SwitchModel {
    pub fn new(sc: &Scenario) -> Result<Self, String> {
        let proto = sc.proto();
        // Every world runs at a nonzero generation so the adversary
        // has a dead one to forge from; the fences must match it.
        let epoch = Scenario::EPOCH;
        Ok(match sc.switch {
            SwitchKind::Basic => {
                let mut sw = BasicSwitch::new(&proto).map_err(|e| e.to_string())?;
                sw.set_epoch(epoch);
                SwitchModel::Basic {
                    sw,
                    oracle: BasicOracle::for_proto(&proto),
                }
            }
            SwitchKind::Reliable => {
                let mut sw = ReliableSwitch::new(&proto).map_err(|e| e.to_string())?;
                sw.set_epoch(epoch);
                SwitchModel::Reliable {
                    sw,
                    oracle: ReliableOracle::for_proto(&proto),
                }
            }
            SwitchKind::MultiJob { jobs } => {
                let mut sw = MultiJobSwitch::new(PipelineModel::default());
                let mut oracles = Vec::with_capacity(jobs as usize);
                for job in 0..jobs {
                    sw.admit(job, &proto).map_err(|e| e.to_string())?;
                    sw.set_job_epoch(job, epoch).map_err(|e| e.to_string())?;
                    oracles.push(ReliableOracle::for_proto(&proto));
                }
                SwitchModel::MultiJob { sw, oracles }
            }
            SwitchKind::MutantNoBitmap => SwitchModel::Mutant {
                sw: MutantSwitch::new(&proto),
                oracle: ReliableOracle::for_proto(&proto),
            },
            SwitchKind::MutantNoEpoch => {
                let mut sw = ReliableSwitch::new(&proto).map_err(|e| e.to_string())?;
                sw.set_epoch(epoch);
                SwitchModel::MutantNoEpoch {
                    sw,
                    oracle: ReliableOracle::for_proto(&proto),
                }
            }
            SwitchKind::MutantOverlapPartition => {
                let mut sw = ReliableSwitch::new(&proto).map_err(|e| e.to_string())?;
                sw.set_epoch(epoch);
                SwitchModel::MutantOverlap { sw }
            }
        })
    }

    /// The slot ranges each live job claims in the pool's global slot
    /// address space, for multi-tenant kinds (`None` for single-tenant
    /// switches, where there is nothing to partition).
    ///
    /// This is the scheduler's tenancy invariant made checkable: the
    /// `partition-disjoint` oracle audits every switch-bound update
    /// against these claims.
    fn claimed_ranges(&self) -> Option<Vec<(u8, u32, u32)>> {
        match self {
            SwitchModel::MultiJob { sw, .. } => Some(
                sw.partition()
                    .into_iter()
                    .map(|(job, r)| (job, r.base, r.len))
                    .collect(),
            ),
            // THE BUG UNDER TEST: both tenants were handed the same
            // physical range.
            SwitchModel::MutantOverlap { sw } => {
                let s = sw.pool_size() as u32;
                Some(vec![(0, 0, s), (1, 0, s)])
            }
            _ => None,
        }
    }

    /// The scheduler oracle: the global slot an update touches must
    /// lie inside its own job's claimed range and no other live
    /// job's. Packets whose local index falls outside their own range
    /// are left for the switch's own bounds check.
    fn audit_partition(&self, job: u8, idx: u32) -> Result<(), Violation> {
        let Some(ranges) = self.claimed_ranges() else {
            return Ok(());
        };
        let Some(&(_, base, len)) = ranges.iter().find(|&&(j, _, _)| j == job) else {
            return Ok(());
        };
        if idx >= len {
            return Ok(());
        }
        let global = base + idx;
        if let Some(&(other, ob, ol)) = ranges
            .iter()
            .find(|&&(j, ob, ol)| j != job && global >= ob && global < ob + ol)
        {
            return Err(Violation {
                oracle: "partition-disjoint".into(),
                message: format!(
                    "job {job} update for local slot {idx} lands on global slot {global} \
                     of its range [{base}, {}), which live job {other} also claims as \
                     [{ob}, {}) — two live jobs may never overlap a slot",
                    base + len,
                    ob + ol
                ),
            });
        }
        Ok(())
    }

    /// Deliver one update to the switch, auditing the result; a
    /// response is encoded into `out`.
    pub fn on_update(
        &mut self,
        v: &PacketView<'_>,
        out: &mut Vec<u8>,
    ) -> Result<WireAction, Violation> {
        if v.epoch() != Scenario::EPOCH {
            return self.on_stale_update(v, out);
        }
        self.audit_partition(v.job(), v.idx())?;
        let job = v.job();
        let step = |action: Result<WireAction, Error>| {
            action.map_err(|e| Violation {
                oracle: "switch-reject".into(),
                message: format!("switch rejected an adversary-legal packet: {e}"),
            })
        };
        match self {
            SwitchModel::Basic { sw, oracle } => {
                let action = step(sw.on_view(v, out))?;
                oracle.observe_update(v, action, sw)?;
                Ok(action)
            }
            SwitchModel::Reliable { sw, oracle } => {
                let action = step(sw.on_view(v, out))?;
                oracle.observe_update(v, action, sw)?;
                Ok(action)
            }
            SwitchModel::MultiJob { sw, oracles } => {
                let action = step(sw.on_view(v, out))?;
                let oracle = oracles.get_mut(job as usize).ok_or_else(|| Violation {
                    oracle: "switch-reject".into(),
                    message: format!("packet for unadmitted job {job}"),
                })?;
                let view = sw.job_switch(job).expect("admitted job has a pool");
                oracle.observe_update(v, action, view)?;
                Ok(action)
            }
            SwitchModel::Mutant { sw, oracle } => {
                let action = step(sw.on_view(v, out))?;
                oracle.observe_update(v, action, &*sw)?;
                Ok(action)
            }
            SwitchModel::MutantNoEpoch { sw, oracle } => {
                // Current-generation traffic: the erased fence would
                // have admitted it anyway.
                let action = step(sw.on_view(v, out))?;
                oracle.observe_update(v, action, &*sw)?;
                Ok(action)
            }
            SwitchModel::MutantOverlap { sw } => {
                // Unreachable in practice: with both tenants claiming
                // one range, `audit_partition` fires on the first
                // delivery. Kept runnable so replay stays total.
                step(sw.on_view(v, out))
            }
        }
    }

    /// A packet from a dead generation reached the switch. §5.4's
    /// contract is absolute: counted-and-dropped at ingress, pool
    /// state untouched, no oracle advance (the reference model never
    /// sees fenced traffic). Anything else is an `epoch-fence`
    /// violation — which is exactly how the no-epoch mutant dies.
    fn on_stale_update(
        &mut self,
        v: &PacketView<'_>,
        out: &mut Vec<u8>,
    ) -> Result<WireAction, Violation> {
        let (job, idx, epoch) = (v.job(), v.idx() as usize, v.epoch());
        let before = self.pool_snapshot(job, idx);
        let action = match self {
            SwitchModel::Basic { sw, .. } => sw.on_view(v, out),
            SwitchModel::Reliable { sw, .. } => sw.on_view(v, out),
            SwitchModel::MultiJob { sw, .. } => sw.on_view(v, out),
            SwitchModel::Mutant { sw, .. } => sw.on_view(v, out),
            SwitchModel::MutantNoEpoch { sw, .. } => {
                // THE BUG UNDER TEST: the fence admits the straggler's
                // generation, so it reaches Algorithm 3 ingress.
                let fence = sw.epoch();
                sw.set_epoch(epoch);
                let action = sw.on_view(v, out);
                sw.set_epoch(fence);
                action
            }
            SwitchModel::MutantOverlap { sw } => sw.on_view(v, out),
        }
        .map_err(|e| Violation {
            oracle: "epoch-fence".into(),
            message: format!("switch errored on a stale-generation update: {e}"),
        })?;
        if action != WireAction::Drop {
            let answered = match action {
                WireAction::Multicast => "Multicast",
                WireAction::Unicast(_) => "Unicast",
                WireAction::Drop => unreachable!(),
            };
            return Err(Violation {
                oracle: "epoch-fence".into(),
                message: format!(
                    "slot {idx}: switch answered {answered} to an epoch-{epoch} update \
                     while fenced at epoch {}; §5.4 requires counted-and-drop",
                    Scenario::EPOCH
                ),
            });
        }
        let after = self.pool_snapshot(job, idx);
        if before != after {
            return Err(Violation {
                oracle: "epoch-fence".into(),
                message: format!(
                    "slot {idx}: an epoch-{epoch} update mutated pool state through a fence \
                     at epoch {} — a dead generation's bytes reached the aggregate",
                    Scenario::EPOCH
                ),
            });
        }
        Ok(WireAction::Drop)
    }

    /// Owned state of slot `idx` (both pool versions) for `job`.
    fn pool_snapshot(&self, job: u8, idx: usize) -> PoolSnapshot {
        match self {
            SwitchModel::Basic { sw, .. } => {
                let (value, count) = sw.slot(idx);
                vec![
                    Some((value.to_vec(), count, WorkerBitmap::empty(), 0)),
                    None,
                ]
            }
            _ => [PoolVersion::V0, PoolVersion::V1]
                .into_iter()
                .map(|ver| {
                    self.cell(job, ver, idx)
                        .map(|c| (c.value.to_vec(), c.count, c.seen, c.off))
                })
                .collect(),
        }
    }

    /// The (version, slot) cell for `job`, if this switch kind has
    /// reliable-style cells (everything but Basic).
    pub fn cell(&self, job: u8, ver: PoolVersion, idx: usize) -> Option<CellView<'_>> {
        match self {
            SwitchModel::Basic { .. } => None,
            SwitchModel::Reliable { sw, .. } => Some(sw.cell(ver, idx)),
            SwitchModel::MultiJob { sw, .. } => sw.job_switch(job).map(|s| s.cell(ver, idx)),
            SwitchModel::Mutant { sw, .. } => Some(sw.cell_view(ver, idx)),
            SwitchModel::MutantNoEpoch { sw, .. } => Some(sw.cell(ver, idx)),
            SwitchModel::MutantOverlap { sw } => Some(sw.cell(ver, idx)),
        }
    }

    /// Feed the switch's protocol-visible state into a fingerprint
    /// hasher. Oracles are derived state (they mirror the switch) and
    /// are excluded.
    pub fn fingerprint_into(&self, h: &mut crate::world::Fnv) {
        let hash_cells = |h: &mut crate::world::Fnv, view: &dyn ReliableStateView, s: usize| {
            for ver in [PoolVersion::V0, PoolVersion::V1] {
                for idx in 0..s {
                    let c = view.cell_view(ver, idx);
                    h.write_u64(c.count as u64);
                    h.write_u64(c.off);
                    let mut bits = 0u64;
                    for w in c.seen.iter() {
                        bits |= 1u64 << (w % 64);
                    }
                    h.write_u64(bits);
                    for &x in c.value {
                        h.write_u64(x as u32 as u64);
                    }
                }
            }
        };
        match self {
            SwitchModel::Basic { sw, .. } => {
                for idx in 0..sw.pool_size() {
                    let (value, count) = sw.slot(idx);
                    h.write_u64(count as u64);
                    for &x in value {
                        h.write_u64(x as u32 as u64);
                    }
                }
            }
            SwitchModel::Reliable { sw, .. } => hash_cells(h, sw, sw.pool_size()),
            SwitchModel::MultiJob { sw, .. } => {
                let mut jobs = sw.job_ids();
                jobs.sort_unstable();
                for job in jobs {
                    let s = sw.job_switch(job).expect("listed job exists");
                    hash_cells(h, s, s.pool_size());
                }
            }
            SwitchModel::Mutant { sw, .. } => hash_cells(h, sw, sw.pool_size()),
            SwitchModel::MutantNoEpoch { sw, .. } => hash_cells(h, sw, sw.pool_size()),
            SwitchModel::MutantOverlap { sw } => hash_cells(h, sw, sw.pool_size()),
        }
    }
}

/// Per-(version, slot) state of the mutant — same shape as the real
/// switch's so the oracle can inspect it.
#[derive(Debug, Clone)]
struct MutantSlot {
    value: Vec<i32>,
    count: usize,
    seen: WorkerBitmap,
    off: u64,
}

/// Algorithm 3 with the line-9 duplicate check removed: every arriving
/// update is folded into the aggregate, so a retransmission or network
/// duplicate is double-added. The `seen` bitmap is still *maintained*
/// (set on contribution, cleared in the other pool) — it is just never
/// *consulted* — so the oracle's state comparison has real bits to
/// look at.
#[derive(Debug, Clone)]
pub struct MutantSwitch {
    n: usize,
    pools: [Vec<MutantSlot>; 2],
}

impl MutantSwitch {
    pub fn new(proto: &switchml_core::config::Protocol) -> Self {
        let mk = || {
            (0..proto.pool_size)
                .map(|_| MutantSlot {
                    value: vec![0; proto.k],
                    count: 0,
                    seen: WorkerBitmap::empty(),
                    off: 0,
                })
                .collect::<Vec<_>>()
        };
        MutantSwitch {
            n: proto.n_workers,
            pools: [mk(), mk()],
        }
    }

    pub fn pool_size(&self) -> usize {
        self.pools[0].len()
    }

    pub fn on_view(&mut self, v: &PacketView<'_>, out: &mut Vec<u8>) -> Result<WireAction, Error> {
        let ver = v.ver().index();
        let other = 1 - ver;
        let idx = v.idx() as usize;
        let wid = v.wid() as usize;
        if idx >= self.pools[0].len() || wid >= self.n {
            return Err(Error::OutOfRange("mutant: slot or worker out of range"));
        }
        // BUG UNDER TEST: Algorithm 3 checks `seen[ver][idx][wid]`
        // here and ignores duplicates. The mutant skips the check and
        // aggregates unconditionally.
        self.pools[ver][idx].seen.set(wid);
        self.pools[other][idx].seen.clear(wid);
        let slot = &mut self.pools[ver][idx];
        if slot.count == 0 {
            v.overwrite_into(&mut slot.value);
            slot.off = v.off();
        } else {
            v.add_into(&mut slot.value, false);
        }
        slot.count = (slot.count + 1) % self.n;
        if slot.count == 0 {
            encode_result_into(ResultMeta::answering(v), &slot.value, out);
            Ok(WireAction::Multicast)
        } else {
            Ok(WireAction::Drop)
        }
    }
}

impl ReliableStateView for MutantSwitch {
    fn cell_view(&self, ver: PoolVersion, idx: usize) -> CellView<'_> {
        let slot = &self.pools[ver.index()][idx];
        CellView {
            value: &slot.value,
            count: slot.count,
            seen: slot.seen,
            off: slot.off,
        }
    }
}
