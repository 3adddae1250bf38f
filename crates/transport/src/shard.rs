//! The switch side of the data plane — the one burst ingress every
//! real-transport switch drives ([`switch_ingress`]) and the switch
//! shard endpoint built on it — plus the sharded endpoint layout: one thread per
//! switch shard and one engine per (worker, core), with no locks
//! anywhere on the aggregation path.
//!
//! The paper's design (§3.5) shards "slots and chunks of tensors across
//! cores without any shared state": the Tofino pipeline is naturally
//! parallel per packet, and the DPDK workers pin one slot range + one
//! contiguous chunk range to each core, with NIC Flow Director steering
//! each result packet back to the core that owns its slot. This module
//! reproduces that architecture in threads:
//!
//! * The switch becomes `n_cores` **shards**, each its own thread with
//!   its own [`ReliableSwitch`] and its own fabric endpoint. Shard `j`
//!   owns pool slots `[j·s/c, (j+1)·s/c)` — the identical partition the
//!   worker applies ([`switchml_core::worker::Worker::sharded`]), so a
//!   shard only ever receives updates for slots it owns and the shards
//!   never share a byte of state.
//! * Each worker becomes `n_cores` **engines**, each a bare
//!   `SlotEngine` endpoint over its slot/chunk partition
//!   ([`crate::reactor`]; [`crate::runner::run_allreduce`] places one
//!   engine per thread). The per-core endpoint
//!   plays the role of a Flow-Director-steered NIC queue: shard `j`
//!   multicasts results only to the `n` core-`j` endpoints, so an
//!   engine receives exactly the results for slots it owns.
//!
//! The per-packet path is allocation-free in steady state on both
//! sides: engines quantize with [`quantize_chunk`] into a reused `i32`
//! scratch, encode with [`encode_update_into`] into a reused wire
//! buffer, and parse results as borrowed [`PacketView`]s, dequantizing
//! straight back into the elements they were quantized from; shards
//! aggregate views into slot registers and encode responses from them
//! ([`ReliableSwitch::on_view`]).
//!
//! ## Endpoint layout
//!
//! With `c = n_cores` and `n` workers, the fabric has `c·(n+1)`
//! endpoints: shard `j` is endpoint `j`, and worker `w`'s core `j` is
//! endpoint `c + w·c + j` (see [`shard_endpoint`] /
//! [`worker_core_endpoint`]).

use crate::endpoint::Endpoint;
use crate::port::TxBatch;
use crate::runner::frame_capacity;
use switchml_core::config::{Protocol, TimeNs};
use switchml_core::error::{Error, Result};
use switchml_core::packet::PacketView;
use switchml_core::switch::multijob::MultiJobSwitch;
use switchml_core::switch::reliable::ReliableSwitch;
use switchml_core::switch::{SwitchStats, WireAction};

/// Fabric endpoint of switch shard `j`.
pub fn shard_endpoint(shard: usize) -> usize {
    shard
}

/// Fabric endpoint of worker `wid`'s core `core` (out of `n_cores`).
pub fn worker_core_endpoint(wid: usize, core: usize, n_cores: usize) -> usize {
    n_cores + wid * n_cores + core
}

/// Number of fabric endpoints a sharded run needs.
pub fn sharded_fabric_size(n_workers: usize, n_cores: usize) -> usize {
    n_cores * (n_workers + 1)
}

/// A switch [`switch_ingress`] can drive: Algorithm 3 over a borrowed
/// wire view, the response encoded into `out`.
pub trait ViewSwitch {
    fn on_view(&mut self, v: &PacketView<'_>, out: &mut Vec<u8>) -> Result<WireAction>;
}

impl ViewSwitch for MultiJobSwitch {
    fn on_view(&mut self, v: &PacketView<'_>, out: &mut Vec<u8>) -> Result<WireAction> {
        MultiJobSwitch::on_view(self, v, out)
    }
}

/// A [`ReliableSwitch`] that debug builds run in lock-step with the
/// Algorithm 3 reference model (`switchml_core::oracle`): any
/// divergence panics the thread instead of corrupting a gradient.
pub(crate) struct AuditedSwitch {
    switch: ReliableSwitch,
    #[cfg(debug_assertions)]
    oracle: switchml_core::oracle::ReliableOracle,
}

impl AuditedSwitch {
    pub fn new(proto: &Protocol, epoch: u8) -> Result<Self> {
        let mut switch = ReliableSwitch::new(proto)?;
        switch.set_epoch(epoch);
        Ok(AuditedSwitch {
            #[cfg(debug_assertions)]
            oracle: switchml_core::oracle::ReliableOracle::for_switch(&switch),
            switch,
        })
    }
}

impl ViewSwitch for AuditedSwitch {
    fn on_view(&mut self, v: &PacketView<'_>, out: &mut Vec<u8>) -> Result<WireAction> {
        let action = self.switch.on_view(v, out)?;
        // The oracle models the post-fence switch: it sees accepted,
        // current-generation updates only.
        #[cfg(debug_assertions)]
        if v.epoch() == self.switch.epoch() {
            if let Err(violation) = self.oracle.observe_update(v, action, &self.switch) {
                panic!("switch violated a protocol invariant: {violation}");
            }
        }
        Ok(action)
    }
}

/// Read-only access to the audited switch (stats, slot cells); every
/// mutation goes through [`ViewSwitch::on_view`] so the oracle never
/// misses one.
impl std::ops::Deref for AuditedSwitch {
    type Target = ReliableSwitch;
    fn deref(&self) -> &ReliableSwitch {
        &self.switch
    }
}

/// The one switch-side ingress: parse `frame` as a borrowed
/// [`PacketView`], hand it to the switch, and stage the response into
/// `txb`. `route` maps the frame's job id to that job's endpoint table
/// (indexed by worker id): a multicast goes to every entry, a unicast
/// to entry `wid`. Allocation-free in steady state — the response is
/// encoded into `scratch`, then copied into `txb`'s reused frames.
///
/// Nothing that arrives on the wire can fail the caller: an unparseable
/// datagram is skipped, and a well-formed frame the switch rejects
/// (slot/worker/element count out of range, a result sent to a switch,
/// an unadmitted job) is dropped — the switch has already counted it in
/// [`SwitchStats::rejected`].
pub fn switch_ingress<'r, S: ViewSwitch>(
    switch: &mut S,
    frame: &[u8],
    scratch: &mut Vec<u8>,
    txb: &mut TxBatch,
    route: impl FnOnce(u8) -> Option<&'r [usize]>,
) {
    let Ok(view) = PacketView::parse(frame) else {
        return; // corrupted / foreign datagram
    };
    let Ok(action) = switch.on_view(&view, scratch) else {
        return;
    };
    let job = view.job();
    match action {
        WireAction::Drop => {}
        WireAction::Multicast => {
            for &ep in route(job).unwrap_or_default() {
                txb.push(ep).extend_from_slice(scratch);
            }
        }
        WireAction::Unicast(wid) => {
            if let Some(&ep) = route(job).and_then(|eps| eps.get(wid as usize)) {
                txb.push(ep).extend_from_slice(scratch);
            }
        }
    }
}

/// A failed run names what its switches dropped. Rejections are counted,
/// not fatal, so a genuine invariant break — `ReliableSwitch`'s
/// offset-mismatch `ProtocolViolation`, say — would otherwise surface
/// only as a wall-clock timeout with nothing pointing at the switch.
pub(crate) fn with_rejected(e: Error, stats: &SwitchStats) -> Error {
    match e {
        Error::ProtocolViolation(msg) if stats.rejected > 0 => Error::ProtocolViolation(format!(
            "{msg}; the switch rejected {} frame(s)",
            stats.rejected
        )),
        e => e,
    }
}

/// One switch shard as an [`Endpoint`]: a full reliable switch whose
/// traffic is restricted (by the endpoint layout) to its slot range.
/// Results go back to the `n` core-`shard` worker endpoints — the
/// multicast group of this "queue". With `shard = 0, n_cores = 1` this
/// is the single switch of the plain layout and the spine of the
/// hierarchy.
///
/// It never finishes (its thread stops on the run's stop flag) and it
/// polls in every layout, even where every engine thread parks: parking
/// it cost `udp-k256` 24 % and `hier-udp` 21 % of their throughput
/// (EXPERIMENTS.md, "Data-plane core refactor"), and was no faster for
/// the plain layout (EXPERIMENTS.md, "Plain runner on the engine
/// driver"). Netsim drives it too, as the ToR, the spine and a
/// parameter-server shard.
pub struct ShardEndpoint {
    switch: AuditedSwitch,
    group: Vec<usize>,
    shard: usize,
    /// Each response is encoded here, then copied into the batch.
    scratch: Vec<u8>,
    frame_cap: usize,
}

impl ShardEndpoint {
    pub fn new(proto: &Protocol, shard: usize, n_cores: usize) -> Result<Self> {
        let frame_cap = frame_capacity(proto);
        Ok(ShardEndpoint {
            switch: AuditedSwitch::new(proto, 0)?,
            group: (0..proto.n_workers)
                .map(|w| worker_core_endpoint(w, shard, n_cores))
                .collect(),
            shard,
            scratch: Vec::with_capacity(frame_cap),
            frame_cap,
        })
    }

    pub fn stats(&self) -> SwitchStats {
        self.switch.stats()
    }
}

impl Endpoint for ShardEndpoint {
    const TIMED: bool = false;

    #[inline]
    fn on_frame(&mut self, _: usize, frame: &[u8], _: TimeNs, txb: &mut TxBatch) -> Result<bool> {
        let group = &self.group;
        switch_ingress(&mut self.switch, frame, &mut self.scratch, txb, |_| {
            Some(group)
        });
        Ok(false)
    }

    fn frame_capacity(&self) -> usize {
        self.frame_cap
    }

    fn progress(&self) -> String {
        format!("shard {} rejected {}", self.shard, self.stats().rejected)
    }
}

/// Convenience: an in-memory fabric sized for a sharded run.
pub fn sharded_channel_fabric(
    n_workers: usize,
    n_cores: usize,
) -> Vec<crate::channel::ChannelPort> {
    crate::channel::channel_fabric(sharded_fabric_size(n_workers, n_cores))
}

/// Well-formed frames (valid magic, length, CRC) that a switch
/// admitted for `proto` must reject: a slot index past the pool, a
/// worker id past `n`, a wrong element count, and a result packet.
#[cfg(test)]
pub(crate) fn hostile_frames(proto: &Protocol) -> [Vec<u8>; 4] {
    use switchml_core::packet::{Packet, PacketKind, PoolVersion, WorkerId};
    let update = |wid: usize, idx: usize, k: usize| {
        Packet::update(wid as WorkerId, PoolVersion::V0, idx as u32, 0, vec![7; k])
    };
    let result = Packet {
        kind: PacketKind::Result,
        ..update(0, 0, proto.k)
    };
    [
        update(0, proto.pool_size, proto.k),
        update(proto.n_workers, 0, proto.k),
        update(0, 0, proto.k + 1),
        result,
    ]
    .map(|p| p.encode().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_fabric;
    use crate::faulty::{faulty_fabric, FaultyConfig};
    use crate::port::Port;
    use crate::reactor::run_allreduce_reactor;
    use crate::runner::{run_allreduce, RunConfig, RunReport};
    use crate::udp::udp_fabric;
    use switchml_core::agg::allreduce;

    fn proto(n: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k: 8,
            pool_size: 16,
            rto_ns: 2_000_000, // 2 ms real time
            scaling_factor: 10_000.0,
            ..Protocol::default()
        }
    }

    fn updates(n: usize, elems: usize) -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|w| {
                vec![(0..elems)
                    .map(|i| (w + 1) as f32 + (i % 5) as f32 * 0.1)
                    .collect()]
            })
            .collect()
    }

    fn check(report: &RunReport, n: usize, elems: usize) {
        let want: Vec<f32> = (0..elems)
            .map(|i| (1..=n).map(|w| w as f32).sum::<f32>() + n as f32 * (i % 5) as f32 * 0.1)
            .collect();
        for r in &report.results {
            assert_eq!(r.len(), 1);
            for (a, b) in r[0].iter().zip(&want) {
                assert!((a - b).abs() < 0.01, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn sharded_allreduce_2_workers_4_cores() {
        let n = 2;
        let c = 4;
        let elems = 1000;
        let ports = sharded_channel_fabric(n, c);
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let report = run_allreduce(ports, updates(n, elems), &proto(n), &cfg).unwrap();
        check(&report, n, elems);
        assert_eq!(report.worker_stats.len(), n);
        // Every chunk completes exactly once, summed across shards.
        assert_eq!(report.switch_stats.completions as usize, elems.div_ceil(8));
    }

    #[test]
    fn sharded_matches_single_core_runner() {
        // Three cores and one (the plain layout: one shard, one thread
        // per worker) must agree exactly — quantization is
        // deterministic and integer aggregation order-independent.
        let n = 3;
        let elems = 333; // ragged final chunk
        let p = proto(n);
        let run = |c: usize| {
            let cfg = RunConfig {
                n_cores: c,
                ..RunConfig::default()
            };
            run_allreduce(sharded_channel_fabric(n, c), updates(n, elems), &p, &cfg).unwrap()
        };
        let (sharded, plain) = (run(3), run(1));
        assert_eq!(sharded.results[0], plain.results[0]);
        check(&sharded, n, elems);
    }

    /// A well-formed frame the switch rejects must cost one counter
    /// tick, not the run: three hostile frames are already queued on
    /// the switch endpoint when the run starts, and it still completes
    /// bit-identical to the sequential reference — with the engines on
    /// two reactor threads and on the plain layout's one per engine.
    #[test]
    fn hostile_frames_are_counted_and_dropped() {
        let n = 3;
        let elems = 333;
        let p = proto(n);
        let cfg = RunConfig::default();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        let hostile = hostile_frames(&p);

        let mut ports = sharded_channel_fabric(n, 1);
        for frame in &hostile[..3] {
            ports[worker_core_endpoint(0, 0, 1)].send(shard_endpoint(0), frame);
        }
        let reactor = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 2).unwrap();
        assert_eq!(reactor.switch_stats.rejected, 3);

        let mut ports = channel_fabric(n + 1);
        for frame in &hostile[1..] {
            ports[crate::port::worker_endpoint(0)].send(crate::port::SWITCH_ENDPOINT, frame);
        }
        let plain = run_allreduce(ports, updates(n, elems), &p, &cfg).unwrap();
        assert_eq!(plain.switch_stats.rejected, 3);

        for w in 0..n {
            assert_eq!(reactor.results[w], reference, "reactor worker {w}");
            assert_eq!(plain.results[w], reference, "plain worker {w}");
        }
        assert_eq!(
            reactor.switch_stats.completions,
            plain.switch_stats.completions
        );
    }

    /// A rejected frame leaves the pool as it was: with slot 0 seeded by
    /// worker 0, no hostile frame (a slot past the pool, a worker id
    /// past `n`, a wrong width, a result) changes a value, count, seen
    /// bit or offset of any cell in either pool version, or stages a
    /// frame; worker 1's genuine update then completes the phase.
    #[test]
    fn a_rejected_frame_leaves_the_pool_untouched() {
        use switchml_core::packet::{Packet, Payload, PoolVersion};
        let p = proto(2);
        let mut ep = ShardEndpoint::new(&p, 0, 1).unwrap();
        let cells = |ep: &ShardEndpoint| {
            let mut all = Vec::new();
            for ver in [PoolVersion::V0, PoolVersion::V1] {
                for idx in 0..p.pool_size {
                    let c = ep.switch.cell(ver, idx);
                    all.push((c.value.to_vec(), c.count, c.seen, c.off));
                }
            }
            all
        };
        let update = |wid, v| Packet::update(wid, PoolVersion::V0, 0, 0, vec![v; p.k]).encode();
        let mut txb = TxBatch::new(frame_capacity(&p));
        ep.on_frame(0, &update(0, 1), 0, &mut txb).unwrap();
        assert!(txb.is_empty());
        let before = cells(&ep);
        for (i, frame) in hostile_frames(&p).iter().enumerate() {
            ep.on_frame(0, frame, 0, &mut txb).unwrap();
            assert_eq!(cells(&ep), before, "hostile frame {i}");
            assert!(txb.is_empty(), "hostile frame {i}");
            assert_eq!(ep.stats().rejected, i as u64 + 1);
        }
        assert_eq!(ep.stats().updates, 1);
        ep.on_frame(1, &update(1, 2), 0, &mut txb).unwrap();
        assert_eq!(txb.len(), 2, "multicast to both workers");
        for frame in txb.frames() {
            let result = Packet::decode(frame).unwrap();
            assert_eq!(result.payload, Payload::I32(vec![3; p.k]));
        }
    }

    /// The switch-side mirror of the reactor's oversize test: a valid
    /// update with trailing bytes, queued on a shard before the run,
    /// would — cut to the shard's frame — count as worker 0's chunk-0
    /// contribution and turn the real one into a duplicate. The port
    /// drops it whole and counts it instead, on both receive paths.
    #[test]
    fn oversize_update_is_dropped_and_counted_not_truncated() {
        use switchml_core::packet::{Packet, PoolVersion};
        let n = 2;
        let elems = 200;
        let p = proto(n);
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        let mut forged = Packet::update(0, PoolVersion::V0, 0, 0, vec![123_456; p.k])
            .encode()
            .to_vec();
        forged.extend_from_slice(&[0; 64]);
        for burst in [1, 8] {
            let mut ports = udp_fabric(sharded_fabric_size(n, 1)).unwrap();
            ports[worker_core_endpoint(0, 0, 1)].send(shard_endpoint(0), &forged);
            let cfg = RunConfig {
                burst,
                ..RunConfig::default()
            };
            let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 2).unwrap();
            for w in 0..n {
                assert_eq!(report.results[w], reference, "burst {burst} worker {w}");
            }
            assert_eq!(report.transport_stats.send_errors, 1, "burst {burst}");
        }
    }

    /// Dropped frames are silent while a run succeeds, but a run that
    /// fails must say its switch rejected something.
    #[test]
    fn a_failed_run_names_the_switch_rejections() {
        let wedged = || Error::ProtocolViolation("worker 1 exceeded the wall-clock budget".into());
        let clean = SwitchStats::default();
        assert_eq!(
            with_rejected(wedged(), &clean).to_string(),
            wedged().to_string()
        );
        let dirty = SwitchStats {
            rejected: 2,
            ..clean
        };
        let msg = with_rejected(wedged(), &dirty).to_string();
        assert!(msg.ends_with("; the switch rejected 2 frame(s)"), "{msg}");
    }

    #[test]
    fn sharded_allreduce_with_loss_recovers() {
        let n = 2;
        let c = 2;
        let elems = 400;
        let (ports, stats) = faulty_fabric(
            sharded_channel_fabric(n, c),
            FaultyConfig::loss_only(0.05),
            77,
        );
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let report = run_allreduce(ports, updates(n, elems), &proto(n), &cfg).unwrap();
        check(&report, n, elems);
        assert!(stats.dropped() > 0, "5% loss should drop something");
        let retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
        assert!(retx > 0, "losses must trigger retransmissions");
    }

    #[test]
    fn sharded_udp_smoke() {
        let n = 2;
        let c = 2;
        let elems = 256;
        let ports = udp_fabric(sharded_fabric_size(n, c)).unwrap();
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let report = run_allreduce(ports, updates(n, elems), &proto(n), &cfg).unwrap();
        check(&report, n, elems);
    }

    /// Tensors of 37, 0 and 101 elements at k = 8 put engine region
    /// boundaries mid-tensor (and a tensor boundary mid-region): the
    /// in-place gather, region cut and split must be invisible to the
    /// caller, bit for bit, at every core count and on the hierarchy.
    #[test]
    fn multi_tensor_shapes_roundtrip() {
        use crate::hier::{hier_fabric_size, run_allreduce_hier, HierConfig};
        let shapes = [37, 0, 101];
        let updates = |n: usize| -> Vec<Vec<Vec<f32>>> {
            (0..n)
                .map(|w| {
                    (shapes.iter().enumerate())
                        .map(|(t, &len)| {
                            (0..len).map(|i| (w + t) as f32 + i as f32 * 0.01).collect()
                        })
                        .collect()
                })
                .collect()
        };
        let check = |results: &[Vec<Vec<f32>>], reference: &[Vec<f32>], what: &str| {
            for (w, r) in results.iter().enumerate() {
                assert!(r.iter().map(Vec::len).eq(shapes), "{what} worker {w}");
                assert_eq!(r, reference, "{what} worker {w}");
            }
        };
        let n = 2;
        let reference = allreduce(&updates(n), &proto(n)).unwrap();
        for c in 1..=3 {
            let cfg = RunConfig {
                n_cores: c,
                ..RunConfig::default()
            };
            let report =
                run_allreduce(sharded_channel_fabric(n, c), updates(n), &proto(n), &cfg).unwrap();
            check(&report.results, &reference, &format!("{c} cores"));
        }
        let (racks, wpr) = (2, 2);
        let n = racks * wpr;
        let report = run_allreduce_hier(
            channel_fabric(hier_fabric_size(racks, wpr)),
            updates(n),
            &proto(n),
            &RunConfig::default(),
            &HierConfig::new(racks, wpr),
        )
        .unwrap();
        check(
            &report.results,
            &allreduce(&updates(n), &proto(n)).unwrap(),
            "hier",
        );
    }

    #[test]
    fn misconfiguration_rejected() {
        let n = 2;
        let cfg = RunConfig {
            n_cores: 2,
            ..RunConfig::default()
        };
        // Wrong port count.
        assert!(run_allreduce(
            sharded_channel_fabric(n, 1),
            updates(n, 16),
            &proto(n),
            &cfg
        )
        .is_err());
        // Non-Fixed32 mode.
        let p16 = Protocol {
            mode: switchml_core::config::NumericMode::Float16,
            ..proto(n)
        };
        assert!(run_allreduce(sharded_channel_fabric(n, 2), updates(n, 16), &p16, &cfg).is_err());
        // More cores than pool slots.
        let big = RunConfig {
            n_cores: 32,
            ..RunConfig::default()
        };
        assert!(run_allreduce(
            sharded_channel_fabric(n, 32),
            updates(n, 16),
            &proto(n),
            &big
        )
        .is_err());
        // Mismatched tensor shapes across workers.
        let bad = vec![vec![vec![1.0f32; 8]], vec![vec![1.0f32; 9]]];
        assert!(run_allreduce(sharded_channel_fabric(n, 2), bad, &proto(n), &cfg).is_err());
    }
}
