//! SwitchML protocol endpoints as netsim nodes.
//!
//! Thin adapters that move frames between the simulator and the sans-IO
//! state machines in `switchml-core`, through the same ingress the
//! sockets use: parse a [`PacketView`] (checksum-rejecting corrupted
//! packets), run `on_view`, put the frame it encoded on the wire. They
//! charge host CPU time via [`crate::host::HostModel`], arm
//! retransmission timers, and route updates to the right aggregator
//! (the single ToR switch, a parameter-server shard, or a rack switch
//! in the §6 hierarchy).

use crate::host::HostModel;
use bytes::Bytes;
use std::any::Any;
use std::collections::HashMap;
use switchml_core::packet::{PacketKind, PacketView, SlotIndex, SIM_FRAME_OVERHEAD};
use switchml_core::switch::hierarchy::{HierAction, HierarchicalSwitch};
use switchml_core::switch::reliable::ReliableSwitch;
use switchml_core::switch::{SwitchStats, WireAction};
use switchml_core::worker::engine::{EngineStats, SendDescriptor};
use switchml_core::worker::Worker;
use switchml_netsim::prelude::*;

/// Timer-token namespace: high bit selects host-queue release timers,
/// low bits carry the time value.
const HOST_TOKEN_BIT: u64 = 1 << 63;

fn rto_token(deadline_ns: u64) -> TimerToken {
    debug_assert_eq!(deadline_ns & HOST_TOKEN_BIT, 0);
    TimerToken(deadline_ns)
}

fn host_token(release: Nanos) -> TimerToken {
    TimerToken(release.0 | HOST_TOKEN_BIT)
}

fn is_host_token(t: TimerToken) -> bool {
    t.0 & HOST_TOKEN_BIT != 0
}

/// Where a worker sends each update packet.
#[derive(Debug, Clone)]
pub enum SlotRouter {
    /// Everything goes to one aggregator (the ToR switch, or this
    /// worker's rack switch in a hierarchy).
    Single(NodeId),
    /// Parameter-server sharding: `shard_of[slot]` indexes `shards`.
    Sharded {
        shards: Vec<NodeId>,
        shard_of: Vec<usize>,
    },
}

impl SlotRouter {
    fn dest(&self, slot: SlotIndex) -> NodeId {
        match self {
            SlotRouter::Single(id) => *id,
            SlotRouter::Sharded { shards, shard_of } => shards[shard_of[slot as usize]],
        }
    }
}

/// Per-packet RTT sampling (Figure 2's right axis). Retransmitted
/// chunks are excluded, Karn-style, so queueing — not timeout noise —
/// is what the estimate reflects. Keeps a bounded reservoir for
/// percentile queries (tail latency under deep pools).
#[derive(Debug, Default)]
pub struct RttSampler {
    pending: HashMap<SlotIndex, (u64, Nanos)>,
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
    /// Every `stride`-th sample, up to [`RTT_RESERVOIR`] entries.
    reservoir: Vec<u64>,
    stride: u64,
}

/// Size of the RTT percentile reservoir.
pub const RTT_RESERVOIR: usize = 4096;

impl RttSampler {
    fn on_send(&mut self, slot: SlotIndex, off: u64, now: Nanos, retx: bool) {
        if retx {
            self.pending.remove(&slot);
        } else {
            self.pending.insert(slot, (off, now));
        }
    }

    fn on_result(&mut self, slot: SlotIndex, off: u64, now: Nanos) {
        if let Some(&(sent_off, sent_at)) = self.pending.get(&slot) {
            if sent_off == off {
                let rtt = (now - sent_at).0;
                self.count += 1;
                self.sum_ns += rtt;
                self.max_ns = self.max_ns.max(rtt);
                if self.stride == 0 {
                    self.stride = 1;
                }
                if self.count.is_multiple_of(self.stride) {
                    if self.reservoir.len() >= RTT_RESERVOIR {
                        // Halve the reservoir, double the stride: keeps
                        // a uniform systematic sample of all RTTs.
                        let kept: Vec<u64> = self.reservoir.iter().step_by(2).copied().collect();
                        self.reservoir = kept;
                        self.stride *= 2;
                    }
                    if self.count.is_multiple_of(self.stride) {
                        self.reservoir.push(rtt);
                    }
                }
                self.pending.remove(&slot);
            }
        }
    }

    /// Mean sampled RTT in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Approximate RTT percentile (0.0–1.0) from the reservoir.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.reservoir.is_empty() {
            return 0;
        }
        let mut v = self.reservoir.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        v[idx]
    }
}

/// Network-level drop counters kept by protocol nodes.
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeNetStats {
    /// Packets discarded because the checksum (corruption flag) failed.
    pub corrupted: u64,
    /// Packets discarded because they failed to parse.
    pub malformed: u64,
}

/// A SwitchML worker attached to the simulated network.
pub struct SwitchMLWorkerNode {
    worker: Worker,
    router: SlotRouter,
    /// Received frames, validated on arrival, waiting for a core.
    host: HostModel<Bytes>,
    armed_rto: Option<u64>,
    pub rtt: RttSampler,
    pub net_stats: NodeNetStats,
    completed: bool,
}

impl SwitchMLWorkerNode {
    /// `host_cost` is the CPU service time per received result packet
    /// (which covers processing it and emitting the next update); the
    /// worker's engines are spread over `worker.n_cores()` cores.
    pub fn new(worker: Worker, router: SlotRouter, host_cost: Nanos) -> Self {
        let cores = worker.n_cores();
        SwitchMLWorkerNode {
            worker,
            router,
            host: HostModel::new(cores, host_cost),
            armed_rto: None,
            rtt: RttSampler::default(),
            net_stats: NodeNetStats::default(),
            completed: false,
        }
    }

    /// Protocol stats of the inner worker.
    pub fn stats(&self) -> EngineStats {
        self.worker.stats()
    }

    /// The inner worker (results, progress, …).
    pub fn worker(&self) -> &Worker {
        &self.worker
    }

    fn transmit(&mut self, d: SendDescriptor, ctx: &mut dyn NodeCtx) {
        self.rtt.on_send(d.slot, d.off, ctx.now(), d.retransmission);
        let mut frame = Vec::new();
        self.worker
            .encode_update(d, &mut frame)
            .expect("the engine only sends chunks of the stream");
        ctx.send(SimPacket::new(
            ctx.self_id(),
            self.router.dest(d.slot),
            Bytes::from(frame),
            SIM_FRAME_OVERHEAD,
        ));
    }

    fn rearm(&mut self, ctx: &mut dyn NodeCtx) {
        if let Some(nd) = self.worker.next_deadline() {
            if self.armed_rto != Some(nd) {
                self.armed_rto = Some(nd);
                let delay = Nanos(nd.saturating_sub(ctx.now().0));
                ctx.set_timer(delay, rto_token(nd));
            }
        }
    }

    fn process_result(&mut self, v: &PacketView<'_>, ctx: &mut dyn NodeCtx) {
        let now = ctx.now();
        self.rtt.on_result(v.idx(), v.off(), now);
        if let Some(d) = self.worker.on_view(v, now.0) {
            self.transmit(d, ctx);
        }
        if self.worker.is_done() && !self.completed {
            self.completed = true;
            ctx.complete();
        } else {
            self.rearm(ctx);
        }
    }
}

impl Node for SwitchMLWorkerNode {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        let initial = self.worker.start_sends(ctx.now().0);
        if initial.is_empty() && self.worker.is_done() {
            self.completed = true;
            ctx.complete();
            return;
        }
        for d in initial {
            self.transmit(d, ctx);
        }
        self.rearm(ctx);
    }

    fn on_packet(&mut self, pkt: SimPacket, ctx: &mut dyn NodeCtx) {
        if pkt.corrupted {
            self.net_stats.corrupted += 1;
            return;
        }
        let Ok(view) = PacketView::parse(&pkt.payload) else {
            self.net_stats.malformed += 1;
            return;
        };
        if self.host.is_instant() {
            self.process_result(&view, ctx);
        } else {
            let core = self.worker.core_for_slot(view.idx()).unwrap_or(0);
            let release = self.host.enqueue(ctx.now(), core, pkt.payload);
            ctx.set_timer(release - ctx.now(), host_token(release));
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn NodeCtx) {
        if is_host_token(token) {
            while let Some(frame) = self.host.pop_due(ctx.now()) {
                let view = PacketView::parse(&frame).expect("validated on arrival");
                self.process_result(&view, ctx);
            }
            return;
        }
        // Retransmission timer.
        if self.armed_rto == Some(token.0) {
            self.armed_rto = None;
        }
        let now = ctx.now();
        if self.worker.next_deadline().is_some_and(|d| d <= now.0) {
            for d in self.worker.expired_sends(now.0) {
                self.transmit(d, ctx);
            }
        }
        if !self.completed {
            self.rearm(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The aggregation point: a Tofino switch (`host_cost = 0`) or a
/// software parameter-server shard (`host_cost > 0`, the paper's
/// DPDK program "implement\[ing\] the logic of Algorithm 1").
pub struct SwitchMLSwitchNode {
    switch: ReliableSwitch,
    /// wid → node id of each worker.
    worker_ids: Vec<NodeId>,
    /// Received frames, validated on arrival, waiting for a core.
    host: HostModel<Bytes>,
    /// The response frame `on_view` encodes.
    out: Vec<u8>,
    pub net_stats: NodeNetStats,
    /// Debug builds audit the switch against the Algorithm 3
    /// reference model on every update.
    #[cfg(debug_assertions)]
    oracle: switchml_core::oracle::ReliableOracle,
}

impl SwitchMLSwitchNode {
    pub fn new(
        switch: ReliableSwitch,
        worker_ids: Vec<NodeId>,
        n_cores: usize,
        host_cost: Nanos,
    ) -> Self {
        SwitchMLSwitchNode {
            #[cfg(debug_assertions)]
            oracle: switchml_core::oracle::ReliableOracle::for_switch(&switch),
            switch,
            worker_ids,
            host: HostModel::new(n_cores, host_cost),
            out: Vec::new(),
            net_stats: NodeNetStats::default(),
        }
    }

    pub fn stats(&self) -> SwitchStats {
        self.switch.stats()
    }

    fn process(&mut self, v: &PacketView<'_>, ctx: &mut dyn NodeCtx) {
        // An update this switch has no slot, worker or width for is
        // counted in `SwitchStats::rejected` and dropped, as the
        // threaded shard ingress does.
        let Ok(action) = self.switch.on_view(v, &mut self.out) else {
            return;
        };
        // The oracle models the post-fence switch: it sees accepted,
        // current-generation updates only.
        #[cfg(debug_assertions)]
        if v.epoch() == self.switch.epoch() {
            if let Err(violation) = self.oracle.observe_update(v, action, &self.switch) {
                panic!("simulated switch violated a protocol invariant: {violation}");
            }
        }
        match action {
            WireAction::Multicast => {
                let frame = Bytes::from(&self.out[..]);
                for &w in &self.worker_ids {
                    ctx.send(SimPacket::new(
                        ctx.self_id(),
                        w,
                        frame.clone(),
                        SIM_FRAME_OVERHEAD,
                    ));
                }
            }
            WireAction::Unicast(wid) => {
                ctx.send(SimPacket::new(
                    ctx.self_id(),
                    self.worker_ids[wid as usize],
                    Bytes::from(&self.out[..]),
                    SIM_FRAME_OVERHEAD,
                ));
            }
            WireAction::Drop => {}
        }
    }
}

impl Node for SwitchMLSwitchNode {
    fn on_start(&mut self, _ctx: &mut dyn NodeCtx) {}

    fn on_packet(&mut self, pkt: SimPacket, ctx: &mut dyn NodeCtx) {
        if pkt.corrupted {
            self.net_stats.corrupted += 1;
            return;
        }
        let Ok(view) = PacketView::parse(&pkt.payload) else {
            self.net_stats.malformed += 1;
            return;
        };
        if self.host.is_instant() {
            self.process(&view, ctx);
        } else {
            let core = (view.idx() as usize) % self.host.n_cores();
            let release = self.host.enqueue(ctx.now(), core, pkt.payload);
            ctx.set_timer(release - ctx.now(), host_token(release));
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn NodeCtx) {
        if is_host_token(token) {
            while let Some(frame) = self.host.pop_due(ctx.now()) {
                let view = PacketView::parse(&frame).expect("validated on arrival");
                self.process(&view, ctx);
            }
        }
    }

    fn participates_in_completion(&self) -> bool {
        false
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A switch in the §6 multi-rack hierarchy.
pub struct HierSwitchNode {
    switch: HierarchicalSwitch,
    /// Upstream switch (None at the root).
    parent: Option<NodeId>,
    /// Downstream node id per child wid (workers, or child switches).
    children: Vec<NodeId>,
    /// The frame the switch encodes in response.
    out: Vec<u8>,
    pub net_stats: NodeNetStats,
}

impl HierSwitchNode {
    pub fn new(switch: HierarchicalSwitch, parent: Option<NodeId>, children: Vec<NodeId>) -> Self {
        HierSwitchNode {
            switch,
            parent,
            children,
            out: Vec::new(),
            net_stats: NodeNetStats::default(),
        }
    }

    pub fn stats(&self) -> SwitchStats {
        self.switch.stats()
    }
}

impl Node for HierSwitchNode {
    fn on_start(&mut self, _ctx: &mut dyn NodeCtx) {}

    fn on_packet(&mut self, pkt: SimPacket, ctx: &mut dyn NodeCtx) {
        if pkt.corrupted {
            self.net_stats.corrupted += 1;
            return;
        }
        let Ok(view) = PacketView::parse(&pkt.payload) else {
            self.net_stats.malformed += 1;
            return;
        };
        let action = match view.kind() {
            PacketKind::Update => self.switch.on_update_from_below(&view, &mut self.out),
            PacketKind::Result => self.switch.on_result_from_above(&view, &mut self.out),
        };
        // A frame the switch refuses is counted in its `rejected` and
        // dropped, as the threaded ingress does.
        let action = match action {
            Ok(HierAction::Drop) | Err(_) => return,
            Ok(action) => action,
        };
        let frame = Bytes::from(&self.out[..]);
        let send = |ctx: &mut dyn NodeCtx, to: NodeId, frame: Bytes| {
            ctx.send(SimPacket::new(ctx.self_id(), to, frame, SIM_FRAME_OVERHEAD));
        };
        match action {
            HierAction::SendUp => send(
                ctx,
                self.parent.expect("only the root has no parent"),
                frame,
            ),
            HierAction::MulticastDown => {
                for &c in &self.children {
                    send(ctx, c, frame.clone());
                }
            }
            HierAction::UnicastDown(wid) => send(ctx, self.children[wid as usize], frame),
            HierAction::Drop => unreachable!("returned above"),
        }
    }

    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut dyn NodeCtx) {}

    fn participates_in_completion(&self) -> bool {
        false
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchml_core::config::Protocol;
    use switchml_core::packet::{Packet, Payload, PoolVersion};
    use switchml_core::switch::hierarchy::Role;
    use switchml_core::worker::stream::TensorStream;

    /// Records what a node sends.
    #[derive(Default)]
    struct RecCtx {
        sent: Vec<SimPacket>,
    }

    impl NodeCtx for RecCtx {
        fn now(&self) -> Nanos {
            Nanos::ZERO
        }
        fn self_id(&self) -> NodeId {
            NodeId(9)
        }
        fn send(&mut self, p: SimPacket) {
            self.sent.push(p);
        }
        fn set_timer(&mut self, _: Nanos, _: TimerToken) {}
        fn complete(&mut self) {}
    }

    /// Worker `wid`'s update for slot 0, as it arrives at a switch.
    fn update(wid: u16, v: Vec<i32>) -> SimPacket {
        let p = Packet::update(wid, PoolVersion::V0, 0, 0, v);
        SimPacket::new(
            NodeId(wid as usize),
            NodeId(9),
            p.encode(),
            SIM_FRAME_OVERHEAD,
        )
    }

    /// A CRC-valid update the switch has no worker (`wid ≥ n`) or
    /// width (`k`) for is counted in `rejected` and dropped, as the
    /// threaded shard ingress does — it does not stop the simulation —
    /// and leaves the pool untouched: the next clean round sums from
    /// zero.
    #[test]
    fn hostile_updates_are_counted_and_dropped() {
        let proto = Protocol {
            n_workers: 2,
            k: 2,
            pool_size: 1,
            ..Protocol::default()
        };
        let children = vec![NodeId(0), NodeId(1)];
        for hostile in [update(2, vec![5, 5]), update(0, vec![5, 5, 5])] {
            let sw = ReliableSwitch::new(&proto).unwrap();
            let mut flat = SwitchMLSwitchNode::new(sw, children.clone(), 1, Nanos::ZERO);
            let sw = HierarchicalSwitch::new(&proto, Role::Root).unwrap();
            let mut hier = HierSwitchNode::new(sw, None, children.clone());
            let mut ctx = RecCtx::default();
            flat.on_packet(hostile.clone(), &mut ctx);
            hier.on_packet(hostile, &mut ctx);
            for stats in [flat.stats(), hier.stats()] {
                assert_eq!((stats.rejected, stats.updates), (1, 0));
            }
            assert!(ctx.sent.is_empty());
            let cell = flat.switch.cell(PoolVersion::V0, 0);
            assert_eq!((cell.value, cell.count), (&[0, 0][..], 0));
            assert_eq!(cell.seen.count(), 0);

            for w in 0..2 {
                flat.on_packet(update(w, vec![w as i32 + 1; 2]), &mut ctx);
                hier.on_packet(update(w, vec![w as i32 + 1; 2]), &mut ctx);
            }
            assert_eq!(ctx.sent.len(), 4, "each switch multicasts to both children");
            for p in &ctx.sent {
                let r = Packet::decode(&p.payload).unwrap();
                assert_eq!(r.payload, Payload::I32(vec![3, 3]));
            }
        }
    }

    #[test]
    fn rtt_sampler_excludes_retransmissions() {
        let mut r = RttSampler::default();
        // Normal sample: send at 100, result at 150 → RTT 50.
        r.on_send(0, 0, Nanos(100), false);
        r.on_result(0, 0, Nanos(150));
        assert_eq!(r.count, 1);
        assert_eq!(r.mean_ns(), 50.0);
        // Retransmitted chunk: Karn's rule voids the sample.
        r.on_send(1, 32, Nanos(200), false);
        r.on_send(1, 32, Nanos(300), true); // retx invalidates
        r.on_result(1, 32, Nanos(320));
        assert_eq!(r.count, 1, "retransmitted chunk must not be sampled");
        // Off mismatch (stale result) is not sampled either.
        r.on_send(2, 64, Nanos(400), false);
        r.on_result(2, 0, Nanos(450));
        assert_eq!(r.count, 1);
        assert_eq!(r.max_ns, 50);
    }

    #[test]
    fn slot_router_dispatch() {
        let single = SlotRouter::Single(NodeId(7));
        assert_eq!(single.dest(0), NodeId(7));
        assert_eq!(single.dest(999), NodeId(7));
        let sharded = SlotRouter::Sharded {
            shards: vec![NodeId(1), NodeId(2)],
            shard_of: vec![0, 0, 1, 1],
        };
        assert_eq!(sharded.dest(0), NodeId(1));
        assert_eq!(sharded.dest(3), NodeId(2));
    }

    #[test]
    fn corrupted_packets_counted_and_dropped() {
        // Corruption (failed checksum) and undecodable bytes are
        // counted and discarded without touching protocol state.
        let proto = Protocol {
            n_workers: 1,
            k: 2,
            pool_size: 1,
            scaling_factor: 10.0,
            ..Protocol::default()
        };
        let stream =
            TensorStream::from_f32(vec![vec![1.0, 2.0]], proto.mode, 10.0, proto.k).unwrap();
        let worker = switchml_core::worker::Worker::new(0, &proto, stream).unwrap();
        let mut node = SwitchMLWorkerNode::new(worker, SlotRouter::Single(NodeId(0)), Nanos::ZERO);

        struct NullCtx;
        impl NodeCtx for NullCtx {
            fn now(&self) -> Nanos {
                Nanos::ZERO
            }
            fn self_id(&self) -> NodeId {
                NodeId(1)
            }
            fn send(&mut self, _: SimPacket) {}
            fn set_timer(&mut self, _: Nanos, _: TimerToken) {}
            fn complete(&mut self) {}
        }

        let result = Packet {
            kind: PacketKind::Result,
            wid: 0,
            ver: PoolVersion::V0,
            idx: 0,
            off: 0,
            job: 0,
            epoch: 0,
            retransmission: false,
            payload: switchml_core::packet::Payload::I32(vec![0, 0]),
        };
        let mut corrupt = SimPacket::new(NodeId(0), NodeId(1), result.encode(), SIM_FRAME_OVERHEAD);
        corrupt.corrupted = true;
        node.on_packet(corrupt, &mut NullCtx);
        assert_eq!(node.net_stats.corrupted, 1);

        let garbage = SimPacket::new(
            NodeId(0),
            NodeId(1),
            bytes::Bytes::from_static(b"not a packet"),
            0,
        );
        node.on_packet(garbage, &mut NullCtx);
        assert_eq!(node.net_stats.malformed, 1);
        assert_eq!(node.stats().results, 0);
    }
}
