//! SwitchML protocol endpoints as netsim nodes.
//!
//! [`SimEndpoint`] runs any executor [`Endpoint`] — the switch shard
//! (the ToR, the spine, a parameter-server shard: [`switch_node`]), the
//! §6 [`Leaf`](switchml_transport::Leaf), the control plane's tenant
//! switch and tenant worker — on the simulated network: the threads'
//! own state machines on virtual time. [`SwitchMLWorkerNode`] drives a
//! [`Worker`] over its tensor stream and samples Figure 2's RTTs. Both
//! reject corrupted packets (the checksum) and charge host CPU time via
//! [`crate::host::HostModel`].

use crate::host::HostModel;
use bytes::Bytes;
use std::any::Any;
use std::collections::HashMap;
use switchml_core::config::Protocol;
use switchml_core::error::Result;
use switchml_core::packet::{PacketView, SlotIndex, SIM_FRAME_OVERHEAD};
use switchml_core::worker::engine::{EngineStats, SendDescriptor};
use switchml_core::worker::Worker;
use switchml_netsim::prelude::*;
use switchml_transport::endpoint::Endpoint;
use switchml_transport::shard::worker_core_endpoint;
use switchml_transport::{ShardEndpoint, TxBatch};

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
            let mut resends = Vec::new();
            self.worker.expired_into(now.0, &mut resends);
            for d in resends {
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

/// Maps the endpoint index a frame was staged for to its node.
type Route<E> = Box<dyn Fn(&E, usize) -> NodeId>;

/// Any executor [`Endpoint`] on the simulated network: on virtual time,
/// what a `Lane` seat does on the wall clock. A packet flagged
/// `corrupted` (a failed CRC) is counted and dropped; any other goes to
/// [`Endpoint::on_frame`] from the sender's node index, and what the
/// endpoint stages goes on the wire to `route(endpoint, dest)`. One sim
/// timer stays armed at [`Endpoint::next_deadline`] (a deadline already
/// due at the start fires then, as `Lane::drive` fires it); a stale
/// token is ignored, and [`Endpoint::on_timer`] runs only when the
/// deadline is due. Once [`Endpoint::is_done`] the endpoint hears
/// nothing more. An endpoint error is an invariant break: it panics the
/// simulation, as it stops a threaded run.
///
/// Received frames are handed over at once, unless
/// [`SimEndpoint::with_host`] gives them a CPU cost: then they queue
/// for a core chosen by slot index. The run waits for an adapter built
/// with [`SimEndpoint::completing`] alone.
pub struct SimEndpoint<E> {
    ep: E,
    route: Route<E>,
    host: HostModel<SimPacket>,
    txb: TxBatch,
    /// The deadline the armed sim timer stands for.
    armed: Option<u64>,
    /// The run waits for this node, which completes once its endpoint
    /// is done.
    completes: bool,
    /// Packets dropped for a failed checksum.
    pub corrupted: u64,
}

impl<E: Endpoint + 'static> SimEndpoint<E> {
    pub fn new(ep: E, route: impl Fn(&E, usize) -> NodeId + 'static) -> Self {
        SimEndpoint {
            txb: TxBatch::new(ep.frame_capacity()),
            ep,
            route: Box::new(route),
            host: HostModel::new(1, Nanos::ZERO),
            armed: None,
            completes: false,
            corrupted: 0,
        }
    }

    /// [`SimEndpoint::new`] for an endpoint the run waits for: the
    /// simulation ends once it (with every other such node) is done.
    pub fn completing(ep: E, route: impl Fn(&E, usize) -> NodeId + 'static) -> Self {
        SimEndpoint {
            completes: true,
            ..Self::new(ep, route)
        }
    }

    /// Each received frame occupies one of `n_cores` cores for `cost`
    /// before the endpoint sees it: a software parameter server.
    pub fn with_host(mut self, n_cores: usize, cost: Nanos) -> Self {
        self.host = HostModel::new(n_cores, cost);
        self
    }

    pub fn endpoint(&self) -> &E {
        &self.ep
    }

    pub fn into_endpoint(self) -> E {
        self.ep
    }

    /// Put every staged frame on the wire, then keep the sim timer at
    /// the endpoint's next deadline, or complete once it is done.
    fn flush(&mut self, ctx: &mut dyn NodeCtx) {
        let (me, now) = (ctx.self_id(), ctx.now());
        for (&dest, frame) in self.txb.dests().iter().zip(self.txb.frames()) {
            let to = (self.route)(&self.ep, dest);
            let payload = Bytes::from(frame.as_slice());
            ctx.send(SimPacket::new(me, to, payload, SIM_FRAME_OVERHEAD));
        }
        self.txb.clear();
        match self.ep.next_deadline() {
            Some(due) if !self.ep.is_done() && self.armed != Some(due) => {
                self.armed = Some(due);
                ctx.set_timer(Nanos(due.saturating_sub(now.0)), rto_token(due));
            }
            _ => {}
        }
        if self.completes && self.ep.is_done() {
            ctx.complete();
        }
    }
}

fn check<T>(r: Result<T>) -> T {
    r.unwrap_or_else(|e| panic!("a simulated endpoint failed: {e}"))
}

impl<E: Endpoint + 'static> Node for SimEndpoint<E> {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        let now = ctx.now().0;
        if self.ep.next_deadline().is_some_and(|d| d <= now) {
            check(self.ep.on_timer(now, &mut self.txb));
        }
        self.flush(ctx);
    }

    fn on_packet(&mut self, pkt: SimPacket, ctx: &mut dyn NodeCtx) {
        if pkt.corrupted {
            self.corrupted += 1;
            return;
        }
        if self.ep.is_done() {
            return;
        }
        let now = ctx.now();
        if self.host.is_instant() {
            check(
                self.ep
                    .on_frame(pkt.src.0, &pkt.payload, now.0, &mut self.txb),
            );
            self.flush(ctx);
        } else {
            let core = PacketView::parse(&pkt.payload).map_or(0, |v| v.idx() as usize);
            let release = self.host.enqueue(now, core, pkt);
            ctx.set_timer(release - now, host_token(release));
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn NodeCtx) {
        let now = ctx.now();
        if is_host_token(token) {
            while let Some(pkt) = self.host.pop_due(now) {
                if !self.ep.is_done() {
                    check(
                        self.ep
                            .on_frame(pkt.src.0, &pkt.payload, now.0, &mut self.txb),
                    );
                }
            }
        } else if self.armed == Some(token.0) {
            self.armed = None;
            let due = self.ep.next_deadline().is_some_and(|d| d <= now.0);
            if due && !self.ep.is_done() {
                check(self.ep.on_timer(now.0, &mut self.txb));
            }
        } else {
            return; // a deadline that has moved since
        }
        self.flush(ctx);
    }

    fn participates_in_completion(&self) -> bool {
        self.completes
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An aggregation switch on the simulated network — the ToR, the
/// spine of a tree, a parameter-server shard: the threads' one-shard
/// [`ShardEndpoint`], multicasting to `members` in worker order.
pub fn switch_node(proto: &Protocol, members: Vec<NodeId>) -> Result<SimEndpoint<ShardEndpoint>> {
    let first = worker_core_endpoint(0, 0, 1);
    let shard = ShardEndpoint::new(proto, 0, 1)?;
    Ok(SimEndpoint::new(shard, move |_, ep| members[ep - first]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchml_core::packet::{Packet, PacketKind, Payload, PoolVersion};
    use switchml_core::worker::stream::TensorStream;

    /// Records what a node sends and the timers it arms, at `now`.
    #[derive(Default)]
    struct RecCtx {
        now: Nanos,
        sent: Vec<SimPacket>,
        timers: Vec<(Nanos, TimerToken)>,
    }

    impl NodeCtx for RecCtx {
        fn now(&self) -> Nanos {
            self.now
        }
        fn self_id(&self) -> NodeId {
            NodeId(9)
        }
        fn send(&mut self, p: SimPacket) {
            self.sent.push(p);
        }
        fn set_timer(&mut self, delay: Nanos, token: TimerToken) {
            self.timers.push((self.now + delay, token));
        }
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
    /// zero. (The hierarchy's root is this node too.)
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
            let mut flat = switch_node(&proto, children.clone()).unwrap();
            let mut ctx = RecCtx::default();
            flat.on_packet(hostile, &mut ctx);
            let stats = flat.endpoint().stats();
            assert_eq!((stats.rejected, stats.updates), (1, 0));
            assert!(ctx.sent.is_empty());

            for w in 0..2 {
                flat.on_packet(update(w, vec![w as i32 + 1; 2]), &mut ctx);
            }
            assert_eq!(ctx.sent.len(), 2, "the switch multicasts to both children");
            for (p, child) in ctx.sent.iter().zip(&children) {
                assert_eq!(p.dst, *child);
                let r = Packet::decode(&p.payload).unwrap();
                assert_eq!(r.payload, Payload::I32(vec![3, 3]));
            }
        }
    }

    /// An endpoint that echoes each frame back to its sender, logs the
    /// instants its timer fired at, and is done after `life` frames.
    struct Echo {
        deadlines: Vec<u64>,
        fired: Vec<u64>,
        life: usize,
    }

    impl Endpoint for Echo {
        fn on_frame(
            &mut self,
            from: usize,
            frame: &[u8],
            _: u64,
            txb: &mut TxBatch,
        ) -> Result<bool> {
            txb.push(from).extend_from_slice(frame);
            self.life -= 1;
            Ok(true)
        }
        fn on_timer(&mut self, now: u64, _: &mut TxBatch) -> Result<()> {
            self.fired.push(now);
            self.deadlines.retain(|&d| d > now);
            Ok(())
        }
        fn next_deadline(&self) -> Option<u64> {
            self.deadlines.iter().min().copied()
        }
        fn is_done(&self) -> bool {
            self.life == 0
        }
        fn frame_capacity(&self) -> usize {
            8
        }
    }

    /// The adapter fires a deadline due at the start, keeps one timer at
    /// the next deadline, ignores a stale token, drops a corrupted
    /// packet, routes what the endpoint stages, and hears nothing once
    /// the endpoint is done.
    #[test]
    fn the_adapter_runs_an_endpoint_on_virtual_time() {
        let echo = Echo {
            deadlines: vec![0, 500],
            fired: Vec::new(),
            life: 1,
        };
        let mut node = SimEndpoint::new(echo, |_, ep| NodeId(ep + 100));
        let mut ctx = RecCtx::default();
        node.on_start(&mut ctx);
        assert_eq!(node.endpoint().fired, vec![0]);
        assert_eq!(ctx.timers, vec![(Nanos(500), TimerToken(500))]);

        ctx.now = Nanos(300);
        node.on_timer(TimerToken(300), &mut ctx);
        assert_eq!(node.endpoint().fired, vec![0], "a stale token");
        let mut bad = SimPacket::new(NodeId(1), NodeId(9), Bytes::from_static(b"x"), 0);
        bad.corrupted = true;
        node.on_packet(bad, &mut ctx);
        assert_eq!(node.corrupted, 1);
        assert!(ctx.sent.is_empty());

        ctx.now = Nanos(500);
        node.on_timer(TimerToken(500), &mut ctx);
        assert_eq!(node.endpoint().fired, vec![0, 500]);
        let ping = SimPacket::new(NodeId(1), NodeId(9), Bytes::from_static(b"ping"), 0);
        node.on_packet(ping.clone(), &mut ctx);
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(
            (ctx.sent[0].dst, &ctx.sent[0].payload[..]),
            (NodeId(101), &b"ping"[..])
        );
        node.on_packet(ping, &mut ctx);
        assert_eq!(ctx.sent.len(), 1, "done: the second frame is not heard");
        assert_eq!(ctx.timers.len(), 1);
    }

    /// An endpoint that sends endpoint 1 a ping every microsecond,
    /// forever, and ignores what comes back.
    struct Pinger {
        next: u64,
    }

    impl Endpoint for Pinger {
        fn on_frame(&mut self, _: usize, _: &[u8], _: u64, _: &mut TxBatch) -> Result<bool> {
            Ok(false)
        }
        fn on_timer(&mut self, now: u64, txb: &mut TxBatch) -> Result<()> {
            txb.push(1).extend_from_slice(b"ping");
            self.next = now + 1_000;
            Ok(())
        }
        fn next_deadline(&self) -> Option<u64> {
            Some(self.next)
        }
        fn frame_capacity(&self) -> usize {
            8
        }
    }

    /// Node 0 pings node 1, an echo done after one frame, over a 1 us
    /// link, for at most 1 ms of virtual time.
    fn ping_echo(pinger: SimEndpoint<Pinger>, echo: SimEndpoint<Echo>) -> SimReport {
        let mut topo = Topology::new();
        let (a, b) = (topo.add_node(), topo.add_node());
        topo.add_duplex_link(a, b, LinkSpec::clean(10_000_000_000, Nanos(1_000)));
        let cfg = SimConfig {
            deadline: Some(Nanos(1_000_000)),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(topo, cfg);
        sim.bind(a, Box::new(pinger));
        sim.bind(b, Box::new(echo));
        sim.run()
    }

    /// A completing adapter ends the run once its endpoint is done,
    /// though another node's timers would run forever; a plain one
    /// takes no part in completion even when its endpoint is done.
    #[test]
    fn a_completing_endpoint_ends_the_run_when_it_is_done() {
        let echo = || Echo {
            deadlines: Vec::new(),
            fired: Vec::new(),
            life: 1,
        };
        let pinger = Pinger { next: 0 };
        let completing = SimEndpoint::completing(echo(), |_, ep| NodeId(ep));
        let report = ping_echo(SimEndpoint::new(pinger, |_, ep| NodeId(ep)), completing);
        assert!(report.finished);
        let done = report.completion_times[1].expect("the echo completed");
        assert!(done < Nanos(2_000), "at the first ping, not {done:?}");
        assert_eq!(report.end_time, done);

        // The echo turns done at the first ping as before; the run waits
        // for the pinger, which never is, to its deadline.
        let pinger = SimEndpoint::completing(Pinger { next: 0 }, |_, ep| NodeId(ep));
        let report = ping_echo(pinger, SimEndpoint::new(echo(), |_, ep| NodeId(ep)));
        assert!(!report.finished);
        assert_eq!(report.completion_times, vec![None, None]);
        assert!(report.end_time > Nanos(1_000_000));
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
