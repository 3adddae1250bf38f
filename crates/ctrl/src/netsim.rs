//! Control plane on the discrete-event simulator.
//!
//! Three node types drive the sans-IO state machines: a controller node
//! (the [`Controller`] plus a tick timer and an optional scheduled
//! switch failover), a switch node (a [`TenantSwitch`]) and a worker
//! node (a [`TenantWorker`] plus its heartbeat and retransmission
//! timers, and a scheduled kill). They are the same machines the
//! threaded runner drives; a node only turns [`SimPacket`]s into
//! frames, staged frames back into [`SimPacket`]s, and keeps the timers.
//!
//! [`run_ctrl`] builds the star topology (center forwarder; leaves =
//! controller, switches, workers), runs a [`CtrlScenario`] to
//! completion, and extracts every surviving worker's aggregated
//! tensors. Runs are deterministic: same scenario → same packets →
//! same aggregates, which is what lets tests assert *exact* equality
//! between a kill-and-reconfigure run and a fresh smaller run.

use std::any::Any;

use bytes::Bytes;
use switchml_core::config::{NumericMode, Protocol, RtoPolicy};
use switchml_core::error::Result;
use switchml_core::packet::SIM_FRAME_OVERHEAD;
use switchml_core::switch::pipeline::PipelineModel;
use switchml_core::worker::stream::TensorStream;
use switchml_netsim::prelude::*;
use switchml_transport::{TxBatch, SWITCH_ENDPOINT};

use crate::controller::{Action, Controller, CtrlConfig};
use crate::msg::CtrlMsg;
use crate::tenant::{TenantSwitch, TenantWorker};

/// Timer-token namespaces. Retransmission tokens carry the raw
/// deadline (always far below 2^62); the top two bits select the
/// heartbeat tick and the scheduled-failure timer.
const HB_BIT: u64 = 1 << 63;
const FAIL_BIT: u64 = 1 << 62;

const TICK_TOKEN: TimerToken = TimerToken(1);
const FAILOVER_TOKEN: TimerToken = TimerToken(2);

fn ctrl_frame(src: NodeId, dst: NodeId, msg: &CtrlMsg) -> SimPacket {
    SimPacket::new(src, dst, msg.encode(), SIM_FRAME_OVERHEAD)
}

/// Send everything staged in `txb`, each frame to `route(dest)`.
fn drain(txb: &mut TxBatch, ctx: &mut dyn NodeCtx, route: impl Fn(usize) -> NodeId) {
    for (&dest, frame) in txb.dests().iter().zip(txb.frames()) {
        let payload = Bytes::from(frame.as_slice());
        ctx.send(SimPacket::new(
            ctx.self_id(),
            route(dest),
            payload,
            SIM_FRAME_OVERHEAD,
        ));
    }
    txb.clear();
}

// ---------------------------------------------------------------- controller

/// The controller attached to the simulated network.
struct CtrlControllerNode {
    ctrl: Controller,
    tick: Nanos,
    /// Scheduled switch failover: at `at`, drain `from` onto `to`.
    failover: Option<(Nanos, usize, usize)>,
    /// NodeId per physical switch index.
    switch_ids: Vec<NodeId>,
    /// Operator-visible event log (deaths, reconfigurations, …).
    events: Vec<String>,
}

impl CtrlControllerNode {
    fn execute(&mut self, actions: Vec<Action>, ctx: &mut dyn NodeCtx) {
        for act in actions {
            match act {
                Action::Send { to, msg } => {
                    ctx.send(ctrl_frame(ctx.self_id(), NodeId(to as usize), &msg))
                }
                Action::SwitchCtl { switch, msg } => {
                    ctx.send(ctrl_frame(ctx.self_id(), self.switch_ids[switch], &msg))
                }
                Action::WorkerDead { job, wid } => {
                    self.events.push(format!("job {job}: worker {wid} dead"));
                }
                Action::Reconfigured { job, epoch, n, f } => {
                    self.events
                        .push(format!("job {job}: epoch {epoch} n={n} f={f}"));
                }
                Action::JobComplete { job } => {
                    self.events.push(format!("job {job}: complete"));
                }
            }
        }
    }
}

impl Node for CtrlControllerNode {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        ctx.set_timer(self.tick, TICK_TOKEN);
        if let Some((at, _, _)) = self.failover {
            ctx.set_timer(at, FAILOVER_TOKEN);
        }
    }

    fn on_packet(&mut self, pkt: SimPacket, ctx: &mut dyn NodeCtx) {
        if pkt.corrupted {
            return;
        }
        let actions = self
            .ctrl
            .on_datagram(pkt.src.0 as u64, &pkt.payload, ctx.now().0);
        self.execute(actions, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn NodeCtx) {
        match token {
            TICK_TOKEN => {
                let actions = self.ctrl.on_tick(ctx.now().0);
                self.execute(actions, ctx);
                ctx.set_timer(self.tick, TICK_TOKEN);
            }
            FAILOVER_TOKEN => {
                if let Some((_, from, to)) = self.failover.take() {
                    self.events.push(format!("failover: switch {from} -> {to}"));
                    let actions = self.ctrl.fail_over_all(from, to, ctx.now().0);
                    self.execute(actions, ctx);
                }
            }
            _ => {}
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

// ---------------------------------------------------------------- switch

/// A physical aggregation switch: a [`TenantSwitch`] on a sim node.
/// Peers are node ids, so staged frames go straight to `NodeId(dest)`.
struct CtrlSwitchNode {
    switch: TenantSwitch,
    txb: TxBatch,
}

impl Node for CtrlSwitchNode {
    fn on_start(&mut self, _ctx: &mut dyn NodeCtx) {}

    fn on_packet(&mut self, pkt: SimPacket, ctx: &mut dyn NodeCtx) {
        if pkt.corrupted {
            return;
        }
        self.switch.on_frame(pkt.src.0, &pkt.payload, &mut self.txb);
        drain(&mut self.txb, ctx, NodeId);
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

// ---------------------------------------------------------------- worker

/// A controllable worker: a [`TenantWorker`] on a sim node, its
/// heartbeat and retransmission deadlines as timers, and a kill
/// scheduled by the scenario's fault injector.
struct CtrlWorkerNode {
    /// Reports to `controller`.
    worker: TenantWorker,
    controller: NodeId,
    /// NodeId per physical switch index: where `SWITCH_ENDPOINT` goes.
    switch_ids: Vec<NodeId>,
    heartbeat: Nanos,
    /// Die at this instant, if scheduled.
    fail_at: Option<Nanos>,
    dead: bool,
    armed_rto: Option<u64>,
    completed: bool,
    txb: TxBatch,
}

impl CtrlWorkerNode {
    /// Take the aggregated tensors (raw sums) out, once finished,
    /// unless killed.
    fn take_results(&mut self) -> Option<Vec<Vec<f32>>> {
        (!self.dead).then(|| self.worker.take_results()).flatten()
    }

    fn beat(&self, ctx: &mut dyn NodeCtx) {
        ctx.send(ctrl_frame(
            ctx.self_id(),
            self.controller,
            &self.worker.beat(),
        ));
    }

    fn complete(&mut self, ctx: &mut dyn NodeCtx) {
        if !self.completed {
            self.completed = true;
            ctx.complete();
        }
    }

    /// Send what the worker staged, complete the node once it finished,
    /// and arm its next retransmission deadline.
    fn flush(&mut self, ctx: &mut dyn NodeCtx) {
        let (switch, ids) = (self.worker.switch(), &self.switch_ids);
        drain(&mut self.txb, ctx, |dest| match dest {
            SWITCH_ENDPOINT => ids[switch],
            ctrl => NodeId(ctrl),
        });
        if self.worker.is_finished() {
            self.complete(ctx);
        }
        if let Some(nd) = self.worker.next_deadline() {
            if self.armed_rto != Some(nd) {
                self.armed_rto = Some(nd);
                let delay = Nanos(nd.saturating_sub(ctx.now().0));
                ctx.set_timer(delay, TimerToken(nd));
            }
        }
    }
}

impl Node for CtrlWorkerNode {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        self.beat(ctx);
        ctx.set_timer(self.heartbeat, TimerToken(HB_BIT));
        if let Some(at) = self.fail_at {
            ctx.set_timer(at, TimerToken(FAIL_BIT));
        }
    }

    fn on_packet(&mut self, pkt: SimPacket, ctx: &mut dyn NodeCtx) {
        if pkt.corrupted || self.dead {
            return;
        }
        self.worker
            .on_frame(&pkt.payload, ctx.now().0, &mut self.txb)
            .expect("scenario worker must build under the negotiated config");
        self.flush(ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn NodeCtx) {
        if self.dead {
            return;
        }
        match token.0 {
            FAIL_BIT => {
                self.dead = true;
                self.complete(ctx);
            }
            HB_BIT => {
                self.beat(ctx);
                ctx.set_timer(self.heartbeat, TimerToken(HB_BIT));
            }
            deadline => {
                if self.armed_rto == Some(deadline) {
                    self.armed_rto = None;
                }
                self.worker
                    .on_timer(ctx.now().0, &mut self.txb)
                    .expect("retransmission materialization");
                self.flush(ctx);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------- scenarios

/// A deterministic control-plane scenario.
#[derive(Debug, Clone)]
pub struct CtrlScenario {
    /// Workers per job.
    pub n_workers: usize,
    /// Jobs (each with its own disjoint worker set).
    pub n_jobs: usize,
    /// Physical switches (index 0 hosts all jobs initially).
    pub n_switches: usize,
    /// Elements in each worker's (single) tensor.
    pub elems: usize,
    /// Elements per packet.
    pub k: usize,
    /// Pool slots per job.
    pub pool_size: usize,
    /// Worker cores (engines) per worker.
    pub n_cores: usize,
    /// Requested scaling factor (clamped by Theorem 2 per epoch).
    pub requested_f: f64,
    /// Per-worker gradient magnitude bound `B`.
    pub bound: f64,
    /// Link bandwidth in Gbit/s.
    pub bandwidth_gbps: f64,
    /// One-way propagation per link, microseconds.
    pub latency_us: u64,
    /// Loss probability on *worker* links (controller and switch links
    /// stay clean — the interesting loss is on the data path).
    pub loss: f64,
    /// Simulator seed (loss draw sequence).
    pub seed: u64,
    /// Dataplane retransmission timeout, microseconds.
    pub rto_us: u64,
    /// Worker heartbeat interval, microseconds.
    pub heartbeat_us: u64,
    /// Controller failure timeout, microseconds.
    pub timeout_us: u64,
    /// Kill worker `(global index, at microseconds)`.
    pub fail_worker: Option<(usize, u64)>,
    /// At `(microseconds, from, to)`: drain switch `from` onto `to`.
    pub fail_over: Option<(u64, usize, usize)>,
    /// When building tensors, skip this global worker slot — so a
    /// fresh (n−1)-worker run can be given *exactly* the tensors of
    /// another run's survivors.
    pub tensor_skip: Option<usize>,
    /// Simulated-time budget, milliseconds.
    pub deadline_ms: u64,
}

impl Default for CtrlScenario {
    fn default() -> Self {
        CtrlScenario {
            n_workers: 4,
            n_jobs: 1,
            n_switches: 1,
            elems: 256,
            k: 8,
            pool_size: 8,
            n_cores: 1,
            requested_f: 1e9,
            bound: 16.0,
            bandwidth_gbps: 10.0,
            latency_us: 10,
            loss: 0.0,
            seed: 1,
            rto_us: 300,
            heartbeat_us: 50,
            timeout_us: 250,
            fail_worker: None,
            fail_over: None,
            tensor_skip: None,
            deadline_ms: 500,
        }
    }
}

/// The deterministic tensor of global worker slot `slot`: values in
/// `(-bound, bound)`, distinct per slot and element.
pub fn scenario_tensor(slot: usize, elems: usize, bound: f64) -> Vec<f32> {
    (0..elems)
        .map(|i| {
            let h = (slot * 1_000_003 + i * 7_919 + 13) % 20_011;
            ((h as f64 / 20_011.0) * 2.0 - 1.0) as f32 * (bound as f32 * 0.99)
        })
        .collect()
}

/// What a control-plane run produced.
pub struct CtrlOutcome {
    /// All surviving workers completed within the deadline.
    pub finished: bool,
    /// `results[job][worker]`: aggregated tensors (raw sums) of each
    /// surviving worker, `None` for killed workers.
    pub results: Vec<Vec<Option<Vec<Vec<f32>>>>>,
    /// Controller event log, in order.
    pub events: Vec<String>,
    /// Final epoch per job.
    pub final_epoch: Vec<u32>,
    /// Final worker count per job.
    pub final_n: Vec<usize>,
    /// Final negotiated scaling factor per job.
    pub final_f: Vec<f64>,
    /// The raw simulation report.
    pub report: SimReport,
}

/// Run a [`CtrlScenario`] to completion. `Err` when the controller
/// refuses to admit a job (e.g. a `k` past the switch parser's budget).
pub fn run_ctrl(sc: &CtrlScenario) -> Result<CtrlOutcome> {
    assert!(sc.n_switches >= 1 && sc.n_jobs >= 1 && sc.n_workers >= 1);
    let us = 1_000u64;
    let bw = (sc.bandwidth_gbps * 1e9) as u64;
    let prop = Nanos(sc.latency_us * us);
    let clean = LinkSpec::clean(bw, prop);
    let lossy = clean.with_loss(sc.loss);

    // Star: center forwarder; leaves = controller, switches, workers.
    let mut topo = Topology::new();
    let center = topo.add_node();
    let controller_id = topo.add_node();
    topo.add_duplex_link(controller_id, center, clean);
    let switch_ids: Vec<NodeId> = (0..sc.n_switches)
        .map(|_| {
            let id = topo.add_node();
            topo.add_duplex_link(id, center, clean);
            id
        })
        .collect();
    let mut worker_ids = Vec::new();
    for _ in 0..sc.n_jobs * sc.n_workers {
        let id = topo.add_node();
        topo.add_duplex_link(id, center, lossy);
        worker_ids.push(id);
    }

    let base = Protocol {
        n_workers: sc.n_workers,
        k: sc.k,
        pool_size: sc.pool_size,
        rto_ns: sc.rto_us * us,
        rto_policy: RtoPolicy::ExponentialBackoff {
            max_ns: sc.rto_us * us * 8,
        },
        mode: NumericMode::Fixed32,
        scaling_factor: sc.requested_f,
        ..Protocol::default()
    };

    // Tensor slots: global worker index, with the scenario's skip
    // applied (slot s maps to tensor s, or s+1 past the skip).
    let tensor_of = |global: usize| {
        let slot = match sc.tensor_skip {
            Some(skip) if global >= skip => global + 1,
            _ => global,
        };
        scenario_tensor(slot, sc.elems, sc.bound)
    };
    let n_chunks = TensorStream::f32_chunks(&[tensor_of(0)], base.mode, sc.k)?;

    let ctrl_cfg = CtrlConfig::with_timeouts(sc.heartbeat_us * us, sc.timeout_us * us);
    let mut controller = Controller::new(
        ctrl_cfg,
        (0..sc.n_switches)
            .map(|_| PipelineModel::default())
            .collect(),
    );
    for job in 0..sc.n_jobs {
        controller.create_job(job as u8, base.clone(), sc.bound, n_chunks, 0)?;
    }

    let mut sim = Simulator::new(
        topo,
        SimConfig {
            seed: sc.seed,
            deadline: Some(Nanos(sc.deadline_ms * 1_000 * us)),
            ..SimConfig::default()
        },
    );
    sim.bind(center, Box::new(switchml_netsim::node::Forwarder));
    let node = CtrlControllerNode {
        ctrl: controller,
        tick: Nanos(sc.heartbeat_us * us / 2),
        failover: sc.fail_over.map(|(at, f, t)| (Nanos(at * us), f, t)),
        switch_ids: switch_ids.clone(),
        events: Vec::new(),
    };
    sim.bind(controller_id, Box::new(node));
    for &id in &switch_ids {
        let switch = TenantSwitch::default();
        let txb = TxBatch::new(TenantSwitch::frame_capacity(&base));
        sim.bind(id, Box::new(CtrlSwitchNode { switch, txb }));
    }
    for (g, &id) in worker_ids.iter().enumerate() {
        let job = (g / sc.n_workers) as u8;
        let fail_at = match sc.fail_worker {
            Some((victim, at)) if victim == g => Some(Nanos(at * us)),
            _ => None,
        };
        let tensors = vec![tensor_of(g)];
        let worker = TenantWorker::new(job, controller_id.0, tensors, base.clone(), sc.n_cores);
        let node = CtrlWorkerNode {
            txb: TxBatch::new(worker.frame_capacity()),
            worker,
            controller: controller_id,
            switch_ids: switch_ids.clone(),
            heartbeat: Nanos(sc.heartbeat_us * us),
            fail_at,
            dead: false,
            armed_rto: None,
            completed: false,
        };
        sim.bind(id, Box::new(node));
    }

    let report = sim.run();

    let mut worker = |id: &NodeId| {
        let mut node = sim.unbind(*id);
        let node = node.as_any_mut().downcast_mut::<CtrlWorkerNode>();
        node.expect("worker node").take_results()
    };
    let results = (worker_ids.chunks(sc.n_workers))
        .map(|job| job.iter().map(&mut worker).collect())
        .collect();
    let ctrl_node = sim
        .node(controller_id)
        .as_any()
        .downcast_ref::<CtrlControllerNode>()
        .expect("controller node");
    let ctrl = &ctrl_node.ctrl;
    let jobs = 0..sc.n_jobs as u8;
    Ok(CtrlOutcome {
        finished: report.finished,
        results,
        events: ctrl_node.events.clone(),
        final_epoch: jobs.clone().map(|j| ctrl.epoch(j).unwrap_or(0)).collect(),
        final_n: jobs
            .clone()
            .map(|j| ctrl.alive_count(j).unwrap_or(0))
            .collect(),
        final_f: jobs.map(|j| ctrl.negotiated_f(j).unwrap_or(0.0)).collect(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_job_completes_with_exact_sums() {
        let sc = CtrlScenario::default();
        let out = run_ctrl(&sc).unwrap();
        assert!(out.finished, "events: {:?}", out.events);
        assert_eq!(out.final_epoch[0], 0);
        assert_eq!(out.final_n[0], sc.n_workers);
        // Every worker holds identical aggregates.
        let first = out.results[0][0].as_ref().unwrap();
        for w in 1..sc.n_workers {
            assert_eq!(out.results[0][w].as_ref().unwrap(), first);
        }
        // And they match the quantized elementwise sum exactly.
        let f = out.final_f[0];
        for (i, &got) in first[0].iter().enumerate() {
            let q: i64 = (0..sc.n_workers)
                .map(|w| {
                    switchml_core::quant::fixed::quantize_one(
                        scenario_tensor(w, sc.elems, sc.bound)[i],
                        f,
                    ) as i64
                })
                .sum();
            let expect = (q as f64 / f) as f32;
            assert_eq!(got, expect, "elem {i}");
        }
    }

    #[test]
    fn two_jobs_share_one_switch() {
        let sc = CtrlScenario {
            n_jobs: 2,
            n_workers: 3,
            ..CtrlScenario::default()
        };
        let out = run_ctrl(&sc).unwrap();
        assert!(out.finished, "events: {:?}", out.events);
        for job in 0..2 {
            let first = out.results[job][0].as_ref().unwrap();
            for w in 1..3 {
                assert_eq!(out.results[job][w].as_ref().unwrap(), first);
            }
        }
        // Jobs see disjoint tensors, so their sums differ.
        assert_ne!(out.results[0][0], out.results[1][0]);
    }

    #[test]
    fn lossy_links_still_converge() {
        let sc = CtrlScenario {
            loss: 0.02,
            seed: 7,
            ..CtrlScenario::default()
        };
        let out = run_ctrl(&sc).unwrap();
        assert!(out.finished, "events: {:?}", out.events);
        let first = out.results[0][0].as_ref().unwrap();
        for w in 1..sc.n_workers {
            assert_eq!(out.results[0][w].as_ref().unwrap(), first);
        }
    }

    /// On this seed one worker's `Start` is lost on its lossy link. The
    /// welcomed worker keeps beating `Register`, the controller replays
    /// `Welcome` + `Start`, and the job converges instead of waiting on
    /// a worker that heartbeats but never streams.
    #[test]
    fn a_lost_start_is_replayed() {
        let sc = CtrlScenario {
            elems: 4096,
            k: 16,
            pool_size: 4,
            loss: 0.05,
            seed: 3,
            ..CtrlScenario::default()
        };
        let out = run_ctrl(&sc).unwrap();
        assert!(out.finished, "events: {:?}", out.events);
        assert_eq!(out.final_epoch[0], 0);
        let first = out.results[0][0].as_ref().unwrap();
        for w in 1..sc.n_workers {
            assert_eq!(out.results[0][w].as_ref().unwrap(), first);
        }
    }
}
