//! Control plane on the discrete-event simulator.
//!
//! The simulator runs the threads' own endpoints, each on the one
//! netsim adapter, [`SimEndpoint`]: every switch is a [`TenantSwitch`],
//! every worker a [`WorkerEndpoint`] (the [`TenantWorker`] with its
//! heartbeat and scheduled kill as deadlines), and the controller a
//! [`ControllerEndpoint`], every job an arrival at 0 with a fixed share
//! of the pool and the scenario's switch failover as its deadline. The
//! run ends the way the threaded driver's does, once the controller is
//! done: every job complete.
//!
//! [`run_ctrl`] builds the star topology (center forwarder; leaves =
//! controller, switches, workers), runs a [`CtrlScenario`] to
//! completion, and extracts every surviving worker's aggregated
//! tensors. Runs are deterministic: same scenario → same packets →
//! same aggregates, which is what lets tests assert *exact* equality
//! between a kill-and-reconfigure run and a fresh smaller run.

use std::any::Any;
use std::time::Duration;

use switchml_baselines::switchml::SimEndpoint;
use switchml_core::config::{NumericMode, Protocol, RtoPolicy};
use switchml_core::error::Result;
use switchml_core::worker::stream::TensorStream;
use switchml_netsim::prelude::*;
use switchml_netsim::trace::{NullTrace, TraceSink};
use switchml_transport::{PortStats, SWITCH_ENDPOINT};

use crate::controller::CtrlConfig;
use crate::runner::{Arrival, ControllerEndpoint, Note, WorkerEndpoint};
use crate::sched::{Class, TenantSpec};
use crate::tenant::{TenantSwitch, TenantWorker};

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
    /// Every job completed within the deadline.
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
    run(sc, &mut NullTrace)
}

/// [`run_ctrl`], mirroring every network event into `sink`.
fn run(sc: &CtrlScenario, sink: &mut dyn TraceSink) -> Result<CtrlOutcome> {
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

    // Every job arrives at once with a fixed share: the scheduler's floor
    // and cap are both the scenario's pool.
    let pool = sc.pool_size as u32;
    let arrivals = (0..sc.n_jobs)
        .map(|job| Arrival {
            at: 0,
            tenant: TenantSpec {
                job: job as u8,
                class: Class::BestEffort,
                weight: 1,
                quota: pool,
                min_slots: pool,
            },
            n_workers: sc.n_workers,
            n_chunks,
        })
        .collect();
    let ctrl_cfg = CtrlConfig::with_timeouts(sc.heartbeat_us * us, sc.timeout_us * us);
    let switches = switch_ids.iter().map(|id| id.0).collect();
    let capacity = sc.n_jobs as u32 * pool;
    let failover = sc.fail_over.map(|(at, from, to)| (at * us, from, to));
    let controller = ControllerEndpoint::new(
        ctrl_cfg,
        switches,
        capacity,
        base.clone(),
        sc.bound,
        arrivals,
        failover,
    );

    let mut sim = Simulator::new(
        topo,
        SimConfig {
            seed: sc.seed,
            deadline: Some(Nanos(sc.deadline_ms * 1_000 * us)),
            ..SimConfig::default()
        },
    );
    sim.bind(center, Box::new(switchml_netsim::node::Forwarder));
    // Control-plane peers are node ids.
    let controller = SimEndpoint::completing(controller, |_, ep| NodeId(ep));
    sim.bind(controller_id, Box::new(controller));
    for &id in &switch_ids {
        let switch = TenantSwitch::new(controller_id.0, &base, None);
        sim.bind(id, Box::new(SimEndpoint::new(switch, |_, ep| NodeId(ep))));
    }
    let heartbeat = Duration::from_micros(sc.heartbeat_us);
    for (g, &id) in worker_ids.iter().enumerate() {
        let job = (g / sc.n_workers) as u8;
        let kill = match sc.fail_worker {
            Some((victim, at)) if victim == g => Some(Duration::from_micros(at)),
            _ => None,
        };
        let tensors = vec![tensor_of(g)];
        let worker = TenantWorker::new(job, controller_id.0, tensors, base.clone(), sc.n_cores);
        let worker = WorkerEndpoint::new(worker, controller_id.0, heartbeat, kill);
        let switch_ids = switch_ids.clone();
        let route = move |w: &WorkerEndpoint, ep| match ep {
            SWITCH_ENDPOINT => switch_ids[w.worker.switch()],
            ep => NodeId(ep),
        };
        sim.bind(id, Box::new(SimEndpoint::new(worker, route)));
    }

    let report = sim.run_traced(sink);

    let mut worker = |id: &NodeId| {
        let node: Box<dyn Any> = sim.unbind(*id);
        let worker = node.downcast::<SimEndpoint<WorkerEndpoint>>();
        let out = worker.expect("worker node").into_endpoint();
        Ok(out.finish(PortStats::default())?.tensors)
    };
    let results = (worker_ids.chunks(sc.n_workers))
        .map(|job| job.iter().map(&mut worker).collect())
        .collect::<Result<_>>()?;
    let node: Box<dyn Any> = sim.unbind(controller_id);
    let node = node.downcast::<SimEndpoint<ControllerEndpoint>>();
    let ControllerEndpoint {
        ctrl,
        events,
        notes,
        ..
    } = node.expect("controller node").into_endpoint();
    let refused = notes.into_iter().find_map(|note| match note {
        Note::Arrived { admitted, .. } => admitted.err(),
        Note::Complete { .. } => None,
    });
    if let Some(e) = refused {
        return Err(e);
    }
    let jobs = 0..sc.n_jobs as u8;
    Ok(CtrlOutcome {
        finished: report.finished,
        results,
        events,
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
    use switchml_netsim::trace::{EventLog, TraceEvent};

    /// The star's controller node: after the center forwarder.
    const CONTROLLER: NodeId = NodeId(1);

    /// Global worker `g`'s node: after the controller and the switches.
    fn worker_node(sc: &CtrlScenario, g: usize) -> NodeId {
        NodeId(2 + sc.n_switches + g)
    }

    /// Run `sc`, logging every network event.
    fn run_logged(sc: &CtrlScenario) -> (CtrlOutcome, Vec<TraceEvent>) {
        let mut log = EventLog::new(1 << 22);
        let out = run(sc, &mut log).unwrap();
        assert_eq!(log.overflow, 0, "the log filled");
        (out, log.events)
    }

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

    /// On this seed a controller frame to a worker is lost on its lossy
    /// link. A welcomed worker whose `Start` is lost keeps beating
    /// `Register`, the controller replays `Welcome` + `Start`, and the
    /// job converges instead of waiting on a worker that heartbeats but
    /// never streams.
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
        let (out, log) = run_logged(&sc);
        let workers: Vec<_> = (0..sc.n_workers).map(|g| worker_node(&sc, g)).collect();
        let lost = log.iter().any(|ev| match ev {
            TraceEvent::Dropped { src, dst, .. } => *src == CONTROLLER && workers.contains(dst),
            _ => false,
        });
        assert!(lost, "no controller frame to a worker was lost");
        assert!(out.finished, "events: {:?}", out.events);
        assert_eq!(out.final_epoch[0], 0);
        let first = out.results[0][0].as_ref().unwrap();
        for w in 1..sc.n_workers {
            assert_eq!(out.results[0][w].as_ref().unwrap(), first);
        }
    }

    /// A worker killed at `t` sends no frame at or after `t` — killed at
    /// 0, not even its first `Register` — as on the threads.
    #[test]
    fn a_killed_worker_sends_nothing_from_its_kill_on() {
        for at_us in [0, 25, 300] {
            let sc = CtrlScenario {
                n_workers: 3,
                fail_worker: Some((2, at_us)),
                deadline_ms: 20,
                ..CtrlScenario::default()
            };
            let victim = worker_node(&sc, 2);
            let (_, log) = run_logged(&sc);
            let sends = log.iter().filter_map(|ev| match ev {
                TraceEvent::Sent { time, src, .. } if *src == victim => Some(time.0),
                _ => None,
            });
            let (before, after): (Vec<u64>, Vec<u64>) = sends.partition(|&t| t < at_us * 1_000);
            assert!(
                after.is_empty(),
                "killed at {at_us} us, sent at {after:?} ns"
            );
            assert_eq!(before.is_empty(), at_us == 0, "killed at {at_us} us");
        }
    }
}
