//! Scenario builders: assemble a topology, bind protocol nodes, run
//! the simulation, and extract the metrics the paper reports (tensor
//! aggregation time, per-packet RTT, retransmissions, correctness).
//!
//! Every runner verifies the aggregation result against the exact
//! element-wise sum — the paper's microbenchmarks do the same ("We
//! verify that the tensors … are aggregated correctly", §5.3).

use crate::colocated::ColocatedNode;
use crate::hd::{HdNode, HdParams};
use crate::ring::{RingNode, RingParams};
use crate::switchml::{switch_node, SimEndpoint, SlotRouter, SwitchMLWorkerNode};
use std::any::Any;
use switchml_core::config::{NumericMode, Protocol};
use switchml_core::error::{Error, Result};
use switchml_core::worker::stream::TensorStream;
use switchml_core::worker::Worker;
use switchml_netsim::node::Forwarder;
use switchml_netsim::prelude::*;
use switchml_netsim::trace::{NullTrace, TraceSink};
use switchml_transport::endpoint::Endpoint;
use switchml_transport::{hier_worker_endpoint, Leaf, ShardEndpoint, SPINE_ENDPOINT};

/// Deterministic per-rank synthetic gradient: rank-dependent base with
/// a small per-element ripple so element steering bugs can't hide.
pub fn synthetic_gradient(rank: usize, elems: usize) -> Vec<f32> {
    let base = 0.5 + rank as f32 * 0.25;
    (0..elems)
        .map(|i| base + ((i % 8) as f32) * 0.125)
        .collect()
}

/// The exact element-wise sum of [`synthetic_gradient`] over `n` ranks.
pub fn expected_sum(n: usize, elems: usize) -> Vec<f32> {
    let base_sum: f32 = (0..n).map(|r| 0.5 + r as f32 * 0.25).sum();
    (0..elems)
        .map(|i| base_sum + n as f32 * ((i % 8) as f32) * 0.125)
        .collect()
}

/// Integer analog of [`synthetic_gradient`], for the NativeInt32 mode
/// of Figure 8 (which bypasses scaling/conversion entirely).
pub fn synthetic_gradient_i32(rank: usize, elems: usize) -> Vec<i32> {
    (0..elems)
        .map(|i| (rank as i32 + 1) * 1000 + (i % 8) as i32)
        .collect()
}

/// Element-wise sum of [`synthetic_gradient_i32`] over `n` ranks.
pub fn expected_sum_i32(n: usize, elems: usize) -> Vec<i32> {
    let base: i32 = (0..n as i32).map(|r| (r + 1) * 1000).sum();
    (0..elems)
        .map(|i| base + n as i32 * (i % 8) as i32)
        .collect()
}

fn close_enough(got: &[f32], want: &[f32], tol: f32) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| (a - b).abs() <= tol)
}

/// Metrics shared by all collective runners.
#[derive(Debug, Clone)]
pub struct CollectiveOutcome {
    /// Per-worker tensor aggregation time.
    pub tat: Vec<Nanos>,
    /// TAT of the slowest worker (the job-level TAT).
    pub max_tat: Nanos,
    pub mean_tat_ns: f64,
    /// Mean per-packet RTT (SwitchML runs only; 0 otherwise).
    pub mean_rtt_ns: f64,
    /// 99th-percentile per-packet RTT (SwitchML runs only).
    pub p99_rtt_ns: u64,
    /// Result matched the exact element-wise sum.
    pub verified: bool,
    /// Protocol-level retransmissions across all workers.
    pub total_retx: u64,
    /// Aggregated tensor elements per second (elems / mean TAT).
    pub ate_per_sec: f64,
    /// Rank 0's aggregated tensors, dequantized (SwitchML traced runs
    /// only; empty elsewhere). Bit-exact across workers and transports
    /// for Fixed32, which the differential tests rely on.
    pub worker0_results: Vec<Vec<f32>>,
    /// The raw simulation report (packet counters, drops, …).
    pub report: SimReport,
}

fn outcome_from(
    report: SimReport,
    worker_ids: &[NodeId],
    elems: usize,
    mean_rtt_ns: f64,
    p99_rtt_ns: u64,
    verified: bool,
    total_retx: u64,
) -> Result<CollectiveOutcome> {
    if !report.finished {
        return Err(Error::ProtocolViolation(format!(
            "simulation did not converge ({} events, t = {})",
            report.events, report.end_time
        )));
    }
    let tat: Vec<Nanos> = worker_ids
        .iter()
        .map(|w| report.completion_times[w.0].expect("finished run has completion times"))
        .collect();
    let max_tat = *tat.iter().max().expect("at least one worker");
    let mean_tat_ns = tat.iter().map(|t| t.0 as f64).sum::<f64>() / tat.len() as f64;
    let ate = if mean_tat_ns > 0.0 {
        elems as f64 / (mean_tat_ns / 1e9)
    } else {
        0.0
    };
    Ok(CollectiveOutcome {
        tat,
        max_tat,
        mean_tat_ns,
        mean_rtt_ns,
        p99_rtt_ns,
        verified,
        total_retx,
        ate_per_sec: ate,
        worker0_results: Vec::new(),
        report,
    })
}

/// A single-rack SwitchML run (the paper's §5.3 microbenchmark).
#[derive(Debug, Clone)]
pub struct SwitchMLScenario {
    pub n_workers: usize,
    /// Tensor elements per worker.
    pub elems: usize,
    pub proto: Protocol,
    pub link: LinkSpec,
    /// Worker CPU cores (the paper uses 1 at 10 Gbps, 4 at 100 Gbps).
    pub n_cores: usize,
    /// CPU time to process one result packet and emit the next update
    /// (DPDK run-to-completion loop).
    pub worker_cost: Nanos,
    /// Per-rank straggle: `(rank, extra)` gives that worker's links a
    /// fixed extra delay in both directions (a chronically slow host).
    pub stragglers: Vec<(usize, Nanos)>,
    pub seed: u64,
    /// Simulated-time cap (None = run to completion).
    pub deadline: Option<Nanos>,
}

impl SwitchMLScenario {
    pub fn new(n_workers: usize, elems: usize) -> Self {
        SwitchMLScenario {
            n_workers,
            elems,
            proto: Protocol {
                n_workers,
                k: 32,
                pool_size: 128,
                rto_ns: 1_000_000, // the paper's 1 ms RTO (§5.5)
                rto_policy: switchml_core::config::RtoPolicy::Fixed,
                mode: NumericMode::Fixed32,
                wrapping_add: false,
                scaling_factor: 1_000_000.0,
            },
            link: LinkSpec::clean(10_000_000_000, Nanos::from_micros(1)),
            n_cores: 1,
            worker_cost: Nanos(90),
            stragglers: Vec::new(),
            seed: 1,
            deadline: None,
        }
    }

    /// Switch the scenario to 100 Gbps defaults (pool 512, 4 cores, as
    /// deployed in the paper).
    pub fn at_100g(mut self) -> Self {
        self.link.bandwidth_bps = 100_000_000_000;
        self.proto.pool_size = 512;
        self.n_cores = 4;
        self
    }
}

fn sim_config(seed: u64, deadline: Option<Nanos>) -> SimConfig {
    SimConfig {
        seed,
        forward_latency: Nanos(400),
        max_events: 2_000_000_000,
        deadline,
    }
}

/// Run single-switch SwitchML, mirroring trace events into `sink`.
pub fn run_switchml_traced(
    sc: &SwitchMLScenario,
    sink: &mut dyn TraceSink,
) -> Result<CollectiveOutcome> {
    sc.proto.validate()?;
    let mut topo = Topology::new();
    // The worker→switch direction is fed by the DPDK TX ring, which is
    // sized to hold the initial window of s packets (§3.6's "initial
    // window size"); queueing there shows up as RTT, not loss. The
    // switch→worker direction keeps the configured (shallow) queue.
    let uplink_queue = sc
        .link
        .queue_bytes
        .max(2 * sc.proto.pool_size * sc.proto.packet_wire_bytes());
    // §3.5 allows bounded reordering on results (switch→worker) only:
    // an update stream reordering across phases can land a stale
    // retransmission after the same worker's next-generation update
    // and re-seed a released slot (the 1-bit version ambiguity), which
    // the paper rules out via in-order switch fabrics. Duplication
    // stays on both directions — FIFO dup copies are exactly the §3.4
    // idempotency case.
    let uplink = sc
        .link
        .with_queue_bytes(uplink_queue)
        .with_reordering(0.0, Nanos::ZERO);
    let sw = topo.add_node();
    let ws: Vec<NodeId> = (0..sc.n_workers)
        .map(|rank| {
            let extra = sc
                .stragglers
                .iter()
                .find(|&&(r, _)| r == rank)
                .map_or(Nanos::ZERO, |&(_, d)| d);
            let w = topo.add_node();
            topo.add_simplex_link(w, sw, uplink.with_straggle(extra));
            topo.add_simplex_link(sw, w, sc.link.with_straggle(extra));
            w
        })
        .collect();
    let mut sim = Simulator::new(topo, sim_config(sc.seed, sc.deadline));

    for (rank, &id) in ws.iter().enumerate() {
        let stream = match sc.proto.mode {
            NumericMode::NativeInt32 => {
                TensorStream::from_i32(vec![synthetic_gradient_i32(rank, sc.elems)], sc.proto.k)?
            }
            _ => TensorStream::from_f32(
                vec![synthetic_gradient(rank, sc.elems)],
                sc.proto.mode,
                sc.proto.scaling_factor,
                sc.proto.k,
            )?,
        };
        let worker = Worker::sharded(rank as u16, &sc.proto, stream, sc.n_cores)?;
        sim.bind(
            id,
            Box::new(SwitchMLWorkerNode::new(
                worker,
                SlotRouter::Single(sw),
                sc.worker_cost,
            )),
        );
    }
    // An ASIC: line-rate processing, no host cost.
    sim.bind(sw, Box::new(switch_node(&sc.proto, ws.clone())?));

    let report = sim.run_traced(sink);

    // Extract per-worker metrics and verify worker 0's result.
    let mut total_retx = 0;
    let mut rtt_sum = 0.0;
    let mut rtt_n = 0u64;
    let mut p99 = 0u64;
    let mut verified = false;
    let mut worker0_results: Vec<Vec<f32>> = Vec::new();
    for (rank, &id) in ws.iter().enumerate() {
        let node = sim
            .node(id)
            .as_any()
            .downcast_ref::<SwitchMLWorkerNode>()
            .expect("worker node type");
        total_retx += node.stats().retx;
        rtt_sum += node.rtt.sum_ns as f64;
        rtt_n += node.rtt.count;
        p99 = p99.max(node.rtt.percentile_ns(0.99));
        if rank == 0 && report.finished {
            verified = match sc.proto.mode {
                NumericMode::NativeInt32 => {
                    let got = node.worker().stream().result_tensors_i32()?;
                    got[0] == expected_sum_i32(sc.n_workers, sc.elems)
                }
                mode => {
                    let got = node.worker().stream().result_tensors_f32(1)?;
                    worker0_results = got.clone();
                    let want = expected_sum(sc.n_workers, sc.elems);
                    let tol = match mode {
                        // f16 carries an 11-bit significand: quantization
                        // error is relative to the scaled magnitude.
                        NumericMode::Float16 => {
                            let max_in = 0.5 + (sc.n_workers as f32 - 1.0) * 0.25 + 0.875;
                            sc.n_workers as f32 * max_in * 2f32.powi(-9) + 1e-3
                        }
                        _ => (sc.n_workers as f64 / sc.proto.scaling_factor) as f32 + 1e-3,
                    };
                    close_enough(&got[0], &want, tol)
                }
            };
        }
    }
    let mean_rtt = if rtt_n > 0 {
        rtt_sum / rtt_n as f64
    } else {
        0.0
    };
    let mut out = outcome_from(report, &ws, sc.elems, mean_rtt, p99, verified, total_retx)?;
    out.worker0_results = worker0_results;
    Ok(out)
}

/// Run single-switch SwitchML.
pub fn run_switchml(sc: &SwitchMLScenario) -> Result<CollectiveOutcome> {
    run_switchml_traced(sc, &mut NullTrace)
}

/// Parameter-server placement (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsPlacement {
    /// One PS machine per worker, on dedicated nodes ("effectively
    /// doubling the cluster size").
    Dedicated,
    /// A PS shard colocated with every worker, sharing its link.
    Colocated,
}

/// Parameter-server scenario: the same worker protocol, but the
/// aggregator is software, sharded across hosts.
#[derive(Debug, Clone)]
pub struct PsScenario {
    pub base: SwitchMLScenario,
    pub placement: PsPlacement,
    /// Cores per PS shard (the paper uses 4).
    pub ps_cores: usize,
    /// Per-packet CPU cost at a PS shard (DPDK-class).
    pub ps_cost: Nanos,
}

impl PsScenario {
    pub fn new(base: SwitchMLScenario, placement: PsPlacement) -> Self {
        PsScenario {
            base,
            placement,
            ps_cores: 4,
            ps_cost: Nanos(90),
        }
    }
}

/// Run a PS-based aggregation.
pub fn run_ps(sc: &PsScenario) -> Result<CollectiveOutcome> {
    let base = &sc.base;
    base.proto.validate()?;
    let n = base.n_workers;
    let s = base.proto.pool_size;
    // Shard slots across n PS processes, evenly and contiguously.
    let shard_of: Vec<usize> = (0..s).map(|slot| slot * n / s.max(1)).collect();

    let mut topo = Topology::new();
    let center = topo.add_node();
    let ws: Vec<NodeId> = (0..n)
        .map(|_| {
            let w = topo.add_node();
            topo.add_duplex_link(w, center, base.link);
            w
        })
        .collect();
    let ps_ids: Vec<NodeId> = match sc.placement {
        PsPlacement::Dedicated => (0..n)
            .map(|_| {
                let p = topo.add_node();
                topo.add_duplex_link(p, center, base.link);
                p
            })
            .collect(),
        PsPlacement::Colocated => ws.clone(),
    };

    let mut sim = Simulator::new(topo, sim_config(base.seed, base.deadline));
    sim.bind(center, Box::new(Forwarder));

    let make_worker = |rank: usize| -> Result<SwitchMLWorkerNode> {
        let data = synthetic_gradient(rank, base.elems);
        let stream = TensorStream::from_f32(
            vec![data],
            base.proto.mode,
            base.proto.scaling_factor,
            base.proto.k,
        )?;
        let worker = Worker::sharded(rank as u16, &base.proto, stream, base.n_cores)?;
        Ok(SwitchMLWorkerNode::new(
            worker,
            SlotRouter::Sharded {
                shards: ps_ids.clone(),
                shard_of: shard_of.clone(),
            },
            base.worker_cost,
        ))
    };
    let make_ps = |_shard: usize| -> Result<SimEndpoint<ShardEndpoint>> {
        Ok(switch_node(&base.proto, ws.clone())?.with_host(sc.ps_cores, sc.ps_cost))
    };

    match sc.placement {
        PsPlacement::Dedicated => {
            for (rank, &id) in ws.iter().enumerate() {
                sim.bind(id, Box::new(make_worker(rank)?));
            }
            for (shard, &id) in ps_ids.iter().enumerate() {
                sim.bind(id, Box::new(make_ps(shard)?));
            }
        }
        PsPlacement::Colocated => {
            for (rank, &id) in ws.iter().enumerate() {
                sim.bind(
                    id,
                    Box::new(ColocatedNode::new(make_worker(rank)?, make_ps(rank)?)),
                );
            }
        }
    }

    let report = sim.run();

    let mut total_retx = 0;
    let mut rtt_sum = 0.0;
    let mut rtt_n = 0u64;
    let mut verified = false;
    for (rank, &id) in ws.iter().enumerate() {
        let any = sim.node(id).as_any();
        let worker_node: &SwitchMLWorkerNode = match sc.placement {
            PsPlacement::Dedicated => any.downcast_ref().expect("worker node"),
            PsPlacement::Colocated => {
                &any.downcast_ref::<ColocatedNode>()
                    .expect("colocated")
                    .worker
            }
        };
        total_retx += worker_node.stats().retx;
        rtt_sum += worker_node.rtt.sum_ns as f64;
        rtt_n += worker_node.rtt.count;
        if rank == 0 && report.finished {
            let got = worker_node.worker().stream().result_tensors_f32(1)?;
            let want = expected_sum(n, base.elems);
            let tol = (n as f64 / base.proto.scaling_factor) as f32 + 1e-3;
            verified = close_enough(&got[0], &want, tol);
        }
    }
    let mean_rtt = if rtt_n > 0 {
        rtt_sum / rtt_n as f64
    } else {
        0.0
    };
    outcome_from(report, &ws, base.elems, mean_rtt, 0, verified, total_retx)
}

/// Ring all-reduce scenario (Gloo / NCCL profiles).
#[derive(Debug, Clone)]
pub struct RingScenario {
    pub n: usize,
    pub elems: usize,
    pub link: LinkSpec,
    /// Per-packet host cost (the Gloo-vs-NCCL knob).
    pub host_cost: Nanos,
    /// TCP-like stall recovery timeout.
    pub stall_rto: Nanos,
    pub mtu_elems: usize,
    pub seed: u64,
    pub deadline: Option<Nanos>,
}

impl RingScenario {
    /// Gloo-over-TCP profile. The per-packet cost is calibrated so an
    /// 8-worker 10 Gbps ring sustains ≈25 M elem/s — the effective
    /// rate the paper's Gloo baseline exhibits (Figures 4 and 8).
    pub fn gloo(n: usize, elems: usize) -> Self {
        RingScenario {
            n,
            elems,
            link: LinkSpec::clean(10_000_000_000, Nanos::from_micros(1)),
            host_cost: Nanos(8_200),
            stall_rto: Nanos::from_millis(200),
            mtu_elems: crate::msg::MTU_ELEMS,
            seed: 1,
            deadline: None,
        }
    }

    /// NCCL profile: GPU-direct buffers cut per-packet host cost to
    /// less than half of Gloo's — calibrated to ≈55 M elem/s at 8
    /// workers / 10 Gbps, the rate Table 1's NCCL rows imply.
    pub fn nccl(n: usize, elems: usize) -> Self {
        RingScenario {
            host_cost: Nanos(3_700),
            ..RingScenario::gloo(n, elems)
        }
    }

    /// Gloo-over-RDMA profile (§5.4): kernel bypass + zero-copy.
    /// Calibrated to the paper's measurement — "a sensible 4x speedup
    /// exchanging 50MB tensors with Gloo at 100Gbps using RDMA versus
    /// TCP" — i.e. ~4× the TCP profile's sustained rate, still far
    /// from line rate (NIC/verbs processing remains per-message).
    pub fn gloo_rdma(n: usize, elems: usize) -> Self {
        RingScenario {
            host_cost: Nanos(2_000),
            ..RingScenario::gloo(n, elems)
        }
    }
}

/// Run ring all-reduce through a non-programmable ToR.
pub fn run_ring(sc: &RingScenario) -> Result<CollectiveOutcome> {
    if sc.n == 0 {
        return Err(Error::InvalidConfig("need at least one rank".into()));
    }
    // Each step bursts a whole segment; give links queue room for it.
    let seg_bytes = (sc.elems / sc.n.max(1) + 1) * 4;
    let link = sc
        .link
        .with_queue_bytes(sc.link.queue_bytes.max(2 * seg_bytes + 256 * 1024));

    let mut topo = Topology::new();
    let (center, ws) = topo.star(sc.n, link);
    let mut sim = Simulator::new(topo, sim_config(sc.seed, sc.deadline));
    sim.bind(center, Box::new(Forwarder));
    for (rank, &id) in ws.iter().enumerate() {
        let params = RingParams {
            mtu_elems: sc.mtu_elems,
            host_cost: sc.host_cost,
            stall_rto: sc.stall_rto,
            ..RingParams::new(rank, sc.n, sc.elems)
        };
        let data = synthetic_gradient(rank, sc.elems);
        let pred = ws[(rank + sc.n - 1) % sc.n];
        let succ = ws[(rank + 1) % sc.n];
        sim.bind(id, Box::new(RingNode::new(params, data, pred, succ)));
    }

    let report = sim.run();

    let mut verified = false;
    let mut total_retx = 0;
    for (rank, &id) in ws.iter().enumerate() {
        let node = sim
            .node(id)
            .as_any()
            .downcast_ref::<RingNode>()
            .expect("ring node");
        total_retx += node.stats.retx_sent;
        if rank == 0 && report.finished {
            let want = expected_sum(sc.n, sc.elems);
            verified = close_enough(node.data(), &want, 1e-2 * sc.n as f32);
        }
    }
    outcome_from(report, &ws, sc.elems, 0.0, 0, verified, total_retx)
}

/// Halving-doubling all-reduce scenario (lossless only).
#[derive(Debug, Clone)]
pub struct HdScenario {
    pub n: usize,
    pub elems: usize,
    pub link: LinkSpec,
    pub host_cost: Nanos,
    pub seed: u64,
    pub deadline: Option<Nanos>,
}

impl HdScenario {
    pub fn new(n: usize, elems: usize) -> Self {
        HdScenario {
            n,
            elems,
            link: LinkSpec::clean(10_000_000_000, Nanos::from_micros(1)),
            host_cost: Nanos(4_200),
            seed: 1,
            deadline: None,
        }
    }
}

/// Run halving-doubling all-reduce through a non-programmable ToR.
pub fn run_hd(sc: &HdScenario) -> Result<CollectiveOutcome> {
    if !sc.n.is_power_of_two() {
        return Err(Error::InvalidConfig(
            "halving-doubling needs a power-of-two rank count".into(),
        ));
    }
    let seg_bytes = (sc.elems / 2 + 1) * 4;
    let link = sc
        .link
        .with_queue_bytes(sc.link.queue_bytes.max(2 * seg_bytes + 256 * 1024));
    let mut topo = Topology::new();
    let (center, ws) = topo.star(sc.n, link);
    let mut sim = Simulator::new(topo, sim_config(sc.seed, sc.deadline));
    sim.bind(center, Box::new(Forwarder));
    for (rank, &id) in ws.iter().enumerate() {
        let params = HdParams {
            host_cost: sc.host_cost,
            ..HdParams::new(rank, sc.n, sc.elems)
        };
        let data = synthetic_gradient(rank, sc.elems);
        sim.bind(id, Box::new(HdNode::new(params, data, ws.clone())));
    }

    let report = sim.run();

    let mut verified = false;
    for (rank, &id) in ws.iter().enumerate() {
        if rank == 0 && report.finished {
            let node = sim
                .node(id)
                .as_any()
                .downcast_ref::<HdNode>()
                .expect("hd node");
            let want = expected_sum(sc.n, sc.elems);
            verified = close_enough(node.data(), &want, 1e-2 * sc.n as f32);
        }
    }
    outcome_from(report, &ws, sc.elems, 0.0, 0, verified, 0)
}

/// Multi-rack hierarchical SwitchML (§6).
#[derive(Debug, Clone)]
pub struct HierScenario {
    pub racks: usize,
    pub per_rack: usize,
    pub elems: usize,
    /// k / pool / RTO / scaling template; `n_workers` is overridden
    /// per layer (per_rack at rack switches, racks at the root). The
    /// RTO times the workers and each leaf's own up hop alike.
    pub proto: Protocol,
    pub worker_link: LinkSpec,
    pub uplink: LinkSpec,
    pub worker_cost: Nanos,
    pub seed: u64,
    pub deadline: Option<Nanos>,
}

impl HierScenario {
    pub fn new(racks: usize, per_rack: usize, elems: usize) -> Self {
        let link = LinkSpec::clean(10_000_000_000, Nanos::from_micros(1));
        HierScenario {
            racks,
            per_rack,
            elems,
            proto: Protocol {
                n_workers: per_rack,
                k: 32,
                pool_size: 128,
                rto_ns: 1_000_000,
                rto_policy: switchml_core::config::RtoPolicy::Fixed,
                mode: NumericMode::Fixed32,
                wrapping_add: false,
                scaling_factor: 1_000_000.0,
            },
            worker_link: link,
            uplink: link,
            worker_cost: Nanos(90),
            seed: 1,
            deadline: None,
        }
    }
}

/// Run hierarchical aggregation across `racks × per_rack` workers:
/// one shipped [`Leaf`] per rack under a plain reliable switch as the
/// spine, the same tree `switchml_transport::run_allreduce_hier` runs
/// on sockets.
pub fn run_switchml_hierarchy(sc: &HierScenario) -> Result<CollectiveOutcome> {
    run_hierarchy(sc, |leaf| leaf).map(|(out, _)| out)
}

/// The tree run with each rack's leaf as `wrap` makes it, plus the
/// leaves it ended with, in rack order.
fn run_hierarchy<L: Endpoint + 'static>(
    sc: &HierScenario,
    wrap: impl Fn(Leaf) -> L,
) -> Result<(CollectiveOutcome, Vec<L>)> {
    let mut topo = Topology::new();
    let (root, rack_ids, worker_ids) =
        topo.hierarchy(sc.racks, sc.per_rack, sc.worker_link, sc.uplink);
    let mut sim = Simulator::new(topo, sim_config(sc.seed, sc.deadline));

    let rack_proto = Protocol {
        n_workers: sc.per_rack,
        ..sc.proto.clone()
    };
    let root_proto = Protocol {
        n_workers: sc.racks,
        ..sc.proto.clone()
    };
    rack_proto.validate()?; // k > 0 before it divides
    let n_chunks = sc.elems.div_ceil(sc.proto.k) as u64;

    // An ASIC spine: line-rate processing, no host cost.
    sim.bind(root, Box::new(switch_node(&root_proto, rack_ids.clone())?));
    let mut all_workers = Vec::new();
    for (r, &rack) in rack_ids.iter().enumerate() {
        let leaf = wrap(Leaf::new(r, sc.racks, &rack_proto, n_chunks, 0)?);
        let (workers, first) = (
            worker_ids[r].clone(),
            hier_worker_endpoint(sc.racks, sc.per_rack, r, 0),
        );
        let route = move |_: &L, ep| match ep {
            SPINE_ENDPOINT => root,
            ep => workers[ep - first],
        };
        sim.bind(rack, Box::new(SimEndpoint::new(leaf, route)));
        for (local, &w) in worker_ids[r].iter().enumerate() {
            let global_rank = r * sc.per_rack + local;
            let data = synthetic_gradient(global_rank, sc.elems);
            let stream = TensorStream::from_f32(
                vec![data],
                rack_proto.mode,
                rack_proto.scaling_factor,
                rack_proto.k,
            )?;
            let worker = Worker::new(local as u16, &rack_proto, stream)?;
            sim.bind(
                w,
                Box::new(SwitchMLWorkerNode::new(
                    worker,
                    SlotRouter::Single(rack),
                    sc.worker_cost,
                )),
            );
            all_workers.push(w);
        }
    }

    let report = sim.run();

    let n_total = sc.racks * sc.per_rack;
    let mut verified = false;
    let mut total_retx = 0;
    for (i, &id) in all_workers.iter().enumerate() {
        let node = sim
            .node(id)
            .as_any()
            .downcast_ref::<SwitchMLWorkerNode>()
            .expect("worker node");
        total_retx += node.stats().retx;
        if i == 0 && report.finished {
            let got = node.worker().stream().result_tensors_f32(1)?;
            let want = expected_sum(n_total, sc.elems);
            let tol = (n_total as f64 / sc.proto.scaling_factor) as f32 + 1e-3;
            verified = close_enough(&got[0], &want, tol);
        }
    }
    let leaves = (rack_ids.iter())
        .map(|&id| {
            let node: Box<dyn Any> = sim.unbind(id);
            node.downcast::<SimEndpoint<L>>()
                .expect("leaf node")
                .into_endpoint()
        })
        .collect();
    let out = outcome_from(report, &all_workers, sc.elems, 0.0, 0, verified, total_retx)?;
    Ok((out, leaves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchml_core::config::TimeNs;
    use switchml_core::packet::PacketView;
    use switchml_transport::TxBatch;

    #[test]
    fn switchml_small_run_verifies() {
        let sc = SwitchMLScenario {
            proto: Protocol {
                pool_size: 8,
                ..SwitchMLScenario::new(4, 2048).proto
            },
            ..SwitchMLScenario::new(4, 2048)
        };
        let out = run_switchml(&sc).unwrap();
        assert!(out.verified);
        assert_eq!(out.total_retx, 0);
        assert!(out.max_tat > Nanos::ZERO);
        assert!(out.ate_per_sec > 0.0);
        assert_eq!(out.tat.len(), 4);
    }

    #[test]
    fn switchml_with_loss_still_verifies() {
        // Large enough that zero drops is astronomically unlikely for
        // any healthy RNG stream (~0.97^512), rather than depending on
        // one specific generator's sequence at a fixed seed.
        let mut sc = SwitchMLScenario::new(2, 4096);
        sc.proto.pool_size = 8;
        sc.link = sc.link.with_loss(0.03);
        let out = run_switchml(&sc).unwrap();
        assert!(out.verified);
        assert!(out.total_retx > 0, "3% loss must trigger retransmissions");
    }

    #[test]
    fn switchml_with_corruption_still_verifies() {
        let mut sc = SwitchMLScenario::new(2, 512);
        sc.proto.pool_size = 4;
        sc.link = sc.link.with_corruption(0.02);
        let out = run_switchml(&sc).unwrap();
        assert!(out.verified);
    }

    #[test]
    fn switchml_with_dup_and_reorder_still_verifies() {
        let mut sc = SwitchMLScenario::new(2, 2048);
        sc.proto.pool_size = 8;
        sc.link = sc
            .link
            .with_duplication(0.05)
            .with_reordering(0.05, Nanos::from_micros(5));
        let out = run_switchml(&sc).unwrap();
        assert!(out.verified);
        assert!(
            out.report.counters.duplicated + out.report.counters.reordered > 0,
            "5% dup + 5% reorder over hundreds of packets must fire"
        );
    }

    #[test]
    fn straggler_slows_the_job_but_converges() {
        let mut fast = SwitchMLScenario::new(2, 4096);
        fast.proto.pool_size = 8;
        let mut slow = fast.clone();
        slow.stragglers = vec![(1, Nanos::from_micros(200))];
        let a = run_switchml(&fast).unwrap();
        let b = run_switchml(&slow).unwrap();
        assert!(a.verified && b.verified);
        assert!(
            b.max_tat > a.max_tat,
            "straggling worker 1 must stretch job TAT ({} vs {})",
            b.max_tat,
            a.max_tat
        );
        assert!(b.report.counters.straggled > 0);
    }

    #[test]
    fn ring_small_run_verifies() {
        let mut sc = RingScenario::gloo(4, 1000);
        sc.host_cost = Nanos(100);
        let out = run_ring(&sc).unwrap();
        assert!(out.verified);
    }

    #[test]
    fn ring_with_loss_recovers() {
        let mut sc = RingScenario::gloo(3, 20_000);
        sc.host_cost = Nanos(100);
        sc.stall_rto = Nanos::from_millis(5); // keep the test fast
        sc.link = sc.link.with_loss(0.05);
        let out = run_ring(&sc).unwrap();
        assert!(out.verified);
        assert!(out.total_retx > 0);
    }

    #[test]
    fn hd_small_run_verifies() {
        let mut sc = HdScenario::new(4, 1000);
        sc.host_cost = Nanos(100);
        let out = run_hd(&sc).unwrap();
        assert!(out.verified);
        assert!(run_hd(&HdScenario::new(3, 100)).is_err()); // non-pow2
    }

    #[test]
    fn dedicated_ps_verifies() {
        let mut base = SwitchMLScenario::new(3, 1024);
        base.proto.pool_size = 12;
        let out = run_ps(&PsScenario::new(base, PsPlacement::Dedicated)).unwrap();
        assert!(out.verified);
    }

    #[test]
    fn colocated_ps_verifies_and_is_slower() {
        // Slow link so bandwidth (not host CPU) is the bottleneck —
        // that is where colocation's link sharing bites.
        let mut base = SwitchMLScenario::new(4, 8192);
        base.proto.pool_size = 16;
        base.link = LinkSpec::clean(1_000_000_000, Nanos::from_micros(1));
        let ded = run_ps(&PsScenario::new(base.clone(), PsPlacement::Dedicated)).unwrap();
        let col = run_ps(&PsScenario::new(base, PsPlacement::Colocated)).unwrap();
        assert!(ded.verified && col.verified);
        assert!(
            col.max_tat > ded.max_tat,
            "colocated {} should exceed dedicated {}",
            col.max_tat,
            ded.max_tat
        );
    }

    #[test]
    fn hierarchy_verifies() {
        let mut sc = HierScenario::new(2, 2, 1024);
        sc.proto.pool_size = 8;
        let out = run_switchml_hierarchy(&sc).unwrap();
        assert!(out.verified);
        assert_eq!(out.tat.len(), 4);
    }

    #[test]
    fn hierarchy_with_loss_recovers() {
        let mut sc = HierScenario::new(2, 2, 512);
        sc.proto.pool_size = 4;
        sc.worker_link = sc.worker_link.with_loss(0.01);
        sc.uplink = sc.uplink.with_loss(0.01);
        let out = run_switchml_hierarchy(&sc).unwrap();
        assert!(out.verified);
    }

    /// Loss on the leaf↔spine links only: each leaf's own up-hop RTO
    /// domain (the shipped leaf's `SlotEngine`) retransmits, and the
    /// tree still aggregates exactly.
    #[test]
    fn hierarchy_uplink_loss_retransmits_on_the_up_hop() {
        let mut sc = HierScenario::new(2, 2, 4096);
        sc.proto.pool_size = 8;
        sc.uplink = sc.uplink.with_loss(0.05);
        let (out, leaves) = run_hierarchy(&sc, |leaf| leaf).unwrap();
        assert!(out.verified);
        assert!(
            out.report.counters.dropped_loss > 0,
            "5% uplink loss must drop"
        );
        let up: Vec<_> = leaves.iter().map(Leaf::up_stats).collect();
        assert_eq!(up.len(), 2);
        assert!(up.iter().all(|s| s.retx > 0), "up-hop retx: {up:?}");
    }

    /// A leaf that counts the retransmission-flagged frames it stages
    /// for the spine: its up hop's resends as the spine sees them.
    struct CountingLeaf {
        leaf: Leaf,
        up_resends: u64,
    }

    impl CountingLeaf {
        fn count(&mut self, txb: &TxBatch, staged: usize) {
            let up = txb.dests().iter().zip(txb.frames()).skip(staged);
            let resend = |f: &Vec<u8>| PacketView::parse(f).is_ok_and(|v| v.retransmission());
            self.up_resends += up
                .filter(|&(&d, f)| d == SPINE_ENDPOINT && resend(f))
                .count() as u64;
        }
    }

    impl Endpoint for CountingLeaf {
        fn on_frame(
            &mut self,
            _: usize,
            frame: &[u8],
            now: TimeNs,
            txb: &mut TxBatch,
        ) -> Result<bool> {
            let staged = txb.len();
            let moved = self.leaf.on_frame(frame, now, txb);
            self.count(txb, staged);
            Ok(moved)
        }
        fn on_timer(&mut self, now: TimeNs, txb: &mut TxBatch) -> Result<()> {
            let staged = txb.len();
            self.leaf.on_timer(now, txb);
            self.count(txb, staged);
            Ok(())
        }
        fn next_deadline(&self) -> Option<TimeNs> {
            self.leaf.next_deadline()
        }
        fn frame_capacity(&self) -> usize {
            Endpoint::frame_capacity(&self.leaf)
        }
    }

    /// Loss on both hops: every up-hop resend a leaf counts is one it
    /// put on the wire, and every one it put on the wire is counted —
    /// timer retransmissions of completed rack partials and the
    /// re-forwards workers' duplicates prompt, not the expired slots
    /// whose rack had not completed.
    #[test]
    fn hierarchy_counts_the_up_hop_resends_it_sends() {
        let mut sc = HierScenario::new(2, 4, 20_000);
        sc.proto.pool_size = 8;
        sc.worker_link = sc.worker_link.with_loss(0.01);
        sc.uplink = sc.uplink.with_loss(0.01);
        let counting = |leaf| CountingLeaf {
            leaf,
            up_resends: 0,
        };
        let (out, leaves) = run_hierarchy(&sc, counting).unwrap();
        assert!(out.verified);
        for (r, counted) in leaves.iter().enumerate() {
            let (stats, on_wire) = (counted.leaf.up_stats(), counted.up_resends);
            assert!(on_wire > 0, "rack {r} resent nothing");
            assert_eq!(stats.retx, on_wire, "rack {r}");
        }
    }

    #[test]
    fn deterministic_same_seed() {
        let mut sc = SwitchMLScenario::new(2, 512);
        sc.proto.pool_size = 4;
        sc.link = sc.link.with_loss(0.05);
        let a = run_switchml(&sc).unwrap();
        let b = run_switchml(&sc).unwrap();
        assert_eq!(a.max_tat, b.max_tat);
        assert_eq!(a.total_retx, b.total_retx);
    }
}
