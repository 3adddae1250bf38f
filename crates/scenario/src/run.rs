//! Scenario execution: compile one declarative [`Scenario`] onto a
//! concrete transport × runner pair, run it, observe what happened, and
//! evaluate every expectation oracle.
//!
//! A real-transport run has three parts, one of each:
//!
//! * **the fabric builder** (`endpoint_faults` + `on_fabric`): the
//!   fault plan becomes one `EndpointFaults` per fabric endpoint, in
//!   the runner's endpoint layout, stacked as
//!   `FaultyPort<ScriptedPort<_>>`; a plan that shapes nothing runs on
//!   the bare fabric;
//! * **the launch** (`Launch::run`): the one place a runner is called,
//!   generic over whatever ports the builder produced;
//! * **the evaluator** (`evaluate`): one [`Observed`] record per run,
//!   whatever the runner family — netsim runs included — held to the
//!   paper's bar (a reference mismatch or disagreeing survivors is a
//!   violation whatever the scenario expects) and then to each stated
//!   oracle.

use std::sync::Arc;
use std::time::Duration;

use switchml_baselines::run::{
    run_switchml, run_switchml_hierarchy, CollectiveOutcome, HierScenario, SwitchMLScenario,
};
use switchml_core::agg;
use switchml_core::config::{Protocol, RtoPolicy};
use switchml_ctrl::netsim::{run_ctrl, scenario_tensor, CtrlOutcome, CtrlScenario};
use switchml_ctrl::runner::{run_controlled, CtrlRunConfig, CtrlRunReport};
use switchml_ctrl::sched::{
    run_scheduled, Class, JobOutcome, SchedJob, SchedRunConfig, SchedRunReport, TenantSpec,
};
use switchml_netsim::prelude::Nanos;
use switchml_transport::channel::channel_fabric;
use switchml_transport::faulty::{FaultyConfig, FaultyPort, FaultyStats, KillAt, ScriptedPort};
use switchml_transport::hier::{hier_fabric_size, run_allreduce_hier, HierConfig};
use switchml_transport::runner::RunReport;
use switchml_transport::shard::{sharded_fabric_size, worker_core_endpoint};
use switchml_transport::udp::udp_fabric;
use switchml_transport::{run_allreduce, run_allreduce_reactor, Port, RunConfig};

use crate::spec::{Expect, KillWhen, RunnerKind, Scenario, Transport};

/// Per-worker gradient magnitude: scenario tensors live in
/// `(-TENSOR_BOUND, TENSOR_BOUND)`, comfortably inside every runner's
/// Theorem-2 bound (16.0) and the Fixed32 range at f = 10⁴.
const TENSOR_BOUND: f64 = 8.0;

/// Bound on netsim's random reordering delay. A few packet times at
/// the default 10 Gbps link — late enough to invert adjacent arrivals,
/// early enough that the RTO (milliseconds) does not fire spuriously.
const REORDER_SPREAD: Nanos = Nanos(5_000);

/// The raw report the underlying runner produced, kept so callers
/// (CLI formatting, tests) can drill into runner-specific counters.
pub enum Detail {
    /// Plain/sharded/reactor/hierarchy data-plane run that completed.
    Run(RunReport),
    /// Controller-managed run on a real transport.
    Ctrl(CtrlRunReport),
    /// Multi-tenant scheduled churn on a real transport.
    Sched(SchedRunReport),
    /// Netsim collective (plain or hierarchical).
    NetsimCollective(CollectiveOutcome),
    /// Netsim control-plane scenario.
    NetsimCtrl(CtrlOutcome),
    /// The run produced no report (clean degradation or setup error).
    None,
}

impl std::fmt::Debug for Detail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Detail::Run(_) => "Run",
            Detail::Ctrl(_) => "Ctrl",
            Detail::Sched(_) => "Sched",
            Detail::NetsimCollective(_) => "NetsimCollective",
            Detail::NetsimCtrl(_) => "NetsimCtrl",
            Detail::None => "None",
        })
    }
}

/// What one run revealed, in the evaluator's vocabulary — the same
/// record for every runner family. A `None` field is a quantity the
/// family cannot measure (or, with `error` set, that the run ended
/// before measuring).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observed {
    /// The run finished: every worker, survivor or admitted job done.
    pub completed: bool,
    /// The runner's error when it did not.
    pub error: Option<String>,
    /// Every final tensor equals the sequential reference bit for bit
    /// (netsim collective: its exact-sum verification; netsim ctrl:
    /// every worker of a full-membership run agrees).
    pub reference_match: Option<bool>,
    /// Every surviving worker of every finished job holds the same
    /// bits, and at least one survived.
    pub survivors_agree: Option<bool>,
    /// Highest final epoch (rack epoch on the tree).
    pub max_epoch: Option<u32>,
    pub faults: Option<u64>,
    pub retransmissions: Option<u64>,
    /// Wall clock (real transports) or simulated completion time.
    pub wall: Duration,
    pub resizes: Option<u64>,
    /// Injected faults absorbed by tenants the storm did not target.
    pub quiet_tenant_faults: Option<u64>,
    /// p99 admission-to-first-aggregate; `Duration::MAX` when no job
    /// ever saw an aggregate.
    pub p99_first_aggregate: Option<Duration>,
}

impl std::fmt::Display for Observed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pick = |b: bool, yes: &str, no: &str| if b { yes } else { no }.to_string();
        let mut parts = vec![pick(self.completed, "completed", "did not complete")];
        if let Some(m) = self.reference_match {
            parts.push(pick(m, "reference match", "REFERENCE MISMATCH"));
        }
        if let Some(a) = self.survivors_agree {
            parts.push(pick(a, "survivors agree", "SURVIVORS DISAGREE"));
        }
        let counts = [
            (self.max_epoch.map(u64::from), "max epoch"),
            (self.faults, "injected faults"),
            (self.retransmissions, "retransmissions"),
            (self.resizes, "resizes"),
            (self.quiet_tenant_faults, "quiet-tenant faults"),
        ];
        for (n, what) in counts {
            if let Some(n) = n {
                parts.push(format!("{what} {n}"));
            }
        }
        if let Some(p) = self.p99_first_aggregate.filter(|p| *p != Duration::MAX) {
            parts.push(format!(
                "p99 first aggregate {:.2} ms",
                p.as_secs_f64() * 1e3
            ));
        }
        parts.push(format!("{:.2} ms", self.wall.as_secs_f64() * 1e3));
        f.write_str(&parts.join(", "))
    }
}

/// What one scenario run produced, with every oracle evaluated.
#[derive(Debug)]
pub struct ScenarioReport {
    pub scenario: String,
    pub transport: Transport,
    pub observed: Observed,
    /// Every violated (or unevaluable) expectation, human-readable.
    /// Empty = the scenario passed.
    pub violations: Vec<String>,
    /// Order-independent digest of the observable outcome (results,
    /// survivor sets, epochs). Two runs of the same scenario on the
    /// same deterministic transport fingerprint identically; the
    /// proptest round-trip suite leans on this.
    pub fingerprint: u64,
    pub detail: Detail,
}

impl ScenarioReport {
    /// Every stated expectation held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line outcome for catalogs and CLI output.
    pub fn summary(&self) -> String {
        format!(
            "{} [{}]: {}{} ({} ms, fp {:#018x})",
            self.scenario,
            self.transport.name(),
            if self.passed() { "PASS" } else { "FAIL" },
            if self.violations.is_empty() {
                String::new()
            } else {
                format!(" — {}", self.violations.join("; "))
            },
            self.observed.wall.as_millis(),
            self.fingerprint,
        )
    }
}

// ------------------------------------------------------------ fingerprint

/// FNV-1a, the workspace's convention for cheap stable digests.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn bool(&mut self, v: bool) {
        self.byte(v as u8);
    }

    fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.u64(x.to_bits() as u64);
        }
    }

    fn tensors(&mut self, ts: &[Vec<f32>]) {
        self.u64(ts.len() as u64);
        for t in ts {
            self.f32s(t);
        }
    }
}

fn fingerprint(completed: bool, detail: &Detail) -> u64 {
    let mut h = Fnv::new();
    h.bool(completed);
    match detail {
        Detail::Run(r) => {
            for tensors in &r.results {
                h.tensors(tensors);
            }
        }
        Detail::Ctrl(r) => {
            h.u64(r.final_n as u64);
            h.u64(r.final_epoch as u64);
            for res in &r.results {
                match res {
                    Some(tensors) => {
                        h.bool(true);
                        h.tensors(tensors);
                    }
                    None => h.bool(false),
                }
            }
        }
        Detail::Sched(r) => {
            for o in &r.outcomes {
                h.bool(o.admitted);
                h.bool(o.completed_at.is_some());
                h.bool(o.results_identical);
                h.u64(o.final_epoch as u64);
            }
        }
        Detail::NetsimCollective(o) => {
            h.bool(o.verified);
            h.u64(o.max_tat.0);
            h.u64(o.total_retx);
            for t in &o.worker0_results {
                h.f32s(t);
            }
        }
        Detail::NetsimCtrl(o) => {
            for (j, per_worker) in o.results.iter().enumerate() {
                h.u64(o.final_n[j] as u64);
                h.u64(o.final_epoch[j] as u64);
                for res in per_worker {
                    match res {
                        Some(tensors) => {
                            h.bool(true);
                            h.tensors(tensors);
                        }
                        None => h.bool(false),
                    }
                }
            }
        }
        Detail::None => h.bool(false),
    }
    h.0
}

// ------------------------------------------------------------- execution

/// Run `sc` on transport `t` and evaluate its oracles.
///
/// `Err` means the scenario could not be *attempted* (unsupported
/// transport/runner combination, or the environment refused — e.g. no
/// UDP sockets). Everything the run itself reveals — including clean
/// degradation and violated expectations — lands in the returned
/// [`ScenarioReport`].
pub fn run_scenario(sc: &Scenario, t: Transport) -> Result<ScenarioReport, String> {
    sc.validate()?;
    if !sc.supports(t) {
        return Err(format!(
            "scenario '{}' does not support transport '{}' (supported: {})",
            sc.name,
            t.name(),
            sc.supported_transports()
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let (detail, observed) = match (t, sc.runner) {
        (Transport::Netsim, RunnerKind::Ctrl) => netsim_ctrl(sc),
        (Transport::Netsim, _) => netsim_collective(sc),
        _ => transport_run(sc, t)?,
    };
    Ok(ScenarioReport {
        scenario: sc.name.clone(),
        transport: t,
        violations: evaluate(sc, family(sc, t), &observed),
        fingerprint: fingerprint(observed.completed, &detail),
        observed,
        detail,
    })
}

/// The runner family's name, for "not measurable" violations.
fn family(sc: &Scenario, t: Transport) -> &'static str {
    match (t, sc.runner) {
        (Transport::Netsim, RunnerKind::Ctrl) => "netsim ctrl",
        (Transport::Netsim, _) => "netsim collective",
        (_, RunnerKind::Ctrl) => "ctrl",
        (_, RunnerKind::Sched) => "sched",
        _ if sc.topology.racks > 1 => "hierarchy",
        _ => "plain/sharded/reactor",
    }
}

fn base_proto(sc: &Scenario) -> Protocol {
    let rto_ns = sc.rto_us * 1_000;
    Protocol {
        n_workers: sc.total_workers(),
        k: sc.topology.k,
        pool_size: sc.topology.pool_size,
        rto_ns,
        rto_policy: rto_policy_of(sc, rto_ns),
        scaling_factor: 10_000.0,
        ..Protocol::default()
    }
}

/// The concrete timer policy for a scenario's base RTO.
fn rto_policy_of(sc: &Scenario, rto_ns: u64) -> RtoPolicy {
    match sc.rto_mode {
        crate::spec::RtoMode::Adaptive => RtoPolicy::Adaptive {
            min_ns: (rto_ns / 4).max(1),
            max_ns: rto_ns * 32,
        },
        crate::spec::RtoMode::Backoff => RtoPolicy::ExponentialBackoff {
            max_ns: rto_ns * 32,
        },
        crate::spec::RtoMode::Fixed => RtoPolicy::Fixed,
    }
}

/// Per-worker tensor sets for a single-job run: one deterministic
/// tensor per worker, distinct per (worker, element).
fn single_job_updates(sc: &Scenario) -> Vec<Vec<Vec<f32>>> {
    let elems = sc.jobs[0].elems;
    (0..sc.total_workers())
        .map(|w| vec![scenario_tensor(w, elems, TENSOR_BOUND)])
        .collect()
}

/// The sched runner's population: each job's workers get their own
/// deterministic tensors (global slot `j × workers + w`).
fn sched_jobs(sc: &Scenario) -> Vec<SchedJob> {
    let workers = sc.topology.workers;
    sc.jobs
        .iter()
        .enumerate()
        .map(|(j, spec)| SchedJob {
            tenant: TenantSpec {
                job: j as u8,
                class: match spec.class {
                    crate::spec::JobClass::High => Class::High,
                    crate::spec::JobClass::BestEffort => Class::BestEffort,
                },
                weight: spec.weight.max(1),
                quota: spec.quota,
                min_slots: spec.min_slots.max(1),
            },
            updates: (0..workers)
                .map(|w| vec![scenario_tensor(j * workers + w, spec.elems, TENSOR_BOUND)])
                .collect(),
            submit_at: Duration::from_millis(spec.arrival_ms),
        })
        .collect()
}

// ------------------------------------------------------- the one fabric

/// Switch shards, and engines per worker, of a flat data-plane run: the
/// plain runner is the sharded layout with one core (both are
/// `run_allreduce` on threads).
fn flat_cores(sc: &Scenario) -> usize {
    if sc.runner == RunnerKind::Plain {
        1
    } else {
        sc.topology.cores
    }
}

/// One endpoint's share of a fault plan: the probabilistic layer plus
/// the scripted stall and death.
#[derive(Debug, Clone, Copy, Default)]
struct EndpointFaults {
    fault: FaultyConfig,
    stall: Duration,
    death: Option<KillAt>,
}

impl EndpointFaults {
    fn shapes_nothing(&self) -> bool {
        let f = &self.fault;
        [f.send_drop, f.recv_drop, f.dup, f.reorder] == [0.0; 4]
            && self.stall.is_zero()
            && self.death.is_none()
    }
}

/// The fault plan of a real-transport run, one entry per endpoint of
/// the runner's fabric layout. Probabilistic faults hit the switch side
/// — shards, or spine and leaves — in both directions, which puts them
/// on every hop while worker↔controller traffic stays a reliable RPC;
/// data-plane workers drop and duplicate too, but never reorder their
/// updates (§3.5: a held update outliving its phase is outside the
/// protocol's contract). A sched storm hits its target tenant's
/// workers, send side only. Stragglers and kills hit **every** endpoint
/// of the named worker: a multi-core worker is all of its cores. The
/// ctrl runner scripts its kill itself, so the controller observes it.
fn endpoint_faults(sc: &Scenario) -> Vec<EndpointFaults> {
    let (topo, f) = (&sc.topology, &sc.faults);
    let clean = EndpointFaults::default();
    let switch_side = EndpointFaults {
        fault: if f.batch_loss {
            FaultyConfig::loss_only(f.loss)
        } else {
            FaultyConfig {
                send_drop: f.loss,
                recv_drop: f.loss,
                dup: f.dup,
                reorder: f.reorder,
                ..FaultyConfig::default()
            }
        },
        ..clean
    };
    match sc.runner {
        RunnerKind::Sched => {
            // Layout: 0 = switch, each job's workers in submission
            // order, last = controller.
            let w = topo.workers;
            let mut eps = vec![clean; 2 + w * sc.jobs.len()];
            let targets = match f.target_job {
                Some(j) => 1 + j as usize * w..1 + (j as usize + 1) * w,
                None => 1..eps.len() - 1,
            };
            eps[targets].fill(EndpointFaults {
                fault: FaultyConfig::loss_only(f.loss),
                ..clean
            });
            eps
        }
        RunnerKind::Ctrl => {
            // Layout: 0 = switch, 1 + w = worker w, last = controller.
            let mut eps = vec![clean; topo.workers + 2];
            eps[0] = switch_side;
            for &(w, us) in &f.stragglers {
                eps[1 + w].stall = Duration::from_micros(us);
            }
            eps
        }
        _ if topo.racks > 1 => {
            // Layout: spine, leaves, workers; no stragglers or kills
            // (`supports`) — the rack kill is the leaf runner's own.
            let mut eps = vec![clean; hier_fabric_size(topo.racks, topo.workers)];
            eps[..1 + topo.racks].fill(switch_side);
            eps
        }
        _ => {
            let cores = flat_cores(sc);
            let worker_side = EndpointFaults {
                fault: FaultyConfig {
                    reorder: 0.0,
                    ..switch_side.fault
                },
                ..clean
            };
            let mut eps = vec![worker_side; sharded_fabric_size(topo.workers, cores)];
            eps[..cores].fill(switch_side);
            let cores_of = |w| (0..cores).map(move |c| worker_core_endpoint(w, c, cores));
            for &(w, us) in &f.stragglers {
                for ep in cores_of(w) {
                    eps[ep].stall = Duration::from_micros(us);
                }
            }
            for &(w, when) in &f.kills {
                for ep in cores_of(w) {
                    eps[ep].death = Some(match when {
                        KillWhen::ElapsedUs(us) => KillAt::Elapsed(Duration::from_micros(us)),
                        KillWhen::AfterSends(n) => KillAt::AfterSends(n),
                    });
                }
            }
            eps
        }
    }
}

/// Run `launch` on `base` shaped by `faults`, endpoint `i` seeded
/// `seed + i` so the whole schedule replays exactly. A plan that
/// shapes nothing runs on the bare fabric and pays for no wrapper.
fn on_fabric<P: Port + 'static>(
    base: Vec<P>,
    faults: &[EndpointFaults],
    seed: u64,
    launch: Launch,
) -> switchml_core::error::Result<Detail> {
    debug_assert_eq!(base.len(), faults.len());
    if faults.iter().all(EndpointFaults::shapes_nothing) {
        return launch.run(base);
    }
    let stats = Arc::new(FaultyStats::default());
    let ports = base
        .into_iter()
        .zip(faults)
        .enumerate()
        .map(|(i, (port, ep))| {
            FaultyPort::new(
                ScriptedPort::new(port, ep.stall, ep.death),
                ep.fault,
                seed.wrapping_add(i as u64),
                Arc::clone(&stats),
            )
        })
        .collect();
    launch.run(ports)
}

/// One runner call, closed over everything but its ports.
enum Launch {
    Flat {
        runner: RunnerKind,
        updates: Vec<Vec<Vec<f32>>>,
        proto: Protocol,
        cfg: RunConfig,
    },
    Hier {
        updates: Vec<Vec<Vec<f32>>>,
        proto: Protocol,
        cfg: RunConfig,
        hier: HierConfig,
    },
    Ctrl {
        updates: Vec<Vec<Vec<f32>>>,
        proto: Protocol,
        cfg: CtrlRunConfig,
    },
    Sched {
        jobs: Vec<SchedJob>,
        proto: Protocol,
        cfg: SchedRunConfig,
    },
}

impl Launch {
    fn run<P: Port + 'static>(self, ports: Vec<P>) -> switchml_core::error::Result<Detail> {
        Ok(match self {
            Launch::Flat {
                runner,
                updates,
                proto,
                cfg,
            } => Detail::Run(match runner {
                RunnerKind::Plain | RunnerKind::Sharded => {
                    run_allreduce(ports, updates, &proto, &cfg)
                }
                RunnerKind::Reactor { threads } => {
                    run_allreduce_reactor(ports, updates, &proto, &cfg, threads)
                }
                RunnerKind::Ctrl | RunnerKind::Sched => unreachable!("not a flat runner"),
            }?),
            Launch::Hier {
                updates,
                proto,
                cfg,
                hier,
            } => Detail::Run(run_allreduce_hier(ports, updates, &proto, &cfg, &hier)?),
            Launch::Ctrl {
                updates,
                proto,
                cfg,
            } => Detail::Ctrl(run_controlled(ports, updates, &proto, &cfg)?),
            Launch::Sched { jobs, proto, cfg } => {
                Detail::Sched(run_scheduled(ports, jobs, &proto, &cfg)?)
            }
        })
    }
}

fn transport_run(sc: &Scenario, t: Transport) -> Result<(Detail, Observed), String> {
    let (topo, f) = (&sc.topology, &sc.faults);
    let proto = base_proto(sc);
    let mut reference = None;
    let launch = match sc.runner {
        RunnerKind::Sched => Launch::Sched {
            jobs: sched_jobs(sc),
            proto,
            cfg: SchedRunConfig {
                max_wall: sc.max_wall(),
                n_cores: topo.cores,
                capacity: topo.capacity,
                ..SchedRunConfig::default()
            },
        },
        runner => {
            let updates = single_job_updates(sc);
            reference = Some(
                agg::allreduce(&updates, &proto)
                    .map_err(|e| format!("reference all-reduce: {e}"))?,
            );
            let cfg = RunConfig {
                n_cores: flat_cores(sc),
                max_wall: sc.max_wall(),
                burst: sc.burst,
            };
            match runner {
                RunnerKind::Ctrl => Launch::Ctrl {
                    updates,
                    proto,
                    cfg: CtrlRunConfig {
                        max_wall: sc.max_wall(),
                        n_cores: topo.cores,
                        kill: f.kills.first().map(|&(w, when)| match when {
                            KillWhen::ElapsedUs(us) => (w as u16, Duration::from_micros(us)),
                            KillWhen::AfterSends(_) => {
                                unreachable!("validated: ctrl kills are ElapsedUs")
                            }
                        }),
                        switch_restart: f.switch_restart_ms.map(Duration::from_millis),
                        ..CtrlRunConfig::default()
                    },
                },
                RunnerKind::Reactor { threads } if topo.racks > 1 => Launch::Hier {
                    updates,
                    proto,
                    cfg,
                    hier: HierConfig {
                        n_threads: threads,
                        kill_leaf: f
                            .kill_rack
                            .map(|(rack, us)| (rack, Duration::from_micros(us))),
                        ..HierConfig::new(topo.racks, topo.workers)
                    },
                },
                _ => Launch::Flat {
                    runner,
                    updates,
                    proto,
                    cfg,
                },
            }
        }
    };
    let faults = endpoint_faults(sc);
    let size = faults.len();
    let result = match t {
        Transport::Channel => on_fabric(channel_fabric(size), &faults, f.seed, launch),
        Transport::Udp => {
            let base = udp_fabric(size).map_err(|e| format!("udp fabric: {e}"))?;
            on_fabric(base, &faults, f.seed, launch)
        }
        Transport::Netsim => unreachable!("netsim runs in-process"),
    };
    let (detail, error) = match result {
        Ok(d) => (d, None),
        Err(e) => (Detail::None, Some(e.to_string())),
    };
    let observed = observe(sc, &detail, error, reference.as_deref());
    Ok((detail, observed))
}

// ---------------------------------------------------------------- netsim

fn netsim_collective(sc: &Scenario) -> (Detail, Observed) {
    let topo = &sc.topology;
    let elems = sc.jobs[0].elems;
    let rto_ns = sc.rto_us * 1_000;
    let rto_policy = rto_policy_of(sc, rto_ns);
    let deadline = Some(Nanos::from_millis(sc.max_wall_ms));

    let f = &sc.faults;
    let result = if topo.racks > 1 {
        let mut h = HierScenario::new(topo.racks, topo.workers, elems);
        h.proto.k = topo.k;
        h.proto.pool_size = topo.pool_size;
        h.proto.rto_ns = rto_ns;
        h.proto.rto_policy = rto_policy;
        h.worker_link = h.worker_link.with_loss(f.loss);
        h.seed = f.seed;
        h.deadline = deadline;
        run_switchml_hierarchy(&h)
    } else {
        let mut s = SwitchMLScenario::new(topo.workers, elems);
        s.proto.k = topo.k;
        s.proto.pool_size = topo.pool_size;
        s.proto.rto_ns = rto_ns;
        s.proto.rto_policy = rto_policy;
        s.link = s
            .link
            .with_loss(f.loss)
            .with_duplication(f.dup)
            .with_reordering(f.reorder, REORDER_SPREAD);
        s.stragglers = f
            .stragglers
            .iter()
            .map(|&(w, us)| (w, Nanos::from_micros(us)))
            .collect();
        s.n_cores = topo.cores;
        s.seed = f.seed;
        s.deadline = deadline;
        run_switchml(&s)
    };
    let (detail, error) = match result {
        Ok(o) => (Detail::NetsimCollective(o), None),
        Err(e) => (Detail::None, Some(e.to_string())),
    };
    let observed = observe(sc, &detail, error, None);
    (detail, observed)
}

fn netsim_ctrl(sc: &Scenario) -> (Detail, Observed) {
    let topo = &sc.topology;
    let f = &sc.faults;
    let cs = CtrlScenario {
        n_workers: topo.workers,
        n_jobs: sc.jobs.len(),
        n_switches: if f.failover_us.is_some() { 2 } else { 1 },
        elems: sc.jobs[0].elems,
        k: topo.k,
        pool_size: topo.pool_size,
        n_cores: topo.cores,
        loss: f.loss,
        seed: f.seed,
        rto_us: sc.rto_us,
        fail_worker: f.kills.first().map(|&(w, when)| match when {
            KillWhen::ElapsedUs(us) => (w, us),
            KillWhen::AfterSends(_) => unreachable!("validated: ctrl kills are ElapsedUs"),
        }),
        fail_over: f.failover_us.map(|us| (us, 0, 1)),
        deadline_ms: sc.max_wall_ms,
        ..CtrlScenario::default()
    };
    let o = run_ctrl(&cs);
    let error = (!o.finished).then(|| "simulation did not converge within the deadline".into());
    let detail = Detail::NetsimCtrl(o);
    let observed = observe(sc, &detail, error, None);
    (detail, observed)
}

// ------------------------------------------------------ the one evaluator

/// Bit-for-bit equality of two tensor sets (`==` would equate 0.0 and
/// -0.0).
fn same_bits(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// At least one survivor, and all of them hold the same bits.
fn agree(survivors: &[&Vec<Vec<f32>>]) -> bool {
    survivors
        .first()
        .is_some_and(|first| survivors.iter().all(|s| same_bits(s, first)))
}

/// Read the [`Observed`] record off whatever the runner produced.
/// `reference` is the sequential all-reduce of the run's inputs (real
/// transports, single-job families).
fn observe(
    sc: &Scenario,
    detail: &Detail,
    error: Option<String>,
    reference: Option<&[Vec<f32>]>,
) -> Observed {
    let base = Observed {
        error,
        ..Observed::default()
    };
    let n = sc.topology.workers;
    match detail {
        Detail::Run(r) => {
            let hier = r.hier.as_ref();
            Observed {
                completed: true,
                reference_match: reference
                    .map(|want| r.results.iter().all(|got| same_bits(got, want))),
                max_epoch: hier.map(|h| h.rack_epochs.iter().map(|&e| e as u32).max().unwrap_or(0)),
                faults: Some(r.transport_stats.injected_faults()),
                // Worker-hop retransmissions plus, on the tree, the
                // leaf→spine hop's own.
                retransmissions: Some(
                    r.worker_stats
                        .iter()
                        .chain(hier.into_iter().flat_map(|h| &h.leaf_up_stats))
                        .map(|s| s.retx)
                        .sum(),
                ),
                wall: r.wall,
                ..base
            }
        }
        Detail::Ctrl(r) => {
            let survivors: Vec<&Vec<Vec<f32>>> = r.results.iter().flatten().collect();
            // With no shrink the survivors must equal the reference too.
            let full = r.final_n == n && !survivors.is_empty();
            Observed {
                completed: true,
                reference_match: reference
                    .filter(|_| full)
                    .map(|want| survivors.iter().all(|got| same_bits(got, want))),
                survivors_agree: Some(agree(&survivors)),
                max_epoch: Some(r.final_epoch),
                faults: Some(r.transport_stats.injected_faults()),
                retransmissions: Some(r.worker_stats.iter().map(|s| s.retx).sum()),
                wall: r.wall,
                ..base
            }
        }
        Detail::Sched(r) => {
            let sum = |x: fn(&JobOutcome) -> u64| -> u64 { r.outcomes.iter().map(x).sum() };
            Observed {
                completed: r.all_complete(),
                survivors_agree: Some(
                    r.outcomes
                        .iter()
                        .filter(|o| o.completed_at.is_some())
                        .all(|o| o.results_identical),
                ),
                max_epoch: Some(r.outcomes.iter().map(|o| o.final_epoch).max().unwrap_or(0)),
                // Every port, worker endpoints included; the rows'
                // `injected_faults` attribute the same faults per job.
                faults: Some(r.transport_stats.injected_faults()),
                retransmissions: Some(sum(|o| o.worker_stats.retx)),
                resizes: Some(sum(|o| o.resizes as u64)),
                quiet_tenant_faults: Some(
                    r.outcomes
                        .iter()
                        .filter(|o| Some(o.job) != sc.faults.target_job)
                        .map(|o| o.injected_faults)
                        .sum(),
                ),
                p99_first_aggregate: Some(r.p99(|o| o.first_aggregate).unwrap_or(Duration::MAX)),
                wall: r.wall,
                ..base
            }
        }
        Detail::NetsimCollective(o) => Observed {
            completed: true,
            reference_match: Some(o.verified),
            faults: Some(o.report.counters.injected_faults()),
            retransmissions: Some(o.total_retx),
            wall: Duration::from_nanos(o.max_tat.0),
            ..base
        },
        Detail::NetsimCtrl(o) => {
            let agreed = o.results.iter().all(|job| {
                let survivors: Vec<&Vec<Vec<f32>>> = job.iter().flatten().collect();
                agree(&survivors)
            });
            Observed {
                completed: o.finished,
                // The simulator keeps no sequential reference: with full
                // membership, agreement of every worker stands in for it.
                reference_match: o.final_n.iter().all(|&fin| fin == n).then_some(agreed),
                survivors_agree: Some(agreed),
                max_epoch: o.final_epoch.iter().copied().max(),
                faults: Some(o.report.counters.dropped_loss),
                wall: Duration::from_nanos(o.report.end_time.0),
                ..base
            }
        }
        Detail::None => base,
    }
}

/// Hold one run to the paper's bar and then to the scenario's oracles.
/// Silent corruption — a reference mismatch or disagreeing survivors —
/// is a violation whatever `sc.expect` says; an oracle the run cannot
/// measure is one too, never a silent pass.
fn evaluate(sc: &Scenario, family: &str, o: &Observed) -> Vec<String> {
    let mut violations = Vec::new();
    if o.reference_match == Some(false) {
        violations.push("results differ from the sequential reference — silent corruption".into());
    }
    if o.survivors_agree == Some(false) {
        violations.push("surviving workers disagree or none finished — silent corruption".into());
    }
    let within = |d: Duration, ms: u64| d.as_millis() <= ms as u128;
    for e in &sc.expect {
        let held = match *e {
            Expect::Completes => Some(o.completed),
            Expect::BitIdentical => o.reference_match.map(|m| o.completed && m),
            Expect::SurvivorsBitIdentical | Expect::AllJobsComplete => {
                o.survivors_agree.map(|a| o.completed && a)
            }
            Expect::CleanDegradation => Some(!o.completed && o.error.is_some()),
            Expect::FaultsInjected => o.faults.map(|n| n > 0),
            Expect::Retransmissions => o.retransmissions.map(|n| n > 0),
            Expect::ZeroQuietTenantFaults => o.quiet_tenant_faults.map(|n| n == 0),
            Expect::Resizes => o.resizes.map(|n| n > 0),
            Expect::EpochAtLeast(k) => o.max_epoch.map(|m| m >= k),
            Expect::WallUnderMs(ms) => Some(o.completed && within(o.wall, ms)),
            Expect::P99FirstAggregateUnderMs(ms) => {
                o.p99_first_aggregate.map(|p| o.completed && within(p, ms))
            }
        };
        match (held, &o.error) {
            (Some(true), _) => {}
            (Some(false), _) => violations.push(format!("{e:?} violated ({o})")),
            (None, Some(err)) => violations.push(format!("{e:?} violated (the run failed: {err})")),
            (None, None) => {
                violations.push(format!("{e:?}: oracle not measurable on this {family} run"))
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobClass;

    fn small(name: &str) -> crate::spec::ScenarioBuilder {
        Scenario::build(name).workers(2).job_with(|j| j.elems = 256)
    }

    /// The retired chaos harness's schedule: 3% loss both ways, 5%
    /// duplication, 10% §3.5-bounded reordering.
    fn chaotic(name: &str) -> crate::spec::ScenarioBuilder {
        Scenario::build(name).loss(0.03).dup(0.05).reorder(0.1)
    }

    #[test]
    fn netsim_plain_clean_passes() {
        let sc = small("netsim-clean")
            .expect(Expect::Completes)
            .expect(Expect::BitIdentical)
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Netsim).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
        assert!(r.observed.completed);
    }

    #[test]
    fn netsim_fingerprint_is_deterministic() {
        let sc = Scenario::build("netsim-fp")
            .workers(2)
            .job_with(|j| j.elems = 2048)
            .loss(0.05)
            .expect(Expect::Completes)
            .expect(Expect::FaultsInjected)
            .expect(Expect::Retransmissions)
            .finish()
            .unwrap();
        let a = run_scenario(&sc, Transport::Netsim).unwrap();
        let b = run_scenario(&sc, Transport::Netsim).unwrap();
        assert!(a.passed(), "{:?}", a.violations);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn channel_plain_loss_is_bit_identical() {
        let sc = small("chan-loss")
            .loss(0.05)
            .seed(7)
            .expect(Expect::BitIdentical)
            .expect(Expect::FaultsInjected)
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Channel).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
    }

    /// A sharded run with a straggling two-core worker under the full
    /// probabilistic schedule: bit-identical or nothing.
    #[test]
    fn channel_sharded_straggler_chaos_is_bit_identical() {
        let sc = chaotic("chan-sharded-straggler")
            .runner(RunnerKind::Sharded)
            .workers(2)
            .cores(2)
            .job_with(|j| j.elems = 512)
            .straggler(0, 20)
            .seed(7)
            .expect(Expect::BitIdentical)
            .expect(Expect::FaultsInjected)
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Channel).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
    }

    /// The reactor runner under the same schedule as the threaded ones.
    #[test]
    fn channel_reactor_chaos_is_bit_identical() {
        let sc = chaotic("chan-reactor-chaos")
            .runner(RunnerKind::Reactor { threads: 2 })
            .workers(3)
            .job_with(|j| j.elems = 400)
            .seed(42)
            .expect(Expect::BitIdentical)
            .expect(Expect::FaultsInjected)
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Channel).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
        match &r.detail {
            Detail::Run(rep) => assert!(rep.reactor.is_some()),
            other => panic!("expected run detail, got {other:?}"),
        }
    }

    /// Same plan, same outcome: a chaos schedule replays exactly.
    #[test]
    fn channel_same_plan_same_outcome() {
        let sc = chaotic("chan-replay")
            .workers(2)
            .job_with(|j| j.elems = 200)
            .seed(1234)
            .expect(Expect::BitIdentical)
            .finish()
            .unwrap();
        let a = run_scenario(&sc, Transport::Channel).unwrap();
        let b = run_scenario(&sc, Transport::Channel).unwrap();
        assert!(
            a.passed() && b.passed(),
            "{:?} {:?}",
            a.violations,
            b.violations
        );
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn channel_kill_degrades_cleanly() {
        // Large enough that the stream is still in flight at kill time.
        let sc = Scenario::build("chan-kill")
            .workers(2)
            .job_with(|j| j.elems = 32768)
            .kill_at_us(1, 500)
            .max_wall_ms(2_000)
            .expect(Expect::CleanDegradation)
            .only(&[Transport::Channel, Transport::Udp])
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Channel).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
        assert!(!r.observed.completed);
    }

    /// Worker-scoped faults shape every core endpoint of that worker and
    /// nothing else; a clean plan shapes nothing (bare fabric).
    #[test]
    fn worker_faults_cover_every_core_endpoint() {
        let sc = Scenario::build("two-core-straggler-kill")
            .runner(RunnerKind::Sharded)
            .workers(3)
            .cores(2)
            .straggler(1, 50)
            .kill_after_sends(1, 40)
            .only(&[Transport::Channel])
            .finish()
            .unwrap();
        let eps = endpoint_faults(&sc);
        assert_eq!(eps.len(), sharded_fabric_size(3, 2));
        let shaped: Vec<usize> = (0..eps.len())
            .filter(|&i| !eps[i].shapes_nothing())
            .collect();
        let worker1: Vec<usize> = (0..2).map(|c| worker_core_endpoint(1, c, 2)).collect();
        assert_eq!(shaped, worker1);
        for ep in worker1 {
            assert_eq!(eps[ep].stall, Duration::from_micros(50));
            assert_eq!(eps[ep].death, Some(KillAt::AfterSends(40)));
        }
        let clean = small("clean")
            .cores(2)
            .runner(RunnerKind::Sharded)
            .finish()
            .unwrap();
        assert!(endpoint_faults(&clean)
            .iter()
            .all(EndpointFaults::shapes_nothing));
    }

    /// One rule, every family: a run that finished with a reference
    /// mismatch or disagreeing survivors fails even with no oracles.
    #[test]
    fn silent_corruption_fails_every_family_with_no_oracles() {
        let mut sc = small("observe-only").finish().unwrap();
        sc.expect.clear();
        let finished = Observed {
            completed: true,
            ..Observed::default()
        };
        let cases = [
            ("plain/sharded/reactor", Some(false), None),
            ("hierarchy", Some(false), None),
            ("ctrl", Some(true), Some(false)),
            ("sched", None, Some(false)),
            ("netsim collective", Some(false), None),
            ("netsim ctrl", None, Some(false)),
        ];
        for (family, reference_match, survivors_agree) in cases {
            let o = Observed {
                reference_match,
                survivors_agree,
                ..finished.clone()
            };
            let v = evaluate(&sc, family, &o);
            assert_eq!(v.len(), 1, "{family}: {v:?}");
            assert!(v[0].contains("silent corruption"), "{family}: {v:?}");
            let healthy = Observed {
                reference_match: reference_match.map(|_| true),
                survivors_agree: survivors_agree.map(|_| true),
                ..finished.clone()
            };
            assert!(evaluate(&sc, family, &healthy).is_empty(), "{family}");
        }
        // An oracle the family cannot measure is a violation, not a pass.
        sc.expect.push(Expect::Resizes);
        let v = evaluate(&sc, "plain/sharded/reactor", &finished);
        assert!(v[0].contains("not measurable"), "{v:?}");
    }

    #[test]
    fn channel_ctrl_shrinks_on_kill() {
        let sc = Scenario::build("chan-ctrl-kill")
            .workers(3)
            .job_with(|j| j.elems = 16384)
            .runner(RunnerKind::Ctrl)
            .kill_at_us(1, 4_000)
            .expect(Expect::SurvivorsBitIdentical)
            .expect(Expect::EpochAtLeast(1))
            .only(&[Transport::Channel, Transport::Udp])
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Channel).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
        match &r.detail {
            Detail::Ctrl(rep) => assert_eq!(rep.final_n, 2),
            other => panic!("expected ctrl detail, got {other:?}"),
        }
    }

    #[test]
    fn channel_sched_two_tenants_complete() {
        let sc = Scenario::build("chan-sched")
            .runner(RunnerKind::Sched)
            .workers(2)
            .capacity(32)
            .job_with(|j| j.elems = 512)
            .job_with(|j| {
                j.elems = 512;
                j.arrival_ms = 2;
                j.class = JobClass::High;
            })
            .expect(Expect::AllJobsComplete)
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Channel).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
    }

    #[test]
    fn unsupported_transport_is_an_error() {
        // Batch-preserving loss is a real-transport (GSO/GRO) concept.
        let sc = small("no-netsim").loss(0.05).batch_loss().finish().unwrap();
        assert!(run_scenario(&sc, Transport::Netsim).is_err());
    }

    #[test]
    fn netsim_dup_reorder_straggler_all_inject() {
        let sc = Scenario::build("netsim-blitz")
            .workers(2)
            .job_with(|j| j.elems = 2048)
            .dup(0.05)
            .reorder(0.05)
            .straggler(1, 200)
            .seed(11)
            .expect(Expect::BitIdentical)
            .expect(Expect::FaultsInjected)
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Netsim).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
    }

    #[test]
    fn channel_hier_reactor_matches_reference() {
        let sc = Scenario::build("chan-hier")
            .runner(RunnerKind::Reactor { threads: 2 })
            .racks(2)
            .workers(2)
            .job_with(|j| j.elems = 512)
            .expect(Expect::Completes)
            .expect(Expect::BitIdentical)
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Channel).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
        match &r.detail {
            Detail::Run(rep) => {
                let h = rep.hier.as_ref().expect("hier counters present");
                assert_eq!((h.racks, h.workers_per_rack), (2, 2));
            }
            other => panic!("expected run detail, got {other:?}"),
        }
    }

    #[test]
    fn channel_hier_rack_kill_fences_epoch() {
        let sc = Scenario::build("chan-hier-kill")
            .runner(RunnerKind::Reactor { threads: 2 })
            .racks(2)
            .workers(2)
            .topology_with(|t| t.k = 32)
            .job_with(|j| j.elems = 16384)
            .kill_rack_at_us(1, 1_000)
            .expect(Expect::BitIdentical)
            .expect(Expect::EpochAtLeast(1))
            .only(&[Transport::Channel])
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Channel).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
    }

    #[test]
    fn netsim_ctrl_kill_shrinks() {
        let sc = Scenario::build("netsim-ctrl-kill")
            .runner(RunnerKind::Ctrl)
            .workers(4)
            .job_with(|j| j.elems = 256)
            .kill_at_us(1, 25)
            .rto_us(300)
            .max_wall_ms(500)
            .expect(Expect::SurvivorsBitIdentical)
            .expect(Expect::EpochAtLeast(1))
            .only(&[Transport::Netsim])
            .finish()
            .unwrap();
        let r = run_scenario(&sc, Transport::Netsim).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
        match &r.detail {
            Detail::NetsimCtrl(o) => assert_eq!(o.final_n[0], 3),
            other => panic!("expected netsim ctrl detail, got {other:?}"),
        }
    }
}
