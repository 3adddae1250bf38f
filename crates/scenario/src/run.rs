//! Scenario execution: compile one declarative [`Scenario`] onto a
//! concrete transport × runner pair, run it, and evaluate every
//! expectation oracle.
//!
//! The mapping mirrors the conventions the hand-rolled chaos/sched
//! harnesses established (endpoint layouts, fault placement, the
//! data-plane-only fault rule for controller runs), so a scenario that
//! passes here is exercising exactly the code paths the old
//! command-line invocations did.

use std::time::Duration;

use switchml_baselines::run::{
    run_switchml, run_switchml_hierarchy, CollectiveOutcome, HierScenario, SwitchMLScenario,
};
use switchml_core::agg;
use switchml_core::config::{Protocol, RtoPolicy};
use switchml_ctrl::netsim::{run_ctrl, scenario_tensor, CtrlOutcome, CtrlScenario};
use switchml_ctrl::runner::{run_controlled, CtrlRunConfig, CtrlRunReport};
use switchml_ctrl::sched::{
    run_scheduled, sched_fabric_size, Class, SchedJob, SchedRunConfig, SchedRunReport, TenantSpec,
};
use switchml_netsim::prelude::Nanos;
use switchml_transport::channel::channel_fabric;
use switchml_transport::chaos::{
    chaos_fabric_data_plane, run_chaos, ChaosOutcome, ChaosSpec, KillAt,
};
use switchml_transport::faulty::{FaultyConfig, FaultyPort, FaultyStats};
use switchml_transport::hier::{hier_fabric_size, run_allreduce_hier, HierConfig};
use switchml_transport::runner::RunReport;
use switchml_transport::shard::sharded_fabric_size;
use switchml_transport::udp::udp_fabric;
use switchml_transport::{
    run_allreduce, run_allreduce_reactor, run_allreduce_sharded, Port, RunConfig,
};

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
    /// Plain/sharded/reactor data-plane run that completed.
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

/// What one scenario run produced, with every oracle evaluated.
pub struct ScenarioReport {
    pub scenario: String,
    pub transport: Transport,
    /// The run itself completed (all workers / survivors / jobs done).
    pub completed: bool,
    /// The runner's error when it did not complete.
    pub error: Option<String>,
    /// Every violated (or unevaluable) expectation, human-readable.
    /// Empty = the scenario passed.
    pub violations: Vec<String>,
    /// Order-independent digest of the observable outcome (results,
    /// survivor sets, epochs). Two runs of the same scenario on the
    /// same deterministic transport fingerprint identically; the
    /// proptest round-trip suite leans on this.
    pub fingerprint: u64,
    /// Wall clock (real transports) or simulated time (netsim), ms.
    pub wall_ms: u64,
    pub detail: Detail,
}

impl std::fmt::Debug for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioReport")
            .field("scenario", &self.scenario)
            .field("transport", &self.transport)
            .field("completed", &self.completed)
            .field("error", &self.error)
            .field("violations", &self.violations)
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint))
            .field("wall_ms", &self.wall_ms)
            .field("detail", &self.detail)
            .finish()
    }
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
            self.wall_ms,
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
    match t {
        Transport::Netsim => match sc.runner {
            RunnerKind::Ctrl => Ok(netsim_ctrl(sc, t)),
            _ => Ok(netsim_collective(sc, t)),
        },
        Transport::Channel | Transport::Udp => match sc.runner {
            RunnerKind::Plain | RunnerKind::Sharded | RunnerKind::Reactor { .. } => {
                transport_dataplane(sc, t)
            }
            RunnerKind::Ctrl => transport_ctrl(sc, t),
            RunnerKind::Sched => transport_sched(sc, t),
        },
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

/// Probabilistic fault layer from the plan. `batch_loss` keeps burst
/// I/O on the inner transport's batch path (UDP GSO/GRO stays on) at
/// the cost of being send-side loss only.
fn fault_config(sc: &Scenario) -> FaultyConfig {
    let f = &sc.faults;
    if f.batch_loss {
        FaultyConfig::batch_loss_only(f.loss)
    } else {
        FaultyConfig {
            send_drop: f.loss,
            recv_drop: f.loss,
            dup: f.dup,
            reorder: f.reorder,
            ..FaultyConfig::default()
        }
    }
}

/// Chaos schedule with worker indices mapped to fabric endpoints via
/// `ep_of`. `script_kills = false` leaves kills out (the ctrl runner
/// scripts the crash itself so the controller observes it).
fn chaos_spec(sc: &Scenario, script_kills: bool, ep_of: impl Fn(usize) -> usize) -> ChaosSpec {
    let f = &sc.faults;
    ChaosSpec {
        seed: f.seed,
        fault: fault_config(sc),
        stragglers: f
            .stragglers
            .iter()
            .map(|&(w, us)| (ep_of(w), Duration::from_micros(us)))
            .collect(),
        kills: if script_kills {
            f.kills
                .iter()
                .map(|&(w, when)| {
                    let at = match when {
                        KillWhen::ElapsedUs(us) => KillAt::Elapsed(Duration::from_micros(us)),
                        KillWhen::AfterSends(n) => KillAt::AfterSends(n),
                    };
                    (ep_of(w), at)
                })
                .collect()
        } else {
            Vec::new()
        },
    }
}

fn unsupported(e: &Expect, family: &str) -> String {
    format!("{e:?}: oracle not measurable on the {family} runner")
}

// ------------------------------------------- plain / sharded / reactor

fn transport_dataplane(sc: &Scenario, t: Transport) -> Result<ScenarioReport, String> {
    if sc.topology.racks > 1 {
        return transport_hier(sc, t);
    }
    let topo = &sc.topology;
    let (n, cores) = (topo.workers, topo.cores);
    let proto = base_proto(sc);
    let updates = single_job_updates(sc);

    let plain = matches!(sc.runner, RunnerKind::Plain);
    let size = if plain {
        n + 1
    } else {
        sharded_fabric_size(n, cores)
    };
    // Worker w's core-0 endpoint: w+1 on the plain fabric, past the
    // switch shards on a sharded one.
    let spec = chaos_spec(sc, true, |w| if plain { w + 1 } else { cores + w * cores });
    let run_cfg = RunConfig {
        n_cores: if plain { 1 } else { cores },
        max_wall: sc.max_wall(),
        burst: sc.burst,
    };

    fn drive<P: Port + 'static>(
        ports: Vec<P>,
        sc: &Scenario,
        updates: Vec<Vec<Vec<f32>>>,
        proto: &Protocol,
        cfg: &RunConfig,
        spec: &ChaosSpec,
    ) -> switchml_core::error::Result<ChaosOutcome> {
        match sc.runner {
            RunnerKind::Plain => run_chaos(ports, 1, updates, proto, spec, |p, u| {
                run_allreduce(p, u, proto, cfg)
            }),
            RunnerKind::Sharded => run_chaos(ports, cfg.n_cores, updates, proto, spec, |p, u| {
                run_allreduce_sharded(p, u, proto, cfg)
            }),
            RunnerKind::Reactor { threads } => {
                run_chaos(ports, cfg.n_cores, updates, proto, spec, |p, u| {
                    run_allreduce_reactor(p, u, proto, cfg, threads)
                })
            }
            _ => unreachable!("dataplane families only"),
        }
    }

    let outcome = match t {
        Transport::Channel => drive(channel_fabric(size), sc, updates, &proto, &run_cfg, &spec),
        Transport::Udp => {
            let ports = udp_fabric(size).map_err(|e| format!("udp fabric: {e}"))?;
            drive(ports, sc, updates, &proto, &run_cfg, &spec)
        }
        Transport::Netsim => unreachable!(),
    };

    let mut violations = Vec::new();
    let (completed, error, detail) = match outcome {
        Ok(ChaosOutcome::BitIdentical(r)) => (true, None, Detail::Run(*r)),
        Ok(ChaosOutcome::CleanDegradation(e)) => (false, Some(e.to_string()), Detail::None),
        Err(e) => {
            // The chaos harness returns Err only for silent corruption
            // or a harness fault — never acceptable, oracle or not.
            violations.push(format!("run failed: {e}"));
            (false, Some(e.to_string()), Detail::None)
        }
    };
    let (retx, faults, wall_ms) = match &detail {
        Detail::Run(r) => (
            r.worker_stats.iter().map(|s| s.retx).sum::<u64>(),
            r.transport_stats.injected_faults(),
            r.wall.as_millis() as u64,
        ),
        _ => (0, 0, 0),
    };
    for e in &sc.expect {
        let ok = match e {
            // The harness already held completion to the bit-identical
            // bar, so these two coincide here.
            Expect::Completes | Expect::BitIdentical => completed,
            Expect::CleanDegradation => !completed && error.is_some(),
            Expect::FaultsInjected => faults > 0,
            Expect::Retransmissions => retx > 0,
            Expect::WallUnderMs(ms) => completed && wall_ms <= *ms,
            other => {
                violations.push(unsupported(other, "plain/sharded/reactor"));
                continue;
            }
        };
        if !ok {
            violations.push(format!(
                "{e:?} violated (completed={completed}, faults={faults}, retx={retx})"
            ));
        }
    }
    Ok(ScenarioReport {
        scenario: sc.name.clone(),
        transport: t,
        completed,
        error,
        violations,
        fingerprint: fingerprint(completed, &detail),
        wall_ms,
        detail,
    })
}

// ------------------------------------------------------- hierarchy (tree)

/// Two-level tree on a real transport: spine + per-rack leaves over
/// the reactor data plane ([`run_allreduce_hier`]). Probabilistic
/// faults wrap the switch endpoints (spine and every leaf) so both the
/// worker↔leaf and leaf↔spine hops see them; the scripted rack kill is
/// the leaf runner's own (`HierConfig::kill_leaf`), giving the
/// replacement leaf + epoch-fence recovery path, not a dead worker.
fn transport_hier(sc: &Scenario, t: Transport) -> Result<ScenarioReport, String> {
    let topo = &sc.topology;
    let (racks, wpr) = (topo.racks, topo.workers);
    let n = sc.total_workers();
    let proto = base_proto(sc);
    let updates = single_job_updates(sc);
    let f = &sc.faults;

    // supports() admits no stragglers/kills on the hier arm, so the
    // spec carries only the probabilistic layer.
    let spec = chaos_spec(sc, false, |w| w);
    let run_cfg = RunConfig {
        n_cores: 1,
        max_wall: sc.max_wall(),
        burst: sc.burst,
    };
    let hier_cfg = HierConfig {
        n_threads: match sc.runner {
            RunnerKind::Reactor { threads } => threads,
            _ => unreachable!("validated: hierarchy runs on the reactor runner"),
        },
        kill_leaf: f
            .kill_rack
            .map(|(rack, us)| (rack, Duration::from_micros(us))),
        ..HierConfig::new(racks, wpr)
    };

    let size = hier_fabric_size(racks, wpr);
    fn drive<P: Port + 'static>(
        base: Vec<P>,
        spec: &ChaosSpec,
        n_switch_endpoints: usize,
        updates: Vec<Vec<Vec<f32>>>,
        proto: &Protocol,
        cfg: &RunConfig,
        hier: &HierConfig,
    ) -> switchml_core::error::Result<RunReport> {
        let (ports, _) = chaos_fabric_data_plane(base, n_switch_endpoints, spec);
        run_allreduce_hier(ports, updates, proto, cfg, hier)
    }
    let result = match t {
        Transport::Channel => drive(
            channel_fabric(size),
            &spec,
            1 + racks,
            updates.clone(),
            &proto,
            &run_cfg,
            &hier_cfg,
        ),
        Transport::Udp => {
            let base = udp_fabric(size).map_err(|e| format!("udp fabric: {e}"))?;
            drive(
                base,
                &spec,
                1 + racks,
                updates.clone(),
                &proto,
                &run_cfg,
                &hier_cfg,
            )
        }
        Transport::Netsim => unreachable!(),
    };

    let mut violations = Vec::new();
    let (completed, error, detail) = match result {
        Ok(r) => (true, None, Detail::Run(r)),
        Err(e) => (false, Some(e.to_string()), Detail::None),
    };

    // The flat chaos harness checks bit-identity internally; the hier
    // runner returns raw results, so hold them to the same bar here.
    let mut reference_match = false;
    let (mut retx, mut faults, mut max_epoch, mut wall_ms) = (0u64, 0u64, 0u32, 0u64);
    if let Detail::Run(r) = &detail {
        faults = r.transport_stats.injected_faults();
        wall_ms = r.wall.as_millis() as u64;
        // Worker-hop retransmissions plus the leaf→spine hop's own.
        retx = r.worker_stats.iter().map(|s| s.retx).sum::<u64>();
        if let Some(h) = &r.hier {
            retx += h.leaf_up_stats.iter().map(|s| s.retx).sum::<u64>();
            max_epoch = h.rack_epochs.iter().map(|&e| e as u32).max().unwrap_or(0);
        }
        match agg::allreduce(&updates, &proto) {
            Ok(reference) => {
                reference_match = r.results.iter().all(|tensors| {
                    tensors.iter().zip(&reference).all(|(got, want)| {
                        got.iter()
                            .map(|v| v.to_bits())
                            .eq(want.iter().map(|v| v.to_bits()))
                    })
                });
                if !reference_match {
                    violations.push(
                        "hierarchical results differ from the sequential reference — silent \
                         corruption"
                            .into(),
                    );
                }
            }
            Err(e) => violations.push(format!("reference allreduce failed: {e}")),
        }
    }

    for e in &sc.expect {
        let ok = match e {
            Expect::Completes => completed,
            Expect::BitIdentical => completed && reference_match,
            Expect::CleanDegradation => !completed && error.is_some(),
            Expect::EpochAtLeast(k) => max_epoch >= *k,
            Expect::FaultsInjected => faults > 0,
            Expect::Retransmissions => retx > 0,
            Expect::WallUnderMs(ms) => completed && wall_ms <= *ms,
            other => {
                violations.push(unsupported(other, "hierarchy"));
                continue;
            }
        };
        if !ok {
            violations.push(format!(
                "{e:?} violated (completed={completed}, {racks}x{wpr}={n}, epoch={max_epoch}, \
                 faults={faults}, retx={retx})"
            ));
        }
    }
    Ok(ScenarioReport {
        scenario: sc.name.clone(),
        transport: t,
        completed,
        error,
        violations,
        fingerprint: fingerprint(completed, &detail),
        wall_ms,
        detail,
    })
}

// ------------------------------------------------------------------ ctrl

fn transport_ctrl(sc: &Scenario, t: Transport) -> Result<ScenarioReport, String> {
    let topo = &sc.topology;
    let n = topo.workers;
    let proto = base_proto(sc);
    let updates = single_job_updates(sc);
    let f = &sc.faults;

    // Probabilistic faults hit only the data plane (switch endpoint 0)
    // so control traffic stays a reliable RPC; the crash is the
    // controller's to observe, so it is scripted via the run config,
    // not the chaos layer.
    let spec = chaos_spec(sc, false, |w| w + 1);
    let kill = f.kills.first().map(|&(w, when)| match when {
        KillWhen::ElapsedUs(us) => (w as u16, Duration::from_micros(us)),
        KillWhen::AfterSends(_) => unreachable!("validated: ctrl kills are ElapsedUs"),
    });
    let cfg = CtrlRunConfig {
        max_wall: sc.max_wall(),
        n_cores: topo.cores,
        kill,
        switch_restart: f.switch_restart_ms.map(Duration::from_millis),
        ..CtrlRunConfig::default()
    };

    fn drive<P: Port + 'static>(
        base: Vec<P>,
        spec: &ChaosSpec,
        updates: Vec<Vec<Vec<f32>>>,
        proto: &Protocol,
        cfg: &CtrlRunConfig,
    ) -> switchml_core::error::Result<CtrlRunReport> {
        let (ports, _) = chaos_fabric_data_plane(base, 1, spec);
        run_controlled(ports, updates, proto, cfg)
    }

    let result = match t {
        Transport::Channel => drive(channel_fabric(n + 2), &spec, updates.clone(), &proto, &cfg),
        Transport::Udp => {
            let base = udp_fabric(n + 2).map_err(|e| format!("udp fabric: {e}"))?;
            drive(base, &spec, updates.clone(), &proto, &cfg)
        }
        Transport::Netsim => unreachable!(),
    };

    let mut violations = Vec::new();
    let (completed, error, detail) = match result {
        Ok(r) => (true, None, Detail::Ctrl(r)),
        Err(e) => (false, Some(e.to_string()), Detail::None),
    };

    // Survivor agreement is the §5.4 bar: every surviving worker holds
    // the same bits across any number of reconfigurations; with no
    // shrink, those bits must equal the sequential reference.
    let mut survivors_identical = true;
    let mut reference_match = false;
    let (mut final_n, mut final_epoch, mut retx, mut faults, mut wall_ms) = (0, 0, 0, 0, 0);
    if let Detail::Ctrl(r) = &detail {
        final_n = r.final_n;
        final_epoch = r.final_epoch;
        retx = r.worker_stats.iter().map(|s| s.retx).sum::<u64>();
        faults = r.transport_stats.injected_faults();
        wall_ms = r.wall.as_millis() as u64;
        let survivors: Vec<&Vec<Vec<f32>>> = r.results.iter().flatten().collect();
        if survivors.is_empty() {
            survivors_identical = false;
            violations.push("no surviving worker produced results".into());
        } else {
            survivors_identical = survivors.iter().all(|t| *t == survivors[0]);
            if !survivors_identical {
                violations.push("survivor results differ — silent corruption".into());
            }
            if r.final_n == n {
                match agg::allreduce(&updates, &proto) {
                    Ok(reference) => {
                        reference_match = survivors[0].iter().zip(&reference).all(|(got, want)| {
                            got.iter()
                                .map(|v| v.to_bits())
                                .eq(want.iter().map(|v| v.to_bits()))
                        });
                        if !reference_match {
                            violations.push(
                                "full membership finished but differs from the sequential \
                                 reference"
                                    .into(),
                            );
                        }
                    }
                    Err(e) => violations.push(format!("reference allreduce failed: {e}")),
                }
            }
        }
    }

    for e in &sc.expect {
        let ok = match e {
            Expect::Completes => completed,
            Expect::SurvivorsBitIdentical => completed && survivors_identical,
            Expect::BitIdentical => completed && final_n == n && reference_match,
            Expect::CleanDegradation => !completed && error.is_some(),
            Expect::EpochAtLeast(k) => final_epoch >= *k,
            Expect::FaultsInjected => faults > 0,
            Expect::Retransmissions => retx > 0,
            Expect::WallUnderMs(ms) => completed && wall_ms <= *ms,
            other => {
                violations.push(unsupported(other, "ctrl"));
                continue;
            }
        };
        if !ok {
            violations.push(format!(
                "{e:?} violated (completed={completed}, survivors={final_n}/{n}, \
                 epoch={final_epoch}, faults={faults}, retx={retx})"
            ));
        }
    }
    Ok(ScenarioReport {
        scenario: sc.name.clone(),
        transport: t,
        completed,
        error,
        violations,
        fingerprint: fingerprint(completed, &detail),
        wall_ms,
        detail,
    })
}

// ----------------------------------------------------------------- sched

fn transport_sched(sc: &Scenario, t: Transport) -> Result<ScenarioReport, String> {
    let topo = &sc.topology;
    let workers = topo.workers;
    let proto = base_proto(sc);
    let f = &sc.faults;

    let jobs: Vec<SchedJob> = sc
        .jobs
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
        .collect();
    let size = sched_fabric_size(&jobs);
    let cfg = SchedRunConfig {
        max_wall: sc.max_wall(),
        n_cores: topo.cores,
        capacity: topo.capacity,
        ..SchedRunConfig::default()
    };

    // Endpoint layout: 0 = switch, each job's workers in submission
    // order, last = controller. The loss storm is aimed at the target
    // job's worker endpoints (all workers when no target is named).
    let noisy: std::ops::RangeInclusive<usize> = match f.target_job {
        Some(j) => {
            let start = 1 + j as usize * workers;
            start..=start + workers - 1
        }
        None => 1..=size - 2,
    };

    fn storm_fabric<P: Port + 'static>(
        ports: Vec<P>,
        noisy: std::ops::RangeInclusive<usize>,
        loss: f64,
        seed: u64,
    ) -> Vec<FaultyPort<P>> {
        let stats = std::sync::Arc::new(FaultyStats::default());
        ports
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let fc = if loss > 0.0 && noisy.contains(&i) {
                    FaultyConfig::loss_only(loss)
                } else {
                    FaultyConfig::default()
                };
                // Send-side loss or nothing: every endpoint keeps its
                // bursts (see `FaultyConfig::batched_where_possible`).
                FaultyPort::new(
                    p,
                    fc.batched_where_possible(),
                    seed.wrapping_mul(31) + i as u64,
                    std::sync::Arc::clone(&stats),
                )
            })
            .collect()
    }

    let result = match t {
        Transport::Channel => run_scheduled(
            storm_fabric(channel_fabric(size), noisy, f.loss, f.seed),
            jobs,
            &proto,
            &cfg,
        ),
        Transport::Udp => {
            let ports = udp_fabric(size).map_err(|e| format!("udp fabric: {e}"))?;
            run_scheduled(
                storm_fabric(ports, noisy, f.loss, f.seed),
                jobs,
                &proto,
                &cfg,
            )
        }
        Transport::Netsim => unreachable!(),
    };

    let mut violations = Vec::new();
    let (completed, error, detail) = match result {
        Ok(r) => (r.all_complete(), None, Detail::Sched(r)),
        Err(e) => (false, Some(e.to_string()), Detail::None),
    };

    let p99 = |mut xs: Vec<Duration>| -> Option<Duration> {
        if xs.is_empty() {
            return None;
        }
        xs.sort();
        let idx = ((xs.len() as f64) * 0.99).ceil() as usize;
        Some(xs[idx.saturating_sub(1).min(xs.len() - 1)])
    };

    let mut wall_ms = 0;
    for e in &sc.expect {
        let Detail::Sched(r) = &detail else {
            violations.push(format!("{e:?} violated (run failed before reporting)"));
            continue;
        };
        wall_ms = r.wall.as_millis() as u64;
        let ok = match e {
            Expect::Completes | Expect::AllJobsComplete => completed,
            // The storm targets worker endpoints, whose counters are
            // harvested per-job; transport_stats only covers the
            // switch and controller ports.
            Expect::FaultsInjected => {
                r.transport_stats.injected_faults()
                    + r.outcomes.iter().map(|o| o.injected_faults).sum::<u64>()
                    > 0
            }
            Expect::Retransmissions => {
                r.outcomes.iter().map(|o| o.worker_stats.retx).sum::<u64>() > 0
            }
            Expect::ZeroQuietTenantFaults => r
                .outcomes
                .iter()
                .filter(|o| Some(o.job) != f.target_job)
                .all(|o| o.injected_faults == 0),
            Expect::Resizes => r.outcomes.iter().map(|o| o.resizes as u64).sum::<u64>() > 0,
            Expect::EpochAtLeast(k) => r.outcomes.iter().map(|o| o.final_epoch).max() >= Some(*k),
            Expect::WallUnderMs(ms) => completed && wall_ms <= *ms,
            Expect::P99FirstAggregateUnderMs(ms) => {
                let p = p99(r
                    .outcomes
                    .iter()
                    .filter_map(|o| o.first_aggregate)
                    .collect());
                completed && p.is_some_and(|d| d.as_millis() as u64 <= *ms)
            }
            other => {
                violations.push(unsupported(other, "sched"));
                continue;
            }
        };
        if !ok {
            violations.push(format!("{e:?} violated (completed={completed})"));
        }
    }
    Ok(ScenarioReport {
        scenario: sc.name.clone(),
        transport: t,
        completed,
        error,
        violations,
        fingerprint: fingerprint(completed, &detail),
        wall_ms,
        detail,
    })
}

// ---------------------------------------------------------------- netsim

fn netsim_collective(sc: &Scenario, t: Transport) -> ScenarioReport {
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

    let mut violations = Vec::new();
    let (completed, error, detail) = match result {
        Ok(o) => (o.verified, None, Detail::NetsimCollective(o)),
        Err(e) => (false, Some(e.to_string()), Detail::None),
    };
    let (faults, retx, wall_ms) = match &detail {
        Detail::NetsimCollective(o) => (
            o.report.counters.injected_faults(),
            o.total_retx,
            o.max_tat.0 / 1_000_000,
        ),
        _ => (0, 0, 0),
    };
    for e in &sc.expect {
        let ok = match e {
            Expect::Completes => completed,
            // Netsim's verification is the exact element-wise sum
            // (quantization-tolerance aware), the simulator's
            // equivalent of the bit-identity bar.
            Expect::BitIdentical => completed,
            Expect::FaultsInjected => faults > 0,
            Expect::Retransmissions => retx > 0,
            Expect::WallUnderMs(ms) => completed && wall_ms <= *ms,
            other => {
                violations.push(unsupported(other, "netsim collective"));
                continue;
            }
        };
        if !ok {
            violations.push(format!(
                "{e:?} violated (completed={completed}, faults={faults}, retx={retx}, \
                 sim_ms={wall_ms})"
            ));
        }
    }
    ScenarioReport {
        scenario: sc.name.clone(),
        transport: t,
        completed,
        error,
        violations,
        fingerprint: fingerprint(completed, &detail),
        wall_ms,
        detail,
    }
}

fn netsim_ctrl(sc: &Scenario, t: Transport) -> ScenarioReport {
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

    let mut violations = Vec::new();
    let completed = o.finished;
    let n = topo.workers;

    let mut survivors_identical = true;
    for (j, per_worker) in o.results.iter().enumerate() {
        let survivors: Vec<&Vec<Vec<f32>>> = per_worker.iter().flatten().collect();
        if survivors.is_empty() {
            survivors_identical = false;
            violations.push(format!("job {j}: no surviving worker produced results"));
        } else if !survivors.iter().all(|t| *t == survivors[0]) {
            survivors_identical = false;
            violations.push(format!(
                "job {j}: survivor results differ — silent corruption"
            ));
        }
    }
    let max_epoch = o.final_epoch.iter().copied().max().unwrap_or(0);
    let full_membership = o.final_n.iter().all(|&fnl| fnl == n);
    let dropped = o.report.counters.dropped_loss;
    let wall_ms = o.report.end_time.0 / 1_000_000;

    for e in &sc.expect {
        let ok = match e {
            Expect::Completes => completed,
            Expect::SurvivorsBitIdentical => completed && survivors_identical,
            Expect::BitIdentical => completed && survivors_identical && full_membership,
            Expect::EpochAtLeast(k) => max_epoch >= *k,
            Expect::FaultsInjected => dropped > 0,
            Expect::WallUnderMs(ms) => completed && wall_ms <= *ms,
            other => {
                violations.push(unsupported(other, "netsim ctrl"));
                continue;
            }
        };
        if !ok {
            violations.push(format!(
                "{e:?} violated (completed={completed}, final_n={:?}, epoch={max_epoch}, \
                 dropped={dropped})",
                o.final_n
            ));
        }
    }
    let detail = Detail::NetsimCtrl(o);
    ScenarioReport {
        scenario: sc.name.clone(),
        transport: t,
        completed,
        error: if completed {
            None
        } else {
            Some("simulation did not converge within the deadline".into())
        },
        violations,
        fingerprint: fingerprint(completed, &detail),
        wall_ms,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobClass;

    fn small(name: &str) -> crate::spec::ScenarioBuilder {
        Scenario::build(name).workers(2).job_with(|j| j.elems = 256)
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
        assert!(r.completed);
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
        assert!(!r.completed);
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
