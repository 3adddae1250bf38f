//! The scenario vocabulary: topology, workloads, faults, and
//! expectations as plain composable values.
//!
//! A [`Scenario`] is a complete, declarative description of one
//! experiment from the paper's evaluation matrix (§6): *what* runs
//! (topology + jobs), *what goes wrong* (the fault plan), and *what
//! must hold afterwards* (the expectation oracles). It says nothing
//! about *how* to run — the same value executes against the netsim
//! simulator, the in-memory channel fabric, or real UDP sockets, and
//! against the plain, sharded, reactor, ctrl, and sched runners
//! (see [`crate::run`]).

use std::time::Duration;

/// Which fabric carries the packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Discrete-event simulator (`switchml-netsim`): deterministic,
    /// simulated time.
    Netsim,
    /// In-memory crossbeam channels: real threads, hermetic.
    Channel,
    /// UDP loopback sockets: real datagrams, real kernel.
    Udp,
}

impl Transport {
    pub const ALL: [Transport; 3] = [Transport::Netsim, Transport::Channel, Transport::Udp];

    pub fn name(&self) -> &'static str {
        match self {
            Transport::Netsim => "netsim",
            Transport::Channel => "channel",
            Transport::Udp => "udp",
        }
    }

    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "netsim" => Ok(Transport::Netsim),
            "channel" => Ok(Transport::Channel),
            "udp" => Ok(Transport::Udp),
            other => Err(format!("unknown transport '{other}' (netsim|channel|udp)")),
        }
    }
}

/// Which driver owns the run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunnerKind {
    /// One switch thread + one thread per worker.
    Plain,
    /// Per-core switch shards + per-(worker, core) engine threads.
    Sharded,
    /// Run-to-completion reactor: `threads` OS threads own all engines.
    Reactor { threads: usize },
    /// Controller-managed single job: failure detection,
    /// shrink-and-resume, switch restart.
    Ctrl,
    /// Multi-tenant slot scheduler over a churning job population.
    Sched,
}

impl RunnerKind {
    pub fn name(&self) -> String {
        match self {
            RunnerKind::Plain => "plain".into(),
            RunnerKind::Sharded => "sharded".into(),
            RunnerKind::Reactor { threads } => format!("reactor:{threads}"),
            RunnerKind::Ctrl => "ctrl".into(),
            RunnerKind::Sched => "sched".into(),
        }
    }

    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "plain" => Ok(RunnerKind::Plain),
            "sharded" => Ok(RunnerKind::Sharded),
            "ctrl" => Ok(RunnerKind::Ctrl),
            "sched" => Ok(RunnerKind::Sched),
            other => {
                if let Some(t) = other.strip_prefix("reactor:") {
                    let threads: usize =
                        t.parse().map_err(|_| format!("bad thread count '{t}'"))?;
                    if threads == 0 {
                        return Err("reactor needs >= 1 thread".into());
                    }
                    Ok(RunnerKind::Reactor { threads })
                } else {
                    Err(format!(
                        "unknown runner '{other}' (plain|sharded|reactor:N|ctrl|sched)"
                    ))
                }
            }
        }
    }
}

/// The physical shape of the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Workers per job (per rack, when `racks > 1`).
    pub workers: usize,
    /// Engine shards (cores) per worker, and switch shards.
    pub cores: usize,
    /// Racks in a two-level hierarchy; `1` = flat. Hierarchy runs on
    /// the netsim plain runner and the reactor transport runner.
    pub racks: usize,
    /// Elements per packet `k`.
    pub k: usize,
    /// Aggregator pool slots per job.
    pub pool_size: usize,
    /// Slot capacity handed to the scheduler ([`RunnerKind::Sched`]).
    pub capacity: u32,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            workers: 2,
            cores: 1,
            racks: 1,
            k: 8,
            pool_size: 16,
            capacity: 64,
        }
    }
}

/// Priority class of a job ([`RunnerKind::Sched`] only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    High,
    BestEffort,
}

impl JobClass {
    pub fn name(&self) -> &'static str {
        match self {
            JobClass::High => "high",
            JobClass::BestEffort => "best-effort",
        }
    }

    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "high" => Ok(JobClass::High),
            "best-effort" => Ok(JobClass::BestEffort),
            other => Err(format!("unknown class '{other}' (high|best-effort)")),
        }
    }
}

/// One workload: a job with a size, a priority, and an arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Tensor elements per worker.
    pub elems: usize,
    /// Arrival relative to run start, milliseconds (sched runner;
    /// other runners require 0).
    pub arrival_ms: u64,
    pub class: JobClass,
    /// Max-min weight within the class (>= 1).
    pub weight: u32,
    /// Slot cap; 0 = uncapped.
    pub quota: u32,
    /// Guaranteed slot floor.
    pub min_slots: u32,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            elems: 4096,
            arrival_ms: 0,
            class: JobClass::BestEffort,
            weight: 1,
            quota: 0,
            min_slots: 1,
        }
    }
}

/// Retransmission-timer policy (§5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtoMode {
    /// Jacobson/Karels adaptive RTO, clamped to `[rto/4, rto*32]`.
    Adaptive,
    /// Fixed base with exponential backoff up to `rto*32`.
    Backoff,
    /// Fixed timeout.
    Fixed,
}

impl RtoMode {
    pub fn name(&self) -> &'static str {
        match self {
            RtoMode::Adaptive => "adaptive",
            RtoMode::Backoff => "backoff",
            RtoMode::Fixed => "fixed",
        }
    }

    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "adaptive" => Ok(RtoMode::Adaptive),
            "backoff" => Ok(RtoMode::Backoff),
            "fixed" => Ok(RtoMode::Fixed),
            other => Err(format!(
                "unknown rto mode '{other}' (adaptive|backoff|fixed)"
            )),
        }
    }
}

/// When a scripted worker crash takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillWhen {
    /// Wall-clock (or simulated-time) microseconds into the run.
    ElapsedUs(u64),
    /// After the worker completes this many data-plane sends — "kill
    /// at chunk N" in the unit a schedule can count deterministically,
    /// independent of machine speed. Plain/sharded/reactor runners
    /// only (the scripted-port layer does the counting).
    AfterSends(u64),
}

/// Everything that goes wrong, as one declarative plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic layer; the whole schedule is a
    /// pure function of the scenario (faults replay exactly).
    pub seed: u64,
    /// Loss probability. Transport runners apply it on both the send
    /// and receive side of switch endpoints (the chaos-harness
    /// convention); netsim applies it to worker links; the sched
    /// runner aims a send-side storm at [`FaultPlan::target_job`].
    pub loss: f64,
    /// Duplication probability (transport runners only).
    pub dup: f64,
    /// Bounded-reordering probability, applied only where §3.5 allows
    /// (switch→worker results; transport runners only).
    pub reorder: f64,
    /// Restrict the plan to send-side loss only (`FaultyConfig::
    /// loss_only`), the fault a `FaultyPort` injects without reshaping
    /// a burst: UDP GSO/GRO stays engaged underneath.
    pub batch_loss: bool,
    /// `(worker, stall_us)`: delay every send from this worker.
    pub stragglers: Vec<(usize, u64)>,
    /// `(worker, when)`: scripted crashes.
    pub kills: Vec<(usize, KillWhen)>,
    /// `(rack, at_us)`: crash the rack's leaf switch this many
    /// microseconds in (hierarchy on the reactor transport runner).
    /// The replacement leaf bumps the rack epoch and re-drives only
    /// its own rack.
    pub kill_rack: Option<(usize, u64)>,
    /// Restart the switch this many milliseconds in (ctrl runner on a
    /// real transport): pool state and admissions are lost, the
    /// controller fails every job over in place.
    pub switch_restart_ms: Option<u64>,
    /// Drain switch 0 onto switch 1 at this simulated microsecond
    /// (netsim ctrl runner; implies two switches).
    pub failover_us: Option<u64>,
    /// Aim the loss storm at this job's workers only (sched runner).
    pub target_job: Option<u8>,
}

/// An expectation oracle: a property the completed run must satisfy.
/// Every scenario states its oracles explicitly; the runner evaluates
/// them and reports violations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// The run completed (no error, within the wall budget).
    Completes,
    /// Every worker's final tensors are bit-identical to the lossless
    /// sequential reference (netsim: the exact-sum verification).
    BitIdentical,
    /// Every *surviving* worker agrees bit-for-bit (the §5.4
    /// consistency bar under shrink-and-resume).
    SurvivorsBitIdentical,
    /// The run must NOT complete: a reported error, never silently
    /// wrong numbers (a kill without a control plane).
    CleanDegradation,
    /// The fault plan actually hit: at least one fault was injected.
    FaultsInjected,
    /// Loss was recovered the paper's way: retransmissions > 0.
    Retransmissions,
    /// Every admitted job drained to completion with agreeing results
    /// (sched quiescence).
    AllJobsComplete,
    /// Tenants outside [`FaultPlan::target_job`] absorbed zero
    /// injected faults (the isolation ledger).
    ZeroQuietTenantFaults,
    /// The scheduler repartitioned at least one running job
    /// (preemption / departure rebalancing happened).
    Resizes,
    /// The final epoch reached at least this value (reconfigurations
    /// happened and were fenced).
    EpochAtLeast(u32),
    /// Wall clock (netsim: simulated completion time) under this
    /// bound, milliseconds.
    WallUnderMs(u64),
    /// p99 admission-to-first-aggregate across admitted jobs under
    /// this bound, milliseconds (sched runner).
    P99FirstAggregateUnderMs(u64),
}

/// One complete, named experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    /// One-line description for catalogs.
    pub descr: String,
    pub runner: RunnerKind,
    pub topology: Topology,
    pub jobs: Vec<JobSpec>,
    pub faults: FaultPlan,
    pub expect: Vec<Expect>,
    /// Wall-clock budget for real-transport runs, milliseconds.
    pub max_wall_ms: u64,
    /// Base retransmission timeout, microseconds.
    pub rto_us: u64,
    /// Retransmission-timer policy.
    pub rto_mode: RtoMode,
    /// Send burst per engine poll on the transport runners.
    pub burst: usize,
    /// Restrict to these transports. `None` derives support from the
    /// scenario's features ([`Scenario::supports`]); a library
    /// scenario narrows this when an instant (e.g. a kill time) is
    /// only meaningful on one clock.
    pub only_transports: Option<Vec<Transport>>,
}

impl Scenario {
    /// Start building a scenario with this name.
    pub fn build(name: &str) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
    }

    /// Workers per job (flat) or total across racks (hierarchy).
    pub fn total_workers(&self) -> usize {
        self.topology.workers * self.topology.racks
    }

    /// Can this scenario run on `t`? Derived from its features, then
    /// narrowed by [`Scenario::only_transports`].
    pub fn supports(&self, t: Transport) -> bool {
        if let Some(only) = &self.only_transports {
            if !only.contains(&t) {
                return false;
            }
        }
        let f = &self.faults;
        match t {
            Transport::Netsim => {
                // Link-level fault injection covers loss, duplication,
                // reordering, and per-worker straggle; it still has no
                // hook for send-count kills, batch shaping, switch
                // restarts, or rack-switch crashes.
                if f.batch_loss || f.switch_restart_ms.is_some() || f.kill_rack.is_some() {
                    return false;
                }
                // Per-worker straggler links, and the §3.5 fault
                // placement for dup/reorder (results only), exist only
                // on the single-rack star; the hierarchy's duplex
                // links cannot separate the two directions.
                if (f.dup != 0.0 || f.reorder != 0.0 || !f.stragglers.is_empty())
                    && self.topology.racks != 1
                {
                    return false;
                }
                match self.runner {
                    RunnerKind::Plain => f.kills.is_empty() && f.failover_us.is_none(),
                    RunnerKind::Sharded => {
                        self.topology.racks == 1 && f.kills.is_empty() && f.failover_us.is_none()
                    }
                    RunnerKind::Ctrl => {
                        // The netsim ctrl scenario wires loss only.
                        self.topology.racks == 1
                            && f.dup == 0.0
                            && f.reorder == 0.0
                            && f.stragglers.is_empty()
                            && f.kills.len() <= 1
                            && f.kills
                                .iter()
                                .all(|(_, w)| matches!(w, KillWhen::ElapsedUs(_)))
                            && self
                                .jobs
                                .iter()
                                .all(|j| j.arrival_ms == 0 && j.elems == self.jobs[0].elems)
                    }
                    RunnerKind::Reactor { .. } | RunnerKind::Sched => false,
                }
            }
            Transport::Channel | Transport::Udp => {
                // Switch failover is simulator-only.
                if f.failover_us.is_some() {
                    return false;
                }
                if self.topology.racks != 1 {
                    // Hierarchy on a real transport runs on the reactor
                    // data plane: one job, loss faults (plain or
                    // batch-preserving) plus the scripted rack kill.
                    return matches!(self.runner, RunnerKind::Reactor { .. })
                        && self.jobs.len() == 1
                        && f.switch_restart_ms.is_none()
                        && f.kills.is_empty()
                        && f.stragglers.is_empty()
                        && f.dup == 0.0
                        && f.reorder == 0.0;
                }
                match self.runner {
                    RunnerKind::Plain | RunnerKind::Sharded | RunnerKind::Reactor { .. } => {
                        self.jobs.len() == 1 && f.switch_restart_ms.is_none()
                    }
                    RunnerKind::Ctrl => {
                        self.jobs.len() == 1
                            && f.kills.len() <= 1
                            && f.kills
                                .iter()
                                .all(|(_, w)| matches!(w, KillWhen::ElapsedUs(_)))
                            && !f.batch_loss
                    }
                    RunnerKind::Sched => {
                        f.kills.is_empty()
                            && f.stragglers.is_empty()
                            && f.dup == 0.0
                            && f.reorder == 0.0
                            && !f.batch_loss
                            && f.switch_restart_ms.is_none()
                    }
                }
            }
        }
    }

    /// Every transport this scenario can run on, in canonical order.
    pub fn supported_transports(&self) -> Vec<Transport> {
        Transport::ALL
            .into_iter()
            .filter(|t| self.supports(*t))
            .collect()
    }

    /// Structural validity: every internal cross-reference holds and
    /// the scenario runs on at least one transport.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario needs a name".into());
        }
        let t = &self.topology;
        if t.workers < 1 || t.cores < 1 || t.racks < 1 || t.k < 1 || t.pool_size < 1 {
            return Err("topology: workers/cores/racks/k/pool_size must be >= 1".into());
        }
        if t.cores > t.pool_size {
            return Err(format!("{} cores need >= {} pool slots", t.cores, t.cores));
        }
        if self.jobs.is_empty() {
            return Err("at least one job".into());
        }
        for (name, p) in [
            ("loss", self.faults.loss),
            ("dup", self.faults.dup),
            ("reorder", self.faults.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("faults.{name} = {p} is not a probability"));
            }
        }
        if self.faults.batch_loss && (self.faults.dup != 0.0 || self.faults.reorder != 0.0) {
            return Err("batch_loss supports send-side loss only".into());
        }
        let n = self.total_workers();
        for &(w, _) in &self.faults.stragglers {
            if w >= n {
                return Err(format!("straggler worker {w} >= {n} workers"));
            }
        }
        for &(w, _) in &self.faults.kills {
            if w >= n {
                return Err(format!("killed worker {w} >= {n} workers"));
            }
        }
        if let Some(j) = self.faults.target_job {
            if (j as usize) >= self.jobs.len() {
                return Err(format!("target_job {j} >= {} jobs", self.jobs.len()));
            }
        }
        match self.runner {
            RunnerKind::Sched => {}
            _ => {
                if self.jobs.iter().any(|j| j.arrival_ms != 0) {
                    return Err("staggered arrivals need the sched runner".into());
                }
            }
        }
        if matches!(self.runner, RunnerKind::Reactor { threads: 0 }) {
            return Err("reactor needs >= 1 thread".into());
        }
        if self.topology.racks > 1
            && !matches!(self.runner, RunnerKind::Plain | RunnerKind::Reactor { .. })
        {
            return Err("hierarchy (racks > 1) runs on the plain or reactor runners only".into());
        }
        if let Some((rack, _)) = self.faults.kill_rack {
            if self.topology.racks < 2 {
                return Err("kill_rack needs a hierarchy (racks > 1)".into());
            }
            if rack >= self.topology.racks {
                return Err(format!(
                    "kill_rack rack {rack} >= {} racks",
                    self.topology.racks
                ));
            }
        }
        if self
            .faults
            .kills
            .iter()
            .any(|(_, w)| matches!(w, KillWhen::AfterSends(_)))
            && matches!(self.runner, RunnerKind::Ctrl | RunnerKind::Sched)
        {
            return Err("AfterSends kills need the plain/sharded/reactor runners".into());
        }
        if self.rto_us == 0 || self.max_wall_ms == 0 || self.burst == 0 {
            return Err("rto_us, max_wall_ms and burst must be nonzero".into());
        }
        if self.supported_transports().is_empty() {
            return Err(format!(
                "scenario '{}' is runnable on no transport (features conflict)",
                self.name
            ));
        }
        Ok(())
    }

    /// Wall-clock budget as a [`Duration`].
    pub fn max_wall(&self) -> Duration {
        Duration::from_millis(self.max_wall_ms)
    }
}

/// Fluent constructor for [`Scenario`] (the logos-style builder):
/// every setter returns `self`, [`ScenarioBuilder::finish`] validates.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    sc: Scenario,
}

impl ScenarioBuilder {
    pub fn new(name: &str) -> Self {
        ScenarioBuilder {
            sc: Scenario {
                name: name.to_string(),
                descr: String::new(),
                runner: RunnerKind::Plain,
                topology: Topology::default(),
                jobs: Vec::new(),
                faults: FaultPlan {
                    seed: 1,
                    ..FaultPlan::default()
                },
                expect: Vec::new(),
                max_wall_ms: 10_000,
                rto_us: 2_000,
                rto_mode: RtoMode::Adaptive,
                burst: 8,
                only_transports: None,
            },
        }
    }

    pub fn descr(mut self, d: &str) -> Self {
        self.sc.descr = d.to_string();
        self
    }

    pub fn runner(mut self, r: RunnerKind) -> Self {
        self.sc.runner = r;
        self
    }

    pub fn topology_with(mut self, f: impl FnOnce(&mut Topology)) -> Self {
        f(&mut self.sc.topology);
        self
    }

    pub fn workers(mut self, n: usize) -> Self {
        self.sc.topology.workers = n;
        self
    }

    pub fn cores(mut self, n: usize) -> Self {
        self.sc.topology.cores = n;
        self
    }

    pub fn racks(mut self, n: usize) -> Self {
        self.sc.topology.racks = n;
        self
    }

    pub fn pool(mut self, n: usize) -> Self {
        self.sc.topology.pool_size = n;
        self
    }

    pub fn k(mut self, n: usize) -> Self {
        self.sc.topology.k = n;
        self
    }

    pub fn capacity(mut self, n: u32) -> Self {
        self.sc.topology.capacity = n;
        self
    }

    /// Add one job.
    pub fn job(mut self, j: JobSpec) -> Self {
        self.sc.jobs.push(j);
        self
    }

    /// Add a default job customized in place.
    pub fn job_with(mut self, f: impl FnOnce(&mut JobSpec)) -> Self {
        let mut j = JobSpec::default();
        f(&mut j);
        self.sc.jobs.push(j);
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.sc.faults.seed = s;
        self
    }

    pub fn loss(mut self, p: f64) -> Self {
        self.sc.faults.loss = p;
        self
    }

    pub fn dup(mut self, p: f64) -> Self {
        self.sc.faults.dup = p;
        self
    }

    pub fn reorder(mut self, p: f64) -> Self {
        self.sc.faults.reorder = p;
        self
    }

    pub fn batch_loss(mut self) -> Self {
        self.sc.faults.batch_loss = true;
        self
    }

    pub fn straggler(mut self, worker: usize, stall_us: u64) -> Self {
        self.sc.faults.stragglers.push((worker, stall_us));
        self
    }

    pub fn kill_at_us(mut self, worker: usize, at_us: u64) -> Self {
        self.sc
            .faults
            .kills
            .push((worker, KillWhen::ElapsedUs(at_us)));
        self
    }

    pub fn kill_after_sends(mut self, worker: usize, sends: u64) -> Self {
        self.sc
            .faults
            .kills
            .push((worker, KillWhen::AfterSends(sends)));
        self
    }

    pub fn kill_rack_at_us(mut self, rack: usize, at_us: u64) -> Self {
        self.sc.faults.kill_rack = Some((rack, at_us));
        self
    }

    pub fn switch_restart_ms(mut self, ms: u64) -> Self {
        self.sc.faults.switch_restart_ms = Some(ms);
        self
    }

    pub fn failover_us(mut self, us: u64) -> Self {
        self.sc.faults.failover_us = Some(us);
        self
    }

    pub fn target_job(mut self, j: u8) -> Self {
        self.sc.faults.target_job = Some(j);
        self
    }

    pub fn expect(mut self, e: Expect) -> Self {
        self.sc.expect.push(e);
        self
    }

    pub fn max_wall_ms(mut self, ms: u64) -> Self {
        self.sc.max_wall_ms = ms;
        self
    }

    pub fn rto_us(mut self, us: u64) -> Self {
        self.sc.rto_us = us;
        self
    }

    pub fn fixed_rto(mut self) -> Self {
        self.sc.rto_mode = RtoMode::Fixed;
        self
    }

    pub fn rto_mode(mut self, m: RtoMode) -> Self {
        self.sc.rto_mode = m;
        self
    }

    pub fn burst(mut self, n: usize) -> Self {
        self.sc.burst = n;
        self
    }

    /// Narrow to these transports (overrides feature derivation).
    pub fn only(mut self, ts: &[Transport]) -> Self {
        self.sc.only_transports = Some(ts.to_vec());
        self
    }

    /// Validate and produce the scenario. A builder without jobs gets
    /// one default job.
    pub fn finish(mut self) -> Result<Scenario, String> {
        if self.sc.jobs.is_empty() {
            self.sc.jobs.push(JobSpec::default());
        }
        if self.sc.expect.is_empty() {
            self.sc.expect.push(Expect::Completes);
        }
        self.sc.validate()?;
        Ok(self.sc)
    }
}
