//! Multi-tenant aggregation scheduler: one long-lived switch slot
//! pool shared fairly by a churning population of jobs.
//!
//! The paper provisions one pool per job and sizes it offline (§5.3).
//! A rack in steady state does not look like that: training jobs
//! arrive, finish, crash, and differ in importance. This module owns
//! the slot pool for the fleet and serves every concurrent job over
//! its whole lifecycle:
//!
//! - **Policy** ([`Scheduler`]): weighted max-min fair sharing within
//!   a priority class, strict priority between classes ([`Class::High`]
//!   is served its full demand before [`Class::BestEffort`] sees a
//!   slot), per-tenant quotas (caps) and guaranteed floors
//!   (`min_slots`). Admission control rejects a tenant whose floor no
//!   longer fits.
//! - **Mechanism**: re-running [`Scheduler::allocation`] after every
//!   arrival and departure, then steering each live job to its new
//!   share with [`crate::controller::Controller::resize_job`] — the
//!   quiesce-at-chunk-frontier + epoch-bump primitive. Preemption is
//!   not a special case: a high-priority arrival simply shrinks the
//!   best-effort tenants' allocations, and the §5.4 epoch fence
//!   guarantees their in-flight traffic from the old partition is
//!   counted-and-dropped, never aggregated. No committed chunk is
//!   lost because the quiesce frontier is, by construction, the set
//!   of chunks aggregated at every member.
//! - **Isolation accounting** ([`JobOutcome`]): per-job retransmit,
//!   stale-epoch, injected-fault, and latency counters, measured per
//!   tenant so a noisy neighbor's loss storm is visible in *its* row
//!   and provably absent from the quiet tenant's.
//!
//! [`run_scheduled`] drives a full churn scenario over a real
//! transport fabric (in-memory channels or UDP) on two threads: the
//! multi-job switch runs on its own, and the driver thread's one lane
//! holds the [`ControllerEndpoint`] (the [`Controller`] and the
//! [`Scheduler`], the arrivals its deadlines) and every admitted job's
//! [`crate::runner::WorkerEndpoint`]s. Every lifecycle event is
//! timestamped for the `BENCH_multijob` churn benchmark. That driver is
//! the control plane's only threaded one:
//! [`crate::runner::run_controlled`] is a one-job run of it, with the
//! worker-kill and switch-restart scripts only it sets.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use switchml_core::config::{Protocol, TimeNs};
use switchml_core::error::{Error, Result};
use switchml_core::switch::pipeline::PipelineModel;
use switchml_core::switch::SwitchStats;
use switchml_core::worker::engine::EngineStats;
use switchml_core::worker::stream::TensorStream;
use switchml_transport::endpoint::{self, Endpoint, Lane};
use switchml_transport::{Port, PortStats, ReactorStats, TxBatch, SWITCH_ENDPOINT};

use crate::controller::{Controller, CtrlConfig};
use crate::runner::{Arrival, ControllerEndpoint, Note, WorkerEndpoint, WorkerOut, BURST};
use crate::tenant::{TenantSwitch, TenantWorker};

/// Priority class of a tenant. [`Class::High`] tenants are served
/// their full demand (up to quota) before any [`Class::BestEffort`]
/// tenant receives a slot beyond its guaranteed floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    High,
    BestEffort,
}

/// One tenant's scheduling contract.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub job: u8,
    pub class: Class,
    /// Weight for max-min sharing within the class (≥ 1).
    pub weight: u32,
    /// Slot cap. `0` means "no cap beyond pool capacity".
    pub quota: u32,
    /// Guaranteed floor; admission fails if floors no longer fit.
    pub min_slots: u32,
}

impl TenantSpec {
    fn quota_eff(&self, capacity: u32) -> u32 {
        if self.quota == 0 {
            capacity
        } else {
            self.quota
        }
    }
}

/// The policy core: a pure, deterministic allocator over the slot
/// pool. It holds no transport or controller state, so every policy
/// property (fairness, priority, quotas, floors) is unit-testable
/// without threads.
#[derive(Debug)]
pub struct Scheduler {
    capacity: u32,
    tenants: BTreeMap<u8, TenantSpec>,
}

impl Scheduler {
    pub fn new(capacity: u32) -> Self {
        Scheduler {
            capacity,
            tenants: BTreeMap::new(),
        }
    }

    /// Admission control: a tenant enters only if every live floor —
    /// including its own — still fits in the pool. Weights and floors
    /// are normalized here so `allocation` never divides by zero or
    /// hands out a floor above a cap.
    pub fn admit(&mut self, mut spec: TenantSpec) -> Result<()> {
        if self.tenants.contains_key(&spec.job) {
            return Err(Error::InvalidConfig(format!(
                "tenant {} already admitted",
                spec.job
            )));
        }
        spec.weight = spec.weight.max(1);
        spec.min_slots = spec.min_slots.max(1).min(spec.quota_eff(self.capacity));
        let floors: u32 = self.tenants.values().map(|t| t.min_slots).sum();
        if floors + spec.min_slots > self.capacity {
            return Err(Error::InvalidConfig(format!(
                "tenant {}: floor {} does not fit ({} of {} slots already guaranteed)",
                spec.job, spec.min_slots, floors, self.capacity
            )));
        }
        self.tenants.insert(spec.job, spec);
        Ok(())
    }

    /// Remove a departed (or crashed) tenant; its slots return to the
    /// pool at the next `allocation`.
    pub fn remove(&mut self, job: u8) -> bool {
        self.tenants.remove(&job).is_some()
    }

    /// The target partition of the pool under the current population:
    /// every tenant gets its floor, then remaining slots water-fill
    /// the [`Class::High`] tenants (weighted max-min, quota-capped),
    /// then whatever is left water-fills [`Class::BestEffort`].
    ///
    /// Deterministic: ties break toward the lower job id. The sum of
    /// the returned shares never exceeds `capacity`.
    pub fn allocation(&self) -> BTreeMap<u8, u32> {
        let mut alloc: BTreeMap<u8, u32> = self
            .tenants
            .values()
            .map(|t| (t.job, t.min_slots))
            .collect();
        let mut left = self.capacity.saturating_sub(alloc.values().sum::<u32>());
        for class in [Class::High, Class::BestEffort] {
            while left > 0 {
                // Weighted max-min, one slot at a time: feed the
                // unsaturated tenant with the lowest share-per-weight.
                let next = self
                    .tenants
                    .values()
                    .filter(|t| t.class == class && alloc[&t.job] < t.quota_eff(self.capacity))
                    .min_by(|a, b| {
                        let ra = alloc[&a.job] as u64 * b.weight as u64;
                        let rb = alloc[&b.job] as u64 * a.weight as u64;
                        ra.cmp(&rb).then(a.job.cmp(&b.job))
                    })
                    .map(|t| t.job);
                let Some(job) = next else { break };
                *alloc.get_mut(&job).unwrap() += 1;
                left -= 1;
            }
        }
        alloc
    }
}

/// Slots the pipeline model can hold for jobs keyed with `k` elements
/// per packet: the pool capacity [`run_scheduled`] hands its
/// [`Scheduler`]. Per-slot cost (two pool versions of `k` aggregators
/// plus bookkeeping) is linear in the slot count, so the division is
/// exact.
pub fn slot_capacity(model: &PipelineModel, k: usize) -> u32 {
    let probe = Protocol {
        k,
        pool_size: 1,
        ..Protocol::default()
    };
    let r = model
        .validate(&probe)
        .expect("one-slot probe must validate");
    (model.register_sram_bytes / (r.pool_bytes + r.bookkeeping_bytes)) as u32
}

/// One job in a churn scenario.
#[derive(Debug, Clone)]
pub struct SchedJob {
    pub tenant: TenantSpec,
    /// Per-worker tensor sets; `updates.len()` is the worker count.
    pub updates: Vec<Vec<Vec<f32>>>,
    /// When (relative to run start) the job arrives.
    pub submit_at: Duration,
}

/// Knobs for a scheduled run.
#[derive(Debug, Clone)]
pub struct SchedRunConfig {
    /// Abort the run if the population has not drained by then.
    pub max_wall: Duration,
    pub heartbeat: Duration,
    pub failure_timeout: Duration,
    /// Engine shards per worker.
    pub n_cores: usize,
    /// Theorem-2 gradient bound `B`.
    pub bound: f64,
    /// Pool capacity in slots handed to the [`Scheduler`]. Must fit
    /// the physical switch's SRAM (see [`slot_capacity`]).
    pub capacity: u32,
}

impl Default for SchedRunConfig {
    fn default() -> Self {
        SchedRunConfig {
            max_wall: Duration::from_secs(60),
            heartbeat: Duration::from_millis(2),
            failure_timeout: Duration::from_millis(25),
            n_cores: 1,
            bound: 16.0,
            capacity: 64,
        }
    }
}

/// Per-tenant lifecycle record: the isolation ledger. Everything here
/// is measured, not asserted — the isolation tests and the churn
/// benchmark read these rows.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    pub job: u8,
    /// `false`: the scheduler's admission control rejected the tenant
    /// (floors no longer fit); nothing below is meaningful.
    pub admitted: bool,
    pub submit_at: Duration,
    /// Admission-to-first-aggregate: earliest aggregated result seen
    /// by any of the job's workers, relative to `submit_at`.
    pub first_aggregate: Option<Duration>,
    /// Admission-to-completion, relative to `submit_at`.
    pub completed_at: Option<Duration>,
    /// Engine counters summed over the job's workers (retransmits,
    /// worker-side epoch fences, RTT estimates).
    pub worker_stats: EngineStats,
    /// Switch-side counters summed over every pool this job's epochs
    /// admitted (stale-epoch fence hits land here).
    pub switch_stats: SwitchStats,
    /// Faults injected into this job's worker ports (loss storms a
    /// chaos fabric aimed at this tenant).
    pub injected_faults: u64,
    /// Every worker finished and produced bit-identical tensors.
    pub results_identical: bool,
    /// Times the scheduler repartitioned this job (grow or shrink).
    pub resizes: u32,
    pub final_epoch: u32,
}

/// What a churn run produced.
#[derive(Debug)]
pub struct SchedRunReport {
    /// One row per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Driver event log: admissions, rejections, repartitions,
    /// completions.
    pub events: Vec<String>,
    /// Fabric-wide transport counters.
    pub transport_stats: PortStats,
    /// The driver thread's lane: `threads` = 1, `engines` = worker
    /// endpoints it seated over the run, `polls`/`rx_batches` = its
    /// seats' zero-timeout burst receives (the controller's among them)
    /// and those that returned data, `timer_fires` = deadlines fired
    /// (retransmissions, heartbeats, the scripted kill, and the
    /// controller's ticks, arrivals and failover), and its idle waits.
    pub driver: ReactorStats,
    pub wall: Duration,
}

impl SchedRunReport {
    /// All admitted jobs ran to completion with agreeing results.
    pub fn all_complete(&self) -> bool {
        self.outcomes
            .iter()
            .filter(|o| o.admitted)
            .all(|o| o.completed_at.is_some() && o.results_identical)
    }

    /// 99th percentile (nearest rank) of `pick` over the jobs it
    /// returns a value for — e.g. `|o| o.first_aggregate`. `None` when
    /// no job does.
    pub fn p99(&self, pick: impl Fn(&JobOutcome) -> Option<Duration>) -> Option<Duration> {
        let mut xs: Vec<Duration> = self.outcomes.iter().filter_map(pick).collect();
        xs.sort_unstable();
        let rank = (xs.len() as f64 * 0.99).ceil() as usize;
        xs.get(rank.saturating_sub(1)).copied()
    }
}

/// Endpoint layout for a scheduled run over `jobs`:
/// `0` = switch, then each job's workers in submission order, last =
/// controller. Returns the total fabric size.
pub fn sched_fabric_size(jobs: &[SchedJob]) -> usize {
    2 + jobs.iter().map(|j| j.updates.len()).sum::<usize>()
}

/// The fault scripts [`drive`] runs; [`run_scheduled`] passes none.
#[derive(Clone, Copy, Default)]
pub(crate) struct Faults {
    /// Crash the worker at this fabric endpoint after the delay,
    /// silently, as a process would.
    pub kill: Option<(usize, Duration)>,
    /// Restart the switch process after the delay: every pool and
    /// admission is lost (§5.4). The controller learns of it one failure
    /// timeout later and fails every running job over in place.
    pub switch_restart: Option<Duration>,
}

/// A seat on the driver's lane: a lane holds one endpoint type, and this
/// one's are the controller and the tenant workers.
enum Seat {
    Ctrl(ControllerEndpoint),
    Worker(WorkerEndpoint),
}

/// `$body` on whichever endpoint `$seat` holds, bound to `$ep`.
macro_rules! either {
    ($seat:expr, $ep:ident => $body:expr) => {
        match $seat {
            Seat::Ctrl($ep) => $body,
            Seat::Worker($ep) => $body,
        }
    };
}

impl Endpoint for Seat {
    const ENGINE: bool = true;

    fn on_frame(
        &mut self,
        from: usize,
        frame: &[u8],
        now: TimeNs,
        txb: &mut TxBatch,
    ) -> Result<bool> {
        either!(self, ep => ep.on_frame(from, frame, now, txb))
    }

    fn on_timer(&mut self, now: TimeNs, txb: &mut TxBatch) -> Result<()> {
        either!(self, ep => ep.on_timer(now, txb))
    }

    fn next_deadline(&self) -> Option<TimeNs> {
        either!(self, ep => ep.next_deadline())
    }

    fn is_done(&self) -> bool {
        either!(self, ep => ep.is_done())
    }

    fn frame_capacity(&self) -> usize {
        either!(self, ep => ep.frame_capacity())
    }

    fn drains(&self) -> bool {
        either!(self, ep => ep.drains())
    }
}

/// Drive a churning job population through one shared switch under
/// the scheduler's slot policy. See the module docs for the thread
/// layout; the calling thread becomes the driver (controller +
/// scheduler + worker endpoints + event loop).
pub fn run_scheduled<P: Port + 'static>(
    ports: Vec<P>,
    jobs: Vec<SchedJob>,
    base: &Protocol,
    cfg: &SchedRunConfig,
) -> Result<SchedRunReport> {
    Ok(drive(ports, jobs, base, cfg, Faults::default(), |_, _| {})?.0)
}

/// The one threaded driver of the control plane, behind
/// [`run_scheduled`] and [`crate::runner::run_controlled`]. It places
/// the tenant switch on a thread of its own and seats the
/// [`ControllerEndpoint`] on the calling thread's lane. A pass is one
/// lane step, then the controller's notes (an admitted job's workers are
/// seated on the lane, a completed job's harvested), then the lane's
/// idle wait. `keep` receives each harvested job's worker outputs in
/// endpoint order. Returns the report, the controller and the switch.
pub(crate) fn drive<P: Port + 'static>(
    ports: Vec<P>,
    mut jobs: Vec<SchedJob>,
    base: &Protocol,
    cfg: &SchedRunConfig,
    faults: Faults,
    mut keep: impl FnMut(u8, Vec<Result<WorkerOut>>),
) -> Result<(SchedRunReport, Controller, TenantSwitch)> {
    if ports.len() != sched_fabric_size(&jobs) {
        return Err(Error::InvalidConfig(format!(
            "need {} ports (switch + workers + controller), got {}",
            sched_fabric_size(&jobs),
            ports.len()
        )));
    }
    // The scheduler must never allocate more than the physical switch
    // can admit, or a repartition would strand a job at admission.
    let phys = slot_capacity(&PipelineModel::default(), base.k);
    if cfg.capacity > phys {
        return Err(Error::InvalidConfig(format!(
            "capacity {} slots exceeds the switch's {} (k = {})",
            cfg.capacity, phys, base.k
        )));
    }
    // A transport whose timed receive wakes late cannot honor a finer
    // RTO: resolve it before any worker or reconfiguration sees it.
    let base = &switchml_transport::resolve_run_proto(
        &Protocol {
            // Validation needs plausible placeholders; per-job protos
            // override both. The largest job's size also sizes the
            // switch's frames (an `AdmitJob` lists its members).
            n_workers: 2.max(jobs.iter().map(|j| j.updates.len()).max().unwrap_or(2)),
            pool_size: cfg.capacity.max(1) as usize,
            ..base.clone()
        },
        &ports,
    )?;

    jobs.sort_by_key(|j| j.submit_at);
    let ctrl_ep = ports.len() - 1;
    let ns = |d: Duration| d.as_nanos() as TimeNs;
    let arrivals = (jobs.iter())
        .map(|j| {
            Ok(Arrival {
                at: ns(j.submit_at),
                tenant: j.tenant.clone(),
                n_workers: j.updates.len(),
                n_chunks: TensorStream::f32_chunks(&j.updates[0], base.mode, base.k)?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let ctrl_cfg = CtrlConfig::with_timeouts(ns(cfg.heartbeat), ns(cfg.failure_timeout));
    // The controller learns of a switch restart only after the switch
    // has been silent for a failure timeout: failing over before the
    // wipe would let the freshly admitted pools be wiped too.
    let failover = (faults.switch_restart).map(|d| (ns(d + cfg.failure_timeout), 0, 0));
    let ctrl = ControllerEndpoint::new(
        ctrl_cfg,
        vec![SWITCH_ENDPOINT],
        cfg.capacity,
        base.clone(),
        cfg.bound,
        arrivals,
        failover,
    );
    // Workers take endpoints in submission order, from 1.
    let (mut waiting, mut next_ep) = (VecDeque::from(jobs), 1);

    let mut ports: Vec<Option<P>> = ports.into_iter().map(Some).collect();
    let ctrl_port = ports[ctrl_ep].take().expect("controller port");
    let restart_at = faults.switch_restart.map(ns);
    let switch_port = ports[0].take().expect("switch port");

    let (out, ran) = endpoint::run(cfg.max_wall, |ex| {
        let switch = TenantSwitch::new(ctrl_ep, base, restart_at);
        let switch = ex.place(BURST, move || Ok(vec![(switch, switch_port)]));
        let mut lane = Lane::new(ex.t0, BURST);
        let ctrl_seat = lane.add(Seat::Ctrl(ctrl), ctrl_port);

        // Admission instant and worker seats (endpoint order) per job.
        let mut live: BTreeMap<u8, (Duration, Vec<usize>)> = BTreeMap::new();
        // Submission-order rows, filled in as jobs finish.
        let mut outcomes: Vec<JobOutcome> = Vec::new();
        let mut row: BTreeMap<u8, usize> = BTreeMap::new();
        let mut transport_stats = PortStats::default();

        let mut done = false;
        while !done && ex.t0.elapsed() <= cfg.max_wall {
            let step = lane.step()?;
            let Some(Seat::Ctrl(ctrl)) = lane.get_mut(ctrl_seat) else {
                unreachable!("the controller's seat")
            };
            done = ctrl.is_done();
            for note in std::mem::take(&mut ctrl.notes) {
                match note {
                    Note::Arrived { job, at, admitted } => {
                        let updates = waiting.pop_front().expect("one per arrival").updates;
                        let ep0 = next_ep;
                        next_ep += updates.len();
                        let submitted = Duration::from_nanos(at);
                        row.insert(job, outcomes.len());
                        outcomes.push(JobOutcome {
                            job,
                            admitted: admitted.is_ok(),
                            submit_at: submitted,
                            ..JobOutcome::default()
                        });
                        let Ok(proto) = admitted else { continue };
                        let seats = (updates.into_iter().enumerate())
                            .map(|(w, updates)| {
                                let ep = ep0 + w;
                                let wport = ports[ep].take().expect("worker port unused");
                                let kill = (faults.kill)
                                    .filter(|&(victim, _)| victim == ep)
                                    .map(|(_, after)| after);
                                let worker = TenantWorker::new(
                                    job,
                                    ctrl_ep,
                                    updates,
                                    proto.clone(),
                                    cfg.n_cores,
                                );
                                let worker =
                                    WorkerEndpoint::new(worker, ctrl_ep, cfg.heartbeat, kill);
                                lane.add(Seat::Worker(worker), wport)
                            })
                            .collect();
                        live.insert(job, (submitted, seats));
                    }
                    Note::Complete { job, at } => {
                        if let Some((submitted, seats)) = live.remove(&job) {
                            let o = &mut outcomes[row[&job]];
                            o.completed_at = Some(Duration::from_nanos(at) - submitted);
                            let outs =
                                harvest(&mut lane, seats, o, submitted, &mut transport_stats);
                            keep(job, outs);
                        }
                    }
                }
            }
            lane.settle(step);
        }

        // Teardown (drained population, or wall budget exhausted with
        // stragglers — their rows keep completed_at = None).
        ex.stop();
        let Some((Seat::Ctrl(ctrl), ctrl_stats)) = lane.take(ctrl_seat) else {
            unreachable!("the controller's seat")
        };
        transport_stats.merge(ctrl_stats);
        let mut events = ctrl.events;
        for (id, (submitted, seats)) in live {
            events.push(format!("job {id}: torn down incomplete"));
            let o = &mut outcomes[row[&id]];
            let outs = harvest(&mut lane, seats, o, submitted, &mut transport_stats);
            keep(id, outs);
            o.results_identical = false;
        }
        // Every reconfiguration (grow, shrink, failover) bumps the epoch.
        for o in outcomes.iter_mut().filter(|o| o.admitted) {
            o.final_epoch = ctrl.ctrl.epoch(o.job).unwrap_or(0);
            o.resizes = o.final_epoch;
        }
        let mut switch = ex.join(vec![switch]).pop().expect("the tenant switch");
        switch.restart(); // harvest the pools still admitted
        for (wire, stats) in &switch.per_pool {
            if let Some(id) = ctrl.wires.get(wire) {
                outcomes[row[id]].switch_stats.merge(*stats);
            }
        }
        let mut driver = lane.stats();
        driver.engines -= 1; // the controller's seat is no engine
        let report = SchedRunReport {
            outcomes,
            events,
            transport_stats,
            driver,
            wall: Duration::ZERO,
        };
        Ok((report, ctrl.ctrl, switch))
    });
    let (mut report, ctrl, switch) = out?;
    ran.status?;
    report.transport_stats.merge(ran.ports);
    report.wall = ran.wall;
    Ok((report, ctrl, switch))
}

/// Take a job's worker endpoints off the driver's lane, fold their
/// counters into its row and every port's into `transport`, and hand
/// the outputs back in endpoint order.
fn harvest<P: Port>(
    lane: &mut Lane<Seat, P>,
    seats: Vec<usize>,
    o: &mut JobOutcome,
    submitted: Duration,
    transport: &mut PortStats,
) -> Vec<Result<WorkerOut>> {
    let outs: Vec<Result<WorkerOut>> = (seats.into_iter())
        .map(|i| {
            let Some((Seat::Worker(worker), port_stats)) = lane.take(i) else {
                unreachable!("a live job's seat")
            };
            worker.finish(port_stats)
        })
        .collect();
    for out in outs.iter().flatten() {
        o.worker_stats.merge(out.stats);
        o.injected_faults += out.port_stats.injected_faults();
        transport.merge(out.port_stats);
        if let Some(t) = out.first_result {
            let rel = t.saturating_sub(submitted);
            o.first_aggregate = Some(o.first_aggregate.map_or(rel, |cur| cur.min(rel)));
        }
    }
    let tensors: Vec<_> = (outs.iter())
        .map(|r| r.as_ref().ok().and_then(|w| w.tensors.as_ref()))
        .collect();
    o.results_identical = !tensors.is_empty()
        && tensors.iter().all(|t| t.is_some())
        && tensors.windows(2).all(|w| w[0] == w[1]);
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_controlled, CtrlRunConfig};
    use std::sync::Arc;
    use switchml_transport::channel::channel_fabric;
    use switchml_transport::faulty::{FaultyConfig, FaultyPort, FaultyStats};
    use switchml_transport::udp::udp_fabric;

    fn tenant(job: u8, class: Class, weight: u32, quota: u32, min_slots: u32) -> TenantSpec {
        TenantSpec {
            job,
            class,
            weight,
            quota,
            min_slots,
        }
    }

    /// Nearest-rank p99 over the jobs `pick` selects; none selected ⇒
    /// `None`.
    #[test]
    fn p99_is_nearest_rank_over_picked_jobs() {
        let outcome = |job: u8, ms: Option<u64>| JobOutcome {
            job,
            admitted: true,
            submit_at: Duration::ZERO,
            first_aggregate: ms.map(Duration::from_millis),
            completed_at: None,
            worker_stats: EngineStats::default(),
            switch_stats: SwitchStats::default(),
            injected_faults: 0,
            results_identical: false,
            resizes: 0,
            final_epoch: 0,
        };
        let report = SchedRunReport {
            outcomes: (0..150u8)
                .map(|j| outcome(j, (j > 0).then_some(j as u64)))
                .collect(),
            events: Vec::new(),
            transport_stats: PortStats::default(),
            driver: ReactorStats::default(),
            wall: Duration::ZERO,
        };
        // 149 samples, 1..=149 ms: nearest rank ⌈149 × 0.99⌉ = 148.
        let p = report.p99(|o| o.first_aggregate);
        assert_eq!(p, Some(Duration::from_millis(148)));
        assert_eq!(report.p99(|o| o.completed_at), None);
    }

    #[test]
    fn weighted_max_min_within_a_class() {
        let mut s = Scheduler::new(30);
        s.admit(tenant(0, Class::BestEffort, 1, 0, 1)).unwrap();
        s.admit(tenant(1, Class::BestEffort, 2, 0, 1)).unwrap();
        let a = s.allocation();
        assert_eq!(a[&0], 10);
        assert_eq!(a[&1], 20);
        assert_eq!(a.values().sum::<u32>(), 30);
    }

    #[test]
    fn high_class_is_served_before_best_effort() {
        let mut s = Scheduler::new(16);
        s.admit(tenant(0, Class::BestEffort, 1, 0, 1)).unwrap();
        assert_eq!(s.allocation()[&0], 16, "alone, the tenant owns the pool");
        s.admit(tenant(1, Class::High, 1, 12, 1)).unwrap();
        let a = s.allocation();
        assert_eq!(a[&1], 12, "high class fills to its quota first");
        assert_eq!(a[&0], 4, "best effort keeps only the remainder");
    }

    #[test]
    fn quota_caps_and_excess_flows_to_others() {
        let mut s = Scheduler::new(12);
        s.admit(tenant(0, Class::BestEffort, 1, 3, 1)).unwrap();
        s.admit(tenant(1, Class::BestEffort, 1, 0, 1)).unwrap();
        let a = s.allocation();
        assert_eq!(a[&0], 3);
        assert_eq!(a[&1], 9);
    }

    #[test]
    fn floors_gate_admission_and_departure_frees_them() {
        let mut s = Scheduler::new(8);
        s.admit(tenant(0, Class::BestEffort, 1, 0, 5)).unwrap();
        assert!(s.admit(tenant(1, Class::BestEffort, 1, 0, 4)).is_err());
        s.admit(tenant(2, Class::High, 1, 0, 3)).unwrap();
        assert_eq!(s.allocation()[&0], 5, "floors always honored");
        assert!(s.remove(0));
        s.admit(tenant(1, Class::BestEffort, 1, 0, 4)).unwrap();
        let a = s.allocation();
        assert_eq!(a.values().sum::<u32>(), 8);
        assert!(a[&2] >= 3 && a[&1] >= 4);
    }

    #[test]
    fn allocation_never_exceeds_capacity_under_churn() {
        let mut s = Scheduler::new(17);
        for j in 0..6u8 {
            let class = if j % 2 == 0 {
                Class::High
            } else {
                Class::BestEffort
            };
            let _ = s.admit(tenant(
                j,
                class,
                1 + j as u32,
                (j as u32 % 3) * 4,
                1 + j as u32 % 2,
            ));
        }
        let a = s.allocation();
        assert!(a.values().sum::<u32>() <= 17);
        s.remove(2);
        s.remove(3);
        let a = s.allocation();
        assert!(a.values().sum::<u32>() <= 17);
        for (&j, &slots) in &a {
            assert!(slots >= 1, "tenant {j} starved below its floor");
        }
    }

    // ---- threaded integration --------------------------------------

    fn base_proto() -> Protocol {
        Protocol {
            n_workers: 2,
            k: 8,
            pool_size: 16,
            rto_ns: 2_000_000,
            scaling_factor: 10_000.0,
            ..Protocol::default()
        }
    }

    fn updates(n: usize, elems: usize, salt: u32) -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|w| {
                vec![(0..elems)
                    .map(|i| (w + 1) as f32 * 0.5 + ((i as u32 + salt) % 7) as f32 * 0.25)
                    .collect()]
            })
            .collect()
    }

    #[test]
    fn two_tenants_share_the_switch_and_both_complete() {
        let jobs = vec![
            SchedJob {
                tenant: tenant(0, Class::BestEffort, 1, 0, 1),
                updates: updates(2, 4096, 0),
                submit_at: Duration::ZERO,
            },
            SchedJob {
                tenant: tenant(1, Class::BestEffort, 1, 0, 1),
                updates: updates(2, 4096, 7),
                submit_at: Duration::from_millis(3),
            },
        ];
        let ports = channel_fabric(sched_fabric_size(&jobs));
        let cfg = SchedRunConfig {
            capacity: 32,
            ..SchedRunConfig::default()
        };
        let report = run_scheduled(ports, jobs, &base_proto(), &cfg).unwrap();
        assert!(report.all_complete(), "events: {:?}", report.events);
        for o in &report.outcomes {
            assert!(o.admitted);
            assert!(
                o.first_aggregate.is_some(),
                "job {} never aggregated",
                o.job
            );
            assert!(
                o.switch_stats.completions > 0,
                "job {} has no switch-side completions attributed",
                o.job
            );
        }
    }

    /// A high-priority arrival preempts slots from a running
    /// best-effort tenant and its departure hands them back: the victim
    /// is shrunk and regrown at its chunk frontier, and still finishes
    /// bit-identical to a run of it alone on the whole pool, so neither
    /// repartition loses a committed chunk or aggregates a straggler.
    fn high_priority_arrival_preempts_running_best_effort<P: Port + 'static>(
        fabric: impl Fn(usize) -> Vec<P>,
    ) {
        let victim = updates(2, VICTIM_ELEMS, 0);
        let jobs = vec![
            SchedJob {
                tenant: tenant(0, Class::BestEffort, 1, 0, 2),
                updates: victim.clone(),
                submit_at: Duration::ZERO,
            },
            SchedJob {
                tenant: tenant(1, Class::High, 1, 24, 2),
                updates: updates(2, 8192, 3),
                submit_at: Duration::from_millis(10),
            },
        ];
        let cfg = SchedRunConfig {
            capacity: 32,
            ..SchedRunConfig::default()
        };
        let mut kept = Vec::new();
        let ports = fabric(sched_fabric_size(&jobs));
        let (report, ctrl, _) = drive(
            ports,
            jobs,
            &base_proto(),
            &cfg,
            Faults::default(),
            |job, outs| {
                if job == 0 {
                    kept = outs;
                }
            },
        )
        .unwrap();
        let events = &report.events;
        assert!(report.all_complete(), "events: {events:?}");
        let o = &report.outcomes[0];
        assert!(o.resizes >= 2, "never shrunk and regrown: {events:?}");
        assert!(o.final_epoch >= 2, "events: {events:?}");
        for slots in [8, 32] {
            let step = format!("job 0: repartitioned to {slots} slots");
            assert!(events.contains(&step), "events: {events:?}");
        }
        assert_eq!(ctrl.pool_size(0), Some(32));

        let alone_proto = Protocol {
            pool_size: 32,
            ..base_proto()
        };
        let alone =
            run_controlled(fabric(4), victim, &alone_proto, &CtrlRunConfig::default()).unwrap();
        assert_eq!(alone.final_epoch, 0);
        assert_eq!(kept.len(), 2);
        for (w, out) in kept.into_iter().enumerate() {
            let tensors = out.unwrap().tensors;
            assert!(tensors.is_some(), "worker {w} finished");
            assert_eq!(tensors, alone.results[w], "worker {w}");
        }
    }

    /// Large enough that the best-effort tenant is still streaming when
    /// the high-priority one arrives and when it leaves.
    const VICTIM_ELEMS: usize = 131_072;

    #[test]
    fn high_priority_arrival_preempts_running_best_effort_over_channels() {
        high_priority_arrival_preempts_running_best_effort(channel_fabric);
    }

    #[test]
    fn high_priority_arrival_preempts_running_best_effort_over_udp() {
        high_priority_arrival_preempts_running_best_effort(|size| udp_fabric(size).unwrap());
    }

    /// Every port's counters reach `transport_stats`, worker ports
    /// included: a datagram longer than a worker's frame, queued on its
    /// endpoint before the run, is dropped, counted once, and the job
    /// still completes.
    #[test]
    fn udp_worker_send_errors_reach_the_transport_stats() {
        use switchml_core::packet::{Packet, PacketKind, PoolVersion};
        let jobs = vec![SchedJob {
            tenant: tenant(0, Class::BestEffort, 1, 0, 1),
            updates: updates(2, 2048, 0),
            submit_at: Duration::ZERO,
        }];
        let mut forged = Packet {
            kind: PacketKind::Result,
            ..Packet::update(0, PoolVersion::V0, 0, 0, vec![7; base_proto().k])
        }
        .encode()
        .to_vec();
        forged.extend_from_slice(&[0; 64]);
        let mut ports = udp_fabric(sched_fabric_size(&jobs)).unwrap();
        ports[SWITCH_ENDPOINT].send(1, &forged);
        let report = run_scheduled(ports, jobs, &base_proto(), &SchedRunConfig::default()).unwrap();
        assert!(report.all_complete(), "events: {:?}", report.events);
        assert_eq!(report.transport_stats.send_errors, 1);
    }

    /// Isolation: a noisy tenant's loss storm must stay in the noisy
    /// tenant's row. Two runs with identical topology and scheduling —
    /// the only difference is heavy injected loss on the noisy
    /// tenant's worker ports — and the quiet tenants' p99 completion
    /// latency must stay within 2x of the storm-free baseline, with
    /// zero injected faults attributed to them.
    #[test]
    fn noisy_tenant_loss_storm_does_not_inflate_quiet_tail() {
        let mk_jobs = || {
            let mut jobs = vec![SchedJob {
                tenant: tenant(9, Class::BestEffort, 1, 16, 2),
                updates: updates(2, 32768, 11),
                submit_at: Duration::ZERO,
            }];
            for q in 0..4u8 {
                jobs.push(SchedJob {
                    tenant: tenant(q, Class::High, 1, 0, 2),
                    updates: updates(2, 8192, q as u32),
                    submit_at: Duration::from_millis(4 + 8 * q as u64),
                });
            }
            jobs
        };
        // Noisy tenant's workers are endpoints 1 and 2 (first
        // submitted job).
        let run = |loss: f64| {
            let jobs = mk_jobs();
            let stats = Arc::new(FaultyStats::default());
            let ports: Vec<FaultyPort<_>> = channel_fabric(sched_fabric_size(&jobs))
                .into_iter()
                .enumerate()
                .map(|(i, p)| {
                    let cfg = if i == 1 || i == 2 {
                        FaultyConfig::loss_only(loss)
                    } else {
                        FaultyConfig::default()
                    };
                    FaultyPort::new(p, cfg, 40 + i as u64, Arc::clone(&stats))
                })
                .collect();
            let cfg = SchedRunConfig {
                capacity: 32,
                ..SchedRunConfig::default()
            };
            run_scheduled(ports, jobs, &base_proto(), &cfg).unwrap()
        };
        let baseline = run(0.0);
        let stormy = run(0.10);
        assert!(baseline.all_complete(), "events: {:?}", baseline.events);
        assert!(stormy.all_complete(), "events: {:?}", stormy.events);

        let quiet_p99 = |r: &SchedRunReport| {
            r.outcomes
                .iter()
                .filter(|o| o.job != 9)
                .map(|o| o.completed_at.unwrap())
                .max()
                .unwrap()
        };
        let (base_p99, storm_p99) = (quiet_p99(&baseline), quiet_p99(&stormy));
        // The loss is visible — and attributed to the noisy row only.
        let noisy = stormy.outcomes.iter().find(|o| o.job == 9).unwrap();
        assert!(noisy.injected_faults > 0, "storm never hit");
        assert!(noisy.worker_stats.retx > 0, "storm caused no retransmits");
        for o in stormy.outcomes.iter().filter(|o| o.job != 9) {
            assert_eq!(
                o.injected_faults, 0,
                "job {}: a quiet tenant absorbed injected faults",
                o.job
            );
        }
        // Tail isolation, measured: quiet p99 within 2x of the
        // storm-free baseline (1 ms grace for scheduler quantum noise
        // on near-zero baselines).
        assert!(
            storm_p99 <= base_p99 * 2 + Duration::from_millis(1),
            "quiet tail inflated by the storm: {base_p99:?} -> {storm_p99:?}"
        );
    }
}
