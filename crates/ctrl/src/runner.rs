//! The control plane's endpoints, as the transport's one executor
//! ([`switchml_transport::endpoint`]) and the simulator
//! ([`crate::netsim`]) run them: a [`WorkerEndpoint`] (a [`TenantWorker`]
//! with its heartbeat and kill as deadlines) and the
//! [`ControllerEndpoint`] (the [`Controller`] and the [`Scheduler`], with
//! job arrivals, its tick and a failover as deadlines). On threads,
//! [`crate::sched`]'s driver seats both on its lane and the
//! [`crate::tenant::TenantSwitch`] parks on a thread of its own.
//! Endpoint layout: `0` = switch, `1..=n` = workers, `n + 1` =
//! controller; control-plane peer ids are the endpoint indices.
//!
//! [`run_controlled`] drives one job end to end as a one-job run of that
//! driver — including an optional scheduled worker kill, in which case
//! the controller detects the death by heartbeat timeout, quiesces the
//! survivors, shrinks the job, and the survivors finish under the
//! reconfigured `n` and `f`.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use switchml_core::config::{Protocol, TimeNs};
use switchml_core::error::{Error, Result};
use switchml_core::switch::pipeline::PipelineModel;
use switchml_core::switch::SwitchStats;
use switchml_core::worker::engine::EngineStats;
use switchml_transport::endpoint::Endpoint;
use switchml_transport::{Port, PortStats, ReactorStats, TxBatch};

use crate::controller::{Action, Controller, CtrlConfig};
use crate::msg::{chunk_bitmap, CtrlMsg, PeerId};
use crate::sched::{drive, Class, Faults, SchedJob, SchedRunConfig, Scheduler, TenantSpec};
use crate::tenant::{stage, TenantWorker};

/// Options for a controlled run.
#[derive(Debug, Clone)]
pub struct CtrlRunConfig {
    /// Abort if the job has not completed within this budget.
    pub max_wall: Duration,
    /// Engine shards per worker.
    pub n_cores: usize,
    /// Worker heartbeat interval.
    pub heartbeat: Duration,
    /// Controller failure timeout (silence before probing).
    pub failure_timeout: Duration,
    /// Crash worker `wid` (by endpoint order) after the given delay.
    pub kill: Option<(u16, Duration)>,
    /// Restart the switch process after the given delay: all pool
    /// state and job admissions are lost, as if the switch OS rebooted
    /// (§5.4). The controller notices one `failure_timeout` later and
    /// fails every job over in place — quiesce the members, compute
    /// the completion frontier, bump the epoch, re-admit — so the
    /// workers re-drive everything not yet aggregated everywhere.
    pub switch_restart: Option<Duration>,
    /// Per-worker gradient magnitude bound `B` for Theorem-2 clamping.
    pub bound: f64,
}

impl Default for CtrlRunConfig {
    fn default() -> Self {
        CtrlRunConfig {
            max_wall: Duration::from_secs(30),
            n_cores: 1,
            heartbeat: Duration::from_millis(5),
            failure_timeout: Duration::from_millis(25),
            kill: None,
            switch_restart: None,
            bound: 16.0,
        }
    }
}

/// What a controlled run produced.
#[derive(Debug)]
pub struct CtrlRunReport {
    /// Aggregated tensors per worker, endpoint order (`None` for a
    /// killed worker).
    pub results: Vec<Option<Vec<Vec<f32>>>>,
    /// Controller event log (deaths, reconfigurations, completion).
    pub events: Vec<String>,
    /// Final epoch of the job.
    pub final_epoch: u32,
    /// Surviving worker count.
    pub final_n: usize,
    /// Final negotiated scaling factor.
    pub final_f: f64,
    /// Final slot pool size (after any scheduled repartitions).
    pub final_pool: usize,
    /// Per-worker engine counters, endpoint order, summed across the
    /// worker's epochs (retransmissions, RTT estimate, epoch fences).
    pub worker_stats: Vec<EngineStats>,
    /// Switch counters summed over every pool the run admitted —
    /// including pools evicted by reconfigurations and, after a
    /// [`CtrlRunConfig::switch_restart`], pools the restart wiped.
    pub switch_stats: SwitchStats,
    /// The same counters per admitted pool, keyed by the pool's wire
    /// job id in harvest order: one entry per (job, epoch) pool the
    /// run admitted, so a reconfiguring job shows one line per epoch.
    /// This is how the chaos harness attributes stale-epoch drops to
    /// the pool that fenced them.
    pub per_pool_switch_stats: Vec<(u8, SwitchStats)>,
    /// Transport counters summed over every endpoint (switch, workers,
    /// controller).
    pub transport_stats: PortStats,
    /// The driver thread's polls and waits (see
    /// [`crate::sched::SchedRunReport::driver`]).
    pub driver: ReactorStats,
    pub wall: Duration,
}

/// Frames per receive burst on the tenant switch and on every worker
/// endpoint: enough to amortize the syscall (and engage UDP GRO, so a
/// worker's window reaches the switch — and the results come back — as
/// one train) under a multi-job flood; burst receive never waits to
/// fill, so it adds no latency when quiet.
pub(crate) const BURST: usize = 32;

/// What one worker endpoint hands back.
pub(crate) struct WorkerOut {
    /// Aggregated tensors, `None` if the worker crashed or never
    /// finished.
    pub tensors: Option<Vec<Vec<f32>>>,
    /// Engine counters summed across every epoch this worker ran.
    pub stats: EngineStats,
    /// When (relative to the run's epoch) the first aggregated result
    /// landed — the scheduler's admission-to-first-aggregate clock.
    pub first_result: Option<Duration>,
    pub port_stats: PortStats,
}

/// A [`TenantWorker`] as the executor runs it, its heartbeat and kill
/// deadlines. Killed, it crashes silently, as a process would: from the
/// kill instant on it handles nothing and sends nothing, and its lane
/// closes its port. An error stops it alone the same way (the
/// controller sees a dead worker), and [`Self::finish`] returns it.
pub(crate) struct WorkerEndpoint {
    pub(crate) worker: TenantWorker,
    ctrl_ep: usize,
    heartbeat: TimeNs,
    /// When the next heartbeat is due, on the run's clock.
    next_beat: TimeNs,
    kill_at: Option<TimeNs>,
    first_result: Option<TimeNs>,
    /// Once stopped: killed (`Ok`) or failed.
    stopped: Option<Result<()>>,
}

impl WorkerEndpoint {
    pub(crate) fn new(
        worker: TenantWorker,
        ctrl_ep: usize,
        heartbeat: Duration,
        kill_at: Option<Duration>,
    ) -> Self {
        WorkerEndpoint {
            worker,
            ctrl_ep,
            heartbeat: heartbeat.as_nanos() as TimeNs,
            next_beat: 0,
            kill_at: kill_at.map(|d| d.as_nanos() as TimeNs),
            first_result: None,
            stopped: None,
        }
    }

    /// Torn down, with its port's last counters: what it aggregated, in
    /// the allocations it was given (a crashed one hands back no
    /// tensors).
    pub(crate) fn finish(mut self, port_stats: PortStats) -> Result<WorkerOut> {
        let killed = self.stopped.transpose()?.is_some();
        Ok(WorkerOut {
            tensors: (!killed).then(|| self.worker.take_results()).flatten(),
            stats: self.worker.stats(),
            first_result: self.first_result.map(Duration::from_nanos),
            port_stats,
        })
    }
}

impl Endpoint for WorkerEndpoint {
    const ENGINE: bool = true;

    fn on_frame(
        &mut self,
        src: usize,
        frame: &[u8],
        now: TimeNs,
        txb: &mut TxBatch,
    ) -> Result<bool> {
        // A frame read past the kill instant finds the process dead.
        if self.kill_at.is_some_and(|at| at <= now) {
            self.stopped.get_or_insert(Ok(()));
        }
        if self.stopped.is_none() {
            match self.worker.on_frame(src, frame, now, txb) {
                Ok(true) => _ = self.first_result.get_or_insert(now),
                Ok(false) => {}
                Err(e) => self.stopped = Some(Err(e)),
            }
        }
        Ok(true)
    }

    /// The kill, the heartbeat if it is due, expired retransmissions.
    fn on_timer(&mut self, now: TimeNs, txb: &mut TxBatch) -> Result<()> {
        if self.kill_at.is_some_and(|at| at <= now) {
            self.stopped = Some(Ok(()));
            return Ok(());
        }
        if now >= self.next_beat {
            txb.push(self.ctrl_ep)
                .extend_from_slice(&self.worker.beat().encode());
            self.next_beat = now + self.heartbeat;
        }
        if self.worker.next_deadline().is_some_and(|d| d <= now) {
            if let Err(e) = self.worker.on_timer(now, txb) {
                self.stopped = Some(Err(e));
            }
        }
        Ok(())
    }

    fn next_deadline(&self) -> Option<TimeNs> {
        let due = self.worker.next_deadline().into_iter().chain(self.kill_at);
        self.stopped
            .is_none()
            .then(|| due.fold(self.next_beat, TimeNs::min))
    }

    fn is_done(&self) -> bool {
        self.stopped.is_some()
    }

    fn frame_capacity(&self) -> usize {
        self.worker.frame_capacity()
    }
}

/// One job of the controller's arrival script (its tensors stay with
/// the driver).
pub(crate) struct Arrival {
    pub at: TimeNs,
    pub tenant: TenantSpec,
    pub n_workers: usize,
    pub n_chunks: u64,
}

/// A lifecycle event the controller endpoint notes for its driver.
pub(crate) enum Note {
    /// Job `job` arrived at `at`: admitted under its protocol, or
    /// refused (by the scheduler's floors or the switch's budget).
    Arrived {
        job: u8,
        at: TimeNs,
        admitted: Result<Protocol>,
    },
    Complete {
        job: u8,
        at: TimeNs,
    },
}

/// The [`Controller`] as an endpoint, with the [`Scheduler`] that shares
/// the switch's slots among its jobs. Its deadlines are its script: each
/// job's arrival, the tick (every half heartbeat, the first at 0) and an
/// optional failover `(at, from, to)`. An arrival is admitted by the
/// scheduler, created on switch 0, and the other jobs are steered to
/// their new shares; a completion hands its slots back the same way. It
/// is done once no arrival is pending and every admitted job is complete.
pub(crate) struct ControllerEndpoint {
    pub(crate) ctrl: Controller,
    sched: Scheduler,
    /// Every job's protocol, bar its worker count and pool size.
    base: Protocol,
    bound: f64,
    /// Jobs yet to arrive, in arrival order.
    arrivals: VecDeque<Arrival>,
    /// The allocation last steered to, slots per job.
    alloc: BTreeMap<u8, u32>,
    tick: TimeNs,
    next_tick: TimeNs,
    failover: Option<(TimeNs, usize, usize)>,
    /// The peer endpoint of each switch, by switch index.
    switches: Vec<usize>,
    /// Admitted jobs not yet complete.
    running: usize,
    frame_cap: usize,
    pub(crate) events: Vec<String>,
    /// Notes the driver has not taken yet.
    pub(crate) notes: Vec<Note>,
    /// The job of every wire id the run admitted.
    pub(crate) wires: BTreeMap<u8, u8>,
}

impl ControllerEndpoint {
    /// A controller of one switch per peer endpoint in `switches`, sharing
    /// `capacity` slots among `arrivals` (sorted), each under `bound`.
    pub(crate) fn new(
        cfg: CtrlConfig,
        switches: Vec<usize>,
        capacity: u32,
        base: Protocol,
        bound: f64,
        arrivals: Vec<Arrival>,
        failover: Option<(TimeNs, usize, usize)>,
    ) -> Self {
        // The largest frame it receives: a `QuiesceAck` over the
        // longest stream.
        let chunks = arrivals.iter().map(|a| a.n_chunks).max().unwrap_or(0);
        let (job, wid, epoch, done) = (0, 0, 0, chunk_bitmap(chunks, |_| false));
        ControllerEndpoint {
            tick: cfg.heartbeat_interval_ns / 2,
            ctrl: Controller::new(cfg, vec![PipelineModel::default(); switches.len()]),
            sched: Scheduler::new(capacity),
            base,
            bound,
            arrivals: arrivals.into(),
            alloc: BTreeMap::new(),
            next_tick: 0,
            failover,
            switches,
            running: 0,
            frame_cap: CtrlMsg::QuiesceAck {
                job,
                wid,
                epoch,
                done,
            }
            .encode()
            .len(),
            events: Vec::new(),
            notes: Vec::new(),
            wires: BTreeMap::new(),
        }
    }

    /// Admit arrival `a` at `now`; the repartition it causes.
    fn admit(&mut self, a: Arrival, now: TimeNs) -> Vec<Action> {
        let (job, class) = (a.tenant.job, a.tenant.class);
        let admitted = self.sched.admit(a.tenant).and_then(|()| {
            let proto = Protocol {
                n_workers: a.n_workers,
                pool_size: self.sched.allocation()[&job] as usize,
                ..self.base.clone()
            };
            let created = (self.ctrl).create_job(job, proto.clone(), self.bound, a.n_chunks, 0);
            created.map(|()| proto).inspect_err(|_| {
                self.sched.remove(job);
            })
        });
        let moves = match &admitted {
            Err(e) => {
                self.events.push(format!("job {job}: rejected: {e}"));
                Vec::new()
            }
            Ok(proto) => {
                let slots = proto.pool_size;
                (self.events).push(format!(
                    "job {job}: admitted class {class:?} with {slots} slots"
                ));
                self.running += 1;
                self.wires
                    .extend(self.ctrl.wire_job(job).map(|wire| (wire, job)));
                // Steer every other live job to its new share: this is
                // where a high-priority arrival preempts slots.
                self.rebalance(job, now)
            }
        };
        self.notes.push(Note::Arrived {
            job,
            at: now,
            admitted,
        });
        moves
    }

    /// Steer every live job but `skip` (the one arriving or leaving)
    /// whose share of the scheduler's allocation changed to its new one.
    fn rebalance(&mut self, skip: u8, now: TimeNs) -> Vec<Action> {
        let target = self.sched.allocation();
        let mut out = Vec::new();
        for (&job, &slots) in &target {
            if job == skip || self.alloc.get(&job) == Some(&slots) {
                continue;
            }
            match self.ctrl.resize_job(job, slots as usize, now) {
                Ok(acts) => {
                    (self.events).push(format!("job {job}: repartitioned to {slots} slots"));
                    out.extend(acts);
                }
                Err(e) => (self.events).push(format!("job {job}: repartition failed: {e}")),
            }
        }
        self.alloc = target;
        out
    }

    /// Carry out the controller's actions at `now`: messages staged into
    /// `txb`, events logged, a completion's slots handed back.
    fn execute(&mut self, actions: Vec<Action>, now: TimeNs, txb: &mut TxBatch) {
        for act in actions {
            match act {
                Action::Send { to, msg } => stage(txb, to as usize, &msg),
                Action::SwitchCtl { switch, msg } => stage(txb, self.switches[switch], &msg),
                Action::WorkerDead { job, wid } => {
                    (self.events).push(format!("job {job}: worker {wid} dead"))
                }
                Action::Reconfigured { job, epoch, n, f } => {
                    self.wires
                        .extend(self.ctrl.wire_job(job).map(|wire| (wire, job)));
                    let pool = self.ctrl.pool_size(job).unwrap_or(0);
                    (self.events).push(format!(
                        "job {job}: reconfigured to epoch {epoch} n={n} f={f} pool={pool}"
                    ));
                }
                Action::JobComplete { job } => {
                    self.events.push(format!("job {job}: complete"));
                    self.notes.push(Note::Complete { job, at: now });
                    self.running -= 1;
                    self.sched.remove(job);
                    let moves = self.rebalance(job, now);
                    self.execute(moves, now, txb);
                }
            }
        }
    }
}

impl Endpoint for ControllerEndpoint {
    /// One control message; a frame moves no deadline but may finish it.
    fn on_frame(
        &mut self,
        from: usize,
        frame: &[u8],
        now: TimeNs,
        txb: &mut TxBatch,
    ) -> Result<bool> {
        let actions = self.ctrl.on_datagram(from as PeerId, frame, now);
        self.execute(actions, now, txb);
        Ok(self.is_done())
    }

    /// Due arrivals, then a due failover, then a due tick.
    fn on_timer(&mut self, now: TimeNs, txb: &mut TxBatch) -> Result<()> {
        while self.arrivals.front().is_some_and(|a| a.at <= now) {
            let arrival = self.arrivals.pop_front().expect("a due arrival");
            let actions = self.admit(arrival, now);
            self.execute(actions, now, txb);
        }
        if let Some((_, from, to)) = self.failover.filter(|&(at, ..)| at <= now) {
            self.failover = None;
            self.events.push(format!("failover: switch {from} -> {to}"));
            let actions = self.ctrl.fail_over_all(from, to, now);
            self.execute(actions, now, txb);
        }
        if self.next_tick <= now {
            let actions = self.ctrl.on_tick(now);
            self.execute(actions, now, txb);
            self.next_tick = now + self.tick;
        }
        Ok(())
    }

    fn next_deadline(&self) -> Option<TimeNs> {
        let due = self.arrivals.front().map(|a| a.at);
        let due = due.into_iter().chain(self.failover.map(|(at, ..)| at));
        Some(due.fold(self.next_tick, TimeNs::min))
    }

    fn is_done(&self) -> bool {
        self.arrivals.is_empty() && self.running == 0
    }

    fn frame_capacity(&self) -> usize {
        self.frame_cap
    }

    /// Every worker reports here: a lane drains its port each pass.
    fn drains(&self) -> bool {
        true
    }
}

/// Run one controller-managed job over a transport fabric.
///
/// `ports` layout: `[switch, worker 0, …, worker n−1, controller]`.
/// `updates[w]` is worker `w`'s tensor set. With `cfg.kill` set, the
/// named worker crashes mid-run; the controller detects the silence,
/// quiesces, shrinks the job, and the survivors complete under the
/// reconfigured membership.
///
/// The run is the scheduler's driver with a population of one: a lone
/// best-effort tenant arriving at once, allocated the whole pool of
/// `proto.pool_size` slots.
pub fn run_controlled<P: Port + 'static>(
    ports: Vec<P>,
    updates: Vec<Vec<Vec<f32>>>,
    proto: &Protocol,
    cfg: &CtrlRunConfig,
) -> Result<CtrlRunReport> {
    if updates.len() != proto.n_workers {
        return Err(Error::InvalidConfig("one update set per worker".into()));
    }
    let job = SchedJob {
        tenant: TenantSpec {
            job: 0,
            class: Class::BestEffort,
            weight: 1,
            quota: 0,
            min_slots: 1,
        },
        updates,
        submit_at: Duration::ZERO,
    };
    let sched_cfg = SchedRunConfig {
        max_wall: cfg.max_wall,
        heartbeat: cfg.heartbeat,
        failure_timeout: cfg.failure_timeout,
        n_cores: cfg.n_cores,
        bound: cfg.bound,
        capacity: proto.pool_size as u32,
    };
    let faults = Faults {
        kill: cfg.kill.map(|(w, after)| (1 + w as usize, after)),
        switch_restart: cfg.switch_restart,
    };
    let mut outs = Vec::new();
    let (report, ctrl, switch) =
        drive(ports, vec![job], proto, &sched_cfg, faults, |_, o| outs = o)?;
    let mut first_err = None;
    let (results, worker_stats) = (outs.into_iter())
        .map(|out| match out {
            Ok(out) => (out.tensors, out.stats),
            Err(e) => {
                first_err.get_or_insert(e);
                (None, EngineStats::default())
            }
        })
        .unzip();
    if !report.outcomes.iter().any(|o| o.completed_at.is_some()) {
        return Err(first_err.unwrap_or_else(|| {
            Error::ProtocolViolation("job did not complete within the budget".into())
        }));
    }
    Ok(CtrlRunReport {
        results,
        events: report.events,
        final_epoch: ctrl.epoch(0).unwrap_or(0),
        final_n: ctrl.alive_count(0).unwrap_or(0),
        final_f: ctrl.negotiated_f(0).unwrap_or(0.0),
        final_pool: ctrl.pool_size(0).unwrap_or(0),
        worker_stats,
        switch_stats: switch.total,
        per_pool_switch_stats: switch.per_pool,
        transport_stats: report.transport_stats,
        driver: report.driver,
        wall: report.wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::CtrlMsg;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;
    use switchml_transport::channel::channel_fabric;
    use switchml_transport::endpoint::Lane;
    use switchml_transport::BurstBuf;
    use switchml_transport::{worker_endpoint, SWITCH_ENDPOINT};

    fn proto(n: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k: 8,
            pool_size: 16,
            rto_ns: 2_000_000,   // 2 ms real time
            scaling_factor: 1e9, // deliberately high; controller clamps
            ..Protocol::default()
        }
    }

    fn updates(n: usize, elems: usize) -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|w| {
                vec![(0..elems)
                    .map(|i| (w + 1) as f32 * 0.5 + (i % 7) as f32 * 0.25)
                    .collect()]
            })
            .collect()
    }

    #[test]
    fn controlled_allreduce_completes() {
        let n = 3;
        let ports = channel_fabric(n + 2);
        let report =
            run_controlled(ports, updates(n, 256), &proto(n), &CtrlRunConfig::default()).unwrap();
        assert_eq!(report.final_epoch, 0);
        assert_eq!(report.final_n, n);
        let first = report.results[0].as_ref().unwrap();
        for w in 1..n {
            assert_eq!(report.results[w].as_ref().unwrap(), first);
        }
        assert!(report.events.iter().any(|e| e.contains("complete")));
    }

    /// Large enough that a stream is still in flight 8 ms in, when the
    /// fault tests below kill a worker or restart the switch: a clean
    /// run of it takes about 25 ms over channels.
    const IN_FLIGHT_ELEMS: usize = 65_536;

    #[test]
    fn killed_worker_triggers_shrink_and_survivors_finish() {
        let n = 3;
        let cfg = CtrlRunConfig {
            kill: Some((1, Duration::from_millis(8))),
            heartbeat: Duration::from_millis(2),
            failure_timeout: Duration::from_millis(10),
            ..CtrlRunConfig::default()
        };
        let ports = channel_fabric(n + 2);
        let report = run_controlled(ports, updates(n, IN_FLIGHT_ELEMS), &proto(n), &cfg).unwrap();
        assert_eq!(report.final_n, n - 1, "events: {:?}", report.events);
        assert!(report.final_epoch >= 1);
        assert!(
            report.events.iter().any(|e| e.contains("dead")),
            "events: {:?}",
            report.events
        );
        assert!(report.results[1].is_none());
        let a = report.results[0].as_ref().unwrap();
        let b = report.results[2].as_ref().unwrap();
        assert_eq!(a, b, "survivors must agree exactly");
    }

    /// §5.4 switch failure: the switch process restarts mid-run,
    /// losing every pool. The controller notices, quiesces the
    /// (unharmed) workers, bumps the epoch, re-admits, and the workers
    /// re-drive everything past the completion frontier. The final
    /// sums must be exactly what an uninterrupted run produces.
    #[test]
    fn switch_restart_recovers_via_epoch_bump() {
        let n = 3;
        let elems = IN_FLIGHT_ELEMS;
        let cfg = CtrlRunConfig {
            switch_restart: Some(Duration::from_millis(8)),
            heartbeat: Duration::from_millis(2),
            failure_timeout: Duration::from_millis(10),
            ..CtrlRunConfig::default()
        };
        let ports = channel_fabric(n + 2);
        let report = run_controlled(ports, updates(n, elems), &proto(n), &cfg).unwrap();
        assert_eq!(report.final_n, n, "no worker died: {:?}", report.events);
        assert!(
            report.final_epoch >= 1,
            "restart must bump the epoch: {:?}",
            report.events
        );
        assert!(
            report.events.iter().any(|e| e == "failover: switch 0 -> 0"),
            "events: {:?}",
            report.events
        );
        // Clean reference: same inputs, no faults.
        let clean = run_controlled(
            channel_fabric(n + 2),
            updates(n, elems),
            &proto(n),
            &CtrlRunConfig::default(),
        )
        .unwrap();
        let first = report.results[0].as_ref().unwrap();
        for w in 0..n {
            assert_eq!(report.results[w].as_ref().unwrap(), first);
        }
        assert_eq!(
            first,
            clean.results[0].as_ref().unwrap(),
            "recovered run must be bit-identical to the clean run"
        );
    }

    /// Crash-and-resume over a real UDP fabric: a worker dies mid-run,
    /// the survivors shrink into a bumped epoch and finish; the report
    /// carries the engine/switch/transport counters of the whole run.
    #[test]
    fn udp_crash_and_resume_shrinks_and_finishes() {
        use switchml_transport::udp::udp_fabric;
        let n = 3;
        let cfg = CtrlRunConfig {
            kill: Some((2, Duration::from_millis(8))),
            heartbeat: Duration::from_millis(2),
            failure_timeout: Duration::from_millis(10),
            ..CtrlRunConfig::default()
        };
        let Ok(ports) = udp_fabric(n + 2) else {
            eprintln!("skipping: no loopback UDP available");
            return;
        };
        let report = run_controlled(ports, updates(n, IN_FLIGHT_ELEMS), &proto(n), &cfg).unwrap();
        assert_eq!(report.final_n, n - 1, "events: {:?}", report.events);
        assert!(report.final_epoch >= 1);
        assert!(report.results[2].is_none());
        let a = report.results[0].as_ref().unwrap();
        let b = report.results[1].as_ref().unwrap();
        assert_eq!(a, b, "survivors must agree exactly");
        // The whole run's counters surface in the report.
        let sent: u64 = report.worker_stats.iter().map(|s| s.sent).sum();
        assert!(sent > 0, "no worker counters harvested");
    }

    /// A port whose traffic a test can edit: `keep_send` vetoes
    /// outgoing datagrams, `after_recv` rewrites a received burst.
    struct Tap<P> {
        inner: P,
        keep_send: SendFilter,
        after_recv: Box<dyn FnMut(&mut BurstBuf) + Send>,
    }

    type SendFilter = Box<dyn FnMut(&[u8]) -> bool + Send>;

    impl<P: Port> Tap<P> {
        fn transparent(inner: P) -> Self {
            Tap {
                inner,
                keep_send: Box::new(|_| true),
                after_recv: Box::new(|_| {}),
            }
        }
    }

    impl<P: Port> Port for Tap<P> {
        fn n_endpoints(&self) -> usize {
            self.inner.n_endpoints()
        }
        fn index(&self) -> usize {
            self.inner.index()
        }
        fn send(&mut self, to: usize, data: &[u8]) {
            if (self.keep_send)(data) {
                self.inner.send(to, data);
            }
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
            self.inner.recv_timeout(timeout)
        }
        fn recv_batch(&mut self, bufs: &mut BurstBuf, timeout: Duration) -> usize {
            self.inner.recv_batch(bufs, timeout);
            (self.after_recv)(bufs);
            bufs.len()
        }
        fn stats(&self) -> PortStats {
            self.inner.stats()
        }
        fn timeout_granule(&self) -> Option<Duration> {
            self.inner.timeout_granule()
        }
    }

    /// A result that reaches one member of a job but not the others
    /// before a quiesce is installed there and nowhere else, so the
    /// frontier (the intersection of the members' done sets) leaves it
    /// out: on resume that member restores the chunk's input from its
    /// undo chunk and re-streams it. Workers 1 and 2 lose every result
    /// from their 32nd on until the switch restart's `Quiesce` reaches
    /// them; worker 0 loses none, so it ends up to one phase ahead on
    /// every slot. Restores = chunks worker 0 installed that the
    /// frontier omits, each re-sent under the new epoch; the run is
    /// bit-identical to `agg::allreduce`.
    #[test]
    fn a_result_one_member_installed_before_a_quiesce_is_restored_on_resume() {
        use std::collections::BTreeSet;
        use switchml_core::packet::{PacketKind, PacketView};
        type Offs = Arc<Mutex<BTreeSet<u64>>>;
        let n = 3;
        let cfg = CtrlRunConfig {
            switch_restart: Some(Duration::from_millis(8)),
            heartbeat: Duration::from_millis(2),
            failure_timeout: Duration::from_millis(10),
            ..CtrlRunConfig::default()
        };
        let mut ports: Vec<_> = channel_fabric(n + 2)
            .into_iter()
            .map(Tap::transparent)
            .collect();
        // Per worker: the chunk offsets of the epoch-0 results it took
        // in before its first `Quiesce`.
        let installed: Vec<Offs> = (0..n).map(|_| Offs::default()).collect();
        for w in 0..n {
            let installed = Arc::clone(&installed[w]);
            let (mut quiesced, mut taken) = (false, 0);
            ports[worker_endpoint(w)].after_recv = Box::new(move |bufs| {
                let mut kept = Vec::new();
                for (from, frame) in bufs.iter() {
                    quiesced |= matches!(CtrlMsg::decode(frame), Ok(CtrlMsg::Quiesce { .. }));
                    let result = PacketView::parse(frame)
                        .ok()
                        .filter(|v| v.kind() == PacketKind::Result && v.epoch() == 0);
                    if let (Some(v), false) = (result, quiesced) {
                        taken += 1;
                        if w != 0 && taken > 32 {
                            continue;
                        }
                        installed.lock().unwrap().insert(v.off());
                    }
                    kept.push((from, frame.to_vec()));
                }
                bufs.clear();
                for (from, frame) in kept {
                    bufs.next_slot().extend_from_slice(&frame);
                    bufs.commit_next(from);
                }
            });
        }
        // Worker 0's chunk offsets streamed under a later epoch.
        let resent = Offs::default();
        let log = Arc::clone(&resent);
        ports[worker_endpoint(0)].keep_send = Box::new(move |frame| {
            if let Ok(v) = PacketView::parse(frame) {
                if v.kind() == PacketKind::Update && v.epoch() != 0 {
                    log.lock().unwrap().insert(v.off());
                }
            }
            true
        });
        let inputs = updates(n, IN_FLIGHT_ELEMS);
        let report = run_controlled(ports, inputs.clone(), &proto(n), &cfg).unwrap();
        assert!(report.final_epoch >= 1, "events: {:?}", report.events);

        let sets: Vec<BTreeSet<u64>> = installed
            .iter()
            .map(|s| s.lock().unwrap().clone())
            .collect();
        let frontier: BTreeSet<u64> = sets[1].intersection(&sets[2]).copied().collect();
        let expected: BTreeSet<u64> = sets[0].difference(&frontier).copied().collect();
        let restored: BTreeSet<u64> = sets[0]
            .intersection(&resent.lock().unwrap())
            .copied()
            .collect();
        assert!(
            !expected.is_empty(),
            "worker 0 got no result the others missed"
        );
        assert!(
            expected.len() <= proto(n).pool_size,
            "one phase ahead at most"
        );
        assert_eq!(restored, expected, "events: {:?}", report.events);

        let reference = Protocol {
            scaling_factor: report.final_f,
            ..proto(n)
        };
        let reference = switchml_core::agg::allreduce(&inputs, &reference).unwrap();
        for (w, result) in report.results.iter().enumerate() {
            assert_eq!(result.as_ref(), Some(&reference), "worker {w}");
        }
    }

    /// The mirror of PR 13's switch-side test, for the tenant worker: a
    /// well-formed result no slot or chunk of the worker could have
    /// asked for costs one counter tick, not the worker thread (and
    /// with it the job). The frames ride in behind the first genuine
    /// result worker 1 receives — stamped with that result's wire job
    /// and epoch, so neither the job demux nor the epoch fence is what
    /// stops them.
    fn hostile_results_are_counted_and_dropped<P: Port + 'static>(ports: Vec<P>) {
        use std::sync::atomic::AtomicU64;
        use switchml_core::packet::{Packet, PacketKind};
        let n = 3;
        let elems = 2048;
        let p = proto(n);
        let injected = Arc::new(AtomicU64::new(0));
        let mut ports: Vec<Tap<P>> = ports.into_iter().map(Tap::transparent).collect();
        let count = Arc::clone(&injected);
        ports[2].after_recv = Box::new(move |bufs| {
            if count.load(Ordering::Relaxed) > 0 {
                return;
            }
            let Some(seen) = bufs
                .iter()
                .filter_map(|(_, frame)| Packet::decode(frame).ok())
                .find(|p| p.kind == PacketKind::Result)
            else {
                return;
            };
            let hostile = [
                Packet {
                    idx: p.pool_size as u32,
                    ..seen.clone()
                },
                Packet {
                    payload: switchml_core::packet::Payload::I32(vec![7; p.k + 1]),
                    ..seen.clone()
                },
                Packet {
                    off: seen.off + 1,
                    ..seen.clone()
                },
                Packet {
                    off: elems as u64,
                    ..seen
                },
            ];
            for pkt in hostile {
                if !bufs.is_full() {
                    bufs.next_slot().extend_from_slice(&pkt.encode());
                    bufs.commit_next(SWITCH_ENDPOINT);
                    count.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let proto = proto(n);
        let report =
            run_controlled(ports, updates(n, elems), &proto, &CtrlRunConfig::default()).unwrap();
        let clean = run_controlled(
            channel_fabric(n + 2),
            updates(n, elems),
            &proto,
            &CtrlRunConfig::default(),
        )
        .unwrap();
        assert_eq!(injected.load(Ordering::Relaxed), 4);
        for w in 0..n {
            assert_eq!(report.results[w], clean.results[w], "worker {w}");
            let want = if w == 1 { 4 } else { 0 };
            assert_eq!(report.worker_stats[w].rejected, want, "worker {w}");
        }
    }

    #[test]
    fn hostile_results_are_counted_and_dropped_over_channels() {
        hostile_results_are_counted_and_dropped(channel_fabric(5));
    }

    #[test]
    fn udp_hostile_results_are_counted_and_dropped() {
        use switchml_transport::udp::udp_fabric;
        hostile_results_are_counted_and_dropped(udp_fabric(5).unwrap());
    }

    /// A datagram longer than a tenant worker's frame (a valid result
    /// with trailing bytes, longer than any control message the worker
    /// receives too) is dropped whole by the port and counted, and the
    /// job finishes bit-identical.
    #[test]
    fn udp_oversize_datagram_is_dropped_and_counted() {
        use switchml_core::packet::{Packet, PacketKind, PoolVersion};
        use switchml_transport::udp::udp_fabric;
        let n = 3;
        let elems = 2048;
        let p = proto(n);
        let mut forged = Packet {
            kind: PacketKind::Result,
            ..Packet::update(0, PoolVersion::V0, 0, 0, vec![7; p.k])
        }
        .encode()
        .to_vec();
        forged.extend_from_slice(&[0; 64]);
        let mut ports = udp_fabric(n + 2).unwrap();
        ports[SWITCH_ENDPOINT].send(1, &forged);
        let cfg = CtrlRunConfig::default();
        let report = run_controlled(ports, updates(n, elems), &p, &cfg).unwrap();
        let clean = run_controlled(channel_fabric(n + 2), updates(n, elems), &p, &cfg).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], clean.results[w], "worker {w}");
        }
        assert_eq!(report.transport_stats.send_errors, 1);
    }

    /// CRC-valid control frames cut short inside their fields, queued
    /// on the tenant switch and on one tenant worker before the run
    /// starts, are dropped by the decoder: the run finishes bit-identical
    /// to a clean one.
    fn truncated_control_frames_are_dropped<P: Port + 'static>(mut ports: Vec<P>) {
        use switchml_core::checksum::Crc32;
        let n = 3;
        let p = proto(n);
        let messages = [
            CtrlMsg::Welcome {
                job: 0,
                wid: 0,
                epoch: 0,
                n: 3,
                f: 1.0,
                wire_job: 0,
                switch: 0,
            },
            CtrlMsg::Start { job: 0, epoch: 0 },
            CtrlMsg::Quiesce { job: 0, epoch: 0 },
            CtrlMsg::Reconfigure {
                job: 0,
                epoch: 1,
                n: 2,
                new_wid: 0,
                f: 1.0,
                switch: 0,
                wire_job: 1,
                pool_size: 4,
                frontier: vec![0xFF; 8],
            },
            CtrlMsg::Probe { job: 0, epoch: 0 },
            CtrlMsg::AdmitJob {
                job: 0,
                epoch: 0,
                proto: p.clone(),
                members: vec![1, 2, 3],
            },
            CtrlMsg::EvictJob { job: 0 },
        ];
        let ctrl = n + 1;
        for msg in &messages {
            let full = msg.encode();
            let body = &full[..full.len() - 4];
            // Magic, version and tag only; then half the fields.
            for cut in [4, 4 + (body.len() - 4) / 2] {
                let mut frame = body[..cut].to_vec();
                let mut crc = Crc32::new();
                crc.update(&frame);
                frame.extend_from_slice(&crc.finalize().to_be_bytes());
                ports[ctrl].send(SWITCH_ENDPOINT, &frame);
                ports[ctrl].send(1, &frame);
            }
        }
        let cfg = CtrlRunConfig::default();
        let report = run_controlled(ports, updates(n, 2048), &p, &cfg).unwrap();
        let clean = run_controlled(channel_fabric(n + 2), updates(n, 2048), &p, &cfg).unwrap();
        for w in 0..n {
            assert!(report.results[w].is_some(), "worker {w}");
            assert_eq!(report.results[w], clean.results[w], "worker {w}");
        }
    }

    #[test]
    fn truncated_control_frames_are_dropped_over_channels() {
        truncated_control_frames_are_dropped(channel_fabric(5));
    }

    #[test]
    fn udp_truncated_control_frames_are_dropped() {
        use switchml_transport::udp::udp_fabric;
        truncated_control_frames_are_dropped(udp_fabric(5).unwrap());
    }

    /// `AdmitJob` shares the switch's socket with the data-plane flood.
    /// Losing it used to wedge the job until `max_wall`; now the switch
    /// acknowledges every admit and the controller re-sends until it
    /// hears so.
    #[test]
    fn a_lost_admit_is_resent_until_acknowledged() {
        let n = 2;
        let mut ports: Vec<_> = channel_fabric(n + 2)
            .into_iter()
            .map(Tap::transparent)
            .collect();
        let mut dropped = false;
        ports[n + 1].keep_send = Box::new(move |data| {
            let first_admit =
                !dropped && matches!(CtrlMsg::decode(data), Ok(CtrlMsg::AdmitJob { .. }));
            dropped |= first_admit;
            !first_admit
        });
        let cfg = CtrlRunConfig {
            max_wall: Duration::from_secs(8),
            ..CtrlRunConfig::default()
        };
        let report = run_controlled(ports, updates(n, 256), &proto(n), &cfg).unwrap();
        assert!(
            report.wall < cfg.max_wall / 4,
            "finished only after {:?}",
            report.wall
        );
        assert_eq!(report.results[0], report.results[1]);
        assert!(report.results[0].is_some());
    }

    /// What a scripted worker sent, in order: `(destination, datagram)`.
    type SentLog = Arc<Mutex<Vec<(usize, Vec<u8>)>>>;

    /// Computes the next burst a scripted worker receives from what it
    /// has sent so far.
    type ScriptStep = Box<dyn FnMut(&[(usize, Vec<u8>)]) -> Vec<Vec<u8>> + Send>;

    /// The far side of one worker's port, scripted: every `recv_batch`
    /// delivers the next step's burst whole, and flags `exhausted` when
    /// the script has run out. Control frames come from the
    /// controller's endpoint, data frames from the switch's. `dropped`
    /// is set when the port is.
    struct ScriptPort {
        steps: std::collections::VecDeque<ScriptStep>,
        sent: SentLog,
        exhausted: Arc<AtomicBool>,
        dropped: Arc<AtomicBool>,
    }

    impl Drop for ScriptPort {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::Release);
        }
    }

    impl Port for ScriptPort {
        fn n_endpoints(&self) -> usize {
            3
        }
        fn index(&self) -> usize {
            1
        }
        fn send(&mut self, to: usize, data: &[u8]) {
            self.sent.lock().unwrap().push((to, data.to_vec()));
        }
        fn recv_timeout(&mut self, _timeout: Duration) -> Option<(usize, Vec<u8>)> {
            None
        }
        fn recv_batch(&mut self, bufs: &mut BurstBuf, _timeout: Duration) -> usize {
            bufs.clear();
            let Some(mut step) = self.steps.pop_front() else {
                self.exhausted.store(true, Ordering::Release);
                return 0;
            };
            for frame in step(&self.sent.lock().unwrap()) {
                bufs.next_slot().extend_from_slice(&frame);
                let from = if CtrlMsg::is_ctrl(&frame) {
                    SCRIPT_CTRL_EP
                } else {
                    SWITCH_ENDPOINT
                };
                bufs.commit_next(from);
            }
            bufs.len()
        }
    }

    const SCRIPT_CTRL_EP: usize = 2;

    /// One worker of a single-worker job (its own update is the
    /// aggregate) as an endpoint on a scripted port, with the flags of
    /// that port and the log of what it sent.
    struct Scripted {
        lane: Lane<WorkerEndpoint, ScriptPort>,
        sent: SentLog,
        exhausted: Arc<AtomicBool>,
        dropped: Arc<AtomicBool>,
    }

    fn scripted(steps: Vec<ScriptStep>, kill_after: Option<Duration>) -> Scripted {
        let (sent, exhausted, dropped) = Default::default();
        let port = ScriptPort {
            steps: steps.into(),
            sent: Arc::clone(&sent),
            exhausted: Arc::clone(&exhausted),
            dropped: Arc::clone(&dropped),
        };
        let base = Protocol {
            pool_size: 4,
            ..proto(1)
        };
        let worker = TenantWorker::new(0, SCRIPT_CTRL_EP, updates(1, 8 * 16).remove(0), base, 1);
        let heartbeat = CtrlRunConfig::default().heartbeat;
        let mut lane = Lane::new(Instant::now(), BURST);
        let ep = WorkerEndpoint::new(worker, SCRIPT_CTRL_EP, heartbeat, kill_after);
        lane.add(ep, port);
        Scripted {
            lane,
            sent,
            exhausted,
            dropped,
        }
    }

    impl Scripted {
        /// Take the worker off its lane and tear it down.
        fn finish(&mut self) -> Result<WorkerOut> {
            let (ep, port_stats) = self.lane.take(0).expect("seated");
            ep.finish(port_stats)
        }
    }

    /// Step a scripted worker until its script runs out; returns its
    /// counters and what it sent.
    fn scripted_worker(steps: Vec<ScriptStep>) -> (EngineStats, Vec<(usize, Vec<u8>)>) {
        let mut s = scripted(steps, None);
        while !s.exhausted.load(Ordering::Acquire) {
            s.lane.step().unwrap();
        }
        let out = s.finish().unwrap();
        let sent = s.sent.lock().unwrap().clone();
        (out.stats, sent)
    }

    /// A killed endpoint is a crashed process: after the kill instant it
    /// sends nothing — no heartbeat, no retransmission, though both are
    /// overdue, and no follow-up to the results it reads then, before
    /// its kill deadline has fired — its port is closed, and it hands
    /// back no tensors. The same script without the kill does send, so
    /// the silence is the kill's.
    #[test]
    fn a_killed_endpoint_is_silent() {
        const KILL: Duration = Duration::from_millis(100);
        let run = |kill_after: Option<Duration>| {
            // Read after the kill instant: the initial window's results.
            let answers: ScriptStep = Box::new(|sent| {
                (results_for(sent).iter())
                    .map(|r| r.encode().to_vec())
                    .collect()
            });
            let mut s = scripted(vec![welcome_and_start(), answers], kill_after);
            s.lane.step().unwrap();
            let before = s.sent.lock().unwrap().len();
            assert_eq!(
                results_for(&s.sent.lock().unwrap()).len(),
                4,
                "the initial window"
            );
            // Past the kill instant, the heartbeat and the RTO.
            std::thread::sleep(KILL + Duration::from_millis(20));
            for _ in 0..3 {
                s.lane.step().unwrap();
            }
            let after = s.sent.lock().unwrap().len();
            let dropped = s.dropped.load(Ordering::Acquire);
            let out = s.finish().unwrap();
            (before, after, dropped, out.stats.results, out.tensors)
        };
        let (before, after, dropped, results, _) = run(None);
        assert!(after > before, "a live endpoint beats and retransmits");
        assert_eq!(results, 4, "a live endpoint installs the results");
        assert!(!dropped);
        let (before, after, dropped, results, tensors) = run(Some(KILL));
        assert_eq!(after, before, "a killed endpoint sent after the kill");
        assert_eq!(results, 0, "a killed endpoint installed a result");
        assert!(dropped, "a killed endpoint keeps its port open");
        assert!(tensors.is_none());
    }

    /// Step 1 of every script: welcome the worker under wire job 9 and
    /// start it.
    fn welcome_and_start() -> ScriptStep {
        Box::new(|_| {
            let welcome = CtrlMsg::Welcome {
                job: 0,
                wid: 0,
                epoch: 0,
                n: 1,
                f: 100.0,
                wire_job: 9,
                switch: 0,
            };
            let start = CtrlMsg::Start { job: 0, epoch: 0 };
            vec![welcome.encode().to_vec(), start.encode().to_vec()]
        })
    }

    /// The updates in `sent`, as the results the switch would return.
    fn results_for(sent: &[(usize, Vec<u8>)]) -> Vec<switchml_core::packet::Packet> {
        use switchml_core::packet::{Packet, PacketKind};
        sent.iter()
            .filter(|(to, data)| *to == SWITCH_ENDPOINT && !CtrlMsg::is_ctrl(data))
            .map(|(_, data)| Packet {
                kind: PacketKind::Result,
                ..Packet::decode(data).unwrap()
            })
            .collect()
    }

    /// A burst is handled in arrival order: of two results either side
    /// of a `Quiesce`, the first is installed (and acknowledged in the
    /// quiesce bitmap) and the second finds the worker quiesced.
    #[test]
    fn a_result_behind_a_quiesce_in_the_same_burst_is_not_installed() {
        let burst: ScriptStep = Box::new(|sent| {
            let results = results_for(sent);
            assert_eq!(results.len(), 4, "the initial window");
            vec![
                results[0].encode().to_vec(),
                CtrlMsg::Quiesce { job: 0, epoch: 0 }.encode().to_vec(),
                results[1].encode().to_vec(),
            ]
        });
        let (stats, sent) = scripted_worker(vec![welcome_and_start(), burst]);
        assert_eq!(stats.results, 1);
        let acks: Vec<Vec<u8>> = sent
            .iter()
            .filter_map(|(_, data)| match CtrlMsg::decode(data) {
                Ok(CtrlMsg::QuiesceAck { done, .. }) => Some(done),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![vec![0b1, 0]], "chunk 0 of 16 and nothing else");
        // The first result's follow-up left; the second drew none.
        assert_eq!(results_for(&sent).len(), 4 + 1);
    }

    /// A result behind a `Reconfigure` in the same burst is judged
    /// against the state the `Reconfigure` left: one still carrying the
    /// old wire job is dropped by the job demux even though its epoch
    /// byte would pass the fence, and the same result under the new
    /// wire job is installed.
    #[test]
    fn an_old_wire_job_result_behind_a_reconfigure_is_dropped() {
        let quiesce: ScriptStep =
            Box::new(|_| vec![CtrlMsg::Quiesce { job: 0, epoch: 0 }.encode().to_vec()]);
        let burst: ScriptStep = Box::new(|sent| {
            let reconfigure = CtrlMsg::Reconfigure {
                job: 0,
                epoch: 1,
                n: 1,
                new_wid: 0,
                f: 100.0,
                switch: 0,
                wire_job: 10,
                pool_size: 4,
                frontier: Vec::new(),
            };
            // Nothing was aggregated, so the resumed worker re-opens
            // with the very (slot, version, offset) it first sent.
            let mut result = results_for(sent).remove(0);
            assert_eq!((result.job, result.epoch), (9, 0));
            result.epoch = 1;
            let old_job = result.encode().to_vec();
            result.job = 10;
            vec![
                reconfigure.encode().to_vec(),
                old_job,
                result.encode().to_vec(),
            ]
        });
        let (stats, sent) = scripted_worker(vec![welcome_and_start(), quiesce, burst]);
        assert_eq!(stats.results, 1, "only the new wire job's result");
        assert_eq!(
            (stats.stale, stats.stale_epoch, stats.rejected),
            (0, 0, 0),
            "the old wire job's result never reached the worker"
        );
        let resumed = results_for(&sent)
            .iter()
            .filter(|r| (r.job, r.epoch) == (10, 1))
            .count();
        assert_eq!(resumed, 4 + 1, "the new window and one follow-up");
    }

    /// A `Reconfigure` whose frontier leaves out the chunks this worker
    /// just finished (as if a peer had missed their results) re-streams
    /// them from the slots' undo chunks: the resumed window carries the
    /// original input, not the aggregate written over it.
    #[test]
    fn a_frontier_without_the_last_chunks_restreams_their_input() {
        use switchml_core::packet::Payload;
        // Results that differ from the input: twice each update.
        let doubled: ScriptStep = Box::new(|sent| {
            (results_for(sent).into_iter())
                .map(|mut r| {
                    let Payload::I32(v) = &r.payload else {
                        panic!("a Fixed32 update")
                    };
                    r.payload = Payload::I32(v.iter().map(|x| x * 2).collect());
                    r.encode().to_vec()
                })
                .collect()
        });
        let quiesce: ScriptStep =
            Box::new(|_| vec![CtrlMsg::Quiesce { job: 0, epoch: 0 }.encode().to_vec()]);
        let reconfigure: ScriptStep = Box::new(|_| {
            let reconfigure = CtrlMsg::Reconfigure {
                job: 0,
                epoch: 1,
                n: 1,
                new_wid: 0,
                f: 100.0,
                switch: 0,
                wire_job: 10,
                pool_size: 4,
                frontier: Vec::new(),
            };
            vec![reconfigure.encode().to_vec()]
        });
        let (stats, sent) =
            scripted_worker(vec![welcome_and_start(), doubled, quiesce, reconfigure]);
        assert_eq!(stats.results, 4);
        let updates = results_for(&sent);
        let (first, resumed): (Vec<_>, Vec<_>) = updates.iter().partition(|u| u.job == 9);
        assert_eq!(first.len(), 4 + 4, "the window and its follow-ups");
        assert_eq!(resumed.len(), 4, "the resumed window");
        for (old, new) in first[..4].iter().zip(&resumed) {
            assert_eq!(new.off, old.off, "chunks 0-3 again");
            assert_eq!(new.payload, old.payload, "chunk at {}", old.off);
        }
    }

    /// A `Reconfigure` whose frontier leaves out a chunk aggregated two
    /// phases ago on its slot asks to re-stream an input the worker no
    /// longer holds: that slot's undo chunk has moved on, and the
    /// chunk's elements hold its aggregate. The worker stops with the
    /// error instead of re-streaming the aggregate as input.
    #[test]
    fn a_frontier_past_the_undo_chunks_stops_the_worker() {
        // Phase 1 (chunks 0-3, one per slot) and phase 2 (chunks 4-7).
        let phase = |p: usize| -> ScriptStep {
            Box::new(move |sent| {
                let results = results_for(sent);
                assert_eq!(results.len(), 4 * (p + 1), "phase {p}'s window");
                (results[4 * p..].iter())
                    .map(|r| r.encode().to_vec())
                    .collect()
            })
        };
        let quiesce: ScriptStep =
            Box::new(|_| vec![CtrlMsg::Quiesce { job: 0, epoch: 0 }.encode().to_vec()]);
        let reconfigure: ScriptStep = Box::new(|_| {
            let reconfigure = CtrlMsg::Reconfigure {
                job: 0,
                epoch: 1,
                n: 1,
                new_wid: 0,
                f: 100.0,
                switch: 0,
                wire_job: 10,
                pool_size: 4,
                frontier: crate::msg::chunk_bitmap(16, |c| (1..8).contains(&c)),
            };
            vec![reconfigure.encode().to_vec()]
        });
        let steps = vec![
            welcome_and_start(),
            phase(0),
            phase(1),
            quiesce,
            reconfigure,
        ];
        let n_steps = steps.len();
        let mut s = scripted(steps, None);
        for _ in 0..n_steps {
            s.lane.step().unwrap();
        }
        let sent = s.sent.lock().unwrap().clone();
        let acks = (sent.iter())
            .filter(|(_, data)| matches!(CtrlMsg::decode(data), Ok(CtrlMsg::QuiesceAck { .. })))
            .count();
        assert_eq!(acks, 1, "the worker quiesced");
        assert!(
            results_for(&sent).iter().all(|r| r.job == 9),
            "nothing was streamed under the new wire job"
        );
        assert!(s.dropped.load(Ordering::Acquire), "and closed its port");
        let err = s.finish().err().expect("the worker failed");
        assert!(err.to_string().contains("no longer kept"), "{err}");
    }

    /// The adaptive estimator runs end to end under the control plane:
    /// samples accumulate and the epoch-stamped traffic still
    /// completes.
    #[test]
    fn controlled_run_with_adaptive_rto() {
        let n = 2;
        let p = Protocol {
            rto_policy: switchml_core::config::RtoPolicy::Adaptive {
                min_ns: 200_000,
                max_ns: 50_000_000,
            },
            ..proto(n)
        };
        let ports = channel_fabric(n + 2);
        let report =
            run_controlled(ports, updates(n, 2048), &p, &CtrlRunConfig::default()).unwrap();
        let samples: u64 = report.worker_stats.iter().map(|s| s.rtt_samples).sum();
        assert!(samples > 0, "no RTT samples under adaptive policy");
        let first = report.results[0].as_ref().unwrap();
        assert_eq!(report.results[1].as_ref().unwrap(), first);
    }

    // ---- the controller endpoint, stepped by hand --------------------

    /// Half the heartbeat: the controller's tick.
    const TICK: TimeNs = 1_000_000;

    /// A controller of one switch at endpoint 0 whose scheduler shares 16
    /// slots among `arrivals`, `(at, job, class)`: 2-worker jobs of 16
    /// chunks, job `j`'s workers at endpoints `1 + 2j` and `2 + 2j`.
    fn controller(
        arrivals: &[(TimeNs, u8, Class)],
        failover: Option<(TimeNs, usize, usize)>,
    ) -> ControllerEndpoint {
        let arrivals = (arrivals.iter())
            .map(|&(at, job, class)| Arrival {
                at,
                tenant: TenantSpec {
                    job,
                    class,
                    weight: 1,
                    quota: 0,
                    min_slots: 1,
                },
                n_workers: 2,
                n_chunks: 16,
            })
            .collect();
        let cfg = CtrlConfig::with_timeouts(2 * TICK, 100 * TICK);
        let switches = vec![SWITCH_ENDPOINT];
        ControllerEndpoint::new(cfg, switches, 16, proto(2), 16.0, arrivals, failover)
    }

    /// Both workers of job `job` send `msg(wid)` at `now`.
    fn from_workers(
        c: &mut ControllerEndpoint,
        job: u8,
        msg: impl Fn(u16) -> CtrlMsg,
        now: TimeNs,
        txb: &mut TxBatch,
    ) -> bool {
        let mut done = false;
        for wid in 0..2 {
            let ep = 1 + 2 * job as usize + wid as usize;
            done = c.on_frame(ep, &msg(wid).encode(), now, txb).unwrap();
        }
        done
    }

    /// The destinations of the `Quiesce`s staged in `txb`.
    fn quiesced(txb: &TxBatch) -> Vec<usize> {
        (txb.dests().iter().zip(txb.frames()))
            .filter(|(_, f)| matches!(CtrlMsg::decode(f), Ok(CtrlMsg::Quiesce { .. })))
            .map(|(&to, _)| to)
            .collect()
    }

    fn arrived(c: &mut ControllerEndpoint) -> Vec<(u8, TimeNs, usize)> {
        (std::mem::take(&mut c.notes).into_iter())
            .filter_map(|note| match note {
                Note::Arrived { job, at, admitted } => Some((job, at, admitted.ok()?.pool_size)),
                Note::Complete { .. } => None,
            })
            .collect()
    }

    /// An arrival is a deadline of its own, between ticks: it is admitted
    /// when its instant comes, not at the tick before it or a step early.
    #[test]
    fn an_arrival_is_admitted_at_its_deadline_not_before() {
        let at = 3 * TICK + TICK / 2;
        let mut c = controller(&[(at, 0, Class::BestEffort)], None);
        let mut txb = TxBatch::new(64);
        let mut fired = Vec::new();
        while let Some(due) = c.next_deadline().filter(|&due| due < at) {
            c.on_timer(due, &mut txb).unwrap();
            fired.push(due);
        }
        assert_eq!(fired, [0, TICK, 2 * TICK, 3 * TICK], "the ticks");
        assert_eq!(c.next_deadline(), Some(at));
        c.on_timer(at - 1, &mut txb).unwrap();
        assert!(arrived(&mut c).is_empty(), "admitted early");
        c.on_timer(at, &mut txb).unwrap();
        assert_eq!(arrived(&mut c), [(0, at, 16)], "alone, the whole pool");
        assert_eq!(c.next_deadline(), Some(4 * TICK));
    }

    /// A high-priority arrival takes the running best-effort job's slots
    /// down to its floor: the resize's `Quiesce` to both of that job's
    /// workers is staged in the same timer call.
    #[test]
    fn a_high_arrival_stages_the_best_effort_resize() {
        let at = 5 * TICK + 1;
        let jobs = [(0, 0, Class::BestEffort), (at, 1, Class::High)];
        let mut c = controller(&jobs, None);
        let mut txb = TxBatch::new(64);
        c.on_timer(0, &mut txb).unwrap();
        from_workers(&mut c, 0, |_| CtrlMsg::Register { job: 0 }, 10, &mut txb);
        assert_eq!(c.ctrl.phase(0), Some(crate::controller::Phase::Running));
        txb.clear();
        c.on_timer(at, &mut txb).unwrap();
        assert_eq!(arrived(&mut c), [(0, 0, 16), (1, at, 15)]);
        assert_eq!(quiesced(&txb), [1, 2]);
        assert!(c
            .events
            .contains(&"job 0: repartitioned to 1 slots".to_string()));
    }

    /// The scripted failover runs at its instant: a timer call a
    /// nanosecond earlier quiesces nobody.
    #[test]
    fn the_scripted_failover_fires_at_its_instant() {
        let at = 5 * TICK + TICK / 2;
        let mut c = controller(&[(0, 0, Class::BestEffort)], Some((at, 0, 0)));
        let mut txb = TxBatch::new(64);
        c.on_timer(0, &mut txb).unwrap();
        from_workers(&mut c, 0, |_| CtrlMsg::Register { job: 0 }, 10, &mut txb);
        txb.clear();
        c.on_timer(at - 1, &mut txb).unwrap();
        assert!(quiesced(&txb).is_empty(), "failed over early");
        assert_eq!(c.next_deadline(), Some(at));
        c.on_timer(at, &mut txb).unwrap();
        assert_eq!(quiesced(&txb), [1, 2]);
        assert!(c.events.contains(&"failover: switch 0 -> 0".to_string()));
    }

    /// Done waits for the arrival script as well as the running jobs,
    /// and the frame that completes the last job says so.
    #[test]
    fn done_once_no_arrival_is_pending_and_every_job_is_complete() {
        let at = 7 * TICK;
        let mut c = controller(
            &[(0, 0, Class::BestEffort), (at, 1, Class::BestEffort)],
            None,
        );
        let mut txb = TxBatch::new(64);
        let done = |wid, job| CtrlMsg::Done { job, wid, epoch: 0 };
        c.on_timer(0, &mut txb).unwrap();
        from_workers(&mut c, 0, |_| CtrlMsg::Register { job: 0 }, 10, &mut txb);
        assert!(!from_workers(&mut c, 0, |w| done(w, 0), 20, &mut txb));
        assert!(c.events.contains(&"job 0: complete".to_string()));
        assert!(!c.is_done(), "job 1 has yet to arrive");
        c.on_timer(at, &mut txb).unwrap();
        assert!(!c.is_done(), "job 1 is running");
        from_workers(&mut c, 1, |_| CtrlMsg::Register { job: 1 }, at, &mut txb);
        assert!(from_workers(&mut c, 1, |w| done(w, 1), at + 10, &mut txb));
        assert!(c.is_done());
    }
}
