//! The control plane's endpoints over real transport ports.
//!
//! Same state machines as [`crate::netsim`], deployment-shaped: the
//! [`TenantSwitch`] runs on its own thread, and each [`TenantWorker`] is
//! a [`WorkerEndpoint`] that the one driver, [`crate::sched`]'s, polls
//! on its own thread beside the controller, with wall-clock heartbeats
//! and retransmission timers, exchanging datagrams over a [`Port`]
//! fabric (in-memory channels or UDP). The switch thread and the
//! endpoints own only I/O, clocks and fault scripts; the protocol is
//! the machines'. The driver spawns the switch thread, creates the
//! endpoints as jobs arrive and harvests them as jobs finish. Endpoint
//! layout: `0` = switch, `1..=n` = workers, `n + 1` = controller;
//! control-plane peer ids are the endpoint indices.
//!
//! [`run_controlled`] drives one job end to end as a one-job run of that
//! driver — including an optional scheduled worker kill, in which case
//! the controller detects the death by heartbeat timeout, quiesces the
//! survivors, shrinks the job, and the survivors finish under the
//! reconfigured `n` and `f`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use switchml_core::config::Protocol;
use switchml_core::error::{Error, Result};
use switchml_core::switch::SwitchStats;
use switchml_core::worker::engine::EngineStats;
use switchml_transport::port::PARK;
use switchml_transport::{BurstBuf, Port, PortStats, ReactorStats, TxBatch};

use crate::sched::{drive, Class, Faults, SchedJob, SchedRunConfig, TenantSpec};
use crate::tenant::{TenantSwitch, TenantWorker};

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
const BURST: usize = 32;

/// Drive a [`TenantSwitch`] on `port`: park for a burst, hand it over
/// frame by frame, flush what it staged once per burst, and restart the
/// switch process once `restart` has elapsed. `proto` sizes the frames:
/// the largest job it will serve (`k`, members). Hands back the switch,
/// every pool harvested into its counters, and the port's counters.
pub(crate) fn switch_thread<P: Port>(
    mut port: P,
    proto: &Protocol,
    stop: &AtomicBool,
    deadline: Instant,
    epoch0: Instant,
    mut restart: Option<Duration>,
) -> Result<(TenantSwitch, PortStats)> {
    let mut switch = TenantSwitch::default();
    let frame_cap = TenantSwitch::frame_capacity(proto);
    let mut rxb = BurstBuf::new(BURST, frame_cap);
    let mut txb = TxBatch::new(frame_cap);
    while !stop.load(Ordering::Acquire) {
        if Instant::now() > deadline {
            return Err(Error::ProtocolViolation(
                "switch thread exceeded the wall-clock budget".into(),
            ));
        }
        if restart.is_some_and(|after| epoch0.elapsed() >= after) {
            restart = None;
            switch.restart();
        }
        if port.recv_batch(&mut rxb, PARK) == 0 {
            continue;
        }
        for (from, data) in rxb.iter() {
            switch.on_frame(from, data, &mut txb);
        }
        txb.flush(&mut port);
    }
    switch.restart(); // harvest the pools still admitted
    Ok((switch, port.stats()))
}

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

/// One [`TenantWorker`] as the driver thread polls it: its port, its
/// heartbeat clock and its burst buffers. `kill_after` crashes the
/// worker silently, as a process would: from that instant on it sends
/// nothing, and its port is closed.
pub(crate) struct WorkerEndpoint<P> {
    /// `None` once stopped.
    port: Option<P>,
    worker: TenantWorker,
    ctrl_ep: usize,
    heartbeat: Duration,
    epoch0: Instant,
    /// When the next heartbeat is due, on the run's clock.
    next_beat: u64,
    kill_after: Option<Duration>,
    first_result: Option<Duration>,
    rxb: BurstBuf,
    txb: TxBatch,
    /// Once stopped: killed, with the port's last counters, or failed.
    stopped: Option<Result<PortStats>>,
}

impl<P: Port> WorkerEndpoint<P> {
    pub(crate) fn new(
        port: P,
        worker: TenantWorker,
        ctrl_ep: usize,
        heartbeat: Duration,
        epoch0: Instant,
        kill_after: Option<Duration>,
    ) -> Self {
        let frame_cap = worker.frame_capacity();
        WorkerEndpoint {
            port: Some(port),
            worker,
            ctrl_ep,
            heartbeat,
            epoch0,
            next_beat: 0,
            kill_after,
            first_result: None,
            rxb: BurstBuf::new(BURST, frame_cap),
            txb: TxBatch::new(frame_cap),
            stopped: None,
        }
    }

    /// One turn: the heartbeat if it is due, one zero-timeout burst
    /// receive handed over frame by frame in arrival order, expired
    /// retransmissions, and what that staged flushed once. Counts its
    /// receive and its timer work into `stats`; returns whether it
    /// received a frame or fired a timer. An error stops this endpoint
    /// alone, and [`Self::finish`] returns it.
    pub(crate) fn poll(&mut self, stats: &mut ReactorStats) -> bool {
        if self.port.is_none() {
            return false;
        }
        if self.kill_after.is_some_and(|k| self.epoch0.elapsed() >= k) {
            self.stop(Ok(()));
            return false;
        }
        self.turn(stats).unwrap_or_else(|e| {
            self.stop(Err(e));
            true
        })
    }

    fn turn(&mut self, stats: &mut ReactorStats) -> Result<bool> {
        let epoch0 = self.epoch0;
        let now = epoch0.elapsed().as_nanos() as u64;
        let port = self.port.as_mut().expect("polled while open");
        if now >= self.next_beat {
            port.send(self.ctrl_ep, &self.worker.beat().encode());
            self.next_beat = now + self.heartbeat.as_nanos() as u64;
        }
        stats.polls += 1;
        let mut moved = port.recv_batch(&mut self.rxb, Duration::ZERO) > 0;
        if moved {
            stats.rx_batches += 1;
            for (_, data) in self.rxb.iter() {
                if self.worker.on_frame(data, now, &mut self.txb)? {
                    self.first_result.get_or_insert_with(|| epoch0.elapsed());
                }
            }
        }
        let now = epoch0.elapsed().as_nanos() as u64;
        if self.worker.next_deadline().is_some_and(|d| d <= now) {
            stats.timer_fires += 1;
            moved = true;
            self.worker.on_timer(now, &mut self.txb)?;
        }
        self.txb.flush(port);
        Ok(moved)
    }

    /// The earliest instant, on the run's clock, at which [`Self::poll`]
    /// has timed work: a retransmission or a heartbeat. `None` once
    /// stopped.
    pub(crate) fn next_wake(&self) -> Option<u64> {
        self.port.as_ref()?;
        let beat = self.next_beat;
        Some(self.worker.next_deadline().map_or(beat, |d| d.min(beat)))
    }

    /// Stop polling for good, killed (`Ok`) or failed, and close the
    /// port.
    fn stop(&mut self, why: Result<()>) {
        let port = self.port.take().expect("stopped once");
        self.stopped = Some(why.map(|()| port.stats()));
    }

    /// Torn down (job complete or aborted): whatever this worker
    /// aggregated, in the allocations it was given. A crashed one hands
    /// back no tensors.
    pub(crate) fn finish(mut self) -> Result<WorkerOut> {
        let (killed, port_stats) = match (self.stopped, self.port) {
            (Some(stopped), _) => (true, stopped?),
            (None, port) => (false, port.expect("open until stopped").stats()),
        };
        Ok(WorkerOut {
            tensors: (!killed).then(|| self.worker.take_results()).flatten(),
            stats: self.worker.stats(),
            first_result: self.first_result,
            port_stats,
        })
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
    let d = drive(ports, vec![job], proto, &sched_cfg, faults, |_, o| outs = o)?;
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
    if !d.report.outcomes.iter().any(|o| o.completed_at.is_some()) {
        return Err(first_err.unwrap_or_else(|| {
            Error::ProtocolViolation("job did not complete within the budget".into())
        }));
    }
    Ok(CtrlRunReport {
        results,
        events: d.report.events,
        final_epoch: d.ctrl.epoch(0).unwrap_or(0),
        final_n: d.ctrl.alive_count(0).unwrap_or(0),
        final_f: d.ctrl.negotiated_f(0).unwrap_or(0.0),
        final_pool: d.ctrl.pool_size(0).unwrap_or(0),
        worker_stats,
        switch_stats: d.switch.total,
        per_pool_switch_stats: d.switch.per_pool,
        transport_stats: d.report.transport_stats,
        driver: d.report.driver,
        wall: d.report.wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::CtrlMsg;
    use std::sync::{Arc, Mutex};
    use switchml_transport::channel::channel_fabric;
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
            report.events.iter().any(|e| e.contains("switch restart")),
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
    /// the script has run out. `dropped` is set when the port is.
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
                bufs.commit_next(SWITCH_ENDPOINT);
            }
            bufs.len()
        }
    }

    const SCRIPT_CTRL_EP: usize = 2;

    /// One worker of a single-worker job (its own update is the
    /// aggregate) as an endpoint on a scripted port, with the flags of
    /// that port and the log of what it sent.
    struct Scripted {
        ep: WorkerEndpoint<ScriptPort>,
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
        let ep = WorkerEndpoint::new(
            port,
            worker,
            SCRIPT_CTRL_EP,
            heartbeat,
            Instant::now(),
            kill_after,
        );
        Scripted {
            ep,
            sent,
            exhausted,
            dropped,
        }
    }

    /// Poll a scripted worker until its script runs out; returns its
    /// counters and what it sent.
    fn scripted_worker(steps: Vec<ScriptStep>) -> (EngineStats, Vec<(usize, Vec<u8>)>) {
        let mut s = scripted(steps, None);
        while !s.exhausted.load(Ordering::Acquire) {
            s.ep.poll(&mut ReactorStats::default());
        }
        let out = s.ep.finish().unwrap();
        let sent = s.sent.lock().unwrap().clone();
        (out.stats, sent)
    }

    /// A killed endpoint is a crashed process: after the kill instant it
    /// sends nothing — no heartbeat, no retransmission, though both are
    /// overdue — its port is closed, and it hands back no tensors. The
    /// same script without the kill does send, so the silence is the
    /// kill's.
    #[test]
    fn a_killed_endpoint_is_silent() {
        const KILL: Duration = Duration::from_millis(100);
        let run = |kill_after: Option<Duration>| {
            let mut s = scripted(vec![welcome_and_start()], kill_after);
            let mut stats = ReactorStats::default();
            s.ep.poll(&mut stats);
            let before = s.sent.lock().unwrap().len();
            assert_eq!(
                results_for(&s.sent.lock().unwrap()).len(),
                4,
                "the initial window"
            );
            // Past the kill instant, the heartbeat and the RTO.
            std::thread::sleep(KILL + Duration::from_millis(20));
            for _ in 0..3 {
                s.ep.poll(&mut stats);
            }
            let after = s.sent.lock().unwrap().len();
            let dropped = s.dropped.load(Ordering::Acquire);
            (before, after, dropped, s.ep.finish().unwrap().tensors)
        };
        let (before, after, dropped, _) = run(None);
        assert!(after > before, "a live endpoint beats and retransmits");
        assert!(!dropped);
        let (before, after, dropped, tensors) = run(Some(KILL));
        assert_eq!(after, before, "a killed endpoint sent after the kill");
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
            s.ep.poll(&mut ReactorStats::default());
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
        let err = s.ep.finish().err().expect("the worker failed");
        assert!(err.to_string().contains("no longer kept"), "{err}");
        assert!(s.dropped.load(Ordering::Acquire), "and closed its port");
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
}
