//! The control plane over real transport ports and threads.
//!
//! Same state machines as [`crate::netsim`], deployment-shaped: the
//! controller, the multi-job switch, and each worker run on their own
//! threads with wall-clock heartbeats and retransmission timers,
//! exchanging datagrams over a [`Port`] fabric (in-memory channels or
//! UDP). Endpoint layout: `0` = switch, `1..=n` = workers, `n + 1` =
//! controller; control-plane peer ids are the endpoint indices.
//!
//! [`run_controlled`] drives one job end to end — including an
//! optional scheduled worker kill, in which case the controller
//! detects the death by heartbeat timeout, quiesces the survivors,
//! shrinks the job, and the survivors finish under the reconfigured
//! `n` and `f`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use switchml_core::config::{Protocol, RtoPolicy};
use switchml_core::error::{Error, Result};
use switchml_core::packet::Packet;
use switchml_core::switch::multijob::MultiJobSwitch;
use switchml_core::switch::pipeline::PipelineModel;
use switchml_core::switch::SwitchStats;
use switchml_core::worker::engine::EngineStats;
use switchml_core::worker::stream::TensorStream;
use switchml_core::worker::Worker;
use switchml_transport::port::PARK;
use switchml_transport::runner::SCRATCH_CAPACITY;
use switchml_transport::{switch_ingress, BurstBuf, Port, PortStats, TxBatch, SWITCH_ENDPOINT};

use crate::controller::{Action, Controller, CtrlConfig};
use crate::msg::{bitmap_contains, chunk_bitmap, CtrlMsg};

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
    /// Live slot repartitions: at each delay, quiesce the job at its
    /// chunk frontier and resume it on a pool of the given size under
    /// a bumped epoch. This is the primitive the multi-tenant
    /// scheduler uses to preempt and hand back switch slots.
    pub resize: Vec<(Duration, usize)>,
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
            resize: Vec::new(),
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
    pub wall: Duration,
}

fn controller_endpoint(n_workers: usize) -> usize {
    n_workers + 1
}

/// What the switch thread hands back: run-total counters, the same
/// counters broken down per admitted pool (wire job id, in harvest
/// order — a job that reconfigures appears once per epoch's pool),
/// and the port's transport counters.
pub(crate) struct SwitchOut {
    pub total: SwitchStats,
    pub per_pool: Vec<(u8, SwitchStats)>,
    pub port_stats: PortStats,
}

/// Frames per receive burst on the tenant switch: enough to amortize
/// the syscall (and engage UDP GRO) under a multi-job flood; burst
/// receive never waits to fill, so it adds no latency when quiet.
const SWITCH_BURST: usize = 32;

/// The tenant switch: admission/eviction control messages demuxed by
/// [`CtrlMsg::is_ctrl`], everything else through the one data-plane
/// ingress ([`switch_ingress`]) into the job's pool, responses routed
/// to the job's member endpoints and flushed once per burst.
pub(crate) fn switch_thread<P: Port>(
    mut port: P,
    stop: &AtomicBool,
    deadline: Instant,
    epoch0: Instant,
    mut restart: Option<Duration>,
) -> Result<SwitchOut> {
    let mut switch = MultiJobSwitch::new(PipelineModel::default());
    let mut members: std::collections::HashMap<u8, Vec<usize>> = Default::default();
    let mut rxb = BurstBuf::new(SWITCH_BURST, SCRATCH_CAPACITY);
    let mut txb = TxBatch::new(SCRATCH_CAPACITY);
    let mut tx = Vec::with_capacity(SCRATCH_CAPACITY);
    // Counters belong to the harness's observer, not the switch
    // process: they survive evictions and restarts so the report can
    // total the whole run.
    let mut total = SwitchStats::default();
    let mut per_pool: Vec<(u8, SwitchStats)> = Vec::new();
    let harvest = |switch: &MultiJobSwitch,
                   job: u8,
                   total: &mut SwitchStats,
                   per: &mut Vec<(u8, SwitchStats)>| {
        if let Some(s) = switch.stats(job) {
            total.merge(s);
            per.push((job, s));
        }
    };
    while !stop.load(Ordering::Acquire) {
        if Instant::now() > deadline {
            return Err(Error::ProtocolViolation(
                "switch thread exceeded the wall-clock budget".into(),
            ));
        }
        if restart.is_some_and(|after| epoch0.elapsed() >= after) {
            restart = None;
            // Process restart: every admitted pool and its routing
            // state is gone. Recovery is the controller's job — it
            // will notice, quiesce, and re-admit under a bumped epoch.
            for job in switch.job_ids() {
                harvest(&switch, job, &mut total, &mut per_pool);
            }
            switch = MultiJobSwitch::new(PipelineModel::default());
            members.clear();
        }
        if port.recv_batch(&mut rxb, PARK) == 0 {
            continue;
        }
        for (_from, data) in rxb.iter() {
            if CtrlMsg::is_ctrl(data) {
                match CtrlMsg::decode(data) {
                    Ok(CtrlMsg::AdmitJob {
                        job,
                        epoch,
                        proto,
                        members: peers,
                    }) if switch.admit(job, &proto).is_ok() => {
                        switch
                            .set_job_epoch(job, (epoch & 0xff) as u8)
                            .expect("just admitted");
                        members.insert(job, peers.iter().map(|&p| p as usize).collect());
                    }
                    Ok(CtrlMsg::EvictJob { job }) => {
                        harvest(&switch, job, &mut total, &mut per_pool);
                        let _ = switch.evict(job);
                        members.remove(&job);
                    }
                    _ => {}
                }
                continue;
            }
            // Traffic for an unadmitted (stale-epoch) job is rejected
            // by the switch and dropped by the ingress — exactly the
            // eviction semantics we want.
            switch_ingress(&mut switch, data, &mut tx, &mut txb, |job| {
                members.get(&job).map(Vec::as_slice)
            });
        }
        txb.flush(&mut port);
    }
    for job in switch.job_ids() {
        harvest(&switch, job, &mut total, &mut per_pool);
    }
    Ok(SwitchOut {
        total,
        per_pool,
        port_stats: port.stats(),
    })
}

struct CtrlThreadOut {
    final_epoch: u32,
    final_n: usize,
    final_f: f64,
    final_pool: usize,
    port_stats: PortStats,
}

#[allow(clippy::too_many_arguments)]
fn controller_thread<P: Port>(
    mut port: P,
    mut ctrl: Controller,
    epoch0: Instant,
    tick: Duration,
    stop: &AtomicBool,
    job_done: &AtomicBool,
    deadline: Instant,
    events: &Mutex<Vec<String>>,
    mut failover_after: Option<Duration>,
    mut resize: Vec<(Duration, usize)>,
) -> Result<CtrlThreadOut> {
    let now_ns = || epoch0.elapsed().as_nanos() as u64;
    let mut next_tick = Instant::now();
    resize.sort_by_key(|&(at, _)| at);
    while !stop.load(Ordering::Acquire) {
        if Instant::now() > deadline {
            return Err(Error::ProtocolViolation(
                "controller thread exceeded the wall-clock budget".into(),
            ));
        }
        let mut actions = Vec::new();
        while resize
            .first()
            .is_some_and(|&(at, _)| epoch0.elapsed() >= at)
        {
            let (_, pool) = resize.remove(0);
            events
                .lock()
                .unwrap()
                .push(format!("job 0: repartition to {pool} slots requested"));
            match ctrl.resize_job(0, pool, now_ns()) {
                Ok(acts) => actions.extend(acts),
                Err(e) => events
                    .lock()
                    .unwrap()
                    .push(format!("job 0: repartition rejected: {e}")),
            }
        }
        if failover_after.is_some_and(|after| epoch0.elapsed() >= after) {
            failover_after = None;
            events
                .lock()
                .unwrap()
                .push("switch restart detected: failing all jobs over in place".into());
            actions.extend(ctrl.fail_over_all(0, 0, now_ns()));
        }
        if let Some((from, data)) = port.recv_timeout(tick / 4) {
            if let Ok(msg) = CtrlMsg::decode(&data) {
                actions.extend(ctrl.on_message(from as u64, msg, now_ns()));
            }
        }
        if Instant::now() >= next_tick {
            actions.extend(ctrl.on_tick(now_ns()));
            next_tick = Instant::now() + tick;
        }
        for act in actions {
            match act {
                Action::Send { to, msg } => port.send(to as usize, &msg.encode()),
                Action::SwitchCtl { msg, .. } => port.send(SWITCH_ENDPOINT, &msg.encode()),
                Action::WorkerDead { job, wid } => events
                    .lock()
                    .unwrap()
                    .push(format!("job {job}: worker {wid} declared dead")),
                Action::Reconfigured { job, epoch, n, f } => events.lock().unwrap().push(format!(
                    "job {job}: reconfigured to epoch {epoch} n={n} f={f}"
                )),
                Action::JobComplete { job } => {
                    events.lock().unwrap().push(format!("job {job}: complete"));
                    job_done.store(true, Ordering::Release);
                }
            }
        }
    }
    Ok(CtrlThreadOut {
        final_epoch: ctrl.epoch(0).unwrap_or(0),
        final_n: ctrl.alive_count(0).unwrap_or(0),
        final_f: ctrl.negotiated_f(0).unwrap_or(0.0),
        final_pool: ctrl.pool_size(0).unwrap_or(0),
        port_stats: port.stats(),
    })
}

enum RState {
    Registering,
    Ready,
    Running(Box<Worker>),
    Quiesced(Box<TensorStream>),
    Finished(Box<TensorStream>),
}

fn send_update<P: Port>(port: &mut P, mut pkt: Packet, wire_job: u8) {
    pkt.job = wire_job;
    port.send(SWITCH_ENDPOINT, &pkt.encode());
}

/// What one worker thread hands back.
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

/// One controller-attached worker. Unlike the switch it stays on owned
/// packets ([`Packet::decode`] → [`Worker`] → `encode`): quiesce,
/// resume and re-scaling across epochs live in [`Worker`] and its
/// `TensorStream` (every numeric mode), not in a bare `SlotEngine`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn worker_thread<P: Port>(
    mut port: P,
    job: u8,
    ctrl_ep: usize,
    tensors: Vec<Vec<f32>>,
    mut base: Protocol,
    cfg: &CtrlRunConfig,
    epoch0: Instant,
    kill_after: Option<Duration>,
    stop: &AtomicBool,
    deadline: Instant,
) -> Result<WorkerOut> {
    let now_ns = || epoch0.elapsed().as_nanos() as u64;
    let quiesce_bitmap = |s: &TensorStream| chunk_bitmap(s.total_chunks(), |c| s.chunk_is_done(c));

    let mut state = RState::Registering;
    let (mut wid, mut epoch, mut wire_job) = (0u16, 0u32, 0u8);
    let mut next_beat = Instant::now();
    // Accumulated across epochs: harvested whenever a live Worker is
    // torn down (quiesce, finish, teardown).
    let mut stats = EngineStats::default();
    let mut first_result: Option<Duration> = None;

    let tensors = loop {
        if stop.load(Ordering::Acquire) {
            // Run torn down (job complete or aborted): hand back
            // whatever this worker aggregated.
            break match state {
                RState::Finished(s) => Some(s.result_tensors_f32(1)?),
                RState::Running(w) => {
                    stats.merge(w.stats());
                    None
                }
                _ => None,
            };
        }
        if kill_after.is_some_and(|k| epoch0.elapsed() >= k) {
            break None; // simulated crash: silent exit, no teardown
        }
        if Instant::now() > deadline {
            return Err(Error::ProtocolViolation(
                "worker thread exceeded the wall-clock budget".into(),
            ));
        }

        // Periodic control traffic: Register until welcomed, Done after
        // finishing (the completion report is retried until the job is
        // torn down), heartbeats otherwise.
        if Instant::now() >= next_beat {
            let msg = match &state {
                RState::Registering => CtrlMsg::Register { job },
                RState::Finished(_) => CtrlMsg::Done { job, wid, epoch },
                _ => CtrlMsg::Heartbeat { job, wid, epoch },
            };
            port.send(ctrl_ep, &msg.encode());
            next_beat = Instant::now() + cfg.heartbeat;
        }

        if let Some((_, data)) = port.recv_timeout(Duration::from_micros(500)) {
            if CtrlMsg::is_ctrl(&data) {
                let Ok(msg) = CtrlMsg::decode(&data) else {
                    continue;
                };
                match msg {
                    CtrlMsg::Welcome {
                        job: j,
                        wid: w,
                        epoch: e,
                        n,
                        f,
                        wire_job: wj,
                        ..
                    } if j == job && matches!(state, RState::Registering) => {
                        wid = w;
                        epoch = e;
                        wire_job = wj;
                        base.n_workers = n as usize;
                        base.scaling_factor = f;
                        state = RState::Ready;
                    }
                    CtrlMsg::Start { job: j, epoch: e }
                        if j == job && e == epoch && matches!(state, RState::Ready) =>
                    {
                        let stream = TensorStream::from_f32(
                            &tensors,
                            base.mode,
                            base.scaling_factor,
                            base.k,
                        )?;
                        let mut w = Worker::sharded(wid, &base, stream, cfg.n_cores)?;
                        w.set_epoch((epoch & 0xff) as u8);
                        for pkt in w.start(now_ns())? {
                            send_update(&mut port, pkt, wire_job);
                        }
                        state = RState::Running(Box::new(w));
                    }
                    CtrlMsg::Quiesce { job: j, epoch: e } if j == job && e == epoch => {
                        let (next, done) = match std::mem::replace(&mut state, RState::Registering)
                        {
                            RState::Running(w) => {
                                stats.merge(w.stats());
                                let s = w.into_stream();
                                let bm = quiesce_bitmap(&s);
                                (RState::Quiesced(Box::new(s)), Some(bm))
                            }
                            RState::Quiesced(s) => {
                                let bm = quiesce_bitmap(&s);
                                (RState::Quiesced(s), Some(bm))
                            }
                            RState::Finished(s) => {
                                let bm = quiesce_bitmap(&s);
                                (RState::Finished(s), Some(bm))
                            }
                            // Welcomed but never started: nothing done.
                            RState::Ready => (RState::Ready, Some(Vec::new())),
                            other => (other, None),
                        };
                        state = next;
                        if let Some(done) = done {
                            port.send(
                                ctrl_ep,
                                &CtrlMsg::QuiesceAck {
                                    job,
                                    wid,
                                    epoch,
                                    done,
                                }
                                .encode(),
                            );
                        }
                    }
                    CtrlMsg::Reconfigure {
                        job: j,
                        epoch: e,
                        n,
                        new_wid,
                        f,
                        wire_job: wj,
                        pool_size,
                        frontier,
                        ..
                    } if j == job && e == epoch + 1 => {
                        let stream = match std::mem::replace(&mut state, RState::Registering) {
                            RState::Quiesced(s) | RState::Finished(s) => Some(*s),
                            // Never started (lost Start): from scratch.
                            RState::Ready => None,
                            other => {
                                state = other;
                                continue;
                            }
                        };
                        epoch = e;
                        wid = new_wid;
                        wire_job = wj;
                        base.n_workers = n as usize;
                        base.scaling_factor = f;
                        base.pool_size = pool_size as usize;
                        let mut stream = match stream {
                            Some(s) => s,
                            None => TensorStream::from_f32(&tensors, base.mode, f, base.k)?,
                        };
                        // Keep only chunks aggregated at *every*
                        // survivor; the rest re-stream under new n, f.
                        for c in 0..stream.total_chunks() {
                            if stream.chunk_is_done(c) && !bitmap_contains(&frontier, c) {
                                stream.mark_undone(c);
                            }
                        }
                        stream.set_scaling(f)?;
                        let mut w = Worker::resume(wid, &base, stream, cfg.n_cores)?;
                        w.set_epoch((epoch & 0xff) as u8);
                        for pkt in w.start(now_ns())? {
                            send_update(&mut port, pkt, wire_job);
                        }
                        // Immediate heartbeat marks this member synced.
                        port.send(ctrl_ep, &CtrlMsg::Heartbeat { job, wid, epoch }.encode());
                        state = RState::Running(Box::new(w));
                    }
                    CtrlMsg::Probe { job: j, .. }
                        if j == job && !matches!(state, RState::Registering) =>
                    {
                        port.send(ctrl_ep, &CtrlMsg::Heartbeat { job, wid, epoch }.encode());
                    }
                    _ => {}
                }
            } else if let Ok(pkt) = Packet::decode(&data) {
                // Results from a pre-reconfiguration epoch carry the
                // old wire job id and are dropped here.
                if pkt.job == wire_job {
                    if let RState::Running(w) = &mut state {
                        first_result.get_or_insert_with(|| epoch0.elapsed());
                        for out in w.on_result(&pkt, now_ns())? {
                            send_update(&mut port, out, wire_job);
                        }
                    }
                }
            }
        }

        if let RState::Running(w) = &mut state {
            let t = now_ns();
            if w.next_deadline().is_some_and(|d| d <= t) {
                for pkt in w.expired(t)? {
                    send_update(&mut port, pkt, wire_job);
                }
            }
        }
        if matches!(&state, RState::Running(w) if w.is_done()) {
            let RState::Running(w) = std::mem::replace(&mut state, RState::Registering) else {
                unreachable!()
            };
            stats.merge(w.stats());
            state = RState::Finished(Box::new(w.into_stream()));
            port.send(ctrl_ep, &CtrlMsg::Done { job, wid, epoch }.encode());
        }
    };
    Ok(WorkerOut {
        tensors,
        stats,
        first_result,
        port_stats: port.stats(),
    })
}

/// Run one controller-managed job over a transport fabric.
///
/// `ports` layout: `[switch, worker 0, …, worker n−1, controller]`.
/// `updates[w]` is worker `w`'s tensor set. With `cfg.kill` set, the
/// named worker crashes mid-run; the controller detects the silence,
/// quiesces, shrinks the job, and the survivors complete under the
/// reconfigured membership.
pub fn run_controlled<P: Port + 'static>(
    ports: Vec<P>,
    updates: Vec<Vec<Vec<f32>>>,
    proto: &Protocol,
    cfg: &CtrlRunConfig,
) -> Result<CtrlRunReport> {
    proto.validate()?;
    let n = proto.n_workers;
    if updates.len() != n {
        return Err(Error::InvalidConfig("one update set per worker".into()));
    }
    if ports.len() != n + 2 {
        return Err(Error::InvalidConfig(format!(
            "need {} ports (switch + workers + controller), got {}",
            n + 2,
            ports.len()
        )));
    }
    // Coarse-clocked transports (UDP's 100 us SO_RCVTIMEO granule)
    // cannot honor a finer RTO; resolve before the config is propagated
    // to workers and the controller's reconfigure messages.
    let proto = &switchml_transport::resolve_run_proto(proto, &ports)?;

    let probe = TensorStream::from_f32(&updates[0], proto.mode, 1.0, proto.k)?;
    let n_chunks = probe.total_chunks();
    let hb = cfg.heartbeat.as_nanos() as u64;
    let ctrl_cfg = CtrlConfig {
        heartbeat_interval_ns: hb,
        failure_timeout_ns: cfg.failure_timeout.as_nanos() as u64,
        probe_rto_ns: hb,
        probe_policy: RtoPolicy::ExponentialBackoff {
            max_ns: cfg.failure_timeout.as_nanos() as u64,
        },
        probe_limit: 3,
    };
    let mut controller = Controller::new(ctrl_cfg, vec![PipelineModel::default()]);
    controller.create_job(0, proto.clone(), cfg.bound, n_chunks, 0)?;

    let t0 = Instant::now();
    let deadline = t0 + cfg.max_wall;
    let stop = Arc::new(AtomicBool::new(false));
    let job_done = Arc::new(AtomicBool::new(false));
    let events = Arc::new(Mutex::new(Vec::new()));

    let mut ports = ports;
    let ctrl_port = ports.pop().expect("controller port");
    let worker_ports: Vec<P> = ports.drain(1..).collect();
    let switch_port = ports.pop().expect("switch port");

    // The controller learns of a switch restart only after the switch
    // has been silent for a failure timeout — firing the failover
    // before the wipe would let the freshly admitted pool be wiped
    // too, stranding the survivors.
    let failover_after = cfg.switch_restart.map(|d| d + cfg.failure_timeout);

    std::thread::scope(|scope| {
        let switch_handle = {
            let stop = Arc::clone(&stop);
            let restart = cfg.switch_restart;
            scope.spawn(move || switch_thread(switch_port, &stop, deadline, t0, restart))
        };
        let ctrl_handle = {
            let stop = Arc::clone(&stop);
            let job_done = Arc::clone(&job_done);
            let events = Arc::clone(&events);
            let tick = cfg.heartbeat / 2;
            scope.spawn(move || {
                controller_thread(
                    ctrl_port,
                    controller,
                    t0,
                    tick,
                    &stop,
                    &job_done,
                    deadline,
                    &events,
                    failover_after,
                    cfg.resize.clone(),
                )
            })
        };
        let worker_handles: Vec<_> = worker_ports
            .into_iter()
            .enumerate()
            .map(|(w, port)| {
                let stop = Arc::clone(&stop);
                let tensors = updates[w].clone();
                let base = proto.clone();
                let cfg = cfg.clone();
                let kill = match cfg.kill {
                    Some((victim, after)) if victim as usize == w => Some(after),
                    _ => None,
                };
                let ctrl_ep = controller_endpoint(n);
                scope.spawn(move || {
                    worker_thread(
                        port, 0, ctrl_ep, tensors, base, &cfg, t0, kill, &stop, deadline,
                    )
                })
            })
            .collect();

        // Tear the fabric down once the controller declares the job
        // complete, or the budget runs out (threads then report why).
        while !job_done.load(Ordering::Acquire) && Instant::now() <= deadline {
            std::thread::sleep(Duration::from_micros(500));
        }
        stop.store(true, Ordering::Release);

        let mut results = Vec::with_capacity(n);
        let mut worker_stats = Vec::with_capacity(n);
        let mut transport_stats = PortStats::default();
        let mut first_err = None;
        for h in worker_handles {
            match h.join().expect("worker thread panicked") {
                Ok(out) => {
                    results.push(out.tensors);
                    worker_stats.push(out.stats);
                    transport_stats.merge(out.port_stats);
                }
                Err(e) => {
                    results.push(None);
                    worker_stats.push(EngineStats::default());
                    first_err = first_err.or(Some(e));
                }
            }
        }
        let ctrl_out = ctrl_handle.join().expect("controller thread panicked")?;
        let switch_out = switch_handle.join().expect("switch thread panicked")?;
        transport_stats.merge(ctrl_out.port_stats);
        transport_stats.merge(switch_out.port_stats);
        if !job_done.load(Ordering::Acquire) {
            return Err(first_err.unwrap_or_else(|| {
                Error::ProtocolViolation("job did not complete within the budget".into())
            }));
        }
        Ok(CtrlRunReport {
            results,
            events: events.lock().unwrap().clone(),
            final_epoch: ctrl_out.final_epoch,
            final_n: ctrl_out.final_n,
            final_f: ctrl_out.final_f,
            final_pool: ctrl_out.final_pool,
            worker_stats,
            switch_stats: switch_out.total,
            per_pool_switch_stats: switch_out.per_pool,
            transport_stats,
            wall: t0.elapsed(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchml_transport::channel::channel_fabric;

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
        // Large enough that the stream is still in flight at kill time.
        let report = run_controlled(ports, updates(n, 16384), &proto(n), &cfg).unwrap();
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
        let elems = 16384;
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
        let report = run_controlled(ports, updates(n, 16384), &proto(n), &cfg).unwrap();
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

    /// Live repartition under load: the job is shrunk at its chunk
    /// frontier mid-training, then regrown, and still finishes
    /// bit-identical to an unpartitioned reference run. Committed
    /// chunks survive both repartitions; stragglers from the old
    /// partitions die on the §5.4 epoch fence.
    #[test]
    fn shrink_then_regrow_matches_unpartitioned_reference() {
        let n = 3;
        let elems = 16384;
        let cfg = CtrlRunConfig {
            resize: vec![
                (Duration::from_millis(6), 4),
                (Duration::from_millis(14), 24),
            ],
            heartbeat: Duration::from_millis(2),
            failure_timeout: Duration::from_millis(10),
            ..CtrlRunConfig::default()
        };
        let ports = channel_fabric(n + 2);
        let report = run_controlled(ports, updates(n, elems), &proto(n), &cfg).unwrap();
        assert_eq!(report.final_n, n, "no worker died: {:?}", report.events);
        assert!(
            report.final_epoch >= 2,
            "both repartitions must bump the epoch: {:?}",
            report.events
        );
        assert_eq!(report.final_pool, 24, "events: {:?}", report.events);
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
            "repartitioned run must be bit-identical to the reference"
        );
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
