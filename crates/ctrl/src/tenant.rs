//! The endpoint half of the control protocol, sans-IO.
//!
//! SwitchML's failure handling (§5.4) is a protocol between a
//! controller, the switch and the workers. [`crate::controller`] is the
//! controller; this module is the other two ends:
//!
//! - a [`TenantWorker`]: register, stream under the negotiated
//!   configuration, heartbeat, quiesce at the chunk frontier, resume
//!   under a reconfigured membership, report `Done`;
//! - a [`TenantSwitch`]: a [`MultiJobSwitch`] whose pools the
//!   controller admits (and is acknowledged for) and evicts.
//!
//! Neither owns a port or a clock. A frame comes in with the time it
//! arrived; replies, data-plane traffic and reports go out staged into a
//! [`TxBatch`], addressed by endpoint. Control frames are demuxed by
//! [`CtrlMsg::is_ctrl`] and obeyed only from the controller's endpoint
//! (anyone else's are counted and dropped); data frames take
//! [`worker_ingress`] on the worker end and, on the switch end,
//! [`switch_ingress`], the one switch ingress every switch endpoint
//! runs. The threaded executor ([`crate::runner`]) and the simulator
//! ([`crate::netsim`]) drive the same endpoints of these machines, on
//! the wall clock and on virtual time: they only move frames and keep
//! time.

use std::collections::HashMap;

use switchml_core::config::{Protocol, TimeNs};
use switchml_core::error::Result;
use switchml_core::packet::PacketView;
use switchml_core::switch::multijob::MultiJobSwitch;
use switchml_core::switch::pipeline::PipelineModel;
use switchml_core::switch::SwitchStats;
use switchml_core::worker::engine::{EngineStats, SendDescriptor};
use switchml_core::worker::stream::TensorStream;
use switchml_core::worker::Worker;
use switchml_transport::endpoint::Endpoint;
use switchml_transport::runner::frame_capacity;
use switchml_transport::{switch_ingress, TxBatch, SWITCH_ENDPOINT};

use crate::msg::{bitmap_contains, chunk_bitmap, CtrlMsg};

/// Stage a control message for `to` behind whatever is already staged.
pub(crate) fn stage(txb: &mut TxBatch, to: usize, msg: &CtrlMsg) {
    txb.push(to).extend_from_slice(&msg.encode());
}

/// Quantize and encode `sends` into `txb`, aimed at the switch.
fn stage_sends(
    worker: &mut Worker,
    sends: impl IntoIterator<Item = SendDescriptor>,
    txb: &mut TxBatch,
) -> Result<()> {
    for d in sends {
        worker.encode_update(d, txb.push(SWITCH_ENDPOINT))?;
    }
    Ok(())
}

/// The [`Worker`]-side ingress, the mirror of [`switch_ingress`]: parse
/// `frame` as a borrowed [`PacketView`], hand it to the worker if it is
/// addressed to the worker's wire job, and stage the follow-up update
/// into `txb`. Returns whether the frame reached the worker. Nothing
/// that arrives on the wire can fail the caller: an unparseable
/// datagram or another job's (a pre-reconfiguration epoch's) result is
/// skipped, and whatever the worker itself refuses it counts in its
/// [`EngineStats`] (`stale`, `stale_epoch`, `rejected`).
fn worker_ingress(
    worker: &mut Worker,
    frame: &[u8],
    now: TimeNs,
    txb: &mut TxBatch,
) -> Result<bool> {
    let Ok(view) = PacketView::parse(frame) else {
        return Ok(false); // corrupted / foreign datagram
    };
    if view.job() != worker.job() {
        return Ok(false);
    }
    let next = worker.on_view(&view, now);
    stage_sends(worker, next, txb)?;
    Ok(true)
}

enum State {
    /// Re-sending `Register` until `Welcome` lands.
    Registering,
    /// Welcomed, waiting for `Start`.
    Ready,
    /// Streaming the tensor through the switch pool.
    Running(Box<Worker>),
    /// Data plane stopped; holding the partially aggregated stream for
    /// the reconfiguration in flight.
    Quiesced(Box<TensorStream>),
    /// Every chunk aggregated.
    Finished(Box<TensorStream>),
}

/// One controller-attached worker of job `job`.
///
/// Control messages go to the controller's endpoint, data frames to
/// [`switchml_transport::SWITCH_ENDPOINT`], which stands for the switch
/// the worker is currently aimed at ([`TenantWorker::switch`]): with
/// one switch it is that switch's endpoint, and a driver with several
/// maps it. Quiesce, resume and re-scaling across epochs live in
/// [`Worker`] and its [`TensorStream`] (every numeric mode).
pub struct TenantWorker {
    job: u8,
    ctrl: usize,
    /// The worker's update until it starts streaming: then the stream
    /// takes the tensors over and aggregates into them.
    tensors: Vec<Vec<f32>>,
    frame_cap: usize,
    /// Template protocol (k, pool, RTO); n, f and the pool size come
    /// from the controller at `Welcome`/`Reconfigure`.
    base: Protocol,
    n_cores: usize,
    state: State,
    wid: u16,
    epoch: u32,
    wire_job: u8,
    switch: usize,
    /// Counters of every worker already torn down (quiesce, finish).
    retired: EngineStats,
    /// Control frames from an endpoint other than the controller's,
    /// dropped unread.
    forged_ctrl: u64,
    /// The retransmissions of the last timer sweep, kept so a sweep
    /// allocates nothing.
    resends: Vec<SendDescriptor>,
}

impl TenantWorker {
    /// A worker of job `job` streaming `tensors`, reporting to the
    /// controller at endpoint `ctrl`, `n_cores` engines per epoch.
    pub fn new(
        job: u8,
        ctrl: usize,
        tensors: Vec<Vec<f32>>,
        base: Protocol,
        n_cores: usize,
    ) -> Self {
        // The largest control message a worker receives: a `Reconfigure`
        // whose frontier covers every chunk. Sized before the tensors
        // move into a stream.
        let elems: usize = tensors.iter().map(Vec::len).sum();
        let reconfigure = CtrlMsg::Reconfigure {
            job: 0,
            epoch: 0,
            n: 0,
            new_wid: 0,
            f: 0.0,
            switch: 0,
            wire_job: 0,
            pool_size: 0,
            frontier: chunk_bitmap(elems.div_ceil(base.k) as u64, |_| false),
        };
        let frame_cap = frame_capacity(&base).max(reconfigure.encode().len());
        TenantWorker {
            job,
            ctrl,
            tensors,
            frame_cap,
            base,
            n_cores,
            state: State::Registering,
            wid: 0,
            epoch: 0,
            wire_job: 0,
            switch: 0,
            retired: EngineStats::default(),
            forged_ctrl: 0,
            resends: Vec::new(),
        }
    }

    /// Receive-frame capacity: a data frame, or a `Reconfigure` whose
    /// frontier bitmap covers every chunk of the stream, the largest
    /// control message a worker receives.
    pub fn frame_capacity(&self) -> usize {
        self.frame_cap
    }

    /// The periodic message: `Register` until started, `Done` once
    /// finished (retried until the job is torn down), `Heartbeat`
    /// otherwise. A welcomed worker keeps registering: if its `Start`
    /// was lost, the repeat is what makes the controller replay it, and
    /// a heartbeat would only keep the stalled worker alive.
    pub fn beat(&self) -> CtrlMsg {
        let (job, wid, epoch) = (self.job, self.wid, self.epoch);
        match self.state {
            State::Registering | State::Ready => CtrlMsg::Register { job },
            State::Finished(_) => CtrlMsg::Done { job, wid, epoch },
            _ => CtrlMsg::Heartbeat { job, wid, epoch },
        }
    }

    /// Handle one frame from endpoint `from`, received at `now`, staging
    /// whatever it causes into `txb`. Frames are judged in arrival
    /// order, so a result behind a `Quiesce` or `Reconfigure` meets the
    /// state that message left. Returns whether a data frame reached the
    /// running worker. Nothing on the wire fails the call: an
    /// undecodable frame, another job's message, a stale epoch or a
    /// control frame from anyone but the controller is dropped; an
    /// error means the controller's configuration could not be built.
    pub fn on_frame(
        &mut self,
        from: usize,
        frame: &[u8],
        now: TimeNs,
        txb: &mut TxBatch,
    ) -> Result<bool> {
        if !CtrlMsg::is_ctrl(frame) {
            // Results from a pre-reconfiguration epoch carry the old
            // wire job id and never reach the worker.
            let State::Running(w) = &mut self.state else {
                return Ok(false);
            };
            let reached = worker_ingress(w, frame, now, txb)?;
            self.check_done(txb);
            return Ok(reached);
        }
        if from != self.ctrl {
            self.forged_ctrl += 1;
        } else if let Ok(msg) = CtrlMsg::decode(frame) {
            self.on_msg(msg, now, txb)?;
        }
        Ok(false)
    }

    /// Retransmit every expired slot (call at [`Self::next_deadline`]).
    pub fn on_timer(&mut self, now: TimeNs, txb: &mut TxBatch) -> Result<()> {
        if let State::Running(w) = &mut self.state {
            if w.next_deadline().is_some_and(|d| d <= now) {
                w.expired_into(now, &mut self.resends);
                stage_sends(w, self.resends.iter().copied(), txb)?;
            }
        }
        Ok(())
    }

    /// When [`Self::on_timer`] next has work.
    pub fn next_deadline(&self) -> Option<TimeNs> {
        match &self.state {
            State::Running(w) => w.next_deadline(),
            _ => None,
        }
    }

    /// Index of the switch the worker's data frames are aimed at.
    pub fn switch(&self) -> usize {
        self.switch
    }

    /// Take the aggregated tensors (raw sums) out, once finished: they
    /// come back in the allocations the worker was given. The worker is
    /// spent afterwards.
    pub fn take_results(&mut self) -> Option<Vec<Vec<f32>>> {
        match std::mem::replace(&mut self.state, State::Registering) {
            State::Finished(s) => s.into_tensors_f32(1).ok(),
            other => {
                self.state = other;
                None
            }
        }
    }

    /// Engine counters summed across every epoch this worker ran.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.retired;
        if let State::Running(w) = &self.state {
            stats.merge(w.stats());
        }
        stats
    }

    fn on_msg(&mut self, msg: CtrlMsg, now: TimeNs, txb: &mut TxBatch) -> Result<()> {
        match msg {
            CtrlMsg::Welcome {
                job,
                wid,
                epoch,
                n,
                f,
                wire_job,
                switch,
            } if job == self.job && matches!(self.state, State::Registering) => {
                (self.wid, self.epoch, self.wire_job) = (wid, epoch, wire_job);
                self.switch = switch as usize;
                self.base.n_workers = n as usize;
                self.base.scaling_factor = f;
                self.state = State::Ready;
            }
            CtrlMsg::Start { job, epoch }
                if job == self.job && epoch == self.epoch && matches!(self.state, State::Ready) =>
            {
                let b = &self.base;
                let tensors = std::mem::take(&mut self.tensors);
                let stream = TensorStream::from_f32(tensors, b.mode, b.scaling_factor, b.k)?;
                let w = Worker::sharded(self.wid, b, stream, self.n_cores)?;
                self.launch(w, now, txb)?;
            }
            CtrlMsg::Quiesce { job, epoch } if job == self.job && epoch == self.epoch => {
                self.retire(State::Quiesced);
                let done = match &self.state {
                    State::Quiesced(s) | State::Finished(s) => {
                        chunk_bitmap(s.total_chunks(), |c| s.chunk_is_done(c))
                    }
                    // Welcomed but never started: nothing aggregated.
                    State::Ready => Vec::new(),
                    _ => return Ok(()),
                };
                let wid = self.wid;
                stage(
                    txb,
                    self.ctrl,
                    &CtrlMsg::QuiesceAck {
                        job,
                        wid,
                        epoch,
                        done,
                    },
                );
            }
            CtrlMsg::Reconfigure {
                job,
                epoch,
                n,
                new_wid,
                f,
                switch,
                wire_job,
                pool_size,
                frontier,
            } if job == self.job && Some(epoch) == self.epoch.checked_add(1) => {
                let mut stream = match std::mem::replace(&mut self.state, State::Registering) {
                    State::Quiesced(s) | State::Finished(s) => *s,
                    // Never started (lost Start): from scratch.
                    State::Ready => {
                        let tensors = std::mem::take(&mut self.tensors);
                        TensorStream::from_f32(tensors, self.base.mode, f, self.base.k)?
                    }
                    other => {
                        self.state = other;
                        return Ok(());
                    }
                };
                (self.wid, self.epoch, self.wire_job) = (new_wid, epoch, wire_job);
                self.switch = switch as usize;
                self.base.n_workers = n as usize;
                self.base.scaling_factor = f;
                self.base.pool_size = pool_size as usize;
                // Keep only chunks aggregated at *every* survivor; the
                // rest re-stream under the new n and f. A frontier that
                // asks for a chunk whose input is gone fails the worker.
                for c in 0..stream.total_chunks() {
                    if !bitmap_contains(&frontier, c) {
                        stream.mark_undone(c)?;
                    }
                }
                stream.set_scaling(f)?;
                let w = Worker::resume(self.wid, &self.base, stream, self.n_cores)?;
                self.launch(w, now, txb)?;
                // An immediate heartbeat marks this member synced.
                let (wid, epoch) = (self.wid, self.epoch);
                stage(txb, self.ctrl, &CtrlMsg::Heartbeat { job, wid, epoch });
            }
            CtrlMsg::Probe { job, .. }
                if job == self.job && !matches!(self.state, State::Registering) =>
            {
                let (wid, epoch) = (self.wid, self.epoch);
                stage(txb, self.ctrl, &CtrlMsg::Heartbeat { job, wid, epoch });
            }
            _ => {}
        }
        Ok(())
    }

    /// Stamp a freshly built worker with the generation and wire job so
    /// the switch's epoch fence passes its updates, stage its initial
    /// window, and make it the running state.
    fn launch(&mut self, mut w: Worker, now: TimeNs, txb: &mut TxBatch) -> Result<()> {
        w.set_epoch((self.epoch & 0xff) as u8);
        w.set_job(self.wire_job);
        let window = w.start_sends(now);
        stage_sends(&mut w, window, txb)?;
        self.state = State::Running(Box::new(w));
        self.check_done(txb);
        Ok(())
    }

    /// Tear down a running worker into `next`, keeping its counters.
    fn retire(&mut self, next: fn(Box<TensorStream>) -> State) {
        match std::mem::replace(&mut self.state, State::Registering) {
            State::Running(w) => {
                self.retired.merge(w.stats());
                self.state = next(Box::new(w.into_stream()));
            }
            other => self.state = other,
        }
    }

    /// Running → Finished once every chunk is aggregated, reporting
    /// `Done`.
    fn check_done(&mut self, txb: &mut TxBatch) {
        if matches!(&self.state, State::Running(w) if w.is_done()) {
            self.retire(State::Finished);
            stage(txb, self.ctrl, &self.beat());
        }
    }
}

/// The tenant switch: a [`MultiJobSwitch`] whose pools come and go at
/// the controller's command, its data frames routed by wire job to the
/// members the admission named.
pub struct TenantSwitch {
    switch: MultiJobSwitch,
    /// The controller's endpoint: the one sender of control frames.
    ctrl: usize,
    /// Wire job → member endpoint per wid.
    members: HashMap<u8, Vec<usize>>,
    scratch: Vec<u8>,
    /// Counters summed over every pool harvested so far. They belong to
    /// the observer, not the switch process: they survive evictions and
    /// restarts, so a run can total itself.
    pub total: SwitchStats,
    /// The same counters per harvested pool, keyed by wire job id in
    /// harvest order: a job that reconfigures appears once per epoch.
    pub per_pool: Vec<(u8, SwitchStats)>,
    /// Control frames from an endpoint other than the controller's,
    /// dropped unread: a forged `EvictJob` evicts nobody's pool.
    pub forged_ctrl: u64,
    /// A scripted process restart: as an executor endpoint, a deadline.
    restart_at: Option<TimeNs>,
    frame_cap: usize,
}

impl TenantSwitch {
    /// A switch with no pool admitted, commanded by the controller at
    /// endpoint `ctrl`, for jobs no larger than `proto`, its process
    /// restarted at `restart_at` (when driven as an executor endpoint).
    pub fn new(ctrl: usize, proto: &Protocol, restart_at: Option<TimeNs>) -> Self {
        TenantSwitch {
            switch: MultiJobSwitch::new(PipelineModel::default()),
            ctrl,
            members: HashMap::new(),
            scratch: Vec::new(),
            total: SwitchStats::default(),
            per_pool: Vec::new(),
            forged_ctrl: 0,
            restart_at,
            frame_cap: Self::frame_capacity(proto),
        }
    }

    /// Receive-frame capacity for jobs no larger than `proto` (its `k`
    /// and member count): a data frame, or an `AdmitJob` naming
    /// `proto.n_workers` members, the largest control message the
    /// switch receives.
    pub fn frame_capacity(proto: &Protocol) -> usize {
        let admit = CtrlMsg::AdmitJob {
            job: 0,
            epoch: 0,
            proto: proto.clone(),
            members: vec![0; proto.n_workers],
        };
        frame_capacity(proto).max(admit.encode().len())
    }

    /// Handle one frame from endpoint `from`, staging responses into
    /// `txb`. Nothing on the wire fails the call; a control frame from
    /// anyone but the controller is counted and dropped.
    pub fn on_frame(&mut self, from: usize, frame: &[u8], txb: &mut TxBatch) {
        if !CtrlMsg::is_ctrl(frame) {
            // Traffic for an unadmitted (stale-epoch) job is rejected
            // by the switch and dropped by the ingress: exactly the
            // eviction semantics the fence wants.
            let members = &self.members;
            switch_ingress(&mut self.switch, frame, &mut self.scratch, txb, |job| {
                members.get(&job).map(Vec::as_slice)
            });
            return;
        }
        if from != self.ctrl {
            self.forged_ctrl += 1;
            return;
        }
        match CtrlMsg::decode(frame) {
            Ok(CtrlMsg::AdmitJob {
                job,
                epoch,
                proto,
                members,
            }) => {
                if self.switch.admit(job, &proto).is_ok() {
                    self.switch
                        .set_job_epoch(job, (epoch & 0xff) as u8)
                        .expect("just admitted");
                    let eps = members.iter().map(|&p| p as usize).collect();
                    self.members.insert(job, eps);
                }
                // The controller re-sends an admit until it hears this;
                // a repeat finds the pool installed and is only
                // acknowledged again.
                if self.members.contains_key(&job) {
                    stage(txb, from, &CtrlMsg::AdmitAck { job });
                }
            }
            Ok(CtrlMsg::EvictJob { job }) => {
                self.harvest(job);
                let _ = self.switch.evict(job);
                self.members.remove(&job);
            }
            _ => {}
        }
    }

    /// A process restart: every admitted pool and its routing state is
    /// gone (their counters harvested first). Recovery is the
    /// controller's job: it notices, quiesces, and re-admits under a
    /// bumped epoch.
    pub fn restart(&mut self) {
        for job in self.switch.job_ids() {
            self.harvest(job);
        }
        self.switch = MultiJobSwitch::new(PipelineModel::default());
        self.members.clear();
    }

    fn harvest(&mut self, job: u8) {
        if let Some(s) = self.switch.stats(job) {
            self.total.merge(s);
            self.per_pool.push((job, s));
        }
    }
}

/// Alone on its thread, the tenant switch parks for a burst.
impl Endpoint for TenantSwitch {
    const PARKS: bool = true;
    const TIMED: bool = false;

    fn on_frame(&mut self, src: usize, frame: &[u8], _: TimeNs, txb: &mut TxBatch) -> Result<bool> {
        TenantSwitch::on_frame(self, src, frame, txb);
        Ok(false)
    }

    fn on_timer(&mut self, now: TimeNs, _: &mut TxBatch) -> Result<()> {
        if self.restart_at.is_some_and(|at| at <= now) {
            self.restart_at = None;
            self.restart();
        }
        Ok(())
    }

    fn next_deadline(&self) -> Option<TimeNs> {
        self.restart_at
    }

    fn frame_capacity(&self) -> usize {
        self.frame_cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchml_core::packet::{PacketKind, PacketView};
    use switchml_transport::SWITCH_ENDPOINT;

    const CTRL: usize = 9;
    const K: usize = 4;
    const POOL: usize = 8;

    fn worker(n_cores: usize) -> TenantWorker {
        let base = Protocol {
            n_workers: 2,
            k: K,
            pool_size: POOL,
            rto_ns: 1_000_000,
            scaling_factor: 100.0,
            ..Protocol::default()
        };
        let tensor = (0..256).map(|i| (i % 5) as f32 * 0.5).collect();
        TenantWorker::new(0, CTRL, vec![tensor], base, n_cores)
    }

    fn feed(w: &mut TenantWorker, msg: CtrlMsg, txb: &mut TxBatch) {
        w.on_frame(CTRL, &msg.encode(), 0, txb).unwrap();
    }

    /// The slots of the data frames staged in `txb`.
    fn staged_slots(txb: &TxBatch) -> Vec<u32> {
        txb.frames()
            .iter()
            .filter_map(|f| PacketView::parse(f).ok())
            .filter(|v| v.kind() == PacketKind::Update)
            .map(|v| v.idx())
            .collect()
    }

    fn engines(w: &TenantWorker) -> Option<usize> {
        match &w.state {
            State::Running(w) => Some(w.n_cores()),
            _ => None,
        }
    }

    fn welcome_and_start(w: &mut TenantWorker, txb: &mut TxBatch) {
        let welcome = CtrlMsg::Welcome {
            job: 0,
            wid: 1,
            epoch: 0,
            n: 2,
            f: 100.0,
            wire_job: 3,
            switch: 0,
        };
        feed(w, welcome, txb);
        feed(w, CtrlMsg::Start { job: 0, epoch: 0 }, txb);
    }

    /// Both the first epoch and a resumed one run on every engine, and
    /// each opens a window over both halves of the pool.
    #[test]
    fn every_epoch_runs_on_every_engine() {
        let mut w = worker(2);
        let mut txb = TxBatch::new(64);
        welcome_and_start(&mut w, &mut txb);
        assert_eq!(engines(&w), Some(2));
        let window = staged_slots(&txb);
        assert!(txb.dests().iter().all(|&d| d == SWITCH_ENDPOINT));
        assert!(window.iter().any(|&s| (s as usize) < POOL / 2));
        assert!(window.iter().any(|&s| (s as usize) >= POOL / 2));

        txb.clear();
        feed(&mut w, CtrlMsg::Quiesce { job: 0, epoch: 0 }, &mut txb);
        assert_eq!(engines(&w), None, "quiesced");
        assert_eq!(txb.dests(), &[CTRL], "the quiesce ack");
        txb.clear();
        let reconfigure = CtrlMsg::Reconfigure {
            job: 0,
            epoch: 1,
            n: 1,
            new_wid: 0,
            f: 50.0,
            switch: 0,
            wire_job: 4,
            pool_size: POOL as u32,
            frontier: Vec::new(),
        };
        feed(&mut w, reconfigure, &mut txb);
        assert_eq!(engines(&w), Some(2));
        let window = staged_slots(&txb);
        assert!(window.iter().any(|&s| (s as usize) < POOL / 2));
        assert!(window.iter().any(|&s| (s as usize) >= POOL / 2));
        assert_eq!(txb.dests().last(), Some(&CTRL), "the sync heartbeat");
    }

    /// A worker whose `Start` was lost keeps registering, and the
    /// `Welcome` + `Start` the controller replays for it starts it.
    #[test]
    fn a_welcomed_worker_registers_until_a_replayed_start_lands() {
        let mut w = worker(1);
        let mut txb = TxBatch::new(64);
        let welcome = CtrlMsg::Welcome {
            job: 0,
            wid: 1,
            epoch: 0,
            n: 2,
            f: 100.0,
            wire_job: 3,
            switch: 0,
        };
        feed(&mut w, welcome.clone(), &mut txb);
        assert!(matches!(w.state, State::Ready));
        assert_eq!(w.beat(), CtrlMsg::Register { job: 0 });
        feed(&mut w, welcome, &mut txb);
        feed(&mut w, CtrlMsg::Start { job: 0, epoch: 0 }, &mut txb);
        assert_eq!(engines(&w), Some(1), "the replayed Start started it");
        assert!(!staged_slots(&txb).is_empty(), "and opened its window");
        assert_eq!(
            w.beat(),
            CtrlMsg::Heartbeat {
                job: 0,
                wid: 1,
                epoch: 0
            }
        );
    }

    /// A message for another job, or for a generation the worker is not
    /// in, changes nothing and stages nothing.
    #[test]
    fn foreign_and_stale_messages_change_nothing() {
        let mut w = worker(1);
        let mut txb = TxBatch::new(64);
        welcome_and_start(&mut w, &mut txb);
        let before = (w.wid, w.epoch, w.wire_job, w.beat(), engines(&w));
        txb.clear();
        let reconfigure = |job, epoch| CtrlMsg::Reconfigure {
            job,
            epoch,
            n: 1,
            new_wid: 0,
            f: 50.0,
            switch: 0,
            wire_job: 4,
            pool_size: 2,
            frontier: Vec::new(),
        };
        for msg in [
            CtrlMsg::Welcome {
                job: 1,
                wid: 0,
                epoch: 5,
                n: 1,
                f: 1.0,
                wire_job: 9,
                switch: 0,
            },
            CtrlMsg::Start { job: 0, epoch: 1 },
            CtrlMsg::Quiesce { job: 1, epoch: 0 },
            CtrlMsg::Quiesce { job: 0, epoch: 7 },
            reconfigure(1, 1),
            reconfigure(0, 0),
            reconfigure(0, 2),
            CtrlMsg::Probe { job: 1, epoch: 0 },
            CtrlMsg::AdmitJob {
                job: 3,
                epoch: 0,
                proto: Protocol::default(),
                members: vec![1],
            },
        ] {
            feed(&mut w, msg.clone(), &mut txb);
            assert!(txb.is_empty(), "{msg:?} staged a frame");
            let now = (w.wid, w.epoch, w.wire_job, w.beat(), engines(&w));
            assert_eq!(now, before, "{msg:?} changed the state");
        }
    }

    /// Control messages count only from the controller: the same
    /// `Quiesce` and `Reconfigure` the controller would send, arriving
    /// from the switch's or a peer worker's endpoint, change nothing,
    /// stage nothing and are counted; from the controller they act.
    #[test]
    fn control_frames_from_anyone_but_the_controller_are_dropped() {
        let mut w = worker(1);
        let mut txb = TxBatch::new(64);
        welcome_and_start(&mut w, &mut txb);
        txb.clear();
        let before = (w.wid, w.epoch, w.wire_job, w.beat(), engines(&w));
        let reconfigure = CtrlMsg::Reconfigure {
            job: 0,
            epoch: 1,
            n: 1,
            new_wid: 0,
            f: 50.0,
            switch: 0,
            wire_job: 4,
            pool_size: 2,
            frontier: Vec::new(),
        };
        let forged = [CtrlMsg::Quiesce { job: 0, epoch: 0 }, reconfigure];
        for (from, msg) in [SWITCH_ENDPOINT, CTRL + 1].into_iter().zip(forged) {
            w.on_frame(from, &msg.encode(), 0, &mut txb).unwrap();
            assert!(txb.is_empty(), "{msg:?} from {from} staged a frame");
            let now = (w.wid, w.epoch, w.wire_job, w.beat(), engines(&w));
            assert_eq!(now, before, "{msg:?} from {from} changed the state");
        }
        assert_eq!(w.forged_ctrl, 2);
        feed(&mut w, CtrlMsg::Quiesce { job: 0, epoch: 0 }, &mut txb);
        assert_eq!(engines(&w), None, "the controller's quiesce acts");
        assert_eq!(w.forged_ctrl, 2);
    }

    /// A forged `EvictJob` from a worker's endpoint evicts no tenant's
    /// pool, and a forged `AdmitJob` admits none: both are counted and
    /// dropped, and the job's data traffic still aggregates.
    #[test]
    fn a_switch_obeys_only_the_controller() {
        let proto = Protocol {
            n_workers: 1,
            k: K,
            pool_size: POOL,
            ..Protocol::default()
        };
        let mut sw = TenantSwitch::new(CTRL, &proto, None);
        let mut txb = TxBatch::new(256);
        let admit = |job| CtrlMsg::AdmitJob {
            job,
            epoch: 0,
            proto: proto.clone(),
            members: vec![1],
        };
        sw.on_frame(CTRL, &admit(3).encode(), &mut txb);
        assert_eq!(txb.dests(), &[CTRL], "the admit is acknowledged");
        txb.clear();
        sw.on_frame(1, &CtrlMsg::EvictJob { job: 3 }.encode(), &mut txb);
        sw.on_frame(1, &admit(4).encode(), &mut txb);
        assert!(txb.is_empty(), "a forged admit is not acknowledged");
        assert_eq!(sw.forged_ctrl, 2);
        assert!(sw.per_pool.is_empty(), "no pool was harvested");

        use switchml_core::packet::{encode_update_frame, PoolVersion, UpdateMeta, WireChunk};
        let meta = UpdateMeta {
            wid: 0,
            ver: PoolVersion::V0,
            idx: 0,
            off: 0,
            job: 3,
            epoch: 0,
            retransmission: false,
        };
        let mut update = Vec::new();
        encode_update_frame(meta, WireChunk::I32(&[7; K]), &mut update);
        sw.on_frame(1, &update, &mut txb);
        assert_eq!(txb.dests(), &[1], "job 3's pool still aggregates");
        sw.restart();
        assert_eq!(
            sw.per_pool.iter().map(|(job, _)| *job).collect::<Vec<_>>(),
            vec![3]
        );
    }
}
