//! Sans-IO control-plane state machine.
//!
//! The [`Controller`] owns no sockets and no clocks: drivers feed it
//! `(message, now)` pairs via [`Controller::on_message`] and periodic
//! [`Controller::on_tick`] calls, and it returns a list of
//! [`Action`]s to execute (messages to send, switch ledger updates,
//! operator-visible events). The same state machine therefore runs
//! unchanged under the discrete-event simulator and the threaded
//! transport runner, and is trivially unit-testable with synthetic
//! timestamps.
//!
//! # Job lifecycle
//!
//! A job is created with [`Controller::create_job`], which admits it
//! into the target switch's [`MultiJobSwitch`] ledger (the
//! controller's model of switch SRAM; admission fails if the pool
//! does not fit the [`PipelineModel`] budget). Workers `Register`,
//! and once `n` have joined the controller assigns dense worker ids,
//! negotiates the scaling factor (the requested factor clamped to
//! Theorem 2's `max_safe_factor(n, bound)`), and broadcasts
//! `Welcome` + `Start`.
//!
//! # Failure detection
//!
//! Workers heartbeat every `heartbeat_interval_ns`. When a worker has
//! been silent for `failure_timeout_ns` the controller probes it,
//! spacing successive probes with the configured [`RtoPolicy`]
//! (exponential backoff by default, mirroring the dataplane's
//! retransmission policy). After `probe_limit` unanswered probes the
//! worker is declared dead — deterministically, as a pure function of
//! message timestamps.
//!
//! # Live reconfiguration (shrink n → n−1)
//!
//! On a death the controller quiesces the survivors. Each returns the
//! bitmap of chunks whose aggregate it already holds; the *frontier*
//! — the bitwise AND of those bitmaps — is the set of chunks that are
//! fully aggregated everywhere and need no further work. The
//! controller then rescales `f` for the new `n` (Theorem 2), rotates
//! the job's wire id so stale dataplane traffic from the old epoch is
//! dropped at both switch and workers, swaps the switch pool
//! ([`MultiJobSwitch::reset_job`]), and tells every survivor to
//! resume streaming exactly the chunks outside the frontier.
//!
//! # Switch failover
//!
//! [`Controller::fail_over_all`] drains every job on a failing switch
//! through the same quiesce path, re-admitting each onto the standby
//! switch with its committed per-worker state replayed via the
//! frontier. No slot state is lost: chunks inside the frontier keep
//! their aggregates, everything else is re-aggregated on the standby.

use std::collections::HashMap;

use switchml_core::config::{Protocol, RtoPolicy, TimeNs};
use switchml_core::error::{Error, Result};
use switchml_core::quant::scaling::max_safe_factor;
use switchml_core::switch::multijob::MultiJobSwitch;
use switchml_core::switch::pipeline::PipelineModel;

use crate::msg::{bitmap_and, chunk_bitmap, CtrlMsg, PeerId};

/// Tunables for the control plane.
#[derive(Debug, Clone)]
pub struct CtrlConfig {
    /// How often workers are expected to heartbeat.
    pub heartbeat_interval_ns: TimeNs,
    /// Silence longer than this triggers probing.
    pub failure_timeout_ns: TimeNs,
    /// Base spacing between liveness probes.
    pub probe_rto_ns: TimeNs,
    /// How probe spacing evolves across consecutive misses.
    pub probe_policy: RtoPolicy,
    /// Unanswered probes before a worker is declared dead.
    pub probe_limit: u32,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig {
            heartbeat_interval_ns: 50_000,
            failure_timeout_ns: 200_000,
            probe_rto_ns: 50_000,
            probe_policy: RtoPolicy::ExponentialBackoff { max_ns: 400_000 },
            probe_limit: 3,
        }
    }
}

impl CtrlConfig {
    /// The drivers' configuration: workers heartbeat every
    /// `heartbeat_ns`; a member silent for `failure_timeout_ns` is probed
    /// at the heartbeat spacing, backing off up to the timeout, and
    /// declared dead after three unanswered probes.
    pub fn with_timeouts(heartbeat_ns: TimeNs, failure_timeout_ns: TimeNs) -> Self {
        CtrlConfig {
            heartbeat_interval_ns: heartbeat_ns,
            failure_timeout_ns,
            probe_rto_ns: heartbeat_ns,
            probe_policy: RtoPolicy::ExponentialBackoff {
                max_ns: failure_timeout_ns,
            },
            probe_limit: 3,
        }
    }
}

/// What the driver must do on the controller's behalf.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send `msg` to a worker peer.
    Send { to: PeerId, msg: CtrlMsg },
    /// Apply `msg` (AdmitJob / EvictJob) to physical switch `switch`.
    SwitchCtl { switch: usize, msg: CtrlMsg },
    /// Operator event: worker `wid` of `job` was declared dead.
    WorkerDead { job: u8, wid: u16 },
    /// Operator event: the job reconfigured into a new epoch.
    Reconfigured { job: u8, epoch: u32, n: u16, f: f64 },
    /// Operator event: every member finished its stream.
    JobComplete { job: u8 },
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for `n` registrations.
    Forming,
    /// Streaming; members are monitored for liveness.
    Running,
    /// Survivors are draining their dataplane before a new epoch.
    Quiescing,
    /// Every member reported `Done`.
    Complete,
}

#[derive(Debug, Clone)]
struct Member {
    peer: PeerId,
    /// The wid this member was assigned for the current epoch (at
    /// Welcome, then at each Reconfigure). Stable until the next
    /// epoch: a death mid-epoch must NOT renumber the survivors, or
    /// their in-flight heartbeats and acks would be misattributed.
    wid: u16,
    alive: bool,
    last_seen: TimeNs,
    /// Probes sent since the last sign of life.
    probes: u32,
    cur_probe_rto: TimeNs,
    next_probe: TimeNs,
    /// Quiesce bookkeeping for the in-flight reconfiguration.
    acked: bool,
    done_bitmap: Vec<u8>,
    /// Reported `Done` in the current epoch.
    done: bool,
    /// Has sent *any* current-epoch message (used to detect a lost
    /// `Reconfigure`, which is then re-sent).
    synced: bool,
}

#[derive(Debug, Clone)]
struct Job {
    /// Protocol at the *current* n (scaling_factor = negotiated f).
    proto: Protocol,
    /// The operator-requested factor, re-clamped on every shrink.
    requested_f: f64,
    /// Per-worker gradient magnitude bound (Theorem 2's `B`).
    bound: f64,
    /// Total chunks in the tensor stream (for frontier bitmaps).
    n_chunks: u64,
    epoch: u32,
    phase: Phase,
    /// Index of the physical switch currently hosting the pool.
    switch: usize,
    /// Dataplane job id for the current epoch; rotated on every
    /// reconfiguration so stale traffic self-identifies.
    wire_job: u8,
    /// All members ever registered, in registration order. Each live
    /// member carries the wid assigned for the current epoch.
    members: Vec<Member>,
    /// Target switch for the reconfiguration in flight, if this
    /// quiesce is a failover rather than a shrink.
    pending_failover: Option<usize>,
    /// Target pool size for the reconfiguration in flight, if this
    /// quiesce is a scheduler-driven slot repartition (grow/shrink of
    /// the job's slot range while it keeps running).
    pending_resize: Option<usize>,
    /// Control messages are fire-and-forget on a lossy fabric, so the
    /// controller re-sends `Quiesce` (to unacked members) and
    /// `Reconfigure` (to unsynced members) on this cadence.
    resend_at: TimeNs,
    /// The per-survivor `Reconfigure` of the current epoch, kept until
    /// every survivor shows a sign of life in that epoch.
    last_reconfig: Vec<(PeerId, CtrlMsg)>,
}

impl Job {
    fn alive_count(&self) -> usize {
        self.members.iter().filter(|m| m.alive).count()
    }

    fn member_by_wid(&mut self, wid: u16) -> Option<&mut Member> {
        self.members.iter_mut().find(|m| m.alive && m.wid == wid)
    }
}

/// The control-plane brain: job table plus one [`MultiJobSwitch`]
/// ledger per physical switch.
pub struct Controller {
    cfg: CtrlConfig,
    switches: Vec<MultiJobSwitch>,
    jobs: HashMap<u8, Job>,
    /// Monotonic allocator for dataplane wire ids.
    next_wire_job: u8,
    /// Every `AdmitJob` the switch has not acknowledged, by wire job, in
    /// emission order. `AdmitJob` shares the switch's port with the
    /// data-plane flood and a lost one wedges its job, so each is
    /// re-emitted on every tick until its `AdmitAck` (or the job's
    /// `EvictJob`) retires it.
    unacked_admits: Vec<(u8, Action)>,
}

impl Controller {
    /// One ledger per physical switch, all sharing nothing.
    pub fn new(cfg: CtrlConfig, pipelines: Vec<PipelineModel>) -> Self {
        Controller {
            cfg,
            switches: pipelines.into_iter().map(MultiJobSwitch::new).collect(),
            jobs: HashMap::new(),
            next_wire_job: 0,
            unacked_admits: Vec::new(),
        }
    }

    /// Register a job and reserve its pool on switch `switch`. The
    /// requested scaling factor is clamped to `max_safe_factor(n,
    /// bound)` at admission and again on every shrink.
    pub fn create_job(
        &mut self,
        job: u8,
        mut proto: Protocol,
        bound: f64,
        n_chunks: u64,
        switch: usize,
    ) -> Result<()> {
        if self.jobs.contains_key(&job) {
            return Err(Error::InvalidConfig(format!("job {job} already exists")));
        }
        if switch >= self.switches.len() {
            return Err(Error::OutOfRange("switch index"));
        }
        let requested_f = proto.scaling_factor;
        proto.scaling_factor = requested_f.min(max_safe_factor(proto.n_workers, bound));
        let wire_job = self.alloc_wire_job()?;
        self.switches[switch].admit(wire_job, &proto)?;
        self.jobs.insert(
            job,
            Job {
                proto,
                requested_f,
                bound,
                n_chunks,
                epoch: 0,
                phase: Phase::Forming,
                switch,
                wire_job,
                members: Vec::new(),
                pending_failover: None,
                pending_resize: None,
                resend_at: 0,
                last_reconfig: Vec::new(),
            },
        );
        Ok(())
    }

    fn alloc_wire_job(&mut self) -> Result<u8> {
        // Wire ids are never reused while any ledger still knows them,
        // so a resurrected packet from epoch e can't alias epoch e+1.
        for _ in 0..=u8::MAX as usize {
            let id = self.next_wire_job;
            self.next_wire_job = self.next_wire_job.wrapping_add(1);
            if self.switches.iter().all(|s| s.job_proto(id).is_none()) {
                return Ok(id);
            }
        }
        Err(Error::InvalidConfig("wire job id space exhausted".into()))
    }

    /// Feed one inbound datagram: a control message is handled as by
    /// [`Controller::on_message`], anything that does not decode is
    /// dropped.
    pub fn on_datagram(&mut self, from: PeerId, data: &[u8], now: TimeNs) -> Vec<Action> {
        match CtrlMsg::decode(data) {
            Ok(msg) => self.on_message(from, msg, now),
            Err(_) => Vec::new(),
        }
    }

    /// Feed one inbound control message. `from` identifies the peer
    /// (used to route replies and detect re-registrations).
    pub fn on_message(&mut self, from: PeerId, msg: CtrlMsg, now: TimeNs) -> Vec<Action> {
        let mut out = Vec::new();
        match msg {
            CtrlMsg::Register { job } => self.handle_register(from, job, now, &mut out),
            CtrlMsg::Heartbeat { job, wid, epoch } => {
                self.touch(job, wid, epoch, now);
            }
            CtrlMsg::QuiesceAck {
                job,
                wid,
                epoch,
                done,
            } => self.handle_quiesce_ack(job, wid, epoch, done, now, &mut out),
            CtrlMsg::Done { job, wid, epoch } => self.handle_done(job, wid, epoch, now, &mut out),
            CtrlMsg::AdmitAck { job } => self.unacked_admits.retain(|&(wire, _)| wire != job),
            // Controller→worker / controller→switch messages looping
            // back (e.g. a misdirected frame) are ignored.
            _ => {}
        }
        self.track_admits(&out);
        out
    }

    /// Hold every `AdmitJob` in `out` until it is acknowledged; an
    /// `EvictJob` retires its wire job's admit.
    fn track_admits(&mut self, out: &[Action]) {
        for act in out {
            match act {
                Action::SwitchCtl {
                    msg: CtrlMsg::AdmitJob { job, .. },
                    ..
                } => self.unacked_admits.push((*job, act.clone())),
                Action::SwitchCtl {
                    msg: CtrlMsg::EvictJob { job },
                    ..
                } => self.unacked_admits.retain(|(wire, _)| wire != job),
                _ => {}
            }
        }
    }

    fn handle_register(&mut self, from: PeerId, job: u8, now: TimeNs, out: &mut Vec<Action>) {
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        if let Some(idx) = j.members.iter().position(|m| m.peer == from) {
            // Duplicate Register: the worker retransmits because our
            // Welcome was lost. Refresh liveness and, if the job is
            // already underway, replay the (current-epoch) Welcome.
            let m = &mut j.members[idx];
            let wid = m.wid;
            m.last_seen = now;
            m.probes = 0;
            if m.alive && j.phase == Phase::Running {
                out.push(Action::Send {
                    to: from,
                    msg: CtrlMsg::Welcome {
                        job,
                        wid,
                        epoch: j.epoch,
                        n: j.proto.n_workers as u16,
                        f: j.proto.scaling_factor,
                        wire_job: j.wire_job,
                        switch: j.switch as u8,
                    },
                });
                out.push(Action::Send {
                    to: from,
                    msg: CtrlMsg::Start {
                        job,
                        epoch: j.epoch,
                    },
                });
            }
            return;
        }
        if j.phase != Phase::Forming || j.members.len() >= j.proto.n_workers {
            return;
        }
        let wid = j.members.len() as u16;
        j.members.push(Member {
            peer: from,
            wid,
            alive: true,
            last_seen: now,
            probes: 0,
            cur_probe_rto: 0,
            next_probe: 0,
            acked: false,
            done_bitmap: Vec::new(),
            done: false,
            synced: true,
        });
        if j.members.len() == j.proto.n_workers {
            j.phase = Phase::Running;
            let (n, f, epoch) = (j.proto.n_workers as u16, j.proto.scaling_factor, j.epoch);
            let (wire_job, switch) = (j.wire_job, j.switch as u8);
            // Install the pool on the physical switch before any
            // worker is told to start (same-batch ordering: the admit
            // takes one hop, the first update at least two).
            out.push(Action::SwitchCtl {
                switch: j.switch,
                msg: CtrlMsg::AdmitJob {
                    job: j.wire_job,
                    epoch,
                    proto: j.proto.clone(),
                    members: j.members.iter().map(|m| m.peer).collect(),
                },
            });
            for (wid, m) in j.members.iter_mut().enumerate() {
                m.last_seen = now;
                out.push(Action::Send {
                    to: m.peer,
                    msg: CtrlMsg::Welcome {
                        job,
                        wid: wid as u16,
                        epoch,
                        n,
                        f,
                        wire_job,
                        switch,
                    },
                });
            }
            for m in &j.members {
                out.push(Action::Send {
                    to: m.peer,
                    msg: CtrlMsg::Start { job, epoch },
                });
            }
        }
    }

    /// Any authenticated-enough sign of life resets probe state.
    fn touch(&mut self, job: u8, wid: u16, epoch: u32, now: TimeNs) {
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        if epoch != j.epoch {
            return; // stale epoch: not proof of progress
        }
        if let Some(m) = j.member_by_wid(wid) {
            m.last_seen = now;
            m.probes = 0;
            m.synced = true;
        }
    }

    fn handle_done(&mut self, job: u8, wid: u16, epoch: u32, now: TimeNs, out: &mut Vec<Action>) {
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        if epoch != j.epoch || j.phase != Phase::Running {
            return;
        }
        if let Some(m) = j.member_by_wid(wid) {
            m.last_seen = now;
            m.probes = 0;
            m.done = true;
        }
        if j.members.iter().filter(|m| m.alive).all(|m| m.done) {
            self.complete(job, out);
        }
    }

    /// Mark the job complete and release its pool, in the ledger and on
    /// the switch.
    fn complete(&mut self, job: u8, out: &mut Vec<Action>) {
        let j = self.jobs.get_mut(&job).unwrap();
        j.phase = Phase::Complete;
        let (switch, wire_job) = (j.switch, j.wire_job);
        // Ledger eviction can only fail if the ledger lost track of the
        // job, which would be a controller bug.
        self.switches[switch]
            .evict(wire_job)
            .expect("a live job's pool is admitted");
        out.push(Action::SwitchCtl {
            switch,
            msg: CtrlMsg::EvictJob { job: wire_job },
        });
        out.push(Action::JobComplete { job });
    }

    fn handle_quiesce_ack(
        &mut self,
        job: u8,
        wid: u16,
        epoch: u32,
        done: Vec<u8>,
        now: TimeNs,
        out: &mut Vec<Action>,
    ) {
        let Some(j) = self.jobs.get_mut(&job) else {
            return;
        };
        if epoch != j.epoch || j.phase != Phase::Quiescing {
            return;
        }
        if let Some(m) = j.member_by_wid(wid) {
            m.last_seen = now;
            m.probes = 0;
            m.synced = true;
            if !m.acked {
                m.acked = true;
                m.done_bitmap = done;
            }
        }
        if j.members.iter().filter(|m| m.alive).all(|m| m.acked) {
            self.finish_quiesce(job, now, out);
        }
    }

    /// Periodic liveness scan, led by a re-emission of every admit the
    /// switch has not acknowledged. Call at roughly the heartbeat
    /// interval; correctness only depends on the timestamps, not the
    /// call rate.
    pub fn on_tick(&mut self, now: TimeNs) -> Vec<Action> {
        let mut out: Vec<Action> = self.unacked_admits.iter().map(|(_, a)| a.clone()).collect();
        let fresh = self.scan(now);
        self.track_admits(&fresh);
        out.extend(fresh);
        out
    }

    fn scan(&mut self, now: TimeNs) -> Vec<Action> {
        let mut out = Vec::new();
        let job_ids: Vec<u8> = self.jobs.keys().copied().collect();
        for job in job_ids {
            let j = self.jobs.get_mut(&job).unwrap();
            if j.phase != Phase::Running && j.phase != Phase::Quiescing {
                continue;
            }
            let mut newly_dead = Vec::new();
            for idx in 0..j.members.len() {
                let m = &mut j.members[idx];
                let wid = m.wid;
                if !m.alive || now.saturating_sub(m.last_seen) < self.cfg.failure_timeout_ns {
                    continue;
                }
                if m.probes == 0 {
                    m.cur_probe_rto = self.cfg.probe_rto_ns;
                    m.next_probe = now;
                }
                if m.probes < self.cfg.probe_limit {
                    if now >= m.next_probe {
                        m.probes += 1;
                        m.next_probe = now + m.cur_probe_rto;
                        if let RtoPolicy::ExponentialBackoff { max_ns } = self.cfg.probe_policy {
                            m.cur_probe_rto = (m.cur_probe_rto * 2).min(max_ns);
                        }
                        out.push(Action::Send {
                            to: m.peer,
                            msg: CtrlMsg::Probe {
                                job,
                                epoch: j.epoch,
                            },
                        });
                    }
                } else if now >= m.next_probe {
                    m.alive = false;
                    newly_dead.push((idx, wid));
                }
            }
            if !newly_dead.is_empty() {
                for &(_, wid) in &newly_dead {
                    out.push(Action::WorkerDead { job, wid });
                }
                self.begin_quiesce(job, now, &mut out);
                // If the job was *already* quiescing, the death may
                // have removed the last straggler — or the last
                // survivor. No further QuiesceAck will arrive in
                // either case, so re-check the finish condition here.
                self.maybe_finish_quiesce(job, now, &mut out);
                continue;
            }
            // Control messages are not individually acked on the wire;
            // re-send the phase's pending message until every member
            // responds (Quiesce → QuiesceAck, Reconfigure → any
            // current-epoch message).
            let j = self.jobs.get_mut(&job).unwrap();
            if now < j.resend_at {
                continue;
            }
            j.resend_at = now + self.cfg.heartbeat_interval_ns;
            match j.phase {
                Phase::Quiescing => {
                    let epoch = j.epoch;
                    for m in j.members.iter().filter(|m| m.alive && !m.acked) {
                        out.push(Action::Send {
                            to: m.peer,
                            msg: CtrlMsg::Quiesce { job, epoch },
                        });
                    }
                }
                Phase::Running if !j.last_reconfig.is_empty() => {
                    let synced: Vec<PeerId> = j
                        .members
                        .iter()
                        .filter(|m| m.alive && m.synced)
                        .map(|m| m.peer)
                        .collect();
                    j.last_reconfig.retain(|(p, _)| !synced.contains(p));
                    for (peer, msg) in &j.last_reconfig {
                        out.push(Action::Send {
                            to: *peer,
                            msg: msg.clone(),
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Drain every job hosted on switch `from` and re-home it onto
    /// switch `to`, replaying committed state through the frontier.
    pub fn fail_over_all(&mut self, from: usize, to: usize, now: TimeNs) -> Vec<Action> {
        let mut out = Vec::new();
        let job_ids: Vec<u8> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.switch == from && j.phase == Phase::Running)
            .map(|(&id, _)| id)
            .collect();
        for job in job_ids {
            self.jobs.get_mut(&job).unwrap().pending_failover = Some(to);
            self.begin_quiesce(job, now, &mut out);
        }
        self.track_admits(&out);
        out
    }

    /// Live slot repartition: quiesce the running job at its chunk
    /// frontier, then reconfigure it onto a pool of `new_pool_size`
    /// slots under a bumped epoch. The §5.4 fence makes this safe
    /// while traffic is in flight: stragglers from the old partition
    /// carry the old epoch byte (and the old wire job id) and are
    /// counted-and-dropped, never folded into the new pool.
    ///
    /// The scheduler calls this to preempt slots from a best-effort
    /// tenant (shrink) or hand them back (grow). Chunks already
    /// aggregated at every member survive via the frontier bitmap —
    /// preemption never loses a committed chunk.
    pub fn resize_job(
        &mut self,
        job: u8,
        new_pool_size: usize,
        now: TimeNs,
    ) -> Result<Vec<Action>> {
        let j = self
            .jobs
            .get_mut(&job)
            .ok_or(Error::OutOfRange("resize of unknown job"))?;
        if new_pool_size == 0 {
            return Err(Error::InvalidConfig("pool_size must be > 0".into()));
        }
        match j.phase {
            Phase::Running => {}
            Phase::Quiescing => {
                // Fold into the quiesce already in flight.
                j.pending_resize = Some(new_pool_size);
                return Ok(Vec::new());
            }
            Phase::Forming => {
                // Not streaming yet: repartition the ledger in place,
                // no quiesce needed.
                let mut proto = j.proto.clone();
                proto.pool_size = new_pool_size;
                let (switch, wire) = (j.switch, j.wire_job);
                self.switches[switch].reset_job(wire, &proto)?;
                self.jobs.get_mut(&job).unwrap().proto = proto;
                return Ok(Vec::new());
            }
            Phase::Complete => {
                return Err(Error::InvalidConfig(format!("job {job} already complete")));
            }
        }
        if j.proto.pool_size == new_pool_size {
            return Ok(Vec::new());
        }
        j.pending_resize = Some(new_pool_size);
        let mut out = Vec::new();
        self.begin_quiesce(job, now, &mut out);
        self.track_admits(&out);
        Ok(out)
    }

    /// Ask every survivor to stop its dataplane and report progress.
    /// If none are left alive, the job simply completes as dead.
    fn begin_quiesce(&mut self, job: u8, now: TimeNs, out: &mut Vec<Action>) {
        let j = self.jobs.get_mut(&job).unwrap();
        if j.phase == Phase::Quiescing {
            return; // second failure mid-quiesce folds into this round
        }
        j.phase = Phase::Quiescing;
        for m in &mut j.members {
            m.acked = false;
            m.done_bitmap.clear();
            m.done = false;
        }
        if j.alive_count() == 0 {
            self.complete(job, out);
            return;
        }
        j.resend_at = now + self.cfg.heartbeat_interval_ns;
        let epoch = j.epoch;
        for m in j.members.iter().filter(|m| m.alive) {
            out.push(Action::Send {
                to: m.peer,
                msg: CtrlMsg::Quiesce { job, epoch },
            });
        }
    }

    /// Re-check an in-flight quiesce after a membership change. A
    /// death mid-quiesce can leave every remaining survivor already
    /// acked (the dead worker was the only straggler), or no
    /// survivors at all; neither case produces another QuiesceAck,
    /// so [`handle_quiesce_ack`](Self::handle_quiesce_ack) alone
    /// would never fire the finish.
    fn maybe_finish_quiesce(&mut self, job: u8, now: TimeNs, out: &mut Vec<Action>) {
        let j = self.jobs.get_mut(&job).unwrap();
        if j.phase != Phase::Quiescing {
            return;
        }
        if j.alive_count() == 0 {
            self.complete(job, out);
            return;
        }
        if j.members.iter().filter(|m| m.alive).all(|m| m.acked) {
            self.finish_quiesce(job, now, out);
        }
    }

    /// All survivors acked: compute the frontier, renegotiate f for
    /// the surviving n, rotate the wire id, swap the pool (possibly
    /// onto a failover target), and resume everyone.
    fn finish_quiesce(&mut self, job: u8, now: TimeNs, out: &mut Vec<Action>) {
        let j = self.jobs.get_mut(&job).unwrap();
        let n_new = j.alive_count();
        debug_assert!(n_new > 0, "finish_quiesce with no survivors");

        // Frontier = chunks aggregated at every survivor.
        let mut frontier = chunk_bitmap(j.n_chunks, |_| true);
        for m in j.members.iter().filter(|m| m.alive) {
            bitmap_and(&mut frontier, &m.done_bitmap);
        }

        let old_switch = j.switch;
        let old_wire = j.wire_job;
        let old_pool = j.proto.pool_size;
        let new_switch = j.pending_failover.take().unwrap_or(old_switch);

        let mut proto = j.proto.clone();
        proto.n_workers = n_new;
        proto.scaling_factor = j.requested_f.min(max_safe_factor(n_new, j.bound));
        if let Some(pool) = j.pending_resize.take() {
            proto.pool_size = pool;
        }

        j.epoch += 1;
        let epoch = j.epoch;
        let survivors: Vec<PeerId> = j
            .members
            .iter()
            .filter(|m| m.alive)
            .map(|m| m.peer)
            .collect();

        let new_wire = self.alloc_wire_job().expect("wire id available");
        // Swap pools: evict the old epoch's pool, then admit the new
        // one (on the failover target when re-homing). A grow can lose
        // the race against a concurrent admission that squeezed the
        // SRAM budget; the job then resumes at its old size rather
        // than stalling (the scheduler will retry on the next
        // rebalance).
        self.switches[old_switch]
            .evict(old_wire)
            .expect("reconfiguring job must be admitted");
        if self.switches[new_switch].admit(new_wire, &proto).is_err() {
            proto.pool_size = old_pool;
            self.switches[new_switch]
                .admit(new_wire, &proto)
                .expect("same-size pool must still fit");
        }
        self.switches[new_switch]
            .set_job_epoch(new_wire, (epoch & 0xff) as u8)
            .expect("just admitted");
        let (n, f) = (proto.n_workers as u16, proto.scaling_factor);
        let pool_size = proto.pool_size as u32;

        let j = self.jobs.get_mut(&job).unwrap();
        j.proto = proto;
        j.switch = new_switch;
        j.wire_job = new_wire;
        j.phase = Phase::Running;
        j.resend_at = now + self.cfg.heartbeat_interval_ns;
        // Renumber the survivors densely for the new epoch; this is
        // the only point where a member's wid may change.
        let mut next_wid = 0u16;
        for m in &mut j.members {
            m.last_seen = now;
            m.probes = 0;
            m.synced = false;
            if m.alive {
                m.wid = next_wid;
                next_wid += 1;
            }
        }

        out.push(Action::SwitchCtl {
            switch: old_switch,
            msg: CtrlMsg::EvictJob { job: old_wire },
        });
        out.push(Action::SwitchCtl {
            switch: new_switch,
            msg: CtrlMsg::AdmitJob {
                job: new_wire,
                epoch,
                proto: self.jobs[&job].proto.clone(),
                members: survivors.clone(),
            },
        });
        let mut reconfigs = Vec::with_capacity(survivors.len());
        for (new_wid, &peer) in survivors.iter().enumerate() {
            let msg = CtrlMsg::Reconfigure {
                job,
                epoch,
                n,
                new_wid: new_wid as u16,
                f,
                switch: new_switch as u8,
                wire_job: new_wire,
                pool_size,
                frontier: frontier.clone(),
            };
            reconfigs.push((peer, msg.clone()));
            out.push(Action::Send { to: peer, msg });
        }
        self.jobs.get_mut(&job).unwrap().last_reconfig = reconfigs;
        out.push(Action::Reconfigured { job, epoch, n, f });
    }

    // ---- introspection (drivers, tests, operators) ----

    /// All job ids, ascending.
    pub fn job_ids(&self) -> Vec<u8> {
        let mut ids: Vec<u8> = self.jobs.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    pub fn phase(&self, job: u8) -> Option<Phase> {
        self.jobs.get(&job).map(|j| j.phase)
    }

    pub fn epoch(&self, job: u8) -> Option<u32> {
        self.jobs.get(&job).map(|j| j.epoch)
    }

    /// The currently negotiated (clamped) scaling factor.
    pub fn negotiated_f(&self, job: u8) -> Option<f64> {
        self.jobs.get(&job).map(|j| j.proto.scaling_factor)
    }

    /// The job's current pool size (slots), after any live resize.
    pub fn pool_size(&self, job: u8) -> Option<usize> {
        self.jobs.get(&job).map(|j| j.proto.pool_size)
    }

    /// Current dataplane wire id for the job.
    pub fn wire_job(&self, job: u8) -> Option<u8> {
        self.jobs.get(&job).map(|j| j.wire_job)
    }

    /// Which physical switch hosts the job's pool.
    pub fn job_switch(&self, job: u8) -> Option<usize> {
        self.jobs.get(&job).map(|j| j.switch)
    }

    /// Number of members currently alive.
    pub fn alive_count(&self, job: u8) -> Option<usize> {
        self.jobs.get(&job).map(|j| j.alive_count())
    }

    /// Read-only view of a switch's admission ledger.
    pub fn ledger(&self, switch: usize) -> &MultiJobSwitch {
        &self.switches[switch]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto(n: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k: 8,
            pool_size: 4,
            scaling_factor: 1e6,
            ..Protocol::default()
        }
    }

    fn form(ctrl: &mut Controller, job: u8, n: usize, t0: TimeNs) -> Vec<Action> {
        let mut all = Vec::new();
        for w in 0..n as u64 {
            all.extend(ctrl.on_message(100 + w, CtrlMsg::Register { job }, t0));
        }
        all
    }

    const SWITCH_PEER: PeerId = 7;

    /// The wire jobs of the `AdmitJob`s among `acts`.
    fn admits(acts: &[Action]) -> Vec<u8> {
        acts.iter()
            .filter_map(|a| match a {
                Action::SwitchCtl {
                    msg: CtrlMsg::AdmitJob { job, .. },
                    ..
                } => Some(*job),
                _ => None,
            })
            .collect()
    }

    /// An admit is re-emitted on every tick until the switch
    /// acknowledges it; a reconfiguration's `EvictJob` retires the old
    /// pool's admit and holds the new one.
    #[test]
    fn admits_are_reemitted_until_acknowledged_or_evicted() {
        let mut ctrl = Controller::new(CtrlConfig::default(), vec![PipelineModel::default()]);
        ctrl.create_job(0, proto(2), 50.0, 16, 0).unwrap();
        let wire0 = ctrl.wire_job(0).unwrap();
        assert_eq!(admits(&form(&mut ctrl, 0, 2, 0)), vec![wire0]);
        for t in 1..4 {
            assert_eq!(admits(&ctrl.on_tick(t)), vec![wire0], "tick {t}");
        }
        // Acknowledged: never again.
        assert!(ctrl
            .on_message(SWITCH_PEER, CtrlMsg::AdmitAck { job: wire0 }, 4)
            .is_empty());
        assert!(admits(&ctrl.on_tick(5)).is_empty());

        // Unacknowledged, then evicted by a resize's pool swap.
        let mut acts = ctrl.resize_job(0, 8, 10).unwrap();
        for wid in 0..2u16 {
            let done = chunk_bitmap(16, |_| false);
            let ack = CtrlMsg::QuiesceAck {
                job: 0,
                wid,
                epoch: 0,
                done,
            };
            acts.extend(ctrl.on_message(100 + wid as u64, ack, 20));
        }
        let wire1 = ctrl.wire_job(0).unwrap();
        assert_eq!(admits(&acts), vec![wire1]);
        assert_eq!(admits(&ctrl.on_tick(30)), vec![wire1]);
        let done = |wid| CtrlMsg::Done {
            job: 0,
            wid,
            epoch: 1,
        };
        ctrl.on_message(100, done(0), 40);
        let acts = ctrl.on_message(101, done(1), 41);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::SwitchCtl {
                msg: CtrlMsg::EvictJob { job },
                ..
            } if *job == wire1
        )));
        assert!(admits(&ctrl.on_tick(50)).is_empty(), "evicted: retired");
    }

    #[test]
    fn formation_assigns_dense_wids_and_clamps_f() {
        let mut ctrl = Controller::new(CtrlConfig::default(), vec![PipelineModel::default()]);
        ctrl.create_job(0, proto(3), 50.0, 16, 0).unwrap();
        assert_eq!(ctrl.phase(0), Some(Phase::Forming));
        let acts = form(&mut ctrl, 0, 3, 1_000);
        assert_eq!(ctrl.phase(0), Some(Phase::Running));
        let clamped = 1e6f64.min(max_safe_factor(3, 50.0));
        assert_eq!(ctrl.negotiated_f(0), Some(clamped));
        let welcomes: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: CtrlMsg::Welcome { wid, f, n, .. },
                } => Some((*to, *wid, *f, *n)),
                _ => None,
            })
            .collect();
        assert_eq!(welcomes.len(), 3);
        for (i, &(to, wid, f, n)) in welcomes.iter().enumerate() {
            assert_eq!((to, wid, n), (100 + i as u64, i as u16, 3));
            assert_eq!(f, clamped);
        }
        assert_eq!(
            acts.iter()
                .filter(|a| matches!(
                    a,
                    Action::Send {
                        msg: CtrlMsg::Start { .. },
                        ..
                    }
                ))
                .count(),
            3
        );
    }

    #[test]
    fn silent_worker_is_probed_then_declared_dead() {
        let cfg = CtrlConfig {
            heartbeat_interval_ns: 10,
            failure_timeout_ns: 100,
            probe_rto_ns: 20,
            probe_policy: RtoPolicy::ExponentialBackoff { max_ns: 1_000 },
            probe_limit: 2,
        };
        let mut ctrl = Controller::new(cfg, vec![PipelineModel::default()]);
        ctrl.create_job(0, proto(3), 50.0, 16, 0).unwrap();
        form(&mut ctrl, 0, 3, 0);
        // Workers 0 and 2 keep heartbeating; worker 1 goes silent.
        let mut t = 0;
        let mut dead_seen = None;
        let mut probes = 0;
        while t < 10_000 {
            t += 10;
            for wid in [0u16, 2] {
                ctrl.on_message(
                    100 + wid as u64,
                    CtrlMsg::Heartbeat {
                        job: 0,
                        wid,
                        epoch: 0,
                    },
                    t,
                );
            }
            for a in ctrl.on_tick(t) {
                match a {
                    Action::Send {
                        to,
                        msg: CtrlMsg::Probe { .. },
                    } => {
                        assert_eq!(to, 101);
                        probes += 1;
                    }
                    Action::WorkerDead { job, wid } => {
                        assert_eq!((job, wid), (0, 1));
                        dead_seen = Some(t);
                    }
                    _ => {}
                }
            }
            if dead_seen.is_some() {
                break;
            }
        }
        // Two probes (limit), spaced 20 then 40ns, after the 100ns
        // timeout: death lands deterministically at 100+20+40 = 160ns
        // rounded up to the next 10ns tick.
        assert_eq!(probes, 2);
        assert_eq!(dead_seen, Some(160));
        assert_eq!(ctrl.phase(0), Some(Phase::Quiescing));
        assert_eq!(ctrl.alive_count(0), Some(2));
    }

    #[test]
    fn heartbeats_suppress_probing() {
        let mut ctrl = Controller::new(CtrlConfig::default(), vec![PipelineModel::default()]);
        ctrl.create_job(0, proto(2), 50.0, 16, 0).unwrap();
        form(&mut ctrl, 0, 2, 0);
        let job = ctrl.wire_job(0).unwrap();
        ctrl.on_message(SWITCH_PEER, CtrlMsg::AdmitAck { job }, 0);
        for step in 1..100u64 {
            let t = step * 50_000;
            for wid in 0..2u16 {
                ctrl.on_message(
                    100 + wid as u64,
                    CtrlMsg::Heartbeat {
                        job: 0,
                        wid,
                        epoch: 0,
                    },
                    t,
                );
            }
            assert!(ctrl.on_tick(t).is_empty());
        }
        assert_eq!(ctrl.phase(0), Some(Phase::Running));
    }

    #[test]
    fn shrink_reconfigures_with_frontier_and_rescaled_f() {
        let cfg = CtrlConfig {
            failure_timeout_ns: 100,
            probe_rto_ns: 10,
            probe_limit: 1,
            ..CtrlConfig::default()
        };
        let mut ctrl = Controller::new(cfg, vec![PipelineModel::default()]);
        ctrl.create_job(0, proto(3), 50.0, 16, 0).unwrap();
        form(&mut ctrl, 0, 3, 0);
        let wire0 = ctrl.wire_job(0).unwrap();
        // Kill worker 1 (silence), then survivors ack the quiesce with
        // overlapping-but-different bitmaps.
        let mut acts = Vec::new();
        for t in [150u64, 200, 300] {
            for wid in [0u16, 2] {
                ctrl.on_message(
                    100 + wid as u64,
                    CtrlMsg::Heartbeat {
                        job: 0,
                        wid,
                        epoch: 0,
                    },
                    t,
                );
            }
            acts.extend(ctrl.on_tick(t));
        }
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::WorkerDead { wid: 1, .. })));
        assert_eq!(ctrl.phase(0), Some(Phase::Quiescing));

        // Survivors ack with the wids they were assigned at epoch 0 —
        // the death must not have renumbered them mid-epoch.
        let bm0 = chunk_bitmap(16, |c| c < 6); // wid 0 has chunks 0..6
        let bm2 = chunk_bitmap(16, |c| c < 4 || c == 7); // wid 2: 0..4, 7
        let mut acts = ctrl.on_message(
            100,
            CtrlMsg::QuiesceAck {
                job: 0,
                wid: 0,
                epoch: 0,
                done: bm0,
            },
            400,
        );
        assert!(acts.is_empty()); // waiting on the second survivor
        acts.extend(ctrl.on_message(
            102,
            CtrlMsg::QuiesceAck {
                job: 0,
                wid: 2,
                epoch: 0,
                done: bm2,
            },
            410,
        ));

        assert_eq!(ctrl.phase(0), Some(Phase::Running));
        assert_eq!(ctrl.epoch(0), Some(1));
        let wire1 = ctrl.wire_job(0).unwrap();
        assert_ne!(wire0, wire1, "wire id must rotate");
        let f_new = 1e6f64.min(max_safe_factor(2, 50.0));
        assert_eq!(ctrl.negotiated_f(0), Some(f_new));
        // Ledger swapped to the new wire id at n=2.
        assert_eq!(ctrl.ledger(0).job_ids(), vec![wire1]);
        assert_eq!(ctrl.ledger(0).job_proto(wire1).unwrap().n_workers, 2);

        let expected_frontier = chunk_bitmap(16, |c| c < 4);
        let reconfigs: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg:
                        CtrlMsg::Reconfigure {
                            epoch,
                            n,
                            new_wid,
                            f,
                            wire_job,
                            frontier,
                            ..
                        },
                } => Some((*to, *epoch, *n, *new_wid, *f, *wire_job, frontier.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(reconfigs.len(), 2);
        assert_eq!(
            reconfigs[0],
            (100, 1, 2, 0, f_new, wire1, expected_frontier.clone())
        );
        assert_eq!(
            reconfigs[1],
            (102, 1, 2, 1, f_new, wire1, expected_frontier)
        );
    }

    #[test]
    fn resize_job_quiesces_then_reconfigures_pool() {
        let mut ctrl = Controller::new(CtrlConfig::default(), vec![PipelineModel::default()]);
        ctrl.create_job(0, proto(2), 50.0, 16, 0).unwrap();
        form(&mut ctrl, 0, 2, 0);
        assert_eq!(ctrl.pool_size(0), Some(4));
        let wire0 = ctrl.wire_job(0).unwrap();

        let acts = ctrl.resize_job(0, 8, 100).unwrap();
        assert_eq!(
            acts.iter()
                .filter(|a| matches!(
                    a,
                    Action::Send {
                        msg: CtrlMsg::Quiesce { .. },
                        ..
                    }
                ))
                .count(),
            2
        );
        assert_eq!(ctrl.phase(0), Some(Phase::Quiescing));

        // Both members ack at the same frontier.
        let bm = chunk_bitmap(16, |c| c < 5);
        ctrl.on_message(
            100,
            CtrlMsg::QuiesceAck {
                job: 0,
                wid: 0,
                epoch: 0,
                done: bm.clone(),
            },
            200,
        );
        let acts = ctrl.on_message(
            101,
            CtrlMsg::QuiesceAck {
                job: 0,
                wid: 1,
                epoch: 0,
                done: bm.clone(),
            },
            210,
        );
        assert_eq!(ctrl.phase(0), Some(Phase::Running));
        assert_eq!(ctrl.epoch(0), Some(1));
        assert_eq!(ctrl.pool_size(0), Some(8));
        let wire1 = ctrl.wire_job(0).unwrap();
        assert_ne!(wire0, wire1, "wire id rotates on resize too");
        assert_eq!(ctrl.ledger(0).job_proto(wire1).unwrap().pool_size, 8);

        // Reconfigures carry the new pool; n unchanged (nobody died)
        // and the committed frontier survives the repartition.
        let recfg: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg:
                        CtrlMsg::Reconfigure {
                            n,
                            pool_size,
                            frontier,
                            ..
                        },
                    ..
                } => Some((*n, *pool_size, frontier.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(recfg.len(), 2);
        for (n, pool, fr) in recfg {
            assert_eq!((n, pool), (2, 8));
            assert_eq!(fr, bm);
        }
    }

    #[test]
    fn grow_that_loses_sram_race_falls_back_to_old_size() {
        // Budget fits the 4-slot pool but not a 4096-slot one.
        let model = PipelineModel {
            register_sram_bytes: 64 * 1024,
            ..PipelineModel::default()
        };
        let mut ctrl = Controller::new(CtrlConfig::default(), vec![model]);
        ctrl.create_job(0, proto(2), 50.0, 16, 0).unwrap();
        form(&mut ctrl, 0, 2, 0);
        ctrl.resize_job(0, 4096, 100).unwrap();
        let bm = chunk_bitmap(16, |_| false);
        for wid in 0..2u16 {
            ctrl.on_message(
                100 + wid as u64,
                CtrlMsg::QuiesceAck {
                    job: 0,
                    wid,
                    epoch: 0,
                    done: bm.clone(),
                },
                200,
            );
        }
        // The grow could not be honored: the job resumes at its old
        // size instead of stalling.
        assert_eq!(ctrl.phase(0), Some(Phase::Running));
        assert_eq!(ctrl.pool_size(0), Some(4));
    }

    #[test]
    fn done_from_all_members_completes_and_frees_sram() {
        let mut ctrl = Controller::new(CtrlConfig::default(), vec![PipelineModel::default()]);
        ctrl.create_job(0, proto(2), 50.0, 16, 0).unwrap();
        form(&mut ctrl, 0, 2, 0);
        let committed = ctrl.ledger(0).committed_bytes();
        assert!(committed > 0);
        ctrl.on_message(
            100,
            CtrlMsg::Done {
                job: 0,
                wid: 0,
                epoch: 0,
            },
            50,
        );
        let acts = ctrl.on_message(
            101,
            CtrlMsg::Done {
                job: 0,
                wid: 1,
                epoch: 0,
            },
            60,
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::JobComplete { job: 0 })));
        assert_eq!(ctrl.phase(0), Some(Phase::Complete));
        assert_eq!(ctrl.ledger(0).committed_bytes(), 0);
    }

    #[test]
    fn failover_rehomes_all_jobs_onto_standby() {
        let mut ctrl = Controller::new(
            CtrlConfig::default(),
            vec![PipelineModel::default(), PipelineModel::default()],
        );
        ctrl.create_job(0, proto(2), 50.0, 8, 0).unwrap();
        ctrl.create_job(1, proto(2), 50.0, 8, 0).unwrap();
        form(&mut ctrl, 0, 2, 0);
        let mut acts = Vec::new();
        for w in 0..2u64 {
            acts.extend(ctrl.on_message(200 + w, CtrlMsg::Register { job: 1 }, 0));
        }
        assert_eq!(ctrl.ledger(0).job_count(), 2);

        let acts = ctrl.fail_over_all(0, 1, 1_000);
        assert_eq!(
            acts.iter()
                .filter(|a| matches!(
                    a,
                    Action::Send {
                        msg: CtrlMsg::Quiesce { .. },
                        ..
                    }
                ))
                .count(),
            4
        );
        // Survivors ack with full bitmaps (mid-run partial progress).
        let bm = chunk_bitmap(8, |c| c < 3);
        for (job, peers) in [(0u8, [100u64, 101]), (1, [200, 201])] {
            for (wid, peer) in peers.iter().enumerate() {
                ctrl.on_message(
                    *peer,
                    CtrlMsg::QuiesceAck {
                        job,
                        wid: wid as u16,
                        epoch: 0,
                        done: bm.clone(),
                    },
                    2_000,
                );
            }
        }
        // Both jobs re-homed: old switch empty, standby holds both,
        // same n (no shrink), committed state preserved via frontier.
        assert_eq!(ctrl.ledger(0).job_count(), 0);
        assert_eq!(ctrl.ledger(1).job_count(), 2);
        assert_eq!(ctrl.job_switch(0), Some(1));
        assert_eq!(ctrl.job_switch(1), Some(1));
        assert_eq!(ctrl.phase(0), Some(Phase::Running));
        assert_eq!(ctrl.epoch(0), Some(1));
        assert_eq!(ctrl.negotiated_f(0), ctrl.negotiated_f(1));
    }

    #[test]
    fn stale_epoch_messages_are_ignored() {
        let cfg = CtrlConfig {
            failure_timeout_ns: 100,
            probe_rto_ns: 10,
            probe_limit: 1,
            ..CtrlConfig::default()
        };
        let mut ctrl = Controller::new(cfg, vec![PipelineModel::default()]);
        ctrl.create_job(0, proto(2), 50.0, 8, 0).unwrap();
        form(&mut ctrl, 0, 2, 0);
        // Worker 1 dies; worker 0 acks; epoch becomes 1.
        for t in [150u64, 200] {
            ctrl.on_message(
                100,
                CtrlMsg::Heartbeat {
                    job: 0,
                    wid: 0,
                    epoch: 0,
                },
                t,
            );
            ctrl.on_tick(t);
        }
        ctrl.on_message(
            100,
            CtrlMsg::QuiesceAck {
                job: 0,
                wid: 0,
                epoch: 0,
                done: chunk_bitmap(8, |_| false),
            },
            300,
        );
        assert_eq!(ctrl.epoch(0), Some(1));
        // A Done tagged with the dead epoch must not complete the job.
        let acts = ctrl.on_message(
            100,
            CtrlMsg::Done {
                job: 0,
                wid: 0,
                epoch: 0,
            },
            400,
        );
        assert!(acts.is_empty());
        assert_eq!(ctrl.phase(0), Some(Phase::Running));
    }

    #[test]
    fn death_of_last_straggler_mid_quiesce_still_reconfigures() {
        // A quiesce (here: a switch failover) is waiting on exactly
        // one ack when that member dies. No further QuiesceAck will
        // ever arrive, so the death itself must finish the quiesce.
        let cfg = CtrlConfig {
            heartbeat_interval_ns: 10,
            failure_timeout_ns: 100,
            probe_rto_ns: 20,
            probe_policy: RtoPolicy::ExponentialBackoff { max_ns: 1_000 },
            probe_limit: 2,
        };
        let mut ctrl = Controller::new(
            cfg,
            vec![PipelineModel::default(), PipelineModel::default()],
        );
        ctrl.create_job(0, proto(3), 50.0, 16, 0).unwrap();
        form(&mut ctrl, 0, 3, 0);
        ctrl.fail_over_all(0, 1, 10);
        assert_eq!(ctrl.phase(0), Some(Phase::Quiescing));
        // Workers 0 and 2 ack; worker 1 crashes without acking.
        for wid in [0u16, 2] {
            ctrl.on_message(
                100 + wid as u64,
                CtrlMsg::QuiesceAck {
                    job: 0,
                    wid,
                    epoch: 0,
                    done: chunk_bitmap(16, |_| true),
                },
                20,
            );
        }
        assert_eq!(ctrl.phase(0), Some(Phase::Quiescing));
        let mut reconf = None;
        let mut t = 20;
        while t < 1_000 && reconf.is_none() {
            t += 10;
            for a in ctrl.on_tick(t) {
                if let Action::Reconfigured { job, epoch, n, .. } = a {
                    reconf = Some((job, epoch, n));
                }
            }
        }
        let got = reconf.expect("quiesce wedged after the last straggler died");
        assert_eq!(got, (0, 1, 2));
        assert_eq!(ctrl.phase(0), Some(Phase::Running));
        assert_eq!(ctrl.job_switch(0), Some(1)); // failover still honored
        assert_eq!(ctrl.alive_count(0), Some(2));
    }

    #[test]
    fn all_members_dying_mid_quiesce_completes_the_job() {
        // Worker 0 crashes immediately; worker 1 outlives it just
        // long enough for the shrink quiesce to start, then crashes
        // without ever acking. With no survivors the job must
        // complete (and release its pool), not wedge in Quiescing.
        let cfg = CtrlConfig {
            heartbeat_interval_ns: 10,
            failure_timeout_ns: 100,
            probe_rto_ns: 20,
            probe_policy: RtoPolicy::ExponentialBackoff { max_ns: 1_000 },
            probe_limit: 2,
        };
        let mut ctrl = Controller::new(cfg, vec![PipelineModel::default()]);
        ctrl.create_job(0, proto(2), 50.0, 16, 0).unwrap();
        form(&mut ctrl, 0, 2, 0);
        let mut complete = false;
        for step in 1..100u64 {
            let t = step * 10;
            if t <= 150 {
                ctrl.on_message(
                    101,
                    CtrlMsg::Heartbeat {
                        job: 0,
                        wid: 1,
                        epoch: 0,
                    },
                    t,
                );
            }
            for a in ctrl.on_tick(t) {
                if let Action::JobComplete { job } = a {
                    assert_eq!(job, 0);
                    complete = true;
                }
            }
        }
        assert!(complete, "job wedged in quiesce after losing every member");
        assert_eq!(ctrl.phase(0), Some(Phase::Complete));
        assert_eq!(ctrl.ledger(0).committed_bytes(), 0);
    }
}
