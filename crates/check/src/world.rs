//! The closed-world model the explorer walks.
//!
//! A [`World`] is one complete protocol instance — switch (with its
//! oracle), workers, and the multiset of in-flight frames — advanced
//! exclusively by adversarial [`Choice`]s. There is no RNG and no
//! clock: time exists only as the virtual instant at which the
//! adversary decides a retransmission timer fires, which with
//! [`RtoPolicy::Fixed`] never changes *what* is retransmitted, only
//! *when* — so the state fingerprint can ignore time entirely and the
//! reachable state space stays finite.
//!
//! ## The network-assumption guard
//!
//! §3.5's correctness argument is self-clocking: a worker reuses a
//! slot only after receiving the previous result, so no worker — and
//! no packet a worker ever sent — lags more than **one phase** behind.
//! A single pool-version bit is sufficient *under that assumption*; an
//! adversary allowed to hold an update for two full phases could
//! replay it into a fresh phase of the same pool (classic ABA) and no
//! 1-bit scheme can tell. The world therefore ages out exactly those
//! packets: an update stays deliverable while its sender still has it
//! outstanding, or while the switch still remembers the contribution
//! (the `seen` bit that makes redelivery a safe duplicate). Anything
//! older is removed from flight, mirroring the paper's bounded
//! packet-lifetime assumption.
//!
//! [`RtoPolicy::Fixed`]: switchml_core::config::RtoPolicy

use crate::model::SwitchModel;
use crate::scenario::Scenario;
use std::collections::BTreeMap;
use switchml_core::config::{NumericMode, TimeNs};
use switchml_core::oracle::OracleViolation;
use switchml_core::packet::{
    encode_update_frame, PacketView, Payload, UpdateMeta, WireChunk, WireElems,
};
use switchml_core::switch::WireAction;
use switchml_core::worker::engine::SendDescriptor;
use switchml_core::worker::stream::TensorStream;
use switchml_core::worker::Worker;

/// One adversarial scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Deliver in-flight packet `id` to its destination.
    Deliver(u64),
    /// Drop in-flight packet `id` (consumes a drop budget unit).
    Drop(u64),
    /// Duplicate in-flight packet `id` (consumes a dup budget unit).
    Duplicate(u64),
    /// Jump the clock to worker `flat` (job-major index)'s next
    /// retransmission deadline and fire it.
    Timeout(usize),
    /// Clone switch-bound update `id` into a dead-generation ghost:
    /// previous epoch byte, payload perturbed by +1 per element — a
    /// straggler from before a §5.4 reconfiguration whose content is
    /// no longer valid (consumes a stale-epoch budget unit). The
    /// `epoch-fence` oracle then requires the switch to counted-and-
    /// drop it without touching the pool.
    StaleEpoch(u64),
}

/// A violated invariant, with the oracle's diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub oracle: String,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.message)
    }
}

impl From<OracleViolation> for Violation {
    fn from(v: OracleViolation) -> Self {
        Violation {
            oracle: v.oracle.into(),
            message: v.message,
        }
    }
}

/// Outcome of applying one [`Choice`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult {
    /// The choice was applied and all oracles passed.
    Applied,
    /// The choice is not applicable in this state (packet gone, budget
    /// exhausted, no timer armed). State unchanged — replay skips it.
    Skipped,
    /// An invariant broke.
    Violation(Violation),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    Switch,
    /// Flat (job-major) worker index.
    Worker(usize),
}

#[derive(Debug, Clone)]
struct InFlight {
    dest: Dest,
    /// The encoded packet, as the sockets would carry it.
    frame: Vec<u8>,
}

impl InFlight {
    fn view(&self) -> PacketView<'_> {
        PacketView::parse(&self.frame).expect("the world only carries frames its parts encoded")
    }
}

struct JobReference {
    /// The sequential reference: quantize → saturating-sum → dequantize.
    ate: Vec<f32>,
    /// Exact float sum, for the Appendix C `n/f` bound.
    float_sum: Vec<f64>,
}

/// FNV-1a 64-bit hasher for state fingerprints.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// The explorable protocol world. Cloneable: BFS expansion forks it.
pub struct World {
    scenario: Scenario,
    switch: SwitchModel,
    /// Job-major: worker `wid` of job `j` lives at `j * n_workers + wid`.
    workers: Vec<Worker>,
    inflight: BTreeMap<u64, InFlight>,
    next_pkt_id: u64,
    now: TimeNs,
    drops_left: u32,
    dups_left: u32,
    retx_left: u32,
    stale_left: u32,
    deviations_left: Option<u32>,
    /// Set once the final-result oracle has run clean.
    finished: bool,
    references: Vec<JobReference>,
}

impl Clone for World {
    fn clone(&self) -> Self {
        World {
            scenario: self.scenario.clone(),
            switch: self.switch.clone(),
            workers: self.workers.clone(),
            inflight: self.inflight.clone(),
            next_pkt_id: self.next_pkt_id,
            now: self.now,
            drops_left: self.drops_left,
            dups_left: self.dups_left,
            retx_left: self.retx_left,
            stale_left: self.stale_left,
            deviations_left: self.deviations_left,
            finished: self.finished,
            // The references are pure functions of the (immutable)
            // scenario; recomputing beats cloning big float vectors
            // for nothing — but they are small, so share by rebuild.
            references: self
                .references
                .iter()
                .map(|r| JobReference {
                    ate: r.ate.clone(),
                    float_sum: r.float_sum.clone(),
                })
                .collect(),
        }
    }
}

impl World {
    pub fn new(sc: &Scenario) -> Result<World, String> {
        sc.validate()?;
        let proto = sc.proto();
        let switch = SwitchModel::new(sc)?;
        let mut world = World {
            scenario: sc.clone(),
            switch,
            workers: Vec::new(),
            inflight: BTreeMap::new(),
            next_pkt_id: 0,
            now: 0,
            drops_left: sc.drops,
            dups_left: sc.dups,
            retx_left: sc.retx,
            stale_left: sc.stale_epochs,
            deviations_left: sc.deviations,
            finished: false,
            references: Vec::new(),
        };
        for job in 0..sc.jobs() {
            world.references.push(Self::reference_for_job(sc, job)?);
            for wid in 0..sc.n_workers {
                let stream = TensorStream::from_f32(
                    vec![sc.tensor(job, wid as u16)],
                    NumericMode::Fixed32,
                    sc.scaling,
                    sc.k,
                )
                .map_err(|e| e.to_string())?;
                let mut worker =
                    Worker::new(wid as u16, &proto, stream).map_err(|e| e.to_string())?;
                worker.set_epoch(Scenario::EPOCH);
                worker.set_job(job);
                let descs = worker.start_sends(0);
                world.workers.push(worker);
                let flat = world.workers.len() - 1;
                world.send_updates(flat, descs).map_err(|v| v.to_string())?;
            }
        }
        world.gc_expired();
        Ok(world)
    }

    /// The quantize → saturating-sum → dequantize sequential reference
    /// for one job, computed without any switch or worker machinery.
    fn reference_for_job(sc: &Scenario, job: u8) -> Result<JobReference, String> {
        let elems = (sc.n_chunks as usize) * sc.k;
        let mut int_sum = vec![0i32; elems];
        let mut float_sum = vec![0f64; elems];
        for wid in 0..sc.n_workers {
            let tensor = sc.tensor(job, wid as u16);
            let mut stream = TensorStream::from_f32(
                vec![tensor.clone()],
                NumericMode::Fixed32,
                sc.scaling,
                sc.k,
            )
            .map_err(|e| e.to_string())?;
            for chunk in 0..sc.n_chunks {
                let off = chunk * sc.k as u64;
                match stream
                    .wire_chunk(off)
                    .map_err(|e| e.to_string())?
                    .to_payload()
                {
                    Payload::I32(v) => {
                        for (acc, x) in int_sum[off as usize..].iter_mut().zip(&v) {
                            *acc = acc.saturating_add(*x);
                        }
                    }
                    other => return Err(format!("Fixed32 stream produced {other:?}")),
                }
            }
            for (acc, x) in float_sum.iter_mut().zip(&tensor) {
                *acc += *x as f64;
            }
        }
        // Dequantize through the same stream code the workers use.
        let mut result_stream = TensorStream::from_f32(
            vec![vec![0.0; elems]],
            NumericMode::Fixed32,
            sc.scaling,
            sc.k,
        )
        .map_err(|e| e.to_string())?;
        result_stream.reset_undo(1);
        for chunk in 0..sc.n_chunks {
            let off = (chunk * sc.k as u64) as usize;
            result_stream
                .write_result(
                    0,
                    off as u64,
                    &Payload::I32(int_sum[off..off + sc.k].to_vec()),
                )
                .map_err(|e| e.to_string())?;
        }
        let ate = result_stream
            .into_tensors_f32(1)
            .map_err(|e| e.to_string())?
            .remove(0);
        Ok(JobReference { ate, float_sum })
    }

    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Did every worker finish *and* the final-result oracle pass?
    pub fn is_complete(&self) -> bool {
        self.finished
    }

    pub fn all_workers_done(&self) -> bool {
        self.workers.iter().all(|w| w.is_done())
    }

    pub fn n_inflight(&self) -> usize {
        self.inflight.len()
    }

    fn enqueue(&mut self, dest: Dest, frame: Vec<u8>) -> u64 {
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        self.inflight.insert(id, InFlight { dest, frame });
        id
    }

    /// Encode worker `flat`'s updates for `descs` and put them in
    /// flight to the switch.
    fn send_updates(&mut self, flat: usize, descs: Vec<SendDescriptor>) -> Result<(), Violation> {
        for d in descs {
            let mut frame = Vec::new();
            self.workers[flat]
                .encode_update(d, &mut frame)
                .map_err(|e| Violation {
                    oracle: "worker-reject".into(),
                    message: format!("worker {flat} could not encode its update: {e}"),
                })?;
            self.enqueue(Dest::Switch, frame);
        }
        Ok(())
    }

    fn flat_index(&self, job: u8, wid: u16) -> usize {
        job as usize * self.scenario.n_workers + wid as usize
    }

    fn job_of_flat(&self, flat: usize) -> u8 {
        (flat / self.scenario.n_workers) as u8
    }

    fn oldest_id(&self) -> Option<u64> {
        self.inflight.keys().next().copied()
    }

    /// Is this switch-bound update still within the protocol's assumed
    /// packet lifetime (≤ one phase of lag, see module docs)?
    fn update_is_live(&self, flat_sender: usize, pkt: &PacketView<'_>) -> bool {
        let worker = &self.workers[flat_sender];
        let outstanding = worker.slot_snapshots().iter().any(|s| {
            s.active
                && s.slot == pkt.idx()
                && s.ver == pkt.ver()
                && s.chunk * self.scenario.k as u64 == pkt.off()
        });
        if outstanding {
            return true;
        }
        match self.switch.cell(pkt.job(), pkt.ver(), pkt.idx() as usize) {
            Some(cell) => cell.seen.contains(pkt.wid() as usize) && cell.off == pkt.off(),
            // BasicSwitch runs lossless with no duplication: every
            // update in flight is the outstanding one — but the
            // outstanding test can momentarily fail for packets the
            // worker already advanced past; treat as live, Algorithm 1
            // has no stale-packet hazard without faults.
            None => true,
        }
    }

    /// Remove aged-out packets (see module docs). Deterministic: runs
    /// after every step, so fingerprint-equal states agree on flight.
    fn gc_expired(&mut self) {
        let dead: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, f)| {
                f.dest == Dest::Switch && {
                    let pkt = f.view();
                    !self.update_is_live(self.flat_index(pkt.job(), pkt.wid()), &pkt)
                }
            })
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            self.inflight.remove(&id);
        }
    }

    /// All applicable choices in this state, in deterministic order.
    pub fn enabled_choices(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        if self.deviations_left == Some(0) {
            // Deviation budget exhausted: FIFO delivery only, plus
            // timeouts when the network is empty (forced progress).
            if let Some(id) = self.oldest_id() {
                out.push(Choice::Deliver(id));
            } else {
                for (flat, w) in self.workers.iter().enumerate() {
                    if !w.is_done() && w.next_deadline().is_some() {
                        out.push(Choice::Timeout(flat));
                    }
                }
            }
            return out;
        }
        for &id in self.inflight.keys() {
            out.push(Choice::Deliver(id));
        }
        if self.drops_left > 0 {
            for &id in self.inflight.keys() {
                out.push(Choice::Drop(id));
            }
        }
        if self.dups_left > 0 {
            for &id in self.inflight.keys() {
                out.push(Choice::Duplicate(id));
            }
        }
        if self.stale_left > 0 {
            for (&id, f) in self.inflight.iter() {
                if f.dest == Dest::Switch {
                    out.push(Choice::StaleEpoch(id));
                }
            }
        }
        for (flat, w) in self.workers.iter().enumerate() {
            if !w.is_done()
                && w.next_deadline().is_some()
                && (self.retx_left > 0 || self.inflight.is_empty())
            {
                out.push(Choice::Timeout(flat));
            }
        }
        out
    }

    /// Apply one choice. On [`StepResult::Applied`] every per-step
    /// oracle has passed.
    pub fn step(&mut self, choice: Choice) -> StepResult {
        // Deviation accounting (delay-bounded exploration): anything
        // other than oldest-first delivery, or a timeout forced by an
        // empty network, deviates.
        if let Some(dev) = self.deviations_left {
            let deviating = match choice {
                Choice::Deliver(id) => Some(id) != self.oldest_id(),
                Choice::Timeout(_) => !self.inflight.is_empty(),
                Choice::Drop(_) | Choice::Duplicate(_) | Choice::StaleEpoch(_) => true,
            };
            if deviating {
                if dev == 0 {
                    return StepResult::Skipped;
                }
                self.deviations_left = Some(dev - 1);
            }
        }

        let result = match choice {
            Choice::Deliver(id) => match self.inflight.remove(&id) {
                None => return StepResult::Skipped,
                Some(f) => self.deliver(f),
            },
            Choice::Drop(id) => {
                if self.drops_left == 0 || !self.inflight.contains_key(&id) {
                    return StepResult::Skipped;
                }
                self.inflight.remove(&id);
                self.drops_left -= 1;
                StepResult::Applied
            }
            Choice::Duplicate(id) => {
                if self.dups_left == 0 {
                    return StepResult::Skipped;
                }
                match self.inflight.get(&id).cloned() {
                    None => return StepResult::Skipped,
                    Some(f) => {
                        self.dups_left -= 1;
                        self.enqueue(f.dest, f.frame);
                        StepResult::Applied
                    }
                }
            }
            Choice::StaleEpoch(id) => {
                if self.stale_left == 0 {
                    return StepResult::Skipped;
                }
                match self.inflight.get(&id) {
                    Some(f) if f.dest == Dest::Switch => {
                        let live = f.view();
                        // Perturb the payload so a fence leak is not
                        // silently absorbed as a harmless duplicate:
                        // if these bytes reach the aggregate, the
                        // final-ATE oracle sees them too.
                        let mut values = Vec::new();
                        live.to_i32_into(&mut values);
                        for x in values.iter_mut() {
                            *x = x.wrapping_add(1);
                        }
                        let meta = UpdateMeta {
                            wid: live.wid(),
                            ver: live.ver(),
                            idx: live.idx(),
                            off: live.off(),
                            job: live.job(),
                            epoch: live.epoch().wrapping_sub(1),
                            retransmission: live.retransmission(),
                        };
                        let mut ghost = Vec::new();
                        encode_update_frame(meta, WireChunk::I32(&values), &mut ghost);
                        self.stale_left -= 1;
                        self.enqueue(Dest::Switch, ghost);
                        StepResult::Applied
                    }
                    _ => return StepResult::Skipped,
                }
            }
            Choice::Timeout(flat) => {
                if flat >= self.workers.len() {
                    return StepResult::Skipped;
                }
                let Some(deadline) = self.workers[flat].next_deadline() else {
                    return StepResult::Skipped;
                };
                let network_busy = !self.inflight.is_empty();
                if network_busy {
                    if self.retx_left == 0 {
                        return StepResult::Skipped;
                    }
                    self.retx_left -= 1;
                }
                self.now = self.now.max(deadline);
                let descs = self.workers[flat].expired_sends(self.now);
                match self.send_updates(flat, descs) {
                    Err(v) => StepResult::Violation(v),
                    Ok(()) => StepResult::Applied,
                }
            }
        };
        if let StepResult::Violation(_) = result {
            return result;
        }
        if let Some(v) = self.post_step_oracles() {
            return StepResult::Violation(v);
        }
        self.gc_expired();
        result
    }

    fn deliver(&mut self, f: InFlight) -> StepResult {
        let pkt = f.view();
        match f.dest {
            Dest::Switch => {
                let job = pkt.job();
                let mut out = Vec::new();
                match self.switch.on_update(&pkt, &mut out) {
                    Err(v) => StepResult::Violation(v),
                    Ok(WireAction::Drop) => StepResult::Applied,
                    Ok(WireAction::Multicast) => {
                        for flat in 0..self.workers.len() {
                            if self.job_of_flat(flat) == job {
                                self.enqueue(Dest::Worker(flat), out.clone());
                            }
                        }
                        StepResult::Applied
                    }
                    Ok(WireAction::Unicast(wid)) => {
                        let flat = self.flat_index(job, wid);
                        self.enqueue(Dest::Worker(flat), out);
                        StepResult::Applied
                    }
                }
            }
            Dest::Worker(flat) => {
                let next = self.workers[flat].on_view(&pkt, self.now);
                match self.send_updates(flat, next.into_iter().collect()) {
                    Err(v) => StepResult::Violation(v),
                    Ok(()) => StepResult::Applied,
                }
            }
        }
    }

    /// Oracles evaluated after every applied step.
    fn post_step_oracles(&mut self) -> Option<Violation> {
        // Exactly-once accounting: every accepted result corresponds
        // to exactly one newly-done chunk ([`TensorStream`] writes are
        // idempotent, so a double-accepted result breaks this
        // equality, not the buffer).
        for (flat, w) in self.workers.iter().enumerate() {
            if w.stats().results != w.stream().done_chunks() {
                return Some(Violation {
                    oracle: "result-accounting".into(),
                    message: format!(
                        "worker {flat}: {} accepted results but {} done chunks — \
                         a result was accepted twice or a chunk never installed",
                        w.stats().results,
                        w.stream().done_chunks()
                    ),
                });
            }
        }
        if !self.finished && self.all_workers_done() {
            if let Some(v) = self.final_checks() {
                return Some(v);
            }
            self.finished = true;
        }
        None
    }

    /// Terminal oracle: each job's every worker holds the bit-exact
    /// sequential-reference ATE, within Appendix C's `n/f` of the
    /// exact float sum.
    fn final_checks(&self) -> Option<Violation> {
        let n = self.scenario.n_workers;
        let f = self.scenario.scaling;
        for job in 0..self.scenario.jobs() {
            let reference = &self.references[job as usize];
            for wid in 0..n {
                let flat = self.flat_index(job, wid as u16);
                let tensors = match self.workers[flat].stream().result_tensors_f32(1) {
                    Ok(t) => t,
                    Err(e) => {
                        return Some(Violation {
                            oracle: "final-ate".into(),
                            message: format!("worker {flat} results unreadable: {e}"),
                        })
                    }
                };
                let ate = &tensors[0];
                if ate.len() != reference.ate.len()
                    || ate
                        .iter()
                        .zip(&reference.ate)
                        .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    return Some(Violation {
                        oracle: "final-ate".into(),
                        message: format!(
                            "job {job} worker {wid}: ATE differs from the sequential \
                             reference (not bit-identical)"
                        ),
                    });
                }
                let bound = n as f64 / f + 1e-6;
                for (i, (&a, &exact)) in ate.iter().zip(&reference.float_sum).enumerate() {
                    let err = (a as f64 - exact).abs();
                    if err > bound {
                        return Some(Violation {
                            oracle: "quantization-bound".into(),
                            message: format!(
                                "job {job} worker {wid} elem {i}: |ATE − Σfloat| = {err:.3e} \
                                 exceeds Appendix C bound n/f = {bound:.3e}"
                            ),
                        });
                    }
                }
            }
        }
        None
    }

    /// Quiescence: the adversary stops interfering (FIFO delivery,
    /// timeouts only when the network is empty) — every chunk must
    /// complete within `max_steps`, and leftover duplicates must be
    /// absorbed as stale. This is the liveness oracle.
    pub fn drain(&mut self, max_steps: u64) -> Option<Violation> {
        let mut steps = 0u64;
        while !self.all_workers_done() {
            if steps >= max_steps {
                return Some(Violation {
                    oracle: "liveness".into(),
                    message: format!(
                        "not quiescent after {max_steps} fault-free steps \
                         ({} packets in flight)",
                        self.inflight.len()
                    ),
                });
            }
            let choice = match self.oldest_id() {
                Some(id) => Choice::Deliver(id),
                None => {
                    let next = self
                        .workers
                        .iter()
                        .enumerate()
                        .filter(|(_, w)| !w.is_done())
                        .filter_map(|(flat, w)| w.next_deadline().map(|d| (d, flat)))
                        .min();
                    match next {
                        Some((_, flat)) => Choice::Timeout(flat),
                        None => {
                            return Some(Violation {
                                oracle: "liveness".into(),
                                message: "stuck: chunks pending but no packets in flight \
                                          and no retransmission timers armed"
                                    .into(),
                            })
                        }
                    }
                }
            };
            match self.step(choice) {
                StepResult::Applied => {}
                StepResult::Violation(v) => return Some(v),
                StepResult::Skipped => {
                    return Some(Violation {
                        oracle: "liveness".into(),
                        message: format!("drain choice {choice:?} unexpectedly inapplicable"),
                    })
                }
            }
            steps += 1;
        }
        // Flush leftovers (late duplicates): every one must be
        // absorbed without disturbing the completed state.
        while let Some(id) = self.oldest_id() {
            if steps >= max_steps {
                return Some(Violation {
                    oracle: "liveness".into(),
                    message: "leftover packets never drained".into(),
                });
            }
            if let StepResult::Violation(v) = self.step(Choice::Deliver(id)) {
                return Some(v);
            }
            steps += 1;
        }
        if !self.finished {
            return Some(Violation {
                oracle: "final-ate".into(),
                message: "drain completed but the final-result oracle never ran clean".into(),
            });
        }
        None
    }

    /// Structural state fingerprint for BFS deduplication. Excludes
    /// time, timers, statistics, and packet ids (flight is hashed as a
    /// canonical multiset), so schedules that converge to the same
    /// protocol state merge.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.drops_left as u64);
        h.write_u64(self.dups_left as u64);
        h.write_u64(self.retx_left as u64);
        h.write_u64(self.stale_left as u64);
        h.write_u64(match self.deviations_left {
            None => u64::MAX,
            Some(d) => d as u64,
        });
        h.write_u64(self.finished as u64);
        for w in &self.workers {
            for s in w.slot_snapshots() {
                h.write_u64(s.slot as u64);
                h.write_u64(s.ver.index() as u64);
                h.write_u64(s.chunk);
                h.write_u64(s.active as u64);
            }
            let stream = w.stream();
            let mut done_bits = 0u64;
            for chunk in 0..stream.total_chunks() {
                if stream.chunk_is_done(chunk) {
                    done_bits |= 1 << (chunk % 64);
                }
            }
            h.write_u64(done_bits);
        }
        self.switch.fingerprint_into(&mut h);
        let mut flight: Vec<Vec<u8>> = self
            .inflight
            .values()
            .map(|f| {
                let mut bytes = f.frame.clone();
                match f.dest {
                    Dest::Switch => bytes.push(0xFF),
                    Dest::Worker(flat) => bytes.push(flat as u8),
                }
                bytes
            })
            .collect();
        flight.sort_unstable();
        for bytes in &flight {
            h.write_bytes(bytes);
            h.write_u64(0x5E9A);
        }
        h.finish()
    }
}
