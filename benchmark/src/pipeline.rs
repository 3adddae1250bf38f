//! The traced pipeline: a benchmark-owned, single-threaded flat-star
//! all-reduce over a real `udp_fabric`, built from the layers' public
//! functions so that a span can wrap each stage of each burst.
//!
//! The program's runners are closed loops with no hooks, so per-layer
//! time cannot be read out of them (spans inside the program are a
//! later issue). This loop performs the same work through the same
//! functions — `quantize_chunk` → `encode_update_into` →
//! `TxBatch::flush` → `Port::recv_batch` → `PacketView::parse` →
//! `ReliableSwitch::on_view` (or, for the tenant ingress,
//! `Packet::decode` → `MultiJobSwitch::on_packet` →
//! `Packet::encode_into`) → `SlotEngine::on_result`/`expired` →
//! `dequantize_chunk`, RTOs on a `TimerWheel` — one actor at a time,
//! and must itself produce the reference bits.

use crate::host::{thread_allocs, Elapsed, Stopwatch};
use crate::trace::{Stage, Tracer};
use crate::workloads::{BURST, MAX_WALL};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use switchml_core::config::Protocol;
use switchml_core::packet::{
    encode_update_into, Packet, PacketKind, PacketView, WireElems, WorkerId, HEADER_LEN, MAX_K,
};
use switchml_core::quant::fixed::{dequantize_chunk, quantize_chunk};
use switchml_core::switch::multijob::MultiJobSwitch;
use switchml_core::switch::pipeline::PipelineModel;
use switchml_core::switch::reliable::ReliableSwitch;
use switchml_core::switch::{SwitchAction, WireAction};
use switchml_core::worker::engine::{EngineConfig, ResultOutcome, SendDescriptor, SlotEngine};
use switchml_transport::{worker_endpoint, BurstBuf, Port, TimerWheel, TxBatch, SWITCH_ENDPOINT};

/// Any wire packet fits (mirrors the runners' scratch sizing).
const FRAME_CAP: usize = HEADER_LEN + 4 * MAX_K;
/// The reactor's wheel geometry: 256 buckets of 50 µs.
const WHEEL_TICK_NS: u64 = 50_000;
const WHEEL_BUCKETS: usize = 256;
/// The reactor's idle-nap cap.
const IDLE_NAP_NS: u64 = 100_000;

/// Which switch ingress the pipeline exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingress {
    /// Borrowed `PacketView` into `ReliableSwitch::on_view` — the
    /// single-job fast path every flat and hierarchical runner uses.
    View,
    /// Owned `Packet::decode` → `MultiJobSwitch::on_packet` →
    /// `Packet::encode_into` — the tenant path of `ctrl`.
    Owned,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Frames the switch ingress processed, and the heap allocations
    /// it made while doing so (`switch.allocs_per_pkt`).
    pub switch_pkts: u64,
    pub switch_allocs: u64,
    pub send_calls: u64,
    pub send_frames: u64,
    pub recv_calls: u64,
    pub recv_frames: u64,
}

impl Counts {
    pub fn add(&mut self, o: Counts) {
        self.switch_pkts += o.switch_pkts;
        self.switch_allocs += o.switch_allocs;
        self.send_calls += o.send_calls;
        self.send_frames += o.send_frames;
        self.recv_calls += o.recv_calls;
        self.recv_frames += o.recv_frames;
    }
}

pub struct PipelineRound {
    /// The round by the wall clock, with the steal during it.
    pub elapsed: Elapsed,
    /// Worker `w`'s aggregated tensor.
    pub results: Vec<Vec<f32>>,
    pub counts: Counts,
}

enum Switch {
    View(ReliableSwitch),
    Owned(MultiJobSwitch),
}

struct SwitchCtx<P: Port> {
    port: P,
    switch: Switch,
    rxb: BurstBuf,
    txb: TxBatch,
    /// One encoded response per frame of the burst.
    scratch: Vec<Vec<u8>>,
    actions: Vec<WireAction>,
    owned: Vec<Option<Packet>>,
}

struct WorkerCtx<P: Port> {
    port: P,
    engine: SlotEngine,
    wid: WorkerId,
    local: Vec<f32>,
    /// Updates the engine asked for that are not on the wire yet; at
    /// most one burst leaves per step, so no socket queue ever holds
    /// more than a couple of bursts.
    pending: VecDeque<SendDescriptor>,
    rxb: BurstBuf,
    txb: TxBatch,
    /// Quantized elements of the burst being staged, `BURST × k`.
    qstage: Vec<i32>,
}

/// One switch step: drain at most one burst, run the ingress, fan the
/// responses out, flush. Returns whether anything arrived.
fn switch_step<P: Port>(
    s: &mut SwitchCtx<P>,
    n_workers: usize,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<bool, String> {
    let SwitchCtx {
        port,
        switch,
        rxb,
        txb,
        scratch,
        actions,
        owned,
    } = s;
    let mut o = tr.begin();
    let n = port.recv_batch(rxb, Duration::ZERO);
    counts.recv_calls += 1;
    counts.recv_frames += n as u64;
    if n == 0 {
        tr.end(o, Stage::RecvEmpty, 0);
        return Ok(false);
    }
    tr.lap(&mut o, Stage::Recv, n);
    counts.switch_pkts += n as u64;
    match switch {
        Switch::View(sw) => {
            let mut views: [Option<PacketView<'_>>; BURST] = [None; BURST];
            for (slot, (_from, frame)) in views.iter_mut().zip(rxb.iter()) {
                *slot = PacketView::parse(frame).ok();
            }
            tr.lap(&mut o, Stage::Parse, n);
            let a0 = thread_allocs();
            for i in 0..n {
                actions[i] = match &views[i] {
                    Some(v) => sw.on_view(v, &mut scratch[i]).map_err(|e| e.to_string())?,
                    None => WireAction::Drop,
                };
            }
            counts.switch_allocs += thread_allocs() - a0;
            tr.end(o, Stage::OnView, n);
        }
        Switch::Owned(mj) => {
            let a0 = thread_allocs();
            for (slot, (_from, frame)) in owned.iter_mut().zip(rxb.iter()) {
                *slot = Packet::decode(frame).ok();
            }
            tr.lap(&mut o, Stage::DecodeOwned, n);
            // `on_packet` consumes the packet and hands the response
            // back by value; park it in `owned` for the encode stage.
            for i in 0..n {
                // An error is traffic for an unadmitted job: dropped,
                // as `ctrl`'s switch thread does.
                let act = owned[i].take().and_then(|p| mj.on_packet(p).ok());
                actions[i] = match act {
                    Some(SwitchAction::Multicast(p)) => {
                        owned[i] = Some(p);
                        WireAction::Multicast
                    }
                    Some(SwitchAction::Unicast(w, p)) => {
                        owned[i] = Some(p);
                        WireAction::Unicast(w)
                    }
                    Some(SwitchAction::Drop) | None => WireAction::Drop,
                };
            }
            tr.lap(&mut o, Stage::MultiJobOnPacket, n);
            let mut encoded = 0;
            for i in 0..n {
                if let Some(p) = owned[i].take() {
                    p.encode_into(&mut scratch[i]);
                    encoded += 1;
                }
            }
            counts.switch_allocs += thread_allocs() - a0;
            tr.end(o, Stage::EncodeOwned, encoded);
        }
    }
    // Fan-out copies are the loop's own work (`driver.self`).
    for i in 0..n {
        match actions[i] {
            WireAction::Multicast => {
                for w in 0..n_workers {
                    txb.push(worker_endpoint(w)).extend_from_slice(&scratch[i]);
                }
            }
            WireAction::Unicast(w) => {
                txb.push(worker_endpoint(w as usize))
                    .extend_from_slice(&scratch[i]);
            }
            WireAction::Drop => {}
        }
    }
    if !txb.is_empty() {
        let frames = txb.len();
        let o = tr.begin();
        txb.flush(port);
        tr.end(o, Stage::Send, frames);
        counts.send_calls += 1;
        counts.send_frames += frames as u64;
    }
    Ok(true)
}

/// One worker step: drain at most one burst of results into the
/// engine and the local tensor, then put at most one burst of pending
/// updates on the wire. Returns whether anything happened.
fn worker_step<P: Port>(
    w: &mut WorkerCtx<P>,
    data: &[f32],
    k: usize,
    f: f64,
    now: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<bool, String> {
    let WorkerCtx {
        port,
        engine,
        wid,
        local,
        pending,
        rxb,
        txb,
        qstage,
    } = w;
    let mut progress = false;
    if !engine.is_done() {
        let mut o = tr.begin();
        let n = port.recv_batch(rxb, Duration::ZERO);
        counts.recv_calls += 1;
        counts.recv_frames += n as u64;
        if n == 0 {
            tr.end(o, Stage::RecvEmpty, 0);
        } else {
            tr.lap(&mut o, Stage::Recv, n);
            progress = true;
            let mut views: [Option<PacketView<'_>>; BURST] = [None; BURST];
            for (slot, (_from, frame)) in views.iter_mut().zip(rxb.iter()) {
                // The runners' defensive filter: full-k results for
                // slots this engine owns.
                *slot = PacketView::parse(frame).ok().filter(|v| {
                    v.kind() == PacketKind::Result && v.k() == k && engine.owns_slot(v.idx())
                });
            }
            tr.lap(&mut o, Stage::Parse, n);
            let mut accepted: [Option<usize>; BURST] = [None; BURST];
            for i in 0..n {
                let Some(v) = &views[i] else { continue };
                match engine
                    .on_result(v.idx(), v.ver(), v.off(), now)
                    .map_err(|e| e.to_string())?
                {
                    ResultOutcome::Accepted { off, next } => {
                        accepted[i] = Some(off as usize);
                        pending.extend(next);
                    }
                    ResultOutcome::Stale => {}
                }
            }
            tr.lap(&mut o, Stage::OnResult, n);
            let n_acc = accepted[..n].iter().flatten().count();
            for i in 0..n {
                if let (Some(v), Some(_)) = (&views[i], accepted[i]) {
                    v.overwrite_into(&mut qstage[i * k..(i + 1) * k]);
                }
            }
            tr.lap(&mut o, Stage::LoadElems, n_acc);
            for i in 0..n {
                if let Some(off) = accepted[i] {
                    dequantize_chunk(&qstage[i * k..(i + 1) * k], f, &mut local[off..off + k]);
                }
            }
            tr.end(o, Stage::Dequantize, n_acc);
        }
    }
    if !pending.is_empty() {
        progress = true;
        let m = pending.len().min(BURST);
        let mut o = tr.begin();
        for (i, d) in pending.iter().take(m).enumerate() {
            let off = d.off as usize;
            quantize_chunk(&data[off..off + k], f, &mut qstage[i * k..(i + 1) * k]);
        }
        tr.lap(&mut o, Stage::Quantize, m);
        for (i, d) in pending.drain(..m).enumerate() {
            encode_update_into(
                *wid,
                d.ver,
                d.slot,
                d.off,
                0,
                d.retransmission,
                &qstage[i * k..(i + 1) * k],
                txb.push(SWITCH_ENDPOINT),
            );
        }
        tr.lap(&mut o, Stage::EncodeUpdate, m);
        txb.flush(port);
        tr.end(o, Stage::Send, m);
        counts.send_calls += 1;
        counts.send_frames += m as u64;
    }
    Ok(progress)
}

/// Run one all-reduce of `inputs` (one tensor per worker, a multiple
/// of `k` long) over `ports` (endpoint 0 the switch, `1 + w` worker
/// `w`), recording spans into `tr`.
pub fn run_round<P: Port>(
    mut ports: Vec<P>,
    inputs: &[Vec<f32>],
    proto: &Protocol,
    ingress: Ingress,
    tr: &mut Tracer,
) -> Result<PipelineRound, String> {
    let n = proto.n_workers;
    let k = proto.k;
    let f = proto.scaling_factor;
    let elems = inputs[0].len();
    assert_eq!(inputs.len(), n, "one tensor per worker");
    assert_eq!(ports.len(), n + 1, "switch + one port per worker");
    assert!(
        elems.is_multiple_of(k) && k <= MAX_K,
        "tensor must be whole chunks"
    );

    let switch = match ingress {
        Ingress::View => Switch::View(ReliableSwitch::new(proto).map_err(|e| e.to_string())?),
        Ingress::Owned => {
            let mut mj = MultiJobSwitch::new(PipelineModel::default());
            mj.admit(0, proto).map_err(|e| e.to_string())?;
            Switch::Owned(mj)
        }
    };
    let worker_ports = ports.split_off(1);
    let mut sw = SwitchCtx {
        port: ports.pop().expect("switch port"),
        switch,
        rxb: BurstBuf::new(BURST, FRAME_CAP),
        txb: TxBatch::new(FRAME_CAP),
        scratch: (0..BURST).map(|_| Vec::with_capacity(FRAME_CAP)).collect(),
        actions: vec![WireAction::Drop; BURST],
        owned: (0..BURST).map(|_| None).collect(),
    };
    let mut workers = Vec::with_capacity(n);
    for (w, port) in worker_ports.into_iter().enumerate() {
        let cfg = EngineConfig {
            wid: w as WorkerId,
            k,
            slot_base: 0,
            n_slots: proto.pool_size,
            chunk_base: 0,
            n_chunks: (elems / k) as u64,
            rto: Some(proto.rto_ns),
            rto_policy: proto.rto_policy,
        };
        workers.push(WorkerCtx {
            port,
            engine: SlotEngine::new(cfg).map_err(|e| e.to_string())?,
            wid: w as WorkerId,
            local: vec![0.0; elems],
            pending: VecDeque::with_capacity(2 * proto.pool_size),
            rxb: BurstBuf::new(BURST, FRAME_CAP),
            txb: TxBatch::new(FRAME_CAP),
            qstage: vec![0; BURST * k],
        });
    }
    let mut wheel = TimerWheel::new(n, WHEEL_TICK_NS, WHEEL_BUCKETS);
    let mut counts = Counts::default();
    let mut fired: Vec<usize> = Vec::with_capacity(n);

    let watch = Stopwatch::start();
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let root = tr.begin();
    for (i, w) in workers.iter_mut().enumerate() {
        let t = now_ns();
        let first = w.engine.start(t);
        w.pending.extend(first);
        if let Some(dl) = w.engine.next_deadline() {
            let o = tr.begin();
            wheel.schedule(i, dl);
            tr.end(o, Stage::WheelSchedule, 1);
        }
    }
    let mut last_tick = 0u64;
    while workers.iter().any(|w| !w.engine.is_done()) {
        if t0.elapsed() > MAX_WALL {
            return Err("traced pipeline exceeded the wall-clock budget".into());
        }
        let mut progress = false;
        for (i, w) in workers.iter_mut().enumerate() {
            let was_done = w.engine.is_done();
            if worker_step(w, &inputs[i], k, f, now_ns(), tr, &mut counts)? {
                progress = true;
                if !was_done {
                    // Progress re-arms the engine's deadline; mirror it
                    // on the wheel, as the reactor does.
                    let o = tr.begin();
                    match w.engine.next_deadline() {
                        Some(dl) => wheel.schedule(i, dl),
                        None => wheel.cancel(i),
                    }
                    tr.end(o, Stage::WheelSchedule, 1);
                }
            }
            progress |= switch_step(&mut sw, n, tr, &mut counts)?;
        }
        let t = now_ns();
        let tick = t / WHEEL_TICK_NS;
        let o = tr.begin();
        fired.clear();
        wheel.advance(t, |i| {
            let oe = tr.begin();
            let retx = workers[i].engine.expired(t);
            let n_retx = retx.len();
            workers[i].pending.extend(retx);
            tr.end(oe, Stage::Expired, n_retx);
            fired.push(i);
        });
        tr.end(o, Stage::WheelAdvance, (tick - last_tick) as usize);
        last_tick = tick;
        for &i in &fired {
            if let Some(dl) = workers[i].engine.next_deadline() {
                let o = tr.begin();
                wheel.schedule(i, dl);
                tr.end(o, Stage::WheelSchedule, 1);
            }
        }
        if !progress && fired.is_empty() {
            let nap = wheel
                .next_deadline()
                .map_or(IDLE_NAP_NS, |d| d.saturating_sub(now_ns()))
                .clamp(1, IDLE_NAP_NS);
            let o = tr.begin();
            std::thread::sleep(Duration::from_nanos(nap));
            tr.end(o, Stage::Idle, 1);
        }
    }
    tr.end(root, Stage::Driver, 1);
    let elapsed = watch.elapsed();

    let results = workers.into_iter().map(|w| w.local).collect();
    Ok(PipelineRound {
        elapsed,
        results,
        counts,
    })
}
