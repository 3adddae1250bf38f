//! The [`Worker`] wire path: `on_view` (a borrowed view in) and
//! `encode_update` (bytes into a caller's frame out), the one ingress
//! and egress of the worker. A result it cannot install must be counted
//! and change nothing else, in every numeric mode; the steady-state
//! path must allocate nothing per packet.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use switchml_core::checksum::Crc32;
use switchml_core::config::{NumericMode, Protocol};
use switchml_core::packet::{
    encode_update_frame, Packet, PacketKind, PacketView, Payload, PoolVersion, UpdateMeta,
    HEADER_LEN,
};
use switchml_core::worker::engine::SendDescriptor;
use switchml_core::worker::stream::TensorStream;
use switchml_core::worker::Worker;

thread_local! {
    /// Heap allocations made by the current thread (tests run on
    /// parallel threads, so a process-wide count would be polluted).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counter is a
// destructor-free thread-local, touched with `try_with` so a thread
// that is tearing down still allocates normally.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MODES: [NumericMode; 3] = [
    NumericMode::Fixed32,
    NumericMode::Float16,
    NumericMode::NativeInt32,
];

const RTO_NS: u64 = 1_000;

/// A single-worker job (its own update is the aggregate) over `elems`
/// elements, stamped with a non-default wire job and epoch.
fn worker(mode: NumericMode, elems: usize, k: usize, pool: usize, cores: usize) -> Worker {
    let stream = match mode {
        NumericMode::NativeInt32 => {
            let t: Vec<i32> = (0..elems as i32).map(|i| i * 37 - 500).collect();
            TensorStream::from_i32(vec![t], k)
        }
        _ => {
            let t: Vec<f32> = (0..elems).map(|i| i as f32 * 0.37 - 5.0).collect();
            TensorStream::from_f32(vec![t], mode, 64.0, k)
        }
    }
    .unwrap();
    let proto = Protocol {
        n_workers: 1,
        k,
        pool_size: pool,
        rto_ns: RTO_NS,
        mode,
        ..Protocol::default()
    };
    let mut w = Worker::sharded(0, &proto, stream, cores).unwrap();
    w.set_epoch(3);
    w.set_job(5);
    w
}

/// What the switch would multicast back for update `u`.
fn result_of(u: &Packet) -> Packet {
    Packet {
        kind: PacketKind::Result,
        retransmission: false,
        ..u.clone()
    }
}

/// The same payload with one element more.
fn one_longer(p: &Payload) -> Payload {
    match p {
        Payload::I32(v) => Payload::I32([&v[..], &[7]].concat()),
        Payload::F16(v) => Payload::F16([&v[..], &[7]].concat()),
    }
}

/// The same element count in the other element width.
fn other_width(p: &Payload) -> Payload {
    match p {
        Payload::I32(v) => Payload::F16(vec![0; v.len()]),
        Payload::F16(v) => Payload::I32(vec![0; v.len()]),
    }
}

/// `w`'s update frames for `descs`, decoded.
fn sends(w: &mut Worker, descs: Vec<SendDescriptor>) -> Vec<Packet> {
    let mut frame = Vec::new();
    (descs.into_iter())
        .map(|d| {
            w.encode_update(d, &mut frame).unwrap();
            Packet::decode(&frame).unwrap()
        })
        .collect()
}

/// Deliver `r` to `w` as a frame; its follow-up update, decoded.
fn deliver(w: &mut Worker, r: &Packet, now: u64) -> Vec<Packet> {
    let frame = r.encode();
    let next = w.on_view(&PacketView::parse(&frame).unwrap(), now);
    sends(w, next.into_iter().collect())
}

/// Everything a result the worker drops must leave as it was: slot
/// state, stream progress, timers and every counter but the ones that
/// count drops.
fn protocol_state(w: &Worker) -> impl PartialEq + std::fmt::Debug {
    let stream = w.stream();
    let done: Vec<bool> = (0..stream.total_chunks())
        .map(|c| stream.chunk_is_done(c))
        .collect();
    let mut stats = w.stats();
    (stats.stale, stats.stale_epoch, stats.rejected) = (0, 0, 0);
    (w.slot_snapshots(), done, w.next_deadline(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The job- and mode-aware update encoder is `Packet::encode`.
    #[test]
    fn update_encoder_matches_packet_encode(
        (wid, idx, off) in (any::<u16>(), any::<u32>(), any::<u64>()),
        (job, epoch) in (any::<u8>(), any::<u8>()),
        (v1, retransmission, f16) in (any::<bool>(), any::<bool>(), any::<bool>()),
        values in prop::collection::vec(any::<i32>(), 0..48),
    ) {
        let payload = if f16 {
            Payload::F16(values.iter().map(|&v| v as u16).collect())
        } else {
            Payload::I32(values)
        };
        let reference = Packet {
            kind: PacketKind::Update,
            wid,
            ver: PoolVersion::from_bit(v1),
            idx,
            off,
            job,
            epoch,
            retransmission,
            payload,
        };
        let meta = UpdateMeta {
            wid,
            ver: reference.ver,
            idx,
            off,
            job,
            epoch,
            retransmission,
        };
        let mut frame = vec![0xAA; 7]; // stale contents must not leak
        encode_update_frame(meta, reference.payload.as_chunk(), &mut frame);
        prop_assert_eq!(&frame[..], &reference.encode()[..]);
    }

    /// View ingress drops what it cannot install: results with one
    /// element too many, the other element width, a foreign epoch, an
    /// unowned slot, a misaligned or past-the-end offset are counted in
    /// `rejected` / `stale_epoch` / `stale` and change nothing else —
    /// `a`, which sees them, stays in step with its twin `b`, which
    /// does not: same state after every step, same sends, bit-identical
    /// tensors at the end. Across fresh, duplicate, stale-version and
    /// foreign-job results and timer expiries, in all three numeric
    /// modes.
    #[test]
    fn view_ingress_drops_what_it_cannot_install(
        mode in 0usize..3,
        (k, pool, cores) in (1usize..9, 2usize..7, 1usize..3),
        chunks in 1usize..40,
        ragged in 0usize..8,
        ops in prop::collection::vec((0u8..10, any::<u16>()), 0..80),
    ) {
        let mode = MODES[mode];
        let elems = (chunks * k).saturating_sub(ragged % k).max(1);
        let mut a = worker(mode, elems, k, pool, cores);
        let mut b = a.clone();
        let mut now = 0u64;

        let descs = a.start_sends(now);
        let mut outstanding = sends(&mut a, descs);
        let descs = b.start_sends(now);
        prop_assert_eq!(&outstanding, &sends(&mut b, descs));
        for u in &outstanding {
            prop_assert_eq!((u.job, u.epoch, u.kind), (5, 3, PacketKind::Update));
        }
        let mut delivered: Vec<Packet> = Vec::new();

        for (op, pick) in ops {
            now += 10;
            let pick = pick as usize;
            if outstanding.is_empty() {
                break;
            }
            let at = pick % outstanding.len();
            match op {
                // Fresh result — also under a foreign wire job: the
                // worker stamps its job but leaves demux to the driver.
                0..=3 => {
                    let mut r = result_of(&outstanding.swap_remove(at));
                    if op == 3 {
                        r.job = r.job.wrapping_add(1);
                    }
                    let next = deliver(&mut a, &r, now);
                    prop_assert_eq!(&next, &deliver(&mut b, &r, now));
                    outstanding.extend(next);
                    delivered.push(r);
                }
                // A duplicate or a stale version: counted as stale.
                4 | 5 => {
                    let r = if op == 4 && !delivered.is_empty() {
                        delivered[pick % delivered.len()].clone()
                    } else {
                        let mut r = result_of(&outstanding[at]);
                        r.ver = r.ver.flip();
                        r
                    };
                    let before = a.stats().stale;
                    prop_assert!(deliver(&mut a, &r, now).is_empty());
                    prop_assert!(deliver(&mut b, &r, now).is_empty());
                    prop_assert_eq!(a.stats().stale, before + 1);
                }
                // Another generation's result, fenced before the engine.
                6 => {
                    let mut r = result_of(&outstanding[at]);
                    r.epoch = r.epoch.wrapping_add(1);
                    let before = a.stats().stale_epoch;
                    prop_assert!(deliver(&mut a, &r, now).is_empty());
                    prop_assert_eq!(a.stats().stale_epoch, before + 1);
                    prop_assert_eq!(protocol_state(&a), protocol_state(&b));
                }
                // Hostile: well-formed, current epoch, impossible.
                7 => {
                    let mut r = result_of(&outstanding[at]);
                    match pick % 5 {
                        0 => r.idx = (pool + pick % 3) as u32,
                        1 => r.payload = one_longer(&r.payload),
                        2 => r.payload = other_width(&r.payload),
                        3 => r.off += 1 + (k as u64 - 1) / 2, // misaligned unless k = 1
                        _ => r.off = (chunks * k) as u64,     // past the end
                    }
                    let (rejected, stale) = (a.stats().rejected, a.stats().stale);
                    prop_assert!(deliver(&mut a, &r, now).is_empty());
                    prop_assert_eq!(a.stats().rejected + a.stats().stale, rejected + stale + 1);
                    if pick % 5 < 3 {
                        prop_assert_eq!(a.stats().rejected, rejected + 1);
                    }
                    prop_assert_eq!(protocol_state(&a), protocol_state(&b));
                }
                // Every timer expires.
                8 => {
                    now += RTO_NS;
                    prop_assert_eq!(a.next_deadline(), b.next_deadline());
                    let descs = a.expired_sends(now);
                    let retx = sends(&mut a, descs);
                    let descs = b.expired_sends(now);
                    prop_assert_eq!(&retx, &sends(&mut b, descs));
                    prop_assert!(retx.iter().all(|u| u.retransmission));
                }
                _ => {}
            }
            prop_assert_eq!(protocol_state(&a), protocol_state(&b));
        }
        while let Some(u) = outstanding.pop() {
            now += 10;
            let next = deliver(&mut a, &result_of(&u), now);
            prop_assert_eq!(&next, &deliver(&mut b, &result_of(&u), now));
            outstanding.extend(next);
        }
        prop_assert!(a.is_done() && b.is_done());
        if mode == NumericMode::NativeInt32 {
            prop_assert_eq!(
                a.stream().result_tensors_i32().unwrap(),
                b.stream().result_tensors_i32().unwrap()
            );
        } else {
            let (ra, rb) = (a.into_results(1).unwrap(), b.into_results(1).unwrap());
            prop_assert_eq!(
                ra[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                rb[0].iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}

/// Turn an encoded update into the result the switch would send back
/// for it, in place: set the result flag, refresh the CRC.
fn reflect_in_place(frame: &mut [u8]) {
    frame[3] |= 0b10;
    let mut crc = Crc32::new();
    crc.update(&frame[..HEADER_LEN - 4]);
    crc.update(&[0, 0, 0, 0]);
    crc.update(&frame[HEADER_LEN..]);
    let sum = crc.finalize();
    frame[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&sum.to_be_bytes());
}

/// The steady-state worker path — parse, `on_view`, quantize + encode
/// the follow-up, poll the timers — makes zero heap allocations per
/// packet once its frame buffers exist, in every numeric mode.
#[test]
fn steady_state_worker_burst_allocates_nothing() {
    let (k, pool, rounds) = (32, 16, 24);
    for mode in MODES {
        let mut w = worker(mode, k * pool * (rounds + 2), k, pool, 2);
        let mut cur: Vec<Vec<u8>> = Vec::new();
        for d in w.start_sends(0) {
            let mut frame = Vec::with_capacity(HEADER_LEN + 4 * k);
            w.encode_update(d, &mut frame).unwrap();
            cur.push(frame);
        }
        let mut next = cur.clone();

        let before = ALLOCS.with(Cell::get);
        let mut packets = 0u64;
        for round in 0..rounds {
            let now = 10 * round as u64;
            for (frame, out) in cur.iter_mut().zip(&mut next) {
                reflect_in_place(frame);
                let view = PacketView::parse(frame).unwrap();
                let d = w.on_view(&view, now).expect("fresh result, more to send");
                w.encode_update(d, out).unwrap();
                packets += 1;
            }
            if w.next_deadline().is_some_and(|d| d <= now) {
                panic!("no timer is due inside the RTO");
            }
            assert!(w.expired_sends(now).is_empty());
            std::mem::swap(&mut cur, &mut next);
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(
            allocs, 0,
            "{mode:?}: {allocs} allocations over {packets} packets"
        );
        assert_eq!(w.stats().results, packets);
    }
}
