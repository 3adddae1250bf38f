//! Property-based tests of the Appendix B tensor stream manager.

use proptest::prelude::*;
use switchml_core::config::NumericMode;
use switchml_core::packet::{ElemOffset, Payload};
use switchml_core::worker::stream::TensorStream;

/// The chunk at `off` in wire form, owned.
fn chunk_at(s: &mut TensorStream, off: ElemOffset) -> Payload {
    s.wire_chunk(off).unwrap().to_payload()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Round-tripping every chunk through quantize → (identity
    /// aggregate) → dequantize reconstructs each tensor within 1/f,
    /// for arbitrary tensor shape mixes and chunk sizes.
    #[test]
    fn roundtrip_arbitrary_shapes(
        shapes in prop::collection::vec(0usize..40, 1..8),
        k in 1usize..12,
        fexp in 2i32..7,
    ) {
        let f = 10f64.powi(fexp);
        let tensors: Vec<Vec<f32>> = shapes
            .iter()
            .enumerate()
            .map(|(t, &len)| (0..len).map(|i| ((t * 31 + i) % 17) as f32 * 0.3 - 2.0).collect())
            .collect();
        let mut s = TensorStream::from_f32(tensors.clone(), NumericMode::Fixed32, f, k).unwrap();
        s.reset_undo(1);
        let total = s.total_elems();
        prop_assert_eq!(total, shapes.iter().sum::<usize>());
        prop_assert_eq!(s.total_chunks(), (total.div_ceil(k)) as u64);
        for c in 0..s.total_chunks() {
            let off = c * k as u64;
            let p = chunk_at(&mut s, off);
            prop_assert_eq!(p.len(), k);
            s.write_result(0, off, &p).unwrap();
        }
        prop_assert!(s.is_complete());
        let out = s.result_tensors_f32(1).unwrap();
        prop_assert_eq!(out.len(), tensors.len());
        for (t, tensor) in tensors.iter().enumerate() {
            prop_assert_eq!(out[t].len(), tensor.len());
            for (i, &x) in tensor.iter().enumerate() {
                prop_assert!(
                    (out[t][i] - x).abs() <= (1.0 / f) as f32 + 1e-6,
                    "tensor {} elem {}: {} vs {}", t, i, out[t][i], x
                );
            }
        }
    }

    /// Writing results in any order, with duplicates, still completes
    /// exactly once per chunk and steers values correctly.
    #[test]
    fn out_of_order_and_duplicate_writes(
        elems in 1usize..60,
        k in 1usize..8,
        order_seed in any::<u64>(),
        dup_every in 1u64..5,
    ) {
        let tensor: Vec<f32> = (0..elems).map(|i| i as f32 * 0.5).collect();
        let mut s = TensorStream::from_f32(vec![tensor.clone()], NumericMode::Fixed32, 100.0, k)
            .unwrap();
        s.reset_undo(1);
        let n_chunks = s.total_chunks();
        // Pseudo-random chunk order.
        let mut order: Vec<u64> = (0..n_chunks).collect();
        let mut state = order_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        for (j, &c) in order.iter().enumerate() {
            let off = c * k as u64;
            let p = chunk_at(&mut s, off);
            s.write_result(0, off, &p).unwrap();
            if (j as u64).is_multiple_of(dup_every) {
                s.write_result(0, off, &p).unwrap(); // duplicate
            }
        }
        prop_assert_eq!(s.done_chunks(), n_chunks);
        let out = s.result_tensors_f32(1).unwrap();
        for (i, &x) in tensor.iter().enumerate() {
            prop_assert!((out[0][i] - x).abs() <= 0.011);
        }
    }

    /// The f16 wire payload stays within half-precision error of the
    /// scaled values, chunk by chunk.
    #[test]
    fn f16_chunks_bounded_error(
        elems in 1usize..50,
        k in 1usize..8,
    ) {
        let f = 64.0;
        let tensor: Vec<f32> = (0..elems).map(|i| (i as f32 - 25.0) * 0.1).collect();
        let mut s = TensorStream::from_f32(vec![tensor.clone()], NumericMode::Float16, f, k).unwrap();
        for c in 0..s.total_chunks() {
            let off = c * k as u64;
            match chunk_at(&mut s, off) {
                Payload::F16(bits) => {
                    for (i, &h) in bits.iter().enumerate() {
                        let idx = off as usize + i;
                        if idx < elems {
                            let want = tensor[idx] as f64 * f;
                            let got = switchml_core::quant::f16::f16_to_f32(h) as f64;
                            let tol = want.abs() / 1024.0 + 1e-3;
                            prop_assert!((got - want).abs() <= tol,
                                "elem {}: {} vs {}", idx, got, want);
                        }
                    }
                }
                other => prop_assert!(false, "wrong payload type {:?}", other),
            }
        }
    }

    /// Native i32 streams round-trip exactly (no quantization at all).
    #[test]
    fn i32_stream_exact(
        tensors in prop::collection::vec(
            prop::collection::vec(any::<i32>(), 0..30), 1..5),
        k in 1usize..8,
    ) {
        let mut s = TensorStream::from_i32(tensors.clone(), k).unwrap();
        s.reset_undo(1);
        for c in 0..s.total_chunks() {
            let off = c * k as u64;
            let p = chunk_at(&mut s, off);
            s.write_result(0, off, &p).unwrap();
        }
        prop_assert!(s.is_complete());
        prop_assert_eq!(s.into_tensors_i32().unwrap(), tensors);
    }
}

// ------------------------------------------------------------ re-streaming

use std::collections::VecDeque;
use switchml_core::agg::allreduce;
use switchml_core::config::Protocol;
use switchml_core::packet::PacketView;
use switchml_core::switch::reliable::ReliableSwitch;
use switchml_core::switch::WireAction;
use switchml_core::worker::engine::SendDescriptor;
use switchml_core::worker::Worker;

/// Worker `w`'s update: two tensors, `split` and `elems - split` long.
fn restream_input(w: usize, elems: usize, split: usize) -> Vec<Vec<f32>> {
    let t: Vec<f32> = (0..elems)
        .map(|i| ((w * 13 + i * 7) % 23) as f32 * 0.25 - 2.5)
        .collect();
    vec![t[..split].to_vec(), t[split..].to_vec()]
}

/// The update as NativeInt32 streams it: the values scaled by 4.
fn as_ints(tensors: &[Vec<f32>]) -> Vec<Vec<i32>> {
    (tensors.iter())
        .map(|t| t.iter().map(|&x| (x * 4.0) as i32).collect())
        .collect()
}

/// A stream over `tensors` in `mode`.
fn restream_stream(mode: NumericMode, tensors: Vec<Vec<f32>>, k: usize) -> TensorStream {
    match mode {
        NumericMode::NativeInt32 => TensorStream::from_i32(as_ints(&tensors), k).unwrap(),
        _ => TensorStream::from_f32(tensors, mode, 16.0, k).unwrap(),
    }
}

/// A tiny deterministic generator for the delivery schedule.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n.max(1)
    }
}

/// Packets in flight: updates reach the switch in the order they were
/// sent (a stale update two phases late would alias a live pool
/// version, which SwitchML's network model rules out); results reach
/// their worker in any order.
#[derive(Default)]
struct Flight {
    up: VecDeque<Vec<u8>>,
    down: Vec<(usize, Vec<u8>)>,
}

/// `w`'s update frames for `descs`.
fn frames(w: &mut Worker, descs: Vec<SendDescriptor>) -> Vec<Vec<u8>> {
    (descs.into_iter())
        .map(|d| {
            let mut frame = Vec::new();
            w.encode_update(d, &mut frame).unwrap();
            frame
        })
        .collect()
}

/// Drive `workers` through `switch`, delivering results in a random
/// order and dropping about `drop_pct` % of them, retransmitting on
/// timeout, for up to `steps` deliveries (`None`: until every worker is
/// done).
fn drive(
    workers: &mut [Worker],
    switch: &mut ReliableSwitch,
    rng: &mut Lcg,
    drop_pct: usize,
    steps: Option<usize>,
) {
    let mut flight = Flight::default();
    let mut now = 0;
    for w in workers.iter_mut() {
        let descs = w.start_sends(now);
        flight.up.extend(frames(w, descs));
    }
    let mut out = Vec::new();
    let mut step = 0;
    while steps.is_none_or(|s| step < s) && !workers.iter().all(|w| w.is_done()) {
        step += 1;
        assert!(step < 1_000_000, "the run did not converge");
        let results = flight.down.len();
        if results + flight.up.len() == 0 {
            now += 1_000_000;
            for w in workers.iter_mut() {
                let descs = w.expired_sends(now);
                flight.up.extend(frames(w, descs));
            }
        } else if rng.below(results + flight.up.len()) < results {
            let (w, result) = flight.down.swap_remove(rng.below(results));
            if rng.below(100) >= drop_pct {
                let view = PacketView::parse(&result).unwrap();
                let next = workers[w].on_view(&view, now);
                flight
                    .up
                    .extend(frames(&mut workers[w], next.into_iter().collect()));
            }
        } else {
            let update = flight.up.pop_front().expect("nonempty");
            let view = PacketView::parse(&update).unwrap();
            match switch.on_view(&view, &mut out).unwrap() {
                WireAction::Multicast => flight
                    .down
                    .extend((0..workers.len()).map(|w| (w, out.clone()))),
                WireAction::Unicast(w) => flight.down.push((w as usize, out.clone())),
                WireAction::Drop => {}
            }
        }
    }
}

/// Quiesce `n` workers sharing one pool at a random point of a lossy,
/// reordered run, take the frontier as the intersection of their done
/// sets, re-stream everything outside it on a fresh pool, and finish.
/// Every re-streamed chunk must quantize exactly as the untouched input
/// does, and the final tensors must equal the reference bit for bit.
#[allow(clippy::too_many_arguments)]
fn restream_case(
    mode: NumericMode,
    n: usize,
    k: usize,
    pool: usize,
    elems: usize,
    split: usize,
    seed: u64,
    drop_pct: usize,
    stop: usize,
) -> Result<(), String> {
    let proto = Protocol {
        n_workers: n,
        k,
        pool_size: pool,
        rto_ns: 1_000_000,
        scaling_factor: 16.0,
        mode,
        ..Protocol::default()
    };
    let split = split % (elems + 1);
    let inputs: Vec<Vec<Vec<f32>>> = (0..n).map(|w| restream_input(w, elems, split)).collect();
    let mut workers: Vec<Worker> = (inputs.iter().enumerate())
        .map(|(w, t)| Worker::new(w as u16, &proto, restream_stream(mode, t.clone(), k)).unwrap())
        .collect();
    let mut rng = Lcg(seed);
    let mut switch = ReliableSwitch::new(&proto).unwrap();
    drive(&mut workers, &mut switch, &mut rng, drop_pct, Some(stop));

    let chunks = elems.div_ceil(k) as u64;
    let frontier: Vec<bool> = (0..chunks)
        .map(|c| workers.iter().all(|w| w.stream().chunk_is_done(c)))
        .collect();
    let mut resumed = Vec::new();
    for (w, worker) in workers.into_iter().enumerate() {
        let mut stream = worker.into_stream();
        for c in (0..chunks).filter(|&c| !frontier[c as usize]) {
            stream.mark_undone(c).unwrap();
        }
        let mut pristine = restream_stream(mode, inputs[w].clone(), k);
        for c in stream.undone_chunks() {
            prop_assert_eq!(
                chunk_at(&mut stream, c * k as u64),
                chunk_at(&mut pristine, c * k as u64),
                "worker {} chunk {}",
                w,
                c
            );
        }
        resumed.push(Worker::resume(w as u16, &proto, stream, 1).unwrap());
    }
    let mut switch = ReliableSwitch::new(&proto).unwrap();
    drive(&mut resumed, &mut switch, &mut rng, drop_pct, None);

    prop_assert!(resumed.iter().all(|w| w.is_done()));
    if mode == NumericMode::NativeInt32 {
        let mut sum = as_ints(&inputs[0]);
        for t in &inputs[1..] {
            for (acc, x) in sum.iter_mut().flatten().zip(as_ints(t).iter().flatten()) {
                *acc += x;
            }
        }
        for (w, worker) in resumed.into_iter().enumerate() {
            let got = worker.into_stream().into_tensors_i32().unwrap();
            prop_assert_eq!(&got, &sum, "worker {}", w);
        }
    } else {
        let reference = allreduce(&inputs, &proto).unwrap();
        for (w, worker) in resumed.into_iter().enumerate() {
            prop_assert_eq!(&worker.into_results(1).unwrap(), &reference, "worker {}", w);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Re-streaming after a quiesce at a random point of a lossy,
    /// reordered run, in every numeric mode (see [`restream_case`]).
    #[test]
    fn restreaming_restores_the_input_and_finishes_exactly(
        n in 2usize..=4,
        k in 1usize..6,
        pool in 1usize..5,
        elems in 1usize..90,
        split in 0usize..90,
        seed in any::<u64>(),
        drop_pct in 0usize..40,
        stop in 0usize..400,
    ) {
        for mode in [NumericMode::Fixed32, NumericMode::Float16, NumericMode::NativeInt32] {
            restream_case(mode, n, k, pool, elems, split, seed, drop_pct, stop)?;
        }
    }
}
