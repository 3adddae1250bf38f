//! Property-based tests of the core protocol invariants.
//!
//! These attack the switch and worker state machines directly (below
//! the harness level): arbitrary packet interleavings, duplicate
//! storms, and randomized slot schedules must never break the §3.5
//! invariants.

use proptest::prelude::*;
use switchml_core::config::Protocol;
use switchml_core::error::Result;
use switchml_core::packet::{Packet, PacketKind, PacketView, Payload, PoolVersion};
use switchml_core::quant::f16::{f16_to_f32, f32_to_f16};
use switchml_core::switch::basic::BasicSwitch;
use switchml_core::switch::reliable::ReliableSwitch;
use switchml_core::switch::{SwitchAction, WireAction};
use switchml_core::worker::engine::{EngineConfig, ResultOutcome, SlotEngine};

fn proto(n: usize, k: usize, s: usize) -> Protocol {
    Protocol {
        n_workers: n,
        k,
        pool_size: s,
        ..Protocol::default()
    }
}

fn upd(wid: u16, ver: PoolVersion, idx: u32, off: u64, v: Vec<i32>) -> Packet {
    Packet {
        kind: PacketKind::Update,
        wid,
        ver,
        idx,
        off,
        job: 0,
        epoch: 0,
        retransmission: false,
        payload: Payload::I32(v),
    }
}

/// Run hand-built update `p` through a switch's wire ingress
/// (`on_view`); the response it encoded, decoded.
fn feed(
    p: Packet,
    on_view: impl FnOnce(&PacketView<'_>, &mut Vec<u8>) -> Result<WireAction>,
) -> Result<SwitchAction> {
    let frame = p.encode();
    let mut out = Vec::new();
    Ok(match on_view(&PacketView::parse(&frame)?, &mut out)? {
        WireAction::Drop => SwitchAction::Drop,
        WireAction::Multicast => SwitchAction::Multicast(Packet::decode(&out)?),
        WireAction::Unicast(w) => SwitchAction::Unicast(w, Packet::decode(&out)?),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Algorithm 1: the aggregate is independent of arrival order
    /// (commutativity/associativity, the property §3.3 relies on).
    #[test]
    fn basic_switch_order_independent(
        values in prop::collection::vec(-1000i32..1000, 2..8),
        perm_seed in any::<u64>(),
    ) {
        let n = values.len();
        let p = proto(n, 1, 1);
        // Identity order.
        let mut sw1 = BasicSwitch::new(&p).unwrap();
        let mut out1 = None;
        for (w, &v) in values.iter().enumerate() {
            if let SwitchAction::Multicast(r) =
                feed(upd(w as u16, PoolVersion::V0, 0, 0, vec![v]), |view, out| sw1.on_view(view, out)).unwrap()
            {
                out1 = Some(r.payload);
            }
        }
        // Pseudo-random permutation.
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = perm_seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut sw2 = BasicSwitch::new(&p).unwrap();
        let mut out2 = None;
        for &w in &order {
            if let SwitchAction::Multicast(r) =
                feed(upd(w as u16, PoolVersion::V0, 0, 0, vec![values[w]]), |view, out| sw2.on_view(view, out)).unwrap()
            {
                out2 = Some(r.payload);
            }
        }
        prop_assert_eq!(out1, out2);
    }

    /// Algorithm 3: duplicate storms never change the aggregate and
    /// always produce a sensible response (drop before completion,
    /// unicast result after).
    #[test]
    fn reliable_switch_idempotent_under_duplicates(
        n in 2usize..6,
        dup_pattern in prop::collection::vec((0u16..6, 0usize..10), 0..40),
    ) {
        let p = proto(n, 1, 1);
        let mut sw = ReliableSwitch::new(&p).unwrap();
        let mut result = None;
        let mut sent = vec![0usize; n];
        // First transmissions interleaved with arbitrary duplicates.
        for (w, s) in sent.iter_mut().enumerate().take(n) {
            feed(upd(w as u16, PoolVersion::V0, 0, 0, vec![w as i32 + 1]), |view, out| sw.on_view(view, out)).ok();
            *s += 1;
            for &(dw, _) in dup_pattern.iter().filter(|&&(dw, _)| (dw as usize) <= w) {
                let dw = dw as usize % (w + 1);
                match feed(upd(dw as u16, PoolVersion::V0, 0, 0, vec![dw as i32 + 1]), |view, out| sw.on_view(view, out)).unwrap() {
                    SwitchAction::Multicast(_) => prop_assert!(false, "dup completed a slot"),
                    SwitchAction::Unicast(_, r) => {
                        // Only legal once aggregation completed.
                        prop_assert!(result.is_some() || w == n - 1);
                        if let Payload::I32(v) = &r.payload {
                            prop_assert_eq!(v[0], (1..=n as i32).sum::<i32>());
                        }
                    }
                    SwitchAction::Drop => {}
                }
            }
        }
        // The last first-transmission must have completed the slot —
        // find it by replaying a known-missing worker if needed.
        let expected: i32 = (1..=n as i32).sum();
        match feed(upd(0, PoolVersion::V0, 0, 0, vec![1]), |view, out| sw.on_view(view, out)).unwrap() {
            SwitchAction::Unicast(_, r) => {
                prop_assert_eq!(r.payload, Payload::I32(vec![expected]));
                result = Some(());
            }
            other => prop_assert!(false, "expected cached result, got {:?}", other),
        }
        prop_assert!(result.is_some());
    }

    /// The worker engine visits every chunk exactly once, regardless
    /// of pool size / chunk count / shard geometry.
    #[test]
    fn engine_covers_chunks_exactly_once(
        n_slots in 1usize..20,
        n_chunks in 0u64..200,
        chunk_base in 0u64..50,
        slot_base in 0u32..10,
    ) {
        let mut e = SlotEngine::new(EngineConfig {
            wid: 0,
            k: 4,
            slot_base,
            n_slots,
            chunk_base,
            n_chunks,
            rto: None,
            rto_policy: switchml_core::config::RtoPolicy::Fixed,
        }).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut inflight = e.start(0);
        for d in &inflight {
            prop_assert!(seen.insert(d.off), "duplicate initial offset");
        }
        while let Some(d) = inflight.pop() {
            match e.on_result(d.slot, d.ver, d.off, 0).unwrap() {
                ResultOutcome::Accepted { next: Some(nd), .. } => {
                    prop_assert!(seen.insert(nd.off), "offset {} revisited", nd.off);
                    inflight.push(nd);
                }
                ResultOutcome::Accepted { next: None, .. } => {}
                ResultOutcome::Stale => prop_assert!(false, "stale in lossless run"),
            }
        }
        prop_assert!(e.is_done());
        prop_assert_eq!(seen.len() as u64, n_chunks);
        // All offsets fall in the engine's chunk range and are aligned.
        for off in seen {
            prop_assert_eq!(off % 4, 0);
            let chunk = off / 4;
            prop_assert!(chunk >= chunk_base && chunk < chunk_base + n_chunks);
        }
    }

    /// Exactly-once, forever: once a slot has been reused, duplicate
    /// result packets carrying the slot's *previous* (ver, off)
    /// descriptors must be ignored as stale — at any later point in
    /// the run, and after completion — without perturbing progress,
    /// the accept count, or the done state. This is the worker half of
    /// the §3.5 no-double-add argument: the switch's `seen` bitmap
    /// dedupes updates, the engine's (ver, off) match dedupes results.
    #[test]
    fn duplicate_results_after_slot_reuse_are_stale(
        n_slots in 1usize..6,
        n_chunks in 1u64..40,
        dup_seed in any::<u64>(),
    ) {
        let mut e = SlotEngine::new(EngineConfig {
            wid: 0,
            k: 4,
            slot_base: 0,
            n_slots,
            chunk_base: 0,
            n_chunks,
            rto: None,
            rto_policy: switchml_core::config::RtoPolicy::Fixed,
        }).unwrap();
        let mut inflight = e.start(0);
        let mut history: Vec<(u32, PoolVersion, u64)> = Vec::new();
        let mut state = dup_seed | 1;
        while let Some(d) = inflight.pop() {
            history.push((d.slot, d.ver, d.off));
            match e.on_result(d.slot, d.ver, d.off, 0).unwrap() {
                ResultOutcome::Accepted { next: Some(nd), .. } => inflight.push(nd),
                ResultOutcome::Accepted { next: None, .. } => {}
                ResultOutcome::Stale => prop_assert!(false, "fresh result marked stale"),
            }
            // Replay a pseudo-randomly chosen already-accepted result:
            // its slot has moved on (new chunk, flipped version), so
            // the duplicate must be stale and must not change state.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (slot, ver, off) = history[(state >> 33) as usize % history.len()];
            let before = e.stats();
            let done_before = e.is_done();
            prop_assert_eq!(
                e.on_result(slot, ver, off, 0).unwrap(),
                ResultOutcome::Stale,
                "replayed descriptor (slot {}, off {}) was accepted twice", slot, off
            );
            prop_assert_eq!(e.stats().results, before.results);
            prop_assert_eq!(e.stats().stale, before.stale + 1);
            prop_assert_eq!(e.is_done(), done_before);
        }
        prop_assert!(e.is_done());
        prop_assert_eq!(e.stats().results, n_chunks);
        // After completion every historical descriptor — the whole
        // run's worth of potential network duplicates — stays stale.
        for (slot, ver, off) in history {
            prop_assert_eq!(e.on_result(slot, ver, off, 0).unwrap(), ResultOutcome::Stale);
            prop_assert!(e.is_done());
        }
        prop_assert_eq!(e.stats().results, n_chunks);
    }

    /// f16 roundtrip precision: |x − f16(x)| ≤ 2^-11 · |x| for normal
    /// values (half-precision relative error bound).
    #[test]
    fn f16_relative_error_bound(x in -60000.0f32..60000.0) {
        prop_assume!(x.abs() >= 6.2e-5); // skip subnormals
        let back = f16_to_f32(f32_to_f16(x));
        let rel = ((back - x) / x).abs();
        prop_assert!(rel <= 1.0 / 2048.0 + 1e-7, "x={x} back={back} rel={rel}");
    }

    /// f16 conversion is monotone (order-preserving), which the
    /// switch-side compare-free pipeline implicitly relies on.
    #[test]
    fn f16_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let flo = f16_to_f32(f32_to_f16(lo));
        let fhi = f16_to_f32(f32_to_f16(hi));
        prop_assert!(flo <= fhi, "{lo}→{flo} vs {hi}→{fhi}");
    }

    /// Theorem 2's bound is safe for arbitrary (n, B) and tight within
    /// 2%: nudging f up by 2% overflows.
    #[test]
    fn theorem2_safe_and_tight(n in 1usize..256, b in 0.001f64..1e6) {
        use switchml_core::quant::{check_no_overflow, max_safe_factor};
        let f = max_safe_factor(n, b);
        prop_assert!(check_no_overflow(n, b, f).is_ok());
        prop_assert!(check_no_overflow(n, b, f * 1.02).is_err());
    }
}
