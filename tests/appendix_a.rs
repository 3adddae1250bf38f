//! Appendix A's worked example, reproduced as a deterministic scripted
//! trace (the paper's Figure 9).
//!
//! Three workers, one slot `x`, loss of w3's update on the upstream
//! path (t3) and of w1's result copy on the downstream path (t7). The
//! script follows the paper's event list t0–t15 exactly and asserts
//! the switch/worker behaviour the paper describes at each step.

use switchml_core::config::Protocol;
use switchml_core::error::Result;
use switchml_core::packet::{Packet, PacketKind, PacketView, Payload, PoolVersion};
use switchml_core::switch::reliable::ReliableSwitch;
use switchml_core::switch::{SwitchAction, WireAction};

const X: u32 = 0; // the slot under study
const K: usize = 4;

fn proto() -> Protocol {
    Protocol {
        n_workers: 3,
        k: K,
        pool_size: 2,
        ..Protocol::default()
    }
}

fn update(wid: u16, ver: PoolVersion, off: u64, val: i32, retx: bool) -> Packet {
    Packet {
        kind: PacketKind::Update,
        wid,
        ver,
        idx: X,
        off,
        job: 0,
        epoch: 0,
        retransmission: retx,
        payload: Payload::I32(vec![val; K]),
    }
}

/// Deliver `p` to the switch as a frame; the response, decoded.
fn feed(sw: &mut ReliableSwitch, p: Packet) -> Result<SwitchAction> {
    let frame = p.encode();
    let mut out = Vec::new();
    Ok(match sw.on_view(&PacketView::parse(&frame)?, &mut out)? {
        WireAction::Drop => SwitchAction::Drop,
        WireAction::Multicast => SwitchAction::Multicast(Packet::decode(&out)?),
        WireAction::Unicast(w) => SwitchAction::Unicast(w, Packet::decode(&out)?),
    })
}

#[test]
fn figure9_scripted_trace() {
    let mut sw = ReliableSwitch::new(&proto()).unwrap();
    let v0 = PoolVersion::V0;
    let v1 = PoolVersion::V1;
    let off = 0u64;
    let next_off = (K * 2) as u64; // off + k·s

    // t0: w1 sends its update for slot x, offset off.
    assert_eq!(
        feed(&mut sw, update(0, v0, off, 1, false)).unwrap(),
        SwitchAction::Drop
    );
    // t1: w2 sends its update.
    assert_eq!(
        feed(&mut sw, update(1, v0, off, 2, false)).unwrap(),
        SwitchAction::Drop
    );
    // t2/t3: w3's update is lost on the upstream path — the switch
    // simply never sees it.

    // t4: w1's timeout fires; it retransmits. The switch ignores the
    // duplicate (seen bit set) and does not double-apply.
    assert_eq!(
        feed(&mut sw, update(0, v0, off, 1, true)).unwrap(),
        SwitchAction::Drop
    );
    assert_eq!(sw.stats().duplicates, 1);
    // t5: w2 retransmits; ignored likewise.
    assert_eq!(
        feed(&mut sw, update(1, v0, off, 2, true)).unwrap(),
        SwitchAction::Drop
    );
    assert_eq!(sw.stats().duplicates, 2);

    // t6: w3's retransmission finally arrives; the aggregation
    // completes and the switch multicasts the result.
    let result = match feed(&mut sw, update(2, v0, off, 3, true)).unwrap() {
        SwitchAction::Multicast(p) => p,
        other => panic!("expected multicast at t6, got {other:?}"),
    };
    assert_eq!(result.payload, Payload::I32(vec![6; K])); // 1+2+3
    assert_eq!(result.kind, PacketKind::Result);

    // t7: the response copy toward w1 is lost downstream. w2 and w3
    // receive theirs (t9, t10) and move to the next phase: same slot,
    // flipped pool version, next offset (t12, t13).
    assert_eq!(
        feed(&mut sw, update(1, v1, next_off, 20, false)).unwrap(),
        SwitchAction::Drop
    );
    assert_eq!(
        feed(&mut sw, update(2, v1, next_off, 30, false)).unwrap(),
        SwitchAction::Drop
    );

    // t8: w1, still missing its result, retransmits its *old* update
    // (slot x, version 0). The slot has become the shadow copy, but
    // the result is still there: the switch answers with a unicast
    // (t11) instead of corrupting the new phase.
    match feed(&mut sw, update(0, v0, off, 1, true)).unwrap() {
        SwitchAction::Unicast(wid, p) => {
            assert_eq!(wid, 0);
            assert_eq!(p.payload, Payload::I32(vec![6; K]));
            assert_eq!(p.ver, v0);
        }
        other => panic!("expected unicast retransmission at t8, got {other:?}"),
    }
    assert_eq!(sw.stats().result_retx, 1);

    // t14: w1 has its result now and joins the next phase; its update
    // completes the slot in pool 1 (t15), which also confirms every
    // worker received the pool-0 result — the switch flips roles again.
    let result2 = match feed(&mut sw, update(0, v1, next_off, 10, false)).unwrap() {
        SwitchAction::Multicast(p) => p,
        other => panic!("expected multicast at t15, got {other:?}"),
    };
    assert_eq!(result2.payload, Payload::I32(vec![60; K])); // 10+20+30
    assert_eq!(result2.ver, v1);
    assert_eq!(sw.stats().completions, 2);

    // Epilogue (the "safely and unambiguously confirms" property):
    // pool 0's slot can now be reused for a third phase without any
    // residue from phase 0.
    let third_off = next_off * 2;
    assert_eq!(
        feed(&mut sw, update(0, v0, third_off, 100, false)).unwrap(),
        SwitchAction::Drop
    );
    assert_eq!(
        feed(&mut sw, update(1, v0, third_off, 200, false)).unwrap(),
        SwitchAction::Drop
    );
    match feed(&mut sw, update(2, v0, third_off, 300, false)).unwrap() {
        SwitchAction::Multicast(p) => assert_eq!(p.payload, Payload::I32(vec![600; K])),
        other => panic!("{other:?}"),
    }
}

/// The same scenario driven through the full worker state machines and
/// the virtual-time harness, with the losses injected by packet
/// predicate instead of by hand — proving the end-to-end system
/// reproduces the Appendix A recovery, not just the switch half.
#[test]
fn figure9_end_to_end() {
    use switchml_core::agg::{run_inprocess, HarnessConfig, Hop};

    let updates: Vec<Vec<Vec<f32>>> = (0..3).map(|w| vec![vec![(w + 1) as f32; 16]]).collect();
    let proto = Protocol {
        n_workers: 3,
        k: 4,
        pool_size: 2,
        scaling_factor: 1000.0,
        ..Protocol::default()
    };
    let mut dropped_up = false;
    let mut dropped_down = false;
    let outcome = run_inprocess(&updates, &proto, &HarnessConfig::default(), |pkt, hop| {
        // t3: w3's first update for slot 0 lost upstream.
        if !dropped_up
            && hop == Hop::Up
            && pkt.wid() == 2
            && pkt.idx() == 0
            && !pkt.retransmission()
        {
            dropped_up = true;
            return true;
        }
        // t7: w1's result copy for slot 0 lost downstream.
        if !dropped_down && matches!(hop, Hop::Down { to: 0 }) && pkt.idx() == 0 {
            dropped_down = true;
            return true;
        }
        false
    })
    .unwrap();
    assert!(dropped_up && dropped_down);
    // Correct sums everywhere despite both loss events.
    for w in 0..3 {
        for &x in &outcome.results[w][0] {
            assert!((x - 6.0).abs() < 0.01, "worker {w} saw {x}");
        }
    }
    // The switch served at least one unicast retransmission (t11).
    assert!(outcome.switch_stats.result_retx >= 1);
    // And ignored at least one duplicate (t4/t5-style).
    assert!(outcome.switch_stats.duplicates >= 1);
}
