//! Integration tests for the built-out extensions: Appendix D masking
//! through the full lossy protocol, §6 multi-tenancy, and a
//! three-level aggregation tree (deeper than the paper's two-level
//! sketch).

use switchml::core::config::Protocol;
use switchml::core::error::Result;
use switchml::core::packet::{Packet, PacketKind, PacketView, Payload, PoolVersion};
use switchml::core::quant::masking::Masker;
use switchml::core::switch::hierarchy::{HierAction, HierarchicalSwitch, Role};
use switchml::core::switch::reliable::ReliableSwitch;
use switchml::core::switch::{SwitchAction, WireAction};
use switchml::core::worker::engine::SendDescriptor;
use switchml::core::worker::Worker;

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

/// The elements of an i32 payload.
fn values(p: &Payload) -> Vec<i32> {
    match p {
        Payload::I32(v) => v.clone(),
        other => panic!("expected an i32 payload, got {other:?}"),
    }
}

/// Appendix D masking composed with Algorithm 3's loss recovery: a
/// retransmitted masked update must not double-apply its mask (the
/// seen-bitmap guarantees each mask enters the sum exactly once, which
/// is precisely what cancellation needs).
#[test]
fn masking_survives_retransmission_and_slot_reuse() {
    let n = 3;
    let k = 4;
    let proto = Protocol {
        n_workers: n,
        k,
        pool_size: 1,
        wrapping_add: true,
        ..Protocol::default()
    };
    let mut sw = ReliableSwitch::new(&proto).unwrap();
    let seed = 0xFEED;

    let masked = |w: usize, off: u64, base: i32| -> Vec<i32> {
        let mut v = vec![base + w as i32; k];
        Masker::new(w, n, seed).mask_chunk(off, &mut v);
        v
    };
    let upd = |w: usize, ver: PoolVersion, off: u64, v: Vec<i32>| Packet {
        kind: PacketKind::Update,
        wid: w as u16,
        ver,
        idx: 0,
        off,
        job: 0,
        epoch: 0,
        retransmission: false,
        payload: Payload::I32(v),
    };

    // Phase 0 at offset 0: worker 0 "retransmits" (duplicate) before
    // completion — the duplicate's mask must be ignored.
    let v0 = PoolVersion::V0;
    feed(&mut sw, upd(0, v0, 0, masked(0, 0, 10))).unwrap();
    feed(&mut sw, upd(0, v0, 0, masked(0, 0, 10))).unwrap(); // dup
    feed(&mut sw, upd(1, v0, 0, masked(1, 0, 10))).unwrap();
    let r = match feed(&mut sw, upd(2, v0, 0, masked(2, 0, 10))).unwrap() {
        SwitchAction::Multicast(p) => values(&p.payload),
        other => panic!("{other:?}"),
    };
    // Sum of (10+w) over workers = 33 in every element; masks cancel.
    assert_eq!(r, vec![33; k]);

    // Workers 0 and 1 advance to the next phase (same slot, flipped
    // pool, fresh offsets → fresh masks). Worker 2 missed the result.
    let v1 = PoolVersion::V1;
    let off = k as u64;
    feed(&mut sw, upd(0, v1, off, masked(0, off, 100))).unwrap();
    feed(&mut sw, upd(1, v1, off, masked(1, off, 100))).unwrap();

    // Worker 2's retransmission of its phase-0 update (it never sent
    // v1 — Algorithm 4's one-phase-lag invariant) hits the shadow
    // copy: the switch serves the *unmasked* phase-0 aggregate.
    match feed(&mut sw, upd(2, v0, 0, masked(2, 0, 10))).unwrap() {
        SwitchAction::Unicast(wid, p) => {
            assert_eq!(wid, 2);
            assert_eq!(values(&p.payload), vec![33; k]);
        }
        other => panic!("{other:?}"),
    }

    // Worker 2 then joins phase 1 and completes it; masks cancel again.
    let r = match feed(&mut sw, upd(2, v1, off, masked(2, off, 100))).unwrap() {
        SwitchAction::Multicast(p) => values(&p.payload),
        other => panic!("{other:?}"),
    };
    assert_eq!(r, vec![303; k]);
}

/// Three aggregation layers: workers → leaf switches → mid switches →
/// root. The paper sketches arbitrary-depth trees ("a very large n …
/// would require a hierarchy with H > 3"); the composition rules must
/// hold at any depth.
#[test]
fn three_level_hierarchy_aggregates() {
    let k = 2;
    let proto = |n: usize| Protocol {
        n_workers: n,
        k,
        pool_size: 1,
        ..Protocol::default()
    };
    // 2 leaves per mid, 2 mids: 8 workers total, 2 per leaf.
    let mut leaves: Vec<HierarchicalSwitch> = (0..4)
        .map(|i| {
            HierarchicalSwitch::new(
                &proto(2),
                Role::Intermediate {
                    upstream_wid: (i % 2) as u16,
                },
            )
            .unwrap()
        })
        .collect();
    let mut mids: Vec<HierarchicalSwitch> = (0..2)
        .map(|i| {
            HierarchicalSwitch::new(
                &proto(2),
                Role::Intermediate {
                    upstream_wid: i as u16,
                },
            )
            .unwrap()
        })
        .collect();
    let mut root = HierarchicalSwitch::new(&proto(2), Role::Root).unwrap();

    let upd = |w: u16, val: i32| {
        Packet {
            kind: PacketKind::Update,
            wid: w,
            ver: PoolVersion::V0,
            idx: 0,
            off: 0,
            job: 0,
            epoch: 0,
            retransmission: false,
            payload: Payload::I32(vec![val; k]),
        }
        .encode()
        .to_vec()
    };
    // One hop: the frame `sw` answers `frame` with, and where it goes.
    let hop = |sw: &mut HierarchicalSwitch, frame: &[u8]| {
        let v = PacketView::parse(frame).unwrap();
        let mut out = Vec::new();
        let act = match v.kind() {
            PacketKind::Update => sw.on_update_from_below(&v, &mut out),
            PacketKind::Result => sw.on_result_from_above(&v, &mut out),
        }
        .unwrap();
        (act, out)
    };

    // Drive bottom-up by hand: each leaf gets 2 workers' updates.
    let mut to_mid: Vec<Vec<Vec<u8>>> = vec![Vec::new(), Vec::new()];
    for (li, leaf) in leaves.iter_mut().enumerate() {
        for w in 0..2u16 {
            let val = (li * 2 + w as usize + 1) as i32; // worker values 1..8
            match hop(leaf, &upd(w, val)) {
                (HierAction::SendUp, p) => to_mid[li / 2].push(p),
                (HierAction::Drop, _) => {}
                (other, _) => panic!("leaf emitted {other:?}"),
            }
        }
    }
    let mut to_root = Vec::new();
    for (mi, mid) in mids.iter_mut().enumerate() {
        for p in to_mid[mi].drain(..) {
            match hop(mid, &p) {
                (HierAction::SendUp, p) => to_root.push(p),
                (HierAction::Drop, _) => {}
                (other, _) => panic!("mid emitted {other:?}"),
            }
        }
    }
    let mut down = Vec::new();
    for p in to_root {
        match hop(&mut root, &p) {
            (HierAction::MulticastDown, p) => down.push(p),
            (HierAction::Drop, _) => {}
            (other, _) => panic!("root emitted {other:?}"),
        }
    }
    assert_eq!(down.len(), 1, "root multicasts once");
    // 1+2+…+8 = 36.
    let sum = |frame: &[u8]| values(&Packet::decode(frame).unwrap().payload);
    assert_eq!(sum(&down[0]), vec![36; k]);

    // Results cascade down: mids re-multicast, then leaves.
    let mut to_leaves = Vec::new();
    for mid in mids.iter_mut() {
        match hop(mid, &down[0]) {
            (HierAction::MulticastDown, p) => to_leaves.push(p),
            (other, _) => panic!("{other:?}"),
        }
    }
    assert_eq!(to_leaves.len(), 2);
    for (li, leaf) in leaves.iter_mut().enumerate() {
        let (act, p) = hop(leaf, &to_leaves[li / 2]);
        assert_eq!(act, HierAction::MulticastDown);
        assert_eq!(sum(&p), vec![36; k]);
    }
}

/// Two tenants share a switch through the §6 admission mechanism while
/// the full worker machinery drives one of them.
#[test]
fn multijob_isolation_under_protocol_traffic() {
    use switchml::core::switch::multijob::MultiJobSwitch;
    use switchml::core::switch::pipeline::PipelineModel;
    use switchml::core::worker::stream::TensorStream;

    let proto_a = Protocol {
        n_workers: 2,
        k: 4,
        pool_size: 4,
        scaling_factor: 100.0,
        ..Protocol::default()
    };
    let proto_b = Protocol {
        n_workers: 3,
        k: 4,
        pool_size: 4,
        ..Protocol::default()
    };
    let mut sw = MultiJobSwitch::new(PipelineModel::default());
    sw.admit(1, &proto_a).unwrap();
    sw.admit(2, &proto_b).unwrap();

    // Job 1: full worker state machines (job id stamped on packets).
    let mk = |w: u16| {
        let data = vec![w as f32 + 1.0; 16];
        let stream =
            TensorStream::from_f32(vec![data], proto_a.mode, proto_a.scaling_factor, proto_a.k)
                .unwrap();
        Worker::new(w, &proto_a, stream).unwrap()
    };
    let mut workers = [mk(0), mk(1)];
    let mut inflight: Vec<Vec<u8>> = Vec::new();
    for w in workers.iter_mut() {
        w.set_job(1);
        let descs = w.start_sends(0);
        inflight.extend(frames(w, descs));
    }
    // Interleave a job-2 packet mid-stream; it must not disturb job 1.
    let mut j2 = Packet::update(0, PoolVersion::V0, 0, 0, vec![9; 4]);
    j2.job = 2;
    let mut out = Vec::new();
    let j2 = j2.encode();
    sw.on_view(&PacketView::parse(&j2).unwrap(), &mut out)
        .unwrap();

    while let Some(frame) = inflight.pop() {
        match sw
            .on_view(&PacketView::parse(&frame).unwrap(), &mut out)
            .unwrap()
        {
            WireAction::Multicast => {
                let r = PacketView::parse(&out).unwrap();
                for w in workers.iter_mut() {
                    let next = w.on_view(&r, 0);
                    inflight.extend(frames(w, next.into_iter().collect()));
                }
            }
            WireAction::Unicast(_) => panic!("no retx expected"),
            WireAction::Drop => {}
        }
    }
    let [w0, w1] = workers;
    assert!(w0.is_done() && w1.is_done());
    let r = w0.into_results(1).unwrap();
    assert!((r[0][0] - 3.0).abs() < 0.05); // 1 + 2
    assert_eq!(sw.stats(1).unwrap().completions, 4);
    assert_eq!(sw.stats(2).unwrap().completions, 0); // job 2 still waiting
}
