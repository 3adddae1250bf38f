//! Adversarial loss patterns against the full protocol.
//!
//! Random uniform loss (the paper's experiment) is the easy case;
//! these tests aim targeted drop patterns at the protocol's known
//! tricky spots: repeated losses of the same packet, loss bursts
//! concentrated on one worker or one direction, and every-other-packet
//! combs. The aggregation must stay exact in all of them.

use switchml::core::agg::{run_inprocess, HarnessConfig, Hop};
use switchml::core::config::Protocol;
use switchml::core::packet::{Packet, PacketView};

fn proto(n: usize) -> Protocol {
    Protocol {
        n_workers: n,
        k: 4,
        pool_size: 4,
        rto_ns: 100_000,
        scaling_factor: 10_000.0,
        ..Protocol::default()
    }
}

fn updates(n: usize, elems: usize) -> Vec<Vec<Vec<f32>>> {
    (0..n)
        .map(|w| {
            vec![(0..elems)
                .map(|i| (w + 1) as f32 + (i % 4) as f32 * 0.25)
                .collect()]
        })
        .collect()
}

fn check_exact(results: &[Vec<Vec<f32>>], updates: &[Vec<Vec<f32>>]) {
    let n = updates.len();
    let elems = updates[0][0].len();
    for (w, res) in results.iter().enumerate().take(n) {
        for i in 0..elems {
            let exact: f32 = updates.iter().map(|u| u[0][i]).sum();
            let got = res[0][i];
            assert!(
                (got - exact).abs() < 0.01,
                "worker {w} elem {i}: {got} vs {exact}"
            );
        }
    }
}

fn run_with<F>(n: usize, elems: usize, drop: F) -> switchml::core::agg::AllReduceOutcome
where
    F: FnMut(&PacketView<'_>, Hop) -> bool,
{
    let u = updates(n, elems);
    let harness = HarnessConfig {
        latency_ns: 1_000,
        deadline_ns: 60_000_000_000,
    };
    let out = run_inprocess(&u, &proto(n), &harness, drop).expect("protocol must converge");
    check_exact(&out.results, &u);
    out
}

#[test]
fn same_packet_lost_five_times() {
    // Worker 1's update for slot 2 is dropped on its first five
    // transmissions; only the sixth (a retransmission) gets through.
    let mut drops = 0;
    let out = run_with(3, 64, |pkt, hop| {
        if hop == Hop::Up && pkt.wid() == 1 && pkt.idx() == 2 && pkt.off() == 8 && drops < 5 {
            drops += 1;
            return true;
        }
        false
    });
    assert_eq!(drops, 5);
    assert!(out.worker_stats[1].retx >= 5);
}

#[test]
fn result_to_one_worker_always_lost_for_a_phase() {
    // Every multicast copy of slot 0's first result toward worker 0 is
    // dropped; only unicast retransmissions can save it.
    let mut dropped = 0;
    let out = run_with(3, 64, |pkt, hop| {
        if matches!(hop, Hop::Down { to: 0 }) && pkt.idx() == 0 && pkt.off() == 0 && dropped < 3 {
            dropped += 1;
            return true;
        }
        false
    });
    assert!(dropped >= 1);
    assert!(out.switch_stats.result_retx >= 1);
}

#[test]
fn one_worker_blacked_out_both_directions() {
    // Worker 2 loses its first 40 packets in each direction — a burst
    // blackout. The self-clocked system stalls (no worker can run
    // ahead more than one phase) and then recovers completely.
    let mut up_budget = 40;
    let mut down_budget = 40;
    let out = run_with(4, 128, |pkt, hop| match hop {
        Hop::Up if pkt.wid() == 2 && up_budget > 0 => {
            up_budget -= 1;
            true
        }
        Hop::Down { to: 2 } if down_budget > 0 => {
            down_budget -= 1;
            true
        }
        _ => false,
    });
    // Worker 2 must have retransmitted a lot; others mostly idle-waited.
    assert!(out.worker_stats[2].retx > 0);
}

#[test]
fn every_other_upward_packet_dropped_once() {
    // A 50% comb over first transmissions (retransmissions spared, or
    // nothing would ever converge).
    let mut parity = false;
    run_with(2, 256, |pkt, hop| {
        if hop == Hop::Up && !pkt.retransmission() {
            parity = !parity;
            return parity;
        }
        false
    });
}

#[test]
fn all_multicasts_dropped_only_unicasts_survive() {
    // Every *first* downward delivery of each result is dropped for
    // every worker; each worker must fetch every result via timeout +
    // unicast retransmission. Brutal but must converge.
    use std::collections::HashSet;
    let mut seen: HashSet<(u16, u32, u64)> = HashSet::new();
    let out = run_with(2, 64, |pkt, hop| {
        if let Hop::Down { to } = hop {
            return seen.insert((to, pkt.idx(), pkt.off()));
        }
        false
    });
    assert!(out.switch_stats.result_retx as usize >= 16);
}

#[test]
fn loss_of_retransmitted_results_too() {
    // Even the unicast recovery path gets hit: drop the first unicast
    // retransmission for each (worker, slot, phase) as well.
    use std::collections::HashMap;
    let mut down_count: HashMap<(u16, u32, u64), u32> = HashMap::new();
    run_with(2, 32, |pkt, hop| {
        if let Hop::Down { to } = hop {
            let c = down_count.entry((to, pkt.idx(), pkt.off())).or_insert(0);
            *c += 1;
            return *c <= 2; // first two deliveries (multicast + 1st unicast) die
        }
        false
    });
}

#[test]
fn worker_dies_mid_tensor_under_loss() {
    // The compound adversary: per-link loss on every worker link AND a
    // worker crash partway through the tensor. The controller must
    // detect the death through the loss, quiesce, shrink 6 → 5, and
    // the survivors must converge on a consistent tensor: every
    // element is *exactly* the quantized 6-worker sum (chunks inside
    // the frontier, aggregated before the crash) or *exactly* the
    // quantized 5-worker sum at the rescaled factor (chunks re-done
    // after the shrink).
    use switchml::core::quant::fixed::quantize_one;
    use switchml::core::quant::scaling::max_safe_factor;
    use switchml::ctrl::netsim::{run_ctrl, scenario_tensor, CtrlScenario};

    let sc = CtrlScenario {
        n_workers: 6,
        elems: 2048,
        k: 8,
        pool_size: 8,
        loss: 0.02,
        seed: 7,
        fail_worker: Some((2, 300)), // dies ~1/4 of the way through
        deadline_ms: 3_000,
        ..CtrlScenario::default()
    };
    let out = run_ctrl(&sc).unwrap();
    assert!(out.finished, "events: {:?}", out.events);
    assert_eq!(out.final_n[0], 5);
    assert!(out.events.iter().any(|e| e.contains("worker 2 dead")));
    assert!(out.results[0][2].is_none(), "the dead worker holds nothing");

    // All survivors agree bitwise.
    let got = &out.results[0][0].as_ref().expect("survivor finished")[0];
    for w in [1usize, 3, 4, 5] {
        assert_eq!(&out.results[0][w].as_ref().unwrap()[0], got, "worker {w}");
    }

    // Per-element ground truth for both epochs.
    let f6 = sc.requested_f.min(max_safe_factor(6, sc.bound));
    let f5 = out.final_f[0];
    assert_eq!(f5, sc.requested_f.min(max_safe_factor(5, sc.bound)));
    let tensors: Vec<Vec<f32>> = (0..6)
        .map(|w| scenario_tensor(w, sc.elems, sc.bound))
        .collect();
    let (mut with_dead, mut without_dead) = (0usize, 0usize);
    for i in 0..sc.elems {
        let sum6: i64 = (0..6).map(|w| quantize_one(tensors[w][i], f6) as i64).sum();
        let v6 = (sum6 as f64 / f6) as f32;
        let sum5: i64 = [0usize, 1, 3, 4, 5]
            .iter()
            .map(|&w| quantize_one(tensors[w][i], f5) as i64)
            .sum();
        let v5 = (sum5 as f64 / f5) as f32;
        if got[i] == v6 {
            with_dead += 1;
        } else if got[i] == v5 {
            without_dead += 1;
        } else {
            panic!("elem {i}: {} is neither {v6} (n=6) nor {v5} (n=5)", got[i]);
        }
    }
    // The crash really was mid-tensor: some chunks carry the dead
    // worker's contribution (frontier), some were re-aggregated.
    assert!(with_dead > 0, "frontier empty: crash was not mid-tensor");
    assert!(without_dead > 0, "nothing re-aggregated after the shrink");
}

#[test]
fn corrupted_packets_rejected_by_checksum() {
    // Corruption → checksum failure → drop; recovery identical to loss.
    // Exercised at the wire level: encode, flip a byte, decode fails.
    use switchml::core::packet::{PacketKind, Payload, PoolVersion};
    let p = Packet {
        kind: PacketKind::Update,
        wid: 1,
        ver: PoolVersion::V0,
        idx: 3,
        off: 96,
        job: 0,
        epoch: 0,
        retransmission: false,
        payload: Payload::I32(vec![7; 32]),
    };
    let mut bytes = p.encode().to_vec();
    for pos in (0..bytes.len()).step_by(7) {
        bytes[pos] ^= 0x20;
        assert!(Packet::decode(&bytes).is_err(), "flip at {pos} undetected");
        bytes[pos] ^= 0x20;
    }
    assert_eq!(Packet::decode(&bytes).unwrap(), p);
}
