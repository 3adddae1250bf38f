//! Synchronous all-reduce API and an in-process protocol harness.
//!
//! [`allreduce`] is the Gloo-style entry point the ML framework calls
//! (Appendix B: "Our implementation exposes the same synchronous
//! all-reduce interface as Gloo"): every worker contributes its set of
//! gradient tensors; every worker receives the element-wise aggregate.
//!
//! The harness runs the real switch and worker state machines over a
//! virtual clock with configurable one-way latency and a caller-
//! supplied drop function, so protocol correctness under arbitrary
//! adversarial loss patterns is testable deterministically without a
//! network. Packets travel as encoded frames through the same ingress
//! the sockets use (`PacketView::parse`, `on_view`, `encode_update`).
//! Timing-accurate evaluation lives in `switchml-netsim`.

use crate::config::{NumericMode, Protocol, TimeNs};
use crate::error::{Error, Result};
use crate::packet::{PacketView, WorkerId};
use crate::switch::reliable::ReliableSwitch;
use crate::switch::{SwitchStats, WireAction};
use crate::worker::engine::{EngineStats, SendDescriptor};
use crate::worker::stream::TensorStream;
use crate::worker::Worker;
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which direction a packet is traveling (for loss injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// Worker → switch.
    Up,
    /// Switch → one worker (`to` is that worker).
    Down { to: WorkerId },
}

/// Outcome of one in-process all-reduce.
#[derive(Debug, Clone)]
pub struct AllReduceOutcome {
    /// Per-worker aggregated tensors (all identical up to quantization
    /// determinism — they are byte-identical in fact, since every
    /// worker applies the same integer result).
    pub results: Vec<Vec<Vec<f32>>>,
    /// Per-worker protocol stats.
    pub worker_stats: Vec<EngineStats>,
    /// Switch counters.
    pub switch_stats: SwitchStats,
    /// Virtual time at completion.
    pub duration_ns: TimeNs,
}

/// In-process harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// One-way worker↔switch latency on the virtual clock.
    pub latency_ns: TimeNs,
    /// Abort if the virtual clock passes this (a loss function that
    /// drops everything would otherwise spin forever).
    pub deadline_ns: TimeNs,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            latency_ns: 1_000,
            deadline_ns: 10_000_000_000, // 10 virtual seconds
        }
    }
}

#[derive(Debug)]
struct InFlight {
    time: TimeNs,
    seq: u64,
    hop: Hop,
    /// The encoded packet, as the sockets would carry it.
    frame: Bytes,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Run the full protocol in process over a virtual clock.
///
/// `updates[w]` is worker `w`'s list of gradient tensors (all workers
/// must agree on shapes). Every packet travels as its encoded frame
/// through the switch's and the workers' wire ingress (`on_view`).
/// `drop` is consulted for every packet copy; returning `true` discards
/// it (loss injection). Lossless runs pass `|_, _| false`.
pub fn run_inprocess<F>(
    updates: &[Vec<Vec<f32>>],
    proto: &Protocol,
    harness: &HarnessConfig,
    mut drop: F,
) -> Result<AllReduceOutcome>
where
    F: FnMut(&PacketView<'_>, Hop) -> bool,
{
    proto.validate()?;
    if updates.len() != proto.n_workers {
        return Err(Error::InvalidConfig(format!(
            "expected {} workers' updates, got {}",
            proto.n_workers,
            updates.len()
        )));
    }
    let shapes: Vec<usize> = updates[0].iter().map(Vec::len).collect();
    for (w, u) in updates.iter().enumerate() {
        let s: Vec<usize> = u.iter().map(Vec::len).collect();
        if s != shapes {
            return Err(Error::InvalidConfig(format!(
                "worker {w} tensor shapes differ from worker 0"
            )));
        }
    }

    let mut workers: Vec<Worker> = updates
        .iter()
        .enumerate()
        .map(|(w, tensors)| {
            let stream = match proto.mode {
                NumericMode::NativeInt32 => {
                    return Err(Error::InvalidConfig(
                        "use run_inprocess_i32 for NativeInt32 mode".into(),
                    ))
                }
                // The caller keeps its updates: the stream aggregates
                // into a copy of them.
                _ => TensorStream::from_f32(
                    tensors.clone(),
                    proto.mode,
                    proto.scaling_factor,
                    proto.k,
                )?,
            };
            Worker::new(w as WorkerId, proto, stream)
        })
        .collect::<Result<_>>()?;
    let mut switch = ReliableSwitch::new(proto)?;

    let mut queue: BinaryHeap<Reverse<InFlight>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now: TimeNs = 0;

    let mut push = |queue: &mut BinaryHeap<Reverse<InFlight>>,
                    time: TimeNs,
                    hop: Hop,
                    frame: Bytes|
     -> Result<()> {
        if !drop(&PacketView::parse(&frame)?, hop) {
            seq += 1;
            queue.push(Reverse(InFlight {
                time,
                seq,
                hop,
                frame,
            }));
        }
        Ok(())
    };
    let encode = |w: &mut Worker, d: SendDescriptor| -> Result<Bytes> {
        let mut frame = Vec::new();
        w.encode_update(d, &mut frame)?;
        Ok(Bytes::from(frame))
    };

    for w in workers.iter_mut() {
        for d in w.start_sends(now) {
            push(&mut queue, now + harness.latency_ns, Hop::Up, encode(w, d)?)?;
        }
    }

    let mut scratch = Vec::new();
    loop {
        if workers.iter().all(|w| w.is_done()) {
            break;
        }
        // Next network event vs. next retransmission deadline.
        let next_pkt_time = queue.peek().map(|Reverse(f)| f.time);
        let next_deadline = workers.iter().filter_map(|w| w.next_deadline()).min();
        let step_to = match (next_pkt_time, next_deadline) {
            (Some(p), Some(d)) => p.min(d),
            (Some(p), None) => p,
            (None, Some(d)) => d,
            (None, None) => {
                return Err(Error::ProtocolViolation(
                    "deadlock: incomplete workers, no packets, no timers".into(),
                ))
            }
        };
        now = step_to;
        if now > harness.deadline_ns {
            return Err(Error::ProtocolViolation(format!(
                "virtual deadline exceeded at {now} ns"
            )));
        }

        // Fire expired retransmission timers first (ties: timers win so
        // a retransmission scheduled exactly at a delivery time does
        // not starve).
        for w in workers.iter_mut() {
            if w.next_deadline().is_some_and(|d| d <= now) {
                let mut resends = Vec::new();
                w.expired_into(now, &mut resends);
                for d in resends {
                    push(&mut queue, now + harness.latency_ns, Hop::Up, encode(w, d)?)?;
                }
            }
        }

        // Deliver every packet due now.
        while queue.peek().is_some_and(|Reverse(f)| f.time <= now) {
            let Reverse(flight) = queue.pop().expect("peeked");
            let view = PacketView::parse(&flight.frame)?;
            let at = now + harness.latency_ns;
            match flight.hop {
                Hop::Up => match switch.on_view(&view, &mut scratch)? {
                    WireAction::Multicast => {
                        for to in 0..proto.n_workers as u16 {
                            push(&mut queue, at, Hop::Down { to }, Bytes::from(&scratch[..]))?;
                        }
                    }
                    WireAction::Unicast(to) => {
                        push(&mut queue, at, Hop::Down { to }, Bytes::from(&scratch[..]))?;
                    }
                    WireAction::Drop => {}
                },
                Hop::Down { to } => {
                    let w = &mut workers[to as usize];
                    if let Some(d) = w.on_view(&view, now) {
                        push(&mut queue, at, Hop::Up, encode(w, d)?)?;
                    }
                }
            }
        }
    }

    let worker_stats = workers.iter().map(|w| w.stats()).collect();
    let switch_stats = switch.stats();
    let results = workers
        .into_iter()
        .map(|w| w.into_results(1))
        .collect::<Result<_>>()?;
    Ok(AllReduceOutcome {
        results,
        worker_stats,
        switch_stats,
        duration_ns: now,
    })
}

/// Lossless synchronous all-reduce: every worker's tensors are summed
/// element-wise; returns worker 0's view of the aggregate (all views
/// are identical).
pub fn allreduce(updates: &[Vec<Vec<f32>>], proto: &Protocol) -> Result<Vec<Vec<f32>>> {
    let outcome = run_inprocess(updates, proto, &HarnessConfig::default(), |_, _| false)?;
    Ok(outcome.results.into_iter().next().expect("n_workers >= 1"))
}

/// All-reduce returning the element-wise *mean* (divides by `n` at the
/// end hosts, as the switch cannot divide).
pub fn allreduce_mean(updates: &[Vec<Vec<f32>>], proto: &Protocol) -> Result<Vec<Vec<f32>>> {
    let mut sum = allreduce(updates, proto)?;
    let n = proto.n_workers as f32;
    for t in &mut sum {
        for x in t {
            *x /= n;
        }
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn make_updates(n: usize, shape: &[usize]) -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|w| {
                shape
                    .iter()
                    .enumerate()
                    .map(|(t, &len)| {
                        (0..len)
                            .map(|i| ((w + 1) as f32) * 0.5 + (t as f32) + (i as f32) * 0.01)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    fn expected_sum(updates: &[Vec<Vec<f32>>]) -> Vec<Vec<f32>> {
        let mut out: Vec<Vec<f32>> = updates[0].clone();
        for u in &updates[1..] {
            for (t, tensor) in u.iter().enumerate() {
                for (i, &x) in tensor.iter().enumerate() {
                    out[t][i] += x;
                }
            }
        }
        out
    }

    #[test]
    fn lossless_allreduce_matches_exact_sum() {
        let updates = make_updates(4, &[10, 3, 7]);
        let result = allreduce(&updates, &proto(4)).unwrap();
        let expect = expected_sum(&updates);
        for (t, tensor) in expect.iter().enumerate() {
            for (i, &x) in tensor.iter().enumerate() {
                assert!(
                    (result[t][i] - x).abs() < 4.0 / 10_000.0 + 1e-4,
                    "tensor {t} elem {i}: {} vs {x}",
                    result[t][i]
                );
            }
        }
    }

    #[test]
    fn mean_divides_by_n() {
        let updates = make_updates(2, &[4]);
        let sum = allreduce(&updates, &proto(2)).unwrap();
        let mean = allreduce_mean(&updates, &proto(2)).unwrap();
        for (s, m) in sum[0].iter().zip(&mean[0]) {
            assert!((m * 2.0 - s).abs() < 1e-6);
        }
    }

    #[test]
    fn all_workers_see_identical_results() {
        let updates = make_updates(3, &[33]);
        let outcome =
            run_inprocess(&updates, &proto(3), &HarnessConfig::default(), |_, _| false).unwrap();
        assert_eq!(outcome.results[0], outcome.results[1]);
        assert_eq!(outcome.results[1], outcome.results[2]);
        // No retransmissions in a lossless run.
        assert!(outcome.worker_stats.iter().all(|s| s.retx == 0));
        assert_eq!(outcome.switch_stats.duplicates, 0);
    }

    #[test]
    fn survives_deterministic_upward_loss() {
        let updates = make_updates(2, &[40]);
        let mut dropped = false;
        let outcome = run_inprocess(
            &updates,
            &proto(2),
            &HarnessConfig::default(),
            |pkt, hop| {
                // Drop exactly one upward packet (worker 1, slot 2, first try).
                if !dropped
                    && hop == Hop::Up
                    && pkt.wid() == 1
                    && pkt.idx() == 2
                    && !pkt.retransmission()
                {
                    dropped = true;
                    return true;
                }
                false
            },
        )
        .unwrap();
        assert!(dropped);
        let expect = expected_sum(&updates);
        for (i, &x) in expect[0].iter().enumerate() {
            assert!((outcome.results[0][0][i] - x).abs() < 0.01, "elem {i}");
        }
        // Exactly the victim retransmitted.
        assert_eq!(outcome.worker_stats[1].retx, 1);
    }

    #[test]
    fn survives_deterministic_downward_loss() {
        let updates = make_updates(2, &[40]);
        let mut dropped = false;
        let outcome = run_inprocess(
            &updates,
            &proto(2),
            &HarnessConfig::default(),
            |pkt, hop| {
                if !dropped && matches!(hop, Hop::Down { to: 0 }) && pkt.idx() == 1 {
                    dropped = true;
                    return true;
                }
                false
            },
        )
        .unwrap();
        assert!(dropped);
        // Worker 0 had to retransmit to refetch the result; switch
        // served it from the shadow copy.
        assert!(outcome.worker_stats[0].retx >= 1);
        assert!(outcome.switch_stats.result_retx >= 1);
        let expect = expected_sum(&updates);
        for (i, &x) in expect[0].iter().enumerate() {
            assert!((outcome.results[1][0][i] - x).abs() < 0.01);
        }
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let mut updates = make_updates(2, &[8]);
        updates[1][0].pop();
        assert!(allreduce(&updates, &proto(2)).is_err());
    }

    #[test]
    fn total_loss_hits_deadline() {
        let updates = make_updates(2, &[8]);
        let harness = HarnessConfig {
            latency_ns: 1000,
            deadline_ns: 5_000_000,
        };
        let err = run_inprocess(&updates, &proto(2), &harness, |_, _| true).unwrap_err();
        assert!(matches!(err, Error::ProtocolViolation(_)));
    }

    #[test]
    fn empty_update_completes_trivially() {
        let updates = vec![vec![], vec![]];
        let result = allreduce(&updates, &proto(2)).unwrap();
        assert!(result.is_empty());
    }
}
