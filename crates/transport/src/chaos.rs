//! Live chaos harness: scripted fault schedules against the real
//! threaded runners, with every completed run checked **bit for bit**
//! against the lossless sequential reference
//! ([`switchml_core::agg::allreduce`]).
//!
//! The harness composes two layers under a fixed seed so a schedule
//! is exactly reproducible:
//!
//! * [`FaultyPort`] — probabilistic loss / duplication / bounded
//!   reordering (reordering only on switch→worker results; holding a
//!   worker→switch update past its phase boundary would break §3.5's
//!   bounded packet-lifetime assumption — see [`crate::faulty`]).
//! * [`ScriptedPort`] — deterministic per-endpoint shaping: a fixed
//!   stall before every send (a straggler whose pipelined window
//!   drains slowly, §4.2) and/or a scripted death instant after which
//!   the endpoint neither sends nor receives (a crash, as the rest of
//!   the fabric observes it).
//!
//! The pass criterion is the paper's correctness bar: either the run
//! completes and every worker's aggregate is bit-identical to the
//! sequential reference, or the run degrades *cleanly* — a reported
//! error, never silently wrong numbers. Shrink-and-resume recovery
//! from a mid-run crash needs the control plane and lives in
//! `switchml-ctrl`; here a killed endpoint must surface as clean
//! degradation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use switchml_core::agg;
use switchml_core::config::Protocol;
use switchml_core::error::{Error, Result};

use crate::faulty::{FaultyConfig, FaultyPort, FaultyStats};
use crate::port::{BurstBuf, Port, PortStats};
use crate::runner::RunReport;

/// When a scripted kill takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillAt {
    /// The endpoint goes silent this long into the run — a crash at a
    /// wall-clock instant.
    Elapsed(Duration),
    /// The endpoint dies after completing this many sends — "kill at
    /// chunk N" expressed in the unit the schedule can count
    /// deterministically (data-plane transmissions), independent of
    /// machine speed.
    AfterSends(u64),
}

/// One scripted fault schedule. Everything is a pure function of the
/// spec (including `seed`), so a failing schedule replays exactly.
#[derive(Debug, Clone, Default)]
pub struct ChaosSpec {
    /// Seed for the probabilistic fault layer.
    pub seed: u64,
    /// Probabilistic faults. Applied as-is to switch-side endpoints;
    /// worker endpoints run with `reorder` forced to zero (§3.5).
    pub fault: FaultyConfig,
    /// `(endpoint, stall)` pairs: delay every send from these
    /// endpoints by `stall` — stragglers.
    pub stragglers: Vec<(usize, Duration)>,
    /// `(endpoint, when)` pairs: each endpoint goes silent at `when`
    /// and stays silent — a crash, as the fabric observes it.
    pub kills: Vec<(usize, KillAt)>,
}

impl ChaosSpec {
    /// A spec with this seed and no faults.
    pub fn seeded(seed: u64) -> Self {
        ChaosSpec {
            seed,
            ..ChaosSpec::default()
        }
    }
}

/// Deterministic per-endpoint behavior shaping (the scripted half of
/// a chaos schedule): see [`ChaosSpec::stragglers`] / [`ChaosSpec::kills`].
pub struct ScriptedPort<P: Port> {
    inner: P,
    stall: Duration,
    death: Option<KillAt>,
    sends: u64,
    t0: Instant,
}

impl<P: Port> ScriptedPort<P> {
    pub fn new(inner: P, stall: Duration, death: Option<KillAt>) -> Self {
        ScriptedPort {
            inner,
            stall,
            death,
            sends: 0,
            t0: Instant::now(),
        }
    }

    fn dead(&self) -> bool {
        match self.death {
            None => false,
            Some(KillAt::Elapsed(d)) => self.t0.elapsed() >= d,
            Some(KillAt::AfterSends(n)) => self.sends >= n,
        }
    }
}

impl<P: Port> Port for ScriptedPort<P> {
    fn n_endpoints(&self) -> usize {
        self.inner.n_endpoints()
    }

    fn index(&self) -> usize {
        self.inner.index()
    }

    fn send(&mut self, to: usize, data: &[u8]) {
        if self.dead() {
            return;
        }
        if !self.stall.is_zero() {
            std::thread::sleep(self.stall);
        }
        self.inner.send(to, data);
        self.sends += 1;
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        if self.dead() {
            // A crashed endpoint hears nothing; sleep out the wait so
            // the driving thread does not spin.
            std::thread::sleep(timeout);
            return None;
        }
        self.inner.recv_timeout(timeout)
    }

    // Bursts stay bursts wherever there is nothing to shape: only a
    // straggler pays (its stall) frame by frame. A scripted death is
    // still exact — `AfterSends(n)` lets precisely the frames before
    // the n-th out of a burst it lands in — and a dead endpoint hears
    // nothing, whichever receive it is parked in.

    fn send_batch(&mut self, dests: &[usize], frames: &[Vec<u8>]) {
        debug_assert_eq!(dests.len(), frames.len());
        if !self.stall.is_zero() {
            for (&to, frame) in dests.iter().zip(frames) {
                self.send(to, frame);
            }
            return;
        }
        let live = match self.death {
            _ if self.dead() => 0,
            Some(KillAt::AfterSends(n)) => ((n - self.sends) as usize).min(frames.len()),
            _ => frames.len(),
        };
        if live > 0 {
            self.inner.send_batch(&dests[..live], &frames[..live]);
            self.sends += live as u64;
        }
    }

    fn recv_batch(&mut self, bufs: &mut BurstBuf, timeout: Duration) -> usize {
        if self.dead() {
            bufs.clear();
            std::thread::sleep(timeout);
            return 0;
        }
        self.inner.recv_batch(bufs, timeout)
    }

    fn stats(&self) -> PortStats {
        self.inner.stats()
    }

    fn timeout_granule(&self) -> Option<Duration> {
        self.inner.timeout_granule()
    }
}

/// The fully shaped port type a chaos run drives.
pub type ChaosPort<P> = FaultyPort<ScriptedPort<P>>;

/// Wrap a fabric in the schedule's two fault layers. Endpoints
/// `0..n_switch_endpoints` are switch-side (shard ports in a sharded
/// fabric) and receive the full fault config; the rest are workers
/// and never reorder their (update) sends.
pub fn chaos_fabric<P: Port>(
    ports: Vec<P>,
    n_switch_endpoints: usize,
    spec: &ChaosSpec,
) -> (Vec<ChaosPort<P>>, Arc<FaultyStats>) {
    let worker_cfg = FaultyConfig {
        reorder: 0.0,
        ..spec.fault
    };
    wrap_fabric(ports, n_switch_endpoints, spec, worker_cfg)
}

fn wrap_fabric<P: Port>(
    ports: Vec<P>,
    n_switch_endpoints: usize,
    spec: &ChaosSpec,
    worker_cfg: FaultyConfig,
) -> (Vec<ChaosPort<P>>, Arc<FaultyStats>) {
    let stats = Arc::new(FaultyStats::default());
    let wrapped = ports
        .into_iter()
        .enumerate()
        .map(|(i, port)| {
            let stall = spec
                .stragglers
                .iter()
                .find(|(ep, _)| *ep == i)
                .map_or(Duration::ZERO, |&(_, d)| d);
            let die_after = spec
                .kills
                .iter()
                .find(|(ep, _)| *ep == i)
                .map(|&(_, when)| when);
            let cfg = if i < n_switch_endpoints {
                spec.fault
            } else {
                worker_cfg
            };
            // An endpoint the plan does not reshape keeps its bursts:
            // `FaultyPort`'s per-frame receive loop ends every burst
            // with a zero-timeout scalar receive, which a UDP port can
            // only serve by sleeping out a receive timeout.
            FaultyPort::new(
                ScriptedPort::new(port, stall, die_after),
                cfg.batched_where_possible(),
                spec.seed.wrapping_add(i as u64),
                Arc::clone(&stats),
            )
        })
        .collect();
    (wrapped, stats)
}

/// Variant for controller-managed runs: probabilistic faults apply
/// only to the first `n_switch_endpoints` endpoints, so every
/// data-plane packet still crosses a faulty link while
/// worker↔controller control traffic (heartbeats, `Start`,
/// `Reconfigure`) stays reliable — the paper's control channel is an
/// ordinary reliable RPC, not the lossy aggregation path. Scripted
/// stragglers and kills still apply to any endpoint.
pub fn chaos_fabric_data_plane<P: Port>(
    ports: Vec<P>,
    n_switch_endpoints: usize,
    spec: &ChaosSpec,
) -> (Vec<ChaosPort<P>>, Arc<FaultyStats>) {
    wrap_fabric(ports, n_switch_endpoints, spec, FaultyConfig::default())
}

/// How a chaos run ended. Both variants are *passes*; the harness
/// fails (returns `Err`) only on silent corruption — a completed run
/// whose numbers differ from the sequential reference.
#[derive(Debug)]
pub enum ChaosOutcome {
    /// The run completed and every worker's aggregate is bit-identical
    /// to the lossless sequential reference. Boxed: a `RunReport`
    /// carries every per-endpoint counter and dwarfs the error arm.
    BitIdentical(Box<RunReport>),
    /// The schedule made completion impossible (e.g. a killed
    /// endpoint on the plain data plane) and the runner reported it
    /// instead of delivering wrong numbers.
    CleanDegradation(Error),
}

fn verify_bit_identical(report: RunReport, reference: &[Vec<f32>]) -> Result<ChaosOutcome> {
    for (w, tensors) in report.results.iter().enumerate() {
        for (t, (got, want)) in tensors.iter().zip(reference).enumerate() {
            if got.len() != want.len() {
                return Err(Error::ProtocolViolation(format!(
                    "chaos: worker {w} tensor {t}: length {} vs reference {}",
                    got.len(),
                    want.len()
                )));
            }
            for (i, (a, b)) in got.iter().zip(want).enumerate() {
                if a.to_bits() != b.to_bits() {
                    return Err(Error::ProtocolViolation(format!(
                        "chaos: worker {w} tensor {t} elem {i}: {a} (0x{:08x}) \
                         differs from reference {b} (0x{:08x})",
                        a.to_bits(),
                        b.to_bits()
                    )));
                }
            }
        }
    }
    Ok(ChaosOutcome::BitIdentical(Box::new(report)))
}

/// Run one all-reduce under `spec` and hold the result to the
/// bit-identical-or-clean-degradation bar. `runner` is any of the
/// crate's runners closed over its config — e.g.
/// `|p, u| run_allreduce_reactor(p, u, &proto, &cfg, threads)` — and
/// `n_switch_endpoints` says how many leading endpoints of `ports` are
/// switch-side for that runner's layout (1 for the plain runner,
/// `cfg.n_cores` shards on a sharded fabric).
pub fn run_chaos<P: Port + 'static>(
    ports: Vec<P>,
    n_switch_endpoints: usize,
    updates: Vec<Vec<Vec<f32>>>,
    proto: &Protocol,
    spec: &ChaosSpec,
    runner: impl FnOnce(Vec<ChaosPort<P>>, Vec<Vec<Vec<f32>>>) -> Result<RunReport>,
) -> Result<ChaosOutcome> {
    let reference = agg::allreduce(&updates, proto)?;
    let (ports, _stats) = chaos_fabric(ports, n_switch_endpoints, spec);
    match runner(ports, updates) {
        Ok(report) => verify_bit_identical(report, &reference),
        Err(e) => Ok(ChaosOutcome::CleanDegradation(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_fabric;
    use crate::reactor::run_allreduce_reactor;
    use crate::runner::{run_allreduce, RunConfig};
    use crate::shard::{run_allreduce_sharded, sharded_channel_fabric};

    fn proto(n: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k: 8,
            pool_size: 16,
            rto_ns: 2_000_000,
            scaling_factor: 10_000.0,
            ..Protocol::default()
        }
    }

    fn updates(n: usize, elems: usize) -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|w| {
                vec![(0..elems)
                    .map(|i| (w + 1) as f32 + (i % 5) as f32 * 0.1)
                    .collect()]
            })
            .collect()
    }

    fn chaos_spec(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            fault: FaultyConfig {
                send_drop: 0.03,
                recv_drop: 0.03,
                dup: 0.05,
                reorder: 0.1,
                reorder_span: 3,
                max_held: 8,
                ..FaultyConfig::default()
            },
            ..ChaosSpec::default()
        }
    }

    #[test]
    fn chaos_run_is_bit_identical_to_reference() {
        let n = 3;
        let out = run_chaos(
            channel_fabric(n + 1),
            1,
            updates(n, 400),
            &proto(n),
            &chaos_spec(42),
            |p, u| run_allreduce(p, u, &proto(n), &RunConfig::default()),
        )
        .unwrap();
        let ChaosOutcome::BitIdentical(report) = out else {
            panic!("schedule should complete: {out:?}");
        };
        assert!(report.transport_stats.injected_faults() > 0);
    }

    #[test]
    fn sharded_chaos_with_straggler_is_bit_identical() {
        let n = 2;
        let cores = 2;
        let cfg = RunConfig {
            n_cores: cores,
            ..RunConfig::default()
        };
        let spec = ChaosSpec {
            // Worker 0's core 0 endpoint (shards occupy 0..cores).
            stragglers: vec![(cores, Duration::from_micros(20))],
            ..chaos_spec(7)
        };
        let out = run_chaos(
            sharded_channel_fabric(n, cores),
            cores,
            updates(n, 512),
            &proto(n),
            &spec,
            |p, u| run_allreduce_sharded(p, u, &proto(n), &cfg),
        )
        .unwrap();
        let ChaosOutcome::BitIdentical(report) = out else {
            panic!("schedule should complete: {out:?}");
        };
        assert!(report.transport_stats.injected_faults() > 0);
    }

    /// A worker killed on the plain data plane (no control plane to
    /// shrink the job) must surface as a reported error — never as a
    /// completed run with wrong numbers.
    #[test]
    fn killed_endpoint_degrades_cleanly() {
        let n = 3;
        let cfg = RunConfig {
            max_wall: Duration::from_millis(400),
            ..RunConfig::default()
        };
        let spec = ChaosSpec {
            kills: vec![(1, KillAt::Elapsed(Duration::from_millis(5)))], // worker 0
            ..chaos_spec(9)
        };
        let out = run_chaos(
            channel_fabric(n + 1),
            1,
            updates(n, 8192),
            &proto(n),
            &spec,
            |p, u| run_allreduce(p, u, &proto(n), &cfg),
        )
        .unwrap();
        assert!(
            matches!(out, ChaosOutcome::CleanDegradation(_)),
            "a dead worker cannot complete without the control plane: {out:?}"
        );
    }

    /// `KillAt::AfterSends` pins a crash to a deterministic point in
    /// the packet schedule ("kill at chunk N"): the worker dies after
    /// its Nth transmission no matter how fast the machine is, and the
    /// plain data plane must degrade cleanly.
    #[test]
    fn kill_after_n_sends_degrades_cleanly() {
        let n = 3;
        let cfg = RunConfig {
            max_wall: Duration::from_millis(400),
            ..RunConfig::default()
        };
        let spec = ChaosSpec {
            kills: vec![(1, KillAt::AfterSends(40))], // worker 0, mid-tensor
            ..ChaosSpec::seeded(9)
        };
        let out = run_chaos(
            channel_fabric(n + 1),
            1,
            updates(n, 8192),
            &proto(n),
            &spec,
            |p, u| run_allreduce(p, u, &proto(n), &cfg),
        )
        .unwrap();
        assert!(
            matches!(out, ChaosOutcome::CleanDegradation(_)),
            "a dead worker cannot complete without the control plane: {out:?}"
        );
    }

    /// The reactor runner under the same probabilistic schedule as the
    /// threaded runners: bit-identical or nothing.
    #[test]
    fn reactor_chaos_is_bit_identical() {
        let n = 3;
        let cfg = RunConfig {
            n_cores: 1,
            ..RunConfig::default()
        };
        let out = run_chaos(
            sharded_channel_fabric(n, 1),
            1,
            updates(n, 400),
            &proto(n),
            &chaos_spec(42),
            |p, u| run_allreduce_reactor(p, u, &proto(n), &cfg, 2),
        )
        .unwrap();
        let ChaosOutcome::BitIdentical(report) = out else {
            panic!("schedule should complete: {out:?}");
        };
        assert!(report.transport_stats.injected_faults() > 0);
        assert!(report.reactor.is_some());
    }

    /// Send 300 numbered frames from endpoint 1 to endpoint 0 of a
    /// two-port chaos fabric — as bursts of ten (`batched`) or one
    /// `send` per frame — and return what arrives, in order.
    fn sent_through(spec: &ChaosSpec, batched: bool) -> (Vec<u16>, PortStats) {
        use crate::port::TxBatch;
        let (mut ports, _) = chaos_fabric(channel_fabric(2), 1, spec);
        let mut tx = ports.pop().unwrap();
        let mut rx = ports.pop().unwrap();
        let mut batch = TxBatch::new(4);
        for i in 0..300u16 {
            if batched {
                batch.push(0).extend_from_slice(&i.to_be_bytes());
                if batch.len() == 10 {
                    batch.flush(&mut tx);
                }
            } else {
                tx.send(0, &i.to_be_bytes());
            }
        }
        let mut bufs = BurstBuf::new(16, 4);
        let mut seen = Vec::new();
        while rx.recv_batch(&mut bufs, Duration::from_millis(5)) > 0 {
            seen.extend(bufs.iter().map(|(_, f)| u16::from_be_bytes([f[0], f[1]])));
        }
        (seen, tx.stats())
    }

    /// A loss-only chaos port keeps its bursts (so GSO/GRO stays on
    /// underneath) and still injects exactly the per-frame schedule:
    /// same seed, same send sequence → the same frames dropped.
    #[test]
    fn loss_only_bursts_drop_the_same_frames_as_single_sends() {
        let spec = ChaosSpec {
            fault: FaultyConfig::loss_only(0.2),
            ..ChaosSpec::seeded(77)
        };
        let (burst, burst_stats) = sent_through(&spec, true);
        let (single, single_stats) = sent_through(&spec, false);
        assert_eq!(burst, single, "drop positions differ between the two paths");
        assert_eq!(burst_stats, single_stats);
        let dropped = burst_stats.injected_send_drops;
        assert_eq!(burst.len() as u64 + dropped, 300);
        assert!((20..=120).contains(&dropped), "{dropped}");
    }

    /// `KillAt::AfterSends(n)` landing inside a burst falls on the same
    /// frame as it does frame by frame: exactly the first n leave.
    #[test]
    fn kill_after_n_sends_is_exact_mid_burst() {
        let spec = ChaosSpec {
            kills: vec![(1, KillAt::AfterSends(25))],
            ..ChaosSpec::seeded(3)
        };
        let want: Vec<u16> = (0..25).collect();
        assert_eq!(sent_through(&spec, true).0, want);
        assert_eq!(sent_through(&spec, false).0, want);
    }

    /// A straggler's stall is paid per frame, burst or not.
    #[test]
    fn straggler_stall_is_paid_per_frame_of_a_burst() {
        let stall = Duration::from_millis(2);
        let mut ports = channel_fabric(2);
        let mut rx = ports.pop().unwrap();
        let mut tx = ScriptedPort::new(ports.pop().unwrap(), stall, None);
        let frames = vec![vec![1u8]; 5];
        let t0 = Instant::now();
        tx.send_batch(&[1; 5], &frames);
        assert!(t0.elapsed() >= stall * 5, "{:?}", t0.elapsed());
        let mut bufs = BurstBuf::new(8, 4);
        assert_eq!(rx.recv_batch(&mut bufs, Duration::from_millis(50)), 5);
    }

    #[test]
    fn same_spec_same_outcome() {
        let n = 2;
        let run = || {
            let out = run_chaos(
                channel_fabric(n + 1),
                1,
                updates(n, 200),
                &proto(n),
                &chaos_spec(1234),
                |p, u| run_allreduce(p, u, &proto(n), &RunConfig::default()),
            )
            .unwrap();
            match out {
                ChaosOutcome::BitIdentical(r) => r.results,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(run(), run(), "a chaos schedule must replay exactly");
    }
}
