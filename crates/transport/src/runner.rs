//! Threaded full-system runner: one switch thread, `n` worker threads,
//! real clocks, real (or in-memory) datagrams.
//!
//! This is the deployment-shaped path: the same sans-IO state machines
//! the simulator drives, but with true parallelism and wall-clock
//! retransmission timers. The paper's equivalent is the DPDK worker
//! component + Tofino switch; here the "switch" is a thread running
//! Algorithm 3 verbatim — the same [`crate::shard`] switch loop every
//! other runner uses, as shard 0 of 1.

use crate::port::{BurstBuf, Port, PortStats, TxBatch, PARK, SWITCH_ENDPOINT};
use crate::shard::{shard_switch_loop, with_rejected};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchml_core::config::{Protocol, RtoPolicy, TimeNs};
use switchml_core::error::{Error, Result};
use switchml_core::packet::{PacketView, HEADER_LEN};
use switchml_core::switch::SwitchStats;
use switchml_core::worker::engine::{EngineStats, SendDescriptor};
use switchml_core::worker::stream::TensorStream;
use switchml_core::worker::Worker;

/// Bytes of one receive or staging frame for a run of `proto`: a data
/// frame of `k` elements, none wider than 4 bytes. Sized by the run,
/// not by `MAX_K`: a `k = 32` frame is 156 bytes where a `MAX_K` one is
/// 4 124, and every [`BurstBuf`] and [`TxBatch`] holds a burst of them.
/// The transport drops a datagram longer than its frame whole (it
/// cannot be a frame of this run) and counts it in
/// [`PortStats::send_errors`].
pub fn frame_capacity(proto: &Protocol) -> usize {
    HEADER_LEN + 4 * proto.k
}

/// Runner options.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Abort the run if it has not completed within this budget.
    pub max_wall: Duration,
    /// CPU cores per worker (engine shards).
    pub n_cores: usize,
    /// Frames per burst on the batched I/O path ([`Port::send_batch`]
    /// / [`Port::recv_batch`]). Burst receive never waits to fill the
    /// burst, so larger values amortize syscalls without adding
    /// latency; 1 degenerates to one-datagram-per-call I/O.
    pub burst: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_wall: Duration::from_secs(30),
            n_cores: 1,
            burst: 8,
        }
    }
}

/// Raise the protocol's retransmission-timeout floor to the coarsest
/// [`Port::timeout_granule`] of the fabric it is about to run on.
///
/// A UDP port's timed receive parks in `ppoll`, which wakes about 70 µs
/// past the time asked for, so an RTO below that can never fire on
/// time — the worker just spins its receive loop believing it is late.
/// Rather than let a microsecond `rto_ns` silently behave as 70 µs, the
/// runners normalize the config up front: `rto_ns` (and, for
/// [`RtoPolicy::Adaptive`], `min_ns` / `max_ns`; for
/// [`RtoPolicy::ExponentialBackoff`], `max_ns`) are raised to the
/// granule so the reported timers match the effective ones. Logged once
/// per process when a clamp actually changes something.
pub fn clamp_rto_to_granule<P: Port>(proto: &Protocol, ports: &[P]) -> Protocol {
    let Some(granule_ns) = ports
        .iter()
        .filter_map(|p| p.timeout_granule())
        .map(|d| d.as_nanos() as TimeNs)
        .max()
    else {
        return proto.clone();
    };
    let mut out = proto.clone();
    let mut clamped = false;
    if out.rto_ns < granule_ns {
        out.rto_ns = granule_ns;
        clamped = true;
    }
    match &mut out.rto_policy {
        RtoPolicy::Fixed => {}
        RtoPolicy::ExponentialBackoff { max_ns } => {
            if *max_ns < out.rto_ns {
                *max_ns = out.rto_ns;
                clamped = true;
            }
        }
        RtoPolicy::Adaptive { min_ns, max_ns } => {
            if *min_ns < granule_ns {
                *min_ns = granule_ns;
                clamped = true;
            }
            if *max_ns < out.rto_ns.max(*min_ns) {
                *max_ns = out.rto_ns.max(*min_ns);
                clamped = true;
            }
        }
    }
    if clamped {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            eprintln!(
                "switchml-transport: RTO floor clamped to the transport's \
                 {}µs receive-timeout granule (configured timers were finer \
                 than the clock can honor)",
                granule_ns / 1_000
            );
        });
    }
    out
}

/// Resolve a caller-supplied protocol into the configuration a runner
/// actually executes: validate it, then raise the RTO floor to the
/// fabric's receive-timeout granule ([`clamp_rto_to_granule`]).
///
/// Every runner entry point — [`run_allreduce_session`], the sharded
/// runner, the controlled runner, and any future multi-job scheduler
/// loop — must pass its config through here exactly once, so a new
/// entry point cannot forget the clamp and ship timers the transport
/// clock cannot honor.
pub fn resolve_run_proto<P: Port>(proto: &Protocol, ports: &[P]) -> Result<Protocol> {
    proto.validate()?;
    Ok(clamp_rto_to_granule(proto, ports))
}

/// Result of a threaded all-reduce.
#[derive(Debug)]
pub struct RunReport {
    /// Per-worker aggregated tensors (sums; identical across workers).
    pub results: Vec<Vec<Vec<f32>>>,
    pub worker_stats: Vec<EngineStats>,
    pub switch_stats: SwitchStats,
    /// Transport counters summed over every endpoint: kernel-side send
    /// failures here are invisible to `worker_stats`/`switch_stats`,
    /// which only see them as protocol loss.
    pub transport_stats: PortStats,
    /// Event-loop health counters, present for every run driven by the
    /// engine driver of [`crate::reactor`] (reactor, sharded, hier).
    pub reactor: Option<crate::reactor::ReactorStats>,
    /// Two-level tree counters, present only for hierarchical runs
    /// ([`crate::hier::run_allreduce_hier`]).
    pub hier: Option<crate::hier::HierReport>,
    pub wall: Duration,
}

/// Quantize and encode `sends` into `txb`, aimed at the switch.
pub fn stage_sends(
    worker: &mut Worker,
    sends: impl IntoIterator<Item = SendDescriptor>,
    txb: &mut TxBatch,
) -> Result<()> {
    for d in sends {
        worker.encode_update(d, txb.push(SWITCH_ENDPOINT))?;
    }
    Ok(())
}

/// The one [`Worker`]-side ingress, the mirror of
/// [`crate::shard::switch_ingress`]: parse `frame` as a borrowed
/// [`PacketView`], hand it to the worker if it is addressed to the
/// worker's wire job, and stage the follow-up update into `txb`.
/// Returns whether the frame reached the worker. Nothing that arrives
/// on the wire can fail the caller: an unparseable datagram or another
/// job's (a pre-reconfiguration epoch's) result is skipped, and
/// whatever the worker itself refuses it counts in its
/// [`EngineStats`] (`stale`, `stale_epoch`, `rejected`).
pub fn worker_ingress(
    worker: &mut Worker,
    frame: &[u8],
    now: TimeNs,
    txb: &mut TxBatch,
) -> Result<bool> {
    let Ok(view) = PacketView::parse(frame) else {
        return Ok(false); // corrupted / foreign datagram
    };
    if view.job() != worker.job() {
        return Ok(false);
    }
    let next = worker.on_view(&view, now);
    stage_sends(worker, next, txb)?;
    Ok(true)
}

/// Drive one worker until its current aggregation session completes:
/// the plain runner's configuration of the [`Worker`] wire path —
/// burst receive, every frame through [`worker_ingress`], the burst's
/// follow-ups and any expired retransmissions flushed as one batch. It
/// is the runner for *every* numeric mode and for multi-round
/// sessions, both of which live in [`Worker`]/`TensorStream`, not in
/// the Fixed32-only engine driver of [`crate::reactor`].
fn drive_worker<P: Port>(
    port: &mut P,
    worker: &mut Worker,
    burst: usize,
    frame_cap: usize,
    deadline: Instant,
    epoch: Instant,
) -> Result<()> {
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut rxb = BurstBuf::new(burst, frame_cap);
    let mut txb = TxBatch::new(frame_cap);
    let window = worker.start_sends(now_ns());
    stage_sends(worker, window, &mut txb)?;
    txb.flush(port);
    while !worker.is_done() {
        if Instant::now() > deadline {
            return Err(Error::ProtocolViolation(format!(
                "worker {} exceeded the wall-clock budget at {:.1}% progress",
                worker.wid(),
                worker.progress() * 100.0
            )));
        }
        let wait = worker
            .next_deadline()
            .map(|d| d.saturating_sub(now_ns()))
            .unwrap_or(1_000_000)
            .clamp(1, 5_000_000); // poll at least every 5 ms
        if port.recv_batch(&mut rxb, Duration::from_nanos(wait)) > 0 {
            let now = now_ns();
            for (_from, frame) in rxb.iter() {
                worker_ingress(worker, frame, now, &mut txb)?;
            }
        }
        let t = now_ns();
        if worker.next_deadline().is_some_and(|d| d <= t) {
            let resends = worker.expired_sends(t);
            stage_sends(worker, resends, &mut txb)?;
        }
        txb.flush(port);
    }
    Ok(())
}

/// Per-round aggregated tensors plus the thread's engine and port
/// counters — one worker thread's contribution to a [`SessionReport`].
type WorkerOutcome = (Vec<Vec<Vec<f32>>>, EngineStats, PortStats);

fn worker_loop<P: Port>(
    mut port: P,
    wid: u16,
    proto: &Protocol,
    rounds: &[Vec<Vec<f32>>],
    cfg: &RunConfig,
    deadline: Instant,
) -> Result<WorkerOutcome> {
    let epoch = Instant::now();
    let mk_stream = |tensors: &Vec<Vec<f32>>| {
        TensorStream::from_f32(tensors, proto.mode, proto.scaling_factor, proto.k)
    };
    let mut worker = Worker::sharded(wid, proto, mk_stream(&rounds[0])?, cfg.n_cores)?;
    let cap = frame_capacity(proto);
    let mut results = Vec::with_capacity(rounds.len());
    for tensors in rounds.iter().skip(1) {
        drive_worker(&mut port, &mut worker, cfg.burst, cap, deadline, epoch)?;
        // Continue the session against the live switch: pool-version
        // parity carries into round r (Appendix B's continuous stream
        // across iterations).
        let (res, next) = worker.into_next_session(mk_stream(tensors)?)?;
        results.push(res);
        worker = next;
    }
    drive_worker(&mut port, &mut worker, cfg.burst, cap, deadline, epoch)?;
    let stats = worker.stats();
    results.push(worker.into_results(1)?);
    Ok((results, stats, port.stats()))
}

/// Run a full synchronous all-reduce over a transport fabric.
///
/// `ports[0]` is the switch endpoint; `ports[w + 1]` is worker `w`.
/// `updates[w]` is worker `w`'s tensor set (all workers must agree on
/// shapes). Returns each worker's aggregated tensors (the element-wise
/// sum across workers).
pub fn run_allreduce<P: Port + 'static>(
    ports: Vec<P>,
    updates: Vec<Vec<Vec<f32>>>,
    proto: &Protocol,
    cfg: &RunConfig,
) -> Result<RunReport> {
    let n = updates.len();
    let rounds: Vec<Vec<Vec<Vec<f32>>>> = vec![updates];
    let mut multi = run_allreduce_session(ports, rounds, proto, cfg)?;
    debug_assert_eq!(multi.rounds.len(), 1);
    let results = multi.rounds.pop().expect("one round");
    debug_assert_eq!(results.len(), n);
    Ok(RunReport {
        results,
        worker_stats: multi.worker_stats,
        switch_stats: multi.switch_stats,
        transport_stats: multi.transport_stats,
        reactor: None,
        hier: None,
        wall: multi.wall,
    })
}

/// Result of a multi-round session ([`run_allreduce_session`]).
#[derive(Debug)]
pub struct SessionReport {
    /// `rounds[r][w]` = worker w's aggregated tensors for round r.
    pub rounds: Vec<Vec<Vec<Vec<f32>>>>,
    pub worker_stats: Vec<EngineStats>,
    pub switch_stats: SwitchStats,
    /// Transport counters summed over every endpoint.
    pub transport_stats: PortStats,
    pub wall: Duration,
}

/// Run several back-to-back all-reduces against one *persistent*
/// switch — one per training iteration, the way the paper's
/// integration streams tensors "across iterations" without resetting
/// switch state. Workers continue the pool-version parity between
/// rounds, and no barrier separates rounds: a fast worker may begin
/// round r+1 while a slow one finishes r, which the one-phase-lag
/// invariant makes safe.
///
/// `rounds[r][w]` is worker `w`'s tensor set for round `r`; every
/// round and worker must agree on shapes within the round.
pub fn run_allreduce_session<P: Port + 'static>(
    ports: Vec<P>,
    rounds: Vec<Vec<Vec<Vec<f32>>>>,
    proto: &Protocol,
    cfg: &RunConfig,
) -> Result<SessionReport> {
    let proto = &resolve_run_proto(proto, &ports)?;
    if ports.len() != proto.n_workers + 1 {
        return Err(Error::InvalidConfig(format!(
            "need {} ports (switch + workers), got {}",
            proto.n_workers + 1,
            ports.len()
        )));
    }
    if rounds.is_empty() {
        return Err(Error::InvalidConfig("need at least one round".into()));
    }
    for (r, round) in rounds.iter().enumerate() {
        if round.len() != proto.n_workers {
            return Err(Error::InvalidConfig(format!(
                "round {r}: one update set per worker"
            )));
        }
    }
    // Transpose into per-worker round sequences.
    let n = proto.n_workers;
    let mut per_worker: Vec<Vec<Vec<Vec<f32>>>> = (0..n).map(|_| Vec::new()).collect();
    for round in rounds {
        for (w, tensors) in round.into_iter().enumerate() {
            per_worker[w].push(tensors);
        }
    }

    let t0 = Instant::now();
    let deadline = t0 + cfg.max_wall;
    let stop = Arc::new(AtomicBool::new(false));

    let mut ports = ports;
    let worker_ports: Vec<P> = ports.drain(1..).collect();
    let switch_port = ports.pop().expect("switch port");

    std::thread::scope(|scope| {
        // The single switch is shard 0 of 1: `worker_core_endpoint(w,
        // 0, 1) = w + 1` is exactly `worker_endpoint(w)`.
        let switch_handle = {
            let stop = Arc::clone(&stop);
            let proto = proto.clone();
            let burst = cfg.burst;
            scope.spawn(move || {
                shard_switch_loop(switch_port, 0, 1, burst, &proto, PARK, &stop, deadline)
            })
        };

        let worker_handles: Vec<_> = worker_ports
            .into_iter()
            .zip(&per_worker)
            .enumerate()
            .map(|(wid, (port, worker_rounds))| {
                let proto = proto.clone();
                let cfg = cfg.clone();
                scope.spawn(move || {
                    worker_loop(port, wid as u16, &proto, worker_rounds, &cfg, deadline)
                })
            })
            .collect();

        let mut per_worker_results = Vec::with_capacity(n);
        let mut worker_stats = Vec::with_capacity(n);
        let mut transport_stats = PortStats::default();
        let mut first_err = None;
        for h in worker_handles {
            match h.join().expect("worker thread panicked") {
                Ok((r, s, ps)) => {
                    per_worker_results.push(r);
                    worker_stats.push(s);
                    transport_stats.merge(ps);
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        stop.store(true, Ordering::Release);
        // A parked switch never consults the idle policy: no waits.
        let (switch_stats, switch_port_stats, _) =
            switch_handle.join().expect("switch thread panicked")?;
        transport_stats.merge(switch_port_stats);
        if let Some(e) = first_err {
            return Err(with_rejected(e, &switch_stats));
        }
        // Transpose back to rounds-major.
        let n_rounds = per_worker_results[0].len();
        let mut rounds_out = Vec::with_capacity(n_rounds);
        for r in 0..n_rounds {
            rounds_out.push(
                per_worker_results
                    .iter_mut()
                    .map(|w| std::mem::take(&mut w[r]))
                    .collect(),
            );
        }
        Ok(SessionReport {
            rounds: rounds_out,
            worker_stats,
            switch_stats,
            transport_stats,
            wall: t0.elapsed(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_fabric;
    use crate::faulty::{faulty_fabric, FaultyConfig};
    use crate::udp::udp_fabric;

    fn proto(n: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k: 8,
            pool_size: 16,
            rto_ns: 2_000_000, // 2 ms real time
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

    fn expected(n: usize, elems: usize) -> Vec<f32> {
        (0..elems)
            .map(|i| (1..=n).map(|w| w as f32).sum::<f32>() + n as f32 * (i % 5) as f32 * 0.1)
            .collect()
    }

    fn check(report: &RunReport, n: usize, elems: usize) {
        let want = expected(n, elems);
        for r in &report.results {
            for (a, b) in r[0].iter().zip(&want) {
                assert!((a - b).abs() < 0.01, "{a} vs {b}");
            }
        }
    }

    /// A stand-in transport whose timed receive wakes up to 100µs late.
    struct CoarseClockPort;
    impl Port for CoarseClockPort {
        fn n_endpoints(&self) -> usize {
            1
        }
        fn index(&self) -> usize {
            0
        }
        fn send(&mut self, _to: usize, _data: &[u8]) {}
        fn recv_timeout(&mut self, _timeout: Duration) -> Option<(usize, Vec<u8>)> {
            None
        }
        fn timeout_granule(&self) -> Option<Duration> {
            Some(Duration::from_micros(100))
        }
    }

    #[test]
    fn rto_floor_clamps_to_timeout_granule() {
        let granule = 100_000; // 100µs in ns
        let fine = Protocol {
            rto_ns: 1_000, // 1µs: finer than the clock can honor
            rto_policy: RtoPolicy::Adaptive {
                min_ns: 500,
                max_ns: 20_000,
            },
            ..proto(2)
        };
        let clamped = clamp_rto_to_granule(&fine, &[CoarseClockPort]);
        assert_eq!(clamped.rto_ns, granule);
        assert_eq!(
            clamped.rto_policy,
            RtoPolicy::Adaptive {
                min_ns: granule,
                max_ns: granule,
            }
        );
        // The clamped config still passes validation (rto within
        // [min, max]).
        clamped.validate().unwrap();

        // Backoff cap below the raised floor is raised along with it.
        let backoff = Protocol {
            rto_ns: 1_000,
            rto_policy: RtoPolicy::ExponentialBackoff { max_ns: 4_000 },
            ..proto(2)
        };
        let clamped = clamp_rto_to_granule(&backoff, &[CoarseClockPort]);
        assert_eq!(clamped.rto_ns, granule);
        assert_eq!(
            clamped.rto_policy,
            RtoPolicy::ExponentialBackoff { max_ns: granule }
        );

        // Timers already coarser than the granule pass through
        // untouched, as does any config on a granule-free fabric.
        let coarse = proto(2); // 2 ms
        assert_eq!(
            clamp_rto_to_granule(&coarse, &[CoarseClockPort]).rto_ns,
            coarse.rto_ns
        );
        let ports = channel_fabric(3);
        assert_eq!(clamp_rto_to_granule(&fine, &ports).rto_ns, fine.rto_ns);
    }

    #[test]
    fn channel_allreduce_4_workers() {
        let n = 4;
        let elems = 1000;
        let ports = channel_fabric(n + 1);
        let report =
            run_allreduce(ports, updates(n, elems), &proto(n), &RunConfig::default()).unwrap();
        check(&report, n, elems);
        assert_eq!(report.worker_stats.len(), n);
        assert_eq!(report.switch_stats.completions as usize, elems.div_ceil(8));
    }

    #[test]
    fn channel_allreduce_with_loss_recovers() {
        let n = 3;
        let elems = 400;
        let (ports, stats) =
            faulty_fabric(channel_fabric(n + 1), FaultyConfig::loss_only(0.05), 99);
        let report =
            run_allreduce(ports, updates(n, elems), &proto(n), &RunConfig::default()).unwrap();
        check(&report, n, elems);
        assert!(stats.dropped() > 0, "5% loss should drop something");
        let retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
        assert!(retx > 0, "losses must trigger retransmissions");
    }

    #[test]
    fn udp_allreduce_2_workers() {
        let n = 2;
        let elems = 512;
        let ports = udp_fabric(n + 1).unwrap();
        let report =
            run_allreduce(ports, updates(n, elems), &proto(n), &RunConfig::default()).unwrap();
        check(&report, n, elems);
    }

    /// Well-formed result frames (valid magic, length, CRC, current
    /// epoch and job) no slot or chunk of the worker could have asked
    /// for: a slot past the pool, one element too many, an offset
    /// inside a chunk, an offset past the stream.
    fn hostile_results(p: &Protocol, elems: usize) -> [Vec<u8>; 4] {
        use switchml_core::packet::{Packet, PacketKind, PoolVersion};
        let result = |idx: usize, off: usize, k: usize| {
            let update = Packet::update(0, PoolVersion::V0, idx as u32, off as u64, vec![7; k]);
            Packet {
                kind: PacketKind::Result,
                ..update
            }
            .encode()
            .to_vec()
        };
        [
            result(p.pool_size, 0, p.k),
            result(0, 0, p.k + 1),
            result(0, 1, p.k),
            result(0, elems.next_multiple_of(p.k), p.k),
        ]
    }

    /// The mirror of `shard::hostile_frames_are_counted_and_dropped`
    /// for the worker side: hostile results already queued on a worker
    /// endpoint when the run starts cost one counter tick each, not the
    /// worker thread, and the all-reduce stays bit-identical to the
    /// sequential reference. The tick is the worker's `rejected`, or —
    /// for the `k + 1`-element result on a transport whose frames are
    /// sized by the run (`port_drops = 1`) — the port's `send_errors`.
    fn hostile_results_are_counted_and_dropped<P: Port + 'static>(
        mut ports: Vec<P>,
        port_drops: u64,
    ) {
        let n = 3;
        let elems = 333;
        let p = proto(n);
        let reference = switchml_core::agg::allreduce(&updates(n, elems), &p).unwrap();
        let hostile = hostile_results(&p, elems);
        for frame in &hostile {
            ports[SWITCH_ENDPOINT].send(crate::port::worker_endpoint(1), frame);
        }
        let report = run_allreduce(ports, updates(n, elems), &p, &RunConfig::default()).unwrap();
        for (w, stats) in report.worker_stats.iter().enumerate() {
            assert_eq!(report.results[w], reference, "worker {w}");
            let want = if w == 1 {
                hostile.len() as u64 - port_drops
            } else {
                0
            };
            assert_eq!(stats.rejected, want, "worker {w}");
        }
        assert_eq!(report.transport_stats.send_errors, port_drops);
    }

    #[test]
    fn channel_hostile_results_are_counted_and_dropped() {
        hostile_results_are_counted_and_dropped(channel_fabric(4), 0);
    }

    #[test]
    fn udp_hostile_results_are_counted_and_dropped() {
        hostile_results_are_counted_and_dropped(udp_fabric(4).unwrap(), 1);
    }

    #[test]
    fn sharded_workers_over_channels() {
        let n = 2;
        let elems = 2048;
        let ports = channel_fabric(n + 1);
        let cfg = RunConfig {
            n_cores: 4,
            ..RunConfig::default()
        };
        let report = run_allreduce(ports, updates(n, elems), &proto(n), &cfg).unwrap();
        check(&report, n, elems);
    }

    #[test]
    fn misconfiguration_rejected() {
        let ports = channel_fabric(3);
        assert!(run_allreduce(ports, updates(3, 8), &proto(3), &RunConfig::default()).is_err());
        let ports = channel_fabric(4);
        assert!(run_allreduce(ports, updates(2, 8), &proto(3), &RunConfig::default()).is_err());
    }

    #[test]
    fn multi_round_session_against_persistent_switch() {
        // Three back-to-back all-reduces through ONE switch whose pool
        // state persists; pool-version parity must carry across rounds
        // or the switch would treat round 2's updates as duplicates.
        let n = 3;
        let elems = 100; // odd chunk count → mixed slot parities
        let p = proto(n);
        let rounds: Vec<Vec<Vec<Vec<f32>>>> = (0..3)
            .map(|r| {
                (0..n)
                    .map(|w| vec![vec![(r * 10 + w + 1) as f32; elems]])
                    .collect()
            })
            .collect();
        let ports = channel_fabric(n + 1);
        let report = run_allreduce_session(ports, rounds, &p, &RunConfig::default()).unwrap();
        assert_eq!(report.rounds.len(), 3);
        for (r, round) in report.rounds.iter().enumerate() {
            let expect: f32 = (0..n).map(|w| (r * 10 + w + 1) as f32).sum();
            for (w, rw) in round.iter().enumerate() {
                for &x in &rw[0] {
                    assert!((x - expect).abs() < 0.01, "round {r} worker {w}: {x}");
                }
            }
        }
        // One switch served all three rounds.
        assert_eq!(
            report.switch_stats.completions as usize,
            3 * elems.div_ceil(8)
        );
    }

    #[test]
    fn multi_round_session_with_loss() {
        let n = 2;
        let p = proto(n);
        let rounds: Vec<Vec<Vec<Vec<f32>>>> = (0..4)
            .map(|r| (0..n).map(|w| vec![vec![(r + w) as f32; 64]]).collect())
            .collect();
        let (ports, _) = faulty_fabric(channel_fabric(n + 1), FaultyConfig::loss_only(0.03), 123);
        let report = run_allreduce_session(ports, rounds, &p, &RunConfig::default()).unwrap();
        for (r, round) in report.rounds.iter().enumerate() {
            let expect: f32 = (0..n).map(|w| (r + w) as f32).sum();
            assert!((round[0][0][0] - expect).abs() < 0.01);
        }
    }

    #[test]
    fn total_blackout_times_out_cleanly() {
        let n = 2;
        let (ports, _) = faulty_fabric(channel_fabric(n + 1), FaultyConfig::loss_only(1.0), 5);
        let cfg = RunConfig {
            max_wall: Duration::from_millis(300),
            ..RunConfig::default()
        };
        let err = run_allreduce(ports, updates(n, 64), &proto(n), &cfg).unwrap_err();
        assert!(matches!(err, Error::ProtocolViolation(_)));
    }
}
