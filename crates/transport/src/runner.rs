//! Run configuration and report, the RTO clamp every runner applies,
//! and the flat all-reduce: one switch shard per core and one OS thread
//! per worker engine, real clocks, real (or in-memory) datagrams.
//!
//! This is the deployment-shaped path: the same sans-IO state machines
//! the simulator drives, but with true parallelism and wall-clock
//! retransmission timers. The paper's equivalent is the DPDK worker
//! component + Tofino switch; here the "switch" is a thread running
//! Algorithm 3 verbatim — the [`crate::shard`] switch endpoint — and
//! every worker core is a `SlotEngine` endpoint ([`crate::reactor`]),
//! all placed on threads by the one executor ([`crate::endpoint`]).

use crate::port::{Port, PortStats};
use std::time::Duration;
use switchml_core::config::{Protocol, RtoPolicy, TimeNs};
use switchml_core::error::Result;
use switchml_core::packet::HEADER_LEN;
use switchml_core::switch::SwitchStats;
use switchml_core::worker::engine::EngineStats;

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
/// time: an engine thread parked until its next timer (one engine per
/// thread, [`crate::port::PARK`]) oversleeps it by the granule.
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
/// Every runner entry point — the engine driver, the hierarchy, the
/// controlled runner and the scheduler — must pass its config through
/// here exactly once, so a new entry point cannot forget the clamp and
/// ship timers the transport clock cannot honor.
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
    /// Event-loop health counters, present for every run of the engine
    /// endpoints of [`crate::reactor`] (reactor, sharded, hier).
    pub reactor: Option<crate::reactor::ReactorStats>,
    /// Two-level tree counters, present only for hierarchical runs
    /// ([`crate::hier::run_allreduce_hier`]).
    pub hier: Option<crate::hier::HierReport>,
    pub wall: Duration,
}

/// Run a full synchronous all-reduce over a transport fabric: one switch
/// shard per core and one OS thread per worker engine, the paper's
/// one-core-per-engine layout (§3.5, §5.2). This is
/// [`crate::reactor::run_allreduce_reactor`] with `n_workers × n_cores`
/// threads, so every engine thread parks in its port's blocking receive
/// until its next timer.
///
/// `ports` uses the sharded endpoint layout
/// ([`crate::shard::sharded_fabric_size`]); at `n_cores = 1` that is
/// `ports[0]` the switch and `ports[w + 1]` worker `w`. `updates[w]` is
/// worker `w`'s tensor set (all workers must agree on shapes). Returns
/// each worker's aggregated tensors (the element-wise sum across
/// workers), aggregated in place in the input allocations. Only
/// `NumericMode::Fixed32` is supported.
pub fn run_allreduce<P: Port + 'static>(
    ports: Vec<P>,
    updates: Vec<Vec<Vec<f32>>>,
    proto: &Protocol,
    cfg: &RunConfig,
) -> Result<RunReport> {
    // At least 1, so `n_cores = 0` is reported as such, not as zero threads.
    let engines = (proto.n_workers * cfg.n_cores).max(1);
    crate::reactor::run_allreduce_reactor(ports, updates, proto, cfg, engines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel_fabric;
    use crate::faulty::{faulty_fabric, FaultyConfig};
    use crate::port::SWITCH_ENDPOINT;
    use crate::reactor::run_allreduce_reactor;
    use crate::udp::udp_fabric;
    use switchml_core::config::NumericMode;
    use switchml_core::error::Error;

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

    /// A runner under test, over a fabric with `n + 1` endpoints.
    type Runner<P> = fn(Vec<P>, Vec<Vec<Vec<f32>>>, &Protocol, &RunConfig) -> Result<RunReport>;

    /// Every engine on one thread, which polls them all.
    fn one_thread<P: Port + 'static>(
        ports: Vec<P>,
        updates: Vec<Vec<Vec<f32>>>,
        proto: &Protocol,
        cfg: &RunConfig,
    ) -> Result<RunReport> {
        run_allreduce_reactor(ports, updates, proto, cfg, 1)
    }

    /// The mirror of `shard::hostile_frames_are_counted_and_dropped`
    /// for the worker side: hostile results already queued on a worker
    /// endpoint when the run starts cost one counter tick each, not the
    /// engine's thread, and the all-reduce stays bit-identical to the
    /// sequential reference — on the plain layout and with every engine
    /// on one thread. The tick is the worker's `rejected`, or — for the
    /// `k + 1`-element result on a transport whose frames are sized by
    /// the run (`port_drops = 1`) — the port's `send_errors`.
    fn hostile_results_are_counted_and_dropped<P: Port + 'static>(
        mut ports: Vec<P>,
        port_drops: u64,
        run: Runner<P>,
    ) {
        let n = 3;
        let elems = 333;
        let p = proto(n);
        let reference = switchml_core::agg::allreduce(&updates(n, elems), &p).unwrap();
        let hostile = hostile_results(&p, elems);
        for frame in &hostile {
            ports[SWITCH_ENDPOINT].send(crate::port::worker_endpoint(1), frame);
        }
        let report = run(ports, updates(n, elems), &p, &RunConfig::default()).unwrap();
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
        hostile_results_are_counted_and_dropped(channel_fabric(4), 0, run_allreduce);
        hostile_results_are_counted_and_dropped(channel_fabric(4), 0, one_thread);
    }

    #[test]
    fn udp_hostile_results_are_counted_and_dropped() {
        hostile_results_are_counted_and_dropped(udp_fabric(4).unwrap(), 1, run_allreduce);
        hostile_results_are_counted_and_dropped(udp_fabric(4).unwrap(), 1, one_thread);
    }

    #[test]
    fn misconfiguration_rejected() {
        let ports = channel_fabric(3);
        assert!(run_allreduce(ports, updates(3, 8), &proto(3), &RunConfig::default()).is_err());
        let ports = channel_fabric(4);
        assert!(run_allreduce(ports, updates(2, 8), &proto(3), &RunConfig::default()).is_err());
        // Engines quantize straight from the caller's tensors: Fixed32 only.
        let p16 = Protocol {
            mode: NumericMode::Float16,
            ..proto(3)
        };
        let err = run_allreduce(
            channel_fabric(4),
            updates(3, 8),
            &p16,
            &RunConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
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
