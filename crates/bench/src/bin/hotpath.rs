//! Hot-path measurement harness: proves the zero-allocation claim and
//! records the numbers behind it.
//!
//! ```text
//! hotpath [--quick] [--smoke] [--udp] [--hierarchy]
//!         [--out <path>] [--udp-out <path>] [--hier-out <path>]
//! ```
//!
//! Measures, in-process:
//!
//! * **codec** — ns/packet for the allocating `Packet::encode` /
//!   `Packet::decode` against `encode_into` / `PacketView::parse` at
//!   k = 32 (and the borrowed pair at k = 256), plus the frame
//!   checksum's GB/s on the table loop and on the dispatched kernel at
//!   both frame sizes;
//! * **switch hot path** — ns/packet for a steady-state reliable-switch
//!   ingest loop over the borrowed-view path, with a counting global
//!   allocator verifying **zero heap allocations per packet** (the
//!   harness aborts if any allocation sneaks in);
//! * **quantize** — GB/s of the scalar reference loop vs the
//!   chunk-wise kernels;
//! * **threaded ATE/s** — aggregated tensor elements per second through
//!   [`switchml_transport::run_allreduce`] at 1, 2 and 4
//!   cores. `hardware_threads` is recorded alongside: scaling is only
//!   expected to be monotonic when the host actually has the cores.
//!
//! * **udp burst I/O** — the batched UDP data plane: packets/sec
//!   through `recv_batch` at burst sizes 1/8/32 (drain of a prefilled
//!   loopback socket, allocation-checked), and end-to-end sharded
//!   all-reduce ATE/s over UDP vs the channel fabric at each
//!   (burst, cores) point. Written to `BENCH_udp.json` (override with
//!   `--udp-out`); `--udp` runs *only* this section.
//!
//! * **hierarchy crossover** — flat star vs the two-level leaf/spine
//!   tree over the same reactor data plane, per transport, across a
//!   (racks × workers-per-rack) grid. Records wall/ATE/retransmits for
//!   both shapes and the smallest worker count where hierarchy wins,
//!   per transport (null when it never does — expected for the
//!   in-process channel fabric on a small host). Written to
//!   `BENCH_hierarchy.json` (override with `--hier-out`);
//!   `--hierarchy` runs *only* this section.
//!
//! Writes pretty JSON to `BENCH_hotpath.json` (override with `--out`).
//! `--smoke` runs everything at tiny sizes and skips the JSON write —
//! CI uses it as a release-mode end-to-end check of the sharded runner
//! plus the allocation invariant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use switchml_core::checksum::{crc32, crc32_table};
use switchml_core::config::Protocol;
use switchml_core::packet::{encode_update_into, Packet, PacketView, PoolVersion};
use switchml_core::quant::fixed::{dequantize_chunk, dequantize_one, quantize_chunk, quantize_one};
use switchml_core::switch::reliable::ReliableSwitch;
use switchml_core::switch::WireAction;
use switchml_transport::runner::{run_allreduce, RunConfig};
use switchml_transport::shard::{sharded_channel_fabric, sharded_fabric_size};
use switchml_transport::udp::udp_fabric;
use switchml_transport::{BurstBuf, Port, TxBatch};

/// Counts every heap allocation so steady-state loops can assert they
/// make none.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Mean ns per call of `f`, after a 10% warmup.
fn ns_per_iter<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    for _ in 0..iters / 10 + 1 {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

const K: usize = 32;

fn codec_section(iters: u64) -> serde_json::Value {
    let pkt = Packet::update(3, PoolVersion::V0, 7, 224, vec![42i32; K]);
    let wire = pkt.encode();
    let mut scratch = Vec::with_capacity(wire.len());

    let encode_alloc = ns_per_iter(iters, || {
        std::hint::black_box(pkt.encode());
    });
    let encode_into = ns_per_iter(iters, || {
        pkt.encode_into(&mut scratch);
        std::hint::black_box(scratch.len());
    });
    let decode_alloc = ns_per_iter(iters, || {
        std::hint::black_box(Packet::decode(&wire).unwrap());
    });
    let view_parse = ns_per_iter(iters, || {
        let v = PacketView::parse(&wire).unwrap();
        std::hint::black_box(v.idx());
    });
    println!(
        "codec k={K}: encode {encode_alloc:.1} -> encode_into {encode_into:.1} ns/pkt, \
         decode {decode_alloc:.1} -> view_parse {view_parse:.1} ns/pkt"
    );

    // The MTU-sized frame, where the checksum is most of the codec.
    let big = Packet::update(3, PoolVersion::V0, 7, 224, (0..256).collect());
    let big_wire = big.encode();
    let k256_encode_into = ns_per_iter(iters, || {
        big.encode_into(&mut scratch);
        std::hint::black_box(scratch.len());
    });
    let k256_view_parse = ns_per_iter(iters, || {
        let v = PacketView::parse(&big_wire).unwrap();
        std::hint::black_box(v.idx());
    });
    println!(
        "codec k=256: encode_into {k256_encode_into:.1} ns/pkt, view_parse {k256_view_parse:.1} ns/pkt"
    );

    // The frame checksum alone over whole frames of both sizes: the
    // table loop (the reference) against the dispatched arm.
    let fold = switchml_core::simd::crc_fold_active();
    let crc_gbps = |frame: &[u8]| {
        let len = frame.len() as f64;
        let table = ns_per_iter(iters, || {
            std::hint::black_box(crc32_table(std::hint::black_box(frame)));
        });
        let kernel = ns_per_iter(iters, || {
            std::hint::black_box(crc32(std::hint::black_box(frame)));
        });
        println!(
            "crc32 {} B: table {table:.1} ns ({:.2} GB/s) -> {} {kernel:.1} ns ({:.2} GB/s)",
            frame.len(),
            len / table,
            if fold { "clmul fold" } else { "table" },
            len / kernel
        );
        (len / table, len / kernel)
    };
    let (small, mtu) = (crc_gbps(&wire), crc_gbps(&big_wire));
    serde_json::json!({
        "k": K,
        "encode_alloc_ns": encode_alloc,
        "encode_into_ns": encode_into,
        "decode_alloc_ns": decode_alloc,
        "view_parse_ns": view_parse,
        "k256_encode_into_ns": k256_encode_into,
        "k256_view_parse_ns": k256_view_parse,
        "crc_fold_active": fold,
        "crc_table_gbps": serde_json::json!({"156B": small.0, "1052B": mtu.0}),
        "crc_kernel_gbps": serde_json::json!({"156B": small.1, "1052B": mtu.1}),
    })
}

/// Steady-state switch ingest: generate → parse → aggregate → encode
/// response, all in reused buffers. Returns (ns/packet, allocs/packet);
/// aborts the process if allocs/packet != 0.
fn switch_section(phases: u64) -> serde_json::Value {
    let n = 8usize;
    let proto = Protocol {
        n_workers: n,
        k: K,
        pool_size: 128,
        ..Protocol::default()
    };
    let mut sw = ReliableSwitch::new(&proto).unwrap();
    let mut wire = Vec::new();
    let mut tx = Vec::new();
    let vals = [9i32; K];
    let run_phase = |phase: u64, sw: &mut ReliableSwitch, wire: &mut Vec<u8>, tx: &mut Vec<u8>| {
        let ver = if phase.is_multiple_of(2) {
            PoolVersion::V0
        } else {
            PoolVersion::V1
        };
        for w in 0..n as u16 {
            encode_update_into(w, ver, 0, phase * K as u64, 0, false, &vals, wire);
            let v = PacketView::parse(wire).unwrap();
            let action = sw.on_view(&v, tx).unwrap();
            if w as usize == n - 1 {
                assert!(matches!(action, WireAction::Multicast));
            }
        }
    };

    // Warm up: let every scratch buffer reach its steady-state
    // capacity before counting.
    let mut phase = 0u64;
    for _ in 0..8 {
        run_phase(phase, &mut sw, &mut wire, &mut tx);
        phase += 1;
    }

    let a0 = allocations();
    let t0 = Instant::now();
    for _ in 0..phases {
        run_phase(phase, &mut sw, &mut wire, &mut tx);
        phase += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    let allocs = allocations() - a0;
    let packets = phases * n as u64;
    let ns_per_packet = wall * 1e9 / packets as f64;
    let allocs_per_packet = allocs as f64 / packets as f64;
    println!(
        "switch hot path: {ns_per_packet:.1} ns/pkt, {allocs} allocations over {packets} packets"
    );
    assert_eq!(
        allocs, 0,
        "switch aggregation hot path must not allocate (got {allocs} over {packets} packets)"
    );
    serde_json::json!({
        "n_workers": n,
        "k": K,
        "packets": packets,
        "ns_per_packet": ns_per_packet,
        "allocs_per_packet": allocs_per_packet,
    })
}

fn quantize_section(elems: usize, reps: u64, smoke: bool) -> serde_json::Value {
    let f = 1e6;
    let src: Vec<f32> = (0..elems).map(|i| (i as f32) * 0.001 - 30.0).collect();
    let mut q = vec![0i32; elems];
    let mut back = vec![0.0f32; elems];
    let bytes = (elems * 4) as f64;
    let backend = switchml_core::simd::active_backend().name();

    // This host is a shared vCPU: a preemption spike mid-measurement
    // can make any single run lie in either direction, so the
    // kernel-beats-scalar invariant gets up to three attempts before
    // the harness gives up.
    let mut attempt = 0;
    let (scalar_q, kernel_q, scalar_d, kernel_d) = loop {
        attempt += 1;
        let scalar_q = ns_per_iter(reps, || {
            for (s, d) in src.iter().zip(q.iter_mut()) {
                *d = quantize_one(*s, f);
            }
            std::hint::black_box(q[0]);
        });
        let kernel_q = ns_per_iter(reps, || {
            quantize_chunk(&src, f, &mut q);
            std::hint::black_box(q[0]);
        });
        let scalar_d = ns_per_iter(reps, || {
            for (s, d) in q.iter().zip(back.iter_mut()) {
                *d = dequantize_one(*s, f);
            }
            std::hint::black_box(back[0]);
        });
        let kernel_d = ns_per_iter(reps, || {
            dequantize_chunk(&q, f, &mut back);
            std::hint::black_box(back[0]);
        });
        // Smoke sizes are too small to measure reliably — report only.
        if smoke || (kernel_q < scalar_q && kernel_d <= scalar_d) {
            break (scalar_q, kernel_q, scalar_d, kernel_d);
        }
        assert!(
            attempt < 3,
            "quantize kernels slower than scalar after {attempt} attempts \
             (backend {backend}): quantize {kernel_q:.1} vs {scalar_q:.1} ns, \
             dequantize {kernel_d:.1} vs {scalar_d:.1} ns"
        );
        println!("quantize attempt {attempt} noisy (kernel ≥ scalar), retrying");
    };
    let gbps = |ns: f64| bytes / ns; // bytes/ns == GB/s
    println!(
        "quantize {elems} elems [{backend}]: scalar {:.2} GB/s -> kernel {:.2} GB/s; \
         dequantize scalar {:.2} GB/s -> kernel {:.2} GB/s",
        gbps(scalar_q),
        gbps(kernel_q),
        gbps(scalar_d),
        gbps(kernel_d)
    );
    serde_json::json!({
        "elems": elems,
        "backend": backend,
        "quantize_scalar_gbps": gbps(scalar_q),
        "quantize_kernel_gbps": gbps(kernel_q),
        "dequantize_scalar_gbps": gbps(scalar_d),
        "dequantize_kernel_gbps": gbps(kernel_d),
    })
}

/// Aggregated tensor elements per second through the sharded threaded
/// runner, per core count.
fn ate_section(elems: usize, cores: &[usize], hw: usize) -> serde_json::Value {
    let n = 2usize;
    let mut rows = Vec::new();
    for &c in cores {
        // Thread-per-engine needs c·(n+2) runnable threads; when that
        // exceeds the hardware they time-slice one CPU and the number
        // measures the scheduler, not the data plane. Record the point
        // as skipped instead of publishing a misleading wall time.
        if c > hw {
            println!("sharded allreduce cores={c}: skipped (host has {hw} hardware threads)");
            rows.push(serde_json::json!({
                "n_cores": c,
                "oversubscribed": true,
                "skipped": true,
            }));
            continue;
        }
        let proto = Protocol {
            n_workers: n,
            k: K,
            pool_size: 128,
            rto_ns: 5_000_000,
            scaling_factor: 10_000.0,
            ..Protocol::default()
        };
        let updates: Vec<Vec<Vec<f32>>> = (0..n)
            .map(|w| {
                vec![(0..elems)
                    .map(|i| (w + 1) as f32 + (i % 7) as f32)
                    .collect()]
            })
            .collect();
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let report = run_allreduce(sharded_channel_fabric(n, c), updates, &proto, &cfg).unwrap();
        let ate = elems as f64 / report.wall.as_secs_f64();
        println!(
            "sharded allreduce n={n} elems={elems} cores={c}: {:.1} ms, {:.2} M ATE/s",
            report.wall.as_secs_f64() * 1e3,
            ate / 1e6
        );
        rows.push(serde_json::json!({
            "n_cores": c,
            "wall_ms": report.wall.as_secs_f64() * 1e3,
            "ate_per_sec": ate,
        }));
    }
    serde_json::Value::Array(rows)
}

/// The decoupling claim, measured: 64 virtual workers on a handful of
/// reactor threads vs thread-per-engine spawning 64 worker threads.
/// The reactor point is the headline; the threaded attempt runs under
/// a tight wall budget and records only whether it finished — on an
/// oversubscribed host it often cannot, which is the point.
fn reactor_scale_section(elems: usize, hw: usize) -> serde_json::Value {
    use switchml_transport::reactor::run_allreduce_reactor;

    let n = 64usize;
    let threads = hw.clamp(1, 4);
    let proto = Protocol {
        n_workers: n,
        k: K,
        pool_size: 128,
        rto_ns: 5_000_000,
        scaling_factor: 100.0,
        ..Protocol::default()
    };
    let mk_updates = || -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|w| vec![(0..elems).map(|i| ((w + i) % 5) as f32).collect()])
            .collect()
    };
    let cfg = RunConfig::default();
    let report = run_allreduce_reactor(
        sharded_channel_fabric(n, 1),
        mk_updates(),
        &proto,
        &cfg,
        threads,
    )
    .expect("reactor run");
    let stats = report.reactor.as_ref().expect("reactor stats");
    let ate = elems as f64 / report.wall.as_secs_f64();
    println!(
        "reactor allreduce n={n} elems={elems} threads={threads}: {:.1} ms, \
         {:.2} M ATE/s, {:.0} engines/thread, {} timer fires",
        report.wall.as_secs_f64() * 1e3,
        ate / 1e6,
        stats.engines_per_thread(),
        stats.timer_fires,
    );

    // Same workload through thread-per-engine: 64 worker threads plus
    // the shard thread on whatever CPUs exist.
    let budget = Duration::from_secs(10);
    let threaded_cfg = RunConfig {
        max_wall: budget,
        ..RunConfig::default()
    };
    let t0 = Instant::now();
    let threaded = run_allreduce(
        sharded_channel_fabric(n, 1),
        mk_updates(),
        &proto,
        &threaded_cfg,
    );
    let threaded_wall = t0.elapsed();
    let completed = threaded.is_ok();
    println!(
        "threaded allreduce n={n} elems={elems} (65 threads, {budget:?} budget): \
         completed={completed} in {:.1} ms",
        threaded_wall.as_secs_f64() * 1e3
    );

    serde_json::json!({
        "n_workers": n,
        "elems": elems,
        "reactor_threads": threads,
        "engines_per_thread": stats.engines_per_thread(),
        "reactor_wall_ms": report.wall.as_secs_f64() * 1e3,
        "reactor_ate_per_sec": ate,
        "reactor_timer_fires": stats.timer_fires,
        "reactor_polls": stats.polls,
        "threaded_threads": n + 1,
        "threaded_completed": completed,
        "threaded_wall_ms": threaded_wall.as_secs_f64() * 1e3,
    })
}

/// Kernel receive path at each burst size: fill a loopback socket with
/// a fixed flight of datagrams (untimed), then time draining it with
/// `recv_batch` at burst `b`. The flight is resent every round, so the
/// drain measures steady-state `recvmmsg` amortization — and the
/// counting allocator verifies the drain makes **zero** heap
/// allocations per packet.
fn udp_recv_section(rounds: u64, bursts: &[usize]) -> serde_json::Value {
    // Small enough that a flight always fits the default socket buffer
    // (64 datagrams of ~160 B is well under the kernel's skb budget).
    const FLIGHT: usize = 64;
    let vals = [7i32; K];
    let mut wire = Vec::new();
    encode_update_into(0, PoolVersion::V0, 3, 96, 0, false, &vals, &mut wire);

    let mut rows = Vec::new();
    for &b in bursts {
        let mut ports = udp_fabric(2).expect("loopback fabric");
        let mut rx = ports.pop().unwrap(); // endpoint 1
        let mut tx = ports.pop().unwrap(); // endpoint 0
        let mut txb = TxBatch::new(wire.len());
        let mut bufs = BurstBuf::new(b, wire.len());
        let mut drain_allocs = 0u64;
        let mut got = 0u64;
        let mut round_ns: Vec<f64> = Vec::with_capacity(rounds as usize);
        // One untimed warmup round opts the socket into GRO and grows
        // every reused buffer to steady-state capacity.
        for round in 0..rounds + 1 {
            txb.clear();
            for _ in 0..FLIGHT {
                txb.push(1).extend_from_slice(&wire);
            }
            txb.flush(&mut tx);
            let mut seen = 0usize;
            let a0 = allocations();
            let t0 = Instant::now();
            while seen < FLIGHT {
                let n = rx.recv_batch(&mut bufs, Duration::from_millis(200));
                if n == 0 {
                    break; // kernel dropped part of the flight
                }
                for (_from, frame) in bufs.iter() {
                    std::hint::black_box(frame.len());
                }
                seen += n;
            }
            if round > 0 && seen > 0 {
                round_ns.push(t0.elapsed().as_nanos() as f64 / seen as f64);
                drain_allocs += allocations() - a0;
                got += seen as u64;
            }
        }
        // This host is a shared vCPU: the mean is polluted by multi-µs
        // preemption spikes, so the headline number is the 10th-
        // percentile round — the repeatable steady state of the drain
        // itself. The mean is recorded alongside for honesty.
        round_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean_ns = round_ns.iter().sum::<f64>() / round_ns.len() as f64;
        let p10_ns = round_ns[round_ns.len() / 10];
        let pps = 1e9 / p10_ns;
        let allocs_per_packet = drain_allocs as f64 / got as f64;
        println!(
            "udp recv burst={b}: p10 {p10_ns:.1} ns/pkt ({:.2} M pkt/s), mean {mean_ns:.1} \
             ns/pkt, {drain_allocs} allocations over {got} packets",
            pps / 1e6
        );
        assert_eq!(
            drain_allocs, 0,
            "udp burst receive path must not allocate (burst={b})"
        );
        rows.push(serde_json::json!({
            "burst": b,
            "packets": got,
            "ns_per_packet": p10_ns,
            "ns_per_packet_mean": mean_ns,
            "packets_per_sec": pps,
            "allocs_per_packet": allocs_per_packet,
        }));
    }
    serde_json::Value::Array(rows)
}

/// Full sharded all-reduce over UDP loopback vs the channel fabric at
/// each (burst, cores) point — end-to-end ATE/s for the same protocol
/// over real sockets, plus kernel send-error counts from the port
/// stats.
fn udp_allreduce_section(elems: usize, cores: &[usize], bursts: &[usize]) -> serde_json::Value {
    let n = 2usize;
    let mut rows = Vec::new();
    for &c in cores {
        for &b in bursts {
            for transport in ["channel", "udp"] {
                let proto = Protocol {
                    n_workers: n,
                    k: K,
                    pool_size: 128,
                    rto_ns: 5_000_000,
                    scaling_factor: 10_000.0,
                    ..Protocol::default()
                };
                let updates: Vec<Vec<Vec<f32>>> = (0..n)
                    .map(|w| {
                        vec![(0..elems)
                            .map(|i| (w + 1) as f32 + (i % 7) as f32)
                            .collect()]
                    })
                    .collect();
                let cfg = RunConfig {
                    n_cores: c,
                    burst: b,
                    ..RunConfig::default()
                };
                let report = match transport {
                    "udp" => {
                        let ports = udp_fabric(sharded_fabric_size(n, c)).expect("udp fabric");
                        run_allreduce(ports, updates, &proto, &cfg)
                    }
                    _ => run_allreduce(sharded_channel_fabric(n, c), updates, &proto, &cfg),
                }
                .unwrap();
                let ate = elems as f64 / report.wall.as_secs_f64();
                println!(
                    "allreduce {transport} n={n} elems={elems} cores={c} burst={b}: \
                     {:.1} ms, {:.2} M ATE/s, {} send errors",
                    report.wall.as_secs_f64() * 1e3,
                    ate / 1e6,
                    report.transport_stats.send_errors
                );
                rows.push(serde_json::json!({
                    "transport": transport,
                    "burst": b,
                    "n_cores": c,
                    "wall_ms": report.wall.as_secs_f64() * 1e3,
                    "ate_per_sec": ate,
                    "send_errors": report.transport_stats.send_errors,
                }));
            }
        }
    }
    serde_json::Value::Array(rows)
}

/// Flat star vs two-level hierarchy on the same workload, per
/// transport, across a (racks × workers-per-rack) grid — the §6
/// crossover, measured. The flat star funnels all `n` workers into one
/// switch socket; the hierarchy bounds per-socket fan-in to
/// `max(workers_per_rack, racks)`. On loopback UDP the flat star's
/// incast overruns the switch socket's receive buffer as `n` grows and
/// every dropped burst costs an RTO, so hierarchy wins past a fan-in
/// threshold; on the in-process channel fabric (no socket buffer to
/// overrun, one CPU to share) the hierarchy's extra hop is pure
/// overhead and flat is expected to keep winning — both numbers are
/// recorded as measured.
fn hierarchy_section(grid: &[(usize, usize)], elems: usize, threads: usize) -> serde_json::Value {
    use switchml_transport::hier::{hier_fabric_size, run_allreduce_hier, HierConfig};
    use switchml_transport::reactor::run_allreduce_reactor;
    use switchml_transport::runner::RunReport;
    use switchml_transport::shard::sharded_channel_fabric;

    let mut rows = Vec::new();
    let mut crossover: Vec<(String, Vec<usize>)> =
        vec![("channel".into(), Vec::new()), ("udp".into(), Vec::new())];
    for &(racks, wpr) in grid {
        let n = racks * wpr;
        let proto = Protocol {
            n_workers: n,
            k: K,
            pool_size: 128,
            rto_ns: 5_000_000,
            // Coarse scaling keeps 64-worker sums far inside the
            // Fixed32 range; both sides quantize identically.
            scaling_factor: 100.0,
            ..Protocol::default()
        };
        let mk_updates = || -> Vec<Vec<Vec<f32>>> {
            (0..n)
                .map(|w| vec![(0..elems).map(|i| ((w + i) % 5) as f32).collect()])
                .collect()
        };
        let cfg = RunConfig {
            max_wall: Duration::from_secs(120),
            ..RunConfig::default()
        };
        let hc = HierConfig {
            n_threads: threads,
            ..HierConfig::new(racks, wpr)
        };
        for transport in ["channel", "udp"] {
            let (flat, hier): (RunReport, RunReport) = match transport {
                "udp" => {
                    let flat_ports =
                        udp_fabric(sharded_fabric_size(n, 1)).expect("udp flat fabric");
                    let flat =
                        run_allreduce_reactor(flat_ports, mk_updates(), &proto, &cfg, threads)
                            .expect("flat udp run");
                    let hier_ports =
                        udp_fabric(hier_fabric_size(racks, wpr)).expect("udp hier fabric");
                    let hier = run_allreduce_hier(hier_ports, mk_updates(), &proto, &cfg, &hc)
                        .expect("hier udp run");
                    (flat, hier)
                }
                _ => {
                    let flat = run_allreduce_reactor(
                        sharded_channel_fabric(n, 1),
                        mk_updates(),
                        &proto,
                        &cfg,
                        threads,
                    )
                    .expect("flat channel run");
                    let hier = run_allreduce_hier(
                        switchml_transport::channel::channel_fabric(hier_fabric_size(racks, wpr)),
                        mk_updates(),
                        &proto,
                        &cfg,
                        &hc,
                    )
                    .expect("hier channel run");
                    (flat, hier)
                }
            };
            assert_eq!(
                flat.results, hier.results,
                "flat and hierarchical {transport} runs must agree bit-for-bit \
                 ({racks}x{wpr})"
            );
            let flat_ate = elems as f64 / flat.wall.as_secs_f64();
            let hier_ate = elems as f64 / hier.wall.as_secs_f64();
            let flat_retx: u64 = flat.worker_stats.iter().map(|s| s.retx).sum();
            let hr = hier.hier.as_ref().expect("hier counters");
            let hier_retx: u64 = hier.worker_stats.iter().map(|s| s.retx).sum::<u64>()
                + hr.leaf_up_stats.iter().map(|s| s.retx).sum::<u64>();
            let hier_wins = hier_ate > flat_ate;
            if hier_wins {
                if let Some(entry) = crossover.iter_mut().find(|(t, _)| t == transport) {
                    entry.1.push(n);
                }
            }
            println!(
                "hierarchy {transport} {racks}x{wpr} (n={n}): flat {:.1} ms ({:.2} M ATE/s, \
                 {flat_retx} retx) vs hier {:.1} ms ({:.2} M ATE/s, {hier_retx} retx) -> {}",
                flat.wall.as_secs_f64() * 1e3,
                flat_ate / 1e6,
                hier.wall.as_secs_f64() * 1e3,
                hier_ate / 1e6,
                if hier_wins { "HIERARCHY" } else { "flat" },
            );
            rows.push(serde_json::json!({
                "transport": transport,
                "racks": racks,
                "workers_per_rack": wpr,
                "workers": n,
                "flat_fan_in": n,
                "hier_fan_in": wpr.max(racks),
                "flat_wall_ms": flat.wall.as_secs_f64() * 1e3,
                "flat_ate_per_sec": flat_ate,
                "flat_retx": flat_retx,
                "hier_wall_ms": hier.wall.as_secs_f64() * 1e3,
                "hier_ate_per_sec": hier_ate,
                "hier_retx": hier_retx,
                "hier_speedup": flat.wall.as_secs_f64() / hier.wall.as_secs_f64(),
                "hier_wins": hier_wins,
            }));
        }
    }
    // Single runs on a shared host are not monotonic in n, so record
    // every winning point, not just the first: a lone early win is
    // visibly noise, a cluster of wins at high fan-in is the signal.
    let crossover_json: Vec<serde_json::Value> = crossover
        .iter()
        .map(|(t, wins)| {
            let first = match wins.first() {
                Some(&n) => serde_json::json!(n as u64),
                None => serde_json::Value::Null,
            };
            let all: Vec<serde_json::Value> =
                wins.iter().map(|&n| serde_json::json!(n as u64)).collect();
            serde_json::json!({
                "transport": t,
                "first_win_at_workers": first,
                "wins_at_workers": serde_json::Value::Array(all),
            })
        })
        .collect();
    serde_json::json!({
        "elems": elems,
        "reactor_threads": threads,
        "grid": serde_json::Value::Array(rows),
        "crossover": serde_json::Value::Array(crossover_json),
    })
}

fn main() {
    let mut quick = false;
    let mut smoke = false;
    let mut udp_only = false;
    let mut hierarchy_only = false;
    let mut out = String::from("BENCH_hotpath.json");
    let mut udp_out = String::from("BENCH_udp.json");
    let mut hier_out = String::from("BENCH_hierarchy.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--udp" => udp_only = true,
            "--hierarchy" => hierarchy_only = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--udp-out" => udp_out = args.next().expect("--udp-out needs a path"),
            "--hier-out" => hier_out = args.next().expect("--hier-out needs a path"),
            other => {
                eprintln!(
                    "usage: hotpath [--quick] [--smoke] [--udp] [--hierarchy] [--out <path>] \
                     [--udp-out <path>] [--hier-out <path>], got {other:?}"
                );
                std::process::exit(2);
            }
        }
    }
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("hardware threads: {hw}");

    if hierarchy_only {
        let (grid, hier_elems): (&[(usize, usize)], usize) = if smoke {
            (&[(2, 2)], 1_024)
        } else if quick {
            (&[(2, 2), (2, 4), (4, 4)], 8_192)
        } else {
            (&[(2, 2), (2, 4), (4, 4), (4, 8), (8, 8)], 16_384)
        };
        let section = hierarchy_section(grid, hier_elems, 2);
        if smoke {
            println!("hierarchy smoke OK: flat and tree agree bit-for-bit on both transports");
            return;
        }
        let doc = serde_json::json!({
            "bench": "hierarchy",
            "quick": quick,
            "hardware_threads": hw,
            "hierarchy": section,
            "note": "The crossover driver is UDP incast: the flat star funnels all n workers \
                     into one switch socket, so drops (and 5 ms RTOs) grow with n, while the \
                     tree caps per-socket fan-in at max(workers_per_rack, racks). The channel \
                     fabric has no socket buffer to overrun, so on a host with few cores the \
                     extra hop is pure overhead and flat is expected to keep winning there; \
                     both are recorded as measured.",
        });
        std::fs::write(
            &hier_out,
            serde_json::to_string_pretty(&doc).unwrap() + "\n",
        )
        .expect("write JSON");
        println!("wrote {hier_out}");
        return;
    }

    let (codec_iters, switch_phases, quant_elems, quant_reps, ate_elems): (
        u64,
        u64,
        usize,
        u64,
        usize,
    ) = if smoke {
        (2_000, 1_000, 4 * 1024, 20, 20_000)
    } else if quick {
        (50_000, 20_000, 64 * 1024, 100, 100_000)
    } else {
        (500_000, 200_000, 1024 * 1024, 200, 400_000)
    };

    if !udp_only {
        let codec = codec_section(codec_iters);
        let switch = switch_section(switch_phases);
        let quant = quantize_section(quant_elems, quant_reps, smoke);
        let ate = ate_section(ate_elems, &[1, 2, 4], hw);
        let reactor = reactor_scale_section(if smoke { 64 } else { 2048 }, hw);

        if smoke {
            println!("smoke OK: sharded runner correct and hot path allocation-free");
            return;
        }
        let doc = serde_json::json!({
            "bench": "hotpath",
            "quick": quick,
            "hardware_threads": hw,
            "codec": codec,
            "switch_hot_path": switch,
            "quantize": quant,
            "threaded_ate": ate,
            "reactor_scale": reactor,
            "note": "ATE/s scaling with n_cores is hardware-bound: points with n_cores above \
                     hardware_threads are recorded as oversubscribed+skipped rather than \
                     publishing scheduler noise.",
        });
        std::fs::write(&out, serde_json::to_string_pretty(&doc).unwrap() + "\n")
            .expect("write JSON");
        println!("wrote {out}");
    }

    // UDP burst data plane: receive-path syscall amortization plus the
    // sharded all-reduce end to end over real sockets.
    let (recv_rounds, udp_elems, udp_cores, udp_bursts): (u64, usize, &[usize], &[usize]) = if smoke
    {
        (50, 8_000, &[1], &[1, 32])
    } else if quick {
        (400, 40_000, &[1, 2], &[1, 8, 32])
    } else {
        (2_000, 200_000, &[1, 2], &[1, 8, 32])
    };
    let recv = udp_recv_section(recv_rounds, udp_bursts);
    let allreduce = udp_allreduce_section(udp_elems, udp_cores, udp_bursts);
    let udp_doc = serde_json::json!({
        "bench": "udp",
        "quick": quick || smoke,
        "hardware_threads": hw,
        "recv_path": recv,
        "allreduce": allreduce,
        "note": "recv_path times only the recv_batch drain of a prefilled socket, so it \
                 isolates per-packet syscall cost; allreduce is end-to-end wall clock and \
                 inherits the hardware-thread caveat from BENCH_hotpath.json.",
    });
    std::fs::write(
        &udp_out,
        serde_json::to_string_pretty(&udp_doc).unwrap() + "\n",
    )
    .expect("write JSON");
    println!("wrote {udp_out}");
}
