//! The five named workloads: what each one is, why it exists, and how
//! to run one closed-loop round of it through the program's public
//! runners. Sizing (UDP only, 20 ms fixed RTO when lossless, rounds of
//! at least 0.1 s) is justified in `benchmark/README.md`.

use crate::host::{self, Elapsed, Stopwatch};
use crate::{inputs, reference};
use std::time::Duration;
use switchml_core::config::{Protocol, RtoPolicy};
use switchml_core::switch::SwitchStats;
use switchml_core::worker::engine::EngineStats;
use switchml_ctrl::sched::{
    run_scheduled, sched_fabric_size, Class, SchedJob, SchedRunConfig, TenantSpec,
};
use switchml_transport::faulty::{faulty_fabric, FaultyConfig};
use switchml_transport::udp::udp_fabric;
use switchml_transport::{
    hier_fabric_size, run_allreduce_hier, run_allreduce_reactor, sharded_fabric_size, HierConfig,
    RunConfig, RunReport,
};

/// Frames per burst on every data-plane workload (GRO engages from 8).
pub const BURST: usize = 32;
/// Aggregator slots per pool version (the paper's 128-slot pool).
pub const POOL_SIZE: usize = 128;
/// A round that has not finished by then has failed; it is charged
/// this long in the latency samples.
pub const MAX_WALL: Duration = Duration::from_secs(10);
/// Lossless workloads: a fixed RTO far above any scheduling hiccup, so
/// a descheduled thread cannot start a retransmission storm.
const LOSSLESS_RTO_NS: u64 = 20_000_000;

/// Slots the tenants share. With 2 workers per job at most 128 updates
/// are in flight, about half of what the switch's socket buffer holds
/// (`rmem_default` 208 KiB ÷ ~768 B per small datagram): `ctrl` sends
/// `AdmitJob` to the switch once, unacknowledged, over the same socket,
/// and at 128 slots an overflow dropped it about once in 100 rounds,
/// wedging that job until `max_wall`.
const TENANT_CAPACITY: u32 = 64;

/// Silence after which `ctrl` declares a tenant's worker dead. The
/// default 25 ms is shorter than the stalls this VM's hypervisor
/// imposes (`hrtimer: interrupt took 19915322 ns` in its log; whole
/// vCPUs stolen for longer under load): at 20 % steal live workers
/// were declared dead in 4 of 420 rounds and their jobs finished short
/// a member. No worker dies in this workload, so the detector gets a
/// timeout no stall reaches.
const TENANT_FAILURE_TIMEOUT: Duration = Duration::from_secs(2);

/// Which runner a workload drives, with its shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `run_allreduce_reactor`: 1 reactor thread + 1 switch shard
    /// thread; `loss` is the per-send drop probability, if any.
    Flat { loss: Option<f64> },
    /// `run_allreduce_hier`: `racks` leaves under one spine.
    Hier { racks: usize, per_rack: usize },
    /// `ctrl::sched::run_scheduled`: `jobs` tenants arriving 20 ms
    /// apart; the last one is `Class::High` and preempts the others.
    Tenants { jobs: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Workers per job.
    pub workers: usize,
    /// Elements per packet.
    pub k: usize,
    /// Elements per worker tensor (per job for tenants).
    pub elems: usize,
    /// Thread layout, reported in the JSON: the program's own choice
    /// for `hier-udp`/`tenants-udp`, the benchmark's for the rest.
    pub threads: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "udp-k32",
        why: "the paper's deployed k=32: ~2 us per chunk, so per-packet layers (codec, switch ingress, slot engine, syscalls) do nearly all the work",
        kind: Kind::Flat { loss: None },
        workers: 2,
        k: 32,
        elems: 1 << 21,
        threads: "1 reactor + 1 switch shard (= nproc 2)",
    },
    Workload {
        name: "udp-k256",
        why: "MTU-sized what-if of section 5.5: 8x fewer packets per element, so per-element layers (quantize, byteswap, slot add, copies) dominate",
        kind: Kind::Flat { loss: None },
        workers: 2,
        k: 256,
        elems: 1 << 22,
        threads: "1 reactor + 1 switch shard (= nproc 2)",
    },
    Workload {
        name: "udp-loss1",
        why: "Fig. 5's regime, 1% loss with adaptive RTO: time is RTO waits, timer wheel and the switch's duplicate/result-retransmit path",
        kind: Kind::Flat { loss: Some(0.01) },
        workers: 2,
        k: 32,
        elems: 1 << 15,
        threads: "1 reactor + 1 switch shard (= nproc 2)",
    },
    Workload {
        name: "hier-udp",
        why: "2 racks x 4 workers under a spine: the only workload where the leaf-to-spine up-hop and hop-scoped RTO do work",
        kind: Kind::Hier { racks: 2, per_rack: 4 },
        workers: 8,
        k: 32,
        elems: 1 << 20,
        threads: "program's layout: spine + 2 leaves + 1 reactor thread on 2 cores",
    },
    Workload {
        name: "tenants-udp",
        why: "3 jobs share one switch, a High arrival preempts: admission, MultiJobSwitch::on_packet and the owned Packet decode/encode path",
        kind: Kind::Tenants { jobs: 3 },
        workers: 2,
        k: 32,
        elems: 1 << 18,
        threads: "program's layout: switch + 6 worker threads + driver on 2 cores",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything set-up produces for one seed: the generated inputs, the
/// reference they must aggregate to, and the inputs' fingerprint.
pub struct Prepared {
    /// One tensor per worker; for tenants, job `j` owns workers
    /// `j * workers .. (j + 1) * workers`.
    pub inputs: Vec<Vec<f32>>,
    /// The reference aggregate (empty for tenants: `SchedRunReport`
    /// returns no tensors, see `Workload::run_round`).
    pub expected: Vec<f32>,
    pub input_hash: u64,
}

/// Counters of the untraced rounds, summed over rounds, from
/// `RunReport` / `HierReport` / `SchedRunReport`.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub rounds: u64,
    /// Chunks aggregated (one per slot completion at the top switch).
    pub chunks: u64,
    pub engine: EngineStats,
    pub switch: SwitchStats,
    /// Updates processed by the busiest switch thread, and results
    /// accepted by the busiest worker-side thread: the two candidates
    /// for the critical path in the ledger.
    pub busiest_switch_updates: u64,
    pub busiest_worker_results: u64,
    pub send_errors: u64,
    pub injected_drops: u64,
    pub polls: u64,
    pub rx_batches: u64,
    pub idle_sleeps: u64,
    pub timer_fires: u64,
    pub cascades: u64,
    /// Leaf-to-spine hop (hier only).
    pub up: EngineStats,
    pub leaf_completions: u64,
    /// Scheduler (tenants only).
    pub resizes: u64,
    /// Per-round samples that are not sums.
    pub srtt_us: Vec<f64>,
    pub up_srtt_us: Vec<f64>,
    pub first_agg_us: Vec<f64>,
    pub job_ms: Vec<f64>,
}

/// One closed-loop round as seen from the benchmark.
pub struct Round {
    pub timing: Timing,
    /// The runner's own `wall`, for `runner.overhead_ms`.
    pub inner_wall: Duration,
    /// Latency samples this round contributes to `tat_ms_p50`: the
    /// call itself, or one submit-to-complete latency per tenant job.
    pub latencies: Vec<Duration>,
    /// `Err` names what failed: runner error, timeout, or the first
    /// element that is not bit-identical to the reference.
    pub verdict: Result<(), String>,
}

impl Workload {
    /// Tensors a round aggregates (jobs × workers).
    fn total_workers(&self) -> usize {
        match self.kind {
            Kind::Tenants { jobs } => jobs * self.workers,
            _ => self.workers,
        }
    }

    /// Elements aggregated per round: per worker tensor, summed over jobs.
    pub fn elems_per_round(&self) -> u64 {
        match self.kind {
            Kind::Tenants { jobs } => (jobs * self.elems) as u64,
            _ => self.elems as u64,
        }
    }

    pub fn chunks_per_round(&self) -> u64 {
        self.elems_per_round() / self.k as u64
    }

    /// Generate the inputs for `seed` and their reference aggregate.
    pub fn prepare(&self, seed: u64) -> Prepared {
        let inputs = inputs::tensors(seed, 0, self.total_workers(), self.elems);
        let expected = match self.kind {
            Kind::Tenants { .. } => Vec::new(),
            _ => reference::expected(&inputs, inputs::SCALING_FACTOR),
        };
        let input_hash = inputs::fingerprint(&inputs);
        Prepared {
            inputs,
            expected,
            input_hash,
        }
    }

    pub fn proto(&self) -> Protocol {
        let (rto_ns, rto_policy) = match self.kind {
            // The scenario suite's convention for lossy runs.
            Kind::Flat { loss: Some(_) } => (
                1_000_000,
                RtoPolicy::Adaptive {
                    min_ns: 250_000,
                    max_ns: 32_000_000,
                },
            ),
            _ => (LOSSLESS_RTO_NS, RtoPolicy::Fixed),
        };
        Protocol {
            n_workers: self.workers,
            k: self.k,
            pool_size: POOL_SIZE,
            rto_ns,
            rto_policy,
            scaling_factor: inputs::SCALING_FACTOR,
            ..Protocol::default()
        }
    }

    /// Run one round: build the fabric and the owned inputs the runner
    /// consumes (untimed), time the runner call, then verify every
    /// worker's tensor against the reference (untimed) and fold the
    /// report's counters into `counters`.
    pub fn run_round(&self, prep: &Prepared, fault_seed: u64, counters: &mut Counters) -> Round {
        let updates = |range: std::ops::Range<usize>| -> Vec<Vec<Vec<f32>>> {
            prep.inputs[range].iter().map(|t| vec![t.clone()]).collect()
        };
        let cfg = RunConfig {
            max_wall: MAX_WALL,
            n_cores: 1,
            burst: BURST,
        };
        let proto = self.proto();
        counters.rounds += 1;
        match self.kind {
            Kind::Flat { loss } => {
                let ports =
                    udp_fabric(sharded_fabric_size(self.workers, 1)).expect("loopback UDP sockets");
                let ups = updates(0..self.workers);
                let (result, timing) = match loss {
                    None => timed(|| run_allreduce_reactor(ports, ups, &proto, &cfg, 1)),
                    Some(p) => {
                        let (ports, _) =
                            faulty_fabric(ports, FaultyConfig::loss_only(p), fault_seed);
                        timed(|| run_allreduce_reactor(ports, ups, &proto, &cfg, 1))
                    }
                };
                self.finish_single(result, timing, prep, counters)
            }
            Kind::Hier { racks, per_rack } => {
                let ports =
                    udp_fabric(hier_fabric_size(racks, per_rack)).expect("loopback UDP sockets");
                let ups = updates(0..self.workers);
                let hier = HierConfig {
                    n_threads: 1,
                    ..HierConfig::new(racks, per_rack)
                };
                let (result, timing) =
                    timed(|| run_allreduce_hier(ports, ups, &proto, &cfg, &hier));
                self.finish_single(result, timing, prep, counters)
            }
            Kind::Tenants { jobs } => {
                let sched_jobs: Vec<SchedJob> = (0..jobs)
                    .map(|j| SchedJob {
                        tenant: TenantSpec {
                            job: j as u8,
                            class: if j == jobs - 1 {
                                Class::High
                            } else {
                                Class::BestEffort
                            },
                            weight: 1,
                            // The High job may take half the pool; the
                            // best-effort tenants keep sharing the rest.
                            quota: if j == jobs - 1 {
                                TENANT_CAPACITY / 2
                            } else {
                                0
                            },
                            min_slots: 1,
                        },
                        updates: updates(j * self.workers..(j + 1) * self.workers),
                        submit_at: Duration::from_millis(20 * j as u64),
                    })
                    .collect();
                let ports =
                    udp_fabric(sched_fabric_size(&sched_jobs)).expect("loopback UDP sockets");
                let scfg = SchedRunConfig {
                    max_wall: MAX_WALL,
                    capacity: TENANT_CAPACITY,
                    failure_timeout: TENANT_FAILURE_TIMEOUT,
                    ..SchedRunConfig::default()
                };
                let (result, timing) = timed(|| run_scheduled(ports, sched_jobs, &proto, &scfg));
                let report = match result {
                    Ok(r) => r,
                    Err(e) => return failed_round(timing, jobs, e.to_string()),
                };
                // `SchedRunReport` carries no tensors, so the oracle
                // cannot see them: correctness here is the program's
                // own all-workers-bit-identical check per job.
                let verdict = if report.outcomes.len() == jobs
                    && report.outcomes.iter().all(|o| o.admitted)
                    && report.all_complete()
                {
                    Ok(())
                } else {
                    let bad: Vec<String> = report
                        .outcomes
                        .iter()
                        .filter(|o| {
                            !(o.admitted && o.completed_at.is_some() && o.results_identical)
                        })
                        .map(|o| format!("job {}", o.job))
                        .collect();
                    // The scheduler's own event log says which step wedged.
                    for e in &report.events {
                        eprintln!("  tenants-udp event: {e}");
                    }
                    Err(format!(
                        "incomplete or diverging tenants: {}",
                        bad.join(", ")
                    ))
                };
                let mut latencies = Vec::with_capacity(jobs);
                counters.chunks += self.chunks_per_round();
                let mut busiest = 0;
                for o in &report.outcomes {
                    latencies.push(o.completed_at.unwrap_or(MAX_WALL));
                    counters.engine.merge(o.worker_stats);
                    counters.switch.merge(o.switch_stats);
                    // One switch thread serves every job.
                    counters.busiest_switch_updates += o.switch_stats.updates;
                    busiest = busiest.max(o.worker_stats.results / self.workers as u64);
                    counters.resizes += u64::from(o.resizes);
                    counters.srtt_us.push(o.worker_stats.srtt_ns as f64 / 1e3);
                    counters
                        .job_ms
                        .push(o.completed_at.unwrap_or(MAX_WALL).as_secs_f64() * 1e3);
                    if let Some(t) = o.first_aggregate {
                        counters.first_agg_us.push(t.as_secs_f64() * 1e6);
                    }
                }
                counters.busiest_worker_results += busiest;
                counters.send_errors += report.transport_stats.send_errors;
                Round {
                    timing,
                    inner_wall: report.wall,
                    latencies,
                    verdict,
                }
            }
        }
    }

    /// Verify and account a single-job round (`Flat` and `Hier`).
    fn finish_single(
        &self,
        result: switchml_core::error::Result<RunReport>,
        timing: Timing,
        prep: &Prepared,
        counters: &mut Counters,
    ) -> Round {
        let report = match result {
            Ok(r) => r,
            Err(e) => return failed_round(timing, 1, e.to_string()),
        };
        let verdict = reference::check_all(&report.results, &prep.expected)
            .map_err(|m| m.to_string())
            .and_then(|()| {
                if report.results.len() == self.workers {
                    Ok(())
                } else {
                    Err(format!(
                        "{} of {} workers reported",
                        report.results.len(),
                        self.workers
                    ))
                }
            });
        let mut engine = EngineStats::default();
        for s in &report.worker_stats {
            engine.merge(*s);
        }
        counters.chunks += report.switch_stats.completions;
        counters.engine.merge(engine);
        counters.switch.merge(report.switch_stats);
        counters.srtt_us.push(engine.srtt_ns as f64 / 1e3);
        counters.send_errors += report.transport_stats.send_errors;
        counters.injected_drops +=
            report.transport_stats.injected_send_drops + report.transport_stats.injected_recv_drops;
        // One reactor thread drives every worker engine.
        counters.busiest_worker_results += engine.results + engine.stale;
        let mut busiest_switch = report.switch_stats.updates;
        if let Some(r) = report.reactor {
            counters.polls += r.polls;
            counters.rx_batches += r.rx_batches;
            counters.idle_sleeps += r.idle_sleeps;
            counters.timer_fires += r.timer_fires;
            counters.cascades += r.cascades;
        }
        if let Some(h) = &report.hier {
            let mut up = EngineStats::default();
            for (leaf, up_stats) in h.leaf_switch_stats.iter().zip(&h.leaf_up_stats) {
                counters.switch.merge(*leaf);
                counters.leaf_completions += leaf.completions;
                busiest_switch = busiest_switch.max(leaf.updates);
                up.merge(*up_stats);
            }
            counters.up.merge(up);
            counters.up_srtt_us.push(up.srtt_ns as f64 / 1e3);
        }
        counters.busiest_switch_updates += busiest_switch;
        Round {
            timing,
            inner_wall: report.wall,
            latencies: vec![timing.call.wall],
            verdict,
        }
    }
}

/// What the benchmark sees of one runner call from outside.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// The runner call (flatten + spawn + run + join) by the wall
    /// clock, with the hypervisor's steal during it.
    pub call: Elapsed,
    /// Process CPU (user + system, all threads) across the call.
    pub cpu_ns: u64,
}

/// Time `f` by the wall clock, the steal clock and the process CPU clock.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cpu0 = host::process_cpu_ns();
    let watch = Stopwatch::start();
    let out = f();
    let call = watch.elapsed();
    let cpu_ns = host::process_cpu_ns() - cpu0;
    (out, Timing { call, cpu_ns })
}

/// A round the runner gave up on: every latency sample it owed is
/// charged the full `MAX_WALL`, so a failure can never look fast.
fn failed_round(timing: Timing, samples: usize, why: String) -> Round {
    Round {
        timing: Timing {
            call: Elapsed {
                wall: timing.call.wall.max(MAX_WALL),
                ..timing.call
            },
            ..timing
        },
        inner_wall: timing.call.wall,
        latencies: vec![MAX_WALL; samples],
        verdict: Err(why),
    }
}
