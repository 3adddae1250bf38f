//! One workload, one process: set up, warm up, run closed-loop rounds
//! for the time budget, verify every round, and reduce the samples to
//! the end-to-end metrics (`--trace 0`) or, with the traced pipeline
//! alongside, to the per-layer metrics (`--trace 1`).

use crate::host::{self, Stopwatch};
use crate::pipeline::{self, Counts, Ingress};
use crate::stats::{iqr_frac, median, tail};
use crate::trace::{self, Stage, StageTotal, Tracer, N_STAGES};
use crate::workloads::{Counters, Kind, Prepared, Round, Workload, MAX_WALL};
use crate::{inputs, reference};
use serde_json::{json, Value};
use std::time::Instant;
use switchml_core::config::Protocol;
use switchml_transport::faulty::{faulty_fabric, FaultyConfig};
use switchml_transport::udp::udp_fabric;

/// `(name, unit, better)` of every end-to-end metric, as
/// `BENCHMARK.json` lists them. `failed_frac` is not among them: the
/// contract forbids a metric that is 0 on a healthy run, so failures
/// travel in the result line's `attempted` / `failed` instead.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("ate_per_s", "1/s", "higher"),
    ("tat_ms_p50", "ms", "lower"),
    ("cpu_ns_per_elem", "ns", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// `(name, unit, better)` of every per-layer metric. A layer that does
/// not run in a workload reports 0 there (see the README's table).
pub const PER_LAYER: [(&str, &str, &str); 56] = [
    ("quant.quantize_ns_per_elem", "ns", "lower"),
    ("quant.dequantize_ns_per_elem", "ns", "lower"),
    ("packet.encode_update_ns_per_pkt", "ns", "lower"),
    ("packet.parse_ns_per_pkt", "ns", "lower"),
    ("packet.load_elems_ns_per_pkt", "ns", "lower"),
    ("packet.decode_owned_ns_per_pkt", "ns", "lower"),
    ("packet.encode_owned_ns_per_pkt", "ns", "lower"),
    ("switch.on_view_ns_per_pkt", "ns", "lower"),
    ("switch.multijob_on_packet_ns_per_pkt", "ns", "lower"),
    ("switch.allocs_per_pkt", "count", "lower"),
    ("switch.duplicates_per_kpkt", "count", "lower"),
    ("switch.result_retx_per_kpkt", "count", "lower"),
    ("switch.completions", "count", "higher"),
    ("engine.on_result_ns_per_pkt", "ns", "lower"),
    ("engine.expired_ns_per_call", "ns", "lower"),
    ("engine.first_sends", "count", "lower"),
    ("engine.retx_per_kpkt", "count", "lower"),
    ("engine.wire_efficiency", "ratio", "higher"),
    ("engine.srtt_us", "us", "lower"),
    ("engine.karn_discards", "count", "lower"),
    ("port.send_ns_per_pkt", "ns", "lower"),
    ("port.recv_ns_per_pkt", "ns", "lower"),
    ("port.frames_per_send_call", "count", "higher"),
    ("port.frames_per_recv_call", "count", "higher"),
    ("port.send_errors", "count", "lower"),
    ("port.injected_drops", "count", "lower"),
    ("wheel.schedule_cancel_ns_per_op", "ns", "lower"),
    ("wheel.advance_ns_per_tick", "ns", "lower"),
    ("reactor.polls_per_pkt", "count", "lower"),
    ("reactor.empty_poll_frac", "ratio", "lower"),
    ("reactor.idle_sleeps_per_round", "count", "lower"),
    ("reactor.timer_fires_per_round", "count", "lower"),
    ("reactor.cascades", "count", "lower"),
    ("runner.overhead_ms", "ms", "lower"),
    ("runner.tat_ms_tail", "ms", "lower"),
    ("runner.tail_percentile", "%", "higher"),
    ("runner.tat_ms_min", "ms", "lower"),
    ("runner.tat_wall_ms_p50", "ms", "lower"),
    ("host.steal_frac", "ratio", "lower"),
    ("hier.up_retx_per_kpkt", "count", "lower"),
    ("hier.up_srtt_us", "us", "lower"),
    ("hier.worker_retx_per_kpkt", "count", "lower"),
    ("hier.leaf_completions", "count", "higher"),
    ("sched.admit_to_first_agg_us_p50", "us", "lower"),
    ("sched.job_ms_tail", "ms", "lower"),
    ("sched.resizes_per_round", "count", "lower"),
    ("sched.stale_epoch_drops", "count", "lower"),
    ("ledger.switch_thread_ns_per_chunk", "ns", "lower"),
    ("ledger.worker_thread_ns_per_chunk", "ns", "lower"),
    ("ledger.critical_ns_per_chunk", "ns", "lower"),
    ("ledger.measured_ns_per_chunk", "ns", "lower"),
    ("ledger.unattributed_frac", "ratio", "lower"),
    ("driver.self_frac", "ratio", "lower"),
    ("driver.idle_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.rounds", "count", "higher"),
];

/// Untimed warm-up rounds before the first measured round.
const WARMUP_ROUNDS: u64 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A time budget still yields at least this many measured rounds.
const MIN_ROUNDS: usize = 3;
/// Share of a traced run's budget spent on untraced rounds (for the
/// counters); the rest goes to the traced pipeline.
const TRACE_COUNTER_SHARE: f64 = 0.4;

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Closed loop until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many rounds (`--rounds`, the smoke check).
    Rounds(usize),
}

pub struct Options {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub spans_out: Option<std::path::PathBuf>,
}

/// What one process prints: the contract's result line, and a detail
/// line (sample counts, determinism counters, thread layout) for the
/// `run` / `trace` / `compare` commands.
pub struct Outcome {
    pub result: Value,
    pub detail: Value,
}

/// Fault seed of measured round `r` (warm-ups draw from a far range).
fn fault_seed(seed: u64, r: u64) -> u64 {
    seed.wrapping_add(r)
}

/// One set-up: inputs, reference, fabric and warm-up rounds. Each
/// repetition `rep` warms up under fault seeds of its own, so that the
/// median over repetitions averages over which packets get lost.
fn set_up(w: &Workload, seed: u64, rep: u64) -> Prepared {
    let prep = w.prepare(seed);
    let mut scratch = Counters::default();
    for i in 0..WARMUP_ROUNDS {
        let warmup = 1 << 32 | (rep * WARMUP_ROUNDS + i);
        let r = w.run_round(&prep, fault_seed(seed, warmup), &mut scratch);
        if let Err(e) = r.verdict {
            eprintln!("{}: warm-up round {i} failed: {e}", w.name);
        }
    }
    prep
}

/// Closed loop over `budget`: the next round starts when the previous
/// one has returned and been verified.
fn measured_rounds(
    w: &Workload,
    prep: &Prepared,
    seed: u64,
    budget: Budget,
    counters: &mut Counters,
) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let done = match budget {
            Budget::Seconds(s) => rounds.len() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= s,
            Budget::Rounds(n) => rounds.len() >= n,
        };
        if done {
            return rounds;
        }
        let r = rounds.len() as u64;
        let round = w.run_round(prep, fault_seed(seed, r), counters);
        if let Err(e) = &round.verdict {
            eprintln!("{}: round {r} FAILED: {e}", w.name);
        }
        rounds.push(round);
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Every latency sample of `rounds`, each net of the steal its round
/// saw (for a single-job round that is the call's own net time).
fn net_latencies_ms(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| {
            let frac = r.timing.call.unstolen_frac();
            r.latencies.iter().map(move |&d| ms(d) * frac)
        })
        .collect()
}

/// Share of the VM's CPU time the hypervisor took during `rounds`.
fn steal_frac(rounds: &[Round]) -> f64 {
    let wall: f64 = rounds
        .iter()
        .map(|r| r.timing.call.wall.as_secs_f64())
        .sum();
    let steal: f64 = rounds
        .iter()
        .map(|r| r.timing.call.steal.as_secs_f64())
        .sum();
    steal / (host::nproc() as f64 * wall.max(1e-9))
}

fn metrics_object(names: &[(&str, &str, &str)], value: impl Fn(&str) -> f64) -> Value {
    Value::Object(
        names
            .iter()
            .map(|(name, unit, _)| {
                (
                    name.to_string(),
                    json!({ "value": value(name), "unit": *unit }),
                )
            })
            .collect(),
    )
}

/// Counters that must repeat exactly for a seed: the inputs and the
/// per-round first sends / completions of the lossless workloads.
fn determinism(w: &Workload, prep: &Prepared, c: &Counters) -> Value {
    let exact = !matches!(w.kind, Kind::Flat { loss: Some(_) } | Kind::Tenants { .. });
    let per_round = |total: u64| total as f64 / c.rounds.max(1) as f64;
    json!({
        "input_hash": format!("{:016x}", prep.input_hash),
        "exact_counters": exact,
        "engine.first_sends": per_round(c.engine.sent),
        "switch.completions": per_round(c.switch.completions)
    })
}

pub fn run(w: &Workload, opt: &Options) -> Outcome {
    if opt.trace {
        return run_traced(w, opt);
    }
    // Set up several times and report the median: one set-up's time is
    // mostly two warm-up rounds, too few to be steady on their own.
    let reps = match opt.budget {
        Budget::Seconds(_) => SETUP_REPS,
        Budget::Rounds(_) => 1,
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut prep = None;
    for rep in 0..reps {
        let watch = Stopwatch::start();
        prep = Some(set_up(w, opt.seed, rep as u64));
        setup_s.push(watch.elapsed().net_s());
    }
    let prep = prep.expect("at least one set-up");

    let mut counters = Counters::default();
    let rounds = measured_rounds(w, &prep, opt.seed, opt.budget, &mut counters);
    let failed = rounds.iter().filter(|r| r.verdict.is_err()).count();

    let call_s: Vec<f64> = rounds.iter().map(|r| r.timing.call.net_s()).collect();
    let tat_ms = net_latencies_ms(&rounds);
    let elems = w.elems_per_round() as f64;
    let cpu: Vec<f64> = rounds
        .iter()
        .map(|r| r.timing.cpu_ns as f64 / elems)
        .collect();
    let value = |name: &str| match name {
        "ate_per_s" => elems / median(&call_s),
        "tat_ms_p50" => median(&tat_ms),
        "cpu_ns_per_elem" => median(&cpu),
        "peak_rss_mb" => host::peak_rss_mb(),
        "setup_s" => median(&setup_s),
        other => unreachable!("unknown end-to-end metric {other}"),
    };
    let (tail_p, tail_ms) = tail(&tat_ms);
    Outcome {
        result: json!({
            "correct": failed == 0,
            "attempted": rounds.len(),
            "failed": failed,
            "metrics": metrics_object(&END_TO_END, value)
        }),
        detail: json!({
            "workload": w.name,
            "why": w.why,
            "seed": opt.seed,
            "loop": "closed: the next round starts when the previous one has returned",
            "threads": w.threads,
            "rounds": rounds.len(),
            "failed_frac": failed as f64 / rounds.len() as f64,
            "samples": json!({
                "ate_per_s": call_s.len(),
                "tat_ms_p50": tat_ms.len(),
                "cpu_ns_per_elem": cpu.len(),
                "setup_s": setup_s.len()
            }),
            "tat_ms_tail": json!({ "percentile": tail_p * 100.0, "value": tail_ms }),
            "round_iqr_frac": iqr_frac(&call_s),
            "round_ms": call_s.iter().map(|s| (s * 1e5).round() / 100.0).collect::<Vec<f64>>(),
            "round_wall_ms": rounds.iter().map(|r| (ms(r.timing.call.wall) * 100.0).round() / 100.0).collect::<Vec<f64>>(),
            "host_steal_frac": steal_frac(&rounds),
            "determinism": determinism(w, &prep, &counters)
        }),
    }
}

/// The pipeline variant that stands for a workload: its `k`, its RTO
/// policy and loss, two workers, and the tenant path's owned ingress
/// for `tenants-udp`. `hier-udp` runs the same per-packet layers as
/// the flat star (leaf and spine are `ReliableSwitch`es, the up-hop a
/// `SlotEngine`), so it is traced as one. Returns the elements per
/// worker too: the workload's, except under loss, where one thread
/// pays every blocked poll of the faulty port in sequence and a
/// quarter of the tensor (two windows) keeps a round near half a second.
fn pipeline_shape(w: &Workload) -> (Protocol, Ingress, usize) {
    let (ingress, elems) = match w.kind {
        Kind::Tenants { .. } => (Ingress::Owned, w.elems),
        Kind::Flat { loss: Some(_) } => (Ingress::View, w.elems / 4),
        _ => (Ingress::View, w.elems),
    };
    (
        Protocol {
            n_workers: 2,
            ..w.proto()
        },
        ingress,
        elems,
    )
}

struct Traced {
    totals: [StageTotal; N_STAGES],
    counts: Counts,
    on_s: Vec<f64>,
    off_s: Vec<f64>,
    failed: usize,
    spans: Vec<Value>,
}

/// Alternate traced and untraced pipeline rounds (the difference of
/// their medians is the tracing overhead), verifying each.
fn traced_rounds(w: &Workload, prep: &Prepared, opt: &Options, pairs: Budget) -> Traced {
    let (proto, ingress, elems) = pipeline_shape(w);
    let ins: Vec<Vec<f32>> = prep.inputs[..2]
        .iter()
        .map(|t| t[..elems].to_vec())
        .collect();
    let ins = ins.as_slice();
    let want = reference::expected(ins, inputs::SCALING_FACTOR);
    let mut out = Traced {
        totals: [StageTotal::default(); N_STAGES],
        counts: Counts::default(),
        on_s: Vec::new(),
        off_s: Vec::new(),
        failed: 0,
        spans: Vec::new(),
    };
    let clock_ns = trace::clock_cost_ns();
    let start = Instant::now();
    let mut round = 0u32;
    loop {
        let done = match pairs {
            Budget::Seconds(s) => out.on_s.len() >= 2 && start.elapsed().as_secs_f64() >= s,
            Budget::Rounds(n) => out.on_s.len() >= n,
        };
        if done {
            return out;
        }
        // Alternate which side of the pair runs first.
        let order = if round.is_multiple_of(4) {
            [true, false]
        } else {
            [false, true]
        };
        for on in order {
            let mut tr = Tracer::new(on);
            tr.set_round(round);
            let ports = udp_fabric(3).expect("loopback UDP sockets");
            let res = match w.kind {
                Kind::Flat { loss: Some(p) } => {
                    let seed = fault_seed(opt.seed, u64::from(round));
                    let (ports, _) = faulty_fabric(ports, FaultyConfig::loss_only(p), seed);
                    pipeline::run_round(ports, ins, &proto, ingress, &mut tr)
                }
                _ => pipeline::run_round(ports, ins, &proto, ingress, &mut tr),
            };
            let verdict = res.and_then(|r| {
                for (worker, got) in r.results.iter().enumerate() {
                    reference::check_worker(worker, got, &want).map_err(|m| m.to_string())?;
                }
                Ok(r)
            });
            match verdict {
                Ok(r) => {
                    let wall = r.elapsed.net_s();
                    if on {
                        out.on_s.push(wall);
                        out.counts.add(r.counts);
                        // Spans are wall-clock intervals: take the
                        // round's stolen share off them, as off the round.
                        let had_cpu = r.elapsed.unstolen_frac();
                        for (t, add) in out
                            .totals
                            .iter_mut()
                            .zip(trace::self_times(tr.spans(), clock_ns))
                        {
                            t.self_ns += (add.self_ns as f64 * had_cpu) as u64;
                            t.count += add.count;
                            t.spans += add.spans;
                        }
                        if opt.spans_out.is_some() {
                            if let Value::Array(rows) = tr.to_json() {
                                out.spans.extend(rows);
                            }
                        }
                    } else {
                        out.off_s.push(wall);
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("{}: traced pipeline round {round} FAILED: {e}", w.name);
                    let side = if on { &mut out.on_s } else { &mut out.off_s };
                    side.push(MAX_WALL.as_secs_f64());
                }
            }
            round += 1;
        }
    }
}

fn run_traced(w: &Workload, opt: &Options) -> Outcome {
    let prep = set_up(w, opt.seed, 0);
    let (counter_budget, pipe_budget) = match opt.budget {
        Budget::Seconds(s) => (
            Budget::Seconds(s * TRACE_COUNTER_SHARE),
            Budget::Seconds(s * (1.0 - TRACE_COUNTER_SHARE)),
        ),
        Budget::Rounds(n) => (Budget::Rounds(n), Budget::Rounds((n / 3).max(1))),
    };
    let mut c = Counters::default();
    let rounds = measured_rounds(w, &prep, opt.seed, counter_budget, &mut c);
    let t = traced_rounds(w, &prep, opt, pipe_budget);
    if let Some(path) = &opt.spans_out {
        let text = serde_json::to_string(&Value::Array(t.spans.clone())).expect("spans serialise");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    let failed = rounds.iter().filter(|r| r.verdict.is_err()).count() + t.failed;
    let attempted = rounds.len() + t.on_s.len() + t.off_s.len();

    let k = w.k as f64;
    let st = |s: Stage| t.totals[s as usize];
    let per_k = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 * 1e3 / den as f64
        }
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let n_rounds = c.rounds.max(1) as f64;
    let call_ms: Vec<f64> = rounds.iter().map(|r| r.timing.call.net_s() * 1e3).collect();
    let tat_ms = net_latencies_ms(&rounds);
    let wall_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies.iter().map(|&d| ms(d)))
        .collect();
    let overhead_ms: Vec<f64> = rounds
        .iter()
        .map(|r| ms(r.timing.call.wall.saturating_sub(r.inner_wall)))
        .collect();
    let (tail_p, tail_ms) = tail(&tat_ms);
    let all_sends = c.engine.sent + c.engine.retx;

    // The ledger: per-packet self times from the traced pipeline times
    // the packet counters of the untraced rounds, per thread.
    let ingress_ns = st(Stage::OnView).ns_per_call()
        + st(Stage::DecodeOwned).ns_per_call()
        + st(Stage::MultiJobOnPacket).ns_per_call()
        + st(Stage::EncodeOwned).ns_per_call();
    let rx_ns = st(Stage::Recv).ns_per_call() + st(Stage::Parse).ns_per_call();
    let send_ns = st(Stage::Send).ns_per_call();
    let frames_out_per_update = 1.0 + ratio(c.switch.result_retx as f64, c.switch.updates as f64);
    let chunks = c.chunks.max(1) as f64;
    let switch_thread = c.busiest_switch_updates as f64
        * (rx_ns + ingress_ns + frames_out_per_update * send_ns)
        / chunks;
    let per_result = rx_ns
        + st(Stage::OnResult).ns_per_call()
        + st(Stage::LoadElems).ns_per_call()
        + st(Stage::Dequantize).ns_per_call();
    let per_send =
        st(Stage::Quantize).ns_per_call() + st(Stage::EncodeUpdate).ns_per_call() + send_ns;
    let sends_per_result = ratio(all_sends as f64, (c.engine.results + c.engine.stale) as f64);
    let worker_thread =
        c.busiest_worker_results as f64 * (per_result + sends_per_result * per_send) / chunks;
    let critical = switch_thread.max(worker_thread);
    let measured = median(&call_ms) * 1e6 / w.chunks_per_round() as f64;
    let traced_ns: u64 = t.totals.iter().map(|s| s.self_ns).sum();

    let value = |name: &str| -> f64 {
        match name {
            "quant.quantize_ns_per_elem" => st(Stage::Quantize).ns_per_call() / k,
            "quant.dequantize_ns_per_elem" => st(Stage::Dequantize).ns_per_call() / k,
            "packet.encode_update_ns_per_pkt" => st(Stage::EncodeUpdate).ns_per_call(),
            "packet.parse_ns_per_pkt" => st(Stage::Parse).ns_per_call(),
            "packet.load_elems_ns_per_pkt" => st(Stage::LoadElems).ns_per_call(),
            "packet.decode_owned_ns_per_pkt" => st(Stage::DecodeOwned).ns_per_call(),
            "packet.encode_owned_ns_per_pkt" => st(Stage::EncodeOwned).ns_per_call(),
            "switch.on_view_ns_per_pkt" => st(Stage::OnView).ns_per_call(),
            "switch.multijob_on_packet_ns_per_pkt" => st(Stage::MultiJobOnPacket).ns_per_call(),
            "switch.allocs_per_pkt" => {
                ratio(t.counts.switch_allocs as f64, t.counts.switch_pkts as f64)
            }
            "switch.duplicates_per_kpkt" => per_k(c.switch.duplicates, c.switch.updates),
            "switch.result_retx_per_kpkt" => per_k(c.switch.result_retx, c.switch.updates),
            "switch.completions" => c.switch.completions as f64 / n_rounds,
            "engine.on_result_ns_per_pkt" => st(Stage::OnResult).ns_per_call(),
            "engine.expired_ns_per_call" => ratio(
                st(Stage::Expired).self_ns as f64,
                st(Stage::Expired).spans as f64,
            ),
            "engine.first_sends" => c.engine.sent as f64 / n_rounds,
            "engine.retx_per_kpkt" => per_k(c.engine.retx, c.engine.sent),
            "engine.wire_efficiency" => ratio(c.engine.sent as f64, all_sends as f64),
            "engine.srtt_us" => median(&c.srtt_us),
            "engine.karn_discards" => c.engine.karn_discards as f64 / n_rounds,
            "port.send_ns_per_pkt" => send_ns,
            "port.recv_ns_per_pkt" => st(Stage::Recv).ns_per_call(),
            "port.frames_per_send_call" => {
                ratio(t.counts.send_frames as f64, t.counts.send_calls as f64)
            }
            "port.frames_per_recv_call" => {
                ratio(t.counts.recv_frames as f64, t.counts.recv_calls as f64)
            }
            "port.send_errors" => c.send_errors as f64 / n_rounds,
            "port.injected_drops" => c.injected_drops as f64 / n_rounds,
            "wheel.schedule_cancel_ns_per_op" => st(Stage::WheelSchedule).ns_per_call(),
            "wheel.advance_ns_per_tick" => st(Stage::WheelAdvance).ns_per_call(),
            "reactor.polls_per_pkt" => {
                ratio(c.polls as f64, (c.engine.results + c.engine.stale) as f64)
            }
            "reactor.empty_poll_frac" => {
                if c.polls == 0 {
                    0.0
                } else {
                    1.0 - c.rx_batches as f64 / c.polls as f64
                }
            }
            "reactor.idle_sleeps_per_round" => c.idle_sleeps as f64 / n_rounds,
            "reactor.timer_fires_per_round" => c.timer_fires as f64 / n_rounds,
            "reactor.cascades" => c.cascades as f64 / n_rounds,
            "runner.overhead_ms" => median(&overhead_ms),
            "runner.tat_ms_tail" => tail_ms,
            "runner.tail_percentile" => tail_p * 100.0,
            "runner.tat_ms_min" => tat_ms.iter().copied().fold(f64::INFINITY, f64::min),
            "runner.tat_wall_ms_p50" => median(&wall_ms),
            "host.steal_frac" => steal_frac(&rounds),
            "hier.up_retx_per_kpkt" => per_k(c.up.retx, c.up.sent),
            "hier.up_srtt_us" => median(&c.up_srtt_us),
            "hier.worker_retx_per_kpkt" => match w.kind {
                Kind::Hier { .. } => per_k(c.engine.retx, c.engine.sent),
                _ => 0.0,
            },
            "hier.leaf_completions" => c.leaf_completions as f64 / n_rounds,
            "sched.admit_to_first_agg_us_p50" => median(&c.first_agg_us),
            "sched.job_ms_tail" => tail(&c.job_ms).1,
            "sched.resizes_per_round" => c.resizes as f64 / n_rounds,
            "sched.stale_epoch_drops" => match w.kind {
                Kind::Tenants { .. } => {
                    (c.switch.stale_epoch + c.engine.stale_epoch) as f64 / n_rounds
                }
                _ => 0.0,
            },
            "ledger.switch_thread_ns_per_chunk" => switch_thread,
            "ledger.worker_thread_ns_per_chunk" => worker_thread,
            "ledger.critical_ns_per_chunk" => critical,
            "ledger.measured_ns_per_chunk" => measured,
            "ledger.unattributed_frac" => 1.0 - ratio(critical, measured),
            "driver.self_frac" => ratio(st(Stage::Driver).self_ns as f64, traced_ns as f64),
            "driver.idle_frac" => ratio(st(Stage::Idle).self_ns as f64, traced_ns as f64),
            "trace.overhead_frac" => ratio(median(&t.on_s), median(&t.off_s)) - 1.0,
            "trace.rounds" => t.on_s.len() as f64,
            other => unreachable!("unknown per-layer metric {other}"),
        }
    };
    Outcome {
        result: json!({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics_object(&PER_LAYER, value)
        }),
        detail: json!({
            "workload": w.name,
            "why": w.why,
            "seed": opt.seed,
            "threads": w.threads,
            "untraced_rounds": rounds.len(),
            "traced_rounds": t.on_s.len(),
            "untraced_pipeline_rounds": t.off_s.len(),
            "pipeline": "single-threaded flat star, 2 workers, same k / RTO policy / loss as the workload",
            "pipeline_round_ms": json!({ "traced": median(&t.on_s) * 1e3, "untraced": median(&t.off_s) * 1e3 }),
            "determinism": determinism(w, &prep, &c)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is the contract: every name, unit and direction
    /// there must be what this binary prints.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec: Value = serde_json::from_str(&text).expect("valid JSON");
        let rows = |key: &str| -> Vec<(String, String, String)> {
            spec[key]
                .as_array()
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().unwrap_or_default().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect()
        };
        assert_eq!(rows("end_to_end"), own(&END_TO_END));
        assert_eq!(rows("per_layer"), own(&PER_LAYER));
        for (m, (name, bound)) in spec["end_to_end"]
            .as_array()
            .unwrap()
            .iter()
            .zip(crate::compare::BOUNDS)
        {
            assert_eq!(m["name"], name);
            assert_eq!(m["bound"], bound, "{name}");
        }
        assert_eq!(spec["run_seconds"], crate::RUN_SECONDS);
        let names: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().unwrap_or_default())
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for w in spec["workloads"].as_array().unwrap() {
            let why = w["why"].as_str().unwrap_or_default();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    /// A tiny end-to-end pass of both modes on the smallest workload:
    /// every metric present, every round bit-identical.
    #[test]
    fn smoke_loss_workload_both_modes() {
        let w = crate::workloads::find("udp-loss1").unwrap();
        for trace in [false, true] {
            let out = run(
                w,
                &Options {
                    seed: 5,
                    budget: Budget::Rounds(3),
                    trace,
                    spans_out: None,
                },
            );
            assert_eq!(out.result["correct"], true, "{:?}", out.result);
            assert_eq!(out.result["failed"], 0u64);
            let want: &[(&str, &str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit, _) in want {
                let m = &out.result["metrics"][*name];
                assert_eq!(m["unit"], *unit, "{name}");
                assert!(
                    m["value"].as_f64().is_some_and(f64::is_finite),
                    "{name}: {m:?}"
                );
            }
        }
    }
}
