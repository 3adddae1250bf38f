//! Subcommand implementations.

use crate::args::Args;
use std::time::Duration;
use switchml_baselines::{
    run_hd, run_ps, run_ring, run_switchml, run_switchml_hierarchy, run_switchml_traced,
    CollectiveOutcome, HdScenario, HierScenario, PsPlacement, PsScenario, RingScenario,
    SwitchMLScenario,
};
use switchml_core::config::{NumericMode, Protocol};
use switchml_core::switch::pipeline::PipelineModel;
use switchml_core::tune_pool_size;
use switchml_ctrl::netsim::CtrlScenario;
use switchml_ctrl::sched::SchedRunReport;
use switchml_dnn::data::gaussian_blobs;
use switchml_dnn::real_train::{train as train_model, Aggregation, TrainConfig};
use switchml_netsim::trace::EventLog;
use switchml_scenario::{
    library, run_scenario, Detail, Expect, JobClass, JobSpec, RtoMode, RunnerKind, Scenario,
    ScenarioReport, Transport,
};
use switchml_transport::ReactorStats;

fn gbps(args: &Args) -> Result<u64, String> {
    Ok(args.get::<u64>("bandwidth-gbps", 10)? * 1_000_000_000)
}

fn render_outcome(label: &str, elems: usize, out: &CollectiveOutcome, json: bool) -> String {
    if json {
        serde_json::json!({
            "scenario": label,
            "elems": elems,
            "tat_ns": out.max_tat.0,
            "mean_rtt_ns": out.mean_rtt_ns,
            "ate_per_sec": out.ate_per_sec,
            "retransmissions": out.total_retx,
            "verified": out.verified,
            "packets_sent": out.report.counters.sent,
            "packets_dropped": out.report.counters.dropped_loss,
        })
        .to_string()
    } else {
        format!(
            "{label}: aggregated {elems} elems in {} ({:.1} M elem/s)\n  \
             verified: {}   retransmissions: {}   packets: {} sent / {} lost\n  \
             mean per-packet RTT: {:.1} us",
            out.max_tat,
            out.ate_per_sec / 1e6,
            out.verified,
            out.total_retx,
            out.report.counters.sent,
            out.report.counters.dropped_loss,
            out.mean_rtt_ns / 1e3,
        )
    }
}

/// `simulate`: SwitchML on the simulated rack (or multi-rack tree).
pub fn simulate(args: &Args) -> Result<String, String> {
    args.assert_known(&[
        "workers",
        "elems",
        "bandwidth-gbps",
        "pool",
        "k",
        "cores",
        "rto-us",
        "loss",
        "mode",
        "racks",
        "trace",
        "pcap",
        "json",
    ])?;
    let workers: usize = args.get("workers", 8)?;
    let elems: usize = args.get("elems", 1_000_000)?;
    let racks: usize = args.get("racks", 1)?;
    let loss: f64 = args.get("loss", 0.0)?;
    let mode = match args.get_str("mode", "f32").as_str() {
        "f32" => NumericMode::Fixed32,
        "f16" => NumericMode::Float16,
        "i32" => NumericMode::NativeInt32,
        other => return Err(format!("--mode: unknown '{other}' (f32|f16|i32)")),
    };

    let mut sc = SwitchMLScenario::new(workers, elems);
    sc.link.bandwidth_bps = gbps(args)?;
    sc.link = sc.link.with_loss(loss);
    sc.proto.pool_size = args.get("pool", 128)?;
    sc.proto.k = args.get("k", 32)?;
    sc.proto.rto_ns = args.get::<u64>("rto-us", 1_000)? * 1_000;
    sc.proto.mode = mode;
    if mode == NumericMode::Float16 {
        sc.proto.scaling_factor = 1000.0;
    }
    sc.n_cores = args.get("cores", 1)?;
    let json = args.switch("json");

    if racks > 1 {
        if !workers.is_multiple_of(racks) {
            return Err("--workers must divide evenly across --racks".into());
        }
        let mut hs = HierScenario::new(racks, workers / racks, elems);
        hs.proto = sc.proto.clone();
        hs.worker_link = sc.link;
        hs.uplink = sc.link;
        let out = run_switchml_hierarchy(&hs).map_err(|e| e.to_string())?;
        return Ok(render_outcome(
            &format!("switchml ({racks} racks x {} workers)", workers / racks),
            elems,
            &out,
            json,
        ));
    }

    let pcap_path = args.get_str("pcap", "");
    if !pcap_path.is_empty() {
        let mut cap = switchml_netsim::pcap::PcapCapture::new();
        let out = run_switchml_traced(&sc, &mut cap).map_err(|e| e.to_string())?;
        let frames = cap.frames;
        std::fs::write(&pcap_path, cap.into_bytes()).map_err(|e| e.to_string())?;
        let mut text = render_outcome(&format!("switchml ({workers} workers)"), elems, &out, json);
        text.push_str(&format!("\n  wrote {frames} frames to {pcap_path}"));
        return Ok(text);
    }

    let trace_n: usize = args.get("trace", 0)?;
    let (out, trace_text) = if trace_n > 0 {
        let mut log = EventLog::new(trace_n);
        let out = run_switchml_traced(&sc, &mut log).map_err(|e| e.to_string())?;
        (out, Some(log.render()))
    } else {
        (run_switchml(&sc).map_err(|e| e.to_string())?, None)
    };
    let mut text = render_outcome(&format!("switchml ({workers} workers)"), elems, &out, json);
    if let Some(t) = trace_text {
        text.push_str("\n--- first packet events ---\n");
        text.push_str(&t);
    }
    Ok(text)
}

/// `baseline`: one of the comparison strategies.
pub fn baseline(args: &Args) -> Result<String, String> {
    args.assert_known(&[
        "strategy",
        "workers",
        "elems",
        "bandwidth-gbps",
        "loss",
        "json",
    ])?;
    let workers: usize = args.get("workers", 8)?;
    let elems: usize = args.get("elems", 1_000_000)?;
    let loss: f64 = args.get("loss", 0.0)?;
    let bw = gbps(args)?;
    let json = args.switch("json");
    let strategy = args.get_str("strategy", "gloo");

    let out = match strategy.as_str() {
        "gloo" | "nccl" => {
            let mut sc = if strategy == "gloo" {
                RingScenario::gloo(workers, elems)
            } else {
                RingScenario::nccl(workers, elems)
            };
            sc.link.bandwidth_bps = bw;
            sc.link = sc.link.with_loss(loss);
            run_ring(&sc).map_err(|e| e.to_string())?
        }
        "hd" => {
            let mut sc = HdScenario::new(workers, elems);
            sc.link.bandwidth_bps = bw;
            sc.link = sc.link.with_loss(loss);
            run_hd(&sc).map_err(|e| e.to_string())?
        }
        "ps-dedicated" | "ps-colocated" => {
            let mut base = SwitchMLScenario::new(workers, elems);
            base.link.bandwidth_bps = bw;
            base.link = base.link.with_loss(loss);
            let placement = if strategy == "ps-dedicated" {
                PsPlacement::Dedicated
            } else {
                PsPlacement::Colocated
            };
            run_ps(&PsScenario::new(base, placement)).map_err(|e| e.to_string())?
        }
        other => {
            return Err(format!(
                "--strategy: unknown '{other}' (gloo|nccl|hd|ps-dedicated|ps-colocated)"
            ))
        }
    };
    Ok(render_outcome(&strategy, elems, &out, json))
}

/// `tune`: §3.6 pool sizing plus the pipeline resource report.
pub fn tune(args: &Args) -> Result<String, String> {
    args.assert_known(&["bandwidth-gbps", "delay-us", "k", "workers", "json"])?;
    let bw = gbps(args)?;
    let delay_ns = args.get::<u64>("delay-us", 15)? * 1_000;
    let k: usize = args.get("k", 32)?;
    let workers: usize = args.get("workers", 8)?;
    let s = tune_pool_size(bw, delay_ns, k);
    let proto = Protocol {
        n_workers: workers,
        k,
        pool_size: s,
        ..Protocol::default()
    };
    let model = PipelineModel::default();
    let report = model.validate(&proto).map_err(|e| e.to_string())?;
    if args.switch("json") {
        Ok(serde_json::json!({
            "pool_size": s,
            "stages_used": report.stages_used,
            "pool_bytes": report.pool_bytes,
            "bookkeeping_bytes": report.bookkeeping_bytes,
            "sram_fraction": report.sram_fraction,
            "parse_bytes": report.parse_bytes,
        })
        .to_string())
    } else {
        Ok(format!(
            "pool size s = {s}  (BDP {} B / packet {} B)\n\
             switch resources: {} stages, {} B pool registers + {} B bookkeeping \
             ({:.2}% of SRAM), {} parsed bytes/packet",
            bw as u128 * delay_ns as u128 / 8 / 1_000_000_000,
            switchml_core::packet::wire_bytes(k),
            report.stages_used,
            report.pool_bytes,
            report.bookkeeping_bytes,
            report.sram_fraction * 100.0,
            report.parse_bytes,
        ))
    }
}

/// `train`: real training with quantized aggregation.
pub fn train(args: &Args) -> Result<String, String> {
    args.assert_known(&[
        "workers",
        "epochs",
        "scale",
        "mode",
        "hidden",
        "byzantine",
        "json",
    ])?;
    let scale: f64 = args.get("scale", 1e6)?;
    let agg = match args.get_str("mode", "f32").as_str() {
        "exact" => Aggregation::Exact,
        "f32" => Aggregation::Fixed32 { f: scale },
        "f16" => Aggregation::Float16 {
            f: scale.min(1000.0),
        },
        "sign" => Aggregation::SignSgd,
        other => return Err(format!("--mode: unknown '{other}' (exact|f32|f16|sign)")),
    };
    let cfg = TrainConfig {
        n_workers: args.get("workers", 4)?,
        epochs: args.get("epochs", 10)?,
        batch_per_worker: 16,
        lr: if agg == Aggregation::SignSgd {
            0.02
        } else {
            0.1
        },
        seed: 3,
        agg,
        hidden: args.get("hidden", 0)?,
        byzantine: args.get("byzantine", 0)?,
    };
    let (tr, te) = gaussian_blobs(1200, 8, 4, 4.0, 2024).train_test_split(0.25);
    let r = train_model(&tr, &te, &cfg);
    if args.switch("json") {
        Ok(serde_json::json!({
            "accuracy_per_epoch": r.accuracy_per_epoch,
            "final_accuracy": r.final_accuracy,
            "diverged": r.diverged,
            "max_grad_abs": r.max_grad_abs,
        })
        .to_string())
    } else {
        Ok(format!(
            "final accuracy {:.1}%  (diverged: {}, max |grad| {:.3})\nper-epoch: {}",
            r.final_accuracy * 100.0,
            r.diverged,
            r.max_grad_abs,
            r.accuracy_per_epoch
                .iter()
                .map(|a| format!("{:.1}", a * 100.0))
                .collect::<Vec<_>>()
                .join(" "),
        ))
    }
}

// ------------------------------------------- scenario runs and flag shims

/// A polling loop's counters and waits: the engine runners' reactor
/// threads, or the control plane's driver thread.
fn loop_json(s: &ReactorStats, wall: Duration) -> serde_json::Value {
    serde_json::json!({
        "threads": s.threads,
        "engines_per_thread": s.engines_per_thread(),
        "polls_per_sec": s.polls_per_sec(wall),
        "timer_fires": s.timer_fires,
        "cascades": s.cascades,
        "spin_hits": s.spin_hits,
        "spin_misses": s.spin_misses,
        "naps": s.idle_sleeps,
        "spun_ms": s.spun_ns as f64 / 1e6,
        "napped_ms": s.napped_ns as f64 / 1e6,
    })
}

/// The runner counters a report's detail carries, beyond the
/// `Observed` record.
fn runner_counters(d: &Detail) -> Vec<(&'static str, serde_json::Value)> {
    use serde_json::json;
    let mut out = Vec::new();
    match d {
        Detail::Run(run) => {
            out.push(("send_errors", json!(run.transport_stats.send_errors)));
            let (rejected, stale_epoch) = (run.worker_stats.iter())
                .fold((0, 0), |(r, e), s| (r + s.rejected, e + s.stale_epoch));
            out.push((
                "dropped_results",
                json!({ "rejected": rejected, "stale_epoch": stale_epoch }),
            ));
            if let Some(s) = &run.reactor {
                out.push(("reactor", loop_json(s, run.wall)));
            }
            if let Some(h) = &run.hier {
                out.push((
                    "hier",
                    json!({
                        "racks": h.racks,
                        "workers_per_rack": h.workers_per_rack,
                        "rack_epochs": h.rack_epochs,
                        "leaf_reboots": h.leaf_reboots,
                        "leaf_up_retx": h.leaf_up_stats.iter().map(|s| s.retx).sum::<u64>(),
                    }),
                ));
            }
        }
        Detail::Ctrl(c) => {
            out.push(("survivors", json!(c.final_n)));
            out.push(("stale_epoch_drops", json!(c.switch_stats.stale_epoch)));
            out.push(("driver", loop_json(&c.driver, c.wall)));
            out.push(("events", json!(c.events)));
        }
        Detail::NetsimCtrl(c) => {
            let jobs: Vec<serde_json::Value> = (0..c.final_n.len())
                .map(|j| {
                    json!({
                        "job": j,
                        "epoch": c.final_epoch[j],
                        "workers": c.final_n[j],
                        "scaling_factor": c.final_f[j],
                    })
                })
                .collect();
            out.push(("jobs", json!(jobs)));
            out.push(("events", json!(c.events)));
        }
        Detail::Sched(r) => out.push(("driver", loop_json(&r.driver, r.wall))),
        Detail::NetsimCollective(_) | Detail::None => {}
    }
    out
}

/// One report as JSON: the verdict, the `Observed` record, and the
/// runner counters.
fn report_json(r: &ScenarioReport) -> serde_json::Value {
    let o = &r.observed;
    let mut v = serde_json::json!({
        "scenario": r.scenario,
        "transport": r.transport.name(),
        "passed": r.passed(),
        "violations": r.violations,
        "fingerprint": format!("{:#018x}", r.fingerprint),
        "completed": o.completed,
        "error": o.error,
        "reference_match": o.reference_match,
        "survivors_agree": o.survivors_agree,
        "max_epoch": o.max_epoch,
        "injected_faults": o.faults,
        "retransmissions": o.retransmissions,
        "resizes": o.resizes,
        "quiet_tenant_faults": o.quiet_tenant_faults,
        "p99_first_aggregate_us": o
            .p99_first_aggregate
            .filter(|p| *p != Duration::MAX)
            .map(|p| p.as_micros() as u64),
        "wall_ms": o.wall.as_secs_f64() * 1e3,
    });
    if let serde_json::Value::Object(fields) = &mut v {
        fields.extend(
            runner_counters(&r.detail)
                .into_iter()
                .map(|(k, c)| (k.to_string(), c)),
        );
    }
    v
}

/// One report as text: the summary line, the `Observed` record, and
/// the same runner counters, one per line (events one per line too).
fn report_text(r: &ScenarioReport) -> String {
    let mut out = format!("{}\n  {}", r.summary(), r.observed);
    if let Some(e) = &r.observed.error {
        out.push_str(&format!("\n  error: {e}"));
    }
    for (k, c) in runner_counters(&r.detail) {
        match (k, c.as_array()) {
            ("events", Some(events)) => {
                for e in events {
                    out.push_str(&format!("\n  event: {}", e.as_str().unwrap_or("?")));
                }
            }
            _ => out.push_str(&format!("\n  {k}: {c}")),
        }
    }
    out
}

/// The one renderer: `scenario run`/`suite` and every flag shim print
/// their reports through it.
fn render(reports: &[ScenarioReport], json: bool) -> String {
    if json {
        serde_json::to_value(&reports.iter().map(report_json).collect::<Vec<_>>()).to_string()
    } else {
        reports
            .iter()
            .map(report_text)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The exit-code contract: any violated oracle makes the output an
/// error.
fn verdict(text: String, reports: &[ScenarioReport]) -> Result<String, String> {
    if reports.iter().all(|r| r.passed()) {
        Ok(text)
    } else {
        Err(text)
    }
}

/// A flag shim, once its flags are a scenario: run it on `t` and render
/// the report.
fn shim(sc: &Scenario, t: Transport, json: bool) -> Result<String, String> {
    let reports = [run_scenario(sc, t)?];
    verdict(render(&reports, json), &reports)
}

/// `--transport` of a command that runs on real transports only.
fn real_transport(args: &Args, default: &str) -> Result<Transport, String> {
    match args.get_str("transport", default).as_str() {
        "udp" => Ok(Transport::Udp),
        "channel" => Ok(Transport::Channel),
        other => Err(format!("--transport: expected udp|channel, got '{other}'")),
    }
}

/// `udp`: one all-reduce over real loopback sockets (or the in-memory
/// channel fabric). `--runner threaded` gives every engine its own
/// thread (the plain layout at `--cores 1`, the sharded one above);
/// `--runner reactor` multiplexes every engine onto `--threads`
/// threads. `--loss` is send-side loss on every endpoint, bursts kept
/// (seed 42).
pub fn udp(args: &Args) -> Result<String, String> {
    args.assert_known(&[
        "workers",
        "elems",
        "loss",
        "transport",
        "burst",
        "cores",
        "runner",
        "threads",
        "json",
    ])?;
    let t = real_transport(args, "udp")?;
    let cores: usize = args.get("cores", 1)?;
    let runner = match args.get_str("runner", "threaded").as_str() {
        "threaded" if cores == 1 => RunnerKind::Plain,
        "threaded" => RunnerKind::Sharded,
        "reactor" => RunnerKind::Reactor {
            threads: args.get("threads", 2)?,
        },
        other => {
            return Err(format!(
                "--runner: expected threaded|reactor, got '{other}'"
            ))
        }
    };
    let elems: usize = args.get("elems", 4096)?;
    let loss: f64 = args.get("loss", 0.0)?;
    let mut b = Scenario::build("cli-udp")
        .descr("one all-reduce from `udp` flags")
        .runner(runner)
        .workers(args.get("workers", 2)?)
        .cores(cores)
        .k(Protocol::default().k)
        .pool(32)
        .job_with(|j| j.elems = elems)
        .seed(42)
        .loss(loss)
        .burst(args.get("burst", 8)?)
        .fixed_rto()
        .max_wall_ms(30_000);
    if loss > 0.0 {
        b = b.batch_loss();
    }
    shim(&b.finish()?, t, args.switch("json"))
}

/// `ctrl`: controller-managed jobs on the simulated rack — lifecycle,
/// heartbeat-driven failure detection, live shrink, switch failover.
/// `--switches` only has to make room for `--failover-at-us`'s standby.
pub fn ctrl(args: &Args) -> Result<String, String> {
    args.assert_known(&[
        "workers",
        "jobs",
        "switches",
        "elems",
        "k",
        "pool",
        "loss",
        "seed",
        "fail-worker",
        "fail-at-us",
        "failover-at-us",
        "json",
    ])?;
    let elems: usize = args.get("elems", 4096)?;
    let mut b = Scenario::build("cli-ctrl")
        .descr("controller-managed jobs from `ctrl` flags")
        .runner(RunnerKind::Ctrl)
        .workers(args.get("workers", 4)?)
        .k(args.get("k", 8)?)
        .pool(args.get("pool", 8)?)
        .loss(args.get("loss", 0.0)?)
        .seed(args.get("seed", 1)?)
        .rto_us(CtrlScenario::default().rto_us)
        .max_wall_ms(5_000);
    for _ in 0..args.get::<usize>("jobs", 1)? {
        b = b.job_with(|j| j.elems = elems);
    }
    let fail_worker: i64 = args.get("fail-worker", -1)?;
    if fail_worker >= 0 {
        b = b.kill_at_us(fail_worker as usize, args.get("fail-at-us", 25)?);
    }
    let failover_at: i64 = args.get("failover-at-us", -1)?;
    if failover_at >= 0 {
        if args.get::<usize>("switches", 1)? < 2 {
            return Err("--failover-at-us needs --switches 2 (or more)".into());
        }
        b = b.failover_us(failover_at as u64);
    }
    shim(&b.finish()?, Transport::Netsim, args.switch("json"))
}

/// `scenario`: the declarative chaos lab's front door — list the
/// curated library, print one scenario as `.scenario` JSON, run one by
/// name (or from a file) on any transport, or replay the standing
/// regression suite CI gates on. Any violated oracle exits nonzero.
pub fn scenario(args: &Args) -> Result<String, String> {
    args.assert_known(&["transport", "file", "json"])?;

    let json = args.switch("json");
    let sel = args.get_str("transport", "all");
    let selected: Vec<Transport> = if sel == "all" {
        Transport::ALL.to_vec()
    } else {
        vec![Transport::parse(&sel)?]
    };

    match args.positional(0).unwrap_or("list") {
        "list" => {
            let lib = library::all();
            if json {
                let rows: Vec<serde_json::Value> = lib
                    .iter()
                    .map(|sc| {
                        let ts: Vec<&str> =
                            sc.supported_transports().iter().map(|t| t.name()).collect();
                        let oracles: Vec<String> = sc.expect.iter().map(|e| e.label()).collect();
                        serde_json::json!({
                            "name": sc.name,
                            "descr": sc.descr,
                            "runner": sc.runner.name(),
                            "transports": ts,
                            "expect": oracles,
                        })
                    })
                    .collect();
                Ok(serde_json::to_value(&rows).to_string())
            } else {
                let mut out = format!("scenario library: {} scenarios", lib.len());
                for sc in &lib {
                    let ts: Vec<&str> =
                        sc.supported_transports().iter().map(|t| t.name()).collect();
                    let oracles: Vec<String> = sc.expect.iter().map(|e| e.label()).collect();
                    out.push_str(&format!(
                        "\n  {}  [{} | {}]\n      {}\n      expects: {}",
                        sc.name,
                        sc.runner.name(),
                        ts.join(","),
                        sc.descr,
                        oracles.join(", "),
                    ));
                }
                Ok(out)
            }
        }
        "show" => {
            let name = args.positional(1).ok_or("scenario show: need a NAME")?;
            let sc = library::find(name)
                .ok_or_else(|| format!("unknown scenario '{name}' (see `scenario list`)"))?;
            Ok(sc.to_json_string())
        }
        "run" => {
            let file = args.get_str("file", "");
            let sc = if !file.is_empty() {
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| format!("cannot read {file}: {e}"))?;
                Scenario::from_json_str(&text)?
            } else {
                let name = args
                    .positional(1)
                    .ok_or("scenario run: need a NAME or --file FILE")?;
                library::find(name)
                    .ok_or_else(|| format!("unknown scenario '{name}' (see `scenario list`)"))?
            };
            let ts: Vec<Transport> = sc
                .supported_transports()
                .into_iter()
                .filter(|t| selected.contains(t))
                .collect();
            if ts.is_empty() {
                return Err(format!(
                    "scenario '{}' does not run on --transport {sel} (supports: {})",
                    sc.name,
                    sc.supported_transports()
                        .iter()
                        .map(|t| t.name())
                        .collect::<Vec<_>>()
                        .join(","),
                ));
            }
            let reports = ts
                .into_iter()
                .map(|t| run_scenario(&sc, t))
                .collect::<Result<Vec<_>, _>>()?;
            verdict(render(&reports, json), &reports)
        }
        "suite" => {
            // The standing regression gate: the full library on every
            // selected transport, except that UDP runs only the curated
            // subset (CI time budget) — `scenario run NAME --transport
            // udp` runs any scenario on demand.
            let mut reports = Vec::new();
            let mut errors = Vec::new();
            for sc in library::all() {
                for t in sc.supported_transports() {
                    if !selected.contains(&t)
                        || (t == Transport::Udp
                            && !library::udp_subset().contains(&sc.name.as_str()))
                    {
                        continue;
                    }
                    match run_scenario(&sc, t) {
                        Ok(rep) => reports.push(rep),
                        Err(e) => errors.push(format!("{} [{}]: ERROR — {e}", sc.name, t.name())),
                    }
                }
            }
            let runs = reports.len() + errors.len();
            let failures = reports.iter().filter(|r| !r.passed()).count() + errors.len();
            let text = if json {
                serde_json::json!({
                    "suite": "scenario-library",
                    "runs": runs,
                    "failures": failures,
                    "reports": reports.iter().map(report_json).collect::<Vec<_>>(),
                    "errors": errors,
                })
                .to_string()
            } else {
                let mut lines = vec![render(&reports, false)];
                lines.extend(errors);
                format!(
                    "scenario suite: {runs} run(s), {failures} failure(s)\n{}",
                    lines.join("\n")
                )
            };
            if failures == 0 {
                Ok(text)
            } else {
                Err(text)
            }
        }
        other => Err(format!(
            "scenario: unknown action '{other}' (list|show|run|suite)"
        )),
    }
}

/// `chaos`: the live chaos harness — one seeded fault schedule
/// (probabilistic loss/dup/reorder plus scripted straggler stalls,
/// a worker kill, or a switch-process restart) against the real
/// threaded transports, held to the paper's correctness bar: either
/// the run completes with every worker's aggregate bit-identical, or
/// it degrades to a reported error. Silent corruption exits nonzero,
/// and so does a `--ctrl` run the controller fails to recover.
pub fn chaos(args: &Args) -> Result<String, String> {
    args.assert_known(&[
        "transport",
        "workers",
        "elems",
        "cores",
        "burst",
        "seed",
        "loss",
        "dup",
        "reorder",
        "straggler",
        "stall-us",
        "kill",
        "kill-at-ms",
        "ctrl",
        "switch-restart-ms",
        "rto",
        "rto-us",
        "max-wall-ms",
        "json",
    ])?;
    let t = real_transport(args, "channel")?;
    let workers: usize = args.get("workers", 3)?;
    let cores: usize = args.get("cores", 1)?;
    if workers < 2 {
        return Err("need --workers >= 2".into());
    }
    let rto_mode =
        RtoMode::parse(&args.get_str("rto", "adaptive")).map_err(|e| format!("--rto: {e}"))?;
    let restart_ms: i64 = args.get("switch-restart-ms", -1)?;
    let ctrl_mode = args.switch("ctrl") || restart_ms >= 0;
    let elems: usize = args.get("elems", 4096)?;
    let mut b = Scenario::build(&format!("cli-chaos-{}", t.name()))
        .descr("ad-hoc chaos schedule from `chaos` flags")
        .runner(if ctrl_mode {
            RunnerKind::Ctrl
        } else if cores > 1 {
            RunnerKind::Sharded
        } else {
            RunnerKind::Plain
        })
        .workers(workers)
        .cores(cores)
        // The harness's historical protocol: paper-default packet size
        // over a 32-slot pool.
        .k(Protocol::default().k)
        .pool(32)
        .job_with(|j| j.elems = elems)
        .seed(args.get("seed", 1)?)
        .loss(args.get("loss", 0.02)?)
        .dup(args.get("dup", 0.02)?)
        .reorder(args.get("reorder", 0.05)?)
        .max_wall_ms(args.get("max-wall-ms", 10_000)?)
        .rto_us(args.get("rto-us", 2_000)?)
        .rto_mode(rto_mode)
        .burst(args.get("burst", 8)?);
    let straggler: i64 = args.get("straggler", -1)?;
    if straggler >= 0 {
        b = b.straggler(straggler as usize, args.get("stall-us", 50)?);
    }
    let kill: i64 = args.get("kill", -1)?;
    if kill >= 0 {
        b = b.kill_at_us(kill as usize, args.get::<u64>("kill-at-ms", 5)? * 1_000);
    }
    if restart_ms >= 0 {
        b = b.switch_restart_ms(restart_ms as u64);
    }
    // `finish` defaults the oracles to `Completes`, which a `--ctrl`
    // job must meet by recovering; without a controller a kill may only
    // degrade cleanly, so the plain run is observe-only.
    let mut sc = b.finish()?;
    if !ctrl_mode {
        sc.expect.clear();
    }
    shim(&sc, t, args.switch("json"))
}

/// `sched`: multi-tenant churn under the slot scheduler. Submits a
/// seeded population of jobs (mixed priority classes, staggered
/// arrivals) against one shared switch over a real transport, and
/// reports the churn metrics the multi-job benchmark tracks:
/// arrivals/sec, p99 admission-to-first-aggregate, and aggregate
/// tensor-element throughput. With `--noisy-loss` it runs the
/// scenario twice — storm-free baseline, then a loss storm aimed at
/// job 0's ports — and *measures* isolation: the storm run's oracles
/// demand zero faults on quiet tenants, and their p99 completion
/// latency must stay within 2x of the baseline, or the command exits
/// nonzero.
pub fn sched(args: &Args) -> Result<String, String> {
    args.assert_known(&[
        "transport",
        "jobs",
        "workers",
        "elems",
        "capacity",
        "arrival-ms",
        "high-every",
        "noisy-loss",
        "seed",
        "cores",
        "max-wall-ms",
        "bench",
        "json",
    ])?;
    let n_jobs: usize = args.get("jobs", 6)?;
    let workers: usize = args.get("workers", 2)?;
    // Large enough that aggregation work, not scheduler quantum
    // noise, dominates each job's completion latency — the isolation
    // bound compares p99s across two runs.
    let elems: usize = args.get("elems", 16384)?;
    let capacity: u32 = args.get("capacity", 32)?;
    let arrival_ms: u64 = args.get("arrival-ms", 4)?;
    let high_every: usize = args.get("high-every", 3)?;
    let noisy_loss: f64 = args.get("noisy-loss", 0.0)?;
    let seed: u64 = args.get("seed", 1)?;
    let bench_file = args.get_str("bench", "");
    let transport = args.get_str("transport", "channel");
    if n_jobs == 0 || n_jobs > 64 || workers < 2 {
        return Err("need 1..=64 --jobs and --workers >= 2".into());
    }
    let transports = match transport.as_str() {
        "udp" | "channel" => vec![Transport::parse(&transport)?],
        "both" if !bench_file.is_empty() => vec![Transport::Channel, Transport::Udp],
        _ => {
            return Err(format!(
                "--transport: expected udp|channel (or both with --bench), got '{transport}'"
            ))
        }
    };

    // The storm-free baseline; the storm run is the same population
    // with a loss storm aimed at the first tenant's workers, whose
    // quota is capped so a storm cannot also hog the pool.
    let mut b = Scenario::build("cli-sched")
        .descr("ad-hoc churn population from `sched` flags")
        .runner(RunnerKind::Sched)
        .workers(workers)
        .cores(args.get("cores", 1)?)
        // The churn benchmark's historical protocol: small packets over
        // a small per-job pool so slot pressure is real.
        .k(8)
        .pool(16)
        .capacity(capacity)
        .seed(seed)
        .target_job(0)
        .max_wall_ms(args.get("max-wall-ms", 30_000)?)
        .fixed_rto()
        .expect(Expect::AllJobsComplete);
    for j in 0..n_jobs {
        b = b.job(JobSpec {
            elems,
            arrival_ms: arrival_ms * j as u64,
            class: if high_every > 0 && j % high_every == high_every - 1 {
                JobClass::High
            } else {
                JobClass::BestEffort
            },
            weight: 1 + (j as u32 % 2),
            quota: if j == 0 { capacity / 2 } else { 0 },
            min_slots: 2,
        });
    }
    let baseline = b.finish()?;
    let mut storm = baseline.clone();
    storm.name = "cli-sched-storm".into();
    storm.faults.loss = noisy_loss;
    storm
        .expect
        .extend([Expect::FaultsInjected, Expect::ZeroQuietTenantFaults]);
    fn sched_of(r: &ScenarioReport) -> Result<&SchedRunReport, String> {
        match &r.detail {
            Detail::Sched(s) => Ok(s),
            _ => Err(format!(
                "sched ({}): {}",
                r.transport.name(),
                r.observed
                    .error
                    .as_deref()
                    .unwrap_or("run produced no report")
            )),
        }
    }
    // Completion latency of the tenants the storm does not target.
    let quiet_p99 = |s: &SchedRunReport| {
        s.p99(|o| o.completed_at.filter(|_| o.job != 0))
            .unwrap_or_default()
    };

    let mut reports = Vec::new();
    let mut sections = Vec::new();
    let mut violations = Vec::new();
    for t in transports {
        let base_rep = run_scenario(&baseline, t)?;
        let storm_rep = if noisy_loss > 0.0 {
            Some(run_scenario(&storm, t)?)
        } else {
            None
        };
        let base = sched_of(&base_rep)?;
        let admitted = base.outcomes.iter().filter(|o| o.admitted).count();
        let wall_s = base.wall.as_secs_f64().max(1e-9);
        // Every switch-side completion aggregates one k-element chunk.
        let ate: u64 = base
            .outcomes
            .iter()
            .map(|o| o.switch_stats.completions * baseline.topology.k as u64)
            .sum();
        let isolation = match &storm_rep {
            Some(r) => {
                let stormy = sched_of(r)?;
                let (bp, sp) = (quiet_p99(base), quiet_p99(stormy));
                if sp > bp * 2 + Duration::from_millis(1) {
                    violations.push(format!(
                        "{}: quiet p99 inflated by the storm: {bp:?} -> {sp:?}",
                        t.name()
                    ));
                }
                let noisy = stormy.outcomes.iter().find(|o| o.job == 0);
                serde_json::json!({
                    "noisy_loss": noisy_loss,
                    "noisy_injected_faults": noisy.map(|o| o.injected_faults),
                    "noisy_retransmissions": noisy.map(|o| o.worker_stats.retx),
                    "quiet_injected_faults": r.observed.quiet_tenant_faults,
                    "baseline_quiet_p99_us": bp.as_micros() as u64,
                    "storm_quiet_p99_us": sp.as_micros() as u64,
                })
            }
            None => serde_json::Value::Null,
        };
        sections.push(serde_json::json!({
            "transport": t.name(),
            "jobs": n_jobs,
            "admitted": admitted,
            "all_complete": base.all_complete(),
            "wall_ms": base.wall.as_millis() as u64,
            "arrivals_per_sec": admitted as f64 / wall_s,
            "p99_admission_to_first_aggregate_us": base
                .p99(|o| o.first_aggregate)
                .map_or(0, |d| d.as_micros() as u64),
            "aggregate_ate_per_sec": ate as f64 / wall_s,
            "total_resizes": base.outcomes.iter().map(|o| o.resizes as u64).sum::<u64>(),
            "stale_epoch_drops": base.outcomes.iter()
                .map(|o| o.switch_stats.stale_epoch).sum::<u64>(),
            "isolation": isolation,
        }));
        reports.push(base_rep);
        reports.extend(storm_rep);
    }
    for r in &reports {
        violations.extend(
            r.violations
                .iter()
                .map(|v| format!("{} [{}]: {v}", r.scenario, r.transport.name())),
        );
    }

    let mut doc = serde_json::json!({
        "bench": "multijob_churn",
        "config": serde_json::json!({
            "jobs": n_jobs,
            "workers_per_job": workers,
            "elems": elems,
            "capacity_slots": capacity,
            "arrival_ms": arrival_ms,
            "high_every": high_every,
            "seed": seed,
            "noisy_loss": noisy_loss,
        }),
        "transports": sections,
        "isolation_violations": violations,
    });
    if !bench_file.is_empty() {
        std::fs::write(
            &bench_file,
            serde_json::to_string_pretty(&doc).expect("a JSON value always renders"),
        )
        .map_err(|e| format!("cannot write {bench_file}: {e}"))?;
    }
    let text = if args.switch("json") {
        if let serde_json::Value::Object(fields) = &mut doc {
            fields.push((
                "reports".into(),
                serde_json::to_value(&reports.iter().map(report_json).collect::<Vec<_>>()),
            ));
        }
        doc.to_string()
    } else {
        let mut out = render(&reports, false);
        for s in &sections {
            out.push_str(&format!("\nchurn: {s}"));
        }
        if !bench_file.is_empty() {
            out.push_str(&format!("\nwrote {bench_file}"));
        }
        if !violations.is_empty() {
            out.push_str(&format!(
                "\nISOLATION VIOLATIONS:\n  {}",
                violations.join("\n  ")
            ));
        }
        out
    };
    if violations.is_empty() {
        Ok(text)
    } else {
        Err(text)
    }
}

/// `hier`: two-level (leaf + spine) aggregation over a real transport.
/// `--flat` runs the same scenario again as one flat star on the same
/// reactor threads and prints the speedup: the star funnels every
/// worker into one switch socket; the tree bounds per-socket fan-in to
/// `max(per_rack, racks)`, the §6 motivation made measurable.
pub fn hier(args: &Args) -> Result<String, String> {
    args.assert_known(&[
        "racks",
        "per-rack",
        "elems",
        "transport",
        "threads",
        "burst",
        "loss",
        "seed",
        "kill-rack",
        "kill-at-ms",
        "flat",
        "json",
    ])?;
    let t = real_transport(args, "udp")?;
    let racks: usize = args.get("racks", 2)?;
    let per_rack: usize = args.get("per-rack", 4)?;
    if racks < 2 || per_rack < 1 {
        return Err("--racks must be >= 2 and --per-rack >= 1".into());
    }
    let elems: usize = args.get("elems", 4096)?;
    let mut b = Scenario::build("cli-hier")
        .descr("two-level tree from `hier` flags")
        .runner(RunnerKind::Reactor {
            threads: args.get("threads", 2)?,
        })
        .racks(racks)
        .workers(per_rack)
        .k(Protocol::default().k)
        .pool(32)
        .job_with(|j| j.elems = elems)
        .loss(args.get("loss", 0.0)?)
        .seed(args.get("seed", 42)?)
        .burst(args.get("burst", 8)?)
        .fixed_rto()
        .max_wall_ms(30_000);
    let kill_rack: i64 = args.get("kill-rack", -1)?;
    if kill_rack >= 0 {
        let at_ms: u64 = args.get("kill-at-ms", 1)?;
        b = b.kill_rack_at_us(kill_rack as usize, at_ms * 1_000);
    }
    let tree = b.finish()?;
    let mut reports = vec![run_scenario(&tree, t)?];
    if !args.switch("flat") {
        return verdict(render(&reports, args.switch("json")), &reports);
    }
    // The flat star on the same workload: one switch socket absorbing
    // all the workers, on the same reactor threads.
    let mut flat = tree.clone();
    flat.name = "cli-hier-flat".into();
    flat.topology.racks = 1;
    flat.topology.workers = racks * per_rack;
    flat.faults.kill_rack = None;
    reports.push(run_scenario(&flat, t)?);
    let speedup =
        reports[1].observed.wall.as_secs_f64() / reports[0].observed.wall.as_secs_f64().max(1e-9);
    let text = if args.switch("json") {
        serde_json::json!({
            "reports": reports.iter().map(report_json).collect::<Vec<_>>(),
            "hier_speedup": speedup,
        })
        .to_string()
    } else {
        format!(
            "{}\nhierarchy speedup over the flat star: {speedup:.2}x",
            render(&reports, false)
        )
    };
    verdict(text, &reports)
}

/// `check`: the deterministic adversarial schedule explorer
/// (`switchml-check`). Explores the protocol state space under a
/// chosen strategy; a violation shrinks to a minimal schedule,
/// optionally saves a `.trace`, and exits nonzero so CI fails.
pub fn check(args: &Args) -> Result<String, String> {
    use switchml_check::{
        replay, shrink, DelayBoundedExplorer, ExhaustiveExplorer, Expectation, Explorer,
        RandomWalkExplorer, Scenario, SwitchKind, Trace,
    };
    args.assert_known(&[
        "strategy",
        "switch",
        "workers",
        "slots",
        "chunks",
        "k",
        "scale",
        "drops",
        "dups",
        "retx",
        "stale-epochs",
        "d",
        "seed",
        "runs",
        "steps",
        "max-states",
        "max-depth",
        "replay",
        "save-trace",
        "json",
    ])?;
    let json = args.switch("json");

    // Replay mode: re-execute a recorded trace and judge it against
    // its embedded expectation.
    let replay_file = args.get_str("replay", "");
    if !replay_file.is_empty() {
        let text = std::fs::read_to_string(&replay_file)
            .map_err(|e| format!("cannot read {replay_file}: {e}"))?;
        let trace = Trace::from_json_str(&text).map_err(|e| format!("{replay_file}: {e}"))?;
        let outcome = replay(&trace)?;
        let ok = match trace.expect {
            Expectation::Clean => outcome.violation.is_none(),
            Expectation::Violation => outcome.violation.is_some(),
        };
        let text = if json {
            serde_json::json!({
                "trace": replay_file.clone(),
                "applied": outcome.applied as u64,
                "skipped": outcome.skipped as u64,
                "violation": match &outcome.violation {
                    Some(v) => serde_json::json!(format!("{v}")),
                    None => serde_json::Value::Null,
                },
                "as_expected": ok,
            })
            .to_string()
        } else {
            format!(
                "replayed {replay_file}: {} choices applied, {} skipped\n  outcome: {}\n  {}",
                outcome.applied,
                outcome.skipped,
                match &outcome.violation {
                    Some(v) => format!("{v}"),
                    None => "clean".into(),
                },
                if ok { "as expected" } else { "NOT as expected" },
            )
        };
        return if ok { Ok(text) } else { Err(text) };
    }

    let switch = SwitchKind::parse(&args.get_str("switch", "reliable"))?;
    let sc = Scenario {
        switch,
        n_workers: args.get("workers", 2usize)?,
        pool_size: args.get("slots", 1usize)?,
        n_chunks: args.get("chunks", 2u64)?,
        k: args.get("k", 2usize)?,
        scaling: args.get("scale", 64.0f64)?,
        drops: args.get("drops", 1u32)?,
        dups: args.get("dups", 1u32)?,
        retx: args.get("retx", 1u32)?,
        stale_epochs: args.get("stale-epochs", 0u32)?,
        deviations: None,
    };
    sc.validate()?;
    let strategy = args.get_str("strategy", "exhaustive");
    let max_states = args.get("max-states", 2_000_000u64)?;
    let max_depth = args.get("max-depth", 200u64)?;
    let mut explorer: Box<dyn Explorer> = match strategy.as_str() {
        "exhaustive" => Box::new(ExhaustiveExplorer {
            max_states,
            max_depth,
            drain_budget: 10_000,
        }),
        "delay" => Box::new(DelayBoundedExplorer {
            d: args.get("d", 2u32)?,
            max_states,
            max_depth,
            drain_budget: 10_000,
        }),
        "random" => Box::new(RandomWalkExplorer::new(
            args.get("seed", 1u64)?,
            args.get("runs", 200u64)?,
            args.get("steps", 400u64)?,
        )),
        other => return Err(format!("unknown strategy '{other}'")),
    };
    let report = explorer.explore(&sc)?;

    match report.violation {
        None => {
            let text = if json {
                serde_json::json!({
                    "strategy": strategy.clone(),
                    "switch": sc.switch.name(),
                    "states_visited": report.states_visited,
                    "max_depth": report.max_depth,
                    "exhausted": report.exhausted,
                    "violation": serde_json::Value::Null,
                })
                .to_string()
            } else {
                format!(
                    "{} exploration of {}: {} states, depth {} — no violations{}",
                    strategy,
                    sc.switch.name(),
                    report.states_visited,
                    report.max_depth,
                    if report.exhausted {
                        " (space exhausted)"
                    } else {
                        " (caps hit)"
                    },
                )
            };
            Ok(text)
        }
        Some(found) => {
            let oracle = found.violation.oracle.clone();
            let trace = Trace {
                scenario: sc,
                choices: found.choices,
                expect: Expectation::Violation,
                violation: Some((oracle.clone(), found.violation.message.clone())),
            };
            let (shrunk, replays) = shrink(&trace, &oracle);
            let save = args.get_str("save-trace", "");
            let saved = if save.is_empty() {
                String::new()
            } else {
                std::fs::write(&save, shrunk.to_json_string())
                    .map_err(|e| format!("cannot write {save}: {e}"))?;
                format!("\n  trace saved to {save}")
            };
            Err(format!(
                "VIOLATION {}\n  schedule: {} choices (shrunk from {} in {} replays)\n  \
                 after {} states explored{saved}",
                found.violation,
                shrunk.choices.len(),
                trace.choices.len(),
                replays,
                report.states_visited,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn simulate_small() {
        let out = simulate(&args("simulate --workers 2 --elems 2048 --pool 8")).unwrap();
        assert!(out.contains("verified: true"), "{out}");
    }

    #[test]
    fn simulate_json() {
        let out = simulate(&args("simulate --workers 2 --elems 1024 --pool 8 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["verified"], true);
        assert!(v["tat_ns"].as_u64().unwrap() > 0);
    }

    #[test]
    fn simulate_with_trace_and_f16() {
        let out = simulate(&args(
            "simulate --workers 2 --elems 512 --pool 4 --mode f16 --trace 5",
        ))
        .unwrap();
        assert!(out.contains("SEND"), "{out}");
    }

    #[test]
    fn simulate_pcap_writes_valid_capture() {
        let path = std::env::temp_dir().join("switchml_cli_test.pcap");
        let _ = std::fs::remove_file(&path);
        let out = simulate(&args(&format!(
            "simulate --workers 2 --elems 256 --pool 4 --pcap {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..4], &0xA1B2C3D4u32.to_le_bytes());
        assert!(bytes.len() > 24, "capture has records");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_multirack() {
        let out = simulate(&args(
            "simulate --workers 4 --racks 2 --elems 2048 --pool 8",
        ))
        .unwrap();
        assert!(out.contains("2 racks"), "{out}");
        assert!(out.contains("verified: true"));
    }

    #[test]
    fn baseline_strategies() {
        for s in ["gloo", "nccl", "hd", "ps-dedicated", "ps-colocated"] {
            let out = baseline(&args(&format!(
                "baseline --strategy {s} --workers 4 --elems 2048"
            )))
            .unwrap();
            assert!(out.contains("verified: true"), "{s}: {out}");
        }
        assert!(baseline(&args("baseline --strategy bogus")).is_err());
    }

    #[test]
    fn tune_reports_paper_values() {
        let out = tune(&args("tune --bandwidth-gbps 10 --delay-us 15")).unwrap();
        assert!(out.contains("s = 128"), "{out}");
    }

    #[test]
    fn train_smoke() {
        let out = train(&args("train --workers 2 --epochs 2")).unwrap();
        assert!(out.contains("final accuracy"), "{out}");
    }

    #[test]
    fn scenario_list_show_and_bad_actions() {
        let out = scenario(&args("scenario list")).unwrap();
        assert!(out.contains("loss-storm-5pct"), "{out}");
        assert!(out.contains("expects:"), "{out}");
        let shown = scenario(&args("scenario show smoke-2w")).unwrap();
        let sc = switchml_scenario::Scenario::from_json_str(&shown).unwrap();
        assert_eq!(sc.name, "smoke-2w");
        assert!(scenario(&args("scenario show no-such-scenario")).is_err());
        assert!(scenario(&args("scenario frobnicate")).is_err());
    }

    #[test]
    fn scenario_run_netsim_smoke() {
        let out = scenario(&args("scenario run smoke-2w --transport netsim --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v[0]["passed"], true, "{out}");
        assert_eq!(v[0]["transport"], "netsim", "{out}");
    }

    #[test]
    fn scenario_run_from_file() {
        let path = std::env::temp_dir().join("switchml_cli_test.scenario");
        let shown = scenario(&args("scenario show smoke-2w")).unwrap();
        std::fs::write(&path, shown).unwrap();
        let out = scenario(&args(&format!(
            "scenario run --file {} --transport netsim",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("PASS"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn check_exhaustive_clean() {
        let out = check(&args("check --workers 2 --slots 1 --chunks 2")).unwrap();
        assert!(out.contains("no violations"), "{out}");
        assert!(out.contains("space exhausted"), "{out}");
    }

    #[test]
    fn check_mutant_fails_with_shrunk_trace() {
        let err = check(&args("check --switch mutant-no-bitmap")).unwrap_err();
        assert!(err.contains("VIOLATION"), "{err}");
        assert!(err.contains("shrunk from"), "{err}");
    }

    #[test]
    fn check_random_json() {
        let out = check(&args(
            "check --strategy random --runs 5 --steps 100 --seed 3 --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["violation"], serde_json::Value::Null, "{out}");
        assert!(v["states_visited"].as_u64().unwrap() > 0, "{out}");
    }

    #[test]
    fn check_replay_roundtrip() {
        let dir = std::env::temp_dir().join("switchml-cli-check-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mutant.trace");
        let path_str = path.to_str().unwrap();
        // Capture a violation trace, then replay it.
        let err = check(&args(&format!(
            "check --switch mutant-no-bitmap --save-trace {path_str}"
        )))
        .unwrap_err();
        assert!(err.contains("trace saved"), "{err}");
        let out = check(&args(&format!("check --replay {path_str}"))).unwrap();
        assert!(out.contains("as expected"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    /// Every command keeps its own flag list; `hier --up-rto-us` is gone.
    #[test]
    fn unknown_flags_rejected() {
        assert!(simulate(&args("simulate --wrokers 8")).is_err());
        assert!(tune(&args("tune --bandwdith-gbps 10")).is_err());
        for (cmd, line) in [
            (
                udp as fn(&Args) -> Result<String, String>,
                "udp --wrokers 2",
            ),
            (hier, "hier --per-rakc 2"),
            (hier, "hier --up-rto-us 100"),
            (ctrl, "ctrl --fail-wroker 1"),
            (chaos, "chaos --stragler 1"),
            (sched, "sched --noisy-los 0.1"),
            (udp, "udp --seed 1"),
            (sched, "sched --dup 0.1"),
        ] {
            let err = cmd(&args(line)).unwrap_err();
            assert!(err.starts_with("unknown flag --"), "{line}: {err}");
        }
    }

    fn json_of(out: &str) -> serde_json::Value {
        serde_json::from_str(out).unwrap_or_else(|e| panic!("{e}: {out}"))
    }

    #[test]
    fn udp_shim_runs_plain_and_sharded() {
        let v = json_of(
            &udp(&args(
                "udp --transport channel --workers 2 --elems 256 --json",
            ))
            .unwrap(),
        );
        assert_eq!(v[0]["passed"], true, "{v:?}");
        assert_eq!(v[0]["reference_match"], true, "{v:?}");
        // The plain layout is the engine driver, a thread per engine.
        assert_eq!(v[0]["reactor"]["threads"].as_u64(), Some(2), "{v:?}");
        assert_eq!(
            v[0]["reactor"]["engines_per_thread"].as_f64(),
            Some(1.0),
            "{v:?}"
        );
        assert_eq!(
            v[0]["dropped_results"]["rejected"].as_u64(),
            Some(0),
            "{v:?}"
        );
        let v = json_of(
            &udp(&args(
                "udp --transport channel --workers 2 --elems 256 --cores 2 --json",
            ))
            .unwrap(),
        );
        assert_eq!(v[0]["reference_match"], true, "{v:?}");
        assert!(udp(&args("udp --runner threaded --cores 0")).is_err());
    }

    #[test]
    fn udp_shim_reactor_prints_its_counters() {
        let out = udp(&args(
            "udp --transport channel --runner reactor --threads 2 --workers 3 --elems 512 \
             --loss 0.02 --json",
        ))
        .unwrap();
        let v = json_of(&out);
        assert_eq!(v[0]["reference_match"], true, "{out}");
        assert_eq!(v[0]["reactor"]["threads"].as_u64(), Some(2), "{out}");
        assert!(v[0]["injected_faults"].as_u64().unwrap() > 0, "{out}");
        let text = udp(&args(
            "udp --transport channel --runner reactor --elems 256",
        ))
        .unwrap();
        assert!(text.contains("\"spin_hits\":"), "{text}");
    }

    #[test]
    fn hier_shim_tree_and_flat_star() {
        let line = "hier --transport channel --racks 2 --per-rack 2 --elems 512 --json";
        let v = json_of(&hier(&args(line)).unwrap());
        assert_eq!(v[0]["reference_match"], true, "{v:?}");
        assert_eq!(v[0]["hier"]["racks"].as_u64(), Some(2), "{v:?}");
        let v = json_of(&hier(&args(&format!("{line} --flat"))).unwrap());
        let reports = v["reports"].as_array().unwrap();
        assert_eq!(reports.len(), 2, "{v:?}");
        assert!(
            reports[1]["hier"].is_null(),
            "second run is the flat star: {v:?}"
        );
        assert_eq!(reports[1]["reference_match"], true, "{v:?}");
        assert!(v["hier_speedup"].as_f64().unwrap() > 0.0, "{v:?}");
        assert!(hier(&args("hier --racks 1")).is_err());
        assert!(hier(&args("hier --transport channel --kill-rack 2")).is_err());
    }

    #[test]
    fn chaos_shim_bit_identical_json() {
        let out = chaos(&args(
            "chaos --transport channel --workers 2 --elems 2048 --seed 7 --json",
        ))
        .unwrap();
        let v = json_of(&out);
        assert_eq!(v[0]["passed"], true, "{out}");
        assert_eq!(v[0]["reference_match"], true, "{out}");
        assert!(v[0]["injected_faults"].as_u64().unwrap() > 0, "{out}");
    }

    /// A kill without a control plane degrades cleanly — also when the
    /// killed worker has two core endpoints, both of which die.
    #[test]
    fn chaos_shim_kill_degrades_cleanly_on_one_and_two_cores() {
        for cores in [1, 2] {
            let out = chaos(&args(&format!(
                "chaos --transport channel --workers 2 --elems 32768 --cores {cores} --kill 1 \
                 --kill-at-ms 1 --max-wall-ms 2000 --json"
            )))
            .unwrap();
            let v = json_of(&out);
            assert_eq!(v[0]["passed"], true, "{out}");
            assert_eq!(v[0]["completed"], false, "{out}");
            assert!(v[0]["error"].as_str().is_some(), "{out}");
        }
    }

    /// `--ctrl` runs the controller-managed runner: the job must finish,
    /// its survivors agree, and (no shrink) match the reference. The
    /// kill-and-shrink path is the library's `ctrl-shrink-on-kill` and
    /// `ci.sh`'s UDP `chaos --ctrl --kill` gate, both release builds.
    #[test]
    fn chaos_shim_ctrl_json() {
        let out = chaos(&args(
            "chaos --transport channel --workers 3 --elems 4096 --ctrl --json",
        ))
        .unwrap();
        let v = json_of(&out);
        assert_eq!(v[0]["completed"], true, "{out}");
        assert_eq!(v[0]["survivors_agree"], true, "{out}");
        assert_eq!(v[0]["reference_match"], true, "{out}");
        assert!(v[0]["injected_faults"].as_u64().unwrap() > 0, "{out}");
        assert!(v[0]["events"].as_array().is_some(), "{out}");
        // One driver thread polls the three workers and waits.
        let driver = &v[0]["driver"];
        assert_eq!(driver["threads"].as_u64(), Some(1), "{out}");
        assert_eq!(driver["engines_per_thread"].as_f64(), Some(3.0), "{out}");
        assert!(driver["polls_per_sec"].as_f64().unwrap() > 0.0, "{out}");
        assert!(driver["spin_hits"].as_u64().is_some(), "{out}");
    }

    /// The storm run's oracles and the p99 verdict may fail on a loaded
    /// host; the document's shape and the isolation ledger may not.
    #[test]
    fn sched_shim_noisy_loss_keeps_the_churn_document() {
        let out = sched(&args(
            "sched --transport channel --jobs 3 --elems 4096 --noisy-loss 0.1 --seed 7 --json",
        ))
        .unwrap_or_else(|e| e);
        let v = json_of(&out);
        assert_eq!(v["bench"], "multijob_churn", "{out}");
        let section = &v["transports"][0];
        assert_eq!(section["transport"], "channel", "{out}");
        assert_eq!(
            section["isolation"]["quiet_injected_faults"].as_u64(),
            Some(0),
            "{out}"
        );
        assert!(
            section["isolation"]["noisy_injected_faults"]
                .as_u64()
                .unwrap()
                > 0,
            "{out}"
        );
        assert_eq!(v["reports"].as_array().unwrap().len(), 2, "{out}");
        for r in v["reports"].as_array().unwrap() {
            assert_eq!(r["driver"]["threads"].as_u64(), Some(1), "{out}");
            assert_eq!(
                r["driver"]["engines_per_thread"].as_f64(),
                Some(6.0),
                "{out}"
            );
        }
        assert!(sched(&args("sched --transport both")).is_err());
    }

    #[test]
    fn ctrl_shim_healthy_and_shrinking() {
        let v = json_of(&ctrl(&args("ctrl --workers 3 --elems 256 --json")).unwrap());
        assert_eq!(v[0]["passed"], true, "{v:?}");
        assert_eq!(v[0]["jobs"][0]["epoch"].as_u64(), Some(0), "{v:?}");
        assert_eq!(v[0]["jobs"][0]["workers"].as_u64(), Some(3), "{v:?}");
        let out = ctrl(&args(
            "ctrl --workers 4 --elems 256 --fail-worker 1 --fail-at-us 25 --json",
        ))
        .unwrap();
        let v = json_of(&out);
        assert_eq!(v[0]["completed"], true, "{out}");
        assert_eq!(v[0]["jobs"][0]["epoch"].as_u64(), Some(1), "{out}");
        assert_eq!(v[0]["jobs"][0]["workers"].as_u64(), Some(3), "{out}");
        // Out of range is an error, not a silent no-op.
        let err = ctrl(&args("ctrl --workers 4 --fail-worker 4")).unwrap_err();
        assert!(err.contains("killed worker 4"), "{err}");
    }

    #[test]
    fn ctrl_shim_failover_needs_standby() {
        assert!(ctrl(&args("ctrl --failover-at-us 100")).is_err());
        let out = ctrl(&args(
            "ctrl --workers 3 --elems 256 --switches 2 --failover-at-us 100 --json",
        ))
        .unwrap();
        let v = json_of(&out);
        assert_eq!(v[0]["passed"], true, "{out}");
        assert!(out.contains("failover: switch 0 -> 1"), "{out}");
    }
}
