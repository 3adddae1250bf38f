//! Subcommand implementations.

use crate::args::Args;
use switchml_baselines::{
    run_hd, run_ps, run_ring, run_switchml, run_switchml_hierarchy, run_switchml_traced,
    CollectiveOutcome, HdScenario, HierScenario, PsPlacement, PsScenario, RingScenario,
    SwitchMLScenario,
};
use switchml_core::config::{NumericMode, Protocol};
use switchml_core::switch::pipeline::PipelineModel;
use switchml_core::tune_pool_size;
use switchml_dnn::data::gaussian_blobs;
use switchml_dnn::real_train::{train as train_model, Aggregation, TrainConfig};
use switchml_netsim::trace::EventLog;

fn gbps(args: &Args) -> Result<u64, String> {
    Ok(args.get::<u64>("bandwidth-gbps", 10)? * 1_000_000_000)
}

/// The probabilistic fault flags shared by every chaos-capable command
/// (`--seed` plus loss/dup/reorder probabilities), parsed into one
/// [`switchml_scenario::FaultPlan`] so the commands cannot drift
/// apart on spellings or defaults again. `loss_flag` preserves
/// `sched`'s historical `--noisy-loss` spelling.
fn fault_flags(
    args: &Args,
    loss_flag: &str,
    default_loss: f64,
    default_dup: f64,
    default_reorder: f64,
) -> Result<switchml_scenario::FaultPlan, String> {
    Ok(switchml_scenario::FaultPlan {
        seed: args.get("seed", 1)?,
        loss: args.get(loss_flag, default_loss)?,
        dup: args.get("dup", default_dup)?,
        reorder: args.get("reorder", default_reorder)?,
        ..switchml_scenario::FaultPlan::default()
    })
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

/// `udp`: the protocol over real loopback sockets (or the in-memory
/// channel fabric for an apples-to-apples comparison), with burst I/O
/// and optional multi-core sharding.
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
    ])?;
    use switchml_transport::channel::channel_fabric;
    use switchml_transport::faulty::{faulty_fabric, FaultyConfig};
    use switchml_transport::reactor::run_allreduce_reactor;
    use switchml_transport::runner::{run_allreduce, RunConfig, RunReport};
    use switchml_transport::shard::{run_allreduce_sharded, sharded_fabric_size};
    use switchml_transport::udp::udp_fabric;
    use switchml_transport::Port;

    let workers: usize = args.get("workers", 2)?;
    let elems: usize = args.get("elems", 4096)?;
    let loss: f64 = args.get("loss", 0.0)?;
    let transport = args.get_str("transport", "udp");
    let burst: usize = args.get("burst", 8)?;
    let cores: usize = args.get("cores", 1)?;
    let runner = args.get_str("runner", "threaded");
    let threads: usize = args.get("threads", 2)?;
    if transport != "udp" && transport != "channel" {
        return Err(format!(
            "--transport: expected udp|channel, got '{transport}'"
        ));
    }
    if runner != "threaded" && runner != "reactor" {
        return Err(format!(
            "--runner: expected threaded|reactor, got '{runner}'"
        ));
    }
    if burst == 0 || cores == 0 || threads == 0 {
        return Err("--burst, --cores and --threads must be at least 1".into());
    }
    let proto = Protocol {
        n_workers: workers,
        pool_size: 32,
        rto_ns: 2_000_000,
        ..Protocol::default()
    };
    let cfg = RunConfig {
        n_cores: cores,
        burst,
        ..RunConfig::default()
    };
    let updates: Vec<Vec<Vec<f32>>> = (0..workers)
        .map(|w| vec![vec![(w + 1) as f32; elems]])
        .collect();
    let expect: f32 = (1..=workers).map(|x| x as f32).sum();

    /// Reactor when asked for, single-switch runner for one core,
    /// sharded (thread-per-engine) runner otherwise.
    fn drive<P: Port + 'static>(
        ports: Vec<P>,
        updates: Vec<Vec<Vec<f32>>>,
        proto: &Protocol,
        cfg: &RunConfig,
        reactor_threads: Option<usize>,
    ) -> switchml_core::Result<RunReport> {
        match reactor_threads {
            Some(t) => run_allreduce_reactor(ports, updates, proto, cfg, t),
            None if cfg.n_cores > 1 => run_allreduce_sharded(ports, updates, proto, cfg),
            None => run_allreduce(ports, updates, proto, cfg),
        }
    }

    let reactor_threads = (runner == "reactor").then_some(threads);
    let size = if cores > 1 || reactor_threads.is_some() {
        sharded_fabric_size(workers, cores)
    } else {
        workers + 1
    };
    // Loss is injected by the deterministic fault wrapper over either
    // fabric; real sockets exercise the retransmission path on top of
    // whatever the kernel itself drops.
    let report = match (transport.as_str(), loss > 0.0) {
        ("channel", false) => drive(channel_fabric(size), updates, &proto, &cfg, reactor_threads),
        ("channel", true) => {
            let (ports, _) = faulty_fabric(channel_fabric(size), FaultyConfig::loss_only(loss), 42);
            drive(ports, updates, &proto, &cfg, reactor_threads)
        }
        ("udp", false) => {
            let ports = udp_fabric(size).map_err(|e| e.to_string())?;
            drive(ports, updates, &proto, &cfg, reactor_threads)
        }
        _ => {
            let ports = udp_fabric(size).map_err(|e| e.to_string())?;
            let (ports, _) = faulty_fabric(ports, FaultyConfig::loss_only(loss), 42);
            drive(ports, updates, &proto, &cfg, reactor_threads)
        }
    }
    .map_err(|e| e.to_string())?;

    let got = report.results[0][0][0];
    let mut out = format!(
        "all-reduce of {elems} elems across {workers} workers in {:?}\n\
         transport {transport}, {cores} core(s), burst {burst}, runner {runner}\n\
         result[0] = {got} (expected {expect}), retransmissions: {}, send errors: {}",
        report.wall,
        report.worker_stats.iter().map(|s| s.retx).sum::<u64>(),
        report.transport_stats.send_errors,
    );
    // `--cores N` runs are the same engine driver with one engine per
    // thread and carry its counters too; the line is printed only when
    // the user asked for the reactor.
    if let Some(r) = report.reactor.as_ref().filter(|_| runner == "reactor") {
        out.push_str(&format!(
            "\nreactor: {} thread(s), {:.1} engines/thread, {:.0} polls/s, \
             {} timer fires, {} cascades\n\
             idle (all polling loops): {} spin hits, {} spin misses, {} naps, \
             {:.2} ms spun, {:.2} ms napped",
            r.threads,
            r.engines_per_thread(),
            r.polls_per_sec(report.wall),
            r.timer_fires,
            r.cascades,
            r.spin_hits,
            r.spin_misses,
            r.idle_sleeps,
            r.spun_ns as f64 / 1e6,
            r.napped_ns as f64 / 1e6,
        ));
    }
    Ok(out)
}

/// `ctrl`: controller-managed jobs on the simulated rack — lifecycle,
/// heartbeat-driven failure detection, live shrink, switch failover.
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
    use switchml_ctrl::netsim::{run_ctrl, CtrlScenario};

    let mut sc = CtrlScenario {
        n_workers: args.get("workers", 4)?,
        n_jobs: args.get("jobs", 1)?,
        n_switches: args.get("switches", 1)?,
        elems: args.get("elems", 4096)?,
        k: args.get("k", 8)?,
        pool_size: args.get("pool", 8)?,
        loss: args.get("loss", 0.0)?,
        seed: args.get("seed", 1)?,
        deadline_ms: 5_000,
        ..CtrlScenario::default()
    };
    let fail_worker: i64 = args.get("fail-worker", -1)?;
    if fail_worker >= 0 {
        sc.fail_worker = Some((fail_worker as usize, args.get("fail-at-us", 25)?));
    }
    let failover_at: i64 = args.get("failover-at-us", -1)?;
    if failover_at >= 0 {
        if sc.n_switches < 2 {
            return Err("--failover-at-us needs --switches 2 (or more)".into());
        }
        sc.fail_over = Some((failover_at as u64, 0, 1));
    }

    let out = run_ctrl(&sc);
    if args.switch("json") {
        let jobs: Vec<serde_json::Value> = (0..sc.n_jobs)
            .map(|j| {
                serde_json::json!({
                    "job": j,
                    "epoch": out.final_epoch[j],
                    "workers": out.final_n[j],
                    "scaling_factor": out.final_f[j],
                })
            })
            .collect();
        Ok(serde_json::json!({
            "finished": out.finished,
            "jobs": jobs,
            "events": out.events,
            "sim_end_ns": out.report.end_time.0,
        })
        .to_string())
    } else {
        let mut text = format!(
            "control plane: {} job(s) x {} worker(s), {} switch(es) — {}\n",
            sc.n_jobs,
            sc.n_workers,
            sc.n_switches,
            if out.finished {
                "all surviving workers completed"
            } else {
                "DID NOT COMPLETE within the deadline"
            },
        );
        for j in 0..sc.n_jobs {
            text.push_str(&format!(
                "  job {j}: epoch {} with {} worker(s), f = {:.3e}\n",
                out.final_epoch[j], out.final_n[j], out.final_f[j],
            ));
        }
        if out.events.is_empty() {
            text.push_str("  (no controller events)");
        } else {
            text.push_str("  controller events:\n");
            for e in &out.events {
                text.push_str(&format!("    {e}\n"));
            }
        }
        Ok(text.trim_end().to_string())
    }
}

/// `scenario`: the declarative chaos lab's front door — list the
/// curated library, print one scenario as `.scenario` JSON, run one by
/// name (or from a file) on any transport, or replay the standing
/// regression suite CI gates on. Any violated oracle exits nonzero.
pub fn scenario(args: &Args) -> Result<String, String> {
    args.assert_known(&["transport", "file", "json"])?;
    use switchml_scenario::{library, run_scenario, Scenario, ScenarioReport, Transport};

    let json = args.switch("json");
    let sel = args.get_str("transport", "all");
    let selected: Vec<Transport> = if sel == "all" {
        Transport::ALL.to_vec()
    } else {
        vec![Transport::parse(&sel)?]
    };
    let report_json = |r: &ScenarioReport| -> serde_json::Value {
        serde_json::json!({
            "scenario": r.scenario,
            "transport": r.transport.name(),
            "completed": r.completed,
            "passed": r.passed(),
            "violations": r.violations,
            "error": r.error,
            "fingerprint": format!("{:#018x}", r.fingerprint),
            "wall_ms": r.wall_ms,
        })
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
            let mut reports = Vec::new();
            for t in ts {
                reports.push(run_scenario(&sc, t)?);
            }
            let failed = reports.iter().any(|r| !r.passed());
            let text = if json {
                let rows: Vec<serde_json::Value> = reports.iter().map(&report_json).collect();
                serde_json::to_value(&rows).to_string()
            } else {
                reports
                    .iter()
                    .map(|r| r.summary())
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            if failed {
                Err(text)
            } else {
                Ok(text)
            }
        }
        "suite" => {
            // The standing regression gate: the full library on every
            // selected transport, except that UDP runs only the curated
            // subset (CI time budget) — `scenario run NAME --transport
            // udp` runs any scenario on demand.
            let mut lines = Vec::new();
            let mut rows = Vec::new();
            let mut failures = 0usize;
            for sc in library::all() {
                for t in sc.supported_transports() {
                    if !selected.contains(&t) {
                        continue;
                    }
                    if t == Transport::Udp && !library::udp_subset().contains(&sc.name.as_str()) {
                        continue;
                    }
                    match run_scenario(&sc, t) {
                        Ok(rep) => {
                            if !rep.passed() {
                                failures += 1;
                            }
                            if json {
                                rows.push(report_json(&rep));
                            }
                            lines.push(rep.summary());
                        }
                        Err(e) => {
                            failures += 1;
                            lines.push(format!("{} [{}]: ERROR — {e}", sc.name, t.name()));
                        }
                    }
                }
            }
            let text = if json {
                serde_json::json!({
                    "suite": "scenario-library",
                    "runs": lines.len(),
                    "failures": failures,
                    "reports": rows,
                })
                .to_string()
            } else {
                format!(
                    "scenario suite: {} run(s), {} failure(s)\n  {}",
                    lines.len(),
                    failures,
                    lines.join("\n  ")
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
/// it degrades to a reported error. Silent corruption exits nonzero.
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
    use switchml_scenario::{
        run_scenario, Detail, JobSpec, KillWhen, RtoMode, RunnerKind, Scenario, Topology, Transport,
    };

    let workers: usize = args.get("workers", 3)?;
    let elems: usize = args.get("elems", 4096)?;
    let cores: usize = args.get("cores", 1)?;
    let burst: usize = args.get("burst", 8)?;
    let transport = args.get_str("transport", "channel");
    if transport != "udp" && transport != "channel" {
        return Err(format!(
            "--transport: expected udp|channel, got '{transport}'"
        ));
    }
    if workers < 2 || cores == 0 || burst == 0 {
        return Err("need --workers >= 2 and --cores/--burst >= 1".into());
    }
    let rto_mode =
        RtoMode::parse(&args.get_str("rto", "adaptive")).map_err(|e| format!("--rto: {e}"))?;
    let straggler_w: i64 = args.get("straggler", -1)?;
    let stall_us: u64 = args.get("stall-us", 50)?;
    let kill_w: i64 = args.get("kill", -1)?;
    let kill_at_ms: u64 = args.get("kill-at-ms", 5)?;
    let restart_ms: i64 = args.get("switch-restart-ms", -1)?;
    let ctrl_mode = args.switch("ctrl") || restart_ms >= 0;
    if (straggler_w >= 0 && straggler_w as usize >= workers)
        || (kill_w >= 0 && kill_w as usize >= workers)
    {
        return Err("--straggler/--kill name a worker index < --workers".into());
    }
    let json = args.switch("json");

    // The flags compile to one declarative scenario; the DSL engine
    // owns the endpoint mapping, the fault wiring, and the
    // bit-identical bar (observe-only: no expectations, but silent
    // corruption still surfaces as a violation).
    let mut faults = fault_flags(args, "loss", 0.02, 0.02, 0.05)?;
    if straggler_w >= 0 {
        faults.stragglers.push((straggler_w as usize, stall_us));
    }
    if kill_w >= 0 {
        faults
            .kills
            .push((kill_w as usize, KillWhen::ElapsedUs(kill_at_ms * 1_000)));
    }
    if restart_ms >= 0 {
        faults.switch_restart_ms = Some(restart_ms as u64);
    }
    let sc = Scenario {
        name: format!("cli-chaos-{transport}"),
        descr: "ad-hoc chaos schedule from CLI flags".into(),
        runner: if ctrl_mode {
            RunnerKind::Ctrl
        } else if cores > 1 {
            RunnerKind::Sharded
        } else {
            RunnerKind::Plain
        },
        topology: Topology {
            workers,
            cores,
            // The harness's historical protocol: paper-default packet
            // size over a 32-slot pool.
            k: Protocol::default().k,
            pool_size: 32,
            ..Topology::default()
        },
        jobs: vec![JobSpec {
            elems,
            ..JobSpec::default()
        }],
        faults,
        expect: Vec::new(),
        max_wall_ms: args.get("max-wall-ms", 10_000)?,
        rto_us: args.get("rto-us", 2_000)?,
        rto_mode,
        burst,
        only_transports: None,
    };
    let rep =
        run_scenario(&sc, Transport::parse(&transport)?).map_err(|e| format!("chaos: {e}"))?;

    if ctrl_mode {
        // Controller-managed run: a killed worker is detected by
        // heartbeat silence and the job shrinks and resumes under a
        // bumped epoch; a switch restart is recovered by an in-place
        // failover. The DSL engine checks the §5.4 bar unconditionally
        // — survivor disagreement or a reference mismatch lands in the
        // report's violations, a failed run in its error.
        if !rep.violations.is_empty() {
            return Err(format!("chaos (ctrl): {}", rep.violations.join("; ")));
        }
        let report = match rep.detail {
            Detail::Ctrl(r) => r,
            _ => {
                return Err(format!(
                    "chaos (ctrl): {}",
                    rep.error.unwrap_or_else(|| "run produced no report".into())
                ))
            }
        };

        let retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
        let srtt_us: f64 = report
            .worker_stats
            .iter()
            .map(|s| s.srtt_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e3;
        if json {
            let injected = serde_json::json!({
                "send_drops": report.transport_stats.injected_send_drops,
                "recv_drops": report.transport_stats.injected_recv_drops,
                "dups": report.transport_stats.injected_dups,
                "reorders": report.transport_stats.injected_reorders,
            });
            let per_pool: Vec<serde_json::Value> = report
                .per_pool_switch_stats
                .iter()
                .map(|(job, s)| {
                    serde_json::json!({
                        "wire_job": *job,
                        "updates": s.updates,
                        "duplicates": s.duplicates,
                        "completions": s.completions,
                        "stale_epoch_drops": s.stale_epoch,
                    })
                })
                .collect();
            return Ok(serde_json::json!({
                "outcome": "bit-identical",
                "mode": "ctrl",
                "transport": transport,
                "workers": workers,
                "survivors": report.final_n,
                "epoch": report.final_epoch,
                "retransmissions": retx,
                "injected_faults": report.transport_stats.injected_faults(),
                "injected": injected,
                "stale_epoch_drops": report.switch_stats.stale_epoch,
                "per_pool": per_pool,
                "rtt_samples": report.worker_stats.iter().map(|s| s.rtt_samples).sum::<u64>(),
                "srtt_us": srtt_us,
                "events": report.events,
                "wall_ms": report.wall.as_millis() as u64,
            })
            .to_string());
        }
        let mut text = format!(
            "chaos (ctrl, {transport}): {} of {workers} worker(s) finished epoch {} \
             bit-identical in {:?}\n  \
             retransmissions: {retx}   injected faults: {}   \
             stale-epoch drops at switch: {}   srtt: {srtt_us:.1} us",
            report.final_n,
            report.final_epoch,
            report.wall,
            report.transport_stats.injected_faults(),
            report.switch_stats.stale_epoch,
        );
        text.push_str(&format!(
            "\n  injected: send-drops {}  recv-drops {}  dups {}  reorders {}",
            report.transport_stats.injected_send_drops,
            report.transport_stats.injected_recv_drops,
            report.transport_stats.injected_dups,
            report.transport_stats.injected_reorders,
        ));
        if !report.per_pool_switch_stats.is_empty() {
            text.push_str("\n  per-pool switch counters (one pool per job generation):");
            for (job, s) in &report.per_pool_switch_stats {
                text.push_str(&format!(
                    "\n    wire-job {job}: updates {}  dups {}  completions {}  \
                     stale-epoch drops {}",
                    s.updates, s.duplicates, s.completions, s.stale_epoch,
                ));
            }
        }
        if !report.events.is_empty() {
            text.push_str("\n  controller events:");
            for e in &report.events {
                text.push_str(&format!("\n    {e}"));
            }
        }
        return Ok(text);
    }

    // Plain data plane: no control plane, so a kill must surface as a
    // reported error (clean degradation), never as wrong numbers. The
    // DSL engine turns silent corruption into a violation.
    if !rep.violations.is_empty() {
        return Err(format!("chaos: {}", rep.violations.join("; ")));
    }
    match rep.detail {
        Detail::Run(report) => {
            let retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
            let samples: u64 = report.worker_stats.iter().map(|s| s.rtt_samples).sum();
            let srtt_us = report
                .worker_stats
                .iter()
                .map(|s| s.srtt_ns)
                .max()
                .unwrap_or(0) as f64
                / 1e3;
            if json {
                Ok(serde_json::json!({
                    "outcome": "bit-identical",
                    "mode": "plain",
                    "transport": transport,
                    "workers": workers,
                    "cores": cores,
                    "retransmissions": retx,
                    "injected_faults": report.transport_stats.injected_faults(),
                    "rtt_samples": samples,
                    "srtt_us": srtt_us,
                    "wall_ms": report.wall.as_millis() as u64,
                })
                .to_string())
            } else {
                Ok(format!(
                    "chaos ({transport}, {cores} core(s)): completed bit-identical to the \
                     sequential reference in {:?}\n  \
                     retransmissions: {retx}   injected faults: {}   \
                     rtt samples: {samples}   srtt: {srtt_us:.1} us",
                    report.wall,
                    report.transport_stats.injected_faults(),
                ))
            }
        }
        _ => {
            let e = rep.error.unwrap_or_else(|| "did not complete".into());
            if json {
                Ok(serde_json::json!({
                    "outcome": "clean-degradation",
                    "mode": "plain",
                    "transport": transport,
                    "error": e,
                })
                .to_string())
            } else {
                Ok(format!(
                    "chaos ({transport}): degraded cleanly (no silent corruption)\n  {e}"
                ))
            }
        }
    }
}

/// `sched`: multi-tenant churn under the slot scheduler. Submits a
/// seeded population of jobs (mixed priority classes, staggered
/// arrivals) against one shared switch over a real transport, and
/// reports the churn metrics the multi-job benchmark tracks:
/// arrivals/sec, p99 admission-to-first-aggregate, and aggregate
/// tensor-element throughput. With `--noisy-loss` it runs the
/// scenario twice — storm-free baseline, then a loss storm aimed at
/// job 0's ports — and *measures* isolation: quiet tenants must
/// absorb zero injected faults and keep their p99 completion latency
/// within 2x of the baseline, or the command exits nonzero.
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
    use std::time::Duration;
    use switchml_ctrl::sched::SchedRunReport;
    use switchml_scenario::{
        run_scenario, Detail, JobClass, JobSpec, RtoMode, RunnerKind, Scenario, Topology, Transport,
    };

    let n_jobs: usize = args.get("jobs", 6)?;
    let workers: usize = args.get("workers", 2)?;
    // Large enough that aggregation work, not scheduler quantum
    // noise, dominates each job's completion latency — the isolation
    // bound compares p99s across two runs.
    let elems: usize = args.get("elems", 16384)?;
    let capacity: u32 = args.get("capacity", 32)?;
    let arrival_ms: u64 = args.get("arrival-ms", 4)?;
    let high_every: usize = args.get("high-every", 3)?;
    let cores: usize = args.get("cores", 1)?;
    let bench_file = args.get_str("bench", "");
    let transport = args.get_str("transport", "channel");
    let json = args.switch("json");
    if n_jobs == 0 || n_jobs > 64 || workers < 2 {
        return Err("need 1..=64 --jobs and --workers >= 2".into());
    }
    match transport.as_str() {
        "udp" | "channel" => {}
        "both" if !bench_file.is_empty() => {}
        _ => {
            return Err(format!(
                "--transport: expected udp|channel (or both with --bench), got '{transport}'"
            ))
        }
    }

    // The flags compile to one declarative scenario (observe-only: the
    // churn metrics and the isolation verdict below are computed from
    // the full report). The storm, when any, is aimed at the first
    // tenant's workers.
    let mut faults = fault_flags(args, "noisy-loss", 0.0, 0.0, 0.0)?;
    faults.target_job = Some(0);
    let noisy_loss = faults.loss;
    let seed = faults.seed;
    let base_sc = Scenario {
        name: "cli-sched".into(),
        descr: "ad-hoc churn population from CLI flags".into(),
        runner: RunnerKind::Sched,
        topology: Topology {
            workers,
            cores,
            // The churn benchmark's historical protocol: small packets
            // over a small per-job pool so slot pressure is real.
            k: 8,
            pool_size: 16,
            capacity,
            ..Topology::default()
        },
        jobs: (0..n_jobs)
            .map(|j| JobSpec {
                elems,
                arrival_ms: arrival_ms * j as u64,
                class: if high_every > 0 && j % high_every == high_every - 1 {
                    JobClass::High
                } else {
                    JobClass::BestEffort
                },
                weight: 1 + (j as u32 % 2),
                // The (noisy) first tenant is capped so a storm cannot
                // also hog the pool.
                quota: if j == 0 { capacity / 2 } else { 0 },
                min_slots: 2,
            })
            .collect(),
        faults,
        expect: Vec::new(),
        max_wall_ms: args.get("max-wall-ms", 30_000)?,
        rto_us: 2_000,
        rto_mode: RtoMode::Fixed,
        burst: 8,
        only_transports: None,
    };

    let run_one = |transport: &str, loss: f64| -> Result<SchedRunReport, String> {
        let mut sc = base_sc.clone();
        sc.faults.loss = loss;
        let rep = run_scenario(&sc, Transport::parse(transport)?)
            .map_err(|e| format!("sched ({transport}): {e}"))?;
        if let Some(e) = rep.error {
            return Err(format!("sched ({transport}): {e}"));
        }
        match rep.detail {
            Detail::Sched(r) => Ok(r),
            _ => Err(format!("sched ({transport}): run produced no report")),
        }
    };

    let p99 = |mut xs: Vec<Duration>| -> Option<Duration> {
        if xs.is_empty() {
            return None;
        }
        xs.sort();
        let idx = ((xs.len() as f64) * 0.99).ceil() as usize;
        Some(xs[idx.saturating_sub(1).min(xs.len() - 1)])
    };

    // Churn metrics + isolation verdict for one transport. Violations
    // make the whole command fail after reporting.
    let mut violations: Vec<String> = Vec::new();
    let mut measure = |transport: &str| -> Result<serde_json::Value, String> {
        let baseline = run_one(transport, 0.0)?;
        if !baseline.all_complete() {
            return Err(format!(
                "sched ({transport}): baseline churn did not drain: {:?}",
                baseline.events
            ));
        }
        let admitted = baseline.outcomes.iter().filter(|o| o.admitted).count();
        let wall_s = baseline.wall.as_secs_f64().max(1e-9);
        let arrivals_per_sec = admitted as f64 / wall_s;
        let p99_first_us = p99(baseline
            .outcomes
            .iter()
            .filter_map(|o| o.first_aggregate)
            .collect())
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
        // Aggregate tensor elements: every switch-side completion
        // aggregates one k-element chunk across the job's workers.
        let ate: u64 = baseline
            .outcomes
            .iter()
            .map(|o| o.switch_stats.completions * base_sc.topology.k as u64)
            .sum();
        let ate_per_sec = ate as f64 / wall_s;

        let isolation = if noisy_loss > 0.0 {
            let stormy = run_one(transport, noisy_loss)?;
            if !stormy.all_complete() {
                violations.push(format!("{transport}: storm churn did not drain"));
            }
            let quiet_p99 = |r: &SchedRunReport| {
                p99(r
                    .outcomes
                    .iter()
                    .filter(|o| o.job != 0)
                    .filter_map(|o| o.completed_at)
                    .collect())
                .unwrap_or_default()
            };
            let (bp, sp) = (quiet_p99(&baseline), quiet_p99(&stormy));
            let noisy = stormy.outcomes.iter().find(|o| o.job == 0).unwrap();
            if noisy.injected_faults == 0 {
                violations.push(format!(
                    "{transport}: loss storm never hit the noisy tenant"
                ));
            }
            let leaked: u64 = stormy
                .outcomes
                .iter()
                .filter(|o| o.job != 0)
                .map(|o| o.injected_faults)
                .sum();
            if leaked > 0 {
                violations.push(format!(
                    "{transport}: {leaked} injected fault(s) attributed to quiet tenants"
                ));
            }
            if sp > bp * 2 + Duration::from_millis(1) {
                violations.push(format!(
                    "{transport}: quiet p99 inflated by the storm: {bp:?} -> {sp:?}"
                ));
            }
            serde_json::json!({
                "noisy_loss": noisy_loss,
                "noisy_injected_faults": noisy.injected_faults,
                "noisy_retransmissions": noisy.worker_stats.retx,
                "quiet_injected_faults": leaked,
                "baseline_quiet_p99_us": bp.as_micros() as u64,
                "storm_quiet_p99_us": sp.as_micros() as u64,
            })
        } else {
            serde_json::Value::Null
        };

        Ok(serde_json::json!({
            "transport": transport,
            "jobs": n_jobs,
            "admitted": admitted,
            "all_complete": baseline.all_complete(),
            "wall_ms": baseline.wall.as_millis() as u64,
            "arrivals_per_sec": arrivals_per_sec,
            "p99_admission_to_first_aggregate_us": p99_first_us,
            "aggregate_ate_per_sec": ate_per_sec,
            "total_resizes": baseline.outcomes.iter().map(|o| o.resizes as u64).sum::<u64>(),
            "stale_epoch_drops": baseline.outcomes.iter()
                .map(|o| o.switch_stats.stale_epoch).sum::<u64>(),
            "isolation": isolation,
        }))
    };

    let transports: Vec<&str> = if transport == "both" {
        vec!["channel", "udp"]
    } else {
        vec![transport.as_str()]
    };
    let mut sections = Vec::new();
    for t in &transports {
        sections.push(measure(t)?);
    }

    let config = serde_json::json!({
        "jobs": n_jobs,
        "workers_per_job": workers,
        "elems": elems,
        "capacity_slots": capacity,
        "arrival_ms": arrival_ms,
        "high_every": high_every,
        "seed": seed,
        "noisy_loss": noisy_loss,
    });
    let doc = serde_json::json!({
        "bench": "multijob_churn",
        "config": config,
        "transports": sections,
        "isolation_violations": violations,
    });
    if !bench_file.is_empty() {
        std::fs::write(&bench_file, serde_json::to_string_pretty(&doc).unwrap())
            .map_err(|e| format!("cannot write {bench_file}: {e}"))?;
    }

    let text = if json {
        doc.to_string()
    } else {
        let mut out = String::from("sched: multi-tenant churn");
        for s in &sections {
            out.push_str(&format!(
                "\n  {}: {} of {} job(s) admitted, drained in {} ms\n    \
                 arrivals/sec: {:.1}   p99 admission→first-aggregate: {} us   \
                 aggregate throughput: {:.0} elem/s   repartitions: {}",
                s["transport"].as_str().unwrap(),
                s["admitted"],
                s["jobs"],
                s["wall_ms"],
                s["arrivals_per_sec"].as_f64().unwrap(),
                s["p99_admission_to_first_aggregate_us"],
                s["aggregate_ate_per_sec"].as_f64().unwrap(),
                s["total_resizes"],
            ));
            if !s["isolation"].is_null() {
                let i = &s["isolation"];
                out.push_str(&format!(
                    "\n    isolation: noisy tenant absorbed {} fault(s) ({} retx); \
                     quiet tenants absorbed {}; quiet p99 {} us baseline -> {} us under storm",
                    i["noisy_injected_faults"],
                    i["noisy_retransmissions"],
                    i["quiet_injected_faults"],
                    i["baseline_quiet_p99_us"],
                    i["storm_quiet_p99_us"],
                ));
            }
        }
        if !bench_file.is_empty() {
            out.push_str(&format!("\n  wrote {bench_file}"));
        }
        out
    };
    if violations.is_empty() {
        Ok(text)
    } else {
        Err(format!(
            "{text}\n  ISOLATION VIOLATIONS:\n    {}",
            violations.join("\n    ")
        ))
    }
}

/// `hier`: two-level (leaf + spine) aggregation over a real transport,
/// optionally compared against the flat star on the same workload.
/// The flat star funnels every worker into one switch socket; the
/// hierarchy bounds per-socket fan-in to `max(per_rack, racks)`, which
/// is the §6 motivation made measurable on loopback UDP.
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
        "up-rto-us",
        "flat",
        "json",
    ])?;
    use std::time::Duration;
    use switchml_core::agg;
    use switchml_transport::channel::channel_fabric;
    use switchml_transport::faulty::{faulty_fabric, FaultyConfig};
    use switchml_transport::hier::{hier_fabric_size, run_allreduce_hier, HierConfig};
    use switchml_transport::reactor::run_allreduce_reactor;
    use switchml_transport::runner::{RunConfig, RunReport};
    use switchml_transport::shard::{sharded_channel_fabric, sharded_fabric_size};
    use switchml_transport::udp::udp_fabric;
    use switchml_transport::Port;

    let racks: usize = args.get("racks", 2)?;
    let per_rack: usize = args.get("per-rack", 4)?;
    let elems: usize = args.get("elems", 4096)?;
    let transport = args.get_str("transport", "udp");
    let threads: usize = args.get("threads", 2)?;
    let burst: usize = args.get("burst", 8)?;
    let loss: f64 = args.get("loss", 0.0)?;
    let seed: u64 = args.get("seed", 42)?;
    let kill_rack: i64 = args.get("kill-rack", -1)?;
    let kill_at_ms: u64 = args.get("kill-at-ms", 1)?;
    let up_rto_us: u64 = args.get("up-rto-us", 0)?;
    let compare_flat = args.switch("flat");
    let json = args.switch("json");
    if transport != "udp" && transport != "channel" {
        return Err(format!(
            "--transport: expected udp|channel, got '{transport}'"
        ));
    }
    if racks < 2 || per_rack < 1 {
        return Err("--racks must be >= 2 and --per-rack >= 1".into());
    }
    if kill_rack >= racks as i64 {
        return Err(format!("--kill-rack: rack {kill_rack} >= {racks} racks"));
    }
    let n = racks * per_rack;
    let proto = Protocol {
        n_workers: n,
        pool_size: 32,
        rto_ns: 2_000_000,
        scaling_factor: 10_000.0,
        ..Protocol::default()
    };
    let cfg = RunConfig {
        burst,
        ..RunConfig::default()
    };
    let hc = HierConfig {
        n_threads: threads,
        up_rto_ns: (up_rto_us > 0).then_some(up_rto_us * 1_000),
        kill_leaf: (kill_rack >= 0)
            .then(|| (kill_rack as usize, Duration::from_millis(kill_at_ms))),
        ..HierConfig::new(racks, per_rack)
    };
    let mk_updates = || -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|w| {
                vec![(0..elems)
                    .map(|i| (w + 1) as f32 + (i % 7) as f32 * 0.1)
                    .collect()]
            })
            .collect()
    };

    fn hier_fabric<P: Port + 'static>(
        base: Vec<P>,
        loss: f64,
        seed: u64,
        updates: Vec<Vec<Vec<f32>>>,
        proto: &Protocol,
        cfg: &RunConfig,
        hc: &HierConfig,
    ) -> switchml_core::Result<RunReport> {
        if loss > 0.0 {
            let (ports, _) = faulty_fabric(base, FaultyConfig::loss_only(loss), seed);
            run_allreduce_hier(ports, updates, proto, cfg, hc)
        } else {
            run_allreduce_hier(base, updates, proto, cfg, hc)
        }
    }

    let size = hier_fabric_size(racks, per_rack);
    let report = match transport.as_str() {
        "udp" => {
            let base = udp_fabric(size).map_err(|e| e.to_string())?;
            hier_fabric(base, loss, seed, mk_updates(), &proto, &cfg, &hc)
        }
        _ => hier_fabric(
            channel_fabric(size),
            loss,
            seed,
            mk_updates(),
            &proto,
            &cfg,
            &hc,
        ),
    }
    .map_err(|e| e.to_string())?;

    let reference = agg::allreduce(&mk_updates(), &proto).map_err(|e| e.to_string())?;
    let verified = report.results.iter().all(|t| *t == reference);
    if !verified {
        return Err("hierarchical results differ from the sequential reference".into());
    }
    let hr = report.hier.as_ref().expect("hier counters");
    let worker_retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
    let up_retx: u64 = hr.leaf_up_stats.iter().map(|s| s.retx).sum();
    let ate = elems as f64 / report.wall.as_secs_f64();

    // The flat star on the same workload: one switch socket absorbing
    // all n workers, reactor-multiplexed on the same thread count.
    let flat = if compare_flat {
        fn flat_drive<P: Port + 'static>(
            ports: Vec<P>,
            loss: f64,
            seed: u64,
            updates: Vec<Vec<Vec<f32>>>,
            proto: &Protocol,
            cfg: &RunConfig,
            threads: usize,
        ) -> switchml_core::Result<RunReport> {
            if loss > 0.0 {
                let (ports, _) = faulty_fabric(ports, FaultyConfig::loss_only(loss), seed);
                run_allreduce_reactor(ports, updates, proto, cfg, threads)
            } else {
                run_allreduce_reactor(ports, updates, proto, cfg, threads)
            }
        }
        let flat_report = match transport.as_str() {
            "udp" => {
                let ports = udp_fabric(sharded_fabric_size(n, 1)).map_err(|e| e.to_string())?;
                flat_drive(ports, loss, seed, mk_updates(), &proto, &cfg, threads)
            }
            _ => flat_drive(
                sharded_channel_fabric(n, 1),
                loss,
                seed,
                mk_updates(),
                &proto,
                &cfg,
                threads,
            ),
        }
        .map_err(|e| e.to_string())?;
        if flat_report.results.iter().any(|t| *t != reference) {
            return Err("flat-star results differ from the sequential reference".into());
        }
        Some(flat_report)
    } else {
        None
    };

    if json {
        use serde_json::{json, Value};
        let mut fields: Vec<(String, Value)> = vec![
            ("racks".into(), json!(racks as u64)),
            ("per_rack".into(), json!(per_rack as u64)),
            ("workers".into(), json!(n as u64)),
            ("elems".into(), json!(elems as u64)),
            ("transport".into(), json!(transport)),
            ("threads".into(), json!(threads as u64)),
            ("verified".into(), json!(verified)),
            ("wall_ms".into(), json!(report.wall.as_secs_f64() * 1e3)),
            ("ate_per_sec".into(), json!(ate)),
            ("worker_retx".into(), json!(worker_retx)),
            ("leaf_up_retx".into(), json!(up_retx)),
            (
                "rack_epochs".into(),
                Value::Array(hr.rack_epochs.iter().map(|&e| json!(e as u64)).collect()),
            ),
            ("leaf_reboots".into(), json!(hr.leaf_reboots)),
        ];
        if let Some(f) = &flat {
            fields.push(("flat_wall_ms".into(), json!(f.wall.as_secs_f64() * 1e3)));
            fields.push((
                "flat_ate_per_sec".into(),
                json!(elems as f64 / f.wall.as_secs_f64()),
            ));
            fields.push((
                "hier_speedup".into(),
                json!(f.wall.as_secs_f64() / report.wall.as_secs_f64()),
            ));
        }
        return Ok(Value::Object(fields).to_string());
    }
    let mut out = format!(
        "hierarchical all-reduce: {racks} racks x {per_rack} workers = {n}, {elems} elems\n\
         transport {transport}, {threads} reactor threads, burst {burst}\n\
         verified: {verified}   wall: {:.1} ms   {:.2} M ATE/s\n\
         retransmissions: {worker_retx} worker-hop, {up_retx} leaf->spine\n\
         rack epochs: {:?}   leaf reboots: {}",
        report.wall.as_secs_f64() * 1e3,
        ate / 1e6,
        hr.rack_epochs,
        hr.leaf_reboots,
    );
    if let Some(f) = &flat {
        out.push_str(&format!(
            "\nflat star (same {n} workers, one switch socket): {:.1} ms — hierarchy speedup {:.2}x",
            f.wall.as_secs_f64() * 1e3,
            f.wall.as_secs_f64() / report.wall.as_secs_f64(),
        ));
    }
    Ok(out)
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
    fn unknown_flags_rejected() {
        assert!(simulate(&args("simulate --wrokers 8")).is_err());
        assert!(tune(&args("tune --bandwdith-gbps 10")).is_err());
    }

    #[test]
    fn udp_smoke() {
        let out = udp(&args("udp --workers 2 --elems 256")).unwrap();
        assert!(out.contains("expected 3"), "{out}");
    }

    #[test]
    fn ctrl_healthy_smoke() {
        let out = ctrl(&args("ctrl --workers 3 --elems 256")).unwrap();
        assert!(out.contains("all surviving workers completed"), "{out}");
        assert!(out.contains("epoch 0 with 3 worker(s)"), "{out}");
    }

    #[test]
    fn ctrl_kill_shrinks_json() {
        let out = ctrl(&args(
            "ctrl --workers 4 --elems 256 --fail-worker 1 --fail-at-us 25 --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["finished"], true, "{out}");
        assert_eq!(v["jobs"][0]["epoch"].as_u64(), Some(1), "{out}");
        assert_eq!(v["jobs"][0]["workers"].as_u64(), Some(3), "{out}");
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
    fn chaos_adapter_bit_identical_json() {
        let out = chaos(&args(
            "chaos --transport channel --workers 2 --elems 2048 --seed 7 --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["outcome"], "bit-identical", "{out}");
        assert_eq!(v["mode"], "plain", "{out}");
        assert!(v["injected_faults"].as_u64().unwrap() > 0, "{out}");
    }

    #[test]
    fn chaos_adapter_kill_degrades_cleanly() {
        let out = chaos(&args(
            "chaos --transport channel --workers 2 --elems 32768 --kill 1 --kill-at-ms 1 \
             --max-wall-ms 2000 --json",
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["outcome"], "clean-degradation", "{out}");
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

    #[test]
    fn ctrl_failover_needs_standby() {
        assert!(ctrl(&args("ctrl --failover-at-us 100")).is_err());
        let out = ctrl(&args(
            "ctrl --workers 3 --elems 256 --switches 2 --failover-at-us 100",
        ))
        .unwrap();
        assert!(out.contains("failover: switch 0 -> 1"), "{out}");
    }
}
