//! SwitchML under packet loss.
//!
//! Sweeps a uniform per-link loss probability over the simulated rack
//! and reports how the tensor aggregation time inflates, how many
//! retransmissions the workers issue, and the send-rate timeline at
//! one worker (the paper's §5.5 loss study, Figures 5 and 6). Then
//! runs the same protocol over real threads with a fault-injecting
//! transport to show end-to-end recovery outside the simulator.
//!
//! Run with: `cargo run --release --example lossy_network`

use switchml::baselines::{run_switchml_traced, SwitchMLScenario};
use switchml::core::config::Protocol;
use switchml::netsim::prelude::*;
use switchml::transport::channel::channel_fabric;
use switchml::transport::faulty::{faulty_fabric, FaultyConfig};
use switchml::transport::runner::{run_allreduce, RunConfig};

fn sparkline(series: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let chunk = series.len().div_ceil(40).max(1);
    let buckets: Vec<f64> = series
        .chunks(chunk)
        .map(|c| c.iter().sum::<u64>() as f64 / c.len() as f64)
        .collect();
    let max = buckets.iter().cloned().fold(1.0_f64, f64::max);
    buckets
        .iter()
        .map(|&v| BARS[((v / max) * 7.0).round() as usize])
        .collect()
}

fn main() {
    let elems = 2_000_000;
    println!("simulated rack: 8 workers, 10 Gbps, {elems} elements, 1 ms RTO\n");
    println!(
        "{:>7} {:>9} {:>10} {:>8}  timeline (packets sent per ms at worker 0)",
        "loss", "TAT_ms", "retx", "inflate"
    );
    let mut base = 0.0f64;
    for p in [0.0, 0.0001, 0.001, 0.01] {
        let mut sc = SwitchMLScenario::new(8, elems);
        sc.link = sc.link.with_loss(p);
        let mut trace = RateTrace::new(NodeId(1), Nanos::from_millis(1));
        let out = run_switchml_traced(&sc, &mut trace).expect("run failed");
        assert!(out.verified, "aggregation result corrupted by loss!");
        let tat_ms = out.max_tat.0 as f64 / 1e6;
        if p == 0.0 {
            base = tat_ms;
        }
        println!(
            "{:>6.2}% {:>9.2} {:>10} {:>7.2}x  {}",
            p * 100.0,
            tat_ms,
            out.total_retx,
            tat_ms / base,
            sparkline(&trace.counts)
        );
    }

    println!("\nthreaded run with 5% injected loss (real timers):");
    let proto = Protocol {
        n_workers: 4,
        pool_size: 32,
        rto_ns: 2_000_000,
        ..Protocol::default()
    };
    let updates: Vec<_> = (0..4).map(|w| vec![vec![(w + 1) as f32; 4096]]).collect();
    let (ports, loss_stats) = faulty_fabric(channel_fabric(5), FaultyConfig::loss_only(0.05), 7);
    let report =
        run_allreduce(ports, updates, &proto, &RunConfig::default()).expect("threaded run");
    let retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
    println!(
        "  completed in {:?}: {} datagrams dropped, {} retransmissions, sum[0] = {}",
        report.wall,
        loss_stats.dropped(),
        retx,
        report.results[0][0][0]
    );
    assert_eq!(report.results[0][0][0], 10.0); // 1+2+3+4
}
