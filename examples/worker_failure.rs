//! Losing a worker mid-iteration, and losing a switch.
//!
//! The paper's dataplane assumes a fixed worker set; this example
//! shows the control plane (`switchml-ctrl`) handling the two events a
//! deployment actually sees:
//!
//! 1. A worker crashes mid-tensor. The controller notices the missing
//!    heartbeats, probes with exponential backoff, declares the worker
//!    dead, quiesces the survivors, rescales `f` for n−1 (Theorem 2),
//!    and resumes from the aggregated frontier. The survivors'
//!    aggregates match a fresh (n−1)-worker run bit for bit.
//! 2. A switch is drained: every admitted job is quiesced, evicted,
//!    and re-admitted on a standby switch with no lost slot state.
//!
//! Both run first on the deterministic simulator, then the crash is
//! repeated over real threads and channels with wall-clock timers.
//!
//! Run with: `cargo run --release --example worker_failure`

use std::time::Duration;

use switchml::core::config::Protocol;
use switchml::core::quant::scaling::max_safe_factor;
use switchml::ctrl::netsim::{run_ctrl, scenario_tensor, CtrlScenario};
use switchml::ctrl::runner::{run_controlled, CtrlRunConfig};
use switchml::transport::channel::channel_fabric;

fn main() {
    // ---- 1. deterministic simulation: kill one of 8 workers --------
    let sc = CtrlScenario {
        n_workers: 8,
        elems: 512,
        fail_worker: Some((3, 25)), // dies 25 us in, before streaming
        ..CtrlScenario::default()
    };
    println!(
        "simulated rack: {} workers; worker 3 dies 25 us into the run\n",
        sc.n_workers
    );
    let out = run_ctrl(&sc).expect("admission");
    assert!(out.finished, "events: {:?}", out.events);
    for e in &out.events {
        println!("  controller: {e}");
    }
    println!(
        "  job finished at epoch {} with {} workers, f = {:.3e}",
        out.final_epoch[0], out.final_n[0], out.final_f[0]
    );
    assert_eq!(out.final_n[0], 7);
    assert_eq!(
        out.final_f[0],
        sc.requested_f.min(max_safe_factor(7, sc.bound))
    );

    // Survivors must agree with a fresh 7-worker run *exactly*.
    let fresh = run_ctrl(&CtrlScenario {
        n_workers: 7,
        fail_worker: None,
        tensor_skip: Some(3), // same tensors as the survivors
        ..sc.clone()
    })
    .expect("admission");
    let survivor = out.results[0][0].as_ref().unwrap();
    assert_eq!(survivor, fresh.results[0][0].as_ref().unwrap());
    println!("  survivors' aggregate == fresh 7-worker run: bitwise equal\n");

    // ---- 2. deterministic simulation: drain a switch ---------------
    let sc2 = CtrlScenario {
        n_jobs: 2,
        n_workers: 4,
        n_switches: 2,
        elems: 512,
        fail_over: Some((100, 0, 1)), // drain switch 0 at 100 us
        ..CtrlScenario::default()
    };
    println!("two jobs on switch 0; switch 0 drained onto standby at 100 us\n");
    let out2 = run_ctrl(&sc2).expect("admission");
    assert!(out2.finished, "events: {:?}", out2.events);
    for e in &out2.events {
        println!("  controller: {e}");
    }
    for job in 0..2 {
        assert_eq!(out2.final_n[job], 4, "no worker lost in the failover");
    }
    println!("  both jobs completed on the standby with all workers\n");

    // ---- 3. real threads: the same crash under wall-clock timers ---
    let n = 4;
    println!("threaded run: {n} workers over channels; worker 1 crashes at 8 ms\n");
    let proto = Protocol {
        n_workers: n,
        k: 8,
        pool_size: 16,
        rto_ns: 2_000_000,
        scaling_factor: 1e9, // deliberately high; the controller clamps
        ..Protocol::default()
    };
    let updates: Vec<Vec<Vec<f32>>> = (0..n)
        .map(|w| vec![scenario_tensor(w, 16384, 16.0)])
        .collect();
    let cfg = CtrlRunConfig {
        kill: Some((1, Duration::from_millis(8))),
        heartbeat: Duration::from_millis(2),
        failure_timeout: Duration::from_millis(10),
        ..CtrlRunConfig::default()
    };
    let report =
        run_controlled(channel_fabric(n + 2), updates, &proto, &cfg).expect("controlled run");
    for e in &report.events {
        println!("  controller: {e}");
    }
    println!(
        "  finished in {:?} at epoch {} with {} workers, f = {:.3e}",
        report.wall, report.final_epoch, report.final_n, report.final_f
    );
    assert_eq!(report.final_n, n - 1);
    assert!(report.results[1].is_none(), "the dead worker holds nothing");
    let a = report.results[0].as_ref().unwrap();
    assert_eq!(a, report.results[2].as_ref().unwrap());
    assert_eq!(a, report.results[3].as_ref().unwrap());
    println!("  survivors agree exactly; the crash cost one reconfiguration");
}
