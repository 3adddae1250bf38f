//! Acceptance scenarios for the control plane (deterministic netsim).
//!
//! The two headline behaviors:
//!
//! 1. **Worker failure → shrink**: kill one of 8 workers
//!    mid-iteration; the controller detects the death by heartbeat
//!    timeout, quiesces the survivors, rescales `f` for n−1, and the
//!    remaining 7 finish with aggregates *exactly* equal to a fresh
//!    7-worker run over the same tensors.
//! 2. **Switch failover**: drain every admitted job off a failing
//!    switch onto a standby with no lost slot state — the results are
//!    exactly what an undisturbed run produces.

use switchml_core::quant::scaling::max_safe_factor;
use switchml_ctrl::netsim::{run_ctrl, scenario_tensor, CtrlScenario};

/// The quantized elementwise sum the dataplane must produce for
/// `worker_slots` at scaling factor `f` — the ground truth every
/// surviving worker's aggregate is compared against, bit for bit.
fn exact_sum(worker_slots: &[usize], elems: usize, bound: f64, f: f64) -> Vec<f32> {
    (0..elems)
        .map(|i| {
            let q: i64 = worker_slots
                .iter()
                .map(|&s| {
                    switchml_core::quant::fixed::quantize_one(
                        scenario_tensor(s, elems, bound)[i],
                        f,
                    ) as i64
                })
                .sum();
            (q as f64 / f) as f32
        })
        .collect()
}

#[test]
fn kill_one_of_eight_survivors_match_fresh_seven_worker_run() {
    // Worker 3 registers (its Register lands at ~20 us) and then dies
    // at 25 us — before its Start arrives at ~40 us — so it joins the
    // membership but contributes nothing to the dataplane.
    let sc = CtrlScenario {
        n_workers: 8,
        elems: 512,
        fail_worker: Some((3, 25)),
        ..CtrlScenario::default()
    };
    let out = run_ctrl(&sc).unwrap();
    assert!(out.finished, "events: {:?}", out.events);

    // The controller detected the death, shrank 8 → 7, and rescaled.
    assert_eq!(out.final_n[0], 7, "events: {:?}", out.events);
    assert_eq!(out.final_epoch[0], 1);
    let f7 = sc.requested_f.min(max_safe_factor(7, sc.bound));
    assert_eq!(out.final_f[0], f7);
    // (The simulation ends the moment every surviving worker holds the
    // full aggregate, so the final Done → JobComplete control hop may
    // still be in flight; completion is asserted via `finished`.)
    assert!(out.events.iter().any(|e| e.contains("dead")));
    assert!(out.events.iter().any(|e| e.contains("n=7")));

    // The victim produced nothing; all 7 survivors agree exactly.
    assert!(out.results[0][3].is_none());
    let survivor = out.results[0][0].as_ref().unwrap();
    for w in [1, 2, 4, 5, 6, 7] {
        assert_eq!(out.results[0][w].as_ref().unwrap(), survivor);
    }

    // A fresh 7-worker run over exactly the survivors' tensors
    // (tensor_skip maps slots 3.. to 4..) must agree bit for bit.
    let fresh = run_ctrl(&CtrlScenario {
        n_workers: 7,
        fail_worker: None,
        tensor_skip: Some(3),
        ..sc.clone()
    })
    .unwrap();
    assert!(fresh.finished, "events: {:?}", fresh.events);
    assert_eq!(fresh.final_f[0], f7, "same clamp, same f");
    assert_eq!(
        survivor,
        fresh.results[0][0].as_ref().unwrap(),
        "shrunk run must equal a fresh (n-1)-worker run exactly"
    );

    // And both match the quantized ground truth.
    let want = exact_sum(&[0, 1, 2, 4, 5, 6, 7], sc.elems, sc.bound, f7);
    assert_eq!(survivor[0], want);
}

#[test]
fn switch_failover_drains_all_jobs_onto_standby_losslessly() {
    // Two jobs on switch 0, standby switch 1; at 100 us — mid-stream —
    // the operator drains switch 0.
    let sc = CtrlScenario {
        n_jobs: 2,
        n_workers: 4,
        elems: 512,
        n_switches: 2,
        fail_over: Some((100, 0, 1)),
        ..CtrlScenario::default()
    };
    let out = run_ctrl(&sc).unwrap();
    assert!(out.finished, "events: {:?}", out.events);
    assert!(out
        .events
        .iter()
        .any(|e| e.contains("failover: switch 0 -> 1")));

    let f4 = sc.requested_f.min(max_safe_factor(4, sc.bound));
    for job in 0..2 {
        // Every job re-homed (one reconfiguration epoch), kept all its
        // workers, and completed on the standby.
        assert_eq!(out.final_epoch[job], 1, "events: {:?}", out.events);
        assert_eq!(out.final_n[job], 4);
        assert_eq!(out.final_f[job], f4, "failover must not change f");

        let first = out.results[job][0].as_ref().unwrap();
        for w in 1..4 {
            assert_eq!(out.results[job][w].as_ref().unwrap(), first);
        }
        // No slot state lost in the drain: bitwise-identical to the
        // quantized ground-truth sums (what an undisturbed run yields).
        let slots: Vec<usize> = (job * 4..job * 4 + 4).collect();
        let want = exact_sum(&slots, sc.elems, sc.bound, f4);
        assert_eq!(first[0], want, "job {job}");
    }

    // Sanity: the undisturbed twin agrees, so the failover was truly
    // transparent to the aggregates.
    let calm = run_ctrl(&CtrlScenario {
        fail_over: None,
        n_switches: 1,
        ..sc.clone()
    })
    .unwrap();
    assert!(calm.finished, "events: {:?}", calm.events);
    for job in 0..2 {
        assert_eq!(out.results[job][0], calm.results[job][0]);
    }
}

#[test]
fn kill_under_loss_still_shrinks_and_agrees() {
    // The full package: per-link loss on the worker links AND a death
    // mid-run. Control-plane resends mask the loss; the shrink engine
    // handles the death; survivors still agree exactly.
    let sc = CtrlScenario {
        n_workers: 5,
        elems: 256,
        loss: 0.02,
        seed: 11,
        fail_worker: Some((2, 25)),
        deadline_ms: 2_000,
        ..CtrlScenario::default()
    };
    let out = run_ctrl(&sc).unwrap();
    assert!(out.finished, "events: {:?}", out.events);
    assert_eq!(out.final_n[0], 4, "events: {:?}", out.events);
    assert!(out.results[0][2].is_none());
    let first = out.results[0][0].as_ref().unwrap();
    for w in [1, 3, 4] {
        assert_eq!(out.results[0][w].as_ref().unwrap(), first);
    }
}
