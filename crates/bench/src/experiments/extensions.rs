//! Extension experiments beyond the paper's numbered figures: the
//! §5.4 RDMA discussion quantified, the §5.5 "Switch resources"
//! paragraph as a table, and a gradient-compression convergence
//! comparison across every numeric path this reproduction implements.

use super::ExperimentResult;
use switchml_baselines::{
    run_ring, run_switchml, run_switchml_hierarchy, HierScenario, RingScenario, SwitchMLScenario,
};
use switchml_core::config::Protocol;
use switchml_core::packet::MTU_K;
use switchml_core::switch::pipeline::PipelineModel;
use switchml_dnn::data::gaussian_blobs;
use switchml_dnn::real_train::{train, Aggregation, TrainConfig};

/// §5.4 "Can SwitchML be faster than RDMA?" — Gloo over TCP vs Gloo
/// over RDMA vs SwitchML at 100 Gbps.
pub fn ext_rdma(quick: bool) -> ExperimentResult {
    let elems = if quick { 200_000 } else { 2_000_000 };
    let mut result = ExperimentResult::new(
        "ext_rdma",
        "RDMA what-if at 100 Gbps (8 workers): Gloo-TCP vs Gloo-RDMA vs SwitchML",
        &["transport", "TAT_ms", "speedup_vs_tcp"],
    );
    let bw = 100_000_000_000;
    let mut tcp = RingScenario::gloo(8, elems);
    tcp.link.bandwidth_bps = bw;
    let t_tcp = run_ring(&tcp).expect("gloo tcp");
    assert!(t_tcp.verified);

    let mut rdma = RingScenario::gloo_rdma(8, elems);
    rdma.link.bandwidth_bps = bw;
    let t_rdma = run_ring(&rdma).expect("gloo rdma");
    assert!(t_rdma.verified);

    let sm = run_switchml(&SwitchMLScenario::new(8, elems).at_100g()).expect("switchml");
    assert!(sm.verified);

    let base = t_tcp.max_tat.0 as f64;
    for (name, tat) in [
        ("Gloo (TCP)", t_tcp.max_tat.0 as f64),
        ("Gloo (RDMA)", t_rdma.max_tat.0 as f64),
        ("SwitchML", sm.max_tat.0 as f64),
    ] {
        result.row(vec![
            name.to_string(),
            format!("{:.2}", tat / 1e6),
            format!("{:.1}x", base / tat),
        ]);
    }
    result.note("paper (§5.4): RDMA gave Gloo a ~4x speedup over TCP at 100 Gbps, yet SwitchML still wins — it moves 2|U| instead of 4(n−1)|U|/n bytes and needs no per-connection reliability state");
    result
}

/// §5.5 "Switch resources": register space, stages, and parse budget
/// across the paper's configurations, via the pipeline model.
pub fn ext_resources(_quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "ext_resources",
        "Switch resource usage (pipeline model)",
        &[
            "config",
            "pool_KB",
            "bookkeeping_KB",
            "sram_pct",
            "stages",
            "parse_B",
        ],
    );
    let model = PipelineModel::default();
    for (name, pool, k) in [
        ("10 Gbps (s=128, k=32)", 128usize, 32usize),
        ("100 Gbps (s=512, k=32)", 512, 32),
        ("64 workers (s=512, k=32)", 512, 32),
    ] {
        let n = if name.starts_with("64") { 64 } else { 8 };
        let proto = Protocol {
            n_workers: n,
            k,
            pool_size: pool,
            ..Protocol::default()
        };
        let r = model.validate(&proto).expect("paper configs must fit");
        result.row(vec![
            name.to_string(),
            format!("{:.0}", r.pool_bytes as f64 / 1024.0),
            format!("{:.0}", r.bookkeeping_bytes as f64 / 1024.0),
            format!("{:.2}%", r.sram_fraction * 100.0),
            r.stages_used.to_string(),
            r.parse_bytes.to_string(),
        ]);
    }
    // The MTU what-if is rejected by a real pipeline.
    let mtu = Protocol {
        k: MTU_K,
        ..Protocol::default()
    };
    let err = model
        .validate(&mtu)
        .expect_err("MTU must exceed the parse budget");
    result.note(format!(
        "MTU-sized vectors rejected as the paper expects: {err}"
    ));
    result.note("paper: s=128/512 occupy 32/128 KB — 'even at 100 Gbps the memory requirement is << 10% of switch resources'; worker count does not change usage");
    result
}

/// Convergence across every gradient-exchange path implemented:
/// exact float, scaled int32, f16-on-the-wire, and majority-vote
/// signSGD — all through the real protocol.
pub fn ext_compression(quick: bool) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "ext_compression",
        "Convergence by gradient-exchange scheme (real training, 4 workers)",
        &["scheme", "wire_bits_per_elem", "accuracy_pct", "diverged"],
    );
    let (tr, te) =
        gaussian_blobs(if quick { 400 } else { 1200 }, 8, 4, 4.0, 99).train_test_split(0.25);
    let base = TrainConfig {
        n_workers: 4,
        epochs: if quick { 4 } else { 12 },
        batch_per_worker: 16,
        lr: 0.1,
        seed: 5,
        agg: Aggregation::Exact,
        hidden: 0,
        byzantine: 0,
    };
    let schemes: Vec<(&str, u32, TrainConfig)> = vec![
        ("exact float (no network)", 32, base.clone()),
        (
            "int32 fixed-point (SwitchML)",
            32,
            TrainConfig {
                agg: Aggregation::Fixed32 { f: 1e6 },
                ..base.clone()
            },
        ),
        (
            "float16 wire (SwitchML)",
            16,
            TrainConfig {
                agg: Aggregation::Float16 { f: 100.0 },
                ..base.clone()
            },
        ),
        (
            "signSGD majority vote",
            1, // conceptually 1 bit/elem (carried as i32 here)
            TrainConfig {
                agg: Aggregation::SignSgd,
                lr: 0.02,
                ..base.clone()
            },
        ),
    ];
    for (name, bits, cfg) in schemes {
        let r = train(&tr, &te, &cfg);
        result.row(vec![
            name.to_string(),
            bits.to_string(),
            format!("{:.1}", r.final_accuracy * 100.0),
            if r.diverged { "yes" } else { "no" }.to_string(),
        ]);
    }
    result.note("expected shape: int32/f16 match exact accuracy (Appendix C's 'essentially lossless'); signSGD trades a little accuracy/speed for 1-bit traffic and Byzantine tolerance (§3.7's cited compression line of work)");
    result
}

/// §6 "Lack of congestion control": the system self-clocks to the
/// slowest worker. TAT vs one straggler's link speed.
pub fn ext_straggler(quick: bool) -> ExperimentResult {
    use switchml_baselines::switchml::{switch_node, SlotRouter, SwitchMLWorkerNode};
    use switchml_core::config::Protocol;
    use switchml_core::worker::stream::TensorStream;
    use switchml_core::worker::Worker;
    use switchml_netsim::prelude::*;

    let elems = if quick { 100_000 } else { 1_000_000 };
    let mut result = ExperimentResult::new(
        "ext_straggler",
        "Self-clocking to the slowest worker (8 workers, 10 Gbps, one straggler)",
        &["straggler_bw", "TAT_ms", "slowdown", "queue_drops"],
    );
    let proto = Protocol {
        n_workers: 8,
        pool_size: 128,
        rto_ns: 20_000_000, // generous: slow, not lossy
        scaling_factor: 1000.0,
        ..Protocol::default()
    };
    let mut base_tat = 0.0f64;
    for &bw in &[
        10_000_000_000u64,
        5_000_000_000,
        2_500_000_000,
        1_000_000_000,
    ] {
        let mut topo = Topology::new();
        let sw = topo.add_node();
        let ws: Vec<NodeId> = (0..8)
            .map(|i| {
                let w = topo.add_node();
                let spec = LinkSpec::clean(
                    if i == 3 { bw } else { 10_000_000_000 },
                    Nanos::from_micros(1),
                );
                topo.add_duplex_link(w, sw, spec);
                w
            })
            .collect();
        let mut sim = Simulator::new(topo, SimConfig::default());
        for (rank, &id) in ws.iter().enumerate() {
            let data = vec![rank as f32 + 1.0; elems];
            let stream =
                TensorStream::from_f32(vec![data], proto.mode, proto.scaling_factor, proto.k)
                    .expect("stream");
            let worker = Worker::new(rank as u16, &proto, stream).expect("worker");
            sim.bind(
                id,
                Box::new(SwitchMLWorkerNode::new(
                    worker,
                    SlotRouter::Single(sw),
                    Nanos(90),
                )),
            );
        }
        let switch = switch_node(&proto, ws.clone()).expect("switch");
        sim.bind(sw, Box::new(switch));
        let report = sim.run();
        assert!(report.finished, "straggler run must converge");
        let tat = report.last_completion().expect("completed").0 as f64;
        if bw == 10_000_000_000 {
            base_tat = tat;
        }
        result.row(vec![
            format!("{:.1}G", bw as f64 / 1e9),
            format!("{:.2}", tat / 1e6),
            format!("{:.2}x", tat / base_tat),
            report.counters.dropped_queue.to_string(),
        ]);
    }
    result.note("expected shape: TAT tracks the straggler's line rate ~proportionally (self-clocking), with zero capacity drops — the flow control §6 argues makes congestion control unnecessary at rack scale");
    result
}

/// §6 "Extrapolating performance": flat vs hierarchical TAT as worker
/// count grows — "tensor aggregation time does not depend on first
/// order on the number of workers n".
pub fn ext_multirack(quick: bool) -> ExperimentResult {
    let elems = if quick { 100_000 } else { 1_000_000 };
    let mut result = ExperimentResult::new(
        "ext_multirack",
        "Worker-count scaling: flat rack vs 2-level tree (10 Gbps)",
        &["workers", "flat_TAT_ms", "tree_TAT_ms", "tree_racks"],
    );
    for &(n, racks) in &[(8usize, 2usize), (16, 4), (32, 4), (64, 8)] {
        let flat = run_switchml(&SwitchMLScenario::new(n, elems)).expect("flat");
        assert!(flat.verified);
        let hs = HierScenario::new(racks, n / racks, elems);
        let tree = run_switchml_hierarchy(&hs).expect("tree");
        assert!(tree.verified);
        result.row(vec![
            n.to_string(),
            format!("{:.2}", flat.max_tat.0 as f64 / 1e6),
            format!("{:.2}", tree.max_tat.0 as f64 / 1e6),
            racks.to_string(),
        ]);
    }
    result.note("expected shape: TAT ~constant in n for both (the §6 extrapolation claim); the tree adds only one aggregation hop of latency while its uplinks carry d:1-reduced traffic");
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_self_clocks_proportionally() {
        let r = ext_straggler(true);
        // Row 1 = half-bandwidth straggler: slowdown ≈ 2×.
        let slow: f64 = r.rows[1][2].trim_end_matches('x').parse().unwrap();
        assert!((1.8..2.2).contains(&slow), "slowdown {slow}");
        // No capacity drops anywhere.
        assert!(r.rows.iter().all(|row| row[3] == "0"));
    }

    #[test]
    fn multirack_tat_constant_in_n() {
        let r = ext_multirack(true);
        let first: f64 = r.rows[0][1].parse().unwrap();
        let last: f64 = r.rows.last().unwrap()[1].parse().unwrap();
        assert!(
            (last / first) < 1.2,
            "TAT must be ~constant in n: {first} vs {last}"
        );
    }

    #[test]
    fn resources_match_paper() {
        let r = ext_resources(true);
        assert_eq!(r.rows[0][1], "32"); // 32 KB at s=128
        assert_eq!(r.rows[1][1], "128"); // 128 KB at s=512
                                         // Worker count row identical to the 8-worker s=512 row.
        assert_eq!(r.rows[1][1..], r.rows[2][1..]);
    }
}
