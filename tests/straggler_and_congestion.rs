//! Self-clocking under stragglers and congestion (§6 "Lack of
//! congestion control").
//!
//! The paper argues the pool-based flow control needs no separate
//! congestion control: "the system would self-clock to the rate of the
//! slowest worker". These tests build asymmetric topologies in netsim
//! and check exactly that.

use switchml::baselines::switchml::{SlotRouter, SwitchMLSwitchNode, SwitchMLWorkerNode};
use switchml::core::config::Protocol;
use switchml::core::switch::reliable::ReliableSwitch;
use switchml::core::worker::stream::TensorStream;
use switchml::core::worker::Worker;
use switchml::netsim::prelude::*;

fn build_and_run(n: usize, elems: usize, slow_worker: Option<(usize, u64)>) -> SimReport {
    let proto = Protocol {
        n_workers: n,
        k: 32,
        pool_size: 64,
        rto_ns: 10_000_000, // generous: stragglers are slow, not lossy
        scaling_factor: 1000.0,
        ..Protocol::default()
    };
    let fast = LinkSpec::clean(10_000_000_000, Nanos::from_micros(1));
    let mut topo = Topology::new();
    let sw = topo.add_node();
    let ws: Vec<NodeId> = (0..n)
        .map(|i| {
            let w = topo.add_node();
            let spec = match slow_worker {
                Some((idx, bw)) if idx == i => LinkSpec::clean(bw, Nanos::from_micros(1)),
                _ => fast,
            };
            topo.add_duplex_link(w, sw, spec);
            w
        })
        .collect();
    let mut sim = Simulator::new(topo, SimConfig::default());
    for (rank, &id) in ws.iter().enumerate() {
        let data = vec![rank as f32 + 1.0; elems];
        let stream =
            TensorStream::from_f32(vec![data], proto.mode, proto.scaling_factor, proto.k).unwrap();
        let worker = Worker::new(rank as u16, &proto, stream).unwrap();
        sim.bind(
            id,
            Box::new(SwitchMLWorkerNode::new(
                worker,
                SlotRouter::Single(sw),
                Nanos(90),
            )),
        );
    }
    sim.bind(
        sw,
        Box::new(SwitchMLSwitchNode::new(
            ReliableSwitch::new(&proto).unwrap(),
            ws.clone(),
            1,
            Nanos::ZERO,
        )),
    );
    let report = sim.run();
    assert!(report.finished, "run must converge");
    // Verify the sum on worker 0.
    let node = sim
        .node(ws[0])
        .as_any()
        .downcast_ref::<SwitchMLWorkerNode>()
        .unwrap();
    let got = node.worker().stream().result_tensors_f32(1).unwrap();
    let expect: f32 = (1..=n).map(|x| x as f32).sum();
    for &x in &got[0] {
        assert!((x - expect).abs() < 0.05, "{x} vs {expect}");
    }
    report
}

#[test]
fn system_clocks_to_slowest_worker() {
    let elems = 64_000;
    let all_fast = build_and_run(4, elems, None);
    // One worker on a 1 Gbps link: ~10× slower than the rest.
    let one_slow = build_and_run(4, elems, Some((2, 1_000_000_000)));

    let fast_tat = all_fast.last_completion().unwrap();
    let slow_tat = one_slow.last_completion().unwrap();
    // The whole job slows to ≈ the straggler's line rate…
    assert!(
        slow_tat.0 > 7 * fast_tat.0,
        "job did not self-clock to the straggler: {fast_tat} vs {slow_tat}"
    );
    // …but stays loss-free: self-clocking, not timeouts, paces it.
    assert_eq!(one_slow.counters.dropped_queue, 0);
    assert_eq!(one_slow.counters.dropped_loss, 0);
}

#[test]
fn congested_downlink_throttles_senders_without_collapse() {
    // A 2.5× slower downlink to one worker congests the result stream;
    // the self-clocked senders adapt; nothing is dropped for capacity.
    let elems = 32_000;
    let report = build_and_run(3, elems, Some((0, 4_000_000_000)));
    assert_eq!(report.counters.dropped_queue, 0);
}

#[test]
fn straggler_does_not_change_results() {
    // Covered in build_and_run's verification; this case pins a more
    // extreme asymmetry (100 Mbps straggler).
    build_and_run(2, 4_000, Some((1, 100_000_000)));
}
