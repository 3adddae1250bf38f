//! Differential testing: three independent executions of the same
//! all-reduce — the multi-core threaded sharded runner, the
//! discrete-event netsim run, and a sequential quantize → saturating
//! sum → dequantize reference built straight from `switchml-core` —
//! must agree **bit-for-bit** on the Fixed32 aggregated tensor.
//!
//! Fixed32 makes this a hard equality: integer addition is associative
//! and saturating, so packet order, core count, and transport must not
//! be able to change a single bit of the result. Any divergence means
//! an aggregation path double-added, dropped, or reordered a
//! contribution into a different arithmetic outcome.

use switchml_baselines::run::{run_switchml, synthetic_gradient, SwitchMLScenario};
use switchml_core::config::NumericMode;
use switchml_core::packet::Payload;
use switchml_core::worker::stream::TensorStream;
use switchml_transport::runner::{run_allreduce, RunConfig};
use switchml_transport::shard::{sharded_channel_fabric, sharded_fabric_size};
use switchml_transport::udp::udp_fabric;

const SCALING: f64 = 10_000.0;

/// The ground truth: per-worker quantization through the exact
/// [`TensorStream`] wire path, element-wise saturating i32 sums, one
/// dequantization — no switch, no scheduler, no network.
fn sequential_reference(n: usize, elems: usize, k: usize) -> Vec<f32> {
    let mut int_sum = vec![0i32; elems.div_ceil(k) * k];
    for rank in 0..n {
        let mut stream = TensorStream::from_f32(
            vec![synthetic_gradient(rank, elems)],
            NumericMode::Fixed32,
            SCALING,
            k,
        )
        .unwrap();
        for chunk in 0..stream.total_chunks() {
            let off = chunk as usize * k;
            match stream.wire_chunk(off as u64).unwrap().to_payload() {
                Payload::I32(v) => {
                    for (acc, x) in int_sum[off..].iter_mut().zip(&v) {
                        *acc = acc.saturating_add(*x);
                    }
                }
                other => panic!("Fixed32 stream produced {other:?}"),
            }
        }
    }
    let mut result =
        TensorStream::from_f32(vec![vec![0.0; elems]], NumericMode::Fixed32, SCALING, k).unwrap();
    result.reset_undo(1);
    for chunk in 0..result.total_chunks() {
        let off = chunk as usize * k;
        result
            .write_result(0, off as u64, &Payload::I32(int_sum[off..off + k].to_vec()))
            .unwrap();
    }
    result.into_tensors_f32(1).unwrap().remove(0)
}

fn assert_bit_identical(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: elem {i} differs ({a} vs {b})"
        );
    }
}

/// One (n, k, pool_size, elems, cores) configuration through all three
/// paths.
fn differential(n: usize, k: usize, pool_size: usize, elems: usize, cores: usize) {
    let label = format!("n={n} k={k} s={pool_size} elems={elems} cores={cores}");
    let reference = sequential_reference(n, elems, k);

    // Path 1: multi-core sharded threaded runner.
    let mut sc = SwitchMLScenario::new(n, elems);
    sc.proto.k = k;
    sc.proto.pool_size = pool_size;
    sc.proto.scaling_factor = SCALING;
    let updates: Vec<Vec<Vec<f32>>> = (0..n)
        .map(|rank| vec![synthetic_gradient(rank, elems)])
        .collect();
    let cfg = RunConfig {
        n_cores: cores,
        ..RunConfig::default()
    };
    let report = run_allreduce(sharded_channel_fabric(n, cores), updates, &sc.proto, &cfg).unwrap();
    for (w, tensors) in report.results.iter().enumerate() {
        assert_bit_identical(
            &format!("{label}: sharded worker {w}"),
            &tensors[0],
            &reference,
        );
    }

    // Path 2: discrete-event simulation.
    let outcome = run_switchml(&sc).unwrap();
    assert!(outcome.verified, "{label}: netsim run failed verification");
    assert!(
        !outcome.worker0_results.is_empty(),
        "{label}: netsim run captured no results"
    );
    assert_bit_identical(
        &format!("{label}: netsim worker 0"),
        &outcome.worker0_results[0],
        &reference,
    );
}

/// One (n, k, pool_size, elems, cores, burst) configuration run over
/// real UDP sockets *and* the in-memory channel fabric: both sharded
/// runs and the sequential reference must agree bit-for-bit. This
/// pins down the whole batched UDP data plane — GSO train grouping,
/// GRO segmentation, burst receive, and sender resolution — as unable
/// to change a single bit of Fixed32 arithmetic.
fn udp_differential(
    n: usize,
    k: usize,
    pool_size: usize,
    elems: usize,
    cores: usize,
    burst: usize,
) {
    let label = format!("n={n} k={k} s={pool_size} elems={elems} cores={cores} burst={burst}");
    let reference = sequential_reference(n, elems, k);
    let mut sc = SwitchMLScenario::new(n, elems);
    sc.proto.k = k;
    sc.proto.pool_size = pool_size;
    sc.proto.scaling_factor = SCALING;
    let updates: Vec<Vec<Vec<f32>>> = (0..n)
        .map(|rank| vec![synthetic_gradient(rank, elems)])
        .collect();
    let cfg = RunConfig {
        n_cores: cores,
        burst,
        ..RunConfig::default()
    };
    let udp = run_allreduce(
        udp_fabric(sharded_fabric_size(n, cores)).unwrap(),
        updates.clone(),
        &sc.proto,
        &cfg,
    )
    .unwrap();
    let chan = run_allreduce(sharded_channel_fabric(n, cores), updates, &sc.proto, &cfg).unwrap();
    for w in 0..n {
        assert_bit_identical(
            &format!("{label}: udp worker {w} vs reference"),
            &udp.results[w][0],
            &reference,
        );
        assert_bit_identical(
            &format!("{label}: udp worker {w} vs channel"),
            &udp.results[w][0],
            &chan.results[w][0],
        );
    }
}

#[test]
fn udp_sharded_two_workers_two_cores_burst8() {
    udp_differential(2, 8, 4, 96, 2, 8);
}

#[test]
fn udp_sharded_three_workers_two_cores_burst32_ragged_tail() {
    // 333 elements over k = 16 leaves a 13-element final chunk; the
    // zero-padded tail must survive the GSO/GRO path bit-for-bit too.
    udp_differential(3, 16, 8, 333, 2, 32);
}

#[test]
fn udp_single_core_burst1_matches_reference() {
    // burst = 1 keeps the scalar send/receive path honest.
    udp_differential(2, 8, 4, 64, 1, 1);
}

#[test]
fn two_workers_two_cores() {
    differential(2, 8, 4, 64, 2);
}

#[test]
fn three_workers_three_cores_ragged_tail() {
    // 333 elements over k = 16 leaves a 13-element final chunk: the
    // zero-padded tail must also agree bit-for-bit.
    differential(3, 16, 8, 333, 3);
}

#[test]
fn four_workers_deep_pool() {
    differential(4, 32, 16, 256, 2);
}

#[test]
fn single_core_matches_multi_core() {
    // Same configuration, different core counts: core sharding is a
    // pure partition of the slot space and must not change arithmetic.
    let n = 3;
    let elems = 128;
    let k = 8;
    let mut sc = SwitchMLScenario::new(n, elems);
    sc.proto.k = k;
    sc.proto.pool_size = 8;
    sc.proto.scaling_factor = SCALING;
    let updates: Vec<Vec<Vec<f32>>> = (0..n)
        .map(|rank| vec![synthetic_gradient(rank, elems)])
        .collect();
    let mut runs = Vec::new();
    for cores in [1, 2, 4] {
        let cfg = RunConfig {
            n_cores: cores,
            ..RunConfig::default()
        };
        let report = run_allreduce(
            sharded_channel_fabric(n, cores),
            updates.clone(),
            &sc.proto,
            &cfg,
        )
        .unwrap();
        runs.push(report.results[0][0].clone());
    }
    assert_bit_identical("1 vs 2 cores", &runs[1], &runs[0]);
    assert_bit_identical("1 vs 4 cores", &runs[2], &runs[0]);
}
