//! Hot-path microbenchmarks for the numeric machinery (§3.7, Fig. 8):
//! scaling + type conversion must be negligible next to wire time.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use switchml_core::checksum::crc32;
use switchml_core::packet::{Packet, Payload, PoolVersion};
use switchml_core::quant::f16::{f16_slice_to_f32, f32_slice_to_f16};
use switchml_core::quant::{dequantize, quantize, saturating_add_into};

fn bench_quantize(c: &mut Criterion) {
    let src: Vec<f32> = (0..1_000_000).map(|i| (i as f32).sin() * 20.0).collect();
    let mut dst = Vec::with_capacity(src.len());
    let mut group = c.benchmark_group("quantize");
    group.throughput(Throughput::Elements(src.len() as u64));
    group.bench_function("f32_to_i32_1M", |b| {
        b.iter(|| quantize(black_box(&src), 1e6, &mut dst))
    });
    let q: Vec<i32> = src.iter().map(|&x| (x * 1e6) as i32).collect();
    let mut back = Vec::with_capacity(q.len());
    group.bench_function("i32_to_f32_1M", |b| {
        b.iter(|| dequantize(black_box(&q), 1e6, &mut back))
    });
    group.finish();
}

fn bench_f16(c: &mut Criterion) {
    let src: Vec<f32> = (0..1_000_000).map(|i| (i as f32).cos() * 100.0).collect();
    let mut h = Vec::with_capacity(src.len());
    let mut group = c.benchmark_group("f16");
    group.throughput(Throughput::Elements(src.len() as u64));
    group.bench_function("f32_to_f16_1M", |b| {
        b.iter(|| f32_slice_to_f16(black_box(&src), &mut h))
    });
    f32_slice_to_f16(&src, &mut h);
    let mut back = Vec::with_capacity(h.len());
    group.bench_function("f16_to_f32_1M", |b| {
        b.iter(|| f16_slice_to_f32(black_box(&h), &mut back))
    });
    group.finish();
}

fn bench_aggregation_op(c: &mut Criterion) {
    let mut acc = vec![1i32; 1_000_000];
    let v = vec![2i32; 1_000_000];
    let mut group = c.benchmark_group("aggregate");
    group.throughput(Throughput::Elements(1_000_000));
    group.bench_function("saturating_add_1M", |b| {
        b.iter(|| saturating_add_into(black_box(&mut acc), black_box(&v)))
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let pkt = Packet {
        kind: switchml_core::packet::PacketKind::Update,
        wid: 3,
        ver: PoolVersion::V1,
        idx: 17,
        off: 4096,
        job: 0,
        epoch: 0,
        retransmission: false,
        payload: Payload::I32((0..32).collect()),
    };
    let bytes = pkt.encode();
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_k32", |b| b.iter(|| black_box(&pkt).encode()));
    group.bench_function("decode_k32", |b| {
        b.iter(|| Packet::decode(black_box(&bytes)).unwrap())
    });
    let frame: Vec<u8> = (0..180).map(|i| i as u8).collect();
    group.bench_function("crc32_180B", |b| b.iter(|| crc32(black_box(&frame))));
    let mtu_frame: Vec<u8> = (0..1052).map(|i| i as u8).collect();
    group.bench_function("crc32_1052B", |b| b.iter(|| crc32(black_box(&mtu_frame))));
    group.finish();
}

criterion_group!(
    benches,
    bench_quantize,
    bench_f16,
    bench_aggregation_op,
    bench_codec
);
criterion_main!(benches);
