//! Switch dataplane throughput: packets per second through Algorithm 1
//! and Algorithm 3 state machines (the software analog of the paper's
//! line-rate requirement).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use switchml_core::bitmap::WorkerBitmap;
use switchml_core::config::Protocol;
use switchml_core::packet::{encode_update_into, PacketView, PoolVersion};
use switchml_core::switch::basic::BasicSwitch;
use switchml_core::switch::reliable::ReliableSwitch;

fn proto(n: usize) -> Protocol {
    Protocol {
        n_workers: n,
        k: 32,
        pool_size: 128,
        ..Protocol::default()
    }
}

/// Worker `w`'s update for slot 0 in phase `phase` (k = 32).
fn frame(w: u16, phase: u64) -> Vec<u8> {
    let ver = PoolVersion::from_bit(phase % 2 == 1);
    let mut out = Vec::new();
    encode_update_into(w, ver, 0, phase * 32, 0, false, &[1i32; 32], &mut out);
    out
}

/// One full aggregation round: n updates into one slot → multicast,
/// through the switch's wire ingress (parse, `on_view`).
fn bench_switches(c: &mut Criterion) {
    let n = 8;
    let mut group = c.benchmark_group("switch");
    group.throughput(Throughput::Elements(n as u64)); // packets per round
    let mut out = Vec::new();

    let mut basic = BasicSwitch::new(&proto(n)).unwrap();
    let round: Vec<Vec<u8>> = (0..n as u16).map(|w| frame(w, 0)).collect();
    group.bench_function("basic_round_n8_k32", |b| {
        b.iter(|| {
            for f in &round {
                let v = PacketView::parse(black_box(f)).unwrap();
                black_box(basic.on_view(&v, &mut out).unwrap());
            }
        })
    });

    // Two phases, alternating pool versions: the steady state of one
    // slot under Algorithm 3.
    let mut reliable = ReliableSwitch::new(&proto(n)).unwrap();
    let phases: Vec<Vec<Vec<u8>>> = (0..2)
        .map(|phase| (0..n as u16).map(|w| frame(w, phase)).collect())
        .collect();
    let mut phase = 0;
    group.bench_function("reliable_round_n8_k32", |b| {
        b.iter(|| {
            for f in &phases[phase % 2] {
                let v = PacketView::parse(black_box(f)).unwrap();
                black_box(reliable.on_view(&v, &mut out).unwrap());
            }
            phase += 1;
        })
    });
    group.finish();
}

fn bench_bitmap(c: &mut Criterion) {
    let mut bm = WorkerBitmap::empty();
    c.bench_function("bitmap_set_clear_count", |b| {
        b.iter(|| {
            for w in 0..64 {
                bm.set(black_box(w));
            }
            let n = bm.count();
            bm.reset();
            black_box(n)
        })
    });
}

criterion_group!(benches, bench_switches, bench_bitmap);
criterion_main!(benches);
