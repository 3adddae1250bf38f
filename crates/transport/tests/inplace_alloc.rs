//! The engine path aggregates in place: a run over single-tensor workers
//! — the reactor's, and the plain layout's one thread per engine —
//! quantizes from the caller's tensors, dequantizes the aggregate back
//! into them and hands the same allocations back, so it allocates no
//! tensor-sized buffer at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use switchml_core::agg::allreduce;
use switchml_core::config::Protocol;
use switchml_core::error::Result;
use switchml_transport::channel::{channel_fabric, ChannelPort};
use switchml_transport::{
    run_allreduce, run_allreduce_reactor, sharded_channel_fabric, RunConfig, RunReport,
};

/// Allocations this large are tensor-sized here; the per-run buffers
/// (frames, scratch, engine state) are far smaller.
const BIG: usize = 1 << 20;

/// Big allocations made while `COUNTING` is set, by any thread: the
/// runner's work happens on threads it spawns. The tests of this binary
/// take turns ([`ONE_AT_A_TIME`]), so nothing else allocates meanwhile.
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        if size >= BIG && COUNTING.load(Ordering::Relaxed) {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: defers every operation to `System`; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

type Runner = fn(Vec<ChannelPort>, Vec<Vec<Vec<f32>>>, &Protocol) -> Result<RunReport>;

/// Run two workers of 4 MiB each over `ports` and assert that the run
/// made no tensor-sized allocation and handed every worker's result
/// back, bit-identical to the reference, in its input allocation.
fn assert_in_place(ports: Vec<ChannelPort>, run: Runner) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let n = 2;
    let elems = (4 << 20) / std::mem::size_of::<f32>(); // 4 MiB per worker
    let proto = Protocol {
        n_workers: n,
        k: 256,
        pool_size: 64,
        rto_ns: 20_000_000,
        scaling_factor: 10_000.0,
        ..Protocol::default()
    };
    let updates: Vec<Vec<Vec<f32>>> = (0..n)
        .map(|w| {
            vec![(0..elems)
                .map(|i| (w + 1) as f32 + (i % 7) as f32 * 0.1)
                .collect()]
        })
        .collect();
    let reference = allreduce(&updates, &proto).unwrap();
    let inputs: Vec<*const f32> = updates.iter().map(|w| w[0].as_ptr()).collect();

    BIG_ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let report = run(ports, updates, &proto);
    COUNTING.store(false, Ordering::Relaxed);

    let report = report.unwrap();
    assert_eq!(
        BIG_ALLOCS.load(Ordering::Relaxed),
        0,
        "tensor-sized allocations"
    );
    for (w, result) in report.results.iter().enumerate() {
        assert_eq!(result[0].as_ptr(), inputs[w], "worker {w}'s result moved");
        assert_eq!(result, &reference, "worker {w}");
    }
}

#[test]
fn reactor_run_allocates_no_tensor_sized_buffer() {
    assert_in_place(sharded_channel_fabric(2, 1), |ports, updates, proto| {
        run_allreduce_reactor(ports, updates, proto, &RunConfig::default(), 1)
    });
}

#[test]
fn plain_run_allocates_no_tensor_sized_buffer() {
    assert_in_place(channel_fabric(2 + 1), |ports, updates, proto| {
        run_allreduce(ports, updates, proto, &RunConfig::default())
    });
}
