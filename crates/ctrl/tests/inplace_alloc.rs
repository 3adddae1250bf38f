//! Tenant workers aggregate in place: a controller-managed run hands
//! each worker's tensors to its stream at `Start`, writes every
//! aggregate over the elements it was quantized from and hands the same
//! allocations back, so it allocates no tensor-sized buffer — also when
//! a worker dies and the survivors re-stream through their undo chunks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use switchml_core::agg::allreduce;
use switchml_core::config::Protocol;
use switchml_ctrl::runner::{run_controlled, CtrlRunConfig, CtrlRunReport};
use switchml_transport::channel::channel_fabric;

/// Allocations this large are tensor-sized here (each worker's tensor
/// is exactly this size); the per-run buffers (frames, bitmaps, chunk
/// lists, engine state) are far smaller.
const BIG: usize = 1 << 20;

/// Big allocations made while `COUNTING` is set, by any thread: the
/// run's switch lives on a thread it spawns. The tests of this binary
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

fn proto(n: usize) -> Protocol {
    Protocol {
        n_workers: n,
        k: 8,
        pool_size: 16,
        rto_ns: 2_000_000,
        scaling_factor: 1e9, // the controller clamps it
        ..Protocol::default()
    }
}

/// One 1 MiB tensor per worker.
fn updates(n: usize) -> Vec<Vec<Vec<f32>>> {
    let elems = BIG / std::mem::size_of::<f32>();
    (0..n)
        .map(|w| {
            vec![(0..elems)
                .map(|i| (w + 1) as f32 * 0.5 + (i % 7) as f32 * 0.25)
                .collect()]
        })
        .collect()
}

/// Run `n` workers of 1 MiB each over channels under `cfg` and assert
/// that the run made no tensor-sized allocation and handed every
/// finished worker's result back in its input allocation. Returns the
/// report and the inputs, copied before the run.
fn run_in_place(n: usize, cfg: &CtrlRunConfig) -> (CtrlRunReport, Vec<Vec<Vec<f32>>>) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let updates = updates(n);
    let inputs = updates.clone();
    let ptrs: Vec<*const f32> = updates.iter().map(|w| w[0].as_ptr()).collect();
    let ports = channel_fabric(n + 2);

    BIG_ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let report = run_controlled(ports, updates, &proto(n), cfg);
    COUNTING.store(false, Ordering::Relaxed);

    let report = report.unwrap();
    assert_eq!(
        BIG_ALLOCS.load(Ordering::Relaxed),
        0,
        "tensor-sized allocations; events: {:?}",
        report.events
    );
    for (w, result) in report.results.iter().enumerate() {
        if let Some(result) = result {
            assert_eq!(result[0].as_ptr(), ptrs[w], "worker {w}'s result moved");
        }
    }
    (report, inputs)
}

#[test]
fn controlled_run_allocates_no_tensor_sized_buffer() {
    let (report, inputs) = run_in_place(2, &CtrlRunConfig::default());
    let reference = Protocol {
        scaling_factor: report.final_f,
        ..proto(2)
    };
    let reference = allreduce(&inputs, &reference).unwrap();
    for (w, result) in report.results.iter().enumerate() {
        assert_eq!(result.as_ref(), Some(&reference), "worker {w}");
    }
}

/// A worker dies mid-run: the survivors shrink into a new epoch and
/// re-stream the chunks outside the frontier from their undo chunks,
/// still without a tensor-sized allocation, and agree bit for bit.
#[test]
fn controlled_run_with_a_kill_allocates_no_tensor_sized_buffer() {
    let n = 3;
    let cfg = CtrlRunConfig {
        kill: Some((1, Duration::from_millis(8))),
        heartbeat: Duration::from_millis(2),
        failure_timeout: Duration::from_millis(10),
        ..CtrlRunConfig::default()
    };
    let (report, _) = run_in_place(n, &cfg);
    assert_eq!(report.final_n, n - 1, "events: {:?}", report.events);
    assert!(report.final_epoch >= 1);
    assert!(report.results[1].is_none());
    let a = report.results[0].as_ref().unwrap();
    let b = report.results[2].as_ref().unwrap();
    assert_eq!(a, b, "survivors must agree exactly");
}
