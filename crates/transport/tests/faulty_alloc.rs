//! A lossy `FaultyPort` keeps bursts bursts by borrowing: the runs of
//! survivors between two drops go to the inner port as slices of the
//! caller's batch, so injected loss costs no allocation per packet.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use switchml_transport::faulty::{FaultyConfig, FaultyPort};
use switchml_transport::{Port, TxBatch};

thread_local! {
    /// Heap allocations made by the current thread (tests run on
    /// parallel threads, so a process-wide count would be polluted).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counter is a
// destructor-free thread-local, touched with `try_with` so a thread
// that is tearing down still allocates normally.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// An endpoint that counts the frames reaching it and keeps none.
struct Sink {
    frames: Arc<AtomicU64>,
}

impl Port for Sink {
    fn n_endpoints(&self) -> usize {
        2
    }
    fn index(&self) -> usize {
        0
    }
    fn send(&mut self, _to: usize, _data: &[u8]) {
        self.frames.fetch_add(1, Ordering::Relaxed);
    }
    fn recv_timeout(&mut self, _timeout: Duration) -> Option<(usize, Vec<u8>)> {
        None
    }
}

#[test]
fn lossy_send_batch_allocates_nothing_per_packet() {
    const BURST: u64 = 32;
    const ROUNDS: u64 = 200;
    let frames = Arc::new(AtomicU64::new(0));
    let sink = Sink {
        frames: Arc::clone(&frames),
    };
    let mut port = FaultyPort::new(sink, FaultyConfig::loss_only(0.2), 7, Default::default());
    let mut batch = TxBatch::new(64);
    let mut burst = |port: &mut FaultyPort<Sink>| {
        for i in 0..BURST {
            batch.push(1).extend_from_slice(&[i as u8; 48]);
        }
        batch.flush(port);
    };
    burst(&mut port); // the batch's frames are allocated once, here
    let before = ALLOCS.with(Cell::get);
    for _ in 0..ROUNDS {
        burst(&mut port);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    let dropped = port.stats().injected_send_drops;
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations over {} packets",
        BURST * ROUNDS
    );
    assert!(dropped > 0, "no drops: nothing exercised");
    assert_eq!(
        frames.load(Ordering::Relaxed) + dropped,
        BURST * (ROUNDS + 1)
    );
}
