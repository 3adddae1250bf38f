//! A warmed slot engine's timer fires without touching the heap: every
//! engine lane (`EngineCtx::on_timer`) and every leaf lane
//! (`Leaf::on_timer`) collects its retransmissions with
//! `SlotEngine::expired_into` into a buffer it keeps, so a sweep that
//! fires must not allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use switchml_core::worker::engine::{EngineConfig, SlotEngine};

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

const SLOTS: usize = 8;
const RTO: u64 = 100;
const SWEEPS: u64 = 10_000;

/// An engine with every slot in flight: under the fixed RTO each sweep
/// one RTO later expires all of them again.
fn engine() -> SlotEngine {
    let mut engine = SlotEngine::new(EngineConfig {
        wid: 0,
        k: 32,
        slot_base: 0,
        n_slots: SLOTS,
        chunk_base: 0,
        n_chunks: 1 << 20,
        rto: Some(RTO),
        rto_policy: Default::default(),
    })
    .unwrap();
    assert_eq!(engine.start(0).len(), SLOTS);
    engine
}

/// Allocations made by `sweeps` firing sweeps of `sweep`, each of which
/// must resend every slot.
fn count(mut sweep: impl FnMut(u64) -> usize, sweeps: u64) -> u64 {
    // Warm up: the first sweeps size whatever the caller keeps.
    for t in 1..=10 {
        assert_eq!(sweep(t * RTO), SLOTS);
    }
    let before = ALLOCS.with(Cell::get);
    for t in 11..11 + sweeps {
        assert_eq!(sweep(t * RTO), SLOTS, "every sweep fires every slot");
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_warmed_engine_fires_its_timer_without_allocating() {
    let (mut e, mut sends) = (engine(), Vec::new());
    let allocs = count(
        |now| {
            sends.clear();
            e.expired_into(now, |_| true, &mut sends);
            sends.len()
        },
        SWEEPS,
    );
    assert_eq!(allocs, 0, "{allocs} allocations over {SWEEPS} sweeps");
    assert_eq!(e.stats().retx, (SWEEPS + 10) * SLOTS as u64);

    // The returning form the lanes used to call allocates on every
    // firing sweep: the counter sees what this test guards against.
    let mut e = engine();
    let allocs = count(|now| e.expired(now).len(), SWEEPS);
    assert!(
        allocs >= SWEEPS,
        "{allocs} allocations over {SWEEPS} sweeps"
    );
}
