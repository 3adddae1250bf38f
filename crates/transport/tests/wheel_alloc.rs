//! A warmed timer wheel sweeps without touching the heap: every engine
//! and leaf lane sweeps its wheel once per step, so a sweep that fires
//! must not allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use switchml_transport::TimerWheel;

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

#[test]
fn a_warmed_wheel_sweeps_without_allocating() {
    const TIMERS: usize = 8;
    const TICK: u64 = 100;
    const SWEEPS: u64 = 10_000;
    let mut wheel = TimerWheel::new(TIMERS, TICK, 256);
    for id in 0..TIMERS {
        wheel.schedule(id, (id as u64 + 1) * TICK);
    }
    let mut fired = Vec::with_capacity(TIMERS);
    let mut now = 0;
    // One tick per sweep, each timer re-armed `TIMERS` ticks out: every
    // sweep fires exactly one timer.
    let mut sweep = |wheel: &mut TimerWheel| {
        now += TICK;
        fired.clear();
        let n = wheel.advance(now, |id| fired.push(id));
        for &id in &fired {
            wheel.schedule(id, now + TIMERS as u64 * TICK);
        }
        n
    };
    // Warm up: a full revolution gives every bucket its capacity.
    for _ in 0..1_000 {
        sweep(&mut wheel);
    }
    let before = ALLOCS.with(Cell::get);
    let mut total = 0;
    for _ in 0..SWEEPS {
        total += sweep(&mut wheel);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(total, SWEEPS as usize, "every sweep fires one timer");
    assert_eq!(allocs, 0, "{allocs} allocations over {SWEEPS} sweeps");
}
