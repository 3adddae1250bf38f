//! A warmed tenant worker's retransmission sweep touches no heap: the
//! driver fires every tenant worker's timer on its lane, so a sweep
//! that resends must collect its sends into a buffer the worker keeps
//! and encode them into the lane's reused frames.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use switchml_core::config::Protocol;
use switchml_ctrl::msg::CtrlMsg;
use switchml_ctrl::tenant::TenantWorker;
use switchml_transport::TxBatch;

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

const CTRL: usize = 2;
const SLOTS: usize = 8;
const RTO: u64 = 1_000;
const SWEEPS: u64 = 10_000;

#[test]
fn a_warmed_tenant_worker_sweeps_without_allocating() {
    let proto = Protocol {
        n_workers: 2,
        k: 32,
        pool_size: SLOTS,
        rto_ns: RTO,
        ..Protocol::default()
    };
    let tensors = vec![vec![0.5; 32 * SLOTS * 4]];
    let mut worker = TenantWorker::new(0, CTRL, tensors, proto, 1);
    let mut txb = TxBatch::new(worker.frame_capacity());
    let welcome = CtrlMsg::Welcome {
        job: 0,
        wid: 0,
        epoch: 0,
        n: 2,
        f: 100.0,
        wire_job: 0,
        switch: 0,
    };
    let start = CtrlMsg::Start { job: 0, epoch: 0 };
    for msg in [welcome, start] {
        worker.on_frame(CTRL, &msg.encode(), 0, &mut txb).unwrap();
    }
    assert_eq!(txb.len(), SLOTS, "the initial window");

    // No result ever comes back: under the fixed RTO every sweep one
    // RTO later resends the whole window.
    let mut now = 0;
    let mut sweep = |worker: &mut TenantWorker| {
        now += RTO;
        txb.clear();
        assert_eq!(worker.next_deadline(), Some(now));
        worker.on_timer(now, &mut txb).unwrap();
        txb.len()
    };
    for _ in 0..10 {
        assert_eq!(sweep(&mut worker), SLOTS);
    }
    let before = ALLOCS.with(Cell::get);
    let mut resent = 0;
    for _ in 0..SWEEPS {
        resent += sweep(&mut worker);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(resent, SWEEPS as usize * SLOTS, "every sweep fires");
    assert_eq!(allocs, 0, "{allocs} allocations over {SWEEPS} sweeps");
}
