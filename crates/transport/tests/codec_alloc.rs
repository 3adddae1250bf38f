//! The worker's one-pass codec touches no heap per packet: an update is
//! quantized straight into a reused frame, and a result dequantized
//! straight out of the received bytes into the tensor — on the bare
//! engines' path (`EngineCtx`: `encode_update_frame` with a
//! `WireChunk::Fixed32`, `WireElems::dequantize_into`) and on the tensor
//! stream's (`TensorStream::wire_chunk`, `TensorStream::write_result`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use switchml_core::config::NumericMode;
use switchml_core::packet::{
    encode_result_into, encode_update_frame, PacketView, PoolVersion, ResultMeta, UpdateMeta,
    WireChunk, WireElems, HEADER_LEN,
};
use switchml_core::worker::stream::TensorStream;

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

const PACKETS: usize = 10_000;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn meta(off: u64) -> UpdateMeta {
    UpdateMeta {
        wid: 1,
        ver: PoolVersion::V1,
        idx: 3,
        off,
        job: 0,
        epoch: 0,
        retransmission: false,
    }
}

/// The result frame the switch would return for `values` at `off`.
fn result_frame(values: &[i32], off: u64) -> Vec<u8> {
    let meta = ResultMeta {
        wid: 1,
        ver: PoolVersion::V1,
        idx: 3,
        off,
        job: 0,
        epoch: 0,
        retransmission: false,
        f16: false,
    };
    let mut out = Vec::new();
    encode_result_into(meta, values, &mut out);
    out
}

/// Fused encode and decode over a tensor, chunk by chunk, at k = 32,
/// the MTU-sized 256 and a k that is not a multiple of 8, ragged final
/// chunk included.
#[test]
fn fused_encode_and_decode_allocate_nothing_per_packet() {
    let f = 10_000.0;
    for k in [32usize, 256, 366] {
        let mut tensor: Vec<f32> = (0..k * 40 - 5).map(|i| (i % 97) as f32 * 0.01).collect();
        let results: Vec<Vec<u8>> = (0..tensor.len().div_ceil(k))
            .map(|c| result_frame(&vec![c as i32 - 7; k], (c * k) as u64))
            .collect();
        let mut frame = Vec::with_capacity(HEADER_LEN + 4 * k);
        let allocs = allocs_during(|| {
            for p in 0..PACKETS {
                let c = p % results.len();
                let src = &tensor[c * k..tensor.len().min(c * k + k)];
                let elems = WireChunk::Fixed32 { src, f, k };
                encode_update_frame(meta((c * k) as u64), elems, &mut frame);
                assert_eq!(frame.len(), HEADER_LEN + 4 * k);
                let view = PacketView::parse(&results[c]).unwrap();
                let n = src.len();
                view.dequantize_into(f, &mut tensor[c * k..c * k + n]);
            }
        });
        assert_eq!(allocs, 0, "k = {k}: {allocs} allocations");
    }
}

/// The tensor stream's wire path — the tenant workers', netsim's and
/// the in-process runs' — is as allocation-free once built.
#[test]
fn tensor_stream_wire_path_allocates_nothing_per_packet() {
    let (k, f) = (32, 10_000.0);
    let tensors = vec![vec![0.25f32; 40 * k - 3], vec![-1.5; 17]];
    let mut stream = TensorStream::from_f32(tensors, NumericMode::Fixed32, f, k).unwrap();
    stream.reset_undo(4);
    let chunks = stream.total_chunks() as usize;
    let results: Vec<Vec<u8>> = (0..chunks)
        .map(|c| result_frame(&vec![2_500; k], (c * k) as u64))
        .collect();
    let mut frame = Vec::with_capacity(HEADER_LEN + 4 * k);
    let allocs = allocs_during(|| {
        for p in 0..PACKETS {
            let (c, off) = (p % chunks, (p % chunks * k) as u64);
            encode_update_frame(meta(off), stream.wire_chunk(off).unwrap(), &mut frame);
            let view = PacketView::parse(&results[c]).unwrap();
            stream.write_result((c % 4) as u32, off, &view).unwrap();
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations over {PACKETS} packets");
    assert!(stream.is_complete());
}
