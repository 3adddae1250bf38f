//! The virtual tensor stream (Appendix B).
//!
//! A model update is a *set* of tensors (one per layer — e.g. 152 for
//! ResNet-50 in Caffe2), but resetting protocol state per tensor would
//! waste slots. The paper's worker "treats the set of tensors
//! virtually as a single, continuous stream of data": the stream
//! buffer manager presents the concatenation as one sequence of
//! k-element chunks, quantizing on the way out and dequantizing +
//! steering results back to the right tensor on the way in.
//!
//! The stream owns the caller's tensors and aggregates in place: each
//! chunk is quantized from them, and each accepted aggregate is written
//! over the elements it was quantized from. The only input it keeps
//! besides is one chunk per pool slot, for a reconfiguration that
//! re-streams work already done here ([`TensorStream::mark_undone`]).

use crate::config::NumericMode;
use crate::error::{Error, Result};
use crate::packet::{ElemOffset, SlotIndex, WireChunk, WireElems};
use crate::quant::f16::{f16_to_f32, f32_to_f16};

/// Gather a set of tensors into one stream in the first tensor's
/// allocation: a single tensor is moved in as it is, the others are
/// appended to the first. Returns the stream and each tensor's length,
/// for [`split`].
pub fn gather<T: Copy>(tensors: Vec<Vec<T>>) -> (Vec<T>, Vec<usize>) {
    let shapes: Vec<usize> = tensors.iter().map(Vec::len).collect();
    let mut tensors = tensors.into_iter();
    let mut stream = tensors.next().unwrap_or_default();
    stream.reserve_exact(shapes.iter().sum::<usize>() - stream.len());
    tensors.for_each(|t| stream.extend_from_slice(&t));
    (stream, shapes)
}

/// Cut a [`gather`]ed stream back into tensors of `shapes`: the tail
/// tensors are cut off the back, and the first keeps the stream's
/// allocation.
pub fn split<T: Copy>(mut stream: Vec<T>, shapes: &[usize]) -> Vec<Vec<T>> {
    let mut tensors: Vec<Vec<T>> = (shapes.iter().skip(1).rev())
        .map(|&len| stream.split_off(stream.len() - len))
        .collect();
    if shapes.len() > 1 {
        stream.shrink_to_fit(); // give the tails' room back
    }
    tensors.extend((!shapes.is_empty()).then_some(stream));
    tensors.reverse();
    tensors
}

/// Gradient data in its native (framework) representation: the stream
/// itself, and one undo chunk per pool slot.
#[derive(Debug, Clone)]
enum StreamBuf {
    F32 { data: Vec<f32>, undo: Vec<f32> },
    I32 { data: Vec<i32>, undo: Vec<i32> },
}

/// The worker-side stream buffer manager.
#[derive(Debug, Clone)]
pub struct TensorStream {
    buf: StreamBuf,
    /// Length of each constituent tensor, in stream order.
    shapes: Vec<usize>,
    mode: NumericMode,
    f: f64,
    k: usize,
    chunk_done: Vec<bool>,
    done_chunks: u64,
    /// Per pool slot, the chunk whose input its undo chunk (`k`
    /// elements at `slot · k` of the buffer's `undo`) holds: the last
    /// chunk accepted on that slot.
    undo_chunk: Vec<Option<u64>>,
    /// One chunk of reusable scratch for the NativeInt32 (`qbuf`) and
    /// the Float16 (`hbuf`) wire paths, each sized only in its mode.
    /// Fixed32 needs none: its chunks are quantized straight into the
    /// frame and dequantized straight out of it.
    qbuf: Vec<i32>,
    hbuf: Vec<u16>,
}

impl TensorStream {
    /// The chunks a [`TensorStream::from_f32`] stream over `tensors`
    /// would have, counted without building it, after the same checks
    /// of `mode` and `k`.
    pub fn f32_chunks(tensors: &[Vec<f32>], mode: NumericMode, k: usize) -> Result<u64> {
        if mode == NumericMode::NativeInt32 {
            return Err(Error::InvalidConfig(
                "NativeInt32 mode requires integer tensors (use from_i32)".into(),
            ));
        }
        if k == 0 {
            return Err(Error::InvalidConfig("k must be > 0".into()));
        }
        Ok(tensors.iter().map(Vec::len).sum::<usize>().div_ceil(k) as u64)
    }

    /// Build a stream over float tensors (Fixed32 or Float16 modes),
    /// taking them over: the aggregate is written into them, and
    /// [`into_tensors_f32`](Self::into_tensors_f32) hands them back.
    pub fn from_f32(tensors: Vec<Vec<f32>>, mode: NumericMode, f: f64, k: usize) -> Result<Self> {
        Self::f32_chunks(&tensors, mode, k)?;
        if f <= 0.0 {
            return Err(Error::InvalidConfig("scaling factor must be > 0".into()));
        }
        let (data, shapes) = gather(tensors);
        let undo = Vec::new();
        Ok(Self::over(
            StreamBuf::F32 { data, undo },
            shapes,
            mode,
            f,
            k,
        ))
    }

    /// Build a stream over native integer tensors (Figure 8's
    /// conversion-overhead-isolation mode), taking them over like
    /// [`from_f32`](Self::from_f32).
    pub fn from_i32(tensors: Vec<Vec<i32>>, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidConfig("k must be > 0".into()));
        }
        let (data, shapes) = gather(tensors);
        let buf = StreamBuf::I32 {
            data,
            undo: Vec::new(),
        };
        Ok(Self::over(buf, shapes, NumericMode::NativeInt32, 1.0, k))
    }

    fn over(buf: StreamBuf, shapes: Vec<usize>, mode: NumericMode, f: f64, k: usize) -> Self {
        let chunks = shapes.iter().sum::<usize>().div_ceil(k);
        TensorStream {
            buf,
            shapes,
            mode,
            f,
            k,
            chunk_done: vec![false; chunks],
            done_chunks: 0,
            undo_chunk: Vec::new(),
            qbuf: vec![
                0;
                if mode == NumericMode::NativeInt32 {
                    k
                } else {
                    0
                }
            ],
            hbuf: vec![0; if mode == NumericMode::Float16 { k } else { 0 }],
        }
    }

    /// Keep one undo chunk for each of `pool_size` slots, forgetting
    /// whatever the undo chunks held. Every [`Worker`] constructor sets
    /// its pool size here; after a reconfiguration this drops the undo
    /// chunks its frontier did not ask for.
    ///
    /// [`Worker`]: crate::worker::Worker
    pub fn reset_undo(&mut self, pool_size: usize) {
        self.undo_chunk.clear();
        self.undo_chunk.resize(pool_size, None);
        let len = pool_size * self.k;
        match &mut self.buf {
            StreamBuf::F32 { undo, .. } => undo.resize(len, 0.0),
            StreamBuf::I32 { undo, .. } => undo.resize(len, 0),
        }
    }

    /// Total elements in the stream.
    pub fn total_elems(&self) -> usize {
        match &self.buf {
            StreamBuf::F32 { data, .. } => data.len(),
            StreamBuf::I32 { data, .. } => data.len(),
        }
    }

    /// Total k-element chunks (the final chunk may be zero-padded).
    pub fn total_chunks(&self) -> u64 {
        self.chunk_done.len() as u64
    }

    pub fn done_chunks(&self) -> u64 {
        self.done_chunks
    }

    /// Has the chunk at `chunk` been aggregated?
    pub fn chunk_is_done(&self, chunk: u64) -> bool {
        self.chunk_done
            .get(chunk as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Global indices of chunks not yet aggregated, ascending — the
    /// work list for resuming after a reconfiguration.
    pub fn undone_chunks(&self) -> Vec<u64> {
        self.chunk_done
            .iter()
            .enumerate()
            .filter(|(_, &d)| !d)
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Un-mark a chunk as aggregated and put its input back, so a later
    /// [`Worker::resume`] re-streams it. Used when a reconfiguration's
    /// *frontier* (chunks aggregated at every survivor) is smaller than
    /// this worker's own done set: locally-done chunks outside the
    /// frontier must be re-aggregated under the new membership.
    ///
    /// Those can only be the last chunk accepted on each slot: the next
    /// chunk on a slot completes at the switch only once every member
    /// sent it, which each does only after receiving the previous
    /// chunk's result. So the input is restored from that slot's undo
    /// chunk. A done chunk no undo chunk holds is an error: its input
    /// was overwritten by its aggregate, which must not be re-streamed
    /// as input. A chunk that is not done, or outside the stream, is
    /// left alone.
    ///
    /// [`Worker::resume`]: crate::worker::Worker::resume
    pub fn mark_undone(&mut self, chunk: u64) -> Result<()> {
        if !self.chunk_is_done(chunk) {
            return Ok(());
        }
        let Some(slot) = self.undo_chunk.iter().position(|&c| c == Some(chunk)) else {
            return Err(Error::ProtocolViolation(format!(
                "chunk {chunk} is outside the frontier, but its input is no longer kept"
            )));
        };
        self.undo_chunk[slot] = None;
        let (off, n) = self.chunk_span(chunk);
        let at = slot * self.k;
        match &mut self.buf {
            StreamBuf::F32 { data, undo } => data[off..off + n].copy_from_slice(&undo[at..at + n]),
            StreamBuf::I32 { data, undo } => data[off..off + n].copy_from_slice(&undo[at..at + n]),
        }
        self.chunk_done[chunk as usize] = false;
        self.done_chunks -= 1;
        Ok(())
    }

    /// The first element of `chunk` and its element count (the last
    /// chunk may be ragged).
    fn chunk_span(&self, chunk: u64) -> (usize, usize) {
        let off = chunk as usize * self.k;
        (off, self.k.min(self.total_elems() - off))
    }

    /// The quantization scaling factor in effect.
    pub fn scaling(&self) -> f64 {
        self.f
    }

    /// Re-scale the stream (live reconfiguration: when n shrinks, the
    /// Theorem 1 overflow bound admits a larger f). Applies to chunks
    /// quantized *and* dequantized from now on; results already
    /// installed keep the values produced under the old factor.
    pub fn set_scaling(&mut self, f: f64) -> Result<()> {
        if f <= 0.0 {
            return Err(Error::InvalidConfig("scaling factor must be > 0".into()));
        }
        if matches!(self.buf, StreamBuf::I32 { .. }) {
            return Err(Error::InvalidConfig(
                "native-i32 streams are not scaled".into(),
            ));
        }
        self.f = f;
        Ok(())
    }

    /// All chunks aggregated?
    pub fn is_complete(&self) -> bool {
        self.done_chunks == self.total_chunks()
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn mode(&self) -> NumericMode {
        self.mode
    }

    /// Offsets a chunk may be streamed from: chunk-aligned and inside
    /// the stream (an empty stream still has its offset 0).
    fn check_send_offset(&self, off: usize) -> Result<()> {
        if !off.is_multiple_of(self.k) {
            return Err(Error::OutOfRange("offset not chunk-aligned"));
        }
        if off >= self.total_elems() && self.total_elems() > 0 {
            return Err(Error::OutOfRange("offset past end of stream"));
        }
        Ok(())
    }

    /// Fill `dst` (k elements) with the NativeInt32 chunk at `off`.
    /// Elements past the end of the stream are zero (the additive
    /// identity; the stream length need not be a multiple of k).
    fn fill_i32(&self, off: usize, dst: &mut [i32]) {
        let StreamBuf::I32 { data, .. } = &self.buf else {
            unreachable!("NativeInt32 streams are only built by from_i32");
        };
        let n = self.k.min(data.len().saturating_sub(off));
        dst[..n].copy_from_slice(&data[off..off + n]);
        dst[n..].fill(0);
    }

    /// Fill `dst` (k elements) with the chunk at `off` scaled and
    /// rounded to binary16 (Float16 mode), zero-padded like
    /// [`fill_i32`](Self::fill_i32).
    fn fill_f16(&self, off: usize, dst: &mut [u16]) {
        let StreamBuf::F32 { data, .. } = &self.buf else {
            unreachable!("Float16 streams are only built by from_f32");
        };
        for (i, slot) in dst.iter_mut().enumerate() {
            *slot = data
                .get(off + i)
                .map_or(0, |&x| f32_to_f16((x as f64 * self.f) as f32));
        }
    }

    /// Borrow the chunk starting at element offset `off` in wire form:
    /// the allocation-free egress of every numeric mode. A Fixed32
    /// chunk is handed out as floats ([`WireChunk::Fixed32`]), for the
    /// encoder to quantize straight into the frame; the other modes
    /// convert into the stream's own scratch.
    pub fn wire_chunk(&mut self, off: ElemOffset) -> Result<WireChunk<'_>> {
        let off = off as usize;
        self.check_send_offset(off)?;
        Ok(match (&self.buf, self.mode) {
            (_, NumericMode::Float16) => {
                let mut h = std::mem::take(&mut self.hbuf);
                self.fill_f16(off, &mut h);
                self.hbuf = h;
                WireChunk::F16(&self.hbuf)
            }
            (StreamBuf::F32 { data, .. }, _) => WireChunk::Fixed32 {
                src: &data[off..data.len().min(off + self.k)],
                f: self.f,
                k: self.k,
            },
            (StreamBuf::I32 { .. }, _) => {
                let mut q = std::mem::take(&mut self.qbuf);
                self.fill_i32(off, &mut q);
                self.qbuf = q;
                WireChunk::I32(&self.qbuf)
            }
        })
    }

    /// Would [`write_result`](Self::write_result) install `elems` at
    /// `off`? Everything a result can get wrong on the wire: a
    /// misaligned or out-of-range offset, an element count other than
    /// k, an element width that is not this mode's. A wire ingress
    /// asks before it lets the result advance protocol state.
    pub fn check_result<E: WireElems + ?Sized>(&self, off: ElemOffset, elems: &E) -> Result<()> {
        let off = off as usize;
        if !off.is_multiple_of(self.k) {
            return Err(Error::OutOfRange("offset not chunk-aligned"));
        }
        if off / self.k >= self.chunk_done.len() {
            return Err(Error::OutOfRange("offset past end of stream"));
        }
        if elems.n_elems() != self.k {
            return Err(Error::OutOfRange("result element count != k"));
        }
        if elems.is_f16() != (self.mode == NumericMode::Float16) {
            return Err(Error::InvalidConfig(
                "result element width does not match the numeric mode".into(),
            ));
        }
        Ok(())
    }

    /// Install the aggregated chunk at `off`, accepted on pool slot
    /// `slot`, straight from its wire form (a borrowed `PacketView`, or
    /// a hand-built [`Payload`](crate::packet::Payload)): it is dequantized over the elements it
    /// was quantized from, whose input becomes `slot`'s undo chunk
    /// (see [`mark_undone`](Self::mark_undone); a slot past the pool
    /// [`reset_undo`](Self::reset_undo) set is an error). Idempotent:
    /// writing the same chunk twice counts once, and keeps the input
    /// the first write saved.
    pub fn write_result<E: WireElems + ?Sized>(
        &mut self,
        slot: SlotIndex,
        off: ElemOffset,
        elems: &E,
    ) -> Result<()> {
        self.check_result(off, elems)?;
        let slot = slot as usize;
        if slot >= self.undo_chunk.len() {
            return Err(Error::OutOfRange("slot past the pool's undo chunks"));
        }
        let chunk = off / self.k as u64;
        let (off, n) = self.chunk_span(chunk);
        let fresh = !self.chunk_done[chunk as usize];
        let at = slot * self.k;
        // Pad elements past the end of the stream are discarded.
        match &mut self.buf {
            StreamBuf::F32 { data, undo } => {
                let dst = &mut data[off..off + n];
                if fresh {
                    undo[at..at + n].copy_from_slice(dst);
                }
                if self.mode == NumericMode::Float16 {
                    elems.f16_bits_into(&mut self.hbuf);
                    for (r, &h) in dst.iter_mut().zip(&self.hbuf) {
                        *r = (f16_to_f32(h) as f64 / self.f) as f32;
                    }
                } else {
                    elems.dequantize_into(self.f, dst);
                }
            }
            StreamBuf::I32 { data, undo } => {
                let dst = &mut data[off..off + n];
                if fresh {
                    undo[at..at + n].copy_from_slice(dst);
                }
                elems.overwrite_into(&mut self.qbuf);
                dst.copy_from_slice(&self.qbuf[..n]);
            }
        }
        if fresh {
            self.undo_chunk[slot] = Some(chunk);
            self.chunk_done[chunk as usize] = true;
            self.done_chunks += 1;
        }
        Ok(())
    }

    fn check_complete(&self) -> Result<()> {
        if !self.is_complete() {
            return Err(Error::ProtocolViolation(
                "reading results before aggregation completed".into(),
            ));
        }
        Ok(())
    }

    /// A copy of the aggregated float tensors, split back along the
    /// original tensor boundaries, for a caller that only borrows the
    /// stream. `divide_by` performs the end-host division the switch
    /// cannot (pass `n` for an average, 1 for the raw sum).
    pub fn result_tensors_f32(&self, divide_by: usize) -> Result<Vec<Vec<f32>>> {
        self.clone().into_tensors_f32(divide_by)
    }

    /// Hand the aggregated float tensors back in the allocations the
    /// stream was built from, divided by `divide_by` in place.
    pub fn into_tensors_f32(self, divide_by: usize) -> Result<Vec<Vec<f32>>> {
        self.check_complete()?;
        let StreamBuf::F32 { mut data, .. } = self.buf else {
            return Err(Error::InvalidConfig(
                "native-i32 stream has no f32 results".into(),
            ));
        };
        if divide_by > 1 {
            let d = divide_by as f32;
            data.iter_mut().for_each(|x| *x /= d);
        }
        Ok(split(data, &self.shapes))
    }

    /// A copy of the aggregated integer tensors (NativeInt32 mode).
    pub fn result_tensors_i32(&self) -> Result<Vec<Vec<i32>>> {
        self.clone().into_tensors_i32()
    }

    /// Hand the aggregated integer tensors back in the allocations the
    /// stream was built from (NativeInt32 mode).
    pub fn into_tensors_i32(self) -> Result<Vec<Vec<i32>>> {
        self.check_complete()?;
        let StreamBuf::I32 { data, .. } = self.buf else {
            return Err(Error::InvalidConfig("f32 stream has no i32 results".into()));
        };
        Ok(split(data, &self.shapes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;

    /// A stream over `tensors` with undo chunks for 4 slots.
    fn f32_stream(tensors: Vec<Vec<f32>>, mode: NumericMode, f: f64, k: usize) -> TensorStream {
        let mut s = TensorStream::from_f32(tensors, mode, f, k).unwrap();
        s.reset_undo(4);
        s
    }

    /// The chunk at `off` in wire form, owned.
    fn chunk_at(s: &mut TensorStream, off: ElemOffset) -> Result<Payload> {
        Ok(s.wire_chunk(off)?.to_payload())
    }

    #[test]
    fn tensors_concatenate_with_boundaries() {
        let s = TensorStream::from_f32(
            vec![vec![1.0, 2.0, 3.0], vec![4.0], vec![5.0, 6.0]],
            NumericMode::Fixed32,
            100.0,
            4,
        )
        .unwrap();
        assert_eq!(s.total_elems(), 6);
        assert_eq!(s.total_chunks(), 2); // 6 elems, k=4 → 2 chunks
    }

    /// Gathering moves a single tensor in as it is and appends the rest
    /// to the first; splitting hands the first allocation back with the
    /// original shapes, empty tensors included.
    #[test]
    fn gather_and_split_keep_the_first_allocation() {
        let first = vec![1, 2, 3];
        let ptr = first.as_ptr();
        let (stream, shapes) = gather(vec![first]);
        assert_eq!(stream.as_ptr(), ptr, "a single tensor is moved, not copied");
        assert_eq!(split(stream, &shapes)[0].as_ptr(), ptr);

        let tensors = vec![vec![1, 2], vec![], vec![3, 4, 5], vec![6]];
        let (stream, shapes) = gather(tensors.clone());
        assert_eq!(stream, vec![1, 2, 3, 4, 5, 6]);
        let ptr = stream.as_ptr();
        let back = split(stream, &shapes);
        assert_eq!(back, tensors);
        assert_eq!(back[0].as_ptr(), ptr, "the first tensor keeps the stream");
        assert!(split(Vec::<i32>::new(), &[]).is_empty());
    }

    #[test]
    fn chunk_quantizes_and_pads() {
        let mut s =
            TensorStream::from_f32(vec![vec![1.5, -2.25, 0.5]], NumericMode::Fixed32, 4.0, 4)
                .unwrap();
        match chunk_at(&mut s, 0).unwrap() {
            Payload::I32(v) => assert_eq!(v, vec![6, -9, 2, 0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn roundtrip_sum_and_average() {
        // Simulate 2 workers: each writes the "aggregate" of both.
        let t = vec![vec![1.0f32, 2.0], vec![3.0]];
        let f = 1000.0;
        let mut s = f32_stream(t, NumericMode::Fixed32, f, 2);
        // aggregate = 2x each element (two identical workers)
        for chunk in 0..s.total_chunks() {
            let off = chunk * 2;
            let p = chunk_at(&mut s, off).unwrap();
            let doubled = match p {
                Payload::I32(v) => Payload::I32(v.iter().map(|x| x * 2).collect()),
                _ => unreachable!(),
            };
            s.write_result(chunk as u32, off, &doubled).unwrap();
        }
        assert!(s.is_complete());
        let sum = s.result_tensors_f32(1).unwrap();
        assert!((sum[0][0] - 2.0).abs() < 1e-3);
        assert!((sum[1][0] - 6.0).abs() < 1e-3);
        let avg = s.into_tensors_f32(2).unwrap();
        assert!((avg[0][1] - 2.0).abs() < 1e-3);
    }

    /// The aggregate of a single tensor lands in the tensor's own
    /// allocation.
    #[test]
    fn results_come_back_in_the_input_allocation() {
        let t = vec![0.5f32; 10];
        let ptr = t.as_ptr();
        let mut s = f32_stream(vec![t], NumericMode::Fixed32, 100.0, 4);
        for chunk in 0..s.total_chunks() {
            let p = chunk_at(&mut s, chunk * 4).unwrap();
            s.write_result(0, chunk * 4, &p).unwrap();
        }
        let r = s.into_tensors_f32(1).unwrap();
        assert_eq!(r[0].as_ptr(), ptr);
        assert_eq!(r, vec![vec![0.5; 10]]);
    }

    #[test]
    fn f16_mode_roundtrip() {
        let t = vec![vec![0.5f32, -1.25, 2.0, 7.0]];
        let mut s = f32_stream(t, NumericMode::Float16, 8.0, 4);
        let p = chunk_at(&mut s, 0).unwrap();
        match &p {
            Payload::F16(v) => {
                assert_eq!(f16_to_f32(v[0]), 4.0); // 0.5 * 8
                assert_eq!(f16_to_f32(v[1]), -10.0);
            }
            other => panic!("{other:?}"),
        }
        s.write_result(0, 0, &p).unwrap();
        let r = s.result_tensors_f32(1).unwrap();
        assert_eq!(r[0], vec![0.5, -1.25, 2.0, 7.0]);
    }

    #[test]
    fn native_i32_mode() {
        let mut s = TensorStream::from_i32(vec![vec![1, 2, 3]], 2).unwrap();
        s.reset_undo(1);
        let p0 = chunk_at(&mut s, 0).unwrap();
        assert_eq!(p0, Payload::I32(vec![1, 2]));
        let p1 = chunk_at(&mut s, 2).unwrap();
        assert_eq!(p1, Payload::I32(vec![3, 0])); // padded
        s.write_result(0, 0, &Payload::I32(vec![10, 20])).unwrap();
        s.write_result(0, 2, &Payload::I32(vec![30, 99])).unwrap();
        let r = s.into_tensors_i32().unwrap();
        assert_eq!(r, vec![vec![10, 20, 30]]); // pad element dropped
    }

    #[test]
    fn write_result_is_idempotent() {
        let mut s = f32_stream(vec![vec![1.0, 1.0]], NumericMode::Fixed32, 10.0, 2);
        let p = Payload::I32(vec![20, 20]);
        s.write_result(0, 0, &p).unwrap();
        s.write_result(0, 0, &p).unwrap();
        assert_eq!(s.done_chunks(), 1);
        assert!(s.is_complete());
        // The second write kept the input the first one saved.
        s.mark_undone(0).unwrap();
        assert_eq!(chunk_at(&mut s, 0).unwrap(), Payload::I32(vec![10, 10]));
    }

    #[test]
    fn undone_chunks_and_rescaling() {
        let mut s = f32_stream(vec![vec![1.0; 12]], NumericMode::Fixed32, 10.0, 4);
        assert_eq!(s.undone_chunks(), vec![0, 1, 2]);
        s.write_result(1, 4, &Payload::I32(vec![20; 4])).unwrap();
        assert_eq!(s.undone_chunks(), vec![0, 2]);
        assert!(s.chunk_is_done(1) && !s.chunk_is_done(0));
        s.mark_undone(1).unwrap();
        assert_eq!(s.undone_chunks(), vec![0, 1, 2]);
        s.mark_undone(1).unwrap(); // idempotent
        s.mark_undone(99).unwrap(); // out of range: no-op
        assert_eq!(s.done_chunks(), 0);

        // Rescale: outgoing chunks now quantize under f = 100.
        assert_eq!(s.scaling(), 10.0);
        s.set_scaling(100.0).unwrap();
        match chunk_at(&mut s, 0).unwrap() {
            Payload::I32(v) => assert_eq!(v, vec![100; 4]),
            other => panic!("{other:?}"),
        }
        assert!(s.set_scaling(0.0).is_err());
        let mut native = TensorStream::from_i32(vec![vec![1]], 2).unwrap();
        assert!(native.set_scaling(2.0).is_err());
    }

    /// `mark_undone` restores the input of the last chunk accepted on a
    /// slot, and refuses a chunk whose slot has moved on: its elements
    /// hold the aggregate now, which must not be re-streamed as input.
    #[test]
    fn undo_keeps_the_last_chunk_per_slot() {
        let t: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let mut s = f32_stream(vec![t], NumericMode::Fixed32, 10.0, 2);
        let input = |c: u64| Payload::I32(vec![(c * 20) as i32, (c * 20 + 10) as i32]);
        // Slot 0 accepts chunks 0 then 2; slot 1 accepts chunk 1.
        for (slot, chunk) in [(0, 0), (1, 1), (0, 2)] {
            assert_eq!(chunk_at(&mut s, chunk * 2).unwrap(), input(chunk));
            s.write_result(slot, chunk * 2, &Payload::I32(vec![-7, -7]))
                .unwrap();
        }
        assert_eq!(chunk_at(&mut s, 4).unwrap(), Payload::I32(vec![-7, -7]));
        s.mark_undone(2).unwrap();
        s.mark_undone(1).unwrap();
        assert_eq!(chunk_at(&mut s, 4).unwrap(), input(2));
        assert_eq!(chunk_at(&mut s, 2).unwrap(), input(1));
        let err = s.mark_undone(0).unwrap_err();
        assert!(err.to_string().contains("no longer kept"), "{err}");
        assert!(s.chunk_is_done(0), "a refused chunk stays done");
        // A fresh pool forgets what was kept.
        s.write_result(1, 2, &Payload::I32(vec![-7, -7])).unwrap();
        s.reset_undo(4);
        assert!(s.mark_undone(1).is_err());
        assert!(
            s.write_result(4, 6, &Payload::I32(vec![0, 0])).is_err(),
            "slot past the pool"
        );
    }

    #[test]
    fn misuse_is_rejected() {
        let mut s = f32_stream(vec![vec![1.0; 8]], NumericMode::Fixed32, 10.0, 4);
        assert!(chunk_at(&mut s, 3).is_err()); // unaligned
        assert!(chunk_at(&mut s, 100).is_err()); // past end
        assert!(s.write_result(0, 3, &Payload::I32(vec![0; 4])).is_err());
        assert!(s.write_result(0, 100, &Payload::I32(vec![0; 4])).is_err());
        assert!(s.write_result(0, 0, &Payload::I32(vec![0; 2])).is_err()); // bad k
        assert!(s.result_tensors_f32(1).is_err()); // incomplete
        assert!(TensorStream::from_f32(vec![vec![]], NumericMode::NativeInt32, 1.0, 4).is_err());
        assert!(TensorStream::from_f32(vec![vec![]], NumericMode::Fixed32, 0.0, 4).is_err());
    }

    /// Counting a stream's chunks agrees with building it, and rejects
    /// what building rejects, with the same error.
    #[test]
    fn f32_chunks_matches_the_built_stream() {
        let t = [vec![1.0; 37], vec![], vec![2.0; 101]];
        for k in [1, 8, 138, 139] {
            let built = TensorStream::from_f32(t.to_vec(), NumericMode::Fixed32, 1.0, k).unwrap();
            let counted = TensorStream::f32_chunks(&t, NumericMode::Fixed32, k).unwrap();
            assert_eq!(counted, built.total_chunks(), "k = {k}");
        }
        for (mode, k) in [(NumericMode::NativeInt32, 4), (NumericMode::Fixed32, 0)] {
            let counted = TensorStream::f32_chunks(&t, mode, k).unwrap_err();
            let built = TensorStream::from_f32(t.to_vec(), mode, 1.0, k).unwrap_err();
            assert_eq!(counted.to_string(), built.to_string());
        }
    }
}
