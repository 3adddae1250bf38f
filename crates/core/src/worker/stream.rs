//! The virtual tensor stream (Appendix B).
//!
//! A model update is a *set* of tensors (one per layer — e.g. 152 for
//! ResNet-50 in Caffe2), but resetting protocol state per tensor would
//! waste slots. The paper's worker "treats the set of tensors
//! virtually as a single, continuous stream of data": the stream
//! buffer manager presents the concatenation as one sequence of
//! k-element chunks, quantizing on the way out and dequantizing +
//! steering results back to the right tensor on the way in.

use crate::config::NumericMode;
use crate::error::{Error, Result};
use crate::packet::{ElemOffset, Payload, WireChunk, WireElems};
use crate::quant::f16::{f16_to_f32, f32_to_f16};
use crate::quant::fixed::{dequantize_chunk, quantize_chunk};

/// Gradient data in its native (framework) representation.
#[derive(Debug, Clone)]
enum StreamBuf {
    F32 { data: Vec<f32>, result: Vec<f32> },
    I32 { data: Vec<i32>, result: Vec<i32> },
}

/// The worker-side stream buffer manager.
#[derive(Debug, Clone)]
pub struct TensorStream {
    buf: StreamBuf,
    /// Element ranges of each constituent tensor within the stream.
    bounds: Vec<(usize, usize)>,
    mode: NumericMode,
    f: f64,
    k: usize,
    chunk_done: Vec<bool>,
    done_chunks: u64,
    /// One chunk of reusable scratch per element width, so the wire
    /// path quantizes outgoing chunks and byte-swaps incoming ones
    /// without allocating (`hbuf` is sized only in Float16 mode).
    qbuf: Vec<i32>,
    hbuf: Vec<u16>,
}

impl TensorStream {
    /// The chunks a [`TensorStream::from_f32`] stream over `tensors`
    /// would have, counted without building it (or copying a tensor),
    /// after the same checks of `mode` and `k`.
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

    /// Build a stream over float tensors (Fixed32 or Float16 modes).
    pub fn from_f32(tensors: &[Vec<f32>], mode: NumericMode, f: f64, k: usize) -> Result<Self> {
        let chunks = Self::f32_chunks(tensors, mode, k)? as usize;
        if f <= 0.0 {
            return Err(Error::InvalidConfig("scaling factor must be > 0".into()));
        }
        let mut data = Vec::new();
        let mut bounds = Vec::with_capacity(tensors.len());
        for t in tensors {
            let start = data.len();
            data.extend_from_slice(t);
            bounds.push((start, data.len()));
        }
        let total = data.len();
        Ok(TensorStream {
            buf: StreamBuf::F32 {
                result: vec![0.0; total],
                data,
            },
            bounds,
            mode,
            f,
            k,
            chunk_done: vec![false; chunks],
            done_chunks: 0,
            qbuf: vec![0; k],
            hbuf: vec![0; if mode == NumericMode::Float16 { k } else { 0 }],
        })
    }

    /// Build a stream over native integer tensors (Figure 8's
    /// conversion-overhead-isolation mode).
    pub fn from_i32(tensors: &[Vec<i32>], k: usize) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidConfig("k must be > 0".into()));
        }
        let mut data = Vec::new();
        let mut bounds = Vec::with_capacity(tensors.len());
        for t in tensors {
            let start = data.len();
            data.extend_from_slice(t);
            bounds.push((start, data.len()));
        }
        let total = data.len();
        let chunks = total.div_ceil(k);
        Ok(TensorStream {
            buf: StreamBuf::I32 {
                result: vec![0; total],
                data,
            },
            bounds,
            mode: NumericMode::NativeInt32,
            f: 1.0,
            k,
            chunk_done: vec![false; chunks],
            done_chunks: 0,
            qbuf: vec![0; k],
            hbuf: Vec::new(),
        })
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

    /// Un-mark a chunk as aggregated, so a later [`Worker::resume`]
    /// re-streams it. Used when a reconfiguration's *frontier* (chunks
    /// aggregated at every survivor) is smaller than this worker's own
    /// done set: locally-done chunks outside the frontier must be
    /// re-aggregated under the new membership. The stale value stays in
    /// the buffer until the re-aggregated result overwrites it.
    ///
    /// [`Worker::resume`]: crate::worker::Worker::resume
    pub fn mark_undone(&mut self, chunk: u64) {
        if let Some(d) = self.chunk_done.get_mut(chunk as usize) {
            if *d {
                *d = false;
                self.done_chunks -= 1;
            }
        }
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

    /// Fill `dst` (k elements) with the chunk at `off` as 32-bit wire
    /// integers: quantized in Fixed32 mode, copied in NativeInt32.
    /// Elements past the end of the stream are zero (the additive
    /// identity; the stream length need not be a multiple of k).
    fn fill_i32(&self, off: usize, dst: &mut [i32]) {
        let n = self.k.min(self.total_elems().saturating_sub(off));
        match &self.buf {
            StreamBuf::F32 { data, .. } => {
                quantize_chunk(&data[off..off + n], self.f, &mut dst[..n])
            }
            StreamBuf::I32 { data, .. } => dst[..n].copy_from_slice(&data[off..off + n]),
        }
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

    /// Quantize the chunk starting at element offset `off` for the
    /// wire, as an owned payload — the adapter of
    /// [`wire_chunk`](Self::wire_chunk) for the simulator and the
    /// checker, which keep packets beyond the call.
    pub fn payload_chunk(&self, off: ElemOffset) -> Result<Payload> {
        let off = off as usize;
        self.check_send_offset(off)?;
        Ok(if self.mode == NumericMode::Float16 {
            let mut v = vec![0u16; self.k];
            self.fill_f16(off, &mut v);
            Payload::F16(v)
        } else {
            let mut v = vec![0i32; self.k];
            self.fill_i32(off, &mut v);
            Payload::I32(v)
        })
    }

    /// Quantize the chunk starting at element offset `off` into the
    /// stream's own scratch and borrow it in wire form: the
    /// allocation-free egress of every numeric mode. Same values as
    /// [`payload_chunk`](Self::payload_chunk).
    pub fn wire_chunk(&mut self, off: ElemOffset) -> Result<WireChunk<'_>> {
        let off = off as usize;
        self.check_send_offset(off)?;
        Ok(if self.mode == NumericMode::Float16 {
            let mut h = std::mem::take(&mut self.hbuf);
            self.fill_f16(off, &mut h);
            self.hbuf = h;
            WireChunk::F16(&self.hbuf)
        } else {
            let mut q = std::mem::take(&mut self.qbuf);
            self.fill_i32(off, &mut q);
            self.qbuf = q;
            WireChunk::I32(&self.qbuf)
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

    /// Install an aggregated chunk received from the switch, straight
    /// from its wire form (an owned [`Payload`] or a borrowed
    /// `PacketView`). Idempotent: writing the same chunk twice counts
    /// once.
    pub fn write_result<E: WireElems + ?Sized>(
        &mut self,
        off: ElemOffset,
        elems: &E,
    ) -> Result<()> {
        self.check_result(off, elems)?;
        let off = off as usize;
        // Pad elements past the end of the stream are discarded.
        let n = self.k.min(self.total_elems() - off);
        if elems.is_f16() {
            elems.f16_bits_into(&mut self.hbuf);
        } else {
            elems.overwrite_into(&mut self.qbuf);
        }
        match &mut self.buf {
            StreamBuf::F32 { result, .. } if self.mode == NumericMode::Float16 => {
                for (r, &h) in result[off..off + n].iter_mut().zip(&self.hbuf) {
                    *r = (f16_to_f32(h) as f64 / self.f) as f32;
                }
            }
            StreamBuf::F32 { result, .. } => {
                dequantize_chunk(&self.qbuf[..n], self.f, &mut result[off..off + n]);
            }
            StreamBuf::I32 { result, .. } => {
                result[off..off + n].copy_from_slice(&self.qbuf[..n]);
            }
        }
        let chunk = off / self.k;
        if !self.chunk_done[chunk] {
            self.chunk_done[chunk] = true;
            self.done_chunks += 1;
        }
        Ok(())
    }

    /// The aggregated float tensors, split back along the original
    /// tensor boundaries. `divide_by` performs the end-host division
    /// the switch cannot (pass `n` for an average, 1 for the raw sum).
    pub fn result_tensors_f32(&self, divide_by: usize) -> Result<Vec<Vec<f32>>> {
        if !self.is_complete() {
            return Err(Error::ProtocolViolation(
                "reading results before aggregation completed".into(),
            ));
        }
        let d = divide_by.max(1) as f32;
        match &self.buf {
            StreamBuf::F32 { result, .. } => Ok(self
                .bounds
                .iter()
                .map(|&(a, b)| result[a..b].iter().map(|&x| x / d).collect())
                .collect()),
            StreamBuf::I32 { .. } => Err(Error::InvalidConfig(
                "native-i32 stream has no f32 results".into(),
            )),
        }
    }

    /// The aggregated integer tensors (NativeInt32 mode).
    pub fn result_tensors_i32(&self) -> Result<Vec<Vec<i32>>> {
        if !self.is_complete() {
            return Err(Error::ProtocolViolation(
                "reading results before aggregation completed".into(),
            ));
        }
        match &self.buf {
            StreamBuf::I32 { result, .. } => Ok(self
                .bounds
                .iter()
                .map(|&(a, b)| result[a..b].to_vec())
                .collect()),
            StreamBuf::F32 { .. } => {
                Err(Error::InvalidConfig("f32 stream has no i32 results".into()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensors_concatenate_with_boundaries() {
        let s = TensorStream::from_f32(
            &[vec![1.0, 2.0, 3.0], vec![4.0], vec![5.0, 6.0]],
            NumericMode::Fixed32,
            100.0,
            4,
        )
        .unwrap();
        assert_eq!(s.total_elems(), 6);
        assert_eq!(s.total_chunks(), 2); // 6 elems, k=4 → 2 chunks
    }

    #[test]
    fn chunk_quantizes_and_pads() {
        let s =
            TensorStream::from_f32(&[vec![1.5, -2.25, 0.5]], NumericMode::Fixed32, 4.0, 4).unwrap();
        match s.payload_chunk(0).unwrap() {
            Payload::I32(v) => assert_eq!(v, vec![6, -9, 2, 0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn roundtrip_sum_and_average() {
        // Simulate 2 workers: each writes the "aggregate" of both.
        let t = vec![vec![1.0f32, 2.0], vec![3.0]];
        let f = 1000.0;
        let mut s = TensorStream::from_f32(&t, NumericMode::Fixed32, f, 2).unwrap();
        // aggregate = 2x each element (two identical workers)
        for chunk in 0..s.total_chunks() {
            let off = chunk * 2;
            let p = s.payload_chunk(off).unwrap();
            let doubled = match p {
                Payload::I32(v) => Payload::I32(v.iter().map(|x| x * 2).collect()),
                _ => unreachable!(),
            };
            s.write_result(off, &doubled).unwrap();
        }
        assert!(s.is_complete());
        let sum = s.result_tensors_f32(1).unwrap();
        assert!((sum[0][0] - 2.0).abs() < 1e-3);
        assert!((sum[1][0] - 6.0).abs() < 1e-3);
        let avg = s.result_tensors_f32(2).unwrap();
        assert!((avg[0][1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn f16_mode_roundtrip() {
        let t = vec![vec![0.5f32, -1.25, 2.0, 7.0]];
        let mut s = TensorStream::from_f32(&t, NumericMode::Float16, 8.0, 4).unwrap();
        let p = s.payload_chunk(0).unwrap();
        match &p {
            Payload::F16(v) => {
                assert_eq!(f16_to_f32(v[0]), 4.0); // 0.5 * 8
                assert_eq!(f16_to_f32(v[1]), -10.0);
            }
            other => panic!("{other:?}"),
        }
        s.write_result(0, &p).unwrap();
        let r = s.result_tensors_f32(1).unwrap();
        assert_eq!(r[0], vec![0.5, -1.25, 2.0, 7.0]);
    }

    #[test]
    fn native_i32_mode() {
        let mut s = TensorStream::from_i32(&[vec![1, 2, 3]], 2).unwrap();
        let p0 = s.payload_chunk(0).unwrap();
        assert_eq!(p0, Payload::I32(vec![1, 2]));
        let p1 = s.payload_chunk(2).unwrap();
        assert_eq!(p1, Payload::I32(vec![3, 0])); // padded
        s.write_result(0, &Payload::I32(vec![10, 20])).unwrap();
        s.write_result(2, &Payload::I32(vec![30, 99])).unwrap();
        let r = s.result_tensors_i32().unwrap();
        assert_eq!(r, vec![vec![10, 20, 30]]); // pad element dropped
    }

    #[test]
    fn write_result_is_idempotent() {
        let mut s =
            TensorStream::from_f32(&[vec![1.0, 1.0]], NumericMode::Fixed32, 10.0, 2).unwrap();
        let p = Payload::I32(vec![20, 20]);
        s.write_result(0, &p).unwrap();
        s.write_result(0, &p).unwrap();
        assert_eq!(s.done_chunks(), 1);
        assert!(s.is_complete());
    }

    #[test]
    fn undone_chunks_and_rescaling() {
        let mut s =
            TensorStream::from_f32(&[vec![1.0; 12]], NumericMode::Fixed32, 10.0, 4).unwrap();
        assert_eq!(s.undone_chunks(), vec![0, 1, 2]);
        s.write_result(4, &Payload::I32(vec![20; 4])).unwrap();
        assert_eq!(s.undone_chunks(), vec![0, 2]);
        assert!(s.chunk_is_done(1) && !s.chunk_is_done(0));
        s.mark_undone(1);
        assert_eq!(s.undone_chunks(), vec![0, 1, 2]);
        s.mark_undone(1); // idempotent
        s.mark_undone(99); // out of range: no-op
        assert_eq!(s.done_chunks(), 0);

        // Rescale: outgoing chunks now quantize under f = 100.
        assert_eq!(s.scaling(), 10.0);
        s.set_scaling(100.0).unwrap();
        match s.payload_chunk(0).unwrap() {
            Payload::I32(v) => assert_eq!(v, vec![100; 4]),
            other => panic!("{other:?}"),
        }
        assert!(s.set_scaling(0.0).is_err());
        let mut native = TensorStream::from_i32(&[vec![1]], 2).unwrap();
        assert!(native.set_scaling(2.0).is_err());
    }

    #[test]
    fn misuse_is_rejected() {
        let mut s = TensorStream::from_f32(&[vec![1.0; 8]], NumericMode::Fixed32, 10.0, 4).unwrap();
        assert!(s.payload_chunk(3).is_err()); // unaligned
        assert!(s.payload_chunk(100).is_err()); // past end
        assert!(s.write_result(3, &Payload::I32(vec![0; 4])).is_err());
        assert!(s.write_result(100, &Payload::I32(vec![0; 4])).is_err());
        assert!(s.write_result(0, &Payload::I32(vec![0; 2])).is_err()); // bad k
        assert!(s.result_tensors_f32(1).is_err()); // incomplete
        assert!(TensorStream::from_f32(&[vec![]], NumericMode::NativeInt32, 1.0, 4).is_err());
        assert!(TensorStream::from_f32(&[vec![]], NumericMode::Fixed32, 0.0, 4).is_err());
    }

    /// Counting a stream's chunks agrees with building it, and rejects
    /// what building rejects, with the same error.
    #[test]
    fn f32_chunks_matches_the_built_stream() {
        let t = [vec![1.0; 37], vec![], vec![2.0; 101]];
        for k in [1, 8, 138, 139] {
            let built = TensorStream::from_f32(&t, NumericMode::Fixed32, 1.0, k).unwrap();
            let counted = TensorStream::f32_chunks(&t, NumericMode::Fixed32, k).unwrap();
            assert_eq!(counted, built.total_chunks(), "k = {k}");
        }
        for (mode, k) in [(NumericMode::NativeInt32, 4), (NumericMode::Fixed32, 0)] {
            let counted = TensorStream::f32_chunks(&t, mode, k).unwrap_err();
            let built = TensorStream::from_f32(&t, mode, 1.0, k).unwrap_err();
            assert_eq!(counted.to_string(), built.to_string());
        }
    }
}
