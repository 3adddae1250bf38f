//! SwitchML wire format.
//!
//! Each packet carries the fields of Algorithm 3/4 — worker id `wid`,
//! single-bit pool version `ver`, slot index `idx`, element offset
//! `off` — plus a vector of `k` elements. The same packet layout is
//! used for worker→switch *updates* and switch→worker *results*
//! (the switch "rewrit\[es\] the packet's vector with the aggregated
//! value", §3.3); a flag bit distinguishes direction so hierarchical
//! switches (§6) can tell a child's update from a parent's result.
//!
//! Elements are encoded either as 32-bit fixed-point integers
//! (big-endian, the `htonl`/`ntohl` of Appendix B) or as 16-bit IEEE
//! floats when the switch-side f16 pipeline is in use (§3.7). A CRC-32
//! trailer detects in-flight corruption.
//!
//! ## Wire-size accounting
//!
//! The paper's packets are `b = 180` bytes at `k = 32`: 128 bytes of
//! vector data plus 52 bytes of Ethernet/IP/UDP/SwitchML headers
//! (28.9% overhead, §5.5). Our software header (28 bytes including the
//! CRC) is richer than the P4 one, so simulations charge
//! [`SIM_FRAME_OVERHEAD`] bytes of L2/L3 framing on top of
//! the encoded frame to keep the total at exactly 180 bytes — the
//! quantity that governs all goodput arithmetic in the evaluation.

use crate::checksum::Crc32;
use crate::error::{Error, Result};
use crate::quant::f16;
use bytes::{Buf, Bytes};

/// Worker identifier (rank) within a job.
pub type WorkerId = u16;
/// Aggregator slot index within the pool.
pub type SlotIndex = u32;
/// Element offset into the (virtually contiguous) tensor stream.
pub type ElemOffset = u64;

/// Elements per packet in the paper's deployment ("In our deployment,
/// k is 32", §3.3).
pub const DEFAULT_K: usize = 32;

/// Elements an MTU-sized packet would carry ("MTU-sized packets would
/// carry 366 elements (1516-byte packets, including all headers)",
/// §5.5).
pub const MTU_K: usize = 366;

/// Largest element count a packet may declare. Bounds scratch-buffer
/// growth on the receive path; generously above [`MTU_K`].
pub const MAX_K: usize = 1024;

/// Fixed per-packet header+framing budget used for wire-size math, so
/// that `wire_bytes(DEFAULT_K) == 180` as in the paper.
pub const HEADER_OVERHEAD_BYTES: usize = 52;

/// Framing bytes charged by the simulator on top of the encoded packet
/// (see module docs: 28-byte software header + 24 = the paper's 52).
pub const SIM_FRAME_OVERHEAD: usize = HEADER_OVERHEAD_BYTES - HEADER_LEN;

/// Serialized header length (including the CRC-32 trailer field).
pub const HEADER_LEN: usize = 28;

const MAGIC: u16 = 0x534D; // "SM"
const PROTO_VERSION: u8 = 1;

const FLAG_VER: u8 = 0b0000_0001;
const FLAG_RESULT: u8 = 0b0000_0010;
const FLAG_F16: u8 = 0b0000_0100;
const FLAG_RETX: u8 = 0b0000_1000;

/// Total on-the-wire bytes of a SwitchML packet carrying `k` 32-bit
/// elements, per the paper's accounting.
pub fn wire_bytes(k: usize) -> usize {
    HEADER_OVERHEAD_BYTES + 4 * k
}

/// On-the-wire bytes when elements travel as 16-bit floats.
pub fn wire_bytes_f16(k: usize) -> usize {
    HEADER_OVERHEAD_BYTES + 2 * k
}

/// The two alternating aggregation pools of Algorithm 3 ("a single bit
/// is enough to distinguish the two active phases for any slot").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PoolVersion {
    #[default]
    V0,
    V1,
}

impl PoolVersion {
    /// The other pool.
    pub fn flip(self) -> Self {
        match self {
            PoolVersion::V0 => PoolVersion::V1,
            PoolVersion::V1 => PoolVersion::V0,
        }
    }

    /// 0 or 1, for indexing `pool[2, s]`-style state.
    pub fn index(self) -> usize {
        match self {
            PoolVersion::V0 => 0,
            PoolVersion::V1 => 1,
        }
    }

    pub fn from_bit(bit: bool) -> Self {
        if bit {
            PoolVersion::V1
        } else {
            PoolVersion::V0
        }
    }
}

/// Update (worker → switch) or result (switch → worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    Update,
    Result,
}

/// Element payload. The aggregation domain is always `i32`; 16-bit
/// float payloads are converted at the switch (§3.7).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// 32-bit fixed-point integers (host-converted, §3.7 option 2).
    I32(Vec<i32>),
    /// IEEE binary16 bit patterns (switch-converted, §3.7 option 1).
    F16(Vec<u16>),
}

impl Payload {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Payload::I32(v) => v.len(),
            Payload::F16(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded payload size in bytes.
    pub fn byte_len(&self) -> usize {
        match self {
            Payload::I32(v) => 4 * v.len(),
            Payload::F16(v) => 2 * v.len(),
        }
    }

    /// Borrow the elements in wire form.
    pub fn as_chunk(&self) -> WireChunk<'_> {
        match self {
            Payload::I32(v) => WireChunk::I32(v),
            Payload::F16(v) => WireChunk::F16(v),
        }
    }
}

/// A borrowed element vector in wire form — what a worker's stream
/// hands the update encoder ([`encode_update_frame`]) out of its
/// quantization scratch, with no owned [`Payload`] in between.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireChunk<'a> {
    I32(&'a [i32]),
    F16(&'a [u16]),
}

impl WireChunk<'_> {
    /// Number of elements.
    #[inline]
    fn len(&self) -> usize {
        match self {
            WireChunk::I32(v) => v.len(),
            WireChunk::F16(v) => v.len(),
        }
    }

    /// Append the elements to `out`, big-endian.
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WireChunk::I32(v) => crate::simd::be_store_extend(v, out),
            WireChunk::F16(v) => {
                for &x in *v {
                    out.extend_from_slice(&x.to_be_bytes());
                }
            }
        }
    }
}

/// Round an f16 bit pattern into the switch's integer domain:
/// saturating round-to-nearest, NaN → 0 (the lookup-table conversion
/// the paper verified with the chip vendor, §3.7).
#[inline]
pub fn f16_bits_to_i32(bits: u16) -> i32 {
    let x = f16::f16_to_f32(bits);
    if x.is_nan() {
        0
    } else {
        x.round().clamp(i32::MIN as f32, i32::MAX as f32) as i32
    }
}

/// Read-only access to a packet's element vector in the switch's `i32`
/// aggregation domain, without materializing an intermediate `Vec`.
/// Implemented by the borrowed [`PacketView`], the one ingress of every
/// switch and worker, and by the owned [`Payload`], which hand-built
/// results (tests, the checker's sequential reference) write into a
/// stream.
pub trait WireElems {
    /// Number of elements carried.
    fn n_elems(&self) -> usize;
    /// Are the wire elements 16-bit floats (switch-converted, §3.7)?
    fn is_f16(&self) -> bool;
    /// Overwrite `dst` with the elements (first contribution of a
    /// phase — Algorithm 3 line 10's implicit slot release).
    fn overwrite_into(&self, dst: &mut [i32]);
    /// Fold the elements into `acc` with the switch's ALU mode.
    fn add_into(&self, acc: &mut [i32], wrapping: bool);
    /// Copy the raw binary16 bit patterns into `dst` — the worker's
    /// read of a Float16 result, which it rescales as a float instead of
    /// rounding into the integer domain. Only meaningful when
    /// [`WireElems::is_f16`]; leaves `dst` untouched otherwise.
    fn f16_bits_into(&self, dst: &mut [u16]);
    /// Copy into a reusable `Vec`, reusing its capacity.
    fn to_i32_into(&self, dst: &mut Vec<i32>) {
        dst.clear();
        dst.resize(self.n_elems(), 0);
        self.overwrite_into(dst);
    }
}

impl WireElems for Payload {
    fn n_elems(&self) -> usize {
        self.len()
    }

    fn is_f16(&self) -> bool {
        matches!(self, Payload::F16(_))
    }

    fn overwrite_into(&self, dst: &mut [i32]) {
        match self {
            Payload::I32(v) => dst.copy_from_slice(v),
            Payload::F16(v) => {
                for (d, &bits) in dst.iter_mut().zip(v) {
                    *d = f16_bits_to_i32(bits);
                }
            }
        }
    }

    fn f16_bits_into(&self, dst: &mut [u16]) {
        if let Payload::F16(v) = self {
            dst.copy_from_slice(v);
        }
    }

    fn add_into(&self, acc: &mut [i32], wrapping: bool) {
        match self {
            Payload::I32(v) => {
                if wrapping {
                    crate::quant::wrapping_add_into(acc, v);
                } else {
                    crate::quant::saturating_add_into(acc, v);
                }
            }
            Payload::F16(v) => {
                for (a, &bits) in acc.iter_mut().zip(v) {
                    let x = f16_bits_to_i32(bits);
                    *a = if wrapping {
                        a.wrapping_add(x)
                    } else {
                        a.saturating_add(x)
                    };
                }
            }
        }
    }
}

/// A SwitchML protocol packet (update or result).
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    pub kind: PacketKind,
    /// Sender's worker id. For results this echoes the slot's
    /// completing update (workers ignore it); for unicast
    /// retransmitted results it addresses the requesting worker.
    pub wid: WorkerId,
    /// Single-bit pool version (Algorithm 3's `ver`).
    pub ver: PoolVersion,
    /// Aggregator slot (Algorithm 1's `idx`).
    pub idx: SlotIndex,
    /// Element offset this vector starts at (Algorithm 2's `off`).
    pub off: ElemOffset,
    /// Job id, for multi-tenant pools (§6 "Multi-job (tenancy)").
    pub job: u8,
    /// Job generation (epoch fence, §5.4). Bumped by the control plane
    /// on every reconfiguration; switch ingress and worker engines
    /// drop packets whose epoch differs from their own, so a packet
    /// from before a crash-and-resume can never alias into a reused
    /// slot — this discharges §3.5's bounded-packet-lifetime
    /// assumption across reconfigurations. Wraps mod 256, which is
    /// safe because fencing only needs to distinguish generations
    /// whose packets can still be in flight.
    pub epoch: u8,
    /// Diagnostic flag: this packet is a retransmission. Carried on
    /// the wire so traces can separate first transmissions from
    /// retransmissions (Figure 6's "resent" series) but ignored by the
    /// protocol logic.
    pub retransmission: bool,
    pub payload: Payload,
}

impl Packet {
    /// A fresh update packet with an i32 payload.
    pub fn update(
        wid: WorkerId,
        ver: PoolVersion,
        idx: SlotIndex,
        off: ElemOffset,
        v: Vec<i32>,
    ) -> Self {
        Packet {
            kind: PacketKind::Update,
            wid,
            ver,
            idx,
            off,
            job: 0,
            epoch: 0,
            retransmission: false,
            payload: Payload::I32(v),
        }
    }

    /// Number of elements carried.
    pub fn k(&self) -> usize {
        self.payload.len()
    }

    /// Serialize to bytes (header + payload, CRC-32 filled in).
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload.byte_len());
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Serialize into a caller-owned scratch buffer, reusing its
    /// capacity. `out` is cleared first; after the call it holds the
    /// complete packet bytes. This is the allocation-free counterpart
    /// of [`Packet::encode`] for steady-state send loops.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut flags = 0u8;
        if self.ver == PoolVersion::V1 {
            flags |= FLAG_VER;
        }
        if self.kind == PacketKind::Result {
            flags |= FLAG_RESULT;
        }
        if matches!(self.payload, Payload::F16(_)) {
            flags |= FLAG_F16;
        }
        if self.retransmission {
            flags |= FLAG_RETX;
        }
        put_header(
            out,
            flags,
            self.job,
            self.epoch,
            self.wid,
            self.idx,
            self.off,
            self.payload.len(),
        );
        self.payload.as_chunk().put(out);
        finish_crc(out);
    }

    /// Parse a packet, verifying magic, version, length and CRC.
    pub fn decode(mut data: &[u8]) -> Result<Packet> {
        if data.len() < HEADER_LEN {
            return Err(Error::Malformed("short header"));
        }
        let full = data;
        let magic = data.get_u16();
        if magic != MAGIC {
            return Err(Error::Malformed("bad magic"));
        }
        let version = data.get_u8();
        if version != PROTO_VERSION {
            return Err(Error::Malformed("unsupported protocol version"));
        }
        let flags = data.get_u8();
        let job = data.get_u8();
        let epoch = data.get_u8();
        let wid = data.get_u16();
        let idx = data.get_u32();
        let off = data.get_u64();
        let count = data.get_u16() as usize;
        let _reserved2 = data.get_u16();
        let checksum = data.get_u32();

        let elem_bytes = if flags & FLAG_F16 != 0 { 2 } else { 4 };
        if data.len() != count * elem_bytes {
            return Err(Error::Malformed("payload length mismatch"));
        }

        let actual = frame_crc(full);
        if actual != checksum {
            return Err(Error::BadChecksum {
                expected: checksum,
                actual,
            });
        }

        let payload = if flags & FLAG_F16 != 0 {
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                v.push(data.get_u16());
            }
            Payload::F16(v)
        } else {
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                v.push(data.get_i32());
            }
            Payload::I32(v)
        };

        Ok(Packet {
            kind: if flags & FLAG_RESULT != 0 {
                PacketKind::Result
            } else {
                PacketKind::Update
            },
            wid,
            ver: PoolVersion::from_bit(flags & FLAG_VER != 0),
            idx,
            off,
            job,
            epoch,
            retransmission: flags & FLAG_RETX != 0,
            payload,
        })
    }

    /// Peek the packet kind from encoded bytes without a full decode —
    /// used by composite nodes (colocated worker + PS shard) to route
    /// an arriving packet to the right half.
    pub fn peek_kind(data: &[u8]) -> Option<PacketKind> {
        if data.len() < 4 || u16::from_be_bytes([data[0], data[1]]) != MAGIC {
            return None;
        }
        Some(if data[3] & FLAG_RESULT != 0 {
            PacketKind::Result
        } else {
            PacketKind::Update
        })
    }
}

/// Clear `out` and write the 28-byte header with a zeroed checksum
/// field (filled in by [`finish_crc`] once the payload follows).
#[allow(clippy::too_many_arguments)]
fn put_header(
    out: &mut Vec<u8>,
    flags: u8,
    job: u8,
    epoch: u8,
    wid: WorkerId,
    idx: SlotIndex,
    off: ElemOffset,
    count: usize,
) {
    out.clear();
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(PROTO_VERSION);
    out.push(flags);
    out.push(job);
    out.push(epoch);
    out.extend_from_slice(&wid.to_be_bytes());
    out.extend_from_slice(&idx.to_be_bytes());
    out.extend_from_slice(&off.to_be_bytes());
    out.extend_from_slice(&(count as u16).to_be_bytes());
    out.extend_from_slice(&[0, 0]); // reserved
    out.extend_from_slice(&[0, 0, 0, 0]); // checksum placeholder
}

/// The frame checksum: CRC-32 over the header with its checksum field
/// read as zero, then the payload. `frame` is at least `HEADER_LEN`
/// long.
fn frame_crc(frame: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&frame[..HEADER_LEN - 4]);
    crc.update(&[0, 0, 0, 0]);
    crc.update(&frame[HEADER_LEN..]);
    crc.finalize()
}

/// Compute the CRC over the complete packet in `out` and patch it into
/// the header.
fn finish_crc(out: &mut [u8]) {
    let sum = frame_crc(out);
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&sum.to_be_bytes());
}

/// Header fields of a switch-generated result packet. Bundled so the
/// switch can serialize a response straight from its slot registers
/// via [`encode_result_into`] without building a [`Packet`].
#[derive(Debug, Clone, Copy)]
pub struct ResultMeta {
    pub wid: WorkerId,
    pub ver: PoolVersion,
    pub idx: SlotIndex,
    pub off: ElemOffset,
    pub job: u8,
    /// Job generation (epoch fence); echoed from the completing update.
    pub epoch: u8,
    pub retransmission: bool,
    /// Encode elements as 16-bit floats (the switch "converts
    /// fixed-point values back into equivalent floating-point values",
    /// §3.7) instead of 32-bit integers.
    pub f16: bool,
}

impl ResultMeta {
    /// The header of the result answering update `v`: its fields
    /// echoed, its element width kept.
    pub fn answering(v: &PacketView<'_>) -> ResultMeta {
        ResultMeta {
            wid: v.wid(),
            ver: v.ver(),
            idx: v.idx(),
            off: v.off(),
            job: v.job(),
            epoch: v.epoch(),
            retransmission: v.retransmission(),
            f16: v.is_f16(),
        }
    }
}

/// Encode a result packet directly from aggregated slot registers into
/// a reusable scratch buffer — the switch's zero-allocation egress
/// path ("rewriting the packet's vector with the aggregated value",
/// §3.3). Bit-identical to `Packet { kind: Result, .. }.encode()`.
pub fn encode_result_into(meta: ResultMeta, values: &[i32], out: &mut Vec<u8>) {
    let mut flags = FLAG_RESULT;
    if meta.ver == PoolVersion::V1 {
        flags |= FLAG_VER;
    }
    if meta.f16 {
        flags |= FLAG_F16;
    }
    if meta.retransmission {
        flags |= FLAG_RETX;
    }
    put_header(
        out,
        flags,
        meta.job,
        meta.epoch,
        meta.wid,
        meta.idx,
        meta.off,
        values.len(),
    );
    if meta.f16 {
        for &v in values {
            out.extend_from_slice(&f16::f32_to_f16(v as f32).to_be_bytes());
        }
    } else {
        crate::simd::be_store_extend(values, out);
    }
    finish_crc(out);
}

/// Re-stamp the result frame in `frame` (as [`encode_result_into`]
/// wrote it) as worker `wid`'s update, flagged as a retransmission or
/// not, and refresh its CRC: the partial aggregate a §6 intermediate
/// switch forwards to its parent, which sees the switch as one worker.
pub fn restamp_as_update(frame: &mut [u8], wid: WorkerId, retransmission: bool) {
    frame[3] &= !(FLAG_RESULT | FLAG_RETX);
    if retransmission {
        frame[3] |= FLAG_RETX;
    }
    frame[6..8].copy_from_slice(&wid.to_be_bytes());
    finish_crc(frame);
}

/// Header fields of a worker-generated update packet, bundled so the
/// worker can serialize an update straight from its quantization
/// scratch via [`encode_update_frame`] without building a [`Packet`].
#[derive(Debug, Clone, Copy)]
pub struct UpdateMeta {
    pub wid: WorkerId,
    pub ver: PoolVersion,
    pub idx: SlotIndex,
    pub off: ElemOffset,
    /// Wire job id of the pool the update is aimed at.
    pub job: u8,
    /// Job generation (epoch fence, §5.4).
    pub epoch: u8,
    pub retransmission: bool,
}

/// Encode an update packet for any job and numeric mode into a
/// reusable frame buffer — the worker's zero-allocation egress path.
/// Bit-identical to `Packet { kind: Update, .. }.encode()` with the
/// same fields and payload.
// `#[inline]` (here and on `WireChunk::{len, put}`) is measured:
// `encode_update_into` must compile to the straight-line encoder it
// was, and without it `udp-k32` lost 0.8 % ATE/s in 10 of 10 pairs and
// `hier-udp` 2.6 % in 9 of 10 (EXPERIMENTS.md, PR 14).
#[inline]
pub fn encode_update_frame(meta: UpdateMeta, elems: WireChunk<'_>, out: &mut Vec<u8>) {
    let mut flags = 0u8;
    if meta.ver == PoolVersion::V1 {
        flags |= FLAG_VER;
    }
    if matches!(elems, WireChunk::F16(_)) {
        flags |= FLAG_F16;
    }
    if meta.retransmission {
        flags |= FLAG_RETX;
    }
    put_header(
        out,
        flags,
        meta.job,
        meta.epoch,
        meta.wid,
        meta.idx,
        meta.off,
        elems.len(),
    );
    elems.put(out);
    finish_crc(out);
}

/// [`encode_update_frame`] for the bare-engine drivers: Fixed32 wire
/// format, job 0.
#[allow(clippy::too_many_arguments)]
pub fn encode_update_into(
    wid: WorkerId,
    ver: PoolVersion,
    idx: SlotIndex,
    off: ElemOffset,
    epoch: u8,
    retransmission: bool,
    values: &[i32],
    out: &mut Vec<u8>,
) {
    let meta = UpdateMeta {
        wid,
        ver,
        idx,
        off,
        job: 0,
        epoch,
        retransmission,
    };
    encode_update_frame(meta, WireChunk::I32(values), out);
}

/// A validated, borrowed view of an encoded packet. [`parse`] performs
/// the same magic/version/length/CRC checks as [`Packet::decode`] but
/// keeps the element vector in place in the receive buffer, so the
/// switch can fold wire values straight into its slot registers with
/// zero per-packet allocation (the software equivalent of the P4
/// pipeline reading header fields in place).
///
/// [`parse`]: PacketView::parse
#[derive(Debug, Clone, Copy)]
pub struct PacketView<'a> {
    data: &'a [u8],
    flags: u8,
    count: usize,
}

impl<'a> PacketView<'a> {
    /// Validate `data` and borrow it as a packet view.
    pub fn parse(data: &'a [u8]) -> Result<PacketView<'a>> {
        if data.len() < HEADER_LEN {
            return Err(Error::Malformed("short header"));
        }
        if u16::from_be_bytes([data[0], data[1]]) != MAGIC {
            return Err(Error::Malformed("bad magic"));
        }
        if data[2] != PROTO_VERSION {
            return Err(Error::Malformed("unsupported protocol version"));
        }
        let flags = data[3];
        let count = u16::from_be_bytes([data[20], data[21]]) as usize;
        let elem_bytes = if flags & FLAG_F16 != 0 { 2 } else { 4 };
        if data.len() - HEADER_LEN != count * elem_bytes {
            return Err(Error::Malformed("payload length mismatch"));
        }
        let checksum = u32::from_be_bytes([data[24], data[25], data[26], data[27]]);
        let actual = frame_crc(data);
        if actual != checksum {
            return Err(Error::BadChecksum {
                expected: checksum,
                actual,
            });
        }
        Ok(PacketView { data, flags, count })
    }

    pub fn kind(&self) -> PacketKind {
        if self.flags & FLAG_RESULT != 0 {
            PacketKind::Result
        } else {
            PacketKind::Update
        }
    }

    pub fn wid(&self) -> WorkerId {
        u16::from_be_bytes([self.data[6], self.data[7]])
    }

    pub fn ver(&self) -> PoolVersion {
        PoolVersion::from_bit(self.flags & FLAG_VER != 0)
    }

    pub fn idx(&self) -> SlotIndex {
        u32::from_be_bytes([self.data[8], self.data[9], self.data[10], self.data[11]])
    }

    pub fn off(&self) -> ElemOffset {
        u64::from_be_bytes([
            self.data[12],
            self.data[13],
            self.data[14],
            self.data[15],
            self.data[16],
            self.data[17],
            self.data[18],
            self.data[19],
        ])
    }

    pub fn job(&self) -> u8 {
        self.data[4]
    }

    /// Job generation (epoch fence, §5.4).
    pub fn epoch(&self) -> u8 {
        self.data[5]
    }

    pub fn retransmission(&self) -> bool {
        self.flags & FLAG_RETX != 0
    }

    /// Number of elements carried.
    pub fn k(&self) -> usize {
        self.count
    }

    /// The raw payload bytes (big-endian elements), borrowed.
    pub fn payload_bytes(&self) -> &'a [u8] {
        &self.data[HEADER_LEN..]
    }

    /// The whole validated frame, header and payload, borrowed.
    pub fn frame(&self) -> &'a [u8] {
        self.data
    }
}

impl WireElems for PacketView<'_> {
    fn n_elems(&self) -> usize {
        self.count
    }

    fn is_f16(&self) -> bool {
        self.flags & FLAG_F16 != 0
    }

    fn overwrite_into(&self, dst: &mut [i32]) {
        let bytes = self.payload_bytes();
        if self.is_f16() {
            for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(2)) {
                *d = f16_bits_to_i32(u16::from_be_bytes([c[0], c[1]]));
            }
        } else {
            // Vectorized ntohl straight out of the receive buffer.
            crate::simd::be_load(bytes, dst);
        }
    }

    fn f16_bits_into(&self, dst: &mut [u16]) {
        if self.is_f16() {
            for (d, c) in dst.iter_mut().zip(self.payload_bytes().chunks_exact(2)) {
                *d = u16::from_be_bytes([c[0], c[1]]);
            }
        }
    }

    fn add_into(&self, acc: &mut [i32], wrapping: bool) {
        let bytes = self.payload_bytes();
        if self.is_f16() {
            for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(2)) {
                let x = f16_bits_to_i32(u16::from_be_bytes([c[0], c[1]]));
                *a = if wrapping {
                    a.wrapping_add(x)
                } else {
                    a.saturating_add(x)
                };
            }
        } else if wrapping {
            // Wide i32 adds straight into slot registers — the switch's
            // per-packet aggregation loop.
            crate::simd::be_wrapping_add(bytes, acc);
        } else {
            crate::simd::be_saturating_add(bytes, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Packet {
        Packet {
            kind: PacketKind::Update,
            wid: 3,
            ver: PoolVersion::V1,
            idx: 17,
            off: 123_456,
            job: 2,
            epoch: 5,
            retransmission: true,
            payload: Payload::I32((0..32).map(|i| i * 1000 - 16000).collect()),
        }
    }

    #[test]
    fn roundtrip_i32() {
        let p = sample();
        let bytes = p.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 128);
        let q = Packet::decode(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn roundtrip_f16() {
        let p = Packet {
            kind: PacketKind::Result,
            wid: 0,
            ver: PoolVersion::V0,
            idx: 0,
            off: 64,
            job: 0,
            epoch: 0,
            retransmission: false,
            payload: Payload::F16((0..32).map(|i| f16::f32_to_f16(i as f32 * 0.5)).collect()),
        };
        let q = Packet::decode(&p.encode()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn wire_size_matches_paper() {
        // k = 32 → 180 bytes (§3.4); MTU k = 366 → 1516 bytes (§5.5).
        assert_eq!(wire_bytes(DEFAULT_K), 180);
        assert_eq!(wire_bytes(MTU_K), 1516);
        assert_eq!(sample().encode().len() + SIM_FRAME_OVERHEAD, 180);
    }

    #[test]
    fn corruption_detected() {
        let bytes = sample().encode().to_vec();
        for pos in [0, 3, 10, HEADER_LEN - 4, HEADER_LEN, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            match Packet::decode(&bad) {
                Err(Error::BadChecksum { .. }) | Err(Error::Malformed(_)) => {}
                other => panic!("corruption at {pos} not detected: {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().encode();
        assert!(Packet::decode(&bytes[..10]).is_err());
        assert!(Packet::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn pool_version_flip() {
        assert_eq!(PoolVersion::V0.flip(), PoolVersion::V1);
        assert_eq!(PoolVersion::V1.flip(), PoolVersion::V0);
        assert_eq!(PoolVersion::V0.index(), 0);
        assert_eq!(PoolVersion::V1.index(), 1);
    }

    #[test]
    fn f16_payload_converts_to_i32_by_rounding() {
        let p = Payload::F16(vec![
            f16::f32_to_f16(2.4),
            f16::f32_to_f16(-7.6),
            f16::f32_to_f16(0.0),
        ]);
        let mut got = Vec::new();
        p.to_i32_into(&mut got);
        assert_eq!(got, vec![2, -8, 0]);
    }

    #[test]
    fn encode_into_matches_encode() {
        let mut scratch = Vec::new();
        for p in [
            sample(),
            Packet {
                kind: PacketKind::Result,
                payload: Payload::F16(vec![f16::f32_to_f16(1.5), f16::f32_to_f16(-2.0)]),
                ..sample()
            },
        ] {
            p.encode_into(&mut scratch);
            assert_eq!(&scratch[..], &p.encode()[..]);
        }
    }

    #[test]
    fn view_agrees_with_decode() {
        for p in [
            sample(),
            Packet {
                kind: PacketKind::Result,
                retransmission: false,
                payload: Payload::F16(vec![f16::f32_to_f16(2.5); 32]),
                ..sample()
            },
        ] {
            let bytes = p.encode();
            let v = PacketView::parse(&bytes).unwrap();
            assert_eq!(v.kind(), p.kind);
            assert_eq!(v.wid(), p.wid);
            assert_eq!(v.ver(), p.ver);
            assert_eq!(v.idx(), p.idx);
            assert_eq!(v.off(), p.off);
            assert_eq!(v.job(), p.job);
            assert_eq!(v.epoch(), p.epoch);
            assert_eq!(v.retransmission(), p.retransmission);
            assert_eq!(v.k(), p.k());
            assert_eq!(v.payload_bytes(), &bytes[HEADER_LEN..]);
            assert_eq!(v.frame(), &bytes[..]);

            // Element access matches the owned payload's.
            let mut want = Vec::new();
            p.payload.to_i32_into(&mut want);
            let mut got = vec![0i32; v.n_elems()];
            v.overwrite_into(&mut got);
            assert_eq!(got, want);

            let mut acc = vec![5i32; v.n_elems()];
            v.add_into(&mut acc, false);
            let expect: Vec<i32> = want.iter().map(|&x| x.saturating_add(5)).collect();
            assert_eq!(acc, expect);
        }
    }

    #[test]
    fn view_rejects_corruption() {
        let bytes = sample().encode().to_vec();
        for pos in [0, 3, 10, HEADER_LEN - 4, HEADER_LEN, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(PacketView::parse(&bad).is_err(), "corruption at {pos}");
        }
        assert!(PacketView::parse(&bytes[..10]).is_err());
        assert!(PacketView::parse(&bytes[..bytes.len() - 1]).is_err());
    }

    /// One frame per payload shape the wire carries: k from 1 to
    /// `MAX_K` (odd, the paper's 32, the MTU-sized 366), Fixed32 and
    /// F16.
    fn hostile_test_frames() -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        for k in [1usize, 31, 32, 256, 366, MAX_K] {
            let values: Vec<i32> = (0..k as i32).map(|i| i.wrapping_mul(40_503) - 7).collect();
            let halves: Vec<u16> = (0..k as u16).map(|i| i.wrapping_mul(2_654)).collect();
            for payload in [Payload::I32(values), Payload::F16(halves)] {
                frames.push(
                    Packet {
                        payload,
                        ..sample()
                    }
                    .encode()
                    .to_vec(),
                );
            }
        }
        frames
    }

    /// Every single-bit flip of a valid frame is rejected by both
    /// parsers, with the same error: the CRC catches every flip the
    /// length and magic checks do not.
    #[test]
    fn every_single_bit_flip_is_rejected_by_both_parsers() {
        for mut frame in hostile_test_frames() {
            assert!(PacketView::parse(&frame).is_ok() && Packet::decode(&frame).is_ok());
            for bit in 0..8 * frame.len() {
                frame[bit / 8] ^= 1 << (bit % 8);
                let view = PacketView::parse(&frame).err();
                assert!(
                    view.is_some(),
                    "flip of bit {bit} of {} B accepted",
                    frame.len()
                );
                assert_eq!(view, Packet::decode(&frame).err(), "bit {bit}");
                frame[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes up to past the largest frame never panic
        /// either parser, and both reach the same verdict. `shape`
        /// steers some inputs past the magic/version (1) and length (2)
        /// checks, so the CRC is reached too.
        #[test]
        fn arbitrary_bytes_never_panic_either_parser(
            mut data in prop::collection::vec(any::<u8>(), 0..=4200),
            shape in 0u8..3,
        ) {
            if shape >= 1 && data.len() >= HEADER_LEN {
                data[..2].copy_from_slice(&MAGIC.to_be_bytes());
                data[2] = PROTO_VERSION;
            }
            if shape == 2 && data.len() >= HEADER_LEN {
                let elem_bytes = if data[3] & FLAG_F16 != 0 { 2 } else { 4 };
                data.truncate(HEADER_LEN + (data.len() - HEADER_LEN) / elem_bytes * elem_bytes);
                let count = (data.len() - HEADER_LEN) / elem_bytes;
                data[20..22].copy_from_slice(&(count as u16).to_be_bytes());
            }
            let view = PacketView::parse(&data).map(|v| v.k());
            let owned = Packet::decode(&data).map(|p| p.k());
            prop_assert_eq!(view, owned);
        }
    }

    #[test]
    fn encode_result_into_matches_packet_encode() {
        let values: Vec<i32> = (0..32).map(|i| i * 7 - 100).collect();
        let mut scratch = Vec::new();
        for f16_mode in [false, true] {
            let meta = ResultMeta {
                wid: 4,
                ver: PoolVersion::V1,
                idx: 9,
                off: 4096,
                job: 1,
                epoch: 3,
                retransmission: true,
                f16: f16_mode,
            };
            encode_result_into(meta, &values, &mut scratch);
            let reference = Packet {
                kind: PacketKind::Result,
                wid: 4,
                ver: PoolVersion::V1,
                idx: 9,
                off: 4096,
                job: 1,
                epoch: 3,
                retransmission: true,
                payload: if f16_mode {
                    Payload::F16(values.iter().map(|&v| f16::f32_to_f16(v as f32)).collect())
                } else {
                    Payload::I32(values.clone())
                },
            };
            assert_eq!(&scratch[..], &reference.encode()[..]);
        }
    }

    #[test]
    fn encode_update_into_matches_packet_encode() {
        let values: Vec<i32> = (0..32).map(|i| i * 3 - 50).collect();
        let mut scratch = Vec::new();
        for retx in [false, true] {
            encode_update_into(7, PoolVersion::V1, 3, 256, 2, retx, &values, &mut scratch);
            let mut reference = Packet::update(7, PoolVersion::V1, 3, 256, values.clone());
            reference.epoch = 2;
            reference.retransmission = retx;
            assert_eq!(&scratch[..], &reference.encode()[..]);
        }
    }

    #[test]
    fn epoch_zero_is_byte_identical_to_the_pre_epoch_format() {
        // The epoch lives in what used to be a reserved zero byte, so
        // epoch-0 packets must encode exactly as before the field
        // existed (wire compatibility with recorded traces).
        let mut p = sample();
        p.epoch = 0;
        let bytes = p.encode();
        assert_eq!(bytes[5], 0);
        let q = Packet::decode(&bytes).unwrap();
        assert_eq!(q.epoch, 0);
    }

    #[test]
    fn payload_wire_elems_round_f16_into_the_integer_domain() {
        let p16 = Payload::F16(vec![
            f16::f32_to_f16(2.5),
            f16::f32_to_f16(-3.5),
            f16::f32_to_f16(f32::NAN),
            f16::f32_to_f16(f32::INFINITY),
        ]);
        let want = vec![3, -4, 0, i32::MAX];
        let mut got = Vec::new();
        p16.to_i32_into(&mut got);
        assert_eq!(got, want);
        let mut acc = vec![1i32; 4];
        p16.add_into(&mut acc, false);
        let expect: Vec<i32> = want.iter().map(|&x| x.saturating_add(1)).collect();
        assert_eq!(acc, expect);
    }

    #[test]
    fn restamped_result_is_the_update_it_stands_for() {
        let values: Vec<i32> = (0..32).map(|i| i * 5 - 60).collect();
        let meta = ResultMeta {
            wid: 1,
            ver: PoolVersion::V1,
            idx: 6,
            off: 192,
            job: 2,
            epoch: 4,
            retransmission: false,
            f16: false,
        };
        let mut frame = Vec::new();
        for retx in [false, true] {
            encode_result_into(meta, &values, &mut frame);
            restamp_as_update(&mut frame, 9, retx);
            let mut want = Packet::update(9, PoolVersion::V1, 6, 192, values.clone());
            want.job = 2;
            want.epoch = 4;
            want.retransmission = retx;
            assert_eq!(&frame[..], &want.encode()[..]);
        }
    }
}
