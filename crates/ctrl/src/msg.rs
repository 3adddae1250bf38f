//! Control-plane wire format.
//!
//! Control messages share transport endpoints with dataplane
//! [`Packet`](switchml_core::packet::Packet)s, so they carry their own
//! magic (`"CP"` vs. the dataplane's `"SM"`): a receiver first tries
//! the dataplane decoder and falls back to [`CtrlMsg::decode`]. Like
//! the dataplane format, every message ends in a CRC-32 trailer and is
//! rejected on any mismatch — a corrupted control message is dropped
//! and repaired by retransmission-by-heartbeat, never half-applied.
//!
//! Chunk sets (a worker's aggregated chunks in `QuiesceAck`, the
//! global frontier in `Reconfigure`) travel as little-endian bitmaps:
//! chunk `i` is bit `i % 8` of byte `i / 8`.

use bytes::{BufMut, Bytes, BytesMut};
use switchml_core::checksum::Crc32;
use switchml_core::config::{NumericMode, Protocol, RtoPolicy};
use switchml_core::error::{Error, Result};

const MAGIC: u16 = 0x4350; // "CP"
const VERSION: u8 = 1;

/// Identifies the control-plane peer a message came from; drivers map
/// it to a netsim `NodeId` or a transport endpoint index.
pub type PeerId = u64;

/// A control-plane message. Worker→controller messages carry the
/// sender's current `(wid, epoch)` so the controller can discard
/// stragglers from before a reconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    // ---- worker → controller ----
    /// Join a job; the controller assigns the wid in `Welcome`.
    Register { job: u8 },
    /// Periodic liveness beacon (also the answer to `Probe`).
    Heartbeat { job: u8, wid: u16, epoch: u32 },
    /// The worker has stopped its dataplane; `done` is the bitmap of
    /// chunks whose aggregate it holds.
    QuiesceAck {
        job: u8,
        wid: u16,
        epoch: u32,
        done: Vec<u8>,
    },
    /// The worker's whole stream is aggregated.
    Done { job: u8, wid: u16, epoch: u32 },

    // ---- controller → worker ----
    /// Registration accepted: here is your wid and the negotiated
    /// configuration (workers scale by `f`, which the controller
    /// clamps to Theorem 2's overflow-safe maximum). Dataplane packets
    /// must be tagged `wire_job` and aimed at switch `switch`.
    Welcome {
        job: u8,
        wid: u16,
        epoch: u32,
        n: u16,
        f: f64,
        wire_job: u8,
        switch: u8,
    },
    /// All `n` workers registered; start streaming.
    Start { job: u8, epoch: u32 },
    /// Stop the dataplane and report the chunk bitmap.
    Quiesce { job: u8, epoch: u32 },
    /// New epoch: `n` survivors, you are `new_wid`, scale by `f`,
    /// tag dataplane packets `wire_job`, aim at switch `switch`, and
    /// stream over a pool of `pool_size` slots (the scheduler may have
    /// repartitioned the slot range while the job was quiesced).
    /// `frontier` is the bitmap of chunks aggregated at *every*
    /// survivor — anything outside it must be re-aggregated.
    Reconfigure {
        job: u8,
        epoch: u32,
        n: u16,
        new_wid: u16,
        f: f64,
        switch: u8,
        wire_job: u8,
        pool_size: u32,
        frontier: Vec<u8>,
    },
    /// Liveness challenge after missed heartbeats; answer with
    /// `Heartbeat`.
    Probe { job: u8, epoch: u32 },

    // ---- controller → switch ----
    /// Install a fresh pool for `job` under `proto`; `members[wid]`
    /// is the peer to address results to. `epoch` is the job
    /// generation the pool serves: the switch fences data-plane
    /// packets whose epoch byte disagrees (§5.4).
    AdmitJob {
        job: u8,
        epoch: u32,
        proto: Protocol,
        members: Vec<PeerId>,
    },
    /// Tear the job's pool down.
    EvictJob { job: u8 },

    // ---- switch → controller ----
    /// Wire job `job`'s pool is installed: the answer to every
    /// `AdmitJob`, fresh or repeated. `AdmitJob` shares the switch's
    /// socket with the data-plane flood and a lost one wedges its job,
    /// so real-transport controllers re-send it until this arrives.
    AdmitAck { job: u8 },
}

// Message type tags on the wire.
const T_REGISTER: u8 = 1;
const T_HEARTBEAT: u8 = 2;
const T_QUIESCE_ACK: u8 = 3;
const T_DONE: u8 = 4;
const T_WELCOME: u8 = 5;
const T_START: u8 = 6;
const T_QUIESCE: u8 = 7;
const T_RECONFIGURE: u8 = 8;
const T_PROBE: u8 = 9;
const T_ADMIT_JOB: u8 = 10;
const T_EVICT_JOB: u8 = 11;
const T_ADMIT_ACK: u8 = 12;

fn put_proto(buf: &mut BytesMut, p: &Protocol) {
    buf.put_u16(p.n_workers as u16);
    buf.put_u32(p.k as u32);
    buf.put_u32(p.pool_size as u32);
    buf.put_u64(p.rto_ns);
    // Policy block: tag byte + two u64 operands (unused ones zero).
    match p.rto_policy {
        RtoPolicy::Fixed => {
            buf.put_u8(0);
            buf.put_u64(0);
            buf.put_u64(0);
        }
        RtoPolicy::ExponentialBackoff { max_ns } => {
            buf.put_u8(1);
            buf.put_u64(max_ns);
            buf.put_u64(0);
        }
        RtoPolicy::Adaptive { min_ns, max_ns } => {
            buf.put_u8(2);
            buf.put_u64(min_ns);
            buf.put_u64(max_ns);
        }
    }
    buf.put_u8(match p.mode {
        NumericMode::Fixed32 => 0,
        NumericMode::Float16 => 1,
        NumericMode::NativeInt32 => 2,
    });
    buf.put_u8(p.wrapping_add as u8);
    buf.put_f64(p.scaling_factor);
}

/// A bounds-checked big-endian cursor over a message body: a field the
/// frame is too short to hold is [`Error::Malformed`], never a panic.
struct Body<'a>(&'a [u8]);

const TRUNCATED: Error = Error::Malformed("truncated control message");

/// One reader per wire type: the next `size_of::<T>()` bytes as a `T`.
macro_rules! body_get {
    ($($ty:ident),*) => {
        $(fn $ty(&mut self) -> Result<$ty> {
            let (field, rest) = self.0.split_first_chunk().ok_or(TRUNCATED)?;
            self.0 = rest;
            Ok($ty::from_be_bytes(*field))
        })*
    };
}

impl<'a> Body<'a> {
    body_get!(u8, u16, u32, u64, f64);

    /// The next `len` bytes.
    fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        let (field, rest) = self.0.split_at_checked(len).ok_or(TRUNCATED)?;
        self.0 = rest;
        Ok(field)
    }
}

fn get_proto(data: &mut Body) -> Result<Protocol> {
    let n_workers = data.u16()? as usize;
    let k = data.u32()? as usize;
    let pool_size = data.u32()? as usize;
    let rto_ns = data.u64()?;
    let policy_tag = data.u8()?;
    let a = data.u64()?;
    let b = data.u64()?;
    let rto_policy = match policy_tag {
        0 => RtoPolicy::Fixed,
        1 => RtoPolicy::ExponentialBackoff { max_ns: a },
        2 => RtoPolicy::Adaptive {
            min_ns: a,
            max_ns: b,
        },
        _ => return Err(Error::Malformed("unknown rto policy")),
    };
    let mode = match data.u8()? {
        0 => NumericMode::Fixed32,
        1 => NumericMode::Float16,
        2 => NumericMode::NativeInt32,
        _ => return Err(Error::Malformed("unknown numeric mode")),
    };
    let wrapping_add = data.u8()? != 0;
    let scaling_factor = data.f64()?;
    Ok(Protocol {
        n_workers,
        k,
        pool_size,
        rto_ns,
        rto_policy,
        mode,
        wrapping_add,
        scaling_factor,
    })
}

fn put_bitmap(buf: &mut BytesMut, bm: &[u8]) {
    buf.put_u32(bm.len() as u32);
    buf.put_slice(bm);
}

fn get_bitmap(data: &mut Body) -> Result<Vec<u8>> {
    let len = data.u32()? as usize;
    Ok(data.bytes(len)?.to_vec())
}

impl CtrlMsg {
    /// Serialize (magic, version, type, body, CRC-32).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u16(MAGIC);
        buf.put_u8(VERSION);
        match self {
            CtrlMsg::Register { job } => {
                buf.put_u8(T_REGISTER);
                buf.put_u8(*job);
            }
            CtrlMsg::Heartbeat { job, wid, epoch } => {
                buf.put_u8(T_HEARTBEAT);
                buf.put_u8(*job);
                buf.put_u16(*wid);
                buf.put_u32(*epoch);
            }
            CtrlMsg::QuiesceAck {
                job,
                wid,
                epoch,
                done,
            } => {
                buf.put_u8(T_QUIESCE_ACK);
                buf.put_u8(*job);
                buf.put_u16(*wid);
                buf.put_u32(*epoch);
                put_bitmap(&mut buf, done);
            }
            CtrlMsg::Done { job, wid, epoch } => {
                buf.put_u8(T_DONE);
                buf.put_u8(*job);
                buf.put_u16(*wid);
                buf.put_u32(*epoch);
            }
            CtrlMsg::Welcome {
                job,
                wid,
                epoch,
                n,
                f,
                wire_job,
                switch,
            } => {
                buf.put_u8(T_WELCOME);
                buf.put_u8(*job);
                buf.put_u16(*wid);
                buf.put_u32(*epoch);
                buf.put_u16(*n);
                buf.put_f64(*f);
                buf.put_u8(*wire_job);
                buf.put_u8(*switch);
            }
            CtrlMsg::Start { job, epoch } => {
                buf.put_u8(T_START);
                buf.put_u8(*job);
                buf.put_u32(*epoch);
            }
            CtrlMsg::Quiesce { job, epoch } => {
                buf.put_u8(T_QUIESCE);
                buf.put_u8(*job);
                buf.put_u32(*epoch);
            }
            CtrlMsg::Reconfigure {
                job,
                epoch,
                n,
                new_wid,
                f,
                switch,
                wire_job,
                pool_size,
                frontier,
            } => {
                buf.put_u8(T_RECONFIGURE);
                buf.put_u8(*job);
                buf.put_u32(*epoch);
                buf.put_u16(*n);
                buf.put_u16(*new_wid);
                buf.put_f64(*f);
                buf.put_u8(*switch);
                buf.put_u8(*wire_job);
                buf.put_u32(*pool_size);
                put_bitmap(&mut buf, frontier);
            }
            CtrlMsg::Probe { job, epoch } => {
                buf.put_u8(T_PROBE);
                buf.put_u8(*job);
                buf.put_u32(*epoch);
            }
            CtrlMsg::AdmitJob {
                job,
                epoch,
                proto,
                members,
            } => {
                buf.put_u8(T_ADMIT_JOB);
                buf.put_u8(*job);
                buf.put_u32(*epoch);
                put_proto(&mut buf, proto);
                buf.put_u16(members.len() as u16);
                for &m in members {
                    buf.put_u64(m);
                }
            }
            CtrlMsg::EvictJob { job } => {
                buf.put_u8(T_EVICT_JOB);
                buf.put_u8(*job);
            }
            CtrlMsg::AdmitAck { job } => {
                buf.put_u8(T_ADMIT_ACK);
                buf.put_u8(*job);
            }
        }
        let mut crc = Crc32::new();
        crc.update(&buf);
        let sum = crc.finalize();
        buf.put_u32(sum);
        buf.freeze()
    }

    /// Is this buffer a control message (vs. a dataplane packet)?
    pub fn is_ctrl(data: &[u8]) -> bool {
        data.len() >= 2 && u16::from_be_bytes([data[0], data[1]]) == MAGIC
    }

    /// Parse and verify a control message.
    pub fn decode(data: &[u8]) -> Result<CtrlMsg> {
        if data.len() < 4 + 4 {
            return Err(Error::Malformed("short control message"));
        }
        let (body, trailer) = data.split_at(data.len() - 4);
        let stored = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let mut crc = Crc32::new();
        crc.update(body);
        let actual = crc.finalize();
        if actual != stored {
            return Err(Error::BadChecksum {
                expected: stored,
                actual,
            });
        }
        let mut body = Body(body);
        if body.u16()? != MAGIC {
            return Err(Error::Malformed("bad control magic"));
        }
        if body.u8()? != VERSION {
            return Err(Error::Malformed("unsupported control version"));
        }
        let msg = match body.u8()? {
            T_REGISTER => CtrlMsg::Register { job: body.u8()? },
            T_HEARTBEAT => CtrlMsg::Heartbeat {
                job: body.u8()?,
                wid: body.u16()?,
                epoch: body.u32()?,
            },
            T_QUIESCE_ACK => CtrlMsg::QuiesceAck {
                job: body.u8()?,
                wid: body.u16()?,
                epoch: body.u32()?,
                done: get_bitmap(&mut body)?,
            },
            T_DONE => CtrlMsg::Done {
                job: body.u8()?,
                wid: body.u16()?,
                epoch: body.u32()?,
            },
            T_WELCOME => CtrlMsg::Welcome {
                job: body.u8()?,
                wid: body.u16()?,
                epoch: body.u32()?,
                n: body.u16()?,
                f: body.f64()?,
                wire_job: body.u8()?,
                switch: body.u8()?,
            },
            T_START => CtrlMsg::Start {
                job: body.u8()?,
                epoch: body.u32()?,
            },
            T_QUIESCE => CtrlMsg::Quiesce {
                job: body.u8()?,
                epoch: body.u32()?,
            },
            T_RECONFIGURE => CtrlMsg::Reconfigure {
                job: body.u8()?,
                epoch: body.u32()?,
                n: body.u16()?,
                new_wid: body.u16()?,
                f: body.f64()?,
                switch: body.u8()?,
                wire_job: body.u8()?,
                pool_size: body.u32()?,
                frontier: get_bitmap(&mut body)?,
            },
            T_PROBE => CtrlMsg::Probe {
                job: body.u8()?,
                epoch: body.u32()?,
            },
            T_ADMIT_JOB => CtrlMsg::AdmitJob {
                job: body.u8()?,
                epoch: body.u32()?,
                proto: get_proto(&mut body)?,
                members: {
                    let count = body.u16()?;
                    (0..count).map(|_| body.u64()).collect::<Result<_>>()?
                },
            },
            T_EVICT_JOB => CtrlMsg::EvictJob { job: body.u8()? },
            T_ADMIT_ACK => CtrlMsg::AdmitAck { job: body.u8()? },
            _ => return Err(Error::Malformed("unknown control message type")),
        };
        Ok(msg)
    }
}

/// Build a chunk bitmap from a done-test over `total` chunks.
pub fn chunk_bitmap(total: u64, mut is_done: impl FnMut(u64) -> bool) -> Vec<u8> {
    let mut bm = vec![0u8; (total as usize).div_ceil(8)];
    for c in 0..total {
        if is_done(c) {
            bm[(c / 8) as usize] |= 1 << (c % 8);
        }
    }
    bm
}

/// Test a chunk bit (chunks past the bitmap's end read as not-done).
pub fn bitmap_contains(bm: &[u8], chunk: u64) -> bool {
    bm.get((chunk / 8) as usize)
        .is_some_and(|b| b & (1 << (chunk % 8)) != 0)
}

/// Intersect `other` into `acc` (missing tail bytes read as zero).
pub fn bitmap_and(acc: &mut Vec<u8>, other: &[u8]) {
    acc.truncate(other.len());
    for (a, &b) in acc.iter_mut().zip(other) {
        *a &= b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// One of every message type (two policy blocks for `AdmitJob`).
    fn every_message() -> Vec<CtrlMsg> {
        vec![
            CtrlMsg::Register { job: 3 },
            CtrlMsg::Heartbeat {
                job: 1,
                wid: 7,
                epoch: 2,
            },
            CtrlMsg::QuiesceAck {
                job: 0,
                wid: 2,
                epoch: 1,
                done: vec![0xAB, 0x01],
            },
            CtrlMsg::Done {
                job: 0,
                wid: 0,
                epoch: 9,
            },
            CtrlMsg::Welcome {
                job: 0,
                wid: 4,
                epoch: 0,
                n: 8,
                f: 12345.5,
                wire_job: 3,
                switch: 1,
            },
            CtrlMsg::Start { job: 0, epoch: 0 },
            CtrlMsg::Quiesce { job: 2, epoch: 3 },
            CtrlMsg::Reconfigure {
                job: 2,
                epoch: 4,
                n: 7,
                new_wid: 5,
                f: 777.25,
                switch: 1,
                wire_job: 9,
                pool_size: 48,
                frontier: vec![0xFF, 0x0F],
            },
            CtrlMsg::Probe { job: 1, epoch: 0 },
            CtrlMsg::AdmitJob {
                job: 5,
                epoch: 3,
                proto: Protocol {
                    n_workers: 7,
                    rto_policy: RtoPolicy::ExponentialBackoff { max_ns: 99 },
                    mode: NumericMode::Float16,
                    scaling_factor: 64.0,
                    ..Protocol::default()
                },
                members: vec![10, 20, 30],
            },
            CtrlMsg::AdmitJob {
                job: 6,
                epoch: 0,
                proto: Protocol {
                    rto_policy: RtoPolicy::Adaptive {
                        min_ns: 100_000,
                        max_ns: 5_000_000,
                    },
                    ..Protocol::default()
                },
                members: vec![7],
            },
            CtrlMsg::EvictJob { job: 5 },
            CtrlMsg::AdmitAck { job: 5 },
        ]
    }

    #[test]
    fn all_messages_roundtrip() {
        for msg in every_message() {
            let bytes = msg.encode();
            assert!(CtrlMsg::is_ctrl(&bytes));
            assert_eq!(CtrlMsg::decode(&bytes).unwrap(), msg);
        }
    }

    /// `body` sealed with a valid CRC-32 trailer, so decoding gets past
    /// the checksum and exercises the field parser.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let mut crc = Crc32::new();
        crc.update(&body);
        body.extend_from_slice(&crc.finalize().to_be_bytes());
        body
    }

    #[test]
    fn every_crc_valid_truncation_is_rejected() {
        for msg in every_message() {
            let full = msg.encode();
            let body = &full[..full.len() - 4];
            for cut in 0..body.len() {
                let frame = sealed(body[..cut].to_vec());
                assert!(CtrlMsg::decode(&frame).is_err(), "{msg:?} cut to {cut}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every tag (and one past the last) with every body length
        /// 0..64 under a valid CRC decodes to `Ok` or `Err`: a crafted
        /// datagram cannot panic the loop that decodes it.
        #[test]
        fn crc_valid_garbage_never_panics(body in prop::collection::vec(any::<u8>(), 64)) {
            for tag in 0..=T_ADMIT_ACK + 1 {
                for len in 0..64 {
                    let mut frame = MAGIC.to_be_bytes().to_vec();
                    frame.extend_from_slice(&[VERSION, tag]);
                    frame.extend_from_slice(&body[..len]);
                    let _ = CtrlMsg::decode(&sealed(frame));
                }
            }
        }
    }

    #[test]
    fn corruption_and_garbage_rejected() {
        let bytes = CtrlMsg::Start { job: 0, epoch: 7 }.encode().to_vec();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(CtrlMsg::decode(&bad).is_err(), "flip at {pos} accepted");
        }
        assert!(CtrlMsg::decode(b"junk").is_err());
        assert!(!CtrlMsg::is_ctrl(b"SM..")); // dataplane magic
    }

    #[test]
    fn dataplane_and_ctrl_are_distinguishable() {
        let data = switchml_core::packet::Packet::update(
            0,
            switchml_core::packet::PoolVersion::V0,
            0,
            0,
            vec![1, 2],
        )
        .encode();
        assert!(!CtrlMsg::is_ctrl(&data));
        let ctrl = CtrlMsg::Probe { job: 0, epoch: 0 }.encode();
        assert!(switchml_core::packet::Packet::decode(&ctrl).is_err());
    }

    #[test]
    fn bitmap_helpers() {
        let bm = chunk_bitmap(11, |c| c % 3 == 0);
        assert!(bitmap_contains(&bm, 0));
        assert!(bitmap_contains(&bm, 9));
        assert!(!bitmap_contains(&bm, 10));
        assert!(!bitmap_contains(&bm, 1000)); // past the end
        let mut acc = chunk_bitmap(11, |_| true);
        bitmap_and(&mut acc, &bm);
        assert_eq!(acc, bm);
    }
}
