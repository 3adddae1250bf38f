//! UDP loopback transport: the protocol over real sockets.
//!
//! Each endpoint binds an ephemeral 127.0.0.1 socket; the fabric
//! builder exchanges addresses up front (the static rack wiring of the
//! paper's deployment). UDP gives exactly the delivery model SwitchML
//! assumes — unordered, unreliable datagrams — so the worker-driven
//! retransmission path is exercised for real whenever the kernel
//! drops under load.
//!
//! ## The burst fast path
//!
//! The paper's end host reaches line rate only by amortizing
//! per-packet I/O cost: DPDK workers pull *bursts* of packets per core
//! (§5.2). The kernel-socket analogue has two layers, both used by
//! [`UdpPort::send_batch`]/[`UdpPort::recv_batch`] on 64-bit Linux
//! (declared directly against the C ABI below; other targets fall back
//! to the [`Port`] trait's per-datagram loop):
//!
//! * **`sendmmsg`/`recvmmsg`** — one syscall moves a whole burst,
//!   amortizing syscall entry and the per-call `recvmmsg` setup;
//! * **UDP GSO/GRO** — on virtualized hosts syscall entry is cheap and
//!   the dominant cost is the per-datagram traversal of the network
//!   stack itself. A run of equal-size frames to one destination is
//!   handed to the kernel as a *single* `UDP_SEGMENT` super-datagram
//!   (one skb through the stack, split at delivery), and a receiver
//!   whose burst capacity is at least [`GRO_MIN_BURST`] opts into
//!   `UDP_GRO`, so a whole train arrives in one `recvmsg` and is split
//!   in userspace. Either side degrades independently: a GSO train
//!   sent to a non-GRO socket is segmented by the kernel at delivery,
//!   and a GRO socket receives plain datagrams as trains of one.
//!
//! ## Receives honour the time they are given
//!
//! Every receive is a non-blocking (`MSG_DONTWAIT`) attempt; what
//! differs is what happens when it finds nothing:
//!
//! * a `Duration::ZERO` timeout returns at once, on **every** entry
//!   point — it never sleeps;
//! * a real wait runs **spin, then `ppoll`**: while traffic is flowing
//!   ("hot") the port retries non-blockingly for a short spin budget,
//!   then parks in `ppoll(POLLIN)` with a nanosecond timeout and
//!   receives non-blockingly once the socket is readable. `ppoll` is
//!   timed by the kernel's high-resolution timer, so it wakes the
//!   instant a datagram lands or about [`SLEEP_OVERSHOOT_NS`] after the
//!   time asked for. A socket read timeout is counted in 4 ms jiffies
//!   on a `CONFIG_HZ=250` kernel and returned after 8 ms whatever was
//!   armed below 4 ms (EXPERIMENTS.md has the probe), so the port sets
//!   none.
//!
//! A datagram longer than the caller's frame is **dropped whole and
//! counted** in [`PortStats::send_errors`], never cut to a prefix:
//! frames are sized by the run's protocol, and a truncated prefix of a
//! longer datagram can be a frame that parses. Sender lookup is a
//! prebuilt `HashMap<SocketAddr, usize>` with a last-sender raw-bytes
//! cache in front of it.

use crate::port::{BurstBuf, Port, PortStats, SLEEP_OVERSHOOT_NS};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};
use switchml_core::packet::{HEADER_LEN, MAX_K};

/// Largest datagram the scalar receive path accepts (max-`k` packet +
/// headroom); a longer one is dropped and counted.
const MAX_DATAGRAM: usize = HEADER_LEN + 4 * MAX_K + 36;

/// Most frames one `sendmmsg`/`recvmmsg` call moves; larger bursts
/// are split. Bounds the per-call stack arrays.
pub const MAX_WIRE_BURST: usize = 64;

/// Non-blocking retries made while "hot" before parking in `ppoll`.
/// Loopback delivery is synchronous, so a small budget is enough to
/// catch a peer that is actively transmitting.
const SPIN_POLLS: u32 = 32;

/// A `recv_batch` whose burst capacity reaches this threshold opts the
/// socket into `UDP_GRO`: below it, train delivery would mostly spill
/// into the leftover stage instead of amortizing anything.
pub const GRO_MIN_BURST: usize = 8;

/// Same-destination, equal-size runs of at least this length are sent
/// as one `UDP_SEGMENT` super-datagram.
const GSO_MIN_RUN: usize = 2;

/// Segments per GSO super-datagram, capped below the kernel's
/// `UDP_MAX_SEGMENTS`.
const MAX_GSO_SEGS: usize = 64;

/// A UDP payload (and therefore a GSO train) cannot exceed this.
const MAX_UDP_PAYLOAD: usize = 65_507;

/// One UDP endpoint of a loopback fabric.
pub struct UdpPort {
    index: usize,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    /// O(1) sender lookup, built once by [`udp_fabric`].
    peer_index: HashMap<SocketAddr, usize>,
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    peer_sa: Vec<mmsg::sockaddr_in>,
    /// Last sender resolved on the batch receive path, as raw
    /// `(sin_addr, sin_port)` → endpoint index. Datagrams arrive in
    /// runs from one peer (workers only hear their shard; shard bursts
    /// come from one worker's `TxBatch` flush), so an 8-byte compare
    /// resolves almost every frame without touching the `SocketAddr`
    /// hash map.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    last_sender: Option<((u32, u16), usize)>,
    /// `UDP_SEGMENT` sends are attempted until the kernel rejects one.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    gso_ok: bool,
    /// Staging for `UDP_GRO` trains; allocated on first opt-in.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    gro: Option<Box<GroStage>>,
    /// The `UDP_GRO` setsockopt is attempted at most once.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    gro_tried: bool,
    buf: Box<[u8; MAX_DATAGRAM]>,
    /// Failed sends plus oversize datagrams dropped on receive.
    send_errors: u64,
    /// Adaptive receive mode: the last receive returned data, so the
    /// next wait spins before parking.
    hot: bool,
}

/// One received `UDP_GRO` train (or plain datagram), handed out
/// segment by segment. `seg` is the kernel-reported `gso_size`; the
/// last segment may be shorter.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
struct GroStage {
    buf: [u8; MAX_UDP_PAYLOAD + 29],
    len: usize,
    off: usize,
    seg: usize,
    /// Resolved sender of the whole train (one train = one datagram on
    /// the wire = one source); `None` means the train was filtered.
    from: Option<usize>,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl GroStage {
    fn new() -> Box<Self> {
        Box::new(GroStage {
            buf: [0; MAX_UDP_PAYLOAD + 29],
            len: 0,
            off: 0,
            seg: 1,
            from: None,
        })
    }
}

/// Build a fabric of `n` UDP endpoints on loopback.
pub fn udp_fabric(n: usize) -> io::Result<Vec<UdpPort>> {
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
        .collect::<io::Result<_>>()?;
    let peers: Vec<SocketAddr> = sockets
        .iter()
        .map(|s| s.local_addr())
        .collect::<io::Result<_>>()?;
    let peer_index: HashMap<SocketAddr, usize> = peers
        .iter()
        .enumerate()
        .map(|(i, &addr)| (addr, i))
        .collect();
    sockets
        .into_iter()
        .enumerate()
        .map(|(index, socket)| {
            // Without `MSG_DONTWAIT` and `ppoll` (declared for 64-bit
            // Linux only), every receive is non-blocking by socket mode.
            #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
            socket.set_nonblocking(true)?;
            Ok(UdpPort {
                index,
                socket,
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                peer_sa: peers.iter().map(mmsg::sockaddr_of).collect(),
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                last_sender: None,
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                gso_ok: true,
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                gro: None,
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                gro_tried: false,
                peers: peers.clone(),
                peer_index: peer_index.clone(),
                buf: Box::new([0u8; MAX_DATAGRAM]),
                send_errors: 0,
                hot: false,
            })
        })
        .collect()
}

impl UdpPort {
    fn lookup(&self, addr: &SocketAddr) -> Option<usize> {
        self.peer_index.get(addr).copied()
    }

    /// The one receive discipline of every entry point: `attempt` is a
    /// non-blocking receive that returns `Some` once it has delivered
    /// something. A zero `timeout` makes exactly one attempt. Otherwise
    /// a hot port retries [`SPIN_POLLS`] times, then the port parks in
    /// [`wait_readable`] and attempts again whenever the socket turns
    /// readable, until `timeout` has passed; a datagram the attempt
    /// drops (unknown sender, oversize) does not end the wait.
    fn until<T>(
        &mut self,
        timeout: Duration,
        mut attempt: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<T> {
        let got = attempt(self);
        if got.is_some() || timeout.is_zero() {
            self.hot = got.is_some();
            return got;
        }
        if self.hot {
            for _ in 0..SPIN_POLLS {
                std::hint::spin_loop();
                if let Some(got) = attempt(self) {
                    return Some(got);
                }
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !wait_readable(&self.socket, left) {
                self.hot = false;
                return None;
            }
            if let Some(got) = attempt(self) {
                self.hot = true;
                return Some(got);
            }
        }
    }

    /// One datagram into the scalar buffer: `(sender, length)`.
    fn recv_one(&mut self, timeout: Duration) -> Option<(usize, usize)> {
        // A port that has opted into GRO must keep receiving through
        // the train stage even on the scalar path, or a multi-segment
        // train would be truncated to one datagram.
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if self.gro.is_some() {
            return self.until(timeout, Self::take_staged_one);
        }
        self.until(timeout, Self::recv_scalar)
    }
}

/// Block until `socket` is readable or `timeout` has passed; false on
/// timeout. `ppoll` takes a nanosecond timeout and the kernel times it
/// with a high-resolution timer. An interrupted wait reports readable:
/// the caller's receive finds nothing and waits again for what is left.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_readable(socket: &UdpSocket, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    let mut fd = mmsg::pollfd {
        fd: socket.as_raw_fd(),
        events: mmsg::POLLIN,
        revents: 0,
    };
    let ts = mmsg::timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one live pollfd, a live timespec, no signal mask.
    unsafe { mmsg::ppoll(&mut fd, 1, &ts, std::ptr::null()) != 0 }
}

/// Portable fallback: the socket is non-blocking, so a wait is a
/// yield between attempts until the deadline.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_readable(_socket: &UdpSocket, _timeout: Duration) -> bool {
    std::thread::yield_now();
    true
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
impl UdpPort {
    /// One non-blocking `recv_from` into the scalar buffer (this
    /// fallback cannot see truncation).
    fn recv_scalar(&mut self) -> Option<(usize, usize)> {
        let (len, addr) = self.socket.recv_from(self.buf.as_mut_slice()).ok()?;
        Some((self.lookup(&addr)?, len))
    }
}

impl Port for UdpPort {
    fn n_endpoints(&self) -> usize {
        self.peers.len()
    }

    fn index(&self) -> usize {
        self.index
    }

    fn send(&mut self, to: usize, data: &[u8]) {
        // UDP send failures (ENOBUFS under load, EMSGSIZE for an
        // oversized datagram) are equivalent to loss; the protocol's
        // retransmission handles them. Count them so callers can tell
        // kernel drops from in-fabric loss.
        if self.socket.send_to(data, self.peers[to]).is_err() {
            self.send_errors += 1;
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        let (from, len) = self.recv_one(timeout)?;
        Some((from, self.buf[..len].to_vec()))
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> Option<usize> {
        // Straight from the socket's internal buffer into the caller's
        // scratch: no per-datagram allocation.
        let (from, len) = self.recv_one(timeout)?;
        buf.clear();
        buf.extend_from_slice(&self.buf[..len]);
        Some(from)
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn send_batch(&mut self, dests: &[usize], frames: &[Vec<u8>]) {
        debug_assert_eq!(dests.len(), frames.len());
        let mut off = 0;
        while off < dests.len() {
            let end = (off + MAX_WIRE_BURST).min(dests.len());
            self.send_chunk(dests, frames, off, end);
            off = end;
        }
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn recv_batch(&mut self, bufs: &mut BurstBuf, timeout: Duration) -> usize {
        bufs.clear();
        // A burst-capable caller opts the socket into GRO train
        // delivery (once); tiny bursts stay on the classic path, where
        // per-datagram delivery cannot overflow their frames.
        if !self.gro_tried && bufs.capacity() >= GRO_MIN_BURST {
            self.gro_tried = true;
            if mmsg::enable_gro(&self.socket) {
                self.gro = Some(GroStage::new());
            }
        }
        let attempt = if self.gro.is_some() {
            Self::fill_from_stage
        } else {
            Self::recvmmsg_into
        };
        self.until(timeout, |port| attempt(port, bufs)).unwrap_or(0)
    }

    fn stats(&self) -> PortStats {
        PortStats {
            send_errors: self.send_errors,
            ..PortStats::default()
        }
    }

    /// A timed receive parks in `ppoll`, which returns about
    /// [`SLEEP_OVERSHOOT_NS`] after the time asked for (probed: 1 /
    /// 10 / 100 / 500 µs return after 60 / 69 / 160 / 567 µs).
    fn timeout_granule(&self) -> Option<Duration> {
        Some(Duration::from_nanos(SLEEP_OVERSHOOT_NS))
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl UdpPort {
    /// Send `frames[off..end]` (at most [`MAX_WIRE_BURST`] frames):
    /// frames are grouped by destination into `UDP_SEGMENT`
    /// super-datagrams (equal sizes per train, one shorter tail
    /// allowed), and all resulting messages go to the kernel in one
    /// `sendmmsg`. A receiver that has not opted into GRO sees
    /// ordinary individual datagrams — the kernel segments the train
    /// at delivery.
    ///
    /// Grouping reorders frames *across* destinations (a multicast
    /// burst `w0,w1,w0,w1,…` becomes one train per worker), which UDP
    /// permits: the fabric makes no ordering promise, and the protocol
    /// is already correct under arbitrary datagram reordering.
    fn send_chunk(&mut self, dests: &[usize], frames: &[Vec<u8>], off: usize, end: usize) {
        use mmsg::*;
        use std::os::fd::AsRawFd;
        let n = end - off;
        debug_assert!(n <= MAX_WIRE_BURST);
        let mut iovs: [iovec; MAX_WIRE_BURST] = unsafe { std::mem::zeroed() };
        let mut iov_frame = [0usize; MAX_WIRE_BURST];
        let mut hdrs: [mmsghdr; MAX_WIRE_BURST] = unsafe { std::mem::zeroed() };
        let mut ctls: [cmsg_seg; MAX_WIRE_BURST] = unsafe { std::mem::zeroed() };
        // (first iov index, segment count) per message.
        let mut spans = [(0usize, 0usize); MAX_WIRE_BURST];
        let mut taken = 0u64; // frames already assigned to a message
        let mut iov_at = 0;
        let mut m = 0;
        for i in off..end {
            if taken & (1 << (i - off)) != 0 {
                continue;
            }
            let dest = dests[i];
            let seg = frames[i].len();
            let start = iov_at;
            let mut count = 0;
            let mut bytes = 0;
            for j in i..end {
                if taken & (1 << (j - off)) != 0 || dests[j] != dest {
                    continue;
                }
                let l = frames[j].len();
                // Train rules: equal-size segments, one shorter tail;
                // a train never outgrows the kernel's caps. A frame
                // that does not fit stays for a later message.
                if count > 0
                    && (l > seg
                        || l == 0
                        || seg == 0
                        || count >= MAX_GSO_SEGS
                        || bytes + l > MAX_UDP_PAYLOAD)
                {
                    break;
                }
                iovs[iov_at] = iovec {
                    // The kernel only reads through send iovecs.
                    iov_base: frames[j].as_ptr() as *mut core::ffi::c_void,
                    iov_len: l,
                };
                iov_frame[iov_at] = j;
                iov_at += 1;
                taken |= 1 << (j - off);
                count += 1;
                bytes += l;
                if !self.gso_ok || l < seg {
                    break; // singletons only, or a short tail closes the train
                }
            }
            let h = &mut hdrs[m].msg_hdr;
            h.msg_name = &self.peer_sa[dest] as *const sockaddr_in as *mut core::ffi::c_void;
            h.msg_namelen = std::mem::size_of::<sockaddr_in>() as u32;
            h.msg_iov = &mut iovs[start];
            h.msg_iovlen = count;
            if count >= GSO_MIN_RUN {
                ctls[m] = cmsg_seg::new(seg as u16);
                h.msg_control = &mut ctls[m] as *mut cmsg_seg as *mut core::ffi::c_void;
                h.msg_controllen = std::mem::size_of::<cmsg_seg>();
            }
            spans[m] = (start, count);
            m += 1;
        }
        let mut sent = 0;
        while sent < m {
            // SAFETY: hdrs/iovs/ctls outlive the call; every pointer
            // targets live storage of at least the stated length.
            let r = unsafe {
                sendmmsg(
                    self.socket.as_raw_fd(),
                    hdrs[sent..].as_mut_ptr(),
                    (m - sent) as u32,
                    0,
                )
            };
            if r > 0 {
                sent += r as usize;
                continue;
            }
            // The head message failed outright.
            let (start, count) = spans[sent];
            if count >= GSO_MIN_RUN {
                // The super-datagram was rejected — a kernel or path
                // without UDP_SEGMENT. Disable GSO for the life of the
                // port and resend this train's frames individually;
                // nothing is lost.
                self.gso_ok = false;
                for &f in &iov_frame[start..start + count] {
                    self.send(dests[f], &frames[f]);
                }
            } else {
                // A plain datagram failed (EMSGSIZE, ENOBUFS): count
                // it as lost and move past it.
                self.send_errors += 1;
            }
            sent += 1;
        }
    }

    /// One non-blocking `recvmmsg` into up to `bufs.capacity()` frames
    /// (clamped to [`MAX_WIRE_BURST`]); datagrams from outside the
    /// fabric and datagrams longer than their frame are dropped.
    /// Returns the frames committed, `None` if none were.
    fn recvmmsg_into(&mut self, bufs: &mut BurstBuf) -> Option<usize> {
        use mmsg::*;
        use std::os::fd::AsRawFd;
        let want = bufs.capacity().min(MAX_WIRE_BURST);
        let mut addrs = [sockaddr_in::default(); MAX_WIRE_BURST];
        let mut iovs: [iovec; MAX_WIRE_BURST] = unsafe { std::mem::zeroed() };
        let mut hdrs: [mmsghdr; MAX_WIRE_BURST] = unsafe { std::mem::zeroed() };
        {
            let frames = bufs.storage_mut();
            for i in 0..want {
                let f = &mut frames[i];
                iovs[i] = iovec {
                    iov_base: f.as_mut_ptr() as *mut core::ffi::c_void,
                    iov_len: f.capacity(),
                };
                hdrs[i].msg_hdr.msg_name =
                    &mut addrs[i] as *mut sockaddr_in as *mut core::ffi::c_void;
                hdrs[i].msg_hdr.msg_namelen = std::mem::size_of::<sockaddr_in>() as u32;
                hdrs[i].msg_hdr.msg_iov = &mut iovs[i];
                hdrs[i].msg_hdr.msg_iovlen = 1;
            }
        }
        // SAFETY: every msg_hdr points at live, exclusively-borrowed
        // storage (frame capacity as iov_len, so the kernel cannot
        // overrun); no timeout: the call never blocks.
        let r = unsafe {
            recvmmsg(
                self.socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                want as u32,
                MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if r <= 0 {
            return None;
        }
        for i in 0..r as usize {
            if hdrs[i].msg_hdr.msg_flags & MSG_TRUNC != 0 {
                self.send_errors += 1; // longer than its frame
                continue;
            }
            // SAFETY: the kernel wrote msg_len bytes into frame i's
            // storage, and iov_len (the frame's capacity) bounds it.
            unsafe { bufs.set_frame_len(i, (hdrs[i].msg_len as usize).min(iovs[i].iov_len)) };
            if let Some(from) = self.resolve_sender(&addrs[i]) {
                bufs.commit_at(i, from);
            }
        }
        (!bufs.is_empty()).then_some(bufs.len())
    }

    /// One non-blocking `recvmsg` into the scalar buffer: `(sender,
    /// length)`, `None` if nothing was queued or the datagram dropped.
    fn recv_scalar(&mut self) -> Option<(usize, usize)> {
        let mut sa = mmsg::sockaddr_in::default();
        let (r, flags) = mmsg::recv_msg(&self.socket, self.buf.as_mut_slice(), &mut sa, None);
        if r <= 0 {
            return None;
        }
        if flags & mmsg::MSG_TRUNC != 0 {
            self.send_errors += 1;
            return None;
        }
        Some((self.resolve_sender(&sa)?, r as usize))
    }

    /// Raw sockaddr → endpoint index: an 8-byte compare against the
    /// cached last sender on the hot path, falling back to the
    /// `SocketAddr` map (and refreshing the cache) on a run boundary.
    fn resolve_sender(&mut self, sa: &mmsg::sockaddr_in) -> Option<usize> {
        if sa.sin_family != mmsg::AF_INET {
            return None;
        }
        let key = (sa.sin_addr, sa.sin_port);
        if let Some((cached, from)) = self.last_sender {
            if cached == key {
                return Some(from);
            }
        }
        let from = mmsg::addr_of(sa).and_then(|a| self.lookup(&a))?;
        self.last_sender = Some((key, from));
        Some(from)
    }

    /// One non-blocking `recvmsg` into the GRO stage. Returns true when
    /// a message (a coalesced train or a single datagram) arrived; the
    /// train may still be filtered if its sender is outside the fabric.
    /// The stage holds the largest UDP payload, so nothing is truncated
    /// here; oversize segments are dropped as they leave the stage.
    fn fill_stage(&mut self) -> bool {
        let mut sa = mmsg::sockaddr_in::default();
        // SAFETY: plain integers and bytes; all-zero is a valid value,
        // and the zeroed header is how `gro_seg_size` sees "no cmsg".
        let mut ctl: mmsg::cmsg_space = unsafe { std::mem::zeroed() };
        let g = self.gro.as_mut().expect("gro stage exists once enabled");
        let (r, _) = mmsg::recv_msg(&self.socket, &mut g.buf, &mut sa, Some(&mut ctl));
        if r <= 0 {
            return false;
        }
        let from = self.resolve_sender(&sa);
        let g = self.gro.as_mut().expect("gro stage exists once enabled");
        g.len = r as usize;
        g.off = 0;
        // No UDP_GRO cmsg means an uncoalesced message: one segment.
        g.seg = mmsg::gro_seg_size(&ctl).unwrap_or(g.len).max(1);
        g.from = from;
        true
    }

    /// Move staged segments into `bufs` until either side runs out. A
    /// filtered train (unknown sender) is discarded whole — one train
    /// is one wire datagram, so it has exactly one source — and a
    /// segment longer than its frame is dropped and counted.
    fn drain_stage(&mut self, bufs: &mut BurstBuf) {
        let Some(g) = self.gro.as_mut() else { return };
        let Some(from) = g.from else {
            g.off = g.len;
            return;
        };
        while g.off < g.len && !bufs.is_full() {
            let take = g.seg.min(g.len - g.off);
            let slot = bufs.next_slot();
            if take <= slot.capacity() {
                slot.extend_from_slice(&g.buf[g.off..g.off + take]);
                bufs.commit_next(from);
            } else {
                self.send_errors += 1;
            }
            g.off += take;
        }
    }

    /// The burst attempt over the GRO stage: leftovers of a train
    /// larger than the previous burst first, then whatever the kernel
    /// has queued, without waiting.
    fn fill_from_stage(&mut self, bufs: &mut BurstBuf) -> Option<usize> {
        self.drain_stage(bufs);
        while !bufs.is_full() && self.fill_stage() {
            self.drain_stage(bufs);
        }
        (!bufs.is_empty()).then_some(bufs.len())
    }

    /// The scalar attempt for a port that has opted into GRO: the next
    /// staged segment, refilling the stage when it runs dry.
    fn take_staged_one(&mut self) -> Option<(usize, usize)> {
        loop {
            let g = self.gro.as_mut().expect("gro stage exists once enabled");
            if g.off < g.len {
                let take = g.seg.min(g.len - g.off);
                let start = g.off;
                g.off += take;
                match g.from {
                    Some(from) if take <= MAX_DATAGRAM => {
                        self.buf[..take].copy_from_slice(&g.buf[start..start + take]);
                        return Some((from, take));
                    }
                    Some(_) => self.send_errors += 1,
                    None => g.off = g.len, // filtered train
                }
            } else if !self.fill_stage() {
                return None;
            }
        }
    }
}

/// Minimal C-ABI declarations for `sendmmsg`/`recvmmsg`/`recvmsg` and
/// `ppoll` on 64-bit Linux (glibc/musl layout). The build environment
/// vendors no `libc` crate, so the handful of types these calls need
/// are declared here directly.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod mmsg {
    #![allow(non_camel_case_types)]
    use core::ffi::{c_int, c_uint, c_void};
    use std::net::{Ipv4Addr, SocketAddr};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct iovec {
        pub iov_base: *mut c_void,
        pub iov_len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct msghdr {
        pub msg_name: *mut c_void,
        pub msg_namelen: c_uint,
        pub msg_iov: *mut iovec,
        pub msg_iovlen: usize,
        pub msg_control: *mut c_void,
        pub msg_controllen: usize,
        pub msg_flags: c_int,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct mmsghdr {
        pub msg_hdr: msghdr,
        pub msg_len: c_uint,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct sockaddr_in {
        pub sin_family: u16,
        /// Network byte order.
        pub sin_port: u16,
        /// Network byte order.
        pub sin_addr: u32,
        pub sin_zero: [u8; 8],
    }

    pub const AF_INET: u16 = 2;
    pub const MSG_DONTWAIT: c_int = 0x40;
    /// Set in a received message's flags: the datagram was longer than
    /// the buffer and only a prefix was copied.
    pub const MSG_TRUNC: c_int = 0x20;
    pub const POLLIN: i16 = 0x1;
    pub const SOL_UDP: c_int = 17;
    /// setsockopt/cmsg: outgoing payload is split into datagrams of
    /// the given size (UDP GSO).
    pub const UDP_SEGMENT: c_int = 103;
    /// setsockopt: deliver coalesced trains with a gso_size cmsg
    /// (UDP GRO).
    pub const UDP_GRO: c_int = 104;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct cmsghdr {
        pub cmsg_len: usize,
        pub cmsg_level: c_int,
        pub cmsg_type: c_int,
    }

    /// Outgoing control message carrying the `UDP_SEGMENT` size —
    /// `CMSG_SPACE(sizeof(u16))`, 24 bytes on 64-bit.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub struct cmsg_seg {
        pub hdr: cmsghdr,
        pub gso_size: u16,
        _pad: [u8; 6],
    }

    impl cmsg_seg {
        pub fn new(gso_size: u16) -> Self {
            cmsg_seg {
                hdr: cmsghdr {
                    // CMSG_LEN(sizeof(u16))
                    cmsg_len: std::mem::size_of::<cmsghdr>() + 2,
                    cmsg_level: SOL_UDP,
                    cmsg_type: UDP_SEGMENT,
                },
                gso_size,
                _pad: [0; 6],
            }
        }
    }

    /// Incoming control buffer: room for the `UDP_GRO` gso_size cmsg
    /// (an `int`) with headroom.
    #[repr(C, align(8))]
    pub struct cmsg_space {
        pub hdr: cmsghdr,
        pub data: [u8; 40],
    }

    /// The kernel attaches a `UDP_GRO` cmsg (payload: `int` gso_size)
    /// to coalesced messages only; `ctl` must have been zeroed before
    /// the receive, so a message without one reads as none.
    pub fn gro_seg_size(ctl: &cmsg_space) -> Option<usize> {
        if ctl.hdr.cmsg_len < std::mem::size_of::<cmsghdr>() + 4
            || ctl.hdr.cmsg_level != SOL_UDP
            || ctl.hdr.cmsg_type != UDP_GRO
        {
            return None;
        }
        let seg = i32::from_ne_bytes(ctl.data[..4].try_into().unwrap());
        (seg > 0).then_some(seg as usize)
    }

    /// One non-blocking `recvmsg` of a single datagram into `buf`,
    /// sender into `sa`, control messages into `ctl` if given. Returns
    /// the kernel's result (bytes copied, ≤ 0 when nothing was queued)
    /// and the message flags (`MSG_TRUNC`: `buf` was too short).
    pub fn recv_msg(
        socket: &std::net::UdpSocket,
        buf: &mut [u8],
        sa: &mut sockaddr_in,
        ctl: Option<&mut cmsg_space>,
    ) -> (isize, c_int) {
        use std::os::fd::AsRawFd;
        let mut iov = iovec {
            iov_base: buf.as_mut_ptr() as *mut c_void,
            iov_len: buf.len(),
        };
        // SAFETY: an all-zero msghdr is a valid empty header.
        let mut msg: msghdr = unsafe { std::mem::zeroed() };
        msg.msg_name = sa as *mut sockaddr_in as *mut c_void;
        msg.msg_namelen = std::mem::size_of::<sockaddr_in>() as c_uint;
        msg.msg_iov = &mut iov;
        msg.msg_iovlen = 1;
        if let Some(ctl) = ctl {
            msg.msg_control = ctl as *mut cmsg_space as *mut c_void;
            msg.msg_controllen = std::mem::size_of::<cmsg_space>();
        }
        // SAFETY: every msg pointer targets live storage of the stated
        // length; the kernel writes within those bounds.
        let r = unsafe { recvmsg(socket.as_raw_fd(), &mut msg, MSG_DONTWAIT) };
        (r, msg.msg_flags)
    }

    #[repr(C)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// Opt a socket into GRO train delivery; false if the kernel
    /// refuses (pre-5.0).
    pub fn enable_gro(socket: &std::net::UdpSocket) -> bool {
        use std::os::fd::AsRawFd;
        let on: c_int = 1;
        // SAFETY: optval points at a live int of the stated length.
        let r = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                SOL_UDP,
                UDP_GRO,
                &on as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as c_uint,
            )
        };
        r == 0
    }

    extern "C" {
        pub fn sendmmsg(sockfd: c_int, msgvec: *mut mmsghdr, vlen: c_uint, flags: c_int) -> c_int;
        pub fn recvmmsg(
            sockfd: c_int,
            msgvec: *mut mmsghdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        fn recvmsg(sockfd: c_int, msg: *mut msghdr, flags: c_int) -> isize;
        pub fn ppoll(
            fds: *mut pollfd,
            nfds: core::ffi::c_ulong,
            timeout: *const timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn setsockopt(
            sockfd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: c_uint,
        ) -> c_int;
    }

    /// The fabric binds IPv4 loopback only, so V4 always matches.
    pub fn sockaddr_of(addr: &SocketAddr) -> sockaddr_in {
        match addr {
            SocketAddr::V4(v4) => sockaddr_in {
                sin_family: AF_INET,
                sin_port: v4.port().to_be(),
                // Octets are already network order; keep them in place.
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            },
            SocketAddr::V6(_) => unreachable!("udp_fabric binds IPv4 loopback only"),
        }
    }

    pub fn addr_of(sa: &sockaddr_in) -> Option<SocketAddr> {
        if sa.sin_family != AF_INET {
            return None;
        }
        Some(SocketAddr::from((
            Ipv4Addr::from(sa.sin_addr.to_ne_bytes()),
            u16::from_be(sa.sin_port),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrip() {
        let mut ports = udp_fabric(2).unwrap();
        let mut b = ports.pop().unwrap();
        let mut a = ports.pop().unwrap();
        a.send(1, b"ping");
        let (from, data) = b.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(from, 0);
        assert_eq!(data, b"ping");
        b.send(0, b"pong");
        let (from, data) = a.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(from, 1);
        assert_eq!(data, b"pong");
    }

    #[test]
    fn timeout_elapses() {
        let mut ports = udp_fabric(1).unwrap();
        assert!(ports[0].recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn unknown_sender_is_filtered() {
        let mut ports = udp_fabric(1).unwrap();
        let stranger = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let dest = ports[0].socket.local_addr().unwrap();
        stranger.send_to(b"spoof", dest).unwrap();
        // Message from an address outside the fabric is dropped.
        assert!(ports[0].recv_timeout(Duration::from_millis(50)).is_none());
    }

    #[test]
    fn unknown_sender_is_filtered_from_bursts() {
        let mut ports = udp_fabric(2).unwrap();
        let rx_addr = ports[0].socket.local_addr().unwrap();
        let stranger = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let mut tx = ports.pop().unwrap();
        let mut rx = ports.pop().unwrap();
        tx.send(0, b"one");
        stranger.send_to(b"spoof", rx_addr).unwrap();
        tx.send(0, b"two");
        let mut bufs = BurstBuf::new(8, 64);
        let mut seen = Vec::new();
        while seen.len() < 2 {
            rx.recv_batch(&mut bufs, Duration::from_millis(500));
            for (from, frame) in bufs.iter() {
                assert_eq!(from, 1);
                seen.push(frame.to_vec());
            }
            assert!(!bufs.is_empty(), "expected both fabric datagrams");
        }
        assert_eq!(seen, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    /// How long each receive entry point of an idle `port` took to
    /// return when asked to wait `timeout`, `tries` times over:
    /// `recv_batch` first (a burst of [`GRO_MIN_BURST`] opts the socket
    /// into GRO, so the scalar calls after it go through the train
    /// stage), then `recv_timeout` and `recv_into`.
    fn idle_waits<P: Port>(
        port: &mut P,
        burst: usize,
        timeout: Duration,
        tries: usize,
    ) -> [Vec<Duration>; 3] {
        let mut bufs = BurstBuf::new(burst, 64);
        let mut scratch = Vec::new();
        let timed = |f: &mut dyn FnMut() -> bool| {
            (0..tries)
                .map(|_| {
                    let t0 = Instant::now();
                    assert!(!f(), "an idle socket delivered something");
                    t0.elapsed()
                })
                .collect()
        };
        [
            timed(&mut || port.recv_batch(&mut bufs, timeout) > 0),
            timed(&mut || port.recv_timeout(timeout).is_some()),
            timed(&mut || port.recv_into(&mut scratch, timeout).is_some()),
        ]
    }

    /// The idle-wait timings of a classic (`burst` 4) and a GRO
    /// (`burst` 8) socket, bare, under loss-only `FaultyPort` and under
    /// `ScriptedPort`: every entry point of every stack.
    fn idle_waits_of_every_stack(timeout: Duration, tries: usize) -> Vec<Vec<Duration>> {
        use crate::faulty::{FaultyConfig, FaultyPort, ScriptedPort};
        let port = || udp_fabric(1).unwrap().pop().unwrap();
        let mut out = Vec::new();
        for burst in [4, GRO_MIN_BURST] {
            let lossy =
                &mut FaultyPort::new(port(), FaultyConfig::loss_only(0.5), 1, Default::default());
            let scripted = &mut ScriptedPort::new(port(), Duration::ZERO, None);
            out.extend(idle_waits(&mut port(), burst, timeout, tries));
            out.extend(idle_waits(lossy, burst, timeout, tries));
            out.extend(idle_waits(scripted, burst, timeout, tries));
        }
        out
    }

    /// `Duration::ZERO` is a poll on every entry point of every port
    /// stack: it never sleeps.
    #[test]
    fn zero_timeout_receives_never_sleep() {
        for took in idle_waits_of_every_stack(Duration::ZERO, 3) {
            let fastest = took.iter().min().unwrap();
            assert!(*fastest < Duration::from_millis(1), "{took:?}");
        }
    }

    /// A timed receive waits what it is given — not less, and not the
    /// 8 ms a socket read timeout takes on a 250 Hz kernel.
    #[test]
    fn timed_receives_wake_on_time() {
        let want = Duration::from_micros(300);
        for mut took in idle_waits_of_every_stack(want, 5) {
            assert!(took.iter().all(|&t| t >= want), "woke early: {took:?}");
            took.sort_unstable();
            assert!(took[2] <= Duration::from_millis(2), "woke late: {took:?}");
        }
    }

    /// A datagram longer than the frame it would land in is dropped
    /// whole and counted, never cut to a prefix that might parse, on
    /// every receive path — and the datagram behind it still arrives.
    #[test]
    fn oversize_datagrams_are_dropped_and_counted_never_truncated() {
        let ok = [1u8; 16];
        // Burst receives into 16-byte frames: classic `recvmmsg`, then
        // a GRO stage.
        for burst in [4, GRO_MIN_BURST] {
            let mut ports = udp_fabric(2).unwrap();
            let mut rx = ports.remove(0);
            let mut tx = ports.remove(0);
            tx.send(0, &[7u8; 20]);
            tx.send(0, &ok);
            let mut bufs = BurstBuf::new(burst, ok.len());
            assert_eq!(rx.recv_batch(&mut bufs, Duration::from_millis(500)), 1);
            assert_eq!(bufs.iter().next(), Some((1, &ok[..])), "burst {burst}");
            assert_eq!(rx.stats().send_errors, 1, "burst {burst}");
        }
        // Scalar receives: the classic socket, then one opted into GRO.
        for opt_in in [false, true] {
            let mut ports = udp_fabric(2).unwrap();
            let mut rx = ports.remove(0);
            let mut tx = ports.remove(0);
            if opt_in {
                rx.recv_batch(&mut BurstBuf::new(GRO_MIN_BURST, 64), Duration::ZERO);
                assert!(rx.gro.is_some());
            }
            tx.send(0, &vec![7u8; MAX_DATAGRAM + 1]);
            tx.send(0, &ok);
            let got = rx.recv_timeout(Duration::from_millis(500));
            assert_eq!(got, Some((1, ok.to_vec())), "gro {opt_in}");
            assert_eq!(rx.stats().send_errors, 1, "gro {opt_in}");
        }
    }

    #[test]
    fn send_errors_are_counted() {
        let mut ports = udp_fabric(2).unwrap();
        let mut a = ports.swap_remove(0);
        assert_eq!(a.stats().send_errors, 0);
        // 70 KB exceeds the UDP datagram limit: EMSGSIZE, counted as a
        // kernel-side drop.
        let oversized = vec![0u8; 70_000];
        a.send(1, &oversized);
        assert_eq!(a.stats().send_errors, 1);
        a.send_batch(&[1, 1], &[oversized.clone(), b"ok".to_vec()]);
        let stats = a.stats();
        assert_eq!(stats.send_errors, 2, "oversized frame in a batch counted");
    }

    #[test]
    fn batched_send_and_recv_roundtrip() {
        let mut ports = udp_fabric(3).unwrap();
        let mut rx = ports.remove(0);
        let mut tx1 = ports.remove(0);
        let mut tx2 = ports.remove(0);
        let frames: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 3]).collect();
        tx1.send_batch(&vec![0; 40], &frames);
        tx2.send_batch(&vec![0; 40], &frames);
        let mut bufs = BurstBuf::new(32, 64);
        let mut got = vec![0usize; 3];
        let mut total = 0;
        while total < 80 {
            let n = rx.recv_batch(&mut bufs, Duration::from_millis(500));
            assert!(n > 0, "lost datagrams on loopback ({total}/80)");
            for (from, frame) in bufs.iter() {
                assert_eq!(frame.len(), 3);
                assert_eq!(frame[0], frame[2]);
                got[from] += 1;
            }
            total += n;
        }
        assert_eq!(got, vec![0, 40, 40]);
        assert_eq!(rx.stats().send_errors, 0);
    }

    #[test]
    fn gso_train_reaches_classic_receiver_as_datagrams() {
        let mut ports = udp_fabric(2).unwrap();
        let mut rx = ports.remove(0);
        let mut tx = ports.remove(0);
        // Equal-size same-destination run: one UDP_SEGMENT
        // super-datagram on the wire. The receiver never opts into
        // GRO (scalar path), so the kernel must segment at delivery.
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i, i, i, i]).collect();
        tx.send_batch(&[0; 10], &frames);
        for i in 0..10u8 {
            let (from, data) = rx.recv_timeout(Duration::from_millis(500)).unwrap();
            assert_eq!(from, 1);
            assert_eq!(data, vec![i, i, i, i]);
        }
    }

    #[test]
    fn gro_trains_roundtrip_bit_exact() {
        let mut ports = udp_fabric(2).unwrap();
        let mut rx = ports.remove(0);
        let mut tx = ports.remove(0);
        let frames: Vec<Vec<u8>> = (0..48u8).map(|i| vec![i; 16]).collect();
        tx.send_batch(&vec![0; 48], &frames);
        // Burst capacity 16 (>= GRO_MIN_BURST) opts into train
        // delivery; a 48-segment train must survive being handed out
        // across several bursts.
        let mut bufs = BurstBuf::new(16, 64);
        let mut seen = Vec::new();
        while seen.len() < 48 {
            let n = rx.recv_batch(&mut bufs, Duration::from_millis(500));
            assert!(n > 0, "lost datagrams ({}/48)", seen.len());
            for (from, frame) in bufs.iter() {
                assert_eq!(from, 1);
                seen.push(frame.to_vec());
            }
        }
        assert_eq!(seen, frames, "segments must arrive intact and in order");
    }

    #[test]
    fn mixed_size_runs_are_split_correctly() {
        let mut ports = udp_fabric(2).unwrap();
        let mut rx = ports.remove(0);
        let mut tx = ports.remove(0);
        // Runs: [8,8,8,4] (shorter tail closes the train), then [9,9].
        let sizes = [8usize, 8, 8, 4, 9, 9];
        let frames: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| vec![i as u8; s])
            .collect();
        tx.send_batch(&vec![0; sizes.len()], &frames);
        for (i, &s) in sizes.iter().enumerate() {
            let (from, data) = rx.recv_timeout(Duration::from_millis(500)).unwrap();
            assert_eq!(from, 1);
            assert_eq!(data, vec![i as u8; s], "frame {i} must keep its size {s}");
        }
    }

    #[test]
    fn scalar_recv_still_works_after_gro_opt_in() {
        let mut ports = udp_fabric(2).unwrap();
        let mut rx = ports.remove(0);
        let mut tx = ports.remove(0);
        // Opt in via a burst-capable receive...
        tx.send_batch(&[0; 12], &(0..12u8).map(|i| vec![i; 8]).collect::<Vec<_>>());
        let mut bufs = BurstBuf::new(8, 64);
        let mut got = rx.recv_batch(&mut bufs, Duration::from_millis(500));
        assert!(got > 0);
        // ...then drain the rest through the scalar path: the staged
        // train must come out one datagram at a time.
        while got < 12 {
            let (from, data) = rx.recv_timeout(Duration::from_millis(500)).unwrap();
            assert_eq!(from, 1);
            assert_eq!(data, vec![got as u8; 8]);
            got += 1;
        }
    }

    #[test]
    fn interleaved_multicast_burst_is_grouped_per_destination() {
        // The switch's multicast flush alternates destinations
        // (w1,w2,w1,w2,…). send_batch groups those frames into one
        // train per destination; each receiver must still see its own
        // frames bit-exact and in per-destination order.
        let mut ports = udp_fabric(3).unwrap();
        let mut tx = ports.remove(0);
        let (mut dests, mut frames) = (Vec::new(), Vec::new());
        for i in 0..24u8 {
            for w in 1..=2u8 {
                dests.push(w as usize);
                frames.push(vec![w, i, w ^ i, 0xEE]);
            }
        }
        tx.send_batch(&dests, &frames);
        for (w, rx) in ports.iter_mut().enumerate() {
            let w = (w + 1) as u8;
            let mut bufs = BurstBuf::new(16, 64);
            let mut seen = Vec::new();
            while seen.len() < 24 {
                let n = rx.recv_batch(&mut bufs, Duration::from_millis(500));
                assert!(n > 0, "worker {w} lost datagrams ({}/24)", seen.len());
                for (from, frame) in bufs.iter() {
                    assert_eq!(from, 0);
                    seen.push(frame.to_vec());
                }
            }
            let want: Vec<Vec<u8>> = (0..24u8).map(|i| vec![w, i, w ^ i, 0xEE]).collect();
            assert_eq!(seen, want, "worker {w} stream must be intact and ordered");
        }
        assert_eq!(tx.stats().send_errors, 0);
    }

    #[test]
    fn burst_larger_than_wire_cap_is_split() {
        let mut ports = udp_fabric(2).unwrap();
        let mut rx = ports.remove(0);
        let mut tx = ports.remove(0);
        let count = MAX_WIRE_BURST * 2 + 7;
        let frames: Vec<Vec<u8>> = (0..count).map(|i| vec![(i % 251) as u8]).collect();
        tx.send_batch(&vec![0; count], &frames);
        let mut bufs = BurstBuf::new(16, 64);
        let mut total = 0;
        while total < count {
            let n = rx.recv_batch(&mut bufs, Duration::from_millis(500));
            assert!(n > 0, "lost datagrams on loopback ({total}/{count})");
            total += n;
        }
        assert_eq!(total, count);
    }
}
