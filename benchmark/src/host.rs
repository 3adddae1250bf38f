//! What the benchmark reads from the host: the fingerprint stored in
//! every result file, process CPU time, peak resident memory, and the
//! per-thread allocation counter behind `switch.allocs_per_pkt`.

use serde_json::{json, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Per-thread so the counter costs the program's threads no shared
    /// cache line; the traced pipeline is single-threaded and reads
    /// its own.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts heap allocations (and reallocations) of the calling thread.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the only addition is a bump of a thread-local
// `Cell<u64>`, which is const-initialised, has no destructor and never
// allocates, so it is safe to touch from inside the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_long, c_uint, c_void};

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    pub const SOL_UDP: c_int = 17;
    pub const UDP_SEGMENT: c_int = 103;
    pub const UDP_GRO: c_int = 104;

    extern "C" {
        pub fn clock_gettime(clk: c_int, ts: *mut Timespec) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            val: *const c_void,
            len: c_uint,
        ) -> c_int;
    }
}

/// User + system CPU time consumed by every thread of this process,
/// living or joined, in nanoseconds.
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> u64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, correctly laid out timespec the call
    // fills in; the clock id is a constant the kernel defines.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID must exist on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ns() -> u64 {
    0
}

/// Does the kernel accept `UDP_GRO` / `UDP_SEGMENT` on a loopback UDP
/// socket — the same test that decides whether `UdpPort` engages its
/// GRO receive and GSO send paths. `(gso, gro)`.
#[cfg(target_os = "linux")]
fn udp_offloads() -> (bool, bool) {
    use std::os::fd::AsRawFd;
    let Ok(sock) = std::net::UdpSocket::bind(("127.0.0.1", 0)) else {
        return (false, false);
    };
    use std::ffi::{c_int, c_uint, c_void};
    let accepts = |name: c_int, val: c_int| {
        // SAFETY: `val` is a live int and the length passed is its size;
        // the descriptor belongs to `sock`, which outlives the call.
        let rc = unsafe {
            sys::setsockopt(
                sock.as_raw_fd(),
                sys::SOL_UDP,
                name,
                &val as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as c_uint,
            )
        };
        rc == 0
    };
    (accepts(sys::UDP_SEGMENT, 1400), accepts(sys::UDP_GRO, 1))
}

#[cfg(not(target_os = "linux"))]
fn udp_offloads() -> (bool, bool) {
    (false, false)
}

/// Cumulative `steal` of `/proc/stat`'s first line: 10 ms ticks during
/// which the hypervisor ran something else on one of this VM's CPUs,
/// summed over CPUs. 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| t.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// A wall clock that also knows how much of the interval the
/// hypervisor took away.
pub struct Stopwatch {
    t0: Instant,
    steal0: u64,
}

/// An interval as the wall clock saw it, and the part of it the VM's
/// CPUs were running something else (summed over CPUs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elapsed {
    pub wall: Duration,
    pub steal: Duration,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            t0: Instant::now(),
            steal0: steal_ticks(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        Elapsed {
            wall: self.t0.elapsed(),
            steal: Duration::from_millis(10 * (steal_ticks() - self.steal0)),
        }
    }
}

impl Elapsed {
    /// Share of the interval the VM actually had its CPUs:
    /// 1 − steal ÷ (CPUs × wall), never below 0.05.
    pub fn unstolen_frac(&self) -> f64 {
        let cpus = nproc() as f64;
        let stolen = self.steal.as_secs_f64() / (cpus * self.wall.as_secs_f64().max(1e-9));
        (1.0 - stolen).clamp(0.05, 1.0)
    }

    /// The interval net of steal, in seconds: what the wall clock would
    /// have read had the hypervisor not run anything else meanwhile.
    pub fn net_s(&self) -> f64 {
        self.wall.as_secs_f64() * self.unstolen_frac()
    }
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set size (`VmHWM`) of this process in MiB; 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host fingerprint every result file carries, so two files from
/// different machines are never compared as if they were one.
pub fn fingerprint() -> Value {
    let (gso, gro) = udp_offloads();
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    json!({
        "nproc": nproc(),
        "cpu_model": proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        "simd_backend": switchml_core::simd::active_backend().name(),
        "udp_gso": gso,
        "udp_gro": gro,
        "transport": "UDP over the host's loopback interface",
        "git_rev": git_rev
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_time_takes_the_stolen_share_off() {
        let cpus = nproc() as f64;
        let quiet = Elapsed {
            wall: Duration::from_millis(200),
            steal: Duration::ZERO,
        };
        assert_eq!(quiet.unstolen_frac(), 1.0);
        assert_eq!(quiet.net_s(), 0.2);
        // Half of every CPU stolen: the interval counts half.
        let half = Elapsed {
            wall: Duration::from_millis(200),
            steal: Duration::from_secs_f64(0.1 * cpus),
        };
        assert!((half.unstolen_frac() - 0.5).abs() < 1e-9);
        assert!((half.net_s() - 0.1).abs() < 1e-9);
        // Tick rounding can report more steal than wall: clamped, never negative.
        let over = Elapsed {
            wall: Duration::from_millis(5),
            steal: Duration::from_secs(1),
        };
        assert_eq!(over.unstolen_frac(), 0.05);
    }

    #[test]
    fn counting_allocator_counts_allocations_of_this_thread() {
        let before = thread_allocs();
        let v: Vec<u64> = Vec::with_capacity(1024);
        std::hint::black_box(&v);
        assert_eq!(thread_allocs(), before + 1);
        // Another thread's allocations land on its own counter.
        std::thread::spawn(|| std::hint::black_box(vec![0u8; 4096]).len())
            .join()
            .unwrap();
        let after_spawn = thread_allocs();
        let w: Vec<u64> = Vec::with_capacity(8);
        std::hint::black_box(&w);
        assert_eq!(thread_allocs(), after_spawn + 1);
    }
}
