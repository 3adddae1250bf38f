//! # switchml-transport
//!
//! Real (threaded) transports for the SwitchML protocol — the same
//! sans-IO state machines `switchml-netsim` simulates, driven by OS
//! threads with wall-clock retransmission timers:
//!
//! * [`port`] — the [`Port`] abstraction: per-datagram and burst I/O
//!   ([`BurstBuf`] / [`TxBatch`], `RunConfig::burst`), idle backoff;
//! * [`channel`] — in-memory crossbeam-channel fabric (fast, hermetic);
//! * [`udp`] — UDP sockets on loopback (real datagrams, real kernel),
//!   with a batched `sendmmsg`/`recvmmsg` + GSO/GRO fast path and
//!   `ppoll` waits on Linux (a zero timeout never sleeps);
//! * [`faulty`] — deterministic fault injection for either: seeded
//!   loss, duplication, bounded reordering and recv-side drop
//!   ([`faulty::FaultyPort`]), plus scripted stragglers and kills
//!   ([`faulty::ScriptedPort`]) — the layers `switchml-scenario` builds
//!   every faulty fabric from;
//! * [`wheel`] — the hashed [`TimerWheel`] that drives RTOs.
//!
//! The data plane is one core in two halves, and every runner is a
//! configuration of it (see DESIGN.md, "Data-plane core"):
//!
//! * [`shard`] — the switch side: the one burst ingress
//!   ([`shard::switch_ingress`]: parse → `on_view` → stage responses)
//!   and the switch-shard loop over it, plus the sharded endpoint
//!   layout and [`run_allreduce_sharded`] (one engine per thread);
//! * [`reactor`] — the worker side: the one `SlotEngine` driver, a
//!   run-to-completion event loop multiplexing many engines per OS
//!   thread ([`run_allreduce_reactor`]);
//! * [`hier`] — §6's leaf/spine tree: the same engines under a rack
//!   fence, the same switch loop as the spine, and the leaf loop
//!   ([`run_allreduce_hier`]);
//! * [`runner`] — `RunConfig`/`RunReport`, RTO clamping, the one
//!   ingress for loops that drive a whole `Worker`
//!   ([`runner::worker_ingress`]: parse → `Worker::on_view` → stage the
//!   follow-up; `switchml-ctrl`'s tenant workers use it too), and the
//!   all-numeric-modes, multi-round runner over it ([`run_allreduce`],
//!   [`run_allreduce_session`]).
//!
//! ```no_run
//! use switchml_transport::{channel::channel_fabric, runner::{run_allreduce, RunConfig}};
//! use switchml_core::config::Protocol;
//!
//! let proto = Protocol { n_workers: 2, ..Protocol::default() };
//! let ports = channel_fabric(3); // switch + 2 workers
//! let updates = vec![vec![vec![1.0_f32; 64]], vec![vec![2.0_f32; 64]]];
//! let report = run_allreduce(ports, updates, &proto, &RunConfig::default()).unwrap();
//! assert!((report.results[0][0][0] - 3.0).abs() < 1e-3);
//! ```

pub mod channel;
pub mod faulty;
pub mod hier;
pub mod port;
pub mod reactor;
pub mod runner;
pub mod shard;
pub mod udp;
pub mod wheel;

pub use hier::{
    hier_fabric_size, hier_worker_endpoint, leaf_endpoint, run_allreduce_hier, HierConfig,
    HierReport, SPINE_ENDPOINT,
};
pub use port::{worker_endpoint, BurstBuf, Port, PortStats, TxBatch, SWITCH_ENDPOINT};
pub use reactor::{run_allreduce_reactor, ReactorStats};
pub use runner::{
    resolve_run_proto, run_allreduce, run_allreduce_session, RunConfig, RunReport, SessionReport,
};
pub use shard::{
    run_allreduce_sharded, sharded_channel_fabric, sharded_fabric_size, switch_ingress,
};
pub use wheel::TimerWheel;
