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
//! * [`wheel`] — the hashed [`TimerWheel`] of endpoint deadlines.
//!
//! The data plane is one executor and the endpoints it drives, and
//! every runner is a placement of endpoints on threads (see DESIGN.md,
//! "Data-plane core"):
//!
//! * [`endpoint`] — the [`endpoint::Endpoint`] trait every data-plane
//!   state machine implements, and the one executor: per OS thread a
//!   [`endpoint::Lane`], whose `step` is the loop body, written once;
//! * [`shard`] — the switch side: the one burst ingress
//!   ([`shard::switch_ingress`]: parse → `on_view` → stage responses),
//!   the switch shard endpoint over it, and the sharded endpoint layout;
//! * [`reactor`] — the worker side: the `SlotEngine` endpoint over its
//!   region of the caller's tensors, many per thread
//!   ([`run_allreduce_reactor`]);
//! * [`hier`] — §6's leaf/spine tree: the same engines under a rack
//!   fence, a switch shard as the spine, and the sans-IO leaf ([`Leaf`],
//!   which the simulator drives too) ([`run_allreduce_hier`]);
//! * [`runner`] — `RunConfig`/`RunReport`, RTO clamping, and
//!   [`run_allreduce`]: the engines one per thread, at one core per
//!   worker the plain star of one switch and `n` workers.
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
pub mod endpoint;
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
    HierReport, Leaf, SPINE_ENDPOINT,
};
pub use port::{worker_endpoint, BurstBuf, Port, PortStats, TxBatch, SWITCH_ENDPOINT};
pub use reactor::{run_allreduce_reactor, ReactorStats};
pub use runner::{resolve_run_proto, run_allreduce, RunConfig, RunReport};
pub use shard::{sharded_channel_fabric, sharded_fabric_size, switch_ingress, ShardEndpoint};
pub use wheel::TimerWheel;
