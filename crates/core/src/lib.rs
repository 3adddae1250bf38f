//! # switchml-core
//!
//! A from-scratch implementation of the **SwitchML** in-network
//! aggregation protocol ("Scaling Distributed Machine Learning with
//! In-Network Aggregation", NSDI 2021): the switch-side and worker-side
//! state machines, the wire format, quantized integer aggregation, and
//! pool-size tuning.
//!
//! ## Architecture
//!
//! Everything protocol-shaped is **sans-IO**: state machines consume
//! received frames (validated [`packet::PacketView`]s) and timer
//! expirations, and encode what to send into the caller's frames. The
//! same code, through the same ingress, is driven three ways in this
//! workspace:
//!
//! * [`agg::run_inprocess`] — a virtual-clock harness with adversarial
//!   loss injection (correctness testing, and the simplest API);
//! * `switchml-netsim` — a timing-accurate discrete-event simulator
//!   (the evaluation substrate replacing the paper's testbed);
//! * `switchml-transport` — real threads over channels or UDP sockets.
//!
//! ## Module map
//!
//! | Paper section | Module |
//! |---|---|
//! | §3.3 Algorithm 1 (switch, lossless) | [`switch::basic`] |
//! | §3.5 Algorithm 3 (switch, loss recovery) | [`switch::reliable`] |
//! | §3.4 Algorithm 2 / §3.5 Algorithm 4 (worker) | [`worker::engine`] |
//! | Appendix B stream buffer manager | [`worker::stream`] |
//! | §3.6 pool sizing | [`config::tune_pool_size`] |
//! | §3.7 / Appendix C quantization | [`quant`] |
//! | Appendix B switch resource envelope | [`switch::pipeline`] |
//! | §6 multi-rack hierarchy | [`switch::hierarchy`] |
//! | Packet format & checksum | [`packet`], [`checksum`] |
//!
//! ## Quick start
//!
//! ```
//! use switchml_core::agg::allreduce;
//! use switchml_core::config::Protocol;
//!
//! // Two workers, each contributing one gradient tensor.
//! let updates = vec![
//!     vec![vec![1.0_f32, 2.0, 3.0]],
//!     vec![vec![10.0_f32, 20.0, 30.0]],
//! ];
//! let proto = Protocol { n_workers: 2, ..Protocol::default() };
//! let aggregated = allreduce(&updates, &proto).unwrap();
//! assert!((aggregated[0][0] - 11.0).abs() < 1e-3);
//! ```

pub mod agg;
pub mod bitmap;
pub mod checksum;
pub mod config;
pub mod error;
pub mod oracle;
pub mod packet;
pub mod quant;
pub mod simd;
pub mod switch;
pub mod worker;

pub use config::{tune_pool_size, NumericMode, Protocol};
pub use error::{Error, Result};
pub use packet::{Packet, PacketKind, Payload, PoolVersion, DEFAULT_K, MTU_K};

/// Convenient glob-import of the common types.
pub mod prelude {
    pub use crate::agg::{allreduce, allreduce_mean, run_inprocess, HarnessConfig, Hop};
    pub use crate::config::{tune_pool_size, NumericMode, Protocol, TimeNs};
    pub use crate::error::{Error, Result};
    pub use crate::packet::{Packet, PacketKind, PacketView, Payload, PoolVersion, WorkerId};
    pub use crate::switch::basic::BasicSwitch;
    pub use crate::switch::pipeline::PipelineModel;
    pub use crate::switch::reliable::ReliableSwitch;
    pub use crate::switch::{SwitchStats, WireAction};
    pub use crate::worker::stream::TensorStream;
    pub use crate::worker::Worker;
}
