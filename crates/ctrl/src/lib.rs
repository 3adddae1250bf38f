//! # switchml-ctrl — control plane for the SwitchML reproduction
//!
//! The paper's dataplane (switch pools, pool-slot streaming, shadow
//! copies) assumes a fixed worker set per job. This crate adds the
//! piece a deployment needs around that: a controller that owns
//! **job lifecycle** (registration, scaling-factor negotiation,
//! SRAM-budgeted admission, teardown), **failure detection**
//! (heartbeats → probes with exponential backoff → deterministic
//! death declaration), **live reconfiguration** (quiesce, shrink
//! n → n−1 with Theorem-2 rescaling, resume from the aggregated
//! frontier), and **switch failover** (drain every job on a failing
//! switch and re-admit it on a standby with no lost slot state).
//!
//! Layers:
//!
//! - [`msg`] — the control wire format ([`msg::CtrlMsg`]), CRC-guarded
//!   and distinguishable from dataplane packets by magic.
//! - [`controller`] — the controller's sans-IO state machine
//!   ([`controller::Controller`]): feed messages and ticks, execute
//!   the returned [`controller::Action`]s. It holds every `AdmitJob`
//!   until the switch acknowledges it.
//! - [`tenant`] — the other two ends of the protocol, sans-IO: the
//!   [`tenant::TenantWorker`] and the [`tenant::TenantSwitch`]. Frames
//!   in, frames staged into a `TxBatch` out.
//! - [`netsim`] — one driver: controller/worker/switch nodes for the
//!   discrete-event simulator, plus [`netsim::run_ctrl`] scenarios
//!   (deterministic worker-kill and switch-failover runs).
//! - [`runner`] — the other driver: the same machines over real
//!   [`switchml_transport`] ports and threads.
//! - [`sched`] — the multi-tenant slot scheduler on top of all of it:
//!   fair sharing, priority classes with preemption, live slot
//!   repartition, and per-tenant isolation accounting for a churning
//!   job population.

pub mod controller;
pub mod msg;
pub mod netsim;
pub mod runner;
pub mod sched;
pub mod tenant;

pub mod prelude {
    pub use crate::controller::{Action, Controller, CtrlConfig, Phase};
    pub use crate::msg::{bitmap_and, bitmap_contains, chunk_bitmap, CtrlMsg, PeerId};
    pub use crate::netsim::{run_ctrl, CtrlOutcome, CtrlScenario};
    pub use crate::runner::{run_controlled, CtrlRunConfig, CtrlRunReport};
    pub use crate::sched::{
        run_scheduled, sched_fabric_size, slot_capacity, Class, JobOutcome, SchedJob,
        SchedRunConfig, SchedRunReport, Scheduler, TenantSpec,
    };
}
