//! Declarative scenario DSL and chaos lab.
//!
//! One vocabulary — topology, workload, fault plan, expectations —
//! compiled down to every transport (netsim, channel, UDP) and every
//! runner (plain, sharded, reactor, ctrl, sched) the workspace has.
//! A [`Scenario`] is a plain value: build it with [`Scenario::build`],
//! serialize it to a `.scenario` JSON file, hand it to
//! [`run_scenario`], and check the [`ScenarioReport`] it produces.
//!
//! The standing regression suite lives in [`library`]: named, curated
//! scenarios (loss storms, stragglers, kills mid-chunk, switch
//! failover, multi-tenant churn) that CI replays against every
//! transport each scenario supports.

mod json;
pub mod library;
mod run;
mod spec;

pub use run::{run_scenario, Detail, Observed, ScenarioReport};
pub use spec::{
    Expect, FaultPlan, JobClass, JobSpec, KillWhen, RtoMode, RunnerKind, Scenario, ScenarioBuilder,
    Topology, Transport,
};
