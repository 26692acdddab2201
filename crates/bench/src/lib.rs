//! Experiment harness regenerating every table and figure of the STeP
//! paper's evaluation.
//!
//! Each `fig*` binary is a thin wrapper over a function in
//! [`experiments`] that returns structured rows; rows are printed as
//! aligned tables and written as CSV under `results/`.
//!
//! Sweeps execute on the [`service`] layer: a [`SweepService`] worker
//! pool over a single-flight [`PlanCache`] keyed by (builder
//! fingerprint, config fingerprint minus `threads`), bit-identical to
//! the serial loops it replaced at any worker count. Those serial
//! loops live on as the differential baselines in
//! `tests/service_conformance.rs`.

pub mod experiments;
pub mod fault;
pub mod pareto;
pub mod roofline;
pub mod service;
pub mod table;

pub use fault::{FaultKind, FaultPlan};
pub use service::{
    CacheStats, PlanCache, PlanKey, PointResult, ResultStream, SimPoint, SweepService, SweepUnit,
    UnitError, UnitFailure, UnitReport,
};
