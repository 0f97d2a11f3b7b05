//! End-to-end and per-layer benchmark of the bpfstor simulator.
//!
//! Three workloads ([`workloads::Workload`]) each stress a different
//! part of the stack. An untraced run reports what a user of the
//! simulator sees: host speed, set-up time, memory, and the simulated
//! results. A traced run reports host time and simulated counts per
//! layer. `README.md` beside this crate maps each layer metric to the
//! end-to-end metric it should move.

pub mod bench;
pub mod quantile;
pub mod trace;
pub mod workloads;
