//! End-to-end `fit` benchmark with a per-layer time account; see README.md.
//!
//! `layers` is the only module that calls into the workspace crates.

pub mod contract;
pub mod e2e;
pub mod layers;
pub mod report;
pub mod spans;
pub mod study;
pub mod traced;
pub mod workloads;
