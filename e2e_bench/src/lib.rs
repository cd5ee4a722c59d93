//! End-to-end campaign benchmark for DDT: the metric declarations and the
//! workloads, shared by the `e2e_bench` binary and its self-test.

pub mod metrics;
pub mod workloads;
