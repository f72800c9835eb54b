//! The SRing benchmark: one command, named workloads, every
//! end-to-end metric with its unit, and a traced mode that times each
//! layer of the stack from outside through its public functions.
//!
//! This library holds the pure parts — workload definitions, the seeded
//! request-stream generator, statistics, the metric catalogue and the
//! committed reference outputs — so they can be unit-tested without
//! running a workload. The `perfbench` binary does the timing.
//! See `perfbench/README.md` for the workloads and metric definitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod reference;
pub mod stats;
pub mod stream;
pub mod workload;
