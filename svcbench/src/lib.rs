//! A service benchmark for the rUID XML server: three XMark traffic mixes
//! driven over a real socket, per-class medians, and an outside-in trace
//! of the layers each class goes through.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod calib;
pub mod client;
pub mod corpus;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod traced;
