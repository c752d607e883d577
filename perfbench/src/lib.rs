//! End-to-end and per-layer benchmark of the served hotspot detector.
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod check;
pub mod conn;
pub mod env;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod openloop;
pub mod stats;
pub mod workloads;
