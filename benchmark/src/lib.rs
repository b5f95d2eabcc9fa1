//! The repository benchmark of the ShiDianNao reproduction.
//!
//! Five workloads, from the paper's §10.2 VGA frame to mixed multi-tenant
//! serving, each driven only through the reproduction's public API and
//! measured from outside: end-to-end metrics on an untraced run, per-layer
//! metrics (from spans the benchmark records around each call into a
//! layer) on a traced one. See `README.md` beside this crate.

pub mod compare;
pub mod json;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workloads;
