//! Closed-loop wire-path benchmark for the MiniDB stack.
//!
//! Two client connections drive a real [`mdb_server::MdbServer`] over
//! loopback TCP with the shipped [`mdb_server::MdbClient`], on five
//! workloads that each stress different layers. An untraced run reports
//! six end-to-end metrics; a traced run reports the per-layer metrics
//! that explain them. See `README.md` beside this crate.

pub mod driver;
pub mod gates;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod workload;
