//! The seeded end-to-end benchmark of the DML checker.
//!
//! Five workloads drive the repository's crates through their public
//! APIs: `batch`, `megafile`, `goals`, `edit_session` and `native` (see
//! `README.md` for why each was chosen). An untraced run prints the
//! end-to-end metrics `BENCHMARK.json` lists; a traced run repeats the
//! workload with spans around every call into a layer and prints the
//! per-layer metrics. Every run checks the program's outputs against an
//! independent reference.
//!
//! The library holds what the `e2e` bench binary and the tests share:
//! order statistics ([`stats`]), the span recorder ([`spans`]), the metric
//! printer ([`report`]), the `BENCHMARK.json` reader ([`spec`]), the
//! seeded inputs ([`inputs`]), the workloads and the `compare` mode.

pub mod compare;
pub mod inputs;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
