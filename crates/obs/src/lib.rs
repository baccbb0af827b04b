//! Structured observability for the dml-rs pipeline.
//!
//! This crate is deliberately dependency-free: events carry plain strings
//! and integers so that every layer of the pipeline — elaboration, the
//! solver, residual lowering — can emit them without pulling the index
//! language into scope.
//!
//! Three pieces:
//!
//! - [`TraceEvent`] / [`GoalTrace`]: typed per-goal event buffers. The
//!   solver fills one when it explains a goal: after the compile, with no
//!   cache, for the goals `dmlc explain` or `--trace-out` prints, so a
//!   story depends on the goal alone.
//! - [`ChromeTrace`]: a writer for the Chrome trace-event format
//!   (loadable in `chrome://tracing` / Perfetto), used by
//!   `dmlc check --trace-out`.
//! - [`Json`]: the workspace's one JSON value, renderer and parser, used
//!   by traces, bench reports, `--json` CLI output and the `dmlc serve`
//!   protocol.
//!
//! The stable JSON schema for `--trace-out` files is documented in
//! `docs/ARCHITECTURE.md` ("Trace-event schema"); [`SCHEMA_VERSION`] is
//! bumped whenever that contract changes.

#![deny(missing_docs)]

pub mod chrome;
pub mod event;
pub mod json;

pub use chrome::ChromeTrace;
pub use event::{GoalTrace, TraceEvent};
pub use json::Json;

/// Version of the `--trace-out` JSON contract documented in
/// `docs/ARCHITECTURE.md`. Bumped on any breaking schema change.
pub const SCHEMA_VERSION: u32 = 2;
