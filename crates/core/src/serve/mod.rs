//! The persistent check service behind `dmlc serve`.
//!
//! One [`Session`] wraps one reusable [`crate::Compiler`] handle and
//! serves many requests, so the canonical goal cache warms up once and
//! stays warm. The service speaks a
//! versioned, line-delimited JSON protocol ([`protocol`], documented in
//! `docs/PROTOCOL.md`) over stdio ([`server::serve_stdio`]) or a Unix
//! socket ([`server::serve_unix`]). Per-file state (the private
//! `incremental` module) answers re-checks: a byte-identical re-check of
//! a path replays its last report with no generation or solving, and a
//! re-check of an edited file re-solves only the declarations that
//! changed.
//!
//! Determinism contract: verdict output is byte-identical between one-shot
//! `dmlc check` and the daemon path — both render through
//! [`crate::report::check_report`], and the only run-dependent report
//! lines are the timing/cache lines stripped by
//! [`crate::report::stable_body`].

mod incremental;
pub mod protocol;
pub mod server;
pub mod session;

/// The old name of the protocol's parsed value, now [`dml_obs::json::Json`].
/// Kept only because the `perfbench` benchmark crate still imports
/// `dml::serve::Value`; new code should use `Json`.
pub use dml_obs::json::Json as Value;
pub use protocol::{ErrorCode, Request, SCHEMA_VERSION};
#[cfg(unix)]
pub use server::serve_unix;
pub use server::{serve_connection, serve_stdio};
pub use session::{CheckOutcome, Session, SessionStats};
