//! An instrumented interpreter for elaborated DML programs.
//!
//! The paper's evaluation compiles each benchmark twice — once with the
//! standard, *checked* array/list primitives and once with the unchecked
//! primitives of `Unsafe.Array`, legal only because dependent type-checking
//! proved every eliminated access safe (§4). This crate reproduces that
//! setup on an interpreter:
//!
//! * [`Machine`] evaluates a parsed program with a [`CheckConfig`] that
//!   says, per call site (identified by the application's source span,
//!   matching `dml-elab`'s obligation sites), whether the bound/tag check
//!   was proven and may be skipped.
//! * Checked accesses execute the bounds comparison; eliminated accesses
//!   skip it. The interpreter exists for semantics and exact check counts,
//!   not for timing: the run-time half of the paper's Tables 2–3 is
//!   measured on emitted native code (`dml-emit`, the `native_tables`
//!   bench).
//! * [`Counters`] records exactly how many checks were executed and how
//!   many were eliminated, reproducing the "checks eliminated" columns.
//! * With [`CheckConfig::validate`] set, even "eliminated" accesses are
//!   verified and an out-of-bounds access aborts the run — the harness the
//!   property tests use to show that elimination never fires on an access
//!   that could fault.

pub mod counter;
pub mod error;
pub mod interp;
pub mod prims;
pub mod rng;
pub mod value;

pub use counter::Counters;
pub use error::EvalError;
pub use interp::{CheckConfig, Machine, Mode};
pub use rng::XorShift;
pub use value::Value;
