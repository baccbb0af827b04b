//! Workspace-level integration-test and example package for **dml-rs**, a
//! reproduction of *Eliminating Array Bound Checking Through Dependent
//! Types* (Xi & Pfenning, PLDI 1998).
//!
//! The real library lives in the `dml` facade crate and its constituent
//! crates (`dml-syntax`, `dml-index`, `dml-solver`, `dml-types`,
//! `dml-elab`, `dml-eval`, `dml-programs`). This package hosts:
//!
//! * `examples/` — runnable binaries demonstrating the public API;
//! * `tests/` — integration and property tests spanning all crates.

#![forbid(unsafe_code)]

pub mod qc;

pub use dml;
pub use dml_elab;
pub use dml_eval;
pub use dml_index;
pub use dml_oracle;
pub use dml_programs;
pub use dml_solver;
pub use dml_syntax;
pub use dml_types;
