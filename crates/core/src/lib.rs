//! `dml` — a Rust reproduction of *Eliminating Array Bound Checking
//! Through Dependent Types* (Xi & Pfenning, PLDI 1998).
//!
//! The crate ties the pipeline together:
//!
//! ```text
//! source ─parse→ AST ─phase 1 (ML inference)→ ─phase 2 (dependent
//! elaboration)→ obligations ─solve (Fourier–Motzkin + tightening)→
//! proven sites ─compile→ interpreter with checks eliminated
//! ```
//!
//! # Quick start
//!
//! ```
//! use dml::{Compiler, Mode};
//! use dml_eval::Value;
//!
//! let src = r#"
//! fun first(v) = sub(v, 0)
//! where first <| {n:nat | n > 0} int array(n) -> int
//! "#;
//! let compiled = Compiler::new().compile(src).expect("pipeline runs");
//! assert!(compiled.fully_verified());
//! assert_eq!(compiled.proven_sites().len(), 1);
//!
//! let mut machine = compiled.machine(Mode::Eliminated);
//! let v = Value::int_array([7, 8, 9]);
//! let r = machine.call("first", vec![v]).expect("runs");
//! assert_eq!(r.as_int(), Some(7));
//! assert_eq!(machine.counters.array_checks_eliminated, 1);
//! ```
//!
//! The [`Compiler`] builder also exposes solver budgets for graceful
//! degradation — `fuel`, `deadline` — and a `strict` switch that turns
//! unproven obligations into errors; see [`pipeline::Compiler`].
//!
//! The [`experiments`] module regenerates every table and figure of the
//! paper's §4 evaluation; see `EXPERIMENTS.md` at the repository root for
//! the comparison against the published numbers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod experiments;
pub mod pipeline;
pub mod report;
pub mod serve;
pub mod table;
pub mod trace;

pub use batch::{check_batch, BatchEntry, BatchFileResult, BatchOutcome, BatchSummary};
pub use dml_analysis::{lint_by_code, render, Finding, Fix, InferSuggestion, Lint, LINTS};
pub use dml_elab::{residual_checks, ObKind, Obligation, ResidualCheck};
pub use dml_eval::{CheckConfig, Counters, Machine, Mode, Value};
pub use dml_index::{UnknownReason, Verdict};
pub use dml_infer::{infer_refinements, strip_annotations, InferOutcome, InferReport};
pub use dml_solver::{available_parallelism, Solver, SolverOptions};
pub use dml_syntax::Severity;
pub use pipeline::clear_gen_memo;
pub use pipeline::{CompileStats, Compiled, Compiler, PipelineError};
pub use report::{check_report, stable_body, CheckReport};
pub use serve::{CheckOutcome, Session};
pub use trace::{chrome_trace, render_explain};
