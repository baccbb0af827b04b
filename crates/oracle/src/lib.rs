//! Differential solver oracle and property-based fuzz harness.
//!
//! The production solver ([`dml_solver`]) decides goals
//! `∀ctx. hyps ⊃ concl` with integer Fourier–Motzkin elimination plus the
//! paper's tightening step, budgets, a canonical verdict cache, and
//! parallel workers — lots of machinery, all of which must agree. This
//! crate cross-checks it against two *independent* reference deciders that
//! share no code with `crates/solver`:
//!
//! * [`enumerate`] — a brute-force model enumerator over a small integer
//!   box. A model of `hyps ∧ ¬concl` is a concrete countermodel: the goal
//!   is definitely invalid, whatever the solver says.
//! * [`fm`] — an exact-rational, fuel-free, single-threaded
//!   Fourier–Motzkin eliminator. Rational unsatisfiability of the
//!   negation implies integer unsatisfiability: the goal is definitely
//!   valid.
//!
//! [`oracle::decide`] combines the two into a three-valued verdict whose
//! `Unknown` is exactly the integer-tightening gap (rationally
//! satisfiable, no small integer model — e.g. `2x = 1`).
//!
//! [`gen`] generates seeded random goals inside the fragment where the
//! oracle is decisive, [`harness::run_fuzz`] runs the differential loop
//! (solver configuration matrix, metamorphic variants, 1-vs-4-worker
//! batches, end-to-end [`program`] cases), [`minimize()`](minimize()) shrinks diverging
//! goals, and [`repro`] serializes them as replayable repro files. The
//! `dmlc fuzz` subcommand and the `tests/` property suites are thin
//! drivers over [`harness`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod enumerate;
pub mod fm;
pub mod gen;
pub mod harness;
pub mod minimize;
pub mod oracle;
pub mod program;
pub mod rat;
pub mod repro;
pub mod rng;
pub mod scale;

pub use gen::{gen_goal, GenConfig};
pub use harness::{run_fuzz, Divergence, DivergenceKind, FuzzConfig, FuzzReport};
pub use minimize::minimize;
pub use oracle::{decide, OracleVerdict, DEFAULT_BOUND};
pub use repro::{parse_goal, write_goal, ReproCase};
pub use rng::OracleRng;
pub use scale::{
    gen_scale_corpus, minimize_scale_case, verify_scale_case, ExpectedCounts, ScaleCase,
    ScaleConfig, ScaleCorpus, ScaleUnit,
};
