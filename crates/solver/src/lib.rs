//! The constraint solver of DML (§3.2 of the paper).
//!
//! Constraints generated by the elaborator are formulas
//! `φ ::= b | φ∧φ | b ⊃ φ | ∃a:γ.φ | ∀a:γ.φ` over linear integer
//! arithmetic. The solver
//!
//! 1. eliminates existential variables by equality substitution
//!    ([`goal::eliminate_existentials`]),
//! 2. splits the result into *goals* `∀ctx. hyps ⊃ concl`
//!    ([`goal::split_goals`]),
//! 3. for each goal, negates the conclusion and tests
//!    `hyps ∧ ¬concl` for integer unsatisfiability by Fourier–Motzkin
//!    variable elimination with the paper's integer tightening step
//!    ([`system::System::refute`]),
//! 4. lowers `div`, `mod`, `min`, `max`, `abs`, `sgn` to linear systems with
//!    fresh variables first ([`lower`]), and expands disjunctions by DNF
//!    ([`dnf`]), building each disjunct's system only when step 3 reaches
//!    it,
//! 5. searches a disjunct that step 3 cannot refute for an integer point in
//!    a small box ([`exhaustive`]); when the disjunct is exactly the goal's
//!    negation, a point found certifies [`Verdict::Refuted`].
//!
//! Every incompleteness fails *safe*: if the solver cannot refute the
//! negation it reports [`Verdict::Refuted`] or [`Verdict::Unknown`] and the
//! corresponding array access keeps its run-time check. Budgeted solving
//! ([`SolverOptions::with_fuel`], [`SolverOptions::with_deadline`]) makes
//! the pipeline total: out-of-budget goals come back
//! `Unknown(FuelExhausted)`/`Unknown(Deadline)` instead of running away.
//!
//! # Example
//!
//! ```
//! use dml_index::{Constraint, IExp, Prop, Sort, VarGen};
//! use dml_solver::{Solver, SolverOptions};
//!
//! let mut gen = VarGen::new();
//! let n = gen.fresh("n");
//! // forall n:int. 0 <= n ==> 0 + n = n
//! let c = Constraint::Forall(
//!     n.clone(),
//!     Sort::Int,
//!     Box::new(Constraint::Implies(
//!         Prop::le(IExp::lit(0), IExp::var(n.clone())),
//!         Box::new(Constraint::Prop(Prop::eq(
//!             IExp::lit(0) + IExp::var(n.clone()),
//!             IExp::var(n),
//!         ))),
//!     )),
//! );
//! let solver = Solver::new(SolverOptions::default());
//! let outcome = solver.prove(&c, &mut gen);
//! assert!(outcome.all_proven());
//! ```
//!
//! Verdicts are memoized in a thread-safe [`GoalCache`] keyed on the goal's
//! canonical form ([`canon`]), and independent constraints can be solved on
//! multiple workers via [`parallel::prove_all`].

#![deny(missing_docs)]

pub mod cache;
pub mod canon;
pub mod disk;
pub mod dnf;
pub mod exhaustive;
pub mod goal;
pub mod lower;
pub mod omega;
pub mod parallel;
pub mod pool;
pub mod stats;
pub mod system;

pub use cache::GoalCache;
pub use canon::{canonicalize, canonicalize_budgeted, BudgetClass, CanonGoal};
pub use disk::{stable_goal_hash, DiskEntry, DiskStore, SOLVER_LOGIC_VERSION};
pub use dml_index::{UnknownReason, Verdict};
pub use dml_obs::{GoalTrace, TraceEvent};
pub use goal::{Goal, Outcome, Solver, SolverOptions};
pub use omega::{omega_refutes, omega_sat, OmegaOptions, Tri};
pub use parallel::{effective_workers, prove_all};
pub use stats::{PhaseTimes, SolverStats};
pub use system::{FuelMeter, Ineq, RefuteResult, RefuteTrace, System};
