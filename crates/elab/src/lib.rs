//! Phase 2: bidirectional dependent elaboration and constraint generation
//! (§3.1 of the paper).
//!
//! After phase-1 ML inference succeeds, the program is traversed a second
//! time. Dependent annotations switch the elaborator into *checking* mode;
//! unannotated code *synthesises* types whose indices are interpreted
//! existentially (§2.3). Every place where an index fact must hold produces
//! an [`Obligation`]: a fully-closed constraint
//! `∀ctx. ∃evars. (hypotheses ⊃ conclusion)` tagged with its source span
//! and kind.
//!
//! The obligations whose kind is an array-bound or list-tag guard are the
//! paper's eliminable checks: if the solver proves all of a call site's
//! guard obligations (and the program as a whole type-checks), that `sub`/
//! `update`/`nth` call compiles to the unchecked primitive. [`eliminate`]
//! makes that decision for a whole compile.
//!
//! Key mechanisms, mirroring §3.1:
//!
//! * **Application** instantiates Π-bound index variables with fresh
//!   *existential* variables; checking the argument produces defining
//!   equations (pushed as hypotheses *and* emitted as obligations), after
//!   which the instantiated guard is emitted as an obligation.
//! * **Clause checking** instantiates the function's Π variables
//!   existentially and lets patterns generate hypothesis equations
//!   (`M = 0` for `nil`, `N = n` for a variable pattern), exactly
//!   reproducing the constraint shapes of §3.1.
//! * **Pattern matching** introduces universal variables for the
//!   constructor's index binder with its guard as a hypothesis, giving the
//!   `b ⊃ φ` constraints the paper needs for match arms.
//! * **Singleton booleans** refine `if`: a condition of type `bool(p)`
//!   adds `p` (resp. `¬p`) to the hypotheses of the branches.

#![forbid(unsafe_code)]

pub mod elab;
pub mod elimination;
pub mod obligation;
pub mod report;
pub mod site;

pub use elab::{elaborate, ElabError, ElabOutput, Elaborator};
pub use elimination::{eliminate, residual_checks, Elimination, ResidualCheck, SiteVerdict};
pub use obligation::{ObKind, Obligation};
pub use report::{explain, sequent_view, SequentView};
pub use site::{SiteContext, SiteRole};
