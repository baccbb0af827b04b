//! The index language of DML: sorts, integer/boolean index expressions,
//! linear forms, and the constraint formula language of
//! *Eliminating Array Bound Checking Through Dependent Types*
//! (Xi & Pfenning, PLDI 1998), §2.2 and §3.
//!
//! Index expressions here are *semantic*: variables are interned with unique
//! ids (so substitution is capture-free by construction), and the language
//! matches the paper's grammar
//!
//! ```text
//! i, j ::= a | i+j | i-j | i*j | div(i,j) | min(i,j) | max(i,j)
//!        | abs(i) | sgn(i) | mod(i,j)
//! b    ::= a | false | true | i < j | i <= j | i = j | i >= j | i > j
//!        | not b | b && b | b || b
//! φ    ::= b | φ ∧ φ | b ⊃ φ | ∃a:γ.φ | ∀a:γ.φ
//! ```
//!
//! # Example
//!
//! ```
//! use dml_index::{IExp, Prop, Cmp, VarGen};
//!
//! let mut gen = VarGen::new();
//! let n = gen.fresh("n");
//! // 0 + n = n
//! let p = Prop::cmp(Cmp::Eq, IExp::lit(0) + IExp::var(n.clone()), IExp::var(n));
//! assert!(matches!(p, Prop::Cmp(Cmp::Eq, _, _)));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod constraint;
pub mod iexp;
pub mod linear;
pub mod prop;
pub mod sort;
pub mod var;
pub mod verdict;

pub use constraint::Constraint;
pub use iexp::IExp;
pub use linear::{Linear, NonLinear};
pub use prop::{Cmp, Prop};
pub use sort::Sort;
pub use var::{Var, VarGen};
pub use verdict::{UnknownReason, Verdict};
