//! The type system of DML: internal dependent types, erasure to ML types,
//! unification, and phase-1 Hindley–Milner inference.
//!
//! Elaboration is a two-phase process (§3 of the paper):
//!
//! 1. *Phase 1* (this crate, [`infer`]): "we ignore dependent type
//!    annotations and simply perform the type inference of ML". This makes
//!    the extension **conservative**: a program with no dependent annotation
//!    elaborates and evaluates exactly as in ML.
//! 2. *Phase 2* (`dml-elab`): a second bidirectional traversal collects
//!    index constraints from the dependent annotations.
//!
//! This crate provides:
//! * [`ty`] — the internal dependent type language (Π/Σ/families/products);
//! * [`ml`] + [`unify`] — erased ML types and unification;
//! * [`infer`] — Hindley–Milner inference with the value restriction;
//! * [`valenv`] — scoped value environments shared by both phases;
//! * [`convert`] — elaboration of surface [`dml_syntax`] types into
//!   internal types over the semantic index language of [`dml_index`];
//! * [`builtins`] — the dependent signatures of the refined standard basis
//!   (`+`, `sub`, `update`, `length`, `nth`, ...) from §2.1 and §3.1;
//! * [`env`](mod@env) — program environments: datatypes, typerefs, value
//!   signatures.

#![forbid(unsafe_code)]

pub mod builtins;
pub mod convert;
pub mod env;
pub mod infer;
pub mod ml;
pub mod ty;
pub mod unify;
pub mod valenv;

pub use env::{ConInfo, Env, TyperefInfo};
pub use infer::{infer_program, InferError, InferResult};
pub use ml::{MlScheme, MlTy};
pub use ty::{Binder, Ix, Scheme, Ty};
pub use valenv::ValEnv;
