//! Surface syntax for the DML fragment of ML used in
//! *Eliminating Array Bound Checking Through Dependent Types*
//! (Xi & Pfenning, PLDI 1998).
//!
//! This crate provides the lexer, recursive-descent parser, surface abstract
//! syntax tree, source spans, diagnostics and a pretty-printer for the
//! language of the paper: core ML (functions, datatypes, pattern matching,
//! tuples, `let`, `if`, `case`) extended with
//!
//! * `assert` declarations giving dependent signatures to primitives,
//! * `typeref` declarations refining datatypes by index sorts,
//! * `where f <| dtype` annotations on function declarations,
//! * dependent types with universal `{a:sort | prop} t` and existential
//!   `[a:sort | prop] t` quantifiers over a linear index language.
//!
//! # Example
//!
//! ```
//! use dml_syntax::parse_program;
//!
//! let src = r#"
//! fun double(x) = x + x
//! where double <| {n:int} int(n) -> int(n+n)
//! "#;
//! let program = parse_program(src).expect("parses");
//! assert_eq!(program.decls.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;

pub use ast::*;
pub use diag::{Diagnostic, ParseError, Severity};
pub use parser::{parse_dtype, parse_expr, parse_program};
pub use span::{line_col, LineCol, Span};
