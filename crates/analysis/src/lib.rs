//! Solver-backed semantic lints over elaborated DML programs.
//!
//! The type checker answers one question: *is every obligation provable?*
//! The lints here ask the dual questions — is an `if` condition **forced**
//! by the index hypotheses in scope (dead branch)? Is a refinement conjunct
//! **implied** by the others (redundant)? Is a `where` precondition
//! **unsatisfiable** (uncallable function)? — by re-playing the
//! elaborator's per-site contexts ([`dml_elab::SiteContext`]) through the
//! solver's entailment entry point ([`dml_solver::Solver::entails`]).
//! Two further lints are syntactic: unused index binders and index
//! expressions outside the linear fragment of §3.2.
//!
//! Every lint is **sound against the solver's conservativity**: a semantic
//! lint fires only on a `Valid` entailment verdict, so solver
//! incompleteness can only *suppress* findings, never fabricate them.
//!
//! | code   | name                   | backed by  |
//! |--------|------------------------|------------|
//! | DML001 | dead-branch            | entailment |
//! | DML002 | redundant-refinement   | entailment |
//! | DML003 | unused-index-variable  | syntax     |
//! | DML004 | nonlinear-index        | syntax     |
//! | DML005 | unprovable-annotation  | entailment |
//! | DML006 | residual-bound-check   | pipeline verdicts |
//! | DML007 | inferable-annotation   | interval inference + solver |
//!
//! DML007 closes the loop with `dmlc infer`: when the pipeline's interval
//! abstract interpreter synthesizes an annotation the solver verifies, the
//! lint reports it as a machine-applicable fix ([`Fix`], rendered as a
//! SARIF `fixes` object) on the unannotated function.

#![forbid(unsafe_code)]

pub mod lints;
pub mod render;
pub mod walk;

use dml_syntax::{Diagnostic, Severity, Span};

pub use lints::run_lints;

/// A registered lint: stable code, human name, and one-line summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lint {
    /// Stable machine-readable code (`DML001`...).
    pub code: &'static str,
    /// Kebab-case name.
    pub name: &'static str,
    /// One-line description, used in SARIF rule metadata.
    pub summary: &'static str,
    /// Severity findings of this lint carry by default.
    pub default_severity: Severity,
}

/// The lint registry, in code order.
pub const LINTS: &[Lint] = &[
    Lint {
        code: "DML001",
        name: "dead-branch",
        summary: "branch condition is forced true or false by the index hypotheses in scope",
        default_severity: Severity::Warning,
    },
    Lint {
        code: "DML002",
        name: "redundant-refinement",
        summary: "refinement conjunct is entailed by the remaining conjuncts and sort guards",
        default_severity: Severity::Warning,
    },
    Lint {
        code: "DML003",
        name: "unused-index-variable",
        summary: "quantified index variable is never mentioned in the type it scopes over",
        default_severity: Severity::Warning,
    },
    Lint {
        code: "DML004",
        name: "nonlinear-index",
        summary: "index expression falls outside the linear fragment the solver decides",
        default_severity: Severity::Warning,
    },
    Lint {
        code: "DML005",
        name: "unprovable-annotation",
        summary: "annotation guard is unsatisfiable — the function can never be called",
        default_severity: Severity::Warning,
    },
    Lint {
        code: "DML006",
        name: "residual-bound-check",
        summary: "bound/tag check could not be proven and stays in the compiled program",
        default_severity: Severity::Warning,
    },
    Lint {
        code: "DML007",
        name: "inferable-annotation",
        summary: "a solver-verified `where`-annotation is inferable for this unannotated \
                  function and would eliminate residual bound checks",
        default_severity: Severity::Note,
    },
];

/// Looks up a lint by its code (`DML001`) or name (`dead-branch`).
pub fn lint_by_code(code: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.code.eq_ignore_ascii_case(code) || l.name == code)
}

/// A machine-applicable fix: insert `text` at byte offset `insert_at`.
/// Carried by DML007 findings and rendered as a SARIF `fixes` object, so
/// code-scanning UIs can offer the annotation one click away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    /// One-line description of what applying the fix does.
    pub description: String,
    /// Byte offset in the source at which `text` is inserted.
    pub insert_at: u32,
    /// The exact text to insert (starts with a newline for `where`-clauses).
    pub text: String,
}

/// One solver-verified inferred annotation, handed to the DML007 lint by
/// the pipeline — which owns running inference, so linting a fully
/// annotated (or residual-free) program costs nothing extra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferSuggestion {
    /// Function the annotation refines.
    pub fun: String,
    /// Pretty-printed annotation type.
    pub rendered: String,
    /// Full fix-it text (`\nwhere f <| ...`).
    pub fixit: String,
    /// Byte offset where the fix-it is inserted.
    pub insert_at: u32,
    /// Span of the function's name identifier (the finding anchor).
    pub name_span: Span,
}

/// One lint finding, anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint's stable code.
    pub code: &'static str,
    /// The lint's kebab-case name.
    pub name: &'static str,
    /// Severity (the lint's default unless promoted by `--deny`).
    pub severity: Severity,
    /// The main message.
    pub message: String,
    /// Anchor span.
    pub span: Span,
    /// Supporting notes (hypotheses used, suggested rewrite, ...).
    pub notes: Vec<String>,
    /// Machine-applicable fix, when the lint can synthesize one.
    pub fix: Option<Fix>,
}

impl Finding {
    /// Renders the finding as a [`Diagnostic`] carrying its lint code.
    pub fn diagnostic(&self) -> Diagnostic {
        let mut d = match self.severity {
            Severity::Error => Diagnostic::error(self.message.clone(), self.span),
            Severity::Warning => Diagnostic::warning(self.message.clone(), self.span),
            Severity::Note => Diagnostic::note(self.message.clone(), self.span),
        }
        .with_code(self.code);
        for n in &self.notes {
            d = d.with_note(n.clone());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_wellformed() {
        assert!(LINTS.len() >= 5);
        for (k, l) in LINTS.iter().enumerate() {
            assert_eq!(l.code, format!("DML{:03}", k + 1), "codes are dense and ordered");
            assert!(l.name.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn lookup_by_code_or_name() {
        assert_eq!(lint_by_code("DML001").unwrap().name, "dead-branch");
        assert_eq!(lint_by_code("dml003").unwrap().name, "unused-index-variable");
        assert_eq!(lint_by_code("nonlinear-index").unwrap().code, "DML004");
        assert!(lint_by_code("DML999").is_none());
    }

    #[test]
    fn finding_renders_with_code() {
        let f = Finding {
            code: "DML001",
            name: "dead-branch",
            severity: Severity::Warning,
            message: "always true".into(),
            span: Span::new(0, 4),
            notes: vec!["note".into()],
            fix: None,
        };
        let r = f.diagnostic().render("cond");
        assert!(r.starts_with("warning[DML001]: always true"), "{r}");
        assert!(r.contains("note"), "{r}");
    }
}
