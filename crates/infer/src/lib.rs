//! `dml-infer` — interval abstract interpretation that synthesizes and
//! solver-verifies range refinements for DML programs.
//!
//! The paper's workflow asks the programmer to write `where`-clauses; in
//! practice most of them follow mechanically from the code. This crate
//! closes the loop:
//!
//! 1. [`absint`] runs a flow-sensitive interval analysis over each
//!    top-level function: parameters become symbols, branch conditions
//!    narrow occurrence-style, and recursive local functions iterate to a
//!    fixpoint with threshold widening.
//! 2. [`synth`] turns the fixpoint entry states into candidate
//!    annotations — facts-only singleton types for the outer function,
//!    guarded quantifiers for the locals.
//! 3. [`verify`] applies the candidates to a clone of the AST and re-runs
//!    the production elaborate + solve pipeline: a candidate group
//!    survives only when the refined program still type-checks and
//!    strictly fewer bound checks remain than in the compile inference
//!    started from.
//!
//! The abstract domain is deliberately *untrusted*: a bug here can cost
//! coverage (a rejected candidate), never soundness, because every
//! refinement that reaches the user was proved by the same solver that
//! gates check elimination. Sites the domain cannot handle — the
//! nonlinear `i*j` index in `examples/residual.dml`, preconditions the
//! callee cannot know — are left untouched and reported honestly.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod absint;
pub mod interval;
pub mod lin;
pub mod synth;
pub mod verify;

use dml_elab::Obligation;
use dml_index::Verdict;
use dml_obs::json::{obj, Json};
use dml_solver::Solver;
use dml_syntax::ast::{self as sast};
use dml_syntax::Span;
use dml_types::env::Env;
use dml_types::InferError;
use std::collections::BTreeMap;

pub use absint::{analyze_decl, DeclAnalysis, Namer};
pub use synth::{synthesize, Candidate, DeclCandidates};
pub use verify::{apply_candidates, check_program, strip_annotations, MiniCheck};

/// One accepted, solver-verified annotation.
#[derive(Debug, Clone)]
pub struct AcceptedAnno {
    /// Function name.
    pub fun: String,
    /// The annotation type, pretty-printed.
    pub rendered: String,
    /// Full fix-it text (`where f <| …`, preceded by a newline).
    pub fixit: String,
    /// Byte offset where the fix-it inserts.
    pub insert_at: u32,
    /// Span of the function's name identifier.
    pub name_span: Span,
}

/// A candidate the verifier rejected, with the reason.
#[derive(Debug, Clone)]
pub struct RejectedAnno {
    /// Function name.
    pub fun: String,
    /// The candidate annotation, pretty-printed.
    pub rendered: String,
    /// Why it was dropped.
    pub reason: String,
}

/// The outcome of inference over a whole program.
#[derive(Debug)]
pub struct InferReport {
    /// Residual check sites before inference.
    pub before: usize,
    /// Residual check sites after applying the accepted annotations.
    pub after: usize,
    /// Accepted (solver-verified) annotations, in program order.
    pub accepted: Vec<AcceptedAnno>,
    /// Rejected candidates with reasons.
    pub rejected: Vec<RejectedAnno>,
    /// Residual sites remaining after inference, with a human description
    /// of why each check stays (e.g. a nonlinear index).
    pub residual_sites: Vec<(Span, String)>,
    /// Top-level declarations whose fixpoint hit the round budget.
    pub nonconverged: Vec<String>,
}

/// [`InferReport`] plus the refined AST it describes.
#[derive(Debug)]
pub struct InferOutcome {
    /// The report.
    pub report: InferReport,
    /// The program with accepted annotations attached (spans unchanged).
    pub refined: sast::Program,
}

/// Runs the full propose–verify loop on a compiled program: `env` is its
/// environment and `solved` its obligations with their verdicts, which
/// are the baseline every candidate group must improve on.
///
/// Returns an error only when `program` fails phase 1, which a program
/// that elaborated to `solved` does not. Solver failures on candidates
/// are not errors; they turn into rejections.
pub fn infer_refinements(
    program: &sast::Program,
    env: &Env,
    solved: &[(Obligation, Verdict)],
    solver: &Solver,
) -> Result<InferOutcome, InferError> {
    // Phase-1 schemes for every function (top-level and local).
    let phase1 = dml_types::infer_program(program, env)?;
    let schemes: BTreeMap<Span, dml_types::MlScheme> =
        phase1.schemes.iter().map(|(s, sc)| (*s, sc.clone())).collect();

    let baseline = MiniCheck::from_results(solved);
    let before = baseline.residual_sites.len();

    // Propose per top-level declaration.
    let mut namer = Namer::new(program);
    let mut groups: Vec<DeclCandidates> = Vec::new();
    for d in &program.decls {
        let sast::Decl::Fun(group) = d else { continue };
        if group.len() != 1 {
            continue;
        }
        if let Some(analysis) = analyze_decl(&group[0], &schemes, &mut namer) {
            let cands = synthesize(&analysis, &mut namer);
            if !cands.candidates.is_empty() || !cands.converged {
                groups.push(cands);
            }
        }
    }

    // Verify greedily, one declaration group at a time.
    let mut working = program.clone();
    let mut working_residuals = baseline.residual_sites;
    let mut working_detail = baseline.residual_detail;
    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    let mut nonconverged = Vec::new();
    for group in groups {
        if !group.converged {
            nonconverged.push(group.decl_name.clone());
        }
        let mut live = group.candidates;
        let mut dropped: Vec<RejectedAnno> = Vec::new();
        let verified = loop {
            if live.is_empty() {
                break None;
            }
            let mut trial = working.clone();
            apply_candidates(&mut trial, &live);
            match check_program(&trial, solver) {
                Err(e) => {
                    // Elaboration rejected the annotations outright
                    // (e.g. ill-scoped index variable). Drop the group.
                    for c in live.drain(..) {
                        dropped.push(RejectedAnno {
                            fun: c.fun_name,
                            rendered: c.rendered,
                            reason: format!("refined program failed to elaborate: {e}"),
                        });
                    }
                }
                Ok(check) if !check.non_check_ok => {
                    // Drop candidates for the failing functions and retry
                    // with the rest. If none of the failing functions has
                    // a candidate the group as a whole is unprovable.
                    let mut any = false;
                    live.retain(|c| {
                        let failing = check.failing_funs.contains(&c.fun_name);
                        if failing {
                            any = true;
                            dropped.push(RejectedAnno {
                                fun: c.fun_name.clone(),
                                rendered: c.rendered.clone(),
                                reason: format!(
                                    "solver could not verify the refinement (non-check \
                                     obligation failed in `{}`)",
                                    c.fun_name
                                ),
                            });
                        }
                        !failing
                    });
                    if !any {
                        for c in live.drain(..) {
                            dropped.push(RejectedAnno {
                                fun: c.fun_name,
                                rendered: c.rendered,
                                reason: "solver could not verify the refined program".to_string(),
                            });
                        }
                    }
                }
                Ok(check) => {
                    let subset = check.residual_sites.is_subset(&working_residuals);
                    let fewer = check.residual_sites.len() < working_residuals.len();
                    if subset && fewer {
                        break Some(check);
                    }
                    let reason = if subset {
                        "verified but did not eliminate any residual bound check"
                    } else {
                        "would regress a previously proven bound check"
                    };
                    for c in live.drain(..) {
                        dropped.push(RejectedAnno {
                            fun: c.fun_name,
                            rendered: c.rendered,
                            reason: reason.to_string(),
                        });
                    }
                }
            }
        };
        if let Some(check) = verified {
            apply_candidates(&mut working, &live);
            working_residuals = check.residual_sites;
            working_detail = check.residual_detail;
            for c in &live {
                accepted.push(AcceptedAnno {
                    fun: c.fun_name.clone(),
                    rendered: c.rendered.clone(),
                    fixit: c.fixit_text(),
                    insert_at: c.insert_at,
                    name_span: c.name_span,
                });
            }
        }
        rejected.extend(dropped);
    }

    let residual_sites: Vec<(Span, String)> = working_residuals
        .iter()
        .map(|s| {
            let d = working_detail.get(s).cloned().unwrap_or_default();
            (*s, d)
        })
        .collect();
    let report = InferReport {
        before,
        after: working_residuals.len(),
        accepted,
        rejected,
        residual_sites,
        nonconverged,
    };
    Ok(InferOutcome { report, refined: working })
}

impl InferReport {
    /// Human-readable rendering, with `line:col` positions resolved
    /// against `src`.
    pub fn render_human(&self, src: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "inference: {} residual check{} before, {} after",
            self.before,
            if self.before == 1 { "" } else { "s" },
            self.after
        );
        if self.accepted.is_empty() {
            let _ = writeln!(out, "no annotations inferred");
        }
        for a in &self.accepted {
            let _ = writeln!(out, "inferred  where {} <| {}", a.fun, a.rendered);
        }
        for r in &self.rejected {
            let _ = writeln!(out, "rejected  {} <| {}", r.fun, r.rendered);
            let _ = writeln!(out, "          ({})", r.reason);
        }
        for (span, why) in &self.residual_sites {
            let _ =
                writeln!(out, "residual  at {}: {}", dml_syntax::line_col(src, span.start), why);
        }
        for n in &self.nonconverged {
            let _ = writeln!(out, "note      fixpoint for `{n}` hit the round budget");
        }
        out
    }

    /// Machine-readable JSON rendering (stable key order).
    pub fn render_json(&self, src: &str) -> String {
        obj([
            ("before", Json::Int(self.before as i64)),
            ("after", Json::Int(self.after as i64)),
            (
                "accepted",
                Json::Array(
                    self.accepted
                        .iter()
                        .map(|a| {
                            obj([
                                ("fun", Json::Str(a.fun.clone())),
                                ("anno", Json::Str(a.rendered.clone())),
                                ("insert_at", Json::Int(i64::from(a.insert_at))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "rejected",
                Json::Array(
                    self.rejected
                        .iter()
                        .map(|r| {
                            obj([
                                ("fun", Json::Str(r.fun.clone())),
                                ("anno", Json::Str(r.rendered.clone())),
                                ("reason", Json::Str(r.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "residuals",
                Json::Array(
                    self.residual_sites
                        .iter()
                        .map(|(span, why)| {
                            obj([
                                (
                                    "at",
                                    Json::Str(dml_syntax::line_col(src, span.start).to_string()),
                                ),
                                ("why", Json::Str(why.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "nonconverged",
                Json::Array(self.nonconverged.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compiles `src` and runs inference over the solved result.
    fn infer(src: &str) -> InferReport {
        let program = dml_syntax::parse_program(src).unwrap();
        let solver = Solver::new(dml_solver::SolverOptions::default());
        let (env, solved) = verify::solve(&program, &solver).unwrap();
        infer_refinements(&program, &env, &solved, &solver).unwrap().report
    }

    const ASUM_BARE: &str = r#"
fun asum v =
  let
    fun loop (i, n, s) =
      if i = n then s
      else loop (i + 1, n, s + sub(v, i))
  in
    loop (0, length v, 0)
  end
"#;

    #[test]
    fn infers_loop_invariant_for_asum() {
        let report = infer(ASUM_BARE);
        assert!(report.before > 0, "bare asum must start with residuals");
        assert_eq!(
            report.after,
            0,
            "asum should reach zero residuals; report:\n{}",
            report.render_human(ASUM_BARE)
        );
        assert!(report.accepted.iter().any(|a| a.fun == "loop"));
    }

    #[test]
    fn strip_roundtrip_reparses() {
        let src = "fun f(v) = sub(v, 0)\nwhere f <| {n:nat | n > 0} int array(n) -> int\n";
        let stripped = strip_annotations(src).unwrap();
        assert!(!stripped.contains("where"), "{stripped}");
        dml_syntax::parse_program(&stripped).unwrap();
    }

    #[test]
    fn report_json_is_wellformed() {
        let json = infer(ASUM_BARE).render_json(ASUM_BARE);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"accepted\""));
    }
}
