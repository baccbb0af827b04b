//! Solver verification of synthesized candidates: inference proposes,
//! the solver disposes.
//!
//! A candidate group (one top-level declaration's outer annotation plus
//! its local refinements) is applied to a *clone* of the program AST and
//! pushed through the same phase-1 → elaborate → solve pipeline the
//! compiler uses. The group is kept only when
//!
//! 1. every non-check obligation of the refined program proves (the
//!    program still dependently type-checks),
//! 2. the residual check sites are a subset of the unrefined program's
//!    residual sites (no regression anywhere, including other decls), and
//! 3. at least one residual check was eliminated (strict progress).
//!
//! On a non-check failure the candidates for the failing functions are
//! dropped and the remainder retried, so one over-eager local refinement
//! cannot sink the whole group. Annotations are attached to the AST
//! in-place (the `anno` field), never by re-parsing patched source, so
//! every expression span — and therefore every check site — stays
//! identical to the original program.

use crate::synth::Candidate;
use dml_elab::Obligation;
use dml_index::VarGen;
use dml_solver::{prove_all, Solver, Verdict};
use dml_syntax::ast::{self as sast};
use dml_syntax::Span;
use dml_types::builtins::program_env;
use dml_types::infer_program;
use std::collections::{BTreeMap, BTreeSet};

/// Result of pushing one (possibly refined) program through the
/// verification pipeline.
#[derive(Debug, PartialEq, Eq)]
pub struct MiniCheck {
    /// Whether every non-check obligation proved.
    pub non_check_ok: bool,
    /// Check sites whose obligations did not all prove. When
    /// `non_check_ok` is false every check site is residual (the
    /// compiler's fail-safe: nothing is eliminated).
    pub residual_sites: BTreeSet<Span>,
    /// Human description per residual site (obligation kind + verdict).
    pub residual_detail: BTreeMap<Span, String>,
    /// Functions owning failing non-check obligations.
    pub failing_funs: BTreeSet<String>,
}

/// Runs phase 1 + elaboration + solving on `program`, then reads the
/// result through the compiler's own check-elimination decision
/// ([`MiniCheck::from_results`]).
pub fn check_program(program: &sast::Program, solver: &Solver) -> Result<MiniCheck, String> {
    let mut gen = VarGen::new();
    let env = program_env(program, &mut gen).map_err(|e| e.message)?;
    let phase1 = infer_program(program, &env).map_err(|e| e.message)?;
    let out = dml_elab::elaborate(program, &env, &phase1, gen).map_err(|e| e.message)?;
    let mut gen = out.gen;
    let outcomes = {
        let constraints: Vec<_> = out.obligations.iter().map(|ob| &ob.constraint).collect();
        prove_all(solver, &constraints, &mut gen)
    };
    let results: Vec<(Obligation, Verdict)> =
        out.obligations.into_iter().zip(outcomes.iter().map(|o| o.verdict())).collect();
    Ok(MiniCheck::from_results(&results))
}

impl MiniCheck {
    /// Reads a solved obligation list through [`dml_elab::eliminate`]: the
    /// residual sites are exactly the sites the compiler keeps checked.
    /// Each is described by its last unproven guard, or as blocked when a
    /// type obligation failed.
    pub fn from_results(results: &[(Obligation, Verdict)]) -> MiniCheck {
        let e = dml_elab::eliminate(results);
        let non_check_ok = e.blocking().is_empty();
        let failing_funs = e.blocking().iter().map(|&g| results[g - 1].0.in_fun.clone()).collect();
        let mut residual_detail = BTreeMap::new();
        for site in e.sites().iter().filter(|s| !s.proven) {
            let detail = if non_check_ok {
                let (ob, verdict) = site
                    .goals
                    .iter()
                    .rev()
                    .map(|&g| &results[g - 1])
                    .find(|(_, v)| !v.is_proven())
                    .expect("a site kept checked without a blocker has an unproven guard");
                format!("{}: {}", ob.kind, verdict_desc(verdict))
            } else {
                "blocked: a non-check obligation failed".to_string()
            };
            residual_detail.insert(site.site, detail);
        }
        let residual_sites = residual_detail.keys().copied().collect();
        MiniCheck { non_check_ok, residual_sites, residual_detail, failing_funs }
    }
}

fn verdict_desc(v: &Verdict) -> String {
    match v {
        Verdict::Proven => "proven".to_string(),
        Verdict::Refuted => "refuted".to_string(),
        Verdict::Unknown(r) => format!("unknown ({r})"),
        _ => "undecided".to_string(),
    }
}

/// Applies candidate annotations to the matching `FunDecl`s in place
/// (matched by the span of the function's name identifier).
pub fn apply_candidates(program: &mut sast::Program, cands: &[Candidate]) {
    let by_span: BTreeMap<Span, &Candidate> = cands.iter().map(|c| (c.name_span, c)).collect();
    for_each_fundecl_mut(program, &mut |f| {
        if let Some(c) = by_span.get(&f.name.span) {
            f.anno = Some(c.anno.clone());
        }
    });
}

/// Visits every `FunDecl` in the program, including `let`-local ones,
/// mutably.
pub fn for_each_fundecl_mut(program: &mut sast::Program, f: &mut impl FnMut(&mut sast::FunDecl)) {
    fn walk_expr(e: &mut sast::Expr, f: &mut impl FnMut(&mut sast::FunDecl)) {
        use sast::Expr::*;
        match e {
            Var(_) | Int(..) | Bool(..) | Raise(..) => {}
            App(a, b, _) => {
                walk_expr(a, f);
                walk_expr(b, f);
            }
            Tuple(es, _) | Seq(es, _) => es.iter_mut().for_each(|e| walk_expr(e, f)),
            If(c, t, e2, _) => {
                walk_expr(c, f);
                walk_expr(t, f);
                walk_expr(e2, f);
            }
            Case(s, arms, _) => {
                walk_expr(s, f);
                arms.iter_mut().for_each(|(_, b)| walk_expr(b, f));
            }
            Let(ds, b, _) => {
                ds.iter_mut().for_each(|d| walk_decl(d, f));
                walk_expr(b, f);
            }
            Fn(arms, _) => arms.iter_mut().for_each(|(_, b)| walk_expr(b, f)),
            Anno(e2, _, _) => walk_expr(e2, f),
            Andalso(a, b, _) | Orelse(a, b, _) => {
                walk_expr(a, f);
                walk_expr(b, f);
            }
            Handle(b, arms, _) => {
                walk_expr(b, f);
                arms.iter_mut().for_each(|(_, h)| walk_expr(h, f));
            }
        }
    }
    fn walk_decl(d: &mut sast::Decl, f: &mut impl FnMut(&mut sast::FunDecl)) {
        match d {
            sast::Decl::Fun(group) => {
                for fd in group.iter_mut() {
                    f(fd);
                    for c in &mut fd.clauses {
                        walk_expr(&mut c.body, f);
                    }
                }
            }
            sast::Decl::Val(v) => walk_expr(&mut v.expr, f),
            _ => {}
        }
    }
    program.decls.iter_mut().for_each(|d| walk_decl(d, f));
}

/// Removes every `where`-clause from `src`, returning the stripped
/// source. The removed ranges are extended backward over horizontal and
/// vertical whitespace so no blank lines are left behind.
pub fn strip_annotations(src: &str) -> Result<String, String> {
    let program = dml_syntax::parse_program(src).map_err(|e| e.to_string())?;
    let mut spans: Vec<Span> = Vec::new();
    let mut collect = |f: &sast::FunDecl| {
        if let Some(s) = f.anno_span {
            spans.push(s);
        }
    };
    let mut p = program;
    for_each_fundecl_mut(&mut p, &mut |f| collect(f));
    spans.sort();
    spans.dedup();
    let bytes = src.as_bytes();
    let mut out = src.to_string();
    for s in spans.iter().rev() {
        let mut start = s.start as usize;
        while start > 0 && (bytes[start - 1] as char).is_whitespace() {
            start -= 1;
        }
        out.replace_range(start..s.end as usize, "");
    }
    Ok(out)
}
