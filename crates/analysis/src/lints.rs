//! The lint implementations.
//!
//! DML001, DML002 and DML005 are *solver-backed*: they call
//! [`Solver::entails`] on contexts captured during elaboration
//! ([`SiteContext`]) or reconstructed from quantifier groups, and fire only
//! on a `Valid` verdict. DML003 and DML004 are syntactic.

use std::collections::HashMap;

use dml_elab::{ResidualCheck, SiteContext, SiteRole};
use dml_index::{Prop, Sort, Var, VarGen};
use dml_infer::AcceptedAnno;
use dml_solver::{Solver, Verdict};
use dml_syntax::ast::{self as sast, IExpr};
use dml_syntax::Span;
use dml_types::convert::{Converter, FamilySig, Scope};
use dml_types::env::CheckKind;

use crate::walk::{self, GroupKind, QuantGroup};
use crate::{lint_by_code, Finding, Fix};

/// Runs every registered lint over a program.
///
/// * `program` — the surface AST (for the syntactic lints and the
///   refinement lints, which re-convert quantifier groups).
/// * `contexts` — per-site hypothesis snapshots from elaboration (for the
///   dead-branch lint). Pass `&[]` to skip DML001.
/// * `families` — the type-family signatures in scope (builtins plus the
///   program's `typeref`/`datatype` declarations).
/// * `solver` — the solver answering entailment queries. Passing the
///   solver a program was compiled with shares its verdict cache, so
///   entailments the compile already decided are answered without
///   re-running the decision procedure.
/// * `residuals` — the pipeline's residual checks
///   ([`dml_elab::residual_checks`]) for the DML006 lint. Pass `&[]` to
///   skip it (e.g. when linting without solving).
/// * `suggestions` — solver-verified inferred annotations for the DML007
///   lint: the `accepted` list of a [`dml_infer::InferReport`]. The
///   caller runs inference (`dml::Compiled::lints` runs it only when
///   residual checks exist); pass `&[]` to skip it.
pub fn run_lints(
    program: &sast::Program,
    contexts: &[SiteContext],
    families: &HashMap<String, FamilySig>,
    solver: &Solver,
    gen: &mut VarGen,
    residuals: &[ResidualCheck],
    suggestions: &[AcceptedAnno],
) -> Vec<Finding> {
    let facts = walk::collect(program);
    let mut findings = Vec::new();
    dead_branch(contexts, solver, gen, &mut findings);
    refinement_lints(&facts.groups, families, solver, gen, &mut findings);
    unused_index_variable(&facts.groups, &mut findings);
    nonlinear_index(&facts.index_exprs, &mut findings);
    residual_bound_check(residuals, &mut findings);
    inferable_annotation(suggestions, &mut findings);
    findings.sort_by_key(|f| (f.span.start, f.span.end, f.code));
    findings.dedup_by(|a, b| a.code == b.code && a.span == b.span && a.message == b.message);
    findings
}

fn finding(code: &str, message: String, span: Span, notes: Vec<String>) -> Finding {
    let lint = lint_by_code(code).expect("registered lint");
    Finding {
        code: lint.code,
        name: lint.name,
        severity: lint.default_severity,
        message,
        span,
        notes,
        fix: None,
    }
}

fn valid(r: Verdict) -> bool {
    r.is_proven()
}

/// Renders at most `limit` hypotheses as notes.
fn hyp_notes(hyps: &[Prop], limit: usize) -> Vec<String> {
    let mut notes = Vec::new();
    if hyps.is_empty() {
        notes.push("no index hypotheses were in scope".to_string());
        return notes;
    }
    let shown: Vec<String> = hyps.iter().take(limit).map(|h| h.to_string()).collect();
    notes.push(format!("under hypotheses: {}", shown.join("  and  ")));
    if hyps.len() > limit {
        notes.push(format!("... and {} more", hyps.len() - limit));
    }
    notes
}

// ---------------------------------------------------------------------------
// DML001: dead-branch.
// ---------------------------------------------------------------------------

fn dead_branch(
    contexts: &[SiteContext],
    solver: &Solver,
    gen: &mut VarGen,
    findings: &mut Vec<Finding>,
) {
    for sc in contexts {
        let unreachable =
            !sc.hyps.is_empty() && valid(solver.entails(&sc.vars, &sc.hyps, &Prop::False, gen));
        match &sc.role {
            SiteRole::IfCond => {
                let Some(cond) = &sc.cond else { continue };
                if unreachable {
                    let mut notes = hyp_notes(&sc.hyps, 6);
                    notes.push(format!("in function `{}`", sc.in_fun));
                    findings.push(finding(
                        "DML001",
                        "this `if` is unreachable: the index hypotheses in scope are contradictory"
                            .to_string(),
                        sc.span,
                        notes,
                    ));
                } else if valid(solver.entails(&sc.vars, &sc.hyps, cond, gen)) {
                    let mut notes = hyp_notes(&sc.hyps, 6);
                    notes.push(format!("in function `{}`", sc.in_fun));
                    notes.push("the `else` branch is dead code".to_string());
                    findings.push(finding(
                        "DML001",
                        format!("condition `{cond}` is always true here"),
                        sc.span,
                        notes,
                    ));
                } else if valid(solver.entails(&sc.vars, &sc.hyps, &cond.clone().negate(), gen)) {
                    let mut notes = hyp_notes(&sc.hyps, 6);
                    notes.push(format!("in function `{}`", sc.in_fun));
                    notes.push("the `then` branch is dead code".to_string());
                    findings.push(finding(
                        "DML001",
                        format!("condition `{cond}` is always false here"),
                        sc.span,
                        notes,
                    ));
                }
            }
            SiteRole::CaseArm { con } => {
                if unreachable {
                    let what = match con {
                        Some(c) => format!("arm `{c}` of this match can never be taken"),
                        None => "this match arm can never be taken".to_string(),
                    };
                    let mut notes = hyp_notes(&sc.hyps, 6);
                    notes.push(format!("in function `{}`", sc.in_fun));
                    findings.push(finding("DML001", what, sc.span, notes));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// DML002 / DML005: redundant refinement, unprovable annotation.
// ---------------------------------------------------------------------------

/// A quantifier group converted to the semantic index language, keeping
/// user-written guard conjuncts separate from synthesized sort guards.
struct ConvGroup {
    /// All binders in scope (outer chain first, then the group's own).
    vars: Vec<(Var, Sort)>,
    /// Guards contributed by the enclosing binder chain.
    outer_hyps: Vec<Prop>,
    /// Sort guards of the group's own binders (`nat` ⇒ `0 <= v`, subset
    /// sorts' propositions).
    sort_guards: Vec<Prop>,
    /// User-written guard conjuncts: (binder position, conjunct).
    user: Vec<(usize, Prop)>,
}

/// Converts a group piecewise. `convert_quants` would fold sort guards and
/// user guards into one proposition; DML002 needs them separate, so this
/// mirrors its steps conjunct by conjunct. Returns `None` on conversion
/// errors (the type checker owns reporting those).
fn convert_group(
    g: &QuantGroup,
    families: &HashMap<String, FamilySig>,
    gen: &mut VarGen,
) -> Option<ConvGroup> {
    let mut conv = Converter::new(families, gen);
    let mut scope = Scope::new();
    let mut out = ConvGroup {
        vars: Vec::new(),
        outer_hyps: Vec::new(),
        sort_guards: Vec::new(),
        user: Vec::new(),
    };
    for q in &g.outer {
        let v = conv.gen.fresh(&q.var.name);
        let (base, sort_guard) = conv.convert_sort(&q.sort, &v, &scope).ok()?;
        scope.bind(&q.var.name, v.clone(), base);
        out.vars.push((v, base));
        for c in sort_guard.conjuncts() {
            if *c != Prop::True {
                out.outer_hyps.push(c.clone());
            }
        }
        if let Some(guard) = &q.guard {
            let p = conv.convert_prop(guard, &scope).ok()?;
            for c in p.conjuncts() {
                if *c != Prop::True {
                    out.outer_hyps.push(c.clone());
                }
            }
        }
    }
    for (k, q) in g.quants.iter().enumerate() {
        let v = conv.gen.fresh(&q.var.name);
        let (base, sort_guard) = conv.convert_sort(&q.sort, &v, &scope).ok()?;
        scope.bind(&q.var.name, v.clone(), base);
        out.vars.push((v, base));
        for c in sort_guard.conjuncts() {
            if *c != Prop::True {
                out.sort_guards.push(c.clone());
            }
        }
        if let Some(guard) = &q.guard {
            let p = conv.convert_prop(guard, &scope).ok()?;
            for c in p.conjuncts() {
                if *c != Prop::True {
                    out.user.push((k, c.clone()));
                }
            }
        }
    }
    Some(out)
}

fn refinement_lints(
    groups: &[QuantGroup],
    families: &HashMap<String, FamilySig>,
    solver: &Solver,
    gen: &mut VarGen,
    findings: &mut Vec<Finding>,
) {
    for g in groups {
        let Some(cg) = convert_group(g, families, gen) else { continue };

        // DML005: the whole guard set is unsatisfiable. Skip when the
        // enclosing chain is already contradictory — the enclosing group
        // gets the report.
        let mut all: Vec<Prop> = cg.outer_hyps.clone();
        all.extend(cg.sort_guards.iter().cloned());
        all.extend(cg.user.iter().map(|(_, p)| p.clone()));
        let outer_contradictory = !cg.outer_hyps.is_empty()
            && valid(solver.entails(&cg.vars, &cg.outer_hyps, &Prop::False, gen));
        if !all.is_empty()
            && !outer_contradictory
            && valid(solver.entails(&cg.vars, &all, &Prop::False, gen))
        {
            let what = match g.kind {
                GroupKind::Sigma => "no index can inhabit this existential binder",
                _ => "this binder's guard is unsatisfiable — the type has no instances",
            };
            findings.push(finding(
                "DML005",
                format!("{what} (in `{}`)", g.owner),
                g.span,
                hyp_notes(&all, 8),
            ));
            continue; // ex falso would mark every conjunct redundant
        }
        if outer_contradictory {
            continue;
        }

        // DML002: a user conjunct entailed by everything else.
        for (j, (k, c)) in cg.user.iter().enumerate() {
            let mut rest: Vec<Prop> = cg.outer_hyps.clone();
            rest.extend(cg.sort_guards.iter().cloned());
            rest.extend(
                cg.user.iter().enumerate().filter(|(i, _)| *i != j).map(|(_, (_, p))| p.clone()),
            );
            if valid(solver.entails(&cg.vars, &rest, c, gen)) {
                let mut notes = hyp_notes(&rest, 8);
                notes.push("dropping this conjunct changes nothing provable".to_string());
                findings.push(finding(
                    "DML002",
                    format!(
                        "refinement conjunct `{c}` on `{}` is entailed by the remaining guards",
                        g.quants[*k].var.name
                    ),
                    g.quants[*k].var.span,
                    notes,
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// DML003: unused-index-variable.
// ---------------------------------------------------------------------------

fn unused_index_variable(groups: &[QuantGroup], findings: &mut Vec<Finding>) {
    for g in groups {
        for (k, q) in g.quants.iter().enumerate() {
            if g.binder_is_used(k) {
                continue;
            }
            let where_ = match g.kind {
                GroupKind::Pi => "universal binder",
                GroupKind::Sigma => "existential binder",
                GroupKind::FunParams => "explicit index parameter",
            };
            findings.push(finding(
                "DML003",
                format!(
                    "index variable `{}` ({where_} in `{}`) is never used in the type it scopes over",
                    q.var.name, g.owner
                ),
                q.var.span,
                vec!["remove the binder, or constrain the type with it".to_string()],
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// DML004: nonlinear-index.
// ---------------------------------------------------------------------------

/// Constant-folds a surface index expression.
fn const_fold(e: &IExpr) -> Option<i64> {
    Some(match e {
        IExpr::Var(_) => return None,
        IExpr::Lit(n, _) => *n,
        IExpr::Add(a, b) => const_fold(a)?.checked_add(const_fold(b)?)?,
        IExpr::Sub(a, b) => const_fold(a)?.checked_sub(const_fold(b)?)?,
        IExpr::Mul(a, b) => const_fold(a)?.checked_mul(const_fold(b)?)?,
        IExpr::Div(a, b) => {
            let d = const_fold(b)?;
            if d == 0 {
                return None;
            }
            const_fold(a)?.div_euclid(d)
        }
        IExpr::Mod(a, b) => {
            let d = const_fold(b)?;
            if d == 0 {
                return None;
            }
            const_fold(a)?.rem_euclid(d)
        }
        IExpr::Min(a, b) => const_fold(a)?.min(const_fold(b)?),
        IExpr::Max(a, b) => const_fold(a)?.max(const_fold(b)?),
        IExpr::Abs(a) => const_fold(a)?.checked_abs()?,
        IExpr::Sgn(a) => const_fold(a)?.signum(),
        IExpr::Neg(a) => const_fold(a)?.checked_neg()?,
    })
}

fn nonlinear_index(sites: &[walk::IndexSite], findings: &mut Vec<Finding>) {
    for site in sites {
        scan_nonlinear(&site.expr, &site.owner, findings);
    }
}

/// Reports the *maximal* nonlinear node and does not descend into it, so a
/// single offending product yields one finding.
fn scan_nonlinear(e: &IExpr, owner: &str, findings: &mut Vec<Finding>) {
    match e {
        IExpr::Mul(a, b) if const_fold(a).is_none() && const_fold(b).is_none() => {
            findings.push(finding(
                "DML004",
                format!("product of two non-constant indices in `{owner}` is outside the linear fragment"),
                e.span(),
                vec![
                    "the solver decides only linear arithmetic (§3.2); this obligation will never be proven".to_string(),
                    "hoist one factor to a constant, or introduce a fresh index variable equated to the product".to_string(),
                ],
            ));
        }
        IExpr::Div(a, b) | IExpr::Mod(a, b) if const_fold(b).is_none_or(|k| k <= 0) => {
            let op = if matches!(e, IExpr::Div(..)) { "div" } else { "mod" };
            let why = match const_fold(b) {
                None => "a non-constant divisor",
                Some(_) => "a non-positive constant divisor",
            };
            findings.push(finding(
                "DML004",
                format!("`{op}` with {why} in `{owner}` is outside the linear fragment"),
                e.span(),
                vec![
                    "the solver lowers `div`/`mod` only for positive literal divisors".to_string(),
                    "restructure the index so the divisor is a positive constant".to_string(),
                ],
            ));
            // The dividend may still hide another nonlinearity worth naming.
            scan_nonlinear(a, owner, findings);
        }
        IExpr::Add(a, b)
        | IExpr::Sub(a, b)
        | IExpr::Mul(a, b)
        | IExpr::Div(a, b)
        | IExpr::Mod(a, b)
        | IExpr::Min(a, b)
        | IExpr::Max(a, b) => {
            scan_nonlinear(a, owner, findings);
            scan_nonlinear(b, owner, findings);
        }
        IExpr::Abs(a) | IExpr::Sgn(a) | IExpr::Neg(a) => scan_nonlinear(a, owner, findings),
        IExpr::Var(_) | IExpr::Lit(_, _) => {}
    }
}

// ---------------------------------------------------------------------------
// DML006: residual-bound-check.
// ---------------------------------------------------------------------------

/// One finding per residual check site, carrying the solver's reason
/// (nonlinear constraint, fuel exhausted, deadline, possibly falsifiable).
/// The pipeline computes the residual set; this lint only reports it, so
/// like the other semantic lints it cannot fire on a proven site.
fn residual_bound_check(residuals: &[ResidualCheck], findings: &mut Vec<Finding>) {
    for r in residuals {
        let what = match r.check {
            CheckKind::ListTag => "list tag check",
            _ => "array bound check",
        };
        findings.push(finding(
            "DML006",
            format!("{what} for `{}` in `{}` stays at run time: {}", r.prim, r.in_fun, r.reason),
            r.site,
            vec![
                "the solver could not prove this access safe; the check is residual".to_string(),
                "strengthen the annotation, or compile strictly to make this an error".to_string(),
            ],
        ));
    }
}

// ---------------------------------------------------------------------------
// DML007: inferable-annotation.
// ---------------------------------------------------------------------------

/// One finding per solver-verified inferred annotation, anchored at the
/// function's name and carrying the machine-applicable [`Fix`]. Inference
/// already re-proved every obligation of the refined program, so — like
/// every other semantic lint — this cannot suggest anything the solver
/// would reject.
fn inferable_annotation(suggestions: &[AcceptedAnno], findings: &mut Vec<Finding>) {
    for s in suggestions {
        let mut f = finding(
            "DML007",
            format!(
                "`{}` has no annotation, but a solver-verified one is inferable: `{}`",
                s.fun, s.rendered
            ),
            s.name_span,
            vec![
                format!("apply: insert `{}` after the function body", s.fixit.trim_start()),
                "interval analysis proposed it; the solver re-proved every eliminated check"
                    .to_string(),
            ],
        );
        f.fix = Some(Fix {
            description: format!("insert `where {} <| {}`", s.fun, s.rendered),
            insert_at: s.insert_at,
            text: s.fixit.clone(),
        });
        findings.push(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dml_index::UnknownReason;
    use dml_syntax::parse_program;
    use dml_types::convert::builtin_families;

    fn lint_src(src: &str) -> Vec<Finding> {
        let program = parse_program(src).expect("parses");
        let mut gen = VarGen::new();
        run_lints(&program, &[], &builtin_families(), &Solver::default(), &mut gen, &[], &[])
    }

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn redundant_conjunct_is_flagged() {
        // `0 <= n` is exactly the nat sort guard.
        let f = lint_src("fun f(x) = x\nwhere f <| {n:nat | 0 <= n} int(n) -> int(n)\n");
        assert!(codes(&f).contains(&"DML002"), "{f:?}");
    }

    #[test]
    fn entailed_conjunct_is_flagged() {
        // n >= 1 entails n >= 0 — but over `int`, not via the nat guard.
        let f = lint_src("fun f(x) = x\nwhere f <| {n:int | n >= 1 && n >= 0} int(n) -> int(n)\n");
        let dml2: Vec<_> = f.iter().filter(|x| x.code == "DML002").collect();
        assert_eq!(dml2.len(), 1, "{f:?}");
        assert!(
            dml2[0].message.contains("0 <= n") || dml2[0].message.contains("n >= 0"),
            "{dml2:?}"
        );
    }

    #[test]
    fn independent_conjuncts_are_not_flagged() {
        let f = lint_src(
            "fun f(x) = x\nwhere f <| {n:int, i:int | 0 <= i && i < n} int(n) -> int(i)\n",
        );
        assert!(!codes(&f).contains(&"DML002"), "{f:?}");
        assert!(!codes(&f).contains(&"DML005"), "{f:?}");
    }

    /// The acceptance-criterion test shape: removing a hypothesis flips the
    /// verdict. With the `nat` sort the conjunct is redundant; weakening the
    /// binder to `int` removes the `0 <= n` hypothesis and the lint goes
    /// quiet.
    #[test]
    fn dropping_a_hypothesis_flips_redundancy() {
        let with_nat = lint_src("fun f(x) = x\nwhere f <| {n:nat | n >= 0} int(n) -> int(n)\n");
        assert!(codes(&with_nat).contains(&"DML002"), "{with_nat:?}");
        let with_int = lint_src("fun f(x) = x\nwhere f <| {n:int | n >= 0} int(n) -> int(n)\n");
        assert!(!codes(&with_int).contains(&"DML002"), "{with_int:?}");
    }

    #[test]
    fn unsatisfiable_guard_is_unprovable_annotation() {
        let f = lint_src("fun f(x) = x\nwhere f <| {n:nat | n < 0} int(n) -> int(n)\n");
        assert!(codes(&f).contains(&"DML005"), "{f:?}");
        // Ex falso must not also spam DML002.
        assert!(!codes(&f).contains(&"DML002"), "{f:?}");
    }

    #[test]
    fn unused_binder_is_flagged_and_used_is_not() {
        let f = lint_src("fun f(x) = x\nwhere f <| {n:nat, m:nat} int(n) -> int(n)\n");
        let dml3: Vec<_> = f.iter().filter(|x| x.code == "DML003").collect();
        assert_eq!(dml3.len(), 1, "{f:?}");
        assert!(dml3[0].message.contains("`m`"), "{dml3:?}");
    }

    #[test]
    fn self_referential_guard_does_not_count_as_use() {
        let f = lint_src("fun f(x) = x\nwhere f <| {n:nat | n > 0} int -> int\n");
        assert!(codes(&f).contains(&"DML003"), "{f:?}");
    }

    #[test]
    fn nonlinear_product_and_divisor_are_flagged() {
        let f = lint_src("fun f(x) = x\nwhere f <| {n:nat, m:nat} int(n * m) -> int(n)\n");
        assert!(codes(&f).contains(&"DML004"), "{f:?}");
        let g =
            lint_src("fun g(x) = x\nwhere g <| {n:nat, m:nat | m > 0} int(n div m) -> int(n)\n");
        assert!(codes(&g).contains(&"DML004"), "{g:?}");
    }

    #[test]
    fn linear_indices_are_quiet() {
        let f = lint_src(
            "fun f(x) = x\nwhere f <| {n:nat, i:int | 0 <= i && i < n} int(2 * n + i - 1) -> int(n div 2)\n",
        );
        assert!(!codes(&f).contains(&"DML004"), "{f:?}");
    }

    #[test]
    fn residual_checks_surface_as_dml006() {
        let program = parse_program("fun f(x) = x").expect("parses");
        let mut gen = VarGen::new();
        let residuals = vec![ResidualCheck {
            site: Span::new(4, 9),
            prim: "sub".into(),
            check: CheckKind::ArrayBound,
            in_fun: "f".into(),
            reason: UnknownReason::Nonlinear("i * i".into()),
        }];
        let f = run_lints(
            &program,
            &[],
            &builtin_families(),
            &Solver::default(),
            &mut gen,
            &residuals,
            &[],
        );
        let dml6: Vec<_> = f.iter().filter(|x| x.code == "DML006").collect();
        assert_eq!(dml6.len(), 1, "{f:?}");
        assert!(dml6[0].message.contains("sub"), "{dml6:?}");
        assert!(dml6[0].message.contains("non-linear"), "{dml6:?}");
        assert_eq!(dml6[0].span, Span::new(4, 9));
    }

    #[test]
    fn const_fold_handles_compound_constants() {
        use dml_syntax::ast::IExpr as E;
        let lit = |n| Box::new(E::Lit(n, Span::default()));
        assert_eq!(const_fold(&E::Mul(lit(3), Box::new(E::Neg(lit(2))))), Some(-6));
        assert_eq!(const_fold(&E::Div(lit(7), lit(0))), None);
        assert_eq!(const_fold(&E::Var(sast::Ident::synth("n"))), None);
    }
}
