//! Check elimination: which check sites run unchecked, and why the others
//! keep their checks.
//!
//! The paper's elimination is all-or-nothing per program (§1, §4): a
//! `sub`/`update`/`nth` call site compiles to the unchecked primitive only
//! when the solver proved every guard obligation of the site *and* the
//! program as a whole dependently type-checks. A failed type obligation
//! (an index equation, an allocation guard, a division guard) blocks every
//! elimination — the fail-safe. Exhaustiveness obligations are the one
//! exemption: a missing constructor that cannot be proven impossible is a
//! warning (a potential match failure), never a blocker.
//!
//! [`eliminate`] reads a compile's solved obligations once and returns
//! that decision as an [`Elimination`]; everything downstream is a view of
//! it:
//!
//! * the pipeline's proven and unproven sites, its fully-verified flag,
//!   exhaustiveness warnings and strict-mode listing;
//! * the residual runtime checks ([`Elimination::residual_checks`]), which
//!   the interpreter counts when they execute and the `DML006` lint points
//!   at with the solver's reason;
//! * the per-site records ([`SiteVerdict`]) the native backend lowers to
//!   checked or unchecked accesses, carrying the 1-based goal numbers `dmlc
//!   constraints` prints so the emitter can write traceable `// SAFETY:
//!   goal #N proven` comments;
//! * the inference verifier's residual sites (`dml-infer`), so a candidate
//!   annotation is accepted by the checker's own rule.

use crate::obligation::{ObKind, Obligation};
use dml_index::{UnknownReason, Verdict};
use dml_syntax::Span;
use dml_types::env::CheckKind;
use std::collections::HashMap;
use std::fmt;

/// The solved status of one checking-primitive call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteVerdict {
    /// Span of the primitive application.
    pub site: Span,
    /// The primitive (`sub`, `update`, `nth`, ...).
    pub prim: String,
    /// Array bound or list tag.
    pub check: CheckKind,
    /// The enclosing function, for reporting.
    pub in_fun: String,
    /// 1-based indices (into the full obligation list) of this site's
    /// guard obligations.
    pub goals: Vec<usize>,
    /// `true` when the site runs unchecked: every guard goal of the site
    /// is proven and no type obligation of the program failed.
    pub proven: bool,
    /// Why the site's first unproven guard goal failed, or `None` when
    /// every guard goal is proven. A refuted guard (the solver exhibited a
    /// counterexample, so the check is certainly needed) reads as
    /// [`UnknownReason::PossiblyFalsifiable`]; callers that want to tell
    /// the two apart still have the per-obligation verdicts.
    pub reason: Option<UnknownReason>,
}

/// The check-elimination decision of one compile, built by [`eliminate`].
/// Its fields stay private: a site's `proven` flag depends on the whole
/// program's blocking obligations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Elimination {
    sites: Vec<SiteVerdict>,
    blocking: Vec<usize>,
    match_warnings: Vec<(Span, String)>,
}

/// Folds a compile's solved obligations, in obligation order, into its
/// check-elimination decision. Linear in the number of obligations, plus
/// sorting the sites.
pub fn eliminate(results: &[(Obligation, Verdict)]) -> Elimination {
    let mut e = Elimination::default();
    let mut site_of: HashMap<Span, usize> = HashMap::new();
    for (k, (ob, verdict)) in results.iter().enumerate() {
        let goal = k + 1;
        match &ob.kind {
            ObKind::Bound { prim, check } => {
                let i = *site_of.entry(ob.site).or_insert_with(|| {
                    e.sites.push(SiteVerdict {
                        site: ob.site,
                        prim: prim.clone(),
                        check: *check,
                        in_fun: ob.in_fun.clone(),
                        goals: Vec::new(),
                        proven: false,
                        reason: None,
                    });
                    e.sites.len() - 1
                });
                let site = &mut e.sites[i];
                site.goals.push(goal);
                if site.reason.is_none() && !verdict.is_proven() {
                    site.reason = Some(match verdict {
                        Verdict::Unknown(r) => r.clone(),
                        _ => UnknownReason::PossiblyFalsifiable,
                    });
                }
            }
            _ if verdict.is_proven() => {}
            ObKind::Unreachable { con } => e.match_warnings.push((ob.site, con.clone())),
            _ => e.blocking.push(goal),
        }
    }
    let blocked = !e.blocking.is_empty();
    for site in &mut e.sites {
        site.proven = !blocked && site.reason.is_none();
    }
    e.sites.sort_by_key(|s| (s.site.start, s.site.end));
    e
}

impl Elimination {
    /// Every check site, sorted by source position.
    pub fn sites(&self) -> &[SiteVerdict] {
        &self.sites
    }

    /// 1-based indices of the failed type obligations (neither checks nor
    /// exhaustiveness), in obligation order. Any one of them blocks every
    /// elimination.
    pub fn blocking(&self) -> &[usize] {
        &self.blocking
    }

    /// Exhaustiveness obligations that did not prove, in obligation order:
    /// the `case` span and the constructor not provably impossible there.
    pub fn match_warnings(&self) -> &[(Span, String)] {
        &self.match_warnings
    }

    /// `true` when every obligation but the exhaustiveness warnings proved:
    /// the program dependently type-checks and every check site runs
    /// unchecked.
    pub fn fully_verified(&self) -> bool {
        self.blocking.is_empty() && self.sites.iter().all(|s| s.proven)
    }

    /// The sites whose own guards did not all prove, with the first
    /// unproven guard's reason, sorted by source position. A site kept
    /// checked only by the fail-safe is not listed.
    pub fn residual_checks(&self) -> Vec<ResidualCheck> {
        self.sites
            .iter()
            .filter_map(|s| {
                Some(ResidualCheck {
                    site: s.site,
                    prim: s.prim.clone(),
                    check: s.check,
                    in_fun: s.in_fun.clone(),
                    reason: s.reason.clone()?,
                })
            })
            .collect()
    }

    /// 1-based indices of every failed obligation but the exhaustiveness
    /// warnings — the blocking type obligations and the unproven guards —
    /// sorted by source site, obligation order within a site. `results`
    /// must be the list this decision was folded from.
    pub fn unproven(&self, results: &[(Obligation, Verdict)]) -> Vec<usize> {
        let guards = self.sites.iter().flat_map(|s| &s.goals);
        let mut goals: Vec<usize> = self
            .blocking
            .iter()
            .chain(guards.filter(|&&g| !results[g - 1].1.is_proven()))
            .copied()
            .collect();
        goals.sort_by_key(|&g| (results[g - 1].0.site.start, results[g - 1].0.site.end, g));
        goals
    }
}

/// The residual checks of a solved obligation list: a view of
/// [`eliminate`] (see [`Elimination::residual_checks`]).
pub fn residual_checks(results: &[(Obligation, Verdict)]) -> Vec<ResidualCheck> {
    eliminate(results).residual_checks()
}

/// One source site whose bound/tag check stays in the compiled program
/// because one of its own guards did not prove (graceful degradation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidualCheck {
    /// The span of the primitive application that keeps its check.
    pub site: Span,
    /// The checking primitive (`sub`, `update`, `nth`, ...).
    pub prim: String,
    /// Array bound or list tag.
    pub check: CheckKind,
    /// The enclosing function, for reporting.
    pub in_fun: String,
    /// Why the solver left the check in place.
    pub reason: UnknownReason,
}

impl ResidualCheck {
    /// The trace event recording that this check was lowered to a residual
    /// runtime check, with the site resolved to `line:col` in `src`.
    pub fn trace_event(&self, src: &str) -> dml_obs::TraceEvent {
        dml_obs::TraceEvent::Residual {
            site: dml_syntax::line_col(src, self.site.start).to_string(),
            prim: self.prim.clone(),
            reason: self.reason.to_string(),
        }
    }
}

impl fmt::Display for ResidualCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.check {
            CheckKind::ListTag => "list tag check",
            _ => "array bound check",
        };
        write!(
            f,
            "residual {what} for `{}` in {} at {}: {}",
            self.prim, self.in_fun, self.site, self.reason
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dml_index::{Constraint, Prop};

    fn ob(kind: ObKind, start: u32, end: u32) -> Obligation {
        Obligation {
            kind,
            site: Span { start, end },
            constraint: Constraint::Prop(Prop::True),
            in_fun: "f".into(),
        }
    }

    fn bound(prim: &str, start: u32, end: u32) -> Obligation {
        ob(ObKind::Bound { prim: prim.into(), check: CheckKind::ArrayBound }, start, end)
    }

    fn unknown(r: UnknownReason) -> Verdict {
        Verdict::Unknown(r)
    }

    #[test]
    fn sites_group_goals_sort_and_keep_the_first_reason() {
        let results = vec![
            (bound("sub", 50, 54), unknown(UnknownReason::FuelExhausted)),
            (bound("nth", 5, 9), Verdict::Proven),
            (bound("sub", 50, 54), unknown(UnknownReason::Deadline)),
            (bound("nth", 5, 9), Verdict::Proven),
            (bound("update", 20, 26), Verdict::Refuted),
        ];
        let e = eliminate(&results);
        let sites: Vec<_> = e.sites.iter().map(|s| (s.site.start, s.goals.clone())).collect();
        assert_eq!(sites, vec![(5, vec![2, 4]), (20, vec![5]), (50, vec![1, 3])]);
        assert!(e.sites[0].proven);
        assert_eq!(e.sites[1].reason, Some(UnknownReason::PossiblyFalsifiable), "refuted");
        assert_eq!(e.sites[2].reason, Some(UnknownReason::FuelExhausted), "first reason wins");
        assert!(!e.fully_verified());
        let residual = e.residual_checks();
        assert_eq!(residual.len(), 2, "the proven site drops out");
        assert_eq!((residual[0].site.start, residual[1].site.start), (20, 50));
    }

    #[test]
    fn a_failed_type_obligation_blocks_every_site() {
        let results = vec![
            (bound("sub", 1, 5), Verdict::Proven),
            (ob(ObKind::TypeEq, 30, 34), unknown(UnknownReason::FuelExhausted)),
            (bound("sub", 10, 14), Verdict::Refuted),
        ];
        let e = eliminate(&results);
        assert_eq!(e.blocking, vec![2]);
        assert!(e.sites.iter().all(|s| !s.proven), "fail-safe: nothing is eliminated");
        let residual = e.residual_checks();
        assert_eq!(residual.len(), 1, "only the site whose own guard failed");
        assert_eq!(residual[0].site.start, 10);
        assert_eq!(e.unproven(&results), vec![3, 2], "by source site");
    }

    #[test]
    fn exhaustiveness_warns_without_blocking() {
        let results = vec![
            (bound("sub", 1, 5), Verdict::Proven),
            (ob(ObKind::Unreachable { con: "nil".into() }, 8, 20), Verdict::Refuted),
        ];
        let e = eliminate(&results);
        assert!(e.blocking.is_empty() && e.sites[0].proven && e.fully_verified());
        assert_eq!(e.match_warnings, vec![(Span { start: 8, end: 20 }, "nil".to_string())]);
        assert!(e.unproven(&results).is_empty(), "strict mode ignores warnings");
    }

    #[test]
    fn display_names_prim_and_reason() {
        let results = vec![(bound("sub", 1, 3), unknown(UnknownReason::Nonlinear("i * i".into())))];
        let text = residual_checks(&results)[0].to_string();
        assert!(text.contains("sub") && text.contains("non-linear"), "{text}");
    }
}
