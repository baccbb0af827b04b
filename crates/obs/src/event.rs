//! Typed trace events and per-goal event buffers.
//!
//! Events are plain data (strings and integers); producers render index
//! vocabulary (variables, inequalities, sites) to strings *before* emitting,
//! using stable names. A goal's events are recorded when it is explained:
//! after the compile, the goal alone is decided again, with no cache, so
//! its story is byte-identical across worker counts, cache configurations
//! and whatever the compile itself looked up.

use std::fmt;

/// One structured event recorded while generating or deciding a proof goal.
///
/// The variant set is the in-memory mirror of the JSON event schema
/// documented in `docs/ARCHITECTURE.md`; [`TraceEvent::tag`] gives the
/// stable snake_case name used in serialized traces.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Elaboration generated a proof obligation at a source site.
    Obligation {
        /// Obligation kind, e.g. `"bound"` or `"guard"`.
        kind: String,
        /// Source span, rendered `line:col`.
        site: String,
        /// Enclosing function name.
        in_fun: String,
    },
    /// A cheap syntactic fast path decided the goal before elimination.
    FastPath {
        /// Which rule fired (`"trivial-conclusion"`, `"false-hypothesis"`,
        /// `"reflexive"`, `"assumption"`).
        rule: &'static str,
    },
    /// The goal was alpha-renamed into canonical form for the verdict cache.
    Canonicalized {
        /// Number of bound index variables after canonicalization.
        vars: usize,
        /// Number of hypotheses after sorting and deduplication.
        hyps: usize,
    },
    /// A non-linear hypothesis could not be lowered and was weakened away.
    HypothesisDropped {
        /// Display form of the dropped constraint.
        expr: String,
    },
    /// Non-linear subterms were lowered to fresh linear variables.
    Lowered {
        /// Number of fresh variables introduced by lowering.
        fresh_vars: usize,
    },
    /// The negated goal expanded into a DNF of inequality systems.
    Dnf {
        /// Number of disjunct systems to refute.
        disjuncts: usize,
    },
    /// Fourier–Motzkin refutation started on one disjunct system.
    SystemStart {
        /// Disjunct index, 0-based.
        index: usize,
        /// Number of inequalities entering elimination.
        ineqs: usize,
    },
    /// Integer tightening (§3.2) divided inequalities by the GCD of their
    /// coefficients and rounded their constants down.
    Tightened {
        /// Number of inequalities whose bounds were tightened.
        count: u64,
    },
    /// One FM variable-elimination round.
    Eliminate {
        /// Stable display name of the eliminated variable.
        var: String,
        /// Number of upper-bound constraints on the variable.
        uppers: usize,
        /// Number of lower-bound constraints on the variable.
        lowers: usize,
        /// Upper×lower pairs actually combined (the fuel charged).
        pairs: u64,
        /// Combined inequalities tightened during this round.
        tightened: u64,
    },
    /// A contradictory constant inequality was derived: the disjunct is
    /// refuted.
    Contradiction {
        /// Display form of the contradictory inequality, e.g. `1 <= 0`.
        ineq: String,
    },
    /// Fuel accounting snapshot after a refutation attempt.
    Fuel {
        /// Total fuel (pair combinations) charged so far for this goal.
        spent: u64,
        /// Fuel remaining, or `None` under an unlimited budget.
        remaining: Option<u64>,
    },
    /// An integer witness falsifying the goal was found by bounded search.
    Witness {
        /// Variable assignment, sorted by variable name.
        assignment: Vec<(String, i64)>,
    },
    /// An unproven check was lowered to a residual runtime check.
    Residual {
        /// Source span of the retained check.
        site: String,
        /// Checked primitive, e.g. `"sub"` (array read).
        prim: String,
        /// Why the goal stayed unknown.
        reason: String,
    },
    /// Final verdict for the goal.
    Verdict {
        /// Display form of the verdict, e.g. `"proven"`.
        verdict: String,
    },
}

impl TraceEvent {
    /// Stable snake_case tag used in serialized traces (`--trace-out`).
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::Obligation { .. } => "obligation",
            TraceEvent::FastPath { .. } => "fast_path",
            TraceEvent::Canonicalized { .. } => "canonicalized",
            TraceEvent::HypothesisDropped { .. } => "hypothesis_dropped",
            TraceEvent::Lowered { .. } => "lowered",
            TraceEvent::Dnf { .. } => "dnf",
            TraceEvent::SystemStart { .. } => "system_start",
            TraceEvent::Tightened { .. } => "tightened",
            TraceEvent::Eliminate { .. } => "eliminate",
            TraceEvent::Contradiction { .. } => "contradiction",
            TraceEvent::Fuel { .. } => "fuel",
            TraceEvent::Witness { .. } => "witness",
            TraceEvent::Residual { .. } => "residual",
            TraceEvent::Verdict { .. } => "verdict",
        }
    }

    /// Event payload as a JSON object (used by the Chrome-trace writer).
    pub fn args(&self) -> crate::json::Json {
        use crate::json::{obj, Json};
        match self {
            TraceEvent::Obligation { kind, site, in_fun } => obj(vec![
                ("kind", Json::Str(kind.clone())),
                ("site", Json::Str(site.clone())),
                ("in_fun", Json::Str(in_fun.clone())),
            ]),
            TraceEvent::FastPath { rule } => obj(vec![("rule", Json::Str((*rule).into()))]),
            TraceEvent::Canonicalized { vars, hyps } => {
                obj(vec![("vars", Json::Int(*vars as i64)), ("hyps", Json::Int(*hyps as i64))])
            }
            TraceEvent::HypothesisDropped { expr } => obj(vec![("expr", Json::Str(expr.clone()))]),
            TraceEvent::Lowered { fresh_vars } => {
                obj(vec![("fresh_vars", Json::Int(*fresh_vars as i64))])
            }
            TraceEvent::Dnf { disjuncts } => obj(vec![("disjuncts", Json::Int(*disjuncts as i64))]),
            TraceEvent::SystemStart { index, ineqs } => {
                obj(vec![("index", Json::Int(*index as i64)), ("ineqs", Json::Int(*ineqs as i64))])
            }
            TraceEvent::Tightened { count } => obj(vec![("count", Json::Int(*count as i64))]),
            TraceEvent::Eliminate { var, uppers, lowers, pairs, tightened } => obj(vec![
                ("var", Json::Str(var.clone())),
                ("uppers", Json::Int(*uppers as i64)),
                ("lowers", Json::Int(*lowers as i64)),
                ("pairs", Json::Int(*pairs as i64)),
                ("tightened", Json::Int(*tightened as i64)),
            ]),
            TraceEvent::Contradiction { ineq } => obj(vec![("ineq", Json::Str(ineq.clone()))]),
            TraceEvent::Fuel { spent, remaining } => obj(vec![
                ("spent", Json::Int(*spent as i64)),
                (
                    "remaining",
                    match remaining {
                        Some(r) => Json::Int(*r as i64),
                        None => Json::Null,
                    },
                ),
            ]),
            TraceEvent::Witness { assignment } => obj(vec![(
                "assignment",
                Json::Object(assignment.iter().map(|(v, n)| (v.clone(), Json::Int(*n))).collect()),
            )]),
            TraceEvent::Residual { site, prim, reason } => obj(vec![
                ("site", Json::Str(site.clone())),
                ("prim", Json::Str(prim.clone())),
                ("reason", Json::Str(reason.clone())),
            ]),
            TraceEvent::Verdict { verdict } => obj(vec![("verdict", Json::Str(verdict.clone()))]),
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Obligation { kind, site, in_fun } => {
                write!(f, "obligation {kind} at {site} in {in_fun}")
            }
            TraceEvent::FastPath { rule } => write!(f, "fast path: {rule}"),
            TraceEvent::Canonicalized { vars, hyps } => {
                write!(f, "canonicalized: {vars} vars, {hyps} hyps")
            }
            TraceEvent::HypothesisDropped { expr } => {
                write!(f, "hypothesis dropped (non-linear): {expr}")
            }
            TraceEvent::Lowered { fresh_vars } => {
                write!(f, "lowered {fresh_vars} non-linear subterm(s)")
            }
            TraceEvent::Dnf { disjuncts } => write!(f, "negation split into {disjuncts} system(s)"),
            TraceEvent::SystemStart { index, ineqs } => {
                write!(f, "system {index}: {ineqs} inequalities")
            }
            TraceEvent::Tightened { count } => write!(f, "tightened {count} inequality(s)"),
            TraceEvent::Eliminate { var, uppers, lowers, pairs, tightened } => write!(
                f,
                "eliminate {var}: {uppers} upper x {lowers} lower -> {pairs} pair(s), {tightened} tightened"
            ),
            TraceEvent::Contradiction { ineq } => write!(f, "contradiction: {ineq}"),
            TraceEvent::Fuel { spent, remaining } => match remaining {
                Some(r) => write!(f, "fuel: {spent} spent, {r} remaining"),
                None => write!(f, "fuel: {spent} spent (unlimited budget)"),
            },
            TraceEvent::Witness { assignment } => {
                write!(f, "witness:")?;
                for (v, n) in assignment {
                    write!(f, " {v} = {n}")?;
                }
                Ok(())
            }
            TraceEvent::Residual { site, prim, reason } => {
                write!(f, "residual {prim} check at {site}: {reason}")
            }
            TraceEvent::Verdict { verdict } => write!(f, "verdict: {verdict}"),
        }
    }
}

/// The ordered event buffer for one proof goal, filled by the solver's
/// `explain` as it decides the goal again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GoalTrace {
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
    /// Total fuel (FM pair combinations) charged for this goal —
    /// deterministic, unlike wall time.
    pub fuel_spent: u64,
    /// Wall-clock time deciding the goal, in nanoseconds. Only surfaced in
    /// Chrome traces; never part of deterministic renderings.
    pub wall_ns: u64,
}

impl GoalTrace {
    /// Append one event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// The goal's final verdict string, if a [`TraceEvent::Verdict`] was
    /// recorded.
    pub fn verdict(&self) -> Option<&str> {
        self.events.iter().rev().find_map(|e| match e {
            TraceEvent::Verdict { verdict } => Some(verdict.as_str()),
            _ => None,
        })
    }

    /// The falsifying assignment, if a [`TraceEvent::Witness`] was recorded.
    pub fn witness(&self) -> Option<&[(String, i64)]> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Witness { assignment } => Some(assignment.as_slice()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable() {
        assert_eq!(TraceEvent::FastPath { rule: "assumption" }.tag(), "fast_path");
        assert_eq!(TraceEvent::Verdict { verdict: "proven".into() }.tag(), "verdict");
    }

    #[test]
    fn goal_trace_accessors() {
        let mut t = GoalTrace::default();
        assert_eq!(t.verdict(), None);
        t.push(TraceEvent::Witness { assignment: vec![("n".into(), 6)] });
        t.push(TraceEvent::Verdict { verdict: "refuted".into() });
        assert_eq!(t.verdict(), Some("refuted"));
        assert_eq!(t.witness(), Some(&[("n".to_string(), 6)][..]));
    }

    #[test]
    fn display_forms() {
        let e =
            TraceEvent::Eliminate { var: "i".into(), uppers: 2, lowers: 1, pairs: 2, tightened: 0 };
        assert_eq!(e.to_string(), "eliminate i: 2 upper x 1 lower -> 2 pair(s), 0 tightened");
        let w = TraceEvent::Witness { assignment: vec![("n".into(), 6)] };
        assert_eq!(w.to_string(), "witness: n = 6");
    }
}
