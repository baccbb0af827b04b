//! Solver statistics, feeding Table 1's "constraints generated / solved"
//! columns and the ablation benches.

use std::fmt;
use std::time::Duration;

/// Total time per goal-solving phase, summed over every goal that reaches
/// the phase.
///
/// Recording is always on (one addition per phase), but the totals are
/// only *rendered* on request (`dmlc table 1 --timings`), so default
/// output stays byte-identical whether or not anyone looks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Whole-goal decide time, fast paths and cache hits included.
    pub goal: Duration,
    /// NNF, `<>` expansion and non-linear lowering of the hypotheses and
    /// the negated conclusion.
    pub lowering: Duration,
    /// DNF expansion, plus building each disjunct system the elimination
    /// loop reaches (systems are built one at a time, on demand).
    pub dnf: Duration,
    /// Fourier–Motzkin elimination across a goal's disjunct systems,
    /// without the time spent building them; includes any witness search,
    /// which is also recorded separately.
    pub elimination: Duration,
    /// Bounded exhaustive counterexample search on refutation candidates.
    pub witness_search: Duration,
}

impl PhaseTimes {
    /// Adds another record's totals into this one.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.goal += other.goal;
        self.lowering += other.lowering;
        self.dnf += other.dnf;
        self.elimination += other.elimination;
        self.witness_search += other.witness_search;
    }

    /// `(label, total)` pairs in rendering order.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        [
            ("goal decide", self.goal),
            ("lowering", self.lowering),
            ("dnf expansion", self.dnf),
            ("fm elimination", self.elimination),
            ("witness search", self.witness_search),
        ]
    }
}

/// Counters accumulated across one [`crate::Solver::prove`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of proof goals (sequents) examined.
    pub goals: usize,
    /// Goals proven valid.
    pub proven: usize,
    /// Goals not proven (refuted, counterexample possible, non-linear, or
    /// out of budget). Always `refuted + unknown`, kept for reporting.
    pub not_proven: usize,
    /// Goals refuted by an explicit integer counterexample (a subset of
    /// `not_proven`).
    pub refuted: usize,
    /// Existential variables eliminated by equality substitution.
    pub existentials_eliminated: usize,
    /// Existential variables that could not be eliminated.
    pub existentials_residual: usize,
    /// DNF disjuncts refuted.
    pub disjuncts_refuted: usize,
    /// Fourier–Motzkin pair combinations performed.
    pub fm_combinations: usize,
    /// Fresh variables introduced by non-linear lowering.
    pub lowered_vars: usize,
    /// Goals answered from the verdict cache.
    ///
    /// Hit/miss counts depend on what earlier solves warmed the shared
    /// cache (and, under parallel solving, on scheduling), so they are
    /// reported alongside timing — never compared byte-for-byte.
    pub cache_hits: usize,
    /// Goals that missed the verdict cache and were decided from scratch.
    pub cache_misses: usize,
    /// Per-phase time totals (see [`PhaseTimes`]). Timings vary run to
    /// run, so they are surfaced only by explicit request and never enter
    /// golden comparisons.
    pub phase_times: PhaseTimes,
}

impl SolverStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &SolverStats) {
        self.goals += other.goals;
        self.proven += other.proven;
        self.not_proven += other.not_proven;
        self.refuted += other.refuted;
        self.existentials_eliminated += other.existentials_eliminated;
        self.existentials_residual += other.existentials_residual;
        self.disjuncts_refuted += other.disjuncts_refuted;
        self.fm_combinations += other.fm_combinations;
        self.lowered_vars += other.lowered_vars;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.phase_times.merge(&other.phase_times);
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} goals ({} proven, {} not proven), {} FM combinations, {} cache hits / {} misses",
            self.goals,
            self.proven,
            self.not_proven,
            self.fm_combinations,
            self.cache_hits,
            self.cache_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = SolverStats { goals: 2, proven: 1, ..Default::default() };
        let b = SolverStats { goals: 3, proven: 3, fm_combinations: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.goals, 5);
        assert_eq!(a.proven, 4);
        assert_eq!(a.fm_combinations, 7);
    }

    #[test]
    fn display_is_informative() {
        let s = SolverStats { goals: 1, proven: 1, ..Default::default() };
        let text = s.to_string();
        assert!(text.contains("1 goals"), "{text}");
    }
}
