//! Systems of linear integer inequalities and Fourier–Motzkin refutation
//! with the paper's integer tightening step.
//!
//! An [`Ineq`] represents `lin ≤ 0` where `lin` is a [`Linear`] form.
//! [`System::refute`] eliminates variables one at a time; if a contradictory
//! constant inequality (`c ≤ 0` with `c > 0`) appears, the system has **no
//! integer solution** and refutation succeeds.
//!
//! Tightening (§3.2): an inequality `Σ aᵢxᵢ ≤ a` is replaced by
//! `Σ (aᵢ/g)xᵢ ≤ ⌊a/g⌋` where `g = gcd(aᵢ)`. This preserves integer
//! solutions exactly while shrinking the rational relaxation, which is what
//! lets the solver discharge the `div`-heavy constraints of `bcopy` and
//! `bsearch`.

use dml_obs::TraceEvent;

use dml_index::{Linear, Var};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::time::{Duration, Instant};

/// A single inequality `lin ≤ 0`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ineq {
    lin: Linear,
}

impl Ineq {
    /// Builds `lin ≤ 0`.
    pub fn le_zero(lin: Linear) -> Ineq {
        Ineq { lin }
    }

    /// Builds `a ≤ b` as `a − b ≤ 0`.
    pub fn le(a: Linear, b: Linear) -> Ineq {
        Ineq { lin: a.sub(&b) }
    }

    /// Builds `a < b` as `a − b + 1 ≤ 0` (exact over the integers).
    pub fn lt(a: Linear, b: Linear) -> Ineq {
        Ineq { lin: a.sub(&b).add(&Linear::constant(1)) }
    }

    /// The underlying linear form (`self` means `lin ≤ 0`).
    pub fn linear(&self) -> &Linear {
        &self.lin
    }

    /// `true` if the inequality is variable-free and violated (`c ≤ 0` with
    /// `c > 0`).
    pub fn is_contradiction(&self) -> bool {
        self.lin.is_constant() && self.lin.constant_term() > 0
    }

    /// `true` if the inequality is variable-free and trivially satisfied.
    pub fn is_trivial(&self) -> bool {
        self.lin.is_constant() && self.lin.constant_term() <= 0
    }

    /// Integer tightening: divide variable coefficients by their GCD `g` and
    /// replace the constant by `⌈c/g⌉` (for the `lin ≤ 0` orientation).
    ///
    /// Writing the inequality as `Σ aᵢxᵢ ≤ -c`, the tightened form is
    /// `Σ (aᵢ/g) xᵢ ≤ ⌊-c/g⌋`, which in `≤ 0` orientation has constant
    /// `-⌊-c/g⌋ = ⌈c/g⌉`.
    pub fn tighten(&self) -> Ineq {
        let g = self.lin.coeff_gcd();
        if g <= 1 {
            return self.clone();
        }
        let mut out = Linear::zero();
        for (v, c) in self.lin.terms() {
            out.add_term(v.clone(), c / g);
        }
        // ceil(c / g) for possibly negative c.
        let c = self.lin.constant_term();
        let ceil = if c >= 0 { (c + g - 1) / g } else { -((-c) / g) };
        out.add_constant(ceil);
        Ineq { lin: out }
    }

    /// Evaluates the inequality under an assignment.
    pub fn holds(&self, env: &dyn Fn(&Var) -> Option<i64>) -> Option<bool> {
        Some(self.lin.eval(env)? <= 0)
    }
}

impl fmt::Display for Ineq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <= 0", self.lin)
    }
}

/// Result of a refutation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuteResult {
    /// The system has no integer solution (a contradiction was derived).
    Refuted,
    /// Elimination completed without contradiction: the rational relaxation
    /// (after tightening) is satisfiable, so the system *may* have integer
    /// solutions. Fail-safe: the goal is not proven.
    PossiblySat,
    /// Structural resource limits (working-set size, pair combinations)
    /// hit; treated like [`RefuteResult::PossiblySat`].
    Overflow,
    /// The caller-supplied fuel budget ran out (see [`FuelMeter`]).
    FuelExhausted,
    /// The caller-supplied wall-clock deadline passed (see [`FuelMeter`]).
    DeadlineExceeded,
}

/// A per-goal resource budget threaded through refutation.
///
/// Fuel is counted in Fourier–Motzkin *pair combinations* — the unit of
/// work the elimination loop performs — so a fuel verdict is deterministic
/// across worker counts and cache configurations. The wall-clock deadline
/// is checked on the first combination and every 64 thereafter, keeping
/// `Instant::now` off the hot path; deadline verdicts are inherently
/// machine-dependent and are never cached.
#[derive(Debug)]
pub struct FuelMeter {
    fuel: Option<u64>,
    deadline: Option<Instant>,
    ticks: u32,
    spent: u64,
}

impl FuelMeter {
    /// A meter that never runs out.
    pub fn unlimited() -> FuelMeter {
        FuelMeter { fuel: None, deadline: None, ticks: 0, spent: 0 }
    }

    /// A meter with `fuel` combinations and a deadline `budget` from now.
    /// `None` leaves the corresponding dimension unbounded.
    pub fn new(fuel: Option<u64>, budget: Option<Duration>) -> FuelMeter {
        FuelMeter { fuel, deadline: budget.map(|d| Instant::now() + d), ticks: 0, spent: 0 }
    }

    /// Combinations charged so far (counted even on an unlimited meter).
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Fuel left, or `None` on an unlimited meter.
    pub fn remaining(&self) -> Option<u64> {
        self.fuel
    }

    /// Charges one combination. Returns the exhausted dimension, if any
    /// (fuel is checked first, so fuel verdicts stay deterministic even
    /// when a deadline is also set).
    fn charge(&mut self) -> Option<RefuteResult> {
        if let Some(fuel) = &mut self.fuel {
            if *fuel == 0 {
                return Some(RefuteResult::FuelExhausted);
            }
            *fuel -= 1;
        }
        if let Some(deadline) = self.deadline {
            // Checked on the first combination and every 64 thereafter,
            // keeping `Instant::now` off the hot path.
            self.ticks = self.ticks.wrapping_add(1);
            if self.ticks % 64 == 1 && Instant::now() >= deadline {
                return Some(RefuteResult::DeadlineExceeded);
            }
        }
        self.spent += 1;
        None
    }
}

/// Elimination gives up with [`RefuteResult::Overflow`] when the working
/// set exceeds this many inequalities …
const MAX_INEQS: usize = 50_000;
/// … or after this many pair combinations.
const MAX_COMBINATIONS: usize = 2_000_000;

/// Trace sink handed to [`System::refute_traced`]: a per-goal event buffer
/// plus the stable variable-name map used in emitted events.
///
/// The map translates worker-generated lowering variables (whose raw
/// display names embed worker-dependent ids) into positional names
/// (`$1`, `$2`, …) assigned in id order within the goal, so emitted events
/// are byte-identical across worker counts.
#[derive(Debug)]
pub struct RefuteTrace<'a> {
    /// Buffer receiving this system's events, in emission order.
    pub events: &'a mut Vec<TraceEvent>,
    /// Stable display name for every variable the system mentions.
    pub names: &'a HashMap<Var, String>,
}

impl RefuteTrace<'_> {
    fn name(&self, v: &Var) -> String {
        self.names.get(v).cloned().unwrap_or_else(|| v.to_string())
    }
}

/// A conjunction of inequalities `lin ≤ 0`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct System {
    ineqs: Vec<Ineq>,
}

impl System {
    /// The empty (trivially satisfiable) system.
    pub fn new() -> System {
        System::default()
    }

    /// Adds an inequality.
    pub fn push(&mut self, ineq: Ineq) {
        self.ineqs.push(ineq);
    }

    /// Adds the equation `a = b` as two inequalities.
    pub fn push_eq(&mut self, a: Linear, b: Linear) {
        self.ineqs.push(Ineq::le(a.clone(), b.clone()));
        self.ineqs.push(Ineq::le(b, a));
    }

    /// The inequalities of the system.
    pub fn ineqs(&self) -> &[Ineq] {
        &self.ineqs
    }

    /// Number of inequalities.
    pub fn len(&self) -> usize {
        self.ineqs.len()
    }

    /// `true` if the system has no inequalities.
    pub fn is_empty(&self) -> bool {
        self.ineqs.is_empty()
    }

    /// All variables mentioned.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        for i in &self.ineqs {
            for v in i.linear().vars() {
                out.insert(v.clone());
            }
        }
        out
    }

    /// Checks whether an assignment satisfies every inequality.
    pub fn satisfied_by(&self, env: &dyn Fn(&Var) -> Option<i64>) -> Option<bool> {
        for i in &self.ineqs {
            if !i.holds(env)? {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Attempts to refute the system (prove it has no integer solution) by
    /// Fourier–Motzkin elimination, with integer tightening when `tighten`
    /// is set.
    ///
    /// Returns the result together with the number of pair combinations
    /// performed (for solver statistics). Equivalent to
    /// [`System::refute_traced`] with an unlimited [`FuelMeter`] and no
    /// trace sink.
    pub fn refute(&self, tighten: bool) -> (RefuteResult, usize) {
        self.refute_traced(tighten, &mut FuelMeter::unlimited(), None)
    }

    /// [`System::refute`] under a caller-supplied resource budget, with an
    /// optional trace sink.
    ///
    /// The meter is charged once per pair combination *before* the
    /// combination is performed, so a meter with `fuel = 0` cannot do any
    /// elimination work (contradictions already present in the input are
    /// still detected — they cost nothing). The same meter can be shared
    /// across the disjunct systems of one goal to give the goal a single
    /// overall budget.
    ///
    /// When `trace` is supplied, every tightening pass, elimination round
    /// (with its combined-pair count), and derived contradiction is pushed
    /// onto the sink's event buffer, with variables named through the
    /// sink's stable name map. The traced and untraced paths perform the
    /// identical elimination — tracing only observes.
    pub fn refute_traced(
        &self,
        tighten: bool,
        meter: &mut FuelMeter,
        mut trace: Option<&mut RefuteTrace<'_>>,
    ) -> (RefuteResult, usize) {
        let mut work: Vec<Ineq> = Vec::with_capacity(self.ineqs.len());
        let mut input_tightened = 0u64;
        for i in &self.ineqs {
            let i = if tighten {
                let t = i.tighten();
                if t != *i {
                    input_tightened += 1;
                }
                t
            } else {
                i.clone()
            };
            if i.is_contradiction() {
                if let Some(t) = trace.as_mut() {
                    if input_tightened > 0 {
                        t.events.push(TraceEvent::Tightened { count: input_tightened });
                    }
                    t.events.push(TraceEvent::Contradiction { ineq: i.to_string() });
                }
                return (RefuteResult::Refuted, 0);
            }
            if !i.is_trivial() {
                work.push(i);
            }
        }
        if let Some(t) = trace.as_mut() {
            if input_tightened > 0 {
                t.events.push(TraceEvent::Tightened { count: input_tightened });
            }
        }
        let mut combinations = 0usize;
        loop {
            // Collect remaining variables.
            let mut vars = BTreeSet::new();
            for i in &work {
                for v in i.linear().vars() {
                    vars.insert(v.clone());
                }
            }
            let Some(target) = Self::pick_variable(&work, &vars) else {
                // No variables left and no contradiction was found.
                return (RefuteResult::PossiblySat, combinations);
            };

            let mut lowers: Vec<&Ineq> = Vec::new(); // coeff < 0
            let mut uppers: Vec<&Ineq> = Vec::new(); // coeff > 0
            let mut rest: Vec<Ineq> = Vec::new();
            for i in &work {
                let c = i.linear().coeff(&target);
                if c > 0 {
                    uppers.push(i);
                } else if c < 0 {
                    lowers.push(i);
                } else {
                    rest.push(i.clone());
                }
            }

            // Per-round counters for the `Eliminate` event; the round can
            // end early (contradiction, fuel, overflow), in which case the
            // event records the pairs actually combined.
            let mut round_pairs = 0u64;
            let mut round_tightened = 0u64;
            let emit_round =
                |trace: &mut Option<&mut RefuteTrace<'_>>, pairs: u64, tightened: u64| {
                    if let Some(t) = trace.as_mut() {
                        let var = t.name(&target);
                        t.events.push(TraceEvent::Eliminate {
                            var,
                            uppers: uppers.len(),
                            lowers: lowers.len(),
                            pairs,
                            tightened,
                        });
                    }
                };

            for up in &uppers {
                for lo in &lowers {
                    if let Some(spent) = meter.charge() {
                        emit_round(&mut trace, round_pairs, round_tightened);
                        return (spent, combinations);
                    }
                    combinations += 1;
                    round_pairs += 1;
                    if combinations > MAX_COMBINATIONS {
                        emit_round(&mut trace, round_pairs, round_tightened);
                        return (RefuteResult::Overflow, combinations);
                    }
                    let a = up.linear().coeff(&target); // a > 0
                    let b = -lo.linear().coeff(&target); // b > 0
                                                         // b·up + a·lo eliminates `target`.
                    let combined = up.linear().scale(b).add(&lo.linear().scale(a));
                    debug_assert_eq!(combined.coeff(&target), 0);
                    let mut ineq = Ineq::le_zero(combined);
                    if tighten {
                        let t = ineq.tighten();
                        if t != ineq {
                            round_tightened += 1;
                        }
                        ineq = t;
                    }
                    if ineq.is_contradiction() {
                        emit_round(&mut trace, round_pairs, round_tightened);
                        if let Some(t) = trace.as_mut() {
                            t.events.push(TraceEvent::Contradiction { ineq: ineq.to_string() });
                        }
                        return (RefuteResult::Refuted, combinations);
                    }
                    if !ineq.is_trivial() {
                        rest.push(ineq);
                    }
                }
            }
            emit_round(&mut trace, round_pairs, round_tightened);
            if rest.len() > MAX_INEQS {
                return (RefuteResult::Overflow, combinations);
            }
            // Deduplicate to keep the working set small. The structural
            // sort (variable-id order) replaces an earlier sort keyed on
            // `format!`-rendered strings, which allocated two strings per
            // comparison on every elimination round.
            rest.sort_unstable();
            rest.dedup();
            work = rest;
            if work.is_empty() {
                return (RefuteResult::PossiblySat, combinations);
            }
        }
    }

    /// Chooses the elimination variable minimising the number of new
    /// inequalities (`#uppers × #lowers`), the classic greedy heuristic.
    fn pick_variable(work: &[Ineq], vars: &BTreeSet<Var>) -> Option<Var> {
        let mut best: Option<(Var, usize)> = None;
        for v in vars {
            let mut ups = 0usize;
            let mut los = 0usize;
            for i in work {
                let c = i.linear().coeff(v);
                if c > 0 {
                    ups += 1;
                } else if c < 0 {
                    los += 1;
                }
            }
            let cost = ups * los;
            match &best {
                Some((_, c)) if *c <= cost => {}
                _ => best = Some((v.clone(), cost)),
            }
        }
        best.map(|(v, _)| v)
    }
}

impl FromIterator<Ineq> for System {
    fn from_iter<T: IntoIterator<Item = Ineq>>(iter: T) -> Self {
        System { ineqs: iter.into_iter().collect() }
    }
}

impl Extend<Ineq> for System {
    fn extend<T: IntoIterator<Item = Ineq>>(&mut self, iter: T) {
        self.ineqs.extend(iter);
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, i) in self.ineqs.iter().enumerate() {
            if k > 0 {
                writeln!(f)?;
            }
            write!(f, "{i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dml_index::VarGen;

    fn lv(v: &Var) -> Linear {
        Linear::var(v.clone())
    }

    fn k(c: i64) -> Linear {
        Linear::constant(c)
    }

    #[test]
    fn tighten_matches_paper() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let y = g.fresh("y");
        // 2x + 2y ≤ 1  has no integer solutions with x + y ≥ 1; tightened it
        // becomes x + y ≤ 0.
        let i = Ineq::le(lv(&x).scale(2).add(&lv(&y).scale(2)), k(1));
        let t = i.tighten();
        assert_eq!(t, Ineq::le(lv(&x).add(&lv(&y)), k(0)));
    }

    #[test]
    fn tighten_negative_constant() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        // 3x ≤ -2  →  x ≤ ⌊-2/3⌋ = -1.
        let i = Ineq::le(lv(&x).scale(3), k(-2));
        let t = i.tighten();
        assert_eq!(t, Ineq::le(lv(&x), k(-1)));
    }

    #[test]
    fn tighten_identity_when_gcd_one() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let y = g.fresh("y");
        let i = Ineq::le(lv(&x).scale(2).add(&lv(&y).scale(3)), k(5));
        assert_eq!(i.tighten(), i);
    }

    #[test]
    fn refute_simple_contradiction() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let mut s = System::new();
        // x ≤ 0 and x ≥ 1.
        s.push(Ineq::le(lv(&x), k(0)));
        s.push(Ineq::le(k(1), lv(&x)));
        let (r, _) = s.refute(true);
        assert_eq!(r, RefuteResult::Refuted);
    }

    #[test]
    fn satisfiable_system_not_refuted() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let y = g.fresh("y");
        let mut s = System::new();
        // 0 ≤ x ≤ y ≤ 10.
        s.push(Ineq::le(k(0), lv(&x)));
        s.push(Ineq::le(lv(&x), lv(&y)));
        s.push(Ineq::le(lv(&y), k(10)));
        let (r, _) = s.refute(true);
        assert_eq!(r, RefuteResult::PossiblySat);
    }

    #[test]
    fn tightening_refutes_integer_infeasible() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        // 1 ≤ 2x ≤ 1: rationally satisfiable (x = 1/2), integrally not.
        let mut s = System::new();
        s.push(Ineq::le(k(1), lv(&x).scale(2)));
        s.push(Ineq::le(lv(&x).scale(2), k(1)));
        let with = s.refute(true).0;
        assert_eq!(with, RefuteResult::Refuted);
        let without = s.refute(false).0;
        assert_eq!(without, RefuteResult::PossiblySat);
    }

    #[test]
    fn equations_as_two_ineqs() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let mut s = System::new();
        s.push_eq(lv(&x), k(3));
        s.push(Ineq::le(lv(&x), k(2)));
        let (r, _) = s.refute(true);
        assert_eq!(r, RefuteResult::Refuted);
    }

    #[test]
    fn strict_inequality_exact_over_integers() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        // x < 1 and x > 0 has no integer solution.
        let mut s = System::new();
        s.push(Ineq::lt(lv(&x), k(1)));
        s.push(Ineq::lt(k(0), lv(&x)));
        let (r, _) = s.refute(true);
        assert_eq!(r, RefuteResult::Refuted);
    }

    #[test]
    fn multi_variable_chain_refutation() {
        let mut g = VarGen::new();
        let vars: Vec<Var> = (0..6).map(|i| g.fresh(&format!("v{i}"))).collect();
        let mut s = System::new();
        // v0 ≤ v1 ≤ ... ≤ v5 and v5 ≤ v0 - 1: a cycle with slack -1.
        for w in vars.windows(2) {
            s.push(Ineq::le(lv(&w[0]), lv(&w[1])));
        }
        s.push(Ineq::le(lv(&vars[5]).add(&k(1)), lv(&vars[0])));
        let (r, _) = s.refute(true);
        assert_eq!(r, RefuteResult::Refuted);
    }

    #[test]
    fn satisfied_by_checks_assignment() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let mut s = System::new();
        s.push(Ineq::le(k(0), lv(&x)));
        s.push(Ineq::le(lv(&x), k(5)));
        let x2 = x.clone();
        let env3 = move |w: &Var| if *w == x2 { Some(3) } else { None };
        assert_eq!(s.satisfied_by(&env3), Some(true));
        let x3 = x.clone();
        let env9 = move |w: &Var| if *w == x3 { Some(9) } else { None };
        assert_eq!(s.satisfied_by(&env9), Some(false));
    }

    #[test]
    fn empty_system_possibly_sat() {
        let s = System::new();
        assert_eq!(s.refute(true).0, RefuteResult::PossiblySat);
    }

    #[test]
    fn contradiction_on_input_detected_immediately() {
        let mut s = System::new();
        s.push(Ineq::le(k(1), k(0)));
        let (r, combos) = s.refute(true);
        assert_eq!(r, RefuteResult::Refuted);
        assert_eq!(combos, 0);
    }

    #[test]
    fn display_forms() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let i = Ineq::le(lv(&x), k(3));
        assert_eq!(i.to_string(), "x - 3 <= 0");
    }

    /// With zero fuel no combination can be performed, but contradictions
    /// already present in the input are still free.
    #[test]
    fn zero_fuel_blocks_elimination_but_not_input_contradictions() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let mut s = System::new();
        s.push(Ineq::le(lv(&x), k(0)));
        s.push(Ineq::le(k(1), lv(&x)));
        let mut dry = FuelMeter::new(Some(0), None);
        assert_eq!(s.refute_traced(true, &mut dry, None).0, RefuteResult::FuelExhausted);

        let mut contradiction = System::new();
        contradiction.push(Ineq::le(k(1), k(0)));
        let mut dry = FuelMeter::new(Some(0), None);
        assert_eq!(
            contradiction.refute_traced(true, &mut dry, None).0,
            RefuteResult::Refuted,
            "input contradictions cost nothing"
        );
    }

    /// Fuel is monotone: once a refutation completes under some budget, a
    /// larger budget returns the identical result and combination count.
    #[test]
    fn fuel_is_monotone_on_chain_refutation() {
        let mut g = VarGen::new();
        let vars: Vec<Var> = (0..6).map(|i| g.fresh(&format!("v{i}"))).collect();
        let mut s = System::new();
        for w in vars.windows(2) {
            s.push(Ineq::le(lv(&w[0]), lv(&w[1])));
        }
        s.push(Ineq::le(lv(&vars[5]).add(&k(1)), lv(&vars[0])));
        let (full, combos) = s.refute(true);
        assert_eq!(full, RefuteResult::Refuted);
        assert!(combos > 0);
        let mut results = Vec::new();
        for fuel in 0..=combos as u64 + 2 {
            let mut m = FuelMeter::new(Some(fuel), None);
            results.push(s.refute_traced(true, &mut m, None).0);
        }
        for (fuel, r) in results.iter().enumerate() {
            if fuel < combos {
                assert_eq!(*r, RefuteResult::FuelExhausted, "fuel {fuel}");
            } else {
                assert_eq!(*r, RefuteResult::Refuted, "fuel {fuel}");
            }
        }
    }

    /// A shared meter spans several systems: work done on the first leaves
    /// less for the second.
    #[test]
    fn shared_meter_spans_systems() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let mut s = System::new();
        s.push(Ineq::le(k(1), lv(&x)));
        s.push(Ineq::le(lv(&x), k(0)));
        let (_, one) = s.refute(true);
        assert!(one > 0);
        // Enough fuel for exactly one refutation, shared across two.
        let mut m = FuelMeter::new(Some(one as u64), None);
        assert_eq!(s.refute_traced(true, &mut m, None).0, RefuteResult::Refuted);
        assert_eq!(s.refute_traced(true, &mut m, None).0, RefuteResult::FuelExhausted);
    }
}
