//! Goal extraction and the top-level decision procedure.
//!
//! A [`Constraint`] is split into sequent-like [`Goal`]s `∀ctx. hyps ⊃
//! concl` by [`extract_goals`], which eliminates existential variables by
//! equality substitution on the way (§3.1: "In practice, it is crucial
//! that we eliminate all existential variables in constraints before
//! passing them to a constraint solver"). Each goal is decided by refuting
//! `hyps ∧ ¬concl` over the integers.

use crate::cache::GoalCache;
use crate::canon::{canonicalize_budgeted, BudgetClass};
use crate::dnf::{expand_ne, Dnf, DnfError};
use crate::lower::Lowering;
use crate::stats::SolverStats;
use crate::system::{FuelMeter, RefuteResult, RefuteTrace};
use dml_index::{Constraint, IExp, Linear, Prop, Sort, UnknownReason, Var, VarGen, Verdict};
use dml_obs::{GoalTrace, TraceEvent};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A proof goal `∀ctx. hyps ⊃ concl`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Goal {
    /// Universally quantified variables with their sorts.
    pub ctx: Vec<(Var, Sort)>,
    /// Hypotheses (conjunctively).
    pub hyps: Vec<Prop>,
    /// The conclusion to establish.
    pub concl: Prop,
    /// `true` if an existential variable survived elimination and was
    /// strengthened to a universal for this goal (sound; recorded for
    /// diagnostics).
    pub residual_existential: bool,
}

impl fmt::Display for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (v, s) in &self.ctx {
            write!(f, "forall {v}:{s}. ")?;
        }
        if self.hyps.is_empty() {
            write!(f, "{}", self.concl)
        } else {
            let hyps: Vec<String> = self.hyps.iter().map(|h| h.to_string()).collect();
            write!(f, "({}) ==> {}", hyps.join(" /\\ "), self.concl)
        }
    }
}

/// Options for the full solver.
///
/// The struct is `#[non_exhaustive]`: build it with
/// [`SolverOptions::default`] and the `with_*` setters so new knobs are
/// not breaking changes.
///
/// # Examples
///
/// ```
/// use dml_solver::SolverOptions;
/// use std::time::Duration;
///
/// let opts = SolverOptions::default()
///     .with_fuel(Some(10_000))                     // FM pair-combination budget
///     .with_deadline(Some(Duration::from_secs(1))) // wall-clock budget
///     .with_workers(Some(1));                      // sequential solving
/// assert_eq!(opts.fuel, Some(10_000));
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Apply integer tightening after every Fourier–Motzkin combination
    /// (§3.2, the paper's extension of Fourier's method). On by default;
    /// the ablation bench turns it off. Verdicts depend on it, so
    /// [`Solver::with_options`] never shares a cache across a change of it.
    pub tighten: bool,
    /// Number of solve workers for [`crate::parallel::prove_all`]. `None`
    /// uses the machine's available parallelism; `Some(1)` reproduces the
    /// sequential pipeline exactly (same `VarGen` consumption, same order);
    /// `Some(n)` runs `n` threads on any host, never more than there are
    /// obligations.
    pub workers: Option<usize>,
    /// Memoize goal verdicts keyed on canonical form (see [`crate::canon`]).
    /// On by default; the ablation bench turns it off.
    pub cache: bool,
    /// Per-goal fuel budget in Fourier–Motzkin pair combinations; `None`
    /// is unlimited. Running out yields `Unknown(FuelExhausted)` — the
    /// goal's check stays in the program as a residual runtime check.
    pub fuel: Option<u64>,
    /// Per-goal wall-clock deadline; `None` is unlimited. Passing it
    /// yields `Unknown(Deadline)` (never cached — wall-clock verdicts are
    /// machine-dependent).
    pub deadline: Option<Duration>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { tighten: true, workers: None, cache: true, fuel: None, deadline: None }
    }
}

impl SolverOptions {
    /// Enables or disables integer tightening.
    pub fn with_tighten(mut self, on: bool) -> Self {
        self.tighten = on;
        self
    }

    /// Requests an explicit worker count (`None` = available parallelism).
    pub fn with_workers(mut self, workers: Option<usize>) -> Self {
        self.workers = workers;
        self
    }

    /// Enables or disables the verdict cache.
    pub fn with_cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Sets the per-goal fuel budget (`None` = unlimited).
    pub fn with_fuel(mut self, fuel: Option<u64>) -> Self {
        self.fuel = fuel;
        self
    }

    /// Sets the per-goal wall-clock deadline (`None` = unlimited).
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The budget class verdicts computed under these options belong to.
    pub fn budget_class(&self) -> BudgetClass {
        match self.fuel {
            None => BudgetClass::Unlimited,
            Some(f) => BudgetClass::Fuel(f),
        }
    }
}

/// The outcome of proving a constraint: per-goal verdicts plus statistics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Each goal with its verdict, in generation order.
    pub results: Vec<(Goal, Verdict)>,
    /// Accumulated statistics.
    pub stats: SolverStats,
}

impl Outcome {
    /// `true` if every goal was proven valid.
    pub fn all_proven(&self) -> bool {
        self.results.iter().all(|(_, r)| r.is_proven())
    }

    /// The single verdict recorded per obligation: `Proven` when every
    /// goal was proven (in particular when the constraint split into no
    /// goals at all); otherwise `Refuted` if *any* goal was refuted (a
    /// counterexample trumps mere uncertainty), else the first `Unknown`.
    pub fn verdict(&self) -> Verdict {
        let mut collapsed = Verdict::Proven;
        for (_, r) in &self.results {
            match r {
                Verdict::Proven => {}
                Verdict::Refuted => return Verdict::Refuted,
                other => {
                    if collapsed.is_proven() {
                        collapsed = other.clone();
                    }
                }
            }
        }
        collapsed
    }

    /// The goals that were not proven (refuted or unknown).
    pub fn failures(&self) -> impl Iterator<Item = &(Goal, Verdict)> {
        self.results.iter().filter(|(_, r)| !r.is_proven())
    }
}

/// The constraint solver: goal extraction (existential elimination while
/// splitting) → Fourier–Motzkin refutation.
///
/// Cloning a solver *shares* its verdict cache (the cache sits behind an
/// [`Arc`]), so the compile pipeline, parallel workers, and the lint walker
/// all reuse each other's memoized verdicts.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    opts: SolverOptions,
    cache: Arc<GoalCache>,
}

impl Solver {
    /// Creates a solver with the given options and a fresh cache.
    pub fn new(opts: SolverOptions) -> Self {
        Solver { opts, cache: Arc::new(GoalCache::new()) }
    }

    /// The solver options.
    pub fn options(&self) -> &SolverOptions {
        &self.opts
    }

    /// A solver with different options but the *same* shared verdict
    /// cache. Budget classes keep entries computed under different fuel
    /// limits apart (see [`crate::canon::BudgetClass`]); a change of
    /// [`SolverOptions::tighten`], the one other option verdicts depend
    /// on, starts a fresh cache instead.
    pub fn with_options(&self, opts: SolverOptions) -> Solver {
        if opts.tighten != self.opts.tighten {
            return Solver::new(opts);
        }
        Solver { opts, cache: Arc::clone(&self.cache) }
    }

    /// The shared verdict cache.
    pub fn cache(&self) -> &GoalCache {
        &self.cache
    }

    /// Proves a constraint, returning per-goal results and statistics.
    pub fn prove(&self, c: &Constraint, gen: &mut VarGen) -> Outcome {
        let mut stats = SolverStats::default();
        let goals = extract_goals(c, &mut stats);
        let mut results = Vec::with_capacity(goals.len());
        for goal in goals {
            let r = self.decide(&goal, gen, &mut stats);
            stats.goals += 1;
            match &r {
                Verdict::Proven => stats.proven += 1,
                Verdict::Refuted => {
                    stats.refuted += 1;
                    stats.not_proven += 1;
                }
                // `Unknown` and any future verdict count as not proven —
                // the conservative direction.
                _ => stats.not_proven += 1,
            }
            results.push((goal, r));
        }
        Outcome { results, stats }
    }

    /// Decides an entailment `ctx; hyps ⊢ concl` directly, without going
    /// through constraint extraction.
    ///
    /// This is the entry point used by the semantic lints (`dml-analysis`):
    /// they re-play the hypotheses the elaborator had in scope at a program
    /// point and ask whether a candidate proposition is forced by them. Any
    /// sort guards (e.g. `0 ≤ n` for `n:nat`) must already be present in
    /// `hyps` — the context only names the universally quantified
    /// variables.
    ///
    /// ```
    /// use dml_index::{IExp, Prop, Sort, VarGen};
    /// use dml_solver::{Solver, SolverOptions};
    ///
    /// let mut gen = VarGen::new();
    /// let n = gen.fresh("n");
    /// let solver = Solver::new(SolverOptions::default());
    /// // n:int; 0 <= n, n < 5 ⊢ n <= 10
    /// let r = solver.entails(
    ///     &[(n.clone(), Sort::Int)],
    ///     &[Prop::le(IExp::lit(0), IExp::var(n.clone())),
    ///       Prop::lt(IExp::var(n.clone()), IExp::lit(5))],
    ///     &Prop::le(IExp::var(n), IExp::lit(10)),
    ///     &mut gen,
    /// );
    /// assert!(r.is_proven());
    /// ```
    pub fn entails(
        &self,
        ctx: &[(Var, Sort)],
        hyps: &[Prop],
        concl: &Prop,
        gen: &mut VarGen,
    ) -> Verdict {
        let goal = Goal {
            ctx: ctx.to_vec(),
            hyps: hyps.to_vec(),
            concl: concl.clone(),
            residual_existential: false,
        };
        let mut stats = SolverStats::default();
        self.decide(&goal, gen, &mut stats)
    }

    /// Decides a single goal, consulting the shared verdict cache after the
    /// cheap syntactic fast paths (fast-path goals never enter the cache —
    /// deciding them again is cheaper than hashing them).
    pub fn decide(&self, goal: &Goal, gen: &mut VarGen, stats: &mut SolverStats) -> Verdict {
        let start = Instant::now();
        let v = self.decide_goal(goal, gen, stats);
        stats.phase_times.goal += start.elapsed();
        v
    }

    /// Decides a single goal again and tells how: the [`GoalTrace`] of
    /// fast path or canonicalization, then every lowering, DNF and
    /// elimination step, the fuel charged, the verdict and the wall time.
    /// The verdict cache is neither read nor written, so the story is the
    /// same whatever earlier solves left in it; the verdict is the one
    /// [`Solver::decide`] reaches. `dmlc explain` and `--trace-out` call
    /// this after the compile, for the goals they print.
    pub fn explain(&self, goal: &Goal, gen: &mut VarGen) -> (Verdict, GoalTrace) {
        let start = Instant::now();
        let mut stats = SolverStats::default();
        let mut tr = GoalTrace::default();
        let v = match self.fast_path(goal) {
            Some((v, rule)) => {
                tr.push(TraceEvent::FastPath { rule });
                v
            }
            None => {
                let key = canonicalize_budgeted(goal, self.opts.budget_class());
                tr.push(TraceEvent::Canonicalized { vars: key.sorts.len(), hyps: key.hyps.len() });
                self.decide_uncached(goal, gen, &mut stats, Some(&mut tr))
            }
        };
        tr.fuel_spent = stats.fm_combinations as u64;
        tr.push(TraceEvent::Verdict { verdict: v.to_string() });
        tr.wall_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        (v, tr)
    }

    /// The cheap syntactic fast paths. Returns the verdict and the rule
    /// name (for [`TraceEvent::FastPath`]).
    fn fast_path(&self, goal: &Goal) -> Option<(Verdict, &'static str)> {
        if goal.concl == Prop::True {
            return Some((Verdict::Proven, "trivial-conclusion"));
        }
        if goal.hyps.contains(&Prop::False) {
            return Some((Verdict::Proven, "false-hypothesis"));
        }
        // Reflexive conclusions hold regardless of hypotheses (and may be
        // non-linear, e.g. `a*b = a*b` after witness substitution).
        if let Prop::Cmp(op, a, b) = &goal.concl {
            if a == b && matches!(op, dml_index::Cmp::Eq | dml_index::Cmp::Le | dml_index::Cmp::Ge)
            {
                return Some((Verdict::Proven, "reflexive"));
            }
        }
        // A hypothesis syntactically identical to the conclusion suffices.
        if goal.hyps.contains(&goal.concl) {
            return Some((Verdict::Proven, "assumption"));
        }
        None
    }

    /// The one decide path: fast paths, then the cache, then the full
    /// decision procedure.
    fn decide_goal(&self, goal: &Goal, gen: &mut VarGen, stats: &mut SolverStats) -> Verdict {
        if let Some((v, _)) = self.fast_path(goal) {
            return v;
        }
        if !self.opts.cache {
            return self.decide_uncached(goal, gen, stats, None);
        }
        // Verdicts are keyed by budget class: a fuel-truncated Unknown must
        // never masquerade as the unlimited answer (or vice versa).
        let key = canonicalize_budgeted(goal, self.opts.budget_class());
        if let Some(r) = self.cache.get(&key) {
            stats.cache_hits += 1;
            return r;
        }
        stats.cache_misses += 1;
        let r = self.decide_uncached(goal, gen, stats, None);
        // Deadline verdicts depend on wall-clock scheduling, so they are
        // recomputed every time rather than poisoning the shared cache.
        if r != Verdict::Unknown(UnknownReason::Deadline) {
            self.cache.insert(key, r.clone());
        }
        r
    }

    /// The expensive part of [`Solver::decide`]: lowering, DNF expansion,
    /// and Fourier–Motzkin refutation, with no cache consultation. `tr`
    /// receives the per-step events under [`Solver::explain`]; the decision
    /// itself is identical either way.
    fn decide_uncached(
        &self,
        goal: &Goal,
        gen: &mut VarGen,
        stats: &mut SolverStats,
        mut tr: Option<&mut GoalTrace>,
    ) -> Verdict {
        // Negate: hyps ∧ ¬concl must be integer-unsatisfiable. Non-linear
        // *hypotheses* are dropped (weakening — sound for proving, but it
        // forfeits refutation: a countermodel of the weakened system need
        // not satisfy the dropped hypothesis); a non-linear conclusion is
        // rejected per §3.2.
        let t_lower = Instant::now();
        let mut lowering = Lowering::new(gen);
        let mut lowered = Prop::True;
        let mut weakened = false;
        for h in &goal.hyps {
            let hx = expand_ne(h.clone().nnf());
            match lowering.lower_prop(&hx) {
                Ok(p) => lowered = lowered.and(p),
                Err(_) => {
                    weakened = true;
                    if let Some(t) = tr.as_deref_mut() {
                        t.push(TraceEvent::HypothesisDropped { expr: h.to_string() });
                    }
                }
            }
        }
        let neg_concl = expand_ne(goal.concl.clone().negate().nnf());
        match lowering.lower_prop(&neg_concl) {
            Ok(p) => lowered = lowered.and(p),
            Err(nl) => {
                stats.phase_times.lowering += t_lower.elapsed();
                // No elimination happened; still snapshot the (zero) fuel
                // charge so every trace carries a fuel line.
                if let Some(t) = tr.as_deref_mut() {
                    t.push(TraceEvent::Fuel { spent: 0, remaining: self.opts.fuel });
                }
                return Verdict::Unknown(UnknownReason::Nonlinear(nl.expr));
            }
        }
        let mut sides = Prop::True;
        for s in lowering.side_constraints() {
            sides = sides.and(s.clone());
        }
        let lowered_vars = lowering.fresh_count();
        stats.lowered_vars += lowered_vars;
        if lowered_vars > 0 {
            if let Some(t) = tr.as_deref_mut() {
                t.push(TraceEvent::Lowered { fresh_vars: lowered_vars });
            }
        }
        stats.phase_times.lowering += t_lower.elapsed();
        let t_dnf = Instant::now();
        // Already in NNF without `<>`: the hypotheses and the negated
        // conclusion were normalised before lowering, which keeps their
        // shape, and the side constraints are built that way.
        let formula = lowered.and(sides);
        let dnf = match Dnf::expand(&formula, MAX_DISJUNCTS) {
            Ok(d) => d,
            Err(e) => {
                stats.phase_times.dnf += t_dnf.elapsed();
                if let Some(t) = tr.as_deref_mut() {
                    t.push(TraceEvent::Fuel { spent: 0, remaining: self.opts.fuel });
                }
                match e {
                    DnfError::Overflow(_) => return Verdict::Unknown(UnknownReason::Blowup),
                    DnfError::NonLinear(nl) => {
                        return Verdict::Unknown(UnknownReason::Nonlinear(nl.expr))
                    }
                }
            }
        };
        // DNF time is the expansion plus building each system the loop
        // reaches; building is timed inside the loop and taken out of the
        // elimination time.
        let expand_time = t_dnf.elapsed();
        if let Some(t) = tr.as_deref_mut() {
            t.push(TraceEvent::Dnf { disjuncts: dnf.len() });
        }
        // Stable per-goal variable names for trace events: context
        // variables keep their display names, lowering-introduced ones get
        // positional names independent of worker id ranges.
        let names = tr.as_ref().map(|_| stable_names(goal, &dnf.vars()));
        // One meter per goal, shared across its disjunct systems: the fuel
        // budget bounds the goal's total elimination work.
        let mut meter = FuelMeter::new(self.opts.fuel, self.opts.deadline);
        let t_elim = Instant::now();
        let mut build_time = Duration::ZERO;
        let verdict = 'solve: {
            for index in 0..dnf.len() {
                let t_build = Instant::now();
                let sys = dnf.system(index);
                build_time += t_build.elapsed();
                if let Some(t) = tr.as_deref_mut() {
                    t.push(TraceEvent::SystemStart { index, ineqs: sys.len() });
                }
                let mut sink = match (tr.as_deref_mut(), names.as_ref()) {
                    (Some(t), Some(names)) => Some(RefuteTrace { events: &mut t.events, names }),
                    _ => None,
                };
                let (r, combos) = sys.refute_traced(self.opts.tighten, &mut meter, sink.as_mut());
                stats.fm_combinations += combos;
                if let Some(t) = tr.as_deref_mut() {
                    t.push(TraceEvent::Fuel { spent: meter.spent(), remaining: meter.remaining() });
                }
                match r {
                    RefuteResult::Refuted => stats.disjuncts_refuted += 1,
                    RefuteResult::PossiblySat => {
                        // A satisfiable disjunct of `hyps ∧ ¬concl` is a
                        // counterexample to the goal — but only when the
                        // system is *exactly* the goal's negation: no
                        // hypothesis was weakened away, no existential was
                        // strengthened to a universal, and no lowering
                        // variable relaxed the semantics. Within those guards
                        // a bounded exhaustive search is a sound (and
                        // deterministic) refutation certificate.
                        let exact = !weakened && !goal.residual_existential && lowered_vars == 0;
                        if exact && sys.vars().len() <= REFUTE_SEARCH_MAX_VARS {
                            let t_wit = Instant::now();
                            let sol = crate::exhaustive::find_solution(&sys, REFUTE_SEARCH_BOUND);
                            stats.phase_times.witness_search += t_wit.elapsed();
                            if let Some(sol) = sol {
                                if let Some(t) = tr.as_deref_mut() {
                                    let empty = HashMap::new();
                                    let names = names.as_ref().unwrap_or(&empty);
                                    let mut assignment: Vec<(String, i64)> = sol
                                        .iter()
                                        .map(|(v, n)| {
                                            let name = names
                                                .get(v)
                                                .cloned()
                                                .unwrap_or_else(|| v.to_string());
                                            (name, *n)
                                        })
                                        .collect();
                                    assignment.sort();
                                    t.push(TraceEvent::Witness { assignment });
                                }
                                break 'solve Verdict::Refuted;
                            }
                        }
                        break 'solve Verdict::Unknown(UnknownReason::PossiblyFalsifiable);
                    }
                    RefuteResult::Overflow => break 'solve Verdict::Unknown(UnknownReason::Blowup),
                    RefuteResult::FuelExhausted => {
                        break 'solve Verdict::Unknown(UnknownReason::FuelExhausted)
                    }
                    RefuteResult::DeadlineExceeded => {
                        break 'solve Verdict::Unknown(UnknownReason::Deadline)
                    }
                }
            }
            Verdict::Proven
        };
        stats.phase_times.dnf += expand_time + build_time;
        stats.phase_times.elimination += t_elim.elapsed().saturating_sub(build_time);
        verdict
    }
}

/// Builds the stable per-goal variable-name map used in trace events.
///
/// Context variables keep their display names (elaboration assigns those
/// deterministically before any parallel solving starts); duplicate display
/// names are disambiguated by an `@k` suffix in id order. `vars` holds
/// every variable the goal's disjunct systems mention ([`Dnf::vars`]);
/// those beyond the context are lowering-introduced: their raw
/// names embed worker-dependent ids, so they are renamed positionally
/// (`$1`, `$2`, …) in id order, which within one goal is creation order on
/// every worker.
fn stable_names(goal: &Goal, vars: &BTreeSet<Var>) -> HashMap<Var, String> {
    let mut names: HashMap<Var, String> = HashMap::new();
    let mut used: HashSet<String> = HashSet::new();
    for (v, _) in &goal.ctx {
        let mut name = v.to_string();
        if !used.insert(name.clone()) {
            let mut k = 2;
            loop {
                let candidate = format!("{name}@{k}");
                if used.insert(candidate.clone()) {
                    name = candidate;
                    break;
                }
                k += 1;
            }
        }
        names.insert(v.clone(), name);
    }
    let mut fresh = 0usize;
    for v in vars {
        if let std::collections::hash_map::Entry::Vacant(e) = names.entry(v.clone()) {
            fresh += 1;
            e.insert(format!("${fresh}"));
        }
    }
    names
}

/// A goal whose negation expands past this many DNF disjuncts is
/// `Unknown(Blowup)`.
const MAX_DISJUNCTS: usize = 256;
/// Counterexample search is capped at this many variables (the box search
/// is exponential) …
const REFUTE_SEARCH_MAX_VARS: usize = 4;
/// … and scans the box `[-8, 8]^n` (array-bound counterexamples are
/// overwhelmingly small).
const REFUTE_SEARCH_BOUND: i64 = 8;

/// Extracts the goals of a constraint in one pass. Existential variables
/// are eliminated by equality substitution (§3.1: "In practice, it is
/// crucial that we eliminate all existential variables in constraints
/// before passing them to a constraint solver"), and the witnesses are
/// applied to each hypothesis and conclusion as the constraint is split,
/// so no reduced constraint is ever built.
///
/// For each `∃v. φ`, an equation of `φ` that determines `v` gives the
/// witness: either `v = e` syntactically with `v ∉ FV(e)`, or a linear
/// equation that solves for `v` exactly (preference order on
/// `witness_from_eqs`). Any witness is sound for a positively-occurring
/// existential: proving `φ[e/v]` proves `∃v. φ`. An existential with no
/// witness is *strengthened* to a universal instead (proving `∀v.φ` proves
/// `∃v.φ`): it joins the context of the goals beneath it, which record
/// [`Goal::residual_existential`].
pub fn extract_goals(c: &Constraint, stats: &mut SolverStats) -> Vec<Goal> {
    let mut x = Extraction::default();
    x.collect(c, false);
    x.solve(stats);
    let mut walk = Walk { goals: Vec::with_capacity(x.goal_count), ..Walk::default() };
    x.split(c, &mut walk, false);
    walk.goals
}

/// An equation `a = b` of the constraint. Its sides stay borrowed until a
/// witness rewrites them; its linear form `a − b` is built only once a
/// variable-alone solve has failed, and kept until the next rewrite.
struct Equation<'c> {
    a: Cow<'c, IExp>,
    b: Cow<'c, IExp>,
    diff: OnceCell<Option<Linear>>,
}

impl Equation<'_> {
    fn linear(&self) -> Option<&Linear> {
        let diff = || Some(Linear::from_iexp(&self.a).ok()?.sub(&Linear::from_iexp(&self.b).ok()?));
        self.diff.get_or_init(diff).as_ref()
    }

    fn subst(&mut self, v: &Var, e: &IExp) {
        let (in_a, in_b) = (self.a.contains_var(v), self.b.contains_var(v));
        if in_a {
            self.a = Cow::Owned(self.a.subst(v, e));
        }
        if in_b {
            self.b = Cow::Owned(self.b.subst(v, e));
        }
        if in_a || in_b {
            self.diff = OnceCell::new();
        }
    }
}

/// A maximal run of nested existentials `∃v₁…∃vₖ. body`, with the ranges
/// its body's equations take in [`Extraction`]'s lists.
struct Chain<'c> {
    vars: Vec<(&'c Var, Sort)>,
    solved: Vec<bool>,
    hyps: Range<usize>,
    concls: Range<usize>,
}

/// The chains of one constraint, their equations and their witnesses.
#[derive(Default)]
struct Extraction<'c> {
    /// In pre-order, so a chain nested in another comes after it.
    chains: Vec<Chain<'c>>,
    /// The equations among hypotheses, then among conclusions, inside
    /// chains, each list in constraint order.
    hyp_eqs: Vec<Equation<'c>>,
    concl_eqs: Vec<Equation<'c>>,
    /// The witnesses each pass found for each chain, in the order they
    /// must be applied beneath it: within a pass, a nested chain's before
    /// its enclosing chain's.
    rounds: Vec<(usize, Vec<(Var, IExp)>)>,
    /// How many goals the constraint splits into.
    goal_count: usize,
}

/// The walk state of [`Extraction::split`].
#[derive(Default)]
struct Walk {
    ctx: Vec<(Var, Sort)>,
    hyps: Vec<Prop>,
    /// The chains enclosing the current node.
    scope: Vec<usize>,
    /// The chain the walk enters next (chains are met in pre-order).
    next_chain: usize,
    goals: Vec<Goal>,
}

impl<'c> Extraction<'c> {
    /// Records every chain and, inside chains, every equation.
    fn collect(&mut self, c: &'c Constraint, in_chain: bool) {
        match c {
            Constraint::Prop(p) => {
                let concls = p.conjuncts();
                self.goal_count += concls.len();
                if in_chain {
                    push_equations(concls, &mut self.concl_eqs);
                }
            }
            Constraint::And(cs) => cs.iter().for_each(|c| self.collect(c, in_chain)),
            Constraint::Implies(p, c) => {
                if in_chain {
                    push_equations(p.conjuncts(), &mut self.hyp_eqs);
                }
                self.collect(c, in_chain);
            }
            Constraint::Forall(_, _, c) => self.collect(c, in_chain),
            Constraint::Exists(..) => {
                let mut vars = Vec::new();
                let mut body = c;
                while let Constraint::Exists(v, s, b) = body {
                    vars.push((v, *s));
                    body = b;
                }
                let (h, k, idx) = (self.hyp_eqs.len(), self.concl_eqs.len(), self.chains.len());
                let solved = vec![false; vars.len()];
                self.chains.push(Chain { vars, solved, hyps: h..h, concls: k..k });
                self.collect(body, true);
                self.chains[idx].hyps.end = self.hyp_eqs.len();
                self.chains[idx].concls.end = self.concl_eqs.len();
            }
        }
    }

    /// Finds the witnesses. A witness of one chain can pin down a residual
    /// of a chain nested in it (by making a product linear, say), so
    /// passes repeat while residuals remain and the last pass solved any.
    fn solve(&mut self, stats: &mut SolverStats) {
        let residual_base = stats.existentials_residual;
        self.pass(stats);
        while self.chains.iter().any(|chain| chain.solved.contains(&false)) {
            let before = stats.existentials_eliminated;
            // Each pass counts every residual it sees; count the last.
            stats.existentials_residual = residual_base;
            self.pass(stats);
            if stats.existentials_eliminated == before {
                break;
            }
        }
    }

    /// One pass over the chains, nested ones first. Within a chain,
    /// variables are tried innermost first, and the search restarts from
    /// the innermost after every success: a witness can pin down a
    /// variable that had none. Each witness is applied to the chain's
    /// equations at once, and to the earlier witnesses, so a round is one
    /// simultaneous substitution.
    fn pass(&mut self, stats: &mut SolverStats) {
        for (ci, chain) in self.chains.iter_mut().enumerate().rev() {
            let hyps = &mut self.hyp_eqs[chain.hyps.clone()];
            let concls = &mut self.concl_eqs[chain.concls.clone()];
            let mut round: Vec<(Var, IExp)> = Vec::new();
            while let Some((idx, e)) = (0..chain.vars.len())
                .rev()
                .filter(|&i| !chain.solved[i])
                .find_map(|i| Some((i, witness_from_eqs(chain.vars[i].0, hyps, concls)?)))
            {
                let v = chain.vars[idx].0;
                stats.existentials_eliminated += 1;
                for (_, w) in round.iter_mut().filter(|(_, w)| w.contains_var(v)) {
                    *w = w.subst(v, &e);
                }
                for eq in hyps.iter_mut().chain(concls.iter_mut()) {
                    eq.subst(v, &e);
                }
                round.push((v.clone(), e));
                chain.solved[idx] = true;
            }
            stats.existentials_residual += chain.solved.iter().filter(|s| !**s).count();
            if !round.is_empty() {
                self.rounds.push((ci, round));
            }
        }
    }

    /// `p` with every round of the enclosing chains applied, in order.
    fn substituted(&self, p: &Prop, scope: &[usize]) -> Prop {
        let mut out: Option<Prop> = None;
        for (_, round) in self.rounds.iter().filter(|(ci, _)| scope.contains(ci)) {
            out = Some(out.as_ref().unwrap_or(p).subst_many(round));
        }
        out.unwrap_or_else(|| p.clone())
    }

    /// Splits the constraint into goals, substituting as it goes.
    fn split(&self, c: &Constraint, w: &mut Walk, residual: bool) {
        match c {
            Constraint::Prop(p) => {
                for concl in p.conjuncts() {
                    // The last goal takes the walk's context instead of a
                    // copy; no goal after it needs the context.
                    let (ctx, hyps) = if w.goals.len() + 1 == self.goal_count {
                        (std::mem::take(&mut w.ctx), std::mem::take(&mut w.hyps))
                    } else {
                        (w.ctx.clone(), w.hyps.clone())
                    };
                    w.goals.push(Goal {
                        ctx,
                        hyps,
                        concl: self.substituted(concl, &w.scope),
                        residual_existential: residual,
                    });
                }
            }
            Constraint::And(cs) => cs.iter().for_each(|c| self.split(c, w, residual)),
            Constraint::Implies(p, c) => {
                let before = w.hyps.len();
                for h in p.conjuncts() {
                    // Reflexive equalities left over from witness
                    // substitution carry no information; dropping them
                    // keeps goals tidy.
                    match self.substituted(h, &w.scope) {
                        Prop::Cmp(dml_index::Cmp::Eq, a, b) if a == b => {}
                        h => w.hyps.push(h),
                    }
                }
                self.split(c, w, residual);
                w.hyps.truncate(before);
            }
            Constraint::Forall(v, s, c) => {
                w.ctx.push((v.clone(), *s));
                self.split(c, w, residual);
                w.ctx.pop();
            }
            Constraint::Exists(..) => {
                let ci = w.next_chain;
                w.next_chain += 1;
                let chain = &self.chains[ci];
                let before = w.ctx.len();
                for (&(v, s), _) in chain.vars.iter().zip(&chain.solved).filter(|(_, done)| !**done)
                {
                    w.ctx.push((v.clone(), s));
                }
                let mut body = c;
                while let Constraint::Exists(_, _, b) = body {
                    body = b;
                }
                w.scope.push(ci);
                self.split(body, w, residual || w.ctx.len() > before);
                w.scope.pop();
                w.ctx.truncate(before);
            }
        }
    }
}

fn push_equations<'c>(conjuncts: Vec<&'c Prop>, out: &mut Vec<Equation<'c>>) {
    for q in conjuncts {
        if let Prop::Cmp(dml_index::Cmp::Eq, a, b) = q {
            out.push(Equation { a: Cow::Borrowed(a), b: Cow::Borrowed(b), diff: OnceCell::new() });
        }
    }
}

/// Witness search over a chain's equations, in preference order: (1)
/// hypothesis equations where `v` appears *alone* on one side
/// (argument/pattern defining equations — facts about actual run-time
/// values); (2) conclusion equations with `v` alone; (3) general linear
/// solves from hypotheses; (4) from conclusions. Taking a hypothesis-alone
/// equation first ensures a second, conflicting equation is checked
/// against the defining value rather than vacuously discharged.
fn witness_from_eqs(v: &Var, hyps: &[Equation], concls: &[Equation]) -> Option<IExp> {
    let eqs = || hyps.iter().chain(concls);
    eqs()
        .find_map(|eq| solve_alone(v, &eq.a, &eq.b))
        .or_else(|| eqs().find_map(|eq| solve_linear(v, eq.linear()?)))
}

/// Solves a linear equation `lin = 0` for `v`: coefficient ±1, or a larger
/// coefficient when the remainder divides exactly (`4q' = 4q + 4` gives
/// `q' = q + 1`).
fn solve_linear(v: &Var, lin: &Linear) -> Option<IExp> {
    let coeff = lin.coeff(v);
    if coeff == 0 {
        return None;
    }
    let mut rest = lin.clone();
    rest.add_term(v.clone(), -coeff);
    // coeff·v + rest = 0  →  v = -rest/coeff.
    Some(rest.scale(-1).div_exact(coeff)?.to_iexp())
}

/// Solves `a = b` for `v` when `v` is exactly one side and absent from the
/// other. This also covers non-linear right-hand sides like
/// `(h - l) div 2`.
fn solve_alone(v: &Var, a: &IExp, b: &IExp) -> Option<IExp> {
    match (a, b) {
        (IExp::Var(w), e) | (e, IExp::Var(w)) if w == v && !e.contains_var(v) => Some(e.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dml_index::Cmp;

    fn solver() -> Solver {
        Solver::new(SolverOptions::default())
    }

    /// Figure 2's first clause: ∀n:nat. ∃M.∃N. (M = 0 ∧ N = n) ⊃ M + N = n.
    #[test]
    fn reverse_first_clause_constraint() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let m_ = g.fresh_tagged("M");
        let n_ = g.fresh_tagged("N");
        let inner = Constraint::Implies(
            Prop::eq(IExp::var(m_.clone()), IExp::lit(0))
                .and(Prop::eq(IExp::var(n_.clone()), IExp::var(n.clone()))),
            Box::new(Constraint::Prop(Prop::eq(
                IExp::var(m_.clone()) + IExp::var(n_.clone()),
                IExp::var(n.clone()),
            ))),
        );
        let c = Constraint::Forall(
            n.clone(),
            Sort::Int,
            Box::new(Constraint::Implies(
                Prop::le(IExp::lit(0), IExp::var(n.clone())),
                Box::new(Constraint::Exists(
                    m_,
                    Sort::Int,
                    Box::new(Constraint::Exists(n_, Sort::Int, Box::new(inner))),
                )),
            )),
        );
        let outcome = solver().prove(&c, &mut g);
        assert!(outcome.all_proven(), "{:?}", outcome.results);
        assert_eq!(outcome.stats.existentials_eliminated, 2);
    }

    /// Figure 2's second clause: ∀m,n:nat. (m+1) + n = m + (n+1).
    #[test]
    fn reverse_second_clause_constraint() {
        let mut g = VarGen::new();
        let m = g.fresh("m");
        let n = g.fresh("n");
        let c = Constraint::Forall(
            m.clone(),
            Sort::Int,
            Box::new(Constraint::Forall(
                n.clone(),
                Sort::Int,
                Box::new(Constraint::Prop(Prop::eq(
                    (IExp::var(m.clone()) + IExp::lit(1)) + IExp::var(n.clone()),
                    IExp::var(m) + (IExp::var(n) + IExp::lit(1)),
                ))),
            )),
        );
        assert!(solver().prove(&c, &mut g).all_proven());
    }

    /// A Figure-4-style constraint: the binary-search midpoint stays in
    /// bounds: ∀h,l,size. (0 ≤ h+1 ≤ size ∧ 0 ≤ l ≤ size ∧ h ≥ l)
    /// ⊃ l + (h−l) div 2 + 1 ≤ size.
    #[test]
    fn bsearch_midpoint_in_bounds() {
        let mut g = VarGen::new();
        let h = g.fresh("h");
        let l = g.fresh("l");
        let size = g.fresh("size");
        let hyp = Prop::le(IExp::lit(0), IExp::var(h.clone()) + IExp::lit(1))
            .and(Prop::le(IExp::var(h.clone()) + IExp::lit(1), IExp::var(size.clone())))
            .and(Prop::le(IExp::lit(0), IExp::var(l.clone())))
            .and(Prop::le(IExp::var(l.clone()), IExp::var(size.clone())))
            .and(Prop::cmp(Cmp::Ge, IExp::var(h.clone()), IExp::var(l.clone())));
        let mid =
            IExp::var(l.clone()) + (IExp::var(h.clone()) - IExp::var(l.clone())).div(IExp::lit(2));
        let concl = Prop::le(mid.clone() + IExp::lit(1), IExp::var(size.clone()));
        let c = Constraint::Forall(
            h,
            Sort::Int,
            Box::new(Constraint::Forall(
                l,
                Sort::Int,
                Box::new(Constraint::Forall(
                    size,
                    Sort::Int,
                    Box::new(Constraint::Implies(hyp, Box::new(Constraint::Prop(concl)))),
                )),
            )),
        );
        let outcome = solver().prove(&c, &mut g);
        assert!(outcome.all_proven(), "{:?}", outcome.results);
    }

    /// Midpoint non-negativity: same hypotheses ⊃ 0 ≤ l + (h−l) div 2.
    #[test]
    fn bsearch_midpoint_nonnegative() {
        let mut g = VarGen::new();
        let h = g.fresh("h");
        let l = g.fresh("l");
        let size = g.fresh("size");
        let hyp = Prop::le(IExp::lit(0), IExp::var(h.clone()) + IExp::lit(1))
            .and(Prop::le(IExp::var(h.clone()) + IExp::lit(1), IExp::var(size.clone())))
            .and(Prop::le(IExp::lit(0), IExp::var(l.clone())))
            .and(Prop::cmp(Cmp::Ge, IExp::var(h.clone()), IExp::var(l.clone())));
        let mid =
            IExp::var(l.clone()) + (IExp::var(h.clone()) - IExp::var(l.clone())).div(IExp::lit(2));
        let c = Constraint::Forall(
            h,
            Sort::Int,
            Box::new(Constraint::Forall(
                l,
                Sort::Int,
                Box::new(Constraint::Forall(
                    size,
                    Sort::Int,
                    Box::new(Constraint::Implies(
                        hyp,
                        Box::new(Constraint::Prop(Prop::le(IExp::lit(0), mid))),
                    )),
                )),
            )),
        );
        assert!(solver().prove(&c, &mut g).all_proven());
    }

    /// An invalid goal is not proven.
    #[test]
    fn invalid_goal_not_proven() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        // ∀n. 0 ≤ n ⊃ n ≤ 5 — false.
        let c = Constraint::Forall(
            n.clone(),
            Sort::Int,
            Box::new(Constraint::Implies(
                Prop::le(IExp::lit(0), IExp::var(n.clone())),
                Box::new(Constraint::Prop(Prop::le(IExp::var(n), IExp::lit(5)))),
            )),
        );
        let outcome = solver().prove(&c, &mut g);
        assert!(!outcome.all_proven());
        assert_eq!(outcome.stats.not_proven, 1);
        // The counterexample (e.g. n = 6) is inside the search box, the
        // goal needed no weakening or lowering, so it is outright refuted.
        assert_eq!(outcome.results[0].1, Verdict::Refuted);
        assert_eq!(outcome.stats.refuted, 1);
    }

    #[test]
    fn nonlinear_goal_rejected() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let b = g.fresh("b");
        // ∀a,b. a·b = b·a — true but non-linear, rejected per §3.2.
        let c = Constraint::Forall(
            a.clone(),
            Sort::Int,
            Box::new(Constraint::Forall(
                b.clone(),
                Sort::Int,
                Box::new(Constraint::Prop(Prop::eq(
                    IExp::var(a.clone()) * IExp::var(b.clone()),
                    IExp::var(b) * IExp::var(a),
                ))),
            )),
        );
        let outcome = solver().prove(&c, &mut g);
        let (_, r) = &outcome.results[0];
        assert!(matches!(r, Verdict::Unknown(UnknownReason::Nonlinear(_))));
    }

    #[test]
    fn residual_existential_not_proven() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        // ∃n. n ≤ 3 — no defining equation, so elimination fails (even
        // though the formula is true; the paper's method has the same
        // limitation, by design).
        let c = Constraint::Exists(
            n.clone(),
            Sort::Int,
            Box::new(Constraint::Prop(Prop::le(IExp::var(n), IExp::lit(3)))),
        );
        let outcome = solver().prove(&c, &mut g);
        // The residual existential is strengthened to a universal, under
        // which `n <= 3` is falsifiable.
        assert!(matches!(
            outcome.results[0].1,
            Verdict::Unknown(UnknownReason::PossiblyFalsifiable)
        ));
        assert_eq!(outcome.stats.existentials_residual, 1);
    }

    #[test]
    fn existential_solved_from_conclusion_equation() {
        let mut g = VarGen::new();
        let m = g.fresh("m");
        let e = g.fresh_tagged("E");
        // ∀m. ∃E. (E = m + 1 ∧ E ≤ m + 2)
        let c = Constraint::Forall(
            m.clone(),
            Sort::Int,
            Box::new(Constraint::Exists(
                e.clone(),
                Sort::Int,
                Box::new(Constraint::Prop(
                    Prop::eq(IExp::var(e.clone()), IExp::var(m.clone()) + IExp::lit(1))
                        .and(Prop::le(IExp::var(e), IExp::var(m) + IExp::lit(2))),
                )),
            )),
        );
        let outcome = solver().prove(&c, &mut g);
        assert!(outcome.all_proven(), "{:?}", outcome.results);
    }

    #[test]
    fn existential_witness_through_nonlinear_rhs() {
        let mut g = VarGen::new();
        let h = g.fresh("h");
        let e = g.fresh_tagged("E");
        // ∀h. 0 ≤ h ⊃ ∃E. (E = h div 2 ⊃ E ≤ h)
        let c = Constraint::Forall(
            h.clone(),
            Sort::Int,
            Box::new(Constraint::Implies(
                Prop::le(IExp::lit(0), IExp::var(h.clone())),
                Box::new(Constraint::Exists(
                    e.clone(),
                    Sort::Int,
                    Box::new(Constraint::Implies(
                        Prop::eq(IExp::var(e.clone()), IExp::var(h.clone()).div(IExp::lit(2))),
                        Box::new(Constraint::Prop(Prop::le(IExp::var(e), IExp::var(h)))),
                    )),
                )),
            )),
        );
        let outcome = solver().prove(&c, &mut g);
        assert!(outcome.all_proven(), "{:?}", outcome.results);
    }

    #[test]
    fn goal_display_readable() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let goal = Goal {
            ctx: vec![(n.clone(), Sort::Int)],
            hyps: vec![Prop::le(IExp::lit(0), IExp::var(n.clone()))],
            concl: Prop::eq(IExp::lit(0) + IExp::var(n.clone()), IExp::var(n)),
            residual_existential: false,
        };
        assert_eq!(goal.to_string(), "forall n:int. (0 <= n) ==> 0 + n = n");
    }

    /// Goal extraction with its two existential counters.
    fn extract(c: &Constraint) -> (Vec<Goal>, usize, usize) {
        let mut stats = SolverStats::default();
        let goals = extract_goals(c, &mut stats);
        (goals, stats.existentials_eliminated, stats.existentials_residual)
    }

    fn goal(ctx: &[&Var], hyps: Vec<Prop>, concl: Prop, residual: bool) -> Goal {
        Goal {
            ctx: ctx.iter().map(|v| ((*v).clone(), Sort::Int)).collect(),
            hyps,
            concl,
            residual_existential: residual,
        }
    }

    fn v(x: &Var) -> IExp {
        IExp::var(x.clone())
    }

    fn implies(p: Prop, c: Constraint) -> Constraint {
        Constraint::Implies(p, Box::new(c))
    }

    fn forall(x: &Var, c: Constraint) -> Constraint {
        Constraint::Forall(x.clone(), Sort::Int, Box::new(c))
    }

    fn exists(x: &Var, c: Constraint) -> Constraint {
        Constraint::Exists(x.clone(), Sort::Int, Box::new(c))
    }

    #[test]
    fn conjunctions_split_into_goals() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let p = Prop::le(IExp::lit(0), IExp::var(n.clone()));
        let c = Constraint::Forall(
            n.clone(),
            Sort::Int,
            Box::new(Constraint::And(vec![
                Constraint::Prop(p.clone().and(p.clone())),
                Constraint::Prop(p),
            ])),
        );
        assert_eq!(extract(&c).0.len(), 3, "conjunctions split into goals");
    }

    /// `∀n. ∃a. a = n ⊃ (0 ≤ n ⊃ ∃b. b = a + 1 ⊃ b ≤ n + 1)`: the inner
    /// chain `∃b` is separated from `∃a` by an implication. It is solved
    /// first (`b := a + 1`), then `a := n` from the outer body, whose
    /// equations already carry the inner witness.
    #[test]
    fn separated_inner_chain_is_solved_first() {
        let mut g = VarGen::new();
        let (n, a, b) = (g.fresh("n"), g.fresh_tagged("a"), g.fresh_tagged("b"));
        let inner = exists(
            &b,
            implies(
                Prop::eq(v(&b), v(&a) + IExp::lit(1)),
                Constraint::Prop(Prop::le(v(&b), v(&n) + IExp::lit(1))),
            ),
        );
        let c = forall(
            &n,
            exists(
                &a,
                implies(Prop::eq(v(&a), v(&n)), implies(Prop::le(IExp::lit(0), v(&n)), inner)),
            ),
        );
        let expected = goal(
            &[&n],
            vec![Prop::le(IExp::lit(0), v(&n))],
            Prop::le(v(&n) + IExp::lit(1), v(&n) + IExp::lit(1)),
            false,
        );
        assert_eq!(extract(&c), (vec![expected], 2, 0));
    }

    /// `∀n. ∃a. a = 2 ⊃ ∃b. a·b = 6 ⊃ b ≤ n`: the inner chain has no
    /// witness for `b` while `a·b` is non-linear, so `b` is residual after
    /// the first pass. The outer witness `a := 2` makes `2·b = 6` linear,
    /// and the second pass solves `b := 3`; nothing is left residual.
    #[test]
    fn outer_witness_unlocks_an_inner_residual_on_a_second_pass() {
        let mut g = VarGen::new();
        let (n, a, b) = (g.fresh("n"), g.fresh_tagged("a"), g.fresh_tagged("b"));
        let c = forall(
            &n,
            exists(
                &a,
                implies(
                    Prop::eq(v(&a), IExp::lit(2)),
                    exists(
                        &b,
                        implies(
                            Prop::eq(v(&a) * v(&b), IExp::lit(6)),
                            Constraint::Prop(Prop::le(v(&b), v(&n))),
                        ),
                    ),
                ),
            ),
        );
        let expected = goal(
            &[&n],
            vec![Prop::eq(IExp::lit(2) * IExp::lit(3), IExp::lit(6))],
            Prop::le(IExp::lit(3), v(&n)),
            false,
        );
        assert_eq!(extract(&c), (vec![expected], 2, 0));
    }

    /// `∀n. (0 ≤ n ∧ ∃r. ∃a. ∃s. ∃c. (a = n ∧ c = r + s ⊃ r ≤ c))`: `c`
    /// and `a` are solved, `r` and `s` have no defining equation. They
    /// become context variables after `n`, outermost first, and only the
    /// goals beneath them carry the residual flag.
    #[test]
    fn residual_existentials_join_the_context_in_chain_order() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let (r, a, s, c) =
            (g.fresh_tagged("r"), g.fresh_tagged("a"), g.fresh_tagged("s"), g.fresh_tagged("c"));
        let body = implies(
            Prop::eq(v(&a), v(&n)).and(Prop::eq(v(&c), v(&r) + v(&s))),
            Constraint::Prop(Prop::le(v(&r), v(&c))),
        );
        let chain = exists(&r, exists(&a, exists(&s, exists(&c, body))));
        let nonneg = Prop::le(IExp::lit(0), v(&n));
        let constraint = forall(&n, Constraint::And(vec![Constraint::Prop(nonneg.clone()), chain]));
        let expected = vec![
            goal(&[&n], vec![], nonneg, false),
            goal(&[&n, &r, &s], vec![], Prop::le(v(&r), v(&r) + v(&s)), true),
        ];
        assert_eq!(extract(&constraint), (expected, 2, 2));
    }

    /// `∀q. ∃q'. 4q' = 4q + 4 ⊃ q' ≤ q + 1`: no side is `q'` alone, so the
    /// witness comes from the linear solve, dividing by the coefficient 4.
    #[test]
    fn linear_solve_divides_by_the_coefficient() {
        let mut g = VarGen::new();
        let (q, q2) = (g.fresh("q"), g.fresh_tagged("q'"));
        let four = || IExp::lit(4);
        let c = forall(
            &q,
            exists(
                &q2,
                implies(
                    Prop::eq(four() * v(&q2), four() * v(&q) + four()),
                    Constraint::Prop(Prop::le(v(&q2), v(&q) + IExp::lit(1))),
                ),
            ),
        );
        let witness = IExp::lit(1) + v(&q);
        let expected = goal(
            &[&q],
            vec![Prop::eq(four() * witness.clone(), four() * v(&q) + four())],
            Prop::le(witness, v(&q) + IExp::lit(1)),
            false,
        );
        assert_eq!(extract(&c), (vec![expected], 1, 0));
    }

    /// `∀m. ∃e. (e = m + 1 ∧ (e = m ⊃ e ≤ m))`: the conclusion equation
    /// comes first in the constraint, but a hypothesis with `e` alone is
    /// preferred, so `e := m` and the conclusion `m = m + 1` is checked
    /// against it instead of being discharged by its own witness.
    #[test]
    fn hypothesis_alone_equation_beats_a_conclusion_alone_one() {
        let mut g = VarGen::new();
        let (m, e) = (g.fresh("m"), g.fresh_tagged("e"));
        let c = forall(
            &m,
            exists(
                &e,
                Constraint::And(vec![
                    Constraint::Prop(Prop::eq(v(&e), v(&m) + IExp::lit(1))),
                    implies(Prop::eq(v(&e), v(&m)), Constraint::Prop(Prop::le(v(&e), v(&m)))),
                ]),
            ),
        );
        let expected = vec![
            goal(&[&m], vec![], Prop::eq(v(&m), v(&m) + IExp::lit(1)), false),
            goal(&[&m], vec![], Prop::le(v(&m), v(&m)), false),
        ];
        assert_eq!(extract(&c), (expected, 1, 0));
    }

    #[test]
    fn boolean_hypotheses_work() {
        let mut g = VarGen::new();
        let b = g.fresh("b");
        // ∀b:bool. (b ∧ ¬b) ⊃ false.
        let c = Constraint::Forall(
            b.clone(),
            Sort::Bool,
            Box::new(Constraint::Implies(
                Prop::BVar(b.clone()).and(Prop::Not(Box::new(Prop::BVar(b)))),
                Box::new(Constraint::Prop(Prop::False)),
            )),
        );
        let outcome = solver().prove(&c, &mut g);
        assert!(outcome.all_proven(), "{:?}", outcome.results);
    }

    #[test]
    fn min_max_reasoning() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let b = g.fresh("b");
        // ∀a,b. min(a,b) ≤ max(a,b).
        let c = Constraint::Forall(
            a.clone(),
            Sort::Int,
            Box::new(Constraint::Forall(
                b.clone(),
                Sort::Int,
                Box::new(Constraint::Prop(Prop::le(
                    IExp::var(a.clone()).min(IExp::var(b.clone())),
                    IExp::var(a).max(IExp::var(b)),
                ))),
            )),
        );
        assert!(solver().prove(&c, &mut g).all_proven());
    }

    #[test]
    fn abs_nonnegative() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let c = Constraint::Forall(
            a.clone(),
            Sort::Int,
            Box::new(Constraint::Prop(Prop::le(IExp::lit(0), IExp::var(a).abs()))),
        );
        assert!(solver().prove(&c, &mut g).all_proven());
    }

    #[test]
    fn mod_bounds() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        // ∀a. 0 ≤ a mod 8 < 8.
        let m = IExp::var(a.clone()).modulo(IExp::lit(8));
        let c = Constraint::Forall(
            a,
            Sort::Int,
            Box::new(Constraint::Prop(
                Prop::le(IExp::lit(0), m.clone()).and(Prop::lt(m, IExp::lit(8))),
            )),
        );
        assert!(solver().prove(&c, &mut g).all_proven());
    }

    /// Once a disjunct survives elimination the goal is decided: the
    /// disjuncts after it are never reached. `¬gray(x, y) ∧ x ≤ 5`
    /// negates to `gray(x, y) ∨ x > 5`; the first disjunct (Pugh's gray
    /// region, `27 ≤ 11x+13y ≤ 45 ∧ −10 ≤ 7x−9y ≤ 4`) has no integer point
    /// but survives FM with tightening, and has no witness in the search
    /// box either, so the goal ends `Unknown` even though the second
    /// disjunct is falsified at `x = 6`.
    #[test]
    fn open_first_disjunct_ends_the_goal() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let y = g.fresh("y");
        let e1 = IExp::lit(11) * IExp::var(x.clone()) + IExp::lit(13) * IExp::var(y.clone());
        let e2 = IExp::lit(7) * IExp::var(x.clone()) - IExp::lit(9) * IExp::var(y.clone());
        let gray = Prop::le(IExp::lit(27), e1.clone())
            .and(Prop::le(e1, IExp::lit(45)))
            .and(Prop::le(IExp::lit(-10), e2.clone()))
            .and(Prop::le(e2, IExp::lit(4)));
        let goal = Goal {
            ctx: vec![(x.clone(), Sort::Int), (y, Sort::Int)],
            hyps: vec![],
            concl: Prop::Not(Box::new(gray)).and(Prop::le(IExp::var(x), IExp::lit(5))),
            residual_existential: false,
        };
        let mut stats = SolverStats::default();
        let solver = solver();
        let v = solver.decide(&goal, &mut g, &mut stats);
        let (_, tr) = solver.explain(&goal, &mut g);
        assert_eq!(v, Verdict::Unknown(UnknownReason::PossiblyFalsifiable));
        assert_eq!(stats.disjuncts_refuted, 0);
        assert!(tr.events.contains(&TraceEvent::Dnf { disjuncts: 2 }));
        let starts =
            tr.events.iter().filter(|e| matches!(e, TraceEvent::SystemStart { .. })).count();
        assert_eq!(starts, 1, "the first disjunct ends the goal");
    }

    /// A goal whose negation expands past `MAX_DISJUNCTS` is
    /// `Unknown(Blowup)` before any elimination work is spent.
    #[test]
    fn dnf_blowup_spends_no_elimination_work() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        // Nine hypotheses `x <> i`, two disjuncts each: 2^9 = 512 > 256.
        assert_eq!(MAX_DISJUNCTS, 256);
        let goal = Goal {
            ctx: vec![(x.clone(), Sort::Int)],
            hyps: (0..9).map(|i| Prop::cmp(Cmp::Ne, IExp::var(x.clone()), IExp::lit(i))).collect(),
            concl: Prop::le(IExp::var(x), IExp::lit(100)),
            residual_existential: false,
        };
        let s = solver();
        let mut stats = SolverStats::default();
        let v = s.decide(&goal, &mut g, &mut stats);
        assert_eq!(v, Verdict::Unknown(UnknownReason::Blowup));
        assert_eq!(stats.fm_combinations, 0);
        assert_eq!(stats.disjuncts_refuted, 0);
        let (v, tr) = s.explain(&goal, &mut g);
        assert_eq!(v, Verdict::Unknown(UnknownReason::Blowup));
        assert_eq!(tr.fuel_spent, 0);
        assert!(!tr.events.iter().any(|e| matches!(e, TraceEvent::Dnf { .. })));
        // With one hypothesis fewer the expansion fits (2^8 = 256
        // disjuncts) and elimination runs.
        let mut fits = goal.clone();
        fits.hyps.pop();
        let mut stats = SolverStats::default();
        assert_ne!(
            solver().decide(&fits, &mut g, &mut stats),
            Verdict::Unknown(UnknownReason::Blowup)
        );
        assert!(stats.fm_combinations > 0);
    }

    /// Re-proving a constraint (or an alpha-variant of it) hits the verdict
    /// cache and returns identical results.
    #[test]
    fn verdict_cache_hits_on_repeat_and_alpha_variants() {
        let mut g = VarGen::new();
        let mk = |g: &mut VarGen| {
            let n = g.fresh("n");
            Constraint::Forall(
                n.clone(),
                Sort::Int,
                Box::new(Constraint::Implies(
                    Prop::le(IExp::lit(0), IExp::var(n.clone())),
                    Box::new(Constraint::Prop(Prop::le(IExp::var(n), IExp::lit(5)))),
                )),
            )
        };
        let s = solver();
        let c1 = mk(&mut g);
        let first = s.prove(&c1, &mut g);
        assert_eq!(first.stats.cache_misses, 1);
        assert_eq!(first.stats.cache_hits, 0);
        // Same constraint again: pure hit.
        let second = s.prove(&c1, &mut g);
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(second.stats.cache_misses, 0);
        // Alpha-variant (fresh variable ids): still a hit.
        let c2 = mk(&mut g);
        let third = s.prove(&c2, &mut g);
        assert_eq!(third.stats.cache_hits, 1);
        for outcome in [&second, &third] {
            assert_eq!(
                outcome.results.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
                first.results.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            );
        }
        // A clone shares the cache; a fresh solver does not.
        let cloned = s.clone();
        assert_eq!(cloned.prove(&c1, &mut g).stats.cache_hits, 1);
        assert_eq!(solver().prove(&c1, &mut g).stats.cache_misses, 1);
        // Cache off: the same solve records neither hits nor misses.
        let uncached = Solver::new(SolverOptions { cache: false, ..SolverOptions::default() });
        let cold = uncached.prove(&c1, &mut g);
        assert_eq!((cold.stats.cache_hits, cold.stats.cache_misses), (0, 0));
        assert!(uncached.cache().is_empty());
    }

    /// `entails` is hypothesis-sensitive: dropping the guard that makes the
    /// conclusion valid flips the verdict. (This is the contract the
    /// dead-branch lint relies on.)
    #[test]
    fn entailment_depends_on_hypotheses() {
        let mut g = VarGen::new();
        let i = g.fresh("i");
        let n = g.fresh("n");
        let ctx = [(i.clone(), Sort::Int), (n.clone(), Sort::Int)];
        let hyps = [
            Prop::le(IExp::lit(0), IExp::var(i.clone())),
            Prop::lt(IExp::var(i.clone()), IExp::var(n.clone())),
        ];
        let concl = Prop::lt(IExp::var(i.clone()), IExp::var(n.clone()) + IExp::lit(1));
        let s = solver();
        assert!(s.entails(&ctx, &hyps, &concl, &mut g).is_proven());
        // Without `i < n` the conclusion is falsifiable.
        assert!(!s.entails(&ctx, &hyps[..1], &concl, &mut g).is_proven());
    }

    /// `entails` can prove `⊢ false` from contradictory hypotheses — the
    /// unprovable-annotation lint's query.
    #[test]
    fn entailment_refutes_contradictory_hypotheses() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let ctx = [(n.clone(), Sort::Int)];
        let hyps = [
            Prop::lt(IExp::var(n.clone()), IExp::lit(0)),
            Prop::le(IExp::lit(0), IExp::var(n.clone())),
        ];
        let s = solver();
        assert!(s.entails(&ctx, &hyps, &Prop::False, &mut g).is_proven());
        assert!(!s.entails(&ctx, &hyps[..1], &Prop::False, &mut g).is_proven());
    }

    /// A valid chain goal that needs real elimination work:
    /// ∀v0..v5. (v0 ≤ v1 ∧ … ∧ v4 ≤ v5) ⊃ v0 ≤ v5.
    fn chain_goal(g: &mut VarGen) -> Constraint {
        let vars: Vec<Var> = (0..6).map(|i| g.fresh(&format!("v{i}"))).collect();
        let mut hyp = Prop::True;
        for w in vars.windows(2) {
            hyp = hyp.and(Prop::le(IExp::var(w[0].clone()), IExp::var(w[1].clone())));
        }
        let mut c = Constraint::Implies(
            hyp,
            Box::new(Constraint::Prop(Prop::le(
                IExp::var(vars[0].clone()),
                IExp::var(vars[5].clone()),
            ))),
        );
        for v in vars.into_iter().rev() {
            c = Constraint::Forall(v, Sort::Int, Box::new(c));
        }
        c
    }

    /// Verdicts move monotonically along `Unknown(FuelExhausted) → Proven`
    /// as fuel grows, and the unlimited budget reproduces today's verdict.
    #[test]
    fn fuel_ladder_is_monotone_to_proven() {
        let mut g = VarGen::new();
        let c = chain_goal(&mut g);
        let full = solver().prove(&c, &mut g);
        assert!(full.all_proven());
        let needed = full.stats.fm_combinations as u64;
        assert!(needed > 0, "the chain goal must need elimination work");
        let mut seen_exhausted = false;
        let mut seen_proven = false;
        for fuel in 0..=needed + 2 {
            let s = Solver::new(SolverOptions::default().with_fuel(Some(fuel)));
            let outcome = s.prove(&c, &mut g);
            match &outcome.results[0].1 {
                Verdict::Unknown(UnknownReason::FuelExhausted) => {
                    assert!(!seen_proven, "verdicts never regress as fuel grows");
                    seen_exhausted = true;
                }
                Verdict::Proven => seen_proven = true,
                other => panic!("unexpected verdict at fuel {fuel}: {other:?}"),
            }
        }
        assert!(seen_exhausted && seen_proven);
    }

    /// A falsifiable goal that needs combinations first becomes
    /// `Unknown(FuelExhausted)`, then `Refuted`, never `Proven`.
    #[test]
    fn fuel_ladder_is_monotone_to_refuted() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let b = g.fresh("b");
        // ∀a,b. (0 ≤ a ∧ a ≤ b ∧ b ≤ a+1) ⊃ b ≤ 3 — falsifiable
        // (a = b = 4), and every variable of the negation has both upper
        // and lower bounds, so refutation must pay for combinations.
        let hyp = Prop::le(IExp::lit(0), IExp::var(a.clone()))
            .and(Prop::le(IExp::var(a.clone()), IExp::var(b.clone())))
            .and(Prop::le(IExp::var(b.clone()), IExp::var(a.clone()) + IExp::lit(1)));
        let c = Constraint::Forall(
            a,
            Sort::Int,
            Box::new(Constraint::Forall(
                b.clone(),
                Sort::Int,
                Box::new(Constraint::Implies(
                    hyp,
                    Box::new(Constraint::Prop(Prop::le(IExp::var(b), IExp::lit(3)))),
                )),
            )),
        );
        let dry = Solver::new(SolverOptions::default().with_fuel(Some(0)));
        assert_eq!(
            dry.prove(&c, &mut g).results[0].1,
            Verdict::Unknown(UnknownReason::FuelExhausted)
        );
        let full = solver().prove(&c, &mut g);
        assert_eq!(full.results[0].1, Verdict::Refuted);
        assert_eq!(full.stats.refuted, 1);
    }

    /// Solvers with different fuel budgets can share one cache without
    /// observing each other's truncated verdicts.
    #[test]
    fn budget_classes_partition_a_shared_cache() {
        let mut g = VarGen::new();
        let c = chain_goal(&mut g);
        let dry = Solver::new(SolverOptions::default().with_fuel(Some(0)));
        let full = dry.with_options(SolverOptions::default());
        assert_eq!(
            dry.prove(&c, &mut g).results[0].1,
            Verdict::Unknown(UnknownReason::FuelExhausted)
        );
        assert!(full.prove(&c, &mut g).all_proven(), "no stale truncated verdict");
        assert_eq!(dry.cache().len(), 2, "one entry per budget class");
        // Both classes hit on re-query.
        assert_eq!(
            dry.prove(&c, &mut g).results[0].1,
            Verdict::Unknown(UnknownReason::FuelExhausted)
        );
        assert!(full.prove(&c, &mut g).all_proven());
    }

    /// An already-passed deadline turns work-requiring goals Unknown, and
    /// deadline verdicts never enter the cache.
    #[test]
    fn expired_deadline_is_unknown_and_uncached() {
        let mut g = VarGen::new();
        let c = chain_goal(&mut g);
        let s = Solver::new(SolverOptions::default().with_deadline(Some(Duration::ZERO)));
        let outcome = s.prove(&c, &mut g);
        assert_eq!(outcome.results[0].1, Verdict::Unknown(UnknownReason::Deadline));
        assert!(s.cache().is_empty(), "deadline verdicts are not cached");
        // A generous deadline changes nothing relative to no deadline.
        let lax =
            Solver::new(SolverOptions::default().with_deadline(Some(Duration::from_secs(3600))));
        assert!(lax.prove(&c, &mut g).all_proven());
    }

    /// The goals of `c`, as `prove` extracts them.
    fn goals_of(c: &Constraint) -> Vec<Goal> {
        extract_goals(c, &mut SolverStats::default())
    }

    /// A fast-path goal, the chain goal (real elimination), a refuted goal,
    /// a non-linear one and a DNF blowup: `explain` reaches `decide`'s
    /// verdict on each, its story ends in that verdict, and it charges
    /// the fuel `decide` charges on a fresh solver.
    #[test]
    fn explain_reaches_the_verdict_decide_does() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let le = |k: i64| Prop::le(IExp::var(x.clone()), IExp::lit(k));
        let goal = |hyps: Vec<Prop>, concl: Prop| Goal {
            ctx: vec![(x.clone(), Sort::Int)],
            hyps,
            concl,
            residual_existential: false,
        };
        let mut goals = goals_of(&chain_goal(&mut g));
        goals.push(goal(vec![le(3)], le(3)));
        goals.push(goal(vec![Prop::le(IExp::lit(0), IExp::var(x.clone()))], le(5)));
        goals.push(goal(
            vec![],
            Prop::le(IExp::var(x.clone()) * IExp::var(x.clone()), IExp::lit(9)),
        ));
        goals.push(goal(
            (0..9).map(|i| Prop::cmp(Cmp::Ne, IExp::var(x.clone()), IExp::lit(i))).collect(),
            le(100),
        ));
        for goal in &goals {
            let mut stats = SolverStats::default();
            let decided = solver().decide(goal, &mut g, &mut stats);
            let (explained, tr) = solver().explain(goal, &mut g);
            assert_eq!(explained, decided, "{goal}");
            assert_eq!(tr.verdict(), Some(decided.to_string().as_str()), "{goal}");
            assert_eq!(tr.fuel_spent, stats.fm_combinations as u64, "{goal}");
        }
        // The chain goal needs real elimination: its story must show it.
        let (_, tr) = solver().explain(&goals[0], &mut g);
        assert!(tr.events.iter().any(|e| matches!(e, TraceEvent::Eliminate { .. })));
        assert!(tr.events.iter().any(|e| matches!(e, TraceEvent::Contradiction { .. })));
        let (_, tr) = solver().explain(&goals[1], &mut g);
        assert_eq!(tr.events[0], TraceEvent::FastPath { rule: "assumption" });
    }

    /// A goal already in a warm cache gets the story it gets on a fresh
    /// solver, on one with the cache off too, and explaining it leaves
    /// the cache as it was: no lookup, no entry.
    #[test]
    fn explain_neither_reads_nor_writes_the_cache() {
        let mut g = VarGen::new();
        let c = chain_goal(&mut g);
        let goal = &goals_of(&c)[0];
        let story = |s: &Solver, g: &mut VarGen| {
            let (v, tr) = s.explain(goal, g);
            (v, tr.events, tr.fuel_spent)
        };
        let fresh = story(&solver(), &mut g.clone());
        let warm = solver();
        assert!(warm.prove(&c, &mut g).all_proven());
        let before = (warm.cache().hits(), warm.cache().misses(), warm.cache().len());
        assert_eq!(before, (0, 1, 1), "the prove warmed the cache");
        assert_eq!(story(&warm, &mut g.clone()), fresh);
        assert_eq!((warm.cache().hits(), warm.cache().misses(), warm.cache().len()), before);
        let uncached = Solver::new(SolverOptions::default().with_cache(false));
        assert_eq!(story(&uncached, &mut g.clone()), fresh);
        let cold = solver();
        story(&cold, &mut g);
        assert!(cold.cache().is_empty(), "explain inserts nothing");
    }

    /// A Refuted goal's extracted witness really falsifies the original
    /// constraint: every hypothesis evaluates true and the conclusion
    /// false under the recorded assignment.
    #[test]
    fn refuted_witness_falsifies_the_goal() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        // ∀n. 0 ≤ n ⊃ n ≤ 5 — false, e.g. at n = 6.
        let c = Constraint::Forall(
            n.clone(),
            Sort::Int,
            Box::new(Constraint::Implies(
                Prop::le(IExp::lit(0), IExp::var(n.clone())),
                Box::new(Constraint::Prop(Prop::le(IExp::var(n), IExp::lit(5)))),
            )),
        );
        let s = solver();
        let outcome = s.prove(&c, &mut g);
        assert_eq!(outcome.results[0].1, Verdict::Refuted);
        let goal = &outcome.results[0].0;
        let (_, tr) = s.explain(goal, &mut g);
        let witness = tr.witness().expect("refuted goal records a witness");
        let env: std::collections::HashMap<Var, i64> = goal
            .ctx
            .iter()
            .filter_map(|(v, _)| {
                witness
                    .iter()
                    .find(|(name, _)| *name == v.to_string())
                    .map(|(_, value)| (v.clone(), *value))
            })
            .collect();
        assert_eq!(env.len(), witness.len(), "every witness variable maps to a context var");
        let ienv = |v: &Var| env.get(v).copied();
        let benv = |_: &Var| None;
        for h in &goal.hyps {
            assert_eq!(h.eval(&ienv, &benv), Some(true), "hypothesis {h} holds at the witness");
        }
        assert_eq!(
            goal.concl.eval(&ienv, &benv),
            Some(false),
            "conclusion {} is violated at the witness",
            goal.concl
        );
    }

    /// The paper's modular-arithmetic example: tightening is required to
    /// verify the optimised byte-copy function. Representative instance:
    /// ∀n. (4 | n is expressed as n = 4k) … here we check that
    /// `2x = 1` is refuted only with tightening.
    #[test]
    fn tightening_ablation_visible() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let concl = Prop::cmp(Cmp::Ne, IExp::lit(2) * IExp::var(x.clone()), IExp::lit(1));
        let c = Constraint::Forall(x, Sort::Int, Box::new(Constraint::Prop(concl)));
        let with = Solver::new(SolverOptions::default());
        assert!(with.prove(&c, &mut g).all_proven());
        let without = Solver::new(SolverOptions::default().with_tighten(false));
        assert!(!without.prove(&c, &mut g).all_proven());
    }

    /// `Outcome::verdict` is total: an outcome with no goals (or
    /// all-proven goals) collapses to `Proven` instead of panicking;
    /// `Refuted` trumps `Unknown`; otherwise the first `Unknown` wins.
    #[test]
    fn collapse_verdicts_is_total_and_orders_refuted_first() {
        let outcome = |verdicts: Vec<Verdict>| {
            let goal =
                Goal { ctx: vec![], hyps: vec![], concl: Prop::True, residual_existential: false };
            Outcome {
                results: verdicts.into_iter().map(|v| (goal.clone(), v)).collect(),
                stats: SolverStats::default(),
            }
        };
        assert_eq!(outcome(vec![]).verdict(), Verdict::Proven);
        assert_eq!(outcome(vec![Verdict::Proven]).verdict(), Verdict::Proven);
        let mixed = outcome(vec![
            Verdict::Proven,
            Verdict::Unknown(UnknownReason::Blowup),
            Verdict::Unknown(UnknownReason::PossiblyFalsifiable),
        ]);
        assert_eq!(mixed.verdict(), Verdict::Unknown(UnknownReason::Blowup));
        let refuted_late = outcome(vec![Verdict::Unknown(UnknownReason::Blowup), Verdict::Refuted]);
        assert_eq!(refuted_late.verdict(), Verdict::Refuted);
    }
}
