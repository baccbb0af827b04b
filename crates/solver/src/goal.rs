//! Goal extraction and the top-level decision procedure.
//!
//! A [`Constraint`] is first stripped of existential variables by equality
//! substitution (§3.1: "In practice, it is crucial that we eliminate all
//! existential variables in constraints before passing them to a constraint
//! solver"), then split into sequent-like [`Goal`]s
//! `∀ctx. hyps ⊃ concl`, each decided by refuting `hyps ∧ ¬concl` over the
//! integers.

use crate::cache::GoalCache;
use crate::canon::{canonicalize_budgeted, BudgetClass};
use crate::dnf::{expand_ne, Dnf, DnfError};
use crate::lower::Lowering;
use crate::stats::SolverStats;
use crate::system::{FourierOptions, FuelMeter, RefuteResult, RefuteTrace};
use dml_index::{Constraint, IExp, Linear, Prop, Sort, UnknownReason, Var, VarGen, Verdict};
use dml_obs::{GoalTrace, TraceEvent};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
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
///     .with_workers(Some(1))                       // sequential solving
///     .with_trace(true);                           // record per-goal event traces
/// assert_eq!(opts.fuel, Some(10_000));
/// assert!(opts.trace);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Fourier–Motzkin options (tightening on/off, limits).
    pub fourier: FourierOptions,
    /// Maximum DNF disjuncts per goal.
    pub max_disjuncts: usize,
    /// When Fourier–Motzkin with tightening fails to refute a disjunct,
    /// retry with the exact Omega test (§6 future work; see
    /// [`crate::omega`]). Off by default — none of the paper's programs
    /// need it — but `dmlc fuzz` decides every goal with it as well and
    /// checks its proofs against the enumeration oracle.
    pub omega_fallback: bool,
    /// Number of solve workers for [`crate::parallel::prove_all`]. `None`
    /// uses the machine's available parallelism; `Some(1)` reproduces the
    /// sequential pipeline exactly (same `VarGen` consumption, same order).
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
    /// Record a per-goal [`GoalTrace`] (obligation → canonicalization →
    /// elimination rounds → verdict) in [`Outcome::traces`]. Off by
    /// default; tracing re-decides cache hits so every trace carries the
    /// full elimination story, which makes it strictly a diagnostic mode.
    pub trace: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            fourier: FourierOptions::default(),
            max_disjuncts: 256,
            omega_fallback: false,
            workers: None,
            cache: true,
            fuel: None,
            deadline: None,
            trace: false,
        }
    }
}

impl SolverOptions {
    /// Replaces the Fourier–Motzkin options.
    pub fn with_fourier(mut self, fourier: FourierOptions) -> Self {
        self.fourier = fourier;
        self
    }

    /// Sets the maximum DNF disjuncts per goal.
    pub fn with_max_disjuncts(mut self, max_disjuncts: usize) -> Self {
        self.max_disjuncts = max_disjuncts;
        self
    }

    /// Enables or disables the Omega-test fallback.
    pub fn with_omega_fallback(mut self, on: bool) -> Self {
        self.omega_fallback = on;
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

    /// Enables or disables per-goal trace recording.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
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
    /// Per-goal traces, index-aligned with `results` when
    /// [`SolverOptions::trace`] is on; empty otherwise. Each goal's buffer
    /// is filled by whichever worker decided it and merged back in goal
    /// order, so traces are deterministic under parallel solving.
    pub traces: Vec<GoalTrace>,
    /// Accumulated statistics.
    pub stats: SolverStats,
}

impl Outcome {
    /// `true` if every goal was proven valid.
    pub fn all_proven(&self) -> bool {
        self.results.iter().all(|(_, r)| r.is_proven())
    }

    /// The goals that were not proven (refuted or unknown).
    pub fn failures(&self) -> impl Iterator<Item = &(Goal, Verdict)> {
        self.results.iter().filter(|(_, r)| !r.is_proven())
    }
}

/// The constraint solver: existential elimination → goal splitting →
/// Fourier–Motzkin refutation.
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
    /// limits apart (see [`crate::canon::BudgetClass`]).
    pub fn with_options(&self, opts: SolverOptions) -> Solver {
        Solver { opts, cache: Arc::clone(&self.cache) }
    }

    /// The shared verdict cache.
    pub fn cache(&self) -> &GoalCache {
        &self.cache
    }

    /// Proves a constraint, returning per-goal results and statistics.
    pub fn prove(&self, c: &Constraint, gen: &mut VarGen) -> Outcome {
        let start = Instant::now();
        let mut stats = SolverStats::default();
        let reduced = eliminate_existentials(c, &mut stats);
        let goals = split_goals(&reduced);
        let mut results = Vec::with_capacity(goals.len());
        let mut traces = Vec::new();
        for goal in goals {
            let (r, tr) = self.decide_traced(&goal, gen, &mut stats);
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
            if let Some(tr) = tr {
                traces.push(tr);
            }
            results.push((goal, r));
        }
        stats.solve_time = start.elapsed();
        Outcome { results, traces, stats }
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
        self.decide_traced(goal, gen, stats).0
    }

    /// [`Solver::decide`] returning the goal's [`GoalTrace`] as well.
    ///
    /// The trace is `Some` exactly when [`SolverOptions::trace`] is on. In
    /// trace mode the cache is still probed (so the trace records the
    /// hit/miss) but the goal is always re-decided, so every trace carries
    /// the full elimination story regardless of what earlier solves warmed
    /// the cache — this is what makes `dmlc explain` output independent of
    /// the cache configuration.
    pub fn decide_traced(
        &self,
        goal: &Goal,
        gen: &mut VarGen,
        stats: &mut SolverStats,
    ) -> (Verdict, Option<GoalTrace>) {
        let start = Instant::now();
        if !self.opts.trace {
            let v = self.decide_plain(goal, gen, stats);
            stats.phase_times.goal.record(start.elapsed());
            return (v, None);
        }
        let mut tr = GoalTrace::default();
        let combos_before = stats.fm_combinations;
        let v = self.decide_recording(goal, gen, stats, &mut tr);
        tr.fuel_spent = (stats.fm_combinations - combos_before) as u64;
        tr.push(TraceEvent::Verdict { verdict: v.to_string() });
        let elapsed = start.elapsed();
        tr.wall_ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        stats.phase_times.goal.record(elapsed);
        (v, Some(tr))
    }

    /// The cheap syntactic fast paths shared by both decide modes. Returns
    /// the verdict and the rule name (for [`TraceEvent::FastPath`]).
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

    /// The default (untraced) decide path: fast paths, then the cache, then
    /// the full decision procedure.
    fn decide_plain(&self, goal: &Goal, gen: &mut VarGen, stats: &mut SolverStats) -> Verdict {
        if let Some((v, _rule)) = self.fast_path(goal) {
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

    /// The trace-mode decide path: identical decisions to
    /// [`Solver::decide_plain`], but every step is recorded and cache hits
    /// are re-decided (see [`Solver::decide_traced`]).
    fn decide_recording(
        &self,
        goal: &Goal,
        gen: &mut VarGen,
        stats: &mut SolverStats,
        tr: &mut GoalTrace,
    ) -> Verdict {
        if let Some((v, rule)) = self.fast_path(goal) {
            tr.push(TraceEvent::FastPath { rule });
            return v;
        }
        let key = canonicalize_budgeted(goal, self.opts.budget_class());
        tr.push(TraceEvent::Canonicalized { vars: key.sorts.len(), hyps: key.hyps.len() });
        if self.opts.cache {
            let hit = self.cache.get(&key).is_some();
            tr.push(TraceEvent::Cache { hit });
            if hit {
                stats.cache_hits += 1;
            } else {
                stats.cache_misses += 1;
            }
        }
        let r = self.decide_uncached(goal, gen, stats, Some(tr));
        if self.opts.cache && r != Verdict::Unknown(UnknownReason::Deadline) {
            self.cache.insert(key, r.clone());
        }
        r
    }

    /// The expensive part of [`Solver::decide`]: lowering, DNF expansion,
    /// and Fourier–Motzkin refutation, with no cache consultation. `tr`
    /// receives the per-step events in trace mode; the decision itself is
    /// identical either way.
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
                stats.phase_times.lowering.record(t_lower.elapsed());
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
        stats.phase_times.lowering.record(t_lower.elapsed());
        let t_dnf = Instant::now();
        // Already in NNF without `<>`: the hypotheses and the negated
        // conclusion were normalised before lowering, which keeps their
        // shape, and the side constraints are built that way.
        let formula = lowered.and(sides);
        let dnf = match Dnf::expand(&formula, self.opts.max_disjuncts) {
            Ok(d) => d,
            Err(e) => {
                stats.phase_times.dnf.record(t_dnf.elapsed());
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
                let (r, combos) = match (tr.as_deref_mut(), names.as_ref()) {
                    (Some(t), Some(names)) => {
                        let mut sink = RefuteTrace { events: &mut t.events, names };
                        sys.refute_traced(&self.opts.fourier, &mut meter, Some(&mut sink))
                    }
                    _ => sys.refute_budgeted(&self.opts.fourier, &mut meter),
                };
                stats.fm_combinations += combos;
                if let Some(t) = tr.as_deref_mut() {
                    t.push(TraceEvent::Fuel { spent: meter.spent(), remaining: meter.remaining() });
                }
                match r {
                    RefuteResult::Refuted => stats.disjuncts_refuted += 1,
                    RefuteResult::PossiblySat => {
                        if self.opts.omega_fallback
                            && crate::omega::omega_refutes(
                                &sys,
                                gen,
                                &crate::omega::OmegaOptions::default(),
                            )
                        {
                            stats.disjuncts_refuted += 1;
                            continue;
                        }
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
                            stats.phase_times.witness_search.record(t_wit.elapsed());
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
        stats.phase_times.dnf.record(expand_time + build_time);
        stats.phase_times.elimination.record(t_elim.elapsed().saturating_sub(build_time));
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

/// Counterexample search is capped at this many variables (the box search
/// is exponential) …
const REFUTE_SEARCH_MAX_VARS: usize = 4;
/// … and scans the box `[-8, 8]^n` (array-bound counterexamples are
/// overwhelmingly small).
const REFUTE_SEARCH_BOUND: i64 = 8;

/// Eliminates existential variables by equality substitution.
///
/// For each `∃v. φ`, searches `φ` for an equation that determines `v`
/// (either `v = e` syntactically with `v ∉ FV(e)`, or a linear equation in
/// which `v` has coefficient ±1) and substitutes the solution. Choosing any
/// witness is sound for a positively-occurring existential: proving `φ[e/v]`
/// proves `∃v. φ`.
pub fn eliminate_existentials(c: &Constraint, stats: &mut SolverStats) -> Constraint {
    let residual_base = stats.existentials_residual;
    let mut cur = eliminate_pass(c, stats);
    // A substitution in one ∃-chain can unlock a residual in a *separated*
    // chain elsewhere in the tree (the old recursive re-scan handled this
    // implicitly); iterate whole passes to that fixpoint. Constraints from
    // the elaborator are a single chain, so this loop exits immediately.
    loop {
        if !contains_exists(&cur) {
            return cur;
        }
        let before = stats.existentials_eliminated;
        // Every pass counts all residuals it sees, so a re-scan would
        // double-count the ones that stay residual; recount from the base
        // so the final tally is the residuals left in the *output*.
        stats.existentials_residual = residual_base;
        let next = eliminate_pass(&cur, stats);
        if stats.existentials_eliminated == before {
            return next;
        }
        cur = next;
    }
}

/// One structural elimination pass: every maximal run of consecutive
/// existentials is solved as a batch by [`eliminate_chain_once`].
fn eliminate_pass(c: &Constraint, stats: &mut SolverStats) -> Constraint {
    match c {
        Constraint::Prop(_) => c.clone(),
        Constraint::And(cs) => {
            Constraint::And(cs.iter().map(|c| eliminate_pass(c, stats)).collect())
        }
        Constraint::Implies(p, c) => {
            Constraint::Implies(p.clone(), Box::new(eliminate_pass(c, stats)))
        }
        Constraint::Forall(v, s, c) => {
            Constraint::Forall(v.clone(), *s, Box::new(eliminate_pass(c, stats)))
        }
        Constraint::Exists(_, _, _) => eliminate_chain_once(c, stats),
    }
}

/// An equation `a = b` from the constraint, with its linear normal form
/// `a - b` precomputed (when both sides are linear) so repeated witness
/// probes don't re-run [`Linear::from_iexp`] per variable.
struct EqEntry {
    a: IExp,
    b: IExp,
    diff: Option<Linear>,
}

impl EqEntry {
    fn new((a, b): (IExp, IExp)) -> EqEntry {
        let diff = Linear::from_iexp(&a)
            .ok()
            .and_then(|la| Linear::from_iexp(&b).ok().map(|lb| la.sub(&lb)));
        EqEntry { a, b, diff }
    }

    fn subst(&mut self, v: &Var, e: &IExp) {
        if !self.a.contains_var(v) && !self.b.contains_var(v) {
            return;
        }
        self.a = self.a.subst(v, e);
        self.b = self.b.subst(v, e);
        self.diff = Linear::from_iexp(&self.a)
            .ok()
            .and_then(|la| Linear::from_iexp(&self.b).ok().map(|lb| la.sub(&lb)));
    }
}

/// Eliminates a maximal run of nested existentials (`∃v₁…∃vₖ. body`) as a
/// batch. Equations are collected from the body **once** and kept
/// up-to-date under witness substitution, instead of re-collecting (and
/// re-linearizing) the whole body per variable; the accumulated witnesses
/// are applied to the body in a single [`Constraint::subst_many`] pass at
/// the end. Witness *choice* is unchanged: variables are attempted
/// innermost-first, the search restarts from the innermost residual after
/// every success (an enclosing substitution may pin a residual down), and
/// per-variable preference order is the one documented on
/// [`witness_from_eqs`].
fn eliminate_chain_once(c: &Constraint, stats: &mut SolverStats) -> Constraint {
    let mut chain: Vec<(Var, Sort)> = Vec::new();
    let mut cur = c;
    while let Constraint::Exists(v, s, b) = cur {
        chain.push((v.clone(), *s));
        cur = b.as_ref();
    }
    // Separated chains deeper in the body are eliminated first, exactly as
    // the innermost-first recursion used to.
    let body = eliminate_pass(cur, stats);
    let mut raw_hyp = Vec::new();
    let mut raw_concl = Vec::new();
    collect_equations(&body, false, &mut raw_hyp, &mut raw_concl);
    let mut hyp_eqs: Vec<EqEntry> = raw_hyp.into_iter().map(EqEntry::new).collect();
    let mut concl_eqs: Vec<EqEntry> = raw_concl.into_iter().map(EqEntry::new).collect();
    let mut solved: Vec<(Var, IExp)> = Vec::new();
    let mut done = vec![false; chain.len()];
    'search: loop {
        for idx in (0..chain.len()).rev() {
            if done[idx] {
                continue;
            }
            let v = &chain[idx].0;
            let Some(e) = witness_from_eqs(v, &hyp_eqs, &concl_eqs) else {
                continue;
            };
            stats.existentials_eliminated += 1;
            // Keep earlier witnesses fully resolved so the final
            // simultaneous substitution equals the old sequential one.
            for (_, w) in solved.iter_mut() {
                if w.contains_var(v) {
                    *w = w.subst(v, &e);
                }
            }
            for eq in hyp_eqs.iter_mut().chain(concl_eqs.iter_mut()) {
                eq.subst(v, &e);
            }
            solved.push((v.clone(), e));
            done[idx] = true;
            continue 'search;
        }
        break;
    }
    let mut out = if solved.is_empty() { body } else { body.subst_many(&solved) };
    for idx in (0..chain.len()).rev() {
        if !done[idx] {
            stats.existentials_residual += 1;
            let (v, s) = &chain[idx];
            out = Constraint::Exists(v.clone(), *s, Box::new(out));
        }
    }
    out
}

/// Witness search over the pre-collected equation lists, in
/// preference order: (1) hypothesis equations where `v` appears *alone* on
/// one side (argument/pattern defining equations — facts about actual
/// run-time values); (2) conclusion equations with `v` alone; (3) general
/// linear solves from hypotheses; (4) from conclusions. Taking a
/// hypothesis-alone equation first ensures a second, conflicting equation
/// is checked against the defining value rather than vacuously discharged.
fn witness_from_eqs(v: &Var, hyp_eqs: &[EqEntry], concl_eqs: &[EqEntry]) -> Option<IExp> {
    for eq in hyp_eqs.iter().chain(concl_eqs) {
        if let Some(e) = solve_alone(v, &eq.a, &eq.b) {
            return Some(e);
        }
    }
    for eq in hyp_eqs.iter().chain(concl_eqs) {
        if let Some(e) = solve_linear_entry(v, eq) {
            return Some(e);
        }
    }
    None
}

/// Solves a linear equation `a = b` for `v` against the precomputed linear
/// difference: coefficient ±1, or a larger coefficient when the remainder
/// divides exactly (`4q' = 4q + 4` gives `q' = q + 1`).
fn solve_linear_entry(v: &Var, eq: &EqEntry) -> Option<IExp> {
    let lin = eq.diff.as_ref()?;
    let coeff = lin.coeff(v);
    if coeff == 0 {
        return None;
    }
    let mut rest = lin.clone();
    rest.add_term(v.clone(), -coeff);
    // coeff·v + rest = 0  →  v = -rest/coeff.
    let negated = rest.scale(-1);
    let solution = negated.div_exact(coeff)?;
    Some(solution.to_iexp())
}

/// `true` if any existential quantifier occurs in the constraint.
fn contains_exists(c: &Constraint) -> bool {
    match c {
        Constraint::Prop(_) => false,
        Constraint::And(cs) => cs.iter().any(contains_exists),
        Constraint::Implies(_, c) | Constraint::Forall(_, _, c) => contains_exists(c),
        Constraint::Exists(_, _, _) => true,
    }
}

fn collect_equations(
    c: &Constraint,
    _under_hyp: bool,
    hyp_eqs: &mut Vec<(IExp, IExp)>,
    concl_eqs: &mut Vec<(IExp, IExp)>,
) {
    match c {
        Constraint::Prop(p) => collect_prop_equations(p, concl_eqs),
        Constraint::And(cs) => {
            for c in cs {
                collect_equations(c, _under_hyp, hyp_eqs, concl_eqs);
            }
        }
        Constraint::Implies(p, c) => {
            collect_prop_equations(p, hyp_eqs);
            collect_equations(c, _under_hyp, hyp_eqs, concl_eqs);
        }
        Constraint::Forall(_, _, c) | Constraint::Exists(_, _, c) => {
            collect_equations(c, _under_hyp, hyp_eqs, concl_eqs);
        }
    }
}

fn collect_prop_equations(p: &Prop, out: &mut Vec<(IExp, IExp)>) {
    for q in p.conjuncts() {
        if let Prop::Cmp(dml_index::Cmp::Eq, a, b) = q {
            out.push((a.clone(), b.clone()));
        }
    }
}

/// Solves `a = b` for `v` when `v` is exactly one side and absent from the
/// other. This also covers non-linear right-hand sides like
/// `(h - l) div 2`.
fn solve_alone(v: &Var, a: &IExp, b: &IExp) -> Option<IExp> {
    if let IExp::Var(w) = a {
        if w == v && !b.free_vars().contains(v) {
            return Some(b.clone());
        }
    }
    if let IExp::Var(w) = b {
        if w == v && !a.free_vars().contains(v) {
            return Some(a.clone());
        }
    }
    None
}

/// Splits a (post-elimination) constraint into goals.
pub fn split_goals(c: &Constraint) -> Vec<Goal> {
    let mut goals = Vec::new();
    let mut ctx = Vec::new();
    let mut hyps = Vec::new();
    go(c, &mut ctx, &mut hyps, false, &mut goals);
    goals
}

fn go(
    c: &Constraint,
    ctx: &mut Vec<(Var, Sort)>,
    hyps: &mut Vec<Prop>,
    residual: bool,
    goals: &mut Vec<Goal>,
) {
    match c {
        Constraint::Prop(p) => {
            for concl in p.conjuncts() {
                goals.push(Goal {
                    ctx: ctx.clone(),
                    hyps: hyps.clone(),
                    concl: concl.clone(),
                    residual_existential: residual,
                });
            }
        }
        Constraint::And(cs) => {
            for c in cs {
                go(c, ctx, hyps, residual, goals);
            }
        }
        Constraint::Implies(p, c) => {
            let before = hyps.len();
            for h in p.conjuncts() {
                // Reflexive equalities left over from witness substitution
                // carry no information; dropping them keeps goals tidy.
                if let Prop::Cmp(dml_index::Cmp::Eq, a, b) = h {
                    if a == b {
                        continue;
                    }
                }
                hyps.push(h.clone());
            }
            go(c, ctx, hyps, residual, goals);
            hyps.truncate(before);
        }
        Constraint::Forall(v, s, c) => {
            ctx.push((v.clone(), *s));
            go(c, ctx, hyps, residual, goals);
            ctx.pop();
        }
        Constraint::Exists(v, s, c) => {
            // A surviving existential is *strengthened* to a universal:
            // proving ∀v.φ proves ∃v.φ, so this is sound and lets goals
            // like ∃M. M = M (left over when a witness substitution is
            // purely self-referential) still go through. The flag records
            // the strengthening for diagnostics.
            ctx.push((v.clone(), *s));
            go(c, ctx, hyps, true, goals);
            ctx.pop();
        }
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

    #[test]
    fn split_goals_counts() {
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
        assert_eq!(split_goals(&c).len(), 3, "conjunctions split into goals");
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

    /// The gray-region goal from Pugh's paper is only provable with the
    /// Omega fallback: ∀x,y. ¬(27 ≤ 11x+13y ≤ 45 ∧ −10 ≤ 7x−9y ≤ 4).
    #[test]
    fn omega_fallback_proves_gray_region_goals() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let y = g.fresh("y");
        let e1 = IExp::lit(11) * IExp::var(x.clone()) + IExp::lit(13) * IExp::var(y.clone());
        let e2 = IExp::lit(7) * IExp::var(x.clone()) - IExp::lit(9) * IExp::var(y.clone());
        let hyp = Prop::le(IExp::lit(27), e1.clone())
            .and(Prop::le(e1, IExp::lit(45)))
            .and(Prop::le(IExp::lit(-10), e2.clone()))
            .and(Prop::le(e2, IExp::lit(4)));
        let c = Constraint::Forall(
            x,
            Sort::Int,
            Box::new(Constraint::Forall(
                y,
                Sort::Int,
                Box::new(Constraint::Implies(hyp, Box::new(Constraint::Prop(Prop::False)))),
            )),
        );
        let plain = Solver::new(SolverOptions::default());
        assert!(!plain.prove(&c, &mut g).all_proven(), "FM+tightening alone cannot prove this");
        let with_omega =
            Solver::new(SolverOptions { omega_fallback: true, ..SolverOptions::default() });
        assert!(with_omega.prove(&c, &mut g).all_proven(), "the Omega fallback decides it");
    }

    /// A disjunct the Omega fallback refutes is not the end of the goal:
    /// the disjuncts after it are still decided. `¬gray(x, y) ∧ x ≤ 5`
    /// negates to `gray(x, y) ∨ x > 5`; the first disjunct has no integer
    /// point but survives FM, the second is falsified at `x = 6`.
    #[test]
    fn omega_refuted_disjunct_does_not_end_the_goal() {
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
        let decide = |omega: bool, g: &mut VarGen| {
            let opts = SolverOptions::default().with_omega_fallback(omega).with_trace(true);
            let mut stats = SolverStats::default();
            let (v, tr) = Solver::new(opts).decide_traced(&goal, g, &mut stats);
            (v, stats, tr.expect("trace mode"))
        };
        let (v, stats, tr) = decide(false, &mut g);
        assert_eq!(v, Verdict::Unknown(UnknownReason::PossiblyFalsifiable));
        assert_eq!(stats.disjuncts_refuted, 0);
        let starts = |tr: &GoalTrace| {
            tr.events.iter().filter(|e| matches!(e, TraceEvent::SystemStart { .. })).count()
        };
        assert_eq!(starts(&tr), 1, "without the fallback the first disjunct ends the goal");

        let (v, stats, tr) = decide(true, &mut g);
        assert_eq!(v, Verdict::Refuted, "the second disjunct is decided and falsified");
        assert_eq!(stats.disjuncts_refuted, 1, "only the Omega-refuted disjunct");
        assert!(tr.events.contains(&TraceEvent::Dnf { disjuncts: 2 }));
        assert_eq!(starts(&tr), 2);
        assert_eq!(tr.witness(), Some(&[("x".to_string(), 6)][..]));
    }

    /// A goal whose negation expands past `max_disjuncts` is
    /// `Unknown(Blowup)` before any elimination work is spent.
    #[test]
    fn dnf_blowup_spends_no_elimination_work() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        // Nine hypotheses `x <> i`, two disjuncts each: 2^9 = 512 > 256.
        let goal = Goal {
            ctx: vec![(x.clone(), Sort::Int)],
            hyps: (0..9).map(|i| Prop::cmp(Cmp::Ne, IExp::var(x.clone()), IExp::lit(i))).collect(),
            concl: Prop::le(IExp::var(x), IExp::lit(100)),
            residual_existential: false,
        };
        for trace in [false, true] {
            let s = Solver::new(SolverOptions::default().with_trace(trace));
            assert_eq!(s.options().max_disjuncts, 256);
            let mut stats = SolverStats::default();
            let (v, tr) = s.decide_traced(&goal, &mut g, &mut stats);
            assert_eq!(v, Verdict::Unknown(UnknownReason::Blowup));
            assert_eq!(stats.fm_combinations, 0);
            assert_eq!(stats.disjuncts_refuted, 0);
            if let Some(tr) = tr {
                assert_eq!(tr.fuel_spent, 0);
                assert!(!tr.events.iter().any(|e| matches!(e, TraceEvent::Dnf { .. })));
            }
        }
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

    /// Trace mode returns one trace per goal, ending in a verdict event
    /// that matches the returned verdict, and never changes verdicts.
    #[test]
    fn trace_mode_aligns_with_results_and_verdicts() {
        let mut g = VarGen::new();
        let c = chain_goal(&mut g);
        let plain = solver().prove(&c, &mut g);
        assert!(plain.traces.is_empty(), "tracing is off by default");
        let traced = Solver::new(SolverOptions::default().with_trace(true));
        let outcome = traced.prove(&c, &mut g);
        assert_eq!(outcome.traces.len(), outcome.results.len());
        for ((_, verdict), tr) in outcome.results.iter().zip(&outcome.traces) {
            assert_eq!(tr.verdict(), Some(verdict.to_string().as_str()));
        }
        assert_eq!(
            plain.results.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            outcome.results.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
        );
        // The chain goal needs real elimination: its trace must show it.
        let tr = &outcome.traces[0];
        assert!(tr.events.iter().any(|e| matches!(e, TraceEvent::Eliminate { .. })));
        assert!(tr.events.iter().any(|e| matches!(e, TraceEvent::Contradiction { .. })));
        assert_eq!(tr.fuel_spent, plain.stats.fm_combinations as u64);
    }

    /// The deterministic (non-config-dependent) trace events are
    /// byte-identical across cache on/off — cache hits are re-decided in
    /// trace mode, so every configuration sees the full elimination story.
    #[test]
    fn trace_events_deterministic_across_cache_configs() {
        let mut g = VarGen::new();
        let c = chain_goal(&mut g);
        let stable = |opts: SolverOptions| {
            let s = Solver::new(opts.with_trace(true));
            // Prove twice: the second run hits the warm cache.
            s.prove(&c, &mut g.clone());
            let outcome = s.prove(&c, &mut g.clone());
            outcome
                .traces
                .iter()
                .flat_map(|t| t.events.clone())
                .filter(|e| !e.is_config_dependent())
                .collect::<Vec<_>>()
        };
        let cached = stable(SolverOptions::default());
        let uncached = stable(SolverOptions::default().with_cache(false));
        assert_eq!(cached, uncached);
        assert!(!cached.is_empty());
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
        let s = Solver::new(SolverOptions::default().with_trace(true));
        let outcome = s.prove(&c, &mut g);
        assert_eq!(outcome.results[0].1, Verdict::Refuted);
        let witness = outcome.traces[0].witness().expect("refuted goal records a witness");
        let goal = &outcome.results[0].0;
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
        let without = Solver::new(SolverOptions {
            fourier: FourierOptions { tighten: false, ..FourierOptions::default() },
            ..SolverOptions::default()
        });
        assert!(!without.prove(&c, &mut g).all_proven());
    }
}
