//! The compilation pipeline: parse → phase-1 ML inference → phase-2
//! dependent elaboration → constraint solving → check elimination.
//!
//! The entry point is the [`Compiler`] session builder:
//!
//! ```
//! use dml::Compiler;
//!
//! let c = Compiler::new()
//!     .fuel(10_000)
//!     .workers(1)
//!     .compile("fun first(v) = sub(v, 0)\nwhere first <| {n:nat | n > 0} int array(n) -> int")
//!     .expect("compiles");
//! assert!(c.fully_verified());
//! ```
//!
//! By default compilation is *permissive*: obligations the solver cannot
//! prove (nonlinear bounds, fuel exhausted, deadline passed) do not abort
//! compilation — their checks stay in the program as *residual* runtime
//! checks ([`Compiled::residual_checks`]), and the interpreter counts them
//! separately. [`Compiler::strict`] turns every unproven obligation into a
//! [`PipelineError::Unproven`] listing *all* failures sorted by source
//! site.

use dml_analysis::Finding;
use dml_elab::{elaborate, ElabOutput, Elimination, Obligation, ResidualCheck, SiteContext};
use dml_eval::{CheckConfig, Machine, Mode};
use dml_index::VarGen;
use dml_infer::InferReport;
use dml_solver::{prove_all, Solver, SolverOptions, Verdict};
use dml_syntax::ast as sast;
use dml_syntax::Span;
use dml_types::builtins::program_env;
use dml_types::env::Env;
use dml_types::infer::infer_program;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

/// A hard front-end failure (parse, environment, phase-1, phase-2), or —
/// in [`Compiler::strict`] mode only — unproven obligations. In permissive
/// mode unproven constraints are *not* errors: they appear in
/// [`Compiled::failures`] and simply keep their checks at run time.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Lexical or syntactic error.
    Parse(dml_syntax::ParseError),
    /// `datatype`/`typeref`/`assert` processing error.
    Env(String, Span),
    /// Phase-1 ML type error.
    Infer(String, Span),
    /// Phase-2 elaboration error.
    Elab(String, Span),
    /// Strict mode only: the program compiled but not every obligation was
    /// proven. Carries **all** unproven non-exhaustiveness obligations with
    /// their verdicts, sorted by source site — not just the first failure.
    Unproven(Vec<(Obligation, Verdict)>),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
            PipelineError::Env(m, s) => write!(f, "environment error at {s}: {m}"),
            PipelineError::Infer(m, s) => write!(f, "type error at {s}: {m}"),
            PipelineError::Elab(m, s) => write!(f, "elaboration error at {s}: {m}"),
            PipelineError::Unproven(obs) => {
                write!(f, "{} unproven obligation(s) in strict mode:", obs.len())?;
                for (o, r) in obs {
                    write!(f, "\n  {} in {} at {}: {}", o.kind, o.in_fun, o.site, r)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Timing and counting statistics of one compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Proof obligations generated (the paper's "constraints generated").
    pub constraints: usize,
    /// Solver goals examined (obligations split into atomic sequents).
    pub goals: usize,
    /// Time spent generating constraints (environment + phase 1 + phase 2).
    pub generation_time: Duration,
    /// Time spent solving constraints.
    pub solve_time: Duration,
    /// Obligations whose verdicts were reused from a previous compile by
    /// the incremental session layer (always 0 outside `dmlc serve` /
    /// [`crate::serve::Session`]). Reused obligations contribute nothing
    /// to `goals` or the solver counters — they never reach the solver.
    pub obligations_reused: usize,
    /// Aggregated solver statistics.
    pub solver: dml_solver::SolverStats,
}

/// The result of compiling a program.
#[derive(Debug)]
pub struct Compiled {
    program: sast::Program,
    env: Env,
    obligations: Vec<(Obligation, Verdict)>,
    contexts: Vec<SiteContext>,
    elimination: Elimination,
    /// The eliminated sites of `elimination`, as the set the interpreter
    /// looks sites up in.
    proven_sites: HashSet<Span>,
    stats: CompileStats,
    top_level: HashMap<String, dml_types::ty::Scheme>,
    solver: Solver,
    gen: VarGen,
}

impl Compiled {
    /// The parsed program.
    pub fn program(&self) -> &sast::Program {
        &self.program
    }

    /// The type environment (with prelude and program declarations).
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Every obligation with its collapsed verdict: `Proven` when every
    /// goal was proven, `Refuted` if any goal was refuted, else the first
    /// `Unknown`.
    pub fn obligations(&self) -> &[(Obligation, Verdict)] {
        &self.obligations
    }

    /// Per-site hypothesis snapshots recorded during elaboration (`if`
    /// conditions and `case` arms), consumed by the lint pass.
    pub fn contexts(&self) -> &[SiteContext] {
        &self.contexts
    }

    /// Runs the semantic lint pass (`dml-analysis`) over the compiled
    /// program: solver-backed dead-branch / redundant-refinement /
    /// unprovable-annotation lints plus the syntactic ones, the
    /// residual-check lint (DML006), and the inferable-annotation lint
    /// (DML007, with machine-applicable fix-its). Findings are sorted by
    /// source position.
    ///
    /// DML007 runs inference over this compile's own solved obligations,
    /// and only when residual checks exist: a fully verified (or fully
    /// annotated) program pays nothing at lint time.
    pub fn lints(&self) -> Vec<Finding> {
        let mut gen = self.gen.clone();
        let residuals = self.residual_checks();
        let suggestions = if residuals.is_empty() {
            Vec::new()
        } else {
            dml_infer::infer_refinements(&self.program, &self.env, &self.obligations, &self.solver)
                .map(|out| out.report.accepted)
                .unwrap_or_default()
        };
        dml_analysis::run_lints(
            &self.program,
            &self.contexts,
            &self.env.families,
            &self.solver,
            &mut gen,
            &residuals,
            &suggestions,
        )
    }

    /// The solver this program was compiled with. Its verdict cache is
    /// the compiling handle's, shared with [`Compiled::lints`], with every
    /// later compile on that [`Compiler`] or its clones, and with any
    /// handle given this solver through [`Compiler::with_solver`].
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// The compile's variable supply, past every variable its obligations
    /// mention: deciding a goal again from it (the explain pass of
    /// [`crate::trace`]) introduces no variable that clashes with one.
    pub(crate) fn var_gen(&self) -> &VarGen {
        &self.gen
    }

    /// Obligations that were not proven (including exhaustiveness
    /// warnings; see [`Compiled::match_warnings`] for just those).
    pub fn failures(&self) -> impl Iterator<Item = &(Obligation, Verdict)> {
        self.obligations.iter().filter(|(_, r)| !r.is_proven())
    }

    /// The compile's check-elimination decision, which every site view
    /// below reads.
    pub(crate) fn elimination(&self) -> &Elimination {
        &self.elimination
    }

    /// The check sites whose bound/tag checks stay in the compiled program
    /// because one of their own guards did not prove (graceful
    /// degradation), sorted by source position, with the first unproven
    /// guard's reason. Empty for fully verified programs.
    pub fn residual_checks(&self) -> Vec<ResidualCheck> {
        self.elimination.residual_checks()
    }

    /// Non-exhaustive `case` expressions whose missing constructors could
    /// not be proven impossible under the index constraints. A refined
    /// match like `case (s : 'a stack(n) | n >= 2) of PUSH(_, PUSH(_, r))`
    /// produces *no* warning — the refinement proves the other arms dead.
    pub fn match_warnings(&self) -> &[(Span, String)] {
        self.elimination.match_warnings()
    }

    /// `true` if every obligation was proven — the program dependently
    /// type-checks and all `sub`/`update`/`nth` sites compile unchecked.
    pub fn fully_verified(&self) -> bool {
        self.elimination.fully_verified()
    }

    /// The call sites whose run-time checks are eliminated.
    pub fn proven_sites(&self) -> &HashSet<Span> {
        &self.proven_sites
    }

    /// Per-site verdict summaries for backends: one record per checking
    /// primitive call site, sorted by source position, with the 1-based
    /// goal numbers (in [`Compiled::obligations`] order — the numbering
    /// `dmlc constraints` prints) and whether the site may compile
    /// unchecked.
    pub fn site_verdicts(&self) -> &[dml_elab::SiteVerdict] {
        self.elimination.sites()
    }

    /// Check-primitive call sites that could *not* be proven (their checks
    /// stay at run time even in eliminated mode).
    pub fn unproven_sites(&self) -> HashSet<Span> {
        self.elimination.sites().iter().filter(|s| !s.proven).map(|s| s.site).collect()
    }

    /// Compilation statistics.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// Dependent schemes of the top-level bindings.
    pub fn top_level(&self) -> &HashMap<String, dml_types::ty::Scheme> {
        &self.top_level
    }

    /// Renders every unproven obligation as a source-anchored diagnostic
    /// (the paper's §6 "more informative error messages" future work).
    pub fn explain_failures(&self, src: &str) -> String {
        let mut out = String::new();
        for (ob, r) in self.failures() {
            let reason = match r {
                Verdict::Refuted => "refuted: a counterexample satisfies the hypotheses".into(),
                Verdict::Unknown(why) => why.to_string(),
                // `failures()` filters proven verdicts; any future verdict
                // is reported verbatim.
                other => other.to_string(),
            };
            out.push_str(&dml_elab::explain(ob, &reason, src));
            out.push('\n');
        }
        out
    }

    /// Builds an interpreter in the given mode (proven sites are passed
    /// through so `Mode::Eliminated` skips exactly the verified checks).
    pub fn machine(&self, mode: Mode) -> Machine {
        let config = match mode {
            Mode::Checked => CheckConfig::checked(),
            Mode::Eliminated => CheckConfig::eliminated(self.proven_sites.clone()),
        };
        self.machine_with(config)
    }

    /// Builds an interpreter with a custom configuration (e.g. validation);
    /// the proven-site set is filled in for eliminated mode.
    pub fn machine_with(&self, mut config: CheckConfig) -> Machine {
        if config.mode == Mode::Eliminated {
            config.proven = self.proven_sites.clone();
        }
        Machine::load(&self.program, config).expect("compiled programs load")
    }
}

/// A compilation session: a solver (budgets and verdict cache) and
/// strictness behind one builder. This is the crate's only compile
/// surface.
///
/// A `Compiler` is a **reusable handle**: it owns its solver from
/// [`Compiler::new`] on, and every compile on the handle — and on every
/// clone of it — runs through that solver's verdict cache, so a
/// long-lived session (the `dmlc serve` daemon, a test harness, an IDE)
/// pays goal solving once per distinct canonical goal, not once per
/// request. Option setters may be called between compiles; they keep the
/// cache (verdicts computed under different budgets never collide — the
/// cache key carries the budget class) unless they change tightening:
/// see [`Solver::with_options`].
///
/// # Examples
///
/// ```
/// use dml::Compiler;
/// use std::time::Duration;
///
/// let compiler = Compiler::new()
///     .fuel(50_000)                       // FM pair-combination budget per goal
///     .deadline(Duration::from_secs(5))   // wall-clock budget per goal
///     .workers(4)
///     .strict(false);                     // permissive: unknowns stay as residual checks
/// let compiled = compiler.compile("fun id(x) = x").expect("compiles");
/// assert!(compiled.fully_verified());
/// ```
///
/// One handle, many compiles — the second request is answered from the
/// session's verdict cache:
///
/// ```
/// use dml::Compiler;
///
/// let session = Compiler::new();
/// let src = "fun first(v) = sub(v, 0)
/// where first <| {n:nat | n > 0} int array(n) -> int";
/// let cold = session.compile(src).expect("compiles");
/// assert!(cold.stats().solver.cache_misses > 0);
/// let warm = session.compile(src).expect("compiles");
/// assert_eq!(warm.stats().solver.cache_misses, 0, "all hits");
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    solver: Solver,
    strict: bool,
}

impl Compiler {
    /// A permissive compiler with default solver options (unlimited fuel,
    /// no deadline, cache on, automatic worker count).
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// Sets the per-goal fuel budget in Fourier–Motzkin pair combinations.
    /// Goals that run out come back `Unknown(FuelExhausted)` and keep
    /// their runtime checks.
    pub fn fuel(self, fuel: u64) -> Compiler {
        self.map_options(|o| o.with_fuel(Some(fuel)))
    }

    /// Sets the per-goal wall-clock deadline. Goals that pass it come back
    /// `Unknown(Deadline)` (never cached — wall-clock verdicts are
    /// machine-dependent).
    pub fn deadline(self, deadline: Duration) -> Compiler {
        self.map_options(|o| o.with_deadline(Some(deadline)))
    }

    /// Strict mode: any unproven obligation aborts compilation with
    /// [`PipelineError::Unproven`] listing *every* failure sorted by
    /// source site. Off by default (permissive graceful degradation).
    pub fn strict(mut self, strict: bool) -> Compiler {
        self.strict = strict;
        self
    }

    /// Requests an explicit solve worker count (`1` reproduces the
    /// sequential pipeline exactly).
    pub fn workers(self, workers: usize) -> Compiler {
        self.map_options(|o| o.with_workers(Some(workers)))
    }

    /// Enables or disables the verdict cache.
    pub fn cache(self, on: bool) -> Compiler {
        self.map_options(|o| o.with_cache(on))
    }

    /// Replaces the full solver options (budgets set earlier are
    /// overwritten; setters called later still apply).
    pub fn solver_options(self, options: SolverOptions) -> Compiler {
        self.map_options(|_| options)
    }

    /// The handle's solver under new options, through
    /// [`Solver::with_options`].
    fn map_options(mut self, f: impl FnOnce(SolverOptions) -> SolverOptions) -> Compiler {
        self.solver = self.solver.with_options(f(*self.solver.options()));
        self
    }

    /// Adopts a caller-supplied solver, *sharing its verdict cache*. Its
    /// options replace the handle's (budget setters called afterwards
    /// still apply — verdicts computed under different fuel budgets never
    /// collide in the shared cache).
    pub fn with_solver(mut self, solver: &Solver) -> Compiler {
        self.solver = solver.clone();
        self
    }

    /// The handle's solver. Every compile on this handle runs through it,
    /// so its verdict cache carries across compiles.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Runs the pipeline on `src`.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for parse/type/elaboration failures —
    /// and, in strict mode, [`PipelineError::Unproven`] when any
    /// obligation is left unproven.
    pub fn compile(&self, src: &str) -> Result<Compiled, PipelineError> {
        let program = dml_syntax::parse_program(src).map_err(PipelineError::Parse)?;
        self.compile_program(program, None)
    }

    /// [`Compiler::compile`] from an already-parsed program, with an
    /// optional verdict-reuse plan from the incremental session layer
    /// (`serve`): obligations bucketed to declarations the plan marks
    /// unchanged take their previous verdicts without touching the solver.
    /// Callers are responsible for the plan's soundness preconditions
    /// (environment signature unchanged, decl text unchanged — see
    /// [`crate::serve::incremental`]); a per-bucket obligation-count
    /// mismatch falls back to solving that bucket.
    pub(crate) fn compile_program(
        &self,
        program: sast::Program,
        reuse: Option<&ReusePlan>,
    ) -> Result<Compiled, PipelineError> {
        let compiled = run_pipeline_ast(program, &self.solver, reuse)?;
        if self.strict && !compiled.fully_verified() {
            let obligations = &compiled.obligations;
            let unproven = compiled.elimination.unproven(obligations);
            return Err(PipelineError::Unproven(
                unproven.into_iter().map(|g| obligations[g - 1].clone()).collect(),
            ));
        }
        Ok(compiled)
    }

    /// Runs annotation inference (`dml-infer`) on `src`: compiles it
    /// permissively, lets an interval abstract interpretation propose
    /// `where`-clauses for its unannotated functions, verifies every
    /// candidate through this handle's solver, and attaches the accepted
    /// ones to the AST (spans unchanged). Returns the inference report
    /// and the compile of the refined program, which eliminates the
    /// checks the inferred refinements prove.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when `src` fails to parse, type-check
    /// or elaborate — and, in strict mode, [`PipelineError::Unproven`]
    /// when the *refined* program leaves any obligation unproven.
    pub fn infer(&self, src: &str) -> Result<(InferReport, Compiled), PipelineError> {
        let program = dml_syntax::parse_program(src).map_err(PipelineError::Parse)?;
        let base = run_pipeline_ast(program, &self.solver, None)?;
        let out =
            dml_infer::infer_refinements(&base.program, &base.env, &base.obligations, &self.solver)
                .map_err(|e| PipelineError::Infer(e.message, e.span))?;
        Ok((out.report, self.compile_program(out.refined, None)?))
    }
}

/// A verdict-reuse plan for one incremental recompile, built by the
/// session layer (`serve::incremental`) from the previous compile of the
/// same file. Obligations are bucketed to top-level declarations by source
/// position; a bucket whose declaration is unchanged takes its previous
/// verdicts positionally instead of re-solving (sound because
/// re-elaboration of identical decl text under an identical environment
/// signature yields the same constraints up to variable renaming, and
/// verdicts are alpha-invariant).
#[derive(Debug, Clone)]
pub(crate) struct ReusePlan {
    /// Bucket boundaries: the current program's top-level declaration
    /// start positions, ascending.
    pub decl_starts: Vec<usize>,
    /// Per declaration: the previous compile's collapsed verdicts for that
    /// bucket in obligation order, or `None` to re-solve.
    pub prior: Vec<Option<Vec<Verdict>>>,
}

/// The declaration bucket owning a source position: the greatest decl
/// start at or before it (positions before the first decl fall into
/// bucket 0).
pub(crate) fn bucket_of(decl_starts: &[usize], site_start: usize) -> usize {
    decl_starts.partition_point(|&s| s <= site_start).saturating_sub(1)
}

/// Does nothing. Constraint generation used to be memoized process-wide
/// and this cleared the memo; no such state exists any more (every
/// [`Compiler::compile`] generates from scratch), and the function stays
/// only so callers written against the old API keep building.
pub fn clear_gen_memo() {}

/// The pipeline proper: env → phase 1 → phase 2 → solve → check
/// elimination, from an already-parsed (possibly refined) AST.
/// Strictness is layered on top by [`Compiler::compile`]. Running
/// from the AST rather than re-rendered source keeps every expression
/// span identical to the original program, so check sites, proven-site
/// sets and the evaluator's span-keyed check elimination stay consistent
/// when `dml-infer` attaches annotations.
fn run_pipeline_ast(
    program: sast::Program,
    solver: &Solver,
    reuse: Option<&ReusePlan>,
) -> Result<Compiled, PipelineError> {
    let gen_start = Instant::now();
    let mut gen = VarGen::new();
    let env = program_env(&program, &mut gen).map_err(|e| PipelineError::Env(e.message, e.span))?;
    let phase1 =
        infer_program(&program, &env).map_err(|e| PipelineError::Infer(e.message, e.span))?;
    let ElabOutput { obligations, top_level, gen, contexts } =
        elaborate(&program, &env, &phase1, gen)
            .map_err(|e| PipelineError::Elab(e.message, e.span))?;
    drop(phase1);
    let generation_time = gen_start.elapsed();

    // Incremental reuse: bucket obligations to declarations and take the
    // previous compile's verdicts for buckets the plan marks unchanged. A
    // bucket whose obligation count differs from the plan's record is
    // re-solved in full (positional pairing would be meaningless).
    let mut reused: Vec<Option<Verdict>> = vec![None; obligations.len()];
    let mut obligations_reused = 0usize;
    if let Some(plan) = reuse {
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); plan.prior.len()];
        for (i, ob) in obligations.iter().enumerate() {
            let d = bucket_of(&plan.decl_starts, ob.site.start as usize);
            if let Some(b) = buckets.get_mut(d) {
                b.push(i);
            }
        }
        for (bucket, prior) in buckets.iter().zip(&plan.prior) {
            if let Some(verdicts) = prior {
                if verdicts.len() == bucket.len() {
                    for (&slot, v) in bucket.iter().zip(verdicts) {
                        reused[slot] = Some(v.clone());
                        obligations_reused += 1;
                    }
                }
            }
        }
    }

    // Solve every obligation the plan did not answer (in parallel when the
    // options ask for it; results come back in obligation order either
    // way). Cache hit/miss counters are snapshot-and-diffed around the
    // solve so the reported numbers are this compile's own, even when the
    // solver (and its process-lived cache) is shared across many compiles.
    let solve_start = Instant::now();
    let solver = solver.clone();
    let cache_snapshot = (solver.cache().hits(), solver.cache().misses());
    let mut gen = gen;
    let outcomes = {
        let constraints: Vec<_> = obligations
            .iter()
            .zip(&reused)
            .filter(|(_, r)| r.is_none())
            .map(|(ob, _)| &ob.constraint)
            .collect::<Vec<_>>();
        prove_all(&solver, &constraints, &mut gen)
    };
    let mut results = Vec::with_capacity(obligations.len());
    let mut solver_stats = dml_solver::SolverStats::default();
    let mut goals = 0usize;
    let mut outcomes = outcomes.into_iter();
    for (ob, prior) in obligations.into_iter().zip(reused) {
        if let Some(verdict) = prior {
            results.push((ob, verdict));
            continue;
        }
        let outcome = outcomes.next().expect("one outcome per solved obligation");
        goals += outcome.results.len();
        solver_stats.merge(&outcome.stats);
        results.push((ob, outcome.verdict()));
    }
    // Snapshot-and-diff (see above): report the shared cache's movement
    // during *this* compile's solve, not since the cache was created.
    solver_stats.cache_hits = (solver.cache().hits() - cache_snapshot.0) as usize;
    solver_stats.cache_misses = (solver.cache().misses() - cache_snapshot.1) as usize;
    let solve_time = solve_start.elapsed();

    // Check elimination (§4), fail-safe included: see `dml_elab::eliminate`.
    let elimination = dml_elab::eliminate(&results);
    let proven_sites = elimination.sites().iter().filter(|s| s.proven).map(|s| s.site).collect();

    let stats = CompileStats {
        constraints: results.len(),
        goals,
        generation_time,
        solve_time,
        obligations_reused,
        solver: solver_stats,
    };
    Ok(Compiled {
        program,
        env,
        obligations: results,
        contexts,
        elimination,
        proven_sites,
        stats,
        top_level,
        solver,
        gen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Result<Compiled, PipelineError> {
        Compiler::new().compile(src)
    }

    #[test]
    fn verified_program_eliminates_checks() {
        let src = r#"
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int
"#;
        let c = compile(src).unwrap();
        assert!(c.fully_verified());
        assert_eq!(c.proven_sites().len(), 1);
        assert!(c.unproven_sites().is_empty());
        assert!(c.residual_checks().is_empty());
        assert!(c.stats().constraints > 0);
    }

    #[test]
    fn unannotated_program_keeps_checks() {
        let c = compile("fun get(v, i) = sub(v, i)").unwrap();
        assert!(!c.fully_verified());
        assert!(c.proven_sites().is_empty());
        assert_eq!(c.unproven_sites().len(), 1);
        let residual = c.residual_checks();
        assert_eq!(residual.len(), 1);
        assert_eq!(residual[0].prim, "sub");
    }

    #[test]
    fn eliminated_machine_skips_checks() {
        let src = r#"
fun total(v) = let
  fun loop(i, n, sum) =
    if i = n then sum else loop(i+1, n, sum + sub(v, i))
  where loop <| {k:nat | k <= n} {i:nat | i <= k} int(i) * int(k) * int -> int
in
  loop(0, length v, 0)
end
where total <| {n:nat} int array(n) -> int
"#;
        let c = compile(src).unwrap();
        assert!(c.fully_verified(), "{:?}", c.failures().collect::<Vec<_>>());
        let mut m = c.machine(Mode::Eliminated);
        let r = m.call("total", vec![dml_eval::Value::int_array([1, 2, 3, 4])]).unwrap();
        assert_eq!(r.as_int(), Some(10));
        assert_eq!(m.counters.array_checks_eliminated, 4);
        assert_eq!(m.counters.array_checks_executed, 0);
        let mut m = c.machine(Mode::Checked);
        m.call("total", vec![dml_eval::Value::int_array([1, 2, 3, 4])]).unwrap();
        assert_eq!(m.counters.array_checks_executed, 4);
    }

    #[test]
    fn failed_equation_blocks_all_elimination() {
        // The bound obligation on `sub(v, 0)` is provable, but the result
        // type equation is false, so the program does not type-check and
        // nothing may be eliminated.
        let src = r#"
fun broken(v) = sub(v, 0)
where broken <| {n:nat | n > 0} int array(n) -> int(n+1)
"#;
        let c = compile(src).unwrap();
        assert!(!c.fully_verified());
        assert!(c.proven_sites().is_empty(), "type error must block elimination");
    }

    /// The false result equation of `broken` is *refuted*, not merely
    /// unknown: the solver exhibits a witness for `n+1 ≠ n` under `n > 0`.
    #[test]
    fn false_equation_is_refuted() {
        let src = r#"
fun broken(v) = sub(v, 0)
where broken <| {n:nat | n > 0} int array(n) -> int(n+1)
"#;
        let c = compile(src).unwrap();
        assert!(
            c.failures().any(|(_, r)| r.is_refuted()),
            "{:?}",
            c.failures().collect::<Vec<_>>()
        );
    }

    #[test]
    fn strict_mode_reports_all_unproven_obligations_sorted() {
        // Two independent unproven sites; strict mode must report both,
        // in source order.
        let src = r#"
fun get(v, i) = sub(v, i)
fun put(v, i, x) = update(v, i, x)
"#;
        let err = Compiler::new().strict(true).compile(src).unwrap_err();
        let PipelineError::Unproven(obs) = &err else { panic!("{err}") };
        assert!(obs.len() >= 2, "both sites reported: {obs:?}");
        let sites: Vec<_> = obs.iter().map(|(o, _)| o.site.start).collect();
        let mut sorted = sites.clone();
        sorted.sort_unstable();
        assert_eq!(sites, sorted, "sorted by source site");
        let text = err.to_string();
        assert!(text.contains("sub") && text.contains("update"), "{text}");

        // The same program compiles fine permissively.
        let c = Compiler::new().compile(src).unwrap();
        assert_eq!(c.residual_checks().len(), 2);
    }

    #[test]
    fn strict_mode_passes_verified_programs() {
        let src = r#"
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int
"#;
        let c = Compiler::new().strict(true).compile(src).unwrap();
        assert!(c.fully_verified());
    }

    #[test]
    fn zero_fuel_degrades_gracefully_and_residuals_count_at_runtime() {
        // With no fuel the loop invariant goals exhaust immediately; the
        // program still compiles permissively and runs with its checks.
        let src = r#"
fun total(v) = let
  fun loop(i, n, sum) =
    if i = n then sum else loop(i+1, n, sum + sub(v, i))
  where loop <| {k:nat | k <= n} {i:nat | i <= k} int(i) * int(k) * int -> int
in
  loop(0, length v, 0)
end
where total <| {n:nat} int array(n) -> int
"#;
        let starved = Compiler::new().fuel(0).compile(src).unwrap();
        assert!(!starved.fully_verified(), "zero fuel cannot prove the loop bounds");
        assert!(
            starved.failures().any(|(_, r)| matches!(
                r,
                Verdict::Unknown(dml_index::UnknownReason::FuelExhausted)
            )),
            "{:?}",
            starved.failures().collect::<Vec<_>>()
        );
        assert!(!starved.residual_checks().is_empty());

        // The residual checks execute — and are *counted* as residual.
        let mut m = starved.machine(Mode::Eliminated);
        let r = m.call("total", vec![dml_eval::Value::int_array([1, 2, 3, 4])]).unwrap();
        assert_eq!(r.as_int(), Some(10));
        assert!(m.counters.array_checks_residual > 0);
        assert_eq!(m.counters.array_checks_residual, m.counters.array_checks_executed);

        // Unlimited fuel proves everything — same program, same session API.
        let full = Compiler::new().compile(src).unwrap();
        assert!(full.fully_verified());
        assert!(full.residual_checks().is_empty());
    }

    /// The dead-branch lint is genuinely solver-backed: with the guard
    /// `i < n` in scope the `if` condition is entailed and DML001 fires;
    /// dropping that one hypothesis from the annotation flips the verdict.
    #[test]
    fn lints_flag_dead_branch_and_hypothesis_removal_flips_it() {
        let guarded = r#"
fun get(v, i) = if i < length(v) then sub(v, i) else 0
where get <| {n:nat, i:nat | i < n} int array(n) * int(i) -> int
"#;
        let c = compile(guarded).unwrap();
        let lints = c.lints();
        assert!(
            lints.iter().any(|f| f.code == "DML001" && f.message.contains("always true")),
            "{lints:?}"
        );

        let unguarded = r#"
fun get(v, i) = if i < length(v) then sub(v, i) else 0
where get <| {n:nat, i:nat} int array(n) * int(i) -> int
"#;
        let c = compile(unguarded).unwrap();
        let lints = c.lints();
        assert!(
            !lints.iter().any(|f| f.code == "DML001"),
            "without `i < n` the condition is contingent: {lints:?}"
        );
    }

    #[test]
    fn lints_are_quiet_on_a_clean_program() {
        let src = r#"
fun total(v) = let
  fun loop(i, n, sum) =
    if i = n then sum else loop(i+1, n, sum + sub(v, i))
  where loop <| {k:nat | k <= n} {i:nat | i <= k} int(i) * int(k) * int -> int
in
  loop(0, length v, 0)
end
where total <| {n:nat} int array(n) -> int
"#;
        let c = compile(src).unwrap();
        assert!(c.fully_verified());
        let lints = c.lints();
        assert!(lints.is_empty(), "{lints:?}");
    }

    /// Compiling twice against one solver shares the verdict cache: the
    /// second compile answers every cacheable goal from it, with identical
    /// verdicts.
    #[test]
    fn with_solver_shares_cache_across_compiles() {
        let src = r#"
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int
"#;
        let solver = Solver::new(SolverOptions::default());
        let cold = Compiler::new().with_solver(&solver).compile(src).unwrap();
        assert!(cold.stats().solver.cache_misses > 0);
        let warm = Compiler::new().with_solver(&solver).compile(src).unwrap();
        assert_eq!(warm.stats().solver.cache_misses, 0, "second compile is all hits");
        assert!(warm.stats().solver.cache_hits > 0);
        assert!(warm.fully_verified());
        assert_eq!(cold.proven_sites(), warm.proven_sites());
    }

    /// A single `Compiler` handle is a reusable session: its second
    /// compile of the same program is answered entirely from the session
    /// verdict cache, and an option change between compiles keeps the
    /// cache while applying the new budget.
    #[test]
    fn compiler_handle_reuses_session_across_compiles() {
        let src = r#"
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int
"#;
        let session = Compiler::new();
        let cold = session.compile(src).unwrap();
        assert!(cold.stats().solver.cache_misses > 0);
        let warm = session.compile(src).unwrap();
        assert_eq!(warm.stats().solver.cache_misses, 0, "second compile is all hits");
        assert!(warm.stats().solver.cache_hits > 0);
        assert_eq!(cold.proven_sites(), warm.proven_sites());

        // Changing an option between compiles keeps the session cache:
        // the budget-class key partition means unlimited-fuel verdicts
        // still answer unlimited-fuel goals, while the new fuel class
        // misses cleanly.
        let refueled = session.clone().fuel(1_000_000);
        let third = refueled.compile(src).unwrap();
        assert!(third.fully_verified());
        assert_eq!(cold.proven_sites(), third.proven_sites());
    }

    /// A clone made before any compile shares the handle's cache too, and
    /// a budget setter on the clone keeps it.
    #[test]
    fn clones_share_the_cache_from_the_start() {
        let src = r#"
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int
"#;
        let handle = Compiler::new();
        let cold = handle.clone().workers(1).compile(src).unwrap();
        assert!(cold.stats().solver.cache_misses > 0);
        let warm = handle.compile(src).unwrap();
        assert_eq!(warm.stats().solver.cache_misses, 0, "the clone's verdicts are the handle's");
    }

    /// Tightening changes verdicts, so a handle that already compiled with
    /// it must not serve those verdicts to a compile without it: bcopy
    /// needs tightening, and is not fully verified without it on a fresh
    /// handle or on a warm one.
    #[test]
    fn untightened_compile_is_not_served_tightened_verdicts() {
        let src = dml_programs::bcopy::SOURCE;
        let untightened = SolverOptions::default().with_tighten(false);
        let fresh = Compiler::new().solver_options(untightened).compile(src).unwrap();
        assert!(!fresh.fully_verified());
        let session = Compiler::new();
        assert!(session.compile(src).unwrap().fully_verified());
        let warm = session.solver_options(untightened).compile(src).unwrap();
        let s = &warm.stats().solver;
        assert!(!warm.fully_verified(), "{} hits, {} misses", s.cache_hits, s.cache_misses);
    }

    /// Worker count and cache do not change verdicts or proven sites.
    #[test]
    fn parallel_and_cache_configs_agree() {
        let src = r#"
fun total(v) = let
  fun loop(i, n, sum) =
    if i = n then sum else loop(i+1, n, sum + sub(v, i))
  where loop <| {k:nat | k <= n} {i:nat | i <= k} int(i) * int(k) * int -> int
in
  loop(0, length v, 0)
end
where total <| {n:nat} int array(n) -> int
"#;
        let base = Compiler::new().workers(1).compile(src).unwrap();
        for (workers, cache) in [(4, true), (1, false), (4, false)] {
            let c = Compiler::new().workers(workers).cache(cache).compile(src).unwrap();
            let verdicts =
                |c: &Compiled| c.obligations().iter().map(|(_, r)| r.clone()).collect::<Vec<_>>();
            assert_eq!(verdicts(&base), verdicts(&c), "workers={workers} cache={cache}");
            assert_eq!(base.proven_sites(), c.proven_sites(), "workers={workers} cache={cache}");
            assert_eq!(base.stats().goals, c.stats().goals, "workers={workers} cache={cache}");
        }
    }

    #[test]
    fn parse_errors_reported() {
        assert!(matches!(compile("fun = 3"), Err(PipelineError::Parse(_))));
    }

    #[test]
    fn infer_errors_reported() {
        assert!(matches!(compile("fun f(x) = x + true"), Err(PipelineError::Infer(_, _))));
    }
}
