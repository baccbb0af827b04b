//! The differential fuzz harness: generate → decide → cross-check.
//!
//! Every iteration generates one goal, asks the [oracle](crate::oracle)
//! for a reference verdict, and decides the goal with the production
//! solver under several configurations:
//!
//! * shared solver, cache on, unlimited fuel (the production shape —
//!   its cache is warm across iterations, exactly like a compile);
//! * fresh solver, cache off, unlimited fuel;
//! * fresh solver, cache on (cold), unlimited fuel;
//! * shared solver at two fuel budgets (tiny and ample);
//! * fresh solver with the Omega-test fallback on.
//!
//! Cross-checks, in decreasing severity:
//!
//! 1. **Soundness vs oracle** — solver `Proven` against an enumerated
//!    integer countermodel, or solver `Refuted` against a rational
//!    unsatisfiability proof, is a bug in the bound-check elision story.
//! 2. **Config coherence** — a fresh cache-on solver and a cache-off
//!    solver recompute the same goal and must agree *exactly*. The warm
//!    shared solver may serve a verdict cached for a canonically-equal
//!    goal, and canonically-equal goals can split refuted/unknown
//!    differently (hypothesis order steers which DNF disjunct the witness
//!    search certifies) — so against the warm cache only the *Proven*
//!    status is pinned, which is the part elision soundness depends on.
//! 3. **Budget monotonicity** — a fuel-limited `Proven` forces unlimited
//!    `Proven`, and a fuel-limited `Refuted` (a concrete countermodel)
//!    forbids unlimited `Proven`.
//! 4. **Metamorphic invariances** — α-renaming must preserve the full
//!    verdict (the canonical renamer assigns dense ids in
//!    first-occurrence order, so α-variants share a cache key), while
//!    hypothesis permutation and duplication must preserve the *Proven*
//!    status: a proof must never depend on hypothesis order, but the
//!    refuted/unknown split may (the witness search certifies the first
//!    satisfiable DNF disjunct, whose identity follows hypothesis order).
//! 5. **Completeness on the generated fragment** — a goal the oracle
//!    *proves* must be proven by the unlimited solver: rational
//!    unsatisfiability means Fourier–Motzkin refutes every disjunct of
//!    the negation, and integer tightening only strengthens that. An
//!    oracle *refutation* does not bound the solver the same way — the
//!    witness search only certifies the first satisfiable disjunct, and
//!    only inside its `[-8, 8]` box — so there `Unknown` is within
//!    contract and only a solver `Proven` is a (soundness) divergence.
//!    The Omega-fallback verdict gets the same soundness check; the goals
//!    it proves that Fourier–Motzkin alone left `Unknown` are counted in
//!    [`FuzzReport::omega_recovered`].
//!
//! Every `workers_batch` iterations the accumulated goals are wrapped in
//! `Constraint`s and proven with 1-worker and 4-worker `prove_all`,
//! pinning verdict equality under parallel solving.
//!
//! With [`FuzzConfig::infer`] on, the run ends with an end-to-end
//! inference cross-check: each seed benchmark is stripped of its
//! annotations, re-inferred (`dml::Compiler::infer`), and every
//! solver-proven goal of the refined program is decided by the oracle —
//! a countermodel there means a synthesized annotation made the solver
//! elide a falsifiable bound check.
//!
//! Divergences are [minimized](crate::minimize()) and serialized as
//! [repro files](crate::repro); the report is deterministic for a fixed
//! seed (it carries a digest the tests compare across runs).

use crate::gen::{gen_goal, GenConfig};
use crate::minimize::minimize;
use crate::oracle::{decide as oracle_decide, OracleVerdict, DEFAULT_BOUND};
use crate::program::check_program_case;
use crate::repro::write_goal;
use crate::rng::OracleRng;
use crate::scale::{gen_scale_corpus, minimize_scale_case, verify_scale_case, ScaleConfig};
use dml_index::{Constraint, Prop, VarGen, Verdict};
use dml_obs::json::{obj, Json};
use dml_solver::{prove_all, Goal, Solver, SolverOptions, SolverStats};
use std::fmt;
use std::path::PathBuf;

/// Fuzz-run configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// RNG seed; identical seeds give identical reports.
    pub seed: u64,
    /// Number of goal iterations.
    pub iters: u64,
    /// Enumeration box half-width for the oracle.
    pub bound: i64,
    /// Where to write divergence repro files (`None` keeps them in the
    /// report only).
    pub repro_dir: Option<PathBuf>,
    /// Also run end-to-end generated-program cases (every 8th iteration).
    pub programs: bool,
    /// Also cross-check inferred refinements: strip each benchmark
    /// program's annotations, re-infer them, and decide every
    /// solver-proven goal of the refined program with the exact oracle.
    pub infer: bool,
    /// Goal-generator tunables.
    pub gen: GenConfig,
    /// Batch size for the 1-vs-4-worker `prove_all` comparison.
    pub workers_batch: usize,
    /// Also cross-check the scale-corpus generator: compile each seeded
    /// scale case under `{workers 1, workers 4} × {cache on, cache off}`
    /// and pin the stamped verdict counts plus stable-report equality
    /// across the matrix. Divergent cases are shrunk with
    /// [`crate::minimize_scale_case`] and serialized as `.dml` repros.
    pub scale: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 42,
            iters: 1000,
            bound: DEFAULT_BOUND,
            repro_dir: None,
            programs: true,
            infer: false,
            gen: GenConfig::default(),
            workers_batch: 32,
            scale: false,
        }
    }
}

/// What kind of cross-check a divergence violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Solver proved a goal the enumerator refutes with a concrete
    /// integer countermodel — an unsound bound-check elision.
    UnsoundProven,
    /// Solver refuted a goal whose negation the rational eliminator
    /// proves unsatisfiable — a bogus counterexample claim.
    BogusRefutation,
    /// The oracle proved the goal (rationally unsatisfiable negation)
    /// but the unlimited solver answered `Unknown` — a completeness gap
    /// integer Fourier–Motzkin cannot have on this fragment.
    IncompleteDecided,
    /// Verdicts differ across unlimited solver configurations
    /// (cache/sharing/workers must be invisible).
    ConfigFlip,
    /// A fuel-limited run *decided* differently than the unlimited run.
    BudgetFlip,
    /// Hypothesis permutation, duplication, or α-renaming changed the
    /// verdict.
    MetamorphicFlip,
    /// A generated program behaved differently across check modes.
    ProgramMismatch,
    /// The solver proved a goal of an inference-refined program that the
    /// enumeration oracle refutes with a concrete countermodel — an
    /// inferred annotation led to an unsound bound-check elision.
    InferUnsound,
    /// A scale-corpus case diverged from its stamped expectation: the
    /// verdict counts the generator predicted did not match what the
    /// compiler produced, or the stable report differed across the
    /// workers × cache configuration matrix.
    ScaleMismatch,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivergenceKind::UnsoundProven => "unsound-proven",
            DivergenceKind::BogusRefutation => "bogus-refutation",
            DivergenceKind::IncompleteDecided => "incomplete-decided",
            DivergenceKind::ConfigFlip => "config-flip",
            DivergenceKind::BudgetFlip => "budget-flip",
            DivergenceKind::MetamorphicFlip => "metamorphic-flip",
            DivergenceKind::ProgramMismatch => "program-mismatch",
            DivergenceKind::InferUnsound => "infer-unsound",
            DivergenceKind::ScaleMismatch => "scale-mismatch",
        };
        write!(f, "{s}")
    }
}

/// One detected divergence with its minimized, replayable repro.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Iteration at which it was found.
    pub iter: u64,
    /// Which cross-check failed.
    pub kind: DivergenceKind,
    /// Deterministic human-readable detail.
    pub detail: String,
    /// The repro-file content (minimized goal + notes), replayable with
    /// [`crate::repro::parse_goal`]. Empty for program mismatches (the
    /// detail carries the source).
    pub repro: String,
    /// Where the repro file was written, when a directory was configured.
    pub repro_path: Option<PathBuf>,
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// The seed the run used.
    pub seed: u64,
    /// Goal iterations executed.
    pub iters: u64,
    /// Solver verdict counts under the base configuration.
    pub proven: u64,
    /// See [`FuzzReport::proven`].
    pub refuted: u64,
    /// See [`FuzzReport::proven`].
    pub unknown: u64,
    /// Goals the Omega-test fallback proved that the base configuration
    /// (Fourier–Motzkin alone) left `Unknown`.
    pub omega_recovered: u64,
    /// Oracle verdict counts.
    pub oracle_proven: u64,
    /// See [`FuzzReport::oracle_proven`].
    pub oracle_refuted: u64,
    /// See [`FuzzReport::oracle_proven`].
    pub oracle_unknown: u64,
    /// Metamorphic variants checked.
    pub metamorphic_checks: u64,
    /// End-to-end program cases executed.
    pub program_cases: u64,
    /// Goals compared under 1-vs-4-worker `prove_all`.
    pub worker_checked_goals: u64,
    /// Benchmark programs round-tripped through strip → infer (0 unless
    /// [`FuzzConfig::infer`] is on).
    pub infer_programs: u64,
    /// Annotations inference synthesized and the solver verified.
    pub infer_accepted: u64,
    /// Solver-proven goals of refined programs decided by the oracle.
    pub infer_goals: u64,
    /// Scale-corpus cases compiled under the configuration matrix (0
    /// unless [`FuzzConfig::scale`] is on).
    pub scale_cases: u64,
    /// Total bound-check sites across those cases.
    pub scale_sites: u64,
    /// All divergences, in discovery order.
    pub divergences: Vec<Divergence>,
    /// FNV-1a digest over every verdict of the run — two runs with the
    /// same seed must produce the same digest (the determinism pin).
    pub digest: u64,
}

impl FuzzReport {
    /// `true` when the run found no divergence.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Human-readable summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fuzz: seed {} · {} goal(s) · digest {:016x}\n",
            self.seed, self.iters, self.digest
        ));
        out.push_str(&format!(
            "solver verdicts: {} proven, {} refuted, {} unknown ({} proven with the Omega fallback)\n",
            self.proven, self.refuted, self.unknown, self.omega_recovered
        ));
        out.push_str(&format!(
            "oracle verdicts: {} proven, {} refuted, {} unknown\n",
            self.oracle_proven, self.oracle_refuted, self.oracle_unknown
        ));
        out.push_str(&format!(
            "cross-checks: {} metamorphic variant(s), {} worker-compared goal(s), {} program case(s)\n",
            self.metamorphic_checks, self.worker_checked_goals, self.program_cases
        ));
        if self.infer_programs > 0 {
            out.push_str(&format!(
                "inference: {} program(s) stripped and re-inferred, {} annotation(s) accepted, \
                 {} proven goal(s) oracle-checked\n",
                self.infer_programs, self.infer_accepted, self.infer_goals
            ));
        }
        if self.scale_cases > 0 {
            out.push_str(&format!(
                "scale: {} corpus case(s) compiled across the workers x cache matrix, \
                 {} check site(s) pinned\n",
                self.scale_cases, self.scale_sites
            ));
        }
        if self.ok() {
            out.push_str("no divergences\n");
        } else {
            out.push_str(&format!("{} DIVERGENCE(S):\n", self.divergences.len()));
            for d in &self.divergences {
                out.push_str(&format!("  iter {}: [{}] {}\n", d.iter, d.kind, d.detail));
                if let Some(p) = &d.repro_path {
                    out.push_str(&format!("    repro: {}\n", p.display()));
                }
            }
        }
        out
    }

    /// Machine-readable summary (stable key order).
    pub fn render_json(&self) -> String {
        let divs: Vec<Json> = self
            .divergences
            .iter()
            .map(|d| {
                obj(vec![
                    ("iter", Json::Int(d.iter as i64)),
                    ("kind", Json::Str(d.kind.to_string())),
                    ("detail", Json::Str(d.detail.clone())),
                    ("repro", Json::Str(d.repro.clone())),
                    (
                        "reproPath",
                        d.repro_path
                            .as_ref()
                            .map(|p| Json::Str(p.display().to_string()))
                            .unwrap_or(Json::Null),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("seed", Json::Int(self.seed as i64)),
            ("iters", Json::Int(self.iters as i64)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            (
                "solver",
                obj(vec![
                    ("proven", Json::Int(self.proven as i64)),
                    ("refuted", Json::Int(self.refuted as i64)),
                    ("unknown", Json::Int(self.unknown as i64)),
                ]),
            ),
            (
                "oracle",
                obj(vec![
                    ("proven", Json::Int(self.oracle_proven as i64)),
                    ("refuted", Json::Int(self.oracle_refuted as i64)),
                    ("unknown", Json::Int(self.oracle_unknown as i64)),
                ]),
            ),
            ("metamorphicChecks", Json::Int(self.metamorphic_checks as i64)),
            ("workerCheckedGoals", Json::Int(self.worker_checked_goals as i64)),
            ("programCases", Json::Int(self.program_cases as i64)),
            ("omegaRecovered", Json::Int(self.omega_recovered as i64)),
            (
                "infer",
                obj(vec![
                    ("programs", Json::Int(self.infer_programs as i64)),
                    ("accepted", Json::Int(self.infer_accepted as i64)),
                    ("goals", Json::Int(self.infer_goals as i64)),
                ]),
            ),
            (
                "scale",
                obj(vec![
                    ("cases", Json::Int(self.scale_cases as i64)),
                    ("sites", Json::Int(self.scale_sites as i64)),
                ]),
            ),
            ("divergences", Json::Array(divs)),
        ])
        .render()
    }
}

/// Tiny fuel budget that regularly exhausts on generated goals.
const FUEL_TINY: u64 = 2;
/// Ample fuel budget that never exhausts on generated goals.
const FUEL_AMPLE: u64 = 1024;

/// Runs the differential fuzz harness (see module docs).
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = OracleRng::new(cfg.seed);
    let mut gen = VarGen::new();
    let mut report = FuzzReport { seed: cfg.seed, ..FuzzReport::default() };
    let mut digest = Fnv::new();

    let shared = Solver::new(SolverOptions::default().with_workers(Some(1)));
    let tiny = shared
        .with_options(SolverOptions::default().with_workers(Some(1)).with_fuel(Some(FUEL_TINY)));
    let ample = shared
        .with_options(SolverOptions::default().with_workers(Some(1)).with_fuel(Some(FUEL_AMPLE)));

    let mut batch: Vec<(u64, Goal)> = Vec::new();

    for iter in 0..cfg.iters {
        let goal = gen_goal(&mut rng, &mut gen, &cfg.gen);
        report.iters += 1;

        let oracle = oracle_decide(&goal, cfg.bound);
        match &oracle {
            OracleVerdict::Proven => report.oracle_proven += 1,
            OracleVerdict::Refuted(_) => report.oracle_refuted += 1,
            OracleVerdict::Unknown => report.oracle_unknown += 1,
        }

        // Unlimited configurations: shared warm cache, no cache, cold cache.
        let shared_v = decide_with(&shared, &goal, &mut gen);
        let nocache = decide_with(
            &Solver::new(SolverOptions::default().with_workers(Some(1)).with_cache(false)),
            &goal,
            &mut gen,
        );
        let cold = decide_with(
            &Solver::new(SolverOptions::default().with_workers(Some(1))),
            &goal,
            &mut gen,
        );
        match &cold {
            Verdict::Proven => report.proven += 1,
            Verdict::Refuted => report.refuted += 1,
            _ => report.unknown += 1,
        }
        digest.push(&cold.to_string());
        digest.push(&shared_v.to_string());

        // A fresh cache-on solver and a cache-off solver both recompute
        // this exact goal; any difference is a bug.
        if cold != nocache {
            record(
                &mut report,
                cfg,
                iter,
                DivergenceKind::ConfigFlip,
                format!("cold-cache={cold} vs no-cache={nocache}"),
                &goal,
                |g, gen| {
                    let a = decide_with(
                        &Solver::new(SolverOptions::default().with_workers(Some(1))),
                        g,
                        gen,
                    );
                    let b = decide_with(
                        &Solver::new(
                            SolverOptions::default().with_workers(Some(1)).with_cache(false),
                        ),
                        g,
                        gen,
                    );
                    a != b
                },
                &mut gen,
            );
        }
        // The warm shared cache may have served a verdict computed for a
        // canonically-equal goal; the proven status must still match. Not
        // minimized: the flip depends on the cache history, which shrinking
        // cannot replay.
        if shared_v.is_proven() != cold.is_proven() {
            push_divergence(
                &mut report,
                cfg,
                Divergence {
                    iter,
                    kind: DivergenceKind::ConfigFlip,
                    detail: format!(
                        "warm shared cache flipped proven status: shared={shared_v} vs cold={cold}"
                    ),
                    repro: write_goal(
                        &goal,
                        None,
                        &[format!(
                            "warm-cache proven-status flip: shared={shared_v} cold={cold} \
                             (seed={} iter={iter})",
                            cfg.seed
                        )],
                    ),
                    repro_path: None,
                },
            );
        }

        // Budget monotonicity: a fuel-limited proof forces an unlimited
        // proof; a fuel-limited countermodel forbids one.
        for (name, solver) in [("fuel-tiny", &tiny), ("fuel-ample", &ample)] {
            let v = decide_with(solver, &goal, &mut gen);
            digest.push(&v.to_string());
            let conflict =
                (v.is_proven() && !cold.is_proven()) || (v.is_refuted() && cold.is_proven());
            if conflict {
                let fuel = solver.options().fuel;
                record(
                    &mut report,
                    cfg,
                    iter,
                    DivergenceKind::BudgetFlip,
                    format!("unlimited={cold} vs {name}={v}"),
                    &goal,
                    move |g, gen| {
                        let unlimited = decide_with(
                            &Solver::new(SolverOptions::default().with_workers(Some(1))),
                            g,
                            gen,
                        );
                        let limited = decide_with(
                            &Solver::new(
                                SolverOptions::default().with_workers(Some(1)).with_fuel(fuel),
                            ),
                            g,
                            gen,
                        );
                        (limited.is_proven() && !unlimited.is_proven())
                            || (limited.is_refuted() && unlimited.is_proven())
                    },
                    &mut gen,
                );
            }
        }

        // The Omega fallback on a fresh solver, decided on a copy of the
        // variable generator so the rest of the run, digest included, is
        // unchanged by it.
        let omega_opts = SolverOptions::default().with_workers(Some(1)).with_omega_fallback(true);
        let omega = decide_with(&Solver::new(omega_opts), &goal, &mut gen.clone());
        if omega.is_proven() && cold.is_unknown() {
            report.omega_recovered += 1;
        }

        // Oracle cross-checks. Neither the deterministic cold verdict nor
        // the Omega fallback may prove a goal with an integer countermodel.
        if let OracleVerdict::Refuted(model) = &oracle {
            let cold_opts = SolverOptions::default().with_workers(Some(1));
            for (who, opts, v) in
                [("solver", cold_opts, &cold), ("omega fallback", omega_opts, &omega)]
            {
                if !v.is_proven() {
                    continue;
                }
                let detail = format!(
                    "{who} proved a goal with integer countermodel {}",
                    model.iter().map(|(n, v)| format!("{n}={v}")).collect::<Vec<_>>().join(" ")
                );
                let bound = cfg.bound;
                record(
                    &mut report,
                    cfg,
                    iter,
                    DivergenceKind::UnsoundProven,
                    detail,
                    &goal,
                    move |g, gen| {
                        matches!(oracle_decide(g, bound), OracleVerdict::Refuted(_))
                            && decide_with(&Solver::new(opts), g, gen) == Verdict::Proven
                    },
                    &mut gen,
                );
            }
        }
        match (&oracle, &cold) {
            (OracleVerdict::Proven, Verdict::Refuted) => {
                let bound = cfg.bound;
                record(
                    &mut report,
                    cfg,
                    iter,
                    DivergenceKind::BogusRefutation,
                    "solver refuted a goal whose negation is rationally unsatisfiable".into(),
                    &goal,
                    move |g, gen| {
                        oracle_decide(g, bound) == OracleVerdict::Proven
                            && decide_with(
                                &Solver::new(SolverOptions::default().with_workers(Some(1))),
                                g,
                                gen,
                            ) == Verdict::Refuted
                    },
                    &mut gen,
                );
            }
            (OracleVerdict::Proven, v) if v.is_unknown() => {
                let bound = cfg.bound;
                record(
                    &mut report,
                    cfg,
                    iter,
                    DivergenceKind::IncompleteDecided,
                    format!("oracle proved but unlimited solver answered `{v}`"),
                    &goal,
                    move |g, gen| {
                        oracle_decide(g, bound) == OracleVerdict::Proven
                            && decide_with(
                                &Solver::new(SolverOptions::default().with_workers(Some(1))),
                                g,
                                gen,
                            )
                            .is_unknown()
                    },
                    &mut gen,
                );
            }
            _ => {}
        }

        // Metamorphic variants (decided with the shared warm-cache solver:
        // a canonicalization bug would surface as a stale cache answer).
        for (name, variant) in metamorphic_variants(&goal, &mut rng, &mut gen) {
            report.metamorphic_checks += 1;
            let v = decide_with(&shared, &variant, &mut gen);
            digest.push(&v.to_string());
            // α-renaming shares a cache key with the base, so the whole
            // verdict must survive; permutation/duplication key separately
            // and only the proven status is order-independent.
            let flipped = if name == "alpha-renaming" {
                v != shared_v
            } else {
                v.is_proven() != shared_v.is_proven()
            };
            if flipped {
                let repro = write_goal(
                    &variant,
                    None,
                    &[format!(
                        "metamorphic {name}: base verdict {shared_v}, variant verdict {v} \
                         (seed={} iter={iter})",
                        cfg.seed
                    )],
                );
                push_divergence(
                    &mut report,
                    cfg,
                    Divergence {
                        iter,
                        kind: DivergenceKind::MetamorphicFlip,
                        detail: format!("{name}: base={shared_v} variant={v}"),
                        repro,
                        repro_path: None,
                    },
                );
            }
        }

        batch.push((iter, goal));
        if batch.len() >= cfg.workers_batch {
            check_workers(&mut report, cfg, &batch, &mut gen, &mut digest);
            batch.clear();
        }

        // End-to-end program case on a fixed cadence.
        if cfg.programs && iter % 8 == 0 {
            report.program_cases += 1;
            if let Err(detail) = check_program_case(&mut rng) {
                push_divergence(
                    &mut report,
                    cfg,
                    Divergence {
                        iter,
                        kind: DivergenceKind::ProgramMismatch,
                        detail,
                        repro: String::new(),
                        repro_path: None,
                    },
                );
            }
        }
    }
    if !batch.is_empty() {
        check_workers(&mut report, cfg, &batch, &mut gen, &mut digest);
    }
    if cfg.infer {
        check_infer(&mut report, cfg, &mut digest);
    }
    if cfg.scale {
        check_scale(&mut report, cfg, &mut digest);
    }
    report.digest = digest.finish();
    report
}

/// Obligation target for the fuzz-mode scale corpus: large enough that
/// every unit shape (proven/residual/mixed/nonlinear chains) appears,
/// small enough for a nightly-CI iteration.
const SCALE_TARGET: usize = 240;

/// Cross-checks the scale-corpus generator end to end (see
/// [`FuzzConfig::scale`]). Three properties are pinned per case:
///
/// 1. **Determinism** — regenerating the corpus from the same seed must
///    reproduce every source byte-for-byte.
/// 2. **Stamped counts** — the verdict counts the generator predicted
///    (proven / residual / nonlinear sites) must match the compiler
///    under every `{workers} × {cache}` configuration.
/// 3. **Config invisibility** — the stable report body (volatile timing
///    and cache lines stripped) must be identical across the matrix.
///
/// A diverging case is shrunk with [`minimize_scale_case`]: units are
/// dropped while the *first* configuration still exhibits the failure,
/// and the minimized `.dml` source is the repro.
fn check_scale(report: &mut FuzzReport, cfg: &FuzzConfig, digest: &mut Fnv) {
    let scale_cfg = ScaleConfig::new(cfg.seed, SCALE_TARGET).files(3);
    let corpus = gen_scale_corpus(&scale_cfg);
    let again = gen_scale_corpus(&scale_cfg);
    for (a, b) in corpus.cases.iter().zip(again.cases.iter()) {
        if a.source != b.source {
            push_divergence(
                report,
                cfg,
                Divergence {
                    iter: 0,
                    kind: DivergenceKind::ScaleMismatch,
                    detail: format!("regenerating `{}` from seed {} differed", a.name, cfg.seed),
                    repro: a.source.clone(),
                    repro_path: None,
                },
            );
            return;
        }
    }

    let matrix: [(usize, bool); 4] = [(1, true), (1, false), (4, true), (4, false)];
    for case in &corpus.cases {
        report.scale_cases += 1;
        report.scale_sites += case.expected.check_sites as u64;
        let mut base: Option<String> = None;
        for (workers, cache) in matrix {
            let compiler = dml::Compiler::new().workers(workers).cache(cache);
            let fail = match compiler.compile(&case.source) {
                Err(e) => Some(format!("workers={workers} cache={cache}: compile failed: {e}")),
                Ok(compiled) => match verify_scale_case(&compiled, &case.expected) {
                    Err(e) => Some(format!("workers={workers} cache={cache}: {e}")),
                    Ok(()) => {
                        let body =
                            dml::stable_body(&dml::check_report(&compiled, &case.source).text);
                        match &base {
                            None => {
                                digest.push(&body);
                                base = Some(body);
                                None
                            }
                            Some(b) if *b != body => Some(format!(
                                "workers={workers} cache={cache}: stable report differs \
                                 from workers=1 cache=on"
                            )),
                            Some(_) => None,
                        }
                    }
                },
            };
            if let Some(detail) = fail {
                // Shrink against the *observed* failing configuration.
                let shrunk = minimize_scale_case(case, |c| {
                    let compiler = dml::Compiler::new().workers(workers).cache(cache);
                    match compiler.compile(&c.source) {
                        Err(_) => true,
                        Ok(compiled) => verify_scale_case(&compiled, &c.expected).is_err(),
                    }
                });
                push_divergence(
                    report,
                    cfg,
                    Divergence {
                        iter: 0,
                        kind: DivergenceKind::ScaleMismatch,
                        detail: format!("{}: {detail}", case.name),
                        repro: format!(
                            "(* scale-mismatch in {} (seed={}): {detail} *)\n{}",
                            case.name, cfg.seed, shrunk.source
                        ),
                        repro_path: None,
                    },
                );
                break;
            }
        }
    }
}

/// Cross-checks the inference pipeline end to end: every seed benchmark
/// program is stripped of its annotations, recompiled with inference on,
/// and every obligation of the refined program is re-proven goal by goal;
/// each solver-`Proven` goal is then decided by the enumeration oracle. A
/// concrete countermodel means an inferred annotation made the solver
/// prove a falsifiable bound — the exact unsoundness `dmlc infer`'s
/// "solver disposes" contract must exclude. Goals carrying residual
/// existentials are skipped: a countermodel of `hyps ∧ ¬concl` does not
/// refute an existentially quantified conclusion.
fn check_infer(report: &mut FuzzReport, cfg: &FuzzConfig, digest: &mut Fnv) {
    let infer_fail = |report: &mut FuzzReport, cfg: &FuzzConfig, name: &str, detail: String| {
        push_divergence(
            report,
            cfg,
            Divergence {
                iter: 0,
                kind: DivergenceKind::InferUnsound,
                detail: format!("{name}: {detail}"),
                repro: String::new(),
                repro_path: None,
            },
        );
    };
    for p in dml_programs::all_programs() {
        report.infer_programs += 1;
        let stripped = match dml::strip_annotations(p.source) {
            Ok(s) => s,
            Err(e) => {
                infer_fail(report, cfg, p.name, format!("strip failed: {e}"));
                continue;
            }
        };
        let compiled = match dml::Compiler::new().workers(1).infer(true).compile(&stripped) {
            Ok(c) => c,
            Err(e) => {
                infer_fail(report, cfg, p.name, format!("stripped compile failed: {e}"));
                continue;
            }
        };
        report.infer_accepted += compiled.infer_report().map_or(0, |r| r.accepted.len() as u64);
        // Re-prove each obligation of the refined program to recover its
        // individual goals, then hand every proven one to the oracle. The
        // id range starts far above anything elaboration generated, so
        // existential elimination cannot capture constraint variables.
        let solver = Solver::new(SolverOptions::default().with_workers(Some(1)));
        let mut oracle_gen = VarGen::starting_at(1 << 24);
        for (ob, _) in compiled.obligations() {
            let outcome = solver.prove(&ob.constraint, &mut oracle_gen);
            for (goal, verdict) in &outcome.results {
                if !verdict.is_proven() || goal.residual_existential {
                    continue;
                }
                report.infer_goals += 1;
                if let OracleVerdict::Refuted(model) = oracle_decide(goal, cfg.bound) {
                    let assignment =
                        model.iter().map(|(n, v)| format!("{n}={v}")).collect::<Vec<_>>().join(" ");
                    push_divergence(
                        report,
                        cfg,
                        Divergence {
                            iter: 0,
                            kind: DivergenceKind::InferUnsound,
                            detail: format!(
                                "{}: solver proved a goal of the refined `{}` with integer \
                                 countermodel {assignment}",
                                p.name, ob.in_fun
                            ),
                            repro: write_goal(
                                goal,
                                None,
                                &[format!(
                                    "infer-unsound in {} fun {} (countermodel {assignment})",
                                    p.name, ob.in_fun
                                )],
                            ),
                            repro_path: None,
                        },
                    );
                }
            }
        }
        digest.push(p.name);
        digest.push(&report.infer_goals.to_string());
    }
}

/// Decides one goal with a solver (fresh stats; the solver's options and
/// cache drive the interesting behaviour).
fn decide_with(solver: &Solver, goal: &Goal, gen: &mut VarGen) -> Verdict {
    let mut stats = SolverStats::default();
    solver.decide(goal, gen, &mut stats)
}

/// The metamorphic variants of a goal: hypothesis permutation, duplicate
/// hypothesis, and α-renaming of every context variable.
fn metamorphic_variants(
    goal: &Goal,
    rng: &mut OracleRng,
    gen: &mut VarGen,
) -> Vec<(&'static str, Goal)> {
    let mut out = Vec::new();
    if goal.hyps.len() > 1 {
        let mut permuted = goal.clone();
        rng.shuffle(&mut permuted.hyps);
        out.push(("hyp-permutation", permuted));
    }
    if !goal.hyps.is_empty() {
        let mut duped = goal.clone();
        let i = rng.below(duped.hyps.len() as u64) as usize;
        let h = duped.hyps[i].clone();
        duped.hyps.push(h);
        out.push(("duplicate-hyp", duped));
    }
    // α-renaming: substitute a fresh variable for every context variable.
    let mut renamed = goal.clone();
    for i in 0..renamed.ctx.len() {
        let (old, sort) = renamed.ctx[i].clone();
        let fresh = gen.fresh(old.name());
        let replacement = dml_index::IExp::var(fresh.clone());
        renamed.ctx[i] = (fresh, sort);
        renamed.hyps = renamed.hyps.iter().map(|h| h.subst(&old, &replacement)).collect();
        renamed.concl = renamed.concl.subst(&old, &replacement);
    }
    out.push(("alpha-renaming", renamed));
    out
}

/// Proves the batched goals as constraints with 1 and 4 workers and pins
/// verdict-sequence equality.
fn check_workers(
    report: &mut FuzzReport,
    cfg: &FuzzConfig,
    batch: &[(u64, Goal)],
    gen: &mut VarGen,
    digest: &mut Fnv,
) {
    let constraints: Vec<Constraint> = batch.iter().map(|(_, g)| goal_to_constraint(g)).collect();
    let refs: Vec<&Constraint> = constraints.iter().collect();
    let one = Solver::new(SolverOptions::default().with_workers(Some(1)));
    let four = Solver::new(SolverOptions::default().with_workers(Some(4)));
    let mut gen_one = gen.clone();
    let mut gen_four = gen.clone();
    let out_one = prove_all(&one, &refs, &mut gen_one);
    let out_four = prove_all(&four, &refs, &mut gen_four);
    gen.advance_past(gen_one.count().max(gen_four.count()));
    for (i, (a, b)) in out_one.iter().zip(out_four.iter()).enumerate() {
        report.worker_checked_goals += u64::try_from(a.results.len()).unwrap_or(0);
        for (_, v) in &a.results {
            digest.push(&v.to_string());
        }
        // Worker scheduling changes cache warming order, which can move
        // the refuted/unknown split between canonically-equal goals; the
        // proven status is the worker-count-independent part (the same
        // contract `parallel::prove_all`'s own tests pin).
        let va: Vec<bool> = a.results.iter().map(|(_, v)| v.is_proven()).collect();
        let vb: Vec<bool> = b.results.iter().map(|(_, v)| v.is_proven()).collect();
        if va != vb {
            let (iter, goal) = &batch[i];
            push_divergence(
                report,
                cfg,
                Divergence {
                    iter: *iter,
                    kind: DivergenceKind::ConfigFlip,
                    detail: format!("workers=1 proven flags {va:?} vs workers=4 {vb:?}"),
                    repro: write_goal(
                        goal,
                        None,
                        &[format!("workers flip (seed={} iter={iter})", cfg.seed)],
                    ),
                    repro_path: None,
                },
            );
        }
    }
}

/// Wraps a goal back into the constraint language for `prove_all`.
fn goal_to_constraint(goal: &Goal) -> Constraint {
    let hyp = Prop::conj(goal.hyps.iter().cloned());
    let mut c = Constraint::Prop(goal.concl.clone()).guarded_by(hyp);
    for (v, s) in goal.ctx.iter().rev() {
        c = Constraint::forall(v.clone(), *s, c);
    }
    c
}

/// Minimizes a diverging goal with `still` and records the divergence.
#[allow(clippy::too_many_arguments)]
fn record(
    report: &mut FuzzReport,
    cfg: &FuzzConfig,
    iter: u64,
    kind: DivergenceKind,
    detail: String,
    goal: &Goal,
    mut still: impl FnMut(&Goal, &mut VarGen) -> bool,
    gen: &mut VarGen,
) {
    let minimized = minimize(goal, |g| still(g, gen));
    let repro = write_goal(
        &minimized,
        None,
        &[format!("{kind}: {detail} (seed={} iter={iter})", cfg.seed)],
    );
    push_divergence(report, cfg, Divergence { iter, kind, detail, repro, repro_path: None });
}

/// Appends a divergence, writing its repro file when a directory is set.
fn push_divergence(report: &mut FuzzReport, cfg: &FuzzConfig, mut d: Divergence) {
    if let (Some(dir), false) = (&cfg.repro_dir, d.repro.is_empty()) {
        if std::fs::create_dir_all(dir).is_ok() {
            // Scale repros are whole DML programs, not `.goal` sequents.
            let ext = if d.kind == DivergenceKind::ScaleMismatch { "dml" } else { "goal" };
            let path =
                dir.join(format!("repro-seed{}-iter{}-{}.{ext}", report.seed, d.iter, d.kind));
            if std::fs::write(&path, &d.repro).is_ok() {
                d.repro_path = Some(path);
            }
        }
    }
    report.divergences.push(d);
}

/// FNV-1a, the determinism digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_clean_and_deterministic() {
        let cfg = FuzzConfig { iters: 60, programs: false, ..FuzzConfig::default() };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert!(a.ok(), "divergences:\n{}", a.render_human());
        assert_eq!(a.digest, b.digest, "same seed, same digest");
        assert_eq!(a.proven, b.proven);
        assert!(a.proven + a.refuted + a.unknown == a.iters);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let a = run_fuzz(&FuzzConfig { iters: 40, programs: false, ..FuzzConfig::default() });
        let b =
            run_fuzz(&FuzzConfig { iters: 40, seed: 7, programs: false, ..FuzzConfig::default() });
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn json_report_is_well_formed() {
        let r = run_fuzz(&FuzzConfig { iters: 10, programs: false, ..FuzzConfig::default() });
        let json = r.render_json();
        assert!(json.starts_with(r#"{"seed":42"#), "{json}");
        assert!(json.contains(r#""divergences":[]"#), "{json}");
    }

    #[test]
    fn infer_cross_check_is_clean() {
        // Strip → infer → oracle over the whole benchmark corpus: every
        // annotation inference talks the solver into must survive the
        // enumeration oracle (no countermodel within the box).
        let cfg = FuzzConfig { iters: 0, programs: false, infer: true, ..FuzzConfig::default() };
        let r = run_fuzz(&cfg);
        assert!(r.ok(), "divergences:\n{}", r.render_human());
        assert!(r.infer_programs > 0);
        assert!(r.infer_goals > 0, "no proven goals reached the oracle");
    }

    #[test]
    fn scale_cross_check_is_clean_and_deterministic() {
        // The seeded scale corpus compiles under the whole workers x
        // cache matrix with exactly the stamped verdict counts, and the
        // section contributes to the determinism digest.
        let cfg = FuzzConfig { iters: 0, programs: false, scale: true, ..FuzzConfig::default() };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert!(a.ok(), "divergences:\n{}", a.render_human());
        assert_eq!(a.digest, b.digest, "scale section must be deterministic");
        assert!(a.scale_cases > 0);
        assert!(a.scale_sites > 0);
        assert!(a.render_human().contains("scale:"), "{}", a.render_human());
        assert!(a.render_json().contains(r#""scale":{"cases":"#), "{}", a.render_json());
    }

    #[test]
    fn goal_to_constraint_round_trips_validity() {
        // A valid goal stays provable after wrapping into a constraint.
        let mut gen = VarGen::new();
        let n = gen.fresh("n");
        let goal = Goal {
            ctx: vec![(n.clone(), dml_index::Sort::Int)],
            hyps: vec![Prop::le(dml_index::IExp::lit(0), dml_index::IExp::var(n.clone()))],
            concl: Prop::le(dml_index::IExp::lit(-1), dml_index::IExp::var(n)),
            residual_existential: false,
        };
        let c = goal_to_constraint(&goal);
        let solver = Solver::new(SolverOptions::default().with_workers(Some(1)));
        let outcome = solver.prove(&c, &mut gen);
        assert!(outcome.all_proven(), "{c}");
    }
}
