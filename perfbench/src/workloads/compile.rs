//! `batch` and `megafile`: checking whole scale corpora.
//!
//! `batch` is the `dmlc check --jobs` shape: a 10k-obligation corpus over
//! 16 files, checked with `check_batch` on a fresh session each time.
//! Goals repeat across files, so the goal cache answers almost all of
//! them and constraint generation dominates. `megafile` puts about 3k
//! obligations in one file, where generation grows faster than linearly
//! and there is no batch parallelism.
//!
//! The traced run compiles each file once through `Compiler::compile`
//! (`core.compile`) and once more through the stages that function is
//! made of, called one by one: parse, environment, phase-1 inference,
//! elaboration, the copy the gen memo keeps, `prove_all` on one solver
//! shared across files, and check elimination. The stage spans' self
//! times give the per-layer times; the share of a file's `core.compile`
//! they do not cover, as a median over files, is `core.unaccounted_pct`.

use super::{
    bench_layer, cache_counters, end_to_end, jobs, overhead_pct, peak_rss_mib, per_op_rate,
    repeat_setup, solver_counters, stamp_error, time_ms, until_deadline, RunConfig, RunOutput,
};
use crate::inputs::{batch_corpus, megafile};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::median;
use dml::{check_batch, check_report, BatchEntry, Compiler};
use dml_elab::{elaborate, residual_checks, ElabOutput, ObKind, Obligation};
use dml_index::{UnknownReason, VarGen, Verdict};
use dml_oracle::scale::{verify_scale_case, ExpectedCounts, ScaleCorpus};
use dml_solver::{prove_all, Outcome, Solver, SolverOptions, SolverStats};
use dml_syntax::ast::{Decl, Program};
use dml_types::builtins::{base_env, check_kind};
use dml_types::Env;
use std::collections::{BTreeMap, HashSet};

/// A generated corpus with its sources wrapped as batch entries.
struct Prepared {
    corpus: ScaleCorpus,
    entries: Vec<BatchEntry>,
}

impl Prepared {
    fn new(corpus: ScaleCorpus) -> Prepared {
        let entries = corpus
            .cases
            .iter()
            .map(|c| BatchEntry { name: format!("{}.dml", c.name), source: c.source.clone() })
            .collect();
        Prepared { corpus, entries }
    }
}

/// Checks one batch result against its case's stamp.
fn batch_file_error(result: &dml::BatchFileResult, expected: &ExpectedCounts) -> Option<String> {
    let error = match &result.report {
        Some(report) => stamp_error(&report.text, expected)?,
        None => result.error.clone().unwrap_or_else(|| "no report".to_string()),
    };
    Some(format!("{}: {error}", result.name))
}

/// One `check_batch` on a fresh session; every file is one attempt.
fn check_corpus(p: &Prepared, report: &mut Report) -> f64 {
    dml::clear_gen_memo();
    let compiler = Compiler::new();
    let (out, ms) = time_ms(|| check_batch(&compiler, &p.entries, jobs()));
    for (result, case) in out.results.iter().zip(&p.corpus.cases) {
        report.attempt(batch_file_error(result, &case.expected));
    }
    ms
}

/// One compile of the single megafile on a fresh session.
fn compile_megafile(p: &Prepared, report: &mut Report) -> f64 {
    dml::clear_gen_memo();
    let case = &p.corpus.cases[0];
    let compiler = Compiler::new();
    let (compiled, ms) = time_ms(|| compiler.compile(&case.source));
    report.attempt(match compiled {
        Ok(c) => verify_scale_case(&c, &case.expected).err(),
        Err(e) => Some(e.to_string()),
    });
    ms
}

/// The `batch` workload.
pub(super) fn run_batch(cfg: &RunConfig) -> Result<RunOutput, String> {
    run_corpus(cfg, "batch", batch_corpus, check_corpus)
}

/// The `megafile` workload.
pub(super) fn run_megafile(cfg: &RunConfig) -> Result<RunOutput, String> {
    run_corpus(cfg, "megafile", megafile, compile_megafile)
}

fn run_corpus(
    cfg: &RunConfig,
    name: &str,
    gen: impl Fn(u64, &crate::inputs::Sizes) -> ScaleCorpus,
    op: fn(&Prepared, &mut Report) -> f64,
) -> Result<RunOutput, String> {
    let mut report = Report::new(name, cfg.seed, cfg.traced);
    // Set-up failures are counted too, but the timed part is what
    // `attempted` describes: keep set-up checks in a separate report.
    let mut setup_report = Report::new(name, cfg.seed, cfg.traced);
    let mut gen_times = Vec::new();
    let (prepared, setup_s) = repeat_setup(cfg.sizes.setups, || {
        dml::clear_gen_memo();
        dml_solver::pool::prewarm();
        let (corpus, gen_ms) = time_ms(|| gen(cfg.seed, &cfg.sizes));
        gen_times.push(gen_ms / 1e3);
        let prepared = Prepared::new(corpus);
        op(&prepared, &mut setup_report);
        Ok(prepared)
    })?;
    report.absorb_failures(setup_report, "set-up");

    let mut op_ms = Vec::new();
    until_deadline(cfg.seconds, || {
        op_ms.push(op(&prepared, &mut report));
        Ok(true)
    })?;
    let rss_mib = peak_rss_mib()?;
    let obligations = prepared.corpus.obligations as f64;
    if !cfg.traced {
        end_to_end(&mut report, &setup_s, per_op_rate(obligations, &op_ms), &op_ms, rss_mib)?;
        return Ok(RunOutput { report, spans: None });
    }

    let mut rec = Recorder::new();
    let untraced_ms = median(&op_ms).expect("at least one operation");
    let traced_ms: Vec<f64> = (0..TRACED_REPEATS)
        .map(|i| rec.span("core.operation", i as u64, |_| op(&prepared, &mut report)))
        .collect();
    let overhead = overhead_pct(median(&traced_ms).expect("traced operations"), untraced_ms);
    let compile_ms = traced_layers(&prepared, &mut rec, &mut report)?;
    bench_layer(&mut report, &gen_times, overhead, traced_ms.len())?;
    if name == "batch" {
        report.push("core.batch_wall_ms", "ms", untraced_ms, op_ms.len(), "median")?;
        report.push(
            "core.batch_parallel_efficiency",
            "ratio",
            compile_ms / (jobs() as f64 * untraced_ms),
            op_ms.len(),
            "sequential compile / (jobs x batch wall)",
        )?;
    }
    Ok(RunOutput { report, spans: Some(rec) })
}

/// Output of the stages `Compiler::compile` is made of, called one by one.
struct Recomposed {
    counts: ExpectedCounts,
    decls: usize,
    obligations: usize,
    stats: SolverStats,
    /// What the pipeline's gen memo keeps: a copy of the generation
    /// output, held until the traced pass ends as the memo holds it.
    memo_entry: (Program, Env, ElabOutput),
}

fn recompose(
    rec: &mut Recorder,
    request: u64,
    src: &str,
    solver: &Solver,
) -> Result<Recomposed, String> {
    let program = rec
        .span("syntax.parse", request, |_| dml_syntax::parse_program(src))
        .map_err(|e| e.to_string())?;
    let (env, gen) = rec.span("types.env", request, |_| {
        let mut gen = VarGen::new();
        let mut env = base_env(&mut gen);
        for d in &program.decls {
            let added = match d {
                Decl::Datatype(dd) => env.add_datatype(dd, &mut gen),
                Decl::Typeref(tr) => env.add_typeref(tr, &mut gen),
                Decl::Assert(sigs) => env.add_assert(sigs, &check_kind, &mut gen),
                _ => Ok(()),
            };
            added.map_err(|e| e.message)?;
        }
        Ok::<_, String>((env, gen))
    })?;
    let phase1 = rec
        .span("types.phase1", request, |_| dml_types::infer_program(&program, &env))
        .map_err(|e| e.message)?;
    // As in the pipeline, the phase-1 result is freed as soon as
    // elaboration is done, and the solver's outcomes are consumed by
    // check elimination: their drops stay inside the stage spans.
    let elab = rec
        .span("elab.elaborate", request, |_| {
            let out = elaborate(&program, &env, &phase1, gen);
            drop(phase1);
            out
        })
        .map_err(|e| e.message)?;
    let memo_entry =
        rec.span("core.memo_store", request, |_| (program.clone(), env.clone(), elab.clone()));
    let constraints: Vec<_> = elab.obligations.iter().map(|o| &o.constraint).collect();
    let mut gen = elab.gen;
    let outcomes =
        rec.span("solver.prove_all", request, |_| prove_all(solver, &constraints, &mut gen));

    let (counts, stats, obligations) = rec.span("core.eliminate", request, |_| {
        let mut stats = SolverStats::default();
        let mut verdicts = Vec::with_capacity(outcomes.len());
        for (ob, outcome) in elab.obligations.into_iter().zip(outcomes) {
            stats.merge(&outcome.stats);
            verdicts.push((ob, collapse(&outcome)));
        }
        (site_counts(&verdicts), stats, verdicts.len())
    });
    Ok(Recomposed { counts, decls: program.decls.len(), obligations, stats, memo_entry })
}

/// One verdict per obligation, as the pipeline records it: `Proven` when
/// every goal is, else `Refuted` if any goal is, else the first `Unknown`.
fn collapse(outcome: &Outcome) -> Verdict {
    let mut collapsed = Verdict::Proven;
    for (_, v) in &outcome.results {
        match v {
            Verdict::Proven => {}
            Verdict::Refuted => return Verdict::Refuted,
            other if collapsed.is_proven() => collapsed = other.clone(),
            _ => {}
        }
    }
    collapsed
}

/// Site counts in the shape of a scale-corpus stamp. A failed non-check
/// obligation leaves no site proven, as in the pipeline.
fn site_counts(verdicts: &[(Obligation, Verdict)]) -> ExpectedCounts {
    let residual = residual_checks(verdicts);
    let sites: HashSet<_> =
        verdicts.iter().filter(|(o, _)| o.kind.is_check()).map(|(o, _)| o.site).collect();
    let typed = verdicts.iter().all(|(o, v)| {
        o.kind.is_check() || matches!(o.kind, ObKind::Unreachable { .. }) || v.is_proven()
    });
    let proven = if typed { sites.len() - residual.len() } else { 0 };
    ExpectedCounts {
        check_sites: proven + residual.len(),
        proven_sites: proven,
        residual_sites: residual.len(),
        nonlinear_sites: residual
            .iter()
            .filter(|r| matches!(r.reason, UnknownReason::Nonlinear(_)))
            .count(),
    }
}

/// Traced operations, and fewest files the traced passes compile: a
/// one-file corpus is passed over three times, so that its layer times do
/// not rest on one pair of compiles.
const TRACED_REPEATS: usize = 3;

/// The traced passes: every file through the real compile and through
/// the recomposed stages; both must reproduce the stamp. Each pass starts
/// cold, like the timed operations. Returns `core.compile_ms`: the real
/// compiles' time per pass.
fn traced_layers(p: &Prepared, rec: &mut Recorder, report: &mut Report) -> Result<f64, String> {
    let n = p.corpus.cases.len();
    let passes = TRACED_REPEATS.div_ceil(n);
    let (mut decls, mut obligations, mut bytes) = (0usize, 0usize, 0usize);
    let (mut hits, mut misses) = (0usize, 0usize);
    let mut stats = SolverStats::default();
    for pass in 0..passes {
        dml::clear_gen_memo();
        let real = Compiler::new();
        let shared = Solver::new(SolverOptions::default());
        let mut memo = Vec::with_capacity(n);
        for (i, case) in p.corpus.cases.iter().enumerate() {
            let request = (pass * n + i) as u64;
            let real_pass = |rec: &mut Recorder| {
                rec.span("core.compile", request, |_| real.compile(&case.source))
            };
            let stage_pass = |rec: &mut Recorder| {
                rec.span("core.recomposed", request, |rec| {
                    recompose(rec, request, &case.source, &shared)
                })
            };
            // Alternate which pass goes first, so that neither always runs
            // in the other's wake (freed memory to reuse, warm caches).
            let (compiled, stages) = if request.is_multiple_of(2) {
                let compiled = real_pass(rec);
                (compiled, stage_pass(rec)?)
            } else {
                let stages = stage_pass(rec)?;
                (real_pass(rec), stages)
            };
            let compiled = match compiled {
                Ok(c) => c,
                Err(e) => {
                    report.fail(format!("traced {}: {e}", case.name));
                    continue;
                }
            };
            rec.span("core.report", request, |_| check_report(&compiled, &case.source));
            if let Err(e) = verify_scale_case(&compiled, &case.expected) {
                report.fail(format!("traced {}: {e}", case.name));
            }
            if stages.counts != case.expected {
                report.fail(format!(
                    "recomposed {}: expected {}; got {}",
                    case.name, case.expected, stages.counts
                ));
            }
            if pass == 0 {
                hits += compiled.stats().solver.cache_hits;
                misses += compiled.stats().solver.cache_misses;
                decls += stages.decls;
                obligations += stages.obligations;
                bytes += case.source.len();
                stats.merge(&stages.stats);
            }
            memo.push(stages.memo_entry);
        }
    }

    let files = n * passes;
    let own = rec.self_ms_by_name();
    let per_pass = |name: &str| own.get(name).copied().unwrap_or(0.0) / passes as f64;
    let parse = per_pass("syntax.parse");
    let env = per_pass("types.env");
    let phase1 = per_pass("types.phase1");
    let elab = per_pass("elab.elaborate");
    let memo_store = per_pass("core.memo_store");
    let solve = per_pass("solver.prove_all");
    let eliminate = per_pass("core.eliminate");
    let compile = per_pass("core.compile");
    let unaccounted_pct = median(&unaccounted_shares(rec)).expect("at least one file compiled");
    report.push("syntax.parse_ms", "ms", parse, files, "per pass")?;
    report.push("syntax.bytes_per_ms", "B/ms", bytes as f64 / parse, files, "per pass")?;
    report.push("types.env_ms", "ms", env, files, "per pass")?;
    report.push("types.phase1_ms", "ms", phase1, files, "per pass")?;
    report.push("types.phase1_us_per_decl", "us", phase1 * 1e3 / decls as f64, decls, "mean")?;
    report.push("elab.elaborate_ms", "ms", elab, files, "per pass")?;
    report.push("elab.obligations", "count", obligations as f64, n, "per pass")?;
    report.push(
        "elab.us_per_obligation",
        "us",
        elab * 1e3 / obligations as f64,
        obligations,
        "mean",
    )?;
    report.push("solver.solve_ms", "ms", solve, files, "prove_all per pass")?;
    solver_counters(report, &stats, stats.goals)?;
    cache_counters(report, hits, misses)?;
    report.push("core.compile_ms", "ms", compile, files, "per pass")?;
    report.push("core.memo_store_ms", "ms", memo_store, files, "per pass")?;
    report.push("core.eliminate_ms", "ms", eliminate, files, "per pass")?;
    report.push("core.report_ms", "ms", per_pass("core.report"), files, "per pass")?;
    report.push(
        "core.unaccounted_ms",
        "ms",
        compile * unaccounted_pct / 100.0,
        files,
        "core.compile_ms x core.unaccounted_pct",
    )?;
    report.push("core.unaccounted_pct", "%", unaccounted_pct, files, "median over files")?;
    Ok(compile)
}

/// The stage spans of a recomposed compile.
const STAGES: [&str; 7] = [
    "syntax.parse",
    "types.env",
    "types.phase1",
    "elab.elaborate",
    "core.memo_store",
    "solver.prove_all",
    "core.eliminate",
];

/// Per compiled file: the share of its real compile, in percent, that
/// the self times of its recomposed stages do not cover. A median over
/// these shares is not thrown by one file whose pair of compiles met a
/// burst of machine noise, as a ratio of totals would be.
fn unaccounted_shares(rec: &Recorder) -> Vec<f64> {
    let mut per_file: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for (span, own_ns) in rec.spans().iter().zip(rec.self_times_ns()) {
        let (compile, stages) = per_file.entry(span.request).or_default();
        if span.name == "core.compile" {
            *compile += span.duration_ns() as f64;
        } else if STAGES.contains(&span.name) {
            *stages += own_ns as f64;
        }
    }
    per_file
        .values()
        .filter(|(compile, _)| *compile > 0.0)
        .map(|(compile, stages)| 100.0 * (compile - stages) / compile)
        .collect()
}
