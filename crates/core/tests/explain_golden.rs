//! Golden determinism tests for `dmlc explain` rendering: the proof-trace
//! output must be byte-identical across worker counts, cache
//! configurations, and worker-pool states (the observability determinism
//! contract — see `docs/ARCHITECTURE.md`).
//!
//! The matrix is {workers = 1, 4, auto} × {cache on, off} × {pool cold,
//! pool warm}: the first parallel compile of the process spawns the
//! persistent worker pool's helper threads, the second pass re-runs every
//! configuration against the already-parked helpers. Every configuration
//! recompiles the same source from scratch, so the sweep also pins
//! generation as deterministic: each elaboration must render the same
//! explain output byte for byte.

use dml::{render_explain, Compiler, Solver, SolverOptions};
use std::sync::Once;

/// A single-core machine gets a pool with zero helpers (the submitting
/// thread works every batch alone), so force helpers into existence before
/// anything touches the pool's one-time initializer. Every test in this
/// binary calls this first.
static FORCE_HELPERS: Once = Once::new();

fn force_helpers() {
    FORCE_HELPERS.call_once(|| {
        std::env::set_var("DML_SOLVER_HELPERS", "3");
    });
}

fn explain(src: &str, workers: Option<usize>, cache: bool) -> String {
    let mut compiler = Compiler::new().trace(true).cache(cache);
    if let Some(workers) = workers {
        compiler = compiler.workers(workers);
    }
    let c = compiler.compile(src).expect("program compiles");
    render_explain(&c, src, None)
}

fn assert_config_independent(name: &str, src: &str) -> String {
    force_helpers();
    let base = explain(src, Some(1), true);
    assert!(base.contains("proof trace:"), "{name}: {base}");
    // `None` is `workers=auto`. Two passes: the first covers the pool-cold
    // spawn (on the process's first parallel compile), the second the warm
    // pool with helpers parked on the condvar.
    for pass in ["pool cold", "pool warm"] {
        for (workers, label) in [(Some(1), "1"), (Some(4), "4"), (None, "auto")] {
            for cache in [true, false] {
                let other = explain(src, workers, cache);
                assert_eq!(
                    base, other,
                    "{name}: explain output differs for workers={label} cache={cache} ({pass})"
                );
            }
        }
        assert!(dml_solver::pool::is_warm(), "{name}: parallel compiles initialized the pool");
    }
    base
}

#[test]
fn bsearch_explain_is_byte_identical_across_configs() {
    let text = assert_config_independent("bsearch", dml_programs::bsearch::SOURCE);
    // The midpoint-division goals show real elimination work.
    assert!(text.contains("eliminate "), "{text}");
    assert!(text.contains("verdict: proven"), "{text}");
}

#[test]
fn residual_example_explain_is_byte_identical_across_configs() {
    let src = include_str!("../../../examples/residual.dml");
    let text = assert_config_independent("residual.dml", src);
    // Acceptance: the nonlinear `i*j` goal reports its Unknown reason and
    // the fuel spent on it.
    assert!(text.contains("non-linear constraint: i * j"), "{text}");
    assert!(text.contains("fuel: "), "{text}");
    assert!(text.contains("residual runtime checks:"), "{text}");
}

/// A warm shared cache must not change the rendering either: tracing
/// re-decides cache hits so every trace carries the full elimination story.
#[test]
fn warm_cache_explain_matches_cold() {
    force_helpers();
    let src = dml_programs::bsearch::SOURCE;
    let solver = Solver::new(SolverOptions::default().with_trace(true));
    let cold = Compiler::new().with_solver(&solver).compile(src).unwrap();
    let warm = Compiler::new().with_solver(&solver).compile(src).unwrap();
    assert!(warm.stats().solver.cache_hits > 0, "second compile hits the shared cache");
    assert_eq!(
        render_explain(&cold, src, None),
        render_explain(&warm, src, None),
        "warm-cache rendering is byte-identical to cold"
    );
}
