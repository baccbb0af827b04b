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
//!
//! Every example and every paper program also has its full rendering
//! pinned by an FNV-1a digest, and each `--goal N` rendering must be goal
//! N's block of the full one.

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
    let mut compiler = Compiler::new().cache(cache);
    if let Some(workers) = workers {
        compiler = compiler.workers(workers);
    }
    let c = compiler.compile(src).expect("program compiles");
    render_explain(&c, src, None).unwrap()
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

/// A warm shared cache must not change the rendering either: the explain
/// pass decides every goal again without the cache, so every trace carries
/// the full elimination story.
#[test]
fn warm_cache_explain_matches_cold() {
    force_helpers();
    let src = dml_programs::bsearch::SOURCE;
    let solver = Solver::new(SolverOptions::default());
    let cold = Compiler::new().with_solver(&solver).compile(src).unwrap();
    let warm = Compiler::new().with_solver(&solver).compile(src).unwrap();
    assert!(warm.stats().solver.cache_hits > 0, "second compile hits the shared cache");
    assert_eq!(
        render_explain(&cold, src, None).unwrap(),
        render_explain(&warm, src, None).unwrap(),
        "warm-cache rendering is byte-identical to cold"
    );
}

/// FNV-1a over `s`, as `tests/goal_extraction.rs` digests goals.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The full rendering of `src` and its rendering for every goal
/// `1..=total`, from one compile.
fn renderings(name: &str, src: &str) -> (String, Vec<String>) {
    let c = Compiler::new().compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let full = render_explain(&c, src, None).unwrap();
    let total = c.stats().goals;
    let one = (1..=total).map(|n| render_explain(&c, src, Some(n)).unwrap()).collect();
    (full, one)
}

/// The goal blocks of a full rendering, each as `--goal N` prints it: a
/// blank line, then the goal's lines. The header and the residual
/// summary are not goal blocks.
fn goal_blocks(full: &str) -> Vec<String> {
    full.split("\n\n")
        .skip(1)
        .filter(|b| b.starts_with("goal "))
        .map(|b| format!("\n{}\n", b.trim_end_matches('\n')))
        .collect()
}

/// Pins one source's rendering by goal count and digest, and checks that
/// each `--goal N` rendering is goal N's block of the full one.
fn check_pinned(name: &str, src: &str, goals: usize, digest: u64) {
    force_helpers();
    let (full, one) = renderings(name, src);
    assert_eq!(
        (one.len(), fnv(&full)),
        (goals, digest),
        "{name}: the explain rendering drifted:\n{full}"
    );
    assert_eq!(goal_blocks(&full), one, "{name}: a --goal N rendering is not its block");
}

/// `(file, goals, digest of the full rendering)` for `examples/*.dml`.
const EXAMPLES: &[(&str, usize, u64)] = &[
    ("aliasing_trap.dml", 26, 0x7965_f3d6_c0a2_7e91),
    ("amax_bare.dml", 4, 0xc941_9de8_5be9_ecae),
    ("asum_bare.dml", 4, 0x2297_f5cf_87fd_d43d),
    ("bcopy.dml", 38, 0xd9c2_cc4c_8390_621a),
    ("bcopy_bare.dml", 32, 0x91af_9263_8b01_5aba),
    ("bsearch.dml", 18, 0xc0ce_d049_1ec8_30d2),
    ("bsearch_bare.dml", 5, 0x9b96_5bc6_6b3b_d93d),
    ("dotprod.dml", 15, 0xccca_520c_7248_9691),
    ("dotprod_bare.dml", 7, 0x24fc_52f1_2bdc_fe8f),
    ("lints.dml", 11, 0xdda5_dbeb_2b38_d981),
    ("residual.dml", 15, 0x3a2d_ccaf_f456_3d00),
];

/// `(program, goals, digest of the full rendering)` for
/// `dml_programs::all_programs()`.
const PROGRAMS: &[(&str, usize, u64)] = &[
    ("dotprod", 15, 0x3f2d_eb0c_6dfb_50cd),
    ("reverse", 8, 0xeba2_a4c9_2ef9_695e),
    ("filter", 9, 0x60b6_d3b0_8c68_45d8),
    ("bcopy", 38, 0xc3c8_3ef4_837f_a8fc),
    ("binary search", 18, 0x5f4d_6bda_4293_d674),
    ("bubble sort", 31, 0x0a53_e998_aa51_3b80),
    ("matrix mult", 43, 0x330b_82cb_e298_dd3e),
    ("queen", 31, 0xae8e_0891_e594_1f47),
    ("quick sort", 72, 0x3efa_77f6_57ac_37c8),
    ("hanoi towers", 47, 0x3176_8015_ea15_10f2),
    ("list access", 9, 0xf0aa_3ab9_2007_d2df),
    ("kmp", 57, 0x8155_71d5_df5b_31d9),
];

#[test]
fn every_example_renders_its_pinned_explain() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dml"))
        .map(|p| p.file_name().unwrap().to_string_lossy().to_string())
        .collect();
    files.sort();
    let pinned: Vec<&str> = EXAMPLES.iter().map(|row| row.0).collect();
    assert_eq!(files, pinned, "every example has exactly one row");
    for &(file, goals, digest) in EXAMPLES {
        let src = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
        check_pinned(file, &src, goals, digest);
    }
}

#[test]
fn every_paper_program_renders_its_pinned_explain() {
    let programs = dml_programs::all_programs();
    let names: Vec<&str> = programs.iter().map(|p| p.name).collect();
    let pinned: Vec<&str> = PROGRAMS.iter().map(|row| row.0).collect();
    assert_eq!(names, pinned, "every program has exactly one row");
    for (p, &(_, goals, digest)) in programs.iter().zip(PROGRAMS) {
        check_pinned(p.name, p.source, goals, digest);
    }
}
