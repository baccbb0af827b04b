//! Differential property suite: the production solver against the
//! independent oracle (`dml-oracle`) across the full configuration
//! matrix — {workers 1,4} × {cache on,off} × {fuel limited,unlimited} —
//! via the fuzz harness. Any Proven/Refuted flip between configurations,
//! or a decided disagreement with either reference decider, fails with a
//! minimized, replayable repro in the assertion message.

use dml_oracle::{run_fuzz, FuzzConfig};

#[test]
fn no_divergences_across_seeds() {
    for seed in [1, 2, 3] {
        let report =
            run_fuzz(&FuzzConfig { seed, iters: 250, programs: false, ..FuzzConfig::default() });
        assert!(report.ok(), "seed {seed}:\n{}", report.render_human());
    }
}

#[test]
fn fixed_seed_runs_are_bit_identical() {
    let cfg = FuzzConfig { seed: 42, iters: 120, programs: false, ..FuzzConfig::default() };
    let a = run_fuzz(&cfg);
    let b = run_fuzz(&cfg);
    assert!(a.ok(), "{}", a.render_human());
    assert_eq!(a.digest, b.digest, "verdict digests differ for the same seed");
    assert_eq!(a.render_json(), b.render_json(), "full reports differ for the same seed");
    // Pinned values: a change to the decision kernel that keeps every
    // verdict keeps these. `dmlc fuzz --seed 42 --iters 120 --no-programs`
    // prints the same figures.
    assert_eq!(format!("{:016x}", a.digest), "d72f38eceb3a8431", "verdict digest moved");
    assert_eq!((a.proven, a.refuted, a.unknown), (53, 65, 2), "solver verdict counts moved");
}

#[test]
fn generator_exercises_every_verdict() {
    // A degenerate generator (everything proven, or everything unknown)
    // would make the differential comparison vacuous.
    let report =
        run_fuzz(&FuzzConfig { seed: 5, iters: 300, programs: false, ..FuzzConfig::default() });
    assert!(report.ok(), "{}", report.render_human());
    assert!(report.proven > 0, "no proven goals in 300 iterations");
    assert!(report.refuted > 0, "no refuted goals in 300 iterations");
    assert!(report.oracle_proven > 0, "oracle never proved");
    assert!(report.oracle_refuted > 0, "oracle never refuted");
    assert!(report.metamorphic_checks > 0);
    assert!(report.worker_checked_goals > 0);
}
