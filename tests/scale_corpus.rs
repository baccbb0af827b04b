//! Property tests for the scale-corpus generator (`dml_oracle::scale`)
//! and the batch farm (`dml::check_batch`): the generator's stamped
//! verdict counts are a *correctness oracle* — every case must elaborate
//! and produce exactly the predicted proven/residual/nonlinear split
//! under every solver configuration, and the batch farm must render the
//! same merged report regardless of worker count.

use dml::{check_batch, stable_body, BatchEntry, Compiler};
use dml_oracle::{gen_scale_corpus, verify_scale_case, ScaleConfig};

/// Seeds exercised by the property tests: a handful is enough to cover
/// every unit shape (the generator cycles proven/residual/mixed/nonlinear
/// chains by weight) while keeping the suite fast.
const SEEDS: [u64; 4] = [1, 7, 42, 0xdead_beef];

#[test]
fn generator_is_deterministic_per_seed() {
    for seed in SEEDS {
        let cfg = ScaleConfig::new(seed, 300).files(3);
        let a = gen_scale_corpus(&cfg);
        let b = gen_scale_corpus(&cfg);
        assert_eq!(a.cases.len(), b.cases.len(), "seed {seed}");
        for (x, y) in a.cases.iter().zip(b.cases.iter()) {
            assert_eq!(x.name, y.name, "seed {seed}");
            assert_eq!(x.source, y.source, "seed {seed}: regeneration differs");
            assert_eq!(x.expected, y.expected, "seed {seed}");
        }
        assert_eq!(a.obligations, b.obligations, "seed {seed}");
    }
}

#[test]
fn distinct_seeds_generate_distinct_corpora() {
    let a = gen_scale_corpus(&ScaleConfig::new(SEEDS[0], 300).files(2));
    let b = gen_scale_corpus(&ScaleConfig::new(SEEDS[1], 300).files(2));
    assert_ne!(a.cases[0].source, b.cases[0].source);
}

#[test]
fn every_case_elaborates_and_matches_its_stamp_across_the_matrix() {
    // {workers 1, workers 4} × {cache on, cache off}: the stamped counts
    // are configuration-invariant — elision soundness cannot depend on
    // scheduling or memoization.
    for seed in SEEDS {
        let corpus = gen_scale_corpus(&ScaleConfig::new(seed, 250).files(2));
        assert!(corpus.obligations >= 250, "seed {seed}: target undershot");
        for case in &corpus.cases {
            for workers in [1usize, 4] {
                for cache in [true, false] {
                    let compiled = Compiler::new()
                        .workers(workers)
                        .cache(cache)
                        .compile(&case.source)
                        .unwrap_or_else(|e| {
                            panic!(
                                "seed {seed} {}: workers={workers} cache={cache}: {e}",
                                case.name
                            )
                        });
                    verify_scale_case(&compiled, &case.expected).unwrap_or_else(|e| {
                        panic!("seed {seed} {}: workers={workers} cache={cache}: {e}", case.name)
                    });
                }
            }
        }
    }
}

#[test]
fn corpus_totals_absorb_per_case_stamps() {
    let corpus = gen_scale_corpus(&ScaleConfig::new(9, 400).files(4));
    let sites: usize = corpus.cases.iter().map(|c| c.expected.check_sites).sum();
    let obligations: usize = corpus.cases.iter().map(|c| c.obligations).sum();
    assert_eq!(corpus.expected.check_sites, sites);
    assert_eq!(corpus.obligations, obligations);
    assert_eq!(
        corpus.expected.check_sites,
        corpus.expected.proven_sites + corpus.expected.residual_sites,
        "every check site is either proven or residual"
    );
}

#[test]
fn batch_merged_report_is_worker_count_invariant() {
    // The same corpus through `check_batch` at jobs=1 and jobs=4 must
    // render identical merged reports modulo the volatile timing/cache
    // lines — the `--jobs N` byte-identity contract at the library level.
    let corpus = gen_scale_corpus(&ScaleConfig::new(3, 200).files(3));
    let entries: Vec<BatchEntry> = corpus
        .cases
        .iter()
        .map(|c| BatchEntry { name: format!("{}.dml", c.name), source: c.source.clone() })
        .collect();
    let seq = check_batch(&Compiler::new(), &entries, 1);
    let par = check_batch(&Compiler::new(), &entries, 4);
    assert!(seq.ok() && par.ok());
    assert_eq!(
        stable_body(&seq.merged_report()),
        stable_body(&par.merged_report()),
        "jobs=1 vs jobs=4 merged reports diverged"
    );
    assert_eq!(seq.summary.goals, par.summary.goals);
    assert_eq!(seq.summary.constraints, par.summary.constraints);
}

#[test]
fn single_file_generation_time_grows_linearly() {
    // Constraint generation must scale with the file, not with the square
    // of it: each clause, `case` arm and `let` opens a scope in O(1), and
    // phase-1 generalization resolves only the bindings that can still
    // hold unification variables. 8x the obligations in one file may cost
    // at most 16x the generation time (best of three cold compiles each).
    let generation = |target: usize| {
        let corpus = gen_scale_corpus(&ScaleConfig::new(1, target).files(1));
        let case = &corpus.cases[0];
        let compiler = Compiler::new();
        (0..3)
            .map(|_| {
                let compiled = compiler.compile(&case.source).expect("scale case compiles");
                verify_scale_case(&compiled, &case.expected).expect("stamped counts");
                compiled.stats().generation_time
            })
            .min()
            .expect("three compiles")
    };
    let small = generation(500);
    let large = generation(4000);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio < 16.0,
        "500 -> 4000 obligations: generation {small:?} -> {large:?} ({ratio:.1}x)"
    );
}
