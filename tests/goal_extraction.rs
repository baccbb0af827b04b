//! Goal extraction pins: for every obligation of the example files, the
//! paper's programs and one seeded scale corpus, the goals `Solver::prove`
//! extracts (in obligation order, compared by their `Debug` text, which
//! carries variable ids) and the existential counters it reports.
//!
//! Goal extraction is existential elimination plus splitting into
//! sequents. Its witness choice decides which goals reach the decision
//! procedure, so any change to it that is meant to be a pure speed-up must
//! leave every row of these tables as it is.

use dml::Compiler;
use dml_index::VarGen;
use dml_oracle::{gen_scale_corpus, ScaleConfig};
use dml_solver::{Solver, SolverOptions};

/// What one source's obligations extract to.
#[derive(Debug, PartialEq, Eq)]
struct Extracted {
    goals: usize,
    eliminated: usize,
    residual: usize,
    /// FNV-1a over every goal's `Debug` text and each obligation's two
    /// existential counters, in obligation order.
    digest: u64,
}

fn fnv(hash: &mut u64, s: &str) {
    for b in s.bytes().chain([0xff]) {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

fn extract(name: &str, src: &str) -> Extracted {
    let compiled = Compiler::new()
        .workers(1)
        .compile(src)
        .unwrap_or_else(|e| panic!("{name} must compile permissively: {e}"));
    let solver = Solver::new(SolverOptions::default().with_workers(Some(1)));
    let mut gen = VarGen::starting_at(1 << 24);
    let mut out = Extracted { goals: 0, eliminated: 0, residual: 0, digest: 0xcbf2_9ce4_8422_2325 };
    for (ob, _) in compiled.obligations() {
        let outcome = solver.prove(&ob.constraint, &mut gen);
        for (goal, _) in &outcome.results {
            fnv(&mut out.digest, &format!("{goal:?}"));
        }
        let (e, r) = (outcome.stats.existentials_eliminated, outcome.stats.existentials_residual);
        fnv(&mut out.digest, &format!("{e}/{r}"));
        out.goals += outcome.results.len();
        out.eliminated += e;
        out.residual += r;
    }
    out
}

fn check(name: &str, src: &str, (goals, eliminated, residual, digest): (usize, usize, usize, u64)) {
    assert_eq!(
        extract(name, src),
        Extracted { goals, eliminated, residual, digest },
        "{name}: the extracted goals or existential counters drifted"
    );
}

/// `(file, goals, eliminated, residual, digest)` for `examples/*.dml`.
const EXAMPLES: &[(&str, usize, usize, usize, u64)] = &[
    ("aliasing_trap.dml", 26, 238, 0, 0xd2bf_177f_8145_b8f0),
    ("amax_bare.dml", 4, 17, 0, 0x527c_727d_49a0_75c1),
    ("asum_bare.dml", 4, 29, 0, 0x98d8_9ddc_ec1a_d30c),
    ("bcopy.dml", 38, 886, 0, 0x2628_03d2_6622_c994),
    ("bcopy_bare.dml", 32, 742, 0, 0x2445_7b89_5db0_eea3),
    ("bsearch.dml", 18, 130, 0, 0x43fc_21df_a9e9_966e),
    ("bsearch_bare.dml", 5, 42, 0, 0xde00_934b_64bf_aedc),
    ("dotprod.dml", 15, 123, 0, 0x0ae1_5bc7_5737_da20),
    ("dotprod_bare.dml", 7, 69, 0, 0xcd91_be71_a687_5284),
    // The two residual existentials of the showcase.
    ("lints.dml", 11, 37, 2, 0x2ba5_a40f_0c1b_ad25),
    ("residual.dml", 15, 44, 0, 0x3ec2_b23f_cc9d_648a),
];

/// `(program, goals, eliminated, residual, digest)` for
/// `dml_programs::all_programs()`.
const PROGRAMS: &[(&str, usize, usize, usize, u64)] = &[
    ("dotprod", 15, 123, 0, 0x0ae1_5bc7_5737_da20),
    ("reverse", 8, 36, 0, 0xe955_9735_e2ae_b91b),
    ("filter", 9, 20, 0, 0xf61a_522e_7a60_d3b9),
    ("bcopy", 38, 886, 0, 0x2628_03d2_6622_c994),
    ("binary search", 18, 130, 0, 0x43fc_21df_a9e9_966e),
    ("bubble sort", 31, 357, 0, 0xf889_5580_30c9_c843),
    ("matrix mult", 43, 409, 0, 0x281c_2a88_eb3a_ef54),
    ("queen", 31, 227, 0, 0x1a11_3df2_db03_c187),
    ("quick sort", 72, 604, 0, 0x71e6_107f_e14e_8e4d),
    ("hanoi towers", 47, 1482, 0, 0x712e_de78_b428_0958),
    ("list access", 9, 61, 0, 0x35f6_d6b8_6793_45e8),
    ("kmp", 57, 878, 0, 0x2061_5b7f_5b1a_2b66),
];

/// The scale corpus pinned below: seed and target obligation count.
const SCALE: (u64, usize) = (23, 1_000);
const SCALE_PIN: (usize, usize, usize, u64) = (1_770, 7_381, 0, 0xc8c6_b21e_007b_615b);

#[test]
fn every_example_extracts_its_pinned_goals() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dml"))
        .map(|p| p.file_name().unwrap().to_string_lossy().to_string())
        .collect();
    files.sort();
    let pinned: Vec<&str> = EXAMPLES.iter().map(|row| row.0).collect();
    assert_eq!(files, pinned, "every example has exactly one row");
    for &(file, goals, eliminated, residual, digest) in EXAMPLES {
        let src = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
        check(file, &src, (goals, eliminated, residual, digest));
    }
}

#[test]
fn every_paper_program_extracts_its_pinned_goals() {
    let programs = dml_programs::all_programs();
    let names: Vec<&str> = programs.iter().map(|p| p.name).collect();
    let pinned: Vec<&str> = PROGRAMS.iter().map(|row| row.0).collect();
    assert_eq!(names, pinned, "every program has exactly one row");
    for (p, &(_, goals, eliminated, residual, digest)) in programs.iter().zip(PROGRAMS) {
        check(p.name, p.source, (goals, eliminated, residual, digest));
    }
}

#[test]
fn a_scale_corpus_extracts_its_pinned_goals() {
    let corpus = gen_scale_corpus(&ScaleConfig::new(SCALE.0, SCALE.1));
    assert_eq!(corpus.cases.len(), 1);
    let case = &corpus.cases[0];
    assert!(case.obligations >= SCALE.1, "{} obligations", case.obligations);
    check(&case.name, &case.source, SCALE_PIN);
}
