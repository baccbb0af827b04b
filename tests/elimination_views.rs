//! Check-elimination view pins: for every example file, the paper's
//! programs and one seeded scale corpus, a digest of everything a compile
//! reports about its check sites — the proven and unproven sites, the
//! rendered residual-check lines, every per-site verdict record, the
//! exhaustiveness warnings and the fully-verified flag — plus the
//! inference JSON report of each `examples/*_bare.dml`.
//!
//! These views all read one decision (which sites run unchecked, and why
//! the others do not), so a change to how that decision is computed must
//! leave every row of these tables as it is.

use dml::Compiler;
use dml_oracle::{gen_scale_corpus, ScaleConfig};

fn fnv(hash: &mut u64, s: &str) {
    for b in s.bytes().chain([0xff]) {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a over the compile's check-site views, field by field so the
/// digest does not depend on any type's `Debug` layout.
fn views_digest(name: &str, src: &str) -> u64 {
    let compiled = Compiler::new()
        .workers(1)
        .compile(src)
        .unwrap_or_else(|e| panic!("{name} must compile permissively: {e}"));
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut proven: Vec<_> = compiled.proven_sites().iter().copied().collect();
    proven.sort();
    let mut unproven: Vec<_> = compiled.unproven_sites().into_iter().collect();
    unproven.sort();
    for (label, sites) in [("proven", proven), ("unproven", unproven)] {
        fnv(&mut hash, label);
        for s in sites {
            fnv(&mut hash, &format!("{}..{}", s.start, s.end));
        }
    }
    fnv(&mut hash, "residual");
    for rc in compiled.residual_checks() {
        fnv(&mut hash, &rc.to_string());
    }
    fnv(&mut hash, "sites");
    for s in compiled.site_verdicts() {
        fnv(
            &mut hash,
            &format!(
                "{}..{} {} {:?} {} {:?} {}",
                s.site.start, s.site.end, s.prim, s.check, s.in_fun, s.goals, s.proven
            ),
        );
    }
    fnv(&mut hash, "warnings");
    for (site, con) in compiled.match_warnings() {
        fnv(&mut hash, &format!("{}..{} {con}", site.start, site.end));
    }
    fnv(&mut hash, &format!("fully verified: {}", compiled.fully_verified()));
    hash
}

/// FNV-1a over `dmlc infer --json`'s report for `src`.
fn infer_digest(name: &str, src: &str) -> u64 {
    let (report, _) = Compiler::new()
        .workers(1)
        .infer(src)
        .unwrap_or_else(|e| panic!("{name} must compile under inference: {e}"));
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv(&mut hash, &report.render_json(src));
    hash
}

fn example_files() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dml"))
        .map(|p| p.file_name().unwrap().to_string_lossy().to_string())
        .collect();
    files.sort();
    files
}

fn example_source(file: &str) -> String {
    std::fs::read_to_string(format!("{}/examples/{file}", env!("CARGO_MANIFEST_DIR"))).unwrap()
}

/// `(file, views digest)` for `examples/*.dml`.
const EXAMPLES: &[(&str, u64)] = &[
    ("aliasing_trap.dml", 0x3da0_2330_70c6_00c3),
    ("amax_bare.dml", 0xa11c_0647_576d_a645),
    ("asum_bare.dml", 0x13ab_e895_18af_b93b),
    ("bcopy.dml", 0x2d60_a880_f5a4_bf90),
    ("bcopy_bare.dml", 0xf684_a32d_f083_6e49),
    ("bsearch.dml", 0x1391_a287_7f66_9c0b),
    ("bsearch_bare.dml", 0x6ce7_eacb_2d54_b092),
    ("dotprod.dml", 0x6d05_38ee_8a34_da06),
    ("dotprod_bare.dml", 0xab83_44a6_e909_2bb3),
    ("lints.dml", 0x6ca7_1a6a_c948_e205),
    ("residual.dml", 0x6de3_57cd_9611_3493),
];

/// `(program, views digest)` for `dml_programs::all_programs()`.
const PROGRAMS: &[(&str, u64)] = &[
    ("dotprod", 0x642e_efcc_4bf7_31d6),
    ("reverse", 0x1903_96ac_dd73_c462),
    ("filter", 0x1903_96ac_dd73_c462),
    ("bcopy", 0xf319_af71_4ed2_149c),
    ("binary search", 0x6547_7731_7b00_92d5),
    ("bubble sort", 0x55da_a06e_7b35_0c03),
    ("matrix mult", 0xb54b_bcf2_d9f3_208d),
    ("queen", 0x147b_01fd_8e7d_10d0),
    ("quick sort", 0x9c82_39b7_7b24_303a),
    ("hanoi towers", 0x55e1_08f0_bdf7_bb05),
    ("list access", 0x860a_79fb_c12e_3aa1),
    ("kmp", 0xc79a_5953_412f_28e3),
];

/// `(file, infer JSON digest)` for `examples/*_bare.dml`.
const BARE_INFER: &[(&str, u64)] = &[
    ("amax_bare.dml", 0x6623_a0dc_c2e5_710b),
    ("asum_bare.dml", 0x5c2f_34d8_e0d2_cfac),
    ("bcopy_bare.dml", 0xd6d9_ee12_fd0f_a4bd),
    ("bsearch_bare.dml", 0xeffe_39b2_027c_2214),
    ("dotprod_bare.dml", 0xe4ad_59e8_2b70_b810),
];

/// The scale corpus pinned below: seed and target obligation count.
const SCALE: (u64, usize) = (23, 1_000);
const SCALE_PIN: u64 = 0x367c_e406_4a5b_71aa;

#[test]
fn every_example_keeps_its_site_views() {
    let pinned: Vec<&str> = EXAMPLES.iter().map(|row| row.0).collect();
    assert_eq!(example_files(), pinned, "every example has exactly one row");
    for &(file, digest) in EXAMPLES {
        let got = views_digest(file, &example_source(file));
        assert_eq!(got, digest, "{file}: the site views drifted ({got:#018x})");
    }
}

#[test]
fn every_paper_program_keeps_its_site_views() {
    let programs = dml_programs::all_programs();
    let names: Vec<&str> = programs.iter().map(|p| p.name).collect();
    let pinned: Vec<&str> = PROGRAMS.iter().map(|row| row.0).collect();
    assert_eq!(names, pinned, "every program has exactly one row");
    for (p, &(_, digest)) in programs.iter().zip(PROGRAMS) {
        let got = views_digest(p.name, p.source);
        assert_eq!(got, digest, "{}: the site views drifted ({got:#018x})", p.name);
    }
}

#[test]
fn a_scale_corpus_keeps_its_site_views() {
    let corpus = gen_scale_corpus(&ScaleConfig::new(SCALE.0, SCALE.1));
    assert_eq!(corpus.cases.len(), 1);
    let case = &corpus.cases[0];
    let got = views_digest(&case.name, &case.source);
    assert_eq!(got, SCALE_PIN, "{}: the site views drifted ({got:#018x})", case.name);
}

#[test]
fn every_bare_example_keeps_its_infer_report() {
    let bare: Vec<String> =
        example_files().into_iter().filter(|f| f.ends_with("_bare.dml")).collect();
    let pinned: Vec<&str> = BARE_INFER.iter().map(|row| row.0).collect();
    assert_eq!(bare, pinned, "every bare example has exactly one row");
    for &(file, digest) in BARE_INFER {
        let got = infer_digest(file, &example_source(file));
        assert_eq!(got, digest, "{file}: the infer report drifted ({got:#018x})");
    }
}
