//! Conservativity of `Compiler::infer`: the compile of the refined
//! program it returns may only *add* proofs to the plain compile of the
//! same source, never lose or fabricate them.
//!
//! Spans survive annotation patching (candidates are applied to the parsed
//! AST, never to re-parsed source), so check sites are comparable across
//! the baseline and inferred compiles of the same source:
//!
//! * every site the baseline proves stays proven in the inferred compile;
//! * every site the baseline *refutes* (a definitely-unsafe access) stays
//!   residual — an inferred annotation must never talk the solver into
//!   eliminating a falsifiable check;
//! * the set of failing non-check obligations is unchanged — inference
//!   cannot make a well-typed program ill-typed (or vice versa);
//! * the properties hold identically across solver configurations
//!   (workers 1/4 × cache on/off).

use dml::Compiled;
use dml_syntax::Span;
use std::collections::BTreeSet;
use std::fs;

const BARE_EXAMPLES: [&str; 5] = [
    "examples/asum_bare.dml",
    "examples/amax_bare.dml",
    "examples/bsearch_bare.dml",
    "examples/dotprod_bare.dml",
    "examples/bcopy_bare.dml",
];

fn compile(src: &str, infer: bool, workers: usize, cache: bool) -> Compiled {
    let compiler = dml::Compiler::new().workers(workers).cache(cache);
    if infer { compiler.infer(src).map(|(_, c)| c) } else { compiler.compile(src) }
        .expect("compiles")
}

fn residual_sites(c: &Compiled) -> BTreeSet<Span> {
    c.residual_checks().iter().map(|r| r.site).collect()
}

fn refuted_check_sites(c: &Compiled) -> BTreeSet<Span> {
    c.obligations()
        .iter()
        .filter(|(o, v)| o.kind.is_check() && v.is_refuted())
        .map(|(o, _)| o.site)
        .collect()
}

fn non_check_failures(c: &Compiled) -> usize {
    c.failures().filter(|(o, _)| !o.kind.is_check()).count()
}

#[track_caller]
fn assert_conservative(name: &str, src: &str, workers: usize, cache: bool) {
    let base = compile(src, false, workers, cache);
    let inferred = compile(src, true, workers, cache);

    // Proven stays proven.
    for site in base.proven_sites() {
        assert!(
            inferred.proven_sites().contains(site),
            "{name} (workers={workers} cache={cache}): inference lost proof at {site}"
        );
    }
    // Residuals only shrink.
    let br = residual_sites(&base);
    let ir = residual_sites(&inferred);
    assert!(
        ir.is_subset(&br),
        "{name} (workers={workers} cache={cache}): inference added residuals {:?}",
        ir.difference(&br).collect::<Vec<_>>()
    );
    // A refuted (definitely unsafe) check never becomes eliminated.
    for site in refuted_check_sites(&base) {
        assert!(
            !inferred.proven_sites().contains(&site),
            "{name} (workers={workers} cache={cache}): refuted check at {site} was eliminated"
        );
    }
    // Type-correctness is untouched.
    assert_eq!(
        non_check_failures(&base),
        non_check_failures(&inferred),
        "{name} (workers={workers} cache={cache}): non-check failures changed"
    );
}

#[test]
fn bare_corpus_is_conservative_across_configs() {
    for path in BARE_EXAMPLES {
        let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        for workers in [1usize, 4] {
            for cache in [true, false] {
                assert_conservative(path, &src, workers, cache);
            }
        }
    }
}

#[test]
fn stripped_seed_benchmarks_are_conservative() {
    for p in dml_programs::all_programs() {
        let stripped = dml::strip_annotations(p.source).expect("strips");
        assert_conservative(p.name, &stripped, 1, true);
    }
}

/// A program with a *refuted* bound check (a definitely-unsafe constant
/// access) plus an inferable loop: inference still eliminates the loop's
/// check but must leave the refuted one at run time.
#[test]
fn refuted_site_survives_next_to_an_inferable_one() {
    let src = "\
fun first (v) = let
  fun go (i, n, s) = if i = n then s else go (i + 1, n, s + sub(v, i))
  val bad = sub(v, 0 - 1)
in
  go (0, length v, bad)
end
";
    let base = compile(src, false, 1, true);
    let refuted = refuted_check_sites(&base);
    assert_eq!(refuted.len(), 1, "the constant access is refuted: {:?}", base.obligations());
    assert_conservative("refuted-mix", src, 1, true);
    let inferred = compile(src, true, 1, true);
    assert!(residual_sites(&inferred).is_superset(&refuted), "the refuted site stays residual");
    assert!(
        residual_sites(&inferred).len() < residual_sites(&base).len(),
        "the inferable loop check is still eliminated"
    );
}
