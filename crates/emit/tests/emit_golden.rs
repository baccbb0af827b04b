//! Golden-emission tests: emitted Rust is a deterministic function of the
//! source program alone.
//!
//! For `examples/{dotprod,bcopy,bsearch}.dml` the proven-unchecked
//! emission must be byte-identical across {workers 1, 4} × {cache on,
//! off} (solver parallelism and the verdict cache change *how fast*
//! verdicts arrive, never *which code* is emitted), and must match the
//! committed snapshot under `tests/golden/emit/`. Regenerate snapshots
//! with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p dml-emit --test emit_golden
//! ```

use dml::pipeline::Compiler;
use dml_emit::{emit_program, EmitOptions, Variant};
use dml_types::infer::infer_program;
use std::path::PathBuf;

const EXAMPLES: &[&str] = &["dotprod", "bcopy", "bsearch"];

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(rel)
}

/// Emits the proven-unchecked variant under an explicit solver config;
/// returns `(main_rs, proven_site_count, unchecked_sites)`.
fn emit_with(source: &str, name: &str, workers: usize, cache: bool) -> (String, usize, usize) {
    let compiled = Compiler::new()
        .workers(workers)
        .cache(cache)
        .compile(source)
        .unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
    let schemes = infer_program(compiled.program(), compiled.env())
        .unwrap_or_else(|e| panic!("{name}: re-inference failed: {e:?}"))
        .schemes;
    let sites = compiled.site_verdicts();
    let proven = sites.iter().filter(|s| s.proven).count();
    let opts = EmitOptions {
        variant: Variant::UncheckedProven,
        crate_name: format!("{}_unchecked", dml_emit::sanitize_crate_name(name)),
    };
    let emitted = emit_program(compiled.program(), compiled.env(), &schemes, sites, &opts)
        .unwrap_or_else(|e| panic!("{name}: emission failed: {e}"));
    (emitted.main_rs, proven, emitted.stats.unchecked_sites)
}

#[test]
fn emission_is_config_independent_and_matches_golden() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for name in EXAMPLES {
        let source = std::fs::read_to_string(repo_path(&format!("examples/{name}.dml")))
            .unwrap_or_else(|e| panic!("read examples/{name}.dml: {e}"));

        let (reference, proven, unchecked) = emit_with(&source, name, 1, true);
        for (workers, cache) in [(1, false), (4, true), (4, false)] {
            let (other, p2, u2) = emit_with(&source, name, workers, cache);
            assert_eq!(
                reference, other,
                "{name}: emission differs under workers={workers} cache={cache}"
            );
            assert_eq!((proven, unchecked), (p2, u2), "{name}: site counts drifted");
        }

        // Exactly one unsafe block per proven site, in the program body.
        let body = reference
            .split_once(dml_emit::RT_END_MARKER)
            .map(|(_, rest)| rest)
            .expect("runtime end marker present");
        assert_eq!(
            body.matches("unsafe {").count(),
            proven,
            "{name}: unsafe blocks must equal the `dmlc check` proven count"
        );
        assert_eq!(unchecked, proven, "{name}: emitter stats vs verdicts");

        let golden_path = repo_path(&format!("crates/emit/tests/golden/emit/{name}_unchecked.rs"));
        if update {
            std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
            std::fs::write(&golden_path, &reference).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1",
                golden_path.display()
            )
        });
        assert_eq!(
            golden, reference,
            "{name}: emission drifted from the committed snapshot; \
             if intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
}

/// The committed example files must keep the same code as the in-crate
/// benchmark sources — the goldens snapshot the seed programs, not forks.
#[test]
fn examples_match_seed_sources() {
    let pairs: &[(&str, &str)] = &[
        ("dotprod", dml_programs::dotprod::SOURCE),
        ("bcopy", dml_programs::bcopy::SOURCE),
        ("bsearch", dml_programs::bsearch::SOURCE),
    ];
    for (name, source) in pairs {
        let file = std::fs::read_to_string(repo_path(&format!("examples/{name}.dml")))
            .unwrap_or_else(|e| panic!("read examples/{name}.dml: {e}"));
        assert!(
            file.contains(source.trim()),
            "examples/{name}.dml drifted from dml_programs::{name}::SOURCE"
        );
    }
}
