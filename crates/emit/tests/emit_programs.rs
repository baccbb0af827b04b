//! End-to-end backend tests over the seed benchmark corpus.
//!
//! Every supported program must emit in both variants; the
//! proven-unchecked variant must contain exactly one `unsafe` block per
//! proven site, each annotated with a goal-numbered SAFETY comment; and
//! the emitted dotprod crate must build and run with identical stdout in
//! both variants (the differential check the CI job runs at scale).

use dml::pipeline::Compiler;
use dml_emit::{emit_program, EmitOptions, Variant};
use dml_types::infer::infer_program;
use std::path::PathBuf;
use std::process::Command;

/// The emit corpus: every seed program except `kmp` (top-level stateful
/// `val` — outside the emitted subset; see docs/EMIT.md).
fn corpus() -> Vec<dml_programs::BenchProgram> {
    let mut v = dml_programs::all_programs();
    v.retain(|p| p.name != "kmp");
    v
}

fn emit(name: &str, source: &str, variant: Variant) -> dml_emit::EmittedCrate {
    let compiled =
        Compiler::new().compile(source).unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
    let schemes = infer_program(compiled.program(), compiled.env())
        .unwrap_or_else(|e| panic!("{name}: re-inference failed: {e:?}"))
        .schemes;
    let sites = compiled.site_verdicts();
    let opts = EmitOptions {
        variant,
        crate_name: format!(
            "{}_{}",
            dml_emit::sanitize_crate_name(name),
            match variant {
                Variant::Checked => "checked",
                Variant::UncheckedProven => "unchecked",
            }
        ),
    };
    emit_program(compiled.program(), compiled.env(), &schemes, &sites, &opts)
        .unwrap_or_else(|e| panic!("{name}: emission failed: {e}"))
}

#[test]
fn corpus_emits_in_both_variants() {
    for p in corpus() {
        let checked = emit(p.name, p.source, Variant::Checked);
        let unchecked = emit(p.name, p.source, Variant::UncheckedProven);
        assert_eq!(
            checked.stats.unchecked_sites, 0,
            "{}: checked variant must not emit unchecked sites",
            p.name
        );
        assert!(
            !checked.main_rs.is_empty() && !unchecked.main_rs.is_empty(),
            "{}: empty emission",
            p.name
        );
    }
}

#[test]
fn unsafe_blocks_match_proven_sites() {
    for p in corpus() {
        let compiled = Compiler::new().compile(p.source).expect("compile");
        let proven = compiled.site_verdicts().iter().filter(|s| s.proven).count();
        let emitted = emit(p.name, p.source, Variant::UncheckedProven);
        // Count unsafe blocks in the program body (the embedded runtime has
        // its own audited unsafe blocks; cut it off first).
        let body = emitted
            .main_rs
            .split_once(dml_emit::RT_END_MARKER)
            .map(|(_, rest)| rest)
            .expect("runtime end marker present");
        let count = body.matches("unsafe {").count();
        assert_eq!(count, emitted.stats.unchecked_sites, "{}: unsafe blocks vs stats", p.name);
        assert_eq!(count, proven, "{}: unsafe blocks must equal proven site count", p.name);
        // Every unsafe block must be preceded by a SAFETY comment within
        // the previous two lines (the grep lint CI also enforces).
        let lines: Vec<&str> = body.lines().collect();
        for (k, l) in lines.iter().enumerate() {
            if l.contains("unsafe {") {
                let window = &lines[k.saturating_sub(2)..=k];
                assert!(
                    window.iter().any(|w| w.contains("// SAFETY: goal #")),
                    "{}: unsafe block without goal-numbered SAFETY comment at line {k}",
                    p.name
                );
            }
        }
        // Each `goal #N` is an obligation number in `dmlc constraints`
        // order, and must name a proven check obligation.
        let obligations = compiled.obligations();
        for comment in lines.iter().filter_map(|l| l.split_once("// SAFETY: ").map(|(_, c)| c)) {
            for part in comment.split("; ") {
                let n = part
                    .strip_prefix("goal #")
                    .and_then(|rest| rest.strip_suffix(" proven"))
                    .and_then(|n| n.parse::<usize>().ok())
                    .unwrap_or_else(|| panic!("{}: malformed SAFETY comment `{comment}`", p.name));
                let (ob, verdict) = n
                    .checked_sub(1)
                    .and_then(|k| obligations.get(k))
                    .unwrap_or_else(|| panic!("{}: goal #{n} names no obligation", p.name));
                assert!(
                    ob.kind.is_check() && verdict.is_proven(),
                    "{}: goal #{n} is `{}`, {verdict:?}, not a proven check",
                    p.name,
                    ob.kind
                );
            }
        }
    }
}

#[test]
fn checked_variant_has_no_program_unsafe() {
    for p in corpus() {
        let emitted = emit(p.name, p.source, Variant::Checked);
        let body = emitted
            .main_rs
            .split_once(dml_emit::RT_END_MARKER)
            .map(|(_, rest)| rest)
            .expect("runtime end marker present");
        assert_eq!(
            body.matches("unsafe {").count(),
            0,
            "{}: checked variant leaked an unsafe block",
            p.name
        );
    }
}

#[test]
fn bench_programs_get_real_drivers() {
    // The paper's table programs plus dotprod must synthesise a runnable
    // benchmark main, not the build-only fallback.
    let mut names: Vec<&str> = dml_programs::table_programs().iter().map(|p| p.name).collect();
    names.push("dotprod");
    for p in corpus() {
        if !names.contains(&p.name) {
            continue;
        }
        let emitted = emit(p.name, p.source, Variant::UncheckedProven);
        assert!(
            emitted.driver_fallback.is_none(),
            "{}: driver fell back: {:?}",
            p.name,
            emitted.driver_fallback
        );
    }
}

/// Builds and runs both variants of every corpus program at a small size;
/// stdout must be byte-identical between checked and proven-unchecked.
#[test]
fn corpus_differential_build_and_run() {
    let tmp = std::env::temp_dir().join(format!("dml_emit_test_{}", std::process::id()));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    for p in corpus() {
        let mut outs = Vec::new();
        for variant in [Variant::Checked, Variant::UncheckedProven] {
            let emitted = emit(p.name, p.source, variant);
            if emitted.driver_fallback.is_some() {
                // Build-only program: still must compile.
            }
            let dir: PathBuf = tmp.join(emitted.crate_name.clone());
            dml_emit::write_crate(&emitted, &dir).expect("write crate");
            let build = Command::new(&cargo)
                .args(["build", "--quiet"])
                .current_dir(&dir)
                .env("CARGO_TARGET_DIR", tmp.join("target"))
                .output()
                .expect("spawn cargo");
            assert!(
                build.status.success(),
                "{}: cargo build failed for {variant:?}:\n{}",
                p.name,
                String::from_utf8_lossy(&build.stderr)
            );
            let bin = tmp.join("target/debug").join(&emitted.crate_name);
            let run =
                Command::new(&bin).args(["12", "2", "7"]).output().expect("run emitted binary");
            assert!(
                run.status.success(),
                "{}: emitted binary failed for {variant:?}:\n{}",
                p.name,
                String::from_utf8_lossy(&run.stderr)
            );
            outs.push(String::from_utf8_lossy(&run.stdout).into_owned());
        }
        assert_eq!(outs[0], outs[1], "{}: checked and unchecked stdout differ", p.name);
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
