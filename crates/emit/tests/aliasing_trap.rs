//! The evaluation-order/aliasing trap, end to end.
//!
//! `examples/aliasing_trap.dml` buries mutations of an array inside the
//! index and value expressions of accesses to that same array. The
//! emission contract (docs/EMIT.md) hoists base, index, and value into
//! temporaries once, in source order, before selecting the access form —
//! so removing the bounds check cannot change which element is read or
//! written. These tests assert the hoist textually and then prove it
//! behaviourally: both emitted variants build and produce byte-identical
//! stdout.

use dml::pipeline::Compiler;
use dml_emit::{emit_program, EmitOptions, Variant};
use dml_types::infer::infer_program;
use std::path::PathBuf;
use std::process::Command;

const TRAP: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/aliasing_trap.dml");

fn emit(variant: Variant) -> dml_emit::EmittedCrate {
    let source = std::fs::read_to_string(TRAP).expect("read aliasing_trap.dml");
    let compiled = Compiler::new().compile(&source).expect("pipeline");
    let schemes = infer_program(compiled.program(), compiled.env()).expect("inference").schemes;
    let sites = compiled.site_verdicts();
    assert!(sites.iter().all(|s| s.proven), "every trap site must be proven (got {:?})", sites);
    let opts = EmitOptions {
        variant,
        crate_name: format!(
            "aliasing_trap_{}",
            match variant {
                Variant::Checked => "checked",
                Variant::UncheckedProven => "unchecked",
            }
        ),
    };
    emit_program(compiled.program(), compiled.env(), &schemes, sites, &opts).expect("emission")
}

/// Every access hoists base before index before the access itself — in
/// both variants, so the checked baseline and the unsafe emission have
/// identical evaluation order by construction.
#[test]
fn hoist_order_is_base_then_index_then_access() {
    for variant in [Variant::Checked, Variant::UncheckedProven] {
        let emitted = emit(variant);
        let body = emitted
            .main_rs
            .split_once(dml_emit::RT_END_MARKER)
            .map(|(_, rest)| rest)
            .expect("runtime end marker present");
        let accesses: Vec<usize> = ["get_un(", "get_ck(", "set_un(", "set_ck("]
            .iter()
            .flat_map(|m| body.match_indices(m).map(|(p, _)| p))
            .collect();
        assert!(!accesses.is_empty(), "no array accesses emitted");
        for pos in accesses {
            let before = &body[..pos];
            let b = before.rfind("let __b").unwrap_or_else(|| {
                panic!(
                    "{variant:?}: access at {pos} has no hoisted base:\n...{}",
                    &body[pos.saturating_sub(200)..pos]
                )
            });
            let i = before
                .rfind("let __i")
                .unwrap_or_else(|| panic!("{variant:?}: access at {pos} has no hoisted index"));
            assert!(b < i, "{variant:?}: base must be hoisted before index at {pos}");
        }
    }
}

/// The side-effecting index expression lands inside the hoisted index
/// temporary (evaluated exactly once, before the access), not inline in
/// the access itself.
#[test]
fn side_effects_are_hoisted_out_of_the_access() {
    let emitted = emit(Variant::UncheckedProven);
    let body = emitted.main_rs.split_once(dml_emit::RT_END_MARKER).map(|(_, rest)| rest).unwrap();
    for (pos, _) in body.match_indices("unsafe {") {
        let access = &body[pos..pos + body[pos..].find('}').unwrap() + 1];
        // The block applies one unchecked access to already-hoisted
        // temporaries: no checked calls, no runtime calls, no nested
        // blocks — so no expression with side effects can hide in it.
        assert!(
            !access.contains("_ck(")
                && !access.contains("rt::")
                && access.matches('{').count() == 1,
            "non-hoisted work leaked inside an unsafe access: {access}"
        );
        assert!(
            access.contains(".get_un(__i")
                || access.contains(".set_un(__i")
                || access.contains(".nth_un(__i"),
            "unsafe access must consume the hoisted index temporary: {access}"
        );
    }
    assert_eq!(emitted.stats.unchecked_sites, 8, "all eight trap sites lowered unchecked");
}

/// The behavioural proof: both variants build and print identical stdout.
#[test]
fn trap_differential_build_and_run() {
    let tmp = std::env::temp_dir().join(format!("dml_trap_test_{}", std::process::id()));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut outs = Vec::new();
    for variant in [Variant::Checked, Variant::UncheckedProven] {
        let emitted = emit(variant);
        assert!(emitted.driver_fallback.is_none(), "trap needs a runnable driver");
        let dir: PathBuf = tmp.join(&emitted.crate_name);
        dml_emit::write_crate(&emitted, &dir).expect("write crate");
        let build = Command::new(&cargo)
            .args(["build", "--quiet"])
            .current_dir(&dir)
            .env("CARGO_TARGET_DIR", tmp.join("target"))
            .output()
            .expect("spawn cargo");
        assert!(
            build.status.success(),
            "build failed for {variant:?}:\n{}",
            String::from_utf8_lossy(&build.stderr)
        );
        let bin = tmp.join("target/debug").join(&emitted.crate_name);
        let run = Command::new(&bin).args(["16", "3", "42"]).output().expect("run binary");
        assert!(
            run.status.success(),
            "binary failed for {variant:?}:\n{}",
            String::from_utf8_lossy(&run.stderr)
        );
        outs.push(String::from_utf8_lossy(&run.stdout).into_owned());
    }
    assert_eq!(outs[0], outs[1], "aliasing trap: checked and unchecked stdout differ");
    let _ = std::fs::remove_dir_all(&tmp);
}
