//! The refined standard basis (§2.1, §3.1): dependent signatures for
//! arithmetic, comparison, and array/list primitives, declared as DML
//! source and elaborated into a base [`Env`].
//!
//! Notable signatures:
//!
//! * `+ <| {m:int} {n:int} int(m) * int(n) -> int(m+n)` — the paper's
//!   exact singleton arithmetic;
//! * `sub <| {n:nat} {i:nat | i < n} 'a array(n) * int(i) -> 'a` — the
//!   *unchecked* subscript, usable only where the guard is discharged;
//! * `subCK <| {n:nat} 'a array(n) * int -> 'a` — the always-checked
//!   subscript (the escape hatch used in the KMP example, Appendix A);
//! * `nth` / `nthCK` — the list analogues eliminating tag checks.

use crate::convert::ConvertError;
use crate::env::{CheckKind, Env};
use dml_index::VarGen;
use dml_syntax::ast as sast;
use dml_syntax::parse_program;

/// The prelude: list datatype + typeref (Figure 2), the `order` datatype,
/// and the refined standard basis.
pub const PRELUDE: &str = r#"
datatype 'a list = nil | :: of 'a * 'a list
typeref 'a list of nat with
  nil <| 'a list(0)
| :: <| {n:nat} 'a * 'a list(n) -> 'a list(n+1)

datatype order = LESS | EQUAL | GREATER

assert + <| {m:int} {n:int} int(m) * int(n) -> int(m+n)
and - <| {m:int} {n:int} int(m) * int(n) -> int(m-n)
and * <| {m:int} {n:int} int(m) * int(n) -> int(m*n)
and div <| {m:int} {n:int | n <> 0} int(m) * int(n) -> int(m div n)
and mod <| {m:int} {n:int | n <> 0} int(m) * int(n) -> int(m mod n)
and neg <| {m:int} int(m) -> int(0-m)
and iabs <| {m:int} int(m) -> int(abs(m))
and imin <| {m:int} {n:int} int(m) * int(n) -> int(min(m,n))
and imax <| {m:int} {n:int} int(m) * int(n) -> int(max(m,n))
and = <| {m:int} {n:int} int(m) * int(n) -> bool(m = n)
and <> <| {m:int} {n:int} int(m) * int(n) -> bool(m <> n)
and < <| {m:int} {n:int} int(m) * int(n) -> bool(m < n)
and <= <| {m:int} {n:int} int(m) * int(n) -> bool(m <= n)
and > <| {m:int} {n:int} int(m) * int(n) -> bool(m > n)
and >= <| {m:int} {n:int} int(m) * int(n) -> bool(m >= n)
and not <| {b:bool} bool(b) -> bool(not b)

assert length <| {n:nat} 'a array(n) -> int(n)
and sub <| {n:nat} {i:nat | i < n} 'a array(n) * int(i) -> 'a
and update <| {n:nat} {i:nat | i < n} 'a array(n) * int(i) * 'a -> unit
and array <| {n:nat} int(n) * 'a -> 'a array(n)
and subCK <| {n:nat} 'a array(n) * int -> 'a
and updateCK <| {n:nat} 'a array(n) * int * 'a -> unit

assert llength <| {n:nat} 'a list(n) -> int(n)
and nth <| {n:nat} {i:nat | i < n} 'a list(n) * int(i) -> 'a
and nthCK <| {n:nat} 'a list(n) * int -> 'a

assert print_int <| int -> unit
"#;

/// The check kind associated with each prelude primitive name. User-defined
/// `assert` names containing `sub`, `update`, or `nth` prefixes (as in the
/// KMP example's `subPrefix`) inherit the corresponding kind.
pub fn check_kind(name: &str) -> CheckKind {
    match name {
        "sub" | "update" => CheckKind::ArrayBound,
        "nth" => CheckKind::ListTag,
        "div" | "mod" => CheckKind::DivZero,
        _ if name.starts_with("sub") && !name.ends_with("CK") => CheckKind::ArrayBound,
        _ if name.starts_with("update") && !name.ends_with("CK") => CheckKind::ArrayBound,
        _ if name.starts_with("nth") && !name.ends_with("CK") => CheckKind::ListTag,
        _ => CheckKind::None,
    }
}

/// Builds the base environment containing the prelude.
///
/// # Panics
///
/// Panics if the prelude itself fails to parse or elaborate — that is a bug
/// in this crate, covered by tests.
pub fn base_env(gen: &mut VarGen) -> Env {
    let program = parse_program(PRELUDE).expect("prelude parses");
    let mut env = Env::new();
    for d in &program.decls {
        match d {
            sast::Decl::Datatype(dd) => {
                env.add_datatype(dd, gen).expect("prelude datatype elaborates")
            }
            sast::Decl::Typeref(tr) => {
                env.add_typeref(tr, gen).expect("prelude typeref elaborates")
            }
            sast::Decl::Assert(sigs) => {
                env.add_assert(sigs, &check_kind, gen).expect("prelude assert elaborates")
            }
            other => panic!("unexpected declaration in prelude: {other:?}"),
        }
    }
    env
}

/// Builds a program's environment: the prelude ([`base_env`]) plus the
/// program's own `datatype`, `typeref` and `assert` declarations, in
/// source order.
///
/// # Errors
///
/// The first declaration that fails to elaborate, with its message and
/// span.
pub fn program_env(program: &sast::Program, gen: &mut VarGen) -> Result<Env, ConvertError> {
    let mut env = base_env(gen);
    for d in &program.decls {
        match d {
            sast::Decl::Datatype(dd) => env.add_datatype(dd, gen)?,
            sast::Decl::Typeref(tr) => env.add_typeref(tr, gen)?,
            sast::Decl::Assert(sigs) => env.add_assert(sigs, &check_kind, gen)?,
            _ => {}
        }
    }
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::MlTy;

    #[test]
    fn prelude_elaborates() {
        let mut gen = VarGen::new();
        let env = base_env(&mut gen);
        for name in [
            "+", "-", "*", "div", "mod", "neg", "=", "<>", "<", "<=", ">", ">=", "not", "length",
            "sub", "update", "array", "subCK", "updateCK", "llength", "nth", "nthCK", "iabs",
            "imin", "imax",
        ] {
            assert!(env.values.contains_key(name), "missing prelude primitive `{name}`");
        }
        assert!(env.is_constructor("nil"));
        assert!(env.is_constructor("::"));
        assert!(env.is_constructor("LESS"));
    }

    #[test]
    fn arithmetic_erases_correctly() {
        let mut gen = VarGen::new();
        let env = base_env(&mut gen);
        let plus = env.ml_scheme("+").unwrap();
        assert_eq!(
            plus.ty,
            MlTy::Arrow(
                Box::new(MlTy::Tuple(vec![MlTy::int(), MlTy::int()])),
                Box::new(MlTy::int())
            )
        );
        let eq = env.ml_scheme("=").unwrap();
        assert_eq!(
            eq.ty,
            MlTy::Arrow(
                Box::new(MlTy::Tuple(vec![MlTy::int(), MlTy::int()])),
                Box::new(MlTy::bool())
            )
        );
    }

    #[test]
    fn sub_is_polymorphic_and_checked_kind() {
        let mut gen = VarGen::new();
        let env = base_env(&mut gen);
        let sub = &env.values["sub"];
        assert_eq!(sub.scheme.tyvars, vec!["a".to_string()]);
        assert_eq!(sub.check, CheckKind::ArrayBound);
        assert_eq!(env.values["subCK"].check, CheckKind::None);
        assert_eq!(env.values["nth"].check, CheckKind::ListTag);
        assert_eq!(env.values["div"].check, CheckKind::DivZero);
    }

    #[test]
    fn check_kind_prefix_rules() {
        assert_eq!(check_kind("subPrefix"), CheckKind::ArrayBound);
        assert_eq!(check_kind("updatePrefix"), CheckKind::ArrayBound);
        assert_eq!(check_kind("subPrefixCK"), CheckKind::None);
        assert_eq!(check_kind("dotprod"), CheckKind::None);
    }

    #[test]
    fn list_typeref_registered() {
        let mut gen = VarGen::new();
        let env = base_env(&mut gen);
        let cons = &env.cons["::"];
        assert_eq!(cons.binder.vars.len(), 1);
        assert_eq!(env.families["list"].ix_sorts.len(), 1);
    }
}
