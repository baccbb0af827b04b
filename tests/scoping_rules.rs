//! Pins the value-scoping rules of both elaboration phases: a binding
//! made in a clause, a `case` arm or a `let` is visible exactly inside
//! it, shadows any outer binding of the same name there, and leaves the
//! outer binding visible again afterwards. Each case fixes the phase-1
//! ML schemes, the obligations as `dmlc constraints` prints them and the
//! proven/residual site counts, so a change to how either phase stores
//! its value environment cannot move any of them unnoticed.

use dml::{Compiled, Compiler};

/// Phase-1 schemes of every binder, in source order, as `name: scheme`.
fn schemes(src: &str, compiled: &Compiled) -> String {
    let phase1 = dml_types::infer_program(compiled.program(), compiled.env()).expect("phase 1");
    let mut binders: Vec<_> = phase1.schemes.iter().collect();
    binders.sort_by_key(|(span, _)| (span.start, span.end));
    binders
        .into_iter()
        .map(|(span, s)| format!("{}: {s}\n", &src[span.start as usize..span.end as usize]))
        .collect()
}

/// Obligations exactly as `dmlc constraints` prints them.
fn constraints(compiled: &Compiled) -> String {
    compiled
        .obligations()
        .iter()
        .map(|(o, r)| format!("{o}  [{}]\n", if r.is_proven() { "valid" } else { "NOT PROVEN" }))
        .collect()
}

/// Compiles `src` and checks its schemes, constraints and
/// `(proven, residual)` site counts against the pinned values (the
/// pinned texts start with a newline so they can open on their own line).
fn pin(src: &str, want_schemes: &str, want_constraints: &str, want_sites: (usize, usize)) {
    let compiled = Compiler::new().compile(src).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(format!("\n{}", schemes(src, &compiled)), want_schemes, "phase-1 schemes");
    assert_eq!(format!("\n{}", constraints(&compiled)), want_constraints, "constraints");
    let sites = (compiled.proven_sites().len(), compiled.unproven_sites().len());
    assert_eq!(sites, want_sites, "(proven, residual) sites");
}

#[test]
fn clause_parameter_shadows_a_top_level_function() {
    let src = r#"
fun len(v) = length v
where len <| {n:nat} int array(n) -> int(n)
fun get(len, v) = sub(v, len)
where get <| {n:nat} {i:nat | i < n} int(i) * int array(n) -> int
fun pick(len, x) = len
fun last(v) = sub(v, len v - 1)
where last <| {n:nat | n > 0} int array(n) -> int
"#;
    pin(
        src,
        r"
len: int array -> int
get: int * int array -> int
pick: forall t0 t1. 't0 * 't1 -> 't0
last: int array -> int
",
        r"
[guard in len at 14..22] forall v:int. exists n:int. exists n:int. (0 <= n /\ 0 <= v /\ n = v /\ v = n /\ n = n) ==> 0 <= n  [valid]
[index equation in len at 14..22] forall v:int. exists n:int. exists n:int. (0 <= n /\ 0 <= v /\ n = v /\ v = n) ==> n = n  [valid]
[array bound check for `sub` in get at 85..96] forall len:int. forall v:int. exists n:int. exists i:int. exists n:int. exists i:int. (0 <= n /\ (0 <= i /\ i < n) /\ i = len /\ 0 <= v /\ n = v /\ v = n /\ len = i) ==> 0 <= n  [valid]
[array bound check for `sub` in get at 85..96] forall len:int. forall v:int. exists n:int. exists i:int. exists n:int. exists i:int. (0 <= n /\ (0 <= i /\ i < n) /\ i = len /\ 0 <= v /\ n = v /\ v = n /\ len = i) ==> 0 <= i /\ i < n  [valid]
[guard in last at 207..212] forall v:int. exists n:int. exists n:int. exists i:int. exists m:int. exists n:int. exists n:int. (0 <= n /\ n > 0 /\ 0 <= v /\ n = v /\ v = n /\ v = n /\ n = m /\ 1 = n /\ m - n = i) ==> 0 <= n  [valid]
[array bound check for `sub` in last at 200..217] forall v:int. exists n:int. exists n:int. exists i:int. exists m:int. exists n:int. exists n:int. (0 <= n /\ n > 0 /\ 0 <= v /\ n = v /\ v = n /\ v = n /\ n = m /\ 1 = n /\ m - n = i) ==> 0 <= n  [valid]
[array bound check for `sub` in last at 200..217] forall v:int. exists n:int. exists n:int. exists i:int. exists m:int. exists n:int. exists n:int. (0 <= n /\ n > 0 /\ 0 <= v /\ n = v /\ v = n /\ v = n /\ n = m /\ 1 = n /\ m - n = i) ==> 0 <= i /\ i < n  [valid]
",
        (2, 0),
    );
}

#[test]
fn case_arm_variable_shadows_a_top_level_function() {
    let src = r#"
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int
fun headOr(xs, v) = (case xs of nil => 0 | first :: _ => first) + first v
where headOr <| {n:nat | n > 0} int list * int array(n) -> int
fun headIdx(xs, v) = case xs of nil => 0 | first :: _ => sub(v, first)
"#;
    pin(
        src,
        r"
first: int array -> int
headOr: int list * int array -> int
headIdx: int list * int array -> int
",
        r"
[array bound check for `sub` in first at 16..25] forall v:int. exists n:int. exists n:int. exists i:int. (0 <= n /\ n > 0 /\ 0 <= v /\ n = v /\ v = n /\ 0 = i) ==> 0 <= n  [valid]
[array bound check for `sub` in first at 16..25] forall v:int. exists n:int. exists n:int. exists i:int. (0 <= n /\ n > 0 /\ 0 <= v /\ n = v /\ v = n /\ 0 = i) ==> 0 <= i /\ i < n  [valid]
[index equation in headOr at 134..139] forall xs:int. forall v:int. forall n:int. forall first:int. exists n:int. exists m:int. (0 <= n /\ n > 0 /\ 0 <= xs /\ 0 <= v /\ n = v /\ 0 <= n /\ n + 1 = xs) ==> first = m  [valid]
[guard in headOr at 143..150] forall xs:int. forall v:int. forall u:int. exists n:int. exists n:int. exists n:int. (0 <= n /\ n > 0 /\ 0 <= xs /\ 0 <= v /\ n = v /\ v = n /\ u = n) ==> 0 <= n /\ n > 0  [valid]
[array bound check for `sub` in headIdx at 271..284] forall x#63:int. forall xs:int. forall x#65:int. forall v:int. forall n:int. forall x#62:int. forall first:int. forall x#64:int. exists x#66:int. exists n:int. exists i:int. (0 <= x#63 /\ 0 <= xs /\ x#63 = xs /\ 0 <= x#65 /\ 0 <= v /\ x#65 = v /\ 0 <= n /\ n + 1 = xs /\ x#62 = first /\ v = n /\ first = i /\ x#64 = x#66) ==> 0 <= n  [valid]
[array bound check for `sub` in headIdx at 271..284] forall x#63:int. forall xs:int. forall x#65:int. forall v:int. forall n:int. forall x#62:int. forall first:int. forall x#64:int. exists x#66:int. exists n:int. exists i:int. (0 <= x#63 /\ 0 <= xs /\ x#63 = xs /\ 0 <= x#65 /\ 0 <= v /\ x#65 = v /\ 0 <= n /\ n + 1 = xs /\ x#62 = first /\ v = n /\ first = i /\ x#64 = x#66) ==> 0 <= i /\ i < n  [NOT PROVEN]
",
        (1, 1),
    );
}

#[test]
fn let_fun_named_like_a_parameter_is_used_at_two_types() {
    let src = r#"
fun outer(id, v) = id + (let
  fun id x = x
in
  if id true then sub(v, id 0) else 0
end)
where outer <| {n:nat | n > 0} int * int array(n) -> int
"#;
    pin(
        src,
        r"
outer: int * int array -> int
id: forall t0. 't0 -> 't0
",
        r"
[array bound check for `sub` in outer at 66..78] forall id:int. forall v:int. forall b:bool. forall a:int. forall u:int. exists n:int. exists m:int. exists n:int. exists n:int. exists i:int. (0 <= n /\ n > 0 /\ 0 <= v /\ n = v /\ id = m /\ b /\ v = n /\ a = i /\ u = n) ==> 0 <= n  [valid]
[array bound check for `sub` in outer at 66..78] forall id:int. forall v:int. forall b:bool. forall a:int. forall u:int. exists n:int. exists m:int. exists n:int. exists n:int. exists i:int. (0 <= n /\ n > 0 /\ 0 <= v /\ n = v /\ id = m /\ b /\ v = n /\ a = i /\ u = n) ==> 0 <= i /\ i < n  [NOT PROVEN]
[index equation in outer at 84..85] forall id:int. forall v:int. forall b:bool. exists n:int. exists m:int. exists n:int. (0 <= n /\ n > 0 /\ 0 <= v /\ n = v /\ id = m /\ not(b)) ==> 0 = n  [valid]
",
        (0, 1),
    );
}

#[test]
fn let_val_of_an_application_stays_monomorphic() {
    let src = r#"
fun idf x = x
fun k x y = x
fun useit(v) = let
  val g = k idf 0
in
  sub(v, g 0)
end
where useit <| {n:nat | n > 0} int array(n) -> int
"#;
    pin(
        src,
        r"
idf: forall t0. 't0 -> 't0
k: forall t0 t1. 't1 -> 't0 -> 't1
useit: int array -> int
g: int -> int
",
        r"
[array bound check for `sub` in useit at 71..82] forall v:int. forall a:int. exists n:int. exists n:int. exists i:int. (0 <= n /\ n > 0 /\ 0 <= v /\ n = v /\ v = n /\ a = i) ==> 0 <= n  [valid]
[array bound check for `sub` in useit at 71..82] forall v:int. forall a:int. exists n:int. exists n:int. exists i:int. (0 <= n /\ n > 0 /\ 0 <= v /\ n = v /\ v = n /\ a = i) ==> 0 <= i /\ i < n  [NOT PROVEN]
",
        (0, 1),
    );
}
