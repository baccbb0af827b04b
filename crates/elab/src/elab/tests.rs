//! End-to-end elaboration tests: parse → env → phase 1 → phase 2 → solve.

use super::*;
use dml_solver::{Solver, SolverOptions, Verdict};
use dml_types::builtins::program_env;
use dml_types::infer::infer_program;

/// Runs the full front-end on `src`, returning the elaboration output and
/// the per-obligation validity results.
fn run(src: &str) -> (ElabOutput, Vec<(Obligation, Verdict)>) {
    let program = dml_syntax::parse_program(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
    let mut gen = VarGen::new();
    let env = program_env(&program, &mut gen).unwrap();
    let phase1 = infer_program(&program, &env).unwrap_or_else(|e| panic!("phase 1: {e}"));
    let out = elaborate(&program, &env, &phase1, gen).unwrap_or_else(|e| panic!("phase 2: {e}"));
    let mut gen = out.gen.clone();
    let solver = Solver::new(SolverOptions::default());
    let mut results = Vec::new();
    for ob in &out.obligations {
        let outcome = solver.prove(&ob.constraint, &mut gen);
        let ok = outcome.all_proven();
        results.push((
            ob.clone(),
            if ok {
                Verdict::Proven
            } else {
                outcome
                    .results
                    .into_iter()
                    .find(|(_, r)| !r.is_proven())
                    .map(|(_, r)| r)
                    .expect("some goal failed")
            },
        ));
    }
    (out, results)
}

fn all_valid(results: &[(Obligation, Verdict)]) -> bool {
    results.iter().all(|(_, r)| r.is_proven())
}

fn failures(results: &[(Obligation, Verdict)]) -> Vec<String> {
    results.iter().filter(|(_, r)| !r.is_proven()).map(|(o, r)| format!("{o} -- {r:?}")).collect()
}

const DOTPROD: &str = r#"
fun dotprod(v1, v2) = let
  fun loop(i, n, sum) =
    if i = n then sum
    else loop(i+1, n, sum + sub(v1, i) * sub(v2, i))
  where loop <| {n:nat | n <= p} {i:nat | i <= n} int(i) * int(n) * int -> int
in
  loop(0, length v1, 0)
end
where dotprod <| {p:nat} {q:nat | p <= q} int array(p) * int array(q) -> int
"#;

#[test]
fn dotprod_fully_verified() {
    let (out, results) = run(DOTPROD);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
    let bound: Vec<_> = out.check_obligations().collect();
    assert!(!bound.is_empty(), "sub calls must generate bound obligations");
    assert!(bound.iter().all(|o| matches!(&o.kind, ObKind::Bound { prim, .. } if prim == "sub")));
}

#[test]
fn dotprod_constraints_look_like_the_paper() {
    let (out, _) = run(DOTPROD);
    let text: Vec<String> = out.obligations.iter().map(|o| o.constraint.to_string()).collect();
    // At least one constraint universally quantifies and implies, as in
    // Figure 4 / §3.1.
    assert!(text.iter().any(|t| t.starts_with("forall") && t.contains("==>")), "{text:#?}");
}

const REVERSE: &str = r#"
fun reverse(l) = let
  fun rev(nil, ys) = ys
    | rev(x::xs, ys) = rev(xs, x::ys)
  where rev <| {m:nat} {n:nat} 'a list(m) * 'a list(n) -> 'a list(m+n)
in
  rev(l, nil)
end
where reverse <| {n:nat} 'a list(n) -> 'a list(n)
"#;

#[test]
fn reverse_fully_verified() {
    let (_, results) = run(REVERSE);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
}

#[test]
fn reverse_generates_existential_equation_constraints() {
    // §3.1: the first clause produces ∀…∃M∃N.(M = 0 ∧ N = n ⊃ M + N = n).
    let (out, _) = run(REVERSE);
    let has_result_eq = out.obligations.iter().any(|o| {
        o.kind == ObKind::TypeEq && o.in_fun == "rev" && o.constraint.to_string().contains("=")
    });
    assert!(has_result_eq, "rev's result-type equations should be present");
}

const FILTER: &str = r#"
fun filter p l = case l of
    nil => nil
  | x :: xs => if p(x) then x :: filter p xs else filter p xs
where filter <| {m:nat} ('a -> bool) -> 'a list(m) -> [n:nat | n <= m] 'a list(n)
"#;

#[test]
fn filter_existential_result_verified() {
    let (_, results) = run(FILTER);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
}

const BSEARCH: &str = r#"
datatype 'a answer = NOTFOUND | FOUND of int * 'a

fun('a){size:nat} bsearch cmp (key, arr) = let
  fun look(lo, hi) =
    if hi >= lo then
      let val m = lo + (hi - lo) div 2
          val x = sub(arr, m)
      in
        case cmp(key, x) of
          LESS => look(lo, m-1)
        | EQUAL => FOUND(m, x)
        | GREATER => look(m+1, hi)
      end
    else NOTFOUND
  where look <| {l:nat | l <= size} {h:int | 0 <= h+1 && h+1 <= size}
                int(l) * int(h) -> 'a answer
in
  look (0, length arr - 1)
end
where bsearch <| ('a * 'a -> order) -> 'a * 'a array(size) -> 'a answer
"#;

#[test]
fn bsearch_fully_verified() {
    let (out, results) = run(BSEARCH);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
    // Exactly one `sub` call site.
    let sites: BTreeSet<Span> = out.check_obligations().map(|o| o.site).collect();
    assert_eq!(sites.len(), 1, "one sub call in bsearch");
}

#[test]
fn out_of_bounds_access_not_proven() {
    let src = r#"
fun bad(v) = sub(v, length v)
where bad <| {n:nat} int array(n) -> int
"#;
    let (_, results) = run(src);
    let bound_failures: Vec<_> =
        results.iter().filter(|(o, r)| o.kind.is_check() && !r.is_proven()).collect();
    assert!(!bound_failures.is_empty(), "sub(v, length v) must not be proven safe");
}

#[test]
fn first_element_requires_nonempty() {
    // Without a positivity constraint the access is unprovable...
    let src = r#"
fun first(v) = sub(v, 0)
where first <| {n:nat} int array(n) -> int
"#;
    let (_, results) = run(src);
    assert!(!all_valid(&results), "sub(v, 0) on a possibly-empty array is unsafe");

    // ...with it, it is proven.
    let src = r#"
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int
"#;
    let (_, results) = run(src);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
}

#[test]
fn unannotated_code_elaborates_conservatively() {
    // No annotations at all: the program must still elaborate; the bound
    // obligation is simply not proven (the check stays at run time).
    let src = "fun get(v, i) = sub(v, i)";
    let (out, results) = run(src);
    assert!(!out.obligations.is_empty());
    let bound: Vec<_> = results.iter().filter(|(o, _)| o.kind.is_check()).collect();
    assert!(!bound.is_empty());
    assert!(bound.iter().any(|(_, r)| !r.is_proven()), "unannotated access stays checked");
}

#[test]
fn update_in_loop_verified() {
    let src = r#"
fun fill(v, x) = let
  fun go(i, n) =
    if i < n then (update(v, i, x); go(i+1, n)) else ()
  where go <| {k:nat | k <= n} {i:nat | i <= k} int(i) * int(k) -> unit
in
  go(0, length v)
end
where fill <| {n:nat} 'a array(n) * 'a -> unit
"#;
    let (_, results) = run(src);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
}

#[test]
fn list_nth_verified() {
    let src = r#"
fun second(l) = nth(l, 1)
where second <| {n:nat | n >= 2} 'a list(n) -> 'a
"#;
    let (out, results) = run(src);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
    assert!(out
        .check_obligations()
        .any(|o| matches!(&o.kind, ObKind::Bound { check: CheckKind::ListTag, .. })));
}

#[test]
fn singleton_propagation_through_let() {
    let src = r#"
fun mid(v) = let
  val n = length v
  val m = n div 2
in
  sub(v, m)
end
where mid <| {n:nat | n > 0} int array(n) -> int
"#;
    let (_, results) = run(src);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
}

#[test]
fn boolean_singleton_guards_branches() {
    let src = r#"
fun safeget(v, i) =
  if 0 <= i andalso i < length v then sub(v, i) else 0
where safeget <| int array * int -> int
"#;
    let (_, results) = run(src);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
}

#[test]
fn checked_variant_generates_no_bound_obligations() {
    let src = "fun get(v, i) = subCK(v, i)";
    let (out, _) = run(src);
    assert_eq!(out.check_obligations().count(), 0, "subCK has no bound guard");
}

#[test]
fn pattern_literal_refines() {
    let src = r#"
fun f(l) = case l of
    nil => 0
  | x :: xs => x + f(xs)
where f <| {n:nat} int list(n) -> int
"#;
    let (_, results) = run(src);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
}

#[test]
fn wrong_result_length_fails() {
    // Claims to preserve length but drops an element.
    let src = r#"
fun chop(l) = case l of
    nil => nil
  | x :: xs => xs
where chop <| {n:nat} 'a list(n) -> 'a list(n)
"#;
    let (_, results) = run(src);
    assert!(!all_valid(&results), "dropping an element must fail the length spec");
}

#[test]
fn append_length_arith() {
    let src = r#"
fun append(l1, l2) = case l1 of
    nil => l2
  | x :: xs => x :: append(xs, l2)
where append <| {m:nat} {n:nat} 'a list(m) * 'a list(n) -> 'a list(m+n)
"#;
    let (_, results) = run(src);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
}

#[test]
fn div_guard_emitted_and_proven_for_constant() {
    let src = "fun half(x) = x div 2";
    let (out, results) = run(src);
    assert!(out.obligations.iter().any(|o| o.kind == ObKind::DivGuard));
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
}

#[test]
fn div_guard_unproven_for_unknown() {
    let src = "fun ratio(x, y) = x div y";
    let (_, results) = run(src);
    let div_failed = results.iter().any(|(o, r)| o.kind == ObKind::DivGuard && !r.is_proven());
    assert!(div_failed, "dividing by an unknown integer cannot be proven safe");
}

#[test]
fn array_alloc_guard() {
    let src = r#"
fun make(n) = array(n, 0)
where make <| {n:nat} int(n) -> int array(n)
"#;
    let (_, results) = run(src);
    assert!(all_valid(&results), "failures:\n{}", failures(&results).join("\n"));
}

#[test]
fn top_level_schemes_recorded() {
    let (out, _) = run(DOTPROD);
    assert!(out.top_level.contains_key("dotprod"));
    let s = out.top_level["dotprod"].to_string();
    assert!(s.contains("array"), "{s}");
}
