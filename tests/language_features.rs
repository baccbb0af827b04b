//! Cross-crate tests of individual language features: singleton types,
//! existential packages, boolean-indexed refinement, user typerefs,
//! higher-order functions, and polymorphism.

use dml::{Mode, Value};
fn compile(src: &str) -> Result<dml::Compiled, dml::PipelineError> {
    dml::Compiler::new().compile(src)
}

use std::rc::Rc;

fn pair(a: Value, b: Value) -> Value {
    Value::Tuple(Rc::new(vec![a, b]))
}

#[test]
fn singleton_arithmetic_tracks_exact_values() {
    // int(m) * int(n) -> int(m+n): the result type is provable.
    let src = r#"
fun plus3(x) = x + 3
where plus3 <| {n:int} int(n) -> int(n+3)
fun check(x) = plus3(plus3(x))
where check <| {n:int} int(n) -> int(n+6)
"#;
    let c = compile(src).unwrap();
    assert!(c.fully_verified(), "{:?}", c.failures().collect::<Vec<_>>());
}

#[test]
fn wrong_singleton_result_rejected() {
    let src = r#"
fun plus3(x) = x + 3
where plus3 <| {n:int} int(n) -> int(n+4)
"#;
    let c = compile(src).unwrap();
    assert!(!c.fully_verified());
}

#[test]
fn user_typeref_datatype() {
    // A user-defined size-indexed stack.
    let src = r#"
datatype 'a stack = EMPTY | PUSH of 'a * 'a stack
typeref 'a stack of nat with
  EMPTY <| 'a stack(0)
| PUSH <| {n:nat} 'a * 'a stack(n) -> 'a stack(n+1)

fun depth(s) = case s of EMPTY => 0 | PUSH(_, rest) => 1 + depth(rest)
where depth <| {n:nat} 'a stack(n) -> int(n)

fun pop2(s) = case s of PUSH(_, PUSH(_, rest)) => rest
where pop2 <| {n:nat | n >= 2} 'a stack(n) -> 'a stack(n-2)
"#;
    // The match is non-exhaustive syntactically, but the index refinement
    // `n >= 2` guarantees the scrutinee matches at run time — exactly the
    // paper's list-tag-check elimination story.
    let c = compile(src).unwrap();
    assert!(
        c.fully_verified(),
        "{:?}",
        c.failures().map(|(o, r)| format!("{o} {r:?}")).collect::<Vec<_>>()
    );
    let mut m = c.machine(Mode::Eliminated);
    let s = Value::Con(
        "PUSH".into(),
        Some(Rc::new(pair(
            Value::Int(1),
            Value::Con(
                "PUSH".into(),
                Some(Rc::new(pair(Value::Int(2), Value::Con("EMPTY".into(), None)))),
            ),
        ))),
    );
    let d = m.call("depth", vec![s]).unwrap();
    assert_eq!(d.as_int(), Some(2));
}

#[test]
fn typeref_violating_clause_rejected() {
    // `pop2` claims n-2 but drops only one element.
    let src = r#"
datatype 'a stack = EMPTY | PUSH of 'a * 'a stack
typeref 'a stack of nat with
  EMPTY <| 'a stack(0)
| PUSH <| {n:nat} 'a * 'a stack(n) -> 'a stack(n+1)

fun pop2(s) = case s of PUSH(_, rest) => rest | EMPTY => EMPTY
where pop2 <| {n:nat | n >= 2} 'a stack(n) -> 'a stack(n-2)
"#;
    let c = compile(src).unwrap();
    assert!(!c.fully_verified());
}

#[test]
fn boolean_singleton_flows_through_comparisons() {
    let src = r#"
fun clamp(v, i) =
  if 0 <= i then (if i < length v then sub(v, i) else 0) else 0
where clamp <| int array * int -> int
"#;
    let c = compile(src).unwrap();
    assert!(
        c.fully_verified(),
        "{:?}",
        c.failures().map(|(o, r)| format!("{o} {r:?}")).collect::<Vec<_>>()
    );
    let mut m = c.machine(Mode::Eliminated);
    let v = Value::int_array([10, 20, 30]);
    assert_eq!(m.call("clamp", vec![pair(v.clone(), Value::Int(1))]).unwrap().as_int(), Some(20));
    assert_eq!(m.call("clamp", vec![pair(v.clone(), Value::Int(-5))]).unwrap().as_int(), Some(0));
    assert_eq!(m.call("clamp", vec![pair(v, Value::Int(99))]).unwrap().as_int(), Some(0));
    assert_eq!(m.counters.array_checks_eliminated, 1, "only the in-range probe accessed");
}

#[test]
fn existential_package_round_trip() {
    // A function returning an unknown-length list that is still bounded.
    let src = r#"
fun take2(l) = case l of
    nil => nil
  | x :: xs => (case xs of nil => x :: nil | y :: _ => x :: y :: nil)
where take2 <| {n:nat} 'a list(n) -> [m:nat | m <= 2] 'a list(m)
"#;
    let c = compile(src).unwrap();
    assert!(
        c.fully_verified(),
        "{:?}",
        c.failures().map(|(o, r)| format!("{o} {r:?}")).collect::<Vec<_>>()
    );
}

#[test]
fn existential_overflow_rejected() {
    // Claims at most 1 element but can return 2.
    let src = r#"
fun take2(l) = case l of
    nil => nil
  | x :: xs => (case xs of nil => x :: nil | y :: _ => x :: y :: nil)
where take2 <| {n:nat} 'a list(n) -> [m:nat | m <= 1] 'a list(m)
"#;
    let c = compile(src).unwrap();
    assert!(!c.fully_verified());
}

#[test]
fn polymorphic_functions_preserve_indices() {
    // `apply` is polymorphic; the array index flows through 'a.
    let src = r#"
fun apply f x = f x
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int
fun go(v) = apply first v
where go <| {n:nat | n > 0} int array(n) -> int
"#;
    let c = compile(src).unwrap();
    assert!(
        c.fully_verified(),
        "{:?}",
        c.failures().map(|(o, r)| format!("{o} {r:?}")).collect::<Vec<_>>()
    );
    let mut m = c.machine(Mode::Eliminated);
    let r = m.call("go", vec![Value::int_array([7, 8])]).unwrap();
    assert_eq!(r.as_int(), Some(7));
}

#[test]
fn min_max_abs_in_annotations() {
    let src = r#"
fun clampidx(v, i) = sub(v, imin(imax(i, 0), length v - 1))
where clampidx <| {n:nat | n > 0} int array(n) * int -> int
"#;
    let c = compile(src).unwrap();
    assert!(
        c.fully_verified(),
        "{:?}",
        c.failures().map(|(o, r)| format!("{o} {r:?}")).collect::<Vec<_>>()
    );
    let mut m = c.machine(Mode::Eliminated);
    let v = Value::int_array([1, 2, 3]);
    assert_eq!(
        m.call("clampidx", vec![pair(v.clone(), Value::Int(-9))]).unwrap().as_int(),
        Some(1)
    );
    assert_eq!(m.call("clampidx", vec![pair(v, Value::Int(9))]).unwrap().as_int(), Some(3));
}

#[test]
fn mutual_recursion_with_annotations() {
    let src = r#"
fun even(n) = if n = 0 then true else odd(n - 1)
where even <| {k:nat} int(k) -> bool
and odd(n) = if n = 0 then false else even(n - 1)
where odd <| {k:nat} int(k) -> bool
"#;
    let c = compile(src).unwrap();
    assert!(
        c.fully_verified(),
        "{:?}",
        c.failures().map(|(o, r)| format!("{o} {r:?}")).collect::<Vec<_>>()
    );
    let mut m = c.machine(Mode::Checked);
    assert_eq!(m.call("even", vec![Value::Int(42)]).unwrap().as_bool(), Some(true));
}

#[test]
fn unannotated_mutual_recursion_is_polymorphic() {
    // Standard ML gives both `f` and `g` the type 'a -> 'a, so `f` may be
    // used at `bool` and at `int` in one caller, whose guarded `sub` is
    // still proven.
    let src = r#"
fun f x = g x
and g y = y
fun get(v, i) = if f true then sub(v, i) else f 0
where get <| {n:nat} {i:nat | i < n} int array(n) * int(i) -> int
"#;
    let c = compile(src).unwrap();
    assert!(
        c.fully_verified(),
        "{:?}",
        c.failures().map(|(o, r)| format!("{o} {r:?}")).collect::<Vec<_>>()
    );
    assert_eq!(c.proven_sites().len(), 1);
    let mut m = c.machine(Mode::Eliminated);
    let r = m.call("get", vec![pair(Value::int_array([4, 5, 6]), Value::Int(2))]).unwrap();
    assert_eq!(r.as_int(), Some(6));
    assert_eq!(m.counters.array_checks_eliminated, 1);
}

#[test]
fn list_length_primitive_refines() {
    let src = r#"
fun safe_nth(l, i) =
  if 0 <= i andalso i < llength l then nth(l, i) else 0
where safe_nth <| int list * int -> int
"#;
    let c = compile(src).unwrap();
    assert!(
        c.fully_verified(),
        "{:?}",
        c.failures().map(|(o, r)| format!("{o} {r:?}")).collect::<Vec<_>>()
    );
    let mut m = c.machine(Mode::Eliminated);
    let l = Value::list([Value::Int(5), Value::Int(6)]);
    assert_eq!(m.call("safe_nth", vec![pair(l.clone(), Value::Int(1))]).unwrap().as_int(), Some(6));
    assert_eq!(m.call("safe_nth", vec![pair(l, Value::Int(5))]).unwrap().as_int(), Some(0));
    assert_eq!(m.counters.tag_checks_eliminated, 1);
}

#[test]
fn user_assert_with_check_kind_inheritance() {
    // A user-asserted `subRow` behaves like `sub` for elimination.
    let src = r#"
assert subRow <| {n:nat} {i:nat | i < n} 'a array(n) * int(i) -> 'a
fun f(v) = sub(v, 0)
where f <| {n:nat | n > 0} int array(n) -> int
"#;
    let c = compile(src).unwrap();
    assert!(c.fully_verified());
}

#[test]
fn shadowing_of_primitives_by_locals() {
    // A local value named `length` shadows the primitive.
    let src = r#"
fun f(v) = let
  val length = 99
in
  length
end
"#;
    let c = compile(src).unwrap();
    let mut m = c.machine(Mode::Checked);
    let r = m.call("f", vec![Value::int_array([1])]).unwrap();
    assert_eq!(r.as_int(), Some(99));
}

#[test]
fn deep_tail_recursion_is_stack_safe() {
    let src = r#"
fun count(i, n, acc) = if i = n then acc else count(i + 1, n, acc + 1)
where count <| {k:nat} {i:nat | i <= k} int(i) * int(k) * int -> int
"#;
    let c = compile(src).unwrap();
    assert!(c.fully_verified());
    let mut m = c.machine(Mode::Checked);
    let arg = Value::Tuple(Rc::new(vec![Value::Int(0), Value::Int(2_000_000), Value::Int(0)]));
    let r = m.call("count", vec![arg]).unwrap();
    assert_eq!(r.as_int(), Some(2_000_000));
}

#[test]
fn refined_match_exhaustiveness() {
    // pop2's single arm is proven exhaustive by `n >= 2`.
    let src = r#"
datatype 'a stack = EMPTY | PUSH of 'a * 'a stack
typeref 'a stack of nat with
  EMPTY <| 'a stack(0)
| PUSH <| {n:nat} 'a * 'a stack(n) -> 'a stack(n+1)

fun top(s) = case s of PUSH(x, _) => x
where top <| {n:nat | n >= 1} 'a stack(n) -> 'a
"#;
    let c = compile(src).unwrap();
    assert!(c.fully_verified(), "{}", c.explain_failures(src));
    assert!(
        c.match_warnings().is_empty(),
        "the EMPTY arm is provably impossible: {:?}",
        c.match_warnings()
    );
}

#[test]
fn unrefined_partial_match_warns() {
    let src = r#"
datatype 'a stack = EMPTY | PUSH of 'a * 'a stack

fun top(s) = case s of PUSH(x, _) => x
"#;
    let c = compile(src).unwrap();
    let warnings = c.match_warnings();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert_eq!(warnings[0].1, "EMPTY");
    // Warnings never block verification of the rest of the program.
    assert!(c.fully_verified());
}

#[test]
fn nonempty_list_match_needs_no_nil_arm() {
    let src = r#"
fun head(l) = case l of x :: _ => x
where head <| {n:nat | n > 0} 'a list(n) -> 'a
"#;
    let c = compile(src).unwrap();
    assert!(c.fully_verified(), "{}", c.explain_failures(src));
    assert!(c.match_warnings().is_empty(), "{:?}", c.match_warnings());
}

#[test]
fn catch_all_suppresses_warnings() {
    let src = r#"
datatype t = A | B | C
fun f(x) = case x of A => 1 | _ => 2
"#;
    let c = compile(src).unwrap();
    assert!(c.match_warnings().is_empty());
}

#[test]
fn covered_match_has_no_warnings() {
    let src = r#"
fun len2(l) = case l of nil => 0 | _ :: _ => 1
where len2 <| {n:nat} 'a list(n) -> int
"#;
    let c = compile(src).unwrap();
    assert!(c.match_warnings().is_empty(), "{:?}", c.match_warnings());
}

#[test]
fn boolean_indexed_datatype() {
    // A datatype indexed by a *boolean*: a door that is provably open.
    let src = r#"
datatype door = OPEN | CLOSED
typeref door of bool with
  OPEN <| door(true)
| CLOSED <| door(false)

fun walk_through(d) = case d of OPEN => 1
where walk_through <| door(true) -> int
"#;
    let c = compile(src).unwrap();
    assert!(c.fully_verified(), "{}", c.explain_failures(src));
    assert!(
        c.match_warnings().is_empty(),
        "CLOSED is impossible for door(true): {:?}",
        c.match_warnings()
    );
    let mut m = c.machine(Mode::Checked);
    let r = m.call("walk_through", vec![Value::Con("OPEN".into(), None)]).unwrap();
    assert_eq!(r.as_int(), Some(1));
}

#[test]
fn fun_clause_exhaustiveness() {
    // Figure 2's rev covers both list constructors: no warnings.
    let c = compile(dml_programs::reverse::SOURCE).unwrap();
    assert!(c.match_warnings().is_empty(), "{:?}", c.match_warnings());

    // A clause group missing `nil` on an unrefined list warns...
    let src = "fun hd(x :: _) = x";
    let c = compile(src).unwrap();
    let w = c.match_warnings();
    assert_eq!(w.len(), 1, "{w:?}");
    assert_eq!(w[0].1, "nil");

    // ...but not when the refinement rules the empty list out.
    let src = r#"
fun hd(x :: _) = x
where hd <| {n:nat | n > 0} 'a list(n) -> 'a
"#;
    let c = compile(src).unwrap();
    assert!(c.fully_verified(), "{}", c.explain_failures(src));
    assert!(c.match_warnings().is_empty(), "{:?}", c.match_warnings());
}

#[test]
fn fun_clause_exhaustiveness_through_tuples() {
    // The scrutinee sits inside a tuple parameter, as in rev.
    let src = r#"
fun second((_ :: x :: _, _)) = x
where second <| {n:nat | n >= 2} 'a list(n) * int -> 'a
"#;
    let c = compile(src).unwrap();
    assert!(c.fully_verified(), "{}", c.explain_failures(src));
    assert!(c.match_warnings().is_empty(), "{:?}", c.match_warnings());
}

#[test]
fn multi_scrutinee_clauses_are_skipped_conservatively() {
    // Two constructor positions: the analysis stays silent rather than
    // reasoning about pattern combinations.
    let src = r#"
fun both(l1, l2) = case l1 of
    nil => 0
  | _ :: _ => (case l2 of nil => 1 | _ :: _ => 2)
"#;
    let c = compile(src).unwrap();
    assert!(c.match_warnings().is_empty());
}

#[test]
fn exceptions_raise_and_handle() {
    let src = r#"
exception Empty

fun safe_head(l) = (case l of x :: _ => x) handle Match => ~1

fun head_or_raise(l) = case l of x :: _ => x | nil => raise Empty

fun guarded(l) = head_or_raise(l) handle Empty => 0
"#;
    let c = compile(src).unwrap();
    let mut m = c.machine(Mode::Checked);
    let l = Value::list([Value::Int(7)]);
    assert_eq!(m.call("safe_head", vec![l.clone()]).unwrap().as_int(), Some(7));
    assert_eq!(m.call("safe_head", vec![Value::list([])]).unwrap().as_int(), Some(-1));
    assert_eq!(m.call("guarded", vec![l]).unwrap().as_int(), Some(7));
    assert_eq!(m.call("guarded", vec![Value::list([])]).unwrap().as_int(), Some(0));
    // Unhandled exceptions surface as errors.
    let err = m.call("head_or_raise", vec![Value::list([])]).unwrap_err();
    assert!(matches!(err, dml_eval::EvalError::Raised(ref n, _) if n == "Empty"));
}

#[test]
fn subscript_exception_catchable_on_checked_access() {
    let src = r#"
fun probe(v, i) = sub(v, i) handle Subscript => ~1
"#;
    let c = compile(src).unwrap();
    // The access is unprovable, so it stays checked and raises Subscript
    // out of range — which the handler catches, in both modes.
    for mode in [Mode::Checked, Mode::Eliminated] {
        let mut m = c.machine(mode);
        let v = Value::int_array([10, 20]);
        let arg = |i: i64| Value::Tuple(std::rc::Rc::new(vec![v.clone(), Value::Int(i)]));
        assert_eq!(m.call("probe", vec![arg(1)]).unwrap().as_int(), Some(20));
        assert_eq!(m.call("probe", vec![arg(5)]).unwrap().as_int(), Some(-1));
    }
}

#[test]
fn div_exception_catchable() {
    let src = "fun quot(a, b) = (a div b) handle Div => 0";
    let c = compile(src).unwrap();
    let mut m = c.machine(Mode::Checked);
    let arg = |a: i64, b: i64| Value::Tuple(std::rc::Rc::new(vec![Value::Int(a), Value::Int(b)]));
    assert_eq!(m.call("quot", vec![arg(7, 2)]).unwrap().as_int(), Some(3));
    assert_eq!(m.call("quot", vec![arg(7, 0)]).unwrap().as_int(), Some(0));
}

#[test]
fn unknown_exception_rejected_in_phase1() {
    assert!(matches!(
        dml::Compiler::new().compile("fun f(x) = raise Nope"),
        Err(dml::PipelineError::Infer(_, _))
    ));
    assert!(matches!(
        dml::Compiler::new().compile("fun f(x) = x handle Nope => 0"),
        Err(dml::PipelineError::Infer(_, _))
    ));
}

#[test]
fn raise_checks_against_any_dependent_type() {
    // `raise` inhabits the singleton result type without constraints.
    let src = r#"
exception TooShort
fun first(v) = if length v > 0 then sub(v, 0) else raise TooShort
where first <| {n:nat} int array(n) -> int
"#;
    let c = compile(src).unwrap();
    assert!(c.fully_verified(), "{}", c.explain_failures(src));
    let mut m = c.machine(Mode::Eliminated);
    assert_eq!(m.call("first", vec![Value::int_array([5])]).unwrap().as_int(), Some(5));
    let err = m.call("first", vec![Value::int_array([])]).unwrap_err();
    assert!(matches!(err, dml_eval::EvalError::Raised(ref n, _) if n == "TooShort"));
}
