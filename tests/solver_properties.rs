//! Property tests for the constraint solver: Fourier–Motzkin refutation
//! (with tightening) must agree with brute-force integer search on small
//! random systems, and tightening must preserve integer solutions exactly.
//!
//! Inputs come from the deterministic in-repo generator (`dml_repro::qc`),
//! so every run explores the same systems.

use dml_index::{IExp, Linear, Prop, Sort, Var, VarGen};
use dml_repro::qc::Rng;
use dml_solver::exhaustive;
use dml_solver::system::{Ineq, RefuteResult, System};

/// A small random system over `nvars` variables with coefficients and
/// constants in [-4, 4].
fn random_system(rng: &mut Rng, nvars: usize, max_ineqs: usize) -> System {
    let mut gen = VarGen::new();
    let vars: Vec<Var> = (0..nvars).map(|i| gen.fresh(&format!("x{i}"))).collect();
    let mut sys = System::new();
    for _ in 0..rng.usize_in(1, max_ineqs) {
        let mut lin = Linear::constant(rng.i64_in(-4, 4));
        for v in &vars {
            lin.add_term(v.clone(), rng.i64_in(-4, 4));
        }
        sys.push(Ineq::le_zero(lin));
    }
    sys
}

/// Soundness: if FM (with tightening) refutes a system, brute force must
/// find no solution in a box large enough to contain one if any exists for
/// these coefficient ranges.
#[test]
fn refutation_implies_no_small_solution() {
    let mut rng = Rng::new(0xF00D);
    for _ in 0..256 {
        let sys = random_system(&mut rng, 3, 5);
        let (result, _) = sys.refute(true);
        if result == RefuteResult::Refuted {
            assert!(
                exhaustive::find_solution(&sys, 8).is_none(),
                "FM refuted a satisfiable system: {sys}"
            );
        }
    }
}

/// If brute force finds a solution, FM must never refute.
#[test]
fn satisfiable_systems_never_refuted() {
    let mut rng = Rng::new(0xBEEF);
    for _ in 0..256 {
        let sys = random_system(&mut rng, 3, 5);
        if let Some(solution) = exhaustive::find_solution(&sys, 4) {
            let (result, _) = sys.refute(true);
            assert_ne!(result, RefuteResult::Refuted, "system {sys} has solution {solution:?}");
        }
    }
}

/// The witness search agrees with the independent oracle's model
/// enumerator on the first model, not just on its existence: both scan
/// `[-8, 8]` per variable lexicographically, first variable slowest, so
/// this pins the witness a `Refuted` verdict reports.
#[test]
fn witness_search_matches_oracle_first_model() {
    let mut rng = Rng::new(0x5EED);
    let mut found = 0;
    for round in 0..300 {
        let sys = random_system(&mut rng, 1 + round % 4, 5);
        let vars: Vec<(Var, Sort)> = sys.vars().into_iter().map(|v| (v, Sort::Int)).collect();
        let props: Vec<Prop> =
            sys.ineqs().iter().map(|i| Prop::le(i.linear().to_iexp(), IExp::lit(0))).collect();
        let oracle = dml_oracle::enumerate::find_model(&vars, &props, 8);
        let ours = exhaustive::find_solution(&sys, 8);
        assert_eq!(ours, oracle, "system: {sys}");
        found += usize::from(ours.is_some());
    }
    assert!((50..250).contains(&found), "both outcomes exercised: {found} of 300 had a model");
}

/// Tightening preserves integer solutions pointwise.
#[test]
fn tightening_preserves_integer_points() {
    let mut rng = Rng::new(0xCAFE);
    for _ in 0..256 {
        let mut gen = VarGen::new();
        let vars: Vec<Var> = (0..3).map(|i| gen.fresh(&format!("v{i}"))).collect();
        let mut lin = Linear::constant(rng.i64_in(-12, 12));
        for v in &vars {
            lin.add_term(v.clone(), rng.i64_in(-6, 6));
        }
        let ineq = Ineq::le_zero(lin);
        let tightened = ineq.tighten();
        let point: Vec<i64> = (0..3).map(|_| rng.i64_in(-6, 6)).collect();
        let assignment: std::collections::HashMap<Var, i64> =
            vars.iter().cloned().zip(point.iter().copied()).collect();
        let env = |v: &Var| assignment.get(v).copied();
        assert_eq!(
            ineq.holds(&env),
            tightened.holds(&env),
            "tightening changed membership of an integer point: {ineq} vs {tightened}"
        );
    }
}

/// Tightening never *weakens*: anything plain FM refutes (rational
/// infeasibility), tightened FM must refute too (it only cuts away
/// non-integer space).
#[test]
fn tightening_is_monotone() {
    let mut rng = Rng::new(0xACE5);
    for _ in 0..256 {
        let sys = random_system(&mut rng, 2, 4);
        let with = sys.refute(true).0;
        let without = sys.refute(false).0;
        if without == RefuteResult::Refuted {
            assert_eq!(with, RefuteResult::Refuted, "system: {sys}");
        }
    }
}

#[test]
fn strict_vs_nonstrict_encoding() {
    // x < 1 ∧ x > -1 has exactly one integer solution (0); adding x ≠ 0
    // (two systems after Ne expansion) refutes both.
    let mut gen = VarGen::new();
    let x = gen.fresh("x");
    let mut base = System::new();
    base.push(Ineq::lt(Linear::var(x.clone()), Linear::constant(1)));
    base.push(Ineq::lt(Linear::constant(-1), Linear::var(x.clone())));
    assert_eq!(base.refute(true).0, RefuteResult::PossiblySat);

    let mut lt = base.clone();
    lt.push(Ineq::lt(Linear::var(x.clone()), Linear::constant(0)));
    assert_eq!(lt.refute(true).0, RefuteResult::Refuted);

    let mut gt = base.clone();
    gt.push(Ineq::lt(Linear::constant(0), Linear::var(x)));
    assert_eq!(gt.refute(true).0, RefuteResult::Refuted);
}

/// Full-pipeline property: a guarded random access always verifies, and the
/// proof is honest — running with validation never traps. Exhaustive over
/// the divisor (the only parameter the source depends on); the array length
/// only affects the run.
#[test]
fn guarded_random_access_verifies_and_runs() {
    for divisor in 1i64..6 {
        let src = format!(
            "fun pick(v, i) = let val j = i mod {divisor} in \
               if 0 <= j andalso j < length v then sub(v, j) else 0 end\n\
             where pick <| int array * int -> int"
        );
        let compiled = dml::Compiler::new().compile(&src).unwrap();
        assert!(
            compiled.fully_verified(),
            "{:?}",
            compiled.failures().map(|(o, r)| format!("{o} {r:?}")).collect::<Vec<_>>()
        );
        for len in [1usize, 2, 5, 19] {
            let mut m = compiled
                .machine_with(dml::CheckConfig::eliminated(Default::default()).with_validation());
            let v = dml::Value::int_array((0..len as i64).map(|x| x * 3));
            for i in -3i64..6 {
                let arg = dml::Value::Tuple(std::rc::Rc::new(vec![v.clone(), dml::Value::Int(i)]));
                let r = m.call("pick", vec![arg]).unwrap();
                assert!(r.as_int().is_some());
            }
        }
    }
}
