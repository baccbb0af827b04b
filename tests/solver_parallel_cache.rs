//! Property test: the solve phase is configuration-independent. For
//! randomized goal sets, every combination of {workers = 1, 4, auto} ×
//! {cache on, off} must produce identical `Verdict`s in identical order,
//! with identical proven/not-proven counts. `workers = 4` runs three
//! scoped helper threads beside the caller on any host.
//!
//! The generator stays inside the solver's total fragment (linear atoms
//! plus `div`/`mod` by positive literals and `min`/`max`/`abs`), so no
//! verdict carries a pretty-printed payload — results compare structurally.
//!
//! Inputs come from the deterministic in-repo generator (`dml_repro::qc`),
//! so every run explores the same goal sets.

use dml_index::{Cmp, Constraint, IExp, Prop, Sort, Var, VarGen};
use dml_repro::qc::Rng;
use dml_solver::{prove_all, Outcome, Solver, SolverOptions, Verdict};

fn random_iexp(rng: &mut Rng, vars: &[Var], depth: usize) -> IExp {
    if depth == 0 || rng.usize_in(0, 2) == 0 {
        return if rng.usize_in(0, 1) == 0 {
            IExp::var(rng.pick(vars).clone())
        } else {
            IExp::lit(rng.i64_in(-8, 8))
        };
    }
    let a = random_iexp(rng, vars, depth - 1);
    let b = random_iexp(rng, vars, depth - 1);
    match rng.usize_in(0, 6) {
        0 => a + b,
        1 => a - b,
        2 => IExp::lit(rng.i64_in(-3, 3)) * a,
        3 => a.div(IExp::lit(rng.i64_in(2, 4))),
        4 => a.modulo(IExp::lit(rng.i64_in(2, 4))),
        5 => a.min(b),
        _ => a.max(b),
    }
}

fn random_prop(rng: &mut Rng, vars: &[Var]) -> Prop {
    let a = random_iexp(rng, vars, 2);
    let b = random_iexp(rng, vars, 2);
    let op = *rng.pick(&[Cmp::Le, Cmp::Lt, Cmp::Ge, Cmp::Gt, Cmp::Eq, Cmp::Ne]);
    Prop::cmp(op, a, b)
}

/// A random `∀x0..xk. hyps ⊃ concl` constraint. Variables are freshly
/// numbered per constraint but consistently named, so alpha-variants of
/// earlier constraints occur naturally and exercise the cache.
fn random_constraint(rng: &mut Rng, gen: &mut VarGen) -> Constraint {
    let nvars = rng.usize_in(1, 3);
    let vars: Vec<Var> = (0..nvars).map(|i| gen.fresh(&format!("x{i}"))).collect();
    let concl = random_prop(rng, &vars);
    let mut body = Constraint::Prop(concl);
    for _ in 0..rng.usize_in(0, 3) {
        body = Constraint::Implies(random_prop(rng, &vars), Box::new(body));
    }
    for v in vars.iter().rev() {
        body = Constraint::Forall(v.clone(), Sort::Int, Box::new(body));
    }
    body
}

type Observation = (Vec<Vec<Verdict>>, Vec<(usize, usize)>);

fn verdict_matrix(outcomes: &[Outcome]) -> Vec<Vec<Verdict>> {
    outcomes.iter().map(|o| o.results.iter().map(|(_, r)| r.clone()).collect()).collect()
}

fn counts(outcomes: &[Outcome]) -> Vec<(usize, usize)> {
    outcomes.iter().map(|o| (o.stats.proven, o.stats.not_proven)).collect()
}

#[test]
fn solve_phase_is_configuration_independent() {
    let mut rng = Rng::new(0xCAC4E);
    for round in 0..8 {
        let mut gen = VarGen::new();
        let mut constraints: Vec<Constraint> =
            (0..40).map(|_| random_constraint(&mut rng, &mut gen)).collect();
        // Inject exact duplicates so repeated obligations (guaranteed
        // cache hits) are part of every round.
        for _ in 0..8 {
            let i = rng.usize_in(0, constraints.len() - 1);
            constraints.push(constraints[i].clone());
        }
        let refs: Vec<&Constraint> = constraints.iter().collect();

        // `None` is `workers=auto`; on a single-core runner it resolves to
        // the sequential path, elsewhere to one thread per core — either
        // way it must agree with every pinned worker count.
        let configs: [(Option<usize>, bool); 6] = [
            (Some(1), true),
            (Some(1), false),
            (Some(4), true),
            (Some(4), false),
            (None, true),
            (None, false),
        ];
        let mut baseline: Option<Observation> = None;
        for (workers, cache) in configs {
            let opts = SolverOptions::default().with_workers(workers).with_cache(cache);
            let mut gen = gen.clone();
            let solver = Solver::new(opts);
            let outcomes = prove_all(&solver, &refs, &mut gen);
            assert_eq!(outcomes.len(), refs.len());
            let current = (verdict_matrix(&outcomes), counts(&outcomes));
            match &baseline {
                None => {
                    // The baseline config must exercise both verdicts and
                    // the cache (duplicates guarantee hits when enabled).
                    assert!(solver.cache().hits() > 0, "round {round}: no cache reuse");
                    baseline = Some(current);
                }
                Some(base) => {
                    assert_eq!(base.0, current.0, "round {round}: verdicts differ under {opts:?}");
                    assert_eq!(base.1, current.1, "round {round}: counts differ under {opts:?}");
                }
            }
        }
        let (matrix, _) = baseline.unwrap();
        let flat: Vec<&Verdict> = matrix.iter().flatten().collect();
        assert!(flat.iter().any(|r| r.is_proven()), "round {round}: no proven goal generated");
        assert!(flat.iter().any(|r| !r.is_proven()), "round {round}: no unproven goal generated");
    }
}
