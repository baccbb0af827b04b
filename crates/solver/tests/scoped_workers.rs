//! Exercises `prove_all` and `fan_out` on real helper threads. An explicit
//! worker count spawns that many threads less the caller's own on any
//! host, so `workers(Some(4))` runs three scoped helpers even on a
//! single-core machine.

use dml_index::{Constraint, IExp, Prop, Sort, VarGen};
use dml_solver::{fan_out, prove_all, Solver, SolverOptions};
use std::sync::Barrier;

/// `∀n. 0 ≤ n ⊃ 0 ≤ n + k` — valid for k ≥ 0, falsifiable for k < 0.
fn shifted(gen: &mut VarGen, k: i64) -> Constraint {
    let n = gen.fresh("n");
    Constraint::Forall(
        n.clone(),
        Sort::Int,
        Box::new(Constraint::Implies(
            Prop::le(IExp::lit(0), IExp::var(n.clone())),
            Box::new(Constraint::Prop(Prop::le(IExp::lit(0), IExp::var(n) + IExp::lit(k)))),
        )),
    )
}

fn verdicts(solver: &Solver, cs: &[Constraint], gen: &VarGen) -> Vec<Vec<bool>> {
    let refs: Vec<&Constraint> = cs.iter().collect();
    let mut gen = gen.clone();
    prove_all(solver, &refs, &mut gen)
        .iter()
        .map(|o| o.results.iter().map(|(_, r)| r.is_proven()).collect())
        .collect()
}

#[test]
fn cold_and_repeated_solves_match_sequential() {
    let mut gen = VarGen::new();
    let cs: Vec<Constraint> = (-8..56).map(|k| shifted(&mut gen, k)).collect();

    let sequential =
        verdicts(&Solver::new(SolverOptions::default().with_workers(Some(1))), &cs, &gen);
    // The first solve fills the verdict cache; the second answers from it.
    let parallel = Solver::new(SolverOptions::default().with_workers(Some(4)));
    let cold = verdicts(&parallel, &cs, &gen);
    let repeated = verdicts(&parallel, &cs, &gen);

    assert_eq!(sequential, cold, "cold verdicts match sequential, in order");
    assert_eq!(sequential, repeated, "repeated verdicts match sequential, in order");
    for (i, row) in cold.iter().enumerate() {
        assert_eq!(row, &vec![i >= 8], "obligation {i}");
    }
}

#[test]
fn many_tiny_batches() {
    // Batches smaller than the requested worker count, repeatedly: the
    // fan-out clamps to one thread per chunk.
    for round in 0..50 {
        let mut gen = VarGen::new();
        let cs: Vec<Constraint> = (0..3).map(|k| shifted(&mut gen, k - 1)).collect();
        let solver = Solver::new(SolverOptions::default().with_workers(Some(4)));
        let got = verdicts(&solver, &cs, &gen);
        assert_eq!(got.len(), 3, "round {round}");
        for (i, row) in got.iter().enumerate() {
            assert_eq!(row, &vec![i >= 1], "round {round} obligation {i}");
        }
    }
}

#[test]
fn concurrent_callers() {
    // Several threads each solve a parallel batch at once, as a compile
    // service would: each call owns its scoped helpers.
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                let mut gen = VarGen::new();
                let cs: Vec<Constraint> = (0..24).map(|k| shifted(&mut gen, k - 4)).collect();
                let solver = Solver::new(SolverOptions::default().with_workers(Some(4)));
                let got = verdicts(&solver, &cs, &gen);
                for (i, row) in got.iter().enumerate() {
                    assert_eq!(row, &vec![i >= 4], "caller {t} obligation {i}");
                }
            });
        }
    });
}

#[test]
#[should_panic(expected = "job on a helper")]
fn a_helper_panic_reaches_the_caller() {
    // Both jobs wait for each other, so each runs on its own thread: the
    // caller's and the one helper's.
    let caller = std::thread::current().id();
    let both = Barrier::new(2);
    fan_out(2, 2, |_| {
        both.wait();
        assert_eq!(std::thread::current().id(), caller, "job on a helper");
    });
}
