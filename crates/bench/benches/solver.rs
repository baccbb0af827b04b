//! Solver micro-benchmarks: Fourier–Motzkin refutation on the paper's
//! Figure-4-style constraints and on synthetic systems of varying size.
//!
//! Flags (after `--`): `--smoke` times one round per constraint.

use dml_bench::{sample, timed, Args};
use dml_index::{Constraint, IExp, Prop, Sort, VarGen};
use dml_solver::{Solver, SolverOptions};
use std::hint::black_box;

/// Builds the binary-search midpoint constraint (Figure 4's key goal):
/// ∀h,l,size. (0 ≤ h+1 ≤ size ∧ 0 ≤ l ≤ size ∧ h ≥ l)
/// ⊃ 0 ≤ l + (h−l) div 2 < size.
fn bsearch_constraint(gen: &mut VarGen) -> Constraint {
    let h = gen.fresh("h");
    let l = gen.fresh("l");
    let size = gen.fresh("size");
    let hyp = Prop::le(IExp::lit(0), IExp::var(h.clone()) + IExp::lit(1))
        .and(Prop::le(IExp::var(h.clone()) + IExp::lit(1), IExp::var(size.clone())))
        .and(Prop::le(IExp::lit(0), IExp::var(l.clone())))
        .and(Prop::le(IExp::var(l.clone()), IExp::var(size.clone())))
        .and(Prop::cmp(dml_index::Cmp::Ge, IExp::var(h.clone()), IExp::var(l.clone())));
    let mid =
        IExp::var(l.clone()) + (IExp::var(h.clone()) - IExp::var(l.clone())).div(IExp::lit(2));
    let concl = Prop::le(IExp::lit(0), mid.clone()).and(Prop::lt(mid, IExp::var(size.clone())));
    Constraint::Forall(
        h,
        Sort::Int,
        Box::new(Constraint::Forall(
            l,
            Sort::Int,
            Box::new(Constraint::Forall(
                size,
                Sort::Int,
                Box::new(Constraint::Implies(hyp, Box::new(Constraint::Prop(concl)))),
            )),
        )),
    )
}

/// A chain-transitivity constraint with `n` universally quantified links:
/// ∀x₀..xₙ. (x₀ ≤ x₁ ∧ ... ∧ xₙ₋₁ ≤ xₙ) ⊃ x₀ ≤ xₙ.
fn chain_constraint(gen: &mut VarGen, n: usize) -> Constraint {
    let vars: Vec<_> = (0..=n).map(|i| gen.fresh(&format!("x{i}"))).collect();
    let mut hyp = Prop::True;
    for w in vars.windows(2) {
        hyp = hyp.and(Prop::le(IExp::var(w[0].clone()), IExp::var(w[1].clone())));
    }
    let concl = Prop::le(IExp::var(vars[0].clone()), IExp::var(vars[n].clone()));
    let mut c = Constraint::Implies(hyp, Box::new(Constraint::Prop(concl)));
    for v in vars.into_iter().rev() {
        c = Constraint::Forall(v, Sort::Int, Box::new(c));
    }
    c
}

fn main() {
    let args = Args::from_env();
    let mut gen = VarGen::new();
    let midpoint = bsearch_constraint(&mut gen);
    run("bsearch_midpoint", args.rounds(5, 50), &midpoint, gen);
    for n in [4usize, 8, 16, 32] {
        let mut gen = VarGen::new();
        let chain = chain_constraint(&mut gen, n);
        run(&format!("transitivity_chain/{n}"), args.rounds(3, 20), &chain, gen);
    }
}

/// Times proving `constraint`, `(warmup, n)` rounds. Each round builds its
/// own solver, so it decides the goals cold instead of timing a hit in
/// the verdict cache an earlier round filled.
fn run(name: &str, (warmup, n): (usize, usize), constraint: &Constraint, mut gen: VarGen) {
    let spread = sample(warmup, n, || {
        let solver = Solver::new(SolverOptions::default());
        [timed(|| {
            let outcome = solver.prove(black_box(constraint), &mut gen);
            assert!(outcome.all_proven());
            let stats = &outcome.stats;
            assert!(stats.cache_hits == 0 && stats.fm_combinations > 0, "warm round: {stats}");
            stats.fm_combinations
        })]
    })[0];
    println!("solver/{name}: {spread}");
}
