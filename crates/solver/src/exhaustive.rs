//! Bounded integer search for a point satisfying a [`System`].
//!
//! This is part of the decision procedure: when Fourier–Motzkin leaves a
//! disjunct of a goal's negation possibly satisfiable and that disjunct is
//! exactly the negation (nothing weakened, lowered or strengthened),
//! `Solver::decide` searches the box `[-8, 8]^n` for a point of it. A point
//! found certifies the goal `Refuted` and is the witness its trace reports.
//! Property tests also use the search as ground truth for Fourier–Motzkin.

use crate::system::System;
use dml_index::Var;
use std::collections::BTreeMap;

/// Searches for an integer solution of `sys` with every variable in
/// `[-bound, bound]`, returning the first one in lexicographic order:
/// variables in id order, the first varying slowest, each from `-bound`
/// up to `bound`.
///
/// Each inequality is evaluated as `Linear::eval` does — constant first,
/// then terms in id order, with checked arithmetic, an overflow rejecting
/// the point — but incrementally, and it is checked as soon as its last
/// variable is assigned, so a prefix that already violates one is never
/// extended. That prunes only points that could not be solutions, so the
/// result is the same as checking every point of the box in order.
///
/// The search is still exponential in the number of variables; keep
/// `bound` and the variable count small (the decision procedure uses at
/// most 4 variables and bound 8).
pub fn find_solution(sys: &System, bound: i64) -> Option<BTreeMap<Var, i64>> {
    let vars: Vec<Var> = sys.vars().into_iter().collect();
    let n = vars.len();
    let rows = sys.len();
    let mut search = Search {
        bound,
        touch: vec![Vec::new(); n],
        due: vec![Vec::new(); n],
        sums: vec![vec![0; rows]; n + 1],
        point: vec![0; n],
    };
    for (r, ineq) in sys.ineqs().iter().enumerate() {
        let lin = ineq.linear();
        search.sums[0][r] = lin.constant_term();
        // Both the terms and `vars` are in id order, so one forward scan
        // finds each term's variable index.
        let mut k = 0;
        let mut last = None;
        for (v, c) in lin.terms() {
            while vars[k] != *v {
                k += 1;
            }
            search.touch[k].push((r, c));
            last = Some(k);
        }
        match last {
            Some(k) => search.due[k].push(r),
            None if lin.constant_term() > 0 => return None,
            None => {}
        }
    }
    if !search.assign(0) {
        return None;
    }
    Some(vars.into_iter().zip(search.point).collect())
}

/// Depth-first search state over dense rows.
struct Search {
    bound: i64,
    /// `touch[k]`: `(row, coefficient)` for every row with a non-zero
    /// coefficient on variable `k`.
    touch: Vec<Vec<(usize, i64)>>,
    /// `due[k]`: the rows whose last variable is `k`, decided once it is
    /// assigned.
    due: Vec<Vec<usize>>,
    /// `sums[k]`: every row's partial value with variables `0..k` assigned.
    sums: Vec<Vec<i64>>,
    /// The values assigned so far, in variable order.
    point: Vec<i64>,
}

impl Search {
    /// Tries every value of variable `k` in order; `true` once a full point
    /// satisfies every row.
    fn assign(&mut self, k: usize) -> bool {
        if k == self.point.len() {
            return true;
        }
        let (done, rest) = self.sums.split_at_mut(k + 1);
        rest[0].copy_from_slice(&done[k]);
        'values: for val in -self.bound..=self.bound {
            let (done, rest) = self.sums.split_at_mut(k + 1);
            let (cur, next) = (&done[k], &mut rest[0]);
            for &(r, c) in &self.touch[k] {
                match c.checked_mul(val).and_then(|t| cur[r].checked_add(t)) {
                    Some(sum) => next[r] = sum,
                    // `Linear::eval` fails on this row at every extension.
                    None => continue 'values,
                }
            }
            if self.due[k].iter().any(|&r| next[r] > 0) {
                continue;
            }
            self.point[k] = val;
            if self.assign(k + 1) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Ineq;
    use dml_index::{Linear, VarGen};

    #[test]
    fn finds_witness() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let mut s = System::new();
        // 3 ≤ x ≤ 4
        s.push(Ineq::le(Linear::constant(3), Linear::var(x.clone())));
        s.push(Ineq::le(Linear::var(x.clone()), Linear::constant(4)));
        let w = find_solution(&s, 6).expect("solution exists");
        assert_eq!(w[&x], 3, "first solution in order");
    }

    #[test]
    fn reports_unsat_in_box() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let mut s = System::new();
        s.push(Ineq::le(Linear::constant(1), Linear::var(x.clone())));
        s.push(Ineq::le(Linear::var(x), Linear::constant(0)));
        assert!(find_solution(&s, 6).is_none());
    }

    #[test]
    fn empty_system_has_trivial_solution() {
        let s = System::new();
        assert_eq!(find_solution(&s, 2), Some(BTreeMap::new()));
    }

    #[test]
    fn violated_constant_row_has_no_solution() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let mut s = System::new();
        s.push(Ineq::le(Linear::var(x), Linear::constant(0)));
        s.push(Ineq::le_zero(Linear::constant(1)));
        assert!(find_solution(&s, 4).is_none());
    }

    /// A point at which a row overflows `i64` is rejected, as
    /// `Linear::eval` rejects it.
    #[test]
    fn overflowing_row_rejects_the_point() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let y = g.fresh("y");
        // i64::MAX·x − i64::MAX·y ≤ 0 overflows whenever |x| ≥ 2 or
        // |y| ≥ 2, so the first point where it holds is x = y = −1.
        let mut lin = Linear::zero();
        lin.add_term(x.clone(), i64::MAX);
        lin.add_term(y.clone(), -i64::MAX);
        let mut s = System::new();
        s.push(Ineq::le_zero(lin));
        let w = find_solution(&s, 8).unwrap();
        assert_eq!((w[&x], w[&y]), (-1, -1));
        let at = |a: i64, b: i64| {
            let env = |v: &Var| Some(if *v == x { a } else { b });
            s.satisfied_by(&env)
        };
        assert_eq!(at(-8, -8), None);
        assert_eq!(at(-1, -1), Some(true));
    }
}
