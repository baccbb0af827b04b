//! Disjunctive normal form expansion of (lowered, NNF) propositions into
//! inequality systems.
//!
//! [`Dnf::expand`] distributes the proposition into clauses of literal
//! indices, and linearises each literal once, however many clauses share
//! it. [`Dnf::system`] builds one disjunct's [`System`] on demand, so a
//! caller that stops at the first disjunct it cannot refute never builds
//! the rest.
//!
//! Boolean index variables are modelled as 0/1 integer variables: the atom
//! `b` becomes `β = 1`, `¬b` becomes `β = 0`, and `0 ≤ β ≤ 1` is added for
//! every boolean variable mentioned.

use crate::system::{Ineq, System};
use dml_index::{Cmp, IExp, Linear, NonLinear, Prop, Var};
use std::collections::BTreeSet;

/// Error for propositions whose DNF is too large to expand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnfOverflow {
    /// The limit that was exceeded.
    pub limit: usize,
}

impl std::fmt::Display for DnfOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DNF expansion exceeded {} disjuncts", self.limit)
    }
}

impl std::error::Error for DnfOverflow {}

/// A leaf of the proposition, met during expansion: an atom borrowed from
/// the input, a boolean variable (possibly negated), or `false`.
#[derive(Debug, Clone, Copy)]
enum Leaf<'p> {
    Cmp(Cmp, &'p IExp, &'p IExp),
    Bool(&'p Var, bool),
    False,
}

/// A linearised literal: its inequalities, plus the boolean variable of a
/// `b`/`¬b` literal (whose system also gets `0 ≤ β ≤ 1`).
#[derive(Debug, Clone)]
struct Literal {
    rows: Vec<Ineq>,
    bool_var: Option<Var>,
}

/// A proposition in disjunctive normal form over literals linearised once.
///
/// Disjuncts containing a `false` literal are dropped, so every disjunct
/// left is one system of integer inequalities, built by [`Dnf::system`].
#[derive(Debug)]
pub struct Dnf {
    /// Indexed by leaf; `None` for a leaf no kept disjunct reaches.
    literals: Vec<Option<Literal>>,
    /// Each disjunct as the leaf indices of its literals, in order.
    clauses: Vec<Vec<usize>>,
}

impl Dnf {
    /// Expands a proposition with linear atoms into DNF.
    ///
    /// The input should be in NNF without `<>` atoms ([`expand_ne`]); a
    /// negation above an atom or a connective is pushed inward on the way.
    /// Literals are linearised in the order the disjuncts meet them
    /// (disjunct order, then literal order, a disjunct ending at its first
    /// `false` literal), so the first error is the first the disjuncts
    /// meet.
    ///
    /// # Errors
    ///
    /// Returns [`DnfError::Overflow`] when an `∨` or `∧` node would have
    /// more than `max_disjuncts` disjuncts (checked before any literal is
    /// linearised), or [`DnfError::NonLinear`] if an atom cannot be
    /// linearised (callers should have lowered non-linear operators
    /// already).
    pub fn expand(p: &Prop, max_disjuncts: usize) -> Result<Dnf, DnfError> {
        let mut leaves = Vec::new();
        let clauses = go(p, false, max_disjuncts, &mut leaves)?;
        let mut literals: Vec<Option<Literal>> = vec![None; leaves.len()];
        let mut kept = Vec::with_capacity(clauses.len());
        'clause: for clause in clauses {
            for &i in &clause {
                if literals[i].is_some() {
                    continue;
                }
                literals[i] = Some(match leaves[i] {
                    Leaf::False => continue 'clause, // disjunct trivially unsat; skip
                    Leaf::Cmp(op, a, b) => {
                        let la = Linear::from_iexp(a).map_err(DnfError::NonLinear)?;
                        let lb = Linear::from_iexp(b).map_err(DnfError::NonLinear)?;
                        Literal { rows: cmp_rows(op, la, lb), bool_var: None }
                    }
                    Leaf::Bool(v, val) => Literal {
                        rows: eq_rows(Linear::var(v.clone()), Linear::constant(i64::from(val))),
                        bool_var: Some(v.clone()),
                    },
                });
            }
            kept.push(clause);
        }
        Ok(Dnf { literals, clauses: kept })
    }

    /// Number of disjuncts (systems).
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// `true` if there are no disjuncts: the proposition is unsatisfiable.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Builds the system of disjunct `k`: each literal's inequalities in
    /// order, then `0 ≤ β ≤ 1` for its boolean variables in id order.
    ///
    /// # Panics
    ///
    /// If `k >= self.len()`.
    pub fn system(&self, k: usize) -> System {
        let mut sys = System::new();
        let mut bools: BTreeSet<&Var> = BTreeSet::new();
        for lit in self.clause_literals(k) {
            sys.extend(lit.rows.iter().cloned());
            bools.extend(&lit.bool_var);
        }
        for b in bools {
            let lv = Linear::var(b.clone());
            sys.push(Ineq::le(Linear::constant(0), lv.clone()));
            sys.push(Ineq::le(lv, Linear::constant(1)));
        }
        sys
    }

    /// Every variable the systems mention, without building them.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        for k in 0..self.len() {
            for lit in self.clause_literals(k) {
                for row in &lit.rows {
                    out.extend(row.linear().vars().cloned());
                }
            }
        }
        out
    }

    fn clause_literals(&self, k: usize) -> impl Iterator<Item = &Literal> {
        self.clauses[k]
            .iter()
            .map(|&i| self.literals[i].as_ref().expect("kept literals are linear"))
    }
}

/// Errors from DNF conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnfError {
    /// Too many disjuncts.
    Overflow(DnfOverflow),
    /// A non-linear atom survived lowering.
    NonLinear(NonLinear),
}

impl std::fmt::Display for DnfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnfError::Overflow(o) => write!(f, "{o}"),
            DnfError::NonLinear(n) => write!(f, "{n}"),
        }
    }
}

impl std::error::Error for DnfError {}

/// The rows of `la op lb` (each row `lin ≤ 0`; `a < b` is `a − b + 1 ≤ 0`).
fn cmp_rows(op: Cmp, la: Linear, lb: Linear) -> Vec<Ineq> {
    match op {
        Cmp::Le => vec![Ineq::le(la, lb)],
        Cmp::Lt => vec![Ineq::lt(la, lb)],
        Cmp::Ge => vec![Ineq::le(lb, la)],
        Cmp::Gt => vec![Ineq::lt(lb, la)],
        Cmp::Eq => eq_rows(la, lb),
        Cmp::Ne => unreachable!("Ne atoms are rewritten before DNF"),
    }
}

/// `a = b` as the two rows `a ≤ b` and `b ≤ a`.
fn eq_rows(a: Linear, b: Linear) -> Vec<Ineq> {
    vec![Ineq::le(a.clone(), b.clone()), Ineq::le(b, a)]
}

/// Rewrites `<>` atoms as disjunctions (`a <> b` → `a < b ∨ a > b`). Input
/// must be in NNF; output is NNF without `Ne` atoms.
pub fn expand_ne(p: Prop) -> Prop {
    match p {
        Prop::Cmp(Cmp::Ne, a, b) => Prop::lt(a.clone(), b.clone()).or(Prop::cmp(Cmp::Gt, a, b)),
        Prop::True | Prop::False | Prop::BVar(_) | Prop::Cmp(_, _, _) => p,
        Prop::Not(q) => Prop::Not(Box::new(expand_ne(*q))),
        Prop::And(a, b) => Prop::And(Box::new(expand_ne(*a)), Box::new(expand_ne(*b))),
        Prop::Or(a, b) => Prop::Or(Box::new(expand_ne(*a)), Box::new(expand_ne(*b))),
    }
}

/// Expands `p` (negated when `neg`) into clauses of leaf indices, checking
/// the disjunct limit at every `∨` and `∧` node.
fn go<'p>(
    p: &'p Prop,
    neg: bool,
    max: usize,
    leaves: &mut Vec<Leaf<'p>>,
) -> Result<Vec<Vec<usize>>, DnfError> {
    let mut leaf = |l: Leaf<'p>| {
        leaves.push(l);
        Ok(vec![vec![leaves.len() - 1]])
    };
    match p {
        Prop::True | Prop::False if matches!(p, Prop::True) != neg => Ok(vec![Vec::new()]),
        Prop::True | Prop::False => leaf(Leaf::False),
        Prop::BVar(v) => leaf(Leaf::Bool(v, !neg)),
        Prop::Cmp(op, a, b) => leaf(Leaf::Cmp(if neg { op.negate() } else { *op }, a, b)),
        Prop::Not(q) => go(q, !neg, max, leaves),
        Prop::And(a, b) | Prop::Or(a, b) => {
            let mut l = go(a, neg, max, leaves)?;
            let r = go(b, neg, max, leaves)?;
            if matches!(p, Prop::Or(..)) != neg {
                l.extend(r);
                if l.len() > max {
                    return Err(DnfError::Overflow(DnfOverflow { limit: max }));
                }
                return Ok(l);
            }
            if l.len().saturating_mul(r.len()) > max {
                return Err(DnfError::Overflow(DnfOverflow { limit: max }));
            }
            let mut out = Vec::with_capacity(l.len() * r.len());
            for x in &l {
                for y in &r {
                    let mut clause = Vec::with_capacity(x.len() + y.len());
                    clause.extend_from_slice(x);
                    clause.extend_from_slice(y);
                    out.push(clause);
                }
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::RefuteResult;
    use dml_index::VarGen;

    /// Every disjunct's system, in order.
    fn systems(p: &Prop, max: usize) -> Result<Vec<System>, DnfError> {
        let dnf = Dnf::expand(p, max)?;
        Ok((0..dnf.len()).map(|k| dnf.system(k)).collect())
    }

    #[test]
    fn single_atom_single_system() {
        let p = Prop::le(IExp::lit(0), IExp::lit(1));
        let systems = systems(&p, 16).unwrap();
        assert_eq!(systems.len(), 1);
        assert_eq!(systems[0].len(), 1);
    }

    #[test]
    fn disjunction_splits() {
        let p = Prop::le(IExp::lit(0), IExp::lit(1)).or(Prop::le(IExp::lit(1), IExp::lit(2)));
        let systems = systems(&p, 16).unwrap();
        assert_eq!(systems.len(), 2);
    }

    #[test]
    fn conjunction_distributes_over_disjunction() {
        let a = Prop::le(IExp::lit(0), IExp::lit(1)).or(Prop::le(IExp::lit(1), IExp::lit(2)));
        let b = Prop::le(IExp::lit(2), IExp::lit(3)).or(Prop::le(IExp::lit(3), IExp::lit(4)));
        let systems = systems(&a.and(b), 16).unwrap();
        assert_eq!(systems.len(), 4);
    }

    #[test]
    fn overflow_reported() {
        let atom = || Prop::le(IExp::lit(0), IExp::lit(1));
        let mut p = atom().or(atom());
        for _ in 0..6 {
            p = p.clone().and(atom().or(atom()));
        }
        assert!(matches!(systems(&p, 16), Err(DnfError::Overflow(_))));
    }

    #[test]
    fn ne_expansion() {
        let mut g = VarGen::new();
        let a = IExp::var(g.fresh("a"));
        let p = Prop::cmp(Cmp::Ne, a.clone(), IExp::lit(0));
        let q = expand_ne(p);
        assert!(matches!(q, Prop::Or(_, _)));
        let systems = systems(&q, 16).unwrap();
        assert_eq!(systems.len(), 2);
    }

    #[test]
    fn bool_vars_become_01_ints() {
        let mut g = VarGen::new();
        let b = g.fresh("b");
        // b ∧ ¬b is unsatisfiable.
        let p = Prop::BVar(b.clone()).and(Prop::Not(Box::new(Prop::BVar(b))));
        let systems = systems(&p, 16).unwrap();
        assert_eq!(systems.len(), 1);
        let (r, _) = systems[0].refute(true);
        assert_eq!(r, RefuteResult::Refuted);
    }

    #[test]
    fn false_literal_drops_disjunct() {
        let p = Prop::False.or(Prop::le(IExp::lit(0), IExp::lit(1)));
        let systems = systems(&p, 16).unwrap();
        // The `false` disjunct is dropped entirely.
        assert_eq!(systems.len(), 1);
    }

    #[test]
    fn equality_becomes_two_ineqs() {
        let mut g = VarGen::new();
        let x = IExp::var(g.fresh("x"));
        let p = Prop::eq(x, IExp::lit(3));
        let systems = systems(&p, 16).unwrap();
        assert_eq!(systems[0].len(), 2);
    }

    /// A literal shared by several disjuncts is linearised once and lands
    /// in each of their systems; `vars` sees exactly what the systems
    /// mention.
    #[test]
    fn shared_literal_reaches_every_disjunct() {
        let mut g = VarGen::new();
        let x = IExp::var(g.fresh("x"));
        let y = IExp::var(g.fresh("y"));
        let shared = Prop::le(x.clone(), y.clone());
        // (x = 0 ∨ y > 2) ∧ x ≤ y, with `x - x ≤ 0` cancelling its variable.
        let p = Prop::eq(x.clone(), IExp::lit(0))
            .or(Prop::cmp(Cmp::Gt, y.clone(), IExp::lit(2)))
            .and(shared)
            .and(Prop::le(x.clone() - x, IExp::lit(0)));
        let dnf = Dnf::expand(&p, 16).unwrap();
        assert_eq!(dnf.len(), 2);
        let built = systems(&p, 16).unwrap();
        assert_eq!(built.iter().map(System::len).collect::<Vec<_>>(), vec![4, 3]);
        let shared_row = built[0].ineqs()[2].clone();
        assert_eq!(built[1].ineqs()[1], shared_row);
        let mut union = BTreeSet::new();
        for sys in &built {
            union.extend(sys.vars());
        }
        assert_eq!(dnf.vars(), union);
    }

    /// Linearisation errors come from the first atom the disjuncts meet,
    /// and an atom only behind a `false` literal is never linearised.
    #[test]
    fn first_nonlinear_atom_in_disjunct_order_is_reported() {
        let mut g = VarGen::new();
        let x = IExp::var(g.fresh("x"));
        let y = IExp::var(g.fresh("y"));
        let square = |e: &IExp| Prop::le(e.clone() * e.clone(), IExp::lit(4));
        let and = |a: Prop, b: Prop| Prop::And(Box::new(a), Box::new(b));
        let or = |a: Prop, b: Prop| Prop::Or(Box::new(a), Box::new(b));
        let err = |p: &Prop| match Dnf::expand(p, 16) {
            Err(DnfError::NonLinear(nl)) => Some(nl.expr),
            Err(other) => panic!("unexpected {other}"),
            Ok(_) => None,
        };
        assert_eq!(err(&and(Prop::False, square(&x))), None, "behind false: never reached");
        assert_eq!(err(&and(square(&x), Prop::False)), Some("x * x".to_string()));
        // Disjuncts [false, x*x] and [y*y]: only the second reaches an atom.
        assert_eq!(err(&or(and(Prop::False, square(&x)), square(&y))), Some("y * y".to_string()));
        assert_eq!(err(&and(square(&y), square(&x))), Some("y * y".to_string()));
    }

    /// The overflow check runs before any literal is linearised.
    #[test]
    fn overflow_wins_over_nonlinear_atoms() {
        let mut g = VarGen::new();
        let x = IExp::var(g.fresh("x"));
        let bad = Prop::le(x.clone() * x, IExp::lit(0));
        let two = Prop::Or(Box::new(bad.clone()), Box::new(bad));
        let p = Prop::And(Box::new(two.clone()), Box::new(two));
        assert!(matches!(Dnf::expand(&p, 3), Err(DnfError::Overflow(_))));
        assert!(matches!(Dnf::expand(&p, 4), Err(DnfError::NonLinear(_))));
    }

    /// A negation above a connective is pushed inward (De Morgan), giving
    /// the systems of the negation normal form.
    #[test]
    fn negated_connectives_expand_like_their_nnf() {
        let mut g = VarGen::new();
        let x = IExp::var(g.fresh("x"));
        let b = g.fresh("b");
        let p = Prop::Not(Box::new(
            Prop::le(x.clone(), IExp::lit(0)).and(Prop::BVar(b).or(Prop::lt(x, IExp::lit(5)))),
        ));
        assert_eq!(systems(&p, 16).unwrap(), systems(&p.clone().nnf(), 16).unwrap());
        assert_eq!(systems(&p, 16).unwrap().len(), 2);
    }
}
