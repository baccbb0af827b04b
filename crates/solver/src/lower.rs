//! Lowering of non-linear index operators (`div`, `mod`, `min`, `max`,
//! `abs`, `sgn`) into linear atoms over fresh variables.
//!
//! Each occurrence is replaced by a fresh variable constrained by its
//! defining axioms, e.g. for `q = a div k` with a *positive constant*
//! divisor `k` (SML flooring division):
//!
//! ```text
//! a = k·q + r    0 ≤ r ≤ k−1
//! ```
//!
//! Because the defining constraints determine the fresh variables as total
//! functions of their arguments, conjoining them existentially preserves
//! satisfiability of the formula being refuted, so refutation remains sound.
//!
//! `div`/`mod` by a non-constant or non-positive divisor is reported as
//! [`NonLinear`]; the paper likewise restricts constraints to the linear
//! fragment (§3.2). This is enough for the paper's programs, whose divisors
//! are literals (the `div 2` of binary search, the word size of `bcopy`).

use dml_index::{IExp, Linear, NonLinear, Prop, Var, VarGen};
use std::collections::HashMap;

/// Lowering context: a fresh-variable supply plus accumulated side
/// constraints and a memo table so repeated non-linear subterms share
/// variables.
#[derive(Debug)]
pub struct Lowering<'g> {
    gen: &'g mut VarGen,
    /// Defining side constraints for the fresh variables (pure props; may
    /// contain disjunctions for `min`/`max`/`abs`/`sgn`).
    sides: Vec<Prop>,
    /// Lowered forms of the composite subterms that contain a non-linear
    /// operator — the only subterms that introduce fresh variables.
    memo: HashMap<IExp, Linear>,
    /// Fresh variables introduced (for diagnostics/statistics).
    introduced: Vec<Var>,
}

impl<'g> Lowering<'g> {
    /// Creates a lowering context over a variable supply.
    pub fn new(gen: &'g mut VarGen) -> Self {
        Lowering { gen, sides: Vec::new(), memo: HashMap::new(), introduced: Vec::new() }
    }

    /// The accumulated side constraints.
    pub fn side_constraints(&self) -> &[Prop] {
        &self.sides
    }

    /// Number of fresh variables introduced.
    pub fn fresh_count(&self) -> usize {
        self.introduced.len()
    }

    /// Number of memoized subterms. Only composite subterms containing
    /// `div`, `mod`, `min`, `max`, `abs` or `sgn` are memoized: purely
    /// linear subterms introduce no fresh variables, so they are rebuilt.
    pub fn memo_count(&self) -> usize {
        self.memo.len()
    }

    fn fresh(&mut self, tag: &str) -> Var {
        let v = self.gen.fresh_tagged(tag);
        self.introduced.push(v.clone());
        v
    }

    /// Lowers an index expression to a linear form, introducing fresh
    /// variables and side constraints for non-linear operators.
    ///
    /// # Errors
    ///
    /// Returns [`NonLinear`] for products of non-constants and for
    /// `div`/`mod` with a divisor that is not a positive constant.
    pub fn lower(&mut self, e: &IExp) -> Result<Linear, NonLinear> {
        // A purely linear subterm introduces no fresh variables, so there is
        // nothing to share: rebuilding it is cheaper than hashing it and
        // cloning it into the memo.
        if is_linear(e) {
            return Linear::from_iexp(e);
        }
        if let Some(l) = self.memo.get(e) {
            return Ok(l.clone());
        }
        let result = match e {
            IExp::Var(_) | IExp::Lit(_) => unreachable!("leaves are linear"),
            IExp::Add(a, b) => self.lower(a)?.add(&self.lower(b)?),
            IExp::Sub(a, b) => self.lower(a)?.sub(&self.lower(b)?),
            IExp::Mul(a, b) => {
                let la = self.lower(a)?;
                let lb = self.lower(b)?;
                if la.is_constant() {
                    lb.scale(la.constant_term())
                } else if lb.is_constant() {
                    la.scale(lb.constant_term())
                } else {
                    return Err(NonLinear { expr: e.to_string() });
                }
            }
            IExp::Div(a, b) => self.lower_divmod(e, a, b, true)?,
            IExp::Mod(a, b) => self.lower_divmod(e, a, b, false)?,
            IExp::Min(a, b) => {
                let la = self.lower(a)?;
                let lb = self.lower(b)?;
                let m = Linear::var(self.fresh("min"));
                // m ≤ a ∧ m ≤ b ∧ (m = a ∨ m = b)
                self.sides.push(Prop::le(m.to_iexp(), la.to_iexp()));
                self.sides.push(Prop::le(m.to_iexp(), lb.to_iexp()));
                self.sides.push(
                    Prop::eq(m.to_iexp(), la.to_iexp()).or(Prop::eq(m.to_iexp(), lb.to_iexp())),
                );
                m
            }
            IExp::Max(a, b) => {
                let la = self.lower(a)?;
                let lb = self.lower(b)?;
                let m = Linear::var(self.fresh("max"));
                self.sides.push(Prop::le(la.to_iexp(), m.to_iexp()));
                self.sides.push(Prop::le(lb.to_iexp(), m.to_iexp()));
                self.sides.push(
                    Prop::eq(m.to_iexp(), la.to_iexp()).or(Prop::eq(m.to_iexp(), lb.to_iexp())),
                );
                m
            }
            IExp::Abs(a) => {
                let la = self.lower(a)?;
                let v = Linear::var(self.fresh("abs"));
                // v ≥ a ∧ v ≥ −a ∧ (v = a ∨ v = −a)
                self.sides.push(Prop::le(la.to_iexp(), v.to_iexp()));
                self.sides.push(Prop::le(la.scale(-1).to_iexp(), v.to_iexp()));
                self.sides.push(
                    Prop::eq(v.to_iexp(), la.to_iexp())
                        .or(Prop::eq(v.to_iexp(), la.scale(-1).to_iexp())),
                );
                v
            }
            IExp::Sgn(a) => {
                let la = self.lower(a)?;
                let s = Linear::var(self.fresh("sgn"));
                // (a ≥ 1 ∧ s = 1) ∨ (a = 0 ∧ s = 0) ∨ (a ≤ −1 ∧ s = −1)
                let pos =
                    Prop::le(IExp::lit(1), la.to_iexp()).and(Prop::eq(s.to_iexp(), IExp::lit(1)));
                let zero =
                    Prop::eq(la.to_iexp(), IExp::lit(0)).and(Prop::eq(s.to_iexp(), IExp::lit(0)));
                let neg =
                    Prop::le(la.to_iexp(), IExp::lit(-1)).and(Prop::eq(s.to_iexp(), IExp::lit(-1)));
                self.sides.push(pos.or(zero).or(neg));
                s
            }
        };
        self.memo.insert(e.clone(), result.clone());
        Ok(result)
    }

    /// Lowers `a div k` / `a mod k` for a positive constant `k`, returning
    /// the quotient or remainder form.
    fn lower_divmod(
        &mut self,
        whole: &IExp,
        a: &IExp,
        b: &IExp,
        want_quotient: bool,
    ) -> Result<Linear, NonLinear> {
        let la = self.lower(a)?;
        let lb = self.lower(b)?;
        if !lb.is_constant() || lb.constant_term() <= 0 {
            return Err(NonLinear { expr: whole.to_string() });
        }
        let k = lb.constant_term();
        let q = Linear::var(self.fresh("q"));
        let r = Linear::var(self.fresh("r"));
        // a = k·q + r, 0 ≤ r ≤ k−1 (flooring division, positive divisor).
        self.sides.push(Prop::eq(la.to_iexp(), q.scale(k).add(&r).to_iexp()));
        self.sides.push(Prop::le(IExp::lit(0), r.to_iexp()));
        self.sides.push(Prop::le(r.to_iexp(), IExp::lit(k - 1)));
        Ok(if want_quotient { q } else { r })
    }

    /// Lowers every atom of a proposition, returning the rewritten
    /// proposition (same shape, linear atoms). Side constraints accumulate
    /// in the context.
    ///
    /// # Errors
    ///
    /// Returns [`NonLinear`] if any atom is outside the linear fragment.
    pub fn lower_prop(&mut self, p: &Prop) -> Result<Prop, NonLinear> {
        Ok(match p {
            Prop::True | Prop::False | Prop::BVar(_) => p.clone(),
            Prop::Cmp(op, a, b) => {
                let la = self.lower(a)?;
                let lb = self.lower(b)?;
                Prop::Cmp(*op, la.to_iexp(), lb.to_iexp())
            }
            Prop::Not(q) => Prop::Not(Box::new(self.lower_prop(q)?)),
            Prop::And(a, b) => {
                Prop::And(Box::new(self.lower_prop(a)?), Box::new(self.lower_prop(b)?))
            }
            Prop::Or(a, b) => {
                Prop::Or(Box::new(self.lower_prop(a)?), Box::new(self.lower_prop(b)?))
            }
        })
    }
}

/// `true` if `e` has none of the operators lowering replaces (it may
/// still multiply two variables, which [`Linear::from_iexp`] rejects).
fn is_linear(e: &IExp) -> bool {
    match e {
        IExp::Var(_) | IExp::Lit(_) => true,
        IExp::Add(a, b) | IExp::Sub(a, b) | IExp::Mul(a, b) => is_linear(a) && is_linear(b),
        IExp::Div(..)
        | IExp::Mod(..)
        | IExp::Min(..)
        | IExp::Max(..)
        | IExp::Abs(_)
        | IExp::Sgn(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dml_index::VarGen;

    #[test]
    fn lower_linear_is_identity() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let mut lo = Lowering::new(&mut g);
        let e = IExp::var(a.clone()) * IExp::lit(3) + IExp::lit(1);
        let l = lo.lower(&e).unwrap();
        assert_eq!(l.coeff(&a), 3);
        assert_eq!(l.constant_term(), 1);
        assert!(lo.side_constraints().is_empty());
    }

    #[test]
    fn lower_div_introduces_quotient() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let mut lo = Lowering::new(&mut g);
        let e = IExp::var(a).div(IExp::lit(2));
        let l = lo.lower(&e).unwrap();
        assert_eq!(l.num_vars(), 1, "quotient variable");
        assert_eq!(lo.side_constraints().len(), 3, "a = 2q + r, 0 <= r, r <= 1");
        assert_eq!(lo.fresh_count(), 2);
    }

    #[test]
    fn lower_div_rejects_nonconstant_divisor() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let b = g.fresh("b");
        let mut lo = Lowering::new(&mut g);
        assert!(lo.lower(&IExp::var(a).div(IExp::var(b))).is_err());
    }

    #[test]
    fn lower_div_rejects_nonpositive_divisor() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let mut lo = Lowering::new(&mut g);
        assert!(lo.lower(&IExp::var(a.clone()).div(IExp::lit(0))).is_err());
        assert!(lo.lower(&IExp::var(a).div(IExp::lit(-2))).is_err());
    }

    #[test]
    fn lower_memoizes_repeated_subterms() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let mut lo = Lowering::new(&mut g);
        let d = IExp::var(a).div(IExp::lit(2));
        let e = d.clone() + d.clone();
        let l = lo.lower(&e).unwrap();
        assert_eq!(lo.fresh_count(), 2, "q and r shared between occurrences");
        assert_eq!(l.terms().map(|(_, c)| c).collect::<Vec<_>>(), vec![2]);
        // Exactly the composite subterms are memoized — the shared `div`
        // and the enclosing `+`; the `a`/`2` leaves stay out of the table.
        assert_eq!(lo.memo_count(), 2);
    }

    /// Purely linear atoms leave the memo empty, errors included;
    /// composites around a non-linear operator are memoized, linear parts
    /// beside it are not.
    #[test]
    fn lower_memoizes_only_nonlinear_subterms() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let b = g.fresh("b");
        let mut lo = Lowering::new(&mut g);
        let lin = IExp::lit(2) * IExp::var(a.clone()) + IExp::var(b.clone()) - IExp::lit(1);
        let p = Prop::lt(lin.clone(), IExp::var(b.clone()) + IExp::lit(3));
        lo.lower_prop(&p).unwrap();
        let bad = IExp::var(a.clone()) * (IExp::var(b) + IExp::lit(1));
        assert_eq!(lo.lower(&bad), Linear::from_iexp(&bad));
        assert!(lo.lower(&bad).is_err());
        assert_eq!((lo.memo_count(), lo.fresh_count()), (0, 0));
        // (lin + a div 2) ≤ lin: the `div` and the `+` above it.
        let d = IExp::var(a).div(IExp::lit(2));
        lo.lower_prop(&Prop::le(lin.clone() + d, lin)).unwrap();
        assert_eq!((lo.memo_count(), lo.fresh_count()), (2, 2));
    }

    #[test]
    fn lower_min_has_disjunctive_side() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let b = g.fresh("b");
        let mut lo = Lowering::new(&mut g);
        lo.lower(&IExp::var(a).min(IExp::var(b))).unwrap();
        assert!(lo.side_constraints().iter().any(|p| matches!(p, Prop::Or(_, _))));
    }

    #[test]
    fn lower_prop_rewrites_atoms() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let mut lo = Lowering::new(&mut g);
        let p = Prop::lt(IExp::var(a).div(IExp::lit(2)), IExp::lit(5));
        let q = lo.lower_prop(&p).unwrap();
        match q {
            Prop::Cmp(_, lhs, _) => assert!(matches!(lhs, IExp::Var(_))),
            other => panic!("expected Cmp, got {other:?}"),
        }
        assert_eq!(lo.side_constraints().len(), 3);
    }

    #[test]
    fn lower_mul_nonconstant_rejected() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let b = g.fresh("b");
        let mut lo = Lowering::new(&mut g);
        assert!(lo.lower(&(IExp::var(a) * IExp::var(b))).is_err());
    }

    #[test]
    fn lower_abs_and_sgn() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let mut lo = Lowering::new(&mut g);
        lo.lower(&IExp::var(a.clone()).abs()).unwrap();
        lo.lower(&IExp::var(a).sgn()).unwrap();
        assert_eq!(lo.fresh_count(), 2);
        assert!(!lo.side_constraints().is_empty());
    }
}
