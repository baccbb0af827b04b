//! The constraint formula language of §3:
//!
//! ```text
//! φ ::= b | φ₁ ∧ φ₂ | b ⊃ φ | ∃a:γ.φ | ∀a:γ.φ
//! ```
//!
//! Constraints are produced by the elaborator and consumed by the solver.
//! Display matches the paper's Figure 4 style, in ASCII.

use crate::prop::Prop;
use crate::sort::Sort;
use crate::var::Var;
use std::collections::BTreeSet;
use std::fmt;

/// A constraint formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// An atomic boolean index proposition.
    Prop(Prop),
    /// Conjunction of constraints.
    And(Vec<Constraint>),
    /// Guarded constraint `b ⊃ φ`.
    Implies(Prop, Box<Constraint>),
    /// Existential quantification `∃a:γ.φ` with an optional guard from a
    /// subset sort (`{a:γ | g}` quantifies with `g` assumed).
    Exists(Var, Sort, Box<Constraint>),
    /// Universal quantification `∀a:γ.φ` with the subset-sort guard moved
    /// into an implication by the elaborator.
    Forall(Var, Sort, Box<Constraint>),
}

impl Constraint {
    /// The trivially true constraint.
    pub fn truth() -> Constraint {
        Constraint::Prop(Prop::True)
    }

    /// `true` if the constraint is syntactically `true`.
    pub fn is_trivial(&self) -> bool {
        matches!(self, Constraint::Prop(Prop::True))
            || matches!(self, Constraint::And(cs) if cs.iter().all(Constraint::is_trivial))
    }

    /// Conjunction, folding trivial constraints away.
    pub fn and(self, other: Constraint) -> Constraint {
        match (self, other) {
            (c, d) if c.is_trivial() => d,
            (c, d) if d.is_trivial() => c,
            (Constraint::And(mut cs), Constraint::And(ds)) => {
                cs.extend(ds);
                Constraint::And(cs)
            }
            (Constraint::And(mut cs), d) => {
                cs.push(d);
                Constraint::And(cs)
            }
            (c, Constraint::And(mut ds)) => {
                ds.insert(0, c);
                Constraint::And(ds)
            }
            (c, d) => Constraint::And(vec![c, d]),
        }
    }

    /// Conjunction of many constraints.
    pub fn conj(cs: impl IntoIterator<Item = Constraint>) -> Constraint {
        cs.into_iter().fold(Constraint::truth(), Constraint::and)
    }

    /// Guards the constraint: `guard ⊃ self`, simplifying trivial cases.
    pub fn guarded_by(self, guard: Prop) -> Constraint {
        match guard {
            Prop::True => self,
            g => {
                if self.is_trivial() {
                    Constraint::truth()
                } else {
                    Constraint::Implies(g, Box::new(self))
                }
            }
        }
    }

    /// Wraps in `∀v:s.` (dropping the quantifier if `v` is not free).
    pub fn forall(v: Var, s: Sort, body: Constraint) -> Constraint {
        if body.is_trivial() || !body.free_vars().contains(&v) {
            body
        } else {
            Constraint::Forall(v, s, Box::new(body))
        }
    }

    /// Wraps in `∃v:s.` (dropping the quantifier if `v` is not free).
    pub fn exists(v: Var, s: Sort, body: Constraint) -> Constraint {
        if body.is_trivial() || !body.free_vars().contains(&v) {
            body
        } else {
            Constraint::Exists(v, s, Box::new(body))
        }
    }

    /// Free variables of the constraint.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.free_vars_into(&mut out);
        out
    }

    fn free_vars_into(&self, out: &mut BTreeSet<Var>) {
        match self {
            Constraint::Prop(p) => p.free_vars_into(out),
            Constraint::And(cs) => {
                for c in cs {
                    c.free_vars_into(out);
                }
            }
            Constraint::Implies(p, c) => {
                p.free_vars_into(out);
                c.free_vars_into(out);
            }
            Constraint::Exists(v, _, c) | Constraint::Forall(v, _, c) => {
                let mut inner = BTreeSet::new();
                c.free_vars_into(&mut inner);
                inner.remove(v);
                out.extend(inner);
            }
        }
    }

    /// Substitutes an integer index expression for a variable (capture-free
    /// because binder ids are globally unique).
    pub fn subst(&self, v: &Var, e: &crate::iexp::IExp) -> Constraint {
        match self {
            Constraint::Prop(p) => Constraint::Prop(p.subst(v, e)),
            Constraint::And(cs) => Constraint::And(cs.iter().map(|c| c.subst(v, e)).collect()),
            Constraint::Implies(p, c) => {
                Constraint::Implies(p.subst(v, e), Box::new(c.subst(v, e)))
            }
            Constraint::Exists(w, s, c) => {
                debug_assert_ne!(w, v, "binder ids must be globally unique");
                Constraint::Exists(w.clone(), *s, Box::new(c.subst(v, e)))
            }
            Constraint::Forall(w, s, c) => {
                debug_assert_ne!(w, v, "binder ids must be globally unique");
                Constraint::Forall(w.clone(), *s, Box::new(c.subst(v, e)))
            }
        }
    }

    /// Counts the atomic propositions (used for Table 1's constraint
    /// counts).
    pub fn atom_count(&self) -> usize {
        match self {
            Constraint::Prop(Prop::True) => 0,
            Constraint::Prop(_) => 1,
            Constraint::And(cs) => cs.iter().map(Constraint::atom_count).sum(),
            Constraint::Implies(_, c) => c.atom_count(),
            Constraint::Exists(_, _, c) | Constraint::Forall(_, _, c) => c.atom_count(),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Prop(p) => write!(f, "{p}"),
            Constraint::And(cs) => {
                let mut first = true;
                for c in cs {
                    if !first {
                        write!(f, " /\\ ")?;
                    }
                    first = false;
                    match c {
                        Constraint::Prop(_) => write!(f, "{c}")?,
                        _ => write!(f, "({c})")?,
                    }
                }
                if first {
                    write!(f, "true")?;
                }
                Ok(())
            }
            Constraint::Implies(p, c) => write!(f, "({p}) ==> {c}"),
            Constraint::Exists(v, s, c) => write!(f, "exists {v}:{s}. {c}"),
            Constraint::Forall(v, s, c) => write!(f, "forall {v}:{s}. {c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iexp::IExp;
    use crate::prop::Cmp;
    use crate::var::VarGen;

    #[test]
    fn and_folds_truth() {
        let c = Constraint::truth().and(Constraint::truth());
        assert!(c.is_trivial());
    }

    #[test]
    fn forall_drops_unused_binder() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let m = g.fresh("m");
        let body = Constraint::Prop(Prop::le(IExp::var(m.clone()), IExp::lit(3)));
        let c = Constraint::forall(n, Sort::Int, body.clone());
        assert_eq!(c, body);
        let c = Constraint::forall(m, Sort::Int, body);
        assert!(matches!(c, Constraint::Forall(_, _, _)));
    }

    #[test]
    fn free_vars_respect_binders() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let m = g.fresh("m");
        let body =
            Constraint::Prop(Prop::eq(IExp::var(n.clone()) + IExp::var(m.clone()), IExp::lit(0)));
        let c = Constraint::Forall(n.clone(), Sort::Int, Box::new(body));
        let fv = c.free_vars();
        assert!(fv.contains(&m));
        assert!(!fv.contains(&n));
    }

    #[test]
    fn display_paper_style() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let c = Constraint::Forall(
            n.clone(),
            Sort::Int,
            Box::new(Constraint::Implies(
                Prop::le(IExp::lit(0), IExp::var(n.clone())),
                Box::new(Constraint::Prop(Prop::cmp(
                    Cmp::Eq,
                    IExp::lit(0) + IExp::var(n.clone()),
                    IExp::var(n),
                ))),
            )),
        );
        assert_eq!(c.to_string(), "forall n:int. (0 <= n) ==> 0 + n = n");
    }

    #[test]
    fn atom_count_sums() {
        let p = Constraint::Prop(Prop::lt(IExp::lit(0), IExp::lit(1)));
        let c = Constraint::conj(vec![p.clone(), p.clone(), Constraint::truth(), p]);
        assert_eq!(c.atom_count(), 3);
    }

    #[test]
    fn subst_under_binder() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let m = g.fresh("m");
        let body = Constraint::Forall(
            n.clone(),
            Sort::Int,
            Box::new(Constraint::Prop(Prop::le(IExp::var(n), IExp::var(m.clone())))),
        );
        let r = body.subst(&m, &IExp::lit(9));
        assert!(r.to_string().contains("<= 9"), "{r}");
    }
}
