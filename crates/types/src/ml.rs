//! Erased ML types (phase-1 currency) and erasure from dependent types.

use crate::ty::Ty;
use std::collections::BTreeSet;
use std::fmt;

/// An ML type with unification variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlTy {
    /// A unification variable.
    UVar(u32),
    /// A rigid (scheme-bound or explicitly scoped) type variable.
    Rigid(String),
    /// A type constructor application: `int`, `bool`, `unit`, `'a array`,
    /// `'a list`, user datatypes.
    Con(String, Vec<MlTy>),
    /// Product type (n ≠ 1; `unit` is `Con("unit", [])`).
    Tuple(Vec<MlTy>),
    /// Function type.
    Arrow(Box<MlTy>, Box<MlTy>),
}

impl MlTy {
    /// The `int` type.
    pub fn int() -> MlTy {
        MlTy::Con("int".into(), Vec::new())
    }

    /// The `bool` type.
    pub fn bool() -> MlTy {
        MlTy::Con("bool".into(), Vec::new())
    }

    /// The `unit` type.
    pub fn unit() -> MlTy {
        MlTy::Con("unit".into(), Vec::new())
    }

    /// `t array`.
    pub fn array(t: MlTy) -> MlTy {
        MlTy::Con("array".into(), vec![t])
    }

    /// `t list`.
    pub fn list(t: MlTy) -> MlTy {
        MlTy::Con("list".into(), vec![t])
    }

    /// Substitutes types for rigid variables (scheme instantiation).
    pub fn subst_rigids(&self, map: &dyn Fn(&str) -> Option<MlTy>) -> MlTy {
        match self {
            MlTy::UVar(_) => self.clone(),
            MlTy::Rigid(n) => map(n).unwrap_or_else(|| self.clone()),
            MlTy::Con(n, args) => {
                MlTy::Con(n.clone(), args.iter().map(|a| a.subst_rigids(map)).collect())
            }
            MlTy::Tuple(ts) => MlTy::Tuple(ts.iter().map(|t| t.subst_rigids(map)).collect()),
            MlTy::Arrow(a, b) => {
                MlTy::Arrow(Box::new(a.subst_rigids(map)), Box::new(b.subst_rigids(map)))
            }
        }
    }

    /// Collects unification variables.
    pub fn uvars_into(&self, out: &mut BTreeSet<u32>) {
        match self {
            MlTy::UVar(u) => {
                out.insert(*u);
            }
            MlTy::Rigid(_) => {}
            MlTy::Con(_, args) => {
                for a in args {
                    a.uvars_into(out);
                }
            }
            MlTy::Tuple(ts) => {
                for t in ts {
                    t.uvars_into(out);
                }
            }
            MlTy::Arrow(a, b) => {
                a.uvars_into(out);
                b.uvars_into(out);
            }
        }
    }

    /// Whether any unification variable occurs in the type.
    pub fn has_uvars(&self) -> bool {
        match self {
            MlTy::UVar(_) => true,
            MlTy::Rigid(_) => false,
            MlTy::Con(_, ts) | MlTy::Tuple(ts) => ts.iter().any(MlTy::has_uvars),
            MlTy::Arrow(a, b) => a.has_uvars() || b.has_uvars(),
        }
    }

    /// Collects rigid variable names.
    pub fn rigids_into(&self, out: &mut BTreeSet<String>) {
        match self {
            MlTy::UVar(_) => {}
            MlTy::Rigid(n) => {
                out.insert(n.clone());
            }
            MlTy::Con(_, args) => {
                for a in args {
                    a.rigids_into(out);
                }
            }
            MlTy::Tuple(ts) => {
                for t in ts {
                    t.rigids_into(out);
                }
            }
            MlTy::Arrow(a, b) => {
                a.rigids_into(out);
                b.rigids_into(out);
            }
        }
    }
}

impl fmt::Display for MlTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(t: &MlTy, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
            match t {
                MlTy::UVar(u) => write!(f, "?u{u}"),
                MlTy::Rigid(n) => write!(f, "'{n}"),
                MlTy::Con(n, args) => {
                    match args.len() {
                        0 => {}
                        1 => {
                            go(&args[0], f, 2)?;
                            write!(f, " ")?;
                        }
                        _ => {
                            write!(f, "(")?;
                            for (k, a) in args.iter().enumerate() {
                                if k > 0 {
                                    write!(f, ", ")?;
                                }
                                go(a, f, 0)?;
                            }
                            write!(f, ") ")?;
                        }
                    }
                    write!(f, "{n}")
                }
                MlTy::Tuple(ts) => {
                    if prec > 1 {
                        write!(f, "(")?;
                    }
                    for (k, x) in ts.iter().enumerate() {
                        if k > 0 {
                            write!(f, " * ")?;
                        }
                        go(x, f, 2)?;
                    }
                    if prec > 1 {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                MlTy::Arrow(a, b) => {
                    if prec > 0 {
                        write!(f, "(")?;
                    }
                    go(a, f, 1)?;
                    write!(f, " -> ")?;
                    go(b, f, 0)?;
                    if prec > 0 {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        go(self, f, 0)
    }
}

/// An ML type scheme `∀'a⃗. τ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlScheme {
    /// Quantified type variables (appearing as [`MlTy::Rigid`] in `ty`).
    pub vars: Vec<String>,
    /// The body.
    pub ty: MlTy,
}

impl MlScheme {
    /// A monomorphic scheme.
    pub fn mono(ty: MlTy) -> MlScheme {
        MlScheme { vars: Vec::new(), ty }
    }
}

impl fmt::Display for MlScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.vars.is_empty() {
            write!(f, "{}", self.ty)
        } else {
            write!(f, "forall {}. {}", self.vars.join(" "), self.ty)
        }
    }
}

/// Erases a dependent type to its ML skeleton: indices are dropped, Π and Σ
/// quantifiers disappear (they bind only index variables).
pub fn erase(t: &Ty) -> MlTy {
    match t {
        Ty::Rigid(n) => MlTy::Rigid(n.clone()),
        Ty::Meta(u) => MlTy::UVar(*u),
        Ty::App(name, tys, _) => MlTy::Con(name.clone(), tys.iter().map(erase).collect()),
        Ty::Tuple(ts) => MlTy::Tuple(ts.iter().map(erase).collect()),
        Ty::Arrow(a, b) => MlTy::Arrow(Box::new(erase(a)), Box::new(erase(b))),
        Ty::Pi(_, body) | Ty::Sigma(_, body) => erase(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::Binder;
    use dml_index::{IExp, Sort, VarGen};

    #[test]
    fn erase_drops_indices_and_quantifiers() {
        let mut g = VarGen::new();
        let n = g.fresh("n");
        let t = Ty::Pi(
            Binder::new(vec![(n.clone(), Sort::Int)]),
            Box::new(Ty::Arrow(
                Box::new(Ty::array(Ty::Rigid("a".into()), IExp::var(n.clone()))),
                Box::new(Ty::int_singleton(IExp::var(n))),
            )),
        );
        let e = erase(&t);
        assert_eq!(
            e,
            MlTy::Arrow(Box::new(MlTy::array(MlTy::Rigid("a".into()))), Box::new(MlTy::int()))
        );
    }

    #[test]
    fn display_ml_types() {
        let t = MlTy::Arrow(
            Box::new(MlTy::Tuple(vec![MlTy::int(), MlTy::int()])),
            Box::new(MlTy::bool()),
        );
        assert_eq!(t.to_string(), "int * int -> bool");
    }

    #[test]
    fn subst_rigids_instantiates() {
        let t = MlTy::Arrow(Box::new(MlTy::Rigid("a".into())), Box::new(MlTy::Rigid("b".into())));
        let r = t.subst_rigids(&|n| if n == "a" { Some(MlTy::int()) } else { None });
        assert_eq!(r, MlTy::Arrow(Box::new(MlTy::int()), Box::new(MlTy::Rigid("b".into()))));
    }

    #[test]
    fn uvar_collection() {
        let t = MlTy::Tuple(vec![MlTy::UVar(1), MlTy::array(MlTy::UVar(2))]);
        let mut s = BTreeSet::new();
        t.uvars_into(&mut s);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }
}
