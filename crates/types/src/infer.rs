//! Phase 1: ML (Hindley–Milner) type inference over erased types.
//!
//! "In the first phase, we ignore dependent type annotations and simply
//! perform the type inference of ML" (§3). Dependent annotations are erased
//! to their ML skeletons and *checked* against the inferred types, keeping
//! the extension conservative. The result records an ML scheme for every
//! `fun`/`val` binder (keyed by the binder's source span) so that phase 2
//! can lift the types of unannotated bindings.

use crate::env::Env;
use crate::ml::{MlScheme, MlTy};
use crate::unify::Unifier;
use crate::valenv::ValEnv;
use dml_syntax::ast as sast;
use dml_syntax::Span;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A phase-1 type error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferError {
    /// Human-readable message.
    pub message: String,
    /// Source location.
    pub span: Span,
}

impl InferError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        InferError { message: message.into(), span }
    }
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for InferError {}

/// The result of phase-1 inference.
#[derive(Debug, Clone, Default)]
pub struct InferResult {
    /// ML scheme per binder, keyed by the binder identifier's span.
    pub schemes: HashMap<Span, MlScheme>,
    /// Final top-level value environment.
    pub top_level: HashMap<String, MlScheme>,
}

/// Runs phase-1 inference over a program whose `datatype`/`typeref`/
/// `assert` declarations have already been registered in `env`.
///
/// # Errors
///
/// Returns the first [`InferError`] encountered (unbound variable,
/// unification failure, malformed annotation, arity mismatch).
pub fn infer_program(program: &sast::Program, env: &Env) -> Result<InferResult, InferError> {
    let exceptions: std::collections::HashSet<String> =
        ["Subscript", "Div", "Size", "Match", "Overflow"].iter().map(|s| s.to_string()).collect();
    let mut inf =
        Inferencer { env, uni: Unifier::new(), result: InferResult::default(), exceptions };
    let mut vals = ValEnv::new();
    for d in &program.decls {
        inf.decl(d, &mut vals)?;
    }
    // Resolve all recorded schemes fully.
    for s in inf.result.schemes.values_mut() {
        s.ty = inf.uni.resolve(&s.ty);
    }
    for (name, s) in vals.into_frame() {
        let ty = inf.uni.resolve(&s.ty);
        inf.result.top_level.insert(name, MlScheme { vars: s.vars, ty });
    }
    Ok(inf.result)
}

struct Inferencer<'e> {
    env: &'e Env,
    uni: Unifier,
    result: InferResult,
    /// Declared exception names (plus the SML basis built-ins).
    exceptions: std::collections::HashSet<String>,
}

impl<'e> Inferencer<'e> {
    fn fresh(&mut self) -> MlTy {
        self.uni.fresh()
    }

    fn unify(&mut self, a: &MlTy, b: &MlTy, span: Span) -> Result<(), InferError> {
        self.uni.unify(a, b).map_err(|e| InferError::new(e.to_string(), span))
    }

    fn instantiate(&mut self, scheme: &MlScheme) -> MlTy {
        if scheme.vars.is_empty() {
            return scheme.ty.clone();
        }
        let mut map = HashMap::new();
        for v in &scheme.vars {
            map.insert(v.clone(), self.fresh());
        }
        scheme.ty.subst_rigids(&|n| map.get(n).cloned())
    }

    /// Generalises `ty` over unification variables free in no visible
    /// binding of `vals`, leaving out the bindings of the recursive
    /// `group` being generalized (empty for a `val`).
    fn generalize(
        &mut self,
        ty: &MlTy,
        vals: &ValEnv<MlScheme>,
        group: &[sast::FunDecl],
    ) -> MlScheme {
        let ty = self.uni.resolve(ty);
        let mut ty_uvars = BTreeSet::new();
        ty.uvars_into(&mut ty_uvars);
        if ty_uvars.is_empty() {
            let mut vars = BTreeSet::new();
            ty.rigids_into(&mut vars);
            // Rigids introduced by explicit scoping generalize too; rigids
            // from the surrounding scope are not re-quantified, but at the
            // top level there is no surrounding rigid scope.
            return MlScheme { vars: vars.into_iter().collect(), ty };
        }
        // Only bindings made open can hold unification variables.
        let mut env_uvars = BTreeSet::new();
        for name in vals.open_names() {
            if group.iter().any(|f| f.name.name == name) {
                continue;
            }
            if let Some(s) = vals.get(name) {
                self.uni.resolve(&s.ty).uvars_into(&mut env_uvars);
            }
        }
        let gen_uvars: Vec<u32> = ty_uvars.difference(&env_uvars).copied().collect();
        let mut names = Vec::new();
        let mut renaming: HashMap<u32, String> = HashMap::new();
        for (k, u) in gen_uvars.iter().enumerate() {
            let name = format!("t{k}");
            renaming.insert(*u, name.clone());
            names.push(name);
        }
        let ty2 = rename_uvars(&ty, &renaming);
        let mut rigids = BTreeSet::new();
        ty2.rigids_into(&mut rigids);
        MlScheme { vars: rigids.into_iter().collect(), ty: ty2 }
    }

    // -----------------------------------------------------------------
    // Declarations.
    // -----------------------------------------------------------------

    fn decl(&mut self, d: &sast::Decl, vals: &mut ValEnv<MlScheme>) -> Result<(), InferError> {
        match d {
            // Environment-shaping declarations were processed before
            // inference began.
            sast::Decl::Datatype(_) | sast::Decl::Typeref(_) | sast::Decl::Assert(_) => Ok(()),
            sast::Decl::Exception(name) => {
                self.exceptions.insert(name.name.clone());
                Ok(())
            }
            sast::Decl::Fun(funs) => self.fun_group(funs, vals),
            sast::Decl::Val(v) => self.val_decl(v, vals),
        }
    }

    fn fun_group(
        &mut self,
        funs: &[sast::FunDecl],
        vals: &mut ValEnv<MlScheme>,
    ) -> Result<(), InferError> {
        // Bind every function monomorphically for the recursive knot.
        let mut fun_tys = Vec::with_capacity(funs.len());
        for f in funs {
            let ty = match &f.anno {
                Some(anno) => self.ml_of_dtype(anno)?,
                None => self.fresh(),
            };
            bind(vals, f.name.name.clone(), MlScheme::mono(ty.clone()));
            fun_tys.push(ty);
        }
        for (f, fty) in funs.iter().zip(&fun_tys) {
            self.fun_clauses(f, fty, vals)?;
        }
        // Generalise after the whole group is checked, every member
        // against the environment without the group's monomorphic knot,
        // so that mutually recursive members generalize together.
        let mut schemes = Vec::with_capacity(funs.len());
        for fty in &fun_tys {
            schemes.push(self.generalize(fty, vals, funs));
        }
        for (f, scheme) in funs.iter().zip(schemes) {
            self.result.schemes.insert(f.name.span, scheme.clone());
            bind(vals, f.name.name.clone(), scheme);
        }
        Ok(())
    }

    fn fun_clauses(
        &mut self,
        f: &sast::FunDecl,
        fty: &MlTy,
        vals: &ValEnv<MlScheme>,
    ) -> Result<(), InferError> {
        let arity = f.clauses.first().map(|c| c.params.len()).unwrap_or(0);
        for c in &f.clauses {
            if c.params.len() != arity {
                return Err(InferError::new(
                    format!(
                        "clauses of `{}` have inconsistent arities ({} vs {})",
                        f.name.name,
                        arity,
                        c.params.len()
                    ),
                    f.name.span,
                ));
            }
        }
        // fty = A1 -> A2 -> ... -> An -> B
        let mut arg_tys = Vec::with_capacity(arity);
        let mut res = fty.clone();
        for _ in 0..arity {
            let a = self.fresh();
            let b = self.fresh();
            self.unify(&res, &MlTy::Arrow(Box::new(a.clone()), Box::new(b.clone())), f.name.span)?;
            arg_tys.push(a);
            res = b;
        }
        for c in &f.clauses {
            let mut scope = vals.child();
            for (p, a) in c.params.iter().zip(&arg_tys) {
                let pt = self.pat(p, &mut scope)?;
                self.unify(&pt, a, p.span())?;
            }
            let bt = self.expr(&c.body, &scope)?;
            self.unify(&bt, &res, c.body.span())?;
        }
        Ok(())
    }

    fn val_decl(
        &mut self,
        v: &sast::ValDecl,
        vals: &mut ValEnv<MlScheme>,
    ) -> Result<(), InferError> {
        let et = self.expr(&v.expr, vals)?;
        if let Some(anno) = &v.anno {
            let at = self.ml_of_dtype(anno)?;
            self.unify(&et, &at, v.span)?;
        }
        let mut scope = vals.child();
        let pt = self.pat(&v.pat, &mut scope)?;
        self.unify(&pt, &et, v.pat.span())?;
        let bound: Vec<_> = v
            .pat
            .bound_vars()
            .into_iter()
            .map(|b| (b, scope.get(&b.name).expect("pattern bound").ty.clone()))
            .collect();
        // Value restriction: only generalise syntactic values.
        let generalizable = is_syntactic_value(&v.expr);
        for (bound, raw) in bound {
            let scheme = if generalizable {
                self.generalize(&raw, vals, &[])
            } else {
                MlScheme::mono(self.uni.resolve(&raw))
            };
            self.result.schemes.insert(bound.span, scheme.clone());
            bind(vals, bound.name.clone(), scheme);
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Patterns.
    // -----------------------------------------------------------------

    fn pat(&mut self, p: &sast::Pat, scope: &mut ValEnv<MlScheme>) -> Result<MlTy, InferError> {
        match p {
            sast::Pat::Wild(_) => Ok(self.fresh()),
            sast::Pat::Int(_, _) => Ok(MlTy::int()),
            sast::Pat::Bool(_, _) => Ok(MlTy::bool()),
            sast::Pat::Var(id) => {
                if self.env.is_constructor(&id.name) {
                    let con = &self.env.cons[&id.name];
                    if con.arg.is_some() {
                        return Err(InferError::new(
                            format!("constructor `{}` expects an argument", id.name),
                            id.span,
                        ));
                    }
                    Ok(self.instantiate_con_result(&id.name))
                } else {
                    let t = self.fresh();
                    scope.insert_open(id.name.clone(), MlScheme::mono(t.clone()));
                    Ok(t)
                }
            }
            sast::Pat::Tuple(ps, _) => {
                if ps.is_empty() {
                    return Ok(MlTy::unit());
                }
                let ts = ps.iter().map(|p| self.pat(p, scope)).collect::<Result<Vec<_>, _>>()?;
                Ok(MlTy::Tuple(ts))
            }
            sast::Pat::Con(id, arg, span) => {
                if !self.env.is_constructor(&id.name) {
                    return Err(InferError::new(
                        format!("unknown constructor `{}`", id.name),
                        id.span,
                    ));
                }
                let (arg_ty, res_ty) = self.instantiate_con(&id.name);
                match (arg, arg_ty) {
                    (Some(p), Some(at)) => {
                        let pt = self.pat(p, scope)?;
                        self.unify(&pt, &at, *span)?;
                        Ok(res_ty)
                    }
                    (None, None) => Ok(res_ty),
                    (Some(_), None) => Err(InferError::new(
                        format!("constructor `{}` takes no argument", id.name),
                        *span,
                    )),
                    (None, Some(_)) => Err(InferError::new(
                        format!("constructor `{}` expects an argument", id.name),
                        *span,
                    )),
                }
            }
            sast::Pat::Anno(inner, t, span) => {
                let pt = self.pat(inner, scope)?;
                let at = self.ml_of_dtype(t)?;
                self.unify(&pt, &at, *span)?;
                Ok(pt)
            }
        }
    }

    fn instantiate_con(&mut self, name: &str) -> (Option<MlTy>, MlTy) {
        let con = &self.env.cons[name];
        let mut map = HashMap::new();
        for v in &con.tyvars {
            map.insert(v.clone(), self.fresh());
        }
        let arg = con.arg_ml().map(|t| t.subst_rigids(&|n| map.get(n).cloned()));
        let res = con.result_ml().subst_rigids(&|n| map.get(n).cloned());
        (arg, res)
    }

    fn instantiate_con_result(&mut self, name: &str) -> MlTy {
        self.instantiate_con(name).1
    }

    // -----------------------------------------------------------------
    // Expressions.
    // -----------------------------------------------------------------

    fn expr(&mut self, e: &sast::Expr, vals: &ValEnv<MlScheme>) -> Result<MlTy, InferError> {
        match e {
            sast::Expr::Var(id) => {
                if let Some(s) = vals.get(&id.name) {
                    let s = s.clone();
                    return Ok(self.instantiate(&s));
                }
                if self.env.is_constructor(&id.name) {
                    let (arg, res) = self.instantiate_con(&id.name);
                    return Ok(match arg {
                        None => res,
                        Some(a) => MlTy::Arrow(Box::new(a), Box::new(res)),
                    });
                }
                if let Some(s) = self.env.ml_scheme(&id.name) {
                    return Ok(self.instantiate(&s));
                }
                Err(InferError::new(format!("unbound variable `{}`", id.name), id.span))
            }
            sast::Expr::Int(_, _) => Ok(MlTy::int()),
            sast::Expr::Bool(_, _) => Ok(MlTy::bool()),
            sast::Expr::App(f, a, span) => {
                let tf = self.expr(f, vals)?;
                let ta = self.expr(a, vals)?;
                let r = self.fresh();
                self.unify(&tf, &MlTy::Arrow(Box::new(ta), Box::new(r.clone())), *span)?;
                Ok(r)
            }
            sast::Expr::Tuple(es, _) => {
                if es.is_empty() {
                    return Ok(MlTy::unit());
                }
                let ts = es.iter().map(|x| self.expr(x, vals)).collect::<Result<Vec<_>, _>>()?;
                Ok(MlTy::Tuple(ts))
            }
            sast::Expr::If(c, t, f, span) => {
                let ct = self.expr(c, vals)?;
                self.unify(&ct, &MlTy::bool(), c.span())?;
                let tt = self.expr(t, vals)?;
                let ft = self.expr(f, vals)?;
                self.unify(&tt, &ft, *span)?;
                Ok(tt)
            }
            sast::Expr::Case(scrut, arms, span) => {
                let st = self.expr(scrut, vals)?;
                let result = self.fresh();
                for (p, body) in arms {
                    let mut scope = vals.child();
                    let pt = self.pat(p, &mut scope)?;
                    self.unify(&pt, &st, p.span())?;
                    let bt = self.expr(body, &scope)?;
                    self.unify(&bt, &result, *span)?;
                }
                Ok(result)
            }
            sast::Expr::Let(decls, body, _) => {
                let mut scope = vals.child();
                for d in decls {
                    match d {
                        sast::Decl::Datatype(dd) => {
                            return Err(InferError::new(
                                "datatype declarations are not supported in `let`",
                                dd.name.span,
                            ))
                        }
                        other => self.decl(other, &mut scope)?,
                    }
                }
                self.expr(body, &scope)
            }
            sast::Expr::Fn(arms, span) => {
                let pt = self.fresh();
                let bt = self.fresh();
                for (p, body) in arms {
                    let mut scope = vals.child();
                    let t = self.pat(p, &mut scope)?;
                    self.unify(&t, &pt, p.span())?;
                    let b = self.expr(body, &scope)?;
                    self.unify(&b, &bt, *span)?;
                }
                Ok(MlTy::Arrow(Box::new(pt), Box::new(bt)))
            }
            sast::Expr::Seq(es, _) => {
                let mut last = MlTy::unit();
                for x in es {
                    last = self.expr(x, vals)?;
                }
                Ok(last)
            }
            sast::Expr::Anno(inner, t, span) => {
                let it = self.expr(inner, vals)?;
                let at = self.ml_of_dtype(t)?;
                self.unify(&it, &at, *span)?;
                Ok(at)
            }
            sast::Expr::Andalso(a, b, _) | sast::Expr::Orelse(a, b, _) => {
                let at = self.expr(a, vals)?;
                self.unify(&at, &MlTy::bool(), a.span())?;
                let bt = self.expr(b, vals)?;
                self.unify(&bt, &MlTy::bool(), b.span())?;
                Ok(MlTy::bool())
            }
            sast::Expr::Raise(name, _) => {
                if !self.exceptions.contains(&name.name) {
                    return Err(InferError::new(
                        format!("unknown exception `{}`", name.name),
                        name.span,
                    ));
                }
                // `raise` has any type.
                Ok(self.fresh())
            }
            sast::Expr::Handle(body, arms, span) => {
                let bt = self.expr(body, vals)?;
                for (name, h) in arms {
                    if !self.exceptions.contains(&name.name) {
                        return Err(InferError::new(
                            format!("unknown exception `{}`", name.name),
                            name.span,
                        ));
                    }
                    let ht = self.expr(h, vals)?;
                    self.unify(&ht, &bt, *span)?;
                }
                Ok(bt)
            }
        }
    }

    /// Erases a surface dependent type directly to an ML type (indices are
    /// ignored entirely, so this needs no index-variable scope).
    fn ml_of_dtype(&mut self, t: &sast::DType) -> Result<MlTy, InferError> {
        match t {
            sast::DType::Var(id) => Ok(MlTy::Rigid(id.name.clone())),
            sast::DType::App { name, ty_args, .. } => {
                let sig = self.env.families.get(&name.name).ok_or_else(|| {
                    InferError::new(format!("unknown type `{}`", name.name), name.span)
                })?;
                if ty_args.len() != sig.ty_arity {
                    return Err(InferError::new(
                        format!(
                            "type `{}` expects {} type argument(s), got {}",
                            name.name,
                            sig.ty_arity,
                            ty_args.len()
                        ),
                        name.span,
                    ));
                }
                let args =
                    ty_args.iter().map(|a| self.ml_of_dtype(a)).collect::<Result<Vec<_>, _>>()?;
                Ok(MlTy::Con(name.name.clone(), args))
            }
            sast::DType::Product(ps) => {
                let ts = ps.iter().map(|p| self.ml_of_dtype(p)).collect::<Result<Vec<_>, _>>()?;
                Ok(MlTy::Tuple(ts))
            }
            sast::DType::Arrow(a, b) => {
                Ok(MlTy::Arrow(Box::new(self.ml_of_dtype(a)?), Box::new(self.ml_of_dtype(b)?)))
            }
            sast::DType::Pi(_, body) | sast::DType::Sigma(_, body) => self.ml_of_dtype(body),
        }
    }
}

/// Binds `name` in the current frame, as open while its type still
/// mentions a unification variable.
fn bind(vals: &mut ValEnv<MlScheme>, name: String, scheme: MlScheme) {
    if scheme.ty.has_uvars() {
        vals.insert_open(name, scheme);
    } else {
        vals.insert(name, scheme);
    }
}

fn rename_uvars(t: &MlTy, renaming: &HashMap<u32, String>) -> MlTy {
    match t {
        MlTy::UVar(u) => match renaming.get(u) {
            Some(n) => MlTy::Rigid(n.clone()),
            None => MlTy::UVar(*u),
        },
        MlTy::Rigid(n) => MlTy::Rigid(n.clone()),
        MlTy::Con(n, args) => {
            MlTy::Con(n.clone(), args.iter().map(|a| rename_uvars(a, renaming)).collect())
        }
        MlTy::Tuple(ts) => MlTy::Tuple(ts.iter().map(|t| rename_uvars(t, renaming)).collect()),
        MlTy::Arrow(a, b) => {
            MlTy::Arrow(Box::new(rename_uvars(a, renaming)), Box::new(rename_uvars(b, renaming)))
        }
    }
}

/// Syntactic values for the value restriction.
fn is_syntactic_value(e: &sast::Expr) -> bool {
    match e {
        sast::Expr::Var(_)
        | sast::Expr::Int(_, _)
        | sast::Expr::Bool(_, _)
        | sast::Expr::Fn(_, _) => true,
        sast::Expr::Tuple(es, _) => es.iter().all(is_syntactic_value),
        sast::Expr::Anno(inner, _, _) => is_syntactic_value(inner),
        // Constructor applications to values are values; we approximate by
        // checking that the head is a bare variable (constructor or not:
        // a partial application of a function is also a value).
        sast::Expr::App(f, a, _) => {
            matches!(f.as_ref(), sast::Expr::Var(_)) && is_syntactic_value(a)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::program_env;
    use dml_index::VarGen;
    use dml_syntax::parse_program;

    fn infer(src: &str) -> Result<(InferResult, Env), InferError> {
        let p = parse_program(src).unwrap();
        let env =
            program_env(&p, &mut VarGen::new()).map_err(|e| InferError::new(e.message, e.span))?;
        infer_program(&p, &env).map(|r| (r, env))
    }

    fn top(src: &str, name: &str) -> String {
        let (r, _) = infer(src).unwrap();
        r.top_level[name].to_string()
    }

    #[test]
    fn infer_identity_polymorphic() {
        assert_eq!(top("fun id(x) = x", "id"), "forall t0. 't0 -> 't0");
    }

    #[test]
    fn infer_arithmetic() {
        assert_eq!(top("fun double(x) = x + x", "double"), "int -> int");
    }

    #[test]
    fn infer_recursion() {
        let src = "fun fact(n) = if n = 0 then 1 else n * fact(n - 1)";
        assert_eq!(top(src, "fact"), "int -> int");
    }

    #[test]
    fn infer_mutual_recursion() {
        let src = "fun even(n) = if n = 0 then true else odd(n - 1) \
                   and odd(n) = if n = 0 then false else even(n - 1)";
        assert_eq!(top(src, "even"), "int -> bool");
        assert_eq!(top(src, "odd"), "int -> bool");
    }

    #[test]
    fn mutually_recursive_group_generalizes_together() {
        // `f` must not stay monomorphic because `g` was still being
        // inferred when `f` was generalized.
        let src = "fun f x = g x and g y = y";
        assert_eq!(top(src, "f"), "forall t0. 't0 -> 't0");
        assert_eq!(top(src, "g"), "forall t0. 't0 -> 't0");
        let src = "fun f x = g x and g y = y  fun u (z) = (f 1, f true)";
        assert_eq!(top(src, "u"), "forall t0. 't0 -> int * bool");
    }

    #[test]
    fn infer_list_reverse() {
        let src = "fun rev(nil, ys) = ys | rev(x::xs, ys) = rev(xs, x::ys)";
        assert_eq!(top(src, "rev"), "forall t0. 't0 list * 't0 list -> 't0 list");
    }

    #[test]
    fn infer_higher_order() {
        let src = "fun compose f g x = f (g x)";
        assert_eq!(
            top(src, "compose"),
            "forall t0 t1 t2. ('t2 -> 't1) -> ('t0 -> 't2) -> 't0 -> 't1"
        );
    }

    #[test]
    fn infer_annotated_fun_uses_annotation() {
        let src = "fun len(v) = length v where len <| {n:nat} 'a array(n) -> int(n)";
        assert_eq!(top(src, "len"), "forall a. 'a array -> int");
    }

    #[test]
    fn annotation_mismatch_rejected() {
        let src = "fun f(x) = x + 1 where f <| bool -> bool";
        assert!(infer(src).is_err());
    }

    #[test]
    fn unbound_variable_rejected() {
        assert!(infer("fun f(x) = y").is_err());
    }

    #[test]
    fn branch_type_mismatch_rejected() {
        assert!(infer("fun f(x) = if x then 1 else false").is_err());
    }

    #[test]
    fn value_restriction_blocks_generalization() {
        // `val r = id id` is not a syntactic value application... head is a
        // variable so our approximation treats `id id` as a value; use a
        // clearly expansive expression instead.
        let src = "fun id(x) = x  val r = (id id) 3";
        let (result, _) = infer(src).unwrap();
        assert_eq!(result.top_level["r"].to_string(), "int");
    }

    #[test]
    fn case_expression_types() {
        let src = r#"
datatype 'a option = NONE | SOME of 'a
fun get(x, d) = case x of SOME v => v | NONE => d
"#;
        assert_eq!(top(src, "get"), "forall t0. 't0 option * 't0 -> 't0");
    }

    #[test]
    fn constructors_as_functions() {
        let src = "fun single(x) = x :: nil";
        assert_eq!(top(src, "single"), "forall t0. 't0 -> 't0 list");
    }

    #[test]
    fn array_primitives_type() {
        let src = "fun first(v) = sub(v, 0)";
        assert_eq!(top(src, "first"), "forall t0. 't0 array -> 't0");
    }

    #[test]
    fn order_comparison_function() {
        let src = "fun cmp(x, y) = if x < y then LESS else if x > y then GREATER else EQUAL";
        assert_eq!(top(src, "cmp"), "int * int -> order");
    }

    #[test]
    fn schemes_recorded_per_binder() {
        let src = "fun f(x) = x + 1";
        let p = parse_program(src).unwrap();
        let (result, _) = infer(src).unwrap();
        if let sast::Decl::Fun(fs) = &p.decls[0] {
            assert!(result.schemes.contains_key(&fs[0].name.span));
        } else {
            panic!("expected fun");
        }
    }

    #[test]
    fn local_fun_in_let() {
        let src = r#"
fun outer(v) = let
  fun go(i, acc) = if i = 0 then acc else go(i - 1, acc + sub(v, i - 1))
in
  go(length v, 0)
end
"#;
        assert_eq!(top(src, "outer"), "int array -> int");
    }

    #[test]
    fn seq_and_unit() {
        let src = "fun f(a) = (update(a, 0, 1); length a)";
        assert_eq!(top(src, "f"), "int array -> int");
    }

    #[test]
    fn occurs_check_rejected() {
        assert!(infer("fun f(x) = x x").is_err());
    }

    #[test]
    fn fn_expression() {
        let src = "val inc = fn x => x + 1";
        assert_eq!(top(src, "inc"), "int -> int");
    }

    #[test]
    fn andalso_orelse_bool() {
        let src = "fun f(x, y) = x < y andalso y < 10 orelse x = 0";
        assert_eq!(top(src, "f"), "int * int -> bool");
    }
}
