//! The bidirectional dependent elaborator.
//!
//! See the crate docs for the big picture. The central invariants:
//!
//! * The context is a stack of entries — universal index variables,
//!   existential index variables (application instantiations), and
//!   hypotheses. Obligations are recorded when discovered and **closed at
//!   the end of their enclosing branch/clause scope** as
//!   `∀unis. ∃evars. (hyps ⊃ concl)`, with all universals quantified
//!   outside all existentials (an instantiation may depend on anything in
//!   scope, exactly as in the paper's §3.1 constraints). Deferred closing
//!   ensures defining equations contributed by *later* arguments of a
//!   curried application are available as hypotheses.
//! * Binder identifiers are globally unique: every binder is opened with
//!   fresh variables, so substitution is capture-free.
//! * Index equations discovered during argument/result coercion are
//!   classified at emission: a *defining* equation (first pin-down of an
//!   instantiation variable) becomes a hypothesis only, exactly like the
//!   paper's `M = 0`; a *re-constraining* equation is a genuine proof
//!   obligation (closed without itself among its hypotheses).

use crate::obligation::{ObKind, Obligation};
use crate::site::{SiteContext, SiteRole};
use dml_index::{Constraint, IExp, Prop, Sort, Var, VarGen};
use dml_syntax::ast as sast;
use dml_syntax::Span;
use dml_types::convert::{Converter, Scope};
use dml_types::env::{CheckKind, Env};
use dml_types::infer::InferResult;
use dml_types::ml::erase;
use dml_types::ty::{Binder, Ix, Scheme, Ty};
use dml_types::ValEnv;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A phase-2 elaboration error (shape mismatches that phase 1 cannot see,
/// unsupported constructs, malformed annotations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabError {
    /// Human-readable message.
    pub message: String,
    /// Source location.
    pub span: Span,
}

impl ElabError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        ElabError { message: message.into(), span }
    }
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elaboration error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ElabError {}

/// The result of phase-2 elaboration.
#[derive(Debug, Clone)]
pub struct ElabOutput {
    /// All proof obligations, in generation order.
    pub obligations: Vec<Obligation>,
    /// Dependent schemes of top-level bindings.
    pub top_level: HashMap<String, Scheme>,
    /// The variable supply, for the solver to continue from.
    pub gen: VarGen,
    /// Context snapshots at branching points, for the semantic lints.
    /// Purely observational — recording them does not affect obligation
    /// generation.
    pub contexts: Vec<SiteContext>,
}

impl ElabOutput {
    /// The obligations that are eliminable run-time checks.
    pub fn check_obligations(&self) -> impl Iterator<Item = &Obligation> {
        self.obligations.iter().filter(|o| o.kind.is_check())
    }
}

/// Elaborates a program (whose `datatype`/`typeref`/`assert` declarations
/// are already in `env` and whose phase-1 inference result is `phase1`).
///
/// # Errors
///
/// Returns the first [`ElabError`] encountered. Constraint *failures* are
/// not errors — they surface later as unproven obligations.
pub fn elaborate(
    program: &sast::Program,
    env: &Env,
    phase1: &InferResult,
    gen: VarGen,
) -> Result<ElabOutput, ElabError> {
    let mut el = Elaborator::new(env, phase1, gen);
    let mut vals = Vals::new();
    let scope = Scope::new();
    for d in &program.decls {
        el.decl(d, &mut vals, &scope)?;
        // Close any obligations from top-level `val` bindings (their
        // context entries persist for later declarations).
        el.flush_pending(0);
    }
    let top_level =
        vals.into_frame().into_iter().map(|(name, s)| (name, el.zonk_scheme(&s))).collect();
    Ok(ElabOutput { obligations: el.obligations, top_level, gen: el.gen, contexts: el.contexts })
}

type Vals<'p> = ValEnv<'p, Scheme>;

/// A context entry.
#[derive(Debug, Clone)]
enum Entry {
    /// Universally quantified index variable.
    Uni(Var, Sort),
    /// Existentially quantified (instantiation) variable.
    Exi(Var, Sort),
    /// Hypothesis.
    Hyp(Prop),
}

/// The elaborator state. Most users go through [`elaborate`]; the struct is
/// public for the pipeline crate's diagnostics.
pub struct Elaborator<'e> {
    env: &'e Env,
    phase1: &'e InferResult,
    gen: VarGen,
    metas: HashMap<u32, Ty>,
    next_meta: u32,
    ctx: Vec<Entry>,
    obligations: Vec<Obligation>,
    /// Obligations awaiting closure: conclusions are recorded when
    /// discovered but closed over the context only when their enclosing
    /// scope ends, so that defining equations contributed by *later*
    /// arguments (curried applications) are available as hypotheses.
    pending: Vec<(ObKind, Span, Prop, Option<usize>)>,
    fun_stack: Vec<String>,
    /// Context snapshots at branching points (see [`SiteContext`]).
    contexts: Vec<SiteContext>,
    /// All instantiation (existential) variables ever created.
    exi_vars: std::collections::HashSet<Var>,
    /// Instantiation variables already pinned down by a defining equation.
    determined: std::collections::HashSet<Var>,
}

impl<'e> Elaborator<'e> {
    /// Creates an elaborator.
    pub fn new(env: &'e Env, phase1: &'e InferResult, gen: VarGen) -> Self {
        Elaborator {
            env,
            phase1,
            gen,
            metas: HashMap::new(),
            next_meta: 0,
            ctx: Vec::new(),
            obligations: Vec::new(),
            pending: Vec::new(),
            fun_stack: Vec::new(),
            contexts: Vec::new(),
            exi_vars: std::collections::HashSet::new(),
            determined: std::collections::HashSet::new(),
        }
    }

    // -----------------------------------------------------------------
    // Context and obligations.
    // -----------------------------------------------------------------

    fn push_uni(&mut self, v: Var, s: Sort) {
        self.ctx.push(Entry::Uni(v, s));
    }

    fn push_exi(&mut self, v: Var, s: Sort) {
        self.exi_vars.insert(v.clone());
        self.ctx.push(Entry::Exi(v, s));
    }

    fn push_hyp(&mut self, p: Prop) {
        if p != Prop::True {
            self.ctx.push(Entry::Hyp(p));
        }
    }

    /// Marks the start of a branch/clause scope.
    fn scope_begin(&self) -> (usize, usize) {
        (self.ctx.len(), self.pending.len())
    }

    /// Ends a scope: closes the scope's pending obligations over the full
    /// current context, then pops the scope's entries.
    fn scope_end(&mut self, mark: (usize, usize)) {
        self.flush_pending(mark.1);
        self.ctx.truncate(mark.0);
    }

    /// Closes a conclusion over the current context
    /// (`∀unis. ∃evars. (hyps ⊃ concl)`), skipping the hypothesis at index
    /// `skip` (used for an equation's own obligation).
    fn close_excluding(&self, concl: Prop, skip: Option<usize>) -> Constraint {
        let mut hyps = Prop::True;
        for (k, e) in self.ctx.iter().enumerate() {
            if Some(k) == skip {
                continue;
            }
            if let Entry::Hyp(p) = e {
                hyps = hyps.and(p.clone());
            }
        }
        let mut c = Constraint::Prop(concl).guarded_by(hyps);
        if c.is_trivial() {
            return c;
        }
        // One free-variable pass for the whole closure: binder ids are
        // globally unique, so a context variable is wrapped iff it occurs
        // free in the pre-quantification body. (Wrapping per quantifier via
        // `Constraint::exists`/`forall` recomputes free_vars of the growing
        // body each time — quadratic in context depth, and the context here
        // can be >100 entries deep.)
        let mut fv = c.free_vars();
        for e in self.ctx.iter().rev() {
            if let Entry::Exi(v, s) = e {
                if fv.remove(v) {
                    c = Constraint::Exists(v.clone(), *s, Box::new(c));
                }
            }
        }
        for e in self.ctx.iter().rev() {
            if let Entry::Uni(v, s) = e {
                if fv.remove(v) {
                    c = Constraint::Forall(v.clone(), *s, Box::new(c));
                }
            }
        }
        c
    }

    fn emit(&mut self, kind: ObKind, site: Span, concl: Prop) {
        if concl == Prop::True {
            return;
        }
        self.pending.push((kind, site, concl, None));
    }

    /// Snapshots the current logical context for the semantic lints.
    /// Read-only with respect to elaboration: nothing here feeds back into
    /// obligation generation. Existentials are strengthened to universals
    /// (see [`SiteContext`]).
    fn record_site(&mut self, role: SiteRole, span: Span, cond: Option<Prop>) {
        let mut vars = Vec::new();
        let mut hyps = Vec::new();
        for e in &self.ctx {
            match e {
                Entry::Uni(v, s) | Entry::Exi(v, s) => vars.push((v.clone(), *s)),
                Entry::Hyp(p) => {
                    if *p != Prop::True {
                        hyps.push(p.clone());
                    }
                }
            }
        }
        let in_fun = self.fun_stack.last().cloned().unwrap_or_else(|| "<top>".to_string());
        self.contexts.push(SiteContext { role, span, in_fun, vars, hyps, cond });
    }

    /// The constructor a `case` arm pattern names, if any.
    fn arm_con(&self, p: &sast::Pat) -> Option<String> {
        match p {
            sast::Pat::Con(c, _, _) => Some(c.name.clone()),
            sast::Pat::Var(c) if self.env.is_constructor(&c.name) => Some(c.name.clone()),
            _ => None,
        }
    }

    /// Emits the integer index equation `x = y` arising from a coercion.
    ///
    /// If the equation is *defining* — it pins down exactly one so-far
    /// undetermined instantiation variable, alone on one side — it becomes
    /// a hypothesis only, exactly like the paper's `M = 0` equations. A
    /// *re-constraining* equation (all its instantiation variables already
    /// determined, or not solvable by substitution) is a genuine proof
    /// obligation; it is also pushed as a hypothesis for later goals, which
    /// is sound because checks are only eliminated when every obligation in
    /// the program is proven.
    fn emit_int_equation(&mut self, site: Span, x: IExp, y: IExp) {
        if x == y {
            return;
        }
        let eq = Prop::eq(x.clone(), y.clone());
        if let Some(v) = self.defining_var(&x, &y) {
            self.determined.insert(v);
            self.push_hyp(eq);
            return;
        }
        self.ctx.push(Entry::Hyp(eq.clone()));
        let idx = self.ctx.len() - 1;
        self.pending.push((ObKind::TypeEq, site, eq, Some(idx)));
    }

    /// If `x = y` defines a single undetermined instantiation variable
    /// (alone on one side, absent from the other, and the only undetermined
    /// instantiation variable in the equation), returns it.
    fn defining_var(&self, x: &IExp, y: &IExp) -> Option<Var> {
        let mut undet: Vec<Var> = Vec::new();
        let mut fv = std::collections::BTreeSet::new();
        x.free_vars_into(&mut fv);
        y.free_vars_into(&mut fv);
        for v in fv {
            if self.exi_vars.contains(&v) && !self.determined.contains(&v) {
                undet.push(v);
            }
        }
        if undet.len() != 1 {
            return None;
        }
        let v = undet.pop().expect("one element");
        let alone = matches!(x, IExp::Var(w) if *w == v && !y.contains_var(&v))
            || matches!(y, IExp::Var(w) if *w == v && !x.contains_var(&v));
        alone.then_some(v)
    }

    /// Pushes an equation as a hypothesis only (pattern-matching facts),
    /// updating the determined-variable set.
    fn push_equation_hyp(&mut self, x: IExp, y: IExp) {
        if x == y {
            return;
        }
        if let Some(v) = self.defining_var(&x, &y) {
            self.determined.insert(v);
        }
        self.push_hyp(Prop::eq(x, y));
    }

    /// Closes and records all pending obligations at or beyond `pmark`,
    /// using the *current* (pre-truncation) context.
    fn flush_pending(&mut self, pmark: usize) {
        let drained: Vec<_> = self.pending.drain(pmark..).collect();
        let in_fun = self.fun_stack.last().cloned().unwrap_or_else(|| "<top>".to_string());
        for (kind, site, concl, skip) in drained {
            let constraint = self.close_excluding(concl, skip);
            self.obligations.push(Obligation { kind, site, constraint, in_fun: in_fun.clone() });
        }
    }

    // -----------------------------------------------------------------
    // Metavariables.
    // -----------------------------------------------------------------

    fn fresh_meta(&mut self) -> Ty {
        let m = self.next_meta;
        self.next_meta += 1;
        Ty::Meta(m)
    }

    fn resolve_shallow(&self, ty: &Ty) -> Ty {
        let mut t = ty.clone();
        while let Ty::Meta(m) = t {
            match self.metas.get(&m) {
                Some(next) => t = next.clone(),
                None => return Ty::Meta(m),
            }
        }
        t
    }

    /// Fully resolves metavariables in a type.
    fn zonk(&self, ty: &Ty) -> Ty {
        match self.resolve_shallow(ty) {
            Ty::Meta(m) => Ty::Meta(m),
            Ty::Rigid(n) => Ty::Rigid(n),
            Ty::App(n, tys, ixs) => Ty::App(n, tys.iter().map(|t| self.zonk(t)).collect(), ixs),
            Ty::Tuple(ts) => Ty::Tuple(ts.iter().map(|t| self.zonk(t)).collect()),
            Ty::Arrow(a, b) => Ty::Arrow(Box::new(self.zonk(&a)), Box::new(self.zonk(&b))),
            Ty::Pi(b, t) => Ty::Pi(b, Box::new(self.zonk(&t))),
            Ty::Sigma(b, t) => Ty::Sigma(b, Box::new(self.zonk(&t))),
        }
    }

    fn zonk_scheme(&self, s: &Scheme) -> Scheme {
        Scheme { tyvars: s.tyvars.clone(), ty: self.zonk(&s.ty) }
    }

    // -----------------------------------------------------------------
    // Binder opening and scheme instantiation.
    // -----------------------------------------------------------------

    /// Opens a binder with fresh variables, returning the instantiated
    /// guard, body, and fresh variables. Does not push context entries.
    fn open_binder(
        &mut self,
        b: &Binder,
        body: &Ty,
        tag: Option<&str>,
    ) -> (Prop, Ty, Vec<(Var, Sort)>) {
        let mut guard = b.guard.clone();
        let mut bd = body.clone();
        let mut fresh = Vec::with_capacity(b.vars.len());
        for (v, s) in &b.vars {
            let f = match tag {
                Some(t) => self.gen.fresh_tagged(&format!("{t}{}", v.name())),
                None => self.gen.fresh(v.name()),
            };
            match s {
                Sort::Int => {
                    let e = IExp::var(f.clone());
                    guard = guard.subst(v, &e);
                    bd = bd.subst(v, &e);
                }
                Sort::Bool => {
                    guard = guard.subst_bool(v, &Prop::BVar(f.clone()));
                    bd = bd.subst_bvar(v, &f);
                }
            }
            fresh.push((f, *s));
        }
        (guard, bd, fresh)
    }

    /// Opens `Π b. body` universally: pushes the variables and the guard
    /// as a hypothesis. Optionally records surface names in `scope`.
    fn open_universal(&mut self, b: &Binder, body: &Ty, scope: Option<&mut Scope>) -> Ty {
        let (guard, bd, fresh) = self.open_binder(b, body, None);
        if let Some(sc) = scope {
            for (v, s) in &fresh {
                sc.bind(v.name(), v.clone(), *s);
            }
        }
        for (v, s) in fresh {
            self.push_uni(v, s);
        }
        self.push_hyp(guard);
        bd
    }

    /// Opens `Π b. body` (or `Σ b. body`) existentially: pushes the
    /// variables as instantiation variables and returns the instantiated
    /// guard for the caller to emit as an obligation.
    fn open_existential(&mut self, b: &Binder, body: &Ty, scope: Option<&mut Scope>) -> (Prop, Ty) {
        let (guard, bd, fresh) = self.open_binder(b, body, None);
        if let Some(sc) = scope {
            for (v, s) in &fresh {
                sc.bind(v.name(), v.clone(), *s);
            }
        }
        for (v, s) in fresh {
            self.push_exi(v, s);
        }
        (guard, bd)
    }

    /// Unpacks leading Σ quantifiers universally (package consumption).
    fn unpack_sigmas(&mut self, ty: Ty) -> Ty {
        let mut t = self.resolve_shallow(&ty);
        while let Ty::Sigma(b, body) = t {
            t = self.open_universal(&b, &body, None);
            t = self.resolve_shallow(&t);
        }
        t
    }

    /// Instantiates a value scheme: ML type variables become fresh
    /// metavariables; index binders are refreshed for id uniqueness.
    fn instantiate(&mut self, s: &Scheme) -> Ty {
        let mut ty = s.ty.clone();
        for tv in &s.tyvars {
            let m = self.fresh_meta();
            ty = ty.subst_rigid(tv, &m);
        }
        ty.refresh(&mut self.gen)
    }

    // -----------------------------------------------------------------
    // Declarations.
    // -----------------------------------------------------------------

    fn decl(&mut self, d: &sast::Decl, vals: &mut Vals, scope: &Scope) -> Result<(), ElabError> {
        match d {
            sast::Decl::Datatype(_)
            | sast::Decl::Typeref(_)
            | sast::Decl::Assert(_)
            | sast::Decl::Exception(_) => Ok(()),
            sast::Decl::Fun(funs) => self.fun_group(funs, vals, scope),
            sast::Decl::Val(v) => self.val_decl(v, vals, scope),
        }
    }

    fn fun_group(
        &mut self,
        funs: &[sast::FunDecl],
        vals: &mut Vals,
        scope: &Scope,
    ) -> Result<(), ElabError> {
        let mut schemes = Vec::with_capacity(funs.len());
        for f in funs {
            let scheme = self.fun_scheme(f, scope)?;
            schemes.push(scheme);
        }
        for (f, s) in funs.iter().zip(&schemes) {
            vals.insert(f.name.name.clone(), s.clone());
        }
        for (f, s) in funs.iter().zip(&schemes) {
            self.check_fun(f, s, vals, scope)?;
        }
        Ok(())
    }

    fn fun_scheme(&mut self, f: &sast::FunDecl, scope: &Scope) -> Result<Scheme, ElabError> {
        match &f.anno {
            Some(anno) => {
                let mut scope2 = scope.clone();
                let env = self.env;
                let mut conv = Converter::new(&env.families, &mut self.gen);
                let ip_binder = conv
                    .convert_quants(&f.index_params, &mut scope2)
                    .map_err(|e| ElabError::new(e.message, e.span))?;
                let ty = conv
                    .convert_dtype(anno, &scope2)
                    .map_err(|e| ElabError::new(e.message, e.span))?;
                let ty =
                    if ip_binder.vars.is_empty() { ty } else { Ty::Pi(ip_binder, Box::new(ty)) };
                let mut rigids = BTreeSet::new();
                erase(&ty).rigids_into(&mut rigids);
                Ok(Scheme { tyvars: rigids.into_iter().collect(), ty })
            }
            None => {
                let ml = self.phase1.schemes.get(&f.name.span).ok_or_else(|| {
                    ElabError::new(
                        format!("no phase-1 scheme recorded for `{}`", f.name.name),
                        f.name.span,
                    )
                })?;
                let ty = self.env.lift(&ml.ty, &mut self.gen);
                Ok(Scheme { tyvars: ml.vars.clone(), ty })
            }
        }
    }

    fn check_fun(
        &mut self,
        f: &sast::FunDecl,
        scheme: &Scheme,
        vals: &Vals,
        scope: &Scope,
    ) -> Result<(), ElabError> {
        self.fun_stack.push(f.name.name.clone());
        let result = self.check_fun_inner(f, scheme, vals, scope);
        self.fun_stack.pop();
        result
    }

    fn check_fun_inner(
        &mut self,
        f: &sast::FunDecl,
        scheme: &Scheme,
        vals: &Vals,
        scope: &Scope,
    ) -> Result<(), ElabError> {
        for clause in &f.clauses {
            let mark = self.scope_begin();
            let mut cvals = vals.child();
            let mut cscope = scope.clone();
            // Clause checking instantiates the leading Π variables
            // *existentially*; pattern matching supplies the defining
            // hypothesis equations (§3.1).
            let mut ty = scheme.ty.clone();
            for param in &clause.params {
                ty = self.resolve_shallow(&ty);
                loop {
                    match ty {
                        Ty::Pi(b, body) => {
                            let (guard, bd) = self.open_existential(&b, &body, Some(&mut cscope));
                            // The caller guarantees the guard; assume it.
                            self.push_hyp(guard);
                            ty = self.resolve_shallow(&bd);
                        }
                        Ty::Sigma(b, body) => {
                            ty = self.open_universal(&b, &body, Some(&mut cscope));
                            ty = self.resolve_shallow(&ty);
                        }
                        other => {
                            ty = other;
                            break;
                        }
                    }
                }
                let Ty::Arrow(dom, cod) = ty else {
                    return Err(ElabError::new(
                        format!(
                            "`{}` has {} parameter(s) but its type `{}` is not a function",
                            f.name.name,
                            clause.params.len(),
                            scheme.ty
                        ),
                        f.name.span,
                    ));
                };
                self.bind_pattern(param, &dom, &mut cvals)?;
                ty = *cod;
            }
            self.check(&clause.body, &ty, &cvals, &cscope)?;
            self.scope_end(mark);
        }
        self.check_clause_exhaustiveness(f, scheme)?;
        Ok(())
    }

    /// Exhaustiveness for multi-clause `fun` definitions, in the common
    /// single-scrutinee form: when exactly one pattern position (a path
    /// through parameter tuples) carries constructor patterns and every
    /// other position is irrefutable in every clause, the analysis reduces
    /// to the `case` one — missing constructors at that position must be
    /// provably impossible, else a warning is emitted. Definitions that
    /// scrutinise several positions at once are skipped, and nested
    /// refutable sub-patterns inside the scrutinee's own argument are not
    /// analysed (best-effort warnings; exhaustiveness never affects the
    /// soundness of check elimination, since a match failure is an
    /// ML-level error shared by both execution modes).
    fn check_clause_exhaustiveness(
        &mut self,
        f: &sast::FunDecl,
        scheme: &Scheme,
    ) -> Result<(), ElabError> {
        let Some(path) = single_scrutinee_path(&f.clauses) else {
            return Ok(());
        };
        let covered: std::collections::HashSet<String> = f
            .clauses
            .iter()
            .filter_map(|c| match pattern_at_path(&c.params, &path) {
                Some(sast::Pat::Con(c, _, _)) => Some(c.name.clone()),
                Some(sast::Pat::Var(v)) => Some(v.name.clone()),
                _ => None,
            })
            .collect();
        // Locate the scrutinee type by peeling a fresh instantiation.
        let mark = self.scope_begin();
        let mut ty = scheme.ty.clone();
        let mut scrut: Option<Ty> = None;
        for param_idx in 0..=path.0 {
            ty = self.resolve_shallow(&ty);
            loop {
                match ty {
                    Ty::Pi(b, body) => {
                        let (guard, bd) = self.open_existential(&b, &body, None);
                        self.push_hyp(guard);
                        ty = self.resolve_shallow(&bd);
                    }
                    Ty::Sigma(b, body) => {
                        ty = self.open_universal(&b, &body, None);
                        ty = self.resolve_shallow(&ty);
                    }
                    other => {
                        ty = other;
                        break;
                    }
                }
            }
            let Ty::Arrow(dom, cod) = ty else {
                self.ctx.truncate(mark.0);
                self.pending.truncate(mark.1);
                return Ok(());
            };
            if param_idx == path.0 {
                let mut t = self.unpack_sigmas(*dom);
                for &k in &path.1 {
                    t = match self.resolve_shallow(&t) {
                        Ty::Tuple(ts) if k < ts.len() => self.unpack_sigmas(ts[k].clone()),
                        _ => {
                            self.ctx.truncate(mark.0);
                            self.pending.truncate(mark.1);
                            return Ok(());
                        }
                    };
                }
                scrut = Some(t);
            }
            ty = *cod;
        }
        if let Some(scrut_ty) = scrut {
            self.emit_unreachable(&scrut_ty, &covered, f.name.span)?;
        }
        self.scope_end(mark);
        Ok(())
    }

    fn val_decl(
        &mut self,
        v: &sast::ValDecl,
        vals: &mut Vals,
        scope: &Scope,
    ) -> Result<(), ElabError> {
        let ty = match &v.anno {
            Some(anno) => {
                let env = self.env;
                let mut conv = Converter::new(&env.families, &mut self.gen);
                let mut want = conv
                    .convert_dtype(anno, scope)
                    .map_err(|e| ElabError::new(e.message, e.span))?;
                // For a non-branching right-hand side, open the annotation's
                // Σ quantifiers with instantiation variables before checking:
                // the variables stay linked to the actual value's indices
                // (needed for `val pa : [s:nat] ... array(s) = array(n, x)`).
                // A branching right-hand side picks a different witness per
                // branch, so the Σ must stay packed and the binding is
                // abstract.
                let branching =
                    matches!(&v.expr, sast::Expr::If(_, _, _, _) | sast::Expr::Case(_, _, _));
                if !branching {
                    while let Ty::Sigma(b, body) = self.resolve_shallow(&want) {
                        let (guard, inner) = self.open_existential(&b, &body, None);
                        self.emit(ObKind::Guard, v.span, guard);
                        want = inner;
                    }
                }
                self.check(&v.expr, &want, vals, scope)?;
                want
            }
            None => self.synth(&v.expr, vals, scope)?,
        };
        self.bind_pattern(&v.pat, &ty, vals)?;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Patterns.
    // -----------------------------------------------------------------

    /// Binds a pattern against a type: pushes hypothesis equations and
    /// universal variables, and extends `vals` with the bound variables.
    fn bind_pattern(&mut self, p: &sast::Pat, ty: &Ty, vals: &mut Vals) -> Result<(), ElabError> {
        let ty = self.unpack_sigmas(ty.clone());
        match p {
            sast::Pat::Wild(_) => Ok(()),
            sast::Pat::Var(id) if self.env.is_constructor(&id.name) => {
                self.bind_con_pattern(id, None, &ty, vals)
            }
            sast::Pat::Var(id) => {
                // Replace every index of the type by a fresh universal
                // variable with a defining hypothesis (the paper's "ys is
                // assumed to be of type 'a list(n)" step).
                let bound_ty = self.generalize_indices(&ty, &id.name);
                vals.insert(id.name.clone(), Scheme::mono(bound_ty));
                Ok(())
            }
            sast::Pat::Int(n, _) => {
                if let Ty::App(name, _, ixs) = &ty {
                    if name == "int" {
                        if let Some(Ix::Int(i)) = ixs.first() {
                            self.push_hyp(Prop::eq(i.clone(), IExp::lit(*n)));
                        }
                    }
                }
                Ok(())
            }
            sast::Pat::Bool(b, _) => {
                if let Ty::App(name, _, ixs) = &ty {
                    if name == "bool" {
                        if let Some(Ix::Bool(q)) = ixs.first() {
                            let q = q.clone();
                            self.push_hyp(if *b { q } else { q.negate() });
                        }
                    }
                }
                Ok(())
            }
            sast::Pat::Tuple(ps, span) => {
                if ps.is_empty() {
                    return Ok(());
                }
                match &ty {
                    Ty::Tuple(ts) if ts.len() == ps.len() => {
                        for (p, t) in ps.iter().zip(ts) {
                            self.bind_pattern(p, t, vals)?;
                        }
                        Ok(())
                    }
                    // Opaque scrutinee: components are opaque too.
                    Ty::Rigid(n) if n.starts_with("_u") => {
                        for p in ps {
                            self.bind_pattern(p, &ty, vals)?;
                        }
                        Ok(())
                    }
                    other => Err(ElabError::new(
                        format!("tuple pattern of {} against `{other}`", ps.len()),
                        *span,
                    )),
                }
            }
            sast::Pat::Con(id, arg, _) => self.bind_con_pattern(id, arg.as_deref(), &ty, vals),
            sast::Pat::Anno(inner, _anno, _) => {
                // The ML-level consistency of the annotation was verified by
                // phase 1; bind the structure.
                self.bind_pattern(inner, &ty, vals)
            }
        }
    }

    /// Replaces indexed type arguments with fresh universals + equations.
    /// A pattern variable of an *unindexed* family type (a bare `int` from
    /// an unrefined annotation, say) receives fresh universal indices with
    /// no equations — the existential interpretation of the missing index —
    /// so that all occurrences of the variable share one index.
    fn generalize_indices(&mut self, ty: &Ty, base: &str) -> Ty {
        match ty {
            Ty::App(name, tys, ixs) => {
                let sorts =
                    self.env.families.get(name).map(|f| f.ix_sorts.clone()).unwrap_or_default();
                if ixs.is_empty() && sorts.is_empty() {
                    return ty.clone();
                }
                // Missing indices: invent them (universally, no equation).
                let ixs: Vec<Ix> = if ixs.is_empty() {
                    let fresh_ixs: Vec<Ix> = sorts
                        .iter()
                        .map(|s| {
                            let v = self.gen.fresh(base);
                            match s {
                                sast::Sort::Bool => {
                                    self.push_uni(v.clone(), Sort::Bool);
                                    Ix::Bool(Prop::BVar(v))
                                }
                                other => {
                                    self.push_uni(v.clone(), Sort::Int);
                                    if matches!(other, sast::Sort::Nat) {
                                        self.push_hyp(Prop::le(IExp::lit(0), IExp::var(v.clone())));
                                    }
                                    Ix::Int(IExp::var(v))
                                }
                            }
                        })
                        .collect();
                    return Ty::App(name.clone(), tys.clone(), fresh_ixs);
                } else {
                    ixs.clone()
                };
                let mut new_ixs = Vec::with_capacity(ixs.len());
                for (k, ix) in ixs.iter().enumerate() {
                    match ix {
                        Ix::Int(e) => {
                            let v = self.gen.fresh(base);
                            self.push_uni(v.clone(), Sort::Int);
                            // Family sort knowledge (e.g. nat) is a sound
                            // hypothesis about the actual value's index.
                            if matches!(sorts.get(k), Some(sast::Sort::Nat)) {
                                self.push_hyp(Prop::le(IExp::lit(0), IExp::var(v.clone())));
                            }
                            self.push_equation_hyp(e.clone(), IExp::var(v.clone()));
                            new_ixs.push(Ix::Int(IExp::var(v)));
                        }
                        Ix::Bool(q) => {
                            let v = self.gen.fresh(base);
                            self.push_uni(v.clone(), Sort::Bool);
                            let b = Prop::BVar(v.clone());
                            // q <-> b as two hypotheses.
                            self.push_hyp(q.clone().negate().or(b.clone()));
                            self.push_hyp(b.clone().negate().or(q.clone()));
                            new_ixs.push(Ix::Bool(b));
                        }
                    }
                }
                Ty::App(name.clone(), tys.clone(), new_ixs)
            }
            other => other.clone(),
        }
    }

    /// Match exhaustiveness with refinements: for every constructor of the
    /// scrutinee's datatype that no arm covers, emit an
    /// [`ObKind::Unreachable`] obligation — `false` must follow from the
    /// hypotheses plus the constructor's index equations. A provable
    /// obligation means the missing arm can never be reached (the paper's
    /// tag-check-elimination reasoning applied to `case`); an unproven one
    /// is reported as a non-exhaustiveness warning by the pipeline.
    fn check_exhaustiveness(
        &mut self,
        scrut_ty: &Ty,
        arms: &[(sast::Pat, sast::Expr)],
        span: Span,
    ) -> Result<(), ElabError> {
        let mut covered: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (p, _) in arms {
            match p {
                sast::Pat::Con(c, _, _) => {
                    covered.insert(c.name.clone());
                }
                sast::Pat::Var(c) if self.env.is_constructor(&c.name) => {
                    covered.insert(c.name.clone());
                }
                // A catch-all (variable/wildcard) or a literal pattern makes
                // the analysis give up (trivially exhaustive resp. outside
                // the constructor lattice).
                _ => return Ok(()),
            }
        }
        self.emit_unreachable(scrut_ty, &covered, span)
    }

    /// Emits, at `span`, one [`ObKind::Unreachable`] obligation for every
    /// constructor of the scrutinee's datatype missing from `covered`, in
    /// declaration order. Nothing is emitted when the scrutinee is not a
    /// datatype.
    fn emit_unreachable(
        &mut self,
        scrut_ty: &Ty,
        covered: &std::collections::HashSet<String>,
        span: Span,
    ) -> Result<(), ElabError> {
        let Ty::App(dt_name, _, _) = self.resolve_shallow(scrut_ty) else {
            return Ok(());
        };
        let Some(info) = self.env.datatypes.get(&dt_name).cloned() else {
            return Ok(());
        };
        for con in info.cons.iter().filter(|con| !covered.contains(*con)) {
            let mark = self.scope_begin();
            let id = sast::Ident::synth(con);
            let arg = self.env.cons[con].arg.is_some().then_some(sast::Pat::Wild(span));
            // Assume the scrutinee *is* this constructor; its index
            // equations become hypotheses under which `false` must hold.
            let mut scratch = Vals::new();
            self.bind_con_pattern(&id, arg.as_ref(), scrut_ty, &mut scratch)?;
            self.emit(ObKind::Unreachable { con: con.clone() }, span, Prop::False);
            self.scope_end(mark);
        }
        Ok(())
    }

    fn bind_con_pattern(
        &mut self,
        id: &sast::Ident,
        arg: Option<&sast::Pat>,
        scrut_ty: &Ty,
        vals: &mut Vals,
    ) -> Result<(), ElabError> {
        let con =
            self.env.cons.get(&id.name).ok_or_else(|| {
                ElabError::new(format!("unknown constructor `{}`", id.name), id.span)
            })?;
        let con = con.clone();
        let (dt_tyargs, dt_ixs) = match &self.resolve_shallow(scrut_ty) {
            Ty::App(name, tys, ixs) if *name == con.datatype => (tys.clone(), ixs.clone()),
            // Opaque scrutinee (see `coerce`) or unresolved metavariable:
            // instantiate the datatype's parameters with fresh
            // metavariables and learn nothing about indices.
            Ty::Rigid(n) if n.starts_with("_u") => {
                let metas: Vec<Ty> = con.tyvars.iter().map(|_| self.fresh_meta()).collect();
                (metas, Vec::new())
            }
            Ty::Meta(_) => {
                let metas: Vec<Ty> = con.tyvars.iter().map(|_| self.fresh_meta()).collect();
                (metas, Vec::new())
            }
            other => {
                return Err(ElabError::new(
                    format!(
                        "constructor `{}` of `{}` matched against `{other}`",
                        id.name, con.datatype
                    ),
                    id.span,
                ))
            }
        };
        // Instantiate the constructor's type variables with the scrutinee's.
        let mut arg_ty = con.arg.clone();
        let mut result = con.result.clone();
        for (tv, t) in con.tyvars.iter().zip(&dt_tyargs) {
            arg_ty = arg_ty.map(|a| a.subst_rigid(tv, t));
            result = result.subst_rigid(tv, t);
        }
        // Open the index binder universally: matching *reveals* the hidden
        // indices; the guard is a sound hypothesis.
        let (guard, opened, fresh) = self.open_binder(
            &con.binder,
            &Ty::Tuple(vec![arg_ty.clone().unwrap_or_else(Ty::unit), result.clone()]),
            None,
        );
        let (arg_ty, result) = match opened {
            Ty::Tuple(mut ts) if ts.len() == 2 => {
                let r = ts.pop().expect("two");
                let a = ts.pop().expect("two");
                (if con.arg.is_some() { Some(a) } else { None }, r)
            }
            _ => unreachable!("opened a 2-tuple"),
        };
        for (v, s) in fresh {
            self.push_uni(v, s);
        }
        self.push_hyp(guard);
        // Hypothesis equations between the constructor's result indices and
        // the scrutinee's indices (if the scrutinee is indexed).
        if let Ty::App(_, _, con_ixs) = &result {
            for (ci, si) in con_ixs.iter().zip(&dt_ixs) {
                match (ci, si) {
                    (Ix::Int(a), Ix::Int(b)) => self.push_equation_hyp(a.clone(), b.clone()),
                    (Ix::Bool(a), Ix::Bool(b)) => {
                        self.push_hyp(a.clone().negate().or(b.clone()));
                        self.push_hyp(b.clone().negate().or(a.clone()));
                    }
                    _ => {}
                }
            }
        }
        match (arg, arg_ty) {
            (Some(p), Some(at)) => self.bind_pattern(p, &at, vals),
            (None, None) => Ok(()),
            (Some(_), None) => {
                Err(ElabError::new(format!("constructor `{}` takes no argument", id.name), id.span))
            }
            (None, Some(_)) => Err(ElabError::new(
                format!("constructor `{}` expects an argument", id.name),
                id.span,
            )),
        }
    }

    // -----------------------------------------------------------------
    // Checking.
    // -----------------------------------------------------------------

    fn check(
        &mut self,
        e: &sast::Expr,
        want: &Ty,
        vals: &Vals,
        scope: &Scope,
    ) -> Result<(), ElabError> {
        let want = self.resolve_shallow(want);
        // Branching constructs distribute the expected type into their
        // branches *before* any Σ in `want` is opened, so that each branch
        // chooses its own existential witness (filter's `nil` and `::`
        // branches pick different lengths for the same `[n:nat | n <= m]`).
        if !matches!(
            e,
            sast::Expr::If(_, _, _, _)
                | sast::Expr::Case(_, _, _)
                | sast::Expr::Let(_, _, _)
                | sast::Expr::Seq(_, _)
        ) {
            match &want {
                Ty::Pi(b, body) => {
                    let inner = self.open_universal(b, body, None);
                    return self.check(e, &inner, vals, scope);
                }
                Ty::Sigma(b, body) => {
                    let (guard, inner) = self.open_existential(b, body, None);
                    self.check(e, &inner, vals, scope)?;
                    self.emit(ObKind::Guard, e.span(), guard);
                    return Ok(());
                }
                Ty::Meta(_) => {
                    let got = self.synth(e, vals, scope)?;
                    return self.coerce(&got, &want, e.span());
                }
                _ => {}
            }
        }
        match e {
            sast::Expr::If(c, t, f, _) => {
                let cond = self.synth_cond(c, vals, scope)?;
                self.record_site(SiteRole::IfCond, c.span(), cond.clone());
                let mark = self.scope_begin();
                if let Some(p) = &cond {
                    self.push_hyp(p.clone());
                }
                self.check(t, &want, vals, scope)?;
                self.scope_end(mark);
                if let Some(p) = &cond {
                    self.push_hyp(p.clone().negate());
                }
                self.check(f, &want, vals, scope)?;
                self.scope_end(mark);
                Ok(())
            }
            sast::Expr::Case(scrut, arms, span) => {
                let st = self.synth(scrut, vals, scope)?;
                let st = self.unpack_sigmas(st);
                for (p, body) in arms {
                    let mark = self.scope_begin();
                    let mut avals = vals.child();
                    self.bind_pattern(p, &st, &mut avals)?;
                    self.record_site(SiteRole::CaseArm { con: self.arm_con(p) }, p.span(), None);
                    self.check(body, &want, &avals, scope)?;
                    self.scope_end(mark);
                }
                self.check_exhaustiveness(&st, arms, *span)?;
                Ok(())
            }
            sast::Expr::Let(decls, body, _) => {
                let mut lvals = vals.child();
                for d in decls {
                    self.decl(d, &mut lvals, scope)?;
                }
                self.check(body, &want, &lvals, scope)
            }
            sast::Expr::Seq(es, _) => {
                let (last, init) = es.split_last().expect("parser ensures non-empty");
                for x in init {
                    self.synth(x, vals, scope)?;
                }
                self.check(last, &want, vals, scope)
            }
            sast::Expr::Tuple(es, span) => match &want {
                Ty::Tuple(ts) if ts.len() == es.len() => {
                    for (x, t) in es.iter().zip(ts) {
                        self.check(x, t, vals, scope)?;
                    }
                    Ok(())
                }
                Ty::App(u, _, _) if u == "unit" && es.is_empty() => Ok(()),
                other => {
                    if es.is_empty() && matches!(other, Ty::Meta(_)) {
                        let got = Ty::unit();
                        return self.coerce(&got, &want, *span);
                    }
                    Err(ElabError::new(
                        format!("tuple of {} checked against `{other}`", es.len()),
                        *span,
                    ))
                }
            },
            sast::Expr::Fn(arms, span) => match &want {
                Ty::Arrow(dom, cod) => {
                    for (p, body) in arms {
                        let mark = self.scope_begin();
                        let mut avals = vals.child();
                        self.bind_pattern(p, dom, &mut avals)?;
                        self.check(body, cod, &avals, scope)?;
                        self.scope_end(mark);
                    }
                    Ok(())
                }
                other => Err(ElabError::new(
                    format!("fn expression checked against non-function `{other}`"),
                    *span,
                )),
            },
            sast::Expr::Anno(inner, anno, span) => {
                let env = self.env;
                let mut conv = Converter::new(&env.families, &mut self.gen);
                let t = conv
                    .convert_dtype(anno, scope)
                    .map_err(|e| ElabError::new(e.message, e.span))?;
                self.check(inner, &t, vals, scope)?;
                self.coerce(&t, &want, *span)
            }
            // `raise` inhabits every type; it imposes no constraints.
            sast::Expr::Raise(_, _) => Ok(()),
            sast::Expr::Handle(body, arms, _) => {
                // Handlers run with none of the body's hypotheses (the body
                // aborted at an unknown point), so each checks in its own
                // scope.
                self.check(body, &want, vals, scope)?;
                for (_, h) in arms {
                    let mark = self.scope_begin();
                    self.check(h, &want, vals, scope)?;
                    self.scope_end(mark);
                }
                Ok(())
            }
            _ => {
                let got = self.synth(e, vals, scope)?;
                self.coerce(&got, &want, e.span())
            }
        }
    }

    // -----------------------------------------------------------------
    // Synthesis.
    // -----------------------------------------------------------------

    fn synth(&mut self, e: &sast::Expr, vals: &Vals, scope: &Scope) -> Result<Ty, ElabError> {
        match e {
            sast::Expr::Var(id) => self.lookup(id, vals),
            sast::Expr::Int(n, _) => Ok(Ty::int_singleton(IExp::lit(*n))),
            sast::Expr::Bool(b, _) => {
                Ok(Ty::bool_singleton(if *b { Prop::True } else { Prop::False }))
            }
            sast::Expr::App(f, a, span) => {
                let (fun_ty, callee) = match f.as_ref() {
                    sast::Expr::Var(id) => (self.lookup(id, vals)?, Some(id.name.clone())),
                    other => (self.synth(other, vals, scope)?, None),
                };
                self.apply(fun_ty, callee.as_deref(), a, *span, vals, scope)
            }
            sast::Expr::Tuple(es, _) => {
                if es.is_empty() {
                    return Ok(Ty::unit());
                }
                let ts =
                    es.iter().map(|x| self.synth(x, vals, scope)).collect::<Result<Vec<_>, _>>()?;
                Ok(Ty::Tuple(ts))
            }
            sast::Expr::If(c, t, f, _) => {
                let cond = self.synth_cond(c, vals, scope)?;
                self.record_site(SiteRole::IfCond, c.span(), cond.clone());
                let mark = self.scope_begin();
                if let Some(p) = &cond {
                    self.push_hyp(p.clone());
                }
                let tt = self.synth(t, vals, scope)?;
                let tt = self.zonk(&tt);
                self.scope_end(mark);
                if let Some(p) = &cond {
                    self.push_hyp(p.clone().negate());
                }
                let ft = self.synth(f, vals, scope)?;
                let ft = self.zonk(&ft);
                self.scope_end(mark);
                // Join by erasing refinements (sound; annotated code uses
                // checking mode and keeps full precision).
                if tt == ft {
                    Ok(tt)
                } else {
                    let lifted = self.env.lift(&erase(&tt), &mut self.gen);
                    let _ = ft;
                    Ok(lifted)
                }
            }
            sast::Expr::Case(scrut, arms, span) => {
                let st = self.synth(scrut, vals, scope)?;
                let st = self.unpack_sigmas(st);
                self.check_exhaustiveness(&st, arms, *span)?;
                let mut out: Option<Ty> = None;
                for (p, body) in arms {
                    let mark = self.scope_begin();
                    let mut avals = vals.child();
                    self.bind_pattern(p, &st, &mut avals)?;
                    self.record_site(SiteRole::CaseArm { con: self.arm_con(p) }, p.span(), None);
                    let bt = self.synth(body, &avals, scope)?;
                    let bt = self.zonk(&bt);
                    self.scope_end(mark);
                    out = Some(match out {
                        None => bt,
                        Some(prev) if prev == bt => prev,
                        Some(prev) => self.env.lift(&erase(&prev), &mut self.gen),
                    });
                }
                out.ok_or_else(|| ElabError::new("empty case expression", *span))
            }
            sast::Expr::Let(decls, body, _) => {
                let mut lvals = vals.child();
                for d in decls {
                    self.decl(d, &mut lvals, scope)?;
                }
                self.synth(body, &lvals, scope)
            }
            sast::Expr::Seq(es, _) => {
                let (last, init) = es.split_last().expect("parser ensures non-empty");
                for x in init {
                    self.synth(x, vals, scope)?;
                }
                self.synth(last, vals, scope)
            }
            sast::Expr::Anno(inner, anno, _) => {
                let env = self.env;
                let mut conv = Converter::new(&env.families, &mut self.gen);
                let t = conv
                    .convert_dtype(anno, scope)
                    .map_err(|e| ElabError::new(e.message, e.span))?;
                self.check(inner, &t, vals, scope)?;
                Ok(t)
            }
            sast::Expr::Andalso(a, b, _) => {
                // Short-circuit refinement: the right operand elaborates
                // under the left's truth (its accesses may be guarded by
                // it, e.g. `r < m andalso sub(a, r) > x`). The hypothesis
                // is scoped to the operand: obligations discovered inside
                // flush against it, then it is neutralised so it cannot
                // leak to later goals (the whole conjunction may be false).
                let pa = self.synth_cond(a, vals, scope)?;
                let hyp_idx = pa.as_ref().map(|p| {
                    // Unconditional push so the index is always valid.
                    self.ctx.push(Entry::Hyp(p.clone()));
                    self.ctx.len() - 1
                });
                let pmark = self.pending.len();
                let pb = self.synth_cond(b, vals, scope)?;
                self.flush_pending(pmark);
                if let Some(i) = hyp_idx {
                    self.ctx[i] = Entry::Hyp(Prop::True);
                }
                Ok(match (pa, pb) {
                    (Some(p), Some(q)) => Ty::bool_singleton(p.and(q)),
                    _ => Ty::bool(),
                })
            }
            sast::Expr::Orelse(a, b, _) => {
                // Dually, the right operand runs only when the left is
                // false.
                let pa = self.synth_cond(a, vals, scope)?;
                let hyp_idx = pa.as_ref().map(|p| {
                    self.ctx.push(Entry::Hyp(p.clone().negate()));
                    self.ctx.len() - 1
                });
                let pmark = self.pending.len();
                let pb = self.synth_cond(b, vals, scope)?;
                self.flush_pending(pmark);
                if let Some(i) = hyp_idx {
                    self.ctx[i] = Entry::Hyp(Prop::True);
                }
                Ok(match (pa, pb) {
                    (Some(p), Some(q)) => Ty::bool_singleton(p.or(q)),
                    _ => Ty::bool(),
                })
            }
            sast::Expr::Fn(_, span) => Err(ElabError::new(
                "fn expressions need a checking context (apply an annotation)",
                *span,
            )),
            sast::Expr::Raise(_, _) => Ok(self.fresh_meta()),
            sast::Expr::Handle(body, arms, _) => {
                let bt = self.synth(body, vals, scope)?;
                let bt = self.zonk(&bt);
                let mut out = bt.clone();
                for (_, h) in arms {
                    let mark = self.scope_begin();
                    let ht = self.synth(h, vals, scope)?;
                    let ht = self.zonk(&ht);
                    self.scope_end(mark);
                    if ht != out {
                        // Join by erasure, as for if/case in synthesis mode.
                        out = self.env.lift(&erase(&out), &mut self.gen);
                    }
                }
                Ok(out)
            }
        }
    }

    /// Synthesises a boolean condition, returning its refinement if any.
    fn synth_cond(
        &mut self,
        e: &sast::Expr,
        vals: &Vals,
        scope: &Scope,
    ) -> Result<Option<Prop>, ElabError> {
        let t = self.synth(e, vals, scope)?;
        let t = self.unpack_sigmas(t);
        match t {
            Ty::App(name, _, ixs) if name == "bool" => match ixs.into_iter().next() {
                Some(Ix::Bool(p)) => Ok(Some(p)),
                _ => Ok(None),
            },
            _ => Ok(None),
        }
    }

    fn lookup(&mut self, id: &sast::Ident, vals: &Vals) -> Result<Ty, ElabError> {
        if let Some(s) = vals.get(&id.name) {
            let s = s.clone();
            return Ok(self.instantiate(&s));
        }
        if self.env.is_constructor(&id.name) {
            return Ok(self.con_type(&id.name));
        }
        if let Some(vi) = self.env.values.get(&id.name) {
            let s = vi.scheme.clone();
            return Ok(self.instantiate(&s));
        }
        Err(ElabError::new(format!("unbound variable `{}`", id.name), id.span))
    }

    fn con_type(&mut self, name: &str) -> Ty {
        let con = self.env.cons[name].clone();
        let mut arg = con.arg.clone();
        let mut result = con.result.clone();
        for tv in &con.tyvars {
            let m = self.fresh_meta();
            arg = arg.map(|a| a.subst_rigid(tv, &m));
            result = result.subst_rigid(tv, &m);
        }
        let body = match arg {
            Some(a) => Ty::Arrow(Box::new(a), Box::new(result)),
            None => result,
        };
        let ty = if con.binder.vars.is_empty() {
            body
        } else {
            Ty::Pi(con.binder.clone(), Box::new(body))
        };
        ty.refresh(&mut self.gen)
    }

    /// Applies `fun_ty` to `arg`: peels Π (existential instantiation) and
    /// Σ (universal unpacking), checks the argument, then emits the
    /// instantiated guards as obligations.
    fn apply(
        &mut self,
        fun_ty: Ty,
        callee: Option<&str>,
        arg: &sast::Expr,
        span: Span,
        vals: &Vals,
        scope: &Scope,
    ) -> Result<Ty, ElabError> {
        let mut ty = self.resolve_shallow(&fun_ty);
        let mut guards: Vec<Prop> = Vec::new();
        loop {
            match ty {
                Ty::Pi(b, body) => {
                    let (guard, bd) = self.open_existential(&b, &body, None);
                    if guard != Prop::True {
                        guards.push(guard);
                    }
                    ty = self.resolve_shallow(&bd);
                }
                Ty::Sigma(b, body) => {
                    ty = self.open_universal(&b, &body, None);
                    ty = self.resolve_shallow(&ty);
                }
                other => {
                    ty = other;
                    break;
                }
            }
        }
        let Ty::Arrow(dom, cod) = ty else {
            return Err(ElabError::new(format!("applied a non-function of type `{ty}`"), span));
        };
        self.check(arg, &dom, vals, scope)?;
        let kind = self.guard_kind(callee);
        for g in guards {
            self.emit(kind.clone(), span, g);
        }
        Ok(*cod)
    }

    fn guard_kind(&self, callee: Option<&str>) -> ObKind {
        match callee {
            Some(name) => match self.env.values.get(name).map(|v| v.check) {
                Some(CheckKind::ArrayBound) => {
                    ObKind::Bound { prim: name.to_string(), check: CheckKind::ArrayBound }
                }
                Some(CheckKind::ListTag) => {
                    ObKind::Bound { prim: name.to_string(), check: CheckKind::ListTag }
                }
                Some(CheckKind::DivZero) => ObKind::DivGuard,
                _ => ObKind::Guard,
            },
            None => ObKind::Guard,
        }
    }

    // -----------------------------------------------------------------
    // Coercion (index subtyping).
    // -----------------------------------------------------------------

    /// Coerces `from ≤ to`, emitting index equations as obligations (and
    /// hypotheses).
    fn coerce(&mut self, from: &Ty, to: &Ty, site: Span) -> Result<(), ElabError> {
        let from = self.resolve_shallow(from);
        let to = self.resolve_shallow(to);
        match (&from, &to) {
            (Ty::Meta(m), t) => {
                let widened = self.widen_for_meta(t);
                self.metas.insert(*m, widened);
                Ok(())
            }
            (t, Ty::Meta(m)) => {
                let widened = self.widen_for_meta(t);
                self.metas.insert(*m, widened);
                Ok(())
            }
            // Opaque rigids (`_uN`) stand for phase-1 unification variables
            // that stayed unresolved inside a local binding's recorded
            // scheme. They carry no index information, so coercion is
            // allowed without obligations (fail-safe: nothing is proven
            // from them).
            (Ty::Rigid(n), _) | (_, Ty::Rigid(n)) if n.starts_with("_u") => Ok(()),
            (Ty::Sigma(b, body), _) => {
                let inner = self.open_universal(b, body, None);
                self.coerce(&inner, &to, site)
            }
            (_, Ty::Sigma(b, body)) => {
                let (guard, inner) = self.open_existential(b, body, None);
                self.coerce(&from, &inner, site)?;
                self.emit(ObKind::Guard, site, guard);
                Ok(())
            }
            (_, Ty::Pi(b, body)) => {
                let inner = self.open_universal(b, body, None);
                self.coerce(&from, &inner, site)
            }
            (Ty::Pi(b, body), _) => {
                let (guard, inner) = self.open_existential(b, body, None);
                self.coerce(&inner, &to, site)?;
                self.emit(ObKind::Guard, site, guard);
                Ok(())
            }
            (Ty::Rigid(a), Ty::Rigid(b2)) if a == b2 => Ok(()),
            (Ty::App(n1, ts1, ixs1), Ty::App(n2, ts2, ixs2)) if n1 == n2 => {
                for (a, b) in ts1.iter().zip(ts2) {
                    self.coerce(a, b, site)?;
                }
                self.coerce_indices(n1, ixs1, ixs2, site);
                Ok(())
            }
            (Ty::Tuple(xs), Ty::Tuple(ys)) if xs.len() == ys.len() => {
                for (a, b) in xs.iter().zip(ys) {
                    self.coerce(a, b, site)?;
                }
                Ok(())
            }
            (Ty::Arrow(a1, b1), Ty::Arrow(a2, b2)) => {
                self.coerce(a2, a1, site)?;
                self.coerce(b1, b2, site)
            }
            (f, t) => Err(ElabError::new(format!("cannot coerce `{f}` to `{t}`"), site)),
        }
    }

    /// Widens a type before it becomes a metavariable instantiation: a
    /// top-level `int(e)`/`bool(p)` singleton loses its specific index
    /// (becoming the existential `[a] int(a)`), because the instantiation
    /// must also cover *other* values flowing into the same type variable
    /// (the elements of a `::`-chain, say). Compound indexed types such as
    /// `int array(n)` stay exact — that is what propagates row lengths
    /// through `sub` in `matmult`.
    fn widen_for_meta(&mut self, t: &Ty) -> Ty {
        match t {
            Ty::App(name, tys, ixs) if name == "int" && !ixs.is_empty() => {
                let a = self.gen.fresh("a");
                let _ = tys;
                Ty::Sigma(
                    Binder::new(vec![(a.clone(), Sort::Int)]),
                    Box::new(Ty::int_singleton(IExp::var(a))),
                )
            }
            Ty::App(name, _, ixs) if name == "bool" && !ixs.is_empty() => {
                let b = self.gen.fresh("b");
                Ty::Sigma(
                    Binder::new(vec![(b.clone(), Sort::Bool)]),
                    Box::new(Ty::bool_singleton(Prop::BVar(b))),
                )
            }
            other => other.clone(),
        }
    }

    /// Emits the index equations of a family coercion. When one side is
    /// unindexed, the unknown side is represented by fresh universal
    /// variables (the existential interpretation of unindexed types).
    fn coerce_indices(&mut self, fam: &str, from: &[Ix], to: &[Ix], site: Span) {
        if to.is_empty() {
            return; // target forgets the index: always allowed
        }
        if from.is_empty() {
            // Source index unknown: introduce it universally.
            let sorts = self.env.families.get(fam).map(|f| f.ix_sorts.clone()).unwrap_or_default();
            let mut fresh_from = Vec::with_capacity(to.len());
            for (k, ix) in to.iter().enumerate() {
                match ix {
                    Ix::Int(_) => {
                        let v = self.gen.fresh("u");
                        self.push_uni(v.clone(), Sort::Int);
                        if matches!(sorts.get(k), Some(sast::Sort::Nat)) {
                            self.push_hyp(Prop::le(IExp::lit(0), IExp::var(v.clone())));
                        }
                        fresh_from.push(Ix::Int(IExp::var(v)));
                    }
                    Ix::Bool(_) => {
                        let v = self.gen.fresh("u");
                        self.push_uni(v.clone(), Sort::Bool);
                        fresh_from.push(Ix::Bool(Prop::BVar(v)));
                    }
                }
            }
            return self.emit_index_equations(&fresh_from, to, site);
        }
        self.emit_index_equations(from, to, site);
    }

    fn emit_index_equations(&mut self, from: &[Ix], to: &[Ix], site: Span) {
        for (a, b) in from.iter().zip(to) {
            match (a, b) {
                (Ix::Int(x), Ix::Int(y)) => {
                    self.emit_int_equation(site, x.clone(), y.clone());
                }
                (Ix::Bool(p), Ix::Bool(q)) => {
                    if p == q {
                        continue;
                    }
                    let fwd = p.clone().negate().or(q.clone());
                    let bwd = q.clone().negate().or(p.clone());
                    let iff = fwd.and(bwd);
                    // A bare undetermined boolean instantiation variable on
                    // either side makes the equation defining.
                    let defining = match (p, q) {
                        (Prop::BVar(v), other) | (other, Prop::BVar(v))
                            if self.exi_vars.contains(v)
                                && !self.determined.contains(v)
                                && !other.free_vars().contains(v) =>
                        {
                            Some(v.clone())
                        }
                        _ => None,
                    };
                    if let Some(v) = defining {
                        self.determined.insert(v);
                        self.push_hyp(iff);
                    } else {
                        self.ctx.push(Entry::Hyp(iff.clone()));
                        let idx = self.ctx.len() - 1;
                        self.pending.push((ObKind::TypeEq, site, iff, Some(idx)));
                    }
                }
                _ => {}
            }
        }
    }
}

/// A path to a pattern position: parameter index plus tuple-component
/// indices within that parameter.
type PatPath = (usize, Vec<usize>);

/// Finds the unique constructor-scrutinee path of a clause group, if any:
/// every clause must have a constructor pattern at that path and
/// irrefutable patterns everywhere else.
fn single_scrutinee_path(clauses: &[sast::Clause]) -> Option<PatPath> {
    let first = clauses.first()?;
    let mut candidates: Vec<PatPath> = Vec::new();
    for (k, p) in first.params.iter().enumerate() {
        collect_con_paths(p, (k, Vec::new()), &mut candidates);
    }
    // Every clause must scrutinise the same single path.
    candidates.retain(|path| {
        clauses.iter().all(|c| {
            c.params.iter().enumerate().all(|(k, p)| pattern_ok_for_path(p, k, path))
                && matches!(
                    pattern_at_path(&c.params, path),
                    Some(sast::Pat::Con(_, _, _) | sast::Pat::Var(_))
                )
        })
    });
    if candidates.len() == 1 {
        candidates.pop()
    } else {
        None
    }
}

/// Collects paths to constructor-headed subpatterns (through tuples only).
fn collect_con_paths(p: &sast::Pat, here: PatPath, out: &mut Vec<PatPath>) {
    match p {
        sast::Pat::Con(_, _, _) => out.push(here),
        sast::Pat::Tuple(ps, _) => {
            for (k, q) in ps.iter().enumerate() {
                let mut path = here.clone();
                path.1.push(k);
                collect_con_paths(q, path, out);
            }
        }
        _ => {}
    }
}

/// The subpattern at a path, if the structure matches.
fn pattern_at_path<'p>(params: &'p [sast::Pat], path: &PatPath) -> Option<&'p sast::Pat> {
    let mut p = params.get(path.0)?;
    for &k in &path.1 {
        match p {
            sast::Pat::Tuple(ps, _) => p = ps.get(k)?,
            _ => return None,
        }
    }
    Some(p)
}

/// `true` if pattern `p` (the whole parameter `param_idx`) is compatible
/// with `path` being the only scrutinee: everything off-path must be
/// irrefutable.
fn pattern_ok_for_path(p: &sast::Pat, param_idx: usize, path: &PatPath) -> bool {
    fn go(p: &sast::Pat, here: &mut Vec<usize>, param_idx: usize, path: &PatPath) -> bool {
        let on_path = param_idx == path.0 && *here == path.1;
        match p {
            sast::Pat::Wild(_) => true,
            sast::Pat::Var(_) => true,
            sast::Pat::Anno(inner, _, _) => go(inner, here, param_idx, path),
            sast::Pat::Con(_, _, _) => on_path,
            sast::Pat::Int(_, _) | sast::Pat::Bool(_, _) => false,
            sast::Pat::Tuple(ps, _) => ps.iter().enumerate().all(|(k, q)| {
                here.push(k);
                let ok = go(q, here, param_idx, path);
                here.pop();
                ok
            }),
        }
    }
    go(p, &mut Vec::new(), param_idx, path)
}

#[cfg(test)]
mod tests;
