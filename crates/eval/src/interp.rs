//! The tree-walking interpreter.

use crate::counter::Counters;
use crate::error::EvalError;
use crate::prims;
use crate::value::{match_pattern, ClosureId, Value};
use dml_syntax::ast as sast;
use dml_syntax::Span;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Whether proven checks are actually skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every bound/tag check executes (the paper's "with checks" column).
    Checked,
    /// Checks at proven sites are skipped (the "without checks" column).
    Eliminated,
}

/// Configuration for check behaviour.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Checked vs eliminated execution.
    pub mode: Mode,
    /// Call sites (application spans) whose bound obligations were proven.
    pub proven: HashSet<Span>,
    /// Verify even eliminated accesses, turning any out-of-bounds
    /// "unchecked" access into [`EvalError::UnsoundElimination`].
    pub validate: bool,
}

impl CheckConfig {
    /// Fully-checked execution (no elimination).
    pub fn checked() -> CheckConfig {
        CheckConfig { mode: Mode::Checked, proven: HashSet::new(), validate: false }
    }

    /// Eliminated execution for the given proven sites.
    pub fn eliminated(proven: HashSet<Span>) -> CheckConfig {
        CheckConfig { mode: Mode::Eliminated, proven, validate: false }
    }

    /// Enables validation of eliminated accesses.
    pub fn with_validation(mut self) -> CheckConfig {
        self.validate = true;
        self
    }
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig::checked()
    }
}

/// A persistent (linked) environment.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

#[derive(Debug)]
struct EnvNode {
    name: String,
    value: Value,
    next: Env,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env(None)
    }

    /// Extends with one binding.
    pub fn bind(&self, name: impl Into<String>, value: Value) -> Env {
        Env(Some(Rc::new(EnvNode { name: name.into(), value, next: self.clone() })))
    }

    /// Looks up a name.
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        let mut cur = self;
        while let Env(Some(node)) = cur {
            if node.name == name {
                return Some(&node.value);
            }
            cur = &node.next;
        }
        None
    }
}

/// An arena-allocated closure: clauses plus captured environment. The
/// environment is backpatched after a recursive `fun` group is built
/// (Landin's knot) — arena indices instead of `Rc` back-references keep the
/// heap cycle-free, so machines release all memory when dropped.
#[derive(Debug)]
pub struct ClosureData {
    /// Function name, for diagnostics ("fn" for anonymous functions).
    pub name: String,
    /// Clauses: parameter patterns (curried) and body (shared with the
    /// machine's clause cache, so re-evaluating a `let fun` is cheap).
    pub clauses: Rc<Vec<sast::Clause>>,
    /// Captured environment.
    pub env: Env,
}

/// The interpreter: global environment + check configuration + counters.
#[derive(Debug)]
pub struct Machine {
    globals: Env,
    cons: HashSet<String>,
    closures: Vec<ClosureData>,
    clause_cache: HashMap<Span, Rc<Vec<sast::Clause>>>,
    /// Check behaviour; mutable so harnesses can switch modes between runs.
    pub config: CheckConfig,
    /// Check counters.
    pub counters: Counters,
    /// Deterministic abstract cost: one unit per expression evaluated and
    /// per application, plus a fixed 4 units per executed bound/tag check.
    /// Unlike wall-clock time this is bit-for-bit reproducible, so the
    /// Table 2/3 "op gain" column has no scheduler noise.
    pub ops: u64,
    fuel: Option<u64>,
}

impl Machine {
    /// Loads a program: registers its datatypes and evaluates its top-level
    /// declarations.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if a top-level `val` fails to evaluate.
    pub fn load(program: &sast::Program, config: CheckConfig) -> Result<Machine, EvalError> {
        let mut cons: HashSet<String> =
            ["nil", "::", "LESS", "EQUAL", "GREATER"].iter().map(|s| s.to_string()).collect();
        for d in &program.decls {
            if let sast::Decl::Datatype(dd) = d {
                for c in &dd.cons {
                    cons.insert(c.name.name.clone());
                }
            }
        }
        let mut m = Machine {
            globals: Env::new(),
            cons,
            closures: Vec::new(),
            clause_cache: HashMap::new(),
            config,
            counters: Counters::new(),
            ops: 0,
            fuel: None,
        };
        let mut env = m.globals.clone();
        for d in &program.decls {
            env = m.eval_decl(d, env)?;
        }
        m.globals = env;
        Ok(m)
    }

    /// Limits evaluation steps (for property tests on possibly-looping
    /// programs).
    pub fn with_fuel(mut self, fuel: u64) -> Machine {
        self.fuel = Some(fuel);
        self
    }

    /// `true` if `name` is a datatype constructor.
    pub fn is_constructor(&self, name: &str) -> bool {
        self.cons.contains(name)
    }

    /// Looks up a global binding.
    pub fn global(&self, name: &str) -> Option<Value> {
        self.globals.lookup(name).cloned()
    }

    /// Calls a global function with the given (curried) arguments.
    ///
    /// # Errors
    ///
    /// Propagates any run-time error from the callee.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let mut f = self
            .global(name)
            .ok_or_else(|| EvalError::Unbound(name.to_string(), Span::default()))?;
        for a in args {
            f = self.apply(f, a, Span::default())?;
        }
        Ok(f)
    }

    fn burn(&mut self) -> Result<(), EvalError> {
        if let Some(f) = &mut self.fuel {
            if *f == 0 {
                return Err(EvalError::OutOfFuel);
            }
            *f -= 1;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Declarations.
    // -----------------------------------------------------------------

    fn eval_decl(&mut self, d: &sast::Decl, env: Env) -> Result<Env, EvalError> {
        match d {
            sast::Decl::Datatype(_)
            | sast::Decl::Typeref(_)
            | sast::Decl::Assert(_)
            | sast::Decl::Exception(_) => Ok(env),
            sast::Decl::Fun(funs) => Ok(self.bind_fun_group(funs, env)),
            sast::Decl::Val(v) => {
                let value = self.eval(&v.expr, &env)?;
                let mut bindings = Vec::new();
                let cons = self.cons.clone();
                if !match_pattern(&v.pat, &value, &|n| cons.contains(n), &mut bindings) {
                    return Err(EvalError::MatchFailure(v.span));
                }
                let mut env = env;
                for (n, val) in bindings {
                    env = env.bind(n, val);
                }
                Ok(env)
            }
        }
    }

    /// Shared (cached) clause vector for a function declaration or `fn`
    /// expression, keyed by its source span.
    fn cached_clauses(
        &mut self,
        key: Span,
        build: impl FnOnce() -> Vec<sast::Clause>,
    ) -> Rc<Vec<sast::Clause>> {
        self.clause_cache.entry(key).or_insert_with(|| Rc::new(build())).clone()
    }

    fn alloc_closure(
        &mut self,
        name: String,
        clauses: Rc<Vec<sast::Clause>>,
        env: Env,
    ) -> ClosureId {
        let id = self.closures.len() as ClosureId;
        self.closures.push(ClosureData { name, clauses, env });
        id
    }

    /// Builds the closures of a (mutually recursive) `fun` group and ties
    /// the recursive knot by backpatching their captured environments.
    fn bind_fun_group(&mut self, funs: &[sast::FunDecl], env: Env) -> Env {
        let ids: Vec<ClosureId> = funs
            .iter()
            .map(|f| {
                let clauses = self.cached_clauses(f.name.span, || f.clauses.clone());
                self.alloc_closure(f.name.name.clone(), clauses, env.clone())
            })
            .collect();
        let mut new_env = env;
        for (f, id) in funs.iter().zip(&ids) {
            new_env = new_env.bind(f.name.name.clone(), Value::Closure(*id));
        }
        for id in ids {
            self.closures[id as usize].env = new_env.clone();
        }
        new_env
    }

    // -----------------------------------------------------------------
    // Expressions.
    // -----------------------------------------------------------------

    /// Evaluates an expression in an environment.
    ///
    /// # Errors
    ///
    /// Returns the first run-time error.
    pub fn eval(&mut self, e: &sast::Expr, env: &Env) -> Result<Value, EvalError> {
        self.burn()?;
        self.ops += 1;
        match e {
            sast::Expr::Var(id) => {
                if let Some(v) = env.lookup(&id.name) {
                    return Ok(v.clone());
                }
                if self.cons.contains(&id.name) {
                    // Nullary constructors are values; unary ones are
                    // functions. We cannot know the arity here, so nullary
                    // is the default and `ConFn` is produced on demand by
                    // application of a constructor name — instead, produce
                    // `ConFn` and let pattern/match code treat a `ConFn`
                    // that is never applied as the nullary constructor.
                    // Simpler and correct: unary constructors only ever
                    // appear applied, so a bare constructor name denotes
                    // the nullary value.
                    return Ok(Value::Con(Rc::from(id.name.as_str()), None));
                }
                if prims::is_prim(&id.name) {
                    return Ok(Value::Prim(prims::intern(&id.name)));
                }
                Err(EvalError::Unbound(id.name.clone(), id.span))
            }
            sast::Expr::Int(n, _) => Ok(Value::Int(*n)),
            sast::Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            sast::Expr::App(f, a, span) => {
                // Constructor application is recognised syntactically so
                // that unary constructors work as expected.
                if let sast::Expr::Var(id) = f.as_ref() {
                    if self.cons.contains(&id.name) && env.lookup(&id.name).is_none() {
                        let arg = self.eval(a, env)?;
                        return Ok(Value::Con(Rc::from(id.name.as_str()), Some(Rc::new(arg))));
                    }
                }
                let fv = self.eval(f, env)?;
                let av = self.eval(a, env)?;
                self.apply(fv, av, *span)
            }
            sast::Expr::Tuple(es, _) => {
                if es.is_empty() {
                    return Ok(Value::Unit);
                }
                let vs = es.iter().map(|x| self.eval(x, env)).collect::<Result<Vec<_>, _>>()?;
                Ok(Value::Tuple(Rc::new(vs)))
            }
            sast::Expr::If(c, t, f, span) => match self.eval(c, env)? {
                Value::Bool(true) => self.eval(t, env),
                Value::Bool(false) => self.eval(f, env),
                other => {
                    Err(EvalError::Type(format!("if condition evaluated to `{other}`"), *span))
                }
            },
            sast::Expr::Case(scrut, arms, span) => {
                let v = self.eval(scrut, env)?;
                let cons = self.cons.clone();
                for (p, body) in arms {
                    let mut bindings = Vec::new();
                    if match_pattern(p, &v, &|n| cons.contains(n), &mut bindings) {
                        let mut aenv = env.clone();
                        for (n, val) in bindings {
                            aenv = aenv.bind(n, val);
                        }
                        return self.eval(body, &aenv);
                    }
                }
                Err(EvalError::MatchFailure(*span))
            }
            sast::Expr::Let(decls, body, _) => {
                let mut lenv = env.clone();
                for d in decls {
                    lenv = self.eval_decl(d, lenv)?;
                }
                self.eval(body, &lenv)
            }
            sast::Expr::Fn(arms, span) => {
                let clauses = self.cached_clauses(*span, || {
                    arms.iter()
                        .map(|(p, b)| sast::Clause { params: vec![p.clone()], body: b.clone() })
                        .collect()
                });
                Ok(Value::Closure(self.alloc_closure("fn".to_string(), clauses, env.clone())))
            }
            sast::Expr::Seq(es, _) => {
                let mut last = Value::Unit;
                for x in es {
                    last = self.eval(x, env)?;
                }
                Ok(last)
            }
            sast::Expr::Anno(inner, _, _) => self.eval(inner, env),
            sast::Expr::Andalso(a, b, span) => match self.eval(a, env)? {
                Value::Bool(false) => Ok(Value::Bool(false)),
                Value::Bool(true) => self.eval(b, env),
                other => Err(EvalError::Type(format!("andalso on `{other}`"), *span)),
            },
            sast::Expr::Orelse(a, b, span) => match self.eval(a, env)? {
                Value::Bool(true) => Ok(Value::Bool(true)),
                Value::Bool(false) => self.eval(b, env),
                other => Err(EvalError::Type(format!("orelse on `{other}`"), *span)),
            },
            sast::Expr::Raise(name, span) => Err(EvalError::Raised(name.name.clone(), *span)),
            sast::Expr::Handle(body, arms, _) => match self.eval(body, env) {
                Ok(v) => Ok(v),
                Err(e) => {
                    if let Some(exn) = e.exception_name() {
                        for (name, handler) in arms {
                            if name.name == exn {
                                return self.eval(handler, env);
                            }
                        }
                    }
                    Err(e)
                }
            },
        }
    }

    /// Applies a function value to one argument.
    ///
    /// # Errors
    ///
    /// Returns a run-time error from the callee, or a type error for
    /// non-functions.
    pub fn apply(&mut self, f: Value, arg: Value, span: Span) -> Result<Value, EvalError> {
        self.burn()?;
        self.ops += 1;
        match f {
            Value::Prim(name) => prims::apply(self, name, arg, span),
            Value::ConFn(name) => Ok(Value::Con(name, Some(Rc::new(arg)))),
            Value::Closure(id) => {
                let arity = self.arity(id);
                if arity == 1 {
                    self.run_clauses(id, &[arg], span)
                } else {
                    Ok(Value::Partial(id, Rc::new(vec![arg])))
                }
            }
            Value::Partial(id, args) => {
                let arity = self.arity(id);
                let mut all = args.as_ref().clone();
                all.push(arg);
                if all.len() == arity {
                    self.run_clauses(id, &all, span)
                } else {
                    Ok(Value::Partial(id, Rc::new(all)))
                }
            }
            other => Err(EvalError::Type(format!("applied non-function `{other}`"), span)),
        }
    }

    fn arity(&self, id: ClosureId) -> usize {
        self.closures[id as usize].clauses.first().map(|cl| cl.params.len()).unwrap_or(1)
    }

    /// Runs a saturated closure call with **tail-call optimisation**: when
    /// a clause body ends in another saturated closure call, the loop
    /// rebinds and continues instead of growing the Rust stack. This is
    /// what lets the benchmarks' tail-recursive loops iterate millions of
    /// times (`loop(i+1, n, ...)` in `dotprod`, the copy loop of `bcopy`).
    fn run_clauses(
        &mut self,
        c: ClosureId,
        args: &[Value],
        span: Span,
    ) -> Result<Value, EvalError> {
        let cons = self.cons.clone();
        let mut closure = c;
        let mut args: Vec<Value> = args.to_vec();
        'outer: loop {
            self.burn()?;
            self.ops += 1;
            let data = &self.closures[closure as usize];
            let clauses = data.clauses.clone();
            let base = data.env.clone();
            let mut selected: Option<(usize, Vec<(String, Value)>)> = None;
            for (k, clause) in clauses.iter().enumerate() {
                let mut bindings = Vec::new();
                let matched = clause
                    .params
                    .iter()
                    .zip(&args)
                    .all(|(p, v)| match_pattern(p, v, &|n| cons.contains(n), &mut bindings));
                if matched {
                    selected = Some((k, bindings));
                    break;
                }
            }
            let Some((k, bindings)) = selected else {
                return Err(EvalError::MatchFailure(span));
            };
            let mut env = base;
            for (n, v) in bindings {
                env = env.bind(n, v);
            }
            match self.eval_tail(&clauses[k].body, &env)? {
                Tail::Val(v) => return Ok(v),
                Tail::Call(fv, av, call_span) => {
                    // Resolve the tail application without recursing.
                    match fv {
                        Value::Prim(name) => return prims::apply(self, name, av, call_span),
                        Value::ConFn(name) => return Ok(Value::Con(name, Some(Rc::new(av)))),
                        Value::Closure(c2) => {
                            if self.arity(c2) == 1 {
                                closure = c2;
                                args = vec![av];
                                continue 'outer;
                            }
                            return Ok(Value::Partial(c2, Rc::new(vec![av])));
                        }
                        Value::Partial(c2, prev) => {
                            let mut all = prev.as_ref().clone();
                            all.push(av);
                            if all.len() == self.arity(c2) {
                                closure = c2;
                                args = all;
                                continue 'outer;
                            }
                            return Ok(Value::Partial(c2, Rc::new(all)));
                        }
                        other => {
                            return Err(EvalError::Type(
                                format!("applied non-function `{other}`"),
                                call_span,
                            ))
                        }
                    }
                }
            }
        }
    }

    /// Evaluates an expression in *tail position*: instead of performing a
    /// final application, returns it to the driving loop.
    fn eval_tail(&mut self, e: &sast::Expr, env: &Env) -> Result<Tail, EvalError> {
        match e {
            sast::Expr::App(f, a, span) => {
                if let sast::Expr::Var(id) = f.as_ref() {
                    if self.cons.contains(&id.name) && env.lookup(&id.name).is_none() {
                        let arg = self.eval(a, env)?;
                        return Ok(Tail::Val(Value::Con(
                            Rc::from(id.name.as_str()),
                            Some(Rc::new(arg)),
                        )));
                    }
                }
                let fv = self.eval(f, env)?;
                let av = self.eval(a, env)?;
                Ok(Tail::Call(fv, av, *span))
            }
            sast::Expr::If(c, t, f, span) => match self.eval(c, env)? {
                Value::Bool(true) => self.eval_tail(t, env),
                Value::Bool(false) => self.eval_tail(f, env),
                other => {
                    Err(EvalError::Type(format!("if condition evaluated to `{other}`"), *span))
                }
            },
            sast::Expr::Case(scrut, arms, span) => {
                let v = self.eval(scrut, env)?;
                let cons = self.cons.clone();
                for (p, body) in arms {
                    let mut bindings = Vec::new();
                    if match_pattern(p, &v, &|n| cons.contains(n), &mut bindings) {
                        let mut aenv = env.clone();
                        for (n, val) in bindings {
                            aenv = aenv.bind(n, val);
                        }
                        return self.eval_tail(body, &aenv);
                    }
                }
                Err(EvalError::MatchFailure(*span))
            }
            sast::Expr::Let(decls, body, _) => {
                let mut lenv = env.clone();
                for d in decls {
                    lenv = self.eval_decl(d, lenv)?;
                }
                self.eval_tail(body, &lenv)
            }
            sast::Expr::Seq(es, _) => {
                let (last, init) = es.split_last().expect("parser ensures non-empty");
                for x in init {
                    self.eval(x, env)?;
                }
                self.eval_tail(last, env)
            }
            sast::Expr::Anno(inner, _, _) => self.eval_tail(inner, env),
            other => Ok(Tail::Val(self.eval(other, env)?)),
        }
    }
}

/// Result of evaluating a tail position.
enum Tail {
    /// A finished value.
    Val(Value),
    /// A pending application `f a` at the given span.
    Call(Value, Value, Span),
}

#[cfg(test)]
mod tests {
    use super::*;
    use dml_syntax::parse_program;

    fn machine(src: &str) -> Machine {
        let p = parse_program(src).unwrap();
        Machine::load(&p, CheckConfig::checked()).unwrap()
    }

    #[test]
    fn factorial() {
        let mut m = machine("fun fact(n) = if n = 0 then 1 else n * fact(n - 1)");
        let r = m.call("fact", vec![Value::Int(10)]).unwrap();
        assert_eq!(r.as_int(), Some(3_628_800));
    }

    #[test]
    fn mutual_recursion() {
        let src = "fun even(n) = if n = 0 then true else odd(n - 1) \
                   and odd(n) = if n = 0 then false else even(n - 1)";
        let mut m = machine(src);
        assert_eq!(m.call("even", vec![Value::Int(10)]).unwrap().as_bool(), Some(true));
        assert_eq!(m.call("odd", vec![Value::Int(10)]).unwrap().as_bool(), Some(false));
    }

    #[test]
    fn list_reverse() {
        let src = "fun rev(nil, ys) = ys | rev(x::xs, ys) = rev(xs, x::ys) \
                   fun reverse(l) = rev(l, nil)";
        let mut m = machine(src);
        let l = Value::list([Value::Int(1), Value::Int(2), Value::Int(3)]);
        let r = m.call("reverse", vec![l]).unwrap();
        let out: Vec<i64> = r.list_to_vec().unwrap().iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(out, vec![3, 2, 1]);
    }

    #[test]
    fn curried_functions_partial_application() {
        let src = "fun add x y = x + y  val inc = add 1";
        let mut m = machine(src);
        let r = m.call("inc", vec![Value::Int(41)]).unwrap();
        assert_eq!(r.as_int(), Some(42));
    }

    #[test]
    fn higher_order_fn_expressions() {
        let src = "fun apply f x = f x  val r = apply (fn n => n * 2) 21";
        let m = machine(src);
        assert_eq!(m.global("r").unwrap().as_int(), Some(42));
    }

    #[test]
    fn case_on_constructors() {
        let src = r#"
datatype 'a option = NONE | SOME of 'a
fun getOr(x, d) = case x of SOME v => v | NONE => d
val a = getOr(SOME 5, 0)
val b = getOr(NONE, 7)
"#;
        let mut m = machine(src);
        assert_eq!(m.global("a").unwrap().as_int(), Some(5));
        assert_eq!(m.global("b").unwrap().as_int(), Some(7));
        let _ = &mut m;
    }

    #[test]
    fn nullary_constructor_arms_do_not_shadow() {
        let src = r#"
fun f(x) = case x of LESS => 1 | EQUAL => 2 | GREATER => 3
"#;
        let mut m = machine(src);
        let r = m.call("f", vec![Value::Con("GREATER".into(), None)]).unwrap();
        assert_eq!(r.as_int(), Some(3), "GREATER must not match the LESS arm");
    }

    #[test]
    fn sequencing_and_update() {
        let src = "fun bump(a) = (update(a, 0, sub(a, 0) + 1); sub(a, 0))";
        let mut m = machine(src);
        let arr = Value::int_array([41]);
        assert_eq!(m.call("bump", vec![arr]).unwrap().as_int(), Some(42));
        assert_eq!(m.counters.array_checks_executed, 3, "two subs and one update");
    }

    #[test]
    fn bounds_violation_detected() {
        let src = "fun get(a, i) = sub(a, i)";
        let mut m = machine(src);
        let arr = Value::int_array([1, 2, 3]);
        let args = Value::Tuple(Rc::new(vec![arr, Value::Int(7)]));
        let err = m.call("get", vec![args]).unwrap_err();
        assert!(matches!(err, EvalError::BoundsViolation { index: 7, len: 3, .. }));
    }

    #[test]
    fn division_semantics_and_by_zero() {
        let mut m = machine("fun f(a, b) = a div b  fun g(a, b) = a mod b");
        let pair = |a: i64, b: i64| Value::Tuple(Rc::new(vec![Value::Int(a), Value::Int(b)]));
        assert_eq!(m.call("f", vec![pair(-7, 2)]).unwrap().as_int(), Some(-4));
        assert_eq!(m.call("g", vec![pair(-7, 2)]).unwrap().as_int(), Some(1));
        assert!(matches!(m.call("f", vec![pair(1, 0)]), Err(EvalError::DivisionByZero(_))));
    }

    #[test]
    fn fuel_limits_runaway_recursion() {
        let src = "fun spin(n) = spin(n + 1)";
        let p = parse_program(src).unwrap();
        let mut m = Machine::load(&p, CheckConfig::checked()).unwrap().with_fuel(10_000);
        assert!(matches!(m.call("spin", vec![Value::Int(0)]), Err(EvalError::OutOfFuel)));
    }

    #[test]
    fn top_level_val_bindings() {
        let mut m = machine("val x = 3 val y = x + 4 fun get() = y");
        // `fun get()` has a unit parameter.
        let r = m.call("get", vec![Value::Unit]).unwrap();
        assert_eq!(r.as_int(), Some(7));
    }

    #[test]
    fn env_lookup_shadowing() {
        let e = Env::new().bind("x", Value::Int(1)).bind("x", Value::Int(2));
        assert_eq!(e.lookup("x").unwrap().as_int(), Some(2));
        assert!(e.lookup("y").is_none());
    }
}
