//! Run-time values.

use dml_syntax::ast::Pat;
use dml_syntax::Expr;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A run-time value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Machine integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// The unit value.
    Unit,
    /// Tuple (length ≥ 2).
    Tuple(Rc<Vec<Value>>),
    /// Datatype constructor application (`nil`, `x :: xs`, `SOME v`, ...).
    Con(Rc<str>, Option<Rc<Value>>),
    /// Mutable array.
    Array(Rc<RefCell<Vec<Value>>>),
    /// A function closure: an index into the machine's closure arena.
    /// (Closures are arena-allocated rather than `Rc`-shared because a
    /// recursive closure's captured environment refers back to the closure
    /// itself — an `Rc` cycle that would leak; see `interp::Machine`.)
    Closure(ClosureId),
    /// A partial application of a multi-parameter (curried) closure.
    Partial(ClosureId, Rc<Vec<Value>>),
    /// A unary datatype constructor used as a first-class function.
    ConFn(Rc<str>),
    /// A built-in primitive, applied by name.
    Prim(&'static str),
}

/// An index into the machine's closure arena.
pub type ClosureId = u32;

impl Value {
    /// Builds a list value from a vector.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        let items: Vec<Value> = items.into_iter().collect();
        let mut acc = Value::Con("nil".into(), None);
        for v in items.into_iter().rev() {
            acc = Value::Con("::".into(), Some(Rc::new(Value::Tuple(Rc::new(vec![v, acc])))));
        }
        acc
    }

    /// Builds an array value from a vector.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(items)))
    }

    /// Builds an integer array.
    pub fn int_array(items: impl IntoIterator<Item = i64>) -> Value {
        Value::array(items.into_iter().map(Value::Int).collect())
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Converts a list value back into a vector (for assertions in tests).
    pub fn list_to_vec(&self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        loop {
            match cur {
                Value::Con(ref name, None) if &**name == "nil" => return Some(out),
                Value::Con(ref name, Some(ref arg)) if &**name == "::" => match arg.as_ref() {
                    Value::Tuple(pair) if pair.len() == 2 => {
                        out.push(pair[0].clone());
                        cur = pair[1].clone();
                    }
                    _ => return None,
                },
                _ => return None,
            }
        }
    }

    /// Extracts an integer array's contents.
    pub fn int_array_to_vec(&self) -> Option<Vec<i64>> {
        match self {
            Value::Array(cells) => cells.borrow().iter().map(Value::as_int).collect(),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Unit => write!(f, "()"),
            Value::Tuple(vs) => {
                write!(f, "(")?;
                for (k, v) in vs.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Con(name, None) => write!(f, "{name}"),
            Value::Con(name, Some(arg)) if &**name == "::" => {
                // Render lists with the usual bracket syntax.
                match self.list_to_vec() {
                    Some(items) => {
                        write!(f, "[")?;
                        for (k, v) in items.iter().enumerate() {
                            if k > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{v}")?;
                        }
                        write!(f, "]")
                    }
                    None => write!(f, ":: {arg}"),
                }
            }
            Value::Con(name, Some(arg)) => write!(f, "{name} {arg}"),
            Value::Array(cells) => {
                write!(f, "[|")?;
                for (k, v) in cells.borrow().iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "|]")
            }
            Value::Closure(id) => write!(f, "<fun #{id}>"),
            Value::Partial(id, args) => write!(f, "<fun #{id}/{}>", args.len()),
            Value::ConFn(name) => write!(f, "<con {name}>"),
            Value::Prim(name) => write!(f, "<prim {name}>"),
        }
    }
}

/// Structural equality used by tests (closures/prims are never equal).
pub fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Unit, Value::Unit) => true,
        (Value::Tuple(xs), Value::Tuple(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| value_eq(x, y))
        }
        (Value::Con(n, None), Value::Con(m, None)) => n == m,
        (Value::Con(n, Some(x)), Value::Con(m, Some(y))) => n == m && value_eq(x, y),
        (Value::Array(x), Value::Array(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| value_eq(a, b))
        }
        _ => false,
    }
}

/// Matches a value against a pattern, extending `bindings` on success.
///
/// `is_con` distinguishes nullary constructor patterns (which the parser
/// cannot tell apart from variables) from genuine variable bindings.
pub fn match_pattern(
    p: &Pat,
    v: &Value,
    is_con: &dyn Fn(&str) -> bool,
    bindings: &mut Vec<(String, Value)>,
) -> bool {
    match (p, v) {
        (Pat::Wild(_), _) => true,
        (Pat::Int(n, _), Value::Int(m)) => n == m,
        (Pat::Bool(b, _), Value::Bool(c)) => b == c,
        (Pat::Tuple(ps, _), Value::Unit) => ps.is_empty(),
        (Pat::Tuple(ps, _), Value::Tuple(vs)) => {
            ps.len() == vs.len()
                && ps.iter().zip(vs.iter()).all(|(p, v)| match_pattern(p, v, is_con, bindings))
        }
        (Pat::Con(name, None, _), Value::Con(cname, None)) => name.name == **cname,
        (Pat::Con(name, Some(arg), _), Value::Con(cname, Some(carg))) => {
            name.name == **cname && match_pattern(arg, carg, is_con, bindings)
        }
        (Pat::Var(id), _) if is_con(&id.name) => {
            matches!(v, Value::Con(cname, None) if id.name == **cname)
        }
        (Pat::Var(id), _) => {
            bindings.push((id.name.clone(), v.clone()));
            true
        }
        (Pat::Anno(inner, _, _), _) => match_pattern(inner, v, is_con, bindings),
        _ => false,
    }
}

/// The body expression type re-exported for closure construction.
pub type Body = Expr;

#[cfg(test)]
mod tests {
    use super::*;
    use dml_syntax::ast::Ident;
    use dml_syntax::Span;

    #[test]
    fn list_round_trip() {
        let l = Value::list([Value::Int(1), Value::Int(2), Value::Int(3)]);
        let v = l.list_to_vec().unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].as_int(), Some(1));
        assert_eq!(l.to_string(), "[1, 2, 3]");
    }

    #[test]
    fn array_display_and_eq() {
        let a = Value::int_array([1, 2]);
        let b = Value::int_array([1, 2]);
        let c = Value::int_array([1, 3]);
        assert!(value_eq(&a, &b));
        assert!(!value_eq(&a, &c));
        assert_eq!(a.to_string(), "[|1, 2|]");
    }

    #[test]
    fn match_tuple_pattern() {
        let p = Pat::Tuple(
            vec![Pat::Var(Ident::synth("x")), Pat::Int(2, Span::default())],
            Span::default(),
        );
        let v = Value::Tuple(Rc::new(vec![Value::Int(1), Value::Int(2)]));
        let no_cons = |_: &str| false;
        let mut binds = Vec::new();
        assert!(match_pattern(&p, &v, &no_cons, &mut binds));
        assert_eq!(binds.len(), 1);
        assert_eq!(binds[0].0, "x");
        let v2 = Value::Tuple(Rc::new(vec![Value::Int(1), Value::Int(3)]));
        assert!(!match_pattern(&p, &v2, &no_cons, &mut Vec::new()));
    }

    #[test]
    fn match_cons_pattern() {
        let p = Pat::Con(
            Ident::synth("::"),
            Some(Box::new(Pat::Tuple(
                vec![Pat::Var(Ident::synth("x")), Pat::Var(Ident::synth("xs"))],
                Span::default(),
            ))),
            Span::default(),
        );
        let v = Value::list([Value::Int(7)]);
        let mut binds = Vec::new();
        assert!(match_pattern(&p, &v, &|_| false, &mut binds));
        assert_eq!(binds[0].1.as_int(), Some(7));
        assert!(matches!(&binds[1].1, Value::Con(n, None) if &**n == "nil"));
    }

    #[test]
    fn nullary_con_pattern_via_var() {
        let p = Pat::Var(Ident::synth("nil"));
        let v = Value::Con("nil".into(), None);
        let is_con = |n: &str| n == "nil" || n == "LESS";
        let mut binds = Vec::new();
        assert!(match_pattern(&p, &v, &is_con, &mut binds));
        assert!(binds.is_empty(), "constructor patterns bind nothing");
        // A *different* nullary constructor must not match.
        let p2 = Pat::Var(Ident::synth("LESS"));
        assert!(!match_pattern(&p2, &v, &is_con, &mut Vec::new()));
    }

    #[test]
    fn unit_matches_empty_tuple_pattern() {
        let p = Pat::Tuple(vec![], Span::default());
        assert!(match_pattern(&p, &Value::Unit, &|_| false, &mut Vec::new()));
    }
}
