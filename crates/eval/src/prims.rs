//! Built-in primitives: the refined standard basis at run time.
//!
//! `sub`/`update`/`nth` are the *eliminable-check* primitives: their bound
//! check executes or is skipped according to the machine's
//! [`CheckConfig`](crate::interp::CheckConfig).
//! `subCK`/`updateCK`/`nthCK` always check (the escape hatch of the KMP
//! example). Arithmetic follows SML semantics (`div`/`mod` floor).

use crate::error::EvalError;
use crate::interp::{Machine, Mode};
use crate::value::Value;
use dml_syntax::Span;

/// All primitive names.
pub const PRIM_NAMES: &[&str] = &[
    "+",
    "-",
    "*",
    "div",
    "mod",
    "neg",
    "iabs",
    "imin",
    "imax",
    "=",
    "<>",
    "<",
    "<=",
    ">",
    ">=",
    "not",
    "length",
    "sub",
    "update",
    "array",
    "subCK",
    "updateCK",
    "llength",
    "nth",
    "nthCK",
    "print_int",
];

/// `true` if `name` names a primitive.
pub fn is_prim(name: &str) -> bool {
    PRIM_NAMES.contains(&name)
}

/// Returns the interned static name (panics if not a primitive; callers
/// check [`is_prim`] first).
pub fn intern(name: &str) -> &'static str {
    PRIM_NAMES
        .iter()
        .find(|n| **n == name)
        .copied()
        .unwrap_or_else(|| panic!("`{name}` is not a primitive"))
}

fn int2(arg: &Value, span: Span) -> Result<(i64, i64), EvalError> {
    match arg {
        Value::Tuple(vs) if vs.len() == 2 => match (&vs[0], &vs[1]) {
            (Value::Int(a), Value::Int(b)) => Ok((*a, *b)),
            _ => Err(EvalError::Type("expected a pair of integers".into(), span)),
        },
        _ => Err(EvalError::Type("expected a pair of integers".into(), span)),
    }
}

fn int1(arg: &Value, span: Span) -> Result<i64, EvalError> {
    arg.as_int().ok_or_else(|| EvalError::Type("expected an integer".into(), span))
}

/// SML flooring division.
fn floor_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Executes (or skips) a bound/tag check for index `i` against `len`.
/// Returns `true` if the access may proceed.
fn run_check(
    m: &mut Machine,
    i: i64,
    len: usize,
    site: Span,
    always_check: bool,
    is_array: bool,
) -> Result<(), EvalError> {
    let skip =
        !always_check && m.config.mode == Mode::Eliminated && m.config.proven.contains(&site);
    if skip {
        if is_array {
            m.counters.array_checks_eliminated += 1;
        } else {
            m.counters.tag_checks_eliminated += 1;
        }
        if m.config.validate && (i < 0 || i as usize >= len) {
            return Err(EvalError::UnsoundElimination { index: i, len, site });
        }
        return Ok(());
    }
    if is_array {
        m.counters.array_checks_executed += 1;
    } else {
        m.counters.tag_checks_executed += 1;
    }
    // In eliminated mode an executed non-`*CK` check is a *residual* check:
    // the solver left it in the program instead of proving it away.
    if !always_check && m.config.mode == Mode::Eliminated {
        if is_array {
            m.counters.array_checks_residual += 1;
        } else {
            m.counters.tag_checks_residual += 1;
        }
    }
    // The abstract cost model charges a fixed 4 ops per executed check
    // (compare, compare, branch, branch), so the deterministic op-gain
    // metric reflects a native-like check/access ratio.
    m.ops += 4;
    if i < 0 || i as usize >= len {
        if is_array {
            Err(EvalError::BoundsViolation { index: i, len, site })
        } else {
            Err(EvalError::TagViolation { index: i, site })
        }
    } else {
        Ok(())
    }
}

/// Applies primitive `name` to `arg`.
///
/// # Errors
///
/// Returns bound/tag violations, division by zero, or dynamic type errors
/// (the latter unreachable after phase-1 checking).
pub fn apply(m: &mut Machine, name: &str, arg: Value, span: Span) -> Result<Value, EvalError> {
    match name {
        "+" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Int(a.wrapping_add(b)))
        }
        "-" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Int(a.wrapping_sub(b)))
        }
        "*" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Int(a.wrapping_mul(b)))
        }
        "div" => {
            let (a, b) = int2(&arg, span)?;
            if b == 0 {
                return Err(EvalError::DivisionByZero(span));
            }
            Ok(Value::Int(floor_div(a, b)))
        }
        "mod" => {
            let (a, b) = int2(&arg, span)?;
            if b == 0 {
                return Err(EvalError::DivisionByZero(span));
            }
            Ok(Value::Int(a - b * floor_div(a, b)))
        }
        "neg" => Ok(Value::Int(-int1(&arg, span)?)),
        "iabs" => Ok(Value::Int(int1(&arg, span)?.abs())),
        "imin" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Int(a.min(b)))
        }
        "imax" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Int(a.max(b)))
        }
        "=" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Bool(a == b))
        }
        "<>" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Bool(a != b))
        }
        "<" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Bool(a < b))
        }
        "<=" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Bool(a <= b))
        }
        ">" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Bool(a > b))
        }
        ">=" => {
            let (a, b) = int2(&arg, span)?;
            Ok(Value::Bool(a >= b))
        }
        "not" => match arg {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(EvalError::Type(format!("not on `{other}`"), span)),
        },
        "length" => match arg {
            Value::Array(cells) => Ok(Value::Int(cells.borrow().len() as i64)),
            other => Err(EvalError::Type(format!("length on `{other}`"), span)),
        },
        "array" => match arg {
            Value::Tuple(vs) if vs.len() == 2 => {
                let n = int1(&vs[0], span)?;
                if n < 0 {
                    return Err(EvalError::NegativeArraySize(n, span));
                }
                Ok(Value::array(vec![vs[1].clone(); n as usize]))
            }
            other => Err(EvalError::Type(format!("array on `{other}`"), span)),
        },
        "sub" | "subCK" => match arg {
            Value::Tuple(vs) if vs.len() == 2 => {
                let i = int1(&vs[1], span)?;
                match &vs[0] {
                    Value::Array(cells) => {
                        let len = cells.borrow().len();
                        run_check(m, i, len, span, name == "subCK", true)?;
                        cells
                            .borrow()
                            .get(i as usize)
                            .cloned()
                            .ok_or(EvalError::UnsoundElimination { index: i, len, site: span })
                    }
                    other => Err(EvalError::Type(format!("sub on `{other}`"), span)),
                }
            }
            other => Err(EvalError::Type(format!("sub on `{other}`"), span)),
        },
        "update" | "updateCK" => match arg {
            Value::Tuple(vs) if vs.len() == 3 => {
                let i = int1(&vs[1], span)?;
                match &vs[0] {
                    Value::Array(cells) => {
                        let len = cells.borrow().len();
                        run_check(m, i, len, span, name == "updateCK", true)?;
                        match cells.borrow_mut().get_mut(i as usize) {
                            Some(cell) => {
                                *cell = vs[2].clone();
                                Ok(Value::Unit)
                            }
                            None => {
                                Err(EvalError::UnsoundElimination { index: i, len, site: span })
                            }
                        }
                    }
                    other => Err(EvalError::Type(format!("update on `{other}`"), span)),
                }
            }
            other => Err(EvalError::Type(format!("update on `{other}`"), span)),
        },
        "llength" => {
            let mut n = 0i64;
            let mut cur = arg;
            loop {
                match cur {
                    Value::Con(ref c, None) if &**c == "nil" => return Ok(Value::Int(n)),
                    Value::Con(ref c, Some(ref pair)) if &**c == "::" => match pair.as_ref() {
                        Value::Tuple(vs) if vs.len() == 2 => {
                            n += 1;
                            cur = vs[1].clone();
                        }
                        _ => return Err(EvalError::Type("malformed list".into(), span)),
                    },
                    other => return Err(EvalError::Type(format!("llength on `{other}`"), span)),
                }
            }
        }
        "nth" | "nthCK" => match arg {
            Value::Tuple(vs) if vs.len() == 2 => {
                let i = int1(&vs[1], span)?;
                // One tag check per access, as in the paper's list-access
                // benchmark; the length is only computed when checking.
                let always = name == "nthCK";
                let checking =
                    always || m.config.mode == Mode::Checked || !m.config.proven.contains(&span);
                let len = if checking || m.config.validate {
                    list_len(&vs[0])
                        .ok_or_else(|| EvalError::Type("nth on a non-list".into(), span))?
                } else {
                    usize::MAX
                };
                run_check(m, i, len, span, always, false)?;
                nth_unchecked(&vs[0], i, span)
            }
            other => Err(EvalError::Type(format!("nth on `{other}`"), span)),
        },
        "print_int" => Ok(Value::Unit),
        other => Err(EvalError::Type(format!("unknown primitive `{other}`"), span)),
    }
}

fn list_len(v: &Value) -> Option<usize> {
    let mut n = 0usize;
    let mut cur = v.clone();
    loop {
        match cur {
            Value::Con(ref c, None) if &**c == "nil" => return Some(n),
            Value::Con(ref c, Some(ref pair)) if &**c == "::" => match pair.as_ref() {
                Value::Tuple(vs) if vs.len() == 2 => {
                    n += 1;
                    cur = vs[1].clone();
                }
                _ => return None,
            },
            _ => return None,
        }
    }
}

fn nth_unchecked(v: &Value, i: i64, span: Span) -> Result<Value, EvalError> {
    let mut cur = v.clone();
    let mut k = i;
    loop {
        match cur {
            Value::Con(ref c, Some(ref pair)) if &**c == "::" => match pair.as_ref() {
                Value::Tuple(vs) if vs.len() == 2 => {
                    if k == 0 {
                        return Ok(vs[0].clone());
                    }
                    k -= 1;
                    cur = vs[1].clone();
                }
                _ => return Err(EvalError::Type("malformed list".into(), span)),
            },
            _ => return Err(EvalError::TagViolation { index: i, site: span }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::CheckConfig;
    use dml_syntax::parse_program;
    use std::rc::Rc;

    fn empty_machine() -> Machine {
        let p = parse_program("").unwrap();
        Machine::load(&p, CheckConfig::checked()).unwrap()
    }

    fn pair(a: Value, b: Value) -> Value {
        Value::Tuple(Rc::new(vec![a, b]))
    }

    #[test]
    fn arithmetic_prims() {
        let mut m = empty_machine();
        let s = Span::default();
        assert_eq!(
            apply(&mut m, "+", pair(Value::Int(2), Value::Int(3)), s).unwrap().as_int(),
            Some(5)
        );
        assert_eq!(
            apply(&mut m, "imin", pair(Value::Int(2), Value::Int(-3)), s).unwrap().as_int(),
            Some(-3)
        );
        assert_eq!(apply(&mut m, "neg", Value::Int(7), s).unwrap().as_int(), Some(-7));
        assert_eq!(apply(&mut m, "iabs", Value::Int(-7), s).unwrap().as_int(), Some(7));
    }

    #[test]
    fn floor_div_mod() {
        let mut m = empty_machine();
        let s = Span::default();
        assert_eq!(
            apply(&mut m, "div", pair(Value::Int(-7), Value::Int(2)), s).unwrap().as_int(),
            Some(-4)
        );
        assert_eq!(
            apply(&mut m, "mod", pair(Value::Int(-7), Value::Int(2)), s).unwrap().as_int(),
            Some(1)
        );
    }

    #[test]
    fn array_prims_and_counters() {
        let mut m = empty_machine();
        let s = Span::new(1, 5);
        let arr = apply(&mut m, "array", pair(Value::Int(4), Value::Int(0)), s).unwrap();
        assert_eq!(apply(&mut m, "length", arr.clone(), s).unwrap().as_int(), Some(4));
        apply(
            &mut m,
            "update",
            Value::Tuple(Rc::new(vec![arr.clone(), Value::Int(2), Value::Int(9)])),
            s,
        )
        .unwrap();
        let v = apply(&mut m, "sub", pair(arr.clone(), Value::Int(2)), s).unwrap();
        assert_eq!(v.as_int(), Some(9));
        assert_eq!(m.counters.array_checks_executed, 2);
        assert_eq!(m.counters.array_checks_eliminated, 0);
    }

    #[test]
    fn eliminated_mode_skips_proven_sites() {
        let mut m = empty_machine();
        let site = Span::new(10, 20);
        let mut proven = std::collections::HashSet::new();
        proven.insert(site);
        m.config = CheckConfig::eliminated(proven);
        let arr = Value::int_array([1, 2, 3]);
        let v = apply(&mut m, "sub", pair(arr.clone(), Value::Int(1)), site).unwrap();
        assert_eq!(v.as_int(), Some(2));
        assert_eq!(m.counters.array_checks_eliminated, 1);
        assert_eq!(m.counters.array_checks_executed, 0);
        // An unproven site still checks.
        let other = Span::new(30, 40);
        apply(&mut m, "sub", pair(arr, Value::Int(1)), other).unwrap();
        assert_eq!(m.counters.array_checks_executed, 1);
    }

    #[test]
    fn subck_always_checks() {
        let mut m = empty_machine();
        let site = Span::new(10, 20);
        let mut proven = std::collections::HashSet::new();
        proven.insert(site);
        m.config = CheckConfig::eliminated(proven);
        let arr = Value::int_array([1]);
        apply(&mut m, "subCK", pair(arr, Value::Int(0)), site).unwrap();
        assert_eq!(m.counters.array_checks_executed, 1);
        assert_eq!(m.counters.array_checks_eliminated, 0);
    }

    #[test]
    fn validation_catches_unsound_elimination() {
        let mut m = empty_machine();
        let site = Span::new(10, 20);
        let mut proven = std::collections::HashSet::new();
        proven.insert(site);
        m.config = CheckConfig::eliminated(proven).with_validation();
        let arr = Value::int_array([1]);
        let err = apply(&mut m, "sub", pair(arr, Value::Int(5)), site).unwrap_err();
        assert!(matches!(err, EvalError::UnsoundElimination { .. }));
    }

    #[test]
    fn list_prims() {
        let mut m = empty_machine();
        let s = Span::default();
        let l = Value::list([Value::Int(10), Value::Int(20), Value::Int(30)]);
        assert_eq!(apply(&mut m, "llength", l.clone(), s).unwrap().as_int(), Some(3));
        assert_eq!(
            apply(&mut m, "nth", pair(l.clone(), Value::Int(1)), s).unwrap().as_int(),
            Some(20)
        );
        assert_eq!(m.counters.tag_checks_executed, 1);
        let err = apply(&mut m, "nth", pair(l, Value::Int(9)), s).unwrap_err();
        assert!(matches!(err, EvalError::TagViolation { index: 9, .. }));
    }

    #[test]
    fn negative_array_size_rejected() {
        let mut m = empty_machine();
        let s = Span::default();
        let err = apply(&mut m, "array", pair(Value::Int(-1), Value::Int(0)), s).unwrap_err();
        assert!(matches!(err, EvalError::NegativeArraySize(-1, _)));
    }
}
