//! Scoped value environments, shared by phase 1 (over [`MlScheme`]s) and
//! phase 2 (over dependent [`Scheme`]s).
//!
//! A [`ValEnv`] is one frame of bindings linked to the frame it was opened
//! in. Opening the scope of a clause, `case` arm, `let` or `fn` arm is
//! O(1) ([`ValEnv::child`]) and a lookup walks the frames innermost-first,
//! so checking a function against the signatures in scope takes a view of
//! them, not a copy of the whole top-level map.
//!
//! [`MlScheme`]: crate::ml::MlScheme
//! [`Scheme`]: crate::ty::Scheme

use std::collections::HashMap;

/// A frame of value bindings over an optional parent frame.
#[derive(Debug)]
pub struct ValEnv<'p, S> {
    parent: Option<&'p ValEnv<'p, S>>,
    frame: HashMap<String, S>,
    /// Names whose binding in this frame was made with
    /// [`insert_open`](ValEnv::insert_open): phase-1 bindings that still
    /// mentioned unification variables. A binding without any never gains
    /// one, so generalization only has to resolve these.
    open: Vec<String>,
}

impl<S> Default for ValEnv<'_, S> {
    fn default() -> Self {
        ValEnv { parent: None, frame: HashMap::new(), open: Vec::new() }
    }
}

impl<S> ValEnv<'_, S> {
    /// An empty root environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens an empty frame over `self`; its bindings shadow the outer ones
    /// and vanish when it is dropped.
    pub fn child(&self) -> ValEnv<'_, S> {
        ValEnv { parent: Some(self), frame: HashMap::new(), open: Vec::new() }
    }

    /// The innermost binding of `name`.
    pub fn get(&self, name: &str) -> Option<&S> {
        let mut env = self;
        loop {
            if let Some(s) = env.frame.get(name) {
                return Some(s);
            }
            env = env.parent?;
        }
    }

    /// Binds `name` in the current frame.
    pub fn insert(&mut self, name: String, value: S) {
        self.open.retain(|n| *n != name);
        self.frame.insert(name, value);
    }

    /// Binds `name` in the current frame and records it as open.
    pub fn insert_open(&mut self, name: String, value: S) {
        if !self.open.contains(&name) {
            self.open.push(name.clone());
        }
        self.frame.insert(name, value);
    }

    /// Names bound open in this frame or any enclosing one, innermost
    /// first. A name shadowed by an inner binding is still listed: look it
    /// up with [`get`](ValEnv::get) for the binding that is visible.
    pub fn open_names(&self) -> impl Iterator<Item = &str> {
        std::iter::successors(Some(self), |env| env.parent)
            .flat_map(|env| env.open.iter().map(String::as_str))
    }

    /// The bindings of the current frame alone (for a root: the top level).
    pub fn into_frame(self) -> HashMap<String, S> {
        self.frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_frames_shadow_and_vanish() {
        let mut top = ValEnv::new();
        top.insert("f".to_string(), 1);
        top.insert("g".to_string(), 2);
        {
            let mut inner = top.child();
            inner.insert("f".to_string(), 10);
            let mut innermost = inner.child();
            innermost.insert("h".to_string(), 30);
            assert_eq!(innermost.get("f"), Some(&10));
            assert_eq!(innermost.get("g"), Some(&2));
            assert_eq!(innermost.get("h"), Some(&30));
            assert_eq!(inner.get("h"), None);
        }
        assert_eq!(top.get("f"), Some(&1));
        assert_eq!(top.into_frame().len(), 2);
    }

    #[test]
    fn open_names_follow_the_latest_binding_in_each_frame() {
        let mut top = ValEnv::new();
        top.insert_open("x".to_string(), 1);
        top.insert_open("y".to_string(), 2);
        top.insert_open("x".to_string(), 3);
        top.insert("y".to_string(), 4);
        let mut inner = top.child();
        inner.insert_open("z".to_string(), 5);
        assert_eq!(inner.open_names().collect::<Vec<_>>(), ["z", "x"]);
    }
}
