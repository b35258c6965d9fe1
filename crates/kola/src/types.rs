//! Types for KOLA terms.
//!
//! The paper assumes well-formedness of queries without spelling out a type
//! system; its Larch specification \[10\] is typed. We provide a small
//! Hindley–Milner-style type language: it is what lets the verification
//! harness (`kola-verify`) instantiate rule metavariables *soundly*, and what
//! lets the rewrite engine check that rules are type-preserving.

use crate::value::{ClassId, Sym};
use std::collections::BTreeMap;
use std::fmt;

/// A type in the KOLA universe.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Type {
    /// The unit type.
    Unit,
    /// Booleans.
    Bool,
    /// 64-bit integers.
    Int,
    /// Strings.
    Str,
    /// Objects of a schema class.
    Obj(ClassId),
    /// Pairs `[a, b]`.
    Pair(Box<Type>, Box<Type>),
    /// Finite sets `{a}`.
    Set(Box<Type>),
    /// Finite bags (multisets) `{|a|}` — the §6 extension.
    Bag(Box<Type>),
    /// A unification variable (only appears during inference).
    Var(u32),
}

impl Type {
    /// `Pair(a, b)` without the boxing noise.
    pub fn pair(a: Type, b: Type) -> Type {
        Type::Pair(Box::new(a), Box::new(b))
    }

    /// `Set(t)` without the boxing noise.
    pub fn set(t: Type) -> Type {
        Type::Set(Box::new(t))
    }

    /// `Bag(t)` without the boxing noise.
    pub fn bag(t: Type) -> Type {
        Type::Bag(Box::new(t))
    }

    /// True iff no [`Type::Var`] occurs in the type.
    pub fn is_ground(&self) -> bool {
        match self {
            Type::Var(_) => false,
            Type::Pair(a, b) => a.is_ground() && b.is_ground(),
            Type::Set(t) | Type::Bag(t) => t.is_ground(),
            _ => true,
        }
    }

    /// Structural size (node count).
    pub fn size(&self) -> usize {
        match self {
            Type::Pair(a, b) => 1 + a.size() + b.size(),
            Type::Set(t) | Type::Bag(t) => 1 + t.size(),
            _ => 1,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Unit => write!(f, "unit"),
            Type::Bool => write!(f, "bool"),
            Type::Int => write!(f, "int"),
            Type::Str => write!(f, "str"),
            Type::Obj(c) => write!(f, "obj{}", c.0),
            Type::Pair(a, b) => write!(f, "[{a}, {b}]"),
            Type::Set(t) => write!(f, "{{{t}}}"),
            Type::Bag(t) => write!(f, "{{|{t}|}}"),
            Type::Var(v) => write!(f, "t{v}"),
        }
    }
}

/// The type of a KOLA function: `input -> output`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncType {
    /// Argument type.
    pub input: Type,
    /// Result type.
    pub output: Type,
}

impl fmt::Display for FuncType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.input, self.output)
    }
}

/// Errors produced by type inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// Two types could not be unified.
    Mismatch(Type, Type),
    /// The occurs check failed (`t0` occurs inside the other type).
    Occurs(u32, Type),
    /// An unknown schema primitive (attribute) name was referenced.
    UnknownPrim(Sym),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Mismatch(a, b) => write!(f, "type mismatch: {a} vs {b}"),
            TypeError::Occurs(v, t) => write!(f, "occurs check: t{v} in {t}"),
            TypeError::UnknownPrim(s) => write!(f, "unknown primitive: {s}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// A unification context: fresh-variable supply plus a substitution.
#[derive(Debug, Default, Clone)]
pub struct Unifier {
    next: u32,
    subst: BTreeMap<u32, Type>,
}

impl Unifier {
    /// A fresh, empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh type variable.
    pub fn fresh(&mut self) -> Type {
        let v = self.next;
        self.next += 1;
        Type::Var(v)
    }

    /// Resolve a type through the current substitution (shallow head, deep body).
    pub fn resolve(&self, t: &Type) -> Type {
        match t {
            Type::Var(v) => match self.subst.get(v) {
                Some(bound) => self.resolve(bound),
                None => t.clone(),
            },
            Type::Pair(a, b) => Type::pair(self.resolve(a), self.resolve(b)),
            Type::Set(s) => Type::set(self.resolve(s)),
            Type::Bag(s) => Type::bag(self.resolve(s)),
            _ => t.clone(),
        }
    }

    fn occurs(&self, v: u32, t: &Type) -> bool {
        match t {
            Type::Var(w) => {
                if *w == v {
                    true
                } else if let Some(bound) = self.subst.get(w) {
                    let bound = bound.clone();
                    self.occurs(v, &bound)
                } else {
                    false
                }
            }
            Type::Pair(a, b) => self.occurs(v, a) || self.occurs(v, b),
            Type::Set(s) | Type::Bag(s) => self.occurs(v, s),
            _ => false,
        }
    }

    /// Unify two types, extending the substitution. Errors on clash/occurs.
    pub fn unify(&mut self, a: &Type, b: &Type) -> Result<(), TypeError> {
        let a = self.resolve(a);
        let b = self.resolve(b);
        match (&a, &b) {
            (Type::Var(v), _) => {
                if a == b {
                    Ok(())
                } else if self.occurs(*v, &b) {
                    Err(TypeError::Occurs(*v, b))
                } else {
                    self.subst.insert(*v, b);
                    Ok(())
                }
            }
            (_, Type::Var(_)) => self.unify(&b, &a),
            (Type::Pair(a1, a2), Type::Pair(b1, b2)) => {
                self.unify(a1, b1)?;
                self.unify(a2, b2)
            }
            (Type::Set(s), Type::Set(t)) => self.unify(s, t),
            (Type::Bag(s), Type::Bag(t)) => self.unify(s, t),
            _ => {
                if a == b {
                    Ok(())
                } else {
                    Err(TypeError::Mismatch(a, b))
                }
            }
        }
    }

    /// Replace any remaining type variables with a default ground type.
    ///
    /// Used by the verification harness: after inferring the constraints a
    /// rule imposes, leftover polymorphism is pinned to `default` so terms
    /// can be generated.
    pub fn ground(&self, t: &Type, default: &Type) -> Type {
        match self.resolve(t) {
            Type::Var(_) => default.clone(),
            Type::Pair(a, b) => Type::pair(self.ground(&a, default), self.ground(&b, default)),
            Type::Set(s) => Type::set(self.ground(&s, default)),
            Type::Bag(s) => Type::bag(self.ground(&s, default)),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_var_binds() {
        let mut u = Unifier::new();
        let v = u.fresh();
        u.unify(&v, &Type::Int).unwrap();
        assert_eq!(u.resolve(&v), Type::Int);
    }

    #[test]
    fn unify_structural() {
        let mut u = Unifier::new();
        let v = u.fresh();
        let w = u.fresh();
        u.unify(
            &Type::pair(v.clone(), Type::set(w.clone())),
            &Type::pair(Type::Int, Type::set(Type::Bool)),
        )
        .unwrap();
        assert_eq!(u.resolve(&v), Type::Int);
        assert_eq!(u.resolve(&w), Type::Bool);
    }

    #[test]
    fn unify_mismatch() {
        let mut u = Unifier::new();
        assert!(u.unify(&Type::Int, &Type::Bool).is_err());
    }

    #[test]
    fn occurs_check() {
        let mut u = Unifier::new();
        let v = u.fresh();
        let err = u.unify(&v, &Type::set(v.clone()));
        assert!(matches!(err, Err(TypeError::Occurs(_, _))));
    }

    #[test]
    fn grounding_pins_leftover_vars() {
        let mut u = Unifier::new();
        let v = u.fresh();
        let t = Type::set(v);
        assert_eq!(u.ground(&t, &Type::Int), Type::set(Type::Int));
        // `ground` takes &self; binding afterwards still works through a new unify
        let w = u.fresh();
        u.unify(&w, &Type::Str).unwrap();
        assert_eq!(u.ground(&w, &Type::Int), Type::Str);
    }

    #[test]
    fn resolve_is_deep() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        u.unify(&a, &Type::set(b.clone())).unwrap();
        u.unify(&b, &Type::Int).unwrap();
        assert_eq!(u.resolve(&a), Type::set(Type::Int));
    }
}
