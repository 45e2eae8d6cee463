//! Capture-avoiding substitution of types for type variables.
//!
//! Two implementations coexist: the boundary-level [`Subst::apply`] on
//! [`Type`] trees (renames binders to avoid capture), and the id-level
//! [`Subst::apply_interned`] /
//! [`StoreOps::subst_free`] where
//! capture is impossible by construction (binders are nameless). Both
//! agree up to α-equivalence.

use crate::store::{StoreOps, TypeId};
use crate::symbol::Symbol;
use crate::types::Type;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A simultaneous substitution `[T̄/ᾱ]`.
#[derive(Clone, Debug, Default)]
pub struct Subst {
    map: HashMap<Symbol, Type>,
    /// Free variables of the range, cached for capture checks.
    range_fv: HashSet<Symbol>,
}

impl Subst {
    pub fn new() -> Subst {
        Subst::default()
    }

    /// The singleton substitution `[ty/var]`.
    pub fn single(var: Symbol, ty: Type) -> Subst {
        let mut s = Subst::new();
        s.insert(var, ty);
        s
    }

    /// Builds a simultaneous substitution from parallel parameter/argument
    /// lists, as used when instantiating a protocol declaration `ρ ᾱ` with
    /// arguments `Ū`.
    ///
    /// # Panics
    /// Panics if the lists have different lengths (arity errors are caught
    /// during kind checking before substitution happens).
    pub fn parallel(params: &[Symbol], args: &[Type]) -> Subst {
        assert_eq!(
            params.len(),
            args.len(),
            "substitution arity mismatch: {} parameters vs {} arguments",
            params.len(),
            args.len()
        );
        let mut s = Subst::new();
        for (p, a) in params.iter().zip(args) {
            s.insert(*p, a.clone());
        }
        s
    }

    pub fn insert(&mut self, var: Symbol, ty: Type) {
        self.range_fv.extend(ty.free_vars());
        self.map.insert(var, ty);
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Applies the substitution, renaming binders when they would capture a
    /// free variable of the range.
    pub fn apply(&self, ty: &Type) -> Type {
        if self.is_empty() {
            return ty.clone();
        }
        self.go(ty)
    }

    /// Applies the substitution at the id level: the range is interned
    /// into `store` and free occurrences are replaced without any
    /// renaming (nameless binders cannot capture). Agrees with
    /// [`Subst::apply`] up to α-equivalence — i.e. produces the id that
    /// `apply`'s result would intern to. Generic over [`StoreOps`], so it
    /// runs against a [`WorkerStore`](crate::shared::WorkerStore) or a
    /// [`Session`](crate::Session).
    pub fn apply_interned<S: StoreOps>(&self, store: &mut S, id: TypeId) -> TypeId {
        if self.is_empty() {
            return id;
        }
        let map: HashMap<Symbol, TypeId> = self
            .map
            .iter()
            .map(|(v, t)| (*v, store.intern(t)))
            .collect();
        store.subst_free(id, &map)
    }

    fn go(&self, ty: &Type) -> Type {
        match ty {
            Type::Unit | Type::Base(_) | Type::EndIn | Type::EndOut => ty.clone(),
            Type::Var(v) => match self.map.get(v) {
                Some(t) => t.clone(),
                None => ty.clone(),
            },
            Type::Arrow(a, b) => Type::Arrow(Arc::new(self.go(a)), Arc::new(self.go(b))),
            Type::Pair(a, b) => Type::Pair(Arc::new(self.go(a)), Arc::new(self.go(b))),
            Type::In(a, b) => Type::In(Arc::new(self.go(a)), Arc::new(self.go(b))),
            Type::Out(a, b) => Type::Out(Arc::new(self.go(a)), Arc::new(self.go(b))),
            Type::Dual(t) => Type::Dual(Arc::new(self.go(t))),
            Type::Neg(t) => Type::Neg(Arc::new(self.go(t))),
            Type::Proto(name, args) => {
                Type::Proto(*name, args.iter().map(|a| self.go(a)).collect())
            }
            Type::Data(name, args) => Type::Data(*name, args.iter().map(|a| self.go(a)).collect()),
            Type::Forall(v, k, body) => {
                if self.map.contains_key(v) {
                    // The binder shadows a substituted variable: stop
                    // substituting it inside, but the remaining entries must
                    // still be applied. Restrict the substitution.
                    let mut restricted = self.clone();
                    restricted.map.remove(v);
                    if restricted.map.is_empty() {
                        return ty.clone();
                    }
                    return restricted.go_binder(*v, *k, body);
                }
                self.go_binder(*v, *k, body)
            }
        }
    }

    fn go_binder(&self, v: Symbol, k: crate::kind::Kind, body: &Type) -> Type {
        if self.range_fv.contains(&v) {
            // Capture: rename the binder first.
            let fresh = Symbol::fresh(v.base_name());
            let renamed = Subst::single(v, Type::Var(fresh)).apply(body);
            Type::Forall(fresh, k, Arc::new(self.go(&renamed)))
        } else {
            Type::Forall(v, k, Arc::new(self.go(body)))
        }
    }
}

/// Convenience wrapper: `ty[replacement/var]`.
pub fn subst_type(ty: &Type, var: Symbol, replacement: &Type) -> Type {
    Subst::single(var, replacement.clone()).apply(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::Kind;

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn substitutes_free_occurrences() {
        let t = Type::arrow(Type::var("a"), Type::var("b"));
        let r = subst_type(&t, v("a"), &Type::int());
        assert_eq!(r.to_string(), "Int -> b");
    }

    #[test]
    fn binder_shadows() {
        let t = Type::forall("a", Kind::Session, Type::var("a"));
        let r = subst_type(&t, v("a"), &Type::int());
        assert!(r.alpha_eq(&t));
    }

    #[test]
    fn avoids_capture() {
        // (∀b. a -> b)[b/a]  must rename the binder.
        let t = Type::forall(
            "b",
            Kind::Session,
            Type::arrow(Type::var("a"), Type::var("b")),
        );
        let r = subst_type(&t, v("a"), &Type::var("b"));
        let expected = Type::forall(
            "c",
            Kind::Session,
            Type::arrow(Type::var("b"), Type::var("c")),
        );
        assert!(r.alpha_eq(&expected), "got {r}");
    }

    #[test]
    fn parallel_substitution_is_simultaneous() {
        // [b/a, a/b] swaps variables rather than chaining.
        let t = Type::pair(Type::var("a"), Type::var("b"));
        let s = Subst::parallel(&[v("a"), v("b")], &[Type::var("b"), Type::var("a")]);
        let r = s.apply(&t);
        assert_eq!(r.to_string(), "(b, a)");
    }

    #[test]
    fn apply_interned_agrees_with_tree_apply() {
        let mut store = crate::Session::new();
        // Includes the capture case: tree apply renames, id apply cannot
        // capture; both land on the same α-class, hence the same id.
        let cases = vec![
            (
                Type::arrow(Type::var("a"), Type::var("b")),
                Subst::single(v("a"), Type::int()),
            ),
            (
                Type::forall(
                    "b",
                    Kind::Session,
                    Type::arrow(Type::var("a"), Type::var("b")),
                ),
                Subst::single(v("a"), Type::var("b")),
            ),
            (
                Type::pair(Type::var("a"), Type::var("b")),
                Subst::parallel(&[v("a"), v("b")], &[Type::var("b"), Type::var("a")]),
            ),
        ];
        for (t, s) in cases {
            let id = store.intern(&t);
            let via_ids = s.apply_interned(&mut store, id);
            let via_tree = s.apply(&t);
            assert_eq!(via_ids, store.intern(&via_tree), "mismatch on {t}");
        }
    }

    #[test]
    fn shadowed_binder_still_applies_other_entries() {
        // (∀a. a ⊗ b)[Int/a, Bool/b]: a is shadowed, b is substituted.
        let t = Type::forall("a", Kind::Value, Type::pair(Type::var("a"), Type::var("b")));
        let s = Subst::parallel(&[v("a"), v("b")], &[Type::int(), Type::bool()]);
        let r = s.apply(&t);
        let expected = Type::forall("a", Kind::Value, Type::pair(Type::var("a"), Type::bool()));
        assert!(r.alpha_eq(&expected), "got {r}");
    }
}
