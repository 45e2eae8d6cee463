//! The declarative type conversion relation (paper Fig. 2) as a rewrite
//! system.
//!
//! Normalization ([`crate::normalize`]) is the *algorithmic* side of type
//! equivalence. This module implements the *declarative* rules as oriented
//! one-step rewrites at arbitrary positions, serving two purposes:
//!
//! 1. **Testing** soundness/completeness (Theorems 1 and 2): every chain of
//!    rewrites must preserve the normal form.
//! 2. **Generation**: the paper's benchmark generator (Section 5) produces
//!    equivalent test pairs by "randomly applying the properties of
//!    normalization"; [`one_step_rewrites`] enumerates exactly those
//!    applications, and `algst-gen` samples random walks over them.
//!
//! Every returned rewrite is well-kinded at its position, which the walker
//! tracks via the expected kind.

use crate::kind::Kind;
use crate::kindcheck::KindCtx;
use crate::protocol::Declarations;
use crate::store::{StoreOps, TypeId};
use crate::symbol::Symbol;
use crate::types::Type;
use std::sync::Arc;

/// Enumerates all types reachable from `ty` by one application of a
/// conversion rule (Fig. 2) at any position, in either direction.
///
/// `expected` is the kind of the position `ty` sits in (use
/// [`Kind::Session`] for a session type under test, [`Kind::Protocol`] for
/// a protocol). `vars` assigns kinds to the free type variables of `ty`.
pub fn one_step_rewrites(
    decls: &Declarations,
    vars: &[(Symbol, Kind)],
    ty: &Type,
    expected: Kind,
) -> Vec<Type> {
    let mut ctx = KindCtx::new(decls);
    for (v, k) in vars {
        ctx.push_var(*v, *k);
    }
    let mut out = Vec::new();
    rewrites(&mut ctx, ty, expected, &mut out);
    out
}

/// Like [`one_step_rewrites`], but interning every variant into `store`
/// on the way out. Useful when exploring the conversion relation
/// iteratively (frontiers of rewrite-reachable types dedup to id sets,
/// since hash-consing identifies α-equivalent variants), and for
/// checking Theorem 1 at the id level: every variant must share the
/// original's normal-form id.
pub fn one_step_rewrites_interned(
    store: &mut impl StoreOps,
    decls: &Declarations,
    vars: &[(Symbol, Kind)],
    ty: &Type,
    expected: Kind,
) -> Vec<TypeId> {
    one_step_rewrites(decls, vars, ty, expected)
        .iter()
        .map(|t| store.intern(t))
        .collect()
}

fn rewrites(ctx: &mut KindCtx<'_>, ty: &Type, expected: Kind, out: &mut Vec<Type>) {
    root_rewrites(ctx, ty, expected, out);
    congruence_rewrites(ctx, ty, out);
}

/// Rule applications whose redex is the root of `ty`.
fn root_rewrites(ctx: &mut KindCtx<'_>, ty: &Type, expected: Kind, out: &mut Vec<Type>) {
    let synth = match ctx.synth(ty) {
        Ok(k) => k,
        Err(_) => return, // ill-kinded subterm: nothing to do
    };

    match ty {
        // ---- eliminations ------------------------------------------------
        Type::Dual(inner) => match &**inner {
            // C-DualEnd?:  Dual End? → End!
            Type::EndIn => out.push(Type::EndOut),
            // C-DualEnd!:  Dual End! → End?
            Type::EndOut => out.push(Type::EndIn),
            // C-DualIn:  Dual (?T.S) → !T.Dual S
            Type::In(p, s) => out.push(Type::output((**p).clone(), Type::Dual(s.clone()))),
            // C-DualOut:  Dual (!T.S) → ?T.Dual S
            Type::Out(p, s) => out.push(Type::input((**p).clone(), Type::Dual(s.clone()))),
            // C-DualInv:  Dual (Dual S) → S
            Type::Dual(s) => out.push((**s).clone()),
            _ => {}
        },
        Type::Neg(inner) => {
            // C-NegInv:  -(-T) → T
            if let Type::Neg(t) = &**inner {
                out.push((**t).clone());
            }
        }
        Type::In(p, s) => {
            // C-NegIn:  ?(-T).S → !T.S
            if let Type::Neg(t) = &**p {
                out.push(Type::Out(t.clone(), s.clone()));
            }
            // reverse of C-NegOut:  ?T.S → !(-T).S
            out.push(Type::output(Type::Neg(p.clone()), (**s).clone()));
        }
        Type::Out(p, s) => {
            // C-NegOut:  !(-T).S → ?T.S
            if let Type::Neg(t) = &**p {
                out.push(Type::In(t.clone(), s.clone()));
            }
            // reverse of C-NegIn:  !T.S → ?(-T).S
            out.push(Type::input(Type::Neg(p.clone()), (**s).clone()));
        }
        // reverse of C-DualEnd!:  End? → Dual End!
        Type::EndIn => out.push(Type::dual(Type::EndOut)),
        // reverse of C-DualEnd?:  End! → Dual End?
        Type::EndOut => out.push(Type::dual(Type::EndIn)),
        _ => {}
    }

    // ---- introductions (insert involutions) ------------------------------
    // S → Dual (Dual S): requires S to be a session type.
    if synth == Kind::Session {
        out.push(Type::dual(Type::dual(ty.clone())));
        // S of session kind can also be wrapped as Dual(spine-dual): e.g.
        // ?T.S → Dual (!T.Dual S), derivable from C-DualOut + C-DualInv.
        match ty {
            Type::In(p, s) => out.push(Type::dual(Type::Out(
                p.clone(),
                Arc::new(Type::Dual(s.clone())),
            ))),
            Type::Out(p, s) => out.push(Type::dual(Type::In(
                p.clone(),
                Arc::new(Type::Dual(s.clone())),
            ))),
            _ => {}
        }
    }
    // T → -(-T): the result has kind P, so the position must expect P.
    if expected == Kind::Protocol {
        out.push(Type::neg(Type::neg(ty.clone())));
    }
}

/// Rule applications inside a proper subterm (the omitted congruence rules
/// of Fig. 2).
fn congruence_rewrites(ctx: &mut KindCtx<'_>, ty: &Type, out: &mut Vec<Type>) {
    // Helper: rewrites of a child, reassembled via `build`.
    macro_rules! child {
        ($child:expr, $kind:expr, $build:expr) => {{
            let mut sub = Vec::new();
            rewrites(ctx, $child, $kind, &mut sub);
            for c in sub {
                out.push($build(c));
            }
        }};
    }

    match ty {
        Type::Unit | Type::Base(_) | Type::Var(_) | Type::EndIn | Type::EndOut => {}
        Type::Arrow(a, b) => {
            child!(a, Kind::Value, |c| Type::arrow(c, (**b).clone()));
            child!(b, Kind::Value, |c| Type::arrow((**a).clone(), c));
        }
        Type::Pair(a, b) => {
            child!(a, Kind::Value, |c| Type::pair(c, (**b).clone()));
            child!(b, Kind::Value, |c| Type::pair((**a).clone(), c));
        }
        Type::Forall(v, k, body) => {
            ctx.push_var(*v, *k);
            let mut sub = Vec::new();
            rewrites(ctx, body, Kind::Value, &mut sub);
            ctx.pop_var();
            for c in sub {
                out.push(Type::forall(*v, *k, c));
            }
        }
        Type::In(p, s) => {
            child!(p, Kind::Protocol, |c| Type::input(c, (**s).clone()));
            child!(s, Kind::Session, |c| Type::input((**p).clone(), c));
        }
        Type::Out(p, s) => {
            child!(p, Kind::Protocol, |c| Type::output(c, (**s).clone()));
            child!(s, Kind::Session, |c| Type::output((**p).clone(), c));
        }
        Type::Dual(s) => child!(s, Kind::Session, Type::dual),
        Type::Neg(t) => child!(t, Kind::Protocol, Type::neg),
        Type::Proto(name, args) => {
            for (i, a) in args.iter().enumerate() {
                let mut sub = Vec::new();
                rewrites(ctx, a, Kind::Protocol, &mut sub);
                for c in sub {
                    let mut new_args = args.clone();
                    new_args[i] = c;
                    out.push(Type::Proto(*name, new_args));
                }
            }
        }
        Type::Data(name, args) => {
            for (i, a) in args.iter().enumerate() {
                let mut sub = Vec::new();
                rewrites(ctx, a, Kind::Value, &mut sub);
                for c in sub {
                    let mut new_args = args.clone();
                    new_args[i] = c;
                    out.push(Type::Data(*name, new_args));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn equivalent(t: &Type, u: &Type) -> bool {
        Session::new().equivalent(t, u)
    }
    use crate::protocol::{Ctor, ProtocolDecl};

    fn sample_decls() -> Declarations {
        let mut d = Declarations::new();
        d.add_protocol(ProtocolDecl {
            name: Symbol::intern("ConvP"),
            params: vec![Symbol::intern("a")],
            ctors: vec![Ctor::new(
                "ConvNext",
                vec![Type::var("a"), Type::proto("ConvP", vec![Type::var("a")])],
            )],
        })
        .unwrap();
        d.validate().unwrap();
        d
    }

    #[test]
    fn rewrites_preserve_equivalence() {
        let decls = sample_decls();
        let t = Type::dual(Type::input(
            Type::neg(Type::proto("ConvP", vec![Type::int()])),
            Type::output(Type::int(), Type::EndOut),
        ));
        let variants = one_step_rewrites(&decls, &[], &t, Kind::Session);
        assert!(!variants.is_empty());
        for v in &variants {
            assert!(equivalent(&t, v), "{t}  ≢  {v}");
        }
    }

    #[test]
    fn interned_rewrites_preserve_the_store_normal_form() {
        // Theorem 1 at the id level: every one-step rewrite lands in the
        // same normal-form id as the original.
        let decls = sample_decls();
        let mut store = crate::Session::new();
        let t = Type::dual(Type::input(
            Type::neg(Type::proto("ConvP", vec![Type::int()])),
            Type::output(Type::int(), Type::EndOut),
        ));
        let t_id = store.intern(&t);
        let n = store.nrm(t_id);
        let variants = one_step_rewrites_interned(&mut store, &decls, &[], &t, Kind::Session);
        assert!(!variants.is_empty());
        for v in variants {
            assert_eq!(store.nrm(v), n, "variant {:?} broke the normal form", v);
        }
    }

    #[test]
    fn rewrites_are_closed_under_iteration() {
        let decls = sample_decls();
        let mut frontier = vec![Type::output(Type::int(), Type::EndIn)];
        let original = frontier[0].clone();
        for _ in 0..3 {
            let mut next = Vec::new();
            for t in &frontier {
                for v in one_step_rewrites(&decls, &[], t, Kind::Session) {
                    assert!(equivalent(&original, &v), "{original}  ≢  {v}");
                    next.push(v);
                }
            }
            // keep it bounded
            next.truncate(10);
            frontier = next;
        }
    }

    #[test]
    fn neg_insertion_only_at_protocol_positions() {
        let decls = sample_decls();
        let t = Type::EndOut;
        let at_session = one_step_rewrites(&decls, &[], &t, Kind::Session);
        assert!(at_session.iter().all(|v| !matches!(v, Type::Neg(_))));
        let at_proto = one_step_rewrites(&decls, &[], &t, Kind::Protocol);
        assert!(at_proto.iter().any(|v| matches!(v, Type::Neg(_))));
    }

    #[test]
    fn dual_dual_insertion_present() {
        let decls = sample_decls();
        let t = Type::EndIn;
        let vs = one_step_rewrites(&decls, &[], &t, Kind::Session);
        assert!(vs.contains(&Type::dual(Type::dual(Type::EndIn))));
        assert!(vs.contains(&Type::dual(Type::EndOut)));
    }

    #[test]
    fn variable_kinds_respected() {
        let decls = sample_decls();
        let a = Symbol::intern("aConv");
        let t = Type::var("aConv");
        // As a session variable, Dual-Dual insertion applies.
        let vs = one_step_rewrites(&decls, &[(a, Kind::Session)], &t, Kind::Session);
        assert!(vs.contains(&Type::dual(Type::dual(t.clone()))));
        // As a protocol variable, it does not (Dual needs kind S).
        let vs = one_step_rewrites(&decls, &[(a, Kind::Protocol)], &t, Kind::Protocol);
        assert!(!vs.contains(&Type::dual(Type::dual(t.clone()))));
        assert!(vs.contains(&Type::neg(Type::neg(t))));
    }
}
