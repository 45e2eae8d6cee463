//! Property-based tests of the normalization/equivalence metatheory
//! (paper Theorems 1–3 and Lemma 3), over randomly generated well-kinded
//! types.

use algst_core::conversion::one_step_rewrites;
use algst_core::kind::Kind;
use algst_core::kindcheck::KindCtx;
use algst_core::normalize::{is_normal, nrm_neg, nrm_pos, resugar};
use algst_core::protocol::{Ctor, Declarations, ProtocolDecl};
use algst_core::symbol::Symbol;
use algst_core::types::Type;
use algst_core::Session;
use proptest::prelude::*;

/// `T ≡_A U` through a fresh [`Session`] — each property case is
/// hermetic (no cross-case warm state to mask a bug).
fn equivalent(t: &Type, u: &Type) -> bool {
    Session::new().equivalent(t, u)
}

/// Negative-normal-form equivalence through a fresh [`Session`].
fn equivalent_dual(t: &Type, u: &Type) -> bool {
    Session::new().equivalent_dual(t, u)
}

/// Test declarations: a parameterized stream and a mutually recursive
/// pair, mirroring the shapes in the paper's examples.
fn decls() -> Declarations {
    let mut d = Declarations::new();
    d.add_protocol(ProtocolDecl {
        name: Symbol::intern("PStream"),
        params: vec![Symbol::intern("a")],
        ctors: vec![Ctor::new(
            "PNext",
            vec![Type::var("a"), Type::proto("PStream", vec![Type::var("a")])],
        )],
    })
    .unwrap();
    d.add_protocol(ProtocolDecl {
        name: Symbol::intern("PFlip"),
        params: vec![],
        ctors: vec![Ctor::new(
            "PFlipC",
            vec![Type::neg(Type::int()), Type::proto("PFlop", vec![])],
        )],
    })
    .unwrap();
    d.add_protocol(ProtocolDecl {
        name: Symbol::intern("PFlop"),
        params: vec![],
        ctors: vec![
            Ctor::new("PFlopC", vec![Type::int(), Type::proto("PFlip", vec![])]),
            Ctor::new("PFlopQ", vec![]),
        ],
    })
    .unwrap();
    d.validate().unwrap();
    d
}

/// Strategy for well-kinded protocol-kinded types (kind P) with free
/// session variable `sv`.
fn arb_protocol_ty() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::int()),
        Just(Type::bool()),
        Just(Type::string()),
        Just(Type::Unit),
        Just(Type::proto("PFlip", vec![])),
        Just(Type::proto("PFlop", vec![])),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Type::neg),
            inner.clone().prop_map(|t| Type::proto("PStream", vec![t])),
            (inner.clone(), arb_session_from(inner)).prop_map(|(p, s)| Type::pair_hack(p, s)),
        ]
    })
}

/// Session types built from a protocol-type strategy.
fn arb_session_from(proto: BoxedStrategy<Type>) -> BoxedStrategy<Type> {
    let leaf = prop_oneof![Just(Type::EndIn), Just(Type::EndOut), Just(Type::var("sv")),];
    leaf.prop_recursive(6, 64, 3, move |inner| {
        let proto = proto.clone();
        prop_oneof![
            (proto.clone(), inner.clone()).prop_map(|(p, s)| Type::input(p, s)),
            (proto.clone(), inner.clone()).prop_map(|(p, s)| Type::output(p, s)),
            inner.prop_map(Type::dual),
        ]
    })
    .boxed()
}

/// A helper so the protocol strategy can embed *sessions lifted to P*
/// without infinite strategy recursion: sessions are protocols by
/// subsumption, so a pair (p, s) just picks the session.
trait PairHack {
    fn pair_hack(p: Type, s: Type) -> Type;
}
impl PairHack for Type {
    fn pair_hack(_p: Type, s: Type) -> Type {
        s
    }
}

fn arb_session() -> impl Strategy<Value = Type> {
    arb_session_from(arb_protocol_ty().boxed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated session types are well-kinded (sanity of the strategy).
    #[test]
    fn strategy_is_well_kinded(t in arb_session()) {
        let d = decls();
        let mut ctx = KindCtx::new(&d);
        ctx.push_var(Symbol::intern("sv"), Kind::Session);
        prop_assert!(ctx.check(&t, Kind::Session).is_ok(), "{t}");
    }

    /// nrm⁺ lands in the normal-form grammar Q (Lemma 3).
    #[test]
    fn nrm_is_normal(t in arb_session()) {
        prop_assert!(is_normal(&nrm_pos(&t)), "nrm⁺({t}) not normal");
    }

    /// nrm⁺ is idempotent.
    #[test]
    fn nrm_idempotent(t in arb_session()) {
        let once = nrm_pos(&t);
        prop_assert!(once.alpha_eq(&nrm_pos(&once)));
    }

    /// nrm⁻(T) = nrm⁺(Dual T) — the pending-dual reading of Fig. 3.
    #[test]
    fn nrm_neg_is_dual(t in arb_session()) {
        prop_assert!(nrm_neg(&t).alpha_eq(&nrm_pos(&Type::dual(t.clone()))));
    }

    /// Duality is involutory up to equivalence (C-DualInv).
    #[test]
    fn dual_involution(t in arb_session()) {
        prop_assert!(equivalent(&Type::dual(Type::dual(t.clone())), &t));
    }

    /// Negation is involutory on protocol types (C-NegInv).
    #[test]
    fn neg_involution(p in arb_protocol_ty()) {
        let t = Type::output(Type::neg(Type::neg(p.clone())), Type::EndOut);
        let u = Type::output(p, Type::EndOut);
        prop_assert!(equivalent(&t, &u));
    }

    /// ?(-T).S ≡ !T.S and !(-T).S ≡ ?T.S (C-NegIn / C-NegOut).
    #[test]
    fn neg_flips_direction(p in arb_protocol_ty(), s in arb_session()) {
        let lhs = Type::input(Type::neg(p.clone()), s.clone());
        let rhs = Type::output(p.clone(), s.clone());
        prop_assert!(equivalent(&lhs, &rhs));
        let lhs = Type::output(Type::neg(p.clone()), s.clone());
        let rhs = Type::input(p, s);
        prop_assert!(equivalent(&lhs, &rhs));
    }

    /// equivalent_dual agrees with wrapping in Dual (Theorem 1.2).
    #[test]
    fn equivalent_dual_agrees(t in arb_session(), u in arb_session()) {
        prop_assert_eq!(
            equivalent_dual(&t, &u),
            equivalent(&Type::dual(t.clone()), &Type::dual(u.clone()))
        );
    }

    /// Dualization preserves equivalence both ways.
    #[test]
    fn congruence_of_dual(t in arb_session()) {
        prop_assert!(equivalent(&Type::dual(t.clone()), &Type::dual(t.clone())));
        prop_assert_eq!(
            equivalent(&t, &Type::dual(t.clone())),
            equivalent(&Type::dual(t.clone()), &t)
        );
    }

    /// Soundness of the declarative rules (Theorem 1): every one-step
    /// rewrite preserves the normal form.
    #[test]
    fn conversion_rewrites_sound(t in arb_session()) {
        let d = decls();
        let vars = [(Symbol::intern("sv"), Kind::Session)];
        for v in one_step_rewrites(&d, &vars, &t, Kind::Session) {
            prop_assert!(equivalent(&t, &v), "{t} ≢ {v}");
        }
    }

    /// Completeness direction on a decidable sub-case: structurally
    /// different End-terminated spines are inequivalent unless their
    /// normal forms coincide (trivially true — what we check is that
    /// equivalence never identifies types with different spine lengths).
    #[test]
    fn spine_length_is_invariant(t in arb_session()) {
        fn spine_len(t: &Type) -> usize {
            match t {
                Type::In(_, s) | Type::Out(_, s) => 1 + spine_len(s),
                _ => 0,
            }
        }
        let n = nrm_pos(&t);
        let longer = Type::output(Type::int(), t.clone());
        prop_assert!(!equivalent(&t, &longer) || spine_len(&n) == usize::MAX);
    }

    /// node_count is positive and additive enough to serve as the
    /// Figure 10 x-axis.
    #[test]
    fn node_count_sane(t in arb_session(), u in arb_session()) {
        prop_assert!(t.node_count() >= 1);
        let pair = Type::pair(t.clone(), u.clone());
        prop_assert_eq!(pair.node_count(), 1 + t.node_count() + u.node_count());
    }

    // ----------------------- hash-consed type store (see core::store) ----

    /// Interning is idempotent: the same tree always yields the same id,
    /// and re-interning an extraction yields the id back.
    #[test]
    fn store_interning_idempotent(t in arb_session()) {
        let mut s = Session::new();
        let a = s.intern(&t);
        let b = s.intern(&t);
        prop_assert_eq!(a, b);
        let back = s.extract(a);
        prop_assert_eq!(s.intern(&back), a);
    }

    /// `Type → TypeId → Type` round-trips α-equivalently.
    #[test]
    fn store_round_trip_alpha_equivalent(t in arb_session()) {
        let mut s = Session::new();
        let id = s.intern(&t);
        let back = s.extract(id);
        prop_assert!(t.alpha_eq(&back), "{} vs {}", t, back);
    }

    /// α-equivalent inputs intern to the same id (binders are canonical).
    #[test]
    fn store_identifies_alpha_classes(t in arb_session()) {
        let quant = Type::forall("sv", Kind::Session, t.clone());
        let renamed = algst_core::subst::subst_type(&t, Symbol::intern("sv"), &Type::var("renamedSv"));
        let quant2 = Type::forall("renamedSv", Kind::Session, renamed);
        let mut s = Session::new();
        prop_assert_eq!(s.intern(&quant), s.intern(&quant2));
    }

    /// `nrm` is a fixpoint at the id level: nrm(nrm(t)) == nrm(t), and
    /// the result is flagged as normalized (O(1) on later queries).
    #[test]
    fn store_nrm_fixpoint(t in arb_session()) {
        let mut s = Session::new();
        let id = s.intern(&t);
        let n = s.nrm(id);
        prop_assert_eq!(s.nrm(n), n);
        prop_assert!(s.is_normalized(n));
        // ...and it agrees with a *fresh* normalization of the extracted
        // normal form (the fixpoint is semantic, not just memo-seeded).
        let back = s.extract(n);
        let mut fresh = Session::new();
        let reid = fresh.intern(&back);
        prop_assert_eq!(fresh.nrm(reid), reid, "extracted NF renormalized differently");
    }

    /// The store's normalization agrees with the tree-level `nrm⁺`.
    #[test]
    fn store_nrm_agrees_with_tree_nrm(t in arb_session()) {
        let mut s = Session::new();
        let id = s.intern(&t);
        let via_store = s.nrm(id);
        let via_tree = s.intern(&nrm_pos(&t));
        prop_assert_eq!(via_store, via_tree, "store/tree mismatch on {}", t);
    }

    /// Dual is an involution at the id level:
    /// `nrm⁻(nrm⁻(t)) == nrm⁺(t)` and `nrm(Dual (Dual t)) == nrm(t)`.
    #[test]
    fn store_dual_involution(t in arb_session()) {
        let mut s = Session::new();
        let id = s.intern(&t);
        let once = s.nrm_neg(id);
        let twice = s.nrm_neg(once);
        prop_assert_eq!(twice, s.nrm(id));
        let dd = s.intern(&Type::dual(Type::dual(t.clone())));
        let n = s.nrm(dd);
        prop_assert_eq!(n, s.nrm(id));
    }

    /// `nrm⁻` at the id level is `nrm⁺ ∘ Dual`, mirroring the tree fact.
    #[test]
    fn store_nrm_neg_is_dual(t in arb_session()) {
        let mut s = Session::new();
        let id = s.intern(&t);
        let dual = s.intern(&Type::dual(t.clone()));
        let lhs = s.nrm_neg(id);
        prop_assert_eq!(lhs, s.nrm(dual));
    }

    /// Store equivalence agrees with the tree-level decision procedure on
    /// both related and unrelated pairs.
    #[test]
    fn store_equivalence_agrees(t in arb_session(), u in arb_session()) {
        let tree = nrm_pos(&t).alpha_eq(&nrm_pos(&u));
        let mut s = Session::new();
        let a = s.intern(&t);
        let b = s.intern(&u);
        prop_assert_eq!(s.equivalent_ids(a, b), tree);
    }

    /// Resugaring is display-only: it never changes the equivalence class.
    #[test]
    fn resugar_preserves_equivalence(t in arb_session()) {
        let n = nrm_pos(&t);
        let r = resugar(&n);
        prop_assert!(equivalent(&r, &n), "{} resugared to inequivalent {}", n, r);
    }
}
