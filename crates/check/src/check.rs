//! The bidirectional expression typechecker (paper Fig. 5).
//!
//! Two mutually recursive judgments with leftover contexts:
//!
//! * `Δ | Γ₁ ⊢ e ⇒ T | Γ₂` — [`Checker::synth`] (type synthesis)
//! * `Δ | Γ₁ ⊢ e ⇐ T | Γ₂` — [`Checker::check`] (checking against a type)
//!
//! Invariants maintained exactly as in the paper: every type written into
//! the context is in normal form; synthesis returns normal forms; checking
//! expects its goal in normal form; rule E-Check compares up to
//! α-equivalence. The checking judgment additionally handles unannotated
//! lambdas and pushes goals through `let`/`if`/`match` (the E-Abs'/E-App'
//! style extensions described in Section 5).
//!
//! Representation split: the checker *destructures* boundary
//! [`Type`] trees, but the context stores α-canonical
//! [`TypeId`](algst_core::store::TypeId)s interned in the checker's
//! [`Session`], and every equality test (E-Check, branch agreement,
//! context agreement) is an id comparison. `∀`-instantiation (E-TApp)
//! happens at the id level, where it is capture-free and memoized.
//!
//! The session is **injected** ([`Checker::new`]): two checkers over
//! two sessions share no state, and a server can hand every worker its
//! own engine.

use crate::constants::type_of_const;
use crate::context::Ctx;
use crate::error::TypeError;
use algst_core::expr::{Arm, Expr};
use algst_core::kind::Kind;
use algst_core::kindcheck::KindCtx;
use algst_core::normalize::{dir_neg_seq, materialize_seq, nrm_pos, resugar};
use algst_core::protocol::Declarations;
use algst_core::subst::{subst_type, Subst};
use algst_core::symbol::Symbol;
use algst_core::types::Type;
use algst_core::Session;
use std::collections::HashMap;

/// The expression typechecker. Holds the global protocol/datatype
/// declarations `Δ`, the stack of in-scope type variables, and the
/// [`Session`] all interning/instantiation runs against.
pub struct Checker<'d, 's> {
    decls: &'d Declarations,
    session: &'s mut Session,
    tyvars: Vec<(Symbol, Kind)>,
}

impl<'d, 's> Checker<'d, 's> {
    pub fn new(decls: &'d Declarations, session: &'s mut Session) -> Checker<'d, 's> {
        Checker {
            decls,
            session,
            tyvars: Vec::new(),
        }
    }

    pub fn decls(&self) -> &'d Declarations {
        self.decls
    }

    fn kind_ctx(&self) -> KindCtx<'d> {
        let mut ctx = KindCtx::new(self.decls);
        for (v, k) in &self.tyvars {
            ctx.push_var(*v, *k);
        }
        ctx
    }

    fn check_kind(&self, ty: &Type, k: Kind) -> Result<(), TypeError> {
        self.kind_ctx().check(ty, k).map_err(TypeError::from)
    }

    /// Pushes a term binder, choosing linear vs. unrestricted usage from
    /// its type (cf. [`crate::context::is_unrestricted`]).
    fn push_term(&mut self, ctx: &mut Ctx, name: Symbol, ty: Type) {
        let un = crate::context::is_unrestricted(self.decls, &ty);
        ctx.push_term(self.session, name, ty, un);
    }

    /// α-equivalence through the session: both sides intern to
    /// α-canonical ids, so the comparison itself is integer equality
    /// (and both trees are hash-consed for later reuse).
    fn alpha_eq_interned(&mut self, a: &Type, b: &Type) -> bool {
        self.session.intern(a) == self.session.intern(b)
    }

    fn expect_alpha_eq(&mut self, expected: &Type, found: &Type) -> Result<(), TypeError> {
        if self.alpha_eq_interned(expected, found) {
            Ok(())
        } else {
            // Both sides are normal forms; resugar them for the
            // diagnostic (pull reified `Dual α` out of spines, drop
            // fresh binder names).
            Err(TypeError::Mismatch {
                expected: resugar(expected),
                found: resugar(found),
            })
        }
    }

    // ------------------------------------------------------------ synthesis

    /// `Δ | Γ ⊢ e ⇒ T | Γ'` — synthesizes the type of `e`, consuming the
    /// used linear entries of `ctx` in place. The result is in normal form.
    pub fn synth(&mut self, ctx: &mut Ctx, e: &Expr) -> Result<Type, TypeError> {
        match e {
            // E-Const (literals, builtins and session constants)
            Expr::Lit(l) => Ok(l.type_of()),
            Expr::Builtin(b) => Ok(b.type_of()),
            Expr::Const(c) => type_of_const(self.decls, *c),

            // E-Var / E-Var⋆ — the context stores interned ids; the
            // checker destructures trees, so extract at the boundary.
            Expr::Var(x) => ctx
                .use_var_ty(self.session, *x)
                .ok_or(TypeError::UnboundVariable(*x)),

            // E-Abs
            Expr::Abs(x, ann, body) => {
                self.check_kind(ann, Kind::Value)?;
                let v = nrm_pos(ann);
                self.push_term(ctx, *x, v.clone());
                let u = self.synth(ctx, body)?;
                ctx.expect_consumed(*x)?;
                Ok(Type::arrow(v, u))
            }

            Expr::AbsU(..) => Err(TypeError::NeedsAnnotation),

            // E-App — with the E-App' refinement (Section 5) for applied
            // unannotated lambdas: synthesize the argument first, then
            // type the body like a let. Such redexes arise from
            // β-reduction of checked terms (cf. Theorem 4).
            Expr::App(f, a) => {
                if let Expr::AbsU(x, body) = &**f {
                    let t = self.synth(ctx, a)?;
                    self.push_term(ctx, *x, t);
                    let u = self.synth(ctx, body)?;
                    ctx.expect_consumed(*x)?;
                    return Ok(u);
                }
                let ft = self.synth(ctx, f)?;
                match ft {
                    Type::Arrow(dom, cod) => {
                        self.check(ctx, a, &dom)?;
                        Ok((*cod).clone())
                    }
                    other => Err(TypeError::NotAFunction(other)),
                }
            }

            // E-TAbs (with the value restriction)
            Expr::TAbs(alpha, kappa, v) => {
                if !v.is_value() {
                    return Err(TypeError::TAbsNotValue);
                }
                self.tyvars.push((*alpha, *kappa));
                let t = self.synth(ctx, v);
                self.tyvars.pop();
                Ok(Type::forall(*alpha, *kappa, t?))
            }

            // E-TApp: β-instantiate and normalize at the id level —
            // capture-free by construction (nameless binders) and
            // memoized, so re-instantiating a signature already seen is
            // mostly table lookups.
            Expr::TApp(f, arg) => {
                let ft = self.synth(ctx, f)?;
                if let Type::Forall(_, kappa, _) = &ft {
                    let kappa = *kappa;
                    let mut kctx = self.kind_ctx();
                    let s = &mut *self.session;
                    let aid = s.intern(arg);
                    // Kind checking only reads nodes, through the
                    // session's store.
                    kctx.check_id(&*s, aid, kappa).map_err(TypeError::from)?;
                    let fid = s.intern(&ft);
                    let inst = s.instantiate(fid, aid).expect("interned from a Forall");
                    let n = s.nrm(inst);
                    return Ok(s.extract_cached(n));
                }
                Err(TypeError::NotAForall(ft))
            }

            // E-Rec: unrestricted self-binding, no linear captures.
            Expr::Rec(x, ann, v) => {
                self.check_kind(ann, Kind::Value)?;
                let vty = nrm_pos(ann);
                if !matches!(vty, Type::Arrow(..) | Type::Forall(..)) {
                    return Err(TypeError::RecNotArrow(vty));
                }
                let before = ctx.linear_names();
                ctx.push_unrestricted(self.session, *x, vty.clone());
                self.check(ctx, v, &vty)?;
                ctx.remove(*x);
                let after = ctx.linear_names();
                if before != after {
                    let captured = before.into_iter().filter(|n| !after.contains(n)).collect();
                    return Err(TypeError::LinearInRecursive {
                        function: *x,
                        captured,
                    });
                }
                Ok(vty)
            }

            // E-Pair
            Expr::Pair(a, b) => {
                let ta = self.synth(ctx, a)?;
                let tb = self.synth(ctx, b)?;
                Ok(Type::pair(ta, tb))
            }

            // E-Let (pair elimination)
            Expr::LetPair(x, y, bound, body) => {
                let bt = self.synth(ctx, bound)?;
                let Type::Pair(t, u) = bt else {
                    return Err(TypeError::NotAPair(bt));
                };
                self.push_term(ctx, *x, (*t).clone());
                self.push_term(ctx, *y, (*u).clone());
                let v = self.synth(ctx, body)?;
                ctx.expect_consumed(*y)?;
                ctx.expect_consumed(*x)?;
                Ok(v)
            }

            // E-Let*
            Expr::LetUnit(bound, body) => {
                self.check(ctx, bound, &Type::Unit)?;
                self.synth(ctx, body)
            }

            // let x = e in e (sugar, checked like a linear binder)
            Expr::Let(x, bound, body) => {
                let t = self.synth(ctx, bound)?;
                self.push_term(ctx, *x, t);
                let v = self.synth(ctx, body)?;
                ctx.expect_consumed(*x)?;
                Ok(v)
            }

            Expr::If(cond, thn, els) => {
                self.check(ctx, cond, &Type::bool())?;
                let mut ctx2 = ctx.clone();
                let t1 = self.synth(ctx, thn)?;
                let t2 = self.synth(&mut ctx2, els)?;
                if !self.alpha_eq_interned(&t1, &t2) {
                    return Err(TypeError::BranchTypeMismatch {
                        first: t1,
                        other: t2,
                    });
                }
                ctx.same_linear(&ctx2, self.session)
                    .map_err(|detail| TypeError::BranchContextMismatch { detail })?;
                Ok(t1)
            }

            Expr::Con(tag, args) => self.synth_con(ctx, *tag, args, None),

            // E-Match (channels) / case (datatypes)
            Expr::Case(scrutinee, arms) => self.case_expr(ctx, scrutinee, arms, None),
        }
    }

    // ------------------------------------------------------------- checking

    /// `Δ | Γ ⊢ e ⇐ T | Γ'` — checks `e` against `expected`, which must be
    /// in normal form.
    pub fn check(&mut self, ctx: &mut Ctx, e: &Expr, expected: &Type) -> Result<(), TypeError> {
        match (e, expected) {
            // E-Abs' — unannotated lambda against an arrow.
            (Expr::AbsU(x, body), Type::Arrow(dom, cod)) => {
                self.push_term(ctx, *x, (**dom).clone());
                self.check(ctx, body, cod)?;
                ctx.expect_consumed(*x)
            }
            (Expr::AbsU(..), other) => Err(TypeError::NotAFunction(other.clone())),

            // Λα:κ.v against ∀β:κ.U
            (Expr::TAbs(alpha, kappa, v), Type::Forall(beta, kappa2, u)) if kappa == kappa2 => {
                if !v.is_value() {
                    return Err(TypeError::TAbsNotValue);
                }
                let goal = if alpha == beta {
                    (**u).clone()
                } else {
                    subst_type(u, *beta, &Type::Var(*alpha))
                };
                self.tyvars.push((*alpha, *kappa));
                let r = self.check(ctx, v, &goal);
                self.tyvars.pop();
                r
            }

            // Push the goal through binders and branches for better
            // propagation of expected types.
            (Expr::Let(x, bound, body), _) => {
                let t = self.synth(ctx, bound)?;
                self.push_term(ctx, *x, t);
                self.check(ctx, body, expected)?;
                ctx.expect_consumed(*x)
            }
            (Expr::LetUnit(bound, body), _) => {
                self.check(ctx, bound, &Type::Unit)?;
                self.check(ctx, body, expected)
            }
            (Expr::LetPair(x, y, bound, body), _) => {
                let bt = self.synth(ctx, bound)?;
                let Type::Pair(t, u) = bt else {
                    return Err(TypeError::NotAPair(bt));
                };
                self.push_term(ctx, *x, (*t).clone());
                self.push_term(ctx, *y, (*u).clone());
                self.check(ctx, body, expected)?;
                ctx.expect_consumed(*y)?;
                ctx.expect_consumed(*x)
            }
            (Expr::If(cond, thn, els), _) => {
                self.check(ctx, cond, &Type::bool())?;
                let mut ctx2 = ctx.clone();
                self.check(ctx, thn, expected)?;
                self.check(&mut ctx2, els, expected)?;
                ctx.same_linear(&ctx2, self.session)
                    .map_err(|detail| TypeError::BranchContextMismatch { detail })
            }
            (Expr::Case(scrutinee, arms), _) => self
                .case_expr(ctx, scrutinee, arms, Some(expected))
                .map(|_| ()),
            // E-App' for an applied unannotated lambda in checking mode.
            (Expr::App(f, a), _) if matches!(&**f, Expr::AbsU(..)) => {
                let Expr::AbsU(x, body) = &**f else {
                    unreachable!("guarded by matches!")
                };
                let t = self.synth(ctx, a)?;
                self.push_term(ctx, *x, t);
                self.check(ctx, body, expected)?;
                ctx.expect_consumed(*x)
            }
            (Expr::Con(tag, args), Type::Data(..)) => self
                .synth_con(ctx, *tag, args, Some(expected))
                .and_then(|t| self.expect_alpha_eq(expected, &t)),

            // E-Check: synthesize and compare up to α-equivalence.
            _ => {
                let found = self.synth(ctx, e)?;
                self.expect_alpha_eq(expected, &found)
            }
        }
    }

    // ------------------------------------------------------ shared helpers

    /// Constructor application. When `expected` is a `Data` type, the
    /// parameter instantiation is taken from it; otherwise it is inferred
    /// by first-order matching against the synthesized argument types.
    fn synth_con(
        &mut self,
        ctx: &mut Ctx,
        tag: Symbol,
        args: &[Expr],
        expected: Option<&Type>,
    ) -> Result<Type, TypeError> {
        let (decl, k) = self
            .decls
            .data_of_tag(tag)
            .ok_or(TypeError::UnboundConstructor(tag))?;
        let (name, params, ctor_args) =
            (decl.name, decl.params.clone(), decl.ctors[k].args.clone());
        if ctor_args.len() != args.len() {
            return Err(TypeError::CtorArity {
                tag,
                expected: ctor_args.len(),
                found: args.len(),
            });
        }

        if let Some(Type::Data(dname, dargs)) = expected {
            if *dname == name && dargs.len() == params.len() {
                // Check-mode: instantiate from the expected type.
                let subst = Subst::parallel(&params, dargs);
                for (arg, pat) in args.iter().zip(&ctor_args) {
                    let goal = nrm_pos(&subst.apply(pat));
                    self.check(ctx, arg, &goal)?;
                }
                return Ok(expected.expect("matched Some above").clone());
            }
        }

        if params.is_empty() {
            for (arg, pat) in args.iter().zip(&ctor_args) {
                let goal = nrm_pos(pat);
                self.check(ctx, arg, &goal)?;
            }
            return Ok(Type::Data(name, Vec::new()));
        }

        // Synthesis-mode inference: match declared argument types against
        // the synthesized ones to solve for the data parameters.
        let mut solved: HashMap<Symbol, Type> = HashMap::new();
        for (arg, pat) in args.iter().zip(&ctor_args) {
            let actual = self.synth(ctx, arg)?;
            if !match_type(&nrm_pos(pat), &actual, &params, &mut solved) {
                return Err(TypeError::Mismatch {
                    expected: nrm_pos(pat),
                    found: actual,
                });
            }
        }
        let inst: Vec<Type> = params
            .iter()
            .map(|p| {
                solved
                    .get(p)
                    .cloned()
                    .ok_or(TypeError::CannotInferCtorParams(tag))
            })
            .collect::<Result<_, _>>()?;
        Ok(Type::Data(name, inst))
    }

    /// `match e with {Cᵢ xᵢ → eᵢ}` over a channel (rule E-Match) or a
    /// datatype value. With `goal = Some(T)` the bodies are *checked*
    /// against `T`; otherwise the common type is synthesized.
    fn case_expr(
        &mut self,
        ctx: &mut Ctx,
        scrutinee: &Expr,
        arms: &[Arm],
        goal: Option<&Type>,
    ) -> Result<Type, TypeError> {
        let st = self.synth(ctx, scrutinee)?;

        // Determine, per arm tag, the list of types to bind.
        enum Kinded {
            /// Channel match: single binder at the continuation type.
            Channel(HashMap<Symbol, Type>),
            /// Data case: one binder per field.
            Data(HashMap<Symbol, Vec<Type>>),
        }

        let (decl_name, table) = match &st {
            Type::In(payload, cont) => match &**payload {
                Type::Proto(rho, us) => {
                    let decl = self
                        .decls
                        .protocol(*rho)
                        .ok_or(TypeError::UnboundTag(*rho))?;
                    let subst = Subst::parallel(&decl.params, us);
                    let mut map = HashMap::new();
                    for c in &decl.ctors {
                        // xᵢ : §(−(T̄ᵢ[Ū/ᾱ])).S
                        let payloads: Vec<Type> = c.args.iter().map(|t| subst.apply(t)).collect();
                        let bound = materialize_seq(
                            dir_neg_seq(payloads.iter().map(nrm_pos).collect()),
                            (**cont).clone(),
                        );
                        map.insert(c.tag, nrm_pos(&bound));
                    }
                    (decl.name, Kinded::Channel(map))
                }
                _ => return Err(TypeError::NotMatchable(st.clone())),
            },
            Type::Data(dname, us) => {
                let decl = self
                    .decls
                    .data(*dname)
                    .ok_or(TypeError::UnknownTypeName(*dname))?;
                let subst = Subst::parallel(&decl.params, us);
                let mut map = HashMap::new();
                for c in &decl.ctors {
                    let tys: Vec<Type> = c.args.iter().map(|t| nrm_pos(&subst.apply(t))).collect();
                    map.insert(c.tag, tys);
                }
                (decl.name, Kinded::Data(map))
            }
            other => return Err(TypeError::NotMatchable(other.clone())),
        };

        // Exhaustiveness: arms must cover the declared tags exactly.
        let declared: Vec<Symbol> = match &table {
            Kinded::Channel(m) => m.keys().copied().collect(),
            Kinded::Data(m) => m.keys().copied().collect(),
        };
        let used: Vec<Symbol> = arms.iter().map(|a| a.tag).collect();
        let missing: Vec<Symbol> = declared
            .iter()
            .copied()
            .filter(|t| !used.contains(t))
            .collect();
        let extra: Vec<Symbol> = used
            .iter()
            .copied()
            .filter(|t| !declared.contains(t))
            .collect();
        let duplicated = used.len()
            != arms
                .iter()
                .map(|a| a.tag)
                .collect::<std::collections::HashSet<_>>()
                .len();
        if !missing.is_empty() || !extra.is_empty() || duplicated {
            return Err(TypeError::BadCoverage {
                ty: decl_name,
                missing,
                extra,
            });
        }

        // Type each arm on a clone of the post-scrutinee context; all arms
        // must agree on output type and leftover context.
        let base = ctx.clone();
        let mut result: Option<(Type, Ctx)> = None;
        for arm in arms {
            let mut bctx = base.clone();
            match &table {
                Kinded::Channel(m) => {
                    if arm.binders.len() != 1 {
                        return Err(TypeError::WrongArmArity {
                            tag: arm.tag,
                            expected: 1,
                            found: arm.binders.len(),
                        });
                    }
                    self.push_term(&mut bctx, arm.binders[0], m[&arm.tag].clone());
                }
                Kinded::Data(m) => {
                    let tys = &m[&arm.tag];
                    if arm.binders.len() != tys.len() {
                        return Err(TypeError::WrongArmArity {
                            tag: arm.tag,
                            expected: tys.len(),
                            found: arm.binders.len(),
                        });
                    }
                    for (b, t) in arm.binders.iter().zip(tys) {
                        self.push_term(&mut bctx, *b, t.clone());
                    }
                }
            }
            let vt = match goal {
                Some(t) => {
                    self.check(&mut bctx, &arm.body, t)?;
                    t.clone()
                }
                None => self.synth(&mut bctx, &arm.body)?,
            };
            for b in arm.binders.iter().rev() {
                bctx.expect_consumed(*b)?;
            }
            match &result {
                None => result = Some((vt, bctx)),
                Some((t0, ctx0)) => {
                    if !self.alpha_eq_interned(t0, &vt) {
                        return Err(TypeError::BranchTypeMismatch {
                            first: t0.clone(),
                            other: vt,
                        });
                    }
                    ctx0.same_linear(&bctx, self.session)
                        .map_err(|detail| TypeError::BranchContextMismatch { detail })?;
                }
            }
        }
        let (vt, out_ctx) = result.expect("coverage guarantees at least one arm");
        *ctx = out_ctx;
        Ok(vt)
    }
}

/// First-order matching of a declared constructor argument type (with
/// `params` as match variables) against a concrete type. Repeated
/// parameters must match α-equivalent types.
fn match_type(
    pattern: &Type,
    actual: &Type,
    params: &[Symbol],
    solved: &mut HashMap<Symbol, Type>,
) -> bool {
    match (pattern, actual) {
        (Type::Var(v), _) if params.contains(v) => match solved.get(v) {
            Some(prev) => prev.alpha_eq(actual),
            None => {
                solved.insert(*v, actual.clone());
                true
            }
        },
        (Type::Unit, Type::Unit) => true,
        (Type::Base(a), Type::Base(b)) => a == b,
        (Type::Var(a), Type::Var(b)) => a == b,
        (Type::EndIn, Type::EndIn) | (Type::EndOut, Type::EndOut) => true,
        (Type::Arrow(a1, a2), Type::Arrow(b1, b2))
        | (Type::Pair(a1, a2), Type::Pair(b1, b2))
        | (Type::In(a1, a2), Type::In(b1, b2))
        | (Type::Out(a1, a2), Type::Out(b1, b2)) => {
            match_type(a1, b1, params, solved) && match_type(a2, b2, params, solved)
        }
        (Type::Dual(a), Type::Dual(b)) | (Type::Neg(a), Type::Neg(b)) => {
            match_type(a, b, params, solved)
        }
        (Type::Proto(na, aa), Type::Proto(nb, ab)) | (Type::Data(na, aa), Type::Data(nb, ab)) => {
            na == nb
                && aa.len() == ab.len()
                && aa
                    .iter()
                    .zip(ab)
                    .all(|(p, a)| match_type(p, a, params, solved))
        }
        // Binders inside constructor fields: require exact α-equality and
        // no parameters inside (conservative).
        (Type::Forall(..), Type::Forall(..)) => pattern.alpha_eq(actual),
        _ => false,
    }
}
