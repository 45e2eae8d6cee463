//! Delta-debugging reducers.
//!
//! The vendored proptest shim can only shrink what its own strategies
//! generated; the fuzzer's instances come from `algst-gen`'s imperative
//! generators, so `conform` ships its own **hierarchical AST reducer**:
//! coarse moves first (drop whole protocol declarations, hoist whole
//! subtrees), fine moves after (drop constructors, drop constructor
//! arguments, replace leaves), every candidate re-validated against the
//! failing oracle, to a fixpoint.
//!
//! Candidates that leave the well-kinded fragment are filtered *before*
//! consulting the oracle, so a minimized counterexample is always a
//! legal input — a disagreement on garbage would be a much weaker
//! artifact than a disagreement on a well-kinded 3-node type.

use algst_core::kind::Kind;
use algst_core::kindcheck::KindCtx;
use algst_core::protocol::{Ctor, Declarations, ProtocolDecl};
use algst_core::types::Type;
use std::sync::Arc;

/// A failing equivalence case under reduction: the declarations and the
/// two compared types.
#[derive(Clone, Debug)]
pub struct EquivCase {
    pub decls: Declarations,
    pub lhs: Type,
    pub rhs: Type,
}

impl EquivCase {
    /// Total AST size (the acceptance measure for minimized
    /// counterexamples): both types plus every constructor argument of
    /// every declaration.
    pub fn node_count(&self) -> usize {
        let decl_nodes: usize = self
            .decls
            .protocols()
            .map(|p| {
                p.ctors
                    .iter()
                    .map(|c| 1 + c.args.iter().map(Type::node_count).sum::<usize>())
                    .sum::<usize>()
            })
            .sum();
        self.lhs.node_count() + self.rhs.node_count() + decl_nodes
    }

    /// Both types are well-kinded value types under the declarations.
    fn well_kinded(&self) -> bool {
        let mut ctx = KindCtx::new(&self.decls);
        let ok = |t: &Type, ctx: &mut KindCtx| {
            ctx.synth(t)
                .map(|k| k.is_subkind_of(Kind::Value))
                .unwrap_or(false)
        };
        ok(&self.lhs, &mut ctx) && ok(&self.rhs, &mut ctx)
    }
}

/// Reduces `case` while `still_fails` holds, to a fixpoint (bounded by
/// `max_rounds` full passes). `still_fails` is only consulted on
/// well-kinded candidates; the input case itself must fail.
pub fn reduce_equiv_case(
    case: &EquivCase,
    max_rounds: usize,
    still_fails: &mut dyn FnMut(&EquivCase) -> bool,
) -> EquivCase {
    let mut current = case.clone();
    for _ in 0..max_rounds {
        let mut progressed = false;
        for candidate in candidates(&current) {
            if candidate.node_count() >= current.node_count() {
                continue;
            }
            if candidate.well_kinded() && still_fails(&candidate) {
                current = candidate;
                progressed = true;
                break; // restart the pass from the smaller case
            }
        }
        if !progressed {
            return current;
        }
    }
    current
}

/// Reduces a single type while `still_fails` holds (used by the syntax
/// round-trip oracle, where kinds are irrelevant).
pub fn reduce_type(
    ty: &Type,
    max_rounds: usize,
    still_fails: &mut dyn FnMut(&Type) -> bool,
) -> Type {
    let mut current = ty.clone();
    for _ in 0..max_rounds {
        let mut progressed = false;
        for candidate in type_reductions(&current) {
            if candidate.node_count() < current.node_count() && still_fails(&candidate) {
                current = candidate;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return current;
        }
    }
    current
}

/// All one-step reduction candidates, coarse moves first.
fn candidates(case: &EquivCase) -> Vec<EquivCase> {
    let mut out = Vec::new();

    // 0. Lockstep moves on both sides at once. Single-side moves cannot
    //    walk down a spine whose two sides only disagree *as a pair*
    //    (e.g. `Dual (!A.S)` vs `?A.S′`): dropping the head on one side
    //    alone destroys the relationship and the oracles agree again.
    for (lhs, rhs) in paired_reductions(&case.lhs, &case.rhs) {
        out.push(EquivCase {
            decls: case.decls.clone(),
            lhs,
            rhs,
        });
    }

    // 1. Drop a whole protocol declaration (kind filtering rejects the
    //    candidate if anything still references it).
    let names: Vec<_> = case.decls.protocols().map(|p| p.name).collect();
    for drop_name in &names {
        let mut decls = Declarations::new();
        for p in case.decls.protocols() {
            if p.name != *drop_name {
                let _ = decls.add_protocol(p.clone());
            }
        }
        out.push(EquivCase {
            decls,
            lhs: case.lhs.clone(),
            rhs: case.rhs.clone(),
        });
    }

    // 2. Hoist subtrees / replace leaves in either compared type.
    for side in [true, false] {
        let ty = if side { &case.lhs } else { &case.rhs };
        for replaced in type_reductions(ty) {
            let (lhs, rhs) = if side {
                (replaced, case.rhs.clone())
            } else {
                (case.lhs.clone(), replaced)
            };
            out.push(EquivCase {
                decls: case.decls.clone(),
                lhs,
                rhs,
            });
        }
    }

    // 3. Drop one constructor of one protocol (keeping at least one).
    // 4. Drop one argument of one constructor.
    for target in &names {
        let original = case.decls.protocol(*target).expect("iterating names");
        let mut variants: Vec<ProtocolDecl> = Vec::new();
        if original.ctors.len() > 1 {
            for drop_ix in 0..original.ctors.len() {
                let mut p = original.clone();
                p.ctors.remove(drop_ix);
                variants.push(p);
            }
        }
        for (cix, ctor) in original.ctors.iter().enumerate() {
            for aix in 0..ctor.args.len() {
                let mut p = original.clone();
                let mut args = ctor.args.clone();
                args.remove(aix);
                p.ctors[cix] = Ctor {
                    tag: ctor.tag,
                    args,
                };
                variants.push(p);
            }
        }
        for variant in variants {
            let mut decls = Declarations::new();
            for p in case.decls.protocols() {
                let replacement = if p.name == *target { &variant } else { p };
                let _ = decls.add_protocol(replacement.clone());
            }
            if decls.validate().is_err() {
                continue;
            }
            out.push(EquivCase {
                decls,
                lhs: case.lhs.clone(),
                rhs: case.rhs.clone(),
            });
        }
    }

    out
}

/// Lockstep reductions applied to both sides simultaneously, modulo
/// each side's leading `Dual` wrappers: drop the head message of both
/// spines, simplify both head payloads to `Int`, or instantiate both
/// leading quantifiers with `End!`.
fn paired_reductions(lhs: &Type, rhs: &Type) -> Vec<(Type, Type)> {
    fn peel(t: &Type) -> (usize, &Type) {
        match t {
            Type::Dual(inner) => {
                let (n, core) = peel(inner);
                (n + 1, core)
            }
            _ => (0, t),
        }
    }
    fn rewrap(n: usize, t: Type) -> Type {
        (0..n).fold(t, |acc, _| Type::dual(acc))
    }
    fn with_payload(msg: &Type, payload: Type) -> Type {
        match msg {
            Type::In(_, s) => Type::input(payload, (**s).clone()),
            Type::Out(_, s) => Type::output(payload, (**s).clone()),
            _ => unreachable!("callers match messages"),
        }
    }

    fn with_cont(msg: &Type, cont: Type) -> Type {
        match msg {
            Type::In(p, _) => Type::input((**p).clone(), cont),
            Type::Out(p, _) => Type::output((**p).clone(), cont),
            _ => unreachable!("callers match messages"),
        }
    }

    let (ln, lcore) = peel(lhs);
    let (rn, rcore) = peel(rhs);
    let mut out = Vec::new();
    if let (Type::In(lp, ls) | Type::Out(lp, ls), Type::In(rp, rs) | Type::Out(rp, rs)) =
        (lcore, rcore)
    {
        // Drop both heads.
        out.push((rewrap(ln, (**ls).clone()), rewrap(rn, (**rs).clone())));
        // Truncate both continuations (the disagreement often lives in
        // the head; one step amputates an arbitrarily long tail). The
        // right End polarity pairing depends on the surrounding duals,
        // so all four are proposed and the oracle filter picks.
        if **ls != Type::EndOut && **ls != Type::EndIn {
            for lend in [Type::EndOut, Type::EndIn] {
                for rend in [Type::EndOut, Type::EndIn] {
                    out.push((
                        rewrap(ln, with_cont(lcore, lend.clone())),
                        rewrap(rn, with_cont(rcore, rend)),
                    ));
                }
            }
        }
        // Hoist the k-th child of both payloads in lockstep (descends
        // into pair components, protocol arguments, negations).
        let (lpc, rpc) = (children(lp), children(rp));
        for k in 0..lpc.len().min(rpc.len()) {
            out.push((
                rewrap(ln, with_payload(lcore, lpc[k].clone())),
                rewrap(rn, with_payload(rcore, rpc[k].clone())),
            ));
        }
        // Simplify both payloads.
        if **lp != Type::int() || **rp != Type::int() {
            out.push((
                rewrap(ln, with_payload(lcore, Type::int())),
                rewrap(rn, with_payload(rcore, Type::int())),
            ));
        }
    }
    if let (Type::Forall(lv, _, lb), Type::Forall(rv, _, rb)) = (lcore, rcore) {
        // Instantiate both binders with the same closed leaf.
        out.push((
            rewrap(ln, algst_core::subst::subst_type(lb, *lv, &Type::EndOut)),
            rewrap(rn, algst_core::subst::subst_type(rb, *rv, &Type::EndOut)),
        ));
    }
    out
}

/// One-step reductions of a single type: for every node position, hoist
/// each child into the position, or replace the node by a minimal leaf.
/// Coarse (near the root) before fine (deep positions), because the
/// enumeration is pre-order.
fn type_reductions(ty: &Type) -> Vec<Type> {
    let mut out = Vec::new();
    let positions = ty.node_count();
    for pos in 0..positions {
        let subtree = nth_subtree(ty, pos).expect("position enumerated");
        // Involution unwrapping: `Dual (Dual x) → x`, `-(-x) → x` keep
        // equivalence, so they survive the oracle filter where a
        // one-layer hoist (which flips meaning) would not.
        match subtree {
            Type::Dual(inner) => {
                if let Type::Dual(x) = &**inner {
                    out.push(replace_nth(ty, pos, (**x).clone()));
                }
            }
            Type::Neg(inner) => {
                if let Type::Neg(x) = &**inner {
                    out.push(replace_nth(ty, pos, (**x).clone()));
                }
            }
            _ => {}
        }
        // Hoist each child of the node at `pos` into its place.
        for child in children(subtree) {
            out.push(replace_nth(ty, pos, child.clone()));
        }
        // Replace the node with each minimal leaf (skip no-ops).
        for leaf in [Type::EndOut, Type::EndIn, Type::int(), Type::Unit] {
            if *subtree != leaf {
                out.push(replace_nth(ty, pos, leaf));
            }
        }
    }
    out
}

fn children(ty: &Type) -> Vec<&Type> {
    match ty {
        Type::Unit | Type::Base(_) | Type::Var(_) | Type::EndIn | Type::EndOut => vec![],
        Type::Arrow(a, b) | Type::Pair(a, b) | Type::In(a, b) | Type::Out(a, b) => vec![a, b],
        Type::Forall(_, _, t) | Type::Dual(t) | Type::Neg(t) => vec![t],
        Type::Proto(_, args) | Type::Data(_, args) => args.iter().collect(),
    }
}

/// The `pos`-th node in pre-order.
fn nth_subtree(ty: &Type, pos: usize) -> Option<&Type> {
    fn go<'a>(ty: &'a Type, seen: &mut usize, pos: usize) -> Option<&'a Type> {
        if *seen == pos {
            return Some(ty);
        }
        *seen += 1;
        for c in children(ty) {
            if let Some(found) = go(c, seen, pos) {
                return Some(found);
            }
        }
        None
    }
    go(ty, &mut 0, pos)
}

/// Replaces the `pos`-th node (pre-order) with `new`.
fn replace_nth(ty: &Type, pos: usize, new: Type) -> Type {
    let mut seen = 0usize;
    replace_walk(ty, &mut seen, pos, &new)
}

fn replace_walk(ty: &Type, seen: &mut usize, pos: usize, new: &Type) -> Type {
    if *seen == pos {
        *seen += 1;
        return new.clone();
    }
    *seen += 1;
    match ty {
        Type::Unit | Type::Base(_) | Type::Var(_) | Type::EndIn | Type::EndOut => ty.clone(),
        Type::Arrow(a, b) => Type::Arrow(
            Arc::new(replace_walk(a, seen, pos, new)),
            Arc::new(replace_walk(b, seen, pos, new)),
        ),
        Type::Pair(a, b) => Type::Pair(
            Arc::new(replace_walk(a, seen, pos, new)),
            Arc::new(replace_walk(b, seen, pos, new)),
        ),
        Type::In(a, b) => Type::In(
            Arc::new(replace_walk(a, seen, pos, new)),
            Arc::new(replace_walk(b, seen, pos, new)),
        ),
        Type::Out(a, b) => Type::Out(
            Arc::new(replace_walk(a, seen, pos, new)),
            Arc::new(replace_walk(b, seen, pos, new)),
        ),
        Type::Forall(v, k, t) => Type::Forall(*v, *k, Arc::new(replace_walk(t, seen, pos, new))),
        Type::Dual(t) => Type::Dual(Arc::new(replace_walk(t, seen, pos, new))),
        Type::Neg(t) => Type::Neg(Arc::new(replace_walk(t, seen, pos, new))),
        Type::Proto(n, args) => Type::Proto(
            *n,
            args.iter()
                .map(|a| replace_walk(a, seen, pos, new))
                .collect(),
        ),
        Type::Data(n, args) => Type::Data(
            *n,
            args.iter()
                .map(|a| replace_walk(a, seen, pos, new))
                .collect(),
        ),
    }
}

/// Reduces a failing *program* by whole declarations: repeatedly drops
/// any declaration whose removal keeps the oracle failing. (Level-1
/// hierarchical delta debugging; expression-level moves are left to the
/// kind-aware type reducer, which covers the acceptance-critical
/// equivalence family.)
pub fn reduce_program(
    source: &str,
    max_rounds: usize,
    still_fails: &mut dyn FnMut(&str) -> bool,
) -> String {
    let Ok(ast) = algst_syntax::parse_program(source) else {
        return source.to_owned();
    };
    let mut decls = ast.decls;
    for _ in 0..max_rounds {
        let mut progressed = false;
        let mut ix = 0;
        while ix < decls.len() {
            if decls.len() <= 1 {
                break;
            }
            let mut fewer = decls.clone();
            fewer.remove(ix);
            let candidate = algst_syntax::printer::program_to_source(&algst_syntax::ast::Program {
                decls: fewer.clone(),
            });
            if still_fails(&candidate) {
                decls = fewer;
                progressed = true;
            } else {
                ix += 1;
            }
        }
        if !progressed {
            break;
        }
    }
    algst_syntax::printer::program_to_source(&algst_syntax::ast::Program { decls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, Sabotage};
    use algst_gen::{generate_instance, nonequivalent_mutant, GenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Pushes a `Dual` through a generated spine by hand (the C-Dual
    /// rules): flips directions and ends, reifies `Dual` on variables,
    /// honours payload negation parity. `Dual(t)` and `manual_dual(t)`
    /// are equivalent for every generated session type.
    fn manual_dual(t: &Type) -> Type {
        match t {
            Type::In(p, s) => match &**p {
                Type::Neg(x) => Type::input((**x).clone(), manual_dual(s)),
                _ => Type::output((**p).clone(), manual_dual(s)),
            },
            Type::Out(p, s) => match &**p {
                Type::Neg(x) => Type::output((**x).clone(), manual_dual(s)),
                _ => Type::input((**p).clone(), manual_dual(s)),
            },
            Type::EndIn => Type::EndOut,
            Type::EndOut => Type::EndIn,
            other => Type::dual(other.clone()),
        }
    }

    /// The acceptance-criterion scenario in miniature: a sabotaged
    /// reference oracle (pending `Dual` dropped on `End`) disagrees with
    /// the store on a generated `Dual`-vs-pushed-`Dual` pair; the
    /// reducer must shrink the disagreement below 15 AST nodes.
    #[test]
    fn sabotaged_disagreement_reduces_below_15_nodes() {
        let mut rng = StdRng::seed_from_u64(1234);
        let mut session = algst_core::Session::new();
        let mut disagrees = |case: &EquivCase| {
            let production = session.equivalent(&case.lhs, &case.rhs);
            let sabotaged =
                reference::equivalent_with(&case.lhs, &case.rhs, Sabotage::ReferenceDual);
            production != sabotaged
        };
        let mut reduced_any = false;
        for i in 0..50 {
            let cfg = GenConfig {
                poly_tail: 0.0, // End-terminated spines: the sabotage's blind spot
                ..GenConfig::sized(12 + i % 30)
            };
            let inst = generate_instance(&mut rng, &cfg);
            let case = EquivCase {
                decls: inst.decls.clone(),
                lhs: Type::dual(inst.ty.clone()),
                rhs: manual_dual(&inst.ty),
            };
            if !disagrees(&case) {
                continue;
            }
            let minimized = reduce_equiv_case(&case, 64, &mut disagrees);
            assert!(
                minimized.node_count() < 15,
                "not minimized: {} nodes, {} vs {}",
                minimized.node_count(),
                minimized.lhs,
                minimized.rhs
            );
            assert!(disagrees(&minimized), "reduction lost the failure");
            reduced_any = true;
            break;
        }
        assert!(reduced_any, "no disagreement found to reduce");
    }

    #[test]
    fn reduction_preserves_failure_and_monotonically_shrinks() {
        let mut rng = StdRng::seed_from_u64(99);
        let inst = generate_instance(&mut rng, &GenConfig::sized(40));
        let mutant = nonequivalent_mutant(&mut rng, &inst.ty).expect("mutable");
        let case = EquivCase {
            decls: inst.decls.clone(),
            lhs: inst.ty.clone(),
            rhs: mutant,
        };
        // "Failure" here: the two sides are not equivalent (a property
        // reduction must preserve while stripping everything else).
        let mut fails = |c: &EquivCase| !reference::equivalent(&c.lhs, &c.rhs);
        assert!(fails(&case));
        let minimized = reduce_equiv_case(&case, 64, &mut fails);
        assert!(fails(&minimized));
        assert!(minimized.node_count() <= case.node_count());
        assert!(
            minimized.node_count() < 15,
            "a bare inequivalence should reduce to a leaf pair, got {} nodes",
            minimized.node_count()
        );
    }

    #[test]
    fn program_reducer_drops_irrelevant_declarations() {
        let source = "\
a : Unit\na = ()\nb : Unit\nb = ()\nneedle : Int\nneedle = ()\nmain : Unit\nmain = ()\n";
        let mut session = algst_core::Session::new();
        let mut fails =
            |candidate: &str| algst_check::check_source_in(&mut session, candidate).is_err();
        assert!(fails(source));
        let reduced = reduce_program(source, 16, &mut fails);
        assert!(fails(&reduced));
        assert!(
            reduced.lines().count() <= 2,
            "expected only the ill-typed needle to survive:\n{reduced}"
        );
    }
}
