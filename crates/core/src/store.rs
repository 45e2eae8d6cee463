//! The `TypeId` interior representation and the id-level algorithms.
//!
//! [`crate::types::Type`] is the *boundary* representation — what the
//! parser produces and what error messages display. Everything on the
//! equivalence hot path works on [`TypeId`]s instead: small indices into
//! an append-only arena (the [`SharedStore`](crate::shared::SharedStore),
//! driven through a [`Session`](crate::Session)) in which every
//! structurally distinct node exists **exactly once**.
//!
//! Two properties make ids powerful:
//!
//! 1. **Hash-consing** — interning deduplicates nodes, so structural
//!    equality of whole types is `TypeId` equality and common sub-spines
//!    are stored (and later normalized) once.
//! 2. **Canonical binders** — [`StoreOps::intern`] converts bound
//!    variables to de-Bruijn indices ([`TNode::Bound`]) and drops binder
//!    names, so *α-equivalent types intern to the same id*. α-comparison,
//!    the inner loop of the paper's equivalence algorithm (Theorem 3), is
//!    therefore a single integer comparison.
//!
//! On top of the arena the store memoizes the normalization functions of
//! Fig. 3 per id ([`StoreOps::nrm`] / [`StoreOps::nrm_neg`], a
//! `TypeId → TypeId` memo cell per node), giving the amortized
//! equivalence check
//!
//! ```text
//! equivalent(T, U)  =  nrm(intern(T)) == nrm(intern(U))
//! ```
//!
//! which is O(1) once each side has been normalized once — the common
//! case in a type-checking server answering repeated queries.
//!
//! This module holds the node grammar ([`TNode`]) and the algorithms
//! (intern, `nrm⁺`/`nrm⁻`, substitution, β-instantiation, extraction),
//! written once against the [`StoreOps`] primitives.
//!
//! ## Memoization invariants
//!
//! * Within a compaction epoch the arena is append-only; a `TypeId` is
//!   never invalidated.
//! * `nrm` results are in the normal-form grammar `Q` of Lemma 3, and the
//!   memo is *fixpoint-seeded*: after computing `nrm(t) = n` the store
//!   also records `nrm(n) = n`, so `nrm` is idempotent by construction.
//! * Both memo tables only relate ids of the same store.
//!
//! [`Session::check_invariants`](crate::Session::check_invariants)
//! verifies all of these on a live store.
//!
//! Conversion back to trees ([`StoreOps::extract`]) re-introduces binder
//! names from first-intern hints where capture-free, falling back to
//! canonical names (`a`, `b`, …, avoiding the free variables of the
//! type), so `Type → TypeId → Type` round-trips up to α-equivalence and
//! usually verbatim for display.

use crate::kind::Kind;
use crate::symbol::Symbol;
use crate::types::{BaseType, Type};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// An interned type: an index into a store's arena.
///
/// Ids are only meaningful relative to the store that produced them.
/// Equality of ids from the same store is α-equivalence of the
/// underlying types (structural equality after binder canonicalization).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

impl TypeId {
    /// The arena index, e.g. for parallel side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from an arena index. Crate-internal: only stores may
    /// mint ids (the [`crate::shared`] arena appends under its own lock).
    pub(crate) fn from_index(i: usize) -> TypeId {
        match u32::try_from(i) {
            Ok(i) if i < OVERLAY_BIT => TypeId(i),
            _ => panic!("type store overflow"),
        }
    }

    /// An id naming slot `i` of a worker's private overlay (see
    /// [`crate::shared`]). Tagged with the top bit, so it can never
    /// equal an arena id.
    pub(crate) fn overlay(i: usize) -> TypeId {
        TypeId(OVERLAY_BIT | TypeId::from_index(i).0)
    }

    /// The overlay slot this id names, or `None` for an arena id.
    pub(crate) fn overlay_index(self) -> Option<usize> {
        (self.0 & OVERLAY_BIT != 0).then_some((self.0 & !OVERLAY_BIT) as usize)
    }

    /// True for an id that names a node in one worker's private overlay:
    /// one not yet committed to the shared arena, or minted by a stale
    /// worker. Such ids are meaningful only to the session that made them.
    pub fn is_overlay(self) -> bool {
        self.overlay_index().is_some()
    }
}

/// Tag bit of overlay ids; arena ids stay below it.
const OVERLAY_BIT: u32 = 1 << 31;

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.overlay_index() {
            Some(i) => write!(f, "o{i}"),
            None => write!(f, "t{}", self.0),
        }
    }
}

/// One hash-consed node: the [`Type`] grammar with `TypeId` children and
/// nameless binders.
///
/// The only shape difference from `Type` is the variable split: a
/// variable is either [`TNode::Free`] (a named symbol, never captured)
/// or [`TNode::Bound`] (a de-Bruijn index counting enclosing
/// [`TNode::Forall`] binders, innermost = 0).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TNode {
    Unit,
    Base(BaseType),
    Arrow(TypeId, TypeId),
    Pair(TypeId, TypeId),
    /// `∀:κ. T` — nameless; occurrences in the body are `Bound` indices.
    Forall(Kind, TypeId),
    /// A free type variable.
    Free(Symbol),
    /// A bound type variable, as a de-Bruijn index (innermost binder 0).
    Bound(u32),
    In(TypeId, TypeId),
    Out(TypeId, TypeId),
    EndIn,
    EndOut,
    Dual(TypeId),
    Proto(Symbol, Vec<TypeId>),
    Neg(TypeId),
    Data(Symbol, Vec<TypeId>),
}

/// Calls `f` on every child id of `node`, left to right.
pub(crate) fn for_each_child(node: &TNode, mut f: impl FnMut(TypeId)) {
    match node {
        TNode::Unit
        | TNode::Base(_)
        | TNode::Free(_)
        | TNode::Bound(_)
        | TNode::EndIn
        | TNode::EndOut => {}
        TNode::Arrow(a, b) | TNode::Pair(a, b) | TNode::In(a, b) | TNode::Out(a, b) => {
            f(*a);
            f(*b);
        }
        TNode::Forall(_, t) | TNode::Dual(t) | TNode::Neg(t) => f(*t),
        TNode::Proto(_, args) | TNode::Data(_, args) => args.iter().copied().for_each(f),
    }
}

/// `node` with every child id replaced by `f(child)`.
pub(crate) fn map_children(node: &TNode, mut f: impl FnMut(TypeId) -> TypeId) -> TNode {
    match node {
        TNode::Unit => TNode::Unit,
        TNode::Base(b) => TNode::Base(*b),
        TNode::Free(s) => TNode::Free(*s),
        TNode::Bound(i) => TNode::Bound(*i),
        TNode::EndIn => TNode::EndIn,
        TNode::EndOut => TNode::EndOut,
        TNode::Arrow(a, b) => TNode::Arrow(f(*a), f(*b)),
        TNode::Pair(a, b) => TNode::Pair(f(*a), f(*b)),
        TNode::In(a, b) => TNode::In(f(*a), f(*b)),
        TNode::Out(a, b) => TNode::Out(f(*a), f(*b)),
        TNode::Forall(k, b) => TNode::Forall(*k, f(*b)),
        TNode::Dual(b) => TNode::Dual(f(*b)),
        TNode::Neg(b) => TNode::Neg(f(*b)),
        TNode::Proto(s, args) => TNode::Proto(*s, args.iter().map(|&a| f(a)).collect()),
        TNode::Data(s, args) => TNode::Data(*s, args.iter().map(|&a| f(a)).collect()),
    }
}

/// `1 + max escaping de-Bruijn index` of `node`, given the same measure
/// for its children (0 = closed under binders).
pub(crate) fn compute_needs(node: &TNode, of: impl Fn(TypeId) -> u32) -> u32 {
    match node {
        TNode::Bound(i) => i + 1,
        TNode::Forall(_, body) => of(*body).saturating_sub(1),
        _ => {
            let mut needs = 0;
            for_each_child(node, |c| needs = needs.max(of(c)));
            needs
        }
    }
}

// ------------------------------------------------------------- StoreOps

/// The primitive store interface the id-level algorithms are generic
/// over, plus the algorithms themselves as provided methods.
///
/// The one implementation is [`WorkerStore`](crate::shared::WorkerStore),
/// a per-worker handle that reads a process-wide
/// [`SharedStore`](crate::shared::SharedStore) arena lock-free and keeps
/// new nodes in a private overlay until the operation ends;
/// [`Session`](crate::Session) delegates to it. Generic code (kind
/// checking, `Subst::apply_interned`, suite interning) accepts either.
///
/// Every provided method that returns ids is one **public operation**:
/// it ends with [`StoreOps::settle`], so the ids it hands out are final.
pub trait StoreOps {
    /// The node behind `id`.
    fn node(&self, id: TypeId) -> &TNode;

    /// Hash-conses `node` into an id. Children of `node` must already be
    /// ids of this store.
    fn mk_node(&mut self, node: TNode) -> TypeId;

    /// `1 + max escaping de-Bruijn index` of the subtree (0 = closed).
    fn binders_needed(&self, id: TypeId) -> u32;

    /// Memoized `nrm⁺` entry for `id`, if recorded.
    fn memo_pos_entry(&mut self, id: TypeId) -> Option<TypeId>;

    /// Records `nrm⁺(id) = nf`.
    fn memo_pos_record(&mut self, id: TypeId, nf: TypeId);

    /// Memoized `nrm⁻` entry for `id`, if recorded.
    fn memo_neg_entry(&mut self, id: TypeId) -> Option<TypeId>;

    /// Records `nrm⁻(id) = nf`.
    fn memo_neg_record(&mut self, id: TypeId, nf: TypeId);

    /// Notes the binder name a `Forall` id was first written with
    /// (display-only; implementations may ignore it).
    fn note_binder_hint(&mut self, id: TypeId, name: Symbol);

    /// The display name noted for a `Forall` id, if any.
    fn binder_hint(&self, id: TypeId) -> Option<Symbol>;

    /// Ends one public operation: makes every node it created permanent
    /// and rewrites `ids` (the operation's results) to their permanent
    /// ids. Returns `false` when the store instead discarded everything
    /// the operation created and the operation must run again (a
    /// worker that found its epoch retired mid-operation). A no-op for
    /// stores whose ids are permanent at creation.
    fn settle(&mut self, _ids: &mut [TypeId]) -> bool {
        true
    }

    /// Ends a public operation that failed before it produced any ids
    /// (a malformed type string built halfway into the store): drops
    /// what it created where the store can. A no-op for stores whose
    /// nodes are permanent at creation.
    fn abandon(&mut self) {}

    // ------------------------------------------------- provided algorithms

    /// The node behind `id`, cloned.
    fn node_owned(&self, id: TypeId) -> TNode {
        self.node(id).clone()
    }

    /// Interns a boundary [`Type`] with α-canonical (de Bruijn) binders.
    fn intern(&mut self, t: &Type) -> TypeId
    where
        Self: Sized,
    {
        run_settled(self, |s| intern_under(s, t, &mut Vec::new()))
    }

    /// Memoized `nrm⁺` (Fig. 3) at the id level.
    fn nrm(&mut self, id: TypeId) -> TypeId
    where
        Self: Sized,
    {
        run_settled(self, |s| nrm_pos_id(s, id))
    }

    /// Memoized `nrm⁻` (Fig. 3): normalization under a pending `Dual`.
    fn nrm_neg(&mut self, id: TypeId) -> TypeId
    where
        Self: Sized,
    {
        run_settled(self, |s| nrm_neg_id(s, id))
    }

    /// Decides `T ≡_A U` as id equality of memoized normal forms.
    fn equivalent_ids(&mut self, a: TypeId, b: TypeId) -> bool
    where
        Self: Sized,
    {
        // Compare after settling: only settled ids are canonical.
        loop {
            let mut nfs = [nrm_pos_id(self, a), nrm_pos_id(self, b)];
            if self.settle(&mut nfs) {
                return nfs[0] == nfs[1];
            }
        }
    }

    /// Simultaneous, capture-free substitution of ids for free variables.
    fn subst_free(&mut self, id: TypeId, map: &HashMap<Symbol, TypeId>) -> TypeId
    where
        Self: Sized,
    {
        if map.is_empty() {
            return id;
        }
        run_settled(self, |s| subst_free_rec(s, id, map, &mut HashMap::new()))
    }

    /// β-instantiation of the outermost `∀` binder of `forall_id` with
    /// the binder-closed `arg`; `None` when `forall_id` is not a `Forall`.
    fn instantiate(&mut self, forall_id: TypeId, arg: TypeId) -> Option<TypeId>
    where
        Self: Sized,
    {
        let TNode::Forall(_, body) = *self.node(forall_id) else {
            return None;
        };
        debug_assert_eq!(self.binders_needed(arg), 0, "open argument to instantiate");
        Some(run_settled(self, |s| {
            replace_bound(s, body, 0, arg, &mut HashMap::new())
        }))
    }

    /// Converts an id back to a boundary [`Type`]. Binders are named
    /// from the hint recorded at intern time (the name the type was
    /// first written with) when that cannot capture, falling back to
    /// canonical names (`a`, `b`, …) that avoid the free variables of
    /// the type. The round trip `extract ∘ intern` is the identity up to
    /// α-equivalence (and `intern ∘ extract` is the identity on ids).
    fn extract(&self, id: TypeId) -> Type
    where
        Self: Sized,
    {
        let mut free = HashSet::new();
        let mut seen = HashSet::new();
        collect_free(self, id, &mut seen, &mut free);
        let mut binders: Vec<Symbol> = Vec::new();
        let mut next = 0usize;
        extract_under(self, id, &mut binders, &mut next, &free)
    }

    /// Tree-node count of the type behind `id` (the Figure-10 x-axis
    /// measure). DAG-aware: shared subtrees are counted per occurrence
    /// but visited once.
    fn node_count(&self, id: TypeId) -> u64
    where
        Self: Sized,
    {
        let mut memo: HashMap<TypeId, u64> = HashMap::new();
        node_count_rec(self, id, &mut memo)
    }
}

/// Runs one public operation until it settles, returning its settled
/// result.
fn run_settled<S: StoreOps>(s: &mut S, mut op: impl FnMut(&mut S) -> TypeId) -> TypeId {
    loop {
        let mut ids = [op(s)];
        if s.settle(&mut ids) {
            return ids[0];
        }
    }
}

/// True for a binder name worth remembering as a display hint: fresh
/// `%`-suffixed names from capture-avoiding substitution are not.
pub(crate) fn is_hint_worthy(name: Symbol) -> bool {
    !name.as_str().contains('%')
}

fn collect_free<S: StoreOps>(
    s: &S,
    id: TypeId,
    seen: &mut HashSet<TypeId>,
    acc: &mut HashSet<Symbol>,
) {
    if !seen.insert(id) {
        return;
    }
    match s.node(id) {
        TNode::Free(v) => {
            acc.insert(*v);
        }
        node => for_each_child(node, |c| collect_free(s, c, seen, acc)),
    }
}

fn extract_under<S: StoreOps>(
    s: &S,
    id: TypeId,
    binders: &mut Vec<Symbol>,
    next: &mut usize,
    free: &HashSet<Symbol>,
) -> Type {
    let mut go =
        |id: TypeId, binders: &mut Vec<Symbol>| Arc::new(extract_under(s, id, binders, next, free));
    match s.node(id) {
        TNode::Unit => Type::Unit,
        TNode::Base(b) => Type::Base(*b),
        TNode::Free(v) => Type::Var(*v),
        TNode::Bound(i) => {
            let ix = binders
                .len()
                .checked_sub(1 + *i as usize)
                .expect("dangling de-Bruijn index");
            Type::Var(binders[ix])
        }
        TNode::Arrow(a, b) => Type::Arrow(go(*a, binders), go(*b, binders)),
        TNode::Pair(a, b) => Type::Pair(go(*a, binders), go(*b, binders)),
        TNode::Forall(k, body) => {
            // Prefer the name the binder was first interned with; it
            // must not shadow an in-scope binder (an inner Bound
            // could silently re-bind) nor collide with a free
            // variable of the whole type.
            let hint = s
                .binder_hint(id)
                .filter(|h| !free.contains(h) && !binders.contains(h));
            let name = hint.unwrap_or_else(|| canonical_binder(next, binders, free));
            binders.push(name);
            let b = extract_under(s, *body, binders, next, free);
            binders.pop();
            Type::Forall(name, *k, Arc::new(b))
        }
        TNode::In(p, t) => Type::In(go(*p, binders), go(*t, binders)),
        TNode::Out(p, t) => Type::Out(go(*p, binders), go(*t, binders)),
        TNode::EndIn => Type::EndIn,
        TNode::EndOut => Type::EndOut,
        TNode::Dual(t) => Type::Dual(go(*t, binders)),
        TNode::Neg(p) => Type::Neg(go(*p, binders)),
        TNode::Proto(name, args) => Type::Proto(
            *name,
            args.iter()
                .map(|a| extract_under(s, *a, binders, next, free))
                .collect(),
        ),
        TNode::Data(name, args) => Type::Data(
            *name,
            args.iter()
                .map(|a| extract_under(s, *a, binders, next, free))
                .collect(),
        ),
    }
}

fn node_count_rec<S: StoreOps>(s: &S, id: TypeId, memo: &mut HashMap<TypeId, u64>) -> u64 {
    if let Some(&n) = memo.get(&id) {
        return n;
    }
    let mut n = 1;
    for_each_child(s.node(id), |c| n += node_count_rec(s, c, memo));
    memo.insert(id, n);
    n
}

/// The directional operator `−(T)`: `−(−T) = +(T)`, else wrap in `−`.
fn dir_neg<S: StoreOps>(s: &mut S, id: TypeId) -> TypeId {
    match *s.node(id) {
        TNode::Neg(inner) => dir_pos(s, inner),
        _ => s.mk_node(TNode::Neg(id)),
    }
}

/// The directional operator `+(T)`: `+(−T) = −(T)`, else identity.
fn dir_pos<S: StoreOps>(s: &mut S, id: TypeId) -> TypeId {
    match *s.node(id) {
        TNode::Neg(inner) => dir_neg(s, inner),
        _ => id,
    }
}

/// Materialization `§(T).S`: `§(−T).U = ?T.U`, `§(T).U = !T.U`.
fn materialize<S: StoreOps>(s: &mut S, payload: TypeId, cont: TypeId) -> TypeId {
    match *s.node(payload) {
        TNode::Neg(inner) => s.mk_node(TNode::In(inner, cont)),
        _ => s.mk_node(TNode::Out(payload, cont)),
    }
}

fn intern_under<S: StoreOps>(s: &mut S, t: &Type, binders: &mut Vec<Symbol>) -> TypeId {
    let node = match t {
        Type::Unit => TNode::Unit,
        Type::Base(b) => TNode::Base(*b),
        Type::Var(v) => match binders.iter().rposition(|b| b == v) {
            Some(ix) => TNode::Bound((binders.len() - 1 - ix) as u32),
            None => TNode::Free(*v),
        },
        Type::Arrow(a, b) => {
            let a = intern_under(s, a, binders);
            let b = intern_under(s, b, binders);
            TNode::Arrow(a, b)
        }
        Type::Pair(a, b) => {
            let a = intern_under(s, a, binders);
            let b = intern_under(s, b, binders);
            TNode::Pair(a, b)
        }
        Type::Forall(v, k, body) => {
            binders.push(*v);
            let b = intern_under(s, body, binders);
            binders.pop();
            let id = s.mk_node(TNode::Forall(*k, b));
            s.note_binder_hint(id, *v);
            return id;
        }
        Type::In(p, t) => {
            let p = intern_under(s, p, binders);
            let t = intern_under(s, t, binders);
            TNode::In(p, t)
        }
        Type::Out(p, t) => {
            let p = intern_under(s, p, binders);
            let t = intern_under(s, t, binders);
            TNode::Out(p, t)
        }
        Type::EndIn => TNode::EndIn,
        Type::EndOut => TNode::EndOut,
        Type::Dual(t) => {
            let t = intern_under(s, t, binders);
            TNode::Dual(t)
        }
        Type::Neg(p) => {
            let p = intern_under(s, p, binders);
            TNode::Neg(p)
        }
        Type::Proto(name, args) => {
            let args = args.iter().map(|a| intern_under(s, a, binders)).collect();
            TNode::Proto(*name, args)
        }
        Type::Data(name, args) => {
            let args = args.iter().map(|a| intern_under(s, a, binders)).collect();
            TNode::Data(*name, args)
        }
    };
    s.mk_node(node)
}

fn nrm_pos_id<S: StoreOps>(s: &mut S, id: TypeId) -> TypeId {
    if let Some(n) = s.memo_pos_entry(id) {
        return n;
    }
    let n = match s.node_owned(id) {
        TNode::Unit
        | TNode::Base(_)
        | TNode::Free(_)
        | TNode::Bound(_)
        | TNode::EndIn
        | TNode::EndOut => id,
        TNode::Arrow(a, b) => {
            let (a, b) = (nrm_pos_id(s, a), nrm_pos_id(s, b));
            s.mk_node(TNode::Arrow(a, b))
        }
        TNode::Pair(a, b) => {
            let (a, b) = (nrm_pos_id(s, a), nrm_pos_id(s, b));
            s.mk_node(TNode::Pair(a, b))
        }
        TNode::Forall(k, body) => {
            let body = nrm_pos_id(s, body);
            s.mk_node(TNode::Forall(k, body))
        }
        // nrm⁺(?T.S) = §(−(nrm⁺ T)).nrm⁺ S
        TNode::In(p, t) => {
            let p = nrm_pos_id(s, p);
            let p = dir_neg(s, p);
            let t = nrm_pos_id(s, t);
            materialize(s, p, t)
        }
        // nrm⁺(!T.S) = §(+(nrm⁺ T)).nrm⁺ S
        TNode::Out(p, t) => {
            let p = nrm_pos_id(s, p);
            let p = dir_pos(s, p);
            let t = nrm_pos_id(s, t);
            materialize(s, p, t)
        }
        TNode::Dual(t) => nrm_neg_id(s, t),
        TNode::Proto(name, args) => {
            let args = args.into_iter().map(|a| nrm_pos_id(s, a)).collect();
            s.mk_node(TNode::Proto(name, args))
        }
        TNode::Data(name, args) => {
            let args = args.into_iter().map(|a| nrm_pos_id(s, a)).collect();
            s.mk_node(TNode::Data(name, args))
        }
        // nrm⁺(−T) = −(nrm⁺ T)
        TNode::Neg(inner) => {
            let inner = nrm_pos_id(s, inner);
            dir_neg(s, inner)
        }
    };
    s.memo_pos_record(id, n);
    // Fixpoint seeding: the result is a normal form, so nrm(n) = n.
    s.memo_pos_record(n, n);
    n
}

fn nrm_neg_id<S: StoreOps>(s: &mut S, id: TypeId) -> TypeId {
    if let Some(n) = s.memo_neg_entry(id) {
        return n;
    }
    let n = match s.node_owned(id) {
        TNode::Dual(t) => nrm_pos_id(s, t),
        // Reify the pending dual on a variable at the end of a spine.
        TNode::Free(_) | TNode::Bound(_) => s.mk_node(TNode::Dual(id)),
        // nrm⁻(?T.S) = §(+(nrm⁺ T)).nrm⁻ S
        TNode::In(p, t) => {
            let p = nrm_pos_id(s, p);
            let p = dir_pos(s, p);
            let t = nrm_neg_id(s, t);
            materialize(s, p, t)
        }
        // nrm⁻(!T.S) = §(−(nrm⁺ T)).nrm⁻ S
        TNode::Out(p, t) => {
            let p = nrm_pos_id(s, p);
            let p = dir_neg(s, p);
            let t = nrm_neg_id(s, t);
            materialize(s, p, t)
        }
        TNode::EndIn => s.mk_node(TNode::EndOut),
        TNode::EndOut => s.mk_node(TNode::EndIn),
        // Non-session constructors: reify the dual on the positive
        // normal form (ill-kinded; rejected by kind checking anyway).
        _ => {
            let n = nrm_pos_id(s, id);
            s.mk_node(TNode::Dual(n))
        }
    };
    s.memo_neg_record(id, n);
    n
}

fn subst_free_rec<S: StoreOps>(
    s: &mut S,
    id: TypeId,
    map: &HashMap<Symbol, TypeId>,
    memo: &mut HashMap<TypeId, TypeId>,
) -> TypeId {
    if let Some(&r) = memo.get(&id) {
        return r;
    }
    let r = match s.node_owned(id) {
        TNode::Free(v) => map.get(&v).copied().unwrap_or(id),
        TNode::Unit | TNode::Base(_) | TNode::Bound(_) | TNode::EndIn | TNode::EndOut => id,
        TNode::Arrow(a, b) => {
            let a = subst_free_rec(s, a, map, memo);
            let b = subst_free_rec(s, b, map, memo);
            s.mk_node(TNode::Arrow(a, b))
        }
        TNode::Pair(a, b) => {
            let a = subst_free_rec(s, a, map, memo);
            let b = subst_free_rec(s, b, map, memo);
            s.mk_node(TNode::Pair(a, b))
        }
        TNode::Forall(k, body) => {
            let body = subst_free_rec(s, body, map, memo);
            s.mk_node(TNode::Forall(k, body))
        }
        TNode::In(p, t) => {
            let p = subst_free_rec(s, p, map, memo);
            let t = subst_free_rec(s, t, map, memo);
            s.mk_node(TNode::In(p, t))
        }
        TNode::Out(p, t) => {
            let p = subst_free_rec(s, p, map, memo);
            let t = subst_free_rec(s, t, map, memo);
            s.mk_node(TNode::Out(p, t))
        }
        TNode::Dual(t) => {
            let t = subst_free_rec(s, t, map, memo);
            s.mk_node(TNode::Dual(t))
        }
        TNode::Neg(p) => {
            let p = subst_free_rec(s, p, map, memo);
            s.mk_node(TNode::Neg(p))
        }
        TNode::Proto(name, args) => {
            let args = args
                .into_iter()
                .map(|a| subst_free_rec(s, a, map, memo))
                .collect();
            s.mk_node(TNode::Proto(name, args))
        }
        TNode::Data(name, args) => {
            let args = args
                .into_iter()
                .map(|a| subst_free_rec(s, a, map, memo))
                .collect();
            s.mk_node(TNode::Data(name, args))
        }
    };
    memo.insert(id, r);
    r
}

fn replace_bound<S: StoreOps>(
    s: &mut S,
    id: TypeId,
    depth: u32,
    arg: TypeId,
    memo: &mut HashMap<(TypeId, u32), TypeId>,
) -> TypeId {
    // A subtree that cannot reach the target binder is unchanged —
    // this also makes the memo sound for subtrees shared at several
    // depths (they are all in this closed class or keyed by depth).
    if s.binders_needed(id) <= depth {
        return id;
    }
    if let Some(&r) = memo.get(&(id, depth)) {
        return r;
    }
    let r = match s.node_owned(id) {
        TNode::Bound(i) if i == depth => arg,
        // An index above the eliminated binder steps down by one.
        TNode::Bound(i) if i > depth => s.mk_node(TNode::Bound(i - 1)),
        TNode::Bound(_) => id,
        TNode::Forall(k, body) => {
            let body = replace_bound(s, body, depth + 1, arg, memo);
            s.mk_node(TNode::Forall(k, body))
        }
        TNode::Arrow(a, b) => {
            let a = replace_bound(s, a, depth, arg, memo);
            let b = replace_bound(s, b, depth, arg, memo);
            s.mk_node(TNode::Arrow(a, b))
        }
        TNode::Pair(a, b) => {
            let a = replace_bound(s, a, depth, arg, memo);
            let b = replace_bound(s, b, depth, arg, memo);
            s.mk_node(TNode::Pair(a, b))
        }
        TNode::In(p, t) => {
            let p = replace_bound(s, p, depth, arg, memo);
            let t = replace_bound(s, t, depth, arg, memo);
            s.mk_node(TNode::In(p, t))
        }
        TNode::Out(p, t) => {
            let p = replace_bound(s, p, depth, arg, memo);
            let t = replace_bound(s, t, depth, arg, memo);
            s.mk_node(TNode::Out(p, t))
        }
        TNode::Dual(t) => {
            let t = replace_bound(s, t, depth, arg, memo);
            s.mk_node(TNode::Dual(t))
        }
        TNode::Neg(p) => {
            let p = replace_bound(s, p, depth, arg, memo);
            s.mk_node(TNode::Neg(p))
        }
        TNode::Proto(name, args) => {
            let args = args
                .into_iter()
                .map(|a| replace_bound(s, a, depth, arg, memo))
                .collect();
            s.mk_node(TNode::Proto(name, args))
        }
        TNode::Data(name, args) => {
            let args = args
                .into_iter()
                .map(|a| replace_bound(s, a, depth, arg, memo))
                .collect();
            s.mk_node(TNode::Data(name, args))
        }
        TNode::Unit | TNode::Base(_) | TNode::Free(_) | TNode::EndIn | TNode::EndOut => {
            unreachable!("leaf nodes need no binders")
        }
    };
    memo.insert((id, depth), r);
    r
}

/// Canonical binder names for extraction: `a`, `b`, …, `z`, `a1`, `b1`, …
/// skipping names that occur free in the type being extracted or are
/// already bound in the enclosing scope (hinted names included).
fn canonical_binder(next: &mut usize, binders: &[Symbol], free: &HashSet<Symbol>) -> Symbol {
    loop {
        let i = *next;
        *next += 1;
        let letter = (b'a' + (i % 26) as u8) as char;
        let name = if i < 26 {
            letter.to_string()
        } else {
            format!("{letter}{}", i / 26)
        };
        let sym = Symbol::intern(&name);
        if !free.contains(&sym) && !binders.contains(&sym) {
            return sym;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::nrm_pos;
    use crate::session::Session;

    #[test]
    fn invariants_hold_after_mixed_use() {
        let mut s = Session::new();
        let t = Type::dual(Type::output(
            Type::neg(Type::int()),
            Type::input(Type::bool(), Type::var("s")),
        ));
        let u = Type::forall(
            "s",
            Kind::Session,
            Type::arrow(Type::input(Type::int(), Type::var("s")), Type::var("s")),
        );
        let (a, b) = (s.intern(&t), s.intern(&u));
        s.equivalent_ids(a, b);
        let n = s.nrm_neg(a);
        s.extract_cached(n);
        let end = s.intern(&Type::EndOut);
        let inst = s.subst_free(a, &HashMap::from([(Symbol::intern("s"), end)]));
        s.nrm(inst);
        s.check_invariants().expect("store invariants violated");
        let stats = s.stats();
        assert!(stats.nodes > 0 && stats.memo_entries > 0);
        let nf = s.nrm(a);
        assert!(
            s.is_normalized(nf),
            "fixpoint seeding must record normal forms as their own nrm"
        );
    }

    #[test]
    fn introspection_counts_memo_growth() {
        let mut s = Session::new();
        let id = s.intern(&Type::output(Type::int(), Type::EndOut));
        let before = s.stats();
        assert_eq!(before.memo_entries, 0);
        s.nrm(id);
        let after = s.stats();
        assert!(after.memo_entries > before.memo_entries);
        s.check_invariants().expect("store invariants violated");
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut s = Session::new();
        let a = s.intern(&Type::output(Type::int(), Type::EndOut));
        let b = s.intern(&Type::output(Type::int(), Type::EndOut));
        assert_eq!(a, b);
        // Shared subterms too: exactly Int, End!, and the Out node.
        assert_eq!(s.stats().nodes, 3);
    }

    #[test]
    fn alpha_equivalent_types_share_an_id() {
        let mut s = Session::new();
        let t = Type::forall("x", Kind::Session, Type::var("x"));
        let u = Type::forall("y", Kind::Session, Type::var("y"));
        assert_eq!(s.intern(&t), s.intern(&u));
        // ...but a free occurrence is different from a bound one.
        let v = Type::forall("x", Kind::Session, Type::var("z"));
        assert_ne!(s.intern(&t), s.intern(&v));
    }

    #[test]
    fn shadowing_respected() {
        let mut s = Session::new();
        // ∀a.∀a.a  =α  ∀b.∀c.c   but  ≠α  ∀a.∀b.a
        let t = Type::forall(
            "a",
            Kind::Session,
            Type::forall("a", Kind::Session, Type::var("a")),
        );
        let u = Type::forall(
            "b",
            Kind::Session,
            Type::forall("c", Kind::Session, Type::var("c")),
        );
        let v = Type::forall(
            "a",
            Kind::Session,
            Type::forall("b", Kind::Session, Type::var("a")),
        );
        assert_eq!(s.intern(&t), s.intern(&u));
        assert_ne!(s.intern(&t), s.intern(&v));
    }

    #[test]
    fn extract_round_trips_alpha_equivalently() {
        let mut s = Session::new();
        let t = Type::forall(
            "s",
            Kind::Session,
            Type::arrow(
                Type::input(Type::neg(Type::int()), Type::var("s")),
                Type::dual(Type::var("s")),
            ),
        );
        let id = s.intern(&t);
        let back = s.extract(id);
        assert!(t.alpha_eq(&back), "{t}  vs  {back}");
        assert_eq!(s.intern(&back), id);
    }

    #[test]
    fn extraction_avoids_capturing_free_vars() {
        let mut s = Session::new();
        // ∀x. x ⊗ a  — the canonical binder must not be named `a`.
        let t = Type::forall("x", Kind::Value, Type::pair(Type::var("x"), Type::var("a")));
        let id = s.intern(&t);
        let back = s.extract(id);
        assert!(t.alpha_eq(&back), "{t}  vs  {back}");
    }

    #[test]
    fn extraction_prefers_the_written_binder_name() {
        let mut s = Session::new();
        let t = Type::forall(
            "sess",
            Kind::Session,
            Type::arrow(Type::var("sess"), Type::var("sess")),
        );
        let id = s.intern(&t);
        assert_eq!(s.extract(id).to_string(), "forall (sess:S). sess -> sess");
        // The hint is first-intern-wins: an α-equal type written with a
        // different name shares the id, hence the display name.
        let u = Type::forall(
            "other",
            Kind::Session,
            Type::arrow(Type::var("other"), Type::var("other")),
        );
        assert_eq!(s.intern(&u), id);
        assert_eq!(s.extract(id).to_string(), "forall (sess:S). sess -> sess");
        // A hint that would capture a free variable is dropped.
        let v = Type::forall(
            "fv",
            Kind::Value,
            Type::pair(Type::var("fv"), Type::var("x")),
        );
        let w = Type::forall(
            "x",
            Kind::Value,
            Type::pair(Type::var("x"), Type::var("x2")),
        );
        let vid = s.intern(&v);
        let back = s.extract(vid);
        assert!(v.alpha_eq(&back));
        let wid = s.intern(&w);
        let back = s.extract(wid);
        assert!(w.alpha_eq(&back), "{w} vs {back}");
    }

    #[test]
    fn extract_cached_returns_the_same_tree() {
        let mut s = Session::new();
        let t = Type::forall(
            "s",
            Kind::Session,
            Type::output(Type::int(), Type::var("s")),
        );
        let id = s.intern(&t);
        let a = s.extract_cached(id);
        let b = s.extract_cached(id);
        assert_eq!(a, b);
        assert!(a.alpha_eq(&t));
    }

    #[test]
    fn store_nrm_agrees_with_tree_nrm() {
        let samples = vec![
            Type::dual(Type::input(Type::neg(Type::int()), Type::var("a"))),
            Type::dual(Type::dual(Type::output(Type::int(), Type::EndIn))),
            Type::proto("PQ", vec![Type::neg(Type::neg(Type::neg(Type::int())))]),
            Type::forall(
                "s",
                Kind::Session,
                Type::arrow(
                    Type::dual(Type::output(Type::int(), Type::var("s"))),
                    Type::var("s"),
                ),
            ),
        ];
        let mut s = Session::new();
        for t in samples {
            let via_store = s.intern(&t);
            let via_store = s.nrm(via_store);
            let via_tree = s.intern(&nrm_pos(&t));
            assert_eq!(via_store, via_tree, "mismatch on {t}");
        }
    }

    #[test]
    fn nrm_is_a_fixpoint_by_construction() {
        let mut s = Session::new();
        let t = Type::dual(Type::input(Type::neg(Type::int()), Type::var("a")));
        let id = s.intern(&t);
        let n = s.nrm(id);
        assert_eq!(s.nrm(n), n);
        assert!(s.is_normalized(n));
    }

    #[test]
    fn equivalence_is_id_equality_of_normal_forms() {
        let mut s = Session::new();
        let t = s.intern(&Type::dual(Type::input(Type::int(), Type::EndIn)));
        let u = s.intern(&Type::output(Type::int(), Type::dual(Type::EndIn)));
        assert!(s.equivalent_ids(t, u));
        let v = s.intern(&Type::output(Type::bool(), Type::EndOut));
        assert!(!s.equivalent_ids(t, v));
    }

    #[test]
    fn subst_free_is_capture_free() {
        let mut s = Session::new();
        // (∀b. a -> b)[b/a]: nameless binders cannot capture.
        let t = Type::forall(
            "b",
            Kind::Session,
            Type::arrow(Type::var("a"), Type::var("b")),
        );
        let id = s.intern(&t);
        let b = s.intern(&Type::var("b"));
        let map = HashMap::from([(Symbol::intern("a"), b)]);
        let r = s.subst_free(id, &map);
        let expected = Type::forall(
            "c",
            Kind::Session,
            Type::arrow(Type::var("b"), Type::var("c")),
        );
        assert_eq!(r, s.intern(&expected));
    }

    #[test]
    fn instantiate_beta_reduces() {
        let mut s = Session::new();
        // (∀s. !Int.s)[End!/s] = !Int.End!
        let t = Type::forall(
            "s",
            Kind::Session,
            Type::output(Type::int(), Type::var("s")),
        );
        let id = s.intern(&t);
        let arg = s.intern(&Type::EndOut);
        let r = s.instantiate(id, arg).expect("forall");
        assert_eq!(r, s.intern(&Type::output(Type::int(), Type::EndOut)));
        // Not a forall:
        assert!(s.instantiate(arg, id).is_none());
    }

    #[test]
    fn instantiate_under_nested_binders() {
        let mut s = Session::new();
        // (∀a. ∀b. a ⊗ b)[Int/a] = ∀b. Int ⊗ b
        let t = Type::forall(
            "a",
            Kind::Value,
            Type::forall("b", Kind::Value, Type::pair(Type::var("a"), Type::var("b"))),
        );
        let id = s.intern(&t);
        let arg = s.intern(&Type::int());
        let r = s.instantiate(id, arg).expect("forall");
        let expected = Type::forall("b", Kind::Value, Type::pair(Type::int(), Type::var("b")));
        assert_eq!(r, s.intern(&expected));
    }

    #[test]
    fn node_count_matches_tree_count() {
        let mut s = Session::new();
        let t = Type::dual(Type::output(
            Type::proto("PC", vec![Type::int(), Type::neg(Type::bool())]),
            Type::EndOut,
        ));
        let id = s.intern(&t);
        assert_eq!(s.node_count(id), t.node_count() as u64);
    }

    #[test]
    fn needs_binders_tracks_escaping_indices() {
        let mut s = Session::new();
        let closed = s.intern(&Type::forall("a", Kind::Value, Type::var("a")));
        assert_eq!(s.binders_needed(closed), 0);
        let body = match *s.node(closed) {
            TNode::Forall(_, b) => b,
            _ => unreachable!(),
        };
        assert_eq!(s.binders_needed(body), 1);
    }
}
