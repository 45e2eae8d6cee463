//! Benchmark instances (paper Section 5, "Benchmarking").
//!
//! "An instance comprises a set of mutually recursive algebraic protocols
//! and a session type referring to them."

use algst_core::protocol::Declarations;
use algst_core::store::{StoreOps, TypeId};
use algst_core::types::Type;

/// One benchmark instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The protocol declarations (unparameterized, possibly mutually
    /// recursive — the generator "avoids polymorphic and nested
    /// recursion" so that a FreeST translation exists).
    pub decls: Declarations,
    /// A session type referring to the protocols.
    pub ty: Type,
}

impl Instance {
    /// Number of AlgST AST nodes — the x-axis of the paper's Figure 10.
    /// Counts the session type plus all constructor argument types of the
    /// declared protocols.
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
        self.ty.node_count() + decl_nodes
    }
}

/// A benchmark test case: a pair of types over shared declarations and
/// the ground-truth verdict.
#[derive(Clone, Debug)]
pub struct TestCase {
    pub instance: Instance,
    /// The comparison partner for `instance.ty`.
    pub other: Type,
    /// Whether the pair is equivalent by construction.
    pub equivalent: bool,
}

impl TestCase {
    pub fn node_count(&self) -> usize {
        self.instance.node_count()
    }

    /// Interns both sides of the pair into `store` — any [`StoreOps`]
    /// implementor: a [`Session`](algst_core::Session) or the
    /// `WorkerStore` it wraps — returning `(ty, other)` ids.
    /// Suites built by [`crate::suite::build_suite`] carry these ids
    /// already ([`crate::suite::Suite::ids`]); use this for ad-hoc cases.
    pub fn intern_into<S: StoreOps>(&self, store: &mut S) -> (TypeId, TypeId) {
        (store.intern(&self.instance.ty), store.intern(&self.other))
    }
}
