//! Standalone types for `equiv` requests: from a string to a store id.
//!
//! The checker's elaborator resolves surface types against a module's
//! protocol/data/alias declarations. A bare equivalence query has no
//! module, and does not need one: the paper's equivalence is *nominal*
//! in protocol names — `P ā ≡ P b̄` iff the arguments are equivalent
//! pointwise — so any unknown applied uppercase name can be treated as
//! an (undeclared) protocol reference without changing any verdict.
//! Builtins (`Int`, `Bool`, `Char`, `String`, `Unit`) resolve as usual;
//! lowercase names are type variables.
//!
//! Two paths implement this resolution:
//!
//! * [`intern_str`], the server's path, parses straight into a store in
//!   one pass. The type grammar ([`build_type`]) drives a store builder
//!   that hash-conses each node once its children are, turns variables
//!   bound by an enclosing `forall` into de Bruijn indices and notes each
//!   binder's name as a display hint. No token vector, syntax tree or
//!   type tree is built. The whole string is one store operation: it
//!   settles once at the end (one commit of its new nodes), runs again
//!   if the commit finds its worker stale, and leaves nothing behind
//!   when the string does not parse.
//! * [`type_from_str`] is the reference path: parse to an [`SType`]
//!   tree, then resolve it to a core [`Type`]. Callers that want a tree
//!   use it (the conformance suite, the pipeline, the service
//!   benchmark's per-layer ledger), and tests check that [`intern_str`]
//!   returns the id `Session::intern` gives that tree, and the same
//!   error text.

use algst_core::store::{StoreOps, TNode, TypeId};
use algst_core::symbol::Symbol;
use algst_core::types::{BaseType, Type};
use algst_syntax::ast::SType;
use algst_syntax::parser::{build_type, parse_type, TypeBuilder, TypeNode};
use algst_syntax::Span;
use std::sync::Arc;

/// Parses the surface syntax of a single type (e.g. `!Int.End!` or
/// `forall (s:S). ?Neg Int.s`) and interns it into `store`, in one pass.
/// Returns the id [`StoreOps::intern`] gives [`type_from_str`]'s tree.
pub fn intern_str<S: StoreOps>(store: &mut S, src: &str) -> Result<TypeId, String> {
    loop {
        let mut builder = StoreBuilder {
            store: &mut *store,
            binders: Vec::new(),
        };
        match build_type(src, &mut builder) {
            Ok(id) => {
                let mut ids = [id];
                if store.settle(&mut ids) {
                    return Ok(ids[0]);
                }
            }
            Err(e) => {
                store.abandon();
                return Err(e.to_string());
            }
        }
    }
}

/// Parses the surface syntax of a single type into a core [`Type`].
pub fn type_from_str(src: &str) -> Result<Type, String> {
    let st = parse_type(src).map_err(|e| e.to_string())?;
    Ok(resolve(&st))
}

/// The builtin base type an argument-free name stands for, if any.
fn builtin(name: Symbol) -> Option<BaseType> {
    match name {
        Symbol::INT => Some(BaseType::Int),
        Symbol::BOOL => Some(BaseType::Bool),
        Symbol::CHAR => Some(BaseType::Char),
        Symbol::STRING => Some(BaseType::Str),
        _ => None,
    }
}

fn resolve(st: &SType) -> Type {
    match st {
        SType::Unit(_) => Type::Unit,
        SType::Var(v, _) => Type::Var(*v),
        SType::Name(name, args, _) => match builtin(*name) {
            Some(b) if args.is_empty() => Type::Base(b),
            _ => Type::Proto(*name, args.iter().map(resolve).collect()),
        },
        SType::Arrow(a, b, _) => Type::Arrow(Arc::new(resolve(a)), Arc::new(resolve(b))),
        SType::Pair(a, b, _) => Type::Pair(Arc::new(resolve(a)), Arc::new(resolve(b))),
        SType::Forall(v, k, body, _) => Type::Forall(*v, *k, Arc::new(resolve(body))),
        SType::In(p, s, _) => Type::In(Arc::new(resolve(p)), Arc::new(resolve(s))),
        SType::Out(p, s, _) => Type::Out(Arc::new(resolve(p)), Arc::new(resolve(s))),
        SType::EndIn(_) => Type::EndIn,
        SType::EndOut(_) => Type::EndOut,
        SType::Dual(s, _) => Type::Dual(Arc::new(resolve(s))),
        SType::Neg(p, _) => Type::Neg(Arc::new(resolve(p))),
    }
}

/// Builds store nodes as the grammar recognises them: the same nodes,
/// binder indices and hints as `StoreOps::intern` of the resolved tree.
struct StoreBuilder<'a, S> {
    store: &'a mut S,
    /// Enclosing `forall` binders, innermost last.
    binders: Vec<Symbol>,
}

impl<S: StoreOps> TypeBuilder for StoreBuilder<'_, S> {
    type Ty = TypeId;

    fn enter_forall(&mut self, var: Symbol) {
        self.binders.push(var);
    }

    fn build(&mut self, node: TypeNode<TypeId>, _: Span) -> TypeId {
        let node = match node {
            TypeNode::Unit => TNode::Unit,
            TypeNode::Name(name, args) => match builtin(name) {
                Some(b) if args.is_empty() => TNode::Base(b),
                _ => TNode::Proto(name, args),
            },
            TypeNode::Var(var) => match self.binders.iter().rposition(|&b| b == var) {
                Some(ix) => TNode::Bound((self.binders.len() - 1 - ix) as u32),
                None => TNode::Free(var),
            },
            TypeNode::Arrow(a, b) => TNode::Arrow(a, b),
            TypeNode::Pair(a, b) => TNode::Pair(a, b),
            TypeNode::Forall(var, kind, body) => {
                self.binders.pop();
                let id = self.store.mk_node(TNode::Forall(kind, body));
                self.store.note_binder_hint(id, var);
                return id;
            }
            TypeNode::In(p, s) => TNode::In(p, s),
            TypeNode::Out(p, s) => TNode::Out(p, s),
            TypeNode::EndIn => TNode::EndIn,
            TypeNode::EndOut => TNode::EndOut,
            TypeNode::Dual(s) => TNode::Dual(s),
            TypeNode::Neg(p) => TNode::Neg(p),
        };
        self.store.mk_node(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algst_core::Session;

    fn equivalent(t: &Type, u: &Type) -> bool {
        Session::new().equivalent(t, u)
    }

    #[test]
    fn parses_session_types() {
        let t = type_from_str("!Int.End!").unwrap();
        assert_eq!(t, Type::output(Type::int(), Type::EndOut));
        let u = type_from_str("Dual (?Int.End?)").unwrap();
        assert!(equivalent(&t, &u));
    }

    #[test]
    fn unknown_names_resolve_nominally() {
        let t = type_from_str("?Repeat Int.End?").unwrap();
        let u = type_from_str("?Repeat Int.End?").unwrap();
        assert!(equivalent(&t, &u));
        let v = type_from_str("?Repeat Bool.End?").unwrap();
        assert!(!equivalent(&t, &v));
    }

    #[test]
    fn forall_and_variables() {
        let t = type_from_str("forall (s:S). !Int.s -> s").unwrap();
        let u = type_from_str("forall (r:S). !Int.r -> r").unwrap();
        assert!(equivalent(&t, &u));
    }

    #[test]
    fn display_round_trips() {
        for src in [
            "!Int.End!",
            "?(-Int).End?",
            "forall (s:S). Dual s -> (Int, s)",
            "!Repeat (Int, Bool).?Neg Char.End?",
        ] {
            let t = type_from_str(src).unwrap();
            let back = type_from_str(&t.to_string())
                .unwrap_or_else(|e| panic!("reparse of `{t}` failed: {e}"));
            assert!(equivalent(&t, &back), "{src} changed through display");
        }
    }

    #[test]
    fn reports_parse_errors() {
        assert!(type_from_str("!Int.").is_err());
        assert!(type_from_str("").is_err());
    }

    #[test]
    fn standalone_types_may_break_lines_at_column_one() {
        let mut s = Session::new();
        for (src, one_line) in [
            ("!Int.End!\n-> End?", "!Int.End! -> End?"),
            ("Repeat\nInt", "Repeat Int"),
        ] {
            let t = type_from_str(src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
            assert_eq!(t, type_from_str(one_line).unwrap());
            let id = intern_str(&mut s, src).unwrap();
            assert_eq!(id, s.intern(&t));
        }
    }
}
