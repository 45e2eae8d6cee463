//! Linear typing contexts with leftover threading (paper Section 4).
//!
//! Judgments have the shape `Δ | Γ₁ ⊢ e ⇒ T | Γ₂` where `Γ₂` is the part
//! of `Γ₁` *not consumed* by `e`. We implement the thread by mutating a
//! single [`Ctx`] in place: using a linear entry removes it; unrestricted
//! entries (`x :⋆ T`, used for recursive bindings, globals and builtins)
//! survive lookup.
//!
//! Entries store interned [`TypeId`]s, not trees: every type is interned
//! into the checker's [`Session`] on the way in. Because ids are
//! α-canonical, comparing the outgoing contexts of branches
//! ([`Ctx::same_linear`], rule E-Match's `Γ₃ =α Γᵢ` side condition) is a
//! per-entry integer comparison instead of a tree walk — and cloning a
//! context for a branch copies small ids, never types.
//!
//! Ids are only meaningful in the session (and its siblings) that
//! created them; every interning/extracting method therefore takes the
//! `&mut Session` the surrounding check runs against — there is no
//! ambient store a `Ctx` could silently reach instead.

use crate::error::TypeError;
use algst_core::store::TypeId;
use algst_core::symbol::Symbol;
use algst_core::types::Type;
use algst_core::Session;

/// How an entry may be used.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Usage {
    /// `x : T` — must be consumed exactly once.
    Linear,
    /// `x :⋆ T` — may be used any number of times (rule E-Var⋆).
    Unrestricted,
}

/// One context entry.
#[derive(Copy, Clone, Debug)]
pub struct Entry {
    pub name: Symbol,
    /// The entry's type, interned in the thread-shared store.
    pub ty: TypeId,
    pub usage: Usage,
}

/// A typing context `Γ`. Entries form a stack; lookup finds the most
/// recent binding, so local shadowing behaves as expected.
#[derive(Clone, Debug, Default)]
pub struct Ctx {
    entries: Vec<Entry>,
}

impl Ctx {
    pub fn new() -> Ctx {
        Ctx::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn push_linear(&mut self, s: &mut Session, name: Symbol, ty: Type) {
        let id = s.intern(&ty);
        self.push_linear_id(name, id);
    }

    pub fn push_linear_id(&mut self, name: Symbol, ty: TypeId) {
        self.entries.push(Entry {
            name,
            ty,
            usage: Usage::Linear,
        });
    }

    /// Pushes a term binder with an explicitly chosen usage discipline.
    /// Use [`is_unrestricted`] to compute it from the binder's type.
    pub fn push_term(&mut self, s: &mut Session, name: Symbol, ty: Type, unrestricted: bool) {
        if unrestricted {
            self.push_unrestricted(s, name, ty);
        } else {
            self.push_linear(s, name, ty);
        }
    }

    pub fn push_unrestricted(&mut self, s: &mut Session, name: Symbol, ty: Type) {
        let id = s.intern(&ty);
        self.push_unrestricted_id(name, id);
    }

    pub fn push_unrestricted_id(&mut self, name: Symbol, ty: TypeId) {
        self.entries.push(Entry {
            name,
            ty,
            usage: Usage::Unrestricted,
        });
    }

    /// Looks up `name`, applying the use discipline: a linear entry is
    /// removed (consumed, rule E-Var); an unrestricted entry is kept
    /// (rule E-Var⋆).
    pub fn use_var(&mut self, name: Symbol) -> Option<TypeId> {
        let ix = self.entries.iter().rposition(|e| e.name == name)?;
        match self.entries[ix].usage {
            Usage::Linear => Some(self.entries.remove(ix).ty),
            Usage::Unrestricted => Some(self.entries[ix].ty),
        }
    }

    /// Like [`Ctx::use_var`], but extracting the boundary [`Type`] for
    /// callers that destructure it. Extraction is memoized per id, so a
    /// global referenced many times pays one tree build, then shallow
    /// clones (extracted trees share subterms via `Arc`).
    pub fn use_var_ty(&mut self, s: &mut Session, name: Symbol) -> Option<Type> {
        let id = self.use_var(name)?;
        Some(s.extract_cached(id))
    }

    /// True if `name` is still present (most recent binding).
    pub fn contains(&self, name: Symbol) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// Removes the most recent entry for `name`, regardless of usage.
    /// Used to pop unrestricted binders at scope exit.
    pub fn remove(&mut self, name: Symbol) -> Option<Entry> {
        let ix = self.entries.iter().rposition(|e| e.name == name)?;
        Some(self.entries.remove(ix))
    }

    /// Checks the side condition `x ∉ Γ₂` of the binder rules: after the
    /// body of a `λ`/`let`/`match` the bound linear variable must be gone.
    /// Removes leftover *unrestricted* entries silently (they are scoped).
    pub fn expect_consumed(&mut self, name: Symbol) -> Result<(), TypeError> {
        if let Some(ix) = self.entries.iter().rposition(|e| e.name == name) {
            match self.entries[ix].usage {
                Usage::Linear => return Err(TypeError::UnusedLinear(name)),
                Usage::Unrestricted => {
                    self.entries.remove(ix);
                }
            }
        }
        Ok(())
    }

    /// A stable fingerprint of the linear entries, used to compare the
    /// outgoing contexts of `match`/`if` branches (rule E-Match requires
    /// `Γ₃ =α Γᵢ`) and to enforce E-Rec's "no linear captures".
    pub fn linear_names(&self) -> Vec<Symbol> {
        self.entries
            .iter()
            .filter(|e| e.usage == Usage::Linear)
            .map(|e| e.name)
            .collect()
    }

    /// Compares the linear parts of two contexts. Entry types are
    /// α-canonical ids, so the whole comparison is name + integer
    /// equality per entry — O(1) per entry, no tree traversal. Reports a
    /// human-readable diff on mismatch (`s` only extracts types for the
    /// diagnostic; the comparison itself never touches the store).
    pub fn same_linear(&self, other: &Ctx, s: &mut Session) -> Result<(), String> {
        let a = self.linear_entries();
        let b = other.linear_entries();
        if a.len() != b.len() {
            return Err(diff_message(s, &a, &b));
        }
        for (ea, eb) in a.iter().zip(&b) {
            if ea.name != eb.name || ea.ty != eb.ty {
                return Err(diff_message(s, &a, &b));
            }
        }
        Ok(())
    }

    fn linear_entries(&self) -> Vec<&Entry> {
        self.entries
            .iter()
            .filter(|e| e.usage == Usage::Linear)
            .collect()
    }

    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter()
    }
}

/// Types whose values may be freely dropped and duplicated.
///
/// This realizes the implementation-level kind split of the paper's
/// Section 5 (`Tᵘⁿ < Tˡⁱⁿ`; the formal system in the paper body is
/// uniformly linear):
///
/// * base types are unrestricted;
/// * pairs are unrestricted when both components are;
/// * datatypes are unrestricted when every constructor field is
///   (coinductively, so recursive datatypes like `Ast` qualify);
/// * function and ∀-types are treated as unrestricted, matching the
///   artifact's examples (e.g. the generic `stream` server applies its
///   `Service a` argument repeatedly). This is an approximation: the
///   artifact tracks the linearity of *captured* variables through kinds,
///   which we do not model — a closure over a channel can be duplicated
///   here. Session types, protocols and type variables are linear.
pub fn is_unrestricted(decls: &algst_core::protocol::Declarations, ty: &Type) -> bool {
    fn go(
        decls: &algst_core::protocol::Declarations,
        ty: &Type,
        assumed: &mut Vec<Symbol>,
    ) -> bool {
        match ty {
            Type::Unit | Type::Base(_) => true,
            Type::Arrow(..) | Type::Forall(..) => true,
            Type::Pair(a, b) => go(decls, a, assumed) && go(decls, b, assumed),
            Type::Data(name, args) => {
                if assumed.contains(name) {
                    return true; // coinductive: assume while checking
                }
                let Some(decl) = decls.data(*name) else {
                    return false;
                };
                if !args.iter().all(|a| go(decls, a, assumed)) {
                    return false;
                }
                assumed.push(*name);
                let ok = decl
                    .ctors
                    .iter()
                    .all(|c| c.args.iter().all(|f| go(decls, f, assumed)));
                assumed.pop();
                ok
            }
            _ => false,
        }
    }
    go(decls, ty, &mut Vec::new())
}

fn diff_message(s: &Session, a: &[&Entry], b: &[&Entry]) -> String {
    let show = |es: &[&Entry]| {
        if es.is_empty() {
            "(none)".to_owned()
        } else {
            es.iter()
                .map(|e| format!("{}: {}", e.name, s.extract(e.ty)))
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    let left = show(a);
    format!("one branch leaves [{left}], another [{}]", show(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn linear_use_consumes() {
        let mut s = Session::new();
        let mut ctx = Ctx::new();
        ctx.push_linear(&mut s, sym("c"), Type::EndOut);
        assert!(ctx.use_var(sym("c")).is_some());
        assert!(ctx.use_var(sym("c")).is_none());
    }

    #[test]
    fn unrestricted_use_persists() {
        let mut s = Session::new();
        let mut ctx = Ctx::new();
        ctx.push_unrestricted(&mut s, sym("f"), Type::arrow(Type::Unit, Type::Unit));
        assert!(ctx.use_var(sym("f")).is_some());
        assert!(ctx.use_var(sym("f")).is_some());
    }

    #[test]
    fn shadowing_uses_innermost() {
        let mut s = Session::new();
        let mut ctx = Ctx::new();
        ctx.push_linear(&mut s, sym("x"), Type::int());
        ctx.push_linear(&mut s, sym("x"), Type::bool());
        let t = ctx.use_var_ty(&mut s, sym("x")).unwrap();
        assert_eq!(t, Type::bool());
        let t = ctx.use_var_ty(&mut s, sym("x")).unwrap();
        assert_eq!(t, Type::int());
    }

    #[test]
    fn expect_consumed_flags_leftover_linear() {
        let mut s = Session::new();
        let mut ctx = Ctx::new();
        ctx.push_linear(&mut s, sym("c"), Type::EndOut);
        assert!(matches!(
            ctx.expect_consumed(sym("c")),
            Err(TypeError::UnusedLinear(_))
        ));
        // Unrestricted leftovers are popped silently.
        let mut ctx = Ctx::new();
        ctx.push_unrestricted(&mut s, sym("g"), Type::Unit);
        ctx.expect_consumed(sym("g")).unwrap();
        assert!(!ctx.contains(sym("g")));
    }

    #[test]
    fn same_linear_ignores_unrestricted() {
        let mut s = Session::new();
        let mut a = Ctx::new();
        a.push_unrestricted(&mut s, sym("f"), Type::Unit);
        a.push_linear(&mut s, sym("c"), Type::EndIn);
        let mut b = Ctx::new();
        b.push_linear(&mut s, sym("c"), Type::EndIn);
        a.same_linear(&b, &mut s).unwrap();
        b.use_var(sym("c"));
        assert!(a.same_linear(&b, &mut s).is_err());
    }

    #[test]
    fn same_linear_is_alpha_insensitive() {
        use algst_core::kind::Kind;
        // Entries interned to the same id despite different binder names.
        let mut s = Session::new();
        let mut a = Ctx::new();
        a.push_linear(
            &mut s,
            sym("h"),
            Type::forall("x", Kind::Session, Type::var("x")),
        );
        let mut b = Ctx::new();
        b.push_linear(
            &mut s,
            sym("h"),
            Type::forall("y", Kind::Session, Type::var("y")),
        );
        a.same_linear(&b, &mut s).unwrap();
    }
}
