//! Interned identifiers.
//!
//! All names in the system — type variables, protocol names, constructor
//! tags, term variables — are interned [`Symbol`]s, so comparison and
//! hashing are O(1). The symbol table is process-global and leaks its
//! strings, the standard trade-off for compiler-style workloads.
//!
//! The table is built for many threads that mostly look names up:
//!
//! * **Names by id** live in an append-only table of doubling segments,
//!   like the store's arena: [`Symbol::as_str`] is two acquire loads and
//!   never takes a lock.
//! * **Ids by name** live in a map behind one mutex. Each thread keeps
//!   a bounded cache of the names it has interned, so [`Symbol::intern`]
//!   of a name this thread has seen before is one thread-local hash
//!   probe; the mutex is taken for a name new to the thread. A full
//!   cache is cleared and refilled on demand.
//! * [`Symbol::fresh`] names are made under the mutex and never enter a
//!   cache: each is used once, so caching them would only evict names
//!   that recur.
//!
//! The builtin type names have fixed ids ([`Symbol::UNIT`],
//! [`Symbol::INT`], …), so parsers and resolvers test for them by id.

use crate::hash::SeededState;
use crate::spine::Spine;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy, compare and hash.
///
/// ```
/// use algst_core::symbol::Symbol;
/// let a = Symbol::intern("Cons");
/// let b = Symbol::intern("Cons");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "Cons");
/// assert_eq!(Symbol::intern("Int"), Symbol::INT);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Names with fixed ids, in id order (see the `Symbol` constants).
const BUILTIN: [&str; 5] = ["Unit", "Int", "Bool", "Char", "String"];

/// Names of ids from `BUILTIN.len()` on, by `id - BUILTIN.len()`.
static NAMES: Spine<&'static str> = Spine::new();

/// Entries a thread's cache holds before it is cleared.
const CACHE_CAP: usize = 4096;

thread_local! {
    static CACHE: RefCell<HashMap<&'static str, Symbol, SeededState>> =
        RefCell::new(HashMap::default());
}

/// The writer side: the name → id map (which also serializes appends
/// to `NAMES`) and the counter behind [`Symbol::fresh`].
struct Interner {
    map: HashMap<&'static str, u32>,
    fresh: u32,
}

impl Interner {
    fn get() -> &'static Mutex<Interner> {
        static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
        INTERNER.get_or_init(|| {
            let map = (0u32..).zip(BUILTIN).map(|(id, s)| (s, id)).collect();
            Mutex::new(Interner { map, fresh: 0 })
        })
    }

    fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&id) = self.map.get(name) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = (BUILTIN.len() + NAMES.push(leaked)) as u32;
        self.map.insert(leaked, id);
        Symbol(id)
    }
}

impl Symbol {
    pub const UNIT: Symbol = Symbol(0);
    pub const INT: Symbol = Symbol(1);
    pub const BOOL: Symbol = Symbol(2);
    pub const CHAR: Symbol = Symbol(3);
    pub const STRING: Symbol = Symbol(4);

    /// Interns `name`, returning the canonical symbol for it.
    pub fn intern(name: &str) -> Symbol {
        let locked = |name: &str| {
            Interner::get()
                .lock()
                .expect("interner poisoned")
                .intern(name)
        };
        // `try_with` fails only while this thread's locals are being
        // destroyed; the mutex still answers then.
        CACHE
            .try_with(|cache| {
                if let Some(&sym) = cache.borrow().get(name) {
                    return sym;
                }
                let sym = locked(name);
                let mut cache = cache.borrow_mut();
                if cache.len() == CACHE_CAP {
                    cache.clear();
                }
                cache.insert(sym.as_str(), sym);
                sym
            })
            .unwrap_or_else(|_| locked(name))
    }

    /// Returns a fresh symbol guaranteed to be distinct from every symbol
    /// interned so far. Used for capture-avoiding substitution.
    ///
    /// The name is derived from `base` for readability in error messages.
    pub fn fresh(base: &str) -> Symbol {
        let mut i = Interner::get().lock().expect("interner poisoned");
        i.fresh += 1;
        // '%' cannot appear in source identifiers, so no collision with
        // user-written names is possible.
        let name = format!("{base}%{}", i.fresh);
        i.intern(&name)
    }

    /// The string this symbol stands for. Lock-free.
    pub fn as_str(&self) -> &'static str {
        let i = self.0 as usize;
        match BUILTIN.get(i) {
            Some(s) => s,
            None => NAMES.get(i - BUILTIN.len()),
        }
    }

    /// Strips the freshness suffix, if any, for user-facing display.
    pub fn base_name(&self) -> &'static str {
        let s = self.as_str();
        match s.find('%') {
            Some(ix) => &s[..ix],
            None => s,
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Symbol::intern("x"), Symbol::intern("x"));
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
    }

    #[test]
    fn fresh_symbols_are_distinct() {
        let a = Symbol::fresh("x");
        let b = Symbol::fresh("x");
        assert_ne!(a, b);
        assert_eq!(a.base_name(), "x");
    }

    #[test]
    fn display_roundtrip() {
        let s = Symbol::intern("Stream");
        assert_eq!(s.to_string(), "Stream");
        assert_eq!(format!("{s:?}"), "`Stream`");
    }

    #[test]
    fn builtin_names_have_fixed_ids() {
        for (i, name) in BUILTIN.into_iter().enumerate() {
            assert_eq!(Symbol::intern(name), Symbol(i as u32));
            assert_eq!(Symbol(i as u32).as_str(), name);
        }
    }

    /// Eight threads intern overlapping names (enough to overflow and
    /// clear each thread's cache twice over) plus fresh names: every
    /// thread sees the same id for a name, ids round-trip through
    /// `as_str`, and fresh symbols are distinct from each other and from
    /// every interned name.
    #[test]
    fn threads_agree_on_ids_across_cache_overflow() {
        const THREADS: usize = 8;
        const NAMES_PER_THREAD: usize = 2 * CACHE_CAP + 100;
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    s.spawn(move || {
                        let mut named = Vec::new();
                        let mut fresh = Vec::new();
                        for pass in 0..2 {
                            for i in 0..NAMES_PER_THREAD {
                                // Threads overlap on half their names.
                                let name = format!("sym_{}", i + t * NAMES_PER_THREAD / 2);
                                let sym = Symbol::intern(&name);
                                assert_eq!(sym.as_str(), name);
                                if pass == 0 {
                                    named.push((name, sym));
                                } else {
                                    assert_eq!(named[i].1, sym, "{name} changed id");
                                }
                                if i % 64 == 0 {
                                    fresh.push(Symbol::fresh("sym"));
                                }
                            }
                        }
                        (named, fresh)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut ids: HashMap<String, Symbol> = HashMap::new();
        let mut fresh: HashSet<Symbol> = HashSet::new();
        for (named, fresh_syms) in results {
            for (name, sym) in named {
                assert_eq!(*ids.entry(name.clone()).or_insert(sym), sym, "{name}");
            }
            for sym in fresh_syms {
                assert!(fresh.insert(sym), "fresh symbol {sym:?} handed out twice");
                assert_eq!(sym.base_name(), "sym");
            }
        }
        let distinct: HashSet<Symbol> = ids.values().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "two names share an id");
        assert!(distinct.is_disjoint(&fresh), "a fresh symbol equals a name");
        for (name, sym) in &ids {
            assert_eq!(Symbol::intern(name), *sym);
        }
    }
}
