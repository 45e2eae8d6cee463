//! The `large-types` constructions: equivalence pairs of 10² to 4×10³
//! nodes whose verdict is known by construction, built in linear time.
//!
//! Every pair starts from a *spec*: a list of messages, each an
//! effective direction plus a payload already in normal form, followed
//! by a tail (`End!`, `End?` or a session variable). Both sides of a
//! pair are independent random *presentations* of a spec, using only
//! rewrites that normalisation undoes (paper Fig. 3):
//!
//! * `Dual` over a suffix, with every direction inside it flipped and
//!   the tail dualised (`Dual (?T.S) ≡ !T.Dual S`, `Dual End? ≡ End!`,
//!   `Dual (Dual s) ≡ s`);
//! * `!T.S ≡ ?(-T).S` and `?T.S ≡ !(-T).S` at a message;
//! * `--A ≡ A` on a payload or protocol argument.
//!
//! A non-equivalent pair presents the spec on one side and a copy that
//! differs at one message (direction flipped, or payload replaced by a
//! different one) on the other. Normal forms are canonical (Theorem 3),
//! so the verdict is `false` exactly because the specs differ.
//!
//! Three families vary where the nodes sit:
//!
//! * [`Family::Spine`] — long `!T.`/`?T.` spines over small payloads;
//! * [`Family::NestedArgs`] — shorter spines whose payloads are nested
//!   protocol applications (`Tree (Stream (-Int)) Bool`);
//! * [`Family::Forall`] — `forall (s:S). forall (x:P).` over a spine
//!   that sends `x` and ends in `s`, with the binders renamed on the
//!   other side.
//!
//! Each request is made unique at its innermost tail: a binary tag of
//! the request number, as messages just before the tail, so every spine
//! node of every request is new to the server's store.
//!
//! **Size cap.** A single 5,000-message spine aborts the server (the
//! worker's stack overflows); 4,000 messages pass. Payloads here average
//! about three nodes, so a 4,000-node side has about 1,000 messages and
//! the nesting depth stays near 1,000. Widening the range is a change of
//! its own, after that crash is fixed.

use algst_core::kind::Kind;
use algst_core::types::Type;
use rand::rngs::StdRng;
use rand::Rng;

/// Target node counts of a pair's left side, log-spaced from 100 to
/// 4,000 (ratio 40^(1/7) ≈ 1.69 between neighbours).
pub const SIZE_BUCKETS: [usize; 8] = [100, 169, 287, 486, 823, 1394, 2362, 4000];

/// Where a pair's nodes sit; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Spine,
    NestedArgs,
    Forall,
}

pub const FAMILIES: [Family; 3] = [Family::Spine, Family::NestedArgs, Family::Forall];

/// One generated pair and its verdict.
#[derive(Clone, Debug)]
pub struct LargePair {
    pub lhs: Type,
    pub rhs: Type,
    pub expected: bool,
}

#[derive(Clone, Debug)]
struct Msg {
    out: bool,
    payload: Type,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tail {
    EndOut,
    /// The session variable bound by the outermost `forall`.
    Var,
}

struct Spec {
    msgs: Vec<Msg>,
    tail: Tail,
    /// Messages before this index may be mutated; the rest is the tag.
    body_len: usize,
}

/// Variable names one side of a pair uses (the other side renames).
struct Names {
    session: &'static str,
    proto: &'static str,
}

const LHS_NAMES: Names = Names {
    session: "s",
    proto: "x",
};
const RHS_NAMES: Names = Names {
    session: "r",
    proto: "y",
};

/// Builds pair number `index` (its unique tag) of `family`, with a left
/// side of about `SIZE_BUCKETS[bucket]` nodes.
pub fn large_pair(
    rng: &mut StdRng,
    index: u64,
    family: Family,
    bucket: usize,
    expected: bool,
) -> LargePair {
    let target = SIZE_BUCKETS[bucket];
    let spec = make_spec(rng, index, family, target);
    let other = if expected {
        None
    } else {
        Some(mutate(rng, &spec))
    };
    let lhs = present(rng, &spec, family, &LHS_NAMES);
    let rhs = present(rng, other.as_ref().unwrap_or(&spec), family, &RHS_NAMES);
    LargePair { lhs, rhs, expected }
}

fn make_spec(rng: &mut StdRng, index: u64, family: Family, target: usize) -> Spec {
    let mut msgs = Vec::new();
    // The spec's plain rendering costs one node per message, plus the
    // payloads, plus the tail (and two binders for `Forall`).
    let mut nodes = 1 + if family == Family::Forall { 2 } else { 0 };
    let tag = tag_msgs(index);
    let tag_nodes: usize = tag.iter().map(|m| 1 + m.payload.node_count()).sum();
    while nodes + tag_nodes < target {
        let payload = match family {
            Family::Spine => small_payload(rng),
            Family::NestedArgs => proto_payload(rng, 3),
            Family::Forall => var_payload(rng),
        };
        nodes += 1 + payload.node_count();
        msgs.push(Msg {
            out: rng.gen_range(0..2) == 0,
            payload,
        });
    }
    let body_len = msgs.len();
    msgs.extend(tag);
    Spec {
        msgs,
        tail: if family == Family::Forall {
            Tail::Var
        } else {
            Tail::EndOut
        },
        body_len,
    }
}

/// The request's unique tag: its index in binary, one message per bit.
fn tag_msgs(index: u64) -> Vec<Msg> {
    let mut msgs = Vec::new();
    let mut n = index;
    loop {
        msgs.push(Msg {
            out: true,
            payload: if n & 1 == 0 {
                Type::int()
            } else {
                Type::bool()
            },
        });
        n >>= 1;
        if n == 0 {
            return msgs;
        }
    }
}

/// Payloads of one to five nodes, three on average.
fn small_payload(rng: &mut StdRng) -> Type {
    match rng.gen_range(0..6) {
        0 => Type::int(),
        1 => Type::bool(),
        2 => Type::pair(Type::int(), Type::char()),
        3 => Type::proto("Stream", vec![Type::int()]),
        4 => Type::pair(Type::char(), Type::pair(Type::int(), Type::bool())),
        _ => Type::proto("Tree", vec![Type::neg(Type::int()), Type::bool()]),
    }
}

/// A protocol application nested `depth` levels deep; arguments may be
/// negated at their top, as normal forms allow.
fn proto_payload(rng: &mut StdRng, depth: usize) -> Type {
    if depth == 0 {
        return if rng.gen_range(0..2) == 0 {
            Type::int()
        } else {
            Type::bool()
        };
    }
    let arg = |rng: &mut StdRng| {
        let a = proto_payload(rng, depth - 1);
        if rng.gen_range(0..3) == 0 {
            Type::neg(a)
        } else {
            a
        }
    };
    match rng.gen_range(0..3) {
        0 => Type::proto("Stream", vec![arg(rng)]),
        1 => Type::proto("Tree", vec![arg(rng), arg(rng)]),
        _ => Type::proto("Rel", vec![arg(rng), Type::char()]),
    }
}

/// Payloads over the protocol variable bound by the family's `forall`;
/// `Type::var("x")` is renamed per side in [`present`].
fn var_payload(rng: &mut StdRng) -> Type {
    match rng.gen_range(0..4) {
        0 => Type::var("x"),
        1 => Type::pair(Type::var("x"), Type::int()),
        2 => Type::proto("Stream", vec![Type::neg(Type::var("x"))]),
        _ => Type::int(),
    }
}

/// A copy of `spec` that differs at one message of its body.
fn mutate(rng: &mut StdRng, spec: &Spec) -> Spec {
    let mut msgs = spec.msgs.clone();
    let i = rng.gen_range(0..spec.body_len.max(1));
    if rng.gen_range(0..2) == 0 {
        msgs[i].out = !msgs[i].out;
    } else {
        msgs[i].payload = if msgs[i].payload == Type::int() {
            Type::bool()
        } else {
            Type::int()
        };
    }
    Spec {
        msgs,
        tail: spec.tail,
        body_len: spec.body_len,
    }
}

enum Token {
    Dual,
    Msg { out: bool, payload: Type },
}

/// One random presentation of `spec`. Built front to back as a token
/// list (so no recursion depth grows with the spine), then folded from
/// the tail outwards.
fn present(rng: &mut StdRng, spec: &Spec, family: Family, names: &Names) -> Type {
    let mut tokens = Vec::with_capacity(spec.msgs.len() + spec.msgs.len() / 8);
    // Odd number of enclosing `Dual`s: directions are written flipped.
    let mut flipped = false;
    for m in &spec.msgs {
        if rng.gen_range(0..12) == 0 {
            tokens.push(Token::Dual);
            flipped = !flipped;
        }
        let payload = rename(&m.payload, names);
        let mut out = m.out != flipped;
        let payload = if rng.gen_range(0..4) == 0 {
            // `!T.S ≡ ?(-T).S`
            out = !out;
            Type::neg(payload)
        } else {
            present_payload(rng, payload)
        };
        tokens.push(Token::Msg { out, payload });
    }
    let mut acc = match (spec.tail, flipped) {
        (Tail::EndOut, false) => Type::EndOut,
        (Tail::EndOut, true) => Type::EndIn,
        (Tail::Var, false) => Type::var(names.session),
        (Tail::Var, true) => Type::dual(Type::var(names.session)),
    };
    for token in tokens.into_iter().rev() {
        acc = match token {
            Token::Dual => Type::dual(acc),
            Token::Msg { out: true, payload } => Type::output(payload, acc),
            Token::Msg {
                out: false,
                payload,
            } => Type::input(payload, acc),
        };
    }
    if family == Family::Forall {
        acc = Type::forall(
            names.session,
            Kind::Session,
            Type::forall(names.proto, Kind::Protocol, acc),
        );
    }
    acc
}

/// `--A ≡ A`, applied at random to a payload and, inside protocol
/// applications, to their arguments.
fn present_payload(rng: &mut StdRng, t: Type) -> Type {
    let t = match t {
        Type::Proto(name, args) => Type::Proto(
            name,
            args.into_iter().map(|a| present_payload(rng, a)).collect(),
        ),
        t => t,
    };
    if rng.gen_range(0..6) == 0 {
        Type::neg(Type::neg(t))
    } else {
        t
    }
}

fn rename(t: &Type, names: &Names) -> Type {
    match t {
        Type::Var(_) => Type::var(names.proto),
        Type::Pair(a, b) => Type::pair(rename(a, names), rename(b, names)),
        Type::Neg(a) => Type::neg(rename(a, names)),
        Type::Proto(name, args) => {
            Type::Proto(*name, args.iter().map(|a| rename(a, names)).collect())
        }
        t => t.clone(),
    }
}
