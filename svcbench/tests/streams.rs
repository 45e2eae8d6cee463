//! The benchmark's own checks: its by-construction verdicts agree with
//! the checker, and a seed reproduces its stream exactly.
//!
//! Run with `cargo test --release --manifest-path svcbench/Cargo.toml`.

use algst_core::Session;
use algst_server::resolve::type_from_str;
use algst_server::{parse_request, Op};
use algst_svcbench::wire::{parse_reply, Reply};
use algst_svcbench::workload::{build, Kind, Plan, Streams};

/// Large types nest about a thousand levels deep, and interning,
/// normalising and dropping them recurse once per level: run checks on
/// a thread with room for that (the server's crash at 5,000 levels is
/// exactly this recursion on a smaller stack).
fn with_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn checker thread")
        .join()
        .expect("checker thread does not panic");
}

/// Checks every `step`-th body of `streams` against `Session::equivalent`
/// on the types the server would resolve from the request line.
fn check_sample(streams: &Streams, step: usize) -> usize {
    let mut checked = 0;
    for (i, body) in streams.bodies.iter().enumerate().step_by(step) {
        let mut line = Vec::new();
        streams.write_line(1, i as u32, &mut line);
        let line = String::from_utf8(line).unwrap();
        let Op::Equiv { lhs, rhs } = parse_request(line.trim(), 1).op else {
            panic!("body {i} is not an equiv request: {line}");
        };
        let (t, u) = (type_from_str(&lhs).unwrap(), type_from_str(&rhs).unwrap());
        let mut session = Session::new();
        assert_eq!(
            session.equivalent(&t, &u),
            body.expected,
            "body {i}: by-construction verdict disagrees with the checker"
        );
        checked += 1;
    }
    checked
}

#[test]
fn large_types_verdicts_hold_by_construction() {
    with_big_stack(|| {
        // Two full rounds of the 48 (size, family, verdict) strata.
        let streams = build(
            Kind::LargeTypes,
            7,
            Plan {
                closed: 48,
                open: 48,
            },
        );
        assert_eq!(streams.bodies.len(), 96);
        assert_eq!(check_sample(&streams, 1), 96);
        let equivalent = streams.bodies.iter().filter(|b| b.expected).count();
        assert_eq!(equivalent, 48, "verdicts are stratified half and half");
    });
}

#[test]
fn large_types_sides_differ_and_are_unique() {
    with_big_stack(|| {
        let streams = build(
            Kind::LargeTypes,
            3,
            Plan {
                closed: 24,
                open: 24,
            },
        );
        let mut seen = std::collections::HashSet::new();
        for b in &streams.bodies {
            assert!(seen.insert(b.text.clone()), "every request is unique");
            // Line sizes run from hundreds of bytes to tens of KB.
            assert!(b.text.len() < 64 * 1024);
        }
        let sizes: Vec<usize> = streams.bodies.iter().map(|b| b.text.len()).collect();
        assert!(sizes.iter().max().unwrap() > &(20 * sizes.iter().min().unwrap()));
    });
}

#[test]
fn fig10_workloads_verdicts_hold_on_a_sample() {
    with_big_stack(|| {
        let plan = Plan {
            closed: 4_000,
            open: 1_100,
        };
        for kind in [Kind::WarmReplay, Kind::ColdFresh] {
            let streams = build(kind, 5, plan);
            assert!(check_sample(&streams, 97) > 10, "{kind:?}");
        }
    });
}

#[test]
fn a_seed_reproduces_its_stream_exactly() {
    with_big_stack(|| {
        for kind in Kind::ALL {
            let plan = Plan {
                closed: 500,
                open: 1_100,
            };
            let a = build(kind, 11, plan);
            let b = build(kind, 11, plan);
            assert_eq!(a.bodies, b.bodies, "{kind:?} bodies");
            assert_eq!(
                (&a.prime, &a.closed, &a.open, &a.tenants),
                (&b.prime, &b.closed, &b.open, &b.tenants),
                "{kind:?} phases"
            );
            let c = build(kind, 12, plan);
            assert!(
                a.bodies != c.bodies || a.closed != c.closed,
                "{kind:?}: another seed gives another stream"
            );
            assert_eq!(a.closed.iter().map(Vec::len).sum::<usize>(), 500);
            assert_eq!(a.open.iter().map(Vec::len).sum::<usize>(), 1_100);
        }
    });
}

#[test]
fn cold_fresh_routes_each_connection_to_its_own_tenant() {
    let streams = build(
        Kind::ColdFresh,
        2,
        Plan {
            closed: 200,
            open: 1_100,
        },
    );
    for (lane, tenant) in streams.tenants.iter().enumerate() {
        let tenant = tenant.as_deref().expect("cold-fresh names tenants");
        for &body in streams.prime[lane].iter().chain(&streams.closed[lane]) {
            let text = &streams.bodies[body as usize].text;
            assert!(
                text.ends_with(&format!(",\"tenant\":\"{tenant}\"}}")),
                "{text}"
            );
        }
    }
}

#[test]
fn replies_are_read_by_id() {
    assert_eq!(
        parse_reply(br#"{"id":42,"op":"equiv","verdict":true,"warm":false,"ns":8125}"#),
        Some((42, Reply::Verdict(true)))
    );
    assert_eq!(
        parse_reply(br#"{"id":7,"op":"equiv","verdict":false,"warm":true,"ns":1}"#),
        Some((7, Reply::Verdict(false)))
    );
    assert_eq!(
        parse_reply(br#"{"id":3,"op":"error","kind":"throttled","tenant":"t0","error":"x"}"#),
        Some((3, Reply::Throttled))
    );
    assert_eq!(
        parse_reply(br#"{"id":3,"op":"error","error":"lhs: bad"}"#),
        Some((3, Reply::Error))
    );
    assert_eq!(parse_reply(br#"{"op":"equiv"}"#), None);
}
