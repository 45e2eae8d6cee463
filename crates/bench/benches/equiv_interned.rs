//! The hash-consed store's equivalence hot path, cold vs. warm.
//!
//! * `cold_store` — fresh [`Session`] per query: intern both sides,
//!   normalize, compare. First-contact cost, linear in the type size.
//! * `cold_tree` — the pre-store reference implementation: tree
//!   normalization (`nrm⁺`) plus α-comparison. Kept as the baseline the
//!   store's cold path is measured against.
//! * `warm` — steady state on a primed store: both sides already
//!   normalized, so a query is two memo lookups and a `TypeId`
//!   comparison. This must be flat across sizes — if it starts scaling
//!   with `n`, the memoization invariant broke.

use algst_core::normalize::nrm_pos;
use algst_core::types::Type;
use algst_core::Session;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// A session spine of `n` messages wrapped in an even stack of `Dual`s,
/// paired with a conversion-variant partner — equivalent but not
/// syntactically equal, so normalization has real work to do cold.
fn pair(n: usize) -> (Type, Type) {
    let mut t = Type::input(Type::int(), Type::var("endvar"));
    for i in 0..n {
        let payload = match i % 3 {
            0 => Type::int(),
            1 => Type::neg(Type::bool()),
            _ => Type::proto("EIBench", vec![Type::neg(Type::neg(Type::char()))]),
        };
        t = if i % 2 == 0 {
            Type::output(payload, t)
        } else {
            Type::input(payload, t)
        };
    }
    let u = Type::dual(Type::dual(t.clone()));
    (t, u)
}

fn bench_equiv_interned(c: &mut Criterion) {
    for n in [16usize, 64, 256, 1024] {
        let (t, u) = pair(n);
        let nodes = t.node_count() + u.node_count();

        let mut group = c.benchmark_group("equiv_interned");
        group.sample_size(30);
        group.throughput(Throughput::Elements(nodes as u64));

        group.bench_with_input(BenchmarkId::new("cold_store", nodes), &(&t, &u), |b, _| {
            b.iter(|| {
                let mut s = Session::new();
                let a = s.intern(black_box(&t));
                let bb = s.intern(black_box(&u));
                black_box(s.equivalent_ids(a, bb))
            })
        });

        group.bench_with_input(BenchmarkId::new("cold_tree", nodes), &(&t, &u), |b, _| {
            b.iter(|| black_box(nrm_pos(black_box(&t)).alpha_eq(&nrm_pos(black_box(&u)))))
        });

        // Prime once outside the timed region, then measure steady state.
        let mut warm_store = Session::new();
        let a = warm_store.intern(&t);
        let bb = warm_store.intern(&u);
        assert!(warm_store.equivalent_ids(a, bb));
        group.bench_with_input(BenchmarkId::new("warm", nodes), &(a, bb), |bench, _| {
            bench.iter(|| black_box(warm_store.equivalent_ids(black_box(a), black_box(bb))))
        });

        group.finish();
    }
}

criterion_group!(benches, bench_equiv_interned);
criterion_main!(benches);
