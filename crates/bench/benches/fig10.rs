//! Criterion companion to the `fig10` harness: AlgST vs. FreeST type
//! equivalence at fixed instance sizes (one group per size), on both the
//! equivalent and non-equivalent suites.
//!
//! The full, paper-shaped sweep with per-query timeouts lives in the
//! `fig10` binary; this bench gives statistically robust point samples
//! at sizes where FreeST still terminates.

use algst_core::Session;
use algst_gen::generate::{generate_instance, GenConfig};
use algst_gen::instance::TestCase;
use algst_gen::mutate::{equivalent_variant, nonequivalent_mutant};
use algst_gen::to_grammar::to_grammar;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use freest::{bisimilar, BisimResult, Grammar};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn case_of_size(size: usize, equivalent_pair: bool, seed: u64) -> TestCase {
    let mut rng = StdRng::seed_from_u64(seed);
    // Point samples without the exponential-norm family — the timeout
    // behaviour is exercised by the `fig10` harness binary; Criterion
    // needs cases that terminate.
    let mut cfg = GenConfig::sized(size);
    cfg.deep_norms = 0.0;
    let instance = generate_instance(&mut rng, &cfg);
    let other = if equivalent_pair {
        equivalent_variant(
            &mut rng,
            &instance.decls,
            &instance.ty,
            algst_core::kind::Kind::Value,
            10,
        )
    } else {
        let m = nonequivalent_mutant(&mut rng, &instance.ty).expect("mutable");
        equivalent_variant(
            &mut rng,
            &instance.decls,
            &m,
            algst_core::kind::Kind::Value,
            6,
        )
    };
    TestCase {
        instance,
        other,
        equivalent: equivalent_pair,
    }
}

fn bench_fig10(c: &mut Criterion) {
    for (suite, is_eq) in [("equivalent", true), ("nonequivalent", false)] {
        let mut group = c.benchmark_group(format!("fig10/{suite}"));
        group.sample_size(20);
        for size in [10usize, 25, 45, 70, 100] {
            let case = case_of_size(size, is_eq, 40 + size as u64);
            let nodes = case.node_count();

            // Explicitly *cold*: a fresh session per query, so this stays
            // a first-contact measurement now that `equivalent()`
            // memoizes through the shared store. The warm (amortized)
            // path is benchmarked in `equiv_interned`.
            group.bench_with_input(BenchmarkId::new("algst", nodes), &case, |b, case| {
                b.iter(|| {
                    let mut session = Session::new();
                    let a = session.intern(black_box(&case.instance.ty));
                    let bb = session.intern(black_box(&case.other));
                    black_box(session.equivalent_ids(a, bb))
                })
            });

            // Guard FreeST with a budget so a pathological case cannot
            // stall the whole bench run; budget exhaustion would show up
            // as suspiciously fast, so only bench decided cases.
            let budget: u64 = 30_000_000;
            let decided = {
                let mut s = Session::new();
                let mut g = Grammar::new();
                let w1 = to_grammar(&mut s, &case.instance.decls, &case.instance.ty, &mut g)
                    .expect("translatable");
                let w2 = to_grammar(&mut s, &case.instance.decls, &case.other, &mut g)
                    .expect("translatable");
                bisimilar(&mut g, &w1, &w2, budget) != BisimResult::Budget
            };
            if decided {
                // One session for all iterations: payload normalization
                // stays warm, matching how suite translation behaves.
                let mut s = Session::new();
                group.bench_with_input(BenchmarkId::new("freest", nodes), &case, |b, case| {
                    b.iter(|| {
                        let mut g = Grammar::new();
                        let w1 =
                            to_grammar(&mut s, &case.instance.decls, &case.instance.ty, &mut g)
                                .expect("translatable");
                        let w2 = to_grammar(&mut s, &case.instance.decls, &case.other, &mut g)
                            .expect("translatable");
                        black_box(bisimilar(&mut g, &w1, &w2, budget))
                    })
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_fig10);
criterion_main!(benches);
