//! Differential test of the server's one-pass type path: for every
//! string, `intern_str` (parse straight into the store) must return the
//! id `Session::intern` gives the reference path's tree
//! (`type_from_str`), in the same session, and on a malformed string
//! the same error text.

use algst_core::kind::Kind;
use algst_core::Session;
use algst_gen::workload::{cold_heavy_workload, tenant_suites};
use algst_gen::{
    build_suite, equivalent_variant, generate_instance, nonequivalent_mutant, GenConfig, SuiteKind,
};
use algst_server::resolve::{intern_str, type_from_str};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts the two paths agree on `src` in `session`.
fn agree(session: &mut Session, src: &str) {
    match type_from_str(src) {
        Ok(t) => {
            let one_pass = intern_str(session, src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
            assert_eq!(one_pass, session.intern(&t), "{src:?}");
        }
        Err(reference) => assert_eq!(intern_str(session, src), Err(reference), "{src:?}"),
    }
}

#[test]
fn fig10_suites() {
    let mut s = Session::new();
    for kind in [SuiteKind::Equivalent, SuiteKind::NonEquivalent] {
        for case in &build_suite(kind, 324, 1).cases {
            agree(&mut s, &case.instance.ty.to_string());
            agree(&mut s, &case.other.to_string());
        }
    }
}

#[test]
fn cold_heavy_tenant_workloads() {
    let mut s = Session::new();
    for suites in tenant_suites(2, 60, 3) {
        let w = cold_heavy_workload(&[&suites[0], &suites[1]], 400, 750, 5);
        for pair in &w.pairs {
            agree(&mut s, &pair.lhs.to_string());
            agree(&mut s, &pair.rhs.to_string());
        }
    }
}

#[test]
fn conform_generator_types() {
    let mut s = Session::new();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..300 {
        let size = rng.gen_range(4..72);
        let inst = generate_instance(&mut rng, &GenConfig::sized(size));
        let variant = equivalent_variant(&mut rng, &inst.decls, &inst.ty, Kind::Value, 8);
        let mutant = nonequivalent_mutant(&mut rng, &inst.ty).expect("mutable spine");
        for t in [&inst.ty, &variant, &mutant] {
            agree(&mut s, &t.to_string());
        }
    }
}

#[test]
fn long_spine() {
    // The one-pass path reads a spine in a loop; the reference path
    // recurses once per message (parse tree, resolve, intern and drop),
    // which needs more than a test thread's default stack.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            agree(
                &mut Session::new(),
                &format!("{}End!", "!Int.".repeat(4000)),
            )
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn binders_and_heads() {
    let mut s = Session::new();
    for src in [
        "forall (s:S). forall (s:S). s",
        "forall (s:S). forall (r:S). !s.r",
        "(Repeat) Int",
        "(Int) Bool",
        "Int Bool",
        "((Repeat) (Int)) Bool",
        "((Repeat)) (Int)",
        "Unit",
        "Dual (Unit)",
        "Dual (Dual End!)",
        "-(-Int)",
        "!- -Int.End!",
        "(Unit, Char) -> String",
        "forall (s:S). !s.End! -> forall (r:S). ?r.s",
        "!Int.End!\n-> End?",
        "Repeat\nInt",
    ] {
        agree(&mut s, src);
    }
}

#[test]
fn extracted_forall_display_keeps_binder_hints() {
    let src = "forall (chan:S). !Int.chan -> forall (x:T). (x, chan)";
    let mut one = Session::new();
    let mut reference = Session::new();
    let a = intern_str(&mut one, src).unwrap();
    let b = reference.intern(&type_from_str(src).unwrap());
    let shown = one.extract(a).to_string();
    assert_eq!(shown, reference.extract(b).to_string());
    assert!(shown.contains("chan") && shown.contains("(x:T)"), "{shown}");
    agree(&mut one, &shown);
    assert_eq!(intern_str(&mut one, &shown), Ok(a));
}

#[test]
fn malformed_corpus() {
    let mut s = Session::new();
    for src in [
        "",
        "   ",
        "(",
        "(Int",
        "Int)",
        "((Int, Bool)",
        "!Int.End!)",
        "forall (s:Q). s",
        "forall (s:SS). s",
        "forall (s). s",
        "!Int.End! End?",
        "Int Bool )",
        "(Repeat Int) Bool",
        "Unit Int",
        "!Int.",
        "!Int End!",
        "$",
        "!Int.$",
        "(Int $",
        "!Int.$ (",
        "{- unterminated",
        "'c'",
        "Int ⊗ Bool",
        "forall (s:S). !s.forall (r:S). r",
    ] {
        let before = s.stats().nodes;
        let err = type_from_str(src).expect_err(src);
        assert_eq!(intern_str(&mut s, src), Err(err), "{src:?}");
        assert_eq!(s.stats().nodes, before, "{src:?} left nodes behind");
    }
    // Nor do they reach the store with the next commit.
    let mut clean = Session::new();
    intern_str(&mut s, "forall (s:S). !Repeat Int.s").unwrap();
    intern_str(&mut clean, "forall (s:S). !Repeat Int.s").unwrap();
    assert_eq!(s.stats().nodes, clean.stats().nodes);
}

#[test]
fn stale_worker_reruns_and_agrees() {
    let mut s = Session::new();
    let kept = intern_str(&mut s, "!Int.End!").unwrap();
    s.store().compact(&[kept]);
    // The first commit after the compaction finds a newer epoch: the
    // worker goes stale and the operation runs again on its own.
    let src = "forall (s:S). ?Bool.!Char.s -> Repeat s";
    let stale = intern_str(&mut s, src).unwrap();
    assert!(s.is_stale());
    assert_eq!(stale, s.intern(&type_from_str(src).unwrap()));
    assert_eq!(
        intern_str(&mut s, "?Bool.End?"),
        intern_str(&mut s, "?Bool.End?")
    );
    assert!(s.repin());
    let fresh = intern_str(&mut s, src).unwrap();
    assert!(!fresh.is_overlay());
    assert_eq!(fresh, s.intern(&type_from_str(src).unwrap()));
}
