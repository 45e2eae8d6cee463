//! Shared measurement machinery for the Figure 10 harness and the
//! Criterion benchmarks.

use algst_core::store::TypeId;
use algst_core::Session;
use algst_gen::instance::TestCase;
use algst_gen::to_grammar::to_grammar;
use freest::{bisimilar_with, BisimResult, Grammar};
use std::time::{Duration, Instant};

/// Per-case measurement, one row of the Figure 10 scatter plots.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub case_id: usize,
    /// AlgST AST nodes — the x-axis.
    pub nodes: usize,
    /// AlgST linear-time equivalence check, **cold**: a fresh
    /// [`Session`] per query (the store the server uses), so the time
    /// covers interning, normalization and comparison from scratch.
    pub algst: Duration,
    /// The same query, **warm**: repeated against a store that has
    /// already normalized both sides. This is the amortized cost a
    /// type-checking server pays for everything after first contact —
    /// two memo lookups and a `TypeId` comparison, no allocation, no
    /// traversal.
    pub algst_warm: Duration,
    /// FreeST bisimulation check (None if it timed out).
    pub freest: Option<Duration>,
    /// Both checkers agreed with the ground truth (timeouts count as
    /// agreement, as in the paper, which plots them separately).
    pub agreed: bool,
}

/// Measures one test case.
///
/// `ids` are `case`'s two sides interned in `session` (suites built by
/// `algst_gen::suite::build_suite` provide both via their own session).
/// The AlgST checks are microseconds-scale (nanoseconds warm), so they
/// are repeated adaptively and averaged; the FreeST check runs once
/// under `timeout`.
pub fn measure_case(
    case_id: usize,
    case: &TestCase,
    ids: (TypeId, TypeId),
    session: &mut Session,
    timeout: Duration,
) -> Measurement {
    let nodes = case.node_count();

    // --- AlgST, cold ---------------------------------------------------
    // A fresh session per repetition: every query pays the full linear
    // intern + normalize + compare, like a first-contact request.
    let (algst, algst_verdict) =
        time_adaptive(|| Session::new().equivalent(&case.instance.ty, &case.other));

    // --- AlgST, warm ---------------------------------------------------
    // Prime the suite session once, then measure the steady state.
    let warm_verdict_once = session.equivalent_ids(ids.0, ids.1);
    let (algst_warm, warm_verdict) = time_adaptive(|| session.equivalent_ids(ids.0, ids.1));
    debug_assert_eq!(warm_verdict_once, warm_verdict);

    // --- FreeST --------------------------------------------------------
    // The translation uses the linear-space grammar rendering (see
    // `algst_gen::to_grammar`); timing covers grammar construction plus
    // the bisimilarity query, as in the paper.
    let start = Instant::now();
    let mut g = Grammar::new();
    let w1 = to_grammar(session, &case.instance.decls, &case.instance.ty, &mut g)
        .expect("suite cases are translatable");
    let w2 = to_grammar(session, &case.instance.decls, &case.other, &mut g)
        .expect("suite cases are translatable");
    let result = bisimilar_with(&mut g, &w1, &w2, u64::MAX, Some(timeout));
    let freest_elapsed = start.elapsed();

    let (freest, freest_agrees) = match result {
        BisimResult::Equivalent => (Some(freest_elapsed), case.equivalent),
        BisimResult::NotEquivalent => (Some(freest_elapsed), !case.equivalent),
        BisimResult::Budget => (None, true),
    };

    Measurement {
        case_id,
        nodes,
        algst,
        algst_warm,
        freest,
        agreed: algst_verdict == case.equivalent
            && warm_verdict == case.equivalent
            && freest_agrees,
    }
}

/// Runs `f` repeatedly, growing the repetition count until the batch is
/// clock-resolvable, and returns (mean duration per call, last result).
fn time_adaptive<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut reps: u32 = 1;
    loop {
        let start = Instant::now();
        let mut out = f();
        for _ in 1..reps {
            out = f();
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(2) || reps >= 1 << 20 {
            return (elapsed / reps, out);
        }
        reps *= 4;
    }
}

/// Aggregate statistics over one suite's rows: the one-number-per-PR
/// trajectory view (median, tail, and a least-squares ns-per-node slope
/// for the linear-time claim).
#[derive(Clone, Debug)]
pub struct SuiteStats {
    pub cases: usize,
    pub algst_median_ms: f64,
    pub algst_p95_ms: f64,
    pub warm_median_ms: f64,
    pub warm_p95_ms: f64,
    /// Median over decided (non-timeout) FreeST queries, if any.
    pub freest_median_ms: Option<f64>,
    pub freest_timeouts: usize,
    /// Least-squares (through the origin) slope of cold AlgST time vs.
    /// node count, in nanoseconds per node. Theorem 3 says this should
    /// stay flat as sizes grow; across PRs it is the single number to
    /// watch for hot-path regressions.
    pub algst_ns_per_node: f64,
    pub agreements: usize,
}

/// Computes [`SuiteStats`] for a set of measurements.
pub fn suite_stats(rows: &[Measurement]) -> SuiteStats {
    fn percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let ix = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[ix]
    }
    let mut algst: Vec<f64> = rows.iter().map(|r| ms(r.algst)).collect();
    algst.sort_by(|a, b| a.total_cmp(b));
    let mut warm: Vec<f64> = rows.iter().map(|r| ms(r.algst_warm)).collect();
    warm.sort_by(|a, b| a.total_cmp(b));
    let mut freest: Vec<f64> = rows.iter().filter_map(|r| r.freest.map(ms)).collect();
    freest.sort_by(|a, b| a.total_cmp(b));

    // Least squares through the origin: slope = Σ(x·y) / Σ(x²).
    let (mut xy, mut xx) = (0.0f64, 0.0f64);
    for r in rows {
        let x = r.nodes as f64;
        let y = r.algst.as_nanos() as f64;
        xy += x * y;
        xx += x * x;
    }
    SuiteStats {
        cases: rows.len(),
        algst_median_ms: percentile(&algst, 0.5),
        algst_p95_ms: percentile(&algst, 0.95),
        warm_median_ms: percentile(&warm, 0.5),
        warm_p95_ms: percentile(&warm, 0.95),
        freest_median_ms: if freest.is_empty() {
            None
        } else {
            Some(percentile(&freest, 0.5))
        },
        freest_timeouts: rows.iter().filter(|r| r.freest.is_none()).count(),
        algst_ns_per_node: if xx > 0.0 { xy / xx } else { 0.0 },
        agreements: rows.iter().filter(|r| r.agreed).count(),
    }
}

/// Formats a duration in fractional milliseconds (log-scale friendly,
/// like the paper's y-axis).
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use algst_gen::suite::{build_suite, SuiteKind};

    #[test]
    fn warm_queries_match_cold_verdicts_and_are_not_slower() {
        let mut suite = build_suite(SuiteKind::Equivalent, 6, 11);
        let ids = suite.ids.clone();
        let mut rows = Vec::new();
        for (i, case) in suite.cases.iter().enumerate() {
            let m = measure_case(
                i,
                case,
                ids[i],
                &mut suite.session,
                Duration::from_millis(200),
            );
            assert!(m.agreed, "case {i} disagreed");
            rows.push(m);
        }
        // The warm path is a table lookup; across a whole suite its
        // median must not exceed the cold median.
        let stats = suite_stats(&rows);
        assert!(
            stats.warm_median_ms <= stats.algst_median_ms,
            "warm {} > cold {}",
            stats.warm_median_ms,
            stats.algst_median_ms
        );
        assert!(stats.algst_ns_per_node >= 0.0);
        assert_eq!(stats.cases, 6);
    }
}
