//! The three workloads and their request streams.
//!
//! A stream is rendered completely before any clock starts: every
//! distinct request body (`,"op":"equiv","lhs":…,"rhs":…}` with its
//! ground-truth verdict) is a string in [`Streams::bodies`], and each
//! connection's phases are lists of body indices. Sending a request
//! writes `{"id":N` and a pre-rendered body, so the client does no type
//! printing on the clock and memory stays proportional to the distinct
//! bodies, not to the requests sent.
//!
//! Why each workload exists:
//!
//! * `warm-replay` — the steady state of a long-running checker: the
//!   648 pairs of the two paper-sized Fig. 10 suites, primed once, then
//!   replayed in random orientation. Type strings hit the parse cache and
//!   pairs the verdict cache (the working set fits the 65,536-entry
//!   worker caches), so time goes to `serve`, `protocol` and `engine`
//!   while `syntax`, `resolve`, `store` and `normalize` do almost nothing.
//! * `cold-fresh` — tenants bringing new protocols, on the routed
//!   `--multi-tenant` path: two tenants over disjoint suites, one per
//!   connection, each sending 750‰ never-seen pairs. Every fresh pair is
//!   parsed, resolved and interned through the store's writer mutex and
//!   a snapshot publish, beside warm reads; the working set outgrows the
//!   worker caches and memory grows with the stream.
//! * `large-types` — the linear-time claim at 10–30× the ~290 nodes of
//!   Fig. 10: pairs of 10² to 4×10³ nodes ([`crate::large`]), each new
//!   to the store. `syntax`, `resolve`, `store` and `normalize` do
//!   per-node work on a few long lines of 10–25 KB, the opposite balance
//!   to `warm-replay`.

use crate::large::{large_pair, FAMILIES, SIZE_BUCKETS};
use algst_core::types::Type;
use algst_gen::suite::{build_suite, SuiteKind, PAPER_SUITE_SIZE};
use algst_gen::workload::{cold_heavy_workload, equiv_workload, tenant_suites, Workload};
use algst_server::json::escape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Connections (and server workers): the reference host's `nproc`.
pub const LANES: usize = 2;

/// Share of never-seen pairs in each `cold-fresh` tenant stream, ‰.
pub const FRESH_PERMILLE: u32 = 750;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    WarmReplay,
    ColdFresh,
    LargeTypes,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WarmReplay, Kind::ColdFresh, Kind::LargeTypes];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmReplay => "warm-replay",
            Kind::ColdFresh => "cold-fresh",
            Kind::LargeTypes => "large-types",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the server runs `--multi-tenant`.
    pub fn multi_tenant(self) -> bool {
        self == Kind::ColdFresh
    }

    /// The open-loop arrival rate, requests per second over both
    /// connections, fixed so later commits are measured at the same
    /// offered load. A third of the seed commit's closed-loop
    /// throughput was the first choice; on `warm-replay` (55,000/s) and
    /// `cold-fresh` (8,000/s) it queued the per-request wake-up chain of
    /// unbatched arrivals on the 2-CPU reference host, and p99 varied
    /// several-fold between segments of one run. These rates keep the
    /// seed's p99 within a few times its p50 on `warm-replay`.
    pub fn open_rate(self) -> f64 {
        match self {
            Kind::WarmReplay => 10_000.0,
            Kind::ColdFresh => 4_000.0,
            Kind::LargeTypes => 75.0,
        }
    }

    /// The seed commit's closed-loop throughput on the reference host,
    /// requests per second: sizes the closed phase.
    fn closed_rate(self) -> f64 {
        match self {
            Kind::WarmReplay => 160_000.0,
            Kind::ColdFresh => 25_000.0,
            Kind::LargeTypes => 220.0,
        }
    }

    /// Seconds of the seed commit's time, per second of `--seconds`,
    /// spent in the closed and open phases. `cold-fresh` and
    /// `large-types` keep their phases short because the server's
    /// memory grows with every fresh pair; `large-types` still spends
    /// most of its time in the open loop, whose low rate needs long to
    /// collect [`MIN_OPEN_SAMPLES`].
    fn phase_shares(self) -> (f64, f64) {
        match self {
            Kind::WarmReplay => (0.6, 0.4),
            Kind::ColdFresh => (0.25, 0.35),
            Kind::LargeTypes => (0.3, 0.75),
        }
    }
}

/// Open-loop requests at least: enough that at least ten samples lie
/// beyond the 99th percentile.
pub const MIN_OPEN_SAMPLES: usize = 1_100;

/// How many requests each phase holds, over all connections. Request
/// counts, not the clock, end the phases, so every commit does the same
/// work and memory figures stay comparable; at the seed commit the run
/// measures for about `--seconds`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    pub closed: usize,
    pub open: usize,
}

impl Plan {
    pub fn for_seconds(kind: Kind, seconds: f64) -> Plan {
        let (closed, open) = kind.phase_shares();
        Plan {
            closed: ((kind.closed_rate() * seconds * closed) as usize).max(LANES),
            open: ((kind.open_rate() * seconds * open) as usize).max(MIN_OPEN_SAMPLES),
        }
    }
}

/// One distinct request: the line after `{"id":N`, and its verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Body {
    pub text: String,
    pub expected: bool,
}

/// A rendered workload: bodies plus each connection's phases.
#[derive(Clone, Debug, Default)]
pub struct Streams {
    pub bodies: Vec<Body>,
    /// Per connection: requests sent before the clock (their responses
    /// end the set-up).
    pub prime: Vec<Vec<u32>>,
    pub closed: Vec<Vec<u32>>,
    pub open: Vec<Vec<u32>>,
    /// Per connection: the `"tenant"` a connection's requests carry
    /// (`cold-fresh` only).
    pub tenants: Vec<Option<String>>,
}

impl Streams {
    /// Writes request `id` of body `body` as one line.
    pub fn write_line(&self, id: u64, body: u32, out: &mut Vec<u8>) {
        use std::io::Write as _;
        write!(out, "{{\"id\":{id}").expect("writing to a Vec cannot fail");
        out.extend_from_slice(self.bodies[body as usize].text.as_bytes());
        out.push(b'\n');
    }

    /// Every request of every phase, for accounting.
    pub fn requests(&self) -> usize {
        [&self.prime, &self.closed, &self.open]
            .iter()
            .flat_map(|phase| phase.iter())
            .map(Vec::len)
            .sum()
    }
}

fn body(lhs: &Type, rhs: &Type, expected: bool, tenant: Option<&str>) -> Body {
    let tenant = tenant
        .map(|t| format!(",\"tenant\":\"{t}\""))
        .unwrap_or_default();
    Body {
        text: format!(
            ",\"op\":\"equiv\",\"lhs\":\"{}\",\"rhs\":\"{}\"{tenant}}}",
            escape(&lhs.to_string()),
            escape(&rhs.to_string()),
        ),
        expected,
    }
}

/// Deals `items` round-robin onto `LANES` connections.
fn deal(items: impl IntoIterator<Item = u32>) -> Vec<Vec<u32>> {
    let mut lanes = vec![Vec::new(); LANES];
    for (i, item) in items.into_iter().enumerate() {
        lanes[i % LANES].push(item);
    }
    lanes
}

/// Renders `kind`'s stream for `seed` and `plan`. The same arguments
/// give byte-identical streams.
pub fn build(kind: Kind, seed: u64, plan: Plan) -> Streams {
    match kind {
        Kind::WarmReplay => warm_replay(seed, plan),
        Kind::ColdFresh => cold_fresh(seed, plan),
        Kind::LargeTypes => large_types(seed, plan),
    }
}

/// Body index of pair `pair` in orientation `flipped` (two bodies per
/// pair, starting at `base`).
fn oriented(base: usize, pair: usize, flipped: bool) -> u32 {
    (base + 2 * pair + usize::from(flipped)) as u32
}

fn render_pairs(w: &Workload, pairs: usize, tenant: Option<&str>, out: &mut Vec<Body>) {
    for p in &w.pairs[..pairs] {
        out.push(body(&p.lhs, &p.rhs, p.expected, tenant));
        out.push(body(&p.rhs, &p.lhs, p.expected, tenant));
    }
}

fn warm_replay(seed: u64, plan: Plan) -> Streams {
    let eq = build_suite(SuiteKind::Equivalent, PAPER_SUITE_SIZE, seed);
    let ne = build_suite(SuiteKind::NonEquivalent, PAPER_SUITE_SIZE, seed + 1);
    let n = 2 * PAPER_SUITE_SIZE;
    let w = equiv_workload(&[&eq, &ne], n + plan.closed + plan.open, seed);
    let mut bodies = Vec::with_capacity(2 * n);
    render_pairs(&w, n, None, &mut bodies);
    let ids: Vec<u32> = w
        .requests
        .iter()
        .map(|r| oriented(0, r.pair, r.flipped))
        .collect();
    Streams {
        bodies,
        prime: deal(ids[..n].iter().copied()),
        closed: deal(ids[n..n + plan.closed].iter().copied()),
        open: deal(ids[n + plan.closed..].iter().copied()),
        tenants: vec![None; LANES],
    }
}

fn cold_fresh(seed: u64, plan: Plan) -> Streams {
    let universes = tenant_suites(LANES, PAPER_SUITE_SIZE, seed);
    let n = 2 * PAPER_SUITE_SIZE;
    let mut s = Streams::default();
    for (t, [eq, ne]) in universes.iter().enumerate() {
        let name = format!("t{t}");
        let closed = plan.closed / LANES + usize::from(t < plan.closed % LANES);
        let open = plan.open / LANES + usize::from(t < plan.open % LANES);
        let w = cold_heavy_workload(
            &[eq, ne],
            closed + open,
            FRESH_PERMILLE,
            seed + 17 * t as u64,
        );
        let base = s.bodies.len();
        render_pairs(&w, n, Some(&name), &mut s.bodies);
        let fresh_base = s.bodies.len();
        for p in &w.pairs[n..] {
            s.bodies.push(body(&p.lhs, &p.rhs, p.expected, Some(&name)));
        }
        let ids: Vec<u32> = w
            .requests
            .iter()
            .map(|r| {
                if r.pair < n {
                    oriented(base, r.pair, r.flipped)
                } else {
                    (fresh_base + r.pair - n) as u32
                }
            })
            .collect();
        s.prime
            .push((0..n).map(|p| oriented(base, p, false)).collect());
        s.closed.push(ids[..closed].to_vec());
        s.open.push(ids[closed..].to_vec());
        s.tenants.push(Some(name));
    }
    s
}

fn large_types(seed: u64, plan: Plan) -> Streams {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = plan.closed + plan.open;
    // Stratified: every round of 48 requests holds each (size bucket,
    // family, verdict) once, in seeded order, so the work in a phase
    // barely depends on the seed.
    let mut combos = Vec::new();
    for bucket in 0..SIZE_BUCKETS.len() {
        for family in FAMILIES {
            for expected in [true, false] {
                combos.push((bucket, family, expected));
            }
        }
    }
    let mut bodies = Vec::with_capacity(total);
    for i in 0..total {
        let k = i % combos.len();
        if k == 0 {
            for j in (1..combos.len()).rev() {
                combos.swap(j, rng.gen_range(0..=j));
            }
        }
        let (bucket, family, expected) = combos[k];
        let pair = large_pair(&mut rng, i as u64, family, bucket, expected);
        bodies.push(body(&pair.lhs, &pair.rhs, pair.expected, None));
    }
    let ids = (0..total as u32).collect::<Vec<_>>();
    Streams {
        bodies,
        prime: vec![Vec::new(); LANES],
        closed: deal(ids[..plan.closed].iter().copied()),
        open: deal(ids[plan.closed..].iter().copied()),
        tenants: vec![None; LANES],
    }
}
