//! The traced run's per-layer ledger.
//!
//! The ledger replays the wire run's request stream (priming, then the
//! closed-loop phase until a time budget or 100,000 requests run out)
//! in-process, calling each layer's public function from outside and
//! recording a span around every call. It calls a layer only where the engine would:
//! type strings are parsed, resolved and interned on first sight, ids
//! normalised on first sight, verdicts computed for first-sight pairs
//! (all behind caches cleared on reaching the engine's 65,536-entry
//! cap), and `Session::publish` runs once per batch. A second pass
//! replays the same batches through the engine's worker pool from two
//! submitting threads, like the two connections, and on `cold-fresh`
//! through the tenant registry first.
//!
//! | layer | public function timed |
//! |---|---|
//! | `protocol` | `parse_request`, `Response::to_json` |
//! | `syntax` | `parse_type` |
//! | `resolve` | `type_from_str` minus `parse_type` on the same string |
//! | `store` | `Session::intern`, `Session::publish` |
//! | `normalize` | `Session::nrm` |
//! | `equiv` | `Session::equivalent_ids` (normal forms already memoised) |
//! | `engine` | `Engine::submit` to reply, as wall time per request |
//! | `tenant` | `TenantRegistry::{view, tenant, admit}`, `TenantHandle::complete` |
//!
//! `TenantRegistry::process` is those tenant steps around
//! `Engine::process`; the ledger calls them one by one, so the tenant
//! layer's own time is measured rather than subtracted, and so batches
//! can be pipelined.
//!
//! Spans stay in memory and are written to
//! `.svcbench/spans-<workload>.tsv` when the run ends.

use crate::large::SIZE_BUCKETS;
use crate::stats::{fit, Fit};
use crate::wire::WireSpan;
use crate::workload::{Kind, Streams, LANES};
use algst_core::store::TypeId;
use algst_core::Session;
use algst_server::engine::BatchReply;
use algst_server::resolve::type_from_str;
use algst_server::{
    parse_request, Engine, ObsOptions, Op, Request, Response, TenantConfig, TenantHandle,
    TenantRegistry,
};
use algst_syntax::parse_type;
use crossbeam::channel::{bounded, Receiver};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server's connection reader consumes its socket in chunks of
/// this many bytes and submits the complete lines of each chunk as one
/// batch; the ledger cuts its batches the same way.
const READ_CHUNK: usize = 8192;

/// The ledger measures at most this many requests (or the time budget),
/// which bounds the span file to tens of megabytes.
const MAX_MEASURED: u64 = 100_000;

/// Entry cap of the ledger's caches, as the engine's worker caches.
const CACHE_CAP: usize = 65_536;

/// Span names (the TSV's `name` column).
const NAMES: [&str; 14] = [
    "batch",
    "request",
    "protocol.decode",
    "syntax.parse_type",
    "resolve.type_from_str",
    "store.intern",
    "normalize.nrm",
    "equiv.equivalent_ids",
    "protocol.encode",
    "store.publish",
    "engine.batch",
    "tenant.admit",
    "tenant.complete",
    "wire.request",
];

#[derive(Clone, Copy)]
#[repr(u8)]
enum Name {
    Batch,
    Request,
    Decode,
    Parse,
    TypeFromStr,
    Intern,
    Nrm,
    Equiv,
    Encode,
    Publish,
    /// `Engine::submit` to the batch's reply: queueing plus service.
    EngineBatch,
    TenantAdmit,
    TenantComplete,
    Wire,
}

/// One span: a layer call's start and end (ns since the run's origin),
/// the span that caused it, and the request it served. A request's
/// spans share `req` (`lane << 32 | wire id`); batch-level spans carry
/// their first request's.
#[derive(Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    req: u64,
    start: u64,
    end: u64,
}

const ROOT: u32 = u32::MAX;

struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    fn open(&mut self, name: Name, parent: u32, req: u64) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            req,
            start,
            end: start,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `i`; returns its duration in ns.
    fn close(&mut self, i: u32) -> u64 {
        let end = self.now();
        let s = &mut self.spans[i as usize];
        s.end = end;
        end - s.start
    }

    /// Times `f` as a span of `name`.
    fn time<T>(&mut self, name: Name, parent: u32, req: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let i = self.open(name, parent, req);
        let out = f();
        (out, self.close(i))
    }
}

/// One store's worth of ledger state: a fresh session plus the caches
/// the engine keeps in front of it (a parsed string's id and node count,
/// verdicts by id pair, ids already normalised).
#[derive(Default)]
struct Store {
    session: Session,
    parses: HashMap<String, (TypeId, u64)>,
    verdicts: HashMap<(TypeId, TypeId), bool>,
    normalised: HashSet<TypeId>,
}

/// Per-layer sums over the measured requests.
#[derive(Default)]
struct Sums {
    requests: u64,
    wrong: u64,
    decode: u64,
    encode: u64,
    parse: u64,
    type_from_str: u64,
    parsed_nodes: u64,
    intern: u64,
    nrm: u64,
    nrm_nodes: u64,
    equiv: u64,
    publish: u64,
    /// Large-types linearity samples: (nodes, parse, resolve, intern)
    /// per first-sight string and (nodes, nrm) per first-sight id.
    strings: Vec<(u64, u64, u64, u64)>,
    nrms: Vec<(u64, u64)>,
}

/// The ledger's results: `(name, value, unit)` metrics, the engine's
/// wall time per request (for the `serve` layer), the number of
/// requests measured, wrong verdicts seen, and a printable report.
pub struct LayerMetrics {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub engine_ns_per_req: f64,
    pub requests: u64,
    pub wrong: u64,
    pub report: String,
}

/// A request as the ledger replays it: its span id and line.
struct Item {
    req: u64,
    line: String,
    expected: bool,
}

/// The stream as batches, in the order the ledger replays them: each
/// lane's requests cut into batches of as many mean-length lines as fit
/// in one [`READ_CHUNK`] (at least one, at most the closed loop's
/// depth), lanes alternating.
fn batches(streams: &Streams, phase: &[Vec<u32>], first_id: u64) -> Vec<(usize, Vec<Item>)> {
    let mean_line = streams
        .bodies
        .iter()
        .map(|b| b.text.len() + 12)
        .sum::<usize>()
        / streams.bodies.len().max(1);
    let batch = (READ_CHUNK / mean_line.max(1)).clamp(1, crate::wire::DEPTH);
    let mut per_lane: Vec<Vec<Vec<Item>>> = Vec::new();
    for (lane, reqs) in phase.iter().enumerate() {
        let mut out = Vec::new();
        for (k, chunk) in reqs.chunks(batch).enumerate() {
            out.push(
                chunk
                    .iter()
                    .enumerate()
                    .map(|(j, &body)| {
                        let id = first_id + (k * batch + j) as u64;
                        let mut line = Vec::new();
                        streams.write_line(id, body, &mut line);
                        line.pop();
                        Item {
                            req: (lane as u64) << 32 | id,
                            line: String::from_utf8(line).expect("request lines are UTF-8"),
                            expected: streams.bodies[body as usize].expected,
                        }
                    })
                    .collect(),
            );
        }
        per_lane.push(out);
    }
    let rounds = per_lane.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    let mut lanes: Vec<_> = per_lane.into_iter().map(Vec::into_iter).collect();
    for _ in 0..rounds {
        for (lane, it) in lanes.iter_mut().enumerate() {
            if let Some(b) = it.next() {
                out.push((lane, b));
            }
        }
    }
    out
}

/// Replays one batch through the layers against `store`. With `sums`,
/// records spans and accumulates; without, only warms the state (the
/// priming replay).
fn layer_batch(store: &mut Store, spans: &mut Spans, batch: &[Item], mut sums: Option<&mut Sums>) {
    let b = spans.open(Name::Batch, ROOT, batch[0].req);
    for item in batch {
        let r = spans.open(Name::Request, b, item.req);
        let id = item.req & 0xffff_ffff;
        let (request, decode_ns) =
            spans.time(Name::Decode, r, item.req, || parse_request(&item.line, id));
        let Request {
            op: Op::Equiv { lhs, rhs },
            ..
        } = request
        else {
            panic!("the ledger replays equiv requests only");
        };
        let mut ids = Vec::with_capacity(2);
        let mut step = Sums::default();
        for src in [&lhs, &rhs] {
            if let Some(&(tid, _)) = store.parses.get(src.as_str()) {
                ids.push(tid);
                continue;
            }
            let (parsed, parse_ns) = spans.time(Name::Parse, r, item.req, || parse_type(src));
            drop(parsed);
            let (ty, tfs_ns) = spans.time(Name::TypeFromStr, r, item.req, || type_from_str(src));
            let ty = ty.expect("workload types parse");
            let nodes = ty.node_count() as u64;
            let session = &mut store.session;
            let (tid, intern_ns) = spans.time(Name::Intern, r, item.req, || session.intern(&ty));
            drop(ty);
            if store.parses.len() >= CACHE_CAP {
                store.parses.clear();
            }
            store.parses.insert(src.clone(), (tid, nodes));
            step.parse += parse_ns;
            step.type_from_str += tfs_ns;
            step.parsed_nodes += nodes;
            step.intern += intern_ns;
            step.strings
                .push((nodes, parse_ns, tfs_ns.saturating_sub(parse_ns), intern_ns));
            ids.push(tid);
        }
        for (&tid, src) in ids.iter().zip([&lhs, &rhs]) {
            if store.normalised.contains(&tid) {
                continue;
            }
            let session = &mut store.session;
            let (_, nrm_ns) = spans.time(Name::Nrm, r, item.req, || session.nrm(tid));
            if store.normalised.len() >= CACHE_CAP {
                store.normalised.clear();
            }
            store.normalised.insert(tid);
            let nodes = store.parses.get(src.as_str()).map_or(0, |&(_, n)| n);
            step.nrm += nrm_ns;
            step.nrm_nodes += nodes;
            step.nrms.push((nodes, nrm_ns));
        }
        let key = if ids[0] <= ids[1] {
            (ids[0], ids[1])
        } else {
            (ids[1], ids[0])
        };
        let (verdict, warm) = match store.verdicts.get(&key) {
            Some(&v) => (v, true),
            None => {
                let session = &mut store.session;
                let (v, ns) = spans.time(Name::Equiv, r, item.req, || {
                    session.equivalent_ids(key.0, key.1)
                });
                step.equiv += ns;
                if store.verdicts.len() >= CACHE_CAP {
                    store.verdicts.clear();
                }
                store.verdicts.insert(key, v);
                (v, false)
            }
        };
        let response = Response::Equiv {
            id,
            verdict,
            warm,
            ns: 0,
        };
        let (_, encode_ns) = spans.time(Name::Encode, r, item.req, || response.to_json());
        spans.close(r);
        if let Some(sums) = sums.as_deref_mut() {
            sums.requests += 1;
            sums.wrong += u64::from(verdict != item.expected);
            sums.decode += decode_ns;
            sums.encode += encode_ns;
            sums.parse += step.parse;
            sums.type_from_str += step.type_from_str;
            sums.parsed_nodes += step.parsed_nodes;
            sums.intern += step.intern;
            sums.nrm += step.nrm;
            sums.nrm_nodes += step.nrm_nodes;
            sums.equiv += step.equiv;
            sums.strings.extend(step.strings);
            sums.nrms.extend(step.nrms);
        }
    }
    let session = &mut store.session;
    let (_, publish_ns) = spans.time(Name::Publish, b, batch[0].req, || session.publish());
    spans.close(b);
    if let Some(sums) = sums {
        sums.publish += publish_ns;
    }
}

/// Runs the ledger for `kind` over `streams` (see the module docs).
/// `wire_spans` are the traced closed-loop spans, written out with the
/// ledger's; `origin` is their common clock.
pub fn run(
    kind: Kind,
    streams: &Streams,
    budget: Duration,
    wire_spans: &[WireSpan],
    origin: Instant,
) -> Result<LayerMetrics, String> {
    let prime = batches(streams, &streams.prime, 1);
    let first = 1 + streams.prime.iter().map(Vec::len).max().unwrap_or(0) as u64;
    let mut closed = batches(streams, &streams.closed, first);
    let tenants = kind.multi_tenant();
    let mut spans = Spans {
        origin,
        spans: Vec::new(),
    };
    for w in wire_spans {
        spans.spans.push(Span {
            name: Name::Wire,
            parent: ROOT,
            req: (w.lane as u64) << 32 | w.id,
            start: w.start_ns,
            end: w.end_ns,
        });
    }
    let wire_count = spans.spans.len();

    // Layer pass: one store per tenant (the routed server gives each
    // tenant its own), or one shared by both lanes.
    let mut stores: Vec<Store> = (0..if tenants { LANES } else { 1 })
        .map(|_| Store::default())
        .collect();
    let store_of = |lane: usize| if tenants { lane } else { 0 };
    for (lane, batch) in &prime {
        layer_batch(&mut stores[store_of(*lane)], &mut spans, batch, None);
        // The priming replay leaves no spans behind.
        spans.spans.truncate(wire_count);
    }
    let mut sums = Sums::default();
    let start = Instant::now();
    let mut measured = 0;
    for (lane, batch) in &closed {
        if start.elapsed() >= budget || sums.requests >= MAX_MEASURED {
            break;
        }
        layer_batch(
            &mut stores[store_of(*lane)],
            &mut spans,
            batch,
            Some(&mut sums),
        );
        measured += 1;
    }
    closed.truncate(measured);
    drop(stores);

    // Engine pass (and, routed, the tenant pass): the same batches.
    let (engine_ns, tenant_self_ns, tenant_locks, engine_wrong) =
        engine_pass(tenants, &prime, &closed, &mut spans);
    let n = sums.requests.max(1) as f64;
    let per_node = |ns: u64, nodes: u64| {
        if nodes == 0 {
            0.0
        } else {
            ns as f64 / nodes as f64
        }
    };
    let resolve_ns = sums.type_from_str.saturating_sub(sums.parse);
    let engine_ns_per_req = engine_ns / n;
    let mut metrics = vec![
        ("protocol.decode_ns_per_req", sums.decode as f64 / n, "ns"),
        ("protocol.encode_ns_per_req", sums.encode as f64 / n, "ns"),
        ("syntax.parse_ns_per_req", sums.parse as f64 / n, "ns"),
        (
            "syntax.parse_ns_per_node",
            per_node(sums.parse, sums.parsed_nodes),
            "ns",
        ),
        ("resolve.ns_per_req", resolve_ns as f64 / n, "ns"),
        (
            "resolve.ns_per_node",
            per_node(resolve_ns, sums.parsed_nodes),
            "ns",
        ),
        ("store.intern_ns_per_req", sums.intern as f64 / n, "ns"),
        (
            "store.intern_ns_per_node",
            per_node(sums.intern, sums.parsed_nodes),
            "ns",
        ),
        ("store.publish_ns_per_req", sums.publish as f64 / n, "ns"),
        ("normalize.nrm_ns_per_req", sums.nrm as f64 / n, "ns"),
        (
            "normalize.nrm_ns_per_node",
            per_node(sums.nrm, sums.nrm_nodes),
            "ns",
        ),
        ("equiv.verdict_ns_per_req", sums.equiv as f64 / n, "ns"),
        ("engine.ns_per_req", engine_ns_per_req, "ns"),
        ("tenant.ns_per_req", tenant_self_ns / n, "ns"),
        ("tenant.lock_acquisitions", tenant_locks as f64, "count"),
    ];
    for ((_, slope, r2), (_, f)) in LINEARITY.iter().zip(linearity_fits(&sums)) {
        metrics.push((slope, f.map_or(0.0, |f| f.slope), "ns"));
        metrics.push((r2, f.map_or(0.0, |f| f.r2), "ratio"));
    }
    let mut report = self_time_report(&spans.spans, sums.requests);
    if kind == Kind::LargeTypes {
        report.push_str(&linearity_report(&sums));
    }
    write_spans(kind, &spans.spans).map_err(|e| format!("writing spans: {e}"))?;
    Ok(LayerMetrics {
        metrics,
        engine_ns_per_req,
        requests: sums.requests,
        wrong: sums.wrong + engine_wrong,
        report,
    })
}

/// Replays `prime` (untimed) then `measured` through the engine, one
/// thread per lane, each keeping a closed-loop depth of requests in
/// flight with `Engine::submit` as a pipelining connection does (one
/// `Engine::process` at a time would leave a worker idle whenever both
/// lanes' batches land on the same one). On a routed workload each
/// batch first passes the tenant registry. Returns the measured phase's
/// engine wall time, the tenant steps' summed time, the registry's lock
/// acquisitions and the wrong verdicts seen.
fn engine_pass(
    tenants: bool,
    prime: &[(usize, Vec<Item>)],
    measured: &[(usize, Vec<Item>)],
    spans: &mut Spans,
) -> (f64, f64, u64, u64) {
    let engine = (!tenants).then(|| Engine::with_obs(LANES, Session::new(), ObsOptions::default()));
    let registry = tenants.then(|| {
        TenantRegistry::new(TenantConfig {
            workers: LANES,
            ..TenantConfig::default()
        })
    });
    // One lane's batches, pipelined; spans go to `local`.
    let run_lane = |lane: usize, batches: Vec<&[Item]>, local: &mut Spans| -> (u64, u64) {
        let window = (crate::wire::DEPTH / batches.first().map_or(1, |b| b.len())).max(1);
        let (tx, rx) = bounded::<BatchReply>(window);
        let name = format!("t{lane}");
        let mut inflight: HashMap<u64, Pending<'_>> = HashMap::new();
        let (mut wrong, mut tenant_ns) = (0u64, 0u64);
        for (seq, batch) in batches.into_iter().enumerate() {
            let seq = seq as u64;
            let req = batch[0].req;
            let items: Vec<Request> = batch
                .iter()
                .map(|it| parse_request(&it.line, it.req & 0xffff_ffff))
                .collect();
            if inflight.len() == window {
                let (w, t) = finish(&rx, local, &mut inflight);
                wrong += w;
                tenant_ns += t;
            }
            if let Some(registry) = &registry {
                let ((handle, admission), ns) = local.time(Name::TenantAdmit, ROOT, req, || {
                    let mut view = registry.view();
                    let handle = registry.tenant(&mut view, &name);
                    let admission = registry.admit(&handle, items.len());
                    (handle, admission)
                });
                tenant_ns += ns;
                assert_eq!(
                    admission.granted,
                    items.len(),
                    "default quotas admit everything"
                );
                let span = local.open(Name::EngineBatch, ROOT, req);
                handle.engine().submit(seq, items, tx.clone());
                inflight.insert(
                    seq,
                    Pending {
                        span,
                        batch,
                        admitted: Some((handle, admission.granted)),
                    },
                );
            } else {
                let span = local.open(Name::EngineBatch, ROOT, req);
                engine
                    .as_ref()
                    .expect("single-tenant engine")
                    .submit(seq, items, tx.clone());
                inflight.insert(
                    seq,
                    Pending {
                        span,
                        batch,
                        admitted: None,
                    },
                );
            }
        }
        while !inflight.is_empty() {
            let (w, t) = finish(&rx, local, &mut inflight);
            wrong += w;
            tenant_ns += t;
        }
        (wrong, tenant_ns)
    };
    let run_lanes = |batches: &[(usize, Vec<Item>)], origin: Instant| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..LANES)
                .map(|lane| {
                    let run_lane = &run_lane;
                    scope.spawn(move || {
                        let mut local = Spans {
                            origin,
                            spans: Vec::new(),
                        };
                        let mine = batches
                            .iter()
                            .filter(|(l, _)| *l == lane)
                            .map(|(_, b)| b.as_slice())
                            .collect();
                        let (wrong, tenant_ns) = run_lane(lane, mine, &mut local);
                        (local.spans, wrong, tenant_ns)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("engine pass lane does not panic"))
                .collect::<Vec<_>>()
        })
    };
    let mut wrong: u64 = run_lanes(prime, spans.origin).iter().map(|l| l.1).sum();
    let start = Instant::now();
    let lanes = run_lanes(measured, spans.origin);
    let wall = start.elapsed().as_nanos() as f64;
    let mut tenant_ns = 0;
    for (local, w, t) in lanes {
        wrong += w;
        tenant_ns += t;
        spans.spans.extend(local);
    }
    let locks = registry
        .as_ref()
        .map_or(0, TenantRegistry::lock_acquisitions);
    if let Some(engine) = engine {
        engine.shutdown();
    }
    (wall, tenant_ns as f64, locks, wrong)
}

/// A batch submitted to the engine and not yet answered: its span, its
/// requests, and the tenant admission to complete (routed only).
struct Pending<'a> {
    span: u32,
    batch: &'a [Item],
    admitted: Option<(Arc<TenantHandle>, usize)>,
}

/// Waits for one batch reply, closes its span, checks its verdicts and
/// completes its tenant admission. Returns the wrong verdicts and the
/// time spent in `TenantHandle::complete`.
fn finish(
    rx: &Receiver<BatchReply>,
    local: &mut Spans,
    inflight: &mut HashMap<u64, Pending<'_>>,
) -> (u64, u64) {
    let (seq, out) = rx.recv().expect("workers reply to every batch");
    let done = inflight.remove(&seq).expect("one reply per batch");
    local.close(done.span);
    let wrong = done
        .batch
        .iter()
        .zip(&out)
        .filter(|(it, r)| !matches!(r, Response::Equiv { verdict, .. } if *verdict == it.expected))
        .count() as u64;
    let tenant_ns = done.admitted.map_or(0, |(handle, granted)| {
        local
            .time(Name::TenantComplete, ROOT, done.batch[0].req, || {
                handle.complete(granted as u64)
            })
            .1
    });
    (wrong, tenant_ns)
}

/// Each span name's count, total time and self time (total minus the
/// part its children cover), per measured request.
fn self_time_report(spans: &[Span], requests: u64) -> String {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    let mut rows: Vec<(u64, u64, u64)> = vec![(0, 0, 0); NAMES.len()];
    for (s, child) in spans.iter().zip(&child_ns) {
        let row = &mut rows[s.name as usize];
        let total = s.end - s.start;
        row.0 += 1;
        row.1 += total;
        row.2 += total.saturating_sub(*child);
    }
    let n = requests.max(1) as f64;
    let mut out = format!("ledger: {requests} measured requests; ns per measured request:\n");
    let _ = writeln!(
        out,
        "  {:<24} {:>10} {:>12} {:>12}",
        "span", "count", "total_ns", "self_ns"
    );
    for (name, (count, total, own)) in NAMES.iter().zip(&rows) {
        if *count > 0 && *name != "wire.request" {
            let _ = writeln!(
                out,
                "  {name:<24} {count:>10} {:>12.1} {:>12.1}",
                *total as f64 / n,
                *own as f64 / n
            );
        }
    }
    let (count, total, _) = rows[Name::Wire as usize];
    if count > 0 {
        let _ = writeln!(
            out,
            "  wire.request: {count} traced closed-loop requests, {:.1} ns sent to answered \
             on average (64 in flight per connection)",
            total as f64 / count as f64
        );
    }
    let (tfs, parse) = (
        rows[Name::TypeFromStr as usize].1,
        rows[Name::Parse as usize].1,
    );
    let _ = writeln!(
        out,
        "  {:<24} {:>10} {:>12.1} {:>12.1}   (type_from_str minus parse_type)",
        "resolve (derived)",
        rows[Name::TypeFromStr as usize].0,
        tfs.saturating_sub(parse) as f64 / n,
        tfs.saturating_sub(parse) as f64 / n
    );
    out
}

/// The per-node layers of the linearity fit: span name and the metric
/// names of the fit's slope and R².
const LINEARITY: [(&str, &str, &str); 4] = [
    (
        "syntax.parse_type",
        "linearity.parse_slope_ns_per_node",
        "linearity.parse_r2",
    ),
    (
        "resolve",
        "linearity.resolve_slope_ns_per_node",
        "linearity.resolve_r2",
    ),
    (
        "store.intern",
        "linearity.intern_slope_ns_per_node",
        "linearity.intern_r2",
    ),
    (
        "normalize.nrm",
        "linearity.nrm_slope_ns_per_node",
        "linearity.nrm_r2",
    ),
];

/// Least-squares fits of each [`LINEARITY`] layer's ns against nodes,
/// with their sample counts.
fn linearity_fits(sums: &Sums) -> [(usize, Option<Fit>); 4] {
    let strings = |pick: fn(&(u64, u64, u64, u64)) -> u64| -> Vec<(f64, f64)> {
        sums.strings
            .iter()
            .map(|s| (s.0 as f64, pick(s) as f64))
            .collect()
    };
    let nrm: Vec<(f64, f64)> = sums.nrms.iter().map(|s| (s.0 as f64, s.1 as f64)).collect();
    [strings(|s| s.1), strings(|s| s.2), strings(|s| s.3), nrm].map(|pts| (pts.len(), fit(&pts)))
}

/// The linearity report: each per-node layer's least-squares ns/node
/// slope with its R², and one row per size bucket. Reported, not gated.
fn linearity_report(sums: &Sums) -> String {
    let mut out = String::from("linearity (first-sight strings; ns = a + slope·nodes):\n");
    for ((name, _, _), (n, f)) in LINEARITY.iter().zip(linearity_fits(sums)) {
        match f {
            Some(f) => {
                let _ = writeln!(
                    out,
                    "  {name:<18} slope {:>8.1} ns/node  intercept {:>10.1} ns  R² {:.4}  (n={n})",
                    f.slope, f.intercept, f.r2,
                );
            }
            None => {
                let _ = writeln!(out, "  {name:<18} too few samples (n={n})");
            }
        }
    }
    let _ = writeln!(
        out,
        "  {:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "bucket", "n", "mean_nodes", "parse/nd", "resolve/nd", "intern/nd", "nrm/nd"
    );
    // Bucket by the nearest target size in log space.
    let bucket_of = |nodes: f64| {
        (0..SIZE_BUCKETS.len())
            .min_by(|&a, &b| {
                let da = (nodes.ln() - (SIZE_BUCKETS[a] as f64).ln()).abs();
                let db = (nodes.ln() - (SIZE_BUCKETS[b] as f64).ln()).abs();
                da.total_cmp(&db)
            })
            .expect("buckets exist")
    };
    for (b, target) in SIZE_BUCKETS.iter().enumerate() {
        let (mut n, mut nodes, mut parse, mut resolve, mut intern) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for s in sums.strings.iter().filter(|s| bucket_of(s.0 as f64) == b) {
            n += 1;
            nodes += s.0;
            parse += s.1;
            resolve += s.2;
            intern += s.3;
        }
        let (mut nrm_nodes, mut nrm) = (0u64, 0u64);
        for s in sums.nrms.iter().filter(|s| bucket_of(s.0 as f64) == b) {
            nrm_nodes += s.0;
            nrm += s.1;
        }
        if n == 0 {
            continue;
        }
        let per = |ns: u64, nd: u64| if nd == 0 { 0.0 } else { ns as f64 / nd as f64 };
        let _ = writeln!(
            out,
            "  {target:>6} {n:>6} {:>10.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            nodes as f64 / n as f64,
            per(parse, nodes),
            per(resolve, nodes),
            per(intern, nodes),
            per(nrm, nrm_nodes)
        );
    }
    out
}

/// Writes every span as one TSV row under `.svcbench/`.
fn write_spans(kind: Kind, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(".svcbench")?;
    let file = std::fs::File::create(format!(".svcbench/spans-{}.tsv", kind.name()))?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "span\tparent\treq\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            String::from("-")
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.req, NAMES[s.name as usize], s.start, s.end
        )?;
    }
    w.flush()
}
