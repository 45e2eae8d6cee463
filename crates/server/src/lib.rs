//! # algst-server
//!
//! A long-running **batch equivalence-checking service** over the
//! concurrent type store ([`algst_core::shared::SharedStore`]).
//!
//! The paper's headline result is that algebraic-protocol equivalence
//! is practical at scale — this crate is the serving layer that result
//! earns: a newline-delimited JSON protocol ([`protocol`]) whose
//! requests a front-end ([`serve`]) routes through a tenant registry
//! ([`tenant::TenantRegistry`]) to a worker pool ([`engine::Engine`])
//! per tenant. Every worker of a tenant shares the same interned nodes
//! and memoized normal forms, so a type any of its clients ever sent
//! stays warm for every later request, on every worker. A server
//! without `--multi-tenant` is a registry of one: every request runs
//! on the `default` tenant.
//!
//! ```text
//! stdin/TCP ──lines──► reader ──batches──► worker pool ──► writer ──► stdout/TCP
//!                        │                     │ WorkerStore handles (1 lock per cold op)
//!                        ▼                     ▼
//!              tenant registry:      SharedStore (arena + nrm memos: a warm verdict
//!              name → Engine,        is two memo reads and an id compare)
//!              admission, `tenants`  + parse cache + module cache
//! ```
//!
//! Try it (see also `algst serve --help`):
//!
//! ```sh
//! printf '%s\n' \
//!   '{"op":"equiv","lhs":"!Int.End!","rhs":"Dual (?Int.End?)"}' \
//!   '{"op":"shutdown"}' | algst serve
//! ```

pub mod engine;
pub mod json;
pub mod metrics_http;
pub mod protocol;
pub mod resolve;
pub mod serve;
pub mod tenant;

pub use engine::{Engine, ObsOptions};
pub use metrics_http::{serve_metrics, MetricsServer};
pub use protocol::{parse_request, Op, Request, Response, Snapshot, ThrottleKind};
pub use serve::{serve_listener, serve_session, serve_stdio, serve_tcp, ServeConfig, ServeSummary};
pub use tenant::{TenantConfig, TenantHandle, TenantQuotas, TenantRegistry, TenantView};
