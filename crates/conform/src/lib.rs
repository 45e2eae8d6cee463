//! # algst-conform
//!
//! Cross-layer **differential fuzzing** for the whole AlgST stack, with
//! a delta-debugging reducer. PRs 2–3 stacked a hash-consed store and a
//! sharded concurrent store on top of the paper's equivalence claim with
//! per-layer spot checks; this crate is the adversarial harness that
//! hammers every layer against independent oracles:
//!
//! | family   | generated input            | cross-checked answers                         |
//! |----------|----------------------------|-----------------------------------------------|
//! | equiv    | protocol decls + type pair | `Session` ids (a sibling of the engine's store) · naive reference ([`mod@reference`]) · FreeST bisimulation · server [`Engine`](algst_server::Engine) over the wire format · by-construction ground truth |
//! | syntax   | types and whole modules    | print → reparse → structural AST equality      |
//! | check    | well-typed + damaged modules | verdict stable under α-renaming, `-(-T)` payloads, `Dual (Dual ·)` |
//! | runtime  | client/server modules      | terminates with predicted output or hits the step budget; never panics, never errors |
//! | server-check | well-typed + damaged modules | engine `check` op (module cache, injected session) vs direct in-process check |
//! | tenant-isolation | N tenants over disjoint generated universes | no verdict, `TypeId`, or cache entry crosses tenants of one [`TenantRegistry`](algst_server::TenantRegistry), including across an eviction/recreation cycle ([`mod@tenants`]) |
//!
//! Every counterexample is minimized by the reducer ([`reduce`]) —
//! AST-level hierarchical reduction re-validated against the *specific*
//! oracle pair that disagreed — and written to `conform-failures/` as a
//! replayable `.algst` file carrying its seed in the header. The
//! vendored proptest shim's new shrinking covers strategy-generated
//! values; this reducer covers the imperative `algst-gen` generators.
//!
//! The [`reference::Sabotage`] hook deliberately breaks one oracle so
//! tests (and `algst fuzz --sabotage reference-dual`) can prove the
//! loop detects and minimizes real bugs: the acceptance bar is a
//! replayable counterexample **under 15 AST nodes**.
//!
//! Entry points: [`fuzz::run_fuzz`] (the `algst fuzz` subcommand) and
//! [`fuzz::replay_file`] (`algst fuzz --replay FILE`).

pub mod fuzz;
pub mod oracles;
pub mod reduce;
pub mod reference;
pub mod tenants;

pub use fuzz::{replay_file, run_fuzz, Failure, FuzzConfig, FuzzReport, ReplayOutcome};
pub use reference::Sabotage;
