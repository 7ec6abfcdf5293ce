//! `flexflow-server` — the concurrent strategy-serving daemon.
//!
//! The paper's end product is a *strategy*: a placement/parallelization
//! plan found once by MCMC search and reused for an entire training run.
//! That makes the optimizer a natural request/response service with
//! aggressive caching — clients name a `(model, cluster, budget)` triple,
//! and the daemon answers from a persistent **content-addressed strategy
//! cache**, warm-starting the search from near-miss entries instead of
//! re-deriving everything from data parallelism:
//!
//! ```text
//!  client ── {"model":"rnnlm","gpus":4,"evals":2000} ──>  flexflow serve
//!                                                           │
//!                        key = (graph sig, topo sig, budget class)
//!                                                           │
//!                 ┌── hit ──── cached record, 0 evaluations │
//!                 ├── warm ─── remap cached strategy, seed SearchRequest::run_warm
//!                 └── cold ─── search from data-parallel + expert seeds
//! ```
//!
//! - [`protocol`] — the versioned line-delimited JSON envelope (v2 adds a
//!   `verb` field; v1 requests keep parsing unchanged);
//! - [`cache`] — the content-addressed cache primitive, its disk format,
//!   and the stored form of an entry (key parsed, response body
//!   rendered, once);
//! - [`store`] — the [`StrategyStore`] trait over it: the sharded,
//!   LRU-bounded production store and the legacy single-map store;
//! - [`server`] — the worker pool and the oneshot/socket/TCP front-ends;
//! - [`polish`] — the background daemon that re-searches hot entries at
//!   escalating budgets and CAS-publishes strictly-better strategies.
//!
//! # Quickstart
//!
//! [`ServerHandle::builder`] is the assembled product — store, workers,
//! polish daemon — while [`Server::new`] remains the bare engine:
//!
//! ```
//! use flexflow_server::ServerHandle;
//!
//! let handle = ServerHandle::builder().workers(1).build();
//! let resp = handle.handle_line(r#"{"model":"lenet","gpus":2,"evals":20,"seed":1}"#);
//! assert!(resp.contains(r#""cache":"cold""#));
//! // The same request again is a pure cache hit: zero evaluations.
//! let resp = handle.handle_line(r#"{"model":"lenet","gpus":2,"evals":20,"seed":1}"#);
//! assert!(resp.contains(r#""cache":"hit""#));
//! assert!(resp.contains(r#""evals":0"#));
//! ```

#![warn(missing_docs)]
pub mod cache;
pub mod polish;
pub mod protocol;
pub mod server;
pub mod store;

pub use cache::{budget_class, CacheEntry, CacheKey, Lookup, StoredEntry, StrategyCache};
pub use polish::{PolishConfig, PolishOutcome};
pub use protocol::{parse_envelope, parse_request, Envelope, Request, SearchRequest};
pub use server::{CacheOutcome, Server, ServerBuilder, ServerConfig, ServerHandle};
pub use store::{
    CacheBounds, HotEntry, LegacyStore, ShardStats, ShardedStore, StoreLookup, StrategyStore,
    Upgrade,
};
