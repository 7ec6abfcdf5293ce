//! The serving engine: request handling, the bounded worker pool, and the
//! front-ends (batch/oneshot streams, a Unix-domain socket, and a
//! nonblocking TCP listener).
//!
//! # Architecture
//!
//! ```text
//!   stdin line / socket line / TCP line
//!        |  parse (cheap, on the front-end thread)
//!        v
//!   bounded job queue  --->  worker 0..N   (each worker's searches own
//!        |     \                            their Simulators exclusively:
//!        |      `-- full? in-band "busy"    task graph, timeline, undo
//!        v                                  journals are per-thread)
//!   response line, in request order per connection
//!        ^
//!   idle cycles ---> polish daemon: re-search hottest entries, CAS-publish
//! ```
//!
//! Every search answer goes through the [`StrategyStore`] (the sharded,
//! LRU-bounded content-addressed cache):
//!
//! - **hit** — same graph + topology, searched at least as hard: served
//!   with **zero** simulator evaluations, and on a repeat with no graph
//!   or JSON work either — the request's `(model, gpus, cluster)` is
//!   interned to its signatures on first sight, the entry's
//!   `"strategy":{…}` body was rendered when it was stored, and the
//!   structural check ([`strategy_io::import_structural`] against the
//!   requester's own graph; op names are *not* re-checked, matching the
//!   name-insensitive cache key) runs once per `(workload, entry address,
//!   entry version)`, not once per request: any other entry state — a
//!   reloaded file, a re-insert, a polish upgrade — is a different token
//!   and is checked before a byte of it is served;
//! - **warm** — same graph, different topology or smaller budget: the
//!   cached dump is remapped onto the request's topology
//!   ([`strategy_io::remap_onto`]) and seeds a warm search
//!   ([`flexflow_core::optimizer::SearchRequest::run_warm`]), which
//!   typically reaches cold-search quality in a fraction of the
//!   evaluations;
//! - **cold** — full search from the data-parallel and expert seeds.
//!
//! Results always update the store (and its on-disk shard files,
//! atomically), so the daemon converges toward answering its steady-state
//! traffic from memory — and the polish daemon keeps improving the
//! answers it serves most often.

use crate::cache::{composite_class, strategy_body, CacheEntry};
use crate::polish::PolishConfig;
use crate::protocol::{self, Request, SearchRequest};
use crate::store::{CacheBounds, LegacyStore, ShardedStore, StoreLookup, StrategyStore};
use flexflow_baselines::expert;
use flexflow_core::strategy_io::{self, StrategyDump};
use flexflow_core::{Budget, SimConfig, Strategy};
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, DeviceKind, Topology};
use flexflow_opgraph::{graph_signature, zoo, OpGraph};
use serde::Value;
use serde_json::json;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads answering search requests (the pool bound).
    pub workers: usize,
    /// Cache persistence root; `None` keeps the store in memory only.
    /// The sharded store persists to `<path>.shard-NN` files and migrates
    /// a legacy single-file cache at `<path>` on first open (leaving the
    /// legacy file untouched).
    pub cache_path: Option<PathBuf>,
    /// Server-side floor on every request's microbatch cap: requests
    /// asking for less (including the default 1) are raised to this value,
    /// requests asking for more win. `1` (the default) leaves requests
    /// untouched.
    pub default_microbatches: u64,
    /// Cache shards (key-prefix sharded; per-shard locks and files).
    pub shards: usize,
    /// Entry/byte bounds enforced by LRU eviction (unbounded by default,
    /// matching the PR 4 grow-only behavior).
    pub cache_bounds: CacheBounds,
    /// Concurrent TCP connections accepted before new clients get an
    /// in-band refusal.
    pub max_connections: usize,
    /// Idle-connection timeout for the TCP front end in milliseconds: a
    /// connection with no traffic and no pending replies for this long is
    /// closed.
    pub io_timeout_ms: u64,
    /// Use the legacy single-map, single-file store instead of the
    /// sharded one (tests pin the two against each other; production
    /// serving always shards).
    pub legacy_store: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            cache_path: None,
            default_microbatches: 1,
            shards: 8,
            cache_bounds: CacheBounds::unbounded(),
            max_connections: 64,
            io_timeout_ms: 30_000,
            legacy_store: false,
        }
    }
}

/// Latency histogram buckets: bucket `i` counts requests that finished in
/// under `2^i` microseconds, the last bucket is the overflow (≥ ~2 s).
pub const LATENCY_BUCKETS: usize = 22;

/// Traffic counters, updated lock-free by the workers.
#[derive(Debug)]
pub struct ServeStats {
    /// Total requests handled (including errors).
    pub requests: AtomicU64,
    /// Search answers served straight from the cache.
    pub hits: AtomicU64,
    /// Search answers produced by warm-started search.
    pub warm: AtomicU64,
    /// Search answers produced by cold search.
    pub cold: AtomicU64,
    /// Requests answered with an error response.
    pub errors: AtomicU64,
    /// Requests refused in-band because the job queue was full.
    pub busy: AtomicU64,
    /// Simulator evaluations paid answering warm/cold requests.
    pub evals_spent: AtomicU64,
    /// Evaluations a hit would have cost its requester (the cached
    /// record's search effort, served for free).
    pub evals_saved: AtomicU64,
    /// Polish daemon passes completed.
    pub polish_runs: AtomicU64,
    /// Polish passes that published a better (or harder-searched) record.
    pub polish_published: AtomicU64,
    /// Evaluations spent by the polish daemon.
    pub polish_evals: AtomicU64,
    /// Workloads (op graph + topology) built to answer requests: one for
    /// a request that searches, names a workload for the first time, or
    /// is the first to hit an entry in a state not yet validated; none
    /// for a repeat hit.
    pub graph_builds: AtomicU64,
    /// Request-latency histogram (see [`LATENCY_BUCKETS`]).
    pub latency_us: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for ServeStats {
    fn default() -> Self {
        Self {
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            warm: AtomicU64::new(0),
            cold: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            evals_spent: AtomicU64::new(0),
            evals_saved: AtomicU64::new(0),
            polish_runs: AtomicU64::new(0),
            polish_published: AtomicU64::new(0),
            polish_evals: AtomicU64::new(0),
            graph_builds: AtomicU64::new(0),
            latency_us: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ServeStats {
    /// Records one request latency in the histogram.
    pub fn observe_latency(&self, us: u64) {
        let bucket = (64 - us.leading_zeros()) as usize;
        self.latency_us[bucket.min(LATENCY_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    fn latency_counts(&self) -> Vec<u64> {
        self.latency_us
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// Approximate quantile from the power-of-two histogram: the upper bound
/// (`2^i` µs) of the bucket where the cumulative count crosses `q`.
fn latency_quantile(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let want = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= want {
            return 1u64 << i.min(63);
        }
    }
    1u64 << (counts.len() - 1).min(63)
}

/// The strategy-serving daemon. One instance is shared by all workers and
/// connections; the store shards its locks internally (lookups and
/// inserts are microseconds — searches, the expensive part, run outside
/// every lock).
pub struct Server {
    cfg: ServerConfig,
    store: Box<dyn StrategyStore>,
    /// What each workload name seen so far resolves to. Never evicted:
    /// [`protocol`] validation bounds the key space ([`protocol::KNOWN_MODELS`]
    /// x [`protocol::MAX_GPUS`] x the device kinds).
    workloads: Mutex<HashMap<WorkloadKey, WorkloadMemo>>,
    stats: ServeStats,
    shutdown: AtomicBool,
    active_searches: AtomicU64,
}

/// `(model, gpus, cluster)`: everything [`try_build_workload`] reads.
type WorkloadKey = (String, usize, DeviceKind);

/// The signatures a workload's graph and topology hash to, interned on
/// first sight so a repeat request names its cache key without building
/// either.
struct WorkloadMemo {
    graph_sig: u64,
    topo_sig: u64,
    /// `(address, version)` of the store entry last structurally
    /// validated against this workload's graph. A hit on exactly that
    /// entry state is served unchecked; any other token re-validates.
    validated: Option<(String, u64)>,
}

/// How a search answer was produced (the response's `cache` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache, zero evaluations.
    Hit,
    /// Warm-started from a near-miss entry.
    Warm,
    /// Searched from scratch.
    Cold,
}

impl CacheOutcome {
    fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Warm => "warm",
            CacheOutcome::Cold => "cold",
        }
    }
}

pub(crate) fn cluster_name(kind: DeviceKind) -> &'static str {
    match kind {
        DeviceKind::P100 => "p100",
        DeviceKind::K80 => "k80",
        DeviceKind::A100 => "a100",
        DeviceKind::Test => "test",
    }
}

pub(crate) fn cluster_from_name(name: &str) -> Option<DeviceKind> {
    match name {
        "p100" => Some(DeviceKind::P100),
        "k80" => Some(DeviceKind::K80),
        "a100" => Some(DeviceKind::A100),
        "test" => Some(DeviceKind::Test),
        _ => None,
    }
}

/// Everything the slow half of a search needs, prepared by
/// [`Server::search_flow`] so the worker never repeats the store probe
/// (which would double-count shard counters and LRU touches) or the
/// workload build.
struct SearchPlan {
    req: SearchRequest,
    graph: OpGraph,
    topo: Topology,
    class: u32,
    max_microbatches: u64,
    warm_dump: Option<StrategyDump>,
}

/// What a search answer says besides echoing its request: how it was
/// produced, and the strategy as its rendered
/// [`strategy_body`](crate::cache::strategy_body).
struct Answer<'a> {
    outcome: CacheOutcome,
    class: u32,
    microbatches: u64,
    cost_us: f64,
    evals: u64,
    cached_evals: u64,
    body: &'a str,
}

/// Decrements the in-flight search gauge on every exit path.
struct SearchGuard<'a>(&'a AtomicU64);

impl Drop for SearchGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl Server {
    /// Creates a server, opening the configured store. A corrupt cache
    /// file is reported on stderr and replaced by an empty store — a
    /// serving daemon must come up even when its disk state is bad.
    pub fn new(cfg: ServerConfig) -> Self {
        let store: Box<dyn StrategyStore> = match (&cfg.cache_path, cfg.legacy_store) {
            (None, false) => Box::new(ShardedStore::in_memory(cfg.shards, cfg.cache_bounds)),
            (None, true) => Box::new(LegacyStore::in_memory()),
            (Some(path), legacy) => {
                let opened: Result<Box<dyn StrategyStore>, String> = if legacy {
                    LegacyStore::open(path).map(|s| Box::new(s) as Box<dyn StrategyStore>)
                } else {
                    ShardedStore::open(path, cfg.shards, cfg.cache_bounds)
                        .map(|s| Box::new(s) as Box<dyn StrategyStore>)
                };
                opened.unwrap_or_else(|e| {
                    eprintln!("flexflow serve: starting with an empty cache: {e}");
                    if legacy {
                        Box::new(LegacyStore::in_memory())
                    } else {
                        Box::new(ShardedStore::in_memory(cfg.shards, cfg.cache_bounds))
                    }
                })
            }
        };
        Self {
            cfg,
            store,
            workloads: Mutex::default(),
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            active_searches: AtomicU64::new(0),
        }
    }

    /// The live traffic counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The strategy store behind this server.
    pub fn store(&self) -> &dyn StrategyStore {
        self.store.as_ref()
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Number of cached strategies.
    pub fn cache_len(&self) -> usize {
        self.store.len()
    }

    /// Foreground searches currently in flight (the polish daemon only
    /// runs when this is zero — idle cycles, not contended ones).
    pub fn active_searches(&self) -> u64 {
        self.active_searches.load(Ordering::Acquire)
    }

    /// Whether a shutdown request has been accepted.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Handles one raw request line and returns the response line
    /// (without trailing newline). Never panics on untrusted input.
    pub fn handle_line(&self, line: &str) -> String {
        let t0 = Instant::now();
        let mut out = String::new();
        if let Some((plan, version)) = self.answer_inline(line, &mut out) {
            self.run_search_plan(*plan, version, &mut out);
        }
        self.stats
            .observe_latency(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        out
    }

    /// The fast half of every request: parse errors, `stats`, `shutdown`
    /// and cache hits are answered in full, appended to `out`. A search
    /// that has to simulate appends nothing and comes back as its plan
    /// (and the envelope version to answer in) for
    /// [`Server::run_search_plan`].
    fn answer_inline(&self, line: &str, out: &mut String) -> Option<(Box<SearchPlan>, u32)> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let envelope = match protocol::parse_envelope(line) {
            Ok(envelope) => envelope,
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                out.push_str(&protocol::error_response(&e));
                return None;
            }
        };
        let version = envelope.version;
        match envelope.request {
            Request::Stats => out.push_str(&render(version, self.stats_value())),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::Release);
                // Flush here as well as in the serve loops: the verb must
                // guarantee durability even for callers driving
                // handle_line directly.
                self.store.flush();
                out.push_str(&render(
                    version,
                    json!({"status": "ok", "shutting_down": true}),
                ));
            }
            Request::Search(req) => match self.search_flow(&req, version, out) {
                Ok(plan) => return plan.map(|plan| (plan, version)),
                Err(e) => {
                    self.stats.errors.fetch_add(1, Ordering::Relaxed);
                    out.push_str(&render(version, json!({"status": "error", "error": e})));
                }
            },
        }
        None
    }

    fn stats_value(&self) -> Value {
        let s = &self.stats;
        let counts = s.latency_counts();
        let spent = s.evals_spent.load(Ordering::Relaxed);
        let saved = s.evals_saved.load(Ordering::Relaxed);
        json!({
            "status": "ok",
            "entries": self.cache_len(),
            "requests": s.requests.load(Ordering::Relaxed),
            "hits": s.hits.load(Ordering::Relaxed),
            "warm": s.warm.load(Ordering::Relaxed),
            "cold": s.cold.load(Ordering::Relaxed),
            "errors": s.errors.load(Ordering::Relaxed),
            "busy": s.busy.load(Ordering::Relaxed),
            "bytes": self.store.bytes(),
            "shards": self.store.shard_stats(),
            "evals_spent": spent,
            "evals_saved": saved,
            // Positive debt: searching has cost more evals than hits have
            // amortized so far; negative: the cache has paid for itself.
            "eval_debt": spent as i64 - saved as i64,
            "latency_counts": counts,
            "latency_p50_us": latency_quantile(&counts, 0.50),
            "latency_p99_us": latency_quantile(&counts, 0.99),
            "polish_runs": s.polish_runs.load(Ordering::Relaxed),
            "polish_published": s.polish_published.load(Ordering::Relaxed),
            "polish_evals": s.polish_evals.load(Ordering::Relaxed),
            "graph_builds": s.graph_builds.load(Ordering::Relaxed),
        })
    }

    /// The request's workload, built (and counted) on first use: a request
    /// needs it at most once, whichever of its steps asks first.
    fn built<'a>(
        &self,
        req: &SearchRequest,
        slot: &'a mut Option<(OpGraph, Topology)>,
    ) -> Result<&'a (OpGraph, Topology), String> {
        if slot.is_none() {
            *slot = Some(try_build_workload(req)?);
            self.stats.graph_builds.fetch_add(1, Ordering::Relaxed);
        }
        Ok(slot.as_ref().expect("filled above"))
    }

    fn workloads(&self) -> std::sync::MutexGuard<'_, HashMap<WorkloadKey, WorkloadMemo>> {
        self.workloads
            .lock()
            .expect("no holder of the workload memo lock panics")
    }

    /// Phase 1 of a search request — resolve the workload's signatures,
    /// classify the request, and probe the store. A repeat hit is a memo
    /// probe, a shard probe and a copy of the stored body; nothing here
    /// simulates, so the TCP readiness loop runs it inline and only
    /// dispatches the returned plans to the worker pool: cache hits never
    /// pay a queue round-trip. `Ok(None)` means a hit, answered in full
    /// into `out`.
    ///
    /// # Errors
    ///
    /// Returns the message of a workload that cannot be built.
    fn search_flow(
        &self,
        req: &SearchRequest,
        version: u32,
        out: &mut String,
    ) -> Result<Option<Box<SearchPlan>>, String> {
        let key: WorkloadKey = (req.model.clone(), req.gpus, req.cluster);
        let mut built = None;
        let interned = self
            .workloads()
            .get(&key)
            .map(|memo| (memo.graph_sig, memo.topo_sig));
        let (graph_sig, topo_sig) = match interned {
            Some(sigs) => sigs,
            None => {
                let (graph, topo) = self.built(req, &mut built)?;
                let (graph_sig, topo_sig) = (graph_signature(graph), topo.signature());
                self.workloads().entry(key.clone()).or_insert(WorkloadMemo {
                    graph_sig,
                    topo_sig,
                    validated: None,
                });
                (graph_sig, topo_sig)
            }
        };
        // The floor is clamped to the same bound the protocol enforces on
        // requests: values past the cache key's microbatch component
        // would conflate distinct caps into one class.
        let max_microbatches = req
            .microbatches
            .max(self.cfg.default_microbatches)
            .min(protocol::MAX_MICROBATCHES);
        let class = composite_class(req.evals, max_microbatches, req.param_sync, req.recompute);

        // One shard lock, microseconds: entries are immutable and shared,
        // so whatever the store contributes is read (and, when due,
        // validated) after the lock is released — hits must not serialize
        // on graph-sized work.
        let mut warm_dump: Option<StrategyDump> = None;
        if !req.refresh {
            match self.store.lookup(graph_sig, topo_sig, class) {
                StoreLookup::Hit {
                    address,
                    version: entry_version,
                    entry,
                } => {
                    // Validate before serving: a hash collision or corrupt
                    // record must degrade to a cold search, not a panic or
                    // a wrong answer. Validation is *structural* (shape,
                    // device range, config legality) — the cache key is
                    // the name-insensitive graph signature, so op names
                    // must not be re-checked here. Entries never change
                    // under an `(address, version)`, so the check that
                    // passed for this workload's graph once holds for
                    // every later hit on the same token.
                    let validated = self.workloads().get(&key).is_some_and(|memo| {
                        memo.validated
                            .as_ref()
                            .is_some_and(|(a, v)| *a == address && *v == entry_version)
                    });
                    if !validated {
                        let (graph, topo) = self.built(req, &mut built)?;
                        let record = &entry.record;
                        if !(strategy_io::MIN_FORMAT_VERSION..=strategy_io::FORMAT_VERSION)
                            .contains(&record.version)
                            || strategy_io::import_structural(graph, topo, &record.dump).is_err()
                        {
                            // Evict the invalid entry: `insert`'s
                            // lower-cost-wins rule would otherwise let a
                            // corrupt record with an optimistic cost pin
                            // this address and force a cold search on
                            // every future request.
                            self.store.remove(&address);
                            return self.plan(req, built, class, max_microbatches, None);
                        }
                        if let Some(memo) = self.workloads().get_mut(&key) {
                            memo.validated = Some((address, entry_version));
                        }
                    }
                    let record = &entry.record;
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .evals_saved
                        .fetch_add(record.evals, Ordering::Relaxed);
                    let answer = Answer {
                        outcome: CacheOutcome::Hit,
                        class,
                        microbatches: record.dump.microbatches,
                        cost_us: record.cost_us,
                        evals: 0,
                        cached_evals: record.evals,
                        body: entry.body(),
                    };
                    write_search_response(out, version, req, &answer);
                    return Ok(None);
                }
                StoreLookup::Warm(entry) => warm_dump = Some(entry.record.dump.clone()),
                StoreLookup::Miss => {}
            }
        }
        self.plan(req, built, class, max_microbatches, warm_dump)
    }

    /// Wraps up phase 1 for a request that has to search.
    fn plan(
        &self,
        req: &SearchRequest,
        mut built: Option<(OpGraph, Topology)>,
        class: u32,
        max_microbatches: u64,
        warm_dump: Option<StrategyDump>,
    ) -> Result<Option<Box<SearchPlan>>, String> {
        self.built(req, &mut built)?;
        let (graph, topo) = built.expect("built above");
        Ok(Some(Box::new(SearchPlan {
            req: req.clone(),
            graph,
            topo,
            class,
            max_microbatches,
            warm_dump,
        })))
    }

    /// Phases 2 and 3 of a search request: run the (warm-started) search
    /// and teach the store. This is the seconds-long half; it always runs
    /// on a worker thread. Appends the answer to `out`.
    fn run_search_plan(&self, plan: SearchPlan, version: u32, out: &mut String) {
        let SearchPlan {
            req,
            graph,
            topo,
            class,
            max_microbatches,
            warm_dump,
        } = plan;
        let mut outcome = CacheOutcome::Cold;

        // Phase 2 (no lock): the actual search. Simulators live and die
        // inside this call, owned by the calling worker thread.
        self.active_searches.fetch_add(1, Ordering::Release);
        let _guard = SearchGuard(&self.active_searches);
        let cost = MeasuredCostModel::paper_default();
        let search = flexflow_core::SearchRequest::new(req.seed)
            .chains(req.chains)
            .max_microbatches(max_microbatches)
            .param_sync(req.param_sync)
            .recompute(req.recompute);
        let budget = Budget::evaluations(req.evals);
        let warm_seed =
            warm_dump.and_then(|dump| strategy_io::remap_onto(&graph, &topo, &dump).ok());
        let result = match warm_seed {
            Some(seed) => {
                outcome = CacheOutcome::Warm;
                search.run_warm(&graph, &topo, &cost, seed, budget, SimConfig::default())
            }
            None => {
                let initials = [
                    Strategy::data_parallel(&graph, &topo),
                    expert::strategy(&graph, &topo),
                ];
                search.run(
                    &graph,
                    &topo,
                    &cost,
                    &initials,
                    budget,
                    SimConfig::default(),
                )
            }
        };
        match outcome {
            CacheOutcome::Warm => self.stats.warm.fetch_add(1, Ordering::Relaxed),
            _ => self.stats.cold.fetch_add(1, Ordering::Relaxed),
        };
        self.stats
            .evals_spent
            .fetch_add(result.evals, Ordering::Relaxed);

        // Phase 3: teach the store (it snapshots under its shard lock and
        // writes outside it, so concurrent hit lookups never stall on
        // I/O).
        let record = strategy_io::export_record(
            &graph,
            &topo,
            &result.best,
            result.best_cost_us,
            result.evals,
        );
        let body = strategy_body(&record.dump);
        let answer = Answer {
            outcome,
            class,
            microbatches: record.dump.microbatches,
            cost_us: result.best_cost_us,
            evals: result.evals,
            cached_evals: result.evals,
            body: &body,
        };
        write_search_response(out, version, &req, &answer);
        self.store.insert(CacheEntry {
            budget_class: class,
            model: req.model.clone(),
            gpus: req.gpus,
            cluster: cluster_name(req.cluster).to_string(),
            record,
        });
    }

    /// Batch ("oneshot") mode: reads every request line from `input`,
    /// fans the parsed jobs across the worker pool, and writes one
    /// response line per request **in input order**. Used by
    /// `flexflow serve --oneshot` and the CLI smoke tests.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading `input` or writing `output`.
    pub fn run_batch(&self, input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        let lines: Vec<String> = input.lines().collect::<Result<_, _>>()?;
        let responses = self.handle_batch(&lines);
        for r in responses {
            writeln!(output, "{r}")?;
        }
        output.flush()?;
        self.store.flush();
        Ok(())
    }

    /// The worker-pool core of [`Server::run_batch`]: answers each line,
    /// preserving order, with at most `cfg.workers` searches in flight.
    pub fn handle_batch(&self, lines: &[String]) -> Vec<String> {
        let n = lines.len();
        let mut responses: Vec<Option<String>> = vec![None; n];
        if n == 0 {
            return Vec::new();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for _ in 0..self.cfg.workers.max(1).min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let resp = self.handle_line(&lines[i]);
                    results
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((i, resp));
                });
            }
        });
        for (i, r) in results.into_inner().unwrap_or_else(|e| e.into_inner()) {
            responses[i] = Some(r);
        }
        responses
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }

    /// Socket mode: listens on a Unix-domain socket, one thread per
    /// connection, searches dispatched through a bounded job queue onto
    /// the worker pool. Responses stream back per connection in request
    /// order. Returns when a client sends `{"cmd":"shutdown"}`; idle
    /// connections notice the flag within half a second (reads are
    /// timeout-based) and never block the shutdown. In-flight jobs drain
    /// and every dirty cache shard is flushed before the call returns.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/accept errors, and refuses to replace a
    /// path that exists but is not a socket.
    #[cfg(unix)]
    pub fn run_socket(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::os::unix::net::{UnixListener, UnixStream};

        // A stale socket file from a crashed daemon would fail the bind —
        // but only ever delete actual sockets, not whatever file a typo'd
        // --socket points at.
        if path.exists() {
            use std::os::unix::fs::FileTypeExt;
            if std::fs::symlink_metadata(path)?.file_type().is_socket() {
                std::fs::remove_file(path)?;
            } else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    format!("{} exists and is not a socket", path.display()),
                ));
            }
        }
        let listener = UnixListener::bind(path)?;

        struct Job {
            line: String,
            reply: mpsc::Sender<String>,
        }
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(self.cfg.workers.max(1) * 4);
        let job_rx = Mutex::new(job_rx);

        std::thread::scope(|s| {
            // The bounded pool: workers block on the queue, searches never
            // oversubscribe beyond `cfg.workers`.
            for _ in 0..self.cfg.workers.max(1) {
                s.spawn(|| {
                    loop {
                        let job = {
                            let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
                            rx.recv()
                        };
                        let Ok(job) = job else { break };
                        // A hung-up client is not a server error.
                        let _ = job.reply.send(self.handle_line(&job.line));
                    }
                });
            }

            let mut result = Ok(());
            for stream in listener.incoming() {
                if self.shutting_down() {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        // Raise the flag so live connection threads drain
                        // on their next read timeout — otherwise the
                        // scope join below would wedge on them and the
                        // error would never surface.
                        self.shutdown.store(true, Ordering::Release);
                        result = Err(e);
                        break;
                    }
                };
                let job_tx = job_tx.clone();
                let sock_path = path.to_path_buf();
                s.spawn(move || {
                    // Timeout-based reads: an idle client must not pin this
                    // thread (and through it the whole scope) past a
                    // shutdown — on every timeout the flag is re-checked.
                    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(500)));
                    let mut reader = std::io::BufReader::new(match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => return,
                    });
                    let mut writer = std::io::BufWriter::new(stream);
                    let mut line = String::new();
                    loop {
                        match reader.read_line(&mut line) {
                            Ok(0) => break, // EOF: client hung up
                            Ok(_) => {
                                if !line.trim().is_empty() {
                                    let (reply_tx, reply_rx) = mpsc::channel();
                                    let job = Job {
                                        line: std::mem::take(&mut line),
                                        reply: reply_tx,
                                    };
                                    if job_tx.send(job).is_err() {
                                        break;
                                    }
                                    let Ok(resp) = reply_rx.recv() else { break };
                                    if writeln!(writer, "{resp}")
                                        .and_then(|()| writer.flush())
                                        .is_err()
                                    {
                                        break;
                                    }
                                }
                                line.clear();
                                if self.shutting_down() {
                                    // Poke the accept loop awake so it
                                    // observes the flag and exits.
                                    let _ = UnixStream::connect(&sock_path);
                                    break;
                                }
                            }
                            // Timed out with no (complete) line: `line`
                            // keeps any partial read and the next
                            // read_line call appends to it.
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                                ) =>
                            {
                                if self.shutting_down() {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                });
            }
            // Closing the sender drains and stops the workers.
            drop(job_tx);
            result
        })?;
        // Every queued job has been answered by now (the scope joins the
        // workers); make the results durable before reporting success.
        self.store.flush();
        std::fs::remove_file(path).ok();
        Ok(())
    }

    /// Socket mode is Unix-only (Unix-domain sockets); this stub keeps
    /// the `flexflow` binary compiling on other targets, where
    /// `--oneshot` and `--tcp` remain available.
    ///
    /// # Errors
    ///
    /// Always returns [`std::io::ErrorKind::Unsupported`].
    #[cfg(not(unix))]
    pub fn run_socket(&self, _path: &std::path::Path) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "socket mode needs Unix domain sockets; use --oneshot or --tcp on this platform",
        ))
    }

    /// TCP mode: binds `addr` (e.g. `127.0.0.1:7170`) and serves it with
    /// [`Server::serve_listener`].
    ///
    /// # Errors
    ///
    /// Propagates bind errors and fatal accept/poll errors.
    pub fn run_tcp(&self, addr: &str) -> std::io::Result<()> {
        let listener = std::net::TcpListener::bind(addr)?;
        self.serve_listener(listener)
    }

    /// The nonblocking TCP front end: a single readiness loop over
    /// nonblocking sockets multiplexes every connection — accept, read,
    /// line-extract, enqueue, reply-collect, write — while the bounded
    /// worker pool runs the searches. No thread-per-connection: the
    /// accept loop enforces [`ServerConfig::max_connections`] (excess
    /// clients get one in-band error line), a full job queue produces
    /// in-band `busy` responses instead of unbounded buffering, idle
    /// connections time out after [`ServerConfig::io_timeout_ms`], and
    /// per-connection responses keep request order. On shutdown the loop
    /// stops reading, drains every in-flight job, writes the pending
    /// replies, and flushes the store before returning.
    ///
    /// # Errors
    ///
    /// Propagates fatal accept/poll errors (per-connection I/O errors
    /// just close that connection).
    pub fn serve_listener(&self, listener: std::net::TcpListener) -> std::io::Result<()> {
        use std::collections::VecDeque;
        use std::io::Read;

        listener.set_nonblocking(true)?;

        enum Pending {
            Reply(mpsc::Receiver<String>),
            Ready(String),
        }
        struct Conn {
            stream: std::net::TcpStream,
            inbuf: Vec<u8>,
            /// Answer lines not yet fully written; `written` bytes of it
            /// are already on the wire. Cleared once everything is.
            outbuf: String,
            written: usize,
            pending: VecDeque<Pending>,
            last_activity: Instant,
            eof: bool,
            dead: bool,
        }

        struct Job {
            plan: Box<SearchPlan>,
            version: u32,
            t0: Instant,
            reply: mpsc::Sender<String>,
        }
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(self.cfg.workers.max(1) * 4);
        let job_rx = Mutex::new(job_rx);
        let io_timeout = Duration::from_millis(self.cfg.io_timeout_ms.max(1));

        std::thread::scope(|s| {
            for _ in 0..self.cfg.workers.max(1) {
                s.spawn(|| loop {
                    let job = {
                        let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
                        rx.recv()
                    };
                    let Ok(job) = job else { break };
                    let Job {
                        plan,
                        version,
                        t0,
                        reply,
                    } = job;
                    let mut resp = String::new();
                    self.run_search_plan(*plan, version, &mut resp);
                    self.stats.observe_latency(
                        u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                    );
                    let _ = reply.send(resp);
                });
            }

            let mut conns: Vec<Conn> = Vec::new();
            let mut result = Ok(());
            let mut idle_passes = 0u32;
            'serve: loop {
                let mut progressed = false;

                // Accept — up to the connection limit; beyond it clients
                // get one in-band refusal line instead of a silent drop
                // or an unbounded connection table.
                loop {
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            progressed = true;
                            if self.shutting_down() {
                                continue; // closing; the stream drops
                            }
                            if conns.len() >= self.cfg.max_connections.max(1) {
                                self.stats.busy.fetch_add(1, Ordering::Relaxed);
                                let mut stream = stream;
                                let _ = stream.set_nodelay(true);
                                let _ = stream.set_nonblocking(false);
                                let _ = writeln!(
                                    stream,
                                    "{}",
                                    protocol::busy_response(
                                        "connection limit reached, retry later"
                                    )
                                );
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            // Line-sized writes must not sit in Nagle's
                            // buffer waiting for an ACK.
                            let _ = stream.set_nodelay(true);
                            conns.push(Conn {
                                stream,
                                inbuf: Vec::new(),
                                outbuf: String::new(),
                                written: 0,
                                pending: VecDeque::new(),
                                last_activity: Instant::now(),
                                eof: false,
                                dead: false,
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            self.shutdown.store(true, Ordering::Release);
                            result = Err(e);
                            break 'serve;
                        }
                    }
                }

                // Read and enqueue complete lines, per connection.
                let mut buf = [0u8; 4096];
                for conn in &mut conns {
                    if conn.eof || conn.dead {
                        continue;
                    }
                    loop {
                        match conn.stream.read(&mut buf) {
                            Ok(0) => {
                                conn.eof = true;
                                break;
                            }
                            Ok(n) => {
                                progressed = true;
                                conn.last_activity = Instant::now();
                                conn.inbuf.extend_from_slice(&buf[..n]);
                                if conn.inbuf.len() > protocol::MAX_REQUEST_BYTES {
                                    conn.pending.push_back(Pending::Ready(
                                        protocol::error_response("request line too long"),
                                    ));
                                    conn.eof = true;
                                    break;
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                conn.dead = true;
                                break;
                            }
                        }
                    }
                    // Lines are parsed where they were read; what they
                    // used is dropped from the buffer once per pass.
                    let mut consumed = 0;
                    while let Some(len) = conn.inbuf[consumed..].iter().position(|&b| b == b'\n') {
                        let raw = &conn.inbuf[consumed..consumed + len];
                        consumed += len + 1;
                        let text = String::from_utf8_lossy(raw);
                        let line = text.trim();
                        if line.is_empty() {
                            continue;
                        }
                        progressed = true;
                        if self.shutting_down() {
                            conn.pending
                                .push_back(Pending::Ready(protocol::error_response(
                                    "server is shutting down",
                                )));
                            continue;
                        }
                        // Fast path, inline on the readiness loop: parse
                        // errors, stats, shutdown and cache hits complete
                        // in microseconds — only plans that actually need
                        // a simulator-bound search ride the job queue. An
                        // inline answer with nothing queued ahead of it
                        // goes straight into the socket buffer.
                        let t0 = Instant::now();
                        let direct = conn.pending.is_empty();
                        let mut queued = String::new();
                        let out = if direct {
                            &mut conn.outbuf
                        } else {
                            &mut queued
                        };
                        let Some((plan, version)) = self.answer_inline(line, out) else {
                            self.stats.observe_latency(
                                u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                            );
                            if direct {
                                conn.outbuf.push('\n');
                            } else {
                                conn.pending.push_back(Pending::Ready(queued));
                            }
                            continue;
                        };
                        let (reply_tx, reply_rx) = mpsc::channel();
                        match job_tx.try_send(Job {
                            plan,
                            version,
                            t0,
                            reply: reply_tx,
                        }) {
                            Ok(()) => conn.pending.push_back(Pending::Reply(reply_rx)),
                            Err(mpsc::TrySendError::Full(_)) => {
                                // Backpressure: answer in-band instead of
                                // growing an unbounded backlog. The reply
                                // still rides the ordered pending queue.
                                self.stats.busy.fetch_add(1, Ordering::Relaxed);
                                conn.pending
                                    .push_back(Pending::Ready(protocol::busy_response(
                                        "job queue full, retry later",
                                    )));
                            }
                            Err(mpsc::TrySendError::Disconnected(_)) => {
                                conn.dead = true;
                                break;
                            }
                        }
                    }
                    conn.inbuf.drain(..consumed);
                }

                // Collect finished replies in request order and write.
                for conn in &mut conns {
                    if conn.dead {
                        continue;
                    }
                    loop {
                        let ready = match conn.pending.front_mut() {
                            None => None,
                            Some(Pending::Ready(_)) => match conn.pending.pop_front() {
                                Some(Pending::Ready(r)) => Some(r),
                                _ => unreachable!("front checked above"),
                            },
                            Some(Pending::Reply(rx)) => match rx.try_recv() {
                                Ok(resp) => {
                                    conn.pending.pop_front();
                                    Some(resp)
                                }
                                Err(mpsc::TryRecvError::Empty) => None,
                                Err(mpsc::TryRecvError::Disconnected) => {
                                    conn.pending.pop_front();
                                    Some(protocol::error_response("worker dropped the request"))
                                }
                            },
                        };
                        let Some(resp) = ready else { break };
                        progressed = true;
                        conn.last_activity = Instant::now();
                        conn.outbuf.push_str(&resp);
                        conn.outbuf.push('\n');
                    }
                    while conn.written < conn.outbuf.len() {
                        match conn.stream.write(&conn.outbuf.as_bytes()[conn.written..]) {
                            Ok(0) => {
                                conn.dead = true;
                                break;
                            }
                            Ok(n) => {
                                progressed = true;
                                conn.last_activity = Instant::now();
                                conn.written += n;
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                conn.dead = true;
                                break;
                            }
                        }
                    }
                    if conn.written == conn.outbuf.len() {
                        conn.outbuf.clear();
                        conn.written = 0;
                    }
                }

                // Cull connections that are finished or have idled out.
                conns.retain(|c| {
                    if c.dead {
                        return false;
                    }
                    let drained = c.pending.is_empty() && c.outbuf.is_empty();
                    if c.eof && drained {
                        return false;
                    }
                    // Read/write timeout: no traffic and nothing owed for
                    // the whole window — close the connection.
                    !(drained && c.last_activity.elapsed() > io_timeout)
                });

                if self.shutting_down()
                    && conns
                        .iter()
                        .all(|c| c.pending.is_empty() && c.outbuf.is_empty())
                {
                    break;
                }
                if progressed {
                    idle_passes = 0;
                } else {
                    idle_passes += 1;
                    // Active conversations turn around in microseconds, so
                    // spin-yield through short gaps; a real lull (~500
                    // empty passes) downgrades to millisecond sleeps.
                    if idle_passes < 500 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            drop(job_tx);
            result
        })?;
        // The scope joined the workers, so every accepted job has
        // finished; flush before reporting a clean exit.
        self.store.flush();
        Ok(())
    }
}

/// Renders a response value to its wire line, stamping the `"v"` marker
/// on v2 envelopes (v1 responses stay byte-identical to the PR 4 dialect,
/// which had no version field).
fn render(version: u32, value: Value) -> String {
    let value = if version >= 2 {
        match value {
            Value::Object(mut fields) => {
                fields.insert(0, ("v".to_string(), json!(2)));
                Value::Object(fields)
            }
            other => other,
        }
    } else {
        value
    };
    serde_json::to_string(&value).expect("serialize response")
}

/// The one writer of search answers — hit, warm and cold: the scalar
/// fields go through the serializer as a closed object ([`render`], so
/// `"v":2` leads on v2 and v1 stays the PR 4 dialect byte for byte), and
/// the already-rendered strategy body is spliced in as its last member.
fn write_search_response(out: &mut String, version: u32, req: &SearchRequest, a: &Answer<'_>) {
    let head = render(
        version,
        json!({
            "status": "ok",
            "cache": a.outcome.as_str(),
            "model": req.model,
            "gpus": req.gpus,
            "cluster": cluster_name(req.cluster),
            "budget_class": a.class,
            "microbatches": a.microbatches,
            "param_sync": req.param_sync,
            "recompute": req.recompute,
            "cost_us": a.cost_us,
            "evals": a.evals,
            "cached_evals": a.cached_evals,
        }),
    );
    out.reserve(head.len() + a.body.len() + 1);
    out.push_str(&head[..head.len() - 1]);
    out.push(',');
    out.push_str(a.body);
    out.push('}');
}

/// Builds the `(graph, topology)` pair a search request names — shared by
/// the server and the benchmarks so cache keys line up.
///
/// A100 requests build hierarchical NVSwitch-island clusters (paper
/// clusters only cover the paper's hardware); P100/K80 requests keep the
/// flat Fig. 6 builders so existing cache keys are untouched.
///
/// # Errors
///
/// Returns a message for cluster shapes that cannot be built (e.g. an
/// A100 count that is not a whole number of islands) — the server answers
/// these in-band instead of panicking a worker.
pub fn try_build_workload(req: &SearchRequest) -> Result<(OpGraph, Topology), String> {
    let batch = if req.model == "alexnet" { 256 } else { 64 };
    let topo = match req.cluster {
        DeviceKind::A100 => {
            let width = clusters::island_width(req.cluster);
            clusters::preset(&format!("a100x{}-ib", req.gpus))
                .map_err(|e| format!("{e} (gpus must be a multiple of {width})"))?
        }
        _ => clusters::paper_cluster(req.cluster, req.gpus),
    };
    Ok((zoo::by_name(&req.model, batch), topo))
}

/// Infallible [`try_build_workload`] for callers whose requests are
/// pre-validated (benchmarks, tests).
///
/// # Panics
///
/// Panics where [`try_build_workload`] errors.
pub fn build_workload(req: &SearchRequest) -> (OpGraph, Topology) {
    try_build_workload(req).unwrap_or_else(|e| panic!("{e}"))
}

/// Convenience: extracts a named top-level field from a response line
/// (test/bench helper — responses are flat JSON objects).
pub fn response_field(line: &str, key: &str) -> Option<Value> {
    let v: Value = serde_json::from_str(line).ok()?;
    v.get_field(key).cloned()
}

/// Which front end a [`ServerHandle`] runs.
#[derive(Debug, Clone)]
enum Front {
    /// No serve loop configured: `handle_line`/`run_batch` only.
    None,
    /// TCP listener address (`HOST:PORT`).
    Tcp(String),
    /// Unix-domain socket path.
    Socket(PathBuf),
}

/// Builder for the assembled serving product: engine + store + front end
/// + polish daemon. See [`ServerHandle::builder`].
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    cfg: ServerConfig,
    front: Front,
    polish: Option<PolishConfig>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self {
            cfg: ServerConfig::default(),
            front: Front::None,
            polish: None,
        }
    }
}

impl ServerBuilder {
    /// Sets the worker-pool size.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Sets the cache persistence root.
    #[must_use]
    pub fn cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.cache_path = Some(path.into());
        self
    }

    /// Sets the LRU bounds the store enforces.
    #[must_use]
    pub fn cache_bounds(mut self, bounds: CacheBounds) -> Self {
        self.cfg.cache_bounds = bounds;
        self
    }

    /// Sets the shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Sets the server-side microbatch floor.
    #[must_use]
    pub fn default_microbatches(mut self, floor: u64) -> Self {
        self.cfg.default_microbatches = floor;
        self
    }

    /// Sets the TCP connection limit.
    #[must_use]
    pub fn max_connections(mut self, conns: usize) -> Self {
        self.cfg.max_connections = conns;
        self
    }

    /// Sets the idle-connection timeout in milliseconds.
    #[must_use]
    pub fn io_timeout_ms(mut self, ms: u64) -> Self {
        self.cfg.io_timeout_ms = ms;
        self
    }

    /// Uses the legacy single-map store instead of the sharded one.
    #[must_use]
    pub fn legacy_store(mut self, legacy: bool) -> Self {
        self.cfg.legacy_store = legacy;
        self
    }

    /// Serves a TCP listener at `addr` when [`ServerHandle::run`] is
    /// called.
    #[must_use]
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.front = Front::Tcp(addr.into());
        self
    }

    /// Serves a Unix-domain socket at `path` when [`ServerHandle::run`]
    /// is called.
    #[must_use]
    pub fn socket(mut self, path: impl Into<PathBuf>) -> Self {
        self.front = Front::Socket(path.into());
        self
    }

    /// Enables the background polish daemon with the given config.
    #[must_use]
    pub fn polish(mut self, cfg: PolishConfig) -> Self {
        self.polish = Some(cfg);
        self
    }

    /// Builds the server and starts the polish daemon (if enabled).
    pub fn build(self) -> ServerHandle {
        let server = Arc::new(Server::new(self.cfg));
        let polish_stop = Arc::new(AtomicBool::new(false));
        let polish_thread = self.polish.map(|cfg| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&polish_stop);
            std::thread::spawn(move || crate::polish::run_daemon(&server, &cfg, &stop))
        });
        ServerHandle {
            server,
            front: self.front,
            polish_stop,
            polish_thread,
        }
    }
}

/// The assembled serving product: a [`Server`] plus its configured front
/// end and (optionally) the background polish daemon. Dropping the handle
/// stops the daemon; the engine itself is reachable via
/// [`ServerHandle::server`] and the delegates below.
pub struct ServerHandle {
    server: Arc<Server>,
    front: Front,
    polish_stop: Arc<AtomicBool>,
    polish_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Starts a builder with the defaults of [`ServerConfig`].
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// The engine behind this handle.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Delegates to [`Server::handle_line`].
    pub fn handle_line(&self, line: &str) -> String {
        self.server.handle_line(line)
    }

    /// Delegates to [`Server::run_batch`].
    ///
    /// # Errors
    ///
    /// See [`Server::run_batch`].
    pub fn run_batch(&self, input: impl BufRead, output: impl Write) -> std::io::Result<()> {
        self.server.run_batch(input, output)
    }

    /// Runs the configured front end (TCP or Unix socket) until a client
    /// sends `shutdown`, then stops the polish daemon.
    ///
    /// # Errors
    ///
    /// Propagates the serve loop's errors; a handle built without
    /// [`ServerBuilder::tcp`] or [`ServerBuilder::socket`] reports
    /// [`std::io::ErrorKind::Unsupported`].
    pub fn run(&mut self) -> std::io::Result<()> {
        let result = match &self.front {
            Front::Tcp(addr) => self.server.run_tcp(addr),
            Front::Socket(path) => self.server.run_socket(path),
            Front::None => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "no front end configured; use run_batch or handle_line",
            )),
        };
        self.stop_polish();
        result
    }

    /// Stops and joins the polish daemon (idempotent; also runs on drop).
    pub fn stop_polish(&mut self) {
        self.polish_stop.store(true, Ordering::Release);
        if let Some(thread) = self.polish_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_polish();
    }
}
