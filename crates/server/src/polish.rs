//! The background polish daemon: idle worker cycles spent making the
//! cache *better*, not just warmer.
//!
//! A serving daemon's steady state is mostly hits — the workers sit
//! idle while the cache answers from memory. Those cycles are exactly
//! the budget the original requests didn't have: the daemon picks the
//! **hottest** entry (most hits since last polished), re-searches it
//! warm-started from its own cached strategy at an **escalating**
//! budget ([`Budget::escalated`]: double the entry's recorded effort,
//! then double again each round), and publishes the result through a
//! version-checked CAS ([`StrategyStore::upgrade`]) so a concurrent
//! foreground insert can never be overwritten by a *worse* polish
//! result:
//!
//! ```text
//!   hottest() ──> re-search (warm, 2^round × evals) ──> upgrade(CAS)
//!      │                                                   │
//!      │  version matched: publish if cost <= cached       │
//!      │  version moved:   publish only if strictly better │
//!      └── either way the entry cools (hits reset) ────────┘
//! ```
//!
//! Polishing never makes a served answer worse: a published record has
//! at-least-as-good simulated cost and a *larger* recorded `evals`, so
//! it also answers harder budget classes than the entry it replaced.

use crate::cache::{composite_class, split_class, CacheEntry};
use crate::protocol::{self, SearchRequest};
use crate::server::{cluster_from_name, try_build_workload, Server};
#[cfg(doc)]
use crate::store::StrategyStore;
use crate::store::{HotEntry, Upgrade};
use flexflow_core::strategy_io;
use flexflow_core::{Budget, SimConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Polish daemon tunables.
#[derive(Debug, Clone)]
pub struct PolishConfig {
    /// Sleep between polish passes in milliseconds.
    pub interval_ms: u64,
    /// Rounds per entry before the daemon considers it done (the budget
    /// doubles each round, so 6 rounds spend `~2^7×` the original
    /// search effort in total).
    pub max_rounds: u32,
    /// Hard cap on a single polish search's evaluation budget.
    pub max_evals: u64,
    /// MCMC chains per polish search (1 keeps polish strictly cheaper
    /// than foreground traffic).
    pub chains: usize,
    /// Base RNG seed; each search mixes in the graph signature and the
    /// round so repeated polishes explore differently but
    /// deterministically.
    pub seed: u64,
}

impl Default for PolishConfig {
    fn default() -> Self {
        Self {
            interval_ms: 200,
            max_rounds: 6,
            max_evals: protocol::MAX_EVALS,
            chains: 1,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// What one [`step`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum PolishOutcome {
    /// Nothing to polish (empty store, foreground traffic in flight, or
    /// every hot entry already fully polished).
    Idle,
    /// A strictly-better (or equal-cost, harder-searched) record was
    /// published.
    Published {
        /// Content address that was upgraded.
        address: String,
        /// Simulated cost before the polish.
        cost_before: f64,
        /// Simulated cost after (`<= cost_before` when the version
        /// matched, `< cost_before` otherwise).
        cost_after: f64,
        /// Evaluations this polish pass spent.
        evals: u64,
    },
    /// The re-search found nothing better; the entry's round advanced.
    NoImprovement {
        /// Content address that was polished.
        address: String,
        /// Evaluations this polish pass spent.
        evals: u64,
    },
    /// A concurrent writer published something at least as good first.
    Lost {
        /// Content address that was contested.
        address: String,
    },
    /// The entry could not be polished (unknown model/cluster, signature
    /// drift, remap failure); it was cooled so the daemon moves on.
    Skipped {
        /// Content address that was skipped.
        address: String,
    },
}

/// Cools an unpolishable entry by re-publishing it unchanged: the CAS
/// resets its heat and advances its round, so [`StrategyStore::hottest`]
/// stops proposing it every pass.
fn cool(server: &Server, hot: &HotEntry) -> PolishOutcome {
    server
        .store()
        .upgrade(&hot.address, hot.version, hot.entry.clone());
    PolishOutcome::Skipped {
        address: hot.address.clone(),
    }
}

/// Runs one polish pass: pick the hottest entry, re-search it at an
/// escalated budget, CAS-publish the result. Returns what happened;
/// never blocks on foreground traffic (the store locks it takes are the
/// same microsecond-scale shard locks lookups use, and the search runs
/// outside all of them).
pub fn step(server: &Server, cfg: &PolishConfig) -> PolishOutcome {
    let Some(hot) = server.store().hottest() else {
        return PolishOutcome::Idle;
    };
    if hot.polish_round >= cfg.max_rounds {
        return PolishOutcome::Idle;
    }
    let entry = &hot.entry;

    // Rebuild the workload the entry was computed for. The audit fields
    // (model/gpus/cluster) are informational, so verify the rebuilt
    // graph/topology signatures against the record's before trusting
    // them — an entry imported from a foreign cache file polishes only
    // if it still means what it says.
    let Some(cluster) = cluster_from_name(&entry.cluster) else {
        return cool(server, &hot);
    };
    if !protocol::KNOWN_MODELS.contains(&entry.model.as_str()) {
        return cool(server, &hot);
    }
    let mut req = SearchRequest::new(entry.model.clone());
    req.gpus = entry.gpus;
    req.cluster = cluster;
    let Ok((graph, topo)) = try_build_workload(&req) else {
        return cool(server, &hot);
    };
    let Some(key) = entry.key() else {
        return cool(server, &hot);
    };
    let graph_sig = flexflow_opgraph::graph_signature(&graph);
    if graph_sig != key.graph_sig || topo.signature() != key.topo_sig {
        return cool(server, &hot);
    }
    let Ok(seed_strategy) = strategy_io::remap_onto(&graph, &topo, &entry.record.dump) else {
        return cool(server, &hot);
    };

    // Same SOAP axes the entry was searched under, read back out of its
    // budget class — polishing must not move an entry between classes'
    // exact-match components, only along the ordered eval axis.
    let (rc, ps, mb, _ev) = split_class(entry.budget_class);
    let max_microbatches = u64::from(mb.max(1));
    let budget = Budget::escalated(
        entry.record.evals,
        hot.polish_round,
        cfg.max_evals.min(protocol::MAX_EVALS),
    );
    let search_seed = cfg.seed ^ graph_sig ^ u64::from(hot.polish_round);
    let result = flexflow_core::SearchRequest::new(search_seed)
        .chains(cfg.chains.max(1))
        .max_microbatches(max_microbatches)
        .param_sync(ps == 1)
        .recompute(rc == 1)
        .run_warm(
            &graph,
            &topo,
            &flexflow_costmodel::MeasuredCostModel::paper_default(),
            seed_strategy,
            budget,
            SimConfig::default(),
        );

    let stats = server.stats();
    stats.polish_runs.fetch_add(1, Ordering::Relaxed);
    stats
        .polish_evals
        .fetch_add(result.evals, Ordering::Relaxed);

    // The candidate's recorded effort is cumulative (original + polish),
    // so its budget class answers everything the old entry did and more.
    let total_evals = entry.record.evals.saturating_add(result.evals);
    let candidate = CacheEntry {
        budget_class: composite_class(total_evals, max_microbatches, ps == 1, rc == 1),
        model: entry.model.clone(),
        gpus: entry.gpus,
        cluster: entry.cluster.clone(),
        record: strategy_io::export_record(
            &graph,
            &topo,
            &result.best,
            result.best_cost_us,
            total_evals,
        ),
    };
    let cost_before = entry.record.cost_us;
    let cost_after = result.best_cost_us;
    if cost_after > cost_before {
        // Strictly worse: don't even offer it to the CAS — advance the
        // round by re-publishing the current entry unchanged.
        server
            .store()
            .upgrade(&hot.address, hot.version, entry.clone());
        return PolishOutcome::NoImprovement {
            address: hot.address.clone(),
            evals: result.evals,
        };
    }
    match server.store().upgrade(&hot.address, hot.version, candidate) {
        Upgrade::Published => {
            stats.polish_published.fetch_add(1, Ordering::Relaxed);
            PolishOutcome::Published {
                address: hot.address.clone(),
                cost_before,
                cost_after,
                evals: result.evals,
            }
        }
        Upgrade::Lost => PolishOutcome::Lost {
            address: hot.address.clone(),
        },
        Upgrade::NoImprovement => PolishOutcome::NoImprovement {
            address: hot.address.clone(),
            evals: result.evals,
        },
    }
}

/// The daemon loop: polish whenever the workers are idle, sleep
/// otherwise; exit when `stop` is raised or the server starts shutting
/// down. Spawned by [`crate::server::ServerBuilder::polish`].
pub fn run_daemon(server: &Arc<Server>, cfg: &PolishConfig, stop: &Arc<AtomicBool>) {
    let interval = Duration::from_millis(cfg.interval_ms.max(1));
    while !stop.load(Ordering::Acquire) && !server.shutting_down() {
        // Idle cycles only: foreground searches own the worker budget.
        if server.active_searches() == 0 && !server.store().is_empty() {
            let _ = step(server, cfg);
        }
        std::thread::sleep(interval);
    }
}
