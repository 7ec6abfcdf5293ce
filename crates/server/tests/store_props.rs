//! Property tests for the sharded LRU store's invariants: the configured
//! bounds are *never* exceeded (not even transiently observable), the
//! eviction order is exactly least-recently-used, and an evicted entry
//! degrades future requests to warm-or-miss — never a stale hit.

use flexflow_core::strategy_io::{export_record, signature_hex};
use flexflow_core::Strategy as PlacementStrategy;
use flexflow_device::clusters;
use flexflow_opgraph::zoo;
use flexflow_server::{
    CacheBounds, CacheEntry, CacheKey, ShardedStore, StoreLookup, StrategyStore,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A cache entry with forged signatures, so tests control the address
/// without building a distinct graph per case.
fn entry(graph_sig: u64, topo_sig: u64, class: u32, cost: f64) -> CacheEntry {
    let g = zoo::lenet(64);
    let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
    let s = PlacementStrategy::data_parallel(&g, &topo);
    let mut record = export_record(&g, &topo, &s, cost, 100);
    record.graph_sig = signature_hex(graph_sig);
    record.topo_sig = signature_hex(topo_sig);
    CacheEntry {
        budget_class: class,
        model: "lenet".into(),
        gpus: 2,
        cluster: "p100".into(),
        record,
    }
}

fn addr(graph_sig: u64, topo_sig: u64, class: u32) -> String {
    CacheKey {
        graph_sig,
        topo_sig,
        budget_class: class,
    }
    .address()
}

/// One scripted store operation.
#[derive(Debug, Clone)]
enum Op {
    /// Insert at `(graph_sig, topo_sig)` with the given cost.
    Insert(u64, u64, f64),
    /// Lookup `(graph_sig, topo_sig)` at the shared class.
    Lookup(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small signature pool forces address collisions, replacements and
    // warm lookups; distinct costs keep the lower-cost-wins rule
    // deterministic.
    (0u64..6, 0u64..3, 1u64..10_000, proptest::bool::ANY).prop_map(|(g, t, c, is_insert)| {
        if is_insert {
            Op::Insert(g, t, c as f64)
        } else {
            Op::Lookup(g, t)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replays a random op script against a 1-shard bounded store and an
    /// exact reference model of the LRU semantics: the entry bound holds
    /// after every operation, and the survivor set (which addresses are
    /// still hits) matches the model's — i.e. eviction is exactly
    /// least-recently-used, with hits, warm lookups and inserts all
    /// counting as "use".
    #[test]
    fn bounded_store_matches_an_lru_shadow_model(
        ops in prop::collection::vec(op_strategy(), 1..60),
        bound in 1usize..5,
    ) {
        const CLASS: u32 = 7;
        let store = ShardedStore::in_memory(1, CacheBounds::entries(bound));
        // Model: address -> (cost, last-use tick).
        let mut model: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        let mut tick = 0u64;
        for op in &ops {
            tick += 1;
            match *op {
                Op::Insert(g, t, base_cost) => {
                    // Unique costs keep both the lower-cost-wins rule and
                    // the warm ranking free of tie-break ambiguity.
                    let cost = base_cost + tick as f64 / 1000.0;
                    let a = addr(g, t, CLASS);
                    let accepted = match model.get(&a) {
                        Some(&(held, _)) => cost < held,
                        None => true,
                    };
                    prop_assert_eq!(
                        store.insert(entry(g, t, CLASS, cost)),
                        accepted,
                        "lower-cost-wins mismatch at {}", a
                    );
                    if accepted {
                        model.insert(a, (cost, tick));
                        while model.len() > bound {
                            let oldest = model
                                .iter()
                                .min_by_key(|(_, &(_, used))| used)
                                .map(|(a, _)| a.clone())
                                .expect("non-empty");
                            model.remove(&oldest);
                        }
                    }
                }
                Op::Lookup(g, t) => {
                    let a = addr(g, t, CLASS);
                    match store.lookup(g, t, CLASS) {
                        StoreLookup::Hit { address, entry, .. } => {
                            prop_assert_eq!(&address, &a);
                            let &(cost, _) = model.get(&a).expect("model agrees this is live");
                            prop_assert!((entry.record.cost_us - cost).abs() < 1e-9);
                            model.insert(a, (cost, tick));
                        }
                        StoreLookup::Warm(_) => {
                            // Same graph, different topology survives
                            // somewhere; the exact address must be gone.
                            prop_assert!(!model.contains_key(&a), "warm shadowed a live hit");
                            // The touched warm entry also counts as used —
                            // mirror it. With every entry at the same
                            // class, the warm ranking reduces to
                            // lowest-cost-wins among same-graph entries
                            // (costs are unique by construction).
                            let warm_addr = model
                                .iter()
                                .filter(|(k, _)| k.starts_with(&format!("g{g:016x}-")))
                                .min_by(|(_, (a, _)), (_, (b, _))| a.total_cmp(b))
                                .map(|(k, _)| k.clone());
                            if let Some(w) = warm_addr {
                                let cost = model[&w].0;
                                model.insert(w, (cost, tick));
                            }
                        }
                        StoreLookup::Miss => {
                            prop_assert!(!model.contains_key(&a), "miss shadowed a live hit");
                        }
                    }
                }
            }
            prop_assert!(store.len() <= bound, "entry bound exceeded: {} > {bound}", store.len());
        }
        // Survivor sets agree exactly.
        for (a, &(cost, _)) in &model {
            let (g, t) = parse_addr(a);
            match store.lookup(g, t, CLASS) {
                StoreLookup::Hit { entry, .. } => {
                    prop_assert!((entry.record.cost_us - cost).abs() < 1e-9);
                }
                other => prop_assert!(false, "model says {a} is live, store says {other:?}"),
            }
        }
        prop_assert_eq!(store.len(), model.len());
    }

    /// The byte bound holds after every insert, across shard counts, and
    /// eviction accounts for everything that went missing.
    #[test]
    fn byte_bound_holds_under_churn(
        sigs in prop::collection::vec((0u64..64, 1u64..10_000), 1..40),
        shards in 1usize..5,
        slots in 2u64..6,
    ) {
        let one = {
            // Probe the serialized size of a representative entry.
            let probe = ShardedStore::in_memory(1, CacheBounds::unbounded());
            probe.insert(entry(0, 0, 7, 9999.0));
            probe.bytes()
        };
        let cap = one * slots;
        let store = ShardedStore::in_memory(shards, CacheBounds {
            max_entries: usize::MAX,
            max_bytes: cap,
        });
        let mut accepted = 0u64;
        for &(g, cost) in &sigs {
            if store.insert(entry(g, 1, 7, cost as f64)) {
                accepted += 1;
            }
            prop_assert!(store.bytes() <= cap, "byte bound exceeded: {} > {cap}", store.bytes());
        }
        let stats = store.shard_stats();
        let evictions: u64 = stats.iter().map(|s| s.evictions).sum();
        let inserts: u64 = stats.iter().map(|s| s.inserts).sum();
        prop_assert_eq!(inserts, accepted);
        // Every accepted insert either replaced in place, survived, or
        // was evicted; the store never leaks entries past its own count.
        prop_assert!(store.len() as u64 + evictions <= accepted);
    }

    /// Once an entry is evicted, the request that used to hit it degrades
    /// to a *warm* lookup seeded by the surviving same-graph entry — never
    /// a hit on stale data.
    #[test]
    fn hit_after_evict_degrades_to_warm(
        g in 0u64..100,
        churn in 100u64..200,
        class in 1u32..20,
    ) {
        let store = ShardedStore::in_memory(1, CacheBounds::entries(2));
        // Two entries for the same graph on different topologies.
        prop_assert!(store.insert(entry(g, 1, class, 50.0)));
        prop_assert!(store.insert(entry(g, 2, class, 60.0)));
        prop_assert!(matches!(store.lookup(g, 1, class), StoreLookup::Hit { .. }));
        // Keep (g, topo 2) warm while churning a third address in: the
        // LRU victim is (g, topo 1).
        prop_assert!(matches!(store.lookup(g, 2, class), StoreLookup::Hit { .. }));
        prop_assert!(store.insert(entry(churn, 1, class, 70.0)));
        prop_assert_eq!(store.len(), 2);
        match store.lookup(g, 1, class) {
            StoreLookup::Warm(e) => {
                // The seed is the surviving sibling, not the evicted entry.
                prop_assert_eq!(&e.record.topo_sig, &signature_hex(2));
            }
            other => prop_assert!(false, "expected warm after eviction, got {other:?}"),
        }
    }
}

/// `--cache-entries` (and `--cache-bytes`) bound each shard, not the
/// store: two shards of eight hold sixteen. ffbench's `serve_churn`
/// (`--cache-entries 8 --shards 2`, 14 resident at the end) is sized on
/// this.
#[test]
fn cache_bounds_apply_to_each_shard() {
    let store = ShardedStore::in_memory(2, CacheBounds::entries(8));
    // The shard is the signature's top byte modulo the shard count: ten
    // graphs for either shard.
    for g in 0..20u64 {
        assert!(store.insert(entry(g << 56, 1, 7, 100.0)));
    }
    assert_eq!(store.len(), 16, "a full store holds shards x max_entries");
    let stats = store.shard_stats();
    assert_eq!(
        stats
            .iter()
            .map(|s| (s.entries, s.evictions))
            .collect::<Vec<_>>(),
        [(8, 2), (8, 2)]
    );
    // Graphs that all fall into one shard get that shard's budget only.
    let lopsided = ShardedStore::in_memory(2, CacheBounds::entries(8));
    for g in 0..20u64 {
        assert!(lopsided.insert(entry(g << 57, 1, 7, 100.0)));
    }
    assert_eq!(lopsided.len(), 8);
}

/// Parses `g<hex>-t<hex>-b<dec>` back into `(graph_sig, topo_sig)`.
fn parse_addr(a: &str) -> (u64, u64) {
    let g = u64::from_str_radix(&a[1..17], 16).expect("graph sig");
    let t = u64::from_str_radix(&a[19..35], 16).expect("topo sig");
    (g, t)
}
