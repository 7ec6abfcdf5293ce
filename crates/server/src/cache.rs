//! The content-addressed strategy cache.
//!
//! A strategy is worth caching because it is expensive to find (minutes of
//! MCMC on big clusters) and cheap to store (a few hundred bytes of degree
//! vectors and device indices). The cache key is **content-addressed** —
//! it names the *computation*, not the request:
//!
//! ```text
//! g<graph signature>-t<topology signature>-b<budget class>
//! ```
//!
//! - the graph signature ([`flexflow_opgraph::graph_signature`]) is
//!   canonical over insertion order, op names and layer numbering, so any
//!   client building the same dataflow addresses the same entry;
//! - the topology signature ([`Topology::signature`](flexflow_device::Topology::signature))
//!   covers devices, routes and link contention structure;
//! - the budget class buckets the evaluation budget by bit length
//!   ([`budget_class`]), so "how hard was this searched" is part of the
//!   address without fragmenting the cache per exact eval count.
//!
//! [`StrategyCache::lookup`] answers three ways: **hit** (an entry for the
//! same graph and topology searched at least as hard — servable with zero
//! simulator evaluations), **warm** (an entry for the same graph on a
//! different topology, or searched less hard — a seed for
//! [`SearchRequest::run_warm`](flexflow_core::SearchRequest::run_warm)
//! after [`strategy_io::remap_onto`](flexflow_core::strategy_io::remap_onto)),
//! or **miss**.
//!
//! Entries persist as JSON files of versioned, signature-stamped
//! [`StrategyRecord`]s, reloaded on startup and rewritten atomically
//! (temp file + rename) on every accepted insert. This module is the
//! single-map primitive; [`crate::store`] layers sharding, LRU bounds and
//! the [`StrategyStore`](crate::store::StrategyStore) trait on top of it.
//!
//! In memory an entry lives behind an `Arc` as a [`StoredEntry`]: the
//! [`CacheEntry`] together with what every lookup and every hit would
//! otherwise recompute from it — its parsed [`CacheKey`], its content
//! address, and its `"strategy":{…}` response member ([`strategy_body`]),
//! rendered once when the entry is inserted or loaded.

use flexflow_core::strategy_io::{
    parse_signature_hex, StrategyDump, StrategyRecord, FORMAT_VERSION, MIN_FORMAT_VERSION,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;

/// On-disk cache file version; bump on incompatible layout changes.
pub const CACHE_FILE_VERSION: u32 = 1;

/// Buckets an evaluation budget by bit length: class 1 covers 1 eval,
/// class 2 covers 2..=3, class 11 covers 1024..=2047, and so on. An entry
/// of class `b` answers any request of class `<= b` — the cached strategy
/// was searched at least as hard as the request asks.
pub fn budget_class(evals: u64) -> u32 {
    64 - evals.max(1).leading_zeros()
}

/// Folds the request's search-axis knobs into the budget class: the low
/// byte is the [`budget_class`] of the evaluation budget, bits 8..16
/// carry the exact microbatch cap **when pipelining is enabled** (`0`
/// when `max_microbatches <= 1`), bit 16 marks a search with the
/// parameter-sync axis enabled, and bit 17 one with the
/// activation-recompute axis enabled (`0` when off — so every
/// pre-pipeline, pre-param-sync and pre-recompute cache entry and request
/// keeps its original class value, and old cache files stay addressable).
///
/// The components are compared differently by [`StrategyCache::lookup`]:
/// eval classes order (searched harder answers softer), while the
/// microbatch cap, param-sync flag and recompute flag must match exactly
/// — a strategy searched with any axis enabled may use settings (`m > 1`,
/// ZeRO/PS sync, recompute bits) the plainer requester cannot execute,
/// and vice versa the axis-enabled requester wants the larger space
/// actually searched.
pub fn composite_class(
    evals: u64,
    max_microbatches: u64,
    param_sync: bool,
    recompute: bool,
) -> u32 {
    let mb = if max_microbatches > 1 {
        u32::try_from(max_microbatches.min(255)).expect("capped at 255")
    } else {
        0
    };
    budget_class(evals) | (mb << 8) | (u32::from(param_sync) << 16) | (u32::from(recompute) << 17)
}

/// Splits a [`composite_class`] into
/// `(recompute flag, param-sync flag, microbatch cap, eval class)`.
pub(crate) fn split_class(class: u32) -> (u32, u32, u32, u32) {
    (
        (class >> 17) & 1,
        (class >> 16) & 1,
        (class >> 8) & 0xff,
        class & 0xff,
    )
}

/// A fully resolved cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    /// Canonical op-graph signature.
    pub graph_sig: u64,
    /// Topology content signature.
    pub topo_sig: u64,
    /// Bit-length bucket of the evaluation budget.
    pub budget_class: u32,
}

impl CacheKey {
    /// The content address this key stores under.
    pub fn address(&self) -> String {
        format!(
            "g{:016x}-t{:016x}-b{:02}",
            self.graph_sig, self.topo_sig, self.budget_class
        )
    }
}

/// One cached strategy: the signed record plus request-facing audit fields
/// (what model/cluster the entry was first computed for — informational
/// only; the signatures are the authority).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CacheEntry {
    /// Budget class the entry was searched under.
    pub budget_class: u32,
    /// Model name of the first request that produced the entry.
    pub model: String,
    /// GPU count of that request.
    pub gpus: usize,
    /// Cluster flavour of that request.
    pub cluster: String,
    /// The signed, versioned strategy record.
    pub record: StrategyRecord,
}

impl CacheEntry {
    /// The entry's content-addressed key, if its stored signatures parse.
    pub fn key(&self) -> Option<CacheKey> {
        Some(CacheKey {
            graph_sig: parse_signature_hex(&self.record.graph_sig)?,
            topo_sig: parse_signature_hex(&self.record.topo_sig)?,
            budget_class: self.budget_class,
        })
    }
}

/// Renders the `"strategy":{…}` member that ends every search answer.
/// Cold and warm answers call it on the dump they just found, the cache
/// calls it once per stored entry, so a hit's strategy tail equals the
/// searching answer's byte for byte.
pub fn strategy_body(dump: &StrategyDump) -> String {
    let mut body = String::from("\"strategy\":");
    body.push_str(&serde_json::to_string(dump).expect("serialize strategy"));
    body
}

/// A [`CacheEntry`] as the cache holds it (see the module docs).
/// Immutable once built; dereferences to the entry.
#[derive(Debug, PartialEq)]
pub struct StoredEntry {
    entry: CacheEntry,
    key: CacheKey,
    address: String,
    body: String,
}

impl StoredEntry {
    /// Parses the entry's key and renders its body; `None` when the
    /// stored signatures do not parse.
    pub fn new(entry: CacheEntry) -> Option<Self> {
        let key = entry.key()?;
        Some(Self {
            key,
            address: key.address(),
            body: strategy_body(&entry.record.dump),
            entry,
        })
    }

    /// The entry's key, parsed once at construction.
    pub fn cache_key(&self) -> CacheKey {
        self.key
    }

    /// The content address the entry stores under.
    pub fn address(&self) -> &str {
        &self.address
    }

    /// The entry's [`strategy_body`].
    pub fn body(&self) -> &str {
        &self.body
    }
}

impl std::ops::Deref for StoredEntry {
    type Target = CacheEntry;

    fn deref(&self) -> &CacheEntry {
        &self.entry
    }
}

/// Serialized form of the whole cache.
#[derive(Debug, Serialize, Deserialize)]
struct CacheFile {
    version: u32,
    entries: Vec<CacheEntry>,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lookup<'a> {
    /// Same graph, same topology, searched at least as hard: servable
    /// as-is, zero simulator evaluations.
    Hit(&'a Arc<StoredEntry>),
    /// Same graph but a different topology or a smaller budget: a seed
    /// for warm-started search.
    Warm(&'a Arc<StoredEntry>),
    /// Nothing reusable.
    Miss,
}

/// The in-memory cache: content address -> entry, kept sorted so the
/// persisted file is deterministic and every entry of one graph sits in
/// one contiguous `g<sig>-` range.
#[derive(Debug, Default)]
pub struct StrategyCache {
    entries: BTreeMap<String, Arc<StoredEntry>>,
}

impl StrategyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached strategies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Loads a cache file. A missing file is an empty cache (first run);
    /// a malformed or version-incompatible file is an error — the caller
    /// decides whether to start empty or abort. Entries whose record
    /// version or signatures do not parse are skipped, not fatal: one
    /// stale entry must not take the whole cache down.
    ///
    /// # Errors
    ///
    /// Returns a message for unreadable files, malformed JSON, or an
    /// unsupported cache file version.
    pub fn load(path: &Path) -> Result<Self, String> {
        if !path.exists() {
            return Ok(Self::new());
        }
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let file: CacheFile =
            serde_json::from_str(&text).map_err(|e| format!("cannot parse {path:?}: {e}"))?;
        if file.version != CACHE_FILE_VERSION {
            return Err(format!(
                "cache file {path:?} is v{}, this build reads v{CACHE_FILE_VERSION}",
                file.version
            ));
        }
        let mut cache = Self::new();
        for entry in file.entries {
            // Records from MIN_FORMAT_VERSION on still import (older dumps
            // default to microbatches = 1), so pre-pipeline cache files
            // keep serving.
            if (MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&entry.record.version)
                && entry.key().is_some()
            {
                cache.insert(entry);
            }
        }
        Ok(cache)
    }

    /// Serializes the whole cache to its on-disk JSON form — a consistent
    /// snapshot the caller can persist with [`write_snapshot`] *after*
    /// releasing whatever lock guards the cache (serialization is pure
    /// string work; the disk write and fsync should never run under a
    /// lock that concurrent lookups need).
    pub fn snapshot_json(&self) -> String {
        let file = CacheFile {
            version: CACHE_FILE_VERSION,
            entries: self.entries.values().map(|e| e.entry.clone()).collect(),
        };
        serde_json::to_string_pretty(&file).expect("serialize cache")
    }

    /// Writes the cache atomically (see [`write_snapshot`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the temp write or the rename.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_snapshot(path, &self.snapshot_json())
    }

    /// Looks up the best answer for `(graph_sig, topo_sig, class)` among
    /// the graph's entries — one range scan over its `g<sig>-` address
    /// prefix, whatever else the cache holds.
    ///
    /// Hits prefer the hardest-searched entry (highest budget class),
    /// then the lowest cost. Warm candidates prefer entries for the same
    /// topology (their device assignment survives verbatim), then the
    /// hardest-searched, then the cheapest — deterministic because the
    /// underlying map iterates in address order.
    pub fn lookup(&self, graph_sig: u64, topo_sig: u64, class: u32) -> Lookup<'_> {
        let (want_rc, want_ps, want_mb, want_ev) = split_class(class);
        let mut hit: Option<&Arc<StoredEntry>> = None;
        let mut warm: Option<&Arc<StoredEntry>> = None;
        let prefix = format!("g{graph_sig:016x}-");
        let of_graph = self
            .entries
            .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
            .take_while(|(address, _)| address.starts_with(&prefix));
        for (_, entry) in of_graph {
            let key = entry.key;
            let (got_rc, got_ps, got_mb, got_ev) = split_class(key.budget_class);
            if key.topo_sig == topo_sig
                && got_rc == want_rc
                && got_ps == want_ps
                && got_mb == want_mb
                && got_ev >= want_ev
            {
                let rank = |e: &StoredEntry| {
                    (
                        e.key.budget_class,
                        std::cmp::Reverse(e.record.cost_us.to_bits()),
                    )
                };
                if hit.is_none_or(|best| rank(best) < rank(entry)) {
                    hit = Some(entry);
                }
            } else {
                let rank = |e: &StoredEntry| {
                    let (k_rc, k_ps, k_mb, k_ev) = split_class(e.key.budget_class);
                    (
                        e.key.topo_sig == topo_sig,
                        k_rc == want_rc,
                        k_ps == want_ps,
                        k_mb == want_mb,
                        k_ev,
                        std::cmp::Reverse(e.record.cost_us.to_bits()),
                    )
                };
                if warm.is_none_or(|best| rank(entry) > rank(best)) {
                    warm = Some(entry);
                }
            }
        }
        match (hit, warm) {
            (Some(e), _) => Lookup::Hit(e),
            (None, Some(e)) => Lookup::Warm(e),
            (None, None) => Lookup::Miss,
        }
    }

    /// Inserts an entry, keeping the better strategy when the address is
    /// already occupied (lower cost wins; ties keep the incumbent).
    /// Returns whether the entry was stored. Entries with unparseable
    /// signatures are rejected.
    pub fn insert(&mut self, entry: CacheEntry) -> bool {
        StoredEntry::new(entry).is_some_and(|e| self.insert_stored(Arc::new(e)))
    }

    /// [`StrategyCache::insert`] for an entry that is already in its
    /// stored form (a loaded cache handing its entries to a shard).
    pub fn insert_stored(&mut self, entry: Arc<StoredEntry>) -> bool {
        match self.entries.get(entry.address()) {
            Some(existing) if existing.record.cost_us <= entry.record.cost_us => false,
            _ => {
                self.entries.insert(entry.address.clone(), entry);
                true
            }
        }
    }

    /// Evicts the entry at a content address (used when a stored record
    /// fails validation at serving time: a corrupt entry must not pin its
    /// address — `insert`'s lower-cost-wins rule would otherwise keep
    /// rejecting the honest replacement forever).
    pub fn remove(&mut self, address: &str) -> Option<Arc<StoredEntry>> {
        self.entries.remove(address)
    }

    /// All entries in address order.
    pub fn entries(&self) -> impl Iterator<Item = (&String, &Arc<StoredEntry>)> {
        self.entries.iter()
    }

    /// The entry stored at a content address, if any.
    pub fn get(&self, address: &str) -> Option<&Arc<StoredEntry>> {
        self.entries.get(address)
    }
}

/// Atomically persists a [`StrategyCache::snapshot_json`] snapshot:
/// write to a uniquely named temp file in the same directory, fsync, then
/// rename over `path` — a crash mid-write never corrupts the cache a
/// later startup reloads, and concurrent writers (each with their own
/// temp file) settle last-rename-wins with every intermediate state being
/// a complete snapshot.
///
/// # Errors
///
/// Propagates I/O errors from the temp write or the rename.
pub fn write_snapshot(path: &Path, json: &str) -> std::io::Result<()> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexflow_core::strategy_io::{export_record, signature_hex};
    use flexflow_core::Strategy;
    use flexflow_device::clusters;
    use flexflow_opgraph::zoo;
    use proptest::prelude::*;

    fn entry(graph_sig: u64, topo_sig: u64, class: u32, cost: f64) -> CacheEntry {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
        let s = Strategy::data_parallel(&g, &topo);
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

    /// The lookup before it became a range scan — every entry visited,
    /// its key parsed back out of the record — kept as the reference the
    /// range scan is checked against.
    fn lookup_by_full_scan(
        cache: &StrategyCache,
        graph_sig: u64,
        topo_sig: u64,
        class: u32,
    ) -> Lookup<'_> {
        let (want_rc, want_ps, want_mb, want_ev) = split_class(class);
        let mut hit: Option<(&Arc<StoredEntry>, CacheKey)> = None;
        let mut warm: Option<(&Arc<StoredEntry>, CacheKey)> = None;
        for (_, entry) in cache.entries() {
            let Some(key) = entry.key() else { continue };
            if key.graph_sig != graph_sig {
                continue;
            }
            let (got_rc, got_ps, got_mb, got_ev) = split_class(key.budget_class);
            if key.topo_sig == topo_sig
                && got_rc == want_rc
                && got_ps == want_ps
                && got_mb == want_mb
                && got_ev >= want_ev
            {
                let better = hit.is_none_or(|(best, bk)| {
                    (
                        bk.budget_class,
                        std::cmp::Reverse(best.record.cost_us.to_bits()),
                    ) < (
                        key.budget_class,
                        std::cmp::Reverse(entry.record.cost_us.to_bits()),
                    )
                });
                if better {
                    hit = Some((entry, key));
                }
            } else {
                let rank = |e: &CacheEntry, k: CacheKey| {
                    let (k_rc, k_ps, k_mb, k_ev) = split_class(k.budget_class);
                    (
                        k.topo_sig == topo_sig,
                        k_rc == want_rc,
                        k_ps == want_ps,
                        k_mb == want_mb,
                        k_ev,
                        std::cmp::Reverse(e.record.cost_us.to_bits()),
                    )
                };
                if warm.is_none_or(|(best, bk)| rank(entry, key) > rank(best, bk)) {
                    warm = Some((entry, key));
                }
            }
        }
        match (hit, warm) {
            (Some((e, _)), _) => Lookup::Hit(e),
            (None, Some((e, _))) => Lookup::Warm(e),
            (None, None) => Lookup::Miss,
        }
    }

    /// Graph signatures whose addresses sort next to each other and at
    /// both ends of the map.
    const SIGS: [u64; 6] = [0, 1, 0x10, 0x11, 0xab00_0000_0000_0001, u64::MAX];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The range scan over a graph's address prefix answers every
        /// lookup exactly as the scan of the whole map did: same outcome,
        /// same entry, ties included (costs collide on purpose).
        #[test]
        fn lookup_by_prefix_range_matches_the_full_scan(
            inserts in prop::collection::vec(
                (0usize..6, 0u64..3, 1u64..40, 0u64..3, 0u32..4, 1u64..4),
                0..40,
            ),
            queries in prop::collection::vec((0usize..6, 0u64..3, 1u64..40, 0u64..3, 0u32..4), 1..20),
        ) {
            let class = |evals: u64, mb: u64, flags: u32| {
                composite_class(evals, mb * 2, flags & 1 == 1, flags & 2 == 2)
            };
            let mut cache = StrategyCache::new();
            for &(g, t, evals, mb, flags, cost) in &inserts {
                cache.insert(entry(SIGS[g], t, class(evals, mb, flags), cost as f64));
            }
            for &(g, t, evals, mb, flags) in &queries {
                let (g, class) = (SIGS[g], class(evals, mb, flags));
                let (ranged, scanned) = (cache.lookup(g, t, class), lookup_by_full_scan(&cache, g, t, class));
                prop_assert_eq!(ranged, scanned);
                // Equal entries are not enough: it has to be the same one.
                if let (Lookup::Hit(a), Lookup::Hit(b)) | (Lookup::Warm(a), Lookup::Warm(b)) =
                    (ranged, scanned)
                {
                    prop_assert!(Arc::ptr_eq(a, b));
                }
            }
        }
    }

    #[test]
    fn stored_entries_carry_their_key_address_and_body() {
        let stored = StoredEntry::new(entry(0xabc, 0x123, 11, 100.0)).expect("signatures parse");
        assert_eq!(Some(stored.cache_key()), stored.key());
        assert_eq!(stored.address(), stored.cache_key().address());
        assert_eq!(stored.body(), strategy_body(&stored.record.dump));
        assert!(
            stored.body().starts_with("\"strategy\":{"),
            "{}",
            stored.body()
        );

        let mut unsigned = entry(1, 2, 3, 100.0);
        unsigned.record.graph_sig = "not hex".into();
        assert!(StoredEntry::new(unsigned).is_none());
    }

    #[test]
    fn budget_class_buckets_by_bit_length() {
        assert_eq!(budget_class(0), 1);
        assert_eq!(budget_class(1), 1);
        assert_eq!(budget_class(2), 2);
        assert_eq!(budget_class(1024), 11);
        assert_eq!(budget_class(1025), 11);
        assert_eq!(budget_class(2048), 12);
        assert_eq!(budget_class(u64::MAX), 64);
    }

    #[test]
    fn composite_class_separates_pipelined_requests() {
        // Pipelining off: exactly the historical class, so pre-pipeline
        // cache files keep their addresses.
        assert_eq!(composite_class(1024, 1, false, false), budget_class(1024));
        assert_eq!(composite_class(1024, 0, false, false), budget_class(1024));
        // Pipelining on: the cap rides the high bits.
        assert_eq!(
            composite_class(1024, 4, false, false),
            budget_class(1024) | (4 << 8)
        );
        assert_eq!(
            composite_class(7, 255, false, false),
            budget_class(7) | (255 << 8)
        );
        assert_eq!(
            composite_class(7, 10_000, false, false),
            budget_class(7) | (255 << 8)
        );

        // Hits require the microbatch component to match exactly: a
        // harder-searched pipelined entry must NOT answer a plain
        // request (its strategy may use m > 1) and vice versa.
        let mut c = StrategyCache::new();
        assert!(c.insert(entry(1, 2, composite_class(1024, 4, false, false), 100.0)));
        assert!(matches!(
            c.lookup(1, 2, composite_class(64, 1, false, false)),
            Lookup::Warm(_)
        ));
        assert!(matches!(
            c.lookup(1, 2, composite_class(64, 8, false, false)),
            Lookup::Warm(_)
        ));
        // Same cap, softer eval budget: a hit.
        assert!(matches!(
            c.lookup(1, 2, composite_class(64, 4, false, false)),
            Lookup::Hit(_)
        ));
    }

    #[test]
    fn composite_class_separates_param_sync_requests() {
        // Axis off: exactly the historical class, so pre-PR8 cache files
        // keep their addresses.
        assert_eq!(composite_class(1024, 1, false, false), budget_class(1024));
        // Axis on: the flag rides bit 16, orthogonal to the microbatch cap.
        assert_eq!(
            composite_class(1024, 1, true, false),
            budget_class(1024) | (1 << 16)
        );
        assert_eq!(
            composite_class(1024, 4, true, false),
            budget_class(1024) | (4 << 8) | (1 << 16)
        );

        // The bugfix this class guards: an entry searched WITH the sync
        // axis may carry ZeRO/PS modes a plain requester cannot execute,
        // so a mismatched flag must demote the near-miss to a warm seed —
        // never serve it as a hit (the pre-fix behavior treated the
        // harder-searched entry as directly servable).
        let mut c = StrategyCache::new();
        assert!(c.insert(entry(1, 2, composite_class(1024, 1, true, false), 100.0)));
        assert!(matches!(
            c.lookup(1, 2, composite_class(64, 1, false, false)),
            Lookup::Warm(_)
        ));
        // And the mirror image: an axis-on request must not be served an
        // axis-off entry as a hit (it wants the larger space searched).
        assert!(c.insert(entry(3, 2, composite_class(1024, 1, false, false), 100.0)));
        assert!(matches!(
            c.lookup(3, 2, composite_class(64, 1, true, false)),
            Lookup::Warm(_)
        ));
        // Matching flag: a hit as usual.
        assert!(matches!(
            c.lookup(1, 2, composite_class(64, 1, true, false)),
            Lookup::Hit(_)
        ));
        // Among equally-foreign topologies, same-flag warm candidates
        // outrank mismatched ones.
        assert!(c.insert(entry(1, 9, composite_class(1024, 1, false, false), 90.0)));
        let Lookup::Warm(w) = c.lookup(1, 7, composite_class(64, 1, true, false)) else {
            panic!("expected warm")
        };
        assert_eq!(w.budget_class, composite_class(1024, 1, true, false));
    }

    #[test]
    fn composite_class_separates_recompute_requests() {
        // Axis off: exactly the historical class, so pre-PR9 cache files
        // keep their addresses.
        assert_eq!(composite_class(1024, 1, false, false), budget_class(1024));
        // Axis on: the flag rides bit 17, orthogonal to both the
        // microbatch cap and the param-sync flag.
        assert_eq!(
            composite_class(1024, 1, false, true),
            budget_class(1024) | (1 << 17)
        );
        assert_eq!(
            composite_class(1024, 4, true, true),
            budget_class(1024) | (4 << 8) | (1 << 16) | (1 << 17)
        );

        // An entry searched WITH the recompute axis may carry recompute
        // bits a plain requester cannot execute, so a mismatched flag
        // demotes the near-miss to a warm seed — never a hit.
        let mut c = StrategyCache::new();
        assert!(c.insert(entry(1, 2, composite_class(1024, 1, false, true), 100.0)));
        assert!(matches!(
            c.lookup(1, 2, composite_class(64, 1, false, false)),
            Lookup::Warm(_)
        ));
        // Mirror image: an axis-on request is not served an axis-off hit.
        assert!(c.insert(entry(3, 2, composite_class(1024, 1, false, false), 100.0)));
        assert!(matches!(
            c.lookup(3, 2, composite_class(64, 1, false, true)),
            Lookup::Warm(_)
        ));
        // Matching flag: a hit as usual.
        assert!(matches!(
            c.lookup(1, 2, composite_class(64, 1, false, true)),
            Lookup::Hit(_)
        ));
        // Among equally-foreign topologies, same-flag warm candidates
        // outrank mismatched ones.
        assert!(c.insert(entry(1, 9, composite_class(1024, 1, false, false), 90.0)));
        let Lookup::Warm(w) = c.lookup(1, 7, composite_class(64, 1, false, true)) else {
            panic!("expected warm")
        };
        assert_eq!(w.budget_class, composite_class(1024, 1, false, true));
    }

    #[test]
    fn address_is_stable_and_readable() {
        let k = CacheKey {
            graph_sig: 0xabc,
            topo_sig: 0x123,
            budget_class: 11,
        };
        assert_eq!(k.address(), "g0000000000000abc-t0000000000000123-b11");
    }

    #[test]
    fn lookup_prefers_hit_over_warm_and_ranks_warm_candidates() {
        let mut c = StrategyCache::new();
        assert_eq!(c.lookup(1, 2, 3), Lookup::Miss);

        // Same graph, other topology: warm.
        assert!(c.insert(entry(1, 9, 5, 100.0)));
        assert!(matches!(c.lookup(1, 2, 3), Lookup::Warm(_)));

        // Same graph + topology but searched less hard: still warm.
        assert!(c.insert(entry(1, 2, 2, 90.0)));
        let Lookup::Warm(w) = c.lookup(1, 2, 3) else {
            panic!("expected warm")
        };
        assert_eq!(w.record.topo_sig, signature_hex(2), "same-topology first");

        // Hard-enough same-topology entry: hit, and it wins over warm.
        assert!(c.insert(entry(1, 2, 3, 80.0)));
        let Lookup::Hit(h) = c.lookup(1, 2, 3) else {
            panic!("expected hit")
        };
        assert_eq!(h.budget_class, 3);

        // A harder-searched hit is preferred over a softer one.
        assert!(c.insert(entry(1, 2, 7, 85.0)));
        let Lookup::Hit(h) = c.lookup(1, 2, 3) else {
            panic!("expected hit")
        };
        assert_eq!(h.budget_class, 7);

        // Unrelated graph: miss.
        assert_eq!(c.lookup(42, 2, 3), Lookup::Miss);
    }

    #[test]
    fn insert_keeps_the_better_strategy() {
        let mut c = StrategyCache::new();
        assert!(c.insert(entry(1, 2, 3, 100.0)));
        assert!(!c.insert(entry(1, 2, 3, 100.0)), "ties keep the incumbent");
        assert!(!c.insert(entry(1, 2, 3, 150.0)), "worse is rejected");
        assert!(c.insert(entry(1, 2, 3, 50.0)), "better replaces");
        assert_eq!(c.len(), 1);
        let Lookup::Hit(h) = c.lookup(1, 2, 3) else {
            panic!("expected hit")
        };
        assert!((h.record.cost_us - 50.0).abs() < 1e-9);
    }

    #[test]
    fn save_load_roundtrip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("ff-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        assert!(StrategyCache::load(&path).unwrap().is_empty());

        let mut c = StrategyCache::new();
        c.insert(entry(1, 2, 3, 100.0));
        c.insert(entry(4, 5, 6, 200.0));
        c.save(&path).unwrap();

        let back = StrategyCache::load(&path).unwrap();
        assert_eq!(back.len(), 2);
        let pairs: Vec<_> = back.entries().collect();
        let orig: Vec<_> = c.entries().collect();
        assert_eq!(pairs, orig);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_files_error_cleanly() {
        let dir = std::env::temp_dir().join(format!("ff-cache-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        std::fs::write(&path, "{ not json").unwrap();
        assert!(StrategyCache::load(&path).is_err());

        std::fs::write(&path, r#"{"version":999,"entries":[]}"#).unwrap();
        let err = StrategyCache::load(&path).unwrap_err();
        assert!(err.contains("v999"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_record_versions_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("ff-cache-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        let mut good = StrategyCache::new();
        good.insert(entry(1, 2, 3, 100.0));
        let mut stale = entry(7, 8, 9, 50.0);
        stale.record.version = FORMAT_VERSION + 1;
        // Write a file containing both by hand.
        let file = CacheFile {
            version: CACHE_FILE_VERSION,
            entries: vec![entry(1, 2, 3, 100.0), stale],
        };
        std::fs::write(&path, serde_json::to_string(&file).unwrap()).unwrap();

        let back = StrategyCache::load(&path).unwrap();
        assert_eq!(back.len(), 1, "stale entry dropped, good one kept");

        std::fs::remove_dir_all(&dir).ok();
    }
}
