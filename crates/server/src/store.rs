//! The serving-side strategy store: sharded, bounded, self-describing.
//!
//! [`crate::cache::StrategyCache`] is a single ordered map — exactly right
//! as a primitive, wrong as the thing a multi-worker server hammers from
//! every connection. This module puts a [`StrategyStore`] trait in front
//! of it with two implementations:
//!
//! - [`ShardedStore`] — the production store. Entries are sharded by the
//!   **key prefix** (the top byte of the graph signature, i.e. the first
//!   hex characters of the content address), so every entry for one op
//!   graph — including all its warm candidates — lives in exactly one
//!   shard and a lookup takes exactly one shard lock. Each shard is
//!   LRU-bounded under configurable entry/byte budgets ([`CacheBounds`],
//!   applied to **each shard**, not split across them), counts its own
//!   hits/warm/miss/evictions, and persists to its own
//!   `<cache>.shard-NN` file atomically (snapshot under the lock, write
//!   outside it). A legacy single-file cache is migrated on first open —
//!   read, distributed across shards, re-persisted per shard — while the
//!   original file is left byte-for-byte untouched, so PR 4-era cache
//!   files keep round-tripping.
//! - [`LegacyStore`] — the PR 4 semantics (one map, one lock, one file)
//!   behind the same trait, kept so tests can swap the stores and pin
//!   that the sharded path changes *performance*, not *answers*.
//!
//! Entries are immutable and live behind an `Arc` ([`StoredEntry`]: the
//! entry, its parsed key, its rendered response body), so a lookup hands
//! back a reference-counted pointer, not a copy of a 10 KB dump, and
//! whoever holds one keeps reading a consistent entry whatever a later
//! insert, upgrade or eviction does to the address.
//!
//! The store is also where the background polish daemon publishes its
//! results: [`StrategyStore::upgrade`] is a version-checked compare-and-
//! swap, so a polish result computed against a stale read can never
//! clobber a better strategy that a concurrent insert published first.

use crate::cache::{write_snapshot, CacheEntry, Lookup, StoredEntry, StrategyCache};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Entry- and byte-count budgets, enforced by **each shard** on its own
/// entries: a [`ShardedStore`] of `n` shards holds up to `n` times these
/// (`--cache-entries 8 --shards 2` keeps up to 16 strategies when their
/// graph signatures fall evenly). The single-map [`LegacyStore`] is
/// unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBounds {
    /// Maximum number of cached strategies per shard (0 means "no
    /// entries fit").
    pub max_entries: usize,
    /// Maximum total serialized size per shard, in bytes.
    pub max_bytes: u64,
}

impl CacheBounds {
    /// No bounds: the grow-only behavior of the PR 4 cache.
    pub fn unbounded() -> Self {
        Self {
            max_entries: usize::MAX,
            max_bytes: u64::MAX,
        }
    }

    /// Bounds with an entry budget only.
    pub fn entries(max_entries: usize) -> Self {
        Self {
            max_entries,
            max_bytes: u64::MAX,
        }
    }
}

impl Default for CacheBounds {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// An owned lookup answer (the trait-object analogue of
/// [`crate::cache::Lookup`], which borrows from the cache and therefore
/// cannot cross a shard-lock boundary). Entries come back as shared
/// pointers to the immutable stored form.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreLookup {
    /// Servable as-is: same graph + topology, searched at least as hard,
    /// matching axis flags. Carries the entry's address and version so a
    /// caller that later invalidates or upgrades it can name precisely
    /// the state it read.
    Hit {
        /// Content address of the served entry.
        address: String,
        /// Store version of the entry at read time (CAS token).
        version: u64,
        /// The served entry.
        entry: Arc<StoredEntry>,
    },
    /// A warm-start seed: same graph, wrong topology/budget/axis flags.
    Warm(Arc<StoredEntry>),
    /// Nothing reusable.
    Miss,
}

/// Outcome of a version-checked [`StrategyStore::upgrade`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upgrade {
    /// The candidate was published (it was better, or the slot was gone).
    Published,
    /// A concurrent writer got there first with a strategy at least as
    /// good — the candidate was discarded, nothing was lost.
    Lost,
    /// The candidate was no better than what the polished entry already
    /// held; the entry was left in place (and its polish round advanced).
    NoImprovement,
}

/// A polish candidate: the hottest entry of the store plus the CAS token
/// needed to publish a better version of it.
#[derive(Debug, Clone)]
pub struct HotEntry {
    /// Content address the entry was read from.
    pub address: String,
    /// Store version at read time (pass back to [`StrategyStore::upgrade`]).
    pub version: u64,
    /// Hits served from this entry since it was last polished.
    pub hits: u64,
    /// Completed polish rounds (drives budget escalation).
    pub polish_round: u32,
    /// The entry itself.
    pub entry: CacheEntry,
}

/// Per-shard counters, reported by the `stats` verb.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Live entries.
    pub entries: usize,
    /// Serialized bytes of the live entries.
    pub bytes: u64,
    /// Lookups answered with a hit.
    pub hits: u64,
    /// Lookups answered with a warm seed.
    pub warm: u64,
    /// Lookups answered with a miss.
    pub misses: u64,
    /// Accepted inserts (including upgrades).
    pub inserts: u64,
    /// Entries evicted to respect the bounds.
    pub evictions: u64,
}

/// The serving cache behind a trait, so the sharded-LRU store and the
/// legacy single-map store are interchangeable — in the server and in
/// tests that pin them against each other.
pub trait StrategyStore: Send + Sync {
    /// Content-addressed lookup (see [`StrategyCache::lookup`] for the
    /// hit/warm ranking rules). Touches LRU recency and counters.
    fn lookup(&self, graph_sig: u64, topo_sig: u64, class: u32) -> StoreLookup;

    /// Inserts an entry (lower cost wins at an occupied address), then
    /// enforces the bounds and persists the affected shard. Returns
    /// whether the entry was stored.
    fn insert(&self, entry: CacheEntry) -> bool;

    /// Evicts the entry at an address (corrupt-record escape hatch).
    /// Returns whether something was removed.
    fn remove(&self, address: &str) -> bool;

    /// Version-checked publish of a polished `candidate` for the entry
    /// read as `(address, expected_version)`. Never publishes a strategy
    /// worse than what the address currently holds: on a version mismatch
    /// the candidate must be *strictly* better to land, on a match at
    /// least as good. Always advances the entry's polish round and resets
    /// its heat, so the daemon moves on either way.
    fn upgrade(&self, address: &str, expected_version: u64, candidate: CacheEntry) -> Upgrade;

    /// The hottest entry (most hits since last polished; ties prefer the
    /// least-polished, then the lowest address). `None` when empty.
    fn hottest(&self) -> Option<HotEntry>;

    /// Total live entries across shards.
    fn len(&self) -> usize;

    /// Whether the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total serialized bytes across shards.
    fn bytes(&self) -> u64;

    /// Writes every dirty shard to disk (no-op without a cache path).
    /// Called on shutdown after the job queue drains, so an accepted
    /// insert can never be lost to a racing exit.
    fn flush(&self);

    /// Per-shard counters (a single pseudo-shard for the legacy store).
    fn shard_stats(&self) -> Vec<ShardStats>;
}

/// Per-entry bookkeeping the LRU and the polish daemon need.
#[derive(Debug, Clone)]
struct EntryMeta {
    bytes: u64,
    touch: u64,
    version: u64,
    hits: u64,
    polish_round: u32,
}

/// One shard: the map primitive plus LRU/meta bookkeeping and counters.
/// Everything here mutates under the shard's mutex.
#[derive(Debug, Default)]
struct Shard {
    cache: StrategyCache,
    meta: BTreeMap<String, EntryMeta>,
    /// touch counter -> address, oldest first (touches are unique).
    recency: BTreeMap<u64, String>,
    clock: u64,
    versions: u64,
    bytes: u64,
    dirty: bool,
    hits: u64,
    warm: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

impl Shard {
    fn touch(&mut self, address: &str) {
        if let Some(meta) = self.meta.get_mut(address) {
            self.recency.remove(&meta.touch);
            self.clock += 1;
            meta.touch = self.clock;
            self.recency.insert(self.clock, address.to_string());
        }
    }

    /// The lookup both stores answer with: classify, count, and touch
    /// the LRU recency of whichever entry contributed.
    fn lookup(&mut self, graph_sig: u64, topo_sig: u64, class: u32) -> StoreLookup {
        let (entry, hit) = match self.cache.lookup(graph_sig, topo_sig, class) {
            Lookup::Hit(entry) => (Arc::clone(entry), true),
            Lookup::Warm(entry) => (Arc::clone(entry), false),
            Lookup::Miss => {
                self.misses += 1;
                return StoreLookup::Miss;
            }
        };
        self.touch(entry.address());
        if !hit {
            self.warm += 1;
            return StoreLookup::Warm(entry);
        }
        self.hits += 1;
        let meta = self
            .meta
            .get_mut(entry.address())
            .expect("hit entries have meta");
        meta.hits += 1;
        StoreLookup::Hit {
            address: entry.address().to_string(),
            version: meta.version,
            entry,
        }
    }

    fn drop_entry(&mut self, address: &str) -> bool {
        let Some(meta) = self.meta.remove(address) else {
            return false;
        };
        self.recency.remove(&meta.touch);
        self.bytes -= meta.bytes;
        self.cache.remove(address);
        self.dirty = true;
        true
    }

    /// Stores `entry` at its address with fresh meta, honoring the
    /// lower-cost-wins rule. Returns whether it landed.
    fn store(&mut self, entry: Arc<StoredEntry>, polish_round: u32) -> bool {
        let bytes = entry_bytes(&entry);
        let address = entry.address().to_string();
        if !self.cache.insert_stored(entry) {
            return false;
        }
        if let Some(old) = self.meta.get(&address) {
            self.bytes -= old.bytes;
            let old_touch = old.touch;
            self.recency.remove(&old_touch);
        }
        self.clock += 1;
        self.versions += 1;
        self.bytes += bytes;
        self.meta.insert(
            address.clone(),
            EntryMeta {
                bytes,
                touch: self.clock,
                version: self.versions,
                hits: 0,
                polish_round,
            },
        );
        self.recency.insert(self.clock, address);
        self.inserts += 1;
        self.dirty = true;
        true
    }

    fn enforce(&mut self, bounds: &CacheBounds) {
        while self.cache.len() > bounds.max_entries || self.bytes > bounds.max_bytes {
            let Some((_, address)) = self.recency.pop_first() else {
                break;
            };
            let Some(meta) = self.meta.remove(&address) else {
                continue;
            };
            self.bytes -= meta.bytes;
            self.cache.remove(&address);
            self.evictions += 1;
            self.dirty = true;
        }
    }

    /// The version-checked publish behind [`StrategyStore::upgrade`].
    fn upgrade(
        &mut self,
        address: &str,
        expected_version: u64,
        candidate: Arc<StoredEntry>,
        bounds: &CacheBounds,
    ) -> Upgrade {
        let current = self.cache.get(address).map(|e| e.record.cost_us);
        let meta = self.meta.get(address).cloned();
        let (Some(cost), Some(meta)) = (current, meta) else {
            // The entry was evicted while we searched: the polished
            // strategy is still the best known answer — publish it.
            return if self.store(candidate, 1) {
                self.enforce(bounds);
                Upgrade::Published
            } else {
                Upgrade::Lost
            };
        };
        let wins = if meta.version == expected_version {
            candidate.record.cost_us <= cost
        } else {
            // Someone republished this address since we read it; only a
            // strictly better strategy may replace theirs.
            candidate.record.cost_us < cost
        };
        if wins {
            let round = meta.polish_round.saturating_add(1);
            self.drop_entry(address);
            if self.store(candidate, round) {
                self.enforce(bounds);
                Upgrade::Published
            } else {
                // The escalated address already held something at least
                // as good — nothing was lost.
                Upgrade::Lost
            }
        } else if meta.version == expected_version {
            // Polish found no improvement: advance the round and cool
            // the entry so the daemon moves on.
            let m = self.meta.get_mut(address).expect("checked above");
            m.polish_round = m.polish_round.saturating_add(1);
            m.hits = 0;
            Upgrade::NoImprovement
        } else {
            Upgrade::Lost
        }
    }

    /// Replaces `best` with this shard's hottest entry if it is hotter
    /// (see [`StrategyStore::hottest`] for the order).
    fn hottest(&self, best: &mut Option<Hot>) {
        for (address, meta) in &self.meta {
            let better = best.as_ref().is_none_or(|(_, b, _)| {
                (meta.hits, std::cmp::Reverse(meta.polish_round))
                    > (b.hits, std::cmp::Reverse(b.polish_round))
            });
            if better {
                let entry = self.cache.get(address).expect("meta tracks cache");
                *best = Some((address.clone(), meta.clone(), Arc::clone(entry)));
            }
        }
    }

    fn stats(&self, index: usize) -> ShardStats {
        ShardStats {
            shard: index,
            entries: self.cache.len(),
            bytes: self.bytes,
            hits: self.hits,
            warm: self.warm,
            misses: self.misses,
            inserts: self.inserts,
            evictions: self.evictions,
        }
    }

    /// Consistent snapshot for persistence; clears the dirty flag (the
    /// caller commits to writing what it took).
    fn snapshot(&mut self) -> String {
        self.dirty = false;
        self.cache.snapshot_json()
    }
}

/// The running winner of a [`Shard::hottest`] scan across shards.
type Hot = (String, EntryMeta, Arc<StoredEntry>);

fn hot_entry((address, meta, entry): Hot) -> HotEntry {
    HotEntry {
        address,
        version: meta.version,
        hits: meta.hits,
        polish_round: meta.polish_round,
        entry: CacheEntry::clone(&entry),
    }
}

fn entry_bytes(entry: &CacheEntry) -> u64 {
    serde_json::to_string(entry).expect("serialize entry").len() as u64
}

/// The key-prefix shard of a graph signature: its top byte, i.e. the
/// first two hex characters of the `g<sig>` address prefix.
fn shard_of(graph_sig: u64, shards: usize) -> usize {
    ((graph_sig >> 56) as usize) % shards.max(1)
}

/// Parses the graph signature back out of a content address
/// (`g<16 hex>-t<16 hex>-b<class>`).
fn address_graph_sig(address: &str) -> Option<u64> {
    let hex = address.strip_prefix('g')?.get(..16)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Writes a dirty shard to `path`: snapshot under the shard lock, write
/// after releasing it, so lookups never wait for the disk. `writing` is
/// held across both steps — of two inserts racing to persist, the later
/// snapshot must also be the later rename, or the file ends up without an
/// insert the shard no longer considers dirty.
fn persist(shard: &Mutex<Shard>, writing: &Mutex<()>, path: &Path) {
    let _writing = writing.lock().expect("cache file write lock");
    let json = {
        let mut shard = shard.lock().expect("shard lock");
        if !shard.dirty {
            return;
        }
        shard.snapshot()
    };
    if let Err(e) = write_snapshot(path, &json) {
        eprintln!("serve: cache write failed for {path:?}: {e}");
    }
}

/// The on-disk file for shard `index` of a store rooted at `base`.
pub fn shard_path(base: &Path, index: usize) -> PathBuf {
    let name = base
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    base.with_file_name(format!("{name}.shard-{index:02}"))
}

/// The production store: key-prefix shards, per-shard locks, LRU bounds,
/// per-shard atomic persistence. See the module docs for the layout.
pub struct ShardedStore {
    shards: Vec<Mutex<Shard>>,
    /// Orders the writes of each shard's file (see [`persist`]).
    writing: Vec<Mutex<()>>,
    bounds: CacheBounds,
    path: Option<PathBuf>,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("bounds", &self.bounds)
            .field("path", &self.path)
            .finish()
    }
}

impl ShardedStore {
    /// An empty, unpersisted store.
    pub fn in_memory(shards: usize, bounds: CacheBounds) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            writing: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            bounds,
            path: None,
        }
    }

    /// Opens the store rooted at `path` with `shards` shards.
    ///
    /// Shard files (`<path>.shard-NN`) win when present — they are
    /// strictly newer than any legacy file at `path`. Otherwise a legacy
    /// single-file cache at `path` is loaded, distributed across the
    /// shards, and re-persisted per shard; the legacy file itself is
    /// never modified. Entries are re-sharded by their own addresses on
    /// every load, so changing the shard count between runs is safe.
    ///
    /// # Errors
    ///
    /// Returns a message when the legacy file or any shard file is
    /// malformed (the caller decides whether to start empty or abort);
    /// stale *entries* inside a well-formed file are skipped, not fatal.
    pub fn open(path: &Path, shards: usize, bounds: CacheBounds) -> Result<Self, String> {
        let store = Self {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            writing: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            bounds,
            path: Some(path.to_path_buf()),
        };
        let shard_files: Vec<PathBuf> = existing_shard_files(path);
        let mut loaded: Vec<StrategyCache> = Vec::new();
        let migrating = shard_files.is_empty();
        if migrating {
            loaded.push(StrategyCache::load(path)?);
        } else {
            for f in &shard_files {
                loaded.push(StrategyCache::load(f)?);
            }
        }
        for cache in loaded {
            for (_, entry) in cache.entries() {
                let mut shard = store
                    .shard_for(entry.cache_key().graph_sig)
                    .1
                    .lock()
                    .expect("shard lock");
                shard.store(Arc::clone(entry), 0);
                shard.enforce(&store.bounds);
            }
        }
        if migrating && !store.is_empty() {
            store.flush();
        } else {
            // Loading never dirtied anything worth rewriting.
            for shard in &store.shards {
                shard.lock().expect("shard lock").dirty = false;
            }
        }
        Ok(store)
    }

    /// Persists one shard if dirty.
    fn persist_shard(&self, index: usize) {
        if let Some(base) = &self.path {
            persist(
                &self.shards[index],
                &self.writing[index],
                &shard_path(base, index),
            );
        }
    }

    fn shard_for(&self, graph_sig: u64) -> (usize, &Mutex<Shard>) {
        let index = shard_of(graph_sig, self.shards.len());
        (index, &self.shards[index])
    }

    fn shard_for_address(&self, address: &str) -> Option<(usize, &Mutex<Shard>)> {
        address_graph_sig(address).map(|sig| self.shard_for(sig))
    }
}

/// All existing shard files for a store rooted at `base`, in index order.
pub fn existing_shard_files(base: &Path) -> Vec<PathBuf> {
    let Some(dir) = base.parent() else {
        return Vec::new();
    };
    let Some(name) = base.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return Vec::new();
    };
    let prefix = format!("{name}.shard-");
    let Ok(read) = std::fs::read_dir(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = read
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .strip_prefix(&prefix)
                .is_some_and(|rest| rest.chars().all(|c| c.is_ascii_digit()))
        })
        .map(|e| e.path())
        .collect();
    files.sort();
    files
}

impl StrategyStore for ShardedStore {
    fn lookup(&self, graph_sig: u64, topo_sig: u64, class: u32) -> StoreLookup {
        let (_, mutex) = self.shard_for(graph_sig);
        mutex
            .lock()
            .expect("shard lock")
            .lookup(graph_sig, topo_sig, class)
    }

    fn insert(&self, entry: CacheEntry) -> bool {
        let Some(entry) = StoredEntry::new(entry) else {
            return false;
        };
        let (index, mutex) = self.shard_for(entry.cache_key().graph_sig);
        let stored = {
            let mut shard = mutex.lock().expect("shard lock");
            let stored = shard.store(Arc::new(entry), 0);
            if stored {
                shard.enforce(&self.bounds);
            }
            stored
        };
        if stored {
            self.persist_shard(index);
        }
        stored
    }

    fn remove(&self, address: &str) -> bool {
        let Some((index, mutex)) = self.shard_for_address(address) else {
            return false;
        };
        let removed = mutex.lock().expect("shard lock").drop_entry(address);
        if removed {
            self.persist_shard(index);
        }
        removed
    }

    fn upgrade(&self, address: &str, expected_version: u64, candidate: CacheEntry) -> Upgrade {
        let Some(candidate) = StoredEntry::new(candidate) else {
            return Upgrade::Lost;
        };
        let Some((index, mutex)) = self.shard_for_address(address) else {
            return Upgrade::Lost;
        };
        // A polished record escalates its budget class, so the candidate
        // may land at a *different* address than it was read from; both
        // share the graph signature, hence the shard — one lock keeps the
        // remove + insert atomic.
        debug_assert_eq!(
            index,
            shard_of(candidate.cache_key().graph_sig, self.shards.len())
        );
        let outcome = mutex.lock().expect("shard lock").upgrade(
            address,
            expected_version,
            Arc::new(candidate),
            &self.bounds,
        );
        if outcome == Upgrade::Published {
            self.persist_shard(index);
        }
        outcome
    }

    fn hottest(&self) -> Option<HotEntry> {
        let mut best = None;
        for mutex in &self.shards {
            mutex.lock().expect("shard lock").hottest(&mut best);
        }
        best.map(hot_entry)
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").cache.len())
            .sum()
    }

    fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").bytes)
            .sum()
    }

    fn flush(&self) {
        for index in 0..self.shards.len() {
            self.persist_shard(index);
        }
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, mutex)| mutex.lock().expect("shard lock").stats(index))
            .collect()
    }
}

/// The PR 4 store: one map, one lock, one grow-only file — behind the
/// same trait so tests can pin the sharded store against it.
#[derive(Debug)]
pub struct LegacyStore {
    inner: Mutex<Shard>,
    /// Orders the writes of the cache file (see [`persist`]).
    writing: Mutex<()>,
    path: Option<PathBuf>,
}

impl LegacyStore {
    /// An empty, unpersisted store.
    pub fn in_memory() -> Self {
        Self {
            inner: Mutex::default(),
            writing: Mutex::default(),
            path: None,
        }
    }

    /// Opens the single-file cache at `path` (missing file = empty).
    ///
    /// # Errors
    ///
    /// Propagates [`StrategyCache::load`] errors for malformed files.
    pub fn open(path: &Path) -> Result<Self, String> {
        let cache = StrategyCache::load(path)?;
        let store = Self {
            inner: Mutex::default(),
            writing: Mutex::default(),
            path: Some(path.to_path_buf()),
        };
        {
            let mut shard = store.inner.lock().expect("store lock");
            for (_, entry) in cache.entries() {
                shard.store(Arc::clone(entry), 0);
            }
            shard.dirty = false;
        }
        Ok(store)
    }

    fn persist(&self) {
        if let Some(path) = &self.path {
            persist(&self.inner, &self.writing, path);
        }
    }
}

impl StrategyStore for LegacyStore {
    fn lookup(&self, graph_sig: u64, topo_sig: u64, class: u32) -> StoreLookup {
        self.inner
            .lock()
            .expect("store lock")
            .lookup(graph_sig, topo_sig, class)
    }

    fn insert(&self, entry: CacheEntry) -> bool {
        let Some(entry) = StoredEntry::new(entry) else {
            return false;
        };
        let stored = self
            .inner
            .lock()
            .expect("store lock")
            .store(Arc::new(entry), 0);
        if stored {
            self.persist();
        }
        stored
    }

    fn remove(&self, address: &str) -> bool {
        let removed = self.inner.lock().expect("store lock").drop_entry(address);
        if removed {
            self.persist();
        }
        removed
    }

    fn upgrade(&self, address: &str, expected_version: u64, candidate: CacheEntry) -> Upgrade {
        let Some(candidate) = StoredEntry::new(candidate) else {
            return Upgrade::Lost;
        };
        let outcome = self.inner.lock().expect("store lock").upgrade(
            address,
            expected_version,
            Arc::new(candidate),
            &CacheBounds::unbounded(),
        );
        if outcome == Upgrade::Published {
            self.persist();
        }
        outcome
    }

    fn hottest(&self) -> Option<HotEntry> {
        let mut best = None;
        self.inner.lock().expect("store lock").hottest(&mut best);
        best.map(hot_entry)
    }

    fn len(&self) -> usize {
        self.inner.lock().expect("store lock").cache.len()
    }

    fn bytes(&self) -> u64 {
        self.inner.lock().expect("store lock").bytes
    }

    fn flush(&self) {
        self.persist();
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        vec![self.inner.lock().expect("store lock").stats(0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::composite_class;
    use flexflow_core::strategy_io::{export_record, signature_hex};
    use flexflow_core::Strategy;
    use flexflow_device::clusters;
    use flexflow_opgraph::zoo;

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

    fn addr(graph_sig: u64, topo_sig: u64, class: u32) -> String {
        crate::cache::CacheKey {
            graph_sig,
            topo_sig,
            budget_class: class,
        }
        .address()
    }

    fn stores() -> Vec<Box<dyn StrategyStore>> {
        vec![
            Box::new(ShardedStore::in_memory(4, CacheBounds::unbounded())),
            Box::new(LegacyStore::in_memory()),
        ]
    }

    #[test]
    fn stores_answer_like_the_raw_cache() {
        for store in stores() {
            assert_eq!(store.lookup(1, 2, 3), StoreLookup::Miss);
            assert!(store.insert(entry(1, 2, 3, 100.0)));
            assert!(matches!(
                store.lookup(1, 2, 3),
                StoreLookup::Hit { entry, .. } if (entry.record.cost_us - 100.0).abs() < 1e-9
            ));
            assert!(matches!(store.lookup(1, 9, 3), StoreLookup::Warm(_)));
            assert_eq!(store.lookup(42, 2, 3), StoreLookup::Miss);
            assert!(!store.insert(entry(1, 2, 3, 150.0)), "worse is rejected");
            assert!(store.insert(entry(1, 2, 3, 50.0)), "better replaces");
            assert_eq!(store.len(), 1);
            assert!(store.remove(&addr(1, 2, 3)));
            assert_eq!(store.lookup(1, 2, 3), StoreLookup::Miss);
            let stats = store.shard_stats();
            assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 1);
            assert_eq!(stats.iter().map(|s| s.warm).sum::<u64>(), 1);
            assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), 3);
        }
    }

    #[test]
    fn lru_eviction_respects_bounds_and_recency() {
        let store = ShardedStore::in_memory(1, CacheBounds::entries(2));
        assert!(store.insert(entry(1, 2, 3, 100.0)));
        assert!(store.insert(entry(2, 2, 3, 100.0)));
        // Touch the older entry so the newer one becomes LRU.
        assert!(matches!(store.lookup(1, 2, 3), StoreLookup::Hit { .. }));
        assert!(store.insert(entry(3, 2, 3, 100.0)));
        assert_eq!(store.len(), 2);
        assert!(
            matches!(store.lookup(2, 2, 3), StoreLookup::Miss),
            "the least-recently-used entry is the one evicted"
        );
        assert!(matches!(store.lookup(1, 2, 3), StoreLookup::Hit { .. }));
        assert!(matches!(store.lookup(3, 2, 3), StoreLookup::Hit { .. }));
        assert_eq!(store.shard_stats()[0].evictions, 1);
    }

    #[test]
    fn byte_bounds_are_never_exceeded() {
        let one = entry_bytes(&entry(1, 2, 3, 100.0));
        let store = ShardedStore::in_memory(
            2,
            CacheBounds {
                max_entries: usize::MAX,
                max_bytes: one * 3,
            },
        );
        for sig in 1..=10u64 {
            store.insert(entry(sig, 2, 3, 100.0));
            assert!(store.bytes() <= one * 3, "byte bound exceeded");
        }
        assert!(store.len() < 10);
        assert!(
            store.shard_stats().iter().map(|s| s.evictions).sum::<u64>() > 0,
            "churn must evict"
        );
    }

    #[test]
    fn hit_after_evict_degrades_to_warm_not_hit() {
        let store = ShardedStore::in_memory(1, CacheBounds::entries(1));
        assert!(store.insert(entry(1, 2, 3, 100.0)));
        // Same graph, different topology: displaces the first entry.
        assert!(store.insert(entry(1, 9, 3, 90.0)));
        match store.lookup(1, 2, 3) {
            StoreLookup::Warm(w) => assert_eq!(w.record.topo_sig, signature_hex(9)),
            other => panic!("evicted exact match must degrade to warm, got {other:?}"),
        }
    }

    #[test]
    fn upgrade_is_a_version_checked_cas() {
        for store in stores() {
            assert!(store.insert(entry(1, 2, 3, 100.0)));
            let StoreLookup::Hit {
                address, version, ..
            } = store.lookup(1, 2, 3)
            else {
                panic!("expected hit")
            };

            // A concurrent insert bumps the version...
            assert!(store.insert(entry(1, 2, 3, 80.0)));
            // ...so a stale polish result that is *worse* than the new
            // occupant must lose, not clobber it.
            assert_eq!(
                store.upgrade(&address, version, entry(1, 2, 3, 90.0)),
                Upgrade::Lost
            );
            let StoreLookup::Hit { entry: e, .. } = store.lookup(1, 2, 3) else {
                panic!("expected hit")
            };
            assert!((e.record.cost_us - 80.0).abs() < 1e-9);

            // A stale result that is strictly better still lands.
            assert_eq!(
                store.upgrade(&address, version, entry(1, 2, 3, 70.0)),
                Upgrade::Published
            );

            // A fresh read upgrades cleanly, even at equal cost (the
            // polished record carries more search effort).
            let StoreLookup::Hit {
                address, version, ..
            } = store.lookup(1, 2, 3)
            else {
                panic!("expected hit")
            };
            assert_eq!(
                store.upgrade(&address, version, entry(1, 2, 3, 70.0)),
                Upgrade::Published
            );

            // No improvement: the entry stays, the round advances.
            let StoreLookup::Hit {
                address, version, ..
            } = store.lookup(1, 2, 3)
            else {
                panic!("expected hit")
            };
            assert_eq!(
                store.upgrade(&address, version, entry(1, 2, 3, 75.0)),
                Upgrade::NoImprovement
            );
            let hot = store.hottest().expect("non-empty");
            assert_eq!(hot.polish_round, 3);
        }
    }

    #[test]
    fn upgrade_may_escalate_the_address() {
        for store in stores() {
            let lo = composite_class(100, 1, false, false);
            let hi = composite_class(400, 1, false, false);
            assert!(store.insert(entry(1, 2, lo, 100.0)));
            let StoreLookup::Hit {
                address, version, ..
            } = store.lookup(1, 2, lo)
            else {
                panic!("expected hit")
            };
            assert_eq!(
                store.upgrade(&address, version, entry(1, 2, hi, 95.0)),
                Upgrade::Published
            );
            // The old address is gone; the polished entry answers both
            // the old class (searched harder) and the new one.
            assert_eq!(store.len(), 1);
            for class in [lo, hi] {
                let StoreLookup::Hit { entry: e, .. } = store.lookup(1, 2, class) else {
                    panic!("expected hit at class {class}")
                };
                assert_eq!(e.budget_class, hi);
                assert!((e.record.cost_us - 95.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn hottest_tracks_hits_since_last_polish() {
        for store in stores() {
            assert!(store.insert(entry(1, 2, 3, 100.0)));
            assert!(store.insert(entry(2, 2, 3, 100.0)));
            for _ in 0..3 {
                assert!(matches!(store.lookup(2, 2, 3), StoreLookup::Hit { .. }));
            }
            assert!(matches!(store.lookup(1, 2, 3), StoreLookup::Hit { .. }));
            let hot = store.hottest().expect("non-empty");
            assert_eq!(hot.hits, 3);
            assert_eq!(hot.entry.record.graph_sig, signature_hex(2));
            // Polishing cools the entry: the other one is hottest next.
            // (An equal-cost candidate at a matched version publishes —
            // same answer, fresh heat.)
            assert_eq!(
                store.upgrade(&hot.address, hot.version, entry(2, 2, 3, 100.0)),
                Upgrade::Published
            );
            let hot = store.hottest().expect("non-empty");
            assert_eq!(hot.entry.record.graph_sig, signature_hex(1));
        }
    }

    #[test]
    fn sharded_persistence_and_legacy_migration() {
        let dir = std::env::temp_dir().join(format!("ff-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        // Seed a legacy single-file cache.
        let legacy = LegacyStore::open(&path).unwrap();
        assert!(legacy.insert(entry(1, 2, 3, 100.0)));
        assert!(legacy.insert(entry(0xab00_0000_0000_0001, 2, 3, 50.0)));
        let legacy_bytes = std::fs::read(&path).unwrap();

        // Opening sharded migrates: entries distributed, shard files
        // written, legacy file byte-for-byte untouched.
        let store = ShardedStore::open(&path, 4, CacheBounds::unbounded()).unwrap();
        assert_eq!(store.len(), 2);
        assert!(!existing_shard_files(&path).is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), legacy_bytes);

        // A reopen prefers the shard files; new inserts only touch them.
        assert!(store.insert(entry(7, 7, 3, 10.0)));
        let back = ShardedStore::open(&path, 8, CacheBounds::unbounded()).unwrap();
        assert_eq!(back.len(), 3);
        assert!(matches!(back.lookup(7, 7, 3), StoreLookup::Hit { .. }));
        assert_eq!(std::fs::read(&path).unwrap(), legacy_bytes);

        std::fs::remove_dir_all(&dir).ok();
    }
}
