//! Content-addressed artifact stores.
//!
//! Every phase of a [`ReproSession`](crate::ReproSession) is keyed by a
//! [`PhaseKey`]: a stable [`ContentHash`] over *(program fingerprint,
//! failing input, failure dump, options, upstream artifact)* computed on
//! the [`mcr_dump::wire`] encoding. Because each phase is a
//! deterministic function of exactly that material, two phase units with
//! the same key produce byte-identical artifacts — so a session whose
//! key hits an [`ArtifactStore`] skips the phase entirely and rehydrates
//! the cached bytes (observed as
//! [`PhaseEvent::CacheHit`](crate::PhaseEvent::CacheHit)).
//!
//! This is the dedup-by-content idea of ShareJIT-style code caches
//! applied to MCR's per-phase artifacts: a triage service ingesting
//! streams of near-duplicate core dumps from the same bug pays for each
//! distinct `(dump, input, options)` pipeline once, fleet-wide.
//!
//! Four stores ship here:
//!
//! * [`NullStore`] — caches nothing (the default of a bare session),
//! * [`MemoryStore`] — an in-memory LRU bounded by total artifact bytes,
//! * [`BytesStore`] — an unbounded store whose whole content serializes
//!   to one byte string on the same wire codec the session checkpoints
//!   use, so a warm cache can be persisted or shipped between processes
//!   like a checkpoint,
//! * [`ShardedStore`] — a composite that partitions the key space across
//!   N inner backends by consistent hashing on the key's
//!   [`ContentHash`], so one logical cache scales horizontally and
//!   shards can be snapshotted/rehydrated independently.
//!
//! Every store also slices its counters by phase kind
//! ([`StoreStats::per_phase`]): a triage deployment sizes capacity from
//! *which* phases churn, not just the global hit rate.
//!
//! All stores are `Send + Sync` and internally synchronized: one store
//! handle (an `Arc`) is shared by every session of a fleet.

use crate::observe::Phase;
use mcr_dump::wire::{ContentHash, ContentHasher, Reader, Writer};
use mcr_dump::DecodeError;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 4] = b"MCRC";
const VERSION: u8 = 1;

/// Identity of one unit of phase work: the phase plus the content hash
/// of everything that determines its artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhaseKey {
    /// The pipeline phase this key belongs to.
    pub phase: Phase,
    /// Content hash of the phase's full input closure: session basis
    /// (program fingerprint, input, failure dump, options) chained with
    /// the upstream artifact's content hash.
    pub hash: ContentHash,
}

impl PhaseKey {
    /// Derives the key for `phase` from the session `basis` and the
    /// hash of the immediate upstream artifact (`None` for the first
    /// phase).
    pub fn derive(basis: ContentHash, phase: Phase, upstream: Option<ContentHash>) -> PhaseKey {
        let mut h = ContentHasher::new();
        h.update(b"MCRPK1");
        h.update(&basis.to_le_bytes());
        h.update(&[phase.index() as u8]);
        match upstream {
            None => h.update(&[0]),
            Some(u) => {
                h.update(&[1]);
                h.update(&u.to_le_bytes());
            }
        }
        PhaseKey {
            phase,
            hash: h.finish128(),
        }
    }
}

impl fmt::Display for PhaseKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.phase, self.hash)
    }
}

/// One phase kind's slice of a store's counters — the capacity-planning
/// histogram a triage service reports. Global totals answer "how well
/// does the cache work"; the per-phase rows answer "*which* phases
/// churn" (e.g. large search artifacts being evicted while tiny rank
/// artifacts stay resident), which is what informs shard sizing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// `get` calls for this phase kind that found their key.
    pub hits: u64,
    /// `get` calls for this phase kind that missed.
    pub misses: u64,
    /// `put` calls that stored a new entry of this phase kind.
    pub inserts: u64,
    /// Entries of this phase kind dropped to stay under a capacity
    /// bound.
    pub evictions: u64,
    /// Entries of this phase kind currently resident.
    pub entries: usize,
    /// Artifact bytes of this phase kind currently resident.
    pub bytes: usize,
}

impl PhaseStats {
    fn absorb(&mut self, o: &PhaseStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.inserts += o.inserts;
        self.evictions += o.evictions;
        self.entries += o.entries;
        self.bytes += o.bytes;
    }
}

/// Counters every store tracks; a fleet summary reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` calls that found their key.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// `put` calls that stored a new entry.
    pub inserts: u64,
    /// Entries dropped to stay under a capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Total artifact bytes currently resident.
    pub bytes: usize,
    /// The same counters sliced by phase kind, indexed by
    /// [`Phase::index`] (see [`StoreStats::phase`]): the five pipeline
    /// phases followed by the `Compile` and `StaticRace` kinds, whose
    /// rows stay zero: no session writes or reads them.
    pub per_phase: [PhaseStats; 7],
}

impl StoreStats {
    /// Fraction of lookups that hit, in `[0, 1]` (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters for one phase kind.
    pub fn phase(&self, phase: Phase) -> PhaseStats {
        self.per_phase[phase.index()]
    }

    /// Adds every counter of `o` into `self` (how a sharded composite
    /// aggregates its shards).
    pub fn absorb(&mut self, o: &StoreStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.inserts += o.inserts;
        self.evictions += o.evictions;
        self.entries += o.entries;
        self.bytes += o.bytes;
        for (mine, theirs) in self.per_phase.iter_mut().zip(&o.per_phase) {
            mine.absorb(theirs);
        }
    }
}

/// A shared, content-addressed artifact cache.
///
/// Implementations are internally synchronized (`&self` methods) so one
/// handle serves a whole fleet. A store is a *cache*, never a source of
/// truth: `get` may forget anything at any time, and `put` may decline
/// to retain.
pub trait ArtifactStore: Send + Sync + fmt::Debug {
    /// The artifact bytes stored under `key`, if any.
    fn get(&self, key: &PhaseKey) -> Option<Vec<u8>>;

    /// Stores `bytes` under `key` (last write wins; identical keys carry
    /// identical bytes by construction).
    fn put(&self, key: &PhaseKey, bytes: &[u8]);

    /// Lookup/insert/eviction counters.
    fn stats(&self) -> StoreStats;

    /// Whether this store can ever return a hit. [`NullStore`] says
    /// `false`, which lets the session driver skip key derivation and
    /// artifact hashing entirely — a plain uncached pipeline run pays
    /// nothing for the caching machinery.
    fn is_caching(&self) -> bool {
        true
    }
}

/// A store that caches nothing: every lookup misses, every insert is
/// dropped. The default for sessions constructed without a store.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullStore;

impl ArtifactStore for NullStore {
    fn get(&self, _key: &PhaseKey) -> Option<Vec<u8>> {
        None
    }

    fn put(&self, _key: &PhaseKey, _bytes: &[u8]) {}

    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    fn is_caching(&self) -> bool {
        false
    }
}

#[derive(Debug, Default)]
struct MemInner {
    map: HashMap<PhaseKey, (Vec<u8>, u64)>,
    tick: u64,
    stats: StoreStats,
}

/// An in-memory LRU store bounded by total artifact bytes.
///
/// Eviction drops least-recently-used entries until the configured byte
/// capacity holds again; a single entry larger than the whole capacity
/// is retained alone (evicting it immediately would make the store
/// useless for exactly the artifacts worth caching most).
#[derive(Debug, Default)]
pub struct MemoryStore {
    capacity: Option<usize>,
    inner: Mutex<MemInner>,
}

impl MemoryStore {
    /// An unbounded store.
    pub fn unbounded() -> MemoryStore {
        MemoryStore::default()
    }

    /// A store that evicts LRU entries beyond `bytes` total capacity.
    pub fn with_capacity(bytes: usize) -> MemoryStore {
        MemoryStore {
            capacity: Some(bytes),
            inner: Mutex::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        self.inner.lock().expect("artifact store poisoned")
    }

    /// Visits every resident entry in key order, borrowing each value in
    /// place — the zero-copy walk shard migration and churn-probe replay
    /// use, so moving a warm cache never doubles resident bytes.
    ///
    /// The store's lock is held for the whole walk: `f` must not call
    /// back into this store (other stores are fine — that is exactly the
    /// migration pattern).
    pub fn for_each_entry(&self, mut f: impl FnMut(&PhaseKey, &[u8])) {
        let inner = self.lock();
        let mut keys: Vec<PhaseKey> = inner.map.keys().copied().collect();
        keys.sort_unstable();
        for k in &keys {
            let (bytes, _) = &inner.map[k];
            f(k, bytes);
        }
    }

    /// Every resident entry's key and size in key order, without
    /// touching the values — what capacity measurement needs.
    pub fn entry_sizes(&self) -> Vec<(PhaseKey, usize)> {
        let mut sizes = Vec::new();
        self.for_each_entry(|k, b| sizes.push((*k, b.len())));
        sizes
    }
}

impl ArtifactStore for MemoryStore {
    fn get(&self, key: &PhaseKey) -> Option<Vec<u8>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let kind = key.phase.index();
        match inner.map.get_mut(key) {
            Some((bytes, used)) => {
                *used = tick;
                let out = bytes.clone();
                inner.stats.hits += 1;
                inner.stats.per_phase[kind].hits += 1;
                Some(out)
            }
            None => {
                inner.stats.misses += 1;
                inner.stats.per_phase[kind].misses += 1;
                None
            }
        }
    }

    fn put(&self, key: &PhaseKey, bytes: &[u8]) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let kind = key.phase.index();
        match inner.map.insert(*key, (bytes.to_vec(), tick)) {
            Some((old, _)) => {
                inner.stats.bytes -= old.len();
                inner.stats.per_phase[kind].bytes -= old.len();
            }
            None => {
                inner.stats.inserts += 1;
                inner.stats.entries += 1;
                inner.stats.per_phase[kind].inserts += 1;
                inner.stats.per_phase[kind].entries += 1;
            }
        }
        inner.stats.bytes += bytes.len();
        inner.stats.per_phase[kind].bytes += bytes.len();
        if let Some(cap) = self.capacity {
            while inner.stats.bytes > cap && inner.stats.entries > 1 {
                let victim = inner
                    .map
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(k, _)| *k)
                    .expect("entries > 1");
                let (dropped, _) = inner.map.remove(&victim).expect("victim resident");
                let vkind = victim.phase.index();
                inner.stats.bytes -= dropped.len();
                inner.stats.entries -= 1;
                inner.stats.evictions += 1;
                inner.stats.per_phase[vkind].bytes -= dropped.len();
                inner.stats.per_phase[vkind].entries -= 1;
                inner.stats.per_phase[vkind].evictions += 1;
            }
        }
    }

    fn stats(&self) -> StoreStats {
        self.lock().stats
    }
}

/// An unbounded store whose entire content round-trips through one byte
/// string on the session-checkpoint wire codec (`MCRC` framing), so a
/// warm cache can be persisted to disk, shipped to another triage
/// worker, and restored with [`BytesStore::from_bytes`].
///
/// Storage and accounting delegate to an unbounded [`MemoryStore`];
/// this type adds only the snapshot layer.
#[derive(Debug, Default)]
pub struct BytesStore {
    inner: MemoryStore,
}

impl BytesStore {
    /// An empty store.
    pub fn new() -> BytesStore {
        BytesStore::default()
    }

    /// Serializes every entry to bytes (deterministic: entries are
    /// ordered by key). Values are streamed out borrowed, never cloned.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u8(VERSION);
        w.uvarint(self.inner.stats().entries as u64);
        self.inner.for_each_entry(|key, bytes| {
            w.u8(key.phase.index() as u8);
            w.hash(key.hash);
            w.bytes(bytes);
        });
        w.into_bytes()
    }

    /// Restores a store from [`BytesStore::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<BytesStore, DecodeError> {
        let mut r = Reader::new(bytes);
        r.expect_magic(MAGIC)?;
        let version = r.u8()?;
        if version != VERSION {
            return r.err(format!("unsupported store version {version}"));
        }
        let n = r.len("store entries")?;
        let store = BytesStore::new();
        for _ in 0..n {
            let tag = r.u8()? as usize;
            let Some(phase) = Phase::from_index(tag) else {
                return r.err(format!("bad phase tag {tag}"));
            };
            let hash = r.hash()?;
            store.inner.put(&PhaseKey { phase, hash }, r.bytes()?);
        }
        r.finish()?;
        Ok(store)
    }
}

impl ArtifactStore for BytesStore {
    fn get(&self, key: &PhaseKey) -> Option<Vec<u8>> {
        self.inner.get(key)
    }

    fn put(&self, key: &PhaseKey, bytes: &[u8]) {
        self.inner.put(key, bytes);
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// Virtual ring points per shard. Enough that the keyspace splits
/// near-evenly across shards (arc-length variance shrinks with the
/// point count) while routing stays a cheap binary search.
const RING_REPLICAS: usize = 128;

/// A composite [`ArtifactStore`] that partitions the [`PhaseKey`] space
/// across N inner backends by consistent hashing on the key's
/// [`ContentHash`].
///
/// Each shard owns 128 virtual points on a 128-bit hash ring
/// (derived deterministically from the shard's position, so the layout
/// is identical in every process); a key routes to the shard owning the
/// first ring point at or after the key's hash, wrapping at the top.
/// Consistent hashing — rather than `hash % N` — means growing the ring
/// by one shard remaps only the keys that land in the new shard's arcs,
/// so a warm deployment can be re-partitioned without invalidating most
/// of its cache.
///
/// Shards are arbitrary `Arc<dyn ArtifactStore>`s and may be
/// heterogeneous: a deployment can mix bounded [`MemoryStore`] LRUs with
/// persistable [`BytesStore`]s, and because each key deterministically
/// owns one shard, shards can be snapshotted and rehydrated
/// *independently* (keep the typed `Arc<BytesStore>` handles you built
/// the composite from and snapshot each — see
/// [`ShardedStore::with_bytes_shards`]).
///
/// [`ShardedStore::stats`] aggregates every shard's counters, per-phase
/// histograms included, so a service reports one coherent cache view.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Arc<dyn ArtifactStore>>,
    /// `(ring point, shard index)`, sorted by point.
    ring: Vec<(u128, usize)>,
}

impl ShardedStore {
    /// A composite over the given shards.
    ///
    /// # Panics
    ///
    /// When `shards` is empty.
    pub fn new(shards: Vec<Arc<dyn ArtifactStore>>) -> ShardedStore {
        assert!(!shards.is_empty(), "a sharded store needs >= 1 shard");
        let mut ring = Vec::with_capacity(shards.len() * RING_REPLICAS);
        for shard in 0..shards.len() {
            for replica in 0..RING_REPLICAS {
                let mut h = ContentHasher::new();
                h.update(b"MCRRING1");
                h.update(&(shard as u64).to_le_bytes());
                h.update(&(replica as u64).to_le_bytes());
                ring.push((h.finish128().0, shard));
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|(point, _)| *point);
        ShardedStore { shards, ring }
    }

    /// A composite over `n` unbounded [`MemoryStore`] shards.
    pub fn with_memory_shards(n: usize) -> ShardedStore {
        ShardedStore::new(
            (0..n.max(1))
                .map(|_| Arc::new(MemoryStore::unbounded()) as Arc<dyn ArtifactStore>)
                .collect(),
        )
    }

    /// A composite over `n` [`BytesStore`] shards, returning the typed
    /// handles alongside so each shard can be snapshotted
    /// ([`BytesStore::to_bytes`]) and rehydrated independently.
    pub fn with_bytes_shards(n: usize) -> (ShardedStore, Vec<Arc<BytesStore>>) {
        let typed: Vec<Arc<BytesStore>> =
            (0..n.max(1)).map(|_| Arc::new(BytesStore::new())).collect();
        let store = ShardedStore::new(
            typed
                .iter()
                .map(|s| Arc::clone(s) as Arc<dyn ArtifactStore>)
                .collect(),
        );
        (store, typed)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in construction order.
    pub fn shards(&self) -> &[Arc<dyn ArtifactStore>] {
        &self.shards
    }

    /// The index of the shard owning `key` (stable across processes).
    pub fn shard_index(&self, key: &PhaseKey) -> usize {
        let at = self.ring.partition_point(|&(point, _)| point < key.hash.0) % self.ring.len();
        self.ring[at].1
    }
}

impl ArtifactStore for ShardedStore {
    fn get(&self, key: &PhaseKey) -> Option<Vec<u8>> {
        self.shards[self.shard_index(key)].get(key)
    }

    fn put(&self, key: &PhaseKey, bytes: &[u8]) {
        self.shards[self.shard_index(key)].put(key, bytes);
    }

    fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            total.absorb(&shard.stats());
        }
        total
    }

    fn is_caching(&self) -> bool {
        self.shards.iter().any(|s| s.is_caching())
    }
}

/// A stable fingerprint of a compiled program: the Merkle root
/// [`mcr_lang::program_fingerprint`] computes over the shared state and
/// the per-function fingerprints. Part of every session's key basis, so
/// artifacts of different programs can never be confused even when dumps
/// and inputs coincide.
pub fn program_fingerprint(program: &mcr_lang::Program) -> ContentHash {
    ContentHash(mcr_lang::program_fingerprint(program))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(phase: Phase, seed: u8) -> PhaseKey {
        PhaseKey::derive(ContentHash::of(&[seed]), phase, None)
    }

    #[test]
    fn phase_key_derivation_is_stable_and_distinct() {
        let basis = ContentHash::of(b"basis");
        let a = PhaseKey::derive(basis, Phase::Index, None);
        let b = PhaseKey::derive(basis, Phase::Index, None);
        assert_eq!(a, b);
        let up = ContentHash::of(b"artifact");
        assert_ne!(a, PhaseKey::derive(basis, Phase::Align, Some(up)));
        assert_ne!(
            PhaseKey::derive(basis, Phase::Align, Some(up)),
            PhaseKey::derive(basis, Phase::Align, Some(ContentHash::of(b"other"))),
        );
        assert_ne!(
            a.hash,
            PhaseKey::derive(ContentHash::of(b"other basis"), Phase::Index, None).hash
        );
    }

    #[test]
    fn memory_store_round_trips_and_counts() {
        let store = MemoryStore::unbounded();
        let k = key(Phase::Index, 1);
        assert_eq!(store.get(&k), None);
        store.put(&k, b"artifact");
        assert_eq!(store.get(&k).as_deref(), Some(b"artifact".as_ref()));
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 8);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let store = MemoryStore::with_capacity(8);
        let (a, b, c) = (
            key(Phase::Index, 1),
            key(Phase::Index, 2),
            key(Phase::Index, 3),
        );
        store.put(&a, b"aaaa");
        store.put(&b, b"bbbb");
        // Touch `a` so `b` is now least recently used.
        assert!(store.get(&a).is_some());
        store.put(&c, b"cccc");
        assert!(store.get(&a).is_some(), "recently used survives");
        assert!(store.get(&b).is_none(), "LRU entry evicted");
        assert!(store.get(&c).is_some());
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 8);
    }

    #[test]
    fn oversized_entry_is_retained_alone() {
        let store = MemoryStore::with_capacity(4);
        let k = key(Phase::Search, 9);
        store.put(&k, b"waytoobig");
        assert!(store.get(&k).is_some());
        assert_eq!(store.stats().entries, 1);
    }

    #[test]
    fn bytes_store_round_trips_through_the_wire_codec() {
        let store = BytesStore::new();
        store.put(&key(Phase::Index, 1), b"one");
        store.put(&key(Phase::Search, 2), b"two");
        let blob = store.to_bytes();
        let restored = BytesStore::from_bytes(&blob).unwrap();
        assert_eq!(
            restored.get(&key(Phase::Index, 1)).as_deref(),
            Some(b"one".as_ref())
        );
        assert_eq!(
            restored.get(&key(Phase::Search, 2)).as_deref(),
            Some(b"two".as_ref())
        );
        assert_eq!(restored.stats().entries, 2);
        // Deterministic snapshot.
        assert_eq!(blob, restored.to_bytes());
        // Truncations never panic.
        for cut in 0..blob.len() {
            assert!(BytesStore::from_bytes(&blob[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn null_store_forgets_everything() {
        let store = NullStore;
        let k = key(Phase::Rank, 0);
        store.put(&k, b"bytes");
        assert_eq!(store.get(&k), None);
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn per_phase_histograms_follow_the_global_counters() {
        let store = MemoryStore::with_capacity(16);
        let (idx, srch) = (key(Phase::Index, 1), key(Phase::Search, 2));
        store.put(&idx, b"12345678");
        store.put(&srch, b"abcdefgh");
        assert!(store.get(&idx).is_some());
        assert!(store.get(&key(Phase::Rank, 3)).is_none());
        // A third insert overflows the 16-byte capacity; the LRU victim
        // is the search entry (index was touched last).
        store.put(&key(Phase::Diff, 4), b"qrstuvwx");
        let stats = store.stats();
        assert_eq!(stats.phase(Phase::Index).hits, 1);
        assert_eq!(stats.phase(Phase::Index).inserts, 1);
        assert_eq!(stats.phase(Phase::Rank).misses, 1);
        assert_eq!(stats.phase(Phase::Search).evictions, 1);
        assert_eq!(stats.phase(Phase::Search).entries, 0);
        assert_eq!(stats.phase(Phase::Search).bytes, 0);
        assert_eq!(stats.phase(Phase::Diff).entries, 1);
        // The histogram rows sum back to the global counters.
        let (mut h, mut m, mut i, mut e, mut n, mut b) = (0, 0, 0, 0, 0, 0);
        for row in &stats.per_phase {
            h += row.hits;
            m += row.misses;
            i += row.inserts;
            e += row.evictions;
            n += row.entries;
            b += row.bytes;
        }
        assert_eq!(
            (h, m, i, e, n, b),
            (
                stats.hits,
                stats.misses,
                stats.inserts,
                stats.evictions,
                stats.entries,
                stats.bytes
            )
        );
    }

    #[test]
    fn sharded_store_routes_deterministically_and_round_trips() {
        let sharded = ShardedStore::with_memory_shards(4);
        assert_eq!(sharded.shard_count(), 4);
        let keys: Vec<PhaseKey> = (0..64u8)
            .map(|s| key(PHASES[(s % 5) as usize], s))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(sharded.get(k), None);
            sharded.put(k, &[i as u8; 8]);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(sharded.get(k).as_deref(), Some([i as u8; 8].as_ref()));
            // Routing is a pure function of the key.
            assert_eq!(sharded.shard_index(k), sharded.shard_index(k));
        }
        // The keyspace actually spreads: no shard holds everything.
        let per_shard: Vec<usize> = sharded.shards().iter().map(|s| s.stats().entries).collect();
        assert_eq!(per_shard.iter().sum::<usize>(), keys.len());
        assert!(per_shard.iter().all(|&n| n < keys.len()), "{per_shard:?}");
        // Aggregated stats cover every shard.
        let stats = sharded.stats();
        assert_eq!(stats.entries, keys.len());
        assert_eq!(stats.inserts, keys.len() as u64);
        assert_eq!(stats.hits, keys.len() as u64);
        assert_eq!(stats.misses, keys.len() as u64);
        assert!(sharded.is_caching());
    }

    #[test]
    fn sharded_routing_is_stable_across_instances_and_mostly_under_growth() {
        let a = ShardedStore::with_memory_shards(4);
        let b = ShardedStore::with_memory_shards(4);
        let grown = ShardedStore::with_memory_shards(5);
        let keys: Vec<PhaseKey> = (0..200u8).map(|s| key(Phase::Index, s)).collect();
        let mut moved = 0usize;
        for k in &keys {
            assert_eq!(a.shard_index(k), b.shard_index(k), "layout is canonical");
            if a.shard_index(k) != grown.shard_index(k) {
                moved += 1;
            }
        }
        // Consistent hashing: growing 4 -> 5 shards remaps roughly 1/5
        // of the keys, not all of them (modulo hashing would remap ~4/5).
        assert!(moved > 0, "a new shard must take over some keys");
        assert!(moved < keys.len() / 2, "only a fraction moves: {moved}");
    }

    #[test]
    fn sharded_bytes_shards_snapshot_and_rehydrate_independently() {
        let (sharded, typed) = ShardedStore::with_bytes_shards(4);
        let keys: Vec<PhaseKey> = (0..32u8)
            .map(|s| key(PHASES[(s % 5) as usize], s))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            sharded.put(k, &[i as u8; 4]);
        }
        // Snapshot each shard independently and rebuild the composite
        // from the restored shards (a second triage worker's startup).
        let restored = ShardedStore::new(
            typed
                .iter()
                .map(|s| {
                    Arc::new(BytesStore::from_bytes(&s.to_bytes()).unwrap())
                        as Arc<dyn ArtifactStore>
                })
                .collect(),
        );
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(restored.get(k).as_deref(), Some([i as u8; 4].as_ref()));
        }
        assert_eq!(restored.stats().entries, keys.len());
    }

    use crate::observe::PHASES;

    #[test]
    fn program_fingerprint_distinguishes_programs() {
        let a = mcr_lang::compile("global x: int; fn main() { x = 1; }").unwrap();
        let a2 = mcr_lang::compile("global x: int; fn main() { x = 1; }").unwrap();
        let b = mcr_lang::compile("global x: int; fn main() { x = 2; }").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a2));
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn entry_walks_agree_with_materialized_entries() {
        let store = MemoryStore::unbounded();
        let mut materialized = Vec::new();
        for s in 0..12u8 {
            let k = key(PHASES[(s % 5) as usize], s);
            let bytes = vec![s; (s as usize + 1) * 3];
            store.put(&k, &bytes);
            materialized.push((k, bytes));
        }
        materialized.sort_unstable();
        let mut walked = Vec::new();
        store.for_each_entry(|k, b| walked.push((*k, b.to_vec())));
        assert_eq!(walked, materialized);
        assert_eq!(
            store.entry_sizes(),
            materialized
                .iter()
                .map(|(k, b)| (*k, b.len()))
                .collect::<Vec<_>>()
        );
    }
}
