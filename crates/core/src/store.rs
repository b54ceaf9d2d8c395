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
//! Five stores ship here:
//!
//! * [`NullStore`] — caches nothing (the default of a bare session),
//! * [`MemoryStore`] — an in-memory LRU bounded by total artifact bytes,
//! * [`BytesStore`] — an unbounded store whose whole content serializes
//!   to one byte string on the same wire codec the session checkpoints
//!   use, so a warm cache can be persisted or shipped between processes
//!   like a checkpoint,
//! * [`SegStore`] — a read-mostly store over one segmented container
//!   ([`mcr_dump::wire::SegmentedBytes`]): entries rehydrate by byte
//!   range on demand, verifying each fixed-size segment at most once,
//!   so a multi-megabyte warm snapshot costs only the ranges actually
//!   touched (the mmap-shaped backend of the streaming-artifacts layer),
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
use mcr_dump::wire::{ContentHash, ContentHasher, Reader, SegmentWriter, SegmentedBytes, Writer};
use mcr_dump::DecodeError;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 4] = b"MCRC";
const VERSION: u8 = 1;

/// Magic prefix of a [`SegStore`] directory.
const SEG_STORE_MAGIC: &[u8; 4] = b"MCSS";
/// [`SegStore`] directory format version.
const SEG_STORE_VERSION: u8 = 1;
/// Default frame size for [`SegStore`] snapshots: one entry read touches
/// few frames, framing overhead stays under 1%.
pub const SEG_STORE_FRAME_SIZE: usize = 4096;

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

    /// Mean resident artifact size of this phase kind, or `None` when
    /// no entries of the kind are resident.
    pub fn mean_entry_size(&self) -> Option<usize> {
        (self.entries > 0).then(|| self.bytes / self.entries)
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

    /// Mean resident artifact size across the per-phase histogram
    /// ([`StoreStats::per_phase`]), or `None` when nothing is resident.
    ///
    /// Computed from the histogram rows rather than the global
    /// counters so a composite that absorbs shards with zeroed globals
    /// still reports a usable mean.
    pub fn mean_entry_size(&self) -> Option<usize> {
        let (entries, bytes) = self
            .per_phase
            .iter()
            .fold((0usize, 0usize), |(e, b), p| (e + p.entries, b + p.bytes));
        (entries > 0).then(|| bytes / entries)
    }
}

/// Frame size (bytes) to use for segmented containers serving the
/// workload `stats` describes, derived from the measured per-phase
/// residency histogram instead of the fixed [`SEG_STORE_FRAME_SIZE`] /
/// `mcr_dump::DUMP_FRAME_SIZE` constants.
///
/// A frame near the mean entry size keeps a typical rehydration to a
/// couple of segment touches while bounding resident bytes to roughly
/// one artifact; the mean is clamped to `[512, 65536]` so a store full
/// of tiny rank artifacts doesn't shred the container into thousands of
/// frames (framing overhead) and one giant search artifact doesn't
/// force whole-blob residency. Falls back to [`SEG_STORE_FRAME_SIZE`]
/// when `stats` has no resident entries to measure.
///
/// Purely a residency/latency knob: frame size never changes decoded
/// content, so it is excluded from phase keys and checkpoints.
pub fn measured_frame_size(stats: &StoreStats) -> usize {
    stats
        .mean_entry_size()
        .map_or(SEG_STORE_FRAME_SIZE, |mean| mean.clamp(512, 65_536))
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

    /// Every resident entry, ordered by key — a deterministic snapshot.
    ///
    /// This clones every value eagerly, doubling resident bytes for the
    /// duration; migration and measurement paths should prefer
    /// [`MemoryStore::for_each_entry`] (borrowed values, one at a time)
    /// or [`MemoryStore::entry_sizes`] (no values at all).
    pub fn entries(&self) -> Vec<(PhaseKey, Vec<u8>)> {
        let mut entries = Vec::new();
        self.for_each_entry(|k, b| entries.push((*k, b.to_vec())));
        entries
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

    /// Snapshots the store into a [`SegStore`] container (see
    /// [`SegStore::snapshot`]): the segmented, lazily-rehydratable
    /// counterpart of [`BytesStore::to_bytes`].
    pub fn to_segmented(&self, frame_size: usize) -> Vec<u8> {
        SegStore::snapshot(&self.inner, frame_size)
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

/// Segment-level access counters of a [`SegStore`]: how many segment
/// touches its range reads performed, and how many were first touches
/// that had to verify the segment checksum. The difference is work the
/// lazy representation skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegAccessStats {
    /// Segments touched by entry rehydrations (with repetition).
    pub touches: u64,
    /// Touches that verified a segment for the first time.
    pub verified: u64,
}

impl SegAccessStats {
    /// Fraction of segment touches that found the segment already
    /// verified, in `[0, 1]` (0 when nothing was read). This is the
    /// "segment hit rate" the streaming benchmarks report: high means
    /// entries cluster in few segments and re-reads are near-free.
    pub fn hit_rate(&self) -> f64 {
        if self.touches == 0 {
            0.0
        } else {
            (self.touches - self.verified) as f64 / self.touches as f64
        }
    }
}

#[derive(Debug)]
struct SegInner {
    /// Per-segment "checksum already verified" bitmap.
    verified: Vec<bool>,
    /// Entries written after the snapshot was taken.
    overlay: HashMap<PhaseKey, Vec<u8>>,
    stats: StoreStats,
    access: SegAccessStats,
}

/// A read-mostly [`ArtifactStore`] over one segmented container.
///
/// The container (built by [`SegStore::snapshot`] /
/// [`BytesStore::to_segmented`]) holds a directory (key → byte range)
/// followed by every entry's bytes, all packaged as a
/// [`SegmentedBytes`] stream of fixed-size checksummed frames. Opening
/// the store parses the header/footer and the directory — O(directory),
/// not O(snapshot) — and `get` rehydrates exactly the byte range of the
/// requested entry, verifying each touched segment's checksum at most
/// once across the store's lifetime (an mmap-shaped access pattern:
/// first touch faults and validates, later touches are free).
///
/// `put` lands in an in-memory overlay, so a warm snapshot keeps
/// absorbing new artifacts; the overlay is *not* part of the container
/// (re-snapshot through a [`BytesStore`] to persist it). A corrupt
/// segment surfaces as a cache miss, never as corrupt artifact bytes —
/// the store is a cache, not a source of truth.
#[derive(Debug)]
pub struct SegStore {
    seg: SegmentedBytes,
    /// Payload offset where the concatenated entry bytes begin.
    entries_base: usize,
    directory: HashMap<PhaseKey, (usize, usize)>,
    inner: Mutex<SegInner>,
}

impl SegStore {
    /// Serializes every entry of `store` into a segmented container:
    /// an 8-byte LE directory length, the directory (`MCSS` magic,
    /// version, count, then per entry: phase tag, key hash, offset
    /// varint, length varint), then the entry bytes back to back —
    /// streamed through a [`SegmentWriter`] with two borrowed walks
    /// ([`MemoryStore::entry_sizes`] + [`MemoryStore::for_each_entry`]),
    /// so snapshotting never clones the store's values.
    pub fn snapshot(store: &MemoryStore, frame_size: usize) -> Vec<u8> {
        let sizes = store.entry_sizes();
        let mut dir = Writer::new();
        dir.raw(SEG_STORE_MAGIC);
        dir.u8(SEG_STORE_VERSION);
        dir.uvarint(sizes.len() as u64);
        let mut offset = 0u64;
        for (key, len) in &sizes {
            dir.u8(key.phase.index() as u8);
            dir.hash(key.hash);
            dir.uvarint(offset);
            dir.uvarint(*len as u64);
            offset += *len as u64;
        }
        let dir = dir.into_bytes();
        let mut w = SegmentWriter::new(frame_size);
        w.write(&(dir.len() as u64).to_le_bytes());
        w.write(&dir);
        store.for_each_entry(|_, bytes| w.write(bytes));
        w.finish().into_bytes()
    }

    /// Opens a snapshot container.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on corrupt framing or a malformed directory. Only
    /// the segments holding the directory are checksum-verified here.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<SegStore, DecodeError> {
        SegStore::from_segmented(SegmentedBytes::parse(bytes)?)
    }

    /// Opens an already-parsed container (see [`SegStore::from_bytes`]).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on a malformed directory.
    pub fn from_segmented(seg: SegmentedBytes) -> Result<SegStore, DecodeError> {
        let fail = |offset: usize, msg: &str| DecodeError {
            msg: msg.to_string(),
            offset,
        };
        let total = seg.total_len() as usize;
        if total < 8 {
            return Err(fail(total, "segment store payload too short"));
        }
        let dir_len_bytes = seg.read_range(0, 8)?;
        let dir_len = u64::from_le_bytes(dir_len_bytes.try_into().expect("8 bytes")) as usize;
        if dir_len > total - 8 {
            return Err(fail(0, "segment store directory overruns payload"));
        }
        let dir = seg.read_range(8, dir_len)?;
        let entries_base = 8 + dir_len;
        let entries_len = total - entries_base;
        let mut r = Reader::new(&dir);
        r.expect_magic(SEG_STORE_MAGIC)?;
        let version = r.u8()?;
        if version != SEG_STORE_VERSION {
            return r.err(format!("unsupported segment store version {version}"));
        }
        let count = r.len("segment store directory")?;
        let mut directory = HashMap::with_capacity(count.min(65536));
        let mut stats = StoreStats::default();
        for _ in 0..count {
            let tag = r.u8()? as usize;
            let Some(phase) = Phase::from_index(tag) else {
                return r.err(format!("bad phase tag {tag}"));
            };
            let hash = r.hash()?;
            let off = r.uvarint()? as usize;
            let len = r.uvarint()? as usize;
            if off.checked_add(len).is_none_or(|end| end > entries_len) {
                return r.err("directory entry out of bounds");
            }
            let key = PhaseKey { phase, hash };
            if directory.insert(key, (off, len)).is_some() {
                return r.err(format!("duplicate directory key {key}"));
            }
            stats.entries += 1;
            stats.bytes += len;
            stats.per_phase[phase.index()].entries += 1;
            stats.per_phase[phase.index()].bytes += len;
        }
        r.finish()?;
        // The directory reads above already verified the leading
        // segments; record that so entry reads near the front are hits.
        let mut verified = vec![false; seg.segment_count()];
        let covered = entries_base.div_ceil(seg.frame_size()).min(verified.len());
        for v in verified.iter_mut().take(covered) {
            *v = true;
        }
        Ok(SegStore {
            seg,
            entries_base,
            directory,
            inner: Mutex::new(SegInner {
                verified,
                overlay: HashMap::new(),
                stats,
                access: SegAccessStats::default(),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SegInner> {
        self.inner.lock().expect("segment store poisoned")
    }

    /// Number of snapshot entries in the directory (overlay excluded).
    pub fn snapshot_entries(&self) -> usize {
        self.directory.len()
    }

    /// Bytes of the underlying container (what actually stays resident,
    /// as opposed to [`StoreStats::bytes`], which reports the logical
    /// artifact bytes the directory addresses).
    pub fn container_len(&self) -> usize {
        self.seg.as_bytes().len()
    }

    /// Segment-level access counters (see [`SegAccessStats`]).
    pub fn access_stats(&self) -> SegAccessStats {
        self.lock().access
    }
}

impl ArtifactStore for SegStore {
    fn get(&self, key: &PhaseKey) -> Option<Vec<u8>> {
        let mut inner = self.lock();
        let kind = key.phase.index();
        if let Some(bytes) = inner.overlay.get(key) {
            let out = bytes.clone();
            inner.stats.hits += 1;
            inner.stats.per_phase[kind].hits += 1;
            return Some(out);
        }
        let Some(&(off, len)) = self.directory.get(key) else {
            inner.stats.misses += 1;
            inner.stats.per_phase[kind].misses += 1;
            return None;
        };
        // Verify lazily: consult the bitmap per touched segment, but
        // only commit first-touch verifications after the whole range
        // read succeeds (a failed checksum must stay unverified).
        let mut fresh = Vec::new();
        let SegInner {
            verified, access, ..
        } = &mut *inner;
        let read = self.seg.read_range_with(self.entries_base + off, len, |i| {
            access.touches += 1;
            if verified[i] || fresh.contains(&i) {
                false
            } else {
                fresh.push(i);
                access.verified += 1;
                true
            }
        });
        match read {
            Ok(bytes) => {
                for i in fresh {
                    inner.verified[i] = true;
                }
                inner.stats.hits += 1;
                inner.stats.per_phase[kind].hits += 1;
                Some(bytes)
            }
            Err(_) => {
                inner.stats.misses += 1;
                inner.stats.per_phase[kind].misses += 1;
                None
            }
        }
    }

    fn put(&self, key: &PhaseKey, bytes: &[u8]) {
        // Identical keys carry identical bytes by construction, so an
        // entry already addressed by the snapshot needs no overlay copy.
        if self.directory.contains_key(key) {
            return;
        }
        let mut inner = self.lock();
        let kind = key.phase.index();
        if inner.overlay.insert(*key, bytes.to_vec()).is_none() {
            inner.stats.inserts += 1;
            inner.stats.entries += 1;
            inner.stats.bytes += bytes.len();
            inner.stats.per_phase[kind].inserts += 1;
            inner.stats.per_phase[kind].entries += 1;
            inner.stats.per_phase[kind].bytes += bytes.len();
        }
    }

    fn stats(&self) -> StoreStats {
        self.lock().stats
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
    fn measured_frame_size_tracks_the_residency_histogram() {
        // No measurements → the fixed default.
        let store = MemoryStore::unbounded();
        assert_eq!(store.stats().mean_entry_size(), None);
        assert_eq!(measured_frame_size(&store.stats()), SEG_STORE_FRAME_SIZE);

        // Mean over the per-phase rows, clamped below at 512...
        store.put(&key(Phase::Index, 1), &[0u8; 40]);
        store.put(&key(Phase::Search, 2), &[0u8; 80]);
        let stats = store.stats();
        assert_eq!(stats.mean_entry_size(), Some(60));
        assert_eq!(stats.phase(Phase::Index).mean_entry_size(), Some(40));
        assert_eq!(stats.phase(Phase::Align).mean_entry_size(), None);
        assert_eq!(measured_frame_size(&stats), 512);

        // ...tracking the mean inside the clamp window...
        store.put(&key(Phase::Diff, 3), &[0u8; 6000]);
        let stats = store.stats();
        assert_eq!(stats.mean_entry_size(), Some(2040));
        assert_eq!(measured_frame_size(&stats), 2040);

        // ...and clamped above at 64 KiB.
        store.put(&key(Phase::Search, 4), &[0u8; 1 << 20]);
        assert_eq!(measured_frame_size(&store.stats()), 65_536);
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
        for s in 0..12u8 {
            store.put(
                &key(PHASES[(s % 5) as usize], s),
                &vec![s; (s as usize + 1) * 3],
            );
        }
        let materialized = store.entries();
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

    fn seeded_store(n: u8, entry_bytes: usize) -> MemoryStore {
        let store = MemoryStore::unbounded();
        for s in 0..n {
            store.put(
                &key(PHASES[(s % 5) as usize], s),
                &vec![s.wrapping_mul(17); entry_bytes],
            );
        }
        store
    }

    #[test]
    fn seg_store_rehydrates_entries_by_range() {
        let source = seeded_store(16, 600);
        let blob = SegStore::snapshot(&source, 256);
        let seg = SegStore::from_bytes(blob.clone()).unwrap();
        assert_eq!(seg.snapshot_entries(), 16);
        assert_eq!(seg.stats().entries, 16);
        assert_eq!(seg.stats().bytes, 16 * 600);
        // Every entry rehydrates byte-identical to the source.
        source.for_each_entry(|k, b| {
            assert_eq!(seg.get(k).as_deref(), Some(b), "{k}");
        });
        // Determinism: the snapshot is canonical.
        assert_eq!(SegStore::snapshot(&source, 256), blob);
        // Rehydrating everything verified each payload segment once;
        // a second full pass is all segment hits.
        let first = seg.access_stats();
        assert!(first.touches >= first.verified);
        source.for_each_entry(|k, _| {
            seg.get(k);
        });
        let second = seg.access_stats();
        assert_eq!(second.verified, first.verified, "no re-verification");
        assert!(second.hit_rate() > first.hit_rate());
        assert_eq!(seg.stats().hits, 32);
    }

    #[test]
    fn seg_store_verifies_lazily_and_fails_closed() {
        let source = seeded_store(32, 500);
        let blob = SegStore::snapshot(&source, 256);
        let seg = SegStore::from_bytes(blob.clone()).unwrap();
        // One entry read touches a sliver of the container.
        let (k, _) = source.entries().pop().unwrap();
        assert!(seg.get(&k).is_some());
        let touched = seg.access_stats().verified as usize;
        assert!(
            touched * 256 < blob.len() / 4,
            "one entry must not verify most of the container ({touched} segments)"
        );
        // Flip a byte deep in the entries region: opening still works
        // (lazy), the corrupt entry reads as a miss, others still hit.
        let mut corrupt = blob.clone();
        let at = blob.len() * 3 / 4;
        corrupt[at] ^= 0x20;
        match SegStore::from_bytes(corrupt) {
            // The flip may land on framing metadata, which fails parse.
            Err(_) => {}
            Ok(store) => {
                let mut hits = 0;
                let mut misses = 0;
                source.for_each_entry(|k, b| match store.get(k) {
                    Some(got) => {
                        assert_eq!(got, b, "a hit must be byte-identical");
                        hits += 1;
                    }
                    None => misses += 1,
                });
                assert!(misses >= 1, "corrupt segment must surface as a miss");
                assert!(hits >= 1, "untouched segments must still hit");
            }
        }
        // Truncations of the container never open.
        for cut in (0..blob.len()).step_by(37) {
            assert!(
                SegStore::from_bytes(blob[..cut].to_vec()).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn seg_store_overlay_absorbs_new_entries() {
        let source = seeded_store(4, 100);
        let seg = SegStore::from_bytes(SegStore::snapshot(&source, 128)).unwrap();
        let fresh = key(Phase::Search, 99);
        assert_eq!(seg.get(&fresh), None);
        seg.put(&fresh, b"new artifact");
        assert_eq!(seg.get(&fresh).as_deref(), Some(b"new artifact".as_ref()));
        // Re-putting a snapshot-resident key is a no-op, not a copy.
        let (resident, bytes) = source.entries().remove(0);
        seg.put(&resident, &bytes);
        let stats = seg.stats();
        assert_eq!(stats.entries, 5);
        assert_eq!(stats.inserts, 1);
        assert!(seg.is_caching());
    }

    #[test]
    fn bytes_store_to_segmented_round_trips() {
        let store = BytesStore::new();
        store.put(&key(Phase::Index, 1), b"one");
        store.put(&key(Phase::Diff, 2), &[7u8; 2000]);
        let seg = SegStore::from_bytes(store.to_segmented(SEG_STORE_FRAME_SIZE)).unwrap();
        assert_eq!(
            seg.get(&key(Phase::Index, 1)).as_deref(),
            Some(b"one".as_ref())
        );
        assert_eq!(
            seg.get(&key(Phase::Diff, 2)).as_deref(),
            Some([7u8; 2000].as_ref())
        );
        assert_eq!(seg.stats().entries, 2);
    }
}
