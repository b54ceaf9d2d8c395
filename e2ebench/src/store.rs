//! An [`ArtifactStore`] decorator that records a span around every get
//! and put and counts hits and bytes.

use mcr_core::{ArtifactStore, MemoryStore, PhaseKey, StoreStats};
use mcr_e2ebench::trace::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Store traffic seen through a [`TimedStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounts {
    pub gets: u64,
    pub hits: u64,
    pub puts: u64,
    pub put_bytes: u64,
}

impl StoreCounts {
    pub fn absorb(&mut self, o: StoreCounts) {
        self.gets += o.gets;
        self.hits += o.hits;
        self.puts += o.puts;
        self.put_bytes += o.put_bytes;
    }
}

#[derive(Debug)]
pub struct TimedStore {
    inner: Arc<MemoryStore>,
    tracer: Arc<Tracer>,
    gets: AtomicU64,
    hits: AtomicU64,
    puts: AtomicU64,
    put_bytes: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<MemoryStore>, tracer: Arc<Tracer>) -> TimedStore {
        TimedStore {
            inner,
            tracer,
            gets: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            put_bytes: self.put_bytes.load(Ordering::Relaxed),
        }
    }
}

impl ArtifactStore for TimedStore {
    fn get(&self, key: &PhaseKey) -> Option<Vec<u8>> {
        let _span = self.tracer.enter("store.get", None);
        let bytes = self.inner.get(key);
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.hits
            .fetch_add(u64::from(bytes.is_some()), Ordering::Relaxed);
        bytes
    }

    fn put(&self, key: &PhaseKey, bytes: &[u8]) {
        let _span = self.tracer.enter("store.put", None);
        self.inner.put(key, bytes);
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.put_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}
