//! `TimedStore`: a pass-through [`ChunkStore`] that times and counts the
//! calls a benefactor makes into its [`SegmentStore`].
//!
//! It forwards all eleven trait methods. Leaning on a trait default would
//! silently change the engine's behaviour under tracing: the default
//! `read_region` turns off `sendfile` serving, the default
//! `submit_put_batch`/`wait_put` moves the durability wait back onto the
//! pump, and the default `set_deferred_maintenance`/`maintain` runs
//! compaction inline.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use stdchk_net::store::{ChunkStore, FileRegion, SegmentStore};
use stdchk_proto::ids::ChunkId;

/// Counters since the last [`TimedStore::take`].
#[derive(Clone, Debug, Default)]
pub struct StoreCounts {
    /// Nanoseconds spent inside put / put_batch / submit_put_batch.
    pub put_busy_ns: u64,
    /// Payload bytes handed to the store.
    pub put_bytes: u64,
    /// Chunks handed to the store.
    pub put_chunks: u64,
    /// Durations of each `wait_put` (the durability wait), in ns.
    pub wait_ns: Vec<u64>,
    /// Durations of each `get`, in ns.
    pub get_ns: Vec<u64>,
    /// `read_region` calls. A benefactor asks once when it loads a chunk
    /// to serve and, on a hit, once more when it sends it.
    pub region_calls: u64,
    /// `read_region` calls that returned a region (served by sendfile).
    pub region_hits: u64,
    /// Chunks deleted.
    pub deletes: u64,
}

/// A timing wrapper around one benefactor's segment store.
pub struct TimedStore {
    inner: Arc<SegmentStore>,
    put_busy_ns: AtomicU64,
    put_bytes: AtomicU64,
    put_chunks: AtomicU64,
    region_calls: AtomicU64,
    region_hits: AtomicU64,
    deletes: AtomicU64,
    wait_ns: Mutex<Vec<u64>>,
    get_ns: Mutex<Vec<u64>>,
}

impl TimedStore {
    /// Wraps `inner`.
    pub fn new(inner: Arc<SegmentStore>) -> TimedStore {
        TimedStore {
            inner,
            put_busy_ns: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            put_chunks: AtomicU64::new(0),
            region_calls: AtomicU64::new(0),
            region_hits: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            wait_ns: Mutex::new(Vec::new()),
            get_ns: Mutex::new(Vec::new()),
        }
    }

    /// Returns the counts gathered since the previous call and restarts
    /// them from zero.
    pub fn take(&self) -> StoreCounts {
        let swap = |a: &AtomicU64| a.swap(0, Ordering::Relaxed);
        let drain = |m: &Mutex<Vec<u64>>| std::mem::take(&mut *m.lock().expect("probe lock"));
        StoreCounts {
            put_busy_ns: swap(&self.put_busy_ns),
            put_bytes: swap(&self.put_bytes),
            put_chunks: swap(&self.put_chunks),
            wait_ns: drain(&self.wait_ns),
            get_ns: drain(&self.get_ns),
            region_calls: swap(&self.region_calls),
            region_hits: swap(&self.region_hits),
            deletes: swap(&self.deletes),
        }
    }

    fn note_put<T>(&self, start: Instant, batch: &[(ChunkId, &[u8])], res: &io::Result<T>) {
        self.put_busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if res.is_ok() {
            let bytes: usize = batch.iter().map(|(_, d)| d.len()).sum();
            self.put_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            self.put_chunks
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
    }
}

fn push_ns(samples: &Mutex<Vec<u64>>, start: Instant) {
    let ns = start.elapsed().as_nanos() as u64;
    samples.lock().expect("probe lock").push(ns);
}

impl ChunkStore for TimedStore {
    fn put(&self, id: ChunkId, data: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let res = self.inner.put(id, data);
        self.note_put(start, &[(id, data)], &res);
        res
    }

    fn put_batch(&self, batch: &[(ChunkId, &[u8])]) -> io::Result<()> {
        let start = Instant::now();
        let res = self.inner.put_batch(batch);
        self.note_put(start, batch, &res);
        res
    }

    fn submit_put_batch(&self, batch: &[(ChunkId, &[u8])]) -> io::Result<u64> {
        let start = Instant::now();
        let res = self.inner.submit_put_batch(batch);
        self.note_put(start, batch, &res);
        res
    }

    fn wait_put(&self, token: u64) -> io::Result<()> {
        let start = Instant::now();
        let res = self.inner.wait_put(token);
        push_ns(&self.wait_ns, start);
        res
    }

    fn set_deferred_maintenance(&self, deferred: bool) {
        self.inner.set_deferred_maintenance(deferred);
    }

    fn maintain(&self) -> io::Result<()> {
        self.inner.maintain()
    }

    fn get(&self, id: ChunkId) -> io::Result<Option<Bytes>> {
        let start = Instant::now();
        let res = self.inner.get(id);
        push_ns(&self.get_ns, start);
        res
    }

    fn read_region(&self, id: ChunkId) -> Option<FileRegion> {
        let region = self.inner.read_region(id);
        self.region_calls.fetch_add(1, Ordering::Relaxed);
        if region.is_some() {
            self.region_hits.fetch_add(1, Ordering::Relaxed);
        }
        region
    }

    fn delete(&self, id: ChunkId) -> io::Result<()> {
        self.deletes.fetch_add(1, Ordering::Relaxed);
        self.inner.delete(id)
    }

    fn ids(&self) -> io::Result<Vec<ChunkId>> {
        self.inner.ids()
    }

    fn entries(&self) -> io::Result<Vec<(ChunkId, u32)>> {
        self.inner.entries()
    }
}
