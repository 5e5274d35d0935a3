//! Pooled buffers for the zero-copy wire path.
//!
//! The receive path reads straight into pooled chunks that are frozen whole
//! and sliced into frame payloads without copying; the send path stages
//! frame headers in pooled arenas that vectored writes reference in place.
//! Both directions return their buffers here, and the pool's job is to hand
//! the same allocations back out instead of hitting the allocator per
//! chunk.
//!
//! Ownership rules (see DESIGN.md §5.14): a buffer leaves the pool via
//! [`BufferPool::get_scratch`]/[`BufferPool::get_arena`], is frozen into
//! [`Bytes`] once filled, and is registered back with
//! [`BufferPool::recycle`] *while frames decoded from it are still alive*.
//! The pool holds one weak-ish handle (a plain `Bytes` clone) per recycled
//! chunk; the moment every payload slice drops, that handle becomes the
//! sole owner and the next `get_*` call reclaims the allocation via
//! [`Bytes::try_into_mut`]. Nothing is ever copied to reclaim — the
//! refcount reaching one *is* the return-to-pool event.

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default pooled chunk size (bytes). One chunk typically carries a whole
/// read batch of coalesced frames, so payload slices share one allocation.
pub(crate) const DEFAULT_CHUNK: usize = 16 * 1024;

/// Free buffers retained before extras are released to the allocator.
const DEFAULT_MAX_RETAINED: usize = 32;

/// Frozen chunks tracked for refcount-drop reclamation. Beyond this the
/// oldest handle is forgotten (its memory frees normally once consumers
/// drop it) — the pool never pins unbounded history.
const MAX_PENDING_RECLAIM: usize = 32;

/// Buffers whose capacity outgrew the chunk size by this factor are not
/// retained: one 16 MiB frame must not turn the pool into a 16 MiB cache.
const OVERSIZE_FACTOR: usize = 4;

/// A pool of reusable byte buffers shared by stream decoders and frame
/// batches. Cheap to share behind an `Arc`; all methods take `&self`.
pub struct BufferPool {
    chunk: usize,
    max_retained: usize,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    reclaimed: AtomicU64,
}

struct PoolInner {
    free: Vec<BytesMut>,
    /// Frozen chunks whose payload slices are still referenced somewhere
    /// downstream. Scanned on `get_*`: a handle with no other owners is
    /// unwrapped back into a reusable buffer.
    pending: VecDeque<Bytes>,
}

/// Counters describing how well the pool is recycling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers served from the free list.
    pub hits: u64,
    /// Buffers that had to be freshly allocated.
    pub misses: u64,
    /// Frozen chunks reclaimed after their last downstream reference
    /// dropped (a subset of `hits` once re-served).
    pub reclaimed: u64,
    /// Frozen chunks currently awaiting their refcount to drop.
    pub awaiting_reclaim: usize,
    /// Buffers currently idle on the free list.
    pub free: usize,
}

impl BufferPool {
    /// Creates a pool serving buffers of at least `chunk` bytes.
    pub fn new(chunk: usize, max_retained: usize) -> Self {
        BufferPool {
            chunk: chunk.max(64),
            max_retained,
            inner: Mutex::new(PoolInner {
                free: Vec::new(),
                pending: VecDeque::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
        }
    }

    /// A full-length scratch buffer (`len() == capacity() >= chunk`) for
    /// reading into: contents are unspecified, callers must track their
    /// own fill level and never expose bytes they did not write.
    pub(crate) fn get_scratch(&self) -> BytesMut {
        let mut buf = self.get_any();
        if buf.len() < buf.capacity() {
            let cap = buf.capacity();
            // Zero-fill happens at most once per fresh allocation; reused
            // buffers come back already full-length.
            buf.resize(cap, 0);
        }
        buf
    }

    /// An empty append buffer (`len() == 0`, `capacity() >= chunk`) for
    /// staging encoded headers.
    pub(crate) fn get_arena(&self) -> BytesMut {
        let mut buf = self.get_any();
        buf.clear();
        buf
    }

    fn get_any(&self) -> BytesMut {
        {
            let mut inner = self.inner.lock();
            if let Some(buf) = inner.free.pop() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return buf;
            }
            // No free buffer: see whether any frozen chunk has shed its
            // last downstream reference and can be unwrapped in place.
            let mut i = 0;
            while i < inner.pending.len() {
                if inner.pending[i].is_unique() {
                    let handle = inner.pending.remove(i).expect("index in range");
                    if let Ok(buf) = handle.try_into_mut() {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.reclaimed.fetch_add(1, Ordering::Relaxed);
                        crate::telemetry::POOL_RECLAIMED.fetch_add(1, Ordering::Relaxed);
                        return buf;
                    }
                    // Unreachable in practice (we held the lock and the
                    // handle was unique), but fall through harmlessly.
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        crate::telemetry::POOL_MISSES.fetch_add(1, Ordering::Relaxed);
        BytesMut::with_capacity(self.chunk)
    }

    /// Returns a mutable buffer directly (arena swaps, growth leftovers).
    /// Oversized or surplus buffers are released to the allocator.
    pub(crate) fn put(&self, buf: BytesMut) {
        if buf.capacity() < self.chunk || buf.capacity() > self.chunk * OVERSIZE_FACTOR {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.free.len() < self.max_retained {
            inner.free.push(buf);
        }
    }

    /// Registers a frozen chunk for refcount-drop reclamation: when every
    /// other reference (decoded payloads, staged headers) drops, the next
    /// `get_*` call recovers the allocation without copying.
    pub(crate) fn recycle(&self, frozen: Bytes) {
        let mut inner = self.inner.lock();
        inner.pending.push_back(frozen);
        if inner.pending.len() > MAX_PENDING_RECLAIM {
            // Forget the oldest handle; its memory frees normally when the
            // remaining consumers drop it.
            inner.pending.pop_front();
        }
    }

    /// Current pool counters.
    pub(crate) fn stats(&self) -> PoolStats {
        let inner = self.inner.lock();
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            awaiting_reclaim: inner.pending.len(),
            free: inner.free.len(),
        }
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new(DEFAULT_CHUNK, DEFAULT_MAX_RETAINED)
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("chunk", &self.chunk)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_full_length_and_arena_is_empty() {
        let pool = BufferPool::new(1024, 4);
        let s = pool.get_scratch();
        assert_eq!(s.len(), s.capacity());
        assert!(s.capacity() >= 1024);
        let a = pool.get_arena();
        assert!(a.is_empty());
        assert!(a.capacity() >= 1024);
    }

    #[test]
    fn put_then_get_reuses_the_allocation() {
        let pool = BufferPool::new(1024, 4);
        let buf = pool.get_scratch();
        let ptr = buf.as_ref().as_ptr();
        pool.put(buf);
        let again = pool.get_scratch();
        assert_eq!(again.as_ref().as_ptr(), ptr);
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn recycle_reclaims_only_after_last_reference_drops() {
        let pool = BufferPool::new(1024, 4);
        let buf = pool.get_scratch();
        let ptr = buf.as_ref().as_ptr();
        let frozen = buf.freeze();
        let payload = frozen.slice(10..20);
        pool.recycle(frozen);

        // A downstream payload still references the chunk: the pool must
        // allocate fresh rather than steal shared storage.
        let other = pool.get_scratch();
        assert_ne!(other.as_ref().as_ptr(), ptr);
        assert_eq!(pool.stats().reclaimed, 0);

        drop(payload);
        let reclaimed = pool.get_scratch();
        assert_eq!(
            reclaimed.as_ref().as_ptr(),
            ptr,
            "refcount drop returns the chunk"
        );
        assert_eq!(pool.stats().reclaimed, 1);
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let pool = BufferPool::new(1024, 4);
        pool.put(BytesMut::with_capacity(1024 * OVERSIZE_FACTOR + 1));
        pool.put(BytesMut::with_capacity(16)); // under-chunk, also refused
        assert_eq!(pool.stats().free, 0);
    }

    #[test]
    fn pending_reclaim_is_bounded() {
        let pool = BufferPool::new(64, 4);
        let mut keep = Vec::new();
        for _ in 0..(MAX_PENDING_RECLAIM + 8) {
            let frozen = pool.get_scratch().freeze();
            keep.push(frozen.clone()); // hold a reference so nothing reclaims
            pool.recycle(frozen);
        }
        assert!(pool.stats().awaiting_reclaim <= MAX_PENDING_RECLAIM);
    }
}
