use crate::codec::{self, Quality};
use crate::error::MediaError;
use crate::frame::Frame;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// An opaque handle to a frame held in a [`FrameStore`].
///
/// The paper (§3): "rather than copying the full image frames to the module,
/// we pass on a reference id that identifies the frame". On-device edges and
/// service calls carry `FrameId`s; only cross-device edges carry encoded
/// pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(u64);

impl FrameId {
    /// The raw id value (used by the wire codec).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds a `FrameId` from its raw value (wire decode only — a
    /// fabricated id will simply miss in the store).
    pub fn from_u64(raw: u64) -> Self {
        FrameId(raw)
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// Counters describing a [`FrameStore`]'s lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStoreStats {
    /// Frames inserted.
    pub inserted: u64,
    /// Frames explicitly released.
    pub released: u64,
    /// Frames evicted because the store exceeded its capacity.
    pub evicted: u64,
    /// Lookups that missed (unknown/expired id).
    pub misses: u64,
    /// [`FrameStore::encoded`] calls served from the transcoding cache.
    pub encode_hits: u64,
    /// [`FrameStore::encoded`] calls that had to run the codec.
    pub encode_misses: u64,
}

/// One resident frame and its transcoding cache: the encodings made of it,
/// by quality shift. They live in the frame's slot, so eviction and
/// release drop them with the frame; [`Bytes`] clones are refcount bumps,
/// so N fan-out destinations share one encoding.
#[derive(Debug)]
struct Slot {
    frame: Arc<Frame>,
    encoded: Vec<(u8, Bytes)>,
}

#[derive(Debug, Default)]
struct Inner {
    frames: HashMap<u64, Slot>,
    order: VecDeque<u64>,
    next_id: u64,
    stats: FrameStoreStats,
}

/// A per-device registry of in-flight frames, shared by all modules and
/// services on that device.
///
/// The store is bounded: when more than `capacity` frames are resident the
/// oldest is evicted (FIFO), which models the paper's drop-at-source design —
/// a healthy pipeline holds only a handful of frames per device at a time.
///
/// `FrameStore` is `Sync`; clone the surrounding [`Arc`] to share it.
pub struct FrameStore {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl FrameStore {
    /// Default capacity used by runtimes (enough for a deep pipeline plus
    /// generous slack).
    pub(crate) const DEFAULT_CAPACITY: usize = 64;

    /// Creates a store holding at most `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "frame store capacity must be nonzero");
        FrameStore {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    /// Creates a store with `FrameStore::DEFAULT_CAPACITY`.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Inserts a frame and returns its reference id.
    ///
    /// If the store is full the oldest frame is evicted first.
    pub fn insert(&self, frame: Frame) -> FrameId {
        let mut inner = self.inner.lock();
        while inner.frames.len() >= self.capacity {
            if let Some(old) = inner.order.pop_front() {
                if inner.frames.remove(&old).is_some() {
                    inner.stats.evicted += 1;
                }
            } else {
                break;
            }
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let slot = Slot {
            frame: Arc::new(frame),
            encoded: Vec::new(),
        };
        inner.frames.insert(id, slot);
        inner.order.push_back(id);
        inner.stats.inserted += 1;
        FrameId(id)
    }

    /// Looks up a frame by id.
    ///
    /// # Errors
    ///
    /// Returns [`MediaError::UnknownFrame`] if the id was released, evicted
    /// or never inserted.
    pub fn get(&self, id: FrameId) -> Result<Arc<Frame>, MediaError> {
        let mut inner = self.inner.lock();
        match inner.frames.get(&id.0) {
            Some(slot) => Ok(Arc::clone(&slot.frame)),
            None => {
                inner.stats.misses += 1;
                Err(MediaError::UnknownFrame(id.0))
            }
        }
    }

    /// Releases a frame, freeing its slot. Releasing an unknown id is a
    /// no-op (the frame may already have been evicted).
    pub fn release(&self, id: FrameId) {
        let mut inner = self.inner.lock();
        if inner.frames.remove(&id.0).is_some() {
            inner.stats.released += 1;
            inner.order.retain(|&o| o != id.0);
        }
    }

    /// Returns the frame encoded at `quality`, encoding at most once per
    /// `(frame, quality)` pair.
    ///
    /// The first call runs the codec and caches the result; subsequent calls
    /// (a frame fanned out to N cross-device destinations, or retried sends)
    /// are O(1) refcount bumps of the same buffer. The cache entry is dropped
    /// with the frame on release or eviction. Hits and misses are counted in
    /// [`FrameStoreStats`].
    ///
    /// # Errors
    ///
    /// Returns [`MediaError::UnknownFrame`] if the id was released, evicted
    /// or never inserted.
    pub fn encoded(&self, id: FrameId, quality: Quality) -> Result<Bytes, MediaError> {
        let shift = quality.shift();
        let cached = |slot: &Slot| {
            slot.encoded
                .iter()
                .find(|(s, _)| *s == shift)
                .map(|(_, bytes)| bytes.clone())
        };
        let frame = {
            let mut inner = self.inner.lock();
            let Some(slot) = inner.frames.get(&id.0) else {
                inner.stats.misses += 1;
                return Err(MediaError::UnknownFrame(id.0));
            };
            if let Some(bytes) = cached(slot) {
                inner.stats.encode_hits += 1;
                return Ok(bytes);
            }
            let frame = Arc::clone(&slot.frame);
            inner.stats.encode_misses += 1;
            frame
        };
        // Encode outside the lock: the codec is the expensive part and must
        // not serialise unrelated store traffic. Two racing callers may both
        // encode (byte-identical output), but only one entry is kept.
        let bytes = codec::encode(&frame, quality);
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.frames.get_mut(&id.0) {
            if cached(slot).is_none() {
                slot.encoded.push((shift, bytes.clone()));
            }
        }
        Ok(bytes)
    }

    /// Number of frames currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Whether the store currently holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> FrameStoreStats {
        self.inner.lock().stats
    }
}

impl Default for FrameStore {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for FrameStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("FrameStore")
            .field("len", &inner.frames.len())
            .field("capacity", &self.capacity)
            .field("stats", &inner.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuf;

    fn frame(seq: u64) -> Frame {
        FrameBuf::new(4, 4).freeze(seq, 0)
    }

    #[test]
    fn insert_get_release_cycle() {
        let store = FrameStore::new();
        let id = store.insert(frame(1));
        assert_eq!(store.get(id).unwrap().seq(), 1);
        assert_eq!(store.len(), 1);
        store.release(id);
        assert!(store.is_empty());
        assert!(matches!(
            store.get(id).unwrap_err(),
            MediaError::UnknownFrame(_)
        ));
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let store = FrameStore::new();
        let a = store.insert(frame(0));
        let b = store.insert(frame(1));
        assert_ne!(a, b);
        assert!(b.as_u64() > a.as_u64());
        // Ids are never reused, even after release.
        store.release(a);
        let c = store.insert(frame(2));
        assert!(c.as_u64() > b.as_u64());
    }

    #[test]
    fn eviction_drops_oldest_first() {
        let store = FrameStore::with_capacity(2);
        let a = store.insert(frame(0));
        let b = store.insert(frame(1));
        let c = store.insert(frame(2)); // evicts a
        assert!(store.get(a).is_err());
        assert!(store.get(b).is_ok());
        assert!(store.get(c).is_ok());
        assert_eq!(store.stats().evicted, 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn release_unknown_is_noop() {
        let store = FrameStore::new();
        store.release(FrameId::from_u64(999));
        assert_eq!(store.stats().released, 0);
    }

    #[test]
    fn stats_track_all_counters() {
        let store = FrameStore::with_capacity(1);
        let a = store.insert(frame(0));
        let _ = store.insert(frame(1)); // evicts a
        let _ = store.get(a); // miss
        store.release(a); // no-op
        let stats = store.stats();
        assert_eq!(stats.inserted, 2);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.released, 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = FrameStore::with_capacity(0);
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let store = Arc::new(FrameStore::with_capacity(1024));
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..100 {
                    ids.push(store.insert(frame(t * 100 + i)));
                }
                ids
            }));
        }
        let mut all: Vec<FrameId> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400, "ids must be globally unique");
        assert_eq!(store.len(), 400);
    }

    #[test]
    fn encoded_caches_per_frame_and_quality() {
        let store = FrameStore::new();
        let id = store.insert(frame(7));
        let q = Quality::default();

        let first = store.encoded(id, q).unwrap();
        let second = store.encoded(id, q).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, codec::encode(&store.get(id).unwrap(), q));
        let stats = store.stats();
        assert_eq!(stats.encode_misses, 1, "same quality must encode once");
        assert_eq!(stats.encode_hits, 1);

        // A different quality is a distinct cache entry.
        let lossless = store.encoded(id, Quality::LOSSLESS).unwrap();
        assert_ne!(first, lossless);
        assert_eq!(store.stats().encode_misses, 2);
    }

    #[test]
    fn encoded_fan_out_encodes_once() {
        let store = FrameStore::new();
        let id = store.insert(frame(3));
        let q = Quality::default();
        for _ in 0..8 {
            let _ = store.encoded(id, q).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.encode_misses, 1);
        assert_eq!(stats.encode_hits, 7);
    }

    #[test]
    fn encoded_cache_dies_with_frame() {
        let store = FrameStore::with_capacity(1);
        let a = store.insert(frame(0));
        let _ = store.encoded(a, Quality::default()).unwrap();
        store.release(a);
        assert!(store.encoded(a, Quality::default()).is_err());

        let b = store.insert(frame(1));
        let _ = store.encoded(b, Quality::default()).unwrap();
        let _ = store.insert(frame(2)); // evicts b, and b's cache entry
        assert!(store.encoded(b, Quality::default()).is_err());
    }

    #[test]
    fn encoded_unknown_frame_counts_miss() {
        let store = FrameStore::new();
        let err = store
            .encoded(FrameId::from_u64(404), Quality::default())
            .unwrap_err();
        assert!(matches!(err, MediaError::UnknownFrame(404)));
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.stats().encode_misses, 0);
    }

    #[test]
    fn frame_id_display_and_roundtrip() {
        let id = FrameId::from_u64(17);
        assert_eq!(id.to_string(), "frame#17");
        assert_eq!(FrameId::from_u64(id.as_u64()), id);
    }
}
