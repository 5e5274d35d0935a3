//! Metrics: per-stage latency histograms and end-to-end frame accounting.
//!
//! These types produce exactly the numbers the paper's evaluation reports:
//! per-module latency (Fig. 6) and end-to-end frames per second under a
//! given source rate (Table 2).

use std::fmt;
use std::ops::{Index, IndexMut};

/// Number of logarithmic buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds, up to ~ 4500 s.
const BUCKETS: usize = 32;

/// A fixed-size logarithmic latency histogram (values in nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn bucket_for(ns: u64) -> usize {
        let us = (ns / 1_000).max(1);
        ((63 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one latency sample. Counters saturate instead of wrapping so
    /// a long soak cannot overflow-panic in debug profiles.
    pub fn record(&mut self, ns: u64) {
        let bucket = Self::bucket_for(ns);
        self.buckets[bucket] = self.buckets[bucket].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(u128::from(ns));
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// The histogram seen since `prev` was cloned from this same series:
    /// bucket-wise difference of two cumulative snapshots. This is how the
    /// SLO controller computes *windowed* p50/p99 between control ticks
    /// without any per-frame allocation. `prev` must be an earlier snapshot
    /// of the same histogram; stale buckets subtract saturating, so a
    /// mismatched pair degrades to an empty window rather than panicking.
    ///
    /// Exact per-sample min/max are not recoverable from bucket deltas, so
    /// the window's bounds are the covered bucket ranges (lowest nonzero
    /// bucket's floor, highest nonzero bucket's ceiling), which is what
    /// [`LatencyHistogram::quantile_ns`] clamps against.
    pub(crate) fn since(&self, prev: &LatencyHistogram) -> LatencyHistogram {
        let mut delta = LatencyHistogram::new();
        for (i, (a, b)) in self.buckets.iter().zip(prev.buckets.iter()).enumerate() {
            let d = a.saturating_sub(*b);
            delta.buckets[i] = d;
            if d > 0 {
                delta.count = delta.count.saturating_add(d);
                let lo = (1u64 << i) * 1_000;
                delta.min_ns = delta.min_ns.min(lo);
                delta.max_ns = delta.max_ns.max(lo.saturating_mul(2));
            }
        }
        delta.sum_ns = self.sum_ns.saturating_sub(prev.sum_ns);
        delta
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / u128::from(self.count)) as u64
        }
    }

    /// Minimum sample (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Maximum sample.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Approximate quantile (`q` in `[0, 1]`) by bucket interpolation.
    /// Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                // Interpolate within the bucket [2^i, 2^(i+1)) µs.
                let lo = (1u64 << i) * 1_000;
                let hi = lo * 2;
                let frac = (target - seen) as f64 / n as f64;
                let v = lo as f64 + (hi - lo) as f64 * frac;
                return (v as u64).clamp(self.min_ns, self.max_ns);
            }
            seen += n;
        }
        self.max_ns
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns() as f64 / 1e6
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2}ms p50={:.2}ms p99={:.2}ms max={:.2}ms",
            self.count,
            self.mean_ms(),
            self.quantile_ns(0.5) as f64 / 1e6,
            self.quantile_ns(0.99) as f64 / 1e6,
            self.max_ns as f64 / 1e6,
        )
    }
}

/// A handle on one entry of a [`LabelMap`], handed out when its label is
/// registered. It stays valid for the life of the map: entries are never
/// removed, and a later insert appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot(usize);

/// A small map from labels to cells — a pipeline's stages or service hosts,
/// a handful of them: one `Vec` of `(label, value)` pairs in insertion
/// order. The runtime registers every label at deploy and records through
/// the `Slot`s it was handed, so the hot path neither compares nor
/// searches a string; lookups by label (`map["label"]`,
/// [`LabelMap::get`]) search linearly. Iteration is in label order, as a
/// `BTreeMap`'s was.
#[derive(Clone)]
pub struct LabelMap<V> {
    entries: Vec<(String, V)>,
}

impl<V> LabelMap<V> {
    /// An empty map (allocates nothing).
    pub(crate) const fn new() -> Self {
        LabelMap {
            entries: Vec::new(),
        }
    }

    /// The slot registered for `label`, if any.
    pub(crate) fn slot_of(&self, label: &str) -> Option<Slot> {
        self.entries.iter().position(|(l, _)| l == label).map(Slot)
    }

    /// The slot of `label`, registering it with `make()` first if it is
    /// new.
    pub(crate) fn slot_or_insert_with(&mut self, label: &str, make: impl FnOnce() -> V) -> Slot {
        self.slot_of(label).unwrap_or_else(|| {
            self.entries.push((label.to_string(), make()));
            Slot(self.entries.len() - 1)
        })
    }

    /// The value of `label`.
    pub fn get(&self, label: &str) -> Option<&V> {
        self.slot_of(label).map(|slot| &self[slot])
    }

    /// Whether `label` is registered.
    pub fn contains_key(&self, label: &str) -> bool {
        self.slot_of(label).is_some()
    }

    /// `(label, value)` pairs in label order.
    pub fn iter(&self) -> LabelIter<'_, V> {
        LabelIter {
            entries: &self.entries,
            last: None,
        }
    }

    /// Values, in label order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, value)| value)
    }
}

impl<V: Default> LabelMap<V> {
    /// The slot of `label`, registering it with a default value first if it
    /// is new.
    pub(crate) fn slot(&mut self, label: &str) -> Slot {
        self.slot_or_insert_with(label, V::default)
    }
}

impl<V> Default for LabelMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for LabelMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> Index<Slot> for LabelMap<V> {
    type Output = V;
    fn index(&self, slot: Slot) -> &V {
        &self.entries[slot.0].1
    }
}

impl<V> IndexMut<Slot> for LabelMap<V> {
    fn index_mut(&mut self, slot: Slot) -> &mut V {
        &mut self.entries[slot.0].1
    }
}

impl<V> Index<&str> for LabelMap<V> {
    type Output = V;
    /// # Panics
    ///
    /// When `label` is not registered.
    fn index(&self, label: &str) -> &V {
        self.get(label)
            .unwrap_or_else(|| panic!("no entry for label {label:?}"))
    }
}

impl<'a, V> IntoIterator for &'a LabelMap<V> {
    type Item = (&'a String, &'a V);
    type IntoIter = LabelIter<'a, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// [`LabelMap::iter`]: each step scans the map for the smallest label after
/// the last one yielded — quadratic, and free of allocation, on maps of a
/// handful of labels.
pub struct LabelIter<'a, V> {
    entries: &'a [(String, V)],
    last: Option<&'a str>,
}

impl<'a, V> Iterator for LabelIter<'a, V> {
    type Item = (&'a String, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let last = self.last;
        let (label, value) = self
            .entries
            .iter()
            .filter(|(label, _)| last.is_none_or(|last| label.as_str() > last))
            .min_by(|a, b| a.0.cmp(&b.0))?;
        self.last = Some(label);
        Some((label, value))
    }
}

/// Number of batch-size histogram buckets in [`DispatchStats`]: bucket `i`
/// counts batches of exactly `i + 1` requests, and the final bucket absorbs
/// everything of size ≥ `BATCH_BUCKETS`.
pub(crate) const BATCH_BUCKETS: usize = 8;

/// Per-service-host dispatch counters, keyed by `device/service`.
///
/// Filled by the runtime's executor pools: they prove (or disprove) that
/// requests spread across executors instead of serialising behind a shared
/// inbox lock, and — since micro-batching — how well the drain policy fills
/// batches under load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Requests executed by this service host.
    pub requests: u64,
    /// Total wall time executors spent handling requests (ns).
    pub busy_ns: u64,
    /// Deepest request backlog observed when the leading request of a batch
    /// was dequeued (i.e. before the drain empties the queue).
    pub max_queue_depth: u64,
    /// Batches dispatched (equals `requests` when batching is off).
    pub batches: u64,
    /// Largest batch dispatched.
    pub max_batch: u64,
    /// Batch-size histogram: `batch_sizes[i]` counts batches of `i + 1`
    /// requests, last bucket = `≥ BATCH_BUCKETS`.
    pub batch_sizes: [u64; BATCH_BUCKETS],
}

impl DispatchStats {
    /// Mean requests per dispatched batch (0 when idle, 1.0 when batching
    /// never engaged).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    fn record_batch(&mut self, busy_ns: u64, queue_depth: u64, batch_len: u64) {
        // Saturating on every counter: these accumulate for the life of a
        // deployment, and a wrap would panic in debug profiles mid-soak.
        self.requests = self.requests.saturating_add(batch_len);
        self.busy_ns = self.busy_ns.saturating_add(busy_ns);
        self.max_queue_depth = self.max_queue_depth.max(queue_depth);
        self.batches = self.batches.saturating_add(1);
        self.max_batch = self.max_batch.max(batch_len);
        let bucket = (batch_len.max(1) as usize - 1).min(BATCH_BUCKETS - 1);
        self.batch_sizes[bucket] = self.batch_sizes[bucket].saturating_add(1);
    }
}

/// Per-worker scheduler counters from the reactor's multi-core scheduler
/// (one entry per worker thread, never per task — deliberately
/// low-cardinality). Attached to every [`RunReport`] produced by a
/// `ReactorRuntime` and surfaced in the bench artifact, so scheduling
/// pathologies (steal storms, one hot home worker, wake contention) show
/// up in the numbers instead of a profiler.
///
/// [`RunReport`]: crate::runtime::RunReport
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSchedStats {
    /// Worker index in the pool.
    pub worker: usize,
    /// Tasks this worker executed (from any queue, own or stolen).
    pub tasks_run: u64,
    /// Steal sweeps this worker initiated after finding its own and the
    /// global queues dry.
    pub steals_attempted: u64,
    /// Steal sweeps that returned a task.
    pub steals_succeeded: u64,
    /// Deepest local run-queue depth observed at push time.
    pub queue_high_water: u64,
    /// Timer entries this worker fired (from its own shard, or from an
    /// overdue sibling's).
    pub timer_fires: u64,
    /// Times this worker was unparked by a targeted wake.
    pub unparks: u64,
    /// Times this worker went to sleep for want of anything to run.
    pub parks: u64,
}

/// Metrics for one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineMetrics {
    /// Per-stage processing latency, keyed by module name. The runtime
    /// registers every module of the pipeline at deploy, so a module that
    /// handled nothing reads zero samples.
    pub stages: LabelMap<LatencyHistogram>,
    /// Per-service-host executor dispatch counters, keyed by
    /// `device/service`; every deployed host is registered at deploy.
    pub dispatch: LabelMap<DispatchStats>,
    /// End-to-end latency (capture → final module done).
    pub end_to_end: LatencyHistogram,
    /// Frames delivered all the way to the sink.
    pub frames_delivered: u64,
    /// Frames dropped at the source by flow control.
    pub frames_dropped: u64,
    /// Camera ticks offered by the source.
    pub frames_offered: u64,
    /// Frames admitted into the pipeline by flow control.
    pub frames_admitted: u64,
    /// Frames that died mid-pipeline (module error, panic or abandoned
    /// service call) and had their flow-control credit reclaimed.
    pub frames_faulted: u64,
    /// Frames in flight now: admitted, neither delivered nor faulted yet —
    /// in a final report, those still in flight when the run stopped. The
    /// pacer keeps this and the two counts above current under the metrics
    /// lock, so credit accounting is leak-free iff `frames_admitted ==
    /// frames_delivered + frames_faulted + in_flight_at_end` on every read,
    /// mid-run too (see [`credits_balanced`]).
    ///
    /// [`credits_balanced`]: PipelineMetrics::credits_balanced
    pub in_flight_at_end: u32,
    /// Pipeline-clock time of the first delivery (ns).
    pub first_delivery_ns: u64,
    /// Pipeline-clock time of the last delivery (ns).
    pub last_delivery_ns: u64,
    /// Total run duration on the pipeline clock (ns).
    pub run_duration_ns: u64,
}

impl PipelineMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a stage latency sample, registering `stage` the first time
    /// it is seen. The runtime records through the slot it registered at
    /// deploy instead.
    pub fn record_stage(&mut self, stage: &str, ns: u64) {
        let slot = self.stages.slot(stage);
        self.record_stage_at(slot, ns);
    }

    /// Records a stage latency sample in the stage registered as `slot`.
    pub(crate) fn record_stage_at(&mut self, slot: Slot, ns: u64) {
        self.stages[slot].record(ns);
    }

    /// [`PipelineMetrics::record_dispatch_batch`] for the host registered
    /// as `slot`.
    pub(crate) fn record_dispatch_batch_at(
        &mut self,
        slot: Slot,
        busy_ns: u64,
        queue_depth: u64,
        batch_len: u64,
    ) {
        self.dispatch[slot].record_batch(busy_ns, queue_depth, batch_len);
    }

    /// Records an end-to-end delivery at pipeline time `now_ns` with the
    /// given capture-to-done latency.
    pub fn record_delivery(&mut self, now_ns: u64, latency_ns: u64) {
        self.end_to_end.record(latency_ns);
        if self.frames_delivered == 0 {
            self.first_delivery_ns = now_ns;
        }
        self.last_delivery_ns = now_ns;
        self.frames_delivered += 1;
    }

    /// Achieved end-to-end frames per second, measured over the delivery
    /// span (the paper's Table 2 metric). Returns 0 with fewer than two
    /// deliveries.
    pub fn fps(&self) -> f64 {
        if self.frames_delivered < 2 {
            return 0.0;
        }
        let span_ns = self.last_delivery_ns.saturating_sub(self.first_delivery_ns);
        if span_ns == 0 {
            return 0.0;
        }
        (self.frames_delivered - 1) as f64 * 1e9 / span_ns as f64
    }

    /// Fraction of admitted frames that were delivered end-to-end (1.0 when
    /// nothing was admitted). The chaos tests assert this stays ≥ 0.9 under
    /// fault injection.
    pub fn delivery_ratio(&self) -> f64 {
        if self.frames_admitted == 0 {
            return 1.0;
        }
        self.frames_delivered as f64 / self.frames_admitted as f64
    }

    /// Whether flow-control credit accounting balances: every admitted
    /// frame either completed, faulted, or was still in flight at the end.
    /// A `false` here means a credit leaked — the failure mode that wedges
    /// the paper's §2.3 design.
    pub fn credits_balanced(&self) -> bool {
        self.frames_admitted
            == self.frames_delivered + self.frames_faulted + u64::from(self.in_flight_at_end)
    }

    /// Fraction of offered camera frames that were dropped at the source.
    pub fn drop_rate(&self) -> f64 {
        if self.frames_offered == 0 {
            return 0.0;
        }
        self.frames_dropped as f64 / self.frames_offered as f64
    }

    /// A formatted table of per-stage and total latencies (the rows of
    /// Fig. 6).
    pub fn latency_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>10} {:>10} {:>10} {:>10}\n",
            "stage", "mean(ms)", "p50(ms)", "p99(ms)", "samples"
        ));
        for (stage, hist) in &self.stages {
            out.push_str(&format!(
                "{:<28} {:>10.2} {:>10.2} {:>10.2} {:>10}\n",
                stage,
                hist.mean_ms(),
                hist.quantile_ns(0.5) as f64 / 1e6,
                hist.quantile_ns(0.99) as f64 / 1e6,
                hist.count()
            ));
        }
        out.push_str(&format!(
            "{:<28} {:>10.2} {:>10.2} {:>10.2} {:>10}\n",
            "total (end-to-end)",
            self.end_to_end.mean_ms(),
            self.end_to_end.quantile_ns(0.5) as f64 / 1e6,
            self.end_to_end.quantile_ns(0.99) as f64 / 1e6,
            self.end_to_end.count()
        ));
        out
    }
}

#[cfg(test)]
impl DispatchStats {
    /// Mean handling time per request in milliseconds (0 when idle).
    pub(crate) fn mean_busy_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.requests as f64 / 1e6
        }
    }

    /// Mean wall time per *batch* in milliseconds (0 when idle). With
    /// batching this is the amortised unit of executor work; without it,
    /// identical to [`DispatchStats::mean_busy_ms`].
    pub(crate) fn mean_batch_busy_ms(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.batches as f64 / 1e6
        }
    }

    /// Adds `other`'s counters to these (saturating; maxima take the
    /// larger).
    fn merge(&mut self, other: &DispatchStats) {
        self.requests = self.requests.saturating_add(other.requests);
        self.busy_ns = self.busy_ns.saturating_add(other.busy_ns);
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.batches = self.batches.saturating_add(other.batches);
        self.max_batch = self.max_batch.max(other.max_batch);
        for (a, b) in self.batch_sizes.iter_mut().zip(other.batch_sizes.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

#[cfg(test)]
impl PipelineMetrics {
    /// Records one executed service request: how long the executor was busy
    /// and how deep the request queue was when the request was dequeued.
    /// Equivalent to a batch of one.
    pub(crate) fn record_dispatch(&mut self, host: &str, busy_ns: u64, queue_depth: u64) {
        self.record_dispatch_batch(host, busy_ns, queue_depth, 1);
    }

    /// Records one executed micro-batch of `batch_len` requests:
    /// `busy_ns` covers the whole batch (drain → decode → handle → reply)
    /// and `queue_depth` is the backlog observed *before* the drain, so
    /// `max_queue_depth` still reflects true pressure. Registers `host` the
    /// first time it is seen; the runtime records through
    /// [`record_dispatch_batch_at`] instead.
    ///
    /// [`record_dispatch_batch_at`]: PipelineMetrics::record_dispatch_batch_at
    pub(crate) fn record_dispatch_batch(
        &mut self,
        host: &str,
        busy_ns: u64,
        queue_depth: u64,
        batch_len: u64,
    ) {
        let slot = self.dispatch.slot(host);
        self.record_dispatch_batch_at(slot, busy_ns, queue_depth, batch_len);
    }

    /// Merges another run's metrics (e.g. across repetitions).
    pub(crate) fn merge(&mut self, other: &PipelineMetrics) {
        for (stage, hist) in &other.stages {
            let slot = self.stages.slot(stage);
            self.stages[slot].merge(hist);
        }
        for (host, stats) in &other.dispatch {
            let slot = self.dispatch.slot(host);
            self.dispatch[slot].merge(stats);
        }
        self.end_to_end.merge(&other.end_to_end);
        self.frames_delivered = self.frames_delivered.saturating_add(other.frames_delivered);
        self.frames_dropped = self.frames_dropped.saturating_add(other.frames_dropped);
        self.frames_offered = self.frames_offered.saturating_add(other.frames_offered);
        self.frames_admitted = self.frames_admitted.saturating_add(other.frames_admitted);
        self.frames_faulted = self.frames_faulted.saturating_add(other.frames_faulted);
        self.in_flight_at_end = self.in_flight_at_end.saturating_add(other.in_flight_at_end);
        self.last_delivery_ns = self.last_delivery_ns.max(other.last_delivery_ns);
        self.run_duration_ns = self.run_duration_ns.max(other.run_duration_ns);
    }
}

#[cfg(test)]
impl LatencyHistogram {
    /// Merges another histogram into this one (saturating).
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        if other.count > 0 {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_statistics() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        for ms in [10u64, 20, 30, 40] {
            h.record(ms * 1_000_000);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean_ns(), 25_000_000);
        assert_eq!(h.min_ns(), 10_000_000);
        assert_eq!(h.max_ns(), 40_000_000);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 100_000); // 0.1ms .. 100ms
        }
        let p50 = h.quantile_ns(0.5);
        let p90 = h.quantile_ns(0.9);
        let p99 = h.quantile_ns(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p50 >= h.min_ns() && p99 <= h.max_ns());
        // Log-bucket interpolation: p50 within a factor of 2 of the truth.
        let true_p50 = 50_000_000u64 / 1000 * 1000;
        assert!(
            p50 as f64 / true_p50 as f64 > 0.5 && (p50 as f64 / true_p50 as f64) < 2.0,
            "p50 {p50} vs {true_p50}"
        );
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(1_000_000);
        b.record(3_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean_ns(), 2_000_000);
        assert_eq!(a.max_ns(), 3_000_000);
        // Merging an empty histogram changes nothing.
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn sub_microsecond_samples_clamp_to_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(500);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(1.0) <= 1_000_000);
    }

    #[test]
    fn fps_over_delivery_span() {
        let mut m = PipelineMetrics::new();
        // 11 deliveries spaced 100 ms apart → 10 intervals in 1 s → 10 fps.
        for i in 0..11u64 {
            m.record_delivery(i * 100_000_000, 90_000_000);
        }
        assert!((m.fps() - 10.0).abs() < 1e-9, "fps {}", m.fps());
        assert_eq!(m.frames_delivered, 11);
        assert_eq!(m.first_delivery_ns, 0);
        assert_eq!(m.last_delivery_ns, 1_000_000_000);
    }

    #[test]
    fn fps_degenerate_cases() {
        let mut m = PipelineMetrics::new();
        assert_eq!(m.fps(), 0.0);
        m.record_delivery(5, 1);
        assert_eq!(m.fps(), 0.0); // single delivery
    }

    #[test]
    fn drop_rate() {
        let mut m = PipelineMetrics::new();
        m.frames_offered = 100;
        m.frames_dropped = 25;
        assert!((m.drop_rate() - 0.25).abs() < 1e-9);
        assert_eq!(PipelineMetrics::new().drop_rate(), 0.0);
    }

    #[test]
    fn latency_table_contains_stages() {
        let mut m = PipelineMetrics::new();
        m.record_stage("pose", 60_000_000);
        m.record_stage("load_frame", 10_000_000);
        m.record_delivery(0, 90_000_000);
        m.record_delivery(100_000_000, 95_000_000);
        let table = m.latency_table();
        assert!(table.contains("pose"));
        assert!(table.contains("load_frame"));
        assert!(table.contains("end-to-end"));
    }

    #[test]
    fn a_label_map_iterates_in_label_order() {
        let mut map = LabelMap::<u64>::new();
        for (label, v) in [("sink", 3), ("src", 1), ("work", 2), ("display", 4)] {
            let slot = map.slot(label);
            map[slot] = v;
        }
        let labels: Vec<&str> = map.iter().map(|(label, _)| label.as_str()).collect();
        assert_eq!(labels, ["display", "sink", "src", "work"]);
        let values: Vec<u64> = map.values().copied().collect();
        assert_eq!(values, [4, 3, 1, 2]);
        assert_eq!((&map).into_iter().count(), 4);
        assert_eq!(
            format!("{map:?}"),
            r#"{"display": 4, "sink": 3, "src": 1, "work": 2}"#
        );
        assert!(LabelMap::<u64>::new().iter().next().is_none());
    }

    #[test]
    fn a_slot_does_not_move_when_a_later_label_is_inserted() {
        let mut m = PipelineMetrics::new();
        let work = m.stages.slot("work");
        m.record_stage_at(work, 1_000_000);
        // Labels sorting before and after it, through the `&str` path.
        m.record_stage("aaa", 5_000_000);
        m.record_stage("zzz", 5_000_000);
        m.record_stage_at(work, 3_000_000);
        assert_eq!(m.stages.slot_of("work"), Some(work));
        assert_eq!(m.stages.slot("work"), work);
        assert_eq!(m.stages["work"].count(), 2);
        assert_eq!(m.stages["work"].mean_ns(), 2_000_000);
        assert_eq!(m.stages["aaa"].count(), 1);
        assert_eq!(m.stages.get("nope"), None);
        assert!(!m.stages.contains_key("nope"));

        let host = m.dispatch.slot("dev/svc");
        m.record_dispatch("dev/aaa", 1, 1);
        m.record_dispatch_batch_at(host, 4_000_000, 2, 4);
        assert_eq!(m.dispatch["dev/svc"].requests, 4);
        assert_eq!(m.dispatch.get("dev/aaa").map(|d| d.requests), Some(1));
    }

    #[test]
    fn merge_adds_cells_across_different_labels() {
        let mut a = PipelineMetrics::new();
        a.record_stage("b", 1_000_000);
        a.record_stage("a", 1_000_000);
        a.record_dispatch("x/one", 1, 1);
        let mut b = PipelineMetrics::new();
        b.record_stage("c", 2_000_000);
        b.record_stage("a", 3_000_000);
        b.record_dispatch("x/two", 1, 7);
        b.record_dispatch("x/one", 1, 3);
        a.merge(&b);
        let counts: Vec<(&str, u64)> = a
            .stages
            .iter()
            .map(|(label, h)| (label.as_str(), h.count()))
            .collect();
        assert_eq!(counts, [("a", 2), ("b", 1), ("c", 1)]);
        assert_eq!(a.stages["a"].mean_ns(), 2_000_000);
        assert_eq!(a.dispatch["x/one"].requests, 2);
        assert_eq!(a.dispatch["x/one"].max_queue_depth, 3);
        assert_eq!(a.dispatch["x/two"].max_queue_depth, 7);
    }

    #[test]
    fn latency_table_text_is_unchanged() {
        let mut m = PipelineMetrics::new();
        // Registered out of label order: rows still come sorted.
        m.record_stage("work", 3_000_000);
        m.record_stage("src", 1_000_000);
        m.record_stage("sink", 2_000_000);
        m.record_delivery(0, 8_000_000);
        let expected = "\
stage                          mean(ms)    p50(ms)    p99(ms)    samples
sink                               2.00       2.00       2.00          1
src                                1.00       1.00       1.00          1
work                               3.00       3.00       3.00          1
total (end-to-end)                 8.00       8.00       8.00          1
";
        assert_eq!(m.latency_table(), expected);
    }

    #[test]
    fn metrics_merge() {
        let mut a = PipelineMetrics::new();
        a.record_stage("s", 1_000_000);
        a.record_delivery(10, 5);
        a.frames_offered = 2;
        let mut b = PipelineMetrics::new();
        b.record_stage("s", 3_000_000);
        b.record_stage("t", 1_000_000);
        b.record_delivery(20, 6);
        b.frames_dropped = 1;
        b.frames_offered = 2;
        a.merge(&b);
        assert_eq!(a.stages["s"].count(), 2);
        assert_eq!(a.stages["t"].count(), 1);
        assert_eq!(a.frames_delivered, 2);
        assert_eq!(a.frames_offered, 4);
        assert_eq!(a.frames_dropped, 1);
    }

    #[test]
    fn credit_accounting() {
        let mut m = PipelineMetrics::new();
        assert!(m.credits_balanced());
        assert_eq!(m.delivery_ratio(), 1.0);
        m.frames_admitted = 10;
        m.frames_delivered = 8;
        m.frames_faulted = 1;
        m.in_flight_at_end = 1;
        assert!(m.credits_balanced());
        assert!((m.delivery_ratio() - 0.8).abs() < 1e-9);
        m.frames_faulted = 0; // one credit unaccounted for → leak
        assert!(!m.credits_balanced());
    }

    #[test]
    fn dispatch_stats_record_and_merge() {
        let mut a = PipelineMetrics::new();
        a.record_dispatch("dev/svc", 2_000_000, 3);
        a.record_dispatch("dev/svc", 4_000_000, 1);
        assert_eq!(a.dispatch["dev/svc"].requests, 2);
        assert_eq!(a.dispatch["dev/svc"].busy_ns, 6_000_000);
        assert_eq!(a.dispatch["dev/svc"].max_queue_depth, 3);
        assert!((a.dispatch["dev/svc"].mean_busy_ms() - 3.0).abs() < 1e-9);

        let mut b = PipelineMetrics::new();
        b.record_dispatch("dev/svc", 1_000_000, 9);
        b.record_dispatch("dev/other", 1_000_000, 0);
        a.merge(&b);
        assert_eq!(a.dispatch["dev/svc"].requests, 3);
        assert_eq!(a.dispatch["dev/svc"].max_queue_depth, 9);
        assert_eq!(a.dispatch["dev/other"].requests, 1);
        assert_eq!(DispatchStats::default().mean_busy_ms(), 0.0);
        // A plain record_dispatch is a batch of one.
        assert_eq!(a.dispatch["dev/svc"].batches, 3);
        assert_eq!(a.dispatch["dev/svc"].max_batch, 1);
        assert_eq!(a.dispatch["dev/svc"].batch_sizes[0], 3);
    }

    #[test]
    fn dispatch_batch_histogram_and_means() {
        let mut m = PipelineMetrics::new();
        m.record_dispatch_batch("dev/svc", 8_000_000, 7, 4);
        m.record_dispatch_batch("dev/svc", 2_000_000, 0, 1);
        m.record_dispatch_batch("dev/svc", 20_000_000, 30, 12); // clamps to last bucket
        let s = &m.dispatch["dev/svc"];
        assert_eq!(s.requests, 17);
        assert_eq!(s.batches, 3);
        assert_eq!(s.max_batch, 12);
        assert_eq!(s.max_queue_depth, 30);
        assert_eq!(s.batch_sizes[0], 1);
        assert_eq!(s.batch_sizes[3], 1);
        assert_eq!(s.batch_sizes[BATCH_BUCKETS - 1], 1);
        assert!((s.mean_batch() - 17.0 / 3.0).abs() < 1e-9);
        assert!((s.mean_batch_busy_ms() - 10.0).abs() < 1e-9);
        assert_eq!(DispatchStats::default().mean_batch(), 0.0);
        assert_eq!(DispatchStats::default().mean_batch_busy_ms(), 0.0);

        // Batch fields survive a merge.
        let mut other = PipelineMetrics::new();
        other.record_dispatch_batch("dev/svc", 1_000_000, 2, 4);
        m.merge(&other);
        let s = &m.dispatch["dev/svc"];
        assert_eq!(s.batches, 4);
        assert_eq!(s.batch_sizes[3], 2);
        assert_eq!(s.max_batch, 12);
    }

    #[test]
    fn tail_latency_and_queue_depth_derive_from_metrics() {
        let mut m = PipelineMetrics::new();
        for ms in [10u64, 12, 90] {
            m.record_delivery(ms, ms * 1_000_000);
        }
        m.record_dispatch("edge/pose", 1_000_000, 11);
        let (p50, p99) = (
            m.end_to_end.quantile_ns(0.5),
            m.end_to_end.quantile_ns(0.99),
        );
        assert!(p99 >= p50 && p50 > 0, "p50 {p50} p99 {p99}");
        let deepest = m.dispatch.values().map(|s| s.max_queue_depth).max();
        assert_eq!(deepest, Some(11));
    }

    #[test]
    fn batch_means_only_for_hosts_that_dispatched() {
        let mut m = PipelineMetrics::new();
        m.record_delivery(0, 1_000_000);
        m.record_dispatch_batch("edge/pose_detector", 5_000_000, 6, 4);
        m.record_dispatch_batch("edge/pose_detector", 5_000_000, 0, 2);
        // Registered at deploy, never dispatched.
        m.dispatch.slot("edge/idle");
        let batch_means: Vec<(&str, f64)> = m
            .dispatch
            .iter()
            .filter(|(_, s)| s.batches > 0)
            .map(|(host, s)| (host.as_str(), s.mean_batch()))
            .collect();
        assert_eq!(batch_means, [("edge/pose_detector", 3.0)]);
        assert_eq!(m.dispatch["edge/idle"].mean_batch(), 0.0);
    }

    #[test]
    fn since_yields_windowed_quantiles() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(2_000_000); // 2 ms era
        }
        let snap = h.clone();
        for _ in 0..100 {
            h.record(64_000_000); // 64 ms era
        }
        // The cumulative p50 straddles both eras, but the window since the
        // snapshot only sees the slow era.
        let window = h.since(&snap);
        assert_eq!(window.count(), 100);
        assert!(window.quantile_ns(0.5) >= 32_000_000);
        assert!(window.mean_ns() >= 32_000_000);
        // Window of a snapshot against itself is empty.
        let empty = h.since(&h.clone());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile_ns(0.99), 0);
    }

    #[test]
    fn since_mismatched_snapshots_saturate_to_empty() {
        let mut newer = LatencyHistogram::new();
        newer.record(1_000_000);
        let mut older = LatencyHistogram::new();
        for _ in 0..10 {
            older.record(1_000_000);
        }
        // "prev" has more samples than "now" (mismatched series): the delta
        // saturates to zero instead of wrapping.
        let window = newer.since(&older);
        assert_eq!(window.count(), 0);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        // Force the counters to the brink and record again: must not panic
        // (debug profiles panic on overflow with unchecked `+=`).
        let mut s = DispatchStats {
            requests: u64::MAX - 1,
            busy_ns: u64::MAX - 1,
            batches: u64::MAX,
            ..DispatchStats::default()
        };
        s.record_batch(100, 1, 5);
        assert_eq!(s.requests, u64::MAX);
        assert_eq!(s.batches, u64::MAX);

        let mut m = PipelineMetrics::new();
        m.frames_delivered = u64::MAX;
        let mut other = PipelineMetrics::new();
        other.frames_delivered = 10;
        other.record_dispatch("d/s", 1, 1);
        m.merge(&other);
        assert_eq!(m.frames_delivered, u64::MAX);
    }

    #[test]
    fn histogram_display_nonempty() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        assert!(!h.to_string().is_empty());
    }
}
