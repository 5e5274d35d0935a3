//! Pipeline monitoring — the paper's §7 future work ("we aim to include
//! automatic deployment, scheduling and monitoring components to
//! VideoPipe").
//!
//! The runtime periodically publishes [`TelemetrySnapshot`]s on the
//! in-process PUB/SUB topic `telemetry/<pipeline>`; any number of
//! [`TelemetryMonitor`]s subscribe without disturbing the data path (the
//! publisher drops snapshots when nobody listens). The autoscaler ablation
//! and the monitoring example consume these.

use crate::error::PipelineError;
use crate::metrics::PipelineMetrics;
use std::collections::BTreeMap;
use std::fmt;
use videopipe_net::{InprocHub, MessageKind, MsgReceiver, WireMessage};

/// A point-in-time view of one pipeline's health.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Pipeline name.
    pub pipeline: String,
    /// Pipeline-clock time of the snapshot (nanoseconds).
    pub at_ns: u64,
    /// Frames delivered so far.
    pub frames_delivered: u64,
    /// Frames dropped at the source so far.
    pub frames_dropped: u64,
    /// End-to-end FPS over the run so far.
    pub fps: f64,
    /// Mean end-to-end latency (ms).
    pub mean_latency_ms: f64,
    /// Median end-to-end latency (ms), from the low-cardinality log-bucket
    /// histogram (no per-frame allocation).
    pub p50_ms: f64,
    /// End-to-end p99 latency (ms) — the quantity the SLO controller
    /// defends.
    pub p99_ms: f64,
    /// Deepest service dispatch backlog observed so far, across hosts (the
    /// controller's early-warning signal).
    pub max_queue_depth: u64,
    /// Current SLO degradation lattice level (0 = baseline / no
    /// controller).
    pub slo_level: u64,
    /// Mean per-stage latency (ms), keyed by module name.
    pub stage_means_ms: BTreeMap<String, f64>,
    /// Mean micro-batch size per service host (`device/service`), present
    /// only for hosts that dispatched at least one batch. 1.0 means the
    /// drain policy never coalesced requests (low load or batching off).
    pub batch_means: BTreeMap<String, f64>,
}

impl TelemetrySnapshot {
    /// Builds a snapshot from live metrics.
    pub(crate) fn from_metrics(pipeline: &str, at_ns: u64, metrics: &PipelineMetrics) -> Self {
        TelemetrySnapshot {
            pipeline: pipeline.to_string(),
            at_ns,
            frames_delivered: metrics.frames_delivered,
            frames_dropped: metrics.frames_dropped,
            fps: metrics.fps(),
            mean_latency_ms: metrics.end_to_end.mean_ms(),
            p50_ms: metrics.end_to_end.quantile_ns(0.5) as f64 / 1e6,
            p99_ms: metrics.end_to_end.quantile_ns(0.99) as f64 / 1e6,
            max_queue_depth: metrics
                .dispatch
                .values()
                .map(|s| s.max_queue_depth)
                .max()
                .unwrap_or(0),
            slo_level: 0,
            stage_means_ms: metrics
                .stages
                .iter()
                .filter(|(_, h)| h.count() > 0)
                .map(|(k, v)| (k.clone(), v.mean_ms()))
                .collect(),
            batch_means: metrics
                .dispatch
                .iter()
                .filter(|(_, s)| s.batches > 0)
                .map(|(k, s)| (k.clone(), s.mean_batch()))
                .collect(),
        }
    }

    /// The pub/sub topic snapshots for `pipeline` are published on.
    pub(crate) fn topic(pipeline: &str) -> String {
        format!("telemetry/{pipeline}")
    }

    /// Encodes as a compact `key=value` line protocol.
    pub(crate) fn encode(&self) -> String {
        let mut out = format!(
            "pipeline={};at_ns={};delivered={};dropped={};fps={:.4};latency_ms={:.4}",
            self.pipeline,
            self.at_ns,
            self.frames_delivered,
            self.frames_dropped,
            self.fps,
            self.mean_latency_ms
        );
        // Tail-latency / SLO keys are new in the controller layer; old
        // decoders skip them via the unknown-key rule.
        out.push_str(&format!(
            ";p50_ms={:.4};p99_ms={:.4};queue={};slo_level={}",
            self.p50_ms, self.p99_ms, self.max_queue_depth, self.slo_level
        ));
        for (stage, ms) in &self.stage_means_ms {
            out.push_str(&format!(";stage.{stage}={ms:.4}"));
        }
        // `batch.` keys are new in the batching layer; old decoders skip
        // them via the unknown-key rule.
        for (host, mean) in &self.batch_means {
            out.push_str(&format!(";batch.{host}={mean:.4}"));
        }
        out
    }

    /// Decodes the line protocol.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadPayload`] on malformed lines.
    pub(crate) fn decode(line: &str) -> Result<Self, PipelineError> {
        let mut snapshot = TelemetrySnapshot {
            pipeline: String::new(),
            at_ns: 0,
            frames_delivered: 0,
            frames_dropped: 0,
            fps: 0.0,
            mean_latency_ms: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            max_queue_depth: 0,
            slo_level: 0,
            stage_means_ms: BTreeMap::new(),
            batch_means: BTreeMap::new(),
        };
        for field in line.split(';') {
            let (key, value) = field
                .split_once('=')
                .ok_or(PipelineError::BadPayload("telemetry field without '='"))?;
            let bad = || PipelineError::BadPayload("telemetry value malformed");
            match key {
                "pipeline" => snapshot.pipeline = value.to_string(),
                "at_ns" => snapshot.at_ns = value.parse().map_err(|_| bad())?,
                "delivered" => snapshot.frames_delivered = value.parse().map_err(|_| bad())?,
                "dropped" => snapshot.frames_dropped = value.parse().map_err(|_| bad())?,
                "fps" => snapshot.fps = value.parse().map_err(|_| bad())?,
                "latency_ms" => snapshot.mean_latency_ms = value.parse().map_err(|_| bad())?,
                "p50_ms" => snapshot.p50_ms = value.parse().map_err(|_| bad())?,
                "p99_ms" => snapshot.p99_ms = value.parse().map_err(|_| bad())?,
                "queue" => snapshot.max_queue_depth = value.parse().map_err(|_| bad())?,
                "slo_level" => snapshot.slo_level = value.parse().map_err(|_| bad())?,
                other_key => {
                    if let Some(stage) = other_key.strip_prefix("stage.") {
                        snapshot
                            .stage_means_ms
                            .insert(stage.to_string(), value.parse().map_err(|_| bad())?);
                    } else if let Some(host) = other_key.strip_prefix("batch.") {
                        snapshot
                            .batch_means
                            .insert(host.to_string(), value.parse().map_err(|_| bad())?);
                    }
                    // Unknown keys are ignored for forward compatibility.
                }
            }
        }
        if snapshot.pipeline.is_empty() {
            return Err(PipelineError::BadPayload("telemetry missing pipeline"));
        }
        Ok(snapshot)
    }

    /// Publishes this snapshot on `hub`; returns how many monitors got it.
    pub(crate) fn publish(&self, hub: &InprocHub) -> usize {
        hub.publish(&WireMessage {
            kind: MessageKind::Control,
            channel: Self::topic(&self.pipeline),
            reply_to: String::new(),
            corr_id: 0,
            seq: self.frames_delivered,
            timestamp_ns: self.at_ns,
            epoch: 0,
            payload: bytes::Bytes::from(self.encode().into_bytes()),
        })
    }
}

impl fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] t={:.1}s {} delivered, {} dropped, {:.2} fps, {:.1} ms",
            self.pipeline,
            self.at_ns as f64 / 1e9,
            self.frames_delivered,
            self.frames_dropped,
            self.fps,
            self.mean_latency_ms
        )
    }
}

/// A subscriber collecting telemetry snapshots for one pipeline.
pub struct TelemetryMonitor {
    rx: videopipe_net::InprocReceiver,
    history: Vec<TelemetrySnapshot>,
}

impl TelemetryMonitor {
    /// Subscribes to `pipeline`'s telemetry on `hub`.
    ///
    /// # Errors
    ///
    /// Propagates hub binding errors.
    pub(crate) fn subscribe(hub: &InprocHub, pipeline: &str) -> Result<Self, PipelineError> {
        // A unique inbox per monitor.
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let inbox = format!("telemon/{pipeline}/{n}");
        let rx = hub.bind(&inbox)?;
        hub.subscribe(&TelemetrySnapshot::topic(pipeline), &inbox)?;
        Ok(TelemetryMonitor {
            rx,
            history: Vec::new(),
        })
    }

    /// Drains any pending snapshots into the history; returns how many
    /// arrived.
    pub fn poll(&mut self) -> usize {
        let mut n = 0;
        while let Ok(msg) = self.rx.try_recv() {
            if let Ok(text) = std::str::from_utf8(&msg.payload) {
                if let Ok(snapshot) = TelemetrySnapshot::decode(text) {
                    self.history.push(snapshot);
                    n += 1;
                }
            }
        }
        n
    }

    /// The most recent snapshot, if any.
    pub fn latest(&self) -> Option<&TelemetrySnapshot> {
        self.history.last()
    }

    /// All snapshots received, oldest first.
    pub fn history(&self) -> &[TelemetrySnapshot] {
        &self.history
    }
}

impl fmt::Debug for TelemetryMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryMonitor")
            .field("snapshots", &self.history.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut metrics = PipelineMetrics::new();
        metrics.record_stage("pose", 50_000_000);
        metrics.record_stage("display", 3_000_000);
        metrics.record_delivery(0, 90_000_000);
        metrics.record_delivery(100_000_000, 92_000_000);
        metrics.frames_dropped = 7;
        TelemetrySnapshot::from_metrics("fitness", 123_000_000, &metrics)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snapshot = sample();
        let decoded = TelemetrySnapshot::decode(&snapshot.encode()).unwrap();
        assert_eq!(decoded.pipeline, "fitness");
        assert_eq!(decoded.frames_delivered, 2);
        assert_eq!(decoded.frames_dropped, 7);
        assert!((decoded.fps - snapshot.fps).abs() < 1e-3);
        assert_eq!(decoded.stage_means_ms.len(), 2);
        assert!((decoded.stage_means_ms["pose"] - 50.0).abs() < 0.1);
    }

    #[test]
    fn batch_means_roundtrip() {
        let mut metrics = PipelineMetrics::new();
        metrics.record_delivery(0, 1_000_000);
        metrics.record_dispatch_batch("edge/pose_detector", 5_000_000, 6, 4);
        metrics.record_dispatch_batch("edge/pose_detector", 5_000_000, 0, 2);
        let snapshot = TelemetrySnapshot::from_metrics("fitness", 1, &metrics);
        assert!((snapshot.batch_means["edge/pose_detector"] - 3.0).abs() < 1e-9);
        let decoded = TelemetrySnapshot::decode(&snapshot.encode()).unwrap();
        assert!((decoded.batch_means["edge/pose_detector"] - 3.0).abs() < 1e-3);
        // Hosts that never dispatched a batch are absent, not 0.
        assert!(!snapshot.encode().contains("batch.edge/idle"));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(TelemetrySnapshot::decode("").is_err());
        assert!(TelemetrySnapshot::decode("no_equals").is_err());
        assert!(TelemetrySnapshot::decode("at_ns=abc;pipeline=x").is_err());
        assert!(TelemetrySnapshot::decode("at_ns=1").is_err()); // no pipeline
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let decoded = TelemetrySnapshot::decode("pipeline=p;future_field=1;at_ns=5").unwrap();
        assert_eq!(decoded.at_ns, 5);
    }

    #[test]
    fn tail_latency_and_slo_keys_roundtrip() {
        let mut metrics = PipelineMetrics::new();
        for ms in [10u64, 12, 90] {
            metrics.record_delivery(ms, ms * 1_000_000);
        }
        metrics.record_dispatch("edge/pose", 1_000_000, 11);
        let mut snapshot = TelemetrySnapshot::from_metrics("fitness", 1, &metrics);
        snapshot.slo_level = 3;
        assert!(snapshot.p99_ms >= snapshot.p50_ms);
        assert_eq!(snapshot.max_queue_depth, 11);
        let decoded = TelemetrySnapshot::decode(&snapshot.encode()).unwrap();
        assert!((decoded.p50_ms - snapshot.p50_ms).abs() < 1e-3);
        assert!((decoded.p99_ms - snapshot.p99_ms).abs() < 1e-3);
        assert_eq!(decoded.max_queue_depth, 11);
        assert_eq!(decoded.slo_level, 3);
        // Pre-controller decoders (no such keys) still parse fine.
        let legacy = TelemetrySnapshot::decode("pipeline=p;at_ns=5;slo_level=2").unwrap();
        assert_eq!(legacy.slo_level, 2);
    }

    #[test]
    fn pubsub_delivery() {
        let hub = InprocHub::new();
        let mut monitor = TelemetryMonitor::subscribe(&hub, "fitness").unwrap();
        let snapshot = sample();
        assert_eq!(snapshot.publish(&hub), 1);
        assert_eq!(monitor.poll(), 1);
        assert_eq!(monitor.latest().unwrap().pipeline, "fitness");
        // No cross-talk with other pipelines.
        let mut other = TelemetryMonitor::subscribe(&hub, "gesture").unwrap();
        snapshot.publish(&hub);
        assert_eq!(other.poll(), 0);
        assert_eq!(monitor.poll(), 1);
        assert_eq!(monitor.history().len(), 2);
    }

    #[test]
    fn publish_without_subscribers_is_dropped() {
        let hub = InprocHub::new();
        assert_eq!(sample().publish(&hub), 0);
    }

    #[test]
    fn display_is_informative() {
        let text = sample().to_string();
        assert!(text.contains("fitness") && text.contains("fps"));
    }
}
