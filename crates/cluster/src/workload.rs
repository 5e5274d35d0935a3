//! The fleet-wide counting tenant pipeline.
//!
//! Every tenant the coordinator places is the same two-module pipeline:
//! a source that mints its **own** monotonic frame sequence and a sink
//! that counts each sequence exactly once. Both modules checkpoint their
//! state atomically (the sink snapshots `(counted, next_expected)` as one
//! unit), which is what makes the fleet's exactly-once claim *checkable
//! from outside the process*: restoring a stale pair can lose recent
//! frames (undercount, visible as delivery loss) but can never
//! double-count, so `counted ≤ last_seq + 1` holds across any sequence of
//! crashes, redeploys and rejoins. The coordinator verifies exactly that.
//!
//! Live progress is published through [`TenantStats`] (shared atomics the
//! node agent samples for periodic reports) while the checkpoint path
//! goes through the runtime's normal snapshot/restore machinery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use videopipe_core::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleRegistry};
use videopipe_core::prelude::*;
use videopipe_core::service::ServiceRegistry;
use videopipe_core::spec::{ModuleSpec, PipelineSpec};

/// Module-spec name of the counting source (checkpoint key).
pub(crate) const SRC_MODULE: &str = "src";
/// Module-spec name of the counting sink (checkpoint key).
pub(crate) const SINK_MODULE: &str = "sink";
/// The single device name a node hosts tenants on.
pub(crate) const NODE_DEVICE: &str = "local";

/// Live counters one tenant pipeline publishes, sampled by the node agent
/// for control-plane reports without touching the running modules.
#[derive(Debug, Default)]
pub(crate) struct TenantStats {
    /// Frames counted exactly once by the sink.
    pub counted: AtomicU64,
    /// Redelivered frames the sink recognised and refused to recount.
    pub duplicates: AtomicU64,
    /// Highest frame seq accepted, plus one (0 = nothing accepted yet).
    pub next_expected: AtomicU64,
    /// Next seq the source will mint.
    pub source_seq: AtomicU64,
}

/// Source: mints a monotonic sequence (independent of the pacer's tick
/// counter, so it survives checkpoint/restore across processes) and sends
/// one [`Payload::Count`] per tick.
pub(crate) struct CountSource {
    stats: Arc<TenantStats>,
    next_seq: u64,
}

const SNAP_VERSION: u8 = 1;

impl CountSource {
    /// New source publishing into `stats`, optionally resuming from a
    /// checkpoint shipped by the coordinator.
    pub(crate) fn new(stats: Arc<TenantStats>, ckpt: Option<&[u8]>) -> Self {
        let mut s = CountSource { stats, next_seq: 0 };
        if let Some(c) = ckpt {
            s.restore(c);
        }
        s
    }

    /// Encodes `next_seq` as a versioned snapshot.
    pub(crate) fn encode_snapshot(next_seq: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(9);
        out.push(SNAP_VERSION);
        out.extend_from_slice(&next_seq.to_be_bytes());
        out
    }

    /// Decodes a source snapshot (best-effort: `None` on malformed input).
    pub(crate) fn decode_snapshot(bytes: &[u8]) -> Option<u64> {
        if bytes.len() != 9 || bytes[0] != SNAP_VERSION {
            return None;
        }
        Some(u64::from_be_bytes(bytes[1..9].try_into().ok()?))
    }
}

impl Module for CountSource {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::FrameTick { .. } = event {
            let seq = self.next_seq;
            ctx.call_module(SINK_MODULE, Payload::Count(seq))?;
            self.next_seq += 1;
            self.stats
                .source_seq
                .store(self.next_seq, Ordering::Relaxed);
        }
        Ok(())
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(Self::encode_snapshot(self.next_seq))
    }

    fn restore(&mut self, snapshot: &[u8]) {
        if let Some(next_seq) = Self::decode_snapshot(snapshot) {
            self.next_seq = next_seq;
            self.stats.source_seq.store(next_seq, Ordering::Relaxed);
        }
    }
}

/// Sink: counts each minted sequence exactly once. `(counted,
/// next_expected, duplicates)` move together — in memory and in the
/// snapshot — so a restore can lose progress but never double-count.
pub(crate) struct CountSink {
    stats: Arc<TenantStats>,
    counted: u64,
    next_expected: u64,
    duplicates: u64,
}

impl CountSink {
    /// New sink publishing into `stats`, optionally resuming from a
    /// checkpoint shipped by the coordinator.
    pub(crate) fn new(stats: Arc<TenantStats>, ckpt: Option<&[u8]>) -> Self {
        let mut s = CountSink {
            stats,
            counted: 0,
            next_expected: 0,
            duplicates: 0,
        };
        if let Some(c) = ckpt {
            s.restore(c);
        }
        s
    }

    /// Encodes the atomic `(counted, next_expected, duplicates)` triple.
    pub(crate) fn encode_snapshot(counted: u64, next_expected: u64, duplicates: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(25);
        out.push(SNAP_VERSION);
        out.extend_from_slice(&counted.to_be_bytes());
        out.extend_from_slice(&next_expected.to_be_bytes());
        out.extend_from_slice(&duplicates.to_be_bytes());
        out
    }

    /// Decodes a sink snapshot (best-effort: `None` on malformed input).
    pub(crate) fn decode_snapshot(bytes: &[u8]) -> Option<(u64, u64, u64)> {
        if bytes.len() != 25 || bytes[0] != SNAP_VERSION {
            return None;
        }
        Some((
            u64::from_be_bytes(bytes[1..9].try_into().ok()?),
            u64::from_be_bytes(bytes[9..17].try_into().ok()?),
            u64::from_be_bytes(bytes[17..25].try_into().ok()?),
        ))
    }

    fn publish(&self) {
        self.stats.counted.store(self.counted, Ordering::Relaxed);
        self.stats
            .next_expected
            .store(self.next_expected, Ordering::Relaxed);
        self.stats
            .duplicates
            .store(self.duplicates, Ordering::Relaxed);
    }

    /// Applies one arriving sequence: counted exactly once if new, a
    /// refused duplicate otherwise. Returns whether it was new.
    pub(crate) fn accept(&mut self, seq: u64) -> bool {
        let fresh = seq >= self.next_expected;
        if fresh {
            self.counted += 1;
            self.next_expected = seq + 1;
        } else {
            // Redelivery of something already accepted: refuse to
            // recount (exactly-once), remember that we saw it.
            self.duplicates += 1;
        }
        self.publish();
        fresh
    }
}

impl Module for CountSink {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            if let Payload::Count(seq) = msg.payload {
                self.accept(seq);
            }
            ctx.signal_source()?;
        }
        Ok(())
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(Self::encode_snapshot(
            self.counted,
            self.next_expected,
            self.duplicates,
        ))
    }

    fn restore(&mut self, snapshot: &[u8]) {
        if let Some((counted, next_expected, duplicates)) = Self::decode_snapshot(snapshot) {
            self.counted = counted;
            self.next_expected = next_expected;
            self.duplicates = duplicates;
            self.publish();
        }
    }
}

/// Everything a node needs to host one counting tenant.
pub(crate) struct TenantWorkload {
    /// Single-device deployment plan (the node hosts every module).
    pub plan: DeploymentPlan,
    /// Registry with the tenant's source and sink factories (closing over
    /// the shipped checkpoints, so even a supervised restart resumes).
    pub modules: ModuleRegistry,
    /// Empty — the counting workload calls no services.
    pub services: ServiceRegistry,
    /// Live counters shared with the running modules.
    pub stats: Arc<TenantStats>,
}

/// The tenant pipeline spec — shared by the node (which instantiates it
/// on its local device) and the coordinator (which runs placement over it
/// with node names as devices).
pub(crate) fn tenant_spec(tenant: &str) -> PipelineSpec {
    PipelineSpec::new(tenant)
        .with_module(ModuleSpec::new(SRC_MODULE, "CountSource").with_next(SINK_MODULE))
        .with_module(ModuleSpec::new(SINK_MODULE, "CountSink"))
}

/// Builds the counting workload for `tenant`, optionally resuming both
/// modules from coordinator-shipped checkpoints.
pub(crate) fn counting_workload(
    tenant: &str,
    source_ckpt: Option<bytes::Bytes>,
    sink_ckpt: Option<bytes::Bytes>,
) -> Result<TenantWorkload, PipelineError> {
    let spec = tenant_spec(tenant);
    let devices = vec![DeviceSpec::new(NODE_DEVICE, 1.0)];
    let placement = Placement::new()
        .assign(SRC_MODULE, NODE_DEVICE)
        .assign(SINK_MODULE, NODE_DEVICE);
    let plan = plan(&spec, &devices, &placement)?;

    let stats = Arc::new(TenantStats::default());
    let mut modules = ModuleRegistry::new();
    let src_stats = Arc::clone(&stats);
    modules.register("CountSource", move || {
        Box::new(CountSource::new(
            Arc::clone(&src_stats),
            source_ckpt.as_deref(),
        ))
    });
    let sink_stats = Arc::clone(&stats);
    modules.register("CountSink", move || {
        Box::new(CountSink::new(
            Arc::clone(&sink_stats),
            sink_ckpt.as_deref(),
        ))
    });

    Ok(TenantWorkload {
        plan,
        modules,
        services: ServiceRegistry::new(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use videopipe_core::reactor::{ReactorConfig, ReactorRuntime};
    use videopipe_core::runtime::RuntimeConfig;

    fn config(fps: f64) -> RuntimeConfig {
        RuntimeConfig {
            fps,
            checkpoint_period: Some(Duration::from_millis(25)),
            dedup_window: 128,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn counting_tenant_delivers_and_checkpoints() {
        let w = counting_workload("t000", None, None).unwrap();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        });
        let id = rt
            .add_pipeline(&w.plan, &w.modules, &w.services, config(200.0))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while w.stats.counted.load(Ordering::Relaxed) < 20 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(w.stats.counted.load(Ordering::Relaxed) >= 20);
        // Periodic checkpoints exist for both modules.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (rt.checkpoint_for(id, SRC_MODULE).is_none()
            || rt.checkpoint_for(id, SINK_MODULE).is_none())
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let src = rt.checkpoint_for(id, SRC_MODULE).expect("src checkpoint");
        assert!(CountSource::decode_snapshot(&src).is_some());
        let sink = rt.checkpoint_for(id, SINK_MODULE).expect("sink checkpoint");
        assert!(CountSink::decode_snapshot(&sink).is_some());
        let reports = rt.finish();
        // Teardown refreshed the final checkpoint: it matches the final
        // counters exactly.
        let (counted, next_expected, _dups) =
            CountSink::decode_snapshot(&reports[0].checkpoints[SINK_MODULE]).unwrap();
        assert_eq!(counted, w.stats.counted.load(Ordering::Relaxed));
        assert_eq!(next_expected, w.stats.next_expected.load(Ordering::Relaxed));
        assert!(counted <= next_expected, "exactly-once invariant");
    }

    #[test]
    fn stop_pipeline_freezes_one_tenant_and_keeps_the_rest() {
        let a = counting_workload("ta", None, None).unwrap();
        let b = counting_workload("tb", None, None).unwrap();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        });
        let ia = rt
            .add_pipeline(&a.plan, &a.modules, &a.services, config(200.0))
            .unwrap();
        let ib = rt
            .add_pipeline(&b.plan, &b.modules, &b.services, config(200.0))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while (a.stats.counted.load(Ordering::Relaxed) < 10
            || b.stats.counted.load(Ordering::Relaxed) < 10)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(rt.stop_pipeline(ia));
        assert!(!rt.stop_pipeline(ia), "second stop is a no-op");
        let frozen = a.stats.counted.load(Ordering::Relaxed);
        // The retired tenant's final checkpoint is immediately coherent.
        let sink = rt
            .checkpoint_for(ia, SINK_MODULE)
            .expect("final checkpoint");
        let (counted, _, _) = CountSink::decode_snapshot(&sink).unwrap();
        assert_eq!(counted, frozen);
        // The survivor keeps making progress.
        let before = b.stats.counted.load(Ordering::Relaxed);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while b.stats.counted.load(Ordering::Relaxed) < before + 10
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(b.stats.counted.load(Ordering::Relaxed) >= before + 10);
        assert_eq!(a.stats.counted.load(Ordering::Relaxed), frozen);
        let _ = (ia, ib);
        drop(rt);
    }

    #[test]
    fn restore_from_stale_pair_never_double_counts() {
        // Crash-consistency: restore the sink from an *older* atomic pair
        // and replay the source from an even older seq — duplicates are
        // absorbed, the invariant counted ≤ next_expected holds.
        let stats = Arc::new(TenantStats::default());
        let mut sink = CountSink::new(
            Arc::clone(&stats),
            Some(&CountSink::encode_snapshot(50, 50, 0)),
        );
        // Source replays 40..60: 40..50 are duplicates, 50..60 are new.
        for seq in 40..60 {
            assert_eq!(sink.accept(seq), seq >= 50);
        }
        assert_eq!(stats.counted.load(Ordering::Relaxed), 60);
        assert_eq!(stats.duplicates.load(Ordering::Relaxed), 10);
        assert_eq!(stats.next_expected.load(Ordering::Relaxed), 60);
        let (counted, next_expected, dups) =
            CountSink::decode_snapshot(&sink.snapshot().unwrap()).unwrap();
        assert_eq!((counted, next_expected, dups), (60, 60, 10));
    }
}
