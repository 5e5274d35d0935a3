//! Calibration profiles: the constants that stand in for the paper's
//! physical testbed.
//!
//! The defaults are tuned so the reproduction matches the *shape* of the
//! paper's results (see EXPERIMENTS.md): pose detection is the pipeline
//! bottleneck (~53.5 ms on the desktop ⇒ the ~10.5 FPS cap of Table 2),
//! frame capture costs ~18 ms on the phone (the sub-nominal frame rates at
//! low source FPS), home Wi-Fi adds ~1.8 ms latency at 40 Mbit/s per hop
//! and a camera frame ships as ~28 KB (the VideoPipe-vs-baseline gap of
//! Fig. 6), and the shared pose service has one executor (the saturation
//! in Table 2's two-pipeline column).

use std::collections::BTreeMap;
use std::time::Duration;
use videopipe_core::deploy::CostParams;
use videopipe_media::codec::Quality;

/// All timing constants of a simulated deployment.
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// Handler base cost per module *include* key, on the reference device.
    pub module_cost: BTreeMap<String, Duration>,
    /// Fallback module handler cost.
    pub default_module_cost: Duration,
    /// Per-event dispatch overhead multiplied by the number of modules
    /// resident on the device (models runtime contention on constrained
    /// devices — the baseline hosts five modules on the phone).
    pub dispatch_overhead_per_module: Duration,
    /// Compute cost override per service name (reference device). Services
    /// without an override use their own `Service::cost` model.
    pub service_cost: BTreeMap<String, Duration>,
    /// Same-device message/service handoff cost.
    pub ipc: Duration,
    /// One-way Wi-Fi latency.
    pub link_latency: Duration,
    /// Wi-Fi bandwidth in bits per second.
    pub link_bandwidth_bps: u64,
    /// Multiplicative jitter fraction on link and service times.
    pub jitter_frac: f64,
    /// Codec quality for cross-device frames.
    pub codec_quality: Quality,
    /// Executor instances per service name (default 1 — the paper scales
    /// these only as future work).
    pub service_instances: BTreeMap<String, usize>,
    /// Wire size assumed for a frame crossing devices. The synthetic scenes
    /// compress far better than camera JPEG, so using the real encoded size
    /// would understate transfer times; `Some(bytes)` substitutes a
    /// camera-grade size (documented in DESIGN.md), `None` uses the actual
    /// codec output.
    pub frame_wire_bytes: Option<usize>,
    /// Camera recovery time added to the frame interval before the next
    /// frame can be captured (sensor readout + ISP on the phone).
    pub camera_recovery: Duration,
    /// RNG seed for all stochastic components.
    pub seed: u64,
}

impl Default for SimProfile {
    fn default() -> Self {
        Self::calibrated()
    }
}

impl SimProfile {
    /// The calibrated profile used by the paper-reproduction benches.
    pub fn calibrated() -> Self {
        let mut module_cost = BTreeMap::new();
        // The source module's handler cost *is* the capture/load-frame
        // stage of Fig. 6 (11 ms reference → ≈18 ms on the 0.6× phone).
        module_cost.insert("VideoStreamingModule".into(), Duration::from_millis(11));
        module_cost.insert("GestureVideoModule".into(), Duration::from_millis(11));
        module_cost.insert("FallVideoModule".into(), Duration::from_millis(11));
        module_cost.insert("PoseDetectionModule".into(), Duration::from_millis(2));
        module_cost.insert("ActivityRecognitionModule".into(), Duration::from_millis(1));
        module_cost.insert("RepCounterModule".into(), Duration::from_millis(1));
        module_cost.insert("DisplayModule".into(), Duration::from_micros(1_500));
        module_cost.insert("IoTActuatorModule".into(), Duration::from_millis(1));
        module_cost.insert("FallAlertModule".into(), Duration::from_millis(1));

        let mut service_cost = BTreeMap::new();
        // Reference-device costs; the desktop (speed 2.0) halves them:
        // pose ≈ 53.5 ms on the desktop — the bottleneck (⇒ the ~11 FPS cap).
        service_cost.insert("pose_detector".into(), Duration::from_millis(107));
        service_cost.insert("activity_classifier".into(), Duration::from_millis(7));
        service_cost.insert("gesture_classifier".into(), Duration::from_millis(7));
        service_cost.insert("rep_counter".into(), Duration::from_millis(3));
        service_cost.insert("display".into(), Duration::from_millis(1));
        service_cost.insert("object_detector".into(), Duration::from_millis(40));
        service_cost.insert("face_detector".into(), Duration::from_millis(30));
        service_cost.insert("image_classifier".into(), Duration::from_millis(25));

        SimProfile {
            module_cost,
            default_module_cost: Duration::from_millis(1),
            dispatch_overhead_per_module: Duration::from_micros(300),
            service_cost,
            ipc: Duration::from_micros(80),
            link_latency: Duration::from_micros(1_800),
            link_bandwidth_bps: 40_000_000,
            jitter_frac: 0.12,
            codec_quality: Quality::default(),
            service_instances: BTreeMap::new(),
            frame_wire_bytes: Some(28_000),
            camera_recovery: Duration::from_millis(21),
            seed: 0x0005_1DE0,
        }
    }

    /// A zero-jitter variant (bit-exact determinism across parameter
    /// sweeps; used by tests).
    pub fn deterministic() -> Self {
        SimProfile {
            jitter_frac: 0.0,
            ..Self::calibrated()
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the executor instance count for a service.
    pub fn with_service_instances(mut self, service: impl Into<String>, n: usize) -> Self {
        self.service_instances.insert(service.into(), n.max(1));
        self
    }

    /// Handler cost for a module include key.
    pub(crate) fn module_cost(&self, include: &str) -> Duration {
        self.module_cost
            .get(include)
            .copied()
            .unwrap_or(self.default_module_cost)
    }

    /// Executor instances for a service.
    pub(crate) fn instances_for(&self, service: &str) -> usize {
        self.service_instances.get(service).copied().unwrap_or(1)
    }

    /// Converts to the [`CostParams`] used by the deployment planner's
    /// latency model, so `autoplace` and the simulator agree.
    pub fn to_cost_params(&self, frame_bytes: usize) -> CostParams {
        let mut params = CostParams {
            default_module_cost_ns: self.default_module_cost.as_nanos() as u64,
            frame_bytes,
            result_bytes: 600,
            link_latency_ns: self.link_latency.as_nanos() as u64,
            link_bandwidth_bps: self.link_bandwidth_bps,
            ipc_ns: self.ipc.as_nanos() as u64,
            default_request_bytes: 2_048,
            response_bytes: 600,
            ..CostParams::default()
        };
        for (k, v) in &self.service_cost {
            params
                .service_cost_ns
                .insert(k.clone(), v.as_nanos() as u64);
        }
        params
            .service_request_bytes
            .insert("pose_detector".into(), frame_bytes);
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_profile_sanity() {
        let p = SimProfile::calibrated();
        // Pose must dominate every other service (it is the bottleneck).
        let pose = p.service_cost["pose_detector"];
        for (name, cost) in &p.service_cost {
            if name != "pose_detector" {
                assert!(*cost < pose, "{name} >= pose");
            }
        }
        assert!(p.module_cost("VideoStreamingModule") > Duration::from_millis(10));
        assert_eq!(p.module_cost("UnknownModule"), p.default_module_cost);
        assert_eq!(p.instances_for("pose_detector"), 1);
    }

    #[test]
    fn builders() {
        let p = SimProfile::calibrated()
            .with_seed(7)
            .with_service_instances("pose_detector", 3);
        assert_eq!(p.seed, 7);
        assert_eq!(p.instances_for("pose_detector"), 3);
        assert_eq!(SimProfile::deterministic().jitter_frac, 0.0);
    }

    #[test]
    fn cost_params_roundtrip() {
        let p = SimProfile::calibrated();
        let params = p.to_cost_params(12_000);
        assert_eq!(params.frame_bytes, 12_000);
        assert_eq!(
            params.service_cost_ns["pose_detector"],
            p.service_cost["pose_detector"].as_nanos() as u64
        );
        assert_eq!(params.service_request_bytes["pose_detector"], 12_000);
    }
}
