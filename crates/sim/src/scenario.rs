//! The scenario runner: executes deployed pipelines on the virtual clock.
//!
//! A scenario holds any number of pipelines sharing one set of devices,
//! links and service pools. Module handlers and services execute for real
//! (host-side, instantaneously) while their timing — handler cost, service
//! queueing and compute, link transfers, flow-control pacing — is replayed
//! as discrete events. See the crate docs for why this is exact for
//! stateless services.
//!
//! # Camera model
//!
//! After a frame is admitted at time `A`, the next frame becomes available
//! at `A + 1/fps + camera_recovery` (sensor interval plus readout/ISP).
//! With the paper's one-credit flow control the achieved cycle is therefore
//! `max(1/fps + recovery, pipeline_latency)` — which is what produces
//! Table 2's sub-nominal rates at low FPS (4.53 at source 5) and the
//! ~11 FPS cap at high FPS.

use crate::engine::Engine;
use crate::faults::FaultPlan;
use crate::net_model::{LinkModel, LinkStats};
use crate::pool::{PoolStats, ServicePool};
use crate::profiles::SimProfile;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;
use videopipe_core::deploy::{replan_after_device_loss, CostParams, DeploymentPlan, Placement};
use videopipe_core::flow::CreditController;
use videopipe_core::health::{FailureDetector, HealthConfig};
use videopipe_core::message::{Header, Message, Payload};
use videopipe_core::metrics::PipelineMetrics;
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleFactory, ModuleRegistry};
use videopipe_core::service::{ServiceRegistry, ServiceRequest, ServiceResponse};
use videopipe_core::slo::{KnobSettings, SloAction, SloConfig, SloController};
use videopipe_core::PipelineError;
use videopipe_media::{codec, FrameStore};

/// Identifies a pipeline within a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineHandle(usize);

/// Per-(device, service) pool report.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Hosting device.
    pub device: String,
    /// Service name.
    pub service: String,
    /// Executor instances at the end of the run.
    pub instances: usize,
    /// Queueing/compute statistics.
    pub stats: PoolStats,
}

/// Per-directed-link report.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Sending device.
    pub from: String,
    /// Receiving device.
    pub to: String,
    /// Transfer statistics.
    pub stats: LinkStats,
}

/// Tuning knobs for the scenario's self-healing failover machinery.
/// See [`Scenario::enable_failover`].
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Heartbeat cadence, lease and suspicion/confirmation thresholds fed
    /// to the shared [`FailureDetector`] (over virtual time).
    pub health: HealthConfig,
    /// How often stateful modules are asked for a [`Module::snapshot`].
    pub checkpoint_period: Duration,
    /// Size of the per-pipeline delivered-sequence window used to suppress
    /// duplicate completions after a failover (0 disables dedup).
    pub dedup_window: usize,
    /// Cost model used when replanning around a dead device.
    pub cost_params: CostParams,
    /// Affinity pins honoured by the replanner (a pinned module whose pin
    /// survives stays put; pins on the dead device are dropped).
    pub pins: Placement,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            health: HealthConfig::default(),
            checkpoint_period: Duration::from_millis(500),
            dedup_window: 128,
            cost_params: CostParams::default(),
            pins: Placement::new(),
        }
    }
}

/// The recovery timeline of one confirmed device loss, per pipeline.
/// All instants are virtual-time offsets from the start of the run.
#[derive(Debug, Clone)]
pub struct FailoverEvent {
    /// The device that died.
    pub device: String,
    /// The pipeline that failed over.
    pub pipeline: String,
    /// When the device actually crashed (from the fault plan).
    pub crashed_at: Duration,
    /// When the detector confirmed the loss and the epoch was fenced.
    pub detected_at: Duration,
    /// When the replacement plan was computed and modules respawned.
    pub replanned_at: Duration,
    /// First end-to-end delivery in the new epoch, if any arrived before
    /// the run ended.
    pub first_delivery_at: Option<Duration>,
}

impl FailoverEvent {
    /// Crash → confirmation latency.
    pub fn detection_latency(&self) -> Duration {
        self.detected_at.saturating_sub(self.crashed_at)
    }

    /// Mean time to recovery: crash → first delivery in the new epoch.
    pub fn mttr(&self) -> Option<Duration> {
        self.first_delivery_at
            .map(|d| d.saturating_sub(self.crashed_at))
    }
}

/// A piecewise-constant offered-load multiplier over virtual time, used to
/// model diurnal demand curves and flash crowds. The camera's effective
/// frame interval at time `t` is the configured interval divided by the
/// multiplier in effect at `t`.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// `(start offset, multiplier)` base curve, sorted by offset. Before
    /// the first step the multiplier is 1.0.
    steps: Vec<(Duration, f64)>,
    /// Optional flash crowd: `(start, duration, multiplier)` applied
    /// multiplicatively on top of the base curve.
    flash: Option<(Duration, Duration, f64)>,
}

impl LoadPlan {
    /// Constant nominal load (multiplier 1.0 throughout).
    pub fn flat() -> Self {
        LoadPlan {
            steps: Vec::new(),
            flash: None,
        }
    }

    /// Sets the base multiplier to `multiplier` from `at` onward (until the
    /// next step).
    ///
    /// # Panics
    ///
    /// Panics unless `multiplier` is finite and positive.
    pub fn step(mut self, at: Duration, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "load multiplier must be finite and positive"
        );
        self.steps.push((at, multiplier));
        self.steps.sort_by_key(|(t, _)| *t);
        self
    }

    /// A day compressed into `day`: an overnight lull (0.4×) for the first
    /// quarter, a morning ramp (0.8×), a midday plateau (1.0×), an evening
    /// peak of `peak`×, and a wind-down (0.6×) for the final fifth. The
    /// pattern repeats if the run outlasts `day`... it does not; steps are
    /// absolute offsets, so size `day` to the run.
    pub fn diurnal(day: Duration, peak: f64) -> Self {
        LoadPlan::flat()
            .step(Duration::ZERO, 0.4)
            .step(day.mul_f64(0.25), 0.8)
            .step(day.mul_f64(0.40), 1.0)
            .step(day.mul_f64(0.60), peak)
            .step(day.mul_f64(0.80), 0.6)
    }

    /// Overlays a flash crowd: the multiplier is multiplied by `multiplier`
    /// for `lasting` starting at `at`.
    ///
    /// # Panics
    ///
    /// Panics unless `multiplier` is finite and positive.
    pub fn with_flash_crowd(mut self, at: Duration, lasting: Duration, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "load multiplier must be finite and positive"
        );
        self.flash = Some((at, lasting, multiplier));
        self
    }

    /// The multiplier in effect at offset `t`.
    pub fn multiplier_at(&self, t: Duration) -> f64 {
        let mut m = self
            .steps
            .iter()
            .rev()
            .find(|(at, _)| *at <= t)
            .map(|(_, v)| *v)
            .unwrap_or(1.0);
        if let Some((start, lasting, fm)) = self.flash {
            if t >= start && t < start + lasting {
                m *= fm;
            }
        }
        m
    }

    /// Frames a camera with base `interval` offers over `duration` under
    /// this plan (the piecewise integral of `multiplier / interval`).
    pub fn expected_frames(&self, interval: Duration, duration: Duration) -> u64 {
        let mut boundaries: Vec<Duration> = vec![Duration::ZERO, duration];
        for (at, _) in &self.steps {
            boundaries.push(*at);
        }
        if let Some((start, lasting, _)) = self.flash {
            boundaries.push(start);
            boundaries.push(start + lasting);
        }
        boundaries.retain(|t| *t <= duration);
        boundaries.sort();
        boundaries.dedup();
        let mut frames = 0.0;
        for pair in boundaries.windows(2) {
            let span = (pair[1] - pair[0]).as_secs_f64();
            frames += span * self.multiplier_at(pair[0]) / interval.as_secs_f64();
        }
        (frames as u64).max(1)
    }
}

/// One SLO control tick of one pipeline, recorded for offline analysis
/// (e.g. "was the windowed p99 held through the spike's steady state?").
#[derive(Debug, Clone)]
pub struct SloTickRecord {
    /// Virtual-time offset of the tick.
    pub at: Duration,
    /// Pipeline name.
    pub pipeline: String,
    /// Windowed p99 at this tick (ms; carries the previous value across
    /// windows too thin to judge, 0 before the first actionable window).
    pub window_p99_ms: f64,
    /// Frames delivered in the last actionable window.
    pub window_count: u64,
    /// Lattice level after the tick.
    pub level: usize,
    /// Whether the tick moved a knob.
    pub stepped: bool,
}

/// Per-pipeline SLO controller summary at the end of a run.
#[derive(Debug, Clone)]
pub struct SloSummary {
    /// Pipeline name.
    pub pipeline: String,
    /// Final lattice level.
    pub level: usize,
    /// Total knob moves.
    pub moves: u64,
    /// Direction reversals (bounded by run duration / dwell).
    pub flaps: u64,
}

/// Live SLO state: one controller per pipeline plus the tick trace.
struct SloSimState {
    cfg: SloConfig,
    /// `false` = shadow mode: observe and record, never touch the knobs
    /// (the "static configuration" arm of the acceptance experiment).
    actuate: bool,
    controllers: HashMap<usize, SloController>,
    ticks: Vec<SloTickRecord>,
}

/// The outcome of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Per-pipeline metrics, in `add_pipeline` order.
    pub pipelines: Vec<(String, PipelineMetrics)>,
    /// Pool statistics.
    pub pools: Vec<PoolReport>,
    /// Link statistics.
    pub links: Vec<LinkReport>,
    /// Module handler errors (`"pipeline/module: error"`).
    pub errors: Vec<String>,
    /// Module log lines.
    pub logs: Vec<String>,
    /// Recovery timelines, one per (dead device, affected pipeline), in
    /// confirmation order. Empty unless failover was enabled and fired.
    pub failovers: Vec<FailoverEvent>,
    /// SLO control ticks in time order. Empty unless [`Scenario::enable_slo`]
    /// or [`Scenario::observe_slo`] ran.
    pub slo_ticks: Vec<SloTickRecord>,
    /// Per-pipeline SLO controller summaries, in `add_pipeline` order.
    /// Empty unless SLO control/observation was enabled.
    pub slo: Vec<SloSummary>,
    /// Virtual duration of the run.
    pub duration: Duration,
}

impl ScenarioReport {
    /// Metrics of pipeline `handle`.
    pub fn metrics(&self, handle: PipelineHandle) -> &PipelineMetrics {
        &self.pipelines[handle.0].1
    }

    /// The pool report for `(device, service)`.
    pub fn pool(&self, device: &str, service: &str) -> Option<&PoolReport> {
        self.pools
            .iter()
            .find(|p| p.device == device && p.service == service)
    }

    /// The worst windowed p99 (ms) over SLO ticks in `[from, until)` that
    /// had an actionable window, across all pipelines. Returns 0.0 when no
    /// such tick exists. Use with a `from` past the controller's reaction
    /// time to judge the steady state of a load phase.
    pub fn max_window_p99_ms(&self, from: Duration, until: Duration) -> f64 {
        self.slo_ticks
            .iter()
            .filter(|t| t.at >= from && t.at < until && t.window_count > 0)
            .map(|t| t.window_p99_ms)
            .fold(0.0, f64::max)
    }
}

struct SimWiring {
    name: String,
    device: String,
    /// service → (host device, remote)
    bindings: HashMap<String, (String, bool)>,
    /// next module → (target device, cross_device)
    nexts: HashMap<String, (String, bool)>,
}

struct RecordedCall {
    service: String,
    device: String,
    remote: bool,
    req_bytes: usize,
    resp_bytes: usize,
    compute: Duration,
}

struct RecordedOutput {
    target: String,
    header: Header,
    payload: Payload,
    bytes: usize,
    cross: bool,
}

struct SimModule {
    include: String,
    device_speed: f64,
    resident_modules: usize,
    wiring: Arc<SimWiring>,
    instance: Option<Box<dyn Module>>,
    /// Kept so failover can re-instantiate the module on a new host.
    factory: ModuleFactory,
    busy_until: SimTime,
    is_source: bool,
}

struct SimPipeline {
    name: String,
    modules: Vec<SimModule>,
    index: HashMap<String, usize>,
    services: Arc<ServiceRegistry>,
    source_device: String,
    controller: CreditController,
    camera_ready: bool,
    interval: Duration,
    metrics: PipelineMetrics,
    admitted: u64,
    next_seq: u64,
    /// Current deployment; replaced on failover.
    plan: DeploymentPlan,
    /// Bumped on every failover; events stamped with an older epoch are
    /// fenced (their credits were reclaimed when the epoch advanced).
    epoch: u64,
    /// Last snapshot per stateful module, applied on respawn.
    checkpoints: HashMap<String, Vec<u8>>,
    /// Sliding window of delivered frame sequences (dedup after failover).
    dedup: VecDeque<u64>,
    dedup_set: HashSet<u64>,
    /// Degradation knobs currently actuated by the SLO controller.
    knobs: KnobSettings,
    /// Camera ticks seen, for stride-based sampling/shedding.
    cam_ticks: u64,
    /// Offered-load multiplier over time (diurnal curve, flash crowd).
    load: Option<LoadPlan>,
}

/// The context handed to module handlers inside the simulator.
struct SimCtx {
    wiring: Arc<SimWiring>,
    services: Arc<ServiceRegistry>,
    store: Arc<FrameStore>,
    profile: Arc<SimProfile>,
    header: Header,
    now_ns: u64,
    calls: Vec<RecordedCall>,
    outputs: Vec<RecordedOutput>,
    signalled: bool,
    logs: Vec<String>,
    /// Devices that have crashed by now: service calls bound to them fail.
    crashed: Vec<String>,
    /// SLO-actuated codec quality shift for cross-device frames (`None` =
    /// the profile's configured quality).
    quality_shift: Option<u8>,
}

impl SimCtx {
    fn effective_quality(&self) -> codec::Quality {
        match self.quality_shift {
            Some(shift) if shift <= 7 => codec::Quality::new(shift),
            _ => self.profile.codec_quality,
        }
    }

    fn frame_bytes(&self, payload: &Payload) -> usize {
        // A frame reference crossing a device boundary costs the encoded
        // frame's size on the wire — or the profile's camera-grade
        // substitute size (synthetic scenes compress unrealistically well).
        if let Payload::FrameRef(id) = payload {
            let quality = self.effective_quality();
            if let Some(bytes) = self.profile.frame_wire_bytes {
                // The substitute size is calibrated at the profile's
                // configured quality; a degraded shift removes bits per
                // pixel, shrinking the wire size roughly proportionally.
                let base_bits = 8 - self.profile.codec_quality.shift().min(7) as usize;
                let bits = 8 - quality.shift().min(7) as usize;
                return (bytes * bits / base_bits).max(1);
            }
            if let Ok(frame) = self.store.get(*id) {
                return codec::encoded_size(&frame, quality);
            }
        }
        payload.size_hint()
    }
}

impl ModuleCtx for SimCtx {
    fn call_service(
        &mut self,
        service: &str,
        request: ServiceRequest,
    ) -> Result<ServiceResponse, PipelineError> {
        let (device, remote) = self.wiring.bindings.get(service).cloned().ok_or_else(|| {
            PipelineError::ServiceUnavailable {
                module: self.wiring.name.clone(),
                service: service.to_string(),
            }
        })?;
        if self.crashed.iter().any(|d| d == &device) {
            // The bound host is down; the error path returns the frame's
            // credit, and failover (when enabled) will rebind the service.
            return Err(PipelineError::Service {
                service: service.to_string(),
                reason: format!("host {device:?} is down"),
            });
        }
        let image = self
            .services
            .get(service)
            .ok_or_else(|| PipelineError::Deploy(format!("service image {service:?} missing")))?;

        let req_bytes = if remote {
            self.frame_bytes(&request.payload)
        } else {
            request.payload.size_hint()
        };
        let compute = self
            .profile
            .service_cost
            .get(service)
            .copied()
            .unwrap_or_else(|| image.cost(&request).for_bytes(req_bytes));

        // Execute for real (stateless ⇒ timing-independent result).
        let response = image.handle(&request, &self.store)?;
        self.calls.push(RecordedCall {
            service: service.to_string(),
            device,
            remote,
            req_bytes,
            resp_bytes: response.payload.size_hint(),
            compute,
        });
        Ok(response)
    }

    fn call_module(&mut self, target: &str, payload: Payload) -> Result<(), PipelineError> {
        let (_, cross) = self.wiring.nexts.get(target).cloned().ok_or_else(|| {
            PipelineError::Validation(format!(
                "module {:?} has no edge to {target:?}",
                self.wiring.name
            ))
        })?;
        let bytes = if cross {
            self.frame_bytes(&payload)
        } else {
            payload.size_hint()
        };
        self.outputs.push(RecordedOutput {
            target: target.to_string(),
            header: self.header,
            payload,
            bytes,
            cross,
        });
        Ok(())
    }

    fn signal_source(&mut self) -> Result<(), PipelineError> {
        self.signalled = true;
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        self.now_ns
    }

    fn module_name(&self) -> &str {
        &self.wiring.name
    }

    fn device_name(&self) -> &str {
        &self.wiring.device
    }

    fn frame_store(&self) -> &FrameStore {
        &self.store
    }

    fn header(&self) -> Header {
        self.header
    }

    fn set_header(&mut self, header: Header) {
        self.header = header;
    }

    fn log(&mut self, text: &str) {
        self.logs.push(format!("{}: {text}", self.wiring.name));
    }
}

enum Ev {
    CameraReady {
        p: usize,
    },
    Deliver {
        p: usize,
        m: usize,
        event_header: Header,
        payload: Option<Payload>, // None = FrameTick
        /// Pipeline epoch at scheduling time; stale epochs are fenced.
        epoch: u64,
    },
    Signal {
        p: usize,
        header: Header,
        /// Whether this is a real completion (counted as a delivery) or an
        /// error-path credit return (not counted).
        delivered: bool,
        /// Pipeline epoch at scheduling time; stale epochs are fenced.
        epoch: u64,
    },
    AutoscaleCheck {
        service: String,
        target_wait: Duration,
        interval: Duration,
        max_instances: usize,
    },
    /// Periodic heartbeat/liveness sweep (failover enabled only).
    HealthCheck,
    /// Periodic module checkpoint sweep (failover enabled only).
    CheckpointTick,
    /// Periodic SLO control tick (SLO control/observation enabled only).
    SloTick,
}

/// Live failover state: the detector, which losses have already been acted
/// on, and the recovery timelines gathered so far.
struct FailoverState {
    cfg: FailoverConfig,
    detector: FailureDetector,
    confirmed: HashSet<String>,
    events: Vec<FailoverEvent>,
}

/// A multi-pipeline simulation over shared devices, links and pools.
pub struct Scenario {
    engine: Engine<Ev>,
    profile: Arc<SimProfile>,
    rng: StdRng,
    store: Arc<FrameStore>,
    pools: HashMap<(String, String), ServicePool>,
    links: HashMap<(String, String), LinkModel>,
    pipelines: Vec<SimPipeline>,
    device_speed: HashMap<String, f64>,
    resident_count: HashMap<String, usize>,
    errors: Vec<String>,
    logs: Vec<String>,
    /// Per-pool snapshot for autoscaling decisions.
    autoscale_snapshots: HashMap<(String, String), PoolStats>,
    /// Optional deterministic fault schedule.
    faults: Option<FaultPlan>,
    /// Self-healing machinery, present once [`Scenario::enable_failover`]
    /// ran.
    failover: Option<FailoverState>,
    /// SLO control machinery, present once [`Scenario::enable_slo`] or
    /// [`Scenario::observe_slo`] ran.
    slo: Option<SloSimState>,
}

impl Scenario {
    /// Creates an empty scenario with the given calibration profile.
    pub fn new(profile: SimProfile) -> Self {
        let rng = StdRng::seed_from_u64(profile.seed);
        Scenario {
            engine: Engine::new(),
            profile: Arc::new(profile),
            rng,
            store: Arc::new(FrameStore::with_capacity(512)),
            pools: HashMap::new(),
            links: HashMap::new(),
            pipelines: Vec::new(),
            device_speed: HashMap::new(),
            resident_count: HashMap::new(),
            errors: Vec::new(),
            logs: Vec::new(),
            autoscale_snapshots: HashMap::new(),
            faults: None,
            failover: None,
            slo: None,
        }
    }

    /// Installs a deterministic fault schedule: latency spikes and link
    /// partitions apply to every transfer, and pipelines added *after* this
    /// call get their service images wrapped with the plan's seeded
    /// probabilistic failures.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Enables self-healing: every device heartbeats on the virtual clock,
    /// a crashed device's silence is detected via [`FailureDetector`], the
    /// pipeline epoch is fenced (in-flight credits of the dead epoch are
    /// reclaimed), placement is recomputed over the survivors, orphaned
    /// modules respawn from their last checkpoint, and admission resumes.
    /// Recovery timelines land in [`ScenarioReport::failovers`].
    pub fn enable_failover(&mut self, cfg: FailoverConfig) {
        self.engine.schedule(
            SimTime::ZERO + cfg.health.heartbeat_interval,
            Ev::HealthCheck,
        );
        self.engine
            .schedule(SimTime::ZERO + cfg.checkpoint_period, Ev::CheckpointTick);
        let detector = FailureDetector::new(cfg.health.clone());
        self.failover = Some(FailoverState {
            cfg,
            detector,
            confirmed: HashSet::new(),
            events: Vec::new(),
        });
    }

    /// Devices that have crashed at or before `now`, per the fault plan.
    fn crashed_devices(&self, now: SimTime) -> Vec<String> {
        match &self.faults {
            Some(plan) => plan
                .device_crashes()
                .iter()
                .filter(|c| now >= SimTime::ZERO + c.at)
                .map(|c| c.device.clone())
                .collect(),
            None => Vec::new(),
        }
    }

    /// The shared frame store (the simulation's data plane).
    pub fn store(&self) -> &Arc<FrameStore> {
        &self.store
    }

    /// Adds a deployed pipeline offering frames at `fps` with `credits`
    /// in-flight frames allowed (1 = the paper's design).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] when module includes or service images are
    /// missing or the plan is inconsistent.
    pub fn add_pipeline(
        &mut self,
        plan: &DeploymentPlan,
        modules: &ModuleRegistry,
        services: &ServiceRegistry,
        fps: f64,
        credits: u32,
    ) -> Result<PipelineHandle, PipelineError> {
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        let services = {
            let mut registry = services.clone();
            // Chaos: wrap every image with the plan's seeded failure mode.
            if let Some(plan) = &self.faults {
                let names: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
                for name in names {
                    let image = registry.get(&name).expect("name just listed");
                    registry.install(plan.wrap_service(image));
                }
            }
            Arc::new(registry)
        };

        // Register devices / speeds.
        for d in &plan.devices {
            self.device_speed
                .entry(d.name.clone())
                .or_insert(d.speed_factor);
        }
        // Pools for every binding (shared across pipelines by key).
        for b in &plan.service_bindings {
            if !services.contains(&b.service) {
                return Err(PipelineError::Deploy(format!(
                    "service image {:?} not registered",
                    b.service
                )));
            }
            let key = (b.device.clone(), b.service.clone());
            let instances = self.profile.instances_for(&b.service);
            self.pools
                .entry(key)
                .or_insert_with(|| ServicePool::new(&b.device, &b.service, instances));
        }

        let sources = plan.pipeline.sources();
        let source_device = plan
            .placement
            .device_for(&sources[0].name)
            .unwrap_or_default()
            .to_string();
        let sinks: Vec<String> = plan
            .pipeline
            .sinks()
            .iter()
            .map(|m| m.name.clone())
            .collect();
        let _ = sinks;

        let mut sim_modules = Vec::new();
        let mut index = HashMap::new();
        for m in &plan.pipeline.modules {
            let device = plan
                .placement
                .device_for(&m.name)
                .ok_or_else(|| PipelineError::Deploy(format!("module {:?} unplaced", m.name)))?
                .to_string();
            *self.resident_count.entry(device.clone()).or_insert(0) += 1;
            let mut bindings = HashMap::new();
            for b in plan.service_bindings.iter().filter(|b| b.module == m.name) {
                bindings.insert(b.service.clone(), (b.device.clone(), b.remote));
            }
            let mut nexts = HashMap::new();
            for e in plan.edges.iter().filter(|e| e.from == m.name) {
                nexts.insert(e.to.clone(), (e.to_device.clone(), e.cross_device));
            }
            let wiring = Arc::new(SimWiring {
                name: m.name.clone(),
                device: device.clone(),
                bindings,
                nexts,
            });
            let factory = modules.factory(&m.include)?;
            let instance = modules.instantiate(&m.include)?;
            index.insert(m.name.clone(), sim_modules.len());
            let speed = plan
                .device(&device)
                .map(|d| d.speed_factor)
                .unwrap_or(1.0)
                .max(1e-6);
            sim_modules.push(SimModule {
                include: m.include.clone(),
                device_speed: speed,
                resident_modules: 0, // filled below
                wiring,
                instance: Some(instance),
                factory,
                busy_until: SimTime::ZERO,
                is_source: sources.iter().any(|s| s.name == m.name),
            });
        }
        for sm in &mut sim_modules {
            sm.resident_modules = *self.resident_count.get(&sm.wiring.device).unwrap_or(&1);
        }

        // Run init() for every module (free of charge on the clock).
        for sm in &mut sim_modules {
            let mut ctx = SimCtx {
                wiring: Arc::clone(&sm.wiring),
                services: Arc::clone(&services),
                store: Arc::clone(&self.store),
                profile: Arc::clone(&self.profile),
                header: Header::default(),
                now_ns: 0,
                calls: Vec::new(),
                outputs: Vec::new(),
                signalled: false,
                logs: Vec::new(),
                crashed: Vec::new(),
                quality_shift: None,
            };
            if let Some(instance) = sm.instance.as_mut() {
                instance.init(&mut ctx)?;
            }
            self.logs.append(&mut ctx.logs);
        }

        let p = self.pipelines.len();
        self.pipelines.push(SimPipeline {
            name: plan.pipeline.name.clone(),
            modules: sim_modules,
            index,
            services,
            source_device,
            controller: CreditController::new(credits),
            camera_ready: false,
            interval: Duration::from_secs_f64(1.0 / fps),
            metrics: PipelineMetrics::new(),
            admitted: 0,
            next_seq: 0,
            plan: plan.clone(),
            epoch: 0,
            checkpoints: HashMap::new(),
            dedup: VecDeque::new(),
            dedup_set: HashSet::new(),
            knobs: KnobSettings::baseline(),
            cam_ticks: 0,
            load: None,
        });
        self.engine.schedule(SimTime::ZERO, Ev::CameraReady { p });
        Ok(PipelineHandle(p))
    }

    /// Enables the per-pipeline SLO feedback controller: every
    /// `cfg.interval` of virtual time each pipeline's controller diffs the
    /// cumulative end-to-end histogram, judges the window against the SLO
    /// with hysteresis and dwell, and actuates the degradation lattice —
    /// sampling/shedding thins camera admission, the quality knob shrinks
    /// cross-device wire bytes. Tick traces land in
    /// [`ScenarioReport::slo_ticks`], summaries in [`ScenarioReport::slo`].
    ///
    /// # Panics
    ///
    /// Panics when `cfg` fails [`SloConfig::validate`].
    pub fn enable_slo(&mut self, cfg: SloConfig) {
        self.install_slo(cfg, true);
    }

    /// Shadow mode: runs the same controllers and records the same tick
    /// traces as [`Scenario::enable_slo`] but never touches a knob. This is
    /// the "static configuration" arm of the SLO experiment: it measures
    /// the windowed tail the controller would have seen, without reacting.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` fails [`SloConfig::validate`].
    pub fn observe_slo(&mut self, cfg: SloConfig) {
        self.install_slo(cfg, false);
    }

    fn install_slo(&mut self, cfg: SloConfig, actuate: bool) {
        if let Err(reason) = cfg.validate() {
            panic!("invalid SLO config: {reason}");
        }
        self.engine
            .schedule(SimTime::ZERO + cfg.interval, Ev::SloTick);
        self.slo = Some(SloSimState {
            cfg,
            actuate,
            controllers: HashMap::new(),
            ticks: Vec::new(),
        });
    }

    /// Installs a time-varying offered-load plan on pipeline `handle`.
    pub fn set_load(&mut self, handle: PipelineHandle, plan: LoadPlan) {
        self.pipelines[handle.0].load = Some(plan);
    }

    /// The camera interval of pipeline `p` at `now`, per its load plan.
    fn effective_interval(&self, p: usize, now: SimTime) -> Duration {
        let pl = &self.pipelines[p];
        match &pl.load {
            Some(plan) => pl.interval.div_f64(plan.multiplier_at(now - SimTime::ZERO)),
            None => pl.interval,
        }
    }

    /// Enables a simple reactive autoscaler for `service`: every
    /// `interval`, any pool of that service whose mean queueing wait since
    /// the last check exceeds `target_wait` gains one instance (up to
    /// `max_instances`). This is the paper's §7 future-work behaviour.
    pub fn enable_autoscaler(
        &mut self,
        service: &str,
        target_wait: Duration,
        interval: Duration,
        max_instances: usize,
    ) {
        self.engine.schedule(
            SimTime::ZERO + interval,
            Ev::AutoscaleCheck {
                service: service.to_string(),
                target_wait,
                interval,
                max_instances,
            },
        );
    }

    fn jitter(&mut self) -> f64 {
        let j = self.profile.jitter_frac;
        if j > 0.0 {
            1.0 + self.rng.gen_range(-j..j)
        } else {
            1.0
        }
    }

    fn link_transfer(&mut self, from: &str, to: &str, bytes: usize, now: SimTime) -> SimTime {
        let profile = Arc::clone(&self.profile);
        // Fault plan: a partitioned link holds the transfer until the heal
        // time; an active latency spike stretches propagation.
        let (earliest, extra) = match &self.faults {
            Some(plan) => (
                plan.partition_until(from, to, now).unwrap_or(now),
                plan.extra_latency(now),
            ),
            None => (now, Duration::ZERO),
        };
        let link = self
            .links
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| {
                LinkModel::new(
                    profile.link_latency,
                    profile.link_bandwidth_bps,
                    profile.jitter_frac,
                )
            });
        link.transfer_at(earliest, bytes, &mut self.rng, extra)
    }

    fn try_admit(&mut self, p: usize, now: SimTime) {
        let profile = Arc::clone(&self.profile);
        let interval = self.effective_interval(p, now);
        let pipeline = &mut self.pipelines[p];
        if !pipeline.camera_ready {
            return;
        }
        let stride = pipeline.knobs.admit_stride();
        if stride > 1 {
            // SLO sampling/shedding: the sampler inspects the frame before
            // a credit is even requested — all but one admission
            // opportunity in `stride` drop at the source (the cheapest
            // place to drop) and recycle the camera.
            pipeline.cam_ticks += 1;
            if !pipeline.cam_ticks.is_multiple_of(stride) {
                pipeline.camera_ready = false;
                let ready_at = now + interval + profile.camera_recovery;
                self.engine.schedule(ready_at, Ev::CameraReady { p });
                return;
            }
        }
        if !pipeline.controller.try_admit() {
            return; // camera stays ready; frame will be stale-replaced
        }
        pipeline.camera_ready = false;
        pipeline.admitted += 1;
        let epoch = pipeline.epoch;
        let seq = pipeline.next_seq;
        pipeline.next_seq += 1;
        let header = Header {
            frame_seq: seq,
            capture_ts_ns: now.as_ns(),
        };
        // Camera becomes ready again one interval + recovery later.
        let ready_at = now + interval + profile.camera_recovery;
        let sources: Vec<usize> = pipeline
            .modules
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_source)
            .map(|(i, _)| i)
            .collect();
        self.engine.schedule(ready_at, Ev::CameraReady { p });
        for m in sources {
            self.engine.schedule(
                now,
                Ev::Deliver {
                    p,
                    m,
                    event_header: header,
                    payload: None,
                    epoch,
                },
            );
        }
    }

    fn handle_deliver(
        &mut self,
        p: usize,
        m: usize,
        event_header: Header,
        payload: Option<Payload>,
        epoch: u64,
        now: SimTime,
    ) {
        // Fencing: a frame scheduled before a failover belongs to a dead
        // epoch; its credit was reclaimed when the epoch advanced.
        if epoch != self.pipelines[p].epoch {
            return;
        }
        // Gather what we need before borrowing the module mutably.
        let (wiring, services, include, speed, resident, busy_until) = {
            let sm = &self.pipelines[p].modules[m];
            (
                Arc::clone(&sm.wiring),
                Arc::clone(&self.pipelines[p].services),
                sm.include.clone(),
                sm.device_speed,
                sm.resident_modules,
                sm.busy_until,
            )
        };
        let crashed = self.crashed_devices(now);
        if crashed.iter().any(|d| d == &wiring.device) {
            // The hosting device is gone: the frame vanishes with it. The
            // credit stays in flight until failover fences the epoch —
            // with failover disabled the pipeline visibly stalls here.
            return;
        }
        let start = now.max(busy_until);

        let mut ctx = SimCtx {
            wiring: Arc::clone(&wiring),
            services,
            store: Arc::clone(&self.store),
            profile: Arc::clone(&self.profile),
            header: event_header,
            now_ns: start.as_ns(),
            calls: Vec::new(),
            outputs: Vec::new(),
            signalled: false,
            logs: Vec::new(),
            crashed,
            quality_shift: self.pipelines[p].knobs.quality_shift,
        };
        let event = match payload {
            None => Event::FrameTick {
                t_ns: event_header.capture_ts_ns,
            },
            Some(payload) => Event::Message(Message::new(event_header, payload)),
        };

        let mut instance = self.pipelines[p].modules[m]
            .instance
            .take()
            .expect("module instance present");
        let result = instance.on_event(event, &mut ctx);
        self.pipelines[p].modules[m].instance = Some(instance);
        self.logs.append(&mut ctx.logs);

        // --- Timing replay.
        let base = self.profile.module_cost(&include)
            + self.profile.dispatch_overhead_per_module * resident as u32;
        let jf = self.jitter();
        let mut cursor = start + base.div_f64(speed).mul_f64(jf);

        for call in &ctx.calls {
            if call.remote {
                cursor = self.link_transfer(&wiring.device, &call.device, call.req_bytes, cursor);
            } else {
                cursor += self.profile.ipc;
            }
            let host_speed = self
                .device_speed
                .get(&call.device)
                .copied()
                .unwrap_or(1.0)
                .max(1e-6);
            let jf = self.jitter();
            let compute = call.compute.div_f64(host_speed).mul_f64(jf);
            let pool = self
                .pools
                .get_mut(&(call.device.clone(), call.service.clone()))
                .expect("pool exists for binding");
            cursor = pool.book(cursor, compute);
            if call.remote {
                cursor = self.link_transfer(&call.device, &wiring.device, call.resp_bytes, cursor);
            } else {
                cursor += self.profile.ipc;
            }
        }

        self.pipelines[p].modules[m].busy_until = cursor;
        self.pipelines[p]
            .metrics
            .record_stage(&wiring.name, (cursor - start).as_nanos() as u64);

        if let Err(e) = result {
            self.errors
                .push(format!("{}/{}: {e}", self.pipelines[p].name, wiring.name));
            // Return the frame's credit so the pipeline keeps flowing; the
            // frame died, so it is not a delivery.
            self.engine.schedule(
                cursor,
                Ev::Signal {
                    p,
                    header: event_header,
                    delivered: false,
                    epoch,
                },
            );
            return;
        }

        // Outputs.
        for out in ctx.outputs {
            let Some(&tm) = self.pipelines[p].index.get(&out.target) else {
                self.errors.push(format!(
                    "{}/{}: unknown target {}",
                    self.pipelines[p].name, wiring.name, out.target
                ));
                continue;
            };
            let to_device = self.pipelines[p].modules[tm].wiring.device.clone();
            let arrival = if out.cross {
                self.link_transfer(&wiring.device, &to_device, out.bytes, cursor)
            } else {
                cursor + self.profile.ipc
            };
            self.engine.schedule(
                arrival,
                Ev::Deliver {
                    p,
                    m: tm,
                    event_header: out.header,
                    payload: Some(out.payload),
                    epoch,
                },
            );
        }

        // Completion signal.
        if ctx.signalled {
            let src_device = self.pipelines[p].source_device.clone();
            let arrival = if src_device != wiring.device {
                self.link_transfer(&wiring.device, &src_device, 64, cursor)
            } else {
                cursor + self.profile.ipc
            };
            self.engine.schedule(
                arrival,
                Ev::Signal {
                    p,
                    header: ctx.header,
                    delivered: true,
                    epoch,
                },
            );
        }
    }

    /// Heartbeat sweep on the virtual clock: every surviving device renews
    /// its lease; crashed devices go silent and eventually cross the
    /// confirmation threshold, which triggers failover.
    fn handle_health_check(&mut self, now: SimTime) {
        let crashed = self.crashed_devices(now);
        let newly_dead = {
            let Some(state) = &mut self.failover else {
                return;
            };
            let now_ns = now.as_ns();
            let devices: Vec<String> = self.device_speed.keys().cloned().collect();
            for device in &devices {
                state.detector.expect(device, now_ns);
                if !crashed.iter().any(|d| d == device) {
                    state.detector.record_heartbeat(device, now_ns);
                }
            }
            let dead = state.detector.dead_devices(now_ns);
            let newly: Vec<String> = dead
                .into_iter()
                .filter(|d| state.confirmed.insert(d.clone()))
                .collect();
            self.engine
                .schedule(now + state.cfg.health.heartbeat_interval, Ev::HealthCheck);
            newly
        };
        for device in newly_dead {
            self.fail_over(&device, now);
        }
    }

    /// Reacts to one confirmed device loss: for every pipeline touching the
    /// device, fence the epoch, reclaim in-flight credits, replan over the
    /// survivors, respawn orphans from checkpoints and resume admission.
    fn fail_over(&mut self, device: &str, now: SimTime) {
        let (cost_params, pins) = {
            let state = self.failover.as_ref().expect("failover enabled");
            (state.cfg.cost_params.clone(), state.cfg.pins.clone())
        };
        let crashed_at = self
            .faults
            .as_ref()
            .and_then(|f| f.crash_time(device))
            .map(|t| t - SimTime::ZERO)
            .unwrap_or(now - SimTime::ZERO);

        for p in 0..self.pipelines.len() {
            let uses = {
                let pl = &self.pipelines[p];
                pl.modules.iter().any(|sm| sm.wiring.device == device)
                    || pl.plan.service_bindings.iter().any(|b| b.device == device)
            };
            if !uses {
                continue;
            }

            // 1. Fence the epoch: frames of the old epoch are dead on
            //    arrival from here on.
            self.pipelines[p].epoch += 1;
            let epoch = self.pipelines[p].epoch;
            let name = self.pipelines[p].name.clone();
            self.logs.push(format!(
                "failover: device {device:?} confirmed dead; pipeline {name:?} fencing epoch {epoch}"
            ));

            // 2. Reclaim credits held by frames that died with the device.
            let stuck = self.pipelines[p].controller.in_flight();
            for _ in 0..stuck {
                self.pipelines[p].controller.fault();
            }
            if stuck > 0 {
                self.logs
                    .push(format!("failover: reclaimed {stuck} in-flight credit(s)"));
            }

            // 3. Replan around the loss and respawn orphaned modules.
            let replanned = match replan_after_device_loss(
                &self.pipelines[p].plan,
                device,
                &cost_params,
                &pins,
            ) {
                Ok(new_plan) => {
                    self.apply_replan(p, new_plan, now);
                    true
                }
                Err(e) => {
                    self.errors.push(format!("{name}/failover: {e}"));
                    false
                }
            };

            if let Some(state) = &mut self.failover {
                state.events.push(FailoverEvent {
                    device: device.to_string(),
                    pipeline: name,
                    crashed_at,
                    detected_at: now - SimTime::ZERO,
                    replanned_at: now - SimTime::ZERO,
                    first_delivery_at: None,
                });
            }

            // 4. Resume admission (the reclaimed credits allow it again).
            if replanned {
                self.try_admit(p, now);
            }
        }
    }

    /// Installs `new_plan` on pipeline `p`: rebuilds every module's wiring
    /// (service hosts may have moved even for survivors) and re-instantiates
    /// modules whose device changed, restoring their last checkpoint.
    fn apply_replan(&mut self, p: usize, new_plan: DeploymentPlan, now: SimTime) {
        // Pools for any binding the new plan introduced.
        for b in &new_plan.service_bindings {
            let key = (b.device.clone(), b.service.clone());
            let instances = self.profile.instances_for(&b.service);
            self.pools
                .entry(key)
                .or_insert_with(|| ServicePool::new(&b.device, &b.service, instances));
        }

        let module_count = self.pipelines[p].modules.len();
        for m in 0..module_count {
            let (name, old_device) = {
                let sm = &self.pipelines[p].modules[m];
                (sm.wiring.name.clone(), sm.wiring.device.clone())
            };
            let new_device = new_plan
                .placement
                .device_for(&name)
                .unwrap_or(&old_device)
                .to_string();
            let mut bindings = HashMap::new();
            for b in new_plan
                .service_bindings
                .iter()
                .filter(|b| b.module == name)
            {
                bindings.insert(b.service.clone(), (b.device.clone(), b.remote));
            }
            let mut nexts = HashMap::new();
            for e in new_plan.edges.iter().filter(|e| e.from == name) {
                nexts.insert(e.to.clone(), (e.to_device.clone(), e.cross_device));
            }
            let wiring = Arc::new(SimWiring {
                name: name.clone(),
                device: new_device.clone(),
                bindings,
                nexts,
            });
            let speed = new_plan
                .device(&new_device)
                .map(|d| d.speed_factor)
                .unwrap_or(1.0)
                .max(1e-6);

            let moved = new_device != old_device;
            if moved {
                *self.resident_count.entry(old_device.clone()).or_insert(1) -= 1;
                *self.resident_count.entry(new_device.clone()).or_insert(0) += 1;
                self.logs.push(format!(
                    "failover: module {name:?} moved {old_device:?} -> {new_device:?}"
                ));
                // The old instance died with its device; rebuild and
                // restore from the last checkpoint, if one exists.
                let mut instance = (self.pipelines[p].modules[m].factory)();
                let mut ctx = SimCtx {
                    wiring: Arc::clone(&wiring),
                    services: Arc::clone(&self.pipelines[p].services),
                    store: Arc::clone(&self.store),
                    profile: Arc::clone(&self.profile),
                    header: Header::default(),
                    now_ns: now.as_ns(),
                    calls: Vec::new(),
                    outputs: Vec::new(),
                    signalled: false,
                    logs: Vec::new(),
                    crashed: self.crashed_devices(now),
                    quality_shift: self.pipelines[p].knobs.quality_shift,
                };
                if let Err(e) = instance.init(&mut ctx) {
                    self.errors
                        .push(format!("{}/{name}: {e}", self.pipelines[p].name));
                }
                self.logs.append(&mut ctx.logs);
                if let Some(snap) = self.pipelines[p].checkpoints.get(&name).cloned() {
                    instance.restore(&snap);
                    self.logs.push(format!(
                        "failover: module {name:?} restored from checkpoint"
                    ));
                }
                let sm = &mut self.pipelines[p].modules[m];
                sm.instance = Some(instance);
                sm.busy_until = now;
            }

            let sm = &mut self.pipelines[p].modules[m];
            sm.wiring = wiring;
            sm.device_speed = speed;
        }

        for m in 0..module_count {
            let device = self.pipelines[p].modules[m].wiring.device.clone();
            self.pipelines[p].modules[m].resident_modules =
                *self.resident_count.get(&device).unwrap_or(&1);
        }

        let sources = new_plan.pipeline.sources();
        if let Some(device) = new_plan.placement.device_for(&sources[0].name) {
            self.pipelines[p].source_device = device.to_string();
        }
        self.pipelines[p].plan = new_plan;
    }

    /// Checkpoint sweep: every module on a surviving device is asked for a
    /// snapshot; stateless modules return `None` for free.
    fn handle_checkpoint(&mut self, now: SimTime) {
        let Some(state) = &self.failover else {
            return;
        };
        let period = state.cfg.checkpoint_period;
        let crashed = self.crashed_devices(now);
        for pl in &mut self.pipelines {
            let snaps: Vec<(String, Vec<u8>)> = pl
                .modules
                .iter()
                // A dead device cannot checkpoint.
                .filter(|sm| !crashed.iter().any(|d| d == &sm.wiring.device))
                .filter_map(|sm| {
                    sm.instance
                        .as_ref()
                        .and_then(|i| i.snapshot())
                        .map(|snap| (sm.wiring.name.clone(), snap))
                })
                .collect();
            for (name, snap) in snaps {
                pl.checkpoints.insert(name, snap);
            }
        }
        self.engine.schedule(now + period, Ev::CheckpointTick);
    }

    fn handle_autoscale(
        &mut self,
        service: String,
        target_wait: Duration,
        interval: Duration,
        max_instances: usize,
        now: SimTime,
    ) {
        let keys: Vec<(String, String)> = self
            .pools
            .keys()
            .filter(|(_, s)| s == &service)
            .cloned()
            .collect();
        for key in keys {
            let pool = self.pools.get_mut(&key).expect("pool exists");
            let stats = pool.stats();
            let prev = self
                .autoscale_snapshots
                .insert(key.clone(), stats)
                .unwrap_or_default();
            let requests = stats.requests - prev.requests;
            if requests == 0 {
                continue;
            }
            let wait = (stats.total_wait - prev.total_wait) / requests as u32;
            if wait > target_wait && pool.instances() < max_instances {
                pool.grow(1, now);
                self.logs.push(format!(
                    "autoscaler: {}/{} scaled to {} instances (mean wait {:.1}ms)",
                    key.0,
                    key.1,
                    pool.instances(),
                    wait.as_secs_f64() * 1e3
                ));
            }
        }
        self.engine.schedule(
            now + interval,
            Ev::AutoscaleCheck {
                service,
                target_wait,
                interval,
                max_instances,
            },
        );
    }

    /// One SLO control tick: every pipeline's controller observes its
    /// cumulative end-to-end histogram (plus in-flight credits as the
    /// queue-pressure signal) and, in actuating mode, applies the resulting
    /// knob settings.
    fn handle_slo_tick(&mut self, now: SimTime) {
        let Some(mut state) = self.slo.take() else {
            return;
        };
        for p in 0..self.pipelines.len() {
            let ctrl = state
                .controllers
                .entry(p)
                .or_insert_with(|| SloController::new(state.cfg.clone()));
            let hist = self.pipelines[p].metrics.end_to_end.clone();
            let queue = u64::from(self.pipelines[p].controller.in_flight());
            let action = ctrl.observe(now.as_ns(), &hist, queue);
            let stepped = !matches!(action, SloAction::Hold);
            let name = self.pipelines[p].name.clone();
            if stepped && state.actuate {
                self.pipelines[p].knobs = ctrl.settings();
                let dir = match action {
                    SloAction::StepDown { .. } => "down",
                    _ => "up",
                };
                self.logs.push(format!(
                    "slo: {name:?} step {dir} to level {} (window p99 {:.1} ms vs target {:.1} ms)",
                    ctrl.level(),
                    ctrl.last_window_p99_ns() as f64 / 1e6,
                    ctrl.config().slo.p99.as_secs_f64() * 1e3,
                ));
            }
            state.ticks.push(SloTickRecord {
                at: now - SimTime::ZERO,
                pipeline: name,
                window_p99_ms: ctrl.last_window_p99_ns() as f64 / 1e6,
                window_count: ctrl.last_window_count(),
                level: ctrl.level(),
                stepped,
            });
        }
        self.engine.schedule(now + state.cfg.interval, Ev::SloTick);
        self.slo = Some(state);
    }

    /// Runs the scenario for `duration` of virtual time and reports.
    pub fn run(mut self, duration: Duration) -> ScenarioReport {
        let deadline = SimTime::ZERO + duration;
        while let Some((now, ev)) = self.engine.pop_until(deadline) {
            match ev {
                Ev::CameraReady { p } => {
                    self.pipelines[p].camera_ready = true;
                    self.try_admit(p, now);
                }
                Ev::Deliver {
                    p,
                    m,
                    event_header,
                    payload,
                    epoch,
                } => self.handle_deliver(p, m, event_header, payload, epoch, now),
                Ev::Signal {
                    p,
                    header,
                    delivered,
                    epoch,
                } => {
                    if epoch != self.pipelines[p].epoch {
                        // Fenced: the frame belongs to a dead epoch and its
                        // credit was already reclaimed at fence time, so
                        // neither complete nor fault — just ignore it.
                    } else if delivered {
                        let dedup_window = self
                            .failover
                            .as_ref()
                            .map_or(0, |state| state.cfg.dedup_window);
                        let pl = &mut self.pipelines[p];
                        if dedup_window > 0 && pl.dedup_set.contains(&header.frame_seq) {
                            // Redelivered frame: at-least-once upstream,
                            // exactly-once at the sink.
                        } else {
                            if dedup_window > 0 {
                                pl.dedup.push_back(header.frame_seq);
                                pl.dedup_set.insert(header.frame_seq);
                                while pl.dedup.len() > dedup_window {
                                    if let Some(old) = pl.dedup.pop_front() {
                                        pl.dedup_set.remove(&old);
                                    }
                                }
                            }
                            pl.controller.complete();
                            let latency = now.as_ns().saturating_sub(header.capture_ts_ns);
                            pl.metrics.record_delivery(now.as_ns(), latency);
                            let name = pl.name.clone();
                            if let Some(state) = &mut self.failover {
                                // First delivery of the new epoch closes the
                                // pipeline's open recovery timeline(s).
                                for ev in &mut state.events {
                                    if ev.pipeline == name && ev.first_delivery_at.is_none() {
                                        ev.first_delivery_at = Some(now - SimTime::ZERO);
                                    }
                                }
                            }
                        }
                    } else {
                        // Error-path credit return (§2.3): the frame died,
                        // so reclaim its credit without counting a delivery.
                        self.pipelines[p].controller.fault();
                    }
                    self.try_admit(p, now);
                }
                Ev::AutoscaleCheck {
                    service,
                    target_wait,
                    interval,
                    max_instances,
                } => self.handle_autoscale(service, target_wait, interval, max_instances, now),
                Ev::HealthCheck => self.handle_health_check(now),
                Ev::CheckpointTick => self.handle_checkpoint(now),
                Ev::SloTick => self.handle_slo_tick(now),
            }
        }

        let mut pipelines = Vec::new();
        for pl in &mut self.pipelines {
            let offered = match &pl.load {
                Some(plan) => plan.expected_frames(pl.interval, duration),
                None => (duration.as_nanos() / pl.interval.as_nanos()).max(1) as u64,
            };
            pl.metrics.frames_offered = offered;
            pl.metrics.frames_dropped = offered.saturating_sub(pl.admitted);
            pl.metrics.run_duration_ns = duration.as_nanos() as u64;
            // Credit accounting, so chaos runs can assert nothing leaked.
            pl.metrics.frames_admitted = pl.controller.admitted();
            pl.metrics.frames_faulted = pl.controller.faulted();
            pl.metrics.in_flight_at_end = pl.controller.in_flight();
            pipelines.push((pl.name.clone(), pl.metrics.clone()));
        }
        let mut pools: Vec<PoolReport> = self
            .pools
            .iter()
            .map(|((device, service), pool)| PoolReport {
                device: device.clone(),
                service: service.clone(),
                instances: pool.instances(),
                stats: pool.stats(),
            })
            .collect();
        pools.sort_by(|a, b| (&a.device, &a.service).cmp(&(&b.device, &b.service)));
        let mut links: Vec<LinkReport> = self
            .links
            .iter()
            .map(|((from, to), link)| LinkReport {
                from: from.clone(),
                to: to.clone(),
                stats: link.stats(),
            })
            .collect();
        links.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));

        let (slo_ticks, slo) = match self.slo {
            Some(state) => {
                let summaries = (0..self.pipelines.len())
                    .map(|p| {
                        let name = self.pipelines[p].name.clone();
                        match state.controllers.get(&p) {
                            Some(c) => SloSummary {
                                pipeline: name,
                                level: c.level(),
                                moves: c.moves(),
                                flaps: c.flaps(),
                            },
                            None => SloSummary {
                                pipeline: name,
                                level: 0,
                                moves: 0,
                                flaps: 0,
                            },
                        }
                    })
                    .collect();
                (state.ticks, summaries)
            }
            None => (Vec::new(), Vec::new()),
        };

        ScenarioReport {
            pipelines,
            pools,
            links,
            errors: self.errors,
            logs: self.logs,
            failovers: self.failover.map(|state| state.events).unwrap_or_default(),
            slo_ticks,
            slo,
            duration,
        }
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("pipelines", &self.pipelines.len())
            .field("pools", &self.pools.len())
            .field("engine", &self.engine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use videopipe_core::deploy::{plan, DeviceSpec, Placement};
    use videopipe_core::service::{Service, ServiceCost};
    use videopipe_core::spec::{ModuleSpec, PipelineSpec};
    use videopipe_media::{Frame, FrameBuf};

    /// Source that mints a tiny frame per tick.
    struct Src;
    impl Module for Src {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::FrameTick { t_ns } = event {
                let frame: Frame = FrameBuf::new(8, 8).freeze(ctx.header().frame_seq, t_ns);
                let id = ctx.frame_store().insert(frame);
                ctx.call_module("work", Payload::FrameRef(id))?;
            }
            Ok(())
        }
    }

    /// Worker calling a slow service, then forwarding.
    struct Work;
    impl Module for Work {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                let resp =
                    ctx.call_service("slow", ServiceRequest::new("go", msg.payload.clone()))?;
                if let Payload::FrameRef(id) = msg.payload {
                    ctx.frame_store().release(id);
                }
                ctx.call_module("sink", resp.payload)?;
            }
            Ok(())
        }
    }

    /// Sink signalling the source.
    struct Sink;
    impl Module for Sink {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(_) = event {
                ctx.signal_source()?;
            }
            Ok(())
        }
    }

    /// A 40 ms (reference) service.
    struct Slow;
    impl Service for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn handle(
            &self,
            _request: &ServiceRequest,
            _store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            Ok(ServiceResponse::new(Payload::Count(1)))
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(40))
        }
    }

    fn spec() -> PipelineSpec {
        PipelineSpec::new("p")
            .with_module(ModuleSpec::new("src", "Src").with_next("work"))
            .with_module(
                ModuleSpec::new("work", "Work")
                    .with_service("slow")
                    .with_next("sink"),
            )
            .with_module(ModuleSpec::new("sink", "Sink"))
    }

    fn registries() -> (ModuleRegistry, ServiceRegistry) {
        let mut modules = ModuleRegistry::new();
        modules.register("Src", || Box::new(Src));
        modules.register("Work", || Box::new(Work));
        modules.register("Sink", || Box::new(Sink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Slow));
        (modules, services)
    }

    fn one_device_plan() -> DeploymentPlan {
        let devices = vec![DeviceSpec::new("dev", 1.0)
            .with_containers(1)
            .with_service("slow")];
        let placement = Placement::new()
            .assign("src", "dev")
            .assign("work", "dev")
            .assign("sink", "dev");
        plan(&spec(), &devices, &placement).unwrap()
    }

    fn profile() -> SimProfile {
        let mut p = SimProfile::deterministic();
        p.module_cost
            .insert("Src".into(), Duration::from_millis(10));
        p.camera_recovery = Duration::from_millis(10);
        p.service_cost.clear(); // use Service::cost (40 ms)
        p
    }

    #[test]
    fn single_pipeline_latency_and_fps() {
        let (modules, services) = registries();
        let mut scenario = Scenario::new(profile());
        let h = scenario
            .add_pipeline(&one_device_plan(), &modules, &services, 10.0, 1)
            .unwrap();
        let report = scenario.run(Duration::from_secs(10));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let m = report.metrics(h);
        // Latency ≈ src 10 + default modules 1+1 + 2·ipc + 40 service ≈ 52ms.
        let mean = m.end_to_end.mean_ms();
        assert!((45.0..60.0).contains(&mean), "mean {mean}ms");
        // Cycle = max(100ms + 10ms recovery, latency) = 110ms → ~9.1 fps.
        let fps = m.fps();
        assert!((8.5..9.5).contains(&fps), "fps {fps}");
        assert!(m.frames_delivered > 80);
        // Stage metrics exist.
        assert!(m.stages.contains_key("src"));
        assert!(m.stages.contains_key("work"));
    }

    #[test]
    fn fps_caps_at_pipeline_latency() {
        let (modules, services) = registries();
        let mut scenario = Scenario::new(profile());
        let h = scenario
            .add_pipeline(&one_device_plan(), &modules, &services, 100.0, 1)
            .unwrap();
        let report = scenario.run(Duration::from_secs(10));
        let m = report.metrics(h);
        // Latency ~52ms > interval+recovery 20ms → fps ≈ 1000/52 ≈ 19.
        let fps = m.fps();
        assert!((17.0..21.0).contains(&fps), "fps {fps}");
        assert!(m.frames_dropped > 0, "camera should outpace the pipeline");
    }

    #[test]
    fn two_pipelines_share_a_pool() {
        let (modules, services) = registries();
        let mut scenario = Scenario::new(profile());
        let plan = one_device_plan();
        let h1 = scenario
            .add_pipeline(&plan, &modules, &services, 100.0, 1)
            .unwrap();
        let (modules2, services2) = registries();
        let h2 = scenario
            .add_pipeline(&plan, &modules2, &services2, 100.0, 1)
            .unwrap();
        let report = scenario.run(Duration::from_secs(10));
        let f1 = report.metrics(h1).fps();
        let f2 = report.metrics(h2).fps();
        // Shared 40ms single-instance service: combined ≤ 25 fps.
        assert!(f1 + f2 < 26.5, "combined {}", f1 + f2);
        // Fair-ish split.
        assert!((f1 - f2).abs() < 3.0, "{f1} vs {f2}");
        // Pool saw contention.
        let pool = report.pool("dev", "slow").unwrap();
        assert!(pool.stats.waited > 0);
    }

    #[test]
    fn more_instances_restore_throughput() {
        let (modules, services) = registries();
        let mut scenario = Scenario::new(profile().with_service_instances("slow", 2));
        let plan = one_device_plan();
        let h1 = scenario
            .add_pipeline(&plan, &modules, &services, 100.0, 1)
            .unwrap();
        let (modules2, services2) = registries();
        let h2 = scenario
            .add_pipeline(&plan, &modules2, &services2, 100.0, 1)
            .unwrap();
        let report = scenario.run(Duration::from_secs(10));
        let f1 = report.metrics(h1).fps();
        let f2 = report.metrics(h2).fps();
        assert!(f1 + f2 > 30.0, "combined {}", f1 + f2);
    }

    #[test]
    fn cross_device_placement_adds_latency() {
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(1)
                .with_service("slow"),
        ];
        let colocated = Placement::new()
            .assign("src", "phone")
            .assign("work", "desktop")
            .assign("sink", "phone");
        let remote_calls = Placement::new()
            .assign("src", "phone")
            .assign("work", "phone")
            .assign("sink", "phone");
        let plan_a = plan(&spec(), &devices, &colocated).unwrap();
        let plan_b = plan(&spec(), &devices, &remote_calls).unwrap();

        let mut run = |p: &DeploymentPlan| {
            let (modules, services) = registries();
            let mut scenario = Scenario::new(profile());
            let h = scenario
                .add_pipeline(p, &modules, &services, 10.0, 1)
                .unwrap();
            let report = scenario.run(Duration::from_secs(10));
            report.metrics(h).end_to_end.mean_ms()
        };
        let _ = &mut run;
        let colocated_ms = run(&plan_a).max(0.0);
        let remote_ms = run(&plan_b).max(0.0);
        // Both cross the network, but plan_b pays the service round trip on
        // *every* call while plan_a ships the frame once per edge; with one
        // service call each they should be close, with remote ≥ colocated −
        // small. The decisive check is the general ordering used by the
        // paper's experiment, which the apps crate exercises end-to-end.
        assert!(remote_ms > 0.0 && colocated_ms > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let (modules, services) = registries();
            let mut scenario = Scenario::new(profile().with_seed(seed));
            let h = scenario
                .add_pipeline(&one_device_plan(), &modules, &services, 30.0, 1)
                .unwrap();
            let report = scenario.run(Duration::from_secs(5));
            (
                report.metrics(h).frames_delivered,
                report.metrics(h).end_to_end.mean_ns(),
            )
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn autoscaler_grows_saturated_pool() {
        // Two pipelines contend for the single-instance 40 ms service; the
        // autoscaler must react to the queueing wait.
        let mut scenario = Scenario::new(profile());
        let plan = one_device_plan();
        for _ in 0..2 {
            let (modules, services) = registries();
            scenario
                .add_pipeline(&plan, &modules, &services, 100.0, 1)
                .unwrap();
        }
        scenario.enable_autoscaler(
            "slow",
            Duration::from_millis(5),
            Duration::from_millis(500),
            3,
        );
        let report = scenario.run(Duration::from_secs(10));
        let pool = report.pool("dev", "slow").unwrap();
        assert!(
            pool.instances > 1,
            "autoscaler should have grown the pool: {:?}",
            report.logs
        );
    }

    #[test]
    fn credits_increase_throughput_under_saturation() {
        let fps_with_credits = |credits: u32| {
            let (modules, services) = registries();
            let mut scenario = Scenario::new(profile().with_service_instances("slow", 4));
            let h = scenario
                .add_pipeline(&one_device_plan(), &modules, &services, 100.0, credits)
                .unwrap();
            let report = scenario.run(Duration::from_secs(10));
            (
                report.metrics(h).fps(),
                report.metrics(h).end_to_end.mean_ms(),
            )
        };
        let (fps1, lat1) = fps_with_credits(1);
        let (fps4, lat4) = fps_with_credits(4);
        // With one credit the cycle is the full pipeline latency (~52 ms →
        // ~19 fps); with four credits the work module becomes the
        // bottleneck (~41 ms busy per frame → ~24 fps) while frames queue
        // in front of it, raising end-to-end latency.
        assert!(fps4 > fps1 * 1.15, "fps {fps1} -> {fps4}");
        assert!(
            lat4 > lat1,
            "latency should grow with queueing: {lat1} -> {lat4}"
        );
    }

    fn cross_device_plan() -> DeploymentPlan {
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(1)
                .with_service("slow"),
        ];
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("work", "desktop")
            .assign("sink", "phone");
        plan(&spec(), &devices, &placement).unwrap()
    }

    #[test]
    fn partitioned_link_delays_frames_until_heal() {
        use crate::faults::FaultPlan;
        let run = |faults: Option<FaultPlan>| {
            let (modules, services) = registries();
            let mut scenario = Scenario::new(profile());
            if let Some(plan) = faults {
                scenario.inject_faults(plan);
            }
            let h = scenario
                .add_pipeline(&cross_device_plan(), &modules, &services, 10.0, 1)
                .unwrap();
            let report = scenario.run(Duration::from_secs(5));
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            let m = report.metrics(h).clone();
            assert!(m.credits_balanced(), "{m:?}");
            m
        };
        let healthy = run(None);
        // Phone↔desktop cut for the first second; the in-flight frame is
        // held at the partition and flows once the link heals.
        let cut = run(Some(FaultPlan::new(1).with_partition(
            "phone",
            "desktop",
            Duration::ZERO,
            Duration::from_secs(1),
        )));
        assert!(cut.frames_delivered > 0, "pipeline never recovered");
        assert!(
            cut.frames_delivered < healthy.frames_delivered,
            "partition cost nothing: {} vs {}",
            cut.frames_delivered,
            healthy.frames_delivered
        );
        // The first frame's end-to-end latency includes the ~1s stall.
        assert!(
            cut.end_to_end.max_ns() >= 900_000_000,
            "max latency {}ns",
            cut.end_to_end.max_ns()
        );
    }

    #[test]
    fn seeded_service_failures_fault_credits_not_wedge() {
        use crate::faults::FaultPlan;
        let run = |seed: u64| {
            let (modules, services) = registries();
            let mut scenario = Scenario::new(profile());
            scenario.inject_faults(FaultPlan::new(seed).with_service_failure_probability(0.2));
            let h = scenario
                .add_pipeline(&one_device_plan(), &modules, &services, 30.0, 1)
                .unwrap();
            let report = scenario.run(Duration::from_secs(10));
            let m = report.metrics(h).clone();
            (m, report.errors.len())
        };
        let (m, errors) = run(42);
        assert!(errors > 0, "no injected failures observed");
        assert!(m.frames_faulted > 0, "failures must fault credits: {m:?}");
        assert!(m.frames_delivered > 0, "pipeline wedged: {m:?}");
        assert!(m.credits_balanced(), "{m:?}");
        // Seed-reproducible: identical counts on replay.
        let (m2, errors2) = run(42);
        assert_eq!(m.frames_delivered, m2.frames_delivered);
        assert_eq!(m.frames_faulted, m2.frames_faulted);
        assert_eq!(errors, errors2);
    }

    /// A stateful pass-through module: counts frames, checkpoints the
    /// count, and logs once when it resumes from a restored snapshot.
    struct Tally {
        count: u64,
        restored: Option<u64>,
    }
    impl Module for Tally {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                if let Some(from) = self.restored.take() {
                    ctx.log(&format!("resumed from {from}"));
                }
                self.count += 1;
                ctx.call_module("sink", msg.payload)?;
            }
            Ok(())
        }
        fn snapshot(&self) -> Option<Vec<u8>> {
            Some(self.count.to_be_bytes().to_vec())
        }
        fn restore(&mut self, snapshot: &[u8]) {
            if let Ok(bytes) = <[u8; 8]>::try_from(snapshot) {
                self.count = u64::from_be_bytes(bytes);
                self.restored = Some(self.count);
            }
        }
    }

    fn failover_fixture() -> (DeploymentPlan, ModuleRegistry, ServiceRegistry) {
        let spec = PipelineSpec::new("p")
            .with_module(ModuleSpec::new("src", "Src").with_next("work"))
            .with_module(ModuleSpec::new("work", "Tally").with_next("sink"))
            .with_module(ModuleSpec::new("sink", "Sink"));
        let devices = vec![DeviceSpec::new("edge", 1.0), DeviceSpec::new("mid", 1.0)];
        let placement = Placement::new()
            .assign("src", "edge")
            .assign("work", "mid")
            .assign("sink", "edge");
        let plan = plan(&spec, &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("Src", || Box::new(Src));
        modules.register("Tally", || {
            Box::new(Tally {
                count: 0,
                restored: None,
            })
        });
        modules.register("Sink", || Box::new(Sink));
        // Tally calls no services; Work is unused here.
        (plan, modules, ServiceRegistry::new())
    }

    #[test]
    fn device_crash_recovers_with_failover_and_stalls_without() {
        let run = |failover: bool| {
            let (plan, modules, services) = failover_fixture();
            let mut scenario = Scenario::new(profile());
            scenario
                .inject_faults(FaultPlan::new(9).with_device_crash("mid", Duration::from_secs(2)));
            if failover {
                scenario.enable_failover(FailoverConfig::default());
            }
            let h = scenario
                .add_pipeline(&plan, &modules, &services, 10.0, 1)
                .unwrap();
            let report = scenario.run(Duration::from_secs(6));
            let m = report.metrics(h).clone();
            (m, report)
        };

        let (stalled, _) = run(false);
        // The in-flight frame died with the device and its credit is stuck,
        // so admission freezes: nothing delivered past the crash.
        assert!(stalled.in_flight_at_end > 0, "{stalled:?}");
        assert!(
            stalled.frames_delivered <= 21,
            "stall expected: {} delivered",
            stalled.frames_delivered
        );

        let (healed, report) = run(true);
        assert!(healed.credits_balanced(), "{healed:?}");
        assert!(
            healed.frames_delivered > stalled.frames_delivered + 10,
            "failover gained nothing: {} vs {}",
            healed.frames_delivered,
            stalled.frames_delivered
        );
        assert_eq!(report.failovers.len(), 1, "{:?}", report.failovers);
        let ev = &report.failovers[0];
        assert_eq!(ev.device, "mid");
        assert_eq!(ev.crashed_at, Duration::from_secs(2));
        assert!(ev.detected_at >= ev.crashed_at);
        assert!(
            ev.detection_latency() < Duration::from_secs(1),
            "slow detection: {:?}",
            ev.detection_latency()
        );
        let mttr = ev.mttr().expect("pipeline recovered");
        assert!(mttr < Duration::from_secs(2), "mttr {mttr:?}");
        // The tally moved, restored its checkpoint, and resumed counting.
        assert!(report
            .logs
            .iter()
            .any(|l| l.contains("moved \"mid\" -> \"edge\"")));
        assert!(report
            .logs
            .iter()
            .any(|l| l.contains("restored from checkpoint")));
        assert!(
            report.logs.iter().any(|l| l.contains("resumed from")),
            "{:?}",
            report.logs
        );
    }

    #[test]
    fn failover_is_deterministic_given_seed() {
        let run = || {
            let (plan, modules, services) = failover_fixture();
            let mut scenario = Scenario::new(profile().with_seed(5));
            scenario
                .inject_faults(FaultPlan::new(5).with_device_crash("mid", Duration::from_secs(2)));
            scenario.enable_failover(FailoverConfig::default());
            let h = scenario
                .add_pipeline(&plan, &modules, &services, 10.0, 1)
                .unwrap();
            let report = scenario.run(Duration::from_secs(6));
            let m = report.metrics(h).clone();
            (
                m.frames_delivered,
                m.frames_faulted,
                report.failovers[0].mttr(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_spike_slows_deliveries_inside_its_window() {
        use crate::faults::FaultPlan;
        let run = |faults: Option<FaultPlan>| {
            let (modules, services) = registries();
            let mut scenario = Scenario::new(profile());
            if let Some(plan) = faults {
                scenario.inject_faults(plan);
            }
            let h = scenario
                .add_pipeline(&cross_device_plan(), &modules, &services, 10.0, 1)
                .unwrap();
            let report = scenario.run(Duration::from_secs(5));
            report.metrics(h).clone()
        };
        let healthy = run(None);
        let spiky = run(Some(FaultPlan::new(1).with_latency_spike(
            Duration::from_secs(1),
            Duration::from_secs(1),
            Duration::from_millis(200),
        )));
        assert!(spiky.credits_balanced(), "{spiky:?}");
        assert!(
            spiky.end_to_end.max_ns() > healthy.end_to_end.max_ns(),
            "spike did not stretch latency: {} vs {}",
            spiky.end_to_end.max_ns(),
            healthy.end_to_end.max_ns()
        );
        assert!(spiky.frames_delivered < healthy.frames_delivered);
    }

    #[test]
    fn load_plan_multipliers_and_expected_frames() {
        let plan = LoadPlan::diurnal(Duration::from_secs(60), 1.5).with_flash_crowd(
            Duration::from_secs(30),
            Duration::from_secs(5),
            4.0,
        );
        // Overnight lull, plateau, flash on top of the plateau, peak.
        assert!((plan.multiplier_at(Duration::from_secs(1)) - 0.4).abs() < 1e-9);
        assert!((plan.multiplier_at(Duration::from_secs(25)) - 1.0).abs() < 1e-9);
        assert!((plan.multiplier_at(Duration::from_secs(31)) - 4.0).abs() < 1e-9);
        assert!((plan.multiplier_at(Duration::from_secs(40)) - 1.5).abs() < 1e-9);
        assert!((plan.multiplier_at(Duration::from_secs(55)) - 0.6).abs() < 1e-9);
        // Integral at 10 fps over the compressed day:
        // 15s·0.4 + 9s·0.8 + 6s·1.0 + 5s·4.0 + 1s·1.0 + 12s·1.5 + 12s·0.6
        // = 65.4 "nominal seconds" → 654 frames.
        let frames = plan.expected_frames(Duration::from_millis(100), Duration::from_secs(60));
        assert!((650..=658).contains(&frames), "frames {frames}");
        // A flat plan matches the static formula.
        assert_eq!(
            LoadPlan::flat().expected_frames(Duration::from_millis(100), Duration::from_secs(60)),
            600
        );
    }

    /// The SLO config shared by the flash-crowd experiments: p99 ≤ 150 ms,
    /// judged every 500 ms with a 1 s dwell. `relax_headroom` 0.4 puts the
    /// relax threshold (60 ms) *below* the healthy latency reading
    /// (~52 ms falls in the 32.8–65.5 ms histogram bucket, reading 65.5 ms),
    /// so within a run the controller is deliberately sticky-down: it
    /// degrades under pressure and holds, rather than oscillating.
    fn slo_config_sticky() -> videopipe_core::slo::SloConfig {
        let mut cfg = SloConfig::p99(Duration::from_millis(150))
            .with_interval(Duration::from_millis(500))
            .with_dwell(Duration::from_secs(1))
            .with_lattice(vec![
                videopipe_core::slo::Knob::CodecQuality { shift: 6 },
                videopipe_core::slo::Knob::SampleRate { divisor: 2 },
                videopipe_core::slo::Knob::SampleRate { divisor: 4 },
                videopipe_core::slo::Knob::Shed { keep_one_in: 2 },
            ]);
        cfg.relax_headroom = 0.4;
        cfg.min_window = 2;
        cfg
    }

    /// Runs the acceptance scenario: one pipeline at 5 fps with 8 credits
    /// against the single-instance 40 ms service, hit by a 10× flash crowd
    /// from t=20 s to t=40 s of a 60 s run.
    fn flash_crowd_run(actuate: bool) -> ScenarioReport {
        let (modules, services) = registries();
        let mut scenario = Scenario::new(profile());
        let h = scenario
            .add_pipeline(&one_device_plan(), &modules, &services, 5.0, 8)
            .unwrap();
        scenario.set_load(
            h,
            LoadPlan::flat().with_flash_crowd(
                Duration::from_secs(20),
                Duration::from_secs(20),
                10.0,
            ),
        );
        if actuate {
            scenario.enable_slo(slo_config_sticky());
        } else {
            scenario.observe_slo(slo_config_sticky());
        }
        scenario.run(Duration::from_secs(60))
    }

    #[test]
    fn slo_controller_holds_p99_through_flash_crowd() {
        let report = flash_crowd_run(true);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let summary = &report.slo[0];
        // The controller engaged and walked down the lattice, without a
        // single direction reversal (sticky hysteresis ⇒ zero flaps).
        assert!(summary.level > 0, "controller never engaged: {summary:?}");
        assert_eq!(summary.flaps, 0, "{summary:?}");
        assert!(summary.moves <= 4, "{summary:?}");
        assert!(
            report.logs.iter().any(|l| l.contains("slo:")),
            "no slo log lines: {:?}",
            report.logs
        );
        // Steady state of the spike (controller has had ≥6 s to react):
        // every actionable window holds the 150 ms p99 SLO.
        let worst = report.max_window_p99_ms(Duration::from_secs(26), Duration::from_secs(40));
        assert!(
            worst > 0.0 && worst <= 150.0,
            "controller failed to hold p99 through the spike: worst window {worst} ms\nticks: {:?}",
            report.slo_ticks
        );
    }

    #[test]
    fn static_config_violates_p99_through_flash_crowd() {
        let report = flash_crowd_run(false);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        // Shadow mode: same controllers, no actuation — the windowed p99
        // blows through the SLO for the whole spike steady state...
        let spike_windows: Vec<&SloTickRecord> = report
            .slo_ticks
            .iter()
            .filter(|t| {
                t.at >= Duration::from_secs(26)
                    && t.at < Duration::from_secs(40)
                    && t.window_count > 0
            })
            .collect();
        assert!(!spike_windows.is_empty());
        for t in &spike_windows {
            assert!(
                t.window_p99_ms > 150.0,
                "static config unexpectedly met the SLO at {:?}: {t:?}",
                t.at
            );
        }
        // ...and the whole-run p99 violates the SLO too.
        let (_, m) = &report.pipelines[0];
        let p99_ms = m.end_to_end.quantile_ns(0.99) as f64 / 1e6;
        assert!(p99_ms > 150.0, "cumulative p99 {p99_ms} ms");
    }

    #[test]
    fn slo_controller_steps_back_up_when_headroom_returns() {
        // Generous relax headroom (threshold 90 ms > the healthy 65.5 ms
        // reading) so recovery steps the knob back out; the dwell bounds
        // the resulting move/flap rate.
        let dwell = Duration::from_secs(2);
        let mut cfg = SloConfig::p99(Duration::from_millis(150))
            .with_interval(Duration::from_secs(1))
            .with_dwell(dwell)
            .with_lattice(vec![videopipe_core::slo::Knob::SampleRate { divisor: 2 }]);
        cfg.relax_headroom = 0.6;
        cfg.min_window = 2;

        let (modules, services) = registries();
        let mut scenario = Scenario::new(profile());
        let h = scenario
            .add_pipeline(&one_device_plan(), &modules, &services, 5.0, 8)
            .unwrap();
        scenario.set_load(
            h,
            LoadPlan::flat().with_flash_crowd(
                Duration::from_secs(10),
                Duration::from_secs(10),
                10.0,
            ),
        );
        scenario.enable_slo(cfg);
        let duration = Duration::from_secs(44);
        let report = scenario.run(duration);
        assert!(report.errors.is_empty(), "{:?}", report.errors);

        let summary = &report.slo[0];
        assert!(summary.moves >= 2, "never actuated: {summary:?}");
        // Degraded during the spike...
        assert!(
            report.slo_ticks.iter().any(|t| t.level > 0),
            "{:?}",
            report.slo_ticks
        );
        // ...and back at baseline once headroom returned.
        assert_eq!(
            summary.level, 0,
            "knob never released: {summary:?}\nticks: {:?}",
            report.slo_ticks
        );
        // Flap rate is bounded by the dwell: at most one move (hence at
        // most one reversal) per dwell period.
        let max_moves = duration.as_secs() / dwell.as_secs();
        assert!(summary.flaps >= 1, "recovery must reverse direction");
        assert!(summary.flaps < max_moves, "{summary:?}");
    }

    #[test]
    fn diurnal_load_plan_modulates_offered_frames() {
        let (modules, services) = registries();
        let mut scenario = Scenario::new(profile().with_service_instances("slow", 4));
        let h = scenario
            .add_pipeline(&one_device_plan(), &modules, &services, 10.0, 2)
            .unwrap();
        let plan = LoadPlan::diurnal(Duration::from_secs(60), 1.5).with_flash_crowd(
            Duration::from_secs(30),
            Duration::from_secs(5),
            4.0,
        );
        let expected = plan.expected_frames(Duration::from_millis(100), Duration::from_secs(60));
        scenario.set_load(h, plan);
        let report = scenario.run(Duration::from_secs(60));
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let m = report.metrics(h);
        assert_eq!(m.frames_offered, expected);
        // The compressed day offers more than the flat plan would (the
        // flash crowd outweighs the lulls at these settings).
        assert!(m.frames_offered > 600, "offered {}", m.frames_offered);
        assert!(m.frames_delivered > 0);
        assert!(m.credits_balanced(), "{m:?}");
    }

    #[test]
    fn quality_knob_shrinks_cross_device_wire_bytes() {
        // Same cross-device plan, controller pinned fully degraded via a
        // quality-only lattice and a zero SLO that trips immediately: the
        // per-transfer wire bytes must shrink vs the baseline run.
        let run = |enable: bool| {
            let (modules, services) = registries();
            let mut scenario = Scenario::new(profile());
            let h = scenario
                .add_pipeline(&cross_device_plan(), &modules, &services, 10.0, 1)
                .unwrap();
            if enable {
                let mut cfg = SloConfig::p99(Duration::from_millis(1))
                    .with_interval(Duration::from_millis(200))
                    .with_dwell(Duration::from_millis(200))
                    .with_lattice(vec![videopipe_core::slo::Knob::CodecQuality { shift: 6 }]);
                cfg.min_window = 1;
                scenario.enable_slo(cfg);
            }
            let report = scenario.run(Duration::from_secs(5));
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            let sent: u64 = report
                .links
                .iter()
                .filter(|l| l.from == "phone" && l.to == "desktop")
                .map(|l| l.stats.bytes)
                .sum();
            let delivered = report.metrics(h).frames_delivered;
            (sent, delivered)
        };
        let (base_bytes, base_frames) = run(false);
        let (degraded_bytes, degraded_frames) = run(true);
        assert!(base_frames > 0 && degraded_frames > 0);
        let base_per_frame = base_bytes as f64 / base_frames as f64;
        let degraded_per_frame = degraded_bytes as f64 / degraded_frames as f64;
        // shift 6 keeps 2 of 8 bits against the quality-2 baseline's 6:
        // ≈ 1/3 of the wire bytes, plus fixed headers.
        assert!(
            degraded_per_frame < base_per_frame * 0.6,
            "quality knob did not shrink transfers: {degraded_per_frame} vs {base_per_frame}"
        );
    }
}
