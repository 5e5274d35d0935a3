//! The four workloads: what is deployed, how it is loaded, and what a
//! correct output looks like.
//!
//! The load generator is kept apart from the system under test. Camera
//! frames are rendered once, before set-up, from the seed; at run time the
//! source module only hands out the next one. The runtime's own pacer tasks
//! are the cameras: open loop, a tick with no free credit is refused at the
//! source (the paper's §2.3 no-queue design).

use crate::budget::Topology;
use crate::trace::{self, name_id, Collector, Probe, Probed, TracedService};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};
use videopipe_apps::fitness;
use videopipe_core::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
use videopipe_core::flow::SourcePacer;
use videopipe_core::message::Payload;
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleRegistry};
use videopipe_core::reactor::{ReactorConfig, ReactorRuntime};
use videopipe_core::runtime::{EdgeTransport, RuntimeConfig};
use videopipe_core::service::{
    Service, ServiceCost, ServiceRegistry, ServiceRequest, ServiceResponse,
};
use videopipe_core::spec::{ModuleSpec, PipelineSpec};
use videopipe_core::PipelineError;
use videopipe_media::motion::{ExerciseKind, MotionClip};
use videopipe_media::{Frame, FrameStore, SyntheticVideoSource};

/// Reactor workers. Fixed, not sized to the machine, so that runs on
/// different hosts execute the same schedule shape.
pub const WORKERS: usize = 2;

/// Frames in the replay ring: one 2 s squat as the app's own 15 fps camera
/// films it. The app counts in frames — a 15-pose classifier window, a
/// 30-frame rep-counter calibration — so one ring frame per admitted tick
/// keeps it in the regime it was trained for at any tick rate, and makes
/// what the display shows a function of how many frames were delivered,
/// not of when.
pub const RING_FRAMES: usize = 30;
const RING_INTERVAL_NS: u64 = 2_000_000_000 / RING_FRAMES as u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// The paper's fitness app, Fig. 4 placement: phone → desktop → tv.
    Fitness,
    /// The same app, Fig. 5 placement: every module on the phone, every
    /// service remote on the desktop.
    FitnessBaseline,
    /// `src → work(+service "double") → sink` on one device, 8-byte
    /// payload.
    Relay,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub app: App,
    pub transport: EdgeTransport,
    pub tenants: usize,
    /// Ticks per second each tenant's camera offers.
    pub fps: f64,
    /// A traced run decorates one tenant in this many. Spans of 25 k
    /// frames/s from every tenant would not fit in memory; the other
    /// tenants still run, untraced.
    pub trace_every: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fitness_paced",
        why: "Paper Fig. 6: one fitness pipeline at 60 fps over TCP, a rate it keeps up with; queues are empty, so net.tcp, media.codec and reactor wake latency set the frame time.",
        app: App::Fitness,
        transport: EdgeTransport::Tcp,
        tenants: 1,
        fps: 60.0,
        trace_every: 1,
    },
    Workload {
        name: "fitness_saturated",
        why: "Paper Table 2 overload row: 8 fitness tenants each offered 500 fps, 1 credit: 8 frames in flight keep the CPU busy; ml.*/codec busy time, per-frame runtime overhead and TCP transit set delivered fps.",
        app: App::Fitness,
        transport: EdgeTransport::Tcp,
        tenants: 8,
        fps: 500.0,
        trace_every: 1,
    },
    Workload {
        name: "baseline_remote",
        why: "Paper Fig. 5 EdgeEye-style placement: all modules on the phone, four remote service calls per frame over TCP; exercises request/reply round trips instead of one-way edges.",
        app: App::FitnessBaseline,
        transport: EdgeTransport::Tcp,
        tenants: 1,
        fps: 60.0,
        trace_every: 1,
    },
    Workload {
        name: "relay_fleet",
        why: "1000 three-module pipelines at 25 fps each on one device, 8-byte payload, in-process: bare forwarding where scheduling, timers and service dispatch do all the work and TCP and codec do none.",
        app: App::Relay,
        transport: EdgeTransport::Inproc,
        tenants: 1000,
        fps: 25.0,
        trace_every: 10,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything generated from the seed before the system under test exists.
pub struct Inputs {
    pub seed: u64,
    /// The replay ring (empty for the relay workload, which carries no
    /// frames).
    pub frames: Arc<Vec<Frame>>,
    /// Time each `SyntheticVideoSource::capture` took, ns: the generator's
    /// cost, reported as a layer cell and excluded from `setup_s`.
    pub capture_ns: Vec<u64>,
}

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64) -> Self {
        let mut frames = Vec::new();
        let mut capture_ns = Vec::new();
        if workload.app != App::Relay {
            let mut camera = SyntheticVideoSource::new(
                fitness::source_config(seed),
                MotionClip::new(ExerciseKind::Squat, 2.0).with_jitter(0.004),
            );
            for i in 0..RING_FRAMES as u64 {
                let start = trace::now_ns();
                frames.push(camera.capture(i * RING_INTERVAL_NS));
                capture_ns.push(trace::now_ns() - start);
            }
        }
        Inputs {
            seed,
            frames: Arc::new(frames),
            capture_ns,
        }
    }
}

/// Stands in for the app's `VideoStreamingModule` under the same include
/// name: takes the next pre-rendered frame, then does exactly what the
/// app's module does with it.
struct ReplaySource {
    frames: Arc<Vec<Frame>>,
    emitted: usize,
    next: &'static str,
}

impl Module for ReplaySource {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let Event::FrameTick { .. } = event else {
            return Ok(());
        };
        let frame = self.frames[self.emitted % self.frames.len()].clone();
        self.emitted += 1;
        let id = ctx.frame_store().insert(frame);
        ctx.call_module(self.next, Payload::FrameRef(id))
    }
}

struct RelaySrc;
impl Module for RelaySrc {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::FrameTick { t_ns } = event {
            ctx.call_module("work", Payload::Count(t_ns))?;
        }
        Ok(())
    }
}

struct RelayWork;
impl Module for RelayWork {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            let resp = ctx.call_service("double", ServiceRequest::new("go", msg.payload))?;
            ctx.call_module("sink", resp.payload)?;
        }
        Ok(())
    }
}

/// Checks the payload is twice the tick value it started as.
struct RelaySink {
    wrong: Arc<AtomicU64>,
}
impl Module for RelaySink {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            let tick = ctx.header().capture_ts_ns;
            if msg.payload != Payload::Count(tick.wrapping_mul(2)) {
                self.wrong.fetch_add(1, Relaxed);
            }
            ctx.signal_source()?;
        }
        Ok(())
    }
}

struct Double;
impl Service for Double {
    fn name(&self) -> &str {
        "double"
    }
    fn handle(
        &self,
        request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        match request.payload {
            Payload::Count(n) => Ok(ServiceResponse::new(Payload::Count(n.wrapping_mul(2)))),
            ref other => Err(PipelineError::Service {
                service: "double".into(),
                reason: format!("expected count, got {}", other.kind_name()),
            }),
        }
    }
}

/// What one tenant's display was asked to render.
#[derive(Debug, Default)]
pub struct DisplayLog {
    /// Well-formed renders.
    pub rendered: AtomicU64,
    /// Of those, frames rendered once the classifier's 15-pose window had
    /// filled.
    pub labelled: AtomicU64,
    /// Of those, frames whose label was not `squat`.
    pub mislabelled: AtomicU64,
    /// Renders whose text had no label or no count.
    pub malformed: AtomicU64,
    /// The rep count last shown.
    pub reps: AtomicU64,
}

impl DisplayLog {
    fn observe(&self, text: &str) {
        let field = |key: &str| {
            text.split_whitespace()
                .find_map(|token| token.strip_prefix(key))
        };
        let (Some(label), Some(reps)) = (
            field("activity="),
            field("reps=").and_then(|r| r.parse::<u64>().ok()),
        ) else {
            self.malformed.fetch_add(1, Relaxed);
            return;
        };
        self.rendered.fetch_add(1, Relaxed);
        if label != "warming_up" {
            self.labelled.fetch_add(1, Relaxed);
            if label != "squat" {
                self.mislabelled.fetch_add(1, Relaxed);
            }
        }
        self.reps.store(reps, Relaxed);
    }
}

/// The display service behind the output check.
struct CheckedDisplay {
    inner: Arc<dyn Service>,
    log: Arc<DisplayLog>,
}

impl Service for CheckedDisplay {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn handle(
        &self,
        request: &ServiceRequest,
        store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        match &request.payload {
            Payload::Text(text) => self.log.observe(text),
            _ => {
                self.log.malformed.fetch_add(1, Relaxed);
            }
        }
        self.inner.handle(request, store)
    }
    fn cost(&self, request: &ServiceRequest) -> ServiceCost {
        self.inner.cost(request)
    }
}

/// Output checks of a deployment, filled while it runs.
#[derive(Debug, Default)]
pub struct Checks {
    pub displays: Vec<Arc<DisplayLog>>,
    pub relay_wrong: Arc<AtomicU64>,
}

/// A workload deployed on a fresh reactor.
pub struct Deployment {
    pub runtime: ReactorRuntime,
    pub collector: Collector,
    pub checks: Checks,
    pub topology: Topology,
}

/// How far apart the tenants of a measured deployment are started. A
/// pipeline's ticks are due at its start time plus whole intervals, so the
/// start times fix, for the whole run, how the fleet's ticks fall within
/// an interval and within a slot of the reactor's timer wheel (the
/// interval is a whole number of slots). Started back to back, a thousand
/// pipelines bunch into however long deployment happened to take and
/// share one or two slot offsets, and the relay workload's latency —
/// mostly timer and pacer lag — came out anywhere between 0.09 and 0.25 ms
/// from run to run. Started on a schedule they spread evenly over both:
/// `interval / tenants` apart, in as many rounds as leave each
/// `add_pipeline` 250 µs (it takes 30 to 70), plus one `tenants`-th of a
/// timer slot.
fn start_spacing(workload: &Workload, interval_ns: u64) -> Duration {
    let tenants = workload.tenants as u64;
    let even = interval_ns / tenants;
    let rounds = 250_000u64.div_ceil(even.max(1));
    let slot_ns = ReactorConfig::default().timer_granularity.as_nanos() as u64;
    Duration::from_nanos(even * rounds + slot_ns / tenants)
}

fn relay_plan(name: String) -> Result<DeploymentPlan, PipelineError> {
    let spec = PipelineSpec::new(name)
        .with_module(ModuleSpec::new("src", "RelaySrc").with_next("work"))
        .with_module(
            ModuleSpec::new("work", "RelayWork")
                .with_service("double")
                .with_next("sink"),
        )
        .with_module(ModuleSpec::new("sink", "RelaySink"));
    let devices = [DeviceSpec::new("one", 1.0)
        .with_containers(1)
        .with_service("double")];
    let placement = Placement::new()
        .assign("src", "one")
        .assign("work", "one")
        .assign("sink", "one");
    plan(&spec, &devices, &placement)
}

fn fitness_plan(name: String, baseline: bool) -> Result<DeploymentPlan, PipelineError> {
    let mut spec = fitness::pipeline_spec();
    spec.name = name;
    let placement = if baseline {
        fitness::baseline_placement()
    } else {
        fitness::videopipe_placement()
    };
    plan(&spec, &fitness::devices(), &placement)
}

fn topology(plan: &DeploymentPlan) -> Topology {
    Topology {
        source: plan
            .pipeline
            .sources()
            .first()
            .map_or(trace::UNKNOWN, |m| name_id(&m.name)),
        cross_device: plan
            .edges
            .iter()
            .filter(|e| e.cross_device)
            .map(|e| (name_id(&e.from), name_id(&e.to)))
            .collect(),
    }
}

/// What a deployment is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// Only to time the set-up. The cameras tick once a second and the
    /// tenants are started back to back, so each pipeline owes one frame
    /// and no more while the rest are added: pipelines run from the moment
    /// they are added, and at full rate a thousand of them compete with the
    /// thread that is still adding the rest (`relay_fleet`'s set-up then
    /// took anything from 30 to 70 ms).
    TimeSetUp,
    /// To be measured with only the sink's latency probe and the output
    /// checks on.
    Measure,
    /// To be measured with the span decorators on as well.
    Trace,
}

/// Builds the registries, starts a reactor and adds every tenant's
/// pipeline. This is what `setup_s` times (plus the wait for the first
/// delivery).
pub fn deploy(
    workload: &Workload,
    inputs: &Inputs,
    purpose: Purpose,
) -> Result<Deployment, PipelineError> {
    let traced = purpose == Purpose::Trace;
    let collector = Collector::default();
    let mut checks = Checks::default();
    let interval_ns = SourcePacer::new(workload.fps).interval_ns();
    let config = RuntimeConfig {
        fps: if purpose == Purpose::TimeSetUp {
            1.0
        } else {
            workload.fps
        },
        credits: 1,
        transport: workload.transport,
        ..RuntimeConfig::default()
    };
    let mut runtime = ReactorRuntime::new(ReactorConfig {
        workers: WORKERS,
        ..ReactorConfig::default()
    });

    // The apps' own registries; the classifier is trained here, from the
    // seed.
    let (app_modules, app_services) = match workload.app {
        App::Relay => {
            let mut modules = ModuleRegistry::new();
            modules.register("RelaySrc", || Box::new(RelaySrc));
            modules.register("RelayWork", || Box::new(RelayWork));
            let wrong = Arc::clone(&checks.relay_wrong);
            modules.register("RelaySink", move || {
                Box::new(RelaySink {
                    wrong: Arc::clone(&wrong),
                })
            });
            let mut services = ServiceRegistry::new();
            services.install(Arc::new(Double));
            (modules, services)
        }
        App::Fitness | App::FitnessBaseline => {
            let mut modules = fitness::module_registry(inputs.seed);
            let frames = Arc::clone(&inputs.frames);
            modules.register("VideoStreamingModule", move || {
                Box::new(ReplaySource {
                    frames: Arc::clone(&frames),
                    emitted: 0,
                    next: "pose_detection",
                })
            });
            (modules, fitness::service_registry(inputs.seed))
        }
    };

    let mut topo = Topology::default();
    let spacing = if purpose == Purpose::TimeSetUp {
        Duration::ZERO
    } else {
        start_spacing(workload, interval_ns)
    };
    let started = Instant::now();
    for tenant in 0..workload.tenants {
        let name = format!("{}-{tenant}", workload.name);
        let plan = match workload.app {
            App::Relay => relay_plan(name)?,
            App::Fitness => fitness_plan(name, false)?,
            App::FitnessBaseline => fitness_plan(name, true)?,
        };
        let spans = traced && tenant % workload.trace_every == 0;
        let sink = plan.pipeline.sinks().first().map(|m| m.name.clone());

        let mut modules = ModuleRegistry::new();
        for m in &plan.pipeline.modules {
            let inner = app_modules.factory(&m.include)?;
            let is_sink = sink.as_deref() == Some(m.name.as_str());
            if !spans && !is_sink {
                modules.register(&m.include, move || inner());
                continue;
            }
            let probe = Probe {
                collector: collector.clone(),
                tenant: tenant as u32,
                interval_ns,
                spans,
                sink: is_sink,
            };
            let name = m.name.clone();
            modules.register(&m.include, move || {
                Box::new(Probed::new(inner(), &name, &probe))
            });
        }

        let mut services = ServiceRegistry::new();
        for name in app_services.names() {
            let mut service = app_services.get(name).expect("listed service exists");
            if spans {
                service = Arc::new(TracedService::new(service, tenant as u32, &collector));
            }
            if name == "display" {
                let log = Arc::new(DisplayLog::default());
                checks.displays.push(Arc::clone(&log));
                service = Arc::new(CheckedDisplay {
                    inner: service,
                    log,
                });
            }
            services.install(service);
        }

        let due = started + spacing * tenant as u32;
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        runtime.add_pipeline(&plan, &modules, &services, config.clone())?;
        if tenant == 0 {
            topo = topology(&plan);
        }
    }
    Ok(Deployment {
        runtime,
        collector,
        checks,
        topology: topo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_log_reads_either_field_order() {
        let log = DisplayLog::default();
        log.observe("activity=warming_up reps=0");
        log.observe("reps=0 activity=squat");
        log.observe("activity=squat reps=1");
        log.observe("activity=lunge reps=2");
        log.observe("pose");
        assert_eq!(log.rendered.load(Relaxed), 4);
        assert_eq!(log.labelled.load(Relaxed), 3);
        assert_eq!(log.mislabelled.load(Relaxed), 1);
        assert_eq!(log.malformed.load(Relaxed), 1);
        assert_eq!(log.reps.load(Relaxed), 2);
    }

    #[test]
    fn workloads_plan_and_separate_the_layers() {
        let fit = topology(&fitness_plan("f".into(), false).unwrap());
        assert_eq!(fit.source, name_id("video_streaming"));
        assert_eq!(fit.cross_device.len(), 3);
        let base = fitness_plan("b".into(), true).unwrap();
        assert!(topology(&base).cross_device.is_empty());
        assert_eq!(base.remote_binding_count(), 4);
        let relay = relay_plan("r".into()).unwrap();
        assert!(topology(&relay).cross_device.is_empty());
        assert_eq!(relay.remote_binding_count(), 0);
        for m in fitness::pipeline_spec()
            .modules
            .iter()
            .chain(&relay.pipeline.modules)
        {
            assert_ne!(
                name_id(&m.name),
                trace::UNKNOWN,
                "{} missing from NAMES",
                m.name
            );
            for s in &m.services {
                assert_ne!(name_id(s), trace::UNKNOWN, "{s} missing from NAMES");
            }
        }
    }
}
