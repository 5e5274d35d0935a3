//! The runtime's configuration and report types.
//!
//! Pipelines run on [`ReactorRuntime`](crate::reactor::ReactorRuntime): every
//! module, service host, pacer and watcher is a task on one worker pool, and
//! what a task does per message lives in the crate-private `engine` module.
//! This file keeps what callers hand the runtime ([`RuntimeConfig`] and its
//! parts) and what they get back ([`RunReport`]).
//!
//! Timing fidelity (Wi-Fi latency, heavyweight inference) is the simulator's
//! job; the runtime optionally *emulates* modeled costs in scaled wall time
//! so demos behave realistically, but the evaluation harness uses
//! `videopipe-sim` for calibrated, deterministic numbers.

use crate::error::PipelineError;
use crate::metrics::PipelineMetrics;
use crate::resilience::{BreakerSnapshot, ResilienceConfig};
use crate::slo::SloConfig;
use std::collections::HashMap;
use std::time::Duration;
use videopipe_media::codec;

/// How cross-device traffic travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeTransport {
    /// All edges are in-process channels (fastest; the default).
    #[default]
    Inproc,
    /// Cross-device traffic goes over real loopback TCP sockets with
    /// length-prefixed framing — one ingress socket per device, exactly
    /// like the paper's per-device ZeroMQ endpoints.
    Tcp,
}

/// Micro-batching knob for one service host's drain policy (see
/// DESIGN.md §5.7). A host that dequeues a request also takes whatever is
/// already queued behind it, up to `max_batch` — it never waits for more,
/// so a batch only forms from requests that queued while the host was
/// busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Largest micro-batch one host dispatches per drain
    /// (1 disables batching; this is the default).
    pub max_batch: usize,
}

impl BatchConfig {
    /// Request-at-a-time dispatch (the pre-batching behaviour).
    pub const fn disabled() -> Self {
        BatchConfig { max_batch: 1 }
    }

    /// Batching up to `max_batch` requests.
    pub fn up_to(max_batch: usize) -> Self {
        BatchConfig {
            max_batch: max_batch.max(1),
        }
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Camera frame rate offered by each source.
    pub fps: f64,
    /// Flow-control credits (1 = the paper's design).
    pub credits: u32,
    /// Cost emulation factor: modeled service/link costs pass in wall time
    /// scaled by this (0.0 disables emulation; 1.0 is real-time). A
    /// device's service host then serves at most `cores` batches at once.
    pub time_scale: f64,
    /// Codec quality for cross-device frames.
    pub codec_quality: codec::Quality,
    /// Cross-device transport.
    pub transport: EdgeTransport,
    /// Resilience behaviour: retries, per-call deadlines, circuit breakers,
    /// degradation and the flow-control credit lease. The default disables
    /// everything but the (30 s) deadline.
    pub resilience: ResilienceConfig,
    /// Service-dispatch micro-batching defaults for every service host.
    /// The default (`max_batch` 1) preserves request-at-a-time dispatch.
    pub batch: BatchConfig,
    /// Interval at which module state is snapshotted
    /// ([`Module::snapshot`](crate::module::Module::snapshot)) into the runtime's checkpoint store, so a
    /// supervised restart resumes near where the old instance died.
    /// `None` (the default) disables checkpointing.
    pub checkpoint_period: Option<Duration>,
    /// Number of recently delivered frame sequence numbers the pacer
    /// remembers to suppress double-counting when a frame is redelivered
    /// (at-least-once delivery after partition heal or failover). `0` (the
    /// default) disables the window and preserves seed behaviour.
    pub dedup_window: usize,
    /// When set, a per-pipeline SLO feedback controller observes windowed
    /// end-to-end p99 latency (and dispatch queue growth) and actuates the
    /// configured degradation [`Knob`](crate::slo::Knob) lattice — codec
    /// quality down, batches up, source sampling down, shedding last — with
    /// hysteresis and a minimum dwell. `None` (the default) keeps every
    /// knob static.
    pub slo: Option<SloConfig>,
}

impl RuntimeConfig {
    /// Deploy-time validation of every statically checkable field. The
    /// flow-control types would otherwise panic inside runtime tasks
    /// (`SourcePacer` on a non-positive fps, `CreditController` on zero
    /// credits), turning a bad config into a hang instead of an error.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] naming the offending field.
    pub(crate) fn validate(&self) -> Result<(), PipelineError> {
        if !(self.fps.is_finite() && self.fps > 0.0) {
            return Err(PipelineError::InvalidConfig {
                field: "fps",
                reason: format!("must be finite and > 0, got {}", self.fps),
            });
        }
        if self.credits == 0 {
            return Err(PipelineError::InvalidConfig {
                field: "credits",
                reason: "must be ≥ 1 (the paper's no-queue design is credits = 1)".into(),
            });
        }
        if !(self.time_scale.is_finite() && self.time_scale >= 0.0) {
            return Err(PipelineError::InvalidConfig {
                field: "time_scale",
                reason: format!("must be finite and ≥ 0, got {}", self.time_scale),
            });
        }
        if self.batch.max_batch == 0 {
            return Err(PipelineError::InvalidConfig {
                field: "batch.max_batch",
                reason: "zero-sized batch can never dispatch; use 1 to disable batching".into(),
            });
        }
        if let Some(slo) = &self.slo {
            slo.validate()
                .map_err(|reason| PipelineError::InvalidConfig {
                    field: "slo",
                    reason,
                })?;
        }
        Ok(())
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            fps: 30.0,
            credits: 1,
            time_scale: 0.0,
            codec_quality: codec::Quality::default(),
            transport: EdgeTransport::Inproc,
            resilience: ResilienceConfig::default(),
            batch: BatchConfig::disabled(),
            checkpoint_period: None,
            dedup_window: 0,
            slo: None,
        }
    }
}

/// How many of its modules' log lines a running pipeline keeps: the newest
/// ones, in a ring that overwrites the oldest (see [`RunReport::logs`]).
pub const LOG_LINES: usize = 1024;

/// The outcome of a runtime run. It says nothing of device liveness: a
/// runtime's devices share its process, and a fleet's node liveness is the
/// coordinator's to report.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Collected metrics.
    pub metrics: PipelineMetrics,
    /// Log lines, oldest first. Two kinds, kept differently:
    ///
    /// - module lines (`"module: text"`, written with `ModuleCtx::log`):
    ///   only the newest [`LOG_LINES`]. A sink may log every frame, and a
    ///   pipeline runs for as long as its user keeps going, so an unbounded
    ///   log would grow the process by every frame it ever showed; the lines
    ///   overwritten are counted in [`RunReport::logs_dropped`].
    /// - the runtime's own lines: `"service <name>: <error>"` for every
    ///   request a service host failed, and `"slo: step …"` for every SLO
    ///   controller move. All of them, whatever their number: callers count
    ///   the first to learn how many requests failed.
    pub logs: Vec<String>,
    /// Module log lines the ring overwrote: written, but no longer in
    /// [`RunReport::logs`]. 0 while a pipeline has logged at most
    /// [`LOG_LINES`] lines.
    pub logs_dropped: u64,
    /// Handler errors observed (pipeline kept running). Every one: callers
    /// count them as failed operations, so this stays unbounded until a
    /// failure count replaces that reading.
    pub errors: Vec<String>,
    /// Module instances restarted by supervision after a panic.
    pub restarts: u64,
    /// Final circuit-breaker counters, keyed by service name (empty unless
    /// [`ResilienceConfig::breaker_failure_threshold`] is set).
    pub breakers: HashMap<String, BreakerSnapshot>,
    /// Final SLO controller lattice level (0 = baseline; also 0 when no
    /// controller was configured).
    pub slo_level: usize,
    /// Total SLO knob moves over the run (both directions).
    pub slo_moves: u64,
    /// SLO controller direction reversals over the run (bounded by the
    /// dwell time: at most one move per dwell).
    pub slo_flaps: u64,
    /// Per-worker reactor scheduler counters (empty in a mid-run report).
    /// Runtime-wide: every pipeline's final report carries the same
    /// snapshot.
    pub scheduler: Vec<crate::metrics::WorkerSchedStats>,
    /// Final module checkpoints by module name (empty unless
    /// [`RuntimeConfig::checkpoint_period`] is set). Teardown takes one
    /// last snapshot of every checkpointing module, so a graceful shutdown
    /// hands the freshest recoverable state to whoever redeploys it.
    pub checkpoints: HashMap<String, Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
    use crate::engine::supervised_batch;
    use crate::message::Payload;
    use crate::module::{Event, Module, ModuleCtx, ModuleRegistry};
    use crate::reactor::{ReactorConfig, ReactorRuntime};
    use crate::resilience::DegradationPolicy;
    use crate::service::{Service, ServiceCost, ServiceRegistry, ServiceRequest, ServiceResponse};
    use crate::spec::{ModuleSpec, PipelineSpec};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    use videopipe_media::{Frame, FrameBuf, FrameStore};

    /// `plan` as the only pipeline (id 0) of a fresh runtime.
    fn start(
        plan: &DeploymentPlan,
        modules: &ModuleRegistry,
        services: &ServiceRegistry,
        config: RuntimeConfig,
    ) -> Result<ReactorRuntime, PipelineError> {
        let mut runtime = ReactorRuntime::new(ReactorConfig::default());
        runtime.add_pipeline(plan, modules, services, config)?;
        Ok(runtime)
    }

    /// Runs the lone pipeline until it has delivered `n` frames (or the
    /// patience runs out) and reports.
    fn run_until(runtime: ReactorRuntime, n: u64, patience: Duration) -> RunReport {
        runtime.run_until_total_deliveries(n, patience).remove(0)
    }

    fn run_for(runtime: ReactorRuntime, wall: Duration) -> RunReport {
        runtime.run_for(wall).remove(0)
    }

    /// Waits (at most 10 s) until the runtime has delivered `n` frames.
    fn await_deliveries(runtime: &ReactorRuntime, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.deliveries() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Source: mints a tiny frame per tick and forwards the reference.
    struct TestSource;
    impl Module for TestSource {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::FrameTick { t_ns } = event {
                let frame: Frame = FrameBuf::new(16, 16).freeze(ctx.header().frame_seq, t_ns);
                let id = ctx.frame_store().insert(frame);
                ctx.call_module("mid", Payload::FrameRef(id))?;
            }
            Ok(())
        }
    }

    /// Middle: calls the doubling service on a count derived from the frame.
    struct TestMid;
    impl Module for TestMid {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                let Payload::FrameRef(id) = msg.payload else {
                    return Err(PipelineError::BadPayload("expected frame"));
                };
                let frame = ctx.frame_store().get(id)?;
                let resp = ctx.call_service(
                    "doubler",
                    ServiceRequest::new("double", Payload::Count(frame.seq())),
                )?;
                ctx.frame_store().release(id);
                ctx.call_module("sink", resp.payload)?;
            }
            Ok(())
        }
    }

    /// Sink: records the count and signals the source.
    struct TestSink;
    impl Module for TestSink {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                if let Payload::Count(n) = msg.payload {
                    ctx.log(&format!("got {n}"));
                }
                ctx.signal_source()?;
            }
            Ok(())
        }
    }

    struct Doubler;
    impl Service for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn handle(
            &self,
            request: &ServiceRequest,
            _store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            match request.payload {
                Payload::Count(n) => Ok(ServiceResponse::new(Payload::Count(n * 2))),
                ref other => Err(crate::service::wrong_payload("doubler", "count", other)),
            }
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    #[test]
    fn supervised_batch_answers_every_slot_in_slot_order() {
        /// Doubles counts; `Empty` panics the batch, `Label` truncates it.
        struct Fragile;
        impl Service for Fragile {
            fn name(&self) -> &str {
                "fragile"
            }
            fn handle(
                &self,
                request: &ServiceRequest,
                store: &FrameStore,
            ) -> Result<ServiceResponse, PipelineError> {
                Doubler.handle(request, store)
            }
            fn handle_batch(
                &self,
                requests: &[ServiceRequest],
                store: &FrameStore,
            ) -> Vec<Result<ServiceResponse, PipelineError>> {
                let counts = requests
                    .iter()
                    .take_while(|r| !matches!(r.payload, Payload::Label { .. }));
                counts
                    .map(|r| match r.payload {
                        Payload::Empty => panic!("container crashed"),
                        _ => self.handle(r, store),
                    })
                    .collect()
            }
        }
        let store = FrameStore::new();
        let count = |n| Ok(ServiceRequest::new("double", Payload::Count(n)));
        let undecoded = || {
            Err(PipelineError::Service {
                service: "fragile".into(),
                reason: "undecodable".into(),
            })
        };
        let reasons = |slots| -> Vec<Result<Payload, String>> {
            supervised_batch(&Fragile, slots, &store)
                .into_iter()
                .map(|r| r.map(|resp| resp.payload).map_err(|e| e.to_string()))
                .collect()
        };

        // Undecoded slots keep their own error, in place; the decoded ones
        // reach the handler intact and in order.
        let mixed = reasons(vec![undecoded(), count(1), undecoded(), count(2)]);
        assert!(mixed[0].as_ref().unwrap_err().contains("undecodable"));
        assert_eq!(mixed[1], Ok(Payload::Count(2)));
        assert!(mixed[2].as_ref().unwrap_err().contains("undecodable"));
        assert_eq!(mixed[3], Ok(Payload::Count(4)));
        assert!(reasons(vec![undecoded()])[0].is_err());

        // A panic fails every decoded request of the batch, one error each.
        let crashed = reasons(vec![
            count(1),
            undecoded(),
            Ok(ServiceRequest::new("double", Payload::Empty)),
        ]);
        assert!(crashed[0]
            .as_ref()
            .unwrap_err()
            .contains("container crashed"));
        assert!(crashed[1].as_ref().unwrap_err().contains("undecodable"));
        assert!(crashed[2]
            .as_ref()
            .unwrap_err()
            .contains("container crashed"));

        // Too few results: the answered prefix stands, the rest fail typed.
        let label = Payload::Label {
            label: "stop".into(),
            confidence: 1.0,
        };
        let short = reasons(vec![
            count(3),
            Ok(ServiceRequest::new("double", label)),
            count(4),
        ]);
        assert_eq!(short[0], Ok(Payload::Count(6)));
        assert!(short[1].as_ref().unwrap_err().contains("too few results"));
        assert!(short[2].as_ref().unwrap_err().contains("too few results"));
    }

    fn test_spec() -> PipelineSpec {
        PipelineSpec::new("test")
            .with_module(ModuleSpec::new("src", "TestSource").with_next("mid"))
            .with_module(
                ModuleSpec::new("mid", "TestMid")
                    .with_service("doubler")
                    .with_next("sink"),
            )
            .with_module(ModuleSpec::new("sink", "TestSink"))
    }

    fn registries() -> (ModuleRegistry, ServiceRegistry) {
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Doubler));
        (modules, services)
    }

    fn run_pipeline(devices: Vec<DeviceSpec>, placement: Placement) -> RunReport {
        let spec = test_spec();
        let plan = plan(&spec, &devices, &placement).unwrap();
        let (modules, services) = registries();
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        run_until(runtime, 10, Duration::from_secs(10))
    }

    #[test]
    fn single_device_pipeline_delivers_frames() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(2)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let report = run_pipeline(devices, placement);
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.logs.iter().any(|l| l.starts_with("sink: got")));
        // All three modules recorded stage samples.
        for stage in ["src", "mid", "sink"] {
            assert!(report.metrics.stages[stage].count() > 0, "{stage}");
        }
        assert!(report.metrics.fps() > 0.0);
        // Dispatch counters flowed into the report.
        let dispatch = report
            .metrics
            .dispatch
            .get("one/doubler")
            .expect("dispatch stats for the doubler host");
        assert!(dispatch.requests >= 10, "{dispatch:?}");
        assert!(dispatch.busy_ns > 0, "{dispatch:?}");
    }

    #[test]
    fn cross_device_pipeline_transcodes_frames() {
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(2)
                .with_service("doubler"),
        ];
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("mid", "desktop")
            .assign("sink", "phone");
        let report = run_pipeline(devices, placement);
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    #[test]
    fn tcp_transport_runs_the_cross_device_pipeline() {
        let _wire = crate::reactor::tests::TCP_WIRE.lock();
        // Same topology as `cross_device_pipeline_transcodes_frames`, but
        // every cross-device message travels over real loopback TCP.
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(2)
                .with_service("doubler"),
        ];
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("mid", "desktop")
            .assign("sink", "phone");
        let spec = test_spec();
        let plan = plan(&spec, &devices, &placement).unwrap();
        let (modules, services) = registries();
        let config = RuntimeConfig {
            fps: 200.0,
            transport: EdgeTransport::Tcp,
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_until(runtime, 10, Duration::from_secs(15));
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    /// Middle module that sends the *same frame* to the remote service
    /// twice per tick — the fan-out pattern the encode cache exists for.
    struct FanoutMid;
    impl Module for FanoutMid {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                let Payload::FrameRef(id) = msg.payload else {
                    return Err(PipelineError::BadPayload("expected frame"));
                };
                for _ in 0..2 {
                    ctx.call_service("doubler", ServiceRequest::new("eat", Payload::FrameRef(id)))?;
                }
                ctx.frame_store().release(id);
                ctx.call_module("sink", Payload::Count(1))?;
            }
            Ok(())
        }
    }

    /// Service that accepts any payload (frames included) and answers with
    /// a count.
    struct FrameEater;
    impl Service for FrameEater {
        fn name(&self) -> &str {
            "doubler"
        }
        fn handle(
            &self,
            request: &ServiceRequest,
            store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            if let Payload::FrameRef(id) = request.payload {
                store.release(id);
            }
            Ok(ServiceResponse::new(Payload::Count(1)))
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    #[test]
    fn remote_fan_out_hits_the_encode_cache() {
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(2)
                .with_service("doubler"),
        ];
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("mid", "phone")
            .assign("sink", "phone");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(FanoutMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(FrameEater));
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        await_deliveries(&runtime, 10);
        let stats = runtime
            .frame_store_stats(0, "phone")
            .expect("phone frame store");
        let report = runtime.finish().remove(0);
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        // Two remote calls per frame, one codec run per frame: the second
        // call must hit the cache.
        assert!(
            stats.encode_hits >= 10,
            "expected >=10 encode-cache hits, got {stats:?}"
        );
        assert!(
            stats.encode_misses <= stats.inserted,
            "at most one encode per frame: {stats:?}"
        );
    }

    #[test]
    fn remote_service_binding_works() {
        // Baseline topology: module on phone, service on desktop.
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(2)
                .with_service("doubler"),
        ];
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("mid", "phone")
            .assign("sink", "phone");
        let report = run_pipeline(devices, placement);
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
    }

    #[test]
    fn flow_control_limits_in_flight_frames() {
        // With one credit and a fast camera, drops must occur while
        // deliveries continue. The doubler's 1 ms modeled cost passes in
        // real time, so every frame holds the credit across at least two
        // 0.5 ms camera ticks — however fast the host runs the rest.
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(1)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let spec = test_spec();
        let plan = plan(&spec, &devices, &placement).unwrap();
        let (modules, services) = registries();
        let config = RuntimeConfig {
            fps: 2000.0,
            credits: 1,
            time_scale: 1.0,
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_for(runtime, Duration::from_millis(500));
        assert!(report.metrics.frames_delivered > 0);
        assert!(report.metrics.frames_offered > report.metrics.frames_delivered);
    }

    #[test]
    fn telemetry_monitor_receives_snapshots() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(2)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (modules, services) = registries();
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        // A monitor samples the metrics while the pipeline runs.
        let mut history = Vec::new();
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(60));
            history.push(runtime.metrics(0).expect("pipeline 0"));
        }
        let report = runtime.finish().remove(0);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let latest = history.last().unwrap();
        assert!(latest.frames_delivered > 0);
        assert!(latest.stages["mid"].count() > 0);
        // Samples are monotone in time and delivered count.
        for pair in history.windows(2) {
            assert!(pair[1].run_duration_ns > pair[0].run_duration_ns);
            assert!(pair[1].frames_delivered >= pair[0].frames_delivered);
        }
        assert!(report.metrics.frames_delivered >= latest.frames_delivered);
    }

    #[test]
    fn deploy_rejects_missing_module_include() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(1)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (_, services) = registries();
        let empty_modules = ModuleRegistry::new();
        let result = start(&plan, &empty_modules, &services, RuntimeConfig::default());
        assert!(result.is_err());
    }

    #[test]
    fn deploy_rejects_missing_service_image() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(1)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (modules, _) = registries();
        let empty_services = ServiceRegistry::new();
        let result = start(&plan, &modules, &empty_services, RuntimeConfig::default());
        assert!(result.is_err());
    }

    #[test]
    fn deploy_validates_config_with_typed_errors() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(1)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (modules, services) = registries();
        let expect_invalid =
            |config: RuntimeConfig, field: &str| match start(&plan, &modules, &services, config) {
                Err(PipelineError::InvalidConfig { field: f, .. }) => {
                    assert_eq!(f, field, "wrong field reported")
                }
                other => panic!("expected InvalidConfig({field}), got {other:?}"),
            };
        expect_invalid(
            RuntimeConfig {
                fps: 0.0,
                ..RuntimeConfig::default()
            },
            "fps",
        );
        expect_invalid(
            RuntimeConfig {
                fps: f64::NAN,
                ..RuntimeConfig::default()
            },
            "fps",
        );
        expect_invalid(
            RuntimeConfig {
                credits: 0,
                ..RuntimeConfig::default()
            },
            "credits",
        );
        expect_invalid(
            RuntimeConfig {
                batch: BatchConfig { max_batch: 0 },
                ..RuntimeConfig::default()
            },
            "batch.max_batch",
        );
        // Inverted SLO bounds: p50 above p99.
        let mut slo = crate::slo::SloConfig::p99(Duration::from_millis(50));
        slo.slo.p50 = Some(Duration::from_millis(80));
        expect_invalid(
            RuntimeConfig {
                slo: Some(slo),
                ..RuntimeConfig::default()
            },
            "slo",
        );
        // Inverted hysteresis band.
        let mut slo = crate::slo::SloConfig::p99(Duration::from_millis(50));
        slo.relax_headroom = 2.0;
        expect_invalid(
            RuntimeConfig {
                slo: Some(slo),
                ..RuntimeConfig::default()
            },
            "slo",
        );
        // The typed error renders the field name for operators.
        let err = RuntimeConfig {
            credits: 0,
            ..RuntimeConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("credits"), "{err}");
    }

    #[test]
    fn slo_controller_degrades_overloaded_pipeline_and_logs_moves() {
        // 100 fps offered into a ~30 ms service with 4 credits: queueing
        // drives end-to-end p99 way past the 5 ms target, so the controller
        // must walk down its lattice and thin admission.
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Sleepy2));
        let mut slo = crate::slo::SloConfig::p99(Duration::from_millis(5))
            .with_interval(Duration::from_millis(120))
            .with_dwell(Duration::from_millis(120))
            .with_lattice(vec![
                crate::slo::Knob::CodecQuality { shift: 6 },
                crate::slo::Knob::SampleRate { divisor: 2 },
                crate::slo::Knob::SampleRate { divisor: 4 },
            ]);
        // The overloaded pipeline only delivers ~30 fps, so a 120 ms window
        // holds only a few frames; judge on 2+.
        slo.min_window = 2;
        let config = RuntimeConfig {
            fps: 100.0,
            credits: 4,
            slo: Some(slo),
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_for(runtime, Duration::from_millis(900));
        assert!(
            report.slo_level > 0,
            "controller never engaged: {:?}",
            report.logs
        );
        assert!(report.slo_moves >= 1);
        assert!(
            report.logs.iter().any(|l| l.starts_with("slo: step down")),
            "no controller log line: {:?}",
            report.logs
        );
        // Dwell 60 ms over a 900 ms run bounds the move rate.
        assert!(
            report.slo_moves <= 15,
            "dwell violated: {} moves",
            report.slo_moves
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    /// A service slow enough (~30 ms) to overload a 100 fps source.
    struct Sleepy2;
    impl Service for Sleepy2 {
        fn name(&self) -> &str {
            "doubler"
        }
        fn handle(
            &self,
            request: &ServiceRequest,
            _store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            std::thread::sleep(Duration::from_millis(30));
            let n = match request.payload {
                Payload::Count(n) => n,
                _ => 0,
            };
            Ok(ServiceResponse::new(Payload::Count(n * 2)))
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    #[test]
    fn handler_errors_are_reported_not_fatal() {
        struct FailingMid;
        impl Module for FailingMid {
            fn on_event(
                &mut self,
                event: Event,
                _ctx: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if matches!(event, Event::Message(_)) {
                    return Err(PipelineError::Module {
                        module: "mid".into(),
                        reason: "boom".into(),
                    });
                }
                Ok(())
            }
        }
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(1)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(FailingMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Doubler));
        let config = RuntimeConfig {
            fps: 100.0,
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_for(runtime, Duration::from_millis(300));
        assert!(!report.errors.is_empty());
        // The pipeline did not stall: multiple frames flowed (and errored).
        assert!(report.metrics.stages["mid"].count() > 1);
    }

    /// A service that sleeps longer than any reasonable test deadline.
    struct Sleepy;
    impl Service for Sleepy {
        fn name(&self) -> &str {
            "doubler"
        }
        fn handle(
            &self,
            _request: &ServiceRequest,
            _store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            std::thread::sleep(Duration::from_millis(80));
            Ok(ServiceResponse::new(Payload::Count(0)))
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    fn one_device() -> (Vec<DeviceSpec>, Placement) {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(2)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        (devices, placement)
    }

    #[test]
    fn service_call_deadline_is_configurable_and_typed() {
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Sleepy));
        let config = RuntimeConfig {
            fps: 50.0,
            resilience: ResilienceConfig {
                service_call_timeout: Duration::from_millis(10),
                ..ResilienceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_for(runtime, Duration::from_millis(400));
        assert!(
            report.errors.iter().any(|e| e.contains("timed out")),
            "expected a typed timeout in {:?}",
            report.errors
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn retries_recover_transient_service_faults() {
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        // Every second request fails; one retry always succeeds.
        services.install(Arc::new(crate::service::ChaosService::new(
            Arc::new(Doubler),
            2,
        )));
        let config = RuntimeConfig {
            fps: 200.0,
            resilience: ResilienceConfig {
                retry: crate::resilience::RetryPolicy::exponential(
                    3,
                    Duration::from_millis(1),
                    Duration::from_millis(5),
                ),
                ..ResilienceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_until(runtime, 10, Duration::from_secs(10));
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn panicked_module_is_restarted_and_pipeline_survives() {
        struct PanickyMid {
            calls: u64,
        }
        impl Module for PanickyMid {
            fn on_event(
                &mut self,
                event: Event,
                ctx: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if let Event::Message(msg) = event {
                    self.calls += 1;
                    if self.calls.is_multiple_of(3) {
                        panic!("injected module panic");
                    }
                    let Payload::FrameRef(id) = msg.payload else {
                        return Err(PipelineError::BadPayload("expected frame"));
                    };
                    ctx.frame_store().release(id);
                    ctx.call_module("sink", Payload::Count(1))?;
                }
                Ok(())
            }
        }
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(PanickyMid { calls: 0 }));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Doubler));
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_until(runtime, 10, Duration::from_secs(10));
        assert!(report.restarts >= 1, "no restarts recorded");
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(
            report.errors.iter().any(|e| e.contains("panicked")),
            "{:?}",
            report.errors
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    /// Middle module that fires a burst of uniquely-tagged requests per
    /// frame at the shared executor pool.
    struct BurstMid;
    impl Module for BurstMid {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                let Payload::FrameRef(id) = msg.payload else {
                    return Err(PipelineError::BadPayload("expected frame"));
                };
                let base = ctx.frame_store().get(id)?.seq() * 100;
                for i in 0..6 {
                    let resp = ctx.call_service(
                        "doubler",
                        ServiceRequest::new("tag", Payload::Count(base + i)),
                    )?;
                    // The executor must answer *this* request, not a
                    // neighbour's.
                    assert!(matches!(resp.payload, Payload::Count(n) if n == base + i));
                }
                ctx.frame_store().release(id);
                ctx.call_module("sink", Payload::Count(1))?;
            }
            Ok(())
        }
    }

    /// Echo service that records every tag it executes.
    struct RecordingService {
        seen: Arc<Mutex<Vec<u64>>>,
    }
    impl Service for RecordingService {
        fn name(&self) -> &str {
            "doubler"
        }
        fn handle(
            &self,
            request: &ServiceRequest,
            _store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            match request.payload {
                Payload::Count(n) => {
                    self.seen.lock().push(n);
                    Ok(ServiceResponse::new(Payload::Count(n)))
                }
                ref other => Err(crate::service::wrong_payload("doubler", "count", other)),
            }
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    #[test]
    fn executor_pool_drains_bursts_exactly_once() {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(4)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(BurstMid));
        modules.register("TestSink", || Box::new(TestSink));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(RecordingService {
            seen: Arc::clone(&seen),
        }));
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_until(runtime, 12, Duration::from_secs(10));
        assert!(
            report.metrics.frames_delivered >= 12,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let mut tags = seen.lock().clone();
        assert!(tags.len() >= 6 * 12, "only {} executions", tags.len());
        let executed = tags.len();
        tags.sort_unstable();
        tags.dedup();
        // No tag executed twice: a host draining its queue in batches
        // must not double-deliver...
        assert_eq!(tags.len(), executed, "a request was executed twice");
        // ...and every execution was accounted as dispatched.
        let busy_hosts = report
            .metrics
            .dispatch
            .get("one/doubler")
            .expect("dispatch stats");
        assert!(busy_hosts.requests as usize >= executed);
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn executor_pool_survives_panicking_service() {
        // Every 5th request panics the host's handler: supervision
        // converts the panic into a typed error, retries recover, and the
        // host keeps draining.
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(4)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(crate::service::ChaosService::panicking(
            Arc::new(Doubler),
            5,
        )));
        let config = RuntimeConfig {
            fps: 200.0,
            resilience: ResilienceConfig {
                retry: crate::resilience::RetryPolicy::exponential(
                    4,
                    Duration::from_millis(1),
                    Duration::from_millis(5),
                ),
                ..ResilienceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_until(runtime, 10, Duration::from_secs(10));
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn breaker_opens_during_outage_and_recovers() {
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(TestMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        // Healthy for 150ms, hard down for 200ms, healthy again.
        services.install(Arc::new(crate::service::ChaosService::outage(
            Arc::new(Doubler),
            Duration::from_millis(150),
            Duration::from_millis(200),
        )));
        let config = RuntimeConfig {
            fps: 200.0,
            resilience: ResilienceConfig {
                breaker_failure_threshold: 3,
                breaker_cooldown: Duration::from_millis(40),
                degradation: DegradationPolicy::LastKnownGood,
                ..ResilienceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_for(runtime, Duration::from_millis(700));
        let breaker = report
            .breakers
            .get("doubler")
            .expect("breaker snapshot for doubler");
        assert!(breaker.opened >= 1, "breaker never opened: {breaker:?}");
        assert!(
            breaker.reclosed >= 1,
            "breaker never recovered half-open -> closed: {breaker:?}"
        );
        assert!(report.metrics.frames_delivered > 0);
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    /// Middle module that sends a corrupt encoded frame to the service and
    /// expects a *fast typed* rejection, not a deadline timeout.
    struct CorruptFrameMid;
    impl Module for CorruptFrameMid {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                if let Payload::FrameRef(id) = msg.payload {
                    ctx.frame_store().release(id);
                }
                let result = ctx.call_service(
                    "doubler",
                    ServiceRequest::new(
                        "eat",
                        Payload::EncodedFrame(bytes::Bytes::from_static(b"not a frame")),
                    ),
                );
                match result {
                    Err(PipelineError::Service { reason, .. }) if reason.contains("decode") => {
                        ctx.log("corrupt frame rejected");
                    }
                    other => panic!("expected a typed decode error, got {other:?}"),
                }
                ctx.call_module("sink", Payload::Count(1))?;
            }
            Ok(())
        }
    }

    #[test]
    fn corrupt_encoded_frame_gets_a_typed_error_reply() {
        // Regression: the host used to log the decode failure and
        // `continue`, leaving the caller to burn its full call deadline.
        // Now every undecodable slot answers with a typed error payload —
        // the pipeline below only makes progress if those replies arrive
        // promptly (the default call deadline is far beyond the test
        // budget).
        let (devices, placement) = one_device();
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(CorruptFrameMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(FrameEater));
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_until(runtime, 5, Duration::from_secs(10));
        assert!(
            report.metrics.frames_delivered >= 5,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(
            report
                .logs
                .iter()
                .any(|l| l.contains("corrupt frame rejected")),
            "{:?}",
            report.logs
        );
        // The host still records the root cause for diagnostics.
        assert!(
            report
                .errors
                .iter()
                .any(|e| e.contains("frame decode failed")),
            "{:?}",
            report.errors
        );
    }

    /// Sink that tallies frames, checkpoints the tally, and panics once.
    struct CheckpointedTally {
        count: u64,
        resumed_from: Option<u64>,
        poisoned: Arc<AtomicBool>,
    }
    impl Module for CheckpointedTally {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(_) = event {
                if let Some(n) = self.resumed_from.take() {
                    ctx.log(&format!("resumed from {n}"));
                }
                self.count += 1;
                if self.count == 5 && !self.poisoned.swap(true, Ordering::SeqCst) {
                    panic!("tally poisoned at 5");
                }
                ctx.log(&format!("tally {}", self.count));
                ctx.signal_source()?;
            }
            Ok(())
        }
        fn snapshot(&self) -> Option<Vec<u8>> {
            Some(self.count.to_be_bytes().to_vec())
        }
        fn restore(&mut self, snapshot: &[u8]) {
            if let Ok(bytes) = <[u8; 8]>::try_from(snapshot) {
                self.count = u64::from_be_bytes(bytes);
                self.resumed_from = Some(self.count);
            }
        }
    }

    #[test]
    fn panicked_module_resumes_from_its_checkpoint() {
        let spec = PipelineSpec::new("ckpt")
            .with_module(ModuleSpec::new("src", "TestSource").with_next("mid"))
            .with_module(ModuleSpec::new("mid", "Tally"));
        let devices = vec![DeviceSpec::new("one", 1.0)];
        let placement = Placement::new().assign("src", "one").assign("mid", "one");
        let plan = plan(&spec, &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        let poisoned = Arc::new(AtomicBool::new(false));
        let poisoned2 = Arc::clone(&poisoned);
        modules.register("Tally", move || {
            Box::new(CheckpointedTally {
                count: 0,
                resumed_from: None,
                poisoned: Arc::clone(&poisoned2),
            })
        });
        let services = ServiceRegistry::new();
        let config = RuntimeConfig {
            fps: 100.0,
            checkpoint_period: Some(Duration::from_millis(20)),
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        let report = run_until(runtime, 12, Duration::from_secs(10));
        assert_eq!(report.restarts, 1, "{:?}", report.errors);
        let resumed: u64 = report
            .logs
            .iter()
            .find_map(|l| {
                l.strip_prefix("mid: resumed from ")
                    .and_then(|n| n.parse().ok())
            })
            .unwrap_or_else(|| panic!("no resume log in {:?}", report.logs));
        assert!(
            resumed >= 1,
            "restored checkpoint should carry progress, got {resumed}"
        );
        let max_tally: u64 = report
            .logs
            .iter()
            .filter_map(|l| l.strip_prefix("mid: tally ").and_then(|n| n.parse().ok()))
            .max()
            .unwrap();
        assert!(
            max_tally > resumed,
            "tally did not advance past the restored value {resumed}"
        );
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn batching_keeps_the_remote_encode_cache_exact() {
        // Satellite of the batching PR: distinct frames fanned out to a
        // *remote* batched service must still hit the per-(frame, quality)
        // encode cache exactly once each — batching changes how requests
        // are drained, never how often the codec runs.
        let devices = vec![
            DeviceSpec::new("phone", 1.0),
            DeviceSpec::new("desktop", 1.0)
                .with_containers(2)
                .with_service("doubler"),
        ];
        let placement = Placement::new()
            .assign("src", "phone")
            .assign("mid", "phone")
            .assign("sink", "phone");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("TestSource", || Box::new(TestSource));
        modules.register("TestMid", || Box::new(FanoutMid));
        modules.register("TestSink", || Box::new(TestSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(FrameEater));
        let config = RuntimeConfig {
            fps: 200.0,
            batch: BatchConfig::up_to(4),
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        await_deliveries(&runtime, 10);
        let stats = runtime
            .frame_store_stats(0, "phone")
            .expect("phone frame store");
        let report = runtime.finish().remove(0);
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        // Two remote calls per frame, one codec run per frame.
        assert!(
            stats.encode_hits >= 10,
            "expected >=10 encode-cache hits, got {stats:?}"
        );
        assert!(
            stats.encode_misses <= stats.inserted,
            "at most one encode per frame: {stats:?}"
        );
        let dispatch = report
            .metrics
            .dispatch
            .get("desktop/doubler")
            .expect("dispatch stats");
        assert!(dispatch.batches >= 1 && dispatch.batches <= dispatch.requests);
        assert!(report.metrics.credits_balanced(), "{:?}", report.metrics);
    }

    #[test]
    fn teardown_wakes_interval_parked_watchers_promptly() {
        // Watchers wait out their FULL interval on a timer. With a
        // multi-second SLO interval, teardown must still take
        // milliseconds, not an interval.
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(2)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        let plan = plan(&test_spec(), &devices, &placement).unwrap();
        let (modules, services) = registries();
        let long = Duration::from_secs(30);
        let config = RuntimeConfig {
            fps: 100.0,
            slo: Some(crate::slo::SloConfig::p99(Duration::from_millis(100)).with_interval(long)),
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config).unwrap();
        // Let the pipeline actually move before tearing it down.
        await_deliveries(&runtime, 3);
        let started = Instant::now();
        let report = runtime.finish().remove(0);
        let teardown = started.elapsed();
        assert!(report.metrics.frames_delivered >= 3);
        assert!(
            teardown < Duration::from_secs(1),
            "teardown took {teardown:?} with 30 s watcher intervals"
        );
    }
}
