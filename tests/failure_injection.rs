//! Failure injection: a misbehaving service must not wedge the pipeline —
//! the runtime returns the frame's flow-control credit and keeps going
//! (with one credit, a single leaked credit would deadlock everything,
//! so this exercises the most fragile part of the §2.3 design).

use std::sync::Arc;
use std::time::Duration;
use videopipe::apps::fitness;
use videopipe::core::prelude::*;
use videopipe::core::runtime::RunReport;
use videopipe::core::service::ChaosService;
use videopipe::sim::{Scenario, SimProfile};

fn chaotic_services(seed: u64, fail_every: u64) -> (ServiceRegistry, Arc<ChaosService>) {
    let mut services = fitness::service_registry(seed);
    let pose = services.get("pose_detector").expect("pose installed");
    let chaos = Arc::new(ChaosService::new(pose, fail_every));
    services.install(Arc::clone(&chaos) as Arc<dyn Service>);
    (services, chaos)
}

#[test]
fn sim_pipeline_survives_a_flaky_pose_service() {
    let (services, chaos) = chaotic_services(4, 5); // every 5th detect fails
    let mut scenario = Scenario::new(SimProfile::deterministic());
    let handle = scenario
        .add_pipeline(
            &fitness::videopipe_plan().unwrap(),
            &fitness::module_registry(4),
            &services,
            20.0,
            1,
        )
        .unwrap();
    let report = scenario.run(Duration::from_secs(20));

    // Failures were recorded...
    assert!(
        !report.errors.is_empty(),
        "injected faults should surface as errors"
    );
    assert!(report.errors.iter().all(|e| e.contains("injected fault")));
    // ...but the pipeline never stalled: deliveries continued throughout.
    let metrics = report.metrics(handle);
    assert!(
        metrics.frames_delivered > 100,
        "pipeline wedged after failures: only {} delivered",
        metrics.frames_delivered
    );
    // Roughly 1/5 of frames died at the pose stage.
    let died = chaos.calls() / 5;
    assert!(
        metrics.frames_delivered + 2 * died > chaos.calls(),
        "accounting off: {} delivered, {} calls",
        metrics.frames_delivered,
        chaos.calls()
    );
}

/// `plan` as the only pipeline (id 0) of a fresh runtime.
fn start(
    plan: &DeploymentPlan,
    modules: &ModuleRegistry,
    services: &ServiceRegistry,
    config: RuntimeConfig,
) -> ReactorRuntime {
    let mut runtime = ReactorRuntime::new(ReactorConfig::default());
    runtime
        .add_pipeline(plan, modules, services, config)
        .unwrap();
    runtime
}

#[test]
fn threaded_pipeline_survives_a_flaky_pose_service() {
    let (services, _chaos) = chaotic_services(4, 4);
    let runtime = start(
        &fitness::videopipe_plan().unwrap(),
        &fitness::module_registry(4),
        &services,
        RuntimeConfig {
            fps: 100.0,
            ..RuntimeConfig::default()
        },
    );
    let report = runtime
        .run_until_total_deliveries(20, Duration::from_secs(30))
        .remove(0);
    assert!(
        report.metrics.frames_delivered >= 20,
        "pipeline wedged: {} delivered, errors {:?}",
        report.metrics.frames_delivered,
        report.errors.iter().take(3).collect::<Vec<_>>()
    );
    assert!(!report.errors.is_empty(), "faults should be reported");
}

/// Chaos matrix: fault type × transport on the runtime. Every cell
/// asserts the same envelope — the delivery target is reached (no wedge),
/// no flow-control credit leaks, and the configured resilience mechanism is
/// observed doing its job.
mod chaos_matrix {
    use super::*;
    use std::time::Instant;
    use videopipe::core::runtime::EdgeTransport;
    use videopipe::core::service::{ChaosService, ServiceCost};
    use videopipe::media::{Frame, FrameBuf, FrameStore};

    struct Src;
    impl Module for Src {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::FrameTick { t_ns } = event {
                let frame: Frame = FrameBuf::new(16, 16).freeze(ctx.header().frame_seq, t_ns);
                let id = ctx.frame_store().insert(frame);
                ctx.call_module("mid", Payload::FrameRef(id))?;
            }
            Ok(())
        }
    }

    struct Mid;
    impl Module for Mid {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(msg) = event {
                let Payload::FrameRef(id) = msg.payload else {
                    return Err(PipelineError::BadPayload("expected frame"));
                };
                let frame = ctx.frame_store().get(id)?;
                let resp = ctx.call_service(
                    "doubler",
                    ServiceRequest::new("double", Payload::Count(frame.seq())),
                );
                ctx.frame_store().release(id);
                ctx.call_module("sink", resp?.payload)?;
            }
            Ok(())
        }
    }

    struct Sink;
    impl Module for Sink {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(_) = event {
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
                ref other => Err(PipelineError::Service {
                    service: "doubler".into(),
                    reason: format!("expected count, got {}", other.kind_name()),
                }),
            }
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(1))
        }
    }

    /// src + sink on the phone, mid + doubler on the desktop: every frame
    /// crosses the device boundary twice, exercising both TCP directions.
    fn deploy(
        service: Arc<dyn Service>,
        transport: EdgeTransport,
        resilience: ResilienceConfig,
        batch: BatchConfig,
    ) -> ReactorRuntime {
        let spec = PipelineSpec::new("chaos")
            .with_module(ModuleSpec::new("src", "Src").with_next("mid"))
            .with_module(
                ModuleSpec::new("mid", "Mid")
                    .with_service("doubler")
                    .with_next("sink"),
            )
            .with_module(ModuleSpec::new("sink", "Sink"));
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
        let plan = plan(&spec, &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("Src", || Box::new(Src));
        modules.register("Mid", || Box::new(Mid));
        modules.register("Sink", || Box::new(Sink));
        let mut services = ServiceRegistry::new();
        services.install(service);
        let config = RuntimeConfig {
            fps: 200.0,
            transport,
            resilience,
            batch,
            ..RuntimeConfig::default()
        };
        start(&plan, &modules, &services, config)
    }

    /// Runs the lone pipeline until it has delivered `n` frames (or the
    /// patience runs out) and reports.
    fn run_until(runtime: ReactorRuntime, n: u64, patience: Duration) -> RunReport {
        runtime.run_until_total_deliveries(n, patience).remove(0)
    }

    /// Every cell runs with request-at-a-time dispatch and with
    /// micro-batching, so the resilience mechanisms are exercised under
    /// both drain policies.
    fn batch_modes() -> [BatchConfig; 2] {
        [BatchConfig::disabled(), BatchConfig::up_to(8)]
    }

    /// Backstop for every cell: even if a frame is lost outright, its
    /// credit lease expires instead of wedging the single-credit source.
    fn lease() -> Option<Duration> {
        Some(Duration::from_secs(2))
    }

    #[test]
    fn seeded_failures_with_retries_meet_delivery_slo() {
        for transport in [EdgeTransport::Inproc, EdgeTransport::Tcp] {
            for batch in batch_modes() {
                let chaos = Arc::new(ChaosService::probabilistic(Arc::new(Doubler), 7, 0.1));
                let runtime = deploy(
                    chaos,
                    transport,
                    ResilienceConfig {
                        retry: RetryPolicy::exponential(
                            3,
                            Duration::from_millis(1),
                            Duration::from_millis(8),
                        ),
                        credit_timeout: lease(),
                        ..ResilienceConfig::default()
                    },
                    batch,
                );
                let report = run_until(runtime, 100, Duration::from_secs(20));
                assert!(
                    report.metrics.frames_delivered >= 100,
                    "[{transport:?}/{batch:?}] wedged: {} delivered, errors {:?}",
                    report.metrics.frames_delivered,
                    report.errors.iter().take(3).collect::<Vec<_>>()
                );
                assert!(
                    report.metrics.delivery_ratio() >= 0.9,
                    "[{transport:?}/{batch:?}] delivery ratio {:.3}",
                    report.metrics.delivery_ratio()
                );
                assert!(
                    report.metrics.credits_balanced(),
                    "[{transport:?}/{batch:?}] credit leak: {:?}",
                    report.metrics
                );
            }
        }
    }

    #[test]
    fn breaker_opens_and_recovers_during_outage_burst() {
        for batch in batch_modes() {
            let chaos = Arc::new(ChaosService::outage(
                Arc::new(Doubler),
                Duration::from_millis(400),
                Duration::from_millis(300),
            ));
            let runtime = deploy(
                chaos,
                EdgeTransport::Tcp,
                ResilienceConfig {
                    breaker_failure_threshold: 3,
                    breaker_cooldown: Duration::from_millis(50),
                    degradation: DegradationPolicy::LastKnownGood,
                    credit_timeout: lease(),
                    ..ResilienceConfig::default()
                },
                batch,
            );
            let report = runtime.run_for(Duration::from_millis(1500)).remove(0);
            let breaker = report
                .breakers
                .get("doubler")
                .expect("breaker snapshot for doubler");
            assert!(
                breaker.opened >= 1,
                "[{batch:?}] breaker never opened: {breaker:?}"
            );
            assert!(
                breaker.reclosed >= 1,
                "[{batch:?}] breaker never recovered half-open -> closed: {breaker:?}"
            );
            // A drained batch must not consume more than one half-open
            // probe per cooldown window: probes are bounded by the number
            // of windows the run can contain, not by batch size.
            let windows = 1 + 1500 / 50;
            assert!(
                breaker.probes <= windows,
                "[{batch:?}] batched dispatch burned probes: {breaker:?}"
            );
            // Last-known-good degradation keeps frames flowing through the
            // outage, so the delivery SLO holds across the burst.
            assert!(
                report.metrics.delivery_ratio() >= 0.9,
                "[{batch:?}] delivery ratio {:.3}: {:?}",
                report.metrics.delivery_ratio(),
                report.metrics
            );
            assert!(
                report.metrics.credits_balanced(),
                "[{batch:?}] credit leak: {:?}",
                report.metrics
            );
        }
    }

    #[test]
    fn injected_latency_trips_typed_deadlines_without_wedging() {
        // Every 10th call sleeps past the 25 ms deadline; with no retries
        // those frames die with a typed timeout and return their credit.
        for batch in batch_modes() {
            let chaos = Arc::new(ChaosService::delaying(
                Arc::new(Doubler),
                10,
                Duration::from_millis(60),
            ));
            let runtime = deploy(
                chaos,
                EdgeTransport::Inproc,
                ResilienceConfig {
                    service_call_timeout: Duration::from_millis(25),
                    credit_timeout: lease(),
                    ..ResilienceConfig::default()
                },
                batch,
            );
            let report = run_until(runtime, 50, Duration::from_secs(20));
            assert!(
                report.metrics.frames_delivered >= 50,
                "[{batch:?}] wedged: {} delivered",
                report.metrics.frames_delivered
            );
            assert!(
                report.errors.iter().any(|e| e.contains("timed out")),
                "[{batch:?}] expected typed timeouts in {:?}",
                report.errors.iter().take(3).collect::<Vec<_>>()
            );
            assert!(
                report.metrics.delivery_ratio() >= 0.85,
                "[{batch:?}] delivery ratio {:.3}",
                report.metrics.delivery_ratio()
            );
            assert!(
                report.metrics.credits_balanced(),
                "[{batch:?}] credit leak: {:?}",
                report.metrics
            );
        }
    }

    #[test]
    fn panicking_service_is_supervised_and_retried() {
        for batch in batch_modes() {
            let chaos = Arc::new(ChaosService::panicking(Arc::new(Doubler), 7));
            let runtime = deploy(
                chaos,
                EdgeTransport::Inproc,
                ResilienceConfig {
                    retry: RetryPolicy::exponential(
                        3,
                        Duration::from_millis(1),
                        Duration::from_millis(8),
                    ),
                    credit_timeout: lease(),
                    ..ResilienceConfig::default()
                },
                batch,
            );
            let report = run_until(runtime, 60, Duration::from_secs(20));
            assert!(
                report.metrics.frames_delivered >= 60,
                "[{batch:?}] wedged: {} delivered, errors {:?}",
                report.metrics.frames_delivered,
                report.errors.iter().take(3).collect::<Vec<_>>()
            );
            assert!(
                report.metrics.delivery_ratio() >= 0.9,
                "[{batch:?}] delivery ratio {:.3}",
                report.metrics.delivery_ratio()
            );
            assert!(
                report.metrics.credits_balanced(),
                "[{batch:?}] credit leak: {:?}",
                report.metrics
            );
        }
    }

    #[test]
    fn tcp_disconnect_mid_stream_recovers_and_drains() {
        for batch in batch_modes() {
            let runtime = deploy(
                Arc::new(Doubler),
                EdgeTransport::Tcp,
                ResilienceConfig {
                    credit_timeout: lease(),
                    ..ResilienceConfig::default()
                },
                batch,
            );
            // Let the stream establish, cut every TCP connection mid-flight,
            // then require the pipeline to reach its target anyway.
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut severed = 0;
            while runtime.deliveries() < 150 && Instant::now() < deadline {
                if severed == 0 && runtime.deliveries() >= 50 {
                    severed = runtime.inject_tcp_disconnect(0);
                    assert!(severed > 0, "tcp transport should have live peers");
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let report = runtime.finish().remove(0);
            assert!(severed > 0, "[{batch:?}] disconnect was never injected");
            assert!(
                report.metrics.frames_delivered >= 150,
                "[{batch:?}] pipeline did not recover from the disconnect: {} delivered, errors {:?}",
                report.metrics.frames_delivered,
                report.errors.iter().take(3).collect::<Vec<_>>()
            );
            assert!(
                report.metrics.delivery_ratio() >= 0.9,
                "[{batch:?}] delivery ratio {:.3}",
                report.metrics.delivery_ratio()
            );
            assert!(
                report.metrics.credits_balanced(),
                "[{batch:?}] credit leak: {:?}",
                report.metrics
            );
        }
    }

    /// A sink that returns the flow-control credit TWICE per frame — the
    /// shape of at-least-once redelivery after a partition heals and the
    /// retry layer re-sends a frame that had in fact already arrived.
    struct DupSink;
    impl Module for DupSink {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(_) = event {
                ctx.signal_source()?;
                ctx.signal_source()?;
            }
            Ok(())
        }
    }

    /// Partition-heal + retry must not double-count deliveries: with
    /// outstanding-admission tracking off (no credit lease), the dedup
    /// window is the only thing between a duplicate completion signal and
    /// a double-counted delivery, which pins its semantics.
    #[test]
    fn partition_heal_with_redelivery_does_not_double_count() {
        let spec = PipelineSpec::new("chaos")
            .with_module(ModuleSpec::new("src", "Src").with_next("mid"))
            .with_module(
                ModuleSpec::new("mid", "Mid")
                    .with_service("doubler")
                    .with_next("sink"),
            )
            .with_module(ModuleSpec::new("sink", "DupSink"));
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
        let plan = plan(&spec, &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("Src", || Box::new(Src));
        modules.register("Mid", || Box::new(Mid));
        modules.register("DupSink", || Box::new(DupSink));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Doubler));
        let config = RuntimeConfig {
            fps: 200.0,
            credits: 4,
            transport: EdgeTransport::Tcp,
            resilience: ResilienceConfig {
                retry: RetryPolicy::exponential(
                    3,
                    Duration::from_millis(1),
                    Duration::from_millis(8),
                ),
                ..ResilienceConfig::default()
            },
            dedup_window: 16,
            ..RuntimeConfig::default()
        };
        let runtime = start(&plan, &modules, &services, config);
        // Sever every TCP connection mid-stream (the partition), then let
        // the reconnect/retry layer heal it and drive the run to target.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut severed = 0;
        while runtime.deliveries() < 150 && Instant::now() < deadline {
            if severed == 0 && runtime.deliveries() >= 50 {
                severed = runtime.inject_tcp_disconnect(0);
                assert!(severed > 0, "tcp transport should have live peers");
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let report = runtime.finish().remove(0);
        assert!(severed > 0, "partition was never injected");
        assert!(
            report.metrics.frames_delivered >= 150,
            "did not heal: {} delivered, errors {:?}",
            report.metrics.frames_delivered,
            report.errors.iter().take(3).collect::<Vec<_>>()
        );
        // Every frame signalled twice, yet each was counted at most once.
        assert!(
            report.metrics.frames_delivered <= report.metrics.frames_admitted,
            "double-counted deliveries: {:?}",
            report.metrics
        );
        assert!(
            report.metrics.credits_balanced(),
            "credit leak: {:?}",
            report.metrics
        );
    }
}

#[test]
fn every_frame_failing_still_returns_credits() {
    // Worst case: the pose service never succeeds. No frame is ever
    // delivered, but the source keeps getting its credit back (admissions
    // continue), so a later service recovery would resume the pipeline.
    let (services, chaos) = chaotic_services(4, 1);
    let mut scenario = Scenario::new(SimProfile::deterministic());
    let handle = scenario
        .add_pipeline(
            &fitness::videopipe_plan().unwrap(),
            &fitness::module_registry(4),
            &services,
            20.0,
            1,
        )
        .unwrap();
    let report = scenario.run(Duration::from_secs(10));
    let metrics = report.metrics(handle);
    assert_eq!(metrics.frames_delivered, 0);
    assert!(
        chaos.calls() > 50,
        "admissions should continue despite total service failure: {} calls",
        chaos.calls()
    );
}

/// One corrupt frame on the wire must cost one frame, not the pipeline:
/// the module that cannot decode it returns its credit like any other
/// mid-pipeline death. With the paper's single credit and no lease, a
/// silently dropped frame stalls the source forever — which is what the
/// runtime did before the module step was written once.
mod corrupt_frame {
    use super::*;
    use videopipe::media::{Frame, FrameBuf};

    /// Every fifth tick forwards bytes that claim to be an encoded frame
    /// and are not.
    struct GlitchySrc;
    impl Module for GlitchySrc {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::FrameTick { t_ns } = event {
                let seq = ctx.header().frame_seq;
                if seq % 5 == 3 {
                    let garbage = bytes::Bytes::from_static(b"not a VPF1 frame");
                    return ctx.call_module("sink", Payload::EncodedFrame(garbage));
                }
                let frame: Frame = FrameBuf::new(16, 16).freeze(seq, t_ns);
                let id = ctx.frame_store().insert(frame);
                ctx.call_module("sink", Payload::FrameRef(id))?;
            }
            Ok(())
        }
    }

    struct Sink;
    impl Module for Sink {
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            if let Event::Message(_) = event {
                ctx.signal_source()?;
            }
            Ok(())
        }
    }

    fn glitchy_pipeline() -> (DeploymentPlan, ModuleRegistry, RuntimeConfig) {
        let spec = PipelineSpec::new("glitch")
            .with_module(ModuleSpec::new("src", "src").with_next("sink"))
            .with_module(ModuleSpec::new("sink", "sink"));
        let devices = vec![DeviceSpec::new("one", 1.0)];
        let placement = Placement::new().assign("src", "one").assign("sink", "one");
        let mut modules = ModuleRegistry::new();
        modules.register("src", || Box::new(GlitchySrc));
        modules.register("sink", || Box::new(Sink));
        let config = RuntimeConfig {
            fps: 200.0,
            credits: 1,
            ..RuntimeConfig::default()
        };
        assert!(config.resilience.credit_timeout.is_none(), "no lease");
        (plan(&spec, &devices, &placement).unwrap(), modules, config)
    }

    #[test]
    fn a_corrupt_encoded_frame_returns_its_credit() {
        let (plan, modules, config) = glitchy_pipeline();
        let runtime = start(&plan, &modules, &ServiceRegistry::new(), config);
        let report = runtime
            .run_until_total_deliveries(20, Duration::from_secs(5))
            .remove(0);
        let m = &report.metrics;
        assert!(
            m.frames_delivered >= 20,
            "wedged on a corrupt frame after {} deliveries; errors {:?}",
            m.frames_delivered,
            report.errors.iter().take(3).collect::<Vec<_>>()
        );
        assert!(m.frames_faulted >= 4, "{m:?}");
        assert!(
            report
                .errors
                .iter()
                .all(|e| e.contains("frame decode failed")),
            "{:?}",
            report.errors
        );
        assert!(m.credits_balanced(), "credit leak: {m:?}");
    }
}
