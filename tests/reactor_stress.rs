//! Reactor scale + chaos stress: 1,000 concurrent pipelines with mixed
//! fault injection must complete with ≥90% delivery, zero wedged
//! pipelines, and a thread count bounded by cores + a small constant —
//! the load that motivated replacing thread-per-module execution
//! (ISSUE 7 / DESIGN.md §5.11).

use std::sync::Arc;
use std::time::{Duration, Instant};
use videopipe::core::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
use videopipe::core::prelude::*;
use videopipe::core::reactor::{ReactorConfig, ReactorRuntime};
use videopipe::core::service::{ChaosMode, ChaosService, ServiceCost};
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

struct Doubler {
    cost: Duration,
}
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
        ServiceCost::flat(self.cost)
    }
}

fn stress_plan(name: &str) -> DeploymentPlan {
    let spec = PipelineSpec::new(name)
        .with_module(ModuleSpec::new("src", "Src").with_next("mid"))
        .with_module(
            ModuleSpec::new("mid", "Mid")
                .with_service("doubler")
                .with_next("sink"),
        )
        .with_module(ModuleSpec::new("sink", "Sink"));
    let devices = vec![DeviceSpec::new("one", 1.0)
        .with_containers(1)
        .with_service("doubler")];
    let placement = Placement::new()
        .assign("src", "one")
        .assign("mid", "one")
        .assign("sink", "one");
    plan(&spec, &devices, &placement).unwrap()
}

fn module_registry() -> ModuleRegistry {
    let mut modules = ModuleRegistry::new();
    modules.register("Src", || Box::new(Src));
    modules.register("Mid", || Box::new(Mid));
    modules.register("Sink", || Box::new(Sink));
    modules
}

fn service_registry(chaos: Option<ChaosMode>) -> ServiceRegistry {
    let mut services = ServiceRegistry::new();
    let doubler: Arc<dyn Service> = Arc::new(Doubler {
        cost: Duration::from_millis(1),
    });
    match chaos {
        Some(mode) => {
            services.install(Arc::new(ChaosService::with_mode(doubler, mode)) as Arc<dyn Service>)
        }
        None => services.install(doubler),
    }
    services
}

/// The reactor's OS threads in this process, by name, from /proc (Linux
/// CI target). Only `vp-reactor-*` threads count: the test harness starts
/// the other tests' threads whenever it likes, also mid-deploy. A thread
/// names itself once it runs, so a just-spawned one may not count yet.
fn reactor_os_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|name| name.starts_with("vp-reactor"))
        .count()
}

/// Serializes the two chaos-stress variants: each deploys 1,000 pipelines
/// and counts the process's reactor threads, so overlapping runs would see
/// each other's threads and load.
static STRESS_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The 1,000-pipeline chaos run at a given worker count. Running it at
/// both `workers=1` and `workers=cores` pins semantics equivalence: the
/// multi-core scheduler (local queues, stealing, sharded timers) must
/// change throughput only, never delivery, credit conservation or
/// wedge-freedom.
fn chaos_stress(workers: usize) {
    let _serial = STRESS_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const PIPELINES: usize = 1_000;
    let modules = module_registry();
    let clean = service_registry(None);
    // A chaos-matrix subset: deterministic every-Nth failures, service
    // panics (executor crashes) and seeded probabilistic failures. Delay
    // modes are covered by the threaded chaos matrix; here the point is
    // volume.
    let flaky = service_registry(Some(ChaosMode::FailEveryN(5)));
    let panicky = service_registry(Some(ChaosMode::PanicEveryN(9)));
    let coinflip = service_registry(Some(ChaosMode::FailWithProbability {
        seed: 7,
        probability: 0.1,
    }));

    let mut rt = ReactorRuntime::new(ReactorConfig {
        workers,
        ..ReactorConfig::default()
    });
    let base_threads = rt.thread_count();
    let spawned = Instant::now();
    while reactor_os_threads() != base_threads {
        assert!(
            spawned.elapsed() < Duration::from_secs(5),
            "{} reactor threads in /proc, runtime reports {base_threads}",
            reactor_os_threads()
        );
        std::thread::yield_now();
    }
    for i in 0..PIPELINES {
        let services = match i % 7 {
            0 => &flaky,
            3 => &panicky,
            5 => &coinflip,
            _ => &clean,
        };
        let config = RuntimeConfig {
            fps: 10.0,
            credits: 1,
            resilience: ResilienceConfig {
                // Zero-backoff retries: chaos failures are transient by
                // construction, so three attempts recover nearly all.
                retry: RetryPolicy::exponential(3, Duration::ZERO, Duration::ZERO),
                ..ResilienceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(
            &stress_plan(&format!("stress-{i}")),
            &modules,
            services,
            config,
        )
        .unwrap();
    }
    assert_eq!(rt.pipeline_count(), PIPELINES);
    // Deploying 1,000 pipelines must not spawn a single extra thread.
    assert_eq!(rt.thread_count(), base_threads);
    assert_eq!(
        reactor_os_threads(),
        base_threads,
        "deploy changed the reactor's OS thread count"
    );

    let started = Instant::now();
    let reports = rt.run_until_total_deliveries(3 * PIPELINES as u64, Duration::from_secs(180));
    let elapsed = started.elapsed();

    let mut delivered = 0u64;
    let mut faulted = 0u64;
    let mut wedged = Vec::new();
    for (i, report) in reports.iter().enumerate() {
        delivered += report.metrics.frames_delivered;
        faulted += report.metrics.frames_faulted;
        if report.metrics.frames_delivered == 0 {
            wedged.push(i);
        }
        // Credit conservation per pipeline: nothing leaked under chaos.
        assert_eq!(
            report.metrics.frames_admitted,
            report.metrics.frames_delivered
                + report.metrics.frames_faulted
                + u64::from(report.metrics.in_flight_at_end),
            "pipeline {i} leaked credits"
        );
    }
    assert!(
        delivered >= 3 * PIPELINES as u64,
        "only {delivered} frames delivered fleet-wide in {elapsed:?}"
    );
    assert!(
        wedged.is_empty(),
        "{} wedged pipelines (first few: {:?})",
        wedged.len(),
        &wedged[..wedged.len().min(5)]
    );
    let attempted = delivered + faulted;
    assert!(
        delivered * 10 >= attempted * 9,
        "delivery ratio below 90%: {delivered}/{attempted}"
    );
    // The scheduler telemetry covers every worker and accounts real work.
    let sched = &reports[0].scheduler;
    assert_eq!(sched.len(), workers, "one stats entry per worker");
    let tasks_run: u64 = sched.iter().map(|w| w.tasks_run).sum();
    assert!(tasks_run > 0, "workers reported zero tasks run");
}

#[test]
fn one_thousand_pipelines_with_mixed_faults_deliver() {
    chaos_stress(1);
}

#[test]
fn one_thousand_pipelines_with_mixed_faults_deliver_multicore() {
    chaos_stress(
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    );
}

#[test]
fn slow_modeled_service_does_not_starve_cohosted_pipelines() {
    // Satellite: modeled service costs are timer deferrals, not worker
    // sleeps. One worker, pipeline A's service models 80ms per call and
    // pipeline B's models 1ms; if dispatch slept out the model, the lone
    // worker would spend ~100% of wall time asleep on A and B would
    // starve. With deferral, B streams freely.
    let _serial = STRESS_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let modules = module_registry();
    let mut slow = ServiceRegistry::new();
    slow.install(Arc::new(Doubler {
        cost: Duration::from_millis(80),
    }) as Arc<dyn Service>);
    let mut fast = ServiceRegistry::new();
    fast.install(Arc::new(Doubler {
        cost: Duration::from_millis(1),
    }) as Arc<dyn Service>);

    let mut rt = ReactorRuntime::new(ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    });
    let config = |fps: f64| RuntimeConfig {
        fps,
        credits: 2,
        time_scale: 1.0,
        ..RuntimeConfig::default()
    };
    let a = rt
        .add_pipeline(&stress_plan("slow"), &modules, &slow, config(50.0))
        .unwrap();
    let b = rt
        .add_pipeline(&stress_plan("fast"), &modules, &fast, config(100.0))
        .unwrap();

    let reports = rt.run_for(Duration::from_secs(2));
    let slow_delivered = reports[a].metrics.frames_delivered;
    let fast_delivered = reports[b].metrics.frames_delivered;
    assert!(
        slow_delivered >= 1,
        "slow pipeline made no progress: {:?}",
        reports[a].errors
    );
    // B is paced at 100 fps; even half rate over 2s is 100 frames. A
    // starved worker would leave it near zero.
    assert!(
        fast_delivered >= 60,
        "fast pipeline starved behind slow modeled service: {fast_delivered} delivered \
         (slow pipeline: {slow_delivered})"
    );
}
