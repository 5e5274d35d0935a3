//! Heap allocations per delivered frame, in the steady state of an
//! in-process relay on the reactor.
//!
//! A counting global allocator sees every allocation of every thread. The
//! relay (`src → work(+double) → sink`, one device, in-process) runs until
//! it is warm; then every allocation the process makes is divided by the
//! frames delivered meanwhile. Since channels are resolved at deploy, a
//! send allocates no channel name, no reply name and no metric key: what is
//! left is the payloads, the request and response encodings and the service
//! batch's vectors. Spelling names per message again would add a dozen per
//! frame and fail the ceiling.
//!
//! The same relay then runs again with a circuit breaker and the
//! last-known-good policy on, and must read what the plain relay read: each
//! caller holds its breaker and its last-good cell from deploy. Keyed by
//! service name per call, they cost three allocations per frame more (21.00
//! against 18.00).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use videopipe_core::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
use videopipe_core::message::Payload;
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleRegistry};
use videopipe_core::reactor::{ReactorConfig, ReactorRuntime};
use videopipe_core::resilience::{DegradationPolicy, ResilienceConfig};
use videopipe_core::runtime::RuntimeConfig;
use videopipe_core::service::{Service, ServiceRegistry, ServiceRequest, ServiceResponse};
use videopipe_core::spec::{ModuleSpec, PipelineSpec};
use videopipe_core::PipelineError;
use videopipe_media::FrameStore;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) by every thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a count of allocation calls.
struct Counting;

// SAFETY: every method delegates to the system allocator with the caller's
// arguments unchanged; the only addition is a relaxed increment of a static
// atomic, which neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per delivered frame may not exceed this: the count this
/// relay reads with channels resolved at deploy (18.0), plus 2.
/// The same relay read 43.0 while every send spelled its channel names.
const CEILING: f64 = 20.0;

/// Forwards each camera tick to `work`.
struct Src;
impl Module for Src {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::FrameTick { t_ns } = event {
            ctx.call_module("work", Payload::Count(t_ns))?;
        }
        Ok(())
    }
}

/// Doubles the count through the `double` service and forwards the result.
struct Work;
impl Module for Work {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            let resp = ctx.call_service("double", ServiceRequest::new("go", msg.payload))?;
            ctx.call_module("sink", resp.payload)?;
        }
        Ok(())
    }
}

/// Returns the frame's credit.
struct Sink;
impl Module for Sink {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(_) = event {
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
            _ => Err(PipelineError::BadPayload("expected a count")),
        }
    }
}

fn relay_plan(name: &str) -> DeploymentPlan {
    let spec = PipelineSpec::new(name)
        .with_module(ModuleSpec::new("src", "Src").with_next("work"))
        .with_module(
            ModuleSpec::new("work", "Work")
                .with_service("double")
                .with_next("sink"),
        )
        .with_module(ModuleSpec::new("sink", "Sink"));
    let devices = [DeviceSpec::new("one", 1.0)
        .with_containers(1)
        .with_service("double")];
    let placement = Placement::new()
        .assign("src", "one")
        .assign("work", "one")
        .assign("sink", "one");
    plan(&spec, &devices, &placement).unwrap()
}

/// Waits until the runtime has delivered `n` frames in total.
fn await_deliveries(rt: &ReactorRuntime, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while rt.deliveries() < n {
        assert!(
            Instant::now() < deadline,
            "{} of {n} frames",
            rt.deliveries()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs 8 relays configured by `config` on one worker until warm, and
/// returns the allocations per frame delivered while measured.
fn allocations_per_frame(config: &RuntimeConfig) -> f64 {
    const PIPELINES: usize = 8;
    const WARM_UP: u64 = 400;
    const MEASURED: u64 = 2_000;
    let mut modules = ModuleRegistry::new();
    modules.register("Src", || Box::new(Src));
    modules.register("Work", || Box::new(Work));
    modules.register("Sink", || Box::new(Sink));
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(Double));
    let mut rt = ReactorRuntime::new(ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    });
    for p in 0..PIPELINES {
        let plan = relay_plan(&format!("relay{p}"));
        rt.add_pipeline(&plan, &modules, &services, config.clone())
            .unwrap();
    }
    await_deliveries(&rt, WARM_UP);
    let (allocs, delivered) = (ALLOCATIONS.load(Ordering::Relaxed), rt.deliveries());
    await_deliveries(&rt, delivered + MEASURED);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs;
    let delivered = rt.deliveries() - delivered;
    let reports = rt.finish();
    for report in &reports {
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }
    let per_frame = allocs as f64 / delivered as f64;
    println!("{per_frame:.2} allocations per delivered frame ({allocs} / {delivered})");
    per_frame
}

#[test]
fn an_in_process_relay_allocates_at_most_the_ceiling_per_frame() {
    let plain = RuntimeConfig {
        fps: 400.0,
        ..RuntimeConfig::default()
    };
    let per_frame = allocations_per_frame(&plain);
    assert!(
        per_frame <= CEILING,
        "{per_frame:.2} allocations per delivered frame, ceiling {CEILING}"
    );
    // Run after the plain relay, in the same process: whatever a first
    // deployment warms up once is warm for both.
    let guarded = RuntimeConfig {
        resilience: ResilienceConfig {
            breaker_failure_threshold: 3,
            degradation: DegradationPolicy::LastKnownGood,
            ..ResilienceConfig::default()
        },
        ..plain
    };
    let guarded_per_frame = allocations_per_frame(&guarded);
    assert!(
        guarded_per_frame <= per_frame + 0.5,
        "{guarded_per_frame:.2} allocations per frame with a breaker and last-known-good, \
         {per_frame:.2} without"
    );
}
