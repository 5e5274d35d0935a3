//! Live heap bytes a deployed relay pipeline keeps, and bytes a report adds
//! when the run ends.
//!
//! A counting global allocator tracks the bytes live across every thread
//! and their peak. 200 in-process relays (`src → work(+double) → sink`, one
//! device) are deployed on a one-worker reactor and run until each has
//! delivered a frame; the live bytes they added, divided by 200, are one
//! pipeline's footprint: its channels and their queues, its tasks, its
//! routes, its metric cells. Then the peak is reset to what is live and
//! `finish()` runs: the peak it reaches above that, per report, is what
//! handing a pipeline's report over costs on top of the deployment it
//! reports on.
//!
//! Last, what is left: once the reports are dropped, the live bytes must be
//! back within [`LEFT_CEILING`] of the reading taken before the runtime was
//! built — the runtime's threads, its pipelines and everything they own are
//! gone. A second round deploys the same fleet and drops the runtime
//! without `finish()`, which must free it all the same.
//!
//! A third round deploys the fleet again and stops every relay with
//! `stop_pipeline`. 300 ms later — every deadline a stopped task had armed
//! has fired — the live bytes the fleet added, divided by 200, are what one
//! stopped relay keeps: its final report, held for `metrics`,
//! `checkpoint_for` and `finish()`, and nothing else ([`STOPPED_CEILING`]).
//! After `finish()` and its reports, this round too must leave no more than
//! [`LEFT_CEILING`].
//!
//! A fourth round deploys one relay whose sink logs a line every frame, as
//! a display does. Once its log ring is full (at [`RING_FULL`] deliveries)
//! the live bytes are read, and again at [`LOGGED`] deliveries: a running
//! pipeline's memory may not grow with the frames it logs
//! ([`LOG_CEILING`]). While every line was kept, it grew ≈ 1 MB over that
//! span.
//!
//! Readings (x86-64 Linux, debug build; they repeat to within a few bytes):
//!
//! | code                                                  | B per pipeline | B per report |
//! |-------------------------------------------------------|---------------:|-------------:|
//! | metric maps as `BTreeMap`s, a boxed runner behind a   |         15 946 |        5 812 |
//! | cache-line-padded task state, a channel's queue in an |                |              |
//! | `Arc` of its own, metrics cloned into final reports   |                |              |
//! | metric cells resolved at deploy, one allocation per   |          9 550 |          735 |
//! | task and per channel, metrics handed over at the end  |                |              |
//! | the runtime owns its tasks (no task table, no ids), a |          9 522 |          735 |
//! | channel names its consumer by a `Weak`                |                |              |
//! | no telemetry hub per pipeline                         |          9 317 |          735 |
//! | no in-runtime heartbeat layer                         |          8 896 |          703 |
//! | a bounded log ring per pipeline                       |          8 928 |          703 |
//!
//! The ceilings are the second row plus 10 %. Before the runtime owned its
//! tasks (a channel held its consumer, whose runner held the channel), this
//! fleet left 1 487 890 B live after `finish()` and its reports were
//! dropped, and 1 863 290 B after a plain drop.
//!
//! | code                                                  | B per stopped relay |
//! |-------------------------------------------------------|--------------------:|
//! | a stopped pipeline keeps its whole shared state       |               7 761 |
//! | a stopped pipeline keeps only its final report        |               2 598 |

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use videopipe_core::deploy::{plan, DeploymentPlan, DeviceSpec, Placement};
use videopipe_core::message::Payload;
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleRegistry};
use videopipe_core::reactor::{ReactorConfig, ReactorRuntime};
use videopipe_core::runtime::RuntimeConfig;
use videopipe_core::service::{Service, ServiceRegistry, ServiceRequest, ServiceResponse};
use videopipe_core::spec::{ModuleSpec, PipelineSpec};
use videopipe_core::PipelineError;
use videopipe_media::FrameStore;

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The highest `LIVE` since it was last reset.
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator plus a running count of live bytes and their peak.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method delegates to the system allocator with the caller's
// arguments unchanged; the only additions are relaxed updates of two static
// atomics, which neither allocate nor touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes one deployed relay pipeline may keep.
const PIPELINE_CEILING: i64 = 10_500;

/// Heap bytes `finish()` may add per report at its peak.
const REPORT_CEILING: i64 = 810;

/// Live heap bytes a finished or dropped runtime may leave behind, for the
/// whole fleet.
const LEFT_CEILING: i64 = 1024;

/// Live heap bytes a stopped relay may keep: its final report.
const STOPPED_CEILING: i64 = 3000;

const PIPELINES: usize = 200;

/// Deliveries by which a relay logging every frame has filled its log ring.
const RING_FULL: u64 = 4_000;

/// Deliveries at which the logging relay's live bytes are read again.
const LOGGED: u64 = 20_000;

/// Live heap bytes the logging relay may gain between [`RING_FULL`] and
/// [`LOGGED`] deliveries.
const LOG_CEILING: i64 = 2048;

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

/// Logs a line and returns the frame's credit.
struct LoggingSink;
impl Module for LoggingSink {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(_) = event {
            ctx.log("frame shown");
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

fn one_worker() -> ReactorRuntime {
    ReactorRuntime::new(ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    })
}

/// Deploys every plan on `rt` and returns once each relay has delivered a
/// frame.
fn deploy_fleet(
    rt: &mut ReactorRuntime,
    plans: &[DeploymentPlan],
    modules: &ModuleRegistry,
    services: &ServiceRegistry,
) {
    let ids: Vec<usize> = plans
        .iter()
        .map(|plan| {
            let config = RuntimeConfig {
                fps: 10.0,
                credits: 1,
                ..RuntimeConfig::default()
            };
            rt.add_pipeline(plan, modules, services, config).unwrap()
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while ids.iter().any(|&id| rt.deliveries_for(id) == 0) {
        assert!(Instant::now() < deadline, "a relay delivered no frame");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_deployed_relay_and_its_final_report_stay_under_their_ceilings() {
    let mut modules = ModuleRegistry::new();
    modules.register("Src", || Box::new(Src));
    modules.register("Work", || Box::new(Work));
    modules.register("Sink", || Box::new(Sink));
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(Double));
    // Plans are built before the count starts: they are the caller's, not
    // the deployment's.
    let plans: Vec<DeploymentPlan> = (0..PIPELINES)
        .map(|p| relay_plan(&format!("relay{p}")))
        .collect();
    let at_start = LIVE.load(Ordering::Relaxed);
    let mut rt = one_worker();
    let before = LIVE.load(Ordering::Relaxed);
    deploy_fleet(&mut rt, &plans, &modules, &services);
    let per_pipeline = (LIVE.load(Ordering::Relaxed) - before) / PIPELINES as i64;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let reports = rt.finish();
    let per_report = (PEAK.load(Ordering::Relaxed) - before) / PIPELINES as i64;
    assert_eq!(reports.len(), PIPELINES);
    for report in &reports {
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert!(report.metrics.frames_delivered > 0);
    }
    drop(reports);
    let after_finish = LIVE.load(Ordering::Relaxed) - at_start;

    let at_start = LIVE.load(Ordering::Relaxed);
    let mut rt = one_worker();
    deploy_fleet(&mut rt, &plans, &modules, &services);
    drop(rt);
    let after_drop = LIVE.load(Ordering::Relaxed) - at_start;

    // Third round: every relay stopped mid-run. Once the deadlines their
    // tasks had armed have fired (a tick is 100 ms), each keeps only its
    // final report.
    let at_start = LIVE.load(Ordering::Relaxed);
    let mut rt = one_worker();
    let before = LIVE.load(Ordering::Relaxed);
    deploy_fleet(&mut rt, &plans, &modules, &services);
    for id in 0..PIPELINES {
        assert!(rt.stop_pipeline(id));
    }
    std::thread::sleep(Duration::from_millis(300));
    let per_stopped = (LIVE.load(Ordering::Relaxed) - before) / PIPELINES as i64;
    let reports = rt.finish();
    assert!(reports.iter().all(|r| r.metrics.frames_delivered > 0));
    drop(reports);
    let after_stop = LIVE.load(Ordering::Relaxed) - at_start;

    // Fourth round: one relay whose sink logs every frame, as fast as it
    // goes.
    let mut logging = ModuleRegistry::new();
    logging.register("Src", || Box::new(Src));
    logging.register("Work", || Box::new(Work));
    logging.register("Sink", || Box::new(LoggingSink));
    let mut rt = one_worker();
    let config = RuntimeConfig {
        fps: 100_000.0,
        credits: 1,
        ..RuntimeConfig::default()
    };
    let id = rt
        .add_pipeline(&plans[0], &logging, &services, config)
        .unwrap();
    let live_at = |deliveries: u64| {
        let deadline = Instant::now() + Duration::from_secs(60);
        while rt.deliveries_for(id) < deliveries {
            assert!(Instant::now() < deadline, "the logging relay stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        (LIVE.load(Ordering::Relaxed), rt.deliveries_for(id))
    };
    let (full, full_at) = live_at(RING_FULL);
    let (logged, logged_at) = live_at(LOGGED);
    let log_growth = logged - full;
    let per_10k = log_growth * 10_000 / (logged_at - full_at) as i64;
    let report = rt.finish().remove(0);
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    println!("{per_pipeline} live heap bytes per relay pipeline, {per_report} added per report");
    println!(
        "{after_finish} live heap bytes left by {PIPELINES} relays after finish() and their \
         reports, {after_drop} after a plain drop"
    );
    println!(
        "{per_stopped} live heap bytes per stopped relay, {after_stop} left after stopping \
         {PIPELINES} relays, finish() and their reports"
    );
    println!(
        "{log_growth} live heap bytes grown by a relay logging every frame from {full_at} to \
         {logged_at} deliveries: {per_10k} bytes grown per 10 000 logged frames"
    );
    assert!(
        per_pipeline <= PIPELINE_CEILING,
        "{per_pipeline} B per pipeline, ceiling {PIPELINE_CEILING}"
    );
    assert!(
        per_report <= REPORT_CEILING,
        "{per_report} B per report, ceiling {REPORT_CEILING}"
    );
    assert!(
        per_stopped <= STOPPED_CEILING,
        "{per_stopped} B per stopped relay, ceiling {STOPPED_CEILING}"
    );
    assert!(
        log_growth <= LOG_CEILING,
        "{log_growth} B grown from {full_at} to {logged_at} logged frames, ceiling {LOG_CEILING}"
    );
    for (left, how) in [
        (after_finish, "finish()"),
        (after_drop, "a plain drop"),
        (after_stop, "stop_pipeline() and finish()"),
    ] {
        assert!(
            left <= LEFT_CEILING,
            "{left} B still live after {how}, ceiling {LEFT_CEILING}"
        );
    }
}
