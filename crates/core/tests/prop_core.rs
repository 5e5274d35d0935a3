//! Property tests for the core: spec validation, config robustness, flow
//! control, the deployment planner, and degradation × batching semantics
//! through the full runtime.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use videopipe_core::config;
use videopipe_core::deploy::{plan, DeviceSpec, Placement};
use videopipe_core::message::Payload;
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleRegistry};
use videopipe_core::resilience::{DegradationPolicy, ResilienceConfig};
use videopipe_core::runtime::{BatchConfig, LocalRuntime, RunReport, RuntimeConfig};
use videopipe_core::service::{
    Service, ServiceCost, ServiceRegistry, ServiceRequest, ServiceResponse,
};
use videopipe_core::spec::{ModuleSpec, PipelineSpec};
use videopipe_core::PipelineError;
use videopipe_media::FrameStore;

/// A random DAG built by only allowing edges from lower to higher indices
/// (guaranteed acyclic).
fn arb_dag() -> impl Strategy<Value = PipelineSpec> {
    (2usize..8).prop_flat_map(|n| {
        let edges = proptest::collection::vec(
            (0..n, 0..n).prop_filter("forward edges only", |(a, b)| a < b),
            0..12,
        );
        edges.prop_map(move |edges| {
            let mut spec = PipelineSpec::new("dag");
            for i in 0..n {
                let mut m = ModuleSpec::new(format!("m{i}"), "Impl");
                for (a, b) in &edges {
                    if *a == i && !m.next_modules.contains(&format!("m{b}")) {
                        m = m.with_next(format!("m{b}"));
                    }
                }
                spec = spec.with_module(m);
            }
            spec
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Forward-edge DAGs always validate, and the topological order
    /// respects every edge.
    #[test]
    fn forward_dags_validate_with_consistent_topo_order(spec in arb_dag()) {
        spec.validate().unwrap();
        let order = spec.topo_order().unwrap();
        prop_assert_eq!(order.len(), spec.modules.len());
        let position = |name: &str| order.iter().position(|n| n == name).unwrap();
        for edge in spec.edges() {
            prop_assert!(position(&edge.from) < position(&edge.to),
                "edge {}->{} violates topo order", edge.from, edge.to);
        }
        // Depth is bounded by module count and at least 1.
        let depth = spec.depth();
        prop_assert!(depth >= 1 && depth <= spec.modules.len());
    }

    /// The config lexer/parser never panics on arbitrary input.
    #[test]
    fn config_parse_never_panics(input in "\\PC{0,256}") {
        let _ = config::parse(&input);
    }

    /// Nor on inputs assembled from config-ish tokens.
    #[test]
    fn config_parse_never_panics_on_tokens(parts in proptest::collection::vec(
        proptest::sample::select(vec![
            "modules:", "[", "]", "{", "}", "name:", "a", "include", "(", ")",
            "\"A.js\"", "next_module:", "service:", "'svc'", ",", "//x\n", "endpoint:",
        ]),
        0..40,
    )) {
        let input = parts.join(" ");
        let _ = config::parse(&input);
    }

    /// Any module→device assignment over devices with full service coverage
    /// produces a valid plan whose edges/bindings cover the whole spec.
    #[test]
    fn full_coverage_placements_always_plan(spec in arb_dag(), assignment in proptest::collection::vec(0usize..3, 8)) {
        let devices = vec![
            DeviceSpec::new("d0", 1.0).with_containers(1),
            DeviceSpec::new("d1", 2.0).with_containers(2),
            DeviceSpec::new("d2", 0.5).with_containers(1),
        ];
        let mut placement = Placement::new();
        for (i, m) in spec.modules.iter().enumerate() {
            placement = placement.assign(m.name.clone(), format!("d{}", assignment[i % assignment.len()] % 3));
        }
        let deployment = plan(&spec, &devices, &placement).unwrap();
        prop_assert_eq!(deployment.edges.len(), spec.edges().len());
        // Every module is on exactly one device and edge cross flags agree
        // with the placement.
        for e in &deployment.edges {
            let from_dev = placement.device_for(&e.from).unwrap();
            let to_dev = placement.device_for(&e.to).unwrap();
            prop_assert_eq!(e.cross_device, from_dev != to_dev);
        }
    }
}

/// A deterministic service with data-dependent success: even counts double,
/// odd counts fail, everything else is a payload error.
struct ParityDoubler;
impl Service for ParityDoubler {
    fn name(&self) -> &str {
        "parity"
    }
    fn handle(
        &self,
        request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        match request.payload {
            Payload::Count(n) if n % 2 == 0 => Ok(ServiceResponse::new(Payload::Count(n * 2))),
            Payload::Count(n) => Err(PipelineError::Service {
                service: "parity".into(),
                reason: format!("odd {n}"),
            }),
            ref other => Err(videopipe_core::service::wrong_payload(
                "parity", "count", other,
            )),
        }
    }
}

fn arb_request() -> impl Strategy<Value = ServiceRequest> {
    prop_oneof![
        (0u64..1000).prop_map(|n| ServiceRequest::new("op", Payload::Count(n))),
        Just(ServiceRequest::new("op", Payload::Empty)),
        ".{0,12}".prop_map(|s| ServiceRequest::new("op", Payload::Text(s))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The default `handle_batch` is observably identical to calling
    /// `handle` sequentially — same successes, same failures, same order —
    /// for any mix of passing and failing requests.
    #[test]
    fn default_handle_batch_equals_sequential_handle(
        requests in proptest::collection::vec(arb_request(), 0..24),
    ) {
        let svc = ParityDoubler;
        let store = FrameStore::new();
        let batched = svc.handle_batch(&requests, &store);
        prop_assert_eq!(batched.len(), requests.len());
        for (request, batched) in requests.iter().zip(batched) {
            match (svc.handle(request, &store), batched) {
                (Ok(single), Ok(batched)) => prop_assert_eq!(single.payload, batched.payload),
                (Err(single), Err(batched)) => {
                    prop_assert_eq!(single.to_string(), batched.to_string())
                }
                (single, batched) => {
                    return Err(TestCaseError::fail(format!(
                        "batch/sequential disagree: {single:?} vs {batched:?}"
                    )))
                }
            }
        }
    }
}

// ---- DegradationPolicy × batching through the full runtime ----
//
// Several caller modules share one batched service executor; the drain
// policy packs their concurrent requests into `handle_batch` calls whose
// slots fail independently. Two invariants ride on the slot → correlation
// routing: a LastKnownGood degraded response served to a caller must come
// from *that caller's* cache (never another slot's frame), and the caller
// side records one circuit-breaker event per request, never one per batch.

/// Slot tag stride: request `n` encodes `(tick, slot)` as `tick * 16 + slot`.
const SLOT_STRIDE: u64 = 16;

/// Fans one slot-tagged message per tick to every worker.
struct FanSource {
    workers: usize,
    seq: u64,
}
impl Module for FanSource {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::FrameTick { .. } = event {
            for w in 0..self.workers {
                ctx.call_module(
                    &format!("w{w}"),
                    Payload::Count(self.seq * SLOT_STRIDE + w as u64),
                )?;
            }
            self.seq += 1;
        }
        Ok(())
    }
}

/// Worker `slot`: calls the shared batched service and cross-checks that
/// every response it gets back — fresh or degraded — carries its own slot
/// tag. A stale (last-known-good) response is recognised by its payload
/// differing from the request's doubling.
struct SlotWorker {
    slot: u64,
    violations: Arc<Mutex<Vec<String>>>,
    stale_served: Arc<AtomicU64>,
}
impl Module for SlotWorker {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            let sent = match msg.payload {
                Payload::Count(n) => n,
                _ => return Err(PipelineError::BadPayload("expected a count")),
            };
            // An error is a cold last-known-good cache: the frame drops,
            // it is never substituted with someone else's.
            if let Ok(resp) = ctx.call_service("parity", ServiceRequest::new("op", msg.payload)) {
                let v = match resp.payload {
                    Payload::Count(v) => v,
                    ref other => {
                        self.violations
                            .lock()
                            .unwrap()
                            .push(format!("slot {} got non-count {other:?}", self.slot));
                        0
                    }
                };
                if v != 0 {
                    if v != sent * 2 {
                        self.stale_served.fetch_add(1, Ordering::SeqCst);
                    }
                    if (v / 2) % SLOT_STRIDE != self.slot {
                        self.violations.lock().unwrap().push(format!(
                            "slot {} served frame of slot {} (sent {sent}, got {v})",
                            self.slot,
                            (v / 2) % SLOT_STRIDE
                        ));
                    }
                }
            }
            ctx.call_module("sink", Payload::Count(1))?;
        }
        Ok(())
    }
}

/// Returns the flow-control credit once every worker's response arrived.
struct CreditSink {
    workers: usize,
    seen: usize,
}
impl Module for CreditSink {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(_) = event {
            self.seen += 1;
            if self.seen.is_multiple_of(self.workers.max(1)) {
                ctx.signal_source()?;
            }
        }
        Ok(())
    }
}

/// Batched service with per-slot data-dependent failures: request `n`
/// fails iff `(tick + slot) % modulus == 0` (`modulus` 1 ⇒ everything
/// fails), so most batches mix successes and errors across slots. The
/// explicit `handle_batch` mirrors a real batched kernel returning
/// per-slot results. Costs are modeled (2 ms base, 250 µs batched
/// follower) so the executor saturates and the drain policy actually
/// forms batches.
struct PerSlotParity {
    modulus: u64,
    handled: Arc<AtomicU64>,
}
impl PerSlotParity {
    fn slot_result(&self, request: &ServiceRequest) -> Result<ServiceResponse, PipelineError> {
        match request.payload {
            Payload::Count(n) => {
                self.handled.fetch_add(1, Ordering::SeqCst);
                let tick = n / SLOT_STRIDE;
                let slot = n % SLOT_STRIDE;
                if (tick + slot).is_multiple_of(self.modulus) {
                    Err(PipelineError::Service {
                        service: "parity".into(),
                        reason: format!("injected failure for {n}"),
                    })
                } else {
                    Ok(ServiceResponse::new(Payload::Count(n * 2)))
                }
            }
            ref other => Err(videopipe_core::service::wrong_payload(
                "parity", "count", other,
            )),
        }
    }
}
impl Service for PerSlotParity {
    fn name(&self) -> &str {
        "parity"
    }
    fn handle(
        &self,
        request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        self.slot_result(request)
    }
    fn handle_batch(
        &self,
        requests: &[ServiceRequest],
        _store: &FrameStore,
    ) -> Vec<Result<ServiceResponse, PipelineError>> {
        requests.iter().map(|r| self.slot_result(r)).collect()
    }
    fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
        ServiceCost::flat(Duration::from_millis(2)).with_batched_base(Duration::from_micros(250))
    }
}

struct DegradedRun {
    report: RunReport,
    violations: Arc<Mutex<Vec<String>>>,
    stale_served: Arc<AtomicU64>,
    handled: Arc<AtomicU64>,
}

/// Drives `workers` callers against the shared batched service under
/// `DegradationPolicy::LastKnownGood` for a short real-time burst.
fn run_degraded(workers: usize, max_batch: usize, modulus: u64, threshold: u32) -> DegradedRun {
    let mut spec_src = ModuleSpec::new("src", "FanSource");
    for w in 0..workers {
        spec_src = spec_src.with_next(format!("w{w}"));
    }
    let mut spec = PipelineSpec::new("degraded").with_module(spec_src);
    for w in 0..workers {
        spec = spec.with_module(
            ModuleSpec::new(format!("w{w}"), "SlotWorker")
                .with_service("parity")
                .with_next("sink"),
        );
    }
    spec = spec.with_module(ModuleSpec::new("sink", "CreditSink"));
    let devices = vec![DeviceSpec::new("dev", 1.0)
        .with_containers(1)
        .with_service("parity")];
    let mut placement = Placement::new().assign("src", "dev").assign("sink", "dev");
    for w in 0..workers {
        placement = placement.assign(format!("w{w}"), "dev");
    }
    let deployed = plan(&spec, &devices, &placement).expect("degraded plan");

    let violations = Arc::new(Mutex::new(Vec::new()));
    let stale_served = Arc::new(AtomicU64::new(0));
    let handled = Arc::new(AtomicU64::new(0));
    let mut modules = ModuleRegistry::new();
    let src_workers = workers;
    modules.register("FanSource", move || {
        Box::new(FanSource {
            workers: src_workers,
            seq: 0,
        })
    });
    // Worker instances are created in module-name order (w0, w1, ...), so
    // a shared counter hands each its slot tag.
    let next_slot = Arc::new(AtomicU64::new(0));
    let worker_violations = Arc::clone(&violations);
    let worker_stale = Arc::clone(&stale_served);
    modules.register("SlotWorker", move || {
        Box::new(SlotWorker {
            slot: next_slot.fetch_add(1, Ordering::SeqCst) % SLOT_STRIDE,
            violations: Arc::clone(&worker_violations),
            stale_served: Arc::clone(&worker_stale),
        })
    });
    let sink_workers = workers;
    modules.register("CreditSink", move || {
        Box::new(CreditSink {
            workers: sink_workers,
            seen: 0,
        })
    });
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(PerSlotParity {
        modulus,
        handled: Arc::clone(&handled),
    }));

    let config = RuntimeConfig {
        fps: 200.0,
        credits: 8,
        batch: BatchConfig::up_to(max_batch),
        resilience: ResilienceConfig {
            breaker_failure_threshold: threshold,
            degradation: DegradationPolicy::LastKnownGood,
            ..ResilienceConfig::default()
        },
        ..RuntimeConfig::default()
    };
    let runtime = LocalRuntime::deploy(&deployed, &modules, &services, config).expect("deploy");
    let report = runtime.run_for(Duration::from_millis(300));
    DegradedRun {
        report,
        violations,
        stale_served,
        handled,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under LastKnownGood with per-slot `handle_batch` failures, every
    /// response a caller observes carries that caller's own slot tag —
    /// degraded responses are always the caller's own last good frame —
    /// and the degraded path actually engages (some stale frames served).
    #[test]
    fn lkg_batched_responses_never_cross_slots(
        workers in 2usize..5,
        max_batch in 1usize..9,
        modulus in 2u64..5,
    ) {
        let run = run_degraded(workers, max_batch, modulus, 1_000_000);
        prop_assert!(run.report.errors.is_empty(), "{:?}", run.report.errors);
        let violations = run.violations.lock().unwrap();
        prop_assert!(violations.is_empty(), "cross-slot serving: {violations:?}");
        // With (tick + slot) % modulus failures every worker alternates
        // between success and failure, so the LKG cache must have served.
        prop_assert!(
            run.stale_served.load(Ordering::SeqCst) > 0,
            "degraded path never engaged (handled {})",
            run.handled.load(Ordering::SeqCst)
        );
    }
}

#[test]
fn breaker_records_one_event_per_request_not_per_batch() {
    // Every slot fails (modulus 1) and the threshold is unreachable, so
    // the breaker never opens and its consecutive-failure counter is an
    // exact count of recorded events. Per-request recording means it must
    // match the number of requests the service actually handled — a
    // per-batch recording would undercount by the mean batch size, a
    // per-slot-per-batch duplication would overcount.
    let run = run_degraded(4, 8, 1, u32::MAX);
    assert!(run.report.errors.is_empty(), "{:?}", run.report.errors);
    let snap = run.report.breakers.get("parity").expect("breaker snapshot");
    assert_eq!(snap.opened, 0, "threshold must be unreachable: {snap:?}");
    let dispatch = run
        .report
        .metrics
        .dispatch
        .get("dev/parity")
        .copied()
        .unwrap_or_default();
    assert!(
        dispatch.mean_batch() > 1.0,
        "batches never formed (mean {}), the property is vacuous",
        dispatch.mean_batch()
    );
    let handled = run.handled.load(Ordering::SeqCst);
    let recorded = u64::from(snap.consecutive_failures);
    assert!(handled > 0, "service never ran");
    // Callers record after the response arrives, so at shutdown at most
    // one in-flight request per worker can be handled but unrecorded.
    assert!(recorded <= handled, "overcounted: {recorded} > {handled}");
    assert!(
        handled - recorded <= 4,
        "undercounted: {recorded} of {handled} handled requests recorded \
         (per-batch recording?)"
    );
}

#[test]
fn self_loops_and_cycles_always_rejected() {
    // Deterministic companion to the DAG property: reversed edges cycle.
    let spec = PipelineSpec::new("cycle")
        .with_module(ModuleSpec::new("a", "I").with_next("b"))
        .with_module(ModuleSpec::new("b", "I").with_next("c"))
        .with_module(ModuleSpec::new("c", "I").with_next("a"));
    assert!(spec.validate().is_err());
    assert!(spec.topo_order().is_err());
}
