//! Stateless services — the paper's container-hosted heavy lifting.
//!
//! Paper §2.2: "These services all receive needed data as input so they do
//! not require saving state. This allows the services to be shared among
//! different applications and also allows for horizontal scaling."
//!
//! Statelessness is enforced structurally: [`Service::handle`] takes
//! `&self`, so an implementation cannot accumulate per-request mutable state
//! without interior mutability (and none of the provided services use any).
//! The simulator exploits this: a service's *result* is independent of
//! timing, so data can be computed eagerly while queueing/compute time is
//! replayed on the virtual clock.

use crate::error::PipelineError;
use crate::message::Payload;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use videopipe_media::FrameStore;

/// A request to a stateless service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRequest {
    /// Operation name (services may expose several, e.g. the rep counter's
    /// `"fit"` and `"classify"`).
    pub op: String,
    /// Typed argument.
    pub payload: Payload,
}

impl ServiceRequest {
    /// Creates a request.
    pub fn new(op: impl Into<String>, payload: Payload) -> Self {
        ServiceRequest {
            op: op.into(),
            payload,
        }
    }

    /// Encodes `op` + payload for the wire (`[op_len u8][op][payload]`).
    pub fn encode(&self) -> bytes::Bytes {
        use bytes::BufMut;
        let payload = self.payload.encode();
        let mut buf = bytes::BytesMut::with_capacity(2 + self.op.len() + payload.len());
        buf.put_u8(self.op.len().min(255) as u8);
        buf.put_slice(&self.op.as_bytes()[..self.op.len().min(255)]);
        buf.put_slice(&payload);
        buf.freeze()
    }

    /// Decodes a request produced by [`ServiceRequest::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadPayload`] on truncation or bad UTF-8.
    pub fn decode(buf: &bytes::Bytes) -> Result<Self, PipelineError> {
        if buf.is_empty() {
            return Err(PipelineError::BadPayload("empty service request"));
        }
        let op_len = buf[0] as usize;
        if buf.len() < 1 + op_len {
            return Err(PipelineError::BadPayload("truncated service request"));
        }
        let op = std::str::from_utf8(&buf[1..1 + op_len])
            .map_err(|_| PipelineError::BadPayload("op not utf-8"))?
            .to_string();
        let payload = Payload::decode(&buf.slice(1 + op_len..))?;
        Ok(ServiceRequest { op, payload })
    }
}

/// A service response.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResponse {
    /// Typed result.
    pub payload: Payload,
}

impl ServiceResponse {
    /// Creates a response.
    pub fn new(payload: Payload) -> Self {
        ServiceResponse { payload }
    }

    /// Encodes the response payload for the wire.
    pub fn encode(&self) -> bytes::Bytes {
        self.payload.encode()
    }

    /// Decodes a response produced by [`ServiceResponse::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadPayload`] on malformed bytes.
    pub fn decode(buf: &bytes::Bytes) -> Result<Self, PipelineError> {
        Ok(ServiceResponse {
            payload: Payload::decode(buf)?,
        })
    }
}

/// The modeled compute cost of a service invocation on the *reference*
/// device (speed factor 1.0). Used by the simulator and by the local
/// runtime's optional cost emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCost {
    /// Fixed cost per invocation.
    pub base: Duration,
    /// Additional cost per KiB of request payload.
    pub per_kib: Duration,
    /// Fixed cost for the second and later requests of a micro-batch:
    /// setup work (model load, cache warm-up, kernel launch) is paid once by
    /// the first request and amortised by the rest. `None` means the service
    /// gains nothing from batching (`base` is charged every time).
    pub batched_base: Option<Duration>,
}

impl ServiceCost {
    /// A flat per-invocation cost.
    pub const fn flat(base: Duration) -> Self {
        ServiceCost {
            base,
            per_kib: Duration::ZERO,
            batched_base: None,
        }
    }

    /// Declares the amortised fixed cost for non-leading requests of a
    /// batch. Must not exceed `base` (a batch can't be slower per request
    /// than sequential dispatch under this model).
    ///
    /// # Panics
    ///
    /// Panics if `batched_base > base`.
    pub const fn with_batched_base(mut self, batched_base: Duration) -> Self {
        assert!(
            batched_base.as_nanos() <= self.base.as_nanos(),
            "batched_base must not exceed base"
        );
        self.batched_base = Some(batched_base);
        self
    }

    /// Total cost for a request of `payload_bytes`.
    pub fn for_bytes(&self, payload_bytes: usize) -> Duration {
        self.base + self.per_kib * (payload_bytes as u32 / 1024)
    }

    /// Cost contribution of one request inside a batch: the first request
    /// pays the full `base`, followers pay `batched_base` (or `base` when
    /// no discount is declared). The per-KiB term is always charged in full
    /// — payload bytes still have to be moved and decoded per request.
    pub fn for_batch_item(&self, first_in_batch: bool, payload_bytes: usize) -> Duration {
        let fixed = if first_in_batch {
            self.base
        } else {
            self.batched_base.unwrap_or(self.base)
        };
        fixed + self.per_kib * (payload_bytes as u32 / 1024)
    }
}

/// A stateless service.
///
/// The `store` argument gives access to the device-local frame store so a
/// [`Payload::FrameRef`] request can be resolved without copying pixels —
/// the service and module share the device, which is exactly the co-location
/// the paper advocates.
pub trait Service: Send + Sync {
    /// The service's registered name (e.g. `"pose_detector"`).
    fn name(&self) -> &str;

    /// Handles one request. Must be pure modulo the frame store lookup.
    ///
    /// # Errors
    ///
    /// Implementations return [`PipelineError::Service`] for malformed
    /// requests and propagate store misses.
    fn handle(
        &self,
        request: &ServiceRequest,
        store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError>;

    /// Handles a micro-batch of requests, returning one result per request
    /// in order. The default implementation dispatches each request through
    /// [`Service::handle`] sequentially, so overriding is purely an
    /// optimisation — results must match the sequential path exactly.
    ///
    /// Implementations that can share work across a batch (one fused pixel
    /// scan, reused scratch buffers, a single model activation) override
    /// this; the executor calls it whenever its drain policy collected more
    /// than zero requests, so `requests` is never empty but is often a
    /// singleton.
    fn handle_batch(
        &self,
        requests: &[ServiceRequest],
        store: &FrameStore,
    ) -> Vec<Result<ServiceResponse, PipelineError>> {
        requests.iter().map(|r| self.handle(r, store)).collect()
    }

    /// The modeled compute cost of `request` on the reference device.
    fn cost(&self, request: &ServiceRequest) -> ServiceCost {
        let _ = request;
        ServiceCost::flat(Duration::from_millis(1))
    }
}

/// Helper for implementations: the canonical "wrong payload" error.
pub fn wrong_payload(service: &str, expected: &str, got: &Payload) -> PipelineError {
    PipelineError::Service {
        service: service.to_string(),
        reason: format!("expected {expected} payload, got {}", got.kind_name()),
    }
}

/// How a [`ChaosService`] misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ChaosMode {
    /// Fail every `n`-th request (1 = every request).
    FailEveryN(u64),
    /// Fail each request independently with `probability`, decided by a
    /// deterministic hash of `seed` and the request number — two runs with
    /// the same seed fail the same requests.
    FailWithProbability {
        /// Base seed for the per-request decision.
        seed: u64,
        /// Failure probability in `[0, 1]`.
        probability: f64,
    },
    /// Sleep `delay` before answering every `every`-th request (a wedged
    /// container or GC pause; exercises the caller's per-call deadline).
    DelayEveryN {
        /// Which requests are delayed (1 = all).
        every: u64,
        /// Injected wall-clock delay.
        delay: Duration,
    },
    /// Panic on every `n`-th request (a crashed executor; exercises
    /// supervision of the service thread).
    PanicEveryN(u64),
    /// Fail every request inside the wall-clock window
    /// `[after, after + duration)` measured from construction — a scheduled
    /// outage that drives a circuit breaker open and, once healed, back
    /// closed through a half-open probe.
    Outage {
        /// Outage start, relative to construction.
        after: Duration,
        /// Outage length.
        duration: Duration,
    },
}

/// A fault-injection decorator: wraps any service and misbehaves according
/// to a [`ChaosMode`]. Used by resilience tests to verify that the runtime
/// returns the frame's flow-control credit and keeps the pipeline alive
/// when a service misbehaves (a crashed container, in the paper's
/// deployment terms).
pub struct ChaosService {
    inner: Arc<dyn Service>,
    mode: ChaosMode,
    calls: std::sync::atomic::AtomicU64,
    started: std::time::Instant,
}

impl ChaosService {
    /// Wraps `inner`, failing every `fail_every`-th request (1 = every
    /// request).
    ///
    /// # Panics
    ///
    /// Panics if `fail_every` is zero.
    pub fn new(inner: Arc<dyn Service>, fail_every: u64) -> Self {
        assert!(fail_every > 0, "fail_every must be at least 1");
        Self::with_mode(inner, ChaosMode::FailEveryN(fail_every))
    }

    /// Wraps `inner` with an arbitrary chaos mode.
    ///
    /// # Panics
    ///
    /// Panics on degenerate modes: a zero `n`/`every`, or a probability
    /// outside `[0, 1]`.
    pub fn with_mode(inner: Arc<dyn Service>, mode: ChaosMode) -> Self {
        match mode {
            ChaosMode::FailEveryN(n) | ChaosMode::PanicEveryN(n) => {
                assert!(n > 0, "fail_every must be at least 1");
            }
            ChaosMode::DelayEveryN { every, .. } => {
                assert!(every > 0, "fail_every must be at least 1");
            }
            ChaosMode::FailWithProbability { probability, .. } => {
                assert!(
                    (0.0..=1.0).contains(&probability),
                    "probability must be in [0, 1]"
                );
            }
            ChaosMode::Outage { .. } => {}
        }
        ChaosService {
            inner,
            mode,
            calls: std::sync::atomic::AtomicU64::new(0),
            started: std::time::Instant::now(),
        }
    }

    /// Seeded probabilistic failures: each request fails independently with
    /// `probability`.
    pub fn probabilistic(inner: Arc<dyn Service>, seed: u64, probability: f64) -> Self {
        Self::with_mode(inner, ChaosMode::FailWithProbability { seed, probability })
    }

    /// Injected latency: every `every`-th request sleeps `delay` first.
    pub fn delaying(inner: Arc<dyn Service>, every: u64, delay: Duration) -> Self {
        Self::with_mode(inner, ChaosMode::DelayEveryN { every, delay })
    }

    /// Injected panics: every `every`-th request panics.
    pub fn panicking(inner: Arc<dyn Service>, every: u64) -> Self {
        Self::with_mode(inner, ChaosMode::PanicEveryN(every))
    }

    /// A scheduled outage window starting `after` construction and lasting
    /// `duration`.
    pub fn outage(inner: Arc<dyn Service>, after: Duration, duration: Duration) -> Self {
        Self::with_mode(inner, ChaosMode::Outage { after, duration })
    }

    /// Requests served so far (including failed ones).
    pub fn calls(&self) -> u64 {
        self.calls.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn injected_fault(&self, n: u64) -> PipelineError {
        PipelineError::Service {
            service: self.inner.name().to_string(),
            reason: format!("injected fault on request #{n}"),
        }
    }
}

impl Service for ChaosService {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        let n = self
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        match self.mode {
            ChaosMode::FailEveryN(every) => {
                if n.is_multiple_of(every) {
                    return Err(self.injected_fault(n));
                }
            }
            ChaosMode::FailWithProbability { seed, probability } => {
                let roll = crate::resilience::SeededJitter::new(seed ^ n).next_f64();
                if roll < probability {
                    return Err(self.injected_fault(n));
                }
            }
            ChaosMode::DelayEveryN { every, delay } => {
                if n.is_multiple_of(every) {
                    std::thread::sleep(delay);
                }
            }
            ChaosMode::PanicEveryN(every) => {
                if n.is_multiple_of(every) {
                    panic!("injected panic on request #{n}");
                }
            }
            ChaosMode::Outage { after, duration } => {
                let t = self.started.elapsed();
                if t >= after && t < after + duration {
                    return Err(PipelineError::Service {
                        service: self.inner.name().to_string(),
                        reason: format!("injected outage (request #{n})"),
                    });
                }
            }
        }
        self.inner.handle(request, store)
    }

    fn cost(&self, request: &ServiceRequest) -> ServiceCost {
        self.inner.cost(request)
    }
}

impl std::fmt::Debug for ChaosService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosService")
            .field("inner", &self.inner.name())
            .field("mode", &self.mode)
            .field("calls", &self.calls())
            .finish()
    }
}

/// The set of service images installed on one device ("services are
/// preinstalled on some edge devices", paper §2.2).
#[derive(Clone, Default)]
pub struct ServiceRegistry {
    services: HashMap<String, Arc<dyn Service>>,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a service. Replaces any previous service with the same
    /// name.
    pub fn install(&mut self, service: Arc<dyn Service>) {
        self.services.insert(service.name().to_string(), service);
    }

    /// Looks up a service by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Service>> {
        self.services.get(name).cloned()
    }

    /// Whether `name` is installed.
    pub fn contains(&self, name: &str) -> bool {
        self.services.contains_key(name)
    }

    /// Installed service names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.services.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

impl std::fmt::Debug for ServiceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceRegistry")
            .field("services", &self.names())
            .finish()
    }
}

#[cfg(test)]
impl ServiceCost {
    /// Total modeled cost of serving `payload_sizes` as one batch. With a
    /// single element this equals [`ServiceCost::for_bytes`]; without a
    /// `batched_base` it equals the sequential sum.
    pub(crate) fn for_batch(&self, payload_sizes: &[usize]) -> Duration {
        payload_sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| self.for_batch_item(i == 0, bytes))
            .sum()
    }
}

#[cfg(test)]
impl ServiceRegistry {
    /// Number of installed services.
    pub(crate) fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether the registry is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.services.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct EchoService;
    impl Service for EchoService {
        fn name(&self) -> &str {
            "echo"
        }
        fn handle(
            &self,
            request: &ServiceRequest,
            _store: &FrameStore,
        ) -> Result<ServiceResponse, PipelineError> {
            Ok(ServiceResponse::new(request.payload.clone()))
        }
        fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
            ServiceCost::flat(Duration::from_millis(5))
        }
    }

    #[test]
    fn registry_install_and_lookup() {
        let mut reg = ServiceRegistry::new();
        assert!(reg.is_empty());
        reg.install(Arc::new(EchoService));
        assert!(reg.contains("echo"));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.names(), vec!["echo"]);
        let svc = reg.get("echo").unwrap();
        let store = FrameStore::new();
        let resp = svc
            .handle(&ServiceRequest::new("echo", Payload::Count(9)), &store)
            .unwrap();
        assert_eq!(resp.payload, Payload::Count(9));
        assert!(reg.get("ghost").is_none());
    }

    #[test]
    fn cost_model_scales_with_bytes() {
        let cost = ServiceCost {
            base: Duration::from_millis(10),
            per_kib: Duration::from_millis(1),
            batched_base: None,
        };
        assert_eq!(cost.for_bytes(0), Duration::from_millis(10));
        assert_eq!(cost.for_bytes(4096), Duration::from_millis(14));
        let flat = ServiceCost::flat(Duration::from_millis(3));
        assert_eq!(flat.for_bytes(1 << 20), Duration::from_millis(3));
    }

    #[test]
    fn batch_cost_amortises_the_base() {
        let cost = ServiceCost {
            base: Duration::from_millis(10),
            per_kib: Duration::from_millis(1),
            batched_base: None,
        }
        .with_batched_base(Duration::from_millis(2));
        // Leader pays full base, followers pay the amortised base; the
        // per-KiB term is charged in full for everyone.
        assert_eq!(cost.for_batch_item(true, 1024), Duration::from_millis(11));
        assert_eq!(cost.for_batch_item(false, 1024), Duration::from_millis(3));
        assert_eq!(cost.for_batch(&[1024]), cost.for_bytes(1024));
        assert_eq!(
            cost.for_batch(&[0, 0, 0, 0]),
            Duration::from_millis(10 + 3 * 2)
        );
        // Without a declared discount, a batch costs the sequential sum.
        let flat = ServiceCost::flat(Duration::from_millis(4));
        assert_eq!(flat.for_batch(&[0, 0, 0]), Duration::from_millis(12));
    }

    #[test]
    #[should_panic(expected = "batched_base must not exceed base")]
    fn batch_cost_rejects_discount_above_base() {
        let _ =
            ServiceCost::flat(Duration::from_millis(1)).with_batched_base(Duration::from_millis(2));
    }

    #[test]
    fn default_handle_batch_matches_sequential_handle() {
        // EchoService does not override handle_batch, so the default loop
        // must produce exactly what sequential handle calls produce.
        let svc = EchoService;
        let store = FrameStore::new();
        let requests: Vec<ServiceRequest> = (0..5)
            .map(|i| ServiceRequest::new("echo", Payload::Count(i)))
            .collect();
        let batched = svc.handle_batch(&requests, &store);
        assert_eq!(batched.len(), requests.len());
        for (req, result) in requests.iter().zip(batched) {
            assert_eq!(result.unwrap().payload, req.payload);
        }
    }

    #[test]
    fn chaos_schedule_advances_per_request_in_a_batch() {
        // The default handle_batch loops handle, so a FailEveryN(3) chaos
        // service fails exactly the 3rd request of a batch — batching must
        // not collapse the fault schedule into one event per batch.
        let chaos = ChaosService::new(Arc::new(EchoService), 3);
        let store = FrameStore::new();
        let requests: Vec<ServiceRequest> = (0..6)
            .map(|i| ServiceRequest::new("echo", Payload::Count(i)))
            .collect();
        let results = chaos.handle_batch(&requests, &store);
        let failures: Vec<usize> = results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_err())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failures, vec![2, 5]);
        assert_eq!(chaos.calls(), 6);
    }

    #[test]
    fn wrong_payload_is_descriptive() {
        let err = wrong_payload("pose", "frame_ref", &Payload::Count(1));
        let text = err.to_string();
        assert!(text.contains("pose") && text.contains("frame_ref") && text.contains("count"));
    }

    #[test]
    fn chaos_service_fails_every_nth() {
        let chaos = ChaosService::new(Arc::new(EchoService), 3);
        let store = FrameStore::new();
        let req = ServiceRequest::new("echo", Payload::Count(1));
        assert!(chaos.handle(&req, &store).is_ok());
        assert!(chaos.handle(&req, &store).is_ok());
        assert!(chaos.handle(&req, &store).is_err()); // 3rd
        assert!(chaos.handle(&req, &store).is_ok());
        assert_eq!(chaos.calls(), 4);
        assert_eq!(chaos.name(), "echo");
        assert_eq!(chaos.cost(&req).base, Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn chaos_rejects_zero() {
        let _ = ChaosService::new(Arc::new(EchoService), 0);
    }

    #[test]
    fn chaos_probabilistic_is_seeded_and_calibrated() {
        let store = FrameStore::new();
        let req = ServiceRequest::new("echo", Payload::Count(1));
        let run = |seed: u64| {
            let chaos = ChaosService::probabilistic(Arc::new(EchoService), seed, 0.3);
            (0..1000)
                .map(|_| chaos.handle(&req, &store).is_err())
                .collect::<Vec<bool>>()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a, b, "same seed must fail the same requests");
        let failures = a.iter().filter(|&&f| f).count();
        assert!(
            (200..400).contains(&failures),
            "30% target, got {failures}/1000"
        );
        assert_ne!(a, run(12), "different seeds should differ");
        // Degenerate probabilities behave as advertised.
        let never = ChaosService::probabilistic(Arc::new(EchoService), 1, 0.0);
        let always = ChaosService::probabilistic(Arc::new(EchoService), 1, 1.0);
        for _ in 0..20 {
            assert!(never.handle(&req, &store).is_ok());
            assert!(always.handle(&req, &store).is_err());
        }
    }

    #[test]
    fn chaos_delay_injects_latency() {
        let chaos = ChaosService::delaying(Arc::new(EchoService), 2, Duration::from_millis(30));
        let store = FrameStore::new();
        let req = ServiceRequest::new("echo", Payload::Count(1));
        let t = std::time::Instant::now();
        assert!(chaos.handle(&req, &store).is_ok()); // 1st: fast
        let fast = t.elapsed();
        let t = std::time::Instant::now();
        assert!(chaos.handle(&req, &store).is_ok()); // 2nd: delayed
        let slow = t.elapsed();
        assert!(
            slow >= Duration::from_millis(30),
            "delayed call took {slow:?}"
        );
        assert!(fast < Duration::from_millis(30), "fast call took {fast:?}");
    }

    #[test]
    fn chaos_panic_mode_panics_on_schedule() {
        let chaos = Arc::new(ChaosService::panicking(Arc::new(EchoService), 3));
        let store = FrameStore::new();
        let req = ServiceRequest::new("echo", Payload::Count(1));
        assert!(chaos.handle(&req, &store).is_ok());
        assert!(chaos.handle(&req, &store).is_ok());
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| chaos.handle(&req, &store)));
        assert!(result.is_err(), "3rd request should panic");
        assert!(chaos.handle(&req, &store).is_ok());
        assert_eq!(chaos.calls(), 4);
    }

    #[test]
    fn chaos_outage_window_opens_and_heals() {
        // Outage from 20 ms to 60 ms after construction.
        let chaos = ChaosService::outage(
            Arc::new(EchoService),
            Duration::from_millis(20),
            Duration::from_millis(40),
        );
        let store = FrameStore::new();
        let req = ServiceRequest::new("echo", Payload::Count(1));
        assert!(chaos.handle(&req, &store).is_ok(), "before the outage");
        std::thread::sleep(Duration::from_millis(30));
        let during = chaos.handle(&req, &store);
        assert!(during.is_err(), "inside the outage window");
        assert!(during.unwrap_err().to_string().contains("injected outage"));
        std::thread::sleep(Duration::from_millis(40));
        assert!(chaos.handle(&req, &store).is_ok(), "after the heal time");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn chaos_rejects_bad_probability() {
        let _ = ChaosService::probabilistic(Arc::new(EchoService), 0, 1.5);
    }

    #[test]
    fn request_response_wire_roundtrip() {
        let req = ServiceRequest::new("classify", Payload::Vector(vec![1.0, 2.0]));
        let decoded = ServiceRequest::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
        let resp = ServiceResponse::new(Payload::Label {
            label: "squat".into(),
            confidence: 0.9,
        });
        assert_eq!(ServiceResponse::decode(&resp.encode()).unwrap(), resp);
        // A frame in a request is a slice of the request's buffer.
        let frame = bytes::Bytes::from(vec![3u8; 32]);
        let wire = ServiceRequest::new("detect", Payload::EncodedFrame(frame)).encode();
        let Payload::EncodedFrame(back) = ServiceRequest::decode(&wire).unwrap().payload else {
            panic!("variant changed in the round trip");
        };
        assert!(std::ptr::eq(
            back.as_ptr(),
            wire[wire.len() - 32..].as_ptr()
        ));
        assert!(ServiceRequest::decode(&bytes::Bytes::new()).is_err());
        assert!(ServiceRequest::decode(&bytes::Bytes::from_static(&[5, b'a'])).is_err());
    }

    #[test]
    fn services_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Arc<dyn Service>>();
        assert_send_sync::<ServiceRegistry>();
    }
}
