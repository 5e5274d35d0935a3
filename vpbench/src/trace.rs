//! Outside-in tracing: decorators around the public `Module`, `ModuleCtx`
//! and `Service` traits record a span at every call into a layer;
//! [`crate::budget`] rebuilds each frame's blocking path from them.
//!
//! Nothing here reaches inside the program. What happens between two
//! outside-visible calls (send queue, `write_vectored`, I/O-thread poll,
//! decode, hub, scheduler wait) is one "edge transit" or "service wait"
//! span; splitting those needs spans inside the program.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use videopipe_core::message::{Header, Payload};
use videopipe_core::module::{Event, Module, ModuleCtx};
use videopipe_core::service::{Service, ServiceCost, ServiceRequest, ServiceResponse};
use videopipe_core::PipelineError;
use videopipe_media::FrameStore;

/// Nanoseconds on the benchmark's one clock. Every pipeline has its own
/// epoch (`ctx.now_ns()`); spans from different pipelines, services and the
/// measuring thread all need the same one.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Every module and service name the workloads deploy. Spans carry an
/// index into this table instead of a string.
pub const NAMES: [&str; 12] = [
    "video_streaming",
    "pose_detection",
    "activity_recognition",
    "rep_counter",
    "display",
    "src",
    "work",
    "sink",
    "pose_detector",
    "activity_classifier",
    "double",
    "?",
];
pub const UNKNOWN: u8 = (NAMES.len() - 1) as u8;

pub fn name_id(name: &str) -> u8 {
    NAMES
        .iter()
        .position(|n| *n == name)
        .map_or(UNKNOWN, |i| i as u8)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Module::on_event`; `who` is the module.
    Event,
    /// `ModuleCtx::call_module`; `who` sends to `peer`.
    Send,
    /// `ModuleCtx::call_service`; `who` calls service `peer`.
    Call,
    /// `Service::handle`/`handle_batch`; `who` is the service.
    Busy,
    /// `ModuleCtx::signal_source`: the frame is done when it starts.
    Signal,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Event => "on_event",
            Kind::Send => "call_module",
            Kind::Call => "call_service",
            Kind::Busy => "service_busy",
            Kind::Signal => "signal_source",
        }
    }
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub who: u8,
    pub peer: u8,
    pub tenant: u32,
    pub seq: u64,
    pub start: u64,
    pub end: u64,
    /// The span that caused this one: the enclosing `Event` for
    /// `Send`/`Call`/`Signal` (set when recorded), the upstream `Send` for
    /// an `Event` and the `Call` for a `Busy` (set by [`crate::budget::link`]).
    pub parent: u32,
    /// `Event` spans only: the frame's capture timestamp on the benchmark
    /// clock.
    pub capture: u64,
}

type SpanBuf = Arc<Mutex<Vec<Span>>>;

/// What a sink saw. One per sink instance, so recording takes no shared
/// lock.
#[derive(Debug, Default)]
pub struct SinkSamples {
    pub tenant: u32,
    pub interval_ns: u64,
    /// Pipeline-clock time at which tick 1 was due: the smallest
    /// `capture_ts − (seq − 1)·interval` seen. The pacer stamps a tick when
    /// it runs, never before it is due, so the least-late tick bounds it.
    pub base_ns: u64,
    /// Benchmark clock minus pipeline clock.
    pub clock_offset: u64,
    /// `(done on the pipeline clock, frame_seq)` per delivered frame.
    pub done: Vec<(u64, u32)>,
}

impl SinkSamples {
    /// When tick `seq` was due, on the benchmark clock.
    pub fn due_ns(&self, seq: u64) -> u64 {
        self.base_ns + seq.saturating_sub(1) * self.interval_ns + self.clock_offset
    }

    /// `(done on the benchmark clock, latency from when the tick was due)`.
    pub fn latencies(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.done.iter().map(|&(done, seq)| {
            let done = done + self.clock_offset;
            (done, done.saturating_sub(self.due_ns(u64::from(seq))))
        })
    }
}

/// Hands out per-decorator buffers and collects them at the end of a run.
#[derive(Clone, Default)]
pub struct Collector {
    spans: Arc<Mutex<Vec<SpanBuf>>>,
    sinks: Arc<Mutex<Vec<Arc<Mutex<SinkSamples>>>>>,
}

impl Collector {
    fn span_buf(&self) -> SpanBuf {
        let buf = SpanBuf::default();
        self.spans
            .lock()
            .expect("collector lock")
            .push(Arc::clone(&buf));
        buf
    }

    fn sink_buf(&self, tenant: u32, interval_ns: u64) -> Arc<Mutex<SinkSamples>> {
        let buf = Arc::new(Mutex::new(SinkSamples {
            tenant,
            interval_ns,
            base_ns: u64::MAX,
            ..SinkSamples::default()
        }));
        self.sinks
            .lock()
            .expect("collector lock")
            .push(Arc::clone(&buf));
        buf
    }

    /// Sinks that have seen a frame done.
    pub fn tenants_delivered(&self) -> usize {
        let sinks = self.sinks.lock().expect("collector lock");
        sinks
            .iter()
            .filter(|s| !s.lock().expect("sink lock").done.is_empty())
            .count()
    }

    /// Takes every sink's samples (call after the runtime has stopped).
    pub fn take_sinks(&self) -> Vec<SinkSamples> {
        let sinks = self.sinks.lock().expect("collector lock");
        sinks
            .iter()
            .map(|s| std::mem::take(&mut *s.lock().expect("sink lock")))
            .collect()
    }

    /// Concatenates every span buffer, keeping each buffer contiguous and
    /// rebasing the recorded parent indices.
    pub fn take_spans(&self) -> Vec<Span> {
        let bufs = self.spans.lock().expect("collector lock");
        let mut all = Vec::new();
        for buf in bufs.iter() {
            let base = all.len() as u32;
            for mut span in std::mem::take(&mut *buf.lock().expect("span lock")) {
                if span.parent != NO_PARENT {
                    span.parent += base;
                }
                all.push(span);
            }
        }
        all
    }
}

/// How one module instance is observed.
#[derive(Clone)]
pub struct Probe {
    pub collector: Collector,
    pub tenant: u32,
    pub interval_ns: u64,
    /// Record `on_event`/`call_*` spans (traced runs only).
    pub spans: bool,
    /// This module is the sink: time frame completion.
    pub sink: bool,
}

/// A module behind the probe. With `spans` off and `sink` on this is the
/// only instrumentation in a measured run: one clock read and one push per
/// delivered frame.
pub struct Probed {
    inner: Box<dyn Module>,
    who: u8,
    tenant: u32,
    clock_offset: Option<u64>,
    spans: Option<SpanBuf>,
    sink: Option<Arc<Mutex<SinkSamples>>>,
}

impl Probed {
    pub fn new(inner: Box<dyn Module>, name: &str, probe: &Probe) -> Self {
        Probed {
            inner,
            who: name_id(name),
            tenant: probe.tenant,
            clock_offset: None,
            spans: probe.spans.then(|| probe.collector.span_buf()),
            sink: probe
                .sink
                .then(|| probe.collector.sink_buf(probe.tenant, probe.interval_ns)),
        }
    }
}

impl Module for Probed {
    fn init(&mut self, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        self.inner.init(ctx)
    }

    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        let clock_offset = *self.clock_offset.get_or_insert_with(|| {
            let offset = now_ns().saturating_sub(ctx.now_ns());
            if let Some(sink) = &self.sink {
                sink.lock().expect("sink lock").clock_offset = offset;
            }
            offset
        });
        let header = ctx.header();
        let event_idx = self.spans.as_ref().map(|buf| {
            let mut buf = buf.lock().expect("span lock");
            buf.push(Span {
                kind: Kind::Event,
                who: self.who,
                peer: UNKNOWN,
                tenant: self.tenant,
                seq: header.frame_seq,
                start: now_ns(),
                end: 0,
                parent: NO_PARENT,
                capture: header.capture_ts_ns + clock_offset,
            });
            (buf.len() - 1) as u32
        });
        let mut probed = ProbedCtx {
            inner: ctx,
            who: self.who,
            tenant: self.tenant,
            spans: self.spans.as_deref(),
            parent: event_idx.unwrap_or(NO_PARENT),
            sink: self.sink.as_deref(),
        };
        let result = self.inner.on_event(event, &mut probed);
        if let (Some(buf), Some(idx)) = (&self.spans, event_idx) {
            buf.lock().expect("span lock")[idx as usize].end = now_ns();
        }
        result
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        self.inner.restore(snapshot);
    }
}

struct ProbedCtx<'a> {
    inner: &'a mut dyn ModuleCtx,
    who: u8,
    tenant: u32,
    spans: Option<&'a Mutex<Vec<Span>>>,
    parent: u32,
    sink: Option<&'a Mutex<SinkSamples>>,
}

impl ProbedCtx<'_> {
    fn record(&self, kind: Kind, peer: u8, start: u64) {
        if let Some(buf) = self.spans {
            buf.lock().expect("span lock").push(Span {
                kind,
                who: self.who,
                peer,
                tenant: self.tenant,
                seq: self.inner.header().frame_seq,
                start,
                end: now_ns(),
                parent: self.parent,
                capture: 0,
            });
        }
    }

    fn start(&self) -> u64 {
        if self.spans.is_some() {
            now_ns()
        } else {
            0
        }
    }
}

impl ModuleCtx for ProbedCtx<'_> {
    fn call_service(
        &mut self,
        service: &str,
        request: ServiceRequest,
    ) -> Result<ServiceResponse, PipelineError> {
        let start = self.start();
        let result = self.inner.call_service(service, request);
        self.record(Kind::Call, name_id(service), start);
        result
    }

    fn call_module(&mut self, target: &str, payload: Payload) -> Result<(), PipelineError> {
        let start = self.start();
        let result = self.inner.call_module(target, payload);
        self.record(Kind::Send, name_id(target), start);
        result
    }

    fn signal_source(&mut self) -> Result<(), PipelineError> {
        let start = self.start();
        if let Some(sink) = self.sink {
            let header = self.inner.header();
            let done = self.inner.now_ns();
            let mut sink = sink.lock().expect("sink lock");
            let first_due = header
                .capture_ts_ns
                .saturating_sub(header.frame_seq.saturating_sub(1) * sink.interval_ns);
            sink.base_ns = sink.base_ns.min(first_due);
            sink.done.push((done, header.frame_seq as u32));
        }
        let result = self.inner.signal_source();
        self.record(Kind::Signal, UNKNOWN, start);
        result
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn module_name(&self) -> &str {
        self.inner.module_name()
    }

    fn device_name(&self) -> &str {
        self.inner.device_name()
    }

    fn frame_store(&self) -> &FrameStore {
        self.inner.frame_store()
    }

    fn header(&self) -> Header {
        self.inner.header()
    }

    fn set_header(&mut self, header: Header) {
        self.inner.set_header(header);
    }

    fn log(&mut self, text: &str) {
        self.inner.log(text);
    }
}

/// A service behind a busy-time span. One per (tenant, service): every
/// pipeline has its own service host task, so the buffer has one writer.
pub struct TracedService {
    inner: Arc<dyn Service>,
    who: u8,
    tenant: u32,
    spans: SpanBuf,
}

impl TracedService {
    pub fn new(inner: Arc<dyn Service>, tenant: u32, collector: &Collector) -> Self {
        TracedService {
            who: name_id(inner.name()),
            inner,
            tenant,
            spans: collector.span_buf(),
        }
    }

    fn record(&self, start: u64) {
        self.spans.lock().expect("span lock").push(Span {
            kind: Kind::Busy,
            who: self.who,
            peer: UNKNOWN,
            tenant: self.tenant,
            seq: 0,
            start,
            end: now_ns(),
            parent: NO_PARENT,
            capture: 0,
        });
    }
}

impl Service for TracedService {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(
        &self,
        request: &ServiceRequest,
        store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        let start = now_ns();
        let result = self.inner.handle(request, store);
        self.record(start);
        result
    }

    fn handle_batch(
        &self,
        requests: &[ServiceRequest],
        store: &FrameStore,
    ) -> Vec<Result<ServiceResponse, PipelineError>> {
        let start = now_ns();
        let results = self.inner.handle_batch(requests, store);
        self.record(start);
        results
    }

    fn cost(&self, request: &ServiceRequest) -> ServiceCost {
        self.inner.cost(request)
    }
}
