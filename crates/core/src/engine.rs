//! The engine: every decision the runtime takes *per message*, written once.
//!
//! The paper's module API is three calls (`call_service`, `call_module`,
//! `signal_source`) over one flow-control loop. This module owns all of it —
//! the [`ModuleCtx`] implementation (breaker gate → cached transcode → retry
//! loop → last-known-good), the module step, the service batch, the pacer's
//! credit accounting, the SLO / heartbeat / telemetry tick bodies and the
//! deploy-time wiring — generic over the three-method [`Exec`] seam.
//! [`ReactorRuntime`](crate::reactor::ReactorRuntime) decides *when* a step
//! runs (scheduled tasks, timers) and lends its `Exec` for *how* a wait is
//! spent (helping other ready tasks); the unit tests below lend a scripted
//! one with no threads and no clock.
//!
//! The seam is a generic parameter, never `dyn`: nothing in here knows how
//! it is driven, and the `&mut dyn ModuleCtx` handed to handlers stays the
//! only virtual call on the path. The one thing named here of the runtime is
//! its task type: a [`Channel`] names the task that consumes it, so that a
//! [`Route`] knows whom a send must wake. (`videopipe-sim`'s `SimCtx` is
//! deliberately *not* a second user: it records calls for virtual-time
//! replay and has no retry chain to share.)
//!
//! **Channels are resolved at deploy.** [`Shared::deploy`] gives every
//! channel of a pipeline a dense id and an in-process queue, and each
//! sending site — a module edge, a service request, a reply, a completion
//! signal or credit return, a pacer tick, a heartbeat — resolves its
//! destination once into a [`Route`]. An in-process message therefore
//! carries no channel or reply name: the queue is the address, and a send
//! spells, hashes and allocates no name. Only a route to another device
//! holds names, to stamp on the unchanged TCP wire.

use crate::deploy::{DeploymentPlan, ServiceBinding};
use crate::error::PipelineError;
use crate::flow::{CreditController, SourcePacer};
use crate::health::FailureDetector;
use crate::message::{Header, Message, Payload};
use crate::metrics::{LabelMap, PipelineMetrics, Slot};
use crate::module::{Event, Module, ModuleCtx, ModuleFactory, ModuleRegistry};
use crate::reactor::Task;
use crate::resilience::{seed_for, CircuitBreaker, DegradationPolicy, SeededJitter};
use crate::runtime::{EdgeTransport, RunReport, RuntimeConfig};
use crate::service::{Service, ServiceRegistry, ServiceRequest, ServiceResponse};
use crate::slo::{KnobSettings, SloAction, SloController};
use crate::spec::ModuleSpec;
use crossbeam::channel::Queue;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};
use videopipe_media::{codec, FrameStore};
use videopipe_net::tcp::{ReconnectPolicy, TcpSender};
use videopipe_net::{BufferPool, InprocHub, MessageKind, MsgSender, PollEndpoint, WireMessage};

/// What the runtime lends the engine: how a message leaves, how a module
/// waits for a reply, and how modeled time passes. Statically dispatched.
pub(crate) trait Exec {
    /// Sends `msg` down `route` and makes sure whoever consumes the
    /// destination gets to run.
    fn send(&self, route: &Route, msg: WireMessage) -> Result<(), PipelineError>;

    /// Waits for the next message on `inbox`, for at most one short slice
    /// and never past `until`. `None` means "nothing yet": the engine
    /// re-checks its deadline and the stop flag and asks again, so an
    /// implementation may return early whenever it likes.
    fn await_reply(&self, inbox: &Channel, until: Instant) -> Option<WireMessage>;

    /// Lets `dur` of wall time pass (modeled link transfers, retry backoff).
    fn pause(&self, dur: Duration);
}

/// One channel of a pipeline: an in-process queue, held in place, and the
/// task that consumes it — one allocation, plus the queue's buffer once a
/// message arrives.
///
/// The consumer is named by a `Weak`: the task's runner holds its pipeline,
/// which holds this channel, so a strong reference here would be a cycle
/// that keeps a stopped or finished deployment alive. The runtime owns the
/// task; a send upgrades the name, and a consumer that is gone is simply
/// not woken.
pub(crate) struct Channel {
    queue: Queue<WireMessage>,
    /// Set once, when the runtime builds the consuming task. Reply
    /// channels have none: their module is already running, waiting on
    /// the queue, when a reply lands.
    consumer: OnceLock<Weak<Task>>,
}

impl Channel {
    /// An empty channel whose queue is first given room for one message —
    /// what a one-credit pipeline has in flight on a channel — rather than
    /// `VecDeque`'s first growth to four; past that it grows as usual.
    pub(crate) fn new() -> Self {
        Channel {
            queue: Queue::with_room(1),
            consumer: OnceLock::new(),
        }
    }

    /// Names `task` as the consumer a send wakes (once; later calls are
    /// ignored).
    pub(crate) fn set_consumer(&self, task: &Arc<Task>) {
        let _ = self.consumer.set(Arc::downgrade(task));
    }

    /// Queues `msg`; returns the consuming task, if it is still deployed,
    /// for the caller to wake.
    pub(crate) fn push(&self, msg: WireMessage) -> Option<Arc<Task>> {
        self.queue.push(msg);
        self.consumer.get()?.upgrade()
    }

    pub(crate) fn try_recv(&self) -> Option<WireMessage> {
        self.queue.try_pop()
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<WireMessage> {
        self.queue.pop_timeout(timeout)
    }

    /// Number of messages waiting.
    pub(crate) fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Where one sending site's messages go, resolved once at deploy.
pub(crate) enum Route {
    /// The destination's queue, on the sender's device (every route of an
    /// in-process pipeline).
    Local(Arc<Channel>),
    /// A channel on another device: the TCP sender towards that device's
    /// ingress socket, and the names the wire carries — the channel's and,
    /// for a service request, the caller's reply channel's — so the frame
    /// is byte for byte a name-addressed one.
    Remote {
        peer: Arc<TcpSender>,
        channel: String,
        reply_to: String,
    },
}

impl Route {
    /// Sends `msg` and returns the task to wake, if any. A remote route
    /// stamps its names on the message and wakes nobody here: the far
    /// device's I/O thread wakes the consumer when the bytes arrive.
    pub(crate) fn send(&self, mut msg: WireMessage) -> Result<Option<Arc<Task>>, PipelineError> {
        match self {
            Route::Local(channel) => Ok(channel.push(msg)),
            Route::Remote {
                peer,
                channel,
                reply_to,
            } => {
                msg.channel.clone_from(channel);
                msg.reply_to.clone_from(reply_to);
                peer.send(msg)?;
                Ok(None)
            }
        }
    }
}

/// A request's `corr_id` carries the caller's index among its host's
/// callers above this bit: the host answers through that caller's reply
/// route, and only the caller compares the whole id.
const CALLER_SHIFT: u32 = 40;

/// The route `reply` takes out of its host's `routes`: the one of the
/// caller whose index the request's `corr_id`, copied onto the reply,
/// carries.
pub(crate) fn reply_route<'r>(routes: &'r [Route], reply: &WireMessage) -> Option<&'r Route> {
    routes.get((reply.corr_id >> CALLER_SHIFT) as usize)
}

/// How a pipeline's channel ids are laid out, and which device owns each:
/// per module, in plan order, its inbox (`2i`) and its reply channel
/// (`2i + 1`); then one inbox per service host; then flow control, owned by
/// the source device; then heartbeats, whose monitor runs beside the pacer.
struct Layout {
    /// Plan device names; a device index points in here.
    devices: Vec<String>,
    /// `(module, device index)`, in plan order.
    modules: Vec<(String, usize)>,
    /// `(device index, service)` of every host some module binds, sorted
    /// by device name, then service.
    hosts: Vec<(usize, String)>,
    source_device: usize,
}

impl Layout {
    fn new(plan: &DeploymentPlan, source_device: &str) -> Result<Self, PipelineError> {
        let devices: Vec<String> = plan.devices.iter().map(|d| d.name.clone()).collect();
        let index = |device: &str| {
            devices
                .iter()
                .position(|d| d == device)
                .ok_or_else(|| PipelineError::Deploy(format!("unknown device {device:?}")))
        };
        let modules = plan
            .pipeline
            .modules
            .iter()
            .map(|m| Ok((m.name.clone(), index(&device_of(plan, &m.name)?)?)))
            .collect::<Result<_, PipelineError>>()?;
        let mut hosts: Vec<(&str, &str)> = plan
            .service_bindings
            .iter()
            .map(|b| (b.device.as_str(), b.service.as_str()))
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        let hosts = hosts
            .into_iter()
            .map(|(device, service)| Ok((index(device)?, service.to_string())))
            .collect::<Result<_, PipelineError>>()?;
        let source_device = index(source_device)?;
        Ok(Layout {
            devices,
            modules,
            hosts,
            source_device,
        })
    }

    fn inbox(i: usize) -> usize {
        2 * i
    }

    fn reply(i: usize) -> usize {
        2 * i + 1
    }

    fn host(&self, j: usize) -> usize {
        2 * self.modules.len() + j
    }

    fn fc(&self) -> usize {
        self.host(self.hosts.len())
    }

    fn hb(&self) -> usize {
        self.fc() + 1
    }

    fn len(&self) -> usize {
        self.hb() + 1
    }

    fn module(&self, name: &str) -> Result<usize, PipelineError> {
        self.modules
            .iter()
            .position(|(m, _)| m == name)
            .ok_or_else(|| PipelineError::Deploy(format!("module {name:?} unplaced")))
    }

    fn host_of(&self, b: &ServiceBinding) -> usize {
        self.hosts
            .iter()
            .position(|(d, s)| self.devices[*d] == b.device && *s == b.service)
            .expect("every binding has a host")
    }

    /// The device that consumes channel `id`.
    fn owner(&self, id: usize) -> usize {
        let modules = 2 * self.modules.len();
        if id < modules {
            self.modules[id / 2].1
        } else if id < self.fc() {
            self.hosts[id - modules].0
        } else {
            self.source_device
        }
    }

    /// The name channel `id` goes by on the TCP wire.
    fn wire_name(&self, pipeline: &str, id: usize) -> String {
        let modules = 2 * self.modules.len();
        if id < modules {
            let kind = if id.is_multiple_of(2) { "mod" } else { "rpl" };
            format!("{kind}/{pipeline}/{}", self.modules[id / 2].0)
        } else if id < self.fc() {
            let (device, service) = &self.hosts[id - modules];
            format!("svc/{pipeline}/{}/{service}", self.devices[*device])
        } else if id == self.fc() {
            format!("fc/{pipeline}")
        } else {
            format!("hb/{pipeline}")
        }
    }
}

/// Shared state for one running pipeline.
pub(crate) struct Shared {
    pub(crate) pipeline: String,
    /// Source module names; the pacer ticks them, on the device of the
    /// first.
    pub(crate) sources: Vec<String>,
    /// Telemetry's PUB/SUB hub; no pipeline channel is bound on it.
    pub(crate) hub: InprocHub,
    /// Every channel of the pipeline, indexed by the id [`Layout`] gives it.
    channels: Vec<Arc<Channel>>,
    layout: Layout,
    /// `Tcp` mode: one sender per plan device, towards that device's
    /// ingress socket. Empty in `Inproc` mode, where every route is local.
    pub(crate) peers: Vec<Arc<TcpSender>>,
    /// `Tcp` mode: the wire name of every channel → its id, for the frames
    /// the I/O thread receives. Empty in `Inproc` mode.
    ingress: HashMap<String, usize>,
    pub(crate) stores: HashMap<String, Arc<FrameStore>>,
    pub(crate) metrics: Mutex<PipelineMetrics>,
    pub(crate) logs: Mutex<Vec<String>>,
    pub(crate) errors: Mutex<Vec<String>>,
    pub(crate) stop: AtomicBool,
    pub(crate) epoch: Instant,
    pub(crate) deliveries: AtomicU64,
    pub(crate) config: RuntimeConfig,
    /// One circuit breaker per bound service name, registered when the
    /// first module bound to it deploys, if breakers are on (empty
    /// otherwise); callers hold their slot.
    pub(crate) breakers: Mutex<LabelMap<CircuitBreaker>>,
    pub(crate) restarts: AtomicU64,
    /// Pipeline fence epoch: bumped once per confirmed device loss;
    /// messages stamped with an older epoch are fenced by the pacer.
    pub(crate) fence_epoch: AtomicU64,
    /// Heartbeat failure detector (`None` when heartbeats are disabled).
    pub(crate) detector: Mutex<Option<FailureDetector>>,
    /// Latest module snapshots by module name, for checkpointed restarts.
    pub(crate) checkpoints: Mutex<HashMap<String, Vec<u8>>>,
    /// Devices whose heartbeat sender is suppressed (chaos hook).
    pub(crate) muted_heartbeats: Mutex<HashSet<String>>,
    /// Live SLO knob actuators, written by the controller tick and read
    /// lock-free at the actuation sites (encode path, service drain, pacer
    /// admission). All-baseline when no controller is configured.
    pub(crate) knobs: KnobActuators,
}

/// Lock-free actuation state for the SLO controller's knob lattice.
pub(crate) struct KnobActuators {
    /// Codec quality override for cross-device frames; `NO_QUALITY` (255)
    /// means "use the configured quality".
    pub(crate) quality_shift: AtomicU8,
    /// Floor applied over every service's configured `max_batch`; 0 means
    /// no override.
    pub(crate) batch_floor: AtomicUsize,
    /// Source sampling divisor (1 = every camera tick).
    pub(crate) sample_divisor: AtomicU32,
    /// Shedding factor applied after sampling (1 = keep everything).
    pub(crate) shed_one_in: AtomicU32,
    /// Current lattice level, for telemetry and reports.
    pub(crate) level: AtomicUsize,
    /// Knob moves / direction reversals, mirrored from the controller.
    pub(crate) moves: AtomicU64,
    pub(crate) flaps: AtomicU64,
}

pub(crate) const NO_QUALITY: u8 = u8::MAX;

impl KnobActuators {
    pub(crate) fn baseline() -> Self {
        KnobActuators {
            quality_shift: AtomicU8::new(NO_QUALITY),
            batch_floor: AtomicUsize::new(0),
            sample_divisor: AtomicU32::new(1),
            shed_one_in: AtomicU32::new(1),
            level: AtomicUsize::new(0),
            moves: AtomicU64::new(0),
            flaps: AtomicU64::new(0),
        }
    }

    pub(crate) fn apply(&self, settings: KnobSettings, level: usize) {
        self.quality_shift.store(
            settings.quality_shift.unwrap_or(NO_QUALITY),
            Ordering::Relaxed,
        );
        self.batch_floor
            .store(settings.max_batch.unwrap_or(0), Ordering::Relaxed);
        self.sample_divisor
            .store(settings.sample_divisor.max(1), Ordering::Relaxed);
        self.shed_one_in
            .store(settings.shed_one_in.max(1), Ordering::Relaxed);
        self.level.store(level, Ordering::Relaxed);
    }

    pub(crate) fn admit_stride(&self) -> u64 {
        u64::from(self.sample_divisor.load(Ordering::Relaxed).max(1))
            * u64::from(self.shed_one_in.load(Ordering::Relaxed).max(1))
    }
}

fn device_of(plan: &DeploymentPlan, module: &str) -> Result<String, PipelineError> {
    plan.placement
        .device_for(module)
        .map(str::to_string)
        .ok_or_else(|| PipelineError::Deploy(format!("module {module:?} unplaced")))
}

/// Per-device frame-store capacity. Small on purpose: in-flight frames per
/// pipeline are bounded by credits, and 10k pipelines each carrying a large
/// store would dominate the memory budget. The store evicts oldest-first
/// beyond this.
const STORE_CAPACITY: usize = 16;

/// In `Tcp` mode every device gets a loopback ingress endpoint, bound here
/// and returned for the runtime's [`videopipe_net::Ingress`] to run, and a
/// sender towards it, which every cross-device route of the pipeline uses.
fn tcp_peers(
    devices: usize,
    ingress_pool: &Arc<BufferPool>,
) -> Result<(Vec<Arc<TcpSender>>, Vec<PollEndpoint>), PipelineError> {
    let mut peers = Vec::with_capacity(devices);
    let mut endpoints = Vec::with_capacity(devices);
    for _ in 0..devices {
        let endpoint = PollEndpoint::bind_with_pool("127.0.0.1:0", Arc::clone(ingress_pool))?;
        let addr = format!("127.0.0.1:{}", endpoint.local_port());
        endpoints.push(endpoint);
        let sender = TcpSender::connect_retry(&addr, Duration::from_secs(5))?
            // Survive mid-stream disconnects: buffer and reconnect with
            // backoff instead of failing the pipeline edge.
            .with_reconnect(ReconnectPolicy::default());
        peers.push(Arc::new(sender));
    }
    Ok((peers, endpoints))
}

impl Shared {
    /// Builds one pipeline's shared state from its plan: its channels, one
    /// frame store per device and the failure detector. In `Tcp` mode the
    /// second value is one ingress endpoint per device, reading into
    /// `ingress_pool`, for the runtime to run; it is empty otherwise.
    ///
    /// # Errors
    ///
    /// Invalid configs, an unplaced source or module, a binding to an
    /// unknown device, or bind/connect failures.
    pub(crate) fn deploy(
        plan: &DeploymentPlan,
        config: RuntimeConfig,
        ingress_pool: &Arc<BufferPool>,
    ) -> Result<(Arc<Self>, Vec<PollEndpoint>), PipelineError> {
        config.validate()?;
        let sources: Vec<String> = plan
            .pipeline
            .sources()
            .iter()
            .map(|m| m.name.clone())
            .collect();
        let source_device = sources
            .first()
            .and_then(|s| plan.placement.device_for(s))
            .ok_or_else(|| PipelineError::Deploy("pipeline has no placed source".into()))?;
        let layout = Layout::new(plan, source_device)?;
        let pipeline = plan.pipeline.name.clone();
        let (peers, endpoints, ingress) = match config.transport {
            EdgeTransport::Inproc => (Vec::new(), Vec::new(), HashMap::new()),
            EdgeTransport::Tcp => {
                let (peers, endpoints) = tcp_peers(layout.devices.len(), ingress_pool)?;
                let names = (0..layout.len()).map(|id| (layout.wire_name(&pipeline, id), id));
                (peers, endpoints, names.collect())
            }
        };
        let detector = config.heartbeats.clone().map(|h| {
            let mut d = FailureDetector::new(h);
            for dev in &plan.devices {
                d.expect(&dev.name, 0);
            }
            d
        });
        let shared = Arc::new(Shared {
            pipeline,
            sources,
            hub: InprocHub::new(),
            channels: (0..layout.len())
                .map(|_| Arc::new(Channel::new()))
                .collect(),
            layout,
            peers,
            ingress,
            stores: plan
                .devices
                .iter()
                .map(|d| {
                    let store = FrameStore::with_capacity(STORE_CAPACITY);
                    (d.name.clone(), Arc::new(store))
                })
                .collect(),
            metrics: Mutex::new(PipelineMetrics::new()),
            logs: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            deliveries: AtomicU64::new(0),
            config,
            breakers: Mutex::new(LabelMap::new()),
            restarts: AtomicU64::new(0),
            fence_epoch: AtomicU64::new(0),
            detector: Mutex::new(detector),
            checkpoints: Mutex::new(HashMap::new()),
            muted_heartbeats: Mutex::new(HashSet::new()),
            knobs: KnobActuators::baseline(),
        });
        Ok((shared, endpoints))
    }

    /// The route from a site on device `from` to channel `to`: its queue
    /// when the channel is consumed on `from` (always, in `Inproc` mode),
    /// its owner's ingress socket otherwise.
    fn route(&self, from: usize, to: usize) -> Route {
        self.request_route(from, to, None)
    }

    /// [`Shared::route`], for a service request whose caller's replies come
    /// back on channel `reply`: named on the wire when the route is remote.
    fn request_route(&self, from: usize, to: usize, reply: Option<usize>) -> Route {
        let owner = self.layout.owner(to);
        match self.peers.get(owner) {
            Some(peer) if owner != from => Route::Remote {
                peer: Arc::clone(peer),
                channel: self.layout.wire_name(&self.pipeline, to),
                reply_to: reply
                    .map_or_else(String::new, |r| self.layout.wire_name(&self.pipeline, r)),
            },
            _ => Route::Local(Arc::clone(&self.channels[to])),
        }
    }

    /// The channel a frame received from the TCP wire is addressed to.
    pub(crate) fn ingress_channel(&self, name: &str) -> Option<&Channel> {
        self.ingress.get(name).map(|&id| &*self.channels[id])
    }

    /// Each plan device with its route to the heartbeat monitor.
    pub(crate) fn heartbeat_routes(&self) -> Vec<(String, Route)> {
        let hb = self.layout.hb();
        (0..self.layout.devices.len())
            .map(|d| (self.layout.devices[d].clone(), self.route(d, hb)))
            .collect()
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn store(&self, device: &str) -> Arc<FrameStore> {
        Arc::clone(
            self.stores
                .get(device)
                .expect("every plan device has a store"),
        )
    }

    /// The codec quality in effect right now: the SLO controller's override
    /// when one is applied, the configured quality otherwise.
    pub(crate) fn effective_quality(&self) -> codec::Quality {
        match self.knobs.quality_shift.load(Ordering::Relaxed) {
            shift if shift < 8 => codec::Quality::new(shift),
            _ => self.config.codec_quality,
        }
    }

    /// The micro-batch ceiling in effect for `service` right now: the
    /// configured policy, raised to the controller's batch floor when the
    /// batch knob is engaged.
    pub(crate) fn effective_max_batch(&self, service: &str) -> usize {
        self.config
            .batch_for(service)
            .max_batch
            .max(1)
            .max(self.knobs.batch_floor.load(Ordering::Relaxed))
    }

    /// Scales a modeled cost by the configured emulation factor (`None`
    /// when emulation is off or there is nothing to emulate).
    fn scaled(&self, modeled: Duration, speed: f64) -> Option<Duration> {
        let scale = self.config.time_scale;
        (scale > 0.0 && !modeled.is_zero()).then(|| modeled.mul_f64(scale / speed))
    }

    /// A report of the pipeline so far. At the end of the run (`last`) the
    /// metrics, log and error lines are handed over; a mid-run snapshot
    /// clones them, leaving them for the final report.
    pub(crate) fn report(&self, last: bool) -> RunReport {
        fn hand_over<T: Clone + Default>(value: &mut T, last: bool) -> T {
            if last {
                std::mem::take(value)
            } else {
                value.clone()
            }
        }
        let run_duration_ns = self.now_ns();
        let mut metrics = hand_over(&mut *self.metrics.lock(), last);
        metrics.run_duration_ns = run_duration_ns;
        let breakers = self
            .breakers
            .lock()
            .iter()
            .map(|(name, b)| (name.clone(), b.snapshot()))
            .collect();
        let device_statuses = self
            .detector
            .lock()
            .as_ref()
            .map(|d| d.statuses(run_duration_ns))
            .unwrap_or_default();
        RunReport {
            metrics,
            logs: hand_over(&mut *self.logs.lock(), last),
            errors: hand_over(&mut *self.errors.lock(), last),
            restarts: self.restarts.load(Ordering::Relaxed),
            breakers,
            device_statuses,
            fence_epoch: self.fence_epoch.load(Ordering::SeqCst),
            slo_level: self.knobs.level.load(Ordering::Relaxed),
            slo_moves: self.knobs.moves.load(Ordering::Relaxed),
            slo_flaps: self.knobs.flaps.load(Ordering::Relaxed),
            scheduler: Vec::new(),
            checkpoints: self.checkpoints.lock().clone(),
        }
    }
}

/// A payload-free message carrying a frame's identity: flow-control
/// signals, error-path credit returns and camera ticks. Its route is its
/// address, so it names no channel.
fn frame_msg(kind: MessageKind, header: Header, epoch: u64) -> WireMessage {
    WireMessage {
        kind,
        channel: String::new(),
        reply_to: String::new(),
        corr_id: 0,
        seq: header.frame_seq,
        timestamp_ns: header.capture_ts_ns,
        epoch,
        payload: bytes::Bytes::new(),
    }
}

/// The reply to `request`, addressed by the route the host picks from its
/// `corr_id`, so naming no channel.
fn response_to(request: &WireMessage, payload: bytes::Bytes) -> WireMessage {
    WireMessage {
        kind: MessageKind::Response,
        channel: String::new(),
        reply_to: String::new(),
        corr_id: request.corr_id,
        seq: request.seq,
        timestamp_ns: request.timestamp_ns,
        epoch: request.epoch,
        payload,
    }
}

/// Modeled transfer of `bytes` over the emulated link (~Wi-Fi: 2.5 ms +
/// 100 Mbit/s). Sender-side: the module blocks on the round trip anyway.
fn link_cost(bytes: usize) -> Duration {
    Duration::from_micros(2_500 + bytes as u64 * 8 / 100)
}

/// Wiring facts one module needs, resolved from the plan at deploy.
struct ModuleWiring {
    name: String,
    /// This module's cell in the stage metrics.
    stage: Slot,
    device: String,
    /// The device-local frame store.
    store: Arc<FrameStore>,
    /// One per outgoing edge.
    nexts: Vec<Edge>,
    /// One per bound service.
    services: Vec<ServiceWire>,
    /// Towards the pacer: completion signals and error-path credit returns.
    fc: Route,
    is_source: bool,
}

/// An edge to a downstream module.
struct Edge {
    to: String,
    route: Route,
    /// Frames are encoded for the wire (and the link emulated) when the
    /// edge crosses devices, whatever the transport.
    cross_device: bool,
}

/// A bound service: where its requests go and who this module is to the
/// host.
struct ServiceWire {
    service: String,
    route: Route,
    /// The call crosses devices: frames are encoded, the link emulated.
    remote: bool,
    /// This module's index among the host's callers, carried in `corr_id`
    /// so that the host knows which reply route answers it.
    caller: u64,
    /// The service's circuit breaker in [`Shared::breakers`] (`None`:
    /// breakers are off).
    breaker: Option<Slot>,
}

/// Per-module context state that survives from one event to the next.
struct CtxState {
    header: Header,
    /// Fence epoch of the event being processed; stamped onto every
    /// outgoing message so the pacer can fence frames admitted before a
    /// failover.
    epoch: u64,
    corr: u64,
    reply_rx: Arc<Channel>,
    /// Last successful response per bound service, indexed like
    /// [`ModuleWiring::services`], for
    /// [`DegradationPolicy::LastKnownGood`] (empty under any other
    /// policy). Stored in encoded form: the per-success store is then an
    /// O(1) refcount bump of the wire bytes, and the (rare) degraded path
    /// pays the decode.
    lkg: Vec<Option<bytes::Bytes>>,
    /// Deterministic per-module retry jitter stream.
    jitter: SeededJitter,
}

/// The execution context handed to module handlers.
struct Ctx<'a, X: Exec> {
    exec: &'a X,
    shared: &'a Shared,
    wiring: &'a ModuleWiring,
    st: &'a mut CtxState,
}

impl<X: Exec> Ctx<'_, X> {
    fn emulate(&self, modeled: Duration) {
        if let Some(dur) = self.shared.scaled(modeled, 1.0) {
            self.exec.pause(dur);
        }
    }

    /// Checks one inbound reply against the outstanding correlation id.
    /// `None` = stale response to a timed-out attempt; skip it.
    fn check_reply(
        &self,
        msg: WireMessage,
        corr_id: u64,
        remote: bool,
        service: &str,
    ) -> Option<Result<(ServiceResponse, bytes::Bytes), PipelineError>> {
        if msg.kind != MessageKind::Response || msg.corr_id != corr_id {
            return None;
        }
        if remote {
            self.emulate(link_cost(msg.payload.len()));
        }
        Some(ServiceResponse::decode(&msg.payload).and_then(|resp| {
            // Hosts answer failures with a typed error payload.
            match &resp.payload {
                Payload::Error(reason) => Err(PipelineError::Service {
                    service: service.to_string(),
                    reason: reason.clone(),
                }),
                _ => Ok((resp, msg.payload)),
            }
        }))
    }

    /// One request/response exchange with a service host, bounded by the
    /// configured per-call deadline. Returns the decoded response plus its
    /// raw wire bytes (shared, for the last-known-good cache).
    fn attempt_service_call(
        &mut self,
        wire: &ServiceWire,
        bytes: bytes::Bytes,
    ) -> Result<(ServiceResponse, bytes::Bytes), PipelineError> {
        let (service, remote) = (wire.service.as_str(), wire.remote);
        if remote {
            self.emulate(link_cost(bytes.len()));
        }
        self.st.corr += 1;
        let corr_id = (wire.caller << CALLER_SHIFT) | self.st.corr;
        let request = WireMessage::request(String::new(), String::new(), corr_id, bytes);
        self.exec.send(&wire.route, request)?;
        let started = Instant::now();
        let deadline = started + self.shared.config.resilience.service_call_timeout;
        loop {
            // The clock first: a wait spent helping run other tasks — maybe
            // the very handler that answers — can end past the deadline with
            // the reply already queued, and a caller that could not act on
            // it in time has timed out.
            if Instant::now() >= deadline {
                return Err(PipelineError::Timeout {
                    service: service.to_string(),
                    elapsed: started.elapsed(),
                });
            }
            while let Some(msg) = self.st.reply_rx.try_recv() {
                if let Some(result) = self.check_reply(msg, corr_id, remote, service) {
                    return result;
                }
            }
            if self.shared.stopped() {
                return Err(PipelineError::Shutdown);
            }
            if let Some(msg) = self.exec.await_reply(&self.st.reply_rx, deadline) {
                if let Some(result) = self.check_reply(msg, corr_id, remote, service) {
                    return result;
                }
            }
        }
    }

    fn breaker_allows(&self, breaker: Slot) -> bool {
        let now_ns = self.shared.now_ns();
        self.shared.breakers.lock()[breaker].allow(now_ns)
    }

    fn breaker_record(&self, breaker: Slot, success: bool) {
        let now_ns = self.shared.now_ns();
        let breaker = &mut self.shared.breakers.lock()[breaker];
        if success {
            breaker.record_success();
        } else {
            breaker.record_failure(now_ns);
        }
    }

    /// Applies the degradation policy once a call to the `index`-th bound
    /// service has been abandoned: its last good response when the policy
    /// keeps one.
    fn degrade(&self, index: usize, err: PipelineError) -> Result<ServiceResponse, PipelineError> {
        if let Some(Some(cached)) = self.st.lkg.get(index) {
            // Cached in wire form; decoding here keeps the success path
            // free of deep response clones.
            if let Ok(resp) = ServiceResponse::decode(cached) {
                return Ok(resp);
            }
        }
        Err(err)
    }

    /// A frame reference cannot leave its device: swap it for the encoded
    /// frame — at most once per (frame, quality), via the store's
    /// transcoding cache. A frame fanned out to N remote destinations (or
    /// retried M times) runs the codec exactly once; everyone else gets a
    /// refcount bump of the same buffer.
    fn encode_for_wire(&self, payload: Payload) -> Result<Payload, PipelineError> {
        match payload {
            Payload::FrameRef(id) => {
                let quality = self.shared.effective_quality();
                Ok(Payload::EncodedFrame(
                    self.wiring.store.encoded(id, quality)?,
                ))
            }
            other => Ok(other),
        }
    }

    /// Error-path credit return: the frame died in this module. A
    /// Control-kind message distinguishes this from a real completion so the
    /// pacer does not count it as delivered.
    fn return_credit(&self) {
        let credit = frame_msg(MessageKind::Control, self.st.header, self.st.epoch);
        let _ = self.exec.send(&self.wiring.fc, credit);
    }
}

impl<X: Exec> ModuleCtx for Ctx<'_, X> {
    fn call_service(
        &mut self,
        service: &str,
        mut request: ServiceRequest,
    ) -> Result<ServiceResponse, PipelineError> {
        let (shared, wiring) = (self.shared, self.wiring);
        let (index, wire) = wiring
            .services
            .iter()
            .enumerate()
            .find(|(_, w)| w.service == service)
            .ok_or_else(|| PipelineError::ServiceUnavailable {
                module: wiring.name.clone(),
                service: service.to_string(),
            })?;
        let resilience = &shared.config.resilience;
        // Circuit breaker gate: fast-fail while the service's breaker is
        // open so a dead service costs microseconds per frame, not a
        // deadline per frame.
        if let Some(breaker) = wire.breaker {
            if !self.breaker_allows(breaker) {
                let open = PipelineError::CircuitOpen {
                    service: service.to_string(),
                };
                return self.degrade(index, open);
            }
        }
        if wire.remote {
            request.payload = self.encode_for_wire(request.payload)?;
        }
        let mut bytes = request.encode();
        let max_attempts = resilience.retry.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            // Attempts share the serialized request by refcount; the final
            // attempt moves it instead of cloning.
            let attempt_bytes = if attempt >= max_attempts {
                std::mem::take(&mut bytes)
            } else {
                bytes.clone()
            };
            match self.attempt_service_call(wire, attempt_bytes) {
                Ok((resp, raw)) => {
                    if let Some(breaker) = wire.breaker {
                        self.breaker_record(breaker, true);
                    }
                    if let Some(good) = self.st.lkg.get_mut(index) {
                        *good = Some(raw);
                    }
                    return Ok(resp);
                }
                Err(PipelineError::Shutdown) => return Err(PipelineError::Shutdown),
                Err(e) => {
                    if let Some(breaker) = wire.breaker {
                        self.breaker_record(breaker, false);
                    }
                    if attempt >= max_attempts {
                        return self.degrade(index, e);
                    }
                    let backoff = resilience.retry.backoff(attempt, &mut self.st.jitter);
                    if !backoff.is_zero() {
                        self.exec.pause(backoff);
                    }
                    if self.shared.stopped() {
                        return Err(PipelineError::Shutdown);
                    }
                }
            }
        }
    }

    fn call_module(&mut self, target: &str, mut payload: Payload) -> Result<(), PipelineError> {
        let wiring = self.wiring;
        let edge = wiring
            .nexts
            .iter()
            .find(|e| e.to == target)
            .ok_or_else(|| {
                PipelineError::Validation(format!(
                    "module {:?} has no edge to {target:?}",
                    wiring.name
                ))
            })?;
        if edge.cross_device {
            payload = self.encode_for_wire(payload)?;
            self.emulate(link_cost(payload.size_hint()));
        }
        let header = self.st.header;
        let msg = WireMessage::data(
            String::new(),
            header.frame_seq,
            header.capture_ts_ns,
            payload.encode(),
        );
        self.exec.send(&edge.route, msg.with_epoch(self.st.epoch))
    }

    fn signal_source(&mut self) -> Result<(), PipelineError> {
        let signal = frame_msg(MessageKind::Signal, self.st.header, self.st.epoch);
        self.exec.send(&self.wiring.fc, signal)
    }

    fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }

    fn module_name(&self) -> &str {
        &self.wiring.name
    }

    fn device_name(&self) -> &str {
        &self.wiring.device
    }

    fn frame_store(&self) -> &FrameStore {
        &self.wiring.store
    }

    fn header(&self) -> Header {
        self.st.header
    }

    fn set_header(&mut self, header: Header) {
        self.st.header = header;
    }

    fn log(&mut self, text: &str) {
        self.shared
            .logs
            .lock()
            .push(format!("{}: {text}", self.wiring.name));
    }
}

/// One deployed module instance: its wiring, inbox, handler and the context
/// state that outlives a single event. The runtime owns the task and
/// decides when [`ModuleTask::step`] runs.
pub(crate) struct ModuleTask {
    pub(crate) inbox: Arc<Channel>,
    wiring: ModuleWiring,
    instance: Box<dyn Module>,
    factory: ModuleFactory,
    st: CtxState,
    last_checkpoint: Instant,
}

impl ModuleTask {
    /// Wires module `m` from the plan — its inbox, reply channel and one
    /// route per edge, bound service and the pacer — instantiates it and
    /// runs its `init` (which may already call services, so the runtime
    /// deploys service hosts first).
    ///
    /// # Errors
    ///
    /// Unknown includes, unplaced modules or `init` failures.
    pub(crate) fn deploy<X: Exec>(
        shared: &Shared,
        exec: &X,
        plan: &DeploymentPlan,
        m: &ModuleSpec,
        modules: &ModuleRegistry,
    ) -> Result<Self, PipelineError> {
        let layout = &shared.layout;
        let i = layout.module(&m.name)?;
        let from = layout.modules[i].1;
        let device = layout.devices[from].clone();
        let nexts = plan
            .edges
            .iter()
            .filter(|e| e.from == m.name)
            .map(|e| {
                Ok(Edge {
                    to: e.to.clone(),
                    route: shared.route(from, Layout::inbox(layout.module(&e.to)?)),
                    cross_device: e.cross_device,
                })
            })
            .collect::<Result<_, PipelineError>>()?;
        let resilience = &shared.config.resilience;
        let services: Vec<ServiceWire> = plan
            .service_bindings
            .iter()
            .filter(|b| b.module == m.name)
            .map(|b| {
                let host = layout.host_of(b);
                let host_chan = layout.host(host);
                ServiceWire {
                    service: b.service.clone(),
                    route: shared.request_route(from, host_chan, Some(Layout::reply(i))),
                    remote: b.remote,
                    caller: callers(plan, layout, host)
                        .position(|c| std::ptr::eq(c, b))
                        .expect("a binding is among its host's callers")
                        as u64,
                    breaker: resilience.breaker_enabled().then(|| {
                        shared
                            .breakers
                            .lock()
                            .slot_or_insert_with(&b.service, || resilience.make_breaker())
                    }),
                }
            })
            .collect();
        let lkg = if resilience.degradation == DegradationPolicy::LastKnownGood {
            vec![None; services.len()]
        } else {
            Vec::new()
        };
        let mut task = ModuleTask {
            inbox: Arc::clone(&shared.channels[Layout::inbox(i)]),
            wiring: ModuleWiring {
                name: m.name.clone(),
                stage: shared.metrics.lock().stages.slot(&m.name),
                store: shared.store(&device),
                device,
                nexts,
                services,
                fc: shared.route(from, layout.fc()),
                is_source: shared.sources.contains(&m.name),
            },
            instance: modules.instantiate(&m.include)?,
            factory: modules.factory(&m.include)?,
            st: CtxState {
                header: Header::default(),
                epoch: 0,
                corr: 0,
                reply_rx: Arc::clone(&shared.channels[Layout::reply(i)]),
                lkg,
                jitter: SeededJitter::new(seed_for(resilience.seed, &m.name)),
            },
            last_checkpoint: Instant::now(),
        };
        let mut ctx = Ctx {
            exec,
            shared,
            wiring: &task.wiring,
            st: &mut task.st,
        };
        task.instance.init(&mut ctx)?;
        Ok(task)
    }

    fn checkpoint(&self, shared: &Shared) {
        if let Some(snap) = self.instance.snapshot() {
            let mut checkpoints = shared.checkpoints.lock();
            checkpoints.insert(self.wiring.name.clone(), snap);
        }
    }

    /// Periodic checkpoint: persists the instance's recoverable state when
    /// a period has elapsed, so a restarted replacement resumes near where
    /// this one died. Returns when the next one is due (`None`:
    /// checkpointing is off).
    pub(crate) fn checkpoint_if_due(&mut self, shared: &Shared) -> Option<Instant> {
        let period = shared.config.checkpoint_period?;
        if self.last_checkpoint.elapsed() >= period {
            self.last_checkpoint = Instant::now();
            self.checkpoint(shared);
        }
        Some(self.last_checkpoint + period)
    }

    /// Final checkpoint at teardown: a graceful shutdown (SIGTERM, drain)
    /// should hand off the freshest recoverable state, not whatever the
    /// last periodic tick happened to capture.
    pub(crate) fn final_checkpoint(&self, shared: &Shared) {
        if shared.config.checkpoint_period.is_some() {
            self.checkpoint(shared);
        }
    }

    /// Processes one inbox message: decode → `on_event` under supervision →
    /// stage metric → error-path credit return.
    pub(crate) fn step<X: Exec>(&mut self, shared: &Shared, exec: &X, msg: WireMessage) {
        let ModuleTask {
            wiring,
            instance,
            factory,
            st,
            ..
        } = self;
        st.epoch = msg.epoch;
        let header = Header {
            frame_seq: msg.seq,
            capture_ts_ns: msg.timestamp_ns,
        };
        let event = match msg.kind {
            MessageKind::Signal if wiring.is_source => Ok(Event::FrameTick {
                t_ns: msg.timestamp_ns,
            }),
            // Cross-device frames arrive encoded; the handler sees a
            // reference into the local store like any other frame.
            MessageKind::Data => match Payload::decode(&msg.payload) {
                Ok(Payload::EncodedFrame(bytes)) => codec::decode(&bytes)
                    .map(|frame| Payload::FrameRef(wiring.store.insert(frame)))
                    .map_err(|e| format!("frame decode failed: {e}")),
                Ok(payload) => Ok(payload),
                Err(e) => Err(format!("payload decode failed: {e}")),
            }
            .map(|payload| Event::Message(Message::new(header, payload))),
            _ => return,
        };
        st.header = header;
        let mut ctx = Ctx {
            exec,
            shared,
            wiring,
            st,
        };
        // A frame that fails to decode dies at ingress exactly as one whose
        // handler fails dies mid-pipeline: one error path, one credit return.
        let result = event.and_then(|event| {
            let start = Instant::now();
            let handled = catch_unwind(AssertUnwindSafe(|| instance.on_event(event, &mut ctx)));
            let result = handled.unwrap_or_else(|panic| {
                // Supervision: the instance may hold poisoned state, so
                // replace it with a fresh one and keep the task alive. The
                // in-flight frame dies and returns its credit below.
                *instance = factory();
                let _ = catch_unwind(AssertUnwindSafe(|| instance.init(&mut ctx)));
                // Checkpointed restart: hand the replacement the latest
                // snapshot so stateful modules resume rather than reset.
                if let Some(snap) = shared.checkpoints.lock().get(&wiring.name).cloned() {
                    instance.restore(&snap);
                }
                shared.restarts.fetch_add(1, Ordering::Relaxed);
                Err(PipelineError::Module {
                    module: wiring.name.clone(),
                    reason: format!("panicked: {}", panic_message(panic.as_ref())),
                })
            });
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            shared
                .metrics
                .lock()
                .record_stage_at(wiring.stage, elapsed_ns);
            result.map_err(|e| e.to_string())
        });
        if let Err(reason) = result {
            // Errors caused by the runtime tearing down (peers already
            // gone) are shutdown artifacts, not pipeline failures.
            if shared.stopped() {
                return;
            }
            shared
                .errors
                .lock()
                .push(format!("{}: {reason}", wiring.name));
            // The frame died here: return its credit so the pipeline keeps
            // flowing — with the paper's single credit and no lease, a frame
            // that dies silently stalls the source for good.
            ctx.return_credit();
        }
    }
}

/// The bindings host `j` serves, in plan order: a caller's position here is
/// its index into the host's reply routes.
fn callers<'p>(
    plan: &'p DeploymentPlan,
    layout: &'p Layout,
    j: usize,
) -> impl Iterator<Item = &'p ServiceBinding> + 'p {
    plan.service_bindings
        .iter()
        .filter(move |b| layout.host_of(b) == j)
}

/// One (device, service) host actually bound by some module: the inbox its
/// requests arrive on, the routes its replies take and everything needed
/// to serve a batch of requests.
pub(crate) struct ServiceHost {
    pub(crate) inbox: Arc<Channel>,
    /// One reply route per caller, indexed by the caller's index that each
    /// request carries in its `corr_id` ([`reply_route`]).
    pub(crate) replies: Arc<[Route]>,
    /// The host device's core count: how many batches it serves at once in
    /// modeled time (the runtime's per-host horizon).
    pub(crate) cores: u32,
    image: Arc<dyn Service>,
    store: Arc<FrameStore>,
    speed: f64,
    /// This host's cell in the dispatch metrics (`device/service`).
    dispatch: Slot,
}

impl ServiceHost {
    /// Deploys one host per distinct (device, service) pair in the plan,
    /// with a reply route to each of its callers.
    ///
    /// # Errors
    ///
    /// Unregistered service images.
    pub(crate) fn deploy_all(
        shared: &Shared,
        plan: &DeploymentPlan,
        services: &ServiceRegistry,
    ) -> Result<Vec<Self>, PipelineError> {
        let layout = &shared.layout;
        layout
            .hosts
            .iter()
            .enumerate()
            .map(|(j, &(from, ref service))| {
                let image = services.get(service).ok_or_else(|| {
                    PipelineError::Deploy(format!("service image {service:?} not registered"))
                })?;
                // Layout device indices are plan device indices.
                let dev_spec = &plan.devices[from];
                let replies = callers(plan, layout, j)
                    .map(|b| Ok(shared.route(from, Layout::reply(layout.module(&b.module)?))))
                    .collect::<Result<_, PipelineError>>()?;
                Ok(ServiceHost {
                    inbox: Arc::clone(&shared.channels[layout.host(j)]),
                    replies,
                    cores: dev_spec.cores.max(1),
                    store: shared.store(&dev_spec.name),
                    speed: dev_spec.speed_factor.max(1e-6),
                    dispatch: shared
                        .metrics
                        .lock()
                        .dispatch
                        .slot(&format!("{}/{service}", dev_spec.name)),
                    image,
                })
            })
            .collect()
    }

    /// Starts a batch from a dequeued message: `None` unless it is a
    /// request; otherwise the request plus whatever is already queued (zero
    /// added latency), up to the batch ceiling in effect right now — the
    /// SLO controller may raise it mid-run. Also returns the backlog behind
    /// `first`, sampled BEFORE the drain empties the queue:
    /// `max_queue_depth` must keep reflecting true pressure.
    pub(crate) fn free_drain(
        &self,
        shared: &Shared,
        first: WireMessage,
    ) -> Option<(Vec<WireMessage>, u64)> {
        if first.kind != MessageKind::Request {
            return None;
        }
        let max_batch = shared.effective_max_batch(self.image.name());
        let queue_depth = self.inbox.pending() as u64;
        let mut msgs = vec![first];
        while msgs.len() < max_batch {
            match self.inbox.try_recv() {
                Some(m) if m.kind == MessageKind::Request => msgs.push(m),
                Some(_) => {}
                None => break,
            }
        }
        Some((msgs, queue_depth))
    }

    /// Serves one batch and returns one reply per request, in request
    /// order, plus the batch's scaled modeled cost (`None` when emulation
    /// is off). The replies are computed eagerly; *when* they leave is the
    /// runtime's (off a timer, once the modeled cost has passed), and
    /// [`reply_route`] over [`ServiceHost::replies`] says where.
    pub(crate) fn serve(
        &self,
        shared: &Shared,
        msgs: &[WireMessage],
        queue_depth: u64,
    ) -> (Vec<WireMessage>, Option<Duration>) {
        let started = Instant::now();
        let name = self.image.name();
        // Decode every request up front. A slot that fails here still gets
        // a typed error reply below — a caller must never wait out its full
        // deadline because the host dropped its request on the floor.
        let mut slots: Vec<Result<ServiceRequest, PipelineError>> = msgs
            .iter()
            .map(|m| ServiceRequest::decode(&m.payload))
            .collect();
        // Cross-device frames arrive encoded; decode the whole batch in one
        // pass into the local store so the service sees FrameRefs like any
        // other request.
        let encoded: Vec<(usize, bytes::Bytes)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Ok(ServiceRequest {
                    payload: Payload::EncodedFrame(bytes),
                    ..
                }) => Some((i, bytes.clone())),
                _ => None,
            })
            .collect();
        let frames = codec::decode_batch(encoded.iter().map(|(_, b)| b.as_ref()));
        for ((i, _), result) in encoded.iter().zip(frames) {
            match result {
                Ok(frame) => {
                    if let Ok(req) = &mut slots[*i] {
                        req.payload = Payload::FrameRef(self.store.insert(frame));
                    }
                }
                Err(e) => {
                    let reason = format!("frame decode failed: {e}");
                    let mut errors = shared.errors.lock();
                    errors.push(format!("service {name}: {reason}"));
                    slots[*i] = Err(PipelineError::Service {
                        service: name.to_string(),
                        reason,
                    });
                }
            }
        }

        // Modeled compute cost of the batch: the leading request pays its
        // full base cost, followers pay the amortised batched base.
        let mut modeled = Duration::ZERO;
        let mut first = true;
        for (slot, m) in slots.iter().zip(msgs) {
            if let Ok(req) = slot {
                modeled += self.image.cost(req).for_batch_item(first, m.payload.len());
                first = false;
            }
        }
        let delay = shared.scaled(modeled, self.speed);

        let responses = supervised_batch(self.image.as_ref(), slots, &self.store);
        let replies = msgs
            .iter()
            .zip(responses)
            .map(|(m, response)| {
                let response = response.unwrap_or_else(|e| {
                    // A handler failure is not yet a pipeline error: the
                    // typed error reply lets the caller fail fast and retry
                    // or degrade instead of timing out, and only an
                    // *unrecovered* failure is recorded (by the module
                    // step). Keep a log line for diagnostics.
                    shared.logs.lock().push(format!("service {name}: {e}"));
                    ServiceResponse::new(Payload::Error(e.to_string()))
                });
                response_to(m, response.encode())
            })
            .collect();
        // Modeled time counts as busy: the host is occupied while it passes.
        let busy = started.elapsed() + delay.unwrap_or_default();
        shared.metrics.lock().record_dispatch_batch_at(
            self.dispatch,
            busy.as_nanos() as u64,
            queue_depth,
            msgs.len() as u64,
        );
        (replies, delay)
    }
}

/// Runs `image.handle_batch` over the decoded slots of one dispatch batch
/// and returns one result per slot, in slot order.
///
/// The decoded requests are *moved* into the contiguous slice the handler
/// takes — a slot that failed to decode keeps its error in place and is
/// skipped — so dispatch never deep-copies a payload.
///
/// The handler is supervised: a panicking service (a crashed container)
/// must not take the host with it. A panic fails every request of the
/// batch with a typed error, so the caller side records one breaker event
/// per *request*, never one per batch. A `handle_batch` override that
/// returns too few results fails the unanswered slots the same way rather
/// than misaligning replies.
pub(crate) fn supervised_batch(
    image: &dyn Service,
    slots: Vec<Result<ServiceRequest, PipelineError>>,
    store: &FrameStore,
) -> Vec<Result<ServiceResponse, PipelineError>> {
    let service_err = |reason: String| PipelineError::Service {
        service: image.name().to_string(),
        reason,
    };
    let mut ready: Vec<ServiceRequest> = Vec::with_capacity(slots.len());
    let undecoded: Vec<Option<PipelineError>> = slots
        .into_iter()
        .map(|slot| match slot {
            Ok(request) => {
                ready.push(request);
                None
            }
            Err(e) => Some(e),
        })
        .collect();
    let handled = if ready.is_empty() {
        Vec::new()
    } else {
        catch_unwind(AssertUnwindSafe(|| image.handle_batch(&ready, store))).unwrap_or_else(
            |panic| {
                let reason = format!("panicked: {}", panic_message(panic.as_ref()));
                ready
                    .iter()
                    .map(|_| Err(service_err(reason.clone())))
                    .collect()
            },
        )
    };
    let mut handled = handled.into_iter();
    undecoded
        .into_iter()
        .map(|slot| match slot {
            Some(e) => Err(e),
            None => handled.next().unwrap_or_else(|| {
                Err(service_err(
                    "handle_batch returned too few results".to_string(),
                ))
            }),
        })
        .collect()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// The per-pipeline pacer: camera ticks and the credit flow control at the
/// source. The runtime feeds it completion signals and calls
/// [`Pacer::tick`] whenever [`Pacer::next_tick`] has passed.
pub(crate) struct Pacer {
    pub(crate) fc_inbox: Arc<Channel>,
    /// Wall-aligned deadline of the next camera tick.
    pub(crate) next_tick: Instant,
    /// From the source device to each source's inbox.
    sources: Vec<Route>,
    pacer: SourcePacer,
    controller: CreditController,
    interval: Duration,
    lease: Option<Duration>,
    /// Outstanding admissions are tracked by frame seq for credit-lease
    /// expiry and for epoch fencing (either feature needs the set).
    track_outstanding: bool,
    outstanding: HashMap<u64, Instant>,
    /// Fence epoch this pacer is admitting under. A bump (confirmed device
    /// loss) fences everything in flight: those frames may be lost, half
    /// delivered, or redelivered — their credits come back here and any
    /// late signal they still produce is ignored.
    current_epoch: u64,
    /// Recently delivered frame seqs, for redelivery dedup (at-least-once
    /// delivery must not double-count).
    dedup_window: usize,
    dedup_order: VecDeque<u64>,
    dedup_set: HashSet<u64>,
}

impl Pacer {
    /// Takes the pipeline's flow-control inbox and routes to its sources;
    /// the first tick is due now.
    ///
    /// # Errors
    ///
    /// An unplaced source.
    pub(crate) fn deploy(shared: &Shared) -> Result<Self, PipelineError> {
        let config = &shared.config;
        let pacer = SourcePacer::new(config.fps);
        let lease = config.resilience.credit_timeout;
        let layout = &shared.layout;
        Ok(Pacer {
            fc_inbox: Arc::clone(&shared.channels[layout.fc()]),
            next_tick: Instant::now(),
            sources: shared
                .sources
                .iter()
                .map(|source| {
                    let inbox = Layout::inbox(layout.module(source)?);
                    Ok(shared.route(layout.source_device, inbox))
                })
                .collect::<Result<_, PipelineError>>()?,
            interval: Duration::from_nanos(pacer.interval_ns()),
            pacer,
            controller: CreditController::new(config.credits),
            lease,
            track_outstanding: lease.is_some() || config.heartbeats.is_some(),
            outstanding: HashMap::new(),
            current_epoch: shared.fence_epoch.load(Ordering::SeqCst),
            dedup_window: config.dedup_window,
            dedup_order: VecDeque::with_capacity(config.dedup_window),
            dedup_set: HashSet::with_capacity(config.dedup_window),
        })
    }

    /// Epoch bump: proactively fault every outstanding admission so the
    /// source regains its credits immediately instead of waiting out a
    /// lease on frames the dead device will never finish.
    pub(crate) fn check_fence(&mut self, shared: &Shared) {
        let fence = shared.fence_epoch.load(Ordering::SeqCst);
        if fence != self.current_epoch {
            self.current_epoch = fence;
            let fenced = self.outstanding.len() as u64;
            for _ in self.outstanding.drain() {
                self.controller.fault();
            }
            if fenced > 0 {
                shared.logs.lock().push(format!(
                    "pacer: fenced {fenced} in-flight frame(s) at epoch {fence}"
                ));
            }
        }
    }

    /// Accounts one message from the flow-control inbox: a completion
    /// signal or an error-path credit return.
    pub(crate) fn on_signal(&mut self, shared: &Shared, msg: &WireMessage) {
        // Redelivered frame already counted: drop the signal whole — its
        // credit was settled the first time around.
        if self.dedup_window > 0
            && msg.kind == MessageKind::Signal
            && self.dedup_set.contains(&msg.seq)
        {
            return;
        }
        // When admissions are tracked, only outstanding frames may return
        // a credit: anything else is a late echo of an already expired
        // lease or a fenced epoch, and honouring it would free a credit
        // that belongs to a different frame.
        let known = !self.track_outstanding || self.outstanding.remove(&msg.seq).is_some();
        // Signals from a dead epoch are fenced: the credit (if still held)
        // is reclaimed through the fault path, and the delivery is NOT
        // counted.
        let fenced = msg.epoch != self.current_epoch;
        match msg.kind {
            MessageKind::Signal if known && !fenced => {
                self.controller.complete();
                if self.dedup_window > 0 {
                    if self.dedup_order.len() == self.dedup_window {
                        if let Some(old) = self.dedup_order.pop_front() {
                            self.dedup_set.remove(&old);
                        }
                    }
                    self.dedup_order.push_back(msg.seq);
                    self.dedup_set.insert(msg.seq);
                }
                let now_ns = shared.now_ns();
                let latency = now_ns.saturating_sub(msg.timestamp_ns);
                shared.metrics.lock().record_delivery(now_ns, latency);
                shared.deliveries.fetch_add(1, Ordering::Relaxed);
            }
            // A fenced completion, or the error path: the frame died
            // mid-pipeline.
            MessageKind::Signal | MessageKind::Control if known => self.controller.fault(),
            _ => {}
        }
    }

    /// Expires credit leases: a frame that produced no signal within the
    /// timeout (lost across a dead link, wedged beyond every deadline) has
    /// its credit reclaimed so the source cannot stall forever.
    pub(crate) fn expire_leases(&mut self, shared: &Shared) {
        let Some(timeout) = self.lease else { return };
        let now = Instant::now();
        let expired: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, admitted_at)| now.duration_since(**admitted_at) > timeout)
            .map(|(seq, _)| *seq)
            .collect();
        for seq in expired {
            self.outstanding.remove(&seq);
            self.controller.fault();
            let mut errors = shared.errors.lock();
            errors.push(format!("pacer: credit lease expired for frame {seq}"));
        }
    }

    /// One camera tick. The SLO controller's sampling/shedding knobs thin
    /// admission here, before a credit is spent: with a stride of N only
    /// every N-th camera tick competes for a credit at all, and the skipped
    /// ticks are accounted as source drops.
    pub(crate) fn tick<X: Exec>(&mut self, shared: &Shared, exec: &X) {
        self.pacer.advance();
        self.next_tick += self.interval;
        let seq = self.pacer.ticks();
        let stride = shared.knobs.admit_stride();
        let sampled_out = stride > 1 && !seq.is_multiple_of(stride);
        let admitted = !sampled_out && self.controller.try_admit();
        {
            let mut metrics = shared.metrics.lock();
            metrics.frames_offered = metrics.frames_offered.saturating_add(1);
            if !admitted {
                metrics.frames_dropped = metrics.frames_dropped.saturating_add(1);
            }
        }
        if !admitted {
            return;
        }
        if self.track_outstanding {
            self.outstanding.insert(seq, Instant::now());
        }
        let header = Header {
            frame_seq: seq,
            capture_ts_ns: shared.now_ns(),
        };
        for route in &self.sources {
            let tick = frame_msg(MessageKind::Signal, header, self.current_epoch);
            let _ = exec.send(route, tick);
        }
    }

    /// Final credit accounting: lets reports prove no credit leaked
    /// (admitted == delivered + faulted + in_flight). Idempotent.
    pub(crate) fn finalize(&self, shared: &Shared) {
        let mut metrics = shared.metrics.lock();
        metrics.frames_admitted = self.controller.admitted();
        metrics.frames_faulted = self.controller.faulted();
        metrics.in_flight_at_end = self.controller.in_flight();
    }
}

/// One tick of the SLO feedback controller. It reads cumulative metrics
/// (the same histograms telemetry publishes), diffs them into a window,
/// and actuates the knob lattice through the shared atomics — never
/// touching the per-frame path.
pub(crate) fn slo_tick(controller: &mut SloController, shared: &Shared) {
    let (hist, queue_max) = {
        let metrics = shared.metrics.lock();
        let q = metrics
            .dispatch
            .values()
            .map(|d| d.max_queue_depth)
            .max()
            .unwrap_or(0);
        (metrics.end_to_end.clone(), q)
    };
    let action = controller.observe(shared.now_ns(), &hist, queue_max);
    if action == SloAction::Hold {
        return;
    }
    let level = controller.level();
    shared.knobs.apply(controller.settings(), level);
    let (moves, flaps) = (controller.moves(), controller.flaps());
    shared.knobs.moves.store(moves, Ordering::Relaxed);
    shared.knobs.flaps.store(flaps, Ordering::Relaxed);
    let dir = match action {
        SloAction::StepDown { .. } => "down",
        _ => "up",
    };
    shared.logs.lock().push(format!(
        "slo: step {dir} to level {level} \
         (window p99 {:.1} ms vs target {:.1} ms, {:?})",
        controller.last_window_p99_ns() as f64 / 1e6,
        controller.config().slo.p99.as_secs_f64() * 1e3,
        controller.settings(),
    ));
}

/// One heartbeat from `device` down its `route` to the monitor, unless the
/// chaos hook has muted the device or the pipeline is stopping.
pub(crate) fn heartbeat<X: Exec>(shared: &Shared, exec: &X, device: &str, route: &Route) {
    if shared.stopped() || shared.muted_heartbeats.lock().contains(device) {
        return;
    }
    let at = Header {
        frame_seq: 0,
        capture_ts_ns: shared.now_ns(),
    };
    let beat = WireMessage {
        payload: bytes::Bytes::copy_from_slice(device.as_bytes()),
        ..frame_msg(MessageKind::Control, at, 0)
    };
    let _ = exec.send(route, beat);
}

/// The heartbeat monitor: feeds the failure detector and bumps the fence
/// epoch on a confirmed device loss.
pub(crate) struct HbMonitor {
    pub(crate) inbox: Arc<Channel>,
    confirmed: HashSet<String>,
}

impl HbMonitor {
    /// Takes the pipeline's heartbeat inbox.
    pub(crate) fn deploy(shared: &Shared) -> Self {
        HbMonitor {
            inbox: Arc::clone(&shared.channels[shared.layout.hb()]),
            confirmed: HashSet::new(),
        }
    }

    pub(crate) fn on_beat(&self, shared: &Shared, msg: &WireMessage) {
        if msg.kind != MessageKind::Control {
            return;
        }
        if let Ok(device) = std::str::from_utf8(&msg.payload) {
            if let Some(d) = shared.detector.lock().as_mut() {
                d.record_heartbeat(device, shared.now_ns());
            }
        }
    }

    /// Walks suspicion to confirmed loss; each newly confirmed device
    /// fences one epoch.
    pub(crate) fn sweep(&mut self, shared: &Shared) {
        let now_ns = shared.now_ns();
        let dead = match shared.detector.lock().as_ref() {
            Some(d) => d.dead_devices(now_ns),
            None => Vec::new(),
        };
        for device in dead {
            if self.confirmed.insert(device.clone()) {
                let epoch = shared.fence_epoch.fetch_add(1, Ordering::SeqCst) + 1;
                shared.logs.lock().push(format!(
                    "monitor: device {device} confirmed dead; fencing epoch {epoch}"
                ));
            }
        }
    }
}

/// Publishes one telemetry snapshot (paper §7 monitoring).
pub(crate) fn publish_telemetry(shared: &Shared) {
    let mut snapshot = {
        let metrics = shared.metrics.lock();
        crate::telemetry::TelemetrySnapshot::from_metrics(
            &shared.pipeline,
            shared.now_ns(),
            &metrics,
        )
    };
    snapshot.slo_level = shared.knobs.level.load(Ordering::Relaxed) as u64;
    snapshot.publish(&shared.hub);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{ResilienceConfig, RetryPolicy};
    use std::cell::{Cell, RefCell};
    use videopipe_media::FrameBuf;

    /// A pipeline's shared state with nothing deployed on it: one device
    /// (`"one"`) and the channels of one module (`"m"`) on it, in-process,
    /// no detector, and a breaker for service `"svc"` when breakers are on.
    fn bare_shared(config: RuntimeConfig) -> Arc<Shared> {
        let mut stores = HashMap::new();
        stores.insert("one".to_string(), Arc::new(FrameStore::new()));
        let layout = Layout {
            devices: vec!["one".to_string()],
            modules: vec![("m".to_string(), 0)],
            hosts: Vec::new(),
            source_device: 0,
        };
        let mut breakers = LabelMap::new();
        if config.resilience.breaker_enabled() {
            breakers.slot_or_insert_with("svc", || config.resilience.make_breaker());
        }
        Arc::new(Shared {
            pipeline: "test".to_string(),
            sources: Vec::new(),
            hub: InprocHub::new(),
            channels: (0..layout.len())
                .map(|_| Arc::new(Channel::new()))
                .collect(),
            layout,
            peers: Vec::new(),
            ingress: HashMap::new(),
            stores,
            metrics: Mutex::new(PipelineMetrics::new()),
            logs: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            deliveries: AtomicU64::new(0),
            config,
            breakers: Mutex::new(breakers),
            restarts: AtomicU64::new(0),
            fence_epoch: AtomicU64::new(0),
            detector: Mutex::new(None),
            checkpoints: Mutex::new(HashMap::new()),
            muted_heartbeats: Mutex::new(HashSet::new()),
            knobs: KnobActuators::baseline(),
        })
    }

    /// Module `"m"`'s reply channel on a [`bare_shared`] pipeline.
    fn reply_channel(shared: &Shared) -> &Arc<Channel> {
        &shared.channels[Layout::reply(0)]
    }

    impl ServiceHost {
        /// A host for `image` on `device`, fed from a fresh inbox, with no
        /// callers.
        fn bare(shared: &Shared, image: Arc<dyn Service>, device: &str) -> Self {
            let label = format!("{device}/{}", image.name());
            ServiceHost {
                inbox: Arc::new(Channel::new()),
                replies: Vec::new().into(),
                cores: 1,
                store: shared.store(device),
                speed: 1.0,
                dispatch: shared.metrics.lock().dispatch.slot(&label),
                image,
            }
        }
    }

    /// What the scripted service does with the next request it is sent.
    enum Script {
        Reply(Payload),
        /// A typed error reply, as a host answers a failed handler.
        Fail,
        /// An unrelated message and the answer to an older attempt, then
        /// the real reply.
        StaleThenReply(Payload),
        /// No answer; the pipeline is stopped while the caller waits.
        SilenceThenStop,
    }

    /// An `Exec` with no threads and no clock: `send` answers requests from
    /// a script straight into module `"m"`'s reply channel, `await_reply`
    /// never waits and `pause` only records what it was asked to sleep.
    struct FakeExec<'a> {
        shared: &'a Shared,
        script: RefCell<VecDeque<Script>>,
        /// Per request sent: was its payload the only handle on its buffer?
        requests_unique: RefCell<Vec<bool>>,
        request_payloads: RefCell<Vec<Payload>>,
        pauses: RefCell<Vec<Duration>>,
        stop_on_wait: Cell<bool>,
    }

    impl<'a> FakeExec<'a> {
        fn new(shared: &'a Shared, script: Vec<Script>) -> Self {
            FakeExec {
                shared,
                script: RefCell::new(script.into()),
                requests_unique: RefCell::default(),
                request_payloads: RefCell::default(),
                pauses: RefCell::default(),
                stop_on_wait: Cell::new(false),
            }
        }

        fn requests(&self) -> usize {
            self.requests_unique.borrow().len()
        }
    }

    impl Exec for FakeExec<'_> {
        fn send(&self, _route: &Route, msg: WireMessage) -> Result<(), PipelineError> {
            assert_eq!(msg.kind, MessageKind::Request);
            assert!(msg.channel.is_empty() && msg.reply_to.is_empty());
            self.requests_unique
                .borrow_mut()
                .push(msg.payload.is_unique());
            let request = ServiceRequest::decode(&msg.payload).expect("well-formed request");
            self.request_payloads.borrow_mut().push(request.payload);
            let replies = reply_channel(self.shared);
            let reply = |msg: WireMessage| {
                replies.push(msg);
            };
            let answer =
                |payload: Payload| response_to(&msg, ServiceResponse::new(payload).encode());
            let step = self.script.borrow_mut().pop_front();
            match step.expect("script covers every request") {
                Script::Reply(payload) => reply(answer(payload)),
                Script::Fail => reply(answer(Payload::Error("scripted failure".into()))),
                Script::StaleThenReply(payload) => {
                    reply(WireMessage::signal(String::new(), 0));
                    let mut stale = answer(Payload::Count(u64::MAX));
                    stale.corr_id = msg.corr_id - 1;
                    reply(stale);
                    reply(answer(payload));
                }
                Script::SilenceThenStop => self.stop_on_wait.set(true),
            }
            Ok(())
        }

        fn await_reply(&self, rx: &Channel, _until: Instant) -> Option<WireMessage> {
            if self.stop_on_wait.get() {
                self.shared.stop.store(true, Ordering::SeqCst);
            }
            rx.try_recv()
        }

        fn pause(&self, dur: Duration) {
            self.pauses.borrow_mut().push(dur);
        }
    }

    /// One module's context on a bare pipeline, wired to a single service.
    struct Rig {
        shared: Arc<Shared>,
        wiring: ModuleWiring,
        st: CtxState,
    }

    impl Rig {
        fn new(resilience: ResilienceConfig, remote: bool, time_scale: f64) -> Self {
            let shared = bare_shared(RuntimeConfig {
                resilience,
                time_scale,
                ..RuntimeConfig::default()
            });
            let keeps_lkg =
                shared.config.resilience.degradation == DegradationPolicy::LastKnownGood;
            let wiring = ModuleWiring {
                name: "m".to_string(),
                stage: shared.metrics.lock().stages.slot("m"),
                device: "one".to_string(),
                store: shared.store("one"),
                nexts: Vec::new(),
                services: vec![ServiceWire {
                    service: "svc".to_string(),
                    route: Route::Local(Arc::new(Channel::new())),
                    remote,
                    caller: 0,
                    breaker: shared.breakers.lock().slot_of("svc"),
                }],
                fc: shared.route(0, shared.layout.fc()),
                is_source: false,
            };
            let st = CtxState {
                header: Header::default(),
                epoch: 0,
                corr: 0,
                reply_rx: Arc::clone(reply_channel(&shared)),
                lkg: if keeps_lkg { vec![None] } else { Vec::new() },
                jitter: SeededJitter::new(1),
            };
            Rig { shared, wiring, st }
        }

        fn call(
            &mut self,
            exec: &FakeExec<'_>,
            payload: Payload,
        ) -> Result<ServiceResponse, PipelineError> {
            let mut ctx = Ctx {
                exec,
                shared: &self.shared,
                wiring: &self.wiring,
                st: &mut self.st,
            };
            ctx.call_service("svc", ServiceRequest::new("op", payload))
        }

        fn breaker(&self) -> crate::resilience::BreakerSnapshot {
            self.shared.breakers.lock()["svc"].snapshot()
        }
    }

    fn retrying(max_attempts: u32, breaker_failure_threshold: u32) -> ResilienceConfig {
        let backoff = Duration::from_millis(10);
        ResilienceConfig {
            retry: RetryPolicy::exponential(max_attempts, backoff, 4 * backoff).with_jitter(0.0),
            breaker_failure_threshold,
            breaker_cooldown: Duration::from_secs(3600),
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn retries_stop_at_max_attempts_and_the_final_attempt_moves_the_request() {
        let mut rig = Rig::new(retrying(3, 0), false, 0.0);
        let shared = Arc::clone(&rig.shared);
        let exec = FakeExec::new(&shared, vec![Script::Fail, Script::Fail, Script::Fail]);
        let err = rig.call(&exec, Payload::Count(1)).unwrap_err();
        assert!(matches!(err, PipelineError::Service { .. }), "{err:?}");
        // Earlier attempts share the serialized request with the caller;
        // the last one is handed the caller's own handle.
        assert_eq!(*exec.requests_unique.borrow(), [false, false, true]);
        // Two backoffs between three attempts, none of them slept.
        let ms = Duration::from_millis;
        assert_eq!(*exec.pauses.borrow(), [ms(10), ms(20)]);
    }

    #[test]
    fn every_attempt_is_exactly_one_breaker_event() {
        let mut rig = Rig::new(retrying(3, 10), false, 0.0);
        let shared = Arc::clone(&rig.shared);
        let script = vec![Script::Fail, Script::Fail, Script::Fail];
        let exec = FakeExec::new(&shared, script);
        rig.call(&exec, Payload::Count(1)).unwrap_err();
        assert_eq!(rig.breaker().consecutive_failures, 3);
        let exec = FakeExec::new(
            &shared,
            vec![Script::Fail, Script::Reply(Payload::Count(2))],
        );
        let resp = rig.call(&exec, Payload::Count(1)).unwrap();
        assert_eq!(resp.payload, Payload::Count(2));
        assert_eq!(exec.requests(), 2);
        // Four failures, then one success clears the streak; never opened.
        assert_eq!(rig.breaker().consecutive_failures, 0);
        assert_eq!(rig.breaker().opened, 0);
    }

    #[test]
    fn stale_and_foreign_replies_are_skipped() {
        let mut rig = Rig::new(retrying(1, 0), false, 0.0);
        let shared = Arc::clone(&rig.shared);
        // Burn corr id 1 so the stale reply can carry it.
        let exec = FakeExec::new(&shared, vec![Script::Reply(Payload::Empty)]);
        rig.call(&exec, Payload::Empty).unwrap();
        let exec = FakeExec::new(&shared, vec![Script::StaleThenReply(Payload::Count(9))]);
        let resp = rig.call(&exec, Payload::Empty).unwrap();
        assert_eq!(resp.payload, Payload::Count(9));
        assert_eq!(exec.requests(), 1);
    }

    #[test]
    fn shutdown_short_circuits_without_a_breaker_event_or_a_retry() {
        let mut rig = Rig::new(retrying(3, 10), false, 0.0);
        let shared = Arc::clone(&rig.shared);
        let exec = FakeExec::new(&shared, vec![Script::SilenceThenStop]);
        let err = rig.call(&exec, Payload::Empty).unwrap_err();
        assert!(matches!(err, PipelineError::Shutdown), "{err:?}");
        assert_eq!(exec.requests(), 1);
        assert!(exec.pauses.borrow().is_empty());
        assert_eq!(rig.breaker().consecutive_failures, 0);
    }

    #[test]
    fn an_open_circuit_serves_last_known_good_only_when_the_policy_says_so() {
        for (degradation, served) in [
            (DegradationPolicy::LastKnownGood, true),
            (DegradationPolicy::DropFrame, false),
        ] {
            let resilience = ResilienceConfig {
                degradation,
                ..retrying(1, 1)
            };
            let mut rig = Rig::new(resilience, false, 0.0);
            let shared = Arc::clone(&rig.shared);
            let script = vec![Script::Reply(Payload::Count(7)), Script::Fail];
            let exec = FakeExec::new(&shared, script);
            let good = rig.call(&exec, Payload::Empty).unwrap();
            assert_eq!(good.payload, Payload::Count(7));
            // The one allowed failure trips the breaker; the failed call
            // itself already degrades.
            let failed = rig.call(&exec, Payload::Empty);
            assert_eq!(failed.is_ok(), served);
            assert_eq!(rig.breaker().opened, 1);
            // Open: answered (or refused) without a request leaving.
            let open = rig.call(&exec, Payload::Empty);
            assert_eq!(exec.requests(), 2);
            match open {
                Ok(resp) => assert!(served && resp.payload == Payload::Count(7)),
                Err(e) => assert!(!served && matches!(e, PipelineError::CircuitOpen { .. })),
            }
        }
    }

    #[test]
    fn a_remote_frame_ref_is_encoded_once_across_retries() {
        let mut rig = Rig::new(retrying(3, 0), true, 1.0);
        let shared = Arc::clone(&rig.shared);
        let frame = rig.wiring.store.insert(FrameBuf::new(16, 16).freeze(1, 0));
        let script = vec![Script::Fail, Script::Fail, Script::Reply(Payload::Empty)];
        let exec = FakeExec::new(&shared, script);
        rig.call(&exec, Payload::FrameRef(frame)).unwrap();
        let stats = rig.wiring.store.stats();
        assert_eq!((stats.encode_misses, stats.encode_hits), (1, 0));
        let sent = exec.request_payloads.borrow();
        assert_eq!(sent.len(), 3);
        assert!(sent.iter().all(|p| matches!(p, Payload::EncodedFrame(_))));
        // Modeled time is the runtime's to spend: a link transfer out and
        // back per attempt plus two backoffs, all virtual.
        assert_eq!(exec.pauses.borrow().len(), 3 * 2 + 2);
        drop(sent);
        // The next call for the same frame is a cache hit.
        let exec = FakeExec::new(&shared, vec![Script::Reply(Payload::Empty)]);
        rig.call(&exec, Payload::FrameRef(frame)).unwrap();
        assert_eq!(rig.wiring.store.stats().encode_hits, 1);
    }

    /// Doubles counts.
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
    }

    #[test]
    fn free_drain_samples_depth_before_draining() {
        let config = RuntimeConfig {
            batch: crate::runtime::BatchConfig::up_to(4),
            ..RuntimeConfig::default()
        };
        let shared = bare_shared(config);
        let host = ServiceHost::bare(&shared, Arc::new(Doubler), "one");
        let send = |msg: WireMessage| {
            host.inbox.push(msg);
        };
        // A burst of six requests queued before the host looks: one batch
        // up to the ceiling, then the rest.
        for i in 0..6u64 {
            let request = ServiceRequest::new("double", Payload::Count(i)).encode();
            send(WireMessage::request(
                String::new(),
                String::new(),
                i,
                request,
            ));
        }
        let drain = || {
            let first = host.inbox.try_recv().expect("a queued request");
            host.free_drain(&shared, first).expect("a request leads")
        };
        let (batch, depth) = drain();
        // Five requests were queued behind the leader when it was dequeued,
        // though the drain then took three of them.
        assert_eq!((batch.len(), depth), (4, 5));
        let (replies, modeled) = host.serve(&shared, &batch, depth);
        assert_eq!(modeled, None, "no cost emulation at time_scale 0");
        for (reply, request) in replies.iter().zip(&batch) {
            assert_eq!(reply.corr_id, request.corr_id);
            let resp = ServiceResponse::decode(&reply.payload).unwrap();
            assert_eq!(resp.payload, Payload::Count(request.corr_id * 2));
        }
        let (rest, depth) = drain();
        assert_eq!((rest.len(), depth), (2, 1));
        host.serve(&shared, &rest, depth);
        // Only requests lead or join a batch.
        send(WireMessage::signal(String::new(), 0));
        let signal = host.inbox.try_recv().unwrap();
        assert!(host.free_drain(&shared, signal).is_none());

        let metrics = shared.metrics.lock();
        let dispatch = metrics.dispatch.get("one/doubler").expect("dispatch stats");
        assert_eq!((dispatch.requests, dispatch.batches), (6, 2));
        assert_eq!((dispatch.max_batch, dispatch.max_queue_depth), (4, 5));
    }
}
