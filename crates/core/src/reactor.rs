//! The event-driven runtime: thousands of pipelines on a handful of
//! threads.
//!
//! The paper gives every module its own context and every service
//! containers limited by its device's cores. Here each of those is a
//! scheduled task on a worker pool sized to cores — one OS thread per
//! module, pacer, watcher and executor would cap a box at a few hundred
//! pipelines long before CPU does:
//!
//! * **Tasks, not threads.** Every module, service host and pacer is a
//!   task with a 4-state readiness machine (idle → queued → running →
//!   dirty). Every sending site holds a route resolved at deploy
//!   (`engine::Route`): the destination's queue and the task that consumes
//!   it, so a send queues the message and wakes that task — no name, no
//!   map, no lock beyond the queue's own. A route to another device wakes
//!   nobody here; the I/O thread wakes the consumer when the bytes land.
//! * **Per-worker queues with stealing.** Each worker owns a LIFO slot
//!   (just-woken task: warm producer→consumer handoff), two bounded local
//!   FIFO queues (split by blocking capability) and a targeted parker —
//!   a push wakes one parked worker, never a broadcast. Every pipeline has
//!   a *home worker* assigned at deploy, so its module steps, service
//!   dispatch and watcher ticks tend to share a core; idle workers steal
//!   from siblings (randomized victim sweep) as the escape valve under
//!   imbalance, and local-queue overflow spills to a pair of global MPMC
//!   queues visible to all.
//! * **Worker-owned timers, not sleeps.** Pacer ticks, SLO/heartbeat/
//!   telemetry intervals, checkpoint periods and *modeled service costs*
//!   are exact nanosecond deadlines on the timer shard of the pipeline's
//!   home worker. A worker fires its shard's due entries at the top of
//!   every scheduling step (one clock read, one atomic load) and, with
//!   nothing to run, sleeps until its next deadline: a pacer goes from
//!   "due" to "running" on one thread. Every reactor thread asks the
//!   kernel for 1 ns timer slack when it starts
//!   ([`exact_timer_wakeups`](videopipe_net::exact_timer_wakeups)), so
//!   that sleep ends at the deadline, not up to the default 50 µs after
//!   it; the same holds for the threads' reply waits, helping naps and the
//!   I/O thread's retry timeout. A slow modeled service defers its
//!   replies through the shard instead of occupying a worker, so it
//!   cannot starve co-hosted services.
//! * **Modeled capacity is a horizon.** A service host serves at most its
//!   device's `cores` batches at once in modeled time: each batch keeps one
//!   container busy until its deferred replies fire, and with every
//!   container busy the host leaves requests queued — where they batch —
//!   and re-arms itself for the first container to free up.
//! * **Wait by helping.** [`ModuleCtx::call_service`] is synchronous by
//!   contract. A module task waiting for a reply runs *other* ready tasks
//!   inline instead of parking its worker. Helpers above a bounded depth
//!   only run non-blocking tasks (service dispatch, pacers, watchers) —
//!   and replies are always produced by non-blocking tasks, so the wait
//!   always makes progress even with a single worker.
//! * **One I/O thread.** TCP ingress is one thread turning one
//!   [`Ingress`](videopipe_net::Ingress) — the readiness loop
//!   `TcpListenerHandle` runs too — over the sockets of every
//!   [`PollEndpoint`](videopipe_net::PollEndpoint) of every pipeline: it
//!   wakes when bytes arrive, services exactly the sockets that are ready
//!   and feeds completed frames to the readiness queues. No per-connection
//!   reader threads, no polling interval.
//!
//! Thread count is `workers (≈ cores) + 1 I/O (TCP only)`, independent of
//! pipeline count; there is no timer thread.
//!
//! What a task *does* with a message — the module step, the service batch,
//! the pacer's accounting, the watcher ticks — lives in the crate-private
//! `engine` module. This file keeps only what is genuinely scheduled:
//! tasks, queues, stealing, timers, [`Rearm`], the service horizon,
//! `Deliver` deferral and the I/O thread (DESIGN.md §5.11).

use crate::deploy::DeploymentPlan;
use crate::engine::{
    self, reply_route, Channel, Exec, HbMonitor, ModuleTask, Pacer, Route, ServiceHost, Shared,
};
use crate::error::PipelineError;
use crate::module::ModuleRegistry;
use crate::runtime::{RunReport, RuntimeConfig};
use crate::service::ServiceRegistry;
use crate::slo::SloController;
use crate::telemetry::TelemetryMonitor;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use videopipe_media::FrameStoreStats;
use videopipe_net::{Ingress, PollEndpoint, Poller, WireMessage};

/// Executor knobs for a [`ReactorRuntime`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Worker threads running ready tasks. `0` (the default) sizes the
    /// pool to the machine's available parallelism.
    pub workers: usize,
    /// No effect on scheduling: timers keep exact deadlines. The field
    /// (name, type, default) stays only because the benchmark, which a PR
    /// claiming a gain may not edit, reads it to phase tenant starts.
    pub timer_granularity: Duration,
    /// Whether idle workers steal from sibling local queues. On by
    /// default; turning it off pins every pipeline strictly to its home
    /// worker (useful for isolating scheduling experiments). Non-worker
    /// threads helping their own service calls always sweep regardless.
    pub steal: bool,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 0,
            timer_granularity: Duration::from_micros(200),
            steal: true,
        }
    }
}

impl ReactorConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

// Task readiness states.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
/// Woken while running: must requeue when the current run finishes.
const DIRTY: u8 = 3;

/// How long a waiting module parks between helping attempts when no reply
/// and no helpable work is available.
const HELP_PARK: Duration = Duration::from_micros(200);

/// How far past its deadline a sibling's timer must be before an idle
/// worker (stealing on) fires it for the owner: an owner merely asleep
/// fires within its wake-up latency (tens of µs: the thread asks for 1 ns
/// timer slack, so this is the scheduler's, or on a VM the host's, time
/// to run it), one stuck in a long handler does not.
const SIBLING_GRACE_NS: u64 = 1_000_000;

/// How deep wait-by-helping may nest through *blocking-capable* module
/// tasks. Helpers above this depth only run non-blocking tasks, which
/// bounds stack growth while keeping service replies reachable.
const HELP_DEPTH: usize = 1;

/// Messages one module task drains per scheduling quantum before yielding
/// its worker.
const MODULE_QUANTUM: usize = 32;

/// Batches one service task dispatches per quantum before yielding.
const SERVICE_BATCH_QUANTUM: usize = 4;

/// Bounded per-worker local run-queue depth. Beyond this, pushes spill to
/// the global overflow queues, so one hot pipeline cannot grow its home
/// worker's queue without bound — and spilled tasks become visible to
/// every worker, which doubles as a pressure valve.
const LOCAL_QUEUE_CAP: usize = 256;

/// How often the heartbeat monitor sweeps for overdue devices between
/// beats.
const HB_SWEEP: Duration = Duration::from_millis(20);

/// Pads and aligns a value to a cache line so per-worker hot state (queue
/// locks, stats counters, timer shards) never false-shares a line with a
/// neighbour.
#[repr(align(64))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// One unit of schedulable work.
pub(crate) trait TaskRunner: Send {
    /// Runs one quantum of `task`, the task this runner belongs to (for
    /// deadlines that wake it again). Returns `true` when work is known to
    /// remain (the task requeues immediately).
    fn run(&mut self, core: &Core, task: &Arc<Task>, depth: usize) -> bool;
    /// Called once, when the task's pipeline stops or the runtime shuts
    /// down.
    fn finalize(&mut self) {}
}

/// A scheduled task and its runner, in one allocation: built as an
/// `Arc<Task<SomeRunner>>` and handed around as an `Arc<Task>`, whose
/// runner is a `dyn TaskRunner`.
///
/// Its owner is its pipeline's entry on the [`ReactorRuntime`]; a run
/// queue, a LIFO slot or an armed deadline holds it only while it is
/// queued or armed, and the channel it consumes names it by a `Weak`.
pub(crate) struct Task<R: ?Sized = dyn TaskRunner> {
    /// Home worker (pipeline affinity): wakes from off-worker threads
    /// (I/O, deploy) land on this worker's local queue and the task's
    /// deadlines on this worker's timer shard, so one pipeline's tasks
    /// tend to share a core; stealing is the escape valve under imbalance.
    home: usize,
    /// Module tasks may block (wait-by-helping) inside `call_service`;
    /// everything else never blocks and is always safe to help with.
    blocking: bool,
    /// The 4-state readiness machine, beside the runner rather than on a
    /// cache line of its own: the padding made every task 256 B.
    state: AtomicU8,
    runner: Mutex<R>,
}

/// A new idle task homed on worker `home`.
fn new_task(home: usize, blocking: bool, runner: impl TaskRunner + 'static) -> Arc<Task> {
    Arc::new(Task {
        home,
        blocking,
        state: AtomicU8::new(IDLE),
        runner: Mutex::new(runner),
    })
}

/// One worker's sleep state. A worker with nothing to run *announces*
/// itself by setting `idle`, *re-checks* every place work or a deadline
/// can appear (own queues, global queues, stealable sibling work, timer
/// shards) and only then sleeps — until its next deadline, or without a
/// timeout if it has none. Whoever makes work appear does the mirror
/// image: publish it, then read `idle`. A `SeqCst` fence between the two
/// steps on each side means at least one party sees the other: either the
/// re-check finds the work, or the publisher finds `idle` set and unparks.
/// The unpark cannot be lost either — `Thread::unpark` leaves a token
/// that makes the next `park` return at once. So no wake is ever missed
/// and nothing polls. Wakes are *targeted*: at most one specific worker
/// per push, never a broadcast.
#[derive(Default)]
struct Parker {
    /// Set from the announcement until the worker is running again.
    idle: AtomicBool,
    /// The worker's thread, set by the worker itself before it first
    /// announces `idle` — so whoever reads `idle == true` also sees it.
    thread: std::sync::OnceLock<std::thread::Thread>,
}

impl Parker {
    fn unpark(&self) {
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }
}

/// Per-worker scheduler counters (low-cardinality: one set per worker
/// thread, never per task). Snapshotted into [`WorkerSchedStats`] for
/// reports and the bench artifact.
#[derive(Default)]
struct WorkerStats {
    tasks_run: AtomicU64,
    steals_attempted: AtomicU64,
    steals_succeeded: AtomicU64,
    queue_high_water: AtomicU64,
    timer_fires: AtomicU64,
    unparks: AtomicU64,
    parks: AtomicU64,
}

/// One worker's scheduling state: a LIFO slot for the just-woken task, a
/// pair of bounded FIFO local queues split by blocking capability, its
/// timer shard, a targeted parker and the scheduler counters. Each
/// `WorkerQueue` lives in its own cache line(s); siblings touch it only to
/// push affine work, arm a deadline or steal.
struct WorkerQueue {
    /// The task most recently woken *by this worker* — usually the
    /// consumer of a message it just produced. Running it next keeps the
    /// producer→consumer handoff on warm caches.
    lifo: Mutex<Option<Arc<Task>>>,
    /// Non-blocking local tasks (service dispatch, pacers, watchers).
    nb_local: Mutex<VecDeque<Arc<Task>>>,
    /// Blocking-capable module tasks (runnable only within [`HELP_DEPTH`]).
    md_local: Mutex<VecDeque<Arc<Task>>>,
    timers: TimerShard,
    parker: Parker,
    /// Owner-only xorshift state for randomized steal victim selection.
    steal_seed: AtomicU64,
    stats: WorkerStats,
}

impl WorkerQueue {
    fn new(seed: u64) -> Self {
        WorkerQueue {
            lifo: Mutex::new(None),
            nb_local: Mutex::new(VecDeque::new()),
            md_local: Mutex::new(VecDeque::new()),
            timers: TimerShard {
                queue: Mutex::new(TimerQueue::default()),
                earliest: AtomicU64::new(u64::MAX),
            },
            parker: Parker::default(),
            steal_seed: AtomicU64::new(seed | 1),
            stats: WorkerStats::default(),
        }
    }
}

thread_local! {
    /// Index of the current thread in its reactor's worker pool;
    /// `usize::MAX` on non-worker threads (I/O, deploy).
    static WORKER_ID: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    /// Helping depth of the task this thread is running right now.
    static RUN_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Deferred work on a timer shard.
enum TimerEntry {
    /// Wake a task at the deadline.
    Wake(Arc<Task>),
    /// Deliver already-computed replies at the deadline, each down its
    /// caller's route (timer-deferred modeled service cost: the replies
    /// exist, the latency is modeled by the deadline instead of a sleeping
    /// worker).
    Deliver {
        routes: Arc<[Route]>,
        msgs: Vec<WireMessage>,
    },
}

/// One worker's timers: a pipeline's deadlines (pacer ticks, watcher
/// sweeps, deferred modeled costs) land in its home worker's shard, so 10k
/// pipelines arming recurring ticks lock 1/Nth of the timers, and almost
/// always from the thread that also fires them. Deadlines are exact —
/// nanoseconds since [`Core::origin`] — and recurring-tick dedup lives in
/// [`Rearm`].
struct TimerShard {
    queue: Mutex<TimerQueue>,
    /// The earliest armed deadline, `u64::MAX` when nothing is armed.
    /// Written only under `queue`'s lock, read without it: the owner's
    /// "anything due?" check is this one load.
    earliest: AtomicU64,
}

/// Entries keyed `(deadline_ns, arm order)`: same-instant deadlines fire
/// in the order they were armed, and no deadline needs its own `Vec`.
#[derive(Default)]
struct TimerQueue {
    armed: u64,
    entries: std::collections::BTreeMap<(u64, u64), TimerEntry>,
}

/// A TCP ingress endpoint on its way to the reactor's single I/O thread,
/// with the pipeline its frames belong to.
type IoEndpoint = (Arc<PipeRt>, PollEndpoint);

/// What every task of a pipeline holds of it: its shared state and its home
/// worker (the deploy-time affinity hint). Who consumes which channel is
/// not here: building a task names it on the channel it consumes, once,
/// and every route to that channel reads it from there.
struct PipeRt {
    /// Home worker for every task of this pipeline, so its module steps,
    /// service dispatch and watcher ticks tend to stay on one core (warm
    /// caches, no cross-core wake ping-pong).
    home: usize,
    shared: Arc<Shared>,
}

/// Shared reactor core: ready queues, timer shards, parkers. It owns no
/// task and no pipeline: a task is here only while it is queued or armed.
pub(crate) struct Core {
    cfg: ReactorConfig,
    /// Zero of the timer shards' nanosecond clock.
    origin: Instant,
    /// Per-worker scheduling state: LIFO slot, bounded local queues,
    /// timer shard, targeted parker, steal seed, counters.
    workers: Vec<CachePadded<WorkerQueue>>,
    /// Global overflow/injection queues on the lock-free MPMC channel
    /// layer: non-blocking tasks (always helpable) and blocking-capable
    /// module tasks. Local-queue spill lands here, as do pushes when the
    /// reactor has a single worker's worth of backlog everywhere.
    nb_ready: (Sender<Arc<Task>>, Receiver<Arc<Task>>),
    mod_ready: (Sender<Arc<Task>>, Receiver<Arc<Task>>),
    /// Times the I/O thread came out of its readiness wait (a statistic).
    io_wakeups: AtomicU64,
    stop: AtomicBool,
}

impl Core {
    /// Index of the calling thread in `workers`, or `None` for non-worker
    /// threads (I/O, the deploying thread).
    fn current_worker(&self) -> Option<usize> {
        let id = WORKER_ID.with(|c| c.get());
        (id < self.workers.len()).then_some(id)
    }

    fn wake(&self, task: &Arc<Task>) {
        loop {
            match task.state.load(Ordering::SeqCst) {
                IDLE => {
                    if task
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.push_ready(task);
                        return;
                    }
                }
                RUNNING => {
                    if task
                        .state
                        .compare_exchange(RUNNING, DIRTY, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                // QUEUED or DIRTY: a wakeup is already pending.
                _ => return,
            }
        }
    }

    /// Queues a freshly-woken task. A worker waking a task claims its own
    /// LIFO slot — the woken task is usually the consumer of a message the
    /// worker just produced (or a pacer whose deadline it just fired), and
    /// running it next keeps the handoff on warm caches. Off-worker wakes
    /// (I/O, deploy) go to the task's home worker so a pipeline's steps
    /// stay on one core.
    fn push_ready(&self, task: &Arc<Task>) {
        if let Some(wid) = self.current_worker() {
            let displaced = self.workers[wid].lifo.lock().replace(Arc::clone(task));
            if let Some(prev) = displaced {
                self.push_local(wid, prev);
            }
            // Nobody is told of a slot entry, and from a helper nested
            // beyond `HELP_DEPTH` this worker cannot run a module task
            // until it has unwound: have an idle sibling come and take it.
            if task.blocking && self.cfg.steal && RUN_DEPTH.with(|d| d.get()) > HELP_DEPTH {
                fence(Ordering::SeqCst);
                self.notify_any_idle();
            }
            return;
        }
        let home = task.home % self.workers.len();
        self.push_local(home, Arc::clone(task));
    }

    /// Requeues a task that stayed runnable (quantum expiry or a DIRTY
    /// wake observed at run end). Skips the LIFO slot on purpose: a task
    /// that keeps itself runnable must round-robin with its queue
    /// siblings, or it would monopolize its worker through the slot.
    fn requeue(&self, task: &Arc<Task>) {
        let wid = self
            .current_worker()
            .unwrap_or(task.home % self.workers.len());
        self.push_local(wid, Arc::clone(task));
    }

    /// Pushes onto a worker's bounded local queue, spilling to the global
    /// queues when full, and wakes at most one parked worker.
    fn push_local(&self, wid: usize, task: Arc<Task>) {
        let wq = &self.workers[wid];
        let blocking = task.blocking;
        let queue = if blocking { &wq.md_local } else { &wq.nb_local };
        let overflow = {
            let mut q = queue.lock();
            if q.len() < LOCAL_QUEUE_CAP {
                q.push_back(task);
                let depth = q.len() as u64;
                drop(q);
                wq.stats
                    .queue_high_water
                    .fetch_max(depth, Ordering::Relaxed);
                None
            } else {
                Some(task)
            }
        };
        let spilled = overflow.is_some();
        if let Some(task) = overflow {
            // Spill: the overflow becomes visible to every worker,
            // which doubles as a pressure valve for a hot home.
            let global = if blocking {
                &self.mod_ready.0
            } else {
                &self.nb_ready.0
            };
            let _ = global.send(task);
        }
        // Publish, fence, then read `idle`: the pusher's half of the
        // protocol described on [`Parker`].
        fence(Ordering::SeqCst);
        if spilled {
            self.notify_any_idle();
        } else {
            self.notify_push(wid);
        }
    }

    /// Unparks worker `wid` if it has announced itself idle. A worker
    /// never unparks itself: while it re-checks after announcing, what it
    /// pushes or arms it also finds.
    fn unpark_if_idle(&self, wid: usize) -> bool {
        let wq = &self.workers[wid];
        if self.current_worker() == Some(wid) || !wq.parker.idle.load(Ordering::SeqCst) {
            return false;
        }
        wq.stats.unparks.fetch_add(1, Ordering::Relaxed);
        wq.parker.unpark();
        true
    }

    /// After work or an earlier deadline appeared on worker `wid`: wakes
    /// the owner if it is idle; otherwise, when stealing is on, wakes one
    /// idle sibling to come and take it. Never a broadcast. The caller has
    /// published and fenced.
    fn notify_push(&self, wid: usize) {
        if !self.unpark_if_idle(wid) && self.cfg.steal {
            self.notify_any_idle();
        }
    }

    fn notify_any_idle(&self) {
        let _ = (0..self.workers.len()).any(|wid| self.unpark_if_idle(wid));
    }

    /// Nanoseconds since `origin`: the timer shards' clock.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Arms `entry` for `at` on worker `shard`'s timers. The owner arming
    /// its own shard — a pacer re-arming its next tick — tells nobody: it
    /// looks at `earliest` again before it sleeps. From any other thread
    /// (deploy, a stealer, a `Deliver` armed where its service ran) the
    /// owner's sleep may now be too long, so a deadline that became the
    /// shard's earliest is announced like a push.
    fn arm(&self, shard: usize, at: Instant, entry: TimerEntry) {
        let at_ns = at.saturating_duration_since(self.origin).as_nanos() as u64;
        let timers = &self.workers[shard].timers;
        let lowered = {
            let mut queue = timers.queue.lock();
            queue.armed += 1;
            let key = (at_ns, queue.armed);
            queue.entries.insert(key, entry);
            let lowered = at_ns < timers.earliest.load(Ordering::SeqCst);
            if lowered {
                timers.earliest.store(at_ns, Ordering::SeqCst);
            }
            lowered
        };
        if lowered && self.current_worker() != Some(shard) {
            fence(Ordering::SeqCst);
            self.notify_push(shard);
        }
    }

    /// Fires, on worker `me`, every entry of worker `shard`'s timers due
    /// by `cutoff_ns`; woken tasks land in `me`'s LIFO slot and local
    /// queues. Nothing due costs one load of `earliest`. A sibling's shard
    /// is only `try_lock`ed: if it is contended, its owner is at it.
    fn fire_due(&self, shard: usize, cutoff_ns: u64, me: usize) {
        let timers = &self.workers[shard].timers;
        let mut fired = 0;
        while timers.earliest.load(Ordering::SeqCst) <= cutoff_ns {
            // One entry per lock hold: firing sends messages and takes
            // queue locks, none of which belongs under the shard's lock.
            let entry = {
                let queue = if shard == me {
                    Some(timers.queue.lock())
                } else {
                    timers.queue.try_lock()
                };
                let Some(mut queue) = queue else { break };
                let Some(first) = queue.entries.first_entry() else {
                    break;
                };
                if first.key().0 > cutoff_ns {
                    break;
                }
                let entry = first.remove();
                let next = queue.entries.first_key_value();
                timers
                    .earliest
                    .store(next.map_or(u64::MAX, |(key, _)| key.0), Ordering::SeqCst);
                entry
            };
            fired += 1;
            match entry {
                TimerEntry::Wake(task) => self.wake(&task),
                TimerEntry::Deliver { routes, msgs } => {
                    for msg in msgs {
                        self.send_reply(&routes, msg);
                    }
                }
            }
        }
        if fired > 0 {
            let stats = &self.workers[me].stats;
            stats.timer_fires.fetch_add(fired, Ordering::Relaxed);
        }
    }

    /// When worker `wid` should next be awake for a deadline, in
    /// nanoseconds on the shards' clock (`u64::MAX`: never): its own
    /// earliest deadline and, with stealing on, each sibling's earliest
    /// plus [`SIBLING_GRACE_NS`].
    fn next_deadline_ns(&self, wid: usize) -> u64 {
        let earliest = |w: usize| self.workers[w].timers.earliest.load(Ordering::SeqCst);
        (0..self.workers.len())
            .filter(|&w| w != wid && self.cfg.steal)
            .map(|w| earliest(w).saturating_add(SIBLING_GRACE_NS))
            .fold(earliest(wid), u64::min)
    }

    /// Caps a helper's nap at the calling worker's next deadline: a module
    /// waiting inside `call_service` still fires its worker's ticks.
    fn cap_nap(&self, nap: Duration) -> Duration {
        let Some(wid) = self.current_worker() else {
            return nap;
        };
        let earliest = self.workers[wid].timers.earliest.load(Ordering::SeqCst);
        nap.min(Duration::from_nanos(earliest.saturating_sub(self.now_ns())))
    }

    /// Sends `msg` down `route` and wakes the task the route names.
    fn send(&self, route: &Route, msg: WireMessage) -> Result<(), PipelineError> {
        if let Some(task) = route.send(msg)? {
            self.wake(&task);
        }
        Ok(())
    }

    /// Sends a service reply down the route of the caller its `corr_id`
    /// names, out of a host's `routes`.
    fn send_reply(&self, routes: &[Route], msg: WireMessage) {
        if let Some(route) = reply_route(routes, &msg) {
            let _ = self.send(route, msg);
        }
    }

    /// Pops and runs one ready task, if any is runnable at `depth`.
    fn try_run_one(&self, depth: usize) -> bool {
        let task = self.next_task(depth);
        if let Some(task) = &task {
            self.run_queued(task, depth);
        }
        task.is_some()
    }

    /// Fires the calling worker's due timers, then pops the next task
    /// runnable at `depth`: own LIFO slot, own local queues, the global
    /// queues, a randomized steal sweep over siblings, then — stealing on
    /// and nothing else to do — siblings' overdue timers. Non-blocking
    /// tasks are always runnable; module tasks only within [`HELP_DEPTH`].
    /// Every way a worker gets a task or goes to sleep starts here, at
    /// depth 0 and from wait-by-helping alike, so its deadlines are served
    /// wherever it happens to be.
    fn next_task(&self, depth: usize) -> Option<Arc<Task>> {
        let help_mods = depth <= HELP_DEPTH;
        let me = self.current_worker();
        if let Some(wid) = me {
            self.fire_due(wid, self.now_ns(), wid);
            if let Some(task) = self.pop_local(wid, help_mods) {
                return Some(task);
            }
        }
        if let Ok(task) = self.nb_ready.1.try_recv() {
            return Some(task);
        }
        if help_mods {
            if let Ok(task) = self.mod_ready.1.try_recv() {
                return Some(task);
            }
        }
        // Local and global queues are dry: steal. Non-worker threads
        // (deploy-time init helping its own service calls) always sweep —
        // the work they are waiting on may sit in a worker's local queue.
        let steal = self.cfg.steal && self.workers.len() > 1;
        if me.is_none() || steal {
            if let Some(task) = self.try_steal(me, help_mods) {
                return Some(task);
            }
        }
        let wid = me.filter(|_| steal)?;
        // A sibling stuck in a long handler cannot fire its own shard.
        let cutoff = self.now_ns().saturating_sub(SIBLING_GRACE_NS);
        for shard in (0..self.workers.len()).filter(|&w| w != wid) {
            self.fire_due(shard, cutoff, wid);
        }
        self.pop_local(wid, help_mods)
    }

    fn pop_local(&self, wid: usize, help_mods: bool) -> Option<Arc<Task>> {
        let wq = &self.workers[wid];
        {
            let mut lifo = wq.lifo.lock();
            // Peek-gate: a blocking task in the slot may only be popped
            // within the helping depth bound; otherwise it stays for the
            // owner's depth-0 loop (or a shallower stealer).
            if lifo.as_ref().is_some_and(|t| !t.blocking || help_mods) {
                return lifo.take();
            }
        }
        if let Some(task) = wq.nb_local.lock().pop_front() {
            return Some(task);
        }
        if help_mods {
            if let Some(task) = wq.md_local.lock().pop_front() {
                return Some(task);
            }
        }
        None
    }

    /// One randomized sweep over sibling queues. Victim order inside one
    /// victim: its FIFO backlog first (oldest, coldest — cheap to move),
    /// its LIFO slot last (warmest; stolen only when nothing else runs).
    /// `try_lock` everywhere: contending with a busy owner is exactly the
    /// case where stealing is pointless.
    fn try_steal(&self, me: Option<usize>, help_mods: bool) -> Option<Arc<Task>> {
        let n = self.workers.len();
        let start = match me {
            Some(wid) => {
                let wq = &self.workers[wid];
                wq.stats.steals_attempted.fetch_add(1, Ordering::Relaxed);
                // Owner-only xorshift: no shared RNG state, no allocation.
                let mut s = wq.steal_seed.load(Ordering::Relaxed);
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                wq.steal_seed.store(s, Ordering::Relaxed);
                (s as usize) % n
            }
            None => 0,
        };
        let mut found = None;
        'sweep: for i in 0..n {
            let v = (start + i) % n;
            if Some(v) == me {
                continue;
            }
            let wq = &self.workers[v];
            if let Some(mut q) = wq.nb_local.try_lock() {
                if let Some(task) = q.pop_front() {
                    found = Some(task);
                    break 'sweep;
                }
            }
            if help_mods {
                if let Some(mut q) = wq.md_local.try_lock() {
                    if let Some(task) = q.pop_front() {
                        found = Some(task);
                        break 'sweep;
                    }
                }
            }
            if let Some(mut slot) = wq.lifo.try_lock() {
                if slot.as_ref().is_some_and(|t| !t.blocking || help_mods) {
                    found = slot.take();
                    break 'sweep;
                }
            }
        }
        if found.is_some() {
            if let Some(wid) = me {
                self.workers[wid]
                    .stats
                    .steals_succeeded
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    fn run_queued(&self, task: &Arc<Task>, depth: usize) {
        if let Some(wid) = self.current_worker() {
            self.workers[wid]
                .stats
                .tasks_run
                .fetch_add(1, Ordering::Relaxed);
        }
        task.state.store(RUNNING, Ordering::SeqCst);
        let more = {
            let mut runner = task.runner.lock();
            let outer = RUN_DEPTH.with(|d| d.replace(depth));
            let more = runner.run(self, task, depth);
            RUN_DEPTH.with(|d| d.set(outer));
            more
        };
        if more {
            task.state.store(QUEUED, Ordering::SeqCst);
            self.requeue(task);
            return;
        }
        if task
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            // A wake arrived mid-run (DIRTY): requeue.
            task.state.store(QUEUED, Ordering::SeqCst);
            self.requeue(task);
        }
    }

    fn worker_loop(&self, wid: usize) {
        // Without this the kernel may run every park below up to 50 µs
        // past its deadline. On failure deadlines still hold, only later.
        let _ = videopipe_net::exact_timer_wakeups();
        WORKER_ID.with(|c| c.set(wid));
        let wq = &self.workers[wid];
        let _ = wq.parker.thread.set(std::thread::current());
        while !self.stop.load(Ordering::SeqCst) {
            let mut task = self.next_task(0);
            if task.is_none() {
                // Announce, re-check, park: see [`Parker`]. The re-check is
                // the search that just came back empty, timers included.
                wq.parker.idle.store(true, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                task = self.next_task(0);
                if task.is_none() && !self.stop.load(Ordering::SeqCst) {
                    // No deadline is `u64::MAX`: a nap of centuries.
                    let nap = self.next_deadline_ns(wid).saturating_sub(self.now_ns());
                    if nap > 0 {
                        wq.stats.parks.fetch_add(1, Ordering::Relaxed);
                        std::thread::park_timeout(Duration::from_nanos(nap));
                    }
                }
                wq.parker.idle.store(false, Ordering::SeqCst);
            }
            if let Some(task) = task {
                self.run_queued(&task, 0);
            }
        }
    }

    /// The I/O thread: takes over the endpoints deploys queued on
    /// `registry`, then one [`Ingress::turn`] — blocked until a socket is
    /// readable or someone notifies the waker (a deploy, shutdown) — whose
    /// frames go to the channel their wire name resolves to, waking its
    /// consumer.
    fn io_loop(&self, mut ingress: Ingress<Arc<PipeRt>>, registry: &Receiver<IoEndpoint>) {
        // As on the workers: `RetryAt` timeouts end on time.
        let _ = videopipe_net::exact_timer_wakeups();
        let report = |pipe: &PipeRt, what: String| pipe.shared.errors.lock().push(what);
        while !self.stop.load(Ordering::SeqCst) {
            while let Ok((pipe, endpoint)) = registry.try_recv() {
                if let Err(e) = ingress.add(Arc::clone(&pipe), endpoint) {
                    report(&pipe, format!("tcp ingress endpoint not registered: {e}"));
                }
            }
            let turned = ingress.turn(|pipe, msg| {
                if let Some(channel) = pipe.shared.ingress_channel(&msg.channel) {
                    if let Some(task) = channel.push(msg) {
                        self.wake(&task);
                    }
                }
            });
            if let Err(e) = turned {
                // Nothing to fall back on: say so where reports look.
                for pipe in ingress.tags() {
                    report(pipe, format!("tcp ingress stopped: {e}"));
                }
                return;
            }
            self.io_wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Helps run other tasks until `deadline` (modeled link/backoff delays:
    /// the wait is real wall time, but the worker stays productive).
    fn help_until(&self, depth: usize, deadline: Instant) {
        loop {
            let now = Instant::now();
            if now >= deadline || self.stop.load(Ordering::SeqCst) {
                return;
            }
            if !self.try_run_one(depth + 1) {
                std::thread::sleep(self.cap_nap((deadline - now).min(HELP_PARK)));
            }
        }
    }

    /// Snapshot of the per-worker scheduler counters.
    fn scheduler_stats(&self) -> Vec<crate::metrics::WorkerSchedStats> {
        self.workers
            .iter()
            .enumerate()
            .map(|(worker, wq)| crate::metrics::WorkerSchedStats {
                worker,
                tasks_run: wq.stats.tasks_run.load(Ordering::Relaxed),
                steals_attempted: wq.stats.steals_attempted.load(Ordering::Relaxed),
                steals_succeeded: wq.stats.steals_succeeded.load(Ordering::Relaxed),
                queue_high_water: wq.stats.queue_high_water.load(Ordering::Relaxed),
                timer_fires: wq.stats.timer_fires.load(Ordering::Relaxed),
                unparks: wq.stats.unparks.load(Ordering::Relaxed),
                parks: wq.stats.parks.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Recurring-timer dedup: tracks the deadline already armed for a task so
/// message-driven wakes don't flood the timers with duplicate entries. The
/// shard is the task's home worker: a pipeline's recurring ticks lock only
/// its own worker's shard.
#[derive(Default)]
struct Rearm {
    armed_for: Option<Instant>,
}

impl Rearm {
    /// Arms a wake of `task` at `at`, unless that deadline is armed already.
    fn ensure(&mut self, core: &Core, task: &Arc<Task>, at: Instant) {
        if self.armed_for != Some(at) {
            core.arm(task.home, at, TimerEntry::Wake(Arc::clone(task)));
            self.armed_for = Some(at);
        }
    }
}

/// The reactor's half of the [`Exec`] seam: a send also wakes the task
/// its route names, and every wait — service replies, modeled link
/// transfers, retry backoffs — helps run other ready tasks instead of
/// parking the worker.
struct ReactorExec<'a> {
    core: &'a Core,
    /// Helping depth of the task this executor serves.
    depth: usize,
}

impl Exec for ReactorExec<'_> {
    fn send(&self, route: &Route, msg: WireMessage) -> Result<(), PipelineError> {
        self.core.send(route, msg)
    }

    /// Service tasks are always helpable, so the reply stays reachable even
    /// on one worker.
    fn await_reply(&self, rx: &Channel, until: Instant) -> Option<WireMessage> {
        if self.core.try_run_one(self.depth + 1) {
            return None;
        }
        // Nothing helpable right now: park briefly on the reply channel
        // itself, so a reply landing mid-park wakes us.
        let remaining = until.saturating_duration_since(Instant::now());
        let wait = self.core.cap_nap(remaining.min(HELP_PARK));
        rx.recv_timeout(wait)
    }

    /// The wall-clock wait is that of a sleep, but the worker keeps running
    /// other pipelines' tasks meanwhile.
    fn pause(&self, dur: Duration) {
        self.core.help_until(self.depth, Instant::now() + dur);
    }
}

/// Runs one module instance as a blocking-capable task: drains up to
/// [`MODULE_QUANTUM`] inbox messages per run.
struct ModuleRunner {
    pipe: Arc<PipeRt>,
    task: ModuleTask,
    rearm: Rearm,
}

impl TaskRunner for ModuleRunner {
    fn run(&mut self, core: &Core, me: &Arc<Task>, depth: usize) -> bool {
        let shared = &self.pipe.shared;
        if shared.stopped() {
            return false;
        }
        // Periodic checkpoint, self-armed on the worker's timers so it fires
        // even while the inbox is quiet.
        if let Some(at) = self.task.checkpoint_if_due(shared) {
            self.rearm.ensure(core, me, at);
        }
        let exec = ReactorExec { core, depth };
        for _ in 0..MODULE_QUANTUM {
            if shared.stopped() {
                return false;
            }
            let Some(msg) = self.task.inbox.try_recv() else {
                break;
            };
            self.task.step(shared, &exec, msg);
        }
        self.task.inbox.pending() > 0
    }

    fn finalize(&mut self) {
        self.task.final_checkpoint(&self.pipe.shared);
    }
}

/// Runs one (device, service) host as a non-blocking task. Dispatches up
/// to [`SERVICE_BATCH_QUANTUM`] micro-batches per run. Modeled compute
/// costs are timer-deferred: the batch is computed eagerly and its replies
/// wait on a timer, so a slow modeled service never occupies a worker —
/// but it does occupy one of the host's containers until they leave.
struct ServiceRunner {
    pipe: Arc<PipeRt>,
    host: ServiceHost,
    /// When each of the host's `cores` containers is modeled busy until;
    /// empty without cost emulation, where nothing is ever modeled busy.
    busy_until: Vec<Instant>,
    rearm: Rearm,
}

impl TaskRunner for ServiceRunner {
    fn run(&mut self, core: &Core, me: &Arc<Task>, _depth: usize) -> bool {
        let ServiceRunner {
            pipe,
            host,
            busy_until,
            rearm,
        } = self;
        if pipe.shared.stopped() {
            return false;
        }
        for _ in 0..SERVICE_BATCH_QUANTUM {
            // The container that frees first. While it is still busy, the
            // requests stay queued — where later ones join their batch —
            // and a timer brings the host back when it frees.
            let container = busy_until.iter_mut().min();
            if let Some(free_at) = &container {
                if **free_at > Instant::now() {
                    rearm.ensure(core, me, **free_at);
                    return false;
                }
            }
            let Some(msg) = host.inbox.try_recv() else {
                return false;
            };
            let Some((msgs, queue_depth)) = host.free_drain(&pipe.shared, msg) else {
                continue;
            };
            let (replies, modeled) = host.serve(&pipe.shared, &msgs, queue_depth);
            match modeled {
                Some(delay) => {
                    let done = Instant::now() + delay;
                    if let Some(free_at) = container {
                        *free_at = done;
                    }
                    let deliver = TimerEntry::Deliver {
                        routes: Arc::clone(&host.replies),
                        msgs: replies,
                    };
                    core.arm(pipe.home, done, deliver);
                }
                None => {
                    for msg in replies {
                        core.send_reply(&host.replies, msg);
                    }
                }
            }
        }
        host.inbox.pending() > 0
    }
}

/// The per-pipeline pacer as a non-blocking task: drains completion
/// signals, expires credit leases, fences dead epochs and emits camera
/// ticks, then re-arms itself on its worker's timers for the next tick.
struct PacerRunner {
    pipe: Arc<PipeRt>,
    pacer: Pacer,
    rearm: Rearm,
}

impl TaskRunner for PacerRunner {
    fn run(&mut self, core: &Core, me: &Arc<Task>, depth: usize) -> bool {
        let PacerRunner { pipe, pacer, rearm } = self;
        let shared = &pipe.shared;
        if shared.stopped() {
            return false;
        }
        pacer.check_fence(shared);
        while let Some(msg) = pacer.fc_inbox.try_recv() {
            pacer.on_signal(shared, &msg);
        }
        // Checked once per run: at least once per camera tick.
        pacer.expire_leases(shared);
        // Camera ticks due now (late ticks catch up).
        let exec = ReactorExec { core, depth };
        while Instant::now() >= pacer.next_tick {
            if shared.stopped() {
                return false;
            }
            pacer.tick(shared, &exec);
        }
        rearm.ensure(core, me, pacer.next_tick);
        false
    }

    fn finalize(&mut self) {
        self.pacer.finalize(&self.pipe.shared);
    }
}

/// A watcher (SLO controller, heartbeat sender, telemetry publisher) as a
/// self-rearming timer task: runs `tick` each time `interval` has elapsed.
struct IntervalRunner<F> {
    pipe: Arc<PipeRt>,
    interval: Duration,
    next_at: Instant,
    rearm: Rearm,
    tick: F,
}

impl<F: FnMut(&Shared, &ReactorExec<'_>) + Send> TaskRunner for IntervalRunner<F> {
    fn run(&mut self, core: &Core, me: &Arc<Task>, depth: usize) -> bool {
        let pipe = &*self.pipe;
        if pipe.shared.stopped() {
            return false;
        }
        let now = Instant::now();
        if now >= self.next_at {
            self.next_at = now + self.interval;
            (self.tick)(&pipe.shared, &ReactorExec { core, depth });
        }
        self.rearm.ensure(core, me, self.next_at);
        false
    }
}

/// The heartbeat monitor as a task: woken by each beat (channel notify)
/// and by a periodic sweep that walks suspicion to confirmed loss.
struct HbMonitorRunner {
    pipe: Arc<PipeRt>,
    monitor: HbMonitor,
    next_at: Instant,
    rearm: Rearm,
}

impl TaskRunner for HbMonitorRunner {
    fn run(&mut self, core: &Core, me: &Arc<Task>, _depth: usize) -> bool {
        let shared = &self.pipe.shared;
        if shared.stopped() {
            return false;
        }
        while let Some(msg) = self.monitor.inbox.try_recv() {
            self.monitor.on_beat(shared, &msg);
        }
        self.monitor.sweep(shared);
        let now = Instant::now();
        if now >= self.next_at {
            self.next_at = now + HB_SWEEP;
        }
        self.rearm.ensure(core, me, self.next_at);
        false
    }
}

/// An event-driven multi-pipeline runtime with a bounded thread count.
///
/// Deploy any number of pipelines with [`ReactorRuntime::add_pipeline`];
/// they all share one worker pool sized to cores and (in TCP mode) one
/// I/O thread, and each pipeline is configured by its own
/// [`RuntimeConfig`].
pub struct ReactorRuntime {
    core: Arc<Core>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// The I/O thread's inbox and waker; `None` until the first TCP
    /// pipeline spawns the thread.
    io: Option<(Sender<IoEndpoint>, Arc<Poller>)>,
    /// Read-chunk pool shared by every TCP ingress endpoint this runtime
    /// binds: the I/O thread drives them all, so chunks recycle across
    /// pipelines instead of each endpoint cold-starting its own pool.
    ingress_pool: Arc<videopipe_net::BufferPool>,
    /// Every deployed pipeline, indexed by pipeline id.
    pipelines: Vec<Deployed>,
}

/// One deployed pipeline: the owner of its tasks, which own its modules,
/// service hosts and routes. Dropping it frees all of that once the run
/// queues and timers let go of the tasks they hold.
struct Deployed {
    pipe: Arc<PipeRt>,
    /// Emptied by [`ReactorRuntime::stop_pipeline`], which takes `&self`:
    /// hence the lock, which nothing else contends.
    tasks: Mutex<Vec<Arc<Task>>>,
}

impl ReactorRuntime {
    /// Starts the worker pool.
    pub fn new(cfg: ReactorConfig) -> Self {
        let workers = cfg.effective_workers();
        let core = Arc::new(Core {
            cfg,
            origin: Instant::now(),
            workers: (0..workers)
                // Fixed per-worker steal seeds (golden-ratio stride): no
                // shared RNG, deterministic across runs.
                .map(|i| {
                    CachePadded(WorkerQueue::new(
                        (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ))
                })
                .collect(),
            nb_ready: unbounded(),
            mod_ready: unbounded(),
            io_wakeups: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let mut threads = Vec::new();
        for i in 0..workers {
            let core = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("vp-reactor-worker-{i}"))
                    .spawn(move || core.worker_loop(i))
                    .expect("spawn reactor worker"),
            );
        }
        ReactorRuntime {
            core,
            threads,
            io: None,
            ingress_pool: Arc::new(videopipe_net::BufferPool::default()),
            pipelines: Vec::new(),
        }
    }

    /// Hands `endpoints` to the I/O thread — spawned here by the first
    /// TCP pipeline — and wakes it: it blocks without a timeout, so an
    /// endpoint it is not told about would never be serviced.
    fn register_ingress(
        &mut self,
        pipe: &Arc<PipeRt>,
        endpoints: Vec<PollEndpoint>,
    ) -> Result<(), PipelineError> {
        if self.io.is_none() {
            let ingress = Ingress::new()?;
            let waker = ingress.waker();
            let (tx, rx) = unbounded();
            let core = Arc::clone(&self.core);
            self.threads.push(
                std::thread::Builder::new()
                    .name("vp-reactor-io".into())
                    .spawn(move || core.io_loop(ingress, &rx))
                    .expect("spawn reactor io"),
            );
            self.io = Some((tx, waker));
        }
        let (tx, waker) = self.io.as_ref().expect("set just above");
        for endpoint in endpoints {
            let _ = tx.send((Arc::clone(pipe), endpoint));
        }
        waker.notify();
        Ok(())
    }

    /// Builds a watcher ticking every `interval`, first at `first_at`.
    fn interval_task(
        pipe: &Arc<PipeRt>,
        interval: Duration,
        first_at: Instant,
        tick: impl FnMut(&Shared, &ReactorExec<'_>) + Send + 'static,
    ) -> Arc<Task> {
        let runner = IntervalRunner {
            pipe: Arc::clone(pipe),
            interval,
            next_at: first_at,
            rearm: Rearm::default(),
            tick,
        };
        new_task(pipe.home, false, runner)
    }

    /// Deploys one more pipeline onto the shared reactor and returns its
    /// pipeline id (index into the reports from [`ReactorRuntime::finish`]).
    ///
    /// Each pipeline gets its own channels, routes and frame stores; only
    /// the executor (tasks, timers, workers) is shared.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] for invalid configs, missing module
    /// includes or service images, a module whose `init` fails, or wiring
    /// failures. A failed add takes no pipeline id and leaves nothing
    /// running: the next successful add gets the id this one would have.
    pub fn add_pipeline(
        &mut self,
        plan: &DeploymentPlan,
        modules: &ModuleRegistry,
        services: &ServiceRegistry,
        config: RuntimeConfig,
    ) -> Result<usize, PipelineError> {
        // In `Tcp` mode every device gets an ingress endpoint for the
        // reactor's single I/O thread to run.
        let (shared, io_endpoints) = Shared::deploy(plan, config, &self.ingress_pool)?;
        let pipeline_id = self.pipelines.len();
        let pipe = Arc::new(PipeRt {
            // Pipeline affinity: home worker for every task of this
            // pipeline. Round-robin over workers spreads the fleet evenly.
            home: pipeline_id % self.core.workers.len(),
            shared,
        });
        let mut tasks = Vec::new();
        let initial_wakes =
            match self.deploy_tasks(plan, modules, services, &pipe, io_endpoints, &mut tasks) {
                Ok(wakes) => wakes,
                Err(e) => {
                    // Unwind: what was built is dropped with `tasks`; a
                    // task still queued returns at entry once stopped.
                    pipe.shared.stop.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            };
        for task in &initial_wakes {
            self.core.wake(task);
        }
        self.pipelines.push(Deployed {
            pipe,
            tasks: Mutex::new(tasks),
        });
        Ok(pipeline_id)
    }

    /// Registers ingress and builds every task of `pipe` into `tasks`;
    /// returns those to wake once the pipeline is live.
    fn deploy_tasks(
        &mut self,
        plan: &DeploymentPlan,
        modules: &ModuleRegistry,
        services: &ServiceRegistry,
        pipe: &Arc<PipeRt>,
        io_endpoints: Vec<PollEndpoint>,
        tasks: &mut Vec<Arc<Task>>,
    ) -> Result<Vec<Arc<Task>>, PipelineError> {
        let (shared, home) = (&pipe.shared, pipe.home);
        // Before module init: init-time calls to a remote service need
        // their replies to come in.
        if !io_endpoints.is_empty() {
            self.register_ingress(pipe, io_endpoints)?;
        }
        let mut initial_wakes = Vec::new();
        let now = Instant::now();

        // --- Service hosts: one task per (device, service) actually bound,
        // modeling `cores` containers when cost emulation is on.
        let emulated = shared.config.time_scale > 0.0;
        for host in ServiceHost::deploy_all(shared, plan, services)? {
            let inbox = Arc::clone(&host.inbox);
            let containers = if emulated { host.cores as usize } else { 0 };
            let runner = ServiceRunner {
                pipe: Arc::clone(pipe),
                host,
                busy_until: vec![now; containers],
                rearm: Rearm::default(),
            };
            let task = new_task(home, false, runner);
            inbox.set_consumer(&task);
            tasks.push(task);
        }

        // --- Modules: one blocking-capable task each. Init runs inline at
        // deploy, with service tasks already built so init-time service
        // calls can be helped.
        for m in &plan.pipeline.modules {
            let exec = ReactorExec {
                core: &self.core,
                depth: 0,
            };
            let task = ModuleTask::deploy(shared, &exec, plan, m, modules)?;
            let inbox = Arc::clone(&task.inbox);
            let runner = ModuleRunner {
                pipe: Arc::clone(pipe),
                task,
                rearm: Rearm::default(),
            };
            let task = new_task(home, true, runner);
            inbox.set_consumer(&task);
            if shared.config.checkpoint_period.is_some() {
                initial_wakes.push(Arc::clone(&task));
            }
            tasks.push(task);
        }

        // --- Watchers: self-rearming timer tasks.
        let mut watchers = Vec::new();
        if let Some(slo_cfg) = shared.config.slo.clone() {
            let mut slo = SloController::new(slo_cfg);
            let interval = slo.config().interval;
            let tick =
                move |shared: &Shared, _: &ReactorExec<'_>| engine::slo_tick(&mut slo, shared);
            watchers.push(Self::interval_task(pipe, interval, now + interval, tick));
        }
        if let Some(health) = &shared.config.heartbeats {
            let monitor = HbMonitor::deploy(shared);
            for (device, route) in shared.heartbeat_routes() {
                let beat = move |shared: &Shared, exec: &ReactorExec<'_>| {
                    engine::heartbeat(shared, exec, &device, &route)
                };
                let interval = health.heartbeat_interval;
                watchers.push(Self::interval_task(pipe, interval, now, beat));
            }
            let inbox = Arc::clone(&monitor.inbox);
            let runner = HbMonitorRunner {
                pipe: Arc::clone(pipe),
                monitor,
                next_at: now,
                rearm: Rearm::default(),
            };
            let task = new_task(home, false, runner);
            inbox.set_consumer(&task);
            watchers.push(task);
        }
        if let Some(interval) = shared.config.telemetry_interval {
            let publish = |shared: &Shared, _: &ReactorExec<'_>| engine::publish_telemetry(shared);
            watchers.push(Self::interval_task(pipe, interval, now + interval, publish));
        }

        // --- Pacer task. Its first run fires the first camera tick
        // immediately.
        let pacer = Pacer::deploy(shared)?;
        let inbox = Arc::clone(&pacer.fc_inbox);
        let runner = PacerRunner {
            pipe: Arc::clone(pipe),
            pacer,
            rearm: Rearm::default(),
        };
        let task = new_task(home, false, runner);
        inbox.set_consumer(&task);
        watchers.push(task);
        initial_wakes.extend(watchers.iter().cloned());
        tasks.append(&mut watchers);
        Ok(initial_wakes)
    }

    /// Threads owned by this reactor (workers + optional I/O) —
    /// constant in the number of deployed pipelines.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Number of deployed pipelines.
    pub fn pipeline_count(&self) -> usize {
        self.pipelines.len()
    }

    fn pipe(&self, id: usize) -> Option<&PipeRt> {
        Some(&self.pipelines.get(id)?.pipe)
    }

    /// Total frames delivered across every pipeline.
    pub fn deliveries(&self) -> u64 {
        self.pipelines
            .iter()
            .map(|p| p.pipe.shared.deliveries.load(Ordering::Relaxed))
            .sum()
    }

    /// Frames delivered by pipeline `id` (as returned by
    /// [`ReactorRuntime::add_pipeline`]).
    pub fn deliveries_for(&self, id: usize) -> u64 {
        self.pipe(id)
            .map_or(0, |p| p.shared.deliveries.load(Ordering::Relaxed))
    }

    /// Live snapshot of the per-worker scheduler counters (tasks run,
    /// steal attempts/successes, local-queue high-water, timer fires,
    /// unparks), one entry per worker.
    pub fn scheduler_stats(&self) -> Vec<crate::metrics::WorkerSchedStats> {
        self.core.scheduler_stats()
    }

    /// Times the TCP I/O thread has come out of its readiness wait: one
    /// per batch of ready sockets, deploy or shutdown. It stays put while
    /// no bytes arrive — an idle fleet costs no I/O wake-ups.
    pub fn io_wakeups(&self) -> u64 {
        self.core.io_wakeups.load(Ordering::Relaxed)
    }

    /// The latest checkpoint taken for `module` on pipeline `id`, if any
    /// (periodic while running; refreshed one last time by
    /// [`ReactorRuntime::stop_pipeline`] and at shutdown).
    pub fn checkpoint_for(&self, id: usize, module: &str) -> Option<Vec<u8>> {
        let checkpoints = self.pipe(id)?.shared.checkpoints.lock();
        checkpoints.get(module).cloned()
    }

    /// Frame-store counters for `device` on pipeline `id`, including the
    /// encode-cache hit/miss tallies (diagnostics and tests).
    pub fn frame_store_stats(&self, id: usize, device: &str) -> Option<FrameStoreStats> {
        Some(self.pipe(id)?.shared.stores.get(device)?.stats())
    }

    /// Subscribes a telemetry monitor to pipeline `id` (snapshots flow only
    /// when [`RuntimeConfig::telemetry_interval`] is set).
    ///
    /// # Errors
    ///
    /// An unknown `id`, or hub binding errors.
    pub fn monitor(&self, id: usize) -> Result<TelemetryMonitor, PipelineError> {
        let pipe = self
            .pipe(id)
            .ok_or_else(|| PipelineError::Deploy(format!("no pipeline {id}")))?;
        TelemetryMonitor::subscribe(&pipe.shared.hub, &pipe.shared.pipeline)
    }

    /// Stops pipeline `id` mid-run without touching the rest of the fleet:
    /// sets its stop flag (every task runner checks it on entry),
    /// finalizes its tasks so pacer credit accounting flushes and each
    /// checkpointing module takes one final snapshot, and lets go of them.
    /// Its module instances, service hosts and routes are freed as soon as
    /// no run queue or armed deadline holds their task any more (a stopped
    /// task runs no more work and arms nothing). Its shared state stays:
    /// [`ReactorRuntime::report_for`] and [`ReactorRuntime::checkpoint_for`]
    /// still answer, and its report remains collectable at
    /// [`ReactorRuntime::finish`]. Returns `false` for unknown ids or
    /// pipelines already stopped.
    pub fn stop_pipeline(&self, id: usize) -> bool {
        let Some(deployed) = self.pipelines.get(id) else {
            return false;
        };
        if deployed.pipe.shared.stop.swap(true, Ordering::SeqCst) {
            return false;
        }
        // Locking each runner serializes with any in-flight quantum; once
        // the stop flag is set a queued task returns at entry without
        // touching its module instance, so the final snapshot taken here
        // cannot go stale.
        let tasks = std::mem::take(&mut *deployed.tasks.lock());
        for task in tasks {
            task.runner.lock().finalize();
        }
        true
    }

    /// Collects a report for pipeline `id` from its live shared state
    /// (non-consuming: metrics, logs and errors are cloned and stay for the
    /// final report; pair with
    /// [`ReactorRuntime::stop_pipeline`] when retiring a single pipeline
    /// from a long-lived runtime). Mid-run, this is where the failure
    /// detector's device view, the fence epoch, the SLO level and the
    /// restart count are read.
    pub fn report_for(&self, id: usize) -> Option<RunReport> {
        Some(self.pipe(id)?.shared.report(false))
    }

    /// Chaos hook: silences `device`'s heartbeat sender on pipeline `id`,
    /// as if the device dropped off the network. The failure detector will
    /// walk it through suspicion to confirmed loss. Returns whether the
    /// device was newly muted.
    pub fn inject_heartbeat_loss(&self, id: usize, device: &str) -> bool {
        self.pipe(id)
            .is_some_and(|p| p.shared.muted_heartbeats.lock().insert(device.to_string()))
    }

    /// Chaos hook: severs every cross-device TCP connection of pipeline
    /// `id` mid-stream, as if the Wi-Fi link blipped (a no-op in `Inproc`
    /// mode). Senders carry a reconnect policy, so traffic buffers and
    /// re-establishes transparently. Returns the number of connections
    /// severed.
    pub fn inject_tcp_disconnect(&self, id: usize) -> usize {
        self.pipe(id).map_or(0, |p| {
            let peers = &p.shared.peers;
            for peer in peers {
                peer.inject_disconnect();
            }
            peers.len()
        })
    }

    /// Runs until `wall` elapses, then stops and reports (one report per
    /// pipeline, in `add_pipeline` order).
    pub fn run_for(self, wall: Duration) -> Vec<RunReport> {
        std::thread::sleep(wall);
        self.finish()
    }

    /// Runs until `n` total frames are delivered or `max_wall` elapses.
    pub fn run_until_total_deliveries(self, n: u64, max_wall: Duration) -> Vec<RunReport> {
        let deadline = Instant::now() + max_wall;
        while self.deliveries() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.finish()
    }

    /// Stops every thread and collects one report per pipeline: each
    /// pipeline's metrics, logs and errors are handed over, not copied.
    /// Each report carries the same runtime-wide per-worker scheduler
    /// snapshot. The rest of the deployment — tasks, modules, channels,
    /// queued messages, armed deadlines — is freed on return, as it is
    /// when a runtime is dropped without `finish`.
    pub fn finish(mut self) -> Vec<RunReport> {
        self.shutdown();
        let sched = self.core.scheduler_stats();
        self.pipelines
            .iter()
            .map(|p| {
                let mut report = p.pipe.shared.report(true);
                report.scheduler = sched.clone();
                report
            })
            .collect()
    }

    fn shutdown(&mut self) {
        self.core.stop.store(true, Ordering::SeqCst);
        for p in &self.pipelines {
            p.pipe.shared.stop.store(true, Ordering::SeqCst);
        }
        for wq in &self.core.workers {
            wq.parker.unpark();
        }
        if let Some((_, waker)) = &self.io {
            waker.notify();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Finalize every task still deployed (pacers flush credit
        // accounting); a stopped pipeline's went when it stopped.
        for p in &self.pipelines {
            for task in p.tasks.lock().iter() {
                task.runner.lock().finalize();
            }
        }
    }
}

impl Drop for ReactorRuntime {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown();
        }
    }
}

impl std::fmt::Debug for ReactorRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorRuntime")
            .field("pipelines", &self.pipelines.len())
            .field("threads", &self.threads.len())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::deploy::{plan, DeviceSpec, Placement};
    use crate::message::Payload;
    use crate::module::{Event, Module, ModuleCtx, ModuleRegistry};
    use crate::runtime::EdgeTransport;
    use crate::service::{Service, ServiceCost, ServiceRegistry, ServiceRequest, ServiceResponse};
    use crate::spec::{ModuleSpec, PipelineSpec};
    use videopipe_media::{Frame, FrameBuf, FrameStore};

    /// Held by every test in this binary that sends over TCP: the wire
    /// counters in `videopipe_net::telemetry` are process-wide, and one
    /// test counts the frames its own pipeline puts on the wire.
    pub(crate) static TCP_WIRE: Mutex<()> = Mutex::new(());

    /// Held by the tests that bound a wake-up to a few milliseconds and by
    /// the multi-thread stress tests: with two CPUs, a stress test's
    /// workers and hammering threads running beside such a bound can keep
    /// the worker it waits for off the CPU for longer than the bound.
    static TIMING: Mutex<()> = Mutex::new(());

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

    fn test_spec(name: &str) -> PipelineSpec {
        PipelineSpec::new(name)
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

    fn single_device_plan(name: &str) -> DeploymentPlan {
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(2)
            .with_service("doubler")];
        let placement = Placement::new()
            .assign("src", "one")
            .assign("mid", "one")
            .assign("sink", "one");
        plan(&test_spec(name), &devices, &placement).unwrap()
    }

    #[test]
    fn reactor_single_pipeline_delivers_frames() {
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig::default());
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&single_device_plan("test"), &modules, &services, config)
            .unwrap();
        let reports = rt.run_until_total_deliveries(10, Duration::from_secs(10));
        let report = &reports[0];
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
        // Credit conservation survives the reactor refactor.
        assert_eq!(
            report.metrics.frames_admitted,
            report.metrics.frames_delivered
                + report.metrics.frames_faulted
                + u64::from(report.metrics.in_flight_at_end),
        );
    }

    #[test]
    fn reactor_thread_count_is_constant_in_pipelines() {
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        let base = rt.thread_count();
        for i in 0..40 {
            let config = RuntimeConfig {
                fps: 50.0,
                ..RuntimeConfig::default()
            };
            rt.add_pipeline(
                &single_device_plan(&format!("p{i}")),
                &modules,
                &services,
                config,
            )
            .unwrap();
        }
        // Inproc pipelines add ZERO threads, and nothing but the workers
        // runs them: no timer thread.
        assert_eq!(rt.thread_count(), base);
        assert_eq!(base, 2);
        let reports = rt.run_until_total_deliveries(40 * 3, Duration::from_secs(20));
        assert_eq!(reports.len(), 40);
        for (i, report) in reports.iter().enumerate() {
            assert!(
                report.metrics.frames_delivered >= 1,
                "pipeline {i} delivered nothing: {:?}",
                report.errors
            );
            assert!(
                report.errors.is_empty(),
                "pipeline {i}: {:?}",
                report.errors
            );
        }
    }

    #[test]
    fn reactor_single_worker_cannot_deadlock_on_service_calls() {
        // One worker must be able to run the module step AND the service
        // dispatch it is waiting on, via wait-by-helping.
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        });
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&single_device_plan("solo"), &modules, &services, config)
            .unwrap();
        let reports = rt.run_until_total_deliveries(5, Duration::from_secs(10));
        assert!(
            reports[0].metrics.frames_delivered >= 5,
            "delivered {} errors {:?}",
            reports[0].metrics.frames_delivered,
            reports[0].errors
        );
    }

    fn two_device_plan(name: &str) -> DeploymentPlan {
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
        plan(&test_spec(name), &devices, &placement).unwrap()
    }

    #[test]
    fn reactor_tcp_transport_crosses_devices_via_io_thread() {
        let _wire = TCP_WIRE.lock();
        let plan = two_device_plan("tcp");
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        let base = rt.thread_count();
        let config = RuntimeConfig {
            fps: 100.0,
            transport: EdgeTransport::Tcp,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&plan, &modules, &services, config).unwrap();
        // TCP adds exactly one I/O thread, once, regardless of devices.
        assert_eq!((base, rt.thread_count()), (2, 3));
        let reports = rt.run_until_total_deliveries(10, Duration::from_secs(15));
        let report = &reports[0];
        assert!(
            report.metrics.frames_delivered >= 10,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
    }

    /// One frame every 10 s: the first is due at deploy, after which the
    /// pipeline sends nothing for the rest of the test.
    fn quiet_tcp_config() -> RuntimeConfig {
        RuntimeConfig {
            fps: 0.1,
            transport: EdgeTransport::Tcp,
            ..RuntimeConfig::default()
        }
    }

    /// Waits for pipeline `id`'s first frame, then until the I/O thread
    /// has gone a while without waking: it is back in its wait.
    fn settle_after_first_frame(rt: &ReactorRuntime, id: usize) -> Duration {
        let start = Instant::now();
        while rt.deliveries_for(id) == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "pipeline {id} never delivered its first frame"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        let first_frame = start.elapsed();
        let mut seen = rt.io_wakeups();
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = rt.io_wakeups();
            if now == seen {
                return first_frame;
            }
            seen = now;
        }
    }

    #[test]
    fn reactor_idle_tcp_pipeline_costs_no_io_wakeups() {
        let _wire = TCP_WIRE.lock();
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        let id = rt
            .add_pipeline(
                &two_device_plan("idle"),
                &modules,
                &services,
                quiet_tcp_config(),
            )
            .unwrap();
        settle_after_first_frame(&rt, id);
        let before = rt.io_wakeups();
        assert!(
            before > 0,
            "the first frame crossed TCP without the I/O thread"
        );
        std::thread::sleep(Duration::from_millis(300));
        // A timed scan would have come round some 300 times.
        let woke = rt.io_wakeups() - before;
        assert!(woke <= 5, "{woke} I/O wake-ups in 300 ms of silence");
        // The thread sits in a wait with no timeout; shutdown has to wake it.
        let start = Instant::now();
        let reports = rt.finish();
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "finish() took {:?} with the I/O thread blocked",
            start.elapsed()
        );
        assert!(reports[0].errors.is_empty(), "{:?}", reports[0].errors);
    }

    #[test]
    fn reactor_tcp_pipelines_added_while_io_thread_blocks_start_promptly() {
        let _wire = TCP_WIRE.lock();
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        for i in 0..8 {
            // Every earlier pipeline is silent and the I/O thread blocked
            // (`settle_after_first_frame`), so only the deploy's own
            // notify can get the new endpoints registered and serviced.
            let id = rt
                .add_pipeline(
                    &two_device_plan(&format!("late{i}")),
                    &modules,
                    &services,
                    quiet_tcp_config(),
                )
                .unwrap();
            let first_frame = settle_after_first_frame(&rt, id);
            assert!(
                first_frame < Duration::from_millis(50),
                "pipeline {i}: first frame {first_frame:?} after deploy"
            );
        }
        let reports = rt.finish();
        assert!(reports.iter().all(|r| r.errors.is_empty()));
    }

    /// `a → b` on device `one`, `b → c` across to device `two`; `a` lets
    /// the first `forward` ticks through, `b` returns each frame's credit
    /// and `c` counts what arrives.
    fn relay_across_one_edge(
        forward: u64,
        arrived: &Arc<AtomicU64>,
    ) -> (DeploymentPlan, ModuleRegistry) {
        struct A(u64);
        impl Module for A {
            fn on_event(
                &mut self,
                event: Event,
                ctx: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if let Event::FrameTick { .. } = event {
                    if self.0 > 0 {
                        self.0 -= 1;
                        ctx.call_module("b", Payload::Count(1))?;
                    }
                }
                Ok(())
            }
        }
        struct B;
        impl Module for B {
            fn on_event(
                &mut self,
                event: Event,
                ctx: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if let Event::Message(msg) = event {
                    ctx.call_module("c", msg.payload)?;
                    ctx.signal_source()?;
                }
                Ok(())
            }
        }
        struct C(Arc<AtomicU64>);
        impl Module for C {
            fn on_event(
                &mut self,
                event: Event,
                _: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if let Event::Message(_) = event {
                    self.0.fetch_add(1, Ordering::SeqCst);
                }
                Ok(())
            }
        }
        let spec = PipelineSpec::new("edge")
            .with_module(ModuleSpec::new("a", "A").with_next("b"))
            .with_module(ModuleSpec::new("b", "B").with_next("c"))
            .with_module(ModuleSpec::new("c", "C"));
        let devices = vec![DeviceSpec::new("one", 1.0), DeviceSpec::new("two", 1.0)];
        let placement = Placement::new()
            .assign("a", "one")
            .assign("b", "one")
            .assign("c", "two");
        let mut modules = ModuleRegistry::new();
        modules.register("A", move || Box::new(A(forward)));
        modules.register("B", || Box::new(B));
        let arrived = Arc::clone(arrived);
        modules.register("C", move || Box::new(C(Arc::clone(&arrived))));
        (plan(&spec, &devices, &placement).unwrap(), modules)
    }

    #[test]
    fn only_the_cross_device_edge_uses_tcp_and_only_its_far_side_wakes_the_consumer() {
        const FORWARD: u64 = 40;
        let _wire = TCP_WIRE.lock();
        let arrived = Arc::new(AtomicU64::new(0));
        let (plan, modules) = relay_across_one_edge(FORWARD, &arrived);
        // One worker: every task runs on it, so no wake lands on a task
        // that is running (which would count an extra run).
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        });
        let config = RuntimeConfig {
            fps: 200.0,
            transport: EdgeTransport::Tcp,
            ..RuntimeConfig::default()
        };
        let wire_before = videopipe_net::telemetry::snapshot();
        rt.add_pipeline(&plan, &modules, &ServiceRegistry::new(), config)
            .unwrap();
        let start = Instant::now();
        while arrived.load(Ordering::SeqCst) < FORWARD {
            assert!(start.elapsed() < Duration::from_secs(10), "frames stopped");
            std::thread::sleep(Duration::from_millis(1));
        }
        // A few more ticks: anything still on its way would show.
        std::thread::sleep(Duration::from_millis(30));
        let report = rt.finish().remove(0);
        let sent = videopipe_net::telemetry::snapshot()
            .delta_since(&wire_before)
            .tx_frames;
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        // The credit comes back from `b`, on the pacer's own device.
        assert_eq!(report.metrics.frames_delivered, FORWARD);
        // Every frame TCP carried is one `c` received: `a → b`, `b → pacer`
        // and the ticks stayed in process.
        assert_eq!((arrived.load(Ordering::SeqCst), sent), (FORWARD, FORWARD));
        // Per tick, one pacer run off its timer; per admitted tick one run
        // of `a`; per forwarded frame one each of `b`, the pacer (the
        // credit) and `c` — woken once, by the I/O thread when the bytes
        // land. Waking `c` also at `b`'s send, before the bytes have
        // crossed, adds about one run per forwarded frame: four times the
        // slack allowed here for a pacer run that finds nothing due.
        let runs: u64 = report.scheduler.iter().map(|w| w.tasks_run).sum();
        let ticks = report.metrics.frames_offered;
        let admitted = report.metrics.frames_admitted;
        let expected = ticks + admitted + 3 * FORWARD;
        assert!(
            runs <= expected + FORWARD / 4,
            "{runs} task runs for {ticks} ticks, {admitted} admitted, {FORWARD} forwarded \
             (expected {expected})"
        );
    }

    #[test]
    fn reactor_modeled_service_cost_defers_instead_of_blocking() {
        // With time_scale > 0 the 1ms modeled cost of `Doubler` becomes a
        // timer deferral; a single worker still keeps the pipeline moving
        // because no worker ever sleeps out the modeled time.
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        });
        let config = RuntimeConfig {
            fps: 200.0,
            time_scale: 1.0,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&single_device_plan("modeled"), &modules, &services, config)
            .unwrap();
        let reports = rt.run_until_total_deliveries(5, Duration::from_secs(10));
        let report = &reports[0];
        assert!(
            report.metrics.frames_delivered >= 5,
            "delivered {} errors {:?}",
            report.metrics.frames_delivered,
            report.errors
        );
        // The modeled time is accounted as busy time even though no
        // worker thread actually slept.
        let dispatch = report.metrics.dispatch.get("one/doubler").unwrap();
        assert!(
            dispatch.busy_ns >= 5 * 1_000_000,
            "modeled cost missing from busy_ns: {dispatch:?}"
        );
    }

    /// Fans each camera tick out to `callers` modules, each making one call
    /// to a service with a flat 10 ms modeled cost on a device with
    /// `containers` containers; returns how many requests the host served
    /// in one second.
    fn served_in_one_second(callers: usize, containers: u32) -> u64 {
        /// Forwards every tick to each caller.
        struct FanOut(usize);
        impl Module for FanOut {
            fn on_event(
                &mut self,
                event: Event,
                ctx: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if let Event::FrameTick { .. } = event {
                    for c in 0..self.0 {
                        ctx.call_module(&format!("c{c}"), Payload::Count(1))?;
                    }
                }
                Ok(())
            }
        }
        struct Caller;
        impl Module for Caller {
            fn on_event(
                &mut self,
                event: Event,
                ctx: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if let Event::Message(msg) = event {
                    let resp =
                        ctx.call_service("doubler", ServiceRequest::new("x", msg.payload))?;
                    ctx.call_module("sink", resp.payload)?;
                }
                Ok(())
            }
        }
        /// Returns the credit once every caller has answered.
        struct Join(usize, usize);
        impl Module for Join {
            fn on_event(
                &mut self,
                event: Event,
                ctx: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if let Event::Message(_) = event {
                    self.1 += 1;
                    if self.1.is_multiple_of(self.0) {
                        ctx.signal_source()?;
                    }
                }
                Ok(())
            }
        }
        /// `Doubler` at 10 ms a request.
        struct Slow;
        impl Service for Slow {
            fn name(&self) -> &str {
                "doubler"
            }
            fn handle(
                &self,
                request: &ServiceRequest,
                store: &FrameStore,
            ) -> Result<ServiceResponse, PipelineError> {
                Doubler.handle(request, store)
            }
            fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
                ServiceCost::flat(Duration::from_millis(10))
            }
        }

        let mut src = ModuleSpec::new("src", "FanOut");
        let mut spec = PipelineSpec::new("capacity");
        let mut placement = Placement::new().assign("src", "one").assign("sink", "one");
        for c in 0..callers {
            let name = format!("c{c}");
            src = src.with_next(&name);
            let caller = ModuleSpec::new(&name, "Caller").with_service("doubler");
            spec = spec.with_module(caller.with_next("sink"));
            placement = placement.assign(&name, "one");
        }
        let spec = spec
            .with_module(src)
            .with_module(ModuleSpec::new("sink", "Join"));
        let devices = vec![DeviceSpec::new("one", 1.0)
            .with_containers(containers)
            .with_service("doubler")];
        let plan = plan(&spec, &devices, &placement).unwrap();
        let mut modules = ModuleRegistry::new();
        modules.register("FanOut", move || Box::new(FanOut(callers)));
        modules.register("Caller", || Box::new(Caller));
        modules.register("Join", move || Box::new(Join(callers, 0)));
        let mut services = ServiceRegistry::new();
        services.install(Arc::new(Slow));
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        let config = RuntimeConfig {
            fps: 100.0,
            credits: 8,
            time_scale: 1.0,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&plan, &modules, &services, config).unwrap();
        let reports = rt.run_for(Duration::from_secs(1));
        let report = &reports[0];
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        report.metrics.dispatch["one/doubler"].requests
    }

    #[test]
    fn modeled_capacity_is_capped_at_the_hosts_cores() {
        // 400 requests/s offered into 10 ms of modeled work: one container
        // serves 100 of them a second, two serve 200. Without a horizon
        // every request is served 10 ms after it arrives, whatever the
        // container count.
        let one = served_in_one_second(4, 1);
        assert!(one <= 110, "{one} requests served by one 10 ms container");
        let two = served_in_one_second(4, 2);
        assert!(
            two * 10 >= one * 17,
            "two containers served {two}, one served {one}"
        );
    }

    /// A module whose `init` fails: its pipeline cannot deploy.
    struct BrokenInit;
    impl Module for BrokenInit {
        fn init(&mut self, _ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            Err(PipelineError::Module {
                module: "sink".into(),
                reason: "no display attached".into(),
            })
        }
        fn on_event(&mut self, _: Event, _: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            Ok(())
        }
    }

    /// Wraps a module to count its instance's drop, and snapshots to a
    /// fixed byte so a checkpointing pipeline has checkpoints to show.
    struct Counted {
        inner: Box<dyn Module>,
        dropped: Arc<AtomicU64>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.dropped.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl Module for Counted {
        fn init(&mut self, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            self.inner.init(ctx)
        }
        fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
            self.inner.on_event(event, ctx)
        }
        fn snapshot(&self) -> Option<Vec<u8>> {
            Some(vec![1])
        }
    }

    /// Module instances built and dropped through [`Census::register`].
    #[derive(Clone, Default)]
    struct Census {
        built: Arc<AtomicU64>,
        dropped: Arc<AtomicU64>,
    }

    impl Census {
        /// Registers `make` under `name`, each instance wrapped in [`Counted`].
        fn register(
            &self,
            modules: &mut ModuleRegistry,
            name: &str,
            make: fn() -> Box<dyn Module>,
        ) {
            let census = self.clone();
            modules.register(name, move || {
                census.built.fetch_add(1, Ordering::SeqCst);
                Box::new(Counted {
                    inner: make(),
                    dropped: Arc::clone(&census.dropped),
                })
            });
        }

        /// Instances built and not yet dropped.
        fn live(&self) -> u64 {
            self.built.load(Ordering::SeqCst) - self.dropped.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn a_failed_add_takes_no_pipeline_id() {
        let (modules, services) = registries();
        let census = Census::default();
        let mut broken = ModuleRegistry::new();
        census.register(&mut broken, "TestSource", || Box::new(TestSource));
        census.register(&mut broken, "TestMid", || Box::new(TestMid));
        census.register(&mut broken, "TestSink", || Box::new(BrokenInit));
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        let config = || RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let failed = rt.add_pipeline(&single_device_plan("broken"), &broken, &services, config());
        assert!(failed.is_err());
        // Every module built before the failing `init`, and that one, is
        // gone with the failed add.
        assert_eq!(census.built.load(Ordering::SeqCst), 3);
        assert_eq!(census.live(), 0, "modules of the failed add still live");
        let id = rt
            .add_pipeline(&single_device_plan("good"), &modules, &services, config())
            .unwrap();
        assert_eq!((id, rt.pipeline_count()), (0, 1));
        let start = Instant::now();
        while rt.deliveries_for(id) < 5 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "pipeline {id} is not the one that runs"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let live = rt.report_for(id).expect("a report for the good pipeline");
        assert!(live.metrics.frames_delivered >= 5, "{:?}", live.metrics);
        // Stopping the id stops the pipeline that runs under it.
        assert!(rt.stop_pipeline(id));
        let stopped_at = rt.deliveries_for(id);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(rt.deliveries_for(id), stopped_at);
        let reports = rt.finish();
        assert_eq!(reports.len(), 1);
        assert!(
            reports[0].metrics.credits_balanced(),
            "{:?}",
            reports[0].metrics
        );
    }

    #[test]
    fn a_stopped_pipeline_frees_its_modules_and_keeps_its_report() {
        let (modules, services) = registries();
        let census = Census::default();
        let mut counted = ModuleRegistry::new();
        census.register(&mut counted, "TestSource", || Box::new(TestSource));
        census.register(&mut counted, "TestMid", || Box::new(TestMid));
        census.register(&mut counted, "TestSink", || Box::new(TestSink));
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        // One tick period, which is also the checkpoint period: once it has
        // passed, every deadline a stopped task had armed has fired.
        let period = Duration::from_millis(5);
        let config = || RuntimeConfig {
            fps: 200.0,
            checkpoint_period: Some(period),
            ..RuntimeConfig::default()
        };
        let plan = single_device_plan;
        let stopped = rt
            .add_pipeline(&plan("stopped"), &counted, &services, config())
            .unwrap();
        let sibling = rt
            .add_pipeline(&plan("sibling"), &modules, &services, config())
            .unwrap();
        let until = |id: usize, frames: u64| {
            let start = Instant::now();
            while rt.deliveries_for(id) < frames {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "pipeline {id} stuck at {} frames",
                    rt.deliveries_for(id)
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        until(stopped, 5);
        until(sibling, 5);
        assert!(census.live() >= 3);
        assert!(rt.stop_pipeline(stopped));
        std::thread::sleep(period);
        let start = Instant::now();
        while census.live() > 0 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{} modules of the stopped pipeline still live",
                census.live()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Its shared state stays: the live report and the final checkpoints.
        let live = rt
            .report_for(stopped)
            .expect("a report for the stopped pipeline");
        assert!(live.metrics.frames_delivered >= 5, "{:?}", live.metrics);
        assert!(rt.checkpoint_for(stopped, "mid").is_some());
        // The sibling keeps delivering.
        until(sibling, rt.deliveries_for(sibling) + 5);
        let reports = rt.finish();
        assert_eq!(reports.len(), 2);
        let last = &reports[stopped].metrics;
        assert!(last.frames_delivered >= live.metrics.frames_delivered);
        assert!(last.credits_balanced(), "{last:?}");
    }

    #[test]
    fn report_for_leaves_logs_and_errors_for_the_final_report() {
        /// Logs, then fails: every frame adds one log and one error line.
        struct LogThenFail;
        impl Module for LogThenFail {
            fn on_event(
                &mut self,
                event: Event,
                ctx: &mut dyn ModuleCtx,
            ) -> Result<(), PipelineError> {
                if let Event::Message(_) = event {
                    ctx.log("saw a frame");
                    return Err(PipelineError::BadPayload("refused"));
                }
                Ok(())
            }
        }
        let (mut modules, services) = registries();
        modules.register("TestMid", || Box::new(LogThenFail));
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let id = rt
            .add_pipeline(&single_device_plan("errs"), &modules, &services, config)
            .unwrap();
        let start = Instant::now();
        let mid_run = loop {
            let report = rt.report_for(id).unwrap();
            if report.errors.len() >= 3 {
                break report;
            }
            assert!(start.elapsed() < Duration::from_secs(10), "no errors");
            std::thread::sleep(Duration::from_millis(2));
        };
        let last = rt.finish().remove(0);
        assert!(
            last.errors.starts_with(&mid_run.errors),
            "{:?}",
            last.errors
        );
        assert!(last.logs.starts_with(&mid_run.logs), "{:?}", last.logs);
        assert!(!mid_run.logs.is_empty());
    }

    #[test]
    fn report_for_leaves_the_stage_counts_for_the_final_report() {
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        let config = RuntimeConfig {
            fps: 200.0,
            ..RuntimeConfig::default()
        };
        let id = rt
            .add_pipeline(&single_device_plan("counts"), &modules, &services, config)
            .unwrap();
        let start = Instant::now();
        let mid_run = loop {
            let report = rt.report_for(id).unwrap();
            if report.metrics.stages["sink"].count() >= 3 {
                break report;
            }
            assert!(start.elapsed() < Duration::from_secs(10), "no frames");
            std::thread::sleep(Duration::from_millis(2));
        };
        let last = rt.finish().remove(0);
        for stage in ["src", "mid", "sink"] {
            let (then, now) = (&mid_run.metrics.stages[stage], &last.metrics.stages[stage]);
            assert!(
                now.count() >= then.count(),
                "{stage}: {then} then, {now} at the end"
            );
        }
        let requests = |r: &RunReport| r.metrics.dispatch["one/doubler"].requests;
        assert!(requests(&last) >= requests(&mid_run));
        assert!(last.metrics.frames_delivered >= mid_run.metrics.frames_delivered);
    }

    /// Probe task for the interleaving test: every run drains the shared
    /// `pending` wake counter. Lost DIRTY wakes leave `pending` non-zero
    /// forever; double-queued tasks produce more runs than wakes.
    struct ProbeRunner {
        pending: Arc<AtomicU64>,
        runs: Arc<AtomicU64>,
        overlap: Arc<AtomicBool>,
    }

    impl TaskRunner for ProbeRunner {
        fn run(&mut self, _core: &Core, _task: &Arc<Task>, _depth: usize) -> bool {
            assert!(
                !self.overlap.swap(true, Ordering::SeqCst),
                "task ran concurrently on two threads"
            );
            self.runs.fetch_add(1, Ordering::SeqCst);
            self.pending.swap(0, Ordering::SeqCst);
            self.overlap.store(false, Ordering::SeqCst);
            false
        }
    }

    /// Seeded randomized interleaving over the 4-state task machine under
    /// stealing: four threads hammer `wake()` on one task homed on worker
    /// 0 of a 4-worker pool, so the runner, its home worker and three
    /// stealers race on every IDLE/QUEUED/RUNNING/DIRTY transition. A task
    /// must never run concurrently with itself (double-queue would allow
    /// two workers to pop it), each run must consume at least one wake,
    /// and a wake that lands mid-run (DIRTY) must never be lost.
    #[test]
    fn task_machine_survives_randomized_stealing_interleavings() {
        let _timing = TIMING.lock();
        const WAKERS: u64 = 4;
        const WAKES_PER_THREAD: u64 = 20_000;
        let rt = ReactorRuntime::new(ReactorConfig {
            workers: 4,
            ..ReactorConfig::default()
        });
        let pending = Arc::new(AtomicU64::new(0));
        let runs = Arc::new(AtomicU64::new(0));
        let task = new_task(
            0,
            false,
            ProbeRunner {
                pending: Arc::clone(&pending),
                runs: Arc::clone(&runs),
                overlap: Arc::new(AtomicBool::new(false)),
            },
        );
        let mut handles = Vec::new();
        for t in 0..WAKERS {
            let core = Arc::clone(&rt.core);
            let task = Arc::clone(&task);
            let pending = Arc::clone(&pending);
            handles.push(std::thread::spawn(move || {
                // Fixed per-thread seed: the interleaving pressure pattern
                // (yield points) is reproducible run to run.
                let mut seed = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for _ in 0..WAKES_PER_THREAD {
                    pending.fetch_add(1, Ordering::SeqCst);
                    core.wake(&task);
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    if seed % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Quiesce: the final wake must still force a run that drains the
        // counter — if a racing DIRTY wake were dropped, `pending` would
        // stay non-zero forever.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pending.load(Ordering::SeqCst) != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            pending.load(Ordering::SeqCst),
            0,
            "wake lost: pending never drained after {} runs",
            runs.load(Ordering::SeqCst)
        );
        let total_runs = runs.load(Ordering::SeqCst);
        assert!(total_runs >= 1, "task never ran");
        assert!(
            total_runs <= WAKERS * WAKES_PER_THREAD,
            "more runs ({total_runs}) than wakes ({}): task was double-queued",
            WAKERS * WAKES_PER_THREAD
        );
        assert_eq!(
            task.state.load(Ordering::SeqCst),
            IDLE,
            "task did not settle back to IDLE"
        );
    }

    /// Builds a [`ProbeRunner`] task homed on `home`; returns the task
    /// and its `pending` wake counter.
    fn probe_task(home: usize, blocking: bool) -> (Arc<Task>, Arc<AtomicU64>) {
        let pending = Arc::new(AtomicU64::new(0));
        let task = new_task(
            home,
            blocking,
            ProbeRunner {
                pending: Arc::clone(&pending),
                runs: Arc::new(AtomicU64::new(0)),
                overlap: Arc::new(AtomicBool::new(false)),
            },
        );
        (task, pending)
    }

    /// Waits until a run of the probe has drained `pending`; returns how
    /// long that took.
    fn await_drained(pending: &AtomicU64, limit: Duration, what: &str) -> Duration {
        let start = Instant::now();
        while pending.load(Ordering::SeqCst) != 0 {
            assert!(start.elapsed() < limit, "{what}: not run within {limit:?}");
            std::thread::yield_now();
        }
        start.elapsed()
    }

    fn await_all_parked(core: &Core) {
        let start = Instant::now();
        while !core
            .workers
            .iter()
            .all(|wq| wq.parker.idle.load(Ordering::SeqCst))
        {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "workers did not all go back to sleep"
            );
            std::thread::yield_now();
        }
    }

    /// The announce–re-check–park protocol under fire: no worker has any
    /// reason to wake other than an unpark or a deadline it was told of,
    /// so one lost wake or one unannounced deadline is a stall. Every
    /// pusher and armer waits for each of its wakes to run before making
    /// the next, which sends the workers through their park entry as
    /// often as possible. Three phases — pushes alone, pushes and
    /// deadlines together, deadlines alone — because either kind of
    /// traffic would rescue a worker that slept through the other.
    fn lost_wake_stress(steal: bool) {
        let _timing = TIMING.lock();
        const WORKERS: usize = 4;
        const WAKES_PER_PUSHER: u64 = 20_000;
        const DEADLINES_PER_ARMER: u64 = 300;
        // Deadlines each armer still arms once the pushers have finished.
        const QUIET_DEADLINES: u64 = 50;
        const STALL: Duration = Duration::from_millis(50);
        let rt = ReactorRuntime::new(ReactorConfig {
            workers: WORKERS,
            steal,
            ..ReactorConfig::default()
        });
        let mut probes: Vec<_> = (0..WORKERS).map(|t| probe_task(t, false)).collect();
        let spawn_pushers = |probes: &[(Arc<Task>, Arc<AtomicU64>)]| -> Vec<_> {
            probes
                .iter()
                .map(|(task, pending)| {
                    let (task, pending) = (Arc::clone(task), Arc::clone(pending));
                    let core = Arc::clone(&rt.core);
                    std::thread::spawn(move || {
                        for _ in 0..WAKES_PER_PUSHER / 2 {
                            pending.fetch_add(1, Ordering::SeqCst);
                            core.wake(&task);
                            await_drained(&pending, STALL, "pushed wake");
                        }
                    })
                })
                .collect()
        };
        for h in spawn_pushers(&probes) {
            h.join().unwrap();
        }
        let pushers = spawn_pushers(&probes);
        let pushers_done = Arc::new(AtomicBool::new(false));
        let mut armers = Vec::new();
        for t in 0..WORKERS {
            let (task, pending) = probe_task(t, false);
            probes.push((Arc::clone(&task), Arc::clone(&pending)));
            let core = Arc::clone(&rt.core);
            let pushers_done = Arc::clone(&pushers_done);
            armers.push(std::thread::spawn(move || {
                let mut seed = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let (mut armed, mut quiet) = (0, 0);
                while armed < DEADLINES_PER_ARMER || quiet < QUIET_DEADLINES {
                    quiet += u64::from(pushers_done.load(Ordering::SeqCst));
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let delay = Duration::from_micros(seed % 2_000);
                    pending.fetch_add(1, Ordering::SeqCst);
                    let wake = TimerEntry::Wake(Arc::clone(&task));
                    core.arm(t, Instant::now() + delay, wake);
                    await_drained(&pending, delay + STALL, "armed deadline");
                    armed += 1;
                }
                armed
            }));
        }
        for h in pushers {
            h.join().unwrap();
        }
        pushers_done.store(true, Ordering::SeqCst);
        let armed: u64 = armers.into_iter().map(|h| h.join().unwrap()).sum();
        await_all_parked(&rt.core);
        for (task, _) in &probes {
            assert_eq!(task.state.load(Ordering::SeqCst), IDLE);
        }
        let stats = rt.scheduler_stats();
        let fired: u64 = stats.iter().map(|w| w.timer_fires).sum();
        assert_eq!(fired, armed);
    }

    #[test]
    fn no_wake_or_deadline_is_lost_without_an_idle_poll() {
        // Stealing off: nothing but the owner's own wake-up can serve a
        // push or a deadline, so a lost one cannot be papered over.
        lost_wake_stress(false);
    }

    #[test]
    fn no_wake_or_deadline_is_lost_with_stealing_siblings() {
        lost_wake_stress(true);
    }

    #[test]
    fn earlier_deadline_armed_from_outside_cuts_the_owners_sleep_short() {
        let _timing = TIMING.lock();
        let rt = ReactorRuntime::new(ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        });
        let (far, _) = probe_task(0, false);
        let (near, pending) = probe_task(0, false);
        rt.core.arm(
            0,
            Instant::now() + Duration::from_millis(200),
            TimerEntry::Wake(far),
        );
        // The owner is asleep towards the 200 ms deadline once it has
        // announced itself and slept at least once.
        await_all_parked(&rt.core);
        while rt.scheduler_stats()[0].parks == 0 {
            std::thread::yield_now();
        }
        pending.fetch_add(1, Ordering::SeqCst);
        rt.core.arm(
            0,
            Instant::now() + Duration::from_millis(1),
            TimerEntry::Wake(near),
        );
        let took = await_drained(&pending, Duration::from_millis(100), "near deadline");
        assert!(took < Duration::from_millis(10), "fired after {took:?}");
    }

    /// Occupies whichever worker runs it: reports that worker, then
    /// sleeps.
    struct StallRunner {
        started: Sender<usize>,
        hold: Duration,
    }

    impl TaskRunner for StallRunner {
        fn run(&mut self, core: &Core, _task: &Arc<Task>, _depth: usize) -> bool {
            let _ = self
                .started
                .send(core.current_worker().expect("on a worker"));
            std::thread::sleep(self.hold);
            false
        }
    }

    /// Arms a 1 ms deadline on the shard of a worker that is 20 ms into a
    /// handler, with one idle sibling; returns how long the deadline's
    /// task took to run.
    fn deadline_behind_a_stuck_owner(steal: bool) -> Duration {
        let _timing = TIMING.lock();
        let rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            steal,
            ..ReactorConfig::default()
        });
        let (started, on) = unbounded();
        let stall = new_task(
            0,
            false,
            StallRunner {
                started,
                hold: Duration::from_millis(20),
            },
        );
        let (probe, pending) = probe_task(0, false);
        await_all_parked(&rt.core);
        rt.core.wake(&stall);
        let owner = on.recv().expect("stall task started");
        pending.fetch_add(1, Ordering::SeqCst);
        rt.core.arm(
            owner,
            Instant::now() + Duration::from_millis(1),
            TimerEntry::Wake(probe),
        );
        await_drained(&pending, Duration::from_millis(200), "deadline")
    }

    #[test]
    fn idle_sibling_fires_the_deadline_of_an_owner_stuck_in_a_handler() {
        let took = deadline_behind_a_stuck_owner(true);
        assert!(took < Duration::from_millis(5), "fired after {took:?}");
    }

    #[test]
    fn without_stealing_a_stuck_owners_deadline_waits_for_the_handler() {
        let took = deadline_behind_a_stuck_owner(false);
        assert!(took >= Duration::from_millis(15), "fired after {took:?}");
    }

    /// Runs at depth 0 on its worker, wakes `inner` (into the LIFO slot)
    /// and runs it from a helper at depth 2.
    struct NestRunner {
        inner: Arc<Task>,
    }

    impl TaskRunner for NestRunner {
        fn run(&mut self, core: &Core, _task: &Arc<Task>, _depth: usize) -> bool {
            core.wake(&self.inner);
            assert!(core.try_run_one(2));
            false
        }
    }

    /// Wakes a module task, then keeps its worker for a while.
    struct WakeThenStall {
        target: Arc<Task>,
        pending: Arc<AtomicU64>,
        woke_at: Sender<Instant>,
    }

    impl TaskRunner for WakeThenStall {
        fn run(&mut self, core: &Core, _task: &Arc<Task>, _depth: usize) -> bool {
            self.pending.fetch_add(1, Ordering::SeqCst);
            let _ = self.woke_at.send(Instant::now());
            core.wake(&self.target);
            std::thread::sleep(Duration::from_millis(20));
            false
        }
    }

    #[test]
    fn module_task_woken_from_a_deep_helper_goes_to_an_idle_sibling() {
        let _timing = TIMING.lock();
        let rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        // Blocking-capable, like a module task: at depth 2 > HELP_DEPTH
        // the worker that woke it cannot run it.
        let (module, pending) = probe_task(0, true);
        let (woke_at, woke) = unbounded();
        let inner = new_task(
            0,
            false,
            WakeThenStall {
                target: module,
                pending: Arc::clone(&pending),
                woke_at,
            },
        );
        let outer = new_task(0, false, NestRunner { inner });
        await_all_parked(&rt.core);
        rt.core.wake(&outer);
        let woke_at = woke.recv().expect("inner task ran");
        await_drained(&pending, Duration::from_millis(200), "module task");
        let took = woke_at.elapsed();
        assert!(took < Duration::from_millis(5), "ran after {took:?}");
    }

    #[test]
    fn idle_fleet_parks_once_per_event_not_on_a_poll() {
        let (modules, services) = registries();
        let mut rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        for i in 0..100 {
            let config = RuntimeConfig {
                fps: 1.0,
                ..RuntimeConfig::default()
            };
            rt.add_pipeline(
                &single_device_plan(&format!("idle{i}")),
                &modules,
                &services,
                config,
            )
            .unwrap();
        }
        let reports = rt.run_for(Duration::from_millis(300));
        let ticks: u64 = reports.iter().map(|r| r.metrics.frames_offered).sum();
        let parks: u64 = reports[0].scheduler.iter().map(|w| w.parks).sum();
        assert!(ticks >= 100, "{ticks} ticks");
        // A 500 µs idle poll alone would be 2 × 600 parks.
        assert!(
            parks <= 2 * ticks + 2 * 2 + 10,
            "{parks} parks, {ticks} ticks"
        );
    }

    /// Re-arms itself every `interval` and records how late each firing
    /// ran.
    struct LatenessRunner {
        due: Instant,
        interval: Duration,
        rearm: Rearm,
        late_us: Arc<Mutex<Vec<u64>>>,
    }

    impl TaskRunner for LatenessRunner {
        fn run(&mut self, core: &Core, task: &Arc<Task>, _depth: usize) -> bool {
            let now = Instant::now();
            while now >= self.due {
                self.late_us
                    .lock()
                    .push((now - self.due).as_micros() as u64);
                self.due += self.interval;
            }
            self.rearm.ensure(core, task, self.due);
            false
        }
    }

    #[test]
    fn one_khz_deadlines_fire_without_the_kernels_timer_slack() {
        let _timing = TIMING.lock();
        let rt = ReactorRuntime::new(ReactorConfig {
            workers: 2,
            ..ReactorConfig::default()
        });
        let late_us = Arc::new(Mutex::new(Vec::new()));
        let task = new_task(
            0,
            false,
            LatenessRunner {
                due: Instant::now() + Duration::from_millis(1),
                interval: Duration::from_millis(1),
                rearm: Rearm::default(),
                late_us: Arc::clone(&late_us),
            },
        );
        rt.core.wake(&task);
        let start = Instant::now();
        while late_us.lock().len() < 500 {
            assert!(start.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut late = late_us.lock().clone();
        late.sort_unstable();
        let median = late[late.len() / 2];
        // With the kernel's default 50 µs timer slack on the worker's park
        // the median read 73–109 µs; with 1 ns slack what is left is the
        // time the scheduler (on a VM, the host) takes to run the woken
        // thread: 25–55 µs idle, less on a busy machine.
        assert!(median < 100, "median lateness {median} µs");
    }

    // Only the Linux build sets the slack; elsewhere the call is a no-op.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod timer_slack {
        use super::*;

        /// Timer slack of thread `tid`, from procfs; `None` once it has exited.
        fn timer_slack_ns(tid: &str) -> Option<u64> {
            std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns"))
                .ok()?
                .trim()
                .parse()
                .ok()
        }

        /// The calling thread's own id, from the `<pid>/task/<tid>` link.
        fn own_tid() -> String {
            let link = std::fs::read_link("/proc/thread-self").expect("procfs mounted");
            link.file_name().unwrap().to_string_lossy().into_owned()
        }

        /// Ids of this process's threads whose name is `name`.
        fn threads_named(name: &str) -> Vec<String> {
            std::fs::read_dir("/proc/self/task")
                .expect("procfs mounted")
                .filter_map(|entry| {
                    let tid = entry.ok()?.file_name().to_string_lossy().into_owned();
                    let comm =
                        std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
                    (comm.trim_end() == name).then_some(tid)
                })
                .collect()
        }

        /// Records the slack of whichever worker runs it.
        struct SlackProbe(std::sync::mpsc::Sender<u64>);

        impl TaskRunner for SlackProbe {
            fn run(&mut self, _core: &Core, _task: &Arc<Task>, _depth: usize) -> bool {
                let _ = self.0.send(timer_slack_ns(&own_tid()).unwrap_or(0));
                false
            }
        }

        #[test]
        fn reactor_threads_run_with_one_nanosecond_timer_slack() {
            let _wire = TCP_WIRE.lock();
            let own = timer_slack_ns(&own_tid()).expect("own slack readable");
            let io_before = threads_named("vp-reactor-io");
            let (modules, services) = registries();
            // No stealing: each probe runs on the worker it is homed on.
            let mut rt = ReactorRuntime::new(ReactorConfig {
                workers: 2,
                steal: false,
                ..ReactorConfig::default()
            });
            // A task on each worker reads its own slack.
            let (tx, rx) = std::sync::mpsc::channel();
            for worker in 0..2 {
                let probe = new_task(worker, false, SlackProbe(tx.clone()));
                rt.core.wake(&probe);
            }
            for _ in 0..2 {
                let slack = rx.recv_timeout(Duration::from_secs(5)).expect("probe ran");
                assert_eq!(slack, 1, "a reactor worker kept the default slack");
            }
            // The I/O thread names itself and sets its slack as it starts:
            // poll until every one that appeared with this runtime (a
            // parallel test may add its own) reads 1.
            rt.add_pipeline(
                &two_device_plan("slack"),
                &modules,
                &services,
                quiet_tcp_config(),
            )
            .unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let slacks: Vec<u64> = threads_named("vp-reactor-io")
                    .iter()
                    .filter(|tid| !io_before.contains(tid))
                    .filter_map(|tid| timer_slack_ns(tid))
                    .collect();
                if !slacks.is_empty() && slacks.iter().all(|&ns| ns == 1) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "new I/O threads' slack: {slacks:?} ns"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // Threads outside the reactor keep theirs.
            assert_eq!(timer_slack_ns(&own_tid()), Some(own));
        }
    }
}
