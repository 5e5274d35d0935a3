//! One run of one workload: set-up, warm-up, measured windows, teardown,
//! output checks, and the metrics computed from what was collected.

use crate::budget::{Budget, Layer};
use crate::cells::{self, Cells};
use crate::contract;
use crate::env::{self, Kept, Mark, Window};
use crate::stats;
use crate::trace::{self, name_id, Span};
use crate::workloads::{self, Checks, Deployment, Inputs, Purpose, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};
use videopipe_core::runtime::RunReport;
use videopipe_net::telemetry::{self, NetCounters};

/// Set-ups timed once the measured deployment is gone; `setup_s` is their
/// median (`relay_fleet`: 34 to 41 ms each, the median of a run 36 to
/// 40 ms).
///
/// They come after the measured deployment, not before it, because a
/// deployment's memory is not given back when it is torn down (some 17 MB
/// per thousand relay pipelines): set-ups made first would be counted in
/// `peak_rss_mb`.
const SETUPS: usize = 16;
const WARMUP: Duration = Duration::from_secs(2);
const WINDOW: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Clean 1 s windows to collect.
    pub seconds: usize,
    pub traced: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics by name; only names declared in [`contract`] can be put.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        let unit = contract::unit_of(name);
        self.0.insert(name.into(), Metric { value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }
}

pub struct RunResult {
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one.
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check held.
    pub correct: bool,
    pub disturbed: bool,
    /// Human-readable findings: failed checks, sample counts, the budget.
    pub notes: Vec<String>,
}

/// What one clean window saw.
struct WindowStats {
    fps: f64,
    p50_ms: f64,
    cpu_ms_per_frame: f64,
}

impl WindowStats {
    /// `samples` are `(done, latency)` in ns, sorted by `done`. `None` for a
    /// window in which no frame was done.
    fn of(window: &Window, samples: &[(u64, u64)]) -> Option<Self> {
        let mut latency: Vec<u64> = window.samples(samples).iter().map(|&(_, l)| l).collect();
        latency.sort_unstable();
        let frames = latency.len();
        Some(WindowStats {
            fps: frames as f64 * 1e9 / (window.end_ns - window.start_ns) as f64,
            p50_ms: stats::percentile(&latency, 50.0)? as f64 / 1e6,
            cpu_ms_per_frame: window.cpu_ms / frames as f64,
        })
    }
}

/// Deploys and waits until every tenant has delivered a frame. Waiting for
/// the first frame of any tenant would stop the clock while the workers
/// still owe the first frames of most of a fleet, and how many depends on
/// how the kernel shared the CPU between them and the deploying thread:
/// `relay_fleet` then set up in 23 to 52 ms. Up to the last tenant's first
/// frame the work is the same however it was interleaved.
fn set_up(
    workload: &Workload,
    inputs: &Inputs,
    purpose: Purpose,
) -> Result<(Deployment, f64), String> {
    let start = Instant::now();
    let deployment =
        workloads::deploy(workload, inputs, purpose).map_err(|e| format!("deploy failed: {e}"))?;
    while deployment.collector.tenants_delivered() < workload.tenants {
        if start.elapsed() > Duration::from_secs(30) {
            return Err("a tenant delivered no frame within 30 s of deployment".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((deployment, start.elapsed().as_secs_f64()))
}

/// Times [`SETUPS`] set-ups, tearing each down.
fn time_set_ups(workload: &Workload, inputs: &Inputs) -> Result<Vec<f64>, String> {
    (0..SETUPS)
        .map(|_| {
            let (deployment, seconds) = set_up(workload, inputs, Purpose::TimeSetUp)?;
            deployment.runtime.finish();
            Ok(seconds)
        })
        .collect()
}

/// Sleeps through 1 s windows until `wanted` of them are clean or the run
/// has lasted a quarter again as long as asked (92 driver runs, every one
/// of them extended, must still fit in 57 minutes).
fn measure(wanted: usize) -> Vec<Window> {
    let mut windows = Vec::new();
    let mut last = Mark::now();
    let mut clean = 0;
    while clean < wanted && windows.len() < wanted + wanted.div_ceil(4) {
        std::thread::sleep(WINDOW);
        let mark = Mark::now();
        let window = Window::between(&last, &mark);
        clean += usize::from(window.clean());
        windows.push(window);
        last = mark;
    }
    windows
}

pub fn run(workload: &Workload, opts: RunOpts) -> Result<RunResult, String> {
    let inputs = Inputs::generate(workload, opts.seed);
    let cells = opts.traced.then(|| cells::run(workload, &inputs));

    let net_before = telemetry::snapshot();
    let purpose = if opts.traced {
        Purpose::Trace
    } else {
        Purpose::Measure
    };
    let (
        Deployment {
            runtime,
            collector,
            checks,
            topology,
        },
        _,
    ) = set_up(workload, &inputs, purpose)?;

    std::thread::sleep(WARMUP);
    let windows = measure(opts.seconds);
    let reports = runtime.finish();
    let net = telemetry::snapshot().delta_since(&net_before);
    let peak_rss_mb = env::peak_rss_mb();
    // A traced run reports no set-up time.
    let mut setup_s = if opts.traced {
        Vec::new()
    } else {
        time_set_ups(workload, &inputs)?
    };

    let kept = env::keep_clean(&windows, opts.seconds);
    let sinks = collector.take_sinks();
    let mut samples: Vec<(u64, u64)> = sinks.iter().flat_map(|s| s.latencies()).collect();
    samples.sort_unstable();
    let per_window: Vec<WindowStats> = kept
        .windows
        .iter()
        .filter_map(|w| WindowStats::of(w, &samples))
        .collect();

    let mut result = RunResult {
        metrics: Metrics::default(),
        attempted: reports.iter().map(|r| r.metrics.frames_admitted).sum(),
        failed: 0,
        correct: true,
        disturbed: kept.disturbed,
        notes: Vec::new(),
    };
    check_outputs(workload, &reports, &checks, &mut result);
    if per_window.is_empty() {
        return Err("no frame was delivered in a kept window".into());
    }
    result.notes.push(format!(
        "steal % per window: {}",
        windows
            .iter()
            .map(|w| format!("{:.1}", w.steal * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if kept.disturbed {
        result.notes.push(format!(
            "DISTURBED: {} clean windows of {} wanted in {} (steal {:.1} %); the numbers are not clean",
            windows.iter().filter(|w| w.clean()).count(),
            opts.seconds,
            windows.len(),
            kept.steal_pct
        ));
    }

    // Every figure is taken per window and the median window is reported:
    // a burst the noise guard cannot see (10 ms stolen is 1 % of a second)
    // then spoils one window, not the run.
    let median_of = |f: fn(&WindowStats) -> f64| {
        let mut values: Vec<f64> = per_window.iter().map(f).collect();
        stats::median(&mut values)
    };
    let p50_ms = median_of(|w| w.p50_ms);
    let fps = median_of(|w| w.fps);
    // The tail is printed, not gated: on a shared 2-vCPU host the p99 of
    // identical code moved by a factor of four between runs.
    let mut pooled: Vec<u64> = kept
        .windows
        .iter()
        .flat_map(|w| w.samples(&samples).iter().map(|&(_, latency)| latency))
        .collect();
    pooled.sort_unstable();
    let p99_ms = stats::percentile(&pooled, 99.0).expect("nonempty") as f64 / 1e6;
    let cpu_ms_per_frame = median_of(|w| w.cpu_ms_per_frame);
    result.notes.push(format!(
        "medians over {} kept windows; {cpu_ms_per_frame:.4} CPU-ms per frame; pooled {} samples: p99 {p99_ms:.3} ms ({} beyond it)",
        per_window.len(),
        pooled.len(),
        stats::samples_beyond(pooled.len(), 99.0),
    ));

    if opts.traced {
        result.metrics.put("trace.traced_latency_p50_ms", p50_ms);
        result.metrics.put("trace.traced_latency_p99_ms", p99_ms);
        result.metrics.put("trace.traced_delivered_fps", fps);
        result
            .metrics
            .put("trace.traced_cpu_ms_per_frame", cpu_ms_per_frame);
        let spans = collector.take_spans();
        let (budget, spans) = Budget::build(spans, &sinks, &topology);
        layer_metrics(
            workload,
            &reports,
            &net,
            &budget,
            cells.as_ref().expect("traced runs have cells"),
            &kept,
            &mut result,
        );
        write_trace(workload, &spans, &mut result.notes);
    } else {
        result.notes.push(format!("set-ups took {setup_s:.4?} s"));
        let m = &mut result.metrics;
        m.put("latency_p50_ms", p50_ms);
        m.put("delivered_fps", fps);
        m.put("peak_rss_mb", peak_rss_mb);
        m.put("setup_s", stats::median(&mut setup_s));
    }
    Ok(result)
}

/// Counts failed operations and decides `correct`.
fn check_outputs(
    workload: &Workload,
    reports: &[RunReport],
    checks: &Checks,
    result: &mut RunResult,
) {
    // `(failed operations, what failed)`; any entry makes the run incorrect.
    let mut failures: Vec<(u64, String)> = Vec::new();
    let faulted: u64 = reports.iter().map(|r| r.metrics.frames_faulted).sum();
    failures.push((faulted, format!("{faulted} frames faulted")));
    let errors: Vec<&String> = reports.iter().flat_map(|r| &r.errors).collect();
    failures.push((
        errors.len() as u64,
        format!(
            "{} handler errors, first: {:?}",
            errors.len(),
            errors.first()
        ),
    ));
    let service_errors = service_failures(reports);
    failures.push((service_errors, format!("{service_errors} service errors")));
    let unbalanced = reports
        .iter()
        .filter(|r| !r.metrics.credits_balanced())
        .count() as u64;
    failures.push((
        unbalanced,
        format!("{unbalanced} pipelines leaked a credit"),
    ));
    let relay_wrong = checks.relay_wrong.load(Relaxed);
    failures.push((
        relay_wrong,
        format!("{relay_wrong} relay payloads were not 2 x tick"),
    ));

    let sum = |f: fn(&workloads::DisplayLog) -> u64| -> u64 {
        checks.displays.iter().map(|d| f(d)).sum()
    };
    let labelled = sum(|d| d.labelled.load(Relaxed));
    let mislabelled = sum(|d| d.mislabelled.load(Relaxed));
    let malformed = sum(|d| d.malformed.load(Relaxed));
    failures.push((
        malformed,
        format!("{malformed} renders without label and count"),
    ));
    if workload.app != workloads::App::Relay && labelled == 0 {
        failures.push((1, "the display never saw a classified frame".into()));
    }
    // Every frame rendered once the classifier's window has filled should
    // say "squat". Each one that does not is a failed operation; the run
    // stays correct while at least 95 % do.
    if mislabelled * 20 > labelled {
        failures.push((
            mislabelled,
            format!("{mislabelled} of {labelled} labelled frames were not squat (> 5 %)"),
        ));
    } else {
        result.failed += mislabelled;
    }

    // The ring holds one squat, and the rep counter spends its first
    // squat calibrating: the count shown last should be one less than the
    // squats replayed, give or take one.
    for (tenant, display) in checks.displays.iter().enumerate() {
        let squats = display.rendered.load(Relaxed) as f64 / workloads::RING_FRAMES as f64;
        let reps = display.reps.load(Relaxed) as f64;
        if (reps - (squats - 1.0)).abs() > 1.0 {
            failures.push((
                1,
                format!("tenant {tenant} counted {reps} reps in {squats:.1} squats"),
            ));
        }
    }

    for (count, what) in failures.into_iter().filter(|(count, _)| *count > 0) {
        result.failed += count;
        result.correct = false;
        result.notes.push(format!("FAILED CHECK: {what}"));
    }
}

/// Requests a service answered with an error: the runtime logs each as
/// `service <name>: <error>`.
fn service_failures(reports: &[RunReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| &r.logs)
        .filter(|l| l.starts_with("service "))
        .count() as u64
}

/// Fills in every per-layer metric. Timed ones (T) come from the spans of
/// the traced run, counters (C) from the program's public counters over
/// the deployment's whole life divided by the frames it delivered, cells
/// (M) from [`cells`].
fn layer_metrics(
    workload: &Workload,
    reports: &[RunReport],
    net: &NetCounters,
    budget: &Budget,
    cells: &Cells,
    kept: &Kept,
    result: &mut RunResult,
) {
    let mut put = |name: &str, value: f64| result.metrics.put(name, value);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // M: micro-cells.
    put("media.source.capture_us", cells.capture_us);
    put("media.codec.encode_us", cells.encode_us);
    put("media.codec.decode_us", cells.decode_us);
    put("media.codec.encoded_bytes", cells.encoded_bytes);
    put("net.inproc.hop_us", cells.inproc_hop_us);
    put("net.tcp.hop_us", cells.tcp_hop_us);
    put("net.wire.allocs_per_frame", cells.wire_allocs_per_frame);

    // T: spans.
    for service in [
        "pose_detector",
        "activity_classifier",
        "rep_counter",
        "display",
        "double",
    ] {
        let busy = budget
            .busy_ns
            .get(&name_id(service))
            .map_or(0.0, |ns| stats::median_us(ns));
        put(&format!("ml.{service}.busy_us"), busy);
    }
    for module in [
        "video_streaming",
        "pose_detection",
        "activity_recognition",
        "rep_counter",
        "display",
        "src",
        "work",
        "sink",
    ] {
        put(
            &format!("apps.{module}.self_us"),
            budget.median_us(Layer::ModuleSelf(name_id(module))),
        );
    }
    put("apps.send_us", budget.median_us(Layer::Send));
    put("core.flow.tick_lag_us", budget.median_us(Layer::TickLag));
    put(
        "core.flow.admit_wait_us",
        budget.median_us(Layer::AdmitWait),
    );
    put("core.service.call_us", budget.service_call_us());
    put("core.service.wait_us", budget.median_us(Layer::ServiceWait));
    put(
        "core.reactor.edge_transit_inproc_us",
        budget.median_us(Layer::TransitInproc),
    );
    put(
        "net.tcp.edge_transit_us",
        budget.median_us(Layer::TransitTcp),
    );
    put("trace.budget_coverage", budget.coverage());
    put(
        "trace.frames_reconstructed_ratio",
        ratio(budget.paths.len() as f64, budget.signalled as f64),
    );

    // C: public counters.
    let life_delivered: f64 = reports
        .iter()
        .map(|r| r.metrics.frames_delivered as f64)
        .sum();
    let offered: f64 = reports
        .iter()
        .map(|r| r.metrics.frames_offered as f64)
        .sum();
    let refused: f64 = reports
        .iter()
        .map(|r| r.metrics.frames_dropped as f64)
        .sum();
    let life_s = reports
        .iter()
        .map(|r| r.metrics.run_duration_ns)
        .max()
        .unwrap_or(0) as f64
        / 1e9;
    put("core.flow.offered", offered);
    put("core.flow.refused_ratio", ratio(refused, offered));
    put(
        "core.flow.generator_lag_ratio",
        ratio(offered, workload.fps * life_s * workload.tenants as f64),
    );
    let dispatch: Vec<_> = reports
        .iter()
        .flat_map(|r| r.metrics.dispatch.values())
        .collect();
    let requests: f64 = dispatch.iter().map(|d| d.requests as f64).sum();
    let batches: f64 = dispatch.iter().map(|d| d.batches as f64).sum();
    put(
        "core.service.requests_per_frame",
        ratio(requests, life_delivered),
    );
    put(
        "core.service.max_queue_depth",
        dispatch
            .iter()
            .map(|d| d.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    put("core.service.mean_batch", ratio(requests, batches));
    put("core.service.failed", service_failures(reports) as f64);
    // Scheduler counters are runtime-wide; every report carries the same
    // snapshot.
    let sched = reports
        .first()
        .map(|r| r.scheduler.as_slice())
        .unwrap_or_default();
    let per_frame = |f: fn(&videopipe_core::metrics::WorkerSchedStats) -> u64| {
        ratio(sched.iter().map(|w| f(w) as f64).sum(), life_delivered)
    };
    put("core.reactor.tasks_per_frame", per_frame(|w| w.tasks_run));
    put("core.reactor.unparks_per_frame", per_frame(|w| w.unparks));
    put(
        "core.reactor.steals_per_frame",
        per_frame(|w| w.steals_succeeded),
    );
    put(
        "core.reactor.timer_fires_per_frame",
        per_frame(|w| w.timer_fires),
    );
    put(
        "core.reactor.queue_high_water",
        sched.iter().map(|w| w.queue_high_water).max().unwrap_or(0) as f64,
    );
    put(
        "net.tcp.tx_frames_per_frame",
        ratio(net.tx_frames as f64, life_delivered),
    );
    put(
        "net.tcp.frames_per_write",
        ratio(net.tx_frames as f64, net.tx_vectored_writes as f64),
    );
    put("net.wire.rx_payload_copies", net.rx_payload_copies as f64);
    put(
        "net.pool.miss_ratio",
        ratio(
            net.pool_misses as f64,
            (net.pool_misses + net.pool_reclaimed) as f64,
        ),
    );

    put("env.nproc", env::nproc() as f64);
    put("env.steal_pct", kept.steal_pct);
    put("env.windows_discarded", kept.discarded as f64);

    result.notes.push(format!(
        "budget from {} of {} traced frames ({} tenant(s) in {} traced); coverage {:.3}",
        budget.paths.len(),
        budget.signalled,
        workload.tenants.div_ceil(workload.trace_every),
        workload.tenants,
        budget.coverage()
    ));
    for (layer, mean_us, share) in budget.shares() {
        result.notes.push(format!(
            "  {:<40} {:>10.1} us/frame {:>6.1} %",
            layer.name(),
            mean_us,
            share * 100.0
        ));
    }
}

/// Writes the lowest traced tenant's first spans next to the build
/// outputs, as `vpbench/trace-<workload>.json` under the target directory.
fn write_trace(workload: &Workload, spans: &[Span], notes: &mut Vec<String>) {
    const MAX_SPANS: usize = 20_000;
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("vpbench")))
    else {
        return;
    };
    let mut out = format!(
        "{{\"workload\":\"{}\",\"clock\":\"ns\",\"spans\":[\n",
        workload.name
    );
    let mut written = 0;
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.tenant == 0) {
        if written == MAX_SPANS {
            break;
        }
        if written > 0 {
            out.push_str(",\n");
        }
        written += 1;
        let parent = if s.parent == trace::NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"id\":{id},\"kind\":\"{}\",\"name\":\"{}\",\"peer\":\"{}\",\"tenant\":{},\"frame_seq\":{},\"start\":{},\"end\":{},\"parent\":{parent}}}",
            s.kind.label(),
            trace::NAMES[s.who as usize],
            trace::NAMES[s.peer as usize],
            s.tenant,
            s.seq,
            s.start,
            s.end,
        ));
    }
    out.push_str("\n]}\n");
    let path = dir.join(format!("trace-{}.json", workload.name));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
        Ok(()) => notes.push(format!("{written} spans written to {}", path.display())),
        Err(e) => notes.push(format!("trace not written to {}: {e}", path.display())),
    }
}
