//! The `videopipe` command-line tool: run the built-in applications,
//! validate pipeline configurations, and inspect placements.
//!
//! ```text
//! videopipe apps
//! videopipe run fitness --arch baseline --fps 30 --duration 20
//! videopipe run gesture --gesture wave --runtime reactor
//! videopipe run fitness --runtime reactor --transport tcp
//! videopipe validate my_pipeline.vpc
//! videopipe placement
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use videopipe::apps::{fall, fitness, gesture, retail, IotHub};
use videopipe::apps::{run_fitness, Arch, ExperimentConfig};
use videopipe::core::deploy::{autoplace_pinned, estimate_latency, plan, Placement};
use videopipe::core::prelude::*;
use videopipe::core::runtime::EdgeTransport;
use videopipe::media::motion::ExerciseKind;
use videopipe::sim::{Scenario, SimProfile};

const USAGE: &str = "\
videopipe — video stream processing pipelines at the edge

USAGE:
    videopipe apps                       list the built-in applications
    videopipe run <app> [options]        run an application
    videopipe validate <config-file>     parse + validate a pipeline config
    videopipe placement                  modeled placements for the fitness app

RUN OPTIONS:
    --arch <videopipe|baseline>   topology (fitness only; default videopipe)
    --fps <rate>                  source frame rate (default 30)
    --duration <seconds>          run length (default 15)
    --credits <n>                 flow-control credits (default 1)
    --runtime <sim|reactor>       simulator or the event-driven worker pool
                                  (default sim)
    --transport <inproc|tcp>      cross-device edges in-process or over
                                  loopback TCP (reactor; default inproc)
    --gesture <wave|clap|idle>    gesture app motion (default clap)
    --pose-instances <n>          pose service pool size (sim only)
    --seed <n>                    RNG seed (default 42)
    --slo <ms>                    defend a p99 latency SLO with the app's
                                  degradation lattice (default off)
";

/// What `run` executes the pipeline on: the runtime, or the simulator
/// replaying the module/service code in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The discrete-event simulator (modeled time).
    Sim,
    /// `ReactorRuntime`: tasks on a worker pool sized to cores.
    Reactor,
}

struct Options {
    arch: Arch,
    fps: f64,
    duration: Duration,
    credits: u32,
    engine: Engine,
    transport: EdgeTransport,
    gesture: ExerciseKind,
    pose_instances: usize,
    seed: u64,
    slo: Option<Duration>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            arch: Arch::VideoPipe,
            fps: 30.0,
            duration: Duration::from_secs(15),
            credits: 1,
            engine: Engine::Sim,
            transport: EdgeTransport::Inproc,
            gesture: ExerciseKind::Clap,
            pose_instances: 1,
            seed: 42,
            slo: None,
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--arch" => {
                opts.arch = match value()?.as_str() {
                    "videopipe" => Arch::VideoPipe,
                    "baseline" => Arch::Baseline,
                    other => return Err(format!("unknown arch {other:?}")),
                }
            }
            "--fps" => {
                opts.fps = value()?
                    .parse()
                    .map_err(|_| "--fps needs a number".to_string())?;
                if !(opts.fps.is_finite() && opts.fps > 0.0) {
                    return Err("--fps must be positive".into());
                }
            }
            "--duration" => {
                let secs: f64 = value()?
                    .parse()
                    .map_err(|_| "--duration needs seconds".to_string())?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err("--duration must be positive".into());
                }
                opts.duration = Duration::from_secs_f64(secs);
            }
            "--credits" => {
                opts.credits = value()?
                    .parse()
                    .map_err(|_| "--credits needs an integer".to_string())?;
                if opts.credits == 0 {
                    return Err("--credits must be at least 1".into());
                }
            }
            "--runtime" => {
                opts.engine = match value()?.as_str() {
                    "sim" => Engine::Sim,
                    "reactor" => Engine::Reactor,
                    other => return Err(format!("unknown runtime {other:?}")),
                }
            }
            "--transport" => {
                opts.transport = match value()?.as_str() {
                    "inproc" => EdgeTransport::Inproc,
                    "tcp" => EdgeTransport::Tcp,
                    other => return Err(format!("unknown transport {other:?}")),
                }
            }
            "--gesture" => {
                let g = value()?;
                opts.gesture = ExerciseKind::from_label(&g)
                    .filter(|k| ExerciseKind::GESTURES.contains(k))
                    .ok_or_else(|| format!("unknown gesture {g:?} (wave|clap|idle)"))?;
            }
            "--pose-instances" => {
                opts.pose_instances = value()?
                    .parse()
                    .map_err(|_| "--pose-instances needs an integer".to_string())?;
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--slo" => {
                let ms: f64 = value()?
                    .parse()
                    .map_err(|_| "--slo needs milliseconds".to_string())?;
                if !(ms.is_finite() && ms > 0.0) {
                    return Err("--slo must be positive".into());
                }
                opts.slo = Some(Duration::from_secs_f64(ms / 1e3));
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if opts.engine == Engine::Sim && opts.transport == EdgeTransport::Tcp {
        return Err("--transport tcp needs --runtime reactor".into());
    }
    Ok(opts)
}

fn print_metrics(name: &str, metrics: &PipelineMetrics) {
    println!(
        "{name}: {} frames delivered, {:.2} fps, mean latency {:.1} ms, p99 {:.1} ms, {} dropped at source",
        metrics.frames_delivered,
        metrics.fps(),
        metrics.end_to_end.mean_ms(),
        metrics.end_to_end.quantile_ns(0.99) as f64 / 1e6,
        metrics.frames_dropped,
    );
    print!("{}", metrics.latency_table());
}

fn run_sim(
    plan: &DeploymentPlan,
    modules: &ModuleRegistry,
    services: &ServiceRegistry,
    opts: &Options,
    slo: Option<SloConfig>,
) -> Result<(), String> {
    let profile = SimProfile::calibrated()
        .with_seed(opts.seed)
        .with_service_instances("pose_detector", opts.pose_instances);
    let mut scenario = Scenario::new(profile);
    let handle = scenario
        .add_pipeline(plan, modules, services, opts.fps, opts.credits)
        .map_err(|e| e.to_string())?;
    if let Some(cfg) = slo {
        scenario.enable_slo(cfg);
    }
    let report = scenario.run(opts.duration);
    for s in &report.slo {
        println!(
            "slo: {} finished at lattice level {} ({} move(s), {} flap(s))",
            s.pipeline, s.level, s.moves, s.flaps
        );
    }
    for line in report
        .logs
        .iter()
        .rev()
        .take(8)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!("  {line}");
    }
    print_metrics(&plan.pipeline.name, report.metrics(handle));
    if !report.errors.is_empty() {
        println!("errors ({}):", report.errors.len());
        for e in report.errors.iter().take(5) {
            println!("  {e}");
        }
    }
    Ok(())
}

/// Runs on real threads and sockets: `ReactorRuntime`.
fn run_real(
    plan: &DeploymentPlan,
    modules: &ModuleRegistry,
    services: &ServiceRegistry,
    opts: &Options,
    slo: Option<SloConfig>,
) -> Result<(), String> {
    let slo_enabled = slo.is_some();
    let config = RuntimeConfig {
        fps: opts.fps,
        credits: opts.credits,
        slo,
        transport: opts.transport,
        ..RuntimeConfig::default()
    };
    let mut runtime = ReactorRuntime::new(ReactorConfig::default());
    runtime
        .add_pipeline(plan, modules, services, config)
        .map_err(|e| e.to_string())?;
    println!(
        "running on the reactor ({} threads) for {:.1} s...",
        runtime.thread_count(),
        opts.duration.as_secs_f64()
    );
    // Graceful shutdown: SIGTERM/SIGINT ends the run early through the
    // same drain path as the deadline — in-flight frames complete, every
    // module takes a final checkpoint, and senders close cleanly.
    videopipe::cluster::install_termination_handler();
    let deadline = std::time::Instant::now() + opts.duration;
    while std::time::Instant::now() < deadline && !videopipe::cluster::termination_requested() {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        std::thread::sleep(left.min(Duration::from_millis(50)));
    }
    if videopipe::cluster::termination_requested() {
        println!("signal received — draining pipelines...");
    }
    let report = runtime.finish().remove(0);
    if slo_enabled {
        println!(
            "slo: finished at lattice level {} ({} move(s), {} flap(s))",
            report.slo_level, report.slo_moves, report.slo_flaps
        );
    }
    for line in report
        .logs
        .iter()
        .rev()
        .take(8)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!("  {line}");
    }
    print_metrics(&plan.pipeline.name, &report.metrics);
    if !report.errors.is_empty() {
        println!(
            "errors: {:?}",
            report.errors.iter().take(5).collect::<Vec<_>>()
        );
    }
    Ok(())
}

fn run_plan(
    plan: &DeploymentPlan,
    modules: &ModuleRegistry,
    services: &ServiceRegistry,
    opts: &Options,
    slo: Option<SloConfig>,
) -> Result<(), String> {
    match opts.engine {
        Engine::Sim => run_sim(plan, modules, services, opts, slo),
        Engine::Reactor => run_real(plan, modules, services, opts, slo),
    }
}

fn cmd_run(app: &str, opts: &Options) -> Result<(), String> {
    // Each app declares its own degradation priorities (what it can afford
    // to lose first); --slo only picks the target the lattice defends.
    let slo = opts.slo.map(|target| match app {
        "gesture" => gesture::slo_config(target),
        "fall" => fall::slo_config(target),
        "retail" => retail::slo_config(target),
        _ => fitness::slo_config(target),
    });
    match app {
        "fitness" => {
            if opts.engine != Engine::Sim || slo.is_some() {
                let plan = match opts.arch {
                    Arch::VideoPipe => fitness::videopipe_plan(),
                    Arch::Baseline => fitness::baseline_plan(),
                }
                .map_err(|e| e.to_string())?;
                run_plan(
                    &plan,
                    &fitness::module_registry(opts.seed),
                    &fitness::service_registry(opts.seed),
                    opts,
                    slo,
                )
            } else {
                let config = ExperimentConfig {
                    fps: opts.fps,
                    duration: opts.duration,
                    credits: opts.credits,
                    profile: SimProfile::calibrated()
                        .with_seed(opts.seed)
                        .with_service_instances("pose_detector", opts.pose_instances),
                    seed: opts.seed,
                };
                let run = run_fitness(&config, opts.arch).map_err(|e| e.to_string())?;
                for line in run
                    .report
                    .logs
                    .iter()
                    .rev()
                    .take(6)
                    .collect::<Vec<_>>()
                    .iter()
                    .rev()
                {
                    println!("  {line}");
                }
                print_metrics("fitness", &run.metrics);
                Ok(())
            }
        }
        "gesture" => {
            let hub = Arc::new(IotHub::new());
            let plan = gesture::videopipe_plan().map_err(|e| e.to_string())?;
            let modules = gesture::module_registry(opts.seed, opts.gesture, Arc::clone(&hub));
            let services = gesture::service_registry(opts.seed);
            run_plan(&plan, &modules, &services, opts, slo)?;
            println!(
                "IoT state after the run: light {}, doorbell {}, {} command(s)",
                if hub.light_on() { "ON" } else { "off" },
                if hub.doorbell_on() { "ON" } else { "off" },
                hub.command_count()
            );
            Ok(())
        }
        "fall" => {
            let plan = fall::videopipe_plan().map_err(|e| e.to_string())?;
            let modules = fall::module_registry(opts.seed, 1.5);
            let services = fall::service_registry();
            run_plan(&plan, &modules, &services, opts, slo)
        }
        "retail" => {
            let plan = retail::videopipe_plan().map_err(|e| e.to_string())?;
            let modules = retail::module_registry(opts.seed, retail::default_shelf());
            let services = retail::service_registry();
            run_plan(&plan, &modules, &services, opts, slo)
        }
        other => Err(format!(
            "unknown app {other:?}; `videopipe apps` lists the available ones"
        )),
    }
}

fn cmd_validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = videopipe::core::config::parse(&text).map_err(|e| e.to_string())?;
    println!(
        "pipeline {:?}: {} modules, depth {}",
        spec.name,
        spec.modules.len(),
        spec.depth()
    );
    for m in &spec.modules {
        println!(
            "  {} (include {}) services={:?} next={:?}",
            m.name, m.include, m.services, m.next_modules
        );
    }
    let services = spec.required_services();
    if !services.is_empty() {
        println!("required services: {services:?}");
    }
    println!("valid.");
    Ok(())
}

fn cmd_placement() -> Result<(), String> {
    let spec = fitness::pipeline_spec();
    let devices = fitness::devices();
    let params = SimProfile::calibrated().to_cost_params(28_000);
    println!("fitness pipeline over {{phone, desktop, tv}} — modeled per-frame latency:\n");
    for (name, placement) in [
        ("VideoPipe (Fig. 4)", fitness::videopipe_placement()),
        ("baseline (Fig. 5)", fitness::baseline_placement()),
    ] {
        let p = plan(&spec, &devices, &placement).map_err(|e| e.to_string())?;
        println!(
            "  {name:<22} {:6.1} ms  ({} remote service bindings)",
            estimate_latency(&p, &params) as f64 / 1e6,
            p.remote_binding_count()
        );
    }
    let pins = Placement::new()
        .assign("video_streaming", fitness::PHONE)
        .assign("display", fitness::TV);
    let (auto, cost) =
        autoplace_pinned(&spec, &devices, &params, &pins).map_err(|e| e.to_string())?;
    println!(
        "\nautoplace (camera pinned to phone, display to tv): {:.1} ms",
        cost as f64 / 1e6
    );
    for (module, device) in auto.iter() {
        println!("  {module:<22} -> {device}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("apps") => {
            println!("built-in applications:");
            println!("  fitness   workout guidance (paper §4.1; supports --arch baseline)");
            println!("  gesture   gesture-controlled IoT (paper §4.2; --gesture wave|clap|idle)");
            println!("  fall      fall detection (paper §4.3)");
            println!("  retail    cashierless checkout (paper §1 motivation)");
            Ok(())
        }
        Some("run") => match args.get(1) {
            Some(app) => parse_options(&args[2..]).and_then(|opts| cmd_run(app, &opts)),
            None => Err("run needs an app name".into()),
        },
        Some("validate") => match args.get(1) {
            Some(path) => cmd_validate(path),
            None => Err("validate needs a config file".into()),
        },
        Some("placement") => cmd_placement(),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_options(&owned)
    }

    #[test]
    fn defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.arch, Arch::VideoPipe);
        assert_eq!(opts.fps, 30.0);
        assert_eq!(opts.credits, 1);
        assert_eq!(opts.engine, Engine::Sim);
        assert_eq!(opts.transport, EdgeTransport::Inproc);
    }

    #[test]
    fn full_flag_set() {
        let opts = parse(&[
            "--arch",
            "baseline",
            "--fps",
            "12.5",
            "--duration",
            "3.5",
            "--credits",
            "2",
            "--runtime",
            "reactor",
            "--transport",
            "tcp",
            "--gesture",
            "wave",
            "--pose-instances",
            "3",
            "--seed",
            "7",
            "--slo",
            "150",
        ])
        .unwrap();
        assert_eq!(opts.arch, Arch::Baseline);
        assert_eq!(opts.fps, 12.5);
        assert_eq!(opts.duration, Duration::from_secs_f64(3.5));
        assert_eq!(opts.credits, 2);
        assert_eq!(opts.engine, Engine::Reactor);
        assert_eq!(opts.transport, EdgeTransport::Tcp);
        assert_eq!(opts.gesture, ExerciseKind::Wave);
        assert_eq!(opts.pose_instances, 3);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.slo, Some(Duration::from_millis(150)));
    }

    #[test]
    fn reactor_runtime_and_transport() {
        let opts = parse(&["--runtime", "reactor"]).unwrap();
        assert_eq!(opts.engine, Engine::Reactor);
        assert_eq!(opts.transport, EdgeTransport::Inproc);
        let opts = parse(&["--transport", "tcp", "--runtime", "reactor"]).unwrap();
        assert_eq!(opts.engine, Engine::Reactor);
        assert_eq!(opts.transport, EdgeTransport::Tcp);
        assert!(parse(&["--runtime", "sim", "--transport", "inproc"]).is_ok());
        // The simulator models links; it has no sockets to put them on.
        assert!(parse(&["--transport", "tcp"]).is_err());
        assert!(parse(&["--runtime", "sim", "--transport", "tcp"]).is_err());
        assert!(parse(&["--transport", "udp", "--runtime", "reactor"]).is_err());
        assert!(parse(&["--transport"]).is_err());
    }

    #[test]
    fn reactor_runs_an_app_over_tcp() {
        let opts = Options {
            engine: Engine::Reactor,
            transport: EdgeTransport::Tcp,
            duration: Duration::from_millis(300),
            ..Options::default()
        };
        cmd_run("fall", &opts).unwrap();
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&["--arch", "weird"]).is_err());
        assert!(parse(&["--fps", "zero"]).is_err());
        assert!(parse(&["--fps", "0"]).is_err());
        assert!(parse(&["--fps", "-3"]).is_err());
        assert!(parse(&["--duration", "0"]).is_err());
        assert!(parse(&["--credits", "0"]).is_err());
        assert!(parse(&["--runtime", "cloud"]).is_err());
        assert!(parse(&["--runtime", "local"]).is_err());
        assert!(parse(&["--gesture", "squat"]).is_err()); // not a gesture class
        assert!(parse(&["--gesture"]).is_err()); // missing value
        assert!(parse(&["--slo", "0"]).is_err());
        assert!(parse(&["--slo", "soon"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn unknown_app_errors() {
        assert!(cmd_run("nonexistent", &Options::default()).is_err());
    }
}
