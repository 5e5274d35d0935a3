//! `vpbench`: the repo's one benchmark. Deploys the paper's apps on the
//! reactor runtime with devices split over loopback TCP, measures what a
//! user of the system would see, and — in a separate traced run — where
//! each frame's time went, layer by layer. See `README.md` beside this
//! package for every workload and metric.
//!
//! Two ways to run it:
//!
//! * `vpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` —
//!   one run; the last line of standard output is one JSON object. This is
//!   what `BENCHMARK.json` names.
//! * `vpbench [--seed <n>] [--repeat <n>] [--quick] [--workload <name>]` —
//!   every workload, measured then traced, with the cross-workload sanity
//!   checks; `--repeat 2` also checks that two sets of runs agree within
//!   each metric's own bound.

mod budget;
mod cells;
mod contract;
mod env;
mod run;
mod stats;
mod trace;
mod workloads;

use contract::{END_TO_END, PER_LAYER};
use run::{Metrics, RunOpts, RunResult};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: cells::CountingAlloc = cells::CountingAlloc;

/// Seconds measured per run when `--seconds` is not given.
const DEFAULT_SECONDS: usize = 24;
const QUICK_SECONDS: usize = 3;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<usize>,
    trace: Option<bool>,
    repeat: usize,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        repeat: 1,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workloads::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: usize = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1 to 60".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn print_run(workload: &Workload, opts: RunOpts, result: &RunResult) {
    println!(
        "== {} seed {} {} s {} ==",
        workload.name,
        opts.seed,
        opts.seconds,
        if opts.traced { "traced" } else { "measured" }
    );
    for (name, m) in &result.metrics.0 {
        println!("{name:<44} {:>14.4} {}", m.value, m.unit);
    }
    println!(
        "operations attempted {} failed {} correct {}{}",
        result.attempted,
        result.failed,
        result.correct,
        if result.disturbed { " DISTURBED" } else { "" }
    );
    for note in &result.notes {
        println!("{note}");
    }
}

fn json_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .0
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

/// The metric names a run of this kind must report.
fn declared(traced: bool) -> impl Iterator<Item = &'static str> {
    let e2e = END_TO_END.iter().map(|m| m.0).filter(move |_| !traced);
    let layers = PER_LAYER.iter().map(|m| m.0).filter(move |_| traced);
    e2e.chain(layers)
}

/// One run for the driver: human-readable lines, then the JSON object.
fn single(workload: &'static Workload, opts: RunOpts) -> ExitCode {
    match run::run(workload, opts) {
        Ok(result) => {
            print_run(workload, opts, &result);
            if let Some(missing) = declared(opts.traced).find(|n| result.metrics.get(n).is_none()) {
                eprintln!(
                    "vpbench: {}: declared metric {missing} was not measured",
                    workload.name
                );
                return ExitCode::from(2);
            }
            println!("{}", json_line(&result));
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("vpbench: {}: {e}", workload.name);
            ExitCode::from(2)
        }
    }
}

type Table = BTreeMap<&'static str, Metrics>;

/// Checks that the workloads separate the layers as the README says.
fn sanity(layers: &Table) -> bool {
    let get = |w: &str, m: &str| layers.get(w).and_then(|t| t.get(m));
    let mut ok = true;
    let mut check = |holds: Option<bool>, what: &str| match holds {
        Some(true) => println!("PASS  {what}"),
        Some(false) => {
            println!("FAIL  {what}");
            ok = false;
        }
        None => println!("SKIP  {what} (workload not run)"),
    };
    check(
        get("relay_fleet", "net.tcp.tx_frames_per_frame").map(|v| v == 0.0),
        "relay_fleet sends nothing over TCP",
    );
    check(
        get("relay_fleet", "apps.video_streaming.self_us").map(|v| v == 0.0),
        "relay_fleet runs no codec-bearing module",
    );
    check(
        get("baseline_remote", "core.service.wait_us")
            .zip(get("fitness_paced", "core.service.wait_us"))
            .map(|(remote, local)| remote >= 3.0 * local),
        "baseline_remote waits >= 3x longer on services than fitness_paced",
    );
    check(
        get("fitness_saturated", "core.flow.refused_ratio").map(|v| v >= 0.3),
        "fitness_saturated refuses >= 30 % of ticks",
    );
    check(
        get("fitness_paced", "core.flow.refused_ratio").map(|v| v <= 0.02),
        "fitness_paced refuses <= 2 % of ticks",
    );
    for w in ["fitness_paced", "baseline_remote"] {
        check(
            get(w, "trace.budget_coverage").map(|v| (0.95..=1.05).contains(&v)),
            &format!("{w} budget covers 95-105 % of the measured latency"),
        );
    }
    ok
}

/// Every workload (or the one named), measured then traced, `repeat`
/// times.
fn full(args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    println!(
        "vpbench: {} workload(s), seed {}, {} s windows, {} worker(s) pinned to one of {} core(s); TCP traffic crosses the host loopback, not a real link",
        selected.len(),
        args.seed,
        seconds,
        workloads::WORKERS,
        env::nproc()
    );
    let mut ok = true;
    let mut sets: Vec<Table> = Vec::new();
    let mut disturbed: Vec<&str> = Vec::new();
    for _ in 0..args.repeat {
        let mut measured = Table::new();
        let mut layers = Table::new();
        for &workload in &selected {
            println!("-- {}: {}", workload.name, workload.why);
            for traced in [false, true] {
                let opts = RunOpts {
                    seed: args.seed,
                    seconds,
                    traced,
                };
                match run::run(workload, opts) {
                    Ok(result) => {
                        print_run(workload, opts, &result);
                        ok &= result.correct;
                        if result.disturbed {
                            disturbed.push(workload.name);
                        }
                        if traced {
                            if let Some(base) = measured.get(workload.name) {
                                let pct = |traced: &str, base_name: &str| {
                                    let base = base.get(base_name).unwrap_or(f64::NAN);
                                    let traced = result.metrics.get(traced).unwrap_or(f64::NAN);
                                    100.0 * (traced - base) / base
                                };
                                println!(
                                    "trace.overhead_pct: latency_p50_ms {:+.1} %, delivered_fps {:+.1} %",
                                    pct("trace.traced_latency_p50_ms", "latency_p50_ms"),
                                    pct("trace.traced_delivered_fps", "delivered_fps"),
                                );
                            }
                            layers.insert(workload.name, result.metrics);
                        } else {
                            measured.insert(workload.name, result.metrics);
                        }
                    }
                    Err(e) => {
                        println!("FAIL  {}: {e}", workload.name);
                        ok = false;
                    }
                }
            }
        }
        println!("== cross-workload sanity ==");
        ok &= sanity(&layers);
        sets.push(measured);
    }
    if sets.len() > 1 {
        println!(
            "== self-check: {} sets of runs against each metric's bound ==",
            sets.len()
        );
        for &workload in &selected {
            for (name, unit, _, bound) in END_TO_END {
                let values: Vec<f64> = sets
                    .iter()
                    .filter_map(|set| set.get(workload.name)?.get(name))
                    .collect();
                if values.len() < 2 {
                    continue;
                }
                let spread = stats::relative_spread(&values);
                let verdict = if disturbed.contains(&workload.name) {
                    "DISTURBED"
                } else if args.quick {
                    "not enforced (--quick)"
                } else if spread <= bound {
                    "PASS"
                } else {
                    ok = false;
                    "FAIL"
                };
                println!(
                    "{:<18} {name:<18} {values:.4?} {unit}  spread {:.1} % of bound {:.0} %  {verdict}",
                    workload.name,
                    spread * 100.0,
                    bound * 100.0
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    // Before anything is spawned: threads inherit the affinity.
    if env::pin_to_one_cpu().is_none() {
        eprintln!("vpbench: could not pin to one CPU; the numbers depend on where the host runs the others");
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vpbench: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.trace) {
        (Some(workload), Some(traced)) => single(
            workload,
            RunOpts {
                seed: args.seed,
                seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
                traced,
            },
        ),
        _ => full(&args),
    }
}
