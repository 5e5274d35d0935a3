//! `videopipe-node` — one fleet member: a reactor runtime that hosts
//! tenant pipelines on the coordinator's command.
//!
//! ```text
//! videopipe-node --node-id node-0 --coordinator 127.0.0.1:7700
//! ```
//!
//! SIGTERM/SIGINT drains gracefully (final checkpoints, retired reports,
//! `Bye`); SIGKILL simulates machine death and exercises the
//! coordinator's failure detector.

use std::process::ExitCode;
use std::time::Duration;

use videopipe::cluster::{run_node, NodeOpts};

const USAGE: &str = "\
videopipe-node — fleet member hosting tenant pipelines

USAGE:
    videopipe-node --coordinator <host:port> [options]

OPTIONS:
    --node-id <id>          stable node identity (default node-0)
    --coordinator <addr>    coordinator control address (default 127.0.0.1:7700)
    --listen <addr>         command listener bind (default 127.0.0.1:0)
    --workers <n>           reactor worker threads (default 2)
    --hb-ms <ms>            heartbeat cadence (default 100)
    --report-ms <ms>        tenant report cadence (default 150)
    --checkpoint-ms <ms>    module checkpoint period (default 100)
    --run-for-ms <ms>       exit after this long even unsignalled
";

fn parse(args: &[String]) -> Result<NodeOpts, String> {
    let mut opts = NodeOpts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--node-id" => opts.node_id = value()?,
            "--coordinator" => opts.coordinator = value()?,
            "--listen" => opts.listen = value()?,
            "--workers" => {
                opts.workers = value()?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--hb-ms" => opts.hb_interval = millis(&value()?, flag)?,
            "--report-ms" => opts.report_interval = millis(&value()?, flag)?,
            "--checkpoint-ms" => opts.checkpoint_period = millis(&value()?, flag)?,
            "--run-for-ms" => opts.run_for = Some(millis(&value()?, flag)?),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn millis(v: &str, flag: &str) -> Result<Duration, String> {
    v.parse::<u64>()
        .map(Duration::from_millis)
        .map_err(|_| format!("{flag} needs milliseconds"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // A failure past the command line is not a usage mistake: no usage
    // text.
    match run_node(&opts) {
        Ok(hosted) => {
            eprintln!("node: drained {hosted} tenant(s), exiting clean");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
