//! `videopipe-coordinator` — fleet control plane: consistent-hash tenant
//! placement, lease-based failure detection, checkpointed failover and
//! rejoin rebalance over `videopipe-node` processes.
//!
//! ```text
//! videopipe-coordinator --listen 127.0.0.1:7700 \
//!     --expect-nodes 3 --tenants 200 --status /tmp/fleet.status
//! ```
//!
//! Fleet state is published every tick to the atomic status file; the
//! cluster harness (and `watch cat`) read it live.

use std::process::ExitCode;
use std::time::Duration;

use videopipe::cluster::{run_coordinator, CoordinatorOpts};

const USAGE: &str = "\
videopipe-coordinator — fleet placement, failure detection, failover

USAGE:
    videopipe-coordinator [options]

OPTIONS:
    --listen <addr>         control listener bind (default 127.0.0.1:0;
                            the bound port is published in the status file)
    --status <path>         status file path (default coordinator.status)
    --expect-nodes <n>      nodes to await before placement (default 3)
    --tenants <n>           tenant pipelines to place (default 30)
    --fps <rate>            per-tenant frame rate (default 20)
    --hb-ms <ms>            expected heartbeat cadence (default 100)
    --lease-ms <ms>         lease past last heartbeat (default 300)
    --confirm <n>           missed beats past lease = dead (default 3)
    --run-for-ms <ms>       exit after this long even unsignalled
";

fn parse(args: &[String]) -> Result<CoordinatorOpts, String> {
    let mut opts = CoordinatorOpts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--listen" => opts.listen = value()?,
            "--status" => opts.status_path = value()?.into(),
            "--expect-nodes" => {
                opts.expect_nodes = value()?
                    .parse()
                    .map_err(|_| "--expect-nodes needs an integer".to_string())?;
                if opts.expect_nodes == 0 {
                    return Err("--expect-nodes must be at least 1".into());
                }
            }
            "--tenants" => {
                opts.tenants = value()?
                    .parse()
                    .map_err(|_| "--tenants needs an integer".to_string())?;
            }
            "--fps" => {
                opts.fps = value()?
                    .parse()
                    .map_err(|_| "--fps needs a number".to_string())?;
                if !(opts.fps.is_finite() && opts.fps > 0.0) {
                    return Err("--fps must be positive".into());
                }
            }
            "--hb-ms" => opts.hb_interval = millis(&value()?, flag)?,
            "--lease-ms" => opts.lease = millis(&value()?, flag)?,
            "--confirm" => {
                opts.confirmation_threshold = value()?
                    .parse()
                    .map_err(|_| "--confirm needs an integer".to_string())?;
            }
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
    match run_coordinator(&opts) {
        Ok(failovers) => {
            eprintln!("coordinator: exiting clean ({failovers} failover(s) handled)");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
