#!/usr/bin/env bash
# Hot-path + ML-kernel + dispatch-batching + self-healing + SLO-controller
# + reactor-scale + fleet performance snapshot: runs the bench_snapshot
# binary (release) and emits BENCH_PR10.json at the workspace root (codec
# kernels, the zero-copy wire cell — single-connection loopback MB/s and
# allocations/frame for the legacy contiguous codec vs the pooled-decode +
# vectored-encode data plane, under a counting global allocator —
# ML/vision kernels vs their scalar oracles, encode-cache
# fan-out, inproc roundtrips, the multi-core reactor scaling sweep
# (workers=1 vs workers=cores with steal/wake counters; skip marker on
# single-core runners), the service-dispatch saturation sweep,
# the deterministic failover-MTTR cell, the fleet_mttr cell (3 real
# videopipe-node processes, SIGKILL one mid-run, wall-clock detection /
# MTTR / delivery / exactly-once from the coordinator's status file),
# the SLO flash-crowd cell with the quality knob's measured accuracy
# cost, and the reactor fleet cells — pipelines per core, memory per
# pipeline, OS thread count and the threaded-runtime comparison arm —
# plus the reactor low-load latency cell comparable to BENCH_PR6's
# saturation.low_load, and the reactor timer-lag cell: how late 1000
# recurring 25 Hz deadlines fire, idle and next to a CPU-bound fleet, and
# how often the workers sleep).
#
# Usage: scripts/bench_snapshot.sh [--quick] [--out PATH]
#   --quick    shrink iteration counts (CI smoke; numbers are noisier)
#   --out PATH write the JSON somewhere else (default BENCH_PR10.json)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> building bench_snapshot + fleet binaries (release)"
cargo build --release -q -p videopipe-bench --bin bench_snapshot
# The fleet_mttr cell spawns these from next to bench_snapshot.
cargo build --release -q -p videopipe --bins

echo "==> running hot-path snapshot"
cargo run --release -q -p videopipe-bench --bin bench_snapshot -- "$@"
