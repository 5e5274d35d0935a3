#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints (warnings are errors), tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (offline, deny warnings)"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo doc (no rustdoc warnings: every intra-doc link resolves to a public page)"
# A link to an item that is gone or not in scope renders as plain text and
# points the reader nowhere, and a link from a public item to a private one
# points at a page the public docs do not have; rustdoc only warns about
# either by default. Every rustdoc warning is an error here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

count_non_test() { # lines before each file's first #[cfg(test)], and their sum
    awk 'FNR == 1 { counting = 1 }
         /#\[cfg\(test\)\]/ { counting = 0 }
         counting { lines[FILENAME]++; total++ }
         END { for (f in lines) printf "    %6d %s\n", lines[f], f
               printf "    %6d non-test lines in total\n", total }' "$@"
}

echo "==> public surface (unreachable_pub in every library crate; pub items and non-test lines per crate)"
# Every library crate root carries #![warn(unreachable_pub)], which the
# clippy step above turns into an error: a `pub` item that no other crate
# can reach must say pub(crate), and the dead_code lint then finds what
# only tests used. Shipping code (lines before a file's first
# #[cfg(test)]) may not opt out of either lint. Per crate, the `pub` item
# lines and the non-test lines are printed, not gated (at bbf8ddf: core
# 288 / 8330, net 149 / 3425, media 140 / 2335, ml 189 / 3321, apps 135 /
# 2438, sim 106 / 2562, cluster 62 / 2189, bench 9 / 1930).
for crate in core net media ml apps sim cluster bench; do
    if ! grep -q '^#!\[warn(unreachable_pub)\]' "crates/$crate/src/lib.rs"; then
        echo "crates/$crate/src/lib.rs lacks #![warn(unreachable_pub)]"
        exit 1
    fi
    find "crates/$crate/src" -name '*.rs' | sort | xargs awk -v crate="$crate" '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting && /^[[:space:]]*pub (fn|struct|enum|trait|const|static|type|mod|use) / { items++ }
        counting { lines++ }
        END { printf "    %-8s %4d pub items %6d non-test lines\n", crate, items + 0, lines + 0 }'
done
allows=$(find crates src -name '*.rs' | sort | xargs awk '
    FNR == 1 { shipping = 1 }
    /#\[cfg\(test\)\]/ { shipping = 0 }
    shipping && /allow\([^)]*(dead_code|unreachable_pub)/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$allows" ]; then
    echo "shipping code opts out of dead_code or unreachable_pub:"
    printf '%s\n' "$allows"
    exit 1
fi

echo "==> one metrics model (a pipeline's metrics are read, not published; its log is a bounded ring; core + net size)"
# A running pipeline's metrics are read with ReactorRuntime::metrics(id): a
# copy of its PipelineMetrics, from which callers derive rates, quantiles
# and stage means. The telemetry feed that used to format them into a text
# line, publish it on a per-pipeline InprocHub topic and parse it back (its
# snapshot and monitor types, its config knob, its watcher task) is a second
# shape of the same numbers: fail if any of it is back. Fail too on an
# InprocHub in the shipping part of crates/core/src, which resolves every
# channel at deploy and needs no hub. The bracketed letters keep this step
# from matching itself. The core + net line count (lines before each file's
# first #[cfg(test)]) is printed, not gated (8051 + 3313 before the feed
# went).
if grep -rnE 'TelemetrySnaps[h]ot|TelemetryMonit[o]r|telemetry_interv[a]l|publish_telemetr[y]' crates src tests examples scripts; then
    echo "the telemetry feed is back: read a pipeline's metrics with ReactorRuntime::metrics"
    exit 1
fi
hubs=$(for f in crates/core/src/*.rs; do
    awk '/#\[cfg\(test\)\]/ { exit } /InprocHu[b]/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hubs" ]; then
    echo "an InprocHub in the shipping part of crates/core/src:"
    printf '%s\n' "$hubs"
    exit 1
fi
# A pipeline's module log lines go to a ring of the newest LOG_LINES, whose
# full slots are recycled, and every line is built before the log's lock is
# taken. A Vec<String> of log lines on Shared grows the process by every
# frame a display logs (≈ 100 B a frame on fitness_saturated), and a push
# through the lock formats the line while holding it: fail on either in the
# shipping part of engine.rs.
unbounded=$(awk '/#\[cfg\(test\)\]/ { exit }
                 /logs: Mutex<Vec<Strin[g]>>|logs\.lock\(\)\.pus[h]\(/ { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/engine.rs)
if [ -n "$unbounded" ]; then
    echo "an unbounded log, or a line formatted under its lock, in the shipping part of engine.rs:"
    printf '%s\n' "$unbounded"
    exit 1
fi
count_non_test crates/core/src/*.rs crates/net/src/*.rs | tail -n 1

echo "==> one engine, one driver (a single ModuleCtx implementation, no threaded runtime, no in-runtime device watch; runtime + reactor + engine and wire.rs size)"
# The per-message runtime logic lives once, in crates/core/src/engine.rs,
# under one driver, the reactor. A second `impl ... ModuleCtx for` under
# crates/core/src is a fork of the call chain (breaker, retry, LKG): fail.
# So is any trace of the retired thread-per-task driver (its runtime type,
# its Exec, its executor loop, its shutdown latch) in the code. The line
# count — lines before each file's first #[cfg(test)] — is printed, not
# gated, so the next anchor reads the trend instead of recounting (4638
# before PR 16, 3876 before the threaded driver went, 3629 before the
# in-runtime heartbeat layer went).
impls=$(grep -E '^\s*impl\b.*\bModuleCtx for\b' crates/core/src/*.rs || true)
if [ "$(printf '%s\n' "$impls" | grep -c .)" -ne 1 ]; then
    echo "expected exactly one ModuleCtx implementation under crates/core/src, found:"
    printf '%s\n' "$impls"
    exit 1
fi
# The bracketed letters keep this line from matching itself.
if grep -rnE 'LocalRunt[i]me|ThreadEx[e]c|service_executor_lo[o]p|ShutdownGat[e]' crates src tests examples scripts; then
    echo "a second driver is back: the reactor is the only runtime"
    exit 1
fi
# A runtime's devices are tasks of its own process, so it watches none of
# them: device loss is detected by the fleet coordinator (real processes)
# and the simulator (virtual time). The in-runtime heartbeat layer, the
# fence epoch only it moved and the wire header's epoch stamp are gone:
# fail if any of it is back. The bracketed letters keep this step from
# matching itself. wire.rs's line count is printed beside the runtime +
# reactor + engine count (782 before the header's epoch went).
if grep -rnE 'HbMonit[o]r|muted_heartbea[t]s|fence_epoc[h]|heartbeat_route[s]|inject_heartbeat_los[s]|with_epoc[h]' crates src tests examples; then
    echo "the in-runtime device watch is back: device loss is the coordinator's and the simulator's"
    exit 1
fi
count_non_test crates/core/src/runtime.rs crates/core/src/reactor.rs crates/core/src/engine.rs
count_non_test crates/net/src/wire.rs | tail -n 1

echo "==> one deadline wait (a reactor worker sleeps only in Core::nap; no environment knobs in core or net)"
# An idle worker sleeps towards its own deadline to its learnt wake-up
# latency before it and spins the rest (DESIGN.md §5.12): a deadline is
# late by the host's time to run a woken thread only if every sleep goes
# through that one helper. Fail on a park_timeout( or thread::sleep( in
# the shipping part of Core's impl outside `fn nap` (comment lines aside).
sleeps=$(awk '/#\[cfg\(test\)\]/ { exit }
              /^impl Core \{/ { in_core = 1 }
              in_core && /^    fn nap\(/ { in_nap = 1 }
              in_core && !in_nap && !/^ *\/\// && /park_timeout\(|thread::sleep\(/ {
                  print FILENAME ":" FNR ": " $0 }
              in_nap && /^    }$/ { in_nap = 0 }
              in_core && /^}$/ { in_core = 0 }' crates/core/src/reactor.rs)
if [ -n "$sleeps" ]; then
    echo "a reactor worker sleeps outside Core::nap, the one deadline wait:"
    printf '%s\n' "$sleeps"
    exit 1
fi
# The wake-ahead constants, like every other scheduling constant, are
# constants: no environment variable tunes the shipping part of
# crates/core/src or crates/net/src.
knobs=$(for f in crates/core/src/*.rs crates/net/src/*.rs; do
    awk '/#\[cfg\(test\)\]/ { exit } /env::va[r]/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$knobs" ]; then
    echo "an environment variable read in the shipping part of crates/core/src or crates/net/src:"
    printf '%s\n' "$knobs"
    exit 1
fi

echo "==> one route table (channels and metric cells resolved at deploy, tasks owned by their pipeline; vendored channel size; relay footprint; k-NN rows per query)"
# Every sending site holds a route resolved once in Shared::deploy: the
# destination's queue and the task that consumes it. A channel -> device
# map, a channel -> task lookup, a wake by channel name or a hub connect in
# the shipping part of engine.rs or reactor.rs is per-message string routing
# coming back: fail. So is a metric, breaker or last-known-good cell looked
# up by name in the shipping part of engine.rs: a module step, a service
# batch and a service call record through the slots deploy handed them.
# The vendored channel's line count (lines before its first #[cfg(test)];
# 310 before it counted its blocked waiters) is printed beside the runtime +
# reactor + engine count above (3486 before routes), and so is the live
# heap one deployed relay pipeline keeps (15 946 B before metric cells were
# resolved at deploy; gated in the test itself) beside what a finished and
# a dropped fleet leave live (1 487 890 B for 200 relays while the reactor
# kept a task table; gated in the test itself) and what a stopped relay
# keeps (7 761 B while it kept its whole shared state; gated in the test
# itself) and what a relay logging every frame grows by once its log ring
# is full (≈ 600 000 B per 10 000 frames while every line was kept; gated
# in the test itself).
routing=$(for f in crates/core/src/engine.rs crates/core/src/reactor.rs; do
    awk '/#\[cfg\(test\)\]/ { exit }
         /channel_device|task_for|wake_channel|hub\.connect\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$routing" ]; then
    echo "per-message channel routing in the shipping part of engine.rs / reactor.rs:"
    printf '%s\n' "$routing"
    exit 1
fi
# A task has one owner, its pipeline's entry on the runtime; a queue or an
# armed deadline holds it only while it is queued or armed, and a channel
# names its consumer by a Weak. A task id (a task table, an id-keyed wake or
# deadline) or a channel holding its consumer strongly in the shipping part
# of engine.rs or reactor.rs brings back the cycle that kept every stopped
# or finished deployment alive: fail.
owned=$(for f in crates/core/src/engine.rs crates/core/src/reactor.rs; do
    awk '/#\[cfg\(test\)\]/ { exit }
         /wake_task|next_task_id|task_ranges|Wake\(usize\)|OnceLock<Arc<Task>>/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$owned" ]; then
    echo "a task id or a strong channel -> task edge in the shipping part of engine.rs / reactor.rs:"
    printf '%s\n' "$owned"
    exit 1
fi
keyed=$(awk '/#\[cfg\(test\)\]/ { exit }
             /record_stage\(&|record_dispatch_batch\(&|\.entry\(service\.to_string\(\)\)|lkg\.insert\(/ {
                 print FILENAME ":" FNR ": " $0 }' crates/core/src/engine.rs)
if [ -n "$keyed" ]; then
    echo "a metric, breaker or last-known-good cell looked up by name in the shipping part of engine.rs:"
    printf '%s\n' "$keyed"
    exit 1
fi
count_non_test vendor/crossbeam/src/lib.rs
cargo test -q --offline -p videopipe-core --test deploy_footprint -- --nocapture 2>&1 |
    grep -E 'bytes per relay pipeline|bytes left by|bytes per stopped relay|per 10 000 logged frames' | sed 's/^/    /'
# The activity classifier's footprint per query: rows of the deployed
# fitness model whose exact distance the bound-pruned search measures (the
# test itself fails above its ceiling; a whole-model scan reads 450).
cargo test -q --offline -p videopipe-ml --lib bounded_search_measures -- --nocapture 2>&1 |
    grep -E 'rows measured per query' | sed 's/^/    /'

echo "==> one ingress (a single accept loop and a single readiness loop; videopipe-net and fleet control-plane size)"
# Every TCP receiver is a PollEndpoint turned by videopipe_net::Ingress. A
# second `.accept()` in the shipping part of tcp.rs is a second receive
# stack; a `Poller::wait` call under crates/core/src is a driver growing its
# own copy of the wait -> service -> backlog/retry loop again: fail on
# either. The fleet's control loops (coordinator, node agent) sleep in
# Ingress::turn up to their next duty: a listener thread feeding them
# through a channel (the retired TcpListenerHandle), a timed receive
# pacing them, or a sleep in the coordinator's shipping code is a polling
# loop again: fail on any. The bracketed letters keep this step from
# matching itself. The line counts are printed, not gated (net: 3721
# before the two receive stacks merged; tcp.rs + cluster: 879 + 2182
# before the listener thread went).
accepts=$(awk '/#\[cfg\(test\)\]/ { exit } /\.accept\(\)/ { n++ } END { print n + 0 }' crates/net/src/tcp.rs)
if [ "$accepts" -ne 1 ]; then
    echo "expected exactly one .accept() call in the non-test part of crates/net/src/tcp.rs, found $accepts"
    exit 1
fi
if grep -nE 'Poller::wait|\.wait\(&mut ready' crates/core/src/*.rs; then
    echo "crates/core/src waits on a Poller itself; that loop belongs to videopipe_net::Ingress"
    exit 1
fi
if grep -rn 'TcpListenerHandl[e]' crates src tests examples; then
    echo "TcpListenerHandle is back: receive with a PollEndpoint on an Ingress"
    exit 1
fi
polls=$(for f in crates/cluster/src/coordinator.rs crates/cluster/src/node.rs; do
    awk '/#\[cfg\(test\)\]/ { exit } /recv_timeou[t]\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
done
awk '/#\[cfg\(test\)\]/ { exit } /thread::slee[p]\(/ { print FILENAME ":" FNR ": " $0 }' crates/cluster/src/coordinator.rs)
if [ -n "$polls" ]; then
    echo "a fleet control loop polls instead of waiting in Ingress::turn:"
    printf '%s\n' "$polls"
    exit 1
fi
count_non_test crates/net/src/*.rs
count_non_test crates/cluster/src/*.rs
count_non_test crates/net/src/tcp.rs crates/cluster/src/*.rs | tail -n 1

echo "==> cargo test (whole workspace: default-members covers every crate)"
cargo test -q

echo "==> vendored channel (outside the workspace: its wake-up tests)"
# A send must wake a receiver blocked in recv or recv_timeout, a receive a
# sender blocked on a full bounded channel, and a blocking MPMC pool must
# neither lose nor duplicate a message — now that the channel notifies only
# when it counted someone asleep. The bare `Queue` the runtime embeds in
# its channels is tested directly too: a push wakes a `pop_timeout` waiter
# and notifies nobody when nobody waits. vendor/ is excluded from the
# workspace, so nothing above runs these.
CARGO_TARGET_DIR=target/vendor cargo test -q --offline --manifest-path vendor/crossbeam/Cargo.toml

echo "==> one-CPU rerun (prop_core and cluster_harness pinned to CPU 0)"
# Both binaries have failed only when the process had a single CPU (a
# reactor sized to one worker). Pinning runs them on that shape every
# time; cluster_harness also takes its thread and wake-up census there.
# Nothing is rebuilt.
if command -v taskset >/dev/null 2>&1; then
    taskset -c 0 cargo test -q -p videopipe-core --test prop_core
    taskset -c 0 cargo test -q --test cluster_harness
else
    echo "SKIP: taskset not found; one-CPU rerun of prop_core and cluster_harness not run"
fi

echo "==> vpbench (its own package: unit tests, then one quick workload)"
# The benchmark is outside the workspace, so nothing above builds it. The
# quick run is a smoke of the reactor over loopback TCP end to end (3 s
# windows, bounds printed, not enforced). Neither step may touch the
# package's lock file: the driver builds from the committed one.
cargo test --release --offline --manifest-path vpbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path vpbench/Cargo.toml -- \
    --quick --workload baseline_remote
git diff --exit-code -- vpbench/Cargo.lock

echo "==> chaos smoke (fixed-seed device crash + self-healing failover)"
# Deterministic virtual-time replay: a mid-pipeline device dies and the
# run must detect, replan, restore state and resume with exact-replay
# metrics. Seed and crash time are pinned inside the test.
cargo test -q --test failover device_crash_smoke_is_deterministic

echo "==> bench smoke (hot-path snapshot, quick mode)"
# The fleet_mttr cell spawns the node/coordinator binaries from next to
# bench_snapshot, so build them (release) first or the cell skips itself.
cargo build --release -q -p videopipe --bins
cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
    --quick --out target/bench_smoke.json

echo "==> codec kernel gates (speed-up over the scalar oracle, bytes allocated per frame)"
# The codec cells time the kernels next to the byte-at-a-time oracle in the
# SAME run, so the gate is the ratio: both slow down together on a loaded
# runner, and a kernel that has lost its fast path drags the ratio towards
# 1 whatever the runner's speed. The bars sit on the frames the app's
# camera films (sensor noise: ~3900 runs a frame, where the cost is per
# run) — encode and decode at least 1.7x — and on the dense worst case
# (random pixels, every run of length 1), where the kernels must not be
# slower than the oracle. Allocation is gated in bytes, which repeat
# exactly: one encode plus one decode of a camera frame may allocate the
# encoded length plus the pixel count plus 256 B — the output and the
# frame, nothing of the codec's own — and unwrapping the encoded frame from
# a message payload may allocate nothing (it is a slice of the payload).
# Keys are extracted with awk so the
# gate needs no JSON tooling. One re-measure before the gate fails hard.
extract() { # extract FILE SECTION KEY -> number
    awk -v section="\"$2\":" -v key="\"$3\":" '
        $0 ~ section {
            line = $0
            sub(".*" key " *", "", line)
            sub("[,}].*", "", line)
            print line
            exit
        }' "$1"
}
codec_gate() { # codec_gate SNAPSHOT -> 0 if ratios and allocation hold
    local snapshot="$1"
    for probe in "codec_camera encode 1.7" "codec_camera decode 1.7" "codec_dense encode 1.0" "codec_dense decode 1.0"; do
        set -- $probe
        now=$(extract "$snapshot" "$1" "$2_speedup_x")
        awk -v now="$now" -v floor="$3" -v name="$1.$2_speedup_x" 'BEGIN {
            if (now == "") {
                printf "FAIL: %s missing from snapshot\n", name
                exit 1
            }
            if (now + 0 < floor + 0) {
                printf "FAIL: %s %.2fx < %.1fx over the scalar oracle\n", name, now, floor
                exit 1
            }
            printf "ok: %s %.2fx (floor %.1fx)\n", name, now, floor
        }' || return 1
    done
    enc=$(extract "$snapshot" codec_camera encode_alloc_bytes)
    dec=$(extract "$snapshot" codec_camera decode_alloc_bytes)
    rx=$(extract "$snapshot" codec_camera rx_payload_alloc_bytes)
    encoded=$(extract "$snapshot" codec_camera encoded_bytes)
    pixels=$(extract "$snapshot" codec_camera pixels)
    awk -v enc="$enc" -v dec="$dec" -v rx="$rx" -v encoded="$encoded" -v pixels="$pixels" 'BEGIN {
        if (enc == "" || dec == "" || rx == "" || encoded == "" || pixels == "") {
            printf "FAIL: codec_camera allocation counters missing from snapshot\n"
            exit 1
        }
        limit = encoded + pixels + 256
        if (enc + dec > limit) {
            printf "FAIL: codec allocates %.0f + %.0f B per camera frame, over encoded + pixels + 256 = %.0f B\n", enc, dec, limit
            exit 1
        }
        if (rx + 0 != 0) {
            printf "FAIL: Payload::decode allocates %.0f B per encoded frame; it should slice the message buffer\n", rx
            exit 1
        }
        printf "ok: codec allocates %.0f B per encode + %.0f B per decode (ceiling %.0f B), Payload::decode 0 B\n", enc, dec, limit
    }' || return 1
}
if ! codec_gate target/bench_smoke.json; then
    echo "codec gate missed; re-measuring once to rule out a cold start"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    codec_gate target/bench_smoke.json
fi

echo "==> wire data-plane gates (vs committed BENCH_PR10.json)"
# Two probes on the zero-copy wire cell. Throughput is a floor against the
# committed snapshot: single-connection loopback MB/s must stay within 20%
# of it, with one re-measure for cold starts. Allocations are
# gated two ways: an absolute ceiling (4 allocations/frame — the zero-copy
# receive path allocates only the channel string plus amortised chunk
# rotations) and a relative bar (at most half of the legacy arm measured
# in the SAME run, the PR 10 acceptance criterion — allocation counts are
# deterministic, so this never flakes on runner speed).
wire_gate() { # wire_gate SNAPSHOT -> 0 if throughput and allocation bars hold
    local snapshot="$1"
    floor=$(extract BENCH_PR10.json wire zero_copy_mb_s)
    now=$(extract "$snapshot" wire zero_copy_mb_s)
    allocs=$(extract "$snapshot" wire allocs_per_frame)
    legacy_allocs=$(extract "$snapshot" wire legacy_allocs_per_frame)
    copies=$(extract "$snapshot" wire rx_payload_copies)
    awk -v floor="$floor" -v now="$now" -v allocs="$allocs" \
        -v legacy="$legacy_allocs" -v copies="$copies" 'BEGIN {
        if (floor == "" || now == "" || allocs == "" || legacy == "" || copies == "") {
            printf "FAIL: wire cell missing from snapshot or baseline\n"
            exit 1
        }
        limit = floor * 0.8
        if (now + 0 < limit) {
            printf "FAIL: wire throughput regressed: %.1f MB/s < 80%% of committed %.1f MB/s\n", now, floor
            exit 1
        }
        if (allocs + 0 > 4.0) {
            printf "FAIL: zero-copy path allocates %.2f/frame, over the absolute ceiling of 4\n", allocs
            exit 1
        }
        if (allocs + 0 > legacy * 0.5) {
            printf "FAIL: allocations/frame %.2f not <= half of legacy %.2f\n", allocs, legacy
            exit 1
        }
        if (copies + 0 != 0) {
            printf "FAIL: receive path made %s payload copies; zero-copy invariant broken\n", copies
            exit 1
        }
        printf "ok: wire %.1f MB/s (floor %.1f), %.2f allocs/frame (legacy %.2f), 0 payload copies\n", now, limit, allocs, legacy
    }' || return 1
}
if ! wire_gate target/bench_smoke.json; then
    echo "wire gate missed; re-measuring once to rule out a cold start"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    wire_gate target/bench_smoke.json
fi

echo "==> failover MTTR ceiling (vs committed BENCH_PR4.json, 20% slack)"
# Lower is better here, so the gate is inverted: fail when the measured
# recovery time exceeds 120% of the committed baseline. The MTTR cell is
# deterministic virtual-time replay, but it keeps the same one-retry shape
# as the throughput gate so a perturbed runner gets one clean re-measure.
mttr_gate() { # mttr_gate SNAPSHOT -> 0 if every probe stays under the ceiling
    local snapshot="$1"
    for key in detection_ms mttr_ms; do
        baseline=$(extract BENCH_PR4.json mttr "$key")
        now=$(extract "$snapshot" mttr "$key")
        awk -v baseline="$baseline" -v now="$now" -v name="mttr.$key" 'BEGIN {
            if (baseline == "" || now == "") {
                printf "FAIL: %s missing from snapshot or baseline\n", name
                exit 1
            }
            limit = baseline * 1.2
            if (now + 0 > limit) {
                printf "FAIL: %s regressed: %.1f ms > 120%% of committed %.1f ms\n", name, now, baseline
                exit 1
            }
            printf "ok: %s %.1f ms (ceiling %.1f)\n", name, now, limit
        }' || return 1
    done
}
if ! mttr_gate target/bench_smoke.json; then
    echo "ceiling exceeded; re-measuring once to rule out a perturbed runner"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    mttr_gate target/bench_smoke.json
fi

echo "==> fleet MTTR ceiling (real-process cluster, absolute bounds)"
# Inverted gate on the fleet_mttr cell: the PR-9 acceptance bars are
# absolute wall-clock ceilings (detection < 1 s, fleet MTTR < 2 s,
# delivery >= 90%, zero double-counted frames). The committed
# BENCH_PR9.json MTTR is tens of milliseconds — gating relative to it
# would flake on report-tick alignment, so the ceilings are the
# acceptance bars themselves, far above run-to-run noise. Same one-retry
# shape as the other gates.
fleet_gate() { # fleet_gate SNAPSHOT -> 0 if the fleet recovered inside the bars
    local snapshot="$1"
    if awk '/"fleet_mttr":/ && /"skipped"/ { found = 1 } END { exit !found }' "$snapshot"; then
        echo "FAIL: fleet_mttr skipped — node/coordinator binaries missing despite the build above"
        return 1
    fi
    detect=$(extract "$snapshot" fleet_mttr detect_ms)
    mttr=$(extract "$snapshot" fleet_mttr mttr_ms)
    ratio=$(extract "$snapshot" fleet_mttr delivery_ratio)
    doubled=$(extract "$snapshot" fleet_mttr double_counted)
    awk -v detect="$detect" -v mttr="$mttr" -v ratio="$ratio" -v doubled="$doubled" 'BEGIN {
        if (detect == "" || mttr == "" || ratio == "" || doubled == "") {
            printf "FAIL: fleet_mttr cell missing from snapshot\n"
            exit 1
        }
        if (detect + 0 <= 0 || detect + 0 >= 1000) {
            printf "FAIL: node-loss detection %.0f ms not under 1 s\n", detect
            exit 1
        }
        if (mttr + 0 <= 0 || mttr + 0 >= 2000) {
            printf "FAIL: fleet MTTR %.0f ms not under 2 s\n", mttr
            exit 1
        }
        if (ratio + 0 < 0.9) {
            printf "FAIL: fleet delivery %.1f%% below 90%%\n", ratio * 100
            exit 1
        }
        if (doubled + 0 != 0) {
            printf "FAIL: exactly-once violated: %s frames counted twice\n", doubled
            exit 1
        }
        printf "ok: fleet detect %.0f ms, mttr %.0f ms, delivery %.1f%%, 0 double-counted\n", detect, mttr, ratio * 100
    }' || return 1
}
if ! fleet_gate target/bench_smoke.json; then
    echo "fleet gate missed; re-measuring once to rule out a perturbed runner"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    fleet_gate target/bench_smoke.json
fi

echo "==> ML kernel speedup floors (vs committed BENCH_PR5.json, 20% slack)"
# Like the codec gate, this one floors the word/scalar *speedup ratio*
# rather than absolute throughput: quick-mode absolute numbers on a shared
# single-core runner swing +/-30% with load, but scalar and word kernels
# slow down together, so the ratio cancels runner speed. A real regression
# (lost autovectorization, a fallback to the scalar path) drags the ratio
# toward 1.0 and trips the floor regardless of how fast the runner is.
ml_gate() { # ml_gate SNAPSHOT -> 0 if every kernel cell clears the floor
    local snapshot="$1"
    for cell in pose distance kmeans_assign knn; do
        floor=$(extract BENCH_PR5.json "$cell" speedup_x)
        now=$(extract "$snapshot" "$cell" speedup_x)
        awk -v floor="$floor" -v now="$now" -v name="ml.$cell.speedup_x" 'BEGIN {
            if (floor == "" || now == "") {
                printf "FAIL: %s missing from snapshot or baseline\n", name
                exit 1
            }
            limit = floor * 0.8
            if (now + 0 < limit) {
                printf "FAIL: %s regressed: %.2fx < 80%% of committed %.2fx\n", name, now, floor
                exit 1
            }
            printf "ok: %s %.2fx (floor %.2fx)\n", name, now, limit
        }' || return 1
    done
}
if ! ml_gate target/bench_smoke.json; then
    echo "floor missed; re-measuring once to rule out a cold start"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    ml_gate target/bench_smoke.json
fi

echo "==> k-NN single-query gates (production shape: 450 x 510 model, batch of one)"
# The ml.knn cell above amortises any per-call set-up over 64 queries of
# dim 34, which is how a per-call transpose of the whole training set went
# unseen. This cell classifies as the pipeline does — one 510-dim window
# per handle_batch against the deployed model — next to the same query
# through one-shot distances_into, which transposes on every call. The
# deployed model is large enough that fit gives it the bound-pruned search
# (knn::BOUNDED_MIN_BYTES) instead of a frozen block. Two bars, neither
# tied to runner speed: the index built at fit must be at least 3x faster
# than the transposing arm measured in the SAME run (the two slow down
# together under load; a transpose creeping back drags the ratio to ~1),
# and a call may allocate at most 16 KB (request and response plumbing
# plus one 450-float bound row; the transpose alone was 918 KB).
# Allocation counts are deterministic.
knn_single_gate() { # knn_single_gate SNAPSHOT -> 0 if ratio and bytes hold
    local snapshot="$1"
    speedup=$(extract "$snapshot" knn_single_query speedup_x)
    bytes=$(extract "$snapshot" knn_single_query alloc_bytes_per_call)
    allocs=$(extract "$snapshot" knn_single_query allocs_per_call)
    awk -v speedup="$speedup" -v bytes="$bytes" -v allocs="$allocs" 'BEGIN {
        if (speedup == "" || bytes == "" || allocs == "") {
            printf "FAIL: knn_single_query cell missing from snapshot\n"
            exit 1
        }
        if (speedup + 0 < 3.0) {
            printf "FAIL: single-query k-NN only %.2fx faster than transposing per call (< 3x): is the training block rebuilt per query?\n", speedup
            exit 1
        }
        if (bytes + 0 > 16384) {
            printf "FAIL: single-query classify allocates %.0f B per call, over the 16 KB ceiling\n", bytes
            exit 1
        }
        printf "ok: single-query k-NN %.2fx vs transpose-per-call, %.1f allocs / %.0f B per call (ceiling 16384 B)\n", speedup, allocs, bytes
    }' || return 1
}
if ! knn_single_gate target/bench_smoke.json; then
    echo "gate missed; re-measuring once to rule out a cold start"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    knn_single_gate target/bench_smoke.json
fi

echo "==> saturated dispatch: batched floor (vs committed BENCH_PR3.json), modeled capacity ceiling"
# Extracting throughput_rps from the one-line "saturated" cell picks the
# LAST occurrence on the line (awk's greedy .*), i.e. the batch=8 number.
# The committed baseline is a full-mode (2 s per cell) measurement while
# the smoke run is quick mode (700 ms per cell), where warm-up eats a much
# larger share — so the floor is 50% of the committed throughput. That is
# still well above what a broken batching path can reach: unbatched
# quick-mode dispatch saturates near a third of the committed batch=8
# number, so losing the amortisation trips this gate. The ceiling is the
# per-host horizon's signature: the cell's one container serves one 2 ms
# request at a time unbatched, 500 req/s, whatever the 2400 req/s offered
# — a host that answered everything on a timer would read the offer.
sat_gate() { # sat_gate SNAPSHOT -> 0 if batch=8 holds its floor and batch=1 its ceiling
    local snapshot="$1"
    baseline=$(extract BENCH_PR3.json saturated throughput_rps)
    now=$(extract "$snapshot" saturated throughput_rps)
    unbatched=$(awk '/"saturated":/ {
        line = $0
        sub(/.*"batch1": *\{"throughput_rps": */, "", line)
        sub(/[,}].*/, "", line)
        print line
        exit
    }' "$snapshot")
    awk -v baseline="$baseline" -v now="$now" -v unbatched="$unbatched" 'BEGIN {
        if (baseline == "" || now == "" || unbatched == "") {
            printf "FAIL: saturated throughput_rps missing from snapshot or baseline\n"
            exit 1
        }
        limit = baseline * 0.5
        if (now + 0 < limit) {
            printf "FAIL: saturated batch=8 dispatch regressed: %.0f req/s < 50%% of committed %.0f req/s\n", now, baseline
            exit 1
        }
        if (unbatched + 0 > 550) {
            printf "FAIL: saturated batch=1 dispatch %.0f req/s above the 550 req/s ceiling of one 2 ms container\n", unbatched
            exit 1
        }
        printf "ok: saturated batch=8 dispatch %.0f req/s (floor %.0f), batch=1 %.0f req/s (ceiling 550)\n", now, limit, unbatched
    }' || return 1
}
if ! sat_gate target/bench_smoke.json; then
    echo "floor missed; re-measuring once to rule out a cold start"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    sat_gate target/bench_smoke.json
fi

echo "==> SLO spike gate (controller holds p99; static config violates)"
# The flash-crowd cell is deterministic virtual-time replay: with the
# controller actuating, the worst steady-state window p99 must hold the
# SLO; with the same config in shadow mode it must violate it (otherwise
# the experiment proves nothing). Same one-retry shape as the other
# gates so a perturbed runner gets one clean re-measure.
slo_gate() { # slo_gate SNAPSHOT -> 0 if the controller holds and static fails
    local snapshot="$1"
    slo=$(extract "$snapshot" slo slo_ms)
    on=$(extract "$snapshot" slo spike_p99_on_ms)
    off=$(extract "$snapshot" slo spike_p99_off_ms)
    awk -v slo="$slo" -v on="$on" -v off="$off" 'BEGIN {
        if (slo == "" || on == "" || off == "") {
            printf "FAIL: slo cell missing from snapshot\n"
            exit 1
        }
        if (on + 0 > slo + 0) {
            printf "FAIL: controller failed to hold p99 through the spike: %.1f ms > SLO %.0f ms\n", on, slo
            exit 1
        }
        if (off + 0 <= slo + 0) {
            printf "FAIL: static config unexpectedly met the SLO (%.1f ms <= %.0f ms); the spike is too weak\n", off, slo
            exit 1
        }
        printf "ok: spike p99 %.1f ms with controller (SLO %.0f ms), %.1f ms without\n", on, slo, off
    }' || return 1
}
if ! slo_gate target/bench_smoke.json; then
    echo "slo gate missed; re-measuring once to rule out a perturbed runner"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    slo_gate target/bench_smoke.json
fi

echo "==> reactor scale gates (vs committed BENCH_PR7.json)"
# Three probes on the reactor fleet cell. The committed baseline is a
# full-mode 10k-pipeline run while the smoke run deploys 1.5k, possibly on
# a different core count, so liveness is compared as the fraction of
# deployed pipelines that delivered (pipelines_per_core x cores /
# pipelines, on both sides): it must stay within 80% of the committed
# fraction (normally both are simply "every pipeline delivered"). The
# memory ceiling compares KiB per pipeline directly (50% slack for
# allocator noise at the smaller fleet). The thread assertion is absolute:
# an inproc fleet runs on the workers alone — at most cores + 1 threads,
# whatever the pipeline count — the property the reactor exists to
# provide.
reactor_gate() { # reactor_gate SNAPSHOT -> 0 if scale, memory and threads hold
    local snapshot="$1"
    base_ppc=$(extract BENCH_PR7.json reactor pipelines_per_core)
    base_n=$(extract BENCH_PR7.json reactor pipelines)
    base_mem=$(extract BENCH_PR7.json reactor memory_per_pipeline_kb)
    base_cores=$(extract BENCH_PR7.json reactor cores)
    now_ppc=$(extract "$snapshot" reactor pipelines_per_core)
    now_n=$(extract "$snapshot" reactor pipelines)
    now_mem=$(extract "$snapshot" reactor memory_per_pipeline_kb)
    now_threads=$(extract "$snapshot" reactor reactor_threads)
    now_cores=$(extract "$snapshot" reactor cores)
    awk -v bppc="$base_ppc" -v bn="$base_n" -v bmem="$base_mem" -v bcores="$base_cores" \
        -v ppc="$now_ppc" -v n="$now_n" -v mem="$now_mem" \
        -v threads="$now_threads" -v cores="$now_cores" 'BEGIN {
        if (bppc == "" || bn == "" || bmem == "" || bcores == "" || ppc == "" || n == "" || mem == "" || threads == "" || cores == "") {
            printf "FAIL: reactor cell missing from snapshot or baseline\n"
            exit 1
        }
        floor = 0.8 * (bppc * bcores / bn)
        live = ppc * cores / n
        if (live < floor) {
            printf "FAIL: reactor liveness regressed: %.2f of deployed pipelines live < floor %.2f\n", live, floor
            exit 1
        }
        ceiling = bmem * 1.5
        if (mem + 0 > ceiling) {
            printf "FAIL: reactor memory regressed: %.1f KiB/pipeline > 150%% of committed %.1f\n", mem, bmem
            exit 1
        }
        if (threads + 0 > cores + 1) {
            printf "FAIL: reactor thread count not O(cores): %d threads > %d cores + 1\n", threads, cores
            exit 1
        }
        printf "ok: reactor %s pipelines live/core (of %s deployed), %.1f KiB/pipeline (ceiling %.1f), %d threads on %d core(s)\n", ppc, n, mem, ceiling, threads, cores
    }' || return 1
}
if ! reactor_gate target/bench_smoke.json; then
    echo "reactor gate missed; re-measuring once to rule out a perturbed runner"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    reactor_gate target/bench_smoke.json
fi

echo "==> reactor timer lag gate (idle p50 lateness <= 100 us)"
# The reactor.timer_lag cell fires 1000 recurring 25 Hz deadlines on an
# idle reactor. Workers own their timers, run with 1 ns timer slack and
# wake ahead of their next deadline by their learnt wake-up latency, then
# spin to it, so a tick is late by little more than the part of a
# wake-up the learnt average missed; a timer thread, a slot quantisation
# or a poll in that path shows up here as 150 us and more. The spin's CPU
# (idle_spin_us_per_s) and the loaded arm (a CPU-bound fleet in front of
# every deadline) are reported, not gated. One retry.
timer_lag_gate() { # timer_lag_gate SNAPSHOT -> 0 if idle p50 lateness holds
    local snapshot="$1"
    p50=$(extract "$snapshot" reactor_timer_lag idle_p50_us)
    p99=$(extract "$snapshot" reactor_timer_lag idle_p99_us)
    parks=$(extract "$snapshot" reactor_timer_lag idle_parks_per_s)
    awk -v p50="$p50" -v p99="$p99" -v parks="$parks" 'BEGIN {
        if (p50 == "" || p99 == "" || parks == "") {
            printf "FAIL: reactor_timer_lag cell missing from snapshot\n"
            exit 1
        }
        if (p50 + 0 > 100) {
            printf "FAIL: idle timer lateness p50 %.0f us > 100 us\n", p50
            exit 1
        }
        printf "ok: idle timer lateness p50 %.0f us (ceiling 100), p99 %.0f us, %.0f parks/s\n", p50, p99, parks
    }' || return 1
}
if ! timer_lag_gate target/bench_smoke.json; then
    echo "timer lag gate missed; re-measuring once to rule out a perturbed runner"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    timer_lag_gate target/bench_smoke.json
fi

echo "==> multi-core reactor scaling gate (>=1.6x at N workers vs 1)"
# The reactor_scaling cell drains the same CPU-bound fleet at workers=1
# and workers=cores; per-worker run queues + stealing must buy at least
# 1.6x on a multi-core runner. On a single-core runner the bench emits an
# explicit skip marker (carrying the detected core count) and the gate
# honours it — there is nothing to parallelise. Same one-retry shape as
# the other gates.
scaling_gate() { # scaling_gate SNAPSHOT -> 0 if the sweep scaled (or was skipped)
    local snapshot="$1"
    if awk '/"reactor_scaling":/ && /"skipped"/ { found = 1 } END { exit !found }' "$snapshot"; then
        cores=$(extract "$snapshot" reactor_scaling cores_detected)
        echo "ok: reactor scaling skipped (single core runner, cores_detected=$cores)"
        return 0
    fi
    fps1=$(extract "$snapshot" reactor_scaling workers_1_fps)
    fpsn=$(extract "$snapshot" reactor_scaling workers_max_fps)
    workers=$(extract "$snapshot" reactor_scaling max_workers)
    awk -v fps1="$fps1" -v fpsn="$fpsn" -v workers="$workers" 'BEGIN {
        if (fps1 == "" || fpsn == "" || workers == "") {
            printf "FAIL: reactor_scaling cell missing from snapshot\n"
            exit 1
        }
        speedup = (fps1 + 0 > 0) ? fpsn / fps1 : 0
        if (speedup < 1.6) {
            printf "FAIL: reactor scaling too flat: %.0f f/s at 1 worker -> %.0f f/s at %d (%.2fx < 1.6x)\n", fps1, fpsn, workers, speedup
            exit 1
        }
        printf "ok: reactor scaling %.0f f/s -> %.0f f/s at %d workers (%.2fx)\n", fps1, fpsn, workers, speedup
    }' || return 1
}
if ! scaling_gate target/bench_smoke.json; then
    echo "scaling gate missed; re-measuring once to rule out a perturbed runner"
    cargo run --release -q -p videopipe-bench --bin bench_snapshot -- \
        --quick --out target/bench_smoke.json
    scaling_gate target/bench_smoke.json
fi

echo "==> reactor chaos stress at workers=1 and workers=cores (release)"
# The 1,000-pipeline chaos matrix must hold under both the single-worker
# scheduler and the full multi-core pool (local queues, stealing,
# worker-owned timers): delivery, credit conservation and wedge-freedom are
# worker-count-invariant properties. Release build — debug is too slow
# for a 2,000-pipeline aggregate run in CI.
cargo test -q --release --test reactor_stress one_thousand_pipelines

echo "==> cluster smoke (3 real node processes, SIGKILL one, recover)"
# Multi-process acceptance: a 3-node fleet of real OS processes loses one
# node to SIGKILL and must detect (< 1 s), fail the orphaned tenants over
# (MTTR < 2 s), keep >= 90% delivery and count every frame exactly once.
# Bounded wall-clock: every child carries a --run-for-ms backstop.
scripts/cluster_smoke.sh

rm -f target/bench_smoke.json

echo "All checks passed."
