//! Hot-path performance snapshot, emitted as machine-readable JSON.
//!
//! Measures the surfaces the hot-path, micro-batching, and ML-kernel
//! overhauls touched — codec kernels (word-wide vs the scalar reference
//! oracle), the ML/vision kernels (fused word-wide pose scan, fused
//! distance matrix, k-means assignment, batched k-NN — each against its
//! scalar oracle), per-(frame, quality) encode caching under fan-out,
//! inproc transport roundtrips, and the
//! service-dispatch saturation sweep (offered load × batch setting) —
//! plus the self-healing failover MTTR cell (a deterministic sim crashes
//! a mid-pipeline device and the recovery timeline is reported in
//! virtual time) and the SLO-controller spike cell (a 10× flash crowd
//! with the degradation controller on vs the same config in shadow mode,
//! with the quality knob's accuracy cost measured end-to-end) — plus the
//! reactor scale cells (`pipelines_per_core`, `memory_per_pipeline`, OS
//! thread count), the
//! `reactor.timer_lag` cell (how late 1000 recurring 25 Hz deadlines fire,
//! idle and next to a CPU-bound fleet, and how often workers sleep), and the
//! multi-core `reactor_scaling` sweep (the same CPU-bound fleet drained
//! at `workers=1` vs `workers=cores`, with work-stealing and wake
//! counters; skipped with an explicit marker on single-core runners) —
//! plus the `fleet_mttr` cell: the cluster chaos harness SIGKILLs one of
//! three real `videopipe-node` processes mid-run and reports wall-clock
//! detection latency, fleet MTTR, delivery ratio and the exactly-once
//! violation count from the coordinator's status file (skipped with an
//! explicit marker when the node/coordinator binaries are not built) —
//! and the zero-copy wire cell (single-connection loopback throughput and
//! allocations/frame for the legacy contiguous codec vs the pooled
//! decode + vectored encode data plane, measured under a counting global
//! allocator) —
//! and writes the results to `BENCH_PR10.json` (override with `--out`).
//! `--quick` shrinks iteration counts so the run doubles as a CI smoke
//! test.
//!
//! Run with `scripts/bench_snapshot.sh` or directly:
//! `cargo run --release -p videopipe-bench --bin bench_snapshot -- --quick`

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use videopipe_apps::{activity_test_accuracy_at_quality, trained_fitness_classifier};
use videopipe_core::deploy::{plan, DeviceSpec, Placement};
use videopipe_core::message::Payload;
use videopipe_core::module::{Event, Module, ModuleCtx, ModuleRegistry};
use videopipe_core::reactor::{ReactorConfig, ReactorRuntime};
use videopipe_core::runtime::{BatchConfig, RuntimeConfig};
use videopipe_core::service::{
    Service, ServiceCost, ServiceRegistry, ServiceRequest, ServiceResponse,
};
use videopipe_core::slo::{Knob, SloConfig};
use videopipe_core::spec::{ModuleSpec, PipelineSpec};
use videopipe_core::PipelineError;
use videopipe_media::scene::SceneRenderer;
use videopipe_media::{codec, Frame, FrameStore, Pose};
use videopipe_net::{
    BufferPool, FrameBatch, InprocHub, MsgReceiver, MsgSender, StreamDecoder, WireMessage,
};
use videopipe_sim::{FailoverConfig, FaultPlan, LoadPlan, Scenario, SimProfile};

/// Counts heap allocation calls and requested bytes so the wire cell can
/// report allocations/frame and the k-NN cell bytes/call. Lives in this
/// binary (its own compilation unit), so the library crates keep
/// `#![forbid(unsafe_code)]`.
struct CountingAlloc;

static ALLOC_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static ALLOC_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

// SAFETY: every method delegates directly to the system allocator; the
// only addition is two relaxed counter bumps, which allocate nothing.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, std::sync::atomic::Ordering::Relaxed);
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    quick: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: "BENCH_PR10.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => {
                args.out = it.next().unwrap_or_else(|| {
                    eprintln!(
                        "--out requires a path; usage: bench_snapshot [--quick] [--out PATH]"
                    );
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: bench_snapshot [--quick] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Heap allocation calls and requested bytes made by `iters` calls of `f`,
/// per call. Counts are process-wide: call it while nothing else runs.
fn allocs_per_call(iters: usize, mut f: impl FnMut()) -> (f64, f64) {
    use std::sync::atomic::Ordering::Relaxed;
    let (calls, bytes) = (ALLOC_CALLS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    for _ in 0..iters {
        f();
    }
    let calls = ALLOC_CALLS.load(Relaxed) - calls;
    let bytes = ALLOC_BYTES.load(Relaxed) - bytes;
    (calls as f64 / iters as f64, bytes as f64 / iters as f64)
}

/// Median-of-3 wall time for `iters` calls of `f`, in seconds.
fn time_iters(iters: usize, mut f: impl FnMut()) -> f64 {
    // Warm-up, then take the median of three batches: one preempted batch
    // cannot drag the number, and unlike best-of-3 the median does not
    // systematically flatter the kernel on an idle machine.
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let mut runs = [0.0f64; 3];
    for run in &mut runs {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        *run = start.elapsed().as_secs_f64();
    }
    runs.sort_by(f64::total_cmp);
    runs[1]
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

fn improvement_pct(before: f64, after: f64) -> f64 {
    if before <= 0.0 {
        0.0
    } else {
        (after - before) / before * 100.0
    }
}

/// Runs per frame and the share of pixels in zero-valued runs — what the
/// codec kernels' cost depends on — read off valid encodings.
fn run_profile(encoded: &[bytes::Bytes]) -> (f64, f64) {
    fn varint(body: &mut &[u8]) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let byte = body[0];
            *body = &body[1..];
            v |= u64::from(byte & 0x7F) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                return v;
            }
        }
    }
    let (mut runs, mut zero, mut pixels) = (0u64, 0u64, 0u64);
    for frame in encoded {
        // Magic, version, shift, width, height; then seq and timestamp.
        let mut body = &frame[14..];
        varint(&mut body);
        varint(&mut body);
        while !body.is_empty() {
            let run = varint(&mut body);
            runs += 1;
            pixels += run;
            if body[0] == 0 {
                zero += run;
            }
            body = &body[1..];
        }
    }
    (
        runs as f64 / encoded.len() as f64,
        zero as f64 / pixels as f64,
    )
}

/// Median-of-3 time of one call of `f`, in µs, with `f` handed the indices
/// `0..len` in a cycle: a kernel timed on one repeated input trains the
/// branch predictor on it.
fn time_cycled_us(iters: usize, len: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut i = 0;
    let total_s = time_iters(iters, || {
        f(i % len);
        i += 1;
    });
    total_s / iters as f64 * 1e6
}

/// One codec cell: the kernels against the scalar oracle on `frames`.
fn codec_cell(
    name: &str,
    frames: &[Frame],
    quality: codec::Quality,
    iters: usize,
    out: &mut String,
) {
    use std::hint::black_box;
    let n = frames.len();
    let encoded: Vec<bytes::Bytes> = frames.iter().map(|f| codec::encode(f, quality)).collect();
    let scalar_encode_us = time_cycled_us(iters, n, |i| {
        black_box(codec::encode_scalar(black_box(&frames[i]), quality));
    });
    let encode_us = time_cycled_us(iters, n, |i| {
        black_box(codec::encode(black_box(&frames[i]), quality));
    });
    let scalar_decode_us = time_cycled_us(iters, n, |i| {
        black_box(codec::decode_scalar(black_box(&encoded[i])).unwrap());
    });
    let decode_us = time_cycled_us(iters, n, |i| {
        black_box(codec::decode(black_box(&encoded[i])).unwrap());
    });
    let mut next = 0..n;
    let (encode_allocs, encode_alloc_bytes) = allocs_per_call(n, || {
        black_box(codec::encode(&frames[next.next().unwrap()], quality));
    });
    let mut next = 0..n;
    let (decode_allocs, decode_alloc_bytes) = allocs_per_call(n, || {
        black_box(codec::decode(&encoded[next.next().unwrap()]).unwrap());
    });
    // The last hop of the receive path: from a message's payload to the
    // encoded frame inside it, which is a slice of that payload.
    let payloads: Vec<bytes::Bytes> = encoded
        .iter()
        .map(|e| Payload::EncodedFrame(e.clone()).encode())
        .collect();
    let mut next = 0..n;
    let (rx_allocs, rx_alloc_bytes) = allocs_per_call(n, || {
        black_box(Payload::decode(&payloads[next.next().unwrap()]).unwrap());
    });
    let (runs, zero_share) = run_profile(&encoded);
    let encoded_bytes = encoded.iter().map(|e| e.len()).sum::<usize>() as f64 / n as f64;
    let pixels = frames[0].raw_size();
    let (encode_x, decode_x) = (scalar_encode_us / encode_us, scalar_decode_us / decode_us);
    println!(
        "codec {name}: encode {scalar_encode_us:.1} -> {encode_us:.1} us ({encode_x:.2}x), decode \
         {scalar_decode_us:.1} -> {decode_us:.1} us ({decode_x:.2}x); {runs:.0} runs/frame, \
         {:.1}% zero-delta pixels, {encoded_bytes:.0} B; allocated {encode_alloc_bytes:.0} B \
         per encode, {decode_alloc_bytes:.0} B per decode, {rx_alloc_bytes:.0} B per \
         Payload::decode",
        zero_share * 100.0
    );
    let _ = writeln!(
        out,
        r#"  "codec_{name}": {{"scalar_encode_us": {scalar_encode_us:.1}, "encode_us": {encode_us:.1}, "encode_speedup_x": {encode_x:.2}, "scalar_decode_us": {scalar_decode_us:.1}, "decode_us": {decode_us:.1}, "decode_speedup_x": {decode_x:.2}, "runs_per_frame": {runs:.0}, "zero_delta_share": {zero_share:.4}, "pixels": {pixels}, "encoded_bytes": {encoded_bytes:.0}, "encode_allocs": {encode_allocs:.1}, "encode_alloc_bytes": {encode_alloc_bytes:.0}, "decode_allocs": {decode_allocs:.1}, "decode_alloc_bytes": {decode_alloc_bytes:.0}, "rx_payload_allocs": {rx_allocs:.1}, "rx_payload_alloc_bytes": {rx_alloc_bytes:.0}}},"#
    );
}

/// Codec kernels against the scalar oracle on three kinds of 320x240
/// frame: as the fitness app's camera films them (sensor noise σ = 1.5 —
/// the traffic every cross-device edge carries), the same scene without
/// noise (a ninth of the runs; what this section timed alone before
/// PR 15), and uniformly random pixels, lossless (every run of length 1:
/// the worst case).
fn codec_section(quick: bool, out: &mut String) {
    use videopipe_media::motion::{ExerciseKind, MotionClip};
    const RING: u64 = 30;
    let mut camera = videopipe_media::SyntheticVideoSource::new(
        videopipe_apps::fitness::source_config(42),
        MotionClip::new(ExerciseKind::Squat, 2.0).with_jitter(0.004),
    );
    let ring: Vec<Frame> = (0..RING)
        .map(|i| camera.capture(i * (2_000_000_000 / RING)))
        .collect();
    let noise_free = [SceneRenderer::new(320, 240).render(&Pose::default(), 0, 0)];
    let mut seed = 42u64;
    let random: Vec<u8> = (0..320 * 240)
        .map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u8
        })
        .collect();
    let dense = [Frame::from_pixels(320, 240, random, 0, 0)];
    let iters = if quick { 150 } else { 900 };
    codec_cell("camera", &ring, codec::Quality::default(), iters, out);
    codec_cell(
        "noise_free",
        &noise_free,
        codec::Quality::default(),
        iters,
        out,
    );
    codec_cell("dense", &dense, codec::Quality::LOSSLESS, iters / 5, out);
}

#[derive(Clone, Copy)]
enum WireArm {
    /// PR 9 data plane: contiguous per-batch encode + `write_all` on the
    /// send side, copy-into-accumulator reassembly + copying decode on
    /// the receive side.
    Legacy,
    /// PR 10 data plane: staged iovec batches flushed with
    /// `write_vectored`, pooled chunk decode with payloads as zero-copy
    /// slices of the read buffer.
    ZeroCopy,
}

/// Pumps `msgs` over a single loopback TCP connection with the given data
/// plane and returns (elapsed seconds, allocation calls) for the whole
/// transfer — sender and receiver run in this process, so the counting
/// allocator sees both directions.
fn run_wire_arm(msgs: Vec<WireMessage>, arm: WireArm) -> (f64, u64) {
    use std::io::{Read, Write};

    const FLUSH_CHUNK: usize = 64 * 1024;
    let frames = msgs.len() as u64;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    let allocs_before = ALLOC_CALLS.load(std::sync::atomic::Ordering::Relaxed);
    let start = Instant::now();
    let sender = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect loopback");
        stream.set_nodelay(true).expect("nodelay");
        match arm {
            WireArm::Legacy => {
                let mut buf = bytes::BytesMut::new();
                let mut it = msgs.iter().peekable();
                while it.peek().is_some() {
                    buf.clear();
                    while buf.len() < FLUSH_CHUNK {
                        let Some(msg) = it.next() else { break };
                        msg.encode_framed_into(&mut buf).expect("encode");
                    }
                    stream.write_all(&buf).expect("write_all");
                }
            }
            WireArm::ZeroCopy => {
                let mut batch = FrameBatch::new();
                let mut it = msgs.iter().peekable();
                while it.peek().is_some() || !batch.is_empty() {
                    while batch.pending_bytes() < FLUSH_CHUNK {
                        let Some(msg) = it.next() else { break };
                        batch.stage(msg).expect("stage");
                    }
                    while !batch.is_empty() {
                        batch
                            .write_some(&mut stream, FLUSH_CHUNK, 64)
                            .expect("write_some");
                    }
                }
            }
        }
    });

    let (mut conn, _) = listener.accept().expect("accept loopback");
    conn.set_nodelay(true).expect("nodelay");
    let mut got = 0u64;
    match arm {
        WireArm::Legacy => {
            let mut acc = bytes::BytesMut::new();
            let mut chunk = [0u8; 16 * 1024];
            while got < frames {
                let n = conn.read(&mut chunk).expect("read");
                assert!(n > 0, "peer closed early");
                acc.extend_from_slice(&chunk[..n]);
                loop {
                    if acc.len() < 4 {
                        break;
                    }
                    let len = u32::from_be_bytes([acc[0], acc[1], acc[2], acc[3]]) as usize;
                    if acc.len() < 4 + len {
                        break;
                    }
                    let _ = acc.split_to(4);
                    let body = acc.split_to(len);
                    let msg = WireMessage::decode(&body).expect("decode");
                    std::hint::black_box(&msg);
                    got += 1;
                }
            }
        }
        WireArm::ZeroCopy => {
            // 64 KiB ingress chunks: reads drain a full coalesced flush in
            // one or two syscalls and chunk rotations amortise over ~60
            // frames (the default 16 KiB chunk rotates every ~15).
            let mut decoder = StreamDecoder::new(Arc::new(BufferPool::new(64 * 1024, 8)));
            while got < frames {
                let space = decoder.read_space();
                let n = conn.read(space).expect("read");
                assert!(n > 0, "peer closed early");
                decoder.commit(n);
                while let Some(msg) = decoder.next_frame() {
                    std::hint::black_box(&msg);
                    got += 1;
                }
            }
        }
    }
    sender.join().expect("sender thread");
    let elapsed = start.elapsed().as_secs_f64();
    let allocs = ALLOC_CALLS.load(std::sync::atomic::Ordering::Relaxed) - allocs_before;
    (elapsed, allocs)
}

/// Single-connection wire data plane: the PR 9 contiguous codec vs the
/// pooled-decode + vectored-encode path, over a real loopback socket.
/// Reports throughput AND allocations/frame (counting global allocator),
/// plus the net telemetry deltas that prove the receive path stayed
/// zero-copy.
fn wire_section(quick: bool, out: &mut String) {
    use videopipe_net::telemetry;

    let frames: usize = if quick { 20_000 } else { 100_000 };
    let payload_len = 1024usize;
    let payload = bytes::Bytes::from(vec![0xA5u8; payload_len]);
    // Messages are built once, outside the measured region, so the
    // per-frame numbers isolate the data plane itself rather than the
    // cost of constructing the workload.
    let build = |n: usize| -> Vec<WireMessage> {
        (0..n)
            .map(|i| WireMessage::data("bench/wire", i as u64, 0, payload.clone()))
            .collect()
    };
    let framed_len = 4 + build(1)[0].encoded_len();
    let total_mb = framed_len as f64 * frames as f64 / 1e6;

    // Warm both arms once (page faults, listener setup), then take the
    // fastest of several transfers per arm: sender and receiver share
    // cores with the rest of the machine, so single runs swing with
    // scheduling while the best run tracks the data plane itself.
    // Allocation counts are deterministic, so one run's count stands.
    run_wire_arm(build(frames / 10), WireArm::Legacy);
    run_wire_arm(build(frames / 10), WireArm::ZeroCopy);

    const REPS: u64 = 5;
    let best = |arm: WireArm| -> (f64, u64) {
        (0..REPS)
            .map(|_| run_wire_arm(build(frames), arm))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one run")
    };
    let (legacy_s, legacy_allocs) = best(WireArm::Legacy);
    let before = telemetry::snapshot();
    let (zero_s, zero_allocs) = best(WireArm::ZeroCopy);
    let mut net = telemetry::snapshot().delta_since(&before);
    // The delta spans the measured transfers; scale the per-frame
    // counters back to one run so they line up with `frames`.
    net.rx_zero_copy_frames /= REPS;
    net.rx_payload_copies /= REPS;
    net.rx_chunk_rotations /= REPS;

    let legacy_mb_s = total_mb / legacy_s;
    let zero_mb_s = total_mb / zero_s;
    let legacy_frames_s = frames as f64 / legacy_s;
    let zero_frames_s = frames as f64 / zero_s;
    let legacy_apf = legacy_allocs as f64 / frames as f64;
    let zero_apf = zero_allocs as f64 / frames as f64;
    let speedup = if legacy_mb_s > 0.0 {
        zero_mb_s / legacy_mb_s
    } else {
        0.0
    };
    let alloc_reduction_pct = if legacy_apf > 0.0 {
        (legacy_apf - zero_apf) / legacy_apf * 100.0
    } else {
        0.0
    };
    let iovecs_per_write = if net.tx_vectored_writes > 0 {
        net.tx_iovecs as f64 / net.tx_vectored_writes as f64
    } else {
        0.0
    };

    println!(
        "wire 1-conn ({frames} frames x {payload_len} B): legacy {legacy_mb_s:.1} MB/s \
         {legacy_apf:.2} allocs/frame -> zero-copy {zero_mb_s:.1} MB/s {zero_apf:.2} \
         allocs/frame ({speedup:.2}x, allocs {alloc_reduction_pct:+.1}%)"
    );
    println!(
        "wire rx: {} zero-copy frames, {} payload copies, {} chunk rotations; \
         tx: {:.1} iovecs/write",
        net.rx_zero_copy_frames, net.rx_payload_copies, net.rx_chunk_rotations, iovecs_per_write
    );

    let _ = writeln!(
        out,
        r#"  "wire": {{"frames": {frames}, "payload_bytes": {payload_len}, "legacy_mb_s": {legacy_mb_s:.1}, "legacy_frames_s": {legacy_frames_s:.0}, "legacy_allocs_per_frame": {legacy_apf:.2}, "zero_copy_mb_s": {zero_mb_s:.1}, "zero_copy_frames_s": {zero_frames_s:.0}, "allocs_per_frame": {zero_apf:.2}, "speedup_x": {speedup:.2}, "alloc_reduction_pct": {alloc_reduction_pct:.1}, "rx_zero_copy_frames": {}, "rx_payload_copies": {}, "tx_iovecs_per_write": {iovecs_per_write:.1}}},"#,
        net.rx_zero_copy_frames, net.rx_payload_copies,
    );
}

/// Deterministic pseudo-random f32 vectors for the ML kernel cells, so the
/// bench workload replays identically on every run and host.
fn lcg_vecs(n: usize, dim: usize, seed: &mut u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    *seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((*seed >> 33) as f32 / (1u64 << 31) as f32) * 200.0 - 100.0
                })
                .collect()
        })
        .collect()
}

/// ML/vision kernels against their scalar oracles: the fused word-wide
/// pose scan, the fused distance matrix, the blocked k-means assignment
/// pass, and batched k-NN classification. Each cell is one JSON line so
/// `scripts/check.sh` can gate it with the same awk extractor as the
/// codec cells.
fn ml_section(quick: bool, out: &mut String) {
    use videopipe_apps::ActivityClassifierService;
    use videopipe_ml::math::{
        distances_block_into, distances_into, distances_into_scalar, squared_distance_scalar,
        PointBlock,
    };
    use videopipe_ml::KnnClassifier;
    use videopipe_ml::PoseDetector;

    let _ = writeln!(out, r#"  "ml": {{"#);

    // Pose: the fused single-pass word scan vs the two-pass scalar oracle,
    // on a rendered frame with a real figure (not an empty raster).
    let renderer = SceneRenderer::new(320, 240);
    let frame = renderer.render(
        &videopipe_media::motion::ExerciseKind::Squat.pose_at_phase(0.25),
        0,
        0,
    );
    let detector = PoseDetector::new();
    let iters = if quick { 60 } else { 400 };
    let scalar_s = time_iters(iters, || {
        std::hint::black_box(detector.detect_scalar(&frame));
    });
    let word_s = time_iters(iters, || {
        std::hint::black_box(detector.detect(&frame));
    });
    let pose_scalar_fps = iters as f64 / scalar_s;
    let pose_word_fps = iters as f64 / word_s;
    let pose_speedup = scalar_s / word_s.max(1e-12);
    println!(
        "pose detect 320x240: scalar {pose_scalar_fps:.0} fps -> word {pose_word_fps:.0} fps \
         ({pose_speedup:.2}x)"
    );
    let _ = writeln!(
        out,
        r#"    "pose": {{"scalar_fps": {pose_scalar_fps:.0}, "word_fps": {pose_word_fps:.0}, "speedup_x": {pose_speedup:.2}}},"#
    );

    // Fused distance matrix (one-shot form: transpose + norms paid once
    // per 64-query call) vs the per-pair scalar oracle.
    let mut seed = 0x5EED_CAFE_u64;
    let queries = lcg_vecs(64, 34, &mut seed);
    let points = lcg_vecs(512, 34, &mut seed);
    let iters = if quick { 20 } else { 120 };
    let mut dists = Vec::new();
    let scalar_s = time_iters(iters, || {
        distances_into_scalar(&queries, &points, &mut dists);
        std::hint::black_box(&dists);
    });
    let word_s = time_iters(iters, || {
        distances_into(&queries, &points, &mut dists);
        std::hint::black_box(&dists);
    });
    let cells = (queries.len() * points.len() * iters) as f64;
    let dist_scalar_melems = cells / scalar_s / 1e6;
    let dist_word_melems = cells / word_s / 1e6;
    let dist_speedup = scalar_s / word_s.max(1e-12);
    println!(
        "distance matrix 64x512 dim 34: scalar {dist_scalar_melems:.1} Melem/s -> fused \
         {dist_word_melems:.1} Melem/s ({dist_speedup:.2}x)"
    );
    let _ = writeln!(
        out,
        r#"    "distance": {{"scalar_melems_s": {dist_scalar_melems:.1}, "word_melems_s": {dist_word_melems:.1}, "speedup_x": {dist_speedup:.2}}},"#
    );

    // k-means assignment pass (the per-iteration hot loop), exactly as
    // `KMeans::fit` runs it: the samples are frozen in a PointBlock once
    // per fit (outside the timed pass, like the real amortisation), then
    // each pass is one fused k × n matrix with the centroids as queries
    // plus a column-wise running min.
    let samples = lcg_vecs(2000, 16, &mut seed);
    let centroids = lcg_vecs(8, 16, &mut seed);
    let mut assignments = vec![0usize; samples.len()];
    let scalar_s = time_iters(iters, || {
        for (slot, sample) in assignments.iter_mut().zip(&samples) {
            let mut best = f32::INFINITY;
            let mut best_c = 0;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = squared_distance_scalar(sample, centroid);
                if d < best {
                    best = d;
                    best_c = c;
                }
            }
            *slot = best_c;
        }
        std::hint::black_box(&assignments);
    });
    let block = PointBlock::new(&samples);
    let mut best_dist = vec![0.0f32; samples.len()];
    let word_s = time_iters(iters, || {
        distances_block_into(&centroids, &block, &mut dists);
        let (first_row, rest) = dists.split_at(samples.len());
        best_dist.copy_from_slice(first_row);
        assignments.fill(0);
        for (c, row) in rest.chunks_exact(samples.len()).enumerate() {
            for ((b, a), &d) in best_dist.iter_mut().zip(assignments.iter_mut()).zip(row) {
                if d < *b {
                    *b = d;
                    *a = c + 1;
                }
            }
        }
        std::hint::black_box(&assignments);
    });
    let bytes = (samples.len() * 16 * 4 * iters) as f64;
    let km_scalar_mb_s = bytes / scalar_s / 1e6;
    let km_mb_s = bytes / word_s / 1e6;
    let km_speedup = scalar_s / word_s.max(1e-12);
    println!(
        "k-means assign 2000x16 k=8: scalar {km_scalar_mb_s:.1} MB/s -> blocked {km_mb_s:.1} MB/s \
         ({km_speedup:.2}x)"
    );
    let _ = writeln!(
        out,
        r#"    "kmeans_assign": {{"scalar_mb_s": {km_scalar_mb_s:.1}, "mb_s": {km_mb_s:.1}, "speedup_x": {km_speedup:.2}}},"#
    );

    // Batched k-NN classification (34-dim forces the brute-force path, the
    // shape activity windows take) vs a per-query scalar scan.
    let train = lcg_vecs(400, 34, &mut seed);
    let labels: Vec<String> = (0..train.len()).map(|i| format!("c{}", i % 3)).collect();
    let knn = KnnClassifier::fit(5, train, labels).expect("bench knn fit");
    assert!(!knn.uses_kdtree(), "34-dim data must take the brute path");
    let knn_queries = lcg_vecs(64, 34, &mut seed);
    let iters = if quick { 10 } else { 60 };
    let scalar_s = time_iters(iters, || {
        for q in &knn_queries {
            std::hint::black_box(knn.brute_force_scalar(q));
        }
    });
    let batch_s = time_iters(iters, || {
        std::hint::black_box(knn.predict_batch(&knn_queries).expect("bench knn batch"));
    });
    let total_queries = (knn_queries.len() * iters) as f64;
    let knn_scalar_qs = total_queries / scalar_s;
    let knn_batch_qs = total_queries / batch_s;
    let knn_speedup = scalar_s / batch_s.max(1e-12);
    println!(
        "k-NN 400 samples dim 34 k=5: scalar {knn_scalar_qs:.0} queries/s -> batched \
         {knn_batch_qs:.0} queries/s ({knn_speedup:.2}x)"
    );
    let _ = writeln!(
        out,
        r#"    "knn": {{"scalar_queries_s": {knn_scalar_qs:.0}, "batch_queries_s": {knn_batch_qs:.0}, "speedup_x": {knn_speedup:.2}}},"#
    );

    // The production shape the cell above misses: the deployed fitness
    // model (450 samples × dim 510), one `Payload::Vector` window per
    // `handle_batch` call — the reactor's mean batch is 1.0 — cycling
    // through a 30-window squat ring. The model is over
    // `knn::BOUNDED_MIN_BYTES`, so fit gave it the bound-pruned search
    // (sketches plus the rows they do not rule out); the 400 × 34 cell
    // above keeps the frozen block. The "transposes every call" arm is
    // the same query's distance row through one-shot `distances_into`,
    // which is what every classify paid before the index was built once at
    // fit; it omits top-k and the vote, so the ratio is a floor.
    let model = trained_fitness_classifier(42);
    let config = videopipe_ml::DatasetConfig {
        seed: 42,
        ..Default::default()
    };
    let (train, _) =
        videopipe_ml::synthetic_split(&videopipe_media::motion::ExerciseKind::FITNESS, &config);
    assert_eq!(
        (model.training_size(), model.dim()),
        (train.features.len(), train.features[0].len()),
        "the transpose arm must scan the deployed model's training set"
    );
    let ring = squat_ring_requests();
    let svc = ActivityClassifierService::new(model);
    let store = FrameStore::new();
    let iters = if quick { 300 } else { 3000 };
    let mut next = (0..ring.len()).cycle();
    let transpose_s = time_iters(iters, || {
        let Payload::Vector(features) = &ring[next.next().expect("cycle")].payload else {
            unreachable!("the ring holds feature vectors");
        };
        distances_into(&[features], &train.features, &mut dists);
        std::hint::black_box(&dists);
    });
    let mut classify = || {
        let request = &ring[next.next().expect("cycle")];
        std::hint::black_box(svc.handle_batch(std::slice::from_ref(request), &store));
    };
    let frozen_s = time_iters(iters, &mut classify);
    let (allocs, alloc_bytes) = allocs_per_call(iters, &mut classify);
    let transpose_us = transpose_s / iters as f64 * 1e6;
    let frozen_us = frozen_s / iters as f64 * 1e6;
    let single_speedup = transpose_s / frozen_s.max(1e-12);
    println!(
        "k-NN single query {}x{} k=5: transpose per call {transpose_us:.1} us -> index built at \
         fit {frozen_us:.1} us per handle_batch ({single_speedup:.2}x), {allocs:.1} allocs / \
         {alloc_bytes:.0} B per call",
        train.features.len(),
        train.features[0].len(),
    );
    let _ = writeln!(
        out,
        r#"    "knn_single_query": {{"transpose_us": {transpose_us:.1}, "frozen_us": {frozen_us:.1}, "speedup_x": {single_speedup:.2}, "allocs_per_call": {allocs:.1}, "alloc_bytes_per_call": {alloc_bytes:.0}}}"#
    );
    let _ = writeln!(out, r#"  }},"#);
}

/// Classify requests for a 2 s squat at the 15 fps camera rate, replayed as
/// a ring: one pre-extracted 15-pose window per starting frame.
fn squat_ring_requests() -> Vec<ServiceRequest> {
    use rand::SeedableRng;
    use videopipe_media::motion::{ExerciseKind, MotionClip};
    use videopipe_ml::{window_features, WINDOW_LEN};
    const RING: usize = 30;
    let poses = MotionClip::new(ExerciseKind::Squat, 2.0)
        .with_jitter(0.004)
        .sample_sequence(
            0,
            2_000_000_000 / RING as u64,
            RING,
            &mut rand::rngs::StdRng::seed_from_u64(42),
        );
    (0..RING)
        .map(|start| {
            let window: Vec<Pose> = (0..WINDOW_LEN)
                .map(|i| poses[(start + i) % RING].clone())
                .collect();
            let features = window_features(&window).expect("full window");
            ServiceRequest::new("classify", Payload::Vector(features))
        })
        .collect()
}

/// Fan-out transcoding: N remote destinations with and without the store's
/// per-(frame, quality) encode cache.
fn fanout_section(quick: bool, out: &mut String) {
    const DESTINATIONS: usize = 8;
    let frame = SceneRenderer::new(320, 240).render(&Pose::default(), 1, 0);
    let quality = codec::Quality::default();
    let iters = if quick { 40 } else { 200 };

    let uncached_s = time_iters(iters, || {
        for _ in 0..DESTINATIONS {
            std::hint::black_box(codec::encode(&frame, quality));
        }
    });
    let store = FrameStore::with_capacity(4);
    let id = store.insert(frame);
    let cached_s = time_iters(iters, || {
        for _ in 0..DESTINATIONS {
            std::hint::black_box(store.encoded(id, quality).unwrap());
        }
    });
    let uncached_us = uncached_s / iters as f64 * 1e6;
    let cached_us = cached_s / iters as f64 * 1e6;
    println!(
        "fan-out x{DESTINATIONS}: encode-per-destination {uncached_us:.1} us -> cached \
         {cached_us:.1} us ({:+.1}% time)",
        improvement_pct(uncached_us, cached_us)
    );
    let _ = writeln!(
        out,
        r#"  "fanout_x{DESTINATIONS}": {{"encode_each_us": {uncached_us:.1}, "cached_us": {cached_us:.1}, "speedup_x": {:.1}}},"#,
        uncached_us / cached_us.max(1e-9),
    );
}

/// Spawns an echo executor on `hub` answering requests on `channel`.
fn spawn_echo(
    hub: &InprocHub,
    channel: &str,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let rx = hub.bind(channel).expect("bind echo channel");
    let hub = hub.clone();
    std::thread::spawn(move || {
        while !stop.load(std::sync::atomic::Ordering::SeqCst) {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(msg) => {
                    let reply = WireMessage::response_to(&msg, msg.payload.clone());
                    if let Ok(tx) = hub.connect(&reply.channel.clone()) {
                        let _ = tx.send(reply);
                    }
                }
                Err(_) => continue,
            }
        }
    })
}

/// Inproc request/response roundtrips: the service-call wire path minus
/// the handler, at a control-message and an encoded-frame payload size.
fn roundtrip_section(quick: bool, out: &mut String) {
    let samples = if quick { 400 } else { 3000 };
    let hub = InprocHub::new();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let echo = spawn_echo(&hub, "svc", std::sync::Arc::clone(&stop));
    let reply_rx = hub.bind("reply").expect("bind reply");
    let tx = hub.connect("svc").expect("connect svc");

    let frame = SceneRenderer::new(320, 240).render(&Pose::default(), 2, 0);
    let encoded = codec::encode(&frame, codec::Quality::default());
    let measure = |payload: bytes::Bytes| -> Vec<f64> {
        let mut us = Vec::with_capacity(samples);
        for corr in 0..samples as u64 {
            let start = Instant::now();
            tx.send(WireMessage::request("svc", "reply", corr, payload.clone()))
                .expect("send request");
            let resp = reply_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("echo reply");
            assert_eq!(resp.corr_id, corr);
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        us.sort_by(f64::total_cmp);
        us
    };

    let encoded_len = encoded.len();
    let small = measure(bytes::Bytes::from_static(b"ping"));
    let framed = measure(encoded);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = echo.join();

    let small_p50 = percentile(&small, 50.0);
    let small_p99 = percentile(&small, 99.0);
    let frame_p50 = percentile(&framed, 50.0);
    let frame_p99 = percentile(&framed, 99.0);
    println!("inproc roundtrip 4 B: p50 {small_p50:.1} us, p99 {small_p99:.1} us");
    println!(
        "inproc roundtrip {encoded_len} B (encoded frame): p50 {frame_p50:.1} us, p99 {frame_p99:.1} us"
    );
    let _ = write!(
        out,
        r#"  "inproc_roundtrip": {{"small_p50_us": {small_p50:.1}, "small_p99_us": {small_p99:.1}}},
  "service_call": {{"p50_us": {frame_p50:.1}, "p99_us": {frame_p99:.1}}},
"#,
    );
}

/// CPU-bound service for the scaling sweep: each call burns ~80 us of
/// real CPU, so the fleet's aggregate demand far exceeds one core and
/// extra reactor workers translate into measurable throughput.
struct SpinWork;
impl Service for SpinWork {
    fn name(&self) -> &str {
        "double"
    }
    fn handle(
        &self,
        request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        let t = Instant::now();
        while t.elapsed() < Duration::from_micros(80) {
            std::hint::spin_loop();
        }
        match request.payload {
            Payload::Count(n) => Ok(ServiceResponse::new(Payload::Count(n.wrapping_mul(2)))),
            ref other => Err(PipelineError::Service {
                service: "double".into(),
                reason: format!("expected count, got {}", other.kind_name()),
            }),
        }
    }
}

/// Adds `pipelines` credit-clocked [`SpinWork`] pipelines to `rt`: fps far
/// above what the CPU can serve, so their delivery rate tracks compute
/// capacity and they keep every worker busy.
fn add_spin_fleet(rt: &mut ReactorRuntime, pipelines: usize, time_scale: f64) {
    let (modules, _) = fleet_registries();
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(SpinWork));
    let plan = fleet_plan("spin");
    for _ in 0..pipelines {
        let config = RuntimeConfig {
            fps: 1_000.0,
            credits: 2,
            time_scale,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&plan, &modules, &services, config)
            .expect("spin pipeline");
    }
}

/// One arm of the scaling sweep: a CPU-bound fleet on a reactor with
/// `workers` workers. Returns frames/s and the per-worker scheduler stats
/// snapshot from the run report.
fn scaling_arm(
    workers: usize,
    pipelines: usize,
    wall: Duration,
) -> (f64, Vec<videopipe_core::metrics::WorkerSchedStats>) {
    let mut rt = ReactorRuntime::new(ReactorConfig {
        workers,
        ..ReactorConfig::default()
    });
    add_spin_fleet(&mut rt, pipelines, 1.0);
    let started = Instant::now();
    let reports = rt.run_for(wall);
    let elapsed = started.elapsed().as_secs_f64();
    let delivered: u64 = reports.iter().map(|r| r.metrics.frames_delivered).sum();
    let sched = reports
        .first()
        .map(|r| r.scheduler.clone())
        .unwrap_or_default();
    (delivered as f64 / elapsed, sched)
}

/// Multi-core reactor scaling: the same CPU-bound fleet drained at
/// `workers=1` vs `workers=cores`, with the stealing/wake counters of the
/// multi-worker arm. Replaces the retired `multi_executor` cell — the
/// reactor's own worker pool is now the multi-core dispatch path.
///
/// On a single-core runner the comparison measures scheduler thrash, not
/// parallel draining, so it is skipped with an explicit marker (carrying
/// the detected core count) instead of emitting misleading numbers.
fn reactor_scaling_section(quick: bool, out: &mut String) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores < 2 {
        println!("reactor scaling: skipped (single core)");
        let _ = writeln!(
            out,
            r#"  "reactor_scaling": {{"cores_detected": {cores}, "skipped": "single core"}},"#
        );
        return;
    }
    let pipelines = if quick { 48 } else { 128 };
    let wall = if quick {
        Duration::from_millis(900)
    } else {
        Duration::from_secs(3)
    };
    let (fps1, _) = scaling_arm(1, pipelines, wall);
    let (fps_max, sched) = scaling_arm(cores, pipelines, wall);
    let speedup = if fps1 > 0.0 { fps_max / fps1 } else { 0.0 };
    let steals_attempted: u64 = sched.iter().map(|w| w.steals_attempted).sum();
    let steals_succeeded: u64 = sched.iter().map(|w| w.steals_succeeded).sum();
    let unparks: u64 = sched.iter().map(|w| w.unparks).sum();
    let parks: u64 = sched.iter().map(|w| w.parks).sum();
    println!(
        "reactor scaling ({pipelines} pipelines, ~80 us service, {cores} cores): \
         1 worker {fps1:.0} f/s -> {cores} workers {fps_max:.0} f/s ({speedup:.2}x); \
         steals {steals_succeeded}/{steals_attempted}, unparks {unparks}, parks {parks}"
    );
    let _ = writeln!(
        out,
        r#"  "reactor_scaling": {{"cores_detected": {cores}, "max_workers": {cores}, "pipelines": {pipelines}, "workers_1_fps": {fps1:.0}, "workers_max_fps": {fps_max:.0}, "speedup_x": {speedup:.2}, "steals_attempted": {steals_attempted}, "steals_succeeded": {steals_succeeded}, "unparks": {unparks}}},"#
    );
}

/// Source for the saturation sweep: fans one request-triggering message to
/// every worker module per tick, so offered load is `fps * workers`.
struct SatSource {
    workers: usize,
    seq: u64,
}
impl Module for SatSource {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::FrameTick { .. } = event {
            for w in 0..self.workers {
                ctx.call_module(&format!("w{w}"), Payload::Count(self.seq))?;
            }
            self.seq += 1;
        }
        Ok(())
    }
}

/// Worker: one blocking service call per message, with the end-to-end call
/// latency recorded exactly (no histogram bucketing).
struct SatWorker {
    latencies_us: Arc<Mutex<Vec<f64>>>,
}
impl Module for SatWorker {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            let started = Instant::now();
            ctx.call_service("work", ServiceRequest::new("op", msg.payload))?;
            let us = started.elapsed().as_secs_f64() * 1e6;
            self.latencies_us.lock().unwrap().push(us);
            ctx.call_module("sink", Payload::Count(1))?;
        }
        Ok(())
    }
}

/// Sink: returns one flow-control credit per completed tick's worth of
/// worker responses.
struct SatSink {
    workers: usize,
    seen: usize,
}
impl Module for SatSink {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(_) = event {
            self.seen += 1;
            if self.seen.is_multiple_of(self.workers.max(1)) {
                ctx.signal_source()?;
            }
        }
        Ok(())
    }
}

/// The modeled-cost service under test: a 2 ms base cost per request that
/// batching amortises down to 250 us for followers — the shape of a
/// batched ML kernel (setup + per-item marginal work). Using modeled cost
/// keeps the sweep meaningful on single-core runners, where real parallel
/// speedups cannot be measured.
struct ModeledWork;
impl Service for ModeledWork {
    fn name(&self) -> &str {
        "work"
    }
    fn handle(
        &self,
        _request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        Ok(ServiceResponse::new(Payload::Count(1)))
    }
    fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
        ServiceCost::flat(Duration::from_millis(2)).with_batched_base(Duration::from_micros(250))
    }
}

struct SatResult {
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
    requests: u64,
}

/// Runs one (offered load, batch setting) cell of the saturation sweep
/// through the full runtime and reports dispatch throughput plus exact
/// request-latency percentiles. The one container serves one batch at a
/// time in modeled time, so requests queue — and batch — behind it.
fn saturation_run(workers: usize, fps: f64, max_batch: usize, duration: Duration) -> SatResult {
    let mut spec_src = ModuleSpec::new("src", "SatSource");
    for w in 0..workers {
        spec_src = spec_src.with_next(format!("w{w}"));
    }
    let mut spec = PipelineSpec::new("saturation").with_module(spec_src);
    for w in 0..workers {
        spec = spec.with_module(
            ModuleSpec::new(format!("w{w}"), "SatWorker")
                .with_service("work")
                .with_next("sink"),
        );
    }
    spec = spec.with_module(ModuleSpec::new("sink", "SatSink"));

    let devices = vec![DeviceSpec::new("one", 1.0)
        .with_containers(1)
        .with_service("work")];
    let mut placement = Placement::new().assign("src", "one").assign("sink", "one");
    for w in 0..workers {
        placement = placement.assign(format!("w{w}"), "one");
    }
    let plan = plan(&spec, &devices, &placement).expect("saturation plan");

    let latencies = Arc::new(Mutex::new(Vec::new()));
    let mut modules = ModuleRegistry::new();
    let source_workers = workers;
    modules.register("SatSource", move || {
        Box::new(SatSource {
            workers: source_workers,
            seq: 0,
        })
    });
    let worker_latencies = Arc::clone(&latencies);
    modules.register("SatWorker", move || {
        Box::new(SatWorker {
            latencies_us: Arc::clone(&worker_latencies),
        })
    });
    let sink_workers = workers;
    modules.register("SatSink", move || {
        Box::new(SatSink {
            workers: sink_workers,
            seen: 0,
        })
    });
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(ModeledWork));

    let config = RuntimeConfig {
        fps,
        time_scale: 1.0,
        batch: BatchConfig::up_to(max_batch),
        ..RuntimeConfig::default()
    };
    // One reactor worker per caller: a caller waiting in `call_service`
    // keeps its worker (helping nests only one module deep), so this is
    // what lets every caller have a request queued at the host at once.
    let mut runtime = ReactorRuntime::new(ReactorConfig {
        workers,
        ..ReactorConfig::default()
    });
    runtime
        .add_pipeline(&plan, &modules, &services, config)
        .expect("deploy");
    let started = Instant::now();
    let report = runtime.run_for(duration).remove(0);
    let elapsed = started.elapsed().as_secs_f64();

    let dispatch = report
        .metrics
        .dispatch
        .get("one/work")
        .copied()
        .unwrap_or_default();
    let mut us = latencies.lock().unwrap().clone();
    // Drop warm-up samples (first-tick races) so tail
    // percentiles reflect steady state. Samples are in arrival order here.
    let warmup = if us.len() > 24 { us.len() / 8 } else { 0 };
    us.drain(..warmup);
    us.sort_by(f64::total_cmp);
    SatResult {
        throughput_rps: dispatch.requests as f64 / elapsed.max(1e-9),
        p50_ms: percentile(&us, 50.0) / 1e3,
        p99_ms: percentile(&us, 99.0) / 1e3,
        mean_batch: dispatch.mean_batch(),
        requests: dispatch.requests,
    }
}

/// Service-dispatch saturation sweep: offered load × batch setting, over
/// the real runtime with modeled service cost (2 ms base / 250 us batched
/// follower). Low load must show batching adding no latency; saturation
/// must show the drain policy amortising the base cost.
fn saturation_section(quick: bool, out: &mut String) {
    let duration = if quick {
        Duration::from_millis(700)
    } else {
        Duration::from_secs(2)
    };
    let cells: [(&str, usize, f64); 2] = [
        // One worker at 40 req/s: every request travels alone.
        ("low_load", 1, 40.0),
        // Eight workers saturating one container far beyond its 500 req/s
        // unbatched capacity.
        ("saturated", 8, 300.0),
    ];
    let _ = writeln!(out, r#"  "saturation": {{"#);
    let mut speedup = 0.0;
    for (i, (label, workers, fps)) in cells.iter().enumerate() {
        let offered = fps * *workers as f64;
        let unbatched = saturation_run(*workers, *fps, 1, duration);
        let batched = saturation_run(*workers, *fps, 8, duration);
        println!(
            "saturation/{label} (offered {offered:.0} req/s): batch=1 \
             {:.0} req/s p50 {:.2} ms p99 {:.2} ms -> batch=8 {:.0} req/s \
             p50 {:.2} ms p99 {:.2} ms (mean batch {:.1})",
            unbatched.throughput_rps,
            unbatched.p50_ms,
            unbatched.p99_ms,
            batched.throughput_rps,
            batched.p50_ms,
            batched.p99_ms,
            batched.mean_batch,
        );
        if *label == "saturated" {
            speedup = batched.throughput_rps / unbatched.throughput_rps.max(1e-9);
        }
        let _ = writeln!(
            out,
            r#"    "{label}": {{"offered_rps": {offered:.0}, "batch1": {{"throughput_rps": {:.0}, "p50_ms": {:.2}, "p99_ms": {:.2}, "requests": {}}}, "batch8": {{"throughput_rps": {:.0}, "p50_ms": {:.2}, "p99_ms": {:.2}, "mean_batch": {:.2}, "requests": {}}}}}{}"#,
            unbatched.throughput_rps,
            unbatched.p50_ms,
            unbatched.p99_ms,
            unbatched.requests,
            batched.throughput_rps,
            batched.p50_ms,
            batched.p99_ms,
            batched.mean_batch,
            batched.requests,
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    println!("saturation speedup (batch=8 vs batch=1): {speedup:.2}x");
    let _ = writeln!(out, r#"  }},"#);
    let _ = writeln!(out, r#"  "saturation_speedup_x": {speedup:.2}"#);
}

/// Source for the failover MTTR cell: one message per admitted tick.
struct FoSrc;
impl Module for FoSrc {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::FrameTick { t_ns } = event {
            ctx.call_module("work", Payload::Count(t_ns))?;
        }
        Ok(())
    }
}

/// Mid-pipeline worker on the device that dies: one service call per frame.
struct FoWork;
impl Module for FoWork {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            let resp = ctx.call_service("double", ServiceRequest::new("go", msg.payload))?;
            ctx.call_module("sink", resp.payload)?;
        }
        Ok(())
    }
}

/// Sink returning the flow-control credit.
struct FoSink;
impl Module for FoSink {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(_) = event {
            ctx.signal_source()?;
        }
        Ok(())
    }
}

/// Stateless service bound on the dying device and the spare, so the
/// replanner has somewhere to rebind.
struct FoDouble;
impl Service for FoDouble {
    fn name(&self) -> &str {
        "double"
    }
    fn handle(
        &self,
        request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        match request.payload {
            Payload::Count(n) => Ok(ServiceResponse::new(Payload::Count(n.wrapping_mul(2)))),
            ref other => Err(PipelineError::Service {
                service: "double".into(),
                reason: format!("expected count, got {}", other.kind_name()),
            }),
        }
    }
}

/// Self-healing MTTR: a deterministic sim crashes the mid-pipeline device
/// at t = 5 s with failover enabled and reports the crash → confirmation,
/// confirmation → replan, and crash → first-new-epoch-delivery latencies.
/// Virtual time: the numbers replay exactly, independent of host speed, so
/// the CI gate on them is noise-free.
fn mttr_section(out: &mut String) {
    let spec = PipelineSpec::new("selfheal")
        .with_module(ModuleSpec::new("src", "FoSrc").with_next("work"))
        .with_module(
            ModuleSpec::new("work", "FoWork")
                .with_service("double")
                .with_next("sink"),
        )
        .with_module(ModuleSpec::new("sink", "FoSink"));
    let devices = vec![
        DeviceSpec::new("edge", 1.0),
        DeviceSpec::new("mid", 1.0)
            .with_containers(1)
            .with_service("double"),
        DeviceSpec::new("spare", 1.0)
            .with_containers(1)
            .with_service("double"),
    ];
    let placement = Placement::new()
        .assign("src", "edge")
        .assign("work", "mid")
        .assign("sink", "edge");
    let deployed = plan(&spec, &devices, &placement).expect("failover plan");

    let mut modules = ModuleRegistry::new();
    modules.register("FoSrc", || Box::new(FoSrc));
    modules.register("FoWork", || Box::new(FoWork));
    modules.register("FoSink", || Box::new(FoSink));
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(FoDouble));

    let mut scenario = Scenario::new(SimProfile::deterministic().with_seed(11));
    scenario.inject_faults(FaultPlan::new(11).with_device_crash("mid", Duration::from_secs(5)));
    scenario.enable_failover(FailoverConfig::default());
    scenario
        .add_pipeline(&deployed, &modules, &services, 10.0, 1)
        .expect("add failover pipeline");
    let report = scenario.run(Duration::from_secs(12));

    let ev = report
        .failovers
        .first()
        .expect("device crash should trigger a failover");
    let detection_ms = ev.detection_latency().as_secs_f64() * 1e3;
    let replan_ms = ev.replanned_at.saturating_sub(ev.detected_at).as_secs_f64() * 1e3;
    let mttr_ms = ev
        .mttr()
        .expect("no delivery in the new epoch")
        .as_secs_f64()
        * 1e3;
    println!(
        "failover MTTR (sim, crash at 5 s): detect {detection_ms:.1} ms, replan \
         {replan_ms:.1} ms, crash -> first delivery {mttr_ms:.1} ms"
    );
    let _ = writeln!(
        out,
        r#"  "mttr": {{"detection_ms": {detection_ms:.1}, "replan_ms": {replan_ms:.1}, "mttr_ms": {mttr_ms:.1}}},"#
    );
}

/// Fleet MTTR: the ISSUE PR-9 acceptance scenario against real OS
/// processes — three `videopipe-node` children under one coordinator,
/// SIGKILL one mid-run — measured in wall-clock time (unlike the `mttr`
/// cell above, which replays a single-process failover in deterministic
/// virtual time). Reports confirmed-loss detection latency, fleet MTTR
/// (confirm → every orphaned tenant redeployed and reporting), the
/// delivery ratio over the run window, and the exactly-once violation
/// count. Skipped with an explicit marker when the node/coordinator
/// binaries are not next to this one (build with
/// `cargo build --release -p videopipe --bins`).
fn fleet_section(quick: bool, out: &mut String) {
    use videopipe_cluster::{ClusterScenario, Fault, LocalProcessRunner};

    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf));
    let find = |env_key: &str, name: &str| -> Option<std::path::PathBuf> {
        if let Ok(p) = std::env::var(env_key) {
            return Some(std::path::PathBuf::from(p));
        }
        exe_dir
            .as_ref()
            .map(|d| d.join(name))
            .filter(|p| p.exists())
    };
    let coordinator = find("VIDEOPIPE_COORDINATOR_BIN", "videopipe-coordinator");
    let node = find("VIDEOPIPE_NODE_BIN", "videopipe-node");
    let (Some(coordinator), Some(node)) = (coordinator, node) else {
        println!(
            "fleet mttr: skipped (videopipe-node / videopipe-coordinator not found \
             next to bench_snapshot; build with `cargo build --release -p videopipe --bins`)"
        );
        let _ = writeln!(
            out,
            r#"  "fleet_mttr": {{"skipped": "node/coordinator binaries not built"}},"#
        );
        return;
    };

    let tenants = if quick { 30 } else { 200 };
    let (duration, kill_at) = if quick {
        (Duration::from_secs(4), Duration::from_millis(1500))
    } else {
        (Duration::from_secs(7), Duration::from_millis(2500))
    };
    let scenario = ClusterScenario::new("bench-fleet", 3, tenants)
        .fps(20.0)
        .run_for(duration)
        .with_fault(Fault::KillNode {
            node: 1,
            at: kill_at,
        });
    let outcome = match LocalProcessRunner::new(&coordinator, &node).run(&scenario) {
        Ok(o) => o,
        Err(e) => {
            println!("fleet mttr: scenario failed: {e}");
            let _ = writeln!(out, r#"  "fleet_mttr": {{"error": "{e}"}},"#);
            return;
        }
    };
    let ratio = outcome.delivery_ratio();
    println!(
        "fleet mttr (3 nodes, {tenants} tenants, SIGKILL one): detect \
         {:.0} ms, mttr {:.0} ms, delivery {:.1}% ({} / {}), double-counted {}",
        outcome.max_detect_ms,
        outcome.max_mttr_ms,
        ratio * 100.0,
        outcome.delivered,
        outcome.expected,
        outcome.double_counted,
    );
    let _ = writeln!(
        out,
        r#"  "fleet_mttr": {{"nodes": 3, "tenants": {tenants}, "detect_ms": {:.0}, "mttr_ms": {:.0}, "delivery_ratio": {ratio:.3}, "delivered": {}, "expected": {}, "double_counted": {}, "fenced_reports": {}, "failovers": {}}},"#,
        outcome.max_detect_ms,
        outcome.max_mttr_ms,
        outcome.delivered,
        outcome.expected,
        outcome.double_counted,
        outcome.fenced_reports,
        outcome.failovers,
    );
}

/// Worker for the SLO spike cell: one 40 ms service call per frame.
struct SloWork;
impl Module for SloWork {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::Message(msg) = event {
            let resp = ctx.call_service("slow", ServiceRequest::new("go", msg.payload))?;
            ctx.call_module("sink", resp.payload)?;
        }
        Ok(())
    }
}

/// The 40 ms (reference-speed) service the flash crowd saturates.
struct SloSlow;
impl Service for SloSlow {
    fn name(&self) -> &str {
        "slow"
    }
    fn handle(
        &self,
        _request: &ServiceRequest,
        _store: &FrameStore,
    ) -> Result<ServiceResponse, PipelineError> {
        Ok(ServiceResponse::new(Payload::Count(1)))
    }
    fn cost(&self, _request: &ServiceRequest) -> ServiceCost {
        ServiceCost::flat(Duration::from_millis(40))
    }
}

/// One arm of the SLO spike experiment: a 5 fps pipeline with 8 credits
/// against a single-instance 40 ms service, hit by a 10× flash crowd from
/// t = 20 s to t = 40 s of a 60 s virtual-time run. `actuate` selects the
/// controller arm; `false` runs the same controllers in shadow mode (the
/// static configuration), so both arms report identical windowed p99
/// telemetry.
fn slo_run(actuate: bool) -> videopipe_sim::ScenarioReport {
    let spec = PipelineSpec::new("slo")
        .with_module(ModuleSpec::new("src", "FoSrc").with_next("work"))
        .with_module(
            ModuleSpec::new("work", "SloWork")
                .with_service("slow")
                .with_next("sink"),
        )
        .with_module(ModuleSpec::new("sink", "FoSink"));
    let devices = vec![DeviceSpec::new("dev", 1.0)
        .with_containers(1)
        .with_service("slow")];
    let placement = Placement::new()
        .assign("src", "dev")
        .assign("work", "dev")
        .assign("sink", "dev");
    let deployed = plan(&spec, &devices, &placement).expect("slo plan");

    let mut modules = ModuleRegistry::new();
    modules.register("FoSrc", || Box::new(FoSrc));
    modules.register("SloWork", || Box::new(SloWork));
    modules.register("FoSink", || Box::new(FoSink));
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(SloSlow));

    let mut profile = SimProfile::deterministic().with_seed(6);
    profile
        .module_cost
        .insert("FoSrc".into(), Duration::from_millis(10));
    profile.camera_recovery = Duration::from_millis(10);
    profile.service_cost.clear(); // use Service::cost (40 ms)

    let mut scenario = Scenario::new(profile);
    let h = scenario
        .add_pipeline(&deployed, &modules, &services, 5.0, 8)
        .expect("add slo pipeline");
    scenario.set_load(
        h,
        LoadPlan::flat().with_flash_crowd(Duration::from_secs(20), Duration::from_secs(20), 10.0),
    );
    // p99 ≤ 150 ms judged every 500 ms with a 1 s dwell; relax_headroom
    // 0.4 puts the relax threshold below the healthy latency reading so
    // the controller degrades and holds instead of oscillating.
    let mut cfg = SloConfig::p99(Duration::from_millis(150))
        .with_interval(Duration::from_millis(500))
        .with_dwell(Duration::from_secs(1))
        .with_lattice(vec![
            Knob::CodecQuality { shift: 6 },
            Knob::SampleRate { divisor: 2 },
            Knob::SampleRate { divisor: 4 },
            Knob::Shed { keep_one_in: 2 },
        ]);
    cfg.relax_headroom = 0.4;
    cfg.min_window = 2;
    if actuate {
        scenario.enable_slo(cfg);
    } else {
        scenario.observe_slo(cfg);
    }
    scenario.run(Duration::from_secs(60))
}

/// SLO-controller spike cell: the flash-crowd scenario with the controller
/// on vs the same static configuration in shadow mode, in deterministic
/// virtual time, plus the accuracy price of the controller's deepest
/// codec-quality rung measured with the §4.1.2 eval harness end-to-end
/// through the codec (not hand-waved from the shift value).
fn slo_section(quick: bool, out: &mut String) {
    let on = slo_run(true);
    let off = slo_run(false);
    let slo_ms = 150.0;
    // Spike steady state: the controller has had ≥ 6 s to react.
    let spike_from = Duration::from_secs(26);
    let spike_until = Duration::from_secs(40);
    let spike_on = on.max_window_p99_ms(spike_from, spike_until);
    let spike_off = off.max_window_p99_ms(spike_from, spike_until);
    // Pre-spike low load: both arms must be flat (the controller idles).
    let low_on = on.max_window_p99_ms(Duration::from_secs(5), Duration::from_secs(20));
    let low_off = off.max_window_p99_ms(Duration::from_secs(5), Duration::from_secs(20));
    let summary = &on.slo[0];

    // Accuracy price of the quality knob, end-to-end through the codec:
    // the baseline default (shift 2), the per-app presets' mild rung
    // (shift 4), and the rung this lattice engaged (shift 6).
    let windows = if quick { 6 } else { 12 };
    let kinds = videopipe_media::motion::ExerciseKind::FITNESS;
    let acc_base =
        activity_test_accuracy_at_quality(&kinds, 42, codec::Quality::default(), windows);
    let acc_shift4 = activity_test_accuracy_at_quality(&kinds, 42, codec::Quality::new(4), windows);
    let acc_shift6 = activity_test_accuracy_at_quality(&kinds, 42, codec::Quality::new(6), windows);
    let acc_cost_pts = (acc_base - acc_shift6) * 100.0;

    println!(
        "slo spike (10x crowd, p99 target {slo_ms:.0} ms): controller worst window \
         {spike_on:.1} ms vs static {spike_off:.1} ms (level {}, {} moves, {} flaps)",
        summary.level, summary.moves, summary.flaps
    );
    println!(
        "slo low load: controller {low_on:.1} ms vs static {low_off:.1} ms; quality-knob \
         accuracy {:.1}% (shift 2) -> {:.1}% (shift 4) -> {:.1}% (shift 6, {acc_cost_pts:+.1} pts)",
        acc_base * 100.0,
        acc_shift4 * 100.0,
        acc_shift6 * 100.0
    );
    let _ = writeln!(
        out,
        r#"  "slo": {{"slo_ms": {slo_ms:.0}, "spike_p99_on_ms": {spike_on:.1}, "spike_p99_off_ms": {spike_off:.1}, "low_load_p99_on_ms": {low_on:.1}, "low_load_p99_off_ms": {low_off:.1}, "level": {}, "moves": {}, "flaps": {}, "accuracy_baseline": {acc_base:.3}, "accuracy_shift4": {acc_shift4:.3}, "accuracy_shift6": {acc_shift6:.3}, "accuracy_cost_pts": {acc_cost_pts:.1}}},"#,
        summary.level, summary.moves, summary.flaps,
    );
}

/// VmRSS of this process in KiB, from /proc/self/status (Linux runners).
fn vm_rss_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// OS threads of this process, from /proc/self/status.
fn os_threads() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The counts-only fleet pipeline (src → work → sink with one co-located
/// service call per frame): no frames minted, so the memory cell measures
/// runtime structures, not pixel buffers.
fn fleet_plan(name: &str) -> videopipe_core::deploy::DeploymentPlan {
    let spec = PipelineSpec::new(name)
        .with_module(ModuleSpec::new("src", "FoSrc").with_next("work"))
        .with_module(
            ModuleSpec::new("work", "FoWork")
                .with_service("double")
                .with_next("sink"),
        )
        .with_module(ModuleSpec::new("sink", "FoSink"));
    let devices = vec![DeviceSpec::new("one", 1.0)
        .with_containers(1)
        .with_service("double")];
    let placement = Placement::new()
        .assign("src", "one")
        .assign("work", "one")
        .assign("sink", "one");
    plan(&spec, &devices, &placement).expect("fleet plan")
}

fn fleet_registries() -> (ModuleRegistry, ServiceRegistry) {
    let mut modules = ModuleRegistry::new();
    modules.register("FoSrc", || Box::new(FoSrc));
    modules.register("FoWork", || Box::new(FoWork));
    modules.register("FoSink", || Box::new(FoSink));
    let mut services = ServiceRegistry::new();
    services.install(Arc::new(FoDouble));
    (modules, services)
}

/// Reactor scale cells: deploy a 10k-pipeline fleet (1.5k in quick mode)
/// on one event-driven reactor, report pipelines-per-core, memory per
/// pipeline and OS thread counts.
fn reactor_section(quick: bool, out: &mut String) {
    let n: usize = if quick { 1_500 } else { 10_000 };
    let fps = if quick { 5.0 } else { 2.0 };
    let wall = if quick {
        Duration::from_millis(1200)
    } else {
        Duration::from_secs(3)
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let (modules, services) = fleet_registries();
    let config = || RuntimeConfig {
        fps,
        credits: 1,
        ..RuntimeConfig::default()
    };

    // The whole fleet on one worker pool.
    let rss_before = vm_rss_kb();
    let mut rt = ReactorRuntime::new(ReactorConfig::default());
    let plan = fleet_plan("fleet");
    for _ in 0..n {
        rt.add_pipeline(&plan, &modules, &services, config())
            .expect("fleet pipeline");
    }
    let reactor_threads = rt.thread_count();
    let reactor_workers = rt.scheduler_stats().len();
    let process_threads = os_threads();
    let memory_per_pipeline_kb = (vm_rss_kb() - rss_before).max(0.0) / n as f64;
    let started = Instant::now();
    let reports = rt.run_for(wall);
    let elapsed = started.elapsed().as_secs_f64();
    let delivered: u64 = reports.iter().map(|r| r.metrics.frames_delivered).sum();
    let sched = reports
        .first()
        .map(|r| r.scheduler.clone())
        .unwrap_or_default();
    let tasks_run: u64 = sched.iter().map(|w| w.tasks_run).sum();
    let steals_succeeded: u64 = sched.iter().map(|w| w.steals_succeeded).sum();
    let unparks: u64 = sched.iter().map(|w| w.unparks).sum();
    let parks: u64 = sched.iter().map(|w| w.parks).sum();
    let live = reports
        .iter()
        .filter(|r| r.metrics.frames_delivered > 0)
        .count();
    let pipelines_per_core = live as f64 / cores as f64;

    println!(
        "reactor fleet: {live}/{n} pipelines live on {cores} core(s) \
         ({pipelines_per_core:.0} per core), {reactor_threads} reactor threads \
         ({process_threads:.0} process), {memory_per_pipeline_kb:.1} KiB/pipeline, \
         {delivered} frames in {elapsed:.1}s"
    );
    let _ = writeln!(
        out,
        r#"  "reactor": {{"pipelines": {n}, "live_pipelines": {live}, "cores": {cores}, "reactor_workers": {reactor_workers}, "reactor_threads": {reactor_threads}, "process_threads": {process_threads:.0}, "pipelines_per_core": {pipelines_per_core:.0}, "memory_per_pipeline_kb": {memory_per_pipeline_kb:.1}, "delivered": {delivered}, "tasks_run": {tasks_run}, "steals_succeeded": {steals_succeeded}, "unparks": {unparks}, "parks": {parks}}},"#
    );
}

/// The whole pipeline of the timer-lag cell: a source that is also the
/// sink. It notes how late each tick was admitted and hands its credit
/// straight back. Tick `seq` is due `(seq − 1)` intervals after the pacer
/// was built, which is a few microseconds after the pipeline's clock
/// started; those microseconds count as lateness here.
struct LagSrc {
    interval_ns: u64,
    late_us: Arc<Mutex<Vec<f64>>>,
}

impl Module for LagSrc {
    fn on_event(&mut self, event: Event, ctx: &mut dyn ModuleCtx) -> Result<(), PipelineError> {
        if let Event::FrameTick { t_ns } = event {
            let seq = ctx.header().frame_seq;
            // The first ticks run while the rest of the fleet deploys.
            if seq > 2 {
                let late_ns = t_ns.saturating_sub((seq - 1) * self.interval_ns);
                self.late_us.lock().unwrap().push(late_ns as f64 / 1e3);
            }
            ctx.signal_source()?;
        }
        Ok(())
    }
}

/// One arm of the timer-lag cell: `deadlines` recurring 25 Hz pacer ticks
/// with evenly spread phases, alone or next to a CPU-bound filler fleet.
/// Returns (p50 µs, p99 µs, parks per second).
fn timer_lag_arm(deadlines: usize, filler: usize, wall: Duration) -> (f64, f64, f64) {
    const INTERVAL_NS: u64 = 40_000_000;
    let late_us = Arc::new(Mutex::new(Vec::new()));
    let mut modules = ModuleRegistry::new();
    let sink = Arc::clone(&late_us);
    modules.register("LagSrc", move || {
        Box::new(LagSrc {
            interval_ns: INTERVAL_NS,
            late_us: Arc::clone(&sink),
        })
    });
    let devices = [DeviceSpec::new("one", 1.0)];
    let lag_plan = plan(
        &PipelineSpec::new("lag").with_module(ModuleSpec::new("src", "LagSrc")),
        &devices,
        &Placement::new().assign("src", "one"),
    )
    .expect("timer-lag plan");
    let mut rt = ReactorRuntime::new(ReactorConfig::default());
    add_spin_fleet(&mut rt, filler, 0.0);
    // A pipeline's ticks are due at its start plus whole intervals: start
    // them 7/`deadlines` of an interval apart (7 shares no factor with the
    // fleet sizes used), which spreads the phases evenly over the interval
    // and leaves each `add_pipeline` time to finish.
    let spacing = Duration::from_nanos(INTERVAL_NS * 7 / deadlines as u64);
    let no_services = ServiceRegistry::new();
    let deploy = Instant::now();
    for i in 0..deadlines {
        while deploy.elapsed() < spacing * i as u32 {
            std::hint::spin_loop();
        }
        let config = RuntimeConfig {
            fps: 25.0,
            ..RuntimeConfig::default()
        };
        rt.add_pipeline(&lag_plan, &modules, &no_services, config)
            .expect("timer-lag pipeline");
    }
    let parks = |rt: &ReactorRuntime| -> u64 { rt.scheduler_stats().iter().map(|w| w.parks).sum() };
    let parks_before = parks(&rt);
    let started = Instant::now();
    std::thread::sleep(wall);
    let parks_per_s = (parks(&rt) - parks_before) as f64 / started.elapsed().as_secs_f64();
    drop(rt.finish());
    let mut late = late_us.lock().unwrap().clone();
    late.sort_by(f64::total_cmp);
    (
        percentile(&late, 50.0),
        percentile(&late, 99.0),
        parks_per_s,
    )
}

/// `reactor.timer_lag`: how late the reactor's timers fire. 1000 recurring
/// 25 Hz deadlines (pacer ticks of single-module pipelines) with evenly
/// spread phases — 25k firings a second — on an otherwise idle reactor,
/// then again with a CPU-bound filler fleet keeping every worker busy, in
/// which case a deadline waits for the task in front of it. Reports p50 /
/// p99 lateness and how often the workers went to sleep.
fn reactor_timer_lag_section(quick: bool, out: &mut String) {
    let deadlines = 1_000;
    let wall = if quick {
        Duration::from_millis(1_000)
    } else {
        Duration::from_secs(3)
    };
    let (idle_p50, idle_p99, idle_parks) = timer_lag_arm(deadlines, 0, wall);
    let (busy_p50, busy_p99, busy_parks) = timer_lag_arm(deadlines, 32, wall);
    println!(
        "reactor timer lag ({deadlines} x 25 Hz deadlines): idle p50 {idle_p50:.0} us, \
         p99 {idle_p99:.0} us, {idle_parks:.0} parks/s; with a CPU-bound filler fleet \
         p50 {busy_p50:.0} us, p99 {busy_p99:.0} us, {busy_parks:.0} parks/s"
    );
    let _ = writeln!(
        out,
        r#"  "reactor_timer_lag": {{"deadlines": {deadlines}, "hz": 25, "idle_p50_us": {idle_p50:.1}, "idle_p99_us": {idle_p99:.1}, "idle_parks_per_s": {idle_parks:.0}, "loaded_p50_us": {busy_p50:.1}, "loaded_p99_us": {busy_p99:.1}, "loaded_parks_per_s": {busy_parks:.0}}},"#
    );
}

fn main() {
    let args = parse_args();
    println!(
        "hot-path snapshot ({} mode) -> {}",
        if args.quick { "quick" } else { "full" },
        args.out
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {},", args.quick);
    let _ = writeln!(json, "  \"cores_detected\": {cores},");
    codec_section(args.quick, &mut json);
    wire_section(args.quick, &mut json);
    ml_section(args.quick, &mut json);
    fanout_section(args.quick, &mut json);
    roundtrip_section(args.quick, &mut json);
    reactor_scaling_section(args.quick, &mut json);
    mttr_section(&mut json);
    fleet_section(args.quick, &mut json);
    slo_section(args.quick, &mut json);
    reactor_section(args.quick, &mut json);
    reactor_timer_lag_section(args.quick, &mut json);
    saturation_section(args.quick, &mut json);
    json.push_str("}\n");
    std::fs::write(&args.out, &json).expect("write snapshot json");
    println!("wrote {}", args.out);
}
