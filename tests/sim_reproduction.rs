//! Integration tests pinning the paper's evaluation claims at test scale
//! (shorter runs than the benches, same calibrated profile).

use std::time::Duration;
use videopipe::apps::{run_fitness, run_fitness_and_gesture, Arch, ExperimentConfig};
use videopipe::sim::SimProfile;

fn quick(fps: f64) -> ExperimentConfig {
    ExperimentConfig::default()
        .with_fps(fps)
        .with_duration(Duration::from_secs(15))
}

#[test]
fn videopipe_beats_baseline_at_all_paper_rates() {
    // Table 2, qualitatively: VideoPipe ≥ baseline at every source rate,
    // strictly better once the source outpaces the baseline.
    for fps in [5.0, 10.0, 20.0, 30.0] {
        let vp = run_fitness(&quick(fps), Arch::VideoPipe).unwrap();
        let bl = run_fitness(&quick(fps), Arch::Baseline).unwrap();
        assert!(vp.report.errors.is_empty(), "{:?}", vp.report.errors);
        let (v, b) = (vp.metrics.fps(), bl.metrics.fps());
        assert!(
            v >= b - 0.25,
            "fps {fps}: VideoPipe {v:.2} vs baseline {b:.2}"
        );
        if fps >= 20.0 {
            assert!(
                v > b + 1.0,
                "fps {fps}: expected a clear gap, got {v:.2} vs {b:.2}"
            );
        }
    }
}

#[test]
fn latency_ordering_matches_fig6() {
    let vp = run_fitness(&quick(30.0), Arch::VideoPipe).unwrap();
    let bl = run_fitness(&quick(30.0), Arch::Baseline).unwrap();
    let v = vp.metrics.end_to_end.mean_ms();
    let b = bl.metrics.end_to_end.mean_ms();
    // Paper: ~90 vs ~120 ms.
    assert!((80.0..110.0).contains(&v), "VideoPipe total {v:.1} ms");
    assert!((105.0..140.0).contains(&b), "baseline total {b:.1} ms");
    assert!(b > v + 15.0, "gap too small: {v:.1} vs {b:.1}");
}

#[test]
fn frame_rate_cap_matches_table2() {
    let vp = run_fitness(&quick(60.0), Arch::VideoPipe).unwrap();
    let bl = run_fitness(&quick(60.0), Arch::Baseline).unwrap();
    assert!(
        (9.5..11.8).contains(&vp.metrics.fps()),
        "VideoPipe cap {:.2} (paper ~11)",
        vp.metrics.fps()
    );
    assert!(
        (7.5..9.2).contains(&bl.metrics.fps()),
        "baseline cap {:.2} (paper ~8.3)",
        bl.metrics.fps()
    );
}

#[test]
fn shared_pose_service_saturates_then_scaling_restores() {
    // Table 2 column 4 + the §5.2.2 scaling remark.
    let shared = run_fitness_and_gesture(&quick(30.0)).unwrap();
    let single = run_fitness(&quick(30.0), Arch::VideoPipe).unwrap();
    assert!(
        shared.fitness.fps() < single.metrics.fps(),
        "sharing should cost throughput at 30 fps: {:.2} vs {:.2}",
        shared.fitness.fps(),
        single.metrics.fps()
    );
    // Scale the pose pool to two instances: throughput recovers.
    let scaled_profile = SimProfile::calibrated().with_service_instances("pose_detector", 2);
    let scaled = run_fitness_and_gesture(&quick(30.0).with_profile(scaled_profile)).unwrap();
    assert!(
        scaled.fitness.fps() > shared.fitness.fps() + 0.5,
        "scaling should restore throughput: {:.2} -> {:.2}",
        shared.fitness.fps(),
        scaled.fitness.fps()
    );
}

#[test]
fn drop_at_source_accounts_all_offered_frames() {
    let vp = run_fitness(&quick(60.0), Arch::VideoPipe).unwrap();
    let m = &vp.metrics;
    assert!(m.frames_dropped > 0, "60 fps source must drop frames");
    assert!(
        m.frames_offered >= m.frames_delivered + m.frames_dropped,
        "offered {} < delivered {} + dropped {}",
        m.frames_offered,
        m.frames_delivered,
        m.frames_dropped
    );
}

#[test]
fn simulation_is_deterministic() {
    let run = || {
        let r = run_fitness(&quick(30.0), Arch::VideoPipe).unwrap();
        (
            r.metrics.frames_delivered,
            r.metrics.end_to_end.mean_ns(),
            r.metrics.frames_dropped,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ_in_jittered_runs() {
    let fps_for = |seed: u64| {
        let mut cfg = quick(30.0);
        cfg.profile = SimProfile::calibrated().with_seed(seed);
        run_fitness(&cfg, Arch::VideoPipe)
            .unwrap()
            .metrics
            .end_to_end
            .mean_ns()
    };
    assert_ne!(fps_for(1), fps_for(2));
}
