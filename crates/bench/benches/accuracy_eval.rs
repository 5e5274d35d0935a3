//! **§4.1.2 / §4.1.3 accuracy claims** — activity recognition and rep
//! counting on withheld test sets.
//!
//! Paper: "The test accuracy on a withheld test set was above 90%"
//! (activity recognition); "On our withheld test set, 83.3% accuracy is
//! achieved" (rep counter).
//!
//! Run with `cargo bench -p videopipe-bench --bench accuracy_eval`.

use videopipe_apps::{
    activity_per_class_accuracy, activity_test_accuracy, rep_counter_accuracy, PAPER_REP_JITTER,
};
use videopipe_bench::{banner, f2, Table};
use videopipe_media::motion::ExerciseKind;
use videopipe_media::scene::SceneRenderer;
use videopipe_ml::{detection_error, PoseDetector};

fn main() {
    banner(
        "Accuracy evaluation — activity recognition, rep counting, pose detection",
        "Synthetic withheld test sets (paper §4.1.2: >90%, §4.1.3: 83.3%)",
    );

    // --- Activity recognition (fitness classes).
    println!("\nActivity recognition (k-NN on 15-frame hip-normalised pose windows):");
    let mut table = Table::new(["class set", "test accuracy", "paper"]);
    let fitness_acc = activity_test_accuracy(&ExerciseKind::FITNESS, 42);
    let gesture_acc = activity_test_accuracy(&ExerciseKind::GESTURES, 42);
    table.row([
        "fitness (5 exercises)".to_string(),
        format!("{:.1}%", fitness_acc * 100.0),
        ">90%".into(),
    ]);
    table.row([
        "gestures (wave/clap/idle)".to_string(),
        format!("{:.1}%", gesture_acc * 100.0),
        ">90%".into(),
    ]);
    table.print();

    println!("\nPer-class accuracy (fitness):");
    let mut table = Table::new(["class", "accuracy"]);
    for (label, acc) in activity_per_class_accuracy(&ExerciseKind::FITNESS, 42) {
        table.row([label, format!("{:.1}%", acc * 100.0)]);
    }
    table.print();

    // --- Rep counter across jitter levels.
    println!("\nRep counter (k-means k=2, 4-frame debounce) vs pose jitter:");
    let mut table = Table::new([
        "pose jitter (scene units)",
        "exact-count accuracy",
        "mean |error| (reps)",
        "note",
    ]);
    for jitter in [0.0f32, 0.02, 0.035, PAPER_REP_JITTER, 0.05, 0.06] {
        let report = rep_counter_accuracy(24, jitter, 42);
        let note = if (jitter - PAPER_REP_JITTER).abs() < 1e-6 {
            "calibrated operating point (paper: 83.3%)"
        } else {
            ""
        };
        table.row([
            format!("{jitter:.3}"),
            format!("{:.1}%", report.accuracy * 100.0),
            f2(f64::from(report.mean_abs_error)),
            note.to_string(),
        ]);
    }
    table.print();

    // --- Pose detector error vs sensor noise (supporting measurement).
    println!("\nPose detector mean joint error vs sensor noise (320x240):");
    let mut table = Table::new(["noise sigma", "mean joint error", "detection rate"]);
    let detector = PoseDetector::new();
    let renderer = SceneRenderer::new(320, 240);
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    for sigma in [0.0f32, 2.0, 8.0, 16.0, 32.0] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut errors = Vec::new();
        let mut detected = 0;
        let trials = 40;
        for i in 0..trials {
            let phase = i as f32 / trials as f32;
            let truth = ExerciseKind::Squat.pose_at_phase(phase);
            let frame = renderer.render_noisy(&truth, sigma, &mut rng, i as u64, 0);
            if let Some(d) = detector.detect(&frame) {
                detected += 1;
                errors.push(detection_error(&d, &truth, 0.3));
            }
        }
        let mean_err = if errors.is_empty() {
            f32::NAN
        } else {
            errors.iter().sum::<f32>() / errors.len() as f32
        };
        table.row([
            format!("{sigma:.0}"),
            format!("{mean_err:.4}"),
            format!("{detected}/{trials}"),
        ]);
    }
    table.print();

    println!("\nshape checks:");
    println!(
        "  [{}] fitness activity accuracy above 90% (paper claim)",
        if fitness_acc > 0.9 { "ok" } else { "FAIL" }
    );
    println!(
        "  [{}] gesture accuracy above 90%",
        if gesture_acc > 0.9 { "ok" } else { "FAIL" }
    );
    let paper_point = rep_counter_accuracy(24, PAPER_REP_JITTER, 42);
    println!(
        "  [{}] rep counter imperfect-but-usable at the calibrated jitter ({:.1}% vs paper 83.3%)",
        if (0.6..=0.95).contains(&paper_point.accuracy) {
            "ok"
        } else {
            "FAIL"
        },
        paper_point.accuracy * 100.0
    );
}
