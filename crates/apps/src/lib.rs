//! The VideoPipe applications: everything §4 of the paper describes.
//!
//! * `services` — the stateless container services (pose detection,
//!   activity classification, rep counting, display, object/face detection,
//!   image classification) wrapping the `videopipe-ml` kernels.
//! * `modules` — the pipeline modules (video streaming, pose detection,
//!   activity recognition, rep counter, display, IoT actuator, fall alert).
//! * [`fitness`] — the workout guidance pipeline of Fig. 4, with both the
//!   VideoPipe placement (modules co-located with their services) and the
//!   EdgeEye-style baseline of Fig. 5 (all modules on the phone, remote
//!   service calls).
//! * [`gesture`] — the gesture-controlled IoT pipeline of §4.2.
//! * [`fall`] — the fall detection pipeline of §4.3.
//! * `iot` — the simulated smart-home devices (light, doorbell) the
//!   gesture app controls.
//! * [`retail`] — a cashierless-checkout pipeline (the paper's §1 retail
//!   motivation) exercising the object detector and IoU tracker.
//! * `training` — synthetic training and accuracy evaluation for the
//!   learned services (§4.1.2's >90% and §4.1.3's 83.3% claims).
//! * `experiments` — one-call experiment runners used by the benchmark
//!   harness (Fig. 6, Table 2 and the ablations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod experiments;
pub mod fall;
pub mod fitness;
pub mod gesture;
mod iot;
mod modules;
pub mod retail;
mod services;
mod training;

pub use experiments::{
    run_fitness, run_fitness_and_gesture, run_fitness_placement, stage_label, Arch,
    ExperimentConfig, ExperimentRun,
};
pub use iot::{IotDevice, IotHub};
pub use services::{ActivityClassifierService, FaceDetectorService, ImageClassifierService};
pub use training::{
    activity_per_class_accuracy, activity_test_accuracy, activity_test_accuracy_at_quality,
    rep_counter_accuracy, trained_fitness_classifier, PAPER_REP_JITTER,
};
