//! Media substrate for VideoPipe: frames, frame stores, a lossy image codec,
//! synthetic scenes and synthetic video sources.
//!
//! The VideoPipe paper ([Salehe et al., Middleware Industry '19]) processes
//! live camera feeds on edge devices. This reproduction has no camera, so the
//! crate supplies a *synthetic* but fully mechanistic replacement for the
//! whole media layer:
//!
//! * [`Frame`] / [`FrameBuf`] — immutable frames and mutable raster canvases
//!   (8-bit grayscale), with the drawing primitives used by the scene
//!   renderer.
//! * [`FrameStore`] — the paper's pass-by-reference frame registry: modules
//!   exchange small [`FrameId`]s on-device instead of copying frames (§3 of
//!   the paper).
//! * [`codec`] — a real lossy image codec (quantize + row delta + RLE) used
//!   whenever a frame crosses a device boundary.
//! * [`Pose`] / [`Joint`] — the 17-keypoint COCO-style skeleton model.
//! * [`motion`] — parametric exercise/gesture generators (squats, jumping
//!   jacks, waves, claps, falls, …) that drive both live synthetic video and
//!   training data for the ML stages.
//! * [`scene`] — renders a skeleton into a raster frame with intensity-coded
//!   joints so that the pose *detector* in `videopipe-ml` has honest work to
//!   do (scan the image, find blobs, recover keypoints).
//! * [`SyntheticVideoSource`] — a deterministic frame generator with a
//!   configurable frame rate and capture overhead, standing in for the
//!   paper's Android camera.
//!
//! # Example
//!
//! ```
//! use videopipe_media::{motion::{ExerciseKind, MotionClip}, scene::SceneRenderer};
//!
//! let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
//! let pose = clip.pose_at_phase(0.25);
//! let renderer = SceneRenderer::new(320, 240);
//! let frame = renderer.render(&pose, 0, 0);
//! assert_eq!(frame.width(), 320);
//! ```
//!
//! [Salehe et al., Middleware Industry '19]: https://doi.org/10.1145/3366626.3368131

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod codec;
mod error;
mod frame;
pub mod motion;
mod pose;
pub mod scan;
pub mod scene;
mod source;
mod store;

pub use error::MediaError;
pub use frame::{Frame, FrameBuf};
pub use pose::{Joint, Keypoint, Pose, JOINT_COUNT};
pub use source::{SourceConfig, SyntheticVideoSource};
pub use store::{FrameId, FrameStore, FrameStoreStats};
