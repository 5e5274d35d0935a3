//! Scene rendering: turns a [`Pose`] into a raster [`Frame`] that the pose
//! *detector* in `videopipe-ml` must then decode back into keypoints.
//!
//! Joints are drawn as small discs whose intensity encodes the joint index
//! (each joint gets a disjoint intensity band); bones are dim lines and the
//! background carries optional sensor noise. The detector does real raster
//! work — scanning pixels, accumulating blob centroids — rather than being
//! handed the answer, and its accuracy genuinely degrades as the noise level
//! rises, mirroring a real vision model's behaviour.

use crate::frame::{Frame, FrameBuf};
use crate::motion::sample_gaussian;
use crate::pose::{Joint, Pose, BONES, JOINT_COUNT};
use rand::Rng;

/// Lowest intensity used for joint discs.
pub(crate) const JOINT_BASE_INTENSITY: u8 = 80;
/// Intensity spacing between consecutive joint bands.
pub(crate) const JOINT_INTENSITY_STEP: u8 = 9;
/// Half-width of a joint intensity band (pixels within
/// `joint_intensity(j) ± JOINT_BAND_HALF_WIDTH` belong to joint `j`).
pub const JOINT_BAND_HALF_WIDTH: u8 = 3;
/// Intensity used for skeleton bones.
pub(crate) const BONE_INTENSITY: u8 = 40;

/// The disc intensity that encodes `joint`.
pub fn joint_intensity(joint: Joint) -> u8 {
    JOINT_BASE_INTENSITY + joint.index() as u8 * JOINT_INTENSITY_STEP
}

/// The joint encoded by intensity `value`, if it falls in a joint band.
pub fn joint_for_intensity(value: u8) -> Option<Joint> {
    if value < JOINT_BASE_INTENSITY.saturating_sub(JOINT_BAND_HALF_WIDTH) {
        return None;
    }
    let offset = i32::from(value) - i32::from(JOINT_BASE_INTENSITY);
    let idx =
        (offset + i32::from(JOINT_BAND_HALF_WIDTH)).div_euclid(i32::from(JOINT_INTENSITY_STEP));
    if idx < 0 || idx >= JOINT_COUNT as i32 {
        return None;
    }
    let center = i32::from(joint_intensity(Joint::from_index(idx as usize)?));
    if (i32::from(value) - center).abs() <= i32::from(JOINT_BAND_HALF_WIDTH) {
        Joint::from_index(idx as usize)
    } else {
        None
    }
}

/// An extra object placed in the scene, exercised by the object detector and
/// image classifier services.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SceneObject {
    /// A filled rectangle: `(x, y)` top-left in scene coordinates, `(w, h)`
    /// size in scene units, `intensity` pixel value.
    Rect {
        /// Top-left x in scene units.
        x: f32,
        /// Top-left y in scene units.
        y: f32,
        /// Width in scene units.
        w: f32,
        /// Height in scene units.
        h: f32,
        /// Pixel intensity of the object.
        intensity: u8,
    },
    /// A filled disc: centre in scene coordinates, radius in scene units.
    Disc {
        /// Centre x in scene units.
        cx: f32,
        /// Centre y in scene units.
        cy: f32,
        /// Radius in scene units.
        r: f32,
        /// Pixel intensity of the object.
        intensity: u8,
    },
}

/// Renders poses (and optional scene objects) into frames.
#[derive(Debug, Clone)]
pub struct SceneRenderer {
    width: u32,
    height: u32,
    joint_radius: i64,
}

impl SceneRenderer {
    /// Creates a renderer for frames of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be nonzero");
        // Joint radius scales with resolution so bands remain detectable.
        let joint_radius = (i64::from(width.min(height)) / 80).max(2);
        SceneRenderer {
            width,
            height,
            joint_radius,
        }
    }

    fn to_px(&self, x: f32, y: f32) -> (i64, i64) {
        (
            (x * self.width as f32).round() as i64,
            (y * self.height as f32).round() as i64,
        )
    }

    /// Renders `pose` onto a fresh black canvas.
    pub fn render(&self, pose: &Pose, seq: u64, timestamp_ns: u64) -> Frame {
        self.render_scene(pose, &[], seq, timestamp_ns)
    }

    /// Renders `pose` plus extra `objects` onto a fresh black canvas.
    ///
    /// Draw order: objects, then bones, then joint discs — so joints always
    /// stay detectable on top.
    pub fn render_scene(
        &self,
        pose: &Pose,
        objects: &[SceneObject],
        seq: u64,
        timestamp_ns: u64,
    ) -> Frame {
        let mut buf = FrameBuf::new(self.width, self.height);
        for obj in objects {
            self.draw_object(&mut buf, obj);
        }
        self.draw_pose(&mut buf, pose);
        buf.freeze(seq, timestamp_ns)
    }

    /// Renders `pose` with additive Gaussian sensor noise of standard
    /// deviation `noise_sigma` (in intensity levels).
    pub fn render_noisy<R: Rng + ?Sized>(
        &self,
        pose: &Pose,
        noise_sigma: f32,
        rng: &mut R,
        seq: u64,
        timestamp_ns: u64,
    ) -> Frame {
        let mut buf = FrameBuf::new(self.width, self.height);
        self.draw_pose(&mut buf, pose);
        if noise_sigma > 0.0 {
            add_noise(&mut buf, noise_sigma, rng);
        }
        buf.freeze(seq, timestamp_ns)
    }

    /// Draws the skeleton onto an existing canvas.
    pub(crate) fn draw_pose(&self, buf: &mut FrameBuf, pose: &Pose) {
        for (a, b) in BONES {
            let ka = pose.joint(*a);
            let kb = pose.joint(*b);
            let (x0, y0) = self.to_px(ka.x, ka.y);
            let (x1, y1) = self.to_px(kb.x, kb.y);
            buf.draw_line(x0, y0, x1, y1, BONE_INTENSITY);
        }
        for joint in Joint::ALL {
            let kp = pose.joint(joint);
            let (cx, cy) = self.to_px(kp.x, kp.y);
            buf.draw_disc(cx, cy, self.joint_radius, joint_intensity(joint));
        }
    }

    fn draw_object(&self, buf: &mut FrameBuf, obj: &SceneObject) {
        match *obj {
            SceneObject::Rect {
                x,
                y,
                w,
                h,
                intensity,
            } => {
                let (x0, y0) = self.to_px(x, y);
                let (x1, y1) = self.to_px(x + w, y + h);
                buf.draw_rect(x0, y0, x1, y1, intensity);
            }
            SceneObject::Disc {
                cx,
                cy,
                r,
                intensity,
            } => {
                let (px, py) = self.to_px(cx, cy);
                let radius = (r * self.width.min(self.height) as f32).round() as i64;
                buf.draw_disc(px, py, radius.max(1), intensity);
            }
        }
    }
}

/// Adds clamped Gaussian noise (σ in intensity levels) to every pixel.
pub(crate) fn add_noise<R: Rng + ?Sized>(buf: &mut FrameBuf, sigma: f32, rng: &mut R) {
    for px in buf.pixels_mut() {
        let noise = sigma * sample_gaussian(rng);
        *px = (f32::from(*px) + noise).round().clamp(0.0, 255.0) as u8;
    }
}

#[cfg(test)]
impl SceneRenderer {
    /// Radius (pixels) of the rendered joint discs.
    pub(crate) fn joint_radius(&self) -> i64 {
        self.joint_radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pose::standing_pose;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn joint_intensity_bands_are_disjoint_and_invertible() {
        for joint in Joint::ALL {
            let center = joint_intensity(joint);
            for delta in -(JOINT_BAND_HALF_WIDTH as i32)..=(JOINT_BAND_HALF_WIDTH as i32) {
                let v = (i32::from(center) + delta) as u8;
                assert_eq!(
                    joint_for_intensity(v),
                    Some(joint),
                    "value {v} should decode to {joint:?}"
                );
            }
        }
    }

    #[test]
    fn non_joint_intensities_decode_to_none() {
        assert_eq!(joint_for_intensity(0), None);
        assert_eq!(joint_for_intensity(BONE_INTENSITY), None);
        assert_eq!(joint_for_intensity(255), None);
        // Gap between consecutive bands (step 9, half-width 3 leaves gaps).
        let gap = JOINT_BASE_INTENSITY + JOINT_BAND_HALF_WIDTH + 1;
        assert_eq!(joint_for_intensity(gap), None);
    }

    #[test]
    fn render_produces_discs_at_projected_keypoints() {
        let renderer = SceneRenderer::new(320, 240);
        let pose = standing_pose();
        let frame = renderer.render(&pose, 3, 99);
        assert_eq!(frame.seq(), 3);
        for joint in Joint::ALL {
            let kp = pose.joint(joint);
            let x = (kp.x * 320.0).round() as u32;
            let y = (kp.y * 240.0).round() as u32;
            assert_eq!(
                frame.get(x, y),
                Some(joint_intensity(joint)),
                "joint {joint:?} missing at ({x},{y})"
            );
        }
    }

    #[test]
    fn render_draws_bones() {
        let renderer = SceneRenderer::new(320, 240);
        let frame = renderer.render(&standing_pose(), 0, 0);
        let bone_pixels = frame
            .pixels()
            .iter()
            .filter(|&&p| p == BONE_INTENSITY)
            .count();
        assert!(bone_pixels > 100, "too few bone pixels: {bone_pixels}");
    }

    #[test]
    fn objects_are_rendered_below_pose() {
        let renderer = SceneRenderer::new(160, 120);
        let objects = [SceneObject::Rect {
            x: 0.05,
            y: 0.05,
            w: 0.1,
            h: 0.1,
            intensity: 250,
        }];
        let frame = renderer.render_scene(&standing_pose(), &objects, 0, 0);
        let obj_pixels = frame.pixels().iter().filter(|&&p| p == 250).count();
        assert!(obj_pixels > 50, "object missing: {obj_pixels}");
        // Pose still present.
        let nose = standing_pose().joint(Joint::Nose);
        let x = (nose.x * 160.0).round() as u32;
        let y = (nose.y * 120.0).round() as u32;
        assert_eq!(frame.get(x, y), Some(joint_intensity(Joint::Nose)));
    }

    #[test]
    fn disc_object_is_rendered() {
        let renderer = SceneRenderer::new(160, 120);
        let objects = [SceneObject::Disc {
            cx: 0.8,
            cy: 0.2,
            r: 0.05,
            intensity: 245,
        }];
        let frame = renderer.render_scene(&standing_pose(), &objects, 0, 0);
        assert!(frame.pixels().contains(&245));
    }

    #[test]
    fn noise_perturbs_background() {
        let renderer = SceneRenderer::new(64, 64);
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = renderer.render_noisy(&standing_pose(), 8.0, &mut rng, 0, 0);
        let clean = renderer.render(&standing_pose(), 0, 0);
        let diff = noisy.mean_abs_diff(&clean);
        assert!(diff > 1.0, "noise too weak: {diff}");
    }

    #[test]
    fn zero_noise_equals_clean_render() {
        let renderer = SceneRenderer::new(64, 64);
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = renderer.render_noisy(&standing_pose(), 0.0, &mut rng, 1, 2);
        let clean = renderer.render(&standing_pose(), 1, 2);
        assert_eq!(noisy.mean_abs_diff(&clean), 0.0);
    }

    #[test]
    fn joint_radius_scales_with_resolution() {
        assert!(
            SceneRenderer::new(640, 480).joint_radius() > SceneRenderer::new(80, 60).joint_radius()
        );
        assert!(SceneRenderer::new(16, 16).joint_radius() >= 2);
    }
}
