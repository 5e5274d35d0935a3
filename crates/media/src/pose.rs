use std::fmt;

/// Number of keypoints in the skeleton model (COCO layout).
pub const JOINT_COUNT: usize = 17;

/// The 17 COCO-style body joints detected by the pose detector (paper
/// §4.1.1: "Within that bounding box, it detects 17 keypoints").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Joint {
    Nose = 0,
    LeftEye = 1,
    RightEye = 2,
    LeftEar = 3,
    RightEar = 4,
    LeftShoulder = 5,
    RightShoulder = 6,
    LeftElbow = 7,
    RightElbow = 8,
    LeftWrist = 9,
    RightWrist = 10,
    LeftHip = 11,
    RightHip = 12,
    LeftKnee = 13,
    RightKnee = 14,
    LeftAnkle = 15,
    RightAnkle = 16,
}

impl Joint {
    /// All joints in index order.
    pub const ALL: [Joint; JOINT_COUNT] = [
        Joint::Nose,
        Joint::LeftEye,
        Joint::RightEye,
        Joint::LeftEar,
        Joint::RightEar,
        Joint::LeftShoulder,
        Joint::RightShoulder,
        Joint::LeftElbow,
        Joint::RightElbow,
        Joint::LeftWrist,
        Joint::RightWrist,
        Joint::LeftHip,
        Joint::RightHip,
        Joint::LeftKnee,
        Joint::RightKnee,
        Joint::LeftAnkle,
        Joint::RightAnkle,
    ];

    /// The joint's index in `0..JOINT_COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The joint with the given index, or `None` if out of range.
    pub(crate) fn from_index(index: usize) -> Option<Joint> {
        Joint::ALL.get(index).copied()
    }

    /// Short lowercase name (e.g. `"left_wrist"`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Joint::Nose => "nose",
            Joint::LeftEye => "left_eye",
            Joint::RightEye => "right_eye",
            Joint::LeftEar => "left_ear",
            Joint::RightEar => "right_ear",
            Joint::LeftShoulder => "left_shoulder",
            Joint::RightShoulder => "right_shoulder",
            Joint::LeftElbow => "left_elbow",
            Joint::RightElbow => "right_elbow",
            Joint::LeftWrist => "left_wrist",
            Joint::RightWrist => "right_wrist",
            Joint::LeftHip => "left_hip",
            Joint::RightHip => "right_hip",
            Joint::LeftKnee => "left_knee",
            Joint::RightKnee => "right_knee",
            Joint::LeftAnkle => "left_ankle",
            Joint::RightAnkle => "right_ankle",
        }
    }
}

impl fmt::Display for Joint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Skeleton bones as joint pairs, used by the scene renderer and by
/// visualisation.
pub(crate) const BONES: &[(Joint, Joint)] = &[
    (Joint::Nose, Joint::LeftEye),
    (Joint::Nose, Joint::RightEye),
    (Joint::LeftEye, Joint::LeftEar),
    (Joint::RightEye, Joint::RightEar),
    (Joint::LeftShoulder, Joint::RightShoulder),
    (Joint::LeftShoulder, Joint::LeftElbow),
    (Joint::LeftElbow, Joint::LeftWrist),
    (Joint::RightShoulder, Joint::RightElbow),
    (Joint::RightElbow, Joint::RightWrist),
    (Joint::LeftShoulder, Joint::LeftHip),
    (Joint::RightShoulder, Joint::RightHip),
    (Joint::LeftHip, Joint::RightHip),
    (Joint::LeftHip, Joint::LeftKnee),
    (Joint::LeftKnee, Joint::LeftAnkle),
    (Joint::RightHip, Joint::RightKnee),
    (Joint::RightKnee, Joint::RightAnkle),
];

/// A 2D keypoint in *scene coordinates*: `x` grows rightwards, `y` grows
/// downwards, and the unit square `[0, 1]²` maps onto the frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Keypoint {
    /// Horizontal coordinate.
    pub x: f32,
    /// Vertical coordinate (grows downwards, like raster rows).
    pub y: f32,
}

impl Keypoint {
    /// Creates a keypoint.
    pub fn new(x: f32, y: f32) -> Self {
        Keypoint { x, y }
    }

    /// Euclidean distance to another keypoint.
    pub fn distance(&self, other: &Keypoint) -> f32 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A full-body pose: one [`Keypoint`] per [`Joint`].
///
/// This is both the ground truth emitted by the motion generators and the
/// output type of the pose detection service.
#[derive(Debug, Clone, PartialEq)]
pub struct Pose {
    keypoints: [Keypoint; JOINT_COUNT],
}

impl Pose {
    /// Creates a pose from explicit keypoints.
    pub fn new(keypoints: [Keypoint; JOINT_COUNT]) -> Self {
        Pose { keypoints }
    }

    /// All keypoints, indexed by [`Joint::index`].
    pub fn keypoints(&self) -> &[Keypoint; JOINT_COUNT] {
        &self.keypoints
    }

    /// The keypoint for a specific joint.
    pub fn joint(&self, joint: Joint) -> Keypoint {
        self.keypoints[joint.index()]
    }

    /// Replaces the keypoint for a specific joint.
    pub(crate) fn set_joint(&mut self, joint: Joint, kp: Keypoint) {
        self.keypoints[joint.index()] = kp;
    }

    /// Midpoint of the left and right hips; the normalisation origin used by
    /// the activity recogniser (paper §4.1.2: "(0,0) is located at the
    /// average of the left and right hips").
    pub fn hip_center(&self) -> Keypoint {
        let l = self.joint(Joint::LeftHip);
        let r = self.joint(Joint::RightHip);
        Keypoint::new((l.x + r.x) / 2.0, (l.y + r.y) / 2.0)
    }

    /// Returns this pose translated so the hip centre sits at the origin.
    pub fn hip_normalized(&self) -> Pose {
        let c = self.hip_center();
        self.translated(-c.x, -c.y)
    }

    /// Returns this pose translated by `(dx, dy)`.
    pub fn translated(&self, dx: f32, dy: f32) -> Pose {
        let mut kps = self.keypoints;
        for kp in &mut kps {
            kp.x += dx;
            kp.y += dy;
        }
        Pose { keypoints: kps }
    }

    /// Axis-aligned bounding box `(min_x, min_y, max_x, max_y)` of all
    /// keypoints.
    pub fn bbox(&self) -> (f32, f32, f32, f32) {
        let mut min_x = f32::INFINITY;
        let mut min_y = f32::INFINITY;
        let mut max_x = f32::NEG_INFINITY;
        let mut max_y = f32::NEG_INFINITY;
        for kp in &self.keypoints {
            min_x = min_x.min(kp.x);
            min_y = min_y.min(kp.y);
            max_x = max_x.max(kp.x);
            max_y = max_y.max(kp.y);
        }
        (min_x, min_y, max_x, max_y)
    }

    /// Mean per-joint Euclidean distance to another pose — the metric used
    /// by pose-detector accuracy tests.
    pub fn mean_joint_error(&self, other: &Pose) -> f32 {
        let sum: f32 = self
            .keypoints
            .iter()
            .zip(other.keypoints.iter())
            .map(|(a, b)| a.distance(b))
            .sum();
        sum / JOINT_COUNT as f32
    }

    /// Flattens the pose to `[x0, y0, x1, y1, …]` for use as an ML feature
    /// vector.
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(JOINT_COUNT * 2);
        for kp in &self.keypoints {
            out.push(kp.x);
            out.push(kp.y);
        }
        out
    }

    /// Inverse of [`Pose::flatten`]. Returns `None` when the slice length is
    /// not `2 * JOINT_COUNT`.
    pub fn from_flat(values: &[f32]) -> Option<Pose> {
        if values.len() != JOINT_COUNT * 2 {
            return None;
        }
        let mut kps = [Keypoint::default(); JOINT_COUNT];
        for (i, kp) in kps.iter_mut().enumerate() {
            *kp = Keypoint::new(values[2 * i], values[2 * i + 1]);
        }
        Some(Pose { keypoints: kps })
    }
}

impl Default for Pose {
    /// A default pose: a neutral standing figure centred near the middle of
    /// the unit square.
    fn default() -> Self {
        standing_pose()
    }
}

/// A neutral standing skeleton, the base from which all motion generators
/// start. Centred horizontally at `x = 0.5`; head near `y = 0.18`, ankles
/// near `y = 0.92`.
pub(crate) fn standing_pose() -> Pose {
    use Joint::*;
    let mut kps = [Keypoint::default(); JOINT_COUNT];
    let set = |kps: &mut [Keypoint; JOINT_COUNT], j: Joint, x: f32, y: f32| {
        kps[j.index()] = Keypoint::new(x, y);
    };
    set(&mut kps, Nose, 0.50, 0.18);
    set(&mut kps, LeftEye, 0.52, 0.165);
    set(&mut kps, RightEye, 0.48, 0.165);
    set(&mut kps, LeftEar, 0.545, 0.175);
    set(&mut kps, RightEar, 0.455, 0.175);
    set(&mut kps, LeftShoulder, 0.58, 0.30);
    set(&mut kps, RightShoulder, 0.42, 0.30);
    set(&mut kps, LeftElbow, 0.615, 0.42);
    set(&mut kps, RightElbow, 0.385, 0.42);
    set(&mut kps, LeftWrist, 0.63, 0.53);
    set(&mut kps, RightWrist, 0.37, 0.53);
    set(&mut kps, LeftHip, 0.55, 0.55);
    set(&mut kps, RightHip, 0.45, 0.55);
    set(&mut kps, LeftKnee, 0.555, 0.74);
    set(&mut kps, RightKnee, 0.445, 0.74);
    set(&mut kps, LeftAnkle, 0.56, 0.92);
    set(&mut kps, RightAnkle, 0.44, 0.92);
    Pose::new(kps)
}

#[cfg(test)]
impl Pose {
    /// Returns this pose scaled about the origin.
    pub(crate) fn scaled(&self, factor: f32) -> Pose {
        let mut kps = self.keypoints;
        for kp in &mut kps {
            kp.x *= factor;
            kp.y *= factor;
        }
        Pose { keypoints: kps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_indices_are_dense_and_stable() {
        for (i, j) in Joint::ALL.iter().enumerate() {
            assert_eq!(j.index(), i);
            assert_eq!(Joint::from_index(i), Some(*j));
        }
        assert_eq!(Joint::from_index(JOINT_COUNT), None);
    }

    #[test]
    fn joint_names_are_unique() {
        let mut names: Vec<_> = Joint::ALL.iter().map(|j| j.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), JOINT_COUNT);
    }

    #[test]
    fn bones_reference_valid_joints_and_are_connected() {
        // Every joint must appear in at least one bone so the rendered
        // figure has no floating points (ears/eyes chain to the nose).
        let mut seen = [false; JOINT_COUNT];
        for (a, b) in BONES {
            seen[a.index()] = true;
            seen[b.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "some joint not part of any bone");
    }

    #[test]
    fn hip_center_is_hip_midpoint() {
        let pose = standing_pose();
        let c = pose.hip_center();
        assert!((c.x - 0.5).abs() < 1e-6);
        assert!((c.y - 0.55).abs() < 1e-6);
    }

    #[test]
    fn hip_normalized_centers_hips_at_origin() {
        let pose = standing_pose().translated(0.2, -0.1);
        let norm = pose.hip_normalized();
        let c = norm.hip_center();
        assert!(c.x.abs() < 1e-6 && c.y.abs() < 1e-6);
    }

    #[test]
    fn translated_and_scaled_compose() {
        let pose = standing_pose();
        let moved = pose.translated(0.1, 0.2);
        assert!((moved.joint(Joint::Nose).x - 0.6).abs() < 1e-6);
        let big = pose.scaled(2.0);
        assert!((big.joint(Joint::Nose).y - 0.36).abs() < 1e-6);
    }

    #[test]
    fn bbox_contains_all_keypoints() {
        let pose = standing_pose();
        let (x0, y0, x1, y1) = pose.bbox();
        for kp in pose.keypoints() {
            assert!(kp.x >= x0 && kp.x <= x1);
            assert!(kp.y >= y0 && kp.y <= y1);
        }
        assert!(x1 > x0 && y1 > y0);
    }

    #[test]
    fn flatten_roundtrip() {
        let pose = standing_pose();
        let flat = pose.flatten();
        assert_eq!(flat.len(), JOINT_COUNT * 2);
        let back = Pose::from_flat(&flat).unwrap();
        assert_eq!(back, pose);
        assert!(Pose::from_flat(&flat[1..]).is_none());
    }

    #[test]
    fn mean_joint_error_matches_translation() {
        let pose = standing_pose();
        let moved = pose.translated(0.3, 0.4); // every joint moves 0.5
        let err = pose.mean_joint_error(&moved);
        assert!((err - 0.5).abs() < 1e-5, "err {err}");
    }

    #[test]
    fn keypoint_distance() {
        let a = Keypoint::new(0.0, 0.0);
        let b = Keypoint::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn standing_pose_is_upright() {
        let pose = standing_pose();
        assert!(pose.joint(Joint::Nose).y < pose.joint(Joint::LeftHip).y);
        assert!(pose.joint(Joint::LeftHip).y < pose.joint(Joint::LeftAnkle).y);
    }
}
