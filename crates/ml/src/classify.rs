//! Nearest-centroid image classification.
//!
//! The paper's image-classification service, in miniature: frames are
//! downsampled to an 8×8 intensity grid (mean pooling), and classes are
//! represented by the centroid of their training features. This is the
//! classic "tiny-CNN substitute" that still has real failure modes (noise,
//! unseen poses) while being fully self-contained.

use crate::math::{argmin, axpy, distance};
use std::error::Error;
use std::fmt;
use videopipe_media::Frame;

/// Side length of the pooled feature grid.
pub(crate) const GRID: usize = 8;
/// Feature dimensionality.
pub(crate) const FEATURE_DIM: usize = GRID * GRID;

/// Errors from classifier training.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClassifyError {
    /// No training examples were provided.
    EmptyTrainingSet,
    /// A class had no examples.
    EmptyClass(String),
}

impl fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassifyError::EmptyTrainingSet => write!(f, "training set is empty"),
            ClassifyError::EmptyClass(name) => write!(f, "class {name:?} has no examples"),
        }
    }
}

impl Error for ClassifyError {}

/// Extracts the pooled 8×8 mean-intensity feature vector of a frame.
pub(crate) fn image_features(frame: &Frame) -> Vec<f32> {
    let mut scratch = FeatureScratch::default();
    let mut out = Vec::new();
    image_features_into(frame, &mut scratch, &mut out);
    out
}

/// Reusable accumulators for [`image_features_into`]: the batch paths carry
/// one of these across a whole batch instead of allocating per frame.
#[derive(Debug, Default)]
pub(crate) struct FeatureScratch {
    sums: Vec<u64>,
    counts: Vec<u64>,
}

/// Writes the pooled feature vector of `frame` into `out` (cleared first),
/// accumulating through `scratch`. Output is identical to
/// [`image_features`]; the difference is purely allocation reuse.
///
/// This is the word-wide kernel: the per-pixel `gx = x·GRID/width` cell
/// arithmetic is hoisted into precomputed grid-column boundaries (cell `g`
/// covers columns `[⌈g·W/G⌉, ⌈(g+1)·W/G⌉)`, exactly the columns the
/// per-pixel mapping assigns it), so each cell's contribution per row is
/// one contiguous byte-range sum, reduced 8 bytes per `u64` load by SWAR
/// pair-summing. All accumulation is exact integer arithmetic, so the
/// result is **bit-identical** to [`image_features_into_scalar`].
pub(crate) fn image_features_into(frame: &Frame, scratch: &mut FeatureScratch, out: &mut Vec<f32>) {
    let width = frame.width() as usize;
    let height = frame.height() as usize;
    let pixels = frame.pixels();
    scratch.sums.clear();
    scratch.sums.resize(FEATURE_DIM, 0);
    scratch.counts.clear();
    scratch.counts.resize(FEATURE_DIM, 0);
    let mut col_start = [0usize; GRID + 1];
    for (g, s) in col_start.iter_mut().enumerate() {
        *s = (g * width).div_ceil(GRID);
    }
    for y in 0..height {
        let gy = y * GRID / height;
        let row = &pixels[y * width..(y + 1) * width];
        for g in 0..GRID {
            let (start, end) = (col_start[g], col_start[g + 1]);
            if start < end {
                let cell = gy * GRID + g;
                scratch.sums[cell] += sum_bytes(&row[start..end]);
                scratch.counts[cell] += (end - start) as u64;
            }
        }
    }
    write_features(scratch, out);
}

/// Sum of a byte slice, 8 bytes per `u64` load: SWAR pair-sum reduction
/// (u8 lanes → u16 → u32 → one u64), exact for any input.
fn sum_bytes(bytes: &[u8]) -> u64 {
    const PAIR: u64 = 0x00FF_00FF_00FF_00FF;
    const QUAD: u64 = 0x0000_FFFF_0000_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    let mut total = 0u64;
    for chunk in chunks.by_ref() {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        let pairs = (w & PAIR) + ((w >> 8) & PAIR);
        let quads = (pairs & QUAD) + ((pairs >> 16) & QUAD);
        total += (quads & 0xFFFF_FFFF) + (quads >> 32);
    }
    total
        + chunks
            .remainder()
            .iter()
            .map(|&b| u64::from(b))
            .sum::<u64>()
}

/// Cell sums/counts → pooled mean features (shared by both kernels).
fn write_features(scratch: &FeatureScratch, out: &mut Vec<f32>) {
    out.clear();
    out.extend(
        scratch
            .sums
            .iter()
            .zip(scratch.counts.iter())
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s as f32 / c as f32 }),
    );
}

/// A nearest-centroid image classifier.
#[derive(Debug, Clone)]
pub struct ImageClassifier {
    labels: Vec<String>,
    centroids: Vec<Vec<f32>>,
}

impl ImageClassifier {
    /// Trains from `(frame, label)` pairs.
    ///
    /// # Errors
    ///
    /// Returns `ClassifyError::EmptyTrainingSet` when no examples are
    /// given.
    pub fn train<'a, I>(examples: I) -> Result<Self, ClassifyError>
    where
        I: IntoIterator<Item = (&'a Frame, &'a str)>,
    {
        use std::collections::BTreeMap;
        let mut sums: BTreeMap<String, (Vec<f32>, usize)> = BTreeMap::new();
        let mut scratch = FeatureScratch::default();
        let mut features = Vec::with_capacity(FEATURE_DIM);
        for (frame, label) in examples {
            image_features_into(frame, &mut scratch, &mut features);
            let entry = sums
                .entry(label.to_string())
                .or_insert_with(|| (vec![0.0; FEATURE_DIM], 0));
            axpy(1.0, &features, &mut entry.0);
            entry.1 += 1;
        }
        if sums.is_empty() {
            return Err(ClassifyError::EmptyTrainingSet);
        }
        let mut labels = Vec::with_capacity(sums.len());
        let mut centroids = Vec::with_capacity(sums.len());
        for (label, (sum, n)) in sums {
            labels.push(label);
            centroids.push(sum.into_iter().map(|s| s / n as f32).collect());
        }
        Ok(ImageClassifier { labels, centroids })
    }

    /// Classifies a frame, returning `(label, distance_to_centroid)`.
    pub fn classify(&self, frame: &Frame) -> (&str, f32) {
        let features = image_features(frame);
        let dists: Vec<f32> = self
            .centroids
            .iter()
            .map(|c| distance(&features, c))
            .collect();
        let best = argmin(&dists).expect("trained classifier has classes");
        (&self.labels[best], dists[best])
    }

    /// Classifies a batch of frames, one `(label, distance)` per frame in
    /// order. Matches [`ImageClassifier::classify`] exactly; the batch path
    /// reuses a single feature/scratch/distance buffer set across the whole
    /// batch instead of allocating three vectors per frame.
    pub fn classify_batch(&self, frames: &[&Frame]) -> Vec<(&str, f32)> {
        let mut scratch = FeatureScratch::default();
        let mut features = Vec::with_capacity(FEATURE_DIM);
        let mut dists = Vec::with_capacity(self.centroids.len());
        frames
            .iter()
            .map(|frame| {
                image_features_into(frame, &mut scratch, &mut features);
                dists.clear();
                dists.extend(self.centroids.iter().map(|c| distance(&features, c)));
                let best = argmin(&dists).expect("trained classifier has classes");
                (self.labels[best].as_str(), dists[best])
            })
            .collect()
    }
}

#[cfg(test)]
impl ImageClassifier {
    /// The known class labels (sorted).
    pub(crate) fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Accuracy over labelled frames.
    pub(crate) fn accuracy<'a, I>(&self, examples: I) -> f32
    where
        I: IntoIterator<Item = (&'a Frame, &'a str)>,
    {
        let mut total = 0usize;
        let mut correct = 0usize;
        for (frame, label) in examples {
            total += 1;
            if self.classify(frame).0 == label {
                correct += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f32 / total as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference oracle for [`image_features_into`]: the pre-kernel
    /// per-pixel cell-index loop.
    pub(crate) fn image_features_into_scalar(
        frame: &Frame,
        scratch: &mut FeatureScratch,
        out: &mut Vec<f32>,
    ) {
        let width = frame.width() as usize;
        let height = frame.height() as usize;
        let pixels = frame.pixels();
        scratch.sums.clear();
        scratch.sums.resize(FEATURE_DIM, 0);
        scratch.counts.clear();
        scratch.counts.resize(FEATURE_DIM, 0);
        for y in 0..height {
            let gy = y * GRID / height;
            let row = &pixels[y * width..(y + 1) * width];
            for (x, &p) in row.iter().enumerate() {
                let gx = x * GRID / width;
                let cell = gy * GRID + gx;
                scratch.sums[cell] += u64::from(p);
                scratch.counts[cell] += 1;
            }
        }
        write_features(scratch, out);
    }
    use videopipe_media::motion::ExerciseKind;
    use videopipe_media::scene::SceneRenderer;

    fn render(kind: ExerciseKind, phase: f32) -> Frame {
        SceneRenderer::new(160, 120).render(&kind.pose_at_phase(phase), 0, 0)
    }

    #[test]
    fn feature_dimensions() {
        let frame = render(ExerciseKind::Idle, 0.0);
        assert_eq!(image_features(&frame).len(), FEATURE_DIM);
    }

    #[test]
    fn distinguishes_standing_from_plank() {
        let mut examples = Vec::new();
        for i in 0..8 {
            let phase = i as f32 / 8.0;
            examples.push((render(ExerciseKind::Idle, phase), "standing"));
            examples.push((render(ExerciseKind::Pushup, phase), "plank"));
        }
        let refs: Vec<(&Frame, &str)> = examples.iter().map(|(f, l)| (f, *l)).collect();
        let clf = ImageClassifier::train(refs.iter().copied()).unwrap();
        assert_eq!(clf.labels(), &["plank", "standing"]);

        let test_stand = render(ExerciseKind::Idle, 0.33);
        let test_plank = render(ExerciseKind::Pushup, 0.61);
        assert_eq!(clf.classify(&test_stand).0, "standing");
        assert_eq!(clf.classify(&test_plank).0, "plank");
        assert!(clf.accuracy(refs.iter().copied()) > 0.9);
    }

    #[test]
    fn batch_paths_match_single_frame_paths() {
        let mut examples = Vec::new();
        for i in 0..6 {
            let phase = i as f32 / 6.0;
            examples.push((render(ExerciseKind::Idle, phase), "standing"));
            examples.push((render(ExerciseKind::Pushup, phase), "plank"));
        }
        let refs: Vec<(&Frame, &str)> = examples.iter().map(|(f, l)| (f, *l)).collect();
        let clf = ImageClassifier::train(refs.iter().copied()).unwrap();

        let frames: Vec<Frame> = (0..5)
            .map(|i| render(ExerciseKind::Squat, i as f32 / 5.0))
            .collect();
        let frame_refs: Vec<&Frame> = frames.iter().collect();
        // Feature extraction through reused scratch is identical.
        let mut scratch = FeatureScratch::default();
        let mut out = Vec::new();
        for frame in &frames {
            image_features_into(frame, &mut scratch, &mut out);
            assert_eq!(out, image_features(frame));
        }
        // And so is classification.
        let batched = clf.classify_batch(&frame_refs);
        assert_eq!(batched.len(), frames.len());
        for (frame, batched) in frames.iter().zip(batched) {
            assert_eq!(batched, clf.classify(frame));
        }
        assert!(clf.classify_batch(&[]).is_empty());
    }

    #[test]
    fn word_features_are_bit_identical_to_scalar_oracle() {
        // Sizes straddle word and grid boundaries (width < GRID included,
        // where some cells own no columns at all).
        let sizes = [(160, 120), (157, 113), (64, 64), (8, 8), (5, 3), (23, 17)];
        let mut scratch = FeatureScratch::default();
        let mut fast = Vec::new();
        let mut oracle = Vec::new();
        for (w, h) in sizes {
            let frame =
                SceneRenderer::new(w, h).render(&ExerciseKind::Squat.pose_at_phase(0.4), 0, 0);
            image_features_into(&frame, &mut scratch, &mut fast);
            image_features_into_scalar(&frame, &mut scratch, &mut oracle);
            assert_eq!(fast, oracle, "{w}x{h} features diverged");
        }
    }

    #[test]
    fn sum_bytes_is_exact() {
        let mut bytes = Vec::new();
        for n in [0usize, 1, 7, 8, 9, 255, 256, 1000] {
            bytes.clear();
            bytes.extend((0..n).map(|i| (i * 37 % 256) as u8));
            let expected: u64 = bytes.iter().map(|&b| u64::from(b)).sum();
            assert_eq!(sum_bytes(&bytes), expected, "len {n}");
        }
        assert_eq!(sum_bytes(&[255; 64]), 255 * 64);
    }

    #[test]
    fn empty_training_set_errors() {
        let result = ImageClassifier::train(std::iter::empty());
        assert!(matches!(result, Err(ClassifyError::EmptyTrainingSet)));
    }

    #[test]
    fn classify_reports_distance() {
        let frame = render(ExerciseKind::Idle, 0.0);
        let clf = ImageClassifier::train([(&frame, "only")]).unwrap();
        let (label, dist) = clf.classify(&frame);
        assert_eq!(label, "only");
        assert!(dist < 1e-3, "self distance {dist}");
    }
}
