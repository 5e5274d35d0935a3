//! Object detection by connected-component analysis.
//!
//! The paper lists object detection among its container services. On the
//! synthetic scenes, objects are bright regions well above the skeleton
//! intensities; this detector thresholds, labels connected components
//! (4-connectivity, union-find), and reports bounding boxes with simple
//! shape classification (box vs disc by fill ratio).
//!
//! The production path ([`ObjectDetector::detect`]) thresholds with the
//! word-wide scan from [`videopipe_media::scan`] (8 pixels per load,
//! background words skipped with one compare) and remembers the foreground
//! indices it finds, so the statistics pass walks only foreground pixels
//! instead of re-scanning the whole grid. The pre-kernel per-pixel
//! implementation stays available as the [`ObjectDetector::detect_scalar`]
//! oracle; both produce the same set of objects (the unit tests pin it).

use videopipe_media::scan::scan_at_least;
use videopipe_media::Frame;

/// Default intensity threshold separating objects from the skeleton
/// (joint bands end at 80 + 16·9 + 3 = 227).
pub(crate) const DEFAULT_THRESHOLD: u8 = 235;

/// A detected object.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedObject {
    /// Bounding box `(min_x, min_y, max_x, max_y)` in scene coordinates.
    pub bbox: (f32, f32, f32, f32),
    /// Blob area in pixels.
    pub area: usize,
    /// Mean intensity of the blob.
    pub mean_intensity: f32,
    /// Shape guess from the fill ratio.
    pub shape: ObjectShape,
}

/// Shape classification of a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectShape {
    /// Fill ratio ≥ 0.9 of the bounding box: rectangle.
    Rectangle,
    /// Fill ratio in `[0.6, 0.9)`: disc.
    Disc,
    /// Anything sparser.
    Irregular,
}

/// Connected-component object detector.
#[derive(Debug, Clone)]
pub struct ObjectDetector {
    threshold: u8,
    min_area: usize,
}

impl ObjectDetector {
    /// Detector with [`DEFAULT_THRESHOLD`] and a 12-pixel minimum area.
    pub(crate) fn new() -> Self {
        ObjectDetector {
            threshold: DEFAULT_THRESHOLD,
            min_area: 12,
        }
    }

    /// Detects all objects in the frame, largest first.
    ///
    /// Word-wide path: the thresholding pass runs 8 pixels per `u64` load
    /// and records the foreground indices, so the statistics pass walks the
    /// (sparse) foreground list instead of re-scanning the whole grid.
    pub fn detect(&self, frame: &Frame) -> Vec<DetectedObject> {
        let width = frame.width() as usize;
        let height = frame.height() as usize;
        let pixels = frame.pixels();

        // Union-find over foreground pixels, remembering which pixels were
        // foreground (row-major, same order the scalar oracle unions in).
        let mut parent: Vec<u32> = vec![u32::MAX; width * height];
        let mut foreground: Vec<u32> = Vec::new();
        for y in 0..height {
            let row = &pixels[y * width..(y + 1) * width];
            scan_at_least(row, self.threshold, |x, _| {
                let idx = y * width + x;
                parent[idx] = idx as u32;
                foreground.push(idx as u32);
                // Union with left and top foreground neighbours.
                if x > 0 && parent[idx - 1] != u32::MAX {
                    let a = find(&mut parent, idx as u32);
                    let b = find(&mut parent, (idx - 1) as u32);
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
                if y > 0 && parent[idx - width] != u32::MAX {
                    let a = find(&mut parent, idx as u32);
                    let b = find(&mut parent, (idx - width) as u32);
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
            });
        }

        // Accumulate per-root statistics over foreground pixels only.
        let mut blobs: HashMap<u32, Acc> = HashMap::new();
        for &fg in &foreground {
            let idx = fg as usize;
            let (x, y) = (idx % width, idx / width);
            let root = find(&mut parent, fg);
            accumulate(&mut blobs, root, x, y, pixels[idx]);
        }

        self.summarise(blobs, width, height)
    }

    /// Blob statistics → reported objects (shared by both detect paths so
    /// filtering, shape classification, and ordering stay identical).
    fn summarise(
        &self,
        blobs: HashMap<u32, Acc>,
        width: usize,
        height: usize,
    ) -> Vec<DetectedObject> {
        let mut out: Vec<DetectedObject> = blobs
            .into_values()
            .filter(|acc| acc.area >= self.min_area)
            .map(|acc| {
                let bbox_w = acc.max_x - acc.min_x + 1;
                let bbox_h = acc.max_y - acc.min_y + 1;
                let fill = acc.area as f32 / (bbox_w * bbox_h) as f32;
                let shape = if fill >= 0.9 {
                    ObjectShape::Rectangle
                } else if fill >= 0.6 {
                    ObjectShape::Disc
                } else {
                    ObjectShape::Irregular
                };
                DetectedObject {
                    bbox: (
                        acc.min_x as f32 / width as f32,
                        acc.min_y as f32 / height as f32,
                        (acc.max_x + 1) as f32 / width as f32,
                        (acc.max_y + 1) as f32 / height as f32,
                    ),
                    area: acc.area,
                    mean_intensity: acc.intensity as f32 / acc.area as f32,
                    shape,
                }
            })
            .collect();
        // Sort by area, then bbox, so the output order is deterministic
        // regardless of hash-map iteration order.
        out.sort_by(|a, b| {
            b.area.cmp(&a.area).then_with(|| {
                a.bbox
                    .partial_cmp(&b.bbox)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        out
    }
}

use std::collections::HashMap;

/// Per-blob accumulator for the statistics pass.
struct Acc {
    min_x: usize,
    min_y: usize,
    max_x: usize,
    max_y: usize,
    area: usize,
    intensity: u64,
}

fn accumulate(blobs: &mut HashMap<u32, Acc>, root: u32, x: usize, y: usize, pixel: u8) {
    let acc = blobs.entry(root).or_insert(Acc {
        min_x: x,
        min_y: y,
        max_x: x,
        max_y: y,
        area: 0,
        intensity: 0,
    });
    acc.min_x = acc.min_x.min(x);
    acc.min_y = acc.min_y.min(y);
    acc.max_x = acc.max_x.max(x);
    acc.max_y = acc.max_y.max(y);
    acc.area += 1;
    acc.intensity += u64::from(pixel);
}

/// Union-find root lookup with path halving.
fn find(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        let p = parent[i as usize];
        parent[i as usize] = parent[p as usize];
        i = parent[i as usize];
    }
    i
}

impl Default for ObjectDetector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl ObjectDetector {
    /// Sets the minimum blob area in pixels.
    pub(crate) fn with_min_area(mut self, min_area: usize) -> Self {
        self.min_area = min_area.max(1);
        self
    }

    /// Scalar reference oracle for [`detect`](Self::detect): per-pixel
    /// threshold branch and a second full-grid statistics pass, exactly the
    /// pre-kernel implementation.
    pub(crate) fn detect_scalar(&self, frame: &Frame) -> Vec<DetectedObject> {
        let width = frame.width() as usize;
        let height = frame.height() as usize;
        let pixels = frame.pixels();

        // Union-find over foreground pixels.
        let mut parent: Vec<u32> = vec![u32::MAX; width * height];
        for y in 0..height {
            for x in 0..width {
                let idx = y * width + x;
                if pixels[idx] < self.threshold {
                    continue;
                }
                parent[idx] = idx as u32;
                // Union with left and top foreground neighbours.
                if x > 0 && parent[idx - 1] != u32::MAX {
                    let a = find(&mut parent, idx as u32);
                    let b = find(&mut parent, (idx - 1) as u32);
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
                if y > 0 && parent[idx - width] != u32::MAX {
                    let a = find(&mut parent, idx as u32);
                    let b = find(&mut parent, (idx - width) as u32);
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
            }
        }

        // Accumulate per-root statistics.
        let mut blobs: HashMap<u32, Acc> = HashMap::new();
        for y in 0..height {
            for x in 0..width {
                let idx = y * width + x;
                if parent[idx] == u32::MAX {
                    continue;
                }
                let root = find(&mut parent, idx as u32);
                accumulate(&mut blobs, root, x, y, pixels[idx]);
            }
        }

        self.summarise(blobs, width, height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use videopipe_media::scene::{SceneObject, SceneRenderer};
    use videopipe_media::{FrameBuf, Pose};

    fn render_objects(objects: &[SceneObject]) -> Frame {
        SceneRenderer::new(160, 120).render_scene(&Pose::default(), objects, 0, 0)
    }

    #[test]
    fn detects_rectangle_with_shape() {
        let frame = render_objects(&[SceneObject::Rect {
            x: 0.1,
            y: 0.1,
            w: 0.2,
            h: 0.15,
            intensity: 250,
        }]);
        let objs = ObjectDetector::new().detect(&frame);
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].shape, ObjectShape::Rectangle);
        let (x0, y0, x1, y1) = objs[0].bbox;
        assert!((x0 - 0.1).abs() < 0.02 && (y0 - 0.1).abs() < 0.02);
        assert!((x1 - 0.3).abs() < 0.02 && (y1 - 0.25).abs() < 0.02);
        assert!((objs[0].mean_intensity - 250.0).abs() < 1.0);
    }

    #[test]
    fn detects_disc_shape() {
        let frame = render_objects(&[SceneObject::Disc {
            cx: 0.7,
            cy: 0.3,
            r: 0.08,
            intensity: 240,
        }]);
        let objs = ObjectDetector::new().detect(&frame);
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].shape, ObjectShape::Disc);
    }

    #[test]
    fn separates_multiple_objects_sorted_by_area() {
        let frame = render_objects(&[
            SceneObject::Rect {
                x: 0.05,
                y: 0.05,
                w: 0.25,
                h: 0.2,
                intensity: 250,
            },
            SceneObject::Rect {
                x: 0.7,
                y: 0.7,
                w: 0.1,
                h: 0.1,
                intensity: 245,
            },
        ]);
        let objs = ObjectDetector::new().detect(&frame);
        assert_eq!(objs.len(), 2);
        assert!(objs[0].area > objs[1].area);
    }

    #[test]
    fn skeleton_is_not_detected_as_object() {
        let frame = SceneRenderer::new(160, 120).render(&Pose::default(), 0, 0);
        assert!(ObjectDetector::new().detect(&frame).is_empty());
    }

    #[test]
    fn min_area_filters_specks() {
        let mut buf = FrameBuf::new(64, 64);
        buf.put(5, 5, 255);
        buf.put(6, 5, 255);
        let frame = buf.freeze(0, 0);
        assert!(ObjectDetector::new().detect(&frame).is_empty());
        let lenient = ObjectDetector::new().with_min_area(1);
        assert_eq!(lenient.detect(&frame).len(), 1);
    }

    #[test]
    fn touching_objects_merge_into_one_component() {
        let frame = render_objects(&[
            SceneObject::Rect {
                x: 0.1,
                y: 0.1,
                w: 0.1,
                h: 0.1,
                intensity: 250,
            },
            SceneObject::Rect {
                x: 0.2,
                y: 0.1,
                w: 0.1,
                h: 0.1,
                intensity: 250,
            },
        ]);
        let objs = ObjectDetector::new().detect(&frame);
        assert_eq!(objs.len(), 1, "adjacent rects should merge");
        assert_eq!(objs[0].shape, ObjectShape::Rectangle);
    }

    #[test]
    fn empty_frame_detects_nothing() {
        let frame = FrameBuf::new(32, 32).freeze(0, 0);
        assert!(ObjectDetector::new().detect(&frame).is_empty());
    }

    #[test]
    fn word_detect_matches_scalar_oracle() {
        // Scenes covering shapes, touching blobs, specks below min_area,
        // a skeleton-only frame, and a non-multiple-of-8 width so the word
        // scan's remainder path runs.
        let scenes: Vec<Frame> = vec![
            render_objects(&[
                SceneObject::Rect {
                    x: 0.05,
                    y: 0.05,
                    w: 0.25,
                    h: 0.2,
                    intensity: 250,
                },
                SceneObject::Disc {
                    cx: 0.7,
                    cy: 0.3,
                    r: 0.08,
                    intensity: 240,
                },
                SceneObject::Rect {
                    x: 0.7,
                    y: 0.7,
                    w: 0.1,
                    h: 0.1,
                    intensity: 245,
                },
            ]),
            SceneRenderer::new(157, 113).render_scene(
                &Pose::default(),
                &[SceneObject::Disc {
                    cx: 0.5,
                    cy: 0.5,
                    r: 0.2,
                    intensity: 255,
                }],
                0,
                0,
            ),
            SceneRenderer::new(160, 120).render(&Pose::default(), 0, 0),
            FrameBuf::new(32, 32).freeze(0, 0),
        ];
        let detector = ObjectDetector::new();
        for frame in &scenes {
            assert_eq!(
                detector.detect(frame),
                detector.detect_scalar(frame),
                "{}x{} scene diverged",
                frame.width(),
                frame.height()
            );
        }
    }
}
