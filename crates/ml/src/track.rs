//! Greedy IoU multi-object tracking.
//!
//! The paper lists "object tracking" among the stateless services; tracking
//! state (the track table) lives in the calling module, while the pure
//! association step (`associate`) is what the service computes.

use crate::math::iou;

/// A box being tracked: `(min_x, min_y, max_x, max_y)` in scene coordinates.
pub(crate) type Box2 = (f32, f32, f32, f32);

/// A live track.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Stable track identifier.
    pub id: u64,
    /// Most recent box.
    pub bbox: Box2,
    /// Frames since the track was last matched.
    pub age: u32,
    /// Total frames the track has been matched.
    pub hits: u32,
}

/// Result of associating detections to existing tracks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Association {
    /// `matches[i] = (track_index, detection_index)` pairs.
    pub matches: Vec<(usize, usize)>,
    /// Detection indices that start new tracks.
    pub unmatched_detections: Vec<usize>,
    /// Track indices that were not matched this frame.
    pub unmatched_tracks: Vec<usize>,
}

/// Greedy IoU association: repeatedly match the highest-IoU (track,
/// detection) pair above `min_iou`. Pure function — the stateless service
/// kernel.
pub(crate) fn associate(tracks: &[Box2], detections: &[Box2], min_iou: f32) -> Association {
    let mut pairs: Vec<(f32, usize, usize)> = Vec::new();
    for (t, tb) in tracks.iter().enumerate() {
        for (d, db) in detections.iter().enumerate() {
            let score = iou(*tb, *db);
            if score >= min_iou {
                pairs.push((score, t, d));
            }
        }
    }
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    let mut track_used = vec![false; tracks.len()];
    let mut det_used = vec![false; detections.len()];
    let mut matches = Vec::new();
    for (_, t, d) in pairs {
        if !track_used[t] && !det_used[d] {
            track_used[t] = true;
            det_used[d] = true;
            matches.push((t, d));
        }
    }
    Association {
        matches,
        unmatched_detections: (0..detections.len()).filter(|&d| !det_used[d]).collect(),
        unmatched_tracks: (0..tracks.len()).filter(|&t| !track_used[t]).collect(),
    }
}

/// The stateful tracker kept by a module.
#[derive(Debug, Clone)]
pub struct IouTracker {
    tracks: Vec<Track>,
    next_id: u64,
    min_iou: f32,
    max_age: u32,
}

impl IouTracker {
    /// Creates a tracker with the given IoU gate and track retirement age.
    pub fn new(min_iou: f32, max_age: u32) -> Self {
        IouTracker {
            tracks: Vec::new(),
            next_id: 1,
            min_iou,
            max_age,
        }
    }

    /// Live tracks.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Feeds one frame of detections; returns the ids assigned to each
    /// detection (in input order).
    pub fn update(&mut self, detections: &[Box2]) -> Vec<u64> {
        let boxes: Vec<Box2> = self.tracks.iter().map(|t| t.bbox).collect();
        let assoc = associate(&boxes, detections, self.min_iou);

        let mut ids = vec![0u64; detections.len()];
        for (t, d) in &assoc.matches {
            let track = &mut self.tracks[*t];
            track.bbox = detections[*d];
            track.age = 0;
            track.hits += 1;
            ids[*d] = track.id;
        }
        for &t in &assoc.unmatched_tracks {
            self.tracks[t].age += 1;
        }
        for &d in &assoc.unmatched_detections {
            let id = self.next_id;
            self.next_id += 1;
            self.tracks.push(Track {
                id,
                bbox: detections[d],
                age: 0,
                hits: 1,
            });
            ids[d] = id;
        }
        let max_age = self.max_age;
        self.tracks.retain(|t| t.age <= max_age);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shifted(b: Box2, dx: f32) -> Box2 {
        (b.0 + dx, b.1, b.2 + dx, b.3)
    }

    #[test]
    fn association_matches_best_iou() {
        let tracks = [(0.0, 0.0, 1.0, 1.0), (5.0, 5.0, 6.0, 6.0)];
        let dets = [(5.1, 5.0, 6.1, 6.0), (0.05, 0.0, 1.05, 1.0)];
        let assoc = associate(&tracks, &dets, 0.3);
        let mut matches = assoc.matches.clone();
        matches.sort_unstable();
        assert_eq!(matches, vec![(0, 1), (1, 0)]);
        assert!(assoc.unmatched_detections.is_empty());
        assert!(assoc.unmatched_tracks.is_empty());
    }

    #[test]
    fn low_iou_is_not_matched() {
        let tracks = [(0.0, 0.0, 1.0, 1.0)];
        let dets = [(3.0, 3.0, 4.0, 4.0)];
        let assoc = associate(&tracks, &dets, 0.3);
        assert!(assoc.matches.is_empty());
        assert_eq!(assoc.unmatched_detections, vec![0]);
        assert_eq!(assoc.unmatched_tracks, vec![0]);
    }

    #[test]
    fn tracker_maintains_identity_across_motion() {
        let mut tracker = IouTracker::new(0.2, 2);
        let mut b = (0.1, 0.1, 0.3, 0.3);
        let first = tracker.update(&[b])[0];
        for _ in 0..10 {
            b = shifted(b, 0.02);
            let id = tracker.update(&[b])[0];
            assert_eq!(id, first, "track identity lost");
        }
        assert_eq!(tracker.tracks().len(), 1);
        assert_eq!(tracker.tracks()[0].hits, 11);
    }

    #[test]
    fn new_objects_get_new_ids() {
        let mut tracker = IouTracker::new(0.3, 2);
        let a = tracker.update(&[(0.0, 0.0, 0.2, 0.2)])[0];
        let ids = tracker.update(&[(0.0, 0.0, 0.2, 0.2), (0.7, 0.7, 0.9, 0.9)]);
        assert_eq!(ids[0], a);
        assert_ne!(ids[1], a);
    }

    #[test]
    fn stale_tracks_retire() {
        let mut tracker = IouTracker::new(0.3, 1);
        tracker.update(&[(0.0, 0.0, 0.2, 0.2)]);
        tracker.update(&[]); // age 1 — kept
        assert_eq!(tracker.tracks().len(), 1);
        tracker.update(&[]); // age 2 > max_age — retired
        assert!(tracker.tracks().is_empty());
    }

    #[test]
    fn reappearing_object_gets_fresh_id_after_retirement() {
        let mut tracker = IouTracker::new(0.3, 0);
        let a = tracker.update(&[(0.0, 0.0, 0.2, 0.2)])[0];
        tracker.update(&[]); // retires immediately (max_age = 0)
        let b = tracker.update(&[(0.0, 0.0, 0.2, 0.2)])[0];
        assert_ne!(a, b);
    }
}
