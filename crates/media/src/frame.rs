use std::fmt;
use std::sync::Arc;

/// A mutable 8-bit grayscale raster canvas.
///
/// `FrameBuf` is the drawing surface used by the scene renderer; once a frame
/// is complete it is frozen into an immutable, cheaply-cloneable [`Frame`]
/// with [`FrameBuf::freeze`].
///
/// Pixels are stored row-major, one byte per pixel, `0` = black.
#[derive(Clone, PartialEq, Eq)]
pub struct FrameBuf {
    width: u32,
    height: u32,
    pixels: Vec<u8>,
}

impl FrameBuf {
    /// Creates a black canvas of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be nonzero");
        FrameBuf {
            width,
            height,
            pixels: vec![0; width as usize * height as usize],
        }
    }

    /// Mutable access to the raw pixel bytes, row-major.
    pub(crate) fn pixels_mut(&mut self) -> &mut [u8] {
        &mut self.pixels
    }

    /// Writes the pixel at `(x, y)`; out-of-bounds writes are silently
    /// clipped (the renderer draws partially off-screen figures).
    pub fn put(&mut self, x: i64, y: i64, value: u8) {
        if x < 0 || y < 0 || x >= i64::from(self.width) || y >= i64::from(self.height) {
            return;
        }
        self.pixels[y as usize * self.width as usize + x as usize] = value;
    }

    /// Draws a line from `(x0, y0)` to `(x1, y1)` using Bresenham's
    /// algorithm. Endpoints may lie outside the canvas.
    pub(crate) fn draw_line(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, value: u8) {
        let (mut x, mut y) = (x0, y0);
        let dx = (x1 - x0).abs();
        let dy = -(y1 - y0).abs();
        let sx = if x0 < x1 { 1 } else { -1 };
        let sy = if y0 < y1 { 1 } else { -1 };
        let mut err = dx + dy;
        loop {
            self.put(x, y, value);
            if x == x1 && y == y1 {
                break;
            }
            let e2 = 2 * err;
            if e2 >= dy {
                err += dy;
                x += sx;
            }
            if e2 <= dx {
                err += dx;
                y += sy;
            }
        }
    }

    /// Draws a filled disc centred at `(cx, cy)` with the given radius.
    pub fn draw_disc(&mut self, cx: i64, cy: i64, radius: i64, value: u8) {
        let r2 = radius * radius;
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                if dx * dx + dy * dy <= r2 {
                    self.put(cx + dx, cy + dy, value);
                }
            }
        }
    }

    /// Draws a filled axis-aligned rectangle with corners `(x0, y0)`
    /// (inclusive) and `(x1, y1)` (exclusive).
    pub(crate) fn draw_rect(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, value: u8) {
        for y in y0..y1 {
            for x in x0..x1 {
                self.put(x, y, value);
            }
        }
    }

    /// Freezes the canvas into an immutable [`Frame`] with the given
    /// sequence number and capture timestamp (nanoseconds).
    pub fn freeze(self, seq: u64, timestamp_ns: u64) -> Frame {
        Frame {
            seq,
            timestamp_ns,
            width: self.width,
            height: self.height,
            pixels: Arc::new(self.pixels),
        }
    }
}

impl fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameBuf")
            .field("width", &self.width)
            .field("height", &self.height)
            .finish_non_exhaustive()
    }
}

/// An immutable 8-bit grayscale video frame.
///
/// Frames are cheap to clone (the pixel buffer is shared behind an [`Arc`])
/// which is what makes the paper's pass-by-reference design natural: modules
/// on the same device exchange [`FrameId`](crate::FrameId)s and resolve them
/// to shared `Frame`s through the [`FrameStore`](crate::FrameStore).
#[derive(Clone, PartialEq, Eq)]
pub struct Frame {
    seq: u64,
    timestamp_ns: u64,
    width: u32,
    height: u32,
    /// `Arc<Vec<u8>>`, not `Arc<[u8]>`: a `Vec` moves behind the `Arc`,
    /// where the slice form allocates again and copies the frame.
    pixels: Arc<Vec<u8>>,
}

impl Frame {
    /// Builds a frame directly from raw pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height` or a dimension is zero.
    pub fn from_pixels(
        width: u32,
        height: u32,
        pixels: Vec<u8>,
        seq: u64,
        timestamp_ns: u64,
    ) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be nonzero");
        assert_eq!(
            pixels.len(),
            width as usize * height as usize,
            "pixel buffer does not match dimensions"
        );
        Frame {
            seq,
            timestamp_ns,
            width,
            height,
            pixels: Arc::new(pixels),
        }
    }

    /// The source-assigned sequence number of this frame.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Capture timestamp in nanoseconds (pipeline-relative).
    pub fn timestamp_ns(&self) -> u64 {
        self.timestamp_ns
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw pixel bytes, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Size of the raw pixel payload in bytes.
    pub fn raw_size(&self) -> usize {
        self.pixels.len()
    }

    /// Thaws the frame back into a mutable canvas (copies the pixels).
    pub(crate) fn to_buf(&self) -> FrameBuf {
        FrameBuf {
            width: self.width,
            height: self.height,
            pixels: self.pixels.to_vec(),
        }
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("seq", &self.seq)
            .field("timestamp_ns", &self.timestamp_ns)
            .field("width", &self.width)
            .field("height", &self.height)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
impl Frame {
    /// Mean absolute pixel difference against another frame of identical
    /// dimensions; used by codec quality tests.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub(crate) fn mean_abs_diff(&self, other: &Frame) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let sum: u64 = self
            .pixels
            .iter()
            .zip(other.pixels.iter())
            .map(|(a, b)| u64::from(a.abs_diff(*b)))
            .sum();
        sum as f64 / self.pixels.len() as f64
    }

    /// Reads the pixel at `(x, y)`, or `None` when out of bounds.
    pub(crate) fn get(&self, x: u32, y: u32) -> Option<u8> {
        if x >= self.width || y >= self.height {
            return None;
        }
        Some(self.pixels[y as usize * self.width as usize + x as usize])
    }
}

#[cfg(test)]
impl FrameBuf {
    /// Canvas width in pixels.
    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// Canvas height in pixels.
    pub(crate) fn height(&self) -> u32 {
        self.height
    }

    /// Raw pixel bytes, row-major.
    pub(crate) fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Reads the pixel at `(x, y)`, or `None` when out of bounds.
    pub(crate) fn get(&self, x: i64, y: i64) -> Option<u8> {
        if x < 0 || y < 0 || x >= i64::from(self.width) || y >= i64::from(self.height) {
            return None;
        }
        Some(self.pixels[y as usize * self.width as usize + x as usize])
    }

    /// Fills the whole canvas with `value`.
    pub(crate) fn fill(&mut self, value: u8) {
        self.pixels.fill(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_canvas_is_black() {
        let buf = FrameBuf::new(4, 3);
        assert_eq!(buf.width(), 4);
        assert_eq!(buf.height(), 3);
        assert!(buf.pixels().iter().all(|&p| p == 0));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = FrameBuf::new(0, 10);
    }

    #[test]
    fn put_get_roundtrip_and_clipping() {
        let mut buf = FrameBuf::new(8, 8);
        buf.put(3, 5, 200);
        assert_eq!(buf.get(3, 5), Some(200));
        assert_eq!(buf.get(8, 0), None);
        assert_eq!(buf.get(-1, 0), None);
        // Out-of-bounds writes are silently dropped.
        buf.put(-1, -1, 255);
        buf.put(100, 100, 255);
        assert_eq!(buf.pixels().iter().filter(|&&p| p != 0).count(), 1);
    }

    #[test]
    fn line_connects_endpoints() {
        let mut buf = FrameBuf::new(16, 16);
        buf.draw_line(0, 0, 15, 10, 99);
        assert_eq!(buf.get(0, 0), Some(99));
        assert_eq!(buf.get(15, 10), Some(99));
        // Bresenham visits at least max(dx, dy) + 1 pixels.
        let lit = buf.pixels().iter().filter(|&&p| p == 99).count();
        assert!(lit >= 16, "line too sparse: {lit}");
    }

    #[test]
    fn vertical_and_horizontal_lines() {
        let mut buf = FrameBuf::new(8, 8);
        buf.draw_line(2, 1, 2, 6, 50);
        for y in 1..=6 {
            assert_eq!(buf.get(2, y), Some(50));
        }
        buf.draw_line(0, 3, 7, 3, 60);
        for x in 0..=7 {
            assert_eq!(buf.get(x, 3), Some(60));
        }
    }

    #[test]
    fn disc_is_filled_and_roughly_circular() {
        let mut buf = FrameBuf::new(32, 32);
        buf.draw_disc(16, 16, 5, 255);
        assert_eq!(buf.get(16, 16), Some(255));
        assert_eq!(buf.get(16 + 5, 16), Some(255));
        assert_eq!(buf.get(16 + 6, 16), Some(0));
        let area = buf.pixels().iter().filter(|&&p| p == 255).count() as f64;
        let expected = std::f64::consts::PI * 25.0;
        assert!((area - expected).abs() / expected < 0.3, "area {area}");
    }

    #[test]
    fn rect_covers_exact_pixels() {
        let mut buf = FrameBuf::new(8, 8);
        buf.draw_rect(1, 2, 4, 5, 7);
        let lit = buf.pixels().iter().filter(|&&p| p == 7).count();
        assert_eq!(lit, 9); // 3x3
        assert_eq!(buf.get(1, 2), Some(7));
        assert_eq!(buf.get(3, 4), Some(7));
        assert_eq!(buf.get(4, 4), Some(0));
    }

    #[test]
    fn freeze_preserves_pixels_and_metadata() {
        let mut buf = FrameBuf::new(4, 4);
        buf.put(1, 1, 42);
        let frame = buf.freeze(7, 1_000);
        assert_eq!(frame.seq(), 7);
        assert_eq!(frame.timestamp_ns(), 1_000);
        assert_eq!(frame.get(1, 1), Some(42));
        assert_eq!(frame.raw_size(), 16);
    }

    #[test]
    fn frame_clone_shares_pixels() {
        let frame = FrameBuf::new(4, 4).freeze(0, 0);
        let clone = frame.clone();
        assert!(Arc::ptr_eq(&frame.pixels, &clone.pixels));
    }

    #[test]
    fn to_buf_roundtrip() {
        let mut buf = FrameBuf::new(4, 4);
        buf.put(2, 3, 11);
        let frame = buf.clone().freeze(0, 0);
        assert_eq!(frame.to_buf(), buf);
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let frame = FrameBuf::new(4, 4).freeze(0, 0);
        assert_eq!(frame.mean_abs_diff(&frame.clone()), 0.0);
    }

    #[test]
    #[should_panic]
    fn from_pixels_wrong_len_panics() {
        let _ = Frame::from_pixels(4, 4, vec![0; 15], 0, 0);
    }

    #[test]
    fn frame_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Frame>();
        assert_send_sync::<FrameBuf>();
    }
}
