//! A real lossy image codec for cross-device frame transfer.
//!
//! In the paper, "images that are passed between devices are
//! encoded/decoded and transferred using ZeroMQ" (§3.2). This module is the
//! encode/decode half: a compact, dependency-free codec tuned for the mostly
//! flat synthetic frames:
//!
//! 1. **Quantisation** — each 8-bit pixel is right-shifted by a configurable
//!    number of bits (the only lossy step).
//! 2. **Row delta** — each row is XOR-ed with the previous row, which turns
//!    the large static regions of a video frame into runs of zeros.
//! 3. **Run-length encoding** — `(varint run length, value)` pairs.
//!
//! Typical synthetic frames compress 30–80x, making the modeled Wi-Fi
//! transfer times realistic for "compressed video frame" payloads.
//!
//! # Kernels
//!
//! The kernels are built for what the traffic is: on a camera frame with
//! sensor noise ≈ 97 % of the delta bytes are zero and the rest sit in a
//! few thousand runs of mostly length 1, so the cost is per *run*, not per
//! byte.
//!
//! [`encode`] makes one pass over the source pixels, 512 at a time, and
//! keeps no frame-sized delta plane. A block's delta bytes go into a stack
//! buffer — `(a >> s) ^ (b >> s) = (a ^ b) >> s`, so quantise and row-XOR
//! are one expression on a pixel and the pixel `width` bytes back — and run
//! emission compares every byte of it with its predecessor, eight at a
//! time: a word without a run boundary is skipped, each boundary is one
//! `trailing_zeros`, and a run is written with plain stores into room
//! checked once per block, the one-byte varint being the straight-line
//! case. The bytes are assembled in a per-thread buffer (as large as the
//! largest encoded frame so far) and handed out as an exact-size [`Bytes`]:
//! one allocation of the encoded length per frame.
//!
//! [`decode`] touches the frame twice: the pixel buffer starts zeroed and
//! only non-zero runs are filled in, then one top-down sweep XORs each row
//! with the one above and, in the same step, widens the row above (which
//! nothing reads again) to band centres. The buffer then moves into the
//! [`Frame`]; nothing copies it.
//!
//! [`encode_scalar`]/[`decode_scalar`] keep the original byte-at-a-time
//! implementation as the reference oracle; the kernels are required (and
//! property-tested) to be **byte-identical** to it for every frame and
//! quality, and to agree with it, error for error, on malformed input.
//!
//! # Example
//!
//! ```
//! use videopipe_media::{FrameBuf, codec};
//!
//! let frame = FrameBuf::new(64, 64).freeze(0, 0);
//! let encoded = codec::encode(&frame, codec::Quality::default());
//! let decoded = codec::decode(&encoded)?;
//! assert_eq!(decoded.width(), 64);
//! # Ok::<(), videopipe_media::MediaError>(())
//! ```

use crate::error::MediaError;
use crate::frame::Frame;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::cell::RefCell;

/// Magic bytes at the start of every encoded frame.
pub(crate) const MAGIC: [u8; 4] = *b"VPF1";
/// Codec version written to (and required in) the header.
pub(crate) const VERSION: u8 = 1;
/// Upper bound on frame dimensions accepted by the decoder (defensive limit
/// against corrupt or hostile headers).
pub(crate) const MAX_DIMENSION: u32 = 16_384;

/// Encoding quality: how many low-order bits are discarded per pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Quality {
    shift: u8,
}

impl Quality {
    /// Lossless (no quantisation).
    pub const LOSSLESS: Quality = Quality { shift: 0 };

    /// Creates a quality that discards `shift` low bits per pixel.
    ///
    /// # Panics
    ///
    /// Panics if `shift > 7`.
    pub fn new(shift: u8) -> Self {
        assert!(shift <= 7, "quantisation shift must be at most 7");
        Quality { shift }
    }

    /// Number of discarded low-order bits.
    pub fn shift(&self) -> u8 {
        self.shift
    }

    /// Worst-case absolute reconstruction error per pixel.
    pub fn max_error(&self) -> u8 {
        if self.shift == 0 {
            0
        } else {
            (1u16 << self.shift) as u8 - 1
        }
    }
}

impl Default for Quality {
    /// Two discarded bits: visually lossless on the synthetic scenes while
    /// keeping the joint intensity bands (width 9) unambiguous.
    fn default() -> Self {
        Quality { shift: 2 }
    }
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut impl Buf) -> Result<u64, MediaError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(MediaError::Truncated {
                available: 0,
                needed: 1,
            });
        }
        let byte = buf.get_u8();
        if shift >= 63 && byte > 1 {
            // Would overflow u64; treat as corruption.
            return Err(MediaError::PixelCountMismatch {
                expected: 0,
                actual: usize::MAX,
            });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_header(out: &mut BytesMut, frame: &Frame, shift: u8) {
    out.put_slice(&MAGIC);
    out.put_u8(VERSION);
    out.put_u8(shift);
    out.put_u32(frame.width());
    out.put_u32(frame.height());
    put_varint(out, frame.seq());
    put_varint(out, frame.timestamp_ns());
}

// ---------------------------------------------------------------------------
// Kernels (hot path)
// ---------------------------------------------------------------------------

/// Loads eight bytes as a little-endian word: lane `i` is byte `i`.
#[inline]
fn load(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// Pixels per [`Runs::block`] call: the delta bytes of one block live on
/// the stack, and output room is checked once per block, not per run.
const BLOCK: usize = 512;
/// What the first row is XOR-ed with.
static NO_ROW_ABOVE: [u8; BLOCK] = [0; BLOCK];

/// Run emission over a delta plane that exists one block at a time: `pos`
/// bytes are written, the open run started at pixel `start`, and `last` is
/// the delta byte before the next block, i.e. the open run's value.
struct Runs {
    pos: usize,
    start: usize,
    last: u8,
}

impl Runs {
    /// Worst case of what one [`Runs::block`] call writes for `pixels`
    /// pixels: a run costs at most two bytes per pixel it covers, except
    /// that the run open at the block's start and the one open at its end
    /// (closed by the caller after the last block) may each cost a full
    /// varint and a value whatever they cover.
    const fn room(pixels: usize) -> usize {
        2 * pixels + 2 * 11
    }

    /// Emits the runs that end inside `cur`, the pixels from `at` on, whose
    /// row above is `above`; `out[self.pos..]` has [`Runs::room`] for them.
    fn block(&mut self, out: &mut [u8], at: usize, cur: &[u8], above: &[u8], shift: u8) {
        // `(a >> s) ^ (b >> s) = (a ^ b) >> s`: quantise and row-XOR are one
        // expression per pixel, a byte loop the compiler vectorises.
        // `plane[7]` is the delta byte in front of the block.
        let mut plane = [0u8; 8 + BLOCK];
        plane[7] = self.last;
        for ((delta, pixel), up) in plane[8..].iter_mut().zip(cur).zip(above) {
            *delta = (pixel ^ up) >> shift;
        }
        self.last = plane[7 + cur.len()];

        let full = cur.len() & !7;
        for word in (0..full).step_by(8) {
            self.word(out, at + word, &plane[word + 7..word + 16], u64::MAX);
        }
        if full < cur.len() {
            let valid = u64::MAX >> (64 - 8 * (cur.len() - full));
            self.word(out, at + full, &plane[full + 7..full + 16], valid);
        }
    }

    /// Closes the runs that end in the eight delta bytes `window[1..]`
    /// (those in the `valid` lanes; lane 0 is pixel `at`) by comparing every
    /// byte with its predecessor at once: a word without a run boundary
    /// costs two loads, an XOR and a compare, and each boundary is one
    /// `trailing_zeros`.
    #[inline(always)]
    fn word(&mut self, out: &mut [u8], at: usize, window: &[u8], valid: u64) {
        const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
        let before = load(&window[..8]);
        let differs = (before ^ load(&window[1..])) & valid;
        if differs != 0 {
            // Bit 7 of every lane that differs from its predecessor (no
            // carry crosses a lane: 0x7F + 0x7F < 0x100).
            let mut edges = (((differs & LOW7) + LOW7) | differs) & !LOW7;
            while edges != 0 {
                let lane = edges.trailing_zeros() as usize / 8;
                self.close(out, at + lane, (before >> (8 * lane)) as u8);
                edges &= edges - 1;
            }
        }
    }

    /// Writes the open run, of `value`, as ending before pixel `end`, where
    /// the next one starts. A run shorter than 128 is a one-byte varint: the
    /// straight-line case.
    #[inline(always)]
    fn close(&mut self, out: &mut [u8], end: usize, value: u8) {
        let mut run = end - self.start;
        self.start = end;
        while run >= 0x80 {
            out[self.pos] = run as u8 | 0x80;
            self.pos += 1;
            run >>= 7;
        }
        out[self.pos..self.pos + 2].copy_from_slice(&[run as u8, value]);
        self.pos += 2;
    }
}

thread_local! {
    /// Where a frame's bytes are assembled before they are copied out at
    /// exact size; as large as the largest encoded frame this thread has
    /// produced.
    static ENCODE_OUT: RefCell<BytesMut> = const { RefCell::new(BytesMut::new()) };
}

/// Encodes a frame. Infallible: any frame can be encoded at any quality.
///
/// One pass over the pixels (see the module docs); output is byte-identical
/// to [`encode_scalar`].
pub fn encode(frame: &Frame, quality: Quality) -> Bytes {
    let width = frame.width() as usize;
    let shift = quality.shift;
    let pixels = frame.pixels();

    let mut out = ENCODE_OUT.take();
    out.clear();
    put_header(&mut out, frame, shift);
    let mut runs = Runs {
        pos: out.len(),
        start: 0,
        last: pixels[0] >> shift,
    };
    // The first row has nothing above it; every later pixel is XOR-ed with
    // the one `width` bytes back, whatever rows a block straddles.
    let (first, rest) = pixels.split_at(width);
    let blocks = first
        .chunks(BLOCK)
        .map(|cur| (cur, &NO_ROW_ABOVE[..]))
        .chain(rest.chunks(BLOCK).zip(pixels.chunks(BLOCK)));
    let mut at = 0;
    for (cur, above) in blocks {
        let room = runs.pos + Runs::room(cur.len());
        if out.len() < room {
            // All of the capacity at once: one fill per frame, not per block.
            out.resize(room.max(out.capacity()), 0);
        }
        runs.block(&mut out, at, cur, above, shift);
        at += cur.len();
    }
    runs.close(&mut out, pixels.len(), runs.last);
    let encoded = Bytes::copy_from_slice(&out[..runs.pos]);
    ENCODE_OUT.set(out);
    encoded
}

/// Decodes an encoded frame.
///
/// Fills the non-zero runs into a zeroed pixel buffer, then undoes the row
/// delta and the quantisation in one sweep (see the module docs). Produces
/// frames byte-identical to [`decode_scalar`], and the same error on a
/// malformed input.
///
/// # Errors
///
/// Returns [`MediaError`] if the buffer is truncated, has bad magic, an
/// unsupported version or shift, implausible dimensions, or an inconsistent
/// pixel count.
pub fn decode(encoded: &[u8]) -> Result<Frame, MediaError> {
    let mut buf = encoded;
    let (width, height, shift, seq, timestamp_ns) = decode_header(&mut buf)?;

    let (w, total) = (width as usize, width as usize * height as usize);
    let mut pixels = vec![0u8; total];
    let mut at = 0;
    while at < total {
        // A run shorter than 128 is a one-byte varint: the straight-line
        // case.
        let (run, value) = match *buf {
            [run, value, ref rest @ ..] if run < 0x80 => {
                buf = rest;
                (u64::from(run), value)
            }
            _ => {
                let run = get_varint(&mut buf)?;
                if !buf.has_remaining() {
                    return Err(MediaError::Truncated {
                        available: 0,
                        needed: 1,
                    });
                }
                (run, buf.get_u8())
            }
        };
        // `run` is straight off the wire and can be `u64::MAX`: compare it
        // with what is left, never add it to what is done.
        if run == 0 || run > (total - at) as u64 {
            return Err(MediaError::PixelCountMismatch {
                expected: total,
                actual: at.saturating_add(run as usize),
            });
        }
        let run = run as usize;
        if run == 1 {
            pixels[at] = value;
        } else if value != 0 {
            pixels[at..at + run].fill(value);
        }
        at += run;
    }

    // Top-down: row r becomes quantised pixels by XOR-ing the quantised row
    // above, which is then final and is widened to band centres in the same
    // step (byte loops the compiler vectorises). Only the low `8 - shift`
    // bits of the row above take part, as in the oracle (a valid stream has
    // no others).
    let (low, half) = (0xFF >> shift, (1u8 << shift) / 2);
    let dequant = |q: u8| (q << shift) | if q != 0 { half } else { 0 };
    for row in 1..height as usize {
        let (above, cur) = pixels[(row - 1) * w..(row + 1) * w].split_at_mut(w);
        for (up, pixel) in above.iter_mut().zip(cur) {
            *pixel ^= *up & low;
            *up = dequant(*up);
        }
    }
    for pixel in &mut pixels[total - w..] {
        *pixel = dequant(*pixel);
    }

    Ok(Frame::from_pixels(width, height, pixels, seq, timestamp_ns))
}

fn decode_header(buf: &mut &[u8]) -> Result<(u32, u32, u8, u64, u64), MediaError> {
    if buf.len() < 4 {
        return Err(MediaError::Truncated {
            available: buf.len(),
            needed: 4,
        });
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&buf[..4]);
    if magic != MAGIC {
        return Err(MediaError::BadMagic { found: magic });
    }
    buf.advance(4);

    if buf.remaining() < 10 {
        return Err(MediaError::Truncated {
            available: buf.remaining(),
            needed: 10,
        });
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(MediaError::UnsupportedVersion(version));
    }
    let shift = buf.get_u8();
    if shift > 7 {
        return Err(MediaError::BadShift(shift));
    }
    let width = buf.get_u32();
    let height = buf.get_u32();
    if width == 0 || height == 0 || width > MAX_DIMENSION || height > MAX_DIMENSION {
        return Err(MediaError::BadDimensions { width, height });
    }
    let seq = get_varint(buf)?;
    let timestamp_ns = get_varint(buf)?;
    Ok((width, height, shift, seq, timestamp_ns))
}

// ---------------------------------------------------------------------------
// Scalar reference oracle
// ---------------------------------------------------------------------------

/// Byte-at-a-time reference encoder. Kept as the oracle the word-wide
/// [`encode`] is property-tested against; not used on the hot path.
pub fn encode_scalar(frame: &Frame, quality: Quality) -> Bytes {
    let width = frame.width() as usize;
    let height = frame.height() as usize;
    let shift = quality.shift;
    let pixels = frame.pixels();

    // Header.
    let mut out = BytesMut::with_capacity(64 + pixels.len() / 16);
    put_header(&mut out, frame, shift);

    // Quantise + row delta into a scratch buffer, then RLE.
    let mut delta = vec![0u8; pixels.len()];
    for row in 0..height {
        let base = row * width;
        for col in 0..width {
            let q = pixels[base + col] >> shift;
            let above = if row == 0 {
                0
            } else {
                delta_src(&delta, pixels, base - width + col, shift)
            };
            delta[base + col] = q ^ above;
        }
    }

    // RLE over the whole delta plane.
    let mut i = 0;
    while i < delta.len() {
        let value = delta[i];
        let mut run = 1usize;
        while i + run < delta.len() && delta[i + run] == value {
            run += 1;
        }
        put_varint(&mut out, run as u64);
        out.put_u8(value);
        i += run;
    }
    out.freeze()
}

// The delta plane stores XORs, but the "above" reference must be the
// quantised *pixel*, not the delta. Recompute it from the original pixels.
fn delta_src(_delta: &[u8], pixels: &[u8], idx: usize, shift: u8) -> u8 {
    pixels[idx] >> shift
}

/// Byte-at-a-time reference decoder (oracle for [`decode`]).
///
/// # Errors
///
/// Same contract as [`decode`].
pub fn decode_scalar(encoded: &[u8]) -> Result<Frame, MediaError> {
    let mut buf = encoded;
    let (width, height, shift, seq, timestamp_ns) = decode_header(&mut buf)?;

    let total = width as usize * height as usize;
    let mut delta = Vec::with_capacity(total);
    while delta.len() < total {
        let run = get_varint(&mut buf)? as usize;
        if !buf.has_remaining() {
            return Err(MediaError::Truncated {
                available: 0,
                needed: 1,
            });
        }
        let value = buf.get_u8();
        if run == 0 || run > total - delta.len() {
            return Err(MediaError::PixelCountMismatch {
                expected: total,
                actual: delta.len().saturating_add(run),
            });
        }
        delta.extend(std::iter::repeat_n(value, run));
    }

    // Undo row delta and quantisation.
    let w = width as usize;
    let mut pixels = vec![0u8; total];
    for row in 0..height as usize {
        let base = row * w;
        for col in 0..w {
            let above_q = if row == 0 {
                0
            } else {
                pixels[base - w + col] >> shift
            };
            let q = delta[base + col] ^ above_q;
            // Reconstruct to band centre to halve the quantisation error.
            let reconstructed = if shift == 0 {
                q
            } else {
                (q << shift) | ((1u8 << shift) / 2 * u8::from(q != 0))
            };
            pixels[base + col] = reconstructed;
        }
    }

    Ok(Frame::from_pixels(width, height, pixels, seq, timestamp_ns))
}

/// Convenience: the encoded size in bytes of `frame` at `quality`.
pub fn encoded_size(frame: &Frame, quality: Quality) -> usize {
    encode(frame, quality).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuf;
    use crate::pose::standing_pose;
    use crate::scene::SceneRenderer;

    fn test_frame() -> Frame {
        SceneRenderer::new(160, 120).render(&standing_pose(), 42, 123_456)
    }

    #[test]
    fn lossless_roundtrip_is_exact() {
        let frame = test_frame();
        let encoded = encode(&frame, Quality::LOSSLESS);
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded.pixels(), frame.pixels());
        assert_eq!(decoded.seq(), 42);
        assert_eq!(decoded.timestamp_ns(), 123_456);
        assert_eq!(decoded.width(), 160);
        assert_eq!(decoded.height(), 120);
    }

    #[test]
    fn lossy_roundtrip_bounded_error() {
        let frame = test_frame();
        for shift in 1..=4u8 {
            let quality = Quality::new(shift);
            let decoded = decode(&encode(&frame, quality)).unwrap();
            let max_err = frame
                .pixels()
                .iter()
                .zip(decoded.pixels())
                .map(|(a, b)| a.abs_diff(*b))
                .max()
                .unwrap();
            assert!(
                max_err <= quality.max_error(),
                "shift {shift}: max error {max_err} > {}",
                quality.max_error()
            );
        }
    }

    #[test]
    fn word_encode_matches_scalar_oracle() {
        let frame = test_frame();
        for shift in 0..=7u8 {
            let quality = Quality::new(shift);
            assert_eq!(
                encode(&frame, quality),
                encode_scalar(&frame, quality),
                "shift {shift}: word-wide encode diverged from scalar oracle"
            );
        }
    }

    #[test]
    fn word_decode_matches_scalar_oracle() {
        let frame = test_frame();
        for shift in 0..=7u8 {
            let encoded = encode_scalar(&frame, Quality::new(shift));
            let word = decode(&encoded).unwrap();
            let scalar = decode_scalar(&encoded).unwrap();
            assert_eq!(word.pixels(), scalar.pixels(), "shift {shift}");
            assert_eq!(word.seq(), scalar.seq());
            assert_eq!(word.timestamp_ns(), scalar.timestamp_ns());
        }
    }

    #[test]
    fn word_kernels_handle_non_word_widths() {
        // Widths not divisible by 8 exercise every remainder path.
        for (w, h) in [(1u32, 1u32), (3, 5), (7, 7), (9, 2), (13, 11), (61, 33)] {
            let mut buf = FrameBuf::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    buf.put(i64::from(x), i64::from(y), ((x * 31 + y * 17) % 251) as u8);
                }
            }
            let frame = buf.freeze(9, 99);
            for shift in [0u8, 1, 2, 5, 7] {
                let quality = Quality::new(shift);
                assert_eq!(
                    encode(&frame, quality),
                    encode_scalar(&frame, quality),
                    "{w}x{h} shift {shift}"
                );
                let encoded = encode(&frame, quality);
                assert_eq!(
                    decode(&encoded).unwrap().pixels(),
                    decode_scalar(&encoded).unwrap().pixels(),
                    "{w}x{h} shift {shift}"
                );
            }
        }
    }

    #[test]
    fn default_quality_preserves_joint_bands() {
        use crate::pose::Joint;
        use crate::scene::{joint_for_intensity, joint_intensity};
        let frame = test_frame();
        let decoded = decode(&encode(&frame, Quality::default())).unwrap();
        // Every joint disc centre must still decode to the right joint.
        let pose = standing_pose();
        for joint in Joint::ALL {
            let kp = pose.joint(joint);
            let x = (kp.x * 160.0).round() as u32;
            let y = (kp.y * 120.0).round() as u32;
            let v = decoded.get(x, y).unwrap();
            assert_eq!(
                joint_for_intensity(v),
                Some(joint),
                "joint {joint:?}: encoded {} decoded {v}",
                joint_intensity(joint)
            );
        }
    }

    #[test]
    fn compresses_synthetic_frames_substantially() {
        let frame = test_frame();
        let encoded = encode(&frame, Quality::default());
        let ratio = frame.raw_size() as f64 / encoded.len() as f64;
        assert!(ratio > 5.0, "compression ratio only {ratio:.1}");
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let err = decode(b"NOPE rest of buffer").unwrap_err();
        assert!(matches!(err, MediaError::BadMagic { .. }));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let frame = test_frame();
        let encoded = encode(&frame, Quality::default());
        // Truncating at any point must error, never panic.
        for len in 0..encoded.len().min(64) {
            assert!(decode(&encoded[..len]).is_err(), "len {len} decoded");
            assert!(decode_scalar(&encoded[..len]).is_err(), "len {len} scalar");
        }
        assert!(decode(&encoded[..encoded.len() - 1]).is_err());
    }

    #[test]
    fn decode_rejects_bad_version() {
        let frame = test_frame();
        let mut encoded = encode(&frame, Quality::default()).to_vec();
        encoded[4] = 99;
        assert!(matches!(
            decode(&encoded).unwrap_err(),
            MediaError::UnsupportedVersion(99)
        ));
    }

    #[test]
    fn decode_reports_a_bad_shift_as_such() {
        let mut encoded = encode(&test_frame(), Quality::default()).to_vec();
        encoded[5] = 8;
        assert_eq!(decode(&encoded).unwrap_err(), MediaError::BadShift(8));
    }

    #[test]
    fn decode_rejects_a_run_length_that_overflows_the_pixel_count() {
        // 8x8, lossless, seq 0, t 0; then a run of 1, a run of `u64::MAX`
        // (nine 0xFF and a 0x01) and a run of 64. `1 + u64::MAX` wraps to 0:
        // a decoder that adds before it compares panics in a debug build
        // and, in release, accepts a frame whose runs never covered it.
        let mut bytes = b"VPF1\x01\x00\x00\x00\x00\x08\x00\x00\x00\x08\x00\x00".to_vec();
        bytes.extend_from_slice(&[0x01, 0x07]);
        bytes.extend_from_slice(&[0xFF; 9]);
        bytes.extend_from_slice(&[0x01, 0x09, 0x40, 0x03]);
        let expected = MediaError::PixelCountMismatch {
            expected: 64,
            actual: usize::MAX,
        };
        assert_eq!(decode(&bytes).unwrap_err(), expected);
        assert_eq!(decode_scalar(&bytes).unwrap_err(), expected);
    }

    #[test]
    fn flat_frame_is_one_three_byte_varint_run() {
        // 256x80 of one value: the first row is a run of 256, and the
        // 20 224 zero deltas below it are a single run that crosses 79 row
        // ends and needs a three-byte varint (>= 16 384).
        let mut buf = FrameBuf::new(256, 80);
        buf.fill(0xDC);
        let frame = buf.freeze(1, 2);
        for shift in 0..=7u8 {
            let quality = Quality::new(shift);
            let encoded = encode(&frame, quality);
            assert_eq!(encoded, encode_scalar(&frame, quality), "shift {shift}");
            let header = 4 + 1 + 1 + 4 + 4 + 1 + 1;
            assert_eq!(
                encoded[header..],
                [0x80, 0x02, 0xDC >> shift, 0x80, 0x9E, 0x01, 0x00],
                "shift {shift}"
            );
            let decoded = decode(&encoded).unwrap();
            assert_eq!(decoded, decode_scalar(&encoded).unwrap(), "shift {shift}");
        }
    }

    #[test]
    fn decode_rejects_zero_dimensions() {
        let frame = test_frame();
        let mut encoded = encode(&frame, Quality::default()).to_vec();
        encoded[6..10].copy_from_slice(&0u32.to_be_bytes());
        assert!(matches!(
            decode(&encoded).unwrap_err(),
            MediaError::BadDimensions { .. }
        ));
    }

    #[test]
    fn decode_rejects_huge_dimensions() {
        let frame = test_frame();
        let mut encoded = encode(&frame, Quality::default()).to_vec();
        encoded[6..10].copy_from_slice(&(MAX_DIMENSION + 1).to_be_bytes());
        assert!(matches!(
            decode(&encoded).unwrap_err(),
            MediaError::BadDimensions { .. }
        ));
    }

    #[test]
    fn quality_constructors() {
        assert_eq!(Quality::LOSSLESS.shift(), 0);
        assert_eq!(Quality::LOSSLESS.max_error(), 0);
        assert_eq!(Quality::new(3).max_error(), 7);
        assert_eq!(Quality::default().shift(), 2);
    }

    #[test]
    #[should_panic(expected = "at most 7")]
    fn quality_rejects_large_shift() {
        let _ = Quality::new(8);
    }

    #[test]
    fn all_black_frame_is_tiny() {
        let frame = FrameBuf::new(640, 480).freeze(0, 0);
        let encoded = encode(&frame, Quality::default());
        assert!(
            encoded.len() < 40,
            "flat frame took {} bytes",
            encoded.len()
        );
        let decoded = decode(&encoded).unwrap();
        assert!(decoded.pixels().iter().all(|&p| p == 0));
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut slice: &[u8] = &buf;
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn encoded_size_matches_encode_len() {
        let frame = test_frame();
        assert_eq!(
            encoded_size(&frame, Quality::default()),
            encode(&frame, Quality::default()).len()
        );
    }
}
