//! Property tests for the media substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use videopipe_media::motion::{ExerciseKind, MotionClip};
use videopipe_media::scene::SceneRenderer;
use videopipe_media::{codec, Frame, FrameBuf, FrameStore};

fn arb_kind() -> impl Strategy<Value = ExerciseKind> {
    proptest::sample::select(ExerciseKind::ALL.to_vec())
}

/// Random frames with arbitrary pixels and dimensions that deliberately
/// straddle the word-kernel boundaries (widths both `% 8 == 0` and not).
fn arb_frame() -> impl Strategy<Value = Frame> {
    (1u32..80, 1u32..48).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), (w * h) as usize)
            .prop_map(move |pixels| Frame::from_pixels(w, h, pixels, 3, 7))
    })
}

/// Frames as a camera films them, which uniform pixels never produce: a
/// flat background, a few blobs, speckle on 0–10 % of the pixels, and rows
/// that now and then repeat the row above — so zero runs of 128 and more
/// cross row ends, next to widths below 8 and off the word grid.
fn arb_sparse_frame() -> impl Strategy<Value = Frame> {
    (1u32..=80, 1u32..=48, any::<u64>()).prop_map(|(w, h, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let (wi, hi) = (w as usize, h as usize);
        let mut pixels = vec![rng.gen::<u8>(); wi * hi];
        for _ in 0..rng.gen_range(0..4) {
            let (x0, y0) = (rng.gen_range(0..wi), rng.gen_range(0..hi));
            let (x1, y1) = (rng.gen_range(x0..wi) + 1, rng.gen_range(y0..hi) + 1);
            let value = rng.gen::<u8>();
            for row in pixels.chunks_exact_mut(wi).take(y1).skip(y0) {
                row[x0..x1].fill(value);
            }
        }
        let density = rng.gen_range(0.0..0.1);
        for row in 0..hi {
            if row > 0 && rng.gen_bool(0.25) {
                pixels.copy_within((row - 1) * wi..row * wi, row * wi);
                continue;
            }
            for pixel in &mut pixels[row * wi..(row + 1) * wi] {
                if rng.gen_bool(density) {
                    *pixel = rng.gen();
                }
            }
        }
        Frame::from_pixels(w, h, pixels, seed >> 1, seed >> 3)
    })
}

/// Both regimes the codec kernels must hold in: every run of length ≈ 1,
/// and long runs broken by isolated pixels.
fn arb_codec_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![arb_frame(), arb_sparse_frame()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rendered scenes always round-trip losslessly through the codec.
    #[test]
    fn scene_frames_roundtrip_lossless(kind in arb_kind(), phase in 0.0f32..1.0) {
        let pose = kind.pose_at_phase(phase);
        let frame = SceneRenderer::new(96, 72).render(&pose, 1, 2);
        let decoded = codec::decode(&codec::encode(&frame, codec::Quality::LOSSLESS)).unwrap();
        prop_assert_eq!(decoded.pixels(), frame.pixels());
    }

    /// Encoding is always smaller than raw for rendered scenes.
    #[test]
    fn scene_frames_always_compress(kind in arb_kind(), phase in 0.0f32..1.0) {
        let pose = kind.pose_at_phase(phase);
        let frame = SceneRenderer::new(96, 72).render(&pose, 0, 0);
        let encoded = codec::encode(&frame, codec::Quality::default());
        prop_assert!(encoded.len() < frame.raw_size());
    }

    /// Cyclic motions are periodic: phase and phase+1 give the same pose.
    #[test]
    fn cyclic_motions_are_periodic(kind in arb_kind(), phase in 0.0f32..1.0) {
        prop_assume!(kind.is_cyclic());
        let a = kind.pose_at_phase(phase);
        let b = kind.pose_at_phase(phase + 1.0);
        prop_assert!(a.mean_joint_error(&b) < 1e-4);
    }

    /// All generated poses stay within a sane bounding box.
    #[test]
    fn poses_stay_roughly_in_frame(kind in arb_kind(), phase in 0.0f32..1.0) {
        let pose = kind.pose_at_phase(phase);
        let (x0, y0, x1, y1) = pose.bbox();
        prop_assert!(x0 > -0.5 && y0 > -0.5 && x1 < 1.5 && y1 < 1.5,
            "{kind:?}@{phase}: bbox ({x0},{y0},{x1},{y1})");
    }

    /// The frame store never exceeds its capacity and never loses the most
    /// recent insertion.
    #[test]
    fn frame_store_capacity_invariant(capacity in 1usize..16, inserts in 1usize..64) {
        let store = FrameStore::with_capacity(capacity);
        let mut last = None;
        for i in 0..inserts {
            last = Some(store.insert(FrameBuf::new(2, 2).freeze(i as u64, 0)));
            prop_assert!(store.len() <= capacity);
        }
        prop_assert!(store.get(last.unwrap()).is_ok(), "most recent frame must be resident");
    }

    /// Hip normalisation is idempotent and removes translation.
    #[test]
    fn hip_normalisation_properties(kind in arb_kind(), phase in 0.0f32..1.0, dx in -1.0f32..1.0, dy in -1.0f32..1.0) {
        let pose = kind.pose_at_phase(phase);
        let normalised = pose.hip_normalized();
        let translated_then_normalised = pose.translated(dx, dy).hip_normalized();
        prop_assert!(normalised.mean_joint_error(&translated_then_normalised) < 1e-4);
        prop_assert!(normalised.hip_normalized().mean_joint_error(&normalised) < 1e-6);
    }

    /// Source capture is deterministic per (seed, time) regardless of call
    /// interleaving with other sources.
    #[test]
    fn source_determinism(seed in any::<u64>(), ticks in 1usize..8) {
        use videopipe_media::{SourceConfig, SyntheticVideoSource};
        let mk = || SyntheticVideoSource::new(
            SourceConfig::new(30.0).with_resolution(32, 24).with_seed(seed),
            MotionClip::new(ExerciseKind::Squat, 2.0).with_jitter(0.003),
        );
        let (mut a, mut b) = (mk(), mk());
        for i in 0..ticks {
            let t = i as u64 * 33_000_000;
            let (fa, fb) = (a.capture(t), b.capture(t));
            prop_assert_eq!(fa.pixels(), fb.pixels());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The encoder emits byte-identical output to the scalar reference oracle
    /// for every quality level, on dense and on sparse frames of every shape
    /// (including widths below 8 and not a multiple of 8).
    #[test]
    fn word_encoder_matches_scalar_oracle(frame in arb_codec_frame(), shift in 0u8..=7) {
        let quality = codec::Quality::new(shift);
        let word = codec::encode(&frame, quality);
        let scalar = codec::encode_scalar(&frame, quality);
        prop_assert_eq!(word, scalar);
    }

    /// The decoder reconstructs exactly what the scalar oracle does, and
    /// `decode(encode(f))` round-trips losslessly at shift 0.
    #[test]
    fn word_decoder_matches_scalar_oracle(frame in arb_codec_frame(), shift in 0u8..=7) {
        let quality = codec::Quality::new(shift);
        let encoded = codec::encode(&frame, quality);
        let word = codec::decode(&encoded).unwrap();
        let scalar = codec::decode_scalar(&encoded).unwrap();
        prop_assert_eq!(word.pixels(), scalar.pixels());
        prop_assert_eq!(word.width(), frame.width());
        prop_assert_eq!(word.height(), frame.height());
        prop_assert_eq!((word.seq(), word.timestamp_ns()), (frame.seq(), frame.timestamp_ns()));
        if shift == 0 {
            prop_assert_eq!(word.pixels(), frame.pixels());
        }
    }

    /// Lossy decode never errs by more than the quality's stated bound,
    /// and re-encoding the reconstruction is a fixed point (idempotent).
    #[test]
    fn lossy_roundtrip_is_bounded_and_idempotent(frame in arb_codec_frame(), shift in 0u8..=7) {
        let quality = codec::Quality::new(shift);
        let decoded = codec::decode(&codec::encode(&frame, quality)).unwrap();
        let bound = quality.max_error();
        for (a, b) in frame.pixels().iter().zip(decoded.pixels()) {
            prop_assert!(a.abs_diff(*b) <= bound, "error {} > bound {bound}", a.abs_diff(*b));
        }
        let twice = codec::decode(&codec::encode(&decoded, quality)).unwrap();
        prop_assert_eq!(twice.pixels(), decoded.pixels());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The word-wide threshold scan visits exactly the pixels its scalar
    /// oracle visits, in the same order, with the same values — for every
    /// frame shape (word-aligned or not) and every threshold, including the
    /// 0 and > 128 corners the SWAR mask special-cases.
    #[test]
    fn word_threshold_scan_matches_scalar_oracle(frame in arb_frame(), threshold in any::<u8>()) {
        use videopipe_media::scan::{scan_at_least, scan_at_least_scalar};
        let width = frame.width() as usize;
        for row in frame.pixels().chunks_exact(width) {
            let mut fast = Vec::new();
            let mut oracle = Vec::new();
            scan_at_least(row, threshold, |i, v| fast.push((i, v)));
            scan_at_least_scalar(row, threshold, |i, v| oracle.push((i, v)));
            prop_assert_eq!(&fast, &oracle, "threshold {}", threshold);
        }
    }
}

/// Where the `(varint run, value)` pairs of a valid encoding start, and
/// the offset and varint length of each pair.
fn run_offsets(encoded: &[u8]) -> (usize, Vec<(usize, usize)>) {
    let varint_len = |at: usize| encoded[at..].iter().take_while(|b| *b & 0x80 != 0).count() + 1;
    let seq_at = 4 + 1 + 1 + 4 + 4;
    let body = seq_at + varint_len(seq_at) + varint_len(seq_at + varint_len(seq_at));
    let mut runs = Vec::new();
    let mut at = body;
    while at < encoded.len() {
        runs.push((at, varint_len(at)));
        at += varint_len(at) + 1;
    }
    (body, runs)
}

fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// ROADMAP correctness (d): `codec::decode` sits in front of the module
/// handler's `catch_unwind`, so hostile bytes must come back as a typed
/// error (or a frame), never a panic — here on 12 000 seeded mutants that
/// know the format: truncations, byte flips, run lengths rewritten to the
/// values an overflow hides behind, and two bodies spliced. The oracle has
/// to agree on every one, error for error and pixel for pixel.
#[test]
fn decode_survives_structure_aware_mutants() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    let mut frame_rng = proptest::TestRng::from_seed(0xF4A3E5);
    let (mut ok, mut err) = (0u32, 0u32);
    for case in 0..12_000u32 {
        let shift = codec::Quality::new(rng.gen_range(0..8));
        let mut draw = || match case % 2 {
            0 => arb_frame().new_value(&mut frame_rng).unwrap(),
            _ => arb_sparse_frame().new_value(&mut frame_rng).unwrap(),
        };
        let (frame, other) = (draw(), draw());
        let valid = codec::encode(&frame, shift).to_vec();
        let (body, runs) = run_offsets(&valid);
        let total = u64::from(frame.width()) * u64::from(frame.height());
        let mutant = match rng.gen_range(0..7) {
            0 => valid[..rng.gen_range(0..valid.len())].to_vec(),
            1 => {
                let mut m = valid.clone();
                let at = rng.gen_range(0..m.len());
                m[at] ^= 1u8 << rng.gen_range(0..8u32);
                m
            }
            2 => {
                let mut m = valid.clone();
                let at = rng.gen_range(0..m.len());
                m[at] = rng.gen();
                m
            }
            3 => {
                let donor = codec::encode(&other, shift);
                let (donor_body, _) = run_offsets(&donor);
                let cut = rng.gen_range(body..=valid.len());
                let from = rng.gen_range(donor_body..=donor.len());
                [&valid[..cut], &donor[from..]].concat()
            }
            _ => {
                let (at, len) = runs[rng.gen_range(0..runs.len())];
                let run = [0, total, total + 1, u64::MAX][rng.gen_range(0..4usize)];
                [&valid[..at], &varint(run)[..], &valid[at + len..]].concat()
            }
        };
        let fast = codec::decode(&mutant);
        assert_eq!(fast, codec::decode_scalar(&mutant), "case {case}");
        match fast {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    // The mutants are not all rejected at the magic: both outcomes occur.
    assert!(ok > 500 && err > 5_000, "{ok} decoded, {err} rejected");
}

/// The VPF1 bytes cannot drift: the camera the fitness app films with (seed
/// 42, σ = 1.5, the 30-frame squat) encodes to exactly these lengths.
#[test]
fn ring_frame_encoded_lengths_are_pinned() {
    const LENGTHS: [usize; 30] = [
        7568, 7870, 8279, 7832, 7834, 7861, 7917, 7712, 7644, 7828, 7791, 7738, 7548, 7574, 7662,
        7910, 7981, 7944, 7856, 8024, 7736, 7780, 7809, 7911, 7814, 7948, 7712, 7932, 7895, 8070,
    ];
    use videopipe_media::{SourceConfig, SyntheticVideoSource};
    let mut camera = SyntheticVideoSource::new(
        SourceConfig::new(30.0)
            .with_resolution(320, 240)
            .with_noise(1.5)
            .with_seed(42),
        MotionClip::new(ExerciseKind::Squat, 2.0).with_jitter(0.004),
    );
    for (i, expected) in LENGTHS.into_iter().enumerate() {
        let frame = camera.capture(i as u64 * (2_000_000_000 / 30));
        let encoded = codec::encode(&frame, codec::Quality::default());
        assert_eq!(encoded.len(), expected, "ring frame {i}");
        assert_eq!(
            encoded,
            codec::encode_scalar(&frame, codec::Quality::default())
        );
    }
}
