//! Cross-crate property-based tests (proptest) on the wire formats and the
//! core invariants.

use proptest::prelude::*;
use videopipe::core::flow::CreditController;
use videopipe::core::message::Payload;
use videopipe::core::metrics::LatencyHistogram;
use videopipe::media::{codec, Frame, FrameId, Keypoint, Pose, JOINT_COUNT};
use videopipe::net::{Endpoint, MessageKind, WireMessage};

fn arb_pose() -> impl Strategy<Value = Pose> {
    proptest::collection::vec((-2.0f32..3.0, -2.0f32..3.0), JOINT_COUNT).prop_map(|coords| {
        let mut kps = [Keypoint::default(); JOINT_COUNT];
        for (kp, (x, y)) in kps.iter_mut().zip(coords) {
            *kp = Keypoint::new(x, y);
        }
        Pose::new(kps)
    })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Empty),
        "[ -~]{0,64}".prop_map(Payload::Text),
        proptest::collection::vec(any::<u8>(), 0..256)
            .prop_map(|v| Payload::Blob(bytes::Bytes::from(v))),
        any::<u64>().prop_map(|v| Payload::FrameRef(FrameId::from_u64(v))),
        proptest::collection::vec(any::<u8>(), 0..256)
            .prop_map(|v| Payload::EncodedFrame(bytes::Bytes::from(v))),
        (arb_pose(), 0.0f32..1.0).prop_map(|(pose, score)| Payload::Pose { pose, score }),
        proptest::collection::vec(arb_pose(), 0..4).prop_map(Payload::Poses),
        proptest::collection::vec(-1e6f32..1e6, 0..64).prop_map(Payload::Vector),
        proptest::collection::vec(proptest::collection::vec(-1e3f32..1e3, 0..8), 0..6)
            .prop_map(Payload::Matrix),
        ("[a-z_]{1,24}", 0.0f32..1.0)
            .prop_map(|(label, confidence)| Payload::Label { label, confidence }),
        any::<u64>().prop_map(Payload::Count),
        proptest::collection::vec((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), 0..8)
            .prop_map(Payload::Boxes),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn payload_wire_roundtrip(payload in arb_payload()) {
        let encoded = payload.encode();
        let decoded = Payload::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, payload);
    }

    #[test]
    fn payload_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Payload::decode(&bytes.into()); // must not panic
    }

    #[test]
    fn wire_message_roundtrip(
        kind in 0u8..5,
        channel in "[a-z_/]{0,32}",
        reply in "[a-z_/]{0,32}",
        corr in any::<u64>(),
        seq in any::<u64>(),
        ts in any::<u64>(),
        epoch in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let msg = WireMessage {
            kind: MessageKind::from_u8(kind).unwrap(),
            channel,
            reply_to: reply,
            corr_id: corr,
            seq,
            timestamp_ns: ts,
            epoch,
            payload: bytes::Bytes::from(payload),
        };
        let encoded = msg.encode().unwrap();
        prop_assert_eq!(WireMessage::decode(&encoded).unwrap(), msg);
    }

    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = WireMessage::decode(&bytes);
    }

    #[test]
    fn image_codec_roundtrip_lossless(
        width in 1u32..48,
        height in 1u32..48,
        seed in any::<u64>(),
        seq in any::<u64>(),
        ts in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pixels: Vec<u8> = (0..width as usize * height as usize).map(|_| rng.gen()).collect();
        let frame = Frame::from_pixels(width, height, pixels, seq, ts);
        let decoded = codec::decode(&codec::encode(&frame, codec::Quality::LOSSLESS)).unwrap();
        prop_assert_eq!(decoded.pixels(), frame.pixels());
        prop_assert_eq!(decoded.seq(), seq);
        prop_assert_eq!(decoded.timestamp_ns(), ts);
    }

    #[test]
    fn image_codec_lossy_error_bounded(
        shift in 1u8..5,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pixels: Vec<u8> = (0..32 * 32).map(|_| rng.gen()).collect();
        let frame = Frame::from_pixels(32, 32, pixels, 0, 0);
        let quality = codec::Quality::new(shift);
        let decoded = codec::decode(&codec::encode(&frame, quality)).unwrap();
        let max_err = frame
            .pixels()
            .iter()
            .zip(decoded.pixels())
            .map(|(a, b)| a.abs_diff(*b))
            .max()
            .unwrap();
        prop_assert!(max_err <= quality.max_error());
    }

    #[test]
    fn image_codec_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = codec::decode(&bytes);
    }

    #[test]
    fn endpoint_display_parse_roundtrip(
        bind in any::<bool>(),
        inproc in any::<bool>(),
        name in "[a-z][a-z0-9_]{0,16}",
        port in 1u16..u16::MAX,
    ) {
        use videopipe::net::EndpointMode;
        let mode = if bind { EndpointMode::Bind } else { EndpointMode::Connect };
        let ep = if inproc {
            Endpoint::inproc(name, mode)
        } else if bind {
            Endpoint::bind_tcp(port)
        } else {
            Endpoint::connect_tcp(name, port)
        };
        let reparsed: Endpoint = ep.to_string().parse().unwrap();
        prop_assert_eq!(reparsed, ep);
    }

    #[test]
    fn credit_controller_invariants(credits in 1u32..8, ops in proptest::collection::vec(any::<bool>(), 0..256)) {
        let mut fc = CreditController::new(credits);
        for admit in ops {
            if admit {
                fc.try_admit();
            } else {
                fc.complete();
            }
            prop_assert!(fc.in_flight() <= fc.credits());
            prop_assert_eq!(fc.admitted(), fc.completed() + u64::from(fc.in_flight()));
        }
    }

    #[test]
    fn credit_controller_never_leaks_under_fault_interleavings(
        credits in 1u32..8,
        ops in proptest::collection::vec(0u8..3, 0..512),
    ) {
        // Arbitrary interleavings of admissions, completions and error-path
        // credit returns — including spurious completions/faults with
        // nothing in flight — must never leak a credit (in_flight stuck
        // above what was admitted) or double-return one (in_flight
        // exceeding credits, or accounting drift).
        let mut fc = CreditController::new(credits);
        for op in ops {
            match op {
                0 => {
                    fc.try_admit();
                }
                1 => fc.complete(),
                _ => fc.fault(),
            }
            prop_assert!(fc.in_flight() <= fc.credits());
            prop_assert_eq!(
                fc.admitted(),
                fc.completed() + fc.faulted() + u64::from(fc.in_flight())
            );
        }
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(samples in proptest::collection::vec(1u64..10_000_000_000, 1..200)) {
        let mut hist = LatencyHistogram::new();
        for s in &samples {
            hist.record(*s);
        }
        let mut last = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = hist.quantile_ns(q);
            prop_assert!(v >= last, "quantiles must be monotone");
            prop_assert!(v >= hist.min_ns() && v <= hist.max_ns());
            last = v;
        }
        prop_assert_eq!(hist.count(), samples.len() as u64);
    }

    #[test]
    fn pose_flatten_roundtrip(pose in arb_pose()) {
        let back = Pose::from_flat(&pose.flatten()).unwrap();
        prop_assert_eq!(back, pose);
    }
}
