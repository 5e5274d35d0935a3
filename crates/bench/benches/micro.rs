//! Criterion micro-benchmarks for the substrates: image codec, wire codec,
//! payload codec, k-means, k-NN, pose detection, the DES engine and the
//! in-process transport.
//!
//! Run with `cargo bench -p videopipe-bench --bench micro`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use videopipe_core::message::Payload;
use videopipe_media::motion::{ExerciseKind, MotionClip};
use videopipe_media::scene::SceneRenderer;
use videopipe_media::{codec, Frame, Pose};
use videopipe_ml::features::window_features;
use videopipe_ml::{KMeans, KnnClassifier, PoseDetector};
use videopipe_net::{MessageKind, WireMessage};
use videopipe_sim::{Engine, SimTime};

fn pose_frame() -> Frame {
    SceneRenderer::new(320, 240).render(&Pose::default(), 0, 0)
}

fn bench_image_codec(c: &mut Criterion) {
    let frame = pose_frame();
    let encoded = codec::encode(&frame, codec::Quality::default());
    let mut group = c.benchmark_group("image_codec");
    group.throughput(Throughput::Bytes(frame.raw_size() as u64));
    group.bench_function("encode_320x240", |b| {
        b.iter(|| codec::encode(&frame, codec::Quality::default()))
    });
    group.bench_function("decode_320x240", |b| {
        b.iter(|| codec::decode(&encoded).unwrap())
    });
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let msg = WireMessage {
        kind: MessageKind::Data,
        channel: "pose_detection".into(),
        reply_to: "reply_inbox".into(),
        corr_id: 42,
        seq: 1000,
        timestamp_ns: 123_456_789,
        epoch: 0,
        payload: bytes::Bytes::from(vec![9u8; 28_000]),
    };
    let encoded = msg.encode().unwrap();
    let mut group = c.benchmark_group("wire_codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_28k", |b| b.iter(|| msg.encode().unwrap()));
    group.bench_function("decode_28k", |b| {
        b.iter(|| WireMessage::decode(&encoded).unwrap())
    });
    group.finish();
}

fn bench_payload_codec(c: &mut Criterion) {
    let clip = MotionClip::new(ExerciseKind::Squat, 2.0);
    let poses: Vec<Pose> = (0..15).map(|i| clip.pose_at(i * 66_000_000)).collect();
    let payload = Payload::Poses(poses);
    let encoded = payload.encode();
    c.bench_function("payload_codec/pose_window_roundtrip", |b| {
        b.iter(|| {
            let e = payload.encode();
            Payload::decode(&e).unwrap()
        })
    });
    let _ = encoded;
}

fn bench_kmeans(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let samples: Vec<Vec<f32>> = (0..300)
        .map(|i| {
            let base = if i % 2 == 0 { 0.0 } else { 5.0 };
            (0..34)
                .map(|_| base + rng.gen_range(-0.5f32..0.5))
                .collect()
        })
        .collect();
    c.bench_function("kmeans/fit_k2_300x34", |b| {
        b.iter(|| KMeans::new(2).fit(&samples).unwrap())
    });
    let model = KMeans::new(2).fit(&samples).unwrap();
    c.bench_function("kmeans/predict_34d", |b| {
        b.iter(|| model.predict(&samples[17]))
    });
}

fn bench_knn(c: &mut Criterion) {
    let clip = MotionClip::new(ExerciseKind::Squat, 2.0).with_jitter(0.01);
    let mut rng = StdRng::seed_from_u64(6);
    let samples: Vec<Vec<f32>> = (0..400)
        .map(|i| {
            let poses = clip.sample_sequence(i * 1_000_000, 66_000_000, 15, &mut rng);
            window_features(&poses).unwrap()
        })
        .collect();
    let labels: Vec<String> = (0..400).map(|i| format!("c{}", i % 5)).collect();
    let knn = KnnClassifier::fit(5, samples.clone(), labels).unwrap();
    let query = samples[100].clone();
    c.bench_function("knn/predict_510d_400pts", |b| {
        b.iter(|| knn.predict(&query).unwrap())
    });
}

fn bench_pose_detector(c: &mut Criterion) {
    let frame = pose_frame();
    let detector = PoseDetector::new();
    c.bench_function("pose_detector/detect_320x240", |b| {
        b.iter(|| detector.detect(&frame).unwrap())
    });
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("des_engine/schedule_pop_10k", |b| {
        b.iter_batched(
            Engine::<u64>::new,
            |mut engine| {
                for i in 0..10_000u64 {
                    engine.schedule(SimTime::from_ns(i * 7919 % 1_000_000), i);
                }
                while engine.pop().is_some() {}
                engine
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_inproc(c: &mut Criterion) {
    use videopipe_net::{InprocHub, MsgReceiver, MsgSender};
    let hub = InprocHub::new();
    let rx = hub.bind("bench_sink").unwrap();
    let tx = hub.connect("bench_sink").unwrap();
    let payload = bytes::Bytes::from(vec![1u8; 28_000]);
    c.bench_function("inproc/send_recv_28k", |b| {
        b.iter(|| {
            tx.send(WireMessage::data("bench_sink", 1, 2, payload.clone()))
                .unwrap();
            rx.recv().unwrap()
        })
    });
}

fn bench_scene(c: &mut Criterion) {
    let renderer = SceneRenderer::new(320, 240);
    let pose = Pose::default();
    c.bench_function("scene/render_320x240", |b| {
        b.iter(|| renderer.render(&pose, 0, 0))
    });
}

fn criterion_config() -> Criterion {
    Criterion::default()
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
        .sample_size(30)
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench_image_codec, bench_wire_codec, bench_payload_codec,
              bench_kmeans, bench_knn, bench_pose_detector, bench_engine,
              bench_inproc, bench_scene
}
criterion_main!(benches);
