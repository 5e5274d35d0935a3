//! Integration: a cross-device hop over real TCP — frame captured and
//! encoded on the "phone" process side, shipped as a length-prefixed wire
//! message, decoded and pose-detected on the "desktop" side.

use std::collections::VecDeque;
use std::time::{Duration, Instant};
use videopipe::core::message::Payload;
use videopipe::media::codec;
use videopipe::media::motion::{ExerciseKind, MotionClip};
use videopipe::media::{FrameStore, SourceConfig, SyntheticVideoSource};
use videopipe::ml::PoseDetector;
use videopipe::net::tcp::TcpSender;
use videopipe::net::{Ingress, MsgSender, NetError, PollEndpoint, WireMessage};

/// A PULL socket: an [`Ingress`] over one bound endpoint, turned only while
/// a receive waits. Frames a turn delivers beyond the one asked for queue
/// here, in order.
struct Pull {
    ingress: Ingress<()>,
    port: u16,
    queued: VecDeque<WireMessage>,
}

impl Pull {
    fn bind(addr: &str) -> Result<Self, NetError> {
        let endpoint = PollEndpoint::bind(addr)?;
        let port = endpoint.local_port();
        let mut ingress = Ingress::new()?;
        ingress.add((), endpoint)?;
        Ok(Pull {
            ingress,
            port,
            queued: VecDeque::new(),
        })
    }

    fn local_port(&self) -> u16 {
        self.port
    }

    /// The next frame, turning until one came or `timeout` passed.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<WireMessage, NetError> {
        let until = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.queued.pop_front() {
                return Ok(msg);
            }
            if Instant::now() >= until {
                return Err(NetError::Timeout);
            }
            let queued = &mut self.queued;
            self.ingress
                .turn(Some(until), |_, msg| queued.push_back(msg))?;
        }
    }
}

#[test]
fn frames_survive_a_real_tcp_hop_and_remain_detectable() {
    // "Desktop": listens for frames.
    let mut listener = Pull::bind("127.0.0.1:0").expect("bind");
    let addr = format!("127.0.0.1:{}", listener.local_port());

    // "Phone": captures and ships 10 frames.
    let sender = TcpSender::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    let mut source = SyntheticVideoSource::new(
        SourceConfig::new(30.0).with_noise(1.0).with_seed(3),
        MotionClip::new(ExerciseKind::Squat, 2.0),
    );
    let mut truths = Vec::new();
    for i in 0..10u64 {
        let t_ns = i * 33_000_000;
        let frame = source.capture(t_ns);
        truths.push(source.ground_truth_pose(t_ns));
        let encoded = codec::encode(&frame, codec::Quality::default());
        let payload = Payload::EncodedFrame(encoded).encode();
        sender
            .send(WireMessage::data("pose_detection", i, t_ns, payload))
            .expect("send");
    }

    // Desktop side: decode, insert into the local store, detect.
    let store = FrameStore::new();
    let detector = PoseDetector::new();
    for (i, truth) in truths.iter().enumerate() {
        let msg = listener
            .recv_timeout(Duration::from_secs(5))
            .expect("frame arrives");
        assert_eq!(msg.channel, "pose_detection");
        let Payload::EncodedFrame(bytes) = Payload::decode(&msg.payload).expect("payload") else {
            panic!("expected an encoded frame");
        };
        let frame = codec::decode(&bytes).expect("frame decodes");
        assert_eq!(frame.seq(), msg.seq);
        let id = store.insert(frame);
        let detected = detector
            .detect(&store.get(id).unwrap())
            .expect("person detected after the network hop");
        let err = detected.pose.mean_joint_error(truth);
        assert!(err < 0.03, "frame {i}: joint error {err} after TCP + codec");
        store.release(id);
    }
}

#[test]
fn service_request_roundtrip_over_tcp() {
    use videopipe::core::service::{ServiceRequest, ServiceResponse};

    let mut listener = Pull::bind("127.0.0.1:0").expect("bind");
    let addr = format!("127.0.0.1:{}", listener.local_port());
    let mut back_listener = Pull::bind("127.0.0.1:0").expect("bind back");
    let back_addr = format!("127.0.0.1:{}", back_listener.local_port());

    // Client sends a request with a reply address; a server thread answers.
    let server = std::thread::spawn(move || {
        let msg = listener
            .recv_timeout(Duration::from_secs(5))
            .expect("request");
        let request = ServiceRequest::decode(&msg.payload).expect("decode request");
        assert_eq!(request.op, "classify");
        let response = ServiceResponse::new(Payload::Label {
            label: "squat".into(),
            confidence: 0.9,
        });
        let back = TcpSender::connect_retry(&msg.reply_to, Duration::from_secs(5)).unwrap();
        back.send(WireMessage::response_to(&msg, response.encode()))
            .unwrap();
    });

    let sender = TcpSender::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    let request = ServiceRequest::new("classify", Payload::Vector(vec![0.5; 16]));
    sender
        .send(WireMessage::request(
            "activity_classifier",
            back_addr,
            77,
            request.encode(),
        ))
        .unwrap();

    let reply = back_listener
        .recv_timeout(Duration::from_secs(5))
        .expect("response");
    assert_eq!(reply.corr_id, 77);
    let response = ServiceResponse::decode(&reply.payload).expect("decode response");
    match response.payload {
        Payload::Label { label, .. } => assert_eq!(label, "squat"),
        other => panic!("expected label, got {}", other.kind_name()),
    }
    server.join().unwrap();
}
