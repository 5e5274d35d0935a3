//! **Ablation A** — brokerless vs brokered message transport.
//!
//! Paper §3.2: "While publish subscribe systems such as Kafka or queue
//! based system RabbitMQ have brokers in their systems, these brokers will
//! incur extra data communication overheads because the data was first sent
//! to the broker and then forwarded to the final destination."
//!
//! This ablation measures that claim directly on the real threaded
//! transport: one-way latency of frame-sized messages over (a) a direct
//! in-process channel, (b) a broker relay with no processing delay (the
//! pure extra hop), and (c) a broker with a 1 ms forwarding delay
//! (Kafka-ish persistence/dispatch cost). It then scales the per-hop
//! penalty to the fitness pipeline's per-frame hop count.
//!
//! Run with `cargo bench -p videopipe-bench --bench ablation_broker`.

use bytes::Bytes;
use std::time::{Duration, Instant};
use videopipe_bench::{banner, Table};
use videopipe_net::Broker;
use videopipe_net::{InprocHub, MsgReceiver, MsgSender, WireMessage};

const MESSAGES: usize = 2_000;
const PAYLOAD: usize = 28_000; // a camera-grade encoded frame

fn measure<S: Fn(WireMessage)>(rx: &dyn MsgReceiver, send: S) -> (Duration, Duration) {
    // Warm-up.
    for i in 0..100u64 {
        send(WireMessage::data("x", i, 0, Bytes::from(vec![0u8; 64])));
        let _ = rx.recv_timeout(Duration::from_secs(1)).unwrap();
    }
    let mut latencies = Vec::with_capacity(MESSAGES);
    let payload = Bytes::from(vec![7u8; PAYLOAD]);
    for i in 0..MESSAGES as u64 {
        let start = Instant::now();
        send(WireMessage::data("x", i, 0, payload.clone()));
        let _ = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        latencies.push(start.elapsed());
    }
    latencies.sort();
    (latencies[MESSAGES / 2], latencies[MESSAGES * 99 / 100])
}

fn main() {
    banner(
        "Ablation A — brokerless (ZeroMQ-style) vs brokered transport",
        "One-way delivery latency of 28 KB frame messages, real threads",
    );

    let mut table = Table::new(["transport", "p50", "p99", "extra vs direct (p50)"]);

    // Direct channel.
    let hub = InprocHub::new();
    let rx = hub.bind("direct_sink").unwrap();
    let tx = hub.connect("direct_sink").unwrap();
    let (direct_p50, direct_p99) = measure(&rx, |m| tx.send(m).unwrap());
    table.row([
        "direct (VideoPipe)".to_string(),
        format!("{direct_p50:?}"),
        format!("{direct_p99:?}"),
        "-".into(),
    ]);

    // Broker, zero forwarding delay: the pure extra hop.
    let hub2 = InprocHub::new();
    let rx2 = hub2.bind("brokered_sink").unwrap();
    let broker = Broker::start(hub2.clone(), Duration::ZERO);
    let btx = broker.sender_for("brokered_sink");
    let (hop_p50, hop_p99) = measure(&rx2, |m| btx.send(m).unwrap());
    table.row([
        "broker (extra hop only)".to_string(),
        format!("{hop_p50:?}"),
        format!("{hop_p99:?}"),
        format!("{:?}", hop_p50.saturating_sub(direct_p50)),
    ]);

    // Broker with a 1 ms dispatch cost.
    let hub3 = InprocHub::new();
    let rx3 = hub3.bind("kafka_sink").unwrap();
    let broker_slow = Broker::start(hub3.clone(), Duration::from_millis(1));
    let ktx = broker_slow.sender_for("kafka_sink");
    let (kafka_p50, kafka_p99) = measure(&rx3, |m| ktx.send(m).unwrap());
    table.row([
        "broker (1 ms dispatch)".to_string(),
        format!("{kafka_p50:?}"),
        format!("{kafka_p99:?}"),
        format!("{:?}", kafka_p50.saturating_sub(direct_p50)),
    ]);
    table.print();

    // Pipeline-level impact: the fitness pipeline moves 5 messages per
    // frame along edges (frame, pose, label, pose, count) plus 1 signal.
    let hops_per_frame = 6u32;
    let per_frame_hop = hop_p50.saturating_sub(direct_p50) * hops_per_frame;
    let per_frame_kafka = kafka_p50.saturating_sub(direct_p50) * hops_per_frame;
    println!();
    println!(
        "fitness pipeline impact ({hops_per_frame} messages/frame): \
         +{per_frame_hop:?} per frame via plain relay, +{per_frame_kafka:?} via 1 ms broker"
    );
    println!(
        "on a ~95 ms VideoPipe frame budget a 1 ms-dispatch broker costs \
         {:.1}% extra latency per frame",
        per_frame_kafka.as_secs_f64() / 0.095 * 100.0
    );
    println!();
    println!("shape checks:");
    println!(
        "  [{}] the broker's extra hop adds measurable latency over direct delivery",
        if hop_p50 > direct_p50 { "ok" } else { "FAIL" }
    );
    println!(
        "  [{}] broker dispatch costs dominate once persistence is modeled",
        if kafka_p50 > hop_p50 { "ok" } else { "FAIL" }
    );
    println!(
        "broker forwarded {} messages total",
        broker.forwarded() + broker_slow.forwarded()
    );
}
