//! Layer micro-cells: public functions of one layer timed directly, on the
//! inputs the workload itself uses (a frame from the replay ring, the
//! `WireMessage` shape its edges carry). Each cell is the median of
//! [`BATCHES`] batch means.

use crate::stats;
use crate::workloads::{App, Inputs, Workload};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use videopipe_core::message::Payload;
use videopipe_media::codec;
use videopipe_net::tcp::TcpSender;
use videopipe_net::{
    BufferPool, FrameBatch, InprocHub, MsgReceiver, MsgSender, PollEndpoint, StreamDecoder,
    WireMessage,
};

const BATCHES: usize = 5;

thread_local! {
    /// Allocation calls made by this thread. Thread-local, so the counting
    /// allocator adds no shared cache line to the measured runs.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread call count, for
/// `net.wire.allocs_per_frame`.
pub struct CountingAlloc;

// SAFETY: every method delegates to the system allocator with the caller's
// arguments unchanged. The only addition is a bump of a const-initialised
// `Cell<u64>` thread-local with no destructor, which neither allocates nor
// can be observed by the allocator's callers; `try_with` skips the bump
// while a thread is being torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` above with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Median over batches of the mean time of one `op`, in µs.
fn median_of_batches(per_batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut means = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES {
        let start = Instant::now();
        for i in 0..per_batch {
            op(batch * per_batch + i);
        }
        means.push(start.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    stats::median(&mut means)
}

#[derive(Debug, Default)]
pub struct Cells {
    pub capture_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub encoded_bytes: f64,
    pub inproc_hop_us: f64,
    pub tcp_hop_us: f64,
    pub wire_allocs_per_frame: f64,
}

pub fn run(workload: &Workload, inputs: &Inputs) -> Cells {
    let mut cells = Cells {
        capture_us: stats::median_us(&inputs.capture_ns),
        ..Cells::default()
    };
    let frames = &inputs.frames;
    let quality = codec::Quality::default();
    let encoded: Vec<Bytes> = frames.iter().map(|f| codec::encode(f, quality)).collect();
    if !frames.is_empty() {
        let per_batch = frames.len() / BATCHES;
        cells.encode_us = median_of_batches(per_batch, |i| {
            black_box(codec::encode(black_box(&frames[i]), quality));
        });
        cells.decode_us = median_of_batches(per_batch, |i| {
            black_box(codec::decode(black_box(&encoded[i])).expect("ring frame decodes"));
        });
        let mut sizes: Vec<f64> = encoded.iter().map(|e| e.len() as f64).collect();
        cells.encoded_bytes = stats::median(&mut sizes);
    }
    // The data messages the workload's edges carry: encoded ring frames for
    // the fitness app, 8-byte counts for the relay.
    let messages: Vec<WireMessage> = (0..64u64)
        .map(|seq| {
            let payload = match workload.app {
                App::Relay => Payload::Count(seq),
                App::Fitness | App::FitnessBaseline => {
                    Payload::EncodedFrame(encoded[seq as usize % encoded.len()].clone())
                }
            };
            WireMessage::data("mod/bench/next", seq, seq, payload.encode())
        })
        .collect();
    cells.inproc_hop_us = inproc_hop(&messages);
    cells.tcp_hop_us = tcp_hop(&messages);
    cells.wire_allocs_per_frame = wire_allocs(&messages);
    cells
}

/// One hub hop as the reactor's send path does it: `connect` by channel
/// name per message, `send`, and the receiver's `try_recv` — without the
/// cross-thread wake, which the traced run's edge transit includes.
fn inproc_hop(messages: &[WireMessage]) -> f64 {
    let hub = InprocHub::new();
    let channel = messages[0].channel.clone();
    let rx = hub.bind(&channel).expect("bind cell channel");
    median_of_batches(2_000, |i| {
        let msg = messages[i % messages.len()].clone();
        hub.connect(&channel)
            .and_then(|tx| tx.send(msg))
            .expect("hub send");
        black_box(rx.try_recv().expect("hub recv"));
    })
}

/// One message one way over loopback TCP: `TcpSender::send` until
/// `PollEndpoint::poll` hands it over, polled without sleeping. The
/// traffic crosses the host's loopback interface, not a real link.
fn tcp_hop(messages: &[WireMessage]) -> f64 {
    let mut endpoint = PollEndpoint::bind("127.0.0.1:0").expect("bind loopback");
    let addr = format!("127.0.0.1:{}", endpoint.local_port());
    let sender = TcpSender::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    median_of_batches(200, |i| {
        sender
            .send(messages[i % messages.len()].clone())
            .expect("tcp send");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = 0;
        while got == 0 {
            got = endpoint.poll(&mut |msg| {
                black_box(msg);
            });
            assert!(Instant::now() < deadline, "loopback hop timed out");
        }
    })
}

/// Heap allocations per message through the wire codec alone:
/// `FrameBatch::stage` + `write_some` into memory, then `StreamDecoder`.
fn wire_allocs(messages: &[WireMessage]) -> f64 {
    let pool = Arc::new(BufferPool::default());
    let mut batch = FrameBatch::with_pool(Arc::clone(&pool));
    let mut decoder = StreamDecoder::new(pool);
    let mut wire: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut per_frame = Vec::with_capacity(BATCHES + 1);
    // The first round warms the pool and is dropped.
    for _ in 0..=BATCHES {
        wire.clear();
        let before = allocs();
        for msg in messages {
            batch.stage(msg).expect("stage");
        }
        while !batch.is_empty() {
            batch
                .write_some(&mut wire, 64 * 1024, 64)
                .expect("write to memory");
        }
        decoder.feed(&wire);
        let mut decoded = 0;
        while let Some(msg) = decoder.next_frame() {
            black_box(msg);
            decoded += 1;
        }
        assert_eq!(decoded, messages.len(), "every staged message decodes");
        per_frame.push((allocs() - before) as f64 / messages.len() as f64);
    }
    stats::median(&mut per_frame[1..])
}
