//! From spans to a per-layer frame budget.
//!
//! A frame's blocking path is contiguous by construction: tick due →
//! pacer admits → source `on_event` → `call_module` → edge transit → next
//! module's `on_event` → service wait/busy → … → sink done. Each piece is
//! one span or the gap between two, so the pieces should add up to the
//! measured latency; `coverage` checks that they do.

use crate::stats;
use crate::trace::{Kind, SinkSamples, Span, NAMES, NO_PARENT};
use std::collections::{BTreeMap, HashMap};

/// Where a piece of a frame's latency was spent, named after the crate and
/// module that owns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Tick due → pacer stamped it (timer wheel + pacer task scheduling).
    TickLag,
    /// Pacer stamped the tick → source `on_event` starts.
    AdmitWait,
    /// A module's own code.
    ModuleSelf(u8),
    /// `call_module`: encode (cross-device) and hand-over to the transport.
    Send,
    /// `call_module` returned → next `on_event` starts, same device.
    TransitInproc,
    /// The same across devices: send queue, `write_vectored`, I/O-thread
    /// poll, decode, hub, wake.
    TransitTcp,
    /// `call_service` minus the service's busy time: queue, dispatch, reply
    /// wake, and the TCP round trip when the service is remote.
    ServiceWait,
    /// `Service::handle_batch`.
    Busy(u8),
}

impl Layer {
    pub fn name(self) -> String {
        match self {
            Layer::TickLag => "core.flow.tick_lag".into(),
            Layer::AdmitWait => "core.flow.admit_wait".into(),
            Layer::ModuleSelf(m) => format!("apps.{}.self", NAMES[m as usize]),
            Layer::Send => "apps.send".into(),
            Layer::TransitInproc => "core.reactor.edge_transit_inproc".into(),
            Layer::TransitTcp => "net.tcp.edge_transit".into(),
            Layer::ServiceWait => "core.service.wait".into(),
            Layer::Busy(s) => format!("ml.{}.busy", NAMES[s as usize]),
        }
    }
}

/// The deployment as the analysis needs it.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    pub source: u8,
    /// `(from, to)` module pairs whose edge crosses devices.
    pub cross_device: Vec<(u8, u8)>,
}

/// Sets the derived parents and returns each `Call` span's `Busy` span.
///
/// A `Busy` span belongs to the call on the same tenant and service that
/// contains it in time. An `Event` span belongs to a `Send`: per frame and
/// receiving module, the k-th event pairs with the k-th send towards it —
/// one FIFO channel feeds a module, so arrival order is send order. That
/// pairing is what resolves a fan-in.
pub fn link(spans: &mut [Span]) -> HashMap<u32, u32> {
    let mut calls: HashMap<(u32, u8), Vec<u32>> = HashMap::new();
    let mut busies: HashMap<(u32, u8), Vec<u32>> = HashMap::new();
    let mut sends: HashMap<(u32, u64, u8), Vec<u32>> = HashMap::new();
    let mut events: HashMap<(u32, u64, u8), Vec<u32>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let i = i as u32;
        match s.kind {
            Kind::Call => calls.entry((s.tenant, s.peer)).or_default().push(i),
            Kind::Busy => busies.entry((s.tenant, s.who)).or_default().push(i),
            Kind::Send => sends.entry((s.tenant, s.seq, s.peer)).or_default().push(i),
            Kind::Event => events.entry((s.tenant, s.seq, s.who)).or_default().push(i),
            Kind::Signal => {}
        }
    }
    let by_start = |spans: &[Span], ids: &mut Vec<u32>| {
        ids.sort_by_key(|&i| spans[i as usize].start);
    };
    let mut busy_of = HashMap::new();
    for (key, mut call_ids) in calls {
        let Some(mut busy_ids) = busies.remove(&key) else {
            continue;
        };
        by_start(spans, &mut call_ids);
        by_start(spans, &mut busy_ids);
        let mut b = 0;
        for c in call_ids {
            let call = spans[c as usize];
            while b < busy_ids.len() && spans[busy_ids[b] as usize].start < call.start {
                b += 1;
            }
            if b < busy_ids.len() && spans[busy_ids[b] as usize].end <= call.end {
                spans[busy_ids[b] as usize].parent = c;
                busy_of.insert(c, busy_ids[b]);
                b += 1;
            }
        }
    }
    for (key, mut event_ids) in events {
        let Some(mut send_ids) = sends.remove(&key) else {
            continue;
        };
        if send_ids.len() != event_ids.len() {
            continue; // the run ended with this frame half-way
        }
        by_start(spans, &mut event_ids);
        by_start(spans, &mut send_ids);
        for (e, s) in event_ids.into_iter().zip(send_ids) {
            spans[e as usize].parent = s;
        }
    }
    busy_of
}

/// The spans recorded inside `event`. Children directly follow their
/// parent in a buffer (a module is single-threaded), so no index is needed.
fn children(spans: &[Span], event: u32) -> impl Iterator<Item = (u32, &Span)> {
    spans[event as usize + 1..]
        .iter()
        .enumerate()
        .take_while(move |(_, c)| c.parent == event)
        .map(move |(i, c)| (event + 1 + i as u32, c))
}

/// Time an `Event` span spent in the module's own code up to `until`: that
/// stretch of the span minus the child spans that started within it.
pub fn self_time(spans: &[Span], event: u32, until: u64) -> u64 {
    let covered: u64 = children(spans, event)
        .filter(|(_, c)| c.start < until)
        .map(|(_, c)| c.end - c.start)
        .sum();
    until
        .saturating_sub(spans[event as usize].start)
        .saturating_sub(covered)
}

/// One frame's blocking path.
#[derive(Debug, Clone, Default)]
pub struct FramePath {
    pub parts: Vec<(Layer, u64)>,
    /// Sink done (start of its `signal_source`) minus tick due.
    pub latency_ns: u64,
}

impl FramePath {
    pub fn total(&self, layer: Layer) -> u64 {
        self.parts
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Σ parts ÷ measured latency.
    pub fn coverage(&self) -> f64 {
        let sum: u64 = self.parts.iter().map(|(_, ns)| ns).sum();
        sum as f64 / self.latency_ns.max(1) as f64
    }
}

/// Walks one frame backwards from its `Signal` span: through the event
/// that signalled, the send that caused that event, the event that sent
/// it, … to the source, and from there to the tick. At a fan-in the walk
/// follows the message that arrived last, because that is the one the
/// frame waited for. Every part is measured on its own (nothing is clipped
/// to fit), so overlapping or missing spans show as coverage ≠ 1. `None`
/// when a link is missing (the frame was cut by the end of the run).
pub fn blocking_path(
    spans: &[Span],
    busy_of: &HashMap<u32, u32>,
    signal: u32,
    topo: &Topology,
    due_ns: u64,
) -> Option<FramePath> {
    let sig = &spans[signal as usize];
    let mut path = FramePath {
        parts: Vec::new(),
        latency_ns: sig.start.saturating_sub(due_ns),
    };
    let mut event = sig.parent;
    let mut until = sig.start;
    loop {
        if event == NO_PARENT {
            return None;
        }
        let e = &spans[event as usize];
        for (idx, c) in children(spans, event).filter(|(_, c)| c.start < until) {
            let dur = c.end - c.start;
            match c.kind {
                Kind::Send => path.parts.push((Layer::Send, dur)),
                Kind::Call => {
                    let busy = busy_of.get(&idx).map_or(0, |&b| {
                        let b = &spans[b as usize];
                        b.end - b.start
                    });
                    path.parts.push((Layer::Busy(c.peer), busy));
                    path.parts
                        .push((Layer::ServiceWait, dur.saturating_sub(busy)));
                }
                _ => {}
            }
        }
        path.parts
            .push((Layer::ModuleSelf(e.who), self_time(spans, event, until)));
        if e.who == topo.source {
            path.parts
                .push((Layer::AdmitWait, e.start.saturating_sub(e.capture)));
            path.parts
                .push((Layer::TickLag, e.capture.saturating_sub(due_ns)));
            return Some(path);
        }
        if e.parent == NO_PARENT {
            return None;
        }
        let send = &spans[e.parent as usize];
        let transit = if topo.cross_device.contains(&(send.who, e.who)) {
            Layer::TransitTcp
        } else {
            Layer::TransitInproc
        };
        path.parts.push((transit, e.start.saturating_sub(send.end)));
        until = send.end;
        event = send.parent;
    }
}

/// The traced run, reduced.
#[derive(Debug, Default)]
pub struct Budget {
    /// Frames whose `signal_source` was recorded.
    pub signalled: usize,
    /// Frames whose blocking path was rebuilt end to end.
    pub paths: Vec<FramePath>,
    /// Every `Busy` span, by service, in ns.
    pub busy_ns: BTreeMap<u8, Vec<u64>>,
}

impl Budget {
    pub fn build(
        mut spans: Vec<Span>,
        sinks: &[SinkSamples],
        topo: &Topology,
    ) -> (Self, Vec<Span>) {
        let busy_of = link(&mut spans);
        let due: HashMap<u32, &SinkSamples> = sinks.iter().map(|s| (s.tenant, s)).collect();
        let mut budget = Budget::default();
        for (i, s) in spans.iter().enumerate() {
            match s.kind {
                Kind::Signal => {
                    budget.signalled += 1;
                    let Some(sink) = due.get(&s.tenant) else {
                        continue;
                    };
                    if let Some(path) =
                        blocking_path(&spans, &busy_of, i as u32, topo, sink.due_ns(s.seq))
                    {
                        budget.paths.push(path);
                    }
                }
                Kind::Busy => budget
                    .busy_ns
                    .entry(s.who)
                    .or_default()
                    .push(s.end - s.start),
                _ => {}
            }
        }
        (budget, spans)
    }

    /// Median over frames of the frame's total in `layer`, in µs, over the
    /// frames whose path touches the layer. 0 when none does.
    pub fn median_us(&self, layer: Layer) -> f64 {
        let totals: Vec<u64> = self
            .paths
            .iter()
            .filter(|p| p.parts.iter().any(|(l, _)| *l == layer))
            .map(|p| p.total(layer))
            .collect();
        stats::median_us(&totals)
    }

    /// Median over frames of `wait + busy` across the frame's service
    /// calls, in µs.
    pub fn service_call_us(&self) -> f64 {
        let totals: Vec<u64> = self
            .paths
            .iter()
            .map(|p| {
                p.parts
                    .iter()
                    .filter(|(l, _)| matches!(l, Layer::ServiceWait | Layer::Busy(_)))
                    .map(|(_, ns)| ns)
                    .sum()
            })
            .collect();
        stats::median_us(&totals)
    }

    pub fn coverage(&self) -> f64 {
        let mut c: Vec<f64> = self.paths.iter().map(FramePath::coverage).collect();
        stats::median(&mut c)
    }

    /// `(layer, mean µs per frame, share of mean latency)`, largest first.
    /// Means, not medians, so that the shares add up.
    pub fn shares(&self) -> Vec<(Layer, f64, f64)> {
        let frames = self.paths.len().max(1) as f64;
        let mut sums: BTreeMap<Layer, u64> = BTreeMap::new();
        let mut latency = 0u64;
        for p in &self.paths {
            latency += p.latency_ns;
            for (layer, ns) in &p.parts {
                *sums.entry(*layer).or_default() += ns;
            }
        }
        let mut rows: Vec<(Layer, f64, f64)> = sums
            .into_iter()
            .map(|(layer, ns)| {
                (
                    layer,
                    ns as f64 / frames / 1e3,
                    ns as f64 / latency.max(1) as f64,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{name_id, UNKNOWN};

    fn span(
        kind: Kind,
        who: &str,
        peer: &str,
        seq: u64,
        start: u64,
        end: u64,
        parent: u32,
    ) -> Span {
        Span {
            kind,
            who: name_id(who),
            peer: name_id(peer),
            tenant: 0,
            seq,
            start,
            end,
            parent,
            capture: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let spans = vec![
            span(Kind::Event, "work", "?", 1, 100, 200, NO_PARENT),
            span(Kind::Call, "work", "double", 1, 110, 150, 0),
            span(Kind::Send, "work", "sink", 1, 160, 180, 0),
            span(Kind::Event, "work", "?", 2, 300, 310, NO_PARENT),
        ];
        assert_eq!(self_time(&spans, 0, 200), 100 - 40 - 20);
        // Up to the call's return only the call is subtracted.
        assert_eq!(self_time(&spans, 0, 150), 50 - 40);
        assert_eq!(self_time(&spans, 3, 310), 10);
    }

    /// The fitness DAG's tail for one frame, as the decorators record it:
    /// `activity_recognition` sends the pose to `rep_counter`, classifies,
    /// then sends the label to `display`; `rep_counter` calls its service
    /// and sends the count to `display`; `display` renders when the second
    /// of the two arrives. Buffers are per module, children after parents.
    fn fan_in(count_arrives_at: u64) -> (Vec<Span>, Topology) {
        let mut spans = vec![
            // source buffer
            span(
                Kind::Event,
                "video_streaming",
                "?",
                7,
                1_000,
                1_100,
                NO_PARENT,
            ), // 0
            span(
                Kind::Send,
                "video_streaming",
                "activity_recognition",
                7,
                1_020,
                1_090,
                0,
            ), // 1
            // activity_recognition buffer
            span(
                Kind::Event,
                "activity_recognition",
                "?",
                7,
                2_000,
                2_600,
                NO_PARENT,
            ), // 2
            span(
                Kind::Send,
                "activity_recognition",
                "rep_counter",
                7,
                2_010,
                2_030,
                2,
            ), // 3
            span(
                Kind::Call,
                "activity_recognition",
                "activity_classifier",
                7,
                2_100,
                2_500,
                2,
            ), // 4
            span(
                Kind::Send,
                "activity_recognition",
                "display",
                7,
                2_520,
                2_580,
                2,
            ), // 5
            // rep_counter buffer
            span(Kind::Event, "rep_counter", "?", 7, 2_050, 2_400, NO_PARENT), // 6
            span(Kind::Call, "rep_counter", "rep_counter", 7, 2_060, 2_300, 6), // 7
            span(Kind::Send, "rep_counter", "display", 7, 2_320, 2_390, 6),    // 8
            // display buffer: first arrival only buffers, second renders
            span(Kind::Event, "display", "?", 7, 0, 0, NO_PARENT), // 9
            span(Kind::Event, "display", "?", 7, 0, 0, NO_PARENT), // 10
            span(Kind::Call, "display", "display", 7, 0, 0, 10),   // 11
            span(Kind::Signal, "display", "?", 7, 0, 0, 10),       // 12
            // service buffers
            span(
                Kind::Busy,
                "activity_classifier",
                "?",
                0,
                2_200,
                2_450,
                NO_PARENT,
            ), // 13
            span(Kind::Busy, "rep_counter", "?", 0, 2_100, 2_250, NO_PARENT), // 14
            span(Kind::Busy, "display", "?", 0, 0, 0, NO_PARENT),             // 15
        ];
        spans[0].capture = 900;
        let label_arrives_at = 3_000;
        let (first, second) = if count_arrives_at < label_arrives_at {
            (count_arrives_at, label_arrives_at)
        } else {
            (label_arrives_at, count_arrives_at)
        };
        (spans[9].start, spans[9].end) = (first, first + 10);
        (spans[10].start, spans[10].end) = (second, second + 300);
        (spans[11].start, spans[11].end) = (second + 20, second + 220);
        (spans[15].start, spans[15].end) = (second + 100, second + 150);
        (spans[12].start, spans[12].end) = (second + 250, second + 290);
        let topo = Topology {
            source: name_id("video_streaming"),
            cross_device: vec![
                (name_id("activity_recognition"), name_id("display")),
                (name_id("rep_counter"), name_id("display")),
            ],
        };
        (spans, topo)
    }

    #[test]
    fn link_pairs_busy_with_calls_and_events_with_sends() {
        let (mut spans, _) = fan_in(2_900);
        let busy_of = link(&mut spans);
        assert_eq!(busy_of[&4], 13);
        assert_eq!(busy_of[&7], 14);
        assert_eq!(busy_of[&11], 15);
        assert_eq!(spans[13].parent, 4);
        // rep_counter's send (2_320) precedes the label send (2_520), so it
        // pairs with display's first event.
        assert_eq!(spans[9].parent, 8);
        assert_eq!(spans[10].parent, 5);
        assert_eq!(spans[6].parent, 3);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[0].parent, NO_PARENT);
    }

    #[test]
    fn blocking_path_follows_the_message_display_waited_for() {
        // The count is sent first and arrives first: the frame waited for
        // the label, so the path runs through the classifier and never
        // enters rep_counter.
        let (mut spans, topo) = fan_in(2_900);
        let busy_of = link(&mut spans);
        let path = blocking_path(&spans, &busy_of, 12, &topo, 800).unwrap();
        assert_eq!(path.latency_ns, 3_250 - 800);
        assert_eq!(path.total(Layer::Busy(name_id("activity_classifier"))), 250);
        assert_eq!(path.total(Layer::Busy(name_id("rep_counter"))), 0);
        assert_eq!(path.total(Layer::ModuleSelf(name_id("rep_counter"))), 0);
        assert_eq!(path.total(Layer::TransitTcp), 3_000 - 2_580);
        assert_eq!(path.total(Layer::TransitInproc), 2_000 - 1_090);
        // display: 250 to the signal, minus its 200 call.
        assert_eq!(path.total(Layer::ModuleSelf(name_id("display"))), 50);
        // activity_recognition up to the label send's return: 580, minus
        // sends of 20 and 60 and the 400 call.
        assert_eq!(
            path.total(Layer::ModuleSelf(name_id("activity_recognition"))),
            100
        );
        assert_eq!(path.total(Layer::Send), 20 + 60 + 70);
        // classifier wait 150, display wait 150.
        assert_eq!(path.total(Layer::ServiceWait), 150 + 150);
        assert_eq!(path.total(Layer::AdmitWait), 100);
        assert_eq!(path.total(Layer::TickLag), 100);
        assert!((path.coverage() - 1.0).abs() < 1e-12, "{}", path.coverage());
    }

    #[test]
    fn a_frame_cut_by_the_end_of_the_run_has_no_path() {
        let (mut spans, topo) = fan_in(2_900);
        spans[5].seq = 8; // the label send belongs to another frame
        let busy_of = link(&mut spans);
        assert!(blocking_path(&spans, &busy_of, 12, &topo, 800).is_none());
        assert_eq!(spans[12].peer, UNKNOWN);
    }

    #[test]
    fn budget_shares_add_up_to_coverage() {
        let (spans, topo) = fan_in(2_900);
        let sink = SinkSamples {
            tenant: 0,
            interval_ns: 100,
            base_ns: 200,
            clock_offset: 0,
            done: vec![],
        };
        assert_eq!(sink.due_ns(7), 800);
        let (budget, _) = Budget::build(spans, &[sink], &topo);
        assert_eq!((budget.signalled, budget.paths.len()), (1, 1));
        let total: f64 = budget.shares().iter().map(|r| r.2).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(budget.shares()[0].0, Layer::TransitInproc);
        assert_eq!(budget.median_us(Layer::TransitTcp), 0.42);
        assert_eq!(budget.service_call_us(), 0.6);
        assert_eq!(budget.busy_ns[&name_id("display")], vec![50]);
    }
}
