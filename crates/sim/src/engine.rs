//! A minimal generic discrete-event engine.
//!
//! Events of type `E` are scheduled at [`SimTime`]s and popped in
//! `(time, insertion sequence)` order, which makes simulations fully
//! deterministic: ties break by scheduling order, never by hash or thread
//! interleaving.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event queue and virtual clock.
pub struct Engine<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> Engine<E> {
    /// Creates an engine at time zero.
    pub fn new() -> Self {
        Engine {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (events cannot be
    /// scheduled in the past).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule in the past ({at:?} < {:?})",
            self.now
        );
        self.heap.push(Entry {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock. `None` when the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        self.processed += 1;
        Some((entry.at, entry.event))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    pub(crate) fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek().map(|e| e.at <= deadline).unwrap_or(false) {
            self.pop()
        } else {
            None
        }
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
impl<E> Engine<E> {
    /// The current virtual time (the time of the last popped event).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    pub(crate) fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events processed.
    pub(crate) fn processed(&self) -> u64 {
        self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_ms(30), "c");
        engine.schedule(SimTime::from_ms(10), "a");
        engine.schedule(SimTime::from_ms(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| engine.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(engine.now(), SimTime::from_ms(30));
        assert_eq!(engine.processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut engine = Engine::new();
        for i in 0..10 {
            engine.schedule(SimTime::from_ms(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| engine.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_ms(10), 1);
        engine.schedule(SimTime::from_ms(50), 2);
        assert_eq!(
            engine.pop_until(SimTime::from_ms(20)).map(|(_, e)| e),
            Some(1)
        );
        assert_eq!(engine.pop_until(SimTime::from_ms(20)), None);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_ms(5), ());
        engine.pop();
        // Scheduling at exactly `now` is allowed (zero-delay events).
        engine.schedule(engine.now(), ());
        engine.schedule(engine.now() + Duration::from_millis(1), ());
        assert_eq!(engine.pending(), 2);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_ms(5), ());
        engine.pop();
        engine.schedule(SimTime::from_ms(1), ());
    }

    #[test]
    fn empty_engine() {
        let mut engine: Engine<()> = Engine::new();
        assert!(engine.is_empty());
        assert_eq!(engine.pop(), None);
    }
}
