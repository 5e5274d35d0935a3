//! Flow control: the paper's no-queue, drop-at-source design.
//!
//! Paper §2.3: "We do not use any queues in our design. When the final
//! module is done with its current data, it signals the source to send a new
//! frame into the pipeline. This approach pushes frame dropping to the
//! beginning of the pipeline and eliminates queuing delays inside the
//! pipeline."
//!
//! [`CreditController`] generalises the signal to `N` credits (the paper's
//! design is `N = 1`); the flow-control ablation sweeps `N` to show the
//! latency/throughput trade-off the authors allude to ("a more intelligent
//! signaling mechanism may also be utilized").

/// Admission control at the video source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditController {
    credits: u32,
    in_flight: u32,
    admitted: u64,
    dropped: u64,
    completed: u64,
    faulted: u64,
}

impl CreditController {
    /// Creates a controller allowing up to `credits` frames in flight.
    ///
    /// # Panics
    ///
    /// Panics if `credits` is zero.
    pub fn new(credits: u32) -> Self {
        assert!(credits > 0, "flow control needs at least one credit");
        CreditController {
            credits,
            in_flight: 0,
            admitted: 0,
            dropped: 0,
            completed: 0,
            faulted: 0,
        }
    }

    /// Attempts to admit a camera frame into the pipeline. Returns `true`
    /// (and consumes a credit) if capacity is available; otherwise records a
    /// drop and returns `false`.
    pub fn try_admit(&mut self) -> bool {
        if self.in_flight < self.credits {
            self.in_flight += 1;
            self.admitted += 1;
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Handles the completion signal from the final module, returning the
    /// credit.
    ///
    /// Tolerates spurious signals (e.g. duplicated completion from a
    /// fan-in sink) by saturating at zero.
    pub fn complete(&mut self) {
        if self.in_flight > 0 {
            self.in_flight -= 1;
            self.completed += 1;
        }
    }

    /// Reclaims the credit of a frame that died mid-pipeline (module error,
    /// panic, abandoned service call or expired credit lease) instead of
    /// completing. Keeping the error path separate from [`complete`]
    /// preserves the invariant `admitted == completed + faulted +
    /// in_flight`, which the runtime uses to prove no credit leaked.
    ///
    /// Saturates at zero like [`complete`].
    ///
    /// [`complete`]: CreditController::complete
    pub fn fault(&mut self) {
        if self.in_flight > 0 {
            self.in_flight -= 1;
            self.faulted += 1;
        }
    }

    /// Frames currently inside the pipeline.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Configured credit limit.
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Frames admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Frames whose completion signal has returned.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Frames whose credit was reclaimed through the error path.
    pub fn faulted(&self) -> u64 {
        self.faulted
    }
}

/// Computes camera tick times for a source of a given frame rate.
///
/// The camera offers a frame every `1/fps` seconds; the controller decides
/// whether each tick enters the pipeline or is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourcePacer {
    interval_ns: u64,
    next_tick_ns: u64,
    ticks: u64,
}

impl SourcePacer {
    /// Creates a pacer for `fps` frames per second starting at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not positive and finite.
    pub fn new(fps: f64) -> Self {
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        SourcePacer {
            interval_ns: (1e9 / fps).round().max(1.0) as u64,
            next_tick_ns: 0,
            ticks: 0,
        }
    }

    /// Interval between camera frames in nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Consumes and returns the next tick time.
    pub(crate) fn advance(&mut self) -> u64 {
        let t = self.next_tick_ns;
        self.ticks += 1;
        self.next_tick_ns += self.interval_ns;
        t
    }

    /// Total camera ticks generated.
    pub(crate) fn ticks(&self) -> u64 {
        self.ticks
    }
}

#[cfg(test)]
impl SourcePacer {
    /// The time of the next camera tick.
    pub(crate) fn peek_next(&self) -> u64 {
        self.next_tick_ns
    }
}

#[cfg(test)]
impl CreditController {
    /// Frames dropped at the source so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_credit_serialises_frames() {
        let mut fc = CreditController::new(1);
        assert!(fc.try_admit());
        assert!(!fc.try_admit()); // dropped
        assert!(!fc.try_admit()); // dropped
        assert_eq!(fc.in_flight(), 1);
        assert_eq!(fc.dropped(), 2);
        fc.complete();
        assert_eq!(fc.in_flight(), 0);
        assert!(fc.try_admit());
        assert_eq!(fc.admitted(), 2);
        assert_eq!(fc.completed(), 1);
    }

    #[test]
    fn multi_credit_allows_pipelining() {
        let mut fc = CreditController::new(3);
        assert!(fc.try_admit());
        assert!(fc.try_admit());
        assert!(fc.try_admit());
        assert!(!fc.try_admit());
        fc.complete();
        assert!(fc.try_admit());
        assert_eq!(fc.dropped(), 1);
        assert_eq!(fc.in_flight(), 3);
    }

    #[test]
    fn spurious_complete_is_tolerated() {
        let mut fc = CreditController::new(1);
        fc.complete();
        assert_eq!(fc.in_flight(), 0);
        assert_eq!(fc.completed(), 0);
        assert!(fc.try_admit());
    }

    #[test]
    #[should_panic(expected = "at least one credit")]
    fn zero_credits_panics() {
        let _ = CreditController::new(0);
    }

    #[test]
    fn invariant_in_flight_bounded() {
        // in_flight never exceeds credits, and admitted = completed +
        // faulted + in_flight always holds.
        let mut fc = CreditController::new(2);
        for i in 0..100u32 {
            match i % 4 {
                0 => fc.complete(),
                3 => fc.fault(),
                _ => {
                    fc.try_admit();
                }
            }
            assert!(fc.in_flight() <= fc.credits());
            assert_eq!(
                fc.admitted(),
                fc.completed() + fc.faulted() + u64::from(fc.in_flight())
            );
        }
    }

    #[test]
    fn fault_returns_credit_without_counting_completion() {
        let mut fc = CreditController::new(1);
        assert!(fc.try_admit());
        fc.fault();
        assert_eq!(fc.in_flight(), 0);
        assert_eq!(fc.completed(), 0);
        assert_eq!(fc.faulted(), 1);
        // The credit is usable again.
        assert!(fc.try_admit());
    }

    #[test]
    fn spurious_fault_is_tolerated() {
        let mut fc = CreditController::new(1);
        fc.fault();
        assert_eq!(fc.faulted(), 0);
        assert!(fc.try_admit());
    }

    #[test]
    fn pacer_ticks_at_interval() {
        let mut pacer = SourcePacer::new(5.0);
        assert_eq!(pacer.interval_ns(), 200_000_000);
        assert_eq!(pacer.advance(), 0);
        assert_eq!(pacer.advance(), 200_000_000);
        assert_eq!(pacer.advance(), 400_000_000);
        assert_eq!(pacer.ticks(), 3);
        assert_eq!(pacer.peek_next(), 600_000_000);
    }

    #[test]
    fn pacer_high_fps() {
        let pacer = SourcePacer::new(60.0);
        assert_eq!(pacer.interval_ns(), 16_666_667);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn pacer_rejects_zero_fps() {
        let _ = SourcePacer::new(0.0);
    }
}
