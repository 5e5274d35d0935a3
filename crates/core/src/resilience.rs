//! Resilience primitives: bounded retries, circuit breakers and
//! degradation policies.
//!
//! The paper's §2.3 no-queue design (one credit in flight, drop-at-source)
//! is what makes VideoPipe fast — and what makes it fragile: a wedged
//! service call or a leaked flow-control credit stalls the source forever.
//! This module supplies the pieces the runtime wires into
//! `call_service`/`call_module` so that every failure path terminates
//! quickly and returns its credit:
//!
//! * [`RetryPolicy`] — bounded exponential backoff with deterministic,
//!   seeded jitter (`SeededJitter`), so retried runs are reproducible.
//! * `CircuitBreaker` — per-service closed → open → half-open breaker
//!   that fast-fails calls to a service that keeps failing, instead of
//!   burning the frame interval on doomed retries.
//! * [`DegradationPolicy`] — what a module does once retries and the
//!   breaker have given up: drop the frame (paper semantics) or reuse the
//!   last known good response so the pipeline keeps delivering.
//! * [`ResilienceConfig`] — the knob bundle carried by the runtime config;
//!   its `Default` reproduces the pre-resilience behaviour exactly (one
//!   attempt, no breaker, drop-frame, 30 s service deadline).

use std::time::Duration;

/// Tiny deterministic PRNG (splitmix64) used for retry jitter and seeded
/// chaos decisions.
///
/// Kept in-tree so `videopipe-core` stays dependency-free and jittered
/// schedules are bit-for-bit reproducible across platforms from a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SeededJitter {
    state: u64,
}

impl SeededJitter {
    /// Creates a generator from a seed. Equal seeds yield equal sequences.
    pub(crate) fn new(seed: u64) -> Self {
        SeededJitter { state: seed }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives a per-name seed from a base seed, so each module gets an
/// independent but reproducible jitter stream (FNV-1a over the name).
pub(crate) fn seed_for(base: u64, name: &str) -> u64 {
    let h = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    base ^ h
}

/// Bounded exponential backoff for retried service calls.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Cap on the computed backoff (before jitter).
    pub max_backoff: Duration,
    /// Jitter amplitude as a fraction of the nominal backoff: the sleep is
    /// scaled by a factor drawn uniformly from `[1 - f, 1 + f)`.
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// One attempt, no retries — the seed runtime's behaviour.
    pub(crate) fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_frac: 0.0,
        }
    }

    /// Exponential backoff: `base`, `2*base`, `4*base`, ... capped at
    /// `max`, with 20% jitter.
    pub fn exponential(max_attempts: u32, base: Duration, max: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: base,
            max_backoff: max,
            jitter_frac: 0.2,
        }
    }

    /// Backoff to sleep before retry number `retry` (1-based: `retry = 1`
    /// follows the first failed attempt). Returns zero when the policy has
    /// no retries.
    pub(crate) fn backoff(&self, retry: u32, jitter: &mut SeededJitter) -> Duration {
        if self.max_attempts <= 1 || retry == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let doublings = (retry - 1).min(16);
        let nominal = self
            .base_backoff
            .checked_mul(1u32 << doublings)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff);
        if self.jitter_frac == 0.0 {
            return nominal;
        }
        let factor = 1.0 + self.jitter_frac * (2.0 * jitter.next_f64() - 1.0);
        nominal.mul_f64(factor.max(0.0))
    }
}

/// State of a `CircuitBreaker`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally; consecutive failures are counted.
    Closed,
    /// Calls are rejected without reaching the service until the cooldown
    /// elapses.
    Open,
    /// The cooldown elapsed; probe calls are let through. A success closes
    /// the breaker, a failure re-opens it.
    HalfOpen,
}

/// Per-service circuit breaker: closed → open after `failure_threshold`
/// consecutive failures → half-open probe after `cooldown` → closed on a
/// successful probe.
///
/// Time is supplied by the caller as nanoseconds (the runtime's epoch
/// clock), keeping the breaker clock-agnostic and unit-testable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CircuitBreaker {
    failure_threshold: u32,
    cooldown: Duration,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ns: u64,
    // Half-open admits exactly one probe at a time: without this lease,
    // every caller draining a batch during the half-open window would be
    // admitted as a "probe" and a still-down service gets hammered.
    probe_in_flight: bool,
    probe_started_ns: u64,
    opened: u64,
    reclosed: u64,
    rejected: u64,
    probes: u64,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    ///
    /// # Panics
    ///
    /// Panics if `failure_threshold` is zero (use
    /// [`ResilienceConfig::breaker_enabled`] to disable breaking entirely).
    pub(crate) fn new(failure_threshold: u32, cooldown: Duration) -> Self {
        assert!(failure_threshold > 0, "breaker threshold must be positive");
        CircuitBreaker {
            failure_threshold,
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_ns: 0,
            probe_in_flight: false,
            probe_started_ns: 0,
            opened: 0,
            reclosed: 0,
            rejected: 0,
            probes: 0,
        }
    }

    /// Whether a call may proceed at time `now_ns`. An open breaker whose
    /// cooldown has elapsed transitions to half-open and admits the call as
    /// the *single* probe for that window; further callers are rejected
    /// until the probe resolves (or its lease — one cooldown — expires, in
    /// case the probing caller wedged and never reported back).
    pub(crate) fn allow(&mut self, now_ns: u64) -> bool {
        let cooldown_ns = u64::try_from(self.cooldown.as_nanos()).unwrap_or(u64::MAX);
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now_ns >= self.opened_at_ns.saturating_add(cooldown_ns) {
                    self.state = BreakerState::HalfOpen;
                    self.probe_in_flight = true;
                    self.probe_started_ns = now_ns;
                    self.probes += 1;
                    true
                } else {
                    self.rejected += 1;
                    false
                }
            }
            BreakerState::HalfOpen => {
                let probe_stale = now_ns >= self.probe_started_ns.saturating_add(cooldown_ns);
                if self.probe_in_flight && !probe_stale {
                    self.rejected += 1;
                    false
                } else {
                    self.probe_in_flight = true;
                    self.probe_started_ns = now_ns;
                    self.probes += 1;
                    true
                }
            }
        }
    }

    /// Records a successful call, closing the breaker if it was half-open.
    pub(crate) fn record_success(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.reclosed += 1;
        }
        self.state = BreakerState::Closed;
        self.probe_in_flight = false;
        self.consecutive_failures = 0;
    }

    /// Records a failed call at time `now_ns`, opening the breaker when the
    /// consecutive-failure threshold is reached or a half-open probe fails.
    pub(crate) fn record_failure(&mut self, now_ns: u64) {
        self.probe_in_flight = false;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.opened_at_ns = now_ns;
            self.opened += 1;
        }
    }

    /// Copies the observable counters out for reporting.
    pub(crate) fn snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot {
            state: self.state,
            opened: self.opened,
            reclosed: self.reclosed,
            rejected: self.rejected,
            probes: self.probes,
            consecutive_failures: self.consecutive_failures,
        }
    }
}

/// Observable counters of a `CircuitBreaker`, surfaced in run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// State at snapshot time.
    pub state: BreakerState,
    /// Times the breaker tripped open.
    pub opened: u64,
    /// Times a half-open probe succeeded and the breaker reclosed.
    pub reclosed: u64,
    /// Calls rejected while open.
    pub rejected: u64,
    /// Probe calls admitted while transitioning to half-open.
    pub probes: u64,
    /// Consecutive failures at snapshot time.
    pub consecutive_failures: u32,
}

/// What a module does with a frame once retries and the circuit breaker
/// have given up on a service call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Propagate the error; the frame dies and its flow-control credit is
    /// reclaimed (the paper's drop-at-source semantics, moved mid-pipe).
    #[default]
    DropFrame,
    /// Serve the most recent successful response for the same service from
    /// a per-module cache, keeping the pipeline delivering (stale) results
    /// through an outage. Falls back to dropping when the cache is cold.
    LastKnownGood,
}

/// Resilience knobs carried by the runtime configuration.
///
/// The `Default` value reproduces the pre-resilience runtime exactly: one
/// attempt per call, breaker disabled, drop-frame degradation and the
/// historical 30-second service deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Retry policy for service calls.
    pub retry: RetryPolicy,
    /// Per-call deadline for a single service request/response exchange
    /// (replaces the old hardcoded 30 s).
    pub service_call_timeout: Duration,
    /// Consecutive failures that trip a service's breaker; `0` disables
    /// circuit breaking.
    pub breaker_failure_threshold: u32,
    /// How long a tripped breaker stays open before admitting a half-open
    /// probe.
    pub breaker_cooldown: Duration,
    /// What modules do once a call is abandoned.
    pub degradation: DegradationPolicy,
    /// Reclaims the credit of a frame that produced no completion signal
    /// within this duration (a frame lost in transit, e.g. across a dead
    /// link). `None` disables the lease and preserves seed behaviour.
    pub credit_timeout: Option<Duration>,
    /// Base seed for deterministic retry jitter (per-module streams are
    /// derived via `seed_for`).
    pub seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::none(),
            service_call_timeout: Duration::from_secs(30),
            breaker_failure_threshold: 0,
            breaker_cooldown: Duration::from_millis(250),
            degradation: DegradationPolicy::DropFrame,
            credit_timeout: None,
            seed: 0,
        }
    }
}

impl ResilienceConfig {
    /// Whether circuit breaking is enabled.
    pub(crate) fn breaker_enabled(&self) -> bool {
        self.breaker_failure_threshold > 0
    }

    /// Builds a breaker from the configured threshold and cooldown.
    pub(crate) fn make_breaker(&self) -> CircuitBreaker {
        CircuitBreaker::new(self.breaker_failure_threshold.max(1), self.breaker_cooldown)
    }
}

#[cfg(test)]
impl CircuitBreaker {
    /// Current state.
    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }
}

#[cfg(test)]
impl RetryPolicy {
    /// Overrides the jitter amplitude (clamped to `[0, 1]`).
    pub(crate) fn with_jitter(mut self, frac: f64) -> Self {
        self.jitter_frac = frac.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_uniform() {
        let mut a = SeededJitter::new(42);
        let mut b = SeededJitter::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SeededJitter::new(7);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let v = c.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 1000.0;
        assert!((0.4..0.6).contains(&mean), "mean {mean} not near 0.5");
    }

    #[test]
    fn seed_for_separates_names() {
        assert_ne!(seed_for(1, "detector"), seed_for(1, "classifier"));
        assert_eq!(seed_for(1, "detector"), seed_for(1, "detector"));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy =
            RetryPolicy::exponential(5, Duration::from_millis(10), Duration::from_millis(40))
                .with_jitter(0.0);
        let mut j = SeededJitter::new(0);
        assert_eq!(policy.backoff(1, &mut j), Duration::from_millis(10));
        assert_eq!(policy.backoff(2, &mut j), Duration::from_millis(20));
        assert_eq!(policy.backoff(3, &mut j), Duration::from_millis(40));
        assert_eq!(policy.backoff(4, &mut j), Duration::from_millis(40));
    }

    #[test]
    fn backoff_jitter_stays_in_band() {
        let policy =
            RetryPolicy::exponential(3, Duration::from_millis(100), Duration::from_secs(1))
                .with_jitter(0.5);
        let mut j = SeededJitter::new(9);
        for _ in 0..100 {
            let b = policy.backoff(1, &mut j);
            assert!(b >= Duration::from_millis(50), "{b:?}");
            assert!(b < Duration::from_millis(150), "{b:?}");
        }
    }

    #[test]
    fn no_retry_policy_never_sleeps() {
        let mut j = SeededJitter::new(3);
        assert_eq!(RetryPolicy::none().backoff(1, &mut j), Duration::ZERO);
    }

    #[test]
    fn breaker_full_lifecycle() {
        let mut b = CircuitBreaker::new(3, Duration::from_millis(10));
        let ms = |m: u64| m * 1_000_000;
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(ms(0)));
        b.record_failure(ms(0));
        b.record_failure(ms(1));
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(ms(2));
        assert_eq!(b.state(), BreakerState::Open);
        // Rejected while cooling down.
        assert!(!b.allow(ms(5)));
        assert!(!b.allow(ms(11)));
        // Cooldown elapsed (opened at 2 ms + 10 ms): half-open probe.
        assert!(b.allow(ms(12)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let snap = b.snapshot();
        assert_eq!(snap.opened, 1);
        assert_eq!(snap.reclosed, 1);
        assert_eq!(snap.rejected, 2);
        assert_eq!(snap.probes, 1);
        assert_eq!(snap.consecutive_failures, 0);
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::new(1, Duration::from_millis(10));
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(20_000_000));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure(20_000_000);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.snapshot().opened, 2);
        // Cooldown restarts from the re-open time.
        assert!(!b.allow(25_000_000));
        assert!(b.allow(31_000_000));
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = CircuitBreaker::new(3, Duration::from_millis(10));
        b.record_failure(0);
        b.record_failure(0);
        b.record_success();
        b.record_failure(0);
        b.record_failure(0);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        // Regression for batched dispatch: a drained batch of calls arriving
        // together during the half-open window must consume a single probe,
        // not one per batch slot.
        let mut b = CircuitBreaker::new(1, Duration::from_millis(10));
        b.record_failure(0);
        let t = 20_000_000;
        let admitted: Vec<bool> = (0..8).map(|_| b.allow(t)).collect();
        assert_eq!(
            admitted.iter().filter(|a| **a).count(),
            1,
            "half-open admitted {admitted:?}"
        );
        assert!(admitted[0], "the first caller takes the probe");
        let snap = b.snapshot();
        assert_eq!(snap.probes, 1);
        assert_eq!(snap.rejected, 7);
        // The probe resolving releases the window.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(t + 1));
    }

    #[test]
    fn failed_probe_releases_the_window_for_the_next_cooldown() {
        let mut b = CircuitBreaker::new(1, Duration::from_millis(10));
        b.record_failure(0);
        let ms = |m: u64| m * 1_000_000;
        assert!(b.allow(ms(20)));
        b.record_failure(ms(20));
        assert_eq!(b.state(), BreakerState::Open);
        // Next window admits a fresh (single) probe again.
        assert!(b.allow(ms(31)));
        assert!(!b.allow(ms(31)));
        assert_eq!(b.snapshot().probes, 2);
    }

    #[test]
    fn wedged_probe_lease_expires_after_a_cooldown() {
        // A caller that took the probe and never reported back must not
        // wedge the breaker half-open forever.
        let mut b = CircuitBreaker::new(1, Duration::from_millis(10));
        b.record_failure(0);
        let ms = |m: u64| m * 1_000_000;
        assert!(b.allow(ms(20))); // probe taken, caller wedges
        assert!(!b.allow(ms(25)));
        assert!(b.allow(ms(30)), "probe lease expired; re-probe allowed");
        assert_eq!(b.snapshot().probes, 2);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_panics() {
        let _ = CircuitBreaker::new(0, Duration::from_millis(10));
    }

    #[test]
    fn default_config_matches_seed_behaviour() {
        let cfg = ResilienceConfig::default();
        assert_eq!(cfg.retry.max_attempts, 1);
        assert!(!cfg.breaker_enabled());
        assert_eq!(cfg.degradation, DegradationPolicy::DropFrame);
        assert_eq!(cfg.service_call_timeout, Duration::from_secs(30));
        assert_eq!(cfg.credit_timeout, None);
    }
}
