//! Seed-reproducible fault plans for chaos experiments.
//!
//! A [`FaultPlan`] unifies the simulator's fault surface: probabilistic
//! service failures (delegated to the core's `ChaosService`), scheduled
//! bursts of extra link latency, and link partitions with scheduled heal
//! times. Everything is driven by the plan's seed and the virtual clock, so
//! a chaos run replays identically — the property that makes failure bugs
//! debuggable at all.

use crate::time::SimTime;
use std::sync::Arc;
use std::time::Duration;
use videopipe_core::service::{ChaosService, Service};

/// A scheduled burst of extra one-way latency applied to every link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySpike {
    /// Virtual-time offset at which the spike begins.
    pub start: Duration,
    /// How long the spike lasts.
    pub duration: Duration,
    /// Extra one-way latency while the spike is active.
    pub extra: Duration,
}

impl LatencySpike {
    fn active(&self, now: SimTime) -> bool {
        let begin = SimTime::ZERO + self.start;
        now >= begin && now < begin + self.duration
    }
}

/// A scheduled bidirectional partition between two devices. Transfers that
/// start while it is active are delayed until the heal time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkPartition {
    /// One endpoint.
    pub a: String,
    /// The other endpoint.
    pub b: String,
    /// Virtual-time offset at which the partition begins.
    pub start: Duration,
    /// Virtual-time offset at which the link heals.
    pub heal: Duration,
}

impl LinkPartition {
    fn matches(&self, from: &str, to: &str) -> bool {
        (self.a == from && self.b == to) || (self.a == to && self.b == from)
    }
}

/// A scheduled permanent device crash: at `at` (virtual time) the device
/// stops heartbeating, executing modules and serving requests, and never
/// comes back within the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceCrash {
    /// The device that dies.
    pub device: String,
    /// Virtual-time offset of the crash.
    pub at: Duration,
}

/// A deterministic fault schedule for one scenario run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    spikes: Vec<LatencySpike>,
    partitions: Vec<LinkPartition>,
    crashes: Vec<DeviceCrash>,
    service_failure_probability: f64,
}

impl FaultPlan {
    /// Creates an empty plan; `seed` drives every probabilistic decision.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Schedules a permanent crash of `device` at virtual-time offset `at`.
    /// The scenario's failover machinery (when enabled) detects the loss
    /// via missed heartbeats and replans around it.
    #[must_use]
    pub fn with_device_crash(mut self, device: &str, at: Duration) -> Self {
        self.crashes.push(DeviceCrash {
            device: device.to_string(),
            at,
        });
        self
    }

    /// All scheduled device crashes, in insertion order.
    pub(crate) fn device_crashes(&self) -> &[DeviceCrash] {
        &self.crashes
    }

    /// The virtual time at which `device` crashes (the earliest, if it was
    /// scheduled more than once), or `None` if it never does.
    pub(crate) fn crash_time(&self, device: &str) -> Option<SimTime> {
        self.crashes
            .iter()
            .filter(|c| c.device == device)
            .map(|c| SimTime::ZERO + c.at)
            .min()
    }

    /// Total extra one-way latency active at `now` (overlapping spikes add).
    pub(crate) fn extra_latency(&self, now: SimTime) -> Duration {
        self.spikes
            .iter()
            .filter(|s| s.active(now))
            .map(|s| s.extra)
            .sum()
    }

    /// If the `from → to` link is partitioned at `now`, the virtual time at
    /// which it heals (the latest heal among active partitions).
    pub(crate) fn partition_until(&self, from: &str, to: &str, now: SimTime) -> Option<SimTime> {
        self.partitions
            .iter()
            .filter(|p| p.matches(from, to))
            .filter(|p| {
                let begin = SimTime::ZERO + p.start;
                let heal = SimTime::ZERO + p.heal;
                now >= begin && now < heal
            })
            .map(|p| SimTime::ZERO + p.heal)
            .max()
    }

    /// Wraps a service image with the plan's probabilistic failure mode;
    /// returns the image untouched when the probability is zero.
    pub(crate) fn wrap_service(&self, inner: Arc<dyn Service>) -> Arc<dyn Service> {
        if self.service_failure_probability > 0.0 {
            Arc::new(ChaosService::probabilistic(
                inner,
                self.seed,
                self.service_failure_probability,
            ))
        } else {
            inner
        }
    }
}

#[cfg(test)]
impl FaultPlan {
    /// Adds a latency spike: `extra` one-way latency on every link from
    /// `start` (virtual time) for `duration`.
    #[must_use]
    pub(crate) fn with_latency_spike(
        mut self,
        start: Duration,
        duration: Duration,
        extra: Duration,
    ) -> Self {
        self.spikes.push(LatencySpike {
            start,
            duration,
            extra,
        });
        self
    }

    /// Adds a bidirectional partition between devices `a` and `b` from
    /// `start` until `heal` (both virtual-time offsets).
    ///
    /// # Panics
    ///
    /// Panics unless `heal > start`.
    #[must_use]
    pub(crate) fn with_partition(
        mut self,
        a: &str,
        b: &str,
        start: Duration,
        heal: Duration,
    ) -> Self {
        assert!(heal > start, "partition must heal after it starts");
        self.partitions.push(LinkPartition {
            a: a.to_string(),
            b: b.to_string(),
            start,
            heal,
        });
        self
    }

    /// Makes every wrapped service fail each request independently with
    /// probability `p` (seeded, reproducible). See [`FaultPlan::wrap_service`].
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    #[must_use]
    pub(crate) fn with_service_failure_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.service_failure_probability = p;
        self
    }

    /// Whether `device` has crashed at or before `now`.
    pub(crate) fn device_crashed(&self, device: &str, now: SimTime) -> bool {
        self.crash_time(device).is_some_and(|at| now >= at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spikes_add_latency_only_inside_their_window() {
        let plan = FaultPlan::new(7)
            .with_latency_spike(
                Duration::from_millis(100),
                Duration::from_millis(50),
                Duration::from_millis(20),
            )
            .with_latency_spike(
                Duration::from_millis(120),
                Duration::from_millis(10),
                Duration::from_millis(5),
            );
        assert_eq!(plan.extra_latency(SimTime::from_ms(99)), Duration::ZERO);
        assert_eq!(
            plan.extra_latency(SimTime::from_ms(100)),
            Duration::from_millis(20)
        );
        // Overlap: both spikes active.
        assert_eq!(
            plan.extra_latency(SimTime::from_ms(125)),
            Duration::from_millis(25)
        );
        assert_eq!(plan.extra_latency(SimTime::from_ms(150)), Duration::ZERO);
    }

    #[test]
    fn partitions_are_bidirectional_and_heal() {
        let plan = FaultPlan::new(7).with_partition(
            "phone",
            "desktop",
            Duration::from_millis(10),
            Duration::from_millis(30),
        );
        assert_eq!(
            plan.partition_until("phone", "desktop", SimTime::from_ms(5)),
            None
        );
        assert_eq!(
            plan.partition_until("phone", "desktop", SimTime::from_ms(15)),
            Some(SimTime::from_ms(30))
        );
        // Reverse direction is cut too.
        assert_eq!(
            plan.partition_until("desktop", "phone", SimTime::from_ms(15)),
            Some(SimTime::from_ms(30))
        );
        // Healed.
        assert_eq!(
            plan.partition_until("phone", "desktop", SimTime::from_ms(30)),
            None
        );
        // Unrelated pair unaffected.
        assert_eq!(
            plan.partition_until("phone", "tv", SimTime::from_ms(15)),
            None
        );
    }

    #[test]
    fn device_crashes_are_permanent_and_queryable() {
        let plan = FaultPlan::new(7)
            .with_device_crash("desktop", Duration::from_secs(5))
            .with_device_crash("desktop", Duration::from_secs(9));
        assert!(!plan.device_crashed("desktop", SimTime::from_ms(4_999)));
        assert!(plan.device_crashed("desktop", SimTime::from_ms(5_000)));
        // Permanent: still dead much later.
        assert!(plan.device_crashed("desktop", SimTime::from_ms(60_000)));
        // Earliest schedule wins; other devices unaffected.
        assert_eq!(plan.crash_time("desktop"), Some(SimTime::from_ms(5_000)));
        assert_eq!(plan.crash_time("phone"), None);
        assert!(!plan.device_crashed("phone", SimTime::from_ms(60_000)));
        assert_eq!(plan.device_crashes().len(), 2);
    }

    #[test]
    #[should_panic(expected = "heal")]
    fn partition_must_heal_after_start() {
        let _ = FaultPlan::new(0).with_partition(
            "a",
            "b",
            Duration::from_millis(10),
            Duration::from_millis(10),
        );
    }

    #[test]
    fn wrap_service_is_identity_at_zero_probability() {
        use videopipe_core::message::Payload;
        use videopipe_core::service::{ServiceRequest, ServiceResponse};
        use videopipe_media::FrameStore;

        struct Ok1;
        impl Service for Ok1 {
            fn name(&self) -> &str {
                "ok1"
            }
            fn handle(
                &self,
                _request: &ServiceRequest,
                _store: &FrameStore,
            ) -> Result<ServiceResponse, videopipe_core::PipelineError> {
                Ok(ServiceResponse::new(Payload::Count(1)))
            }
        }

        let store = FrameStore::with_capacity(4);
        let req = ServiceRequest::new("go", Payload::Empty);

        let plain = FaultPlan::new(3).wrap_service(Arc::new(Ok1));
        assert!(plain.handle(&req, &store).is_ok());

        // With p = 1 every request fails, and the same seed replays.
        let chaotic = FaultPlan::new(3)
            .with_service_failure_probability(1.0)
            .wrap_service(Arc::new(Ok1));
        assert!(chaotic.handle(&req, &store).is_err());
    }
}
