//! The Wi-Fi link model.
//!
//! Every directed device pair gets a serialised link: transfers queue
//! behind each other (one radio), transmission time is `bytes / bandwidth`
//! with multiplicative jitter, and propagation adds a fixed latency after
//! transmission. Calibrated defaults model the paper's home Wi-Fi.

use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// Aggregate statistics of one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    /// Transfers performed.
    pub transfers: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total time spent transmitting.
    pub busy: Duration,
    /// Total queueing wait behind earlier transfers.
    pub queued: Duration,
}

/// A serialised directed link with latency, bandwidth and jitter.
#[derive(Debug, Clone)]
pub struct LinkModel {
    latency: Duration,
    bandwidth_bps: u64,
    jitter_frac: f64,
    busy_until: SimTime,
    stats: LinkStats,
}

impl LinkModel {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero or `jitter_frac` is not in
    /// `[0, 1)`.
    pub(crate) fn new(latency: Duration, bandwidth_bps: u64, jitter_frac: f64) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        assert!(
            (0.0..1.0).contains(&jitter_frac),
            "jitter fraction must be in [0, 1)"
        );
        LinkModel {
            latency,
            bandwidth_bps,
            jitter_frac,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// Pure transmission time for `bytes` (no queueing, no jitter).
    pub(crate) fn tx_time(&self, bytes: usize) -> Duration {
        Duration::from_nanos((bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }

    /// Like [`LinkModel::transfer`], but the transfer cannot start before
    /// `earliest` (e.g. a partition's heal time) and `extra_latency` is
    /// added to propagation (e.g. an injected latency spike).
    pub(crate) fn transfer_at(
        &mut self,
        earliest: SimTime,
        bytes: usize,
        rng: &mut StdRng,
        extra_latency: Duration,
    ) -> SimTime {
        let start = earliest.max(self.busy_until);
        let queued = start - earliest;
        let jitter = if self.jitter_frac > 0.0 {
            1.0 + rng.gen_range(-self.jitter_frac..self.jitter_frac)
        } else {
            1.0
        };
        let tx = self.tx_time(bytes).mul_f64(jitter);
        self.busy_until = start + tx;
        let latency = self.latency.mul_f64(jitter.max(0.5)) + extra_latency;
        let arrival = start + tx + latency;

        self.stats.transfers += 1;
        self.stats.bytes += bytes as u64;
        self.stats.busy += tx;
        self.stats.queued += queued;
        arrival
    }

    /// The statistics so far.
    pub(crate) fn stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
impl LinkModel {
    /// Books a transfer of `bytes` starting no earlier than `now`; returns
    /// the arrival time at the far end.
    pub(crate) fn transfer(&mut self, now: SimTime, bytes: usize, rng: &mut StdRng) -> SimTime {
        self.transfer_at(now, bytes, rng, Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn transfer_time_is_latency_plus_tx() {
        let mut link = LinkModel::new(Duration::from_millis(2), 100_000_000, 0.0);
        // 12_500 bytes = 100_000 bits at 100 Mbit/s = 1 ms.
        let arrival = link.transfer(SimTime::ZERO, 12_500, &mut rng());
        assert_eq!(arrival, SimTime::from_ms(3));
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut link = LinkModel::new(Duration::from_millis(1), 100_000_000, 0.0);
        let mut r = rng();
        let a1 = link.transfer(SimTime::ZERO, 12_500, &mut r); // tx 1ms
        let a2 = link.transfer(SimTime::ZERO, 12_500, &mut r); // queues 1ms
        assert_eq!(a1, SimTime::from_ms(2));
        assert_eq!(a2, SimTime::from_ms(3));
        assert_eq!(link.stats().queued, Duration::from_millis(1));
        assert_eq!(link.stats().transfers, 2);
        assert_eq!(link.stats().bytes, 25_000);
    }

    #[test]
    fn latency_dominates_small_payloads() {
        let mut link = LinkModel::new(Duration::from_millis(3), 100_000_000, 0.0);
        let arrival = link.transfer(SimTime::ZERO, 64, &mut rng());
        let total = arrival - SimTime::ZERO;
        assert!(total >= Duration::from_millis(3));
        assert!(total < Duration::from_millis(4));
    }

    #[test]
    fn jitter_varies_but_bounded() {
        let mut link = LinkModel::new(Duration::from_millis(2), 100_000_000, 0.2);
        let mut r = rng();
        let mut times = Vec::new();
        for i in 0..50 {
            // Space transfers out to avoid queueing.
            let t0 = SimTime::from_ms(i * 100);
            let arrival = link.transfer(t0, 125_000, &mut r);
            times.push((arrival - t0).as_secs_f64());
        }
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "jitter should vary");
        // tx nominal 10ms + latency 2ms; 20% jitter bounds roughly [9.6, 14.5].
        assert!(min > 0.008 && max < 0.016, "{min} {max}");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mk = || {
            let mut link = LinkModel::new(Duration::from_millis(2), 50_000_000, 0.1);
            let mut r = StdRng::seed_from_u64(9);
            (0..10)
                .map(|i| link.transfer(SimTime::from_ms(i * 10), 10_000, &mut r))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_panics() {
        let _ = LinkModel::new(Duration::ZERO, 0, 0.0);
    }

    #[test]
    fn transfer_at_adds_injected_latency() {
        let mut link = LinkModel::new(Duration::from_millis(2), 100_000_000, 0.0);
        let arrival = link.transfer_at(SimTime::ZERO, 12_500, &mut rng(), Duration::from_millis(7));
        // 1ms tx + 2ms latency + 7ms spike.
        assert_eq!(arrival, SimTime::from_ms(10));
    }
}
