//! Service executor pools: FIFO queueing for stateless service instances.
//!
//! One pool exists per `(device, service)` pair. A pool with `k` instances
//! serves up to `k` requests concurrently; further requests wait in FIFO
//! order. Pools are shared by every pipeline bound to that device+service,
//! which is exactly what the paper's §5.2.2 experiment exercises ("These
//! two pipelines share the pose detector service") — and scaling the pool
//! (`grow`) is the paper's proposed remedy once the service saturates.

use crate::time::SimTime;
use std::time::Duration;

/// Aggregate statistics of a pool over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Requests served.
    pub requests: u64,
    /// Total queueing wait.
    pub total_wait: Duration,
    /// Maximum single-request wait.
    pub longest_wait: Duration,
    /// Total executor busy time.
    pub total_busy: Duration,
    /// Requests that had to wait at all.
    pub waited: u64,
}

impl PoolStats {
    /// Mean queueing wait per request.
    pub fn mean_wait(&self) -> Duration {
        if self.requests == 0 {
            Duration::ZERO
        } else {
            self.total_wait / self.requests as u32
        }
    }

    /// Executor utilisation over `span` given `instances` executors.
    pub fn utilization(&self, span: Duration, instances: usize) -> f64 {
        let capacity = span.as_secs_f64() * instances as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.total_busy.as_secs_f64() / capacity).min(1.0)
        }
    }
}

/// A FIFO pool of service executors on the virtual clock.
#[derive(Debug, Clone)]
pub struct ServicePool {
    /// `busy_until` per executor instance.
    executors: Vec<SimTime>,
    stats: PoolStats,
}

impl ServicePool {
    /// Creates a pool with `instances` executors.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is zero.
    pub(crate) fn new(instances: usize) -> Self {
        assert!(instances > 0, "pool needs at least one instance");
        ServicePool {
            executors: vec![SimTime::ZERO; instances],
            stats: PoolStats::default(),
        }
    }

    /// Number of executor instances.
    pub(crate) fn instances(&self) -> usize {
        self.executors.len()
    }

    /// Adds `n` instances (horizontal scaling; new instances are idle).
    pub(crate) fn grow(&mut self, n: usize, now: SimTime) {
        for _ in 0..n {
            self.executors.push(now);
        }
    }

    /// Books a request arriving at `arrival` needing `compute` time.
    /// Returns the completion time; queueing wait is recorded in the stats.
    ///
    /// Correct FIFO behaviour relies on arrivals being booked in
    /// nondecreasing time order, which the DES guarantees.
    pub(crate) fn book(&mut self, arrival: SimTime, compute: Duration) -> SimTime {
        // Earliest-free executor.
        let (idx, &free_at) = self
            .executors
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("pool has at least one executor");
        let start = arrival.max(free_at);
        let done = start + compute;
        self.executors[idx] = done;

        let wait = start - arrival;
        self.stats.requests += 1;
        self.stats.total_wait += wait;
        if wait > Duration::ZERO {
            self.stats.waited += 1;
        }
        if wait > self.stats.longest_wait {
            self.stats.longest_wait = wait;
        }
        self.stats.total_busy += compute;
        done
    }

    /// The statistics so far.
    pub(crate) fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
impl ServicePool {
    /// The time the earliest executor becomes free.
    pub(crate) fn earliest_free(&self) -> SimTime {
        self.executors
            .iter()
            .copied()
            .min()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_executor_serialises() {
        let mut pool = ServicePool::new(1);
        let d1 = pool.book(SimTime::ZERO, Duration::from_millis(50));
        assert_eq!(d1, SimTime::from_ms(50));
        // Second request arrives while busy → waits.
        let d2 = pool.book(SimTime::from_ms(10), Duration::from_millis(50));
        assert_eq!(d2, SimTime::from_ms(100));
        let stats = pool.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.waited, 1);
        assert_eq!(stats.longest_wait, Duration::from_millis(40));
        assert_eq!(stats.total_busy, Duration::from_millis(100));
    }

    #[test]
    fn two_executors_run_concurrently() {
        let mut pool = ServicePool::new(2);
        let d1 = pool.book(SimTime::ZERO, Duration::from_millis(50));
        let d2 = pool.book(SimTime::from_ms(1), Duration::from_millis(50));
        assert_eq!(d1, SimTime::from_ms(50));
        assert_eq!(d2, SimTime::from_ms(51)); // no wait
        assert_eq!(pool.stats().waited, 0);
        // Third waits for the earliest.
        let d3 = pool.book(SimTime::from_ms(2), Duration::from_millis(10));
        assert_eq!(d3, SimTime::from_ms(60));
    }

    #[test]
    fn grow_adds_capacity() {
        let mut pool = ServicePool::new(1);
        pool.book(SimTime::ZERO, Duration::from_millis(100));
        pool.grow(1, SimTime::from_ms(10));
        assert_eq!(pool.instances(), 2);
        // New instance is free at 10ms.
        let done = pool.book(SimTime::from_ms(10), Duration::from_millis(5));
        assert_eq!(done, SimTime::from_ms(15));
    }

    #[test]
    fn idle_pool_has_no_wait() {
        let mut pool = ServicePool::new(1);
        let done = pool.book(SimTime::from_ms(100), Duration::from_millis(5));
        assert_eq!(done, SimTime::from_ms(105));
        assert_eq!(pool.stats().mean_wait(), Duration::ZERO);
    }

    #[test]
    fn utilization_computation() {
        let mut pool = ServicePool::new(2);
        pool.book(SimTime::ZERO, Duration::from_millis(500));
        pool.book(SimTime::ZERO, Duration::from_millis(500));
        let util = pool.stats().utilization(Duration::from_secs(1), 2);
        assert!((util - 0.5).abs() < 1e-9, "util {util}");
        assert_eq!(PoolStats::default().utilization(Duration::ZERO, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        let _ = ServicePool::new(0);
    }

    #[test]
    fn earliest_free_tracks_bookings() {
        let mut pool = ServicePool::new(2);
        assert_eq!(pool.earliest_free(), SimTime::ZERO);
        pool.book(SimTime::ZERO, Duration::from_millis(10));
        assert_eq!(pool.earliest_free(), SimTime::ZERO); // second idle
        pool.book(SimTime::ZERO, Duration::from_millis(20));
        assert_eq!(pool.earliest_free(), SimTime::from_ms(10));
    }
}
