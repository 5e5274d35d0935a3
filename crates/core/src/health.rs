//! Device health: heartbeats, lease expiry, and failure detection.
//!
//! Every device in a deployment periodically announces itself with a
//! heartbeat. The [`FailureDetector`] tracks the last heartbeat per device
//! and classifies each device as [`Alive`](DeviceStatus::Alive),
//! [`Suspect`](DeviceStatus::Suspect) or [`Dead`](DeviceStatus::Dead) from
//! how many heartbeat intervals have elapsed past the lease. Two thresholds
//! separate *suspicion* (a transient partition — no action yet) from
//! *confirmation* (the device is gone — trigger failover), so a single
//! dropped packet never tears a pipeline apart.
//!
//! The detector is clock-agnostic: callers supply `now_ns` as nanoseconds
//! on any monotonic axis. The fleet coordinator (`videopipe-cluster`) feeds
//! it nanoseconds since its own start `Instant`; the simulator feeds it
//! `SimTime` nanoseconds. That keeps the transition logic identical — and
//! identically testable — in both worlds.

use std::collections::HashMap;
use std::time::Duration;

/// Tuning knobs for heartbeat-based failure detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthConfig {
    /// How often each device emits a heartbeat.
    pub heartbeat_interval: Duration,
    /// Grace period after the last heartbeat before a device is considered
    /// late at all. Must be at least one heartbeat interval, typically 2-4.
    pub lease: Duration,
    /// Number of *missed heartbeats past the lease* at which a device
    /// becomes [`DeviceStatus::Suspect`].
    pub suspicion_threshold: u32,
    /// Number of missed heartbeats past the lease at which a device is
    /// confirmed [`DeviceStatus::Dead`] and failover may begin. Must be
    /// `>= suspicion_threshold`.
    pub confirmation_threshold: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            heartbeat_interval: Duration::from_millis(100),
            lease: Duration::from_millis(300),
            suspicion_threshold: 1,
            confirmation_threshold: 3,
        }
    }
}

impl HealthConfig {
    /// Heartbeat interval in nanoseconds (at least 1 so arithmetic never
    /// divides by zero even with a degenerate config).
    fn heartbeat_ns(&self) -> u64 {
        (self.heartbeat_interval.as_nanos() as u64).max(1)
    }

    /// Lease in nanoseconds.
    fn lease_ns(&self) -> u64 {
        self.lease.as_nanos() as u64
    }
}

/// The detector's view of one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceStatus {
    /// Heartbeats arriving within the lease.
    Alive,
    /// Late enough to worry, not late enough to act.
    Suspect,
    /// Missed the confirmation threshold; failover should run.
    Dead,
}

/// Tracks heartbeats for a set of devices and classifies their liveness.
///
/// `now_ns` is caller-supplied on every query so the detector works over
/// wall-clock and simulated time alike.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    cfg: HealthConfig,
    last_beat: HashMap<String, u64>,
}

impl FailureDetector {
    /// Creates a detector with no devices registered.
    pub fn new(cfg: HealthConfig) -> Self {
        FailureDetector {
            cfg,
            last_beat: HashMap::new(),
        }
    }

    /// Registers `device` as expected, dating its lease from `now_ns`.
    /// A device never heard from at all would otherwise be invisible.
    pub fn expect(&mut self, device: &str, now_ns: u64) {
        self.last_beat.entry(device.to_string()).or_insert(now_ns);
    }

    /// Records a heartbeat from `device`, renewing its lease.
    pub fn record_heartbeat(&mut self, device: &str, now_ns: u64) {
        let beat = self.last_beat.entry(device.to_string()).or_insert(now_ns);
        *beat = (*beat).max(now_ns);
    }

    /// Classifies `device` at `now_ns`. Unknown devices are `Alive` (they
    /// were never expected, so they cannot be late).
    pub(crate) fn status(&self, device: &str, now_ns: u64) -> DeviceStatus {
        let Some(&beat) = self.last_beat.get(device) else {
            return DeviceStatus::Alive;
        };
        let elapsed = now_ns.saturating_sub(beat);
        let lease = self.cfg.lease_ns();
        if elapsed <= lease {
            return DeviceStatus::Alive;
        }
        let missed = (elapsed - lease) / self.cfg.heartbeat_ns() + 1;
        if missed >= u64::from(self.cfg.confirmation_threshold) {
            DeviceStatus::Dead
        } else if missed >= u64::from(self.cfg.suspicion_threshold) {
            DeviceStatus::Suspect
        } else {
            DeviceStatus::Alive
        }
    }

    /// Devices whose status at `now_ns` is [`DeviceStatus::Dead`], sorted
    /// so callers act deterministically.
    pub fn dead_devices(&self, now_ns: u64) -> Vec<String> {
        let mut dead: Vec<String> = self
            .last_beat
            .keys()
            .filter(|d| self.status(d, now_ns) == DeviceStatus::Dead)
            .cloned()
            .collect();
        dead.sort();
        dead
    }

    /// Every tracked device with its status at `now_ns`, sorted by name.
    pub fn statuses(&self, now_ns: u64) -> Vec<(String, DeviceStatus)> {
        let mut all: Vec<(String, DeviceStatus)> = self
            .last_beat
            .keys()
            .map(|d| (d.clone(), self.status(d, now_ns)))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Forgets `device` entirely (e.g. after failover removed it from the
    /// deployment) so it stops reporting as dead forever.
    pub fn forget(&mut self, device: &str) {
        self.last_beat.remove(device);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            heartbeat_interval: Duration::from_millis(100),
            lease: Duration::from_millis(300),
            suspicion_threshold: 1,
            confirmation_threshold: 3,
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn fresh_device_is_alive() {
        let mut d = FailureDetector::new(cfg());
        d.expect("phone", 0);
        assert_eq!(d.status("phone", 0), DeviceStatus::Alive);
        assert_eq!(d.status("phone", 300 * MS), DeviceStatus::Alive);
    }

    #[test]
    fn unknown_device_is_alive() {
        let d = FailureDetector::new(cfg());
        assert_eq!(d.status("ghost", 10_000 * MS), DeviceStatus::Alive);
    }

    #[test]
    fn transitions_through_suspect_to_dead() {
        let mut d = FailureDetector::new(cfg());
        d.record_heartbeat("phone", 0);
        // One missed beat past the lease: suspect, not dead.
        assert_eq!(d.status("phone", 301 * MS), DeviceStatus::Suspect);
        assert_eq!(d.status("phone", 450 * MS), DeviceStatus::Suspect);
        // Third missed beat past the lease: confirmed dead.
        assert_eq!(d.status("phone", 501 * MS), DeviceStatus::Dead);
        assert_eq!(d.dead_devices(501 * MS), vec!["phone".to_string()]);
    }

    #[test]
    fn heartbeat_renews_the_lease() {
        let mut d = FailureDetector::new(cfg());
        d.record_heartbeat("phone", 0);
        assert_eq!(d.status("phone", 450 * MS), DeviceStatus::Suspect);
        d.record_heartbeat("phone", 450 * MS);
        assert_eq!(d.status("phone", 700 * MS), DeviceStatus::Alive);
    }

    #[test]
    fn stale_heartbeat_does_not_rewind_the_lease() {
        let mut d = FailureDetector::new(cfg());
        d.record_heartbeat("phone", 500 * MS);
        d.record_heartbeat("phone", 100 * MS); // reordered delivery
        assert_eq!(d.status("phone", 700 * MS), DeviceStatus::Alive);
    }

    #[test]
    fn expect_does_not_overwrite_a_real_heartbeat() {
        let mut d = FailureDetector::new(cfg());
        d.record_heartbeat("phone", 500 * MS);
        d.expect("phone", 0);
        assert_eq!(d.status("phone", 700 * MS), DeviceStatus::Alive);
    }

    #[test]
    fn thresholds_are_configurable() {
        let mut d = FailureDetector::new(HealthConfig {
            suspicion_threshold: 2,
            confirmation_threshold: 5,
            ..cfg()
        });
        d.record_heartbeat("phone", 0);
        assert_eq!(d.status("phone", 301 * MS), DeviceStatus::Alive);
        assert_eq!(d.status("phone", 401 * MS), DeviceStatus::Suspect);
        assert_eq!(d.status("phone", 650 * MS), DeviceStatus::Suspect);
        assert_eq!(d.status("phone", 701 * MS), DeviceStatus::Dead);
    }

    #[test]
    fn forget_removes_the_device() {
        let mut d = FailureDetector::new(cfg());
        d.record_heartbeat("phone", 0);
        assert_eq!(d.status("phone", 10_000 * MS), DeviceStatus::Dead);
        d.forget("phone");
        assert_eq!(d.status("phone", 10_000 * MS), DeviceStatus::Alive);
        assert!(d.dead_devices(10_000 * MS).is_empty());
    }

    #[test]
    fn statuses_reports_all_devices_sorted() {
        let mut d = FailureDetector::new(cfg());
        d.record_heartbeat("tablet", 0);
        d.record_heartbeat("phone", 600 * MS);
        let statuses = d.statuses(700 * MS);
        assert_eq!(
            statuses,
            vec![
                ("phone".to_string(), DeviceStatus::Alive),
                ("tablet".to_string(), DeviceStatus::Dead),
            ]
        );
    }
}
