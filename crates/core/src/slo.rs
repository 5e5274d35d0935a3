//! SLO-driven adaptive degradation and load shedding.
//!
//! PRs 1–5 built the lossy *mechanisms* — codec
//! [`Quality`](videopipe_media::codec::Quality), micro-batch
//! [`BatchConfig`](crate::runtime::BatchConfig), credit leases, degradation
//! policies — but every knob was static, so an overloaded pipeline just
//! blew its queue until the breaker tripped. This module closes the loop
//! (the Mez design, see PAPERS.md): a per-pipeline feedback controller
//! observes *windowed* tail latency from the low-cardinality
//! [`LatencyHistogram`] already collected on the delivery path, compares it
//! against a declared [`Slo`], and walks an ordered [`Knob`] lattice —
//! quality down first, batch up, source sampling down, shed last — with
//! hysteresis and a minimum dwell time so knobs never flap.
//!
//! The controller itself is pure and clock-agnostic: it consumes
//! `(now_ns, cumulative histogram, queue signal)` and emits [`SloAction`]s,
//! which makes it drivable from the real-time runtime thread and from the
//! virtual-time simulator with identical semantics — and keeps all policy
//! out of the per-frame path (the NNStreamer lesson).

use crate::metrics::LatencyHistogram;
use std::time::Duration;

/// A latency service-level objective for one pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Median end-to-end latency bound. Optional — most deployments only
    /// bound the tail. When set, it must not exceed `Slo::p99`
    /// (validated at deploy time).
    pub p50: Option<Duration>,
    /// End-to-end p99 latency target the controller defends.
    pub p99: Duration,
}

impl Slo {
    /// An SLO bounding only the p99 tail.
    pub(crate) const fn p99(target: Duration) -> Self {
        Slo {
            p50: None,
            p99: target,
        }
    }
}

/// One rung of the degradation lattice. Applying a knob *degrades* the
/// pipeline along one axis; the ordering in [`SloConfig::lattice`] encodes
/// which axes to sacrifice first (cheapest fidelity loss first, shedding
/// work last).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Drop cross-device codec quality to this shift (higher = lossier,
    /// smaller frames on the wire). Must be `< 8`.
    CodecQuality {
        /// Quantisation shift (see [`Quality::new`](videopipe_media::codec::Quality::new)).
        shift: u8,
    },
    /// Raise the service micro-batch ceiling to this size (more
    /// amortisation, more throughput, slightly more per-request latency at
    /// low load — which is why it comes after quality).
    Batch {
        /// New `max_batch` floor applied on top of the configured policy.
        max_batch: usize,
    },
    /// Sample the source down: admit only every `divisor`-th camera tick.
    SampleRate {
        /// Keep one frame in `divisor` (≥ 1; 1 = no-op).
        divisor: u32,
    },
    /// Shed work at admission: of the frames surviving sampling, keep only
    /// one in `keep_one_in`. The last resort — work is dropped outright.
    Shed {
        /// Keep one frame in this many (≥ 1; 1 = no-op).
        keep_one_in: u32,
    },
}

/// Configuration of the per-pipeline SLO feedback controller.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// The latency objective to defend.
    pub slo: Slo,
    /// Control-loop tick period. Each tick observes the latency window
    /// since the previous tick.
    pub interval: Duration,
    /// Minimum time between knob moves (in either direction). Bounds the
    /// flap rate: the controller can change the configuration at most once
    /// per dwell.
    pub dwell: Duration,
    /// Step *down* (degrade) when windowed p99 exceeds `trip_ratio` ×
    /// target. 1.0 trips exactly at the SLO.
    pub trip_ratio: f64,
    /// Step *up* (recover) only when windowed p99 has fallen below
    /// `relax_headroom` × target. Must be `< trip_ratio` — the gap between
    /// the two thresholds is the hysteresis band that prevents flapping
    /// around the SLO boundary.
    pub relax_headroom: f64,
    /// Minimum delivered frames in a window before the controller acts on
    /// its quantiles; thinner windows carry over to the next tick (the
    /// snapshot is not advanced), so slow pipelines accumulate a judgeable
    /// window instead of never being judged.
    pub min_window: u64,
    /// Optional queue-depth trip wire: a windowed queue high-water mark at
    /// or above this steps down even if delivered-frame latency still looks
    /// healthy (queues grow before deliveries slow).
    pub queue_trip: Option<u64>,
    /// The ordered degradation lattice; level `n` means the first `n` knobs
    /// are applied.
    pub lattice: Vec<Knob>,
}

impl SloConfig {
    /// A controller defending `p99` with the default lattice: quality down
    /// (shift 4, then 6), batch up to 4, sample down (÷2, ÷4), shed 3-in-4.
    pub fn p99(target: Duration) -> Self {
        SloConfig {
            slo: Slo::p99(target),
            interval: Duration::from_millis(100),
            dwell: Duration::from_millis(400),
            trip_ratio: 1.0,
            relax_headroom: 0.7,
            min_window: 4,
            queue_trip: None,
            lattice: vec![
                Knob::CodecQuality { shift: 4 },
                Knob::CodecQuality { shift: 6 },
                Knob::Batch { max_batch: 4 },
                Knob::SampleRate { divisor: 2 },
                Knob::SampleRate { divisor: 4 },
                Knob::Shed { keep_one_in: 4 },
            ],
        }
    }

    /// Builder-style replacement of the knob lattice (per-app priorities).
    pub fn with_lattice(mut self, lattice: Vec<Knob>) -> Self {
        self.lattice = lattice;
        self
    }

    /// Builder-style control-tick interval.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Builder-style minimum dwell between knob moves.
    pub fn with_dwell(mut self, dwell: Duration) -> Self {
        self.dwell = dwell;
        self
    }

    /// Deploy-time validation (called from `RuntimeConfig::validate`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the SLO bounds are inverted
    /// (`p50 > p99`, or `relax_headroom ≥ trip_ratio`), a threshold is
    /// non-positive, or a lattice knob is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.slo.p99.is_zero() {
            return Err("slo.p99 must be > 0".into());
        }
        if let Some(p50) = self.slo.p50 {
            if p50 > self.slo.p99 {
                return Err(format!(
                    "inverted SLO bounds: p50 {p50:?} > p99 {:?}",
                    self.slo.p99
                ));
            }
        }
        if !(self.trip_ratio.is_finite() && self.trip_ratio > 0.0) {
            return Err("slo.trip_ratio must be finite and > 0".into());
        }
        if !(self.relax_headroom.is_finite() && self.relax_headroom > 0.0) {
            return Err("slo.relax_headroom must be finite and > 0".into());
        }
        if self.relax_headroom >= self.trip_ratio {
            return Err(format!(
                "inverted hysteresis band: relax_headroom {} must be < trip_ratio {}",
                self.relax_headroom, self.trip_ratio
            ));
        }
        if self.interval.is_zero() {
            return Err("slo.interval must be > 0".into());
        }
        for knob in &self.lattice {
            match *knob {
                Knob::CodecQuality { shift } if shift >= 8 => {
                    return Err(format!("lattice quality shift {shift} out of range (< 8)"));
                }
                Knob::Batch { max_batch: 0 } => {
                    return Err("lattice batch max_batch must be ≥ 1".into());
                }
                Knob::SampleRate { divisor: 0 } => {
                    return Err("lattice sample divisor must be ≥ 1".into());
                }
                Knob::Shed { keep_one_in: 0 } => {
                    return Err("lattice shed keep_one_in must be ≥ 1".into());
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The effective knob settings at some lattice level — what the actuation
/// sites (encode path, executor drain, pacer admission) read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KnobSettings {
    /// Codec quality override for cross-device frames (`None` = configured
    /// quality).
    pub quality_shift: Option<u8>,
    /// Micro-batch ceiling floor (`None` = configured policy).
    pub max_batch: Option<usize>,
    /// Source sampling divisor (1 = every tick).
    pub sample_divisor: u32,
    /// Shedding factor applied after sampling (1 = keep everything).
    pub shed_one_in: u32,
}

impl KnobSettings {
    /// Settings with every knob at its baseline (no degradation).
    pub fn baseline() -> Self {
        KnobSettings {
            quality_shift: None,
            max_batch: None,
            sample_divisor: 1,
            shed_one_in: 1,
        }
    }

    /// The combined admission stride: one admitted camera tick in
    /// `sample_divisor × shed_one_in`.
    pub fn admit_stride(&self) -> u64 {
        u64::from(self.sample_divisor.max(1)) * u64::from(self.shed_one_in.max(1))
    }
}

/// What a control tick decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloAction {
    /// Degraded one rung: the knob at `lattice[level - 1]` was just applied.
    StepDown {
        /// New lattice level (number of knobs applied).
        level: usize,
    },
    /// Recovered one rung: the knob at `lattice[level]` was just released.
    StepUp {
        /// New lattice level.
        level: usize,
    },
    /// No change (healthy, inside the hysteresis band, dwelling, or the
    /// window was too thin to judge).
    Hold,
}

/// The per-pipeline SLO feedback controller.
///
/// Drive it by calling [`SloController::observe`] once per control tick
/// with the pipeline's *cumulative* end-to-end histogram; the controller
/// internally diffs successive snapshots (`LatencyHistogram::since`) so
/// each decision sees only the window since the last tick.
#[derive(Debug, Clone)]
pub struct SloController {
    config: SloConfig,
    level: usize,
    prev: LatencyHistogram,
    prev_queue_max: u64,
    last_change_ns: Option<u64>,
    last_direction_down: Option<bool>,
    moves: u64,
    flaps: u64,
    last_window_p99_ns: u64,
    last_window_count: u64,
}

impl SloController {
    /// A controller at baseline (no knobs applied).
    pub fn new(config: SloConfig) -> Self {
        SloController {
            config,
            level: 0,
            prev: LatencyHistogram::new(),
            prev_queue_max: 0,
            last_change_ns: None,
            last_direction_down: None,
            moves: 0,
            flaps: 0,
            last_window_p99_ns: 0,
            last_window_count: 0,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Current lattice level (0 = baseline, `lattice.len()` = fully
    /// degraded).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Total knob moves so far (both directions).
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Direction reversals so far. The dwell time bounds this: at most one
    /// move — hence at most one reversal — per dwell period.
    pub fn flaps(&self) -> u64 {
        self.flaps
    }

    /// Windowed p99 observed at the last tick (ns; 0 before the first
    /// actionable window).
    pub fn last_window_p99_ns(&self) -> u64 {
        self.last_window_p99_ns
    }

    /// Delivered frames in the last observed window.
    pub fn last_window_count(&self) -> u64 {
        self.last_window_count
    }

    /// The effective knob settings at the current level: each applied rung
    /// overrides its axis, so deeper lattice entries deepen the degradation.
    pub fn settings(&self) -> KnobSettings {
        Self::settings_at(&self.config.lattice, self.level)
    }

    /// Settings with the first `level` lattice knobs applied.
    pub(crate) fn settings_at(lattice: &[Knob], level: usize) -> KnobSettings {
        let mut s = KnobSettings::baseline();
        for knob in lattice.iter().take(level) {
            match *knob {
                Knob::CodecQuality { shift } => s.quality_shift = Some(shift),
                Knob::Batch { max_batch } => s.max_batch = Some(max_batch.max(1)),
                Knob::SampleRate { divisor } => s.sample_divisor = divisor.max(1),
                Knob::Shed { keep_one_in } => s.shed_one_in = keep_one_in.max(1),
            }
        }
        s
    }

    /// One control tick: diff the cumulative histogram against the previous
    /// snapshot, judge the window against the SLO with hysteresis, and move
    /// at most one lattice rung (respecting the dwell time).
    ///
    /// `queue_max` is the cumulative dispatch queue high-water mark; the
    /// controller treats a *growth* of this mark within the window as
    /// pressure even before delivered-frame latency degrades.
    pub fn observe(
        &mut self,
        now_ns: u64,
        cumulative: &LatencyHistogram,
        queue_max: u64,
    ) -> SloAction {
        let window = cumulative.since(&self.prev);
        let queue_grew_to = if queue_max > self.prev_queue_max {
            queue_max
        } else {
            0
        };
        self.prev_queue_max = self.prev_queue_max.max(queue_max);

        if window.count() < self.config.min_window {
            // Too thin to judge latency — carry the window over (keep the
            // old snapshot) so the samples accumulate across ticks. A
            // pipeline delivering fewer than min_window/interval fps is
            // then judged on a longer window instead of never: min_window
            // is a sample floor, not a delivery-rate floor. A queue
            // blowing up while nothing gets delivered is still the
            // strongest overload signal there is, so the trip wire fires
            // regardless.
            if !self.queue_tripped(queue_grew_to) {
                return SloAction::Hold;
            }
        } else {
            self.prev = cumulative.clone();
            self.last_window_p99_ns = window.quantile_ns(0.99);
            self.last_window_count = window.count();
        }

        let target_ns = self.config.slo.p99.as_nanos() as f64;
        let p99 = self.last_window_p99_ns as f64;
        let trip =
            window.count() >= self.config.min_window && p99 > target_ns * self.config.trip_ratio;
        let trip = trip || self.queue_tripped(queue_grew_to);
        let relax = window.count() >= self.config.min_window
            && p99 < target_ns * self.config.relax_headroom
            && !self.queue_tripped(queue_grew_to);

        // Dwell: at most one knob move per dwell period, either direction.
        if let Some(changed_at) = self.last_change_ns {
            if now_ns.saturating_sub(changed_at) < self.config.dwell.as_nanos() as u64 {
                return SloAction::Hold;
            }
        }

        if trip && self.level < self.config.lattice.len() {
            self.level += 1;
            self.mark_move(now_ns, true);
            SloAction::StepDown { level: self.level }
        } else if relax && self.level > 0 {
            self.level -= 1;
            self.mark_move(now_ns, false);
            SloAction::StepUp { level: self.level }
        } else {
            SloAction::Hold
        }
    }

    fn queue_tripped(&self, queue_grew_to: u64) -> bool {
        matches!(self.config.queue_trip, Some(limit) if queue_grew_to >= limit)
    }

    fn mark_move(&mut self, now_ns: u64, down: bool) {
        self.moves = self.moves.saturating_add(1);
        if let Some(prev_down) = self.last_direction_down {
            if prev_down != down {
                self.flaps = self.flaps.saturating_add(1);
            }
        }
        self.last_direction_down = Some(down);
        self.last_change_ns = Some(now_ns);
    }
}

#[cfg(test)]
impl KnobSettings {
    /// The effective codec quality given the configured baseline.
    pub(crate) fn quality_or(
        &self,
        configured: videopipe_media::codec::Quality,
    ) -> videopipe_media::codec::Quality {
        match self.quality_shift {
            Some(shift) if shift < 8 => videopipe_media::codec::Quality::new(shift),
            _ => configured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use videopipe_media::codec::Quality;

    fn hist_with(ms: u64, n: u64) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for _ in 0..n {
            h.record(ms * 1_000_000);
        }
        h
    }

    fn config() -> SloConfig {
        SloConfig::p99(Duration::from_millis(50))
            .with_interval(Duration::from_millis(100))
            .with_dwell(Duration::from_millis(200))
    }

    #[test]
    fn healthy_pipeline_stays_at_baseline() {
        let mut c = SloController::new(config());
        let mut cum = LatencyHistogram::new();
        for tick in 1..=10u64 {
            cum.merge(&hist_with(10, 20));
            assert_eq!(c.observe(tick * 100_000_000, &cum, 0), SloAction::Hold);
        }
        assert_eq!(c.level(), 0);
        assert_eq!(c.moves(), 0);
    }

    #[test]
    fn thin_windows_accumulate_instead_of_being_discarded() {
        // Delivering 1 frame per tick with min_window 4: a controller that
        // discards thin windows would never judge this pipeline at all.
        // Carried-over windows accumulate to 4 samples and trip.
        let mut c = SloController::new(config());
        let mut cum = LatencyHistogram::new();
        let mut now = 0u64;
        let mut stepped = false;
        for _ in 0..8 {
            now += 300_000_000; // > dwell each tick
            cum.merge(&hist_with(400, 1)); // way over the 50 ms target
            if let SloAction::StepDown { .. } = c.observe(now, &cum, 0) {
                stepped = true;
                break;
            }
        }
        assert!(stepped, "slow pipeline was never judged");
        assert!(c.last_window_count() >= c.config().min_window);
    }

    #[test]
    fn overload_walks_down_the_lattice_in_order() {
        let mut c = SloController::new(config());
        let mut cum = LatencyHistogram::new();
        let mut now = 0u64;
        let mut levels = Vec::new();
        for _ in 0..20 {
            now += 300_000_000; // > dwell each tick
            cum.merge(&hist_with(400, 20)); // way over the 50 ms target
            if let SloAction::StepDown { level } = c.observe(now, &cum, 0) {
                levels.push(level);
            }
        }
        // One rung at a time, in lattice order, down to the floor.
        assert_eq!(levels, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(c.level(), 6);
        let s = c.settings();
        assert_eq!(s.quality_shift, Some(6)); // deeper rung overrode shift 4
        assert_eq!(s.max_batch, Some(4));
        assert_eq!(s.sample_divisor, 4);
        assert_eq!(s.shed_one_in, 4);
        assert_eq!(s.admit_stride(), 16);
    }

    #[test]
    fn dwell_bounds_the_move_rate() {
        let mut c = SloController::new(config()); // dwell 200 ms
        let mut cum = LatencyHistogram::new();
        let mut moves = 0;
        // 40 ticks 100 ms apart, permanently overloaded: the dwell allows a
        // move at most every other tick.
        for tick in 1..=40u64 {
            cum.merge(&hist_with(400, 20));
            if c.observe(tick * 100_000_000, &cum, 0) != SloAction::Hold {
                moves += 1;
            }
        }
        assert_eq!(moves as u64, c.moves());
        assert!(moves <= 20, "dwell violated: {moves} moves in 4 s");
        assert!(moves >= 6, "never reached the lattice floor");
    }

    #[test]
    fn hysteresis_band_prevents_flapping_at_the_boundary() {
        // The log-bucket histogram resolves latency to factor-of-2 bands,
        // so the hysteresis band must span at least one bucket to be
        // meaningful: target 70 ms, trip > 70 ms, relax < 0.4×70 = 28 ms.
        // A 40 ms window reads as its bucket ceiling (~65.5 ms), which sits
        // inside the band.
        let mut cfg = config();
        cfg.slo.p99 = Duration::from_millis(70);
        cfg.relax_headroom = 0.4;
        let mut c = SloController::new(cfg);
        let mut cum = LatencyHistogram::new();
        let mut now = 0u64;
        // Push over the target once.
        now += 300_000_000;
        cum.merge(&hist_with(400, 20));
        assert_eq!(c.observe(now, &cum, 0), SloAction::StepDown { level: 1 });
        // Now sit under the target but inside the band: the controller must
        // hold, not step back up.
        for _ in 0..10 {
            now += 300_000_000;
            cum.merge(&hist_with(40, 20));
            assert_eq!(c.observe(now, &cum, 0), SloAction::Hold);
        }
        assert_eq!(c.level(), 1);
        // Real headroom (10 ms window reads ≈16 ms ≪ 28 ms) releases the
        // knob.
        now += 300_000_000;
        cum.merge(&hist_with(10, 20));
        assert_eq!(c.observe(now, &cum, 0), SloAction::StepUp { level: 0 });
        assert_eq!(c.flaps(), 1);
    }

    #[test]
    fn thin_windows_hold() {
        let mut c = SloController::new(config()); // min_window 4
        let mut cum = LatencyHistogram::new();
        cum.merge(&hist_with(400, 2)); // only 2 samples
        assert_eq!(c.observe(300_000_000, &cum, 0), SloAction::Hold);
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn queue_trip_fires_even_when_nothing_is_delivered() {
        let mut c = SloController::new(SloConfig {
            queue_trip: Some(8),
            ..config()
        });
        let cum = LatencyHistogram::new(); // no deliveries at all
        assert_eq!(
            c.observe(300_000_000, &cum, 16),
            SloAction::StepDown { level: 1 }
        );
        // The high-water mark is sticky; without *growth* it trips only once.
        assert_eq!(c.observe(600_000_000, &cum, 16), SloAction::Hold);
        assert_eq!(
            c.observe(900_000_000, &cum, 32),
            SloAction::StepDown { level: 2 }
        );
    }

    #[test]
    fn recovery_steps_back_to_baseline() {
        let mut c = SloController::new(config());
        let mut cum = LatencyHistogram::new();
        let mut now = 0u64;
        for _ in 0..4 {
            now += 300_000_000;
            cum.merge(&hist_with(400, 20));
            c.observe(now, &cum, 0);
        }
        assert_eq!(c.level(), 4);
        while c.level() > 0 {
            now += 300_000_000;
            cum.merge(&hist_with(5, 20));
            let level_before = c.level();
            assert_eq!(
                c.observe(now, &cum, 0),
                SloAction::StepUp {
                    level: level_before - 1
                }
            );
        }
        assert_eq!(c.settings(), KnobSettings::baseline());
    }

    #[test]
    fn validation_catches_inverted_bounds() {
        let mut cfg = config();
        assert!(cfg.validate().is_ok());
        cfg.slo.p50 = Some(Duration::from_millis(80)); // > p99 50 ms
        assert!(cfg.validate().unwrap_err().contains("inverted SLO bounds"));
        let mut cfg = config();
        cfg.relax_headroom = 1.5; // above trip_ratio
        assert!(cfg.validate().unwrap_err().contains("hysteresis"));
        let mut cfg = config();
        cfg.lattice = vec![Knob::CodecQuality { shift: 9 }];
        assert!(cfg.validate().is_err());
        let mut cfg = config();
        cfg.lattice = vec![Knob::Shed { keep_one_in: 0 }];
        assert!(cfg.validate().is_err());
        let mut cfg = config();
        cfg.slo.p99 = Duration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn quality_override_resolves() {
        let s = KnobSettings {
            quality_shift: Some(5),
            ..KnobSettings::baseline()
        };
        assert_eq!(s.quality_or(Quality::default()).shift(), 5);
        assert_eq!(
            KnobSettings::baseline().quality_or(Quality::default()),
            Quality::default()
        );
    }
}
