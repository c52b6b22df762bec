//! Heartbeat tracking and phi-accrual failure detection.
//!
//! Monte Cimone's engine previously learned of node crashes by oracle; in a
//! real cluster the only signal is the *absence* of telemetry. Each node
//! publishes a periodic heartbeat through the ExaMon broker, and a
//! [`PhiAccrualDetector`] (Hayashibara et al., "The φ accrual failure
//! detector", SRDS 2004 — the detector used by Akka and Cassandra) converts
//! the time since the last arrival into a continuous suspicion level:
//!
//! ```text
//! phi(t_now) = -log10( P_later(t_now - t_last) )
//! ```
//!
//! where `P_later` is the probability that a heartbeat arrives later than
//! the elapsed silence, under a normal distribution fitted to the observed
//! inter-arrival window. `phi = 8` means the detector would be wrong about
//! one suspicion in 10⁸ — crossing a configured threshold trades detection
//! latency against false positives, and broker message loss or partitions
//! (which starve the stream) can push phi over the line for a healthy node.

use std::collections::{BTreeMap, VecDeque};

use cimone_soc::units::{SimDuration, SimTime};

use crate::broker::{Broker, Subscription};
use crate::topic::{Topic, TopicFilter};

/// Default suspicion threshold (Akka's default is 8.0: a false positive
/// about once per 10⁸ evaluations under the fitted distribution).
pub const DEFAULT_PHI_THRESHOLD: f64 = 8.0;

/// Default bound on the inter-arrival window the distribution is fitted to.
pub const DEFAULT_WINDOW: usize = 128;

/// Inter-arrival intervals required before the detector reports a nonzero
/// phi (guards against suspecting nodes during start-up).
pub const MIN_SAMPLES: usize = 3;

/// Upper clamp on reported phi (beyond this the distinction is meaningless
/// and the arithmetic underflows).
pub const PHI_CEILING: f64 = 100.0;

/// Complementary error function with fractional error below `1.2e-7`
/// everywhere (Numerical Recipes' `erfcc` Chebyshev fit). The error is
/// *relative*, so deep-tail probabilities — exactly what phi measures —
/// stay meaningful.
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Per-node phi-accrual state: a sliding window of heartbeat inter-arrival
/// times and the time of the last arrival.
///
/// # Examples
///
/// ```
/// use cimone_monitor::heartbeat::PhiAccrualDetector;
/// use cimone_soc::units::SimTime;
///
/// let mut det = PhiAccrualDetector::new(128);
/// for s in (0..50).step_by(5) {
///     det.record(SimTime::from_secs(s));
/// }
/// // On cadence: barely suspicious. After 20 s of silence: very.
/// assert!(det.phi(SimTime::from_secs(50)) < 1.0);
/// assert!(det.phi(SimTime::from_secs(65)) > 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct PhiAccrualDetector {
    window: usize,
    intervals: VecDeque<f64>,
    /// The window's mean, refit by `record` whenever the window changes.
    mean: f64,
    /// The window's standard deviation with `phi`'s floors applied,
    /// refit alongside `mean`.
    sigma: f64,
    last_arrival: Option<SimTime>,
    /// How much slower than nominal this node is *expected* to beat (1.0 =
    /// nominal). A DVFS-capped node's health daemon runs at the capped
    /// clock, so its silence must be judged against the scaled cadence;
    /// without this, graceful degradation reads as a crash.
    expected_scale: f64,
    /// When a heartbeat *actually* arrived last (unlike `last_arrival`,
    /// never moved by [`PhiAccrualDetector::rebaseline`]) — the freshness
    /// signal a partition-aware control plane compares peers against.
    last_heard: Option<SimTime>,
    /// Set by a rebaseline: the next recorded interval would span the
    /// deferred silence, not a real cadence gap, so it is dropped instead
    /// of polluting the fitted window.
    skip_next_sample: bool,
}

impl PhiAccrualDetector {
    /// A detector fitting at most `window` recent inter-arrival intervals.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` (a distribution needs at least two samples).
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "phi window needs at least two intervals");
        PhiAccrualDetector {
            window,
            intervals: VecDeque::new(),
            mean: 0.0,
            sigma: 0.0,
            last_arrival: None,
            expected_scale: 1.0,
            last_heard: None,
            skip_next_sample: false,
        }
    }

    /// Declares that the node is expected to beat `scale`× slower than
    /// nominal (DVFS cap or throttle; 1.0 restores nominal). Both recorded
    /// intervals and elapsed silence are normalised by the scale, so the
    /// fitted distribution stays on the nominal-cadence axis and a capped
    /// node accrues no spurious suspicion.
    ///
    /// # Panics
    ///
    /// Panics unless the scale is finite and positive.
    pub fn set_expected_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "expected scale must be finite and positive"
        );
        self.expected_scale = scale;
    }

    /// The declared cadence scale (1.0 = nominal).
    pub fn expected_scale(&self) -> f64 {
        self.expected_scale
    }

    /// Records a heartbeat arrival. Out-of-order or duplicate timestamps
    /// (possible after broker replays) are ignored.
    pub fn record(&mut self, at: SimTime) {
        if let Some(last) = self.last_arrival {
            if at <= last {
                return;
            }
            if self.skip_next_sample {
                // The gap spans a deferred-silence rebaseline, not a real
                // cadence interval: advance the clock, drop the sample.
                self.skip_next_sample = false;
            } else {
                if self.intervals.len() == self.window {
                    self.intervals.pop_front();
                }
                self.intervals
                    .push_back(at.saturating_since(last).as_secs_f64() / self.expected_scale);
                self.refit();
            }
        }
        self.last_arrival = Some(at);
        self.last_heard = Some(at);
    }

    /// Refits the cached distribution to the window: the two-pass mean
    /// and variance walk, so `phi` sees the same bits it would compute
    /// from the window itself.
    fn refit(&mut self) {
        let len = self.intervals.len() as f64;
        let mean = self.intervals.iter().sum::<f64>() / len;
        let var = self
            .intervals
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / len;
        self.mean = mean;
        self.sigma = var.sqrt().max(0.25 * mean).max(1e-6);
    }

    /// Moves the silence reference to `at` without recording an arrival:
    /// phi re-accrues from `at`, the fitted window is untouched, and the
    /// next real arrival's interval (which would span the deferred
    /// silence) is dropped. This is how a partition-aware control plane
    /// *defers* suspicion across a correlated outage instead of letting
    /// the whole outage count as per-node silence. Backwards moves are
    /// ignored.
    pub fn rebaseline(&mut self, at: SimTime) {
        if self.last_arrival.is_none_or(|last| at > last) {
            self.last_arrival = Some(at);
            self.skip_next_sample = true;
        }
    }

    /// When the last heartbeat arrived (or the silence reference was last
    /// moved by [`PhiAccrualDetector::rebaseline`]), if ever.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.last_arrival
    }

    /// When a heartbeat last *actually* arrived — never moved by
    /// [`PhiAccrualDetector::rebaseline`].
    pub fn last_heard(&self) -> Option<SimTime> {
        self.last_heard
    }

    /// Heartbeat arrivals observed (intervals + 1), zero if none.
    pub fn samples(&self) -> usize {
        match self.last_arrival {
            Some(_) => self.intervals.len() + 1,
            None => 0,
        }
    }

    /// Mean of the windowed inter-arrival intervals, seconds.
    pub fn mean_interval(&self) -> Option<f64> {
        (!self.intervals.is_empty()).then_some(self.mean)
    }

    /// The suspicion level at `now`: `-log10 P(heartbeat arrives later)`.
    ///
    /// Returns `0.0` until [`MIN_SAMPLES`] intervals are observed. The
    /// fitted standard deviation is floored at a quarter of the mean
    /// interval so a metronomic stream (σ → 0) does not make a single
    /// lost heartbeat look like a crash: with the floor, one missed beat
    /// reaches phi ≈ 4.5 and two missed beats ≈ 15, bracketing the
    /// default threshold of 8. The fit is cached per arrival, so a query
    /// costs O(1) whatever the window size.
    pub fn phi(&self, now: SimTime) -> f64 {
        let Some(last) = self.last_arrival else {
            return 0.0;
        };
        if self.intervals.len() < MIN_SAMPLES {
            return 0.0;
        }
        let elapsed = now.saturating_since(last).as_secs_f64() / self.expected_scale;
        let z = (elapsed - self.mean) / self.sigma;
        // P(X > elapsed) for X ~ N(mean, sigma²).
        let p_later = 0.5 * erfc(z / std::f64::consts::SQRT_2);
        if p_later <= 0.0 {
            return PHI_CEILING;
        }
        (-p_later.log10()).clamp(0.0, PHI_CEILING)
    }

    /// The first grid tick at which phi reaches `threshold`, assuming no
    /// further arrivals: scans the ticks `from + k·step` for `k ≥ 0` up to
    /// and including the last one ≤ `to`, and returns the smallest whose
    /// phi is ≥ `threshold` (`None` if none crosses within the horizon).
    ///
    /// With the detector state frozen, `phi` is monotone non-decreasing in
    /// `now` (longer silence is never less suspicious), so a binary search
    /// over the grid finds the exact tick a fixed-dt loop would flag —
    /// this is what lets a due-time clock treat suspicion as an event
    /// instead of re-evaluating phi every tick.
    pub fn first_crossing(
        &self,
        threshold: f64,
        from: SimTime,
        to: SimTime,
        step: SimDuration,
    ) -> Option<SimTime> {
        if step.is_zero() || to < from {
            return None;
        }
        if self.phi(from) >= threshold {
            return Some(from);
        }
        let span = to.saturating_since(from).as_micros();
        let k_max = span / step.as_micros();
        if k_max == 0 || self.phi(from + step * k_max) < threshold {
            return None;
        }
        // Invariant: phi(from + step·lo) < threshold ≤ phi(from + step·hi).
        let (mut lo, mut hi) = (0u64, k_max);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.phi(from + step * mid) >= threshold {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(from + step * hi)
    }
}

impl Default for PhiAccrualDetector {
    fn default() -> Self {
        PhiAccrualDetector::new(DEFAULT_WINDOW)
    }
}

/// Drains heartbeat topics from the broker and maintains one
/// [`PhiAccrualDetector`] per node.
///
/// The node name is taken from the topic segment following `node` (the
/// ExaMon schema of Table II); topics without one are keyed by their full
/// path. Detection is purely message-driven — the monitor has no oracle
/// knowledge of node health, so lost heartbeats (broker loss, partitions,
/// crashes) are indistinguishable until phi accrues.
///
/// Detectors live in numbered slots. [`HeartbeatMonitor::reserve`] hands
/// out a node's slot up front, so a caller that reserves its hosts in
/// node order addresses detectors by node index (`*_at` accessors) and
/// never touches a hostname on the hot path; the pump resolves each
/// topic to its slot once and caches the answer by
/// [`TopicId`](crate::interner::TopicId).
///
/// # Examples
///
/// ```
/// use cimone_monitor::broker::Broker;
/// use cimone_monitor::heartbeat::HeartbeatMonitor;
/// use cimone_monitor::payload::Payload;
/// use cimone_soc::units::SimTime;
///
/// let broker = Broker::new();
/// let mut hb = HeartbeatMonitor::attach(&broker, "node/+/heartbeat".parse()?, 8.0);
/// let topic = "node/mc-node-01/heartbeat".parse()?;
/// for s in (0..60).step_by(5) {
///     broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(s)));
/// }
/// hb.pump();
/// assert!(hb.suspects(SimTime::from_secs(60)).is_empty());
/// assert_eq!(hb.suspects(SimTime::from_secs(120)), vec!["mc-node-01".to_string()]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct HeartbeatMonitor {
    subscription: Subscription,
    /// One detector per reserved node; `None` until the node is heard
    /// from or given a cadence scale.
    slots: Vec<Option<PhiAccrualDetector>>,
    /// Node name → slot, for every reserved name.
    by_name: BTreeMap<String, usize>,
    /// Topic → slot, filled on each topic's first delivery.
    topic_slots: Vec<Option<usize>>,
    threshold: f64,
    window: usize,
}

impl HeartbeatMonitor {
    /// Subscribes `filter` on `broker` with suspicion threshold
    /// `threshold` (see [`DEFAULT_PHI_THRESHOLD`]).
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not positive.
    pub fn attach(broker: &Broker, filter: TopicFilter, threshold: f64) -> Self {
        assert!(threshold > 0.0, "phi threshold must be positive");
        HeartbeatMonitor {
            subscription: broker.subscribe(filter),
            slots: Vec::new(),
            by_name: BTreeMap::new(),
            topic_slots: Vec::new(),
            threshold,
            window: DEFAULT_WINDOW,
        }
    }

    /// The configured suspicion threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The slot of `node`, reserving the next free one on first sight.
    /// Reserving creates no detector: the slot stays empty (and `node`
    /// unlisted by [`HeartbeatMonitor::nodes`]) until the node is heard
    /// from or given a cadence scale.
    pub fn reserve(&mut self, node: &str) -> usize {
        if let Some(&slot) = self.by_name.get(node) {
            return slot;
        }
        let slot = self.slots.len();
        self.slots.push(None);
        self.by_name.insert(node.to_string(), slot);
        slot
    }

    /// The detector in `slot`, created empty if it has none yet.
    fn detector_mut(&mut self, slot: usize) -> &mut PhiAccrualDetector {
        let window = self.window;
        self.slots[slot].get_or_insert_with(|| PhiAccrualDetector::new(window))
    }

    /// The slot heartbeats on `topic` land in, resolved from its node
    /// segment on the topic's first delivery and cached by id after.
    fn topic_slot(&mut self, topic: Topic) -> usize {
        let id = topic.id().index();
        if self.topic_slots.len() <= id {
            self.topic_slots.resize(id + 1, None);
        }
        if let Some(slot) = self.topic_slots[id] {
            return slot;
        }
        let slot = match node_segment(topic.segments()) {
            Some(node) => self.reserve(node),
            None => self.reserve(topic.as_str()),
        };
        self.topic_slots[id] = Some(slot);
        slot
    }

    /// Drains queued heartbeat messages into the per-node detectors;
    /// returns how many were ingested.
    pub fn pump(&mut self) -> usize {
        let mut n = 0;
        while let Some(msg) = self.subscription.try_recv() {
            let slot = self.topic_slot(msg.topic);
            self.detector_mut(slot).record(msg.payload.timestamp);
            n += 1;
        }
        n
    }

    /// Records a heartbeat for `node` directly (the pump does the same by
    /// slot; tests may call this).
    pub fn observe(&mut self, node: &str, at: SimTime) {
        let slot = self.reserve(node);
        self.detector_mut(slot).record(at);
    }

    /// The suspicion level for `node` at `now` (`0.0` for unknown nodes).
    pub fn phi(&self, node: &str, now: SimTime) -> f64 {
        self.detector(node).map_or(0.0, |d| d.phi(now))
    }

    /// The suspicion level of the node in `slot` at `now` (`0.0` for an
    /// empty slot).
    pub fn phi_at(&self, slot: usize, now: SimTime) -> f64 {
        self.detector_at(slot).map_or(0.0, |d| d.phi(now))
    }

    /// Whether `node`'s phi exceeds the threshold at `now`.
    pub fn is_suspect(&self, node: &str, now: SimTime) -> bool {
        self.phi(node, now) >= self.threshold
    }

    /// All nodes whose phi exceeds the threshold at `now`, sorted.
    pub fn suspects(&self, now: SimTime) -> Vec<String> {
        self.by_name
            .iter()
            .filter(|&(_, &slot)| self.phi_at(slot, now) >= self.threshold)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// All nodes with a detector — heard from, or given a cadence scale
    /// by [`HeartbeatMonitor::set_expected_scale`] — sorted.
    pub fn nodes(&self) -> Vec<String> {
        self.by_name
            .iter()
            .filter(|&(_, &slot)| self.slots[slot].is_some())
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// The detector for `node`, if it has one.
    pub fn detector(&self, node: &str) -> Option<&PhiAccrualDetector> {
        self.by_name
            .get(node)
            .and_then(|&slot| self.detector_at(slot))
    }

    /// The detector in `slot`, if it has one.
    pub fn detector_at(&self, slot: usize) -> Option<&PhiAccrualDetector> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Declares `node`'s expected heartbeat cadence scale (see
    /// [`PhiAccrualDetector::set_expected_scale`]). Creates the detector
    /// if the node has not been heard from yet, so the scale applies from
    /// its first arrival.
    pub fn set_expected_scale(&mut self, node: &str, scale: f64) {
        let slot = self.reserve(node);
        self.set_expected_scale_at(slot, scale);
    }

    /// [`HeartbeatMonitor::set_expected_scale`] by slot, without
    /// allocating. Returns whether the scale changed (a new detector
    /// starts at 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never handed out by
    /// [`HeartbeatMonitor::reserve`].
    pub fn set_expected_scale_at(&mut self, slot: usize, scale: f64) -> bool {
        let det = self.detector_mut(slot);
        let changed = det.expected_scale() != scale;
        det.set_expected_scale(scale);
        changed
    }

    /// Moves `node`'s silence reference to `at` without recording an
    /// arrival (see [`PhiAccrualDetector::rebaseline`]). A no-op for nodes
    /// never heard from — they carry no suspicion to defer.
    pub fn rebaseline(&mut self, node: &str, at: SimTime) {
        if let Some(&slot) = self.by_name.get(node) {
            self.rebaseline_at(slot, at);
        }
    }

    /// [`HeartbeatMonitor::rebaseline`] by slot (a no-op for an empty
    /// slot).
    pub fn rebaseline_at(&mut self, slot: usize, at: SimTime) {
        if let Some(det) = self.slots.get_mut(slot).and_then(Option::as_mut) {
            det.rebaseline(at);
        }
    }

    /// When `node` last *actually* heartbeat, if ever (see
    /// [`PhiAccrualDetector::last_heard`]).
    pub fn last_heard(&self, node: &str) -> Option<SimTime> {
        self.detector(node).and_then(|d| d.last_heard())
    }

    /// The first grid tick in `[from, to]` (stepping by `step`) at which
    /// `node` would cross the suspicion threshold, assuming no further
    /// heartbeats arrive; `None` for unknown nodes or when the crossing
    /// lies beyond `to`. See [`PhiAccrualDetector::first_crossing`].
    pub fn next_suspicion_due(
        &self,
        node: &str,
        from: SimTime,
        to: SimTime,
        step: SimDuration,
    ) -> Option<SimTime> {
        self.detector(node)
            .and_then(|d| d.first_crossing(self.threshold, from, to, step))
    }

    /// [`HeartbeatMonitor::next_suspicion_due`] by slot.
    pub fn next_suspicion_due_at(
        &self,
        slot: usize,
        from: SimTime,
        to: SimTime,
        step: SimDuration,
    ) -> Option<SimTime> {
        self.detector_at(slot)
            .and_then(|d| d.first_crossing(self.threshold, from, to, step))
    }
}

/// Extracts the node name from an ExaMon topic's segments: the segment
/// after `node`, or `None` when the schema marker is absent (callers fall
/// back to the whole topic string).
fn node_segment(segments: &[String]) -> Option<&str> {
    let mut iter = segments.iter();
    while let Some(seg) = iter.next() {
        if seg == "node" {
            if let Some(name) = iter.next() {
                return Some(name.as_str());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    fn steady(det: &mut PhiAccrualDetector, beats: u64, period: u64) {
        for i in 0..beats {
            det.record(SimTime::from_secs(i * period));
        }
    }

    #[test]
    fn erfc_matches_known_values() {
        // erfc(0) = 1, erfc(1) ≈ 0.15729920705, erfc(-1) ≈ 1.8427007929.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_207_05).abs() < 1e-7);
        assert!((erfc(-1.0) - 1.842_700_792_9).abs() < 1e-7);
        // Tail stays relatively accurate: erfc(4) ≈ 1.541726e-8.
        assert!((erfc(4.0) / 1.541_725_8e-8 - 1.0).abs() < 1e-4);
    }

    #[test]
    fn phi_is_zero_during_warmup() {
        let mut det = PhiAccrualDetector::new(16);
        det.record(SimTime::ZERO);
        det.record(SimTime::from_secs(5));
        det.record(SimTime::from_secs(10));
        // Only two intervals: below MIN_SAMPLES.
        assert_eq!(det.phi(SimTime::from_secs(1000)), 0.0);
    }

    #[test]
    fn one_missed_beat_stays_below_the_default_threshold() {
        let mut det = PhiAccrualDetector::default();
        steady(&mut det, 20, 5);
        let last = SimTime::from_secs(19 * 5);
        let one_missed = det.phi(last + cimone_soc::units::SimDuration::from_secs(10));
        assert!(one_missed < DEFAULT_PHI_THRESHOLD, "phi {one_missed}");
        let two_missed = det.phi(last + cimone_soc::units::SimDuration::from_secs(15));
        assert!(two_missed > DEFAULT_PHI_THRESHOLD, "phi {two_missed}");
    }

    #[test]
    fn phi_grows_monotonically_with_silence() {
        let mut det = PhiAccrualDetector::default();
        steady(&mut det, 10, 5);
        let last = SimTime::from_secs(9 * 5);
        let mut prev = 0.0;
        for extra in 1..30u64 {
            let phi = det.phi(last + cimone_soc::units::SimDuration::from_secs(extra));
            assert!(phi >= prev, "phi not monotone at +{extra}s");
            prev = phi;
        }
        assert!(prev <= PHI_CEILING);
    }

    #[test]
    fn first_crossing_matches_the_tick_by_tick_scan() {
        let step = cimone_soc::units::SimDuration::from_millis(500);
        for period in [3u64, 5, 8] {
            let mut det = PhiAccrualDetector::default();
            steady(&mut det, 12, period);
            let from = SimTime::from_secs(11 * period);
            let to = from + cimone_soc::units::SimDuration::from_secs(20 * period);
            // Reference: walk every grid tick like the fixed-dt loop does.
            let mut expected = None;
            let mut t = from;
            while t <= to {
                if det.phi(t) >= DEFAULT_PHI_THRESHOLD {
                    expected = Some(t);
                    break;
                }
                t += step;
            }
            assert_eq!(
                det.first_crossing(DEFAULT_PHI_THRESHOLD, from, to, step),
                expected,
                "period {period}s"
            );
        }
        // A horizon that ends before the crossing reports none.
        let mut det = PhiAccrualDetector::default();
        steady(&mut det, 12, 5);
        let from = SimTime::from_secs(55);
        let near = from + cimone_soc::units::SimDuration::from_secs(2);
        assert_eq!(
            det.first_crossing(DEFAULT_PHI_THRESHOLD, from, near, step),
            None
        );
    }

    #[test]
    fn expected_scale_suppresses_false_suspicion_of_slow_nodes() {
        use cimone_soc::units::SimDuration;
        // Fit on a nominal 5 s cadence, then the node is capped to a third
        // of its clock: beats arrive every 15 s.
        let mut capped = PhiAccrualDetector::default();
        let mut naive = PhiAccrualDetector::default();
        steady(&mut capped, 12, 5);
        steady(&mut naive, 12, 5);
        let last = SimTime::from_secs(11 * 5);
        capped.set_expected_scale(3.0);
        // 15 s of silence: exactly one scaled beat late — not suspicious
        // when the scale is declared, far over threshold when it is not.
        let at = last + SimDuration::from_secs(15);
        assert!(capped.phi(at) < 1.0, "phi {}", capped.phi(at));
        assert!(naive.phi(at) > DEFAULT_PHI_THRESHOLD);
        // Scaled beats keep the fitted window on the nominal axis...
        capped.record(at);
        assert!((capped.mean_interval().unwrap() - 5.0).abs() < 0.1);
        // ...and a *real* crash still accrues suspicion on the scaled
        // cadence: four straight missed (scaled) beats cross the line.
        assert!(capped.phi(at + SimDuration::from_secs(60)) > DEFAULT_PHI_THRESHOLD);
    }

    #[test]
    fn monitor_applies_scales_even_before_first_arrival() {
        let broker = Broker::new();
        let mut hb = HeartbeatMonitor::attach(&broker, "#".parse().unwrap(), DEFAULT_PHI_THRESHOLD);
        hb.set_expected_scale("mc-node-05", 3.0);
        assert_eq!(
            hb.detector("mc-node-05").unwrap().expected_scale(),
            3.0,
            "scale must stick on the pre-created detector"
        );
        hb.observe("mc-node-05", SimTime::from_secs(0));
        hb.set_expected_scale("mc-node-05", 1.0);
        assert_eq!(hb.detector("mc-node-05").unwrap().expected_scale(), 1.0);
    }

    #[test]
    fn rebaseline_defers_suspicion_without_polluting_the_window() {
        use cimone_soc::units::SimDuration;
        let mut det = PhiAccrualDetector::default();
        steady(&mut det, 12, 5);
        let last = SimTime::from_secs(11 * 5);
        let mean_before = det.mean_interval().unwrap();
        // 40 s of silence would be far over threshold...
        assert!(det.phi(last + SimDuration::from_secs(40)) > DEFAULT_PHI_THRESHOLD);
        // ...but a rebaseline at +30 s restarts the silence clock there.
        det.rebaseline(last + SimDuration::from_secs(30));
        assert!(det.phi(last + SimDuration::from_secs(40)) < DEFAULT_PHI_THRESHOLD);
        // The true-arrival clock is not fooled.
        assert_eq!(det.last_heard(), Some(last));
        assert_eq!(det.last_arrival(), Some(last + SimDuration::from_secs(30)));
        // The first real arrival after the rebaseline updates the clocks
        // but drops the outage-spanning interval from the fitted window.
        let resumed = last + SimDuration::from_secs(60);
        det.record(resumed);
        assert_eq!(det.last_heard(), Some(resumed));
        assert!((det.mean_interval().unwrap() - mean_before).abs() < 1e-12);
        // The next interval after that is a real one and is recorded.
        det.record(resumed + SimDuration::from_secs(5));
        assert!((det.mean_interval().unwrap() - mean_before).abs() < 0.1);
        // Backwards rebaselines are ignored.
        let reference = det.last_arrival();
        det.rebaseline(SimTime::from_secs(1));
        assert_eq!(det.last_arrival(), reference);
    }

    #[test]
    fn monitor_rebaseline_only_touches_known_nodes() {
        let broker = Broker::new();
        let mut hb = HeartbeatMonitor::attach(&broker, "#".parse().unwrap(), DEFAULT_PHI_THRESHOLD);
        hb.rebaseline("ghost", SimTime::from_secs(10));
        assert!(hb.detector("ghost").is_none(), "no detector conjured");
        hb.observe("mc-node-01", SimTime::from_secs(0));
        hb.rebaseline("mc-node-01", SimTime::from_secs(10));
        assert_eq!(
            hb.detector("mc-node-01").unwrap().last_arrival(),
            Some(SimTime::from_secs(10))
        );
        assert_eq!(hb.last_heard("mc-node-01"), Some(SimTime::ZERO));
    }

    #[test]
    fn duplicate_and_stale_arrivals_are_ignored() {
        let mut det = PhiAccrualDetector::new(8);
        steady(&mut det, 6, 5);
        let before = det.samples();
        det.record(SimTime::from_secs(10)); // stale
        det.record(SimTime::from_secs(25)); // duplicate of the last
        assert_eq!(det.samples(), before);
    }

    #[test]
    fn monitor_keys_detectors_by_node_segment() {
        let broker = Broker::new();
        let mut hb = HeartbeatMonitor::attach(
            &broker,
            "org/+/node/+/heartbeat".parse().unwrap(),
            DEFAULT_PHI_THRESHOLD,
        );
        let t1 = "org/x/node/mc-node-03/heartbeat".parse().unwrap();
        for s in (0..40).step_by(4) {
            broker.publish(&t1, Payload::new(1.0, SimTime::from_secs(s)));
        }
        assert_eq!(hb.pump(), 10);
        assert_eq!(hb.nodes(), vec!["mc-node-03".to_string()]);
        assert!(hb.phi("mc-node-03", SimTime::from_secs(40)) < 1.0);
        assert_eq!(hb.phi("mc-node-99", SimTime::from_secs(40)), 0.0);
    }

    #[test]
    fn starved_stream_becomes_suspect_and_recovers() {
        let broker = Broker::new();
        let mut hb = HeartbeatMonitor::attach(&broker, "#".parse().unwrap(), DEFAULT_PHI_THRESHOLD);
        let topic = "node/mc-node-01/hb".parse().unwrap();
        for s in (0..50).step_by(5) {
            broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(s)));
        }
        hb.pump();
        assert!(!hb.is_suspect("mc-node-01", SimTime::from_secs(50)));
        assert!(hb.is_suspect("mc-node-01", SimTime::from_secs(80)));
        // The stream resumes: suspicion clears on the next arrival.
        broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(85)));
        hb.pump();
        assert!(!hb.is_suspect("mc-node-01", SimTime::from_secs(86)));
    }

    #[test]
    fn reserved_slots_stay_empty_until_heard_or_scaled() {
        let broker = Broker::new();
        let mut hb = HeartbeatMonitor::attach(&broker, "#".parse().unwrap(), DEFAULT_PHI_THRESHOLD);
        assert_eq!(hb.reserve("mc-node-01"), 0);
        assert_eq!(hb.reserve("mc-node-02"), 1);
        assert_eq!(
            hb.reserve("mc-node-01"),
            0,
            "reserving twice keeps the slot"
        );
        // Reserved but silent: no detector, unlisted, rebaseline a no-op.
        hb.rebaseline_at(0, SimTime::from_secs(10));
        hb.rebaseline("mc-node-02", SimTime::from_secs(10));
        assert!(hb.detector_at(0).is_none() && hb.detector("mc-node-02").is_none());
        assert!(hb.nodes().is_empty());
        // A scale creates the detector; a first scale of 1.0 is no change.
        assert!(!hb.set_expected_scale_at(1, 1.0));
        assert!(hb.set_expected_scale_at(1, 2.0));
        assert!(!hb.set_expected_scale_at(1, 2.0));
        assert_eq!(hb.nodes(), vec!["mc-node-02".to_string()]);
        // The pump lands arrivals in the reserved slot.
        let topic = "node/mc-node-01/hb".parse().unwrap();
        for s in (0..50).step_by(5) {
            broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(s)));
        }
        assert_eq!(hb.pump(), 10);
        assert_eq!(hb.detector_at(0).map(PhiAccrualDetector::samples), Some(10));
        let late = SimTime::from_secs(80);
        assert_eq!(hb.phi_at(0, late), hb.phi("mc-node-01", late));
        let step = cimone_soc::units::SimDuration::from_secs(1);
        let to = SimTime::from_secs(200);
        assert_eq!(
            hb.next_suspicion_due_at(0, late, to, step),
            hb.next_suspicion_due("mc-node-01", late, to, step)
        );
        assert_eq!(
            hb.nodes(),
            vec!["mc-node-01".to_string(), "mc-node-02".to_string()]
        );
    }

    #[test]
    fn node_segment_handles_schema_and_fallback() {
        let segs = |s: &str| -> Vec<String> { s.split('/').map(str::to_string).collect() };
        assert_eq!(
            node_segment(&segs("a/b/node/mc-node-02/c")),
            Some("mc-node-02")
        );
        assert_eq!(node_segment(&segs("no/marker/here")), None);
        assert_eq!(node_segment(&segs("ends/with/node")), None);
    }
}
