//! The cached window fit against the uncached reference detector: for
//! any sequence of arrivals, rebaselines and cadence scales, `phi`,
//! `mean_interval` and `first_crossing` agree bit for bit.

use proptest::prelude::*;

use cimone_monitor::heartbeat::{PhiAccrualDetector, DEFAULT_PHI_THRESHOLD, DEFAULT_WINDOW};
use cimone_soc::units::{SimDuration, SimTime};

#[path = "support/reference_phi.rs"]
mod reference_phi;

use reference_phi::ReferencePhi;

/// One operation on both detectors. Times are offsets in milliseconds
/// from the running clock; a zero or negative step replays a stale or
/// duplicate arrival.
#[derive(Debug, Clone)]
enum Op {
    Record { step_ms: i64 },
    Rebaseline { step_ms: i64 },
    Scale { scale: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let scales = vec![1.0, 1.25, 1.5, 2.0, 3.0, 4.0 / 3.0];
    (
        0u8..10,
        -2_000i64..12_000,
        -2_000i64..40_000,
        prop::sample::select(scales),
    )
        .prop_map(|(kind, beat_ms, silence_ms, scale)| match kind {
            0 => Op::Rebaseline {
                step_ms: silence_ms,
            },
            1 => Op::Scale { scale },
            _ => Op::Record { step_ms: beat_ms },
        })
}

/// Small windows that wrap within a few arrivals, and the default one.
fn window_strategy() -> impl Strategy<Value = usize> {
    prop::sample::select((2..=16).chain([DEFAULT_WINDOW]).collect())
}

/// Compares the two detectors at `now` and over a crossing horizon.
fn assert_agree(
    cached: &PhiAccrualDetector,
    reference: &ReferencePhi,
    now: SimTime,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        cached.mean_interval().map(f64::to_bits),
        reference.mean_interval().map(f64::to_bits)
    );
    for probe_ms in [0u64, 1_000, 4_999, 7_500, 15_000, 60_000] {
        let t = now + SimDuration::from_millis(probe_ms);
        prop_assert_eq!(
            cached.phi(t).to_bits(),
            reference.phi(t).to_bits(),
            "phi at {:?}",
            t
        );
    }
    for step_ms in [500u64, 1_000, 2_000] {
        let step = SimDuration::from_millis(step_ms);
        let to = now + SimDuration::from_secs(120);
        prop_assert_eq!(
            cached.first_crossing(DEFAULT_PHI_THRESHOLD, now, to, step),
            reference.first_crossing(DEFAULT_PHI_THRESHOLD, now, to, step),
            "crossing from {:?} by {:?}",
            now,
            step
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_fit_matches_the_two_pass_walk(
        window in window_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut cached = PhiAccrualDetector::new(window);
        let mut reference = ReferencePhi::new(window);
        let mut clock_ms: i64 = 0;
        for op in &ops {
            match *op {
                Op::Record { step_ms } => {
                    let at = SimTime::from_millis((clock_ms + step_ms).max(0) as u64);
                    cached.record(at);
                    reference.record(at);
                    clock_ms = clock_ms.max(clock_ms + step_ms);
                }
                Op::Rebaseline { step_ms } => {
                    let at = SimTime::from_millis((clock_ms + step_ms).max(0) as u64);
                    cached.rebaseline(at);
                    reference.rebaseline(at);
                    clock_ms = clock_ms.max(clock_ms + step_ms);
                }
                Op::Scale { scale } => {
                    cached.set_expected_scale(scale);
                    reference.set_expected_scale(scale);
                }
            }
            assert_agree(&cached, &reference, SimTime::from_millis(clock_ms as u64))?;
        }
    }
}

/// The default window wraps many times over without drifting from the
/// walk: the cache is refit from the window, never updated in place.
#[test]
fn default_window_wraps_without_drift() {
    let mut cached = PhiAccrualDetector::default();
    let mut reference = ReferencePhi::new(DEFAULT_WINDOW);
    let mut t = SimTime::ZERO;
    for i in 0..(4 * DEFAULT_WINDOW as u64) {
        // A jittered 5 s cadence: 4.3 s to 5.7 s.
        t += SimDuration::from_millis(4_300 + (i * 7_919) % 1_400);
        cached.record(t);
        reference.record(t);
        assert_agree(&cached, &reference, t).expect("cached fit diverged from the walk");
    }
}
