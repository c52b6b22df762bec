//! The uncached reference phi-accrual detector: every query re-walks the
//! inter-arrival window, two passes for the mean and the variance, the way
//! the detector computed phi before it cached its fit.
//!
//! It shares no code with the crate's detector, so it is the independent
//! oracle for the cached fit's bit-identity tests. Arrival handling
//! (stale and duplicate drops, the post-rebaseline skipped sample, the
//! window bound, scale normalisation) follows the crate's semantics.

use std::collections::VecDeque;

use cimone_soc::units::{SimDuration, SimTime};

/// Intervals required before phi is nonzero.
const MIN_SAMPLES: usize = 3;

/// Upper clamp on phi.
const PHI_CEILING: f64 = 100.0;

/// Numerical Recipes' `erfcc` Chebyshev fit, term for term.
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

/// A detector that keeps only its window and refits on every query.
#[derive(Debug, Clone)]
pub struct ReferencePhi {
    window: usize,
    intervals: VecDeque<f64>,
    last_arrival: Option<SimTime>,
    expected_scale: f64,
    skip_next_sample: bool,
}

impl ReferencePhi {
    /// An empty detector bounded to `window` intervals.
    pub fn new(window: usize) -> Self {
        ReferencePhi {
            window,
            intervals: VecDeque::new(),
            last_arrival: None,
            expected_scale: 1.0,
            skip_next_sample: false,
        }
    }

    /// Sets the expected cadence scale.
    pub fn set_expected_scale(&mut self, scale: f64) {
        self.expected_scale = scale;
    }

    /// Records an arrival.
    pub fn record(&mut self, at: SimTime) {
        if let Some(last) = self.last_arrival {
            if at <= last {
                return;
            }
            if self.skip_next_sample {
                self.skip_next_sample = false;
            } else {
                if self.intervals.len() == self.window {
                    self.intervals.pop_front();
                }
                self.intervals
                    .push_back(at.saturating_since(last).as_secs_f64() / self.expected_scale);
            }
        }
        self.last_arrival = Some(at);
    }

    /// Moves the silence reference forward to `at`.
    pub fn rebaseline(&mut self, at: SimTime) {
        if self.last_arrival.is_none_or(|last| at > last) {
            self.last_arrival = Some(at);
            self.skip_next_sample = true;
        }
    }

    /// The window's mean, walked afresh.
    pub fn mean_interval(&self) -> Option<f64> {
        if self.intervals.is_empty() {
            return None;
        }
        Some(self.intervals.iter().sum::<f64>() / self.intervals.len() as f64)
    }

    /// Phi at `now`, from a fresh two-pass fit of the window.
    pub fn phi(&self, now: SimTime) -> f64 {
        let Some(last) = self.last_arrival else {
            return 0.0;
        };
        if self.intervals.len() < MIN_SAMPLES {
            return 0.0;
        }
        let mean = self.mean_interval().expect("window is non-empty");
        let var = self
            .intervals
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / self.intervals.len() as f64;
        let sigma = var.sqrt().max(0.25 * mean).max(1e-6);
        let elapsed = now.saturating_since(last).as_secs_f64() / self.expected_scale;
        let z = (elapsed - mean) / sigma;
        let p_later = 0.5 * erfc(z / std::f64::consts::SQRT_2);
        if p_later <= 0.0 {
            return PHI_CEILING;
        }
        (-p_later.log10()).clamp(0.0, PHI_CEILING)
    }

    /// The first grid tick `from + k·step ≤ to` whose phi reaches
    /// `threshold`, by walking every tick.
    pub fn first_crossing(
        &self,
        threshold: f64,
        from: SimTime,
        to: SimTime,
        step: SimDuration,
    ) -> Option<SimTime> {
        if step.is_zero() {
            return None;
        }
        let mut t = from;
        while t <= to {
            if self.phi(t) >= threshold {
                return Some(t);
            }
            t += step;
        }
        None
    }
}
