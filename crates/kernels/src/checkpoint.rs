//! Application-level checkpoint/restart for the iterative kernels.
//!
//! Long HPL and STREAM runs are exactly the jobs that die expensively on a
//! node failure, so the kernels expose their natural restart points: the
//! blocked LU factors one panel at a time through [`SteppableLu`], and
//! STREAM snapshots its three arrays between iterations. A snapshot taken
//! through the [`Checkpoint`] trait is *lossless*: resuming from it and
//! running to completion produces bit-identical results to an
//! uninterrupted run (floating-point payloads travel as [`f64::to_bits`]
//! words, never through a decimal round-trip).

use crate::lu::{LuError, LuFactorization};
use crate::matrix::Matrix;
use crate::pool::WorkerPool;
use crate::stream::{StreamConfig, StreamRun};

/// A computation that can snapshot its progress and resume from the
/// snapshot with no loss of state.
///
/// Implementations guarantee the round-trip law: for any prefix of work,
/// `restore(checkpoint(&x))` behaves exactly like `x` from that point on —
/// finishing both must yield bit-identical results.
pub trait Checkpoint: Sized {
    /// The serialisable snapshot of in-progress state.
    type State: Clone;

    /// Captures everything needed to resume from the current position.
    fn checkpoint(&self) -> Self::State;

    /// Rebuilds the computation exactly as snapshotted.
    fn restore(state: Self::State) -> Self;
}

/// A blocked LU factorisation that advances one panel per [`step`] call —
/// HPL's natural checkpoint granularity (the paper's run has
/// `N / NB = 40704 / 192 = 212` panels).
///
/// [`step`]: SteppableLu::step
///
/// # Examples
///
/// ```
/// use cimone_kernels::checkpoint::{Checkpoint, SteppableLu};
/// use cimone_kernels::matrix::Matrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let a = Matrix::random(32, 32, &mut rng);
/// let mut lu = SteppableLu::new(a, 8)?;
/// lu.step()?; // factor the first panel
/// let snapshot = lu.checkpoint();
/// let resumed = SteppableLu::restore(snapshot).run_to_completion()?;
/// let direct = lu.run_to_completion()?;
/// assert_eq!(resumed.packed().as_slice(), direct.packed().as_slice());
/// # Ok::<(), cimone_kernels::lu::LuError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SteppableLu {
    a: Matrix,
    pivots: Vec<usize>,
    block: usize,
    /// First column of the next panel to factor (`k` in the blocked loop).
    next_col: usize,
}

/// The lossless snapshot of a [`SteppableLu`] in progress.
///
/// Matrix entries are stored as raw IEEE-754 bit patterns so the
/// round-trip is exact for every representable value (including signed
/// zeros and subnormals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LuState {
    /// Matrix order.
    pub order: usize,
    /// Blocking factor (HPL's `NB`).
    pub block: usize,
    /// First column of the next panel to factor.
    pub next_col: usize,
    /// Column-major matrix entries as IEEE-754 bit patterns.
    pub data_bits: Vec<u64>,
    /// Pivot rows chosen so far (identity for columns not yet factored).
    pub pivots: Vec<usize>,
}

impl SteppableLu {
    /// Starts a blocked factorisation of `a` without performing any work.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::NotSquare`] for rectangular inputs.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    pub fn new(a: Matrix, block: usize) -> Result<Self, LuError> {
        assert!(block > 0, "block size must be positive");
        let n = a.rows();
        if a.cols() != n {
            return Err(LuError::NotSquare {
                rows: n,
                cols: a.cols(),
            });
        }
        Ok(SteppableLu {
            pivots: vec![0usize; n],
            a,
            block,
            next_col: 0,
        })
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.a.rows()
    }

    /// Panels factored so far.
    pub fn panels_done(&self) -> usize {
        self.next_col.div_ceil(self.block)
    }

    /// Total panels in the factorisation.
    pub fn panels_total(&self) -> usize {
        self.order().div_ceil(self.block)
    }

    /// Whether every panel has been factored.
    pub fn is_complete(&self) -> bool {
        self.next_col >= self.order()
    }

    /// Factors the next panel (panel factorisation, block-row solve,
    /// trailing update). Returns `true` while panels remain afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::Singular`] when an exact zero pivot appears.
    pub fn step(&mut self) -> Result<bool, LuError> {
        self.advance(None)
    }

    /// Like [`step`](SteppableLu::step), but runs the fused block-row
    /// solve + trailing update on `pool`. Bit-identical to the serial
    /// step at any worker count, and because the pool scope is a full
    /// barrier, a [`checkpoint`](Checkpoint::checkpoint) taken between
    /// steps observes fully quiesced state — the PR 2 restart law holds
    /// unchanged on the threaded path.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::Singular`] when an exact zero pivot appears.
    pub fn step_with_pool(&mut self, pool: &WorkerPool) -> Result<bool, LuError> {
        self.advance(Some(pool))
    }

    fn advance(&mut self, pool: Option<&WorkerPool>) -> Result<bool, LuError> {
        let n = self.order();
        if self.is_complete() {
            return Ok(false);
        }
        let k = self.next_col;
        let kb = self.block.min(n - k);
        crate::lu::factor_panel(&mut self.a, k, kb, &mut self.pivots)?;
        crate::lu::update_trailing(&mut self.a, k, kb, pool, None);
        self.next_col = k + kb;
        if self.is_complete() {
            crate::lu::apply_deferred_swaps(&mut self.a, &self.pivots, self.block);
        }
        Ok(!self.is_complete())
    }

    /// Factors all remaining panels and packages the result.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::Singular`] when an exact zero pivot appears.
    pub fn run_to_completion(mut self) -> Result<LuFactorization, LuError> {
        while self.step()? {}
        Ok(LuFactorization::from_parts(self.a, self.pivots, self.block))
    }

    /// [`run_to_completion`](SteppableLu::run_to_completion) on `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::Singular`] when an exact zero pivot appears.
    pub fn run_to_completion_with_pool(
        mut self,
        pool: &WorkerPool,
    ) -> Result<LuFactorization, LuError> {
        while self.step_with_pool(pool)? {}
        Ok(LuFactorization::from_parts(self.a, self.pivots, self.block))
    }
}

impl Checkpoint for SteppableLu {
    type State = LuState;

    fn checkpoint(&self) -> LuState {
        LuState {
            order: self.a.rows(),
            block: self.block,
            next_col: self.next_col,
            data_bits: self.a.as_slice().iter().map(|v| v.to_bits()).collect(),
            pivots: self.pivots.clone(),
        }
    }

    fn restore(state: LuState) -> Self {
        let n = state.order;
        assert_eq!(
            state.data_bits.len(),
            n * n,
            "LU state holds {} entries for order {n}",
            state.data_bits.len()
        );
        let mut a = Matrix::zeros(n, n);
        for (dst, &bits) in a.as_mut_slice().iter_mut().zip(&state.data_bits) {
            *dst = f64::from_bits(bits);
        }
        SteppableLu {
            a,
            pivots: state.pivots,
            block: state.block,
            next_col: state.next_col,
        }
    }
}

/// The lossless snapshot of a [`StreamRun`] between iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    /// The run configuration (restored verbatim).
    pub config: StreamConfig,
    /// Array `a` as IEEE-754 bit patterns.
    pub a_bits: Vec<u64>,
    /// Array `b` as IEEE-754 bit patterns.
    pub b_bits: Vec<u64>,
    /// Array `c` as IEEE-754 bit patterns.
    pub c_bits: Vec<u64>,
    /// Full STREAM iterations applied so far.
    pub iterations: usize,
}

impl Checkpoint for StreamRun {
    type State = StreamState;

    fn checkpoint(&self) -> StreamState {
        let (a, b, c, iterations) = self.parts();
        StreamState {
            config: *self.config(),
            a_bits: a.iter().map(|v| v.to_bits()).collect(),
            b_bits: b.iter().map(|v| v.to_bits()).collect(),
            c_bits: c.iter().map(|v| v.to_bits()).collect(),
            iterations,
        }
    }

    fn restore(state: StreamState) -> Self {
        let thaw = |bits: Vec<u64>| bits.into_iter().map(f64::from_bits).collect();
        StreamRun::from_parts(
            state.config,
            thaw(state.a_bits),
            thaw(state.b_bits),
            thaw(state.c_bits),
            state.iterations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stepped_lu_matches_monolithic_factor() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Matrix::random(40, 40, &mut rng);
        let stepped = SteppableLu::new(a.clone(), 8)
            .unwrap()
            .run_to_completion()
            .unwrap();
        let direct = LuFactorization::factor(a.clone(), 8).unwrap();
        assert_eq!(stepped.packed().as_slice(), direct.packed().as_slice());
        assert_eq!(stepped.pivots(), direct.pivots());
        let mut reference = a.as_slice().to_vec();
        let pivots = crate::lu::reference::factor(&mut reference, 40, 8).unwrap();
        assert_eq!(stepped.packed().as_slice(), &reference[..]);
        assert_eq!(stepped.pivots(), &pivots[..]);
    }

    #[test]
    fn lu_checkpoint_restore_round_trip_is_bitwise_lossless() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Matrix::random(48, 48, &mut rng);
        let mut lu = SteppableLu::new(a, 16).unwrap();
        lu.step().unwrap();
        lu.step().unwrap();
        let resumed = SteppableLu::restore(lu.checkpoint());
        assert_eq!(resumed.panels_done(), 2);
        let from_snapshot = resumed.run_to_completion().unwrap();
        let uninterrupted = lu.run_to_completion().unwrap();
        assert_eq!(
            from_snapshot.packed().as_slice(),
            uninterrupted.packed().as_slice()
        );
        assert_eq!(from_snapshot.pivots(), uninterrupted.pivots());
    }

    #[test]
    fn panel_accounting_matches_the_paper_shape() {
        let a = Matrix::zeros(30, 30);
        let lu = SteppableLu::new(a, 8).unwrap();
        assert_eq!(lu.panels_total(), 4); // 8+8+8+6
        assert_eq!(lu.panels_done(), 0);
        assert!(!lu.is_complete());
    }

    #[test]
    fn stream_checkpoint_preserves_validation() {
        let config = StreamConfig::new(512, 1);
        let mut run = StreamRun::new(config);
        run.run_iteration();
        run.run_iteration();
        let mut resumed = StreamRun::restore(run.checkpoint());
        resumed.run_iteration();
        resumed.validate(3).expect("resumed run validates");
    }

    #[test]
    fn rectangular_input_is_rejected() {
        let err = SteppableLu::new(Matrix::zeros(3, 5), 2).unwrap_err();
        assert_eq!(err, LuError::NotSquare { rows: 3, cols: 5 });
    }
}
