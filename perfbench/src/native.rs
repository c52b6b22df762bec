//! The `native_hpl` workload: the real kernels. A dense system is
//! generated from the seed, factored with ABFT `Detect` on a worker pool
//! of `nproc` workers, solved, and checked by its HPL residual.

use std::time::Instant;

use cimone_cluster::perf::{HplModel, HplProblem};
use cimone_kernels::abft::{factor_protected, AbftMode, AbftReport};
use cimone_kernels::lu::{hpl_residual, HPL_RESIDUAL_THRESHOLD};
use cimone_kernels::matrix::Matrix;
use cimone_kernels::pool::WorkerPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sim::Digest;

/// Matrix order and block size of the workload.
pub const N: usize = 2048;
pub const NB: usize = 64;

/// The generated system `A x = b`.
pub struct System {
    pub a: Matrix,
    pub b: Vec<f64>,
}

/// The set-up: matrix generation.
pub fn generate(n: usize, seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, 1, &mut rng).as_slice().to_vec();
    System { a, b }
}

pub struct Outcome {
    /// Host seconds of factor plus solve.
    pub host_s: f64,
    pub residual: f64,
    pub report: AbftReport,
    /// Digest of the solution's bits.
    pub digest: u64,
}

/// One rep: factor with ABFT `Detect` (on `pool`, or serially without
/// one), solve, then check the residual outside the timed section.
pub fn run(system: &System, nb: usize, mode: AbftMode, pool: Option<&WorkerPool>) -> Outcome {
    let a = system.a.clone();
    let start = Instant::now();
    let (lu, report) = factor_protected(a, nb, mode, pool, None).expect("random systems factor");
    let x = lu.solve(&system.b);
    let host_s = start.elapsed().as_secs_f64();
    let residual = hpl_residual(&system.a, &x, &system.b);
    let mut digest = Digest::new();
    for v in &x {
        digest.word(v.to_bits());
    }
    Outcome {
        host_s,
        residual,
        report,
        digest: digest.finish(),
    }
}

impl Outcome {
    pub fn passed(&self) -> bool {
        self.residual < HPL_RESIDUAL_THRESHOLD && self.report.mismatches == 0
    }
}

/// Seconds the modelled single U740 node needs for the same problem.
pub fn modelled_node_s(n: usize, nb: usize) -> f64 {
    HplModel::monte_cimone(HplProblem::new(n, nb)).run_time(1)
}
