//! The unpacked reference LU: the textbook right-looking blocked walk
//! with immediate full-row swaps, one scalar loop per `(column, p)` pair
//! and no packing, tiling or SIMD dispatch.
//!
//! It shares no code with the crate's kernels, so it is the independent
//! oracle for their bit-identity tests. Each element sees the kernels'
//! exact operation chain: `p` ascending, one rounding per multiply and
//! one per subtract (`c − l·m` equals the kernels' `c + l·(−m)` bit for
//! bit under IEEE 754). Matrices are column-major with leading
//! dimension `n`.

/// Computes `U12 = L11⁻¹ · A12` for panel `k..k+kb`.
pub fn solve_block_row(a: &mut [f64], n: usize, k: usize, kb: usize) {
    for jj in k + kb..n {
        for j in k..k + kb {
            let mult = a[jj * n + j];
            for i in j + 1..k + kb {
                a[jj * n + i] -= a[j * n + i] * mult;
            }
        }
    }
}

/// Trailing update `A22 ← A22 − L21 · U12` for panel `k..k+kb`.
pub fn update_trailing(a: &mut [f64], n: usize, k: usize, kb: usize) {
    for jj in k + kb..n {
        for p in k..k + kb {
            let mult = a[jj * n + p];
            for i in k + kb..n {
                a[jj * n + i] -= a[p * n + i] * mult;
            }
        }
    }
}

/// Factors the `n×n` matrix `a` in place with partial pivoting and block
/// size `block`; returns the pivot rows, or `None` at an exact zero
/// pivot.
pub fn factor(a: &mut [f64], n: usize, block: usize) -> Option<Vec<usize>> {
    let mut pivots = vec![0usize; n];
    for k in (0..n).step_by(block) {
        let kb = block.min(n - k);
        for j in k..k + kb {
            let mut piv = j;
            let mut best = a[j * n + j].abs();
            for i in j + 1..n {
                if a[j * n + i].abs() > best {
                    best = a[j * n + i].abs();
                    piv = i;
                }
            }
            if best == 0.0 {
                return None;
            }
            pivots[j] = piv;
            for c in 0..n {
                a.swap(c * n + j, c * n + piv);
            }
            let diag = a[j * n + j];
            for i in j + 1..n {
                a[j * n + i] /= diag;
            }
            for jj in j + 1..k + kb {
                let mult = a[jj * n + j];
                if mult == 0.0 {
                    continue;
                }
                for i in j + 1..n {
                    a[jj * n + i] -= a[j * n + i] * mult;
                }
            }
        }
        solve_block_row(a, n, k, kb);
        update_trailing(a, n, k, kb);
    }
    Some(pivots)
}
