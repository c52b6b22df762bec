//! Algorithm-based fault tolerance (ABFT) for the blocked LU and DGEMM
//! paths — Huang–Abraham column checksums against silent data corruption.
//!
//! Monte Cimone's FU740 blades carry non-ECC DDR, so a bit can flip in a
//! live panel and nothing crashes: the run completes and only the residual
//! betrays it, hours later. ABFT closes that window at panel granularity.
//! Before each trailing update the factorisation records the column sums
//! of the trailing block and of the `L21` panel; after the update the sum
//! of every trailing column must equal the checksum image of the same
//! update (`s′_j = s_j − Σ_p lsum_p·u_pj`). A mismatch localises the
//! corruption to one column of one panel, and [`AbftMode::Correct`]
//! rebuilds exactly that column from a pre-update snapshot by replaying
//! the identical per-element operation chain — so a repaired run is
//! **bit-identical** to a clean one.
//!
//! All checksum arithmetic uses Neumaier compensated summation, keeping
//! the verification tolerance near `kb·ε·scale` instead of `n·ε·scale`;
//! every flip large enough to move the HPL residual sits orders of
//! magnitude above it.
//!
//! The factorisation's verification runs inside the tiles of the trailing
//! update (`TileCheck`): each tile sums its own columns row pass by row
//! pass, just before and just after the update writes them, and compares
//! them with the checksum image while they are still in cache. Only
//! mismatches and their repairs come back to the calling thread.

use std::ops::Range;

use crate::dgemm::{put_scratch, take_scratch};
use crate::lu::{apply_deferred_swaps, factor_panel, update_trailing, LuError, LuFactorization};
use crate::matrix::Matrix;
use crate::pool::WorkerPool;

/// How much protection the checksummed kernels apply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AbftMode {
    /// No checksums: the unprotected baseline path.
    #[default]
    Off,
    /// Maintain and verify checksums; report mismatches but leave the
    /// corrupted data in place.
    Detect,
    /// Verify, then rebuild any mismatching column from its pre-update
    /// snapshot (bitwise equal to a clean run).
    Correct,
}

/// What the checksummed kernels observed and spent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AbftReport {
    /// Panels whose trailing update was verified.
    pub panels_verified: usize,
    /// Column checksum mismatches raised.
    pub mismatches: usize,
    /// Columns rebuilt (and re-verified clean) in [`AbftMode::Correct`].
    pub columns_recomputed: usize,
    /// Arithmetic spent maintaining and verifying checksums.
    pub checksum_flops: f64,
    /// Arithmetic wasted rebuilding corrupted columns.
    pub recompute_flops: f64,
}

impl AbftReport {
    /// Checksum + recompute work relative to `base_flops` (the protected
    /// kernel's own FLOP count): the ABFT overhead fraction.
    pub fn overhead_vs(&self, base_flops: f64) -> f64 {
        if base_flops <= 0.0 {
            return 0.0;
        }
        (self.checksum_flops + self.recompute_flops) / base_flops
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: &AbftReport) {
        self.panels_verified += other.panels_verified;
        self.mismatches += other.mismatches;
        self.columns_recomputed += other.columns_recomputed;
        self.checksum_flops += other.checksum_flops;
        self.recompute_flops += other.recompute_flops;
    }
}

/// A deterministic single-bit fault against the factorisation's live
/// state: after panel `panel`'s trailing update, bit `bit % 64` of word
/// `word % n²` of the in-place factors is flipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcInjection {
    /// Zero-based panel index after whose update the flip lands.
    pub panel: usize,
    /// Flat column-major word index into the matrix (taken modulo `n²`).
    pub word: usize,
    /// Bit position within the word (taken modulo 64).
    pub bit: u32,
}

/// Neumaier compensated accumulator: exact enough that the verification
/// tolerance is set by the *update's* rounding, not the summation's.
///
/// The compensation term is Knuth's branch-free TwoSum, which yields the
/// exact rounding error of `sum + v` — the same value Neumaier's
/// magnitude-branched form computes, so [`value`](Neumaier::value) is
/// bitwise the same while the add vectorises across columns.
#[derive(Debug, Clone, Copy, Default)]
struct Neumaier {
    sum: f64,
    comp: f64,
}

impl Neumaier {
    fn seeded(v: f64) -> Self {
        Neumaier { sum: v, comp: 0.0 }
    }

    #[inline(always)]
    fn add(&mut self, v: f64) {
        let t = self.sum + v;
        self.comp += two_sum_err(self.sum, v, t);
        self.sum = t;
    }

    fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

/// The rounding error of `t = s + v`, exact whenever the sum does not
/// overflow (TwoSum).
#[inline(always)]
fn two_sum_err(s: f64, v: f64, t: f64) -> f64 {
    let z = t - s;
    (s - (t - z)) + (v - z)
}

/// Adds `L` columns' rows into their compensated sums, lane `q` running
/// column `q`'s row-ascending chain, and with `ABS` also into their
/// plain magnitude sums. The lanes are independent, so the adds
/// vectorise across columns while each column keeps its exact serial
/// sequence.
#[inline(always)]
fn sum_rows_body<const L: usize, const ABS: bool>(
    cols: [&[f64]; L],
    acc: &mut [Neumaier; L],
    abs: &mut [f64; L],
) {
    let rows = cols[0].len();
    let cols = cols.map(|c| &c[..rows]);
    let mut s = acc.map(|a| a.sum);
    let mut e = acc.map(|a| a.comp);
    let mut m = *abs;
    #[allow(clippy::needless_range_loop)] // `i` walks the rows of all L columns
    for i in 0..rows {
        for q in 0..L {
            let v = cols[q][i];
            let t = s[q] + v;
            e[q] += two_sum_err(s[q], v, t);
            s[q] = t;
            if ABS {
                m[q] += v.abs();
            }
        }
    }
    for q in 0..L {
        acc[q] = Neumaier {
            sum: s[q],
            comp: e[q],
        };
    }
    *abs = m;
}

#[cfg(target_arch = "x86_64")]
mod sum_simd {
    use super::Neumaier;

    /// [`super::sum_rows_body`] for four columns with explicit 256-bit
    /// intrinsics: four rows of each column are loaded and transposed in
    /// registers so one vector holds one row across the four columns,
    /// then the rows go through the lanes' chains in ascending order.
    /// Each lane performs exactly the scalar body's operations, so the
    /// sums are bit-identical to it.
    ///
    /// # Safety
    ///
    /// Caller must have detected `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum4_avx2<const ABS: bool>(
        cols: [&[f64]; 4],
        acc: &mut [Neumaier; 4],
        abs: &mut [f64; 4],
    ) {
        use std::arch::x86_64::*;
        let rows = cols[0].len();
        // Every pointer read below is at a row index below `rows`, so it
        // stays inside its column.
        assert!(cols.iter().all(|c| c.len() == rows));
        let mut s = _mm256_setr_pd(acc[0].sum, acc[1].sum, acc[2].sum, acc[3].sum);
        let mut e = _mm256_setr_pd(acc[0].comp, acc[1].comp, acc[2].comp, acc[3].comp);
        let mut m = _mm256_loadu_pd(abs.as_ptr());
        let sign = _mm256_set1_pd(-0.0);
        // One row across the four lanes: TwoSum into (s, e), |v| into m.
        macro_rules! add_row {
            ($v:expr) => {{
                let v = $v;
                let t = _mm256_add_pd(s, v);
                let z = _mm256_sub_pd(t, s);
                let err = _mm256_add_pd(_mm256_sub_pd(s, _mm256_sub_pd(t, z)), _mm256_sub_pd(v, z));
                e = _mm256_add_pd(e, err);
                s = t;
                if ABS {
                    m = _mm256_add_pd(m, _mm256_andnot_pd(sign, v));
                }
            }};
        }
        let [p0, p1, p2, p3] = cols.map(|c| c.as_ptr());
        let mut i = 0;
        while i + 4 <= rows {
            let x0 = _mm256_loadu_pd(p0.add(i));
            let x1 = _mm256_loadu_pd(p1.add(i));
            let x2 = _mm256_loadu_pd(p2.add(i));
            let x3 = _mm256_loadu_pd(p3.add(i));
            let t0 = _mm256_unpacklo_pd(x0, x1);
            let t1 = _mm256_unpackhi_pd(x0, x1);
            let t2 = _mm256_unpacklo_pd(x2, x3);
            let t3 = _mm256_unpackhi_pd(x2, x3);
            add_row!(_mm256_permute2f128_pd::<0x20>(t0, t2));
            add_row!(_mm256_permute2f128_pd::<0x20>(t1, t3));
            add_row!(_mm256_permute2f128_pd::<0x31>(t0, t2));
            add_row!(_mm256_permute2f128_pd::<0x31>(t1, t3));
            i += 4;
        }
        while i < rows {
            add_row!(_mm256_setr_pd(
                *p0.add(i),
                *p1.add(i),
                *p2.add(i),
                *p3.add(i)
            ));
            i += 1;
        }
        let mut lanes = [[0.0f64; 4]; 2];
        _mm256_storeu_pd(lanes[0].as_mut_ptr(), s);
        _mm256_storeu_pd(lanes[1].as_mut_ptr(), e);
        for (q, a) in acc.iter_mut().enumerate() {
            *a = Neumaier {
                sum: lanes[0][q],
                comp: lanes[1][q],
            };
        }
        if ABS {
            _mm256_storeu_pd(abs.as_mut_ptr(), m);
        }
    }
}

/// Sums four columns' rows (see [`sum_rows_body`]), through the
/// transposing AVX2 kernel where the CPU has it. Every target computes
/// identical bits.
fn sum_rows4<const ABS: bool>(cols: [&[f64]; 4], acc: &mut [Neumaier; 4], abs: &mut [f64; 4]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { sum_simd::sum4_avx2::<ABS>(cols, acc, abs) };
        }
    }
    sum_rows_body::<4, ABS>(cols, acc, abs);
}

/// Flips one bit of the matrix backing store in place.
fn flip_bit(a: &mut Matrix, word: usize, bit: u32) {
    let data = a.as_mut_slice();
    let idx = word % data.len();
    data[idx] = f64::from_bits(data[idx].to_bits() ^ (1u64 << (bit % 64)));
}

/// Verification tolerance for one trailing column: the update performs
/// `kb` multiply-accumulates per element, so the float drift between the
/// direct sum and the checksum image is bounded by `~kb·ε` times the
/// column's absolute mass. The `+4` and factor 8 absorb the compensated
/// sums' own residue and the dot products on the checksum side.
fn column_tolerance(kb: usize, abs_scale: f64) -> f64 {
    8.0 * f64::EPSILON * (kb as f64 + 4.0) * abs_scale + 1e-290
}

/// Blocked LU with Huang–Abraham panel checksums.
///
/// Identical arithmetic to [`LuFactorization::factor`] (serial) or
/// [`LuFactorization::factor_parallel`] (when `pool` is given): the
/// checksums only *read* the factors, and a [`AbftMode::Correct`]
/// repair replays the exact per-element update chain, so the returned
/// factors are bit-identical to the unprotected path on a clean run —
/// at any worker count.
///
/// The `L21` column sums are taken once per panel on the calling thread;
/// the trailing columns are summed and verified inside the update's own
/// tiles (see `TileCheck`).
///
/// `inject` plants a deterministic single-bit flip after the named
/// panel's update (the SDC experiments' fault model); `None` runs clean.
///
/// # Errors
///
/// Returns [`LuError::NotSquare`] for rectangular inputs and
/// [`LuError::Singular`] when an exact zero pivot appears.
///
/// # Panics
///
/// Panics if `block` is zero.
pub fn factor_protected(
    mut a: Matrix,
    block: usize,
    mode: AbftMode,
    pool: Option<&WorkerPool>,
    inject: Option<SdcInjection>,
) -> Result<(LuFactorization, AbftReport), LuError> {
    assert!(block > 0, "block size must be positive");
    let n = a.rows();
    if a.cols() != n {
        return Err(LuError::NotSquare {
            rows: n,
            cols: a.cols(),
        });
    }
    let mut pivots = vec![0usize; n];
    let mut report = AbftReport::default();
    let protect = mode != AbftMode::Off;
    // Per-column checksum state, reused by every panel.
    let mut columns = vec![ColumnCheck::default(); if protect { n } else { 0 }];

    for (panel_index, k) in (0..n).step_by(block).enumerate() {
        let kb = block.min(n - k);
        factor_panel(&mut a, k, kb, &mut pivots)?;
        let t = n - (k + kb);
        let flip = inject.filter(|i| i.panel == panel_index);
        if t == 0 || !protect {
            update_trailing(&mut a, k, kb, pool, None);
            if let Some(i) = flip {
                flip_bit(&mut a, i.word, i.bit);
            }
            continue;
        }

        // Checksums are taken *after* the panel factorisation: its
        // deferred-pivot pass swaps trailing-block rows across the
        // `k+kb` boundary, so earlier sums would not survive it.
        let mut l_sums = take_scratch(2 * kb);
        let (lsum, labs) = l_sums[..2 * kb].split_at_mut(kb);
        for (p, (s, sa)) in lsum.iter_mut().zip(labs.iter_mut()).enumerate() {
            let (mut acc, mut abs) = ([Neumaier::default()], [0.0]);
            sum_rows_body::<1, true>([&a.col(k + p)[k + kb..]], &mut acc, &mut abs);
            *s = acc[0].value();
            *sa = abs[0];
        }
        let correct = mode == AbftMode::Correct;
        let snapshot_len = if correct { t * t } else { 0 };
        let mut snapshot = take_scratch(snapshot_len);
        // A flip in what the checksums read lands inside the tile (see
        // `TileFlip`); any other flip lands after the update.
        let tile_flip = flip.and_then(|i| TileFlip::inside(i, n, k, kb));
        let check = TileCheck {
            col0: k + kb,
            row0: k + kb,
            rows: t,
            columns: &mut columns[..t],
            snapshot: &mut snapshot[..snapshot_len],
            lsum,
            labs,
            flip: tile_flip,
        };
        update_trailing(&mut a, k, kb, pool, Some(check));
        if let Some(i) = flip.filter(|_| tile_flip.is_none()) {
            flip_bit(&mut a, i.word, i.bit);
        }

        report.checksum_flops += (9 * t * t + 9 * t * kb) as f64;
        for (j, col) in columns[..t].iter().enumerate() {
            if !col.mismatch {
                continue;
            }
            report.mismatches += 1;
            if correct {
                let jj = k + kb + j;
                repair_column(&mut a, &snapshot, k, kb, jj, t);
                report.recompute_flops += (2 * kb * t + 4 * t + 4 * kb) as f64;
                let again = (trailing_sum(&a, jj, k + kb) - col.pred).abs();
                if again <= col.tol {
                    report.columns_recomputed += 1;
                }
            }
        }
        report.panels_verified += 1;
        put_scratch(l_sums);
        put_scratch(snapshot);
    }
    apply_deferred_swaps(&mut a, &pivots, block);

    Ok((LuFactorization::from_parts(a, pivots, block), report))
}

/// Neumaier sum of column `jj`, rows `row0..n`.
fn trailing_sum(a: &Matrix, jj: usize, row0: usize) -> f64 {
    let mut acc = [Neumaier::default()];
    sum_rows_body::<1, false>([&a.col(jj)[row0..]], &mut acc, &mut [0.0]);
    acc[0].value()
}

/// Rebuilds trailing column `jj` of panel `k`: restores the pre-update
/// rows from `snapshot` and replays the update's exact per-element chain
/// (`p` ascending, `c += l·(−mult)`) — bit-for-bit what the tiled update
/// produces.
fn repair_column(a: &mut Matrix, snapshot: &[f64], k: usize, kb: usize, jj: usize, t: usize) {
    let n = a.rows();
    let c0 = (jj - (k + kb)) * t;
    a.col_mut(jj)[k + kb..n].copy_from_slice(&snapshot[c0..c0 + t]);
    let data = a.as_mut_slice();
    for p in 0..kb {
        let mult = data[jj * n + k + p];
        let neg = -mult;
        let (l_off, c_off) = ((k + p) * n, jj * n);
        for i in k + kb..n {
            let lv = data[l_off + i];
            data[c_off + i] += lv * neg;
        }
    }
}

/// Checksum state of one trailing column through one panel's update.
#[derive(Debug, Clone, Copy, Default)]
struct ColumnCheck {
    /// Sum of the rows below the panel before the update.
    pre: Neumaier,
    /// Plain sum of their magnitudes (the tolerance's scale).
    pre_abs: f64,
    /// Sum of the same rows after the update.
    post: Neumaier,
    /// The checksum image `pre − Σ_p lsum_p·u_p`.
    pred: f64,
    /// The verification tolerance for this column.
    tol: f64,
    /// Whether `post` missed `pred` by more than `tol`.
    mismatch: bool,
}

/// An injected flip that lands where a tile's checksums read it: in a
/// trailing column, in the `U12` rows `k..k+kb` or below them.
///
/// It must change the same word to the same final value as a flip after
/// the whole update, and every checksum must read what it would read
/// after such a flip. So a trailing-row flip lands right after its row
/// pass writes the word (before the post-update sum reads it), and a
/// `U12` flip lands once the tile's multipliers are packed (the update
/// still uses the clean value; the checksum image reads the flipped
/// one).
#[derive(Debug, Clone, Copy)]
struct TileFlip {
    col: usize,
    row: usize,
    mask: u64,
}

impl TileFlip {
    /// The in-tile form of `inject` at panel `k..k+kb`, if it has one.
    fn inside(inject: SdcInjection, n: usize, k: usize, kb: usize) -> Option<TileFlip> {
        let idx = inject.word % (n * n);
        let (col, row) = (idx / n, idx % n);
        (col >= k + kb && row >= k).then_some(TileFlip {
            col,
            row,
            mask: 1u64 << (inject.bit % 64),
        })
    }

    fn apply(&self, v: &mut f64) {
        *v = f64::from_bits(v.to_bits() ^ self.mask);
    }
}

/// One tile's share of a protected panel's verification, carried
/// through the trailing update of [`update_trailing`].
///
/// Each row pass of the tile sums its rows of every column just before
/// the update writes them (`sum_before`) and just after
/// (`sum_after`). Row passes run in ascending order, so each column's
/// chain of compensated adds is exactly the row-ascending chain of a
/// separate pass over the whole column. [`verify`](TileCheck::verify)
/// then forms each column's checksum image and compares.
pub(crate) struct TileCheck<'a> {
    /// Matrix column of the tile's first column.
    col0: usize,
    /// First matrix row below the panel (`k+kb`).
    row0: usize,
    /// Trailing rows below the panel (`t`).
    rows: usize,
    columns: &'a mut [ColumnCheck],
    /// Pre-update trailing rows, `rows` per column; empty unless
    /// correcting.
    snapshot: &'a mut [f64],
    lsum: &'a [f64],
    labs: &'a [f64],
    flip: Option<TileFlip>,
}

impl<'a> TileCheck<'a> {
    /// Splits off the first `mid` columns.
    pub(crate) fn split_at(self, mid: usize) -> (TileCheck<'a>, TileCheck<'a>) {
        let (c0, c1) = self.columns.split_at_mut(mid);
        let per_col = if self.snapshot.is_empty() {
            0
        } else {
            self.rows
        };
        let (s0, s1) = self.snapshot.split_at_mut(mid * per_col);
        let split = self.col0 + mid;
        let (f0, f1) = match self.flip {
            Some(f) if f.col < split => (Some(f), None),
            f => (None, f),
        };
        let part = |col0, columns, snapshot, flip| TileCheck {
            col0,
            row0: self.row0,
            rows: self.rows,
            columns,
            snapshot,
            lsum: self.lsum,
            labs: self.labs,
            flip,
        };
        (part(self.col0, c0, s0, f0), part(split, c1, s1, f1))
    }

    /// Resets the column state and takes the repair snapshot of the
    /// tile's rows below the panel (`cols` holds whole columns).
    pub(crate) fn begin(&mut self, cols: &[f64], n: usize) {
        self.columns.fill(ColumnCheck::default());
        for (dst, col) in self
            .snapshot
            .chunks_exact_mut(self.rows)
            .zip(cols.chunks_exact(n))
        {
            dst.copy_from_slice(&col[self.row0..]);
        }
    }

    /// Lands a `U12` flip once the tile's multipliers are packed.
    pub(crate) fn flip_top(&mut self, cols: &mut [f64], n: usize) {
        if let Some(f) = self.flip.filter(|f| f.row < self.row0) {
            f.apply(&mut cols[(f.col - self.col0) * n + f.row]);
        }
    }

    /// Adds rows `rows` of the column group starting at tile column `c`
    /// (`group` holds each column's rows below the panel) to the
    /// pre-update sums.
    pub(crate) fn sum_before(&mut self, c: usize, group: &[&mut [f64]], rows: Range<usize>) {
        add_rows::<true>(&mut self.columns[c..c + group.len()], group, rows);
    }

    /// Lands a trailing-row flip that this row pass just wrote, then adds
    /// the pass's rows to the post-update sums.
    pub(crate) fn sum_after(&mut self, c: usize, group: &mut [&mut [f64]], rows: Range<usize>) {
        if let Some(f) = self.flip {
            let (q, i) = (
                f.col.wrapping_sub(self.col0 + c),
                f.row.wrapping_sub(self.row0),
            );
            if q < group.len() && rows.contains(&i) {
                f.apply(&mut group[q][i]);
            }
        }
        add_rows::<false>(&mut self.columns[c..c + group.len()], group, rows);
    }

    /// Forms each column's checksum image from its pre-update sum and
    /// `U12` column (`cols` holds whole columns), and records whether
    /// the post-update sum misses it.
    pub(crate) fn verify(self, cols: &[f64], n: usize, k: usize, kb: usize) {
        for (col, state) in cols.chunks_exact(n).zip(self.columns.iter_mut()) {
            let mut pred = Neumaier::seeded(state.pre.value());
            let mut dot_abs = 0.0f64;
            for (p, (&s, &sa)) in self.lsum.iter().zip(self.labs).enumerate() {
                let u = col[k + p];
                pred.add(-(s * u));
                dot_abs += sa * u.abs();
            }
            state.pred = pred.value();
            state.tol = column_tolerance(kb, state.pre_abs + 2.0 * dot_abs);
            let delta = (state.post.value() - state.pred).abs();
            // A NaN delta is a mismatch: corruption can turn sums into
            // NaN, which every ordered comparison would wave through.
            state.mismatch = delta > state.tol || delta.is_nan();
        }
    }
}

/// Adds rows `rows` of a column group into its columns' pre-update sums
/// and magnitudes (`PRE`) or into their post-update sums; four-column
/// groups go through the vectorised kernel.
fn add_rows<const PRE: bool>(state: &mut [ColumnCheck], group: &[&mut [f64]], rows: Range<usize>) {
    let load = |s: &ColumnCheck| if PRE { s.pre } else { s.post };
    let store = |s: &mut ColumnCheck, acc: Neumaier, abs: f64| {
        if PRE {
            s.pre = acc;
            s.pre_abs = abs;
        } else {
            s.post = acc;
        }
    };
    if let [b0, b1, b2, b3] = group {
        let mut acc = [0, 1, 2, 3].map(|q| load(&state[q]));
        let mut abs = [0, 1, 2, 3].map(|q| state[q].pre_abs);
        let r = rows;
        sum_rows4::<PRE>(
            [&b0[r.clone()], &b1[r.clone()], &b2[r.clone()], &b3[r]],
            &mut acc,
            &mut abs,
        );
        for (q, s) in state.iter_mut().enumerate() {
            store(s, acc[q], abs[q]);
        }
    } else {
        for (s, b) in state.iter_mut().zip(group) {
            let (mut acc, mut abs) = ([load(s)], [s.pre_abs]);
            sum_rows_body::<1, PRE>([&b[rows.clone()]], &mut acc, &mut abs);
            store(s, acc[0], abs[0]);
        }
    }
}

/// Checksummed `C ← alpha·A·B + beta·C` over the blocked DGEMM kernel.
///
/// Column sums of `A` and the pre-call `C` give the checksum image
/// `pred_j = beta·s0_j + alpha·Σ_p sA_p·B_pj`; after the multiply every
/// column of `C` is verified against it. [`AbftMode::Correct`] rebuilds a
/// mismatching column from the snapshot by the kernel's own per-element
/// chain (`beta`-scale, then `k` ascending `c += a·(alpha·b)`), bitwise
/// equal to an uncorrupted [`crate::dgemm::blocked`] run.
///
/// `inject` flips bit `.1` of word `.0` of `C` after the multiply;
/// `None` runs clean. Returns the observation/cost report.
///
/// # Panics
///
/// Panics on dimension mismatch or a zero block size.
#[allow(clippy::too_many_arguments)]
pub fn checked_multiply(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    block: usize,
    mode: AbftMode,
    pool: Option<&WorkerPool>,
    inject: Option<(usize, u32)>,
) -> AbftReport {
    let (m, kdim, ncols) = (a.rows(), a.cols(), b.cols());
    let mut report = AbftReport::default();
    let protect = mode != AbftMode::Off;

    let mut s0 = vec![0.0f64; ncols];
    let mut s0_abs = vec![0.0f64; ncols];
    let mut sa = vec![0.0f64; kdim];
    let mut sa_abs = vec![0.0f64; kdim];
    let mut snapshot: Vec<f64> = Vec::new();
    if protect {
        for j in 0..ncols {
            let mut acc = Neumaier::default();
            let mut abs = 0.0f64;
            for &v in c.col(j) {
                acc.add(v);
                abs += v.abs();
            }
            s0[j] = acc.value();
            s0_abs[j] = abs;
        }
        for p in 0..kdim {
            let mut acc = Neumaier::default();
            let mut abs = 0.0f64;
            for &v in a.col(p) {
                acc.add(v);
                abs += v.abs();
            }
            sa[p] = acc.value();
            sa_abs[p] = abs;
        }
        if mode == AbftMode::Correct {
            snapshot = c.as_slice().to_vec();
        }
        report.checksum_flops += (5 * m * ncols + 5 * m * kdim) as f64;
    }

    match pool {
        Some(p) => crate::dgemm::blocked_parallel(alpha, a, b, beta, c, block, p),
        None => crate::dgemm::blocked(alpha, a, b, beta, c, block),
    }

    if let Some((word, bit)) = inject {
        flip_bit(c, word, bit);
    }

    if protect {
        report.checksum_flops += (ncols * (4 * kdim + 4 * m + 4)) as f64;
        for j in 0..ncols {
            let bcol = b.col(j);
            let mut pred = Neumaier::seeded(beta * s0[j]);
            let mut dot_abs = 0.0f64;
            for p in 0..kdim {
                pred.add(alpha * (sa[p] * bcol[p]));
                dot_abs += sa_abs[p] * bcol[p].abs();
            }
            let abs_scale = beta.abs() * s0_abs[j] + alpha.abs() * dot_abs;
            let tol = column_tolerance(kdim, abs_scale);
            let actual = full_col_sum(c, j);
            let delta = (actual - pred.value()).abs();
            // NaN counts as a mismatch, same as the factorization check.
            if delta > tol || delta.is_nan() {
                report.mismatches += 1;
                if mode == AbftMode::Correct {
                    repair_gemm_column(alpha, a, b, beta, c, &snapshot, j);
                    report.recompute_flops += (2 * kdim * m + 4 * m) as f64;
                    let again = (full_col_sum(c, j) - pred.value()).abs();
                    if again <= tol {
                        report.columns_recomputed += 1;
                    }
                }
            }
        }
    }
    report
}

fn full_col_sum(c: &Matrix, j: usize) -> f64 {
    let mut acc = Neumaier::default();
    for &v in c.col(j) {
        acc.add(v);
    }
    acc.value()
}

/// Rebuilds `C`'s column `j` by the blocked kernel's per-element chain:
/// `beta`-scale the snapshot, then accumulate `a·(alpha·b)` with `k`
/// ascending — one rounding per multiply, one per add, exactly as the
/// packed kernel retires them.
fn repair_gemm_column(
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
    snapshot: &[f64],
    j: usize,
) {
    let (m, kdim) = (a.rows(), a.cols());
    let col = c.col_mut(j);
    col.copy_from_slice(&snapshot[j * m..(j + 1) * m]);
    if beta != 1.0 {
        for v in col.iter_mut() {
            *v *= beta;
        }
    }
    let a_data = a.as_slice();
    let bcol = b.col(j);
    for p in 0..kdim {
        let f = alpha * bcol[p];
        let acol = &a_data[p * m..(p + 1) * m];
        for (cv, &av) in col.iter_mut().zip(acol) {
            *cv += av * f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgemm;
    use crate::lu::{hpl_flops, hpl_residual, reference, HPL_RESIDUAL_THRESHOLD};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// Neumaier's magnitude-branched accumulator, the oracle for the
    /// branch-free one.
    #[derive(Debug, Clone, Copy, Default)]
    struct BranchyNeumaier {
        sum: f64,
        comp: f64,
    }

    impl BranchyNeumaier {
        fn seeded(v: f64) -> Self {
            BranchyNeumaier { sum: v, comp: 0.0 }
        }

        fn add(&mut self, v: f64) {
            let t = self.sum + v;
            if self.sum.abs() >= v.abs() {
                self.comp += (self.sum - t) + v;
            } else {
                self.comp += (v - t) + self.sum;
            }
            self.sum = t;
        }

        fn value(&self) -> f64 {
            self.sum + self.comp
        }
    }

    fn branchy_sum(col: &[f64]) -> (f64, f64) {
        let mut acc = BranchyNeumaier::default();
        let mut abs = 0.0f64;
        for &v in col {
            acc.add(v);
            abs += v.abs();
        }
        (acc.value(), abs)
    }

    /// The serial two-pass verifier the tiled one replaced: the whole
    /// trailing block is summed before the update and again after it,
    /// with the branchy accumulator, and an injected flip lands after
    /// the whole update.
    fn two_pass_protected(
        mut a: Matrix,
        block: usize,
        mode: AbftMode,
        inject: Option<SdcInjection>,
    ) -> Result<(LuFactorization, AbftReport), LuError> {
        let n = a.rows();
        let mut pivots = vec![0usize; n];
        let mut report = AbftReport::default();
        let mut snapshot: Vec<f64> = Vec::new();
        for (panel_index, k) in (0..n).step_by(block).enumerate() {
            let kb = block.min(n - k);
            factor_panel(&mut a, k, kb, &mut pivots)?;
            let t = n - (k + kb);
            let (s_pre, lsum): (Vec<_>, Vec<_>) = (
                (k + kb..n)
                    .map(|jj| branchy_sum(&a.col(jj)[k + kb..]))
                    .collect(),
                (k..k + kb)
                    .map(|p| branchy_sum(&a.col(p)[k + kb..]))
                    .collect(),
            );
            if mode == AbftMode::Correct {
                snapshot.clear();
                for jj in k + kb..n {
                    snapshot.extend_from_slice(&a.col(jj)[k + kb..]);
                }
            }
            update_trailing(&mut a, k, kb, None, None);
            if let Some(i) = inject.filter(|i| i.panel == panel_index) {
                flip_bit(&mut a, i.word, i.bit);
            }
            if t == 0 {
                continue;
            }
            report.checksum_flops += (9 * t * t + 9 * t * kb) as f64;
            for jj in k + kb..n {
                let (s, s_abs) = s_pre[jj - k - kb];
                let mut pred = BranchyNeumaier::seeded(s);
                let mut dot_abs = 0.0f64;
                for (p, &(ls, la)) in lsum.iter().enumerate() {
                    let u = a[(k + p, jj)];
                    pred.add(-(ls * u));
                    dot_abs += la * u.abs();
                }
                let pred = pred.value();
                let tol = column_tolerance(kb, s_abs + 2.0 * dot_abs);
                let delta = (branchy_sum(&a.col(jj)[k + kb..]).0 - pred).abs();
                if delta > tol || delta.is_nan() {
                    report.mismatches += 1;
                    if mode == AbftMode::Correct {
                        repair_column(&mut a, &snapshot, k, kb, jj, t);
                        report.recompute_flops += (2 * kb * t + 4 * t + 4 * kb) as f64;
                        if (branchy_sum(&a.col(jj)[k + kb..]).0 - pred).abs() <= tol {
                            report.columns_recomputed += 1;
                        }
                    }
                }
            }
            report.panels_verified += 1;
        }
        apply_deferred_swaps(&mut a, &pivots, block);
        Ok((LuFactorization::from_parts(a, pivots, block), report))
    }

    /// The unpacked reference factors of `a`.
    fn reference_factor(a: &Matrix, nb: usize) -> (Vec<f64>, Vec<usize>) {
        let mut data = a.as_slice().to_vec();
        let pivots = reference::factor(&mut data, a.rows(), nb).expect("nonsingular");
        (data, pivots)
    }

    fn bits(a: &Matrix) -> Vec<u64> {
        a.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_same_run(
        fused: &Result<(LuFactorization, AbftReport), LuError>,
        oracle: &Result<(LuFactorization, AbftReport), LuError>,
        label: &str,
    ) -> Result<(), TestCaseError> {
        match (fused, oracle) {
            (Ok((lu, r)), Ok((lu_ref, r_ref))) => {
                prop_assert_eq!(r.panels_verified, r_ref.panels_verified, "{}", label);
                prop_assert_eq!(r.mismatches, r_ref.mismatches, "{}", label);
                prop_assert_eq!(r.columns_recomputed, r_ref.columns_recomputed, "{}", label);
                prop_assert_eq!(
                    r.checksum_flops.to_bits(),
                    r_ref.checksum_flops.to_bits(),
                    "{}",
                    label
                );
                prop_assert_eq!(
                    r.recompute_flops.to_bits(),
                    r_ref.recompute_flops.to_bits(),
                    "{}",
                    label
                );
                prop_assert_eq!(bits(lu.packed()), bits(lu_ref.packed()), "{}", label);
                prop_assert_eq!(lu.pivots(), lu_ref.pivots(), "{}", label);
            }
            (fused, oracle) => {
                prop_assert_eq!(fused.as_ref().err(), oracle.as_ref().err(), "{}", label)
            }
        }
        Ok(())
    }

    /// Pools of one to four workers, shared by every case.
    fn pools() -> &'static [WorkerPool] {
        static POOLS: OnceLock<Vec<WorkerPool>> = OnceLock::new();
        POOLS.get_or_init(|| (1..=4).map(WorkerPool::new).collect())
    }

    /// An injection into `region` of a panel that still has a trailing
    /// block (the last panel when none has): 0 trailing rows, 1 `U12`
    /// tops, 2 `L21`, 3 factored columns above the trailing rows, 4 the
    /// last panel, anything else none.
    fn injection(
        n: usize,
        nb: usize,
        region: usize,
        pick: (usize, usize, usize),
        bit: u32,
    ) -> Option<SdcInjection> {
        let panels = n.div_ceil(nb);
        let (p, x, y) = pick;
        if region > 4 {
            return None;
        }
        if region == 4 || panels < 2 {
            return Some(SdcInjection {
                panel: panels - 1,
                word: x * n + y % n,
                bit,
            });
        }
        let panel = p % (panels - 1);
        let (k, kb) = (panel * nb, nb);
        let t = n - (k + kb);
        let (col, row) = match region {
            0 => (k + kb + x % t, k + kb + y % t),
            1 => (k + kb + x % t, k + y % kb),
            2 => (k + x % kb, k + kb + y % t),
            _ => (x % (k + kb), y % (k + kb)),
        };
        Some(SdcInjection {
            panel,
            word: col * n + row,
            bit,
        })
    }

    fn system(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, 1, &mut rng);
        (a, b.as_slice().to_vec())
    }

    #[test]
    fn clean_protected_factor_is_bitwise_the_baseline() {
        let (a, _) = system(96, 7);
        let (base, base_pivots) = reference_factor(&a, 24);
        for mode in [AbftMode::Off, AbftMode::Detect, AbftMode::Correct] {
            let (lu, report) = factor_protected(a.clone(), 24, mode, None, None).unwrap();
            assert_eq!(lu.packed().as_slice(), &base[..], "{mode:?}");
            assert_eq!(lu.pivots(), &base_pivots[..]);
            assert_eq!(report.mismatches, 0);
        }
        let pool = WorkerPool::new(3);
        let (lu, _) = factor_protected(a, 24, AbftMode::Detect, Some(&pool), None).unwrap();
        assert_eq!(lu.packed().as_slice(), &base[..]);
    }

    #[test]
    fn trailing_flip_is_detected_and_corrected_bitwise() {
        let (a, b) = system(96, 11);
        let (clean, _) = reference_factor(&a, 24);
        // Panel 0, a word deep inside the trailing block, exponent bit.
        let inject = SdcInjection {
            panel: 0,
            word: 60 * 96 + 70,
            bit: 62,
        };
        let (_, detect) =
            factor_protected(a.clone(), 24, AbftMode::Detect, None, Some(inject)).unwrap();
        assert!(detect.mismatches >= 1, "flip must trip the panel checksum");
        assert_eq!(detect.columns_recomputed, 0);

        let (lu, correct) =
            factor_protected(a.clone(), 24, AbftMode::Correct, None, Some(inject)).unwrap();
        assert_eq!(correct.columns_recomputed, correct.mismatches);
        assert_eq!(
            lu.packed().as_slice(),
            &clean[..],
            "repair must reproduce the clean factors bit-for-bit"
        );
        let x = lu.solve(&b);
        assert!(hpl_residual(&a, &x, &b) < HPL_RESIDUAL_THRESHOLD);
    }

    #[test]
    fn off_mode_rides_the_flip_to_a_failed_residual() {
        let (a, b) = system(96, 11);
        let inject = SdcInjection {
            panel: 0,
            word: 60 * 96 + 70,
            bit: 62,
        };
        let (lu, report) =
            factor_protected(a.clone(), 24, AbftMode::Off, None, Some(inject)).unwrap();
        assert_eq!(report.panels_verified, 0);
        let x = lu.solve(&b);
        assert!(
            hpl_residual(&a, &x, &b) >= HPL_RESIDUAL_THRESHOLD,
            "an exponent flip in the live panel must poison the residual"
        );
    }

    #[test]
    fn factored_region_flip_escapes_panel_checks_but_not_the_residual() {
        let (a, b) = system(96, 13);
        // Flip after the *last* panel: lands in finished factors, where no
        // further panel verification runs.
        let inject = SdcInjection {
            panel: 3,
            word: 10 * 96 + 50,
            bit: 51,
        };
        let (lu, report) =
            factor_protected(a.clone(), 24, AbftMode::Detect, None, Some(inject)).unwrap();
        assert_eq!(report.mismatches, 0, "no trailing block left to check");
        let x = lu.solve(&b);
        let residual = hpl_residual(&a, &x, &b);
        assert!(
            residual >= HPL_RESIDUAL_THRESHOLD || residual.is_nan(),
            "a top-mantissa flip in L must fail the residual, got {residual}"
        );
    }

    #[test]
    fn protected_parallel_detects_and_repairs_like_serial() {
        let (a, _) = system(128, 17);
        let (clean, _) = reference_factor(&a, 32);
        let pool = WorkerPool::new(4);
        let inject = SdcInjection {
            panel: 1,
            word: 90 * 128 + 100,
            bit: 61,
        };
        let (lu, report) =
            factor_protected(a, 32, AbftMode::Correct, Some(&pool), Some(inject)).unwrap();
        assert!(report.mismatches >= 1);
        assert_eq!(report.columns_recomputed, report.mismatches);
        assert_eq!(lu.packed().as_slice(), &clean[..]);
    }

    #[test]
    fn branch_free_add_matches_branchy_neumaier() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let sequences: [&[f64]; 9] = [
            &[1e16, 1.0, -1e16, 1.0, 3.0e-17, -2.0],
            &[1.0, 1e100, 1.0, -1e100, 1e-300, -1e-300],
            &[0.1, 0.2, 0.3, -0.6, 1e-17, -1e-17],
            &[-0.0, -0.0, 0.0, -0.0],
            &[1.5, -1.5, -0.0, 2.0f64.powi(-1074)],
            &[
                tiny,
                -tiny,
                tiny * 3.0,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE / 3.0,
            ],
            &[f64::MAX, f64::MAX, -f64::MAX, 1.0],
            &[1.0, f64::INFINITY, 2.0, f64::NEG_INFINITY, 3.0],
            &[2.0, f64::NAN, -1.0, 1e300],
        ];
        for seq in sequences {
            for seed in [0.0, -0.0, 1.0, -3.5e-310, 1e308] {
                let mut branchy = BranchyNeumaier::seeded(seed);
                let mut free = Neumaier::seeded(seed);
                for &v in seq {
                    branchy.add(v);
                    free.add(v);
                    let (b, f) = (branchy.value(), free.value());
                    // NaN payloads carry no meaning; every other value,
                    // signed zeros included, must match bit for bit.
                    assert!(
                        b.to_bits() == f.to_bits() || (b.is_nan() && f.is_nan()),
                        "seed {seed:e}, {seq:?}: branchy {b:e} vs branch-free {f:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_lane_sums_match_the_one_lane_chain() {
        let mut rng = StdRng::seed_from_u64(29);
        let noise = Matrix::random(4, 75, &mut rng);
        let mut cols: Vec<Vec<f64>> = noise.as_slice().chunks(75).map(|c| c.to_vec()).collect();
        // Mixed magnitudes, cancellation, subnormals and specials.
        cols[1][3] = 1e300;
        cols[1][9] = -1e300;
        cols[2][0] = f64::from_bits(1);
        cols[2][40] = -0.0;
        cols[3][17] = f64::INFINITY;
        for rows in [0..0, 0..3, 0..4, 5..48, 0..75] {
            let group = [0, 1, 2, 3].map(|q| &cols[q][rows.clone()]);
            let seed = [-0.0, 1.0, 2.5e-310, 0.0];
            let mut acc = seed.map(Neumaier::seeded);
            let mut abs = [0.5, 0.0, 1.0, 2.0];
            sum_rows4::<true>(group, &mut acc, &mut abs);
            let mut portable = seed.map(Neumaier::seeded);
            let mut portable_abs = [0.5, 0.0, 1.0, 2.0];
            sum_rows_body::<4, true>(group, &mut portable, &mut portable_abs);
            for q in 0..4 {
                let mut one = [Neumaier::seeded(seed[q])];
                let mut one_abs = [[0.5, 0.0, 1.0, 2.0][q]];
                sum_rows_body::<1, true>([group[q]], &mut one, &mut one_abs);
                for (lane, (sum, abs)) in [(acc[q], abs[q]), (portable[q], portable_abs[q])]
                    .into_iter()
                    .enumerate()
                {
                    assert_eq!(
                        sum.sum.to_bits(),
                        one[0].sum.to_bits(),
                        "{rows:?} {q} {lane}"
                    );
                    let (c, c1) = (sum.comp, one[0].comp);
                    assert!(c.to_bits() == c1.to_bits() || (c.is_nan() && c1.is_nan()));
                    assert_eq!(abs.to_bits(), one_abs[0].to_bits(), "{rows:?} {q} {lane}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tiled verification reproduces the serial two-pass verifier:
        /// report, factors and pivots, bit for bit, at every worker count,
        /// for a flip in each region the checksums treat differently.
        #[test]
        fn fused_verification_matches_the_two_pass_reference(
            n in 1usize..40,
            nb in 1usize..16,
            seed in 0u64..1000,
            correct in 0usize..2,
            region in 0usize..6,
            pick in (0usize..64, 0usize..4096, 0usize..4096),
            bit in 0u32..64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::random(n, n, &mut rng);
            let mode = if correct == 1 { AbftMode::Correct } else { AbftMode::Detect };
            let inject = injection(n, nb, region, pick, bit);
            let oracle = two_pass_protected(a.clone(), nb, mode, inject);
            let serial = factor_protected(a.clone(), nb, mode, None, inject);
            assert_same_run(&serial, &oracle, "no pool")?;
            for pool in pools() {
                let fused = factor_protected(a.clone(), nb, mode, Some(pool), inject);
                assert_same_run(&fused, &oracle, &format!("{} workers", pool.size()))?;
            }
        }
    }

    #[test]
    fn checksum_overhead_stays_modest() {
        let (a, _) = system(256, 19);
        let (_, report) = factor_protected(a, 64, AbftMode::Detect, None, None).unwrap();
        let overhead = report.overhead_vs(hpl_flops(256));
        assert!(overhead > 0.0 && overhead < 0.15, "overhead {overhead}");
    }

    #[test]
    fn checked_dgemm_detects_and_repairs_a_flip() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = Matrix::random(64, 48, &mut rng);
        let b = Matrix::random(48, 56, &mut rng);
        let c0 = Matrix::random(64, 56, &mut rng);

        let mut reference = c0.clone();
        dgemm::blocked(1.5, &a, &b, 0.5, &mut reference, 16);

        let mut clean = c0.clone();
        let report = checked_multiply(
            1.5,
            &a,
            &b,
            0.5,
            &mut clean,
            16,
            AbftMode::Detect,
            None,
            None,
        );
        assert_eq!(report.mismatches, 0);
        assert_eq!(clean.as_slice(), reference.as_slice());

        let mut poisoned = c0.clone();
        let report = checked_multiply(
            1.5,
            &a,
            &b,
            0.5,
            &mut poisoned,
            16,
            AbftMode::Correct,
            None,
            Some((17 * 64 + 30, 62)),
        );
        assert_eq!(report.mismatches, 1);
        assert_eq!(report.columns_recomputed, 1);
        assert_eq!(
            poisoned.as_slice(),
            reference.as_slice(),
            "repair must reproduce the blocked kernel bit-for-bit"
        );
        assert!(report.recompute_flops > 0.0);
    }

    #[test]
    fn report_merges_and_rates() {
        let mut a = AbftReport {
            panels_verified: 1,
            mismatches: 1,
            columns_recomputed: 1,
            checksum_flops: 50.0,
            recompute_flops: 10.0,
        };
        let b = AbftReport {
            panels_verified: 2,
            checksum_flops: 40.0,
            ..AbftReport::default()
        };
        a.merge(&b);
        assert_eq!(a.panels_verified, 3);
        assert!((a.overhead_vs(1000.0) - 0.1).abs() < 1e-12);
        assert_eq!(AbftReport::default().overhead_vs(0.0), 0.0);
    }
}
