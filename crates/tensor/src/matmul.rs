//! Cache-blocked, panel-packed matrix multiplication kernels.
//!
//! Both products (`A·B` and `A·Bᵀ`) reduce to the same micro-kernel:
//! the RHS is repacked into [`NR`]-wide column panels laid out k-major
//! (`panel[kk * NR + jr]`), and output rows are produced four at a time
//! against each panel with an `NR`-lane accumulator per row. The inner
//! loop is a broadcast multiply-add over fixed-width arrays, the exact
//! shape LLVM's autovectorizer turns into SIMD mul+add chains; the panel
//! layout makes every load contiguous regardless of whether the logical
//! RHS was `k x n` or (for `A·Bᵀ`) `n x k`.
//!
//! Blocking: output rows are walked in [`MR`]-row blocks with the panel
//! loop outside the row loop, so one ~`k·NR·4`-byte panel stays resident
//! in L1 while it is reused across the whole row block; inside a block
//! the 4×NR micro-kernel amortizes each panel load across four rows.
//! The k dimension is contracted in source order, so results are
//! bit-identical to the naive triple loop.
//!
//! The band kernel is compiled twice — portable baseline and an AVX2
//! `#[target_feature]` re-compilation of the *same body* — and
//! dispatched at runtime (`simd::simd_level`). Per-lane operation order
//! is identical at either width, so SIMD-on and forced-scalar results
//! are bit-identical (see `src/simd.rs`).
//!
//! Products below [`PAR_MIN_MADDS`] multiply-adds never leave the caller
//! thread — waking a helper and waiting for it costs more than small
//! kernels take (a 3-token grounding query, a SAM prompt head, the
//! 1024×8×32 patch projection of a 256² slice), and the serving layer
//! already parallelizes across jobs at that scale.

use crate::simd::{simd_level, SimdLevel};
use crate::workspace::Workspace;
use zenesis_par::{current_threads, in_worker, par_rows_min};

/// Panel width: accumulator lanes per output-column group.
pub const NR: usize = 8;

/// Row-block height: output rows sharing one L1-resident panel sweep.
pub const MR: usize = 32;

/// Multiply-add count below which the product runs on the caller thread.
///
/// A 2^18 product takes ≈ 16 µs on one thread, and a helper that has to
/// be woken arrives later than that: measured on the resident team, two
/// threads run it at 0.4–0.5× the speed of one (docs/PERFORMANCE.md has
/// the sweep). The gate sits above grounding's 1024×8×32 = 2^18 shape,
/// the one product of that size a 256² slice issues.
pub const PAR_MIN_MADDS: usize = 1 << 19;

/// Pack `rhs` (`k x n`, row-major) into NR-wide k-major column panels.
/// `packed` must hold `n.div_ceil(NR) * NR * k` elements; tail columns
/// are zero-filled so the micro-kernel needs no column bounds checks.
fn pack_rhs(rhs: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    let n_panels = n.div_ceil(NR);
    debug_assert_eq!(packed.len(), n_panels * NR * k);
    for p in 0..n_panels {
        let j0 = p * NR;
        let width = NR.min(n - j0);
        let panel = &mut packed[p * NR * k..(p + 1) * NR * k];
        for kk in 0..k {
            let src = &rhs[kk * n + j0..kk * n + j0 + width];
            let dst = &mut panel[kk * NR..kk * NR + NR];
            dst[..width].copy_from_slice(src);
            dst[width..].fill(0.0);
        }
    }
}

/// Pack `rhs` (`n x k`, row-major) as if transposed: panel `p` holds
/// rhs rows `p*NR..p*NR+NR` interleaved k-major, so `A · rhsᵀ` uses the
/// same micro-kernel as `A · B` without materializing the transpose.
fn pack_rhs_t(rhs: &[f32], k: usize, n: usize, packed: &mut [f32]) {
    let n_panels = n.div_ceil(NR);
    debug_assert_eq!(packed.len(), n_panels * NR * k);
    for p in 0..n_panels {
        let j0 = p * NR;
        let width = NR.min(n - j0);
        let panel = &mut packed[p * NR * k..(p + 1) * NR * k];
        for jr in 0..width {
            let row = &rhs[(j0 + jr) * k..(j0 + jr + 1) * k];
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * NR + jr] = v;
            }
        }
        if width < NR {
            for kk in 0..k {
                panel[kk * NR + width..kk * NR + NR].fill(0.0);
            }
        }
    }
}

/// `R` output rows against *two* adjacent full panels: per `k` step, two
/// panel vector loads are contracted against `R` broadcast LHS values
/// (`2R` independent `NR`-lane accumulators). Two panels per broadcast is
/// the shape LLVM compiles to clean `vbroadcastss`+`vmulps`+`vaddps`
/// chains — one panel with many broadcasts trips its SLP pass into
/// cross-row shuffle soup. Per-element contraction order is `kk`
/// ascending either way, so panel grouping never changes results.
#[inline(always)]
fn micro_rx2<const R: usize>(
    a: [&[f32]; R],
    pa: &[f32],
    pb: &[f32],
    acc_a: &mut [[f32; NR]; R],
    acc_b: &mut [[f32; NR]; R],
) {
    let kx = pa.len() / NR;
    // Re-slice to the provable trip count so the `a[r][kk]` broadcasts
    // carry no bounds checks.
    let a = a.map(|s| &s[..kx]);
    for (kk, (ca, cb)) in pa.chunks_exact(NR).zip(pb.chunks_exact(NR)).enumerate() {
        for r in 0..R {
            let v = a[r][kk];
            for jr in 0..NR {
                acc_a[r][jr] += v * ca[jr];
            }
            for jr in 0..NR {
                acc_b[r][jr] += v * cb[jr];
            }
        }
    }
}

/// `R` output rows against one (possibly tail-narrow) panel — the
/// remainder companion of [`micro_rx2`], same per-row contraction order.
#[inline(always)]
fn micro_rx1<const R: usize>(a: [&[f32]; R], pa: &[f32], acc: &mut [[f32; NR]; R]) {
    let kx = pa.len() / NR;
    let a = a.map(|s| &s[..kx]);
    for (kk, ca) in pa.chunks_exact(NR).enumerate() {
        for r in 0..R {
            let v = a[r][kk];
            for jr in 0..NR {
                acc[r][jr] += v * ca[jr];
            }
        }
    }
}

/// Compute one band of output rows (`row_start..row_start + band_rows`)
/// against the fully packed RHS. `#[inline(always)]` so the dispatch
/// wrappers below re-compile this body (and the micro-kernels it inlines)
/// under their own target features.
#[inline(always)]
fn band_kernel_impl(
    lhs: &[f32],
    k: usize,
    n: usize,
    packed: &[f32],
    row_start: usize,
    band: &mut [f32],
) {
    let n_panels = n.div_ceil(NR);
    // Full-width panels are consumed two at a time by the paired
    // micro-kernel; a leftover full panel and the zero-padded tail panel
    // take the single-panel path.
    let pair_panels = (n / NR) & !1;
    let band_rows = band.len() / n;
    let mut rb = 0;
    while rb < band_rows {
        let rows_here = MR.min(band_rows - rb);
        let r_end = rb + rows_here;
        // Panel loop outside the row loop: the panel pair stays in L1
        // while every row of the block consumes it.
        let mut p = 0;
        while p < pair_panels {
            let pa = &packed[p * NR * k..(p + 1) * NR * k];
            let pb = &packed[(p + 1) * NR * k..(p + 2) * NR * k];
            let j0 = p * NR;
            let mut r = rb;
            while r + 4 <= r_end {
                let i = row_start + r;
                let a_rows = [
                    &lhs[i * k..(i + 1) * k],
                    &lhs[(i + 1) * k..(i + 2) * k],
                    &lhs[(i + 2) * k..(i + 3) * k],
                    &lhs[(i + 3) * k..(i + 4) * k],
                ];
                let mut acc_a = [[0.0f32; NR]; 4];
                let mut acc_b = [[0.0f32; NR]; 4];
                micro_rx2(a_rows, pa, pb, &mut acc_a, &mut acc_b);
                for dr in 0..4 {
                    // Both panels are full width: fixed-size copies become
                    // single vector stores, not memcpy calls.
                    let o0 = (r + dr) * n + j0;
                    band[o0..o0 + NR].copy_from_slice(&acc_a[dr]);
                    band[o0 + NR..o0 + 2 * NR].copy_from_slice(&acc_b[dr]);
                }
                r += 4;
            }
            while r < r_end {
                let i = row_start + r;
                let mut acc_a = [[0.0f32; NR]; 1];
                let mut acc_b = [[0.0f32; NR]; 1];
                micro_rx2([&lhs[i * k..(i + 1) * k]], pa, pb, &mut acc_a, &mut acc_b);
                let o0 = r * n + j0;
                band[o0..o0 + NR].copy_from_slice(&acc_a[0]);
                band[o0 + NR..o0 + 2 * NR].copy_from_slice(&acc_b[0]);
                r += 1;
            }
            p += 2;
        }
        while p < n_panels {
            let panel = &packed[p * NR * k..(p + 1) * NR * k];
            let j0 = p * NR;
            let width = NR.min(n - j0);
            let mut r = rb;
            while r + 4 <= r_end {
                let i = row_start + r;
                let a_rows = [
                    &lhs[i * k..(i + 1) * k],
                    &lhs[(i + 1) * k..(i + 2) * k],
                    &lhs[(i + 2) * k..(i + 3) * k],
                    &lhs[(i + 3) * k..(i + 4) * k],
                ];
                let mut acc = [[0.0f32; NR]; 4];
                micro_rx1(a_rows, panel, &mut acc);
                for (dr, acc_row) in acc.iter().enumerate() {
                    let o0 = (r + dr) * n + j0;
                    band[o0..o0 + width].copy_from_slice(&acc_row[..width]);
                }
                r += 4;
            }
            while r < r_end {
                let i = row_start + r;
                let mut acc = [[0.0f32; NR]; 1];
                micro_rx1([&lhs[i * k..(i + 1) * k]], panel, &mut acc);
                band[r * n + j0..r * n + j0 + width].copy_from_slice(&acc[0][..width]);
                r += 1;
            }
            p += 1;
        }
        rb += rows_here;
    }
}

/// Portable-baseline compilation of the band kernel.
fn band_kernel_scalar(
    lhs: &[f32],
    k: usize,
    n: usize,
    packed: &[f32],
    row_start: usize,
    band: &mut [f32],
) {
    band_kernel_impl(lhs, k, n, packed, row_start, band);
}

/// AVX2 re-compilation of the identical body: the independent `NR = 8`
/// accumulator lanes widen to single 256-bit mul+add chains. No FMA is
/// emitted (the source has separate mul and add), so per-lane rounding
/// matches the scalar build exactly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn band_kernel_avx2(
    lhs: &[f32],
    k: usize,
    n: usize,
    packed: &[f32],
    row_start: usize,
    band: &mut [f32],
) {
    band_kernel_impl(lhs, k, n, packed, row_start, band);
}

/// Runtime-dispatched band kernel (see `src/simd.rs` for the contract).
fn band_kernel(lhs: &[f32], k: usize, n: usize, packed: &[f32], row_start: usize, band: &mut [f32]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level()` only reports Avx2 when the CPU supports it.
        SimdLevel::Avx2 => unsafe { band_kernel_avx2(lhs, k, n, packed, row_start, band) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => band_kernel_scalar(lhs, k, n, packed, row_start, band),
        SimdLevel::Scalar => band_kernel_scalar(lhs, k, n, packed, row_start, band),
    }
}

/// Shared driver: pack the RHS (plain or transposed layout), then fill
/// `out` (`m x n`) row-band by row-band, parallel only above the
/// small-work threshold.
#[allow(clippy::too_many_arguments)] // flat (buffer, dims) pairs keep the kernel ABI obvious
pub(crate) fn matmul_packed(
    lhs: &[f32],
    m: usize,
    k: usize,
    rhs: &[f32],
    n: usize,
    rhs_transposed: bool,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    debug_assert_eq!(lhs.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    let n_panels = n.div_ceil(NR);
    let mut packed = ws.take(n_panels * NR * k);
    if rhs_transposed {
        pack_rhs_t(rhs, k, n, &mut packed);
    } else {
        pack_rhs(rhs, k, n, &mut packed);
    }
    let madds = m * n * k;
    // `in_worker()` keeps nested calls (e.g. per-head matmuls already
    // fanned out by the attention layer) on the caller thread instead of
    // fanning out again; the bit-stability contract makes the inline and
    // fanned-out results identical anyway.
    if madds < PAR_MIN_MADDS || current_threads() <= 1 || in_worker() {
        band_kernel(lhs, k, n, &packed, 0, out);
    } else {
        let packed_ref = &packed;
        par_rows_min(out, n, 0, |row_start, band| {
            band_kernel(lhs, k, n, packed_ref, row_start, band);
        });
    }
    ws.recycle_vec(packed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, bt: bool) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for kk in 0..k {
                    let bv = if bt { b[j * k + kk] } else { b[kk * n + j] };
                    s += a[i * k + kk] * bv;
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn packed_matches_naive_exactly_on_awkward_shapes() {
        // k-order contraction means bit-identical results, not just close.
        for &(m, k, n) in &[(1, 1, 1), (1, 7, 9), (9, 1, 7), (7, 9, 1), (13, 29, 17), (33, 8, 40)] {
            let a = fill(m * k, 3 * m as u64 + n as u64);
            let b = fill(k * n, 7 * k as u64 + 1);
            let bt = fill(n * k, 11 * k as u64 + 5);
            let mut ws = Workspace::new();
            let mut out = vec![0.0; m * n];
            matmul_packed(&a, m, k, &b, n, false, &mut out, &mut ws);
            assert_eq!(out, naive(&a, m, k, &b, n, false), "plain {m}x{k}x{n}");
            matmul_packed(&a, m, k, &bt, n, true, &mut out, &mut ws);
            assert_eq!(out, naive(&a, m, k, &bt, n, true), "transposed {m}x{k}x{n}");
        }
    }

    #[test]
    fn pack_tail_is_zero_padded() {
        // n = 5: one panel, three zero lanes.
        let rhs: Vec<f32> = (0..10).map(|v| v as f32 + 1.0).collect(); // 2 x 5
        let mut packed = vec![9.9; NR * 2];
        pack_rhs(&rhs, 2, 5, &mut packed);
        assert_eq!(&packed[..5], &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(&packed[5..8], &[0.0, 0.0, 0.0]);
        assert_eq!(&packed[8..13], &[6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(&packed[13..16], &[0.0, 0.0, 0.0]);
    }
}
