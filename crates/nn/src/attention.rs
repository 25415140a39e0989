//! Scaled dot-product attention (the paper's Eq. 1), multi-head attention,
//! and the pre-norm transformer block.
//!
//! The attention forward is **fused**: [`attention_into`] packs K once
//! into `KP`-wide k-major panels (the matmul RHS layout), then walks the
//! query rows pairwise, computing each row's scores *vertically* — eight
//! scores per vector op, no horizontal reductions — then softmax and the
//! weighted-value accumulation back to back. The full `n_q x n_kv` score
//! matrix is never materialized (one `2·n_kv` scratch row plus the packed
//! keys, checked out of a [`Workspace`], are the footprint). Heads are
//! sliced as zero-copy column-band views and written straight into the
//! concatenation buffer, so [`MultiHeadAttention::forward`] performs no
//! per-head copies of Q/K/V and no re-concatenation pass.
//!
//! Two execution escalations sit on top of the fused walk. The fused
//! row loop is compiled twice — portable baseline and an AVX2
//! `#[target_feature]` re-compilation of the same body — and dispatched
//! at runtime (`zenesis_tensor::simd_level`); both builds run identical
//! per-element IEEE operations, so results are bit-identical. Above
//! [`zenesis_tensor::PAR_MIN_MADDS`] multiply-adds, query rows are split
//! into disjoint row bands (`MatViewMut::split_rows`) processed across
//! the `zenesis-par` team with a per-band scratch arena; per-row score
//! and contraction order never depends on the band boundaries, so
//! outputs are bit-stable across thread counts.

use zenesis_par::{chunk_len, current_threads, in_worker, par_for_each};
use zenesis_tensor::{
    fast_exp, gelu_inplace, layernorm_rows_into, simd_level, softmax_rows, softmax_rows_inplace,
    MatView, MatViewMut, Matrix, SimdLevel, Workspace, PAR_MIN_MADDS,
};

/// `softmax(Q K^T / sqrt(d)) V` — Eq. (1) of the paper.
///
/// `q`: `n_q x d`, `k`: `n_kv x d`, `v`: `n_kv x d_v`. Returns `n_q x d_v`.
pub fn attention(q: &Matrix, k: &Matrix, v: &Matrix) -> Matrix {
    Workspace::with(|ws| {
        let mut out = ws.matrix(q.rows(), v.cols());
        attention_into(&q.view(), &k.view(), &v.view(), &mut out.view_mut(), ws);
        out
    })
}

/// Key-panel width: 8 scores ride in one AVX2 register (two SSE2
/// registers on the baseline) through the vertical score pass.
const KP: usize = 8;

/// Minimum query rows before packing K pays for itself. The pack pass
/// costs about one query row's worth of score madds, so a 3-token
/// grounding query would spend a third of its score pass repacking;
/// below this, rows score straight off the K view instead.
const PACK_MIN_ROWS: usize = 4;

/// Horizontal dot with eight independent accumulator lanes, for the
/// direct (unpacked) small-batch scorer. Lane count and reduction tree
/// match [`score_row_direct`]'s main loop: remainder key rows go through
/// this function, and a row's score may not depend on which computed it.
#[inline(always)]
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let ac = a.chunks_exact(8);
    let bc = b.chunks_exact(8);
    let (ra, rb) = (ac.remainder(), bc.remainder());
    for (pa, pb) in ac.zip(bc) {
        for l in 0..8 {
            acc[l] += pa[l] * pb[l];
        }
    }
    for (x, y) in ra.iter().zip(rb) {
        acc[0] += x * y;
    }
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

/// One query row scored straight off the K view — the tiny-`n_q` path
/// where packing can't amortize. Four key rows in flight hide K's load
/// latency; scores use a horizontal 8-lane reduction, so this path's
/// bits differ from the packed path's only in being its own (fixed)
/// reduction order — the route depends solely on `n_q`, never on thread
/// count or SIMD level, so determinism contracts are unaffected.
#[inline(always)]
fn score_row_direct(q_row: &[f32], k: &MatView, scale: f32, scores: &mut [f32]) -> f32 {
    let n_kv = k.rows();
    let d = q_row.len();
    let mut j = 0;
    while j + 4 <= n_kv {
        let mut acc = [[0.0f32; 8]; 4];
        for (jr, a) in acc.iter_mut().enumerate() {
            let kr = &k.row(j + jr)[..d];
            for (pq, pk) in q_row.chunks_exact(8).zip(kr.chunks_exact(8)) {
                for l in 0..8 {
                    a[l] += pq[l] * pk[l];
                }
            }
            for (x, y) in q_row.chunks_exact(8).remainder().iter().zip(kr.chunks_exact(8).remainder())
            {
                a[0] += x * y;
            }
        }
        for (jr, a) in acc.iter().enumerate() {
            scores[j + jr] =
                (((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]))) * scale;
        }
        j += 4;
    }
    while j < n_kv {
        scores[j] = dot8(q_row, &k.row(j)[..d]) * scale;
        j += 1;
    }
    max8(&scores[..n_kv])
}

/// Pack the key rows into `KP`-wide k-major panels
/// (`panel[kk*KP + jr] = K[j0+jr][kk]`), tail rows zero-filled — the same
/// layout the matmul kernels use for their packed RHS. Packing is O(n_kv·d)
/// against the O(n_q·n_kv·d) score pass, done once per attention call and
/// shared by every query row and every parallel band.
fn pack_keys(k: &MatView, packed: &mut [f32]) {
    let d = k.cols();
    let n_kv = k.rows();
    let pl = KP * d;
    debug_assert_eq!(packed.len(), n_kv.div_ceil(KP) * pl);
    for (p, dst) in packed.chunks_exact_mut(pl).enumerate() {
        let j0 = p * KP;
        let rows = KP.min(n_kv - j0);
        if rows < KP {
            dst.fill(0.0);
        }
        for jr in 0..rows {
            for (kk, &x) in k.row(j0 + jr).iter().enumerate() {
                dst[kk * KP + jr] = x;
            }
        }
    }
}

/// Vertical max of a score row with eight independent lanes, reduced by a
/// fixed tree. `f32::max` ignores NaN operands, so the result — the max of
/// the non-NaN scores — does not depend on lane/tree order, and the scalar
/// and AVX2 compilations agree bit-for-bit.
#[inline(always)]
fn max8(scores: &[f32]) -> f32 {
    let mut m = [f32::NEG_INFINITY; 8];
    let ch = scores.chunks_exact(8);
    let rem = ch.remainder();
    for c in ch {
        for l in 0..8 {
            m[l] = m[l].max(c[l]);
        }
    }
    let mut r = (m[0].max(m[4]).max(m[2].max(m[6]))).max(m[1].max(m[5]).max(m[3].max(m[7])));
    for &s in rem {
        r = r.max(s);
    }
    r
}

/// One query row against four full key panels: 32 scores in flight (four
/// independent 8-lane accumulators) hide the add latency of the vertical
/// contraction. Each score is `sum_kk q[kk]*K[j][kk]` accumulated in `kk`
/// source order — no horizontal reduction anywhere, and bit-identical to
/// the naive in-order dot product.
#[inline(always)]
fn score1_full4(q: &[f32], p: [&[f32]; 4], scale: f32, out: &mut [f32]) {
    let mut acc = [[0.0f32; KP]; 4];
    let [pa, pb, pc, pd] = p;
    let it = pa
        .chunks_exact(KP)
        .zip(pb.chunks_exact(KP))
        .zip(pc.chunks_exact(KP))
        .zip(pd.chunks_exact(KP))
        .zip(q);
    for ((((ca, cb), cc), cd), &x) in it {
        for l in 0..KP {
            acc[0][l] += x * ca[l];
        }
        for l in 0..KP {
            acc[1][l] += x * cb[l];
        }
        for l in 0..KP {
            acc[2][l] += x * cc[l];
        }
        for l in 0..KP {
            acc[3][l] += x * cd[l];
        }
    }
    for (g, a) in acc.iter().enumerate() {
        for l in 0..KP {
            out[g * KP + l] = a[l] * scale;
        }
    }
}

/// One query row against one (possibly tail-padded) key panel; only the
/// `w` valid scores are written back. Accumulation order per score is
/// identical to [`score1_full4`], so panel grouping never changes results.
#[inline(always)]
fn score1_panel(q: &[f32], pa: &[f32], scale: f32, w: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; KP];
    for (ca, &x) in pa.chunks_exact(KP).zip(q) {
        for l in 0..KP {
            acc[l] += x * ca[l];
        }
    }
    for (o, a) in out[..w].iter_mut().zip(acc) {
        *o = a * scale;
    }
}

/// A *pair* of query rows against two full key panels: each panel value is
/// loaded once and contracted against both queries, halving the packed-K
/// traffic that bounds the score pass (four 8-lane accumulators in flight).
#[inline(always)]
fn score2_full2(
    q0: &[f32],
    q1: &[f32],
    pa: &[f32],
    pb: &[f32],
    scale: f32,
    out0: &mut [f32],
    out1: &mut [f32],
) {
    let mut acc = [[0.0f32; KP]; 4];
    let it = pa
        .chunks_exact(KP)
        .zip(pb.chunks_exact(KP))
        .zip(q0.iter().zip(q1));
    for ((ca, cb), (&x0, &x1)) in it {
        for l in 0..KP {
            acc[0][l] += x0 * ca[l];
        }
        for l in 0..KP {
            acc[1][l] += x0 * cb[l];
        }
        for l in 0..KP {
            acc[2][l] += x1 * ca[l];
        }
        for l in 0..KP {
            acc[3][l] += x1 * cb[l];
        }
    }
    for l in 0..KP {
        out0[l] = acc[0][l] * scale;
    }
    for l in 0..KP {
        out0[KP + l] = acc[1][l] * scale;
    }
    for l in 0..KP {
        out1[l] = acc[2][l] * scale;
    }
    for l in 0..KP {
        out1[KP + l] = acc[3][l] * scale;
    }
}

/// A pair of query rows against one (possibly tail-padded) key panel.
#[inline(always)]
fn score2_panel(
    q0: &[f32],
    q1: &[f32],
    pa: &[f32],
    scale: f32,
    w: usize,
    out0: &mut [f32],
    out1: &mut [f32],
) {
    let mut acc = [[0.0f32; KP]; 2];
    for (ca, (&x0, &x1)) in pa.chunks_exact(KP).zip(q0.iter().zip(q1)) {
        for l in 0..KP {
            acc[0][l] += x0 * ca[l];
        }
        for l in 0..KP {
            acc[1][l] += x1 * ca[l];
        }
    }
    for (o, a) in out0[..w].iter_mut().zip(acc[0]) {
        *o = a * scale;
    }
    for (o, a) in out1[..w].iter_mut().zip(acc[1]) {
        *o = a * scale;
    }
}

/// One query row's scaled scores against the packed keys, returning the
/// row max. Works for any runtime `d`: vectorization is across the eight
/// scores of a panel, not across the contraction, so no monomorphization
/// on the feature dimension is needed.
#[inline(always)]
fn score_row_packed(
    q_row: &[f32],
    packed: &[f32],
    n_kv: usize,
    scale: f32,
    scores: &mut [f32],
) -> f32 {
    let pl = KP * q_row.len();
    let full = n_kv / KP;
    let mut p = 0;
    while p + 4 <= full {
        let base = p * pl;
        score1_full4(
            q_row,
            [
                &packed[base..base + pl],
                &packed[base + pl..base + 2 * pl],
                &packed[base + 2 * pl..base + 3 * pl],
                &packed[base + 3 * pl..base + 4 * pl],
            ],
            scale,
            &mut scores[p * KP..(p + 4) * KP],
        );
        p += 4;
    }
    while p < full {
        score1_panel(q_row, &packed[p * pl..(p + 1) * pl], scale, KP, &mut scores[p * KP..]);
        p += 1;
    }
    let w = n_kv - full * KP;
    if w > 0 {
        score1_panel(q_row, &packed[full * pl..(full + 1) * pl], scale, w, &mut scores[full * KP..]);
    }
    max8(&scores[..n_kv])
}

/// Paired-row scores against the packed keys. Per-row accumulation order
/// matches [`score_row_packed`] exactly (same `kk`-ascending chain per
/// score, same [`max8`] fold), so pairing never changes a row's result —
/// which is what lets any band partition of the query rows reproduce the
/// serial output bit for bit.
#[inline(always)]
fn score_row2_packed(
    q0: &[f32],
    q1: &[f32],
    packed: &[f32],
    n_kv: usize,
    scale: f32,
    s0: &mut [f32],
    s1: &mut [f32],
) -> (f32, f32) {
    let pl = KP * q0.len();
    let full = n_kv / KP;
    let mut p = 0;
    while p + 2 <= full {
        let base = p * pl;
        let j0 = p * KP;
        let (pa, pb) = (&packed[base..base + pl], &packed[base + pl..base + 2 * pl]);
        score2_full2(q0, q1, pa, pb, scale, &mut s0[j0..], &mut s1[j0..]);
        p += 2;
    }
    if p < full {
        let j0 = p * KP;
        score2_panel(q0, q1, &packed[p * pl..(p + 1) * pl], scale, KP, &mut s0[j0..], &mut s1[j0..]);
    }
    let w = n_kv - full * KP;
    if w > 0 {
        let j0 = full * KP;
        score2_panel(q0, q1, &packed[full * pl..(full + 1) * pl], scale, w, &mut s0[j0..], &mut s1[j0..]);
    }
    (max8(&s0[..n_kv]), max8(&s1[..n_kv]))
}

/// Four query rows against two full key panels — the same 8-accumulator,
/// two-panel shape as the matmul micro-kernel (`micro_rx2::<4>`): two
/// panel loads amortize over four query broadcasts, sixteen vector madds
/// per `kk` step, and the accumulators exactly fill the AVX2 register
/// file without spilling.
#[inline(always)]
fn score4_full2(q: [&[f32]; 4], pa: &[f32], pb: &[f32], scale: f32, out: [&mut [f32]; 4]) {
    let kx = pa.len() / KP;
    let [q0, q1, q2, q3] = q.map(|s| &s[..kx]);
    // Eight named accumulator locals: in this (register-rich) surrounding
    // loop LLVM keeps row-indexed `[[f32; KP]; 4]` accumulators on the
    // stack, which costs a 2x slowdown in load-add-store traffic.
    let mut a0 = [0.0f32; KP];
    let mut a1 = [0.0f32; KP];
    let mut a2 = [0.0f32; KP];
    let mut a3 = [0.0f32; KP];
    let mut b0 = [0.0f32; KP];
    let mut b1 = [0.0f32; KP];
    let mut b2 = [0.0f32; KP];
    let mut b3 = [0.0f32; KP];
    for (kk, (ca, cb)) in pa.chunks_exact(KP).zip(pb.chunks_exact(KP)).enumerate() {
        let x0 = q0[kk];
        for l in 0..KP {
            a0[l] += x0 * ca[l];
        }
        for l in 0..KP {
            b0[l] += x0 * cb[l];
        }
        let x1 = q1[kk];
        for l in 0..KP {
            a1[l] += x1 * ca[l];
        }
        for l in 0..KP {
            b1[l] += x1 * cb[l];
        }
        let x2 = q2[kk];
        for l in 0..KP {
            a2[l] += x2 * ca[l];
        }
        for l in 0..KP {
            b2[l] += x2 * cb[l];
        }
        let x3 = q3[kk];
        for l in 0..KP {
            a3[l] += x3 * ca[l];
        }
        for l in 0..KP {
            b3[l] += x3 * cb[l];
        }
    }
    for (o, (a, b)) in out.into_iter().zip([(a0, b0), (a1, b1), (a2, b2), (a3, b3)]) {
        for l in 0..KP {
            o[l] = a[l] * scale;
        }
        for l in 0..KP {
            o[KP + l] = b[l] * scale;
        }
    }
}

/// Quad-row scores against the packed keys. Each row's `kk`-ascending
/// accumulation chain and [`max8`] fold match [`score_row_packed`]
/// exactly, so how rows are grouped (4 / 2 / 1) never changes a row's
/// scores; leftover and tail panels reuse the paired-row panel kernel on
/// each half of the quad.
#[inline(always)]
fn score_row4_packed(
    q: [&[f32]; 4],
    packed: &[f32],
    n_kv: usize,
    scale: f32,
    s: [&mut [f32]; 4],
) -> [f32; 4] {
    let [q0, q1, q2, q3] = q;
    let [s0, s1, s2, s3] = s;
    let pl = KP * q0.len();
    let full = n_kv / KP;
    let mut p = 0;
    while p + 2 <= full {
        let base = p * pl;
        let j0 = p * KP;
        let (pa, pb) = (&packed[base..base + pl], &packed[base + pl..base + 2 * pl]);
        score4_full2(
            [q0, q1, q2, q3],
            pa,
            pb,
            scale,
            [&mut s0[j0..], &mut s1[j0..], &mut s2[j0..], &mut s3[j0..]],
        );
        p += 2;
    }
    if p < full {
        let j0 = p * KP;
        let pa = &packed[p * pl..(p + 1) * pl];
        score2_panel(q0, q1, pa, scale, KP, &mut s0[j0..], &mut s1[j0..]);
        score2_panel(q2, q3, pa, scale, KP, &mut s2[j0..], &mut s3[j0..]);
    }
    let w = n_kv - full * KP;
    if w > 0 {
        let j0 = full * KP;
        let pa = &packed[full * pl..(full + 1) * pl];
        score2_panel(q0, q1, pa, scale, w, &mut s0[j0..], &mut s1[j0..]);
        score2_panel(q2, q3, pa, scale, w, &mut s2[j0..], &mut s3[j0..]);
    }
    [max8(&s0[..n_kv]), max8(&s1[..n_kv]), max8(&s2[..n_kv]), max8(&s3[..n_kv])]
}

/// Fused `softmax(Q Kᵀ / sqrt(d)) V` over strided views, row-band by
/// row-band: for each query row, scores are computed into a reused
/// scratch row, normalized in place, and immediately contracted against
/// V — the score matrix never exists as a whole. `out` must be
/// `n_q x d_v` (any row stride, e.g. a column band of a concat buffer).
///
/// Very large self-attention shapes (many query rows against a K+V
/// working set that overflows the close caches) are instead routed
/// through the packed matmul kernels with a materialized score matrix —
/// see `UNFUSED_MIN_KV_FLOATS` for the measured crossover.
pub fn attention_into(
    q: &MatView,
    k: &MatView,
    v: &MatView,
    out: &mut MatViewMut,
    ws: &mut Workspace,
) {
    assert_eq!(q.cols(), k.cols(), "q/k feature dims differ");
    assert_eq!(k.rows(), v.rows(), "k/v token counts differ");
    assert_eq!(
        (out.rows(), out.cols()),
        (q.rows(), v.cols()),
        "attention output shape mismatch"
    );
    let n_kv = k.rows();
    let scale = 1.0 / (q.cols() as f32).sqrt();
    if q.rows() >= UNFUSED_MIN_ROWS && n_kv * (q.cols() + v.cols()) >= UNFUSED_MIN_KV_FLOATS {
        attention_unfused(q, k, v, out, ws);
        return;
    }
    if q.rows() < PACK_MIN_ROWS {
        // Tiny query batch (a 3-token grounding query): packing K costs
        // about one row's score madds — score directly instead.
        let mut scores = ws.take(4 * n_kv);
        fused_rows(q, k, None, v, scale, 0, out, &mut scores);
        ws.recycle_vec(scores);
        return;
    }
    // Pack K once for the whole call: every query row (and every parallel
    // band) scores against the same panels.
    let mut packed = ws.take(n_kv.div_ceil(KP) * KP * q.cols());
    pack_keys(k, &mut packed);
    // A strided V (a head's column band) makes the value contraction
    // re-stream one scattered cache line per value row for every query
    // row; materializing V contiguous once keeps that sweep L1-resident.
    // Same floats in the same order, so results are unchanged.
    let vmat = if v.is_contiguous() { None } else { Some(view_to_matrix_ws(v, ws)) };
    let vv = match &vmat {
        Some(m) => m.view(),
        None => *v,
    };
    let madds = q.rows() * n_kv * (q.cols() + v.cols());
    if madds >= PAR_MIN_MADDS && current_threads() > 1 && !in_worker() {
        attention_fused_par(q, k, &packed, &vv, scale, out);
    } else {
        let mut scores = ws.take(4 * n_kv);
        fused_rows(q, k, Some(&packed), &vv, scale, 0, out, &mut scores);
        ws.recycle_vec(scores);
    }
    if let Some(m) = vmat {
        ws.recycle(m);
    }
    ws.recycle_vec(packed);
}

/// The fused score → softmax → contraction walk over the query rows
/// covered by `out` (global query rows `q_r0 .. q_r0 + out.rows()`).
/// Query rows go two at a time: the score pass loads each packed-key
/// panel value once and contracts it against both query rows, halving K
/// traffic. Each row's result is independent of how rows are grouped
/// ([`score_row2_packed`] and [`score_row_packed`] contract each row
/// identically), so any band partition of the query rows reproduces the
/// serial output bit for bit.
///
/// `#[inline(always)]` so the dispatch wrappers below re-compile this
/// body — and the score/finish kernels it inlines — under their own
/// target features.
#[allow(clippy::too_many_arguments)] // mirrors the twice-compiled kernel ABI
#[inline(always)]
fn fused_rows_impl(
    q: &MatView,
    k: &MatView,
    packed: Option<&[f32]>,
    v: &MatView,
    scale: f32,
    q_r0: usize,
    out: &mut MatViewMut,
    scores: &mut [f32],
) {
    let n_kv = v.rows();
    let (sa, sb) = scores.split_at_mut(2 * n_kv);
    let (s0, s1) = sa.split_at_mut(n_kv);
    let (s2, s3) = sb.split_at_mut(n_kv);
    let rows = out.rows();
    let Some(packed) = packed else {
        // Tiny query batch: score straight off the K view (see
        // `PACK_MIN_ROWS`).
        for r in 0..rows {
            let max = score_row_direct(q.row(q_r0 + r), k, scale, s0);
            finish_row(s0, max, v, out.row_mut(r));
        }
        return;
    };
    let mut r = 0;
    while r + 4 <= rows {
        let m = score_row4_packed(
            [q.row(q_r0 + r), q.row(q_r0 + r + 1), q.row(q_r0 + r + 2), q.row(q_r0 + r + 3)],
            packed,
            n_kv,
            scale,
            [&mut *s0, &mut *s1, &mut *s2, &mut *s3],
        );
        let o = out.rows_quad_mut(r);
        finish_row4([&mut *s0, &mut *s1, &mut *s2, &mut *s3], m, v, o);
        r += 4;
    }
    if r + 2 <= rows {
        let (max0, max1) =
            score_row2_packed(q.row(q_r0 + r), q.row(q_r0 + r + 1), packed, n_kv, scale, s0, s1);
        let (o0, o1) = out.rows_pair_mut(r);
        finish_row2(s0, max0, s1, max1, v, o0, o1);
        r += 2;
    }
    if r < rows {
        let max = score_row_packed(q.row(q_r0 + r), packed, n_kv, scale, s0);
        finish_row(s0, max, v, out.row_mut(r));
    }
}

/// Portable-baseline compilation of the fused walk.
#[allow(clippy::too_many_arguments)] // mirrors the twice-compiled kernel ABI
fn fused_rows_scalar(
    q: &MatView,
    k: &MatView,
    packed: Option<&[f32]>,
    v: &MatView,
    scale: f32,
    q_r0: usize,
    out: &mut MatViewMut,
    scores: &mut [f32],
) {
    fused_rows_impl(q, k, packed, v, scale, q_r0, out, scores);
}

/// AVX2 re-compilation of the identical body: the 8-lane score panels
/// and 32/16-wide value-contraction chunks widen to 256-bit ops. No FMA
/// is emitted (separate mul and add in the source), so per-lane rounding
/// matches the portable build exactly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // mirrors the twice-compiled kernel ABI
unsafe fn fused_rows_avx2(
    q: &MatView,
    k: &MatView,
    packed: Option<&[f32]>,
    v: &MatView,
    scale: f32,
    q_r0: usize,
    out: &mut MatViewMut,
    scores: &mut [f32],
) {
    fused_rows_impl(q, k, packed, v, scale, q_r0, out, scores);
}

/// Runtime-dispatched fused walk (see `zenesis-tensor`'s `src/simd.rs`
/// for the bit-stability contract).
#[allow(clippy::too_many_arguments)] // mirrors the twice-compiled kernel ABI
fn fused_rows(
    q: &MatView,
    k: &MatView,
    packed: Option<&[f32]>,
    v: &MatView,
    scale: f32,
    q_r0: usize,
    out: &mut MatViewMut,
    scores: &mut [f32],
) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level()` only reports Avx2 when the CPU supports it.
        SimdLevel::Avx2 => unsafe { fused_rows_avx2(q, k, packed, v, scale, q_r0, out, scores) },
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => fused_rows_scalar(q, k, packed, v, scale, q_r0, out, scores),
        SimdLevel::Scalar => fused_rows_scalar(q, k, packed, v, scale, q_r0, out, scores),
    }
}

/// Fan the fused walk out across disjoint query-row bands of `out`.
/// Bands run on the `zenesis-par` team, each with its own scratch
/// arena; band boundaries never change per-row results (see
/// [`fused_rows_impl`]), so outputs are bit-identical at every thread
/// count.
fn attention_fused_par(
    q: &MatView,
    k: &MatView,
    packed: &[f32],
    v: &MatView,
    scale: f32,
    out: &mut MatViewMut,
) {
    let n_q = out.rows();
    let n_kv = v.rows();
    let band_rows = chunk_len(n_q, current_threads());
    let mut bands: Vec<(usize, MatViewMut)> = Vec::with_capacity(n_q.div_ceil(band_rows));
    let mut rest = out.reborrow();
    let mut r0 = 0;
    loop {
        if rest.rows() <= band_rows {
            bands.push((r0, rest));
            break;
        }
        let (band, tail) = rest.split_rows(band_rows);
        bands.push((r0, band));
        r0 += band_rows;
        rest = tail;
    }
    par_for_each(&mut bands, |(q_r0, band)| {
        // Per-band arena: a band may run on the caller, whose own
        // workspace this call has borrowed, or on a helper.
        let mut ws = Workspace::new();
        let mut scores = ws.take(4 * n_kv);
        fused_rows(q, k, Some(packed), v, scale, *q_r0, band, &mut scores);
        ws.recycle_vec(scores);
    });
}

/// Minimum query rows before the unfused (materialized-scores) path can
/// pay for its packing: below this, the fused row-band kernel always wins.
const UNFUSED_MIN_ROWS: usize = 32;

/// Combined K+V resident size (`n_kv * (d + d_v)` floats) above which a
/// large-`n_q` attention goes matmul-bound: the fused kernel re-streams
/// all of V once per query row, so once K+V overflow the close caches the
/// packed matmul kernels win despite materializing the score matrix.
/// Measured crossover on the bench sweep sits between 16k floats (fused
/// wins 128×256 at d=d_v=32) and 32k floats (unfused wins 256×256 at
/// d=d_v=64 by ~1.5×); the pipeline's own head shapes stay fused.
const UNFUSED_MIN_KV_FLOATS: usize = 24 * 1024;

/// Materialize a (possibly strided) view into a workspace matrix.
fn view_to_matrix_ws(v: &MatView, ws: &mut Workspace) -> Matrix {
    let mut m = ws.matrix(v.rows(), v.cols());
    for r in 0..v.rows() {
        m.row_mut(r).copy_from_slice(v.row(r));
    }
    m
}

/// Unfused large-shape path: scores = Q·Kᵀ/√d through the packed matmul,
/// softmax rows in place, then a second packed product against V. The
/// row-wise copies in and out are O(n·d) against O(n²·d) compute.
fn attention_unfused(
    q: &MatView,
    k: &MatView,
    v: &MatView,
    out: &mut MatViewMut,
    ws: &mut Workspace,
) {
    let scale = 1.0 / (q.cols() as f32).sqrt();
    let qm = view_to_matrix_ws(q, ws);
    let km = view_to_matrix_ws(k, ws);
    let mut scores = qm.matmul_transposed_ws(&km, ws);
    ws.recycle(qm);
    ws.recycle(km);
    scores.scale(scale);
    softmax_rows_inplace(&mut scores);
    let vm = view_to_matrix_ws(v, ws);
    let om = scores.matmul_ws(&vm, ws);
    ws.recycle(scores);
    ws.recycle(vm);
    for r in 0..om.rows() {
        out.row_mut(r).copy_from_slice(om.row(r));
    }
    ws.recycle(om);
}

/// Unnormalized stable exponentials in place, returning their sum via an
/// eight-lane reduction (so it doesn't serialize on one add chain).
#[inline(always)]
fn exp_sum(scores: &mut [f32], max: f32) -> f32 {
    for s in scores.iter_mut() {
        *s = fast_exp(*s - max);
    }
    let mut sm = [0.0f32; 8];
    let ch = scores.chunks_exact(8);
    let mut sum: f32 = ch.remainder().iter().sum();
    for c in ch {
        for l in 0..8 {
            sm[l] += c[l];
        }
    }
    sum += (sm[0] + sm[4]) + (sm[1] + sm[5]) + ((sm[2] + sm[6]) + (sm[3] + sm[7]));
    sum
}

/// [`finish_row`] for a pair of query rows: every V row is loaded once
/// and contracted against both rows' weights, halving V traffic. Per-row
/// accumulation (`j` ascending, the same 32/16/remainder chunking) is
/// identical to the single-row walk, so pairing never changes results.
#[inline(always)]
fn finish_row2(
    s0: &mut [f32],
    max0: f32,
    s1: &mut [f32],
    max1: f32,
    v: &MatView,
    o0: &mut [f32],
    o1: &mut [f32],
) {
    let inv0 = 1.0 / exp_sum(s0, max0);
    let inv1 = 1.0 / exp_sum(s1, max1);
    let d_v = v.cols();
    let mut c0 = 0;
    while c0 + 32 <= d_v {
        value_chunk2::<32>(s0, s1, v, c0, inv0, inv1, o0, o1);
        c0 += 32;
    }
    if c0 + 16 <= d_v {
        value_chunk2::<16>(s0, s1, v, c0, inv0, inv1, o0, o1);
        c0 += 16;
    }
    if c0 < d_v {
        value_chunk2_rem(s0, s1, v, c0, inv0, inv1, o0, o1);
    }
}

/// One `W`-wide output chunk of the paired value contraction: both rows'
/// chunks live in registers across a single sweep over the value rows.
/// A contiguous V streams through a plain chunk iterator (no per-row
/// offset arithmetic); a strided V falls back to per-row slicing.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat scores/weights pairs keep the kernel ABI obvious
fn value_chunk2<const W: usize>(
    s0: &[f32],
    s1: &[f32],
    v: &MatView,
    c0: usize,
    inv0: f32,
    inv1: f32,
    o0: &mut [f32],
    o1: &mut [f32],
) {
    let mut a0 = [0.0f32; W];
    let mut a1 = [0.0f32; W];
    if let Some(rows) = v.contiguous_rows() {
        for ((&w0, &w1), vr) in s0.iter().zip(s1.iter()).zip(rows) {
            let vc = &vr[c0..c0 + W];
            for l in 0..W {
                a0[l] += w0 * vc[l];
            }
            for l in 0..W {
                a1[l] += w1 * vc[l];
            }
        }
    } else {
        for (j, (&w0, &w1)) in s0.iter().zip(s1.iter()).enumerate() {
            let vc = &v.row(j)[c0..c0 + W];
            for l in 0..W {
                a0[l] += w0 * vc[l];
            }
            for l in 0..W {
                a1[l] += w1 * vc[l];
            }
        }
    }
    for (o, a) in o0[c0..c0 + W].iter_mut().zip(a0) {
        *o = a * inv0;
    }
    for (o, a) in o1[c0..c0 + W].iter_mut().zip(a1) {
        *o = a * inv1;
    }
}

/// The sub-16-wide tail of the paired value contraction (same remainder
/// shape as the single-row walk).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn value_chunk2_rem(
    s0: &[f32],
    s1: &[f32],
    v: &MatView,
    c0: usize,
    inv0: f32,
    inv1: f32,
    o0: &mut [f32],
    o1: &mut [f32],
) {
    let rem = v.cols() - c0;
    let mut a0 = [0.0f32; 16];
    let mut a1 = [0.0f32; 16];
    for (j, (&w0, &w1)) in s0.iter().zip(s1.iter()).enumerate() {
        let vc = &v.row(j)[c0..];
        for (a, &vv) in a0[..rem].iter_mut().zip(vc) {
            *a += w0 * vv;
        }
        for (a, &vv) in a1[..rem].iter_mut().zip(vc) {
            *a += w1 * vv;
        }
    }
    for (o, a) in o0[c0..].iter_mut().zip(a0) {
        *o = a * inv0;
    }
    for (o, a) in o1[c0..].iter_mut().zip(a1) {
        *o = a * inv1;
    }
}

/// [`finish_row`] for four query rows: every V row is loaded once and
/// contracted against all four rows' weights, quartering V traffic and
/// running eight independent accumulation chains (4 rows x 2 registers
/// at the 16-wide step), which hides the no-FMA add latency the pairwise
/// walk was bound by. Chunks step 16 wide — not 32 — so those running
/// accumulators stay in registers; chunk width only groups independent
/// output lanes, so per-row results match the single-row walk bit for
/// bit.
#[inline(always)]
fn finish_row4(s: [&mut [f32]; 4], max: [f32; 4], v: &MatView, mut o: [&mut [f32]; 4]) {
    let [s0, s1, s2, s3] = s;
    let inv = [
        1.0 / exp_sum(s0, max[0]),
        1.0 / exp_sum(s1, max[1]),
        1.0 / exp_sum(s2, max[2]),
        1.0 / exp_sum(s3, max[3]),
    ];
    let sr = [&*s0, &*s1, &*s2, &*s3];
    let d_v = v.cols();
    let mut c0 = 0;
    while c0 + 16 <= d_v {
        value_chunk4::<16>(sr, v, c0, inv, &mut o);
        c0 += 16;
    }
    if c0 < d_v {
        value_chunk4_rem(sr, v, c0, inv, &mut o);
    }
}

/// One `W`-wide output chunk of the quad value contraction (see
/// [`value_chunk2`] for the contiguous-vs-strided streaming split). The
/// four accumulators are separate named locals with sequential per-row
/// inner loops — indexing a `[[f32; W]; 4]` by row defeats scalarization
/// and LLVM keeps the whole accumulator block on the stack (measured: a
/// 2x slowdown from load-add-store traffic in the hot loop).
#[inline(always)]
fn value_chunk4<const W: usize>(
    s: [&[f32]; 4],
    v: &MatView,
    c0: usize,
    inv: [f32; 4],
    o: &mut [&mut [f32]; 4],
) {
    let mut a0 = [0.0f32; W];
    let mut a1 = [0.0f32; W];
    let mut a2 = [0.0f32; W];
    let mut a3 = [0.0f32; W];
    if let Some(rows) = v.contiguous_rows() {
        for (((&w0, &w1), (&w2, &w3)), vr) in
            s[0].iter().zip(s[1]).zip(s[2].iter().zip(s[3])).zip(rows)
        {
            let vc = &vr[c0..c0 + W];
            for l in 0..W {
                a0[l] += w0 * vc[l];
            }
            for l in 0..W {
                a1[l] += w1 * vc[l];
            }
            for l in 0..W {
                a2[l] += w2 * vc[l];
            }
            for l in 0..W {
                a3[l] += w3 * vc[l];
            }
        }
    } else {
        for (j, ((&w0, &w1), (&w2, &w3))) in
            s[0].iter().zip(s[1]).zip(s[2].iter().zip(s[3])).enumerate()
        {
            let vc = &v.row(j)[c0..c0 + W];
            for l in 0..W {
                a0[l] += w0 * vc[l];
            }
            for l in 0..W {
                a1[l] += w1 * vc[l];
            }
            for l in 0..W {
                a2[l] += w2 * vc[l];
            }
            for l in 0..W {
                a3[l] += w3 * vc[l];
            }
        }
    }
    for (r, a) in [a0, a1, a2, a3].into_iter().enumerate() {
        for (dst, a) in o[r][c0..c0 + W].iter_mut().zip(a) {
            *dst = a * inv[r];
        }
    }
}

/// The sub-16-wide tail of the quad value contraction.
#[inline(always)]
fn value_chunk4_rem(s: [&[f32]; 4], v: &MatView, c0: usize, inv: [f32; 4], o: &mut [&mut [f32]; 4]) {
    let rem = v.cols() - c0;
    let mut a0 = [0.0f32; 16];
    let mut a1 = [0.0f32; 16];
    let mut a2 = [0.0f32; 16];
    let mut a3 = [0.0f32; 16];
    for (j, ((&w0, &w1), (&w2, &w3))) in
        s[0].iter().zip(s[1]).zip(s[2].iter().zip(s[3])).enumerate()
    {
        let vc = &v.row(j)[c0..];
        for (a, &vv) in a0[..rem].iter_mut().zip(vc) {
            *a += w0 * vv;
        }
        for (a, &vv) in a1[..rem].iter_mut().zip(vc) {
            *a += w1 * vv;
        }
        for (a, &vv) in a2[..rem].iter_mut().zip(vc) {
            *a += w2 * vv;
        }
        for (a, &vv) in a3[..rem].iter_mut().zip(vc) {
            *a += w3 * vv;
        }
    }
    for (r, a) in [a0, a1, a2, a3].into_iter().enumerate() {
        for (dst, a) in o[r][c0..].iter_mut().zip(a) {
            *dst = a * inv[r];
        }
    }
}

/// Softmax + value contraction for one query row whose scaled scores
/// (and their max) are already computed.
#[inline(always)]
fn finish_row(scores: &mut [f32], max: f32, v: &MatView, orow: &mut [f32]) {
    let d_v = v.cols();
    // The 1/sum normalizer is applied once to the output row instead of
    // to every weight.
    let inv = 1.0 / exp_sum(scores, max);
    // Contract against V in fixed-width output chunks: each chunk of
    // the output row lives in registers across the whole sweep over
    // the value rows, so the only memory traffic is the V loads.
    let mut c0 = 0;
    while c0 + 32 <= d_v {
        let mut acc = [0.0f32; 32];
        for (j, &w) in scores.iter().enumerate() {
            let vc = &v.row(j)[c0..c0 + 32];
            for l in 0..32 {
                acc[l] += w * vc[l];
            }
        }
        for (o, a) in orow[c0..c0 + 32].iter_mut().zip(acc) {
            *o = a * inv;
        }
        c0 += 32;
    }
    if c0 + 16 <= d_v {
        let mut acc = [0.0f32; 16];
        for (j, &w) in scores.iter().enumerate() {
            let vc = &v.row(j)[c0..c0 + 16];
            for l in 0..16 {
                acc[l] += w * vc[l];
            }
        }
        for (o, a) in orow[c0..c0 + 16].iter_mut().zip(acc) {
            *o = a * inv;
        }
        c0 += 16;
    }
    if c0 < d_v {
        let rem = d_v - c0;
        let mut acc = [0.0f32; 16];
        for (j, &w) in scores.iter().enumerate() {
            let vc = &v.row(j)[c0..];
            for (a, &vv) in acc[..rem].iter_mut().zip(vc) {
                *a += w * vv;
            }
        }
        for (o, a) in orow[c0..].iter_mut().zip(acc) {
            *o = a * inv;
        }
    }
}

/// Raw attention weights `softmax(Q K^T / sqrt(d))` — the relevance map
/// the grounding head thresholds into boxes.
pub fn attention_weights(q: &Matrix, k: &Matrix) -> Matrix {
    assert_eq!(q.cols(), k.cols(), "q/k feature dims differ");
    let mut scores = q.matmul_transposed(k);
    scores.scale(1.0 / (q.cols() as f32).sqrt());
    softmax_rows(&scores)
}

/// Multi-head attention with seeded projection weights.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    pub heads: usize,
    pub dim: usize,
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
}

impl MultiHeadAttention {
    /// `dim` must be divisible by `heads`.
    pub fn new(dim: usize, heads: usize, seed: u64) -> Self {
        assert!(heads > 0 && dim.is_multiple_of(heads), "dim must divide by heads");
        let scale = (1.0 / dim as f32).sqrt();
        MultiHeadAttention {
            heads,
            dim,
            wq: Matrix::seeded_uniform(dim, dim, scale, seed ^ 0x51),
            wk: Matrix::seeded_uniform(dim, dim, scale, seed ^ 0x52),
            wv: Matrix::seeded_uniform(dim, dim, scale, seed ^ 0x53),
            wo: Matrix::seeded_uniform(dim, dim, scale, seed ^ 0x54),
        }
    }

    /// Cross- (or self-) attention: `x_q` attends to `x_kv`.
    pub fn forward(&self, x_q: &Matrix, x_kv: &Matrix) -> Matrix {
        Workspace::with(|ws| self.forward_ws(x_q, x_kv, ws))
    }

    /// [`MultiHeadAttention::forward`] with a caller-supplied scratch
    /// arena. Heads are zero-copy column-band views of the projected
    /// Q/K/V; each head's fused attention writes directly into its band
    /// of the concat buffer (no per-head gather, no re-concatenation).
    pub fn forward_ws(&self, x_q: &Matrix, x_kv: &Matrix, ws: &mut Workspace) -> Matrix {
        assert_eq!(x_q.cols(), self.dim);
        assert_eq!(x_kv.cols(), self.dim);
        let q = x_q.matmul_ws(&self.wq, ws);
        let k = x_kv.matmul_ws(&self.wk, ws);
        let v = x_kv.matmul_ws(&self.wv, ws);
        let head_dim = self.dim / self.heads;
        let n_q = q.rows();
        let mut concat = ws.matrix(n_q, self.dim);
        // Fan out across heads only when there is real work: small heads
        // (a 3-token grounding query) run inline and strictly zero-copy.
        let madds_per_head = 2 * n_q * k.rows() * head_dim;
        if current_threads() <= 1
            || in_worker()
            || self.heads < 2
            || madds_per_head * self.heads < PAR_MIN_MADDS
        {
            for h in 0..self.heads {
                let c0 = h * head_dim;
                attention_into(
                    &q.col_band(c0, head_dim),
                    &k.col_band(c0, head_dim),
                    &v.col_band(c0, head_dim),
                    &mut concat.col_band_mut(c0, head_dim),
                    ws,
                );
            }
        } else {
            // Parallel heads: each head is computed into a contiguous
            // buffer with scratch of its own (the caller's workspace is
            // borrowed, and a head may run on the caller as well as on a
            // helper), then rows are scattered into the concat
            // bands with plain memcpys.
            let outs: Vec<Matrix> = zenesis_par::par_map_range(self.heads, |h| {
                let c0 = h * head_dim;
                let mut head_out = Matrix::zeros(n_q, head_dim);
                let mut local = Workspace::new();
                attention_into(
                    &q.col_band(c0, head_dim),
                    &k.col_band(c0, head_dim),
                    &v.col_band(c0, head_dim),
                    &mut head_out.view_mut(),
                    &mut local,
                );
                head_out
            });
            for (h, head_out) in outs.iter().enumerate() {
                let c0 = h * head_dim;
                for r in 0..n_q {
                    concat.row_mut(r)[c0..c0 + head_dim].copy_from_slice(head_out.row(r));
                }
            }
            for head_out in outs {
                ws.recycle(head_out);
            }
        }
        let out = concat.matmul_ws(&self.wo, ws);
        ws.recycle(q);
        ws.recycle(k);
        ws.recycle(v);
        ws.recycle(concat);
        out
    }
}

/// Pre-norm transformer block: `x + MHA(LN(x))`, then `x + FFN(LN(x))`
/// with a GELU MLP of expansion 4.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    pub attn: MultiHeadAttention,
    w1: Matrix,
    w2: Matrix,
}

impl TransformerBlock {
    pub fn new(dim: usize, heads: usize, seed: u64) -> Self {
        let hidden = dim * 4;
        let s1 = (1.0 / dim as f32).sqrt();
        let s2 = (1.0 / hidden as f32).sqrt();
        TransformerBlock {
            attn: MultiHeadAttention::new(dim, heads, seed),
            w1: Matrix::seeded_uniform(dim, hidden, s1, seed ^ 0xA1),
            w2: Matrix::seeded_uniform(hidden, dim, s2, seed ^ 0xA2),
        }
    }

    /// Self-attention forward pass over a token matrix `n x dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        Workspace::with(|ws| self.forward_ws(x, ws))
    }

    /// [`TransformerBlock::forward`] with a caller-supplied scratch
    /// arena: every intermediate (normed tokens, attention output, MLP
    /// hidden) is checked out of and returned to `ws`, so a stack of
    /// blocks — or a batch of slices — runs allocation-free after the
    /// first pass.
    pub fn forward_ws(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut normed = ws.matrix(x.rows(), x.cols());
        layernorm_rows_into(x, &mut normed, 1e-5);
        let mut x1 = self.attn.forward_ws(&normed, &normed, ws);
        x1.add_assign(x); // residual, in place
        layernorm_rows_into(&x1, &mut normed, 1e-5); // reuse as normed2
        let mut hidden = normed.matmul_ws(&self.w1, ws);
        ws.recycle(normed);
        gelu_inplace(&mut hidden);
        let mut out = hidden.matmul_ws(&self.w2, ws);
        ws.recycle(hidden);
        out.add_assign(&x1); // residual, in place
        ws.recycle(x1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_rows_are_convex_combinations() {
        let q = Matrix::seeded_uniform(3, 8, 1.0, 1);
        let k = Matrix::seeded_uniform(5, 8, 1.0, 2);
        let v = Matrix::seeded_uniform(5, 4, 1.0, 3);
        let out = attention(&q, &k, &v);
        assert_eq!((out.rows(), out.cols()), (3, 4));
        // Each output coordinate is within the convex hull per-column.
        for c in 0..4 {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for r in 0..5 {
                lo = lo.min(v.get(r, c));
                hi = hi.max(v.get(r, c));
            }
            for r in 0..3 {
                let o = out.get(r, c);
                assert!(o >= lo - 1e-5 && o <= hi + 1e-5);
            }
        }
    }

    #[test]
    fn attention_with_single_kv_copies_value() {
        let q = Matrix::seeded_uniform(4, 6, 1.0, 7);
        let k = Matrix::seeded_uniform(1, 6, 1.0, 8);
        let v = Matrix::from_vec(1, 2, vec![0.3, -0.7]);
        let out = attention(&q, &k, &v);
        for r in 0..4 {
            assert!((out.get(r, 0) - 0.3).abs() < 1e-6);
            assert!((out.get(r, 1) + 0.7).abs() < 1e-6);
        }
    }

    #[test]
    fn attention_weights_rows_sum_to_one() {
        let q = Matrix::seeded_uniform(6, 16, 1.0, 4);
        let k = Matrix::seeded_uniform(10, 16, 1.0, 5);
        let w = attention_weights(&q, &k);
        assert_eq!((w.rows(), w.cols()), (6, 10));
        for r in 0..6 {
            let s: f32 = w.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_weights_peak_on_matching_key() {
        // Query equal to one key (scaled up) should attend mostly to it.
        let mut k = Matrix::seeded_uniform(4, 8, 1.0, 9);
        for c in 0..8 {
            k.set(2, c, if c == 0 { 5.0 } else { 0.0 });
        }
        let q = Matrix::from_fn(1, 8, |_, c| if c == 0 { 5.0 } else { 0.0 });
        let w = attention_weights(&q, &k);
        let best = (0..4).max_by(|&a, &b| w.get(0, a).partial_cmp(&w.get(0, b)).unwrap()).unwrap();
        assert_eq!(best, 2);
    }

    #[test]
    fn mha_shape_and_determinism() {
        let mha = MultiHeadAttention::new(32, 4, 99);
        let x = Matrix::seeded_uniform(10, 32, 1.0, 100);
        let a = mha.forward(&x, &x);
        let b = mha.forward(&x, &x);
        assert_eq!(a, b);
        assert_eq!((a.rows(), a.cols()), (10, 32));
        // Different seed, different weights, different output.
        let mha2 = MultiHeadAttention::new(32, 4, 98);
        assert_ne!(mha2.forward(&x, &x), a);
    }

    #[test]
    fn mha_cross_attention_shapes() {
        let mha = MultiHeadAttention::new(16, 2, 5);
        let text = Matrix::seeded_uniform(3, 16, 1.0, 6);
        let patches = Matrix::seeded_uniform(49, 16, 1.0, 7);
        let out = mha.forward(&text, &patches);
        assert_eq!((out.rows(), out.cols()), (3, 16));
    }

    #[test]
    #[should_panic]
    fn mha_dim_mismatch_panics() {
        let mha = MultiHeadAttention::new(16, 2, 5);
        let x = Matrix::zeros(4, 8);
        let _ = mha.forward(&x, &x);
    }

    #[test]
    fn transformer_block_preserves_shape_finite() {
        let blk = TransformerBlock::new(24, 3, 11);
        let x = Matrix::seeded_uniform(7, 24, 1.0, 12);
        let y = blk.forward(&x);
        assert_eq!((y.rows(), y.cols()), (7, 24));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        // Residual path: output correlates with input (not a constant map).
        assert_ne!(y, x);
        let z = blk.forward(&y);
        assert_ne!(z, y);
    }
}
