//! Scaled dot-product attention (the paper's Eq. 1), multi-head attention,
//! and the pre-norm transformer block.
//!
//! The attention forward is **fused**: [`attention_into`] packs K once
//! into `NR`-wide k-major panels (the matmul RHS layout), then walks the
//! query rows in groups of four, two and one. One const-generic body per
//! group size `R` scores the group against the panels with matmul's own
//! micro-kernels — eight scores per vector op, no horizontal reductions —
//! then runs softmax and the weighted-value accumulation back to back.
//! The full `n_q x n_kv` score matrix is never materialized (a `4·n_kv`
//! scratch block plus the packed keys, checked out of a [`Workspace`],
//! are the footprint). Heads are sliced as zero-copy column-band views and
//! written straight into the concatenation buffer, so
//! [`MultiHeadAttention::forward`] performs no per-head gather and no
//! re-concatenation pass.
//!
//! A row's arithmetic never depends on the group it falls in: each score
//! accumulates `kk` ascending and is scaled once, and each output lane
//! accumulates `j` ascending and is scaled by `1/sum` once. The row walk
//! is compiled twice — portable baseline and an AVX2 `#[target_feature]`
//! re-compilation of the same body — and dispatched at runtime
//! (`zenesis_tensor::simd_dispatch!`); both builds run identical per-element
//! IEEE operations, so results are bit-identical. Nothing here fans out
//! to other threads: the pipeline runs this attention only inside the
//! Swin contextualizer, whose windows are already spread over the
//! `zenesis-par` team (`encoder.rs`).

use zenesis_tensor::{
    fast_exp, gelu_inplace, layernorm_rows_into, micro_rx1, micro_rx2, softmax_rows, MatView,
    MatViewMut, Matrix, Workspace, NR,
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

/// Output lanes held in registers per sweep of the value contraction.
const VALUE_CHUNK: usize = 16;

/// Pack the key rows into `NR`-wide k-major panels
/// (`panel[kk*NR + jr] = K[j0+jr][kk]`), tail rows zero-filled — the
/// layout matmul packs the right-hand side of `A·Bᵀ` into, so the score
/// pass runs matmul's micro-kernels unchanged. Packing is O(n_kv·d)
/// against the O(n_q·n_kv·d) score pass, done once per attention call.
fn pack_keys(k: &MatView, packed: &mut [f32]) {
    let d = k.cols();
    let n_kv = k.rows();
    let pl = NR * d;
    debug_assert_eq!(packed.len(), n_kv.div_ceil(NR) * pl);
    for (p, dst) in packed.chunks_exact_mut(pl).enumerate() {
        let j0 = p * NR;
        let rows = NR.min(n_kv - j0);
        if rows < NR {
            dst.fill(0.0);
        }
        for jr in 0..rows {
            for (kk, &x) in k.row(j0 + jr).iter().enumerate() {
                dst[kk * NR + jr] = x;
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

/// `R` query rows' scaled scores against the packed keys (`s[r]` is row
/// `r`'s `n_kv` scores), returning each row's max. Panel pairs go through
/// `micro_rx2::<R>` — two panel loads per `kk` step amortized over `R`
/// query broadcasts — and a leftover full panel and the zero-padded tail
/// panel through `micro_rx1::<R>`. Every score is `sum_kk q[kk]*K[j][kk]`
/// accumulated `kk` ascending, then multiplied by `scale`: bit-identical
/// to the naive in-order dot product, whatever `R` or panel grouping.
#[inline(always)]
fn score_rows<const R: usize>(
    q: [&[f32]; R],
    packed: &[f32],
    scale: f32,
    s: &mut [&mut [f32]; R],
) -> [f32; R] {
    let n_kv = s[0].len();
    // Keys `j0 .. j0 + NR` are one panel, starting at `packed[j0 * d]`.
    let d = q[0].len();
    let mut j0 = 0;
    while j0 + 2 * NR <= n_kv {
        let (pa, pb) = packed[j0 * d..(j0 + 2 * NR) * d].split_at(NR * d);
        let mut a = [[0.0f32; NR]; R];
        let mut b = [[0.0f32; NR]; R];
        micro_rx2(q, pa, pb, &mut a, &mut b);
        for r in 0..R {
            for (o, x) in s[r][j0..j0 + NR].iter_mut().zip(a[r]) {
                *o = x * scale;
            }
            for (o, x) in s[r][j0 + NR..j0 + 2 * NR].iter_mut().zip(b[r]) {
                *o = x * scale;
            }
        }
        j0 += 2 * NR;
    }
    while j0 < n_kv {
        let mut a = [[0.0f32; NR]; R];
        micro_rx1(q, &packed[j0 * d..(j0 + NR) * d], &mut a);
        for r in 0..R {
            // Only the tail panel's valid lanes are written back.
            for (o, x) in s[r][j0..].iter_mut().zip(a[r]) {
                *o = x * scale;
            }
        }
        j0 += NR;
    }
    core::array::from_fn(|r| max8(s[r]))
}

/// One output chunk `c0 .. c0 + w` (`w ≤ VALUE_CHUNK`) of the value
/// contraction for `R` rows of softmax weights `s`: the chunk lives in
/// registers across a single sweep over the (contiguous) value rows, and
/// each V row is loaded once for all `R` rows. Called with a constant
/// `w = VALUE_CHUNK` for full chunks, so those compile to fixed-width
/// vector ops.
#[inline(always)]
fn value_chunk<const R: usize>(
    s: [&[f32]; R],
    v_rows: core::slice::ChunksExact<'_, f32>,
    c0: usize,
    w: usize,
    inv: [f32; R],
    o: &mut [&mut [f32]; R],
) {
    let mut acc = [[0.0f32; VALUE_CHUNK]; R];
    for (j, vr) in v_rows.enumerate() {
        let vc = &vr[c0..c0 + w];
        for r in 0..R {
            let x = s[r][j];
            for (a, &y) in acc[r][..w].iter_mut().zip(vc) {
                *a += x * y;
            }
        }
    }
    for r in 0..R {
        for (dst, a) in o[r][c0..c0 + w].iter_mut().zip(acc[r]) {
            *dst = a * inv[r];
        }
    }
}

/// Softmax and value contraction for `R` query rows whose scaled scores
/// and maxes are computed: `VALUE_CHUNK`-wide output chunks, then the
/// remainder. Each output lane sums `w_j · V[j][c]` with `j` ascending
/// and is multiplied by its row's `1/sum` once at the end, so chunking
/// and grouping never change a row's result. `v` must be contiguous.
#[inline(always)]
fn value_rows<const R: usize>(
    s: [&mut [f32]; R],
    max: [f32; R],
    v: &MatView,
    mut o: [&mut [f32]; R],
) {
    let v_rows = v.contiguous_rows().expect("value rows are contiguous");
    let mut inv = [0.0f32; R];
    for r in 0..R {
        inv[r] = 1.0 / exp_sum(s[r], max[r]);
    }
    let s = s.map(|row| &*row);
    let d_v = v.cols();
    let mut c0 = 0;
    while c0 + VALUE_CHUNK <= d_v {
        value_chunk(s, v_rows.clone(), c0, VALUE_CHUNK, inv, &mut o);
        c0 += VALUE_CHUNK;
    }
    if c0 < d_v {
        value_chunk(s, v_rows, c0, d_v - c0, inv, &mut o);
    }
}

/// Score, softmax and contract query rows `r0 .. r0 + R` into the same
/// rows of `out`, with `scores` as the `R x n_kv` scratch.
#[inline(always)]
fn fused_group<const R: usize>(
    q: &MatView,
    packed: &[f32],
    v: &MatView,
    scale: f32,
    r0: usize,
    out: &mut MatViewMut,
    scores: &mut [f32],
) {
    let mut rows = scores.chunks_exact_mut(v.rows());
    let mut s: [&mut [f32]; R] =
        core::array::from_fn(|_| rows.next().expect("scratch holds four score rows"));
    let q_rows = core::array::from_fn(|i| q.row(r0 + i));
    let max = score_rows(q_rows, packed, scale, &mut s);
    value_rows(s, max, v, out.rows_mut::<R>(r0));
}

/// The fused score → softmax → contraction walk over every query row, in
/// groups of four, then two, then one.
///
/// `#[inline(always)]` so the dispatch wrapper below re-compiles this
/// body — and the kernels it inlines — under its own target features.
/// At AVX2 the 8-lane score panels and 16-wide value chunks widen to
/// 256-bit ops. No FMA is emitted (separate mul and add in the source),
/// so per-lane rounding matches the portable build exactly.
#[inline(always)]
fn fused_rows_impl(
    q: &MatView,
    packed: &[f32],
    v: &MatView,
    scale: f32,
    out: &mut MatViewMut,
    scores: &mut [f32],
) {
    let n_q = out.rows();
    let mut r = 0;
    while r + 4 <= n_q {
        fused_group::<4>(q, packed, v, scale, r, out, scores);
        r += 4;
    }
    if r + 2 <= n_q {
        fused_group::<2>(q, packed, v, scale, r, out, scores);
        r += 2;
    }
    if r < n_q {
        fused_group::<1>(q, packed, v, scale, r, out, scores);
    }
}

// Runtime-dispatched fused walk (see `zenesis-tensor`'s `src/simd.rs`
// for the bit-stability contract).
zenesis_tensor::simd_dispatch!(fused_rows => fused_rows_impl(
    q: &MatView,
    packed: &[f32],
    v: &MatView,
    scale: f32,
    out: &mut MatViewMut,
    scores: &mut [f32],
));

/// Fused `softmax(Q Kᵀ / sqrt(d)) V` over strided views: for each group
/// of query rows, scores are computed into a reused scratch block,
/// normalized in place, and immediately contracted against V — the score
/// matrix never exists as a whole. `out` must be `n_q x d_v` (any row
/// stride, e.g. a column band of a concat buffer).
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
    // Pack K once for the whole call: every query row scores against the
    // same panels.
    let mut packed = ws.take(n_kv.div_ceil(NR) * NR * q.cols());
    pack_keys(k, &mut packed);
    // A strided V (a head's column band) makes the value contraction
    // re-stream one scattered cache line per value row for every row
    // group; copying V contiguous once keeps that sweep L1-resident.
    // Same floats in the same order, so results are unchanged.
    let vmat = v.contiguous_rows().is_none().then(|| {
        let mut m = ws.matrix(v.rows(), v.cols());
        for r in 0..v.rows() {
            m.row_mut(r).copy_from_slice(v.row(r));
        }
        m
    });
    let vv = vmat.as_ref().map_or(*v, Matrix::view);
    // One scratch score row per query row of the largest group.
    let mut scores = ws.take(4 * n_kv);
    fused_rows(q, &packed, &vv, scale, out, &mut scores);
    ws.recycle_vec(scores);
    if let Some(m) = vmat {
        ws.recycle(m);
    }
    ws.recycle_vec(packed);
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
        let mut concat = ws.matrix(q.rows(), self.dim);
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
