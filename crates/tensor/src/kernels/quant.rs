//! Post-training int8 weight quantization kernels.
//!
//! Per-output-channel symmetric quantization: a `[k, n]` weight matrix
//! stores one `i8` per element plus one `f32` scale per output channel
//! (column `j`), chosen so the channel's largest-magnitude weight maps
//! to ±127. Symmetric (no zero point) keeps the fused matmul a pure
//! multiply: because the scale is constant along the contraction
//! dimension it factors out of the dot product, so
//! [`matmul_q8`] accumulates `a[i][p] * q[p][j]` in f32 and applies
//! `scale[j]` once per output element — identical arithmetic to
//! dequantize-then-matmul, at a quarter of the weight-memory traffic.
//! That traffic is what bounds single-token decode (a GEMV touches
//! every weight once per token), which is where the int8 path earns its
//! speedup; see `ext_quant` for the measured numbers.
//!
//! Layout and parallel structure mirror [`super::matmul`]: row-major
//! `[k, n]` data, `ikj` loop order, rayon over output rows past the
//! same threshold.

use rayon::prelude::*;

/// Minimum output elements before rayon pays for itself (kept identical
/// to the f32 kernels so precision comparisons measure the datatype,
/// not a different parallel policy).
const PAR_THRESHOLD: usize = 64 * 64;

/// A `[k, n]` weight matrix quantized to int8 with one symmetric scale
/// per output channel (column).
#[derive(Clone, Debug)]
pub struct QuantizedMatrix {
    /// Row-major `[k, n]` int8 codes (same layout as the f32 original).
    data: Vec<i8>,
    /// Per-column dequantization scales, length `n`.
    scales: Vec<f32>,
    /// Contraction dimension (rows).
    k: usize,
    /// Output channels (columns).
    n: usize,
}

impl QuantizedMatrix {
    /// Quantize a row-major `[k, n]` f32 matrix per output channel.
    ///
    /// Each column `j` gets `scale[j] = max_p |w[p][j]| / 127` (1.0 for
    /// an all-zero column) and codes `round(w / scale)` clamped to
    /// ±127, so every representable weight round-trips within
    /// `scale / 2`.
    pub fn quantize(w: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(w.len(), k * n, "weight layout");
        let mut maxabs = vec![0.0f32; n];
        for row in w.chunks(n) {
            for (m, &v) in maxabs.iter_mut().zip(row) {
                *m = m.max(v.abs());
            }
        }
        let scales: Vec<f32> = maxabs
            .iter()
            .map(|&m| if m > 0.0 { m / 127.0 } else { 1.0 })
            .collect();
        let mut data = vec![0i8; k * n];
        for (qrow, row) in data.chunks_mut(n).zip(w.chunks(n)) {
            for ((q, &v), &s) in qrow.iter_mut().zip(row).zip(&scales) {
                *q = (v / s).round().clamp(-127.0, 127.0) as i8;
            }
        }
        Self { data, scales, k, n }
    }

    /// Contraction dimension (rows of the original matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output channels (columns of the original matrix).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-column scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The int8 codes, `[k, n]` row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Heap bytes held by codes + scales — the number the
    /// `serve_quant_weight_bytes` gauge reports.
    pub fn bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Expand back to f32, `[k, n]` row-major.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.k * self.n];
        for (orow, qrow) in out.chunks_mut(self.n).zip(self.data.chunks(self.n)) {
            for ((o, &q), &s) in orow.iter_mut().zip(qrow).zip(&self.scales) {
                *o = q as f32 * s;
            }
        }
        out
    }
}

/// `c[m,n] = a[m,k] @ dequant(w)[k,n]` without materialising the f32
/// weights: int8 codes stream through the `ikj` hot loop and each
/// output element is scaled once at the end.
pub fn matmul_q8(a: &[f32], w: &QuantizedMatrix, c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(w.k, k, "contraction dim");
    assert_eq!(w.n, n, "output dim");
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    let data = &w.data;
    let scales = &w.scales;
    if m > 1 && m <= crate::kernels::matmul::SMALL_M_MAX {
        // Weight-stationary small-batch path: codes stream once while
        // all m rows accumulate in cache. Four
        // code rows are fused per pass (sequential adds keep the
        // p-ascending per-element order; a quad with a zero coefficient
        // falls back to the per-p loop so the zero-skip stays exact),
        // scales applied once per element at the end — bitwise identical
        // to m single-row calls.
        c.fill(0.0);
        let mut p = 0;
        while p + 4 <= k {
            let q0 = &data[p * n..(p + 1) * n];
            let q1 = &data[(p + 1) * n..(p + 2) * n];
            let q2 = &data[(p + 2) * n..(p + 3) * n];
            let q3 = &data[(p + 3) * n..(p + 4) * n];
            let quad_one = |ci: &mut [f32], ar: &[f32]| {
                let (a0, a1, a2, a3) = (ar[0], ar[1], ar[2], ar[3]);
                if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                    for ((((cv, &v0), &v1), &v2), &v3) in
                        ci.iter_mut().zip(q0).zip(q1).zip(q2).zip(q3)
                    {
                        let mut x = a0.mul_add(v0 as f32, *cv);
                        x = a1.mul_add(v1 as f32, x);
                        x = a2.mul_add(v2 as f32, x);
                        *cv = a3.mul_add(v3 as f32, x);
                    }
                } else {
                    for (aip, qrow) in ar.iter().zip([q0, q1, q2, q3]) {
                        if *aip == 0.0 {
                            continue;
                        }
                        for (cv, &qv) in ci.iter_mut().zip(qrow.iter()) {
                            *cv = aip.mul_add(qv as f32, *cv);
                        }
                    }
                }
            };
            // Row pairs share each decoded weight vector across two FMA
            // chains; per-row order is untouched.
            let mut i = 0;
            while i + 2 <= m {
                let ar = &a[i * k + p..i * k + p + 4];
                let as_ = &a[(i + 1) * k + p..(i + 1) * k + p + 4];
                let (a0, a1, a2, a3) = (ar[0], ar[1], ar[2], ar[3]);
                let (s0, s1, s2, s3) = (as_[0], as_[1], as_[2], as_[3]);
                let all_nz = a0 != 0.0
                    && a1 != 0.0
                    && a2 != 0.0
                    && a3 != 0.0
                    && s0 != 0.0
                    && s1 != 0.0
                    && s2 != 0.0
                    && s3 != 0.0;
                if all_nz {
                    let (head, rest) = c.split_at_mut((i + 1) * n);
                    let ci = &mut head[i * n..];
                    let cj = &mut rest[..n];
                    for (((((cv, cw), &v0), &v1), &v2), &v3) in ci
                        .iter_mut()
                        .zip(cj.iter_mut())
                        .zip(q0)
                        .zip(q1)
                        .zip(q2)
                        .zip(q3)
                    {
                        let (f0, f1, f2, f3) = (v0 as f32, v1 as f32, v2 as f32, v3 as f32);
                        let mut x = a0.mul_add(f0, *cv);
                        let mut y = s0.mul_add(f0, *cw);
                        x = a1.mul_add(f1, x);
                        y = s1.mul_add(f1, y);
                        x = a2.mul_add(f2, x);
                        y = s2.mul_add(f2, y);
                        *cv = a3.mul_add(f3, x);
                        *cw = s3.mul_add(f3, y);
                    }
                } else {
                    quad_one(&mut c[i * n..(i + 1) * n], ar);
                    quad_one(&mut c[(i + 1) * n..(i + 2) * n], as_);
                }
                i += 2;
            }
            if i < m {
                quad_one(&mut c[i * n..(i + 1) * n], &a[i * k + p..i * k + p + 4]);
            }
            p += 4;
        }
        while p < k {
            let qrow = &data[p * n..(p + 1) * n];
            for i in 0..m {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                let ci = &mut c[i * n..(i + 1) * n];
                for (cv, &qv) in ci.iter_mut().zip(qrow.iter()) {
                    *cv = aip.mul_add(qv as f32, *cv);
                }
            }
            p += 1;
        }
        for ci in c.chunks_mut(n) {
            for (cv, &s) in ci.iter_mut().zip(scales.iter()) {
                *cv *= s;
            }
        }
        return;
    }
    // Single-row (and rayon per-row) path: the same four-rows-per-pass
    // fusion; sequential adds keep each output element's sum p-ascending,
    // so results stay bitwise identical to the plain ikj loop.
    let row = |ci: &mut [f32], ai: &[f32]| {
        ci.fill(0.0);
        let mut p = 0;
        while p + 4 <= ai.len() {
            let (a0, a1, a2, a3) = (ai[p], ai[p + 1], ai[p + 2], ai[p + 3]);
            let q0 = &data[p * n..(p + 1) * n];
            let q1 = &data[(p + 1) * n..(p + 2) * n];
            let q2 = &data[(p + 2) * n..(p + 3) * n];
            let q3 = &data[(p + 3) * n..(p + 4) * n];
            if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                for ((((cv, &v0), &v1), &v2), &v3) in ci.iter_mut().zip(q0).zip(q1).zip(q2).zip(q3)
                {
                    let mut x = a0.mul_add(v0 as f32, *cv);
                    x = a1.mul_add(v1 as f32, x);
                    x = a2.mul_add(v2 as f32, x);
                    *cv = a3.mul_add(v3 as f32, x);
                }
            } else {
                for (aip, qrow) in ai[p..p + 4].iter().zip([q0, q1, q2, q3]) {
                    if *aip == 0.0 {
                        continue;
                    }
                    for (cv, &qv) in ci.iter_mut().zip(qrow.iter()) {
                        *cv = aip.mul_add(qv as f32, *cv);
                    }
                }
            }
            p += 4;
        }
        for (&aip, qrow) in ai[p..].iter().zip(data[p * n..].chunks_exact(n)) {
            if aip == 0.0 {
                continue;
            }
            for (cv, &qv) in ci.iter_mut().zip(qrow.iter()) {
                *cv = aip.mul_add(qv as f32, *cv);
            }
        }
        for (cv, &s) in ci.iter_mut().zip(scales.iter()) {
            *cv *= s;
        }
    };
    if m * n >= PAR_THRESHOLD && m > 1 {
        c.par_chunks_mut(n)
            .zip(a.par_chunks(k))
            .for_each(|(ci, ai)| row(ci, ai));
    } else {
        for (ci, ai) in c.chunks_mut(n).zip(a.chunks(k)) {
            row(ci, ai);
        }
    }
}

/// Int8 codes of a [`QuantizedMatrix`] repacked for the integer-dot
/// draft kernel [`matmul_q8a8`].
///
/// Layout: columns are grouped into blocks of 16 and the contraction
/// dimension into groups of 4, stored as `[n/16 blocks][k/4 groups][64
/// bytes]` — one AVX-512 VNNI `vpdpbusd` consumes exactly one 64-byte
/// cell (16 lanes × 4 codes), and walking a column block is a single
/// contiguous stream. Both dimensions are zero-padded (a zero code
/// contributes nothing to any dot product), so odd shapes need no tail
/// logic in the hot loop.
///
/// `colsum` caches each column's code sum: the activation row is
/// quantized to *unsigned* codes `qa = round(a/s) + 128` (the shift
/// makes it a valid `vpdpbusd` operand), and
/// `Σ (qa-128)·w = Σ qa·w − 128·colsum` undoes the shift exactly in
/// integer arithmetic.
#[derive(Clone, Debug)]
pub struct PackedQ8Matrix {
    /// `[n_pad/16, k_pad/4, 64]` interleaved codes (see above).
    packed: Vec<i8>,
    /// Per-column sum of codes, length `n` (shift correction).
    colsum: Vec<i32>,
    /// Per-column dequantization scales, length `n`.
    scales: Vec<f32>,
    /// Contraction dimension of the original matrix.
    k: usize,
    /// Output channels of the original matrix.
    n: usize,
}

impl PackedQ8Matrix {
    /// Repack a quantized matrix's codes into the blocked layout.
    pub fn pack(q: &QuantizedMatrix) -> Self {
        let (k, n) = (q.k, q.n);
        let kg = k.div_ceil(4);
        let nb = n.div_ceil(16);
        let mut packed = vec![0i8; nb * kg * 64];
        for (p, row) in q.data.chunks(n).enumerate() {
            let (g, r) = (p / 4, p % 4);
            for (j, &code) in row.iter().enumerate() {
                let (b, l) = (j / 16, j % 16);
                packed[(b * kg + g) * 64 + l * 4 + r] = code;
            }
        }
        let mut colsum = vec![0i32; n];
        for row in q.data.chunks(n) {
            for (s, &code) in colsum.iter_mut().zip(row) {
                *s += code as i32;
            }
        }
        Self {
            packed,
            colsum,
            scales: q.scales.clone(),
            k,
            n,
        }
    }

    /// Heap bytes held by the packed codes plus per-column metadata.
    pub fn bytes(&self) -> usize {
        self.packed.len() + self.colsum.len() * 4 + self.scales.len() * 4
    }
}

/// Quantize one activation row to shifted-unsigned int8 codes
/// (`round(a/s) + 128`, zero maps to 128), padded to `kg * 4` with the
/// zero point. Returns the row scale.
fn quantize_row_u8(a: &[f32], qa: &mut Vec<u8>, kg: usize) -> f32 {
    let maxabs = a.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let s = if maxabs > 0.0 { maxabs / 127.0 } else { 1.0 };
    qa.clear();
    qa.extend(
        a.iter()
            .map(|&v| (((v / s).round() as i32 + 128).clamp(0, 255)) as u8),
    );
    qa.resize(kg * 4, 128);
    s
}

/// Integer-dot core: `acc[j] += Σ_g qa4[g] · cell[g][j]` over one
/// column block, exact i32 arithmetic. Scalar mirror of the VNNI path —
/// integer sums are associative, so both orders produce identical
/// accumulators and the kernel is deterministic regardless of dispatch.
fn dot_block_scalar(qa: &[u8], cells: &[i8], acc: &mut [i32; 16], kg: usize) {
    for g in 0..kg {
        let cell = &cells[g * 64..(g + 1) * 64];
        let q = &qa[g * 4..(g + 1) * 4];
        for (l, a) in acc.iter_mut().enumerate() {
            let w = &cell[l * 4..(l + 1) * 4];
            *a += q[0] as i32 * w[0] as i32
                + q[1] as i32 * w[1] as i32
                + q[2] as i32 * w[2] as i32
                + q[3] as i32 * w[3] as i32;
        }
    }
}

/// VNNI integer-dot core: one `vpdpbusd` per 64-byte cell (64
/// multiply-accumulates per instruction). Produces exactly the i32
/// accumulators of [`dot_block_scalar`].
///
/// # Safety
/// Caller must have verified `avx512f` + `avx512bw` + `avx512vnni`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn dot_block_vnni(qa: &[u8], cells: &[i8], acc: &mut [i32; 16], kg: usize) {
    use std::arch::x86_64::*;
    unsafe {
        let mut accv = _mm512_loadu_si512(acc.as_ptr() as *const __m512i);
        let mut cell = cells.as_ptr();
        for g in 0..kg {
            let q4 = i32::from_le_bytes([qa[g * 4], qa[g * 4 + 1], qa[g * 4 + 2], qa[g * 4 + 3]]);
            let w = _mm512_loadu_si512(cell as *const __m512i);
            accv = _mm512_dpbusd_epi32(accv, _mm512_set1_epi32(q4), w);
            cell = cell.add(64);
        }
        _mm512_storeu_si512(acc.as_mut_ptr() as *mut __m512i, accv);
    }
}

/// `c[m,n] = a[m,k] @ dequant(w)[k,n]` with both operands in the
/// integer domain: the activation row is quantized to int8 on the fly
/// (per-row symmetric scale), the dot products accumulate exactly in
/// i32, and each output gets one float scaling
/// `(Σ − 128·colsum) · s_a · s_w` at the end.
///
/// Unlike [`matmul_q8`] (f32 activations, used by the serving `int8`
/// precision), this trades ~1% extra activation rounding error for an
/// ~8× cheaper inner loop — the right trade for a speculative *draft*,
/// whose mispredictions cost acceptance rate, never correctness.
/// Deterministic: integer accumulation is exact, so the result is
/// independent of vectorization and batch shape by construction.
pub fn matmul_q8a8(a: &[f32], w: &PackedQ8Matrix, c: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    let use_vnni = is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vnni");
    #[cfg(not(target_arch = "x86_64"))]
    let use_vnni = false;
    matmul_q8a8_with(use_vnni, a, w, c, m, k, n);
}

/// [`matmul_q8a8`] with the integer-dot core chosen by the caller, so a
/// test can run the scalar core on a host that would never dispatch it.
/// `use_vnni` must only be true when the features were detected.
fn matmul_q8a8_with(
    use_vnni: bool,
    a: &[f32],
    w: &PackedQ8Matrix,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(w.k, k, "contraction dim");
    assert_eq!(w.n, n, "output dim");
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    let kg = k.div_ceil(4);
    let nb = n.div_ceil(16);
    let mut qa: Vec<u8> = Vec::with_capacity(kg * 4);
    for (ci, ai) in c.chunks_mut(n).zip(a.chunks(k)) {
        let s_a = quantize_row_u8(ai, &mut qa, kg);
        for b in 0..nb {
            let cells = &w.packed[b * kg * 64..(b + 1) * kg * 64];
            let mut acc = [0i32; 16];
            if use_vnni {
                // SAFETY: `use_vnni` is only true once avx512f, avx512bw
                // and avx512vnni were detected (see `matmul_q8a8`)
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    dot_block_vnni(&qa, cells, &mut acc, kg)
                }
            } else {
                dot_block_scalar(&qa, cells, &mut acc, kg);
            }
            let j0 = b * 16;
            let jend = n.min(j0 + 16);
            for j in j0..jend {
                let sum = acc[j - j0] - 128 * w.colsum[j];
                ci[j] = (sum as f32) * (s_a * w.scales[j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::matmul::matmul;

    fn toy_weight(k: usize, n: usize, seed: u32) -> Vec<f32> {
        (0..k * n)
            .map(|i| {
                let x = ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 8) as f32;
                (x / (1u32 << 24) as f32 - 0.5) * 0.4
            })
            .collect()
    }

    #[test]
    fn round_trip_error_bounded_by_half_scale() {
        let (k, n) = (17, 9);
        let w = toy_weight(k, n, 1);
        let q = QuantizedMatrix::quantize(&w, k, n);
        let dq = q.dequantize();
        for (p, (orig, deq)) in w.iter().zip(&dq).enumerate() {
            let s = q.scales()[p % n];
            assert!(
                (orig - deq).abs() <= s * 0.5 + 1e-7,
                "elem {p}: {orig} vs {deq} (scale {s})"
            );
        }
    }

    #[test]
    fn zero_column_round_trips_exactly() {
        let (k, n) = (4, 3);
        let mut w = toy_weight(k, n, 7);
        for row in 0..k {
            w[row * n + 1] = 0.0;
        }
        let q = QuantizedMatrix::quantize(&w, k, n);
        let dq = q.dequantize();
        for row in 0..k {
            assert_eq!(dq[row * n + 1], 0.0);
        }
    }

    #[test]
    fn extreme_weight_maps_to_127() {
        let w = vec![0.5, -1.0, 0.25, 0.5];
        let q = QuantizedMatrix::quantize(&w, 2, 2);
        // each column's largest-magnitude entry codes to ±127 exactly
        assert_eq!(q.data[0], 127);
        assert_eq!(q.data[1], -127);
        let dq = q.dequantize();
        assert!((dq[0] - 0.5).abs() < 1e-6, "channel max is exact");
        assert!((dq[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn fused_matmul_matches_dequant_then_matmul() {
        for (m, k, n) in [(1, 33, 40), (5, 16, 12), (70, 33, 71)] {
            let w = toy_weight(k, n, 3);
            let q = QuantizedMatrix::quantize(&w, k, n);
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.1)
                .collect();
            let mut fused = vec![0.0f32; m * n];
            matmul_q8(&a, &q, &mut fused, m, k, n);
            let dq = q.dequantize();
            let mut reference = vec![0.0f32; m * n];
            matmul(&a, &dq, &mut reference, m, k, n);
            for (x, y) in fused.iter().zip(&reference) {
                assert!((x - y).abs() < 1e-4, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn small_m_path_bitwise_matches_single_row_calls() {
        // The speculative draft's batched catch-up forward must produce
        // exactly the bytes of single-row decode steps.
        let (k, n) = (29, 41);
        let w = toy_weight(k, n, 5);
        let q = QuantizedMatrix::quantize(&w, k, n);
        for m in [2usize, 4, 8] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        ((i * 37 % 19) as f32 - 9.0) * 0.1
                    }
                })
                .collect();
            let mut batched = vec![0.0f32; m * n];
            matmul_q8(&a, &q, &mut batched, m, k, n);
            let mut per_row = vec![0.0f32; m * n];
            for i in 0..m {
                matmul_q8(
                    &a[i * k..(i + 1) * k],
                    &q,
                    &mut per_row[i * n..(i + 1) * n],
                    1,
                    k,
                    n,
                );
            }
            assert_eq!(
                batched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                per_row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "m={m}"
            );
        }
    }

    /// The exact integer-domain reference: same formula as
    /// `matmul_q8a8`, computed naively from the unpacked codes. Any
    /// divergence from the kernel (scalar or VNNI) is a bug, not noise.
    fn naive_q8a8(a: &[f32], q: &QuantizedMatrix, m: usize, k: usize, n: usize) -> Vec<f32> {
        let kg = k.div_ceil(4);
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            let mut qa = Vec::new();
            let s_a = quantize_row_u8(&a[i * k..(i + 1) * k], &mut qa, kg);
            for j in 0..n {
                let mut sum = 0i64;
                let mut colsum = 0i64;
                for (p, &code) in qa.iter().enumerate().take(k) {
                    let w = q.data()[p * n + j] as i64;
                    sum += code as i64 * w;
                    colsum += w;
                }
                c[i * n + j] = ((sum - 128 * colsum) as i32 as f32) * (s_a * q.scales()[j]);
            }
        }
        c
    }

    #[test]
    fn q8a8_matches_integer_reference_exactly() {
        // odd shapes exercise both the k%4 and n%16 padding
        for (m, k, n) in [(1, 29, 41), (3, 64, 16), (2, 7, 3), (5, 33, 50)] {
            let w = toy_weight(k, n, 9);
            let q = QuantizedMatrix::quantize(&w, k, n);
            let packed = PackedQ8Matrix::pack(&q);
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 41 % 23) as f32 - 11.0) * 0.07)
                .collect();
            let mut c = vec![0.0f32; m * n];
            matmul_q8a8(&a, &packed, &mut c, m, k, n);
            let r = naive_q8a8(&a, &q, m, k, n);
            assert_eq!(
                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                r.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn scalar_core_matches_vnni_core_and_forced_scalar_matches_dispatch() {
        // On a VNNI host `matmul_q8a8` never runs `dot_block_scalar`, and
        // elsewhere never `dot_block_vnni`: hold the two against each
        // other directly wherever both can run.
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vnni")
        {
            let kg = 9;
            let lcg = |i: usize, seed: u32| (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            for seed in 0..8 {
                let qa: Vec<u8> = (0..kg * 4).map(|i| (lcg(i, seed) >> 13) as u8).collect();
                let cells: Vec<i8> = (0..kg * 64).map(|i| (lcg(i, !seed) >> 11) as i8).collect();
                let (mut scalar, mut vnni) = ([seed as i32; 16], [seed as i32; 16]);
                dot_block_scalar(&qa, &cells, &mut scalar, kg);
                // SAFETY: the three features were detected just above
                unsafe { dot_block_vnni(&qa, &cells, &mut vnni, kg) };
                assert_eq!(scalar, vnni, "seed {seed}");
            }
        }
        // odd shape: both the k % 4 and the n % 16 padding are live
        let (m, k, n) = (3, 29, 41);
        let packed = PackedQ8Matrix::pack(&QuantizedMatrix::quantize(&toy_weight(k, n, 9), k, n));
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 41 % 23) as f32 - 11.0) * 0.07)
            .collect();
        let (mut dispatched, mut scalar) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        matmul_q8a8(&a, &packed, &mut dispatched, m, k, n);
        matmul_q8a8_with(false, &a, &packed, &mut scalar, m, k, n);
        assert_eq!(
            dispatched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn q8a8_tracks_f32_matmul_closely() {
        let (m, k, n) = (2, 64, 48);
        let w = toy_weight(k, n, 13);
        let q = QuantizedMatrix::quantize(&w, k, n);
        let packed = PackedQ8Matrix::pack(&q);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.1)
            .collect();
        let mut got = vec![0.0f32; m * n];
        matmul_q8a8(&a, &packed, &mut got, m, k, n);
        let mut reference = vec![0.0f32; m * n];
        matmul(&a, &w, &mut reference, m, k, n);
        let scale: f32 = reference.iter().fold(0.0, |s, v| s.max(v.abs()));
        for (x, y) in got.iter().zip(&reference) {
            assert!(
                (x - y).abs() < scale * 0.05,
                "activation+weight rounding blew past 5%: {x} vs {y}"
            );
        }
    }

    #[test]
    fn packed_bytes_stay_near_code_footprint() {
        let (k, n) = (64, 32);
        let q = QuantizedMatrix::quantize(&toy_weight(k, n, 3), k, n);
        let p = PackedQ8Matrix::pack(&q);
        // padded codes + i32 colsum + f32 scales
        assert_eq!(p.bytes(), k * n + n * 4 + n * 4);
    }

    #[test]
    fn bytes_are_a_quarter_plus_scales() {
        let (k, n) = (64, 32);
        let w = toy_weight(k, n, 11);
        let q = QuantizedMatrix::quantize(&w, k, n);
        assert_eq!(q.bytes(), k * n + n * 4);
        assert!(q.bytes() * 3 < k * n * 4, "well under the f32 footprint");
    }
}
