//! Post-training int8 weight quantization kernels.
//!
//! Per-output-channel symmetric quantization: a `[k, n]` weight matrix
//! stores one `i8` per element plus one `f32` scale per output channel
//! (column `j`), chosen so the channel's largest-magnitude weight maps
//! to ±127. Symmetric (no zero point) keeps the fused matmul a pure
//! multiply: the scale is constant along the contraction dimension, so
//! it factors out of the dot product. [`matmul_q8`] is one more
//! addressing of [`super::matmul`]'s blocked nest, whose tile reads the
//! row-major `[k, n]` codes and widens them to f32 in registers: each
//! output element is `matmul`'s fused, zero-skipping chain from `+0`
//! over the codes, then one `× scale[j]` — bit for bit `matmul` over the
//! codes read as f32, then the scales, and within rounding of
//! dequantize-then-matmul, at a quarter of the weight bytes streamed.
//! That traffic is what bounds single-token decode (a GEMV touches
//! every weight once per token). No benchmark workload serves int8;
//! ROADMAP item 2 holds the kernel's off-benchmark timings.

use super::matmul::{nest, Avx512};

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
/// weights: the nest reads the codes and widens them in registers, and
/// each output element is scaled once at the end.
pub fn matmul_q8(a: &[f32], w: &QuantizedMatrix, c: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_q8_with(Avx512::detect(), None, a, w, c, m, k, n)
}

/// [`matmul_q8`] with the tile body chosen by the caller (`None`: the
/// portable one), so a test can run the portable body on a host that
/// would never dispatch it, and with the nest's `block` (`None`: by
/// `b`'s residency), so a test can force either block size.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_q8_with(
    avx512: Option<Avx512>,
    block: Option<usize>,
    a: &[f32],
    w: &QuantizedMatrix,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(w.k, k, "contraction dim");
    assert_eq!(w.n, n, "output dim");
    assert_eq!(a.len(), m * k);
    c.fill(0.0);
    nest::<true, true, _>(avx512, block, a, (k, 1), &w.data, c, m, k, n);
    for ci in c.chunks_mut(n) {
        for (cv, &s) in ci.iter_mut().zip(&w.scales) {
            *cv *= s;
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
/// (`round(a/s) + 128`, zero maps to 128) into `qa`, whose `qa.len() -
/// a.len()` padding codes get the zero point. Returns the row scale.
fn quantize_row_u8(a: &[f32], qa: &mut [u8]) -> f32 {
    let maxabs = a.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let s = if maxabs > 0.0 { maxabs / 127.0 } else { 1.0 };
    let (codes, pad) = qa.split_at_mut(a.len());
    for (q, &v) in codes.iter_mut().zip(a) {
        *q = (((v / s).round() as i32 + 128).clamp(0, 255)) as u8;
    }
    pad.fill(128);
    s
}

/// Column blocks a core walks side by side: a panel of `BLOCKS` blocks
/// is `BLOCKS` sequential streams of cells at once, and each block's
/// accumulator is a chain of its own, so no `vpdpbusd` waits on the one
/// before it. Measured on `D`'s 29 draft matrices (86 MiB of codes), one
/// core of a 2-vCPU AVX-512 VNNI Xeon (48 KiB L1d, 2 MiB L2), median of
/// 9 passes, six alternations: panels of 2 / 4 / 8 blocks stream
/// `m = 2` at 8.9–9.8 / 11.5–12.2 / 12.1–13.0 GB/s (8 ahead of 4 in all
/// six), against 7.8 GB/s for one block with four interleaved chains per
/// row and 4.0 GB/s for the row-at-a-time loop this replaced. A software
/// prefetch 4–16 KiB ahead in each stream moved no shape beyond that
/// spread, so there is none.
const BLOCKS: usize = 8;
/// Rows a core runs over one panel: `ROWS · BLOCKS` accumulators, the
/// panel stays in L2 for the next group. Same measurement as
/// [`BLOCKS`]: groups of 4 rows stream `m = 8` at 8.0–9.3 GB/s, groups of
/// 2 at 6.3–7.9 and of 3 at 7.1–7.4; `m ≤ 4` is one group either way.
const ROWS: usize = 4;

/// Integer-dot core over one panel of column blocks (`cells`, `kg * 64`
/// bytes a block) for a group of rows (`qa`, `kg * 4` codes a row, back
/// to back): `acc[b·rows + r][j] = Σ_g qa_r[g] · cell_b[g][j]`, exact
/// i32 arithmetic, each cell read once for the whole group. Scalar
/// mirror of [`dot_panel_vnni`] — integer sums are associative, so both
/// produce identical accumulators and the kernel is deterministic
/// regardless of dispatch.
fn dot_panel_scalar(qa: &[u8], cells: &[i8], acc: &mut [[i32; 16]], kg: usize) {
    let rows = qa.len() / (kg * 4);
    acc.fill([0; 16]);
    for (block, acc) in cells.chunks_exact(kg * 64).zip(acc.chunks_exact_mut(rows)) {
        for (g, cell) in block.chunks_exact(64).enumerate() {
            for (row, a) in qa.chunks_exact(kg * 4).zip(acc.iter_mut()) {
                let q = &row[g * 4..(g + 1) * 4];
                for (a, w) in a.iter_mut().zip(cell.chunks_exact(4)) {
                    *a += q[0] as i32 * w[0] as i32
                        + q[1] as i32 * w[1] as i32
                        + q[2] as i32 * w[2] as i32
                        + q[3] as i32 * w[3] as i32;
                }
            }
        }
    }
}

/// VNNI integer-dot core: one `vpdpbusd` per 64-byte cell and row (64
/// multiply-accumulates per instruction). A whole panel of [`BLOCKS`]
/// runs its blocks side by side; a narrower one (the tail of a matrix)
/// runs them one at a time. Produces exactly the accumulators of
/// [`dot_panel_scalar`].
///
/// # Safety
/// Caller must have verified `avx512f` + `avx512bw` + `avx512vnni`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn dot_panel_vnni(qa: &[u8], cells: &[i8], acc: &mut [[i32; 16]], kg: usize) {
    let rows = qa.len() / (kg * 4);
    // SAFETY: the features were detected (this function's contract)
    unsafe {
        if cells.len() == BLOCKS * kg * 64 {
            rows_vnni::<BLOCKS>(qa, cells, acc, kg);
        } else {
            for (cells, acc) in cells.chunks_exact(kg * 64).zip(acc.chunks_exact_mut(rows)) {
                rows_vnni::<1>(qa, cells, acc, kg);
            }
        }
    }
}

/// [`panel_vnni`] for a panel of `B` blocks, the group size read off
/// `acc`.
///
/// # Safety
/// As [`dot_panel_vnni`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn rows_vnni<const B: usize>(qa: &[u8], cells: &[i8], acc: &mut [[i32; 16]], kg: usize) {
    // SAFETY: the features were detected (this function's contract)
    unsafe {
        match acc.len() / B {
            1 => panel_vnni::<1, B>(qa, cells, acc, kg),
            2 => panel_vnni::<2, B>(qa, cells, acc, kg),
            3 => panel_vnni::<3, B>(qa, cells, acc, kg),
            4 => panel_vnni::<4, B>(qa, cells, acc, kg),
            r => unreachable!("{r} rows in a group of at most {ROWS}"),
        }
    }
}

/// [`dot_panel_vnni`] for exactly `R` rows and `B` blocks: `R · B`
/// accumulators in registers for the whole walk down the panel.
///
/// # Safety
/// As [`dot_panel_vnni`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn panel_vnni<const R: usize, const B: usize>(
    qa: &[u8],
    cells: &[i8],
    acc: &mut [[i32; 16]],
    kg: usize,
) {
    use std::arch::x86_64::*;
    assert!(qa.len() == R * kg * 4 && cells.len() == B * kg * 64 && acc.len() == R * B);
    // SAFETY: the assert bounds every read: cell `g < kg` of block
    // `b < B` lies in `cells`, and code group `g` of row `r < R` in `qa`
    unsafe {
        let (q, w) = (qa.as_ptr(), cells.as_ptr());
        let mut sums = [[_mm512_setzero_si512(); B]; R];
        for g in 0..kg {
            let x: [__m512i; R] = std::array::from_fn(|r| {
                _mm512_set1_epi32(q.add((r * kg + g) * 4).cast::<i32>().read_unaligned())
            });
            for b in 0..B {
                let cell = _mm512_loadu_si512(w.add((b * kg + g) * 64).cast());
                for (row, &x) in sums.iter_mut().zip(&x) {
                    row[b] = _mm512_dpbusd_epi32(row[b], x, cell);
                }
            }
        }
        for (r, row) in sums.iter().enumerate() {
            for (b, &sum) in row.iter().enumerate() {
                _mm512_storeu_si512(acc[b * R + r].as_mut_ptr().cast(), sum);
            }
        }
    }
}

/// `c[m,n] = a[m,k] @ dequant(w)[k,n]` with both operands in the
/// integer domain: each activation row is quantized to int8 on the fly
/// (per-row symmetric scale), the dot products accumulate exactly in
/// i32, and each output gets one float scaling
/// `(Σ − 128·colsum) · (s_a · s_w)` at the end.
///
/// Weight-stationary: every row is quantized first, then each panel of
/// eight 16-column blocks is walked once per group of up to four rows —
/// the first group from DRAM, the rest from L2 — with one independent
/// `vpdpbusd` chain per block and row, so the kernel streams the codes
/// once per call, whatever `m`. Traced on the benchmark's `dram_spec`
/// (`serve:spec-draft` ÷ `serve:spec-verify` per macro-step, seeds 1
/// and 23), a draft step now costs 0.28 / 0.27 of an f32 verify step,
/// against 0.81 / 0.79 when the codes were streamed once per row; the
/// bytes alone would say 1/4.
///
/// Unlike [`matmul_q8`] (f32 activations, used by the serving `int8`
/// precision), this trades ~1% extra activation rounding error for an
/// ~8× cheaper inner loop — the right trade for a speculative *draft*,
/// whose mispredictions cost acceptance rate, never correctness.
/// Deterministic: integer accumulation is exact, so the result is
/// independent of vectorization, row grouping and batch shape by
/// construction.
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
    assert_eq!(a.len(), m * k);
    assert_eq!(c.len(), m * n);
    let kg = k.div_ceil(4);
    let mut qa = vec![0u8; m * kg * 4];
    let s_a: Vec<f32> = a
        .chunks(k)
        .zip(qa.chunks_mut(kg * 4))
        .map(|(ai, qi)| quantize_row_u8(ai, qi))
        .collect();
    let mut acc = [[0i32; 16]; ROWS * BLOCKS];
    for (p, panel) in w.packed.chunks(BLOCKS * kg * 64).enumerate() {
        let blocks = panel.len() / (kg * 64);
        for (r0, group) in (0..m).step_by(ROWS).zip(qa.chunks(ROWS * kg * 4)) {
            let rows = group.len() / (kg * 4);
            let acc = &mut acc[..rows * blocks];
            if use_vnni {
                // SAFETY: `use_vnni` is only true once avx512f, avx512bw
                // and avx512vnni were detected (see `matmul_q8a8`)
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    dot_panel_vnni(group, panel, acc, kg)
                }
            } else {
                dot_panel_scalar(group, panel, acc, kg);
            }
            for (b, acc) in acc.chunks_exact(rows).enumerate() {
                let j0 = (p * BLOCKS + b) * 16;
                let cols = j0..n.min(j0 + 16);
                let (colsum, scales) = (&w.colsum[cols.clone()], &w.scales[cols.clone()]);
                for ((ci, acc), &s_a) in c.chunks_mut(n).skip(r0).zip(acc).zip(&s_a[r0..]) {
                    for (((cv, &sum), &cs), &s_w) in
                        ci[cols.clone()].iter_mut().zip(acc).zip(colsum).zip(scales)
                    {
                        *cv = ((sum - 128 * cs) as f32) * (s_a * s_w);
                    }
                }
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
            let mut qa = vec![0u8; kg * 4];
            let s_a = quantize_row_u8(&a[i * k..(i + 1) * k], &mut qa);
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

    /// The integer-dot cores this host can run: the scalar one always,
    /// the VNNI one where its features were detected.
    fn cores() -> Vec<bool> {
        #[cfg(target_arch = "x86_64")]
        let vnni = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vnni");
        #[cfg(not(target_arch = "x86_64"))]
        let vnni = false;
        if vnni {
            vec![false, true]
        } else {
            vec![false]
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn zero_activation_row_is_scale_one_at_the_zero_point() {
        let mut qa = [0u8; 12];
        assert_eq!(quantize_row_u8(&[0.0; 9], &mut qa), 1.0);
        assert_eq!(qa, [128; 12]);
    }

    #[test]
    fn m_rows_equal_m_single_rows_and_the_reference_on_every_core() {
        // kg = 9 and 5 are odd and k % 4 != 0 in three shapes; n % 16 !=
        // 0 in two (the tail block); n = 150 is a whole panel of BLOCKS
        // and a narrower tail panel, n = 256 two whole panels; every third
        // row is all zeros
        for (k, n) in [(33, 41), (19, 16), (70, 150), (33, 256)] {
            let q = QuantizedMatrix::quantize(&toy_weight(k, n, 9), k, n);
            let packed = PackedQ8Matrix::pack(&q);
            for m in (1..=9).chain([16, 33]) {
                let a: Vec<f32> = (0..m * k)
                    .map(|i| {
                        if (i / k) % 3 == 2 {
                            0.0
                        } else {
                            ((i * 41 % 23) as f32 - 11.0) * 0.07
                        }
                    })
                    .collect();
                let reference = bits(&naive_q8a8(&a, &q, m, k, n));
                for vnni in cores() {
                    let mut batched = vec![f32::NAN; m * n];
                    matmul_q8a8_with(vnni, &a, &packed, &mut batched, m, k, n);
                    let mut per_row = vec![f32::NAN; m * n];
                    for (ci, ai) in per_row.chunks_mut(n).zip(a.chunks(k)) {
                        matmul_q8a8_with(vnni, ai, &packed, ci, 1, k, n);
                    }
                    let what = format!("m={m} k={k} n={n} vnni={vnni}");
                    assert_eq!(bits(&batched), bits(&per_row), "{what}: batched vs rows");
                    assert_eq!(bits(&batched), reference, "{what}: vs reference");
                }
            }
        }
    }

    #[test]
    fn scalar_core_matches_vnni_core_and_forced_scalar_matches_dispatch() {
        // On a VNNI host `matmul_q8a8` never runs `dot_panel_scalar`, and
        // elsewhere never `dot_panel_vnni`: hold the two against each
        // other directly wherever both can run, for every group size, a
        // whole panel and a tail panel, odd and even `kg`.
        #[cfg(target_arch = "x86_64")]
        if cores().contains(&true) {
            let lcg = |i: usize, seed: u32| (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            for seed in 0..8u32 {
                let rows = 1 + seed as usize % ROWS;
                for (kg, blocks) in [(9, BLOCKS), (12, BLOCKS), (9, 3), (12, 1)] {
                    let qa: Vec<u8> = (0..rows * kg * 4)
                        .map(|i| (lcg(i, seed) >> 13) as u8)
                        .collect();
                    let cells: Vec<i8> = (0..blocks * kg * 64)
                        .map(|i| (lcg(i, !seed) >> 11) as i8)
                        .collect();
                    let mut scalar = vec![[seed as i32; 16]; rows * blocks];
                    let mut vnni = vec![[!seed as i32; 16]; rows * blocks];
                    dot_panel_scalar(&qa, &cells, &mut scalar, kg);
                    // SAFETY: the three features were detected just above
                    unsafe { dot_panel_vnni(&qa, &cells, &mut vnni, kg) };
                    assert_eq!(
                        scalar, vnni,
                        "kg {kg}, {rows} rows, {blocks} blocks, seed {seed}"
                    );
                }
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
        assert_eq!(bits(&dispatched), bits(&scalar));
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
