//! Inference-only kernels: KV-cached causal attention and rotary
//! embeddings at explicit absolute positions.
//!
//! The training path (tape.rs) lays attention inputs out head-major
//! (`[BH, T, D]`) because the whole sequence is present at once. The
//! inference path instead keeps everything **token-major**:
//!
//! * queries for the new tokens: `[Tn, H*D]` — exactly the projection
//!   output, no head split/merge copies;
//! * key/value caches: `[Ttot, Hkv*D]` — appending one decoded token is
//!   a plain `extend_from_slice`, and windowed truncation is a front
//!   drain.
//!
//! Grouped-query attention falls out of the indexing: query head `h`
//! reads cache head `h / (H / Hkv)`.

use super::softmax::OnlineSoftmax;
use rayon::prelude::*;

/// Rotate every `d`-wide head of `x` in place by the rotary angles
/// `theta = pos / base^(2i/d)` (half-split convention), head `j` of `x`
/// sitting at `positions[pos_of(j)]`; `inverse` un-applies. The one
/// evaluation of the angle: the token-major rows below and the
/// head-major training tape both rotate through here, so they agree
/// bitwise. The divisor depends only on `i` and the angle only on
/// `(pos, i)`, so both are computed once, not per head.
pub(crate) fn rotary_heads(
    x: &mut [f32],
    positions: &[usize],
    d: usize,
    base: f32,
    pos_of: impl Fn(usize) -> usize,
    inverse: bool,
) {
    let half = d / 2;
    let divisors: Vec<f32> = (0..half)
        .map(|i| base.powf(2.0 * i as f32 / d as f32))
        .collect();
    let mut sincos = Vec::with_capacity(positions.len() * half);
    for &pos in positions {
        sincos.extend(divisors.iter().map(|&div| (pos as f32 / div).sin_cos()));
    }
    for (j, head) in x.chunks_mut(d).enumerate() {
        let at = pos_of(j) * half;
        for (i, &(sin, cos)) in sincos[at..at + half].iter().enumerate() {
            let sin = if inverse { -sin } else { sin };
            let x1 = head[i];
            let x2 = head[i + half];
            head[i] = x1 * cos - x2 * sin;
            head[i + half] = x2 * cos + x1 * sin;
        }
    }
}

/// Apply rotary position embeddings in place to token-major rows
/// `x = [rows.len(), heads*d]`, where row `i` sits at absolute position
/// `positions[i]` — the training tape's convention, so a cache built
/// here matches a full forward that numbered positions `0..T`.
pub fn rotary_rows(x: &mut [f32], positions: &[usize], heads: usize, d: usize, base: f32) {
    debug_assert_eq!(x.len(), positions.len() * heads * d, "rotary_rows layout");
    rotary_heads(x, positions, d, base, |j| j / heads, false);
}

/// Dot product with a fixed eight-lane accumulation shape: lanes gather
/// strided partial sums, are combined in a fixed pairwise order, then
/// the `len % 8` tail is added sequentially. The shape depends only on
/// the slice length — never on which kernel or batch the call came from
/// — so contiguous/paged attention and single/batched decode all score
/// identical inputs bitwise identically.
#[inline]
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = xa[l].mul_add(xb[l], *lane);
        }
    }
    let mut tail = 0.0f32;
    for (xa, xb) in ca.remainder().iter().zip(cb.remainder()) {
        tail = xa.mul_add(*xb, tail);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// The one causal attention scan behind both KV layouts: query `i` (of
/// the trailing `n_new` visible rows) attends to visible rows
/// `0..=t_total - n_new + i`, scoring with [`dot8`] and folding with a
/// streaming [`OnlineSoftmax`] — O(1) auxiliary memory per head, O(T)
/// per decoded token. `kv_row(j)` fetches visible row `j`'s
/// `[kv_heads*d]` key and value rows; it is the only thing the layouts
/// differ in (monomorphised per caller), so for bitwise-equal rows every
/// layout performs the identical float operations in the identical order.
#[allow(clippy::too_many_arguments)]
fn attention_scan<'a>(
    q: &[f32],
    kv_row: impl Fn(usize) -> (&'a [f32], &'a [f32]) + Sync,
    out: &mut [f32],
    n_new: usize,
    t_total: usize,
    heads: usize,
    kv_heads: usize,
    d: usize,
) {
    debug_assert_eq!(q.len(), n_new * heads * d, "q layout");
    debug_assert!(n_new <= t_total, "more new tokens than visible rows");
    let group = heads / kv_heads;
    let scale = 1.0 / (d as f32).sqrt();
    let first = t_total - n_new;
    out.par_chunks_mut(heads * d)
        .enumerate()
        .for_each(|(i, orow)| {
            let qrow = &q[i * heads * d..(i + 1) * heads * d];
            let limit = first + i; // inclusive causal horizon
            for h in 0..heads {
                let hkv = h / group;
                let qh = &qrow[h * d..(h + 1) * d];
                let acc = &mut orow[h * d..(h + 1) * d];
                let mut os = OnlineSoftmax::default();
                for j in 0..=limit {
                    let (krow, vrow) = kv_row(j);
                    let s = dot8(qh, &krow[hkv * d..(hkv + 1) * d]) * scale;
                    os.push(s, &vrow[hkv * d..(hkv + 1) * d], acc);
                }
                os.finish(acc);
            }
        });
}

/// KV-cached causal attention over token-major buffers.
///
/// * `q`: `[n_new, heads*d]` rotated queries for the trailing `n_new`
///   tokens of the cached sequence;
/// * `k_cache` / `v_cache`: `[t_total, kv_heads*d]` including the rows
///   for the new tokens (append before calling);
/// * `out`: `[n_new, heads*d]`.
///
/// Query `i` (cache row `t_total - n_new + i`) attends to cache rows
/// `0..=t_total - n_new + i` — causal over the window.
#[allow(clippy::too_many_arguments)]
pub fn cached_attention(
    q: &[f32],
    k_cache: &[f32],
    v_cache: &[f32],
    out: &mut [f32],
    n_new: usize,
    t_total: usize,
    heads: usize,
    kv_heads: usize,
    d: usize,
) {
    let w = kv_heads * d;
    debug_assert_eq!(k_cache.len(), t_total * w, "k cache layout");
    debug_assert_eq!(v_cache.len(), t_total * w, "v cache layout");
    let kv_row = |j: usize| (&k_cache[j * w..(j + 1) * w], &v_cache[j * w..(j + 1) * w]);
    attention_scan(q, kv_row, out, n_new, t_total, heads, kv_heads, d);
}

/// [`cached_attention`] over a **block-paged** KV layout.
///
/// Instead of one contiguous `[t_total, kv_heads*d]` buffer per layer,
/// keys and values live in fixed-size blocks of `block_rows` tokens
/// each (`k_blocks[b]` / `v_blocks[b]` are `[block_rows, kv_heads*d]`
/// slices, in logical order). Physical row `p` sits in block
/// `p / block_rows` at slot `p % block_rows`; the first `skip` physical
/// rows are outside the attention window (front-dropped) and are never
/// read, so visible row `j` maps to physical row `skip + j`.
///
/// Both layouts run the same private scan and differ only in this row
/// lookup, so for bitwise-equal inputs the outputs are **bitwise
/// equal** — the property the paged KV backend's parity guarantee
/// rests on.
#[allow(clippy::too_many_arguments)]
pub fn paged_attention(
    q: &[f32],
    k_blocks: &[&[f32]],
    v_blocks: &[&[f32]],
    block_rows: usize,
    skip: usize,
    out: &mut [f32],
    n_new: usize,
    t_total: usize,
    heads: usize,
    kv_heads: usize,
    d: usize,
) {
    debug_assert_eq!(k_blocks.len(), v_blocks.len(), "block table layout");
    debug_assert!(
        k_blocks.len() * block_rows >= skip + t_total,
        "block table too short: {} blocks of {} rows for skip {} + {} visible",
        k_blocks.len(),
        block_rows,
        skip,
        t_total
    );
    let w = kv_heads * d;
    let kv_row = |j: usize| {
        let p = skip + j;
        let (b, slot) = (p / block_rows, p % block_rows);
        let at = slot * w..(slot + 1) * w;
        (&k_blocks[b][at.clone()], &v_blocks[b][at])
    };
    attention_scan(q, kv_row, out, n_new, t_total, heads, kv_heads, d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::attention::{causal_attention_fwd, AttentionImpl};

    fn rand_buf(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed.wrapping_mul(0x9E3779B97F4A7C15));
                ((x >> 33) as f32 / u32::MAX as f32 - 0.5) * 2.0
            })
            .collect()
    }

    /// Reshape `[T, H*D]` token-major into `[H, T, D]` head-major.
    fn to_head_major(x: &[f32], t: usize, h: usize, d: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; t * h * d];
        for ti in 0..t {
            for hi in 0..h {
                let src = ti * h * d + hi * d;
                let dst = (hi * t + ti) * d;
                out[dst..dst + d].copy_from_slice(&x[src..src + d]);
            }
        }
        out
    }

    #[test]
    fn cached_matches_full_attention_for_whole_sequence() {
        let (t, h, d) = (9, 4, 6);
        let q = rand_buf(t * h * d, 1);
        let k = rand_buf(t * h * d, 2);
        let v = rand_buf(t * h * d, 3);
        // full pass: every token is "new"
        let mut out = vec![0.0f32; t * h * d];
        cached_attention(&q, &k, &v, &mut out, t, t, h, h, d);
        // reference: head-major training kernel
        let (ref_out, _) = causal_attention_fwd(
            &to_head_major(&q, t, h, d),
            &to_head_major(&k, t, h, d),
            &to_head_major(&v, t, h, d),
            h,
            t,
            d,
            AttentionImpl::Flash,
        );
        let ref_tm = {
            // back to token-major
            let mut buf = vec![0.0f32; t * h * d];
            for hi in 0..h {
                for ti in 0..t {
                    let src = (hi * t + ti) * d;
                    let dst = ti * h * d + hi * d;
                    buf[dst..dst + d].copy_from_slice(&ref_out[src..src + d]);
                }
            }
            buf
        };
        for (a, b) in out.iter().zip(&ref_tm) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn incremental_decode_matches_one_shot() {
        let (t, h, d) = (8, 2, 4);
        let q = rand_buf(t * h * d, 7);
        let k = rand_buf(t * h * d, 8);
        let v = rand_buf(t * h * d, 9);
        let mut full = vec![0.0f32; t * h * d];
        cached_attention(&q, &k, &v, &mut full, t, t, h, h, d);
        // prefill 5, then decode 3 one at a time
        let mut inc = vec![0.0f32; t * h * d];
        cached_attention(
            &q[..5 * h * d],
            &k[..5 * h * d],
            &v[..5 * h * d],
            &mut inc[..5 * h * d],
            5,
            5,
            h,
            h,
            d,
        );
        for step in 5..t {
            let tt = step + 1;
            let (lo, hi) = (step * h * d, (step + 1) * h * d);
            let mut row = vec![0.0f32; h * d];
            cached_attention(
                &q[lo..hi],
                &k[..tt * h * d],
                &v[..tt * h * d],
                &mut row,
                1,
                tt,
                h,
                h,
                d,
            );
            inc[lo..hi].copy_from_slice(&row);
        }
        for (a, b) in full.iter().zip(&inc) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn gqa_head_sharing_equals_explicit_expansion() {
        let (t, h, hkv, d) = (6, 4, 2, 4);
        let q = rand_buf(t * h * d, 11);
        let k = rand_buf(t * hkv * d, 12);
        let v = rand_buf(t * hkv * d, 13);
        let mut gqa = vec![0.0f32; t * h * d];
        cached_attention(&q, &k, &v, &mut gqa, t, t, h, hkv, d);
        // expand kv heads to full width and run MHA
        let group = h / hkv;
        let mut ke = vec![0.0f32; t * h * d];
        let mut ve = vec![0.0f32; t * h * d];
        for ti in 0..t {
            for hi in 0..h {
                let src = ti * hkv * d + (hi / group) * d;
                let dst = ti * h * d + hi * d;
                ke[dst..dst + d].copy_from_slice(&k[src..src + d]);
                ve[dst..dst + d].copy_from_slice(&v[src..src + d]);
            }
        }
        let mut mha = vec![0.0f32; t * h * d];
        cached_attention(&q, &ke, &ve, &mut mha, t, t, h, h, d);
        for (a, b) in gqa.iter().zip(&mha) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn rotary_rows_matches_training_convention() {
        // tape's rotary numbers positions 0..T inside a [BH, T, D] block;
        // rotary_rows with positions = 0..T must produce the same values.
        let (t, h, d) = (5, 3, 8);
        let base = 10_000.0;
        let x = rand_buf(t * h * d, 21);
        let mut tm = x.clone();
        let positions: Vec<usize> = (0..t).collect();
        rotary_rows(&mut tm, &positions, h, d, base);
        // reference via the tape on head-major layout
        let mut tape = crate::tape::Tape::new();
        let hm = to_head_major(&x, t, h, d);
        let v = tape.input(crate::tensor::Tensor::from_vec(&[h, t, d], hm));
        let r = tape.rotary(v, t, d, base);
        let ref_hm = tape.value(r).data().to_vec();
        for ti in 0..t {
            for hi in 0..h {
                for di in 0..d {
                    let a = tm[ti * h * d + hi * d + di];
                    let b = ref_hm[(hi * t + ti) * d + di];
                    assert_eq!(a.to_bits(), b.to_bits(), "t={ti} h={hi} d={di}: {a} vs {b}");
                }
            }
        }
    }

    /// Scatter a contiguous `[t, kv_dim]` token-major buffer into
    /// fixed-size blocks of `rows` tokens (last block zero-padded).
    fn to_blocks(x: &[f32], t: usize, kv_dim: usize, rows: usize) -> Vec<Vec<f32>> {
        let nb = t.div_ceil(rows);
        let mut blocks = vec![vec![0.0f32; rows * kv_dim]; nb];
        for p in 0..t {
            let (b, slot) = (p / rows, p % rows);
            blocks[b][slot * kv_dim..(slot + 1) * kv_dim]
                .copy_from_slice(&x[p * kv_dim..(p + 1) * kv_dim]);
        }
        blocks
    }

    #[test]
    fn paged_attention_is_bitwise_identical_to_contiguous() {
        // across prefill (n_new == t) and decode (n_new == 1), GQA, and
        // block sizes that do and don't divide the sequence length
        for (t, n_new, h, hkv, d, rows) in [
            (9, 9, 4, 2, 6, 4),
            (13, 1, 4, 4, 4, 3),
            (16, 5, 2, 1, 8, 16),
            (7, 7, 2, 2, 4, 1),
        ] {
            let q = rand_buf(n_new * h * d, 41);
            let k = rand_buf(t * hkv * d, 42);
            let v = rand_buf(t * hkv * d, 43);
            let mut contig = vec![0.0f32; n_new * h * d];
            cached_attention(&q, &k, &v, &mut contig, n_new, t, h, hkv, d);
            let kb = to_blocks(&k, t, hkv * d, rows);
            let vb = to_blocks(&v, t, hkv * d, rows);
            let kr: Vec<&[f32]> = kb.iter().map(|b| b.as_slice()).collect();
            let vr: Vec<&[f32]> = vb.iter().map(|b| b.as_slice()).collect();
            let mut paged = vec![0.0f32; n_new * h * d];
            paged_attention(&q, &kr, &vr, rows, 0, &mut paged, n_new, t, h, hkv, d);
            assert_eq!(contig, paged, "t={t} n={n_new} rows={rows}");
        }
    }

    #[test]
    fn paged_attention_skip_matches_front_dropped_contiguous() {
        // a window that dropped `skip` front rows: the contiguous kernel
        // over the retained suffix must agree bitwise with the paged
        // kernel reading the same rows through skip-offset indexing
        let (t_phys, skip, h, hkv, d, rows) = (11, 3, 2, 1, 4, 4);
        let t_vis = t_phys - skip;
        let q = rand_buf(h * d, 51);
        let k = rand_buf(t_phys * hkv * d, 52);
        let v = rand_buf(t_phys * hkv * d, 53);
        let mut contig = vec![0.0f32; h * d];
        cached_attention(
            &q,
            &k[skip * hkv * d..],
            &v[skip * hkv * d..],
            &mut contig,
            1,
            t_vis,
            h,
            hkv,
            d,
        );
        let kb = to_blocks(&k, t_phys, hkv * d, rows);
        let vb = to_blocks(&v, t_phys, hkv * d, rows);
        let kr: Vec<&[f32]> = kb.iter().map(|b| b.as_slice()).collect();
        let vr: Vec<&[f32]> = vb.iter().map(|b| b.as_slice()).collect();
        let mut paged = vec![0.0f32; h * d];
        paged_attention(&q, &kr, &vr, rows, skip, &mut paged, 1, t_vis, h, hkv, d);
        assert_eq!(contig, paged);
    }

    #[test]
    fn rotary_offset_continues_the_sequence() {
        let (h, d) = (2, 4);
        let base = 10_000.0;
        let x = rand_buf(3 * h * d, 31);
        // rotate all three rows at positions 0,1,2 in one call...
        let mut all = x.clone();
        rotary_rows(&mut all, &[0, 1, 2], h, d, base);
        // ...or rotate the last row alone at offset 2
        let mut last = x[2 * h * d..].to_vec();
        rotary_rows(&mut last, &[2], h, d, base);
        for (a, b) in all[2 * h * d..].iter().zip(&last) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
