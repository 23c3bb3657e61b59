//! Inference-only kernels: KV-cached causal attention and rotary
//! embeddings at explicit absolute positions.
//!
//! Queries, values and the outputs are **token-major** here, as they
//! are in the training kernels ([`super::attention`], whole sequences
//! of `[B·T, H·D]` queries against `[B·T, Hkv·D]` keys and values):
//! queries for the new tokens are `[Tn, H*D]`, exactly the projection
//! output, and a cache's values `[Ttot, Hkv*D]` rows. Cached **keys**
//! are key-major, in pieces of `w` positions laid out `[Hkv*D, w]`
//! (a KV block's `w` slots, as the tape's [`super::attention::KeyMajor`]
//! holds a head in tiles of 16), so that a score is the training
//! tape's: [`dots`] sums each key's products in order, unfused, and the
//! two scans round every score, weight and output alike. A served
//! forward's logits therefore equal the tape's bit for bit while the
//! sequence fits the window.
//!
//! Grouped-query attention falls out of the indexing on both sides:
//! query head `h` reads cache head `h / (H / Hkv)`.

use super::attention::dots;
use super::softmax::{OnlineSoftmax, RowScratch};
use rayon::prelude::*;
use std::collections::VecDeque;

/// The rotary angles of a set of positions, evaluated once:
/// `sin_cos(pos / base^(2i/d))` for every position and `i < d/2`
/// (half-split convention). The one evaluation of the angle: the
/// serving rows below and the training tape both rotate token-major
/// rows through here, so they agree bitwise, and a forward that rotates
/// queries and keys in every layer at the same positions builds one
/// table for all of them.
///
/// The sines and the cosines are two tables, `[positions, d/2]` each,
/// so a row's rotation reads its position's two `d/2`-wide slices once
/// and rotates every head of the row with them, a loop over `i < d/2`
/// with no gather.
#[derive(Clone, Debug)]
pub struct RotaryTable {
    positions: usize,
    half: usize,
    sin: Vec<f32>,
    cos: Vec<f32>,
}

impl RotaryTable {
    /// The angles of `positions` for heads `d` wide.
    pub fn new(positions: &[usize], d: usize, base: f32) -> Self {
        let half = d / 2;
        let divisors: Vec<f32> = (0..half)
            .map(|i| base.powf(2.0 * i as f32 / d as f32))
            .collect();
        let cap = positions.len() * half;
        let (mut sin, mut cos) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        for &pos in positions {
            for &div in &divisors {
                let (s, c) = (pos as f32 / div).sin_cos();
                sin.push(s);
                cos.push(c);
            }
        }
        Self {
            positions: positions.len(),
            half,
            sin,
            cos,
        }
    }

    /// Rotate token-major rows of `x` (`heads` heads of `d` a row) in
    /// place, row `i` at the `pos_of(i)`-th position of the table;
    /// `inverse` un-applies.
    pub(crate) fn rotate(
        &self,
        x: &mut [f32],
        heads: usize,
        pos_of: impl Fn(usize) -> usize,
        inverse: bool,
    ) {
        let half = self.half;
        for (i, row) in x.chunks_mut(heads * 2 * half).enumerate() {
            let at = pos_of(i) * half;
            let (sin, cos) = (&self.sin[at..at + half], &self.cos[at..at + half]);
            for head in row.chunks_exact_mut(2 * half) {
                let (x1, x2) = head.split_at_mut(half);
                let pairs = x1.iter_mut().zip(x2.iter_mut());
                for ((x1, x2), (&sin, &cos)) in pairs.zip(sin.iter().zip(cos)) {
                    let sin = if inverse { -sin } else { sin };
                    let (a, b) = (*x1, *x2);
                    *x1 = a * cos - b * sin;
                    *x2 = b * cos + a * sin;
                }
            }
        }
    }

    /// Rotate token-major rows `x = [positions, heads*d]` in place, row
    /// `i` at the table's `i`-th position — the training tape's
    /// convention, so a cache built here matches a full forward that
    /// numbered positions `0..T`.
    pub fn rotate_rows(&self, x: &mut [f32], heads: usize) {
        debug_assert_eq!(
            x.len(),
            self.positions * heads * 2 * self.half,
            "rotate_rows layout"
        );
        self.rotate(x, heads, |i| i, false);
    }
}

/// A sequence's cached keys and values as the scan reads them, in
/// pieces of `w` positions: piece `p` holds positions `pw..pw+w`, its
/// keys key-major `[kv_heads·d, w]` (the layout [`dots`] scores) and its
/// values token-major `[w, kv_heads·d]`. The first `skip` positions lie
/// outside the attention window and are never read: visible position
/// `j` is position `skip + j`.
#[derive(Clone, Copy, Debug)]
pub struct KvPieces<'a> {
    /// Key pieces, `[kv_heads·d, w]` each.
    pub k: &'a [&'a [f32]],
    /// Value pieces, `[w, kv_heads·d]` each (a last one may be shorter).
    pub v: &'a [&'a [f32]],
    /// Positions per piece.
    pub w: usize,
    /// Front positions outside the window.
    pub skip: usize,
}

/// KV-cached causal attention over key-major cached keys: the one scan
/// behind every KV layout. Query `i` of `q` (`[n_new, heads*d]`,
/// rotated; visible position `t_total - n_new + i`) attends to visible
/// positions `0..=t_total - n_new + i` of `kv`, which include the new
/// tokens' own rows; `out` is `[n_new, heads*d]`.
///
/// Per query row and head it scores the visible keys with [`dots`] and
/// folds the scores with `OnlineSoftmax::fold_row`, the streaming
/// softmax's exact recurrence, exactly as the tape's flash kernel
/// does row by row: the piece width and the skip move no bit. Row `i`
/// costs `first + i` keys, so the rows go to the pool cheapest and
/// dearest alternately: the pool's contiguous per-worker groups then
/// cost about the same.
#[allow(clippy::too_many_arguments)]
pub fn key_major_attention(
    q: &[f32],
    kv: KvPieces<'_>,
    out: &mut [f32],
    n_new: usize,
    t_total: usize,
    heads: usize,
    kv_heads: usize,
    d: usize,
) {
    debug_assert_eq!(q.len(), n_new * heads * d, "q layout");
    debug_assert!(n_new <= t_total, "more new tokens than visible rows");
    let KvPieces { k, v, w, skip } = kv;
    let width = kv_heads * d;
    let group = heads / kv_heads;
    let scale = 1.0 / (d as f32).sqrt();
    let first = t_total - n_new;
    let rows = v.iter().flat_map(|piece| piece.chunks_exact(width));
    let rows: Vec<&[f32]> = rows.skip(skip).take(t_total).collect();
    let mut left: VecDeque<(usize, &mut [f32])> = out.chunks_mut(heads * d).enumerate().collect();
    let mut items = Vec::with_capacity(n_new);
    while let Some(cheap) = left.pop_front() {
        items.push(cheap);
        items.extend(left.pop_back());
    }
    let scored = (skip + t_total).next_multiple_of(w);
    let init = || (vec![0.0f32; scored], RowScratch::default());
    items
        .into_par_iter()
        .for_each_init(init, |(scores, scratch), (i, orow)| {
            let n = first + i + 1;
            for (h, acc) in orow.chunks_mut(d).enumerate() {
                let at = h / group * d;
                let qh = &q[(i * heads + h) * d..][..d];
                dots(k, w, at, qh, skip + n, scale, scores);
                let v = |j: usize| &rows[j][at..at + d];
                OnlineSoftmax::fold_row(&scores[skip..skip + n], v, acc, scratch).finish(acc);
            }
        });
}

/// KV-cached causal attention over token-major buffers: the paged
/// kernel over one block of `t_total` rows.
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
    // a block of at least one row, so an empty cache is one empty block
    let (k, v, rows) = (&[k_cache][..], &[v_cache][..], t_total.max(1));
    paged_attention(q, k, v, rows, 0, out, n_new, t_total, heads, kv_heads, d);
}

/// [`cached_attention`] over a **block-paged** token-major KV layout:
/// `k_blocks[b]` / `v_blocks[b]` are `[block_rows, kv_heads*d]` blocks
/// in logical order, physical row `p` sitting in block `p / block_rows`
/// at slot `p % block_rows`. The first `skip` physical rows are outside
/// the attention window, so visible row `j` is physical row `skip + j`.
/// Each key block is laid out key-major for the call, a pass the
/// model's KV storage (which keeps its keys key-major) never runs, and
/// the blocks go to [`key_major_attention`] as its pieces.
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
    let w = kv_heads * d;
    let mut key_major = vec![0.0f32; k_blocks.len() * block_rows * w];
    for (km, block) in key_major.chunks_exact_mut(block_rows * w).zip(k_blocks) {
        for (slot, key) in block.chunks_exact(w).enumerate() {
            for (x, &e) in km[slot..].iter_mut().step_by(block_rows).zip(key) {
                *x = e;
            }
        }
    }
    let k: Vec<&[f32]> = key_major.chunks_exact(block_rows * w).collect();
    let kv = KvPieces {
        k: &k,
        v: v_blocks,
        w: block_rows,
        skip,
    };
    key_major_attention(q, kv, out, n_new, t_total, heads, kv_heads, d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::attention::{attention_fwd, AttentionImpl, AttnShape};

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

    /// The scan one key at a time: the tape's in-order score, then
    /// [`OnlineSoftmax::push`], `kv_row(j)` fetching visible row `j`'s
    /// key and value rows.
    #[allow(clippy::too_many_arguments)]
    fn scan_reference<'a>(
        q: &[f32],
        kv_row: impl Fn(usize) -> (&'a [f32], &'a [f32]),
        n_new: usize,
        t_total: usize,
        heads: usize,
        kv_heads: usize,
        d: usize,
    ) -> Vec<f32> {
        let group = heads / kv_heads;
        let scale = 1.0 / (d as f32).sqrt();
        let mut out = vec![0.0f32; n_new * heads * d];
        for (i, orow) in out.chunks_mut(heads * d).enumerate() {
            let qrow = &q[i * heads * d..(i + 1) * heads * d];
            for h in 0..heads {
                let hkv = h / group;
                let acc = &mut orow[h * d..(h + 1) * d];
                let mut os = OnlineSoftmax::default();
                for j in 0..=t_total - n_new + i {
                    let (krow, vrow) = kv_row(j);
                    let qh = &qrow[h * d..(h + 1) * d];
                    let kh = &krow[hkv * d..(hkv + 1) * d];
                    let s = qh.iter().zip(kh).map(|(a, b)| a * b).sum::<f32>() * scale;
                    os.push(s, &vrow[hkv * d..(hkv + 1) * d], acc);
                }
                os.finish(acc);
            }
        }
        out
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Keys with every third row scaled by `spread`: at 60 and more,
    /// scores of one row lie more than 88 apart.
    fn spread_keys(n: usize, w: usize, seed: u64, spread: f32) -> Vec<f32> {
        rand_buf(n * w, seed)
            .iter()
            .enumerate()
            .map(|(x, &e)| if (x / w) % 3 == 1 { e * spread } else { e })
            .collect()
    }

    /// Token-major `[t, width]` keys and values cut into pieces of `w`
    /// positions, keys key-major `[width, w]` and values token-major,
    /// the last of each zero-padded: a paged block table's layout.
    fn to_pieces(k: &[f32], v: &[f32], width: usize, w: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let t = k.len() / width;
        let mut kp = vec![vec![0.0f32; width * w]; t.div_ceil(w)];
        for (p, row) in k.chunks_exact(width).enumerate() {
            for (c, &e) in row.iter().enumerate() {
                kp[p / w][c * w + p % w] = e;
            }
        }
        let vp = v
            .chunks(w * width)
            .map(|c| {
                let mut b = c.to_vec();
                b.resize(w * width, 0.0);
                b
            })
            .collect();
        (kp, vp)
    }

    #[test]
    fn scan_equals_the_one_key_reference_bitwise() {
        // decode, verify and prefill row counts, visible lengths off
        // multiples of 16 (a padded last tile), heads off multiples of 16
        // wide, GQA, and scores far enough apart that exp's special path
        // runs
        for (n_new, t_total) in [
            (1, 1),
            (1, 37),
            (2, 45),
            (7, 7),
            (16, 29),
            (17, 17),
            (64, 64),
            (208, 211),
        ] {
            for d in [6, 16, 32, 128] {
                if n_new * d > 64 * 128 {
                    continue;
                }
                for (heads, kv_heads, spread) in [(4, 4, 1.0), (4, 2, 1.0), (4, 1, 80.0)] {
                    let w = kv_heads * d;
                    let q = rand_buf(n_new * heads * d, 61);
                    let k = spread_keys(t_total, w, 62, spread);
                    let v = rand_buf(t_total * w, 63);
                    let kv_row = |j: usize| (&k[j * w..(j + 1) * w], &v[j * w..(j + 1) * w]);
                    let want = scan_reference(&q, kv_row, n_new, t_total, heads, kv_heads, d);
                    let at = format!("n {n_new} t {t_total} d {d} h {heads}/{kv_heads}");
                    // one piece of t_total keys, and 16-key tiles
                    let mut got = vec![0.0f32; n_new * heads * d];
                    cached_attention(&q, &k, &v, &mut got, n_new, t_total, heads, kv_heads, d);
                    assert_eq!(bits(&got), bits(&want), "{at}");
                    let (kp, vp) = to_pieces(&k, &v, w, 16);
                    let kr: Vec<&[f32]> = kp.iter().map(Vec::as_slice).collect();
                    let vr: Vec<&[f32]> = vp.iter().map(Vec::as_slice).collect();
                    let kv = KvPieces {
                        k: &kr,
                        v: &vr,
                        w: 16,
                        skip: 0,
                    };
                    key_major_attention(&q, kv, &mut got, n_new, t_total, heads, kv_heads, d);
                    assert_eq!(bits(&got), bits(&want), "tiles, {at}");
                }
            }
        }
    }

    #[test]
    fn key_major_pieces_of_any_width_and_skip_equal_the_reference_bitwise() {
        // piece widths 2, 3, 4 and 16 (the general body and the tiles,
        // one to four in flight), a padded last piece, front skips
        // inside and past the first piece, and GQA
        for w in [2, 3, 4, 16] {
            for skip in [0, 1, 5, 17] {
                for (n_new, t_vis) in [(1, 1), (1, 50), (3, 21), (9, 70)] {
                    let (heads, kv_heads, d) = (4, 2, 8);
                    let width = kv_heads * d;
                    let t_phys = skip + t_vis;
                    let q = rand_buf(n_new * heads * d, 91);
                    let k = spread_keys(t_phys, width, 92, 70.0);
                    let v = rand_buf(t_phys * width, 93);
                    let kv_row = |j: usize| {
                        let p = (skip + j) * width;
                        (&k[p..p + width], &v[p..p + width])
                    };
                    let want = scan_reference(&q, kv_row, n_new, t_vis, heads, kv_heads, d);
                    let (kp, vp) = to_pieces(&k, &v, width, w);
                    let kr: Vec<&[f32]> = kp.iter().map(Vec::as_slice).collect();
                    let vr: Vec<&[f32]> = vp.iter().map(Vec::as_slice).collect();
                    let kv = KvPieces {
                        k: &kr,
                        v: &vr,
                        w,
                        skip,
                    };
                    let mut got = vec![0.0f32; n_new * heads * d];
                    key_major_attention(&q, kv, &mut got, n_new, t_vis, heads, kv_heads, d);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "w {w} skip {skip} n {n_new} t {t_vis}"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_with_rising_scores_rescales_at_every_key() {
        // row j's key is j·step along the query: every score is a new
        // max, by 0.5 (an ordinary rescale) or by 100 (exp(-100) → a
        // subnormal, and more than 88 below: 0)
        for step in [0.5f32, 100.0, 300.0] {
            for n_new in [1, 20] {
                let (t_total, heads, d) = (40, 2, 16);
                let w = heads * d;
                let q = vec![1.0f32; n_new * w];
                let unscale = (d as f32).sqrt() / d as f32;
                let k: Vec<f32> = (0..t_total * w)
                    .map(|x| (x / w) as f32 * step * unscale)
                    .collect();
                let v = rand_buf(t_total * w, 71);
                let kv_row = |j: usize| (&k[j * w..(j + 1) * w], &v[j * w..(j + 1) * w]);
                let want = scan_reference(&q, kv_row, n_new, t_total, heads, heads, d);
                let mut got = vec![0.0f32; n_new * w];
                cached_attention(&q, &k, &v, &mut got, n_new, t_total, heads, heads, d);
                assert_eq!(bits(&got), bits(&want), "step {step} n {n_new}");
            }
        }
    }

    #[test]
    fn paged_scan_equals_the_one_key_reference_bitwise() {
        // block sizes 1-5 with and without front-dropped rows, both
        // scoring layouts
        for rows in 1..=5 {
            for skip in [0, 1, 3, 7] {
                for (n_new, t_vis) in [(1, 19), (7, 23), (17, 33)] {
                    let (heads, kv_heads, d) = (4, 2, 6);
                    let w = kv_heads * d;
                    let t_phys = skip + t_vis;
                    let q = rand_buf(n_new * heads * d, 81);
                    let k = spread_keys(t_phys, w, 82, 70.0);
                    let v = rand_buf(t_phys * w, 83);
                    let kb = to_blocks(&k, t_phys, w, rows);
                    let vb = to_blocks(&v, t_phys, w, rows);
                    let kr: Vec<&[f32]> = kb.iter().map(|b| b.as_slice()).collect();
                    let vr: Vec<&[f32]> = vb.iter().map(|b| b.as_slice()).collect();
                    let kv_row = |j: usize| {
                        let p = skip + j;
                        let at = (p % rows) * w..(p % rows + 1) * w;
                        (&kr[p / rows][at.clone()], &vr[p / rows][at])
                    };
                    let want = scan_reference(&q, kv_row, n_new, t_vis, heads, kv_heads, d);
                    let mut got = vec![0.0f32; n_new * heads * d];
                    paged_attention(
                        &q, &kr, &vr, rows, skip, &mut got, n_new, t_vis, heads, kv_heads, d,
                    );
                    assert_eq!(bits(&got), bits(&want), "rows {rows} skip {skip} n {n_new}");
                }
            }
        }
    }

    #[test]
    fn an_empty_cache_attends_to_nothing() {
        cached_attention(&[], &[], &[], &mut [], 0, 0, 2, 1, 4);
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
        // reference: the training kernel, on the same token-major rows
        let s = AttnShape {
            batch: 1,
            t,
            heads: h,
            kv_heads: h,
            d,
        };
        let (want, _) = attention_fwd(&q, &k, &v, s, AttentionImpl::Flash, true);
        // one score order, one fold: the same bits
        assert_eq!(bits(&out), bits(&want));
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
        assert_eq!(bits(&full), bits(&inc));
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
        assert_eq!(bits(&gqa), bits(&mha));
    }

    /// The rotation as it was before it went row by row: `(sin, cos)`
    /// pairs built as [`RotaryTable::new`] builds them, and a loop over
    /// heads, head `j` at position `pos_of(j)`.
    fn rotate_reference(
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
        for (j, head) in x.chunks_mut(2 * half).enumerate() {
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

    #[test]
    fn rotary_equals_its_per_head_loop_bitwise() {
        let positions = [0, 3, 17, 40, 1000];
        let base = 10_000.0;
        let bits = crate::kernels::norm::tests::bits;
        for rows in [1, 7, 8, 9, 130] {
            for d in [2, 16, 24] {
                for heads in [1, 4, 8] {
                    let at = format!("rows {rows} d {d} heads {heads}");
                    let x = crate::kernels::norm::tests::values(rows * heads * d, d + heads, true);
                    let table = RotaryTable::new(&positions, d, base);
                    for inverse in [false, true] {
                        let (mut got, mut want) = (x.clone(), x.clone());
                        let tape_pos = |i: usize| i % positions.len();
                        table.rotate(&mut got, heads, tape_pos, inverse);
                        let head_pos = |j: usize| j / heads % positions.len();
                        rotate_reference(&mut want, &positions, d, base, head_pos, inverse);
                        assert_eq!(bits(&got), bits(&want), "{at} inverse {inverse}");
                    }
                    // serving: row i at the table's i-th position
                    let n = rows.min(positions.len());
                    let (mut got, mut want) = (x.clone(), x.clone());
                    let (got, want) = (&mut got[..n * heads * d], &mut want[..n * heads * d]);
                    RotaryTable::new(&positions[..n], d, base).rotate_rows(got, heads);
                    rotate_reference(want, &positions, d, base, |j| j / heads, false);
                    assert_eq!(bits(got), bits(want), "rows {at}");
                }
            }
        }
    }

    #[test]
    fn rotary_rows_matches_training_convention() {
        // the tape numbers the rows of each of a batch's sequences
        // 0..T; the table's rows at positions 0..T must rotate each
        // sequence to the same bits
        let (b, t, h, d) = (2, 5, 3, 8);
        let base = 10_000.0;
        let x = rand_buf(b * t * h * d, 21);
        let mut tape = crate::tape::Tape::new();
        let xv = tape.input(crate::tensor::Tensor::from_vec(&[b * t, h * d], x.clone()));
        let r = tape.rotary(xv, t, d, base);
        let mut want = x;
        let positions: Vec<usize> = (0..t).collect();
        for seq in want.chunks_mut(t * h * d) {
            RotaryTable::new(&positions, d, base).rotate_rows(seq, h);
        }
        assert_eq!(bits(tape.value(r).data()), bits(&want));
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
        RotaryTable::new(&[0, 1, 2], d, base).rotate_rows(&mut all, h);
        // ...or rotate the last row alone at offset 2
        let mut last = x[2 * h * d..].to_vec();
        RotaryTable::new(&[2], d, base).rotate_rows(&mut last, h);
        for (a, b) in all[2 * h * d..].iter().zip(&last) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
