//! Causal and bidirectional multi-head attention kernels for training.
//!
//! One arithmetic with two stashes, mirroring the memory contrast the
//! paper measures on MI250X (Fig. 5). Each row's scores come from
//! [`dots`] and are folded with an online softmax; what the forward
//! keeps for the backward is the choice:
//!
//! * [`AttentionImpl::Flash`] keeps each row's log-sum-exp — O(T)
//!   auxiliary memory — and the backward recomputes the probabilities
//!   from it;
//! * [`AttentionImpl::Naive`] also writes those probabilities into a
//!   `[T, T]` matrix per head — O(T²) — and the backward reads them.
//!
//! The stashed rows are the ones the backward would recompute, so the
//! two give the same output and gradients, bit for bit.
//!
//! Inputs are token-major, as the projections write them: q and the
//! output are `[B·T, H·D]`, k and v `[B·T, Hkv·D]`, head `h` of a token
//! being its `h`-th `D`-wide slice. Each head's keys are laid out
//! [`KeyMajor`], as the serving scan ([`super::infer`]) keeps its
//! cache, and both score through [`dots`]. Query head `h` reads
//! key/value head `h / (H / Hkv)`, so grouped-query attention needs no
//! gathered copy.
//! Every (sequence, query head) is one pool task, and its arithmetic is
//! that of one contiguous `[T, D]` head: the layout moves no bit.
//!
//! The backward takes each task's query rows in blocks of 16: it scores
//! every row's P and dP as the forward scores, holds the block's dS,
//! and accumulates four `dq` rows at a time over the keys, and four
//! keys' `dk` and `dv` rows at a time over the block's rows, in
//! registers. Each element's chain is the one a loop over (query, key)
//! pairs makes, query outer, skipping `P = 0`; `bwd_reference` in the
//! tests is that loop.
//!
//! [`attention_fwd_into`] and [`attention_bwd_scratch`] take their
//! output, stash, GQA scratch and row-block scratch from the caller (the
//! tape draws them from its free list); [`attention_fwd`] and
//! [`attention_bwd`] allocate them and call those.

use super::exp::exp_slice;
use super::softmax::{OnlineSoftmax, RowScratch};
use rayon::prelude::*;
use std::sync::Mutex;

/// What the forward stashes for the backward; the arithmetic is one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttentionImpl {
    /// The `[T, T]` probabilities per head: quadratic memory.
    Naive,
    /// Each row's log-sum-exp: linear memory (flash-attention style).
    Flash,
}

/// The shape of one attention call over token-major buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttnShape {
    /// Sequences in the batch.
    pub batch: usize,
    /// Tokens per sequence.
    pub t: usize,
    /// Query heads per token.
    pub heads: usize,
    /// Key/value heads per token; divides `heads`.
    pub kv_heads: usize,
    /// Head width.
    pub d: usize,
}

impl AttnShape {
    /// One head per sequence: `[bh, t, d]` is then the same buffer
    /// token-major and head-major.
    pub fn per_head(bh: usize, t: usize, d: usize) -> Self {
        Self {
            batch: bh,
            t,
            heads: 1,
            kv_heads: 1,
            d,
        }
    }

    /// Floats in each of [`attention_bwd_scratch`]'s two per-query-head
    /// key and value gradient buffers: `B·T·H·D` under grouped-query
    /// attention, none without it.
    pub fn own_len(&self) -> usize {
        if self.group() > 1 {
            self.batch * self.t * self.heads * self.d
        } else {
            0
        }
    }

    /// Floats of [`attention_bwd_scratch`]'s row-block scratch: one
    /// share per group of tasks the pool runs (one group per worker, at
    /// most one per task).
    pub fn block_len(&self) -> usize {
        let tasks = (self.batch * self.heads).max(1);
        rayon::current_num_threads().clamp(1, tasks) * self.block_share()
    }

    /// Floats of one worker's share of the block scratch: a block's
    /// probabilities and score gradients, as `[16, T]` rows and
    /// transposed, `T` rounded up to whole key tiles.
    fn block_share(&self) -> usize {
        4 * BLOCK * self.t.next_multiple_of(KEYS)
    }

    /// Query heads per key/value head.
    fn group(&self) -> usize {
        self.heads / self.kv_heads
    }

    /// Task `task`'s rows of a token-major buffer `width` heads wide
    /// (`heads` or `kv_heads`): token `i`'s `d` values of the head that
    /// query head `task % heads` reads there.
    fn head<'a>(
        &self,
        x: &'a [f32],
        width: usize,
        task: usize,
    ) -> impl Fn(usize) -> &'a [f32] + Copy {
        let ((x, stride), d) = (self.head_rows(x, width, task), self.d);
        move |i| &x[i * stride..][..d]
    }

    /// [`Self::head`]'s rows as a buffer and a stride: row `i` starts at
    /// `i · stride` of the buffer.
    fn head_rows<'a>(&self, x: &'a [f32], width: usize, task: usize) -> (&'a [f32], usize) {
        let (b, h) = (task / self.heads, task % self.heads / (self.heads / width));
        (&x[(b * self.t * width + h) * self.d..], width * self.d)
    }
}

/// Split a token-major buffer `[B·t, width·d]` into its `B·width`
/// heads, sequence-major: part `b·width + h` holds the `t` rows of `d`
/// that head `h` of sequence `b` owns.
fn heads_mut(x: &mut [f32], t: usize, width: usize, d: usize) -> Vec<Vec<&mut [f32]>> {
    let mut parts: Vec<Vec<&mut [f32]>> = (0..x.len() / (t * d))
        .map(|_| Vec::with_capacity(t))
        .collect();
    for (c, row) in x.chunks_exact_mut(d).enumerate() {
        let (token, h) = (c / width, c % width);
        parts[token / t * width + h].push(row);
    }
    parts
}

/// Tensors stashed by the forward pass for the backward pass, one block
/// per (sequence, query head) in task order.
#[derive(Clone, Debug)]
pub enum AttnSaved {
    /// Full probabilities `[B·H, T, T]`, masked entries 0 (naive).
    Probs(Vec<f32>),
    /// Per-row log-sum-exp `[B·H, T]` (flash).
    Lse(Vec<f32>),
}

impl AttnSaved {
    /// Bytes of auxiliary memory this save set occupies — the quantity the
    /// paper's Fig. 5 tracks (quadratic vs linear in sequence length).
    pub fn aux_bytes(&self) -> usize {
        match self {
            AttnSaved::Probs(p) => p.len() * std::mem::size_of::<f32>(),
            AttnSaved::Lse(l) => l.len() * std::mem::size_of::<f32>(),
        }
    }
}

/// Forward causal attention over `bh` independent `[t, d]` heads.
/// Returns `(out, saved)` where `out` is `[bh, t, d]`.
pub fn causal_attention_fwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    bh: usize,
    t: usize,
    d: usize,
    imp: AttentionImpl,
) -> (Vec<f32>, AttnSaved) {
    attention_fwd(q, k, v, AttnShape::per_head(bh, t, d), imp, true)
}

/// Forward attention over token-major `q`, `k`, `v` (see the module
/// docs) with a selectable mask: `causal = true` masks future positions,
/// `false` is full bidirectional attention (BERT-style). Returns the
/// token-major output `[B·T, H·D]` and the backward's stash.
pub fn attention_fwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    s: AttnShape,
    imp: AttentionImpl,
    causal: bool,
) -> (Vec<f32>, AttnSaved) {
    let rows = s.batch * s.heads * s.t;
    let mut out = vec![0.0f32; rows * s.d];
    let mut saved = match imp {
        AttentionImpl::Naive => AttnSaved::Probs(vec![0.0; rows * s.t]),
        AttentionImpl::Flash => AttnSaved::Lse(vec![0.0; rows]),
    };
    attention_fwd_into(q, k, v, s, causal, &mut out, &mut saved);
    (out, saved)
}

/// [`attention_fwd`] into caller-owned buffers: `out` `[B·T, H·D]`, and
/// `saved`, whose variant picks the stash and whose buffer holds
/// `B·H·T` floats (`Lse`) or `B·H·T·T` (`Probs`). The fold accumulates
/// into `out` and masked probabilities keep their 0, so `out` and a
/// `Probs` buffer must hold zeros; an `Lse` buffer is overwritten.
pub fn attention_fwd_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    s: AttnShape,
    causal: bool,
    out: &mut [f32],
    saved: &mut AttnSaved,
) {
    let AttnShape { t, heads, d, .. } = s;
    let tasks = s.batch * heads;
    debug_assert_eq!(q.len(), tasks * t * d);
    debug_assert_eq!(k.len(), s.batch * t * s.kv_heads * d);
    debug_assert_eq!(v.len(), k.len());
    let scale = 1.0 / (d as f32).sqrt();
    debug_assert!(out.iter().all(|&x| x == 0.0), "out must start at zero");
    let (stash, naive) = match saved {
        AttnSaved::Lse(l) => (l, false),
        AttnSaved::Probs(p) => {
            debug_assert!(p.iter().all(|&x| x == 0.0), "probs must start at zero");
            (p, true)
        }
    };
    let per_task = if naive { t * t } else { t };
    assert_eq!(stash.len(), tasks * per_task, "attention stash length");
    let init = || {
        (
            KeyMajor::new(d),
            vec![0.0f32; t.next_multiple_of(KEYS)],
            RowScratch::default(),
        )
    };
    heads_mut(out, t, heads, d)
        .into_par_iter()
        .zip(stash.par_chunks_mut(per_task))
        .enumerate()
        .for_each_init(init, |(kt, scores, row), (task, (ob, sb))| {
            let qh = s.head(q, heads, task);
            let [kh, vh] = [k, v].map(|x| s.head(x, s.kv_heads, task));
            kt.truncate(0);
            kt.extend((0..t).map(kh));
            let tiles = kt.tiles();
            for (i, acc) in ob.into_iter().enumerate() {
                let n = if causal { i + 1 } else { t };
                dots(&tiles, KEYS, 0, qh(i), n, scale, scores);
                let os = OnlineSoftmax::fold_row(&scores[..n], vh, acc, row);
                os.finish(acc);
                let l = os.logsumexp();
                if naive {
                    // the row the backward recomputes from `l`; masked
                    // keys keep their 0
                    let p = &mut sb[i * t..][..n];
                    for (p, &x) in p.iter_mut().zip(&scores[..n]) {
                        *p = x - l;
                    }
                    exp_slice(p);
                } else {
                    sb[i] = l;
                }
            }
        });
}

/// Keys a key-major tile holds: one 512-bit vector of scores.
pub const KEYS: usize = 16;

/// Keys laid out key-major in tiles of [`KEYS`]: tile `p` holds keys
/// `16p..16p+16` as `[width, 16]`, component `c` of its keys one vector.
/// The tape's per-head keys and values (`width` = `d`) are held so, as
/// a serving KV block of 16 rows holds its keys (`width` = `kv_heads·d`).
/// Slots past the last key are scored with the rest and never read.
#[derive(Debug)]
pub struct KeyMajor {
    data: Vec<f32>,
    width: usize,
    len: usize,
}

impl KeyMajor {
    /// No keys, each `width` components wide.
    pub fn new(width: usize) -> Self {
        Self {
            data: Vec::new(),
            width,
            len: 0,
        }
    }

    /// Floats one tile holds.
    fn tile(&self) -> usize {
        self.width * KEYS
    }

    /// Append `keys` (`width` components each) after the last.
    pub fn extend<'a>(&mut self, keys: impl IntoIterator<Item = &'a [f32]>) {
        let size = self.tile();
        for key in keys {
            debug_assert_eq!(key.len(), self.width, "key width");
            let (p, slot) = (self.len / KEYS, self.len % KEYS);
            if slot == 0 {
                self.data.resize((p + 1) * size, 0.0);
            }
            let column = self.data[p * size + slot..].iter_mut().step_by(KEYS);
            for (x, &e) in column.zip(key) {
                *x = e;
            }
            self.len += 1;
        }
    }

    /// Keep the first `n` keys (and the tiles they need).
    pub fn truncate(&mut self, n: usize) {
        self.len = self.len.min(n);
        self.data.truncate(self.len.div_ceil(KEYS) * self.tile());
    }

    /// The tiles, in key order: [`dots`]'s pieces with `w` = [`KEYS`].
    pub fn tiles(&self) -> Vec<&[f32]> {
        self.data.chunks_exact(self.tile()).collect()
    }
}

/// `out[j] = (q · key j) · scale` for every key `j` of the pieces that
/// cover keys `0..n` (the last one whole). Piece `p` holds keys
/// `pw..pw+w` key-major, `[width, w]`; key `j`'s components are rows
/// `at..at + q.len()` of its piece, one head of a wider key.
///
/// Each key's products are summed in order from `-0.0`, unfused, as
/// `Iterator::sum` does, and only then scaled: the one score arithmetic
/// of the tape's and the serving scans, whatever the piece width and
/// however many keys a vector carries. Tiles of [`KEYS`] go four at a
/// time, so that no tile's sums wait on the one before it.
pub fn dots(
    pieces: &[&[f32]],
    w: usize,
    at: usize,
    q: &[f32],
    n: usize,
    scale: f32,
    out: &mut [f32],
) {
    let pieces = &pieces[..n.div_ceil(w)];
    let out = &mut out[..pieces.len() * w];
    if w != KEYS {
        for (piece, out) in pieces.iter().zip(out.chunks_exact_mut(w)) {
            out.fill(-0.0);
            for (c, &qc) in q.iter().enumerate() {
                for (x, &e) in out.iter_mut().zip(&piece[(at + c) * w..][..w]) {
                    *x += qc * e;
                }
            }
            for x in out {
                *x *= scale;
            }
        }
        return;
    }
    // The sums must stay whole `[f32; KEYS]` arrays, each stepped by its
    // own `add_products` call: rewrites of this loop (a zip over the
    // tiles, the scaling written out, eight query rows' sums in one
    // array) compiled to scalar `vmulss`/`vaddss` and ran two to three
    // times slower. `objdump -d` of a build shows `dots` as `vmulps` and
    // `vaddps` on registers when it is right.
    let mut groups = pieces.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4 * KEYS);
    for (group, out) in (&mut groups).zip(&mut outs) {
        let mut sum = [[-0.0f32; KEYS]; 4];
        for (c, &qc) in q.iter().enumerate() {
            let row = (at + c) * KEYS;
            let [s0, s1, s2, s3] = &mut sum;
            add_products(s0, qc, &group[0][row..]);
            add_products(s1, qc, &group[1][row..]);
            add_products(s2, qc, &group[2][row..]);
            add_products(s3, qc, &group[3][row..]);
        }
        scale_into(&sum, scale, out);
    }
    let rest = outs.into_remainder().chunks_exact_mut(KEYS);
    for (tile, out) in groups.remainder().iter().zip(rest) {
        let mut sum = [[-0.0f32; KEYS]];
        for (c, &qc) in q.iter().enumerate() {
            add_products(&mut sum[0], qc, &tile[(at + c) * KEYS..]);
        }
        scale_into(&sum, scale, out);
    }
}

/// `sum[l] += qc · col[l]` for the sixteen keys of one tile row.
#[inline(always)]
fn add_products(sum: &mut [f32; KEYS], qc: f32, col: &[f32]) {
    let col: &[f32; KEYS] = col[..KEYS].try_into().expect("a whole tile row");
    for (x, &e) in sum.iter_mut().zip(col) {
        *x += qc * e;
    }
}

/// `out = sum · scale`, tile after tile. Taking `sum` whole keeps it
/// an array, so [`add_products`] compiles to vector adds; a scaling
/// loop written out in [`dots`] let it be split into 64 scalars.
#[inline(always)]
fn scale_into(sum: &[[f32; KEYS]], scale: f32, out: &mut [f32]) {
    for (out, s) in out.chunks_exact_mut(KEYS).zip(sum) {
        for (o, &x) in out.iter_mut().zip(s) {
            *o = x * scale;
        }
    }
}

/// Backward causal attention over `bh` independent `[t, d]` heads.
/// Accumulates into `dq`, `dk`, `dv`.
#[allow(clippy::too_many_arguments)]
pub fn causal_attention_bwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    out: &[f32],
    dout: &[f32],
    saved: &AttnSaved,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    bh: usize,
    t: usize,
    d: usize,
) {
    let s = AttnShape::per_head(bh, t, d);
    attention_bwd(q, k, v, out, dout, saved, dq, dk, dv, s, true);
}

/// Backward attention (see [`attention_fwd`]). Accumulates into the
/// token-major `dq`, `dk`, `dv`.
///
/// Under grouped-query attention each query head's key and value
/// gradients go to a zero-started buffer of its own, and those are
/// added onto their KV head in head order: the sums a gather of the KV
/// heads followed by per-head attention would make.
#[allow(clippy::too_many_arguments)]
pub fn attention_bwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    out: &[f32],
    dout: &[f32],
    saved: &AttnSaved,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    s: AttnShape,
    causal: bool,
) {
    let [mut dk_own, mut dv_own] = [(); 2].map(|_| vec![0.0f32; s.own_len()]);
    let own = [&mut dk_own[..], &mut dv_own[..]];
    let mut blocks = vec![0.0f32; s.block_len()];
    attention_bwd_scratch(
        q,
        k,
        v,
        out,
        dout,
        saved,
        dq,
        dk,
        dv,
        own,
        &mut blocks,
        s,
        causal,
    );
}

/// Query rows the backward takes at a time: it holds their probabilities
/// and score gradients, then accumulates each row's `dq` and each key's
/// `dk` and `dv` over them.
const BLOCK: usize = 16;

/// Rows of `dq`, and keys of `dk`/`dv`, the backward accumulates at once.
const GROUP: usize = 4;

/// The terms `s = 0..n` of [`add_terms`]'s sums. Term `s` reads row `s`
/// of each source, at `s · stride`, and for output `r` the coefficient
/// at `s · cstride + r` of each coefficient buffer and the probability
/// at `s · cstride + r` of `p`, which drops the term where it is 0.
struct Terms<'a, const S: usize> {
    n: usize,
    src: [&'a [f32]; S],
    stride: usize,
    coef: [&'a [f32]; S],
    p: &'a [f32],
    cstride: usize,
}

/// `outs[r][k][x] += coef_k(s, r) · src_k(s)[x]` for each term `s` of
/// `terms` in order that output `r` keeps: the chain a loop of `+=` per
/// kept term makes in each element. The outputs are held in registers
/// sixteen columns at a time (the last columns as slices) across all
/// the terms.
#[inline(always)]
fn add_terms<const R: usize, const S: usize>(mut outs: [[&mut [f32]; S]; R], terms: &Terms<S>) {
    let Terms {
        n,
        src,
        stride,
        coef,
        p,
        cstride,
    } = *terms;
    let width = outs[0][0].len();
    if n == 0 {
        return;
    }
    // every index below falls inside these
    let coefs = (n - 1) * cstride + R;
    assert!(src.iter().all(|x| x.len() >= (n - 1) * stride + width));
    assert!(coef.iter().all(|x| x.len() >= coefs) && p.len() >= coefs);
    let mut at = 0;
    while at + KEYS <= width {
        let mut acc: [[[f32; KEYS]; S]; R] = std::array::from_fn(|r| {
            std::array::from_fn(|k| outs[r][k][at..at + KEYS].try_into().expect("a chunk"))
        });
        for s in 0..n {
            let p: &[f32; R] = p[s * cstride..][..R].try_into().expect("R");
            for k in 0..S {
                let x: &[f32; KEYS] = src[k][s * stride + at..][..KEYS]
                    .try_into()
                    .expect("a chunk");
                let c: &[f32; R] = coef[k][s * cstride..][..R].try_into().expect("R");
                for r in 0..R {
                    if p[r] != 0.0 {
                        for (a, &x) in acc[r][k].iter_mut().zip(x) {
                            *a += c[r] * x;
                        }
                    }
                }
            }
        }
        for (out, acc) in outs.iter_mut().zip(&acc) {
            for (out, acc) in out.iter_mut().zip(acc) {
                out[at..at + KEYS].copy_from_slice(acc);
            }
        }
        at += KEYS;
    }
    if at < width {
        for s in 0..n {
            for k in 0..S {
                let x = &src[k][s * stride + at..s * stride + width];
                for (r, out) in outs.iter_mut().enumerate() {
                    let at_c = s * cstride + r;
                    if p[at_c] != 0.0 {
                        for (a, &x) in out[k][at..].iter_mut().zip(x) {
                            *a += coef[k][at_c] * x;
                        }
                    }
                }
            }
        }
    }
}

/// [`attention_bwd`] with its scratch passed in: the per-query-head key
/// and value gradients, [`AttnShape::own_len`] floats each, which must
/// hold zeros; and `blocks`, [`AttnShape::block_len`] floats of any
/// value, which each worker's group of tasks takes one share of.
///
/// Each task's query rows go in blocks of 16: every row's
/// probabilities (read from the stash or recomputed from its lse) and
/// `dP = dO·Vᵀ` are scored through [`dots`] as the forward scores, and
/// turned into `dS = P ∘ (dP − D)·scale` in the block's scratch. Then
/// each row's `dq` adds `dS_ij·k_j` over `j` ascending, and each key's
/// `dk` and `dv` add `dS_ij·q_i` and `P_ij·dO_i` over the block's `i`
/// ascending, each held in registers across its terms. Every element
/// gets the chain of a loop over `(i, j)` pairs, `i` outer, that skips
/// `P_ij = 0`, so blocking moves no bit.
#[allow(clippy::too_many_arguments)]
pub fn attention_bwd_scratch(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    out: &[f32],
    dout: &[f32],
    saved: &AttnSaved,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    [dk_own, dv_own]: [&mut [f32]; 2],
    blocks: &mut [f32],
    s: AttnShape,
    causal: bool,
) {
    let AttnShape { t, heads, d, .. } = s;
    debug_assert_eq!(dq.len(), s.batch * t * heads * d);
    let scale = 1.0 / (d as f32).sqrt();
    let shared = s.group() > 1;
    assert!(
        dk_own.len() == s.own_len() && dv_own.len() == s.own_len(),
        "attention scratch length"
    );
    assert_eq!(
        blocks.len(),
        s.block_len(),
        "attention block scratch length"
    );
    let tp = t.next_multiple_of(KEYS);
    let (dks, dvs) = if shared {
        debug_assert!(
            dk_own.iter().chain(&*dv_own).all(|&x| x == 0.0),
            "attention scratch must start at zero"
        );
        (heads_mut(dk_own, t, 1, d), heads_mut(dv_own, t, 1, d))
    } else {
        (heads_mut(dk, t, heads, d), heads_mut(dv, t, heads, d))
    };
    // Each task owns its query head's dq rows and its own (or, without
    // sharing, its KV head's) dk/dv rows, so the accumulation is race-free.
    let parts = heads_mut(dq, t, heads, d).into_par_iter().zip(dks).zip(dvs);
    let len = |i: usize| if causal { i + 1 } else { t };
    // `for_each_init` calls `init` once per group, and there are at most
    // as many groups as `block_len` has shares
    let shares = Mutex::new(blocks.chunks_exact_mut(s.block_share()));
    let init = || {
        (
            KeyMajor::new(d),
            KeyMajor::new(d),
            vec![0.0f32; t],
            shares
                .lock()
                .expect("block shares")
                .next()
                .expect("a block share"),
        )
    };
    parts.enumerate().for_each_init(
        init,
        |(kt, vt, drow, block), (task, ((mut dqh, mut dkh), mut dvh))| {
            // the block's P and dS, row-major [BLOCK, tp], then both
            // transposed [tp, BLOCK]
            let mut quarters = block.chunks_exact_mut(BLOCK * tp);
            let [pb, db, pt, dst] =
                std::array::from_fn(|_| quarters.next().expect("four quarters"));
            let [qh, oh, doh] = [q, out, dout].map(|x| s.head(x, heads, task));
            let [kh, vh] = [k, v].map(|x| s.head(x, s.kv_heads, task));
            // D_i = dO_i · O_i (both algorithms use it)
            for (i, dr) in drow.iter_mut().enumerate() {
                *dr = doh(i).iter().zip(oh(i)).map(|(a, b)| a * b).sum();
            }
            kt.truncate(0);
            if let AttnSaved::Lse(_) = saved {
                kt.extend((0..t).map(kh));
            }
            vt.truncate(0);
            vt.extend((0..t).map(vh));
            let (ktiles, vtiles) = (kt.tiles(), vt.tiles());
            let mut dqh = dqh.iter_mut();
            for i0 in (0..t).step_by(BLOCK) {
                let rows = i0..t.min(i0 + BLOCK);
                // the keys any row of the block sees
                let keys = len(rows.end - 1);
                let pds = pb.chunks_exact_mut(tp).zip(db.chunks_exact_mut(tp));
                for (i, (p, ds)) in rows.clone().zip(pds) {
                    let n = len(i);
                    // row i's probabilities, saved or recomputed from
                    // its lse
                    match saved {
                        AttnSaved::Probs(probs) => {
                            p[..n].copy_from_slice(&probs[(task * t + i) * t..][..n])
                        }
                        AttnSaved::Lse(l) => {
                            dots(&ktiles, KEYS, 0, qh(i), n, scale, p);
                            for x in &mut p[..n] {
                                *x -= l[task * t + i];
                            }
                            exp_slice(&mut p[..n]);
                        }
                    }
                    // masked keys get P = 0, which the sums skip
                    p[n..keys].fill(0.0);
                    // dp_ij = dO_i · V_j (a scale of 1 is exact), and
                    // ds_ij = p (dp - D_i), scaled
                    dots(&vtiles, KEYS, 0, doh(i), n, 1.0, ds);
                    for (ds, &p) in ds[..n].iter_mut().zip(&p[..n]) {
                        *ds = p * (*ds - drow[i]) * scale;
                    }
                }
                for (r, (p, ds)) in pb.chunks_exact(tp).zip(db.chunks_exact(tp)).enumerate() {
                    if r == rows.len() {
                        break;
                    }
                    for (j, (&p, &ds)) in p[..keys].iter().zip(&ds[..keys]).enumerate() {
                        pt[j * BLOCK + r] = p;
                        dst[j * BLOCK + r] = ds;
                    }
                }
                let (pb, db, pt, dst) = (&*pb, &*db, &*pt, &*dst);
                // rows of dq, GROUP at a time, over the keys j
                let (kb, kstride) = s.head_rows(k, s.kv_heads, task);
                let mut r = 0;
                while r < rows.len() {
                    let group = if rows.len() - r >= GROUP { GROUP } else { 1 };
                    let terms = Terms {
                        n: len(i0 + r + group - 1),
                        src: [kb],
                        stride: kstride,
                        coef: [&dst[r..]],
                        p: &pt[r..],
                        cstride: BLOCK,
                    };
                    let mut dq = || [&mut **dqh.next().expect("a dq row")];
                    if group == GROUP {
                        add_terms::<GROUP, 1>(std::array::from_fn(|_| dq()), &terms);
                    } else {
                        add_terms([dq()], &terms);
                    }
                    r += group;
                }
                // keys of dk and dv, GROUP at a time, over the block's
                // rows i (from the first key's row, causal)
                let [(qb, qstride), (dob, _)] = [q, dout].map(|x| s.head_rows(x, heads, task));
                let mut kvs = dkh.iter_mut().zip(dvh.iter_mut());
                let mut j = 0;
                while j < keys {
                    let group = if keys - j >= GROUP { GROUP } else { 1 };
                    let from = if causal { j.max(i0) } else { i0 };
                    let at = (from - i0) * tp + j;
                    let terms = Terms {
                        n: rows.end - from,
                        src: [&qb[from * qstride..], &dob[from * qstride..]],
                        stride: qstride,
                        coef: [&db[at..], &pb[at..]],
                        p: &pb[at..],
                        cstride: tp,
                    };
                    let mut kv = || {
                        let (dk, dv) = kvs.next().expect("dk and dv rows");
                        [&mut **dk, &mut **dv]
                    };
                    if group == GROUP {
                        add_terms::<GROUP, 2>(std::array::from_fn(|_| kv()), &terms);
                    } else {
                        add_terms([kv()], &terms);
                    }
                    j += group;
                }
            }
        },
    );
    if shared {
        for (dst, own) in [(dk, &*dk_own), (dv, &*dv_own)] {
            let mut kv = heads_mut(dst, t, s.kv_heads, d);
            for (task, part) in own.chunks_exact(t * d).enumerate() {
                let hkv = task / heads * s.kv_heads + task % heads / s.group();
                for (row, src) in kv[hkv].iter_mut().zip(part.chunks_exact(d)) {
                    for (g, &x) in row.iter_mut().zip(src) {
                        *g += x;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_buf(n: usize, seed: u64) -> Vec<f32> {
        // cheap deterministic pseudo-random values
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((x >> 33) as f32 / u32::MAX as f32 - 0.5) * 2.0
            })
            .collect()
    }

    /// The flash forward as it was before it scored first: one key at a
    /// time through [`OnlineSoftmax::push`], sequential-sum dots.
    fn flash_fwd_reference(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        bh: usize,
        t: usize,
        d: usize,
        causal: bool,
    ) -> (Vec<f32>, Vec<f32>) {
        let scale = 1.0 / (d as f32).sqrt();
        let mut out = vec![0.0f32; bh * t * d];
        let mut lse = vec![0.0f32; bh * t];
        for b in 0..bh {
            let (qb, kb, vb) = (&q[b * t * d..], &k[b * t * d..], &v[b * t * d..]);
            for i in 0..t {
                let qi = &qb[i * d..(i + 1) * d];
                let mut os = OnlineSoftmax::default();
                let acc = &mut out[(b * t + i) * d..(b * t + i + 1) * d];
                let hi = if causal { i } else { t - 1 };
                for j in 0..=hi {
                    let kj = &kb[j * d..(j + 1) * d];
                    let s = qi.iter().zip(kj).map(|(a, b)| a * b).sum::<f32>() * scale;
                    os.push(s, &vb[j * d..(j + 1) * d], acc);
                }
                os.finish(acc);
                lse[b * t + i] = os.logsumexp();
            }
        }
        (out, lse)
    }

    /// The backward as it was before it scored first: per key pair,
    /// probability recomputed (or read), then `dO·V`, then the updates.
    #[allow(clippy::too_many_arguments)]
    fn bwd_reference(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        out: &[f32],
        dout: &[f32],
        saved: &AttnSaved,
        bh: usize,
        t: usize,
        d: usize,
        causal: bool,
    ) -> [Vec<f32>; 3] {
        let scale = 1.0 / (d as f32).sqrt();
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(a, b)| a * b).sum::<f32>();
        let [mut dq, mut dk, mut dv] = [0; 3].map(|_| vec![0.0f32; bh * t * d]);
        for b in 0..bh {
            let row = |i: usize| (b * t + i) * d..(b * t + i + 1) * d;
            for i in 0..t {
                let drow = dot(&dout[row(i)], &out[row(i)]);
                let hi = if causal { i } else { t - 1 };
                for j in 0..=hi {
                    let p = match saved {
                        AttnSaved::Probs(p) => p[b * t * t + i * t + j],
                        AttnSaved::Lse(l) => {
                            let s = dot(&q[row(i)], &k[row(j)]) * scale;
                            crate::kernels::exp::exp(s - l[b * t + i])
                        }
                    };
                    if p == 0.0 {
                        continue;
                    }
                    let dp = dot(&dout[row(i)], &v[row(j)]);
                    let ds = p * (dp - drow) * scale;
                    for x in 0..d {
                        dq[row(i)][x] += ds * k[row(j)][x];
                        dk[row(j)][x] += ds * q[row(i)][x];
                        dv[row(j)][x] += p * dout[row(i)][x];
                    }
                }
            }
        }
        [dq, dk, dv]
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Token-major `x` (`width` heads a row) copied head-major into
    /// `[B·H, T, D]`, query head `h` taking head `h / (H / width)`: the
    /// split and grouped-query gather the tape made before it attended
    /// token-major.
    fn to_head_major(x: &[f32], s: AttnShape, width: usize) -> Vec<f32> {
        let AttnShape { t, heads, d, .. } = s;
        let mut out = Vec::with_capacity(s.batch * heads * t * d);
        for task in 0..s.batch * heads {
            let (b, h) = (task / heads, task % heads / (heads / width));
            for i in 0..t {
                out.extend_from_slice(&x[((b * t + i) * width + h) * d..][..d]);
            }
        }
        out
    }

    /// The inverse of [`to_head_major`] as the tape's backward ran it:
    /// each head-major head added, in head order, onto its token-major
    /// head of a zero-started `[B·T, width·D]` buffer.
    fn add_token_major(x: &[f32], s: AttnShape, width: usize) -> Vec<f32> {
        let AttnShape { t, heads, d, .. } = s;
        let mut out = vec![0.0f32; s.batch * t * width * d];
        for (task, part) in x.chunks_exact(t * d).enumerate() {
            let (b, h) = (task / heads, task % heads / (heads / width));
            for (i, row) in part.chunks_exact(d).enumerate() {
                let at = ((b * t + i) * width + h) * d;
                for (o, &e) in out[at..at + d].iter_mut().zip(row) {
                    *o += e;
                }
            }
        }
        out
    }

    #[test]
    fn flash_fwd_and_bwd_equal_their_references_bitwise() {
        // The references run one contiguous head at a time over
        // head-major copies, as the tape did before it attended
        // token-major. See `SHAPES` for what the shapes cover
        for shape in SHAPES {
            let (s, [q, k, v, dout]) = case(shape);
            let AttnShape {
                t,
                heads,
                kv_heads,
                d,
                ..
            } = s;
            let (n, kv) = (q.len(), k.len());
            let [qh, kh, vh, douth] = [(&q, heads), (&k, kv_heads), (&v, kv_heads), (&dout, heads)]
                .map(|(x, width)| to_head_major(x, s, width));
            let bh = s.batch * heads;
            for causal in [true, false] {
                let (want, want_lse) = flash_fwd_reference(&qh, &kh, &vh, bh, t, d, causal);
                let (got, saved) = attention_fwd(&q, &k, &v, s, AttentionImpl::Flash, causal);
                let AttnSaved::Lse(lse) = &saved else {
                    unreachable!()
                };
                let at = format!("{shape:?} causal {causal}");
                assert_eq!(
                    bits(&to_head_major(&got, s, heads)),
                    bits(&want),
                    "fwd {at}"
                );
                assert_eq!(bits(lse), bits(&want_lse), "lse {at}");
                let (naive, probs) = attention_fwd(&q, &k, &v, s, AttentionImpl::Naive, causal);
                for (o, saved) in [(&got, &saved), (&naive, &probs)] {
                    let oh = to_head_major(o, s, heads);
                    let want = bwd_reference(&qh, &kh, &vh, &oh, &douth, saved, bh, t, d, causal);
                    let want = [
                        (&want[0], heads),
                        (&want[1], kv_heads),
                        (&want[2], kv_heads),
                    ]
                    .map(|(x, width)| add_token_major(x, s, width));
                    let mut got = [n, kv, kv].map(|len| vec![0.0f32; len]);
                    let [dq, dk, dv] = &mut got;
                    attention_bwd(&q, &k, &v, o, &dout, saved, dq, dk, dv, s, causal);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(bits(g), bits(w), "bwd {at}");
                    }
                }
            }
        }
    }

    /// `(batch, t, heads, kv_heads, d, spread)`: the shapes of
    /// [`flash_fwd_and_bwd_equal_their_references_bitwise`]. The
    /// training shape; odd shapes; `d` with and without a multiple of 16;
    /// several sequences; grouped-query heads; `t` across several
    /// backward row blocks and into a partial one (70 = 4 · 16 + 6, and
    /// under grouped-query heads 33 = 2 · 16 + 1), or inside one
    /// (15); and scores far enough apart (spread 60) that exp's special
    /// path and the rescale by 0 run, and probabilities underflow to the
    /// 0 the backward skips.
    const SHAPES: [(usize, usize, usize, usize, usize, f32); 13] = [
        (8, 32, 4, 4, 16, 1.0),
        (3, 7, 1, 1, 5, 1.0),
        (2, 17, 1, 1, 6, 1.0),
        (1, 33, 2, 2, 32, 1.0),
        (1, 1, 1, 1, 4, 1.0),
        (2, 19, 2, 2, 16, 60.0),
        (2, 9, 4, 2, 8, 1.0),
        (3, 11, 4, 1, 6, 60.0),
        (2, 70, 4, 2, 24, 1.0),
        (1, 70, 2, 2, 40, 60.0),
        (1, 48, 3, 1, 40, 1.0),
        (2, 33, 4, 2, 16, 60.0),
        (1, 15, 2, 1, 16, 1.0),
    ];

    /// One shape's call and its token-major `[q, k, v, dout]`, drawn as
    /// that test draws them: every third key component × `spread`.
    fn case(
        (batch, t, heads, kv_heads, d, spread): (usize, usize, usize, usize, usize, f32),
    ) -> (AttnShape, [Vec<f32>; 4]) {
        let s = AttnShape {
            batch,
            t,
            heads,
            kv_heads,
            d,
        };
        let (n, kv) = (batch * t * heads * d, batch * t * kv_heads * d);
        let k = rand_buf(kv, 22)
            .iter()
            .enumerate()
            .map(|(x, &e)| if (x / d) % 3 == 1 { e * spread } else { e })
            .collect();
        (s, [rand_buf(n, 21), k, rand_buf(kv, 23), rand_buf(n, 24)])
    }

    #[test]
    fn naive_is_flash_plus_its_stash_bitwise() {
        // Naive runs Flash's fold and stashes the rows Flash's backward
        // recomputes from the lse: the same output, and the same
        // gradients from either stash
        let mut underflowed = 0;
        for shape in SHAPES {
            let (s, [q, k, v, dout]) = case(shape);
            let t = s.t;
            for causal in [true, false] {
                let at = format!("{shape:?} causal {causal}");
                let (flash, lse) = attention_fwd(&q, &k, &v, s, AttentionImpl::Flash, causal);
                let (naive, probs) = attention_fwd(&q, &k, &v, s, AttentionImpl::Naive, causal);
                assert_eq!(bits(&naive), bits(&flash), "fwd {at}");
                let AttnSaved::Probs(p) = &probs else {
                    unreachable!()
                };
                for (r, row) in p.chunks_exact(t).enumerate() {
                    let n = if causal { r % t + 1 } else { t };
                    assert!(row[n..].iter().all(|&x| x == 0.0), "masked {at}");
                    underflowed += row[..n].iter().filter(|&&x| x == 0.0).count();
                }
                let [want, got] = [(&flash, &lse), (&naive, &probs)].map(|(o, saved)| {
                    let mut g = [&q, &k, &v].map(|x| vec![0.0f32; x.len()]);
                    let [dq, dk, dv] = &mut g;
                    attention_bwd(&q, &k, &v, o, &dout, saved, dq, dk, dv, s, causal);
                    g
                });
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(bits(g), bits(w), "bwd {at}");
                }
            }
        }
        // spread-60 shapes reach the backward's skip of P = 0
        assert!(underflowed > 0, "no probability underflowed to 0");
    }

    /// softmax(q·kᵀ/√d)·v and each row's log-sum-exp in f64, query head
    /// `h` reading key/value head `h / (H / Hkv)`: the token-major output
    /// and the lse `[B·H, T]`.
    fn oracle(q: &[f32], k: &[f32], v: &[f32], s: AttnShape, causal: bool) -> [Vec<f64>; 2] {
        let AttnShape { t, heads, d, .. } = s;
        let mut out = vec![0.0f64; q.len()];
        let mut lse = vec![0.0f64; s.batch * heads * t];
        for task in 0..s.batch * heads {
            let [qh, kh, vh] = [(q, heads), (k, s.kv_heads), (v, s.kv_heads)]
                .map(|(x, width)| s.head(x, width, task));
            for i in 0..t {
                let n = if causal { i + 1 } else { t };
                let scores: Vec<f64> = (0..n)
                    .map(|j| {
                        let dot: f64 = qh(i)
                            .iter()
                            .zip(kh(j))
                            .map(|(&a, &b)| a as f64 * b as f64)
                            .sum();
                        dot / (d as f64).sqrt()
                    })
                    .collect();
                let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let w: Vec<f64> = scores.iter().map(|x| (x - m).exp()).collect();
                let l: f64 = w.iter().sum();
                lse[task * t + i] = m + l.ln();
                let (b, h) = (task / heads, task % heads);
                let o = &mut out[((b * t + i) * heads + h) * d..][..d];
                for (j, wj) in w.iter().enumerate() {
                    for (o, &x) in o.iter_mut().zip(vh(j)) {
                        *o += wj / l * x as f64;
                    }
                }
            }
        }
        [out, lse]
    }

    #[test]
    fn attention_is_within_budget_of_an_f64_oracle() {
        // Budgets in f32 epsilons: the output's error against max|v|,
        // the lse's against max(|lse|, 1). Measured maxima over these
        // cases: output 15.8 ε (at spread 60, where score rounding is
        // amplified; ≤ 6 ε at spread 1), lse 2.2 ε. Naive's output is
        // Flash's (above), so this holds both.
        const OUT_EPS: f64 = 24.0;
        const LSE_EPS: f64 = 3.0;
        let eps = f32::EPSILON as f64;
        let mut worst = [0.0f64; 2];
        let wide = [
            (4, 32, 4, 4, 32, 1.0),
            (1, 256, 2, 1, 32, 1.0),
            (1, 256, 2, 2, 16, 60.0),
        ];
        for shape in SHAPES.into_iter().chain(wide) {
            let (s, [q, k, v, _]) = case(shape);
            let vmax = v.iter().fold(0.0f64, |m, &x| m.max(x.abs() as f64));
            for causal in [true, false] {
                let [want, want_lse] = oracle(&q, &k, &v, s, causal);
                let (got, saved) = attention_fwd(&q, &k, &v, s, AttentionImpl::Flash, causal);
                let AttnSaved::Lse(lse) = saved else {
                    unreachable!()
                };
                let err = |got: &[f32], want: &[f64], unit: &dyn Fn(f64) -> f64| {
                    let errs = got
                        .iter()
                        .zip(want)
                        .map(|(&g, &w)| (g as f64 - w).abs() / unit(w));
                    errs.fold(0.0f64, f64::max) / eps
                };
                let found = [
                    err(&got, &want, &|_| vmax),
                    err(&lse, &want_lse, &|w| w.abs().max(1.0)),
                ];
                for (worst, found) in worst.iter_mut().zip(found) {
                    *worst = worst.max(found);
                }
            }
        }
        println!(
            "worst error: output {:.2} ε·max|v|, lse {:.2} ε relative",
            worst[0], worst[1]
        );
        assert!(worst[0] <= OUT_EPS && worst[1] <= LSE_EPS, "{worst:?}");
    }

    #[test]
    fn flash_matches_naive_forward() {
        let (bh, t, d) = (3, 7, 4);
        let q = rand_buf(bh * t * d, 1);
        let k = rand_buf(bh * t * d, 2);
        let v = rand_buf(bh * t * d, 3);
        let (o1, _) = causal_attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Naive);
        let (o2, _) = causal_attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Flash);
        assert_eq!(bits(&o1), bits(&o2));
    }

    #[test]
    fn flash_aux_memory_is_linear_naive_quadratic() {
        let (bh, d) = (2, 8);
        let mut naive_prev = 0;
        let mut flash_prev = 0;
        for t in [16usize, 32] {
            let q = rand_buf(bh * t * d, 1);
            let (_, sn) = causal_attention_fwd(&q, &q, &q, bh, t, d, AttentionImpl::Naive);
            let (_, sf) = causal_attention_fwd(&q, &q, &q, bh, t, d, AttentionImpl::Flash);
            if naive_prev > 0 {
                assert_eq!(sn.aux_bytes(), naive_prev * 4); // T doubled -> 4x
                assert_eq!(sf.aux_bytes(), flash_prev * 2); // T doubled -> 2x
            }
            naive_prev = sn.aux_bytes();
            flash_prev = sf.aux_bytes();
        }
    }

    #[test]
    fn causality_first_row_sees_only_itself() {
        let (bh, t, d) = (1, 4, 2);
        let q = rand_buf(bh * t * d, 5);
        let k = rand_buf(bh * t * d, 6);
        let v = rand_buf(bh * t * d, 7);
        let (o, _) = causal_attention_fwd(&q, &k, &v, bh, t, d, AttentionImpl::Naive);
        // row 0 attends only to position 0 -> out[0] == v[0]
        assert!((o[0] - v[0]).abs() < 1e-6);
        assert!((o[1] - v[1]).abs() < 1e-6);
    }

    #[test]
    fn backward_matches_finite_difference_both_impls() {
        let (bh, t, d) = (1, 5, 3);
        let q0 = rand_buf(bh * t * d, 11);
        let k0 = rand_buf(bh * t * d, 12);
        let v0 = rand_buf(bh * t * d, 13);
        let w = rand_buf(bh * t * d, 14); // weights for scalar objective

        for imp in [AttentionImpl::Naive, AttentionImpl::Flash] {
            let f = |q: &[f32], k: &[f32], v: &[f32]| {
                let (o, _) = causal_attention_fwd(q, k, v, bh, t, d, imp);
                o.iter().zip(w.iter()).map(|(a, b)| a * b).sum::<f32>()
            };
            let (o, saved) = causal_attention_fwd(&q0, &k0, &v0, bh, t, d, imp);
            let mut dq = vec![0.0; q0.len()];
            let mut dk = vec![0.0; k0.len()];
            let mut dv = vec![0.0; v0.len()];
            causal_attention_bwd(
                &q0, &k0, &v0, &o, &w, &saved, &mut dq, &mut dk, &mut dv, bh, t, d,
            );
            let h = 1e-2;
            for i in 0..q0.len() {
                let mut qp = q0.clone();
                qp[i] += h;
                let mut qm = q0.clone();
                qm[i] -= h;
                let num = (f(&qp, &k0, &v0) - f(&qm, &k0, &v0)) / (2.0 * h);
                assert!(
                    (num - dq[i]).abs() < 3e-2,
                    "{imp:?} dq[{i}] {num} vs {}",
                    dq[i]
                );
            }
            for i in 0..k0.len() {
                let mut kp = k0.clone();
                kp[i] += h;
                let mut km = k0.clone();
                km[i] -= h;
                let num = (f(&q0, &kp, &v0) - f(&q0, &km, &v0)) / (2.0 * h);
                assert!(
                    (num - dk[i]).abs() < 3e-2,
                    "{imp:?} dk[{i}] {num} vs {}",
                    dk[i]
                );
            }
            for i in 0..v0.len() {
                let mut vp = v0.clone();
                vp[i] += h;
                let mut vm = v0.clone();
                vm[i] -= h;
                let num = (f(&q0, &k0, &vp) - f(&q0, &k0, &vm)) / (2.0 * h);
                assert!(
                    (num - dv[i]).abs() < 3e-2,
                    "{imp:?} dv[{i}] {num} vs {}",
                    dv[i]
                );
            }
        }
    }
}
