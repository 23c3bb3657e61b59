//! Rayon-parallel dense matrix multiplication kernels.
//!
//! One blocked loop nest, `nest`, under every entry with more than one
//! row: `c[r][j] ⊕= coef(r, s) · b[s][j]`, `s` ascending, walked as step
//! blocks of `KC` → column strips of ≤ `NV_MAX` × `LANES` floats →
//! row tiles of ≤ `MR` rows. A tile's accumulators stay in registers
//! for its whole block; the strip of `b` it read is re-used from L1 by
//! every later row tile, and the first row tile of a strip prefetches
//! the same strip of the next block, so `b` crosses DRAM once per call
//! whatever `m`. An entry is an addressing of the coefficient
//! `coef(r, s) = a[r·rs + s·ss]`, a packing, and a chain:
//!
//! | entry | rows × steps, `(rs, ss)` | packing | chain per element |
//! |---|---|---|---|
//! | [`matmul`], `m = 1` | — (`row_axpy`, coefficients `a[p]`) | none | fused, zero-skip, from `+0` |
//! | [`matmul`], `m ≥ 2` | `m × k`, `(k, 1)` | none | fused, zero-skip, from `+0` |
//! | [`matmul_bt_acc`] | `m × k`, `(k, 1)` | `b^T` packed once to `[k, n]`; one zeroed `[m, n]` temp, `c += temp` | unfused, no skip, from `+0` |
//! | [`matmul_at_acc`] | `k × m`, `(1, k)` (down a column of `a`, no pack) | none | unfused, zero-skip, from `c` |
//!
//! The chain an output element sees — its order, fusing and zero-skip —
//! is a function of the inner dimension only, never of `m`, the tile a
//! row fell in, the body that ran it or the worker it ran on; the bitwise
//! training and serving equivalences all rest on that. A vector
//! `fmadd` per step is the fused chain lane by lane, a vector `mul` then
//! `add` the unfused one; a zero coefficient is found by one scan of a
//! tile's coefficient slab per block and sends that tile-block through
//! the skipping instantiation, where the coefficient never meets its row
//! of `b`. `matmul_bt_acc` goes through a temp because its chain is a
//! dot product's: the accumulator starts at `+0` and meets `c` once, at
//! the end, and `(c + x₀) + x₁ …` rounds differently from
//! `c + (x₀ + x₁ …)` whenever `c` is non-zero.
//!
//! The tile has two bodies that produce the same bits: AVX-512
//! intrinsics behind runtime detection, and a safe lane-array twin that
//! is the only body elsewhere. `unsafe` is confined to the first and its
//! dispatch; the entries' shape asserts are what its raw reads rest on,
//! so they are checked in release builds too.

#![deny(unsafe_op_in_unsafe_fn)]

use rayon::prelude::*;

/// Minimum number of output elements before we bother spinning up rayon.
/// Below this the sequential loop wins (thread handoff costs more than the
/// multiply itself).
const PAR_THRESHOLD: usize = 64 * 64;

/// Rows the int8 store's weight-stationary kernel (`matmul_q8`) takes
/// per group in [`in_small_m_groups`]: its codes stream once while the
/// group's output rows accumulate in cache.
pub const SMALL_M_MAX: usize = 8;

/// Steps per block of [`nest`]. Measured, not an option: on the
/// DRAM-resident serving shapes 64 / 128 / 256 cost `m ≤ 4` 10–34 %
/// (the prefetch runs a whole block ahead), and 32 already amortises a
/// tile's load and store of `c` over 32 steps.
const KC: usize = 32;
/// Floats per vector of a tile (one AVX-512 register, one cache line).
const LANES: usize = 16;
/// Vectors per column strip.
const NV_MAX: usize = 3;
/// Rows per tile: `MR · NV_MAX` accumulators, `NV_MAX` vectors of `b`
/// and one broadcast coefficient fill 28 of the 32 vector registers.
const MR: usize = 8;

/// One tile-block of [`nest`]: `R` rows × `NV` vectors of `c` starting
/// at `c0`, `kc` steps. `coef(r, s) = a[a0 + r·rs + s·ss]`; row `s` of
/// the strip of `b` starts at `b0 + s·n`; `w` of the strip's
/// `NV · LANES` lanes exist (`(NV − 1) · LANES < w`).
struct Tile<'a> {
    a: &'a [f32],
    a0: usize,
    rs: usize,
    ss: usize,
    b: &'a [f32],
    b0: usize,
    c0: usize,
    n: usize,
    kc: usize,
    w: usize,
    /// Prefetch the strip's rows `KC` steps on (the next block's).
    prefetch: bool,
}

impl Tile<'_> {
    /// Lanes that exist in vector `v` of `nv`.
    fn lanes(&self, v: usize, nv: usize) -> usize {
        if v + 1 < nv {
            LANES
        } else {
            self.w - (nv - 1) * LANES
        }
    }

    /// Panic unless every index the bodies form for an `r`-row tile is
    /// inside its slice: the check `tile_avx512`'s raw reads rest on.
    /// (No sum here can wrap: `nest` built each term from products its
    /// own asserts bound by a slice length.)
    fn check(&self, r: usize, c_len: usize) {
        assert!(r > 0 && self.kc > 0 && self.w > 0 && self.w <= self.n);
        assert!(self.a0 + (r - 1) * self.rs + (self.kc - 1) * self.ss < self.a.len());
        assert!(self.b0 + (self.kc - 1) * self.n + self.w <= self.b.len());
        assert!(self.c0 + (r - 1) * self.n + self.w <= c_len);
    }
}

/// One whole vector of a tile-block in portable code: its `R`
/// accumulators are lane arrays the compiler keeps in whatever vector
/// registers the target has (16 of AVX2's, 8 of AVX-512's). Row `r` of
/// `c` starts at `r · cstride`, row `s` of `b` at `s · bstride`. Every
/// load and store is a whole lane array: a run-time length anywhere in
/// here sends the accumulators through memory on every step.
#[inline(always)]
fn column_lanes<const R: usize, const FUSED: bool, const SKIP: bool>(
    t: &Tile,
    (b, bstride): (&[f32], usize),
    (c, cstride): (&mut [f32], usize),
) {
    let whole = |x: &[f32]| -> [f32; LANES] { x[..LANES].try_into().expect("LANES floats") };
    let mut acc: [[f32; LANES]; R] = std::array::from_fn(|r| whole(&c[r * cstride..]));
    for s in 0..t.kc {
        let bv = whole(&b[s * bstride..]);
        for (r, av) in acc.iter_mut().enumerate() {
            let cf = t.a[t.a0 + r * t.rs + s * t.ss];
            if SKIP && cf == 0.0 {
                continue;
            }
            for (o, &bl) in av.iter_mut().zip(&bv) {
                *o = if FUSED {
                    cf.mul_add(bl, *o)
                } else {
                    *o + cf * bl
                };
            }
        }
    }
    for (r, av) in acc.iter().enumerate() {
        c[r * cstride..][..LANES].copy_from_slice(av);
    }
}

/// The portable body of a tile-block: [`column_lanes`] per vector of the
/// strip, a vector with fewer than [`LANES`] lanes staged through
/// zero-padded copies of its `b` and `c`. `FUSED` picks `mul_add` (one
/// rounding per step) over mul-then-add; `SKIP` passes over zero
/// coefficients without touching their row of `b`.
fn tile_lanes<const R: usize, const FUSED: bool, const SKIP: bool>(t: &Tile, c: &mut [f32]) {
    let nv = t.w.div_ceil(LANES);
    for v in 0..nv {
        let (w, j) = (t.lanes(v, nv), v * LANES);
        if w == LANES {
            let (b, c) = (&t.b[t.b0 + j..], &mut c[t.c0 + j..]);
            column_lanes::<R, FUSED, SKIP>(t, (b, t.n), (c, t.n));
            continue;
        }
        let (mut bs, mut cs) = ([[0.0f32; LANES]; KC], [[0.0f32; LANES]; R]);
        for (s, row) in bs[..t.kc].iter_mut().enumerate() {
            row[..w].copy_from_slice(&t.b[t.b0 + s * t.n + j..][..w]);
        }
        for (r, row) in cs.iter_mut().enumerate() {
            row[..w].copy_from_slice(&c[t.c0 + r * t.n + j..][..w]);
        }
        let staged = (cs.as_flattened_mut(), LANES);
        column_lanes::<R, FUSED, SKIP>(t, (bs.as_flattened(), LANES), staged);
        for (r, row) in cs.iter().enumerate() {
            c[t.c0 + r * t.n + j..][..w].copy_from_slice(&row[..w]);
        }
    }
}

/// The AVX-512 body of a tile-block: `R · NV` `zmm` accumulators, one
/// `fmadd` (or `mul` then `add`) per accumulator per step — lane by lane
/// the chain of [`tile_lanes`]. Lanes past `w` are masked out of every
/// load and store.
///
/// # Safety
/// `avx512f` must have been detected, `t.check(R, c.len())` must have
/// passed, and `NV` must be `t.w.div_ceil(LANES)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512<const R: usize, const NV: usize, const FUSED: bool, const SKIP: bool>(
    t: &Tile,
    c: &mut [f32],
) {
    use std::arch::x86_64::*;
    let tail: __mmask16 = (!0u16) >> (LANES - t.lanes(NV - 1, NV));
    let mask = |v: usize| if v + 1 < NV { !0 } else { tail };
    // SAFETY: `check` bounded every tile index by its slice — rows
    // `r < R` and lanes `< w` of `c` from `c0`, steps `s < kc` and lanes
    // `< w` of `b` from `b0`, `a0 + r·rs + s·ss` in `a` — and masked
    // loads and stores touch no lane past `w`. The prefetch address may
    // lie past `b`: it is formed with `wrapping_add` and never read.
    unsafe {
        let (a, b) = (t.a.as_ptr().add(t.a0), t.b.as_ptr().add(t.b0));
        let c = c.as_mut_ptr().add(t.c0);
        let mut acc = [[_mm512_setzero_ps(); NV]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, av) in row.iter_mut().enumerate() {
                *av = _mm512_maskz_loadu_ps(mask(v), c.add(r * t.n + v * LANES));
            }
        }
        for s in 0..t.kc {
            let brow = b.add(s * t.n);
            let mut bv = [_mm512_setzero_ps(); NV];
            for (v, x) in bv.iter_mut().enumerate() {
                if t.prefetch {
                    let next = brow.wrapping_add(KC * t.n + v * LANES);
                    _mm_prefetch::<_MM_HINT_T0>(next as *const i8);
                }
                *x = _mm512_maskz_loadu_ps(mask(v), brow.add(v * LANES));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let cf = *a.add(r * t.rs + s * t.ss);
                if SKIP && cf == 0.0 {
                    continue;
                }
                let cf = _mm512_set1_ps(cf);
                for (av, &x) in row.iter_mut().zip(&bv) {
                    *av = if FUSED {
                        _mm512_fmadd_ps(cf, x, *av)
                    } else {
                        _mm512_add_ps(*av, _mm512_mul_ps(cf, x))
                    };
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &av) in row.iter().enumerate() {
                _mm512_mask_storeu_ps(c.add(r * t.n + v * LANES), mask(v), av);
            }
        }
    }
}

/// Run one tile-block through the AVX-512 body where `avx512` proves the
/// host has it, the portable one otherwise, at the instantiation its row
/// and vector counts name.
fn tile<const FUSED: bool, const SKIP: bool>(
    avx512: Option<Avx512>,
    rows: usize,
    t: &Tile,
    c: &mut [f32],
) {
    t.check(rows, c.len());
    let nv = t.w.div_ceil(LANES);
    macro_rules! body {
        ($($r:literal)+) => {
            match (rows, nv) {
                $(($r, 1) => body!(@ $r, 1), ($r, 2) => body!(@ $r, 2), ($r, 3) => body!(@ $r, 3),)+
                _ => unreachable!("a tile is 1..={MR} rows of 1..={NV_MAX} vectors"),
            }
        };
        (@ $r:literal, $nv:literal) => {
            if avx512.is_some() {
                // SAFETY: an `Avx512` exists only where avx512f was
                // detected, `t.check` passed above, and this arm is
                // the one `nv = ⌈w / LANES⌉` selected
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    tile_avx512::<$r, $nv, FUSED, SKIP>(t, c)
                }
            } else {
                tile_lanes::<$r, FUSED, SKIP>(t, c)
            }
        };
    }
    body!(1 2 3 4 5 6 7 8)
}

/// True when any coefficient of an `r`-row, `kc`-step slab from `a0` is
/// zero. One of the two strides is 1 in every entry; the scan runs
/// along it without an early exit, so it vectorises.
fn slab_has_zero(a: &[f32], a0: usize, (rs, ss): (usize, usize), r: usize, kc: usize) -> bool {
    let (outer, stride, inner) = if ss == 1 { (r, rs, kc) } else { (kc, ss, r) };
    (0..outer).any(|o| {
        a[a0 + o * stride..][..inner]
            .iter()
            .fold(false, |z, &v| z | (v == 0.0))
    })
}

/// The blocked nest: `c[rows, n] ⊕= coef · b[steps, n]` with
/// `coef(r, s) = a[r·rs + s·ss]` and `⊕` the `FUSED` / `SKIP` chain of
/// the tile bodies, `s` ascending per output element. Row tiles are
/// dealt to the rayon pool in whole tiles, one contiguous run per
/// worker, so `b` streams once per worker; which worker ran a tile
/// changes no bit.
#[allow(clippy::too_many_arguments)]
fn nest<const FUSED: bool, const SKIP: bool>(
    avx512: Option<Avx512>,
    a: &[f32],
    (rs, ss): (usize, usize),
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    steps: usize,
    n: usize,
) {
    assert_eq!(b.len(), steps * n);
    assert_eq!(c.len(), rows * n);
    assert!(rs == 1 || ss == 1, "one coefficient stride is the unit one");
    if c.is_empty() || steps == 0 {
        return;
    }
    assert!((rows - 1) * rs + (steps - 1) * ss < a.len());
    // below the threshold `par_rows` runs inline: one run, one stream of `b`
    let tiles = rows.div_ceil(MR);
    let workers = if c.len() >= PAR_THRESHOLD {
        rayon::current_num_threads().min(tiles)
    } else {
        1
    };
    let run = tiles.div_ceil(workers) * MR;
    par_rows(c, run * n, |g, cg| {
        let rows = cg.len() / n;
        let mut has_zero = vec![false; if SKIP { rows.div_ceil(MR) } else { 0 }];
        for s0 in (0..steps).step_by(KC) {
            let kc = KC.min(steps - s0);
            for (i, z) in has_zero.iter_mut().enumerate() {
                let a0 = (g * run + i * MR) * rs + s0 * ss;
                *z = slab_has_zero(a, a0, (rs, ss), MR.min(rows - i * MR), kc);
            }
            for j0 in (0..n).step_by(NV_MAX * LANES) {
                for r0 in (0..rows).step_by(MR) {
                    let t = Tile {
                        a,
                        a0: (g * run + r0) * rs + s0 * ss,
                        rs,
                        ss,
                        b,
                        b0: s0 * n + j0,
                        c0: r0 * n + j0,
                        n,
                        kc,
                        w: (NV_MAX * LANES).min(n - j0),
                        prefetch: r0 == 0 && s0 + KC < steps,
                    };
                    let r = MR.min(rows - r0);
                    if SKIP && has_zero[r0 / MR] {
                        tile::<FUSED, true>(avx512, r, &t, cg)
                    } else {
                        tile::<FUSED, false>(avx512, r, &t, cg)
                    }
                }
            }
        }
    });
}

/// Proof that `avx512f` was detected on this host: the only way to
/// reach [`tile_avx512`].
#[derive(Clone, Copy)]
struct Avx512(());

impl Avx512 {
    fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("avx512f").then_some(Avx512(()));
        #[cfg(not(target_arch = "x86_64"))]
        None
    }
}

/// The single-row nest `matmul` keeps for `m = 1`: `out[j] = fma(coef(p),
/// b[p][j], out[j])`, `p` ascending over the rows of `b[·, out.len()]`,
/// zero coefficients passed over without touching their `b` row — the
/// chain of `nest::<true, true>`, one row at a time, auto-vectorised.
#[inline(always)]
fn row_axpy(out: &mut [f32], coef: &[f32], b: &[f32]) {
    let n = out.len();
    for (p, &ap) in coef.iter().enumerate() {
        if ap == 0.0 {
            continue;
        }
        for (o, &bv) in out.iter_mut().zip(&b[p * n..(p + 1) * n]) {
            *o = ap.mul_add(bv, *o);
        }
    }
}

/// Hand `c` out in `chunk`-float pieces as `f(piece index, piece)`: on
/// the rayon pool from [`PAR_THRESHOLD`] outputs up when there is more
/// than one piece, inline otherwise. Pieces are independent in every
/// caller, so where they run changes no output bit.
fn par_rows(c: &mut [f32], chunk: usize, f: impl Fn(usize, &mut [f32]) + Sync + Send) {
    if c.len() >= PAR_THRESHOLD && c.len() > chunk {
        c.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(i, ci)| f(i, ci));
    } else {
        c.chunks_mut(chunk).enumerate().for_each(|(i, ci)| f(i, ci));
    }
}

/// `c[m,n] = a[m,k] @ b[k,n]`.
///
/// Accumulation is fused (one rounding per step): a single row and a
/// tile of the nest apply the identical per-element FMA chain, so
/// outputs are bitwise reproducible across batch shapes. `m = 1` stays
/// on the per-row loop: an L2-resident decode step is faster there
/// (ROADMAP item 2 holds the one-row tile's numbers).
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    entry_with(Entry::Matmul, Avx512::detect(), a, b, c, m, k, n)
}

/// Run a small-`m` matmul `kernel(a_rows, c_rows, rows)` over all `m`
/// rows of `a[m,k]` / `c[m,n]` in groups of at most [`SMALL_M_MAX`], so
/// a weight-stationary kernel streams its weights `⌈m / SMALL_M_MAX⌉`
/// times instead of once per row — how the int8 store's `matmul_q8`
/// takes a prefill or a stacked decode batch of any size ([`matmul`]
/// blocks its own rows). Groups run on the rayon pool past
/// `PAR_THRESHOLD` outputs (inline on a one-worker pool). Rows are
/// independent in every such kernel, so grouping changes no output bit.
pub fn in_small_m_groups(
    a: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    kernel: impl Fn(&[f32], &mut [f32], usize) + Sync + Send,
) {
    if m <= SMALL_M_MAX {
        return kernel(a, c, m);
    }
    par_rows(c, SMALL_M_MAX * n, |g, cg| {
        let rows = cg.len() / n;
        kernel(&a[g * SMALL_M_MAX * k..][..rows * k], cg, rows)
    });
}

/// `c[m,n] += a[m,k] @ b[n,k]^T` — `dA = dC @ B^T`, `b` being the
/// forward weight as stored: `b^T` is packed once into row-major
/// `[k,n]`, the nest runs into one zeroed `[m,n]` temp, and the temp is
/// added into `c` once (the module docs say why not straight into `c`).
pub fn matmul_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    entry_with(Entry::BtAcc, Avx512::detect(), a, b, c, m, k, n)
}

/// `c[k,n] += a[m,k]^T @ b[m,n]` — `dB = A^T @ dC` — without
/// materialising the transpose: output row `p` takes its coefficients
/// down column `p` of `a`, one per row of `b`; unfused, zero-skipping,
/// straight into `c`.
pub fn matmul_at_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    entry_with(Entry::AtAcc, Avx512::detect(), a, b, c, m, k, n)
}

/// The public entries, as [`entry_with`] names them.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Matmul,
    BtAcc,
    AtAcc,
}

/// An entry with the tile body chosen by the caller (`None`: the
/// portable one), so a test can run the portable body on a host that
/// would never dispatch it. The shape asserts are the bounds the tile's
/// raw reads rest on: a mis-shaped call panics in release builds too.
#[allow(clippy::too_many_arguments)]
fn entry_with(
    entry: Entry,
    avx512: Option<Avx512>,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k);
    match entry {
        Entry::Matmul => {
            assert_eq!(b.len(), k * n);
            assert_eq!(c.len(), m * n);
            c.fill(0.0);
            if m == 1 {
                return row_axpy(c, a, b);
            }
            nest::<true, true>(avx512, a, (k, 1), b, c, m, k, n);
        }
        Entry::BtAcc => {
            assert_eq!(b.len(), n * k);
            assert_eq!(c.len(), m * n);
            let mut bt = Vec::with_capacity(k * n);
            for p in 0..k {
                bt.extend(b.iter().skip(p).step_by(k));
            }
            let mut acc = vec![0.0f32; m * n];
            nest::<false, false>(avx512, a, (k, 1), &bt, &mut acc, m, k, n);
            for (cv, av) in c.iter_mut().zip(acc) {
                *cv += av;
            }
        }
        Entry::AtAcc => {
            assert_eq!(b.len(), m * n);
            assert_eq!(c.len(), k * n);
            nest::<false, true>(avx512, a, (1, k), b, c, k, m, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let b = vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3x2
        let mut c = vec![0.0; 4];
        matmul(&a, &b, &mut c, 2, 3, 2);
        assert_eq!(c, naive(&a, &b, 2, 3, 2));
        assert_eq!(c, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_matches_naive_large_parallel() {
        let (m, k, n) = (70, 33, 71); // crosses PAR_THRESHOLD
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.1)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.1)
            .collect();
        let mut c = vec![0.0; m * n];
        matmul(&a, &b, &mut c, m, k, n);
        let r = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(r.iter()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Deterministic operand with a zero at every 7th position, so zero
    /// coefficients land inside 8-groups and in `k % 8` tails alike.
    fn operand(len: usize, mul: usize, modulo: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match i % 7 {
                0 => 0.0,
                _ => ((i * mul % modulo) as f32 - modulo as f32 / 2.0) * 0.1,
            })
            .collect()
    }

    /// [`operand`] without the zeros (`modulo` odd, so no value sits on
    /// the half): every coefficient slab is zero-free, which is what a
    /// kernel's non-skipping fast path sees.
    fn dense_operand(len: usize, mul: usize, modulo: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * mul % modulo) as f32 - modulo as f32 / 2.0) * 0.1)
            .collect()
    }

    type Operand = fn(usize, usize, usize) -> Vec<f32>;
    /// Zero-laden (every skip fires) and zero-free (none does).
    const OPERANDS: [(&str, Operand); 2] = [("zeros", operand), ("dense", dense_operand)];

    /// Run `check` on the default pool and as a one-worker pool would:
    /// parallel calls made from inside a pool worker run inline.
    fn on_both_pools(check: impl Fn() + Sync) {
        check();
        (0..2).into_par_iter().for_each(|_| check());
    }

    /// `matmul_bt_acc` as it was before it became a packing of the row
    /// nest — a scalar dot per output element — kept as its reference.
    fn bt_dot_reference(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
        for (ci, ai) in c.chunks_mut(n).zip(a.chunks(k)) {
            for (j, cv) in ci.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (&av, &bv) in ai.iter().zip(&b[j * k..(j + 1) * k]) {
                    acc += av * bv;
                }
                *cv += acc;
            }
        }
    }

    /// `matmul_at_acc` as it was: per output row, a gather down one
    /// column of `a`.
    fn at_gather_reference(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for (p, cp) in c.chunks_mut(n).enumerate() {
            for i in 0..m {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                for (cv, &bv) in cp.iter_mut().zip(&b[i * n..(i + 1) * n]) {
                    *cv += aip * bv;
                }
            }
        }
    }

    const MS: [usize; 7] = [1, 2, 7, 8, 9, 37, 128];
    /// `(k, n)`, neither a multiple of 8; the first keeps every output
    /// below `PAR_THRESHOLD` at small `m`, the others cross it.
    const KNS: [(usize, usize); 3] = [(21, 50), (37, 113), (130, 67)];
    /// The training model's MLP shapes: `n = 344` leaves `n % 16 = 8`
    /// lanes, `n = 128` none; with [`TRAIN_MS`] rows a call is several
    /// whole row groups.
    const TRAIN_KNS: [(usize, usize); 2] = [(128, 344), (344, 128)];
    const TRAIN_MS: [usize; 2] = [32, 64];

    /// `MS × KNS` and `TRAIN_MS × TRAIN_KNS` as `(m, k, n)`.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let grid = |ms: &[usize], kns: &[(usize, usize)]| {
            ms.iter()
                .flat_map(|&m| kns.iter().map(move |&(k, n)| (m, k, n)))
                .collect::<Vec<_>>()
        };
        [grid(&MS, &KNS), grid(&TRAIN_MS, &TRAIN_KNS)].concat()
    }

    #[test]
    fn transposed_entries_bitwise_match_their_reference_loops() {
        // `c` starts non-zero: "row temp, then one add" and "accumulate
        // straight into c" only differ when there is something in `c`.
        on_both_pools(|| {
            for (set, gen) in OPERANDS {
                for (m, k, n) in shapes() {
                    // dA[m,n] += dC[m,k] @ B[n,k]^T
                    let (a, b) = (gen(m * k, 37, 19), gen(n * k, 53, 23));
                    let c0 = gen(m * n, 29, 31);
                    let (mut got, mut want) = (c0.clone(), c0);
                    matmul_bt_acc(&a, &b, &mut got, m, k, n);
                    bt_dot_reference(&a, &b, &mut want, k, n);
                    assert_eq!(bits(&got), bits(&want), "bt {set} m={m} k={k} n={n}");
                    // dB[k,n] += A[m,k]^T @ dC[m,n]
                    let d = gen(m * n, 41, 17);
                    let c0 = gen(k * n, 29, 31);
                    let (mut got, mut want) = (c0.clone(), c0);
                    matmul_at_acc(&a, &d, &mut got, m, k, n);
                    at_gather_reference(&a, &d, &mut want, m, k, n);
                    assert_eq!(bits(&got), bits(&want), "at {set} m={m} k={k} n={n}");
                }
            }
        });
    }

    #[test]
    fn both_tile_bodies_match_each_other_and_the_reference_loops() {
        // CI's baseline-ISA job and every non-x86 host run only the
        // portable body; this host may never dispatch it. Hold the two
        // against each other and against the kept reference loops, for
        // every entry, with the skips firing and not.
        let matmul_reference = |a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize| {
            for (ci, ai) in c.chunks_mut(n).zip(a.chunks(k)) {
                ci.fill(0.0);
                row_axpy(ci, ai, b);
            }
        };
        let bodies = [None, Avx512::detect()];
        on_both_pools(|| {
            for (set, gen) in OPERANDS {
                for (m, k, n) in shapes() {
                    let a = gen(m * k, 37, 19);
                    let run = |entry: Entry, b: &[f32], c0: &[f32]| {
                        let [portable, detected] = bodies.map(|body| {
                            let mut c = c0.to_vec();
                            entry_with(entry, body, &a, b, &mut c, m, k, n);
                            bits(&c)
                        });
                        assert_eq!(portable, detected, "{entry:?} {set} m={m} k={k} n={n}");
                        portable
                    };
                    let what = format!("{set} m={m} k={k} n={n}");

                    let b = gen(k * n, 53, 23);
                    let mut want = vec![f32::NAN; m * n];
                    matmul_reference(&a, &b, &mut want, k, n);
                    assert_eq!(run(Entry::Matmul, &b, &want), bits(&want), "matmul {what}");

                    let (b, c0) = (gen(n * k, 53, 23), gen(m * n, 29, 31));
                    let mut want = c0.clone();
                    bt_dot_reference(&a, &b, &mut want, k, n);
                    assert_eq!(run(Entry::BtAcc, &b, &c0), bits(&want), "bt {what}");

                    let (d, c0) = (gen(m * n, 41, 17), gen(k * n, 29, 31));
                    let mut want = c0.clone();
                    at_gather_reference(&a, &d, &mut want, m, k, n);
                    assert_eq!(run(Entry::AtAcc, &d, &c0), bits(&want), "at {what}");
                }
            }
        });
        // the skip itself, in both bodies: one step whose coefficients are
        // ±0.0 for every row, over a poisoned row of the other operand
        for (m, k, n) in [(9, 37, 113), (32, 128, 344)] {
            for (entry, steps, rows) in [(Entry::Matmul, k, m), (Entry::AtAcc, m, k)] {
                let (s0, mut a) = (steps / 2, dense_operand(m * k, 37, 19));
                for i in 0..m {
                    for p in 0..k {
                        let step = if matches!(entry, Entry::Matmul) { p } else { i };
                        if step == s0 {
                            a[i * k + p] = if (i + p) % 2 == 0 { 0.0 } else { -0.0 };
                        }
                    }
                }
                let mut b = dense_operand(steps * n, 53, 23);
                b[s0 * n..(s0 + 1) * n].fill(f32::INFINITY);
                let [portable, detected] = bodies.map(|body| {
                    let mut c = vec![-0.0f32; rows * n];
                    entry_with(entry, body, &a, &b, &mut c, m, k, n);
                    assert!(c.iter().all(|v| v.is_finite()), "{entry:?} m={m}: zero met");
                    bits(&c)
                });
                assert_eq!(portable, detected, "{entry:?} m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn at_skips_zero_coefficients_of_either_sign() {
        // `at`'s skip is observable the way `matmul`'s is
        // (`single_row_bitwise_matches_the_per_row_chain`): a skipped
        // coefficient never meets its row of `b`, so an ∞ there stays
        // out of every sum, and a `-0.0` already in `c` survives a
        // column of zero coefficients (`-0.0 + 0.0 · x` would be `+0.0`).
        for (m, k, n) in [(9, 21, 50), (37, 37, 113), (32, 128, 344), (64, 344, 128)] {
            let mut a = dense_operand(m * k, 37, 19);
            let mut d = dense_operand(m * n, 41, 17);
            let mut c0 = dense_operand(k * n, 29, 31);
            // step `i0` is skipped by every output row, by +0.0 and -0.0
            // alike; its row of `d` is poisoned
            let i0 = m / 2;
            for (p, ap) in a[i0 * k..(i0 + 1) * k].iter_mut().enumerate() {
                *ap = if p % 2 == 0 { 0.0 } else { -0.0 };
            }
            d[i0 * n..(i0 + 1) * n].fill(f32::INFINITY);
            // output row `p0` skips every step
            let p0 = k - 2;
            (0..m).for_each(|i| a[i * k + p0] = 0.0);
            c0[p0 * n..(p0 + 1) * n]
                .iter_mut()
                .step_by(3)
                .for_each(|v| *v = -0.0);
            let (mut got, mut want) = (c0.clone(), c0.clone());
            on_both_pools(|| {
                let mut c = c0.clone();
                matmul_at_acc(&a, &d, &mut c, m, k, n);
                assert!(c.iter().all(|v| v.is_finite()), "m={m} k={k}: zero met");
            });
            matmul_at_acc(&a, &d, &mut got, m, k, n);
            at_gather_reference(&a, &d, &mut want, m, k, n);
            assert_eq!(bits(&got), bits(&want), "m={m} k={k} n={n}");
            assert_eq!(
                bits(&got[p0 * n..(p0 + 1) * n]),
                bits(&c0[p0 * n..(p0 + 1) * n])
            );
        }
    }

    #[test]
    fn every_entry_is_within_k_epsilon_of_an_f64_accumulation() {
        // Forward-error bound of a length-k f32 recurrence (plus the one
        // add into `c` of the accumulating entries): (k + 1) · ε · Σ|terms|,
        // twice the textbook γ_{k+1} with unit roundoff ε / 2.
        let check = |what: &str, got: &[f32], want: &[(f64, f64)], k: usize| {
            for (idx, (&g, &(sum, abs))) in got.iter().zip(want).enumerate() {
                let bound = (k + 1) as f64 * f32::EPSILON as f64 * abs;
                let err = (g as f64 - sum).abs();
                assert!(
                    err <= bound,
                    "{what}[{idx}]: |{g} - {sum}| = {err} > {bound}"
                );
            }
        };
        // (Σ terms, Σ |terms|) in f64 of `c0 + Σ_p x(p) · y(p)` per output
        let oracle = |c0: &[f32], len: usize, term: &dyn Fn(usize, usize) -> (f32, f32)| {
            c0.iter()
                .enumerate()
                .map(|(o, &c)| {
                    (0..len).fold((c as f64, c.abs() as f64), |(s, t), p| {
                        let (x, y) = term(o, p);
                        let xy = x as f64 * y as f64;
                        (s + xy, t + xy.abs())
                    })
                })
                .collect::<Vec<_>>()
        };
        for m in [1, 9, 128] {
            for (k, n) in KNS {
                let (a, b) = (operand(m * k, 37, 19), operand(k * n, 53, 23));
                let mut c = vec![f32::NAN; m * n];
                matmul(&a, &b, &mut c, m, k, n);
                let want = oracle(&vec![0.0; m * n], k, &|o, p| {
                    (a[o / n * k + p], b[p * n + o % n])
                });
                check("matmul", &c, &want, k);

                let bt = operand(n * k, 53, 23);
                let c0 = operand(m * n, 29, 31);
                let mut c = c0.clone();
                matmul_bt_acc(&a, &bt, &mut c, m, k, n);
                let want = oracle(&c0, k, &|o, p| (a[o / n * k + p], bt[o % n * k + p]));
                check("bt", &c, &want, k);

                let d = operand(m * n, 41, 17);
                let c0 = operand(k * n, 29, 31);
                let mut c = c0.clone();
                matmul_at_acc(&a, &d, &mut c, m, k, n);
                let want = oracle(&c0, m, &|o, i| (a[i * k + o / n], d[i * n + o % n]));
                check("at", &c, &want, m);
            }
        }
    }

    #[test]
    fn small_m_path_bitwise_matches_single_row_calls() {
        // Speculative verify relies on a batched m-row matmul producing
        // exactly the bytes of m single-row calls. Include zeros in `a`
        // so the zero-skip fires on both paths.
        // and past the tier: 8 + 1, 8 + 8, 16 · 8 + 1 rows walk in groups;
        // 32 and 64 are whole groups at the training shapes
        let ms = (2..=SMALL_M_MAX).chain([9, 16, 32, 64, 129]);
        for (m, (k, n)) in ms.flat_map(|m| [(37, 113), (128, 344), (344, 128)].map(|kn| (m, kn))) {
            for (set, gen) in OPERANDS {
                let (a, b) = (gen(m * k, 37, 19), dense_operand(k * n, 53, 23));
                let mut batched = vec![0.0; m * n];
                matmul(&a, &b, &mut batched, m, k, n);
                let mut per_row = vec![0.0; m * n];
                for i in 0..m {
                    matmul(
                        &a[i * k..(i + 1) * k],
                        &b,
                        &mut per_row[i * n..(i + 1) * n],
                        1,
                        k,
                        n,
                    );
                }
                assert_eq!(bits(&batched), bits(&per_row), "{set} m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn single_row_bitwise_matches_the_per_row_chain() {
        // One row through `matmul` (the per-row loop a solo decode step
        // takes) and through the nest's one-row tile (what it would take
        // if m = 1 were blocked too: ROADMAP item 2) is the same chain: per
        // output element one p-ascending FMA chain that skips zero
        // coefficients. The skip is observable: a skipped coefficient
        // never meets its weight row, so a non-finite weight under a zero
        // stays out of the sum. Shapes put zeros inside an 8-group, in
        // the k % 8 tail, both, and nowhere; k < 8 is all tail.
        type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let chain = |a: &[f32], b: &[f32], n: usize| {
            let mut c = vec![0.0f32; n];
            for (p, &ap) in a.iter().enumerate() {
                if ap == 0.0 {
                    continue;
                }
                for (cv, &bv) in c.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *cv = ap.mul_add(bv, *cv);
                }
            }
            c
        };
        for (k, n, zeros) in [
            (37, 113, vec![3, 35]),
            (16, 9, vec![9]),
            (21, 64, vec![20]),
            (5, 7, vec![0, 4]),
            (24, 33, vec![]),
        ] {
            let mut a: Vec<f32> = (0..k).map(|i| ((i * 37 % 19) as f32 - 9.5) * 0.1).collect();
            let mut b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.1)
                .collect();
            for &p in &zeros {
                a[p] = 0.0;
                b[p * n + p % n] = f32::INFINITY;
            }
            let want: Vec<u32> = chain(&a, &b, n).iter().map(|v| v.to_bits()).collect();
            let one_row_tile: Kernel = |a, b, c, m, k, n| {
                c.fill(0.0);
                nest::<true, true>(Avx512::detect(), a, (k, 1), b, c, m, k, n)
            };
            for (name, f) in [("matmul", matmul as Kernel), ("one_row_tile", one_row_tile)] {
                let mut c = vec![f32::NAN; n];
                f(&a, &b, &mut c, 1, k, n);
                assert!(c.iter().all(|v| v.is_finite()), "{name} k={k}: zero met");
                assert_eq!(
                    c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want,
                    "{name} k={k} n={n} zeros at {zeros:?}"
                );
            }
        }
    }
}
