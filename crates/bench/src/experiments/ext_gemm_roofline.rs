//! Extension: the three GEMM entries against a *measured* host roofline —
//! one core's FMA peak and stream rate — at the shapes of the benchmark's
//! training model `T` (one resident matrix) and serving model `D` (a fresh
//! matrix per call from a pool larger than the caches; `at_acc`'s big
//! operand is its output, which stays), and `matmul` walking a whole
//! weight set the size of the benchmark's L2-resident serving model `S`
//! as `[h, h]` matrices, as its `tensor.matmul_m1_gbs` probe does.
//!
//! A cell's time is the lower quartile of its samples, each as many calls
//! as last [`SAMPLE_SECS`], and the samples are taken in rounds over every
//! cell: a microsecond-long `T` call timed alone is timer noise, and a
//! slow spell of a shared host lands on every cell alike instead of on the
//! few it overlaps. Measured, not asserted.

use super::Ctx;
use crate::print_table;
use matgpt_model::{ArchKind, GptConfig};
use matgpt_tensor::kernels::matmul::{matmul, matmul_at_acc, matmul_bt_acc};
use std::{hint::black_box, time::Instant};

/// The least a timed sample of a GEMM cell lasts.
const SAMPLE_SECS: f64 = 5e-3;

/// Lower-quartile seconds of `reps` runs of `f(rep)`.
fn secs<R>(reps: usize, mut f: impl FnMut(usize) -> R) -> f64 {
    let time = |i| (Instant::now(), black_box(f(i))).0.elapsed().as_secs_f64();
    let mut all: Vec<f64> = (0..reps).map(time).collect();
    all.sort_by(f64::total_cmp);
    all[reps / 4]
}

/// One core's FMA peak, GFLOP/s: 12 independent 16-lane chains cover the
/// FMA latency on both ports; AVX-512 registers (the tile's) or lane arrays.
fn fma_peak_gflops() -> f64 {
    const SPIN: usize = 1 << 20;
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn spin_avx512(x: f32, y: f32) {
        use std::arch::x86_64::*;
        let (x, y) = (_mm512_set1_ps(x), _mm512_set1_ps(y));
        let mut acc = [_mm512_set1_ps(1.0); 12];
        for _ in 0..SPIN {
            for a in acc.iter_mut() {
                *a = _mm512_fmadd_ps(x, *a, y);
            }
        }
        black_box(acc);
    }
    let (x, y) = (black_box(0.999f32), black_box(1e-3f32));
    let t = secs(5, |_| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was detected on the line above
            return unsafe { spin_avx512(x, y) };
        }
        let mut acc = [[1.0f32; 16]; 12];
        for _ in 0..SPIN {
            let lanes = acc.iter_mut().flatten();
            lanes.for_each(|l| *l = x.mul_add(*l, y));
        }
        black_box(acc);
    });
    (2 * 16 * 12 * SPIN) as f64 / t / 1e9
}

/// GB/s of one summing pass over `buf`.
fn stream_gbs(buf: &[f32]) -> f64 {
    let add = |s: [f32; 16], c: &[f32]| std::array::from_fn(|l| s[l] + c[l]);
    let t = secs(5, |_| buf.chunks_exact(16).fold([0.0; 16], add));
    std::mem::size_of_val(buf) as f64 / t / 1e9
}

type Entry = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// One table cell: `gemm` at `(m, k, n)`, its `i`-th call on
/// `mats[i % mats.len()]` into the first `out` floats of its row's buffer.
struct Cell<'a> {
    row: usize,
    gemm: Entry,
    mkn: (usize, usize, usize),
    mats: Vec<&'a [f32]>,
    out: usize,
    /// Calls a sample, and calls made so far.
    calls: usize,
    made: usize,
    samples: Vec<f64>,
}

impl<'a> Cell<'a> {
    fn new(
        row: usize,
        gemm: Entry,
        mkn: (usize, usize, usize),
        mats: Vec<&'a [f32]>,
        out: usize,
    ) -> Self {
        let (calls, made, samples) = (1, 0, Vec::new());
        Cell {
            row,
            gemm,
            mkn,
            mats,
            out,
            calls,
            made,
            samples,
        }
    }

    /// Seconds of the next `calls` calls.
    fn sample(&mut self, pool: &[f32], out: &mut [f32], calls: usize) -> f64 {
        let ((m, k, n), a) = (self.mkn, &pool[..self.mkn.0 * self.mkn.1]);
        let c = &mut out[..self.out];
        let t = Instant::now();
        for i in self.made..self.made + calls {
            (self.gemm)(a, self.mats[i % self.mats.len()], c, m, k, n);
        }
        black_box(c);
        self.made += calls;
        t.elapsed().as_secs_f64()
    }
}

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let [d_hidden, mib, reps] = [[1024, 352, 12], [256, 16, 4]][ctx.smoke as usize];
    let pool: Vec<f32> = (0..mib << 18).map(|i| (i % 23) as f32 - 11.5).collect();
    let (peak, dram) = (fma_peak_gflops(), stream_gbs(&pool));
    let l2 = stream_gbs(&pool[..1 << 18]);
    println!("one core: FMA peak {peak:.1} GFLOP/s; stream {dram:.1} GB/s over {mib} MiB, {l2:.1} over 1 MiB");
    let entries = [
        ("matmul", matmul as Entry),
        ("bt_acc", matmul_bt_acc),
        ("at_acc", matmul_at_acc),
    ];
    let ms = [1usize, 4, 8, 32, 128];
    // (model, hidden, vocab): `T` and `D` at four shapes and every entry
    let mut rows: Vec<(Vec<String>, Vec<f32>)> = Vec::new();
    let mut cells = Vec::new();
    for (model, h, v) in [("T", 128, 512), ("D", d_hidden, 2048)] {
        let mut cfg = GptConfig::tiny(ArchKind::Llama, v);
        cfg.hidden = h;
        let f = cfg.mlp_hidden();
        for (k, n) in [(h, h), (h, f), (f, h), (h, v)] {
            let fresh = if model == "T" { 1 } else { usize::MAX }; // `D` walks the pool
            let mats: Vec<&[f32]> = pool.chunks_exact(k * n).take(fresh).collect();
            for (entry, gemm) in entries {
                // `at_acc`'s `b` is the `[m, n]` after `a`; its output stays
                let at = entry == "at_acc";
                let out = |m: usize| if at { k * n } else { m * n };
                let label = [model, entry, &format!("{k}x{n}")].map(String::from);
                rows.push((label.to_vec(), vec![0.0; out(ms[ms.len() - 1])]));
                cells.extend(ms.map(|m| {
                    let b = if at {
                        vec![&pool[m * k..][..m * n]]
                    } else {
                        mats.clone()
                    };
                    Cell::new(rows.len() - 1, gemm, (m, k, n), b, out(m))
                }));
            }
        }
    }
    // `S`'s whole weight set, `[h, h]` at a time, through `matmul`
    let (mut s_cfg, h) = (GptConfig::tiny(ArchKind::Llama, 256), 128);
    s_cfg.hidden = h;
    let weights = &pool[..matgpt_model::count::total_params(&s_cfg)];
    let mats: Vec<&[f32]> = weights.chunks_exact(h * h).collect();
    let label = ["S", "matmul", &format!("{} x {h}x{h}", mats.len())].map(String::from);
    rows.push((label.to_vec(), vec![0.0; ms[ms.len() - 1] * h]));
    cells.extend(ms.map(|m| Cell::new(rows.len() - 1, matmul, (m, h, h), mats.clone(), m * h)));

    // one warm call a cell sizes its samples, then `reps` rounds
    for cell in cells.iter_mut() {
        let once = cell.sample(&pool, &mut rows[cell.row].1, 1);
        cell.calls = ((SAMPLE_SECS / once.max(1e-9)).ceil() as usize).max(1);
    }
    for _ in 0..reps {
        for cell in cells.iter_mut() {
            let t = cell.sample(&pool, &mut rows[cell.row].1, cell.calls);
            cell.samples.push(t / cell.calls as f64);
        }
    }
    let giga = |x: usize, t: f64| x as f64 / t / 1e9;
    let mut table: Vec<Vec<String>> = rows.into_iter().map(|(label, _)| label).collect();
    for mut cell in cells {
        cell.samples.sort_by(f64::total_cmp);
        let (t, (m, k, n)) = (cell.samples[reps / 4], cell.mkn);
        let (flop, bytes) = (2 * m * k * n, 4 * (m * k + k * n + m * n));
        table[cell.row].push(format!("{:.1} / {:.1}", giga(flop, t), giga(bytes, t)));
    }
    let mut head = vec!["model".to_string(), "entry".into(), "k x n".into()];
    head.extend(ms.map(|m| format!("m={m}: GFLOP/s / GB/s")));
    print_table("GEMM entries against the measured roofline", &head, &table);
    Ok(())
}
