//! Extension: the three GEMM entries against a *measured* host roofline —
//! one core's FMA peak and stream rate — at the shapes of the benchmark's
//! training model `T` (one resident matrix) and serving model `D` (a fresh
//! matrix per call from a pool larger than the caches; `at_acc`'s big
//! operand is its output, which stays). Measured, not asserted.

use super::Ctx;
use crate::print_table;
use matgpt_model::{ArchKind, GptConfig};
use matgpt_tensor::kernels::matmul::{matmul, matmul_at_acc, matmul_bt_acc};
use std::{hint::black_box, time::Instant};

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

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let [d_hidden, mib, max_reps] = [[1024, 352, 24], [256, 16, 4]][ctx.smoke as usize];
    let pool: Vec<f32> = (0..mib << 18).map(|i| (i % 23) as f32 - 11.5).collect();
    let (peak, dram) = (fma_peak_gflops(), stream_gbs(&pool));
    let l2 = stream_gbs(&pool[..1 << 18]);
    println!("one core: FMA peak {peak:.1} GFLOP/s; stream {dram:.1} GB/s over {mib} MiB, {l2:.1} over 1 MiB");
    let fns = [matmul as Entry, matmul_bt_acc, matmul_at_acc];
    let ms = [1usize, 4, 8, 32, 128];
    let giga = |x: usize, t: f64| x as f64 / t / 1e9;
    let mut rows = Vec::new();
    for (model, h, v) in [("T", 128, 512), ("D", d_hidden, 2048)] {
        let mut cfg = GptConfig::tiny(ArchKind::Llama, v);
        cfg.hidden = h;
        let f = cfg.mlp_hidden();
        for (k, n) in [(h, h), (h, f), (f, h), (h, v)] {
            let fresh = if model == "T" { 1 } else { usize::MAX }; // `D` walks the pool
            let mats: Vec<&[f32]> = pool.chunks_exact(k * n).take(fresh).collect();
            let reps = mats.len().clamp(4, max_reps);
            for (entry, gemm) in ["matmul", "bt_acc", "at_acc"].into_iter().zip(fns) {
                let mut row = vec![model.to_string(), entry.to_string(), format!("{k}x{n}")];
                for m in ms {
                    let (a, d, at) = (&pool[..m * k], &pool[m * k..][..m * n], entry == "at_acc");
                    let mut c = vec![0.0f32; if at { k * n } else { m * n }];
                    let b = |i: usize| if at { d } else { mats[i % mats.len()] };
                    let t = secs(reps, |i| gemm(a, b(i), &mut c, m, k, n));
                    let (flop, bytes) = (2 * m * k * n, 4 * (m * k + k * n + m * n));
                    row.push(format!("{:.1} / {:.1}", giga(flop, t), giga(bytes, t)));
                }
                rows.push(row);
            }
        }
    }
    let mut head = vec!["model".to_string(), "entry".into(), "k x n".into()];
    head.extend(ms.map(|m| format!("m={m}: GFLOP/s / GB/s")));
    print_table("GEMM entries against the measured roofline", &head, &rows);
    Ok(())
}
