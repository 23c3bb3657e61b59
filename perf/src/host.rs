//! What the harness asks of the host: a one-worker rayon pool, a
//! fingerprint of the machine, a calibration spin that tells a moved
//! host from a moved metric, the stream rate that gives `tpot_ms` its
//! roofline, and the process's peak resident set.

use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

/// Bytes in a MiB, as the divisor of every `*_mib` metric.
pub const MIB: f64 = (1u64 << 20) as f64;

/// Words in the affinity masks passed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU affinity mask.
pub fn affinity() -> Option<CpuMask> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte length passed,
    // the kernel only reads it, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// Bring up the rayon-shim pool with exactly one worker and return the
/// worker count.
///
/// The shim sizes its pool once, from `available_parallelism()` at the
/// first parallel call, and runs everything inline on the caller when
/// that count is 1. So the first call is made here under a one-CPU
/// affinity mask, which is then restored: every later `par_iter` in
/// `tensor`, `model` and `serve` runs on the thread that called it, and
/// the process never has more runnable threads than the workload's own
/// (scheduler or two training workers). With two pool workers on two
/// vCPUs the same 20 ms unit repeated its median within 5 % instead of
/// 1.4 %.
pub fn init_single_worker_pool() -> usize {
    let Some(saved) = affinity() else {
        return rayon::current_num_threads();
    };
    let mut one = [0u64; MASK_WORDS];
    if let Some((word, bits)) = saved.iter().enumerate().find(|(_, w)| **w != 0) {
        one[word] = 1u64 << bits.trailing_zeros();
    }
    let narrowed = set_affinity(&one);
    let workers = rayon::current_num_threads();
    if narrowed {
        assert!(set_affinity(&saved), "restore the CPU affinity mask");
    }
    workers
}

/// FMA passes over the calibration buffer; ~10 ms on the reference box.
const CALIB_PASSES: usize = 600_000;
/// Calibration buffer length: 2 KiB of f32, resident in L1.
const CALIB_LEN: usize = 512;

/// Cache-line aligned: an `[f32; N]` on the stack is only 4-aligned and
/// ASLR moves it, and when its vectors straddle cache lines the same
/// spin takes 2.3x as long for the whole life of the process.
#[repr(align(64))]
struct CalibBuf([f32; CALIB_LEN]);

/// What the spin takes on the reference box while nothing else has its
/// core: the host speed every end-to-end timing is stated at.
pub const CALIB_REFERENCE_MS: f64 = 10.0;
/// Timed work between two spins: a 30 s run collects fifty to a hundred
/// of them and spends under 4 % of its time on them.
pub const CALIB_EVERY: Duration = Duration::from_millis(250);

/// How many times slower than the reference box the host ran: the
/// undisturbed spin of the run over the reference.
///
/// The vCPUs share their cores with other guests, and a neighbour that
/// stays for minutes slows every unit of a run, the fastest ones too.
/// Over ten back-to-back runs of `dram_batch`, five of them beside such
/// a neighbour, the undisturbed spin read 9.9-10.4 ms and then
/// 13.4-14.8, and the undisturbed train step, wave, first token and
/// token gap spread 29 / 32 / 23 / 38 % of their median between the
/// quartiles; on `paged_prefix` 37 / 20 / 18 / 27 %. No quantile of one
/// run removes what lasts longer than the run. Divided by this factor
/// the same runs spread 6 / 6 / 12 / 4 % and 9 / 4 / 4 / 7 %, and on
/// quiet runs 1-6 % with it or without. So end-to-end timings are
/// divided by it and rates multiplied by it. The spin is the harness's
/// own code: a faster product still reads faster against it.
pub fn slowdown(calib_ms: &[f64]) -> f64 {
    let spin = crate::stats::undisturbed(calib_ms);
    if spin > 0.0 {
        spin / CALIB_REFERENCE_MS
    } else {
        1.0
    }
}

/// A fixed amount of L1-resident single-thread FMA work, in
/// milliseconds. It touches no shared cache and no DRAM, so when it
/// moves between two runs the host moved, not the product.
pub fn calibration_spin_ms() -> f64 {
    let mut buf = CalibBuf([1.0f32; CALIB_LEN]);
    let t0 = Instant::now();
    for pass in 0..CALIB_PASSES {
        let k = black_box(1.0 + (pass & 1) as f32 * 1e-7);
        for x in buf.0.iter_mut() {
            *x = x.mul_add(k, 1e-9);
        }
    }
    black_box(&buf.0);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Seconds of one read pass over `buf`, sixteen independent accumulators
/// so the loop vectorises and is bound by the memory system rather than
/// by the add latency.
pub fn stream_pass_secs(buf: &[f32]) -> f64 {
    let t0 = Instant::now();
    let mut acc = [0.0f32; 16];
    for chunk in buf.chunks_exact(16) {
        for (a, &x) in acc.iter_mut().zip(chunk) {
            *a += x;
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / MIB)
}

/// The 1-minute load average, or -1 when the host does not expose it.
fn load_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Where a result was measured. Results are comparable only between
/// equal fingerprints (and `load_1m` says how busy the host already was).
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub avx2: bool,
    pub avx512f: bool,
    pub avx512_vnni: bool,
    /// `(level/type, size)` per cache of CPU 0, e.g. `("L2 Unified", "4096K")`.
    pub caches: Vec<(String, String)>,
    pub load_1m: f64,
    pub git_head: String,
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Fingerprint {
    pub fn collect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        };
        let flags = field("flags").unwrap_or_default();
        let has = |f: &str| flags.split_whitespace().any(|x| x == f);
        let mut caches = Vec::new();
        for idx in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
            let read = |f: &str| {
                std::fs::read_to_string(format!("{dir}/{f}"))
                    .ok()
                    .map(|s| s.trim().to_string())
            };
            let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                break;
            };
            caches.push((format!("L{level} {kind}"), size));
        }
        Self {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model: field("model name").unwrap_or_else(|| "not reported".into()),
            avx2: has("avx2"),
            avx512f: has("avx512f"),
            avx512_vnni: has("avx512_vnni"),
            caches,
            load_1m: load_1m(),
            // the driver's checkout is an export, not a repository
            git_head: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "not a git checkout".into()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "rustc not on PATH".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_pool_leaves_the_affinity_mask_restored() {
        let before = affinity().expect("affinity readable");
        let workers = init_single_worker_pool();
        let after = affinity().expect("affinity readable");
        assert_eq!(before, after, "mask must be restored");
        assert_eq!(workers, 1, "pool sized under a one-CPU mask");
        assert_eq!(rayon::current_num_threads(), 1, "pool size is fixed once");
    }

    #[test]
    fn stream_pass_takes_measurable_time() {
        let buf = vec![1.0f32; 1 << 16];
        assert!(stream_pass_secs(&buf) > 0.0);
    }

    #[test]
    fn calibration_spin_takes_measurable_time() {
        assert!(calibration_spin_ms() > 0.0);
    }

    #[test]
    fn slowdown_is_the_undisturbed_spin_over_the_reference() {
        assert_eq!(slowdown(&[]), 1.0);
        assert_eq!(slowdown(&[CALIB_REFERENCE_MS; 40]), 1.0);
        // a neighbour that comes and goes moves nothing
        let mut on_off = vec![CALIB_REFERENCE_MS; 20];
        on_off.extend([17.0; 20]);
        assert_eq!(slowdown(&on_off), 1.0);
        // one that stays for the whole run does
        assert_eq!(slowdown(&[15.0; 40]), 1.5);
    }
}
