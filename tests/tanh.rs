//! The repo-owned `tanh` (`matgpt_tensor::kernels::tanh`) against the
//! host libm's `f32::tanh`, bit for bit, on 2^24 bit patterns strided
//! over all 2^32 and on the inputs where `tanhf` or its `expm1f` change
//! branch. The claim is that the repo's tanh is glibc's `tanhf`, and it
//! has been checked on all 2^32 inputs only against the glibc releases
//! in `VERIFIED_GLIBC`, so it is held only there: later releases took
//! CORE-MATH's correctly rounded float functions. Elsewhere the test says
//! so and checks nothing; `kernels::tanh`'s own tests hold the function
//! to an f64 oracle everywhere.

use matgpt_tensor::kernels::tanh::{tanh, tanh_slice};

/// The glibc releases whose `tanhf` the repo's `tanh` has been checked
/// against on all 2³² inputs: a host comparison means something only
/// there (later releases took CORE-MATH's correctly rounded float
/// functions).
const VERIFIED_GLIBC: &[&str] = &["2.36"];

/// The version of the glibc this process runs on, `None` off glibc.
fn glibc_version() -> Option<String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn gnu_get_libc_version() -> *const std::ffi::c_char;
        }
        // SAFETY: glibc returns a pointer to a static NUL-terminated string
        let v = unsafe { std::ffi::CStr::from_ptr(gnu_get_libc_version()) };
        Some(v.to_string_lossy().into_owned())
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    None
}

/// Whether the host's `f32::tanh` is a `tanhf` the repo's `tanh` was
/// checked against on all 2³² inputs (glibc 2.36); when it is not, says
/// so on stderr.
fn host_tanhf_is_verified() -> bool {
    let version = glibc_version();
    let ok = version
        .as_deref()
        .is_some_and(|v| VERIFIED_GLIBC.contains(&v));
    if !ok {
        eprintln!(
            "skipped: host libm is {}, not a glibc whose tanhf was verified ({VERIFIED_GLIBC:?})",
            version.map_or("not glibc".into(), |v| format!("glibc {v}"))
        );
    }
    ok
}

#[test]
fn tanh_equals_host_tanhf_on_strided_and_edge_inputs() {
    if !host_tanhf_is_verified() {
        return;
    }
    let bits = |b: u32| f32::from_bits(b);
    let mut edges = vec![
        0.0f32,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        bits(1),
    ];
    // |x| = 2^-55, 1 and 22 (tanhf), and x where expm1f's argument 2|x|
    // crosses 0.5 ln 2, 1.5 ln 2 and 2^-25, each with its neighbours
    for b in [
        0x2400_0000u32,
        0x3f80_0000,
        0x41b0_0000,
        0x3e31_7218,
        0x3f05_1592,
        0x3280_0000,
    ] {
        for n in [b - 1, b, b + 1] {
            edges.push(bits(n));
            edges.push(-bits(n));
        }
    }
    // 2^24 patterns 256 apart, offset so every exponent and sign is
    // visited with a different low byte
    let strided = (0..1u32 << 24).map(|i| f32::from_bits(i << 8 | (i & 0xff)));
    let xs: Vec<f32> = edges.into_iter().chain(strided).collect();
    let mut slice = xs.clone();
    tanh_slice(&mut slice);
    for (x, s) in xs.iter().zip(&slice) {
        let want = x.tanh().to_bits();
        assert_eq!(
            tanh(*x).to_bits(),
            want,
            "tanh({x:e}) [{:#010x}]",
            x.to_bits()
        );
        assert_eq!(
            s.to_bits(),
            want,
            "tanh_slice at {x:e} [{:#010x}]",
            x.to_bits()
        );
    }
}
