//! What the kernels' tests need to hold a repo-owned transcendental to
//! the host libm, or to an f64 oracle: which libm the process runs on,
//! and the distance between two f32 in units in the last place.

/// The glibc releases whose float functions the repo's `tanh`, `ln`,
/// `sin` and `cos` have been checked against on every input they are
/// held to: a host comparison means something only there (later
/// releases took CORE-MATH's correctly rounded float functions).
pub const VERIFIED_GLIBC: &[&str] = &["2.36"];

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

/// Whether the host libm is a glibc in [`VERIFIED_GLIBC`]; when it is
/// not, says so on stderr.
pub fn is_verified_glibc() -> bool {
    let version = glibc_version();
    let ok = version
        .as_deref()
        .is_some_and(|v| VERIFIED_GLIBC.contains(&v));
    if !ok {
        eprintln!(
            "skipped: host libm is {}, not a verified glibc ({VERIFIED_GLIBC:?})",
            version.map_or("not glibc".into(), |v| format!("glibc {v}"))
        );
    }
    ok
}

/// Whether the host libm runs glibc's x86-64 FMA builds of the float
/// functions, which it selects where FMA and AVX2 are both usable; when
/// it does not, says so on stderr.
pub fn is_glibc_fma_build() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    let fma = is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2");
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    let fma = false;
    if !fma {
        eprintln!("skipped: the host libm is not glibc's x86-64 FMA build (FMA + AVX2)");
    }
    fma
}

/// How many f32 lie between `a` and `b`, counting one of the two (0 if
/// they are equal, `+0` and `−0` one apart).
pub fn ulp_distance(a: f32, b: f32) -> u32 {
    let key = |v: f32| {
        let b = v.to_bits() as i64;
        if b < 0x8000_0000 {
            b
        } else {
            0x8000_0000 - b
        }
    };
    (key(a) - key(b)).unsigned_abs() as u32
}
