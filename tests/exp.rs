//! The repo-owned `exp` (`matgpt_tensor::kernels::exp`) against the
//! host libm's `f32::exp`, bit for bit, on 2^24 bit patterns strided
//! over all 2^32 and on the special inputs. The claim is that the
//! repo's exp is glibc's FMA `expf`, so it is held only where the host
//! libm runs that: glibc on x86-64, whose ifunc picks the FMA build only
//! where both FMA and AVX2 are usable (a host with FMA but no AVX2 gets
//! the SSE2 build, which rounds two inputs differently). Elsewhere the
//! test says so and checks nothing; `kernels::exp`'s own tests hold the
//! function to an f64 oracle everywhere.

use matgpt_tensor::kernels::exp::{exp, exp_slice};

fn host_libm_is_glibc_fma() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    return std::arch::is_x86_feature_detected!("fma")
        && std::arch::is_x86_feature_detected!("avx2");
    #[allow(unreachable_code)]
    false
}

#[test]
fn exp_equals_host_expf_on_strided_and_special_inputs() {
    if !host_libm_is_glibc_fma() {
        eprintln!("skipped: the host libm is not glibc's x86-64 FMA build (FMA + AVX2)");
        return;
    }
    let specials = [
        0.0f32,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        88.0,
        -88.0,
        88.72283,
        88.72284,
        -88.72283,
        -103.97207,
        -103.97208,
        -103.27892,
        -103.27893,
        -87.5,
        -95.0,
        -100.0,
        -103.0,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
    ];
    // 2^24 patterns 256 apart, offset so every exponent and sign is
    // visited with a different low byte
    let strided = (0..1u32 << 24).map(|i| f32::from_bits(i << 8 | (i & 0xff)));
    let xs: Vec<f32> = specials.into_iter().chain(strided).collect();
    let mut slice = xs.clone();
    exp_slice(&mut slice);
    for (x, s) in xs.iter().zip(&slice) {
        let want = x.exp().to_bits();
        assert_eq!(
            exp(*x).to_bits(),
            want,
            "exp({x:e}) [{:#010x}]",
            x.to_bits()
        );
        assert_eq!(
            s.to_bits(),
            want,
            "exp_slice at {x:e} [{:#010x}]",
            x.to_bits()
        );
    }
}
