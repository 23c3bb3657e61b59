//! Reduced-precision emulation.
//!
//! The engine computes in `f32`; these helpers round values to the
//! representable grid of bf16 or fp16 so training runs can emulate
//! mixed-precision weight storage — the axis behind the paper's
//! observation that "the loss curves for MatGPT 1.7B, trained with float16
//! and bfloat16, are almost identical".

use crate::param::ParamStore;

/// Storage precision to emulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// Native f32 (no rounding).
    F32,
    /// bfloat16: 8-bit exponent, 7-bit mantissa (f32 range, coarse grid).
    Bf16,
    /// IEEE half: 5-bit exponent, 10-bit mantissa (fine grid, narrow range).
    F16,
}

/// Round one value to the bf16 grid (round-to-nearest-even on the mantissa).
pub fn round_bf16(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    // round to nearest even at bit 16
    let lsb = (bits >> 16) & 1;
    let rounded = bits.wrapping_add(0x7fff + lsb);
    f32::from_bits(rounded & 0xffff_0000)
}

/// Round one value to the fp16 grid, saturating at the fp16 max and
/// flushing sub-minimal values to zero (classic fp16 hazards).
pub fn round_f16(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    const F16_MAX: f32 = 65_504.0;
    const F16_MIN_POS: f32 = 5.96e-8; // smallest subnormal
    if x.abs() > F16_MAX {
        return F16_MAX.copysign(x);
    }
    if x != 0.0 && x.abs() < F16_MIN_POS {
        return 0.0;
    }
    // decompose and round the mantissa to 10 bits
    let bits = x.to_bits();
    let exp = ((bits >> 23) & 0xff) as i32 - 127;
    if exp < -14 {
        // subnormal in fp16: quantise to multiples of 2^-24
        let q = (x / 5.960_464_5e-8).round();
        return q * 5.960_464_5e-8;
    }
    let lsb = (bits >> 13) & 1;
    let rounded = bits.wrapping_add(0xfff + lsb);
    f32::from_bits(rounded & 0xffff_e000)
}

/// Round a whole buffer in place.
pub fn round_slice(data: &mut [f32], precision: Precision) {
    match precision {
        Precision::F32 => {}
        Precision::Bf16 => {
            for v in data.iter_mut() {
                *v = round_bf16(*v);
            }
        }
        Precision::F16 => {
            for v in data.iter_mut() {
                *v = round_f16(*v);
            }
        }
    }
}

/// Round every parameter of a store to the precision grid (the "weights
/// are stored in 16 bits" part of mixed-precision training).
pub fn round_store(store: &mut ParamStore, precision: Precision) {
    if precision == Precision::F32 {
        return;
    }
    store.for_each_param(|_, value, _| {
        round_slice(value.data_mut(), precision);
    });
}

/// Snapshot all parameter values (the fp32 "master weights" of a
/// mixed-precision step).
pub fn snapshot_values(store: &ParamStore) -> Vec<Vec<f32>> {
    store
        .ids()
        .map(|id| store.value(id).data().to_vec())
        .collect()
}

/// Restore parameter values from a snapshot taken with
/// [`snapshot_values`].
pub fn restore_values(store: &mut ParamStore, snapshot: &[Vec<f32>]) {
    let ids: Vec<_> = store.ids().collect();
    assert_eq!(ids.len(), snapshot.len(), "snapshot shape mismatch");
    for (id, saved) in ids.into_iter().zip(snapshot.iter()) {
        store.value_mut(id).data_mut().copy_from_slice(saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_grid_properties() {
        // idempotent
        for &x in &[0.0f32, 1.0, -3.25, 1e-20, 1e20, 0.1] {
            let r = round_bf16(x);
            assert_eq!(round_bf16(r), r, "{x}");
        }
        // 1.0 and powers of two are exact
        assert_eq!(round_bf16(1.0), 1.0);
        assert_eq!(round_bf16(-0.5), -0.5);
        // relative error bounded by 2^-8
        for &x in &[0.1f32, 3.15159, 123.456, 9.9e-5] {
            let r = round_bf16(x);
            assert!(((r - x) / x).abs() < 1.0 / 256.0, "{x} -> {r}");
        }
    }

    #[test]
    fn f16_grid_properties() {
        assert_eq!(round_f16(1.0), 1.0);
        // saturation at fp16 max
        assert_eq!(round_f16(1e6), 65_504.0);
        assert_eq!(round_f16(-1e6), -65_504.0);
        // tiny values flush toward the subnormal grid
        assert_eq!(round_f16(1e-9), 0.0);
        // relative error bounded by 2^-11 in the normal range
        for &x in &[0.1f32, 3.15159, 100.25] {
            let r = round_f16(x);
            assert!(((r - x) / x).abs() < 1.0 / 2048.0, "{x} -> {r}");
        }
    }

    #[test]
    fn f16_is_finer_than_bf16_in_range() {
        // fp16 has 10 mantissa bits vs bf16's 7: for in-range values the
        // fp16 error is smaller
        let mut worse = 0;
        for i in 1..100 {
            let x = 0.001 * i as f32 + 0.01;
            let eb = (round_bf16(x) - x).abs();
            let ef = (round_f16(x) - x).abs();
            if ef > eb {
                worse += 1;
            }
        }
        assert!(worse < 5, "fp16 should be finer in range: {worse}");
    }

    #[test]
    fn round_store_applies_grid() {
        use crate::tensor::Tensor;
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::from_vec(&[3], vec![0.1234567, 1e-9, 1e8]));
        round_store(&mut s, Precision::F16);
        let d = s.value(id).data();
        assert_eq!(d[1], 0.0, "flush to zero");
        assert_eq!(d[2], 65_504.0, "saturate");
        assert_ne!(d[0], 0.1234567, "rounded");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        use crate::tensor::Tensor;
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::from_vec(&[2], vec![1.5, -2.5]));
        let snap = snapshot_values(&s);
        s.value_mut(id).data_mut().copy_from_slice(&[9.0, 9.0]);
        restore_values(&mut s, &snap);
        assert_eq!(s.value(id).data(), &[1.5, -2.5]);
    }

    #[test]
    fn f32_mode_is_identity() {
        let mut data = vec![0.12345678f32, -9.87e-20];
        let orig = data.clone();
        round_slice(&mut data, Precision::F32);
        assert_eq!(data, orig);
    }
}
