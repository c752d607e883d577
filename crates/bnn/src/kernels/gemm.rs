//! The `PopcountGemm` backend trait: bit-sliced XNOR-GEMM blocks.
//!
//! Every packed convolution interior, at every batch size, runs as a
//! matrix product over GF(2)-packed words (see
//! `packed::xnor_conv_gemm_levels`): the **A** matrix holds each
//! filter's receptive-field bits densely repacked to `kwords` `u64`s
//! per filter (one row per filter × residual level), and the **B**
//! matrix holds `np` output pixels' densely repacked input windows —
//! pixels of one clip or of several — laid out column-major by
//! reduction word (`b[j*np + p]`) so one SIMD load covers consecutive
//! pixels.  A GEMM "block" computes
//!
//! ```text
//! acc[f*np + p] += Σ_{j < kwords} popcount(a[f*kwords + j] ^ b[j*np + p])
//! ```
//!
//! for a small filter block `fb ≤ 4` — the mismatch counts that the
//! caller's epilogue turns into `±1` dot products and fuses with the
//! per-channel affine/sign finalize.
//!
//! The trait's default [`PopcountGemm::gemm_block`] is the plain
//! scalar triple loop, which the scalar backend uses as-is.  AVX2,
//! AVX-512 and NEON override it with register-blocked microkernels
//! that hold all `2·fb` vector accumulators in registers across the
//! whole `kwords` reduction.
//!
//! Backend selection piggybacks on [`KernelBackend`]: [`gemm_backend`]
//! maps the dispatched backend to its GEMM counterpart, so
//! `HOTSPOT_KERNEL_BACKEND` forces the GEMM microkernel together with
//! the other kernels and the bit-identity property tests cover the
//! GEMM path for every backend.

use super::KernelBackend;

/// A popcount-GEMM implementation (one per [`KernelBackend`]).
///
/// All implementations compute identical integer counts; the property
/// tests in this module compare every available backend against a
/// plain triple loop.
pub trait PopcountGemm: Sync + Send {
    /// The kernel backend this GEMM implementation belongs to.
    fn backend(&self) -> KernelBackend;

    /// `acc[f*np + p] += Σ_{j < kwords} popcount(a[f*kwords + j] ^
    /// b[j*np + p])` for `f < fb`.
    ///
    /// `fb` must be in `1..=4`; `acc` must hold at least `fb * np`
    /// elements, `a` at least `fb * kwords`, and `b` at least
    /// `kwords * np`.
    ///
    /// # Panics
    ///
    /// Panics (debug) when a slice is shorter than the bounds above.
    fn gemm_block(
        &self,
        acc: &mut [i32],
        fb: usize,
        a: &[u64],
        b: &[u64],
        np: usize,
        kwords: usize,
    ) {
        debug_assert!((1..=4).contains(&fb));
        debug_assert!(acc.len() >= fb * np);
        debug_assert!(a.len() >= fb * kwords);
        debug_assert!(b.len() >= kwords * np);
        for f in 0..fb {
            let af = &a[f * kwords..(f + 1) * kwords];
            for (p, out) in acc[f * np..(f + 1) * np].iter_mut().enumerate() {
                let mut s = 0u32;
                for (j, &w) in af.iter().enumerate() {
                    s += (w ^ b[j * np + p]).count_ones();
                }
                *out += s as i32;
            }
        }
    }
}

/// Reference GEMM: the trait's scalar default.
pub struct ScalarGemm;
impl PopcountGemm for ScalarGemm {
    fn backend(&self) -> KernelBackend {
        KernelBackend::Scalar
    }
}

/// AVX2 GEMM: register-blocked microkernel (8 px × ≤4 filters).
#[cfg(target_arch = "x86_64")]
pub struct Avx2Gemm;
#[cfg(target_arch = "x86_64")]
impl PopcountGemm for Avx2Gemm {
    fn backend(&self) -> KernelBackend {
        KernelBackend::Avx2
    }

    fn gemm_block(
        &self,
        acc: &mut [i32],
        fb: usize,
        a: &[u64],
        b: &[u64],
        np: usize,
        kwords: usize,
    ) {
        // SAFETY: this struct is only handed out by `gemm_backend` for
        // a backend that passed `is_supported()` (AVX2 detected).
        unsafe { super::x86::gemm_block_avx2(acc, fb, a, b, np, kwords) }
    }
}

/// AVX-512 GEMM: native `vpopcntdq` microkernel (16 px × ≤4 filters).
#[cfg(target_arch = "x86_64")]
pub struct Avx512Gemm;
#[cfg(target_arch = "x86_64")]
impl PopcountGemm for Avx512Gemm {
    fn backend(&self) -> KernelBackend {
        KernelBackend::Avx512
    }

    fn gemm_block(
        &self,
        acc: &mut [i32],
        fb: usize,
        a: &[u64],
        b: &[u64],
        np: usize,
        kwords: usize,
    ) {
        // SAFETY: see `Avx2Gemm` — AVX-512F + AVX-512VPOPCNTDQ detected.
        unsafe { super::avx512::gemm_block_avx512(acc, fb, a, b, np, kwords) }
    }
}

/// NEON GEMM: `vcntq_u8` microkernel (4 px × ≤4 filters).
#[cfg(target_arch = "aarch64")]
pub struct NeonGemm;
#[cfg(target_arch = "aarch64")]
impl PopcountGemm for NeonGemm {
    fn backend(&self) -> KernelBackend {
        KernelBackend::Neon
    }

    fn gemm_block(
        &self,
        acc: &mut [i32],
        fb: usize,
        a: &[u64],
        b: &[u64],
        np: usize,
        kwords: usize,
    ) {
        // SAFETY: NEON is baseline on AArch64.
        unsafe { super::neon::gemm_block_neon(acc, fb, a, b, np, kwords) }
    }
}

/// The GEMM implementation for a dispatched backend.
///
/// Total over all [`KernelBackend`] values; variants compiled out on
/// this architecture fall back to the scalar reference (they can never
/// be dispatched anyway, since `is_supported()` is false for them).
pub fn gemm_backend(backend: KernelBackend) -> &'static dyn PopcountGemm {
    match backend {
        KernelBackend::Scalar => &ScalarGemm,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 => &Avx2Gemm,
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => &Avx512Gemm,
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => &NeonGemm,
        #[allow(unreachable_patterns)]
        _ => &ScalarGemm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s ^ (s >> 31)
            })
            .collect()
    }

    /// Plain triple-loop reference for `gemm_block`.
    fn reference(acc: &mut [i32], fb: usize, a: &[u64], b: &[u64], np: usize, kwords: usize) {
        for f in 0..fb {
            for p in 0..np {
                let mut s = 0u32;
                for j in 0..kwords {
                    s += (a[f * kwords + j] ^ b[j * np + p]).count_ones();
                }
                acc[f * np + p] += s as i32;
            }
        }
    }

    #[test]
    fn gemm_backends_match_reference() {
        // np values cover the vector widths and every tail length
        // (16/8/4/2-lane main loops plus 1..3 scalar remainders) and
        // the full GEMM tile and one short of it; kwords covers the
        // dense reduction depths of the paper net (c=1 stem: 1; c=8,
        // 3×3: 2; c=64, 3×3: 9) plus words either side of 8 and 16.
        for &np in &[
            1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 1023, 1024,
        ] {
            for &kwords in &[1usize, 2, 3, 5, 7, 8, 9, 16, 17] {
                for fb in 1..=4usize {
                    let a = words(fb as u64 * 31 + kwords as u64, fb * kwords);
                    let b = words(np as u64 * 7 + 1, kwords * np);
                    let mut expect = vec![3i32; fb * np];
                    reference(&mut expect, fb, &a, &b, np, kwords);
                    for backend in KernelBackend::available() {
                        let gemm = gemm_backend(backend);
                        assert_eq!(gemm.backend(), backend);
                        let mut acc = vec![3i32; fb * np];
                        gemm.gemm_block(&mut acc, fb, &a, &b, np, kwords);
                        assert_eq!(
                            acc,
                            expect,
                            "{} np={np} kwords={kwords} fb={fb}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_backend_is_total_over_all_backends() {
        for backend in KernelBackend::ALL {
            // Must not panic even for unsupported/foreign backends.
            let _ = gemm_backend(backend);
        }
    }
}
