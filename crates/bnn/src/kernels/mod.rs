//! Runtime-dispatched XNOR+popcount kernels.
//!
//! Every packed convolution runs one engine (see `packed.rs`): its
//! interior is a bit-sliced XNOR-GEMM — each output pixel's receptive
//! field densely repacked as a B-matrix column, each filter's weights
//! as an A-matrix row — driven through the [`gemm::PopcountGemm`]
//! microkernel of the dispatched backend, at every batch size.  The
//! thin border outside the interior rectangle takes a bounds-checked
//! scalar path.  Besides the GEMM block, each backend provides
//! [`xor_popcount`] (total mismatch count between two equal-length
//! word spans) and, where it pays, the fused affine + sign-pack pass
//! [`pack_affine_mean`].
//!
//! Four implementations exist, selected **once** per
//! [`ExecPlan`](crate::plan::ExecPlan) compile (not per call):
//!
//! * [`KernelBackend::Scalar`] — the always-correct reference:
//!   one-word-at-a-time `u64::count_ones` (compiles to hardware
//!   `popcnt` where available); its GEMM block is the plain triple
//!   loop.
//! * [`KernelBackend::Avx2`] — Muła `pshufb` nibble-lookup popcount on
//!   256-bit lanes, four `u64` words per vector (x86-64, gated by
//!   `is_x86_feature_detected!`).
//! * [`KernelBackend::Avx512`] — native per-lane popcount
//!   (`vpopcntdq`) on 512-bit lanes, eight `u64` words per vector;
//!   requires both `avx512f` and `avx512vpopcntdq`.
//! * [`KernelBackend::Neon`] — AArch64 `vcntq_u8` byte popcount with
//!   pairwise widening reduction, two `u64` words per vector.
//!
//! All backends compute identical integer counts, so every backend
//! produces **bit-identical logits** (enforced by the
//! `kernel_backends_*` / `plan_*backends*` property tests).
//! [`active_backend`] picks the best supported backend at first use;
//! the `HOTSPOT_KERNEL_BACKEND` environment variable
//! (`scalar`/`avx2`/`avx512`/`neon`) overrides the choice for
//! benchmarking and CI equivalence runs.  Any other value — including
//! the retired `swar` and `ssse3` spellings — falls back to
//! auto-detection through a `kernels.backend_fallback` event.

#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod gemm;
pub mod geom;
#[cfg(target_arch = "aarch64")]
mod neon;
mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use gemm::{gemm_backend, PopcountGemm};
pub use geom::ConvGeometry;

use std::sync::OnceLock;

/// One of the compiled-in XNOR kernel implementations (see module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// One-word-at-a-time reference loop.
    Scalar,
    /// AVX2 nibble-lookup popcount, 4 `u64` words per vector
    /// (x86-64 only).
    Avx2,
    /// AVX-512 native `vpopcntdq` popcount, 8 `u64` words per vector
    /// (x86-64 only; needs `avx512f` + `avx512vpopcntdq`).
    Avx512,
    /// AArch64 NEON `vcntq_u8` byte popcount, 2 `u64` words per vector
    /// (aarch64 only).
    Neon,
}

impl KernelBackend {
    /// Every backend, reference first (supported on this CPU or not).
    pub const ALL: [KernelBackend; 4] = [
        KernelBackend::Scalar,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
        KernelBackend::Neon,
    ];

    /// Stable lowercase name (also the `HOTSPOT_KERNEL_BACKEND`
    /// spelling).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Neon => "neon",
        }
    }

    /// Parses a backend name as spelled by [`KernelBackend::name`].
    pub fn parse(s: &str) -> Option<KernelBackend> {
        let s = s.trim().to_ascii_lowercase();
        KernelBackend::ALL.into_iter().find(|b| b.name() == s)
    }

    /// `u64` words per vector register of this backend (reporting).
    pub fn u64_lanes(self) -> usize {
        match self {
            KernelBackend::Scalar => 1,
            KernelBackend::Neon => 2,
            KernelBackend::Avx2 => 4,
            KernelBackend::Avx512 => 8,
        }
    }

    /// Whether this backend can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelBackend::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "aarch64")]
            KernelBackend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every backend the current CPU supports, reference first.
    pub fn available() -> Vec<KernelBackend> {
        KernelBackend::ALL
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }

    /// The best supported backend on this CPU: AVX-512 > AVX2 > NEON >
    /// scalar.
    pub fn detect() -> KernelBackend {
        [
            KernelBackend::Avx512,
            KernelBackend::Avx2,
            KernelBackend::Neon,
        ]
        .into_iter()
        .find(|b| b.is_supported())
        .unwrap_or(KernelBackend::Scalar)
    }
}

/// Resolves a `HOTSPOT_KERNEL_BACKEND` override (`None` = unset) to
/// the backend to dispatch, falling back to [`KernelBackend::detect`]
/// on an unusable value.  Every fallback is reported twice: as a
/// structured `kernels.backend_fallback` telemetry event (so headless
/// runs surface the misconfiguration to whatever subscriber is
/// installed) and as a stderr line for interactive use.
fn resolve_backend(requested: Option<&str>) -> KernelBackend {
    let Some(name) = requested else {
        return KernelBackend::detect();
    };
    let fallback = |reason: &'static str| {
        let detected = KernelBackend::detect();
        hotspot_telemetry::trace::dispatch_event(
            "kernels.backend_fallback",
            &[
                ("requested", hotspot_telemetry::Value::from(name)),
                ("reason", hotspot_telemetry::Value::from(reason)),
                ("using", hotspot_telemetry::Value::from(detected.name())),
            ],
        );
        detected
    };
    match KernelBackend::parse(name) {
        Some(b) if b.is_supported() => b,
        Some(b) => {
            let detected = fallback("unsupported_on_cpu");
            eprintln!(
                "HOTSPOT_KERNEL_BACKEND={} not supported on this CPU; using {}",
                b.name(),
                detected.name()
            );
            detected
        }
        None => {
            let detected = fallback("unrecognized_value");
            eprintln!(
                "unknown HOTSPOT_KERNEL_BACKEND={name:?}; using {}",
                detected.name()
            );
            detected
        }
    }
}

/// The process-wide dispatched backend: `HOTSPOT_KERNEL_BACKEND` when
/// set to a supported backend name, otherwise [`KernelBackend::detect`]
/// — resolved once and cached.  An unrecognized or unsupported value
/// emits a `kernels.backend_fallback` telemetry event instead of being
/// silently replaced by auto-detection.
pub fn active_backend() -> KernelBackend {
    static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();
    *ACTIVE.get_or_init(|| resolve_backend(std::env::var("HOTSPOT_KERNEL_BACKEND").ok().as_deref()))
}

/// Total popcount of `x[i] ^ y[i]` over two equal-length word spans.
///
/// # Panics
///
/// Panics (debug) when the lengths differ.
#[inline]
pub fn xor_popcount(backend: KernelBackend, x: &[u64], y: &[u64]) -> u32 {
    debug_assert_eq!(x.len(), y.len());
    match backend {
        KernelBackend::Scalar => scalar::xor_popcount(x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: backends are only selected when
        // `is_x86_feature_detected!` confirmed the feature.
        KernelBackend::Avx2 => unsafe { x86::xor_popcount_avx2(x, y) },
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx512 => unsafe { avx512::xor_popcount_avx512(x, y) },
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => unsafe { neon::xor_popcount_neon(x, y) },
        // Foreign-architecture variants can never be dispatched
        // (`is_supported()` is false); keep the match total.
        #[allow(unreachable_patterns)]
        _ => scalar::xor_popcount(x, y),
    }
}

/// Backend-dispatched form of
/// [`pack_affine_mean_into`](crate::bitpack::pack_affine_mean_into):
/// the fused batch-norm affine + sign-pack + `|v|` channel-mean pass
/// that fronts every scaled packed convolution.  On AVX2/AVX-512 with
/// single-word channels (`c <= 64`) the per-pixel loop runs 8/16 f32
/// lanes wide; every other backend or layout falls through to the
/// portable loop.
///
/// Bit-exact by construction: the channel loop stays outer and
/// in-order (each pixel's mean accumulates channels ascending, as the
/// portable pass does), the vector bodies use separate multiply and
/// add (no FMA contraction), `|v|` is the same sign-bit clear, and the
/// `>= 0` compare is ordered-quiet — so packed words and mean f32s are
/// identical to the scalar reference on every input including NaN and
/// `-0.0` (covered by the `pack_affine_mean_backends_bit_identical`
/// test).
///
/// # Panics
///
/// Panics when a slice length disagrees with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn pack_affine_mean(
    backend: KernelBackend,
    item: &[f32],
    c: usize,
    h: usize,
    w: usize,
    scale: &[f32],
    shift: &[f32],
    data: &mut [u64],
    mean: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if c <= 64 && matches!(backend, KernelBackend::Avx2 | KernelBackend::Avx512) {
        let plane = h * w;
        assert_eq!(item.len(), c * plane, "source length mismatch");
        assert_eq!(data.len(), plane, "packed buffer length mismatch");
        assert_eq!(mean.len(), plane, "mean buffer length mismatch");
        assert!(
            scale.len() == c && shift.len() == c,
            "one affine per channel"
        );
        data.fill(0);
        mean.fill(0.0);
        for ci in 0..c {
            let src = &item[ci * plane..(ci + 1) * plane];
            // SAFETY: backends are only selected when
            // `is_x86_feature_detected!` confirmed the feature.
            match backend {
                KernelBackend::Avx512 => unsafe {
                    avx512::pack_affine_channel_avx512(
                        src, scale[ci], shift[ci], ci as u32, data, mean,
                    )
                },
                _ => unsafe {
                    x86::pack_affine_channel_avx2(src, scale[ci], shift[ci], ci as u32, data, mean)
                },
            }
        }
        let inv_c = 1.0 / c as f32;
        for m in mean.iter_mut() {
            *m *= inv_c;
        }
        return;
    }
    let _ = backend;
    crate::bitpack::pack_affine_mean_into(item, c, h, w, scale, shift, data, mean);
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

    /// Resolves `requested` with a collecting subscriber installed and
    /// returns the backend plus the fields of every
    /// `kernels.backend_fallback` event.  The subscriber is process
    /// global, so callers are serialized.
    fn resolve_collecting(requested: &str) -> (KernelBackend, Vec<Vec<(String, String)>>) {
        use hotspot_telemetry::{trace, CollectingSubscriber, Record};
        use std::sync::{Arc, Mutex};
        static SERIAL: Mutex<()> = Mutex::new(());
        let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());

        let sink = Arc::new(CollectingSubscriber::new());
        let prev = trace::set_subscriber(sink.clone());
        let resolved = resolve_backend(Some(requested));
        match prev {
            Some(p) => {
                trace::set_subscriber(p);
            }
            None => {
                trace::clear_subscriber();
            }
        }
        let events = sink
            .records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Event { name, fields, .. } if name == "kernels.backend_fallback" => Some(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k, format!("{v:?}")))
                        .collect(),
                ),
                _ => None,
            })
            .collect();
        (resolved, events)
    }

    fn field<'a>(fields: &'a [(String, String)], key: &str) -> &'a str {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map_or("", |(_, v)| v.as_str())
    }

    #[test]
    fn resolve_backend_reports_bad_values_via_telemetry() {
        // Unset and valid values resolve silently.
        assert_eq!(resolve_backend(None), KernelBackend::detect());
        let (resolved, events) = resolve_collecting("scalar");
        assert_eq!(resolved, KernelBackend::Scalar);
        assert!(events.is_empty(), "{events:?}");

        let (resolved, events) = resolve_collecting("quantum");
        assert_eq!(resolved, KernelBackend::detect());
        assert_eq!(events.len(), 1, "exactly one fallback event");
        assert!(
            field(&events[0], "requested").contains("quantum"),
            "{events:?}"
        );
        assert!(
            field(&events[0], "reason").contains("unrecognized_value"),
            "{events:?}"
        );
    }

    #[test]
    fn retired_backend_names_fall_back_to_detection() {
        // SWAR and SSSE3 were removed; forcing them must neither panic
        // nor silently pick something unannounced.
        for name in ["swar", "ssse3", "SSSE3"] {
            assert_eq!(KernelBackend::parse(name), None, "{name}");
            let (resolved, events) = resolve_collecting(name);
            assert_eq!(resolved, KernelBackend::detect(), "{name}");
            assert_eq!(
                events.len(),
                1,
                "{name}: one fallback event, got {events:?}"
            );
            assert!(field(&events[0], "requested").contains(name), "{events:?}");
            assert!(
                field(&events[0], "reason").contains("unrecognized_value"),
                "{events:?}"
            );
            assert!(
                field(&events[0], "using").contains(KernelBackend::detect().name()),
                "{events:?}"
            );
        }
    }

    #[test]
    fn backends_match_scalar_on_random_spans() {
        let x = words(1, 257);
        let y = words(2, 257);
        let expect = xor_popcount(KernelBackend::Scalar, &x, &y);
        for backend in KernelBackend::available() {
            for len in [0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 255, 257] {
                let e = xor_popcount(KernelBackend::Scalar, &x[..len], &y[..len]);
                assert_eq!(
                    xor_popcount(backend, &x[..len], &y[..len]),
                    e,
                    "{} len {len}",
                    backend.name()
                );
            }
            assert_eq!(xor_popcount(backend, &x, &y), expect, "{}", backend.name());
        }
    }

    #[test]
    fn pack_affine_mean_backends_bit_identical() {
        // Shapes chosen to exercise the vector body, the scalar tail
        // (plane % 16 != 0), the channel-bit sweep, and the multi-word
        // fallback (c > 64); values cross zero and include -0.0 and
        // exact zeros so the ordered >= compare is pinned down.
        for (c, h, w) in [(1, 7, 9), (3, 16, 16), (8, 13, 5), (64, 4, 5), (65, 3, 3)] {
            let plane = h * w;
            let mut s = 0x9e3779b97f4a7c15u64;
            let mut nextf = move || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as i32 % 1000) as f32 / 250.0 - 2.0
            };
            let mut item: Vec<f32> = (0..c * plane).map(|_| nextf()).collect();
            item[0] = -0.0;
            item[plane / 2] = 0.0;
            let scale: Vec<f32> = (0..c).map(|_| nextf().abs() + 0.1).collect();
            let shift: Vec<f32> = (0..c).map(|_| nextf() * 0.2).collect();
            let wpp = c.div_ceil(64);
            let mut edata = vec![!0u64; plane * wpp];
            let mut emean = vec![9.0f32; plane];
            crate::bitpack::pack_affine_mean_into(
                &item, c, h, w, &scale, &shift, &mut edata, &mut emean,
            );
            for backend in KernelBackend::available() {
                let mut data = vec![!0u64; plane * wpp];
                let mut mean = vec![9.0f32; plane];
                pack_affine_mean(
                    backend, &item, c, h, w, &scale, &shift, &mut data, &mut mean,
                );
                assert_eq!(data, edata, "{} c={c} {h}x{w} words", backend.name());
                let eb: Vec<u32> = emean.iter().map(|v| v.to_bits()).collect();
                let mb: Vec<u32> = mean.iter().map(|v| v.to_bits()).collect();
                assert_eq!(mb, eb, "{} c={c} {h}x{w} mean", backend.name());
            }
        }
    }

    #[test]
    fn detect_is_supported_and_named() {
        let b = KernelBackend::detect();
        assert!(b.is_supported());
        assert_eq!(KernelBackend::parse(b.name()), Some(b));
        assert!(KernelBackend::available().contains(&KernelBackend::Scalar));
        assert!(active_backend().is_supported());
        assert!(b.u64_lanes() >= 1);
    }
}
