//! Model hot-swap: load → validate → atomic publish → watch →
//! auto-rollback.
//!
//! A swap request walks a strict validation ladder before any traffic
//! sees the candidate model:
//!
//! 1. **Integrity** — [`load_model`] verifies the artifact's CRC32
//!    footer; a truncated or bit-flipped file fails here with a typed
//!    [`PersistError`].
//! 2. **Architecture** — the candidate's
//!    [`arch_fingerprint`](PackedBnn::arch_fingerprint) must equal the
//!    serving model's: same topology, strides, scaling mode, and level
//!    count.  Weights may differ (that is the point); shape may not.
//! 3. **Canary** — a synthetic batch runs through the candidate under
//!    `catch_unwind`; panics or non-finite logits reject the swap.
//!
//! Only then does [`ModelSlot::swap`] publish the candidate.  The old
//! `Arc` is retained by a [`SwapMonitor`] that watches the first
//! `window` batches of the new generation: if `max_failures` of them
//! panic, the monitor swaps the retained model straight back (a fresh
//! generation — rollback is itself a swap) without touching the disk.
//! A generation that survives its window is accepted and the retained
//! model is released.

use crate::fault::FaultPlan;
use hotspot_bnn::{ModelSlot, PackedBnn};
use hotspot_core::persist::{load_model, PersistError};
use hotspot_tensor::Workspace;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Why a hot-swap was rejected (the model in service is untouched).
#[derive(Debug)]
pub enum SwapError {
    /// The artifact failed to load (I/O, bad header, CRC mismatch, or
    /// corrupt payload).
    Load(PersistError),
    /// The candidate's architecture differs from the serving model's.
    ArchMismatch {
        /// Fingerprint of the model in service.
        serving: u32,
        /// Fingerprint of the rejected candidate.
        candidate: u32,
    },
    /// The canary batch panicked or produced non-finite logits.
    CanaryFailed(String),
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Load(e) => write!(f, "artifact rejected: {e}"),
            SwapError::ArchMismatch { serving, candidate } => write!(
                f,
                "architecture fingerprint {candidate:08x} does not match the serving \
                 model's {serving:08x}"
            ),
            SwapError::CanaryFailed(m) => write!(f, "canary batch failed: {m}"),
        }
    }
}

impl Error for SwapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SwapError::Load(e) => Some(e),
            _ => None,
        }
    }
}

/// Runs the canary: a small all-ones batch through a freshly compiled
/// plan of `model`, requiring finite logits and no panic.
fn run_canary(model: &PackedBnn, side: usize, fault: &FaultPlan) -> Result<(), String> {
    if fault.fail_canary() {
        return Err("injected canary failure".into());
    }
    let n = 2usize;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let plan = model.plan((side, side));
        let mut ws = Workspace::new();
        let input = vec![1.0f32; n * side * side];
        let mut logits = vec![0.0f32; n * 2];
        plan.run_batch_into(&input, n, &mut ws, &mut logits);
        logits
    }));
    match outcome {
        Ok(logits) if logits.iter().all(|v| v.is_finite()) => Ok(()),
        Ok(logits) => Err(format!("non-finite canary logits {logits:?}")),
        Err(_) => Err("candidate model panicked on the canary batch".into()),
    }
}

/// Loads and validates `path`, then atomically publishes it to `slot`.
/// Returns the new generation and the displaced model (for the
/// rollback monitor).
///
/// # Errors
///
/// Returns [`SwapError`] without touching the serving model when any
/// validation rung fails.
pub fn validate_and_swap(
    slot: &ModelSlot,
    path: &Path,
    input_side: usize,
    fault: &FaultPlan,
) -> Result<(u64, Arc<PackedBnn>), SwapError> {
    let candidate = load_model(path).map_err(SwapError::Load)?;
    let (serving, _) = slot.current();
    let serving_fp = serving.arch_fingerprint();
    let candidate_fp = candidate.arch_fingerprint();
    if serving_fp != candidate_fp {
        return Err(SwapError::ArchMismatch {
            serving: serving_fp,
            candidate: candidate_fp,
        });
    }
    run_canary(&candidate, input_side, fault).map_err(SwapError::CanaryFailed)?;
    let (prev, generation) = slot.swap(Arc::new(candidate));
    Ok((generation, prev))
}

struct Watch {
    generation: u64,
    prev: Arc<PackedBnn>,
    batches: usize,
    failures: usize,
}

/// Post-swap rollback watcher (see module docs).  Workers report every
/// batch outcome through [`record`](SwapMonitor::record); the monitor
/// is inert unless a watch is active for the batch's generation.
pub struct SwapMonitor {
    window: usize,
    max_failures: usize,
    watch: Mutex<Option<Watch>>,
}

/// What [`record`](SwapMonitor::record) decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapVerdict {
    /// No watch active for this generation (or still inside the
    /// window): nothing happened.
    Watching,
    /// The generation survived its window; the retained model was
    /// released.
    Accepted,
    /// Failures crossed the threshold; the previous model was swapped
    /// back as the contained generation.
    RolledBack {
        /// The generation that was rolled back.
        failed: u64,
        /// The fresh generation now serving the restored model.
        restored_as: u64,
    },
}

impl SwapMonitor {
    /// A monitor accepting a new generation after `window` clean-enough
    /// batches and rolling back once `max_failures` of them fail.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < max_failures <= window`.
    pub fn new(window: usize, max_failures: usize) -> Self {
        assert!(
            max_failures > 0 && max_failures <= window,
            "need 0 < max_failures ({max_failures}) <= window ({window})"
        );
        SwapMonitor {
            window,
            max_failures,
            watch: Mutex::new(None),
        }
    }

    /// Starts watching `generation`, retaining `prev` for rollback.
    /// Replaces any watch still in progress (the older generation is
    /// already off the serving path, so its watch is moot).
    pub fn begin_watch(&self, generation: u64, prev: Arc<PackedBnn>) {
        let mut watch = self.watch.lock().unwrap_or_else(|p| p.into_inner());
        *watch = Some(Watch {
            generation,
            prev,
            batches: 0,
            failures: 0,
        });
    }

    /// `true` while a watch is active (diagnostic).
    pub fn is_watching(&self) -> bool {
        self.watch
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_some()
    }

    /// Reports one batch outcome for `generation`; performs the
    /// rollback swap on `slot` when the failure threshold is crossed.
    pub fn record(&self, slot: &ModelSlot, generation: u64, ok: bool) -> SwapVerdict {
        let mut guard = self.watch.lock().unwrap_or_else(|p| p.into_inner());
        let Some(watch) = guard.as_mut() else {
            return SwapVerdict::Watching;
        };
        if watch.generation != generation {
            return SwapVerdict::Watching;
        }
        watch.batches += 1;
        if !ok {
            watch.failures += 1;
        }
        if watch.failures >= self.max_failures {
            let watch = guard.take().expect("watch is present");
            // Rollback while holding the monitor lock: a concurrent
            // record() for the failed generation waits here and then
            // sees no watch, so only one rollback can fire.
            let (_, restored_as) = slot.swap(watch.prev);
            return SwapVerdict::RolledBack {
                failed: generation,
                restored_as,
            };
        }
        if watch.batches >= self.window {
            *guard = None;
            return SwapVerdict::Accepted;
        }
        SwapVerdict::Watching
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_bnn::{BnnResNet, NetConfig};
    use hotspot_core::persist::save_model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn packed(seed: u64, side: usize) -> PackedBnn {
        let mut rng = StdRng::seed_from_u64(seed);
        PackedBnn::compile(&BnnResNet::new(&NetConfig::tiny(side), &mut rng))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("serve_swap_{name}_{}", std::process::id()))
    }

    #[test]
    fn valid_artifact_swaps_and_returns_previous() {
        let slot = ModelSlot::new(packed(1, 16));
        let (before, _) = slot.current();
        let path = tmp("ok");
        save_model(&path, &packed(2, 16)).unwrap();
        let fault = FaultPlan::new();
        let (generation, prev) = validate_and_swap(&slot, &path, 16, &fault).unwrap();
        assert_eq!(generation, 2);
        assert!(Arc::ptr_eq(&prev, &before));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_artifact_is_rejected_and_service_model_unchanged() {
        let slot = ModelSlot::new(packed(3, 16));
        let path = tmp("corrupt");
        save_model(&path, &packed(4, 16)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let fault = FaultPlan::new();
        let err = validate_and_swap(&slot, &path, 16, &fault).unwrap_err();
        assert!(
            matches!(err, SwapError::Load(PersistError::BadChecksum)),
            "got {err:?}"
        );
        assert_eq!(slot.generation(), 1, "serving model untouched");
        let _ = std::fs::remove_file(&path);
    }

    fn packed_m2(seed: u64, side: usize) -> PackedBnn {
        let mut rng = StdRng::seed_from_u64(seed);
        PackedBnn::compile(&BnnResNet::new(
            &NetConfig::tiny(side).with_levels(2),
            &mut rng,
        ))
    }

    #[test]
    fn architecture_mismatch_is_rejected() {
        let slot = ModelSlot::new(packed(5, 16));
        let path = tmp("arch");
        // Same topology but M = 2 residual levels: a different
        // deployment contract, so the fingerprints must differ.
        save_model(&path, &packed_m2(6, 16)).unwrap();
        let fault = FaultPlan::new();
        let err = validate_and_swap(&slot, &path, 16, &fault).unwrap_err();
        assert!(matches!(err, SwapError::ArchMismatch { .. }), "got {err:?}");
        assert_eq!(slot.generation(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_canary_failure_rejects_the_swap() {
        let slot = ModelSlot::new(packed(7, 16));
        let path = tmp("canary");
        save_model(&path, &packed(8, 16)).unwrap();
        let fault = FaultPlan::new();
        fault.set_fail_canary(true);
        let err = validate_and_swap(&slot, &path, 16, &fault).unwrap_err();
        assert!(matches!(err, SwapError::CanaryFailed(_)), "got {err:?}");
        assert_eq!(slot.generation(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn monitor_rolls_back_a_failing_generation() {
        let slot = ModelSlot::new(packed(9, 16));
        let (original, _) = slot.current();
        let (prev, g2) = slot.swap(Arc::new(packed(10, 16)));
        let monitor = SwapMonitor::new(8, 2);
        monitor.begin_watch(g2, prev);
        assert_eq!(monitor.record(&slot, g2, false), SwapVerdict::Watching);
        let verdict = monitor.record(&slot, g2, false);
        assert_eq!(
            verdict,
            SwapVerdict::RolledBack {
                failed: 2,
                restored_as: 3
            }
        );
        let (now, g) = slot.current();
        assert_eq!(g, 3, "rollback is itself a generation bump");
        assert!(Arc::ptr_eq(&now, &original), "the old model is back");
        assert!(!monitor.is_watching());
    }

    #[test]
    fn monitor_accepts_a_generation_that_survives_its_window() {
        let slot = ModelSlot::new(packed(11, 16));
        let (prev, g2) = slot.swap(Arc::new(packed(12, 16)));
        let monitor = SwapMonitor::new(3, 2);
        monitor.begin_watch(g2, prev);
        assert_eq!(monitor.record(&slot, g2, true), SwapVerdict::Watching);
        assert_eq!(monitor.record(&slot, g2, false), SwapVerdict::Watching);
        assert_eq!(monitor.record(&slot, g2, true), SwapVerdict::Accepted);
        assert_eq!(slot.generation(), 2, "no rollback");
        assert!(!monitor.is_watching());
    }

    #[test]
    fn monitor_ignores_other_generations() {
        let slot = ModelSlot::new(packed(13, 16));
        let (prev, g2) = slot.swap(Arc::new(packed(14, 16)));
        let monitor = SwapMonitor::new(2, 1);
        monitor.begin_watch(g2, prev);
        // Stale reports from the pre-swap generation change nothing.
        assert_eq!(monitor.record(&slot, 1, false), SwapVerdict::Watching);
        assert!(monitor.is_watching());
        assert_eq!(slot.generation(), 2);
    }
}
