//! Allocation regression test for multi-clip batches through the
//! XNOR-GEMM engine.
//!
//! Same contract as `alloc_steady_state.rs`, for batches whose GEMM
//! tiles span clips: after one warm-up, `ExecPlan::run_batch_into`
//! performs **zero** heap allocations — the GEMM B tile, the popcount
//! accumulator block, and every staging buffer come from the
//! [`Workspace`] arena.  The dense im2row repack and the per-tile
//! epilogue are the parts most tempted to allocate (per-tile scratch,
//! per-level vectors), so this test guards them at an M = 2, batch-8
//! shape, and across alternating batch sizes on one workspace.
//!
//! The file intentionally holds a single `#[test]`: the counter is
//! process-global, and a sibling test allocating on another thread
//! while the measured window is open would produce false positives.

use hotspot_bnn::{BnnResNet, NetConfig, PackedBnn};
use hotspot_tensor::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Wraps the system allocator and counts every allocation made while
/// the measurement window is open (see `alloc_steady_state.rs`).
struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn warm_batched_forward_performs_zero_heap_allocations() {
    // M = 2 so the extra residual level reuses the packed B tiles —
    // the level loop is the likeliest place for a per-level temporary.
    let mut rng = StdRng::seed_from_u64(11);
    let net = BnnResNet::new(&NetConfig::tiny(16).with_levels(2), &mut rng);
    let packed = PackedBnn::compile(&net);
    let plan = packed.plan((16, 16));
    assert!(
        plan.gemm_tier(),
        "test net must compile with a GEMM tier or this guards nothing"
    );

    let n = 8;
    let mut state = 0xba7c_u32;
    let input: Vec<f32> = (0..n * 16 * 16)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            if state & 0x8000 == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let mut logits = vec![0.0f32; n * 2];

    // Warm-up: grows the workspace pool to its steady-state footprint.
    let mut ws = Workspace::new();
    plan.run_batch_into(&input, n, &mut ws, &mut logits);
    let warm = logits.clone();

    // Measured window: the second batched forward, warm workspace.
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    plan.run_batch_into(&input, n, &mut ws, &mut logits);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst);

    assert_eq!(
        allocs, 0,
        "steady-state batched forward allocated {allocs} time(s); \
         the GEMM tier must draw B tiles and accumulators from the \
         workspace only"
    );
    assert_eq!(logits, warm, "the warm run must stay bit-identical");

    // Full batches must also interleave cleanly with single-clip
    // forwards on the same workspace without re-growing it.
    let mut single = vec![0.0f32; 2];
    plan.run_batch_into(&input[..16 * 16], 1, &mut ws, &mut single);
    ALLOC_CALLS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    plan.run_batch_into(&input, n, &mut ws, &mut logits);
    plan.run_batch_into(&input[..16 * 16], 1, &mut ws, &mut single);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOC_CALLS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "alternating batch-{n}/single-clip forwards allocated {allocs} \
         time(s) on a warm workspace"
    );
    assert_eq!(logits, warm);
    assert_eq!(single, warm[..2], "the first clip scores alike alone");
}
