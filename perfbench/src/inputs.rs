//! Seeded inputs: the model file, the clip corpus with its in-process
//! reference margins, the cascade threshold, and the scan chip.
//!
//! Everything here is built before any clock starts.  The model is
//! fixed (it stands for the deployed artifact); the corpus, chip cells
//! and arrival schedules derive from the workload seed.

use crate::check::ClipRef;
use hotspot_bnn::{BnnResNet, NetConfig, PackedBnn, ScanConfig, ScanReport, Scanner};
use hotspot_geometry::{BitImage, Raster};
use hotspot_layout_gen::{ChipBuilder, ClipGenerator, PatternFamily};
use hotspot_tensor::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Residual levels of the served model (the paper's accuracy setting).
pub const LEVELS: usize = 3;
/// Seed of the randomly initialised model.
pub const MODEL_SEED: u64 = 2019;
/// Clips in the classify corpus.
pub const CORPUS: usize = 128;
/// Share of corpus clips the tuned threshold escalates.
pub const ESCALATION_TARGET: f64 = 0.10;
/// Raster pitch, nm per pixel: 1280 nm clips → 128 px.
pub const RESOLUTION: i64 = 10;
/// Chip grid side in cells, and the scan stride.
pub const CHIP_CELLS: usize = 6;
pub const SCAN_STRIDE: usize = 64;

/// Derives an independent stream seed for one use of the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finaliser over the pair.
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Side of the model's square input window, pixels.
pub fn network_input() -> usize {
    NetConfig::paper_12layer().input_size
}

/// The network built from the fixed model seed.
pub fn network() -> BnnResNet {
    let config = NetConfig::paper_12layer().with_levels(LEVELS);
    BnnResNet::new(&config, &mut StdRng::seed_from_u64(MODEL_SEED))
}

/// Writes the compiled model to `path` with the repository's persistence
/// format.
pub fn save_model(path: &Path, net: &BnnResNet) -> Result<(), String> {
    hotspot_core::persist::save_model(path, &PackedBnn::compile(net)).map_err(|e| e.to_string())
}

/// `n` clips from every pattern family in turn, rasterized to the model
/// window.
pub fn corpus(seed: u64, n: usize) -> Vec<BitImage> {
    let mut rng = StdRng::seed_from_u64(seed);
    let raster = Raster::new(RESOLUTION);
    (0..n)
        .map(|i| {
            let family = PatternFamily::ALL[i % PatternFamily::ALL.len()];
            let gen = ClipGenerator::default().with_weights(vec![(family, 1)]);
            raster.rasterize(&gen.generate(&mut rng).layout, gen.window())
        })
        .collect()
}

/// Runs `plan` over every clip in sub-batches of 16; returns margins.
fn margins(plan: &hotspot_bnn::ExecPlan<'_>, clips: &[Vec<f32>], ws: &mut Workspace) -> Vec<f32> {
    let mut out = Vec::with_capacity(clips.len());
    for chunk in clips.chunks(16) {
        let input: Vec<f32> = chunk.concat();
        let mut logits = vec![0.0f32; 2 * chunk.len()];
        plan.run_batch_into(&input, chunk.len(), ws, &mut logits);
        out.extend(logits.chunks(2).map(|l| l[1] - l[0]));
    }
    out
}

/// In-process triage and confirm margins of every clip.
pub fn references(model: &PackedBnn, signed: &[Vec<f32>]) -> Vec<ClipRef> {
    let side = network_input();
    let mut ws = Workspace::new();
    let triage = margins(&model.plan_capped((side, side), 1), signed, &mut ws);
    let confirm = margins(&model.plan((side, side)), signed, &mut ws);
    triage
        .into_iter()
        .zip(confirm)
        .map(|(triage, confirm)| ClipRef { triage, confirm })
        .collect()
}

/// The cascade threshold that escalates `share` of the clips: the
/// `share`-quantile of |triage margin|, so clips strictly below it
/// escalate.  Returns the threshold and the share it really escalates.
pub fn tune_threshold(refs: &[ClipRef], share: f64) -> (f32, f64) {
    let mut abs: Vec<f32> = refs.iter().map(|r| r.triage.abs()).collect();
    abs.sort_by(f32::total_cmp);
    let threshold = abs[((abs.len() as f64) * share) as usize];
    let escalated = abs.iter().filter(|&&m| m < threshold).count();
    (threshold, escalated as f64 / abs.len() as f64)
}

/// The scan chip: `CHIP_CELLS²` cells of one model window each.  The
/// left half repeats one cell (SRAM-like, so duplicate windows hit the
/// scanner's dedup cache); the right half holds distinct seeded cells.
pub fn chip(seed: u64) -> BitImage {
    let clips = corpus(seed, 1 + CHIP_CELLS * CHIP_CELLS / 2);
    let side = clips[0].width();
    let mut builder = ChipBuilder::new(CHIP_CELLS, CHIP_CELLS, side, RESOLUTION);
    let empty = hotspot_geometry::Layout::new();
    let mut distinct = clips[1..].iter();
    for cy in 0..CHIP_CELLS {
        for cx in 0..CHIP_CELLS {
            let cell = if cx < CHIP_CELLS / 2 {
                &clips[0]
            } else {
                distinct
                    .next()
                    .expect("one distinct clip per right-half cell")
            };
            builder.place((cx, cy), cell, &empty);
        }
    }
    builder.finish().image
}

/// The scanner configuration the server uses for a `Scan` request.
pub fn scan_config(threshold: f32, triage_only: bool) -> ScanConfig {
    ScanConfig {
        stride: SCAN_STRIDE,
        cascade_threshold: threshold,
        triage_only,
        dedup: true,
    }
}

/// Local cascade and triage-only scans of `chip`: the references a scan
/// reply is checked against.
pub fn scan_references(
    model: &PackedBnn,
    chip: &BitImage,
    threshold: f32,
) -> (ScanReport, ScanReport) {
    let side = network_input();
    let mut ws = Workspace::new();
    let full = Scanner::new(model, side, scan_config(threshold, false)).scan(chip, &mut ws);
    let triage = Scanner::new(model, side, scan_config(threshold, true)).scan(chip, &mut ws);
    (full, triage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_and_chip_are_seeded() {
        assert_eq!(corpus(5, 12), corpus(5, 12));
        assert_ne!(corpus(5, 12), corpus(6, 12));
        let c = chip(5);
        assert_eq!((c.width(), c.height()), (768, 768));
        assert_eq!(c, chip(5));
    }

    #[test]
    fn threshold_escalates_the_target_share() {
        let refs: Vec<ClipRef> = (0..100)
            .map(|i| ClipRef {
                triage: i as f32 - 50.0,
                confirm: 0.0,
            })
            .collect();
        let (t, share) = tune_threshold(&refs, 0.10);
        // |margins| sorted: 0, 1, 1, 2, 2, ... → index 10 is 5.
        assert_eq!(t, 5.0);
        assert!((share - 0.09).abs() < 1e-9, "{share}");
    }
}
