//! Per-layer metrics of a traced run, grouped by module.
//!
//! Served layers come from what the program already exposes: the
//! flight recorder's per-stage records, the metrics registry, and the
//! replies.  Proto, geometry, plan and scan layers are timed here, around
//! calls into each crate's public functions, after the served phase.

use crate::inputs::scan_config;
use crate::stats::{mean, median, percentile, sorted};
use crate::workloads::{Outcome, Traced};
use hotspot_bnn::{merge_hits, BnnResNet, PackedBnn, ScanReport, Scanner};
use hotspot_geometry::BitImage;
use hotspot_tensor::Workspace;
use std::hint::black_box;
use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Median of a sample, 0 when empty (the layer did no work).
fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Wall time of `f`, in nanoseconds.
fn time_ns<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as f64
}

/// `serve.*`, `proto.*` and `setup.*` from a traced served run.
pub fn served(out: &Outcome, t: &Traced, m: &mut Metrics) {
    let recs: Vec<_> = t
        .records
        .values()
        .filter(|r| r.complete_timeline())
        .collect();
    let stage = |i: usize| -> Vec<f64> { recs.iter().map(|r| r.stage_ns[i] as f64).collect() };
    let p = |v: Vec<f64>, q: f64| {
        if v.is_empty() {
            0.0
        } else {
            percentile(&sorted(&v), q)
        }
    };
    m.put("serve.admission_p50_us", p(stage(0), 50.0) / 1e3, "us");
    m.put("serve.reply_p50_us", p(stage(5), 50.0) / 1e3, "us");
    m.put("serve.queue_wait_p50_ms", p(stage(1), 50.0) / 1e6, "ms");
    m.put("serve.queue_wait_p99_ms", p(stage(1), 99.0) / 1e6, "ms");
    let fill: Vec<f64> = recs.iter().map(|r| f64::from(r.batch_size)).collect();
    m.put("serve.batch_fill_mean", mean(&fill), "count");
    m.put("serve.inference_p50_ms", p(stage(4), 50.0) / 1e6, "ms");
    m.put("serve.inference_p99_ms", p(stage(4), 99.0) / 1e6, "ms");
    let gap: Vec<f64> = recs
        .iter()
        .filter_map(|r| {
            t.client_ns
                .get(&r.trace_id)
                .map(|c| c - r.total_ns() as f64)
        })
        .collect();
    m.put(
        "serve.client_minus_server_p50_us",
        median_or_zero(&gap) / 1e3,
        "us",
    );
    let ok = out.classify_ok.max(1) as f64;
    m.put("serve.escalated_share", out.escalated as f64 / ok, "ratio");
    let requests = t.requests.max(1) as f64;
    m.put("serve.shed_share", t.shed as f64 / requests, "ratio");
    m.put(
        "serve.deadline_miss_share",
        t.deadline_miss as f64 / requests,
        "ratio",
    );
    m.put("serve.degraded_share", out.degraded as f64 / ok, "ratio");
    m.put("serve.flight_records", recs.len() as f64, "count");

    m.put(
        "proto.encode_classify_us",
        median_or_zero(&t.proto.encode_classify_ns) / 1e3,
        "us",
    );
    m.put(
        "proto.encode_scan_us",
        median_or_zero(&t.proto.encode_scan_ns) / 1e3,
        "us",
    );
    m.put(
        "proto.decode_response_us",
        median_or_zero(&t.proto.decode_ns) / 1e3,
        "us",
    );
    m.put(
        "proto.frame_bytes_scan",
        t.proto.scan_frame_bytes as f64,
        "bytes",
    );

    m.put("setup.load_model_ms", median_or_zero(&t.load_ms), "ms");
    m.put(
        "setup.first_reply_ms",
        median_or_zero(&t.first_reply_ms),
        "ms",
    );
}

/// `geometry.*`, `plan.*` and `kernels.*`: replays the workload's clips
/// through the compiled plans in-process.
pub fn replay(model: &PackedBnn, net: &BnnResNet, clips: &[BitImage], m: &mut Metrics) {
    let side = clips[0].width();
    let convert: Vec<f64> = clips
        .iter()
        .map(|c| time_ns(|| c.to_signed_f32()))
        .collect();
    m.put("geometry.to_signed_f32_us", median(&convert) / 1e3, "us");
    let signed: Vec<Vec<f32>> = clips.iter().map(BitImage::to_signed_f32).collect();

    let compile_triage: Vec<f64> = (0..16)
        .map(|_| time_ns(|| model.plan_capped((side, side), 1)))
        .collect();
    let compile_confirm: Vec<f64> = (0..16)
        .map(|_| time_ns(|| model.plan((side, side))))
        .collect();
    m.put(
        "plan.compile_triage_us",
        median(&compile_triage) / 1e3,
        "us",
    );
    m.put(
        "plan.compile_confirm_us",
        median(&compile_confirm) / 1e3,
        "us",
    );

    let triage = model.plan_capped((side, side), 1);
    let confirm = model.plan((side, side));
    let mut ws = Workspace::new();
    let mut logits = [0.0f32; 2];
    let mut b1 = |plan: &hotspot_bnn::ExecPlan<'_>, clips: &[Vec<f32>]| -> f64 {
        plan.run_batch_into(&clips[0], 1, &mut ws, &mut logits);
        let t: Vec<f64> = clips
            .iter()
            .map(|c| time_ns(|| plan.run_batch_into(c, 1, &mut ws, &mut logits)))
            .collect();
        median(&t) / 1e6
    };
    let triage_b1_ms = b1(&triage, &signed);
    m.put("plan.triage_b1_ms", triage_b1_ms, "ms");
    m.put(
        "plan.confirm_b1_ms",
        b1(&confirm, &signed[..signed.len().min(32)]),
        "ms",
    );

    let mut ws = Workspace::new();
    let mut logits16 = [0.0f32; 32];
    let batches: Vec<Vec<f32>> = signed.chunks_exact(16).map(<[Vec<f32>]>::concat).collect();
    triage.run_batch_into(&batches[0], 16, &mut ws, &mut logits16);
    let b16: Vec<f64> = batches
        .iter()
        .map(|b| time_ns(|| triage.run_batch_into(b, 16, &mut ws, &mut logits16)) / 16.0)
        .collect();
    m.put("plan.triage_per_clip_b16_ms", median(&b16) / 1e6, "ms");

    // Per-step self time of triage at batch 1.
    let mut prof = triage.profiler();
    for c in &signed {
        triage.run_batch_into_profiled(c, 1, &mut ws, &mut logits, &mut prof);
    }
    for slot in prof.report() {
        let us = slot.total_ns as f64 / signed.len() as f64 / 1e3;
        m.put(format!("plan.step.{}_us", slot.name), us, "us");
    }

    // Popcount words of one M = 1 pass, computed from the layer shapes:
    // each 64 binary multiply-accumulates are one word.
    let words: u64 = net.summary().iter().map(|r| r.binary_ops).sum::<u64>() / 64;
    m.put(
        "kernels.triage_words_per_ns",
        words as f64 / (triage_b1_ms * 1e6),
        "1/ns",
    );
}

/// Names of the `scan.*` metrics, reported as 0 by workloads that send
/// no scans.
pub const SCAN_METRICS: [(&str, &str); 7] = [
    ("scan.scanner_new_ms", "ms"),
    ("scan.local_ms", "ms"),
    ("scan.merge_hits_us", "us"),
    ("scan.reused_share", "ratio"),
    ("scan.fallback_share", "ratio"),
    ("scan.dedup_hit_share", "ratio"),
    ("scan.escalated_share", "ratio"),
];

/// `scan.*`: the scanner in-process on the workload's chip, or zeros
/// when the workload has none.
pub fn scan(model: &PackedBnn, chip: Option<&BitImage>, threshold: f32, m: &mut Metrics) {
    let Some(chip) = chip else {
        for (name, unit) in SCAN_METRICS {
            m.put(name, 0.0, unit);
        }
        return;
    };
    let side = crate::inputs::network_input();
    let config = scan_config(threshold, false);
    let new: Vec<f64> = (0..16)
        .map(|_| time_ns(|| Scanner::new(model, side, config)))
        .collect();
    let scanner = Scanner::new(model, side, config);
    let mut ws = Workspace::new();
    let report: ScanReport = scanner.scan(chip, &mut ws);
    let local: Vec<f64> = (0..3)
        .map(|_| time_ns(|| scanner.scan(chip, &mut ws)))
        .collect();
    let merge: Vec<f64> = (0..16)
        .map(|_| time_ns(|| merge_hits(&report.verdicts, side, chip.width(), chip.height())))
        .collect();
    let windows = report.windows.max(1) as f64;
    let values = [
        median(&new) / 1e6,
        median(&local) / 1e6,
        median(&merge) / 1e3,
        report.reused as f64 / windows,
        report.fallback as f64 / windows,
        report.dedup_hits as f64 / windows,
        report.escalated as f64 / windows,
    ];
    for ((name, unit), v) in SCAN_METRICS.into_iter().zip(values) {
        m.put(name, v, unit);
    }
}
