//! Reference check of every reply against in-process execution.
//!
//! Classify margins must equal the in-process triage margin bit for
//! bit, or the confirm margin when the reply says the cascade
//! escalated; a degraded reply is checked against triage only.  Scan
//! replies must carry exactly the regions, window count and escalation
//! count of a local `Scanner::scan` on the same chip.

use hotspot_bnn::ScanReport;
use hotspot_serve::{Response, ScanHit};

/// In-process margins of one corpus clip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipRef {
    /// M = 1 triage margin.
    pub triage: f32,
    /// Full-M confirm margin.
    pub confirm: f32,
}

/// Checks a classify reply for request `id` against its clip's
/// reference under cascade `threshold`.  `Err` names the first
/// disagreement; a typed rejection is an error too.
pub fn check_classify(
    reply: &Response,
    id: u64,
    want: ClipRef,
    threshold: f32,
) -> Result<(), String> {
    let Response::Classify {
        id: got_id,
        hotspot,
        margin,
        degraded,
        escalated,
        ..
    } = *reply
    else {
        return Err(format!("request {id}: not a classify result: {reply:?}"));
    };
    if got_id != id {
        return Err(format!("reply id {got_id} for request {id}"));
    }
    let should_escalate = !degraded && want.triage.abs() < threshold;
    if escalated != should_escalate {
        return Err(format!(
            "request {id}: escalated={escalated}, reference triage margin {} under threshold {threshold} (degraded={degraded})",
            want.triage
        ));
    }
    let expected = if escalated { want.confirm } else { want.triage };
    if margin.to_bits() != expected.to_bits() {
        return Err(format!(
            "request {id}: margin {margin:?} ({:#010x}) != reference {expected:?} ({:#010x})",
            margin.to_bits(),
            expected.to_bits()
        ));
    }
    if hotspot != (margin >= 0.0) {
        return Err(format!(
            "request {id}: hotspot={hotspot} disagrees with margin {margin}"
        ));
    }
    Ok(())
}

/// The wire form of a local scan's regions.
pub fn wire_regions(report: &ScanReport) -> Vec<ScanHit> {
    report
        .regions
        .iter()
        .map(|r| ScanHit {
            x0: r.x0 as u32,
            y0: r.y0 as u32,
            x1: r.x1 as u32,
            y1: r.y1 as u32,
            score: r.score,
            windows: r.windows as u32,
        })
        .collect()
}

/// Checks a scan reply for request `id`: `full` is the local cascade
/// scan, `triage` the local triage-only scan (what a degraded server
/// runs).
pub fn check_scan(
    reply: &Response,
    id: u64,
    full: &ScanReport,
    triage: &ScanReport,
) -> Result<(), String> {
    let Response::ScanRegions {
        id: got_id,
        regions,
        windows,
        escalated,
        degraded,
        ..
    } = reply
    else {
        return Err(format!("request {id}: not a scan result: {reply:?}"));
    };
    if *got_id != id {
        return Err(format!("reply id {got_id} for request {id}"));
    }
    let want = if *degraded { triage } else { full };
    if *windows as usize != want.windows || *escalated as usize != want.escalated {
        return Err(format!(
            "request {id}: windows/escalated {windows}/{escalated} != reference {}/{}",
            want.windows, want.escalated
        ));
    }
    let want_regions = wire_regions(want);
    let same = regions.len() == want_regions.len()
        && regions.iter().zip(&want_regions).all(|(a, b)| {
            (a.x0, a.y0, a.x1, a.y1, a.windows, a.score.to_bits())
                == (b.x0, b.y0, b.x1, b.y1, b.windows, b.score.to_bits())
        });
    if !same {
        return Err(format!(
            "request {id}: regions {regions:?} != reference {want_regions:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_bnn::{Region, WindowVerdict};
    use hotspot_serve::ErrorCode;

    const THRESHOLD: f32 = 0.5;

    fn reply(margin: f32, escalated: bool, degraded: bool) -> Response {
        Response::Classify {
            id: 9,
            hotspot: margin >= 0.0,
            margin,
            degraded,
            escalated,
            trace_id: 9,
        }
    }

    #[test]
    fn classify_accepts_exact_triage_and_confirm_margins() {
        let sure = ClipRef {
            triage: 1.25,
            confirm: 0.75,
        };
        assert!(check_classify(&reply(1.25, false, false), 9, sure, THRESHOLD).is_ok());
        let unsure = ClipRef {
            triage: -0.125,
            confirm: 0.375,
        };
        assert!(check_classify(&reply(0.375, true, false), 9, unsure, THRESHOLD).is_ok());
        // Degraded: triage only, never escalated.
        assert!(check_classify(&reply(-0.125, false, true), 9, unsure, THRESHOLD).is_ok());
        assert!(check_classify(&reply(0.375, true, true), 9, unsure, THRESHOLD).is_err());
    }

    #[test]
    fn classify_rejects_one_flipped_margin_bit() {
        let want = ClipRef {
            triage: 1.25,
            confirm: 0.75,
        };
        for bit in [0, 1, 22, 30] {
            let flipped = f32::from_bits(1.25f32.to_bits() ^ (1 << bit));
            let err = check_classify(&reply(flipped, false, false), 9, want, THRESHOLD);
            assert!(err.is_err(), "bit {bit} flip accepted");
        }
        // The confirm margin of an escalated clip is checked just as hard.
        let unsure = ClipRef {
            triage: 0.25,
            confirm: -0.5,
        };
        let flipped = f32::from_bits((-0.5f32).to_bits() ^ 1);
        assert!(check_classify(&reply(flipped, true, false), 9, unsure, THRESHOLD).is_err());
    }

    #[test]
    fn classify_rejects_wrong_cascade_route_id_and_rejections() {
        let want = ClipRef {
            triage: 0.25,
            confirm: 0.25,
        };
        // Same margin bits, but the reply claims the wrong route.
        assert!(check_classify(&reply(0.25, false, false), 9, want, THRESHOLD).is_err());
        assert!(check_classify(&reply(0.25, true, false), 8, want, THRESHOLD).is_err());
        let shed = Response::Error {
            id: 9,
            code: ErrorCode::Overloaded,
            msg: "queue is at capacity".into(),
        };
        assert!(check_classify(&shed, 9, want, THRESHOLD).is_err());
    }

    fn report(score: f32, escalated: usize) -> ScanReport {
        ScanReport {
            chip: (256, 256),
            window: 128,
            stride: 64,
            verdicts: vec![WindowVerdict {
                x: 0,
                y: 0,
                hotspot: true,
                margin: score,
                escalated: escalated > 0,
            }],
            regions: vec![Region {
                x0: 0,
                y0: 0,
                x1: 128,
                y1: 128,
                score,
                peak: (0, 0),
                windows: 1,
            }],
            windows: 9,
            hotspots: 1,
            escalated,
            reused: 9,
            fallback: 0,
            dedup_hits: 0,
        }
    }

    fn scan_reply(local: &ScanReport, degraded: bool) -> Response {
        Response::ScanRegions {
            id: 4,
            regions: wire_regions(local),
            windows: local.windows as u32,
            escalated: local.escalated as u32,
            degraded,
            trace_id: 4,
        }
    }

    #[test]
    fn scan_matches_local_regions_and_flags_a_flipped_score_bit() {
        let full = report(0.5, 1);
        let triage = report(0.25, 0);
        assert!(check_scan(&scan_reply(&full, false), 4, &full, &triage).is_ok());
        assert!(check_scan(&scan_reply(&triage, true), 4, &full, &triage).is_ok());
        assert!(check_scan(&scan_reply(&triage, false), 4, &full, &triage).is_err());
        let mut bad = scan_reply(&full, false);
        if let Response::ScanRegions { regions, .. } = &mut bad {
            regions[0].score = f32::from_bits(regions[0].score.to_bits() ^ 1);
        }
        assert!(check_scan(&bad, 4, &full, &triage).is_err());
    }
}
