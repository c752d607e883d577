//! Open-loop arithmetic: arrival schedules, latency from due time,
//! generator lateness, backlog growth, and the SLO rate ladder.
//!
//! All times are seconds from the start of the phase, so the logic is
//! pure and testable without a server.

use crate::stats::{percentile, sorted};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One scheduled request of an open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: f64,
    /// When it was actually sent (`NaN` if never sent).
    pub sent: f64,
    /// When its reply arrived, if it did.
    pub done: Option<f64>,
    /// The reply arrived, was not a rejection, and passed the
    /// reference check.
    pub ok: bool,
}

impl Sample {
    /// A request not yet sent.
    pub fn scheduled(due: f64) -> Self {
        Sample {
            due,
            sent: f64::NAN,
            done: None,
            ok: false,
        }
    }

    /// Latency counted from the due time, in ms; infinite for a failed
    /// request (it misses any limit).  Counting from the due time
    /// charges a generator stall to every request it delayed.
    pub fn latency_from_due_ms(&self) -> f64 {
        match self.done {
            Some(done) if self.ok => (done - self.due) * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent it, in ms.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// Poisson arrivals at `rate` per second over `[0, duration)`: the
/// schedule of independent users, drawn from `seed`.
pub fn poisson_schedule(rate: f64, duration: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * duration * 1.2) as usize + 8);
    loop {
        // 53 random bits → u in [0, 1); 1 − u in (0, 1] keeps ln finite.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return due;
        }
        due.push(t);
    }
}

/// Requests sent but not yet answered at time `t`.
pub fn backlog_at(samples: &[Sample], t: f64) -> usize {
    let sent = samples.iter().filter(|s| s.sent <= t).count();
    let done = samples
        .iter()
        .filter(|s| s.done.is_some_and(|d| d <= t))
        .count();
    sent.saturating_sub(done)
}

/// Mean backlog over `[from, to)`, sampled every millisecond.
fn mean_backlog(samples: &[Sample], from: f64, to: f64) -> f64 {
    let n = (((to - from) * 1e3) as usize).max(1);
    let total: usize = (0..n)
        .map(|i| backlog_at(samples, from + (to - from) * i as f64 / n as f64))
        .sum();
    total as f64 / n as f64
}

/// Whether the backlog grew over a step of `duration` seconds at
/// `rate`: the mean backlog of the last quarter exceeds that of the
/// second quarter by more than 3 requests or 1 % of the requests the
/// step offers between them, whichever is larger.  Means over quarter
/// windows ride out the sawtooth of batch formation.
pub fn backlog_growing(samples: &[Sample], duration: f64, rate: f64) -> bool {
    let q = duration / 4.0;
    let early = mean_backlog(samples, q, 2.0 * q);
    let late = mean_backlog(samples, 3.0 * q, duration);
    let slack = (0.01 * rate * 2.0 * q).max(3.0);
    late - early > slack
}

/// One measured rung of the rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests the schedule offered.
    pub offered: usize,
    /// Requests that failed (rejected, unanswered, or wrong).
    pub failed: usize,
    /// p99 latency from due time, ms.
    pub p99_ms: f64,
    /// Backlog grew over the step.
    pub growing: bool,
    /// Verified replies per second of step time.
    pub goodput: f64,
}

impl Step {
    /// Judges a finished step against the latency limit.
    pub fn judge(rate: f64, duration: f64, samples: &[Sample]) -> Step {
        let lat: Vec<f64> = samples.iter().map(Sample::latency_from_due_ms).collect();
        let ok = samples.iter().filter(|s| s.ok).count();
        Step {
            rate,
            offered: samples.len(),
            failed: samples.len() - ok,
            p99_ms: if lat.is_empty() {
                0.0
            } else {
                percentile(&sorted(&lat), 99.0)
            },
            growing: backlog_growing(samples, duration, rate),
            goodput: ok as f64 / duration,
        }
    }

    /// p99 within `slo_ms`, no failed operation, no growing backlog.
    pub fn passes(&self, slo_ms: f64) -> bool {
        self.p99_ms <= slo_ms && self.failed == 0 && !self.growing
    }
}

/// The passing step with the highest offered rate, if any.
pub fn max_rate_at_slo(steps: &[Step], slo_ms: f64) -> Option<&Step> {
    steps
        .iter()
        .filter(|s| s.passes(slo_ms))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
}

/// The fixed ladder of offered rates: `base · 1.05^k` for `k < steps`,
/// so neighbouring steps are 5 % apart.
pub fn ladder_rates(base: f64, steps: usize) -> Vec<f64> {
    (0..steps).map(|k| base * 1.05f64.powi(k as i32)).collect()
}

/// One bisection of the ladder for its highest passing rung: probes the
/// middle of the open interval, moves up on a pass and down on a
/// failure.  `probe` measures one rung, or returns `None` when the run's
/// time is spent.  Returns every measured step; a search over 31 rungs
/// takes five probes.
pub fn bisect(rates: &[f64], slo_ms: f64, mut probe: impl FnMut(f64) -> Option<Step>) -> Vec<Step> {
    let (mut lo, mut hi) = (0, rates.len());
    let mut steps = Vec::new();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let Some(step) = probe(rates[mid]) else {
            break;
        };
        if step.passes(slo_ms) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
        steps.push(step);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(due: f64, sent: f64, done: f64) -> Sample {
        Sample {
            due,
            sent,
            done: Some(done),
            ok: true,
        }
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_reported() {
        // The generator stalled: due at 1.000 s, sent at 1.040 s,
        // answered at 1.045 s.  The request waited 45 ms, not 5.
        let s = served(1.0, 1.040, 1.045);
        assert!((s.latency_from_due_ms() - 45.0).abs() < 1e-9);
        assert!((s.lateness_ms() - 40.0).abs() < 1e-9);
        let mut failed = s;
        failed.ok = false;
        assert!(failed.latency_from_due_ms().is_infinite());
        assert!(Sample::scheduled(2.0).latency_from_due_ms().is_infinite());
    }

    #[test]
    fn poisson_schedule_is_seeded_and_near_rate() {
        let a = poisson_schedule(200.0, 10.0, 7);
        assert_eq!(a, poisson_schedule(200.0, 10.0, 7));
        assert_ne!(a, poisson_schedule(200.0, 10.0, 8));
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    /// A steady step: every request answered 5 ms after it was due.
    fn steady(rate: f64, duration: f64) -> Vec<Sample> {
        let n = (rate * duration) as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                served(t, t, t + 0.005)
            })
            .collect()
    }

    /// Overload: the server answers at `capacity` while requests arrive
    /// at `rate`, so the queue grows linearly.
    fn overloaded(rate: f64, capacity: f64, duration: f64) -> Vec<Sample> {
        let n = (rate * duration) as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                served(t, t, (i + 1) as f64 / capacity)
            })
            .collect()
    }

    #[test]
    fn step_selection_takes_the_highest_passing_rate() {
        let slo = 50.0;
        let a = Step::judge(200.0, 2.0, &steady(200.0, 2.0));
        let b = Step::judge(210.0, 2.0, &steady(210.0, 2.0));
        assert!(a.passes(slo) && b.passes(slo));
        assert!(!a.growing);
        let mut slow = steady(220.0, 2.0);
        for s in slow.iter_mut().skip(400) {
            s.done = Some(s.due + 0.080);
        }
        let c = Step::judge(220.0, 2.0, &slow);
        assert!(c.p99_ms > slo && !c.passes(slo));
        let steps = [a, b, c];
        let best = max_rate_at_slo(&steps, slo).expect("a step passes");
        assert_eq!(best.rate, 210.0);
        assert!((best.goodput - 210.0).abs() < 1.0);
    }

    #[test]
    fn a_failed_operation_fails_the_step() {
        let mut samples = steady(200.0, 2.0);
        samples[17].ok = false;
        let step = Step::judge(200.0, 2.0, &samples);
        assert_eq!(step.failed, 1);
        assert!(step.p99_ms < 50.0, "one failure in 400 stays below p99");
        assert!(!step.passes(50.0));
    }

    #[test]
    fn growing_backlog_fails_a_step_whose_p99_still_meets_the_limit() {
        // 2 % over capacity for 2 s: p99 only reaches ~45 ms, inside the
        // limit, but the queue grows without bound.
        let samples = overloaded(245.0, 240.0, 2.0);
        let step = Step::judge(245.0, 2.0, &samples);
        assert!(step.p99_ms <= 50.0, "p99 {}", step.p99_ms);
        assert!(step.growing);
        assert!(!step.passes(50.0));
        assert!(max_rate_at_slo(&[step], 50.0).is_none());
        // A steady step at the same rate does not grow.
        assert!(!backlog_growing(&steady(252.0, 2.0), 2.0, 252.0));
        assert_eq!(backlog_at(&steady(252.0, 2.0), 1.0), 2);
    }

    #[test]
    fn ladder_steps_are_at_most_five_percent_apart() {
        let r = ladder_rates(100.0, 31);
        assert_eq!(r[0], 100.0);
        assert!(r.windows(2).all(|w| w[1] / w[0] <= 1.05 + 1e-12));
        assert!(r[30] > 420.0);
    }

    /// A probe of a server that keeps up below `capacity`.
    fn probe_below(capacity: f64) -> impl FnMut(f64) -> Option<Step> {
        move |rate| {
            let samples = if rate < capacity {
                steady(rate, 2.0)
            } else {
                overloaded(rate, capacity, 2.0)
            };
            Some(Step::judge(rate, 2.0, &samples))
        }
    }

    #[test]
    fn bisection_finds_the_highest_passing_rung() {
        let rates = ladder_rates(100.0, 31);
        let steps = bisect(&rates, 50.0, probe_below(260.0));
        assert_eq!(steps.len(), 5);
        let best = max_rate_at_slo(&steps, 50.0).expect("a rung passes");
        let expect = rates
            .iter()
            .copied()
            .filter(|&r| r < 260.0)
            .fold(0.0, f64::max);
        assert_eq!(best.rate, expect);
        // Nothing passes: no rate at the SLO.
        assert!(max_rate_at_slo(&bisect(&rates, 50.0, probe_below(50.0)), 50.0).is_none());
        // Out of time after two probes: the search stops where it is.
        let mut budget = 2;
        let mut inner = probe_below(260.0);
        let partial = bisect(&rates, 50.0, |r| {
            budget -= 1;
            (budget >= 0).then(|| inner(r)).flatten()
        });
        assert_eq!(partial.len(), 2);
    }
}
