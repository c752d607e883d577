//! The three workloads, each driving one loopback server.
//!
//! * `classify-serial` — one connection, closed loop, one clip per
//!   request: batches of one, an empty queue.
//! * `classify-open` — one connection: a fixed 60/s open-loop phase, a
//!   closed loop with a full batch in flight, then bisections of a
//!   ladder of open-loop rates for the highest one that meets the
//!   latency limit.
//! * `scan-mixed` — full-chip scans back to back on one connection, a
//!   40/s classify trickle on a second.

use crate::check::{check_classify, check_scan, ClipRef};
use crate::conn::{reply_id, Conn, ProtoTimes};
use crate::inputs::{sub_seed, SCAN_STRIDE};
use crate::openloop::{bisect, ladder_rates, max_rate_at_slo, poisson_schedule, Sample, Step};
use hotspot_bnn::ScanReport;
use hotspot_geometry::BitImage;
use hotspot_serve::{Request, Response, ServeConfig, Server};
use hotspot_telemetry::{FlightRecorder, RequestRecord};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Latency limit of the SLO ladder, ms: twice the light-load p99 of
/// this host's slow phases, so a rung fails on queueing rather than on
/// the escalated requests' own latency (see README).
pub const SLO_MS: f64 = 100.0;
/// Fixed open-loop rate of `classify-open`, per second: a quarter of the
/// server's batch-one capacity in the host's slow phases, so the tail
/// is the requests' own latency rather than queueing (see README).
pub const FIXED_RATE: f64 = 60.0;
/// Classify trickle of `scan-mixed`, per second.
pub const TRICKLE_RATE: f64 = 40.0;
/// The SLO ladder: 100 · 1.05^k per second for k < 31 (100 to ~432/s).
pub const LADDER_BASE: f64 = 100.0;
pub const LADDER_STEPS: usize = 31;
/// Probes one bisection of the 31-rung ladder takes.
const FULL_SEARCH: usize = 5;
/// Set-ups whose servers are shut down at once, made before the
/// traffic's own set-up and again after the traffic; `setup_s` is the
/// median of all `2 · SETUP_REPS + 1`.
pub const SETUP_REPS: usize = 7;

/// Trace ids the benchmark assigns carry this tag, so flight records of
/// its requests are told apart from server-minted ids.
const TRACE_TAG: u64 = 0x5be0 << 48;
/// Request-id bases per traffic kind.  Set-up and warm-up ids are a
/// multiple of the corpus size plus the clip index; traced runs leave
/// them out.
const SCAN_IDS: u64 = 1 << 40;
const TRICKLE_IDS: u64 = 1 << 41;
const SETUP_IDS: u64 = 1 << 42;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["classify-serial", "classify-open", "scan-mixed"];

/// Read-only inputs of a run.
pub struct Ctx<'a> {
    pub model_path: &'a Path,
    pub corpus: &'a [BitImage],
    pub refs: &'a [ClipRef],
    pub threshold: f32,
    /// The scan chip and its local cascade / triage-only scans.
    pub chip: Option<(&'a BitImage, &'a ScanReport, &'a ScanReport)>,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx<'_> {
    fn classify(&self, id: u64) -> Request {
        let clip = &self.corpus[(id as usize) % self.corpus.len()];
        Request::Classify {
            id,
            deadline_ms: 0,
            width: clip.width() as u32,
            height: clip.height() as u32,
            words: clip.as_words().to_vec(),
            trace_id: TRACE_TAG | id,
        }
    }

    fn clip_ref(&self, id: u64) -> ClipRef {
        self.refs[(id as usize) % self.refs.len()]
    }
}

/// Per-layer raw data a traced run keeps.
#[derive(Default)]
pub struct Traced {
    /// Flight records of the benchmark's classify requests, by trace id.
    pub records: HashMap<u64, RequestRecord>,
    /// Client-observed send → reply latency, ns, by trace id.
    pub client_ns: HashMap<u64, f64>,
    pub proto: ProtoTimes,
    /// Server counters at the end of the run.
    pub requests: u64,
    pub shed: u64,
    pub deadline_miss: u64,
    /// Set-up split: model load, and server start through first reply.
    pub load_ms: Vec<f64>,
    pub first_reply_ms: Vec<f64>,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// First few mismatch descriptions.
    pub mismatch_log: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Classify latency, ms (closed loop: send → reply; open loop: due
    /// → reply); failures are infinite.
    pub classify_ms: Vec<f64>,
    pub classify_ok: u64,
    pub escalated: u64,
    /// The latencies in `classify_ms` of verified replies the cascade
    /// escalated, ms.
    pub escalated_ms: Vec<f64>,
    pub degraded: u64,
    /// Closed-loop classify replies per second (with a full batch in
    /// flight on `classify-open`).
    pub qps: Option<f64>,
    /// Open-loop generator lateness, ms.
    pub lateness_ms: Vec<f64>,
    pub steps: Vec<Step>,
    /// Ladder-rung requests, and those rejected or unanswered.
    pub ladder_requests: u64,
    pub ladder_rejected: u64,
    pub scan_ms: Vec<f64>,
    /// Windows one scan scores.
    pub scan_windows: u64,
    pub scan_seconds: f64,
    pub traced: Option<Traced>,
}

impl Outcome {
    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.mismatch_log.len() < 5 {
            self.mismatch_log.push(what);
        }
    }

    /// Books one classify reply; returns whether it verified.
    fn classify_reply(&mut self, ctx: &Ctx<'_>, id: u64, resp: &Response) -> bool {
        if let Response::Error { .. } = resp {
            self.failed += 1;
            return false;
        }
        match check_classify(resp, id, ctx.clip_ref(id), ctx.threshold) {
            Ok(()) => {
                self.classify_ok += 1;
                if let Response::Classify {
                    escalated,
                    degraded,
                    ..
                } = *resp
                {
                    self.escalated += u64::from(escalated);
                    self.degraded += u64::from(degraded);
                }
                true
            }
            Err(e) => {
                self.failed += 1;
                self.mismatch(e);
                false
            }
        }
    }

    fn client_latency(&mut self, id: u64, ns: f64) {
        if let Some(t) = &mut self.traced {
            t.client_ns.insert(TRACE_TAG | id, ns);
        }
    }

    /// Folds the trickle thread's tally into this one.
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.mismatch_log.extend(other.mismatch_log);
        self.classify_ms.extend(other.classify_ms);
        self.classify_ok += other.classify_ok;
        self.escalated += other.escalated;
        self.escalated_ms.extend(other.escalated_ms);
        self.degraded += other.degraded;
        self.lateness_ms.extend(other.lateness_ms);
        if let (Some(t), Some(o)) = (&mut self.traced, other.traced) {
            t.client_ns.extend(o.client_ns);
            t.proto
                .encode_classify_ns
                .extend(o.proto.encode_classify_ns);
            t.proto.decode_ns.extend(o.proto.decode_ns);
        }
    }

    fn take_proto(&mut self, conn: &mut Conn) {
        if let (Some(t), Some(p)) = (&mut self.traced, conn.times.take()) {
            t.proto.encode_classify_ns.extend(p.encode_classify_ns);
            t.proto.encode_scan_ns.extend(p.encode_scan_ns);
            t.proto.decode_ns.extend(p.decode_ns);
            t.proto.scan_frame_bytes = t.proto.scan_frame_bytes.max(p.scan_frame_bytes);
        }
    }
}

/// Whether a classify reply went through the cascade's confirm pass.
fn escalated(resp: &Response) -> bool {
    matches!(
        resp,
        Response::Classify {
            escalated: true,
            ..
        }
    )
}

/// Copies the benchmark's classify records out of the flight recorder
/// ring at most every half second (the ring holds the last 1024).
struct FlightPoll<'a> {
    flight: &'a FlightRecorder,
    last: Instant,
}

impl FlightPoll<'_> {
    fn poll(&mut self, out: &mut Outcome, force: bool) {
        let Some(t) = &mut out.traced else {
            return;
        };
        if !force && self.last.elapsed() < Duration::from_millis(500) {
            return;
        }
        self.last = Instant::now();
        for r in self.flight.snapshot() {
            // Classify requests only: not set-up or warm-up requests,
            // not scans.
            let id = r.trace_id & !TRACE_TAG;
            if r.trace_id & TRACE_TAG == TRACE_TAG
                && id < SETUP_IDS
                && !(SCAN_IDS..TRICKLE_IDS).contains(&id)
            {
                t.records.insert(r.trace_id, r);
            }
        }
    }
}

/// Loads the model and starts a server through its first verified
/// reply; returns the running server.
fn set_up(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<Server, String> {
    let start = Instant::now();
    let model = hotspot_core::persist::load_model(ctx.model_path).map_err(|e| e.to_string())?;
    let loaded = start.elapsed();
    let mut config = ServeConfig::new(ctx.corpus[0].width());
    config.cascade_threshold = ctx.threshold;
    let server = Server::start(config, model).map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(server.addr(), false).map_err(|e| e.to_string())?;
    // A clip the cascade does not escalate, so set-up costs the same
    // whatever the seed makes of the corpus.
    let clip = ctx
        .refs
        .iter()
        .position(|r| r.triage.abs() >= ctx.threshold);
    let id = SETUP_IDS + clip.unwrap_or(0) as u64;
    conn.send(&ctx.classify(id)).map_err(|e| e.to_string())?;
    let (resp, _) = conn
        .recv(None)
        .map_err(|e| e.to_string())?
        .ok_or("no first reply")?;
    check_classify(&resp, id, ctx.clip_ref(id), ctx.threshold)?;
    let total = start.elapsed();
    out.setup_s.push(total.as_secs_f64());
    if let Some(t) = &mut out.traced {
        t.load_ms.push(loaded.as_secs_f64() * 1e3);
        t.first_reply_ms.push((total - loaded).as_secs_f64() * 1e3);
    }
    Ok(server)
}

/// Sends every corpus clip once, keeping two full batches in flight, and
/// checks the replies, so both workers have run full batches and the
/// confirm pass before the traffic: otherwise the peak resident set
/// depends on which worker happened to serve which request.
fn warm_up(ctx: &Ctx<'_>, server: &Server) -> Result<(), String> {
    let window = 2 * ServeConfig::new(ctx.corpus[0].width()).max_batch as u64;
    let total = ctx.corpus.len() as u64;
    let mut conn = Conn::connect(server.addr(), false).map_err(|e| e.to_string())?;
    let (mut sent, mut done) = (0, 0);
    while done < total {
        while sent < total && sent - done < window {
            conn.send(&ctx.classify(SETUP_IDS + sent))
                .map_err(|e| e.to_string())?;
            sent += 1;
        }
        let (resp, _) = conn
            .recv(None)
            .map_err(|e| e.to_string())?
            .ok_or("no warm-up reply")?;
        let id = reply_id(&resp);
        check_classify(&resp, id, ctx.clip_ref(id), ctx.threshold)?;
        done += 1;
    }
    Ok(())
}

/// `SETUP_REPS` set-ups whose servers are shut down at once.
fn set_up_and_drop(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        set_up(ctx, out)?.shutdown();
    }
    Ok(())
}

/// Runs one open-loop phase on `conn`: request `k` is due at
/// `schedule[k]` seconds and carries id `id_base + k`.  This thread
/// sends on schedule (sleeping until each due time); a receiver thread
/// reads replies as they arrive.
fn open_loop(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    schedule: &[f64],
    id_base: u64,
    out: &mut Outcome,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = schedule.iter().map(|&d| Sample::scheduled(d)).collect();
    let mut sent_at: Vec<Option<Instant>> = vec![None; schedule.len()];
    let sent = AtomicUsize::new(0);
    let sending = AtomicBool::new(true);
    let Ok(mut reader) = conn.split() else {
        out.attempted += samples.len() as u64;
        out.failed += samples.len() as u64;
        return samples;
    };
    let t0 = Instant::now() + Duration::from_millis(2);
    let replies = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut replies = Vec::with_capacity(schedule.len());
            // Wait for every sent request; give up 5 s after the last
            // send or reply.
            let mut quiet_since = Instant::now();
            loop {
                let done = !sending.load(Ordering::SeqCst);
                if done && replies.len() >= sent.load(Ordering::SeqCst) {
                    break;
                }
                if done && quiet_since.elapsed() > Duration::from_secs(5) {
                    break;
                }
                match reader.recv(Some(Instant::now() + Duration::from_millis(100))) {
                    Ok(Some(reply)) => {
                        quiet_since = Instant::now();
                        replies.push(reply);
                    }
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
            replies
        });
        for (k, &due) in schedule.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            match conn.send(&ctx.classify(id_base + k as u64)) {
                Ok(at) => {
                    sent_at[k] = Some(at);
                    sent.fetch_add(1, Ordering::SeqCst);
                }
                Err(_) => break,
            }
        }
        sending.store(false, Ordering::SeqCst);
        receiver.join().expect("receiver thread panicked")
    });
    let secs = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    for (resp, at) in replies {
        let id = reply_id(&resp);
        let Some(k) = id.checked_sub(id_base).map(|k| k as usize) else {
            continue;
        };
        if k >= samples.len() || samples[k].done.is_some() {
            continue;
        }
        samples[k].done = Some(secs(at));
        samples[k].ok = out.classify_reply(ctx, id, &resp);
        if samples[k].ok && escalated(&resp) {
            out.escalated_ms.push(samples[k].latency_from_due_ms());
        }
        if let Some(sent) = sent_at[k] {
            out.client_latency(id, at.saturating_duration_since(sent).as_nanos() as f64);
        }
    }
    for (s, at) in samples.iter_mut().zip(&sent_at) {
        s.sent = at.map_or(f64::NAN, secs);
    }
    out.take_proto(&mut reader);
    // Unsent and unanswered requests failed.
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| s.done.is_none()).count() as u64;
    out.lateness_ms.extend(
        samples
            .iter()
            .filter(|s| s.sent.is_finite())
            .map(Sample::lateness_ms),
    );
    samples
}

fn classify_serial(ctx: &Ctx<'_>, server: &Server, out: &mut Outcome) -> Result<(), String> {
    let mut conn = Conn::connect(server.addr(), out.traced.is_some()).map_err(|e| e.to_string())?;
    let mut flight = FlightPoll {
        flight: server.flight(),
        last: Instant::now(),
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let mut id = 1u64;
    while Instant::now() < end {
        let req = ctx.classify(id);
        out.attempted += 1;
        let reply = conn
            .send(&req)
            .and_then(|sent| Ok((sent, conn.recv(None)?)));
        match reply {
            Ok((sent, Some((resp, at)))) => {
                let ns = at.saturating_duration_since(sent).as_nanos() as f64;
                let ok = out.classify_reply(ctx, id, &resp);
                out.classify_ms
                    .push(if ok { ns / 1e6 } else { f64::INFINITY });
                if ok && escalated(&resp) {
                    out.escalated_ms.push(ns / 1e6);
                }
                out.client_latency(id, ns);
            }
            Ok((_, None)) | Err(_) => {
                out.failed += 1;
                out.classify_ms.push(f64::INFINITY);
                break;
            }
        }
        flight.poll(out, false);
        id += 1;
    }
    out.qps = Some(out.classify_ok as f64 / start.elapsed().as_secs_f64());
    flight.poll(out, true);
    out.take_proto(&mut conn);
    Ok(())
}

/// Closed loop with `window` requests in flight on `conn` for `seconds`,
/// ids from `first_id`.  Returns the verified replies and the requests
/// sent.
fn saturate(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    window: usize,
    first_id: u64,
    seconds: f64,
    out: &mut Outcome,
) -> (u64, u64) {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut sent, mut in_flight, mut ok) = (0u64, 0u64, 0u64);
    while in_flight < window as u64 && conn.send(&ctx.classify(first_id + sent)).is_ok() {
        sent += 1;
        in_flight += 1;
    }
    while in_flight > 0 {
        let Ok(Some((resp, _))) = conn.recv(None) else {
            out.failed += in_flight;
            break;
        };
        in_flight -= 1;
        ok += u64::from(out.classify_reply(ctx, reply_id(&resp), &resp));
        if Instant::now() < end && conn.send(&ctx.classify(first_id + sent)).is_ok() {
            sent += 1;
            in_flight += 1;
        }
    }
    out.attempted += sent;
    (ok, sent)
}

fn classify_open(ctx: &Ctx<'_>, server: &Server, out: &mut Outcome) -> Result<(), String> {
    let mut conn = Conn::connect(server.addr(), out.traced.is_some()).map_err(|e| e.to_string())?;
    let mut flight = FlightPoll {
        flight: server.flight(),
        last: Instant::now(),
    };
    // 70 % of the run alternates five times between the fixed open-loop
    // rate, which gives the latency figures, and a full batch in flight,
    // which gives the batched capacity.  Alternating spreads both over
    // more of the host's speed phases than two solid blocks would.
    const ROUNDS: u64 = 5;
    let window = ServeConfig::new(ctx.corpus[0].width()).max_batch;
    let mut next_id = 1;
    let (mut ok, mut busy_s) = (0, 0.0);
    for round in 0..ROUNDS {
        let schedule = poisson_schedule(
            FIXED_RATE,
            ctx.seconds * 0.5 / ROUNDS as f64,
            sub_seed(ctx.seed, 11 + round),
        );
        let samples = open_loop(ctx, &mut conn, &schedule, next_id, out);
        out.classify_ms
            .extend(samples.iter().map(Sample::latency_from_due_ms));
        next_id += schedule.len() as u64;
        let start = Instant::now();
        let (replies, sent) = saturate(
            ctx,
            &mut conn,
            window,
            next_id,
            ctx.seconds * 0.2 / ROUNDS as f64,
            out,
        );
        busy_s += start.elapsed().as_secs_f64();
        ok += replies;
        next_id += sent;
        flight.poll(out, true);
    }
    out.qps = Some(ok as f64 / busy_s);
    // ...and the rest bisects the rate ladder, search after search, until
    // the run's time is spent.  The highest rung any search passed is
    // the result: a host slow phase can break a search, not lower a
    // later one.
    let probe_s = ctx.seconds / 20.0;
    let ladder_end = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.3);
    let rates = ladder_rates(LADDER_BASE, LADDER_STEPS);
    let mut probes = 0u64;
    let mut probe = |rate: f64| -> Option<Step> {
        if Instant::now() + Duration::from_secs_f64(probe_s) > ladder_end {
            return None;
        }
        probes += 1;
        let schedule = poisson_schedule(rate, probe_s, sub_seed(ctx.seed, 100 + probes));
        let mut rung = Outcome::default();
        let samples = open_loop(ctx, &mut conn, &schedule, next_id, &mut rung);
        next_id += schedule.len() as u64;
        // Rejections and lateness above the knee are what the ladder
        // measures, so rungs count toward `ladder_rejected`, not the
        // run's failed operations; a wrong answer fails the run on any
        // rung.
        out.ladder_requests += rung.attempted;
        out.ladder_rejected += rung.failed - rung.mismatches;
        out.failed += rung.mismatches;
        out.mismatches += rung.mismatches;
        out.mismatch_log.extend(rung.mismatch_log);
        flight.poll(out, true);
        Some(Step::judge(rate, probe_s, &samples))
    };
    let mut steps = Vec::new();
    loop {
        let search = bisect(&rates, SLO_MS, &mut probe);
        let complete = search.len() == FULL_SEARCH;
        steps.extend(search);
        if !complete {
            break;
        }
    }
    out.steps = steps;
    out.take_proto(&mut conn);
    Ok(())
}

fn scan_mixed(ctx: &Ctx<'_>, server: &Server, out: &mut Outcome) -> Result<(), String> {
    let (chip, full, triage) = ctx.chip.ok_or("scan-mixed needs a chip")?;
    let traced = out.traced.is_some();
    let addr = server.addr();
    let trickle = std::thread::scope(|s| {
        let trickle = s.spawn(|| {
            let mut part = Outcome {
                traced: traced.then(Traced::default),
                ..Outcome::default()
            };
            let mut conn = Conn::connect(addr, traced).map_err(|e| e.to_string())?;
            let schedule = poisson_schedule(TRICKLE_RATE, ctx.seconds, sub_seed(ctx.seed, 21));
            let samples = open_loop(ctx, &mut conn, &schedule, TRICKLE_IDS, &mut part);
            part.classify_ms = samples.iter().map(Sample::latency_from_due_ms).collect();
            part.take_proto(&mut conn);
            Ok::<Outcome, String>(part)
        });
        let scans = scan_loop(ctx, server, chip, full, triage, out);
        let trickle = trickle
            .join()
            .map_err(|_| "trickle thread panicked".to_string());
        scans.and(trickle)
    })??;
    out.absorb(trickle);
    Ok(())
}

fn scan_loop(
    ctx: &Ctx<'_>,
    server: &Server,
    chip: &BitImage,
    full: &ScanReport,
    triage: &ScanReport,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut conn = Conn::connect(server.addr(), out.traced.is_some()).map_err(|e| e.to_string())?;
    let mut flight = FlightPoll {
        flight: server.flight(),
        last: Instant::now(),
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let mut id = SCAN_IDS;
    while Instant::now() < end {
        let req = Request::Scan {
            id,
            deadline_ms: 0,
            stride: SCAN_STRIDE as u32,
            width: chip.width() as u32,
            height: chip.height() as u32,
            words: chip.as_words().to_vec(),
            trace_id: TRACE_TAG | id,
        };
        out.attempted += 1;
        match conn
            .send(&req)
            .and_then(|sent| Ok((sent, conn.recv(None)?)))
        {
            Ok((sent, Some((resp, at)))) => match check_scan(&resp, id, full, triage) {
                Ok(()) => {
                    out.scan_ms
                        .push(at.saturating_duration_since(sent).as_secs_f64() * 1e3);
                }
                Err(e) => {
                    out.failed += 1;
                    out.scan_ms.push(f64::INFINITY);
                    if !matches!(resp, Response::Error { .. }) {
                        out.mismatch(e);
                    }
                }
            },
            Ok((_, None)) | Err(_) => {
                out.failed += 1;
                out.scan_ms.push(f64::INFINITY);
                break;
            }
        }
        flight.poll(out, false);
        id += 1;
    }
    out.scan_windows = full.windows as u64;
    out.scan_seconds = start.elapsed().as_secs_f64();
    flight.poll(out, true);
    out.take_proto(&mut conn);
    Ok(())
}

/// Runs `workload` once: set-up, then the measured traffic.
pub fn run(ctx: &Ctx<'_>, workload: &str, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        traced: traced.then(Traced::default),
        ..Outcome::default()
    };
    // Set-up is timed before and after the traffic, so `setup_s` samples
    // the host at both ends of the run; the traffic uses the last server
    // set up before it.
    set_up_and_drop(ctx, &mut out)?;
    let server = set_up(ctx, &mut out)?;
    warm_up(ctx, &server)?;
    let result = match workload {
        "classify-serial" => classify_serial(ctx, &server, &mut out),
        "classify-open" => classify_open(ctx, &server, &mut out),
        "scan-mixed" => scan_mixed(ctx, &server, &mut out),
        other => Err(format!("unknown workload {other}")),
    };
    if let Some(t) = &mut out.traced {
        let m = server.metrics();
        t.requests = m.counter("serve_requests_total").get();
        t.shed = m.counter("serve_shed_total").get();
        t.deadline_miss = m.counter("serve_deadline_miss_total").get();
    }
    server.shutdown();
    result?;
    set_up_and_drop(ctx, &mut out)?;
    Ok(out)
}

/// The highest ladder rate that met the limit, as verified replies per
/// second of that rung.
pub fn max_qps_at_slo(out: &Outcome) -> Option<&Step> {
    max_rate_at_slo(&out.steps, SLO_MS)
}
