//! The `serve-hot` workload: an in-process `indigo_serve::Server` on the
//! default `ServerConfig`, primed with a seeded set of Tiny `/run` cells
//! and a fixed set of `/sweep` slices so every measured answer is a cache
//! hit, driven over loopback HTTP by this process with `nproc`
//! connections.
//!
//! The measured time alternates fixed-rate open-loop segments (latency
//! timed from each request's intended send time) and closed-loop segments
//! (goodput within the server's own SLO), each pair on a freshly set-up
//! server.

use crate::trace::{self, Recorder, Span};
use crate::workload;
use crate::{lat_group, set_latency, stats, sys, Report};
use indigo_serve::client::Client;
use indigo_serve::{Server, ServerConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Distinct `/run` cells primed and replayed, besides the
/// `workload::HOT_SWEEPS` slices.
const HOT_RUNS: usize = 12;
/// Open-loop rate, requests per second: about a third of the cache-hit
/// capacity of a 2-core host (some 15k/s closed-loop), so the queue does
/// not grow. Sparser traffic would let the cores idle between requests,
/// and on a virtual machine the idle-core wake-up then dominates the tail.
const RATE: f64 = 5000.0;
/// The measured time alternates open-loop and closed-loop segments of
/// these lengths, so both phases sample the whole run and each metric is a
/// median over segments: the host's speed drifts on a scale of seconds.
const SEGMENT_OPEN: Duration = Duration::from_secs(3);
const SEGMENT_CLOSED: Duration = Duration::from_secs(1);
/// Set-ups before every segment, the last of which serves the segment;
/// `setup_s` is the median over the run.
const SETUPS_PER_SEGMENT: usize = 2;
/// The `/stats` counters a traced run reads, summed over the run's servers.
const STATS_KEYS: [&str; 4] = ["requests", "cache_hits", "shed", "keepalive_reuses"];
/// Open-loop latencies are summarised per window of this many requests,
/// 40 ms of traffic (see `set_latency`), whose tail is then the 95th
/// percentile. Many short windows and their median make a steadier tail
/// than one deeper percentile read off ten samples of the whole run.
const WINDOW: usize = 200;
/// A failed or refused request counts as this late: past every limit.
const FAILED_LATENCY_MS: f64 = 60_000.0;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// What one response carried, parsed from its JSON body.
#[derive(Debug, PartialEq)]
pub struct Answer {
    pub status: u16,
    pub degraded: bool,
    pub cached: bool,
    /// queue, batch wait, execute, total — µs, from the `timing` body.
    pub timing: Option<[u64; 4]>,
    /// (variant, target, geps bits) of every answered cell.
    pub cells: Vec<(String, String, u64)>,
}

/// How a request ended, for the error rate and goodput.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Good,
    /// 429 from admission control.
    Shed,
    /// A 200 carrying `degraded: true` (breaker open, serial oracle).
    Degraded,
    /// Any other non-2xx status.
    Failed,
    /// No HTTP answer at all.
    Transport,
}

pub fn classify(res: &Result<Answer, String>) -> Verdict {
    match res {
        Err(_) => Verdict::Transport,
        Ok(a) if a.status == 429 => Verdict::Shed,
        Ok(a) if !(200..300).contains(&a.status) => Verdict::Failed,
        Ok(a) if a.degraded => Verdict::Degraded,
        Ok(_) => Verdict::Good,
    }
}

/// Failed operations: everything but a good answer.
pub fn failures(verdicts: &[Verdict]) -> u64 {
    verdicts.iter().filter(|v| **v != Verdict::Good).count() as u64
}

fn after<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    body.find(&pat).map(|i| &body[i + pat.len()..])
}

fn field_u64(body: &str, key: &str) -> Option<u64> {
    let rest = after(body, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_bool(body: &str, key: &str) -> bool {
    after(body, key).is_some_and(|r| r.starts_with("true"))
}

fn field_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = after(body, key)?.strip_prefix('"')?;
    rest.find('"').map(|e| &rest[..e])
}

/// Parses the parts of a response body the benchmark reads.
pub fn parse_answer(status: u16, body: &str) -> Answer {
    let timing = after(body, "timing").and_then(|t| {
        Some([
            field_u64(t, "queue_us")?,
            field_u64(t, "batch_wait_us")?,
            field_u64(t, "execute_us")?,
            field_u64(t, "total_us")?,
        ])
    });
    let mut cells = Vec::new();
    if let Some(list) = after(body, "cells") {
        let list = &list[..list.find(']').unwrap_or(list.len())];
        for obj in list.split("{\"fp\":").skip(1) {
            if let (Some(v), Some(t), Some(bits)) = (
                field_str(obj, "variant"),
                field_str(obj, "target"),
                field_str(obj, "geps_bits").and_then(|b| u64::from_str_radix(b, 16).ok()),
            ) {
                cells.push((v.to_string(), t.to_string(), bits));
            }
        }
    }
    Answer {
        status,
        degraded: field_bool(body, "degraded"),
        cached: field_bool(body, "cached"),
        timing,
        cells,
    }
}

/// One sent open-loop request. A run keeps the samples of one segment at
/// a time, so the load generator's memory does not grow with the run; a
/// traced run also keeps the first segment's, for the request spans.
struct Sample {
    /// Index of the request in the run.
    req: u32,
    /// Index of the target asked for.
    target: u16,
    verdict: Verdict,
    /// A good answer that is not the primed cache hit.
    mismatch: bool,
    n_cells: u16,
    /// Microseconds from the first segment's start.
    intended_us: u32,
    sent_us: u32,
    done_us: u32,
}

impl Sample {
    /// Latency from the intended send time; a failure misses every limit.
    fn latency_ms(&self) -> f64 {
        if self.verdict == Verdict::Good {
            f64::from(self.done_us - self.intended_us) / 1e3
        } else {
            FAILED_LATENCY_MS
        }
    }

    fn cells(&self) -> u64 {
        if self.verdict == Verdict::Good {
            u64::from(self.n_cells)
        } else {
            0
        }
    }
}

/// The stage timing of one good open-loop answer, kept by a traced run.
struct Timed {
    /// queue, batch wait, execute, total — µs, from the `timing` body.
    stages: [u64; 4],
    /// Send to answer as the client saw it, µs.
    client_us: u64,
}

/// What the closed loop counts; nothing is kept per request.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    cells: u64,
    /// Good answers within the SLO.
    good: u64,
    /// Good answers that are not the primed cache hit, and one of their
    /// targets.
    mismatches: u64,
    mismatched: Option<u16>,
}

impl Tally {
    fn add(&mut self, t: Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.cells += t.cells;
        self.good += t.good;
        self.mismatches += t.mismatches;
        self.mismatched = self.mismatched.or(t.mismatched);
    }
}

/// Primed answers by target: serve-hot's expected cache hits.
type Primed = HashMap<String, Vec<(String, String, u64)>>;

/// A good answer must be a cache hit carrying exactly the primed cells.
fn is_primed_hit(primed: &Primed, target: &str, a: &Answer) -> bool {
    a.cached && primed.get(target) == Some(&a.cells)
}

fn send(client: &mut Client, target: &str) -> Result<Answer, String> {
    client
        .get(target)
        .map(|r| parse_answer(r.status, &r.body))
        .map_err(|e| e.to_string())
}

fn micros(d: Duration) -> u32 {
    u32::try_from(d.as_micros()).unwrap_or(u32::MAX)
}

/// Open loop: the targets `reqs` index go out at [`RATE`] from now, on
/// `conns` connections, numbered from `first`; a connection takes the next
/// due request when it is free. Every answer is checked against `primed`
/// as it arrives; stage timings are kept only with `keep`. Times are kept
/// from `t0`.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    addr: SocketAddr,
    targets: &[String],
    reqs: &[u16],
    first: usize,
    conns: usize,
    primed: &Primed,
    keep: bool,
    t0: Instant,
) -> (Vec<Sample>, Vec<Timed>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let offset = start.duration_since(t0);
    let due = |k: usize| Duration::from_secs_f64(k as f64 / RATE);
    let (mut samples, mut timed) = (Vec::with_capacity(reqs.len()), Vec::new());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::new(addr, CLIENT_TIMEOUT);
                    let mut mine = Vec::with_capacity(reqs.len() / conns + 1);
                    let mut timed = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= reqs.len() {
                            break;
                        }
                        if let Some(wait) = due(k).checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let target = &targets[usize::from(reqs[k])];
                        let sent = t0.elapsed();
                        let answer = send(&mut client, target);
                        let done = t0.elapsed();
                        let verdict = classify(&answer);
                        let good = answer.ok().filter(|_| verdict == Verdict::Good);
                        if let Some(stages) = good.as_ref().and_then(|a| a.timing).filter(|_| keep)
                        {
                            timed.push(Timed {
                                stages,
                                client_us: (done - sent).as_micros() as u64,
                            });
                        }
                        mine.push(Sample {
                            req: (first + k) as u32,
                            target: reqs[k],
                            verdict,
                            mismatch: good
                                .as_ref()
                                .is_some_and(|a| !is_primed_hit(primed, target, a)),
                            n_cells: good.as_ref().map_or(0, |a| a.cells.len() as u16),
                            intended_us: micros(offset + due(k)),
                            sent_us: micros(sent),
                            done_us: micros(done),
                        });
                    }
                    (mine, timed)
                })
            })
            .collect();
        for w in workers {
            let (mine, t) = w.join().expect("open-loop client panicked");
            samples.extend(mine);
            timed.extend(t);
        }
    });
    samples.sort_by_key(|s| s.req);
    (samples, timed)
}

/// Closed loop: `conns` connections each send their next request as soon
/// as the last one answers, until `length` has passed. Each request is the
/// target `reqs[next % reqs.len()]` indexes, `next` counting across calls.
/// Every good answer is checked against `primed`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: SocketAddr,
    targets: &[String],
    reqs: &[u16],
    next: &AtomicUsize,
    conns: usize,
    primed: &Primed,
    length: Duration,
    slo: Duration,
) -> Tally {
    let start = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::new(addr, CLIENT_TIMEOUT);
                    let mut t = Tally::default();
                    while start.elapsed() < length {
                        let i = reqs[next.fetch_add(1, Ordering::Relaxed) % reqs.len()];
                        let target = &targets[usize::from(i)];
                        let sent = Instant::now();
                        let answer = send(&mut client, target);
                        let latency = sent.elapsed();
                        t.attempted += 1;
                        match (classify(&answer), answer) {
                            (Verdict::Good, Ok(a)) => {
                                t.cells += a.cells.len() as u64;
                                t.good += u64::from(latency <= slo);
                                if !is_primed_hit(primed, target, &a) {
                                    t.mismatches += 1;
                                    t.mismatched.get_or_insert(i);
                                }
                            }
                            _ => t.failed += 1,
                        }
                    }
                    t
                })
            })
            .collect();
        let mut total = Tally::default();
        for w in workers {
            total.add(w.join().expect("closed-loop client panicked"));
        }
        total
    })
}

fn start_server() -> Result<Server, String> {
    Server::start(ServerConfig::default()).map_err(|e| format!("server failed to start: {e}"))
}

/// Primes every target once; returns each target's answered cells.
fn prime(addr: SocketAddr, targets: &[String]) -> Result<Primed, String> {
    let mut client = Client::new(addr, CLIENT_TIMEOUT);
    targets
        .iter()
        .map(|t| {
            let answer = send(&mut client, t);
            let verdict = classify(&answer);
            let a = answer?;
            if verdict != Verdict::Good || a.cells.is_empty() {
                return Err(format!("priming {t} answered {}", a.status));
            }
            Ok((t.clone(), a.cells))
        })
        .collect()
}

/// Starts and primes a server [`SETUPS_PER_SEGMENT`] times, timing each
/// into `setups`, and returns the last one with its primed answers.
fn set_up(targets: &[String], setups: &mut Vec<f64>) -> Result<(Server, Primed), String> {
    let mut last = None;
    for _ in 0..SETUPS_PER_SEGMENT {
        drop(last.take());
        let t = Instant::now();
        let server = start_server()?;
        let primed = prime(server.addr(), targets)?;
        setups.push(t.elapsed().as_secs_f64());
        last = Some((server, primed));
    }
    Ok(last.expect("at least one set-up"))
}

fn percentile_of(values: &[f64], want: f64) -> Option<f64> {
    let sorted = stats::sorted(values);
    if want == 50.0 {
        return (!sorted.is_empty()).then(|| stats::median(&sorted));
    }
    stats::tail(&sorted, want).map(|t| t.value)
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Result<Report, String> {
    let conns = sys::nproc();
    let mut r = Report::default();
    let defaults = ServerConfig::default();
    r.param("scale", "tiny");
    r.param("connections", conns);
    r.param("server_workers", defaults.workers);
    r.param("server_queue", defaults.queue);
    r.param("slo_ms", defaults.slo_micros / 1000);
    r.param("rate_rps", RATE);
    r.param("segment_open_s", SEGMENT_OPEN.as_secs());
    r.param("segment_closed_s", SEGMENT_CLOSED.as_secs());

    let targets = workload::hot_targets(seed, HOT_RUNS);
    r.param("targets", targets.len());
    let segments = (budget.as_secs() / (SEGMENT_OPEN + SEGMENT_CLOSED).as_secs()).max(1) as usize;
    let per_segment = (RATE * SEGMENT_OPEN.as_secs_f64()).round() as usize;
    r.param("segments", segments);
    let closed_reqs = workload::hot_requests(seed, u64::MAX, targets.len(), 4096);

    // ---- measure: open and closed segments in turn. Every segment gets a
    // freshly set-up server, so set-up is timed all through the run, not in
    // one burst at its start; each open segment draws its own request list
    // and is summarised before the next.
    let rec = Recorder::default();
    let slo = Duration::from_micros(defaults.slo_micros);
    let closed_next = AtomicUsize::new(0);
    let mut setups = Vec::new();
    let mut counters = [0u64; STATS_KEYS.len()];
    let t0 = Instant::now();
    let mut windows = Vec::new();
    let (mut open_attempted, mut open_mismatches, mut open_mismatched) = (0u64, 0u64, None);
    let mut closed = Tally::default();
    let (mut kept, mut timed) = (Vec::new(), Vec::new());
    let (mut rate_per_segment, mut cpu_per_segment) = (Vec::new(), Vec::new());
    let mut open_wall = Duration::ZERO;
    let mut first_rss = 0.0;
    for seg in 0..segments {
        let (mut server, primed) = set_up(&targets, &mut setups)?;
        let addr = server.addr();
        let reqs = workload::hot_requests(seed, seg as u64, targets.len(), per_segment);
        let cpu0 = sys::cpu_secs();
        let s0 = Instant::now();
        let ((samples, seg_timed), open_id) = rec.time("serve.open_loop", 0, 0, |id| {
            let first = seg * per_segment;
            let keep = traced && seg == 0;
            let out = open_loop(addr, &targets, &reqs, first, conns, &primed, keep, t0);
            (out, id)
        });
        rec.annotate(
            open_id,
            "open-loop".into(),
            vec![("cells".into(), per_segment.to_string())],
        );
        open_wall += s0.elapsed();
        let (tally, closed_id) = rec.time("serve.closed_loop", 0, 0, |id| {
            let tally = closed_loop(
                addr,
                &targets,
                &closed_reqs,
                &closed_next,
                conns,
                &primed,
                SEGMENT_CLOSED,
                slo,
            );
            (tally, id)
        });
        rec.annotate(
            closed_id,
            "closed-loop".into(),
            vec![("cells".into(), tally.attempted.to_string())],
        );
        let cells = samples.iter().map(Sample::cells).sum::<u64>() + tally.cells;
        rate_per_segment.push(cells as f64 / s0.elapsed().as_secs_f64());
        cpu_per_segment.push((sys::cpu_secs() - cpu0) * 1e3 / cells.max(1) as f64);
        let stats_body = Client::new(addr, CLIENT_TIMEOUT)
            .get("/stats")
            .map(|resp| resp.body)
            .map_err(|e| format!("/stats: {e}"))?;
        for (c, key) in counters.iter_mut().zip(STATS_KEYS) {
            *c += field_u64(&stats_body, key).unwrap_or(0);
        }
        server.shutdown();
        if seg == 0 {
            first_rss = sys::peak_rss_mb();
        }

        let verdicts: Vec<Verdict> = samples.iter().map(|s| s.verdict).collect();
        open_attempted += verdicts.len() as u64;
        r.failed += failures(&verdicts);
        for s in samples.iter().filter(|s| s.mismatch) {
            open_mismatches += 1;
            open_mismatched.get_or_insert(s.target);
        }
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        // whole windows only; a short segment is one window
        if lat.len() < WINDOW {
            windows.extend(lat_group(&lat));
        } else {
            windows.extend(lat.chunks_exact(WINDOW).filter_map(lat_group));
        }
        closed.add(tally);
        // a traced run keeps the first segment's requests for the request
        // spans and stage timings, so its bookkeeping stops growing there
        // and later growth is the program's
        if traced && seg == 0 {
            kept = samples;
            timed = seg_timed;
        }
    }
    r.set("setup_s", stats::median(&setups));
    r.param("setups", setups.len());
    // peak_rss_mb is the footprint of one set-up and segment. Every later
    // segment grows the peak a little, by an amount that differs from run
    // to run, so that growth is reported on its own, per segment.
    let growth = (sys::peak_rss_mb() - first_rss) / (segments.max(2) - 1) as f64;
    r.set("peak_rss_mb", first_rss);
    r.set("serve.rss_growth_mb_per_segment", growth);
    r.param("rss_growth_mb_per_segment", format!("{growth:.3}"));

    r.attempted = open_attempted + closed.attempted;
    r.failed += closed.failed;
    r.param("open_requests", open_attempted);
    r.param("closed_requests", closed.attempted);
    r.set("cells_per_s", stats::median(&rate_per_segment));
    r.set("cpu_ms_per_cell", stats::median(&cpu_per_segment));
    set_latency(&mut r, &windows);
    r.set(
        "sat_rps",
        closed.good as f64 / (SEGMENT_CLOSED.as_secs_f64() * segments as f64),
    );

    // ---- correctness: every good answer is the primed cache hit
    for (phase, n, target) in [
        ("open-loop", open_mismatches, open_mismatched),
        ("closed-loop", closed.mismatches, closed.mismatched),
    ] {
        if let Some(t) = target {
            r.mismatches.push(format!(
                "{n} {phase} answers are not the primed cache hit, one for {}",
                targets[usize::from(t)]
            ));
        }
    }

    if traced {
        let offset = t0.duration_since(rec.epoch());
        layer_metrics(
            &rec, offset, &targets, &kept, &timed, open_wall, &counters, &mut r,
        );
    }
    Ok(r)
}

/// Per-layer metrics: request spans, the `timing` bodies and `/stats`.
/// Graph, simulator and verify layers do nothing here and read 0.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    rec: &Recorder,
    offset: Duration,
    targets: &[String],
    open: &[Sample],
    timed: &[Timed],
    open_wall: Duration,
    counters: &[u64; STATS_KEYS.len()],
    r: &mut Report,
) {
    for s in open {
        rec.push(Span {
            id: rec.next_id(),
            parent: 0,
            trace: u64::from(s.req) + 1,
            layer: "request",
            name: format!("request {}", s.req),
            start_ns: offset.as_nanos() as u64 + u64::from(s.sent_us) * 1_000,
            dur_ns: u64::from(s.done_us - s.sent_us) * 1_000,
            args: vec![
                ("target".into(), targets[usize::from(s.target)].clone()),
                ("verdict".into(), format!("{:?}", s.verdict)),
            ],
        });
    }
    let stage = |i: usize| -> Vec<f64> { timed.iter().map(|t| t.stages[i] as f64).collect() };
    for (i, name50, name99) in [
        (0, "serve.queue_us_p50", "serve.queue_us_p99"),
        (2, "serve.execute_us_p50", "serve.execute_us_p99"),
    ] {
        let v = stage(i);
        if let Some(p) = percentile_of(&v, 50.0) {
            r.set(name50, p);
        }
        if let Some(p) = percentile_of(&v, 99.0) {
            r.set(name99, p);
        }
    }
    let transport: Vec<f64> = timed
        .iter()
        .map(|t| t.client_us as f64 - t.stages[3] as f64)
        .collect();
    if let Some(p) = percentile_of(&transport, 50.0) {
        r.set("serve.transport_us_p50", p);
    }
    let late: Vec<f64> = open
        .iter()
        .map(|s| f64::from(s.sent_us.saturating_sub(s.intended_us)) / 1e3)
        .collect();
    if let Some(p) = percentile_of(&late, 99.0) {
        r.set("bench.late_p99_ms", p);
    }

    // counters from /stats
    let get = |k: &str| {
        let i = STATS_KEYS.iter().position(|s| *s == k);
        i.map_or(0.0, |i| counters[i] as f64)
    };
    let requests = get("requests").max(1.0);
    r.set("serve.cache_hit_ratio", get("cache_hits") / requests);
    r.set("serve.shed", get("shed"));
    r.set(
        "serve.keepalive_reuse_ratio",
        get("keepalive_reuses") / requests,
    );

    let spans = rec.take();
    r.set(
        "bench.trace_overhead_frac",
        spans.len() as f64 * trace::span_cost_s() / open_wall.as_secs_f64(),
    );
    r.events = spans.iter().map(trace::to_event).collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK_BODY: &str = "{\"status\":\"ok\",\"cached\":false,\"degraded\":false,\"attempts\":1,\
        \"algo\":\"bfs\",\"model\":\"cuda\",\"graph\":\"road\",\"scale\":\"tiny\",\"cells\":[\
        {\"fp\":\"00000000000000aa\",\"variant\":\"cuda-bfs-x\",\"target\":\"TitanV-sim\",\"geps\":0.5,\
        \"geps_bits\":\"3fe0000000000000\",\"iterations\":3},\
        {\"fp\":\"00000000000000bb\",\"variant\":\"cuda-bfs-x\",\"target\":\"RTX3090-sim\",\"geps\":1,\
        \"geps_bits\":\"3ff0000000000000\",\"iterations\":3}],\
        \"rid\":\"0000000000000001\",\"served_by\":null,\
        \"timing\":{\"queue_us\":12,\"batch_wait_us\":3,\"execute_us\":25000,\"total_us\":25100}}";

    #[test]
    fn answers_parse_cells_timing_and_flags() {
        let a = parse_answer(200, OK_BODY);
        assert!(!a.cached && !a.degraded);
        assert_eq!(a.timing, Some([12, 3, 25000, 25100]));
        assert_eq!(
            a.cells,
            vec![
                (
                    "cuda-bfs-x".into(),
                    "TitanV-sim".into(),
                    0x3fe0_0000_0000_0000
                ),
                (
                    "cuda-bfs-x".into(),
                    "RTX3090-sim".into(),
                    0x3ff0_0000_0000_0000
                ),
            ]
        );
    }

    #[test]
    fn only_a_cached_answer_with_the_primed_cells_is_a_primed_hit() {
        let target = "/run?algo=bfs";
        let miss = parse_answer(200, OK_BODY);
        let primed: Primed = [(target.to_string(), miss.cells.clone())].into();
        let hit = parse_answer(200, &OK_BODY.replace("\"cached\":false", "\"cached\":true"));
        assert!(is_primed_hit(&primed, target, &hit));
        assert!(!is_primed_hit(&primed, target, &miss), "not from the cache");
        assert!(
            !is_primed_hit(&primed, "/run?algo=cc", &hit),
            "never primed"
        );
        let mut other = hit;
        other.cells[1].2 ^= 1;
        assert!(!is_primed_hit(&primed, target, &other), "different bits");
    }

    #[test]
    fn failures_count_sheds_degraded_answers_and_transport_errors() {
        let ok = Ok(parse_answer(200, OK_BODY));
        let shed = Ok(parse_answer(
            429,
            "{\"status\":\"shed\",\"error\":\"admission queue full\",\"retry_after_s\":1}",
        ));
        let degraded = Ok(parse_answer(
            200,
            "{\"status\":\"degraded\",\"degraded\":true,\"breaker\":\"open\"}",
        ));
        let timeout = Ok(parse_answer(504, "{\"status\":\"timeout\"}"));
        let transport: Result<Answer, String> = Err("connection reset".into());
        let verdicts: Vec<Verdict> = [&ok, &shed, &degraded, &timeout, &transport, &ok]
            .into_iter()
            .map(classify)
            .collect();
        assert_eq!(
            verdicts,
            vec![
                Verdict::Good,
                Verdict::Shed,
                Verdict::Degraded,
                Verdict::Failed,
                Verdict::Transport,
                Verdict::Good
            ]
        );
        assert_eq!(failures(&verdicts), 4);
        assert_eq!(failures(&[]), 0);
    }
}
