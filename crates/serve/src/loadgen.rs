//! Open-loop load generator for the serving path (DESIGN.md §7.9).
//!
//! Measures the server the way real clients experience it: requests are
//! fired on a fixed schedule (`rps`), and each latency is taken from the
//! request's **intended** start time — never from when a backed-up client
//! thread finally got around to sending it. That makes the percentiles
//! immune to coordinated omission: a stalled server inflates the reported
//! tail instead of silently thinning the sample stream.
//!
//! A run drives the traffic mix through one in-process server on the
//! serving path (keep-alive connections on the epoll reactor, single-flight
//! batching), then reports percentiles and a closed-loop saturation
//! throughput. The JSON report is `bench-loadgen-v2`; `scripts/ci.sh`'s
//! `serve_perf` stage gates the same measurement.

use crate::client::Client;
use crate::config::ServerConfig;
use crate::server::Server;
use indigo_obs::event::{json_num, json_str};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Traffic shape for a load-generator run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMix {
    /// A small set of distinct `/run` cells, repeated — after priming,
    /// pure cache hits (transport + coalescing dominate).
    Cached,
    /// `/sweep` queries with multi-cell bodies — heavier serialization.
    Sweep,
    /// Both of the above interleaved.
    Mixed,
}

impl LoadMix {
    /// Stable lowercase label (CLI + report).
    pub fn label(self) -> &'static str {
        match self {
            LoadMix::Cached => "cached",
            LoadMix::Sweep => "sweep",
            LoadMix::Mixed => "mixed",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Result<LoadMix, String> {
        match s {
            "cached" => Ok(LoadMix::Cached),
            "sweep" => Ok(LoadMix::Sweep),
            "mixed" => Ok(LoadMix::Mixed),
            other => Err(format!("unknown mix `{other}` (cached|sweep|mixed)")),
        }
    }
}

/// Load-generator tuning.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Offered request rate for the paced (open-loop) phase.
    pub rps: f64,
    /// Concurrent client connections (one thread each).
    pub conns: usize,
    /// Paced-phase duration.
    pub duration: Duration,
    /// Closed-loop saturation-phase duration.
    pub saturation: Duration,
    /// Traffic shape.
    pub mix: LoadMix,
    /// Worker threads per server.
    pub workers: usize,
    /// Admission-queue capacity per server.
    pub queue: usize,
}

impl Default for LoadgenOptions {
    fn default() -> LoadgenOptions {
        LoadgenOptions {
            rps: 300.0,
            conns: 4,
            duration: Duration::from_secs(2),
            saturation: Duration::from_secs(1),
            mix: LoadMix::Mixed,
            workers: 2,
            queue: 64,
        }
    }
}

/// p50/p99 of one pipeline stage, microseconds (server-reported).
#[derive(Clone, Copy, Debug, Default)]
pub struct StagePcts {
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
}

/// Server-side stage attribution aggregated over the paced phase, taken
/// from the `"timing"` fragment each `/run`/`/sweep` body carries
/// (DESIGN.md §7.10).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageLatency {
    /// Admission-queue wait (arrival → worker pickup).
    pub queue: StagePcts,
    /// Flight claim → batch execution start.
    pub batch_wait: StagePcts,
    /// Worker pickup → response assembly.
    pub execute: StagePcts,
}

impl StageLatency {
    fn to_json(self) -> String {
        let stage = |s: StagePcts| format!("{{\"p50\": {}, \"p99\": {}}}", s.p50_us, s.p99_us);
        format!(
            "{{\"queue\": {}, \"batch_wait\": {}, \"execute\": {}}}",
            stage(self.queue),
            stage(self.batch_wait),
            stage(self.execute)
        )
    }
}

/// What a load-generator run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Offered rate (paced phase).
    pub offered_rps: f64,
    /// Completions per second actually achieved in the paced phase.
    pub achieved_rps: f64,
    /// Intended-start latency percentiles, milliseconds (exact).
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile.
    pub p999_ms: f64,
    /// Worst request.
    pub max_ms: f64,
    /// Transport-level failures (must be 0 for a valid run).
    pub transport_errors: u64,
    /// Non-2xx responses (sheds included).
    pub non_2xx: u64,
    /// Server-side sheds.
    pub shed: u64,
    /// Server-side single-flight joins.
    pub coalesced: u64,
    /// Merged plans executed by the batch former.
    pub batches: u64,
    /// Requests served over reused keep-alive connections.
    pub keepalive_reuses: u64,
    /// Closed-loop completions per second.
    pub saturation_rps: f64,
    /// Server-reported per-stage latency attribution (paced phase).
    pub stage_latency_us: StageLatency,
    /// Echo of the run configuration.
    pub config: String,
}

impl LoadgenReport {
    /// Renders the `results/BENCH_loadgen.json` document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"bench-loadgen-v2\",\n  \"offered_rps\": {},\n  \
             \"achieved_rps\": {},\n  \"latency_ms\": \
             {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}},\n  \
             \"transport_errors\": {},\n  \"non_2xx\": {},\n  \"shed\": {},\n  \
             \"coalesced\": {},\n  \"batches\": {},\n  \"keepalive_reuses\": {},\n  \
             \"saturation_rps\": {},\n  \"stage_latency_us\": {},\n  \"config\": {}\n}}\n",
            json_num(self.offered_rps),
            json_num(self.achieved_rps),
            json_num(self.p50_ms),
            json_num(self.p90_ms),
            json_num(self.p99_ms),
            json_num(self.p999_ms),
            json_num(self.max_ms),
            self.transport_errors,
            self.non_2xx,
            self.shed,
            self.coalesced,
            self.batches,
            self.keepalive_reuses,
            json_num(self.saturation_rps),
            self.stage_latency_us.to_json(),
            json_str(&self.config),
        )
    }
}

/// Distinct request targets for a mix (tiny scale keeps runs CI-sized; a
/// generous deadline keeps paced backlogs from turning into 504 noise).
fn targets_for(mix: LoadMix) -> Vec<String> {
    let cached = [
        ("tc", "2d-grid"),
        ("bfs", "copapers"),
        ("cc", "rmat"),
        ("pr", "2d-grid"),
        ("mis", "rmat"),
    ]
    .iter()
    .map(|(a, g)| format!("/run?algo={a}&graph={g}&scale=tiny&deadline_ms=10000"))
    .collect::<Vec<_>>();
    let sweep = [("tc", "2d-grid"), ("bfs", "rmat")]
        .iter()
        .map(|(a, g)| format!("/sweep?algo={a}&graph={g}&scale=tiny&limit=4&deadline_ms=10000"))
        .collect::<Vec<_>>();
    match mix {
        LoadMix::Cached => cached,
        LoadMix::Sweep => sweep,
        LoadMix::Mixed => {
            let mut v = cached;
            v.extend(sweep);
            v
        }
    }
}

/// Exact percentile from a sorted microsecond vector, in milliseconds.
fn pct_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil().max(1.0) as usize;
    sorted_us[rank.min(sorted_us.len()) - 1] as f64 / 1_000.0
}

/// Exact percentile from a sorted microsecond vector, in microseconds.
fn pct_us(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil().max(1.0) as usize;
    sorted_us[rank.min(sorted_us.len()) - 1]
}

/// First integer after `"key":` in a response body's timing fragment.
fn timing_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = body.find(&pat)? + pat.len();
    let rest = &body[i..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Runs the load generator end to end against one in-process server:
/// prime, paced open-loop, closed-loop saturation. `Err` means the run
/// itself was invalid (start failure, priming failure, transport errors) —
/// not that the server was slow.
pub fn run_loadgen(opts: &LoadgenOptions) -> Result<LoadgenReport, String> {
    let timeout = Duration::from_secs(30);
    let cfg = ServerConfig {
        workers: opts.workers,
        queue: opts.queue,
        default_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let mut server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let targets = targets_for(opts.mix);

    // prime: execute every distinct cell once so the measured phases hit
    // the cache (the generator measures the serving path, not gpusim)
    let mut primer = Client::new(addr, timeout);
    for t in &targets {
        let r = primer.get(t).map_err(|e| format!("priming `{t}`: {e}"))?;
        if r.status != 200 {
            return Err(format!("priming `{t}` returned {} ({})", r.status, r.body));
        }
    }
    drop(primer);

    // paced open-loop phase: a global schedule hands out intended start
    // times; latency is measured from the intended start (CO-safe)
    let next = AtomicUsize::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    // per-stage samples parsed from the server's "timing" body fragment:
    // [queue_us, batch_wait_us, execute_us]
    let stage_samples: Mutex<[Vec<u64>; 3]> = Mutex::new([Vec::new(), Vec::new(), Vec::new()]);
    let transport_errors = AtomicU64::new(0);
    let non_2xx = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..opts.conns.max(1) {
            s.spawn(|| {
                let mut conn = Client::new(addr, timeout);
                let mut local = Vec::new();
                let mut local_stages: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let offset = Duration::from_secs_f64(i as f64 / opts.rps.max(1.0));
                    if offset >= opts.duration {
                        break;
                    }
                    let intended = t0 + offset;
                    let now = Instant::now();
                    if now < intended {
                        std::thread::sleep(intended - now);
                    }
                    match conn.get(&targets[i % targets.len()]) {
                        Ok(resp) => {
                            local.push(intended.elapsed().as_micros().min(u64::MAX as u128) as u64);
                            completed.fetch_add(1, Ordering::Relaxed);
                            if (200..300).contains(&resp.status) {
                                for (slot, key) in ["queue_us", "batch_wait_us", "execute_us"]
                                    .iter()
                                    .enumerate()
                                {
                                    if let Some(v) = timing_u64(&resp.body, key) {
                                        local_stages[slot].push(v);
                                    }
                                }
                            } else {
                                non_2xx.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            transport_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .extend(local);
                let mut shared = stage_samples.lock().unwrap_or_else(|e| e.into_inner());
                for (slot, v) in local_stages.into_iter().enumerate() {
                    shared[slot].extend(v);
                }
            });
        }
    });
    let paced_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let achieved_rps = completed.load(Ordering::Relaxed) as f64 / paced_secs;

    // closed-loop saturation phase: every connection sends back-to-back
    let stop = AtomicBool::new(false);
    let sat_completed = AtomicU64::new(0);
    let sat_idx = AtomicUsize::new(0);
    let sat_t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..opts.conns.max(1) {
            s.spawn(|| {
                let mut conn = Client::new(addr, timeout);
                while !stop.load(Ordering::Relaxed) {
                    let i = sat_idx.fetch_add(1, Ordering::Relaxed);
                    match conn.get(&targets[i % targets.len()]) {
                        Ok(_) => {
                            sat_completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            transport_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        std::thread::sleep(opts.saturation);
        stop.store(true, Ordering::Relaxed);
    });
    let sat_secs = sat_t0.elapsed().as_secs_f64().max(1e-9);
    let saturation_rps = sat_completed.load(Ordering::Relaxed) as f64 / sat_secs;

    let snap = server.stats();
    server.shutdown();

    let mut lat = latencies.lock().unwrap_or_else(|e| e.into_inner()).clone();
    lat.sort_unstable();
    let stage_latency_us = {
        let mut stages = stage_samples.lock().unwrap_or_else(|e| e.into_inner());
        let mut pcts = [StagePcts::default(); 3];
        for (slot, v) in stages.iter_mut().enumerate() {
            v.sort_unstable();
            pcts[slot] = StagePcts {
                p50_us: pct_us(v, 50.0),
                p99_us: pct_us(v, 99.0),
            };
        }
        StageLatency {
            queue: pcts[0],
            batch_wait: pcts[1],
            execute: pcts[2],
        }
    };
    let transport_errors = transport_errors.load(Ordering::Relaxed);
    if transport_errors != 0 {
        return Err(format!(
            "{transport_errors} transport error(s) — every request must be answered"
        ));
    }
    Ok(LoadgenReport {
        offered_rps: opts.rps,
        achieved_rps,
        p50_ms: pct_ms(&lat, 50.0),
        p90_ms: pct_ms(&lat, 90.0),
        p99_ms: pct_ms(&lat, 99.0),
        p999_ms: pct_ms(&lat, 99.9),
        max_ms: lat.last().copied().unwrap_or(0) as f64 / 1_000.0,
        transport_errors,
        non_2xx: non_2xx.load(Ordering::Relaxed),
        shed: snap.shed,
        coalesced: snap.coalesced,
        batches: snap.batches,
        keepalive_reuses: snap.keepalive_reuses,
        saturation_rps,
        stage_latency_us,
        config: format!(
            "rps={} conns={} duration_ms={} saturation_ms={} mix={} workers={} queue={}",
            opts.rps,
            opts.conns,
            opts.duration.as_millis(),
            opts.saturation.as_millis(),
            opts.mix.label(),
            opts.workers,
            opts.queue
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_over_the_sorted_sample() {
        let us: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(pct_ms(&us, 50.0), 50.0);
        assert_eq!(pct_ms(&us, 99.0), 99.0);
        assert_eq!(pct_ms(&us, 99.9), 100.0);
        assert_eq!(pct_ms(&[], 50.0), 0.0);
    }

    #[test]
    fn mix_labels_round_trip() {
        for m in [LoadMix::Cached, LoadMix::Sweep, LoadMix::Mixed] {
            assert_eq!(LoadMix::parse(m.label()).unwrap(), m);
        }
        assert!(LoadMix::parse("nope").is_err());
    }

    #[test]
    fn report_json_carries_schema_and_one_mode() {
        let r = LoadgenReport::default();
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"bench-loadgen-v2\""));
        assert!(j.contains("\"saturation_rps\""));
        assert!(!j.contains("batched"));
        assert!(!j.contains("speedup"));
        assert!(j.contains("\"stage_latency_us\""));
        assert!(j.contains("\"batch_wait\""));
    }

    #[test]
    fn timing_extractor_reads_the_body_fragment() {
        let body = r#"{"status":"ok","rid":"ab","timing":{"queue_us":12,"batch_wait_us":0,"execute_us":340,"total_us":352}}"#;
        assert_eq!(timing_u64(body, "queue_us"), Some(12));
        assert_eq!(timing_u64(body, "batch_wait_us"), Some(0));
        assert_eq!(timing_u64(body, "execute_us"), Some(340));
        assert_eq!(timing_u64("{}", "queue_us"), None);
    }
}
