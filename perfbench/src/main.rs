//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload sweep|serve-hot --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` runs
//! the same workload again with spans around every call into a layer and
//! reports the per-layer metrics, writing the spans to
//! `.bench_out/TRACE_perfbench-<workload>-<seed>.jsonl`. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A correctness mismatch exits 1 after printing it; a usage or harness
//! error exits 2 without a result.

mod serve;
mod stats;
mod sweep;
mod sys;
mod trace;
mod workload;

use indigo_obs::TraceEvent;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// End-to-end metrics, in the order printed: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("cpu_ms_per_cell", "ms"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("sat_rps", "req/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run; a layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.gen_ms", "ms"),
    ("core.input_ms", "ms"),
    ("core.upload_ms", "ms"),
    ("gpusim.kernel_ms_p50", "ms"),
    ("gpusim.kernel_ms_sum", "ms"),
    ("gpusim.host_ns_per_access", "ns"),
    ("gpusim.sim_cycles", "cycles"),
    ("exec.kernel_ms", "ms"),
    ("verify.ref_ms", "ms"),
    ("verify.cmp_ms", "ms"),
    ("verify.ref_solves_per_check", "ratio"),
    ("harness.phase_prepare_s", "s"),
    ("harness.phase_gpusim_s", "s"),
    ("harness.phase_cpuwall_s", "s"),
    ("harness.journal_us", "us"),
    ("harness.rss_growth_mb_per_pass", "MB/pass"),
    ("harness.residual_s", "s"),
    ("harness.residual_frac", "fraction"),
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.execute_us_p50", "us"),
    ("serve.execute_us_p99", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.keepalive_reuse_ratio", "ratio"),
    ("serve.rss_growth_mb_per_segment", "MB/segment"),
    ("advisor.fit_ms", "ms"),
    ("bench.late_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.lat_samples", "count"),
    ("bench.lat_tail_pct", "pct"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed (cells for sweep, requests for
    /// serve); `failed / attempted` is the error rate.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness mismatches, one line each; any mismatch fails the run.
    pub mismatches: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload parameters for the provenance block.
    pub params: Vec<(&'static str, String)>,
    /// Trace events of a traced run (spans plus the phases around them).
    pub events: Vec<TraceEvent>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// The median and the tail of one group of latencies (a sweep pass, a
/// window of requests).
pub struct LatGroup {
    p50: f64,
    tail: stats::Tail,
}

/// Summarises one group: its median and its 99th percentile or, with fewer
/// than 1000 samples, the highest percentile that has ten samples beyond
/// it (`stats::tail`); with fewer than 11 samples, its maximum. `None` for
/// an empty group.
pub fn lat_group(values: &[f64]) -> Option<LatGroup> {
    if values.is_empty() {
        return None;
    }
    let sorted = stats::sorted(values);
    let tail = stats::tail(&sorted, 99.0).unwrap_or(stats::Tail {
        pct: 100.0,
        value: sorted[sorted.len() - 1],
        count: sorted.len(),
    });
    Some(LatGroup {
        p50: stats::median(&sorted),
        tail,
    })
}

/// The latency metrics shared by every workload: `lat_p50_ms` is the
/// median of the groups' medians and `lat_p99_ms` the median of their
/// tails.
pub fn set_latency(r: &mut Report, groups: &[LatGroup]) {
    if groups.is_empty() {
        return;
    }
    let p50: Vec<f64> = groups.iter().map(|g| g.p50).collect();
    let tails: Vec<f64> = groups.iter().map(|g| g.tail.value).collect();
    let pcts: Vec<f64> = groups.iter().map(|g| g.tail.pct).collect();
    let count: usize = groups.iter().map(|g| g.tail.count).sum();
    r.set("lat_p50_ms", stats::median(&p50));
    r.set("lat_p99_ms", stats::median(&tails));
    r.set("bench.lat_samples", count as f64);
    r.set("bench.lat_tail_pct", stats::median(&pcts));
    r.param("lat_samples", count);
    r.param("lat_groups", groups.len());
    r.param("lat_tail_pct", format!("{:.2}", stats::median(&pcts)));
}

/// Runs `f(i)` for every `i < n` on `jobs` threads; results keep index
/// order.
pub fn par_map<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                *slots[i].lock().expect("slot lock poisoned") = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock poisoned")
                .expect("every index ran")
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (sweep|serve-hot)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Where traces and scratch files go, inside the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    // end-to-end numbers come from the default build only
    if !args.trace && indigo_obs::enabled() {
        return Err("end-to-end runs need a build without the `telemetry` feature".into());
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create .bench_out: {e}"))?;
    let budget = Duration::from_secs(args.seconds);
    let mut report = match args.workload.as_str() {
        "sweep" => sweep::run(args.seed, budget, args.trace)?,
        "serve-hot" => serve::run(args.seed, budget, args.trace)?,
        other => return Err(format!("unknown workload `{other}` (sweep|serve-hot)")),
    };
    if report.get("peak_rss_mb").is_none() {
        report.set("peak_rss_mb", sys::peak_rss_mb());
    }

    let provenance = provenance(&args, &report);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let path = out_dir().join(format!(
            "TRACE_perfbench-{}-{}.jsonl",
            args.workload, args.seed
        ));
        let mut events = vec![{
            let mut ev = TraceEvent::instant("run-start", args.workload.clone(), 0);
            for (k, v) in &provenance {
                ev = ev.with_arg(k, v.clone());
            }
            ev
        }];
        let end_us = report
            .events
            .iter()
            .map(|e| e.ts_us + e.dur_us)
            .max()
            .unwrap_or(0);
        events.append(&mut report.events);
        events.push(
            TraceEvent::instant("run-end", args.workload.clone(), end_us)
                .with_arg("suite_secs", format!("{:.3}", end_us as f64 / 1e6)),
        );
        trace::write_jsonl(&path, &events)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("trace: {} ({} events)", path.display(), events.len());
    }

    // the human-readable table, then the provenance block, then the result
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    eprintln!("{} seed {} ({} s):", args.workload, args.seed, args.seconds);
    for (name, unit) in table {
        eprintln!(
            "  {name:32} {:>16.6} {unit}",
            report.get(name).unwrap_or(0.0)
        );
    }
    eprintln!(
        "  {:32} {:>16.6} fraction ({} of {} failed)",
        "error_rate", error_rate, report.failed, report.attempted
    );
    for m in &report.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    let mut prov = String::from("{\"provenance\":{");
    for (i, (k, v)) in provenance.iter().enumerate() {
        if i > 0 {
            prov.push(',');
        }
        let _ = write!(
            prov,
            "{}:{}",
            indigo_obs::event::json_str(k),
            indigo_obs::event::json_str(v)
        );
    }
    prov.push_str("}}");
    println!("{prov}");

    let correct = report.mismatches.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let v = report.get(name).unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(line, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

fn provenance(args: &Args, report: &Report) -> Vec<(String, String)> {
    let mut p: Vec<(String, String)> = vec![
        ("git_rev".into(), sys::git_rev(Path::new("."))),
        ("nproc".into(), sys::nproc().to_string()),
        ("profile".into(), sys::profile().into()),
        ("features".into(), sys::features().into()),
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("traced".into(), args.trace.to_string()),
        ("attempted".into(), report.attempted.to_string()),
        ("failed".into(), report.failed.to_string()),
    ];
    p.extend(
        report
            .params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone())),
    );
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in BENCHMARK.json must name the same
    /// metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let named = json.matches("\"name\":").count();
        assert_eq!(
            named,
            END_TO_END.len() + PER_LAYER.len() + 2,
            "every metric and the two workloads"
        );
    }

    #[test]
    fn par_map_keeps_index_order() {
        let v = par_map(100, 3, |i| i * 2);
        assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert!(par_map(0, 2, |i| i).is_empty());
    }
}
