//! Serving-path perf probe (DESIGN.md §7.9).
//!
//! Runs a short open-loop load-generator pass against one in-process
//! server on the serving path (keep-alive connections on the epoll reactor,
//! single-flight batching) and reports the headline numbers: saturation
//! throughput and the coordinated-omission-safe p99.
//!
//! `serve_perf` prints the JSON record to stdout. With `--check
//! <baseline.json>` it compares against the committed baseline:
//! throughput regressing more than 30% fails, more than 10% warns; p99
//! inflating past 130% + 1 ms fails, past 110% + 0.25 ms warns. Unlike
//! `cpu_perf`, every field here *is* wall-clock.

use indigo_bench::probe::field;
use indigo_serve::loadgen::{run_loadgen, LoadMix, LoadgenOptions, LoadgenReport};
use std::time::Duration;

fn measure() -> LoadgenReport {
    let opts = LoadgenOptions {
        rps: 300.0,
        conns: 4,
        duration: Duration::from_millis(1_500),
        saturation: Duration::from_secs(1),
        mix: LoadMix::Mixed,
        workers: 2,
        queue: 64,
    };
    match run_loadgen(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve_perf: loadgen run invalid: {e}");
            std::process::exit(1);
        }
    }
}

fn emit(r: &LoadgenReport) -> String {
    format!(
        "{{\n  \"version\": 2,\n  \"batched_saturation_rps\": {:.1},\n  \
         \"batched_p99_ms\": {:.3}\n}}\n",
        r.saturation_rps, r.p99_ms,
    )
}

/// Compares against the committed baseline. Returns the hard-failure
/// count: a throughput drop > 30% or a p99 inflation past 130% + 1 ms.
fn check(r: &LoadgenReport, baseline_path: &str) -> usize {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve_perf: cannot read baseline {baseline_path}: {e}");
            return 1;
        }
    };
    let mut failures = 0;
    // lower-is-worse field: saturation throughput. The field names keep
    // the `batched_` prefix the committed baseline was written with
    if let Some(old) = field(&baseline, "batched_saturation_rps") {
        if old > 0.0 {
            let new = r.saturation_rps;
            let drop = (old - new) / old;
            if drop > 0.30 {
                eprintln!(
                    "FAIL  batched_saturation_rps dropped {:.1}% (baseline {old:.1}, now {new:.1})",
                    drop * 100.0
                );
                failures += 1;
            } else if drop > 0.10 {
                eprintln!(
                    "WARN  batched_saturation_rps dropped {:.1}% (baseline {old:.1}, now {new:.1})",
                    drop * 100.0
                );
            }
        }
    }
    // higher-is-worse field: the tail. The gates carry a small
    // absolute grace on top of the relative one — a millisecond-scale p99
    // moves by scheduler quanta, and a 30%-of-1ms gate would flake
    if let Some(old) = field(&baseline, "batched_p99_ms") {
        if old > 0.0 {
            let new = r.p99_ms;
            if new > old * 1.30 + 1.0 {
                eprintln!(
                    "FAIL  batched_p99_ms rose past 130% + 1 ms (baseline {old:.3}, now {new:.3})"
                );
                failures += 1;
            } else if new > old * 1.10 + 0.25 {
                eprintln!("WARN  batched_p99_ms rose past 110% + 0.25 ms (baseline {old:.3}, now {new:.3})");
            }
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let report = measure();
    match args.get(1).map(String::as_str) {
        None => print!("{}", emit(&report)),
        Some("--check") => {
            let Some(baseline) = args.get(2) else {
                eprintln!("usage: serve_perf [--check baseline.json]");
                std::process::exit(1);
            };
            let failures = check(&report, baseline);
            if failures > 0 {
                eprintln!("serve_perf: {failures} serving-perf regression(s) past the gate");
                std::process::exit(2);
            }
            eprintln!(
                "serve_perf: serving perf within gates ({:.0} rps, p99 {:.2} ms)",
                report.saturation_rps, report.p99_ms
            );
        }
        Some(other) => {
            eprintln!("serve_perf: unknown argument {other}");
            std::process::exit(1);
        }
    }
}
