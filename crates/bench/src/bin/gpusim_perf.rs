//! Deterministic simulator perf probe (DESIGN.md §7.4, §7.5).
//!
//! Runs a fixed set of simulator workloads and reports, per workload, the
//! **telemetry counter deltas** over the steady-state window (the probe
//! requires a `--features telemetry` build and refuses to run without it):
//!
//! * `sim_cycles` — simulated cycles (`sim.cycles`, bit-deterministic),
//! * `accesses`   — recorded memory accesses (`sim.global_accesses`),
//! * `coalesced_txns` / `uncoalesced_txns` — warp-step memory transaction
//!   split from the coalescing model,
//! * `atomic_ops` / `atomic_conflicts` — priced atomics and the same-address
//!   collisions among them,
//! * `steady_allocs` — heap allocations performed *after* the first
//!   warm-up launch (deterministic: the zero-allocation hot path makes
//!   this exactly 0; counted by a local `#[global_allocator]`, not obs),
//! * `host_ns_per_access` — host nanoseconds per simulated access
//!   (informational only; never compared, it is wall-clock).
//!
//! `gpusim_perf` prints the JSON record to stdout. With
//! `--check <baseline.json>` it instead compares the deterministic fields
//! against a committed baseline: any relative deviation above 10% warns,
//! above 30% exits nonzero — a flake-free CI perf gate (wall-clock is
//! deliberately excluded).

use std::time::Instant;

use indigo_bench::probe::{self, allocations, field, name_of, Counting};
use indigo_gpusim::{rtx3090, Assign, BufKind, GpuBuf, ReduceStyle, Sim, WARP_SIZE};
use indigo_obs::{counters_snapshot, Counter};

#[global_allocator]
static ALLOC: Counting = Counting;

struct Record {
    name: &'static str,
    sim_cycles: f64,
    accesses: u64,
    coalesced_txns: u64,
    uncoalesced_txns: u64,
    atomic_ops: u64,
    atomic_conflicts: u64,
    steady_allocs: u64,
    host_ns_per_access: f64,
}

/// Runs `launches` identical launches; the first is warm-up, the rest are
/// the steady-state window the allocation and obs counters observe. The
/// deterministic fields are obs counter deltas: workloads run one at a
/// time, so the process-global counters attribute exactly.
fn probe(
    name: &'static str,
    mut sim: Sim,
    launches: usize,
    mut one: impl FnMut(&mut Sim),
) -> Record {
    // warm-up: tables grow, pools spawn, arenas size up; the second round
    // flushes one-time lazy initialization in std (thread parking, panic
    // machinery) that is not part of the launch path proper
    one(&mut sim);
    one(&mut sim);
    let before = counters_snapshot();
    let allocs0 = allocations();
    let start = Instant::now();
    for _ in 1..launches {
        one(&mut sim);
    }
    let host = start.elapsed();
    let steady_allocs = allocations() - allocs0;
    let delta = counters_snapshot().delta_since(&before);
    let accesses = delta.get(Counter::SimGlobalAccesses);
    Record {
        name,
        sim_cycles: delta.get(Counter::SimCycles) as f64,
        accesses,
        coalesced_txns: delta.get(Counter::SimCoalescedTxns),
        uncoalesced_txns: delta.get(Counter::SimUncoalescedTxns),
        atomic_ops: delta.get(Counter::SimAtomicOps),
        atomic_conflicts: delta.get(Counter::SimAtomicConflicts),
        steady_allocs,
        host_ns_per_access: host.as_nanos() as f64 / accesses.max(1) as f64,
    }
}

fn workloads() -> Vec<Record> {
    let device = rtx3090();
    let mut out = Vec::new();

    // 1. thread-granularity streaming launch: the fast path
    {
        const N: usize = 1 << 14;
        let src = GpuBuf::new(N, 7);
        let dst = GpuBuf::new(N, 0);
        out.push(probe("thread_stream", Sim::new(device), 64, move |sim| {
            sim.launch(N, Assign::ThreadPerItem, false, |ctx, i| {
                let v = ctx.ld(&src, i);
                ctx.st(&dst, i, v + 1);
            });
        }));
    }

    // 2. warp-granularity shuffle reduction: the generic block path
    {
        const ITEMS: usize = 1 << 10;
        let src = GpuBuf::new(ITEMS * WARP_SIZE, 1);
        out.push(probe("warp_reduce", Sim::new(device), 64, move |sim| {
            sim.launch_reduce_u64(
                ITEMS,
                Assign::WarpPerItem,
                false,
                ReduceStyle::ReductionAdd,
                BufKind::Atomic,
                |ctx, item| {
                    let v = ctx.ld(&src, item * WARP_SIZE + ctx.lane());
                    ctx.reduce_add_u64(u64::from(v));
                },
            );
        }));
    }

    // 3. pooled deterministic launch: parked workers + slot arena
    {
        const N: usize = 1 << 14;
        let src = GpuBuf::new(N, 3);
        let dst = GpuBuf::new(N, 0);
        let mut sim = Sim::new(device);
        sim.set_workers(2);
        out.push(probe("thread_stream_pooled", sim, 64, move |sim| {
            sim.launch_det(N, Assign::ThreadPerItem, false, |ctx, i| {
                let v = ctx.ld(&src, i);
                ctx.st(&dst, i, v * 2);
            });
        }));
    }

    // 4. scattered classic atomics: the dedup fallback in finalize
    {
        const N: usize = 1 << 12;
        let hist = GpuBuf::new(257, 0).with_kind(BufKind::Atomic);
        out.push(probe("scatter_atomics", Sim::new(device), 64, move |sim| {
            sim.launch(N, Assign::ThreadPerItem, false, |ctx, i| {
                // multiplicative hash scatters lanes across the histogram
                let slot = (i.wrapping_mul(2654435761)) % 257;
                ctx.atomic_add(&hist, slot, 1);
            });
        }));
    }

    out
}

fn emit(records: &[Record]) -> String {
    let mut s = String::from("{\n  \"version\": 2,\n  \"workloads\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"sim_cycles\": {:.3}, \"accesses\": {}, \
             \"coalesced_txns\": {}, \"uncoalesced_txns\": {}, \
             \"atomic_ops\": {}, \"atomic_conflicts\": {}, \
             \"steady_allocs\": {}, \"host_ns_per_access\": {:.2}}}{}\n",
            r.name,
            r.sim_cycles,
            r.accesses,
            r.coalesced_txns,
            r.uncoalesced_txns,
            r.atomic_ops,
            r.atomic_conflicts,
            r.steady_allocs,
            r.host_ns_per_access,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Compares deterministic fields against the baseline file. Returns the
/// number of hard failures (relative deviation > 30%, or any steady-state
/// allocation where the baseline had none).
fn check(records: &[Record], baseline_path: &str) -> usize {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gpusim_perf: cannot read baseline {baseline_path}: {e}");
            return 1;
        }
    };
    let mut failures = 0;
    for r in records {
        let Some(line) = baseline.lines().find(|l| name_of(l) == Some(r.name)) else {
            eprintln!("WARN  {}: not in baseline (new workload?)", r.name);
            continue;
        };
        let mut compare = |what: &str, old: f64, new: f64| {
            failures += usize::from(probe::compare(r.name, what, old, new));
        };
        if let Some(old) = field(line, "sim_cycles") {
            compare("sim_cycles", old, r.sim_cycles);
        }
        if let Some(old) = field(line, "accesses") {
            compare("accesses", old, r.accesses as f64);
        }
        // the coalescing/atomic splits are bit-deterministic too; older
        // baselines without them are simply not compared on those fields
        if let Some(old) = field(line, "coalesced_txns") {
            compare("coalesced_txns", old, r.coalesced_txns as f64);
        }
        if let Some(old) = field(line, "uncoalesced_txns") {
            compare("uncoalesced_txns", old, r.uncoalesced_txns as f64);
        }
        if let Some(old) = field(line, "atomic_ops") {
            compare("atomic_ops", old, r.atomic_ops as f64);
        }
        if let Some(old) = field(line, "atomic_conflicts") {
            compare("atomic_conflicts", old, r.atomic_conflicts as f64);
        }
        if let Some(old) = field(line, "steady_allocs") {
            // a pooled worker's private StepTable may grow on its first
            // real engagement, which lands inside the steady window or not
            // depending on scheduling — ignore that noise floor and gate
            // only real per-launch allocation regressions
            if (r.steady_allocs as f64 - old).abs() > 2.0 {
                compare("steady_allocs", old, r.steady_allocs as f64);
            }
        }
    }
    failures
}

fn main() {
    if !indigo_obs::enabled() {
        eprintln!(
            "gpusim_perf: this probe reads telemetry counter deltas; \
             rebuild with `--features telemetry`"
        );
        std::process::exit(1);
    }
    let args: Vec<String> = std::env::args().collect();
    let records = workloads();
    match args.get(1).map(String::as_str) {
        None => print!("{}", emit(&records)),
        Some("--check") => {
            let Some(baseline) = args.get(2) else {
                eprintln!("usage: gpusim_perf [--check baseline.json]");
                std::process::exit(1);
            };
            let failures = check(&records, baseline);
            if failures > 0 {
                eprintln!("gpusim_perf: {failures} perf regression(s) past the 30% gate");
                std::process::exit(2);
            }
            eprintln!("gpusim_perf: deterministic perf within gates");
        }
        Some(other) => {
            eprintln!("gpusim_perf: unknown argument {other}");
            std::process::exit(1);
        }
    }
}
