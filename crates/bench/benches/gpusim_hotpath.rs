//! Simulator hot-path microbenchmarks (DESIGN.md §7.4).
//!
//! Unlike the figure benches, these measure *host* wall-clock of the
//! simulation machinery itself — the cost of recording and pricing
//! accesses, and of a full launch round through the zero-allocation fast
//! path — so regressions in the simulator's own overhead are visible
//! without being masked by simulated-cycle arithmetic.

use criterion::{black_box, Criterion};
use indigo_bench::criterion;
use indigo_gpusim::cost::{AccessClass, StepTable};
use indigo_gpusim::{rtx3090, Assign, BufKind, GpuBuf, ReduceStyle, Sim, WARP_SIZE};

/// One warp round of fully-coalesced loads: 8 steps × 32 lanes, every step
/// landing in one 128-byte segment.
fn steptable_coalesced(c: &mut Criterion) {
    let costs = rtx3090().cost;
    let mut table = StepTable::new();
    let mut g = c.benchmark_group("gpusim_hotpath");
    g.bench_function("steptable/coalesced_round", |b| {
        b.iter(|| {
            table.clear();
            for step in 0..8u64 {
                for lane in 0..WARP_SIZE as u64 {
                    table.record(step as usize, AccessClass::Mem, step * 4096 + lane * 4);
                }
            }
            black_box(table.finalize(std::slice::from_ref(&costs)))
        })
    });
    g.finish();
}

/// One warp round of scattered atomics: the O(n²) dedup fallback.
fn steptable_scattered(c: &mut Criterion) {
    let costs = rtx3090().cost;
    let mut table = StepTable::new();
    let mut g = c.benchmark_group("gpusim_hotpath");
    g.bench_function("steptable/scattered_round", |b| {
        b.iter(|| {
            table.clear();
            for step in 0..8u64 {
                for lane in 0..WARP_SIZE as u64 {
                    // descending addresses defeat the sorted fast path
                    let addr = (WARP_SIZE as u64 - lane) * 4096 + step * 8;
                    table.record(step as usize, AccessClass::AtomicRmw, addr);
                }
            }
            black_box(table.finalize(std::slice::from_ref(&costs)))
        })
    });
    g.finish();
}

/// A full thread-granularity streaming launch — the shape the
/// `run_block_thread_fast` path serves. Steady-state: zero allocations.
fn launch_thread_per_item(c: &mut Criterion) {
    const N: usize = 1 << 14;
    let mut sim = Sim::new(rtx3090());
    let src = GpuBuf::new(N, 7);
    let dst = GpuBuf::new(N, 0);
    let mut g = c.benchmark_group("gpusim_hotpath");
    g.bench_function("launch/thread_per_item_stream", |b| {
        b.iter(|| {
            sim.launch(N, Assign::ThreadPerItem, false, |ctx, i| {
                let v = ctx.ld(&src, i);
                ctx.st(&dst, i, v + 1);
            });
            black_box(sim.elapsed_secs())
        })
    });
    g.finish();
}

/// A warp-granularity reduction launch (Listing 10c's warp-shuffle style):
/// exercises the generic `run_block` path with group scratch + epilogue
/// bookkeeping.
fn launch_warp_reduce(c: &mut Criterion) {
    const N: usize = 1 << 10; // items = warps
    let mut sim = Sim::new(rtx3090());
    let src = GpuBuf::new(N * WARP_SIZE, 1);
    let mut g = c.benchmark_group("gpusim_hotpath");
    g.bench_function("launch/warp_per_item_reduce", |b| {
        b.iter(|| {
            let total = sim.launch_reduce_u64(
                N,
                Assign::WarpPerItem,
                false,
                ReduceStyle::ReductionAdd,
                BufKind::Atomic,
                |ctx, item| {
                    let v = ctx.ld(&src, item * WARP_SIZE + ctx.lane());
                    ctx.reduce_add_u64(u64::from(v));
                },
            );
            black_box(total)
        })
    });
    g.finish();
}

fn main() {
    let mut c = criterion();
    steptable_coalesced(&mut c);
    steptable_scattered(&mut c);
    launch_thread_per_item(&mut c);
    launch_warp_reduce(&mut c);
    c.final_summary();
}
