//! One functional run priced for both GPUs equals two one-device runs.
//!
//! The two simulated GPUs differ only in pricing (cost model, SM count,
//! clock) and share `block_dim`, so a non-persistent launch has the same
//! grid, lane-to-item map and access trace on either. The harness therefore
//! simulates such a variant once for the pair (DESIGN.md §7.4); this pins
//! that every non-persistent CUDA variant of the suite gives each device
//! exactly the figures a one-device run of it gives.

use indigo2::core::gpu::{persistent_of, DeviceGraph};
use indigo2::core::{run_gpu_supervised, run_gpu_with, GraphInput, Output, Supervision};
use indigo2::gpusim::{rtx3090, titan_v};
use indigo2::graph::gen::{suite_graph, Scale, SuiteGraph};
use indigo2::styles::{enumerate, Algorithm, Model};

/// The output as raw bits, so `f32` ranks compare exactly.
fn bits(out: &Output) -> Vec<u64> {
    match out {
        Output::Levels(v) | Output::Distances(v) | Output::Labels(v) => {
            v.iter().map(|&x| u64::from(x)).collect()
        }
        Output::MisSet(v) => v.iter().map(|&x| u64::from(x)).collect(),
        Output::Ranks(v) => v.iter().map(|x| u64::from(x.to_bits())).collect(),
        Output::Triangles(c) => vec![*c],
    }
}

/// Runs every non-persistent CUDA variant on `which` (Tiny) once for both
/// GPUs and once per GPU, and compares the figures bit for bit.
fn paired_run_equals_two_single_device_runs(which: SuiteGraph) {
    let devices = [titan_v(), rtx3090()];
    let input = GraphInput::new(suite_graph(which, Scale::Tiny));
    let dg = DeviceGraph::upload(&input);
    let mut checked = 0;
    for algo in Algorithm::ALL {
        let catalogue = enumerate::catalogue(algo, Model::Cuda);
        for cfg in catalogue.configs().iter().filter(|c| !persistent_of(c)) {
            let what = format!("{} on {}", cfg.name(), which.label());
            let pair = run_gpu_supervised(cfg, &dg, &devices, 1, &Supervision::none());
            let pair_bits = bits(&pair.output);
            for (k, &device) in devices.iter().enumerate() {
                let one = run_gpu_with(cfg, &dg, device, 1);
                let sim = one.sim.expect("GPU runs carry simulator stats");
                assert_eq!(pair_bits, bits(&one.output), "{what}: output");
                assert_eq!(pair.iterations, one.iterations, "{what}: iterations");
                assert_eq!(pair.sim[k].accesses, sim.accesses, "{what}: accesses");
                assert_eq!(pair.sim[k].launches, sim.launches, "{what}: launches");
                assert_eq!(
                    pair.sim[k].cycles.to_bits(),
                    sim.cycles.to_bits(),
                    "{what}: {} cycles",
                    device.name
                );
                assert_eq!(
                    pair.secs[k].to_bits(),
                    one.secs.to_bits(),
                    "{what}: {} secs",
                    device.name
                );
            }
            checked += 1;
        }
    }
    // every algorithm contributes non-persistent variants
    assert!(checked > 100, "only {checked} variants checked");
}

// one test per suite graph (all of `SUITE_GRAPHS`), so the test harness
// spreads them over its threads

#[test]
fn paired_runs_match_single_device_runs_on_grid2d() {
    paired_run_equals_two_single_device_runs(SuiteGraph::Grid2d);
}

#[test]
fn paired_runs_match_single_device_runs_on_road() {
    paired_run_equals_two_single_device_runs(SuiteGraph::RoadMap);
}

#[test]
fn paired_runs_match_single_device_runs_on_rmat() {
    paired_run_equals_two_single_device_runs(SuiteGraph::Rmat);
}

#[test]
fn paired_runs_match_single_device_runs_on_copapers() {
    paired_run_equals_two_single_device_runs(SuiteGraph::CoPapers);
}

#[test]
fn paired_runs_match_single_device_runs_on_social() {
    paired_run_equals_two_single_device_runs(SuiteGraph::SocialNetwork);
}
