//! Variant dispatch: one entry point that runs any of the 1098 programs.
//!
//! [`run_variant`] takes a fully-specified [`StyleConfig`], a prepared
//! [`GraphInput`], and a [`Target`], and returns the output plus the run
//! time: wall-clock for the CPU models (as in the paper) and simulated
//! device time for the GPU model. Graph preparation/upload is excluded from
//! timing, matching the paper's kernel-throughput methodology (§4.5).

use crate::cpu::{self, relax::RelaxKind, CpuExec};
use crate::gpu::{self, DeviceGraph};
use crate::{GraphInput, Output, SOURCE};
use indigo_cancel::CancelToken;
use indigo_gpusim::{Device, FaultPlan, Sim};
use indigo_styles::{Algorithm, StyleConfig};

/// Everything the fault-tolerant harness threads into one variant run:
/// a cooperative cancellation token (fired by the watchdog), a simulated-
/// cycle budget (GPU only), and an optional injected fault (GPU only; CPU
/// faults are injected at the harness layer). `Supervision::none()` is the
/// zero-overhead default every legacy entry point uses.
#[derive(Clone, Default)]
pub struct Supervision {
    /// Cancellation token polled at launch/iteration boundaries.
    pub cancel: Option<CancelToken>,
    /// Simulated-cycle cap for GPU runs.
    pub sim_cycle_budget: Option<f64>,
    /// Deterministic injected fault for GPU runs.
    pub fault: Option<FaultPlan>,
}

impl Supervision {
    /// No supervision: behaves exactly like the unsupervised entry points.
    pub fn none() -> Supervision {
        Supervision::default()
    }

    /// Supervision with just a cancellation token.
    pub fn with_cancel(token: CancelToken) -> Supervision {
        Supervision {
            cancel: Some(token),
            ..Supervision::default()
        }
    }
}

/// Where to run a variant.
pub enum Target {
    /// One of the simulated GPUs.
    Gpu(Device),
    /// A CPU model with the given worker count.
    Cpu {
        /// Worker threads for the pool / thread team.
        threads: usize,
    },
}

impl Target {
    /// CPU target helper.
    pub fn cpu(threads: usize) -> Target {
        Target::Cpu { threads }
    }

    /// GPU target helper.
    pub fn gpu(device: Device) -> Target {
        Target::Gpu(device)
    }
}

/// Simulator-side statistics for one GPU run (absent for CPU runs).
/// Read off the `Sim` at the end of the run, so they are per-cell exact
/// even when the harness executes many cells concurrently.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles across all kernel launches.
    pub cycles: f64,
    /// Number of kernel launches.
    pub launches: usize,
    /// Total priced memory accesses.
    pub accesses: u64,
}

/// The outcome of one program run.
pub struct RunResult {
    /// Algorithm output (verify with [`crate::verify::check`]).
    pub output: Output,
    /// Measured time: wall-clock (CPU) or simulated seconds (GPU).
    pub secs: f64,
    /// Parallel iterations/rounds the variant took to converge.
    pub iterations: usize,
    /// Simulator statistics (GPU runs only).
    pub sim: Option<SimStats>,
}

/// One functional GPU run priced on every device of its set: the output
/// and iteration count are device-independent, the timings are not.
pub struct GpuRun {
    /// Algorithm output (verify with [`crate::verify::check`]).
    pub output: Output,
    /// Parallel iterations/rounds the variant took to converge.
    pub iterations: usize,
    /// Simulated seconds per device, in device-set order.
    pub secs: Vec<f64>,
    /// Simulator statistics per device, in device-set order.
    pub sim: Vec<SimStats>,
}

impl GpuRun {
    /// The run of a one-device set as a [`RunResult`].
    pub fn into_result(self) -> RunResult {
        assert_eq!(self.secs.len(), 1, "into_result needs a one-device run");
        RunResult {
            output: self.output,
            secs: self.secs[0],
            iterations: self.iterations,
            sim: Some(self.sim[0]),
        }
    }
}

impl RunResult {
    /// The paper's §4.5 metric: giga-edges per second.
    pub fn gigaedges_per_sec(&self, num_edges: usize) -> f64 {
        if self.secs <= 0.0 {
            return 0.0;
        }
        num_edges as f64 / self.secs / 1e9
    }
}

/// Runs `cfg` on `input` at `target`.
pub fn run_variant(cfg: &StyleConfig, input: &GraphInput, target: &Target) -> RunResult {
    run_variant_supervised(cfg, input, target, &Supervision::none())
}

/// [`run_variant`] under harness supervision: the token/budget/fault in
/// `sup` are threaded into the simulator (GPU) or the CPU pools, making the
/// run cancellable at launch/iteration boundaries.
pub fn run_variant_supervised(
    cfg: &StyleConfig,
    input: &GraphInput,
    target: &Target,
    sup: &Supervision,
) -> RunResult {
    cfg.check()
        .unwrap_or_else(|e| panic!("invalid variant {}: {e}", cfg.name()));
    match target {
        Target::Cpu { threads } => run_cpu(cfg, input, *threads, sup),
        Target::Gpu(device) => {
            let dg = DeviceGraph::upload(input);
            run_gpu_supervised(cfg, &dg, &[*device], 1, sup).into_result()
        }
    }
}

/// GPU path against an already-uploaded graph (lets callers amortize the
/// upload over many variants). Single-threaded simulation.
pub fn run_gpu(cfg: &StyleConfig, dg: &DeviceGraph, device: Device) -> RunResult {
    run_gpu_with(cfg, dg, device, 1)
}

/// [`run_gpu`] with `sim_workers` host threads simulating each launch that
/// carries the `deterministic_parallel` capability. Results — cycles,
/// outputs, reductions — are bit-identical for any worker count; this is
/// purely a wall-clock speedup for the measurement harness.
pub fn run_gpu_with(
    cfg: &StyleConfig,
    dg: &DeviceGraph,
    device: Device,
    sim_workers: usize,
) -> RunResult {
    run_gpu_supervised(cfg, dg, &[device], sim_workers, &Supervision::none()).into_result()
}

/// Runs `cfg` once and prices it for every device in `devices` (one or
/// two sharing `block_dim`; see [`Sim::for_devices`]), under harness
/// supervision (see [`Supervision`]). Each device's figures are
/// bit-identical to a one-device run on it. A launch whose grid differs
/// between the devices — a persistent variant on two GPUs with different
/// SM counts — panics, so such variants run one device at a time.
///
/// Without supervision knobs set this is identical to the plain entry
/// points — supervision never perturbs simulated cycles, only whether the
/// run is allowed to finish.
pub fn run_gpu_supervised(
    cfg: &StyleConfig,
    dg: &DeviceGraph,
    devices: &[Device],
    sim_workers: usize,
    sup: &Supervision,
) -> GpuRun {
    assert!(!cfg.model.is_cpu(), "run_gpu needs a CUDA-model variant");
    let mut sim = Sim::for_devices(devices);
    sim.set_workers(sim_workers);
    if let Some(token) = &sup.cancel {
        sim.set_cancel(token.clone());
    }
    if let Some(budget) = sup.sim_cycle_budget {
        sim.set_cycle_budget(budget);
    }
    if let Some(fault) = sup.fault {
        sim.arm_fault(fault);
    }
    let (output, iterations) = match cfg.algorithm {
        Algorithm::Bfs => {
            let (v, i) = gpu::relax::run(RelaxKind::Bfs, cfg, dg, &mut sim, SOURCE);
            (Output::Levels(v), i)
        }
        Algorithm::Sssp => {
            let (v, i) = gpu::relax::run(RelaxKind::Sssp, cfg, dg, &mut sim, SOURCE);
            (Output::Distances(v), i)
        }
        Algorithm::Cc => {
            let (v, i) = gpu::relax::run(RelaxKind::Cc, cfg, dg, &mut sim, SOURCE);
            (Output::Labels(v), i)
        }
        Algorithm::Mis => {
            let (v, i) = gpu::mis::run(cfg, dg, &mut sim);
            (Output::MisSet(v), i)
        }
        Algorithm::Pr => {
            let (v, i) = gpu::pr::run(cfg, dg, &mut sim);
            (Output::Ranks(v), i)
        }
        Algorithm::Tc => {
            let (c, i) = gpu::tc::run(cfg, dg, &mut sim);
            (Output::Triangles(c), i)
        }
    };
    let per_device = 0..devices.len();
    GpuRun {
        output,
        iterations,
        secs: per_device.clone().map(|k| sim.elapsed_secs_on(k)).collect(),
        sim: per_device
            .map(|k| SimStats {
                cycles: sim.elapsed_cycles_on(k),
                launches: sim.launches(),
                accesses: sim.accesses(),
            })
            .collect(),
    }
}

fn run_cpu(cfg: &StyleConfig, input: &GraphInput, threads: usize, sup: &Supervision) -> RunResult {
    // pool spawn-up is setup, not kernel time
    let mut exec = CpuExec::new(cfg, threads);
    if let Some(token) = &sup.cancel {
        exec = exec.with_cancel(token.clone());
    }
    let start = std::time::Instant::now();
    let (output, iterations) = match cfg.algorithm {
        Algorithm::Bfs => {
            let (v, i) = cpu::relax::run(RelaxKind::Bfs, cfg, input, &exec, SOURCE);
            (Output::Levels(v), i)
        }
        Algorithm::Sssp => {
            let (v, i) = cpu::relax::run(RelaxKind::Sssp, cfg, input, &exec, SOURCE);
            (Output::Distances(v), i)
        }
        Algorithm::Cc => {
            let (v, i) = cpu::relax::run(RelaxKind::Cc, cfg, input, &exec, SOURCE);
            (Output::Labels(v), i)
        }
        Algorithm::Mis => {
            let (v, i) = cpu::mis::run(cfg, input, &exec);
            (Output::MisSet(v), i)
        }
        Algorithm::Pr => {
            let (v, i) = cpu::pr::run(cfg, input, &exec);
            (Output::Ranks(v), i)
        }
        Algorithm::Tc => {
            let (c, i) = cpu::tc::run(cfg, input, &exec);
            (Output::Triangles(c), i)
        }
    };
    RunResult {
        output,
        secs: start.elapsed().as_secs_f64(),
        iterations,
        sim: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indigo_gpusim::rtx3090;
    use indigo_graph::gen;
    use indigo_styles::Model;

    #[test]
    fn runs_every_algorithm_on_both_target_kinds() {
        let input = GraphInput::new(gen::gnp(30, 0.15, 2));
        for algo in Algorithm::ALL {
            for (model, target) in [
                (Model::Cpp, Target::cpu(2)),
                (Model::Cuda, Target::gpu(rtx3090())),
            ] {
                let cfg = StyleConfig::baseline(algo, model);
                let r = run_variant(&cfg, &input, &target);
                assert!(r.secs > 0.0, "{}", cfg.name());
                assert!(
                    crate::verify::check(&cfg, &input, &r.output).is_ok(),
                    "{}",
                    cfg.name()
                );
            }
        }
    }

    #[test]
    fn throughput_metric_sane() {
        let r = RunResult {
            output: Output::Triangles(1),
            secs: 2.0,
            iterations: 1,
            sim: None,
        };
        assert_eq!(r.gigaedges_per_sec(4_000_000_000), 2.0);
        let z = RunResult {
            output: Output::Triangles(1),
            secs: 0.0,
            iterations: 1,
            sim: None,
        };
        assert_eq!(z.gigaedges_per_sec(100), 0.0);
    }

    #[test]
    #[should_panic(expected = "CUDA-model")]
    fn run_gpu_rejects_cpu_variants() {
        let input = GraphInput::new(gen::gnp(10, 0.2, 1));
        let dg = DeviceGraph::upload(&input);
        let cfg = StyleConfig::baseline(Algorithm::Bfs, Model::Omp);
        run_gpu(&cfg, &dg, rtx3090());
    }
}
