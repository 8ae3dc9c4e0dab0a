//! The run matrix: every selected variant on every input on every target.
//!
//! [`RunPlan::run_cells`] executes the matrix under a two-level parallel
//! scheduler (see [`crate::schedule`]) with full fault tolerance (DESIGN.md
//! §7.3): every measurement cell runs inside a `catch_unwind` isolation
//! boundary, a watchdog thread enforces per-cell wall-clock budgets through
//! cooperative [`CancelToken`]s, completed cells stream into an append-only
//! checkpoint journal, and deterministic faults can be injected to exercise
//! all of it. Graph preparation and GPU-sim cells fan out across a host
//! thread pool, CPU wall-clock cells run exclusively afterwards, and every
//! cell lands in a slot indexed by the serial nesting order — so results
//! are bit-identical to a single-threaded run for any job count.
//!
//! [`RunPlan::run_with`] is the strict legacy entry point, now a thin layer
//! over `run_cells`: isolation only, and any non-`Ok` outcome re-raised as
//! a panic.

use crate::journal::{self, JournalEntry, JournalOutcome};
use crate::outcome::{CellFaultKind, CellOutcome, CellRecord, MatrixRun, Resilience};
use crate::schedule::{ProgressEvent, RunOptions, RunPhase};
use indigo_cancel::CancelToken;
use indigo_core::gpu::{persistent_of, DeviceGraph};
use indigo_core::{
    run_gpu_supervised, run_variant_supervised, verify, GraphInput, Output, SimStats, Supervision,
    Target,
};
use indigo_exec::SYSTEM_PROFILES;
use indigo_gpusim::{rtx3090, titan_v, Device, FaultKind, FaultPlan};
use indigo_graph::gen::{suite_graph, Scale, SuiteGraph, SUITE_GRAPHS};
use indigo_styles::{enumerate, Algorithm, Model, StyleConfig};
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One measured (variant, input, target) cell.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The program variant.
    pub cfg: StyleConfig,
    /// Input graph label (`SuiteGraph::label`).
    pub graph: &'static str,
    /// Target label (`"TitanV-sim"`, `"sys1"`, …).
    pub target: String,
    /// Throughput in giga-edges per second (§4.5).
    pub geps: f64,
    /// Convergence iterations of the run.
    pub iterations: usize,
}

/// A measurement target: one simulated GPU or one CPU system profile.
#[derive(Clone, Debug)]
pub enum TargetSpec {
    /// Simulated GPU device.
    Gpu(Device),
    /// CPU profile: name + thread count.
    Cpu(&'static str, usize),
}

impl TargetSpec {
    /// Display label used in reports.
    pub fn label(&self) -> String {
        match self {
            TargetSpec::Gpu(d) => d.name.to_string(),
            TargetSpec::Cpu(name, _) => name.to_string(),
        }
    }

    /// The default targets for a model: both GPUs for CUDA, both system
    /// profiles for the CPU models (§4.3).
    pub fn defaults_for(model: Model) -> Vec<TargetSpec> {
        match model {
            Model::Cuda => vec![TargetSpec::Gpu(titan_v()), TargetSpec::Gpu(rtx3090())],
            _ => SYSTEM_PROFILES
                .iter()
                .map(|p| TargetSpec::Cpu(p.name, p.threads))
                .collect(),
        }
    }
}

/// What to run.
pub struct RunPlan {
    /// Variants to measure.
    pub variants: Vec<StyleConfig>,
    /// Inputs (paper Table 4 families).
    pub graphs: Vec<SuiteGraph>,
    /// Instance scale.
    pub scale: Scale,
    /// Wall-clock repetitions for CPU runs (median taken; the paper uses 9).
    pub reps: usize,
    /// Verify every output against the serial reference (§4.1). Slows large
    /// sweeps; recommended on.
    pub verify: bool,
}

/// One enumerated cell: its slot (serial nesting position) plus indices
/// into the plan's graph/variant lists.
struct Cell {
    slot: usize,
    graph: usize,
    variant: usize,
    target: TargetSpec,
}

impl RunPlan {
    /// Every variant of `algorithms` under `models`, all five inputs.
    pub fn for_algorithms(
        algorithms: &[Algorithm],
        models: &[Model],
        scale: Scale,
        reps: usize,
    ) -> RunPlan {
        let variants = models
            .iter()
            .flat_map(|&m| {
                algorithms
                    .iter()
                    .flat_map(move |&a| enumerate::variants(a, m))
            })
            .collect();
        RunPlan {
            variants,
            graphs: SUITE_GRAPHS.to_vec(),
            scale,
            reps,
            verify: true,
        }
    }

    /// Keeps only variants satisfying `pred`.
    pub fn filter(mut self, pred: impl Fn(&StyleConfig) -> bool) -> RunPlan {
        self.variants.retain(|c| pred(c));
        self
    }

    /// Restricts the input set.
    pub fn with_graphs(mut self, graphs: Vec<SuiteGraph>) -> RunPlan {
        self.graphs = graphs;
        self
    }

    /// Runs the full matrix single-threaded; `progress` is invoked with
    /// (done, total) *measurement cells*.
    pub fn run(&self, mut progress: impl FnMut(usize, usize)) -> Vec<Measurement> {
        self.run_with(&RunOptions::default(), |ev| {
            if let ProgressEvent::Cell { phase, done, total } = ev {
                if phase != RunPhase::Prepare {
                    progress(done, total);
                }
            }
        })
    }

    /// Runs the full matrix under the two-level scheduler, strictly: cells
    /// are isolated (one panicking cell cannot poison the worker pools) but
    /// any non-`Ok` outcome is re-raised as a panic once the matrix
    /// completes. The returned vector — order and values — is identical to
    /// `options.jobs == 1` for any job count.
    ///
    /// For structured outcomes, budgets, checkpointing, and fault injection
    /// use [`RunPlan::run_cells`].
    pub fn run_with(
        &self,
        options: &RunOptions,
        progress: impl FnMut(ProgressEvent),
    ) -> Vec<Measurement> {
        let run = self
            .run_cells(options, &Resilience::none(), progress)
            .expect("isolation-only runs have no journal to fail on");
        let mut out = Vec::with_capacity(run.records.len());
        for r in run.records {
            match r.outcome {
                CellOutcome::Ok(m) => out.push(m),
                CellOutcome::WrongAnswer { detail } => panic!(
                    "verification failed for {} on {}: {detail}",
                    r.variant, r.graph
                ),
                CellOutcome::Crashed { payload } => panic!(
                    "cell {} on {} ({}) crashed: {payload}",
                    r.variant, r.graph, r.target
                ),
                CellOutcome::TimedOut { reason, .. } => panic!(
                    "cell {} on {} ({}) timed out: {reason}",
                    r.variant, r.graph, r.target
                ),
            }
        }
        out
    }

    /// Runs the full matrix fault-tolerantly: every cell ends in exactly
    /// one [`CellOutcome`] and the run always produces a complete
    /// [`MatrixRun`] — crashes, timeouts, and wrong answers become
    /// structured records instead of aborting the sweep.
    ///
    /// Scheduling is identical to [`RunPlan::run_with`] (slot-indexed,
    /// bit-identical across job counts). On top of it, `res` enables:
    ///
    /// * **watchdog timeouts** — `res.cell_timeout` arms a monitor thread
    ///   that fires the cell's [`CancelToken`] past the budget; the cell
    ///   unwinds at its next cancellation point (kernel-launch, pool-chunk,
    ///   or repetition boundary) into a `TimedOut` record;
    /// * **cycle budgets** — `res.cycle_budget` caps *simulated* cycles of
    ///   GPU cells, catching non-converging kernels whose individual
    ///   launches are fast;
    /// * **checkpoint/resume** — `res.journal` streams completed cells to
    ///   an append-only JSONL journal; `res.resume` preloads it and replays
    ///   recorded cells instead of re-running them (bit-exact, see
    ///   [`crate::journal`]);
    /// * **fault injection** — `res.fault` deterministically panics,
    ///   stalls, or corrupts one cell, so all of the above is testable.
    ///
    /// `Err` is returned only for harness-level failures (unusable journal,
    /// invalid fault configuration) — never for failing cells.
    pub fn run_cells(
        &self,
        options: &RunOptions,
        res: &Resilience,
        mut progress: impl FnMut(ProgressEvent),
    ) -> Result<MatrixRun, String> {
        let jobs = options.jobs.max(1);

        // A zero-duration budget would arm a watchdog whose deadline has
        // already passed: every cell is cancelled at its first checkpoint
        // and the whole matrix reads as timed out. Nobody means that —
        // reject it loudly ("no timeout" is spelled by omitting the option).
        if res.cell_timeout.is_some_and(|d| d.is_zero()) {
            return Err(
                "cell timeout of 0s would cancel every cell at its first checkpoint; \
                 omit --cell-timeout to run without a watchdog"
                    .to_string(),
            );
        }

        if let Some(f) = res.fault {
            if f.kind == CellFaultKind::Stall && res.cell_timeout.is_none() {
                return Err(
                    "a stall fault needs a cell timeout: the watchdog is what recovers from a stall"
                        .to_string(),
                );
            }
            if f.kind == CellFaultKind::Corrupt && !self.verify {
                return Err(
                    "a corrupt fault needs verification enabled to be observable".to_string(),
                );
            }
        }

        // ---- journal: load what a previous (interrupted) run completed,
        // open the appender for what this run will complete
        let resumed: HashMap<u64, JournalEntry> = if res.resume {
            let path = res
                .journal
                .as_ref()
                .ok_or_else(|| "resume requested without a journal path".to_string())?;
            let (map, _skipped) = journal::load(path)
                .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
            map
        } else {
            if let Some(path) = &res.journal {
                let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                if len > 0 {
                    return Err(format!(
                        "journal {} already exists; resume it or remove it first",
                        path.display()
                    ));
                }
            }
            HashMap::new()
        };
        let writer = match &res.journal {
            Some(path) => Some(
                journal::Journal::append_to(path)
                    .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?,
            ),
            None => None,
        };
        let journal_err: Mutex<Option<String>> = Mutex::new(None);

        let watchdog = res.cell_timeout.map(|_| Watchdog::start());

        // ---- phase 1: prepare inputs (generate + upload), one per graph
        let started = Instant::now();
        let started_us = indigo_obs::now_micros();
        progress(ProgressEvent::PhaseStart {
            phase: RunPhase::Prepare,
            total: self.graphs.len(),
        });
        let inputs = run_indexed_parallel(
            self.graphs.len(),
            jobs,
            |g| {
                let input = GraphInput::new(suite_graph(self.graphs[g], self.scale));
                // upload once per graph, reused by every GPU variant
                let dg = DeviceGraph::upload(&input);
                (input, dg)
            },
            |_| 1,
            |done| {
                progress(ProgressEvent::Cell {
                    phase: RunPhase::Prepare,
                    done,
                    total: self.graphs.len(),
                });
            },
        );
        progress(ProgressEvent::PhaseEnd {
            phase: RunPhase::Prepare,
            total: self.graphs.len(),
            secs: started.elapsed().as_secs_f64(),
        });
        emit_phase_span(RunPhase::Prepare, started_us, self.graphs.len());

        // ---- enumerate cells in serial nesting order; the slot index is
        // the position a single-threaded run would emit the measurement at
        let (gpu_cells, cpu_cells, total_cells) = self.enumerate_cells();
        let slots: Vec<OnceLock<CellRecord>> = (0..total_cells).map(|_| OnceLock::new()).collect();

        // journals a freshly executed record and fills its slot
        let settle = |cell: &Cell, record: CellRecord| {
            if !record.resumed {
                if let Some(j) = &writer {
                    if let Err(e) = j.record(&record) {
                        let mut slot = journal_err.lock().unwrap_or_else(|p| p.into_inner());
                        if slot.is_none() {
                            *slot = Some(format!("journal write failed: {e}"));
                        }
                    }
                }
            }
            let filled = slots[cell.slot].set(record);
            debug_assert!(filled.is_ok(), "slot {} measured twice", cell.slot);
        };
        let exec_cell = |cell: &Cell| {
            let record = self.execute_cell(
                cell,
                &inputs[cell.graph],
                options,
                res,
                watchdog.as_ref(),
                &resumed,
            );
            settle(cell, record);
        };

        // ---- phase 2: GPU-sim cells, fanned across the job pool; a job is
        // one cell, or a device pair sharing one simulation (`gpu_jobs`)
        let gpu_jobs = self.gpu_jobs(&gpu_cells, res, &resumed);
        let started = Instant::now();
        let started_us = indigo_obs::now_micros();
        progress(ProgressEvent::PhaseStart {
            phase: RunPhase::GpuSim,
            total: gpu_cells.len(),
        });
        run_indexed_parallel(
            gpu_jobs.len(),
            jobs,
            |j| match &gpu_cells[gpu_jobs[j].clone()] {
                [cell] => exec_cell(cell),
                [a, b] => {
                    let prepared = &inputs[a.graph];
                    let [ra, rb] = self.execute_pair([a, b], prepared, options);
                    settle(a, ra);
                    settle(b, rb);
                }
                _ => unreachable!("GPU jobs hold one or two cells"),
            },
            |j| gpu_jobs[j].len(),
            |done| {
                progress(ProgressEvent::Cell {
                    phase: RunPhase::GpuSim,
                    done,
                    total: gpu_cells.len(),
                });
            },
        );
        progress(ProgressEvent::PhaseEnd {
            phase: RunPhase::GpuSim,
            total: gpu_cells.len(),
            secs: started.elapsed().as_secs_f64(),
        });
        emit_phase_span(RunPhase::GpuSim, started_us, gpu_cells.len());

        // ---- phase 3: CPU wall-clock cells, exclusive (no concurrent
        // measurement work that would skew the timings)
        let started = Instant::now();
        let started_us = indigo_obs::now_micros();
        progress(ProgressEvent::PhaseStart {
            phase: RunPhase::CpuWall,
            total: cpu_cells.len(),
        });
        for (done, cell) in cpu_cells.iter().enumerate() {
            exec_cell(cell);
            progress(ProgressEvent::Cell {
                phase: RunPhase::CpuWall,
                done: done + 1,
                total: cpu_cells.len(),
            });
        }
        progress(ProgressEvent::PhaseEnd {
            phase: RunPhase::CpuWall,
            total: cpu_cells.len(),
            secs: started.elapsed().as_secs_f64(),
        });
        emit_phase_span(RunPhase::CpuWall, started_us, cpu_cells.len());

        let records: Vec<CellRecord> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("every cell slot recorded"))
            .collect();
        if let Some(e) = journal_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(e);
        }
        Ok(MatrixRun { records })
    }

    /// Splits the matrix into GPU-sim and CPU wall-clock cells, assigning
    /// serial-nesting slot indices (graphs → variants → targets).
    fn enumerate_cells(&self) -> (Vec<Cell>, Vec<Cell>, usize) {
        let mut gpu_cells = Vec::new();
        let mut cpu_cells = Vec::new();
        let mut slot = 0usize;
        for graph in 0..self.graphs.len() {
            for (variant, cfg) in self.variants.iter().enumerate() {
                for target in TargetSpec::defaults_for(cfg.model) {
                    let is_gpu = matches!(target, TargetSpec::Gpu(_));
                    let cell = Cell {
                        slot,
                        graph,
                        variant,
                        target,
                    };
                    if is_gpu {
                        gpu_cells.push(cell);
                    } else {
                        cpu_cells.push(cell);
                    }
                    slot += 1;
                }
            }
        }
        (gpu_cells, cpu_cells, slot)
    }

    /// The journal fingerprint and the labels of one cell.
    fn identity(&self, cell: &Cell) -> (u64, String, &'static str, String) {
        let variant = self.variants[cell.variant].name();
        let graph = self.graphs[cell.graph].label();
        let target = cell.target.label();
        let fp = journal::fingerprint(self.scale, self.reps, self.verify, &variant, graph, &target);
        (fp, variant, graph, target)
    }

    /// Groups the GPU cells into jobs of one cell or of a device pair. A
    /// variant's two GPU cells on one graph share one simulation, priced
    /// for both devices, when that cannot change either outcome: the
    /// variant is not persistent (a persistent grid is sized by SM count,
    /// so the devices' lanes would map to different items), the devices
    /// share `block_dim`, nothing is armed for either cell (fault, cycle
    /// budget, wall-clock timeout) and neither is replayed from a journal.
    fn gpu_jobs(
        &self,
        cells: &[Cell],
        res: &Resilience,
        resumed: &HashMap<u64, JournalEntry>,
    ) -> Vec<Range<usize>> {
        let unarmed = res.cell_timeout.is_none() && res.cycle_budget.is_none();
        let pairable = |a: &Cell, b: &Cell| {
            let (TargetSpec::Gpu(da), TargetSpec::Gpu(db)) = (&a.target, &b.target) else {
                return false;
            };
            unarmed
                && a.graph == b.graph
                && a.variant == b.variant
                && !persistent_of(&self.variants[a.variant])
                && da.block_dim == db.block_dim
                && [a, b].iter().all(|c| {
                    res.fault.is_none_or(|f| f.cell != c.slot)
                        && !resumed.contains_key(&self.identity(c).0)
                })
        };
        let mut jobs = Vec::with_capacity(cells.len());
        let mut i = 0;
        while i < cells.len() {
            let len = match cells.get(i..i + 2) {
                Some([a, b]) if pairable(a, b) => 2,
                _ => 1,
            };
            jobs.push(i..i + len);
            i += len;
        }
        jobs
    }

    /// Runs (or replays) one cell to a [`CellRecord`]. This is the
    /// isolation boundary: whatever happens inside — panic, cancellation,
    /// verification failure — ends as a structured outcome, never an
    /// unwind into the scheduler.
    fn execute_cell(
        &self,
        cell: &Cell,
        prepared: &(GraphInput, DeviceGraph),
        options: &RunOptions,
        res: &Resilience,
        watchdog: Option<&Watchdog>,
        resumed: &HashMap<u64, JournalEntry>,
    ) -> CellRecord {
        let cfg = &self.variants[cell.variant];
        let which = self.graphs[cell.graph];
        let (fp, variant, graph_label, target_label) = self.identity(cell);
        if let Some(entry) = resumed.get(&fp) {
            return replay_record(fp, cfg, graph_label, &target_label, &variant, entry);
        }

        let fault_here = res.fault.filter(|f| f.cell == cell.slot);
        // supervision is armed only when something could use it, so the
        // strict/legacy path stays token-free
        let needs_token =
            res.cell_timeout.is_some() || res.cycle_budget.is_some() || fault_here.is_some();
        let token = needs_token.then(CancelToken::new);
        let guard = match (watchdog, &token, res.cell_timeout) {
            (Some(w), Some(t), Some(budget)) => Some(w.watch(budget, t.clone())),
            _ => None,
        };
        let mut sup = Supervision {
            cancel: token,
            sim_cycle_budget: res.cycle_budget,
            fault: None,
        };
        let mut corrupt = false;
        let mut harness_fault = None;
        if let Some(f) = fault_here {
            let is_gpu = matches!(cell.target, TargetSpec::Gpu(_));
            match f.kind {
                // corruption is injected between the run and the verifier
                CellFaultKind::Corrupt => corrupt = true,
                // GPU faults strike inside the simulator, at a launch
                // boundary; CPU faults are injected right here at the
                // harness layer
                CellFaultKind::Panic if is_gpu => {
                    sup.fault = Some(FaultPlan {
                        kind: FaultKind::Panic,
                        at_launch: 0,
                    })
                }
                CellFaultKind::Stall if is_gpu => {
                    sup.fault = Some(FaultPlan {
                        kind: FaultKind::Stall,
                        at_launch: 0,
                    })
                }
                other => harness_fault = Some(other),
            }
        }

        let (input, dg) = prepared;
        let started_us = cell_clock();
        let run = catch_unwind(AssertUnwindSafe(|| {
            match harness_fault {
                Some(CellFaultKind::Panic) => {
                    panic!("injected fault: panic at cell {}", cell.slot)
                }
                Some(CellFaultKind::Stall) => {
                    let t = sup.cancel.as_ref().expect("stall faults carry a token");
                    loop {
                        t.checkpoint();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                _ => {}
            }
            self.run_cell(
                cfg,
                which,
                input,
                dg,
                &cell.target,
                options.sim_workers,
                &sup,
                corrupt,
            )
        }));
        let wall_budget = guard
            .as_ref()
            .filter(|g| g.wall_fired())
            .and(res.cell_timeout)
            .map(|d| d.as_secs_f64());
        drop(guard);
        let (outcome, sim_stats) = match run {
            Ok(Ok((m, s))) => (CellOutcome::Ok(m), s),
            Ok(Err(detail)) => (CellOutcome::WrongAnswer { detail }, None),
            Err(payload) => (failure_outcome(payload.as_ref(), wall_budget), None),
        };
        let dur_us = cell_clock().saturating_sub(started_us);
        finish_record(
            fp,
            variant,
            graph_label,
            target_label,
            outcome,
            sim_stats,
            (started_us, dur_us),
        )
    }

    /// Runs a device pair formed by [`RunPlan::gpu_jobs`]: one simulation
    /// of the variant priced for both devices, verified once, and two
    /// records — each bit-identical to what its cell gets run alone. Same
    /// isolation boundary as [`RunPlan::execute_cell`].
    fn execute_pair(
        &self,
        cells: [&Cell; 2],
        prepared: &(GraphInput, DeviceGraph),
        options: &RunOptions,
    ) -> [CellRecord; 2] {
        let cfg = &self.variants[cells[0].variant];
        let which = self.graphs[cells[0].graph];
        let devices = cells.map(|c| match c.target {
            TargetSpec::Gpu(d) => d,
            TargetSpec::Cpu(..) => unreachable!("pairs are GPU cells"),
        });
        let (input, dg) = prepared;
        let started_us = cell_clock();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let run =
                run_gpu_supervised(cfg, dg, &devices, options.sim_workers, &Supervision::none());
            if self.verify {
                verify::check(cfg, input, &run.output)?;
            }
            Ok::<_, String>(run)
        }));
        // the pair's wall time is split evenly between its two cell spans
        let half_us = cell_clock().saturating_sub(started_us) / 2;
        std::array::from_fn(|k| {
            let cell = cells[k];
            let (fp, variant, graph_label, target_label) = self.identity(cell);
            let (outcome, sim_stats) = match &run {
                Ok(Ok(run)) => (
                    CellOutcome::Ok(measurement(
                        cfg,
                        which,
                        input,
                        &cell.target,
                        run.secs[k],
                        run.iterations,
                    )),
                    Some(run.sim[k]),
                ),
                Ok(Err(detail)) => (
                    CellOutcome::WrongAnswer {
                        detail: detail.clone(),
                    },
                    None,
                ),
                Err(payload) => (failure_outcome(payload.as_ref(), None), None),
            };
            finish_record(
                fp,
                variant,
                graph_label,
                target_label,
                outcome,
                sim_stats,
                (started_us + k as u64 * half_us, half_us),
            )
        })
    }

    /// Measures one cell. `Err` means the output diverged from the serial
    /// reference (the detail string); panics — including [`Cancelled`]
    /// unwinds from the supervision machinery — propagate to the caller's
    /// isolation boundary. The second element carries simulator statistics
    /// for GPU cells (telemetry only; `None` for CPU cells).
    ///
    /// [`Cancelled`]: indigo_cancel::Cancelled
    #[allow(clippy::too_many_arguments)]
    fn run_cell(
        &self,
        cfg: &StyleConfig,
        which: SuiteGraph,
        input: &GraphInput,
        dg: &DeviceGraph,
        target: &TargetSpec,
        sim_workers: usize,
        sup: &Supervision,
        corrupt: bool,
    ) -> Result<(Measurement, Option<SimStats>), String> {
        let (mut output, iterations, secs, sim_stats) = match target {
            TargetSpec::Gpu(device) => {
                // the simulator is deterministic: one run is exact
                let run = run_gpu_supervised(cfg, dg, &[*device], sim_workers, sup);
                (run.output, run.iterations, run.secs[0], Some(run.sim[0]))
            }
            TargetSpec::Cpu(_, threads) => {
                let cpu = Target::cpu(*threads);
                let first = run_variant_supervised(cfg, input, &cpu, sup);
                let mut secs = vec![first.secs];
                for _ in 1..self.reps.max(1) {
                    // repetition boundaries are cancellation points
                    if let Some(token) = &sup.cancel {
                        token.checkpoint();
                    }
                    secs.push(run_variant_supervised(cfg, input, &cpu, sup).secs);
                }
                secs.sort_by(f64::total_cmp);
                (first.output, first.iterations, interp_median(&secs), None)
            }
        };
        if corrupt {
            corrupt_output(&mut output);
        }
        if self.verify {
            verify::check(cfg, input, &output)?;
        }
        Ok((
            measurement(cfg, which, input, target, secs, iterations),
            sim_stats,
        ))
    }
}

/// A cell's measurement from its (median) run time.
fn measurement(
    cfg: &StyleConfig,
    which: SuiteGraph,
    input: &GraphInput,
    target: &TargetSpec,
    secs: f64,
    iterations: usize,
) -> Measurement {
    let geps = if secs > 0.0 {
        input.num_edges() as f64 / secs / 1e9
    } else {
        f64::INFINITY
    };
    Measurement {
        cfg: *cfg,
        graph: which.label(),
        target: target.label(),
        geps,
        iterations,
    }
}

/// The outcome of a cell whose run unwound: a cancellation is a timeout
/// (`wall_budget` is the watchdog's budget when it was the one that
/// fired), anything else a crash.
fn failure_outcome(payload: &(dyn std::any::Any + Send), wall_budget: Option<f64>) -> CellOutcome {
    match indigo_cancel::as_cancelled(payload) {
        Some(c) => CellOutcome::TimedOut {
            budget_secs: wall_budget,
            reason: c.reason.clone(),
        },
        None => CellOutcome::Crashed {
            payload: indigo_cancel::payload_text(payload),
        },
    }
}

/// Cell-span clock: microseconds in telemetry builds, 0 otherwise.
fn cell_clock() -> u64 {
    if indigo_obs::enabled() {
        indigo_obs::now_micros()
    } else {
        0
    }
}

/// Builds an executed cell's record, emitting its telemetry span
/// (`span` = start and duration in microseconds) first.
fn finish_record(
    fingerprint: u64,
    variant: String,
    graph: &'static str,
    target: String,
    outcome: CellOutcome,
    sim_stats: Option<SimStats>,
    (started_us, dur_us): (u64, u64),
) -> CellRecord {
    if indigo_obs::enabled() {
        indigo_obs::Hist::CellMicros.record(dur_us);
        let mut ev = indigo_obs::TraceEvent::span(
            "cell",
            format!("{variant}|{graph}|{target}"),
            started_us,
            dur_us.max(1),
        )
        .with_arg("outcome", outcome.label());
        if let CellOutcome::Ok(m) = &outcome {
            ev = ev
                .with_arg("geps", format!("{:.6}", m.geps))
                .with_arg("iterations", m.iterations.to_string());
        }
        if let Some(s) = sim_stats {
            ev = ev
                .with_arg("sim_cycles", format!("{:.0}", s.cycles))
                .with_arg("sim_launches", s.launches.to_string())
                .with_arg("sim_accesses", s.accesses.to_string());
        }
        indigo_obs::emit(&ev);
    }
    CellRecord {
        fingerprint,
        variant,
        graph,
        target,
        outcome,
        resumed: false,
    }
}

/// Median of an already-sorted, non-empty sample. Even-length samples
/// interpolate the two middles (matching `Summary::compute`'s `q(0.5)`);
/// taking the upper middle would report the *slower* of two repetitions
/// under the recorded `--reps 2` default, a systematic downward geps bias.
/// Note: this changes the geps bits for even-rep CPU cells, so journals
/// recorded before the fix replay with the old (biased) values — cell
/// fingerprints cover the plan, not the measured value.
pub(crate) fn interp_median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Emits one trace span covering a whole scheduler phase. `started_us` is
/// captured unconditionally at phase start (one clock read per phase); the
/// event itself only exists in telemetry builds with a sink installed.
fn emit_phase_span(phase: RunPhase, started_us: u64, cells: usize) {
    if indigo_obs::enabled() {
        let dur = indigo_obs::now_micros().saturating_sub(started_us);
        indigo_obs::emit(
            &indigo_obs::TraceEvent::span("phase", phase.label(), started_us, dur.max(1))
                .with_arg("cells", cells.to_string()),
        );
    }
}

/// Rebuilds a [`CellRecord`] from a journal entry instead of executing the
/// cell. `Ok` outcomes restore the exact `f64` bits, so downstream CSVs are
/// byte-identical to an uninterrupted run.
fn replay_record(
    fp: u64,
    cfg: &StyleConfig,
    graph: &'static str,
    target: &str,
    variant: &str,
    entry: &JournalEntry,
) -> CellRecord {
    let outcome = match &entry.outcome {
        JournalOutcome::Ok {
            geps_bits,
            iterations,
        } => CellOutcome::Ok(Measurement {
            cfg: *cfg,
            graph,
            target: target.to_string(),
            geps: f64::from_bits(*geps_bits),
            iterations: *iterations,
        }),
        JournalOutcome::Crashed { payload } => CellOutcome::Crashed {
            payload: payload.clone(),
        },
        JournalOutcome::TimedOut {
            budget_secs,
            reason,
        } => CellOutcome::TimedOut {
            budget_secs: *budget_secs,
            reason: reason.clone(),
        },
        JournalOutcome::WrongAnswer { detail } => CellOutcome::WrongAnswer {
            detail: detail.clone(),
        },
    };
    CellRecord {
        fingerprint: fp,
        variant: variant.to_string(),
        graph,
        target: target.to_string(),
        outcome,
        resumed: true,
    }
}

/// Deterministically corrupts one output value — the `Corrupt` fault's
/// payload, guaranteed to trip the §4.1 verifier.
fn corrupt_output(out: &mut Output) {
    match out {
        Output::Levels(v) | Output::Distances(v) | Output::Labels(v) => {
            if let Some(x) = v.first_mut() {
                *x = x.wrapping_add(1);
            }
        }
        Output::MisSet(v) => {
            if let Some(x) = v.first_mut() {
                *x = !*x;
            }
        }
        Output::Ranks(v) => {
            if let Some(x) = v.first_mut() {
                *x += 1.0;
            }
        }
        Output::Triangles(c) => *c = c.wrapping_add(1),
    }
}

// ---- watchdog ------------------------------------------------------------

struct WatchState {
    active: AtomicBool,
    fired: AtomicBool,
}

struct Watched {
    deadline: Instant,
    budget: Duration,
    token: CancelToken,
    state: Arc<WatchState>,
}

struct WatchInner {
    stop: bool,
    cells: Vec<Watched>,
}

struct WatchShared {
    inner: Mutex<WatchInner>,
    wake: std::sync::Condvar,
}

/// The watchdog: one monitor thread per matrix run that fires the
/// [`CancelToken`] of any registered cell past its wall-clock budget. The
/// cell itself unwinds at its next cooperative checkpoint; the watchdog
/// never kills threads.
///
/// The thread sleeps until the *earliest registered deadline* (woken by a
/// condvar on registration and shutdown) rather than polling: with generous
/// budgets it wakes a handful of times per run, so supervision costs no
/// measurable CPU even on a single-core host where a polling watchdog
/// steals cycles from the cell being measured.
struct Watchdog {
    shared: Arc<WatchShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn start() -> Watchdog {
        let shared = Arc::new(WatchShared {
            inner: Mutex::new(WatchInner {
                stop: false,
                cells: Vec::new(),
            }),
            wake: std::sync::Condvar::new(),
        });
        let inner = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("cell-watchdog".into())
            .spawn(move || {
                let mut guard = inner.inner.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if guard.stop {
                        return;
                    }
                    let now = Instant::now();
                    guard.cells.retain(|w| {
                        if !w.state.active.load(Ordering::Acquire) {
                            return false;
                        }
                        if now >= w.deadline {
                            w.token.fire(format!(
                                "wall-clock budget of {:.3}s exceeded",
                                w.budget.as_secs_f64()
                            ));
                            w.state.fired.store(true, Ordering::Release);
                            if indigo_obs::enabled() {
                                indigo_obs::Counter::WatchdogFired.incr();
                                indigo_obs::emit(
                                    &indigo_obs::TraceEvent::instant(
                                        "watchdog-fire",
                                        "cell budget exceeded",
                                        indigo_obs::now_micros(),
                                    )
                                    .with_arg(
                                        "budget_secs",
                                        format!("{:.3}", w.budget.as_secs_f64()),
                                    ),
                                );
                            }
                            return false;
                        }
                        true
                    });
                    // registration can only *extend* the earliest deadline
                    // (every budget starts from its own `now`), so sleeping
                    // to the current minimum never overshoots a new cell
                    let timeout = guard
                        .cells
                        .iter()
                        .map(|w| w.deadline.saturating_duration_since(now))
                        .min()
                        .unwrap_or(Duration::from_secs(3600));
                    guard = inner
                        .wake
                        .wait_timeout(guard, timeout)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            })
            .expect("spawn cell-watchdog thread");
        Watchdog {
            shared,
            handle: Some(handle),
        }
    }

    /// Registers one cell; the returned guard deregisters on drop and
    /// remembers whether the watchdog fired.
    fn watch(&self, budget: Duration, token: CancelToken) -> WatchGuard {
        if indigo_obs::enabled() {
            indigo_obs::Counter::WatchdogArmed.incr();
        }
        let state = Arc::new(WatchState {
            active: AtomicBool::new(true),
            fired: AtomicBool::new(false),
        });
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .cells
            .push(Watched {
                deadline: Instant::now() + budget,
                budget,
                token,
                state: Arc::clone(&state),
            });
        self.shared.wake.notify_one();
        WatchGuard { state }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stop = true;
        self.shared.wake.notify_one();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct WatchGuard {
    state: Arc<WatchState>,
}

impl WatchGuard {
    /// Whether the watchdog's wall-clock deadline fired for this cell.
    fn wall_fired(&self) -> bool {
        self.state.fired.load(Ordering::Acquire)
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.state.active.store(false, Ordering::Release);
    }
}

// ---- indexed parallel driver ---------------------------------------------

/// Runs `work(i)` for every `i in 0..n` on up to `jobs` threads (dynamic
/// work-stealing from a shared cursor) while the calling thread reports
/// completion counts through `tick`: the summed `weight(i)` of the items
/// done so far (an item may stand for several units, as a paired GPU job
/// stands for two cells). With `jobs == 1` everything runs inline on the
/// caller — no threads, `tick` after every item.
///
/// A panic inside `work` does **not** poison the queue: the worker records
/// the payload against its index and keeps draining, so every other index
/// still completes. The earliest-index payload is re-raised on the calling
/// thread afterwards. (The resilient cell path wraps `work` in its own
/// isolation and never panics; this matters for graph preparation and any
/// external callers.)
///
/// Returns collected results ordered by index when `work` returns a value;
/// pass a `()`-returning closure for side-effect-only stages.
fn run_indexed_parallel<T, W>(
    n: usize,
    jobs: usize,
    work: W,
    weight: impl Fn(usize) -> usize + Sync,
    mut tick: impl FnMut(usize),
) -> Vec<T>
where
    T: Send + Sync,
    W: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if jobs <= 1 || n == 1 {
        let mut done = 0;
        return (0..n)
            .map(|i| {
                let r = work(i);
                done += weight(i);
                tick(done);
                r
            })
            .collect();
    }
    let out: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());
    let cursor = AtomicUsize::new(0);
    // completed items and their summed weight + the wake-up: the caller
    // ticks as soon as an item lands, with no polling delay after the last
    let finished = (Mutex::new((0usize, 0usize)), Condvar::new());
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| work(i))) {
                    Ok(v) => {
                        let filled = out[i].set(v);
                        debug_assert!(filled.is_ok(), "index {i} computed twice");
                    }
                    Err(payload) => panics
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((i, payload)),
                }
                let w = weight(i);
                let mut done = finished.0.lock().unwrap_or_else(|e| e.into_inner());
                done.0 += 1;
                done.1 += w;
                drop(done);
                finished.1.notify_one();
            });
        }
        // the caller's thread narrates progress while workers drain; every
        // index finishes (success or recorded panic), so this always
        // converges to n
        let mut last = 0usize;
        while last < n {
            let mut done = finished.0.lock().unwrap_or_else(|e| e.into_inner());
            while done.0 == last {
                done = finished.1.wait(done).unwrap_or_else(|e| e.into_inner());
            }
            let (items, units) = *done;
            drop(done);
            last = items;
            tick(units);
        }
    });
    let mut panics = panics.into_inner().unwrap_or_else(|e| e.into_inner());
    if !panics.is_empty() {
        panics.sort_by_key(|(i, _)| *i);
        std::panic::resume_unwind(panics.remove(0).1);
    }
    out.into_iter()
        .map(|c| c.into_inner().expect("every index computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::FaultSpec;

    #[test]
    fn tiny_matrix_runs_and_verifies() {
        let plan = RunPlan::for_algorithms(&[Algorithm::Bfs], &[Model::Cpp], Scale::Tiny, 1)
            .filter(|c| c.cpp_schedule == Some(indigo_styles::CppSchedule::Blocked))
            .with_graphs(vec![SuiteGraph::Grid2d]);
        let ms = plan.run(|_, _| {});
        // 20 blocked BFS Cpp variants × 1 graph × 2 system profiles
        assert_eq!(ms.len(), plan.variants.len() * 2);
        assert!(ms.iter().all(|m| m.geps.is_finite() && m.geps > 0.0));
    }

    #[test]
    fn gpu_cells_are_deterministic() {
        let plan = RunPlan::for_algorithms(&[Algorithm::Tc], &[Model::Cuda], Scale::Tiny, 1)
            .filter(|c| c.granularity == Some(indigo_styles::Granularity::Warp))
            .with_graphs(vec![SuiteGraph::CoPapers]);
        let a = plan.run(|_, _| {});
        let b = plan.run(|_, _| {});
        let ga: Vec<f64> = a.iter().map(|m| m.geps).collect();
        let gb: Vec<f64> = b.iter().map(|m| m.geps).collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn parallel_schedule_matches_serial_bitwise() {
        // mixed GPU + CPU slice; geps of GPU cells must be bit-identical
        // across job counts, and cell order must match the serial nesting
        let plan = RunPlan::for_algorithms(
            &[Algorithm::Tc, Algorithm::Pr],
            &[Model::Cuda],
            Scale::Tiny,
            1,
        )
        .filter(|c| c.granularity != Some(indigo_styles::Granularity::Block))
        .with_graphs(vec![SuiteGraph::Grid2d, SuiteGraph::Rmat]);
        let serial = plan.run_with(&RunOptions::default(), |_| {});
        for jobs in [2usize, 4] {
            let par = plan.run_with(
                &RunOptions::default().with_jobs(jobs).with_sim_workers(2),
                |_| {},
            );
            assert_eq!(serial.len(), par.len(), "jobs={jobs}");
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.cfg.name(), b.cfg.name(), "jobs={jobs}");
                assert_eq!(a.graph, b.graph);
                assert_eq!(a.target, b.target);
                assert_eq!(
                    a.geps.to_bits(),
                    b.geps.to_bits(),
                    "{} on {}",
                    a.cfg.name(),
                    a.graph
                );
                assert_eq!(a.iterations, b.iterations);
            }
        }
    }

    #[test]
    fn progress_events_are_phase_structured() {
        let plan = RunPlan::for_algorithms(&[Algorithm::Tc], &[Model::Cuda], Scale::Tiny, 1)
            .filter(|c| {
                c.granularity == Some(indigo_styles::Granularity::Thread)
                    && c.atomic == Some(indigo_styles::AtomicKind::Atomic)
            })
            .with_graphs(vec![SuiteGraph::Grid2d]);
        let mut events = Vec::new();
        let ms = plan.run_with(&RunOptions::default().with_jobs(2), |ev| events.push(ev));
        // three phases, each bracketed by start/end
        for phase in [RunPhase::Prepare, RunPhase::GpuSim, RunPhase::CpuWall] {
            assert!(events
                .iter()
                .any(|e| matches!(e, ProgressEvent::PhaseStart { phase: p, .. } if *p == phase)));
            assert!(events
                .iter()
                .any(|e| matches!(e, ProgressEvent::PhaseEnd { phase: p, .. } if *p == phase)));
        }
        // the GPU phase accounts for every cell (all-CUDA plan)
        let gpu_total = events
            .iter()
            .find_map(|e| match e {
                ProgressEvent::PhaseStart {
                    phase: RunPhase::GpuSim,
                    total,
                } => Some(*total),
                _ => None,
            })
            .unwrap();
        assert_eq!(gpu_total, ms.len());
    }

    #[test]
    fn even_rep_median_interpolates_not_upper_middle() {
        // the recorded default is `--reps 2`: the median must be the
        // midpoint of the two repetitions, not the slower one
        let fast = 0.010;
        let slow = 0.030;
        let m = interp_median(&[fast, slow]);
        assert!((m - 0.020).abs() < 1e-15, "got {m}, want midpoint");
        assert!(m < slow, "even-rep median must not report the slower rep");
        // odd lengths keep the exact middle element
        assert_eq!(interp_median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(interp_median(&[1.0]), 1.0);
        // four reps: average of the two middles
        assert!((interp_median(&[1.0, 2.0, 4.0, 8.0]) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn target_labels_distinct() {
        let cuda = TargetSpec::defaults_for(Model::Cuda);
        let cpu = TargetSpec::defaults_for(Model::Omp);
        assert_eq!(cuda.len(), 2);
        assert_eq!(cpu.len(), 2);
        assert_ne!(cuda[0].label(), cuda[1].label());
        assert_ne!(cpu[0].label(), cpu[1].label());
    }

    #[test]
    fn run_indexed_parallel_ticks_every_completion_up_to_n() {
        let mut ticks = Vec::new();
        let out = run_indexed_parallel(32, 4, |i| i * 2, |_| 1, |done| ticks.push(done));
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(ticks.last(), Some(&32));
        assert!(ticks.windows(2).all(|w| w[0] < w[1]), "{ticks:?}");
        // weighted items tick their summed weight, serially and in parallel
        for jobs in [1, 4] {
            let mut ticks = Vec::new();
            run_indexed_parallel(10, jobs, |_| (), |i| 1 + i % 2, |done| ticks.push(done));
            assert_eq!(ticks.last(), Some(&15), "jobs={jobs}");
            assert!(ticks.windows(2).all(|w| w[0] < w[1]), "{ticks:?}");
        }
    }

    #[test]
    fn run_indexed_parallel_drains_after_worker_panic() {
        // a panicking item must neither deadlock the queue nor prevent the
        // remaining indices from completing; its payload re-raises on the
        // caller afterwards
        let done = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_indexed_parallel(
                16,
                4,
                |i| {
                    if i == 3 {
                        panic!("boom at {i}");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                },
                |_| 1,
                |_| {},
            )
        }))
        .unwrap_err();
        assert_eq!(indigo_cancel::payload_text(err.as_ref()), "boom at 3");
        assert_eq!(done.load(Ordering::Relaxed), 15, "all other items ran");
    }

    fn tc_plan() -> RunPlan {
        RunPlan::for_algorithms(&[Algorithm::Tc], &[Model::Cuda], Scale::Tiny, 1)
            .filter(|c| c.granularity == Some(indigo_styles::Granularity::Thread))
            .with_graphs(vec![SuiteGraph::Grid2d])
    }

    #[test]
    fn injected_gpu_panic_isolates_a_single_cell() {
        let plan = tc_plan();
        let opts = RunOptions::default().with_jobs(2);
        let clean = plan.run_cells(&opts, &Resilience::none(), |_| {}).unwrap();
        let faulty = plan
            .run_cells(
                &opts,
                &Resilience::none().with_fault(FaultSpec::parse("panic@1").unwrap()),
                |_| {},
            )
            .unwrap();
        assert_eq!(clean.records.len(), faulty.records.len());
        for (i, (c, f)) in clean.records.iter().zip(&faulty.records).enumerate() {
            if i == 1 {
                match &f.outcome {
                    CellOutcome::Crashed { payload } => {
                        assert!(payload.contains("injected fault"), "{payload}")
                    }
                    other => panic!("expected crash, got {other:?}"),
                }
            } else {
                // every other cell is bit-identical to the fault-free run
                let (a, b) = (
                    c.outcome.measurement().unwrap(),
                    f.outcome.measurement().unwrap(),
                );
                assert_eq!(a.geps.to_bits(), b.geps.to_bits(), "cell {i}");
            }
        }
        let summary = faulty.summary();
        assert_eq!(summary.crashed, 1);
        assert_eq!(summary.exit_code(), 2);
        assert_eq!(clean.summary().exit_code(), 0);
    }

    /// Thread-granularity TC without the persistent variants: every
    /// variant's two GPU cells share one simulation.
    fn paired_plan() -> RunPlan {
        tc_plan().filter(|c| !persistent_of(c))
    }

    #[test]
    fn gpu_progress_counts_cells_and_ends_at_total() {
        // tc_plan mixes paired (non-persistent) and single (persistent) jobs
        let plan = tc_plan();
        assert!(plan.variants.iter().any(persistent_of));
        for jobs in [1, 2] {
            let mut dones = Vec::new();
            let mut total = 0;
            plan.run_with(&RunOptions::default().with_jobs(jobs), |ev| {
                if let ProgressEvent::Cell {
                    phase: RunPhase::GpuSim,
                    done,
                    total: t,
                } = ev
                {
                    dones.push(done);
                    total = t;
                }
            });
            assert_eq!(total, plan.variants.len() * 2, "jobs={jobs}");
            assert_eq!(dones.last(), Some(&total), "jobs={jobs}: {dones:?}");
            assert!(dones.windows(2).all(|w| w[0] < w[1]), "{dones:?}");
            if jobs == 1 {
                // a pair lands both of its cells at once
                assert!(dones.windows(2).any(|w| w[1] - w[0] == 2), "{dones:?}");
                assert!(dones.len() < total, "{dones:?}");
            }
        }
    }

    #[test]
    fn paired_cells_record_the_bits_of_unpaired_ones() {
        // a wall-clock timeout arms every cell, which keeps them unpaired
        let plan = tc_plan();
        let opts = RunOptions::default().with_jobs(2);
        let paired = plan.run_cells(&opts, &Resilience::none(), |_| {}).unwrap();
        let single = plan
            .run_cells(
                &opts,
                &Resilience::none().with_cell_timeout(Duration::from_secs(3600)),
                |_| {},
            )
            .unwrap();
        assert_eq!(paired.records.len(), single.records.len());
        for (a, b) in paired.records.iter().zip(&single.records) {
            assert_eq!(a.fingerprint, b.fingerprint);
            let (ma, mb) = (
                a.outcome.measurement().unwrap(),
                b.outcome.measurement().unwrap(),
            );
            assert_eq!(ma.geps.to_bits(), mb.geps.to_bits(), "{}", a.variant);
            assert_eq!(ma.iterations, mb.iterations);
            assert_eq!(ma.target, mb.target);
        }
    }

    #[test]
    fn fault_on_one_cell_of_a_pair_leaves_its_partner_bit_identical() {
        let plan = paired_plan();
        let opts = RunOptions::default().with_jobs(2);
        let clean = plan.run_cells(&opts, &Resilience::none(), |_| {}).unwrap();
        // slots 2 and 3 are the second variant's TitanV and RTX cells
        for k in [2usize, 3] {
            let fault = FaultSpec::parse(&format!("panic@{k}")).unwrap();
            let faulty = plan
                .run_cells(&opts, &Resilience::none().with_fault(fault), |_| {})
                .unwrap();
            for (i, (c, f)) in clean.records.iter().zip(&faulty.records).enumerate() {
                if i == k {
                    assert!(
                        matches!(&f.outcome, CellOutcome::Crashed { payload }
                            if payload.contains("injected fault")),
                        "slot {k}: {:?}",
                        f.outcome
                    );
                    continue;
                }
                let (a, b) = (
                    c.outcome.measurement().unwrap(),
                    f.outcome.measurement().unwrap(),
                );
                assert_eq!(a.geps.to_bits(), b.geps.to_bits(), "fault@{k}, cell {i}");
            }
            assert_eq!(faulty.summary().crashed, 1);
        }
    }

    #[test]
    fn injected_cpu_panic_is_harness_injected() {
        let plan = RunPlan::for_algorithms(&[Algorithm::Bfs], &[Model::Cpp], Scale::Tiny, 1)
            .filter(|c| c.cpp_schedule == Some(indigo_styles::CppSchedule::Blocked))
            .with_graphs(vec![SuiteGraph::Grid2d]);
        let run = plan
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_fault(FaultSpec::parse("panic@0").unwrap()),
                |_| {},
            )
            .unwrap();
        match &run.records[0].outcome {
            CellOutcome::Crashed { payload } => {
                assert_eq!(payload, "injected fault: panic at cell 0")
            }
            other => panic!("expected crash, got {other:?}"),
        }
        assert_eq!(run.summary().ok, run.records.len() - 1);
    }

    #[test]
    fn injected_stall_is_recovered_by_the_watchdog() {
        let plan = tc_plan();
        let res = Resilience::none()
            .with_cell_timeout(Duration::from_millis(100))
            .with_fault(FaultSpec::parse("stall@0").unwrap());
        let run = plan
            .run_cells(&RunOptions::default(), &res, |_| {})
            .unwrap();
        match &run.records[0].outcome {
            CellOutcome::TimedOut {
                budget_secs,
                reason,
            } => {
                assert_eq!(*budget_secs, Some(0.1));
                assert!(reason.contains("wall-clock budget"), "{reason}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(run.summary().timed_out, 1);
        assert_eq!(run.summary().ok, run.records.len() - 1);
    }

    #[test]
    fn zero_cell_timeout_is_rejected_up_front() {
        // an already-expired watchdog would cancel every cell at its first
        // checkpoint — run_cells must refuse rather than time everything out
        let err = tc_plan()
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_cell_timeout(Duration::ZERO),
                |_| {},
            )
            .unwrap_err();
        assert!(err.contains("0s"), "{err}");
        assert!(err.contains("omit"), "{err}");
    }

    #[test]
    fn stall_fault_without_watchdog_is_rejected() {
        let err = tc_plan()
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_fault(FaultSpec::parse("stall@0").unwrap()),
                |_| {},
            )
            .unwrap_err();
        assert!(err.contains("stall fault"), "{err}");
    }

    #[test]
    fn injected_corruption_is_quarantined_by_verification() {
        let plan = tc_plan();
        let run = plan
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_fault(FaultSpec::parse("corrupt@2").unwrap()),
                |_| {},
            )
            .unwrap();
        assert!(matches!(
            run.records[2].outcome,
            CellOutcome::WrongAnswer { .. }
        ));
        assert_eq!(run.summary().wrong_answer, 1);
    }

    #[test]
    fn cycle_budget_times_out_gpu_cells_without_a_watchdog() {
        // an absurdly small simulated-cycle budget cancels every GPU cell —
        // PageRank launches one kernel per iteration, so the budget check
        // (which runs at launch boundaries) actually triggers
        let plan = RunPlan::for_algorithms(&[Algorithm::Pr], &[Model::Cuda], Scale::Tiny, 1)
            .filter(|c| c.granularity == Some(indigo_styles::Granularity::Thread))
            .with_graphs(vec![SuiteGraph::Grid2d]);
        let run = plan
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_cycle_budget(1.0),
                |_| {},
            )
            .unwrap();
        assert_eq!(run.summary().timed_out, run.records.len());
        for r in &run.records {
            match &r.outcome {
                CellOutcome::TimedOut {
                    budget_secs,
                    reason,
                } => {
                    assert_eq!(*budget_secs, None, "no wall-clock budget was set");
                    assert!(reason.contains("simulated-cycle budget"), "{reason}");
                }
                other => panic!("expected timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn journal_resume_replays_bit_identical_outcomes() {
        let dir = std::env::temp_dir().join(format!("indigo-matrix-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        std::fs::remove_file(&path).ok();

        let plan = tc_plan();
        let opts = RunOptions::default();
        let full = plan
            .run_cells(&opts, &Resilience::none().with_journal(&path), |_| {})
            .unwrap();
        assert_eq!(full.summary().resumed, 0);

        // emulate a killed run: keep only the first 2 journal lines
        let text = std::fs::read_to_string(&path).unwrap();
        let head: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&path, format!("{}\n", head.join("\n"))).unwrap();

        let resumed = plan
            .run_cells(&opts, &Resilience::none().resuming(&path), |_| {})
            .unwrap();
        assert_eq!(resumed.summary().resumed, 2);
        assert_eq!(full.records.len(), resumed.records.len());
        for (a, b) in full.records.iter().zip(&resumed.records) {
            assert_eq!(a.fingerprint, b.fingerprint);
            let (ma, mb) = (
                a.outcome.measurement().unwrap(),
                b.outcome.measurement().unwrap(),
            );
            assert_eq!(ma.geps.to_bits(), mb.geps.to_bits());
            assert_eq!(ma.iterations, mb.iterations);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fresh_journal_refuses_to_overwrite_an_existing_one() {
        let dir =
            std::env::temp_dir().join(format!("indigo-matrix-overwrite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        std::fs::write(&path, "{}\n").unwrap();
        let err = tc_plan()
            .run_cells(
                &RunOptions::default(),
                &Resilience::none().with_journal(&path),
                |_| {},
            )
            .unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
