//! The `sweep` workload: a seeded, group-stratified sample of the style
//! suite at Small scale through `RunPlan::run_cells`, as `indigo-exp all`
//! runs the whole suite.
//!
//! It runs the sample once per five seconds of the budget (at least twice)
//! and reports the medians. Traced, it then drives the last pass's cells
//! through the layer functions directly, with the same job count, and
//! reports the layer self times plus the residual the direct calls do not
//! account for.

use crate::trace::{self, Recorder, Span};
use crate::{lat_group, par_map, set_latency, stats, sys, workload, Report};
use indigo_advisor::{Advisor, FeatureVector, TrainingCell};
use indigo_core::gpu::DeviceGraph;
use indigo_core::{run_gpu_with, run_variant, verify, GraphInput, Output, RunResult, Target};
use indigo_graph::gen::{suite_graph, Scale, SuiteGraph, SUITE_GRAPHS};
use indigo_graph::stats::GraphStats;
use indigo_harness::journal::{self, Journal, JournalOutcome};
use indigo_harness::{
    CellOutcome, CellRecord, Measurement, ProgressEvent, Resilience, RunOptions, RunPhase, RunPlan,
    TargetSpec,
};
use indigo_obs::TraceEvent;
use indigo_styles::{Algorithm, StyleConfig};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// CPU wall-clock repetitions per cell, as the ROADMAP headline run.
pub const REPS: usize = 2;
pub const SCALE: Scale = Scale::Small;
/// GPU cells re-run directly and compared bit for bit with `run_cells`.
const CHECKED_CELLS: usize = 6;
/// A run makes one pass per this many of its seconds, at least two, so
/// the work a run does is fixed by its budget, not by the host's speed.
const PASS_SECONDS: u64 = 5;
const MIN_PASSES: usize = 2;

/// What one pass over the sweep's plans produced.
struct Pass {
    wall_s: f64,
    /// Phase wall seconds summed over the plans: prepare, gpu-sim,
    /// cpu-wall.
    phase_s: [f64; 3],
    /// When each cell's result landed, ms after the pass started.
    done_at_ms: Vec<f64>,
    /// Every plan's records, plan after plan.
    records: Vec<CellRecord>,
    journal: HashMap<u64, journal::JournalEntry>,
}

fn phase_index(p: RunPhase) -> usize {
    match p {
        RunPhase::Prepare => 0,
        RunPhase::GpuSim => 1,
        RunPhase::CpuWall => 2,
    }
}

fn journal_path(tag: &str) -> PathBuf {
    crate::out_dir().join(format!("sweep-{}-{tag}.jsonl", std::process::id()))
}

/// The sweep: one plan per suite graph, each with one variant of every
/// (algorithm, model) group drawn for that graph alone (see
/// `workload::sweep_sample`).
fn plans(seed: u64) -> Vec<RunPlan> {
    SUITE_GRAPHS
        .iter()
        .enumerate()
        .map(|(g, &graph)| RunPlan {
            variants: workload::sweep_sample(seed, g, SUITE_GRAPHS.len()),
            graphs: vec![graph],
            scale: SCALE,
            reps: REPS,
            verify: true,
        })
        .collect()
}

fn run_pass(plans: &[RunPlan], opts: &RunOptions) -> Result<Pass, String> {
    let path = journal_path("pass");
    let started = Instant::now();
    let mut pass = Pass {
        wall_s: 0.0,
        phase_s: [0.0; 3],
        done_at_ms: Vec::new(),
        records: Vec::new(),
        journal: HashMap::new(),
    };
    for plan in plans {
        let _ = std::fs::remove_file(&path);
        let mut last_done = 0usize;
        let run = plan.run_cells(
            opts,
            &Resilience::none().with_journal(&path),
            |ev| match ev {
                ProgressEvent::PhaseStart { .. } => last_done = 0,
                ProgressEvent::Cell { phase, done, .. } if phase != RunPhase::Prepare => {
                    let t = started.elapsed().as_secs_f64() * 1e3;
                    pass.done_at_ms
                        .extend(std::iter::repeat_n(t, done.saturating_sub(last_done)));
                    last_done = done;
                }
                ProgressEvent::PhaseEnd { phase, secs, .. } => {
                    pass.phase_s[phase_index(phase)] += secs
                }
                ProgressEvent::Cell { .. } => {}
            },
        );
        let journal = journal::load(&path);
        let _ = std::fs::remove_file(&path);
        pass.records.extend(run?.records);
        pass.journal.extend(
            journal
                .map_err(|e| format!("cannot read the sweep journal: {e}"))?
                .0,
        );
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    Ok(pass)
}

fn graph_of(label: &str) -> SuiteGraph {
    *SUITE_GRAPHS
        .iter()
        .find(|g| g.label() == label)
        .expect("run_cells reports suite graph labels")
}

fn target_of(model: indigo_styles::Model, label: &str) -> TargetSpec {
    TargetSpec::defaults_for(model)
        .into_iter()
        .find(|t| t.label() == label)
        .expect("run_cells reports default target labels")
}

/// The harness's throughput formula (§4.5): edges per second of the
/// median run, in giga-edges.
pub fn geps(input: &GraphInput, secs: f64) -> f64 {
    if secs > 0.0 {
        input.num_edges() as f64 / secs / 1e9
    } else {
        f64::INFINITY
    }
}

/// Counts the pass's cells as attempted and the ones not Ok as failed.
fn count_failures(pass: &Pass, r: &mut Report) {
    for rec in &pass.records {
        r.attempted += 1;
        if !matches!(rec.outcome, CellOutcome::Ok(_)) {
            r.failed += 1;
            r.mismatches.push(format!(
                "cell {}|{}|{} ended {}: {}",
                rec.variant,
                rec.graph,
                rec.target,
                rec.outcome.label(),
                rec.outcome.detail().unwrap_or("")
            ));
        }
    }
}

/// Re-runs a seeded subset of the pass's GPU cells with a direct
/// `run_gpu_with`, which must reproduce the geps bits `run_cells` returned
/// and journaled. Returns (record index, simulated cycles) of each.
fn check_subset(pass: &Pass, opts: &RunOptions, seed: u64, r: &mut Report) -> Vec<(usize, f64)> {
    let gpu: Vec<usize> = (0..pass.records.len())
        .filter(|&i| pass.records[i].target.ends_with("-sim"))
        .collect();
    let mut rng = workload::Rng::new(seed ^ 0xC4EC);
    let mut picked: Vec<usize> = (0..CHECKED_CELLS.min(gpu.len()))
        .map(|_| gpu[rng.below(gpu.len())])
        .collect();
    picked.sort_unstable();
    picked.dedup();
    let mut inputs: HashMap<&str, (GraphInput, DeviceGraph)> = HashMap::new();
    let mut cycles = Vec::new();
    for i in picked {
        let rec = &pass.records[i];
        let Some(m) = rec.outcome.measurement() else {
            continue;
        };
        let (input, dg) = inputs.entry(rec.graph).or_insert_with(|| {
            let input = GraphInput::new(suite_graph(graph_of(rec.graph), SCALE));
            let dg = DeviceGraph::upload(&input);
            (input, dg)
        });
        let TargetSpec::Gpu(device) = target_of(m.cfg.model, &rec.target) else {
            continue;
        };
        let direct = run_gpu_with(&m.cfg, dg, device, opts.sim_workers);
        let bits = geps(input, direct.secs).to_bits();
        let journaled = match pass.journal.get(&rec.fingerprint).map(|e| &e.outcome) {
            Some(JournalOutcome::Ok { geps_bits, .. }) => Some(*geps_bits),
            _ => None,
        };
        if bits != m.geps.to_bits() || journaled != Some(bits) {
            r.mismatches.push(format!(
                "{}|{}|{}: direct geps bits {bits:016x}, run_cells {:016x}, journal {:?}",
                rec.variant,
                rec.graph,
                rec.target,
                m.geps.to_bits(),
                journaled.map(|b| format!("{b:016x}"))
            ));
        }
        cycles.push((i, direct.sim.map_or(0.0, |s| s.cycles)));
    }
    cycles
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Result<Report, String> {
    let opts = RunOptions::auto();
    let plans = plans(seed);
    let mut r = Report::default();
    r.param("scale", "small");
    r.param("reps", REPS);
    r.param("jobs", opts.jobs);
    r.param("sim_workers", opts.sim_workers);
    r.param(
        "variants",
        plans.iter().map(|p| p.variants.len()).sum::<usize>(),
    );

    let cpu0 = sys::cpu_secs();
    let count = MIN_PASSES.max((budget.as_secs() / PASS_SECONDS) as usize);
    let mut passes = vec![run_pass(&plans, &opts)?];
    // peak_rss_mb is the footprint of one pass. Later passes grow the peak
    // by an amount that differs from run to run (allocator retention or a
    // leak), so that growth is reported on its own, per pass.
    let first_rss = sys::peak_rss_mb();
    for _ in 1..count {
        passes.push(run_pass(&plans, &opts)?);
    }
    let cpu_s = sys::cpu_secs() - cpu0;
    let growth = (sys::peak_rss_mb() - first_rss) / (passes.len() - 1) as f64;
    r.set("peak_rss_mb", first_rss);
    r.set("harness.rss_growth_mb_per_pass", growth);
    r.param("rss_growth_mb_per_pass", format!("{growth:.3}"));
    for p in &passes {
        count_failures(p, &mut r);
    }
    // the last pass ran just before the traced one, on a process as warm
    let last = passes.last().expect("at least one pass");
    let direct_cycles = check_subset(last, &opts, seed, &mut r);
    r.param("passes", passes.len());
    if traced {
        traced_pass(&plans, &opts, last, &direct_cycles, &mut r)?;
        return Ok(r);
    }
    r.param("cells_per_pass", passes[0].records.len());
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        stats::median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    r.set("setup_s", per_pass(&|p| p.phase_s[0]));
    let rate = per_pass(&|p| p.records.len() as f64 / p.wall_s);
    r.set("cells_per_s", rate);
    // every cell is one operation of a closed loop of `jobs` workers, so
    // goodput here is the throughput again
    r.set("sat_rps", rate);
    let cells: usize = passes.iter().map(|p| p.records.len()).sum();
    r.set("cpu_ms_per_cell", cpu_s * 1e3 / cells as f64);
    let lat: Vec<_> = passes
        .iter()
        .filter_map(|p| lat_group(&p.done_at_ms))
        .collect();
    set_latency(&mut r, &lat);
    Ok(r)
}

/// Writes an empty output of `algo`'s kind through `verify::check`, which
/// solves and memoizes the serial reference before it compares; the
/// comparison then fails at once on the length. A cell's own check after
/// this is comparison only.
pub fn solve_reference(cfg: &StyleConfig, input: &GraphInput) {
    let probe = match cfg.algorithm {
        Algorithm::Bfs => Output::Levels(Vec::new()),
        Algorithm::Sssp => Output::Distances(Vec::new()),
        Algorithm::Cc => Output::Labels(Vec::new()),
        Algorithm::Mis => Output::MisSet(vec![false; input.num_nodes()]),
        Algorithm::Pr => Output::Ranks(Vec::new()),
        Algorithm::Tc => Output::Triangles(u64::MAX),
    };
    let _ = verify::check(cfg, input, &probe);
}

struct TracedCell {
    slot: usize,
    graph: usize,
    variant: usize,
    target: TargetSpec,
}

struct CellFacts {
    span: u64,
    slot: usize,
    name: String,
    ok: bool,
    geps_bits: u64,
    sim: Option<indigo_core::SimStats>,
}

/// Trace ids at and above this mark graph preparation, below it cells.
const PREPARE_TRACE: u64 = 1_000_000;

/// Drives `pass`'s cells through the layer functions directly, plan by
/// plan and phase by phase as `run_cells` does, timing each call, and sets
/// the per-layer metrics.
fn traced_pass(
    plans: &[RunPlan],
    opts: &RunOptions,
    pass: &Pass,
    direct_cycles: &[(usize, f64)],
    r: &mut Report,
) -> Result<(), String> {
    let jobs = opts.jobs.max(1);
    let rec = Recorder::default();
    let path = journal_path("traced");
    let _ = std::fs::remove_file(&path);
    let journal =
        Journal::append_to(&path).map_err(|e| format!("cannot open the traced journal: {e}"))?;
    let journal_err: Mutex<Option<String>> = Mutex::new(None);
    let started = Instant::now();
    let mut facts: Vec<CellFacts> = Vec::new();
    let mut base = 0usize;
    let mut prepare_trace = PREPARE_TRACE;
    for plan in plans {
        let graphs = &plan.graphs;
        let (prepared, prepare_id) = rec.time("harness.phase", 0, 0, |phase| {
            let v = par_map(graphs.len(), jobs, |g| {
                let trace = prepare_trace + g as u64;
                rec.time("harness.prepare", trace, phase, |p| {
                    let csr = rec.time("graph.gen", trace, p, |_| {
                        suite_graph(graphs[g], plan.scale)
                    });
                    let input = rec.time("core.input", trace, p, |_| GraphInput::new(csr));
                    let dg = rec.time("core.upload", trace, p, |_| DeviceGraph::upload(&input));
                    (input, dg)
                })
            });
            (v, phase)
        });
        prepare_trace += graphs.len() as u64;
        rec.annotate(
            prepare_id,
            "prepare".into(),
            vec![("cells".into(), graphs.len().to_string())],
        );

        // the same cells in the same serial nesting order as run_cells
        let (mut gpu, mut cpu) = (Vec::new(), Vec::new());
        let mut slot = base;
        for graph in 0..graphs.len() {
            for (variant, cfg) in plan.variants.iter().enumerate() {
                for target in TargetSpec::defaults_for(cfg.model) {
                    let c = TracedCell {
                        slot,
                        graph,
                        variant,
                        target,
                    };
                    if matches!(c.target, TargetSpec::Gpu(_)) {
                        gpu.push(c);
                    } else {
                        cpu.push(c);
                    }
                    slot += 1;
                }
            }
        }
        base = slot;

        let solved: Mutex<HashSet<(usize, Algorithm)>> = Mutex::new(HashSet::new());
        let run_cell = |c: &TracedCell, phase: u64| -> CellFacts {
            let trace = c.slot as u64 + 1;
            let cfg = &plan.variants[c.variant];
            let (input, dg) = &prepared[c.graph];
            rec.time("cell", trace, phase, |cell| {
                let (result, secs): (RunResult, f64) = match c.target {
                    TargetSpec::Gpu(device) => {
                        let res = rec.time("gpusim.kernel", trace, cell, |_| {
                            run_gpu_with(cfg, dg, device, opts.sim_workers)
                        });
                        let secs = res.secs;
                        (res, secs)
                    }
                    TargetSpec::Cpu(_, threads) => rec.time("exec.kernel", trace, cell, |_| {
                        let first = run_variant(cfg, input, &Target::cpu(threads));
                        let mut secs = vec![first.secs];
                        for _ in 1..plan.reps.max(1) {
                            secs.push(run_variant(cfg, input, &Target::cpu(threads)).secs);
                        }
                        (first, stats::median(&secs))
                    }),
                };
                let first_use = solved
                    .lock()
                    .expect("solved set poisoned")
                    .insert((c.graph, cfg.algorithm));
                if first_use {
                    rec.time("verify.ref", trace, cell, |_| solve_reference(cfg, input));
                }
                let verdict = rec.time("verify.cmp", trace, cell, |_| {
                    verify::check(cfg, input, &result.output)
                });
                let g = geps(input, secs);
                let label = graphs[c.graph].label();
                let record = CellRecord {
                    fingerprint: journal::fingerprint(
                        plan.scale,
                        plan.reps,
                        plan.verify,
                        &cfg.name(),
                        label,
                        &c.target.label(),
                    ),
                    variant: cfg.name(),
                    graph: label,
                    target: c.target.label(),
                    outcome: match &verdict {
                        Ok(()) => CellOutcome::Ok(Measurement {
                            cfg: *cfg,
                            graph: label,
                            target: c.target.label(),
                            geps: g,
                            iterations: result.iterations,
                        }),
                        Err(detail) => CellOutcome::WrongAnswer {
                            detail: detail.clone(),
                        },
                    },
                    resumed: false,
                };
                if let Err(e) =
                    rec.time("harness.journal", trace, cell, |_| journal.record(&record))
                {
                    journal_err
                        .lock()
                        .expect("journal error slot poisoned")
                        .get_or_insert(format!("traced journal write failed: {e}"));
                }
                CellFacts {
                    span: cell,
                    slot: c.slot,
                    name: format!("{}|{}|{}", cfg.name(), label, c.target.label()),
                    ok: verdict.is_ok(),
                    geps_bits: g.to_bits(),
                    sim: result.sim,
                }
            })
        };

        let (gpu_facts, gpu_phase) = rec.time("harness.phase", 0, 0, |phase| {
            (
                par_map(gpu.len(), jobs, |i| run_cell(&gpu[i], phase)),
                phase,
            )
        });
        rec.annotate(
            gpu_phase,
            "gpu-sim".into(),
            vec![("cells".into(), gpu.len().to_string())],
        );
        let (cpu_facts, cpu_phase) = rec.time("harness.phase", 0, 0, |phase| {
            (
                cpu.iter().map(|c| run_cell(c, phase)).collect::<Vec<_>>(),
                phase,
            )
        });
        rec.annotate(
            cpu_phase,
            "cpu-wall".into(),
            vec![("cells".into(), cpu.len().to_string())],
        );
        facts.extend(gpu_facts);
        facts.extend(cpu_facts);
    }
    let traced_wall_s = started.elapsed().as_secs_f64();
    drop(journal);
    let _ = std::fs::remove_file(&path);
    if let Some(e) = journal_err
        .into_inner()
        .expect("journal error slot poisoned")
    {
        return Err(e);
    }
    facts.sort_by_key(|f| f.slot);

    // every direct call must verify, and reproduce run_cells bit for bit
    // on GPU cells (CPU cells are wall-clock timed)
    for f in &facts {
        let untraced = pass.records[f.slot].outcome.measurement();
        if !f.ok {
            r.mismatches
                .push(format!("traced {} failed verification", f.name));
        } else if f.sim.is_some() && untraced.map(|m| m.geps.to_bits()) != Some(f.geps_bits) {
            r.mismatches.push(format!(
                "traced {} geps bits {:016x} differ from run_cells",
                f.name, f.geps_bits
            ));
        }
    }
    for &(slot, cycles) in direct_cycles {
        let traced = facts[slot].sim.map(|s| s.cycles);
        if traced.map(f64::to_bits) != Some(cycles.to_bits()) {
            r.mismatches.push(format!(
                "{}: traced sim cycles {traced:?} differ from a direct run ({cycles})",
                facts[slot].name
            ));
        }
    }
    for f in &facts {
        let mut args = vec![
            (
                "outcome".to_string(),
                if f.ok { "ok" } else { "wrong-answer" }.to_string(),
            ),
            ("geps".into(), format!("{:.6}", f64::from_bits(f.geps_bits))),
        ];
        if let Some(s) = f.sim {
            args.push(("sim_cycles".into(), format!("{:.0}", s.cycles)));
            args.push(("sim_launches".into(), s.launches.to_string()));
            args.push(("sim_accesses".into(), s.accesses.to_string()));
        }
        rec.annotate(f.span, f.name.clone(), args);
    }

    // the style advisor, fitted on the pass's measured cells
    let features: HashMap<&str, FeatureVector> = SUITE_GRAPHS
        .iter()
        .map(|&g| {
            (
                g.label(),
                GraphStats::compute(&suite_graph(g, SCALE)).features(),
            )
        })
        .collect();
    let training: Vec<TrainingCell> = pass
        .records
        .iter()
        .filter_map(|rec| rec.outcome.measurement())
        .map(|m| TrainingCell {
            algo: m.cfg.algorithm,
            model: m.cfg.model,
            graph: m.graph.to_string(),
            variant: m.cfg.name(),
            features: features[m.graph],
            geps: m.geps,
        })
        .collect();
    let advisor = rec.time("advisor.fit", 0, 0, |_| Advisor::fit(&training));
    r.param("advisor_cells", advisor.num_cells());

    let spans = rec.take();
    layer_metrics(&spans, pass, &facts, jobs, traced_wall_s, r);
    r.events = spans
        .iter()
        .map(trace::to_event)
        .collect::<Vec<TraceEvent>>();
    Ok(())
}

fn layer_metrics(
    spans: &[Span],
    pass: &Pass,
    facts: &[CellFacts],
    jobs: usize,
    traced_wall_s: f64,
    r: &mut Report,
) {
    let by_layer = trace::layer_self_ms(spans);
    let ms = |l: &str| by_layer.get(l).copied().unwrap_or(0.0);
    r.set("graph.gen_ms", ms("graph.gen"));
    r.set("core.input_ms", ms("core.input"));
    r.set("core.upload_ms", ms("core.upload"));
    let kernel = trace::durations_ms(spans, "gpusim.kernel");
    if !kernel.is_empty() {
        r.set("gpusim.kernel_ms_p50", stats::median(&kernel));
    }
    r.set("gpusim.kernel_ms_sum", ms("gpusim.kernel"));
    let accesses: u64 = facts.iter().filter_map(|f| f.sim).map(|s| s.accesses).sum();
    if accesses > 0 {
        r.set(
            "gpusim.host_ns_per_access",
            ms("gpusim.kernel") * 1e6 / accesses as f64,
        );
    }
    r.set(
        "gpusim.sim_cycles",
        facts.iter().filter_map(|f| f.sim).map(|s| s.cycles).sum(),
    );
    r.set("exec.kernel_ms", ms("exec.kernel"));
    r.set("verify.ref_ms", ms("verify.ref"));
    r.set("advisor.fit_ms", ms("advisor.fit"));
    r.set("verify.cmp_ms", ms("verify.cmp"));
    let count = |l: &str| spans.iter().filter(|s| s.layer == l).count() as f64;
    r.set(
        "verify.ref_solves_per_check",
        count("verify.ref") / count("verify.cmp").max(1.0),
    );
    r.set("harness.phase_prepare_s", pass.phase_s[0]);
    r.set("harness.phase_gpusim_s", pass.phase_s[1]);
    r.set("harness.phase_cpuwall_s", pass.phase_s[2]);
    r.set(
        "harness.journal_us",
        ms("harness.journal") * 1e3 / count("harness.journal").max(1.0),
    );

    // residual: each run_cells phase's wall time minus the layer time the
    // direct calls needed for the same work, spread over the threads that
    // phase runs on
    let own = trace::self_times(spans);
    let is_layer = |s: &Span| {
        !matches!(
            s.layer,
            "cell" | "harness.phase" | "harness.prepare" | "advisor.fit"
        )
    };
    let gpu_traces: HashSet<u64> = facts
        .iter()
        .filter(|f| f.sim.is_some())
        .map(|f| f.slot as u64 + 1)
        .collect();
    let mut layer_s = [0.0f64; 3];
    for s in spans.iter().filter(|s| is_layer(s)) {
        let phase = if s.trace >= PREPARE_TRACE {
            0
        } else if gpu_traces.contains(&s.trace) {
            1
        } else {
            2
        };
        layer_s[phase] += own[&s.id] as f64 / 1e9;
    }
    // each plan prepares one graph, so its prepare phase runs on one thread
    let threads = [1.0, jobs as f64, 1.0];
    let residual: f64 = (0..3)
        .map(|p| pass.phase_s[p] - layer_s[p] / threads[p])
        .sum();
    r.set("harness.residual_s", residual);
    r.set("harness.residual_frac", residual / pass.wall_s);
    r.set(
        "bench.trace_overhead_frac",
        spans.len() as f64 * trace::span_cost_s() / traced_wall_s,
    );
    r.param("untraced_wall_s", format!("{:.3}", pass.wall_s));
    r.param("traced_wall_s", format!("{:.3}", traced_wall_s));
    set_latency(r, &Vec::from_iter(lat_group(&pass.done_at_ms)));
}
