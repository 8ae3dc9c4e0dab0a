//! `indigo-exp` — regenerates the paper's tables and figures.
//!
//! ```text
//! indigo-exp all                        # every table and figure
//! indigo-exp fig05 fig16               # a subset
//! indigo-exp tables                    # Tables 1-5 only (no measuring)
//! indigo-exp --smoke                   # small fixed slice, outcome reports
//! indigo-exp sanitize --smoke          # style-conformance verdicts
//!                                      # (needs --features sanitize)
//! indigo-exp serve --port 8080         # fault-tolerant query server
//! indigo-exp serve --chaos             # chaos gate + BENCH_serve.json
//! options:
//!   --scale tiny|small|default|large   # input instance size (default: small)
//!   --reps N                           # CPU wall-clock repetitions (default: 3)
//!   --jobs N                           # host threads for GPU-sim cells
//!                                      # (default: all hardware threads)
//!   --sim-workers N                    # threads inside each deterministic
//!                                      # GPU-sim launch (default: 1)
//!   --out DIR                          # report directory (default: results)
//! fault tolerance (DESIGN.md §7.3):
//!   --cell-timeout SECS                # per-cell wall-clock budget (watchdog)
//!   --cell-cycle-budget CYCLES         # per-cell simulated-cycle budget (GPU)
//!   --journal PATH                     # checkpoint completed cells to PATH
//!   --resume PATH                      # skip cells already in PATH's journal
//!   --inject-fault KIND@CELL           # panic|stall|corrupt at a slot index
//! ```
//!
//! Exit codes: **0** — every cell measured clean; **2** — the run completed
//! but some cells crashed, timed out, or were quarantined (see the
//! `outcomes` report); **1** — harness error (bad arguments, unusable
//! journal, I/O failure).
//!
//! Measurement runs also drop `BENCH_harness.json` in the output directory:
//! suite wall-clock, aggregate cells/sec, job counts, the per-phase
//! breakdown, and the cell outcome counts, for tracking harness throughput
//! across commits. A plain `--smoke` run additionally times the same slice
//! with supervision disabled and records the isolation/watchdog overhead.

use indigo_graph::gen::{Scale, SuiteGraph};
use indigo_harness::experiments::{
    self, correlation, fig14, fig15, fig16, outcomes, tables, throughput,
};
use indigo_harness::matrix::RunPlan;
use indigo_harness::{
    FaultSpec, ProgressEvent, Report, Resilience, RunOptions, RunPhase, RunSummary,
};
use indigo_obs::{console_line, Counter, TraceEvent};
use indigo_serve::ChaosOptions;
use indigo_styles::{Algorithm, Model};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            console_line(&format!("indigo-exp: {e}"));
            std::process::exit(1);
        }
    }
}

/// Everything parsed from the command line.
struct Cli {
    scale: Scale,
    /// Whether `--scale` was given explicitly (smoke defaults down to Tiny
    /// only when it wasn't).
    scale_set: bool,
    reps: usize,
    out_dir: String,
    /// Whether `--out` was given explicitly (`profile` otherwise writes
    /// beside its input trace).
    out_set: bool,
    options: RunOptions,
    res: Resilience,
    smoke: bool,
    selected: Vec<String>,
    /// `trace`/`profile`: explicit input trace (default: newest
    /// `TRACE_*.jsonl` in the output directory).
    trace_in: Option<String>,
    /// `profile`: rows in each top-N table.
    top: usize,
    /// `trace`: validate the trace instead of exporting it.
    check: bool,
    /// `sanitize`: force RMW update sites onto the unsynchronized split
    /// (mutation testing — the run must end in violations).
    mutate: bool,
    /// `serve`: TCP port (0 = ephemeral).
    port: u16,
    /// `serve`: worker threads executing requests.
    serve_workers: usize,
    /// `serve`: admission-queue capacity.
    queue: usize,
    /// `serve`: default per-request deadline, milliseconds.
    deadline_ms: u64,
    /// `serve --chaos`: concurrent synthetic clients.
    clients: usize,
    /// `serve --chaos`: requests per chaos phase.
    requests: usize,
    /// `serve`: run the chaos gate instead of serving in the foreground.
    chaos: bool,
    /// `serve`: batch-former merge cap (1 = every claim runs alone).
    batch: usize,
    /// `serve`: batch-former window, milliseconds.
    batch_window_ms: u64,
    /// `loadgen`: offered request rate.
    rps: f64,
    /// `loadgen`: concurrent client connections.
    conns: usize,
    /// `loadgen`: paced-phase duration, milliseconds.
    duration_ms: u64,
    /// `loadgen`: traffic mix (cached|sweep|mixed).
    mix: String,
}

fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut cli = Cli {
        scale: Scale::Small,
        scale_set: false,
        reps: 3,
        out_dir: "results".to_string(),
        out_set: false,
        options: RunOptions::auto(),
        res: Resilience::none(),
        smoke: false,
        selected: Vec::new(),
        trace_in: None,
        top: 10,
        check: false,
        mutate: false,
        port: 0,
        serve_workers: 2,
        queue: 16,
        deadline_ms: 2_000,
        clients: 4,
        requests: 32,
        chaos: false,
        batch: 8,
        batch_window_ms: 1,
        rps: 300.0,
        conns: 4,
        duration_ms: 2_000,
        mix: "mixed".to_string(),
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                cli.scale_set = true;
                cli.scale = match it.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("default") => Scale::Default,
                    Some("large") => Scale::Large,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--reps" => cli.reps = parse_num(it.next(), "--reps")?,
            "--jobs" => {
                let n = parse_num(it.next(), "--jobs")?;
                cli.options = cli.options.with_jobs(n);
            }
            "--sim-workers" => {
                let n = parse_num(it.next(), "--sim-workers")?;
                cli.options = cli.options.with_sim_workers(n);
            }
            "--out" => {
                cli.out_dir = it.next().ok_or("--out needs a directory")?;
                cli.out_set = true;
            }
            "--cell-timeout" => {
                let secs: f64 = parse_num(it.next(), "--cell-timeout")?;
                if secs.is_nan() || secs <= 0.0 {
                    return Err("--cell-timeout needs a positive number of seconds".into());
                }
                cli.res.cell_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--cell-cycle-budget" => {
                let cycles: f64 = parse_num(it.next(), "--cell-cycle-budget")?;
                if cycles.is_nan() || cycles <= 0.0 {
                    return Err("--cell-cycle-budget needs a positive cycle count".into());
                }
                cli.res.cycle_budget = Some(cycles);
            }
            "--journal" => {
                let path = it.next().ok_or("--journal needs a path")?;
                cli.res = cli.res.with_journal(path);
            }
            "--resume" => {
                let path = it.next().ok_or("--resume needs a journal path")?;
                cli.res = cli.res.resuming(path);
            }
            "--inject-fault" => {
                let spec = it.next().ok_or("--inject-fault needs kind@cell")?;
                cli.res.fault = Some(FaultSpec::parse(&spec)?);
            }
            "--smoke" => cli.smoke = true,
            "--in" => {
                cli.trace_in = Some(it.next().ok_or("--in needs a trace path")?);
            }
            "--top" => cli.top = parse_num(it.next(), "--top")?,
            "--check" => cli.check = true,
            "--mutate-drop-atomics" => cli.mutate = true,
            "--port" => cli.port = parse_num(it.next(), "--port")?,
            "--serve-workers" => cli.serve_workers = parse_num(it.next(), "--serve-workers")?,
            "--queue" => cli.queue = parse_num(it.next(), "--queue")?,
            "--deadline-ms" => cli.deadline_ms = parse_num(it.next(), "--deadline-ms")?,
            "--clients" => cli.clients = parse_num(it.next(), "--clients")?,
            "--requests" => cli.requests = parse_num(it.next(), "--requests")?,
            "--chaos" => cli.chaos = true,
            "--batch" => cli.batch = parse_num(it.next(), "--batch")?,
            "--batch-window-ms" => cli.batch_window_ms = parse_num(it.next(), "--batch-window-ms")?,
            "--rps" => cli.rps = parse_num(it.next(), "--rps")?,
            "--conns" => cli.conns = parse_num(it.next(), "--conns")?,
            "--duration-ms" => cli.duration_ms = parse_num(it.next(), "--duration-ms")?,
            "--mix" => cli.mix = it.next().ok_or("--mix needs cached|sweep|mixed")?,
            "--help" | "-h" => {
                cli.selected.clear();
                cli.selected.push("--help".to_string());
                return Ok(cli);
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => cli.selected.push(other.to_string()),
        }
    }
    Ok(cli)
}

fn parse_num<T: std::str::FromStr>(v: Option<String>, flag: &str) -> Result<T, String> {
    v.and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

fn real_main(args: Vec<String>) -> Result<i32, String> {
    let cli = parse_args(args)?;
    if cli.selected.iter().any(|s| s == "--help") {
        println!("{}", HELP);
        return Ok(0);
    }
    if cli.selected.is_empty() && !cli.smoke {
        println!("{}", HELP);
        return Ok(0);
    }
    match cli.selected.first().map(String::as_str) {
        Some("trace") => return cmd_trace(&cli),
        Some("profile") => return cmd_profile(&cli),
        Some("sanitize") => return cmd_sanitize(&cli),
        Some("serve") => return cmd_serve(&cli),
        Some("loadgen") => return cmd_loadgen(&cli),
        Some("advise") => return cmd_advise(&cli),
        _ => {}
    }

    // cells are isolated: a panicking cell is recorded, not fatal — keep
    // its default panic banner off stderr (cancellations doubly so)
    if resilience_armed(&cli.res) {
        std::panic::set_hook(Box::new(|info| {
            if info
                .payload()
                .downcast_ref::<indigo_cancel::Cancelled>()
                .is_some()
            {
                return;
            }
            console_line(&format!("[cell panic] {info}"));
        }));
    }

    let mut summary: Option<RunSummary> = None;
    let mut reports: Vec<Report> = Vec::new();

    if cli.smoke {
        summary = Some(run_smoke(&cli, &mut reports)?);
    } else {
        let wants = |id: &str| {
            cli.selected.iter().any(|s| s == id)
                || cli.selected.iter().any(|s| s == "all")
                || (id.starts_with("table") && cli.selected.iter().any(|s| s == "tables"))
        };

        // tables need no measurements
        if wants("table1") {
            reports.push(tables::table1());
        }
        if wants("table2") {
            reports.push(tables::table2());
        }
        if wants("table3") {
            reports.push(tables::table3());
        }
        if wants("table45") {
            reports.push(tables::tables45(cli.scale));
        }

        let needs_dataset = experiments::PAIR_SPECS.iter().any(|s| wants(s.id))
            || [
                "fig09", "fig10", "fig11", "fig14", "fig15", "fig16", "corr513",
            ]
            .iter()
            .any(|id| wants(id));
        if needs_dataset {
            console_line(&format!(
                "measuring full suite at {:?} scale ({} CPU reps, {} jobs, {} sim \
                 workers); this runs all 1098 programs on 5 inputs...",
                cli.scale, cli.reps, cli.options.jobs, cli.options.sim_workers
            ));
            start_trace(&cli, "suite", cli.scale);
            let mut reporter = PhaseReporter::new();
            let suite_started = Instant::now();
            let (ds, run) = experiments::Dataset::collect_cells(
                cli.scale,
                cli.reps,
                &cli.options,
                &cli.res,
                |ev| reporter.on_event(ev),
            )?;
            let suite_secs = suite_started.elapsed().as_secs_f64();
            finish_trace("suite", suite_secs);
            let s = run.summary();
            console_line(&format!("matrix complete: {s}"));
            reporter.print_summary(suite_secs);
            if let Err(e) = write_bench_json(&cli, &reporter, suite_secs, &s, None) {
                console_line(&format!("failed to write BENCH_harness.json: {e}"));
            }
            reports.push(outcomes::cells_report(&run));
            reports.push(outcomes::outcomes_report(&run));
            summary = Some(s);

            for spec in experiments::PAIR_SPECS {
                if wants(spec.id) {
                    reports.push(experiments::pair_report(spec, &ds));
                }
            }
            if wants("fig09") {
                reports.push(throughput::fig09(&ds));
            }
            if wants("fig10") {
                reports.push(throughput::fig10(&ds));
            }
            if wants("fig11") {
                reports.push(throughput::fig11(&ds));
            }
            if wants("fig14") {
                reports.push(fig14::fig14(&ds));
            }
            if wants("fig15") {
                reports.push(fig15::fig15(&ds));
            }
            if wants("corr513") {
                reports.push(correlation::correlation(&ds));
            }
            if wants("fig16") {
                console_line("running baselines for fig16...");
                reports.push(fig16::fig16(&ds));
            }
        }
    }

    for r in &reports {
        println!("{}", r.render());
        r.write_to(&cli.out_dir)
            .map_err(|e| format!("failed to write {}: {e}", r.id))?;
    }
    console_line(&format!(
        "wrote {} reports to {}/",
        reports.len(),
        cli.out_dir
    ));
    Ok(summary.map_or(0, |s| s.exit_code()))
}

/// Installs the run's trace sink (`TRACE_<run>.jsonl` in the output
/// directory, fresh per run) and emits the opening `run-start` event.
/// No-op in telemetry-off builds.
fn start_trace(cli: &Cli, run: &str, scale: Scale) {
    if !indigo_obs::enabled() {
        return;
    }
    let path = Path::new(&cli.out_dir).join(format!("TRACE_{run}.jsonl"));
    if std::fs::create_dir_all(&cli.out_dir).is_err() {
        return;
    }
    let _ = std::fs::remove_file(&path); // one trace per run, not an archive
    match indigo_obs::install_trace(&path) {
        Ok(true) => {
            indigo_obs::emit(
                &TraceEvent::instant("run-start", run, indigo_obs::now_micros())
                    .with_arg("jobs", cli.options.jobs.to_string())
                    .with_arg("sim_workers", cli.options.sim_workers.to_string())
                    .with_arg("scale", format!("{scale:?}")),
            );
            console_line(&format!("recording trace to {}", path.display()));
        }
        Ok(false) => {}
        Err(e) => console_line(&format!("cannot open trace {}: {e}", path.display())),
    }
}

/// Emits the closing `counters` snapshot and `run-end` event. Readers
/// treat `run-end` as the end of the run: any later events (e.g. the smoke
/// overhead re-runs) are ignored by `trace`/`profile`.
fn finish_trace(run: &str, suite_secs: f64) {
    if !indigo_obs::enabled() || !indigo_obs::trace_installed() {
        return;
    }
    let snap = indigo_obs::counters_snapshot();
    let mut ev = TraceEvent::instant("counters", "run totals", indigo_obs::now_micros());
    for c in Counter::ALL {
        ev = ev.with_arg(c.name(), snap.get(c).to_string());
    }
    indigo_obs::emit(&ev);
    indigo_obs::emit(
        &TraceEvent::instant("run-end", run, indigo_obs::now_micros())
            .with_arg("suite_secs", format!("{suite_secs:.3}")),
    );
}

fn resilience_armed(res: &Resilience) -> bool {
    res.cell_timeout.is_some()
        || res.cycle_budget.is_some()
        || res.fault.is_some()
        || res.journal.is_some()
}

/// The fixed smoke slice: BFS + TC under the CUDA and C++ models on two
/// inputs, thinned to the thread-granularity / blocked-schedule variants.
/// Small enough for CI, but it exercises both scheduler phases (GPU-sim
/// fan-out and exclusive CPU wall-clock) and every outcome path.
fn smoke_plan(scale: Scale, reps: usize) -> RunPlan {
    RunPlan::for_algorithms(
        &[Algorithm::Bfs, Algorithm::Tc],
        &[Model::Cuda, Model::Cpp],
        scale,
        reps,
    )
    .filter(|c| match c.model {
        Model::Cuda => {
            c.granularity == Some(indigo_styles::Granularity::Thread)
                && c.atomic != Some(indigo_styles::AtomicKind::CudaAtomic)
        }
        _ => c.cpp_schedule == Some(indigo_styles::CppSchedule::Blocked),
    })
    .with_graphs(vec![SuiteGraph::Grid2d, SuiteGraph::Rmat])
}

/// Runs the smoke slice under the configured resilience, writing the cell
/// and outcome reports plus the bench record. A plain smoke run (no fault,
/// no journal) also times an unsupervised pass of the same slice to record
/// the isolation/watchdog overhead.
fn run_smoke(cli: &Cli, reports: &mut Vec<Report>) -> Result<RunSummary, String> {
    let scale = if cli.scale_set {
        cli.scale
    } else {
        Scale::Tiny // smoke defaults down to tiny unless --scale was given
    };
    let plan = smoke_plan(scale, 1);
    console_line(&format!(
        "smoke slice: {} variants × {} graphs at {scale:?} scale ({} jobs)",
        plan.variants.len(),
        plan.graphs.len(),
        cli.options.jobs
    ));
    start_trace(cli, "smoke", scale);
    let mut reporter = PhaseReporter::new();
    let started = Instant::now();
    let run = plan.run_cells(&cli.options, &cli.res, |ev| reporter.on_event(ev))?;
    let suite_secs = started.elapsed().as_secs_f64();
    finish_trace("smoke", suite_secs);
    let s = run.summary();
    console_line(&format!("smoke complete: {s}"));
    reporter.print_summary(suite_secs);

    // overhead check: same slice, supervision off (only when this run is
    // itself clean — fault/journal runs aren't comparable). One pass each
    // way is dominated by warmup noise (several percent run-to-run on this
    // slice), so both modes are timed twice, alternating, and the per-mode
    // *minimum* — the standard noise-robust wall-clock estimator — is
    // compared. The report run above serves as the untimed warmup.
    let overhead = if cli.res.fault.is_none() && cli.res.journal.is_none() {
        let timed = |res: &Resilience| -> Result<f64, String> {
            let t = Instant::now();
            plan.run_cells(&cli.options, res, |_| {})?;
            Ok(t.elapsed().as_secs_f64())
        };
        let bare = Resilience::none();
        let mut base_secs = f64::INFINITY;
        let mut sup_secs = f64::INFINITY;
        for _ in 0..2 {
            base_secs = base_secs.min(timed(&bare)?);
            sup_secs = sup_secs.min(timed(&cli.res)?);
        }
        let pct = if base_secs > 0.0 {
            100.0 * (sup_secs - base_secs) / base_secs
        } else {
            0.0
        };
        console_line(&format!(
            "resilience overhead: supervised {} vs bare {} ({pct:+.2}%, min of 2)",
            fmt_secs(sup_secs),
            fmt_secs(base_secs)
        ));
        Some((base_secs, pct))
    } else {
        None
    };

    if let Err(e) = write_bench_json(cli, &reporter, suite_secs, &s, overhead) {
        console_line(&format!("failed to write BENCH_harness.json: {e}"));
    }
    reports.push(outcomes::cells_report(&run));
    reports.push(outcomes::outcomes_report(&run));
    Ok(s)
}

/// One finished phase, for the final summary and the bench JSON.
struct PhaseRecord {
    phase: RunPhase,
    cells: usize,
    secs: f64,
}

/// Turns [`ProgressEvent`]s into rate/ETA lines on stderr and collects the
/// per-phase timing breakdown.
struct PhaseReporter {
    phase_started: Instant,
    last_line: Instant,
    finished: Vec<PhaseRecord>,
}

impl PhaseReporter {
    fn new() -> PhaseReporter {
        let now = Instant::now();
        PhaseReporter {
            phase_started: now,
            last_line: now,
            finished: Vec::new(),
        }
    }

    fn on_event(&mut self, ev: ProgressEvent) {
        match ev {
            ProgressEvent::PhaseStart { phase, total } => {
                self.phase_started = Instant::now();
                self.last_line = self.phase_started;
                console_line(&format!("[{}] starting: {total} cells", phase.label()));
            }
            ProgressEvent::Cell { phase, done, total } => {
                // throttle: at most ~1 line/sec, but always print the last
                let now = Instant::now();
                if done < total && now.duration_since(self.last_line).as_secs_f64() < 1.0 {
                    return;
                }
                self.last_line = now;
                let elapsed = now.duration_since(self.phase_started).as_secs_f64();
                let rate = if elapsed > 0.0 {
                    done as f64 / elapsed
                } else {
                    0.0
                };
                let eta = if rate > 0.0 {
                    (total - done) as f64 / rate
                } else {
                    f64::NAN
                };
                console_line(&format!(
                    "[{}] {done}/{total} cells  {rate:.1} cells/s  elapsed {}  eta {}",
                    phase.label(),
                    fmt_secs(elapsed),
                    fmt_secs(eta),
                ));
            }
            ProgressEvent::PhaseEnd { phase, total, secs } => {
                let rate = if secs > 0.0 { total as f64 / secs } else { 0.0 };
                console_line(&format!(
                    "[{}] done: {total} cells in {} ({rate:.1} cells/s)",
                    phase.label(),
                    fmt_secs(secs),
                ));
                self.finished.push(PhaseRecord {
                    phase,
                    cells: total,
                    secs,
                });
            }
        }
    }

    fn total_cells(&self) -> usize {
        // prepare units are graphs, not measurement cells
        self.finished
            .iter()
            .filter(|r| r.phase != RunPhase::Prepare)
            .map(|r| r.cells)
            .sum()
    }

    fn print_summary(&self, suite_secs: f64) {
        console_line("phase breakdown:");
        for r in &self.finished {
            console_line(&format!(
                "  {:8} {:6} units  {:>9}  ({:.1}% of wall)",
                r.phase.label(),
                r.cells,
                fmt_secs(r.secs),
                if suite_secs > 0.0 {
                    100.0 * r.secs / suite_secs
                } else {
                    0.0
                },
            ));
        }
        let cells = self.total_cells();
        let rate = if suite_secs > 0.0 {
            cells as f64 / suite_secs
        } else {
            0.0
        };
        console_line(&format!(
            "  total    {cells:6} cells  {:>9}  ({rate:.1} cells/s)",
            fmt_secs(suite_secs)
        ));
    }
}

/// Writes the machine-readable benchmark record for this run.
fn write_bench_json(
    cli: &Cli,
    reporter: &PhaseReporter,
    suite_secs: f64,
    summary: &RunSummary,
    overhead: Option<(f64, f64)>,
) -> std::io::Result<()> {
    let cells = reporter.total_cells();
    let rate = if suite_secs > 0.0 {
        cells as f64 / suite_secs
    } else {
        0.0
    };
    let mut phases = String::new();
    for (i, r) in reporter.finished.iter().enumerate() {
        if i > 0 {
            phases.push_str(",\n");
        }
        phases.push_str(&format!(
            "    {{\"phase\": \"{}\", \"units\": {}, \"secs\": {}}}",
            r.phase.label(),
            r.cells,
            json_f64(r.secs)
        ));
    }
    let resilience = format!(
        "{{\n    \"cell_timeout_secs\": {},\n    \"cycle_budget\": {},\n    \
         \"outcomes\": {{\"ok\": {}, \"crashed\": {}, \"timed_out\": {}, \
         \"wrong_answer\": {}, \"resumed\": {}}}{}\n  }}",
        cli.res
            .cell_timeout
            .map_or("null".to_string(), |d| json_f64(d.as_secs_f64())),
        cli.res.cycle_budget.map_or("null".to_string(), json_f64),
        summary.ok,
        summary.crashed,
        summary.timed_out,
        summary.wrong_answer,
        summary.resumed,
        overhead.map_or(String::new(), |(base_secs, pct)| format!(
            ",\n    \"bare_secs\": {},\n    \"overhead_pct\": {}",
            json_f64(base_secs),
            json_f64(pct)
        )),
    );
    let body = format!(
        "{{\n  \"suite_secs\": {},\n  \"cells\": {},\n  \"cells_per_sec\": {},\n  \
         \"jobs\": {},\n  \"sim_workers\": {},\n  \"scale\": \"{:?}\",\n  \"reps\": {},\n  \
         \"telemetry_enabled\": {},\n  \"sanitize_enabled\": {},\n  \
         \"resilience\": {},\n  \"phases\": [\n{}\n  ]\n}}\n",
        json_f64(suite_secs),
        cells,
        json_f64(rate),
        cli.options.jobs,
        cli.options.sim_workers,
        cli.scale,
        cli.reps,
        indigo_obs::enabled(),
        indigo_exec::sanitize::enabled(),
        resilience,
        phases
    );
    std::fs::create_dir_all(&cli.out_dir)?;
    let path = std::path::Path::new(&cli.out_dir).join("BENCH_harness.json");
    std::fs::write(&path, body)?;
    console_line(&format!("wrote {}", path.display()));
    Ok(())
}

// ---- serve subcommand ----------------------------------------------------

/// `indigo-exp serve [--port P] [--serve-workers N] [--queue N]
/// [--deadline-ms MS] [--journal PATH] [--scale S]` — runs the
/// fault-tolerant query server (DESIGN.md §7.8) in the foreground until
/// killed. With `--chaos`, runs the chaos gate instead: synthetic
/// multi-client traffic with injected faults (`--clients`, `--requests`,
/// `--inject-fault KIND@EVERY` — every EVERY-th storm request faults)
/// against an in-process server, asserts the robustness invariants, and
/// writes `BENCH_serve.json` to the output directory. Exit code 0 only if
/// every invariant held.
fn cmd_serve(cli: &Cli) -> Result<i32, String> {
    // cells crash by injected panic in chaos mode; keep their banners (and
    // watchdog cancellations) off stderr, but let real bugs through
    std::panic::set_hook(Box::new(|info| {
        if info
            .payload()
            .downcast_ref::<indigo_cancel::Cancelled>()
            .is_some()
        {
            return;
        }
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if msg.starts_with("injected fault") {
            return;
        }
        console_line(&format!("[serve panic] {info}"));
    }));

    if cli.chaos {
        let fault = match &cli.res.fault {
            Some(f) => Some(indigo_serve::ChaosFault {
                kind: f.kind,
                every: f.cell.max(1),
            }),
            None => ChaosOptions::default().fault,
        };
        std::fs::create_dir_all(&cli.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", cli.out_dir))?;
        let opts = ChaosOptions {
            clients: cli.clients.max(1),
            requests: cli.requests.max(4),
            fault,
            journal: cli.res.journal.clone(),
            deadline: Duration::from_millis(cli.deadline_ms.max(1)),
            flightrec_dir: Some(PathBuf::from(&cli.out_dir)),
        };
        console_line(&format!(
            "chaos: {} clients × {} requests/phase, fault {}, deadline {} ms",
            opts.clients,
            opts.requests,
            opts.fault
                .map(|f| format!("{}@{}", f.kind.label(), f.every))
                .unwrap_or_else(|| "none".into()),
            cli.deadline_ms
        ));
        let report = indigo_serve::chaos::run_chaos(&opts)?;
        let path = Path::new(&cli.out_dir).join("BENCH_serve.json");
        std::fs::write(&path, report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        console_line(&format!(
            "chaos OK: {} requests ({} ok, {} shed, {} timed out, {} failed), \
             {} retries, breaker {}/{} trip/recover, p99 {:.1} ms, {:.0} rps cached",
            report.requests,
            report.ok,
            report.shed,
            report.timed_out,
            report.failed,
            report.retries,
            report.breaker_trips,
            report.breaker_recoveries,
            report.latency_ms.p99,
            report.saturation_rps
        ));
        console_line(&format!(
            "observability: {} /metrics series validated, flight recorder \
             {} records / {} dump(s), telemetry {}",
            report.metrics_series,
            report.flight_pushed,
            report.flight_dumps,
            if report.telemetry_enabled {
                "on"
            } else {
                "off"
            }
        ));
        console_line(&format!("wrote {}", path.display()));
        return Ok(0);
    }

    let cfg = indigo_serve::ServerConfig {
        addr: format!("127.0.0.1:{}", cli.port),
        workers: cli.serve_workers.max(1),
        queue: cli.queue.max(1),
        jobs: cli.options.jobs,
        default_deadline: Duration::from_millis(cli.deadline_ms.max(1)),
        default_scale: if cli.scale_set {
            cli.scale
        } else {
            Scale::Tiny
        },
        reps: cli.reps.clamp(1, 9),
        journal: cli.res.journal.clone(),
        batch: cli.batch,
        batch_window: Duration::from_millis(cli.batch_window_ms),
        flightrec_dir: Some(PathBuf::from(&cli.out_dir)),
        ..indigo_serve::ServerConfig::default()
    };
    let server =
        indigo_serve::Server::start(cfg).map_err(|e| format!("cannot start server: {e}"))?;
    console_line(&format!(
        "serving on http://{} — routes: /health /stats /metrics /cell /advise \
         /run /sweep /debug/flightrec ({} recovered cells); ctrl-c to stop",
        server.addr(),
        server.recovered_cells()
    ));
    loop {
        std::thread::park(); // foreground until killed
    }
}

// ---- loadgen subcommand --------------------------------------------------

/// `indigo-exp loadgen [--rps R] [--conns N] [--duration-ms MS]
/// [--mix cached|sweep|mixed] [--serve-workers N] [--queue N] [--out DIR]`
/// — open-loop load generator (DESIGN.md §7.9). Drives the traffic
/// through one in-process server, reports coordinated-omission-safe
/// latency percentiles and saturation throughput, and writes
/// `BENCH_loadgen.json`.
fn cmd_loadgen(cli: &Cli) -> Result<i32, String> {
    let mix = indigo_serve::loadgen::LoadMix::parse(&cli.mix)?;
    let opts = indigo_serve::loadgen::LoadgenOptions {
        rps: if cli.rps >= 1.0 { cli.rps } else { 1.0 },
        conns: cli.conns.max(1),
        duration: Duration::from_millis(cli.duration_ms.max(100)),
        mix,
        workers: cli.serve_workers.max(1),
        queue: cli.queue.max(1),
        ..Default::default()
    };
    console_line(&format!(
        "loadgen: {} rps × {} ms over {} conns, mix {}",
        opts.rps,
        opts.duration.as_millis(),
        opts.conns,
        opts.mix.label()
    ));
    let report = indigo_serve::loadgen::run_loadgen(&opts)?;
    std::fs::create_dir_all(&cli.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cli.out_dir))?;
    let path = Path::new(&cli.out_dir).join("BENCH_loadgen.json");
    std::fs::write(&path, report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let r = &report;
    console_line(&format!(
        "{:.0}/{:.0} rps achieved/offered, p50 {:.2} ms, p99 {:.2} ms, \
         p999 {:.2} ms, saturation {:.0} rps ({} coalesced, {} batches, \
         {} keep-alive reuses)",
        r.achieved_rps,
        r.offered_rps,
        r.p50_ms,
        r.p99_ms,
        r.p999_ms,
        r.saturation_rps,
        r.coalesced,
        r.batches,
        r.keepalive_reuses
    ));
    let s = &r.stage_latency_us;
    console_line(&format!(
        "stages (p50/p99 µs): queue {}/{}, batch-wait {}/{}, execute {}/{}",
        s.queue.p50_us,
        s.queue.p99_us,
        s.batch_wait.p50_us,
        s.batch_wait.p99_us,
        s.execute.p50_us,
        s.execute.p99_us
    ));
    console_line(&format!("wrote {}", path.display()));
    Ok(0)
}

/// `indigo-exp advise --journal PATH [--out DIR]` — fits the style advisor
/// from a measured sweep journal (DESIGN.md §7.11), validates it against
/// deterministic ground-truth sweeps on held-out generated graphs, prints
/// the fitted §5.16-style guidelines, and writes `BENCH_advisor.json`.
fn cmd_advise(cli: &Cli) -> Result<i32, String> {
    let Some(journal) = &cli.res.journal else {
        return Err("advise needs --journal PATH (a sweep journal to fit from)".into());
    };
    let set = indigo_harness::advise::training_from_journal(journal)
        .map_err(|e| format!("cannot fit from {}: {e}", journal.display()))?;
    console_line(&format!(
        "advise: {} completed cells in {} ({} unmappable skipped), \
         detected scale {:?} reps {}",
        set.total_ok,
        journal.display(),
        set.skipped,
        set.scale,
        set.reps
    ));
    let advisor = indigo_advisor::Advisor::fit(&set.cells);
    console_line(&format!(
        "advisor: fitted {} cells over {} graphs into {} (algo, model) groups",
        advisor.num_cells(),
        advisor.num_graphs(),
        advisor.num_groups()
    ));
    if advisor.num_groups() == 0 {
        return Err("journal has no cells the advisor can learn from".into());
    }
    for (algo, model) in advisor.fitted_groups() {
        for r in advisor.guidelines(algo, model).iter().take(4) {
            console_line(&format!(
                "  [{}/{}] prefer {}={} when {} is {} (corr {:+.2})",
                algo.label(),
                model.label(),
                r.dimension,
                r.option,
                r.property,
                if r.correlation >= 0.0 { "high" } else { "low" },
                r.correlation
            ));
        }
    }

    console_line("validating on held-out graphs (deterministic CUDA-sim ground truth)...");
    let mut bench = indigo_harness::advise::evaluate(&advisor, set.scale);
    bench.reps = set.reps;
    for c in &bench.cases {
        console_line(&format!(
            "  {} {}/{}: predicted {} via {} — regret top-1 {:.1}%, top-3 {:.1}% \
             ({} candidates, best {})",
            c.graph,
            c.algo.label(),
            c.model.label(),
            c.predicted,
            c.method.label(),
            100.0 * c.regret_top1,
            100.0 * c.regret_top3,
            c.candidates,
            c.best
        ));
    }
    console_line(&format!(
        "regret over {} held-out cases: top-1 mean {:.1}% / max {:.1}%, \
         top-3 mean {:.1}% / max {:.1}%",
        bench.cases.len(),
        100.0 * bench.mean_regret_top1,
        100.0 * bench.max_regret_top1,
        100.0 * bench.mean_regret_top3,
        100.0 * bench.max_regret_top3
    ));

    std::fs::create_dir_all(&cli.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cli.out_dir))?;
    let path = Path::new(&cli.out_dir).join("BENCH_advisor.json");
    indigo_harness::advise::write_bench(&path, &bench)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    console_line(&format!("wrote {}", path.display()));
    Ok(if bench.cases.is_empty() { 2 } else { 0 })
}

// ---- trace / profile subcommands ----------------------------------------

/// Resolves the input trace: `--in PATH`, else the newest `TRACE_*.jsonl`
/// in the output directory.
fn resolve_trace_input(cli: &Cli) -> Result<PathBuf, String> {
    if let Some(p) = &cli.trace_in {
        return Ok(PathBuf::from(p));
    }
    let dir = Path::new(&cli.out_dir);
    let mut newest: Option<(std::time::SystemTime, PathBuf)> = None;
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with("TRACE_") || !name.ends_with(".jsonl") {
            continue;
        }
        let modified = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        if newest.as_ref().is_none_or(|(t, _)| modified > *t) {
            newest = Some((modified, entry.path()));
        }
    }
    newest.map(|(_, p)| p).ok_or_else(|| {
        format!(
            "no TRACE_*.jsonl in {}; record one with a telemetry build \
             (cargo run --features telemetry --bin indigo-exp -- --smoke)",
            dir.display()
        )
    })
}

/// Loads a trace and truncates it at the first `run-end`: events past it
/// (the smoke overhead re-runs) are not part of the reported run.
fn load_run(path: &Path) -> Result<(Vec<TraceEvent>, usize), String> {
    let (mut events, skipped) =
        indigo_obs::load_trace(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if let Some(end) = events.iter().position(|e| e.kind == "run-end") {
        events.truncate(end + 1);
    }
    Ok((events, skipped))
}

/// `indigo-exp trace [--in PATH] [--out FILE|DIR] [--check]` — exports the
/// recorded trace as chrome://tracing JSON, or validates it with `--check`.
fn cmd_trace(cli: &Cli) -> Result<i32, String> {
    let input = resolve_trace_input(cli)?;
    let (events, skipped) = load_run(&input)?;
    if cli.check {
        if events.is_empty() {
            return Err(format!("{}: no valid trace events", input.display()));
        }
        if skipped > 0 {
            return Err(format!(
                "{}: {skipped} malformed line(s) in a completed run",
                input.display()
            ));
        }
        for required in ["run-start", "phase", "run-end"] {
            if !events.iter().any(|e| e.kind == required) {
                return Err(format!(
                    "{}: missing required `{required}` event",
                    input.display()
                ));
            }
        }
        console_line(&format!(
            "trace OK: {} events in {}",
            events.len(),
            input.display()
        ));
        return Ok(0);
    }
    let out = if cli.out_dir.ends_with(".json") {
        PathBuf::from(&cli.out_dir)
    } else {
        std::fs::create_dir_all(&cli.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", cli.out_dir))?;
        Path::new(&cli.out_dir).join("trace.json")
    };
    let json = indigo_obs::chrome::to_chrome_json(&events);
    std::fs::write(&out, json).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    console_line(&format!(
        "wrote {} ({} events{}; load in chrome://tracing or Perfetto)",
        out.display(),
        events.len(),
        if skipped > 0 {
            format!(", {skipped} torn line(s) skipped")
        } else {
            String::new()
        }
    ));
    Ok(0)
}

/// `indigo-exp sanitize [--smoke] [--scale S] [--out DIR]
/// [--mutate-drop-atomics]` — runs the style-conformance sanitizer
/// (DESIGN.md §7.6) over a plan's cells, serially, and writes the verdict
/// report. Needs a `--features sanitize` build to observe anything.
/// `--smoke` checks the fixed CI slice; without it the full suite is swept
/// (slow: every access goes through the collector). Exit code 2 when any
/// label is violated or a cell crashes, 0 otherwise.
fn cmd_sanitize(cli: &Cli) -> Result<i32, String> {
    if !indigo_exec::sanitize::enabled() {
        return Err(
            "the sanitizer is compiled out of this build; rebuild with --features sanitize"
                .to_string(),
        );
    }
    let scale = if cli.scale_set {
        cli.scale
    } else {
        Scale::Tiny // conformance is scale-independent; default small and fast
    };
    let plan = if cli.smoke {
        smoke_plan(scale, 1)
    } else {
        RunPlan::for_algorithms(&Algorithm::ALL, &Model::ALL, scale, 1)
    };
    console_line(&format!(
        "sanitizing {} variants × {} graphs at {scale:?} scale (serial; \
         one target per model){}",
        plan.variants.len(),
        plan.graphs.len(),
        if cli.mutate {
            " with atomics dropped at RMW update sites"
        } else {
            ""
        }
    ));
    indigo_exec::sanitize::set_mutation_drop_atomics(cli.mutate);
    let started = Instant::now();
    let mut last = Instant::now();
    let run = indigo_harness::sanitize::run_plan(&plan, |done, total| {
        if last.elapsed() >= Duration::from_secs(5) {
            last = Instant::now();
            console_line(&format!("  {done}/{total} cells"));
        }
    });
    indigo_exec::sanitize::set_mutation_drop_atomics(false);
    console_line(&format!(
        "sanitize complete in {}: {}",
        fmt_secs(started.elapsed().as_secs_f64()),
        run.summary()
    ));
    let report = indigo_harness::sanitize::sanitize_report(&run);
    println!("{}", report.render());
    report
        .write_to(&cli.out_dir)
        .map_err(|e| format!("failed to write {}: {e}", report.id))?;
    console_line(&format!("wrote report to {}/", cli.out_dir));
    Ok(run.exit_code())
}

/// `indigo-exp profile [--in PATH] [--top N] [--out DIR]` — renders a
/// plain-text profile report from a recorded trace and writes it to
/// `profile.txt` (see [`profile_path`]).
fn cmd_profile(cli: &Cli) -> Result<i32, String> {
    let input = resolve_trace_input(cli)?;
    let (events, skipped) = load_run(&input)?;
    if events.is_empty() {
        return Err(format!("{}: no valid trace events", input.display()));
    }
    let text = profile_text(&events, skipped, cli.top, &input);
    println!("{text}");
    let out = profile_path(cli.out_set.then_some(cli.out_dir.as_str()), &input);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, &text).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    console_line(&format!("wrote {}", out.display()));
    Ok(0)
}

/// Where `profile` writes its report: `profile.txt` in `--out DIR` when
/// given, else beside the input trace.
fn profile_path(out_dir: Option<&str>, input: &Path) -> PathBuf {
    let dir = match out_dir {
        Some(dir) => Path::new(dir),
        None => input.parent().unwrap_or(Path::new("")),
    };
    dir.join("profile.txt")
}

/// One aggregated row of the per-target table.
#[derive(Default)]
struct TargetAgg {
    cells: usize,
    wall_us: u64,
    sim_cycles: f64,
}

fn profile_text(events: &[TraceEvent], skipped: usize, top: usize, input: &Path) -> String {
    use std::collections::BTreeMap;
    let mut out = String::new();
    out.push_str(&format!("profile of {}\n", input.display()));
    out.push_str(&format!(
        "{} events{}\n",
        events.len(),
        if skipped > 0 {
            format!(" ({skipped} torn line(s) skipped)")
        } else {
            String::new()
        }
    ));
    if let Some(start) = events.iter().find(|e| e.kind == "run-start") {
        out.push_str(&format!(
            "run: {} (jobs {}, sim workers {}, scale {})\n",
            start.name,
            start.arg("jobs").unwrap_or("?"),
            start.arg("sim_workers").unwrap_or("?"),
            start.arg("scale").unwrap_or("?"),
        ));
    }
    if let Some(end) = events.iter().find(|e| e.kind == "run-end") {
        out.push_str(&format!(
            "wall: {}s\n",
            end.arg("suite_secs").unwrap_or("?")
        ));
    }

    out.push_str("\nphases:\n");
    for ev in events.iter().filter(|e| e.kind == "phase") {
        out.push_str(&format!(
            "  {:8} {:>6} units  {:>10.3}s\n",
            ev.name,
            ev.arg("cells").unwrap_or("?"),
            ev.dur_us as f64 / 1e6,
        ));
    }

    let cells: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "cell").collect();
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    let mut targets: BTreeMap<String, TargetAgg> = BTreeMap::new();
    for ev in &cells {
        *outcomes
            .entry(ev.arg("outcome").unwrap_or("?"))
            .or_default() += 1;
        // cell names are `variant|graph|target`
        let target = ev.name.rsplit('|').next().unwrap_or("?").to_string();
        let agg = targets.entry(target).or_default();
        agg.cells += 1;
        agg.wall_us += ev.dur_us;
        agg.sim_cycles += ev.arg_f64("sim_cycles").unwrap_or(0.0);
    }
    out.push_str("\noutcomes:");
    for (label, n) in &outcomes {
        out.push_str(&format!("  {label}={n}"));
    }
    out.push('\n');
    out.push_str("\nby target:\n");
    for (target, agg) in &targets {
        out.push_str(&format!(
            "  {:16} {:>6} cells  {:>10.3}s wall  {:>14.0} sim cycles\n",
            target,
            agg.cells,
            agg.wall_us as f64 / 1e6,
            agg.sim_cycles,
        ));
    }

    let mut by_cycles: Vec<&&TraceEvent> = cells
        .iter()
        .filter(|e| e.arg_f64("sim_cycles").is_some())
        .collect();
    by_cycles.sort_by(|a, b| {
        b.arg_f64("sim_cycles")
            .unwrap_or(0.0)
            .total_cmp(&a.arg_f64("sim_cycles").unwrap_or(0.0))
    });
    if !by_cycles.is_empty() {
        out.push_str(&format!("\ntop {} cells by sim cycles:\n", top));
        for ev in by_cycles.iter().take(top) {
            out.push_str(&format!(
                "  {:>14.0} cycles  {:>4} launches  {}\n",
                ev.arg_f64("sim_cycles").unwrap_or(0.0),
                ev.arg("sim_launches").unwrap_or("?"),
                ev.name,
            ));
        }
    }

    let mut by_wall: Vec<&&TraceEvent> = cells.iter().collect();
    by_wall.sort_by_key(|ev| std::cmp::Reverse(ev.dur_us));
    if !by_wall.is_empty() {
        out.push_str(&format!("\ntop {} cells by wall time:\n", top));
        for ev in by_wall.iter().take(top) {
            out.push_str(&format!(
                "  {:>10.3}s  {}\n",
                ev.dur_us as f64 / 1e6,
                ev.name,
            ));
        }
    }

    if let Some(counters) = events.iter().rev().find(|e| e.kind == "counters") {
        out.push_str("\ncounters:\n");
        for (k, v) in &counters.args {
            if v != "0" {
                out.push_str(&format!("  {k:32} {v}\n"));
            }
        }
    }
    let fires = events.iter().filter(|e| e.kind == "watchdog-fire").count();
    if fires > 0 {
        out.push_str(&format!("\nwatchdog fired {fires} time(s)\n"));
    }
    out
}

/// JSON has no NaN/Infinity literals; clamp to null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// `412ms` / `73s` / `4m05s` / `2h07m` style durations.
fn fmt_secs(secs: f64) -> String {
    if !secs.is_finite() {
        return "--".to_string();
    }
    let ms = (secs * 1e3).round() as u64;
    if ms < 1000 {
        return format!("{ms}ms");
    }
    let s = secs.round() as u64;
    if s < 100 {
        format!("{s}s")
    } else if s < 6000 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

const HELP: &str = "indigo-exp — regenerate the Indigo2 paper's tables and figures

usage: indigo-exp <ids...> [--scale tiny|small|default|large] [--reps N]
                  [--jobs N] [--sim-workers N] [--out DIR]
                  [--cell-timeout SECS] [--cell-cycle-budget CYCLES]
                  [--journal PATH] [--resume PATH]
                  [--inject-fault panic|stall|corrupt@CELL] [--smoke]
       indigo-exp trace   [--in TRACE.jsonl] [--out FILE.json|DIR] [--check]
       indigo-exp profile [--in TRACE.jsonl] [--top N] [--out DIR]
                  (writes profile.txt to --out, else beside the trace)
       indigo-exp sanitize [--smoke] [--scale S] [--out DIR]
                  [--mutate-drop-atomics]
       indigo-exp serve   [--port P] [--serve-workers N] [--queue N]
                  [--deadline-ms MS] [--journal PATH] [--scale S]
                  [--batch N] [--batch-window-ms MS]
       indigo-exp serve --chaos [--clients N] [--requests N]
                  [--inject-fault panic|stall|corrupt@EVERY] [--out DIR]
       indigo-exp loadgen [--rps R] [--conns N] [--duration-ms MS]
                  [--mix cached|sweep|mixed] [--out DIR]
       indigo-exp advise  --journal PATH [--out DIR]

ids: all, tables, table1 table2 table3 table45,
     fig01 fig02 fig02c fig03 fig04 fig05 fig06 fig07 fig08,
     fig09 fig10 fig11 fig12 fig13 fig14 fig15 fig16, corr513

--jobs defaults to the machine's hardware thread count; GPU-sim cells
fan out across jobs while CPU wall-clock cells always run exclusively,
and results are bit-identical to --jobs 1 at any setting.

fault tolerance: every cell runs isolated — a crash, timeout, or wrong
answer becomes a structured row in the cells/outcomes reports instead of
aborting the sweep. --journal checkpoints completed cells as JSONL;
--resume replays a journal (byte-identical results) and keeps appending
to it. --smoke runs a small fixed slice for CI and overhead tracking.

observability: builds with `--features telemetry` record zero-alloc
counters and phase/cell spans to TRACE_<run>.jsonl in the output dir.
`trace` exports the newest trace as chrome://tracing JSON (`--check`
validates it instead); `profile` prints per-phase/per-target breakdowns,
top-N cells, and counter totals. Both read traces from any build.

conformance: builds with `--features sanitize` can run `sanitize`, the
dynamic style-conformance checker (DESIGN.md 7.6): it replays cells with
a shadow-memory race/atomicity collector armed and judges observed
behavior against each variant's style labels (Deterministic => no
value-changing races; Rmw/Rw => fused-atomic vs split updates;
Atomic/CudaAtomic => the issued atomic class). --mutate-drop-atomics
deliberately breaks RMW sites to prove violations are caught.

serving: `serve` exposes the measurement matrix over HTTP (DESIGN.md 7.8)
with admission control, per-request deadlines, retries, per-graph circuit
breakers, degraded fallbacks, and a crash-only journal-backed cache.
`serve --chaos` runs the CI chaos gate — synthetic multi-client traffic
with injected faults — asserts every robustness invariant, and writes
BENCH_serve.json. In chaos mode --inject-fault's index is the storm
stride: panic@3 faults every third storm request.

Requests for the same cell coalesce into one execution (single-flight)
and distinct queries merge into batched plans (--batch caps the merge,
1 = every claim runs alone; --batch-window-ms). Connections are
keep-alive and served through an epoll readiness reactor, so serving
needs Linux. `loadgen` measures that path: an open-loop generator
(latency from intended start times, so coordinated omission cannot hide
server stalls) drives one in-process server and writes
BENCH_loadgen.json with latency percentiles and saturation throughput;
scripts/ci.sh gates the same measurement against
bench/baselines/BENCH_serve_baseline.json.

advising: `advise` productizes the paper's 5.13/5.16 payoff (DESIGN.md
7.11): it fits an interpretable predictor (nearest-neighbor over the
journal-measured sweep + refitted correlation rules for out-of-
distribution graphs) from a `--journal` sweep, prints the fitted style
guidelines, validates top-1/top-3 regret against deterministic ground-
truth sweeps on held-out generated graphs, and writes BENCH_advisor.json.
The server consumes the same model: `/run?...&style=auto` resolves to the
predicted-best variant (bit-identical to requesting it explicitly) and
`/advise` returns features + ranked prediction without executing.

exit codes: 0 all cells clean; 2 run completed with failed cells;
1 harness error.";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_second_durations_print_milliseconds() {
        assert_eq!(fmt_secs(0.412), "412ms");
        assert_eq!(fmt_secs(0.0), "0ms");
        assert_eq!(fmt_secs(0.0004), "0ms");
        assert_eq!(fmt_secs(0.9994), "999ms");
        // rounding up to a whole second switches to the seconds format
        assert_eq!(fmt_secs(0.9996), "1s");
        assert_eq!(fmt_secs(f64::NAN), "--");
    }

    #[test]
    fn longer_durations_keep_their_formats() {
        assert_eq!(fmt_secs(1.0), "1s");
        assert_eq!(fmt_secs(73.2), "73s");
        assert_eq!(fmt_secs(99.4), "99s");
        assert_eq!(fmt_secs(245.0), "4m05s");
        assert_eq!(fmt_secs(7620.0), "2h07m");
    }

    #[test]
    fn profile_writes_beside_the_trace_unless_out_is_given() {
        let trace = Path::new("runs/a/TRACE_smoke.jsonl");
        assert_eq!(profile_path(None, trace), Path::new("runs/a/profile.txt"));
        assert_eq!(
            profile_path(Some("reports"), trace),
            Path::new("reports/profile.txt")
        );
        // a bare file name lives in the working directory
        assert_eq!(
            profile_path(None, Path::new("TRACE_x.jsonl")),
            Path::new("profile.txt")
        );
    }
}
