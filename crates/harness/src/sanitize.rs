//! Style-conformance sanitizer runner (DESIGN.md §7.6).
//!
//! Drives a [`RunPlan`]'s cells with the `indigo-exec` conflict collector
//! armed and judges each observed [`SanitizeReport`] against the behavioral
//! contract the variant's style labels promise
//! ([`indigo_styles::StyleExpectation`]): `Deterministic` variants must not
//! exhibit value-changing races, `Rmw`/`Rw` variants must update through
//! the matching mechanism, and CUDA variants must issue the atomic class
//! their label names. Benign patterns (§5.6 — idempotent same-value stores,
//! plain reads racing atomic updates) are reported but never violations.
//!
//! Unlike the measurement matrix, sanitize cells run **serially**: the
//! collector is process-global, so exactly one cell may be armed at a time
//! (see [`indigo_exec::sanitize::session_begin`]). Each model runs on its
//! first default target only — conformance is a property of the program's
//! access pattern, not of the device cost model, so sweeping both GPU
//! geometries would re-check the same logic at twice the cost.

use crate::matrix::{RunPlan, TargetSpec};
use crate::report::Report;
use indigo_core::gpu::DeviceGraph;
use indigo_core::{run_gpu_supervised, run_variant_supervised, GraphInput, Supervision, Target};
use indigo_exec::sanitize::{self, SanitizeReport};
use indigo_graph::gen::suite_graph;
use indigo_obs::Counter;
use indigo_styles::{AtomicKind, StyleConfig, StyleExpectation};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Overall classification of one sanitized cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No conflicts observed, no label violated.
    Clean,
    /// Conflicts observed, all of them benign or permitted by the labels
    /// (e.g. the value-changing races a `NonDeterministic` label allows).
    BenignRaces,
    /// Observed behavior contradicts what the style labels promise.
    Violation,
    /// The cell panicked; no verdict on its labels is possible.
    Crashed,
}

impl Verdict {
    /// Fixed-width display label.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::BenignRaces => "benign",
            Verdict::Violation => "VIOLATION",
            Verdict::Crashed => "crashed",
        }
    }
}

/// One sanitized (variant, input, target) cell.
#[derive(Clone, Debug)]
pub struct CellVerdict {
    /// The program variant.
    pub cfg: StyleConfig,
    /// Input graph label.
    pub graph: &'static str,
    /// Target label.
    pub target: String,
    /// Everything the collector saw during the cell.
    pub report: SanitizeReport,
    /// Human-readable label violations (empty unless `Violation`), or the
    /// panic payload for `Crashed` cells.
    pub findings: Vec<String>,
    /// The cell's classification.
    pub verdict: Verdict,
}

/// A finished sanitize sweep.
#[derive(Clone, Debug, Default)]
pub struct SanitizeRun {
    /// Per-cell verdicts, in plan order.
    pub cells: Vec<CellVerdict>,
    /// All per-cell reports merged.
    pub totals: SanitizeReport,
}

impl SanitizeRun {
    /// Cells with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.cells.iter().filter(|c| c.verdict == v).count()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} cells: {} clean, {} benign, {} violations, {} crashed \
             ({} racy / {} benign conflicts, {} rmw + {} split updates)",
            self.cells.len(),
            self.count(Verdict::Clean),
            self.count(Verdict::BenignRaces),
            self.count(Verdict::Violation),
            self.count(Verdict::Crashed),
            self.totals.racy(),
            self.totals.benign_idempotent + self.totals.benign_mixed,
            self.totals.updates_rmw,
            self.totals.updates_split,
        )
    }

    /// Process exit code: 0 when every label held, 2 otherwise.
    pub fn exit_code(&self) -> i32 {
        if self.count(Verdict::Violation) + self.count(Verdict::Crashed) > 0 {
            2
        } else {
            0
        }
    }
}

/// Compares one observed report against a variant's label contract and
/// returns every violation found (empty = labels hold).
///
/// The update-mechanism and atomic-class rules are scoped to the relaxation
/// algorithms (BFS/SSSP/CC): only those route updates through the semantic
/// `min_update`/`gpu_min_update` sites that emit update events, and PR
/// intentionally hardcodes the host-atomic class for its rank accumulators
/// regardless of the variant's `atomic` label (a float-accumulation
/// constraint, not a style choice), which would otherwise read as a
/// mismatch.
pub fn judge(exp: &StyleExpectation, r: &SanitizeReport) -> Vec<String> {
    let mut v = Vec::new();
    if exp.conflict_free && r.racy() > 0 {
        v.push(format!(
            "Deterministic label, but {} value-changing race(s) observed \
             ({} write/write, {} read/write)",
            r.racy(),
            r.racy_ww,
            r.racy_rw
        ));
    }
    if !exp.relaxation {
        return v;
    }
    if exp.update_rmw && r.updates_split > 0 {
        v.push(format!(
            "Rmw label, but {} update(s) took the load/compare/store split",
            r.updates_split
        ));
    }
    if !exp.update_rmw && r.updates_rmw > 0 {
        v.push(format!(
            "Rw label, but {} update(s) went through a fused atomic RMW",
            r.updates_rmw
        ));
    }
    match exp.atomic_class {
        Some(AtomicKind::Atomic) if r.cuda_atomic_rmws > 0 => v.push(format!(
            "Atomic label, but {} cuda::atomic-class RMW(s) issued",
            r.cuda_atomic_rmws
        )),
        Some(AtomicKind::CudaAtomic) if r.atomic_rmws > 0 => v.push(format!(
            "CudaAtomic label, but {} host-class atomic RMW(s) issued",
            r.atomic_rmws
        )),
        _ => {}
    }
    if exp.update_rmw && r.updates_rmw + r.updates_split > 0 {
        // the labeled synchronization mechanism must actually appear in the
        // access stream (a dropped atomic shows up here even if the update
        // events were miscounted): GPU variants must issue their labeled
        // atomic class, CPU variants either host atomics (C++) or
        // critical-section ops (OpenMP)
        let labeled = match exp.atomic_class {
            Some(AtomicKind::Atomic) => r.atomic_rmws,
            Some(AtomicKind::CudaAtomic) => r.cuda_atomic_rmws,
            None => r.atomic_rmws + r.locked_ops,
        };
        if labeled == 0 {
            v.push(
                "Rmw label, but no synchronized update operations appear in the access stream"
                    .to_string(),
            );
        }
    }
    v
}

/// Runs every cell of `plan` under the sanitizer, serially, and judges each
/// against its label contract. `progress(done, total)` is invoked after
/// each cell. With the `sanitize` feature off every report is empty and
/// every cell judges `Clean` — callers should gate on
/// [`sanitize::enabled`].
pub fn run_plan(plan: &RunPlan, mut progress: impl FnMut(usize, usize)) -> SanitizeRun {
    let targets: Vec<(usize, TargetSpec)> = plan
        .variants
        .iter()
        .enumerate()
        .filter_map(|(i, cfg)| {
            TargetSpec::defaults_for(cfg.model)
                .into_iter()
                .next()
                .map(|t| (i, t))
        })
        .collect();
    let total = plan.graphs.len() * targets.len();
    let needs_gpu = targets.iter().any(|(_, t)| matches!(t, TargetSpec::Gpu(_)));
    let mut done = 0usize;
    let mut run = SanitizeRun::default();
    for &which in &plan.graphs {
        let input = GraphInput::new(suite_graph(which, plan.scale));
        let dg = needs_gpu.then(|| DeviceGraph::upload(&input));
        for (vi, target) in &targets {
            let cell = sanitize_cell(
                &plan.variants[*vi],
                which.label(),
                &input,
                dg.as_ref(),
                target,
            );
            run.totals.merge(&cell.report);
            run.cells.push(cell);
            done += 1;
            progress(done, total);
        }
    }
    if indigo_obs::enabled() {
        Counter::SanitizeConflicts.add(run.totals.conflicts());
        Counter::SanitizeViolations.add(
            run.cells
                .iter()
                .filter(|c| c.verdict == Verdict::Violation)
                .map(|c| c.findings.len() as u64)
                .sum(),
        );
    }
    run
}

/// Runs one cell with the collector armed and judges the result. Panics are
/// contained: a crashed cell yields a `Crashed` verdict carrying the
/// payload, and the session is still closed so the next cell starts clean.
fn sanitize_cell(
    cfg: &StyleConfig,
    graph: &'static str,
    input: &GraphInput,
    dg: Option<&DeviceGraph>,
    target: &TargetSpec,
) -> CellVerdict {
    let sup = Supervision::none();
    sanitize::session_begin();
    let outcome = catch_unwind(AssertUnwindSafe(|| match target {
        TargetSpec::Gpu(device) => {
            let dg = dg.expect("GPU cells have an uploaded graph");
            // one sim worker: the collector is shared state and the access
            // interleaving is irrelevant to region-scoped conflicts anyway
            run_gpu_supervised(cfg, dg, &[*device], 1, &sup);
        }
        TargetSpec::Cpu(_, threads) => {
            run_variant_supervised(cfg, input, &Target::cpu(*threads), &sup);
        }
    }));
    let report = sanitize::session_end();
    let (verdict, findings) = match outcome {
        Err(payload) => (
            Verdict::Crashed,
            vec![indigo_cancel::payload_text(payload.as_ref())],
        ),
        Ok(()) => {
            let findings = judge(&cfg.expectation(), &report);
            let verdict = if !findings.is_empty() {
                Verdict::Violation
            } else if report.conflicts() > 0 {
                Verdict::BenignRaces
            } else {
                Verdict::Clean
            };
            (verdict, findings)
        }
    };
    CellVerdict {
        cfg: *cfg,
        graph,
        target: target.label(),
        report,
        findings,
        verdict,
    }
}

/// Renders a sweep as a per-cell verdict table plus summary (and CSV rows
/// for downstream tooling).
pub fn sanitize_report(run: &SanitizeRun) -> Report {
    let mut rep = Report::new("sanitize", "style-conformance sanitizer verdicts");
    rep.csv_row(
        "variant,graph,target,verdict,racy_ww,racy_rw,benign_idempotent,benign_mixed,\
         updates_rmw,updates_split,findings",
    );
    rep.line(format!(
        "{:<44} {:<6} {:<12} {:<9} {:>5} {:>7} {:>7}",
        "variant", "graph", "target", "verdict", "racy", "benign", "updates"
    ));
    for c in &run.cells {
        let r = &c.report;
        rep.line(format!(
            "{:<44} {:<6} {:<12} {:<9} {:>5} {:>7} {:>7}",
            c.cfg.name(),
            c.graph,
            c.target,
            c.verdict.label(),
            r.racy(),
            r.benign_idempotent + r.benign_mixed,
            r.updates_rmw + r.updates_split,
        ));
        for f in &c.findings {
            rep.line(format!("    ! {f}"));
        }
        rep.csv_row(format!(
            "{},{},{},{},{},{},{},{},{},{},\"{}\"",
            c.cfg.name(),
            c.graph,
            c.target,
            c.verdict.label(),
            r.racy_ww,
            r.racy_rw,
            r.benign_idempotent,
            r.benign_mixed,
            r.updates_rmw,
            r.updates_split,
            c.findings.join("; ").replace('"', "'"),
        ));
    }
    rep.line("");
    rep.line(run.summary());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use indigo_styles::{Algorithm, Determinism, Model, Update};

    fn relax_exp(model: Model) -> StyleExpectation {
        StyleConfig::baseline(Algorithm::Sssp, model).expectation()
    }

    #[test]
    fn clean_report_judges_clean() {
        let exp = relax_exp(Model::Cuda);
        assert!(judge(&exp, &SanitizeReport::default()).is_empty());
    }

    #[test]
    fn deterministic_label_rejects_racy_cells() {
        let mut cfg = StyleConfig::baseline(Algorithm::Sssp, Model::Cuda);
        cfg.determinism = Determinism::Deterministic;
        cfg.update = Update::ReadModifyWrite;
        let r = SanitizeReport {
            racy_ww: 1,
            ..Default::default()
        };
        let v = judge(&cfg.expectation(), &r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("Deterministic"));
        // benign conflicts alone are permitted (§5.6)
        let benign = SanitizeReport {
            benign_idempotent: 3,
            benign_mixed: 2,
            ..Default::default()
        };
        assert!(judge(&cfg.expectation(), &benign).is_empty());
    }

    #[test]
    fn rmw_label_rejects_split_updates() {
        let mut cfg = StyleConfig::baseline(Algorithm::Bfs, Model::Cuda);
        cfg.update = Update::ReadModifyWrite;
        let r = SanitizeReport {
            updates_split: 4,
            updates_rmw: 10,
            atomic_rmws: 10,
            ..Default::default()
        };
        let v = judge(&cfg.expectation(), &r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("split"));
    }

    #[test]
    fn rw_label_rejects_fused_updates() {
        let mut cfg = StyleConfig::baseline(Algorithm::Bfs, Model::Cpp);
        cfg.update = Update::ReadWrite;
        let r = SanitizeReport {
            updates_rmw: 2,
            ..Default::default()
        };
        let v = judge(&cfg.expectation(), &r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("fused"));
    }

    #[test]
    fn wrong_atomic_class_is_flagged_for_relaxation_only() {
        let mut cfg = StyleConfig::baseline(Algorithm::Sssp, Model::Cuda);
        cfg.atomic = Some(AtomicKind::Atomic);
        let r = SanitizeReport {
            cuda_atomic_rmws: 5,
            ..Default::default()
        };
        assert_eq!(judge(&cfg.expectation(), &r).len(), 1);
        // PR hardcodes host-class atomics for its accumulators: the class
        // rule must not apply outside the relaxation algorithms
        let mut pr = StyleConfig::baseline(Algorithm::Pr, Model::Cuda);
        pr.atomic = Some(AtomicKind::CudaAtomic);
        let pr_r = SanitizeReport {
            atomic_rmws: 100,
            ..Default::default()
        };
        assert!(judge(&pr.expectation(), &pr_r).is_empty());
    }

    #[test]
    fn rmw_label_requires_synchronized_ops_in_stream() {
        // the dropped-atomic mutation signature: update events present, but
        // zero synchronized operations of the labeled class
        let mut cfg = StyleConfig::baseline(Algorithm::Bfs, Model::Cuda);
        cfg.update = Update::ReadModifyWrite;
        cfg.atomic = Some(AtomicKind::Atomic);
        let r = SanitizeReport {
            updates_rmw: 8,
            ..Default::default()
        };
        let v = judge(&cfg.expectation(), &r);
        assert!(
            v.iter().any(|f| f.contains("no synchronized update")),
            "{v:?}"
        );
    }

    #[test]
    fn report_renders_rows_and_summary() {
        let run = SanitizeRun {
            cells: vec![CellVerdict {
                cfg: StyleConfig::baseline(Algorithm::Bfs, Model::Cuda),
                graph: "grid",
                target: "TitanV-sim".to_string(),
                report: SanitizeReport::default(),
                findings: Vec::new(),
                verdict: Verdict::Clean,
            }],
            totals: SanitizeReport::default(),
        };
        let rep = sanitize_report(&run);
        assert!(rep.render().contains("clean"));
        assert!(rep.csv.len() == 2);
        assert_eq!(run.exit_code(), 0);
        let bad = SanitizeRun {
            cells: vec![CellVerdict {
                verdict: Verdict::Violation,
                findings: vec!["x".into()],
                ..run.cells[0].clone()
            }],
            totals: SanitizeReport::default(),
        };
        assert_eq!(bad.exit_code(), 2);
    }
}
