//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory while a traced run measures and are written once,
//! at the end, as `indigo_obs::TraceEvent` JSONL, so `indigo-exp trace
//! --check` and `indigo-exp profile` read them unchanged. Spans of one cell
//! or request share a `trace` id and name their `parent` span.

use indigo_obs::TraceEvent;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within a run, starting at 1.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// Shared by every span of one cell or request.
    pub trace: u64,
    /// Layer name, e.g. `gpusim.kernel`.
    pub layer: &'static str,
    /// Display name in the JSONL (the layer name when empty).
    pub name: String,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Extra key/value pairs carried into the JSONL line.
    pub args: Vec<(String, String)>,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// A fresh id for a span that is about to start.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// When the recorder was made.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// ns since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span of `layer`; `f` receives the span's own id so it
    /// can parent child spans.
    pub fn time<T>(
        &self,
        layer: &'static str,
        trace: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let dur_ns = self.now_ns() - start_ns;
        self.push(Span {
            id,
            parent,
            trace,
            layer,
            name: String::new(),
            start_ns,
            dur_ns,
            args: Vec::new(),
        });
        out
    }

    /// Records a finished span.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(span);
    }

    /// Names an already recorded span and adds args to it (no-op for an
    /// unknown id).
    pub fn annotate(&self, id: u64, name: String, args: Vec<(String, String)>) {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder");
        if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
            s.name = name;
            s.args.extend(args);
        }
    }

    /// Every span recorded so far, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list poisoned by a panicking recorder"),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Seconds one recorded span costs, measured on a throwaway recorder; a
/// traced run's overhead is its span count times this.
pub fn span_cost_s() -> f64 {
    const N: usize = 20_000;
    let rec = Recorder::default();
    let t = Instant::now();
    for i in 0..N {
        rec.time("calibrate", i as u64, 0, |_| ());
    }
    t.elapsed().as_secs_f64() / N as f64
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|kids| {
                    kids.iter()
                        .map(|k| (k.start_ns.max(s.start_ns), k.end_ns().min(s.end_ns())))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns - covered.min(s.dur_ns))
        })
        .collect()
}

/// Total self time per layer, ms.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_insert(0.0) += own[&s.id] as f64 / 1e6;
    }
    out
}

/// Durations (ms) of every span of `layer`.
pub fn durations_ms(spans: &[Span], layer: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect()
}

/// One span as a trace event. Cell and request roots keep the kinds the
/// workspace's own traces use; every layer span is a `phase` named after
/// its layer.
pub fn to_event(s: &Span) -> TraceEvent {
    let kind = match s.layer {
        "cell" | "request" => s.layer,
        _ => "phase",
    };
    let mut ev = TraceEvent::span(
        kind,
        if s.name.is_empty() { s.layer } else { &s.name },
        s.start_ns / 1_000,
        (s.dur_ns / 1_000).max(1),
    )
    .with_tid(s.trace)
    .with_arg("span", s.id.to_string())
    .with_arg("parent", s.parent.to_string())
    .with_arg("trace", s.trace.to_string());
    if kind == "phase" && !s.args.iter().any(|(k, _)| k == "cells") {
        ev = ev.with_arg("cells", "1");
    }
    for (k, v) in &s.args {
        ev = ev.with_arg(k, v.clone());
    }
    ev
}

/// Writes `events` as JSONL.
pub fn write_jsonl(path: &std::path::Path, events: &[TraceEvent]) -> std::io::Result<()> {
    let mut text = String::new();
    for ev in events {
        text.push_str(&ev.to_json_line());
        text.push('\n');
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            layer: if parent == 0 { "cell" } else { "gpusim.kernel" },
            name: String::new(),
            start_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once_even_when_they_overlap() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30), // 10..40
            span(3, 1, 30, 20), // 30..50, overlaps the first child
            span(4, 1, 90, 50), // 90..140, clipped to the parent at 100
            span(5, 2, 15, 5),  // a grandchild: only span 2 loses it
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 25);
        assert_eq!(own[&3], 20);
        assert_eq!(own[&5], 5);
    }

    #[test]
    fn layer_totals_add_self_time_not_duration() {
        let spans = vec![span(1, 0, 0, 2_000_000), span(2, 1, 0, 500_000)];
        let by_layer = layer_self_ms(&spans);
        assert_eq!(by_layer["cell"], 1.5);
        assert_eq!(by_layer["gpusim.kernel"], 0.5);
    }

    #[test]
    fn events_round_trip_through_the_workspace_trace_reader() {
        let s = span(2, 1, 5_000, 7_000);
        let line = to_event(&s).to_json_line();
        let ev = indigo_obs::event::validate_line(&line).expect("valid trace line");
        assert_eq!(ev.kind, "phase");
        assert_eq!(ev.name, "gpusim.kernel");
        assert_eq!(ev.arg("parent"), Some("1"));
        assert_eq!((ev.ts_us, ev.dur_us), (5, 7));
    }
}
