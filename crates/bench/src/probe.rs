//! Helpers shared by the perf-probe binaries (`cpu_perf`, `gpusim_perf`,
//! `serve_perf`): an allocation-counting global allocator, a reader for
//! the line-per-workload JSON records they write, and the warn-10% /
//! fail-30% deviation gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting allocator: every allocation path bumps one relaxed counter.
/// A probe installs it with its own
/// `#[global_allocator] static ALLOC: Counting = Counting;`.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations so far (0 forever unless [`Counting`] is installed).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards to `System` unchanged; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
}

/// Pulls `"field": <number>` off a JSON line (the workspace is
/// dependency-free, so no serde).
pub fn field(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\": ");
    let at = line.find(&tag)? + tag.len();
    let rest = &line[at..];
    let end = rest
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `"name": "…"` of a workload line.
pub fn name_of(line: &str) -> Option<&str> {
    let at = line.find("\"name\": \"")? + 9;
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

/// Gates one deterministic field of `workload` against its baseline value:
/// a relative deviation above 10% warns, above 30% fails, and any nonzero
/// value where the baseline had 0 fails. Returns whether it failed.
pub fn compare(workload: &str, what: &str, old: f64, new: f64) -> bool {
    if old == 0.0 {
        if new != 0.0 {
            eprintln!("FAIL  {workload}: {what} was 0, now {new}");
            return true;
        }
        return false;
    }
    let dev = (new - old).abs() / old;
    if dev > 0.30 {
        eprintln!(
            "FAIL  {workload}: {what} deviates {:.1}% (baseline {old}, now {new})",
            dev * 100.0
        );
        return true;
    }
    if dev > 0.10 {
        eprintln!(
            "WARN  {workload}: {what} deviates {:.1}% (baseline {old}, now {new})",
            dev * 100.0
        );
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_and_name_read_a_workload_line() {
        let line = r#"    {"name": "bfs:road", "pushes": 1234, "host_ms": -0.5},"#;
        assert_eq!(name_of(line), Some("bfs:road"));
        assert_eq!(field(line, "pushes"), Some(1234.0));
        assert_eq!(field(line, "host_ms"), Some(-0.5));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn compare_fails_past_thirty_percent_and_on_growth_from_zero() {
        assert!(!compare("w", "f", 100.0, 125.0)); // warns only
        assert!(compare("w", "f", 100.0, 131.0));
        assert!(compare("w", "f", 100.0, 69.0));
        assert!(!compare("w", "f", 0.0, 0.0));
        assert!(compare("w", "f", 0.0, 1.0));
    }
}
