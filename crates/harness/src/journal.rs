//! The append-only checkpoint journal (DESIGN.md §7.3).
//!
//! Every completed measurement cell is appended as one JSONL line keyed by
//! a deterministic [`fingerprint`] of everything that determines its result
//! — variant name, graph, target, scale, repetition count, verification
//! flag, and the simulator's cost-model version. `indigo-exp --resume`
//! preloads the journal and skips recorded cells, replaying their outcomes;
//! because successful cells store the throughput as exact `f64` bits, a
//! resumed run's final CSVs are byte-identical to an uninterrupted one.
//!
//! The format is deliberately boring: flat JSON objects, one per line,
//! emitted and parsed by ~100 lines of code in this module (the workspace
//! is dependency-free by design — no serde). A line is self-describing, so
//! `grep`/`jq` work on journals, and a truncated final line (the signature
//! of a `SIGKILL` mid-append) is skipped on load rather than failing the
//! resume.

use crate::outcome::{CellOutcome, CellRecord};
use indigo_graph::gen::Scale;
use indigo_obs::event::{json_num, json_str};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal format version; bump on incompatible line-shape changes.
pub const JOURNAL_VERSION: u32 = 1;

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic identity of one measurement cell.
///
/// The fingerprint hashes a canonical `key=value` string — not a struct
/// layout — so it is independent of field ordering in the journal line and
/// stable across program versions as long as the semantics are unchanged.
/// [`indigo_gpusim::COST_MODEL_VERSION`] is folded in so a journal written
/// under one cost calibration can never resume into a recalibrated run.
pub fn fingerprint(
    scale: Scale,
    reps: usize,
    verify: bool,
    variant: &str,
    graph: &str,
    target: &str,
) -> u64 {
    let canonical = format!(
        "indigo-cell-v{JOURNAL_VERSION}|cost={}|scale={scale:?}|reps={reps}|verify={verify}|variant={variant}|graph={graph}|target={target}",
        indigo_gpusim::COST_MODEL_VERSION
    );
    fnv1a64(canonical.as_bytes())
}

/// One parsed journal line: the cell identity plus its stored outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// Cell fingerprint ([`fingerprint`]).
    pub fp: u64,
    /// Variant name, for humans reading the journal.
    pub variant: String,
    /// Graph label.
    pub graph: String,
    /// Target label.
    pub target: String,
    /// Stored outcome.
    pub outcome: JournalOutcome,
}

/// The outcome payload of a journal line. `Ok` keeps the throughput as raw
/// `f64` bits so replayed measurements are exact.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalOutcome {
    /// Completed cell: exact geps bits + iteration count.
    Ok {
        /// `f64::to_bits` of the measured geps.
        geps_bits: u64,
        /// Convergence iterations.
        iterations: usize,
    },
    /// Panicked cell.
    Crashed {
        /// Rendered panic payload.
        payload: String,
    },
    /// Cancelled cell.
    TimedOut {
        /// Wall-clock budget, when that fired.
        budget_secs: Option<f64>,
        /// Cancellation reason.
        reason: String,
    },
    /// Quarantined cell.
    WrongAnswer {
        /// Verifier detail.
        detail: String,
    },
}

/// Serializes one completed cell as a journal line (no trailing newline).
pub fn emit_line(r: &CellRecord) -> String {
    let mut s = String::with_capacity(160);
    let _ = write!(
        s,
        "{{\"v\":{JOURNAL_VERSION},\"fp\":\"{:016x}\",\"variant\":{},\"graph\":{},\"target\":{},\"outcome\":\"{}\"",
        r.fingerprint,
        json_str(&r.variant),
        json_str(r.graph),
        json_str(&r.target),
        r.outcome.label()
    );
    match &r.outcome {
        CellOutcome::Ok(m) => {
            // `geps` is informational (grep-ability); `geps_bits` is the
            // exact value replayed on resume
            let _ = write!(
                s,
                ",\"geps_bits\":\"{:016x}\",\"geps\":{},\"iterations\":{}",
                m.geps.to_bits(),
                json_num(m.geps),
                m.iterations
            );
        }
        CellOutcome::Crashed { payload } => {
            let _ = write!(s, ",\"payload\":{}", json_str(payload));
        }
        CellOutcome::TimedOut {
            budget_secs,
            reason,
        } => {
            if let Some(b) = budget_secs {
                let _ = write!(s, ",\"budget_secs\":{}", json_num(*b));
            }
            let _ = write!(s, ",\"reason\":{}", json_str(reason));
        }
        CellOutcome::WrongAnswer { detail } => {
            let _ = write!(s, ",\"detail\":{}", json_str(detail));
        }
    }
    s.push('}');
    s
}

/// Parses one journal line.
pub fn parse_line(line: &str) -> Result<JournalEntry, String> {
    let fields = parse_flat_json(line)?;
    let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    let str_field = |k: &str| -> Result<String, String> {
        match get(k) {
            Some(JsonVal::Str(s)) => Ok(s.clone()),
            _ => Err(format!("journal line missing string field `{k}`")),
        }
    };
    match get("v") {
        Some(JsonVal::Num(v)) if *v == JOURNAL_VERSION as f64 => {}
        _ => return Err("journal line has unsupported version".into()),
    }
    let fp = u64::from_str_radix(&str_field("fp")?, 16)
        .map_err(|_| "journal `fp` is not a hex u64".to_string())?;
    let outcome_label = str_field("outcome")?;
    let outcome = match outcome_label.as_str() {
        "ok" => {
            let bits = u64::from_str_radix(&str_field("geps_bits")?, 16)
                .map_err(|_| "journal `geps_bits` is not a hex u64".to_string())?;
            let iterations = match get("iterations") {
                Some(JsonVal::Num(n)) if *n >= 0.0 => *n as usize,
                _ => return Err("journal line missing numeric `iterations`".into()),
            };
            JournalOutcome::Ok {
                geps_bits: bits,
                iterations,
            }
        }
        "crashed" => JournalOutcome::Crashed {
            payload: str_field("payload")?,
        },
        "timed-out" => JournalOutcome::TimedOut {
            budget_secs: match get("budget_secs") {
                Some(JsonVal::Num(n)) => Some(*n),
                _ => None,
            },
            reason: str_field("reason")?,
        },
        "wrong-answer" => JournalOutcome::WrongAnswer {
            detail: str_field("detail")?,
        },
        other => return Err(format!("unknown journal outcome `{other}`")),
    };
    Ok(JournalEntry {
        fp,
        variant: str_field("variant")?,
        graph: str_field("graph")?,
        target: str_field("target")?,
        outcome,
    })
}

/// Loads a journal into a fingerprint-keyed map. Malformed lines are
/// tolerated (counted, not fatal): a run killed mid-append leaves a
/// truncated final line, and resume must survive exactly that. Later
/// entries win on duplicate fingerprints.
pub fn load(path: &Path) -> std::io::Result<(HashMap<u64, JournalEntry>, usize)> {
    let file = File::open(path)?;
    let mut map = HashMap::new();
    let mut skipped = 0usize;
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Ok(entry) => {
                map.insert(entry.fp, entry);
            }
            Err(_) => skipped += 1,
        }
    }
    Ok((map, skipped))
}

/// Exclusive-ownership lockfile guarding a journal against concurrent
/// appenders.
///
/// Two processes appending to the same journal would interleave half-lines
/// and corrupt entries that the torn-tail machinery cannot repair (it only
/// protects the *final* line). The lock is a sibling `<journal>.lock` file
/// created with `O_EXCL` and holding the owner's PID. A second acquirer
/// fails fast with an error naming the holder. A lock whose owner is no
/// longer alive (the signature of a `SIGKILL`ed run) is stale and is
/// silently reclaimed — crash-only restart must not require manual cleanup.
pub struct JournalLock {
    path: PathBuf,
}

impl JournalLock {
    /// The lockfile path guarding `journal` (`<journal>.lock`).
    pub fn path_for(journal: &Path) -> PathBuf {
        let mut os = journal.as_os_str().to_owned();
        os.push(".lock");
        PathBuf::from(os)
    }

    /// Acquires the lock for `journal`, reclaiming a stale one.
    ///
    /// Errors with `ErrorKind::Other` naming the holding PID when another
    /// live process owns the lock.
    pub fn acquire(journal: &Path) -> std::io::Result<JournalLock> {
        let lock_path = Self::path_for(journal);
        for attempt in 0..2 {
            match OpenOptions::new()
                .write(true)
                .create_new(true) // O_EXCL: atomic create-or-fail
                .open(&lock_path)
            {
                Ok(mut f) => {
                    writeln!(f, "{}", std::process::id())?;
                    return Ok(JournalLock { path: lock_path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&lock_path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    let stale = match holder {
                        Some(pid) => !pid_is_alive(pid),
                        None => true, // unreadable/garbage lockfile: stale
                    };
                    if stale && attempt == 0 {
                        std::fs::remove_file(&lock_path).ok();
                        continue; // retry the O_EXCL create once
                    }
                    let who = holder
                        .map(|pid| format!("process {pid}"))
                        .unwrap_or_else(|| "an unknown process".into());
                    return Err(std::io::Error::other(format!(
                        "journal {} is locked by {who} ({}); concurrent appends \
                         would interleave — wait for it or pick another journal",
                        journal.display(),
                        lock_path.display()
                    )));
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("lock acquire loop always returns");
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Best-effort liveness probe for a lock-holding PID. Own PID counts as
/// alive (a second in-process acquirer is still a conflict). On Linux the
/// probe is `/proc/<pid>`; elsewhere unknown PIDs are conservatively
/// presumed alive, so stale locks need manual removal there.
fn pid_is_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Thread-safe append-only journal writer; one flush per line so a killed
/// run loses at most the line being written. Holds the [`JournalLock`] for
/// its lifetime, so at most one `Journal` (per machine) appends to a path.
pub struct Journal {
    out: Mutex<BufWriter<File>>,
    _lock: JournalLock,
}

impl Journal {
    /// Opens `path` for appending (creating it if absent).
    ///
    /// A run killed mid-append leaves a torn final line with no trailing
    /// newline; appending straight after it would merge the fragment with
    /// the next entry and corrupt *both*. If the file doesn't end at a line
    /// boundary, a newline is written first so the torn fragment stays an
    /// isolated (skippable) line.
    pub fn append_to(path: &Path) -> std::io::Result<Journal> {
        let lock = JournalLock::acquire(path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            use std::io::{Read, Seek, SeekFrom};
            let mut last = [0u8; 1];
            file.seek(SeekFrom::Start(len - 1))?;
            file.read_exact(&mut last)?;
            if last != *b"\n" {
                file.write_all(b"\n")?;
            }
        }
        Ok(Journal {
            out: Mutex::new(BufWriter::new(file)),
            _lock: lock,
        })
    }

    /// Appends one completed cell and flushes.
    pub fn record(&self, r: &CellRecord) -> std::io::Result<()> {
        let started = if indigo_obs::enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let line = emit_line(r);
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
        if let Some(t0) = started {
            let nanos = t0.elapsed().as_nanos() as u64;
            indigo_obs::Counter::JournalAppends.incr();
            indigo_obs::Counter::JournalAppendNanos.add(nanos);
            indigo_obs::Hist::JournalAppendMicros.record(nanos / 1_000);
        }
        Ok(())
    }

    /// Appends a batch of completed cells under one lock with one flush —
    /// the amortization the serve-path batch former exists for. Durability
    /// is the same as [`Journal::record`] per *batch*: a kill mid-append
    /// loses at most this batch's tail lines, each of which is torn-tail
    /// recoverable on load.
    pub fn record_all(&self, records: &[&CellRecord]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let started = if indigo_obs::enabled() {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let mut buf = String::with_capacity(records.len() * 160);
        for r in records {
            buf.push_str(&emit_line(r));
            buf.push('\n');
        }
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        out.write_all(buf.as_bytes())?;
        out.flush()?;
        if let Some(t0) = started {
            let nanos = t0.elapsed().as_nanos() as u64;
            indigo_obs::Counter::JournalAppends.add(records.len() as u64);
            indigo_obs::Counter::JournalAppendNanos.add(nanos);
            indigo_obs::Hist::JournalAppendMicros.record(nanos / 1_000);
        }
        Ok(())
    }
}

// ---- minimal flat-JSON machinery -----------------------------------------

enum JsonVal {
    Str(String),
    Num(f64),
    Bool(#[allow(dead_code)] bool),
    Null,
}

/// Parses a single flat JSON object (string/number/bool/null values only —
/// exactly what [`emit_line`] produces). Unknown keys pass through.
fn parse_flat_json(s: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut chars = s.trim().chars().peekable();
    let mut fields = Vec::new();
    if chars.next() != Some('{') {
        return Err("expected `{`".into());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            _ => return Err("expected key string or `}`".into()),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected `:` after key `{key}`"));
        }
        skip_ws(&mut chars);
        let val = match chars.peek() {
            Some('"') => JsonVal::Str(parse_string(&mut chars)?),
            Some('t') | Some('f') | Some('n') => {
                let word: String =
                    std::iter::from_fn(|| chars.next_if(|c| c.is_ascii_alphabetic())).collect();
                match word.as_str() {
                    "true" => JsonVal::Bool(true),
                    "false" => JsonVal::Bool(false),
                    "null" => JsonVal::Null,
                    w => return Err(format!("unexpected literal `{w}`")),
                }
            }
            Some(c) if *c == '-' || c.is_ascii_digit() => {
                let num: String = std::iter::from_fn(|| {
                    chars
                        .next_if(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                })
                .collect();
                JsonVal::Num(num.parse().map_err(|_| format!("bad number `{num}`"))?)
            }
            _ => return Err(format!("unsupported value for key `{key}`")),
        };
        fields.push((key, val));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            _ => return Err("expected `,` or `}`".into()),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".into());
    }
    Ok(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.next_if(|c| c.is_whitespace()).is_some() {}
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected `\"`".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape `\\{other:?}`")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Measurement;
    use indigo_styles::{Algorithm, Model, StyleConfig};

    fn sample_record(outcome: CellOutcome) -> CellRecord {
        CellRecord {
            fingerprint: fingerprint(Scale::Tiny, 1, true, "bfs_cpp", "Grid2d", "sys1"),
            variant: "bfs_cpp".into(),
            graph: "Grid2d",
            target: "sys1".into(),
            outcome,
            resumed: false,
        }
    }

    fn sample_measurement(geps: f64) -> Measurement {
        Measurement {
            cfg: StyleConfig::baseline(Algorithm::Bfs, Model::Cpp),
            graph: "Grid2d",
            target: "sys1".into(),
            geps,
            iterations: 7,
        }
    }

    #[test]
    fn fnv_vectors() {
        // standard FNV-1a 64 test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_is_deterministic_and_sensitive() {
        let base = fingerprint(Scale::Tiny, 1, true, "v", "g", "t");
        assert_eq!(base, fingerprint(Scale::Tiny, 1, true, "v", "g", "t"));
        assert_ne!(base, fingerprint(Scale::Small, 1, true, "v", "g", "t"));
        assert_ne!(base, fingerprint(Scale::Tiny, 2, true, "v", "g", "t"));
        assert_ne!(base, fingerprint(Scale::Tiny, 1, false, "v", "g", "t"));
        assert_ne!(base, fingerprint(Scale::Tiny, 1, true, "w", "g", "t"));
        assert_ne!(base, fingerprint(Scale::Tiny, 1, true, "v", "h", "t"));
        assert_ne!(base, fingerprint(Scale::Tiny, 1, true, "v", "g", "u"));
    }

    #[test]
    fn ok_roundtrips_with_exact_bits() {
        // an "ugly" float that plain decimal printing could distort
        let geps = f64::from_bits(0x3fb9_9999_9999_999a);
        let rec = sample_record(CellOutcome::Ok(sample_measurement(geps)));
        let entry = parse_line(&emit_line(&rec)).unwrap();
        assert_eq!(entry.fp, rec.fingerprint);
        assert_eq!(entry.variant, "bfs_cpp");
        match entry.outcome {
            JournalOutcome::Ok {
                geps_bits,
                iterations,
            } => {
                assert_eq!(geps_bits, geps.to_bits());
                assert_eq!(iterations, 7);
            }
            other => panic!("wrong outcome: {other:?}"),
        }
    }

    #[test]
    fn failure_outcomes_roundtrip_including_escapes() {
        let nasty = "panicked: \"index out of bounds\"\n\tat relax.rs, cell 3 \\ end";
        let cases = [
            CellOutcome::Crashed {
                payload: nasty.into(),
            },
            CellOutcome::TimedOut {
                budget_secs: Some(1.5),
                reason: "wall-clock budget of 1.5s exceeded".into(),
            },
            CellOutcome::TimedOut {
                budget_secs: None,
                reason: "cycle budget".into(),
            },
            CellOutcome::WrongAnswer {
                detail: "vertex 3: got 7, want 2".into(),
            },
        ];
        for outcome in cases {
            let rec = sample_record(outcome.clone());
            let entry = parse_line(&emit_line(&rec)).unwrap();
            match (&outcome, &entry.outcome) {
                (CellOutcome::Crashed { payload }, JournalOutcome::Crashed { payload: p }) => {
                    assert_eq!(payload, p)
                }
                (
                    CellOutcome::TimedOut {
                        budget_secs,
                        reason,
                    },
                    JournalOutcome::TimedOut {
                        budget_secs: b,
                        reason: r,
                    },
                ) => {
                    assert_eq!(budget_secs, b);
                    assert_eq!(reason, r);
                }
                (
                    CellOutcome::WrongAnswer { detail },
                    JournalOutcome::WrongAnswer { detail: d },
                ) => {
                    assert_eq!(detail, d)
                }
                (a, b) => panic!("mismatched outcomes: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn parse_is_field_order_independent() {
        // same entry, fields permuted — identical parse (the fingerprint
        // hashes a canonical string, never the line layout)
        let a = r#"{"v":1,"fp":"00000000000000ff","variant":"x","graph":"g","target":"t","outcome":"crashed","payload":"boom"}"#;
        let b = r#"{"payload":"boom","outcome":"crashed","target":"t","graph":"g","variant":"x","fp":"00000000000000ff","v":1}"#;
        assert_eq!(parse_line(a).unwrap(), parse_line(b).unwrap());
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let line = r#"{"v":1,"fp":"0000000000000001","future_field":true,"note":null,"variant":"x","graph":"g","target":"t","outcome":"crashed","payload":"p"}"#;
        assert!(parse_line(line).is_ok());
    }

    #[test]
    fn truncated_and_garbage_lines_are_rejected() {
        // the shapes a SIGKILL mid-append leaves behind
        for bad in [
            "",
            "{",
            r#"{"v":1,"fp":"0000"#,
            r#"{"v":1,"fp":"0000000000000001","variant":"x","graph":"g","target":"t","outcome":"cra"#,
            "not json at all",
            r#"{"v":99,"fp":"0000000000000001","variant":"x","graph":"g","target":"t","outcome":"crashed","payload":"p"}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn load_skips_truncated_tail_and_keeps_the_rest() {
        let dir = std::env::temp_dir().join(format!(
            "indigo-journal-test-{}-{:x}",
            std::process::id(),
            fnv1a64(b"load_skips")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let good = sample_record(CellOutcome::Ok(sample_measurement(1.25)));
        let mut contents = emit_line(&good);
        contents.push('\n');
        contents.push_str(r#"{"v":1,"fp":"00000000000000aa","variant":"x","#); // killed mid-line
        std::fs::write(&path, contents).unwrap();
        let (map, skipped) = load(&path).unwrap();
        assert_eq!(map.len(), 1);
        assert_eq!(skipped, 1);
        assert!(map.contains_key(&good.fingerprint));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_a_torn_tail_starts_on_a_fresh_line() {
        let dir = std::env::temp_dir().join(format!(
            "indigo-journal-test-{}-{:x}",
            std::process::id(),
            fnv1a64(b"torn_tail")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        // a killed run's journal: one good line, then a torn fragment with
        // no trailing newline
        let good = sample_record(CellOutcome::Ok(sample_measurement(1.25)));
        let mut contents = emit_line(&good);
        contents.push('\n');
        contents.push_str(r#"{"v":1,"fp":"00000000000000aa","#);
        std::fs::write(&path, contents).unwrap();

        let fresh = CellRecord {
            fingerprint: 0xbb,
            ..sample_record(CellOutcome::Ok(sample_measurement(2.5)))
        };
        {
            let j = Journal::append_to(&path).unwrap();
            j.record(&fresh).unwrap();
        }
        // the fragment must stay an isolated skippable line, not merge with
        // (and destroy) the appended entry
        let (map, skipped) = load(&path).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(map.len(), 2);
        assert!(map.contains_key(&good.fingerprint));
        assert!(map.contains_key(&0xbb));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_appends_and_reloads() {
        let dir = std::env::temp_dir().join(format!(
            "indigo-journal-test-{}-{:x}",
            std::process::id(),
            fnv1a64(b"appends")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        {
            let j = Journal::append_to(&path).unwrap();
            j.record(&sample_record(CellOutcome::Ok(sample_measurement(2.0))))
                .unwrap();
            j.record(&sample_record(CellOutcome::Crashed {
                payload: "boom".into(),
            }))
            .unwrap();
        }
        let (map, skipped) = load(&path).unwrap();
        assert_eq!(skipped, 0);
        // same fingerprint twice: the later (crashed) entry wins
        assert_eq!(map.len(), 1);
        assert!(matches!(
            map.values().next().unwrap().outcome,
            JournalOutcome::Crashed { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn lock_test_dir(tag: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "indigo-journal-test-{}-{:x}",
            std::process::id(),
            fnv1a64(tag)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn second_appender_fails_fast_while_lock_is_held() {
        let dir = lock_test_dir(b"lock_held");
        let path = dir.join("run.journal");
        let first = Journal::append_to(&path).unwrap();
        let err = Journal::append_to(&path).map(|_| ()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("locked"), "unhelpful lock error: {msg}");
        assert!(
            msg.contains(&std::process::id().to_string()),
            "lock error does not name the holder: {msg}"
        );
        // the losing acquirer must not have destroyed the winner's lock
        assert!(JournalLock::path_for(&path).exists());
        drop(first);
        // release: the path is immediately reusable
        Journal::append_to(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let dir = lock_test_dir(b"lock_stale");
        let path = dir.join("run.journal");
        // a PID that cannot be running: beyond Linux's pid_max (2^22)
        std::fs::write(JournalLock::path_for(&path), "4194400\n").unwrap();
        let j = Journal::append_to(&path).unwrap();
        j.record(&sample_record(CellOutcome::Ok(sample_measurement(1.0))))
            .unwrap();
        drop(j);
        assert!(!JournalLock::path_for(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_lockfile_counts_as_stale() {
        let dir = lock_test_dir(b"lock_garbage");
        let path = dir.join("run.journal");
        std::fs::write(JournalLock::path_for(&path), "not a pid").unwrap();
        Journal::append_to(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
