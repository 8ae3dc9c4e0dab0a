//! Acceptance gate for the query server (DESIGN.md §7.8): every leg of the
//! admission → deadline → retry → breaker → degrade pipeline, exercised
//! over real loopback TCP against a real `Server`.
//!
//! The chaos harness (`indigo-exp serve --chaos`) stresses the same
//! pipeline under concurrency and randomized interleavings; these tests
//! pin each behavior down deterministically, one at a time.

use indigo_serve::client::{self, ClientResponse};
use indigo_serve::{Server, ServerConfig};
use std::net::SocketAddr;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn get(addr: SocketAddr, target: &str) -> ClientResponse {
    client::get(addr, target, TIMEOUT).expect("request must be answered")
}

fn chaos_cfg() -> ServerConfig {
    ServerConfig {
        allow_fault_param: true,
        ..ServerConfig::default()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("indigo-serve-it-{}-{name}", std::process::id()))
}

#[test]
fn health_stats_and_unknown_routes_answer_structured_json() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let health = get(addr, "/health");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"queue_depth\""), "{}", health.body);
    assert!(health.body.contains("\"breakers\""), "{}", health.body);

    let stats = get(addr, "/stats");
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("\"requests\""), "{}", stats.body);

    let missing = get(addr, "/nope");
    assert_eq!(missing.status, 404);
    assert!(missing.body.contains("\"status\""), "{}", missing.body);

    let bad = get(addr, "/run?algo=quantum&graph=2d-grid");
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("unknown algo"), "{}", bad.body);

    // fault injection must be rejected outside chaos mode
    let fault = get(addr, "/run?algo=tc&graph=2d-grid&fault=panic");
    assert_eq!(fault.status, 400);
    assert!(fault.body.contains("chaos mode only"), "{}", fault.body);
}

#[test]
fn clean_queries_answer_and_repeat_queries_hit_the_cache() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let first = get(addr, "/run?algo=tc&graph=2d-grid&scale=tiny");
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.contains("\"cached\":false"), "{}", first.body);
    assert!(first.body.contains("\"geps_bits\""), "{}", first.body);

    let again = get(addr, "/run?algo=tc&graph=2d-grid&scale=tiny");
    assert_eq!(again.status, 200);
    assert!(again.body.contains("\"cached\":true"), "{}", again.body);

    let snap = server.stats();
    assert_eq!(snap.cache_hits, 1);

    // a sweep over the same (algo, graph) reuses the baseline's cells and
    // reports a best variant
    let sweep = get(addr, "/sweep?algo=tc&graph=2d-grid&scale=tiny&limit=3");
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    assert!(sweep.body.contains("\"best_variant\""), "{}", sweep.body);
}

#[test]
fn transient_fault_is_retried_within_the_deadline() {
    let server = Server::start(chaos_cfg()).unwrap();
    let addr = server.addr();

    // the first attempt panics, the retry runs clean
    let r = get(
        addr,
        "/run?algo=cc&graph=rmat&scale=tiny&fault=panic&fault_attempts=1",
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"attempts\":2"), "{}", r.body);
    assert!(server.stats().retries >= 1);
}

#[test]
fn persistent_stall_exhausts_the_deadline_as_a_structured_504() {
    let server = Server::start(chaos_cfg()).unwrap();
    let addr = server.addr();

    let r = get(
        addr,
        "/run?algo=bfs&graph=copapers&scale=tiny&deadline_ms=400&fault=stall&fault_attempts=9",
    );
    assert_eq!(r.status, 504, "{}", r.body);
    assert!(r.body.contains("\"status\":\"timeout\""), "{}", r.body);
    assert!(server.stats().timeouts >= 1);
}

#[test]
fn wrong_answers_are_permanent_failures_not_retried() {
    let server = Server::start(chaos_cfg()).unwrap();
    let addr = server.addr();

    // fault_attempts high enough that a retry *would* fault again: the 500
    // must come from quarantine after attempt 1, not retry exhaustion
    let r = get(
        addr,
        "/run?algo=tc&graph=soc-net&scale=tiny&fault=corrupt&fault_attempts=9",
    );
    assert_eq!(r.status, 500, "{}", r.body);
    assert!(r.body.contains("wrong answer"), "{}", r.body);
    assert!(r.body.contains("\"attempts\":1"), "{}", r.body);
    assert_eq!(server.stats().retries, 0);
}

#[test]
fn breaker_trips_to_degraded_answers_and_recovers_after_cooldown() {
    let mut cfg = chaos_cfg();
    cfg.breaker.threshold = 2;
    cfg.breaker.cooldown = Duration::from_millis(200);
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // two consecutive permanently-failing requests trip the road shard
    for _ in 0..2 {
        let r = get(
            addr,
            "/run?algo=bfs&graph=road&scale=tiny&fault=panic&fault_attempts=9",
        );
        assert_eq!(r.status, 500, "{}", r.body);
    }
    assert_eq!(server.stats().breaker_trips, 1);

    // open breaker: a clean query gets a degraded serial-oracle answer
    // immediately — not an error, and with Retry-After advice
    let d = get(addr, "/run?algo=bfs&graph=road&scale=tiny");
    assert_eq!(d.status, 200, "{}", d.body);
    assert!(d.body.contains("\"degraded\":true"), "{}", d.body);
    assert!(d.body.contains("\"serial-bfs\""), "{}", d.body);
    assert!(d.retry_after.is_some());

    // other shards are unaffected
    let ok = get(addr, "/run?algo=tc&graph=2d-grid&scale=tiny");
    assert_eq!(ok.status, 200, "{}", ok.body);
    assert!(ok.body.contains("\"degraded\":false"), "{}", ok.body);

    // after the cooldown a half-open probe runs for real and recovers
    std::thread::sleep(Duration::from_millis(250));
    let mut recovered = false;
    for _ in 0..20 {
        let r = get(addr, "/run?algo=bfs&graph=road&scale=tiny");
        if r.status == 200 && r.body.contains("\"degraded\":false") {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(recovered, "breaker never recovered");
    assert_eq!(server.stats().breaker_recoveries, 1);
}

#[test]
fn overload_is_shed_with_429_and_retry_after() {
    let mut cfg = chaos_cfg();
    cfg.workers = 1;
    cfg.queue = 1;
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // pin the only worker with a stalled request, then burst
    let pinner = std::thread::spawn(move || {
        client::get(
            addr,
            "/run?algo=cc&graph=soc-net&scale=tiny&deadline_ms=800&fault=stall&fault_attempts=9",
            TIMEOUT,
        )
    });
    std::thread::sleep(Duration::from_millis(150));
    // the burst must be concurrent: a sequential client would just park in
    // the queue slot and wait the pinner out instead of overflowing it
    let responses: Vec<ClientResponse> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| s.spawn(move || get(addr, "/health")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut sheds = 0;
    for r in &responses {
        if r.status == 429 {
            assert!(r.retry_after.is_some(), "{}", r.body);
            assert!(r.body.contains("\"status\":\"shed\""), "{}", r.body);
            sheds += 1;
        }
    }
    assert!(sheds >= 1, "burst of 6 against a full queue shed nothing");
    assert_eq!(server.stats().shed, sheds);
    let pinned = pinner
        .join()
        .unwrap()
        .expect("pinned request still answered");
    assert_eq!(pinned.status, 504, "{}", pinned.body);
}

#[test]
fn restart_replays_the_journal_bit_exact() {
    let journal = tmp("restart.jsonl");
    let _ = std::fs::remove_file(&journal);
    let cfg = ServerConfig {
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    };

    let (fp, bits) = {
        let server = Server::start(cfg.clone()).unwrap();
        let r = get(server.addr(), "/run?algo=mis&graph=rmat&scale=tiny");
        assert_eq!(r.status, 200, "{}", r.body);
        (
            extract(&r.body, "\"fp\":\""),
            extract(&r.body, "\"geps_bits\":\""),
        )
        // server drops here: crash-only — no flush step, no shutdown protocol
    };

    let server = Server::start(cfg).unwrap();
    assert!(server.recovered_cells() >= 1);
    let r = get(server.addr(), &format!("/cell?fp={fp}"));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(
        r.body.contains(&format!("\"geps_bits\":\"{bits}\"")),
        "bits changed across restart: {}",
        r.body
    );

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn second_server_on_the_same_journal_fails_fast() {
    let journal = tmp("locked.jsonl");
    let _ = std::fs::remove_file(&journal);
    let cfg = ServerConfig {
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    };
    let _holder = Server::start(cfg.clone()).unwrap();
    let err = match Server::start(cfg) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("two servers must not share a journal"),
    };
    assert!(err.contains("locked"), "{err}");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn batched_answers_are_bit_identical_to_unbatched() {
    use std::collections::HashMap;

    // batched server: a wide window so concurrent submissions actually
    // merge; unbatched server: a merge cap of 1, so every claim runs as
    // its own plan
    let mut bat_cfg = chaos_cfg();
    bat_cfg.batch = 8;
    bat_cfg.batch_window = Duration::from_millis(5);
    let mut un_cfg = chaos_cfg();
    un_cfg.batch = 1;
    let bat = Server::start(bat_cfg).unwrap();
    let un = Server::start(un_cfg).unwrap();

    // overlapping /run + /sweep mix: same cells appear in multiple queries,
    // so coalescing and cross-query merging both get exercised
    let targets = [
        "/run?algo=tc&graph=2d-grid&scale=tiny",
        "/run?algo=bfs&graph=2d-grid&scale=tiny",
        "/run?algo=cc&graph=rmat&scale=tiny",
        "/sweep?algo=tc&graph=2d-grid&scale=tiny&limit=3",
        "/sweep?algo=bfs&graph=rmat&scale=tiny&limit=3",
        "/run?algo=pr&graph=copapers&scale=tiny",
    ];
    let collect = |addr: SocketAddr| -> HashMap<String, String> {
        let merged = std::sync::Mutex::new(HashMap::new());
        std::thread::scope(|s| {
            for offset in 0..4 {
                let merged = &merged;
                s.spawn(move || {
                    let mut conn = client::Client::new(addr, TIMEOUT);
                    for i in 0..targets.len() {
                        let t = targets[(i + offset) % targets.len()];
                        let r = conn.get(t).expect("request must be answered");
                        assert_eq!(r.status, 200, "{t}: {}", r.body);
                        let mut m = merged.lock().unwrap();
                        for (fp, bits) in cells_of(&r.body) {
                            if let Some(prev) = m.insert(fp.clone(), bits.clone()) {
                                assert_eq!(prev, bits, "fp {fp} answered two ways");
                            }
                        }
                    }
                });
            }
        });
        merged.into_inner().unwrap()
    };
    let batched = collect(bat.addr());
    let unbatched = collect(un.addr());
    assert!(!batched.is_empty());
    assert_eq!(batched.len(), unbatched.len(), "cell sets diverged");
    for (fp, bits) in &batched {
        assert_eq!(
            Some(bits),
            unbatched.get(fp),
            "fp {fp}: batched and unbatched bits differ"
        );
    }

    // fault leg: a stalled claimer holds the flight while a clean
    // short-deadline waiter coalesces onto it and expires mid-batch —
    // the waiter's 504 must not cancel the shared run, and a later clean
    // request must still produce the unbatched bits
    let addr = bat.addr();
    let stall = std::thread::spawn(move || {
        client::get(
            addr,
            "/run?algo=mis&graph=soc-net&scale=tiny&deadline_ms=1500\
             &fault=stall&fault_attempts=9",
            TIMEOUT,
        )
    });
    std::thread::sleep(Duration::from_millis(150));
    let waiter = get(
        addr,
        "/run?algo=mis&graph=soc-net&scale=tiny&deadline_ms=300",
    );
    assert_eq!(waiter.status, 504, "{}", waiter.body);
    let stalled = stall.join().unwrap().expect("stalled request answered");
    assert_eq!(stalled.status, 504, "{}", stalled.body);
    assert!(bat.stats().coalesced >= 1, "waiter never coalesced");
    let clean = get(
        addr,
        "/run?algo=mis&graph=soc-net&scale=tiny&deadline_ms=8000",
    );
    assert_eq!(clean.status, 200, "{}", clean.body);
    let reference = get(un.addr(), "/run?algo=mis&graph=soc-net&scale=tiny");
    assert_eq!(
        extract(&clean.body, "\"geps_bits\":\""),
        extract(&reference.body, "\"geps_bits\":\""),
        "post-fault bits diverged from the unbatched server"
    );
}

#[test]
fn pipelined_keep_alive_requests_answer_in_order() {
    use std::io::{Read, Write};

    let server = Server::start(ServerConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    // two requests in one write, no Connection header: both must come back
    // on this connection, in order
    stream
        .write_all(
            b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /stats HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 1024];
    let deadline = std::time::Instant::now() + TIMEOUT;
    while raw.windows(4).filter(|w| w == b"\r\n\r\n").count() < 2
        && std::time::Instant::now() < deadline
    {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(
        text.matches("HTTP/1.1 200").count(),
        2,
        "expected two 200s on one connection: {text}"
    );
    let first = text.find("\"queue_depth\"").expect("health body first");
    let second = text.find("\"requests\"").expect("stats body second");
    assert!(first < second, "responses out of order: {text}");
    assert!(
        server.stats().keepalive_reuses >= 1,
        "second request was not counted as a keep-alive reuse"
    );
}

#[test]
fn close_requests_get_a_closing_response_then_eof() {
    use std::io::{Read, Write};

    let server = Server::start(ServerConfig::default()).unwrap();
    for request in [
        "GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        "GET /health HTTP/1.0\r\n\r\n",
    ] {
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        // read_to_end returns only once the server closes the connection
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .unwrap_or_else(|e| panic!("{request:?}: no EOF after the response: {e}"));
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 200"), "{request:?}: {text}");
        assert!(
            text.contains("Connection: close\r\n"),
            "{request:?}: response does not announce the close: {text}"
        );
        assert_eq!(
            text.matches("HTTP/1.1 ").count(),
            1,
            "{request:?}: exactly one response before EOF: {text}"
        );
    }
}

#[test]
fn one_keep_alive_connection_soaks_thousands_of_cached_answers() {
    use std::io::Write;

    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    // two cached targets: the default style and a catalogue lookup by name
    let named =
        indigo_styles::enumerate::variants(indigo_styles::Algorithm::Cc, indigo_styles::Model::Omp)
            [3]
        .name();
    let targets = [
        "/run?algo=bfs&graph=2d-grid&scale=tiny".to_string(),
        format!("/run?algo=cc&model=omp&graph=rmat&scale=tiny&variant={named}"),
    ];
    for t in &targets {
        let primed = get(addr, t);
        assert_eq!(primed.status, 200, "{t}: {}", primed.body);
    }

    // a lost re-registration hangs the connection: every read is bounded,
    // and so is the whole soak
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = std::time::Instant::now();
    let mut carry = Vec::new();
    let mut reference: Vec<Option<String>> = vec![None; targets.len()];
    let rounds = 2000;
    for i in 0..rounds {
        let k = i % targets.len();
        let req = format!("GET {} HTTP/1.1\r\nHost: x\r\n\r\n", targets[k]);
        stream.write_all(req.as_bytes()).unwrap();
        let body = strip_request_scope(&read_response(&mut stream, &mut carry));
        assert!(body.contains("\"cached\":true"), "round {i}: {body}");
        match &reference[k] {
            None => reference[k] = Some(body),
            Some(r) => assert_eq!(&body, r, "round {i} answered differently"),
        }
    }
    // and a pipelined pair in one write on the same connection
    let pair: String = targets
        .iter()
        .map(|t| format!("GET {t} HTTP/1.1\r\nHost: x\r\n\r\n"))
        .collect();
    stream.write_all(pair.as_bytes()).unwrap();
    for (k, r) in reference.iter().enumerate() {
        let body = strip_request_scope(&read_response(&mut stream, &mut carry));
        assert_eq!(Some(&body), r.as_ref(), "pipelined answer {k}");
    }
    // a pipelined head split across writes: the first answer must not
    // wait for the rest, and the rest must still be read
    let split = pair.len() - 20;
    stream.write_all(&pair.as_bytes()[..split]).unwrap();
    let first = strip_request_scope(&read_response(&mut stream, &mut carry));
    assert_eq!(
        Some(&first),
        reference[0].as_ref(),
        "split pair, first answer"
    );
    stream.write_all(&pair.as_bytes()[split..]).unwrap();
    let second = strip_request_scope(&read_response(&mut stream, &mut carry));
    assert_eq!(
        Some(&second),
        reference[1].as_ref(),
        "split pair, second answer"
    );
    assert!(
        started.elapsed() < Duration::from_secs(120),
        "soak took {:?}",
        started.elapsed()
    );
    assert!(
        server.stats().keepalive_reuses > rounds as u64,
        "requests were not served on the one kept connection"
    );
}

/// Reads one 200 response off `stream`, keeping bytes past it in `carry`;
/// returns the body.
fn read_response(stream: &mut std::net::TcpStream, carry: &mut Vec<u8>) -> String {
    use std::io::Read;

    let mut chunk = [0u8; 4096];
    loop {
        if let Some(h) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&carry[..h]).into_owned();
            let len: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .unwrap_or_else(|| panic!("no Content-Length in {head}"));
            if carry.len() >= h + 4 + len {
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                let body = String::from_utf8_lossy(&carry[h + 4..h + 4 + len]).into_owned();
                carry.drain(..h + 4 + len);
                return body;
            }
        }
        let n = stream
            .read(&mut chunk)
            .expect("the kept connection must answer within its read timeout");
        assert!(n > 0, "server closed the keep-alive connection");
        carry.extend_from_slice(&chunk[..n]);
    }
}

/// A success body without its per-request `rid`/`served_by`/`timing` tail.
fn strip_request_scope(body: &str) -> String {
    let cut = body
        .find(",\"rid\":")
        .unwrap_or_else(|| panic!("no rid in {body}"));
    body[..cut].to_string()
}

// The reactor reaps connections that dribble their request head.
#[test]
fn slow_header_connections_are_reaped() {
    use std::io::{Read, Write};

    let cfg = ServerConfig {
        header_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /heal").unwrap(); // never finishes the head
    let started = std::time::Instant::now();
    let mut buf = [0u8; 64];
    // the server must close us without an answer, and promptly
    let n = loop {
        match stream.read(&mut buf) {
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("expected EOF from the reaped connection, got {e}"),
        }
    };
    assert_eq!(n, 0, "reaped connection should EOF without a response");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "slow-header reap took {:?}",
        started.elapsed()
    );
}

/// Every `(fp, geps_bits)` pair in a success body.
fn cells_of(body: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(i) = rest.find("\"fp\":\"") {
        let fp_start = &rest[i + 6..];
        let Some(fp_end) = fp_start.find('"') else {
            break;
        };
        let fp = fp_start[..fp_end].to_string();
        rest = &fp_start[fp_end..];
        let Some(j) = rest.find("\"geps_bits\":\"") else {
            continue;
        };
        let gb_start = &rest[j + 13..];
        let Some(gb_end) = gb_start.find('"') else {
            break;
        };
        out.push((fp, gb_start[..gb_end].to_string()));
        rest = &gb_start[gb_end..];
    }
    out
}

/// First occurrence of `"key":"<value>"` in a body.
fn extract(body: &str, prefix: &str) -> String {
    let start = body
        .find(prefix)
        .unwrap_or_else(|| panic!("{prefix} not in {body}"))
        + prefix.len();
    body[start..].split('"').next().unwrap().to_string()
}
