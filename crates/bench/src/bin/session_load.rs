//! Session-fabric load benchmark: thousands of concurrent long-lived
//! NDJSON voice sessions against the evented serving layer (DESIGN.md
//! §15), written to `BENCH_load.json`.
//!
//! Three measurements:
//!
//! 1. **Keep-alive warm starts** — TTFS of a `/query/stream` follow-up on
//!    a reused keep-alive connection (same scope, semantic cache warm)
//!    versus a cold connection, the §15 acceptance comparison.
//! 2. **Concurrent session fleet** — open thousands of upgraded session
//!    connections, hold them idle (resident bytes per idle session from
//!    `VmRSS`), then drive seeded multi-turn exploration scripts through
//!    every session and report utterance TTFS percentiles, RPS, and bytes
//!    per session.
//! 3. **Serving counters** — the reactor's own metrics (keep-alive
//!    reuses, sessions opened/closed, heartbeats) stamped alongside.
//!
//! ```text
//! cargo run --release --bin session_load \
//!     [--sessions N] [--turns N] [--rows N] [--drivers N] [--runs N]
//!     [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the fleet for CI (>=1000 sessions, 2 turns) and
//! exits non-zero after writing the record if any session was dropped or
//! no TTFS percentile was recorded.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use voxolap_bench::{arg_usize, flights_table, HostInfo};
use voxolap_engine::poison::RecoveringMutex;
use voxolap_faults::RetryPolicy;
use voxolap_json::Value;
use voxolap_server::percentile;
use voxolap_server::{raise_nofile_limit, serve_with, AppState, HttpMetrics, ServerConfig};
use voxolap_simuser::{utterance_script, ScriptConfig};

/// Cold-connection question (empty-filter scope, breakdown by region).
const Q_COLD: &str = "cancellation probability by region";
/// Keep-alive follow-up in the *same* scope (different breakdown), so the
/// reuse saves connect + accept + handshake and the semantic cache
/// warm-starts the samples.
const Q_WARM: &str = "cancellation probability by season";

/// One client connection with minimal buffering (the fleet lives in this
/// process, so per-connection client memory pollutes the idle-RSS
/// measurement; reads go through a small chunk into one growable line
/// buffer).
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    bytes_in: u64,
}

impl Conn {
    fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, buf: Vec::new(), bytes_in: 0 })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 256];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "peer closed"));
        }
        self.bytes_in += n as u64;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Read one `\n`-terminated line (CR stripped).
    fn read_line(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(String::from_utf8_lossy(&line).into_owned());
            }
            self.fill()?;
        }
    }

    /// Read an HTTP response head, returning the status code.
    fn read_head(&mut self) -> std::io::Result<u16> {
        loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..pos]).into_owned();
                self.buf.drain(..pos + 4);
                let status =
                    head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(
                        || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"),
                    )?;
                return Ok(status);
            }
            self.fill()?;
        }
    }

    /// Read one chunked-transfer body to the terminal chunk, returning
    /// the elapsed time to the first `sentence` payload.
    fn read_chunked_stream(&mut self, t0: Instant) -> std::io::Result<Option<f64>> {
        let mut ttfs = None;
        loop {
            let size_line = self.read_line()?;
            let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad chunk size")
            })?;
            while self.buf.len() < size + 2 {
                self.fill()?;
            }
            let payload: Vec<u8> = self.buf.drain(..size).collect();
            self.buf.drain(..2); // chunk-terminating CRLF
            if size == 0 {
                return Ok(ttfs);
            }
            if ttfs.is_none() && String::from_utf8_lossy(&payload).contains("\"sentence\"") {
                ttfs = Some(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
}

/// One `/query/stream` round trip on an open connection (keep-alive
/// requested), returning TTFS in milliseconds.
fn stream_ttfs(conn: &mut Conn, question: &str) -> std::io::Result<f64> {
    let body = format!("{{\"question\": \"{question}\"}}");
    let req = format!(
        "POST /query/stream HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let t0 = Instant::now();
    conn.stream.write_all(req.as_bytes())?;
    let status = conn.read_head()?;
    if status != 200 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("stream request got {status}"),
        ));
    }
    let ttfs = conn.read_chunked_stream(t0)?;
    ttfs.ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "stream carried no sentence")
    })
}

/// Attach one upgraded session connection: `101` handshake + `hello`.
fn attach(addr: SocketAddr, id: &str, timeout: Duration) -> std::io::Result<Conn> {
    let mut conn = Conn::connect(addr, timeout)?;
    let req = format!("GET /session/{id}/attach HTTP/1.1\r\nHost: bench\r\n\r\n");
    conn.stream.write_all(req.as_bytes())?;
    let status = conn.read_head()?;
    if status != 101 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("attach got {status}, want 101"),
        ));
    }
    let hello = conn.read_line()?;
    if !hello.contains("\"hello\"") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("expected hello event, got {hello:?}"),
        ));
    }
    conn.buf.shrink_to_fit();
    Ok(conn)
}

/// Send one utterance and read events to the end of its speech stream.
/// Returns (ttfs_ms, stream-ended) — `ttfs_ms` is `None` for event kinds
/// that carry no sentences (help, error).
fn drive_utterance(conn: &mut Conn, text: &str) -> std::io::Result<Option<f64>> {
    let line = Value::obj([("type", "utter".into()), ("text", text.into())]).to_string();
    let t0 = Instant::now();
    conn.stream.write_all(format!("{line}\n").as_bytes())?;
    let mut ttfs = None;
    loop {
        let event = conn.read_line()?;
        if event.contains("\"heartbeat\"") {
            continue;
        }
        if ttfs.is_none() && event.contains("\"sentence\"") {
            ttfs = Some(t0.elapsed().as_secs_f64() * 1e3);
        }
        if event.contains("\"done\"") || event.contains("\"help\"") || event.contains("\"error\"") {
            return Ok(ttfs);
        }
        if event.contains("\"bye\"") {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server said bye mid-utterance",
            ));
        }
    }
}

/// Backoff for `503` + `Retry-After` admission rejections: the server
/// sheds load when its queue saturates, and a well-behaved client retries
/// with jitter instead of declaring the session dropped.
fn bench_retry_policy() -> RetryPolicy {
    RetryPolicy { max_retries: 4, base: Duration::from_millis(20), cap: Duration::from_millis(250) }
}

/// Whether an I/O error wraps a `503` response (our request helpers embed
/// the status code in the error text).
fn is_503(e: &std::io::Error) -> bool {
    e.to_string().contains("503")
}

/// Run `op`, retrying `503` rejections per `policy` with deterministic
/// per-token jitter; every other error (and exhaustion) passes through.
fn with_retry_503<T>(
    policy: &RetryPolicy,
    token: u64,
    retries: &AtomicU64,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Err(e) if is_503(&e) && attempt < policy.max_retries => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(policy.delay(attempt, token));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Resident set size of this process in bytes (`0` where undetectable).
fn vm_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

fn dist_json(samples: &[f64]) -> Value {
    Value::obj([
        ("count", samples.len().into()),
        ("p50", percentile(samples, 50.0).into()),
        ("p90", percentile(samples, 90.0).into()),
        ("p99", percentile(samples, 99.0).into()),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = arg_usize("--rows", if smoke { 6_000 } else { 20_000 });
    let turns = arg_usize("--turns", if smoke { 2 } else { 3 });
    let runs = arg_usize("--runs", if smoke { 5 } else { 9 });
    let host = HostInfo::detect();
    let drivers = arg_usize("--drivers", host.cores.clamp(2, 16));
    let mut sessions = arg_usize("--sessions", if smoke { 1_200 } else { 5_000 });
    // Voice sessions are think-time dominated: the fleet holds open
    // (that is the resident-memory and readiness claim), while an active
    // subset drives utterances for the TTFS/RPS distributions — planning
    // is CPU-bound, so driving every session would measure core count,
    // not the serving fabric.
    let active = arg_usize("--active", if smoke { 32 } else { 64 });
    let out = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_load.json".to_string())
    };

    // Client + server fds both live in this process: two per session.
    let fd_limit = raise_nofile_limit();
    let fd_budget = fd_limit.saturating_sub(128) / 2;
    if (sessions as u64) > fd_budget {
        eprintln!("fd limit {fd_limit}: clamping fleet {sessions} -> {fd_budget}");
        sessions = fd_budget as usize;
    }

    let active = active.min(sessions);
    eprintln!(
        "session_load: rows={rows} sessions={sessions} (active={active}) \
         turns={turns} drivers={drivers}"
    );
    let config = ServerConfig {
        threads: host.cores.clamp(2, 8),
        queue: 256,
        // Idle fleets must not be reaped or flooded with heartbeats while
        // we measure resident memory.
        session_idle_timeout: Duration::from_secs(600),
        heartbeat: Duration::from_secs(120),
        log_requests: false,
        ..ServerConfig::default()
    };
    let state = Arc::new(
        AppState::new(flights_table(rows))
            .with_session_timing(
                config.heartbeat.as_millis() as u64,
                config.session_idle_timeout.as_millis() as u64,
            )
            // Scripts wander into wide scopes (multi-level drill-downs);
            // unbounded, one such utterance converges for minutes and pins
            // a worker. Bound it like a production voice deployment would.
            .with_utterance_deadline(Duration::from_secs(10)),
    );
    let handler_state = Arc::clone(&state);
    let http_metrics = Arc::new(HttpMetrics::default());
    let handle = serve_with("127.0.0.1:0", config, Arc::clone(&http_metrics), move |req| {
        handler_state.handle(req)
    })
    .expect("serve");
    let addr = handle.addr;
    if std::env::var_os("SESSION_LOAD_TRACE").is_some() {
        eprintln!("listening on {addr}");
    }

    // ---- Phase 1: keep-alive warm start vs cold connection ------------
    let io_timeout = Duration::from_secs(60);
    let retry_policy = bench_retry_policy();
    let retries_503 = Arc::new(AtomicU64::new(0));
    {
        // Warm the vocalizer + planner caches once, uncounted.
        let mut warmup = Conn::connect(addr, io_timeout).expect("warmup connect");
        stream_ttfs(&mut warmup, Q_COLD).expect("warmup stream");
    }
    let mut cold_ttfs = Vec::with_capacity(runs);
    let mut warm_ttfs = Vec::with_capacity(runs);
    for r in 0..runs {
        // A 503 mid-pair retries the whole cold+warm pair on a fresh
        // connection (a rejected response leaves the old framing dirty).
        let (cold, warm) = with_retry_503(&retry_policy, r as u64, &retries_503, || {
            let mut conn = Conn::connect(addr, io_timeout)?;
            let cold = stream_ttfs(&mut conn, Q_COLD)?;
            // Same connection, same scope: keep-alive reuse + semantic
            // warm start.
            let warm = stream_ttfs(&mut conn, Q_WARM)?;
            Ok((cold, warm))
        })
        .expect("keep-alive pair");
        cold_ttfs.push(cold);
        warm_ttfs.push(warm);
    }
    let cold_p50 = percentile(&cold_ttfs, 50.0);
    let warm_p50 = percentile(&warm_ttfs, 50.0);
    eprintln!("keep-alive: cold p50 {cold_p50:.2} ms, warm follow-up p50 {warm_p50:.2} ms");

    // ---- Phase 2: concurrent session fleet ----------------------------
    let opened = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let utterances = Arc::new(AtomicU64::new(0));
    let fleet_bytes = Arc::new(AtomicU64::new(0));
    // Sample vectors recover (emptied) instead of poisoning the harness
    // if a driver thread panics mid-extend.
    let all_ttfs: Arc<RecoveringMutex<Vec<f64>>> = Arc::new(RecoveringMutex::new(Vec::new()));
    let all_attach: Arc<RecoveringMutex<Vec<f64>>> = Arc::new(RecoveringMutex::new(Vec::new()));
    // Rendezvous: open -> (main measures idle RSS) -> rounds -> done.
    let barrier = Arc::new(Barrier::new(drivers + 1));

    let rss_before = vm_rss_bytes();
    let script_config = ScriptConfig { turns, seed: 0x5e55_1013 };
    let mut threads = Vec::with_capacity(drivers);
    for d in 0..drivers {
        let opened = Arc::clone(&opened);
        let dropped = Arc::clone(&dropped);
        let utterances = Arc::clone(&utterances);
        let fleet_bytes = Arc::clone(&fleet_bytes);
        let all_ttfs = Arc::clone(&all_ttfs);
        let all_attach = Arc::clone(&all_attach);
        let barrier = Arc::clone(&barrier);
        let retries_503 = Arc::clone(&retries_503);
        threads.push(std::thread::spawn(move || {
            let mine: Vec<usize> = (d..sessions).step_by(drivers).collect();
            let mut attach_local = Vec::with_capacity(mine.len());
            let mut conns: Vec<Option<(usize, Conn)>> = mine
                .iter()
                .map(|&i| {
                    let t0 = Instant::now();
                    // Admission 503s (each attach attempt dials a fresh
                    // connection) back off and retry before counting a
                    // drop.
                    let attached = with_retry_503(&retry_policy, i as u64, &retries_503, || {
                        attach(addr, &format!("s{i}"), io_timeout)
                    });
                    match attached {
                        Ok(conn) => {
                            attach_local.push(t0.elapsed().as_secs_f64() * 1e3);
                            opened.fetch_add(1, Ordering::Relaxed);
                            Some((i, conn))
                        }
                        Err(e) => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                            eprintln!("session s{i}: attach failed: {e}");
                            None
                        }
                    }
                })
                .collect();
            all_attach.lock_recovering(Vec::clear).extend_from_slice(&attach_local);
            barrier.wait(); // fleet open, idle
            barrier.wait(); // idle RSS measured, start rounds
            let mut ttfs_local = Vec::new();
            for turn in 0..turns {
                for slot in conns.iter_mut() {
                    let Some((i, conn)) = slot else { continue };
                    if *i >= active {
                        continue; // idle fleet member: holds the connection
                    }
                    let script = utterance_script(script_config, *i as u64);
                    if std::env::var_os("SESSION_LOAD_TRACE").is_some() {
                        eprintln!("driver {d}: s{i} turn {turn} utter {:?}", script[turn]);
                    }
                    match drive_utterance(conn, &script[turn]) {
                        Ok(ttfs) => {
                            if std::env::var_os("SESSION_LOAD_TRACE").is_some() {
                                eprintln!("driver {d}: s{i} turn {turn} done");
                            }
                            utterances.fetch_add(1, Ordering::Relaxed);
                            if let Some(ms) = ttfs {
                                ttfs_local.push(ms);
                            }
                        }
                        Err(e) => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                            eprintln!("session s{i} turn {turn}: {e}");
                            fleet_bytes.fetch_add(conn.bytes_in, Ordering::Relaxed);
                            *slot = None;
                        }
                    }
                }
            }
            all_ttfs.lock_recovering(Vec::clear).extend_from_slice(&ttfs_local);
            barrier.wait(); // rounds done
            for (_, mut conn) in conns.into_iter().flatten() {
                let _ = conn.stream.write_all(b"{\"type\":\"bye\"}\n");
                fleet_bytes.fetch_add(conn.bytes_in, Ordering::Relaxed);
            }
        }));
    }

    let open_t0 = Instant::now();
    barrier.wait(); // all sessions open
    let open_ms = open_t0.elapsed().as_secs_f64() * 1e3;
    // Let allocators and the reactor settle before reading RSS.
    std::thread::sleep(Duration::from_millis(750));
    let rss_idle = vm_rss_bytes();
    let fleet_opened = opened.load(Ordering::Relaxed);
    let rss_per_session =
        rss_idle.saturating_sub(rss_before).checked_div(fleet_opened).unwrap_or(0);
    eprintln!(
        "fleet: {fleet_opened}/{sessions} open in {open_ms:.0} ms, \
         {rss_per_session} resident bytes per idle session"
    );
    let rounds_t0 = Instant::now();
    barrier.wait(); // start rounds
    barrier.wait(); // rounds done (byes follow, untimed)
    let rounds_s = rounds_t0.elapsed().as_secs_f64();
    for t in threads {
        t.join().expect("driver thread");
    }
    let total_utterances = utterances.load(Ordering::Relaxed);
    let fleet_dropped = dropped.load(Ordering::Relaxed);
    let rps = total_utterances as f64 / rounds_s.max(1e-9);
    let ttfs = all_ttfs.lock_recovering(Vec::clear).clone();
    let ttfs_p99 = percentile(&ttfs, 99.0);
    let attach_ms = all_attach.lock_recovering(Vec::clear).clone();
    let attach_p99 = percentile(&attach_ms, 99.0);
    let bytes_per_session =
        fleet_bytes.load(Ordering::Relaxed).checked_div(fleet_opened).unwrap_or(0);
    eprintln!(
        "rounds: {total_utterances} utterances in {rounds_s:.1} s ({rps:.0} rps), \
         ttfs p50 {:.1} ms p99 {ttfs_p99:.1} ms, {fleet_dropped} dropped",
        percentile(&ttfs, 50.0)
    );

    let metrics = handle.metrics().snapshot();
    handle.shutdown();

    // ---- Record ------------------------------------------------------
    let total_retries_503 = retries_503.load(Ordering::Relaxed);
    let json = Value::obj([
        ("bench", "session_load".into()),
        ("dataset", "flights".into()),
        ("rows", (rows as u64).into()),
        ("smoke", smoke.into()),
        ("host_cores", (host.cores as u64).into()),
        ("host_ram_bytes", host.ram_bytes.into()),
        ("fd_limit", fd_limit.into()),
        (
            "retry",
            Value::obj([
                ("max_retries", retry_policy.max_retries.into()),
                ("base_ms", (retry_policy.base.as_secs_f64() * 1e3).into()),
                ("cap_ms", (retry_policy.cap.as_secs_f64() * 1e3).into()),
                ("retries_503", total_retries_503.into()),
            ]),
        ),
        (
            "keepalive",
            Value::obj([
                ("runs", runs.into()),
                ("cold_ttfs_ms", dist_json(&cold_ttfs)),
                ("warm_ttfs_ms", dist_json(&warm_ttfs)),
                ("warm_beats_cold", (warm_p50 < cold_p50).into()),
            ]),
        ),
        (
            "sessions",
            Value::obj([
                ("target", sessions.into()),
                ("opened", fleet_opened.into()),
                ("dropped", fleet_dropped.into()),
                ("active", active.into()),
                ("turns", turns.into()),
                ("drivers", drivers.into()),
                ("utterance_deadline_ms", 10_000u64.into()),
                ("open_ms", open_ms.into()),
                ("attach_ms", dist_json(&attach_ms)),
                ("rss_per_idle_session_bytes", rss_per_session.into()),
                ("utterances", total_utterances.into()),
                ("rounds_s", rounds_s.into()),
                ("rps", rps.into()),
                ("ttfs_ms", dist_json(&ttfs)),
                ("bytes_per_session", bytes_per_session.into()),
            ]),
        ),
        (
            "http",
            Value::obj([
                ("accepted", metrics.accepted.into()),
                ("rejected", metrics.rejected.into()),
                ("keepalive_reuses", metrics.keepalive_reuses.into()),
                ("sessions_opened", metrics.sessions_opened.into()),
                ("sessions_closed", metrics.sessions_closed.into()),
                ("session_lines", metrics.session_lines.into()),
                ("heartbeats_sent", metrics.heartbeats_sent.into()),
                ("reject_write_failures", metrics.reject_write_failures.into()),
                ("idle_closed", metrics.idle_closed.into()),
            ]),
        ),
    ]);
    std::fs::write(&out, format!("{json}\n")).expect("write benchmark record");
    eprintln!("wrote {out}");

    println!("## Session-fabric load ({fleet_opened} sessions, {rows} rows)\n");
    println!("| metric | value |");
    println!("|---|---|");
    println!("| cold TTFS p50 | {cold_p50:.2} ms |");
    println!("| keep-alive warm TTFS p50 | {warm_p50:.2} ms |");
    println!("| sessions opened / dropped | {fleet_opened} / {fleet_dropped} |");
    println!("| attach p50 / p99 | {:.2} / {attach_p99:.2} ms |", percentile(&attach_ms, 50.0));
    println!("| resident bytes per idle session | {rss_per_session} |");
    println!("| utterance RPS | {rps:.0} |");
    println!("| utterance TTFS p50 / p99 | {:.1} / {ttfs_p99:.1} ms |", percentile(&ttfs, 50.0));
    println!("| bytes per session | {bytes_per_session} |");

    if smoke {
        let mut failures = Vec::new();
        if fleet_opened < 1_000 {
            failures.push(format!("smoke needs >=1000 concurrent sessions, got {fleet_opened}"));
        }
        if fleet_dropped > 0 {
            failures.push(format!("{fleet_dropped} sessions dropped"));
        }
        if ttfs.is_empty() || ttfs_p99 <= 0.0 {
            failures.push("no utterance TTFS recorded".to_string());
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("SMOKE FAILURE: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("smoke ok");
    }
}
