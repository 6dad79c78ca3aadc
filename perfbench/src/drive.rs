//! The HTTP phase: drive a running server with a workload's generated
//! traffic, timing every answer on the client and recording each
//! operation so the checks and the in-process replay see the same inputs.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use voxolap_data::{IngestRow, Table};
use voxolap_json::Value;

use crate::check::{Cause, Failures};
use crate::client::{Conn, SessionConn};
use crate::workload::{self, Rng, Walk, Workload, SESSION_STATES, TURNS_PER_SESSION};

/// Pause between an ingest acknowledgement and the next batch. Without
/// it appends and queries feed each other: a slow answer lets more rows
/// land, which makes the next snapshot repair and answer slower still,
/// and run-to-run spread grows past any useful bound.
const INGEST_THINK: Duration = Duration::from_millis(25);

/// Most warm-up turns the session walk may take to visit every kept state.
const MAX_WARMUP_TURNS: usize = 60;

/// What an operation sent.
#[derive(Debug, Clone)]
pub enum Op {
    /// `POST /query/stream` with one question of the mix.
    Ask { question: &'static str },
    /// One `utter` event on an attached session; `log` holds the commands
    /// the session applied before it.
    Utter { log: Vec<String>, command: &'static str, state: String },
    /// `POST /ingest` with one batch.
    Ingest { rows: Vec<IngestRow> },
}

/// A spoken answer as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    pub ttfs_ms: Option<f64>,
    pub gaps_ms: Vec<f64>,
    pub answer_ms: f64,
    pub sentences: Vec<String>,
    pub sentence_samples: Vec<u64>,
    pub sentence_elapsed_ms: Vec<f64>,
    pub rows_read: u64,
    pub planning_ms: f64,
    pub degraded: bool,
}

/// One executed operation.
#[derive(Debug, Clone)]
pub struct Record {
    pub op: Op,
    /// Part of the measured phase (warm-up records are checked, never
    /// timed).
    pub measured: bool,
    pub started: Instant,
    /// The answer, for asks and utterances that completed.
    pub answer: Option<Answer>,
    /// Table version acknowledged before the operation was sent: the
    /// oldest revision a query may have been planned on.
    pub version_lo: u64,
    /// One past the version acknowledged when the answer ended: the
    /// newest revision it may have been planned on (a batch is swapped in
    /// before its acknowledgement reaches this client).
    pub version_hi: u64,
    /// For ingest: the acknowledged version and the acknowledgement time.
    pub ack: Option<(u64, f64)>,
}

impl Record {
    /// Pairing key between the HTTP run and the replay.
    pub fn key(&self) -> Option<String> {
        match &self.op {
            Op::Ask { question } => Some(question.to_string()),
            Op::Utter { state, .. } => Some(state.clone()),
            Op::Ingest { .. } => None,
        }
    }
}

/// Everything the HTTP phase produced.
pub struct Phase {
    pub records: Vec<Record>,
    pub failures: Failures,
    /// Wall time of the measured phase.
    pub measured_s: f64,
    pub stats_before: Value,
    pub stats_after: Value,
}

/// Shared recorder for the client threads.
struct Shared {
    records: Mutex<Vec<Record>>,
    failures: Mutex<Failures>,
    /// Latest acknowledged table version.
    version: Mutex<u64>,
}

impl Shared {
    fn push(&self, record: Record) {
        self.records.lock().expect("recorder lock").push(record);
    }

    fn attempt(&self) {
        self.failures.lock().expect("failure lock").attempt();
    }

    fn fail(&self, cause: Cause, detail: impl Into<String>) {
        self.failures.lock().expect("failure lock").fail(cause, detail);
    }

    fn version(&self) -> u64 {
        *self.version.lock().expect("version lock")
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Fold one speech event into `answer`; returns `true` on `done`.
fn fold_event(
    shared: &Shared,
    answer: &mut Answer,
    sent: Instant,
    last: &mut Option<Instant>,
    event: &Value,
    at: Instant,
) -> bool {
    match event["type"].as_str() {
        Some("sentence") => {
            match *last {
                None => answer.ttfs_ms = Some(ms(at - sent)),
                Some(prev) => answer.gaps_ms.push(ms(at - prev)),
            }
            *last = Some(at);
            answer.sentences.push(event["text"].as_str().unwrap_or("").to_string());
            answer.sentence_samples.push(event["samples"].as_u64().unwrap_or(0));
            if let Some(e) = event["elapsed_ms"].as_f64() {
                answer.sentence_elapsed_ms.push(e);
            }
            false
        }
        Some("done") => {
            answer.answer_ms = ms(at - sent);
            answer.rows_read = event["rows_read"].as_u64().unwrap_or(0);
            answer.planning_ms = event["planning_ms"].as_f64().unwrap_or(0.0);
            answer.degraded = event["degraded"].as_bool().unwrap_or(false);
            if event["stale"].as_bool().unwrap_or(false) && !answer.degraded {
                shared.fail(Cause::StaleNotDegraded, event.to_string());
            }
            true
        }
        Some("error") => {
            shared.fail(Cause::ErrorEvent, event.to_string());
            false
        }
        _ => false,
    }
}

/// Ask one question over `POST /query/stream`.
fn ask(shared: &Shared, conn: &mut Conn, question: &'static str, measured: bool) {
    shared.attempt();
    let version_lo = shared.version();
    let body = Value::obj([("question", question.into())]).to_string();
    let sent = Instant::now();
    let mut answer = Answer::default();
    let mut last = None;
    let mut done = false;
    let mut errored = false;
    let result = conn.post_stream("/query/stream", body.as_bytes(), |event, at| {
        errored |= event["type"].as_str() == Some("error");
        done |= fold_event(shared, &mut answer, sent, &mut last, &event, at);
    });
    let version_hi = shared.version() + 1;
    let answer = match result {
        Ok(Ok(())) if done && !errored => Some(answer),
        Ok(Ok(())) if errored => None,
        Ok(Ok(())) => {
            shared.fail(Cause::MissingDone, question);
            None
        }
        Ok(Err(status)) => {
            shared.fail(Cause::Status, format!("{status} for {question:?}"));
            None
        }
        Err(e) => {
            shared.fail(Cause::Io, format!("{question:?}: {e}"));
            None
        }
    };
    shared.push(Record {
        op: Op::Ask { question },
        measured,
        started: sent,
        answer,
        version_lo,
        version_hi,
        ack: None,
    });
}

/// One attached session that recycles itself every `TURNS_PER_SESSION`
/// utterances.
struct SessionClient {
    addr: SocketAddr,
    prefix: String,
    sessions: usize,
    conn: Option<SessionConn>,
    walk: Walk,
    turns: usize,
}

impl SessionClient {
    fn new(addr: SocketAddr, prefix: String, rng: Rng) -> SessionClient {
        SessionClient { addr, prefix, sessions: 0, conn: None, walk: Walk::new(rng), turns: 0 }
    }

    /// Attach a fresh session if none is open; `false` when attaching
    /// failed.
    fn attach(&mut self, shared: &Shared) -> bool {
        if self.conn.is_none() {
            self.sessions += 1;
            let id = format!("{}-{}", self.prefix, self.sessions);
            shared.attempt();
            match SessionConn::attach(self.addr, &id) {
                Ok(c) => self.conn = Some(c),
                Err(e) => {
                    shared.fail(Cause::Io, format!("attach {id}: {e}"));
                    return false;
                }
            }
        }
        true
    }

    /// Drop a broken session; the next turn attaches a fresh one.
    fn abandon(&mut self) {
        self.conn = None;
        self.walk.reset();
        self.turns = 0;
    }

    /// `quit` the current session and expect the server's `bye`.
    fn recycle(&mut self, shared: &Shared) {
        self.walk.reset();
        self.turns = 0;
        let Some(mut conn) = self.conn.take() else { return };
        shared.attempt();
        let quit = Value::obj([("type", "utter".into()), ("text", "quit".into())]);
        match conn.send(&quit).and_then(|()| conn.next_event()) {
            Ok(e) if e["type"].as_str() == Some("bye") => {}
            Ok(e) => shared.fail(Cause::ErrorEvent, format!("quit answered {e}")),
            Err(e) => shared.fail(Cause::Io, format!("quit: {e}")),
        }
    }

    /// One utterance of the walk; `prefer` steers the warm-up.
    fn turn(
        &mut self,
        shared: &Shared,
        table: &Table,
        measured: bool,
        prefer: &[&str],
    ) -> Option<String> {
        if self.turns == TURNS_PER_SESSION {
            self.recycle(shared);
        }
        if !self.attach(shared) {
            return None;
        }
        // The log before this command, as the server will replay it.
        let log = self.walk.log().to_vec();
        let (command, state) = self.walk.next(table, prefer, self.sessions);
        self.turns += 1;
        let conn = self.conn.as_mut().expect("attached above");
        shared.attempt();
        let utter = Value::obj([("type", "utter".into()), ("text", command.into())]);
        let sent = Instant::now();
        let mut answer = Answer::default();
        let mut last = None;
        let outcome = conn.send(&utter).and_then(|()| loop {
            let event = conn.next_event()?;
            let at = Instant::now();
            match event["type"].as_str() {
                Some("error") => break Ok(Err(event.to_string())),
                Some("bye") => break Ok(Err(format!("session closed: {event}"))),
                _ => {
                    if fold_event(shared, &mut answer, sent, &mut last, &event, at) {
                        break Ok(Ok(()));
                    }
                }
            }
        });
        let answer = match outcome {
            Ok(Ok(())) => Some(answer),
            Ok(Err(detail)) => {
                shared.fail(Cause::ErrorEvent, detail);
                self.abandon();
                None
            }
            Err(e) => {
                shared.fail(Cause::Io, format!("{command:?}: {e}"));
                self.abandon();
                None
            }
        };
        let op = Op::Utter { log, command, state: state.clone() };
        shared.push(Record {
            op,
            measured,
            started: sent,
            answer,
            version_lo: 0,
            version_hi: 0,
            ack: None,
        });
        Some(state)
    }
}

/// Post ingest batches in a closed loop with `INGEST_THINK` between an
/// acknowledgement and the next batch, until `stop` is set.
fn ingest_loop(shared: &Shared, addr: SocketAddr, table: &Table, mut rng: Rng, stop: &AtomicBool) {
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            shared.attempt();
            shared.fail(Cause::Io, format!("ingest connect: {e}"));
            return;
        }
    };
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(INGEST_THINK);
        let (body, rows) = workload::ingest_batch(table, &mut rng);
        shared.attempt();
        let version_lo = shared.version();
        let sent = Instant::now();
        let ack = match conn.exchange("POST", "/ingest", body.as_bytes()) {
            Ok((200, reply)) => {
                let ack_ms = ms(sent.elapsed());
                let reply = Value::parse_slice(&reply).unwrap_or(Value::Null);
                let version = reply["version"].as_u64().unwrap_or(0);
                if version != version_lo + 1
                    || reply["appended"].as_u64() != Some(rows.len() as u64)
                {
                    shared.fail(
                        Cause::IngestVersion,
                        format!("ack {reply} after version {version_lo}"),
                    );
                }
                *shared.version.lock().expect("version lock") = version;
                Some((version, ack_ms))
            }
            Ok((status, reply)) => {
                shared.fail(
                    Cause::Status,
                    format!("ingest {status}: {}", String::from_utf8_lossy(&reply)),
                );
                None
            }
            Err(e) => {
                shared.fail(Cause::Io, format!("ingest: {e}"));
                None
            }
        };
        shared.push(Record {
            op: Op::Ingest { rows },
            measured: true,
            started: sent,
            answer: None,
            version_lo,
            version_hi: version_lo,
            ack,
        });
    }
}

/// Run whole passes through the mix in seeded order until `seconds` have
/// elapsed, finishing the pass in progress, so every run asks each
/// question equally often.
fn ask_passes(
    shared: &Shared,
    conn: &mut Conn,
    mix: &[(&'static str, usize)],
    rng: &mut Rng,
    seconds: f64,
) {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for question in workload::pass(mix, rng) {
            ask(shared, conn, question, true);
        }
    }
}

/// Drive `workload` against the server at `addr` for about `seconds` of
/// measured traffic, after its warm-up.
pub fn run(
    workload: Workload,
    addr: SocketAddr,
    table: &Table,
    seed: u64,
    seconds: f64,
) -> Result<Phase, String> {
    let shared = Shared {
        records: Mutex::new(Vec::new()),
        failures: Mutex::new(Failures::default()),
        version: Mutex::new(0),
    };
    // A fresh connection per `/stats` read: a parked keep-alive
    // connection would be reaped by the server's idle sweep mid-run.
    let stats = || Conn::connect(addr).map_err(|e| format!("connect: {e}"))?.stats();
    *shared.version.lock().expect("version lock") = stats()?["version"].as_u64().unwrap_or(0);
    // Warm-up: the first pass through the mix (and with it the first
    // cache fill) is checked but never timed.
    let (stats_before, start) = if workload == Workload::SessionRepeat {
        let mut session = SessionClient::new(addr, format!("warm{seed}"), Rng::new(seed, 2));
        let mut unvisited: Vec<&str> = SESSION_STATES.iter().map(|&(s, _)| s).collect();
        for _ in 0..MAX_WARMUP_TURNS {
            if unvisited.is_empty() {
                break;
            }
            if let Some(state) = session.turn(&shared, table, false, &unvisited) {
                unvisited.retain(|s| *s != state);
            }
        }
        session.recycle(&shared);
        let (stats_before, start) = (stats()?, Instant::now());
        std::thread::scope(|s| {
            for client in 0..2u64 {
                let shared = &shared;
                s.spawn(move || {
                    let prefix = format!("s{seed}c{client}");
                    let mut session = SessionClient::new(addr, prefix, Rng::new(seed, 10 + client));
                    while start.elapsed().as_secs_f64() < seconds {
                        session.turn(shared, table, true, &[]);
                    }
                    session.recycle(shared);
                });
            }
        });
        (stats_before, start)
    } else {
        let questions = workload.questions();
        let mut rng = Rng::new(seed, 1);
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for i in rng.permutation(questions.len()) {
            ask(&shared, &mut conn, questions[i].0, false);
        }
        let (stats_before, start) = (stats()?, Instant::now());
        if workload == Workload::IngestMixed {
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                let shared = &shared;
                let stop = &stop;
                let ingest_rng = Rng::new(seed, 3);
                s.spawn(move || ingest_loop(shared, addr, table, ingest_rng, stop));
                ask_passes(shared, &mut conn, questions, &mut rng, seconds);
                stop.store(true, Ordering::Relaxed);
            });
        } else {
            ask_passes(&shared, &mut conn, questions, &mut rng, seconds);
        }
        (stats_before, start)
    };
    let measured_s = start.elapsed().as_secs_f64();
    let stats_after = stats()?;

    let mut records = shared.records.into_inner().expect("recorder lock");
    records.sort_by_key(|r| r.started);
    let mut failures = shared.failures.into_inner().expect("failure lock");
    // Every acknowledged row must be visible in the final row count.
    failures.attempt();
    let acked: u64 = records
        .iter()
        .filter(|r| r.ack.is_some())
        .map(|r| match &r.op {
            Op::Ingest { rows } => rows.len() as u64,
            _ => 0,
        })
        .sum();
    let rows_before = stats_before["rows"].as_u64().unwrap_or(0);
    let rows_after = stats_after["rows"].as_u64().unwrap_or(0);
    if rows_after != rows_before + acked {
        failures.fail(
            Cause::RowCount,
            format!("{rows_after} rows after, {rows_before} before + {acked} acknowledged"),
        );
    }
    Ok(Phase { records, failures, measured_s, stats_before, stats_after })
}
