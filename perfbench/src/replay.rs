//! The traced in-process replay: the HTTP phase's inputs sent, in the
//! order they started, through the library calls the server makes —
//! `DurableTable` appends, `parse_question` / `Session::input`, the
//! semantic cache, and `Holistic` configured as the server's
//! `make_vocalizer` configures it — with a span around each call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use voxolap_core::tree::SpeechTree;
use voxolap_core::{
    CancelToken, Holistic, HolisticConfig, InstantVoice, VirtualVoice, Vocalizer, VoiceOutput,
};
use voxolap_data::{DurabilityOptions, DurableTable, Table};
use voxolap_engine::evaluate;
use voxolap_engine::query::Query;
use voxolap_engine::semantic::{ExactLookup, SemanticCache};
use voxolap_speech::{CandidateGenerator, Renderer};
use voxolap_voice::question::parse_question;
use voxolap_voice::session::Session;

use crate::drive::{Op, Record};
use crate::server::TempDir;
use crate::workload::{Workload, CACHE_MB};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation index the span belongs to (spans of one request share it).
    pub req: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// In-memory span recorder; when off it records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new() }
    }

    fn begin(&mut self, name: &'static str, req: usize, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.t0.elapsed();
        self.spans.push(Span { name, req, parent, start: now, end: now });
        Some(self.spans.len() - 1)
    }

    fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.t0.elapsed();
        }
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children of one span never overlap in this single-threaded
    /// replay).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.ms();
            }
        }
        own
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.req,
                parent,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// Per-answer measurements of one replayed query.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Index of the replayed record (the spans' request id).
    pub req: usize,
    pub key: String,
    pub ttfs_ms: f64,
    pub parse_ms: f64,
    pub lookup_ms: f64,
    /// Stream construction: the Ingest stage, or the replan on an exact
    /// cache hit.
    pub open_ms: f64,
    pub exact_hit: bool,
    pub sentence_ms: Vec<f64>,
    pub sentence_samples: Vec<u64>,
    pub finish_ms: f64,
    /// Query text, for the shadow tree build.
    pub query: Query,
}

/// What one replay pass produced.
pub struct Replay {
    pub answers: Vec<Replayed>,
    pub append_ms: Vec<f64>,
    /// `(bytes, rows)` the write-ahead log grew by over the appends.
    pub wal: (u64, u64),
    /// Measured operations replayed (the pass stops at its time budget).
    pub ops: usize,
    /// Wall time of the measured operations.
    pub measured_ms: f64,
    pub tracer: Tracer,
    /// The table the replay ended on, for the shadow tree builds.
    pub table: Arc<Table>,
}

/// The planner configuration of the server's `make_vocalizer("holistic")`.
pub fn server_holistic(cache: Option<&Arc<SemanticCache>>) -> Holistic {
    let config = HolisticConfig {
        min_samples_per_sentence: 8_000,
        resample_size: 200,
        ..HolisticConfig::default()
    };
    let mut holistic = Holistic::new(config);
    if let Some(cache) = cache {
        holistic = holistic.with_cache(cache.clone());
    }
    holistic
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replay `records` against a fresh copy of `base`. Warm-up records run
/// first, as they filled the server's cache; measured records then run
/// until `budget` is spent or `limit` of them ran.
pub fn run(
    workload: Workload,
    base: &Table,
    records: &[Record],
    scratch: &Path,
    budget: Duration,
    limit: Option<usize>,
    trace: bool,
) -> Result<Replay, String> {
    let _dir;
    let live = if workload.durable() {
        let dir = TempDir::new(scratch, "replay")?;
        // The default options are the server's: batch fsync, snapshot
        // every 32 batches.
        let (live, _) = DurableTable::open(base.clone(), dir.path(), DurabilityOptions::default())
            .map_err(|e| format!("open replay data dir: {e}"))?;
        _dir = Some(dir);
        live
    } else {
        _dir = None;
        DurableTable::memory(base.clone())
    };
    let cache = Arc::new(SemanticCache::with_capacity_mb(CACHE_MB));
    let holistic = server_holistic(Some(&cache));
    let seed = HolisticConfig::default().seed;

    let mut tracer = Tracer::new(trace);
    let mut answers = Vec::new();
    let mut append_ms = Vec::new();
    let mut wal = (0u64, 0u64);
    let mut ops = 0;
    let mut measured_start = None;
    for (req, record) in records.iter().enumerate() {
        if record.measured {
            let start = *measured_start.get_or_insert_with(Instant::now);
            if start.elapsed() > budget || limit.is_some_and(|n| ops >= n) {
                break;
            }
            ops += 1;
        }
        let root = tracer.begin("request", req, None);
        let t_req = Instant::now();
        match &record.op {
            Op::Ingest { rows } => {
                if record.ack.is_none() {
                    tracer.end(root);
                    continue;
                }
                let wal_before = live.stats().map_or(0, |s| s.wal_bytes);
                let span = tracer.begin("data.append", req, root);
                let t = Instant::now();
                live.append_rows(rows).map_err(|e| format!("replay append: {e}"))?;
                append_ms.push(ms_since(t));
                tracer.end(span);
                // `wal_bytes` is the log's current size; a compaction
                // resets it, so only appends that grew it are counted.
                let wal_after = live.stats().map_or(0, |s| s.wal_bytes);
                if wal_after > wal_before {
                    wal.0 += wal_after - wal_before;
                    wal.1 += rows.len() as u64;
                }
            }
            Op::Ask { .. } | Op::Utter { .. } => {
                let table = live.snapshot();
                let span = tracer.begin("voice.parse", req, root);
                let t = Instant::now();
                let query = match &record.op {
                    Op::Ask { question } => {
                        parse_question(table.schema(), question).map_err(|e| e.to_string())?
                    }
                    Op::Utter { log, command, .. } => {
                        let mut session = Session::new(&table);
                        for cmd in log {
                            let _ = session.input(cmd);
                        }
                        session.input(command).map_err(|e| e.to_string())?;
                        session.query().map_err(|e| e.to_string())?
                    }
                    Op::Ingest { .. } => unreachable!("handled above"),
                };
                let parse_ms = ms_since(t);
                tracer.end(span);

                let span = tracer.begin("engine.cache.lookup", req, root);
                let t = Instant::now();
                let exact = cache.lookup_exact(&query.key(), table.version());
                let _ = cache.lookup_snapshot(&query.key().scope(), seed);
                let lookup_ms = ms_since(t);
                tracer.end(span);
                let exact_hit = matches!(exact, ExactLookup::Fresh(_));

                let mut virtual_voice = VirtualVoice::default();
                let mut instant_voice = InstantVoice::default();
                let voice: &mut dyn VoiceOutput = match record.op {
                    Op::Ask { .. } => &mut virtual_voice,
                    _ => &mut instant_voice,
                };
                let span = tracer.begin("core.stream_open", req, root);
                let t = Instant::now();
                let mut stream = holistic.stream(&table, &query, voice, CancelToken::new());
                let open_ms = ms_since(t);
                tracer.end(span);
                let mut ttfs_ms = None;
                let mut sentence_ms = Vec::new();
                let mut sentence_samples = Vec::new();
                loop {
                    let span = tracer.begin("core.sentence", req, root);
                    let t = Instant::now();
                    let next = stream.next_sentence();
                    tracer.end(span);
                    let Some(sentence) = next else { break };
                    sentence_ms.push(ms_since(t));
                    sentence_samples.push(sentence.stats.samples);
                    ttfs_ms.get_or_insert_with(|| ms_since(t_req));
                }
                let span = tracer.begin("core.finish", req, root);
                let t = Instant::now();
                let _ = stream.finish();
                let finish_ms = ms_since(t);
                tracer.end(span);
                if record.measured {
                    answers.push(Replayed {
                        req,
                        key: record.key().expect("asks and utterances have keys"),
                        ttfs_ms: ttfs_ms.unwrap_or(0.0),
                        parse_ms,
                        lookup_ms,
                        open_ms,
                        exact_hit,
                        sentence_ms,
                        sentence_samples,
                        finish_ms,
                        query,
                    });
                }
            }
        }
        tracer.end(root);
    }
    let measured_ms = measured_start.map_or(0.0, ms_since);
    Ok(Replay { answers, append_ms, wal, ops, measured_ms, tracer, table: live.snapshot() })
}

/// `SpeechTree::build` alone, as `Holistic` configures it, for one query:
/// `(build_ms, nodes, truncated)`.
pub fn shadow_tree(table: &Table, query: &Query) -> (f64, usize, bool) {
    let cfg = server_holistic(None).config().clone();
    let schema = table.schema();
    let overall = evaluate(query, table).grand_mean();
    let generator = CandidateGenerator::new(schema, query, cfg.candidates.clone());
    let renderer = Renderer::new(schema, query);
    let t = Instant::now();
    let tree =
        SpeechTree::build(&generator, &renderer, &cfg.constraints, overall, cfg.max_tree_nodes);
    (ms_since(t), tree.tree().node_count(), tree.truncated())
}

/// Shadow builds for every distinct query among `answers` that planned
/// from samples (exact hits build no sampling tree), keyed by answer key.
pub fn shadow_trees(table: &Table, answers: &[Replayed]) -> BTreeMap<String, (f64, usize, bool)> {
    let mut out = BTreeMap::new();
    for a in answers.iter().filter(|a| !a.exact_hit) {
        if !out.contains_key(&a.key) {
            out.insert(a.key.clone(), shadow_tree(table, &a.query));
        }
    }
    out
}
