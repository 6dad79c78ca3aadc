//! `voxolap-perfbench`: the repository benchmark.
//!
//! For one workload it spawns the release `voxolap-server` as a child
//! process, drives it over HTTP from this client (at most two threads and
//! connections), checks every answer, and prints the end-to-end metrics.
//! With `--trace 1` it also replays the same generated inputs in-process
//! through the library calls the server makes, with spans around each
//! call, and prints the per-layer metrics instead.
//!
//! ```text
//! voxolap-perfbench --server PATH --workload session-repeat|ingest-mixed
//!                   --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! ```
//!
//! `perfbench/run.sh` builds the server and this client and runs it. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the
//! report. Any failed check makes the exit code non-zero.

mod check;
mod client;
mod drive;
mod replay;
mod server;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use voxolap_data::{IngestRow, Table};
use voxolap_json::Value;
use voxolap_voice::question::parse_question;
use voxolap_voice::session::Session;

use check::{Cause, ExactCache};
use drive::{Op, Phase, Record};
use replay::Replay;
use server::{Server, TempDir};
use stats::{mean, p50, percentile};
use workload::Workload;

/// Server spawns per run; `setup_s` is their median, and the last one
/// serves the measured traffic.
const SETUP_SPAWNS: usize = 15;

/// The paper's time-to-first-sentence target, printed beside TTFS.
const TTFS_TARGET_MS: f64 = 500.0;

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        server: get("--server")?.into(),
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|_| "--seed takes a whole number")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        out_dir: get("--out-dir").unwrap_or_else(|_| ".bench_build/perfbench".to_string()).into(),
    })
}

/// A named metric with its unit, printed in the report and, when it is
/// one of the mode's metrics, in the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric { name, value, unit, note: note.into() }
}

/// The end-to-end metrics `BENCHMARK.json` lists; the rest of the
/// end-to-end report is printed but not gated.
const END_TO_END: [&str; 8] = [
    "ttfs_p50_ms",
    "ttfs_p80_ms",
    "gap_p50_ms",
    "answer_p50_ms",
    "answers_per_s",
    "speech_quality",
    "setup_s",
    "peak_rss_mb",
];

fn host_ram_gb() -> f64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            let line = m.lines().find(|l| l.starts_with("MemTotal:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / (1024.0 * 1024.0))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let wl = args.workload;
    let table = workload::flights(workload::ROWS);
    let flags = wl.server_flags();

    // Set-up: spawn several times and keep the median; the last server
    // stays up for the traffic.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_SPAWNS {
        drop(server.take());
        let dir = if wl.durable() { Some(TempDir::new(&args.out_dir, "server")?) } else { None };
        let s = Server::start(&args.server, &flags, dir)?;
        setups.push(s.setup_s);
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    let mut phase = drive::run(wl, server.addr, &table, args.seed, args.seconds)?;
    let peak_rss_mb = server.peak_rss_mb().ok_or("cannot read the server's VmHWM")?;
    drop(server);

    let qualities = score(&table, &mut phase);
    let e2e = end_to_end(&phase, &setups, peak_rss_mb, &qualities);
    let per_layer = if args.trace { Some(per_layer(args, &table, &phase, &e2e)?) } else { None };

    report_header(args, &phase, &flags);
    let failures = &phase.failures;
    println!("end-to-end (client-timed, tracing off):");
    for m in &e2e {
        println!("  {:<22} {:>14.4} {:<7} {}", m.name, m.value, m.unit, m.note);
    }
    println!("ttfs_p50_ms by question or state:");
    for (k, v) in &ttfs_by_key(&phase) {
        println!("  {:>10.1} ms  n={:<4} {k}", p50(v), v.len());
    }
    let causes: Vec<String> =
        failures.by_cause.iter().map(|(c, n)| format!("{}={n}", c.name())).collect();
    println!(
        "failures: {} of {} operations; by cause: {}",
        failures.failed(),
        failures.attempted,
        if causes.is_empty() { "none".to_string() } else { causes.join(", ") }
    );
    for e in &failures.examples {
        println!("  e.g. {e}");
    }
    if let Some((layers, notes)) = &per_layer {
        println!("per-layer (traced replay, /stats deltas, NDJSON sentence records):");
        for m in layers {
            println!("  {:<34} {:>14.4} {:<7} {}", m.name, m.value, m.unit, m.note);
        }
        for n in notes {
            println!("{n}");
        }
    }

    let chosen: Vec<&Metric> = match &per_layer {
        Some((layers, _)) => layers.iter().collect(),
        None => e2e.iter().filter(|m| END_TO_END.contains(&m.name)).collect(),
    };
    let correct = failures.failed() == 0;
    let metrics: Vec<String> = chosen
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.attempted,
        failures.failed(),
        metrics.join(", ")
    );
    Ok(correct)
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn report_header(args: &Args, phase: &Phase, flags: &[String]) {
    let wl = args.workload;
    let answered = measured_answers(phase).count();
    let warmup = phase.records.iter().filter(|r| !r.measured && r.answer.is_some()).count();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: cores={} ram_gb={:.1}; dataset rows={} bytes={}; server flags: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        host_ram_gb(),
        phase.stats_before["rows"].as_u64().unwrap_or(0),
        phase.stats_before["bytes"].as_u64().unwrap_or(0),
        flags.join(" ")
    );
    println!(
        "measured: {answered} answers in {:.2} s after {warmup} warm-up answers",
        phase.measured_s
    );
}

fn measured_answers(phase: &Phase) -> impl Iterator<Item = (&Record, &drive::Answer)> {
    phase.records.iter().filter(|r| r.measured).filter_map(|r| r.answer.as_ref().map(|a| (r, a)))
}

/// Measured HTTP TTFS samples grouped by question or session state.
fn ttfs_by_key(phase: &Phase) -> BTreeMap<String, Vec<f64>> {
    let mut by_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (r, a) in measured_answers(phase) {
        if let (Some(k), Some(t)) = (r.key(), a.ttfs_ms) {
            by_key.entry(k).or_default().push(t);
        }
    }
    by_key
}

/// The query an answered record asked, built against `table`.
fn query_of(record: &Record, table: &Table) -> Option<voxolap_engine::query::Query> {
    match &record.op {
        Op::Ask { question } => parse_question(table.schema(), question).ok(),
        Op::Utter { log, command, .. } => {
            let mut session = Session::new(table);
            for cmd in log {
                session.input(cmd).ok()?;
            }
            session.input(command).ok()?;
            session.query().ok()
        }
        Op::Ingest { .. } => None,
    }
}

/// Parse every answer back into a speech (a failure when it does not
/// parse) and score it against the exact result on the revision it was
/// planned on. The server does not report that revision, so each answer
/// is scored on every revision published between its request and its
/// `done`, and keeps the best score. Returns the measured answers'
/// qualities, an unparseable answer scoring 0, so the scored set is every
/// measured answer.
fn score(base: &Table, phase: &mut Phase) -> Vec<f64> {
    let v0 = phase.stats_before["version"].as_u64().unwrap_or(0);
    let mut batches: Vec<(u64, &Vec<IngestRow>)> = phase
        .records
        .iter()
        .filter_map(|r| match (&r.op, r.ack) {
            (Op::Ingest { rows }, Some((version, _))) => Some((version, rows)),
            _ => None,
        })
        .collect();
    batches.sort_by_key(|&(v, _)| v);
    let published: Vec<u64> = std::iter::once(v0).chain(batches.iter().map(|&(v, _)| v)).collect();
    let mut by_version: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, r) in phase.records.iter().enumerate().filter(|(_, r)| r.answer.is_some()) {
        // Warm-up ran before any ingest, on the initial revision.
        let lo = r.version_lo.max(v0);
        for &v in published.iter().filter(|&&v| v >= lo && v <= r.version_hi.max(lo)) {
            by_version.entry(v).or_default().push(i);
        }
    }
    let mut best: Vec<Option<Result<f64, String>>> = vec![None; phase.records.len()];
    let mut owned: Option<Table> = None;
    let mut at = v0;
    for (version, indices) in by_version {
        if version > at {
            let rows: Vec<IngestRow> = batches
                .iter()
                .filter(|&&(v, _)| v > at && v <= version)
                .flat_map(|(_, rows)| rows.iter().cloned())
                .collect();
            let current = owned.as_ref().unwrap_or(base);
            owned = Some(current.append_rows(&rows).expect("acknowledged rows append").0);
            at = version;
        }
        let table = owned.as_ref().unwrap_or(base);
        let mut exact = ExactCache::new(table);
        for i in indices {
            let r = &phase.records[i];
            let body = r.answer.as_ref().expect("filtered on answers").sentences.join(" ");
            let query = query_of(r, table).expect("the server answered this query");
            let q = check::quality(table, &query, exact.get(&query), &body)
                .map_err(|e| format!("{body:?}: {e}"));
            best[i] = Some(match (best[i].take(), q) {
                (Some(Ok(a)), Ok(b)) => Ok(a.max(b)),
                (_, q) => q,
            });
        }
    }
    let mut qualities = Vec::new();
    for (r, outcome) in phase.records.iter().zip(best) {
        match outcome {
            Some(Ok(q)) if r.measured => qualities.push(q),
            Some(Err(detail)) => {
                if r.measured {
                    qualities.push(0.0);
                }
                phase.failures.fail(Cause::Unparseable, detail);
            }
            _ => {}
        }
    }
    qualities
}

fn end_to_end(phase: &Phase, setups: &[f64], peak_rss_mb: f64, qualities: &[f64]) -> Vec<Metric> {
    let answers: Vec<&drive::Answer> = measured_answers(phase).map(|(_, a)| a).collect();
    let ttfs: Vec<f64> = answers.iter().filter_map(|a| a.ttfs_ms).collect();
    let gaps: Vec<f64> = answers.iter().flat_map(|a| a.gaps_ms.iter().copied()).collect();
    let totals: Vec<f64> = answers.iter().map(|a| a.answer_ms).collect();
    let n = ttfs.len();
    let tail = match stats::highest_supported(n) {
        Some(p) => format!("p{p} = {:.1} ms", percentile(&ttfs, f64::from(p)).unwrap_or(0.0)),
        None => "none".to_string(),
    };
    let degraded = answers.iter().filter(|a| a.degraded).count();
    let (ack_p50, rows_per_s, batches) = ingest_summary(phase);
    let failures = &phase.failures;
    vec![
        metric("ttfs_p50_ms", p50(&ttfs), "ms", format!("n={n}; paper target {TTFS_TARGET_MS} ms")),
        metric(
            "ttfs_p80_ms",
            percentile(&ttfs, 80.0).unwrap_or(0.0),
            "ms",
            format!(
                "n={n}, {} beyond p80; p90 = {:.1} ms with {} beyond; \
                 highest percentile with >=10 beyond: {tail}",
                stats::beyond(n, 80.0),
                percentile(&ttfs, 90.0).unwrap_or(0.0),
                stats::beyond(n, 90.0)
            ),
        ),
        metric("gap_p50_ms", p50(&gaps), "ms", format!("n={}", gaps.len())),
        metric("answer_p50_ms", p50(&totals), "ms", format!("n={}", totals.len())),
        metric(
            "answers_per_s",
            answers.len() as f64 / phase.measured_s,
            "1/s",
            format!("{} answers / {:.2} s, closed loop", answers.len(), phase.measured_s),
        ),
        metric(
            "speech_quality",
            mean(qualities),
            "score",
            format!("mean of n={}", qualities.len()),
        ),
        metric(
            "error_rate",
            failures.rate(),
            "ratio",
            format!("{}/{}", failures.failed(), failures.attempted),
        ),
        metric(
            "degraded_rate",
            if answers.is_empty() { 0.0 } else { degraded as f64 / answers.len() as f64 },
            "ratio",
            format!("{degraded}/{}", answers.len()),
        ),
        metric("ingest_ack_p50_ms", ack_p50, "ms", format!("n={batches} batches")),
        metric("ingest_rows_per_s", rows_per_s, "1/s", "acknowledged rows per measured second"),
        metric(
            "setup_s",
            p50(setups),
            "s",
            format!(
                "median of {} spawns: {:?}",
                setups.len(),
                setups.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
            ),
        ),
        metric("peak_rss_mb", peak_rss_mb, "MiB", "server VmHWM at the end of the run"),
    ]
}

/// `(ack p50 ms, acknowledged rows per second, acknowledged batches)`.
fn ingest_summary(phase: &Phase) -> (f64, f64, usize) {
    let acks: Vec<(f64, usize)> = phase
        .records
        .iter()
        .filter_map(|r| match (&r.op, r.ack) {
            (Op::Ingest { rows }, Some((_, ms))) => Some((ms, rows.len())),
            _ => None,
        })
        .collect();
    let ack_ms: Vec<f64> = acks.iter().map(|&(ms, _)| ms).collect();
    let rows: usize = acks.iter().map(|&(_, n)| n).sum();
    (p50(&ack_ms), rows as f64 / phase.measured_s, acks.len())
}

/// `after - before` of a numeric `/stats` field, 0 where it is absent.
fn delta(phase: &Phase, section: &str, field: &str) -> f64 {
    let get = |v: &Value| v[section][field].as_f64().unwrap_or(0.0);
    get(&phase.stats_after) - get(&phase.stats_before)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run the in-process replay three times over the same inputs — spans
/// off, on, then off again — and compute every per-layer metric.
fn per_layer(
    args: &Args,
    table: &Table,
    phase: &Phase,
    e2e: &[Metric],
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let wl = args.workload;
    let budget = Duration::from_secs_f64(args.seconds / 3.0);
    let off = replay::run(wl, table, &phase.records, &args.out_dir, budget, None, false)?;
    let again = |trace| {
        replay::run(wl, table, &phase.records, &args.out_dir, Duration::MAX, Some(off.ops), trace)
    };
    let on = again(true)?;
    // A second spans-off pass after the traced one, so a slower first
    // pass (cold allocator and page cache) is not read as negative
    // tracing overhead.
    let off_ms = off.measured_ms.min(again(false)?.measured_ms);
    let spans_path = args.out_dir.join(format!("spans-{}-seed{}.jsonl", wl.name(), args.seed));
    on.tracer.write(&spans_path).map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let shadows = replay::shadow_trees(&on.table, &off.answers);

    let answers: Vec<&drive::Answer> = measured_answers(phase).map(|(_, a)| a).collect();

    // server.overhead_ms: HTTP TTFS minus in-process TTFS, per key.
    let http_by_key = ttfs_by_key(phase);
    let mut local_by_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for a in &off.answers {
        local_by_key.entry(a.key.clone()).or_default().push(a.ttfs_ms);
    }
    let overheads: Vec<f64> = local_by_key
        .iter()
        .filter_map(|(k, local)| http_by_key.get(k).map(|http| p50(http) - p50(local)))
        .collect();

    let jobs = delta(phase, "http", "requests") + delta(phase, "http", "session_lines");
    let (exact, warm, misses) = (
        delta(phase, "cache", "exact_hits"),
        delta(phase, "cache", "warm_hits"),
        delta(phase, "cache", "misses"),
    );
    let opened = |exact_hit: bool| -> Vec<f64> {
        off.answers.iter().filter(|a| a.exact_hit == exact_hit).map(|a| a.open_ms).collect()
    };
    let lookups: Vec<f64> = off.answers.iter().map(|a| a.lookup_ms).collect();
    let replayed_cmds: Vec<f64> = measured_answers(phase)
        .filter_map(|(r, _)| match &r.op {
            Op::Utter { log, .. } => Some(log.len() as f64),
            _ => None,
        })
        .collect();
    let trees: Vec<(f64, usize, bool)> = off
        .answers
        .iter()
        .filter(|a| !a.exact_hit)
        .filter_map(|a| shadows.get(&a.key).copied())
        .collect();
    let ndjson_elapsed: Vec<f64> =
        answers.iter().flat_map(|a| a.sentence_elapsed_ms.iter().copied()).collect();
    let samples: Vec<f64> =
        answers.iter().flat_map(|a| a.sentence_samples.iter().map(|&s| s as f64)).collect();
    let (sentence_ms, samples_per_s, sentence_source) = if ndjson_elapsed.is_empty() {
        let local: Vec<f64> =
            off.answers.iter().flat_map(|a| a.sentence_ms.iter().copied()).collect();
        let local_samples: f64 =
            off.answers.iter().flat_map(|a| a.sentence_samples.iter()).map(|&s| s as f64).sum();
        (p50(&local), ratio(local_samples, local.iter().sum::<f64>() / 1e3), "replay")
    } else {
        (
            p50(&ndjson_elapsed),
            ratio(samples.iter().sum(), ndjson_elapsed.iter().sum::<f64>() / 1e3),
            "NDJSON",
        )
    };
    let rows_read: Vec<f64> = answers.iter().map(|a| a.rows_read as f64).collect();
    // Scan rate over planning time, from the done records: session
    // sentences carry no rows, and a warm start's repair reads its rows
    // before the first sentence.
    let planning_s: f64 = answers.iter().map(|a| a.planning_ms).sum::<f64>() / 1e3;
    let rows_per_s = ratio(rows_read.iter().sum(), planning_s);
    let overhead_pct = ratio(on.measured_ms - off_ms, off_ms) * 100.0;

    let mut metrics = vec![
        metric(
            "server.overhead_ms",
            p50(&overheads),
            "ms",
            format!("median over {} keys of HTTP minus in-process TTFS p50", overheads.len()),
        ),
        metric(
            "server.queue_wait_ms",
            ratio(delta(phase, "http", "queue_wait_ms_total"), jobs),
            "ms",
            format!("per job over {jobs} jobs"),
        ),
        metric(
            "voice.parse_ms",
            mean(&off.answers.iter().map(|a| a.parse_ms).collect::<Vec<_>>()),
            "ms",
            "parse_question / Session::input incl. log replay",
        ),
        metric(
            "voice.replayed_cmds",
            mean(&replayed_cmds),
            "count",
            "session log replayed per utterance",
        ),
        metric("engine.cache.exact_hits", exact, "count", "/stats delta"),
        metric("engine.cache.warm_hits", warm, "count", "/stats delta"),
        metric("engine.cache.misses", misses, "count", "/stats delta"),
        metric(
            "engine.cache.hit_rate",
            ratio(exact + warm, exact + warm + misses),
            "ratio",
            "(exact + warm) / lookups",
        ),
        metric(
            "engine.cache.lookup_ms",
            mean(&lookups),
            "ms",
            format!("lookup_exact + lookup_snapshot, n={}", lookups.len()),
        ),
        metric(
            "engine.repair.count",
            delta(phase, "cache", "snapshot_repairs"),
            "count",
            "/stats delta",
        ),
        metric(
            "engine.repair.rows_read",
            delta(phase, "cache", "repair_rows_read"),
            "count",
            "/stats delta",
        ),
        metric(
            "engine.cache.exact_invalidations",
            delta(phase, "cache", "exact_invalidations"),
            "count",
            "/stats delta",
        ),
        metric(
            "core.ingest_stage_ms",
            p50(&opened(false)),
            "ms",
            format!("stream construction, n={}", opened(false).len()),
        ),
        metric(
            "core.tree.build_ms",
            p50(&trees.iter().map(|t| t.0).collect::<Vec<_>>()),
            "ms",
            format!("SpeechTree::build alone, n={}", trees.len()),
        ),
        metric(
            "core.tree.nodes",
            mean(&trees.iter().map(|t| t.1 as f64).collect::<Vec<_>>()),
            "count",
            "mean per answer",
        ),
        metric(
            "core.tree.truncated_rate",
            ratio(trees.iter().filter(|t| t.2).count() as f64, trees.len() as f64),
            "ratio",
            "builds that hit the node cap",
        ),
        metric(
            "core.exact_replan_ms",
            p50(&opened(true)),
            "ms",
            format!("stream construction on an exact hit, n={}", opened(true).len()),
        ),
        metric("core.sentence_ms", sentence_ms, "ms", format!("p50, from {sentence_source}")),
        metric("core.samples_per_sentence", mean(&samples), "count", "NDJSON sentence records"),
        metric("core.samples_per_s", samples_per_s, "1/s", format!("from {sentence_source}")),
        metric("data.rows_read_per_answer", mean(&rows_read), "count", "NDJSON done records"),
        metric("data.rows_per_s", rows_per_s, "1/s", "done records, per planning second"),
        metric(
            "core.finish_ms",
            p50(&off.answers.iter().map(|a| a.finish_ms).collect::<Vec<_>>()),
            "ms",
            "SpeechStream::finish (cache admission)",
        ),
        metric(
            "data.append_ms",
            p50(&off.append_ms),
            "ms",
            format!("DurableTable::append_rows, n={}", off.append_ms.len()),
        ),
        metric(
            "data.wal_bytes_per_row",
            ratio(off.wal.0 as f64, off.wal.1 as f64),
            "B",
            "replay WAL growth per appended row",
        ),
        metric(
            "data.fsyncs_per_batch",
            ratio(delta(phase, "durability", "fsyncs"), delta(phase, "ingest", "batches")),
            "count",
            "/stats delta",
        ),
        metric(
            "trace.overhead_pct",
            overhead_pct,
            "%",
            format!("spans on vs the faster of two passes off, same {} operations", off.ops),
        ),
    ];

    // Reported end to end too, but zero on workloads without ingest or
    // failures, so `BENCHMARK.json` cannot bound them there.
    for name in ["ingest_ack_p50_ms", "ingest_rows_per_s", "error_rate", "degraded_rate"] {
        let m = e2e.iter().find(|m| m.name == name).expect("reported end to end");
        metrics.push(metric(m.name, m.value, m.unit, m.note.clone()));
    }

    let mut notes = vec![format!(
        "replay: {} measured operations per pass ({} answers); spans written to {}",
        off.ops,
        off.answers.len(),
        spans_path.display()
    )];
    let fields: [(&str, &[&str]); 4] = [
        ("http", &["requests", "session_lines", "queue_wait_ms_total", "handler_ms_total"]),
        ("cache", &["admissions", "evictions", "stale_serves"]),
        ("ingest", &["batches", "rows"]),
        ("durability", &["wal_appends", "fsyncs", "snapshots_written"]),
    ];
    for (section, names) in fields {
        let parts: Vec<String> =
            names.iter().map(|f| format!("{f}={:.3}", delta(phase, section, f))).collect();
        notes.push(format!("/stats delta {section}: {}", parts.join(" ")));
    }
    let mut self_by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, ms) in on.tracer.spans.iter().zip(on.tracer.self_ms()) {
        *self_by_name.entry(span.name).or_default() += ms;
    }
    let parts: Vec<String> = self_by_name.iter().map(|(k, v)| format!("{k}={v:.1}")).collect();
    notes.push(format!("self time by span, ms (spans-on pass): {}", parts.join(" ")));
    notes.extend(ttfs_shares(&on, &shadows));
    Ok((metrics, notes))
}

/// Self-time shares of in-process TTFS by layer, and which layer is
/// largest. `SpeechTree::build` runs inside stream construction, so its
/// share comes from the shadow build of the same query.
fn ttfs_shares(on: &Replay, shadows: &BTreeMap<String, (f64, usize, bool)>) -> Vec<String> {
    let self_ms = on.tracer.self_ms();
    let mut by_req: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in on.tracer.spans.iter().enumerate() {
        by_req.entry(s.req).or_default().push(i);
    }
    let mut share: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for spans in by_req.values() {
        let first_sentence =
            spans.iter().copied().find(|&i| on.tracer.spans[i].name == "core.sentence");
        let Some(first) = first_sentence else { continue };
        let Some(&root) = spans.iter().find(|&&i| on.tracer.spans[i].name == "request") else {
            continue;
        };
        let window_end = on.tracer.spans[first].end;
        let mut glue = (window_end - on.tracer.spans[root].start).as_secs_f64() * 1e3;
        for &i in spans {
            let s = &on.tracer.spans[i];
            if s.name == "request" || s.end > window_end {
                continue;
            }
            let ms = self_ms[i];
            glue -= ms;
            if s.name == "core.stream_open" {
                let key = key_of(on, s.req);
                let exact = on.answers.iter().any(|a| a.key == key && a.exact_hit);
                match shadows.get(&key) {
                    Some(&(tree_ms, _, _)) if !exact => {
                        let tree = tree_ms.min(ms);
                        *share.entry("core.tree.build").or_default() += tree;
                        *share.entry("core.ingest_stage (rest)").or_default() += ms - tree;
                    }
                    _ if exact => *share.entry("core.exact_replan").or_default() += ms,
                    _ => *share.entry("core.ingest_stage (rest)").or_default() += ms,
                }
            } else {
                *share.entry(s.name).or_default() += ms;
            }
        }
        *share.entry("bench client glue").or_default() += glue.max(0.0);
        total += (window_end - on.tracer.spans[root].start).as_secs_f64() * 1e3;
    }
    if total == 0.0 {
        return vec!["TTFS self-time shares: no traced answers".to_string()];
    }
    let mut ranked: Vec<(&str, f64)> = share.into_iter().map(|(k, v)| (k, v / total)).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut lines = vec!["TTFS self-time shares (traced replay):".to_string()];
    for (name, s) in &ranked {
        lines.push(format!("  {name:<26} {:>6.1}%", s * 100.0));
    }
    let top = ranked[0].0;
    lines.push(format!("largest self-time share of TTFS: {top}"));
    lines.push(if top == "core.tree.build" {
        "  as predicted for cold answers: SpeechTree::build dominates TTFS".to_string()
    } else {
        format!("  the prediction for cold answers was core.tree.build; this replay finds {top}")
    });
    lines
}

/// The answer key of the replayed request `req` (spans carry the record
/// index).
fn key_of(on: &Replay, req: usize) -> String {
    on.answers.iter().find(|a| a.req == req).map_or_else(String::new, |a| a.key.clone())
}
