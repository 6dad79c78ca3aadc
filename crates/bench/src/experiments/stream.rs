//! Streaming-delivery latency: time-to-first-sentence (TTFS) and
//! inter-sentence gaps per approach over the region × season query,
//! rendered as markdown and as the machine-readable `BENCH_stream.json`
//! record.
//!
//! The holistic approaches commit their first sentence after one
//! sentence's sampling budget and keep planning behind the (virtual)
//! speech, so TTFS stays far below total planning time; the unmerged
//! baseline plans the full speech up front, so its TTFS approaches the
//! total — the gap this benchmark quantifies.

use std::time::Instant;

use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::parallel::ParallelHolistic;
use voxolap_core::unmerged::{Unmerged, UnmergedConfig};
use voxolap_core::CancelToken;
use voxolap_data::Table;
use voxolap_engine::query::Query;
use voxolap_json::Value;
use voxolap_server::percentile;
use voxolap_voice::tts::RealTimeVoice;

use crate::{flights_table, markdown_table, region_season_query, HostInfo};

/// Speaking rate for the pacing voice: fast enough that a benchmark run
/// finishes in seconds, slow enough that planning genuinely overlaps
/// speech. A wall-clock voice (not [`VirtualVoice`]) paces every approach
/// the same way, including the multi-threaded planner whose pacing loop
/// polls on the wall clock.
///
/// [`VirtualVoice`]: voxolap_core::voice::VirtualVoice
const CHARS_PER_SEC: f64 = 2_000.0;

/// TTFS/gap samples collected over all runs of one approach.
#[derive(Debug, Clone)]
pub struct ApproachReport {
    pub approach: &'static str,
    pub ttfs_ms: Vec<f64>,
    pub gap_ms: Vec<f64>,
    pub total_ms: Vec<f64>,
    pub sentences: usize,
}

fn engine(approach: &'static str, threads: usize, seed: u64) -> Box<dyn Vocalizer> {
    let config = HolisticConfig {
        seed,
        min_samples_per_sentence: 8_000,
        resample_size: 200,
        ..HolisticConfig::default()
    };
    match approach {
        "holistic" => Box::new(Holistic::new(config)),
        "parallel" => Box::new(ParallelHolistic::new(config).with_threads(threads)),
        "unmerged" => Box::new(Unmerged::new(UnmergedConfig {
            seed,
            resample_size: 200,
            ..UnmergedConfig::default()
        })),
        other => unreachable!("unknown approach {other}"),
    }
}

/// Run one approach `runs` times (fresh engine and seed each run, no
/// cross-query cache) and collect per-sentence delivery timestamps.
pub fn measure_approach(
    table: &Table,
    query: &Query,
    approach: &'static str,
    threads: usize,
    runs: usize,
) -> ApproachReport {
    let mut ttfs_ms = Vec::with_capacity(runs);
    let mut gap_ms = Vec::new();
    let mut total_ms = Vec::with_capacity(runs);
    let mut sentences = 0usize;
    for run in 0..runs {
        let engine = engine(approach, threads, 42 + run as u64);
        let mut voice = RealTimeVoice::new(CHARS_PER_SEC);
        let t0 = Instant::now();
        let mut stream = engine.stream(table, query, &mut voice, CancelToken::never());
        let mut last = t0;
        let mut first = true;
        while stream.next_sentence().is_some() {
            let now = Instant::now();
            if first {
                ttfs_ms.push((now - t0).as_secs_f64() * 1e3);
                first = false;
            } else {
                gap_ms.push((now - last).as_secs_f64() * 1e3);
            }
            last = now;
            sentences += 1;
        }
        let outcome = stream.finish();
        total_ms.push(outcome.stats.planning_time.as_secs_f64() * 1e3);
    }
    ApproachReport { approach, ttfs_ms, gap_ms, total_ms, sentences }
}

/// Measure all compared approaches on the flights region × season query.
/// Returns the reports plus the generated dataset's in-memory size in
/// bytes (for the artifact header).
pub fn measure(rows: usize, runs: usize, threads: usize) -> (Vec<ApproachReport>, usize) {
    let table = flights_table(rows);
    let dataset_bytes = table.approx_bytes();
    let query = region_season_query(&table);
    let reports = ["holistic", "parallel", "unmerged"]
        .iter()
        .map(|&a| measure_approach(&table, &query, a, threads, runs))
        .collect();
    (reports, dataset_bytes)
}

fn dist_json(samples: &[f64]) -> Value {
    Value::obj([
        ("count", samples.len().into()),
        ("p50", percentile(samples, 50.0).into()),
        ("p90", percentile(samples, 90.0).into()),
        ("p99", percentile(samples, 99.0).into()),
    ])
}

/// The paper's interactivity threshold: the first sentence should start
/// within 500 ms (§1, §5). Stamped into the record so readers can judge
/// the TTFS percentiles against the target without consulting the paper.
pub const TTFS_TARGET_MS: f64 = 500.0;

/// Render the measurement as the `BENCH_stream.json` record. Besides the
/// host facts, the header stamps the 500 ms TTFS target and — on hosts
/// with fewer than 4 cores — a note that the record was produced on a
/// container too small to demonstrate the paper-scale target, so a missed
/// target there reflects the host, not the implementation.
pub fn to_json(
    rows: usize,
    runs: usize,
    threads: usize,
    host: HostInfo,
    dataset_bytes: usize,
    reports: &[ApproachReport],
) -> String {
    let approaches: Vec<Value> = reports
        .iter()
        .map(|r| {
            Value::obj([
                ("approach", r.approach.into()),
                ("ttfs_ms", dist_json(&r.ttfs_ms)),
                ("gap_ms", dist_json(&r.gap_ms)),
                ("total_ms", dist_json(&r.total_ms)),
                ("sentences_total", r.sentences.into()),
            ])
        })
        .collect();
    let mut fields = vec![
        ("bench", "stream_latency".into()),
        ("dataset", "flights".into()),
        ("rows", (rows as u64).into()),
        ("runs", runs.into()),
        ("threads", threads.into()),
        ("host_cores", (host.cores as u64).into()),
        ("host_ram_bytes", host.ram_bytes.into()),
        ("dataset_bytes", (dataset_bytes as u64).into()),
        ("ttfs_target_ms", TTFS_TARGET_MS.into()),
        ("query", "avg cancellation by region x season".into()),
    ];
    if host.cores < 4 {
        fields.push((
            "host_note",
            format!(
                "measured on a {}-core container; the paper-scale 500 ms TTFS target \
                 assumes a >=4-core host, so percentiles here bound the container, \
                 not the implementation",
                host.cores
            )
            .into(),
        ));
    }
    fields.push(("approaches", approaches.into()));
    Value::obj(fields).to_string()
}

/// Render the measurement as markdown.
pub fn run(rows: usize, runs: usize, reports: &[ApproachReport]) -> String {
    let md_rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.approach.to_string(),
                format!("{:.2}", percentile(&r.ttfs_ms, 50.0)),
                format!("{:.2}", percentile(&r.ttfs_ms, 90.0)),
                format!("{:.2}", percentile(&r.gap_ms, 50.0)),
                format!("{:.2}", percentile(&r.gap_ms, 90.0)),
                format!("{:.1}", percentile(&r.total_ms, 50.0)),
            ]
        })
        .collect();
    format!(
        "### Streaming delivery latency ({rows} flights rows, {runs} runs)\n\n{}\n",
        markdown_table(
            &["approach", "ttfs p50 ms", "ttfs p90 ms", "gap p50 ms", "gap p90 ms", "total p50 ms"],
            &md_rows
        ),
    )
}
