//! Multi-threaded pipelined vocalization over the lock-free speech tree.
//!
//! The holistic engine ([`Holistic`]) implements the paper's literal
//! architecture — "while the current sentence is spoken, we determine the
//! best follow-up in the background" — and scales it across cores with
//! [`Holistic::with_threads`]:
//!
//! * **Morsel-driven row ingestion** — N workers claim whole chunks
//!   (morsels) of the seeded two-level scan order from one shared
//!   [`MorselPool`](voxolap_data::MorselPool) ([`Table::scan_pooled`])
//!   and stream them into one shared
//!   [`ShardedSampleCache`](voxolap_engine::sharded::ShardedSampleCache)
//!   whose per-aggregate striped buckets keep workers from serializing on
//!   a global cache lock. Claimed morsels partition the order with zero
//!   overlap, so the union of worker prefixes remains a uniform sample
//!   (see [`voxolap_data::chunk`] for the uniformity argument).
//! * **Lock-free UCT sampling** — workers descend the pre-expanded speech
//!   tree concurrently with virtual losses
//!   ([`select_path_vloss`](voxolap_mcts::Tree::select_path_vloss)) and
//!   commit visit/reward statistics with atomic CAS updates; no tree lock
//!   exists at all.
//! * **Commit thread** — the calling thread sleeps on voice output and, at
//!   each sentence boundary, moves the shared sampling root to the child
//!   with the best *mean* reward (Algorithm 1's exploitation-only commit).
//!
//! With one thread the same engine samples cooperatively on the calling
//! thread: one scanner drains the pool in the seeded order, so a fixed
//! seed reproduces a run word for word (pinned by `tests/golden_pins.rs`).
//! With more threads, outcomes depend on scheduling and are **not**
//! bit-reproducible; experiments use one thread, interactive deployments
//! use more.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use voxolap_data::Table;
use voxolap_engine::query::Query;
use voxolap_speech::candidates::CandidateGenerator;
use voxolap_speech::render::Renderer;

use crate::holistic::{Holistic, HolisticConfig};
use crate::sampler::Sampler;
use crate::tree::SpeechTree;

/// The multi-threaded holistic vocalizer: the holistic engine, named for
/// deployments that set [`with_threads`](Holistic::with_threads).
pub type ParallelHolistic = Holistic;

/// Result of one [`sampling_throughput`] measurement.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputReport {
    /// Number of worker threads that sampled.
    pub threads: usize,
    /// Total completed sampling iterations across all workers.
    pub samples: u64,
    /// Total rows streamed into the shared cache.
    pub rows_read: u64,
    /// Wall-clock time the workers ran.
    pub elapsed: Duration,
}

impl ThroughputReport {
    /// Completed sampling iterations per wall-clock second.
    pub fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Measure raw sampling throughput: `threads` workers hammer a freshly
/// built speech tree and sharded cache from the root for `duration`
/// (no voice, no commit steps — pure planning work). This is the
/// scaling benchmark's engine; setup (table scan permutations, warm-up,
/// tree construction) happens before the clock starts.
pub fn sampling_throughput(
    table: &Table,
    query: &Query,
    config: &HolisticConfig,
    threads: usize,
    duration: Duration,
) -> ThroughputReport {
    let threads = threads.max(1);
    let schema = table.schema();
    let renderer = Renderer::new(schema, query);
    let mut sampler = Sampler::new(table, query, config, threads);
    let overall = sampler.warmup(config.warmup_rows).unwrap_or(0.0);
    sampler.calibrate_sigma(overall, config.sigma_override);
    let generator = CandidateGenerator::new(schema, query, config.candidates.clone());
    let tree = SpeechTree::build(
        &generator,
        &renderer,
        &config.constraints,
        overall,
        config.max_tree_nodes,
    );

    let samples = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let use_vloss = threads > 1;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for worker in sampler.workers.iter_mut() {
            let tree = &tree;
            let stop = &stop;
            let samples = &samples;
            scope.spawn(move || {
                // Count locally so the shared counter isn't itself a
                // contention point in the measurement.
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    worker.sample_once(tree, SpeechTree::ROOT, use_vloss);
                    local += 1;
                }
                samples.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    ThroughputReport {
        threads,
        samples: samples.load(Ordering::Relaxed),
        rows_read: sampler.cache().nr_read(),
        elapsed: t0.elapsed(),
    }
}

/// Result of one [`ingest_throughput`] measurement.
#[derive(Debug, Clone, Copy)]
pub struct IngestReport {
    /// Number of ingest worker threads.
    pub threads: usize,
    /// Total rows streamed into sharded caches across all drains.
    pub rows: u64,
    /// Full-table drains completed.
    pub drains: u64,
    /// Wall-clock time the workers ran.
    pub elapsed: Duration,
}

impl IngestReport {
    /// Rows ingested per wall-clock second.
    pub fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Measure raw **ingest-only** throughput: `threads` workers drain whole
/// seeded scans of the table into fresh sample caches via the
/// batched morsel path (columnar aggregate resolution + group-commit) with
/// planning disabled — no tree, no estimates, no RNG draws. Full-table
/// drains repeat until `min_duration` has elapsed, so the figure is stable
/// even when one drain takes microseconds. This isolates the scan+observe
/// scaling that the end-to-end samples/sec figure mixes with planning
/// work.
pub fn ingest_throughput(
    table: &Table,
    query: &Query,
    seed: u64,
    threads: usize,
    min_duration: Duration,
) -> IngestReport {
    let threads = threads.max(1);
    let mut rows = 0u64;
    let mut drains = 0u64;
    let t0 = Instant::now();
    while drains == 0 || t0.elapsed() < min_duration {
        let config =
            HolisticConfig { seed: seed.wrapping_add(drains), ..HolisticConfig::default() };
        let mut sampler = Sampler::new(table, query, &config, threads);
        std::thread::scope(|scope| {
            for worker in sampler.workers.iter_mut() {
                scope.spawn(move || worker.ingest_rows(usize::MAX));
            }
        });
        rows += sampler.cache().nr_read();
        drains += 1;
    }
    IngestReport { threads, rows, drains, elapsed: t0.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_engine::query::AggFct;
    use voxolap_engine::semantic::SemanticCache;
    use voxolap_faults::Resilience;
    use voxolap_speech::constraints::SpeechConstraints;

    use crate::approach::Vocalizer;
    use crate::outcome::VocalizationOutcome;
    use crate::uncertainty::UncertaintyMode;
    use crate::voice::{InstantVoice, VoiceOutput};

    /// A wall-clock voice local to these tests (the production one lives
    /// in voxolap-voice, which sits above this crate).
    struct SleepyVoice {
        until: Option<Instant>,
        per_char: Duration,
        transcript: Vec<String>,
    }

    impl SleepyVoice {
        fn new(per_char: Duration) -> Self {
            SleepyVoice { until: None, per_char, transcript: Vec::new() }
        }
    }

    impl VoiceOutput for SleepyVoice {
        fn start(&mut self, sentence: &str) {
            self.until = Some(Instant::now() + self.per_char * sentence.len() as u32);
            self.transcript.push(sentence.to_string());
        }
        fn is_playing(&mut self) -> bool {
            self.until.is_some_and(|t| Instant::now() < t)
        }
        fn transcript(&self) -> &[String] {
            &self.transcript
        }
    }

    fn setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    fn fast_config() -> HolisticConfig {
        HolisticConfig {
            min_samples_per_sentence: 400,
            max_tree_nodes: 60_000,
            ..HolisticConfig::default()
        }
    }

    /// The pinned single-threaded answer under `fast_config()`.
    const FAST_PIN: &[&str] = &[
        "90 K is the average mid-career salary.",
        "Values decrease by 5 percent for graduates from the North East.",
        "Values decrease by 25 percent for a start salary of less than 50 K.",
    ];

    fn assert_fast_pin(outcome: &VocalizationOutcome) {
        assert_eq!(outcome.sentences, FAST_PIN, "same speech, sentence for sentence");
        assert_eq!(outcome.stats.samples, 1600);
        assert_eq!(outcome.stats.rows_read, 320);
    }

    #[test]
    fn single_thread_reproduces_holistic_exactly() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let outcome =
            ParallelHolistic::new(fast_config()).with_threads(1).vocalize(&table, &q, &mut voice);
        assert_fast_pin(&outcome);
        assert_eq!(outcome.preamble, voice.transcript()[0]);
    }

    #[test]
    fn single_thread_parity_holds_across_seeds_and_constraints() {
        let (table, q) = setup();
        let pins: [(u64, [&str; 2]); 3] = [
            (
                3,
                [
                    "80 K is the average mid-career salary.",
                    "Values increase by 50 percent for graduates from the North East.",
                ],
            ),
            (
                17,
                [
                    "80 to 90 K is the average mid-career salary.",
                    "Values increase by 5 percent for graduates from the North East.",
                ],
            ),
            (
                2024,
                [
                    "80 to 90 K is the average mid-career salary.",
                    "Values decrease by 50 percent for graduates from the South.",
                ],
            ),
        ];
        for (seed, pin) in pins {
            let cfg = HolisticConfig {
                seed,
                constraints: SpeechConstraints { max_chars: 300, max_refinements: 1 },
                min_samples_per_sentence: 250,
                max_tree_nodes: 40_000,
                ..HolisticConfig::default()
            };
            let mut voice = InstantVoice::default();
            let outcome =
                ParallelHolistic::new(cfg).with_threads(1).vocalize(&table, &q, &mut voice);
            assert_eq!(outcome.sentences, pin, "seed {seed}");
        }
    }

    #[test]
    fn multi_thread_engine_produces_valid_speech() {
        let (table, q) = setup();
        let cfg = HolisticConfig {
            min_samples_per_sentence: 200,
            max_tree_nodes: 40_000,
            ..HolisticConfig::default()
        };
        let mut voice = SleepyVoice::new(Duration::from_micros(200));
        let outcome = ParallelHolistic::new(cfg).with_threads(4).vocalize(&table, &q, &mut voice);
        let speech = outcome.speech.as_ref().expect("structured speech");
        assert!(speech.refinements.len() <= 2);
        assert!(!outcome.sentences.is_empty());
        assert_eq!(voice.transcript().len(), 1 + outcome.sentences.len());
        assert!(outcome.latency.as_millis() < 500);
    }

    #[test]
    fn background_sampling_accumulates_during_speech() {
        let (table, q) = setup();
        let cfg = HolisticConfig {
            min_samples_per_sentence: 1,
            max_tree_nodes: 40_000,
            ..HolisticConfig::default()
        };
        // ~20 ms of "speaking" per sentence buys thousands of iterations.
        let mut voice = SleepyVoice::new(Duration::from_micros(300));
        let outcome = ParallelHolistic::new(cfg).with_threads(4).vocalize(&table, &q, &mut voice);
        assert!(
            outcome.stats.samples > 500,
            "workers sampled during speech: {}",
            outcome.stats.samples
        );
    }

    #[test]
    fn respects_fragment_budget() {
        let (table, q) = setup();
        let cfg = HolisticConfig {
            constraints: SpeechConstraints { max_chars: 300, max_refinements: 1 },
            min_samples_per_sentence: 100,
            max_tree_nodes: 40_000,
            ..HolisticConfig::default()
        };
        let mut voice = SleepyVoice::new(Duration::from_micros(50));
        let outcome = ParallelHolistic::new(cfg).with_threads(3).vocalize(&table, &q, &mut voice);
        assert!(outcome.speech.unwrap().refinements.len() <= 1);
    }

    #[test]
    fn multi_thread_baseline_lands_near_truth() {
        let (table, q) = setup();
        let mut voice = SleepyVoice::new(Duration::from_micros(100));
        let outcome =
            ParallelHolistic::new(fast_config()).with_threads(4).vocalize(&table, &q, &mut voice);
        let v = outcome.speech.unwrap().baseline.value;
        // Exact grand mean is ~88-92 K at one significant digit.
        assert!((70.0..=110.0).contains(&v), "baseline {v}");
    }

    #[test]
    fn uncertainty_warning_works_in_parallel_mode() {
        let (table, q) = setup();
        let cfg = HolisticConfig {
            uncertainty: UncertaintyMode::Warning { max_relative_width: 0.0001 },
            min_samples_per_sentence: 200,
            max_tree_nodes: 40_000,
            ..HolisticConfig::default()
        };
        let mut voice = SleepyVoice::new(Duration::from_micros(100));
        let outcome = ParallelHolistic::new(cfg).with_threads(2).vocalize(&table, &q, &mut voice);
        assert!(
            outcome.sentences.iter().any(|s| s.contains("confidence")),
            "warning appended: {:?}",
            outcome.sentences
        );
    }

    #[test]
    fn single_thread_with_empty_cache_keeps_parity() {
        let (table, q) = setup();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let mut voice = InstantVoice::default();
        let outcome = ParallelHolistic::new(fast_config())
            .with_threads(1)
            .with_cache(cache)
            .vocalize(&table, &q, &mut voice);
        assert_fast_pin(&outcome);
    }

    #[test]
    fn repeat_query_hits_cache_in_cooperative_mode() {
        let (table, q) = setup();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let engine = ParallelHolistic::new(fast_config()).with_threads(1).with_cache(cache.clone());
        let mut voice = InstantVoice::default();
        let cold = engine.vocalize(&table, &q, &mut voice);
        assert_eq!(cold.stats.rows_read, 320, "cold run exhausts the table");
        let mut voice = InstantVoice::default();
        let hit = engine.vocalize(&table, &q, &mut voice);
        assert_eq!(hit.stats.rows_read, 0, "repeat reads no rows");
        assert_eq!(hit.stats.samples, 0, "repeat skips sampling");
        assert!(hit.speech.is_some());
        assert_eq!(cache.stats().exact_hits, 1);
    }

    #[test]
    fn sharded_snapshot_warm_starts_across_group_bys() {
        let (table, _) = setup();
        let schema = table.schema();
        let donor =
            Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(schema).unwrap();
        let target =
            Query::builder(AggFct::Avg).group_by(DimId(1), LevelId(1)).build(schema).unwrap();
        let cache = Arc::new(SemanticCache::with_capacity_mb(4));
        let engine = ParallelHolistic::new(fast_config()).with_threads(2).with_cache(cache.clone());
        let mut voice = SleepyVoice::new(Duration::from_micros(100));
        let cold = engine.vocalize(&table, &donor, &mut voice);
        assert_eq!(cold.stats.rows_read, 320, "donor exhausts the table");
        let mut voice = SleepyVoice::new(Duration::from_micros(100));
        let warm = engine.vocalize(&table, &target, &mut voice);
        assert!(
            warm.stats.rows_read < cold.stats.rows_read,
            "warm start reuses the donor prefix: {} vs {}",
            warm.stats.rows_read,
            cold.stats.rows_read
        );
        assert_eq!(cache.stats().warm_hits, 1);
        assert!(warm.speech.is_some());
    }

    #[test]
    fn single_thread_inert_resilience_keeps_parity() {
        let (table, q) = setup();
        let mut voice = InstantVoice::default();
        let outcome = ParallelHolistic::new(fast_config())
            .with_threads(1)
            .with_resilience(Arc::new(Resilience::default()))
            .vocalize(&table, &q, &mut voice);
        assert_fast_pin(&outcome);
        assert!(!outcome.stats.degraded);
    }

    #[test]
    fn multi_thread_engine_survives_injected_faults() {
        use voxolap_faults::{FaultPlan, FaultSite, SiteSchedule};
        let (table, q) = setup();
        let plan = FaultPlan::new(11)
            .with_site(FaultSite::DataRead, SiteSchedule::error(0.2))
            .with_site(FaultSite::Sample, SiteSchedule::error(0.2))
            .with_site(FaultSite::CacheShard, SiteSchedule::error(0.02));
        let res = Arc::new(Resilience::new(Some(plan)));
        let cfg = HolisticConfig {
            min_samples_per_sentence: 200,
            max_tree_nodes: 40_000,
            ..HolisticConfig::default()
        };
        let mut voice = SleepyVoice::new(Duration::from_micros(100));
        let outcome = ParallelHolistic::new(cfg)
            .with_threads(4)
            .with_resilience(res.clone())
            .vocalize(&table, &q, &mut voice);
        // Faults at these rates must not prevent an answer: the preamble
        // always arrives and the run is accounted exactly once.
        assert!(!outcome.preamble.is_empty());
        let snap = res.stats().snapshot();
        assert_eq!(snap.clean_answers + snap.degraded_answers, 1);
        assert!(res.injector().unwrap().total_injected() > 0, "schedule actually injected faults");
    }

    #[test]
    fn empty_scope_is_reported_gracefully() {
        let table = SalaryConfig { rows: 8, seed: 1 }.generate();
        let schema = table.schema();
        let start = schema.dimension(DimId(1));
        let empty_bin =
            start.leaves().iter().copied().find(|&bin| {
                !(0..table.row_count()).any(|row| table.member_at(DimId(1), row) == bin)
            });
        let Some(bin) = empty_bin else { return };
        let q = Query::builder(AggFct::Avg)
            .filter(DimId(1), bin)
            .group_by(DimId(0), LevelId(1))
            .build(schema)
            .unwrap();
        let mut voice = InstantVoice::default();
        let outcome =
            ParallelHolistic::new(fast_config()).with_threads(2).vocalize(&table, &q, &mut voice);
        assert!(outcome.sentences[0].contains("No data"));
        assert!(outcome.speech.is_none());
    }
}
