//! The sampling side of the holistic engine: morsel-driven row streaming
//! into the shared [`ShardedSampleCache`], σ calibration, and the
//! speech-evaluation sampling iteration (`ST.Sample`, combining
//! Algorithms 2 and 3).
//!
//! A [`Sampler`] owns one run's cache, its morsel pool and one
//! `ShardWorker` per planning thread. The Holistic planner drives it
//! while voice output plays (cooperatively on the calling thread, or with
//! every worker on its own thread); the Unmerged planner drives it for a
//! fixed budget before speaking.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use voxolap_belief::model::rounding_bucket;
use voxolap_belief::normal::Normal;
use voxolap_data::dimension::MemberId;
use voxolap_data::table::{RowBlock, RowScanner};
use voxolap_data::{MorselPool, Table};
use voxolap_engine::cache::ResampleScratch;
use voxolap_engine::query::{AggFct, Query, AGG_OUT_OF_SCOPE};
use voxolap_engine::semantic::{LoggedRow, SampleSnapshot, SemanticCache};
use voxolap_engine::sharded::{IngestBatch, ShardedSampleCache};
use voxolap_faults::{Resilience, RunState};
use voxolap_mcts::NodeId;

use crate::holistic::HolisticConfig;
use crate::resilience::ResCtx;
use crate::tree::SpeechTree;

/// Capacity-bounded log of the in-scope rows a run observed, kept so the
/// sample can be admitted to the semantic cache as a warm-start snapshot.
/// Overflowing the cap drops the log (an oversized snapshot would be
/// rejected by the cache anyway) but never affects the run itself.
#[derive(Debug)]
pub(crate) struct RowLog {
    rows: Vec<LoggedRow>,
    cap: usize,
    overflowed: bool,
}

impl RowLog {
    pub(crate) fn new(cap: usize) -> Self {
        RowLog { rows: Vec::new(), cap, overflowed: false }
    }

    /// Log one scan block's in-scope rows (`aggs` are the block's resolved
    /// aggregate codes, see `ResultLayout::agg_of_block`), pre-reserving
    /// capacity from the block size instead of growing per row. A block
    /// that would not fit drops the log in one step — observably the same
    /// as overflowing row-at-a-time, since an overflowed log is discarded
    /// wholesale either way.
    pub(crate) fn push_block(&mut self, block: &RowBlock<'_>, aggs: &[u32]) {
        if self.overflowed {
            return;
        }
        let in_scope = aggs.iter().filter(|&&a| a != AGG_OUT_OF_SCOPE).count();
        if in_scope == 0 {
            return;
        }
        if self.rows.len() + in_scope > self.cap {
            self.overflowed = true;
            self.rows = Vec::new();
            return;
        }
        self.rows.reserve(in_scope);
        for (i, &r) in block.rows.iter().enumerate() {
            if aggs[i] == AGG_OUT_OF_SCOPE {
                continue;
            }
            let members: Box<[MemberId]> = block.dims.iter().map(|d| d.get(r as usize)).collect();
            self.rows.push(LoggedRow { members, value: block.values[r as usize] });
        }
    }
}

/// Fallback σ when the measure's overall mean is zero or unavailable.
pub(crate) const SIGMA_FALLBACK: f64 = 1.0;

/// The σ the paper calibrates for a run: an explicit override, or half the
/// overall estimate (falling back to 1 for degenerate means).
pub(crate) fn calibrated_sigma(overall_estimate: f64, sigma_override: Option<f64>) -> f64 {
    match sigma_override {
        Some(s) => s,
        None => {
            let s = overall_estimate.abs() * 0.5;
            if s.is_finite() && s > 0.0 {
                s
            } else {
                SIGMA_FALLBACK
            }
        }
    }
}

/// How sampling iterations pick the speech to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// UCT prioritization (the paper's choice, Algorithm 2).
    #[default]
    Uct,
    /// Uniform random descent — ablates the exploration/exploitation
    /// balance to show what UCT buys.
    UniformRandom,
}

/// Stream separation constant for per-worker RNGs (an arbitrary odd
/// multiplier); worker 0 keeps the run's base stream.
const WORKER_STREAM: u64 = 0xd1b5_4a32_d192_ed03;

/// One planning worker: a pooled morsel scanner and private RNG stream
/// over the run's shared cache and tree.
pub(crate) struct ShardWorker<'a> {
    query: &'a Query,
    cache: Arc<ShardedSampleCache>,
    scanner: RowScanner<'a>,
    rng: StdRng,
    scratch: ResampleScratch,
    /// Thread-local morsel accumulator for the group-commit ingest path
    /// (`ShardedSampleCache::observe_batch`, DESIGN.md §14).
    batch: IngestBatch,
    /// Reused per-block aggregate-code buffer for the columnar kernel.
    aggs: Vec<u32>,
    sigma: f64,
    rows_per_iteration: usize,
    policy: SelectionPolicy,
    /// In-scope row log for semantic-cache snapshot admission (only when a
    /// cache is attached; logging consumes no randomness).
    log: Option<RowLog>,
    /// Fault-injection / degradation context (`None` = inert; the hooks
    /// consume no randomness and leave behavior byte-identical).
    res: Option<ResCtx>,
}

impl<'a> ShardWorker<'a> {
    /// Stream up to `k` rows of this worker's morsels into the shared
    /// cache; returns how many were read.
    pub(crate) fn ingest_rows(&mut self, k: usize) -> usize {
        if let Some(res) = &self.res {
            if !res.read_allowed() {
                // Breaker open: the run continues on whatever the cache
                // already holds (warm-start rows or earlier reads).
                return 0;
            }
        }
        // Batched morsel ingest (DESIGN.md §14): per block, resolve all
        // aggregate codes with the columnar kernel, accumulate into the
        // thread-local batch, and group-commit once — one shared-counter
        // add and at most one bucket lock per touched aggregate per
        // block, instead of per row.
        let layout = self.query.layout();
        let mut read = 0;
        while read < k {
            let Some(block) = self.scanner.next_block(k - read) else { break };
            layout.agg_of_block(block.dims, block.rows, &mut self.aggs);
            if let Some(log) = self.log.as_mut() {
                log.push_block(&block, &self.aggs);
            }
            for (i, &r) in block.rows.iter().enumerate() {
                self.batch.push_resolved(self.aggs[i], block.values[r as usize]);
            }
            self.cache.observe_batch(&mut self.batch);
            read += block.rows.len();
        }
        read
    }

    /// One sampling iteration (`ST.Sample`): ingest a few rows, pick an
    /// eligible aggregate, estimate its value from the cache, descend the
    /// tree from `from`, reward the path by the probability the leaf
    /// speech's belief assigns to the estimate, and update statistics.
    /// `use_vloss` selects the virtual-loss descent that spreads
    /// concurrent workers across the tree.
    ///
    /// Returns the observed reward (0 when nothing was evaluable yet or
    /// the iteration faulted; callers count faulted iterations too).
    pub(crate) fn sample_once(&mut self, tree: &SpeechTree, from: NodeId, use_vloss: bool) -> f64 {
        if let Some(res) = &self.res {
            if res.sample_faulted() {
                return 0.0;
            }
        }
        self.ingest_rows(self.rows_per_iteration);

        let layout = self.query.layout();
        let Some(agg) = self.cache.pick_aggregate(self.query.fct(), &mut self.rng) else {
            return 0.0;
        };
        let Some(estimate) = self.cache.estimate_with(agg, &mut self.rng, &mut self.scratch) else {
            return 0.0;
        };
        let est = estimate.value(self.query.fct());

        let t = tree.tree();
        let path = match self.policy {
            SelectionPolicy::Uct if use_vloss => t.select_path_vloss(from, &mut self.rng),
            SelectionPolicy::Uct => t.select_path(from, &mut self.rng),
            SelectionPolicy::UniformRandom => t.random_path(from, &mut self.rng),
        };
        let Some(&leaf) = path.last() else {
            return 0.0;
        };
        let reward = if est.is_finite() {
            let coords = layout.coords_of_agg(agg);
            let mean = tree.mean_for(leaf, &coords);
            let (lo, hi) = rounding_bucket(est, self.sigma / 10.0);
            Normal::new(mean, self.sigma).prob_interval(lo, hi)
        } else {
            0.0
        };
        if use_vloss && self.policy == SelectionPolicy::Uct {
            t.update_path_vloss(&path, reward);
        } else {
            t.update_path(&path, reward);
        }
        reward
    }
}

/// Row streaming, the shared sample cache and the sampling workers of one
/// vocalization run. With one worker everything runs on the caller's
/// thread in the seeded scan order, so a fixed seed reproduces the run
/// exactly; with more, the workers claim disjoint morsels of the same
/// order from one pool.
pub struct Sampler<'a> {
    query: &'a Query,
    cache: Arc<ShardedSampleCache>,
    /// The workers' shared morsel pool; its progress vector is the
    /// warm-start resume point of an admitted snapshot.
    pool: Arc<MorselPool>,
    pub(crate) workers: Vec<ShardWorker<'a>>,
    seed: u64,
    /// `nr_read` inherited from a warm-start donor (0 for cold runs);
    /// warm-up targets shrink by this amount.
    seeded: u64,
    /// Rows a pre-planning snapshot repair scanned on this run's behalf;
    /// counted into [`rows_read`](Self::rows_read) so stats cover the
    /// full data cost of the answer.
    repair_rows: u64,
    /// The donor's logged rows, re-admitted with this run's fresh ones.
    donor_rows: Vec<LoggedRow>,
    /// Version and row count of the pinned table, stamped into admitted
    /// snapshots and exact results so the semantic cache can invalidate
    /// or repair them after appends.
    version: u64,
    table_rows: u64,
}

impl<'a> Sampler<'a> {
    /// A sampler with `threads` workers (min 1) and `config`'s seed,
    /// resample size, rows per iteration and selection policy; no rows
    /// are read yet.
    pub fn new(
        table: &'a Table,
        query: &'a Query,
        config: &HolisticConfig,
        threads: usize,
    ) -> Self {
        Self::build(table, query, config, threads, None)
    }

    /// [`Sampler::new`] with an optional resilience bundle: row ingestion
    /// then runs the read ladder (retry → circuit breaker → fallback),
    /// sampling iterations consult the Sample fault site, and the cache
    /// the CacheShard site.
    pub(crate) fn build(
        table: &'a Table,
        query: &'a Query,
        config: &HolisticConfig,
        threads: usize,
        resil: Option<&(Arc<Resilience>, Arc<RunState>)>,
    ) -> Self {
        let mut cache = ShardedSampleCache::new(query.n_aggregates(), table.row_count() as u64)
            .with_resample_size(config.resample_size);
        if let Some((res, _)) = resil {
            if let Some(inj) = res.injector() {
                cache = cache.with_faults(inj.clone(), res.stats().clone());
            }
        }
        let cache = Arc::new(cache);
        let pool = table.morsel_pool(config.seed);
        let workers = (0..threads.max(1) as u64)
            .map(|w| ShardWorker {
                query,
                cache: cache.clone(),
                scanner: table.scan_pooled(pool.clone(), query.measure()),
                rng: StdRng::seed_from_u64(
                    config.seed ^ 0x9e37_79b9_7f4a_7c15 ^ w.wrapping_mul(WORKER_STREAM),
                ),
                scratch: ResampleScratch::new(),
                batch: IngestBatch::new(query.n_aggregates()),
                aggs: Vec::new(),
                sigma: SIGMA_FALLBACK,
                rows_per_iteration: config.rows_per_iteration,
                policy: config.policy,
                log: None,
                res: resil.map(|(res, run)| ResCtx::new(res.clone(), run.clone(), "table")),
            })
            .collect();
        Sampler {
            query,
            cache,
            pool,
            workers,
            seed: config.seed,
            seeded: 0,
            repair_rows: 0,
            donor_rows: Vec::new(),
            version: table.version(),
            table_rows: table.row_count() as u64,
        }
    }

    /// Warm-start from a compatible [`SampleSnapshot`]: seed the cache
    /// with the donor's re-bucketed rows, advance the morsel pool past the
    /// donor's consumed prefix, and shrink future warm-up targets. The
    /// donor's worker count does not matter — progress describes the
    /// consumed set of the scan order itself. Returns `false` (leaving
    /// the sampler cold) when rows were already read or the snapshot
    /// describes another table version (repair it first, see
    /// `voxolap_engine::repair`).
    pub fn warm_start(&mut self, snapshot: &SampleSnapshot) -> bool {
        if self.cache.nr_read() != 0 || snapshot.version != self.version {
            return false;
        }
        self.cache.seed_rows(
            self.query.layout(),
            snapshot.rows.iter().map(|r| (&r.members[..], r.value)),
            snapshot.nr_read,
        );
        self.pool.resume(&snapshot.progress);
        self.seeded = snapshot.nr_read;
        self.donor_rows = snapshot.rows.clone();
        true
    }

    /// Account suffix rows a snapshot repair scanned before this run's
    /// own streaming started (they appear in `rows_read`).
    pub(crate) fn note_repair_rows(&mut self, rows: u64) {
        self.repair_rows += rows;
    }

    /// Start logging in-scope rows so the run's sample can be admitted to
    /// a semantic cache afterwards: at most `budget` rows including a
    /// warm-start donor's (so call this after [`warm_start`](Self::warm_start)),
    /// split evenly over the workers. Logging consumes no randomness and
    /// never changes planning behavior.
    pub fn enable_row_log(&mut self, budget: usize) {
        let per_worker = budget.saturating_sub(self.donor_rows.len()) / self.workers.len();
        for worker in &mut self.workers {
            worker.log = Some(RowLog::new(per_worker));
        }
    }

    /// Stream up to `k` rows into the cache through the first worker;
    /// returns how many were read.
    pub fn ingest_rows(&mut self, k: usize) -> usize {
        self.workers[0].ingest_rows(k)
    }

    /// Read rows until an overall estimate of the query's **typical
    /// per-aggregate value** exists (at least `min_rows` in any case), then
    /// return it — the seed for baseline candidates. For AVG this is the
    /// scope mean; for COUNT/SUM the scope total divided by the number of
    /// result aggregates (the maximum-entropy uniform split, matching the
    /// baseline's semantics of "a value typical for the result"). `None`
    /// only when the entire table is exhausted without any in-scope row for
    /// an AVG query.
    ///
    /// For rare-event AVG measures (e.g. 0/1 cancellation flags) an early
    /// estimate of exactly 0 spans no baseline value grid, so warm-up keeps
    /// reading (bounded by 50× `min_rows`) until the estimate turns
    /// non-zero or the table is exhausted. Runs on the first worker's
    /// morsels, a uniform sample of the table.
    pub fn warmup(&mut self, min_rows: usize) -> Option<f64> {
        let fct = self.query.fct();
        let n_aggs = self.query.n_aggregates() as f64;
        let per_aggregate = |est: f64| match fct {
            AggFct::Avg => est,
            _ => est / n_aggs,
        };
        let cache = &self.cache;
        let worker = &mut self.workers[0];
        // A warm-started cache already holds `seeded` rows' worth of
        // signal; only the deficit is read.
        worker.ingest_rows(min_rows.saturating_sub(self.seeded as usize));
        let est = loop {
            if let Some(est) = cache.overall_estimate(fct) {
                break est;
            }
            if worker.ingest_rows(64) == 0 {
                return cache.overall_estimate(fct).map(per_aggregate);
            }
        };
        if est != 0.0 || fct != AggFct::Avg {
            return Some(per_aggregate(est));
        }
        let budget = min_rows.saturating_mul(50);
        while worker.scanner.rows_read() < budget {
            if worker.ingest_rows(256) == 0 {
                break;
            }
            match cache.overall_estimate(fct) {
                Some(e) if e != 0.0 => return Some(e),
                _ => {}
            }
        }
        cache.overall_estimate(fct)
    }

    /// Fix σ for this run: an explicit override, or the paper's choice of
    /// half the overall mean (falling back to 1 for degenerate means).
    pub fn calibrate_sigma(&mut self, overall_estimate: f64, sigma_override: Option<f64>) -> f64 {
        let sigma = calibrated_sigma(overall_estimate, sigma_override);
        for worker in &mut self.workers {
            worker.sigma = sigma;
        }
        sigma
    }

    /// One sampling iteration on the caller's thread through the first
    /// worker, rooted at `from` (see `ST.Sample`); returns the reward.
    pub fn sample_once(&mut self, tree: &SpeechTree, from: NodeId) -> f64 {
        self.workers[0].sample_once(tree, from, false)
    }

    /// Fresh rows streamed so far (warm-start donor rows excluded,
    /// repair-scanned suffix rows included).
    pub fn rows_read(&self) -> u64 {
        self.cache.nr_read().saturating_sub(self.seeded) + self.repair_rows
    }

    /// The shared sample cache.
    pub fn cache(&self) -> &ShardedSampleCache {
        &self.cache
    }

    /// The query being planned.
    pub(crate) fn query(&self) -> &'a Query {
        self.query
    }

    /// Extract the run's sample as a semantic-cache snapshot (donor rows
    /// plus every worker's fresh rows) and stop logging. `None` when
    /// logging was off or a worker's log overflowed its cap.
    pub fn take_snapshot(&mut self) -> Option<SampleSnapshot> {
        let mut rows = std::mem::take(&mut self.donor_rows);
        for worker in &mut self.workers {
            let log = worker.log.take()?;
            if log.overflowed {
                return None;
            }
            rows.extend(log.rows);
        }
        Some(SampleSnapshot {
            seed: self.seed,
            progress: self.pool.progress_vec(),
            nr_read: self.cache.nr_read(),
            rows,
            version: self.version,
            table_rows: self.table_rows,
        })
    }

    /// Offer the run's results to the semantic cache (once, at finish):
    /// exact aggregates when the scan was exhausted into an intact cache,
    /// and the logged uniform row prefix as a warm-start snapshot for
    /// scope-overlapping queries.
    pub(crate) fn admit(&mut self, semantic: &SemanticCache) {
        let key = self.query.key();
        if let Some((counts, sums)) = self.cache.exact_result() {
            semantic.admit_exact(&key, self.version, counts, sums);
        }
        if let Some(snapshot) = self.take_snapshot() {
            semantic.admit_snapshot(&key.scope(), snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;
    use voxolap_speech::candidates::{CandidateConfig, CandidateGenerator};
    use voxolap_speech::constraints::SpeechConstraints;
    use voxolap_speech::render::Renderer;

    fn setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    fn config(seed: u64) -> HolisticConfig {
        HolisticConfig {
            seed,
            resample_size: voxolap_engine::cache::DEFAULT_RESAMPLE_SIZE,
            ..HolisticConfig::default()
        }
    }

    fn sampler<'a>(table: &'a voxolap_data::Table, q: &'a Query, seed: u64) -> Sampler<'a> {
        Sampler::new(table, q, &config(seed), 1)
    }

    #[test]
    fn warmup_produces_overall_estimate() {
        let (table, q) = setup();
        let mut s = sampler(&table, &q, 7);
        let est = s.warmup(50).unwrap();
        assert!(est > 60.0 && est < 130.0, "estimate {est}");
        assert!(s.rows_read() >= 50);
    }

    #[test]
    fn sigma_calibration_halves_mean() {
        let (table, q) = setup();
        let mut s = sampler(&table, &q, 7);
        assert_eq!(s.calibrate_sigma(88.0, None), 44.0);
        assert_eq!(s.calibrate_sigma(88.0, Some(10.0)), 10.0);
        assert_eq!(s.calibrate_sigma(0.0, None), SIGMA_FALLBACK);
        assert_eq!(s.workers[0].sigma, SIGMA_FALLBACK);
    }

    #[test]
    fn sampling_prefers_truthful_baselines() {
        let (table, q) = setup();
        let schema = table.schema();
        let gen = CandidateGenerator::new(schema, &q, CandidateConfig::default());
        let renderer = Renderer::new(schema, &q);
        // Baseline-only tree so the test isolates baseline selection.
        let constraints = SpeechConstraints { max_chars: 300, max_refinements: 0 };
        let cfg = HolisticConfig { rows_per_iteration: 4, ..config(11) };
        let mut s = Sampler::new(&table, &q, &cfg, 1);
        let overall = s.warmup(100).unwrap();
        s.calibrate_sigma(overall, None);
        let tree = SpeechTree::build(&gen, &renderer, &constraints, overall, 100_000);
        for _ in 0..4000 {
            s.sample_once(&tree, SpeechTree::ROOT);
        }
        let best = tree.tree().best_child(SpeechTree::ROOT).unwrap();
        let speech = tree.speech_at(best);
        // The true grand mean is ~88-92; UCT must settle near it.
        assert!(
            (80.0..=100.0).contains(&speech.baseline.value),
            "picked baseline {}",
            speech.baseline.value
        );
        let visits: u64 =
            tree.tree().children(SpeechTree::ROOT).iter().map(|&c| tree.tree().visits(c)).sum();
        assert_eq!(visits, 4000, "every iteration evaluated one baseline");
    }

    #[test]
    fn sample_before_any_row_is_harmless_for_avg() {
        let (table, q) = setup();
        let schema = table.schema();
        let gen = CandidateGenerator::new(schema, &q, CandidateConfig::default());
        let renderer = Renderer::new(schema, &q);
        let constraints = SpeechConstraints::paper_default();
        // rows_per_iteration = 0 keeps the cache empty: AVG has no eligible
        // aggregate and the reward must be 0 without panicking.
        let cfg = HolisticConfig { rows_per_iteration: 0, ..config(3) };
        let mut s = Sampler::new(&table, &q, &cfg, 1);
        let tree = SpeechTree::build(&gen, &renderer, &constraints, 88.0, 10_000);
        assert_eq!(s.sample_once(&tree, SpeechTree::ROOT), 0.0);
    }

    #[test]
    fn warm_started_core_matches_cold_start_estimates_over_seeds() {
        // Property behind warm starts: a sampler seeded from a donor
        // snapshot and a cold one that streamed the same seeded prefix
        // itself must hold identical caches, hence identical estimates
        // under identical estimator RNG streams.
        let (table, q) = setup();
        for seed in [3u64, 7, 11, 19, 23] {
            let mut donor = sampler(&table, &q, seed);
            donor.enable_row_log(10_000);
            donor.ingest_rows(80);
            let snap = donor.take_snapshot().expect("log intact");
            assert_eq!(snap.nr_read, 80);

            let mut warm = sampler(&table, &q, seed);
            assert!(warm.warm_start(&snap));
            let mut cold = sampler(&table, &q, seed);
            cold.ingest_rows(80);
            warm.ingest_rows(60);
            cold.ingest_rows(60);
            assert_eq!(warm.cache().nr_read(), cold.cache().nr_read());
            assert_eq!(warm.rows_read(), 60, "only fresh rows count as read");
            for agg in 0..q.n_aggregates() as u32 {
                assert_eq!(warm.cache().size(agg), cold.cache().size(agg));
                let mut rng_w = StdRng::seed_from_u64(seed ^ 0x77);
                let mut rng_c = StdRng::seed_from_u64(seed ^ 0x77);
                assert_eq!(
                    warm.cache().estimate_with(agg, &mut rng_w, &mut ResampleScratch::new()),
                    cold.cache().estimate_with(agg, &mut rng_c, &mut ResampleScratch::new()),
                    "seed {seed} agg {agg}"
                );
            }
        }
    }

    #[test]
    fn warm_start_shrinks_warmup_reads() {
        let (table, q) = setup();
        let mut donor = sampler(&table, &q, 5);
        donor.enable_row_log(10_000);
        donor.ingest_rows(120);
        let snap = donor.take_snapshot().unwrap();

        let mut warm = sampler(&table, &q, 5);
        assert!(warm.warm_start(&snap));
        let warm_est = warm.warmup(150).unwrap();
        let mut cold = sampler(&table, &q, 5);
        let cold_est = cold.warmup(150).unwrap();
        assert!(
            warm.rows_read() < cold.rows_read(),
            "warm start reads fewer fresh rows ({} vs {})",
            warm.rows_read(),
            cold.rows_read()
        );
        // Both warmed caches cover the same 150-row prefix of the same
        // seeded scan, so the overall estimates coincide.
        assert_eq!(warm_est, cold_est);
    }

    #[test]
    fn warmup_on_empty_scope_returns_none_for_avg() {
        // Filter start salary to a bin with no rows: warmup must exhaust
        // the table and give up gracefully.
        let table = SalaryConfig { rows: 8, seed: 1 }.generate();
        let schema = table.schema();
        let start = schema.dimension(DimId(1));
        let empty_bin =
            start.leaves().iter().copied().find(|&bin| {
                !(0..table.row_count()).any(|row| table.member_at(DimId(1), row) == bin)
            });
        let Some(bin) = empty_bin else {
            return; // all bins occupied at this seed; nothing to test
        };
        let q = Query::builder(AggFct::Avg)
            .filter(DimId(1), bin)
            .group_by(DimId(0), LevelId(1))
            .build(schema)
            .unwrap();
        let mut s = sampler(&table, &q, 2);
        assert_eq!(s.warmup(4), None);
    }
}
