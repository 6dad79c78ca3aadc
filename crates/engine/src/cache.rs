//! Estimator helpers of the sample cache of paper Algorithm 3.
//!
//! Rows stream from the database in random order; rows within the current
//! query scope are cached, indexed by the aggregate they belong to (see
//! [`ShardedSampleCache`](crate::sharded::ShardedSampleCache)). This module
//! holds the estimator arithmetic on top of the cached rows:
//!
//! * `resample(a)` — a fixed-size uniform subsample of one aggregate's
//!   cached entries (`CA.RESAMPLE`), keeping estimate cost constant as the
//!   cache fills;
//! * unbiased estimators for COUNT, SUM, and AVG ([`CacheEstimate`]).

use rand::Rng;

use crate::query::AggFct;

/// Default size of the fixed resample (paper §4.3: "we use a fixed size of
/// 10 samples").
pub const DEFAULT_RESAMPLE_SIZE: usize = 10;

/// Reusable buffers for `ShardedSampleCache::resample_into` /
/// `ShardedSampleCache::estimate_with`: the planner's inner loop calls
/// these thousands of times per second, and reusing one scratch keeps the
/// hot path allocation-free (the buffers grow to the working size once and
/// are recycled).
#[derive(Debug, Clone, Default)]
pub struct ResampleScratch {
    /// Partial-Fisher–Yates index pool over the bucket.
    pub(crate) indices: Vec<u32>,
    /// The drawn resample values.
    pub(crate) out: Vec<f64>,
}

impl ResampleScratch {
    /// A fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Draw `amount` values from `bucket` uniformly without replacement into
/// `scratch.out` (all of them when the bucket is smaller), via a partial
/// Fisher–Yates shuffle over a reused index pool. No allocation after the
/// scratch reaches steady-state capacity.
pub(crate) fn resample_into_scratch<R: Rng + ?Sized>(
    bucket: &[f64],
    amount: usize,
    rng: &mut R,
    scratch: &mut ResampleScratch,
) {
    scratch.out.clear();
    if bucket.len() <= amount {
        scratch.out.extend_from_slice(bucket);
        return;
    }
    let ix = &mut scratch.indices;
    ix.clear();
    ix.extend(0..bucket.len() as u32);
    for i in 0..amount {
        let j = rng.gen_range(i..bucket.len());
        ix.swap(i, j);
        scratch.out.push(bucket[ix[i] as usize]);
    }
}

/// Combine the count estimate `e_c` with a resample `v` into the full
/// estimate triple.
pub(crate) fn estimate_from_resample(e_c: f64, v: &[f64]) -> CacheEstimate {
    let mean = if v.is_empty() { f64::NAN } else { v.iter().sum::<f64>() / v.len() as f64 };
    let e_s = if v.is_empty() { 0.0 } else { e_c * mean };
    CacheEstimate { count: e_c, sum: e_s, avg: mean }
}

/// A cache-based estimate of one aggregate's count, sum, and average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEstimate {
    /// Estimated row count of the aggregate's scope (`e_C`).
    pub count: f64,
    /// Estimated measure sum (`e_S`).
    pub sum: f64,
    /// Estimated average (`e_A`); `NaN` when no entry is cached.
    pub avg: f64,
}

impl CacheEstimate {
    /// The estimate for a given aggregation function.
    pub fn value(&self, fct: AggFct) -> f64 {
        match fct {
            AggFct::Count => self.count,
            AggFct::Sum => self.sum,
            AggFct::Avg => self.avg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use voxolap_data::dimension::{LevelId, MemberId};
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;

    use crate::exact::evaluate;
    use crate::query::{AggIdx, Query};
    use crate::sharded::ShardedSampleCache;

    fn estimate(
        cache: &ShardedSampleCache,
        agg: AggIdx,
        rng: &mut StdRng,
    ) -> Option<CacheEstimate> {
        cache.estimate_with(agg, rng, &mut ResampleScratch::new())
    }

    fn resample(cache: &ShardedSampleCache, agg: AggIdx, rng: &mut StdRng) -> Vec<f64> {
        cache.resample_into(agg, rng, &mut ResampleScratch::new()).to_vec()
    }

    fn salary_setup() -> (voxolap_data::Table, Query) {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    fn fill_cache(
        table: &voxolap_data::Table,
        q: &Query,
        rows: usize,
        seed: u64,
    ) -> ShardedSampleCache {
        let cache = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        let mut scan = table.scan_shuffled(seed);
        for _ in 0..rows {
            match scan.next_row() {
                Some(r) => {
                    let agg = q.layout().agg_of_row(r.members);
                    cache.observe(agg, r.value);
                }
                None => break,
            }
        }
        cache
    }

    #[test]
    fn sizes_and_nr_read_track_insertions() {
        let (table, q) = salary_setup();
        let cache = fill_cache(&table, &q, 100, 7);
        assert_eq!(cache.nr_read(), 100);
        let total: usize = (0..q.n_aggregates() as u32).map(|a| cache.size(a)).sum();
        assert_eq!(total, 100, "salary query scope covers the whole table");
    }

    #[test]
    fn estimates_converge_to_exact_values() {
        let (table, q) = salary_setup();
        let exact = evaluate(&q, &table);
        let cache = fill_cache(&table, &q, 320, 3); // full table cached
        let mut rng = StdRng::seed_from_u64(1);
        for agg in 0..q.n_aggregates() as u32 {
            let est = estimate(&cache, agg, &mut rng).unwrap();
            // Count estimate is exact with full scan.
            assert!((est.count - exact.count(agg) as f64).abs() < 1e-6);
            // Average from a resample of 10 is noisy but in range.
            assert!((est.avg - exact.value(agg)).abs() < 15.0);
        }
    }

    #[test]
    fn count_estimator_is_unbiased_over_seeds() {
        let (table, q) = salary_setup();
        let exact = evaluate(&q, &table);
        let agg = 0u32;
        let mut acc = 0.0;
        let n_seeds = 40;
        for seed in 0..n_seeds {
            let cache = fill_cache(&table, &q, 64, seed);
            acc += cache.nr_rows_total() as f64 * cache.size(agg) as f64 / cache.nr_read() as f64;
        }
        let mean_est = acc / n_seeds as f64;
        let truth = exact.count(agg) as f64;
        assert!(
            (mean_est - truth).abs() < truth * 0.25,
            "mean estimate {mean_est} vs exact {truth}"
        );
    }

    #[test]
    fn resample_is_capped_at_fixed_size() {
        let (table, q) = salary_setup();
        let cache = fill_cache(&table, &q, 320, 3);
        let mut rng = StdRng::seed_from_u64(5);
        for agg in 0..q.n_aggregates() as u32 {
            let v = resample(&cache, agg, &mut rng);
            assert!(v.len() <= DEFAULT_RESAMPLE_SIZE);
            if cache.size(agg) >= DEFAULT_RESAMPLE_SIZE {
                assert_eq!(v.len(), DEFAULT_RESAMPLE_SIZE);
            } else {
                assert_eq!(v.len(), cache.size(agg));
            }
        }
    }

    #[test]
    fn pick_aggregate_avg_requires_cached_entries() {
        let (table, q) = salary_setup();
        let empty = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(empty.pick_aggregate(AggFct::Avg, &mut rng), None);
        // COUNT/SUM can pick any aggregate even with an empty cache.
        assert!(empty.pick_aggregate(AggFct::Count, &mut rng).is_some());

        let filled = fill_cache(&table, &q, 50, 9);
        let picked = filled.pick_aggregate(AggFct::Avg, &mut rng).unwrap();
        assert!(filled.size(picked) > 0);
    }

    #[test]
    fn pick_aggregate_is_uniform_over_nonempty() {
        let (table, q) = salary_setup();
        let cache = fill_cache(&table, &q, 320, 3);
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = vec![0usize; q.n_aggregates()];
        for _ in 0..8000 {
            let a = cache.pick_aggregate(AggFct::Avg, &mut rng).unwrap();
            hits[a as usize] += 1;
        }
        let nonempty = cache.nonempty_count();
        let expect = 8000.0 / nonempty as f64;
        for (a, &h) in hits.iter().enumerate() {
            if cache.size(a as u32) > 0 {
                assert!(
                    (h as f64 - expect).abs() < expect * 0.5,
                    "aggregate {a} picked {h} times, expected ~{expect}"
                );
            } else {
                assert_eq!(h, 0);
            }
        }
    }

    #[test]
    fn overall_estimate_tracks_scope_mean() {
        let (table, q) = salary_setup();
        let cache = fill_cache(&table, &q, 320, 3);
        let overall = cache.overall_estimate(AggFct::Avg).unwrap();
        let exact_mean: f64 = table.measure().iter().sum::<f64>() / table.row_count() as f64;
        assert!((overall - exact_mean).abs() < 1e-9, "full cache reproduces scope mean");
        // Count estimate equals table size with a full scan.
        assert!((cache.overall_estimate(AggFct::Count).unwrap() - 320.0).abs() < 1e-9);
    }

    #[test]
    fn overall_estimate_none_before_rows() {
        let cache = ShardedSampleCache::new(4, 100);
        assert_eq!(cache.overall_estimate(AggFct::Avg), None);
        assert_eq!(cache.overall_estimate(AggFct::Count), None);
    }

    #[test]
    fn confidence_interval_shrinks_with_samples() {
        let (table, q) = salary_setup();
        let small = fill_cache(&table, &q, 60, 3);
        let big = fill_cache(&table, &q, 320, 3);
        // Find an aggregate with entries in both caches.
        let agg = (0..q.n_aggregates() as u32)
            .find(|&a| small.size(a) >= 2 && big.size(a) > small.size(a))
            .expect("some aggregate grows");
        let (lo_s, hi_s) = small.confidence_interval(agg, 1.96).unwrap();
        let (lo_b, hi_b) = big.confidence_interval(agg, 1.96).unwrap();
        assert!(hi_b - lo_b < hi_s - lo_s, "more samples, tighter interval");
    }

    #[test]
    fn confidence_interval_needs_two_entries() {
        let cache = ShardedSampleCache::new(2, 10);
        assert_eq!(cache.confidence_interval(0, 1.96), None);
    }

    #[test]
    fn warm_started_cache_is_identical_to_cold_start_over_seeds() {
        // Property behind semantic-cache warm starts: re-bucketing a donor
        // query's logged in-scope rows (same scope, different group-by)
        // into a fresh cache must reproduce, bit for bit, the cache a cold
        // start would have built from the same seeded row prefix — hence
        // identical estimates under the same estimator RNG stream.
        let table = SalaryConfig::paper_scale().generate();
        let donor = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();
        let target = Query::builder(AggFct::Avg)
            .group_by(DimId(1), LevelId(2))
            .build(table.schema())
            .unwrap();
        for seed in 0..20u64 {
            let prefix = 64 + (seed as usize) * 7;
            // Donor pass: stream the prefix, logging in-scope rows.
            let mut log: Vec<(Vec<MemberId>, f64)> = Vec::new();
            let mut scan = table.scan_shuffled(seed);
            for _ in 0..prefix {
                let Some(r) = scan.next_row() else { break };
                if donor.layout().agg_of_row(r.members).is_some() {
                    log.push((r.members.to_vec(), r.value));
                }
            }
            let nr_read = scan.rows_read() as u64;
            // Cold target cache over the same prefix.
            let cold = fill_cache(&table, &target, prefix, seed);
            // Warm target cache seeded from the donor's log.
            let warm = ShardedSampleCache::new(target.n_aggregates(), table.row_count() as u64);
            warm.seed_rows(target.layout(), log.iter().map(|(m, v)| (m.as_slice(), *v)), nr_read);
            assert_eq!(warm.nr_read(), cold.nr_read());
            assert_eq!(warm.nonempty_count(), cold.nonempty_count());
            for agg in 0..target.n_aggregates() as u32 {
                assert_eq!(warm.size(agg), cold.size(agg), "seed {seed} agg {agg}");
                assert_eq!(warm.seen(agg), cold.seen(agg));
                let mut rng_w = StdRng::seed_from_u64(seed ^ 0xabc);
                let mut rng_c = StdRng::seed_from_u64(seed ^ 0xabc);
                assert_eq!(
                    estimate(&warm, agg, &mut rng_w),
                    estimate(&cold, agg, &mut rng_c),
                    "estimates identical in distribution (same RNG stream)"
                );
            }
            assert_eq!(warm.overall_estimate(AggFct::Avg), cold.overall_estimate(AggFct::Avg));
        }
    }

    #[test]
    fn exact_result_requires_full_uncapped_scan() {
        let (table, q) = salary_setup();
        let partial = fill_cache(&table, &q, 100, 3);
        assert!(partial.exact_result().is_none(), "partial scan is not exact");
        let full = fill_cache(&table, &q, 320, 3);
        let (counts, sums) = full.exact_result().expect("full uncapped scan is exact");
        let exact = evaluate(&q, &table);
        for agg in 0..q.n_aggregates() as u32 {
            assert_eq!(counts[agg as usize], exact.count(agg));
            assert!((sums[agg as usize] - exact.sum(agg)).abs() < 1e-9);
        }
        let capped = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64)
            .with_bucket_capacity(4);
        let mut scan = table.scan_shuffled(3);
        while let Some(r) = scan.next_row() {
            capped.observe(q.layout().agg_of_row(r.members), r.value);
        }
        assert!(capped.exact_result().is_none(), "eviction forfeits exactness");
    }

    #[test]
    fn estimate_value_dispatches_on_fct() {
        let e = CacheEstimate { count: 10.0, sum: 55.0, avg: 5.5 };
        assert_eq!(e.value(AggFct::Count), 10.0);
        assert_eq!(e.value(AggFct::Sum), 55.0);
        assert_eq!(e.value(AggFct::Avg), 5.5);
    }
}

#[cfg(test)]
mod eviction_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::salary::SalaryConfig;
    use voxolap_data::DimId;

    use crate::query::{AggIdx, Query};
    use crate::sharded::ShardedSampleCache;

    fn estimate(
        cache: &ShardedSampleCache,
        agg: AggIdx,
        rng: &mut StdRng,
    ) -> Option<CacheEstimate> {
        cache.estimate_with(agg, rng, &mut ResampleScratch::new())
    }

    fn resample(cache: &ShardedSampleCache, agg: AggIdx, rng: &mut StdRng) -> Vec<f64> {
        cache.resample_into(agg, rng, &mut ResampleScratch::new()).to_vec()
    }

    #[test]
    fn bucket_capacity_bounds_memory() {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();
        let cache = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64)
            .with_bucket_capacity(16);
        let mut scan = table.scan_shuffled(3);
        while let Some(r) = scan.next_row() {
            cache.observe(q.layout().agg_of_row(r.members), r.value);
        }
        for agg in 0..q.n_aggregates() as u32 {
            assert!(cache.size(agg) <= 16, "bucket {agg} capped");
            assert!(cache.seen(agg) as usize >= cache.size(agg));
        }
        // Offered counts still cover the whole table.
        let offered: u64 = (0..q.n_aggregates() as u32).map(|a| cache.seen(a)).sum();
        assert_eq!(offered, 320);
    }

    #[test]
    fn count_estimates_survive_eviction() {
        let table = SalaryConfig::paper_scale().generate();
        let q = Query::builder(AggFct::Count)
            .group_by(DimId(0), LevelId(1))
            .build(table.schema())
            .unwrap();
        let capped = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64)
            .with_bucket_capacity(4);
        let mut scan = table.scan_shuffled(3);
        while let Some(r) = scan.next_row() {
            capped.observe(q.layout().agg_of_row(r.members), r.value);
        }
        let exact = crate::exact::evaluate(&q, &table);
        let mut rng = StdRng::seed_from_u64(1);
        for agg in 0..q.n_aggregates() as u32 {
            let est = estimate(&capped, agg, &mut rng).unwrap();
            assert!(
                (est.count - exact.count(agg) as f64).abs() < 1e-9,
                "full-scan count estimate exact despite eviction: {} vs {}",
                est.count,
                exact.count(agg)
            );
        }
    }

    #[test]
    fn reservoir_keeps_value_distribution_unbiased() {
        // Stream a known sequence into a capped bucket many times; the
        // retained sample's mean must track the stream's mean.
        let n_streams = 400;
        let stream: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let true_mean = stream.iter().sum::<f64>() / stream.len() as f64;
        let mut acc = 0.0;
        for seed in 0..n_streams {
            let cache = ShardedSampleCache::new(1, 200).with_bucket_capacity(8);
            // Individualize eviction decisions via a distinct insertion
            // order per stream.
            let mut order: Vec<usize> = (0..stream.len()).collect();
            use rand::seq::SliceRandom;
            let mut rng = StdRng::seed_from_u64(seed);
            order.shuffle(&mut rng);
            for &i in &order {
                cache.observe(Some(0), stream[i]);
            }
            let mut rng = StdRng::seed_from_u64(seed ^ 7);
            let v = resample(&cache, 0, &mut rng);
            acc += v.iter().sum::<f64>() / v.len() as f64;
        }
        let mean_of_means = acc / n_streams as f64;
        assert!(
            (mean_of_means - true_mean).abs() < true_mean * 0.08,
            "reservoir mean {mean_of_means} vs stream mean {true_mean}"
        );
    }

    #[test]
    #[should_panic(expected = "bucket capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ShardedSampleCache::new(1, 10).with_bucket_capacity(0);
    }
}
