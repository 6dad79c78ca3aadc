//! Sample-cache micro-benchmarks: row-observation throughput (the rate the
//! paper's "rows produced at a sufficiently high frequency" assumption
//! depends on), fixed-size resampling, and estimate construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use voxolap_bench::{flights_table, region_season_query};
use voxolap_engine::cache::ResampleScratch;
use voxolap_engine::sharded::ShardedSampleCache;

fn cache_benches(c: &mut Criterion) {
    let table = flights_table(100_000);
    let query = region_season_query(&table);
    let layout = query.layout();

    // Pre-materialize rows so the bench isolates cache cost.
    let rows: Vec<(Option<u32>, f64)> = {
        let mut scan = table.scan_shuffled(7);
        let mut out = Vec::new();
        while let Some(r) = scan.next_row() {
            out.push((layout.agg_of_row(r.members), r.value));
        }
        out
    };

    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("observe_100k_rows", |b| {
        b.iter(|| {
            let cache = ShardedSampleCache::new(query.n_aggregates(), table.row_count() as u64);
            for &(agg, v) in &rows {
                cache.observe(agg, v);
            }
            black_box(cache.nr_read())
        })
    });
    group.finish();

    // Resample/estimate on a filled cache.
    let mut group = c.benchmark_group("estimate");
    for resample in [10usize, 100] {
        let cache = ShardedSampleCache::new(query.n_aggregates(), table.row_count() as u64)
            .with_resample_size(resample);
        for &(agg, v) in &rows {
            cache.observe(agg, v);
        }
        // Per-call allocation (a fresh scratch per estimate) versus the
        // planner's hot path (one ResampleScratch reused across calls).
        group.bench_with_input(BenchmarkId::new("resample_alloc", resample), &cache, |b, cache| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| {
                let agg =
                    cache.pick_aggregate(voxolap_engine::query::AggFct::Avg, &mut rng).unwrap();
                black_box(cache.estimate_with(agg, &mut rng, &mut ResampleScratch::new()))
            })
        });
        group.bench_with_input(
            BenchmarkId::new("resample_scratch", resample),
            &cache,
            |b, cache| {
                let mut rng = StdRng::seed_from_u64(3);
                let mut scratch = ResampleScratch::new();
                b.iter(|| {
                    let agg =
                        cache.pick_aggregate(voxolap_engine::query::AggFct::Avg, &mut rng).unwrap();
                    black_box(cache.estimate_with(agg, &mut rng, &mut scratch))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, cache_benches);
criterion_main!(benches);
