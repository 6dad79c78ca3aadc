//! End-to-end planner latency (Figure 3, left): how long each approach
//! takes from query submission until voice output can start.
//!
//! The unmerged variant runs with an *iteration* budget here (its wall-clock
//! 500 ms budget would swamp Criterion); the experiment binary `fig3` uses
//! the paper's wall-clock budget.
//!
//! The `tree_build` and `exact_hit` cases time the semantic-cache repeat
//! path at the server's planner configuration: the speech-tree build
//! alone, and a whole exact-hit answer (tree build plus exhaustive
//! scoring, no rows read).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use voxolap_bench::{experiment_candidates, fig3_queries, flights_table};
use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::optimal::{Optimal, OptimalConfig};
use voxolap_core::tree::SpeechTree;
use voxolap_core::unmerged::{SamplingBudget, Unmerged, UnmergedConfig};
use voxolap_core::voice::InstantVoice;
use voxolap_data::dimension::LevelId;
use voxolap_data::DimId;
use voxolap_engine::exact::evaluate;
use voxolap_engine::query::{AggFct, Query};
use voxolap_engine::semantic::SemanticCache;
use voxolap_speech::candidates::CandidateGenerator;
use voxolap_speech::render::Renderer;

fn planner_latency(c: &mut Criterion) {
    let table = flights_table(50_000);
    let queries = fig3_queries(&table);
    let mut group = c.benchmark_group("planner");
    group.sample_size(10);

    for label in [",RD", "N,DA"] {
        let query = queries.iter().find(|(l, _)| l == label).map(|(_, q)| q.clone()).unwrap();

        let optimal = Optimal::new(OptimalConfig {
            candidates: experiment_candidates(),
            max_tree_nodes: 120_000,
            ..OptimalConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("optimal", label), &query, |b, q| {
            b.iter(|| {
                let mut voice = InstantVoice::default();
                black_box(optimal.vocalize(&table, q, &mut voice))
            })
        });

        let holistic = Holistic::new(HolisticConfig {
            candidates: experiment_candidates(),
            min_samples_per_sentence: 256,
            max_tree_nodes: 120_000,
            ..HolisticConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("holistic", label), &query, |b, q| {
            b.iter(|| {
                let mut voice = InstantVoice::default();
                black_box(holistic.vocalize(&table, q, &mut voice))
            })
        });

        let unmerged = Unmerged::new(UnmergedConfig {
            candidates: experiment_candidates(),
            budget: SamplingBudget::Iterations(1_500),
            max_tree_nodes: 120_000,
            ..UnmergedConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("unmerged", label), &query, |b, q| {
            b.iter(|| {
                let mut voice = InstantVoice::default();
                black_box(unmerged.vocalize(&table, q, &mut voice))
            })
        });
    }
    group.finish();
}

fn exact_replan(c: &mut Criterion) {
    let table = flights_table(50_000);
    let schema = table.schema();
    let query = Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(schema).unwrap();
    // The server's holistic configuration (voxolap-server `make_vocalizer`).
    let cfg = HolisticConfig {
        min_samples_per_sentence: 8_000,
        resample_size: 200,
        ..HolisticConfig::default()
    };
    let exact = evaluate(&query, &table);
    let mut group = c.benchmark_group("planner");
    group.sample_size(10);

    let generator = CandidateGenerator::new(schema, &query, cfg.candidates.clone());
    let renderer = Renderer::new(schema, &query);
    group.bench_function("tree_build/R", |b| {
        b.iter(|| {
            black_box(SpeechTree::build(
                &generator,
                &renderer,
                &cfg.constraints,
                exact.grand_mean(),
                cfg.max_tree_nodes,
            ))
        })
    });

    let cache = Arc::new(SemanticCache::with_capacity_mb(64));
    cache.admit_exact(
        &query.key(),
        table.version(),
        exact.counts().to_vec(),
        exact.sums().to_vec(),
    );
    let holistic = Holistic::new(cfg).with_cache(cache.clone());
    group.bench_function("exact_hit/R", |b| {
        b.iter(|| {
            let mut voice = InstantVoice::default();
            black_box(holistic.vocalize(&table, &query, &mut voice))
        })
    });
    assert_eq!(cache.stats().misses, 0, "every repeat is an exact hit");
    group.finish();
}

criterion_group!(benches, planner_latency, exact_replan);
criterion_main!(benches);
