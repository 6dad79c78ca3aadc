//! Golden pins: literal transcripts and planner statistics of the holistic
//! engine, recorded from the single-threaded engine under fixed seeds.
//!
//! The threads=1 parity tests elsewhere compare two vocalizers with each
//! other; these pins compare the engine with fixed literals instead, so a
//! refactor that changes a single sampled row, RNG draw or committed
//! sentence fails here even when every engine changes the same way.
//!
//! Covered: two seeds × two queries cold, the semantic-cache paths (warm
//! start, exact hit, append then snapshot repair), the three uncertainty
//! modes, the uniform-random selection policy, and the unmerged planner
//! under an iteration budget. Every holistic case runs both through
//! `Holistic::new` and `ParallelHolistic::new(..).with_threads(1)`.
//!
//! Tree pins fix the shape of whole speech trees: node count, truncation,
//! and a hash over every node's parent, sentence and payload bits, so a
//! change to expansion order, validity cuts or reference chaining fails
//! even where no sampled transcript happens to show it.

use std::sync::Arc;

use voxolap_core::approach::Vocalizer;
use voxolap_core::holistic::{Holistic, HolisticConfig};
use voxolap_core::outcome::VocalizationOutcome;
use voxolap_core::parallel::ParallelHolistic;
use voxolap_core::sampler::SelectionPolicy;
use voxolap_core::tree::{NodeKind, SpeechTree};
use voxolap_core::unmerged::{SamplingBudget, Unmerged, UnmergedConfig};
use voxolap_core::voice::InstantVoice;
use voxolap_core::UncertaintyMode;
use voxolap_data::dimension::LevelId;
use voxolap_data::flights::FlightsConfig;
use voxolap_data::schema::MeasureId;
use voxolap_data::{DimId, DimValue, IngestRow, Table};
use voxolap_engine::exact::evaluate;
use voxolap_engine::query::{AggFct, Query};
use voxolap_engine::semantic::SemanticCache;
use voxolap_speech::candidates::CandidateGenerator;
use voxolap_speech::render::Renderer;

/// One pinned answer: the spoken body sentences and the planner's
/// sampling iterations and fresh rows read.
struct Pin {
    label: &'static str,
    sentences: &'static [&'static str],
    samples: u64,
    rows_read: u64,
}

const PINS: &[Pin] = &[
    Pin {
        label: "cold/region-season/42",
        sentences: &[
            "Around half a percent is the average cancellation probability.",
            "Values decrease by 10 percent for flights starting from the South.",
            "Values decrease by 5 percent for flights starting from the Midwest.",
        ],
        samples: 1200,
        rows_read: 6000,
    },
    Pin {
        label: "cold/winter-region/42",
        sentences: &[
            "Around two percent is the average cancellation probability.",
            "Values increase by 100 percent for flights starting from the Midwest.",
            "Values increase by 50 percent for flights starting from the North East.",
        ],
        samples: 1200,
        rows_read: 6000,
    },
    Pin {
        label: "cold/region-season/7",
        sentences: &[
            "Around two point five percent is the average cancellation probability.",
            "Values decrease by 10 percent for flights scheduled in Fall.",
            "Values decrease by 25 percent for flights starting from the United States territories.",
        ],
        samples: 1200,
        rows_read: 6000,
    },
    Pin {
        label: "cold/winter-region/7",
        sentences: &[
            "Around eight percent is the average cancellation probability.",
            "Values increase by 100 percent for flights starting from the South.",
            "Values decrease by 50 percent for flights starting from the West.",
        ],
        samples: 1200,
        rows_read: 6000,
    },
    Pin {
        label: "cache/partial-donor",
        sentences: &[
            "Around zero point four percent is the average cancellation probability.",
            "Values decrease by 5 percent for flights starting from the Midwest.",
            "Values increase by 50 percent for flights scheduled in Winter.",
        ],
        samples: 400,
        rows_read: 3400,
    },
    Pin {
        label: "cache/warm-start",
        sentences: &[
            "One to one point five percent is the average cancellation probability.",
            "Values decrease by 20 percent for flights starting from the North East.",
            "Values increase by 100 percent for flights starting from the West.",
        ],
        samples: 400,
        rows_read: 2600,
    },
    Pin {
        label: "cache/exhaustive",
        sentences: &[
            "Around half a percent is the average cancellation probability.",
            "Values decrease by 10 percent for flights starting from the South.",
            "Values decrease by 5 percent for flights starting from the Midwest.",
        ],
        samples: 1200,
        rows_read: 6000,
    },
    Pin {
        label: "cache/exact-hit",
        sentences: &[
            "Around one percent is the average cancellation probability.",
            "Values increase by 100 percent for flights scheduled in Spring.",
            "Values increase by 100 percent for flights scheduled in Summer.",
        ],
        samples: 0,
        rows_read: 0,
    },
    Pin {
        label: "cache/exact-hit-region-500000",
        sentences: &[
            "Around two point five percent is the average cancellation probability.",
            "Values decrease by 25 percent for flights starting from the South.",
            "Values decrease by 50 percent for flights starting from the United States territories.",
        ],
        samples: 0,
        rows_read: 0,
    },
    Pin {
        label: "cache/after-append",
        sentences: &[
            "Around zero point eight percent is the average cancellation probability.",
            "Values decrease by 25 percent for flights scheduled in Fall.",
            "Values decrease by 10 percent for flights scheduled in Winter.",
        ],
        samples: 1200,
        rows_read: 250,
    },
    Pin {
        label: "cache/after-append-repeat",
        sentences: &[
            "Around one percent is the average cancellation probability.",
            "Values increase by 100 percent for flights starting from the North East.",
            "Values decrease by 50 percent for flights scheduled in Fall.",
        ],
        samples: 0,
        rows_read: 0,
    },
    Pin {
        label: "uncertainty/off",
        sentences: &[
            "Around half a percent is the average cancellation probability.",
            "Values decrease by 10 percent for flights starting from the South.",
            "Values decrease by 5 percent for flights starting from the Midwest.",
        ],
        samples: 1200,
        rows_read: 6000,
    },
    Pin {
        label: "uncertainty/warning",
        sentences: &[
            "Around half a percent is the average cancellation probability. Please note that \
             confidence in the spoken values is still low.",
            "Values decrease by 10 percent for flights starting from the South. Please note that confidence in the spoken values is still low.",
            "Values decrease by 5 percent for flights starting from the Midwest. Please note that confidence in the spoken values is still low.",
        ],
        samples: 1200,
        rows_read: 6000,
    },
    Pin {
        label: "uncertainty/bounds",
        sentences: &[
            "Around half a percent is the average cancellation probability. With 95 percent confidence, values lie between around zero percent and around eight point four percent.",
            "Values decrease by 10 percent for flights starting from the South. With 95 percent confidence, values lie between around zero percent and around four point three percent.",
            "Values decrease by 5 percent for flights starting from the Midwest. With 95 percent confidence, values lie between around zero percent and around seven point seven percent.",
        ],
        samples: 1200,
        rows_read: 6000,
    },
    Pin {
        label: "policy/uniform-random",
        sentences: &[
            "Around zero point six percent is the average cancellation probability.",
            "Values increase by 50 percent for flights starting from the North East.",
            "Values decrease by 20 percent for flights scheduled in Winter.",
        ],
        samples: 1200,
        rows_read: 6000,
    },
    Pin {
        label: "unmerged/region-season",
        sentences: &[
            "Around half a percent is the average cancellation probability.",
            "Values increase by 50 percent for flights starting from the West.",
            "Values decrease by 20 percent for flights starting from the Midwest.",
        ],
        samples: 1500,
        rows_read: 6000,
    },
    Pin {
        label: "unmerged/winter-region",
        sentences: &[
            "Around four percent is the average cancellation probability.",
            "Values decrease by 20 percent for flights starting from the South.",
            "Values increase by 20 percent for flights starting from the North East.",
        ],
        samples: 1500,
        rows_read: 6000,
    },
];

/// One pinned speech tree: its size, truncation flag and the FNV-1a hash
/// of [`tree_hash`].
struct TreePin {
    label: &'static str,
    nodes: usize,
    truncated: bool,
    hash: u64,
}

const TREE_PINS: &[TreePin] = &[
    TreePin {
        label: "region/500000",
        nodes: 44_116,
        truncated: false,
        hash: 0xab4c_c9f1_7e09_5d76,
    },
    TreePin {
        label: "season/500000",
        nodes: 30_210,
        truncated: false,
        hash: 0x903a_2150_2b53_f624,
    },
    TreePin {
        label: "region-season/30000",
        nodes: 30_000,
        truncated: true,
        hash: 0x0463_18ac_bde8_c43b,
    },
];

fn table() -> Table {
    FlightsConfig { rows: 6_000, seed: 42 }.generate()
}

/// Cancellation probability by region and season.
fn region_season(table: &Table) -> Query {
    Query::builder(AggFct::Avg)
        .group_by(DimId(0), LevelId(1))
        .group_by(DimId(1), LevelId(1))
        .build(table.schema())
        .unwrap()
}

/// Cancellation probability by region — same scope as `region_season`.
fn region(table: &Table) -> Query {
    Query::builder(AggFct::Avg).group_by(DimId(0), LevelId(1)).build(table.schema()).unwrap()
}

/// Cancellation probability by season.
fn season(table: &Table) -> Query {
    Query::builder(AggFct::Avg).group_by(DimId(1), LevelId(1)).build(table.schema()).unwrap()
}

/// Cancellation probability in Winter, by region.
fn winter_by_region(table: &Table) -> Query {
    let winter = table.schema().dimension(DimId(1)).member_by_phrase("Winter").unwrap();
    Query::builder(AggFct::Avg)
        .filter(DimId(1), winter)
        .group_by(DimId(0), LevelId(1))
        .build(table.schema())
        .unwrap()
}

fn config(seed: u64) -> HolisticConfig {
    HolisticConfig {
        seed,
        min_samples_per_sentence: 300,
        max_tree_nodes: 30_000,
        resample_size: 200,
        ..HolisticConfig::default()
    }
}

/// The single-threaded engine, reached through both public constructors.
fn engines(cfg: &HolisticConfig) -> [Box<dyn Vocalizer>; 2] {
    [
        Box::new(Holistic::new(cfg.clone())),
        Box::new(ParallelHolistic::new(cfg.clone()).with_threads(1)),
    ]
}

fn run(v: &dyn Vocalizer, table: &Table, query: &Query) -> VocalizationOutcome {
    let mut voice = InstantVoice::default();
    v.vocalize(table, query, &mut voice)
}

fn check(label: &str, outcome: &VocalizationOutcome) {
    let Some(pin) = PINS.iter().find(|p| p.label == label) else {
        panic!(
            "no pin {label:?}: sentences {:?}, samples {}, rows_read {}",
            outcome.sentences, outcome.stats.samples, outcome.stats.rows_read
        );
    };
    assert_eq!(outcome.sentences, pin.sentences, "{label}: sentences");
    assert_eq!(outcome.stats.samples, pin.samples, "{label}: samples");
    assert_eq!(outcome.stats.rows_read, pin.rows_read, "{label}: rows read");
}

/// 64-bit FNV-1a over every node in id order: its parent id, its
/// sentence, and its payload bits (a baseline's value, a refinement's
/// delta and implied value).
fn tree_hash(tree: &SpeechTree, renderer: &Renderer<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for node in tree.all_nodes() {
        let parent = tree.tree().parent(node).map_or(u32::MAX, |p| p.0);
        feed(&parent.to_le_bytes());
        feed(tree.sentence(node, renderer).unwrap_or_default().as_bytes());
        match tree.tree().data(node) {
            NodeKind::Root => {}
            NodeKind::Baseline(b) => feed(&b.value.to_bits().to_le_bytes()),
            NodeKind::Refinement { delta, implied_value, .. } => {
                feed(&delta.to_bits().to_le_bytes());
                feed(&implied_value.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// Ingest rows duplicating the table's own prefix, valid under the
/// existing dictionaries.
fn echo_rows(table: &Table, n: usize) -> Vec<IngestRow> {
    let schema = table.schema();
    (0..n)
        .map(|row| IngestRow {
            dims: (0..schema.dimensions().len())
                .map(|d| {
                    let dim = DimId(d as u8);
                    let m = table.member_at(dim, row);
                    DimValue::Phrase(schema.dimension(dim).member(m).phrase.clone())
                })
                .collect(),
            values: (0..schema.measures().len())
                .map(|m| table.measure_value(MeasureId(m as u8), row))
                .collect(),
        })
        .collect()
}

#[test]
fn cold_runs_match_pins() {
    let t = table();
    for seed in [42u64, 7] {
        for (qname, q) in
            [("region-season", region_season(&t)), ("winter-region", winter_by_region(&t))]
        {
            for engine in engines(&config(seed)) {
                check(&format!("cold/{qname}/{seed}"), &run(engine.as_ref(), &t, &q));
            }
        }
    }
}

#[test]
fn semantic_cache_paths_match_pins() {
    let t = table();
    // A partial donor (no exhaustive scan) warm-starts a same-scope query.
    let light = HolisticConfig { min_samples_per_sentence: 100, ..config(42) };
    for make in [
        |cfg: &HolisticConfig, c: &Arc<SemanticCache>| -> Box<dyn Vocalizer> {
            Box::new(Holistic::new(cfg.clone()).with_cache(c.clone()))
        },
        |cfg: &HolisticConfig, c: &Arc<SemanticCache>| -> Box<dyn Vocalizer> {
            Box::new(ParallelHolistic::new(cfg.clone()).with_threads(1).with_cache(c.clone()))
        },
    ] {
        let cache = Arc::new(SemanticCache::with_capacity_mb(8));
        let engine = make(&light, &cache);
        check("cache/partial-donor", &run(engine.as_ref(), &t, &region_season(&t)));
        check("cache/warm-start", &run(engine.as_ref(), &t, &region(&t)));
        assert_eq!(cache.stats().warm_hits, 1);

        // An exhaustive run admits exact aggregates: its repeat is an exact
        // hit; after an append the entry is invalidated and the snapshot
        // repaired from the appended suffix.
        let cache = Arc::new(SemanticCache::with_capacity_mb(8));
        let engine = make(&config(42), &cache);
        let q = region_season(&t);
        check("cache/exhaustive", &run(engine.as_ref(), &t, &q));
        check("cache/exact-hit", &run(engine.as_ref(), &t, &q));
        let (grown, _) = t.append_rows(&echo_rows(&t, 250)).unwrap();
        let q = region_season(&grown);
        check("cache/after-append", &run(engine.as_ref(), &grown, &q));
        check("cache/after-append-repeat", &run(engine.as_ref(), &grown, &q));
        let stats = cache.stats();
        assert_eq!(stats.exact_hits, 2, "{stats:?}");
        assert_eq!(stats.exact_invalidations, 1, "{stats:?}");
        assert_eq!(stats.snapshot_repairs, 1, "{stats:?}");
    }
}

#[test]
fn uncertainty_modes_match_pins() {
    let t = table();
    let q = region_season(&t);
    for (name, mode) in [
        ("off", UncertaintyMode::Off),
        ("warning", UncertaintyMode::Warning { max_relative_width: 0.5 }),
        ("bounds", UncertaintyMode::SpokenBounds),
    ] {
        let cfg = HolisticConfig { uncertainty: mode, ..config(42) };
        for engine in engines(&cfg) {
            check(&format!("uncertainty/{name}"), &run(engine.as_ref(), &t, &q));
        }
    }
}

#[test]
fn uniform_random_policy_matches_pins() {
    let t = table();
    let cfg = HolisticConfig { policy: SelectionPolicy::UniformRandom, ..config(42) };
    for engine in engines(&cfg) {
        check("policy/uniform-random", &run(engine.as_ref(), &t, &region_season(&t)));
    }
}

#[test]
fn unmerged_iteration_budget_matches_pins() {
    let t = table();
    let unmerged = Unmerged::new(UnmergedConfig {
        budget: SamplingBudget::Iterations(1_500),
        max_tree_nodes: 30_000,
        resample_size: 200,
        ..UnmergedConfig::default()
    });
    check("unmerged/region-season", &run(&unmerged, &t, &region_season(&t)));
    check("unmerged/winter-region", &run(&unmerged, &t, &winter_by_region(&t)));
}

#[test]
fn speech_trees_match_pins() {
    let t = table();
    let cfg = HolisticConfig::default();
    for (label, q, cap) in [
        ("region/500000", region(&t), 500_000),
        ("season/500000", season(&t), 500_000),
        ("region-season/30000", region_season(&t), 30_000),
    ] {
        let schema = t.schema();
        let generator = CandidateGenerator::new(schema, &q, cfg.candidates.clone());
        let renderer = Renderer::new(schema, &q);
        let overall = evaluate(&q, &t).grand_mean();
        let tree = SpeechTree::build(&generator, &renderer, &cfg.constraints, overall, cap);
        let (nodes, truncated) = (tree.tree().node_count(), tree.truncated());
        let hash = tree_hash(&tree, &renderer);
        let Some(pin) = TREE_PINS.iter().find(|p| p.label == label) else {
            panic!(
                "no tree pin {label:?}: nodes {nodes}, truncated {truncated}, hash {hash:#018x}"
            );
        };
        assert_eq!(
            (nodes, truncated, hash),
            (pin.nodes, pin.truncated, pin.hash),
            "{label}: nodes, truncated, hash {hash:#018x}"
        );
    }
}

#[test]
fn exact_hit_at_the_default_node_cap_matches_pin() {
    let t = table();
    let q = region(&t);
    let cfg =
        HolisticConfig { max_tree_nodes: HolisticConfig::default().max_tree_nodes, ..config(42) };
    let cache = Arc::new(SemanticCache::with_capacity_mb(8));
    let engine = Holistic::new(cfg).with_cache(cache.clone());
    run(&engine, &t, &q);
    check("cache/exact-hit-region-500000", &run(&engine, &t, &q));
    assert_eq!(cache.stats().exact_hits, 1);
}
