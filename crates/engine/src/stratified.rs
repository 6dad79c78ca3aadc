//! Stratified row streaming.
//!
//! The paper's cache fills from rows in random order, which starves rare
//! sub-populations: an aggregate covering 0.1 % of rows needs ~1 000
//! streamed rows per cache entry. The paper notes the approach "could be
//! extended using prior work on sampling in the context of OLAP (e.g.,
//! specialized indexing structures) to retrieve estimates for particularly
//! small data subsets" (§4.3). This module is that extension: a one-pass
//! index of row ids per result aggregate (the in-memory analogue of
//! materialized sample views), streamed round-robin so every aggregate
//! receives cache entries at the same rate regardless of its share of the
//! data.
//!
//! Trade-off: per-aggregate streaming order is uniform *within* an
//! aggregate, but global order is no longer uniform over rows — count/sum
//! estimators based on `nr_read` would be biased, so stratified streaming
//! is intended for AVG queries (where only per-bucket means matter).
//! [`StratifiedScanner::next_row`] documents this contract.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use voxolap_data::dimension::MemberId;
use voxolap_data::table::Row;
use voxolap_data::{DimId, Table};

use crate::query::{Query, ResultLayout};

/// Per-aggregate row index over one table for one query
/// (the "materialized sample view").
#[derive(Debug, Clone)]
pub struct AggregateIndex {
    /// Row ids per aggregate, shuffled.
    rows_per_agg: Vec<Vec<u32>>,
}

impl AggregateIndex {
    /// Build the index with a single scan; row lists are shuffled with
    /// `seed` so streaming prefixes are uniform samples of each aggregate.
    pub fn build(table: &Table, query: &Query, seed: u64) -> Self {
        let layout: &ResultLayout = query.layout();
        let mut rows_per_agg = vec![Vec::new(); layout.n_aggregates()];
        let n_dims = table.schema().dimensions().len();
        let mut members = vec![MemberId::ROOT; n_dims];
        for row in 0..table.row_count() {
            for (d, slot) in members.iter_mut().enumerate() {
                *slot = table.member_at(DimId(d as u8), row);
            }
            if let Some(agg) = layout.agg_of_row(&members) {
                rows_per_agg[agg as usize].push(row as u32);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for rows in &mut rows_per_agg {
            rows.shuffle(&mut rng);
        }
        AggregateIndex { rows_per_agg }
    }

    /// Number of rows indexed for one aggregate.
    pub fn rows_in(&self, agg: u32) -> usize {
        self.rows_per_agg[agg as usize].len()
    }

    /// Total in-scope rows.
    pub fn total_rows(&self) -> usize {
        self.rows_per_agg.iter().map(Vec::len).sum()
    }

    /// Stream the indexed rows round-robin across aggregates.
    pub fn scan<'a>(&'a self, table: &'a Table) -> StratifiedScanner<'a> {
        StratifiedScanner {
            index: self,
            table,
            agg_cursor: 0,
            depth: 0,
            emitted: 0,
            buf: vec![MemberId::ROOT; table.schema().dimensions().len()],
        }
    }
}

/// Round-robin scanner over an [`AggregateIndex`].
///
/// Delivery order: the first row of every non-empty aggregate, then the
/// second of each, and so on — so after `k × n_aggregates` rows every
/// aggregate with ≥ k rows has exactly `k` cache entries. Yields the
/// **primary** measure; per-row global uniformity is deliberately given up
/// (see module docs), so use only where per-aggregate means are what
/// matters (AVG).
#[derive(Debug)]
pub struct StratifiedScanner<'a> {
    index: &'a AggregateIndex,
    table: &'a Table,
    agg_cursor: usize,
    depth: usize,
    emitted: usize,
    buf: Vec<MemberId>,
}

impl<'a> StratifiedScanner<'a> {
    /// Rows delivered so far.
    pub fn rows_read(&self) -> usize {
        self.emitted
    }

    /// Deliver the next row together with its aggregate index, or `None`
    /// when every indexed row has been streamed.
    pub fn next_row(&mut self) -> Option<(u32, Row<'_>)> {
        let n_aggs = self.index.rows_per_agg.len();
        if n_aggs == 0 || self.emitted >= self.index.total_rows() {
            return None;
        }
        loop {
            if self.agg_cursor == n_aggs {
                self.agg_cursor = 0;
                self.depth += 1;
            }
            let agg = self.agg_cursor;
            self.agg_cursor += 1;
            if let Some(&row) = self.index.rows_per_agg[agg].get(self.depth) {
                let row = row as usize;
                for (d, slot) in self.buf.iter_mut().enumerate() {
                    *slot = self.table.member_at(DimId(d as u8), row);
                }
                self.emitted += 1;
                return Some((
                    agg as u32,
                    Row { members: &self.buf, value: self.table.value_at(row) },
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggFct;
    use crate::sharded::ShardedSampleCache;
    use voxolap_data::dimension::LevelId;
    use voxolap_data::flights::FlightsConfig;

    fn setup() -> (voxolap_data::Table, Query) {
        let table = FlightsConfig { rows: 30_000, seed: 42 }.generate();
        // Region x season: the US-territories cells hold ~0.75% of rows.
        let q = Query::builder(AggFct::Avg)
            .group_by(DimId(0), LevelId(1))
            .group_by(DimId(1), LevelId(1))
            .build(table.schema())
            .unwrap();
        (table, q)
    }

    #[test]
    fn index_covers_every_in_scope_row_exactly_once() {
        let (table, q) = setup();
        let index = AggregateIndex::build(&table, &q, 7);
        assert_eq!(index.total_rows(), table.row_count(), "full-scope query");
        let mut scan = index.scan(&table);
        let mut seen = 0usize;
        while scan.next_row().is_some() {
            seen += 1;
        }
        assert_eq!(seen, table.row_count());
    }

    #[test]
    fn round_robin_equalizes_early_coverage() {
        let (table, q) = setup();
        let index = AggregateIndex::build(&table, &q, 7);
        let n_aggs = q.n_aggregates();
        let mut scan = index.scan(&table);
        let mut counts = vec![0usize; n_aggs];
        // One full round: every aggregate gets exactly one row.
        for _ in 0..n_aggs {
            let (agg, _) = scan.next_row().unwrap();
            counts[agg as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
        // Contrast with the shuffled scan: after n_aggs rows the rarest
        // aggregate (US territories in Fall, ~0.2% of rows) is almost
        // certainly still empty there.
    }

    #[test]
    fn rare_aggregates_get_cache_entries_immediately() {
        let (table, q) = setup();
        let index = AggregateIndex::build(&table, &q, 7);
        // Feed the first 3 rounds into a cache.
        let cache = ShardedSampleCache::new(q.n_aggregates(), table.row_count() as u64);
        let mut scan = index.scan(&table);
        for _ in 0..(3 * q.n_aggregates()) {
            let Some((_, row)) = scan.next_row() else { break };
            cache.observe(q.layout().agg_of_row(row.members), row.value);
        }
        for agg in 0..q.n_aggregates() as u32 {
            let expect = index.rows_in(agg).min(3);
            assert_eq!(cache.size(agg), expect, "aggregate {agg}");
        }
    }

    #[test]
    fn streamed_rows_carry_correct_aggregates() {
        let (table, q) = setup();
        let index = AggregateIndex::build(&table, &q, 9);
        let mut scan = index.scan(&table);
        for _ in 0..500 {
            let Some((agg, row)) = scan.next_row() else { break };
            assert_eq!(q.layout().agg_of_row(row.members), Some(agg));
        }
    }

    #[test]
    fn filtered_queries_index_only_their_scope() {
        let table = FlightsConfig { rows: 10_000, seed: 42 }.generate();
        let schema = table.schema();
        let winter = schema.dimension(DimId(1)).member_by_phrase("Winter").unwrap();
        let q = Query::builder(AggFct::Avg)
            .filter(DimId(1), winter)
            .group_by(DimId(0), LevelId(1))
            .build(schema)
            .unwrap();
        let index = AggregateIndex::build(&table, &q, 3);
        assert!(index.total_rows() < table.row_count());
        assert!(index.total_rows() > table.row_count() / 8, "winter is ~1/4 of rows");
    }
}
