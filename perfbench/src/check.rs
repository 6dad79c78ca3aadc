//! Output checks: failure accounting by cause, and scoring each answer's
//! speech against the exact result of the same query on the same table.

use std::collections::BTreeMap;

use voxolap_belief::model::BeliefModel;
use voxolap_belief::quality::speech_quality;
use voxolap_data::Table;
use voxolap_engine::exact::{evaluate, ExactResult};
use voxolap_engine::query::Query;
use voxolap_speech::{parse_body, CompiledSpeech};

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    /// A non-2xx answer (a `503` included; nothing is retried).
    Status,
    /// The connection broke or timed out mid-operation.
    Io,
    /// The answer stream ended without a `done` record.
    MissingDone,
    /// The server sent an `error` event.
    ErrorEvent,
    /// `parse_body` rejected the spoken answer.
    Unparseable,
    /// An answer marked `stale` without `degraded`.
    StaleNotDegraded,
    /// An ingest ack whose `version` is not the next one.
    IngestVersion,
    /// The final `/stats` row count is not the initial count plus the
    /// acknowledged rows.
    RowCount,
}

impl Cause {
    pub fn name(self) -> &'static str {
        match self {
            Cause::Status => "non_2xx",
            Cause::Io => "io",
            Cause::MissingDone => "missing_done",
            Cause::ErrorEvent => "error_event",
            Cause::Unparseable => "unparseable_body",
            Cause::StaleNotDegraded => "stale_not_degraded",
            Cause::IngestVersion => "ingest_version",
            Cause::RowCount => "row_count",
        }
    }
}

/// Attempted and failed operations, failures by cause.
#[derive(Debug, Default)]
pub struct Failures {
    pub attempted: u64,
    pub by_cause: BTreeMap<Cause, u64>,
    /// The first few failure messages, for the report.
    pub examples: Vec<String>,
}

impl Failures {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, cause: Cause, detail: impl Into<String>) {
        *self.by_cause.entry(cause).or_default() += 1;
        if self.examples.len() < 5 {
            self.examples.push(format!("{}: {}", cause.name(), detail.into()));
        }
    }

    pub fn failed(&self) -> u64 {
        self.by_cause.values().sum()
    }

    pub fn rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// The paper's speech quality (Definition 2.2) of a spoken answer body
/// against `exact`, with σ = grand mean / 2 as the planner uses. `Err`
/// when the body does not parse back into a speech.
pub fn quality(
    table: &Table,
    query: &Query,
    exact: &ExactResult,
    body: &str,
) -> Result<f64, String> {
    let speech = parse_body(body, table.schema(), query).map_err(|e| e.to_string())?;
    let grand = exact.grand_mean();
    if !grand.is_finite() || grand == 0.0 {
        return Ok(0.0);
    }
    let model = BeliefModel::from_overall_mean(grand);
    let compiled = CompiledSpeech::compile(&speech, query.layout(), table.schema());
    Ok(speech_quality(&compiled, &model, exact, query.layout()))
}

/// Exact results memoized per query text, for one table revision.
pub struct ExactCache<'t> {
    table: &'t Table,
    results: BTreeMap<String, ExactResult>,
}

impl<'t> ExactCache<'t> {
    pub fn new(table: &'t Table) -> Self {
        ExactCache { table, results: BTreeMap::new() }
    }

    pub fn get(&mut self, query: &Query) -> &ExactResult {
        let key = format!("{:?}", query.key());
        self.results.entry(key).or_insert_with(|| evaluate(query, self.table))
    }
}
