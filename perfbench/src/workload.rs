//! Workload definitions and seeded input generation. The server only
//! ever sees the requests generated here; the same seed gives the same
//! inputs.

use voxolap_data::flights::FlightsConfig;
use voxolap_data::schema::MeasureId;
use voxolap_data::{DimId, DimValue, IngestRow, Table};
use voxolap_json::Value;
use voxolap_voice::session::{Response, Session};

/// The synthetic flights table the server generates (its `--rows` /
/// `--scale-rows` flag uses seed 42); the benchmark builds the same one
/// to score answers and to replay them in-process.
pub fn flights(rows: usize) -> Table {
    FlightsConfig { rows, seed: 42 }.generate()
}

/// Fact rows of the generated table, on every workload.
pub const ROWS: usize = 200_000;

/// Semantic-cache budget in MiB (the server default), on every workload.
pub const CACHE_MB: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SessionRepeat,
    IngestMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "session-repeat" => Some(Workload::SessionRepeat),
            "ingest-mixed" => Some(Workload::IngestMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SessionRepeat => "session-repeat",
            Workload::IngestMixed => "ingest-mixed",
        }
    }

    /// Server flags besides `--port` and `--data-dir`.
    pub fn server_flags(self) -> Vec<String> {
        let mut flags = vec!["--rows".to_string(), ROWS.to_string()];
        flags.extend(["--cache-mb".to_string(), CACHE_MB.to_string()]);
        if self == Workload::IngestMixed {
            flags.extend(["--fsync-mode".to_string(), "batch".to_string()]);
        }
        flags
    }

    /// Whether the server runs with a fresh `--data-dir`.
    pub fn durable(self) -> bool {
        self == Workload::IngestMixed
    }

    /// The question mix asked over `POST /query/stream`, each question
    /// with its count per pass (empty for the session workload).
    pub fn questions(self) -> &'static [(&'static str, usize)] {
        match self {
            Workload::SessionRepeat => &[],
            Workload::IngestMixed => &INGEST_QUESTIONS,
        }
    }
}

/// `ingest-mixed`: small breakdowns whose exact cache entries every
/// append invalidates and whose sample snapshots need suffix repair. The
/// weights put the TTFS median among the season answers rather than on
/// the boundary between two questions' answers.
pub const INGEST_QUESTIONS: [(&str, usize); 4] = [
    ("cancellation probability by region", 2),
    ("cancellation probability by season", 2),
    ("cancellation probability in the North East by season", 1),
    ("cancellation probability in Winter by region", 1),
];

/// One pass through a question mix in seeded order.
pub fn pass(mix: &[(&'static str, usize)], rng: &mut Rng) -> Vec<&'static str> {
    let all: Vec<&'static str> = mix.iter().flat_map(|&(q, n)| std::iter::repeat_n(q, n)).collect();
    rng.permutation(all.len()).into_iter().map(|i| all[i]).collect()
}

/// Rows per `POST /ingest` batch. Every append copies the table, so
/// small batches keep the table from outgrowing its starting size many
/// times over within one run.
pub const INGEST_BATCH_ROWS: usize = 20;

/// Utterances a session connection sends before it is recycled (`quit`,
/// then a new session id).
pub const TURNS_PER_SESSION: usize = 6;

/// Session commands the walk chooses from.
pub const SESSION_COMMANDS: [&str; 8] = [
    "break down by region",
    "break down by season",
    "only the north east",
    "winter",
    "remove the start airport",
    "remove the flight date",
    "clear filters",
    "roll up the flight date",
];

/// The query states a `session-repeat` walk may visit, with the weight
/// that makes some of them hot. Every kept state has at most five result
/// aggregates: wider states (region × season unfiltered, anything by
/// airline) take seconds per exact-hit replan and would leave a run with
/// a handful of answers.
pub const SESSION_STATES: [(&str, u32); 11] = [
    ("region", 4),
    ("season", 4),
    ("region | the North East", 2),
    ("season | Winter", 2),
    ("region | Winter", 2),
    ("season | the North East", 2),
    ("region, season | the North East", 1),
    ("region, season | Winter", 1),
    ("region | the North East, Winter", 1),
    ("season | the North East, Winter", 1),
    ("region, season | the North East, Winter", 1),
];

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Describe a session's query state as `"<levels> | <filters>"`, the
/// form [`SESSION_STATES`] lists.
pub fn describe(session: &Session<'_>, table: &Table) -> String {
    let schema = table.schema();
    let mut group: Vec<_> = session.breakdown().to_vec();
    group.sort();
    let mut filters: Vec<_> = session.current_filters().to_vec();
    filters.sort();
    let levels: Vec<&str> = group.iter().map(|&(d, l)| schema.dimension(d).level_name(l)).collect();
    let members: Vec<&str> =
        filters.iter().map(|&(d, m)| schema.dimension(d).member(m).phrase.as_str()).collect();
    if members.is_empty() {
        levels.join(", ")
    } else {
        format!("{} | {}", levels.join(", "), members.join(", "))
    }
}

fn state_weight(state: &str) -> Option<u32> {
    SESSION_STATES.iter().find(|(s, _)| *s == state).map(|&(_, w)| w)
}

/// One session's seeded walk over [`SESSION_STATES`].
pub struct Walk {
    log: Vec<String>,
    rng: Rng,
}

impl Walk {
    pub fn new(rng: Rng) -> Walk {
        Walk { log: Vec::new(), rng }
    }

    /// Commands already applied in the current session (the log the
    /// server replays before each new utterance).
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Start a new session (after `quit`).
    pub fn reset(&mut self) {
        self.log.clear();
    }

    /// The state each command would lead to from the current one, for
    /// the commands whose target is a kept state.
    fn moves(&self, table: &Table) -> Vec<(&'static str, String)> {
        SESSION_COMMANDS
            .iter()
            .filter_map(|&cmd| {
                let mut session = Session::new(table);
                for c in &self.log {
                    session.input(c).ok()?;
                }
                match session.input(cmd) {
                    Ok(Response::Updated) => {
                        let state = describe(&session, table);
                        state_weight(&state).map(|_| (cmd, state))
                    }
                    _ => None,
                }
            })
            .collect()
    }

    /// Pick the next command. A session's first command is chosen by
    /// `start`, so runs open equally many sessions by region and by season
    /// whatever the seed; later commands are weighted by their target
    /// state's weight. When `prefer` names unvisited states, a move to one
    /// of them wins (the warm-up uses this to fill the cache with every
    /// kept state).
    pub fn next(&mut self, table: &Table, prefer: &[&str], start: usize) -> (&'static str, String) {
        let mut moves = self.moves(table);
        assert!(!moves.is_empty(), "every kept state has a kept successor");
        if self.log.is_empty() && prefer.is_empty() {
            moves = vec![moves.swap_remove(start % moves.len())];
        }
        let fresh: Vec<_> = moves.iter().filter(|(_, s)| prefer.contains(&s.as_str())).collect();
        let (cmd, state) = if let Some(&m) = fresh.first() {
            m.clone()
        } else {
            let total: u32 = moves.iter().map(|(_, s)| state_weight(s).unwrap_or(0)).sum();
            let mut pick = self.rng.below(total as usize) as u32;
            moves
                .iter()
                .find(|(_, s)| {
                    let w = state_weight(s).unwrap_or(0);
                    if pick < w {
                        true
                    } else {
                        pick -= w;
                        false
                    }
                })
                .expect("pick is below the total weight")
                .clone()
        };
        self.log.push(cmd.to_string());
        (cmd, state)
    }
}

/// One seeded ingest batch: `INGEST_BATCH_ROWS` copies of existing rows
/// (so every batch is valid and creates no new members), as the NDJSON
/// body and as the rows the in-process replay appends.
pub fn ingest_batch(table: &Table, rng: &mut Rng) -> (String, Vec<IngestRow>) {
    let schema = table.schema();
    let mut body = String::new();
    let mut rows = Vec::with_capacity(INGEST_BATCH_ROWS);
    for _ in 0..INGEST_BATCH_ROWS {
        let row = rng.below(table.row_count());
        let dims: Vec<String> = (0..schema.dimensions().len())
            .map(|d| {
                let dim = DimId(d as u8);
                schema.dimension(dim).member(table.member_at(dim, row)).phrase.clone()
            })
            .collect();
        let values: Vec<f64> = (0..schema.measures().len())
            .map(|m| table.measure_value(MeasureId(m as u8), row))
            .collect();
        let line = Value::obj([
            ("dims", dims.iter().map(|s| Value::from(s.as_str())).collect::<Vec<_>>().into()),
            ("values", values.clone().into()),
        ]);
        body.push_str(&line.to_string());
        body.push('\n');
        rows.push(IngestRow { dims: dims.into_iter().map(DimValue::Phrase).collect(), values });
    }
    (body, rows)
}
