//! Mixed append + query workload over a live table (DESIGN.md §16),
//! written to `BENCH_ingest.json`.
//!
//! Concurrent traffic against one [`LiveTable`] and one shared semantic
//! cache: driver threads run distinct-scope queries while the main thread
//! publishes append batches — one before each round and one *while* the
//! round's queries are planning (their version pins make that safe). The
//! record reports:
//!
//! 1. **Cache effectiveness under churn** — warm-hit rate and exact
//!    invalidations when every round makes all cached entries stale.
//! 2. **Repair cost** — rows read by snapshot repairs, which must track
//!    the appended suffix (a few batches), not the table size.
//! 3. **Latency** — cold (empty cache) vs post-append warm p50s.
//!
//! 4. **Durability overhead** — a wal-on vs wal-off ingest series
//!    (DESIGN.md §17): the same append stream committed through the
//!    write-ahead log (at the header's `fsync_mode`) and straight into
//!    memory, so the record prices what `--data-dir` costs per batch.
//!
//! ```text
//! cargo run --release --bin mixed_workload \
//!     [--rows N] [--rounds N] [--batch N] [--drivers N] [--smoke] [--out PATH]
//!     [--data-dir PATH] [--fsync-mode always|batch|off]
//! ```
//!
//! Appends that fail with a transient WAL error back off and retry under
//! the shared [`RetryPolicy`] (the in-process analog of the server's
//! `503` + `Retry-After`) instead of aborting the run; retries are
//! counted in the record's `ingest` section.
//!
//! `--smoke` shrinks the run for CI and exits non-zero after writing the
//! record if no snapshot was repaired, a repair read more than its
//! possible suffix, or a stale serve went unmarked on the answer.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voxolap_bench::{arg_usize, experiment_holistic, fig3_queries, flights_table, HostInfo};
use voxolap_core::approach::Vocalizer;
use voxolap_core::voice::InstantVoice;
use voxolap_data::schema::MeasureId;
use voxolap_data::{
    DataError, DimId, DimValue, DurabilityOptions, DurableTable, FsyncMode, IngestRow, LiveTable,
    Table,
};
use voxolap_engine::semantic::SemanticCache;
use voxolap_faults::RetryPolicy;
use voxolap_json::Value;
use voxolap_server::percentile;

/// Clone `n` existing rows (cycling from `start`) as an ingest batch, so
/// appends are always valid under the flights schema and create no new
/// dictionary members.
fn echo_rows(table: &Table, start: usize, n: usize) -> Vec<IngestRow> {
    let schema = table.schema();
    (0..n)
        .map(|i| {
            let row = (start + i) % table.row_count();
            IngestRow {
                dims: (0..schema.dimensions().len())
                    .map(|d| {
                        let id = DimId(d as u8);
                        let member = table.member_at(id, row);
                        DimValue::Phrase(schema.dimension(id).member(member).phrase.clone())
                    })
                    .collect(),
                values: (0..schema.measures().len())
                    .map(|m| table.measure_value(MeasureId(m as u8), row))
                    .collect(),
            }
        })
        .collect()
}

/// One driver query: pin the current revision, plan with the shared
/// cache, return (latency_ms, rows_read, marked_stale).
fn run_query(live: &LiveTable, cache: &Arc<SemanticCache>, scope_idx: usize) -> (f64, u64, bool) {
    let table = live.snapshot();
    let (_, query) = fig3_queries(&table).swap_remove(scope_idx);
    let vocalizer = experiment_holistic(42).with_cache(Arc::clone(cache));
    let mut voice = InstantVoice::default();
    let t0 = Instant::now();
    let outcome = vocalizer.vocalize(&table, &query, &mut voice);
    (t0.elapsed().as_secs_f64() * 1e3, outcome.stats.rows_read, outcome.stats.stale)
}

/// The backoff shared with the HTTP bench clients: transient WAL errors
/// are the in-process face of the server's `503` + `Retry-After`.
fn bench_retry_policy() -> RetryPolicy {
    RetryPolicy { max_retries: 4, base: Duration::from_millis(20), cap: Duration::from_millis(250) }
}

/// Append with jittered-backoff retries on transient WAL errors. A
/// poisoned log (failed fsync) keeps erroring, so retries exhaust fast
/// and the error still surfaces.
fn append_with_retry(
    table: &DurableTable,
    rows: &[IngestRow],
    policy: &RetryPolicy,
    token: u64,
    retries: &AtomicU64,
) -> Result<(), DataError> {
    let mut attempt = 0;
    loop {
        match table.append_rows(rows) {
            Err(DataError::Wal { .. }) if attempt < policy.max_retries => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(policy.delay(attempt, token));
                attempt += 1;
            }
            other => return other.map(|_| ()),
        }
    }
}

/// Drive `batches` appends of `batch` rows into `table`, timing each
/// publish; returns (per-append ms samples, wall seconds).
fn drive_ingest(
    table: &DurableTable,
    base: &Table,
    batch: usize,
    batches: usize,
    policy: &RetryPolicy,
    retries: &AtomicU64,
) -> (Vec<f64>, f64) {
    let mut per_append_ms = Vec::with_capacity(batches);
    let t0 = Instant::now();
    for b in 0..batches {
        let rows = echo_rows(base, b * batch, batch);
        let a0 = Instant::now();
        append_with_retry(table, &rows, policy, b as u64, retries).expect("ingest-series append");
        per_append_ms.push(a0.elapsed().as_secs_f64() * 1e3);
    }
    (per_append_ms, t0.elapsed().as_secs_f64())
}

fn ingest_mode_json(per_append_ms: &[f64], wall_s: f64, batch: usize) -> Value {
    let rows = (per_append_ms.len() * batch) as f64;
    Value::obj([
        ("batches", per_append_ms.len().into()),
        ("append_ms", dist_json(per_append_ms)),
        ("rows_per_s", (rows / wall_s).into()),
    ])
}

fn dist_json(samples: &[f64]) -> Value {
    Value::obj([
        ("count", samples.len().into()),
        ("p50", percentile(samples, 50.0).into()),
        ("p90", percentile(samples, 90.0).into()),
        ("p99", percentile(samples, 99.0).into()),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rows = arg_usize("--rows", if smoke { 20_000 } else { 200_000 });
    let rounds = arg_usize("--rounds", if smoke { 3 } else { 6 });
    let batch = arg_usize("--batch", if smoke { 400 } else { 2_000 });
    let host = HostInfo::detect();
    // The first six Figure-3 scopes are the narrow ones (tens of
    // aggregates); one driver thread per scope keeps repairs attributable.
    let drivers = arg_usize("--drivers", host.cores.clamp(2, 6)).clamp(1, 6);
    let arg_str = |key: &str| {
        let args: Vec<String> = std::env::args().collect();
        args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
    };
    let out = arg_str("--out").unwrap_or_else(|| "BENCH_ingest.json".to_string());
    let fsync_mode = match FsyncMode::parse(arg_str("--fsync-mode").as_deref().unwrap_or("batch")) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let data_dir = arg_str("--data-dir").map(PathBuf::from);
    eprintln!(
        "mixed_workload: rows={rows} rounds={rounds} batch={batch} drivers={drivers} fsync={}",
        fsync_mode.name()
    );

    let base = flights_table(rows);
    let durable = match &data_dir {
        Some(dir) => {
            let options = DurabilityOptions { fsync_mode, ..DurabilityOptions::default() };
            let (durable, recovery) =
                DurableTable::open(base.clone(), dir, options).expect("open data dir");
            eprintln!(
                "durability: data-dir={} recovered version={} ({} wal batches)",
                dir.display(),
                recovery.version,
                recovery.replayed_batches
            );
            durable
        }
        None => DurableTable::memory(base.clone()),
    };
    let live: &LiveTable = durable.live();
    let retry_policy = bench_retry_policy();
    let append_retries = AtomicU64::new(0);
    let cache = Arc::new(SemanticCache::with_capacity_mb(64));
    let marked_stale = AtomicU64::new(0);

    // ---- Phase 1: cold queries against the empty cache ----------------
    // Run them with the same concurrency as the mixed rounds, so the
    // cold-vs-warm comparison isolates cache state from CPU contention.
    let mut cold_ms = Vec::with_capacity(drivers);
    let mut cold_rows = Vec::with_capacity(drivers);
    let cold_results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..drivers)
            .map(|d| {
                let live = &live;
                let cache = &cache;
                s.spawn(move || run_query(live, cache, d))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver")).collect::<Vec<_>>()
    });
    for (ms, rows_read, stale) in cold_results {
        cold_ms.push(ms);
        cold_rows.push(rows_read as f64);
        if stale {
            marked_stale.fetch_add(1, Ordering::Relaxed);
        }
    }
    let cold_p50 = percentile(&cold_ms, 50.0);
    eprintln!("cold: p50 {cold_p50:.1} ms over {drivers} scopes");

    // ---- Phase 2: concurrent append + query rounds ---------------------
    let mut appended_total = 0usize;
    let mut batches = 0usize;
    let mut warm_ms = Vec::with_capacity(rounds * drivers);
    let mut warm_rows = Vec::with_capacity(rounds * drivers);
    let mixed_t0 = Instant::now();
    for round in 0..rounds {
        append_with_retry(
            &durable,
            &echo_rows(&base, appended_total, batch),
            &retry_policy,
            round as u64,
            &append_retries,
        )
        .expect("append");
        appended_total += batch;
        batches += 1;
        let mid = echo_rows(&base, appended_total, batch);
        let round_results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..drivers)
                .map(|d| {
                    let live = &live;
                    let cache = &cache;
                    s.spawn(move || run_query(live, cache, d))
                })
                .collect();
            // Publish the next revision while the round's queries plan:
            // their pinned snapshots are unaffected, and the next round
            // repairs across both batches.
            append_with_retry(&durable, &mid, &retry_policy, round as u64, &append_retries)
                .expect("mid-round append");
            handles.into_iter().map(|h| h.join().expect("driver")).collect::<Vec<_>>()
        });
        appended_total += batch;
        batches += 1;
        for (ms, rows_read, stale) in round_results {
            warm_ms.push(ms);
            warm_rows.push(rows_read as f64);
            if stale {
                marked_stale.fetch_add(1, Ordering::Relaxed);
            }
        }
        eprintln!(
            "round {round}: table at {} rows (v{}), warm p50 so far {:.1} ms",
            live.snapshot().row_count(),
            live.version(),
            percentile(&warm_ms, 50.0)
        );
    }
    let mixed_s = mixed_t0.elapsed().as_secs_f64();

    // ---- Phase 3: wal-on vs wal-off ingest series ----------------------
    // The same append stream, once straight into memory and once
    // committed through the WAL at the chosen fsync mode, prices the
    // durability overhead per batch (DESIGN.md §17).
    let series_batches = if smoke { 4 } else { 16 };
    let wal_off_table = DurableTable::memory(base.clone());
    let (off_ms, off_s) =
        drive_ingest(&wal_off_table, &base, batch, series_batches, &retry_policy, &append_retries);
    let series_dir = data_dir.as_ref().map(|d| d.join("ingest-series")).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("voxolap-ingest-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&series_dir);
    let wal_on_table = DurableTable::open(
        base.clone(),
        &series_dir,
        DurabilityOptions { fsync_mode, ..DurabilityOptions::default() },
    )
    .expect("open ingest-series dir")
    .0;
    let (on_ms, on_s) =
        drive_ingest(&wal_on_table, &base, batch, series_batches, &retry_policy, &append_retries);
    let wal_bytes = wal_on_table.stats().map(|s| s.wal_bytes).unwrap_or(0);
    let fsyncs = wal_on_table.stats().map(|s| s.fsyncs).unwrap_or(0);
    drop(wal_on_table);
    let _ = std::fs::remove_dir_all(&series_dir);
    let off_p50 = percentile(&off_ms, 50.0);
    let on_p50 = percentile(&on_ms, 50.0);
    eprintln!(
        "ingest series ({series_batches}x{batch} rows): wal-off p50 {off_p50:.2} ms, \
         wal-on[{}] p50 {on_p50:.2} ms ({wal_bytes} wal bytes, {fsyncs} fsyncs)",
        fsync_mode.name()
    );

    // ---- Analysis ------------------------------------------------------
    let stats = cache.stats();
    let queries = (drivers + rounds * drivers) as u64;
    let warm_p50 = percentile(&warm_ms, 50.0);
    let marked = marked_stale.load(Ordering::Relaxed);
    // No faults are injected here, so every stale serve the cache counts
    // must surface as a `stale: true` answer — an unmarked one means a
    // wrong-version exact result was passed off as fresh.
    let unmarked_stale = stats.stale_serves.saturating_sub(marked);
    // A repaired snapshot's donor is at most three batches behind (the
    // previous round's mid-append plus the current round's two), and a
    // repair reads at most its suffix — so per-repair rows must stay
    // bounded by the churn, never the table.
    let max_suffix = (3 * batch) as u64;
    let repair_bounded = stats.repair_rows_read <= stats.snapshot_repairs * max_suffix;
    let avg_repair_rows = stats.repair_rows_read.checked_div(stats.snapshot_repairs).unwrap_or(0);
    eprintln!(
        "cache: {} repairs read {} rows (avg {avg_repair_rows}/repair, suffix cap {max_suffix}), \
         {} warm hits, {} exact invalidations",
        stats.snapshot_repairs, stats.repair_rows_read, stats.warm_hits, stats.exact_invalidations
    );

    let json = Value::obj([
        ("bench", "mixed_workload".into()),
        ("dataset", "flights".into()),
        ("rows", (rows as u64).into()),
        ("smoke", smoke.into()),
        ("host_cores", (host.cores as u64).into()),
        ("host_ram_bytes", host.ram_bytes.into()),
        ("fsync_mode", fsync_mode.name().into()),
        ("durable_workload", durable.is_durable().into()),
        (
            "workload",
            Value::obj([
                ("drivers", drivers.into()),
                ("rounds", rounds.into()),
                ("batch_rows", batch.into()),
                ("batches", batches.into()),
                ("appended_rows", appended_total.into()),
                ("final_version", live.version().into()),
                ("final_rows", live.snapshot().row_count().into()),
                ("queries", queries.into()),
                ("mixed_s", mixed_s.into()),
            ]),
        ),
        (
            "latency",
            Value::obj([
                ("cold_ms", dist_json(&cold_ms)),
                ("post_append_ms", dist_json(&warm_ms)),
                ("cold_rows_read_p50", percentile(&cold_rows, 50.0).into()),
                ("post_append_rows_read_p50", percentile(&warm_rows, 50.0).into()),
                ("warm_beats_cold", (warm_p50 < cold_p50).into()),
            ]),
        ),
        (
            "cache",
            Value::obj([
                ("exact_hits", stats.exact_hits.into()),
                ("warm_hits", stats.warm_hits.into()),
                ("misses", stats.misses.into()),
                ("warm_hit_rate", (stats.warm_hits as f64 / queries as f64).into()),
                ("exact_invalidations", stats.exact_invalidations.into()),
                ("snapshot_repairs", stats.snapshot_repairs.into()),
                ("repair_rows_read", stats.repair_rows_read.into()),
                ("avg_repair_rows", avg_repair_rows.into()),
                ("repair_suffix_cap_rows", max_suffix.into()),
                ("repair_reads_bounded", repair_bounded.into()),
                ("stale_serves", stats.stale_serves.into()),
                ("marked_stale_answers", marked.into()),
                ("unmarked_stale_answers", unmarked_stale.into()),
            ]),
        ),
        (
            "ingest",
            Value::obj([
                ("batch_rows", batch.into()),
                ("wal_off", ingest_mode_json(&off_ms, off_s, batch)),
                ("wal_on", ingest_mode_json(&on_ms, on_s, batch)),
                ("wal_on_overhead_x", (on_p50 / off_p50.max(1e-9)).into()),
                ("wal_bytes", wal_bytes.into()),
                ("fsyncs", fsyncs.into()),
                (
                    "retry",
                    Value::obj([
                        ("max_retries", retry_policy.max_retries.into()),
                        ("base_ms", (retry_policy.base.as_secs_f64() * 1e3).into()),
                        ("cap_ms", (retry_policy.cap.as_secs_f64() * 1e3).into()),
                        ("wal_retries", append_retries.load(Ordering::Relaxed).into()),
                    ]),
                ),
            ]),
        ),
    ]);
    std::fs::write(&out, format!("{json}\n")).expect("write benchmark record");
    eprintln!("wrote {out}");

    println!("## Mixed append + query workload ({rows} rows, {rounds} rounds)\n");
    println!("| metric | value |");
    println!("|---|---|");
    println!("| appended rows / batches | {appended_total} / {batches} |");
    println!("| cold p50 | {cold_p50:.1} ms |");
    println!("| post-append warm p50 | {warm_p50:.1} ms |");
    println!("| snapshot repairs | {} |", stats.snapshot_repairs);
    println!("| rows read per repair (avg / cap) | {avg_repair_rows} / {max_suffix} |");
    println!("| exact invalidations | {} |", stats.exact_invalidations);
    println!("| warm hits | {} |", stats.warm_hits);
    println!("| unmarked stale answers | {unmarked_stale} |");
    println!("| wal-off append p50 | {off_p50:.2} ms |");
    println!("| wal-on ({}) append p50 | {on_p50:.2} ms |", fsync_mode.name());
    println!("| wal append retries | {} |", append_retries.load(Ordering::Relaxed));

    if smoke {
        let mut failures = Vec::new();
        if stats.snapshot_repairs == 0 {
            failures.push("no snapshot was repaired".to_string());
        }
        if !repair_bounded {
            failures.push(format!(
                "repairs read {} rows over {} repairs, above the {max_suffix}-row suffix cap",
                stats.repair_rows_read, stats.snapshot_repairs
            ));
        }
        if unmarked_stale > 0 {
            failures.push(format!("{unmarked_stale} stale serves were not marked on answers"));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("SMOKE FAILURE: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("smoke ok");
    }
}
