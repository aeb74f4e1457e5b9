//! End-to-end telemetry streaming through the facade crate: both engines
//! emit delta-encoded JSONL records that a reader can reconcile back to the
//! ground truth of the run.
//!
//! The protocol contract under test (see `tin_obs::Telemetry`): the first
//! record is a `full` dump with units and absolute values, subsequent
//! records are `delta`-encoded (counters and histogram count/sum carry the
//! change, gauges and quantiles the current level), trace stats and the
//! skew sketches ride on every record as absolutes, and the stream ends
//! with an explicit `source: "final"` record at the stream length. Every
//! record is parsed back with `tin_obs::json` — the same parser `tin-cli
//! report` uses — so these tests also pin that each line is valid JSON.

use std::io::Write;
use std::sync::{Arc, Mutex};

use tin::prelude::*;
use tin_obs::json::Value;
use tin_obs::telemetry::TELEMETRY_SCHEMA;
use tin_obs::{Obs, Telemetry};
use tin_shard::ShardedEngine;

/// A telemetry sink the test can read back after the engine takes it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn records(&self) -> Vec<Value> {
        let bytes = self.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .expect("telemetry is UTF-8")
            .lines()
            .map(|l| Value::parse(l).expect("every record is one valid JSON line"))
            .collect()
    }
}

/// Deterministic ring-shaped stream: every vertex keeps relaying quantity,
/// so provenance state and the skew sketches all see real traffic.
fn workload(num_vertices: usize, rounds: u32) -> Vec<Interaction> {
    let mut time = 0.0;
    let mut interactions = Vec::new();
    for round in 0..rounds {
        for v in 0..num_vertices as u32 {
            let dst = (v + 1 + round % (num_vertices as u32 - 1)) % num_vertices as u32;
            if dst == v {
                continue;
            }
            time += 1.0;
            let qty = if round % 3 == 0 { 50.0 } else { 2.5 };
            interactions.push(Interaction::new(v, dst, time, qty));
        }
    }
    interactions
}

/// Structural checks shared by both engines: schema tag, dense sequence
/// numbers, full-then-delta kinds, non-decreasing positions, known sources,
/// and trace stats + sketches on every record.
fn check_stream_shape(records: &[Value], len: u64) {
    assert!(
        records.len() >= 3,
        "expected several records, got {}",
        records.len()
    );
    let mut prev_at = 0u64;
    for (i, r) in records.iter().enumerate() {
        assert_eq!(
            r.get("schema").and_then(Value::as_u64),
            Some(u64::from(TELEMETRY_SCHEMA))
        );
        assert_eq!(r.get("seq").and_then(Value::as_u64), Some(i as u64));
        let kind = r.get("kind").and_then(Value::as_str).unwrap();
        assert_eq!(kind, if i == 0 { "full" } else { "delta" });
        let at = r.get("at").and_then(Value::as_u64).unwrap();
        assert!(
            at >= prev_at,
            "record {i}: at went backwards ({at} < {prev_at})"
        );
        prev_at = at;
        let source = r.get("source").and_then(Value::as_str).unwrap();
        assert!(
            matches!(source, "interval" | "barrier" | "final"),
            "record {i}: unknown source {source:?}"
        );
        let trace = r.get("trace").expect("trace stats ride on every record");
        assert!(trace.get("capacity").and_then(Value::as_u64).unwrap() > 0);
        assert!(r.get("hot_vertices").and_then(Value::as_arr).is_some());
        assert!(r.get("hot_migrations").and_then(Value::as_arr).is_some());
    }
    let last = records.last().unwrap();
    assert_eq!(last.get("source").and_then(Value::as_str), Some("final"));
    assert_eq!(last.get("at").and_then(Value::as_u64), Some(len));
}

/// Accumulate a counter across the stream: absolute value from `full`
/// records, increments from `delta` records.
fn accumulate_counter(records: &[Value], name: &str) -> u64 {
    let mut total = 0u64;
    for r in records {
        let kind = r.get("kind").and_then(Value::as_str).unwrap();
        let c = r
            .get("counters")
            .and_then(|c| c.get(name))
            .unwrap_or_else(|| panic!("counter {name} on every record"));
        match kind {
            "full" => total = c.get("value").and_then(Value::as_u64).unwrap(),
            _ => total += c.as_u64().unwrap(),
        }
    }
    total
}

/// Accumulate a histogram's observation count the same way.
fn accumulate_hist_count(records: &[Value], name: &str) -> u64 {
    let mut total = 0u64;
    for r in records {
        let kind = r.get("kind").and_then(Value::as_str).unwrap();
        let h = r
            .get("histograms")
            .and_then(|h| h.get(name))
            .unwrap_or_else(|| panic!("histogram {name} on every record"));
        let count = h.get("count").and_then(Value::as_u64).unwrap();
        match kind {
            "full" => total = count,
            _ => total += count,
        }
    }
    total
}

#[test]
fn sequential_stream_reconciles_with_the_run() {
    let interactions = workload(8, 24);
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
    let buf = SharedBuf::default();
    let mut engine = ProvenanceEngine::new(&config, 8)
        .expect("valid config")
        .with_observability(Obs::new())
        .with_footprint_sample_interval(32)
        .expect("interval is positive")
        .with_telemetry(Telemetry::new(Box::new(buf.clone())), 16)
        .expect("interval is positive");
    engine.process_all(&interactions).expect("valid stream");
    engine
        .emit_telemetry("final")
        .expect("buffer writes succeed");

    let records = buf.records();
    check_stream_shape(&records, interactions.len() as u64);
    // Exactly one latency observation per interaction, reassembled purely
    // from the delta stream.
    assert_eq!(
        accumulate_hist_count(&records, "tracker_latency_ns"),
        interactions.len() as u64
    );
    // The footprint gauge carries a live level by the final record.
    let last = records.last().unwrap();
    let footprint = last
        .get("gauges")
        .and_then(|g| g.get("footprint_bytes"))
        .and_then(Value::as_u64)
        .expect("footprint gauge on delta records");
    assert!(footprint > 0);
    // Streaming never perturbs the computation itself.
    let report = engine.report();
    assert_eq!(report.interactions, interactions.len());
}

#[test]
fn sharded_stream_reconciles_and_matches_the_sequential_run() {
    let interactions = workload(8, 24);
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);

    let buf = SharedBuf::default();
    let mut sharded = ShardedEngine::new(&config, 8, 3)
        .expect("valid config")
        .with_observability(Obs::new())
        .expect("workers healthy")
        .with_telemetry(Telemetry::new(Box::new(buf.clone())), 8)
        .expect("interval is positive");
    sharded.process_all(&interactions).expect("valid stream");
    sharded
        .emit_telemetry("final")
        .expect("buffer writes succeed");
    let sharded_report = sharded.report().expect("workers healthy");

    let records = buf.records();
    check_stream_shape(&records, interactions.len() as u64);
    // Every interaction lands on exactly one owning shard — same-shard ones
    // as locals, cross-shard ones as imports on the destination shard — so
    // the delta-encoded counter stream must reassemble to the stream length.
    assert_eq!(
        accumulate_counter(&records, "shard_local_interactions_total")
            + accumulate_counter(&records, "shard_import_interactions_total"),
        interactions.len() as u64
    );
    // The skew sketches see real traffic by the end of the stream.
    let last = records.last().unwrap();
    let hot = last.get("hot_vertices").and_then(Value::as_arr).unwrap();
    assert!(!hot.is_empty(), "hot-vertex sketch stays empty");
    assert!(hot[0].get("weight").and_then(Value::as_u64).unwrap() > 0);

    // Telemetry-instrumented sharded flow accounting matches an entirely
    // uninstrumented sequential run.
    let mut sequential = ProvenanceEngine::new(&config, 8).expect("valid config");
    sequential.process_all(&interactions).expect("valid stream");
    let sequential_report = sequential.report();
    assert_eq!(sharded_report.interactions, sequential_report.interactions);
    assert_eq!(
        sharded_report.total_quantity,
        sequential_report.total_quantity
    );
    assert_eq!(
        sharded_report.newborn_quantity,
        sequential_report.newborn_quantity
    );
    assert_eq!(
        sharded_report.relayed_quantity,
        sequential_report.relayed_quantity
    );
}

/// `(kind, unit)` of every metric in a snapshot, by name.
fn metric_catalogue(
    snap: &tin_obs::MetricsSnapshot,
) -> std::collections::BTreeMap<&'static str, (&'static str, &'static str)> {
    let counters = snap.counters.iter().map(|c| (c.name, ("counter", c.unit)));
    let gauges = snap.gauges.iter().map(|g| (g.name, ("gauge", g.unit)));
    let histograms = snap
        .histograms
        .iter()
        .map(|h| (h.name, ("histogram", h.unit)));
    counters.chain(gauges).chain(histograms).collect()
}

/// A metric name means one thing on both engines: with observability,
/// durable checkpoints and telemetry attached to a sequential and a 2-shard
/// engine over the same stream, every name the two snapshots share has the
/// same kind and the same unit.
#[test]
fn shared_metric_names_have_one_kind_and_unit_on_both_engines() {
    let interactions = workload(8, 24);
    let config = PolicyConfig::Plain(SelectionPolicy::ProportionalSparse);
    let dir = std::env::temp_dir().join(format!("tin_metric_units_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = |name: &str| CheckpointStore::open(dir.join(name)).expect("store opens");

    let mut sequential = ProvenanceEngine::new(&config, 8)
        .expect("valid config")
        .with_observability(Obs::new())
        .with_durable_checkpoints(store("seq"), 40)
        .expect("interval is positive")
        .with_telemetry(Telemetry::new(Box::new(std::io::sink())), 16)
        .expect("interval is positive");
    sequential.process_all(&interactions).expect("valid stream");
    let mut sharded = ShardedEngine::new(&config, 8, 2)
        .expect("valid config")
        .with_observability(Obs::new())
        .expect("workers healthy")
        .with_durable_checkpoints(store("sharded"), 40)
        .expect("interval is positive")
        .with_telemetry(Telemetry::new(Box::new(std::io::sink())), 16)
        .expect("interval is positive");
    sharded.process_all(&interactions).expect("valid stream");

    let seq = metric_catalogue(&sequential.take_obs().expect("attached").snapshot());
    let shard = metric_catalogue(
        &sharded
            .take_obs()
            .expect("workers healthy")
            .expect("attached")
            .snapshot(),
    );
    let shared: Vec<&str> = seq
        .keys()
        .filter(|n| shard.contains_key(*n))
        .copied()
        .collect();
    // The checkpoint and footprint metrics are registered by both engines.
    for name in [
        "footprint_spikes_total",
        "checkpoint_retries_total",
        "checkpoint_capture_ns",
    ] {
        assert!(shared.contains(&name), "{name} missing from one engine");
    }
    for name in shared {
        assert_eq!(seq[name], shard[name], "{name}: (kind, unit) differ");
    }
    std::fs::remove_dir_all(&dir).ok();
}
