//! In-process half of the `tin-cli run` benchmark (see `../README.md`).
//!
//! `run.py` calls this binary for three jobs. Each prints `key value` lines
//! on stdout:
//!
//! * `gen` writes a seeded trace and prints its size and the sums that the
//!   CLI report must show;
//! * `setup` times, once, the calls `tin-cli run` makes before the first
//!   interaction;
//! * `layers` calls each layer's public functions in the order the CLI calls
//!   them, records a span around each call with `tin_obs::Recorder` (track
//!   id = repetition), and writes the recorder's Chrome trace, from which
//!   `run.py` computes the per-layer ledger. Calls that are not on the CLI's
//!   path (the bare kernel, the plain sharded engine, ...) are recorded too,
//!   under their own span names, as references for the layer split.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use tin_core::checkpoint::CheckpointStore;
use tin_core::engine::{EngineReport, ProvenanceEngine};
use tin_core::ids::VertexId;
use tin_core::{build_tracker, Interaction, OriginSet, PolicyConfig, SelectionPolicy};
use tin_datasets::formats::{read_named_edge_list_file, write_named_edge_list};
use tin_datasets::{DatasetKind, DatasetSpec, NamedTin, ScaleProfile, VertexInterner};
use tin_obs::{Obs, Recorder, SpanEvent};
use tin_shard::wavefront::plan_wavefronts;
use tin_shard::{shard_of, EpochRule, RecoveryPolicy, ShardedEngine};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Rows `tin-cli run` prints (its `--top` default).
const TOP: usize = 10;

/// `--name value` pairs after the subcommand.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(rest: &[String]) -> Result<Args> {
        let mut map = HashMap::new();
        for pair in rest.chunks(2) {
            match pair {
                [name, value] if name.starts_with("--") => {
                    map.insert(name[2..].to_string(), value.clone());
                }
                _ => return Err(format!("expected --name value pairs, got {pair:?}").into()),
            }
        }
        Ok(Args(map))
    }

    fn get(&self, name: &str) -> Result<&str> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}").into())
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T> {
        let value = self.get(name)?;
        value
            .parse()
            .map_err(|_| format!("invalid --{name} {value:?}").into())
    }

    fn policy(&self) -> Result<PolicyConfig> {
        let key = self.get("policy")?;
        SelectionPolicy::all()
            .into_iter()
            .find(|p| p.key() == key)
            .map(PolicyConfig::Plain)
            .ok_or_else(|| format!("unknown policy {key:?}").into())
    }

    /// `--checkpoint-dir` and `--checkpoint-every`, present on the drill.
    fn durable(&self) -> Result<Option<(&str, usize)>> {
        match self.0.get("checkpoint-dir") {
            Some(dir) => Ok(Some((dir.as_str(), self.num("checkpoint-every")?))),
            None => Ok(None),
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let result = match argv.get(1).map(String::as_str) {
        Some(job @ ("gen" | "setup" | "layers")) => {
            Args::parse(&argv[2..]).and_then(|args| match job {
                "gen" => gen(&args),
                "setup" => setup(&args),
                _ => layers(&args),
            })
        }
        _ => Err("usage: tin-perfbench gen|setup|layers --name value ...".into()),
    };
    if let Err(err) = result {
        eprintln!("tin-perfbench: {err}");
        std::process::exit(1);
    }
}

/// Write the trace `DatasetSpec::with_seed(kind, scale, seed)` generates,
/// with vertex names equal to their ids, and print what the CLI must report
/// on it.
fn gen(args: &Args) -> Result<()> {
    let kind_key = args.get("kind")?;
    let kind = DatasetKind::all()
        .into_iter()
        .find(|k| k.key() == kind_key)
        .ok_or_else(|| format!("unknown dataset {kind_key:?}"))?;
    let scale = match args.get("scale")? {
        "tiny" => ScaleProfile::Tiny,
        "small" => ScaleProfile::Small,
        "medium" => ScaleProfile::Medium,
        "paper" => ScaleProfile::Paper,
        other => return Err(format!("unknown scale {other:?}").into()),
    };
    let spec = DatasetSpec::with_seed(kind, scale, args.num("seed")?);
    let mut interner = VertexInterner::new();
    for v in 0..spec.num_vertices() {
        interner.intern(&v.to_string());
    }
    let named = NamedTin {
        interactions: tin_datasets::generate(&spec),
        interner,
    };
    let out = args.get("out")?;
    write_named_edge_list(std::fs::File::create(out)?, &named)?;

    let mut seen = vec![false; spec.num_vertices()];
    for r in &named.interactions {
        seen[r.src.index()] = true;
        seen[r.dst.index()] = true;
    }
    // Summed in stream order, as the engine's flow accounting does.
    let total = named.interactions.iter().fold(0.0, |sum, r| sum + r.qty);
    println!("bytes {}", std::fs::metadata(out)?.len());
    println!("vertices {}", seen.iter().filter(|&&s| s).count());
    println!("interactions {}", named.interactions.len());
    println!("total_quantity {total:.4}");
    Ok(())
}

/// The recovery policy of `tin-cli run --shards N` by default: budget 3.
fn cli_healing() -> RecoveryPolicy {
    RecoveryPolicy {
        max_worker_restarts: 3,
        ..RecoveryPolicy::default()
    }
}

/// The builder chain `tin-cli run --shards N` uses with its defaults:
/// self-healing, and observability armed for crash reports.
fn cli_sharded(config: &PolicyConfig, n: usize, shards: usize) -> Result<ShardedEngine> {
    Ok(ShardedEngine::new(config, n, shards)?
        .with_self_healing(cli_healing())?
        .with_observability(Obs::new())?)
}

/// The builder chain of a sequential `tin-cli run`, with durable checkpoints
/// when the workload asks for them.
fn cli_sequential(
    config: &PolicyConfig,
    n: usize,
    durable: Option<(&str, usize)>,
) -> Result<ProvenanceEngine> {
    let engine = ProvenanceEngine::new(config, n)?;
    Ok(match durable {
        Some((dir, every)) => {
            engine.with_durable_checkpoints(CheckpointStore::open(dir)?, every)?
        }
        None => engine,
    })
}

/// Time one set-up: read the trace and build the engine the CLI builds.
fn setup(args: &Args) -> Result<()> {
    let config = args.policy()?;
    let shards: usize = args.num("shards")?;
    let started = Instant::now();
    let named = read_named_edge_list_file(args.get("trace")?)?;
    let n = named.num_vertices();
    if shards > 1 {
        let engine = cli_sharded(&config, n, shards)?;
        println!("setup_s {}", started.elapsed().as_secs_f64());
        black_box(engine);
    } else {
        let engine = cli_sequential(&config, n, args.durable()?)?;
        println!("setup_s {}", started.elapsed().as_secs_f64());
        black_box(engine);
    }
    black_box(named);
    Ok(())
}

/// The span recorder of the traced run; the track id is the repetition.
struct Tracer {
    rec: Recorder,
    tid: u32,
}

impl Tracer {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.rec.record(name, self.tid, started);
        out
    }
}

/// Facts of the traced run that are not durations.
#[derive(Default)]
struct Facts {
    report: EngineReport,
    kernel_interactions: usize,
    batches: usize,
    cross_shard: usize,
    checkpoint_bytes: usize,
}

fn layers(args: &Args) -> Result<()> {
    let config = args.policy()?;
    let shards: usize = args.num("shards")?;
    let reps: u32 = args.num("reps")?;
    let trace = args.get("trace")?;
    let mut t = Tracer {
        rec: Recorder::new(1 << 16),
        tid: 0,
    };
    let mut facts = Facts::default();
    for rep in 0..reps {
        t.tid = rep;
        facts = if shards > 1 {
            sharded_path(&mut t, trace, &config, shards)?
        } else if let Some((dir, every)) = args.durable()? {
            drill_path(&mut t, trace, &config, dir, every, args.num("crash-at")?)?
        } else {
            sequential_path(&mut t, trace, &config)?
        };
    }
    std::fs::write(args.get("trace-out")?, t.rec.to_chrome_trace())?;
    let report = &facts.report;
    println!("interactions {}", report.interactions);
    println!("total_quantity {:.4}", report.total_quantity);
    println!(
        "engine.peak_footprint_bytes {}",
        report.peak_footprint_bytes
    );
    println!("kernel_interactions {}", facts.kernel_interactions);
    println!("wavefront.batches_total {}", facts.batches);
    println!("cross_shard_interactions {}", facts.cross_shard);
    println!("checkpoint.bytes {}", facts.checkpoint_bytes);
    Ok(())
}

/// The bare tracker over `stream`, returned so that its drop is not timed.
fn kernel(
    t: &mut Tracer,
    config: &PolicyConfig,
    n: usize,
    stream: &[Interaction],
) -> Result<Box<dyn tin_core::ProvenanceTracker>> {
    t.span("kernel", || -> Result<_> {
        let mut tracker = build_tracker(config, n)?;
        tracker.process_all(stream);
        Ok(tracker)
    })
}

/// The CLI's ranking: vertices with a positive buffer, largest first, ties
/// by id, cut to the top rows.
fn top_rows(buffered: Vec<f64>) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64)> = buffered
        .into_iter()
        .enumerate()
        .filter(|(_, q)| *q > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.into_iter().take(TOP).map(|(i, _)| i).collect()
}

fn report_sequential(engine: &ProvenanceEngine, n: usize) -> EngineReport {
    let buffered = (0..n).map(|i| engine.buffered(VertexId::from(i))).collect();
    let origins: Vec<OriginSet> = top_rows(buffered)
        .into_iter()
        .map(|i| engine.origins(VertexId::from(i)))
        .collect();
    black_box(origins);
    engine.report()
}

/// `btc-fifo-seq` and `ctu-prop-seq`: ingest, the engine loop, the report.
fn sequential_path(t: &mut Tracer, trace: &str, config: &PolicyConfig) -> Result<Facts> {
    let path = Instant::now();
    let named = t.span("ingest", || read_named_edge_list_file(trace))?;
    let n = named.num_vertices();
    let engine = t.span("engine", || -> Result<_> {
        let mut engine = cli_sequential(config, n, None)?;
        engine.process_all(&named.interactions)?;
        Ok(engine)
    })?;
    let report = t.span("report", || report_sequential(&engine, n));
    t.rec.record("path", t.tid, path);
    drop(engine);
    drop(kernel(t, config, n, &named.interactions)?);
    Ok(Facts {
        report,
        kernel_interactions: named.interactions.len(),
        ..Facts::default()
    })
}

/// `btc-fifo-2sh`: the CLI-default sharded run is the path; the sequential
/// engine (with a capture at each healing-snapshot point), the bare kernel,
/// the wavefront planner, and the sharded engine with healing and obs off,
/// then with healing alone, are the references that split it.
fn sharded_path(
    t: &mut Tracer,
    trace: &str,
    config: &PolicyConfig,
    shards: usize,
) -> Result<Facts> {
    let path = Instant::now();
    let named = t.span("ingest", || read_named_edge_list_file(trace))?;
    let n = named.num_vertices();
    let stream = &named.interactions;
    // `buffered_all` is the sync point that ends a sharded run, so it is
    // timed with the engine in every variant.
    let (mut engine, buffered) = t.span("shard.cli", || -> Result<_> {
        let mut engine = cli_sharded(config, n, shards)?;
        engine.process_all(stream)?;
        let buffered = engine.buffered_all()?;
        Ok((engine, buffered))
    })?;
    let report = t.span("report", || -> Result<_> {
        let mut origins = Vec::with_capacity(TOP);
        for i in top_rows(buffered) {
            origins.push(engine.origins(VertexId::from(i))?);
        }
        black_box(origins);
        Ok(engine.report()?)
    })?;
    t.rec.record("path", t.tid, path);
    drop(engine);

    let plain = t.span("shard.plain", || -> Result<_> {
        let mut engine = ShardedEngine::new(config, n, shards)?;
        engine.process_all(stream)?;
        black_box(engine.buffered_all()?);
        Ok(engine)
    })?;
    drop(plain);
    let healing = t.span("shard.healing", || -> Result<_> {
        let mut engine = ShardedEngine::new(config, n, shards)?.with_self_healing(cli_healing())?;
        engine.process_all(stream)?;
        black_box(engine.buffered_all()?);
        Ok(engine)
    })?;
    drop(healing);

    let every = cli_healing().snapshot_every;
    let mut engine = t.span("engine", || cli_sequential(config, n, None))?;
    for chunk in stream.chunks(every) {
        t.span("engine", || engine.process_all(chunk))?;
        if chunk.len() == every {
            let capture = t.span("checkpoint.capture", || engine.checkpoint())?;
            drop(capture);
        }
    }
    drop(engine);
    drop(kernel(t, config, n, stream)?);
    let plan = t.span("wavefront", || {
        plan_wavefronts(n, EpochRule::for_policy(config), stream)
    });
    let cross_shard = stream
        .iter()
        .filter(|r| shard_of(r.src, shards) != shard_of(r.dst, shards))
        .count();
    Ok(Facts {
        report,
        kernel_interactions: stream.len(),
        batches: plan.len(),
        cross_shard,
        ..Facts::default()
    })
}

/// Capture and save one durable checkpoint the way the engine's periodic
/// checkpoint does; the encode part of the save comes from the store's
/// `SaveStats` as a child span of `checkpoint.save`.
fn save_checkpoint(
    t: &mut Tracer,
    engine: &mut ProvenanceEngine,
    store: &mut CheckpointStore,
) -> Result<usize> {
    let checkpoint = t.span("checkpoint.capture", || engine.checkpoint())?;
    let started = Instant::now();
    store.save(&checkpoint)?;
    t.rec.record("checkpoint.save", t.tid, started);
    let stats = store
        .last_save_stats()
        .ok_or("a successful save leaves its stats")?;
    t.rec.push(SpanEvent {
        name: "checkpoint.encode",
        tid: t.tid,
        start_ns: started.duration_since(t.rec.epoch()).as_nanos() as u64,
        dur_ns: (stats.encode_secs * 1e9) as u64,
    });
    Ok(stats.encoded_bytes)
}

/// Process `stream` (positions `skip..`) in chunks that end where the CLI's
/// engine takes a durable checkpoint, and take it there.
fn process_with_checkpoints(
    t: &mut Tracer,
    engine: &mut ProvenanceEngine,
    store: &mut CheckpointStore,
    stream: &[Interaction],
    skip: usize,
    every: usize,
) -> Result<usize> {
    let mut bytes = 0;
    let mut at = skip;
    while at < stream.len() {
        let end = ((at / every + 1) * every).min(stream.len());
        t.span("engine", || engine.process_all(&stream[at..end]))?;
        if end.is_multiple_of(every) {
            bytes += save_checkpoint(t, engine, store)?;
        }
        at = end;
    }
    Ok(bytes)
}

/// `ctu-prop-drill`: the crash invocation (checkpoints, then a stop at
/// `crash_at`) followed by the `--resume` invocation, then the bare kernel
/// over the same interactions as a reference.
fn drill_path(
    t: &mut Tracer,
    trace: &str,
    config: &PolicyConfig,
    dir: &str,
    every: usize,
    crash_at: usize,
) -> Result<Facts> {
    // Each drill starts from an empty checkpoint directory.
    if std::path::Path::new(dir).exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let path = Instant::now();
    let named = t.span("ingest", || read_named_edge_list_file(trace))?;
    let n = named.num_vertices();
    let mut store = CheckpointStore::open(dir)?;
    let mut engine = t.span("engine", || cli_sequential(config, n, None))?;
    let crash_len = crash_at.min(named.interactions.len());
    let crashed = &named.interactions[..crash_len];
    let mut bytes = process_with_checkpoints(t, &mut engine, &mut store, crashed, 0, every)?;
    drop(engine);
    drop(named);

    let named = t.span("ingest", || read_named_edge_list_file(trace))?;
    let (_, checkpoint) = t
        .span("checkpoint.load", || {
            CheckpointStore::open(dir)?.load_latest_valid()
        })?
        .ok_or("the crash left no checkpoint")?;
    let mut engine = t.span("checkpoint.restore", || {
        ProvenanceEngine::resume_from(&checkpoint)
    })?;
    let skip = checkpoint.cursor.processed;
    let mut store = CheckpointStore::open(dir)?;
    bytes +=
        process_with_checkpoints(t, &mut engine, &mut store, &named.interactions, skip, every)?;
    let report = t.span("report", || report_sequential(&engine, n));
    t.rec.record("path", t.tid, path);
    drop(engine);

    drop(kernel(t, config, n, &named.interactions[..crash_len])?);
    let mut resumed = build_tracker(config, n)?;
    checkpoint.restore_into(resumed.as_mut())?;
    t.span("kernel", || {
        resumed.process_all(&named.interactions[skip..])
    });
    Ok(Facts {
        report,
        kernel_interactions: crash_len + named.interactions.len() - skip,
        checkpoint_bytes: bytes,
        ..Facts::default()
    })
}
