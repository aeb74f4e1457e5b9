//! The streaming provenance engine.
//!
//! The trackers in [`crate::tracker`] are deliberately minimal: they assume a
//! validated, time-ordered stream and panic-free inputs. Real deployments
//! (Section 1: provenance is maintained "in real-time, as new interactions
//! take place in a streaming fashion") need the glue around them:
//!
//! * input validation (ordering, vertex bounds, quantity sanity) with proper
//!   errors instead of debug assertions,
//! * flow accounting (how much quantity was relayed vs. newly generated —
//!   the two cases of Algorithm 1),
//! * durable, resumable checkpoints of the full provenance state (see
//!   [`crate::checkpoint`]),
//! * and throughput reporting for capacity planning.
//!
//! [`ProvenanceEngine`] packages all of that behind one streaming interface,
//! and [`run_ensemble`] runs several policies side by side over the same
//! stream — the shape of every experiment in Section 7. The bookkeeping
//! itself lives in [`EngineCore`], which the sharded engine of the
//! `tin-shard` crate embeds as well, so the two engines keep one stream
//! cursor, one durable-checkpoint cadence, one set of shared metrics and one
//! report builder.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tin_obs::{CounterId, GaugeId, HistogramId, Obs, Telemetry};

use crate::checkpoint::{Checkpoint, CheckpointStore, SaveStats, StreamCursor};
use crate::error::{Result, TinError};
use crate::ids::VertexId;
use crate::interaction::Interaction;
use crate::memory::FootprintBreakdown;
use crate::origins::OriginSet;
use crate::policy::PolicyConfig;
use crate::quantity::Quantity;
use crate::stream::InteractionSource;
use crate::tracker::{build_tracker, ProvenanceTracker};

/// Flow accounting and performance figures for a finished (or in-progress)
/// engine run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineReport {
    /// Stable key of the policy configuration the engine ran.
    pub policy: String,
    /// Number of interactions processed.
    pub interactions: usize,
    /// Wall-clock seconds spent inside the tracker.
    pub runtime_secs: f64,
    /// Total quantity moved by all interactions (Σ r.q).
    pub total_quantity: Quantity,
    /// Quantity that was newly generated at source vertices
    /// (the `r.q − |B_{r.s}|` case of Algorithm 1).
    pub newborn_quantity: Quantity,
    /// Quantity that was relayed out of existing buffers.
    pub relayed_quantity: Quantity,
    /// Logical provenance footprint at the end of the run.
    pub footprint: FootprintBreakdown,
    /// Peak logical provenance footprint observed during the run (sampled
    /// every [`ProvenanceEngine::FOOTPRINT_SAMPLE_INTERVAL`] interactions, so
    /// short-lived spikes between samples may be missed). At least as large
    /// as `footprint.total()`.
    pub peak_footprint_bytes: usize,
    /// Durable checkpoints saved by this engine instance, periodic and
    /// on-demand ([`ProvenanceEngine::checkpoint_to`]).
    pub checkpoints_taken: usize,
}

impl EngineReport {
    /// Interactions processed per second (0 if the run took no measurable
    /// time).
    pub fn throughput(&self) -> f64 {
        if self.runtime_secs <= 0.0 {
            0.0
        } else {
            self.interactions as f64 / self.runtime_secs
        }
    }

    /// Fraction of the moved quantity that was newly generated rather than
    /// relayed (1.0 when every interaction was paid out of fresh units).
    pub fn newborn_fraction(&self) -> f64 {
        if self.total_quantity <= 0.0 {
            0.0
        } else {
            self.newborn_quantity / self.total_quantity
        }
    }
}

/// `every` itself, or [`TinError::InvalidConfig`] naming `what` if it is
/// zero — the check every "do X every N interactions" option shares.
///
/// # Errors
/// Returns [`TinError::InvalidConfig`] if `every` is zero.
pub fn positive_interval(every: usize, what: &str) -> Result<usize> {
    if every == 0 {
        return Err(TinError::InvalidConfig(format!("{what} must be positive")));
    }
    Ok(every)
}

/// Whole nanoseconds from fractional seconds (rounded, saturating).
fn secs_to_ns(secs: f64) -> u64 {
    (secs * 1e9).round().clamp(0.0, u64::MAX as f64) as u64
}

/// An attached observability unit plus the handles of the metrics both
/// engines share. [`EngineCore::attach_obs`] is the one place these names
/// are registered, so each has one kind and one unit on either engine; every
/// hot-path update is an index into pre-sized storage (zero steady-state
/// allocations, enforced by the `obs_alloc_counting` integration test).
pub struct EngineObs {
    /// The unit itself.
    pub obs: Obs,
    /// Sampled logical footprint (every periodic or spike-driven sample).
    footprint_bytes: GaugeId,
    /// Spike-monitor firings that forced an out-of-schedule sample.
    spikes: CounterId,
    /// Full-state capture time of every [`Checkpoint`] the engine builds.
    ckpt_capture_ns: HistogramId,
    /// Durable-save phase timings, retry churn and size.
    ckpt_encode_ns: HistogramId,
    ckpt_write_ns: HistogramId,
    ckpt_retries: CounterId,
    ckpt_bytes: GaugeId,
}

impl EngineObs {
    fn new(mut obs: Obs) -> Self {
        let m = &mut obs.metrics;
        EngineObs {
            footprint_bytes: m.gauge("footprint_bytes", "bytes"),
            spikes: m.counter("footprint_spikes_total", "spikes"),
            ckpt_capture_ns: m.histogram("checkpoint_capture_ns", "ns"),
            ckpt_encode_ns: m.histogram("checkpoint_encode_ns", "ns"),
            ckpt_write_ns: m.histogram("checkpoint_write_ns", "ns"),
            ckpt_retries: m.counter("checkpoint_retries_total", "attempts"),
            ckpt_bytes: m.gauge("checkpoint_bytes", "bytes"),
            obs,
        }
    }
}

/// An attached live-telemetry stream: the JSONL sink, its
/// every-N-interactions cadence, and the stream position of the last record
/// (so the quiesce syncs of post-run queries on the sharded engine do not
/// emit stale records after the `final` one). Emission happens off the
/// per-interaction hot path, so the zero-allocation steady-state contract is
/// unaffected between emission points.
struct TelemetryState {
    sink: Telemetry,
    every: usize,
    last_at: Option<u64>,
}

/// The bookkeeping every engine front-end shares (Algorithm 1's stream
/// position and newborn-versus-relayed totals, plus everything around them):
/// the stream cursor, busy time, the durable-checkpoint cadence, the
/// observability unit with the shared metrics, the telemetry stream, and the
/// [`EngineReport`] builder. [`ProvenanceEngine`] and the `tin-shard`
/// sharded engine each embed one.
pub struct EngineCore {
    /// The policy configuration the engine runs.
    pub config: PolicyConfig,
    /// Stable key of `config`.
    pub policy_key: String,
    /// Size of the vertex set.
    pub num_vertices: usize,
    /// Stream position and flow totals — exactly what a durable
    /// [`Checkpoint`] records.
    pub cursor: StreamCursor,
    /// Seconds reported as [`EngineReport::runtime_secs`].
    pub busy_secs: f64,
    /// Attached observability unit (`None` = uninstrumented: each hot-path
    /// hook pays exactly one branch).
    pub obs: Option<Box<EngineObs>>,
    /// Durable checkpoint store and interval, when periodic checkpoints are
    /// enabled.
    durable: Option<(CheckpointStore, usize)>,
    /// Durable checkpoints saved so far (periodic and on-demand).
    checkpoints_taken: usize,
    /// Attached live-telemetry stream, if any.
    telemetry: Option<Box<TelemetryState>>,
}

impl EngineCore {
    /// Fresh bookkeeping for `config` over `num_vertices` vertices.
    pub fn new(config: &PolicyConfig, num_vertices: usize) -> Self {
        EngineCore {
            config: config.clone(),
            policy_key: config.key(),
            num_vertices,
            cursor: StreamCursor::default(),
            busy_secs: 0.0,
            obs: None,
            durable: None,
            checkpoints_taken: 0,
            telemetry: None,
        }
    }

    /// Validate `r` as the next stream step: malformed interaction, unknown
    /// endpoint, or time going backwards. Both engines validate through
    /// here, which is what keeps their validation and error surface
    /// identical.
    ///
    /// # Errors
    /// * [`TinError::InvalidQuantity`] / [`TinError::InvalidTimestamp`] /
    ///   [`TinError::SelfLoop`] for malformed interactions,
    /// * [`TinError::UnknownVertex`] for endpoints outside the vertex set,
    /// * [`TinError::OutOfOrder`] if time goes backwards.
    #[inline]
    pub fn validate(&self, r: &Interaction) -> Result<()> {
        let position = self.cursor.processed;
        r.validate(Some(position))?;
        for endpoint in [r.src, r.dst] {
            if endpoint.index() >= self.num_vertices {
                return Err(TinError::UnknownVertex {
                    vertex: endpoint,
                    num_vertices: self.num_vertices,
                });
            }
        }
        if let Some(previous) = self.cursor.last_time {
            if r.time.0 < previous {
                return Err(TinError::OutOfOrder {
                    position,
                    previous,
                    current: r.time.0,
                });
            }
        }
        Ok(())
    }

    /// Move the cursor past `r`: its quantity joins the total, its time
    /// becomes the last time. Newborn quantity is folded separately, because
    /// the sharded engine learns it only when a wavefront completes.
    #[inline]
    pub fn advance(&mut self, r: &Interaction) {
        self.cursor.total_quantity += r.qty;
        self.cursor.last_time = Some(r.time.0);
        self.cursor.processed += 1;
    }

    /// Fold one full footprint sample (total bytes) into the peak and the
    /// `footprint_bytes` gauge; `spiked` marks a spike-monitor sample.
    #[inline]
    pub fn sample_footprint(&mut self, total: usize, spiked: bool) {
        self.cursor.peak_footprint_bytes = self.cursor.peak_footprint_bytes.max(total);
        if let Some(o) = self.obs.as_deref_mut() {
            o.obs.metrics.set_gauge(o.footprint_bytes, total as u64);
            if spiked {
                o.obs.metrics.inc(o.spikes);
            }
        }
    }

    /// Seed the cursor from a checkpoint's. The peak keeps the larger of the
    /// two: on a fresh engine that is the checkpoint's, and an in-run
    /// restore must not lose the live peak.
    pub fn restore_cursor(&mut self, cursor: &StreamCursor) {
        let peak = self.cursor.peak_footprint_bytes;
        self.cursor = *cursor;
        self.cursor.peak_footprint_bytes = peak.max(cursor.peak_footprint_bytes);
    }

    /// Save a durable checkpoint into `store` every `every` interactions.
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if `every` is zero.
    pub fn set_durable(&mut self, store: CheckpointStore, every: usize) -> Result<()> {
        let every = positive_interval(every, "durable checkpoint interval")?;
        self.durable = Some((store, every));
        Ok(())
    }

    /// Whether the interaction just processed ends a durable-checkpoint
    /// interval.
    #[inline]
    pub fn durable_due(&self) -> bool {
        self.durable
            .as_ref()
            .is_some_and(|(_, every)| self.cursor.processed.is_multiple_of(*every))
    }

    /// Save `checkpoint` into the periodic durable store.
    ///
    /// # Errors
    /// Propagates the store's [`TinError::Io`] failures.
    ///
    /// # Panics
    /// If no durable store is configured (callers check
    /// [`Self::durable_due`] first).
    pub fn save_durable(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let (store, _) = self.durable.as_mut().expect("durable_due checked");
        store.save(checkpoint)?;
        let stats = store.last_save_stats();
        self.record_save(stats);
        Ok(())
    }

    /// Save `checkpoint` into `store` on demand. Returns the file's path.
    ///
    /// # Errors
    /// Propagates the store's [`TinError::Io`] failures.
    pub fn save_to(
        &mut self,
        store: &mut CheckpointStore,
        checkpoint: &Checkpoint,
    ) -> Result<PathBuf> {
        let path = store.save(checkpoint)?;
        self.record_save(store.last_save_stats());
        Ok(path)
    }

    /// Count one durable save and fold its timing figures into the
    /// checkpoint metrics.
    fn record_save(&mut self, stats: Option<SaveStats>) {
        self.checkpoints_taken += 1;
        let (Some(o), Some(s)) = (self.obs.as_deref_mut(), stats) else {
            return;
        };
        let m = &mut o.obs.metrics;
        m.observe(o.ckpt_encode_ns, secs_to_ns(s.encode_secs));
        m.observe(o.ckpt_write_ns, secs_to_ns(s.write_secs));
        m.add(o.ckpt_retries, s.retries as u64);
        m.set_gauge(o.ckpt_bytes, s.encoded_bytes as u64);
    }

    /// Record one full-state capture that began at `start` (durable,
    /// on-demand or recovery snapshot alike) and return its duration.
    pub fn record_capture(&mut self, start: Instant) -> Duration {
        let elapsed = start.elapsed();
        if let Some(o) = self.obs.as_deref_mut() {
            o.obs.metrics.observe_duration(o.ckpt_capture_ns, elapsed);
            o.obs.trace.record("checkpoint_capture", 0, start);
        }
        elapsed
    }

    /// Attach `obs`, registering the shared metrics after whatever the
    /// caller registered into it already.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = Some(Box::new(EngineObs::new(obs)));
    }

    /// The attached observability unit, if any.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_deref().map(|o| &o.obs)
    }

    /// Detach and return the observability unit.
    pub fn take_obs(&mut self) -> Option<Obs> {
        self.obs.take().map(|o| o.obs)
    }

    /// Stream a telemetry record every `every` interactions.
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if `every` is zero.
    pub fn set_telemetry(&mut self, sink: Telemetry, every: usize) -> Result<()> {
        let every = positive_interval(every, "telemetry interval")?;
        self.telemetry = Some(Box::new(TelemetryState {
            sink,
            every,
            last_at: None,
        }));
        Ok(())
    }

    /// Whether records can be emitted: a stream and a unit are attached.
    pub fn streams_telemetry(&self) -> bool {
        self.obs.is_some() && self.telemetry.is_some()
    }

    /// Whether the interaction just processed ends a telemetry interval.
    #[inline]
    pub fn telemetry_due(&self) -> bool {
        self.telemetry
            .as_deref()
            .is_some_and(|t| self.cursor.processed.is_multiple_of(t.every))
    }

    /// Whether the stream has advanced since the last record.
    pub fn telemetry_behind(&self) -> bool {
        self.telemetry
            .as_deref()
            .is_some_and(|t| t.last_at != Some(self.cursor.processed as u64))
    }

    /// Emit one record of the unit's current state, tagged with `source`.
    /// Returns `false` without side effects when no stream or no unit is
    /// attached.
    ///
    /// # Errors
    /// Propagates sink write failures as [`TinError::Io`].
    pub fn emit_telemetry(&mut self, source: &str) -> Result<bool> {
        let (Some(o), Some(t)) = (self.obs.as_deref(), self.telemetry.as_deref_mut()) else {
            return Ok(false);
        };
        let at = self.cursor.processed as u64;
        t.sink.emit(at, source, &o.obs.snapshot())?;
        t.last_at = Some(at);
        Ok(true)
    }

    /// The report for everything processed so far, given the current
    /// footprint.
    pub fn report(&self, footprint: FootprintBreakdown) -> EngineReport {
        let c = &self.cursor;
        EngineReport {
            policy: self.policy_key.clone(),
            interactions: c.processed,
            runtime_secs: self.busy_secs,
            total_quantity: c.total_quantity,
            newborn_quantity: c.newborn_quantity,
            relayed_quantity: c.total_quantity - c.newborn_quantity,
            peak_footprint_bytes: c.peak_footprint_bytes.max(footprint.total()),
            footprint,
            checkpoints_taken: self.checkpoints_taken,
        }
    }
}

/// A validated, instrumented streaming front-end for one provenance tracker.
pub struct ProvenanceEngine {
    tracker: Box<dyn ProvenanceTracker>,
    core: EngineCore,
    /// Explicit footprint-sampling interval; `None` uses the default
    /// schedule `max(FOOTPRINT_SAMPLE_INTERVAL, |V|/64)`.
    footprint_sample_interval: Option<usize>,
    /// Per-interaction `tracker.process` latency, registered with the
    /// attached observability unit.
    latency_ns: Option<HistogramId>,
}

impl ProvenanceEngine {
    /// Minimum number of interactions between two peak-footprint samples.
    /// Footprint computation is O(|V|), so the actual interval scales with
    /// the vertex count (`max(1024, |V|/64)`) to keep the amortised
    /// accounting overhead bounded by a small constant per interaction —
    /// provenance footprints grow smoothly, so coarser sampling on huge
    /// graphs loses almost nothing. Trackers with a spike monitor (see
    /// [`ProvenanceTracker::arm_spike_monitor`]) additionally push a
    /// notification whenever their footprint estimate drifts by more than
    /// [`Self::SPIKE_FRACTION`] between samples, so short-lived spikes no
    /// longer hide between the periodic samples.
    pub const FOOTPRINT_SAMPLE_INTERVAL: usize = 1024;

    /// Relative footprint drift at which a tracker-pushed spike notification
    /// triggers an out-of-schedule footprint sample.
    pub const SPIKE_FRACTION: f64 = 0.25;

    /// Build an engine for a policy configuration over `num_vertices`
    /// vertices.
    ///
    /// # Errors
    /// Propagates [`TinError::InvalidConfig`] from the tracker factory.
    pub fn new(config: &PolicyConfig, num_vertices: usize) -> Result<Self> {
        let mut tracker = build_tracker(config, num_vertices)?;
        tracker.arm_spike_monitor(Self::SPIKE_FRACTION);
        Ok(ProvenanceEngine {
            tracker,
            core: EngineCore::new(config, num_vertices),
            footprint_sample_interval: None,
            latency_ns: None,
        })
    }

    /// Sample the footprint every `every` interactions instead of the
    /// default `max(`[`Self::FOOTPRINT_SAMPLE_INTERVAL`]`, |V|/64)`
    /// schedule. Spike-monitor notifications still force out-of-schedule
    /// samples. Footprint computation is O(|V|), so a small interval on a
    /// large graph trades throughput for timeline resolution.
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if `every` is zero.
    pub fn with_footprint_sample_interval(mut self, every: usize) -> Result<Self> {
        self.footprint_sample_interval =
            Some(positive_interval(every, "footprint sample interval")?);
        Ok(self)
    }

    /// Attach an observability unit: per-interaction tracker latency,
    /// footprint samples, spike firings and checkpoint phase timings land
    /// in its metrics, checkpoint spans on its flight recorder. All metric
    /// handles are preregistered here, so the instrumented hot path stays
    /// allocation-free; the engine's observable results are unaffected.
    /// Retrieve the unit with [`Self::take_obs`] when the run ends.
    #[must_use]
    pub fn with_observability(mut self, mut obs: Obs) -> Self {
        self.latency_ns = Some(obs.metrics.histogram("tracker_latency_ns", "ns"));
        self.core.attach_obs(obs);
        self
    }

    /// The attached observability unit, if any (live scraping via
    /// [`Obs::snapshot`]).
    pub fn obs(&self) -> Option<&Obs> {
        self.core.obs()
    }

    /// Detach and return the observability unit for export.
    pub fn take_obs(&mut self) -> Option<Obs> {
        self.core.take_obs()
    }

    /// Stream a delta-encoded telemetry record (see
    /// [`tin_obs::Telemetry`]) every `every` interactions. Attaches a
    /// default observability unit if none is present — telemetry without
    /// metrics would stream empty records.
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if `every` is zero.
    pub fn with_telemetry(mut self, sink: Telemetry, every: usize) -> Result<Self> {
        self.core.set_telemetry(sink, every)?;
        if self.core.obs.is_none() {
            self = self.with_observability(Obs::new());
        }
        Ok(self)
    }

    /// Emit one telemetry record right now, tagged with `source` (the CLI
    /// uses `"final"` for the end-of-run record). Returns `false` without
    /// side effects when no telemetry stream is attached.
    ///
    /// # Errors
    /// Propagates sink write failures as [`TinError::Io`].
    pub fn emit_telemetry(&mut self, source: &str) -> Result<bool> {
        self.core.emit_telemetry(source)
    }

    /// Write a durable [`Checkpoint`] into `store` every `every`
    /// interactions: a full lossless state capture a crashed run can resume
    /// from with [`Self::resume_from`].
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] if `every` is zero.
    pub fn with_durable_checkpoints(
        mut self,
        store: CheckpointStore,
        every: usize,
    ) -> Result<Self> {
        self.core.set_durable(store, every)?;
        Ok(self)
    }

    /// Rebuild an engine from a durable [`Checkpoint`], bit-identical to the
    /// engine that captured it: tracker state, stream position, and flow
    /// counters all resume exactly. The caller then replays the interaction
    /// stream starting at interaction `checkpoint.cursor.processed`.
    ///
    /// # Errors
    /// Propagates factory errors for the embedded policy and
    /// [`TinError::CorruptCheckpoint`] for undecodable vertex payloads.
    pub fn resume_from(checkpoint: &Checkpoint) -> Result<Self> {
        let mut engine = ProvenanceEngine::new(&checkpoint.policy, checkpoint.num_vertices)?;
        checkpoint.restore_into(engine.tracker.as_mut())?;
        // Re-arm the spike monitor: `new` baselined it on an empty tracker,
        // and drift must be measured from the restored footprint.
        engine.tracker.arm_spike_monitor(Self::SPIKE_FRACTION);
        engine.core.restore_cursor(&checkpoint.cursor);
        Ok(engine)
    }

    /// The engine's current stream position and flow counters.
    pub fn cursor(&self) -> StreamCursor {
        self.core.cursor
    }

    /// Capture a durable [`Checkpoint`] of the current state without
    /// touching disk. The tracker's observable state is unchanged.
    ///
    /// # Errors
    /// Returns [`TinError::InvalidConfig`] for trackers without durable
    /// checkpoint support (none of the factory policies).
    pub fn checkpoint(&mut self) -> Result<Checkpoint> {
        let start = Instant::now();
        let checkpoint =
            Checkpoint::capture(&self.core.config, self.core.cursor, self.tracker.as_mut())?;
        self.core.record_capture(start);
        Ok(checkpoint)
    }

    /// Capture the current state and save it into `store` (atomic write,
    /// retry, retention). Returns the checkpoint file's path.
    ///
    /// # Errors
    /// Propagates capture errors and the store's [`TinError::Io`] failures.
    pub fn checkpoint_to(&mut self, store: &mut CheckpointStore) -> Result<PathBuf> {
        let checkpoint = self.checkpoint()?;
        self.core.save_to(store, &checkpoint)
    }

    /// The wrapped tracker.
    pub fn tracker(&self) -> &dyn ProvenanceTracker {
        self.tracker.as_ref()
    }

    /// The stable key of the policy this engine runs.
    pub fn policy_key(&self) -> &str {
        &self.core.policy_key
    }

    /// Current provenance of the quantity buffered at `v`.
    pub fn origins(&self, v: VertexId) -> OriginSet {
        self.tracker.origins(v)
    }

    /// Current buffered quantity `|B_v|`.
    pub fn buffered(&self, v: VertexId) -> Quantity {
        self.tracker.buffered(v)
    }

    /// Validate and process one interaction.
    ///
    /// # Errors
    /// * [`TinError::InvalidQuantity`] / [`TinError::InvalidTimestamp`] /
    ///   [`TinError::SelfLoop`] for malformed interactions,
    /// * [`TinError::UnknownVertex`] for endpoints outside the vertex set,
    /// * [`TinError::OutOfOrder`] if time goes backwards.
    pub fn process(&mut self, r: &Interaction) -> Result<()> {
        self.core.validate(r)?;

        // Flow accounting (Algorithm 1): anything the source buffer cannot
        // cover is newly generated at the source.
        self.core.cursor.newborn_quantity += newborn_quantity(self.tracker.buffered(r.src), r.qty);

        let start = Instant::now();
        self.tracker.process(r);
        let elapsed = start.elapsed();
        self.core.busy_secs += elapsed.as_secs_f64();
        if let (Some(o), Some(latency_ns)) = (self.core.obs.as_deref_mut(), self.latency_ns) {
            // Reuses the latency measurement the engine takes anyway; the
            // record itself is an array index plus integer adds. The sketch
            // offers are linear scans over a pre-sized table — also
            // allocation-free.
            o.obs.metrics.observe_duration(latency_ns, elapsed);
            o.obs.hot_vertices.offer(r.src.raw(), 1);
            o.obs.hot_vertices.offer(r.dst.raw(), 1);
        }

        self.core.advance(r);
        let sample_every = self
            .footprint_sample_interval
            .unwrap_or_else(|| Self::FOOTPRINT_SAMPLE_INTERVAL.max(self.core.num_vertices / 64));
        // Read the spike flag unconditionally: a short-circuited read on a
        // periodic-sample interaction would leave the monitor un-rebaselined
        // and trigger a redundant full sample one interaction later.
        let spiked = self.tracker.take_footprint_spike();
        if spiked || self.core.cursor.processed.is_multiple_of(sample_every) {
            self.core
                .sample_footprint(self.tracker.footprint().total(), spiked);
            if !spiked {
                // A spike read re-baselines on its own; periodic samples
                // re-baseline here so drift is measured from the last sample.
                self.tracker.note_footprint_sampled();
            }
        }
        if self.core.durable_due() {
            let checkpoint = self.checkpoint()?;
            self.core.save_durable(&checkpoint)?;
        }
        if self.core.telemetry_due() {
            self.core.emit_telemetry("interval")?;
        }
        Ok(())
    }

    /// Process every interaction of a slice, stopping at the first error.
    pub fn process_all(&mut self, interactions: &[Interaction]) -> Result<()> {
        for r in interactions {
            self.process(r)?;
        }
        Ok(())
    }

    /// Drain an [`InteractionSource`], returning the final report.
    pub fn run(&mut self, source: &mut dyn InteractionSource) -> Result<EngineReport> {
        while let Some(r) = source.next_interaction()? {
            self.process(&r)?;
        }
        Ok(self.report())
    }

    /// The report for everything processed so far.
    pub fn report(&self) -> EngineReport {
        self.core.report(self.tracker.footprint())
    }
}

impl std::fmt::Debug for ProvenanceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvenanceEngine")
            .field("policy", &self.core.policy_key)
            .field("num_vertices", &self.core.num_vertices)
            .field("processed", &self.core.cursor.processed)
            .finish()
    }
}

/// Algorithm 1's newborn split, shared by every engine front-end: the part
/// of a transfer that the source's buffered quantity cannot cover is newly
/// generated at the source.
#[inline]
pub fn newborn_quantity(buffered_at_src: Quantity, qty: Quantity) -> Quantity {
    (qty - buffered_at_src).max(0.0)
}

/// Run several policy configurations over the same interaction sequence and
/// return one report per configuration, in input order. This is the shape of
/// the paper's comparative experiments (Tables 7 and 8): same workload, one
/// column per policy.
pub fn run_ensemble(
    configs: &[PolicyConfig],
    num_vertices: usize,
    interactions: &[Interaction],
) -> Result<Vec<EngineReport>> {
    let mut reports = Vec::with_capacity(configs.len());
    for config in configs {
        let mut engine = ProvenanceEngine::new(config, num_vertices)?;
        engine.process_all(interactions)?;
        reports.push(engine.report());
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::paper_running_example;
    use crate::policy::SelectionPolicy;
    use crate::quantity::qty_approx_eq;
    use crate::stream::VecSource;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    fn fifo_config() -> PolicyConfig {
        PolicyConfig::Plain(SelectionPolicy::Fifo)
    }

    #[test]
    fn engine_runs_the_running_example() {
        let mut engine = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        let mut source = VecSource::new(paper_running_example());
        let report = engine.run(&mut source).unwrap();
        assert_eq!(report.interactions, 6);
        assert_eq!(report.policy, "fifo");
        assert!(report.runtime_secs >= 0.0);
        // Σ r.q = 21; newborn = 3 (interaction 1) + 2 (interaction 2)
        // + 4 (interaction 4) = 9; relayed = 12 (Table 2's parenthesised values).
        assert!(qty_approx_eq(report.total_quantity, 21.0));
        assert!(qty_approx_eq(report.newborn_quantity, 9.0));
        assert!(qty_approx_eq(report.relayed_quantity, 12.0));
        assert!((report.newborn_fraction() - 9.0 / 21.0).abs() < 1e-9);
        assert!(report.footprint.total() > 0);
        // Peak footprint is sampled (and floored at the final footprint).
        assert!(report.peak_footprint_bytes >= report.footprint.total());
        // Buffered totals match Table 2's final row.
        assert!(qty_approx_eq(engine.buffered(v(0)), 3.0));
        assert!(qty_approx_eq(engine.buffered(v(1)), 2.0));
        assert!(qty_approx_eq(engine.buffered(v(2)), 4.0));
        assert_eq!(engine.origins(v(0)).total(), engine.buffered(v(0)));
        assert_eq!(engine.policy_key(), "fifo");
        assert_eq!(engine.tracker().name(), "FIFO");
        assert!(format!("{engine:?}").contains("fifo"));
    }

    #[test]
    fn engine_rejects_malformed_input() {
        let mut engine = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        // Self-loop.
        let err = engine
            .process(&Interaction::new(1u32, 1u32, 1.0, 2.0))
            .unwrap_err();
        assert!(matches!(err, TinError::SelfLoop { .. }));
        // Non-positive quantity.
        let err = engine
            .process(&Interaction::new(0u32, 1u32, 1.0, 0.0))
            .unwrap_err();
        assert!(matches!(err, TinError::InvalidQuantity { .. }));
        // Unknown vertex.
        let err = engine
            .process(&Interaction::new(0u32, 9u32, 1.0, 2.0))
            .unwrap_err();
        assert!(matches!(err, TinError::UnknownVertex { .. }));
        // Out of order.
        engine
            .process(&Interaction::new(0u32, 1u32, 5.0, 2.0))
            .unwrap();
        let err = engine
            .process(&Interaction::new(0u32, 1u32, 4.0, 2.0))
            .unwrap_err();
        assert!(matches!(err, TinError::OutOfOrder { .. }));
        // Equal timestamps are fine.
        engine
            .process(&Interaction::new(1u32, 2u32, 5.0, 1.0))
            .unwrap();
    }

    #[test]
    fn engine_propagates_factory_errors() {
        let bad = PolicyConfig::Selective { tracked: vec![] };
        assert!(ProvenanceEngine::new(&bad, 3).is_err());
    }

    #[test]
    fn ensemble_compares_policies_on_the_same_stream() {
        let configs = vec![
            PolicyConfig::Plain(SelectionPolicy::NoProvenance),
            PolicyConfig::Plain(SelectionPolicy::Fifo),
            PolicyConfig::Plain(SelectionPolicy::ProportionalDense),
        ];
        let reports = run_ensemble(&configs, 3, &paper_running_example()).unwrap();
        assert_eq!(reports.len(), 3);
        // Flow accounting is policy-independent: every policy moves the same
        // quantity and generates the same newborn quantity.
        for report in &reports {
            assert_eq!(report.interactions, 6);
            assert!(qty_approx_eq(report.total_quantity, 21.0));
            assert!(qty_approx_eq(report.newborn_quantity, 9.0));
        }
        assert_eq!(reports[0].policy, "noprov");
        assert_eq!(reports[2].policy, "prop_dense");
        // An invalid member aborts the whole ensemble.
        let bad = vec![PolicyConfig::Windowed { window: 0 }];
        assert!(run_ensemble(&bad, 3, &paper_running_example()).is_err());
    }

    /// Satellite (PR 5): trackers push footprint-spike notifications, so a
    /// spike that lives and dies *between* two periodic samples still shows
    /// up in `peak_footprint_bytes`. The stream below grows a large
    /// provenance list at a hub and then lets a keep-important budget shrink
    /// rebuild it with a tight capacity — the only periodic sample lands
    /// mid-growth, so without the spike callback the reported peak would
    /// miss the top of the ramp.
    #[test]
    fn spike_callback_catches_peaks_between_samples() {
        use crate::policy::ShrinkCriterion;
        let n = 2000usize;
        let capacity = 1500usize;
        let config = PolicyConfig::Budgeted {
            capacity,
            keep_fraction: 0.5,
            criterion: ShrinkCriterion::KeepImportant,
            important: vec![VertexId::new(1)],
        };
        let mut engine = ProvenanceEngine::new(&config, n).unwrap();
        // Phase 1: `capacity` distinct generators feed vertex 0 — its list
        // grows to the budget limit without shrinking.
        for i in 1..=capacity as u32 {
            engine
                .process(&Interaction::new(i, 0u32, i as f64, 1.0))
                .unwrap();
        }
        let at_peak = engine.tracker().footprint().total();
        // Phase 2: one more origin pushes the list over budget; the
        // keep-important shrink rebuilds it at half the entries with a
        // fresh, tight allocation.
        engine
            .process(&Interaction::new(1501u32, 0u32, 1501.0, 1.0))
            .unwrap();
        let report = engine.report();
        // The shrink genuinely released memory...
        assert!(
            report.footprint.total() < at_peak,
            "shrink should drop the footprint: {} vs {at_peak}",
            report.footprint.total()
        );
        // ...and the single periodic sample (at interaction 1024, two thirds
        // up the ramp) undercounts the true peak, which only the spike
        // samples reach.
        assert!(
            report.peak_footprint_bytes as f64 >= 0.95 * at_peak as f64,
            "peak {} missed the spike of {at_peak}",
            report.peak_footprint_bytes
        );
        assert!(report.peak_footprint_bytes > report.footprint.total());
    }

    #[test]
    fn durable_checkpoints_resume_bit_identically() {
        use crate::checkpoint::CheckpointStore;
        let dir = std::env::temp_dir().join(format!("tin_engine_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let interactions = paper_running_example();

        // Interrupted run: durable checkpoint every 2 interactions, "crash"
        // after 4.
        let mut engine = ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_durable_checkpoints(store, 2)
            .unwrap();
        engine.process_all(&interactions[..4]).unwrap();
        assert_eq!(engine.report().checkpoints_taken, 2);

        // Recover from disk and replay the tail.
        let store = CheckpointStore::open(&dir).unwrap();
        let (_, checkpoint) = store.load_latest_valid().unwrap().unwrap();
        assert_eq!(checkpoint.cursor.processed, 4);
        let mut resumed = ProvenanceEngine::resume_from(&checkpoint).unwrap();
        resumed
            .process_all(&interactions[checkpoint.cursor.processed..])
            .unwrap();

        // Uninterrupted reference run.
        let mut reference = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        reference.process_all(&interactions).unwrap();

        // Bit-identical: exact float equality, not approximate.
        let resumed_report = resumed.report();
        let reference_report = reference.report();
        assert_eq!(resumed_report.interactions, reference_report.interactions);
        assert_eq!(
            resumed_report.total_quantity,
            reference_report.total_quantity
        );
        assert_eq!(
            resumed_report.newborn_quantity,
            reference_report.newborn_quantity
        );
        for i in 0..3u32 {
            assert_eq!(resumed.buffered(v(i)), reference.buffered(v(i)));
            assert_eq!(resumed.origins(v(i)), reference.origins(v(i)));
        }

        // Zero interval is rejected.
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_durable_checkpoints(store, 0)
            .is_err());
        // On-demand checkpoint_to saves one more file.
        let mut store = CheckpointStore::open(&dir).unwrap();
        let path = reference.checkpoint_to(&mut store).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// PR 8 tentpole + satellite: an attached [`Obs`] unit records
    /// per-interaction latency, footprint samples at the configured
    /// interval, and checkpoint phase timings — without changing any
    /// engine-observable result.
    #[test]
    fn observability_records_latency_footprint_and_checkpoints() {
        let interactions = paper_running_example();
        let dir = std::env::temp_dir().join(format!("tin_obs_engine_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt_store = CheckpointStore::open(&dir).unwrap();
        let mut engine = ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_footprint_sample_interval(2)
            .unwrap()
            .with_durable_checkpoints(ckpt_store, 3)
            .unwrap()
            .with_observability(Obs::new());
        let mut plain = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        engine.process_all(&interactions).unwrap();
        plain.process_all(&interactions).unwrap();

        // Instrumentation must not perturb results: exact equality.
        for i in 0..3u32 {
            assert_eq!(engine.buffered(v(i)), plain.buffered(v(i)));
            assert_eq!(engine.origins(v(i)), plain.origins(v(i)));
        }
        assert_eq!(
            engine.report().total_quantity,
            plain.report().total_quantity
        );

        let snap = engine.obs().expect("obs attached").snapshot();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("{name} registered"))
                .clone()
        };
        assert_eq!(hist("tracker_latency_ns").count, 6);
        assert!(hist("tracker_latency_ns").p50 <= hist("tracker_latency_ns").max);
        // Sample interval 2 over 6 interactions: at least 3 gauge samples.
        let footprint = snap.gauges.iter().find(|g| g.name == "footprint_bytes");
        assert!(footprint.unwrap().samples >= 3);
        assert!(footprint.unwrap().last > 0);
        // Durable checkpoints every 3 interactions: 2 saves, each timed.
        assert_eq!(hist("checkpoint_capture_ns").count, 2);
        assert_eq!(hist("checkpoint_encode_ns").count, 2);
        assert_eq!(hist("checkpoint_write_ns").count, 2);
        // ...and spans on the flight recorder.
        let obs = engine.take_obs().expect("detachable");
        assert_eq!(
            obs.trace
                .events()
                .iter()
                .filter(|e| e.name == "checkpoint_capture")
                .count(),
            2
        );
        assert!(engine.obs().is_none());

        // Zero interval is rejected.
        assert!(ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_footprint_sample_interval(0)
            .is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn telemetry_streams_interval_and_final_records() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

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

        let interactions = paper_running_example();
        let buf = SharedBuf::default();
        // No explicit with_observability: with_telemetry attaches a default.
        let mut engine = ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_telemetry(Telemetry::new(Box::new(buf.clone())), 2)
            .unwrap();
        engine.process_all(&interactions).unwrap();
        assert!(engine.emit_telemetry("final").unwrap());

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let records: Vec<tin_obs::json::Value> = text
            .lines()
            .map(|l| tin_obs::json::Value::parse(l).expect("valid JSONL"))
            .collect();
        // 6 interactions at cadence 2 → 3 interval records, plus the final.
        assert_eq!(records.len(), 4);
        use tin_obs::json::Value;
        assert_eq!(records[0].get("kind").and_then(Value::as_str), Some("full"));
        assert_eq!(
            records[0].get("source").and_then(Value::as_str),
            Some("interval")
        );
        assert_eq!(
            records[3].get("kind").and_then(Value::as_str),
            Some("delta")
        );
        assert_eq!(
            records[3].get("source").and_then(Value::as_str),
            Some("final")
        );
        assert_eq!(records[3].get("at").and_then(Value::as_u64), Some(6));
        // The hot-vertex sketch sees both endpoints of every interaction:
        // total touch weight across the sketch is 2 per interaction.
        let hot = records[3]
            .get("hot_vertices")
            .and_then(Value::as_arr)
            .unwrap();
        let touches: u64 = hot
            .iter()
            .map(|e| e.get("weight").and_then(Value::as_u64).unwrap())
            .sum();
        assert_eq!(touches, 12);

        // An engine without telemetry reports `false` and emits nothing.
        let mut plain = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        assert!(!plain.emit_telemetry("final").unwrap());

        // Zero cadence is rejected.
        assert!(ProvenanceEngine::new(&fifo_config(), 3)
            .unwrap()
            .with_telemetry(Telemetry::new(Box::new(std::io::sink())), 0)
            .is_err());
    }

    #[test]
    fn throughput_is_zero_for_empty_runs() {
        let engine = ProvenanceEngine::new(&fifo_config(), 3).unwrap();
        let report = engine.report();
        assert_eq!(report.interactions, 0);
        assert_eq!(report.throughput(), 0.0);
        assert_eq!(report.newborn_fraction(), 0.0);
    }
}
