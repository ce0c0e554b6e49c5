//! The multi-worker streaming engine.
//!
//! [`ServeEngine`] consumes a virtual-time alert stream and runs the full
//! RCACopilot pipeline — collection → summarization → embedding →
//! retrieval → prediction — concurrently across a pool of OS threads fed
//! by a bounded queue. Four design rules keep it honest:
//!
//! 1. **Plan on the virtual clock, execute on real threads.** Admission,
//!    shedding, degraded mode and retrieval visibility are all decided by
//!    a deterministic pre-pass over the stream (ex-ante costs, reference
//!    drain rate, infinite-server resolution times). Worker threads then
//!    execute the admitted work in any order the scheduler likes.
//! 2. **Commit in stream order.** A commit watermark advances over event
//!    sequence numbers; in [`IndexMode::Online`] a resolved incident is
//!    inserted into the incremental index exactly at its commit point, so
//!    index growth order never depends on thread interleaving.
//! 3. **Dispatch behind the watermark.** An event that is entitled to see
//!    historical entry `j` (because `j` resolved before the event
//!    arrived) is not handed to a worker until `j` has committed. Since
//!    entries that resolved *after* the event's arrival are filtered out
//!    at query time by `visible_from`, retrieval results — and therefore
//!    the prediction log — are byte-identical for every worker count.
//! 4. **No event dies with its worker.** Workers run under a supervisor
//!    loop ([`crate::supervisor`]): a panic is caught, the worker
//!    respawned, and the lost in-flight event re-dispatched. An event
//!    that keeps killing workers (or exhausts its attempt budget) is
//!    quarantined as a poison pill with a degraded
//!    [`EventOutcome::Failed`] dead-letter record, so the watermark —
//!    and the stream — always finishes. Fault pressure is injected
//!    deterministically by [`crate::fault`], and durable progress can be
//!    journaled to a [`WriteAheadLog`] so a run killed mid-stream
//!    resumes byte-identically ([`ServeEngine::run_with_wal`]).

use crate::admission::{self, AdmissionConfig, AdmissionInput, AdmissionPlan, Disposition};
use crate::clock::{Clock, ClockConfig, ClockMode};
use crate::cost::{self, StageCosts, DEGRADED_SUMMARIZE_SECS};
use crate::fault::{AttemptFate, WorkerFault, WorkerFaultConfig, WorkerFaultPlan};
use crate::metrics::MetricsRegistry;
use crate::stream::{self, StreamConfig, StreamEvent};
use crate::supervisor::{
    lock_recovered, respawn_backoff, wait_recovered, AttemptLedger, InFlight, RetryQueue, Verdict,
};
use crate::vmetrics::{FaultCounters, VirtualHistogram, REPORT_SCHEMA_VERSION};
use crate::wal::{Recovery, WalError, WalRecord, WriteAheadLog};
use rcacopilot_core::memo::{ExactMemo, MemoPolicy};
use rcacopilot_core::plan::{InferencePlan, PlanCaches, PlanExecutor, StageHook, SummarizeMode};
use rcacopilot_core::retrieval::{CheckpointEntry, ShardedHistoricalIndex};
use rcacopilot_core::{CollectionStage, ContextSpec, HistoricalEntry, RcaCopilot, RcaPrediction};
use rcacopilot_simcloud::Incident;
use rcacopilot_telemetry::ids::TenantId;
use rcacopilot_telemetry::{AlertType, Severity, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// Which historical index answers retrieval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexMode {
    /// The pipeline's frozen training index — exactly the batch system.
    Frozen,
    /// An incremental index warm-started from the training set; each
    /// incident is inserted (with its post-resolution OCE label) once it
    /// resolves, so later incidents retrieve earlier streamed ones.
    Online,
}

/// Per-tenant circuit breaker over the worker-fault climate.
///
/// The breaker is planned deterministically on the virtual clock: the
/// engine replays each event's attempt fate from the fault plan
/// ([`WorkerFaultPlan::simulate_fate`]) before dispatch, trips after
/// [`BreakerConfig::trip_quarantines`] planned quarantines, and
/// fast-fails every event arriving within the cooldown window as a
/// [`EventOutcome::Failed`] dead-letter record — never handing a
/// known-poisonous storm to the worker pool, so a flapping tenant burns
/// its own breaker instead of the shared workers. Because the plan
/// depends only on the stream and the fault seed, the prediction log
/// stays byte-identical for every worker and shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Planned quarantines before the breaker opens (≥ 1).
    pub trip_quarantines: u32,
    /// Virtual seconds the breaker stays open once tripped; events
    /// arriving inside the window are fast-failed.
    pub cooldown_secs: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_quarantines: 3,
            cooldown_secs: 600,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Bound of the dispatch queue (≥ 1).
    pub queue_capacity: usize,
    /// Retrieval index mode.
    pub index_mode: IndexMode,
    /// Admission-control policy.
    pub admission: AdmissionConfig,
    /// Seed of the ex-ante cost model.
    pub cost_seed: u64,
    /// Entries per time-ordered chunk of the online index: the unit a
    /// publish shares and an insert copies. It never changes an answer.
    pub max_cell: usize,
    /// Retrieval-index shards (≥ 1). Entries route to a shard by a
    /// stable hash of their category, each shard owns its own lock and
    /// epoch state, and the cross-shard merge preserves exact scores and
    /// tie order — the prediction log is byte-identical for every shard
    /// count. The memo caches shard to the same width.
    pub shards: usize,
    /// Prompt-context configuration (must match the batch pipeline's for
    /// parity).
    pub spec: ContextSpec,
    /// Memoization policy for the summary/embedding caches. Every policy
    /// keeps the prediction log byte-identical to an uncached run; the
    /// default exact content hash skips re-raised duplicates' work.
    pub memo: Arc<dyn MemoPolicy>,
    /// Worker-fault injection (disabled by default).
    pub faults: WorkerFaultConfig,
    /// The tenant this engine instance serves. Every [`EventRecord`] and
    /// every journaled [`WalRecord`] is tagged with it, sequence numbers
    /// are tenant-local, and the memo caches are namespaced to it — the
    /// engine itself is single-tenant; the tenant layer
    /// ([`crate::tenant`]) composes one engine per tenant into a
    /// bulkheaded multi-tenant run.
    pub tenant: TenantId,
    /// Worker kills before an event is quarantined as a poison pill.
    pub quarantine_kills: u32,
    /// Total attempts (including stalls/transient losses) before
    /// quarantine.
    pub max_attempts: u32,
    /// Per-tenant circuit breaker (`None` = disabled, the default:
    /// behavior is then byte-identical to pre-breaker engines).
    pub breaker: Option<BreakerConfig>,
    /// Shared physical memo caches, for multi-tenant runs that bulkhead
    /// one cache pool across tenants via key namespacing (`None` = the
    /// engine builds its own). A shared pool must have been created with
    /// this config's shard count.
    pub caches: Option<Arc<PlanCaches>>,
    /// Simulated crash: stop dispatching at the first event arriving
    /// after this virtual instant, leaving the rest of the stream
    /// uncommitted. Pair with [`ServeEngine::run_with_wal`] to test
    /// recovery.
    pub crash_at: Option<SimTime>,
    /// Fold the WAL into a checkpoint every this many commits
    /// (0 = never). Only meaningful under [`ServeEngine::run_with_wal`].
    pub checkpoint_every: usize,
    /// Which clock the run executes on: the deterministic virtual DES
    /// backend (the default — every output byte-identical to pre-clock
    /// engines) or a real wall clock under which stage costs, stalls and
    /// respawn backoff become actual sleeps ([`crate::clock`]).
    pub clock: ClockConfig,
    /// Observability registry the run exports into — per-stage wall and
    /// virtual histograms, per-tenant outcome counters, fault counters
    /// ([`crate::metrics`]). `None` (the default) records nothing.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            index_mode: IndexMode::Frozen,
            admission: AdmissionConfig::default(),
            cost_seed: 11,
            max_cell: 64,
            shards: 1,
            spec: ContextSpec::default(),
            memo: Arc::new(ExactMemo),
            faults: WorkerFaultConfig::disabled(),
            tenant: TenantId::default(),
            quarantine_kills: 2,
            max_attempts: 6,
            breaker: None,
            caches: None,
            crash_at: None,
            checkpoint_every: 0,
            clock: ClockConfig::Virtual,
            metrics: None,
        }
    }
}

/// An on-call engineer's correction of a served prediction, to be
/// journaled via [`ServeEngine::ingest_feedback`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OceFeedback {
    /// The category the OCE determined to be correct.
    pub category: String,
    /// The OCE's corrected root-cause summary.
    pub summary: String,
    /// Virtual instant the correction was filed — the corrected entry's
    /// `visible_from` watermark, so earlier queries never see it.
    pub corrected_at: SimTime,
}

/// What happened to one stream event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventOutcome {
    /// Rejected by admission control.
    Shed {
        /// Virtual backlog at the event's arrival.
        backlog_secs: u64,
    },
    /// Processed to a prediction.
    Predicted {
        /// The pipeline's answer.
        prediction: RcaPrediction,
        /// True when summarization was skipped under load.
        degraded: bool,
    },
    /// The pipeline could not produce a prediction: the event was
    /// quarantined as a poison pill or its collection failed terminally.
    /// A degraded dead-letter record instead of a process abort.
    Failed {
        /// Human-readable `[pipeline failure]` reason.
        reason: String,
    },
}

/// The engine's record for one stream event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Stream sequence number.
    pub seq: usize,
    /// Index of the incident in the streamed slice.
    pub incident_idx: usize,
    /// Virtual arrival instant.
    pub at: SimTime,
    /// Alert severity.
    pub severity: Severity,
    /// Alert type.
    pub alert_type: AlertType,
    /// Tenant the serving engine ran this event for
    /// ([`EngineConfig::tenant`]).
    pub tenant: TenantId,
    /// Outcome.
    pub outcome: EventOutcome,
}

impl EventRecord {
    /// Canonical one-line rendering; the concatenation of these lines is
    /// the engine's deterministic prediction log.
    pub fn log_line(&self) -> String {
        let head = format!(
            "seq={} inc={} at={} ten={} sev={} type={}",
            self.seq,
            self.incident_idx,
            self.at.as_secs(),
            self.tenant.0,
            self.severity.level(),
            self.alert_type,
        );
        match &self.outcome {
            EventOutcome::Shed { backlog_secs } => {
                format!("{head} verdict=shed backlog={backlog_secs}")
            }
            EventOutcome::Predicted {
                prediction,
                degraded,
            } => format!(
                "{head} verdict=predicted label={} unseen={} conf={:.6} compl={:.4} \
                 degraded={} demos={}",
                prediction.label,
                prediction.unseen,
                prediction.confidence,
                prediction.completeness,
                degraded,
                prediction.demo_categories.join(","),
            ),
            // {reason:?} keeps the line single-line whatever the reason.
            EventOutcome::Failed { reason } => {
                format!("{head} verdict=failed reason={reason:?}")
            }
        }
    }
}

/// Wall-clock statistics of a real-mode run ([`ClockConfig::Real`]).
/// Unlike the prediction log these are *not* deterministic — they are
/// the host-hardware measurements real mode exists to take.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallStats {
    /// Total run duration, dispatcher start to pool drain, nanoseconds.
    pub wall_nanos: u64,
    /// Events whose dispatch-to-commit latency was measured (admitted
    /// events that reached a worker).
    pub completed: usize,
    /// Completed events per wall-clock second.
    pub throughput_per_sec: f64,
    /// Median dispatch-to-commit latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile dispatch-to-commit latency, milliseconds.
    pub p99_ms: f64,
}

impl WallStats {
    /// Derives the stats from per-event latencies (nanoseconds) and the
    /// run duration. Returns a zeroed struct when nothing completed.
    fn from_latencies(mut latencies: Vec<u64>, wall_nanos: u64) -> Self {
        latencies.sort_unstable();
        let completed = latencies.len();
        let pct = |p: f64| -> f64 {
            if latencies.is_empty() {
                return 0.0;
            }
            let rank = ((p * completed as f64).ceil() as usize).clamp(1, completed);
            latencies[rank - 1] as f64 / 1e6
        };
        WallStats {
            wall_nanos,
            completed,
            throughput_per_sec: if wall_nanos == 0 {
                0.0
            } else {
                completed as f64 / (wall_nanos as f64 / 1e9)
            },
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
        }
    }

    /// JSON rendering for the engine report and the bench artifact.
    pub fn to_json(&self) -> Value {
        json!({
            "wall_nanos": self.wall_nanos,
            "completed": self.completed,
            "throughput_per_sec": self.throughput_per_sec,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
        })
    }
}

/// Result of one engine run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Per-event records in stream order. Always the contiguous committed
    /// prefix of the stream; shorter than [`ServeOutcome::planned`] only
    /// under a simulated crash ([`EngineConfig::crash_at`]).
    pub records: Vec<EventRecord>,
    /// The deterministic prediction log (one line per event). Identical
    /// for every worker count and queue capacity.
    pub log: String,
    /// Events the stream planned in total.
    pub planned: usize,
    /// Full JSON report (stages, admission, caches, faults, queue
    /// depths), versioned by its `schema_version` field
    /// ([`REPORT_SCHEMA_VERSION`]). Cache hit/miss counters depend on
    /// thread interleaving, so the report — unlike `log` — is not
    /// byte-stable across runs.
    pub report: Value,
    /// Wall-clock measurements; `Some` exactly when the run executed
    /// under [`ClockConfig::Real`].
    pub wall: Option<WallStats>,
}

impl ServeOutcome {
    /// True when a simulated crash cut the run short of the full stream.
    pub fn crashed(&self) -> bool {
        self.records.len() < self.planned
    }
}

/// A processed slot awaiting commit.
struct Slot {
    record: EventRecord,
    /// Entry to insert into the online index at commit time.
    entry: Option<(HistoricalEntry, SimTime)>,
}

/// Commit state: processed slots plus the in-order watermark.
struct CommitState {
    slots: Vec<Option<Slot>>,
    next: usize,
}

/// Shared per-run context handed to workers.
struct RunCtx<'a> {
    incidents: &'a [Incident],
    events: &'a [StreamEvent],
    plan: &'a AdmissionPlan,
    resolve: &'a [Option<SimTime>],
    online: Option<&'a ShardedHistoricalIndex>,
    inference: &'a InferencePlan,
    caches: &'a PlanCaches,
    counters: &'a FaultCounters,
    /// The run's time boundary: every sleep/deadline/backoff goes here.
    clock: &'a dyn Clock,
    /// Ex-ante per-event stage costs — the real-clock sleep schedule.
    costs: &'a [StageCosts],
    /// Observability registry, when installed.
    metrics: Option<&'a MetricsRegistry>,
    /// Per-event dispatch-to-commit wall latencies (real mode only).
    wall_latencies: &'a Mutex<Vec<u64>>,
}

/// Per-event [`StageHook`] the engine installs on the executor when a
/// real clock or a metrics registry is present. After each stage's
/// compute it sleeps the stage's *modeled* virtual cost through the
/// clock (free in virtual mode), then records the stage's total wall
/// duration — compute plus modeled wait — into the registry and the
/// tracing stream. The hook never touches stage outputs, so the
/// prediction log is independent of its presence.
struct RealtimeStageHook<'a> {
    clock: &'a dyn Clock,
    costs: &'a StageCosts,
    degraded: bool,
    metrics: Option<&'a MetricsRegistry>,
    seq: usize,
    tenant: TenantId,
}

impl StageHook for RealtimeStageHook<'_> {
    fn on_stage(&self, stage: &'static str, wall_nanos: u64) {
        // The executor fuses retrieval into its "predict" stage.
        let modeled_secs = if stage == "predict" {
            self.costs.stage_secs("retrieve", self.degraded)
                + self.costs.stage_secs("predict", self.degraded)
        } else {
            self.costs.stage_secs(stage, self.degraded)
        };
        let before = self.clock.wall_nanos();
        self.clock.sleep(SimDuration::from_secs(modeled_secs));
        let total_nanos = wall_nanos + self.clock.wall_nanos().saturating_sub(before);
        if let Some(metrics) = self.metrics {
            let tenant = self.tenant.0.to_string();
            metrics.observe(
                "rca_stage_seconds",
                &[("stage", stage), ("tenant", &tenant)],
                total_nanos as f64 / 1e9,
            );
        }
        #[cfg(feature = "tracing")]
        tracing::trace!(
            seq = self.seq,
            tenant = self.tenant.0,
            stage = stage,
            wall_us = total_nanos / 1_000,
            "stage complete"
        );
        #[cfg(not(feature = "tracing"))]
        let _ = self.seq;
    }
}

/// Where committed slots go: the online index, and (when journaling) the
/// WAL. Owned by [`advance`], which runs under the commit-state lock, so
/// journal order always equals commit order.
struct CommitSink<'a> {
    online: Option<&'a ShardedHistoricalIndex>,
    wal: Option<&'a Mutex<&'a mut WriteAheadLog>>,
    checkpoint_every: usize,
    counters: &'a FaultCounters,
    tenant: TenantId,
}

/// Everything one worker thread needs, shared by reference across the
/// pool.
struct WorkerEnv<'a> {
    ctx: &'a RunCtx<'a>,
    state: &'a Mutex<CommitState>,
    watermark: &'a Condvar,
    rx: &'a Mutex<mpsc::Receiver<usize>>,
    queue_depth: &'a AtomicUsize,
    retry: &'a RetryQueue,
    ledger: &'a AttemptLedger,
    plan: &'a WorkerFaultPlan,
    sink: &'a CommitSink<'a>,
}

/// The streaming serving engine around a trained pipeline.
///
/// The pipeline is held behind an [`Arc`], so a multi-tenant plane can
/// stamp out thousands of per-tenant engines from one trained model
/// without cloning its FastText weights or historical index — see
/// [`ServeEngine::shared`].
#[derive(Debug)]
pub struct ServeEngine {
    copilot: Arc<RcaCopilot>,
    stage: CollectionStage,
    config: EngineConfig,
}

impl ServeEngine {
    /// Wraps a trained pipeline with the standard (fault-free) collection
    /// stage.
    pub fn new(copilot: RcaCopilot, config: EngineConfig) -> Self {
        ServeEngine::shared(Arc::new(copilot), config)
    }

    /// Like [`ServeEngine::new`], but sharing an already-`Arc`'d pipeline
    /// — per-engine setup is one refcount bump, not a model clone. This
    /// is how the tenant-sharded runtime keeps per-tenant construction
    /// O(1).
    pub fn shared(copilot: Arc<RcaCopilot>, config: EngineConfig) -> Self {
        ServeEngine::with_stage_shared(copilot, CollectionStage::standard(), config)
    }

    /// Wraps a trained pipeline with a custom collection stage — e.g. one
    /// whose telemetry plane injects faults.
    pub fn with_stage(copilot: RcaCopilot, stage: CollectionStage, config: EngineConfig) -> Self {
        ServeEngine::with_stage_shared(Arc::new(copilot), stage, config)
    }

    /// [`ServeEngine::with_stage`] over a shared pipeline.
    pub fn with_stage_shared(
        copilot: Arc<RcaCopilot>,
        stage: CollectionStage,
        config: EngineConfig,
    ) -> Self {
        ServeEngine {
            copilot,
            stage,
            config,
        }
    }

    /// The wrapped pipeline.
    pub fn copilot(&self) -> &RcaCopilot {
        &self.copilot
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Streams `incidents` through the engine and returns the records,
    /// the deterministic prediction log, and the virtual-time report.
    ///
    /// The engine never aborts on a worker failure: panicking workers
    /// are respawned, lost events re-dispatched, poison pills
    /// quarantined to [`EventOutcome::Failed`] dead-letter records, and
    /// a failing collection degrades the single event rather than the
    /// run.
    pub fn run(&self, incidents: &[Incident], stream_config: &StreamConfig) -> ServeOutcome {
        let events = stream::schedule(incidents, stream_config);
        let online = self.warm_index();
        self.run_internal(incidents, events, None, Recovery::default(), online)
    }

    /// Like [`ServeEngine::run`], but journaling every commit (and index
    /// epoch) to `wal`, and first resuming from whatever the journal
    /// already holds. An engine killed mid-stream — simulated with
    /// [`EngineConfig::crash_at`] — picks up at the committed prefix and
    /// produces a prediction log byte-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Found before any event runs:
    ///
    /// - [`WalError::Gap`] if the journal's commit prefix has a gap, only
    ///   possible through in-memory misuse, since loading a stored
    ///   journal quarantines corruption and prunes past it;
    /// - [`WalError::LongerThanStream`] if the journal holds more commits
    ///   than the stream plans events;
    /// - [`WalError::WarmBase`] if its checkpoint names a warm base other
    ///   than this engine's trained history.
    pub fn run_with_wal(
        &self,
        incidents: &[Incident],
        stream_config: &StreamConfig,
        wal: &mut WriteAheadLog,
    ) -> Result<ServeOutcome, WalError> {
        let recovery = wal.recover()?;
        let events = stream::schedule(incidents, stream_config);
        if recovery.committed() > events.len() {
            return Err(WalError::LongerThanStream {
                committed: recovery.committed(),
                events: events.len(),
            });
        }
        let online = match &recovery.checkpoint {
            // A checkpoint restores into *this* run's shard count:
            // entries re-route deterministically, so the answers (and the
            // log) don't depend on the crashed run's count.
            Some(ckpt) if self.config.index_mode == IndexMode::Online => Some(
                ShardedHistoricalIndex::restore(
                    ckpt,
                    self.copilot.index().entries(),
                    self.config.shards.max(1),
                )
                .map_err(WalError::WarmBase)?,
            ),
            _ => self.warm_index(),
        };
        if let Some(idx) = &online {
            // Re-apply entries journaled after the last checkpoint —
            // commits and feedback corrections, in journal order — and
            // publish each touched shard once: epoch-batch boundaries are
            // immaterial because visibility is filtered per query by
            // `visible_from`.
            let mut dirty = BTreeSet::new();
            for ce in &recovery.entries {
                dirty.insert(idx.insert(ce.entry.clone(), ce.visible_from));
            }
            for shard in dirty {
                idx.publish(shard);
            }
            for (&shard, &epoch) in &recovery.shard_epochs {
                if shard < idx.shard_count() && epoch > idx.epoch(shard) {
                    idx.set_epoch(shard, epoch);
                }
            }
        }
        Ok(self.run_internal(incidents, events, Some(wal), recovery, online))
    }

    /// The online index warmed from the copilot's trained history, or
    /// `None` in frozen-index mode.
    fn warm_index(&self) -> Option<ShardedHistoricalIndex> {
        (self.config.index_mode == IndexMode::Online).then(|| {
            ShardedHistoricalIndex::warm(
                self.copilot.index().entries(),
                self.config.shards.max(1),
                self.config.max_cell,
            )
        })
    }

    /// Journals an on-call engineer's correction of a served prediction:
    /// the original entry's identity, arrival time and embedding with the
    /// OCE's corrected category and summary, visible to queries from the
    /// correction instant onward. The next [`ServeEngine::run_with_wal`]
    /// over the journal replays the correction into the corrected
    /// category's shard alongside the committed entries — starting the
    /// feedback-ingestion loop the batch pipeline's `FeedbackStore` only
    /// records. Returns the corrected entry as journaled.
    pub fn ingest_feedback(
        &self,
        wal: &mut WriteAheadLog,
        original: &HistoricalEntry,
        feedback: &OceFeedback,
    ) -> HistoricalEntry {
        let corrected = HistoricalEntry {
            id: original.id,
            category: feedback.category.clone(),
            summary: feedback.summary.clone(),
            at: original.at,
            embedding: original.embedding.clone(),
        };
        wal.append(&WalRecord::Feedback {
            entry: CheckpointEntry {
                entry: corrected.clone(),
                visible_from: feedback.corrected_at,
            },
            tenant: self.config.tenant,
        });
        corrected
    }

    /// Runs the scheduled `events`, resuming after `recovery`'s commits,
    /// which fit the stream ([`ServeEngine::run_with_wal`] checks).
    fn run_internal(
        &self,
        incidents: &[Incident],
        events: Vec<StreamEvent>,
        wal: Option<&mut WriteAheadLog>,
        recovery: Recovery,
        online: Option<ShardedHistoricalIndex>,
    ) -> ServeOutcome {
        let n = events.len();
        let committed = recovery.committed();
        let costs: Vec<StageCosts> = events
            .iter()
            .map(|e| cost::estimate(&incidents[e.incident_idx].alert, self.config.cost_seed))
            .collect();
        let inputs: Vec<AdmissionInput> = events
            .iter()
            .zip(&costs)
            .map(|(e, c)| AdmissionInput {
                at: e.at,
                severity: incidents[e.incident_idx].alert.severity,
                full_cost_secs: c.total(),
                degraded_cost_secs: c.degraded_total(),
            })
            .collect();
        let plan = admission::plan(&inputs, &self.config.admission);
        let fault_plan = WorkerFaultPlan::new(self.config.faults);
        // Circuit-breaker pre-pass: replay each admitted event's attempt
        // fate from the deterministic fault plan; after `trip_quarantines`
        // planned quarantines the breaker opens and every event arriving
        // inside the cooldown window is fast-failed without dispatch.
        // Fates depend only on `(seq, attempt)`, so the fast-fail set —
        // like admission — is identical for every worker count.
        let mut fast_fail = vec![false; n];
        if let Some(bk) = self.config.breaker {
            let mut quarantines = 0u32;
            let mut open_until: Option<SimTime> = None;
            for (i, e) in events.iter().enumerate() {
                if plan.dispositions[i] == Disposition::Shed {
                    continue;
                }
                if open_until.is_some_and(|t| e.at < t) {
                    fast_fail[i] = true;
                    continue;
                }
                open_until = None;
                let fate = fault_plan.simulate_fate(
                    e.seq,
                    self.config.quarantine_kills,
                    self.config.max_attempts,
                );
                if matches!(fate, AttemptFate::Quarantined { .. }) {
                    quarantines += 1;
                    if quarantines >= bk.trip_quarantines.max(1) {
                        open_until = Some(e.at + SimDuration::from_secs(bk.cooldown_secs));
                        quarantines = 0;
                    }
                }
            }
        }
        // Infinite-server resolution times: worker-independent, so index
        // visibility never depends on the pool size. Fast-failed events
        // never resolve — they neither enter the online index nor gate
        // later events' dispatch.
        let resolve: Vec<Option<SimTime>> = events
            .iter()
            .zip(&costs)
            .zip(&plan.dispositions)
            .enumerate()
            .map(|(i, ((e, c), d))| match d {
                _ if fast_fail[i] => None,
                Disposition::Shed => None,
                Disposition::Full => Some(e.at + SimDuration::from_secs(c.total())),
                Disposition::Degraded => Some(e.at + SimDuration::from_secs(c.degraded_total())),
            })
            .collect();
        // Dispatch watermark: event i may only run once every event j
        // that resolves at or before i's arrival has committed.
        let need: Vec<usize> = match self.config.index_mode {
            IndexMode::Frozen => vec![0; n],
            IndexMode::Online => (0..n)
                .map(|i| {
                    (0..i)
                        .rev()
                        .find(|&j| resolve[j].is_some_and(|r| r <= events[i].at))
                        .map_or(0, |j| j + 1)
                })
                .collect(),
        };

        let counters = FaultCounters::new();
        let ledger = AttemptLedger::new(n, self.config.quarantine_kills, self.config.max_attempts);
        let retry = RetryQueue::new();
        // The run's single time boundary. Everything *planned* above —
        // admission, costs, fates, resolution times — is already fixed on
        // the virtual timeline, which is exactly why a real clock below
        // cannot perturb the prediction log.
        let clock = self.config.clock.build();
        let wall_latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());

        let shards = self.config.shards.max(1);
        // A shared pool (multi-tenant bulkheading) or a private one; the
        // inference plan's memo policy is namespaced to the tenant either
        // way, so tenants sharing one physical cache occupy disjoint
        // logical key spaces.
        let caches: Arc<PlanCaches> = self
            .config
            .caches
            .clone()
            .unwrap_or_else(|| Arc::new(PlanCaches::new(shards)));
        let inference = InferencePlan {
            spec: self.config.spec,
            retrieval: None,
            policy: self.config.memo.clone(),
        }
        .with_namespace(self.config.tenant.0);
        let ctx = RunCtx {
            incidents,
            events: &events,
            plan: &plan,
            resolve: &resolve,
            online: online.as_ref(),
            inference: &inference,
            caches: &caches,
            counters: &counters,
            clock: clock.as_ref(),
            costs: &costs,
            metrics: self.config.metrics.as_deref(),
            wall_latencies: &wall_latencies,
        };
        let wal = wal.map(Mutex::new);
        let sink = CommitSink {
            online: online.as_ref(),
            wal: wal.as_ref(),
            checkpoint_every: self.config.checkpoint_every,
            counters: &counters,
            tenant: self.config.tenant,
        };

        let state = Mutex::new(CommitState {
            slots: (0..n).map(|_| None).collect(),
            next: 0,
        });
        let watermark = Condvar::new();
        {
            let mut st = lock_recovered(&state, &counters);
            // Recovered commits were journaled by the crashed run: seed
            // them and start the watermark past them, so they are
            // neither re-journaled nor re-inserted into the index.
            for (i, record) in recovery.records.iter().enumerate() {
                st.slots[i] = Some(Slot {
                    record: record.clone(),
                    entry: None,
                });
            }
            st.next = committed;
            // Shed and breaker-fast-failed events never reach a worker:
            // record them up front so the watermark can advance across
            // them.
            for (i, &fast) in fast_fail.iter().enumerate().skip(committed) {
                if plan.dispositions[i] == Disposition::Shed {
                    st.slots[i] = Some(Slot {
                        record: self.shed_record(&ctx, i),
                        entry: None,
                    });
                } else if fast {
                    FaultCounters::bump(&counters.breaker_fast_fails);
                    st.slots[i] = Some(Slot {
                        record: self.dead_letter_record(
                            &ctx,
                            i,
                            "[pipeline failure] circuit open: fast-failed in cooldown".to_string(),
                        ),
                        entry: None,
                    });
                }
            }
            advance(&mut st, &sink);
        }

        let workers = self.config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<usize>(self.config.queue_capacity.max(1));
        let rx = Mutex::new(rx);
        let queue_depth = AtomicUsize::new(0);
        let peak_queue = AtomicUsize::new(0);
        let env = WorkerEnv {
            ctx: &ctx,
            state: &state,
            watermark: &watermark,
            rx: &rx,
            queue_depth: &queue_depth,
            retry: &retry,
            ledger: &ledger,
            plan: &fault_plan,
            sink: &sink,
        };

        let run_start = clock.wall_nanos();
        thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| self.supervise(&env));
            }
            // Dispatcher: feed admitted events in stream order, gated on
            // the commit watermark.
            for (i, &need_i) in need.iter().enumerate().skip(committed) {
                if self.config.crash_at.is_some_and(|t| events[i].at > t) {
                    // Simulated crash: everything from here on is lost;
                    // in-flight work still commits (the journal prefix
                    // stays contiguous).
                    break;
                }
                // Advance the clock to this arrival (and, under a pacing
                // real clock, sleep out the inter-arrival gap) — shed
                // events included: the alert arrived either way.
                stream::pace(clock.as_ref(), events[i].at);
                if plan.dispositions[i] == Disposition::Shed || fast_fail[i] {
                    continue;
                }
                if need_i > 0 {
                    let mut st = lock_recovered(&state, &counters);
                    while st.next < need_i {
                        st = wait_recovered(&watermark, st, &counters);
                    }
                }
                let depth = queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                peak_queue.fetch_max(depth, Ordering::Relaxed);
                if tx.send(i).is_err() {
                    // Every worker is gone — impossible while the channel
                    // is open under normal operation, but a counted stop
                    // beats a dispatcher panic taking the run down.
                    FaultCounters::bump(&counters.dispatch_failures);
                    queue_depth.fetch_sub(1, Ordering::Relaxed);
                    break;
                }
            }
            drop(tx);
        });
        let wall = match clock.mode() {
            ClockMode::Virtual => None,
            ClockMode::Real => Some(WallStats::from_latencies(
                std::mem::take(&mut *lock_recovered(&wall_latencies, &counters)),
                clock.wall_nanos().saturating_sub(run_start),
            )),
        };

        // Surface durable-sink degradation in the run's fault counters
        // (before tearing down the commit state, whose borrow shares the
        // sink's lifetime).
        let mut durability = None;
        if let Some(wal) = wal.as_ref() {
            let journal = lock_recovered(wal, &counters);
            durability = Some(json!({
                "durable": journal.is_durable(),
                "paused": journal.is_paused(),
                "paused_appends": journal.paused_appends(),
                "quarantined": journal.quarantined().len(),
                "dropped_records": journal.dropped_records(),
                "torn_tail": journal.had_torn_tail(),
                "fsync_nanos": journal.fsync_nanos(),
            }));
            if let Some(registry) = self.config.metrics.as_deref() {
                registry.describe(
                    "rca_wal_fsync_nanos_total",
                    "Wall nanoseconds spent in WAL durability barriers (fsync)",
                );
                registry.inc_counter_by(
                    "rca_wal_fsync_nanos_total",
                    &[("tenant", &self.config.tenant.0.to_string())],
                    journal.fsync_nanos(),
                );
            }
            counters
                .sink_failures
                .fetch_add(journal.sink_failures(), Ordering::Relaxed);
            counters
                .fsync_failures
                .fetch_add(journal.fsync_failures(), Ordering::Relaxed);
            counters
                .sink_retries
                .fetch_add(journal.sink_retries(), Ordering::Relaxed);
            counters
                .enospc_events
                .fetch_add(journal.enospc_events(), Ordering::Relaxed);
            counters
                .durability_paused_spans
                .fetch_add(journal.durability_paused_spans(), Ordering::Relaxed);
            counters
                .wal_quarantined
                .fetch_add(journal.quarantined().len() as u64, Ordering::Relaxed);
            counters
                .wal_dropped
                .fetch_add(journal.dropped_records(), Ordering::Relaxed);
        }
        let slots = state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .slots;
        let mut records: Vec<EventRecord> = slots
            .into_iter()
            .map_while(|s| s.map(|slot| slot.record))
            .collect();
        // Collected in place over the larger slots; the outcome keeps the
        // records, not the slack.
        records.shrink_to_fit();
        if self.config.crash_at.is_none() {
            assert_eq!(
                records.len(),
                n,
                "every event must commit when no crash is simulated"
            );
        }
        let mut log = String::new();
        for r in &records {
            log.push_str(&r.log_line());
            log.push('\n');
        }
        self.finish(
            records,
            log,
            n,
            &events,
            &costs,
            &plan,
            &resolve,
            online.as_ref(),
            &caches,
            &counters,
            peak_queue.into_inner(),
            durability,
            wall,
        )
    }

    /// Outer supervision loop of one worker thread: run the worker until
    /// it retires cleanly, catching panics, respawning, and deciding the
    /// fate of the event a dead incarnation was holding.
    fn supervise(&self, env: &WorkerEnv<'_>) {
        let counters = env.ctx.counters;
        let in_flight = InFlight::empty();
        loop {
            match catch_unwind(AssertUnwindSafe(|| self.worker_loop(env, &in_flight))) {
                Ok(()) => break,
                Err(_) => {
                    FaultCounters::bump(&counters.worker_panics);
                    FaultCounters::bump(&counters.worker_respawns);
                    let lost = in_flight.take();
                    #[cfg(feature = "tracing")]
                    tracing::warn!(
                        tenant = self.config.tenant.0,
                        lost_event = lost.map_or(-1i64, |i| i as i64),
                        "worker died; respawning"
                    );
                    if let Some(i) = lost {
                        match env.ledger.record_kill(i) {
                            Verdict::Retry => env.retry.push(i, counters),
                            Verdict::Quarantine { kills, attempts } => {
                                self.quarantine(env, i, kills, attempts);
                            }
                        }
                    }
                    // Loop: respawn the worker (after the clock's backoff
                    // — free in virtual mode, a real pause on a wall
                    // clock). The respawned iteration drains the retry
                    // queue before blocking, so a retry pushed here is
                    // never orphaned.
                    respawn_backoff(env.ctx.clock);
                }
            }
        }
    }

    /// One worker incarnation: drain retries, then the dispatch channel,
    /// rolling each attempt against the fault plan.
    fn worker_loop(&self, env: &WorkerEnv<'_>, in_flight: &InFlight) {
        let counters = env.ctx.counters;
        loop {
            // Re-dispatched events jump ahead of the stream so the
            // commit watermark keeps advancing.
            let i = match env.retry.pop(counters) {
                Some(i) => i,
                None => {
                    let received = lock_recovered(env.rx, counters).recv();
                    match received {
                        Ok(i) => {
                            env.queue_depth.fetch_sub(1, Ordering::Relaxed);
                            i
                        }
                        // Channel closed: one final drain, then retire.
                        Err(_) => match env.retry.pop(counters) {
                            Some(i) => i,
                            None => return,
                        },
                    }
                }
            };
            in_flight.set(i);
            let attempt = env.ledger.begin_attempt(i);
            let seq = env.ctx.events[i].seq;
            match env.plan.decide(seq, attempt) {
                WorkerFault::Panic { stage } => {
                    // Unwinds like `panic!` (same `String` payload, same
                    // lock poisoning) but skips the panic hook, so an
                    // injected fault prints nothing to stderr.
                    std::panic::resume_unwind(Box::new(format!(
                        "injected worker panic in {stage} (seq {seq}, attempt {attempt})"
                    )));
                }
                WorkerFault::Stall { stage } => {
                    FaultCounters::bump(&counters.injected_stalls);
                    // A stall burns the stalled stage's modeled time
                    // before the attempt is declared lost: free on the
                    // virtual clock (stalls are attributed, not
                    // simulated, in DES), an actual sleep holding this
                    // worker on a wall clock.
                    let degraded = env.ctx.plan.dispositions[i] == Disposition::Degraded;
                    env.ctx.clock.sleep(SimDuration::from_secs(
                        env.ctx.costs[i].stage_secs(stage.name(), degraded),
                    ));
                    in_flight.take();
                    self.attempt_lost(env, i);
                }
                WorkerFault::Transient { .. } => {
                    FaultCounters::bump(&counters.injected_errors);
                    in_flight.take();
                    self.attempt_lost(env, i);
                }
                WorkerFault::None => {
                    let t0 = env.ctx.clock.wall_nanos();
                    let slot = self.process_event(env.ctx, i);
                    commit(env, i, slot);
                    if env.ctx.clock.mode() == ClockMode::Real {
                        let latency = env.ctx.clock.wall_nanos().saturating_sub(t0);
                        lock_recovered(env.ctx.wall_latencies, counters).push(latency);
                    }
                    in_flight.take();
                }
            }
        }
    }

    /// A stall or transient error lost the attempt without killing the
    /// worker: retry or quarantine per the ledger.
    fn attempt_lost(&self, env: &WorkerEnv<'_>, i: usize) {
        match env.ledger.record_loss(i) {
            Verdict::Retry => env.retry.push(i, env.ctx.counters),
            Verdict::Quarantine { kills, attempts } => self.quarantine(env, i, kills, attempts),
        }
    }

    /// Routes a poison-pill event to its dead-letter record so the
    /// watermark can advance past it.
    fn quarantine(&self, env: &WorkerEnv<'_>, i: usize, kills: u32, attempts: u32) {
        FaultCounters::bump(&env.ctx.counters.quarantined);
        let record = self.dead_letter_record(
            env.ctx,
            i,
            format!("[pipeline failure] quarantined: kills={kills} attempts={attempts}"),
        );
        commit(
            env,
            i,
            Slot {
                record,
                entry: None,
            },
        );
    }

    /// Builds the degraded record for an event the pipeline gave up on.
    fn dead_letter_record(&self, ctx: &RunCtx<'_>, i: usize, reason: String) -> EventRecord {
        let ev = ctx.events[i];
        let alert = &ctx.incidents[ev.incident_idx].alert;
        EventRecord {
            seq: ev.seq,
            incident_idx: ev.incident_idx,
            at: ev.at,
            severity: alert.severity,
            alert_type: alert.alert_type,
            tenant: self.config.tenant,
            outcome: EventOutcome::Failed { reason },
        }
    }

    /// Builds the record for a shed event.
    fn shed_record(&self, ctx: &RunCtx<'_>, i: usize) -> EventRecord {
        let ev = ctx.events[i];
        let alert = &ctx.incidents[ev.incident_idx].alert;
        EventRecord {
            seq: ev.seq,
            incident_idx: ev.incident_idx,
            at: ev.at,
            severity: alert.severity,
            alert_type: alert.alert_type,
            tenant: self.config.tenant,
            outcome: EventOutcome::Shed {
                backlog_secs: ctx.plan.backlog_at_arrival[i],
            },
        }
    }

    /// Runs the shared inference plan for one admitted event — the thin
    /// serving driver around [`PlanExecutor::run_incident`]: it maps the
    /// admission disposition to the summarize mode, picks the history
    /// view (frozen index or an epoch snapshot of the online one),
    /// attributes a terminal collection failure to a dead-letter record,
    /// and turns the plan outcome into a commit slot. Pure in the event
    /// and the deterministic plan — worker identity and timing never leak
    /// into the result.
    fn process_event(&self, ctx: &RunCtx<'_>, i: usize) -> Slot {
        let ev = ctx.events[i];
        let inc = &ctx.incidents[ev.incident_idx];
        let degraded = ctx.plan.dispositions[i] == Disposition::Degraded;
        #[cfg(feature = "tracing")]
        let _span = tracing::info_span!(
            "serve_event",
            seq = ev.seq,
            tenant = self.config.tenant.0,
            backend = match ctx.clock.mode() {
                ClockMode::Virtual => "virtual",
                ClockMode::Real => "real",
            },
            degraded = degraded
        )
        .entered();
        // Install the stage hook only when someone is listening: a real
        // clock needs the modeled sleeps, a registry wants the wall
        // histograms. The bare DES path takes no clock readings at all.
        let hook;
        let executor = PlanExecutor::new(&self.copilot, &self.stage, ctx.inference, ctx.caches);
        let executor = if ctx.clock.mode() == ClockMode::Real || ctx.metrics.is_some() {
            hook = RealtimeStageHook {
                clock: ctx.clock,
                costs: &ctx.costs[i],
                degraded,
                metrics: ctx.metrics,
                seq: ev.seq,
                tenant: self.config.tenant,
            };
            executor.with_hook(&hook)
        } else {
            executor
        };
        let mode = if degraded {
            SummarizeMode::TruncatedDegraded
        } else {
            SummarizeMode::Full
        };
        let outcome = match ctx.online {
            None => executor.run_incident(inc, ev.at, self.copilot.index(), mode),
            Some(online) => {
                let snapshot = online.snapshot();
                executor.run_incident(inc, ev.at, &snapshot, mode)
            }
        };
        let out = match outcome {
            Ok(out) => out,
            Err(e) => {
                FaultCounters::bump(&ctx.counters.collection_failures);
                return Slot {
                    record: self.dead_letter_record(
                        ctx,
                        i,
                        format!("[pipeline failure] collection: {e}"),
                    ),
                    entry: None,
                };
            }
        };
        let entry = ctx.online.map(|_| {
            (
                HistoricalEntry {
                    id: i,
                    category: inc.category.clone(),
                    summary: out.input_text.clone(),
                    at: ev.at,
                    embedding: out.query.clone(),
                },
                ctx.resolve[i].expect("admitted events have a resolution time"),
            )
        });
        Slot {
            record: EventRecord {
                seq: ev.seq,
                incident_idx: ev.incident_idx,
                at: ev.at,
                severity: inc.alert.severity,
                alert_type: inc.alert.alert_type,
                tenant: self.config.tenant,
                outcome: EventOutcome::Predicted {
                    prediction: out.prediction,
                    degraded,
                },
            },
            entry,
        }
    }

    /// Assembles the virtual-time report and the final outcome.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        records: Vec<EventRecord>,
        log: String,
        planned: usize,
        events: &[StreamEvent],
        costs: &[StageCosts],
        plan: &AdmissionPlan,
        resolve: &[Option<SimTime>],
        online: Option<&ShardedHistoricalIndex>,
        caches: &PlanCaches,
        counters: &FaultCounters,
        peak_queue: usize,
        durability: Option<Value>,
        wall: Option<WallStats>,
    ) -> ServeOutcome {
        let mut stage_hists = [
            VirtualHistogram::new(), // collect
            VirtualHistogram::new(), // summarize
            VirtualHistogram::new(), // embed
            VirtualHistogram::new(), // retrieve
            VirtualHistogram::new(), // predict
        ];
        for (i, c) in costs.iter().enumerate() {
            if resolve[i].is_none() {
                // Shed or breaker-fast-failed: never executed.
                continue;
            }
            match plan.dispositions[i] {
                Disposition::Shed => continue,
                Disposition::Full => stage_hists[1].record(c.summarize_secs),
                Disposition::Degraded => stage_hists[1].record(DEGRADED_SUMMARIZE_SECS),
            }
            stage_hists[0].record(c.collect_secs);
            stage_hists[2].record(c.embed_secs);
            stage_hists[3].record(c.retrieve_secs);
            stage_hists[4].record(c.predict_secs);
        }
        let (sum_hits, sum_misses) = caches.summary.stats();
        let (emb_hits, emb_misses) = caches.embed.stats();
        // Fold the locks recovered inside the index and the memo caches
        // into the run's fault counters before rendering them.
        if let Some(o) = online {
            counters
                .poison_recoveries
                .fetch_add(o.poison_recoveries(), Ordering::Relaxed);
        }
        counters
            .poison_recoveries
            .fetch_add(caches.poison_recoveries(), Ordering::Relaxed);
        // Export into the observability registry, when one is installed:
        // per-stage *virtual* histograms, per-tenant outcome counters,
        // admission dispositions, and the fault counters. (Per-stage
        // *wall* histograms were recorded live by the stage hook.)
        if let Some(registry) = self.config.metrics.as_deref() {
            let tenant = self.config.tenant.0.to_string();
            registry.register_buckets(
                "rca_stage_virtual_seconds",
                crate::metrics::VIRTUAL_SECS_BUCKETS,
            );
            registry.describe(
                "rca_stage_virtual_seconds",
                "Modeled per-stage virtual cost, seconds.",
            );
            for (stage, hist) in ["collect", "summarize", "embed", "retrieve", "predict"]
                .iter()
                .zip(&stage_hists)
            {
                for &sample in hist.samples() {
                    registry.observe(
                        "rca_stage_virtual_seconds",
                        &[("stage", stage), ("tenant", &tenant)],
                        sample as f64,
                    );
                }
            }
            registry.describe("rca_events_total", "Stream events by tenant and outcome.");
            for record in &records {
                let outcome = match &record.outcome {
                    EventOutcome::Shed { .. } => "shed",
                    EventOutcome::Predicted { degraded: true, .. } => "degraded",
                    EventOutcome::Predicted { .. } => "predicted",
                    EventOutcome::Failed { .. } => "failed",
                };
                registry.inc_counter(
                    "rca_events_total",
                    &[("tenant", &tenant), ("outcome", outcome)],
                );
            }
            registry.describe("rca_admission_total", "Admission dispositions by tenant.");
            for (disposition, count) in [
                ("shed", plan.shed as u64),
                ("degraded", plan.degraded as u64),
                ("full", plan.admitted().saturating_sub(plan.degraded) as u64),
            ] {
                registry.inc_counter_by(
                    "rca_admission_total",
                    &[("tenant", &tenant), ("disposition", disposition)],
                    count,
                );
            }
            counters.export_to(registry, &tenant);
        }
        let report = json!({
            "schema_version": REPORT_SCHEMA_VERSION,
            "engine": {
                "workers": self.config.workers,
                "queue_capacity": self.config.queue_capacity,
                "index_mode": match self.config.index_mode {
                    IndexMode::Frozen => "frozen",
                    IndexMode::Online => "online",
                },
                "cost_seed": self.config.cost_seed,
                "shards": self.config.shards.max(1),
                "tenant": self.config.tenant.0,
            },
            "stream": {
                "events": events.len(),
                "committed": records.len(),
                "admitted": plan.admitted(),
                "shed": plan.shed,
                "degraded": plan.degraded,
            },
            "admission": {
                "enabled": self.config.admission.enabled,
                "capacity_secs": self.config.admission.capacity_secs,
                "peak_backlog_secs": plan.peak_backlog_secs,
            },
            "stages": {
                "collect": stage_hists[0].to_json(),
                "summarize": stage_hists[1].to_json(),
                "embed": stage_hists[2].to_json(),
                "retrieve": stage_hists[3].to_json(),
                "predict": stage_hists[4].to_json(),
            },
            "caches": {
                "policy": self.config.memo.name(),
                "summary": { "hits": sum_hits, "misses": sum_misses },
                "embed": { "hits": emb_hits, "misses": emb_misses },
            },
            "faults": counters.to_json(),
            "durability": durability,
            "queue": { "peak_depth": peak_queue },
            "online_index_len": online.map(ShardedHistoricalIndex::len),
            "clock": match self.config.clock.mode() {
                ClockMode::Virtual => "virtual",
                ClockMode::Real => "real",
            },
            "wall": wall.map(|w| w.to_json()),
        });
        ServeOutcome {
            records,
            log,
            planned,
            report,
            wall,
        }
    }
}

/// Commits a processed slot and advances the watermark. Idempotent per
/// slot: a duplicate commit (e.g. after supervisor races) is a no-op, so
/// the journal never double-writes a sequence number.
fn commit(env: &WorkerEnv<'_>, i: usize, slot: Slot) {
    let counters = env.ctx.counters;
    let mut st = lock_recovered(env.state, counters);
    if st.slots[i].is_none() {
        st.slots[i] = Some(slot);
        advance(&mut st, env.sink);
        env.watermark.notify_all();
    }
}

/// Advances the commit watermark over contiguous finished slots —
/// journaling each commit, inserting online entries in commit order
/// (publishing one epoch per *touched shard* per batch, journaled as
/// shard-tagged [`WalRecord::Epoch`]s), and folding the WAL into a
/// checkpoint on the configured cadence.
fn advance(st: &mut CommitState, sink: &CommitSink<'_>) {
    let mut dirty: BTreeSet<usize> = BTreeSet::new();
    while st.next < st.slots.len() {
        let Some(slot) = st.slots[st.next].as_mut() else {
            break;
        };
        let entry = slot.entry.take();
        if let Some(wal) = sink.wal {
            lock_recovered(wal, sink.counters).append(&WalRecord::Commit {
                seq: st.next,
                record: slot.record.clone(),
                entry: entry.as_ref().map(|(e, visible_from)| CheckpointEntry {
                    entry: e.clone(),
                    visible_from: *visible_from,
                }),
            });
        }
        if let Some((entry, visible_from)) = entry {
            if let Some(online) = sink.online {
                dirty.insert(online.insert(entry, visible_from));
            }
        }
        st.next += 1;
    }
    if let Some(online) = sink.online {
        // Publish touched shards in index order; untouched shards keep
        // their epoch (no epoch churn from unrelated commits).
        for shard in dirty {
            let epoch = online.publish(shard);
            if let Some(wal) = sink.wal {
                lock_recovered(wal, sink.counters).append(&WalRecord::Epoch {
                    shard,
                    epoch,
                    committed: st.next,
                    tenant: sink.tenant,
                });
            }
        }
    }
    if let Some(wal) = sink.wal {
        let mut wal = lock_recovered(wal, sink.counters);
        // Fold on the configured cadence — or immediately when `ENOSPC`
        // paused durability, since the fold's rewrite is the only way to
        // free sink space and resume (checkpoint-fold-and-retry).
        let cadence_due = sink.checkpoint_every > 0
            && st.next.saturating_sub(wal.checkpointed()) >= sink.checkpoint_every;
        let space_due = wal.needs_space_fold() && st.next > 0;
        if cadence_due || space_due {
            let records: Vec<EventRecord> = st.slots[..st.next]
                .iter()
                .map(|s| {
                    s.as_ref()
                        .expect("slots below the watermark are committed")
                        .record
                        .clone()
                })
                .collect();
            let index = sink.online.map(ShardedHistoricalIndex::checkpoint);
            wal.install_checkpoint(records, index, sink.tenant);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RealClockConfig;
    use crate::stream::ArrivalModel;
    use rcacopilot_core::eval::PreparedDataset;
    use rcacopilot_core::pipeline::{Embedder, RcaCopilotConfig};
    use rcacopilot_core::retrieval::WarmBase;
    use rcacopilot_embed::{FastTextConfig, FeatureExtractor};
    use rcacopilot_simcloud::noise::NoiseProfile;
    use rcacopilot_simcloud::{generate_dataset, CampaignConfig, IncidentDataset, Topology};

    /// Looks up a (possibly nested) field of a JSON report map.
    fn field<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
        let mut cur = v;
        for key in path {
            cur = cur
                .as_map()
                .expect("report node is a map")
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("report field {key} missing"));
        }
        cur
    }

    /// Unwraps an unsigned JSON number.
    fn as_u64(v: &Value) -> u64 {
        match v {
            Value::U64(n) => *n,
            Value::I64(n) => *n as u64,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn dataset() -> IncidentDataset {
        generate_dataset(&CampaignConfig {
            seed: 5,
            topology: Topology::new(2, 4, 2, 2),
            noise: NoiseProfile {
                routine_logs: 2,
                herring_logs: 1,
                healthy_traces: 1,
                unrelated_failure: false,
                bystander_anomalies: 1,
            },
        })
    }

    fn quick_config() -> RcaCopilotConfig {
        RcaCopilotConfig {
            embedding: FastTextConfig {
                dim: 24,
                epochs: 8,
                lr: 0.4,
                features: FeatureExtractor {
                    buckets: 1 << 12,
                    ..FeatureExtractor::default()
                },
                ..FastTextConfig::default()
            },
            ..RcaCopilotConfig::default()
        }
    }

    fn trained_engine(config: EngineConfig) -> (ServeEngine, Vec<Incident>) {
        let dataset = dataset();
        let split = dataset.split(7, 0.6);
        let prepared = PreparedDataset::prepare(&dataset, &split);
        let spec = config.spec;
        let copilot = RcaCopilot::train(&prepared.train_examples(&spec), quick_config());
        let test: Vec<Incident> = split
            .test
            .iter()
            .take(24)
            .map(|&i| dataset.incidents()[i].clone())
            .collect();
        (ServeEngine::new(copilot, config), test)
    }

    #[test]
    fn frozen_replay_log_is_identical_across_worker_counts() {
        let stream = StreamConfig::replay();
        let (engine1, test) = trained_engine(EngineConfig {
            workers: 1,
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        });
        let out1 = engine1.run(&test, &stream);
        let (engine4, test4) = trained_engine(EngineConfig {
            workers: 4,
            queue_capacity: 2,
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        });
        assert_eq!(test.len(), test4.len());
        let out4 = engine4.run(&test4, &stream);
        assert_eq!(out1.log, out4.log);
        assert_eq!(out1.records.len(), test.len());
        assert!(!out1.crashed());
        // What a run keeps holds no spare capacity.
        assert_eq!(out1.records.capacity(), out1.records.len());
        for record in &out1.records {
            let EventOutcome::Predicted { prediction, .. } = &record.outcome else {
                panic!("every replayed event is predicted");
            };
            let demos = &prediction.demo_categories;
            assert_eq!(demos.capacity(), demos.len());
        }
    }

    #[test]
    fn online_mode_inserts_resolved_incidents_and_stays_deterministic() {
        let stream = StreamConfig {
            seed: 2,
            arrivals: ArrivalModel::Poisson { mean_gap_secs: 900 },
            reraise_prob: 0.25,
        };
        let make = |workers| {
            let (engine, test) = trained_engine(EngineConfig {
                workers,
                index_mode: IndexMode::Online,
                admission: AdmissionConfig::unbounded(),
                ..EngineConfig::default()
            });
            (engine.run(&test, &stream), engine)
        };
        let (out1, engine1) = make(1);
        let (out3, _) = make(3);
        assert_eq!(out1.log, out3.log, "online log must not depend on workers");
        let train_len = engine1.copilot().history_len();
        let index_len = as_u64(field(&out1.report, &["online_index_len"])) as usize;
        assert_eq!(index_len, train_len + out1.records.len());
        // Flapping re-raises hit the memo caches.
        let hits = as_u64(field(&out1.report, &["caches", "embed", "hits"]));
        assert!(hits > 0, "duplicate alerts should hit the embed cache");
    }

    /// A journaled online run cut at half its stream: the uninterrupted
    /// log, and the crashed run's journal holding a checkpoint fold.
    fn crashed_journal(engine: &ServeEngine, test: &[Incident]) -> (String, WriteAheadLog) {
        let stream = StreamConfig::replay();
        let reference = engine.run(test, &stream);
        let crashed = ServeEngine::new(
            engine.copilot().clone(),
            EngineConfig {
                crash_at: Some(reference.records[reference.records.len() / 2].at),
                ..engine.config().clone()
            },
        );
        let mut wal = WriteAheadLog::new();
        let partial = crashed.run_with_wal(test, &stream, &mut wal).unwrap();
        assert!(partial.crashed());
        assert!(wal.checkpointed() > 0, "the journal holds a fold");
        (reference.log, wal)
    }

    fn online_folding_engine() -> (ServeEngine, Vec<Incident>) {
        trained_engine(EngineConfig {
            workers: 2,
            index_mode: IndexMode::Online,
            admission: AdmissionConfig::unbounded(),
            checkpoint_every: 3,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn resume_restores_a_checkpoint_over_its_warm_base() {
        let (engine, test) = online_folding_engine();
        let (reference, wal) = crashed_journal(&engine, &test);
        let recovery = wal.recover().unwrap();
        let ckpt = recovery.checkpoint.clone().expect("online fold");
        assert_eq!(ckpt.base, WarmBase::of(engine.copilot().index().entries()));
        assert!(ckpt.entries.len() < recovery.committed(), "no warm entries");
        let mut resumed = WriteAheadLog::load(&wal.serialized());
        assert!(resumed.quarantined().is_empty());
        let out = engine.run_with_wal(&test, &StreamConfig::replay(), &mut resumed);
        assert_eq!(out.unwrap().log, reference);
    }

    #[test]
    fn a_fold_without_a_base_is_a_dead_letter_and_resume_recomputes() {
        let (engine, test) = online_folding_engine();
        let (reference, wal) = crashed_journal(&engine, &test);
        // The journal as written before warm bases: the fold has no
        // `base` key, under a valid checksum.
        let base = WarmBase::of(engine.copilot().index().entries());
        let base = format!(r#","base":{}"#, serde_json::to_string(&base).unwrap());
        let lines: Vec<String> = wal
            .records()
            .unwrap()
            .iter()
            .map(|record| {
                let payload = serde_json::to_string(record).unwrap().replace(&base, "");
                let crc = crate::storage::crc32c(payload.as_bytes());
                format!("crc32c:{crc:08x}:{payload}\n")
            })
            .collect();
        let fold = lines
            .iter()
            .position(|line| line.contains(r#"{"Checkpoint":"#))
            .expect("the journal holds a fold");
        assert!(!lines[fold].contains(r#""base""#));
        let mut loaded = WriteAheadLog::load(&lines.concat());
        assert_eq!(loaded.quarantined().len(), 1);
        assert_eq!(loaded.quarantined()[0].line, fold);
        let reason = &loaded.quarantined()[0].reason;
        assert!(reason.contains("WarmBase"), "{reason}");
        assert_eq!(
            loaded.dropped_records() as usize,
            lines.len() - fold - 1,
            "the commits after the fold are stranded"
        );
        assert!(loaded.recover().unwrap().is_empty());
        let out = engine.run_with_wal(&test, &StreamConfig::replay(), &mut loaded);
        assert_eq!(out.unwrap().log, reference, "recomputed from the start");
    }

    #[test]
    fn a_journal_longer_than_its_stream_is_refused() {
        let (engine, test) = trained_engine(EngineConfig {
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        });
        let mut wal = WriteAheadLog::new();
        let full = engine.run_with_wal(&test, &StreamConfig::replay(), &mut wal);
        assert_eq!(full.unwrap().records.len(), 24);
        let written = wal.serialized();
        let err = engine
            .run_with_wal(&test[..12], &StreamConfig::replay(), &mut wal)
            .expect_err("24 commits cannot resume a 12-event stream");
        assert_eq!(
            err,
            WalError::LongerThanStream {
                committed: 24,
                events: 12
            }
        );
        assert!(err.to_string().contains("24 commits"), "{err}");
        assert_eq!(wal.serialized(), written, "nothing ran");
    }

    #[test]
    fn resume_refuses_a_checkpoint_of_another_warm_base() {
        let config = EngineConfig {
            index_mode: IndexMode::Online,
            admission: AdmissionConfig::unbounded(),
            checkpoint_every: 3,
            ..EngineConfig::default()
        };
        let (engine, test) = trained_engine(config.clone());
        let (_, wal) = crashed_journal(&engine, &test);
        // The same incidents embedded another way: another warm base.
        let dataset = dataset();
        let split = dataset.split(7, 0.6);
        let prepared = PreparedDataset::prepare(&dataset, &split);
        let other = RcaCopilot::train_with_embedder(
            &prepared.train_examples(&config.spec),
            Embedder::GenericLm { dim: 24 },
            quick_config(),
        );
        let other = ServeEngine::new(other, config);
        let mut journal = wal.clone();
        let err = other
            .run_with_wal(&test, &StreamConfig::replay(), &mut journal)
            .expect_err("another warm base");
        let WalError::WarmBase(mismatch) = &err else {
            panic!("expected a warm-base mismatch, got {err:?}");
        };
        assert_eq!(
            mismatch.named,
            WarmBase::of(engine.copilot().index().entries())
        );
        assert_eq!(
            mismatch.found,
            WarmBase::of(other.copilot().index().entries())
        );
        assert!(err.to_string().contains("warm base"), "{err}");
        assert_eq!(journal.serialized(), wal.serialized(), "nothing ran");
    }

    #[test]
    fn storm_with_admission_sheds_and_reports() {
        let stream = StreamConfig {
            seed: 8,
            arrivals: ArrivalModel::Bursty {
                mean_gap_secs: 240,
                burst_prob: 0.6,
                burst_len: 8,
                burst_gap_secs: 5,
            },
            reraise_prob: 0.1,
        };
        let (engine, test) = trained_engine(EngineConfig {
            workers: 2,
            admission: AdmissionConfig {
                capacity_secs: 900,
                ..AdmissionConfig::default()
            },
            ..EngineConfig::default()
        });
        let out = engine.run(&test, &stream);
        let shed = out
            .records
            .iter()
            .filter(|r| matches!(r.outcome, EventOutcome::Shed { .. }))
            .count();
        assert!(shed > 0, "a storm against a small capacity must shed");
        assert_eq!(
            as_u64(field(&out.report, &["stream", "shed"])) as usize,
            shed
        );
        assert!(out.log.contains("verdict=shed"));
    }

    #[test]
    fn injected_faults_never_lose_an_event_and_stay_deterministic() {
        let stream = StreamConfig::replay();
        let faults = WorkerFaultConfig {
            panic_per_mille: 120,
            stall_per_mille: 50,
            error_per_mille: 30,
            ..WorkerFaultConfig::default()
        };
        let make = |workers| {
            let (engine, test) = trained_engine(EngineConfig {
                workers,
                faults,
                admission: AdmissionConfig::unbounded(),
                ..EngineConfig::default()
            });
            let n = test.len();
            (engine.run(&test, &stream), n)
        };
        let (out1, n1) = make(1);
        let (out4, n4) = make(4);
        assert_eq!(n1, n4);
        assert_eq!(out1.records.len(), n1, "every event must complete");
        assert_eq!(
            out1.log, out4.log,
            "fault outcomes must not depend on the worker count"
        );
        let panics = as_u64(field(&out1.report, &["faults", "worker_panics"]));
        assert!(panics > 0, "a 12% panic rate over {n1} events must fire");
        let respawns = as_u64(field(&out1.report, &["faults", "worker_respawns"]));
        assert_eq!(panics, respawns, "every killed worker must respawn");
    }

    #[test]
    fn breaker_fast_fails_a_fault_storm_and_stays_deterministic() {
        let stream = StreamConfig::replay();
        let faults = WorkerFaultConfig {
            panic_per_mille: 400,
            stall_per_mille: 150,
            error_per_mille: 100,
            ..WorkerFaultConfig::default()
        };
        let make = |workers| {
            let (engine, test) = trained_engine(EngineConfig {
                workers,
                faults,
                breaker: Some(BreakerConfig {
                    trip_quarantines: 1,
                    cooldown_secs: 1 << 40,
                }),
                admission: AdmissionConfig::unbounded(),
                ..EngineConfig::default()
            });
            let n = test.len();
            (engine.run(&test, &stream), n)
        };
        let (out1, n1) = make(1);
        let (out4, _) = make(4);
        assert_eq!(out1.records.len(), n1, "fast-fails still commit");
        assert_eq!(out1.log, out4.log, "the fast-fail set is planned");
        assert!(out1.log.contains("circuit open"), "the breaker must trip");
        let fast = as_u64(field(&out1.report, &["faults", "breaker_fast_fails"]));
        assert!(fast > 0);
        // Fast-failed events are never executed: fewer collect samples
        // than events.
        assert!(as_u64(field(&out1.report, &["stages", "collect", "count"])) < n1 as u64);
    }

    #[test]
    fn real_clock_smoke_reproduces_the_virtual_log_and_measures_wall() {
        let stream = StreamConfig::replay();
        let (virtual_engine, test_v) = trained_engine(EngineConfig {
            workers: 2,
            admission: AdmissionConfig::unbounded(),
            ..EngineConfig::default()
        });
        let out_v = virtual_engine.run(&test_v, &stream);
        assert!(out_v.wall.is_none(), "DES runs report no wall stats");
        let (real_engine, test_r) = trained_engine(EngineConfig {
            workers: 2,
            admission: AdmissionConfig::unbounded(),
            clock: ClockConfig::Real(RealClockConfig {
                nanos_per_virtual_sec: 1_000,
                pace_arrivals: false,
            }),
            ..EngineConfig::default()
        });
        let out_r = real_engine.run(&test_r, &stream);
        assert_eq!(
            out_v.log, out_r.log,
            "the prediction log is byte-identical across clock backends"
        );
        let wall = out_r.wall.expect("real runs measure wall time");
        assert_eq!(wall.completed, test_r.len());
        assert!(wall.wall_nanos > 0);
        assert!(wall.throughput_per_sec > 0.0);
        assert!(wall.p99_ms >= wall.p50_ms);
        assert_eq!(
            field(&out_r.report, &["clock"]),
            &Value::Str("real".to_string()),
            "the report names its clock backend"
        );
        assert!(as_u64(field(&out_r.report, &["wall", "wall_nanos"])) > 0);
    }

    #[test]
    fn report_carries_schema_version_and_round_trips() {
        let stream = StreamConfig::replay();
        let registry = crate::metrics::MetricsRegistry::shared();
        let (engine, test) = trained_engine(EngineConfig {
            workers: 1,
            admission: AdmissionConfig::unbounded(),
            metrics: Some(Arc::clone(&registry)),
            ..EngineConfig::default()
        });
        let out = engine.run(&test, &stream);
        assert_eq!(
            as_u64(field(&out.report, &["schema_version"])),
            u64::from(crate::vmetrics::REPORT_SCHEMA_VERSION)
        );
        assert_eq!(
            field(&out.report, &["clock"]),
            &Value::Str("virtual".to_string())
        );
        // The report must survive a serialize/parse round trip with its
        // version intact — the drift guard for downstream consumers.
        let text = serde_json::to_string(&out.report).expect("serializable");
        let back: Value = serde_json::from_str(&text).expect("parseable");
        assert_eq!(
            as_u64(field(&back, &["schema_version"])),
            u64::from(crate::vmetrics::REPORT_SCHEMA_VERSION)
        );
        // A metrics registry on a virtual run absorbs the run's
        // counters; the tenant label rides on every series.
        let predicted = registry.counter(
            "rca_events_total",
            &[("outcome", "predicted"), ("tenant", "0")],
        );
        assert_eq!(predicted, test.len() as u64);
        crate::metrics::validate_prometheus(&registry.render_prometheus())
            .expect("well-formed Prometheus text");
    }

    #[test]
    fn failed_records_render_single_line_and_round_trip() {
        let record = EventRecord {
            seq: 3,
            incident_idx: 1,
            at: SimTime::from_secs(120),
            severity: Severity::Sev2,
            alert_type: AlertType::default(),
            tenant: TenantId(7),
            outcome: EventOutcome::Failed {
                reason: "[pipeline failure] quarantined: kills=2 attempts=2".to_string(),
            },
        };
        let line = record.log_line();
        assert_eq!(line.lines().count(), 1);
        assert!(line.contains("verdict=failed"));
        assert!(line.contains("[pipeline failure]"));
        let json = serde_json::to_string(&record).expect("serializable");
        let back: EventRecord = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, record);
        assert_eq!(back.log_line(), line);
    }
}
