//! RCACopilot serving plane: an online incident-serving engine.
//!
//! The batch harness in `rcacopilot-core` evaluates the pipeline over a
//! frozen dataset; this crate runs the same pipeline as a *service*. A
//! seeded alert stream ([`stream`]) delivers incidents on virtual time —
//! Poisson background traffic, alert storms, flapping monitors — and the
//! multi-worker engine ([`engine`]) pushes each admitted alert through
//! collection → summarization → embedding → retrieval → prediction on a
//! pool of OS threads behind a bounded queue.
//!
//! Three subsystems make the engine behave like a production triage
//! plane while staying fully deterministic:
//!
//! - **Admission control** ([`admission`]): a severity-aware virtual
//!   token bucket sheds low-severity alerts first during storms and
//!   degrades summarization under pressure, priced by an ex-ante cost
//!   model ([`cost`]) that reads only alert metadata.
//! - **Sharded incremental history**: in [`engine::IndexMode::Online`]
//!   each incident joins the retrieval index when it *resolves*, through
//!   epoch-snapshotted read views, so the stream learns from itself
//!   without ever letting an unresolved (or future) incident leak into a
//!   prompt. The index is split into per-category shards
//!   (`EngineConfig::shards`), each with its own lock and epoch state;
//!   a bound-ordered cross-shard merge keeps the prediction log
//!   byte-identical to the single-lock plane for any shard count, and
//!   the memo caches (`rcacopilot_core::memo`, keyed by the engine's
//!   pluggable [`engine::EngineConfig::memo`] policy) shard to the same
//!   width. OCE corrections re-enter the index via
//!   [`engine::ServeEngine::ingest_feedback`], journaled and replayed
//!   with a visibility watermark.
//! - **Virtual-time report metrics** ([`vmetrics`]): histograms of each
//!   executed event's ex-ante modeled stage costs, fault counters, and
//!   the report's schema version. They are deterministic, and they are
//!   not performance numbers: wall-clock throughput and latency come
//!   from real-clock runs ([`engine::WallStats`]), measured by the
//!   repository's `rcabench` benchmark.
//!
//! The engine's prediction log is byte-identical for every worker count:
//! planning (admission, visibility) happens on the virtual clock before
//! execution, workers compute pure functions, and results commit in
//! stream order.
//!
//! On top of that determinism sits a **crash-tolerance layer**:
//!
//! - **Worker-fault injection** ([`fault`]): seeded, per-attempt worker
//!   panics, stage stalls and transient errors, pure in
//!   `(seed, event seq, attempt)` so faulty runs stay byte-reproducible.
//! - **Supervision** ([`supervisor`]): panics are caught and the worker
//!   respawned; lost in-flight events are re-dispatched; poisoned locks
//!   are recovered, not fatal. An event that keeps killing workers is
//!   quarantined as a poison pill with a dead-letter
//!   [`engine::EventOutcome::Failed`] record.
//! - **Write-ahead log** ([`wal`]): commits, shard-tagged index epochs
//!   and feedback corrections are journaled (with periodic checkpoint
//!   folding) so an engine killed mid-stream resumes — via
//!   [`engine::ServeEngine::run_with_wal`] — with a prediction log
//!   byte-identical to an uninterrupted run, even when the resumed run
//!   uses a different shard count. Every record is CRC32C-framed;
//!   corruption is quarantined as a counted dead letter (with
//!   scan-forward resync), never fatal.
//! - **Storage fault plane** ([`storage`]): the WAL writes through a
//!   [`storage::WalSink`] byte-sink abstraction — a real fsync'd file
//!   ([`storage::DurableFile`]) or a seeded simulated disk
//!   ([`storage::SimDisk`]) with page-granular crash images, torn/dropped
//!   pages, bit rot, injected write/fsync errors and `ENOSPC` budgets,
//!   all pure functions of `(seed, offset)`. Transient sink errors are
//!   retried once, `ENOSPC` enters a counted durability-paused span
//!   answered by checkpoint-fold-and-retry, and persistent failures
//!   detach the sink — degraded, never fatal. A crash-point torture
//!   fuzzer (`tests/wal_torture.rs`, `wal_torture` bench) sweeps crash
//!   points and fault mixes asserting no fsync-acknowledged commit is
//!   ever lost.
//!
//! The topmost layer is **multi-tenancy as a robustness boundary**
//! ([`tenant`]): each tenant (OCE team) gets a weighted fair share of
//! admission capacity ([`admission::AdmissionConfig::share`]), its own
//! engine run, attempt ledger and optional planned circuit breaker
//! ([`engine::BreakerConfig`]), namespaced memo caches
//! (`rcacopilot_core::memo::NamespacedMemo`), and a tenant-tagged WAL
//! stream with independent per-tenant recovery
//! ([`wal::WriteAheadLog::recover_tenants`]). A merged
//! [`tenant::MultiTenantEngine`] run composes per-tenant engine runs
//! whose logs are byte-identical to solo baselines — one tenant's
//! flapping-monitor fault storm cannot perturb another tenant's
//! predictions, watermarks, or cache keys. The composition itself is a
//! **tenant-sharded parallel runtime**: tenants deal round-robin over
//! [`tenant::MultiTenantConfig::shards`] shard workers sharing one
//! `Arc`'d pipeline ([`engine::ServeEngine::shared`]), one plane-wide
//! virtual clock ([`clock::ClockConfig::SharedVirtual`]), the namespaced
//! memo pool, and pre-split per-tenant WAL streams
//! ([`wal::WriteAheadLog::adopt_tenants`]) — scaling to thousands of
//! streams with every output byte-identical at any shard count.
//!
//! Finally, the engine is a **dual-mode runtime** ([`clock`]): every
//! time read, sleep and deadline decision goes through one [`Clock`]
//! trait with two backends. The default [`clock::VirtualClock`] is the
//! deterministic engine above — byte-identical outputs, no real waits.
//! [`clock::RealClock`] runs the same workers as real blocking threads:
//! stage costs (which model remote LLM/service latency) become actual
//! scaled sleeps, injected stalls burn wall time, and respawn backoff
//! pauses the thread. With the sleep scale set to zero, real mode runs
//! at the speed of the engine's own code, which is how the `rcabench`
//! benchmark measures it. An observability plane rides on
//! the same boundary: structured `tracing` spans per event/stage/tenant
//! (behind the off-by-default `tracing` feature) and a [`metrics`]
//! registry of labeled counters and fixed-bucket histograms, rendered
//! as Prometheus text or versioned JSON and served from a tiny blocking
//! HTTP endpoint ([`metrics::MetricsServer`]) in real mode or dumped to
//! a file in DES mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod clock;
pub mod cost;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod storage;
pub mod stream;
pub mod supervisor;
pub mod tenant;
pub mod vmetrics;
pub mod wal;

pub use admission::{AdmissionConfig, AdmissionPlan, Disposition};
pub use clock::{Clock, ClockConfig, ClockMode, RealClock, RealClockConfig, VirtualClock};
pub use cost::StageCosts;
pub use engine::{
    BreakerConfig, EngineConfig, EventOutcome, EventRecord, IndexMode, OceFeedback, ServeEngine,
    ServeOutcome,
};
pub use fault::{AttemptFate, PipelineStage, WorkerFault, WorkerFaultConfig, WorkerFaultPlan};
pub use metrics::{MetricsRegistry, MetricsServer, OVERFLOW_LABEL_VALUE};
pub use rcacopilot_core::memo::MemoCache;
pub use storage::{crc32c, CrashImage, CrashPoint, DurableFile, SimDisk, SimDiskConfig, WalSink};
pub use stream::{ArrivalModel, StreamConfig, StreamEvent};
pub use supervisor::{AttemptLedger, RetryQueue, Verdict};
pub use tenant::{
    MultiTenantConfig, MultiTenantEngine, MultiTenantOutcome, TenantError, TenantRun, TenantSpec,
};
pub use vmetrics::{FaultCounters, VirtualHistogram};
pub use wal::{QuarantinedRecord, Recovery, WalError, WalRecord, WriteAheadLog};
