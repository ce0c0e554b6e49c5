//! Virtual-time report metrics.
//!
//! The engine report's deterministic parts live here: the report schema
//! version, the fault counters, and histograms of the ex-ante modeled
//! stage costs (virtual seconds on the alert stream's clock). None of
//! these is a performance measurement; wall-clock throughput and latency
//! come from real runs ([`crate::engine::WallStats`]).

use crate::metrics::MetricsRegistry;
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema version of the engine's JSON report ([`ServeOutcome::report`]).
///
/// The report predates the structured [`crate::metrics`] exporter and
/// keeps evolving with the engine; this explicit version lets the two
/// formats drift independently without silently breaking consumers.
/// History: 1 = the implicit shape before versioning; 2 = adds
/// `schema_version`, `clock`, and the real-mode `wall` section; 3 = drops
/// `online_index_stats` (the index has no candidate structure left to
/// report; `online_index_len` stays); 4 = drops `exec`, the modeled
/// worker-pool schedule (wall-clock numbers are in `wall`).
///
/// [`ServeOutcome::report`]: crate::engine::ServeOutcome::report
pub const REPORT_SCHEMA_VERSION: u32 = 4;

/// Robustness counters for one engine run.
///
/// Workers are real OS threads, so these are atomics bumped as the
/// supervision machinery acts: injected faults, panics caught and
/// workers respawned, events re-dispatched or quarantined, and poisoned
/// locks recovered instead of aborted. The *counts* are deterministic
/// for a fixed fault plan (decisions depend only on `(seq, attempt)`),
/// even though the thread that bumps each counter is not.
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Worker panics caught by the supervisor (injected or organic).
    pub worker_panics: AtomicU64,
    /// Worker incarnations respawned after a caught panic.
    pub worker_respawns: AtomicU64,
    /// Attempts abandoned past their virtual stage deadline.
    pub injected_stalls: AtomicU64,
    /// Attempts failed by an injected transient stage error.
    pub injected_errors: AtomicU64,
    /// Events put back on the retry queue after a lost attempt.
    pub redispatches: AtomicU64,
    /// Events quarantined as poison pills (dead-letter records).
    pub quarantined: AtomicU64,
    /// Events whose collection stage failed (degraded `Failed` outcome).
    pub collection_failures: AtomicU64,
    /// Poisoned locks recovered via `PoisonError::into_inner` instead of
    /// aborting the engine.
    pub poison_recoveries: AtomicU64,
    /// Dispatch-channel sends that found every worker gone; the
    /// dispatcher stops feeding instead of panicking.
    pub dispatch_failures: AtomicU64,
    /// Durable-sink write/fsync failures absorbed by detaching the sink
    /// (the in-memory journal stays consistent).
    pub sink_failures: AtomicU64,
    /// Events fast-failed by an open per-tenant circuit breaker instead
    /// of being dispatched into a known-faulting pipeline.
    pub breaker_fast_fails: AtomicU64,
    /// Durable-sink fsync attempts that returned an error (each is
    /// retried once before the sink degrades).
    pub fsync_failures: AtomicU64,
    /// Transient sink write/fsync/rewrite errors retried in place.
    pub sink_retries: AtomicU64,
    /// Sink operations refused with `ENOSPC` (answered by
    /// checkpoint-fold-and-retry, then durability pause).
    pub enospc_events: AtomicU64,
    /// Spans in which the journal ran with durability paused — sink
    /// attached but appends withheld until a fold freed space.
    pub durability_paused_spans: AtomicU64,
    /// Corrupt WAL records quarantined as dead letters at recovery
    /// (CRC mismatch or unparseable frame, resynced past, never fatal).
    pub wal_quarantined: AtomicU64,
    /// Valid-but-unreachable WAL records dropped at recovery because a
    /// quarantined record broke their tenant's commit chain.
    pub wal_dropped: AtomicU64,
}

impl FaultCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        FaultCounters::default()
    }

    /// Relaxed increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed read helper.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// JSON summary for the engine report: [`FaultCounters::rows`] as
    /// one map, in row order.
    pub fn to_json(&self) -> Value {
        Value::Map(
            self.rows()
                .into_iter()
                .map(|(kind, value)| (kind.to_string(), Value::U64(value)))
                .collect(),
        )
    }

    /// Every counter as a `(kind, value)` row, in report order.
    pub fn rows(&self) -> [(&'static str, u64); 17] {
        [
            ("worker_panics", Self::get(&self.worker_panics)),
            ("worker_respawns", Self::get(&self.worker_respawns)),
            ("injected_stalls", Self::get(&self.injected_stalls)),
            ("injected_errors", Self::get(&self.injected_errors)),
            ("redispatches", Self::get(&self.redispatches)),
            ("quarantined", Self::get(&self.quarantined)),
            ("collection_failures", Self::get(&self.collection_failures)),
            ("poison_recoveries", Self::get(&self.poison_recoveries)),
            ("dispatch_failures", Self::get(&self.dispatch_failures)),
            ("sink_failures", Self::get(&self.sink_failures)),
            ("breaker_fast_fails", Self::get(&self.breaker_fast_fails)),
            ("fsync_failures", Self::get(&self.fsync_failures)),
            ("sink_retries", Self::get(&self.sink_retries)),
            ("enospc_events", Self::get(&self.enospc_events)),
            (
                "durability_paused_spans",
                Self::get(&self.durability_paused_spans),
            ),
            ("wal_quarantined", Self::get(&self.wal_quarantined)),
            ("wal_dropped", Self::get(&self.wal_dropped)),
        ]
    }

    /// Bridges these ad-hoc counters into the structured metrics
    /// registry as `rca_faults_total{tenant, kind}` — the absorption
    /// seam between the legacy report and the Prometheus/JSON exporters.
    /// Zero-valued counters are skipped (idiomatic for counters: absent
    /// means zero).
    pub fn export_to(&self, registry: &MetricsRegistry, tenant: &str) {
        registry.describe("rca_faults_total", "Fault-plane counters by kind.");
        for (kind, value) in self.rows() {
            if value > 0 {
                registry.inc_counter_by(
                    "rca_faults_total",
                    &[("tenant", tenant), ("kind", kind)],
                    value,
                );
            }
        }
    }
}

/// A histogram of virtual durations in seconds.
#[derive(Debug, Clone, Default)]
pub struct VirtualHistogram {
    samples: Vec<u64>,
}

impl VirtualHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        VirtualHistogram::default()
    }

    /// Records one duration sample (virtual seconds).
    pub fn record(&mut self, secs: u64) {
        self.samples.push(secs);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The raw samples, in record order — for re-binning into the
    /// fixed-bucket registry histograms.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank percentile (`q` in `0.0..=1.0`); 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank =
            ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// JSON summary: count, mean, p50, p99, max.
    pub fn to_json(&self) -> Value {
        json!({
            "count": self.len(),
            "mean_secs": self.mean(),
            "p50_secs": self.percentile(0.50),
            "p99_secs": self.percentile(0.99),
            "max_secs": self.max(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let mut h = VirtualHistogram::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.50), 50);
        assert_eq!(h.percentile(0.99), 100);
        assert_eq!(h.percentile(0.0), 10);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 55.0).abs() < 1e-9);
        assert_eq!(VirtualHistogram::new().percentile(0.5), 0);
    }

    /// The report's `faults` bytes, pinned to what the counters wrote
    /// when the JSON map was spelled out beside the rows.
    #[test]
    fn fault_report_lists_every_row_in_order() {
        let counters = FaultCounters::new();
        FaultCounters::bump(&counters.redispatches);
        FaultCounters::bump(&counters.wal_dropped);
        FaultCounters::bump(&counters.wal_dropped);
        assert_eq!(
            serde_json::to_string(&counters.to_json()).unwrap(),
            concat!(
                r#"{"worker_panics":0,"worker_respawns":0,"injected_stalls":0,"#,
                r#""injected_errors":0,"redispatches":1,"quarantined":0,"#,
                r#""collection_failures":0,"poison_recoveries":0,"dispatch_failures":0,"#,
                r#""sink_failures":0,"breaker_fast_fails":0,"fsync_failures":0,"#,
                r#""sink_retries":0,"enospc_events":0,"durability_paused_spans":0,"#,
                r#""wal_quarantined":0,"wal_dropped":2}"#,
            )
        );
    }
}
