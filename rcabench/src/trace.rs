//! The traced pass: the same events as the engine run, one at a time on
//! one thread, each layer timed from outside through its public calls.
//!
//! The engine fuses retrieve → prompt budget → reasoning into one
//! `predict` stage; here they run in turn —
//! `HistoryView::top_k_diverse`, `PredictionPrompt::truncate_to_budget`,
//! `CotEngine::predict` — and the assembled prediction must equal the
//! engine's, record for record. Commits replay the engine's commit step:
//! `ShardedHistoricalIndex::insert`/`publish` for the online index and
//! `WriteAheadLog::append` (with its fsync) plus checkpoint folds for the
//! journal.

use crate::workload::{journal_path, RunOutput, Workload, CHECKPOINT_EVERY};
use rcacopilot::core::plan::{StageHook, SummarizeMode};
use rcacopilot::core::retrieval::{
    fnv1a, CheckpointEntry, RetrievalBackend, ShardedHistoricalIndex,
};
use rcacopilot::core::{
    CollectionStage, ContextSpec, HistoricalEntry, HistoryView, InferencePlan, PlanCaches,
    PlanExecutor, RcaCopilot, RcaPrediction,
};
use rcacopilot::llm::prompt::{PredictionPrompt, PromptOption, CONTEXT_TOKENS};
use rcacopilot::llm::CotEngine;
use rcacopilot::serve::{cost, EngineConfig, EventOutcome, EventRecord, WalRecord, WriteAheadLog};
use rcacopilot::simcloud::Incident;
use rcacopilot::telemetry::SimDuration;
use rcacopilot::textkit::bpe::BpeTokenizer;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The timed layers, in pipeline order.
pub const STAGES: [&str; 8] = [
    "collect",
    "summarize",
    "assemble",
    "embed",
    "retrieve",
    "budget",
    "reason",
    "commit",
];

/// Accumulates wall nanoseconds per stage. It is a [`StageHook`], the
/// interface the engine itself reports stage times through.
#[derive(Debug, Default)]
pub struct StageTimer {
    nanos: [AtomicU64; STAGES.len()],
}

impl StageHook for StageTimer {
    fn on_stage(&self, stage: &'static str, wall_nanos: u64) {
        let slot = STAGES
            .iter()
            .position(|s| *s == stage)
            .expect("timed stages are listed in STAGES");
        self.nanos[slot].fetch_add(wall_nanos, Ordering::Relaxed);
    }
}

impl StageTimer {
    /// Runs `body` and books its wall time to `stage`.
    fn time<T>(&self, stage: &'static str, body: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = body();
        self.on_stage(stage, elapsed_nanos(t0));
        out
    }

    /// Total nanoseconds booked to `stage`.
    pub fn total(&self, stage: &str) -> u64 {
        STAGES
            .iter()
            .position(|s| *s == stage)
            .map_or(0, |slot| self.nanos[slot].load(Ordering::Relaxed))
    }
}

fn elapsed_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Journal work of the traced commits.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalTotals {
    /// Commits journaled.
    pub commits: u64,
    /// Nanoseconds in `append`, fsync excluded.
    pub append_ns: u64,
    /// Nanoseconds in fsync, per the journal's own counter.
    pub fsync_ns: u64,
    /// Bytes the journal file grew by per commit (its epoch record
    /// included), folds excluded.
    pub bytes: u64,
    /// Checkpoint folds.
    pub folds: u64,
    /// Nanoseconds in checkpoint folds.
    pub fold_ns: u64,
}

/// Everything one or more traced passes measured.
#[derive(Debug, Default)]
pub struct TraceTotals {
    /// Per-stage wall time.
    pub timer: StageTimer,
    /// Predicted events traced.
    pub events: u64,
    /// Traced predictions that differ from the engine's.
    pub mismatches: u64,
    /// Sum over events of the history entries retrieval searched.
    pub history_entries: u64,
    /// Sum over events of prompt tokens after budget truncation.
    pub tokens: u64,
    /// Token counts of the distinct prompts seen, by content hash.
    token_counts: HashMap<u64, usize>,
    /// Sum over events of options the budget dropped.
    pub dropped_options: u64,
    /// Summary memo (hits, lookups).
    pub summary_memo: (u64, u64),
    /// Embedding memo (hits, lookups).
    pub embed_memo: (u64, u64),
    /// Journal work.
    pub wal: WalTotals,
    /// Process CPU seconds of the passes.
    pub cpu_s: f64,
}

/// Traces every predicted event of `reference` (the engine's own
/// records) and adds the measurements to `totals`.
///
/// # Errors
///
/// Returns a description of a collection or journal error.
pub fn traced_pass(
    workload: Workload,
    copilot: &RcaCopilot,
    tokenizer: &BpeTokenizer,
    parts: &[&[Incident]],
    reference: &RunOutput,
    scratch: &Path,
    totals: &mut TraceTotals,
) -> Result<(), String> {
    let cpu0 = crate::workload::cpu_seconds();
    let base = workload.engine_config(rcacopilot::serve::ClockConfig::Virtual, 1);
    // One physical memo pool for every tenant, namespaced per tenant,
    // exactly as the tenant plane shares its caches.
    let caches = PlanCaches::new(base.shards);
    let stage = CollectionStage::standard();
    for (part, records) in parts.iter().zip(&reference.records) {
        let tenant = records.first().map(|r| r.tenant).unwrap_or_default();
        let plan = InferencePlan {
            spec: ContextSpec::default(),
            retrieval: None,
            policy: base.memo.clone(),
        }
        .with_namespace(tenant.0);
        let executor = PlanExecutor::new(copilot, &stage, &plan, &caches);
        let mut commit = Committer::open(workload, copilot, &base, scratch)?;
        for record in records {
            let EventOutcome::Predicted { prediction, .. } = &record.outcome else {
                continue;
            };
            let inc = &part[record.incident_idx];
            let (traced, input_text, query) = trace_event(
                copilot,
                tokenizer,
                &executor,
                commit.view(),
                inc,
                record,
                totals,
            )?;
            if traced != *prediction {
                totals.mismatches += 1;
            }
            totals.timer.time("commit", || {
                commit.commit(record, inc, input_text, query, &base, &mut totals.wal)
            })?;
        }
        commit.close()?;
    }
    let (sum_hits, sum_misses) = caches.summary.stats();
    let (emb_hits, emb_misses) = caches.embed.stats();
    totals.summary_memo.0 += sum_hits;
    totals.summary_memo.1 += sum_hits + sum_misses;
    totals.embed_memo.0 += emb_hits;
    totals.embed_memo.1 += emb_hits + emb_misses;
    totals.cpu_s += crate::workload::cpu_seconds() - cpu0;
    Ok(())
}

/// One event through every layer up to its prediction. Returns the
/// prediction, the assembled prompt input and the query embedding.
fn trace_event(
    copilot: &RcaCopilot,
    tokenizer: &BpeTokenizer,
    executor: &PlanExecutor<'_>,
    online: Option<&ShardedHistoricalIndex>,
    inc: &Incident,
    record: &EventRecord,
    totals: &mut TraceTotals,
) -> Result<(RcaPrediction, String, Vec<f32>), String> {
    let timer = &totals.timer;
    let (collected, raw_diag) = timer
        .time("collect", || {
            executor.collect(inc).map(|c| {
                let raw = c.diagnostic_text();
                (c, raw)
            })
        })
        .map_err(|e| format!("collection failed: {e}"))?;
    let summary = timer.time("summarize", || {
        executor.summarize(&raw_diag, SummarizeMode::Full)
    });
    let input_text = timer.time("assemble", || {
        executor.assemble(&collected, &raw_diag, &summary)
    });
    let query = timer.time("embed", || executor.embed(&raw_diag));

    let config = copilot.config();
    let t0 = Instant::now();
    let snapshot = online.map(ShardedHistoricalIndex::snapshot);
    let view: &dyn HistoryView = match &snapshot {
        Some(s) => s,
        None => copilot.index(),
    };
    let neighbors = view.top_k_diverse(&query, record.at, &config.retrieval);
    timer.on_stage("retrieve", elapsed_nanos(t0));
    totals.history_entries += view.len() as u64;

    let degradation = &collected.run.degradation;
    let completeness = degradation.completeness();
    let (prompt, dropped) = timer.time("budget", || {
        let mut prompt = PredictionPrompt::new(
            input_text.as_str(),
            neighbors
                .iter()
                .map(|n| PromptOption {
                    summary: n.entry.summary.as_str().into(),
                    category: n.entry.category.as_str().into(),
                })
                .collect(),
        );
        if completeness < 1.0 {
            prompt.degradation_note = Some(format!(
                "{}; treat missing evidence as unknown rather than absent.",
                degradation.summary()
            ));
        }
        let dropped = prompt.truncate_to_budget(tokenizer, CONTEXT_TOKENS);
        (prompt, dropped)
    });
    // Counting re-encodes the whole prompt; replayed copies render the
    // same prompt, so count each distinct prompt once.
    let rendered = prompt.render();
    let tokens = *totals
        .token_counts
        .entry(fnv1a(rendered.as_bytes()))
        .or_insert_with(|| tokenizer.count_tokens(&rendered));
    totals.tokens += tokens as u64;
    totals.dropped_options += dropped as u64;

    let prediction = timer.time("reason", || {
        let pred = CotEngine::new(config.profile, config.llm_seed).predict(&prompt);
        let mut confidence = pred.confidence;
        let mut explanation = pred.explanation;
        if completeness < 1.0 {
            confidence *= completeness;
            explanation.push_str(&format!(
                " Note: diagnostics were incomplete ({}); confidence downgraded to reflect \
                 completeness {:.0}%.",
                degradation.summary(),
                completeness * 100.0
            ));
        }
        RcaPrediction {
            label: pred.label,
            unseen: pred.unseen,
            confidence,
            explanation,
            demo_categories: prompt
                .options
                .iter()
                .map(|o| o.category.to_string())
                .collect(),
            completeness,
        }
    });
    totals.events += 1;
    Ok((prediction, input_text, query))
}

/// The commit step of one traced stream: online-index inserts and the
/// journal, mirroring the engine's in-order commit.
struct Committer {
    online: Option<ShardedHistoricalIndex>,
    wal: Option<(WriteAheadLog, std::path::PathBuf)>,
    committed: Vec<EventRecord>,
}

impl Committer {
    fn open(
        workload: Workload,
        copilot: &RcaCopilot,
        base: &EngineConfig,
        scratch: &Path,
    ) -> Result<Self, String> {
        let online = (base.index_mode == rcacopilot::serve::IndexMode::Online).then(|| {
            ShardedHistoricalIndex::warm_with(
                copilot.index().entries(),
                base.shards,
                base.max_cell,
                RetrievalBackend::Exact,
            )
        });
        let wal = match workload {
            Workload::JournaledReplay => {
                let path = journal_path(scratch, "trace");
                let wal = WriteAheadLog::open_durable(&path)
                    .map_err(|e| format!("open traced journal: {e}"))?;
                Some((wal, path))
            }
            _ => None,
        };
        Ok(Committer {
            online,
            wal,
            committed: Vec::new(),
        })
    }

    fn view(&self) -> Option<&ShardedHistoricalIndex> {
        self.online.as_ref()
    }

    fn commit(
        &mut self,
        record: &EventRecord,
        inc: &Incident,
        input_text: String,
        query: Vec<f32>,
        base: &EngineConfig,
        wal_totals: &mut WalTotals,
    ) -> Result<(), String> {
        let Some(online) = self.online.as_ref() else {
            return Ok(());
        };
        let visible_from =
            record.at + SimDuration::from_secs(cost::estimate(&inc.alert, base.cost_seed).total());
        let entry = HistoricalEntry {
            id: record.seq,
            category: inc.category.clone(),
            summary: input_text,
            at: record.at,
            embedding: query,
        };
        self.committed.push(record.clone());
        let Some((wal, path)) = self.wal.as_mut() else {
            let shard = online.insert(entry, visible_from);
            online.publish(shard);
            return Ok(());
        };
        let len0 = file_len(path)?;
        let journal = |wal: &mut WriteAheadLog, rec: &WalRecord, totals: &mut WalTotals| {
            let fsync0 = wal.fsync_nanos();
            let t0 = Instant::now();
            wal.append(rec);
            let spent = elapsed_nanos(t0);
            let fsync = wal.fsync_nanos() - fsync0;
            totals.fsync_ns += fsync;
            totals.append_ns += spent.saturating_sub(fsync);
        };
        journal(
            wal,
            &WalRecord::Commit {
                seq: record.seq,
                record: record.clone(),
                entry: Some(CheckpointEntry {
                    entry: entry.clone(),
                    visible_from,
                }),
            },
            wal_totals,
        );
        let shard = online.insert(entry, visible_from);
        let epoch = online.publish(shard);
        journal(
            wal,
            &WalRecord::Epoch {
                shard,
                epoch,
                committed: self.committed.len(),
                tenant: record.tenant,
            },
            wal_totals,
        );
        wal_totals.commits += 1;
        wal_totals.bytes += file_len(path)?.saturating_sub(len0);
        if self.committed.len() - wal.checkpointed() >= CHECKPOINT_EVERY {
            let t0 = Instant::now();
            wal.install_checkpoint(
                self.committed.clone(),
                Some(online.checkpoint()),
                record.tenant,
            );
            wal_totals.fold_ns += elapsed_nanos(t0);
            wal_totals.folds += 1;
        }
        Ok(())
    }

    fn close(self) -> Result<(), String> {
        if let Some((wal, path)) = self.wal {
            drop(wal);
            std::fs::remove_file(&path).map_err(|e| format!("remove traced journal: {e}"))?;
        }
        Ok(())
    }
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat journal: {e}"))
}
