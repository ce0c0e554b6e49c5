//! RCACopilot: the end-to-end root-cause-analysis pipeline.
//!
//! This crate ties the substrates together into the system of the paper's
//! Figure 4:
//!
//! 1. **Diagnostic information collection** ([`collection`]): an incoming
//!    incident is matched to its alert type's handler (from
//!    `rcacopilot-handlers`), which gathers multi-source diagnostics from
//!    the incident's telemetry snapshot. A [`collection::KnownIssueDb`]
//!    can short-circuit recognized alert patterns with mitigations.
//! 2. **Context construction** ([`context`]): the Table 3 prompt contexts
//!    — alert info, (summarized) diagnostic info, action output — are
//!    rendered from the collection results.
//! 3. **Retrieval** ([`retrieval`]): historical incidents are embedded
//!    (FastText hidden states) and searched with the paper's
//!    temporal-decay similarity
//!    `sim(a,b) = 1/(1+‖a−b‖₂) · e^(−α|T(a)−T(b)|)`, picking the top-K
//!    neighbors from *distinct* categories as demonstrations.
//! 4. **Prediction** ([`pipeline`]): the simulated LLM summarizes the
//!    diagnostics, receives the Figure 9 prompt, and either selects a
//!    demonstration's category or declares an unseen incident with a
//!    synthesized label and explanation.
//!
//! [`baselines`] implements the Table 2 comparison methods, [`metrics`]
//! the micro/macro F1 scoring, and [`eval`] the experiment harness
//! (including the multi-round stability protocol of §5.6 and the
//! Table 3 / Figure 12 ablations in [`ablation`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod baselines;
pub mod collection;
pub mod context;
pub mod eval;
pub mod feedback;
pub mod memo;
pub mod metrics;
pub mod pipeline;
pub mod plan;
pub mod report;
pub mod retrieval;

pub use collection::{CollectedIncident, CollectionStage, KnownIssueDb};
pub use context::ContextSpec;
pub use eval::{evaluate_method, MethodReport, PreparedDataset};
pub use feedback::{FeedbackStore, Verdict};
pub use memo::{namespaced_key, ExactMemo, MemoCache, MemoPolicy, NamespacedMemo, NoMemo};
pub use metrics::{f1_scores, F1Report};
pub use pipeline::{RcaCopilot, RcaCopilotConfig, RcaPrediction};
pub use plan::{InferencePlan, PlanCaches, PlanExecutor, PlanOutcome, SummarizeMode};
pub use report::OnCallReport;
pub use retrieval::{
    linear_top_k_diverse, shard_for_category, BaseMismatch, CheckpointEntry, HistoricalEntry,
    HistoricalIndex, HistorySnapshot, HistoryView, RetrievalBackend, RetrievalConfig,
    ShardedCheckpoint, ShardedHistoricalIndex, WarmBase,
};
