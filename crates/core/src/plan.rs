//! The unified inference plan: one typed stage graph executed by both
//! the batch plane and the online serving plane.
//!
//! RCACopilot is one pipeline — collect → summarize → assemble-context →
//! embed → retrieve → predict — but it used to be executed from two
//! divergent code paths: the batch harness re-derived the chain around
//! `PreparedIncident` with no caching, while the serving engine
//! re-implemented it inline with memo caches and [`ContextSpec`] gating.
//! [`InferencePlan`] makes the chain a value:
//!
//! - the [`ContextSpec`] gates which stages run (no summarization when
//!   the context omits summarized diagnostics) and how the prompt input
//!   is assembled;
//! - the retrieval parameters are part of the plan, so ablations
//!   (Table 3 rows, Figure 12 cells) are plan *configurations* rather
//!   than forked evaluation loops;
//! - the [`MemoPolicy`] decides whether the summarize and embed stages
//!   are memoized, through [`PlanCaches`] shared by every executor of the
//!   same run.
//!
//! [`PlanExecutor`] executes the plan for one incident at a time. It is
//! deliberately free of scheduling concerns: the serving engine wraps it
//! with virtual-time costs, admission, watermarks and fault attribution;
//! the batch harness maps it over a prepared dataset. Both produce the
//! same bytes for the same inputs — the parity the serving tests and the
//! batch≡serve proptest pin down.

use crate::collection::{CollectedIncident, CollectionError, CollectionStage};
use crate::context::ContextSpec;
use crate::eval::PreparedIncident;
use crate::memo::{ExactMemo, MemoCache, MemoPolicy, NamespacedMemo};
use crate::pipeline::{RcaCopilot, RcaPrediction};
use crate::retrieval::{HistoryView, RetrievalConfig};
use rcacopilot_handlers::RunDegradation;
use rcacopilot_llm::Summarizer;
use rcacopilot_simcloud::Incident;
use rcacopilot_telemetry::SimTime;
use std::sync::Arc;

/// A configured inference stage chain: context gating, retrieval
/// parameters, and the memoization policy.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    /// Prompt-context configuration; gates the summarize stage and
    /// drives context assembly.
    pub spec: ContextSpec,
    /// Retrieval parameters, or `None` to use the pipeline's configured
    /// ones. Figure 12 sweep cells override this per plan.
    pub retrieval: Option<RetrievalConfig>,
    /// Whether the summarize and embed stages are memoized.
    pub policy: Arc<dyn MemoPolicy>,
}

impl Default for InferencePlan {
    fn default() -> Self {
        InferencePlan::new(ContextSpec::default())
    }
}

impl InferencePlan {
    /// A plan for `spec` with the pipeline's retrieval parameters and the
    /// exact content-hash memo policy.
    pub fn new(spec: ContextSpec) -> Self {
        InferencePlan {
            spec,
            retrieval: None,
            policy: Arc::new(ExactMemo),
        }
    }

    /// Replaces the memo policy.
    pub fn with_policy(mut self, policy: Arc<dyn MemoPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the retrieval parameters.
    pub fn with_retrieval(mut self, retrieval: RetrievalConfig) -> Self {
        self.retrieval = Some(retrieval);
        self
    }

    /// Scopes the plan's memo keys to a tenant namespace by wrapping the
    /// current policy in [`NamespacedMemo`]. Namespace `0` (the root) is
    /// a no-op, so single-tenant plans stay byte-identical.
    pub fn with_namespace(mut self, namespace: u64) -> Self {
        if namespace != 0 {
            self.policy = Arc::new(NamespacedMemo::new(self.policy, namespace));
        }
        self
    }

    /// The stages this plan executes, in order, after gating. The
    /// summarize stage drops out when the context spec never renders a
    /// summary.
    pub fn stages(&self) -> Vec<&'static str> {
        let mut stages = vec!["collect"];
        if self.summarize_gated() {
            stages.push("summarize");
        }
        stages.extend(["assemble", "embed", "retrieve", "predict"]);
        stages
    }

    /// True when the summarize stage runs under this plan's spec.
    pub fn summarize_gated(&self) -> bool {
        self.spec.diagnostic_info && self.spec.summarized
    }
}

/// Memoization caches shared by every executor of one run — the seam the
/// [`MemoPolicy`] keys into.
#[derive(Debug, Default)]
pub struct PlanCaches {
    /// Summarization results, keyed by [`MemoPolicy::key`].
    pub summary: MemoCache<String>,
    /// Scaled embeddings, keyed by [`MemoPolicy::key`].
    pub embed: MemoCache<Vec<f32>>,
}

impl PlanCaches {
    /// Caches with `shards` lock domains each (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        PlanCaches {
            summary: MemoCache::new(shards),
            embed: MemoCache::new(shards),
        }
    }

    /// Total poisoned-lock recoveries across both caches; the serving
    /// engine folds this into its fault counters at report time.
    pub fn poison_recoveries(&self) -> u64 {
        self.summary.poison_recoveries() + self.embed.poison_recoveries()
    }
}

/// How the summarize stage runs for one incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummarizeMode {
    /// The full LLM summarization (memoized per the plan's policy).
    Full,
    /// The degraded-mode word-truncation substitute
    /// ([`truncated_summary`]), used by the serving engine under load
    /// shedding. Never cached: it is cheaper than a cache probe.
    TruncatedDegraded,
}

/// Cheap degraded-mode replacement for LLM summarization: the first 60
/// words of the raw diagnostics.
pub fn truncated_summary(raw_diag: &str) -> String {
    raw_diag
        .split_whitespace()
        .take(60)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs the summarize stage through `cache` under `policy` — the one
/// definition both planes (and dataset preparation) share. A `None` key
/// bypasses the cache.
pub fn memoized_summary(
    summarizer: &Summarizer,
    raw_diag: &str,
    policy: &dyn MemoPolicy,
    cache: &MemoCache<String>,
) -> String {
    match policy.key(raw_diag) {
        Some(key) => cache.get_or_insert_with(key, || summarizer.summarize(raw_diag)),
        None => summarizer.summarize(raw_diag),
    }
}

/// Observer of per-stage execution on the serving path.
///
/// [`PlanExecutor::run_incident`] reports each completed stage — by the
/// [`InferencePlan::stages`] names, with `retrieve` and `predict` fused
/// under `"predict"` — together with its measured wall-clock duration.
/// The serving engine's real-clock backend hangs stage sleeps, tracing
/// events and wall histograms off this seam; with no hook installed
/// (the default, and always the DES path) the executor takes no clock
/// readings at all, so batch and virtual-mode outputs are untouched.
pub trait StageHook: Sync {
    /// Called after `stage` completed, with its wall-clock duration.
    fn on_stage(&self, stage: &'static str, wall_nanos: u64);
}

/// Everything the plan produced for one incident: the per-stage outputs
/// the caller may need downstream (the serving engine turns `input_text`
/// and `query` into the online index entry).
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The collection stage's output.
    pub collected: CollectedIncident,
    /// Raw handler-collected diagnostic text.
    pub raw_diag: String,
    /// The (possibly gated-empty, possibly truncated) summary.
    pub summary: String,
    /// The assembled prompt-context text.
    pub input_text: String,
    /// The scaled embedding of the raw diagnostics.
    pub query: Vec<f32>,
    /// The pipeline's prediction.
    pub prediction: RcaPrediction,
}

/// Executes an [`InferencePlan`] over a trained pipeline, one incident at
/// a time. Pure in its inputs: worker identity, wall-clock time, and
/// cache hit/miss patterns never leak into the outputs.
pub struct PlanExecutor<'a> {
    copilot: &'a RcaCopilot,
    stage: &'a CollectionStage,
    plan: &'a InferencePlan,
    caches: &'a PlanCaches,
    hook: Option<&'a dyn StageHook>,
}

impl std::fmt::Debug for PlanExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanExecutor")
            .field("plan", &self.plan)
            .field("hooked", &self.hook.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> PlanExecutor<'a> {
    /// Binds a plan to a trained pipeline, a collection stage, and the
    /// run's shared caches.
    pub fn new(
        copilot: &'a RcaCopilot,
        stage: &'a CollectionStage,
        plan: &'a InferencePlan,
        caches: &'a PlanCaches,
    ) -> Self {
        PlanExecutor {
            copilot,
            stage,
            plan,
            caches,
            hook: None,
        }
    }

    /// Installs a per-stage observer (see [`StageHook`]).
    pub fn with_hook(mut self, hook: &'a dyn StageHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Runs one stage body, reporting its wall duration to the hook when
    /// one is installed; otherwise reads no clock at all.
    fn timed<T>(&self, stage: &'static str, body: impl FnOnce() -> T) -> T {
        match self.hook {
            None => body(),
            Some(hook) => {
                let t0 = std::time::Instant::now();
                let out = body();
                hook.on_stage(stage, t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                out
            }
        }
    }

    /// The bound plan.
    pub fn plan(&self) -> &InferencePlan {
        self.plan
    }

    /// The run's shared caches.
    pub fn caches(&self) -> &PlanCaches {
        self.caches
    }

    /// Stage 1 — collection: the incident's handler gathers multi-source
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// Returns the [`CollectionError`] when the handler chain failed
    /// terminally; the serving engine degrades such events to dead-letter
    /// records.
    pub fn collect(&self, incident: &Incident) -> Result<CollectedIncident, CollectionError> {
        self.stage.collect(incident)
    }

    /// Stage 2 — summarization, gated by the plan's context spec: an
    /// empty string when the spec never renders a summary, the truncation
    /// substitute in degraded mode, the (policy-memoized) LLM summary
    /// otherwise.
    pub fn summarize(&self, raw_diag: &str, mode: SummarizeMode) -> String {
        if !self.plan.summarize_gated() {
            return String::new();
        }
        match mode {
            SummarizeMode::TruncatedDegraded => truncated_summary(raw_diag),
            SummarizeMode::Full => memoized_summary(
                self.copilot.summarizer(),
                raw_diag,
                self.plan.policy.as_ref(),
                &self.caches.summary,
            ),
        }
    }

    /// Stage 3 — context assembly: renders the prompt input under the
    /// plan's spec.
    pub fn assemble(&self, collected: &CollectedIncident, raw_diag: &str, summary: &str) -> String {
        self.plan.spec.render_parts(
            &collected.alert_info,
            raw_diag,
            summary,
            &collected.run.action_output_text(),
        )
    }

    /// Stage 4 — embedding: the scaled retrieval embedding of `text`,
    /// memoized per the plan's policy.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        match self.plan.policy.key(text) {
            Some(key) => self
                .caches
                .embed
                .get_or_insert_with(key, || self.copilot.embed_scaled(text)),
            None => self.copilot.embed_scaled(text),
        }
    }

    /// Stages 4–6 — embed, retrieve, predict: embeds `embed_text`
    /// (memoized), retrieves from `history` at `at` with the plan's
    /// retrieval parameters, and predicts over `input_text`.
    pub fn predict_text(
        &self,
        history: &dyn HistoryView,
        embed_text: &str,
        input_text: &str,
        at: SimTime,
        degradation: &RunDegradation,
    ) -> RcaPrediction {
        let query = self.embed(embed_text);
        self.predict_query(history, &query, input_text, at, degradation)
    }

    /// Stages 5–6 over an already-embedded query.
    pub fn predict_query(
        &self,
        history: &dyn HistoryView,
        query: &[f32],
        input_text: &str,
        at: SimTime,
        degradation: &RunDegradation,
    ) -> RcaPrediction {
        let retrieval = self
            .plan
            .retrieval
            .as_ref()
            .unwrap_or(&self.copilot.config().retrieval);
        self.copilot
            .predict_from_query(history, query, input_text, at, retrieval, degradation)
    }

    /// The full stage chain for one raw incident: collect → summarize →
    /// assemble → embed → retrieve → predict against `history` at
    /// virtual instant `at`.
    ///
    /// # Errors
    ///
    /// Returns the [`CollectionError`] when collection failed terminally.
    pub fn run_incident(
        &self,
        incident: &Incident,
        at: SimTime,
        history: &dyn HistoryView,
        mode: SummarizeMode,
    ) -> Result<PlanOutcome, CollectionError> {
        let collected = self.timed("collect", || self.collect(incident))?;
        let raw_diag = collected.diagnostic_text();
        let summary = self.timed("summarize", || self.summarize(&raw_diag, mode));
        let input_text = self.timed("assemble", || {
            self.assemble(&collected, &raw_diag, &summary)
        });
        let query = self.timed("embed", || self.embed(&raw_diag));
        let prediction = self.timed("predict", || {
            self.predict_query(history, &query, &input_text, at, &collected.run.degradation)
        });
        Ok(PlanOutcome {
            collected,
            raw_diag,
            summary,
            input_text,
            query,
            prediction,
        })
    }

    /// The plan over an already-prepared incident (batch evaluation):
    /// collection and summarization were done at dataset preparation, so
    /// this runs assemble → embed → retrieve → predict. The embedding is
    /// of the raw diagnostics, exactly as [`run_incident`] embeds them.
    ///
    /// [`run_incident`]: PlanExecutor::run_incident
    pub fn run_prepared(&self, inc: &PreparedIncident, history: &dyn HistoryView) -> RcaPrediction {
        let input_text = self.plan.spec.render_parts(
            &inc.alert_info,
            &inc.raw_diag,
            &inc.summary,
            &inc.action_output,
        );
        self.predict_text(
            history,
            &inc.raw_diag,
            &input_text,
            inc.at,
            &inc.degradation,
        )
    }

    /// Executes the plan over a batch of arrival events — the batch
    /// plane's equivalent of a frozen-replay serving run. `arrivals`
    /// pairs an index into `incidents` with a virtual arrival instant;
    /// results come back in the same order.
    pub fn run_batch(
        &self,
        incidents: &[Incident],
        arrivals: &[(usize, SimTime)],
        history: &dyn HistoryView,
    ) -> Vec<Result<PlanOutcome, CollectionError>> {
        arrivals
            .iter()
            .map(|&(idx, at)| self.run_incident(&incidents[idx], at, history, SummarizeMode::Full))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PreparedDataset;
    use crate::memo::NoMemo;
    use crate::pipeline::RcaCopilotConfig;
    use rcacopilot_embed::{FastTextConfig, FeatureExtractor};
    use rcacopilot_simcloud::noise::NoiseProfile;
    use rcacopilot_simcloud::{generate_dataset, CampaignConfig, IncidentDataset, Topology};

    fn dataset() -> IncidentDataset {
        generate_dataset(&CampaignConfig {
            seed: 23,
            topology: Topology::new(2, 4, 2, 2),
            noise: NoiseProfile::default(),
        })
    }

    fn quick_config() -> RcaCopilotConfig {
        RcaCopilotConfig {
            embedding: FastTextConfig {
                dim: 16,
                epochs: 4,
                lr: 0.4,
                features: FeatureExtractor {
                    buckets: 1 << 10,
                    ..FeatureExtractor::default()
                },
                ..FastTextConfig::default()
            },
            ..RcaCopilotConfig::default()
        }
    }

    fn trained() -> (RcaCopilot, PreparedDataset, IncidentDataset) {
        let ds = dataset();
        let split = ds.split(3, 0.7);
        let prepared = PreparedDataset::prepare(&ds, &split);
        let copilot = RcaCopilot::train(
            &prepared.train_examples(&ContextSpec::default()),
            quick_config(),
        );
        (copilot, prepared, ds)
    }

    #[test]
    fn stage_listing_follows_spec_gating() {
        let full = InferencePlan::default();
        assert_eq!(
            full.stages(),
            vec![
                "collect",
                "summarize",
                "assemble",
                "embed",
                "retrieve",
                "predict"
            ]
        );
        let unsummarized = InferencePlan::new(ContextSpec {
            summarized: false,
            ..ContextSpec::default()
        });
        assert!(!unsummarized.stages().contains(&"summarize"));
    }

    #[test]
    fn run_prepared_matches_bespoke_predict_degraded() {
        let (copilot, prepared, _ds) = trained();
        let spec = ContextSpec::default();
        let plan = InferencePlan::new(spec);
        let caches = PlanCaches::new(1);
        let stage = CollectionStage::standard();
        let executor = PlanExecutor::new(&copilot, &stage, &plan, &caches);
        for &i in prepared.test.iter().take(8) {
            let inc = &prepared.incidents[i];
            let via_plan = executor.run_prepared(inc, copilot.index());
            let bespoke = copilot.predict_degraded(
                &inc.raw_diag,
                &prepared.context_text(i, &spec),
                inc.at,
                &inc.degradation,
            );
            assert_eq!(via_plan, bespoke, "incident {i} diverged");
        }
        let (hits, misses) = caches.embed.stats();
        assert_eq!(
            hits + misses,
            8,
            "every prediction embeds through the cache"
        );
    }

    #[test]
    fn run_incident_memoizes_repeats_without_changing_output() {
        let (copilot, _prepared, ds) = trained();
        let plan = InferencePlan::default();
        let caches = PlanCaches::new(2);
        let stage = CollectionStage::standard();
        let executor = PlanExecutor::new(&copilot, &stage, &plan, &caches);
        let inc = &ds.incidents()[0];
        let at = inc.occurred_at();
        let first = executor
            .run_incident(inc, at, copilot.index(), SummarizeMode::Full)
            .expect("handler registered");
        let second = executor
            .run_incident(inc, at, copilot.index(), SummarizeMode::Full)
            .expect("handler registered");
        assert_eq!(first.prediction, second.prediction);
        assert_eq!(first.summary, second.summary);
        assert_eq!(first.query, second.query);
        let (sum_hits, _) = caches.summary.stats();
        let (emb_hits, _) = caches.embed.stats();
        assert_eq!(sum_hits, 1, "second summarization must hit");
        assert_eq!(emb_hits, 1, "second embedding must hit");

        // NoMemo executes identically, just without cache traffic.
        let no_plan = InferencePlan::default().with_policy(Arc::new(NoMemo));
        let no_caches = PlanCaches::new(1);
        let no_exec = PlanExecutor::new(&copilot, &stage, &no_plan, &no_caches);
        let uncached = no_exec
            .run_incident(inc, at, copilot.index(), SummarizeMode::Full)
            .expect("handler registered");
        assert_eq!(uncached.prediction, first.prediction);
        assert!(no_caches.summary.is_empty());
        assert!(no_caches.embed.is_empty());
    }

    #[test]
    fn degraded_mode_truncates_instead_of_caching() {
        let (copilot, _prepared, ds) = trained();
        let plan = InferencePlan::default();
        let caches = PlanCaches::new(1);
        let stage = CollectionStage::standard();
        let executor = PlanExecutor::new(&copilot, &stage, &plan, &caches);
        let inc = &ds.incidents()[1];
        let out = executor
            .run_incident(
                inc,
                inc.occurred_at(),
                copilot.index(),
                SummarizeMode::TruncatedDegraded,
            )
            .expect("handler registered");
        assert_eq!(out.summary, truncated_summary(&out.raw_diag));
        assert!(
            caches.summary.is_empty(),
            "degraded summaries must not populate the cache"
        );
    }

    #[test]
    fn stage_hook_sees_every_stage_in_order_without_changing_output() {
        #[derive(Default)]
        struct Recorder(std::sync::Mutex<Vec<&'static str>>);
        impl StageHook for Recorder {
            fn on_stage(&self, stage: &'static str, _wall_nanos: u64) {
                self.0.lock().expect("test recorder lock").push(stage);
            }
        }
        let (copilot, _prepared, ds) = trained();
        let plan = InferencePlan::default();
        let stage = CollectionStage::standard();
        let inc = &ds.incidents()[0];
        let at = inc.occurred_at();

        let bare_caches = PlanCaches::new(1);
        let bare = PlanExecutor::new(&copilot, &stage, &plan, &bare_caches)
            .run_incident(inc, at, copilot.index(), SummarizeMode::Full)
            .expect("handler registered");

        let recorder = Recorder::default();
        let hooked_caches = PlanCaches::new(1);
        let hooked = PlanExecutor::new(&copilot, &stage, &plan, &hooked_caches)
            .with_hook(&recorder)
            .run_incident(inc, at, copilot.index(), SummarizeMode::Full)
            .expect("handler registered");

        assert_eq!(hooked.prediction, bare.prediction, "hook must be passive");
        assert_eq!(
            *recorder.0.lock().expect("test recorder lock"),
            vec!["collect", "summarize", "assemble", "embed", "predict"],
        );
    }

    #[test]
    fn retrieval_override_changes_the_plan_not_the_pipeline() {
        let (copilot, prepared, _ds) = trained();
        let caches = PlanCaches::new(1);
        let stage = CollectionStage::standard();
        let narrow = InferencePlan::default().with_retrieval(RetrievalConfig { k: 1, alpha: 0.3 });
        let executor = PlanExecutor::new(&copilot, &stage, &narrow, &caches);
        let i = prepared.test[0];
        let pred = executor.run_prepared(&prepared.incidents[i], copilot.index());
        assert!(pred.demo_categories.len() <= 1, "k=1 caps demonstrations");
    }
}
