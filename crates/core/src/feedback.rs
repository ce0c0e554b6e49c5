//! OCE feedback on predictions — the paper's §5.5 improvement loop.
//!
//! Incident notification emails carry a feedback mechanism; collected
//! verdicts tell the team which categories the predictor struggles with
//! and which handlers need new actions. This store aggregates verdicts
//! and surfaces the categories whose precision has fallen below a review
//! threshold.

use crate::plan::{PlanExecutor, SummarizeMode};
use crate::report::OnCallReport;
use crate::retrieval::HistoryView;
use rcacopilot_simcloud::Incident;
use rcacopilot_telemetry::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock};

/// One OCE verdict on a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The prediction matched the post-investigation root cause.
    Correct,
    /// The prediction was wrong.
    Incorrect,
    /// Right failure mode, wrong taxonomy label (e.g. the paper's
    /// "I/O Bottleneck" vs "FullDisk").
    CloseEnough,
}

/// Aggregate feedback for one predicted category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CategoryFeedback {
    /// Predictions confirmed correct.
    pub correct: usize,
    /// Predictions judged incorrect.
    pub incorrect: usize,
    /// Semantically-right, label-mismatched predictions.
    pub close_enough: usize,
}

impl CategoryFeedback {
    /// Total verdicts received.
    pub fn total(&self) -> usize {
        self.correct + self.incorrect + self.close_enough
    }

    /// Share of verdicts that were not `Incorrect`; `None` without data.
    pub fn satisfaction(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        Some((self.correct + self.close_enough) as f64 / total as f64)
    }
}

/// Thread-safe feedback store, aggregated per predicted category. Every
/// update is one counter bump, so a lock poisoned by a panicking holder
/// is recovered, not propagated.
#[derive(Debug, Default)]
pub struct FeedbackStore {
    data: RwLock<BTreeMap<String, CategoryFeedback>>,
}

impl FeedbackStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        FeedbackStore::default()
    }

    /// Records a verdict for a predicted category.
    pub fn record(&self, predicted_category: &str, verdict: Verdict) {
        let mut data = self.data.write().unwrap_or_else(PoisonError::into_inner);
        let entry = data.entry(predicted_category.to_string()).or_default();
        match verdict {
            Verdict::Correct => entry.correct += 1,
            Verdict::Incorrect => entry.incorrect += 1,
            Verdict::CloseEnough => entry.close_enough += 1,
        }
    }

    /// Aggregate for one category.
    pub fn category(&self, category: &str) -> CategoryFeedback {
        self.data
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(category)
            .copied()
            .unwrap_or_default()
    }

    /// Overall satisfaction across all verdicts; `None` without data.
    pub fn overall_satisfaction(&self) -> Option<f64> {
        let data = self.data.read().unwrap_or_else(PoisonError::into_inner);
        let mut good = 0usize;
        let mut total = 0usize;
        for f in data.values() {
            good += f.correct + f.close_enough;
            total += f.total();
        }
        if total == 0 {
            None
        } else {
            Some(good as f64 / total as f64)
        }
    }

    /// Categories with at least `min_verdicts` verdicts whose satisfaction
    /// fell below `threshold` — the ones whose handlers or demonstrations
    /// an OCE should revisit.
    pub fn needs_review(&self, threshold: f64, min_verdicts: usize) -> Vec<String> {
        self.data
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|(_, f)| {
                f.total() >= min_verdicts && f.satisfaction().is_some_and(|s| s < threshold)
            })
            .map(|(c, _)| c.clone())
            .collect()
    }

    /// Serializes all aggregates to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&*self.data.read().unwrap_or_else(PoisonError::into_inner))
            .expect("feedback serializes")
    }

    /// Restores a store from [`FeedbackStore::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        Ok(FeedbackStore {
            data: RwLock::new(serde_json::from_str(json)?),
        })
    }
}

/// Outcome of one simulated on-call shift driven by a plan execution.
#[derive(Debug)]
pub struct ShiftOutcome {
    /// The aggregated OCE verdicts.
    pub store: FeedbackStore,
    /// Rendered notification reports, one per processed incident.
    pub reports: Vec<String>,
    /// Incidents whose collection failed and were skipped.
    pub skipped: usize,
}

/// Simulates an on-call shift over `picks` (indices into `incidents`):
/// each incident runs the full inference plan — collect → summarize →
/// assemble → embed → retrieve → predict — through `executor`, a
/// notification report is assembled, and an oracle OCE verdict (correct /
/// close-enough-on-unseen / incorrect against the ground-truth category)
/// is recorded. This replaces the bespoke per-incident loop the
/// `oncall_report` example used to carry.
pub fn run_shift(
    executor: &PlanExecutor<'_>,
    incidents: &[Incident],
    picks: &[usize],
    history: &dyn HistoryView,
) -> ShiftOutcome {
    let store = FeedbackStore::new();
    let mut reports = Vec::new();
    let mut skipped = 0usize;
    for &i in picks {
        let incident = &incidents[i];
        let at: SimTime = incident.occurred_at();
        let Ok(out) = executor.run_incident(incident, at, history, SummarizeMode::Full) else {
            skipped += 1;
            continue;
        };
        let report =
            OnCallReport::assemble(incident, &out.collected, &out.summary, &out.prediction);
        reports.push(report.render());
        let verdict = if out.prediction.label == incident.category {
            Verdict::Correct
        } else if out.prediction.unseen {
            Verdict::CloseEnough
        } else {
            Verdict::Incorrect
        };
        store.record(&out.prediction.label, verdict);
    }
    ShiftOutcome {
        store,
        reports,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_aggregate_per_category() {
        let store = FeedbackStore::new();
        store.record("HubPortExhaustion", Verdict::Correct);
        store.record("HubPortExhaustion", Verdict::Correct);
        store.record("HubPortExhaustion", Verdict::Incorrect);
        store.record("I/O Bottleneck", Verdict::CloseEnough);
        let hub = store.category("HubPortExhaustion");
        assert_eq!(hub.total(), 3);
        assert!((hub.satisfaction().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        let io = store.category("I/O Bottleneck");
        assert_eq!(io.satisfaction(), Some(1.0));
        assert_eq!(store.category("nope").satisfaction(), None);
    }

    #[test]
    fn review_list_respects_thresholds() {
        let store = FeedbackStore::new();
        for _ in 0..4 {
            store.record("BadCategory", Verdict::Incorrect);
        }
        store.record("BadCategory", Verdict::Correct);
        store.record("ThinData", Verdict::Incorrect);
        let review = store.needs_review(0.5, 3);
        assert_eq!(review, vec!["BadCategory".to_string()]);
        // ThinData has too few verdicts to conclude anything.
        assert!(store
            .needs_review(0.5, 2)
            .contains(&"BadCategory".to_string()));
    }

    #[test]
    fn overall_satisfaction_spans_categories() {
        let store = FeedbackStore::new();
        assert_eq!(store.overall_satisfaction(), None);
        store.record("A", Verdict::Correct);
        store.record("B", Verdict::Incorrect);
        assert_eq!(store.overall_satisfaction(), Some(0.5));
    }

    #[test]
    fn json_round_trip() {
        let store = FeedbackStore::new();
        store.record("A", Verdict::Correct);
        store.record("A", Verdict::CloseEnough);
        let restored = FeedbackStore::from_json(&store.to_json()).unwrap();
        assert_eq!(restored.category("A").total(), 2);
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let store = std::sync::Arc::new(FeedbackStore::new());
        let mut joins = Vec::new();
        for _ in 0..8 {
            let store = store.clone();
            joins.push(std::thread::spawn(move || {
                store.record("X", Verdict::Correct);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(store.category("X").correct, 8);
    }
}
