//! Ablation experiments: Table 3 (prompt context) and Figure 12 (K, α).

use crate::collection::CollectionStage;
use crate::context::ContextSpec;
use crate::eval::{parallel_map, PreparedDataset};
use crate::metrics::{f1_scores, F1Report};
use crate::pipeline::{Embedder, RcaCopilot, RcaCopilotConfig};
use crate::plan::{InferencePlan, PlanCaches, PlanExecutor};
use crate::retrieval::RetrievalConfig;
use rcacopilot_embed::FastTextModel;
use rcacopilot_handlers::RunDegradation;

/// Runs the Table 3 context ablation: one evaluation per context row,
/// sharing a single trained embedder (retrieval is identical across rows;
/// only the prompt text changes, as in the paper).
pub fn table3_context_ablation(
    prepared: &PreparedDataset,
    config: &RcaCopilotConfig,
) -> Vec<(String, F1Report)> {
    let gold = prepared.test_gold();

    ContextSpec::table3_rows()
        .into_iter()
        .map(|(name, spec)| {
            // Under each ablation row, the incident's *information* is the
            // selected context: the embedder trains on (and the index
            // embeds) its unsummarized form, while the prompt carries the
            // row's (possibly summarized) rendering.
            let embed_spec = ContextSpec {
                summarized: false,
                ..spec
            };
            let examples: Vec<crate::pipeline::TrainExample> = prepared
                .train
                .iter()
                .map(|&i| {
                    let inc = &prepared.incidents[i];
                    crate::pipeline::TrainExample {
                        raw_diag: prepared.context_text(i, &embed_spec),
                        demo_text: prepared.context_text(i, &spec),
                        category: inc.category.clone(),
                        at: inc.at,
                    }
                })
                .collect();
            let pairs: Vec<(String, String)> = examples
                .iter()
                .map(|e| (e.raw_diag.clone(), e.category.clone()))
                .collect();
            let embedder = FastTextModel::train(&pairs, config.embedding.clone());
            let copilot = RcaCopilot::train_with_embedder(
                &examples,
                Embedder::FastText(Box::new(embedder)),
                config.clone(),
            );
            // Each Table 3 row is a plan configuration, not a forked
            // evaluation loop: the row's spec gates context assembly,
            // while the embed text stays the unsummarized rendering.
            let plan = InferencePlan::new(spec);
            let stage = CollectionStage::standard();
            let caches = PlanCaches::new(8);
            let executor = PlanExecutor::new(&copilot, &stage, &plan, &caches);
            let preds = parallel_map(&prepared.test, |&i| {
                let inc = &prepared.incidents[i];
                executor
                    .predict_text(
                        copilot.index(),
                        &prepared.context_text(i, &embed_spec),
                        &prepared.context_text(i, &spec),
                        inc.at,
                        &RunDegradation::default(),
                    )
                    .label
            });
            (name, f1_scores(&gold, &preds))
        })
        .collect()
}

/// One cell of the Figure 12 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Number of demonstrations.
    pub k: usize,
    /// Temporal decay per day.
    pub alpha: f64,
    /// Micro-F1 at this setting.
    pub micro_f1: f64,
    /// Macro-F1 at this setting.
    pub macro_f1: f64,
}

/// Runs the Figure 12 sweep over `ks × alphas`. The pipeline is trained
/// once; only retrieval parameters vary per cell.
pub fn fig12_sweep(
    prepared: &PreparedDataset,
    config: &RcaCopilotConfig,
    ks: &[usize],
    alphas: &[f64],
) -> Vec<SweepPoint> {
    let spec = ContextSpec::default();
    let copilot = RcaCopilot::train(&prepared.train_examples(&spec), config.clone());
    let gold = prepared.test_gold();
    let stage = CollectionStage::standard();
    // One cache pool for the whole sweep: the embedding of a test
    // incident is identical in every (K, α) cell, so all cells after the
    // first hit the embed cache instead of re-running FastText inference
    // per cell.
    let caches = PlanCaches::new(8);

    let mut out = Vec::with_capacity(ks.len() * alphas.len());
    for &alpha in alphas {
        for &k in ks {
            let plan = InferencePlan::new(spec).with_retrieval(RetrievalConfig { k, alpha });
            let executor = PlanExecutor::new(&copilot, &stage, &plan, &caches);
            let preds = parallel_map(&prepared.test, |&i| {
                let inc = &prepared.incidents[i];
                executor.run_prepared(inc, copilot.index()).label
            });
            let f1 = f1_scores(&gold, &preds);
            out.push(SweepPoint {
                k,
                alpha,
                micro_f1: f1.micro_f1,
                macro_f1: f1.macro_f1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_is_plain_data() {
        let p = SweepPoint {
            k: 5,
            alpha: 0.3,
            micro_f1: 0.7,
            macro_f1: 0.5,
        };
        assert_eq!(p.clone(), p);
    }
}
