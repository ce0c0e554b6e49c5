//! Integration of retrieval, prompt construction, and the simulated LLM.

use rcacopilot::core::retrieval::{similarity, HistoricalEntry, HistoricalIndex, RetrievalConfig};
use rcacopilot::llm::prompt::{PredictionPrompt, PromptOption, SummaryPrompt};
use rcacopilot::llm::{CotEngine, ModelProfile};
use rcacopilot::telemetry::time::SimTime;
use rcacopilot::textkit::bpe::BpeTokenizer;

#[test]
fn paper_similarity_formula_end_to_end() {
    // sim = 1/(1+d) * e^(-alpha*|dt|), paper §4.2.2.
    let d = 3.0f64;
    let dt = 4.0f64;
    let alpha = 0.3f64;
    let expected = (1.0 / (1.0 + d)) * (-alpha * dt).exp();
    assert!((similarity(d, dt, alpha) - expected).abs() < 1e-12);
}

#[test]
fn retrieval_feeds_figure9_prompt_and_cot_selects() {
    let mut index = HistoricalIndex::new();
    let entries = [
        (0usize, "HubPortExhaustion", 95u64, vec![0.1f32, 0.0],
         "DatacenterHubOutboundProxyProbe failed twice with WinSock error 11001; UDP socket count 14923 held by Transport.exe."),
        (1, "DeliveryHang", 97, vec![4.0, 4.0],
         "62 managed threads BLOCKED in TransportDelivery waiting on DeliveryQueue; mailbox delivery queue over limit."),
        (2, "FullDisk", 60, vec![8.0, 0.5],
         "System.IO.IOException: not enough space on the disk; volume C: at 99.7% used; processes crashed."),
    ];
    for (id, cat, day, emb, summary) in entries {
        index.add(HistoricalEntry {
            id,
            category: cat.to_string(),
            summary: summary.to_string(),
            at: SimTime::from_days(day),
            embedding: emb,
        });
    }
    let neighbors = index.top_k_diverse(
        &[0.0, 0.0],
        SimTime::from_days(100),
        &RetrievalConfig { k: 3, alpha: 0.3 },
    );
    assert_eq!(neighbors[0].entry.category, "HubPortExhaustion");

    let prompt = PredictionPrompt::new(
        "The hub outbound probe failed with WinSock error 11001 and the UDP socket \
         count reached 15276, almost all owned by Transport.exe.",
        neighbors
            .iter()
            .map(|n| PromptOption {
                summary: n.entry.summary.as_str().into(),
                category: n.entry.category.as_str().into(),
            })
            .collect(),
    );
    let rendered = prompt.render();
    assert!(rendered.contains("A: Unseen incident."));
    assert!(rendered.contains("category: HubPortExhaustion."));

    let engine = CotEngine::new(ModelProfile::Gpt4, 1);
    let pred = engine.predict(&prompt);
    assert_eq!(pred.label, "HubPortExhaustion");
    assert!(!pred.unseen);
    assert!(pred.explanation.contains("HubPortExhaustion"));
}

#[test]
fn prompt_token_budget_is_enforced_with_real_tokenizer() {
    let corpus: Vec<String> = (0..30)
        .map(|i| format!("incident summary number {i} exception failure queue socket"))
        .collect();
    let tokenizer = BpeTokenizer::train(&corpus, 400);
    let mut prompt = PredictionPrompt::new(
        corpus[0].clone(),
        (0..200)
            .map(|i| PromptOption {
                summary: format!("{} option {i}", corpus[i % 30].clone()).into(),
                category: format!("Cat{i}").into(),
            })
            .collect(),
    );
    let dropped = prompt.truncate_to_budget(&tokenizer, 2000);
    assert!(dropped > 0, "budget should force truncation");
    assert!(prompt.token_count(&tokenizer) <= 2000);
    assert!(!prompt.options.is_empty());
}

#[test]
fn summary_prompt_carries_figure7_instruction() {
    let p = SummaryPrompt {
        diagnostic_info: "Total Probes: 2, Failed Probes: 2".into(),
    };
    let text = p.render();
    assert!(text.contains("about 120 words, no more than 140 words"));
    assert!(text.contains("Just return the summary"));
}

#[test]
fn weaker_profile_is_more_conservative_about_matching() {
    // GPT-3.5 has a higher unseen threshold: borderline matches that the
    // GPT-4 profile accepts may be declared unseen by GPT-3.5.
    assert!(ModelProfile::Gpt35.unseen_threshold() > ModelProfile::Gpt4.unseen_threshold());
    assert!(ModelProfile::Gpt35.noise() > ModelProfile::Gpt4.noise());
    assert!(ModelProfile::Gpt35.length_sensitivity() > ModelProfile::Gpt4.length_sensitivity());
}
