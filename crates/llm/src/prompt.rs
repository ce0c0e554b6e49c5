//! Prompt structures mirroring the paper's Figures 7 and 9.

use rcacopilot_textkit::bpe::BpeTokenizer;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Token budget of the simulated model's context window (the paper uses
/// GPT-4 with an 8K window).
pub const CONTEXT_TOKENS: usize = 8192;

/// The summarization prompt (paper Figure 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryPrompt {
    /// The diagnostic information to summarize.
    pub diagnostic_info: String,
}

impl SummaryPrompt {
    /// Renders the full prompt text.
    pub fn render(&self) -> String {
        format!(
            "{}\n\nPlease summarize the above input. Please note that the above input is \
             incident diagnostic information. The summary results should be about 120 words, \
             no more than 140 words, and should cover important information as much as \
             possible. Just return the summary without any additional output.",
            self.diagnostic_info
        )
    }
}

/// One lettered option of the prediction prompt.
///
/// Fields are `Cow`s so the retrieval → prompt hot path can borrow the
/// historical entries' summaries and categories directly instead of
/// cloning one `String` pair per retrieved neighbor per prediction;
/// owned construction (tests, ad-hoc prompts) still works via `.into()`.
#[derive(Debug, Clone, PartialEq)]
pub struct PromptOption<'a> {
    /// Summarized diagnostic information of the historical incident.
    pub summary: Cow<'a, str>,
    /// Its labeled root cause category.
    pub category: Cow<'a, str>,
}

impl PromptOption<'_> {
    /// Detaches the option from whatever it borrows.
    pub fn into_owned(self) -> PromptOption<'static> {
        PromptOption {
            summary: Cow::Owned(self.summary.into_owned()),
            category: Cow::Owned(self.category.into_owned()),
        }
    }
}

/// The prediction prompt (paper Figure 9): the current incident plus top-K
/// historical demonstrations from distinct categories, with option A fixed
/// as "Unseen incident".
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionPrompt<'a> {
    /// Summarized diagnostic information of the incident being predicted.
    pub input: Cow<'a, str>,
    /// Demonstration options (B, C, ... in render order).
    pub options: Vec<PromptOption<'a>>,
    /// Degradation annotation injected when the collection stage ran
    /// with incomplete diagnostics (fault-injected telemetry). `None` on
    /// the fault-free path, which keeps the rendered prompt byte-for-byte
    /// identical to the historical format.
    pub degradation_note: Option<String>,
}

impl<'a> PredictionPrompt<'a> {
    /// Creates a prompt with no degradation annotation.
    pub fn new(input: impl Into<Cow<'a, str>>, options: Vec<PromptOption<'a>>) -> Self {
        PredictionPrompt {
            input: input.into(),
            options,
            degradation_note: None,
        }
    }

    /// Renders the full prompt text in the Figure 9 format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Context: The following description shows the error log information of an \
             incident. Please select the incident information that is most likely to have \
             the same root cause and give your explanation (just give one answer). If not, \
             please select the first item \"Unseen incident\".\n\n",
        );
        out.push_str("Input: ");
        out.push_str(&self.input);
        if let Some(note) = &self.degradation_note {
            out.push_str("\n\nData completeness warning: ");
            out.push_str(note);
        }
        out.push_str("\n\nOptions:\nA: Unseen incident.\n");
        for (i, opt) in self.options.iter().enumerate() {
            // Single letters cover the normal K <= 25 case; larger option
            // lists (possible before budget truncation) get numbered
            // labels instead of overflowing the alphabet.
            let label = if i < 25 {
                ((b'B' + i as u8) as char).to_string()
            } else {
                format!("Option{}", i + 1)
            };
            out.push_str(&format!(
                "{label}: {} category: {}.\n",
                opt.summary, opt.category
            ));
        }
        out
    }

    /// Counts prompt tokens with `tokenizer` (the tiktoken substitute).
    pub fn token_count(&self, tokenizer: &BpeTokenizer) -> usize {
        tokenizer.count_tokens(&self.render())
    }

    /// Drops trailing options until the prompt fits `budget` tokens.
    /// Returns the number of options removed.
    ///
    /// A prompt is encoded only when [`BpeTokenizer::token_upper_bound`]
    /// exceeds the budget: the bound never undercounts, so a prompt it
    /// fits also fits by exact count, and the options kept are the ones
    /// exact counting at every step would keep.
    pub fn truncate_to_budget(&mut self, tokenizer: &BpeTokenizer, budget: usize) -> usize {
        let mut dropped = 0;
        while self.options.len() > 1 {
            let text = self.render();
            if tokenizer.token_upper_bound(&text) <= budget
                || tokenizer.count_tokens(&text) <= budget
            {
                break;
            }
            self.options.pop();
            dropped += 1;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokenizer() -> BpeTokenizer {
        BpeTokenizer::train(
            &[
                "incident diagnostic summary category unseen option".to_string(),
                "udp socket exhausted probe failed".to_string(),
            ],
            300,
        )
    }

    fn prompt() -> PredictionPrompt<'static> {
        PredictionPrompt::new(
            "The probe has failed twice with a WinSock 11001 error.",
            vec![
                PromptOption {
                    summary: "The DatacenterHubOutboundProxyProbe has failed twice".into(),
                    category: "HubPortExhaustion".into(),
                },
                PromptOption {
                    summary: "There are 62 managed threads in process TransportDelivery".into(),
                    category: "AuthCertIssue".into(),
                },
            ],
        )
    }

    #[test]
    fn render_matches_figure9_shape() {
        let text = prompt().render();
        assert!(text.starts_with("Context:"));
        assert!(text.contains("give your explanation"));
        assert!(text.contains("A: Unseen incident."));
        assert!(text.contains("B: The DatacenterHubOutboundProxyProbe"));
        assert!(text.contains("category: HubPortExhaustion."));
        assert!(text.contains("C: There are 62 managed threads"));
    }

    #[test]
    fn degradation_note_renders_between_input_and_options() {
        let clean = prompt().render();
        assert!(!clean.contains("Data completeness warning"));
        let mut p = prompt();
        p.degradation_note =
            Some("1 of 3 diagnostic sections unavailable (sources: probes)".into());
        let text = p.render();
        let input = text.find("Input:").unwrap();
        let note = text.find("Data completeness warning: 1 of 3").unwrap();
        let options = text.find("Options:").unwrap();
        assert!(input < note && note < options);
    }

    #[test]
    fn summary_prompt_matches_figure7_wording() {
        let p = SummaryPrompt {
            diagnostic_info: "probe failed".into(),
        };
        let text = p.render();
        assert!(text.contains("about 120 words, no more than 140 words"));
        assert!(text.starts_with("probe failed"));
    }

    #[test]
    fn token_budget_truncation_drops_trailing_options() {
        let tok = tokenizer();
        let mut p = prompt();
        for i in 0..30 {
            p.options.push(PromptOption {
                summary: format!("padding incident summary number {i} with several words").into(),
                category: format!("Cat{i}").into(),
            });
        }
        let full = p.token_count(&tok);
        let dropped = p.truncate_to_budget(&tok, full / 2);
        assert!(dropped > 0);
        assert!(p.token_count(&tok) <= full / 2);
        assert!(!p.options.is_empty());
    }

    #[test]
    fn truncation_never_removes_last_option() {
        let tok = tokenizer();
        let mut p = prompt();
        p.options.truncate(1);
        let dropped = p.truncate_to_budget(&tok, 1);
        assert_eq!(dropped, 0);
        assert_eq!(p.options.len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The budget loop before the bound: encode the prompt at every step.
    fn truncate_by_exact_count(
        prompt: &mut PredictionPrompt<'_>,
        tokenizer: &BpeTokenizer,
        budget: usize,
    ) -> usize {
        let mut dropped = 0;
        while prompt.options.len() > 1 && prompt.token_count(tokenizer) > budget {
            prompt.options.pop();
            dropped += 1;
        }
        dropped
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn truncation_matches_exact_counting_on_both_sides_of_the_bound(
            input in "[a-zA-Z0-9 .,\u{3a3}\u{e9}]{0,60}",
            summaries in proptest::collection::vec("[a-zA-Z0-9 .\u{3a3}\u{e9}]{0,80}", 0..8),
            percent in 0usize..=130,
        ) {
            let tok = BpeTokenizer::train(
                &[
                    "incident diagnostic summary category unseen option".to_string(),
                    input.clone(),
                ],
                200,
            );
            let options: Vec<PromptOption<'static>> = summaries
                .iter()
                .enumerate()
                .map(|(i, s)| PromptOption {
                    summary: s.clone().into(),
                    category: format!("Cat{i}").into(),
                })
                .collect();
            let full = PredictionPrompt::new(input.clone(), options);
            let bound = tok.token_upper_bound(&full.render());
            // From far below the exact count, through the gap between
            // count and bound, to above the bound.
            let budget = bound * percent / 100;
            let (mut fast, mut exact) = (full.clone(), full);
            let dropped = fast.truncate_to_budget(&tok, budget);
            prop_assert_eq!(dropped, truncate_by_exact_count(&mut exact, &tok, budget));
            prop_assert_eq!(fast, exact);
        }
    }
}
