//! On-call incident reports — the notification RCACopilot sends OCEs.
//!
//! The deployed system notifies on-call engineers by email with the
//! predicted root cause, the explanation, the handler's mitigation
//! suggestions, and a feedback link (paper §5.5). This module renders
//! that artifact from the pipeline's outputs.

use crate::collection::CollectedIncident;
use crate::pipeline::RcaPrediction;
use rcacopilot_simcloud::Incident;
use serde::{Deserialize, Serialize};

/// A fully rendered on-call report for one incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnCallReport {
    /// Incident ticket id.
    pub incident_id: String,
    /// Alert headline (type, scope, severity).
    pub headline: String,
    /// Predicted category (or synthesized label for unseen incidents).
    pub predicted_category: String,
    /// True when the incident was declared unseen.
    pub unseen: bool,
    /// Prediction confidence.
    pub confidence: f64,
    /// Natural-language explanation.
    pub explanation: String,
    /// Summarized diagnostics shown inline.
    pub summary: String,
    /// Handler path that produced the diagnostics.
    pub handler_path: Vec<String>,
    /// Mitigation suggestions the handler reached.
    pub mitigations: Vec<String>,
    /// Categories of the retrieved historical demonstrations.
    pub similar_incidents: Vec<String>,
}

impl OnCallReport {
    /// Assembles a report from the pipeline's stage outputs.
    pub fn assemble(
        incident: &Incident,
        collected: &CollectedIncident,
        summary: &str,
        prediction: &RcaPrediction,
    ) -> Self {
        OnCallReport {
            incident_id: incident.alert.incident.to_string(),
            headline: format!(
                "{} ({}) on {}",
                incident.alert.alert_type, incident.alert.severity, incident.alert.scope
            ),
            predicted_category: prediction.label.clone(),
            unseen: prediction.unseen,
            confidence: prediction.confidence,
            explanation: prediction.explanation.clone(),
            summary: summary.to_string(),
            handler_path: collected.run.path.clone(),
            mitigations: collected.run.mitigations.clone(),
            similar_incidents: prediction.demo_categories.clone(),
        }
    }

    /// Renders the report as the notification text OCEs receive.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "RCACopilot report for {}\n{}\n\n",
            self.incident_id, self.headline
        ));
        if self.unseen {
            out.push_str(&format!(
                "PREDICTED ROOT CAUSE: {} (NEW CATEGORY — not seen before; please review)\n",
                self.predicted_category
            ));
        } else {
            out.push_str(&format!(
                "PREDICTED ROOT CAUSE: {} (confidence {:.2})\n",
                self.predicted_category, self.confidence
            ));
        }
        out.push_str(&format!("\nWhy: {}\n", self.explanation));
        out.push_str("\nSummarized diagnostics:\n");
        out.push_str(&self.summary);
        out.push('\n');
        if !self.mitigations.is_empty() {
            out.push_str("\nSuggested mitigations:\n");
            for m in &self.mitigations {
                out.push_str(&format!("  - {m}\n"));
            }
        }
        if !self.similar_incidents.is_empty() {
            out.push_str("\nSimilar historical incidents considered: ");
            out.push_str(&self.similar_incidents.join(", "));
            out.push('\n');
        }
        out.push_str("\nCollected by handler path: ");
        out.push_str(&self.handler_path.join(" -> "));
        out.push_str("\n\nWas this prediction helpful? Reply with feedback.\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcacopilot_handlers::HandlerRun;
    use rcacopilot_telemetry::alert::{Alert, AlertType, Severity};
    use rcacopilot_telemetry::ids::{ForestId, IncidentId, TenantId};
    use rcacopilot_telemetry::query::Scope;
    use rcacopilot_telemetry::time::SimTime;
    use rcacopilot_telemetry::TelemetrySnapshot;

    fn fixture() -> (Incident, CollectedIncident, RcaPrediction) {
        let incident = Incident {
            alert: Alert {
                incident: IncidentId(42),
                alert_type: AlertType::OutboundConnectionFailure,
                scope: Scope::Forest(ForestId(1)),
                severity: Severity::Sev2,
                tenant: TenantId::default(),
                raised_at: SimTime::from_days(10),
                monitor: "OutboundProxyMonitor".into(),
                message: "Outbound proxy connections failing.".into(),
            },
            category: "HubPortExhaustion".into(),
            first_of_category: false,
            snapshot: std::sync::Arc::new(TelemetrySnapshot::new(SimTime::from_days(10))),
        };
        let collected = CollectedIncident {
            alert_info: incident.alert_info(),
            run: HandlerRun {
                path: vec![
                    "Probe hub outbound proxy".into(),
                    "Count UDP sockets".into(),
                ],
                mitigations: vec!["Recycle the Transport service.".into()],
                ..HandlerRun::default()
            },
            known_issue: None,
        };
        let prediction = RcaPrediction {
            label: "HubPortExhaustion".into(),
            unseen: false,
            confidence: 0.82,
            explanation: "Matched on WinSock 11001 and the UDP socket table.".into(),
            demo_categories: vec!["HubPortExhaustion".into(), "DnsMisconfigMxRecord".into()],
            completeness: 1.0,
        };
        (incident, collected, prediction)
    }

    #[test]
    fn report_renders_all_sections() {
        let (incident, collected, prediction) = fixture();
        let report =
            OnCallReport::assemble(&incident, &collected, "UDP sockets exhausted.", &prediction);
        let text = report.render();
        assert!(text.contains("IcM000000042"));
        assert!(text.contains("PREDICTED ROOT CAUSE: HubPortExhaustion (confidence 0.82)"));
        assert!(text.contains("Recycle the Transport service."));
        assert!(text.contains("Probe hub outbound proxy -> Count UDP sockets"));
        assert!(text.contains(
            "Similar historical incidents considered: HubPortExhaustion, DnsMisconfigMxRecord"
        ));
        assert!(text.contains("feedback"));
    }

    #[test]
    fn unseen_reports_flag_new_categories() {
        let (incident, collected, mut prediction) = fixture();
        prediction.unseen = true;
        prediction.label = "I/O Bottleneck".into();
        let report = OnCallReport::assemble(&incident, &collected, "disk full", &prediction);
        let text = report.render();
        assert!(text.contains("NEW CATEGORY"));
        assert!(text.contains("I/O Bottleneck"));
        assert!(!text.contains("confidence 0.82"));
    }

    #[test]
    fn report_round_trips_serde() {
        let (incident, collected, prediction) = fixture();
        let report = OnCallReport::assemble(&incident, &collected, "s", &prediction);
        let json = serde_json::to_string(&report).unwrap();
        let back: OnCallReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
