//! The incident record produced by the fault-injection campaign.

use rcacopilot_telemetry::alert::Alert;
use rcacopilot_telemetry::time::SimTime;
use rcacopilot_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One cloud incident: the alert, the telemetry around it, and the
/// ground-truth root-cause category assigned post-investigation by OCEs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Incident {
    /// The triggering alert (carries id, type, scope, severity, time).
    pub alert: Alert,
    /// Ground-truth root-cause category label.
    pub category: String,
    /// True if this is the first incident of its category in the year —
    /// a "new root cause" in the sense of the paper's Figure 3.
    pub first_of_category: bool,
    /// Telemetry visible to handlers for this incident. Shared: replays,
    /// storm re-raises and tenant copies of an incident clone the pointer,
    /// not the telemetry, which nothing mutates after generation.
    pub snapshot: Arc<TelemetrySnapshot>,
}

impl Incident {
    /// When the incident occurred (the alert time).
    pub fn occurred_at(&self) -> SimTime {
        self.alert.raised_at
    }

    /// The "AlertInfo" context of the paper's Table 3: alert type + scope
    /// (+ severity), without any collected diagnostics.
    pub fn alert_info(&self) -> String {
        format!(
            "Alert type: {}. Alert scope: {}. Severity: {}. {}",
            self.alert.alert_type, self.alert.scope, self.alert.severity, self.alert.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcacopilot_telemetry::alert::{AlertType, Severity};
    use rcacopilot_telemetry::ids::{ForestId, IncidentId, TenantId};
    use rcacopilot_telemetry::query::Scope;

    #[test]
    fn alert_info_mentions_type_scope_severity() {
        let inc = Incident {
            alert: Alert {
                incident: IncidentId(1),
                alert_type: AlertType::ResourcePressure,
                scope: Scope::Forest(ForestId(0)),
                severity: Severity::Sev3,
                tenant: TenantId::default(),
                raised_at: SimTime::from_days(3),
                monitor: "ResourceMonitor".into(),
                message: "Memory pressure sustained.".into(),
            },
            category: "MemoryLeakTransport".into(),
            first_of_category: true,
            snapshot: Arc::new(TelemetrySnapshot::new(SimTime::from_days(3))),
        };
        let info = inc.alert_info();
        assert!(info.contains("ResourcePressure"));
        assert!(info.contains("forest NAMPR00"));
        assert!(info.contains("Sev3"));
        assert_eq!(inc.occurred_at(), SimTime::from_days(3));
    }
}
