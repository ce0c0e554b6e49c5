//! New-category label synthesis for unseen incidents.
//!
//! When the model picks option A ("Unseen incident"), the paper has it
//! "generate a new category keyword to depict the new incident case" —
//! e.g. a never-seen full-disk incident became "I/O Bottleneck"
//! (Figure 11), close to but not identical with the OCE's later "FullDisk"
//! label. This module reproduces that behaviour: a keyword-driven naming
//! heuristic over the incident summary.

use std::collections::BTreeSet;

/// Keyword → label rules, checked in order.
const RULES: &[(&[&str], &str)] = &[
    (
        &["IOException", "not enough space", "disk"],
        "I/O Bottleneck",
    ),
    (
        &["OutOfMemory", "memory pressure", "private bytes"],
        "Memory Exhaustion",
    ),
    (&["WinSock", "socket count", "ports"], "Socket Exhaustion"),
    (&["NXDOMAIN", "DnsRecord", "DNS"], "DNS Resolution Failure"),
    (&["certificate", "Certificate"], "Certificate Issue"),
    (&["TLS", "handshake"], "TLS Negotiation Failure"),
    (
        &["TaskCanceled", "Timeout", "deadline"],
        "Dependency Timeout",
    ),
    (&["queue", "queued"], "Queue Backlog"),
    (&["Poison", "poisoned"], "Poison Message"),
    (&["throttl", "Throttling"], "Throttling Anomaly"),
    (&["crash", "AccessViolation"], "Process Crash"),
    (
        &["Serialization", "exploit", "malicious"],
        "Security Exploit",
    ),
    (&["thread", "BLOCKED"], "Thread Starvation"),
    (&["latency"], "Latency Degradation"),
    (&["connection"], "Connection Anomaly"),
];

/// Extracts CamelCase identifiers (exception/class/service names) from
/// text, longest first.
pub fn camelcase_entities(text: &str) -> Vec<String> {
    let mut set: BTreeSet<String> = BTreeSet::new();
    for tok in text.split(|c: char| !c.is_ascii_alphanumeric()) {
        if is_camelcase_entity(tok) {
            set.insert(tok.to_string());
        }
    }
    let mut out: Vec<String> = set.into_iter().collect();
    out.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    out
}

/// True if `tok`, an alphanumeric run, is a CamelCase identifier: at
/// least eight characters, starting uppercase, with another uppercase
/// letter, a lowercase letter and no digit.
pub(crate) fn is_camelcase_entity(tok: &str) -> bool {
    tok.len() >= 8
        && tok.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && tok.chars().skip(1).any(|c| c.is_ascii_uppercase())
        && tok.chars().any(|c| c.is_ascii_lowercase())
        && !tok.chars().any(|c| c.is_ascii_digit())
}

/// Synthesizes a human-readable category label for an unseen incident.
pub fn synthesize_label(summary: &str) -> String {
    for (keywords, label) in RULES {
        if keywords.iter().any(|k| summary.contains(k)) {
            return (*label).to_string();
        }
    }
    // Fallback: derive from the most prominent CamelCase entity.
    if let Some(entity) = camelcase_entities(summary).into_iter().next() {
        let stem = entity
            .trim_end_matches("Exception")
            .trim_end_matches("Error");
        return format!("{stem} Issue");
    }
    "Unclassified Incident".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_style_io_bottleneck() {
        let summary = "System.IO.IOException within crucial functions handling input/output \
                       operations; crashes on different backend machines";
        assert_eq!(synthesize_label(summary), "I/O Bottleneck");
    }

    #[test]
    fn socket_and_dns_rules_fire() {
        assert_eq!(
            synthesize_label("WinSock error 11001 total UDP socket count 15276"),
            "Socket Exhaustion"
        );
        assert_eq!(
            synthesize_label("DnsRecordMissingException lookup returned NXDOMAIN"),
            "DNS Resolution Failure"
        );
    }

    #[test]
    fn fallback_uses_camelcase_entity() {
        let label = synthesize_label("ZorbFluxCapacitorException observed repeatedly");
        assert_eq!(label, "ZorbFluxCapacitor Issue");
    }

    #[test]
    fn no_signal_gives_unclassified() {
        assert_eq!(synthesize_label("all good here"), "Unclassified Incident");
        assert_eq!(synthesize_label(""), "Unclassified Incident");
    }

    #[test]
    fn camelcase_extraction_filters_noise() {
        let ents = camelcase_entities(
            "TenantSettingsNotFoundException at AuthClient.GetTokenAsync in NAMPR03MB0001",
        );
        assert!(ents.contains(&"TenantSettingsNotFoundException".to_string()));
        assert!(ents.contains(&"GetTokenAsync".to_string()));
        // Machine names contain digits and are excluded.
        assert!(!ents.iter().any(|e| e.contains("NAMPR")));
        // Longest first.
        assert_eq!(ents[0], "TenantSettingsNotFoundException");
    }
}
