//! The versioned handler store.
//!
//! The paper keeps handlers in a database behind a web UI; OCEs add new
//! versions as the system evolves, and old versions remain queryable
//! ("we also maintain the versions of the handlers in the database",
//! §4.1.1). This registry keeps every version in memory, guarded by a
//! [`std::sync::RwLock`] so the collection stage can serve concurrent
//! incidents, and serializes to JSON for persistence. Every update leaves
//! the map valid, so a lock poisoned by a panicking holder is recovered,
//! not propagated.

use crate::handler::{Handler, HandlerError};
use rcacopilot_telemetry::alert::AlertType;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock};

/// Serializable snapshot of the registry contents.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct RegistryData {
    /// Alert type name → all versions, oldest first.
    handlers: BTreeMap<String, Vec<Handler>>,
}

/// Thread-safe, versioned handler registry.
#[derive(Debug, Default)]
pub struct HandlerRegistry {
    data: RwLock<RegistryData>,
}

impl HandlerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        HandlerRegistry::default()
    }

    /// Registers a new version of the handler for its alert type.
    ///
    /// The handler is validated first; its `version` field is overwritten
    /// with the next version number. Returns the assigned version.
    pub fn register(&self, mut handler: Handler) -> Result<u32, HandlerError> {
        handler.validate()?;
        let mut data = self.data.write().unwrap_or_else(PoisonError::into_inner);
        let versions = data
            .handlers
            .entry(handler.alert_type.name().to_string())
            .or_default();
        let version = versions.len() as u32;
        handler.version = version;
        versions.push(handler);
        Ok(version)
    }

    /// The current (latest) handler for `alert_type`, if any.
    pub fn current(&self, alert_type: AlertType) -> Option<Handler> {
        self.data
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .handlers
            .get(alert_type.name())
            .and_then(|v| v.last().cloned())
    }

    /// A specific historical version.
    pub fn version(&self, alert_type: AlertType, version: u32) -> Option<Handler> {
        self.data
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .handlers
            .get(alert_type.name())
            .and_then(|v| v.get(version as usize).cloned())
    }

    /// Number of versions stored for `alert_type`.
    pub fn version_count(&self, alert_type: AlertType) -> usize {
        self.data
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .handlers
            .get(alert_type.name())
            .map_or(0, Vec::len)
    }

    /// Alert types with at least one handler.
    pub fn alert_types(&self) -> Vec<AlertType> {
        self.data
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .handlers
            .keys()
            .filter_map(|k| AlertType::parse(k))
            .collect()
    }

    /// Total number of enabled (latest-version) handlers.
    pub fn enabled_count(&self) -> usize {
        self.data
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .handlers
            .len()
    }

    /// Serializes the full registry (all versions) to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&*self.data.read().unwrap_or_else(PoisonError::into_inner))
            .expect("registry serializes")
    }

    /// Restores a registry from [`HandlerRegistry::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let data: RegistryData = serde_json::from_str(json)?;
        Ok(HandlerRegistry {
            data: RwLock::new(data),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionNode};

    fn handler(alert_type: AlertType, note: &str) -> Handler {
        let mut h = Handler::new(
            alert_type,
            vec![ActionNode::new(
                0,
                "Mitigate",
                Action::Mitigate {
                    suggestion: note.to_string(),
                },
            )],
        );
        h.note = note.to_string();
        h
    }

    #[test]
    fn register_assigns_monotonic_versions() {
        let reg = HandlerRegistry::new();
        let v0 = reg
            .register(handler(AlertType::PoisonedMessage, "first"))
            .unwrap();
        let v1 = reg
            .register(handler(AlertType::PoisonedMessage, "second"))
            .unwrap();
        assert_eq!((v0, v1), (0, 1));
        assert_eq!(reg.version_count(AlertType::PoisonedMessage), 2);
        assert_eq!(
            reg.current(AlertType::PoisonedMessage).unwrap().note,
            "second"
        );
        assert_eq!(
            reg.version(AlertType::PoisonedMessage, 0).unwrap().note,
            "first"
        );
    }

    #[test]
    fn invalid_handlers_are_rejected() {
        let reg = HandlerRegistry::new();
        let empty = Handler::new(AlertType::ResourcePressure, vec![]);
        assert!(reg.register(empty).is_err());
        assert_eq!(reg.version_count(AlertType::ResourcePressure), 0);
    }

    #[test]
    fn missing_handler_returns_none() {
        let reg = HandlerRegistry::new();
        assert!(reg.current(AlertType::DeliveryLatencyHigh).is_none());
        assert!(reg.version(AlertType::DeliveryLatencyHigh, 0).is_none());
    }

    #[test]
    fn json_round_trip_preserves_versions() {
        let reg = HandlerRegistry::new();
        reg.register(handler(AlertType::PoisonedMessage, "a"))
            .unwrap();
        reg.register(handler(AlertType::PoisonedMessage, "b"))
            .unwrap();
        reg.register(handler(AlertType::ResourcePressure, "c"))
            .unwrap();
        let json = reg.to_json();
        let back = HandlerRegistry::from_json(&json).unwrap();
        assert_eq!(back.version_count(AlertType::PoisonedMessage), 2);
        assert_eq!(back.enabled_count(), 2);
        assert_eq!(back.current(AlertType::ResourcePressure).unwrap().note, "c");
    }

    #[test]
    fn alert_types_lists_registered() {
        let reg = HandlerRegistry::new();
        reg.register(handler(AlertType::PoisonedMessage, "a"))
            .unwrap();
        reg.register(handler(AlertType::AvailabilityDrop, "b"))
            .unwrap();
        let mut types = reg.alert_types();
        types.sort();
        assert_eq!(
            types,
            vec![AlertType::AvailabilityDrop, AlertType::PoisonedMessage]
        );
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = std::sync::Arc::new(HandlerRegistry::new());
        let mut joins = Vec::new();
        for i in 0..8 {
            let reg = reg.clone();
            joins.push(std::thread::spawn(move || {
                reg.register(handler(AlertType::PoisonedMessage, &format!("v{i}")))
                    .unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(reg.version_count(AlertType::PoisonedMessage), 8);
    }
}
