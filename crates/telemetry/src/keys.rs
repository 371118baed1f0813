//! Typed metric tokens: `Key<T>` names one metric and pins its value type.
//!
//! A [`Key`] is a zero-sized-ish static token (`&'static str` name plus a
//! phantom type). Writers go through
//! [`StateStore::publish`](crate::StateStore::publish), which only accepts
//! the key's declared `T` — publishing a diameter as a `u64` or an event
//! count as text is a type error, not a runtime surprise. On the wire and
//! in the store every value is a [`TelemetryValue`]; the [`Metric`] trait
//! is the (total) conversion between the two.
//!
//! The standard token table lives here too: everything the engine
//! [`StoreObserver`](crate::StoreObserver) and the lab's progress path
//! publish. Per-shard metrics are published *scoped* — the same token under
//! a `"<experiment>/<shard>"` prefix
//! ([`StateStore::publish_scoped`](crate::StateStore::publish_scoped)) —
//! so one coordinator store aggregates a whole fleet without key
//! collisions.

use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

/// A dynamically-typed metric value — what the store holds and the wire
/// carries. Externally tagged on the wire (`{"F64":0.5}`, `{"U64":3}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryValue {
    /// Counters, digests, cadences.
    U64(u64),
    /// Diameters, simulated time, rates.
    F64(f64),
    /// Flags (cohesion-so-far, converged).
    Bool(bool),
    /// Phases, tags, labels.
    Text(String),
}

impl TelemetryValue {
    /// A short tag naming the variant (for diagnostics and rendering).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryValue::U64(_) => "u64",
            TelemetryValue::F64(_) => "f64",
            TelemetryValue::Bool(_) => "bool",
            TelemetryValue::Text(_) => "text",
        }
    }
}

/// A Rust type that can be published under a [`Key`] and read back.
pub trait Metric {
    /// Wraps the value for the store.
    fn into_value(self) -> TelemetryValue;
    /// Reads the value back, `None` on a variant mismatch.
    fn from_value(value: &TelemetryValue) -> Option<Self>
    where
        Self: Sized;
}

impl Metric for u64 {
    fn into_value(self) -> TelemetryValue {
        TelemetryValue::U64(self)
    }
    fn from_value(value: &TelemetryValue) -> Option<u64> {
        match value {
            TelemetryValue::U64(v) => Some(*v),
            _ => None,
        }
    }
}

impl Metric for f64 {
    fn into_value(self) -> TelemetryValue {
        TelemetryValue::F64(self)
    }
    fn from_value(value: &TelemetryValue) -> Option<f64> {
        match value {
            TelemetryValue::F64(v) => Some(*v),
            _ => None,
        }
    }
}

impl Metric for bool {
    fn into_value(self) -> TelemetryValue {
        TelemetryValue::Bool(self)
    }
    fn from_value(value: &TelemetryValue) -> Option<bool> {
        match value {
            TelemetryValue::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

impl Metric for String {
    fn into_value(self) -> TelemetryValue {
        TelemetryValue::Text(self)
    }
    fn from_value(value: &TelemetryValue) -> Option<String> {
        match value {
            TelemetryValue::Text(v) => Some(v.clone()),
            _ => None,
        }
    }
}

/// A typed metric token: a static name plus the value type writers must
/// publish and readers get back. Construct the standard ones from the
/// table below; ad-hoc tokens via [`Key::new`] in a `const`.
pub struct Key<T> {
    name: &'static str,
    _marker: PhantomData<fn() -> T>,
}

// Derived impls would put bounds on `T`; hand-written ones keep `Key<T>`
// copyable for every `T`.
impl<T> Clone for Key<T> {
    fn clone(&self) -> Key<T> {
        *self
    }
}
impl<T> Copy for Key<T> {}

impl<T> std::fmt::Debug for Key<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Key").field(&self.name).finish()
    }
}

impl<T> Key<T> {
    /// A token for `name`. `const` so tokens live in tables.
    #[must_use]
    pub const fn new(name: &'static str) -> Key<T> {
        Key {
            name,
            _marker: PhantomData,
        }
    }

    /// The key's store name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

// ---------------------------------------------------------------------------
// The standard token table
// ---------------------------------------------------------------------------

/// FNV-1a digest over every robot's position bits — two runs in the same
/// state publish the same digest, so divergence is visible live.
pub const POSITIONS_DIGEST: Key<u64> = Key::new("engine/positions_digest");

/// Cohesion violations recorded so far by the observed session.
pub const VIOLATIONS: Key<u64> = Key::new("engine/violations");

/// Configuration diameter at the latest round boundary or sample.
pub const DIAMETER: Key<f64> = Key::new("engine/diameter");

/// Engine events processed by the observed session.
pub const EVENTS: Key<u64> = Key::new("engine/events");

/// Completed rounds of the observed session.
pub const ROUNDS: Key<u64> = Key::new("engine/rounds");

/// Simulated time of the observed session.
pub const SIM_TIME: Key<f64> = Key::new("engine/time");

/// Observed event throughput (published by timing-approved layers only —
/// the store itself never reads a clock).
pub const EVENTS_PER_SEC: Key<f64> = Key::new("lab/events_per_sec");

/// Mid-cell checkpoint cadence, in engine events.
pub const CHECKPOINT_EVENTS: Key<u64> = Key::new("lab/checkpoint_events");

/// Grid cell a progress record speaks for (absolute, unsharded index).
pub const CELL: Key<u64> = Key::new("progress/cell");

/// Progress phase: `"start"`, `"heartbeat"`, or `"done"`.
pub const CELL_PHASE: Key<String> = Key::new("progress/phase");

/// The cell's experiment-local tag.
pub const CELL_TAG: Key<String> = Key::new("progress/tag");

/// Events processed so far in the reporting cell.
pub const CELL_EVENTS: Key<u64> = Key::new("progress/events");

/// Rounds completed so far in the reporting cell.
pub const CELL_ROUNDS: Key<u64> = Key::new("progress/rounds");

/// Simulated time so far in the reporting cell.
pub const CELL_TIME: Key<f64> = Key::new("progress/time");

/// Configuration diameter at the record.
pub const CELL_DIAMETER: Key<f64> = Key::new("progress/diameter");

/// Cohesion-so-far of the reporting cell.
pub const CELL_COHESION_OK: Key<bool> = Key::new("progress/cohesion_ok");

/// Whether the reporting cell has converged.
pub const CELL_CONVERGED: Key<bool> = Key::new("progress/converged");

/// Rows the cell reduced to (`done` records only).
pub const CELL_ROWS: Key<u64> = Key::new("progress/rows");

/// Shards queued by a `lab serve` run.
pub const SHARDS_TOTAL: Key<u64> = Key::new("serve/shards_total");

/// Shards completed so far.
pub const SHARDS_DONE: Key<u64> = Key::new("serve/shards_done");

/// Shards lost to dead workers and requeued.
pub const REASSIGNMENTS: Key<u64> = Key::new("serve/reassignments");

/// Workers that completed the handshake.
pub const WORKERS: Key<u64> = Key::new("serve/workers");

/// Rows received across all completed shards.
pub const ROWS_TOTAL: Key<u64> = Key::new("serve/rows_total");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_conversions_round_trip() {
        assert_eq!(u64::from_value(&7u64.into_value()), Some(7));
        assert_eq!(f64::from_value(&0.125f64.into_value()), Some(0.125));
        assert_eq!(bool::from_value(&true.into_value()), Some(true));
        assert_eq!(
            String::from_value(&String::from("done").into_value()),
            Some("done".into())
        );
        // Variant mismatches read back as None, never a panic.
        assert_eq!(u64::from_value(&TelemetryValue::F64(1.0)), None);
        assert_eq!(f64::from_value(&TelemetryValue::Text("x".into())), None);
    }

    #[test]
    fn keys_are_copyable_tokens() {
        let k = DIAMETER;
        let k2 = k; // Copy
        assert_eq!(k.name(), k2.name());
        assert_eq!(format!("{k:?}"), "Key(\"engine/diameter\")");
    }
}
