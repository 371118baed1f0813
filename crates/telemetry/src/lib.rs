//! `cohesion-telemetry` — the workspace's telemetry plane.
//!
//! A keyed state store with typed tokens and bounded-queue broadcast:
//!
//! * [`Key<T>`] — a static typed token per metric ([`keys`] holds the
//!   standard table: positions digest, violation counts, convergence
//!   diameter, events/sec, cell progress, checkpoint cadence).
//! * [`StateStore`] — writers [`publish`](StateStore::publish), any
//!   number of [`Subscription`]s receive ordered [`StateUpdate`]s through
//!   bounded queues with explicit drop accounting. A slow subscriber
//!   loses updates; it never blocks a publisher — which is what makes it
//!   safe to attach to a determinism-pinned simulation.
//! * [`StoreObserver`] — the engine adapter: attach to any `Simulation`
//!   session and its monitor/progress stream lands in a store.
//!
//! The bench layer builds on this: the `lab serve` coordinator is the one
//! publisher of `progress/*`, turning every shard's `Heartbeat` frames into
//! updates in one store, and re-broadcasts it over the framed-TCP protocol
//! (`Subscribe`/`StateUpdate`, protocol v3); `lab watch` renders it live. See the README "Telemetry" section for the wire format.
//!
//! Determinism posture: this crate never reads a clock and never touches
//! the simulation it observes; all shared state funnels through the one
//! audited concurrency module ([`sync`]). Row bytes are identical with
//! zero or many subscribers attached — pinned by tests in
//! `crates/bench/tests/watch.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod keys;
pub mod observer;
pub mod store;
pub mod sync;

pub use keys::{Key, Metric, TelemetryValue};
pub use observer::{StoreObserver, DEFAULT_PUBLISH_EVERY};
pub use store::{Drain, StateStore, StateUpdate, Subscription, DEFAULT_QUEUE_CAPACITY};
