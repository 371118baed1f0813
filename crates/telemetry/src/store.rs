//! The keyed state store: publish typed values, broadcast ordered updates.
//!
//! One [`StateStore`] serves any number of writers and subscribers.
//! Writers call [`StateStore::publish`] with a typed [`Key`]; every
//! publish is stamped with a store-global sequence number and fanned out
//! to all live subscriptions. Each subscription owns a **bounded** queue:
//! when a subscriber falls behind, the oldest queued updates are dropped
//! and counted — the publisher never blocks and never allocates beyond
//! the fixed capacity. That is the load-bearing guarantee: telemetry can
//! be attached to a determinism-pinned simulation because a slow (or
//! stalled, or dead) dashboard cannot exert backpressure on it.
//!
//! Subscribers poll ([`Subscription::poll`]); there is no condition
//! variable or channel, so the store's only concurrency primitive is the
//! [`Guarded`] mutex in [`crate::sync`]. Polling fits both consumers we
//! have — the coordinator's watcher threads pace on their socket-read
//! timeout, and in-process tests pace on their own assertions.
//!
//! A subscription attached mid-run first receives a snapshot of the
//! latest value per key (in key order, original sequence stamps), then
//! live updates — so `lab watch` joining a billion-event run at hour
//! three starts from current state, not from nothing.

use crate::keys::{Key, Metric, TelemetryValue};
use crate::sync::Guarded;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Default per-subscription queue capacity, in updates.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

/// One published value: a store-global sequence stamp, the key it was
/// published under, and the value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateUpdate {
    /// Store-global publish sequence, strictly increasing. Two updates to
    /// the same key always reach a subscriber in `seq` order; gaps mean
    /// updates were dropped (or published before this subscriber attached).
    pub seq: u64,
    /// Full key name, e.g. `"k_scaling/0of2/progress/events"`.
    pub key: String,
    /// The published value.
    pub value: TelemetryValue,
}

/// What one [`Subscription::poll`] call drained.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Drain {
    /// Updates in publish order (per key and globally).
    pub updates: Vec<StateUpdate>,
    /// Updates this subscription lost to queue overflow since the last
    /// poll. Explicit drop accounting: consumers always know whether the
    /// stream they saw was complete.
    pub dropped: u64,
}

struct SubQueue {
    queue: VecDeque<StateUpdate>,
    capacity: usize,
    dropped: u64,
}

impl SubQueue {
    fn push(&mut self, update: StateUpdate) {
        if self.queue.len() == self.capacity {
            self.queue.pop_front();
            self.dropped += 1;
        }
        self.queue.push_back(update);
    }
}

#[derive(Default)]
struct Inner {
    seq: u64,
    latest: BTreeMap<String, StateUpdate>,
    subs: BTreeMap<u64, SubQueue>,
    next_sub: u64,
}

/// The keyed state store. Cheap to share (`Arc`), safe to publish into
/// from any thread, and incapable of blocking its writers on its readers.
#[derive(Default)]
pub struct StateStore {
    inner: Guarded<Inner>,
}

impl StateStore {
    /// An empty store behind an [`Arc`], ready to share with publishers
    /// and subscribers.
    #[must_use]
    pub fn new() -> Arc<StateStore> {
        Arc::new(StateStore::default())
    }

    /// Publishes `value` under the typed `key`.
    pub fn publish<T: Metric>(&self, key: Key<T>, value: T) {
        self.publish_raw(key.name().to_string(), value.into_value());
    }

    /// Publishes under `"{scope}/{key}"` — how per-shard metrics share
    /// one coordinator store without colliding.
    pub fn publish_scoped<T: Metric>(&self, scope: &str, key: Key<T>, value: T) {
        self.publish_raw(format!("{scope}/{}", key.name()), value.into_value());
    }

    /// Publishes an already-wrapped value under a dynamic key name. The
    /// typed entry points delegate here; re-broadcast paths (coordinator
    /// mirroring a worker's updates) use it directly.
    pub fn publish_raw(&self, key: String, value: TelemetryValue) {
        self.inner.with(|inner| {
            inner.seq += 1;
            let update = StateUpdate {
                seq: inner.seq,
                key,
                value,
            };
            for sub in inner.subs.values_mut() {
                sub.push(update.clone());
            }
            inner.latest.insert(update.key.clone(), update);
        });
    }

    /// Reads the latest value published under `key`, if any (and if the
    /// stored variant matches the key's type).
    #[must_use]
    pub fn get<T: Metric>(&self, key: Key<T>) -> Option<T> {
        self.get_raw(key.name())
            .and_then(|update| T::from_value(&update.value))
    }

    /// Reads the latest update for a dynamic key name.
    #[must_use]
    pub fn get_raw(&self, key: &str) -> Option<StateUpdate> {
        self.inner.with(|inner| inner.latest.get(key).cloned())
    }

    /// The latest update per key, in key order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<StateUpdate> {
        self.inner
            .with(|inner| inner.latest.values().cloned().collect())
    }

    /// Attaches a subscriber with the given queue capacity. The queue is
    /// seeded with a snapshot of the latest value per key (key order,
    /// original stamps), so mid-run attachers start from current state.
    /// Snapshot entries beyond `capacity` count as dropped, like any
    /// other overflow.
    #[must_use]
    pub fn subscribe(self: &Arc<Self>, capacity: usize) -> Subscription {
        let capacity = capacity.max(1);
        let id = self.inner.with(|inner| {
            let id = inner.next_sub;
            inner.next_sub += 1;
            let mut sub = SubQueue {
                queue: VecDeque::with_capacity(capacity),
                capacity,
                dropped: 0,
            };
            // Seed in seq order, not key order: every update a subscriber
            // ever sees then has a strictly larger seq than the one before
            // it, snapshot included.
            let mut seed: Vec<StateUpdate> = inner.latest.values().cloned().collect();
            seed.sort_by_key(|u| u.seq);
            for update in seed {
                sub.push(update);
            }
            inner.subs.insert(id, sub);
            id
        });
        Subscription {
            store: Arc::clone(self),
            id,
        }
    }

    /// Live subscriptions right now.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.inner.with(|inner| inner.subs.len())
    }

    fn drain(&self, id: u64) -> Drain {
        self.inner.with(|inner| match inner.subs.get_mut(&id) {
            Some(sub) => Drain {
                updates: sub.queue.drain(..).collect(),
                dropped: std::mem::take(&mut sub.dropped),
            },
            None => Drain::default(),
        })
    }

    fn detach(&self, id: u64) {
        self.inner.with(|inner| {
            inner.subs.remove(&id);
        });
    }
}

/// A live subscription. Dropping it detaches from the store; a detached
/// subscriber costs publishers nothing.
pub struct Subscription {
    store: Arc<StateStore>,
    id: u64,
}

impl Subscription {
    /// Drains everything queued since the last poll, plus the count of
    /// updates lost to overflow in that window. Never blocks.
    #[must_use]
    pub fn poll(&self) -> Drain {
        self.store.drain(self.id)
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.store.detach(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;

    #[test]
    fn publish_fans_out_in_order() {
        let store = StateStore::new();
        let sub = store.subscribe(16);
        store.publish(keys::EVENTS, 1);
        store.publish(keys::DIAMETER, 0.5);
        store.publish(keys::EVENTS, 2);
        let drain = sub.poll();
        assert_eq!(drain.dropped, 0);
        let seqs: Vec<u64> = drain.updates.iter().map(|u| u.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        let events: Vec<&StateUpdate> = drain
            .updates
            .iter()
            .filter(|u| u.key == keys::EVENTS.name())
            .collect();
        assert_eq!(events.len(), 2);
        assert!(events[0].seq < events[1].seq);
        assert_eq!(store.get(keys::EVENTS), Some(2));
    }

    #[test]
    fn late_subscriber_snapshot_is_seq_ordered() {
        let store = StateStore::new();
        // Publish so that key order (BTreeMap) disagrees with seq order:
        // "progress/cell" sorts after "engine/events" but is older.
        store.publish(keys::CELL, 0u64);
        store.publish(keys::DIAMETER, 2.0);
        store.publish(keys::EVENTS, 7);
        store.publish(keys::DIAMETER, 1.5); // supersedes seq 2
        let sub = store.subscribe(16);
        let drain = sub.poll();
        assert_eq!(drain.dropped, 0);
        let seqs: Vec<u64> = drain.updates.iter().map(|u| u.seq).collect();
        assert_eq!(seqs, vec![1, 3, 4], "latest-per-key, in seq order");
        store.publish(keys::EVENTS, 8);
        assert_eq!(sub.poll().updates.first().map(|u| u.seq), Some(5));
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let store = StateStore::new();
        let sub = store.subscribe(4);
        for i in 0..10u64 {
            store.publish(keys::EVENTS, i);
        }
        let drain = sub.poll();
        assert_eq!(drain.dropped, 6);
        assert_eq!(drain.updates.len(), 4);
        // The survivors are the newest four, still in order.
        let vals: Vec<Option<u64>> = drain
            .updates
            .iter()
            .map(|u| Metric::from_value(&u.value))
            .collect();
        assert_eq!(vals, vec![Some(6), Some(7), Some(8), Some(9)]);
        // Drop accounting resets after the poll that reported it.
        assert_eq!(sub.poll().dropped, 0);
    }

    #[test]
    fn mid_run_attach_seeds_latest_per_key() {
        let store = StateStore::new();
        store.publish(keys::EVENTS, 1);
        store.publish(keys::EVENTS, 2);
        store.publish(keys::DIAMETER, 0.25);
        let sub = store.subscribe(16);
        let drain = sub.poll();
        // One entry per key — the latest — not the full history.
        assert_eq!(drain.updates.len(), 2);
        assert_eq!(drain.dropped, 0);
        // Seq order, not key order — events (seq 2) precedes diameter
        // (seq 3) even though "engine/diameter" sorts first.
        let keys_seen: Vec<&str> = drain.updates.iter().map(|u| u.key.as_str()).collect();
        assert_eq!(keys_seen, vec![keys::EVENTS.name(), keys::DIAMETER.name()]);
    }

    #[test]
    fn drop_detaches() {
        let store = StateStore::new();
        let sub = store.subscribe(4);
        assert_eq!(store.subscriber_count(), 1);
        drop(sub);
        assert_eq!(store.subscriber_count(), 0);
        // Publishing to a store with no subscribers is fine and cheap.
        store.publish(keys::EVENTS, 1);
    }

    #[test]
    fn scoped_publish_prefixes_key() {
        let store = StateStore::new();
        store.publish_scoped("k_scaling/0of2", keys::CELL_EVENTS, 42);
        let update = store
            .get_raw("k_scaling/0of2/progress/events")
            .expect("scoped key present");
        assert_eq!(update.value, TelemetryValue::U64(42));
    }
}
