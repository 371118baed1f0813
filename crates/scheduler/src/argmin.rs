//! An indexed min-tracker for the asynchronous generators' fairness scan.
//!
//! The Async and *k*-Async schedulers activate *the robot that has been free
//! the longest*: `argmin` over a per-robot `next_free` array, ties broken
//! toward the lowest index (the semantics of `Iterator::min_by`, which
//! returns the first minimal element). The historical implementation was a
//! linear scan — `O(n)` per activation, the single largest cost of unbounded
//! Async scheduling at large `n` (≈ 27 µs per activation at `n = 16384`).
//!
//! [`ArgMin`] is a two-level blocked structure over the same values: the
//! keys sit in `√n`-sized contiguous blocks, each block caches its minimum
//! (value and first minimal index), and a query scans the block summaries.
//! Updates rescan one block, queries scan the summary row — both `O(√n)` of
//! *contiguous* memory, which on the scheduler's every-activation cadence
//! matches an `O(log n)` tree at small `n` and wins at large `n`: the scans
//! stream and prefetch where a root-to-leaf walk serializes on scattered
//! dependent loads, and the structure is two flat arrays. Every
//! comparison keeps the earlier candidate on exact ties (strict `<` to
//! replace), so the selection is *identical* to the historical scan for
//! every possible value history, including the all-zeros start where every
//! index ties. Swapping implementations therefore changes no emitted
//! interval and no RNG draw; the engine equivalence suites pin this end to
//! end.

use serde::__private::Value;
use serde::{Deserialize, Serialize};

/// A fixed-size array of `f64` keys supporting `O(√n)` point updates and
/// `O(√n)` "index of the minimum" queries, with first-index tie-breaking.
///
/// Checkpointed as its key array; decoding rebuilds the block summaries.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArgMin {
    /// Number of live keys.
    n: usize,
    /// Block edge (≈ `√n`).
    block: usize,
    /// The keys, dense.
    values: Vec<f64>,
    /// Per block: the block's minimal key.
    summary_value: Vec<f64>,
    /// Per block: the first index attaining that minimum.
    summary_index: Vec<u32>,
}

impl ArgMin {
    /// A tracker of `n` keys, all starting at `initial`.
    pub(crate) fn new(n: usize, initial: f64) -> Self {
        assert!(n > 0, "ArgMin needs at least one key");
        assert!(
            !initial.is_nan(),
            "ArgMin keys must be comparable (non-NaN)"
        );
        let block = (n as f64).sqrt().ceil() as usize;
        let blocks = n.div_ceil(block);
        ArgMin {
            n,
            block,
            values: vec![initial; n],
            summary_value: vec![initial; blocks],
            summary_index: (0..blocks).map(|b| (b * block) as u32).collect(),
        }
    }

    /// Number of tracked keys.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The current key of index `i`.
    pub(crate) fn get(&self, i: usize) -> f64 {
        assert!(i < self.n, "index {i} out of {} keys", self.n);
        self.values[i]
    }

    /// Sets the key of index `i`, rescanning its block's summary.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index or a NaN key (the min order must stay
    /// total, exactly as the historical `partial_cmp(..).expect` scan
    /// demanded).
    pub(crate) fn set(&mut self, i: usize, key: f64) {
        assert!(i < self.n, "index {i} out of {} keys", self.n);
        assert!(!key.is_nan(), "ArgMin keys must be comparable (non-NaN)");
        self.values[i] = key;
        let b = i / self.block;
        let lo = b * self.block;
        let hi = (lo + self.block).min(self.n);
        // Strict `<` keeps the earlier index on exact ties.
        let mut best_value = self.values[lo];
        let mut best_index = lo;
        for j in lo + 1..hi {
            if self.values[j] < best_value {
                best_value = self.values[j];
                best_index = j;
            }
        }
        self.summary_value[b] = best_value;
        self.summary_index[b] = best_index as u32;
    }

    /// The index of the minimal key — the first such index when several tie,
    /// matching `(0..n).min_by(..)` on the same values.
    pub(crate) fn min_index(&self) -> usize {
        // Strict `<` keeps the earlier block on exact ties, and each block's
        // summary already holds its first minimal index.
        let mut best_value = self.summary_value[0];
        let mut best_block = 0;
        for (b, &v) in self.summary_value.iter().enumerate().skip(1) {
            if v < best_value {
                best_value = v;
                best_block = b;
            }
        }
        self.summary_index[best_block] as usize
    }
}

impl Serialize for ArgMin {
    fn serialize_json(&self, out: &mut String) {
        self.values.serialize_json(out);
    }
}

impl Deserialize for ArgMin {
    fn deserialize_json(value: &Value) -> Result<Self, String> {
        let values = Vec::<f64>::deserialize_json(value)?;
        if values.is_empty() {
            return Err("expected at least one fairness key, found none".to_string());
        }
        let mut tracker = ArgMin::new(values.len(), 0.0);
        for (i, key) in values.into_iter().enumerate() {
            tracker.set(i, key);
        }
        Ok(tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference semantics being replaced: a linear first-minimal scan.
    fn scan_min(values: &[f64]) -> usize {
        (0..values.len())
            .min_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite"))
            .expect("non-empty")
    }

    #[test]
    fn all_ties_pick_the_first_index() {
        let a = ArgMin::new(7, 0.0);
        assert_eq!(a.min_index(), 0);
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn updates_move_the_minimum() {
        let mut a = ArgMin::new(4, 0.0);
        a.set(0, 5.0);
        assert_eq!(a.min_index(), 1, "remaining zeros tie; first wins");
        a.set(1, 3.0);
        a.set(2, 2.0);
        a.set(3, 2.0);
        assert_eq!(a.min_index(), 2, "tie at 2.0 broken toward index 2");
        assert_eq!(a.get(1), 3.0);
        a.set(2, 9.0);
        assert_eq!(a.min_index(), 3);
    }

    #[test]
    fn non_square_sizes_cover_the_ragged_last_block() {
        let mut a = ArgMin::new(5, 1.0);
        for i in 0..5 {
            a.set(i, 10.0 + i as f64);
        }
        assert_eq!(a.min_index(), 0);
        a.set(4, -1.0);
        assert_eq!(a.min_index(), 4);
    }

    proptest! {
        /// The blocked structure agrees with the historical linear scan after
        /// any update sequence — including duplicated values, the tie-heavy
        /// regime the schedulers start in.
        #[test]
        fn blocked_matches_linear_scan(
            n in 1usize..40,
            updates in proptest::collection::vec((0usize..40, 0u32..8), 0..120),
        ) {
            let mut values = vec![0.0f64; n];
            let mut tracker = ArgMin::new(n, 0.0);
            prop_assert_eq!(tracker.min_index(), scan_min(&values));
            for (i, v) in updates {
                let i = i % n;
                // Coarse values force frequent exact ties.
                let v = v as f64 * 0.5;
                values[i] = v;
                tracker.set(i, v);
                prop_assert_eq!(tracker.min_index(), scan_min(&values));
                prop_assert_eq!(tracker.get(i), values[i]);
            }
        }
    }
}
