//! Serializable scheduler state for the engine's checkpoint/restore.
//!
//! Every online generator in [`crate::generators`] is a deterministic
//! function of its construction parameters plus a small mutable core (RNG
//! stream position, round/clock counters, buffered interval queues,
//! fairness summaries). [`SchedulerState`] captures exactly that mutable
//! core, so a scheduler restored onto a freshly built same-spec instance
//! emits the identical continuation of the interval stream — the property
//! the engine's byte-for-byte resume contract is built on.
//!
//! Encoding and decoding are both derived (`serde_json::to_string` /
//! `serde_json::from_str::<SchedulerState>`). The types carry the shape
//! checks: `rng` has exactly 4 words, `profile` exactly 5 knobs, `k`,
//! robot indices and `skip_counts` fit in `u32`, the class tag is the one
//! key of its object, and every queued or historical interval is decoded
//! through [`ActivationInterval`]'s own invariant check. All times are
//! finite by that invariant, and the serde stand-ins print floats
//! shortest-round-trip and parse them exactly, so the JSON round trip is
//! bit-exact.

use crate::interval::ActivationInterval;
use serde::{Deserialize, Serialize};

/// The duration-profile knobs of the random generators, flattened:
/// `[compute_min, compute_max, move_min, move_max, jitter]`.
pub type ProfileState = [f64; 5];

/// The mutable core of one scheduler, by generator class. Restoring a
/// state onto a scheduler of a different class (or a different `k`) is an
/// error, not a silent misresume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerState {
    /// [`crate::FSyncScheduler`]: round counter + buffered round queue.
    FSync {
        /// Next round to be generated.
        round: u64,
        /// Unconsumed activations of the current round, in emission order.
        queue: Vec<ActivationInterval>,
    },
    /// [`crate::SSyncScheduler`]: RNG + round + fairness skip counters.
    SSync {
        /// xoshiro256++ stream position.
        rng: [u64; 4],
        /// Next round to be generated.
        round: u64,
        /// Consecutive rounds each robot has been skipped.
        skip_counts: Vec<u32>,
        /// Unconsumed activations of the current round.
        queue: Vec<ActivationInterval>,
        /// Per-robot inclusion probability.
        inclusion_probability: f64,
    },
    /// [`crate::KAsyncScheduler`]: RNG, clock, fairness keys, live history.
    KAsync {
        /// The overlap bound (validated against the target scheduler).
        k: u32,
        /// xoshiro256++ stream position.
        rng: [u64; 4],
        /// Flattened duration profile.
        profile: ProfileState,
        /// Current schedule clock.
        clock: f64,
        /// Per-robot earliest re-activation times (`None` before the lazy
        /// first pull).
        next_free: Option<Vec<f64>>,
        /// Intervals still live for the k-budget repair loop.
        history: Vec<ActivationInterval>,
    },
    /// [`crate::NestAScheduler`]: RNG, clock, outer rotation, block queue.
    NestA {
        /// The nesting bound (validated against the target scheduler).
        k: u32,
        /// xoshiro256++ stream position.
        rng: [u64; 4],
        /// Current schedule clock.
        clock: f64,
        /// Rotation counter choosing the next outer robot.
        next_outer: u64,
        /// Unconsumed activations of the current block.
        queue: Vec<ActivationInterval>,
    },
    /// [`crate::AsyncScheduler`]: RNG, clock, fairness keys.
    Async {
        /// xoshiro256++ stream position.
        rng: [u64; 4],
        /// Flattened duration profile.
        profile: ProfileState,
        /// Current schedule clock.
        clock: f64,
        /// Per-robot earliest re-activation times (`None` before the lazy
        /// first pull).
        next_free: Option<Vec<f64>>,
        /// Probability of a stretched Move phase.
        stretch_probability: f64,
    },
    /// [`crate::CentralizedScheduler`]: rotation counter + clock.
    Centralized {
        /// Next robot in the round-robin rotation.
        next: u64,
        /// Current schedule clock.
        clock: f64,
    },
    /// [`crate::ScriptedScheduler`]: the unconsumed script suffix.
    Scripted {
        /// The script's name (validated against the target scheduler).
        name: String,
        /// Remaining intervals, in replay order.
        queue: Vec<ActivationInterval>,
    },
}

impl SchedulerState {
    /// The generator class the state belongs to, for error messages.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            SchedulerState::FSync { .. } => "FSync",
            SchedulerState::SSync { .. } => "SSync",
            SchedulerState::KAsync { .. } => "KAsync",
            SchedulerState::NestA { .. } => "NestA",
            SchedulerState::Async { .. } => "Async",
            SchedulerState::Centralized { .. } => "Centralized",
            SchedulerState::Scripted { .. } => "Scripted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_model::RobotId;

    fn iv(robot: u32, look: f64, ms: f64, end: f64) -> ActivationInterval {
        ActivationInterval::new(RobotId(robot), look, ms, end)
    }

    #[test]
    fn every_class_round_trips_through_json() {
        let states = vec![
            SchedulerState::FSync {
                round: 7,
                queue: vec![iv(0, 6.0, 6.25, 6.75)],
            },
            SchedulerState::SSync {
                rng: [1, u64::MAX, 3, 4],
                round: 2,
                skip_counts: vec![0, 3, 1],
                queue: vec![],
                inclusion_probability: 0.5,
            },
            SchedulerState::KAsync {
                k: 2,
                rng: [9, 8, 7, 6],
                profile: [0.05, 0.35, 0.1, 1.2, 0.08],
                clock: 1.5 + 1e-9,
                next_free: Some(vec![0.1 + 0.2, 1.75]),
                history: vec![iv(1, 0.0, 0.5, 2.0)],
            },
            SchedulerState::NestA {
                k: 3,
                rng: [0, 1, 2, 3],
                clock: 4.25,
                next_outer: 11,
                queue: vec![iv(2, 4.0, 4.1, 4.4)],
            },
            SchedulerState::Async {
                rng: [5, 5, 5, 5],
                profile: [0.05, 0.35, 0.1, 1.2, 0.08],
                clock: 0.0,
                next_free: None,
                stretch_probability: 0.1,
            },
            SchedulerState::Centralized {
                next: 9,
                clock: 9.0,
            },
            SchedulerState::Scripted {
                name: "figure4".into(),
                queue: vec![iv(0, 0.0, 0.5, 1.0), iv(1, 1.0, 1.5, 2.0)],
            },
        ];
        for state in states {
            let json = serde_json::to_string(&state).expect("encode");
            let decoded: SchedulerState = serde_json::from_str(&json).expect("decode");
            assert_eq!(decoded, state, "round trip for {}", state.class());
        }
    }

    #[test]
    fn decode_rejects_malformed_states() {
        for bad in [
            "null",
            "{}",
            r#"{"Nope":{}}"#,
            r#"{"FSync":{"round":1}}"#,
            r#"{"FSync":{"round":-1,"queue":[]}}"#,
            r#"{"SSync":{"rng":[1,2,3],"round":0,"skip_counts":[],"queue":[],"inclusion_probability":0.5}}"#,
            r#"{"Async":{"rng":[1,2,3,4],"profile":[0.1,0.2,0.3],"clock":0.0,"next_free":null,"stretch_probability":0.1}}"#,
            r#"{"KAsync":{"k":4294967296,"rng":[1,2,3,4],"profile":[0.1,0.2,0.3,0.4,0.5],"clock":0.0,"next_free":null,"history":[]}}"#,
            r#"{"SSync":{"rng":[1,2,3,4],"round":0,"skip_counts":[4294967296],"queue":[],"inclusion_probability":0.5}}"#,
            r#"{"FSync":{"round":1,"queue":[{"robot":4294967296,"look":0.0,"move_start":1.0,"end":2.0}]}}"#,
            r#"{"FSync":{"round":1,"queue":[]},"Centralized":{"next":0,"clock":0.0}}"#,
            // Intervals out of order: decoding must refuse, not panic.
            r#"{"FSync":{"round":1,"queue":[{"robot":0,"look":2.0,"move_start":1.0,"end":3.0}]}}"#,
            r#"{"FSync":{"round":1,"queue":[{"robot":0,"look":1.0,"move_start":1.0,"end":3.0}]}}"#,
        ] {
            assert!(
                serde_json::from_str::<SchedulerState>(bad).is_err(),
                "accepted malformed state {bad}"
            );
        }
    }
}
