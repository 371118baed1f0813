//! Serializable scheduler state for the engine's checkpoint/restore.
//!
//! Every online generator in [`crate::generators`] is a deterministic
//! function of its construction parameters plus a small mutable core (RNG
//! stream position, round/clock counters, buffered interval queues,
//! fairness summaries). The generator structs hold exactly that core and
//! nothing else, so each one is its own checkpoint payload:
//! [`SchedulerState`] tags a clone of the generator with its class, and a
//! scheduler restored from it emits the identical continuation of the
//! interval stream — the property the engine's byte-for-byte resume
//! contract is built on.
//!
//! Encoding and decoding are both derived (`serde_json::to_string` /
//! `serde_json::from_str::<SchedulerState>`), down to three leaf types
//! encoded by hand next to their definitions: the RNG as its 4-word
//! xoshiro256++ state, the duration profile as its 5 knobs, and the
//! fairness min-tracker as its key array. The types carry the shape
//! checks: `rng` has exactly 4 words, `profile` exactly 5 knobs,
//! `next_free` at least one key, `k`, robot indices and `skip_counts` fit
//! in `u32`, the class tag is the one key of its object, and every queued
//! or historical interval is decoded through [`ActivationInterval`]'s own
//! invariant check. All times are finite by that invariant, and the serde
//! stand-ins print floats shortest-round-trip and parse them exactly, so
//! the JSON round trip is bit-exact.
//!
//! [`ActivationInterval`]: crate::ActivationInterval

use crate::generators::{
    AsyncScheduler, CentralizedScheduler, FSyncScheduler, KAsyncScheduler, NestAScheduler,
    SSyncScheduler, ScriptedScheduler,
};
use serde::{Deserialize, Serialize};

/// The mutable core of one scheduler — the generator itself, tagged by
/// class. Restoring a state onto a scheduler of a different class (or a
/// different `k`, or another script) is an error, not a silent misresume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerState {
    /// [`FSyncScheduler`]: round counter + buffered round queue.
    FSync(FSyncScheduler),
    /// [`SSyncScheduler`]: RNG + round + fairness skip counters.
    SSync(SSyncScheduler),
    /// [`KAsyncScheduler`]: RNG, clock, fairness keys, live history.
    KAsync(KAsyncScheduler),
    /// [`NestAScheduler`]: RNG, clock, outer rotation, block queue.
    NestA(NestAScheduler),
    /// [`AsyncScheduler`]: RNG, clock, fairness keys.
    Async(AsyncScheduler),
    /// [`CentralizedScheduler`]: rotation counter + clock.
    Centralized(CentralizedScheduler),
    /// [`ScriptedScheduler`]: the script's name and unconsumed suffix.
    Scripted(ScriptedScheduler),
}

impl SchedulerState {
    /// The generator class the state belongs to, for error messages.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            SchedulerState::FSync(_) => "FSync",
            SchedulerState::SSync(_) => "SSync",
            SchedulerState::KAsync(_) => "KAsync",
            SchedulerState::NestA(_) => "NestA",
            SchedulerState::Async(_) => "Async",
            SchedulerState::Centralized(_) => "Centralized",
            SchedulerState::Scripted(_) => "Scripted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_round_trips_through_json() {
        for json in [
            r#"{"FSync":{"round":7,"queue":[{"robot":0,"look":6.0,"move_start":6.25,"end":6.75}]}}"#,
            r#"{"SSync":{"rng":[1,18446744073709551615,3,4],"round":2,"skip_counts":[0,3,1],"queue":[],"inclusion_probability":0.5}}"#,
            r#"{"KAsync":{"k":2,"rng":[9,8,7,6],"profile":[0.05,0.35,0.1,1.2,0.08],"clock":1.500000001,"next_free":[0.30000000000000004,1.75],"history":[{"robot":1,"look":0.0,"move_start":0.5,"end":2.0}]}}"#,
            r#"{"NestA":{"k":3,"rng":[0,1,2,3],"clock":4.25,"next_outer":11,"queue":[{"robot":2,"look":4.0,"move_start":4.1,"end":4.4}]}}"#,
            r#"{"Async":{"rng":[5,5,5,5],"profile":[0.05,0.35,0.1,1.2,0.08],"clock":0.0,"next_free":null,"stretch_probability":0.1}}"#,
            r#"{"Centralized":{"next":9,"clock":9.0}}"#,
            r#"{"Scripted":{"name":"figure4","queue":[{"robot":0,"look":0.0,"move_start":0.5,"end":1.0},{"robot":1,"look":1.0,"move_start":1.5,"end":2.0}]}}"#,
        ] {
            let state: SchedulerState = serde_json::from_str(json).expect("decode");
            let encoded = serde_json::to_string(&state).expect("encode");
            assert_eq!(encoded, json, "round trip for {}", state.class());
            let again: SchedulerState = serde_json::from_str(&encoded).expect("decode");
            assert_eq!(again, state, "round trip for {}", state.class());
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
