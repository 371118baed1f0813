//! Versioned, content-hashed checkpoints of a live [`Simulation`] session.
//!
//! A checkpoint captures the **complete mutable state** of a run at an event
//! boundary — per-robot Look–Compute–Move states, the pending-event queue in
//! pop order, the staged activation, the RNG stream position, the scheduler's
//! mutable core, the monitor verdict state, and the session's round/diameter
//! accounting — such that restoring onto a freshly built same-spec session
//! and continuing reproduces the uninterrupted run's report **byte for
//! byte** (proptest-enforced across all five scheduler classes).
//!
//! Deliberately *not* captured, because it is rebuilt or rebuildable:
//!
//! * the observation grid, motile side-list, displacement pad, and per-tick
//!   interpolation cache — derived from the robot states (the rebuild is
//!   observation-exact: grid queries are supersets trimmed by exact
//!   predicates, so anchoring differences cannot change any Look);
//! * the engine's [`ScheduleTrace`](cohesion_scheduler::ScheduleTrace) — it
//!   never feeds the report and grows without bound on exactly the
//!   billion-event runs checkpoints exist for; a restored session's trace
//!   starts empty;
//! * registered observers — streaming sinks do not survive a process death;
//!   observers registered after a restore see only post-restore items.
//!
//! # Envelope
//!
//! The on-disk form is a small JSON envelope
//! `{"version", "fingerprint", "hash", "state"}` where `state` is the
//! session state as an **embedded JSON string** and `hash` is FNV-1a over
//! exactly those bytes (the frozen-hash idiom of the session-equivalence
//! suite). Decoding verifies the version first, then the hash, before any
//! state field is interpreted — a torn or corrupted file fails loudly and
//! the caller falls back to a clean rerun. `fingerprint` is a light scenario
//! identity (robot count, scheduler, algorithm) rejecting restores into a
//! different run. All state values are finite, and the workspace serde
//! stand-ins print floats shortest-round-trip and parse them exactly, so
//! the JSON round trip is bit-exact.
//!
//! # Decoding
//!
//! The state payload is decoded by derived `Deserialize` impls, so the
//! types carry the shape checks (field presence, exactly-one-key tagged
//! enums, `rng` has 4 words, `u32` robot indices, whole round indices,
//! well-ordered activation intervals). Queued events, the session status
//! and the scheduler's state are the live types themselves (`Pending`,
//! [`SessionStatus`], [`SchedulerState`]); only robot states and
//! violations go through the `*Repr` shapes below, which flatten points to
//! coordinate arrays and robot ids to indices. The semantic checks that
//! need the session live in those repr conversions and in
//! `Simulation::restore`: coordinate counts equal `P::DIM`, only Move
//! phases are queued, and no violation pairs a robot with itself.
//!
//! [`Simulation`]: crate::session::Simulation

use crate::queue::Pending;
use crate::report::CohesionViolation;
use crate::session::SessionStatus;
use crate::state::RobotState;
use cohesion_geometry::point::Point;
use cohesion_model::{RobotId, RobotPair};
use cohesion_scheduler::{ActivationInterval, SchedulerState};
use serde::{Deserialize, Serialize};

/// The checkpoint format version this build writes and reads.
pub const CHECKPOINT_VERSION: u32 = 1;

/// 64-bit FNV-1a — the workspace's standard content hash (the same function
/// the frozen-report-hash tests use).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A sealed, integrity-checked simulation checkpoint.
///
/// Produced by [`Simulation::save`](crate::session::Simulation::save),
/// consumed by [`Simulation::restore`](crate::session::Simulation::restore).
/// The envelope is self-validating: [`Checkpoint::from_json`] refuses
/// version mismatches and hash mismatches before any state is interpreted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Checkpoint {
    version: u32,
    fingerprint: u64,
    hash: u64,
    state: String,
}

impl Checkpoint {
    /// Seals a state payload: stamps the current version and the FNV-1a
    /// content hash.
    pub(crate) fn seal(fingerprint: u64, state: String) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint,
            hash: fnv1a(state.as_bytes()),
            state,
        }
    }

    /// The format version stamped at save time.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The scenario fingerprint stamped at save time.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The FNV-1a hash of the state payload.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Serializes the envelope to compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint envelopes always encode")
    }

    /// Parses and validates an envelope: JSON shape, then version, then
    /// content hash. Any failure — including a torn write that truncated the
    /// file — is an error, never a silently wrong checkpoint.
    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        /// The stored fields; a [`Checkpoint`] exists only once they pass.
        #[derive(Deserialize)]
        struct Envelope {
            version: u32,
            fingerprint: u64,
            hash: u64,
            state: String,
        }
        let Envelope {
            version,
            fingerprint,
            hash,
            state,
        } = serde_json::from_str(text)
            .map_err(|e| format!("checkpoint is not valid JSON (torn write?): {e}"))?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint format v{version}; this build reads v{CHECKPOINT_VERSION}"
            ));
        }
        let computed = fnv1a(state.as_bytes());
        if computed != hash {
            return Err(format!(
                "checkpoint hash mismatch (stored {hash:#018x}, computed {computed:#018x}) — \
                 the file is corrupt"
            ));
        }
        Ok(Checkpoint {
            version,
            fingerprint,
            hash,
            state,
        })
    }

    /// Decodes the embedded state payload (envelope integrity was already
    /// verified).
    pub(crate) fn decode_state(&self) -> Result<SessionState, String> {
        serde_json::from_str(&self.state)
            .map_err(|e| format!("checkpoint state does not decode: {e}"))
    }
}

// ---------------------------------------------------------------------------
// State payload shapes
// ---------------------------------------------------------------------------

/// One robot's Look–Compute–Move state with positions flattened to
/// coordinate arrays, so the encoding is identical for every ambient space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum RobotStateRepr {
    Idle {
        position: Vec<f64>,
    },
    Computing {
        position: Vec<f64>,
        target: Vec<f64>,
        move_start: f64,
        move_end: f64,
    },
    Moving {
        from: Vec<f64>,
        to: Vec<f64>,
        t0: f64,
        t1: f64,
    },
}

impl RobotStateRepr {
    pub(crate) fn of<P: Point>(state: RobotState<P>) -> Self {
        match state {
            RobotState::Idle { position } => RobotStateRepr::Idle {
                position: position.coords(),
            },
            RobotState::Computing {
                position,
                target,
                move_start,
                move_end,
            } => RobotStateRepr::Computing {
                position: position.coords(),
                target: target.coords(),
                move_start,
                move_end,
            },
            RobotState::Moving { from, to, t0, t1 } => RobotStateRepr::Moving {
                from: from.coords(),
                to: to.coords(),
                t0,
                t1,
            },
        }
    }

    pub(crate) fn to_state<P: Point>(&self) -> Result<RobotState<P>, String> {
        let point = |coords: &Vec<f64>| -> Result<P, String> {
            if coords.len() != P::DIM {
                return Err(format!(
                    "checkpoint robot position has {} coordinates, ambient space has {}",
                    coords.len(),
                    P::DIM
                ));
            }
            Ok(P::from_coords(coords))
        };
        Ok(match self {
            RobotStateRepr::Idle { position } => RobotState::Idle {
                position: point(position)?,
            },
            RobotStateRepr::Computing {
                position,
                target,
                move_start,
                move_end,
            } => RobotState::Computing {
                position: point(position)?,
                target: point(target)?,
                move_start: *move_start,
                move_end: *move_end,
            },
            RobotStateRepr::Moving { from, to, t0, t1 } => RobotState::Moving {
                from: point(from)?,
                to: point(to)?,
                t0: *t0,
                t1: *t1,
            },
        })
    }
}

/// The engine's mutable core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct EngineState {
    pub(crate) time: f64,
    pub(crate) seq: u64,
    pub(crate) rng: [u64; 4],
    pub(crate) robots: Vec<RobotStateRepr>,
    /// Pending events in pop order (ascending `(time, seq)`).
    pub(crate) queue: Vec<Pending>,
    pub(crate) staged: Option<ActivationInterval>,
    pub(crate) completed_cycles: Vec<u64>,
    pub(crate) scheduler: SchedulerState,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct StrongState {
    pub(crate) ok: bool,
    pub(crate) acquired: Vec<u64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct HullState {
    pub(crate) nested: bool,
    /// `prev` hull vertices as `[x, y]` pairs; meaningful iff `has_prev`
    /// (an explicit flag, because `Some(empty)` and `None` must not blur).
    pub(crate) has_prev: bool,
    pub(crate) prev: Vec<Vec<f64>>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ViolationRepr {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) time: f64,
    pub(crate) distance: f64,
}

impl ViolationRepr {
    pub(crate) fn of(v: &CohesionViolation) -> Self {
        ViolationRepr {
            a: v.pair.a.0,
            b: v.pair.b.0,
            time: v.time,
            distance: v.distance,
        }
    }

    pub(crate) fn to_violation(&self) -> Result<CohesionViolation, String> {
        if self.a == self.b {
            return Err("checkpoint cohesion violation pairs a robot with itself".to_string());
        }
        Ok(CohesionViolation {
            pair: RobotPair::new(RobotId(self.a), RobotId(self.b)),
            time: self.time,
            distance: self.distance,
        })
    }
}

/// The complete mutable session state — the checkpoint payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SessionState {
    pub(crate) engine: EngineState,
    pub(crate) events: u64,
    pub(crate) rounds: u64,
    pub(crate) round_base: Vec<u64>,
    pub(crate) round_diameters: Vec<(u64, f64)>,
    pub(crate) converged: bool,
    pub(crate) status: SessionStatus,
    /// Recorded cohesion violations; the monitor's reported-pair set is
    /// exactly their pair set, so it is rebuilt rather than stored.
    pub(crate) violations: Vec<ViolationRepr>,
    pub(crate) strong: Option<StrongState>,
    pub(crate) hull: Option<HullState>,
    pub(crate) diameter_series: Vec<(f64, f64)>,
    pub(crate) diameter_converged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineEventKind;
    use cohesion_scheduler::ScriptedScheduler;

    #[test]
    fn fnv1a_matches_the_frozen_hash_idiom() {
        // The empty-input offset basis and a known vector pin the constants.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn envelope_round_trips_and_validates() {
        let ckpt = Checkpoint::seal(0xF00D, r#"{"engine":"demo"}"#.to_string());
        let json = ckpt.to_json();
        let back = Checkpoint::from_json(&json).expect("valid envelope");
        assert_eq!(back, ckpt);
        assert_eq!(back.version(), CHECKPOINT_VERSION);
        assert_eq!(back.fingerprint(), 0xF00D);
    }

    #[test]
    fn envelope_rejects_corruption_and_version_skew() {
        let json = Checkpoint::seal(1, r#"{"x":1}"#.to_string()).to_json();
        // Flip a byte inside the embedded state: hash check must fire.
        let tampered = json.replace(r#"\"x\":1"#, r#"\"x\":2"#);
        assert_ne!(tampered, json, "tamper target must exist");
        let err = Checkpoint::from_json(&tampered).unwrap_err();
        assert!(err.contains("hash mismatch"), "{err}");
        // A different version must be refused before the hash check.
        let skewed = json.replace(r#""version":1"#, r#""version":9"#);
        let err = Checkpoint::from_json(&skewed).unwrap_err();
        assert!(err.contains("format v9"), "{err}");
        // Truncation at any byte must fail loudly (JSON or hash check).
        for cut in 1..json.len() {
            assert!(
                Checkpoint::from_json(&json[..cut]).is_err(),
                "truncation at byte {cut} was accepted"
            );
        }
    }

    #[test]
    fn robot_state_reprs_round_trip() {
        use cohesion_geometry::Vec2;
        let states = [
            RobotState::Idle {
                position: Vec2::new(0.1 + 0.2, -0.0),
            },
            RobotState::Computing {
                position: Vec2::new(1.0, 2.0),
                target: Vec2::new(3.0, 4.0),
                move_start: 1.25,
                move_end: 2.5,
            },
            RobotState::Moving {
                from: Vec2::new(-1.0, 1e-300),
                to: Vec2::new(2.0, f64::MIN_POSITIVE),
                t0: 0.0,
                t1: 1.0,
            },
        ];
        for s in states {
            let repr = RobotStateRepr::of(s);
            let json = serde_json::to_string(&repr).expect("encode");
            let decoded: RobotStateRepr = serde_json::from_str(&json).expect("decode");
            assert_eq!(decoded, repr);
            let back: RobotState<Vec2> = decoded.to_state().expect("to_state");
            assert_eq!(back, s, "bit-exact state round trip");
        }
    }

    // Frozen v1 checkpoints: files persisted by earlier builds must keep
    // decoding to the same bytes and resuming.
    const FIXTURE_2D: &str = include_str!("../tests/fixtures/checkpoint_v1_2d.json");
    const FIXTURE_3D: &str = include_str!("../tests/fixtures/checkpoint_v1_3d.json");

    /// The 2D fixture's spec: CoG (which breaks cohesion, so a violation
    /// is on record) under 2-Async, cut at event 120.
    fn fixture_2d() -> crate::SimulationBuilder {
        crate::SimulationBuilder::new(
            cohesion_workloads::random_connected(12, 1.0, 303),
            cohesion_algorithms::CogAlgorithm::new(),
        )
        .scheduler(cohesion_scheduler::KAsyncScheduler::new(2, 0x5E55_10F1))
        .visibility(1.0)
        .seed(0xC0FF_EE02)
        .epsilon(1e-3)
        .max_events(3_000)
        .track_strong_visibility(true)
        .hull_check_every(16)
        .diameter_sample_every(8)
    }

    /// The 3D fixture's spec: Kirkpatrick under 2-Async in a ball, cut at
    /// event 1002.
    fn fixture_3d() -> crate::SimulationBuilder<cohesion_geometry::Vec3> {
        crate::SimulationBuilder::new(
            cohesion_workloads::ball3(16, 1.0, 41),
            cohesion_core::KirkpatrickAlgorithm::new(2),
        )
        .visibility(1.0)
        .scheduler(cohesion_scheduler::KAsyncScheduler::new(2, 42))
        .seed(43)
        .epsilon(0.05)
        .max_events(3_000)
        .track_strong_visibility(true)
        .diameter_sample_every(8)
    }

    fn report_hash(report: &impl Serialize) -> u64 {
        fnv1a(serde_json::to_string(report).expect("encode").as_bytes())
    }

    #[test]
    fn v1_fixtures_decode_and_re_encode_byte_for_byte() {
        for text in [FIXTURE_2D, FIXTURE_3D] {
            let ckpt = Checkpoint::from_json(text).expect("v1 envelope");
            assert_eq!(ckpt.to_json(), text);
            let state = ckpt.decode_state().expect("v1 state");
            assert_eq!(serde_json::to_string(&state).expect("encode"), ckpt.state);
        }
        // The 2D cut exercises every optional part of the payload.
        let state = Checkpoint::from_json(FIXTURE_2D)
            .and_then(|c| c.decode_state())
            .expect("v1 state");
        assert!(state.engine.staged.is_some() && !state.engine.queue.is_empty());
        assert!(!state.round_diameters.is_empty() && !state.violations.is_empty());
        assert!(state.strong.is_some() && state.hull.as_ref().is_some_and(|h| h.has_prev));
        assert!(!state.diameter_series.is_empty());
    }

    #[test]
    fn v1_fixtures_resume_to_the_uninterrupted_report() {
        let resumed_2d = {
            let mut session = fixture_2d().build();
            session
                .restore(&Checkpoint::from_json(FIXTURE_2D).expect("v1 envelope"))
                .expect("restore 2D");
            while !session.step().is_terminal() {}
            session.into_report()
        };
        assert_eq!(resumed_2d, fixture_2d().run());
        assert_eq!(report_hash(&resumed_2d), 0xF567_19D6_3DFD_2D66);

        let resumed_3d = {
            let mut session = fixture_3d().build();
            session
                .restore(&Checkpoint::from_json(FIXTURE_3D).expect("v1 envelope"))
                .expect("restore 3D");
            while !session.step().is_terminal() {}
            session.into_report()
        };
        assert_eq!(resumed_3d, fixture_3d().run());
        assert_eq!(report_hash(&resumed_3d), 0x86E8_733E_F183_41FF);
    }

    /// Reseals the 2D fixture's state after `edit` (so the hash check
    /// passes) and restores it; returns the restore error.
    fn tampered_restore_error(edit: impl FnOnce(String) -> String) -> String {
        let ckpt = Checkpoint::from_json(FIXTURE_2D).expect("v1 envelope");
        let tampered = Checkpoint::seal(ckpt.fingerprint(), edit(ckpt.state.clone()));
        let mut session = fixture_2d().build();
        match session.restore(&tampered) {
            Ok(()) => panic!("tampered state restored"),
            Err(e) => e,
        }
    }

    #[test]
    fn restore_rejects_hash_valid_malformed_states() {
        fn bad_interval(look: f64, move_start: f64) -> ActivationInterval {
            ActivationInterval {
                robot: RobotId(0),
                look,
                move_start,
                end: 3.0,
            }
        }
        // Shape checks carried by the decoded types.
        for (from, to, expect) in [
            ("\"rng\":[", "\"rng\":[0,", "expected 4 elements"),
            ("\"robot\":", "\"robot\":4294967296", "out of range for u32"),
            (
                "\"round_diameters\":[",
                "\"round_diameters\":[[1.5,0.1],",
                "expected an integer",
            ),
            (
                "\"robots\":[{",
                "\"robots\":[{\"Nope\":null,",
                "exactly one key",
            ),
        ] {
            let err = tampered_restore_error(|s| s.replacen(from, to, 1));
            assert!(err.contains(expect), "{to}: expected `{expect}` in: {err}");
        }
        // Intervals out of phase order, and the repr conversions' checks.
        type Edit = fn(&mut SessionState);
        let edits: [(Edit, &str); 5] = [
            (
                |s| s.engine.staged = Some(bad_interval(2.0, 1.0)),
                "out of order",
            ),
            (
                |s| {
                    s.engine.scheduler = SchedulerState::Scripted(ScriptedScheduler::new(
                        "tampered",
                        vec![bad_interval(1.0, 1.0)],
                    ))
                },
                "out of order",
            ),
            (
                |s| {
                    s.engine.robots[0] = RobotStateRepr::Idle {
                        position: vec![0.0; 3],
                    }
                },
                "3 coordinates",
            ),
            (
                |s| s.engine.queue[0].kind = EngineEventKind::Look,
                "only Move phases",
            ),
            (|s| s.violations[0].b = s.violations[0].a, "with itself"),
        ];
        for (edit, expect) in edits {
            let err = tampered_restore_error(|json| {
                let mut state: SessionState = serde_json::from_str(&json).expect("v1 state");
                edit(&mut state);
                serde_json::to_string(&state).expect("encode")
            });
            assert!(err.contains(expect), "expected `{expect}` in: {err}");
        }
    }
}
