//! Shard-level checkpoint/restore for preemptible workers.
//!
//! The engine's `Simulation::save()` makes one *cell* resumable; this module
//! lifts that to a whole shard. A [`ShardCheckpoint`] captures everything a
//! replacement worker needs to continue where a dead one stopped: which
//! cells completed, every JSONL row they reduced to (rows ride inside the
//! checkpoint, so the coordinator's truncate-on-assign stays correct — a
//! resumed worker re-streams the full shard), and, for the in-flight cell,
//! the sealed engine checkpoint at its last event boundary.
//!
//! Like the engine envelope, the on-wire/on-disk form is versioned and
//! content-hashed (FNV-1a over the embedded state string): a torn write,
//! flipped byte, or format-revision mismatch is detected before any state is
//! interpreted, and callers fall back to a clean rerun.
//!
//! [`run_shard_resumable`] is the sequential shard loop behind
//! `lab worker`: cells run in spec order (the shard, not the cell, is the
//! fleet's unit of parallelism) through the lab's one cell driver,
//! `crate::lab::run_cell`. Session cells — 2D and 3D — are checkpointed
//! mid-run every `checkpoint_events` events, and every cell boundary is a
//! checkpoint for free. Cells with a bespoke driver ([`Experiment::run`] returns `Some`)
//! and §7 adversary cells checkpoint at cell boundaries only. Checkpoint
//! cadence is invisible in the output: rows are a pure per-spec function,
//! and the engine's checkpoint suite pins save/restore ≡ uninterrupted
//! byte-for-byte.

use crate::lab::{
    run_cell, CellCuts, CellProgress, Experiment, LabCell, Profile, ProgressSink, Shard,
};
use cohesion_engine::fnv1a;
use serde::{Deserialize, Serialize};

/// Format revision of the shard-checkpoint envelope. Bumped on any change
/// to the sealed layout; a reader refuses other versions (the rows inside
/// feed the byte-identity contract, so "best effort" parsing is forbidden).
pub const SHARD_CHECKPOINT_VERSION: u32 = 1;

/// The in-flight cell's cut: where the engine was stopped mid-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellCut {
    /// Absolute grid index of the cell.
    pub cell: usize,
    /// Engine events completed at the cut (diagnostic; the authoritative
    /// counter lives inside the sealed engine state).
    pub events: usize,
    /// The sealed engine checkpoint (`cohesion_engine::Checkpoint` JSON).
    pub engine: String,
}

/// A whole shard's resumable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// Registry name of the experiment.
    pub experiment: String,
    /// Shard assignment as `I/M`.
    pub shard: String,
    /// Whether the quick (CI smoke) grid was materialized — a checkpoint
    /// from the other profile indexes a different grid and must not resume.
    pub quick: bool,
    /// Cells of the shard's slice completed so far.
    pub cells_done: usize,
    /// Every JSONL row the completed cells reduced to, in spec order.
    pub rows: Vec<String>,
    /// The in-flight cell's mid-run cut, when one exists.
    pub current: Option<CellCut>,
}

/// The sealed on-wire/on-disk form of a [`ShardCheckpoint`]: the state as
/// an embedded JSON string and its FNV-1a. Field order guarantees
/// truncation at any byte breaks the JSON or the hash — a torn file can
/// never half-restore. Owned state: the serde stand-in derives no
/// lifetimes, and one extra copy per checkpoint is noise next to the socket
/// write that follows.
#[derive(Serialize, Deserialize)]
struct Envelope {
    version: u32,
    hash: u64,
    state: String,
}

impl ShardCheckpoint {
    /// Seals this checkpoint into its envelope: compact JSON
    /// `{version, hash, state}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let state = serde_json::to_string(self).expect("serialize shard checkpoint");
        let envelope = Envelope {
            version: SHARD_CHECKPOINT_VERSION,
            hash: fnv1a(state.as_bytes()),
            state,
        };
        serde_json::to_string(&envelope).expect("serialize shard checkpoint envelope")
    }

    /// Opens a sealed envelope: parse, version check, hash check, then
    /// decode — in that order, so corrupt bytes are rejected before any of
    /// them is interpreted as state.
    pub fn from_json(text: &str) -> Result<ShardCheckpoint, String> {
        let Envelope {
            version,
            hash,
            state,
        } = serde_json::from_str(text)
            .map_err(|e| format!("shard checkpoint is not valid JSON: {e}"))?;
        if version != SHARD_CHECKPOINT_VERSION {
            return Err(format!(
                "shard checkpoint format v{version}; this build reads v{SHARD_CHECKPOINT_VERSION}"
            ));
        }
        let computed = fnv1a(state.as_bytes());
        if computed != hash {
            return Err(format!(
                "shard checkpoint hash mismatch (stored {hash:#018x}, computed {computed:#018x}) \
                 — the file is corrupt"
            ));
        }
        serde_json::from_str(&state)
            .map_err(|e| format!("shard checkpoint state does not decode: {e}"))
    }

    /// `Ok` when this checkpoint belongs to exactly the given assignment.
    pub fn matches(&self, experiment: &str, shard: &str, quick: bool) -> Result<(), String> {
        if self.experiment != experiment || self.shard != shard || self.quick != quick {
            return Err(format!(
                "checkpoint is for {} {} (quick={}), not {experiment} {shard} (quick={quick})",
                self.experiment, self.shard, self.quick
            ));
        }
        Ok(())
    }
}

/// What the checkpoint callback tells the driver to do next. The worker's
/// callback ships the checkpoint to the coordinator and continues; a
/// preemption (or a fault-injection test) stops the run instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointControl {
    /// Keep driving the shard.
    Continue,
    /// Abandon the run now — the checkpoint just emitted is the hand-off.
    Stop,
}

/// What a completed resumable shard run produced.
#[derive(Debug)]
pub struct ShardOutcome {
    /// The cells *this process* executed (resumed-past cells are not
    /// re-materialized) — the slice invariant checks and rendering see.
    pub cells: Vec<LabCell>,
    /// Every row of the shard in spec order, including rows carried in
    /// from the resume checkpoint — exactly the bytes of the shard file.
    pub rows: Vec<String>,
}

/// The sequential resumable shard loop behind `lab worker`.
///
/// Runs the shard's cells in spec order, optionally continuing from a
/// [`ShardCheckpoint`]. `on_checkpoint` fires with a fresh checkpoint at
/// every multiple of `checkpoint_events` engine events inside session cells
/// and at every interior cell boundary; returning [`CheckpointControl::Stop`]
/// abandons the run (`Ok(None)`). On completion the outcome carries the
/// full row set — byte-identical to an unresumed `run_shard_cells` pass,
/// whatever the cadence or cut.
///
/// Errors are deterministic mismatches (checkpoint for a different
/// assignment, engine fingerprint mismatch, malformed mid-cell state):
/// callers should discard the checkpoint and rerun from scratch.
pub fn run_shard_resumable(
    exp: &dyn Experiment,
    profile: Profile,
    shard: Shard,
    resume: Option<ShardCheckpoint>,
    checkpoint_events: usize,
    sink: Option<&ProgressSink>,
    on_checkpoint: &mut dyn FnMut(&ShardCheckpoint) -> CheckpointControl,
) -> Result<Option<ShardOutcome>, String> {
    assert!(checkpoint_events > 0, "checkpoint cadence must be positive");
    let shard_str = format!("{}/{}", shard.index, shard.count);
    let grid = exp.grid(profile);
    let range = shard.slice(grid.len());
    let base = range.start;
    let specs = &grid[range];

    let (mut rows, start_cell, mut cut) = match resume {
        Some(ckpt) => {
            ckpt.matches(exp.name(), &shard_str, profile.is_quick())?;
            if ckpt.cells_done > specs.len() {
                return Err(format!(
                    "checkpoint claims {} completed cells of a {}-cell shard",
                    ckpt.cells_done,
                    specs.len()
                ));
            }
            (ckpt.rows, ckpt.cells_done, ckpt.current)
        }
        None => (Vec::new(), 0, None),
    };
    if let Some(c) = &cut {
        if c.cell != base + start_cell {
            return Err(format!(
                "checkpoint's in-flight cell {} is not the next cell {}",
                c.cell,
                base + start_cell
            ));
        }
    }

    let mut cells = Vec::new();
    for rel in start_cell..specs.len() {
        let spec = &specs[rel];
        let abs = base + rel;
        let mut on_cut = |events: usize, engine: String| {
            on_checkpoint(&ShardCheckpoint {
                experiment: exp.name().to_string(),
                shard: shard_str.clone(),
                quick: profile.is_quick(),
                cells_done: rel,
                rows: rows.clone(),
                current: Some(CellCut {
                    cell: abs,
                    events,
                    engine,
                }),
            })
        };
        let cuts = CellCuts {
            every: checkpoint_events,
            resume: cut.take().map(|c| c.engine),
            on_cut: &mut on_cut,
        };
        let progress = CellProgress::new(sink, abs, spec.tag);
        let Some(cell) = run_cell(exp, spec, &progress, Some(cuts))? else {
            return Ok(None);
        };
        rows.extend(cell.rows.iter().map(|r| r.as_str().to_string()));
        cells.push(cell);
        // Every interior cell boundary is a checkpoint for free; after the
        // last cell the Done frame follows immediately, so none is cut.
        if rel + 1 < specs.len() {
            let boundary = ShardCheckpoint {
                experiment: exp.name().to_string(),
                shard: shard_str.clone(),
                quick: profile.is_quick(),
                cells_done: rel + 1,
                rows: rows.clone(),
                current: None,
            };
            if on_checkpoint(&boundary) == CheckpointControl::Stop {
                return Ok(None);
            }
        }
    }
    Ok(Some(ShardOutcome { cells, rows }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardCheckpoint {
        ShardCheckpoint {
            experiment: "k_scaling".into(),
            shard: "1/4".into(),
            quick: true,
            cells_done: 2,
            rows: vec!["{\"k\":1}".into(), "{\"k\":2,\"s\":\"a\\\"b\"}".into()],
            current: Some(CellCut {
                cell: 7,
                events: 123_456,
                engine: "{\"version\":1}".into(),
            }),
        }
    }

    #[test]
    fn envelope_round_trips() {
        let ckpt = sample();
        let revived = ShardCheckpoint::from_json(&ckpt.to_json()).expect("round trip");
        assert_eq!(revived, ckpt);

        let boundary = ShardCheckpoint {
            current: None,
            ..sample()
        };
        let revived = ShardCheckpoint::from_json(&boundary.to_json()).expect("round trip");
        assert_eq!(revived, boundary);
    }

    #[test]
    fn envelope_rejects_corruption_version_skew_and_truncation() {
        let json = sample().to_json();

        // Flip one digit inside the sealed state: hash check must fire.
        let target = json.rfind("123456").expect("events digits");
        let mut bytes = json.clone().into_bytes();
        bytes[target] = b'9';
        let err = ShardCheckpoint::from_json(&String::from_utf8(bytes).unwrap()).unwrap_err();
        assert!(err.contains("hash mismatch"), "{err}");

        // A future format revision is refused before the hash is checked.
        let skewed = json.replacen("\"version\":1", "\"version\":9", 1);
        let err = ShardCheckpoint::from_json(&skewed).unwrap_err();
        assert!(err.contains("format v9"), "{err}");

        // Truncation at every byte is rejected (torn-write safety).
        for cut in 1..json.len() {
            assert!(
                ShardCheckpoint::from_json(&json[..cut]).is_err(),
                "truncation at byte {cut} of {} was accepted",
                json.len()
            );
        }
    }

    #[test]
    fn matches_pins_the_assignment() {
        let ckpt = sample();
        assert!(ckpt.matches("k_scaling", "1/4", true).is_ok());
        assert!(ckpt.matches("k_scaling", "0/4", true).is_err());
        assert!(ckpt.matches("lemmas", "1/4", true).is_err());
        let err = ckpt.matches("k_scaling", "1/4", false).unwrap_err();
        assert!(err.contains("quick"), "{err}");
    }
}
