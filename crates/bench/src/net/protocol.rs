//! The coordinator/worker wire protocol.
//!
//! Every frame payload is one [`Message`], encoded as compact serde-JSON by
//! the derived `Serialize` (externally tagged: `{"Hello":{...}}`, unit
//! variants as bare strings) and decoded by the derived `Deserialize`, which
//! reads the same layout back: a tagged object must have exactly one key,
//! unknown tags and missing fields are errors, unknown extra fields are
//! ignored.

use crate::lab::ProgressRecord;
use cohesion_telemetry::StateUpdate;
use serde::{Deserialize, Serialize};

/// Protocol revision. The handshake rejects any mismatch outright — with a
/// two-frame protocol negotiation would buy nothing, and mixed-revision
/// fleets must never contribute rows to one merged file.
///
/// v2: `Assign` carries a `resume` flag and the bidirectional `Checkpoint`
/// frame exists — workers persist shard state through the coordinator, and
/// the coordinator offers the last good checkpoint on reassignment.
///
/// v3: the telemetry plane. A client whose *first* frame is
/// [`Message::Subscribe`] (instead of `Hello`) attaches as a read-only
/// watcher; the coordinator answers `Welcome` and then streams
/// [`Message::StateUpdate`] batches from its aggregated state store.
pub const PROTOCOL_VERSION: u32 = 3;

/// One protocol frame payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Worker → coordinator, first frame: identify and version-check.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
        /// Worker cores (telemetry only; the worker sizes its own pool).
        cores: u32,
    },
    /// Coordinator → worker: handshake accepted.
    Welcome {
        /// The coordinator's [`PROTOCOL_VERSION`].
        version: u32,
        /// Liveness cadence: the worker must emit a frame at least this
        /// often while holding a shard (its keep-alive ticker halves it).
        heartbeat_ms: u64,
    },
    /// Coordinator → worker: handshake refused (version mismatch); the
    /// connection closes after this frame.
    Reject {
        /// Human-readable refusal.
        reason: String,
    },
    /// Coordinator → worker: run one shard of one experiment.
    Assign {
        /// Registry name of the experiment.
        experiment: String,
        /// Shard assignment as `I/M`.
        shard: String,
        /// Quick (CI smoke) or full grids.
        quick: bool,
        /// When `true`, a [`Message::Checkpoint`] frame for this assignment
        /// follows immediately — the worker resumes from it instead of
        /// running the shard from scratch.
        resume: bool,
    },
    /// Worker → coordinator: liveness tick from the keep-alive ticker (no
    /// progress to report, e.g. between assignments or inside a bespoke
    /// cell driver that never beats).
    KeepAlive,
    /// Worker → coordinator: per-cell progress, straight from the PR 5
    /// progress handle — the record already names its experiment and shard.
    Heartbeat {
        /// The sidecar record the local CLI would have written.
        record: ProgressRecord,
    },
    /// Worker → coordinator: a chunk of the shard's JSONL output (whole
    /// lines, trailing newlines included).
    Rows {
        /// Registry name of the experiment (sanity-checked by the
        /// coordinator against the live assignment).
        experiment: String,
        /// Shard assignment as `I/M`.
        shard: String,
        /// Verbatim JSONL bytes.
        chunk: String,
    },
    /// Worker → coordinator: the shard completed.
    Done {
        /// Registry name of the experiment.
        experiment: String,
        /// Shard assignment as `I/M`.
        shard: String,
        /// Total rows streamed, cross-checked against the lines received.
        rows: u64,
    },
    /// A sealed shard checkpoint (`crate::resume::ShardCheckpoint`
    /// envelope JSON), in both directions: worker → coordinator to persist
    /// the shard's progress (the coordinator writes it atomically to
    /// `<stem>.shardIofM.ckpt`), and coordinator → worker right after an
    /// `Assign { resume: true }` to hand back the last good checkpoint.
    /// The payload is validated (version + FNV-1a content hash) on both
    /// ends; anything stale or corrupt falls back to a clean rerun.
    Checkpoint {
        /// Registry name of the experiment.
        experiment: String,
        /// Shard assignment as `I/M`.
        shard: String,
        /// The sealed checkpoint envelope, verbatim.
        state: String,
    },
    /// Worker → coordinator: the shard failed deterministically (invariant
    /// check failure, unknown experiment, cell panic). Fatal for the run —
    /// reassigning a deterministic failure would loop forever.
    Failed {
        /// Registry name of the experiment.
        experiment: String,
        /// Shard assignment as `I/M`.
        shard: String,
        /// What went wrong.
        error: String,
    },
    /// Watcher → coordinator, first frame (in place of `Hello`): attach as
    /// a read-only telemetry subscriber. Version-checked like `Hello`;
    /// accepted watchers get a `Welcome` and then `StateUpdate` batches.
    Subscribe {
        /// The watcher's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Coordinator → watcher: a batch of state-store updates, in publish
    /// order, plus the subscriber's queue-overflow accounting for the
    /// batch window. An empty batch is a valid liveness tick.
    StateUpdate {
        /// Updates drained since the previous batch, oldest first.
        updates: Vec<StateUpdate>,
        /// Updates this watcher lost to bounded-queue overflow since the
        /// previous batch (slow watchers lose data, never slow the run).
        dropped: u64,
    },
    /// Coordinator → worker: no more work; close cleanly.
    Shutdown,
}

impl Message {
    /// Decodes one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Message, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}
