//! `lab worker`: the worker side of the distributed lab.
//!
//! A worker connects (with jittered exponential backoff, so a fleet
//! launched together does not hammer a still-binding coordinator in
//! lockstep), version-handshakes, then loops assign → run → stream → done.
//! Shards run through the *resumable* sequential shard loop
//! (`crate::resume::run_shard_resumable`) over the lab's one cell driver:
//! cells run in spec order, session cells as resumable `Simulation`s, a
//! sealed [`ShardCheckpoint`] goes to the coordinator every
//! [`WorkerOptions::checkpoint_events`] engine events (and at every cell
//! boundary), and an `Assign { resume: true }` continues a dead
//! predecessor's shard from its last checkpoint instead of recomputing. Per-cell progress records become `Heartbeat` frames (the
//! [`ProgressOutput`] impl here), and a keep-alive ticker thread covers
//! stretches where no cell emits. Rows are streamed back in bounded chunks,
//! so coordinator memory stays flat no matter the shard size.
//!
//! The shard — not the cell — is the fleet's unit of parallelism: the
//! sequential driver trades intra-shard fan-out for preemptibility (a
//! checkpoint is a consistent cut of *one* session). Size fleets with
//! `lab serve --shards`, not worker thread counts.

use super::codec::{write_frame, FrameReader, MAX_FRAME_BYTES};
use super::protocol::{Message, PROTOCOL_VERSION};
use crate::lab::{find_experiment, Profile, ProgressOutput, ProgressRecord, ProgressSink, Shard};
use crate::resume::{run_shard_resumable, CheckpointControl, ShardCheckpoint, ShardOutcome};
use cohesion_engine::fnv1a;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Flush threshold for `Rows` chunks. Chunks split only at row boundaries,
/// so the coordinator's files are the concatenation of whole JSONL lines.
const CHUNK_BYTES: usize = 128 << 10;

/// Default mid-cell checkpoint cadence, in engine events. Checkpointing a
/// quick-profile cell is near-free but pointless; this default targets the
/// billion-event runs where losing a preempted shard actually hurts.
pub const DEFAULT_CHECKPOINT_EVENTS: usize = 5_000_000;

/// First-retry ceiling for the connect backoff, in milliseconds.
const BACKOFF_BASE_MS: u64 = 50;

/// Upper bound any single connect-retry delay is capped at.
const BACKOFF_CAP_MS: u64 = 2_000;

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// Total budget for connect retries — covers the race where workers
    /// launch before the coordinator binds.
    pub connect_retry: Duration,
    /// Mid-cell checkpoint cadence in engine events
    /// ([`DEFAULT_CHECKPOINT_EVENTS`] by default; tests shrink it to force
    /// many cuts). Cell boundaries always checkpoint regardless.
    pub checkpoint_events: usize,
}

impl WorkerOptions {
    /// Defaults: 10-second connect budget, 5M-event checkpoint cadence.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            addr: addr.into(),
            connect_retry: Duration::from_secs(10),
            checkpoint_events: DEFAULT_CHECKPOINT_EVENTS,
        }
    }
}

/// What a worker did before shutdown.
#[derive(Debug)]
pub struct WorkerSummary {
    /// Shards completed (Done sent).
    pub shards_run: usize,
    /// Total rows streamed.
    pub rows_streamed: u64,
    /// Shards continued from a coordinator-offered checkpoint.
    pub shards_resumed: usize,
}

/// The progress-handle → heartbeat bridge: every record the progress
/// pipeline emits for a cell goes to the coordinator as a `Heartbeat`
/// frame instead of a sidecar line. Send failures are swallowed — a dying
/// coordinator surfaces on the main read loop, not mid-cell.
struct SocketProgress {
    writer: Arc<Mutex<TcpStream>>,
}

impl ProgressOutput for SocketProgress {
    fn record(&self, record: &ProgressRecord) {
        let msg = Message::Heartbeat {
            record: record.clone(),
        };
        if let Ok(mut w) = self.writer.lock() {
            let _ = write_frame(&mut *w, &msg);
        }
    }
}

/// The delay before connect retry `attempt` (0-based): an exponential
/// ceiling doubling from [`BACKOFF_BASE_MS`] up to [`BACKOFF_CAP_MS`], with
/// deterministic jitter drawing the actual delay from the ceiling's upper
/// half `[ceiling/2, ceiling]`. Jitter is a pure function of
/// `(attempt, salt)` — per-process salts decorrelate a fleet, and tests
/// can pin the whole sequence.
fn backoff_delay(attempt: u32, salt: u64) -> Duration {
    let ceiling = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.min(16))
        .min(BACKOFF_CAP_MS);
    // SplitMix64 finalizer: cheap stateless mixing of (attempt, salt).
    let mut z = salt ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    Duration::from_millis(ceiling / 2 + z % (ceiling / 2 + 1))
}

pub(crate) fn connect_with_retry(addr: &str, budget: Duration) -> Result<TcpStream, String> {
    let deadline = Instant::now() + budget;
    let salt = u64::from(std::process::id()) ^ fnv1a(addr.as_bytes());
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                let remaining = deadline.saturating_duration_since(Instant::now());
                std::thread::sleep(backoff_delay(attempt, salt).min(remaining));
                attempt += 1;
            }
            Err(e) => return Err(format!("connect {addr}: {e}")),
        }
    }
}

/// Runs one worker until the coordinator sends `Shutdown`.
pub fn run_worker(opts: &WorkerOptions) -> Result<WorkerSummary, String> {
    let stream = connect_with_retry(&opts.addr, opts.connect_retry)?;
    let _ = stream.set_nodelay(true);
    let writer = Arc::new(Mutex::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    ));
    let mut reader = FrameReader::new(stream);
    let send = |msg: &Message| -> Result<(), String> {
        let mut w = writer.lock().expect("writer poisoned");
        write_frame(&mut *w, msg).map_err(|e| format!("send frame: {e}"))
    };

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get()) as u32;
    send(&Message::Hello {
        version: PROTOCOL_VERSION,
        cores,
    })?;
    let heartbeat_ms = match reader.read() {
        Ok(Some(Message::Welcome {
            version,
            heartbeat_ms,
        })) => {
            if version != PROTOCOL_VERSION {
                return Err(format!(
                    "coordinator speaks protocol v{version}, worker v{PROTOCOL_VERSION}"
                ));
            }
            heartbeat_ms
        }
        Ok(Some(Message::Reject { reason })) => {
            return Err(format!("coordinator rejected handshake: {reason}"))
        }
        Ok(Some(other)) => return Err(format!("expected Welcome, got {other:?}")),
        Ok(None) => return Err("coordinator closed during handshake".into()),
        Err(e) => return Err(format!("handshake read: {e}")),
    };
    println!(
        "[worker] connected to {} (heartbeat {heartbeat_ms}ms)",
        opts.addr
    );

    // Keep-alive ticker: covers assignment waits and cells whose drivers
    // never beat. Halved cadence keeps one scheduling hiccup from costing
    // a whole missed-heartbeat count.
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let tick = Duration::from_millis((heartbeat_ms / 2).max(10));
        std::thread::spawn(move || loop {
            std::thread::sleep(tick);
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let mut w = writer.lock().expect("writer poisoned");
            if write_frame(&mut *w, &Message::KeepAlive).is_err() {
                break;
            }
        })
    };

    let mut summary = WorkerSummary {
        shards_run: 0,
        rows_streamed: 0,
        shards_resumed: 0,
    };
    let result = loop {
        match reader.read() {
            Ok(Some(Message::Assign {
                experiment,
                shard,
                quick,
                resume,
            })) => {
                let profile = if quick { Profile::Quick } else { Profile::Full };
                // A resume assignment is immediately followed by the
                // checkpoint to continue from; a checkpoint that fails
                // validation here degrades to a clean scratch run.
                let offered = if resume {
                    match reader.read() {
                        Ok(Some(Message::Checkpoint {
                            experiment: ce,
                            shard: cs,
                            state,
                        })) if ce == experiment && cs == shard => {
                            match ShardCheckpoint::from_json(&state) {
                                Ok(ckpt) => Some(ckpt),
                                Err(e) => {
                                    println!(
                                        "[worker] offered checkpoint rejected ({e}); \
                                         running {experiment} {shard} from scratch"
                                    );
                                    None
                                }
                            }
                        }
                        Ok(Some(other)) => {
                            break Err(format!("expected the resume Checkpoint, got {other:?}"))
                        }
                        Ok(None) => break Err("coordinator closed mid-resume".into()),
                        Err(e) => break Err(format!("read: {e}")),
                    }
                } else {
                    None
                };
                let resumed = offered.is_some();
                match run_assignment(
                    &experiment,
                    &shard,
                    profile,
                    offered,
                    opts.checkpoint_events,
                    &writer,
                ) {
                    Ok(outcome) => {
                        let rows = stream_rows(&experiment, &shard, &outcome.rows, &send)?;
                        summary.shards_run += 1;
                        summary.rows_streamed += rows;
                        summary.shards_resumed += usize::from(resumed);
                        let how = if resumed { "resumed" } else { "completed" };
                        println!("[worker] {how} {experiment} {shard} ({rows} rows)");
                    }
                    Err(error) => {
                        println!("[worker] {experiment} {shard} failed: {error}");
                        send(&Message::Failed {
                            experiment,
                            shard,
                            error,
                        })?;
                        // The coordinator treats this as fatal and will
                        // shut the fleet down; wait for the frame.
                    }
                }
            }
            Ok(Some(Message::Shutdown)) => break Ok(summary),
            Ok(Some(other)) => break Err(format!("unexpected frame {other:?}")),
            Ok(None) => break Err("coordinator closed without shutdown".into()),
            Err(e) => break Err(format!("read: {e}")),
        }
    };
    stop.store(true, Ordering::Relaxed);
    let _ = ticker.join();
    if let Ok(s) = &result {
        println!(
            "[worker] shutdown after {} shard(s), {} row(s), {} resume(s)",
            s.shards_run, s.rows_streamed, s.shards_resumed
        );
    }
    result
}

/// Ships one checkpoint to the coordinator, best-effort: a checkpoint too
/// large for a frame is skipped (an older one stays good), and send
/// failures are swallowed — a dead coordinator surfaces on the main loop.
fn send_checkpoint(writer: &Arc<Mutex<TcpStream>>, ckpt: &ShardCheckpoint) {
    let msg = Message::Checkpoint {
        experiment: ckpt.experiment.clone(),
        shard: ckpt.shard.clone(),
        state: ckpt.to_json(),
    };
    let encoded = serde_json::to_string(&msg).expect("serialize checkpoint frame");
    if encoded.len() > MAX_FRAME_BYTES {
        println!(
            "[worker] checkpoint for {} {} is {} bytes (cap {MAX_FRAME_BYTES}); skipping",
            ckpt.experiment,
            ckpt.shard,
            encoded.len()
        );
        return;
    }
    if let Ok(mut w) = writer.lock() {
        let _ = write_frame(&mut *w, &msg);
    }
}

/// Runs one assigned shard through the resumable cell driver, bridging
/// per-cell progress and periodic checkpoints onto the socket. A resume
/// that fails deterministically (fingerprint mismatch, corrupt mid-cell
/// state) falls back to one clean scratch run before the failure is
/// reported; scratch-run failures (unknown experiment, invariant-check
/// failure, cell panic) come back as `Err` for the caller to report as a
/// `Failed` frame.
fn run_assignment(
    experiment: &str,
    shard: &str,
    profile: Profile,
    resume: Option<ShardCheckpoint>,
    checkpoint_events: usize,
    writer: &Arc<Mutex<TcpStream>>,
) -> Result<ShardOutcome, String> {
    let exp = find_experiment(experiment)?;
    let shard = Shard::parse(shard).map_err(|e| format!("bad shard assignment: {e}"))?;
    let sink = ProgressSink::with_output(
        exp.name(),
        Some(shard),
        Box::new(SocketProgress {
            writer: Arc::clone(writer),
        }),
    );
    let run = |resume: Option<ShardCheckpoint>| -> Result<ShardOutcome, String> {
        let mut on_checkpoint = |ckpt: &ShardCheckpoint| {
            send_checkpoint(writer, ckpt);
            CheckpointControl::Continue
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_shard_resumable(
                exp,
                profile,
                shard,
                resume,
                checkpoint_events,
                Some(&sink),
                &mut on_checkpoint,
            )
        }));
        match outcome {
            Ok(Ok(Some(outcome))) => Ok(outcome),
            Ok(Ok(None)) => unreachable!("the worker's checkpoint callback never stops the run"),
            Ok(Err(e)) => Err(e),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>");
                Err(format!("cell panicked: {msg}"))
            }
        }
    };
    let outcome = match resume {
        None => run(None)?,
        Some(ckpt) => match run(Some(ckpt)) {
            Ok(outcome) => outcome,
            Err(e) => {
                println!(
                    "[worker] resume of {} {}/{} failed ({e}); rerunning from scratch",
                    exp.name(),
                    shard.index,
                    shard.count
                );
                run(None)?
            }
        },
    };
    exp.check(&outcome.cells)
        .map_err(|e| format!("invariant check failed: {e}"))?;
    Ok(outcome)
}

/// Streams a shard's rows in bounded chunks, then reports completion.
fn stream_rows(
    experiment: &str,
    shard: &str,
    rows: &[String],
    send: &impl Fn(&Message) -> Result<(), String>,
) -> Result<u64, String> {
    let mut chunk = String::new();
    let mut streamed: u64 = 0;
    for row in rows {
        chunk.push_str(row);
        chunk.push('\n');
        streamed += 1;
        if chunk.len() >= CHUNK_BYTES {
            send(&Message::Rows {
                experiment: experiment.to_string(),
                shard: shard.to_string(),
                chunk: std::mem::take(&mut chunk),
            })?;
        }
    }
    if !chunk.is_empty() {
        send(&Message::Rows {
            experiment: experiment.to_string(),
            shard: shard.to_string(),
            chunk,
        })?;
    }
    send(&Message::Done {
        experiment: experiment.to_string(),
        shard: shard.to_string(),
        rows: streamed,
    })?;
    Ok(streamed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite contract for connect retries: exponential ceilings,
    /// a hard cap, jitter inside each ceiling's upper half, decorrelation
    /// across salts, and full determinism in `(attempt, salt)`.
    #[test]
    fn backoff_delays_are_exponential_jittered_and_capped() {
        let salt = 0xD1CE_D1CE;
        let delays: Vec<u64> = (0..12u32)
            .map(|a| backoff_delay(a, salt).as_millis() as u64)
            .collect();
        for (a, &d) in delays.iter().enumerate() {
            let ceiling = (BACKOFF_BASE_MS << a.min(16)).min(BACKOFF_CAP_MS);
            assert!(
                d >= ceiling / 2 && d <= ceiling,
                "attempt {a}: {d}ms outside [{}ms, {ceiling}ms]",
                ceiling / 2
            );
        }
        // The cap holds forever, even at absurd attempt counts.
        assert!(backoff_delay(63, salt).as_millis() as u64 <= BACKOFF_CAP_MS);
        assert!(backoff_delay(u32::MAX, salt).as_millis() as u64 <= BACKOFF_CAP_MS);
        // Jitter spreads a fleet: one attempt, many salts, many delays.
        let spread: std::collections::BTreeSet<u64> = (0..64u64)
            .map(|s| backoff_delay(6, s).as_millis() as u64)
            .collect();
        assert!(spread.len() > 16, "jitter too uniform: {spread:?}");
        // And the whole schedule is reproducible.
        assert_eq!(backoff_delay(3, 42), backoff_delay(3, 42));
    }
}
