//! `lab serve`: the coordinator side of the distributed lab.
//!
//! One coordinator owns the shard queue for a requested experiment set.
//! Each worker connection gets a thread (blocking sockets, mirroring
//! `SweepRunner`'s scoped-pool style): handshake, then a hand-out/receive
//! loop. Worker silence is detected with socket read timeouts — each
//! timeout is a missed heartbeat, [`ServeOptions::missed_limit`] consecutive
//! misses (or EOF mid-shard) declare the worker dead and requeue its shard,
//! which is idempotent because shards are deterministic. Incoming row
//! chunks stream verbatim into the same `<stem>.shardIofM.jsonl` files the
//! CLI's `--shard` mode writes, and the run finishes through the shared
//! `merge_shards`, so the merged JSONL is byte-identical to an unsharded
//! run.
//!
//! Workers also ship sealed [`ShardCheckpoint`] envelopes while driving a
//! shard. The coordinator persists each to `<stem>.shardIofM.ckpt`
//! atomically (temp file + rename — a crash mid-write never leaves a torn
//! checkpoint where a good one stood) and, when a shard comes back to the
//! queue after its worker died, offers the last good checkpoint with the
//! reassignment so the replacement resumes mid-shard instead of
//! recomputing. Checkpoints are validated (version + content hash +
//! assignment identity) before every offer; anything stale or corrupt is
//! deleted and the shard reruns cleanly. Checkpoint persistence itself is
//! best-effort: a disk error costs resume granularity, never the run.

use super::codec::{write_frame, FrameError, FrameReader};
use super::liveness::{Liveness, WorkItem, WorkTracker};
use super::protocol::{Message, PROTOCOL_VERSION};
use crate::lab::{merge_shards, publish_progress, Experiment, Profile, Shard};
use crate::resume::ShardCheckpoint;
use cohesion_telemetry::{keys, StateStore, DEFAULT_QUEUE_CAPACITY};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Coordinator configuration.
pub struct ServeOptions {
    /// The experiments whose grids are queued (registry order).
    pub experiments: Vec<&'static dyn Experiment>,
    /// Quick (CI smoke) or full grids — sent to workers in every `Assign`.
    pub profile: Profile,
    /// Where shard files land and the merged JSONL is written.
    pub out_dir: PathBuf,
    /// How many shards each experiment grid is split into (clamped per
    /// experiment to its cell count, so no empty shards are queued).
    pub shards_per_experiment: usize,
    /// Liveness cadence: workers must emit a frame at least this often
    /// while holding a shard; reads time out on this interval.
    pub heartbeat: Duration,
    /// Consecutive missed heartbeats before a worker is declared dead.
    pub missed_limit: u32,
    /// Assignment budget per shard before the run is failed (a shard that
    /// kills every worker it lands on must not loop forever).
    pub max_attempts: u32,
}

impl ServeOptions {
    /// Defaults: quick=off is the caller's choice via `profile`; 2-second
    /// heartbeat, 3 missed beats, 3 attempts per shard.
    #[must_use]
    pub fn new(
        experiments: Vec<&'static dyn Experiment>,
        profile: Profile,
        out_dir: PathBuf,
        shards_per_experiment: usize,
    ) -> ServeOptions {
        ServeOptions {
            experiments,
            profile,
            out_dir,
            shards_per_experiment,
            heartbeat: Duration::from_millis(2000),
            missed_limit: 3,
            max_attempts: 3,
        }
    }
}

/// What a completed serve run did.
#[derive(Debug)]
pub struct ServeSummary {
    /// Merged output files, one per experiment, in request order.
    pub merged: Vec<(&'static str, PathBuf)>,
    /// Total shards executed.
    pub shards: usize,
    /// Shards lost to dead workers and reassigned.
    pub reassignments: usize,
    /// Reassignments that resumed from a persisted checkpoint instead of
    /// rerunning the shard from scratch.
    pub resumes: usize,
    /// Workers that completed the handshake.
    pub workers: usize,
    /// Watchers that attached via `Subscribe` at any point in the run.
    pub watchers: usize,
    /// Wall clock from listen to merge completion.
    pub elapsed: Duration,
}

/// Shared coordinator state, borrowed by every connection thread.
struct Ctx<'a> {
    experiments: &'a [&'static dyn Experiment],
    profile: Profile,
    dir: &'a PathBuf,
    heartbeat: Duration,
    missed_limit: u32,
    tracker: Mutex<WorkTracker>,
    workers: AtomicUsize,
    resumes: AtomicUsize,
    watchers: AtomicUsize,
    shards_done: AtomicUsize,
    rows_total: AtomicU64,
    /// The aggregated telemetry plane: every worker heartbeat and serve
    /// counter lands here; watcher connections re-broadcast it.
    store: Arc<StateStore>,
}

impl Ctx<'_> {
    fn finished(&self) -> bool {
        let tr = self.tracker.lock().expect("tracker poisoned");
        tr.is_complete() || tr.failure().is_some()
    }
}

/// Binds `addr` (e.g. `127.0.0.1:7401`, port 0 for ephemeral), prints the
/// bound address, and runs the coordinator to completion.
pub fn serve(addr: &str, opts: ServeOptions) -> Result<ServeSummary, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    println!("[serve] listening on {local}");
    serve_on(listener, opts)
}

/// Runs the coordinator on an already-bound listener (how tests get an
/// ephemeral port before spawning workers). Returns once every shard has
/// completed and the per-experiment merges are written, or with the first
/// fatal failure.
pub fn serve_on(listener: TcpListener, opts: ServeOptions) -> Result<ServeSummary, String> {
    if opts.experiments.is_empty() {
        return Err("lab serve: no experiments requested".into());
    }
    assert!(
        opts.shards_per_experiment >= 1,
        "need at least one shard per experiment"
    );
    let started = Instant::now();
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create output dir {}: {e}", opts.out_dir.display()))?;
    remove_stale_shard_files(&opts)?;

    let mut items = Vec::new();
    for (exp_index, exp) in opts.experiments.iter().enumerate() {
        let cells = exp.grid(opts.profile).len();
        let count = opts.shards_per_experiment.min(cells.max(1));
        for index in 0..count {
            items.push(WorkItem {
                exp_index,
                shard: Shard { index, count },
                attempts: 0,
            });
        }
    }
    let shards = items.len();
    println!(
        "[serve] {} shard(s) across {} experiment(s), heartbeat {:?} x{} misses",
        shards,
        opts.experiments.len(),
        opts.heartbeat,
        opts.missed_limit
    );

    let ctx = Ctx {
        experiments: &opts.experiments,
        profile: opts.profile,
        dir: &opts.out_dir,
        heartbeat: opts.heartbeat,
        missed_limit: opts.missed_limit,
        tracker: Mutex::new(WorkTracker::new(items, opts.max_attempts)),
        workers: AtomicUsize::new(0),
        resumes: AtomicUsize::new(0),
        watchers: AtomicUsize::new(0),
        shards_done: AtomicUsize::new(0),
        rows_total: AtomicU64::new(0),
        store: StateStore::new(),
    };
    ctx.store.publish(keys::SHARDS_TOTAL, shards as u64);
    ctx.store.publish(keys::SHARDS_DONE, 0);

    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener nonblocking: {e}"))?;
    std::thread::scope(|scope| {
        while !ctx.finished() {
            match listener.accept() {
                Ok((stream, peer)) => {
                    println!("[serve] worker connected from {peer}");
                    let ctx = &ctx;
                    scope.spawn(move || handle_worker(stream, ctx));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    ctx.tracker
                        .lock()
                        .expect("tracker poisoned")
                        .fail(format!("accept: {e}"));
                }
            }
        }
        // Scope exit joins every connection thread: each notices the run is
        // finished at its next claim poll or heartbeat tick, sends Shutdown,
        // and returns.
    });

    let tracker = ctx.tracker.into_inner().expect("tracker poisoned");
    if let Some(failure) = tracker.failure() {
        return Err(format!("lab serve failed: {failure}"));
    }
    let mut merged = Vec::new();
    for exp in &opts.experiments {
        let path = merge_shards(exp.output_stem(), &opts.out_dir)?;
        println!("[serve] merged {} -> {}", exp.name(), path.display());
        merged.push((exp.name(), path));
    }
    let summary = ServeSummary {
        merged,
        shards,
        reassignments: tracker.reassignments(),
        resumes: ctx.resumes.load(Ordering::Relaxed),
        workers: ctx.workers.load(Ordering::Relaxed),
        watchers: ctx.watchers.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
    };
    println!(
        "[serve] done: {} shard(s), {} worker(s), {} watcher(s), {} reassignment(s), {} resume(s), {:.2}s",
        summary.shards,
        summary.workers,
        summary.watchers,
        summary.reassignments,
        summary.resumes,
        summary.elapsed.as_secs_f64()
    );
    Ok(summary)
}

/// Deletes shard files left by previous runs for the requested stems — a
/// stale `.jsonl` from a run with a different shard count would otherwise
/// make the final merge reject the set as mixed, and a stale `.ckpt` (or a
/// torn `.ckpt.tmp`) from an older grid must never be offered as a resume.
fn remove_stale_shard_files(opts: &ServeOptions) -> Result<(), String> {
    let entries = std::fs::read_dir(&opts.out_dir)
        .map_err(|e| format!("read {}: {e}", opts.out_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", opts.out_dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = opts.experiments.iter().any(|exp| {
            [".jsonl", ".ckpt", ".ckpt.tmp"]
                .iter()
                .any(|suffix| Shard::parse_file_name(name, exp.output_stem(), suffix).is_some())
        });
        if stale {
            std::fs::remove_file(entry.path())
                .map_err(|e| format!("remove stale {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// One worker connection: handshake, then hand out shards and collect rows
/// until the run finishes or the worker dies.
fn handle_worker(stream: TcpStream, ctx: &Ctx<'_>) {
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "<unknown>".into(), |a| a.to_string());
    if let Err(e) = stream.set_nodelay(true) {
        println!("[serve] {peer}: set_nodelay: {e}");
    }
    if stream.set_read_timeout(Some(ctx.heartbeat)).is_err() {
        println!("[serve] {peer}: cannot set read timeout; dropping");
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        println!("[serve] {peer}: cannot clone stream; dropping");
        return;
    };
    let mut reader = FrameReader::new(stream);

    // Handshake: the first frame must be a version-matching Hello.
    let mut liveness = Liveness::new(ctx.missed_limit);
    loop {
        match reader.read() {
            Ok(Some(Message::Hello { version, cores })) => {
                if version != PROTOCOL_VERSION {
                    println!(
                        "[serve] {peer}: protocol v{version} != v{PROTOCOL_VERSION}; rejecting"
                    );
                    let _ = write_frame(
                        &mut writer,
                        &Message::Reject {
                            reason: format!(
                                "protocol version mismatch: worker v{version}, coordinator v{PROTOCOL_VERSION}"
                            ),
                        },
                    );
                    return;
                }
                let welcome = Message::Welcome {
                    version: PROTOCOL_VERSION,
                    heartbeat_ms: ctx.heartbeat.as_millis() as u64,
                };
                if write_frame(&mut writer, &welcome).is_err() {
                    return;
                }
                let workers = ctx.workers.fetch_add(1, Ordering::Relaxed) + 1;
                ctx.store.publish(keys::WORKERS, workers as u64);
                println!("[serve] {peer}: handshake ok ({cores} cores)");
                break;
            }
            Ok(Some(Message::Subscribe { version })) => {
                // A telemetry watcher, not a worker: hand the connection to
                // the read-only broadcast loop and never touch the tracker.
                handle_watcher(reader, writer, ctx, &peer, version);
                return;
            }
            Ok(Some(other)) => {
                println!("[serve] {peer}: expected Hello, got {other:?}; dropping");
                return;
            }
            Ok(None) => return,
            Err(FrameError::Timeout) => {
                if liveness.miss() || ctx.finished() {
                    return;
                }
            }
            Err(e) => {
                println!("[serve] {peer}: handshake failed: {e}");
                return;
            }
        }
    }

    loop {
        // Claim the next shard, or wait for one to appear (a dead worker's
        // shard may be requeued at any time).
        let item = loop {
            {
                let mut tracker = ctx.tracker.lock().expect("tracker poisoned");
                if tracker.failure().is_some() || tracker.is_complete() {
                    let _ = write_frame(&mut writer, &Message::Shutdown);
                    return;
                }
                if let Some(item) = tracker.claim() {
                    break item;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        if !collect_shard(&mut reader, &mut writer, ctx, &peer, item) {
            return;
        }
    }
}

/// Drives one assignment to completion. Returns `false` when the
/// connection is finished (worker dead, protocol violation, or fatal run
/// failure) — the caller must stop using it.
fn collect_shard(
    reader: &mut FrameReader<TcpStream>,
    writer: &mut TcpStream,
    ctx: &Ctx<'_>,
    peer: &str,
    item: WorkItem,
) -> bool {
    let exp = ctx.experiments[item.exp_index];
    let shard_str = format!("{}/{}", item.shard.index, item.shard.count);
    let label = format!("{} {shard_str}", exp.name());
    let requeue = |item: WorkItem, why: &str| {
        println!("[serve] {peer}: {why}; requeueing {label}");
        let reassignments = {
            let mut tracker = ctx.tracker.lock().expect("tracker poisoned");
            tracker.requeue(item);
            tracker.reassignments()
        };
        ctx.store.publish(keys::REASSIGNMENTS, reassignments as u64);
    };

    // (Re)create the shard file first: a reassigned shard must not keep a
    // dead worker's partial rows.
    let path = ctx.dir.join(item.shard.file_name(exp.output_stem()));
    let mut file = match std::fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            ctx.tracker
                .lock()
                .expect("tracker poisoned")
                .fail(format!("create {}: {e}", path.display()));
            let _ = write_frame(writer, &Message::Shutdown);
            return false;
        }
    };
    // Offer the last good checkpoint, when a validating one is on disk —
    // a dead predecessor's shard then resumes instead of recomputing.
    // Anything unreadable, corrupt, version-skewed, or for a different
    // assignment is deleted so it can never be offered again.
    let ckpt_path = ctx
        .dir
        .join(item.shard.checkpoint_file_name(exp.output_stem()));
    let offer = match std::fs::read_to_string(&ckpt_path) {
        Err(_) => None, // no checkpoint on disk: fresh run
        Ok(text) => {
            let valid = ShardCheckpoint::from_json(&text)
                .and_then(|c| c.matches(exp.name(), &shard_str, ctx.profile.is_quick()));
            match valid {
                Ok(()) => Some(text),
                Err(e) => {
                    println!("[serve] {peer}: discarding checkpoint for {label}: {e}");
                    let _ = std::fs::remove_file(&ckpt_path);
                    None
                }
            }
        }
    };
    let assign = Message::Assign {
        experiment: exp.name().to_string(),
        shard: shard_str.clone(),
        quick: ctx.profile.is_quick(),
        resume: offer.is_some(),
    };
    if write_frame(writer, &assign).is_err() {
        requeue(item, "assign write failed");
        return false;
    }
    if let Some(state) = offer {
        let frame = Message::Checkpoint {
            experiment: exp.name().to_string(),
            shard: shard_str.clone(),
            state,
        };
        if write_frame(writer, &frame).is_err() {
            requeue(item, "resume checkpoint write failed");
            return false;
        }
        ctx.resumes.fetch_add(1, Ordering::Relaxed);
        println!("[serve] {peer}: assigned {label} (resuming from checkpoint)");
    } else {
        println!("[serve] {peer}: assigned {label}");
    }

    let mut liveness = Liveness::new(ctx.missed_limit);
    let mut lines: u64 = 0;
    loop {
        match reader.read() {
            Ok(Some(Message::KeepAlive)) => {
                liveness.beat();
            }
            Ok(Some(Message::Heartbeat { record })) => {
                liveness.beat();
                // The worker's progress stream doubles as the telemetry
                // feed: every heartbeat lands in the aggregated store for
                // any attached watcher.
                publish_progress(&ctx.store, &record);
            }
            Ok(Some(Message::Rows {
                experiment,
                shard,
                chunk,
            })) => {
                liveness.beat();
                if experiment != exp.name() || shard != shard_str {
                    requeue(item, "rows for a shard it does not hold");
                    return false;
                }
                if let Err(e) = file.write_all(chunk.as_bytes()) {
                    ctx.tracker
                        .lock()
                        .expect("tracker poisoned")
                        .fail(format!("write {}: {e}", path.display()));
                    let _ = write_frame(writer, &Message::Shutdown);
                    return false;
                }
                lines += chunk.bytes().filter(|&b| b == b'\n').count() as u64;
            }
            Ok(Some(Message::Checkpoint {
                experiment,
                shard,
                state,
            })) => {
                liveness.beat();
                if experiment != exp.name() || shard != shard_str {
                    requeue(item, "checkpoint for a shard it does not hold");
                    return false;
                }
                // Persist atomically, best-effort: validate before trusting
                // the bytes, write a sibling temp file, rename over the old
                // checkpoint. A failure here costs resume granularity only.
                if let Err(e) = persist_checkpoint(&ckpt_path, &state, exp.name(), &shard_str, ctx)
                {
                    println!("[serve] {peer}: dropping checkpoint for {label}: {e}");
                }
            }
            Ok(Some(Message::Done {
                experiment,
                shard,
                rows,
            })) => {
                if experiment != exp.name() || shard != shard_str || rows != lines {
                    requeue(
                        item,
                        &format!("done mismatch (claimed {rows} rows, received {lines})"),
                    );
                    return false;
                }
                if let Err(e) = file.flush() {
                    ctx.tracker
                        .lock()
                        .expect("tracker poisoned")
                        .fail(format!("flush {}: {e}", path.display()));
                    return false;
                }
                ctx.tracker.lock().expect("tracker poisoned").complete();
                let done = ctx.shards_done.fetch_add(1, Ordering::Relaxed) + 1;
                let total_rows = ctx.rows_total.fetch_add(rows, Ordering::Relaxed) + rows;
                ctx.store.publish(keys::SHARDS_DONE, done as u64);
                ctx.store.publish(keys::ROWS_TOTAL, total_rows);
                // The shard is durable in its .jsonl now; its checkpoint
                // is dead weight (and stale for any future run).
                let _ = std::fs::remove_file(&ckpt_path);
                println!("[serve] {peer}: completed {label} ({rows} rows)");
                return true;
            }
            Ok(Some(Message::Failed {
                experiment,
                shard,
                error,
            })) => {
                ctx.tracker.lock().expect("tracker poisoned").fail(format!(
                    "worker {peer} reported {experiment} {shard} failed: {error}"
                ));
                let _ = write_frame(writer, &Message::Shutdown);
                return false;
            }
            Ok(Some(other)) => {
                requeue(item, &format!("unexpected frame {other:?}"));
                return false;
            }
            Ok(None) => {
                requeue(item, "connection closed mid-shard");
                return false;
            }
            Err(FrameError::Timeout) => {
                if ctx
                    .tracker
                    .lock()
                    .expect("tracker poisoned")
                    .failure()
                    .is_some()
                {
                    // The run already failed elsewhere; abandon the shard.
                    let _ = write_frame(writer, &Message::Shutdown);
                    return false;
                }
                if liveness.miss() {
                    requeue(item, "missed heartbeats");
                    return false;
                }
            }
            Err(e) => {
                requeue(item, &format!("read failed: {e}"));
                return false;
            }
        }
    }
}

/// Validates and atomically persists one worker checkpoint: envelope
/// (version + FNV-1a hash) and assignment identity are checked before any
/// byte lands on disk, then the write goes to a sibling `.tmp` and renames
/// over the previous checkpoint — readers only ever see a whole sealed
/// envelope, never a torn one.
fn persist_checkpoint(
    path: &std::path::Path,
    state: &str,
    experiment: &str,
    shard_str: &str,
    ctx: &Ctx<'_>,
) -> Result<(), String> {
    ShardCheckpoint::from_json(state)
        .and_then(|c| c.matches(experiment, shard_str, ctx.profile.is_quick()))?;
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, state).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", tmp.display()))
}

/// One watcher connection: version-check the `Subscribe`, `Welcome` it,
/// then stream batched `StateUpdate` frames from the aggregated store
/// until the run finishes or the watcher goes away.
///
/// Isolation is the whole point of the shape here. The subscription's
/// queue is bounded (overflow drops the oldest updates and counts them),
/// the socket write carries a timeout (a stalled watcher's batch errors
/// out instead of wedging this thread past scope-join), and nothing in
/// this loop touches the work tracker — so a watcher attaching, stalling,
/// or detaching at any moment cannot move a single byte in the row files.
fn handle_watcher(
    mut reader: FrameReader<TcpStream>,
    mut writer: TcpStream,
    ctx: &Ctx<'_>,
    peer: &str,
    version: u32,
) {
    if version != PROTOCOL_VERSION {
        println!("[serve] {peer}: watcher protocol v{version} != v{PROTOCOL_VERSION}; rejecting");
        let _ = write_frame(
            &mut writer,
            &Message::Reject {
                reason: format!(
                    "protocol version mismatch: watcher v{version}, coordinator v{PROTOCOL_VERSION}"
                ),
            },
        );
        return;
    }
    let welcome = Message::Welcome {
        version: PROTOCOL_VERSION,
        heartbeat_ms: ctx.heartbeat.as_millis() as u64,
    };
    if write_frame(&mut writer, &welcome).is_err() {
        return;
    }
    let watchers = ctx.watchers.fetch_add(1, Ordering::Relaxed) + 1;
    println!("[serve] {peer}: watcher attached ({watchers} so far)");

    // Batch cadence: pace on the socket read timeout — the watcher sends
    // nothing after Subscribe, so every read returns Timeout on schedule.
    // The clone shares the underlying socket, so both timeouts stick.
    let pace = ctx.heartbeat.min(Duration::from_millis(250));
    if writer.set_read_timeout(Some(pace)).is_err()
        || writer.set_write_timeout(Some(ctx.heartbeat)).is_err()
    {
        println!("[serve] {peer}: cannot set watcher timeouts; dropping");
        return;
    }

    let sub = ctx.store.subscribe(DEFAULT_QUEUE_CAPACITY);
    loop {
        // Read the finish flag *before* draining: anything published
        // after this drain is at most one batch behind the final one.
        let finished = ctx.finished();
        let drain = sub.poll();
        let batch = Message::StateUpdate {
            updates: drain.updates,
            dropped: drain.dropped,
        };
        if write_frame(&mut writer, &batch).is_err() {
            println!("[serve] {peer}: watcher write failed; detaching");
            return;
        }
        if finished {
            let _ = write_frame(&mut writer, &Message::Shutdown);
            println!("[serve] {peer}: watcher done");
            return;
        }
        match reader.read() {
            Err(FrameError::Timeout) => {} // the pacing tick
            Ok(None) => {
                println!("[serve] {peer}: watcher detached");
                return;
            }
            Ok(Some(_)) => {} // watchers have nothing to say; ignore
            Err(e) => {
                println!("[serve] {peer}: watcher read failed: {e}");
                return;
            }
        }
    }
}
