//! The resumable shard driver's contract, at the lab level.
//!
//! The engine half (save/restore at arbitrary event boundaries is
//! byte-for-byte) is property-tested in `crates/engine/tests/
//! checkpoint_restore.rs`. Here the lift to shards is pinned: a full
//! resumable pass equals the classic `run_shard_cells` row-for-row, a run
//! cut at a mid-cell checkpoint and resumed in a fresh driver reproduces
//! the uninterrupted rows exactly, the resumed driver starts *strictly
//! beyond* the cut (no recompute of completed cells, no restart of the
//! in-flight cell), mismatched resumes fail loudly instead of producing
//! wrong rows, and a checkpointing worker beats on the same heartbeat grid
//! as a local run.

mod common;

use cohesion_bench::lab::{
    run_shard_cells, Experiment, Profile, ProgressOutput, ProgressRecord, ProgressSink, Shard,
    PROGRESS_HEARTBEAT_EVENTS,
};
use cohesion_bench::resume::{run_shard_resumable, CheckpointControl, ShardCheckpoint};
use cohesion_engine::Checkpoint;
use std::sync::{Arc, Mutex};

fn registry_experiment(name: &str) -> &'static dyn Experiment {
    *cohesion_bench::experiments::REGISTRY
        .iter()
        .find(|e| e.name() == name)
        .expect("registered")
}

/// The rows `lab run --shard` would write for this shard, via the classic
/// (non-resumable) cell runner.
fn classic_rows(exp: &dyn Experiment, shard: Shard) -> Vec<String> {
    run_shard_cells(exp, Profile::Quick, Some(shard), Some(1), None)
        .iter()
        .flat_map(|cell| cell.rows.iter().map(|r| r.as_str().to_string()))
        .collect()
}

/// A [`ProgressOutput`] that captures every record for later inspection.
struct CaptureProgress(Arc<Mutex<Vec<ProgressRecord>>>);

impl ProgressOutput for CaptureProgress {
    fn record(&self, record: &ProgressRecord) {
        self.0
            .lock()
            .expect("capture poisoned")
            .push(record.clone());
    }
}

/// A complete resumable pass produces exactly the classic runner's rows for
/// every cell kind: 2D sessions (`k_scaling`, `convergence_rate`), 3D
/// sessions (`extensions`), §7 adversary cells (`impossibility`) and a
/// bespoke driver (`lemmas`). The cadence is small enough to cut sessions
/// mid-run, and resuming from the last mid-cell cut (for `extensions`, one
/// inside its final, 3D cell) reproduces the same rows.
#[test]
fn resumable_driver_matches_classic_runner_row_for_row() {
    let cadence = 1024;
    for (name, sessions) in [
        ("k_scaling", true),
        ("convergence_rate", true),
        ("extensions", true),
        ("impossibility", false),
        ("lemmas", false),
    ] {
        let exp = registry_experiment(name);
        let shard = Shard { index: 0, count: 1 };
        let classic = classic_rows(exp, shard);
        let mut last_cut: Option<ShardCheckpoint> = None;
        let outcome =
            run_shard_resumable(exp, Profile::Quick, shard, None, cadence, None, &mut |c| {
                if c.current.is_some() {
                    last_cut = Some(c.clone());
                }
                CheckpointControl::Continue
            })
            .expect("resumable pass")
            .expect("ran to completion");
        assert_eq!(
            outcome.rows, classic,
            "{name}: resumable rows must equal the classic runner's"
        );
        assert_eq!(
            last_cut.is_some(),
            sessions,
            "{name}: exactly the session cells are cut mid-run"
        );
        if let Some(cut) = last_cut {
            let resumed = run_shard_resumable(
                exp,
                Profile::Quick,
                shard,
                Some(cut),
                cadence,
                None,
                &mut |_| CheckpointControl::Continue,
            )
            .expect("resumed pass")
            .expect("ran to completion");
            assert_eq!(
                resumed.rows, classic,
                "{name}: rows resumed from the last mid-cell cut must equal the classic runner's"
            );
        }
    }
}

/// Cut at an early mid-cell checkpoint, resume in a fresh driver: the rows
/// are the uninterrupted rows, the resumed driver never re-runs a completed
/// cell, and its first own checkpoint sits strictly beyond the cut.
#[test]
fn resume_continues_strictly_beyond_the_cut_without_recompute() {
    let exp = registry_experiment("k_scaling");
    let shard = Shard { index: 1, count: 2 };
    let cadence = 64;

    // First pass: stop at the first checkpoint, keeping it as the hand-off.
    let mut cut: Option<ShardCheckpoint> = None;
    let stopped = run_shard_resumable(exp, Profile::Quick, shard, None, cadence, None, &mut |c| {
        cut = Some(c.clone());
        CheckpointControl::Stop
    })
    .expect("first pass");
    assert!(stopped.is_none(), "Stop must abandon the run");
    let cut = cut.expect("a checkpoint before shard completion");
    let mid_cell = cut.current.clone().expect("a mid-cell cut at this cadence");
    assert!(mid_cell.events > 0, "the cut must carry real progress");

    // Second pass: resume from the cut, capturing progress and checkpoints.
    let records = Arc::new(Mutex::new(Vec::new()));
    let capture = ProgressSink::with_output(
        "k_scaling",
        Some(shard),
        Box::new(CaptureProgress(Arc::clone(&records))),
    );
    let mut later_cuts: Vec<ShardCheckpoint> = Vec::new();
    let resumed = run_shard_resumable(
        exp,
        Profile::Quick,
        shard,
        Some(cut.clone()),
        cadence,
        Some(&capture),
        &mut |c| {
            later_cuts.push(c.clone());
            CheckpointControl::Continue
        },
    )
    .expect("resumed pass")
    .expect("ran to completion");

    // Byte-for-byte: the resumed run's rows equal the uninterrupted ones.
    assert_eq!(
        resumed.rows,
        classic_rows(exp, shard),
        "resumed rows must equal the uninterrupted run's"
    );
    // No recompute: only the in-flight cell and later ones executed here.
    let range = shard.slice(exp.grid(Profile::Quick).len());
    assert_eq!(
        resumed.cells.len(),
        (range.end - range.start) - cut.cells_done,
        "the resumed driver must execute exactly the remaining cells"
    );
    let first_started = records
        .lock()
        .expect("capture poisoned")
        .iter()
        .filter(|r| r.phase == "start")
        .map(|r| r.cell)
        .min()
        .expect("the resumed run starts at least one cell");
    assert_eq!(
        first_started, mid_cell.cell,
        "no cell before the in-flight one may execute again"
    );
    // Strictly beyond the cut: the resumed driver's first checkpoint of the
    // same cell has a larger event count — it continued, not restarted.
    let first_same_cell = later_cuts
        .iter()
        .filter_map(|c| c.current.as_ref())
        .find(|c| c.cell == mid_cell.cell);
    if let Some(next) = first_same_cell {
        assert!(
            next.events > mid_cell.events,
            "resumed cell must continue beyond the cut ({} -> {})",
            mid_cell.events,
            next.events
        );
    }
}

/// A shard checkpoint persisted by an older build (`k_scaling`, quick,
/// shard 0/2, cut inside cell 1 at cadence 256) still decodes, re-encodes
/// to the same bytes, and resumes to the uninterrupted rows.
#[test]
fn v1_shard_checkpoint_fixture_round_trips_and_resumes() {
    let text = include_str!("fixtures/shard_checkpoint_v1.json");
    let ckpt = ShardCheckpoint::from_json(text).expect("v1 shard checkpoint");
    assert_eq!(ckpt.to_json(), text);
    let cut = ckpt.current.as_ref().expect("a mid-cell cut");
    let engine = Checkpoint::from_json(&cut.engine).expect("v1 engine checkpoint");
    assert_eq!(engine.to_json(), cut.engine);

    let exp = registry_experiment("k_scaling");
    let shard = Shard { index: 0, count: 2 };
    let resumed = run_shard_resumable(
        exp,
        Profile::Quick,
        shard,
        Some(ckpt),
        256,
        None,
        &mut |_| CheckpointControl::Continue,
    )
    .expect("resumed pass")
    .expect("ran to completion");
    assert_eq!(resumed.rows, classic_rows(exp, shard));
}

/// Measurement harness behind the `checkpoint_resume_wall_clock` entry in
/// `BENCH_lab.json`: wall clock of a whole-grid run from scratch vs
/// resuming from a checkpoint cut roughly halfway through. Ignored by
/// default (it measures, it doesn't assert); regenerate with
/// `cargo test -p cohesion-bench --test resume --release -- --ignored --nocapture`.
#[test]
#[ignore = "measurement harness for BENCH_lab.json, not a correctness test"]
fn bench_resume_vs_scratch_wall_clock() {
    use std::time::Instant;
    let exp = registry_experiment("k_scaling");
    let shard = Shard { index: 0, count: 1 };
    let cadence = 2_000;

    // Find the halfway cut: count the checkpoints of one full pass, then
    // rerun and stop at the middle one.
    let mut total = 0usize;
    run_shard_resumable(exp, Profile::Quick, shard, None, cadence, None, &mut |_| {
        total += 1;
        CheckpointControl::Continue
    })
    .expect("counting pass");
    let mut cut = None;
    let mut seen = 0usize;
    run_shard_resumable(exp, Profile::Quick, shard, None, cadence, None, &mut |c| {
        seen += 1;
        if seen * 2 >= total {
            cut = Some(c.clone());
            CheckpointControl::Stop
        } else {
            CheckpointControl::Continue
        }
    })
    .expect("cutting pass");
    let cut = cut.expect("a halfway cut");

    // Time with an effectively-infinite cadence so the measurement sees
    // compute, not checkpoint serialization.
    let median_ms = |resume: &Option<ShardCheckpoint>| {
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                run_shard_resumable(
                    exp,
                    Profile::Quick,
                    shard,
                    resume.clone(),
                    usize::MAX,
                    None,
                    &mut |_| CheckpointControl::Continue,
                )
                .expect("timed pass")
                .expect("ran to completion");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        (samples[0], samples[2], samples[4])
    };
    let (s_min, s_med, s_max) = median_ms(&None);
    let resume = Some(cut);
    let (r_min, r_med, r_max) = median_ms(&resume);
    println!("scratch:  median {s_med:.1} ms (min {s_min:.1}, max {s_max:.1})");
    println!("resumed:  median {r_med:.1} ms (min {r_min:.1}, max {r_max:.1})");
    println!(
        "ratio: resume-from-~50% is {:.2}x the scratch rerun",
        r_med / s_med
    );
}

/// A checkpoint for another assignment — wrong shard, wrong experiment, or
/// wrong profile — is refused outright, never silently misapplied.
#[test]
fn mismatched_resume_is_refused() {
    let exp = registry_experiment("k_scaling");
    let shard = Shard { index: 0, count: 2 };
    let mut cut: Option<ShardCheckpoint> = None;
    run_shard_resumable(exp, Profile::Quick, shard, None, 64, None, &mut |c| {
        cut = Some(c.clone());
        CheckpointControl::Stop
    })
    .expect("first pass");
    let cut = cut.expect("a checkpoint");

    let other_shard = Shard { index: 1, count: 2 };
    let err = run_shard_resumable(
        exp,
        Profile::Quick,
        other_shard,
        Some(cut.clone()),
        64,
        None,
        &mut |_| CheckpointControl::Continue,
    )
    .expect_err("wrong shard must be refused");
    assert!(err.contains("checkpoint is for"), "{err}");

    let other_exp = registry_experiment("convergence_rate");
    let err = run_shard_resumable(
        other_exp,
        Profile::Quick,
        shard,
        Some(cut),
        64,
        None,
        &mut |_| CheckpointControl::Continue,
    )
    .expect_err("wrong experiment must be refused");
    assert!(err.contains("checkpoint is for"), "{err}");
}

/// A worker cutting every 30000 events beats where a local `--progress` run
/// does — at exactly 100000 and 200000 events — and cuts at exactly the
/// multiples of its cadence: the two grids never push each other off.
#[test]
fn worker_heartbeats_stay_on_the_local_grid() {
    let shard = Shard { index: 0, count: 1 };
    let records = Arc::new(Mutex::new(Vec::new()));
    let capture = ProgressSink::with_output(
        "long_cell",
        Some(shard),
        Box::new(CaptureProgress(Arc::clone(&records))),
    );
    let mut cuts = Vec::new();
    run_shard_resumable(
        &common::LongCell,
        Profile::Quick,
        shard,
        None,
        30_000,
        Some(&capture),
        &mut |c| {
            cuts.extend(c.current.as_ref().map(|cut| cut.events));
            CheckpointControl::Continue
        },
    )
    .expect("resumable pass")
    .expect("ran to completion");
    let beats: Vec<usize> = records
        .lock()
        .expect("capture poisoned")
        .iter()
        .filter(|r| r.phase == "heartbeat")
        .map(|r| r.events)
        .collect();
    assert_eq!(
        beats,
        [PROGRESS_HEARTBEAT_EVENTS, 2 * PROGRESS_HEARTBEAT_EVENTS],
        "worker heartbeats must sit on the local 100k grid"
    );
    assert_eq!(cuts, (1..=8).map(|i| i * 30_000).collect::<Vec<_>>());
}
