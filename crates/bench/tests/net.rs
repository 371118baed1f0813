//! The distributed lab's wire contract and fault tolerance.
//!
//! Three layers. The codec: every `Message` variant round-trips through the
//! length-prefixed frame format (property-tested over adversarial string
//! content), truncation at any byte position is a hard `Truncated` error —
//! never a mangled message — and oversized length prefixes are rejected
//! before allocation. The handshake: a version-mismatched worker is turned
//! away with a `Reject` frame and the run still completes with conforming
//! workers. Fault injection: a worker killed mid-shard (silent, then gone)
//! is declared dead after the missed-heartbeat limit, its shard is
//! reassigned, and the merged output is byte-identical to an unsharded run
//! — the whole point of deterministic shards.

use cohesion_bench::lab::{run_experiment, Experiment, LabOptions, Profile, ProgressRecord, Shard};
use cohesion_bench::net::{
    codec::{encode_frame, write_frame},
    run_worker, serve_on, FrameError, FrameReader, Message, ServeOptions, WorkerOptions,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use cohesion_bench::resume::{run_shard_resumable, CheckpointControl, ShardCheckpoint};
use cohesion_telemetry::{StateUpdate, TelemetryValue};
use proptest::prelude::*;
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/net-test-scratch")
        .join(format!("{label}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn registry_experiment(name: &str) -> &'static dyn Experiment {
    *cohesion_bench::experiments::REGISTRY
        .iter()
        .find(|e| e.name() == name)
        .expect("registered")
}

/// The unsharded golden bytes for one registry experiment (quick profile).
fn golden_bytes(name: &str) -> Vec<u8> {
    let exp = registry_experiment(name);
    let dir = scratch_dir(&format!("golden-{name}"));
    let opts = LabOptions {
        profile: Profile::Quick,
        threads: Some(1),
        out_dir: Some(dir.clone()),
        shard: None,
        progress: false,
    };
    run_experiment(exp, &opts).expect("golden run");
    let bytes = std::fs::read(dir.join(format!("{}.jsonl", exp.output_stem()))).expect("golden");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

fn every_variant() -> Vec<Message> {
    vec![
        Message::Hello {
            version: PROTOCOL_VERSION,
            cores: 8,
        },
        Message::Welcome {
            version: PROTOCOL_VERSION,
            heartbeat_ms: 2000,
        },
        Message::Reject {
            reason: "protocol version mismatch: worker v9, coordinator v1".into(),
        },
        Message::Assign {
            experiment: "k_scaling".into(),
            shard: "1/4".into(),
            quick: true,
            resume: true,
        },
        Message::Checkpoint {
            experiment: "k_scaling".into(),
            shard: "1/4".into(),
            state: "{\"version\":1,\"hash\":42,\"state\":\"{\\\"rows\\\":[]}\"}".into(),
        },
        Message::KeepAlive,
        Message::Heartbeat {
            record: ProgressRecord {
                experiment: "k_scaling".into(),
                shard: "1/4".into(),
                cell: 3,
                tag: "k=5 \"quoted\" \\ tab\t".into(),
                phase: "heartbeat".into(),
                events: 100_000,
                rounds: 17,
                time: 42.5,
                diameter: 0.125,
                cohesion_ok: true,
                converged: false,
                rows: 0,
            },
        },
        Message::Rows {
            experiment: "k_scaling".into(),
            shard: "1/4".into(),
            chunk: "{\"k\":5,\"note\":\"line one\"}\n{\"k\":6,\"unicode\":\"λ→∎\"}\n".into(),
        },
        Message::Done {
            experiment: "k_scaling".into(),
            shard: "1/4".into(),
            rows: 2,
        },
        Message::Failed {
            experiment: "k_scaling".into(),
            shard: "1/4".into(),
            error: "invariant check failed: diameter grew".into(),
        },
        Message::Subscribe {
            version: PROTOCOL_VERSION,
        },
        Message::StateUpdate {
            updates: vec![
                StateUpdate {
                    seq: 1,
                    key: "serve/shards_total".into(),
                    value: TelemetryValue::U64(4),
                },
                StateUpdate {
                    seq: 2,
                    key: "k_scaling/1of4/progress/diameter".into(),
                    value: TelemetryValue::F64(0.125),
                },
                StateUpdate {
                    seq: 3,
                    key: "k_scaling/1of4/progress/phase".into(),
                    value: TelemetryValue::Text("heartbeat \"quoted\"".into()),
                },
                StateUpdate {
                    seq: 4,
                    key: "k_scaling/1of4/progress/cohesion_ok".into(),
                    value: TelemetryValue::Bool(true),
                },
            ],
            dropped: 7,
        },
        Message::Shutdown,
    ]
}

/// Every protocol variant survives encode → frame → decode, back-to-back on
/// one stream, followed by a clean EOF.
#[test]
fn codec_round_trips_every_message_variant() {
    let messages = every_variant();
    let mut wire = Vec::new();
    for msg in &messages {
        write_frame(&mut wire, msg).expect("write frame");
    }
    let mut reader = FrameReader::new(Cursor::new(wire));
    for msg in &messages {
        let got = reader.read().expect("read frame").expect("a frame");
        assert_eq!(&got, msg);
    }
    assert!(
        reader.read().expect("clean EOF").is_none(),
        "stream must end cleanly after the last frame"
    );
}

/// Encode → frame → decode for one message, expecting exact equality and a
/// clean EOF behind the single frame.
fn assert_round_trip(msg: Message) {
    let mut wire = Vec::new();
    write_frame(&mut wire, &msg).expect("write frame");
    let mut reader = FrameReader::new(Cursor::new(wire));
    assert_eq!(reader.read().expect("read frame").expect("a frame"), msg);
    assert!(reader.read().expect("clean EOF").is_none());
}

// One named round-trip test per protocol variant. These are what lint rule
// P1 cross-checks against `enum Message`: every variant must be constructed
// inside a `round_trip_*` test, so adding a variant without coverage (or
// deleting one of these) fails `cohesion-lint`. Keep the constructions
// inline — routing them through `every_variant()` would hide the per-variant
// coverage the rule certifies.

#[test]
fn round_trip_hello() {
    assert_round_trip(Message::Hello {
        version: PROTOCOL_VERSION,
        cores: 8,
    });
}

#[test]
fn round_trip_welcome() {
    assert_round_trip(Message::Welcome {
        version: PROTOCOL_VERSION,
        heartbeat_ms: 2000,
    });
}

#[test]
fn round_trip_reject() {
    assert_round_trip(Message::Reject {
        reason: "protocol version mismatch: worker v9, coordinator v1".into(),
    });
}

#[test]
fn round_trip_assign() {
    assert_round_trip(Message::Assign {
        experiment: "k_scaling".into(),
        shard: "1/4".into(),
        quick: true,
        resume: false,
    });
}

#[test]
fn round_trip_keep_alive() {
    assert_round_trip(Message::KeepAlive);
}

#[test]
fn round_trip_heartbeat() {
    assert_round_trip(Message::Heartbeat {
        record: ProgressRecord {
            experiment: "k_scaling".into(),
            shard: "1/4".into(),
            cell: 3,
            tag: "k=5 \"quoted\" \\ tab\t".into(),
            phase: "heartbeat".into(),
            events: 100_000,
            rounds: 17,
            time: 42.5,
            diameter: 0.125,
            cohesion_ok: true,
            converged: false,
            rows: 0,
        },
    });
}

#[test]
fn round_trip_rows() {
    assert_round_trip(Message::Rows {
        experiment: "k_scaling".into(),
        shard: "1/4".into(),
        chunk: "{\"k\":5}\n{\"k\":6,\"unicode\":\"λ→∎\"}\n".into(),
    });
}

#[test]
fn round_trip_done() {
    assert_round_trip(Message::Done {
        experiment: "k_scaling".into(),
        shard: "1/4".into(),
        rows: 2,
    });
}

#[test]
fn round_trip_checkpoint() {
    assert_round_trip(Message::Checkpoint {
        experiment: "k_scaling".into(),
        shard: "1/4".into(),
        state: "{\"version\":1,\"hash\":42,\"state\":\"{\\\"rows\\\":[]}\"}".into(),
    });
}

#[test]
fn round_trip_failed() {
    assert_round_trip(Message::Failed {
        experiment: "k_scaling".into(),
        shard: "1/4".into(),
        error: "invariant check failed: diameter grew".into(),
    });
}

#[test]
fn round_trip_subscribe() {
    assert_round_trip(Message::Subscribe {
        version: PROTOCOL_VERSION,
    });
}

#[test]
fn round_trip_state_update() {
    assert_round_trip(Message::StateUpdate {
        updates: vec![
            StateUpdate {
                seq: 41,
                key: "engine/positions_digest".into(),
                value: TelemetryValue::U64(0xDEAD_BEEF),
            },
            StateUpdate {
                seq: 42,
                key: "engine/diameter".into(),
                value: TelemetryValue::F64(1.0625e-3),
            },
            StateUpdate {
                seq: 43,
                key: "k_scaling/0of2/progress/phase".into(),
                value: TelemetryValue::Text("tag \"λ→∎\" \\ tab\t".into()),
            },
            StateUpdate {
                seq: 44,
                key: "k_scaling/0of2/progress/converged".into(),
                value: TelemetryValue::Bool(false),
            },
        ],
        dropped: 3,
    });
    // The empty batch is the watcher-liveness tick; it must survive too.
    assert_round_trip(Message::StateUpdate {
        updates: Vec::new(),
        dropped: 0,
    });
}

#[test]
fn round_trip_shutdown() {
    assert_round_trip(Message::Shutdown);
}

/// Builds a string from raw byte values, exercising every JSON escape
/// class: control characters, quotes, backslashes, multi-byte unicode.
fn adversarial_string(bytes: &[u32]) -> String {
    bytes
        .iter()
        .map(|&b| match b {
            0..=0x7E => char::from(b as u8),
            _ => char::from_u32(0x2500 + b).expect("valid BMP char"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row chunks with arbitrary content — control bytes, quotes,
    /// backslashes, non-ASCII — round-trip exactly. This is what guards the
    /// byte-identity contract: chunk bytes out equal chunk bytes in.
    #[test]
    fn codec_round_trips_adversarial_strings(
        exp_bytes in proptest::collection::vec(0u32..256, 0..24),
        chunk_bytes in proptest::collection::vec(0u32..256, 0..512),
        rows in any::<u64>(),
    ) {
        let msg = Message::Rows {
            experiment: adversarial_string(&exp_bytes),
            shard: "0/1".into(),
            chunk: adversarial_string(&chunk_bytes),
        };
        let done = Message::Done {
            experiment: adversarial_string(&exp_bytes),
            shard: "0/1".into(),
            rows,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg).expect("write");
        write_frame(&mut wire, &done).expect("write");
        let mut reader = FrameReader::new(Cursor::new(wire));
        prop_assert_eq!(reader.read().unwrap().unwrap(), msg);
        prop_assert_eq!(reader.read().unwrap().unwrap(), done);
        prop_assert!(reader.read().unwrap().is_none());
    }

    /// A stream cut at any interior byte position is a `Truncated` error
    /// that reports exactly how much of the frame arrived — never a decode
    /// of partial bytes, never a silent EOF.
    #[test]
    fn truncated_frames_fail_loudly(
        chunk_bytes in proptest::collection::vec(0u32..256, 0..256),
        cut_seed in any::<u64>(),
    ) {
        let msg = Message::Rows {
            experiment: "k_scaling".into(),
            shard: "0/2".into(),
            chunk: adversarial_string(&chunk_bytes),
        };
        let wire = encode_frame(&msg);
        let cut = 1 + (cut_seed as usize) % (wire.len() - 1);
        let mut reader = FrameReader::new(Cursor::new(wire[..cut].to_vec()));
        match reader.read() {
            Err(FrameError::Truncated { got, want }) => {
                prop_assert_eq!(got, cut);
                prop_assert_eq!(want, if cut < 4 { 4 } else { wire.len() });
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "cut at {cut}/{} must be Truncated, got {other:?}",
                    wire.len()
                )));
            }
        }
    }
}

/// A length prefix beyond the cap is rejected before any allocation, and
/// garbage payloads fail as decode errors, not panics.
#[test]
fn oversized_and_garbage_frames_are_rejected() {
    let too_big = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes();
    let mut reader = FrameReader::new(Cursor::new(too_big.to_vec()));
    assert!(
        matches!(reader.read(), Err(FrameError::TooLarge(n)) if n == MAX_FRAME_BYTES + 1),
        "oversized prefix must be TooLarge"
    );

    for payload in [
        &b"not json"[..],
        b"{\"Nope\":{}}",
        b"{\"Hello\":{}}",
        b"[1,2]",
        b"{\"Subscribe\":{\"version\":3},\"Shutdown\":null}",
    ] {
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(payload);
        let mut reader = FrameReader::new(Cursor::new(wire));
        assert!(
            matches!(reader.read(), Err(FrameError::Decode(_))),
            "payload {payload:?} must be a decode error"
        );
    }
}

/// A reader that yields one byte per call, interleaving a timeout before
/// each — the shape of a slow worker under the coordinator's read timeout.
struct OneByteWithTimeouts {
    bytes: Vec<u8>,
    pos: usize,
    timeout_next: bool,
}

impl std::io::Read for OneByteWithTimeouts {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.timeout_next {
            self.timeout_next = false;
            return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"));
        }
        self.timeout_next = true;
        if self.pos == self.bytes.len() {
            return Ok(0);
        }
        buf[0] = self.bytes[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

/// Read timeouts at every byte boundary never desynchronize the stream:
/// the reader reports `Timeout` (a missed-heartbeat tick) and resumes
/// mid-frame until the full message lands.
#[test]
fn frame_reader_resumes_across_timeouts() {
    let messages = every_variant();
    let mut wire = Vec::new();
    for msg in &messages {
        wire.extend_from_slice(&encode_frame(msg));
    }
    let mut reader = FrameReader::new(OneByteWithTimeouts {
        bytes: wire,
        pos: 0,
        timeout_next: true,
    });
    let mut got = Vec::new();
    loop {
        match reader.read() {
            Ok(Some(msg)) => got.push(msg),
            Ok(None) => break,
            Err(FrameError::Timeout) => continue,
            Err(e) => panic!("unexpected frame error: {e}"),
        }
    }
    assert_eq!(got, messages);
}

/// A worker speaking the wrong protocol version is rejected with a
/// `Reject` frame naming both versions — and the run still completes once
/// a conforming worker shows up, byte-identical to an unsharded run.
#[test]
fn version_mismatch_is_rejected_and_run_survives() {
    let golden = golden_bytes("safe_regions");
    let dir = scratch_dir("version-mismatch");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let mut opts = ServeOptions::new(
        vec![registry_experiment("safe_regions")],
        Profile::Quick,
        dir.clone(),
        2,
    );
    opts.heartbeat = Duration::from_millis(200);

    std::thread::scope(|scope| {
        let server = scope.spawn(move || serve_on(listener, opts));

        // The nonconforming worker: Hello with a future version.
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        write_frame(
            &mut writer,
            &Message::Hello {
                version: PROTOCOL_VERSION + 9,
                cores: 1,
            },
        )
        .expect("send bad hello");
        let mut reader = FrameReader::new(stream);
        match reader.read() {
            Ok(Some(Message::Reject { reason })) => {
                assert!(reason.contains("version mismatch"), "{reason}");
                assert!(
                    reason.contains(&format!("v{}", PROTOCOL_VERSION + 9)),
                    "must name the worker's version: {reason}"
                );
            }
            other => panic!("expected Reject, got {other:?}"),
        }
        drop(reader);
        drop(writer);

        // A conforming worker finishes the run.
        let worker = scope.spawn(|| run_worker(&WorkerOptions::new(addr.clone())));
        let summary = server.join().expect("server thread").expect("serve ok");
        assert_eq!(summary.workers, 1, "only the conforming worker counts");
        worker.join().expect("worker thread").expect("worker ok");
    });

    let merged = std::fs::read(dir.join("f3_safe_regions.jsonl")).expect("merged");
    assert_eq!(merged, golden, "merged output must match the unsharded run");
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-a-worker fault injection: a worker handshakes, takes a shard,
/// streams a partial chunk, then goes silent. After the missed-heartbeat
/// limit the coordinator declares it dead and requeues the shard; a healthy
/// worker reruns it from scratch (the partial rows are discarded), and the
/// merged output is byte-identical to the unsharded golden.
#[test]
fn killed_worker_shard_is_reassigned_and_output_is_byte_identical() {
    let golden = golden_bytes("k_scaling");
    let dir = scratch_dir("kill-worker");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let mut opts = ServeOptions::new(
        vec![registry_experiment("k_scaling")],
        Profile::Quick,
        dir.clone(),
        2,
    );
    // Fast death: 150ms beats, 3 misses ≈ dead in under half a second.
    opts.heartbeat = Duration::from_millis(150);
    opts.missed_limit = 3;

    std::thread::scope(|scope| {
        let server = scope.spawn(move || serve_on(listener, opts));

        // The doomed worker: valid handshake, accepts its assignment,
        // streams one partial (garbage) chunk, then falls silent without
        // closing — only missed heartbeats can catch this failure mode.
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        write_frame(
            &mut writer,
            &Message::Hello {
                version: PROTOCOL_VERSION,
                cores: 1,
            },
        )
        .expect("hello");
        let mut reader = FrameReader::new(stream);
        match reader.read() {
            Ok(Some(Message::Welcome { version, .. })) => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected Welcome, got {other:?}"),
        }
        let (experiment, shard) = match reader.read() {
            Ok(Some(Message::Assign {
                experiment, shard, ..
            })) => (experiment, shard),
            other => panic!("expected Assign, got {other:?}"),
        };
        assert_eq!(experiment, "k_scaling");
        write_frame(
            &mut writer,
            &Message::Rows {
                experiment,
                shard,
                chunk: "{\"partial\":\"rows from a worker about to die\"}\n".into(),
            },
        )
        .expect("partial rows");
        // Fall silent. Hold the socket open until the coordinator gives up
        // on us (it stops reading; the healthy worker finishes the run).

        let worker = scope.spawn(|| run_worker(&WorkerOptions::new(addr.clone())));
        let summary = server.join().expect("server thread").expect("serve ok");
        assert!(
            summary.reassignments >= 1,
            "the dead worker's shard must be reassigned (got {})",
            summary.reassignments
        );
        let healthy = worker.join().expect("worker thread").expect("worker ok");
        assert_eq!(
            healthy.shards_run, summary.shards,
            "the healthy worker must end up running every shard"
        );
        drop(reader);
        drop(writer);
    });

    let merged = std::fs::read(dir.join("t4_k_scaling.jsonl")).expect("merged");
    assert_eq!(
        merged, golden,
        "merged output after a worker death must match the unsharded run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Precomputes, for every shard of an experiment, the first checkpoint a
/// worker with the given cadence would ship — what a real worker has on the
/// wire right before a preemption kills it.
fn first_checkpoints(
    exp: &'static dyn Experiment,
    count: usize,
    checkpoint_events: usize,
) -> Vec<ShardCheckpoint> {
    (0..count)
        .map(|index| {
            let mut captured = None;
            let stopped = run_shard_resumable(
                exp,
                Profile::Quick,
                Shard { index, count },
                None,
                checkpoint_events,
                None,
                &mut |ckpt| {
                    captured = Some(ckpt.clone());
                    CheckpointControl::Stop
                },
            )
            .expect("drive to first checkpoint");
            assert!(stopped.is_none(), "Stop must abandon the run");
            captured.expect("a checkpoint before shard completion")
        })
        .collect()
}

/// Checkpoint-resume fault injection: a worker handshakes, takes a shard,
/// ships one mid-run checkpoint, then is killed (silent, then gone). The
/// coordinator must persist the checkpoint, declare the worker dead, and
/// reassign the shard *with the checkpoint attached* — the replacement
/// resumes instead of recomputing, and the merged output is still
/// byte-identical to the unsharded golden. Afterwards no `.ckpt` files
/// remain: completed shards delete their checkpoints.
#[test]
fn checkpointed_worker_death_resumes_without_recompute() {
    let exp = registry_experiment("k_scaling");
    let golden = golden_bytes("k_scaling");
    // The checkpoints a worker would cut early in each shard: a tiny
    // cadence guarantees one exists before the first cell completes.
    let checkpoints = first_checkpoints(exp, 2, 64);

    let dir = scratch_dir("checkpoint-resume");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let mut opts = ServeOptions::new(vec![exp], Profile::Quick, dir.clone(), 2);
    opts.heartbeat = Duration::from_millis(150);
    opts.missed_limit = 3;

    std::thread::scope(|scope| {
        let server = scope.spawn(move || serve_on(listener, opts));

        // The doomed worker: valid handshake, accepts its assignment, ships
        // one real checkpoint for it, then falls silent without closing —
        // the kill arrives between two checkpoints, as preemptions do.
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        write_frame(
            &mut writer,
            &Message::Hello {
                version: PROTOCOL_VERSION,
                cores: 1,
            },
        )
        .expect("hello");
        let mut reader = FrameReader::new(stream);
        match reader.read() {
            Ok(Some(Message::Welcome { version, .. })) => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected Welcome, got {other:?}"),
        }
        let (experiment, shard) = match reader.read() {
            Ok(Some(Message::Assign {
                experiment,
                shard,
                resume,
                ..
            })) => {
                assert!(!resume, "nothing to resume on a fresh run");
                (experiment, shard)
            }
            other => panic!("expected Assign, got {other:?}"),
        };
        assert_eq!(experiment, "k_scaling");
        let assigned = Shard::parse(&shard).expect("assigned shard");
        let ckpt = &checkpoints[assigned.index];
        assert_eq!(ckpt.shard, shard, "precomputed checkpoint matches");
        write_frame(
            &mut writer,
            &Message::Checkpoint {
                experiment,
                shard,
                state: ckpt.to_json(),
            },
        )
        .expect("ship checkpoint");
        // Fall silent. Hold the socket open until the coordinator gives up.

        let worker = scope.spawn(|| run_worker(&WorkerOptions::new(addr.clone())));
        let summary = server.join().expect("server thread").expect("serve ok");
        assert!(
            summary.reassignments >= 1,
            "the dead worker's shard must be reassigned (got {})",
            summary.reassignments
        );
        assert!(
            summary.resumes >= 1,
            "the reassignment must carry the persisted checkpoint (got {} resumes)",
            summary.resumes
        );
        let healthy = worker.join().expect("worker thread").expect("worker ok");
        assert_eq!(
            healthy.shards_run, summary.shards,
            "the healthy worker must end up running every shard"
        );
        assert!(
            healthy.shards_resumed >= 1,
            "the healthy worker must have resumed the dead worker's shard"
        );
        drop(reader);
        drop(writer);
    });

    let merged = std::fs::read(dir.join("t4_k_scaling.jsonl")).expect("merged");
    assert_eq!(
        merged, golden,
        "merged output after a checkpoint resume must match the unsharded run"
    );
    let leftover: Vec<_> = std::fs::read_dir(&dir)
        .expect("read scratch")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".ckpt") || n.ends_with(".ckpt.tmp"))
        .collect();
    assert!(
        leftover.is_empty(),
        "completed shards must delete their checkpoints: {leftover:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
