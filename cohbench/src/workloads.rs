//! The three workloads, each in an untraced form (end-to-end metrics) and a
//! traced form (per-layer spans and counters).

use crate::calib::{self, Timed};
use crate::golden;
use crate::replica::{replay, Outcome, Replay, SessionSpec};
use crate::stats;
use crate::trace;
use cohesion_bench::experiments::REGISTRY;
use cohesion_bench::lab::{progress_file_name, run_experiment, LabOptions, Profile};
use cohesion_bench::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use cohesion_core::KirkpatrickAlgorithm;
use cohesion_engine::{Checkpoint, SessionStatus, Simulation};
use cohesion_model::Configuration;
use cohesion_scheduler::{AsyncScheduler, KAsyncScheduler};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAMES: [&str; 3] = ["converge-dense-256", "session-lattice-1024", "lab-full"];

/// `setup_s` is the median of set-up samples, each the mean of a batch of
/// back-to-back set-ups sized per workload so that one sample takes tens of
/// milliseconds (a single millisecond-scale set-up is dominated by
/// page-fault and cache noise). `SETUP_SAMPLES` are taken before the
/// measured loop and one more before every iteration, so they span the run.
const SETUP_SAMPLES: usize = 5;

/// Times one batch of `batch` calls of `f(i)`; returns the time per call.
fn setup_sample(batch: usize, mut f: impl FnMut(usize)) -> Timed {
    let (time, ()) = calib::time(|sw| {
        for i in 0..batch {
            f(i);
            sw.tick();
        }
    });
    time.scaled(1.0 / batch as f64)
}

/// `converge-dense-256`: robots, and swarms per run (each run converges the
/// same `DENSE_SWARMS` swarms, derived from the seed, round-robin).
const DENSE_N: usize = 256;
const DENSE_SWARMS: u64 = 12;

/// `session-lattice-1024`: a 32×32 lattice, spacing 0.9, fixed budget;
/// each run drives `LATTICE_SESSIONS` sessions whose scheduler seeds are
/// derived from the run seed (the monitors' work varies by ±5% with the
/// schedule, so one session per run would make the seed the main noise).
const LATTICE_SIDE: usize = 32;
const LATTICE_SESSIONS: u64 = 3;
const LATTICE_SPACING: f64 = 0.9;
const LATTICE_BUDGET: usize = 12_000;
const LATTICE_K: u32 = 4;

/// Worker threads for the lab sweep.
const LAB_THREADS: usize = 2;

/// Where a run writes its scratch files (lab rows, span dumps).
pub struct Env {
    pub out_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Pass/fail bookkeeping for the correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Time per set-up, one entry per batch.
    pub setup: Vec<Timed>,
    /// Per input: each repeat's time, and the input's (deterministic)
    /// engine event count.
    pub runs: Vec<(Vec<Timed>, u64)>,
    /// Deterministic work per pass over the run's inputs.
    pub counts: BTreeMap<String, u64>,
    pub checks: Checks,
    /// The process's peak RSS after the first iteration: one pass of the
    /// workload, as a user's process would run it (later iterations only
    /// add allocator fragmentation, which varies with thread timing).
    pub peak_rss_mb: f64,
}

impl Measured {
    fn record(&mut self, input: usize, time: Timed, events: u64) {
        if self.runs.len() <= input {
            self.runs.resize(input + 1, (Vec::new(), events));
        }
        self.runs[input].0.push(time);
    }

    /// Median seconds per set-up (normalized, or raw).
    pub fn setup_s(&self, normalized: bool) -> f64 {
        stats::median(&values(&self.setup, normalized))
    }

    /// Mean over inputs of each input's median seconds.
    pub fn wall_s(&self, normalized: bool) -> f64 {
        let medians: Vec<f64> = self
            .runs
            .iter()
            .map(|r| stats::median(&values(&r.0, normalized)))
            .collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    }

    /// Events of one pass over the inputs per second of that pass (each
    /// input at its median).
    pub fn events_per_s(&self, normalized: bool) -> f64 {
        let events: u64 = self.runs.iter().map(|r| r.1).sum();
        events as f64 / (self.wall_s(normalized) * self.runs.len() as f64)
    }
}

pub fn values(times: &[Timed], normalized: bool) -> Vec<f64> {
    times
        .iter()
        .map(|t| if normalized { t.normalized } else { t.raw })
        .collect()
}

/// What a traced run recorded: spans of the first pass, per-call samples
/// of every pass, counters of the first pass, and the wall times of the
/// traced and untraced passes.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: Vec<trace::Span>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub counters: BTreeMap<String, f64>,
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    /// Sum of top-level span time in the traced passes.
    pub attributed_s: f64,
    /// Self time per span name over the traced passes, in seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    pub checks: Checks,
}

impl Traced {
    /// Folds one traced pass in. Counters and the span dump come from the
    /// first pass only, so they are exact and repeatable.
    fn absorb(&mut self, spans: Vec<trace::Span>, counters: BTreeMap<&'static str, u64>) {
        let summary = trace::summarize(&spans);
        for (name, v) in summary.self_ns {
            *self.self_s.entry(name).or_default() += v.iter().sum::<u64>() as f64 * 1e-9;
            self.samples
                .entry(name)
                .or_default()
                .extend(v.iter().map(|&x| x as f64));
        }
        self.attributed_s += summary.top_level_ns as f64 * 1e-9;
        if self.spans.is_empty() {
            for (name, v) in counters {
                self.counters.insert(name.to_string(), v as f64);
            }
            for (name, v) in summary.inclusive {
                self.counters
                    .insert(format!("{name}.calls"), v.len() as f64);
            }
            self.spans = spans;
        }
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64 step: derives per-swarm seeds from the run seed.
fn mix(seed: u64, j: u64) -> u64 {
    let mut z = seed
        .wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// For the default seed, checks `(events, final-positions digest)`
/// against the recorded golden pair.
fn check_golden(checks: &mut Checks, seed: u64, got: (u64, u64), golden: (u64, u64)) {
    if seed == golden::SEED {
        checks.check(got == golden, || {
            format!("seed {seed}: (events, digest) {got:?} differ from golden {golden:?}")
        });
    }
}

// ---------------------------------------------------------------------------
// converge-dense-256
// ---------------------------------------------------------------------------

pub fn dense_spec(n: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        WorkloadSpec::RandomConnected { n, v: 1.0, seed },
        AlgorithmSpec::Kirkpatrick { k: 2 },
        SchedulerSpec::KAsync { k: 2, seed },
    )
}

/// The `SimulationBuilder` knobs `ScenarioSpec::new` sets.
pub fn scenario_session_spec(spec: &ScenarioSpec) -> SessionSpec {
    SessionSpec {
        visibility: spec.visibility,
        epsilon: spec.epsilon,
        max_events: spec.max_events,
        seed: spec.seed,
        track_strong_visibility: spec.track_strong_visibility,
        hull_check_every: spec.hull_check_every,
        diameter_sample_every: spec.diameter_sample_every,
    }
}

fn dense_swarms(seed: u64) -> Vec<ScenarioSpec> {
    (0..DENSE_SWARMS)
        .map(|j| dense_spec(DENSE_N, mix(seed, j)))
        .collect()
}

/// Builds the session and times it from the first step to a terminal
/// status.
fn converge(spec: &ScenarioSpec) -> (Timed, Simulation) {
    let mut sim = spec.session();
    let (time, ()) = calib::time(|sw| {
        while !sim.step().is_terminal() {
            sw.tick();
        }
    });
    (time, sim)
}

fn check_converged(checks: &mut Checks, sim: Simulation, label: &str) -> Outcome {
    let status = sim.status();
    let report = sim.into_report();
    checks.check(status == SessionStatus::Converged, || {
        format!("{label}: ended {status:?}, not Converged")
    });
    checks.check(report.cohesion_maintained, || {
        format!(
            "{label}: cohesion broken ({} violations)",
            report.cohesion_violations.len()
        )
    });
    Outcome::of_report(&report)
}

pub fn dense_untraced(env: &Env) -> Measured {
    let swarms = dense_swarms(env.seed);
    let mut m = Measured::default();
    let setup = || {
        setup_sample(2 * swarms.len(), |i| {
            std::hint::black_box(swarms[i % swarms.len()].session());
        })
    };
    m.setup = (0..SETUP_SAMPLES).map(|_| setup()).collect();
    let start = Instant::now();
    let mut i = 0;
    let mut digests = Vec::new();
    while i < swarms.len() || seconds_since(start) < env.seconds {
        m.setup.push(setup());
        let j = i % swarms.len();
        let (time, sim) = converge(&swarms[j]);
        let events = sim.events() as u64;
        let outcome = check_converged(&mut m.checks, sim, &format!("swarm {j}"));
        if i < swarms.len() {
            *m.counts.entry("events".into()).or_default() += events;
            *m.counts.entry("rounds".into()).or_default() += outcome.rounds as u64;
            digests.extend_from_slice(&outcome.positions_digest.to_le_bytes());
        }
        m.record(j, time, events);
        if i == 0 {
            m.peak_rss_mb = peak_rss_mb();
        }
        i += 1;
    }
    m.counts.insert("swarms".into(), swarms.len() as u64);
    m.counts.insert("iterations".into(), i as u64);
    let golden = (m.counts["events"], cohesion_engine::fnv1a(&digests));
    m.counts.insert("positions_digest".into(), golden.1);
    check_golden(&mut m.checks, env.seed, golden, golden::DENSE);
    m
}

/// Traces the run's swarms in order until `--seconds` have passed (at
/// least one); counters and the span dump are the first swarm's.
pub fn dense_traced(env: &Env) -> Traced {
    let swarms = dense_swarms(env.seed);
    let mut t = Traced::default();
    let start = Instant::now();
    for (j, spec) in swarms.iter().enumerate().cycle() {
        if !t.spans.is_empty() && seconds_since(start) >= env.seconds {
            break;
        }
        let t0 = Instant::now();
        let mut sim = spec.session();
        while !sim.step().is_terminal() {}
        t.untraced_wall_s += seconds_since(t0);
        let reference = check_converged(&mut t.checks, sim, &format!("swarm {j}"));

        let r = dense_replay(spec);
        t.traced_wall_s += r.wall_s;
        let outcome = r.replica.outcome();
        t.checks.check(outcome == reference, || {
            format!("swarm {j}: replica {outcome:?} differs from session {reference:?}")
        });
        t.absorb(r.spans, r.counters);
    }
    t
}

/// The traced replica of a `dense_spec` scenario.
pub fn dense_replay(spec: &ScenarioSpec) -> Replay<KirkpatrickAlgorithm, KAsyncScheduler> {
    let (SchedulerSpec::KAsync { k, seed }, AlgorithmSpec::Kirkpatrick { k: alg_k }) =
        (spec.scheduler, spec.algorithm)
    else {
        panic!("not a dense_spec scenario: {spec:?}");
    };
    replay(
        &scenario_session_spec(spec),
        || spec.workload.build(),
        KirkpatrickAlgorithm::new(alg_k),
        KAsyncScheduler::new(k, seed),
    )
}

// ---------------------------------------------------------------------------
// session-lattice-1024
// ---------------------------------------------------------------------------

/// `SimulationBuilder` defaults with the lattice's event budget.
pub fn lattice_session_spec(budget: usize) -> SessionSpec {
    SessionSpec {
        visibility: 1.0,
        epsilon: 0.01,
        max_events: budget,
        seed: 0xC0E510,
        track_strong_visibility: true,
        hull_check_every: 64,
        diameter_sample_every: 32,
    }
}

pub fn lattice(side: usize) -> Configuration {
    cohesion_workloads::grid(side, side, LATTICE_SPACING)
}

pub fn lattice_session(side: usize, budget: usize, seed: u64) -> Simulation {
    lattice_session_spec(budget)
        .builder(
            lattice(side),
            KirkpatrickAlgorithm::new(LATTICE_K),
            AsyncScheduler::new(seed),
        )
        .build()
}

/// The budget run with a checkpoint round trip at mid-budget: `save` →
/// `to_json` → `from_json` → `restore` into a freshly built session, which
/// finishes the run. `tick` is called after every step. Returns the
/// finished session and the checkpoint size.
pub fn lattice_resumed(
    mut sim: Simulation,
    side: usize,
    budget: usize,
    seed: u64,
    tick: &mut dyn FnMut(),
) -> Result<(Simulation, usize), String> {
    while sim.events() < budget / 2 && !sim.step().is_terminal() {
        tick();
    }
    let cp = trace::span("checkpoint.save", || sim.save())?;
    let text = trace::span("checkpoint.to_json", || cp.to_json());
    let cp = trace::span("checkpoint.from_json", || Checkpoint::from_json(&text))?;
    let mut resumed = trace::span("checkpoint.rebuild", || lattice_session(side, budget, seed));
    trace::span("checkpoint.restore", || resumed.restore(&cp))?;
    while !resumed.step().is_terminal() {
        tick();
    }
    Ok((resumed, text.len()))
}

/// The scheduler seeds of one run's lattice sessions.
fn lattice_seeds(seed: u64) -> Vec<u64> {
    (0..LATTICE_SESSIONS).map(|j| mix(seed, j)).collect()
}

pub fn lattice_untraced(env: &Env) -> Measured {
    let (side, budget) = (LATTICE_SIDE, LATTICE_BUDGET);
    let seeds = lattice_seeds(env.seed);
    let mut m = Measured::default();
    let setup = || {
        setup_sample(16, |i| {
            std::hint::black_box(lattice_session(side, budget, seeds[i % seeds.len()]));
        })
    };
    m.setup = (0..SETUP_SAMPLES).map(|_| setup()).collect();
    // The uninterrupted runs are the references the resumed runs must
    // match (and warm the process up); they are not timed.
    let references: Vec<Outcome> = seeds
        .iter()
        .map(|&s| Outcome::of_report(&lattice_session(side, budget, s).run_to_completion()))
        .collect();
    let events = references.iter().map(|r| r.events as u64).sum();
    let digests: Vec<u8> = references
        .iter()
        .flat_map(|r| r.positions_digest.to_le_bytes())
        .collect();
    let golden = (events, cohesion_engine::fnv1a(&digests));
    m.counts.insert("events".into(), events);
    m.counts.insert("positions_digest".into(), golden.1);
    check_golden(&mut m.checks, env.seed, golden, golden::LATTICE);
    let start = Instant::now();
    let mut i = 0;
    while i < seeds.len() || seconds_since(start) < env.seconds {
        m.setup.push(setup());
        let j = i % seeds.len();
        let sim = lattice_session(side, budget, seeds[j]);
        let (time, result) =
            calib::time(|sw| lattice_resumed(sim, side, budget, seeds[j], &mut || sw.tick()));
        match result {
            Ok((sim, bytes)) => {
                let outcome = Outcome::of_report(&sim.into_report());
                let reference = &references[j];
                m.checks.check(outcome == *reference, || {
                    format!("session {j}: resumed run {outcome:?} differs from uninterrupted {reference:?}")
                });
                m.counts.insert("checkpoint_bytes".into(), bytes as u64);
                m.record(j, time, outcome.events as u64);
            }
            Err(e) => m
                .checks
                .check(false, || format!("session {j}: checkpoint round trip: {e}")),
        }
        if i == 0 {
            m.peak_rss_mb = peak_rss_mb();
        }
        i += 1;
    }
    m.counts.insert("sessions".into(), seeds.len() as u64);
    m.counts.insert("iterations".into(), i as u64);
    m
}

/// Traces the run's sessions in order until `--seconds` have passed (at
/// least one); counters and the span dump are the first session's.
pub fn lattice_traced(env: &Env) -> Traced {
    let (side, budget) = (LATTICE_SIDE, LATTICE_BUDGET);
    let seeds = lattice_seeds(env.seed);
    let mut t = Traced::default();
    let start = Instant::now();
    for (j, &seed) in seeds.iter().enumerate().cycle() {
        if !t.spans.is_empty() && seconds_since(start) >= env.seconds {
            break;
        }
        // Untraced: the real session with its checkpoint round trip. Only
        // the five checkpoint calls carry spans.
        trace::start();
        let t0 = Instant::now();
        let sim = lattice_session(side, budget, seed);
        let resumed = lattice_resumed(sim, side, budget, seed, &mut || {});
        t.untraced_wall_s += seconds_since(t0);
        let (ckpt_spans, _) = trace::finish();
        for s in &ckpt_spans {
            t.samples.entry(s.name).or_default().push(s.ns() as f64);
        }
        let reference = match resumed {
            Ok((sim, bytes)) => {
                t.counters.insert("checkpoint.bytes".into(), bytes as f64);
                Some(Outcome::of_report(&sim.into_report()))
            }
            Err(e) => {
                t.checks
                    .check(false, || format!("session {j}: checkpoint round trip: {e}"));
                None
            }
        };

        // Traced: the replica, uninterrupted.
        let r = lattice_replay(side, budget, seed);
        t.traced_wall_s += r.wall_s;
        if t.spans.is_empty() {
            t.counters.insert(
                "engine.trace_entries".into(),
                r.replica.engine_trace_len() as f64,
            );
            t.counters.insert(
                "diameter.series_len".into(),
                r.replica.diameter_series_len() as f64,
            );
        }
        if let Some(reference) = reference {
            let outcome = r.replica.outcome();
            t.checks.check(outcome == reference, || {
                format!(
                    "session {j}: uninterrupted replica {outcome:?} differs from resumed session {reference:?}"
                )
            });
        }
        t.absorb(r.spans, r.counters);
    }
    t
}

/// The traced, uninterrupted replica of the lattice session.
pub fn lattice_replay(
    side: usize,
    budget: usize,
    seed: u64,
) -> Replay<KirkpatrickAlgorithm, AsyncScheduler> {
    replay(
        &lattice_session_spec(budget),
        || lattice(side),
        KirkpatrickAlgorithm::new(LATTICE_K),
        AsyncScheduler::new(seed),
    )
}

// ---------------------------------------------------------------------------
// lab-full
// ---------------------------------------------------------------------------

/// One experiment's output: rows, row bytes, their FNV-1a digest, and the
/// progress sidecar's record count and summed `done` events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentOutput {
    pub rows: usize,
    pub bytes: usize,
    pub digest: u64,
    pub progress_records: usize,
    pub events: u64,
}

fn lab_options(out: &Path) -> LabOptions {
    LabOptions {
        profile: Profile::Full,
        threads: Some(LAB_THREADS),
        out_dir: Some(out.to_path_buf()),
        shard: None,
        progress: true,
    }
}

/// Builds every experiment's full grid; returns the total cell count.
fn lab_grids() -> usize {
    REGISTRY.iter().map(|e| e.grid(Profile::Full).len()).sum()
}

fn experiment_output(dir: &Path, stem: &str, rows: usize) -> Result<ExperimentOutput, String> {
    let path = dir.join(format!("{stem}.jsonl"));
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let sidecar = dir.join(progress_file_name(stem, None));
    let progress = std::fs::read_to_string(&sidecar)
        .map_err(|e| format!("read {}: {e}", sidecar.display()))?;
    let mut events = 0;
    let mut records = 0;
    for line in progress.lines() {
        records += 1;
        if line.contains("\"phase\":\"done\"") {
            events += json_u64(line, "events").ok_or("sidecar record without events")?;
        }
    }
    Ok(ExperimentOutput {
        rows,
        bytes: bytes.len(),
        digest: cohesion_engine::fnv1a(&bytes),
        progress_records: records,
        events,
    })
}

/// The unsigned integer value of `"key":` in a flat JSON object line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Runs all eleven experiments, each inside a `lab.<name>` span when
/// tracing, calling `tick` after each. Returns each experiment's row count,
/// or the error its run or its own `check` gave.
fn lab_pass(out: &Path, tick: &mut dyn FnMut()) -> Vec<Result<usize, String>> {
    let opts = lab_options(out);
    REGISTRY
        .iter()
        .map(|exp| {
            let s = trace::open(lab_span_name(exp.name()));
            let result = run_experiment(*exp, &opts);
            s.close();
            tick();
            result.map(|summary| summary.rows)
        })
        .collect()
}

/// Checks a pass: every experiment ran and passed its own `check`, and its
/// rows match the golden digest. Returns the outputs of those that ran.
fn verify_lab(
    out: &Path,
    pass: Vec<Result<usize, String>>,
    checks: &mut Checks,
) -> Vec<ExperimentOutput> {
    let mut outputs = Vec::new();
    for (exp, result) in REGISTRY.iter().zip(pass) {
        let output = result.and_then(|rows| experiment_output(out, exp.output_stem(), rows));
        checks.check(output.is_ok(), || {
            format!("{}: {}", exp.name(), output.as_ref().unwrap_err())
        });
        let Ok(o) = output else { continue };
        let golden = golden::LAB.iter().find(|g| g.0 == exp.name());
        checks.check(
            golden.is_some_and(|g| (g.1, g.2, g.3) == (o.rows, o.bytes, o.digest)),
            || {
                format!(
                    "{}: rows/bytes/digest {:?} differ from golden {golden:?}",
                    exp.name(),
                    (o.rows, o.bytes, o.digest)
                )
            },
        );
        outputs.push(o);
    }
    outputs
}

/// Span names must be `'static`; the registry's names are, but the
/// `lab.` prefix has to be spelled out per experiment.
pub fn lab_span_name(experiment: &str) -> &'static str {
    golden::LAB
        .iter()
        .find(|g| g.0 == experiment)
        .map_or("lab.unknown", |g| g.4)
}

fn lab_totals(outputs: &[ExperimentOutput]) -> [(&'static str, u64); 4] {
    let sum = |f: fn(&ExperimentOutput) -> u64| outputs.iter().map(f).sum();
    [
        ("rows", sum(|o| o.rows as u64)),
        ("row_bytes", sum(|o| o.bytes as u64)),
        ("progress_records", sum(|o| o.progress_records as u64)),
        ("events", sum(|o| o.events)),
    ]
}

pub fn lab_untraced(env: &Env) -> Measured {
    let out = env.out_dir.join("lab");
    let mut m = Measured::default();
    let setup = || {
        setup_sample(2000, |_| {
            std::hint::black_box(lab_grids());
        })
    };
    m.setup = (0..SETUP_SAMPLES).map(|_| setup()).collect();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || seconds_since(start) < env.seconds {
        m.setup.push(setup());
        let cells = lab_grids();
        let (time, pass) = calib::time(|sw| lab_pass(&out, &mut || sw.tick()));
        let outputs = verify_lab(&out, pass, &mut m.checks);
        let events = outputs.iter().map(|o| o.events).sum();
        m.record(0, time, events);
        if i == 0 {
            m.counts.insert("cells".into(), cells as u64);
            for (name, v) in lab_totals(&outputs) {
                m.counts.insert(name.into(), v);
            }
            m.peak_rss_mb = peak_rss_mb();
        }
        i += 1;
    }
    m.counts.insert("iterations".into(), i as u64);
    m
}

pub fn lab_traced(env: &Env) -> Traced {
    let out = env.out_dir.join("lab");
    let mut t = Traced::default();
    let start = Instant::now();
    while t.spans.is_empty() || seconds_since(start) < env.seconds {
        let t0 = Instant::now();
        lab_grids();
        let pass = lab_pass(&out, &mut || {});
        t.untraced_wall_s += seconds_since(t0);
        verify_lab(&out, pass, &mut t.checks);

        trace::start();
        let t0 = Instant::now();
        let cells = trace::span("lab.grids", lab_grids);
        let pass = lab_pass(&out, &mut || {});
        t.traced_wall_s += seconds_since(t0);
        let (spans, counters) = trace::finish();
        let outputs = verify_lab(&out, pass, &mut t.checks);
        if t.spans.is_empty() {
            t.counters.insert("lab.cells".into(), cells as f64);
            for (name, v) in lab_totals(&outputs) {
                t.counters.insert(format!("lab.{name}"), v as f64);
            }
        }
        t.absorb(spans, counters);
    }
    t
}
