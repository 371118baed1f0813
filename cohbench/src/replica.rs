//! A bench-side replica of the session pipeline (`SimulationBuilder::build`
//! plus `Simulation::step`/`process`), built only from the engine crate's
//! public API, so that each layer of a default session can be timed on its
//! own: `Engine::step` split by event kind, each monitor's
//! `Monitor::on_event`, `diameter_of` at round boundaries, and the
//! dirty-set bookkeeping between them.
//!
//! The replica must execute the same program as a real session: the traced
//! run compares its event count, violations, verdicts and final positions
//! with an untraced `Simulation` of the same spec, and the benchmark's tests
//! pin that equality at small sizes.

use crate::trace;
use crate::wrap::{TimedAlgorithm, TimedScheduler};
use cohesion_engine::monitors::diameter_of;
use cohesion_engine::report::CohesionViolation;
use cohesion_engine::{
    CohesionMonitor, DiameterMonitor, Engine, EngineEvent, EngineEventKind, HullMonitor, LookPath,
    Monitor, MonitorContext, QueuePath, SimulationBuilder, SimulationReport,
    StrongVisibilityMonitor,
};
use cohesion_geometry::Vec2;
use cohesion_model::frame::FrameMode;
use cohesion_model::{Algorithm, Configuration, MotionModel, PerceptionModel, VisibilityGraph};
use cohesion_scheduler::Scheduler;
use std::collections::BTreeMap;
use std::time::Instant;

/// The builder knobs the benchmark's workloads set; everything else stays
/// at the `SimulationBuilder` defaults, which the replica mirrors.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    pub visibility: f64,
    pub epsilon: f64,
    pub max_events: usize,
    pub seed: u64,
    pub track_strong_visibility: bool,
    pub hull_check_every: usize,
    pub diameter_sample_every: usize,
}

impl SessionSpec {
    /// A real session builder for this spec.
    pub fn builder(
        &self,
        initial: Configuration,
        algorithm: impl Algorithm<Vec2> + 'static,
        scheduler: impl Scheduler + 'static,
    ) -> SimulationBuilder {
        SimulationBuilder::new(initial, algorithm)
            .visibility(self.visibility)
            .scheduler(scheduler)
            .seed(self.seed)
            .epsilon(self.epsilon)
            .max_events(self.max_events)
            .track_strong_visibility(self.track_strong_visibility)
            .hull_check_every(self.hull_check_every)
            .diameter_sample_every(self.diameter_sample_every)
    }
}

/// What a finished run produced — the fields the traced run checks
/// against an untraced session.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub events: usize,
    pub rounds: usize,
    pub converged: bool,
    pub violations: Vec<CohesionViolation>,
    pub strong_visibility_ok: Option<bool>,
    pub hulls_nested: Option<bool>,
    pub final_diameter_bits: u64,
    pub positions_digest: u64,
}

impl Outcome {
    pub fn of_report(report: &SimulationReport) -> Outcome {
        Outcome {
            events: report.events,
            rounds: report.rounds,
            converged: report.converged,
            violations: report.cohesion_violations.clone(),
            strong_visibility_ok: report.strong_visibility_ok,
            hulls_nested: report.hulls_nested,
            final_diameter_bits: report.final_diameter.to_bits(),
            positions_digest: positions_digest(report.final_configuration.positions()),
        }
    }
}

/// FNV-1a over the little-endian bits of every coordinate, in robot order.
pub fn positions_digest(positions: &[Vec2]) -> u64 {
    let mut bytes = Vec::with_capacity(positions.len() * 16);
    for p in positions {
        bytes.extend_from_slice(&p.x.to_le_bytes());
        bytes.extend_from_slice(&p.y.to_le_bytes());
    }
    cohesion_engine::fnv1a(&bytes)
}

pub struct Replica<A: Algorithm<Vec2>, S: Scheduler> {
    engine: Engine<Vec2, TimedAlgorithm<A>, TimedScheduler<S>>,
    spec: SessionSpec,
    positions: Vec<Vec2>,
    dirty: Vec<usize>,
    dirty_mask: Vec<bool>,
    cohesion: CohesionMonitor,
    strong: Option<StrongVisibilityMonitor>,
    hull: Option<HullMonitor>,
    diameter: DiameterMonitor,
    /// Initial-edge adjacency, for counting the cohesion monitor's pair
    /// checks (the monitor keeps its own copy private).
    adj: Vec<Vec<usize>>,
    round_base: Vec<u64>,
    rounds: usize,
    events: usize,
    converged: bool,
    hull_scratch: std::cell::RefCell<Vec<Vec2>>,
}

impl<A: Algorithm<Vec2>, S: Scheduler> Replica<A, S> {
    /// Mirrors `SimulationBuilder::build` for a common visibility radius.
    pub fn build(spec: &SessionSpec, initial: &Configuration, algorithm: A, scheduler: S) -> Self {
        let n = initial.len();
        let v = spec.visibility;
        let initial_edges: Vec<(usize, usize)> = VisibilityGraph::from_configuration(initial, v)
            .edges()
            .iter()
            .map(|e| (e.a.index(), e.b.index()))
            .collect();
        let initial_diameter = initial.diameter();
        let mut engine = Engine::new(
            initial,
            v,
            TimedAlgorithm(algorithm),
            TimedScheduler(scheduler),
            spec.seed,
        );
        engine.set_perception(PerceptionModel::EXACT);
        engine.set_motion(MotionModel::RIGID);
        engine.set_frame_mode(FrameMode::RandomOrtho);
        engine.set_multiplicity_detection(false);
        engine.set_occlusion(None);
        engine.set_look_path(LookPath::default());
        engine.set_queue_path(QueuePath::default());

        let tol = 1e-9 * (1.0 + v);
        let positions = initial.positions().to_vec();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &initial_edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        Replica {
            cohesion: CohesionMonitor::new(n, &initial_edges, |_, _| v, tol),
            strong: spec
                .track_strong_visibility
                .then(|| StrongVisibilityMonitor::new(v, tol, &positions)),
            hull: (spec.hull_check_every > 0)
                .then(|| HullMonitor::new(spec.hull_check_every, 1e-7 * (1.0 + initial_diameter))),
            diameter: DiameterMonitor::new(
                spec.diameter_sample_every,
                spec.epsilon,
                (0.0, initial_diameter),
            ),
            engine,
            spec: spec.clone(),
            dirty: Vec::with_capacity(n),
            dirty_mask: vec![false; n],
            positions,
            adj,
            round_base: vec![0; n],
            rounds: 0,
            events: 0,
            converged: false,
            hull_scratch: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Steps to convergence, budget exhaustion or schedule exhaustion.
    pub fn run(&mut self) {
        while self.events < self.spec.max_events {
            let s = trace::open("engine.step");
            let Some(event) = self.engine.step() else {
                s.close_as("engine.idle");
                break;
            };
            s.close_as(match event.kind {
                EngineEventKind::Look => "engine.look",
                EngineEventKind::MoveStart | EngineEventKind::MoveEnd => "engine.move",
            });
            self.events += 1;
            self.process(event);
            if self.diameter.converged() {
                self.converged = true;
                break;
            }
        }
    }

    fn process(&mut self, event: EngineEvent) {
        let n = self.positions.len();
        let s = trace::open("session.dirty");
        self.engine.collect_motile(&mut self.dirty);
        if event.kind == EngineEventKind::MoveEnd {
            let idx = event.robot.index();
            if let Err(slot) = self.dirty.binary_search(&idx) {
                self.dirty.insert(slot, idx);
            }
        }
        for &i in &self.dirty {
            self.dirty_mask[i] = true;
            self.positions[i] = self.engine.position_of_at(i, event.time);
        }
        s.close();
        if trace::on() {
            self.count_pair_checks();
        }

        let engine = &self.engine;
        let hull_scratch = &self.hull_scratch;
        let hull_points = move |out: &mut Vec<Vec2>| {
            let mut buf = hull_scratch.borrow_mut();
            engine.positions_with_targets_into(&mut buf);
            out.clear();
            out.extend(buf.iter().copied());
        };
        let ctx = MonitorContext {
            time: event.time,
            events: self.events,
            positions: &self.positions,
            dirty: &self.dirty,
            dirty_mask: &self.dirty_mask,
            hull_points: &hull_points,
        };
        let cohesion = &mut self.cohesion;
        trace::span("monitors.cohesion", || cohesion.on_event(&ctx));
        if let Some(m) = self.strong.as_mut() {
            trace::span("monitors.strong_visibility", || m.on_event(&ctx));
        }
        if let Some(m) = self.hull.as_mut() {
            if self.events % self.spec.hull_check_every == 0 {
                trace::span("monitors.hull", || m.on_event(&ctx));
            } else {
                m.on_event(&ctx);
            }
        }

        let cycles = self.engine.completed_cycles();
        if (0..n).all(|i| cycles[i] > self.round_base[i]) {
            let s = trace::open("session.rounds");
            self.rounds += 1;
            self.round_base.copy_from_slice(cycles);
            std::hint::black_box(diameter_of(&self.positions));
            s.close();
            trace::count("monitors.diameter_pair_checks", pairs(n));
        }

        let every = self.spec.diameter_sample_every;
        if every > 0 && self.events % every == 0 {
            let diameter = &mut self.diameter;
            trace::span("monitors.diameter", || diameter.on_event(&ctx));
            trace::count("monitors.diameter_pair_checks", pairs(n));
        } else {
            self.diameter.on_event(&ctx);
        }

        for &i in &self.dirty {
            self.dirty_mask[i] = false;
        }
    }

    /// Exact pair-distance evaluations of the cohesion and strong-visibility
    /// monitors for the current dirty set (the loops in
    /// `cohesion_engine::monitors`, counted without the distances).
    fn count_pair_checks(&self) {
        let s = trace::open("bench.counters");
        let d = self.dirty.len() as u64;
        trace::count("monitors.dirty_sum", d);
        let mut cohesion = 0u64;
        for &a in &self.dirty {
            for &b in &self.adj[a] {
                if !(self.dirty_mask[b] && b < a) {
                    cohesion += 1;
                }
            }
        }
        trace::count("monitors.cohesion_pair_checks", cohesion);
        if self.strong.is_some() {
            let n = self.positions.len() as u64;
            trace::count(
                "monitors.strong_pair_checks",
                d * (n - 1) - d * d.saturating_sub(1) / 2,
            );
        }
        s.close();
    }

    pub fn engine_trace_len(&self) -> usize {
        self.engine.trace().len()
    }

    pub fn diameter_series_len(&self) -> usize {
        self.diameter.series().len()
    }

    /// The run's outcome, with `SimulationReport`'s end-of-run rules
    /// (final diameter from the engine's configuration, `ε` re-check).
    pub fn outcome(&self) -> Outcome {
        let config = self.engine.configuration();
        let final_diameter = config.diameter();
        Outcome {
            events: self.events,
            rounds: self.rounds,
            converged: self.converged || final_diameter <= self.spec.epsilon,
            violations: self.cohesion.violations().to_vec(),
            strong_visibility_ok: self.strong.as_ref().map(StrongVisibilityMonitor::ok),
            hulls_nested: self.hull.as_ref().map(HullMonitor::nested),
            final_diameter_bits: final_diameter.to_bits(),
            positions_digest: positions_digest(config.positions()),
        }
    }
}

/// A finished traced replay and what the recorder saw.
pub struct Replay<A: Algorithm<Vec2>, S: Scheduler> {
    pub replica: Replica<A, S>,
    pub wall_s: f64,
    pub spans: Vec<trace::Span>,
    pub counters: BTreeMap<&'static str, u64>,
}

/// Generates the input and builds the replica under spans, runs it to
/// completion with the recorder on, and hands everything back.
pub fn replay<A: Algorithm<Vec2>, S: Scheduler>(
    spec: &SessionSpec,
    generate: impl FnOnce() -> Configuration,
    algorithm: A,
    scheduler: S,
) -> Replay<A, S> {
    trace::start();
    let t0 = Instant::now();
    let config = trace::span("workloads.generate", generate);
    let mut replica = trace::span("engine.build", || {
        Replica::build(spec, &config, algorithm, scheduler)
    });
    replica.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let (spans, counters) = trace::finish();
    Replay {
        replica,
        wall_s,
        spans,
        counters,
    }
}

fn pairs(n: usize) -> u64 {
    (n * n.saturating_sub(1) / 2) as u64
}
