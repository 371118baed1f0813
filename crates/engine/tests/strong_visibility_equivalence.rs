//! The certificate-driven pair monitors against the historical per-event
//! sweeps, word for word, after every event.
//!
//! `StrongVisibilityMonitor` and `CohesionMonitor` judge only the pairs
//! their displacement certificates leave hot. The sweeps they replaced
//! judged every robot against every dirty one (strong visibility,
//! `O(|dirty| · n)` per event) and every initial edge (cohesion); they
//! live on here as the references. Both are driven by the same session
//! events — a lockstep observer feeds each event's monitor context to both
//! and compares the acquired bitset and the verdict, or the violation list
//! — across dense and sparse lattices, random swarms, 3D, swarm-wide
//! visibility, runs that really break the clauses (Ando under the Figure
//! 4(a) 1-Async script and under unbounded Async), and a checkpoint restore
//! after robots have left the grid cells they started in. A property test
//! drives both pairs of monitors through small-step motion far from the
//! origin and within a few ulps of every threshold and certificate edge.
//!
//! The deterministic work counters of the monitors are pinned at the end.

use cohesion_engine::{
    Budget, Checkpoint, CohesionMonitor, EventView, Monitor, MonitorContext, Observer,
    SimulationBuilder, StrongVisibilityMonitor,
};
use cohesion_geometry::point::Point;
use cohesion_geometry::{Vec2, Vec3};
use cohesion_model::frame::Ambient;
use cohesion_model::{Configuration, FrameMode, PerceptionModel, VisibilityGraph};
use cohesion_scheduler::{AsyncScheduler, KAsyncScheduler, ScriptedScheduler};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// The pre-grid monitor, verbatim: every robot against every dirty one,
/// over an upper-triangle bitset (`(min, max)` ↦ bit `min · n + max` — the
/// checkpoint layout).
#[derive(Clone)]
struct BruteStrongMonitor {
    n: usize,
    v: f64,
    tol: f64,
    acquired: Vec<u64>,
    ok: bool,
}

impl BruteStrongMonitor {
    fn new<P: Point>(v: f64, tol: f64, initial_positions: &[P]) -> Self {
        let n = initial_positions.len();
        let mut monitor = BruteStrongMonitor {
            n,
            v,
            tol,
            acquired: vec![0u64; (n * n).div_ceil(64)],
            ok: true,
        };
        for a in 0..n {
            for b in (a + 1)..n {
                if initial_positions[a].dist(initial_positions[b]) <= v / 2.0 + tol {
                    monitor.insert(a, b);
                }
            }
        }
        monitor
    }

    fn bit(&self, a: usize, b: usize) -> usize {
        a.min(b) * self.n + a.max(b)
    }

    fn insert(&mut self, a: usize, b: usize) {
        let bit = self.bit(a, b);
        self.acquired[bit / 64] |= 1 << (bit % 64);
    }

    fn contains(&self, a: usize, b: usize) -> bool {
        let bit = self.bit(a, b);
        self.acquired[bit / 64] & (1 << (bit % 64)) != 0
    }

    fn acquired_pairs(&self) -> u32 {
        self.acquired.iter().map(|w| w.count_ones()).sum()
    }
}

impl<P: Ambient> Monitor<P> for BruteStrongMonitor {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        for &a in ctx.dirty {
            for b in 0..self.n {
                if b == a || (ctx.dirty_mask[b] && b < a) {
                    continue;
                }
                let d = ctx.positions[a].dist(ctx.positions[b]);
                if d <= self.v / 2.0 + self.tol {
                    self.insert(a, b);
                } else if d > self.v + self.tol && self.contains(a, b) {
                    self.ok = false;
                }
            }
        }
    }
}

impl<P: Ambient> Observer<P> for BruteStrongMonitor {
    fn on_event(&mut self, view: &EventView<'_, P>) {
        Monitor::on_event(self, &view.monitors);
    }
}

/// Drives a grid monitor and the reference with the same `(V, tol)` off a
/// session's event stream, comparing them after every event.
struct Lockstep<P: Point> {
    label: &'static str,
    grid: StrongVisibilityMonitor<P>,
    brute: BruteStrongMonitor,
    events: usize,
}

impl<P: Ambient> Lockstep<P> {
    fn new(label: &'static str, v: f64, initial: &[P]) -> Self {
        let tol = 1e-9 * (1.0 + v);
        let lockstep = Lockstep {
            label,
            grid: StrongVisibilityMonitor::new(v, tol, initial),
            brute: BruteStrongMonitor::new(v, tol, initial),
            events: 0,
        };
        lockstep.compare();
        lockstep
    }

    fn compare(&self) {
        assert_eq!(
            self.grid.acquired_bits(),
            self.brute.acquired,
            "{}: acquired sets diverged after {} events",
            self.label,
            self.events
        );
        assert_eq!(
            self.grid.ok(),
            self.brute.ok,
            "{}: verdicts diverged after {} events",
            self.label,
            self.events
        );
    }
}

impl<P: Ambient> Observer<P> for Lockstep<P> {
    fn on_event(&mut self, view: &EventView<'_, P>) {
        Monitor::on_event(&mut self.grid, &view.monitors);
        Monitor::on_event(&mut self.brute, &view.monitors);
        self.events += 1;
        self.compare();
    }
}

/// What a lockstep run ended with: events, pairs acquired at the start and
/// at the end, and the verdict.
#[derive(Debug)]
struct Summary {
    events: usize,
    acquired_at_start: u32,
    acquired_at_end: u32,
    ok: bool,
}

/// Runs `builder` to completion with a lockstep observer judging at
/// visibility `v` (which may differ from the session's own).
fn lockstep<P: Ambient>(
    label: &'static str,
    builder: SimulationBuilder<P>,
    initial: &Configuration<P>,
    v: f64,
) -> Summary {
    let observer = Rc::new(RefCell::new(Lockstep::new(label, v, initial.positions())));
    let acquired_at_start = observer.borrow().brute.acquired_pairs();
    let mut sim = builder.build();
    sim.observe(Rc::clone(&observer));
    while !sim.step().is_terminal() {}
    let observer = observer.borrow();
    assert_eq!(
        observer.events,
        sim.events(),
        "{label}: observer missed events"
    );
    Summary {
        events: observer.events,
        acquired_at_start,
        acquired_at_end: observer.brute.acquired_pairs(),
        ok: observer.brute.ok,
    }
}

/// Kirkpatrick on a `side × side` lattice under `k`-Async (`k = 0`:
/// unbounded Async).
fn kirkpatrick_lattice(
    side: usize,
    spacing: f64,
    k: u32,
    seed: u64,
    max_events: usize,
) -> (SimulationBuilder, Configuration) {
    let initial = cohesion_workloads::grid(side, side, spacing);
    let scheduler: Box<dyn cohesion_scheduler::Scheduler> = if k == 0 {
        Box::new(AsyncScheduler::new(seed))
    } else {
        Box::new(KAsyncScheduler::new(k, seed))
    };
    let builder = SimulationBuilder::new(
        initial.clone(),
        cohesion_core::KirkpatrickAlgorithm::new(k.max(1)),
    )
    .visibility(1.0)
    .scheduler(scheduler)
    .seed(seed)
    .max_events(max_events);
    (builder, initial)
}

/// Spacing 0.45 < V/2: every lattice neighbour is acquired at t = 0, so the
/// violation scan has partners from the first event.
#[test]
fn dense_lattice_matches_the_sweep() {
    for (k, seed) in [(0, 11), (2, 12)] {
        let (builder, initial) = kirkpatrick_lattice(12, 0.45, k, seed, 4_000);
        let s = lockstep("lattice 0.45", builder, &initial, 1.0);
        assert!(s.acquired_at_start >= 2 * 12 * 11, "{s:?}");
        assert!(s.events > 1_000, "{s:?}");
    }
}

/// Spacing 0.9 > V/2: nothing is acquired at t = 0; every acquisition
/// comes from the grid as the swarm contracts.
#[test]
fn sparse_lattice_matches_the_sweep() {
    for (k, seed) in [(0, 21), (1, 22)] {
        let (builder, initial) = kirkpatrick_lattice(6, 0.9, k, seed, 30_000);
        let s = lockstep("lattice 0.9", builder, &initial, 1.0);
        assert_eq!(s.acquired_at_start, 0, "{s:?}");
        assert!(s.acquired_at_end > 0, "{s:?}");
    }
}

#[test]
fn random_swarm_matches_the_sweep() {
    let initial = cohesion_workloads::random_connected(200, 1.0, 31);
    let builder =
        SimulationBuilder::new(initial.clone(), cohesion_core::KirkpatrickAlgorithm::new(1))
            .visibility(1.0)
            .scheduler(AsyncScheduler::new(32))
            .seed(33)
            .max_events(3_000);
    let s = lockstep("random_connected(200)", builder, &initial, 1.0);
    assert!(s.acquired_at_end > s.acquired_at_start, "{s:?}");
}

#[test]
fn swarm_in_3d_matches_the_sweep() {
    let initial: Configuration<Vec3> = cohesion_workloads::ball3(80, 1.0, 41);
    let builder = SimulationBuilder::<Vec3>::new(
        initial.clone(),
        cohesion_core::KirkpatrickAlgorithm::new(2),
    )
    .visibility(1.0)
    .scheduler(KAsyncScheduler::new(2, 42))
    .seed(43)
    .max_events(3_000);
    let s = lockstep("ball3(80)", builder, &initial, 1.0);
    assert!(s.acquired_at_start > 0 && s.events > 1_000, "{s:?}");
}

/// A `V` beyond twice the swarm's diameter acquires every pair up front
/// and can never be violated; the grid monitor, whose cells then hold the
/// whole swarm, must agree.
#[test]
fn swarm_wide_visibility_matches_the_sweep() {
    let (builder, initial) = kirkpatrick_lattice(12, 0.9, 0, 51, 4_000);
    let s = lockstep("V = 64", builder, &initial, 64.0);
    let n = initial.len() as u32;
    assert_eq!(s.acquired_at_start, n * (n - 1) / 2, "{s:?}");
    assert!(s.ok, "{s:?}");
}

/// Ando under the Figure 4(a) 1-Async script separates X and Y — a pair
/// acquired at exactly `V/2` — beyond `V`: the one run here whose verdict
/// really flips, and the flip must land on the same event.
#[test]
fn ando_separation_trips_both_monitors() {
    use cohesion_adversary::ando_counterexample::{figure4_configuration, figure4a_schedule, V};
    let builder = || {
        SimulationBuilder::new(
            figure4_configuration(),
            cohesion_algorithms::ando::AndoAlgorithm::new(V),
        )
        .visibility(V)
        .scheduler(ScriptedScheduler::new("figure4a", figure4a_schedule()))
        .epsilon(1e-6)
        .frame_mode(FrameMode::Aligned)
    };
    let s = lockstep("ando 1-async", builder(), &figure4_configuration(), V);
    assert!(
        !s.ok,
        "the Figure 4(a) script must break acquired visibility: {s:?}"
    );
    assert_eq!(builder().run().strong_visibility_ok, Some(false));
}

/// The historical cohesion check: every initial edge at every event, a
/// violation recorded at its first observation, simultaneous ones in pair
/// order.
struct BruteCohesion {
    /// Ascending `(a, b)` pairs, `a < b`.
    edges: Vec<(usize, usize)>,
    /// `V + tol`.
    limit: f64,
    violated: BTreeSet<(usize, usize)>,
    /// `(a, b, time bits, distance bits)` per violation.
    violations: Vec<(usize, usize, u64, u64)>,
}

impl BruteCohesion {
    fn new(mut edges: Vec<(usize, usize)>, v: f64, tol: f64) -> Self {
        edges.sort_unstable();
        BruteCohesion {
            edges,
            limit: v + tol,
            violated: BTreeSet::new(),
            violations: Vec::new(),
        }
    }
}

impl<P: Ambient> Monitor<P> for BruteCohesion {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        for &(a, b) in &self.edges {
            let d = ctx.positions[a].dist(ctx.positions[b]);
            if d > self.limit && self.violated.insert((a, b)) {
                self.violations
                    .push((a, b, ctx.time.to_bits(), d.to_bits()));
            }
        }
    }
}

/// A cohesion monitor's violations in the reference's terms.
fn violation_bits(monitor: &CohesionMonitor) -> Vec<(usize, usize, u64, u64)> {
    monitor
        .violations()
        .iter()
        .map(|v| {
            (
                v.pair.a.index(),
                v.pair.b.index(),
                v.time.to_bits(),
                v.distance.to_bits(),
            )
        })
        .collect()
}

/// The initial edges `E(0)` at visibility `v`.
fn initial_edges<P: Point>(initial: &Configuration<P>, v: f64) -> Vec<(usize, usize)> {
    VisibilityGraph::from_configuration(initial, v)
        .edges()
        .iter()
        .map(|e| (e.a.index(), e.b.index()))
        .collect()
}

/// Drives a certificate cohesion monitor and the reference off a session's
/// event stream, comparing their violations after every event.
struct CohesionLockstep {
    label: &'static str,
    monitor: CohesionMonitor,
    brute: BruteCohesion,
    events: usize,
}

impl<P: Ambient> Observer<P> for CohesionLockstep {
    fn on_event(&mut self, view: &EventView<'_, P>) {
        Monitor::on_event(&mut self.monitor, &view.monitors);
        Monitor::on_event(&mut self.brute, &view.monitors);
        self.events += 1;
        assert_eq!(
            violation_bits(&self.monitor),
            self.brute.violations,
            "{}: violations diverged after {} events",
            self.label,
            self.events
        );
    }
}

/// Runs `builder` to completion with a cohesion lockstep observer over the
/// initial edges at the session's visibility `v`. Returns the events and
/// the reference's violation count.
fn cohesion_lockstep(
    label: &'static str,
    builder: SimulationBuilder,
    initial: &Configuration,
    v: f64,
) -> (usize, usize) {
    let tol = 1e-9 * (1.0 + v);
    let edges = initial_edges(initial, v);
    let observer = Rc::new(RefCell::new(CohesionLockstep {
        label,
        monitor: CohesionMonitor::new(initial.len(), &edges, |_, _| v, tol),
        brute: BruteCohesion::new(edges, v, tol),
        events: 0,
    }));
    let mut sim = builder.build();
    sim.observe(Rc::clone(&observer));
    while !sim.step().is_terminal() {}
    let observer = observer.borrow();
    assert_eq!(
        observer.events,
        sim.events(),
        "{label}: observer missed events"
    );
    assert_eq!(
        violation_bits(sim.cohesion_monitor()),
        observer.brute.violations,
        "{label}: the session's own monitor diverged"
    );
    (observer.events, observer.brute.violations.len())
}

/// Ando under the Figure 4(a) 1-Async script breaks the initial edge X–Y:
/// the violation must land on the same event with the same distance.
#[test]
fn cohesion_matches_the_sweep_under_the_ando_script() {
    use cohesion_adversary::ando_counterexample::{figure4_configuration, figure4a_schedule, V};
    let builder = SimulationBuilder::new(
        figure4_configuration(),
        cohesion_algorithms::ando::AndoAlgorithm::new(V),
    )
    .visibility(V)
    .scheduler(ScriptedScheduler::new("figure4a", figure4a_schedule()))
    .epsilon(1e-6)
    .frame_mode(FrameMode::Aligned);
    let (events, violations) =
        cohesion_lockstep("ando 1-async", builder, &figure4_configuration(), V);
    assert!(
        violations > 0,
        "the script must break an edge ({events} events)"
    );
}

/// Ando under unbounded Async on a random swarm, with a 20% distance
/// perception error it does not tolerate: many edges break over the run,
/// each observed first at the same event as by the sweep.
#[test]
fn cohesion_matches_the_sweep_under_unbounded_ando() {
    let initial = cohesion_workloads::random_connected(60, 1.0, 4);
    let builder = SimulationBuilder::new(
        initial.clone(),
        cohesion_algorithms::ando::AndoAlgorithm::new(1.0),
    )
    .visibility(1.0)
    .scheduler(AsyncScheduler::new(104))
    .seed(4)
    .perception(PerceptionModel::new(0.2, 0.0))
    .frame_mode(FrameMode::Aligned)
    .max_events(20_000);
    let (events, violations) = cohesion_lockstep("ando async", builder, &initial, 1.0);
    assert!(
        violations > 5,
        "{violations} edges broke in {events} events"
    );
}

/// Kirkpatrick under 2-Async keeps every edge while the swarm contracts to
/// a point: the monitor must stay silent all the way to convergence.
#[test]
fn cohesion_matches_the_sweep_on_a_converging_run() {
    let initial = cohesion_workloads::random_connected(60, 1.0, 91);
    let builder =
        SimulationBuilder::new(initial.clone(), cohesion_core::KirkpatrickAlgorithm::new(2))
            .visibility(1.0)
            .scheduler(KAsyncScheduler::new(2, 92))
            .seed(93)
            .epsilon(0.05)
            .max_events(400_000);
    let (events, violations) = cohesion_lockstep("kirkpatrick 2-async", builder, &initial, 1.0);
    assert_eq!(violations, 0);
    assert!(events < 400_000, "the run must converge");
}

/// Save → JSON → restore into a freshly built session once robots have
/// moved more than a grid cell from where they started. The restored
/// monitor must re-anchor at the restored positions, not the initial ones:
/// its acquired set must track the reference (carried across the cut), and
/// the tail must acquire new pairs through the restored grid. (Anchors are
/// derived state, so the restored monitor's work differs from the
/// uninterrupted one's; the monitor-level restore tests in `monitors.rs`
/// step a restored monitor into an acquisition and a violation that stale
/// anchors would certify away.)
#[test]
fn checkpoint_restore_resyncs_the_grid() {
    let (v, cut) = (1.0, 8_000);
    let (builder, initial) = kirkpatrick_lattice(12, 0.45, 0, 61, 12_000);
    let (rebuilt, _) = kirkpatrick_lattice(12, 0.45, 0, 61, 12_000);
    let tol = 1e-9 * (1.0 + v);
    let brute = Rc::new(RefCell::new(BruteStrongMonitor::new(
        v,
        tol,
        initial.positions(),
    )));
    let mut original = builder.build();
    original.observe(Rc::clone(&brute));
    original.run_for(Budget::events(cut));
    assert_eq!(original.events(), cut);
    let moved = original
        .engine()
        .configuration()
        .positions()
        .iter()
        .zip(initial.positions())
        .map(|(p, q)| p.dist(*q))
        .fold(0.0, f64::max);
    // Farther than one cell edge (≈ V/2 + tol): out of the initial cell.
    assert!(moved > v / 2.0 + tol, "robots barely moved: {moved}");

    let text = original.save().expect("checkpointable").to_json();
    let mut resumed = rebuilt.build();
    resumed
        .restore(&Checkpoint::from_json(&text).expect("envelope round trip"))
        .expect("same spec");
    let brute = Rc::new(RefCell::new(brute.borrow().clone()));
    let acquired_at_cut = brute.borrow().acquired_pairs();
    resumed.observe(Rc::clone(&brute));
    let mut tail = 0;
    loop {
        let monitor = resumed.strong_visibility().expect("tracked by default");
        assert_eq!(
            monitor.acquired_bits(),
            brute.borrow().acquired,
            "acquired sets diverged {tail} events after the restore"
        );
        assert_eq!(monitor.ok(), brute.borrow().ok);
        let status = resumed.step();
        assert_eq!(original.step(), status);
        if status.is_terminal() {
            break;
        }
        tail += 1;
    }
    assert!(tail > 1_000, "too short a tail: {tail}");
    assert!(
        brute.borrow().acquired_pairs() > acquired_at_cut,
        "the tail must acquire new pairs through the restored grid"
    );
}

/// The pair and diameter monitors' work counters on a fixed-seed 16×16
/// lattice session with the builder's default cadences. Exact and
/// hardware-independent: an algorithmic regression (a wider grid probe, a
/// lost prune, a looser certificate) moves them. All stay far below the
/// all-pairs work they replaced.
#[test]
fn work_counters_are_pinned() {
    let initial = cohesion_workloads::grid(16, 16, 0.9);
    let n = initial.len() as u64;
    let mut sim = SimulationBuilder::new(initial, cohesion_core::KirkpatrickAlgorithm::new(2))
        .visibility(1.0)
        .scheduler(AsyncScheduler::new(71))
        .seed(72)
        .max_events(4_000)
        .build();
    struct DirtySum(Rc<RefCell<u64>>);
    impl Observer<Vec2> for DirtySum {
        fn on_event(&mut self, view: &EventView<'_, Vec2>) {
            *self.0.borrow_mut() += view.monitors.dirty.len() as u64;
        }
    }
    let dirty = Rc::new(RefCell::new(0u64));
    sim.observe(DirtySum(Rc::clone(&dirty)));
    while !sim.step().is_terminal() {}
    let dirty_sum = *dirty.borrow();
    let strong = sim
        .strong_visibility()
        .expect("tracked by default")
        .pair_checks();
    let cohesion = sim.cohesion_monitor().pair_checks();
    let diameter = sim.diameter_monitor().pair_checks();
    let samples = sim.diameter_monitor().series().len() as u64 - 1;
    assert_eq!(sim.events(), 4_000);
    // The historical sweep judged every dirty robot against all others.
    assert!(strong * 20 < dirty_sum * (n - 1), "{strong} vs {dirty_sum}");
    assert!(
        diameter * 20 < samples * n * (n - 1) / 2,
        "{diameter} over {samples}"
    );
    assert_eq!(
        (strong, cohesion, diameter),
        (66, 524, 32_281),
        "pinned work counts"
    );
}

/// The skin the monitors' docs state, `V/16` at `V = 1`: the certificate
/// edges sit `S` inside the violation threshold and `S` outside the
/// acquisition radius, and each robot may drift `S/2` from its anchor.
const SKIN: f64 = 1.0 / 16.0;

/// `x` moved by `ulps` units in the last place (`x` positive).
fn ulps_from(x: f64, ulps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + ulps) as u64)
}

/// Both pair monitors and both references at `V = 1` over robot pairs
/// `(2j, 2j + 1)` (the cohesion edges), stepped by hand: after every event
/// they must agree on every acquired bit, the verdict and every violation,
/// bit for bit.
struct Rig {
    positions: Vec<Vec2>,
    strong: StrongVisibilityMonitor,
    brute_strong: BruteStrongMonitor,
    cohesion: CohesionMonitor,
    brute_cohesion: BruteCohesion,
    events: usize,
}

impl Rig {
    const V: f64 = 1.0;
    const TOL: f64 = 2e-9;

    fn new(positions: Vec<Vec2>) -> Self {
        let n = positions.len();
        let edges: Vec<(usize, usize)> = (0..n / 2).map(|j| (2 * j, 2 * j + 1)).collect();
        let (v, tol) = (Self::V, Self::TOL);
        Rig {
            strong: StrongVisibilityMonitor::new(v, tol, &positions),
            brute_strong: BruteStrongMonitor::new(v, tol, &positions),
            cohesion: CohesionMonitor::new(n, &edges, |_, _| v, tol),
            brute_cohesion: BruteCohesion::new(edges, v, tol),
            positions,
            events: 0,
        }
    }

    /// One event moving each listed robot (at most once) to its new spot.
    fn step(&mut self, mut moves: Vec<(usize, Vec2)>) {
        moves.sort_unstable_by_key(|&(r, _)| r);
        let mut dirty_mask = vec![false; self.positions.len()];
        for &(r, p) in &moves {
            self.positions[r] = p;
            dirty_mask[r] = true;
        }
        let dirty: Vec<usize> = moves.iter().map(|&(r, _)| r).collect();
        self.events += 1;
        let ctx = MonitorContext {
            time: self.events as f64,
            events: self.events,
            positions: &self.positions,
            dirty: &dirty,
            dirty_mask: &dirty_mask,
            hull_points: &|out: &mut Vec<Vec2>| out.clear(),
        };
        Monitor::on_event(&mut self.strong, &ctx);
        Monitor::on_event(&mut self.brute_strong, &ctx);
        Monitor::on_event(&mut self.cohesion, &ctx);
        Monitor::on_event(&mut self.brute_cohesion, &ctx);
        let event = self.events;
        assert_eq!(
            self.strong.acquired_bits(),
            self.brute_strong.acquired,
            "event {event}"
        );
        assert_eq!(self.strong.ok(), self.brute_strong.ok, "event {event}");
        assert_eq!(
            violation_bits(&self.cohesion),
            self.brute_cohesion.violations,
            "event {event}"
        );
    }
}

/// The farthest point from `p` along `dir` that the displacement budget
/// `S/2` still admits, as the monitors compute it.
fn budget_push(p: Vec2, dir: Vec2) -> Vec2 {
    let budget = SKIN / 2.0;
    let mut best = p;
    for ulps in -16..=64 {
        let q = p + dir * ulps_from(budget, ulps);
        if q.dist_sq(p) <= budget * budget {
            best = q;
        }
    }
    best
}

/// A partner for `a` along `dir` whose computed distance from `a` is the
/// one nearest `goal` on the side `above` (or below) it, searched over a
/// few hundred ulps of separation.
fn partner_at(a: Vec2, dir: Vec2, goal: f64, above: bool) -> Vec2 {
    let mut best: Option<(f64, Vec2)> = None;
    for ulps in -256..=256 {
        let b = a + dir * ulps_from(goal, ulps);
        let d = a.dist(b);
        let on_side = if above { d >= goal } else { d <= goal };
        if on_side && best.map_or(true, |(e, _)| (d - goal).abs() < (e - goal).abs()) {
            best = Some((d, b));
        }
    }
    best.map_or(a + dir * goal, |(_, b)| b)
}

/// Pairs at `origin` along one axis whose computed anchor distances run
/// through the last ulps inside each certificate edge — `limit − S` for an
/// acquired pair, `V/2 + tol + S` for an unacquired one — then pushed apart,
/// respectively together, by the whole displacement budget. Whatever the
/// rounding slack, some pair sits on its certificate's edge, where only the
/// slack keeps a certified pair from crossing its threshold unjudged.
fn certificate_edges(origin: Vec2, theta: f64) {
    let (half, limit) = (Rig::V / 2.0 + Rig::TOL, Rig::V + Rig::TOL);
    let axis = Vec2::new(theta.cos(), theta.sin());
    for ulps in 0..24 {
        for (start, goal, above, sign) in [
            (0.4, ulps_from(limit - SKIN, -ulps), false, 1.0),
            (0.9, ulps_from(half + SKIN, ulps), true, -1.0),
        ] {
            let mut rig = Rig::new(vec![origin, origin + axis * start]);
            rig.step(vec![(1, partner_at(origin, axis, goal, above))]);
            let (a, b) = (rig.positions[0], rig.positions[1]);
            rig.step(vec![
                (0, budget_push(a, axis * -sign)),
                (1, budget_push(b, axis * sign)),
            ]);
        }
    }
}

/// Random small-step motion: `pairs` robot pairs side by side around
/// `origin`, each started acquired (`0.4` apart) or not (`0.9` apart),
/// jumped to within a few ulps of a threshold or a certificate edge, then
/// moved for `steps` events by budget-sized pushes along the pair axes and
/// random small steps.
fn random_steps(origin: Vec2, seed: u64, pairs: usize, steps: usize) {
    let (half, limit) = (Rig::V / 2.0 + Rig::TOL, Rig::V + Rig::TOL);
    let budget = SKIN / 2.0;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut axes = Vec::new();
    let mut targets = Vec::new();
    let mut positions = Vec::new();
    for j in 0..pairs {
        let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let axis = Vec2::new(theta.cos(), theta.sin());
        let (edge, start) = match rng.gen_range(0..4u32) {
            0 => (half, 0.9),
            1 => (half + SKIN, 0.9),
            2 => (limit, 0.4),
            _ => (limit - SKIN, 0.4),
        };
        let a = origin + Vec2::new(2.5 * j as f64, 0.0);
        positions.push(a);
        positions.push(a + axis * start);
        axes.push(axis);
        targets.push(ulps_from(edge, rng.gen_range(-4..=4)));
    }
    let mut rig = Rig::new(positions);
    let jump = (0..pairs)
        .map(|j| (2 * j + 1, rig.positions[2 * j] + axes[j] * targets[j]))
        .collect();
    rig.step(jump);
    for _ in 0..steps {
        let mut moves = Vec::new();
        for (j, &axis) in axes.iter().enumerate() {
            let (a, b) = (2 * j, 2 * j + 1);
            if rng.gen_bool(0.5) {
                let push = axis * ulps_from(budget, rng.gen_range(-2..=2));
                let push = if rng.gen_bool(0.5) { push } else { -push };
                moves.push((a, rig.positions[a] - push));
                moves.push((b, rig.positions[b] + push));
            } else if rng.gen_bool(0.5) {
                let r = if rng.gen_bool(0.5) { a } else { b };
                let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let step = Vec2::new(theta.cos(), theta.sin()) * rng.gen_range(0.0..1.5 * budget);
                moves.push((r, rig.positions[r] + step));
            }
        }
        rig.step(moves);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Motion within a few ulps of `V/2 + tol`, `V + tol` and the
    /// certificate edges, near the origin and in clouds offset by `2^20`,
    /// `2^30` and `2^40 · V`: where the rounding slack is tight.
    #[test]
    fn certificates_hold_within_ulps_of_every_threshold(
        cloud in 0usize..4,
        theta in 0.0..std::f64::consts::TAU,
        seed in any::<u64>(),
    ) {
        let scale = [0.0, 2f64.powi(20), 2f64.powi(30), 2f64.powi(40)][cloud];
        let origin = Vec2::new(scale, 0.75 * scale);
        for turn in 0..4 {
            certificate_edges(origin, theta + 0.39 * turn as f64);
        }
        random_steps(origin, seed, 6, 24);
    }
}
