//! The grid-backed strong-visibility monitor against the historical
//! dirty-set sweep, word for word, after every event.
//!
//! `StrongVisibilityMonitor` finds acquisitions through a grid over the
//! current positions and violations through the acquired partners of each
//! dirty robot. The sweep it replaced judged every robot against every
//! dirty one (`O(|dirty| · n)` per event); it lives on here as the
//! reference. Both are driven by the same session events — a lockstep
//! observer feeds each event's monitor context to both and compares the
//! acquired bitset and the verdict — across dense and sparse lattices,
//! random swarms, 3D, swarm-wide visibility, a run that really breaks the
//! clause (Ando under the Figure 4(a) 1-Async script), and a checkpoint
//! restore after robots have left the grid cells they started in.
//!
//! The deterministic work counters of the two sublinear monitors are
//! pinned at the end.

use cohesion_engine::{
    Budget, Checkpoint, EventView, Monitor, MonitorContext, Observer, SimulationBuilder,
    StrongVisibilityMonitor,
};
use cohesion_geometry::point::Point;
use cohesion_geometry::{Vec2, Vec3};
use cohesion_model::frame::Ambient;
use cohesion_model::{Configuration, FrameMode};
use cohesion_scheduler::{AsyncScheduler, KAsyncScheduler, ScriptedScheduler};
use std::cell::RefCell;
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

/// Save → JSON → restore into a freshly built session once robots have
/// moved more than a grid cell from where they started. The restored
/// monitor must re-bucket at the restored positions, not the initial ones:
/// its acquired set must track the reference (carried across the cut) and
/// its grid candidates — counted by `pair_checks` — must match the
/// uninterrupted session's, event by event. A stale bucket shows in the
/// counts even when it misses no acquisition.
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
    let checks = |sim: &cohesion_engine::Simulation| {
        sim.strong_visibility()
            .expect("tracked by default")
            .pair_checks()
    };
    let checks_at_cut = checks(&original);
    let mut tail = 0;
    loop {
        let monitor = resumed.strong_visibility().expect("tracked by default");
        assert_eq!(
            monitor.acquired_bits(),
            brute.borrow().acquired,
            "acquired sets diverged {tail} events after the restore"
        );
        assert_eq!(monitor.ok(), brute.borrow().ok);
        assert_eq!(
            checks(&resumed),
            checks(&original) - checks_at_cut,
            "grid candidates diverged {tail} events after the restore"
        );
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

/// The two sublinear monitors' work counters on a fixed-seed 16×16
/// lattice session with the builder's default cadences. Exact and
/// hardware-independent: an algorithmic regression (a wider grid probe, a
/// lost prune) moves them. Both stay far below the all-pairs work they
/// replaced.
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
    let diameter = sim.diameter_monitor().pair_checks();
    let samples = sim.diameter_monitor().series().len() as u64 - 1;
    assert_eq!(sim.events(), 4_000);
    // The historical sweep judged every dirty robot against all others.
    assert!(strong * 20 < dirty_sum * (n - 1), "{strong} vs {dirty_sum}");
    assert!(
        diameter * 20 < samples * n * (n - 1) / 2,
        "{diameter} over {samples}"
    );
    assert_eq!((strong, diameter), (191_120, 32_281), "pinned work counts");
}
