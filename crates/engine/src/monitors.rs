//! Incremental run-time monitors: the predicate checkers the simulation
//! driver consults after every engine event.
//!
//! Historically these checks lived inline in `SimulationBuilder::run` and
//! paid `O(n²)` per event (all-pairs scans) plus a full [`Configuration`]
//! materialization. The monitors here are *incremental*: robot positions are
//! piecewise-linear in time, so between two consecutive engine events only
//! robots that were in their Move phase can have changed position. The
//! driver hands each monitor the current positions **in place** plus that
//! *dirty set*, and pair predicates are re-evaluated only for pairs with a
//! dirty endpoint. Because pair distances attain their maxima exactly at
//! event boundaries (the piecewise-linear invariant the old inline checks
//! relied on), checking dirty pairs at every event remains exhaustive.
//! [`StrongVisibilityMonitor`] narrows even the dirty pairs down, to grid
//! neighbours and acquired partners, and the diameter runs through the
//! pruned kernel of [`cohesion_geometry::diameter`] — so no monitor scans
//! all `n` robots per dirty robot.
//!
//! [`Configuration`]: cohesion_model::Configuration

use crate::report::CohesionViolation;
use cohesion_geometry::hull::convex_hull;
use cohesion_geometry::point::Point;
use cohesion_geometry::{ConvexHull, DynamicGrid, Vec2};
use cohesion_model::frame::Ambient;
use cohesion_model::RobotPair;
use std::collections::BTreeSet;

/// Everything a monitor may look at for one engine event.
///
/// Borrowed views into driver-owned buffers — no per-event allocation.
pub struct MonitorContext<'a, P: Ambient> {
    /// Time of the event being processed.
    pub time: f64,
    /// 1-based count of events processed so far (for cadence checks).
    pub events: usize,
    /// Position of every robot at `time`.
    pub positions: &'a [P],
    /// Ascending dense indices of robots whose position changed since the
    /// previous event.
    pub dirty: &'a [usize],
    /// `dirty_mask[i]` ⟺ `dirty` contains `i` (for O(1) membership tests).
    pub dirty_mask: &'a [bool],
    /// Lazily fills a caller-provided buffer with the planar projection of
    /// positions ∪ pending targets — the vertex set of the paper's `CH_t`.
    /// Only invoked by hull-type monitors on their sampling cadence; the
    /// buffer-filling shape lets the monitor pool the vertex storage across
    /// samples instead of taking a fresh `Vec` per call.
    pub hull_points: &'a dyn Fn(&mut Vec<Vec2>),
}

/// A predicate checker driven once per engine event.
///
/// Monitors are deliberately small: state in, [`MonitorContext`] per event,
/// typed results read off the concrete monitor after the run. The driver
/// composes the four standard monitors below; external experiment harnesses
/// can implement the trait to track custom invariants without touching the
/// engine loop.
pub trait Monitor<P: Ambient> {
    /// Observes one engine event.
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>);
}

/// The configuration diameter of a position set: maximum pairwise distance
/// (`0` for fewer than two robots). The exact pruned kernel of
/// [`cohesion_geometry::diameter`], shared with
/// [`Configuration::diameter`](cohesion_model::Configuration::diameter) —
/// linear work on swarms with a few extreme points, and bit-identical to
/// the all-pairs maximum.
pub fn diameter_of<P: Point>(positions: &[P]) -> f64 {
    cohesion_geometry::diameter::diameter(positions)
}

/// Watches the Cohesive Convergence clause `E(0) ⊆ E(t)`: every initially
/// visible pair must stay within its visibility threshold at every event
/// time. Re-checks only initial edges incident to a dirty robot, via a
/// CSR-style adjacency of the initial graph.
pub struct CohesionMonitor {
    /// `adj[i]` = the initial-edge partners of robot `i` with the pair's
    /// visibility threshold (`V`, or `min(rᵢ, rⱼ)` under per-robot radii).
    adj: Vec<Vec<(usize, f64)>>,
    tol: f64,
    /// Pairs already reported (a violation is recorded once, at its first
    /// observation, like the historical inline check).
    violated: BTreeSet<(usize, usize)>,
    violations: Vec<CohesionViolation>,
    /// Scratch for per-event findings (kept across events to avoid
    /// reallocation).
    fresh: Vec<(usize, usize, f64)>,
}

impl CohesionMonitor {
    /// Builds the monitor over the initial edge list (pairs `(a, b)` with
    /// `a < b`) and a per-pair threshold function.
    pub fn new(
        n: usize,
        initial_edges: &[(usize, usize)],
        threshold: impl Fn(usize, usize) -> f64,
        tol: f64,
    ) -> Self {
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(a, b) in initial_edges {
            let t = threshold(a, b);
            adj[a].push((b, t));
            adj[b].push((a, t));
        }
        CohesionMonitor {
            adj,
            tol,
            violated: BTreeSet::new(),
            violations: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// `true` while no initial edge has been observed broken.
    pub fn maintained(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations recorded so far (first observation per pair, in event
    /// order, ties within an event broken by pair order).
    pub fn violations(&self) -> &[CohesionViolation] {
        &self.violations
    }

    /// The recorded violations (first observation per pair, in event order,
    /// ties within an event broken by pair order).
    pub fn into_violations(self) -> Vec<CohesionViolation> {
        self.violations
    }

    /// Restores the recorded-violation state from a checkpoint. The
    /// reported-pair set is rebuilt from the list — they are in bijection
    /// (a pair enters `violated` exactly when its violation is pushed), so
    /// checkpoints carry only the list.
    pub(crate) fn restore(&mut self, violations: Vec<CohesionViolation>) {
        self.violated = violations
            .iter()
            .map(|v| (v.pair.a.index(), v.pair.b.index()))
            .collect();
        self.violations = violations;
    }
}

impl<P: Ambient> Monitor<P> for CohesionMonitor {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        self.fresh.clear();
        for &a in ctx.dirty {
            for &(b, threshold) in &self.adj[a] {
                // A pair with both endpoints dirty is visited twice; keep
                // the visit from the smaller endpoint.
                if ctx.dirty_mask[b] && b < a {
                    continue;
                }
                let d = ctx.positions[a].dist(ctx.positions[b]);
                if d > threshold + self.tol {
                    let key = (a.min(b), a.max(b));
                    if !self.violated.contains(&key) {
                        self.fresh.push((key.0, key.1, d));
                    }
                }
            }
        }
        // Report in pair order — the order the historical full edge-list
        // sweep discovered simultaneous violations in.
        self.fresh.sort_unstable_by_key(|&(a, b, _)| (a, b));
        for &(a, b, d) in &self.fresh {
            if self.violated.insert((a, b)) {
                self.violations.push(CohesionViolation {
                    pair: RobotPair::new(a.into(), b.into()),
                    time: ctx.time,
                    distance: d,
                });
            }
        }
    }
}

/// Watches the acquired-visibility clause of Theorems 3–4: any pair that
/// ever comes within `V/2` must stay within `V` forever after.
///
/// Membership of the "acquired" set is a monotone property of pair-distance
/// history, so re-judging only pairs with a dirty endpoint observes exactly
/// the acquisitions and violations of the historical all-pairs sweep: a pair
/// with no dirty endpoint has the same distance as at the previous event,
/// where its status was already settled. Neither judgement needs every
/// partner of a dirty robot:
///
/// * an acquisition needs `d ≤ V/2 + tol`, so its candidates are the robots
///   in the grid cells (edge `V/2 + tol`) around the dirty robot, in a
///   [`DynamicGrid`] over the current positions in which only the dirty
///   robots relocate;
/// * a violation needs `d > V + tol` *and* an already-acquired partner, so
///   it scans the robot's row of the acquired bitset (kept symmetric in
///   memory) — and is skipped altogether once the verdict is `false`.
///
/// Per event that is `O(|dirty| · (local density + n/64))` instead of
/// `O(|dirty| · n)`, and every candidate is judged by the historical
/// comparisons. The constructor seeds the set from the initial positions
/// (equivalently, the positions at the first event — nothing moves before
/// it). A non-finite `V/2 + tol` acquires every pair (none, when NaN) and
/// can never be violated.
pub struct StrongVisibilityMonitor<P: Point = Vec2> {
    n: usize,
    /// Acquisition radius `V/2 + tol`.
    half: f64,
    /// Violation threshold `V + tol`.
    limit: f64,
    /// Row-major `n × n` bitset, symmetric: an acquired pair `{a, b}` sets
    /// bits `(a, b)` and `(b, a)`. Checkpoints carry the upper triangle.
    acquired: Vec<u64>,
    ok: bool,
    /// The current positions, bucketed; `None` when `half` is not finite.
    grid: Option<DynamicGrid<P>>,
    /// Pooled grid-query buffer.
    hits: Vec<usize>,
    pair_checks: u64,
}

impl<P: Point> StrongVisibilityMonitor<P> {
    /// Builds the monitor and seeds the acquired set from the initial
    /// positions. `V` is positive (as the builder asserts), so no distance
    /// both acquires a pair and violates it.
    pub fn new(v: f64, tol: f64, initial_positions: &[P]) -> Self {
        let n = initial_positions.len();
        let half = v / 2.0 + tol;
        let mut monitor = StrongVisibilityMonitor {
            n,
            half,
            limit: v + tol,
            acquired: vec![0u64; (n * n).div_ceil(64)],
            ok: true,
            grid: None,
            hits: Vec::new(),
            pair_checks: 0,
        };
        if half == f64::INFINITY {
            for a in 0..n {
                for b in (a + 1)..n {
                    insert_pair(&mut monitor.acquired, n, a, b);
                }
            }
        }
        if !half.is_finite() {
            return monitor;
        }
        monitor.rebuild_grid(initial_positions);
        let mut hits = std::mem::take(&mut monitor.hits);
        for (a, &p) in initial_positions.iter().enumerate() {
            monitor.candidates(p, &mut hits);
            for &b in &hits {
                if b > a && p.dist(initial_positions[b]) <= half {
                    insert_pair(&mut monitor.acquired, n, a, b);
                }
            }
        }
        monitor.hits = hits;
        monitor
    }

    /// `true` while no acquired pair has been observed beyond `V`.
    pub fn ok(&self) -> bool {
        self.ok
    }

    /// Pair distances judged by [`Monitor::on_event`] so far: grid
    /// candidates plus acquired partners of the dirty robots, each pair at
    /// most once per event. A deterministic work count — not checkpointed,
    /// so a restored monitor counts from zero.
    pub fn pair_checks(&self) -> u64 {
        self.pair_checks
    }

    /// The acquired set as checkpointed: `⌈n²/64⌉` words of a row-major
    /// `n × n` bitset in which pair `{a, b}` (`a < b`) is bit `a · n + b`.
    pub fn acquired_bits(&self) -> Vec<u64> {
        let mut upper = vec![0u64; self.acquired.len()];
        for a in 0..self.n {
            for b in row_partners(&self.acquired, self.n, a).filter(|&b| b > a) {
                let bit = a * self.n + b;
                upper[bit / 64] |= 1 << (bit % 64);
            }
        }
        upper
    }

    /// Restores the acquired set and verdict from a checkpoint, and
    /// re-buckets the grid at `positions` — the restored session's current
    /// positions, which may lie far from the ones the monitor was built at.
    pub(crate) fn restore(
        &mut self,
        acquired: Vec<u64>,
        ok: bool,
        positions: &[P],
    ) -> Result<(), String> {
        if acquired.len() != self.acquired.len() {
            return Err(format!(
                "checkpoint strong-visibility bitset has {} words, monitor needs {}",
                acquired.len(),
                self.acquired.len()
            ));
        }
        self.acquired.fill(0);
        for a in 0..self.n {
            for b in row_partners(&acquired, self.n, a).filter(|&b| b > a) {
                insert_pair(&mut self.acquired, self.n, a, b);
            }
        }
        self.ok = ok;
        if self.grid.is_some() {
            self.rebuild_grid(positions);
        }
        Ok(())
    }

    fn rebuild_grid(&mut self, positions: &[P]) {
        let cell = if self.half > 0.0 { self.half } else { 1.0 };
        let mut grid = DynamicGrid::with_extent(self.n, cell, positions);
        for (i, &p) in positions.iter().enumerate() {
            grid.insert(i, p);
        }
        self.grid = Some(grid);
    }

    /// Fills `hits` with every robot in the grid cells meeting the box
    /// `p ± pad` (a degenerate segment's padded box). The pad exceeds
    /// `half` by the worst relative rounding of a computed distance, so
    /// every robot judged within `half` of `p` lies inside the box; and
    /// rounding is monotone, so the box corners' cell keys bracket the keys
    /// of every point inside it, at any coordinate magnitude.
    fn candidates(&self, p: P, hits: &mut Vec<usize>) {
        let pad = self.half * (1.0 + 8.0 * f64::EPSILON);
        hits.clear();
        if let Some(grid) = &self.grid {
            grid.query_segment_cells(p, p, pad, hits);
        }
    }
}

/// Sets pair `{a, b}` in a symmetric row-major `n × n` bitset.
fn insert_pair(bits: &mut [u64], n: usize, a: usize, b: usize) {
    for bit in [a * n + b, b * n + a] {
        bits[bit / 64] |= 1 << (bit % 64);
    }
}

/// The set bits of row `a` of a row-major `n × n` bitset, as ascending
/// column indices — the partners acquired with robot `a`.
fn row_partners(bits: &[u64], n: usize, a: usize) -> impl Iterator<Item = usize> + '_ {
    let (lo, hi) = (a * n, (a + 1) * n);
    (lo / 64..hi.div_ceil(64)).flat_map(move |w| {
        let mut word = bits[w];
        if w == lo / 64 {
            word &= !0u64 << (lo % 64);
        }
        if w == (hi - 1) / 64 && hi % 64 != 0 {
            word &= (1u64 << (hi % 64)) - 1;
        }
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                bit - lo
            })
        })
    })
}

impl<P: Ambient> Monitor<P> for StrongVisibilityMonitor<P> {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        let Some(grid) = self.grid.as_mut() else {
            return;
        };
        let positions = ctx.positions;
        for &a in ctx.dirty {
            grid.remove(a);
            grid.insert(a, positions[a]);
        }
        // A pair is visited once per event: a pair of two dirty robots from
        // its smaller endpoint.
        let skip = |a: usize, b: usize| b == a || (ctx.dirty_mask[b] && b < a);
        // Violations first, against the acquisitions of earlier events —
        // those the historical sweep's `contains` saw.
        if self.ok {
            'scan: for &a in ctx.dirty {
                for b in row_partners(&self.acquired, self.n, a) {
                    if skip(a, b) {
                        continue;
                    }
                    self.pair_checks += 1;
                    if positions[a].dist(positions[b]) > self.limit {
                        self.ok = false;
                        break 'scan;
                    }
                }
            }
        }
        let mut hits = std::mem::take(&mut self.hits);
        for &a in ctx.dirty {
            self.candidates(positions[a], &mut hits);
            for &b in &hits {
                if skip(a, b) {
                    continue;
                }
                self.pair_checks += 1;
                if positions[a].dist(positions[b]) <= self.half {
                    insert_pair(&mut self.acquired, self.n, a, b);
                }
            }
        }
        self.hits = hits;
    }
}

/// Watches hull nesting on a sampling cadence: each sampled convex hull of
/// positions ∪ pending targets must contain the next (the paper's
/// hull-diminishing invariant). Planar only — the driver constructs this
/// monitor only when `P::DIM == 2`.
pub struct HullMonitor {
    every: usize,
    tol: f64,
    prev: Option<ConvexHull>,
    nested: bool,
    /// Pooled vertex buffer refilled via `MonitorContext::hull_points`.
    scratch: Vec<Vec2>,
}

impl HullMonitor {
    /// Samples every `every` events with containment tolerance `tol`.
    ///
    /// # Panics
    ///
    /// Panics when `every == 0` (a disabled monitor should simply not be
    /// constructed).
    pub fn new(every: usize, tol: f64) -> Self {
        assert!(every > 0, "hull cadence must be positive");
        HullMonitor {
            every,
            tol,
            prev: None,
            nested: true,
            scratch: Vec::new(),
        }
    }

    /// `true` while every sampled hull contained its successor.
    pub fn nested(&self) -> bool {
        self.nested
    }

    /// The previous sampled hull's vertices, for checkpointing.
    pub(crate) fn prev_vertices(&self) -> Option<&[Vec2]> {
        self.prev.as_ref().map(ConvexHull::vertices)
    }

    /// Restores the sampled-hull state from a checkpoint. `convex_hull` is
    /// idempotent on a hull's own canonical vertex list, so rebuilding from
    /// vertices reproduces the previous hull exactly.
    pub(crate) fn restore(&mut self, prev: Option<Vec<Vec2>>, nested: bool) {
        self.prev = prev.map(|vertices| convex_hull(&vertices));
        self.nested = nested;
    }
}

impl<P: Ambient> Monitor<P> for HullMonitor {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        if ctx.events % self.every != 0 {
            return;
        }
        (ctx.hull_points)(&mut self.scratch);
        let hull = convex_hull(&self.scratch);
        if let Some(prev) = &self.prev {
            if !prev.contains_hull(&hull, self.tol) {
                self.nested = false;
            }
        }
        self.prev = Some(hull);
    }
}

/// Samples the configuration diameter on a cadence and tests convergence
/// (`diameter ≤ ε`). Reads positions in place — no `Configuration` clone —
/// through the pruned kernel of [`diameter_of`].
pub struct DiameterMonitor {
    every: usize,
    epsilon: f64,
    series: Vec<(f64, f64)>,
    converged: bool,
    pair_checks: u64,
}

impl DiameterMonitor {
    /// Samples every `every` events (`0` disables sampling; the series then
    /// only carries the seed point). `initial` seeds the series with the
    /// `t = 0` diameter.
    pub fn new(every: usize, epsilon: f64, initial: (f64, f64)) -> Self {
        DiameterMonitor {
            every,
            epsilon,
            series: vec![initial],
            converged: false,
            pair_checks: 0,
        }
    }

    /// `true` once a sampled diameter reached `ε`. The driver stops the run
    /// at the first converged sample, like the historical inline check.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Pair distances the sampled diameters evaluated so far (see
    /// [`diameter_counted`](cohesion_geometry::diameter::diameter_counted)).
    /// A deterministic work count — not checkpointed, so a restored monitor
    /// counts from zero.
    pub fn pair_checks(&self) -> u64 {
        self.pair_checks
    }

    /// The `(time, diameter)` samples collected so far.
    pub fn series(&self) -> &[(f64, f64)] {
        &self.series
    }

    /// Consumes the monitor, returning the sample series.
    pub fn into_series(self) -> Vec<(f64, f64)> {
        self.series
    }

    /// Restores the sample series and verdict from a checkpoint.
    pub(crate) fn restore(&mut self, series: Vec<(f64, f64)>, converged: bool) {
        self.series = series;
        self.converged = converged;
    }
}

impl<P: Ambient> Monitor<P> for DiameterMonitor {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        if self.every == 0 || ctx.events % self.every != 0 {
            return;
        }
        let (d, pairs) = cohesion_geometry::diameter::diameter_counted(ctx.positions);
        self.pair_checks += pairs;
        self.series.push((ctx.time, d));
        if d <= self.epsilon {
            self.converged = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        time: f64,
        events: usize,
        positions: &'a [Vec2],
        dirty: &'a [usize],
        dirty_mask: &'a [bool],
        hull_points: &'a dyn Fn(&mut Vec<Vec2>),
    ) -> MonitorContext<'a, Vec2> {
        MonitorContext {
            time,
            events,
            positions,
            dirty,
            dirty_mask,
            hull_points,
        }
    }

    const NO_HULL: &dyn Fn(&mut Vec<Vec2>) = &|out| out.clear();

    #[test]
    fn cohesion_monitor_flags_broken_edge_once() {
        let mut m = CohesionMonitor::new(2, &[(0, 1)], |_, _| 1.0, 1e-9);
        let near = [Vec2::ZERO, Vec2::new(0.9, 0.0)];
        let far = [Vec2::ZERO, Vec2::new(1.5, 0.0)];
        let mask = [false, true];
        m.on_event(&ctx(0.5, 1, &near, &[1], &mask, NO_HULL));
        assert!(m.maintained());
        m.on_event(&ctx(1.0, 2, &far, &[1], &mask, NO_HULL));
        assert!(!m.maintained());
        m.on_event(&ctx(1.5, 3, &far, &[1], &mask, NO_HULL));
        let violations = m.into_violations();
        assert_eq!(violations.len(), 1, "first observation only");
        assert_eq!(violations[0].time, 1.0);
        assert_eq!(violations[0].distance, 1.5);
    }

    #[test]
    fn cohesion_monitor_ignores_clean_pairs() {
        // Robot 2 drifts away but shares no initial edge with anyone.
        let mut m = CohesionMonitor::new(3, &[(0, 1)], |_, _| 1.0, 1e-9);
        let pos = [Vec2::ZERO, Vec2::new(0.5, 0.0), Vec2::new(9.0, 0.0)];
        let mask = [false, false, true];
        m.on_event(&ctx(1.0, 1, &pos, &[2], &mask, NO_HULL));
        assert!(m.maintained());
    }

    #[test]
    fn strong_visibility_seeds_from_initial_positions() {
        // The pair starts acquired (d = 0.4 ≤ V/2) without ever being dirty,
        // then separates beyond V in one hop: the violation must register.
        let start = [Vec2::ZERO, Vec2::new(0.4, 0.0)];
        let mut m = StrongVisibilityMonitor::new(1.0, 1e-9, &start);
        let apart = [Vec2::ZERO, Vec2::new(1.2, 0.0)];
        let mask = [false, true];
        m.on_event(&ctx(1.0, 1, &apart, &[1], &mask, NO_HULL));
        assert!(!m.ok());
    }

    #[test]
    fn strong_visibility_never_acquired_pair_may_separate() {
        let start = [Vec2::ZERO, Vec2::new(0.9, 0.0)];
        let mut m = StrongVisibilityMonitor::new(1.0, 1e-9, &start);
        let apart = [Vec2::ZERO, Vec2::new(1.2, 0.0)];
        let mask = [false, true];
        m.on_event(&ctx(1.0, 1, &apart, &[1], &mask, NO_HULL));
        assert!(m.ok(), "0.9 > V/2: visibility was never acquired");
    }

    #[test]
    fn diameter_monitor_samples_on_cadence_and_converges() {
        let mut m = DiameterMonitor::new(2, 0.5, (0.0, 2.0));
        let wide = [Vec2::ZERO, Vec2::new(2.0, 0.0)];
        let tight = [Vec2::ZERO, Vec2::new(0.3, 0.0)];
        let mask = [false, false];
        m.on_event(&ctx(1.0, 1, &wide, &[], &mask, NO_HULL));
        assert_eq!(m.series().len(), 1, "off-cadence event not sampled");
        m.on_event(&ctx(2.0, 2, &wide, &[], &mask, NO_HULL));
        assert_eq!(m.series(), &[(0.0, 2.0), (2.0, 2.0)]);
        assert!(!m.converged());
        m.on_event(&ctx(3.0, 4, &tight, &[], &mask, NO_HULL));
        assert!(m.converged());
        assert_eq!(m.into_series().last(), Some(&(3.0, 0.3)));
    }

    #[test]
    fn hull_monitor_detects_expansion() {
        let shrink_then_grow = [
            vec![Vec2::ZERO, Vec2::new(4.0, 0.0), Vec2::new(0.0, 4.0)],
            vec![Vec2::ZERO, Vec2::new(2.0, 0.0), Vec2::new(0.0, 2.0)],
            vec![Vec2::ZERO, Vec2::new(9.0, 0.0), Vec2::new(0.0, 9.0)],
        ];
        let mut m = HullMonitor::new(1, 1e-9);
        let mask = [false; 3];
        for (i, pts) in shrink_then_grow.iter().enumerate() {
            let provider = |out: &mut Vec<Vec2>| {
                out.clear();
                out.extend_from_slice(pts);
            };
            let positions = [Vec2::ZERO; 3];
            m.on_event(&ctx(i as f64, i + 1, &positions, &[], &mask, &provider));
            if i < 2 {
                assert!(m.nested(), "shrinking hulls stay nested");
            }
        }
        assert!(!m.nested(), "expansion breaks nesting");
    }

    #[test]
    fn diameter_of_matches_configuration() {
        use cohesion_model::Configuration;
        let pts = vec![Vec2::ZERO, Vec2::new(3.0, 4.0), Vec2::new(1.0, 1.0)];
        let c = Configuration::new(pts.clone());
        assert_eq!(diameter_of(&pts), c.diameter());
        assert_eq!(diameter_of::<Vec2>(&[]), 0.0);
    }
}
