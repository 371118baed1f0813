//! Incremental run-time monitors: the predicate checkers the simulation
//! driver consults after every engine event.
//!
//! Historically these checks lived inline in `SimulationBuilder::run` and
//! paid `O(n²)` per event (all-pairs scans) plus a full [`Configuration`]
//! materialization. The monitors here are *incremental*: robot positions are
//! piecewise-linear in time, so between two consecutive engine events only
//! robots that were in their Move phase can have changed position. The
//! driver hands each monitor the current positions **in place** plus that
//! *dirty set*. A pair with no dirty endpoint has the distance it had at the
//! previous event, where it was already judged, and pair distances attain
//! their maxima exactly at event boundaries (the piecewise-linear invariant
//! the old inline checks relied on) — so judging the pairs with a dirty
//! endpoint at every event is exhaustive.
//!
//! The two pair monitors, [`CohesionMonitor`] and
//! [`StrongVisibilityMonitor`], narrow even those pairs down with
//! *displacement certificates* — the "skin" form of the kinetic
//! certificates of Basch, Guibas and Hershberger. Each robot carries an
//! *anchor*, its position when last anchored, and may drift `β = S/2` from
//! it, where the skin `S` is a sixteenth of the pair threshold. A pair whose
//! anchor distance clears its threshold by more than `S` is *safe*: by the
//! triangle inequality its distance stays within `S` of the anchor
//! distance, so it cannot cross until an endpoint re-anchors. Every other
//! pair is *hot*, and is judged by the historical f64 comparison at every
//! event with a dirty endpoint. Per event, a monitor tests `|p − A|² ≤ β²`
//! for each dirty robot and judges its hot pairs; a robot past its budget
//! re-anchors and re-classifies its pairs.
//!
//! The certificates hold for the computed distances, not just the real
//! ones. With `u = 2⁻⁵³` the unit roundoff, a computed distance is within
//! `4u` of the exact one, relatively, at any coordinate magnitude (each
//! coordinate difference is rounded relative to itself), and a robot that
//! passes the displacement test lies within `β(1 + 4u)` of its anchor. So
//! the judged distance of a pair whose computed anchor distance is `D`
//! stays within `(D ± S)(1 ± 9u)`, and a pair is classified safe only when
//! `(D + S)(1 + 8ε)` is below its violation threshold, or `D` exceeds
//! `(V/2 + tol + S)(1 + 8ε)` — a slack of `16u`, which also covers the
//! rounding of those two bounds. (The bound is relative, so it fails only
//! where squared coordinate differences underflow, at distances below
//! about 10⁻¹⁵⁴.) Every acquisition, verdict and violation — with its
//! first-observation time and distance — is therefore the one a sweep of
//! all pairs with a dirty endpoint records, bit for bit.
//!
//! The diameter runs through the pruned kernel of
//! [`cohesion_geometry::diameter`], so no monitor scans all `n` robots per
//! dirty robot.
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

/// The skin `S` as a fraction of the pair threshold it guards.
const SKIN_PER_THRESHOLD: f64 = 1.0 / 16.0;

/// The relative rounding slack `1 + 8ε` of a certificate (see the module
/// docs for the errors it covers).
const SLACK: f64 = 1.0 + 8.0 * f64::EPSILON;

/// Coordinate axes an anchor carries (planar points leave the third 0).
const AXES: usize = 3;

/// The skin of a pair threshold. A threshold that is not positive and
/// finite gets none: every move then re-anchors, which is still exact.
fn skin_of(threshold: f64) -> f64 {
    if threshold > 0.0 && threshold.is_finite() {
        threshold * SKIN_PER_THRESHOLD
    } else {
        0.0
    }
}

/// `true` when a pair `d` apart at its anchors is judged within `limit` at
/// every event until an endpoint re-anchors: certified against a
/// violation (`d > limit`).
fn certified_within(d: f64, skin: f64, limit: f64) -> bool {
    (d + skin) * SLACK < limit
}

/// Displacement certificates: every robot's anchor and the common budget
/// `β = S/2` it may drift from it.
struct Anchors {
    at: Vec<[f64; AXES]>,
    /// `β²`.
    budget_sq: f64,
    /// The robots re-anchored at the current event.
    moved: Vec<usize>,
}

impl Anchors {
    /// No robot anchored yet: [`Anchors::reset`] comes first.
    fn new(skin: f64) -> Self {
        let budget = skin / 2.0;
        Anchors {
            at: Vec::new(),
            budget_sq: budget * budget,
            moved: Vec::new(),
        }
    }

    /// Anchors every robot at `positions`.
    fn reset<P: Point>(&mut self, positions: &[P]) {
        self.at.clear();
        self.at.extend(positions.iter().map(|&p| coords(p)));
    }

    /// Re-anchors every dirty robot past its budget and lists it in
    /// `moved`. A non-finite displacement re-anchors too.
    fn refresh<P: Point>(&mut self, positions: &[P], dirty: &[usize]) {
        self.moved.clear();
        for &i in dirty {
            let p = coords(positions[i]);
            let drift = dist_sq(p, self.at[i]);
            if drift > self.budget_sq || drift.is_nan() {
                self.at[i] = p;
                self.moved.push(i);
            }
        }
    }

    /// The computed distance between the anchors of `a` and `b`.
    fn dist(&self, a: usize, b: usize) -> f64 {
        dist_sq(self.at[a], self.at[b]).sqrt()
    }
}

fn coords<P: Point>(p: P) -> [f64; AXES] {
    assert!(P::DIM <= AXES, "anchors carry up to {AXES} axes");
    let mut c = [0.0; AXES];
    for (axis, slot) in c.iter_mut().enumerate().take(P::DIM) {
        *slot = p.coord(axis);
    }
    c
}

fn dist_sq(p: [f64; AXES], q: [f64; AXES]) -> f64 {
    let d = [p[0] - q[0], p[1] - q[1], p[2] - q[2]];
    d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
}

/// The hot pairs of a monitor as a symmetric adjacency: `{a, b}` is hot
/// when row `a` lists `b` and row `b` lists `a`, each with the pair's datum.
struct HotPairs<T> {
    rows: Vec<Vec<(usize, T)>>,
}

impl<T: Copy> HotPairs<T> {
    /// No rows yet: [`HotPairs::reset`] comes first.
    fn new() -> Self {
        HotPairs { rows: Vec::new() }
    }

    fn row(&self, a: usize) -> &[(usize, T)] {
        &self.rows[a]
    }

    fn link(&mut self, a: usize, b: usize, datum: T) {
        self.rows[a].push((b, datum));
        self.rows[b].push((a, datum));
    }

    fn unlink(&mut self, a: usize, b: usize) {
        remove_partner(&mut self.rows[a], b);
        remove_partner(&mut self.rows[b], a);
    }

    /// Unlinks every hot pair of robot `a`, keeping the row's allocation.
    fn isolate(&mut self, a: usize) {
        let mut row = std::mem::take(&mut self.rows[a]);
        for &(b, _) in &row {
            remove_partner(&mut self.rows[b], a);
        }
        row.clear();
        self.rows[a] = row;
    }

    /// `n` empty rows, keeping the allocations of the old ones.
    fn reset(&mut self, n: usize) {
        for row in &mut self.rows {
            row.clear();
        }
        self.rows.resize_with(n, Vec::new);
    }
}

fn remove_partner<T>(row: &mut Vec<(usize, T)>, b: usize) {
    if let Some(i) = row.iter().position(|&(c, _)| c == b) {
        row.swap_remove(i);
    }
}

/// Watches the Cohesive Convergence clause `E(0) ⊆ E(t)`: every initially
/// visible pair must stay within its visibility threshold at every event
/// time.
///
/// Only *hot* initial edges are judged (see the [module docs](self)): those
/// whose anchor distance does not clear the edge's violation threshold by
/// the skin — a sixteenth of the smallest edge threshold — plus the
/// rounding slack. Per event that is one displacement test per dirty robot
/// plus its hot edges; a robot past its budget re-anchors and re-classifies
/// its initial edges. The constructor sees no positions, so the first event
/// after construction or a checkpoint restore anchors every robot where
/// it then stands and classifies every initial edge.
pub struct CohesionMonitor {
    /// `adj[i]` = the initial-edge partners of robot `i` with the pair's
    /// violation threshold: its visibility threshold (`V`, or `min(rᵢ, rⱼ)`
    /// under per-robot radii) plus `tol`.
    adj: Vec<Vec<(usize, f64)>>,
    skin: f64,
    anchors: Anchors,
    /// `false` until an event has anchored every robot.
    anchored: bool,
    /// The hot initial edges not yet reported, with their thresholds.
    hot: HotPairs<f64>,
    /// Pairs already reported (a violation is recorded once, at its first
    /// observation, like the historical inline check).
    violated: BTreeSet<(usize, usize)>,
    violations: Vec<CohesionViolation>,
    /// Scratch for per-event findings (kept across events to avoid
    /// reallocation).
    fresh: Vec<(usize, usize, f64)>,
    pair_checks: u64,
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
        let mut tightest = f64::INFINITY;
        for &(a, b) in initial_edges {
            let t = threshold(a, b);
            tightest = tightest.min(t);
            adj[a].push((b, t + tol));
            adj[b].push((a, t + tol));
        }
        let skin = skin_of(tightest);
        CohesionMonitor {
            adj,
            skin,
            anchors: Anchors::new(skin),
            anchored: false,
            hot: HotPairs::new(),
            violated: BTreeSet::new(),
            violations: Vec::new(),
            fresh: Vec::new(),
            pair_checks: 0,
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

    /// Pair distances evaluated so far: hot edges judged at events, plus
    /// the anchor distances of the edges classified whenever robots
    /// (re-)anchor. A deterministic work count — not checkpointed, so a
    /// restored monitor counts from zero.
    pub fn pair_checks(&self) -> u64 {
        self.pair_checks
    }

    /// Restores the recorded-violation state from a checkpoint. The
    /// reported-pair set is rebuilt from the list — they are in bijection
    /// (a pair enters `violated` exactly when its violation is pushed), so
    /// checkpoints carry only the list. Anchors are derived state: the next
    /// event re-anchors every robot at the restored positions.
    pub(crate) fn restore(&mut self, violations: Vec<CohesionViolation>) {
        self.violated = violations
            .iter()
            .map(|v| (v.pair.a.index(), v.pair.b.index()))
            .collect();
        self.violations = violations;
        self.anchored = false;
    }

    /// Anchors every robot at `positions` and classifies every edge.
    fn anchor_all<P: Point>(&mut self, positions: &[P]) {
        self.anchors.reset(positions);
        self.hot.reset(positions.len());
        for a in 0..self.adj.len() {
            for &(b, limit) in &self.adj[a] {
                if b > a {
                    self.pair_checks += 1;
                    if !certified_within(self.anchors.dist(a, b), self.skin, limit)
                        && !self.violated.contains(&(a, b))
                    {
                        self.hot.link(a, b, limit);
                    }
                }
            }
        }
        self.anchored = true;
    }

    /// Re-classifies the edges of the freshly re-anchored robot `a`.
    fn classify(&mut self, a: usize) {
        self.hot.isolate(a);
        for &(b, limit) in &self.adj[a] {
            self.pair_checks += 1;
            if !certified_within(self.anchors.dist(a, b), self.skin, limit)
                && !self.violated.contains(&(a.min(b), a.max(b)))
            {
                self.hot.link(a, b, limit);
            }
        }
    }
}

impl<P: Ambient> Monitor<P> for CohesionMonitor {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        let positions = ctx.positions;
        if self.anchored {
            self.anchors.refresh(positions, ctx.dirty);
            let moved = std::mem::take(&mut self.anchors.moved);
            for &a in &moved {
                self.classify(a);
            }
            self.anchors.moved = moved;
        } else {
            self.anchor_all(positions);
        }
        self.fresh.clear();
        for &a in ctx.dirty {
            for &(b, limit) in self.hot.row(a) {
                // A pair with both endpoints dirty is visited twice; keep
                // the visit from the smaller endpoint.
                if ctx.dirty_mask[b] && b < a {
                    continue;
                }
                self.pair_checks += 1;
                let d = positions[a].dist(positions[b]);
                if d > limit {
                    self.fresh.push((a.min(b), a.max(b), d));
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
                self.hot.unlink(a, b);
            }
        }
    }
}

/// Watches the acquired-visibility clause of Theorems 3–4: any pair that
/// ever comes within `V/2` must stay within `V` forever after.
///
/// Membership of the "acquired" set is a monotone property of pair-distance
/// history. Of the pairs with a dirty endpoint, only *hot* ones are judged
/// (see the [module docs](self)), with skin `S = V/16`:
///
/// * a pair not yet acquired is hot while its anchor distance is within
///   `(V/2 + tol + S)(1 + 8ε)` — it may come within `V/2 + tol`;
/// * an acquired pair is hot while its anchor distance plus `S`, with the
///   same slack, is not below `V + tol` — it may go beyond — and only while
///   the verdict still stands.
///
/// A robot past its displacement budget re-anchors and re-classifies its
/// acquired partners (its row of the acquired bitset, kept symmetric in
/// memory) and the robots of the grid cells around its new anchor, in a
/// [`DynamicGrid`] over the anchors — so the grid changes only on a
/// re-anchor. A pair acquired at an event leaves the hot set unless it may
/// be violated. Each hot pair is judged by the historical comparisons, once
/// per event, violations against the acquisitions of earlier events.
///
/// The constructor seeds the acquired set from the initial positions
/// (equivalently, the positions at the first event — nothing moves before
/// it) with one [`DynamicGrid::pairs_within`] scan. Anchors are derived
/// state: the first event after construction or a checkpoint restore
/// anchors every robot where it then stands and classifies every pair, in
/// one more scan of the same grid.
pub struct StrongVisibilityMonitor<P: Point = Vec2> {
    n: usize,
    /// Acquisition radius `V/2 + tol`.
    half: f64,
    /// Violation threshold `V + tol`.
    limit: f64,
    skin: f64,
    /// `(half + skin)(1 + 8ε)`: a pair not yet acquired whose anchors lie
    /// farther apart cannot acquire before an endpoint re-anchors.
    reach: f64,
    /// Row-major `n × n` bitset, symmetric: an acquired pair `{a, b}` sets
    /// bits `(a, b)` and `(b, a)`. Checkpoints carry the upper triangle.
    acquired: Vec<u64>,
    ok: bool,
    anchors: Anchors,
    /// `false` until an event has anchored every robot.
    anchored: bool,
    /// The anchors, bucketed at cell edge `reach` (until the first event,
    /// the positions the monitor was built or restored at).
    grid: DynamicGrid<P>,
    hot: HotPairs<()>,
    /// Pooled grid-query buffer.
    hits: Vec<usize>,
    /// Scratch for the pairs acquired at the current event.
    fresh: Vec<(usize, usize)>,
    pair_checks: u64,
}

impl<P: Point> StrongVisibilityMonitor<P> {
    /// Builds the monitor and seeds the acquired set from the initial
    /// positions. `V` is positive (as the builder asserts), so no distance
    /// both acquires a pair and violates it.
    ///
    /// # Panics
    ///
    /// Panics when `V/2 + tol` is not finite: the acquisition radius sets
    /// the cell edge of the monitor's grid.
    pub fn new(v: f64, tol: f64, initial_positions: &[P]) -> Self {
        let half = v / 2.0 + tol;
        assert!(
            half.is_finite(),
            "strong visibility needs a finite V/2 + tol, got V = {v}, tol = {tol}"
        );
        let n = initial_positions.len();
        let skin = skin_of(v);
        let reach = (half + skin) * SLACK;
        let grid = grid_at(reach, initial_positions);
        let mut acquired = vec![0u64; (n * n).div_ceil(64)];
        for (a, b) in grid.pairs_within(half) {
            insert_pair(&mut acquired, n, a, b);
        }
        StrongVisibilityMonitor {
            n,
            half,
            limit: v + tol,
            skin,
            reach,
            acquired,
            ok: true,
            anchors: Anchors::new(skin),
            anchored: false,
            grid,
            hot: HotPairs::new(),
            hits: Vec::new(),
            fresh: Vec::new(),
            pair_checks: 0,
        }
    }

    /// `true` while no acquired pair has been observed beyond `V`.
    pub fn ok(&self) -> bool {
        self.ok
    }

    /// Pair distances evaluated so far: hot pairs judged at events, plus
    /// the anchor distances of the pairs classified whenever robots
    /// (re-)anchor. A deterministic work count — not checkpointed, so a
    /// restored monitor counts from zero.
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
    /// Anchors are derived state: the next event re-anchors every robot.
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
        self.grid = grid_at(self.reach, positions);
        self.anchored = false;
        Ok(())
    }

    /// Anchors every robot at `positions` and classifies every pair afresh.
    /// The grid holds the positions of the previous event, or of the
    /// construction or restore; only the `dirty` robots relocate.
    fn anchor_all(&mut self, positions: &[P], dirty: &[usize]) {
        for &a in dirty {
            self.grid.remove(a);
            self.grid.insert(a, positions[a]);
        }
        self.anchors.reset(positions);
        self.hot.reset(positions.len());
        for (a, b) in self.grid.pairs_within(self.reach) {
            self.pair_checks += 1;
            if !has_pair(&self.acquired, self.n, a, b) {
                self.hot.link(a, b, ());
            }
        }
        if self.ok {
            for a in 0..self.n {
                for b in row_partners(&self.acquired, self.n, a).filter(|&b| b > a) {
                    self.pair_checks += 1;
                    if !certified_within(self.anchors.dist(a, b), self.skin, self.limit) {
                        self.hot.link(a, b, ());
                    }
                }
            }
        }
        self.anchored = true;
    }

    /// Re-classifies the pairs of robot `a`, freshly re-anchored at `p`.
    fn classify(&mut self, a: usize, p: P) {
        self.hot.isolate(a);
        // Every robot whose anchor is computed within `reach` of `p` lies
        // in the box `p ± pad`, as for `DynamicGrid::pairs_within`.
        let pad = self.reach * SLACK;
        let mut hits = std::mem::take(&mut self.hits);
        hits.clear();
        self.grid.query_segment_cells(p, p, pad, &mut hits);
        for &b in &hits {
            if b == a || has_pair(&self.acquired, self.n, a, b) {
                continue;
            }
            self.pair_checks += 1;
            if self.anchors.dist(a, b) <= self.reach {
                self.hot.link(a, b, ());
            }
        }
        self.hits = hits;
        if self.ok {
            for b in row_partners(&self.acquired, self.n, a) {
                self.pair_checks += 1;
                if !certified_within(self.anchors.dist(a, b), self.skin, self.limit) {
                    self.hot.link(a, b, ());
                }
            }
        }
    }
}

/// The monitor's grid over `positions`, celled at the classification reach
/// (a non-positive reach certifies every pair not yet acquired, so any cell
/// edge serves).
fn grid_at<P: Point>(reach: f64, positions: &[P]) -> DynamicGrid<P> {
    DynamicGrid::from_points(if reach > 0.0 { reach } else { 1.0 }, positions)
}

/// Sets pair `{a, b}` in a symmetric row-major `n × n` bitset.
fn insert_pair(bits: &mut [u64], n: usize, a: usize, b: usize) {
    for bit in [a * n + b, b * n + a] {
        bits[bit / 64] |= 1 << (bit % 64);
    }
}

/// `true` when bit `(a, b)` of a row-major `n × n` bitset is set.
fn has_pair(bits: &[u64], n: usize, a: usize, b: usize) -> bool {
    let bit = a * n + b;
    bits[bit / 64] >> (bit % 64) & 1 != 0
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
        let positions = ctx.positions;
        if self.anchored {
            self.anchors.refresh(positions, ctx.dirty);
            let moved = std::mem::take(&mut self.anchors.moved);
            // Relocate every re-anchored robot first, so each
            // re-classification sees the other robots' new anchors.
            for &a in &moved {
                self.grid.remove(a);
                self.grid.insert(a, positions[a]);
            }
            for &a in &moved {
                self.classify(a, positions[a]);
            }
            self.anchors.moved = moved;
        } else {
            self.anchor_all(positions, ctx.dirty);
        }
        // Each hot pair is judged once per event: a pair of two dirty robots
        // from its smaller endpoint. Violations are judged against the
        // acquisitions of earlier events — those the historical sweep's
        // `contains` saw.
        self.fresh.clear();
        for &a in ctx.dirty {
            for &(b, ()) in self.hot.row(a) {
                if ctx.dirty_mask[b] && b < a {
                    continue;
                }
                let acquired = has_pair(&self.acquired, self.n, a, b);
                if acquired && !self.ok {
                    // The verdict is final: acquired pairs need no judging.
                    continue;
                }
                self.pair_checks += 1;
                let d = positions[a].dist(positions[b]);
                if acquired {
                    if d > self.limit {
                        self.ok = false;
                    }
                } else if d <= self.half {
                    self.fresh.push((a, b));
                }
            }
        }
        for &(a, b) in &self.fresh {
            insert_pair(&mut self.acquired, self.n, a, b);
            if !self.ok || certified_within(self.anchors.dist(a, b), self.skin, self.limit) {
                self.hot.unlink(a, b);
            }
        }
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

    /// Positions for the restore tests: robots 0–1 start far apart and
    /// robots 2–3 acquired (`0.5` apart), then robots 0 and 2 move far —
    /// to `0.53` from robot 1 and `0.98` from robot 3, whose anchors the
    /// constructor set and the restore keeps exactly.
    const BUILT: [Vec2; 4] = [
        Vec2::new(0.0, 0.0),
        Vec2::new(5.0, 0.0),
        Vec2::new(10.0, 0.0),
        Vec2::new(10.5, 0.0),
    ];
    const RESTORED: [Vec2; 4] = [
        Vec2::new(4.47, 0.0),
        Vec2::new(5.0, 0.0),
        Vec2::new(9.52, 0.0),
        Vec2::new(10.5, 0.0),
    ];

    /// One step from `positions`: robot `r` moves by `dx` along x, less
    /// than the displacement budget `V/32` — a robot that does not
    /// re-anchor.
    fn nudge(positions: &mut [Vec2], r: usize, dx: f64) -> [bool; 4] {
        positions[r].x += dx;
        let mut mask = [false; 4];
        mask[r] = true;
        mask
    }

    #[test]
    fn strong_visibility_restore_reanchors_at_the_restored_positions() {
        let mut m = StrongVisibilityMonitor::new(1.0, 1e-9, &BUILT);
        // The first event anchors every robot at the built positions.
        m.on_event(&ctx(0.5, 1, &BUILT, &[], &[false; 4], NO_HULL));
        let acquired = m.acquired_bits();
        assert_ne!(acquired, vec![0], "robots 2 and 3 start acquired");
        m.restore(acquired, true, &RESTORED).expect("same size");
        let mut pos = RESTORED;
        // Robot 1 steps to 0.50 from robot 0: an acquisition that anchors
        // left at the built positions (5 apart) would certify away.
        let mask = nudge(&mut pos, 1, -0.03);
        m.on_event(&ctx(1.0, 2, &pos, &[1], &mask, NO_HULL));
        assert_eq!(m.acquired_bits()[0] & 0b10, 0b10, "pair (0, 1) acquired");
        assert!(m.ok());
        // Robot 3 steps to 1.01 from robot 2: a violation that anchors
        // left at the built positions (0.5 apart) would certify away.
        let mask = nudge(&mut pos, 3, 0.03);
        m.on_event(&ctx(2.0, 3, &pos, &[3], &mask, NO_HULL));
        assert!(!m.ok(), "acquired pair (2, 3) is beyond V");
    }

    #[test]
    fn cohesion_restore_reanchors_at_the_restored_positions() {
        let mut m = CohesionMonitor::new(4, &[(2, 3)], |_, _| 1.0, 1e-9);
        // The first event anchors every robot at the built positions.
        m.on_event(&ctx(0.5, 1, &BUILT, &[], &[false; 4], NO_HULL));
        m.restore(Vec::new());
        let mut pos = RESTORED;
        let mask = nudge(&mut pos, 3, 0.03);
        m.on_event(&ctx(1.0, 2, &pos, &[3], &mask, NO_HULL));
        let violations = m.violations();
        assert_eq!(violations.len(), 1, "edge (2, 3) is beyond V");
        assert_eq!(
            (violations[0].time, violations[0].distance),
            (1.0, pos[3].x - pos[2].x)
        );
    }

    #[test]
    #[should_panic(expected = "finite V/2 + tol, got V = inf")]
    fn strong_visibility_rejects_infinite_v() {
        let _ = StrongVisibilityMonitor::new(f64::INFINITY, 1e-9, &[Vec2::ZERO]);
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
