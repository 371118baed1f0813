//! The diameter of a point set — its largest pairwise distance — computed
//! exactly, but without visiting every pair.
//!
//! The Point Convergence predicate (“∀ε ∃t ∀t′≥t: diameter ≤ ε”) samples
//! the diameter of the whole swarm, so it is evaluated over and over on
//! large configurations. A triangle-inequality prune keeps the result
//! bit-identical to the all-pairs maximum while discarding every point that
//! provably cannot be a diametral endpoint:
//!
//! * Let `c` be the centroid and `R = max |p − c|`, attained at some point
//!   `f`. Let `L` be the largest distance from `f` to any other point — a
//!   true pair distance, so `L ≤ D`, the diameter.
//! * For a diametral pair `(p, q)`: `D = |p − q| ≤ |p − c| + |q − c| ≤
//!   |p − c| + R`, so both endpoints satisfy `|p − c| ≥ D − R ≥ L − R`.
//! * Only points with `|p − c| ≥ L − R − slack` stay candidates, where the
//!   slack absorbs the rounding of the computed norms (relative to `R`, and
//!   a tiny absolute term for subnormal squares).
//!
//! The triangle inequality holds for *any* `c`, so the rounding of the
//! centroid itself is harmless. The result is the `f64` maximum of the same
//! `dist` values over the candidate pairs, a set that contains a pair
//! attaining the all-pairs maximum — hence the identical bits. On a lattice
//! only the corners survive; points on a circle are the worst case, where
//! everything does and the cost is the all-pairs one.

use crate::point::Point;

/// The largest pairwise distance of `points` (`0` for fewer than two).
///
/// ```
/// use cohesion_geometry::{diameter::diameter, Vec2};
/// let pts = [Vec2::ZERO, Vec2::new(3.0, 4.0), Vec2::new(1.0, 1.0)];
/// assert_eq!(diameter(&pts), 5.0);
/// assert_eq!(diameter::<Vec2>(&[]), 0.0);
/// ```
pub fn diameter<P: Point>(points: &[P]) -> f64 {
    diameter_counted(points).0
}

/// [`diameter`], plus the number of pair distances it evaluated — a
/// deterministic work count (`n − 1` for the prune's reference point, then
/// every pair of surviving candidates).
pub fn diameter_counted<P: Point>(points: &[P]) -> (f64, u64) {
    let n = points.len();
    if n < 2 {
        return (0.0, 0);
    }
    let mut sum = P::zero();
    for &p in points {
        sum = sum + p;
    }
    let c = sum * (1.0 / n as f64);
    let (mut radius, mut far) = (0.0_f64, 0);
    for (i, &p) in points.iter().enumerate() {
        let r = p.dist(c);
        if r > radius {
            (radius, far) = (r, i);
        }
    }
    let mut best = 0.0_f64;
    for (j, &p) in points.iter().enumerate() {
        if j != far {
            best = best.max(points[far].dist(p));
        }
    }
    let slack = 64.0 * f64::EPSILON * (radius + c.norm()) + f64::MIN_POSITIVE.sqrt();
    let cut = best - radius - slack;
    // A non-finite cut (non-finite input) keeps every point: the all-pairs
    // scan.
    let candidates: Vec<usize> = (0..n)
        .filter(|&i| !cut.is_finite() || points[i].dist(c) >= cut)
        .collect();
    for (a, &i) in candidates.iter().enumerate() {
        for &j in &candidates[a + 1..] {
            best = best.max(points[i].dist(points[j]));
        }
    }
    let k = candidates.len() as u64;
    (best, n as u64 - 1 + k * k.saturating_sub(1) / 2)
}
