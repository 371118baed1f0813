//! Katreniak's 1-Async convergence algorithm (§3.1 of the paper; original:
//! SIROCCO 2011).
//!
//! Unlike Ando's algorithm, `V` is unknown: each activation works with
//! `V_Z`, the distance to the furthest visible neighbour. The safe region
//! with respect to a neighbour `X` at displacement `p` is the **union of two
//! disks** (Figure 3, blue):
//!
//! * a disk of radius `|p|/4` centred at `(3/4)·p`-away point `(X0+3Y0)/4`
//!   relative to the observer (i.e. at `p/4` from the observer toward `X`);
//! * a disk of radius `(V_Z − |p|)/4` centred at the observer.
//!
//! The robot moves as far as possible toward the centre of the smallest
//! enclosing circle of its neighbourhood while staying inside *every*
//! neighbour's safe region. Since the paper reviews Katreniak's destination
//! choice only as “moves as far as possible while remaining inside a
//! composite safe region”, we pin the goal direction to the SEC centre (the
//! same goal Ando uses); this goal direction is our reconstruction.

use cohesion_geometry::ball::smallest_enclosing_ball;
use cohesion_geometry::{Circle, Vec2};
use cohesion_model::{Algorithm, Snapshot};
use serde::{Deserialize, Serialize};

/// Katreniak's baseline: correct under 1-Async; the paper notes it fails
/// under `k`-Async for large `k`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct KatreniakAlgorithm;

impl KatreniakAlgorithm {
    /// Creates the algorithm (stateless; `V` is not a parameter).
    pub fn new() -> Self {
        KatreniakAlgorithm
    }

    /// The two disks forming the safe region with respect to a neighbour at
    /// displacement `p`, given the tentative bound `v_z`.
    pub fn safe_disks(&self, p: Vec2, v_z: f64) -> (Circle, Circle) {
        let near = Circle::new(p * 0.25, p.norm() / 4.0);
        let own = Circle::new(Vec2::ZERO, ((v_z - p.norm()) / 4.0).max(0.0));
        (near, own)
    }

    /// How far the robot can move along unit direction `u` while staying in
    /// the safe region (union of the two disks) for a neighbour at `p`.
    ///
    /// Both disks contain the origin (the near disk touches it), so the
    /// admissible prefix of the ray is `[0, max(exit₁, exit₂)]`.
    pub fn limit_toward(&self, u: Vec2, p: Vec2, v_z: f64) -> f64 {
        let (near, own) = self.safe_disks(p, v_z);
        let e1 = near.ray_exit(Vec2::ZERO, u).unwrap_or(0.0);
        let e2 = own.ray_exit(Vec2::ZERO, u).unwrap_or(0.0);
        e1.max(e2).max(0.0)
    }
}

impl Algorithm<Vec2> for KatreniakAlgorithm {
    fn compute(&self, snapshot: &Snapshot<Vec2>) -> Vec2 {
        if snapshot.is_empty() {
            return Vec2::ZERO;
        }
        let v_z = snapshot.furthest_distance();
        if v_z <= 0.0 {
            return Vec2::ZERO;
        }
        let mut pts: Vec<Vec2> = snapshot.positions().collect();
        pts.push(Vec2::ZERO);
        let goal = smallest_enclosing_ball(&pts).center;
        let Some(u) = goal.normalized(1e-12) else {
            return Vec2::ZERO;
        };
        let mut step = goal.norm();
        for p in snapshot.positions() {
            step = step.min(self.limit_toward(u, p, v_z));
        }
        if step <= 0.0 {
            return Vec2::ZERO;
        }
        u * step
    }

    fn name(&self) -> &str {
        "katreniak"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pts: &[Vec2]) -> Snapshot<Vec2> {
        Snapshot::from_positions(pts.to_vec())
    }

    #[test]
    fn safe_region_shape_matches_figure3() {
        let alg = KatreniakAlgorithm::new();
        let p = Vec2::new(0.8, 0.0);
        let (near, own) = alg.safe_disks(p, 1.0);
        assert!((near.center - Vec2::new(0.2, 0.0)).norm() < 1e-12);
        assert!((near.radius - 0.2).abs() < 1e-12);
        assert_eq!(own.center, Vec2::ZERO);
        assert!((own.radius - 0.05).abs() < 1e-12);
    }

    #[test]
    fn moves_halfway_to_single_neighbor() {
        // Single neighbour at distance d = V_Z: near-disk exit along p is
        // d/2; the own disk has radius 0.
        let alg = KatreniakAlgorithm::new();
        let t = alg.compute(&snap(&[Vec2::new(0.8, 0.0)]));
        assert!((t - Vec2::new(0.4, 0.0)).norm() < 1e-9);
    }

    #[test]
    fn respects_far_neighbor_constraint() {
        let alg = KatreniakAlgorithm::new();
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(-0.2, 0.0);
        let t = alg.compute(&snap(&[a, b]));
        // Must stay within b's safe region: union of disk(center b/4, |b|/4)
        // and disk(origin, (1 − 0.2)/4 = 0.2).
        let (near, own) = alg.safe_disks(b, 1.0);
        assert!(near.contains(t, 1e-9) || own.contains(t, 1e-9));
        assert!(t.x > 0.0, "still makes progress toward the SEC centre");
    }

    #[test]
    fn empty_snapshot_stays() {
        assert_eq!(KatreniakAlgorithm::new().compute(&snap(&[])), Vec2::ZERO);
    }

    #[test]
    fn target_always_inside_union_region() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let alg = KatreniakAlgorithm::new();
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..200 {
            let n = rng.gen_range(1..6);
            let pts: Vec<Vec2> = (0..n)
                .map(|_| {
                    Vec2::from_angle(rng.gen_range(0.0..std::f64::consts::TAU))
                        * rng.gen_range(0.05..1.0)
                })
                .collect();
            let v_z = pts.iter().map(|p| p.norm()).fold(0.0, f64::max);
            let t = alg.compute(&snap(&pts));
            for p in &pts {
                let (near, own) = alg.safe_disks(*p, v_z);
                assert!(
                    near.contains(t, 1e-7) || own.contains(t, 1e-7),
                    "target {t} outside safe region of {p}"
                );
            }
        }
    }
}
