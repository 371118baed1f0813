//! Orientation and incidence predicates.
//!
//! These are the standard determinant-based planar predicates with explicit
//! tolerances. At simulation scale (coordinates `O(n·V)` with `V ≈ 1`) plain
//! `f64` evaluation leaves at least eight orders of magnitude between the
//! constants the paper's constructions rely on and floating-point noise, so
//! exact arithmetic is unnecessary.

use crate::vec2::Vec2;

/// Orientation of the ordered triple `(a, b, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// `c` lies strictly to the left of the directed line `a → b`.
    CounterClockwise,
    /// `c` lies strictly to the right of the directed line `a → b`.
    Clockwise,
    /// `a`, `b`, `c` are collinear within tolerance.
    Collinear,
}

/// Twice the signed area of triangle `(a, b, c)`; positive when the triple is
/// counterclockwise.
///
/// ```
/// use cohesion_geometry::{Vec2, predicates::orient2d_value};
/// let v = orient2d_value(Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0));
/// assert_eq!(v, 1.0);
/// ```
#[inline]
pub fn orient2d_value(a: Vec2, b: Vec2, c: Vec2) -> f64 {
    (b - a).cross(c - a)
}

/// Classifies the orientation of `(a, b, c)` with tolerance `eps` on the
/// signed-area value.
pub fn orient2d(a: Vec2, b: Vec2, c: Vec2, eps: f64) -> Orientation {
    let v = orient2d_value(a, b, c);
    if v > eps {
        Orientation::CounterClockwise
    } else if v < -eps {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// Returns `true` when the three points are collinear within `eps`
/// (tolerance applies to twice the triangle area).
#[inline]
pub fn collinear(a: Vec2, b: Vec2, c: Vec2, eps: f64) -> bool {
    orient2d(a, b, c, eps) == Orientation::Collinear
}

/// The interior angle at vertex `q` of the polyline `p – q – r`, in `[0, π]`.
///
/// Degenerate inputs (a side of zero length) yield `0`.
///
/// This is the `∠(P, Q, R)` notation the paper uses throughout §7 (e.g. the
/// “essential co-linearity” condition `∠(R, Q, P) ∈ (π − ψ/2n, π]`).
pub fn angle_at(q: Vec2, p: Vec2, r: Vec2) -> f64 {
    let u = p - q;
    let v = r - q;
    let nu = u.norm();
    let nv = v.norm();
    if nu == 0.0 || nv == 0.0 {
        return 0.0;
    }
    let c = (u.dot(v) / (nu * nv)).clamp(-1.0, 1.0);
    c.acos()
}

/// Returns `true` when `p` lies within distance `eps` of the segment `ab`.
pub fn on_segment(p: Vec2, a: Vec2, b: Vec2, eps: f64) -> bool {
    crate::segment::Segment::new(a, b).dist_to_point(p) <= eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn orientation_cases() {
        let a = Vec2::ZERO;
        let b = Vec2::new(1.0, 0.0);
        assert_eq!(
            orient2d(a, b, Vec2::new(0.5, 1.0), 1e-12),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(a, b, Vec2::new(0.5, -1.0), 1e-12),
            Orientation::Clockwise
        );
        assert_eq!(
            orient2d(a, b, Vec2::new(2.0, 0.0), 1e-12),
            Orientation::Collinear
        );
    }

    #[test]
    fn collinear_with_tolerance() {
        let a = Vec2::ZERO;
        let b = Vec2::new(1.0, 0.0);
        assert!(collinear(a, b, Vec2::new(0.5, 1e-13), 1e-12));
        assert!(!collinear(a, b, Vec2::new(0.5, 1e-3), 1e-12));
    }

    #[test]
    fn angle_at_vertex() {
        let q = Vec2::ZERO;
        assert!((angle_at(q, Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0)) - FRAC_PI_2).abs() < 1e-12);
        assert!((angle_at(q, Vec2::new(1.0, 0.0), Vec2::new(-1.0, 0.0)) - PI).abs() < 1e-12);
        assert_eq!(angle_at(q, q, Vec2::new(1.0, 0.0)), 0.0);
    }

    #[test]
    fn on_segment_tolerance() {
        let a = Vec2::ZERO;
        let b = Vec2::new(2.0, 0.0);
        assert!(on_segment(Vec2::new(1.0, 0.0), a, b, 1e-9));
        assert!(on_segment(Vec2::new(1.0, 1e-10), a, b, 1e-9));
        assert!(!on_segment(Vec2::new(1.0, 0.1), a, b, 1e-9));
        assert!(!on_segment(Vec2::new(3.0, 0.0), a, b, 1e-9));
    }
}
