//! Private local coordinate systems (paper §2.2) and their adversarial
//! distortions (§2.3.3, §6.1).
//!
//! Each Look phase delivers positions “expressed within a local (i.e.
//! private) coordinate system”, inconsistent between robots and between
//! activations of the same robot. We model a local frame as an orthogonal
//! linear map (rotation, possibly with reflection — robots have no agreed
//! chirality) applied to displacement vectors; the translation part is
//! implicit (the observing robot sits at its own origin).
//!
//! On top of the orthogonal frame the adversary may apply a *symmetric
//! distortion* `µ: [0,2π) → [0,2π)` with `µ(θ+π) = µ(θ)+π` and bounded skew
//! `λ`: `(1−λ)ξ ≤ µ(θ+ξ) − µ(θ) ≤ (1+λ)ξ`. We realize the family as
//! `µ(θ) = θ + a·sin(2θ + φ)` with `a ≤ λ/2`, which satisfies both conditions
//! exactly (the derivative is `1 + 2a·cos(2θ+φ)` and the `sin(2θ)` harmonic
//! is `π`-periodic).

use cohesion_geometry::point::Point;
use cohesion_geometry::{Vec2, Vec3};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;
use std::fmt::Debug;

/// An invertible map between global and local *displacement* coordinates.
pub trait Frame<P>: Debug {
    /// Global displacement → local coordinates.
    fn to_local(&self, v: P) -> P;
    /// Local displacement → global coordinates (exact inverse of
    /// [`Frame::to_local`]).
    fn to_global(&self, v: P) -> P;
}

/// How the simulator chooses local frames at each activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FrameMode {
    /// All robots share the global frame (axis agreement — required by the
    /// GCM baseline, and handy for debugging).
    Aligned,
    /// Fresh uniformly random rotation at every activation (disoriented
    /// robots with common chirality).
    #[default]
    RandomRotation,
    /// Fresh random rotation *and* a coin-flip reflection (no chirality —
    /// the paper's base assumption).
    RandomOrtho,
}

/// A planar orthogonal frame: rotation by `angle`, optionally composed with
/// a reflection across the local `x` axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Iso2 {
    /// Rotation angle from global to local axes.
    pub angle: f64,
    /// Whether the local frame is mirror-imaged.
    pub reflect: bool,
}

impl Iso2 {
    /// The identity frame.
    pub const IDENTITY: Iso2 = Iso2 {
        angle: 0.0,
        reflect: false,
    };

    /// Samples a frame according to `mode`.
    pub fn sample(mode: FrameMode, rng: &mut SmallRng) -> Iso2 {
        match mode {
            FrameMode::Aligned => Iso2::IDENTITY,
            FrameMode::RandomRotation => Iso2 {
                angle: rng.gen_range(0.0..TAU),
                reflect: false,
            },
            FrameMode::RandomOrtho => Iso2 {
                angle: rng.gen_range(0.0..TAU),
                reflect: rng.gen_bool(0.5),
            },
        }
    }
}

impl Frame<Vec2> for Iso2 {
    fn to_local(&self, v: Vec2) -> Vec2 {
        let r = v.rotate(-self.angle);
        if self.reflect {
            r.reflect_x()
        } else {
            r
        }
    }

    fn to_global(&self, v: Vec2) -> Vec2 {
        let r = if self.reflect { v.reflect_x() } else { v };
        r.rotate(self.angle)
    }
}

/// A spatial orthogonal frame given by an orthonormal basis (rows of the
/// global→local matrix). A negative-determinant basis is a reflected frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Iso3 {
    /// The three orthonormal basis vectors of the local frame, expressed in
    /// global coordinates.
    pub basis: [Vec3; 3],
}

impl Iso3 {
    /// The identity frame.
    pub const IDENTITY: Iso3 = Iso3 {
        basis: [
            Vec3 {
                x: 1.0,
                y: 0.0,
                z: 0.0,
            },
            Vec3 {
                x: 0.0,
                y: 1.0,
                z: 0.0,
            },
            Vec3 {
                x: 0.0,
                y: 0.0,
                z: 1.0,
            },
        ],
    };

    /// Samples a frame according to `mode` (uniform random orthonormal basis
    /// via Gram–Schmidt on Gaussian-ish vectors).
    pub fn sample(mode: FrameMode, rng: &mut SmallRng) -> Iso3 {
        match mode {
            FrameMode::Aligned => Iso3::IDENTITY,
            FrameMode::RandomRotation | FrameMode::RandomOrtho => {
                let rand_unit = |rng: &mut SmallRng| loop {
                    let v = Vec3::new(
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    );
                    let n = v.norm();
                    if n > 1e-3 && n <= 1.0 {
                        return v * (1.0 / n);
                    }
                };
                let e0 = rand_unit(rng);
                let mut e1 = rand_unit(rng);
                e1 = e1 - e0 * e0.dot(e1);
                let e1 = match e1.normalized(1e-9) {
                    Some(u) => u,
                    None => {
                        // Rare near-parallel draw: pick any perpendicular.
                        let alt = if e0.x.abs() < 0.9 {
                            Vec3::new(1.0, 0.0, 0.0)
                        } else {
                            Vec3::new(0.0, 1.0, 0.0)
                        };
                        (alt - e0 * e0.dot(alt))
                            .normalized(1e-12)
                            .expect("perpendicular exists")
                    }
                };
                let mut e2 = e0.cross(e1);
                if mode == FrameMode::RandomOrtho && rng.gen_bool(0.5) {
                    e2 = -e2; // reflected frame
                }
                Iso3 {
                    basis: [e0, e1, e2],
                }
            }
        }
    }
}

impl Frame<Vec3> for Iso3 {
    fn to_local(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.basis[0].dot(v),
            self.basis[1].dot(v),
            self.basis[2].dot(v),
        )
    }

    fn to_global(&self, v: Vec3) -> Vec3 {
        self.basis[0] * v.x + self.basis[1] * v.y + self.basis[2] * v.z
    }
}

/// A symmetric angular distortion `µ(θ) = θ + a·sin(2θ + φ)` with skew
/// `λ = 2a < 1` (paper §6.1). The identity is `a = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Distortion {
    /// Amplitude `a` of the harmonic (skew is `2a`).
    pub amplitude: f64,
    /// Phase `φ` of the harmonic.
    pub phase: f64,
}

impl Distortion {
    /// The identity distortion.
    pub const IDENTITY: Distortion = Distortion {
        amplitude: 0.0,
        phase: 0.0,
    };

    /// Creates a distortion with the given skew bound `λ` and phase; the
    /// realized skew is exactly `λ`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ λ < 1`.
    pub fn with_skew(lambda: f64, phase: f64) -> Distortion {
        assert!((0.0..1.0).contains(&lambda), "skew must be in [0, 1)");
        Distortion {
            amplitude: lambda / 2.0,
            phase,
        }
    }

    /// Samples a distortion with skew at most `lambda`.
    pub fn sample(lambda: f64, rng: &mut SmallRng) -> Distortion {
        assert!((0.0..1.0).contains(&lambda), "skew must be in [0, 1)");
        Distortion {
            amplitude: rng.gen_range(0.0..=(lambda / 2.0)),
            phase: rng.gen_range(0.0..TAU),
        }
    }

    /// The skew bound `λ = 2a` realized by this distortion.
    pub fn skew(&self) -> f64 {
        2.0 * self.amplitude
    }

    /// Applies `µ` to an angle.
    pub fn apply_angle(&self, theta: f64) -> f64 {
        theta + self.amplitude * (2.0 * theta + self.phase).sin()
    }

    /// Inverts `µ` numerically (Newton with bisection fallback; `µ` is
    /// strictly increasing because the skew is below 1).
    pub fn invert_angle(&self, target: f64) -> f64 {
        if self.amplitude == 0.0 {
            return target;
        }
        // µ(θ) − θ is bounded by a, so bracket around the target.
        let mut lo = target - self.amplitude - 1e-12;
        let mut hi = target + self.amplitude + 1e-12;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.apply_angle(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-14 {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    /// Applies the distortion to a planar displacement (norm preserved,
    /// angle distorted).
    pub fn apply(&self, v: Vec2) -> Vec2 {
        if self.amplitude == 0.0 {
            return v;
        }
        let n = v.norm();
        if n == 0.0 {
            return v;
        }
        Vec2::from_angle(self.apply_angle(v.angle())) * n
    }

    /// Applies the inverse distortion to a planar displacement.
    pub fn unapply(&self, v: Vec2) -> Vec2 {
        if self.amplitude == 0.0 {
            return v;
        }
        let n = v.norm();
        if n == 0.0 {
            return v;
        }
        Vec2::from_angle(self.invert_angle(v.angle())) * n
    }
}

/// A [`Point`] type that knows its frame machinery; implemented for [`Vec2`]
/// and [`Vec3`] so the engine can stay dimension-generic.
pub trait Ambient: Point {
    /// The orthogonal frame type of this space.
    type AmbientFrame: Frame<Self> + Debug + Clone + Copy + Send + Sync + 'static;

    /// The identity frame.
    fn identity_frame() -> Self::AmbientFrame;

    /// Samples a frame per [`FrameMode`].
    fn sample_frame(mode: FrameMode, rng: &mut SmallRng) -> Self::AmbientFrame;

    /// Applies an angular distortion to a local displacement. The paper's
    /// distortion model is planar; in 3D this is the identity (a deliberate
    /// substitution).
    fn distort(v: Self, d: &Distortion) -> Self;

    /// Inverse of [`Ambient::distort`].
    fn undistort(v: Self, d: &Distortion) -> Self;
}

impl Ambient for Vec2 {
    type AmbientFrame = Iso2;

    fn identity_frame() -> Iso2 {
        Iso2::IDENTITY
    }

    fn sample_frame(mode: FrameMode, rng: &mut SmallRng) -> Iso2 {
        Iso2::sample(mode, rng)
    }

    fn distort(v: Vec2, d: &Distortion) -> Vec2 {
        d.apply(v)
    }

    fn undistort(v: Vec2, d: &Distortion) -> Vec2 {
        d.unapply(v)
    }
}

impl Ambient for Vec3 {
    type AmbientFrame = Iso3;

    fn identity_frame() -> Iso3 {
        Iso3::IDENTITY
    }

    fn sample_frame(mode: FrameMode, rng: &mut SmallRng) -> Iso3 {
        Iso3::sample(mode, rng)
    }

    fn distort(v: Vec3, _d: &Distortion) -> Vec3 {
        v
    }

    fn undistort(v: Vec3, _d: &Distortion) -> Vec3 {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn iso2_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let f = Iso2::sample(FrameMode::RandomOrtho, &mut rng);
            let v = Vec2::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0));
            let back = f.to_global(f.to_local(v));
            assert!((back - v).norm() < 1e-12);
            // Orthogonal maps preserve norms.
            assert!((f.to_local(v).norm() - v.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn iso2_reflection_flips_orientation() {
        let f = Iso2 {
            angle: 0.3,
            reflect: true,
        };
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        let cross_global = a.cross(b);
        let cross_local = f.to_local(a).cross(f.to_local(b));
        assert!(cross_global * cross_local < 0.0);
    }

    #[test]
    fn iso3_roundtrip_and_orthonormal() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..30 {
            let f = Iso3::sample(FrameMode::RandomOrtho, &mut rng);
            for i in 0..3 {
                assert!((f.basis[i].norm() - 1.0).abs() < 1e-9);
                for j in (i + 1)..3 {
                    assert!(f.basis[i].dot(f.basis[j]).abs() < 1e-9);
                }
            }
            let v = Vec3::new(0.5, -1.5, 2.0);
            assert!((f.to_global(f.to_local(v)) - v).norm() < 1e-9);
            assert!((f.to_local(v).norm() - v.norm()).abs() < 1e-9);
        }
    }

    #[test]
    fn distortion_is_symmetric() {
        let d = Distortion::with_skew(0.2, 1.1);
        for k in 0..10 {
            let theta = k as f64 * 0.37;
            let a = d.apply_angle(theta + std::f64::consts::PI);
            let b = d.apply_angle(theta) + std::f64::consts::PI;
            assert!((a - b).abs() < 1e-12, "µ(θ+π) = µ(θ)+π");
        }
    }

    #[test]
    fn distortion_respects_skew_bound() {
        let lambda = 0.3;
        let d = Distortion::with_skew(lambda, 0.7);
        for i in 0..50 {
            let theta = i as f64 * 0.13;
            for j in 1..50 {
                let xi = j as f64 * 0.06;
                if xi >= std::f64::consts::PI {
                    break;
                }
                let delta = d.apply_angle(theta + xi) - d.apply_angle(theta);
                assert!(delta >= (1.0 - lambda) * xi - 1e-9);
                assert!(delta <= (1.0 + lambda) * xi + 1e-9);
            }
        }
    }

    #[test]
    fn distortion_invert_roundtrip() {
        let d = Distortion::with_skew(0.4, 2.3);
        for k in -10..10 {
            let theta = k as f64 * 0.61;
            let inv = d.invert_angle(d.apply_angle(theta));
            assert!((inv - theta).abs() < 1e-9, "{inv} vs {theta}");
        }
        let v = Vec2::new(1.2, -0.7);
        assert!((d.unapply(d.apply(v)) - v).norm() < 1e-9);
    }

    #[test]
    fn identity_distortion_is_noop() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(Distortion::IDENTITY.apply(v), v);
        assert_eq!(Distortion::IDENTITY.unapply(v), v);
    }
}
