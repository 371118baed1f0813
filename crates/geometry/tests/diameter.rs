//! The pruned diameter kernel against the all-pairs oracle, bit for bit.
//!
//! `diameter` returns the `f64` maximum of the very `dist` values an
//! all-pairs double loop takes its maximum over, restricted to a candidate
//! set that provably holds a diametral pair — so the two must agree in every
//! bit, including on the degenerate inputs (duplicates, collinear sets,
//! points on a circle where the prune keeps everything) and on swarms far
//! from the origin, where coordinates carry few fractional bits.

use cohesion_geometry::diameter::{diameter, diameter_counted};
use cohesion_geometry::point::Point;
use cohesion_geometry::{Vec2, Vec3};
use proptest::prelude::*;

/// The historical all-pairs loop.
fn all_pairs<P: Point>(points: &[P]) -> f64 {
    let mut best = 0.0_f64;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            best = best.max(points[i].dist(points[j]));
        }
    }
    best
}

fn same_bits<P: Point>(points: &[P]) -> Result<(), TestCaseError> {
    let (got, want) = (diameter(points), all_pairs(points));
    prop_assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "pruned {} vs all-pairs {}",
        got,
        want
    );
    Ok(())
}

fn vec2(range: f64) -> impl Strategy<Value = Vec2> {
    (-range..range, -range..range).prop_map(|(x, y)| Vec2::new(x, y))
}

fn vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn lattice(rows: usize, cols: usize, spacing: f64, origin: Vec2) -> Vec<Vec2> {
    (0..rows * cols)
        .map(|k| origin + Vec2::new((k % cols) as f64, (k / cols) as f64) * spacing)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_clouds(pts in proptest::collection::vec(vec2(10.0), 0..80)) {
        same_bits(&pts)?;
    }

    #[test]
    fn duplicate_points(
        pts in proptest::collection::vec(vec2(3.0), 1..12),
        copies in 1usize..5,
    ) {
        let dup: Vec<Vec2> = (0..copies).flat_map(|_| pts.iter().copied()).collect();
        same_bits(&dup)?;
    }

    #[test]
    fn collinear_sets(
        origin in vec2(50.0),
        angle in 0.0..std::f64::consts::TAU,
        ts in proptest::collection::vec(-20.0..20.0f64, 2..40),
    ) {
        let dir = Vec2::new(angle.cos(), angle.sin());
        let pts: Vec<Vec2> = ts.iter().map(|&t| origin + dir * t).collect();
        same_bits(&pts)?;
    }

    #[test]
    fn lattices(
        rows in 1usize..14,
        cols in 1usize..14,
        spacing in 0.05..2.0f64,
        origin in vec2(100.0),
    ) {
        same_bits(&lattice(rows, cols, spacing, origin))?;
    }

    #[test]
    fn points_on_a_circle(
        n in 2usize..64,
        radius in 0.01..50.0f64,
        phase in 0.0..std::f64::consts::TAU,
        center in vec2(10.0),
    ) {
        let pts: Vec<Vec2> = (0..n)
            .map(|k| {
                let t = phase + std::f64::consts::TAU * k as f64 / n as f64;
                center + Vec2::new(t.cos(), t.sin()) * radius
            })
            .collect();
        same_bits(&pts)?;
    }

    #[test]
    fn swarms_far_from_the_origin(
        pts in proptest::collection::vec(vec2(5.0), 2..60),
        exponent in 20i32..=40,
        sx in -1.0..1.0f64,
        sy in -1.0..1.0f64,
    ) {
        let offset = Vec2::new(sx.signum(), sy.signum()) * 2f64.powi(exponent);
        let far: Vec<Vec2> = pts.iter().map(|&p| p + offset).collect();
        same_bits(&far)?;
        same_bits(&lattice(9, 7, 0.45, offset))?;
    }

    #[test]
    fn clouds_in_3d(pts in proptest::collection::vec(vec3(10.0), 0..60)) {
        same_bits(&pts)?;
    }
}

#[test]
fn tiny_inputs() {
    assert_eq!(diameter_counted::<Vec2>(&[]), (0.0, 0));
    assert_eq!(diameter_counted(&[Vec2::new(3.0, -1.0)]), (0.0, 0));
    let pair = [Vec2::new(0.0, 0.0), Vec2::new(3.0, 4.0)];
    assert_eq!(diameter(&pair).to_bits(), all_pairs(&pair).to_bits());
    assert_eq!(diameter(&[Vec3::ZERO, Vec3::new(1.0, 2.0, 2.0)]), 3.0);
}

#[test]
fn a_lattice_keeps_only_its_corners() {
    let pts = lattice(32, 32, 0.9, Vec2::ZERO);
    let (d, pairs) = diameter_counted(&pts);
    assert_eq!(d.to_bits(), all_pairs(&pts).to_bits());
    // n − 1 distances from the reference corner, then the 4 corners' 6 pairs.
    assert_eq!(pairs, 1023 + 6);
}

#[test]
fn a_circle_keeps_everything() {
    let n = 48;
    let pts: Vec<Vec2> = (0..n)
        .map(|k| {
            let t = std::f64::consts::TAU * k as f64 / n as f64;
            Vec2::new(t.cos(), t.sin())
        })
        .collect();
    let (d, pairs) = diameter_counted(&pts);
    assert_eq!(d.to_bits(), all_pairs(&pts).to_bits());
    assert_eq!(pairs, (n - 1 + n * (n - 1) / 2) as u64);
}
