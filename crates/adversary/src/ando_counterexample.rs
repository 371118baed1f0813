//! The Figure 4 counterexamples: unmodified Ando et al. separates two robots
//! under 1-Async scheduling (a) and under 2-NestA scheduling (b).
//!
//! The paper gives the construction as a drawing; this module pins concrete
//! coordinates realizing it:
//!
//! * five robots — `X` and `Y` are scheduled, `A`, `B`, `C` stay inactive;
//! * `X` at the origin, `Y` at `(0.5, 0)`, visibility `V = 1`;
//! * `B = (−0.41, 0.91)` and `C = (−0.41, −0.91)` are visible only to `X` and
//!   pull the centre of `X`'s smallest enclosing circle to `(−0.41, 0)` — so
//!   `X` marches *left*, away from `Y`, as far as its per-neighbour movement
//!   limits allow;
//! * `A = (1.49, 0)` is visible only to `Y` and pulls `Y`'s SEC centre to
//!   `(0.745, 0)` — `Y` wants to move *right*.
//!
//! The 1-Async timeline: `Y` Looks first (sees `X` at the origin), then
//! spends a long time in Compute. Meanwhile `X` runs **two** full cycles,
//! both seeing `Y` still parked at `(0.5, 0)`, ending at `(−0.375, 0)`.
//! Finally `Y`'s Move executes — based on its *stale* view of `X` at the
//! origin, its movement limit allows the full step right to `(0.745, 0)`.
//! Final separation `1.12 > V`. Every interval of one robot contains at most
//! one Look of the other, so the schedule is 1-Async (asserted in tests via
//! the validator); nesting both `X` cycles inside `Y`'s interval instead
//! gives the 2-NestA variant.

use cohesion_engine::{SimulationBuilder, SimulationReport};
use cohesion_geometry::Vec2;
use cohesion_model::{Algorithm, Configuration, FrameMode};
use cohesion_scheduler::{ActivationInterval, ScheduleTrace, ScriptedScheduler};

/// Robot indices in the Figure 4 configuration.
pub mod robots {
    use cohesion_model::RobotId;
    /// The doubly-activated robot `X`.
    pub const X: RobotId = RobotId(0);
    /// The once-activated robot `Y`.
    pub const Y: RobotId = RobotId(1);
    /// `Y`'s right-hand anchor (stationary).
    pub const A: RobotId = RobotId(2);
    /// `X`'s upper-left anchor (stationary).
    pub const B: RobotId = RobotId(3);
    /// `X`'s lower-left anchor (stationary).
    pub const C: RobotId = RobotId(4);
}

/// The visibility radius of the construction.
pub const V: f64 = 1.0;

/// The five-robot initial configuration (order: `X, Y, A, B, C`).
pub fn figure4_configuration() -> Configuration {
    Configuration::new(vec![
        Vec2::new(0.0, 0.0),     // X
        Vec2::new(0.5, 0.0),     // Y
        Vec2::new(1.49, 0.0),    // A  (visible to Y only)
        Vec2::new(-0.41, 0.91),  // B  (visible to X only)
        Vec2::new(-0.41, -0.91), // C  (visible to X only)
    ])
}

/// The 1-Async timeline of Figure 4(a): `Y`'s Look lands inside `X`'s first
/// interval; `X`'s second Look lands inside `Y`'s interval; one each ⇒ 1-Async.
pub fn figure4a_schedule() -> Vec<ActivationInterval> {
    vec![
        // X cycle 1: Look at 1.0, Move during [1.5, 2.0].
        ActivationInterval::new(robots::X, 1.0, 1.5, 2.0),
        // Y's single long cycle: Look at 1.2 (X still at the origin — its
        // move starts at 1.5), Move during [5.0, 5.5].
        ActivationInterval::new(robots::Y, 1.2, 5.0, 5.5),
        // X cycle 2: Look at 3.0 (Y still parked), Move during [3.5, 4.0].
        ActivationInterval::new(robots::X, 3.0, 3.5, 4.0),
    ]
}

/// The 2-NestA timeline of Figure 4(b): both `X` cycles fully nested inside
/// `Y`'s interval (disjoint from each other) — two activations of `X` inside
/// one interval of `Y` ⇒ 2-NestA.
pub fn figure4b_schedule() -> Vec<ActivationInterval> {
    vec![
        // Y spans everything: Look at 0.0 (sees X at the origin), Move
        // during [5.5, 6.0].
        ActivationInterval::new(robots::Y, 0.0, 5.5, 6.0),
        ActivationInterval::new(robots::X, 1.0, 1.5, 2.0),
        ActivationInterval::new(robots::X, 3.0, 3.5, 4.0),
    ]
}

/// Runs a Figure 4 schedule against an algorithm and reports the outcome.
///
/// Frames are aligned for reproducibility of the exact figures; the scripted
/// construction itself is rotation-equivariant, so the choice does not affect
/// the verdict for equivariant algorithms (all algorithms in this workspace).
pub fn run_figure4(
    algorithm: impl Algorithm<Vec2> + 'static,
    schedule: Vec<ActivationInterval>,
) -> SimulationReport {
    SimulationBuilder::new(figure4_configuration(), algorithm)
        .visibility(V)
        .scheduler(ScriptedScheduler::new("figure4", schedule))
        .frame_mode(FrameMode::Aligned)
        .epsilon(1e-6)
        .run()
}

/// Convenience: the distance between `X` and `Y` in a final configuration.
pub fn xy_separation(report: &SimulationReport) -> f64 {
    report
        .final_configuration
        .position(robots::X)
        .dist(report.final_configuration.position(robots::Y))
}

/// Asserts the structural claims about a Figure 4 schedule (used by tests
/// and the experiment binary): returns `(minimal k, is nested)`.
pub fn schedule_properties(schedule: &[ActivationInterval]) -> (u32, bool) {
    let trace = ScheduleTrace::from_intervals(schedule.to_vec());
    let k = cohesion_scheduler::validate::minimal_async_k(&trace);
    let nested = cohesion_scheduler::validate::validate_nested(&trace).is_ok();
    (k, nested)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_algorithms::{AndoAlgorithm, KatreniakAlgorithm};
    use cohesion_core::KirkpatrickAlgorithm;
    use cohesion_model::VisibilityGraph;

    #[test]
    fn configuration_visibility_is_as_designed() {
        let g = VisibilityGraph::from_configuration(&figure4_configuration(), V);
        // X sees Y, B, C; Y sees X, A; no other edges.
        assert!(g.has_edge(robots::X, robots::Y));
        assert!(g.has_edge(robots::X, robots::B));
        assert!(g.has_edge(robots::X, robots::C));
        assert!(g.has_edge(robots::Y, robots::A));
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn schedule_4a_is_one_async_not_nested() {
        let (k, nested) = schedule_properties(&figure4a_schedule());
        assert_eq!(k, 1, "Figure 4(a) must be a 1-Async schedule");
        assert!(!nested, "Figure 4(a) interleaves without nesting");
    }

    #[test]
    fn schedule_4b_is_two_nesta() {
        let (k, nested) = schedule_properties(&figure4b_schedule());
        assert_eq!(k, 2, "Figure 4(b) nests two X-activations in Y's interval");
        assert!(nested, "Figure 4(b) must be a nested schedule");
    }

    #[test]
    fn ando_separates_in_one_async() {
        let report = run_figure4(AndoAlgorithm::new(V), figure4a_schedule());
        assert!(
            !report.cohesion_maintained,
            "Ando must lose the X–Y edge; separation = {}",
            xy_separation(&report)
        );
        assert!(xy_separation(&report) > V);
    }

    #[test]
    fn ando_separates_in_two_nesta() {
        let report = run_figure4(AndoAlgorithm::new(V), figure4b_schedule());
        assert!(!report.cohesion_maintained);
        assert!(xy_separation(&report) > V);
    }

    #[test]
    fn kirkpatrick_survives_both_schedules() {
        // Theorem 4: with k matching the schedule's asynchrony bound the
        // paper's algorithm preserves all initial edges.
        for (schedule, k) in [(figure4a_schedule(), 1), (figure4b_schedule(), 2)] {
            let report = run_figure4(KirkpatrickAlgorithm::new(k), schedule);
            assert!(report.cohesion_maintained, "k={k} must preserve visibility");
            assert!(xy_separation(&report) <= V + 1e-9);
        }
    }

    #[test]
    fn katreniak_survives_one_async() {
        // Katreniak's algorithm is correct in 1-Async — the counterexample
        // must not break it.
        let report = run_figure4(KatreniakAlgorithm::new(), figure4a_schedule());
        assert!(report.cohesion_maintained);
    }

    #[test]
    fn x_marches_left_and_y_right() {
        let report = run_figure4(AndoAlgorithm::new(V), figure4a_schedule());
        let x = report.final_configuration.position(robots::X);
        let y = report.final_configuration.position(robots::Y);
        assert!(x.x < -0.3, "X must have moved left twice, got {x}");
        assert!(y.x > 0.7, "Y must have moved right on stale data, got {y}");
    }
}
