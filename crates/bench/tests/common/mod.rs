//! Fixtures shared by the lab's integration tests.

use cohesion_bench::lab::{
    Experiment, JsonRow, LabCell, Outcome, Profile, PROGRESS_HEARTBEAT_EVENTS,
};
use cohesion_bench::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};

/// A one-cell experiment whose 2D session cell runs 250k events, past two
/// heartbeats. Its `check` pins the lab-driven report to the plain
/// `ScenarioSpec::run`.
pub struct LongCell;

impl Experiment for LongCell {
    fn name(&self) -> &'static str {
        "long_cell"
    }

    fn id(&self) -> &'static str {
        "TEST"
    }

    fn title(&self) -> &'static str {
        "heartbeat fixture"
    }

    fn claim(&self) -> &'static str {
        "test fixture"
    }

    fn output_stem(&self) -> &'static str {
        "long_cell"
    }

    fn grid(&self, _profile: Profile) -> Vec<ScenarioSpec> {
        vec![ScenarioSpec {
            max_events: 2 * PROGRESS_HEARTBEAT_EVENTS + PROGRESS_HEARTBEAT_EVENTS / 2,
            ..ScenarioSpec::new(
                WorkloadSpec::Line { n: 3, spacing: 0.9 },
                AlgorithmSpec::Nil,
                SchedulerSpec::FSync,
            )
        }]
    }

    fn reduce(&self, _spec: &ScenarioSpec, _outcome: &Outcome) -> Vec<JsonRow> {
        Vec::new()
    }

    fn check(&self, cells: &[LabCell]) -> Result<(), String> {
        let cell = &cells[0];
        if cell.outcome.report() == &cell.spec.run() {
            Ok(())
        } else {
            Err("heartbeat-driven cell must reproduce the plain run".into())
        }
    }
}
