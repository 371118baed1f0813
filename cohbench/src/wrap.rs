//! Timing wrappers that delegate to the real `Algorithm` and `Scheduler`
//! implementations. They add spans and counters when the trace recorder is
//! on and change nothing else: the engine sees the inner implementation's
//! outputs, names and checkpoint state unchanged.

use crate::trace;
use cohesion_geometry::point::Point;
use cohesion_model::{Algorithm, Snapshot};
use cohesion_scheduler::{ActivationInterval, ScheduleContext, Scheduler, SchedulerState};

/// Wraps an algorithm; spans each `compute` as `core.compute`.
#[derive(Debug)]
pub struct TimedAlgorithm<A>(pub A);

impl<P: Point, A: Algorithm<P>> Algorithm<P> for TimedAlgorithm<A> {
    fn compute(&self, snapshot: &Snapshot<P>) -> P {
        if !trace::on() {
            return self.0.compute(snapshot);
        }
        trace::count("core.compute_calls", 1);
        trace::count("core.snapshot_len_sum", snapshot.len() as u64);
        trace::span("core.compute", || self.0.compute(snapshot))
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Wraps a scheduler; spans each `next_activation` as
/// `scheduler.next_activation`.
#[derive(Debug)]
pub struct TimedScheduler<S>(pub S);

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn next_activation(&mut self, ctx: &ScheduleContext) -> Option<ActivationInterval> {
        if !trace::on() {
            return self.0.next_activation(ctx);
        }
        trace::count("scheduler.calls", 1);
        let s = trace::open("scheduler.next_activation");
        let out = self.0.next_activation(ctx);
        s.close();
        out
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn save_state(&self) -> Option<SchedulerState> {
        self.0.save_state()
    }

    fn load_state(&mut self, state: &SchedulerState) -> Result<(), String> {
        self.0.load_state(state)
    }
}
