//! The benchmark's own tests, at sizes small enough for a debug build:
//! work counts repeat exactly, the timing wrappers and the replica change
//! no output, and the checkpoint round trip resumes exactly.

use crate::replica::Outcome;
use crate::trace;
use crate::workloads::{
    dense_replay, dense_spec, lattice, lattice_replay, lattice_resumed, lattice_session,
    lattice_session_spec,
};
use crate::wrap::{TimedAlgorithm, TimedScheduler};
use cohesion_core::KirkpatrickAlgorithm;
use cohesion_scheduler::AsyncScheduler;
use std::collections::BTreeMap;

const SIDE: usize = 8;
const BUDGET: usize = 1_500;
const SEED: u64 = 3;

fn calls_per_span(spans: &[trace::Span]) -> BTreeMap<&'static str, usize> {
    let mut calls = BTreeMap::new();
    for s in spans {
        *calls.entry(s.name).or_default() += 1;
    }
    calls
}

#[test]
fn work_counts_repeat_exactly() {
    let spec = dense_spec(32, 7);
    let (a, b) = (dense_replay(&spec), dense_replay(&spec));
    assert!(a.counters["monitors.cohesion_pair_checks"] > 0);
    assert_eq!(a.counters, b.counters);
    assert_eq!(calls_per_span(&a.spans), calls_per_span(&b.spans));

    let (a, b) = (
        lattice_replay(SIDE, BUDGET, SEED),
        lattice_replay(SIDE, BUDGET, SEED),
    );
    assert!(a.counters["monitors.strong_pair_checks"] > 0);
    assert_eq!(a.counters, b.counters);
    assert_eq!(calls_per_span(&a.spans), calls_per_span(&b.spans));
    assert_eq!(calls_per_span(&a.spans)["monitors.cohesion"], BUDGET);
}

#[test]
fn wrappers_do_not_perturb_outputs() {
    let spec = lattice_session_spec(BUDGET);
    let plain = spec
        .builder(
            lattice(SIDE),
            KirkpatrickAlgorithm::new(4),
            AsyncScheduler::new(SEED),
        )
        .run();
    for tracing in [false, true] {
        if tracing {
            trace::start();
        }
        let wrapped = spec
            .builder(
                lattice(SIDE),
                TimedAlgorithm(KirkpatrickAlgorithm::new(4)),
                TimedScheduler(AsyncScheduler::new(SEED)),
            )
            .run();
        if tracing {
            let (spans, counters) = trace::finish();
            assert!(!spans.is_empty());
            assert_eq!(
                counters["scheduler.calls"] as usize,
                spans
                    .iter()
                    .filter(|s| s.name == "scheduler.next_activation")
                    .count()
            );
        }
        assert_eq!(plain, wrapped, "tracing {tracing}");
    }
}

#[test]
fn replica_reproduces_the_session() {
    let spec = dense_spec(32, 7);
    let session = Outcome::of_report(&spec.run());
    assert!(session.converged);
    assert_eq!(dense_replay(&spec).replica.outcome(), session);

    let session = Outcome::of_report(&lattice_session(SIDE, BUDGET, SEED).run_to_completion());
    assert_eq!(session.events, BUDGET);
    assert_eq!(
        lattice_replay(SIDE, BUDGET, SEED).replica.outcome(),
        session
    );
}

#[test]
fn checkpoint_round_trip_resumes_exactly() {
    let (resumed, bytes) = lattice_resumed(
        lattice_session(SIDE, BUDGET, SEED),
        SIDE,
        BUDGET,
        SEED,
        &mut || {},
    )
    .unwrap();
    assert!(bytes > 0);
    assert_eq!(
        Outcome::of_report(&resumed.into_report()),
        Outcome::of_report(&lattice_session(SIDE, BUDGET, SEED).run_to_completion())
    );
}

#[test]
fn self_time_excludes_children() {
    trace::start();
    let outer = trace::open("outer");
    trace::span("inner", || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    outer.close();
    let (spans, _) = trace::finish();
    let summary = trace::summarize(&spans);
    let (outer, inner) = (summary.inclusive["outer"][0], summary.inclusive["inner"][0]);
    assert_eq!(spans[1].parent, 0);
    assert_eq!(summary.self_ns["outer"][0], outer - inner);
    assert_eq!(summary.top_level_ns, outer);
}
