//! Frozen checkpoint bytes of every scheduler class.
//!
//! Each document below is the `SchedulerState` one generator class saved
//! after a few pulls from a fixed seed. Checkpoints persisted by earlier
//! builds must keep decoding, re-encode to the same bytes, and resume the
//! interval stream exactly where the uninterrupted generator continues.

use cohesion_scheduler::{
    interleaved_engagement, AsyncScheduler, CentralizedScheduler, FSyncScheduler, KAsyncScheduler,
    NestAScheduler, SSyncScheduler, ScheduleContext, Scheduler, SchedulerState, ScriptedScheduler,
};

/// One frozen class: how to build the saved generator, how to build a
/// same-spec instance to restore into (a different seed, or an empty
/// script, so nothing but the checkpoint can make it continue correctly),
/// the robot count, the pulls before the save, and the saved bytes.
struct Frozen {
    build: fn() -> Box<dyn Scheduler>,
    fresh: fn() -> Box<dyn Scheduler>,
    robots: usize,
    pulls: usize,
    json: &'static str,
}

const FROZEN: [Frozen; 7] = [
    Frozen {
        build: || Box::new(FSyncScheduler::new()),
        fresh: || Box::new(FSyncScheduler::new()),
        robots: 3,
        pulls: 4,
        json: r#"{"FSync":{"round":2,"queue":[{"robot":1,"look":1.0,"move_start":1.25,"end":1.75},{"robot":2,"look":1.0,"move_start":1.25,"end":1.75}]}}"#,
    },
    Frozen {
        build: || Box::new(SSyncScheduler::new(17)),
        fresh: || Box::new(SSyncScheduler::new(18)),
        robots: 4,
        pulls: 5,
        json: r#"{"SSync":{"rng":[17126955525617419156,1487328613191864606,12521167359962446662,2841541741333591236],"round":3,"skip_counts":[0,3,1,0],"queue":[{"robot":3,"look":2.0,"move_start":2.25,"end":2.75}],"inclusion_probability":0.5}}"#,
    },
    Frozen {
        build: || Box::new(KAsyncScheduler::new(2, 17)),
        fresh: || Box::new(KAsyncScheduler::new(2, 18)),
        robots: 3,
        pulls: 6,
        json: r#"{"KAsync":{"k":2,"rng":[12232760058599988413,14472161043229899687,6947180231725341887,1100829756292528406],"profile":[0.05,0.35,0.1,1.2,0.08],"clock":1.2066151828201392,"next_free":[1.8335115028916547,1.266686944000534,1.3705737592721885],"history":[{"robot":1,"look":0.11842264344170217,"move_start":0.30902968445873485,"end":1.2666869430005339},{"robot":2,"look":0.15309759879709153,"move_start":0.2597266231998748,"end":0.7862465092042479},{"robot":0,"look":0.5800822687672207,"move_start":0.7834868443688443,"end":1.1679132560194692},{"robot":2,"look":0.799189205431378,"move_start":1.0450382733478263,"end":1.3705737582721884},{"robot":0,"look":1.2066151828201392,"move_start":1.5395200946845808,"end":1.8335115018916546}]}}"#,
    },
    Frozen {
        build: || Box::new(NestAScheduler::new(2, 17)),
        fresh: || Box::new(NestAScheduler::new(2, 18)),
        robots: 3,
        pulls: 4,
        json: r#"{"NestA":{"k":2,"rng":[15997271603100946805,720388205722352515,15135974867671511715,15591668683130789213],"clock":2.1500000000000004,"next_outer":1,"queue":[{"robot":2,"look":1.4700000000000002,"move_start":1.5700000000000003,"end":1.83}]}}"#,
    },
    Frozen {
        build: || Box::new(AsyncScheduler::new(17)),
        fresh: || Box::new(AsyncScheduler::new(18)),
        robots: 3,
        pulls: 6,
        json: r#"{"Async":{"rng":[13625782452394052875,11590430145352392573,16568872357139126202,5130788375224559692],"profile":[0.05,0.35,0.1,1.2,0.08],"clock":1.1184738518113744,"next_free":[1.1008558828402157,1.5860657125915814,1.4841849408835301],"stretch_probability":0.1}}"#,
    },
    Frozen {
        build: || Box::new(CentralizedScheduler::new()),
        fresh: || Box::new(CentralizedScheduler::new()),
        robots: 3,
        pulls: 4,
        json: r#"{"Centralized":{"next":4,"clock":4.0}}"#,
    },
    Frozen {
        build: || {
            Box::new(ScriptedScheduler::new(
                "lemma5",
                interleaved_engagement(2, 17),
            ))
        },
        fresh: || Box::new(ScriptedScheduler::new("lemma5", vec![])),
        robots: 2,
        pulls: 14,
        json: r#"{"Scripted":{"name":"lemma5","queue":[{"robot":0,"look":5.248608289268916,"move_start":5.348608289268916,"end":6.248608289268916},{"robot":1,"look":5.398608289268917,"move_start":5.494742993708931,"end":5.638945050368953}]}}"#,
    },
];

/// The generator of `f` after its pre-save pulls.
fn live(f: &Frozen) -> Box<dyn Scheduler> {
    let ctx = ScheduleContext {
        robot_count: f.robots,
    };
    let mut s = (f.build)();
    for _ in 0..f.pulls {
        s.next_activation(&ctx).expect("the script is long enough");
    }
    s
}

#[test]
fn every_class_saves_its_frozen_bytes() {
    for f in &FROZEN {
        let state = live(f).save_state().expect("checkpointable");
        assert_eq!(
            serde_json::to_string(&state).expect("encode"),
            f.json,
            "{} encoding drifted",
            state.class()
        );
    }
}

#[test]
fn frozen_bytes_decode_and_re_encode_byte_for_byte() {
    for f in &FROZEN {
        let state: SchedulerState = serde_json::from_str(f.json).expect("frozen state decodes");
        assert_eq!(serde_json::to_string(&state).expect("encode"), f.json);
    }
}

#[test]
fn frozen_bytes_resume_the_uninterrupted_stream() {
    for f in &FROZEN {
        let ctx = ScheduleContext {
            robot_count: f.robots,
        };
        let state: SchedulerState = serde_json::from_str(f.json).expect("frozen state decodes");
        let mut resumed = (f.fresh)();
        resumed.load_state(&state).expect("same-spec restore");
        let mut uninterrupted = live(f);
        for pull in 0..60 {
            assert_eq!(
                resumed.next_activation(&ctx),
                uninterrupted.next_activation(&ctx),
                "{} diverges at pull {pull} after the restore",
                state.class()
            );
        }
    }
}
