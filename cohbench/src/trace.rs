//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! product crates (and, through the wrappers of [`crate::wrap`], around
//! `Algorithm::compute` and `Scheduler::next_activation`). Each span keeps
//! its name, start, end and parent; nothing is written until the run ends.
//! Recording is thread-local and off unless [`start`] was called, so the
//! untraced runs pay one thread-local flag read per wrapped call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// No parent: a top-level span.
pub const ROOT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since [`start`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    /// Indices into `spans` of the open spans, innermost last. An open
    /// span's slot is reserved when it opens so children can name it.
    open: Vec<u32>,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static EPOCH: Cell<Option<Instant>> = const { Cell::new(None) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Clears the recorder and turns recording on.
pub fn start() {
    REC.with(|r| *r.borrow_mut() = Recorder::default());
    EPOCH.with(|e| e.set(Some(Instant::now())));
    ON.with(|on| on.set(true));
}

/// Turns recording off and hands back the spans and counters.
pub fn finish() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    ON.with(|on| on.set(false));
    REC.with(|r| {
        let rec = std::mem::take(&mut *r.borrow_mut());
        assert!(rec.open.is_empty(), "span left open at finish");
        (rec.spans, rec.counters)
    })
}

/// `true` while recording.
pub fn on() -> bool {
    ON.with(Cell::get)
}

fn now() -> u64 {
    EPOCH.with(|e| e.get().map_or(0, |t| t.elapsed().as_nanos() as u64))
}

/// An open span; close it with [`Open::close`] (or [`Open::close_as`] when
/// the name is only known afterwards). A no-op when recording is off.
#[must_use]
pub struct Open(Option<u32>);

/// Opens a span named `name` under the innermost open span.
pub fn open(name: &'static str) -> Open {
    if !on() {
        return Open(None);
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().copied().unwrap_or(ROOT);
        let idx = r.spans.len() as u32;
        r.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
        });
        r.open.push(idx);
        // Read the clock last so the bookkeeping above is not inside.
        let t = now();
        r.spans[idx as usize].start = t;
        Open(Some(idx))
    })
}

impl Open {
    /// Closes the span.
    pub fn close(self) {
        self.close_inner(None);
    }

    /// Closes the span under a name chosen after the call returned (e.g.
    /// the kind of event an `Engine::step` turned out to process).
    pub fn close_as(self, name: &'static str) {
        self.close_inner(Some(name));
    }

    fn close_inner(self, name: Option<&'static str>) {
        let Some(idx) = self.0 else { return };
        let t = now();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let top = r.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
            let span = &mut r.spans[idx as usize];
            span.end = t;
            if let Some(name) = name {
                span.name = name;
            }
        });
    }
}

/// Times `f` as a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let s = open(name);
    let out = f();
    s.close();
    out
}

/// Adds `n` to the deterministic work counter `name` (no-op when off).
pub fn count(name: &'static str, n: u64) {
    if on() {
        REC.with(|r| *r.borrow_mut().counters.entry(name).or_insert(0) += n);
    }
}

/// Per-name aggregates over a span list: inclusive and self (inclusive
/// minus direct children) nanoseconds per call, in span order.
pub struct Summary {
    pub inclusive: BTreeMap<&'static str, Vec<u64>>,
    pub self_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Sum of top-level span durations.
    pub top_level_ns: u64,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_ns = vec![0u64; spans.len()];
    let mut top_level_ns = 0;
    for s in spans {
        if s.parent == ROOT {
            top_level_ns += s.ns();
        } else {
            child_ns[s.parent as usize] += s.ns();
        }
    }
    let mut inclusive: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut self_ns: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        inclusive.entry(s.name).or_default().push(s.ns());
        self_ns
            .entry(s.name)
            .or_default()
            .push(s.ns().saturating_sub(child_ns[i]));
    }
    Summary {
        inclusive,
        self_ns,
        top_level_ns,
    }
}

/// Writes spans as `index,name,start_ns,end_ns,parent` lines (parent `-1`
/// for top-level spans).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index,name,start_ns,end_ns,parent")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(out, "{i},{},{},{},{parent}", s.name, s.start, s.end)?;
    }
    out.flush()
}
