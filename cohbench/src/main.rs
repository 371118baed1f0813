//! `cohbench` — the cohesion workspace's end-to-end benchmark.
//!
//! ```text
//! cohbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! ```
//!
//! Untraced (`--trace 0`) it measures what a user runs and prints the
//! end-to-end metrics; traced (`--trace 1`) it replays the workload with
//! spans around every layer's calls and prints the per-layer metrics. The
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Workloads, metrics and their rationale are described in `README.md`.

mod calib;
mod golden;
mod replica;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;
mod wrap;

use std::collections::BTreeMap;
use std::path::PathBuf;
use workloads::{Checks, Env, Measured, Traced};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    let out = out.unwrap_or_else(|| {
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
            .join("cohbench-out")
    });
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// `(metric, unit, value)` rows in output order.
type Metrics = Vec<(String, &'static str, f64)>;

fn end_to_end(workload: &str, m: &Measured) -> Metrics {
    let wall_alias = match workload {
        "converge-dense-256" => "time_to_converge_s",
        "lab-full" => "lab_wall_s",
        _ => "session_s",
    };
    let (setup, wall, events_per_s) = (m.setup_s(true), m.wall_s(true), m.events_per_s(true));
    println!(
        "end-to-end ({workload}), normalized to a host whose reference kernel takes {} ms (raw in brackets):",
        calib::NOMINAL_MS
    );
    let setup_values = workloads::values(&m.setup, true);
    println!(
        "  {:<14}{setup:>16.9} [{:.9}]  median of {}, IQR/median {:.4}",
        "setup_s",
        m.setup_s(false),
        setup_values.len(),
        stats::rel_iqr(&setup_values)
    );
    println!(
        "  {:<14}{wall:>16.6} [{:.6}]  (= {wall_alias}) mean over {} input(s) of the median repeat",
        "wall_s",
        m.wall_s(false),
        m.runs.len(),
    );
    println!(
        "  {:<14}{events_per_s:>16.3} [{:.3}]",
        "events_per_s",
        m.events_per_s(false)
    );
    for (i, r) in m.runs.iter().enumerate() {
        let xs = workloads::values(&r.0, true);
        let shown: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
        println!(
            "    input {i}: {} events; IQR/median {:.4} over {} repeats: {}",
            r.1,
            stats::rel_iqr(&xs),
            xs.len(),
            shown.join(" ")
        );
    }
    let host: Vec<f64> = m
        .runs
        .iter()
        .flat_map(|r| r.0.iter().map(|t| t.host_ms()))
        .collect();
    println!(
        "  host reference kernel over the repeats: median {:.3} ms, min {:.3}, max {:.3}",
        stats::median(&host),
        stats::quantile(&host, 0.0),
        stats::quantile(&host, 1.0)
    );
    let rss = m.peak_rss_mb;
    println!(
        "  {:<14}{rss:>16.3}  after the first iteration",
        "peak_rss_mb"
    );
    println!("  {:<14}{:>16}", "failed_checks", m.checks.failures.len());
    println!("work counts: {:?}", m.counts);
    vec![
        ("setup_s".into(), "s", setup),
        ("wall_s".into(), "s", wall),
        ("events_per_s".into(), "1/s", events_per_s),
        ("peak_rss_mb".into(), "MiB", rss),
    ]
}

/// Per-call time metrics: `(metric, span, unit)`, reported as the median
/// per call; `ns` metrics also report `<metric>.tail`, the highest
/// percentile with ten samples beyond it (see `stats::tail`). The
/// `lab.<experiment>_s` metrics are added from `golden::LAB`.
const PER_CALL: &[(&str, &str, &str)] = &[
    ("engine.look_ns", "engine.look", "ns"),
    ("engine.move_ns", "engine.move", "ns"),
    ("core.compute_ns", "core.compute", "ns"),
    (
        "scheduler.next_activation_ns",
        "scheduler.next_activation",
        "ns",
    ),
    ("monitors.cohesion_ns", "monitors.cohesion", "ns"),
    (
        "monitors.strong_visibility_ns",
        "monitors.strong_visibility",
        "ns",
    ),
    ("monitors.hull_ns", "monitors.hull", "ns"),
    ("monitors.diameter_ns", "monitors.diameter", "ns"),
    ("session.rounds_ns", "session.rounds", "ns"),
    ("session.dirty_ns", "session.dirty", "ns"),
    ("checkpoint.save_ms", "checkpoint.save", "ms"),
    ("checkpoint.to_json_ms", "checkpoint.to_json", "ms"),
    ("checkpoint.from_json_ms", "checkpoint.from_json", "ms"),
    ("checkpoint.rebuild_ms", "checkpoint.rebuild", "ms"),
    ("checkpoint.restore_ms", "checkpoint.restore", "ms"),
    ("workloads.generate_ms", "workloads.generate", "ms"),
    ("engine.build_ms", "engine.build", "ms"),
    ("lab.grids_ms", "lab.grids", "ms"),
];

/// Deterministic counts: `(metric, counter)`.
const COUNTS: &[(&str, &str)] = &[
    ("engine.look_events", "engine.look.calls"),
    ("engine.move_events", "engine.move.calls"),
    ("core.compute_calls", "core.compute_calls"),
    ("scheduler.calls", "scheduler.calls"),
    (
        "monitors.cohesion_pair_checks",
        "monitors.cohesion_pair_checks",
    ),
    ("monitors.strong_pair_checks", "monitors.strong_pair_checks"),
    (
        "monitors.diameter_pair_checks",
        "monitors.diameter_pair_checks",
    ),
    ("session.rounds", "session.rounds.calls"),
    ("checkpoint.bytes", "checkpoint.bytes"),
    ("engine.trace_entries", "engine.trace_entries"),
    ("diameter.series_len", "diameter.series_len"),
    ("lab.cells", "lab.cells"),
    ("lab.rows", "lab.rows"),
    ("lab.row_bytes", "lab.row_bytes"),
    ("lab.progress_records", "lab.progress_records"),
    ("lab.events", "lab.events"),
];

/// Layers for the self-time shares: `(layer, span-name prefixes)`.
const LAYERS: &[(&str, &[&str])] = &[
    ("look", &["engine.look"]),
    ("move", &["engine.move", "engine.idle"]),
    ("compute", &["core."]),
    ("scheduler", &["scheduler."]),
    ("monitors", &["monitors.", "session.rounds"]),
    ("session", &["session.dirty"]),
    ("setup", &["workloads.", "engine.build", "lab.grids"]),
    ("lab", &["lab."]),
    ("bench", &["bench."]),
];

fn layer_of(span: &str) -> &'static str {
    // `lab.grids` is set-up, not an experiment: first match wins, and
    // "setup" precedes "lab".
    LAYERS
        .iter()
        .find(|(_, prefixes)| prefixes.iter().any(|p| span.starts_with(p)))
        .map_or("unattributed", |l| l.0)
}

fn per_layer(workload: &str, t: &Traced, out: &std::path::Path) -> Metrics {
    let mut rows: Metrics = Vec::new();
    let sample = |span: &str| t.samples.get(span).map_or(&[][..], Vec::as_slice);
    println!("per-call ({workload}): median, tail, calls");
    let lab = golden::LAB.iter().map(|g| (format!("{}_s", g.4), g.4, "s"));
    for (metric, span, unit) in PER_CALL
        .iter()
        .map(|&(m, s, u)| (m.to_string(), s, u))
        .chain(lab)
    {
        let xs = sample(span);
        let per_ns = match unit {
            "ns" => 1.0,
            "ms" => 1e-6,
            _ => 1e-9,
        };
        let median = if xs.is_empty() {
            0.0
        } else {
            stats::median(xs) * per_ns
        };
        rows.push((metric.clone(), unit, median));
        if unit != "ns" {
            if !xs.is_empty() {
                println!("  {metric:<32}{median:>12.4} {unit}  n={}", xs.len());
            }
            continue;
        }
        let tail = stats::tail(xs).unwrap_or((100.0, stats::quantile(xs, 1.0)));
        if !xs.is_empty() {
            println!(
                "  {metric:<32}{median:>12.1} ns  p{}={:.1} ns  n={}",
                tail.0,
                tail.1,
                xs.len()
            );
        }
        rows.push((
            format!("{metric}.tail"),
            "ns",
            if xs.is_empty() { 0.0 } else { tail.1 },
        ));
    }

    let counter = |name: &str| t.counters.get(name).copied().unwrap_or(0.0);
    println!("work counts (first pass):");
    for &(metric, name) in COUNTS {
        let v = counter(name);
        if v != 0.0 {
            println!("  {metric:<32}{v:>14}");
        }
        rows.push((metric.into(), "count", v));
    }
    let calls = counter("core.compute_calls");
    let events = counter("engine.look.calls") + counter("engine.move.calls");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let snapshot_mean = ratio(counter("core.snapshot_len_sum"), calls);
    let dirty_mean = ratio(counter("monitors.dirty_sum"), events);
    println!("  core.snapshot_len_mean {snapshot_mean:.3}  monitors.dirty_mean {dirty_mean:.3}");
    rows.push(("core.snapshot_len_mean".into(), "count", snapshot_mean));
    rows.push(("monitors.dirty_mean".into(), "count", dirty_mean));

    // Self time per layer, as a share of the traced wall time.
    let mut layer_s: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, s) in &t.self_s {
        *layer_s.entry(layer_of(span)).or_default() += s;
    }
    let wall = t.traced_wall_s;
    let unattributed = ((wall - t.attributed_s) / wall).max(0.0);
    println!("self time by layer (share of traced wall {wall:.4} s):");
    for (layer, _) in LAYERS {
        let share = layer_s.get(layer).copied().unwrap_or(0.0) / wall;
        if share > 0.0 {
            println!("  {layer:<12}{share:>9.4}");
        }
        rows.push((format!("share.{layer}"), "share", share));
    }
    println!("  {:<12}{unattributed:>9.4}", "unattributed");
    rows.push(("share.unattributed".into(), "share", unattributed));
    // Checkpoint calls are timed inside the untraced session, so their
    // share is of the untraced wall.
    let ckpt: f64 = PER_CALL
        .iter()
        .filter(|(m, _, _)| m.starts_with("checkpoint."))
        .map(|(_, span, _)| sample(span).iter().sum::<f64>() * 1e-9)
        .sum();
    rows.push((
        "share.checkpoint".into(),
        "share",
        ratio(ckpt, t.untraced_wall_s),
    ));
    let overhead = ratio(wall, t.untraced_wall_s);
    println!(
        "tracing overhead: traced {wall:.4} s / untraced {:.4} s = {overhead:.4}",
        t.untraced_wall_s
    );
    rows.push(("trace.overhead".into(), "ratio", overhead));
    rows.push(("trace.wall_s".into(), "s", wall));
    rows.push(("trace.spans".into(), "count", t.spans.len() as f64));

    let path = out.join(format!("{workload}.spans.csv"));
    match trace::write_csv(&path, &t.spans) {
        Ok(()) => println!("[{} spans -> {}]", t.spans.len(), path.display()),
        Err(e) => eprintln!("writing {}: {e}", path.display()),
    }
    rows
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let failed = checks.failures.len();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        checks.attempted,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cohbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cohbench: create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let env = Env {
        out_dir: args.out.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    let (checks, metrics) = if args.trace {
        let t = match args.workload.as_str() {
            "converge-dense-256" => workloads::dense_traced(&env),
            "session-lattice-1024" => workloads::lattice_traced(&env),
            _ => workloads::lab_traced(&env),
        };
        let metrics = per_layer(&args.workload, &t, &args.out);
        (t.checks, metrics)
    } else {
        let m = match args.workload.as_str() {
            "converge-dense-256" => workloads::dense_untraced(&env),
            "session-lattice-1024" => workloads::lattice_untraced(&env),
            _ => workloads::lab_untraced(&env),
        };
        let metrics = end_to_end(&args.workload, &m);
        (m.checks, metrics)
    };
    for f in &checks.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", result_line(&checks, &metrics));
}
