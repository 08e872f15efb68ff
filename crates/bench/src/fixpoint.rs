//! Fixpoint-engine benchmark: the semi-naive delta-driven engine
//! (`derive`) against the naive textbook reference loop
//! (`derive_naive`) on synthetic event ladders and every catalog app.
//!
//! For each trace both engines run from identical base graphs; the
//! benchmark records rounds, rule instances evaluated, derived edges,
//! and best-of-[`ITERS`] wall time, and asserts the two engines
//! materialize the same number of edges (the differential test suite
//! pins exact edge-set equality; here the count is a cheap guard).
//! The headline aggregate is the total instances-evaluated ratio —
//! how much rule work delta-driven evaluation avoids.
//!
//! Alongside the text output, [`main`] writes the measurements to
//! `BENCH_fixpoint.json` in the current directory.

use std::time::{Duration, Instant};

use cafa_apps::all_apps;
use cafa_hb::{base_graph, derive, derive_naive, CausalityConfig, DerivationStats};
use cafa_trace::Trace;

use crate::scaling::synthetic_trace;

/// Timing iterations; the minimum wall time is reported.
const ITERS: usize = 3;

/// Synthetic ladder sizes (target event counts).
const LADDER: [usize; 4] = [250, 500, 1000, 2000];

/// One engine's run on one trace.
#[derive(Clone, Copy, Debug)]
pub struct EngineMeasurement {
    /// Rounds until convergence.
    pub rounds: u32,
    /// Rule instances evaluated across all rounds.
    pub instances: u64,
    /// Edges derived by the rules.
    pub derived_edges: usize,
    /// Best-of-[`ITERS`] fixpoint wall time (excluding base-graph
    /// construction, which is shared by both engines).
    pub wall: Duration,
}

/// Both engines on one trace.
#[derive(Clone, Debug)]
pub struct FixpointRow {
    /// Trace label (app name or synthetic size).
    pub label: String,
    /// Events in the trace.
    pub events: usize,
    /// Semi-naive engine measurement.
    pub semi: EngineMeasurement,
    /// Naive reference measurement.
    pub naive: EngineMeasurement,
}

impl FixpointRow {
    /// Rule-work reduction: naive instances / semi instances.
    pub fn instance_ratio(&self) -> f64 {
        self.naive.instances as f64 / self.semi.instances.max(1) as f64
    }

    /// Wall-time speedup: naive / semi.
    pub fn speedup(&self) -> f64 {
        self.naive.wall.as_secs_f64() / self.semi.wall.as_secs_f64().max(1e-9)
    }
}

fn time_engine(
    trace: &Trace,
    config: &CausalityConfig,
    run: impl Fn(&Trace, &CausalityConfig) -> DerivationStats,
) -> EngineMeasurement {
    let mut best = Duration::MAX;
    let mut stats = DerivationStats::default();
    for _ in 0..ITERS {
        let t = Instant::now();
        stats = run(trace, config);
        best = best.min(t.elapsed());
    }
    EngineMeasurement {
        rounds: stats.rounds,
        instances: stats.instances,
        derived_edges: stats.derived_edges(),
        wall: best,
    }
}

/// Measures both engines on one trace.
///
/// # Panics
///
/// Panics if either engine fails to converge or they disagree on the
/// number of derived edges.
pub fn measure(label: &str, trace: &Trace) -> FixpointRow {
    let config = CausalityConfig::cafa();
    let semi = time_engine(trace, &config, |t, c| {
        let mut g = base_graph(t, c);
        derive(&mut g, t, c).expect("semi-naive fixpoint converges")
    });
    let naive = time_engine(trace, &config, |t, c| {
        let mut g = base_graph(t, c);
        derive_naive(&mut g, t, c, None).expect("naive fixpoint converges")
    });
    assert_eq!(
        semi.derived_edges, naive.derived_edges,
        "engines disagree on {label}"
    );
    FixpointRow {
        label: label.to_owned(),
        events: trace.stats().events,
        semi,
        naive,
    }
}

/// Runs the benchmark and writes `BENCH_fixpoint.json`.
///
/// # Panics
///
/// Panics if recording, derivation, or the JSON write fails.
pub fn main() {
    let mut rows = Vec::new();
    println!("Fixpoint engine benchmark — semi-naive vs naive reference");
    println!(
        "{:<16} {:>7} {:>7} {:>12} {:>10} {:>8} | {:>7} {:>12} {:>10} | {:>6} {:>7}",
        "trace",
        "events",
        "rounds",
        "instances",
        "wall",
        "edges",
        "rounds",
        "instances",
        "wall",
        "work×",
        "speed×"
    );
    for events in LADDER {
        let trace = synthetic_trace(events);
        let row = measure(&format!("synthetic/{events}"), &trace);
        print_row(&row);
        rows.push(row);
    }
    for app in all_apps() {
        let outcome = app.record(0).expect("workload records cleanly");
        let trace = outcome.trace.expect("instrumentation is on");
        let row = measure(&app.name, &trace);
        print_row(&row);
        rows.push(row);
    }

    let semi_total: u64 = rows.iter().map(|r| r.semi.instances).sum();
    let naive_total: u64 = rows.iter().map(|r| r.naive.instances).sum();
    let ratio = naive_total as f64 / semi_total.max(1) as f64;
    println!(
        "aggregate: {naive_total} naive instances vs {semi_total} semi-naive — {ratio:.1}x less rule work"
    );

    let json = render_json(&rows, ratio);
    std::fs::write("BENCH_fixpoint.json", json).expect("write BENCH_fixpoint.json");
    println!("wrote BENCH_fixpoint.json");
}

fn print_row(r: &FixpointRow) {
    println!(
        "{:<16} {:>7} {:>7} {:>12} {:>9.3}ms {:>8} | {:>7} {:>12} {:>9.3}ms | {:>5.1}x {:>6.1}x",
        r.label,
        r.events,
        r.semi.rounds,
        r.semi.instances,
        r.semi.wall.as_secs_f64() * 1e3,
        r.semi.derived_edges,
        r.naive.rounds,
        r.naive.instances,
        r.naive.wall.as_secs_f64() * 1e3,
        r.instance_ratio(),
        r.speedup()
    );
}

fn render_json(rows: &[FixpointRow], aggregate_ratio: f64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"benchmark\": \"fixpoint\",");
    let _ = writeln!(out, "  \"iters\": {ITERS},");
    let _ = writeln!(out, "  \"aggregate_instance_ratio\": {aggregate_ratio:.2},");
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"label\": \"{}\",", r.label);
        let _ = writeln!(out, "      \"events\": {},", r.events);
        for (name, m) in [("semi", &r.semi), ("naive", &r.naive)] {
            let _ = writeln!(out, "      \"{name}\": {{");
            let _ = writeln!(out, "        \"rounds\": {},", m.rounds);
            let _ = writeln!(out, "        \"instances\": {},", m.instances);
            let _ = writeln!(out, "        \"derived_edges\": {},", m.derived_edges);
            let _ = writeln!(out, "        \"wall_seconds\": {:.6}", m.wall.as_secs_f64());
            let _ = writeln!(out, "      }},");
        }
        let _ = writeln!(out, "      \"instance_ratio\": {:.2},", r.instance_ratio());
        let _ = writeln!(out, "      \"speedup\": {:.2}", r.speedup());
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
