//! Predictive-backend harness: per-app extra reports, replay verdicts,
//! and analysis overhead (`BENCH_predict.json`).
//!
//! For every Table 1 app plus a slice of the generated corpus this
//! records a trace, analyzes it twice — the HB backend alone, then
//! `--detector both` — and pushes every `predictive-only` report
//! through the replay adjudication ladder. The columns the JSON pins:
//!
//! * `extra` — reports the predictive relation makes beyond HB;
//! * `confirmed` — extras with a replay-verified witness (real races
//!   the observed-trace backend missed);
//! * `false_positives` — extras the ladder could not confirm;
//! * `overhead` — wall-time ratio of the both-backend analysis to the
//!   HB-only analysis, fresh sessions for each so the predictive
//!   fixpoint pays its own extraction.
//!
//! The ten catalog apps are expected to land at `extra = 0`: their
//! workloads plant nothing the conflict-gated relaxations expose, so
//! any drift here is a precision regression in `cafa-predict`. The
//! generated slots carry the planted lock-handoff (confirmable) and
//! fifo-handoff (infeasible) patterns that exercise both verdicts.

use std::time::Instant;

use cafa_apps::AppSpec;
use cafa_core::{AnalysisSession, Analyzer, DetectorConfig, DetectorKind, PredictClass};
use cafa_replay::{adjudicate_races, ReplayConfig};

/// Generated-corpus slots measured alongside the catalog: the first
/// slice of the CI-pinned `--seed 7` corpus, which plants both
/// predictive-only pattern kinds.
pub const GEN_SLOTS: [&str; 5] = ["gen:7:0", "gen:7:1", "gen:7:2", "gen:7:3", "gen:7:4"];

/// One measured row of the predictive comparison.
#[derive(Clone, Debug)]
pub struct PredictRow {
    /// App name.
    pub app: String,
    /// Events in the recorded trace.
    pub events: usize,
    /// Races the HB backend reported.
    pub hb_reported: usize,
    /// Races the predictive backend reported (superset of HB's).
    pub pred_reported: usize,
    /// Predictive-only extras (`pred_reported - hb_reported` by the
    /// classification invariant).
    pub extra: usize,
    /// Extras confirmed by a replay-verified witness.
    pub confirmed: usize,
    /// Extras the ladder exhausted its budget on: counted FPs.
    pub false_positives: usize,
    /// Stress runs the adjudication spent.
    pub runs: u64,
    /// HB-only analysis wall time (seconds, fresh session).
    pub hb_s: f64,
    /// Both-backend analysis wall time (seconds, fresh session).
    pub both_s: f64,
}

impl PredictRow {
    /// Wall-time ratio of the both-backend analysis to HB alone.
    pub fn overhead(&self) -> f64 {
        if self.hb_s > 0.0 {
            self.both_s / self.hb_s
        } else {
            1.0
        }
    }
}

/// Measures one app: HB-only and both-backend analysis on fresh
/// sessions, then adjudication of every predictive-only report.
///
/// # Panics
///
/// Panics if recording, analysis, or replay fails (the catalog and the
/// generated corpus run clean).
pub fn measure_app(app: &AppSpec, seed: u64) -> PredictRow {
    let outcome = app.record(seed).expect("workload records cleanly");
    let trace = outcome.trace.expect("instrumentation is on");

    let hb_config = DetectorConfig::cafa();
    let t = Instant::now();
    let hb_report = Analyzer::with_config(hb_config)
        .analyze_with(&AnalysisSession::new(&trace))
        .expect("hb analysis succeeds");
    let hb_s = t.elapsed().as_secs_f64();

    let mut both_config = DetectorConfig::cafa();
    both_config.detector = DetectorKind::Both;
    let t = Instant::now();
    let both_report = Analyzer::with_config(both_config)
        .analyze_with(&AnalysisSession::new(&trace))
        .expect("both analysis succeeds");
    let both_s = t.elapsed().as_secs_f64();

    let section = both_report
        .predictive
        .as_ref()
        .expect("both mode attaches the predictive section");
    let only: Vec<_> = section
        .races
        .iter()
        .filter(|r| r.class == PredictClass::PredictiveOnly)
        .map(|r| r.var)
        .collect();
    let adj = adjudicate_races(app, &only, &ReplayConfig::default())
        .expect("adjudication replays cleanly");

    PredictRow {
        app: app.name.clone(),
        events: both_report.stats.events,
        hb_reported: hb_report.races.len(),
        pred_reported: section.races.len(),
        extra: only.len(),
        confirmed: adj.confirmed(),
        false_positives: adj.false_positives(),
        runs: adj.total_runs(),
        hb_s,
        both_s,
    }
}

/// Measures the catalog plus the generated slots, in a stable order.
pub fn compute(seed: u64) -> Vec<PredictRow> {
    let mut rows: Vec<PredictRow> = cafa_apps::all_apps()
        .iter()
        .map(|app| measure_app(app, seed))
        .collect();
    for slot in GEN_SLOTS {
        let app = cafa_apps::resolve(slot).expect("gen slots resolve");
        rows.push(measure_app(&app, seed));
    }
    rows
}

/// Runs the comparison, prints the table, writes `BENCH_predict.json`.
pub fn main() {
    println!("Predictive backend vs HB — extras, replay verdicts, overhead");
    println!(
        "{:<12} | {:>6} | {:>4} {:>4} | {:>5} {:>9} {:>4} | {:>8}",
        "App", "events", "hb", "pred", "extra", "confirmed", "fp", "overhead"
    );
    let rows = compute(0);
    let mut extra = 0;
    let mut confirmed = 0;
    let mut fp = 0;
    for r in &rows {
        println!(
            "{:<12} | {:>6} | {:>4} {:>4} | {:>5} {:>9} {:>4} | {:>7.2}x",
            r.app,
            r.events,
            r.hb_reported,
            r.pred_reported,
            r.extra,
            r.confirmed,
            r.false_positives,
            r.overhead(),
        );
        extra += r.extra;
        confirmed += r.confirmed;
        fp += r.false_positives;
    }
    println!(
        "\n{extra} extra report(s): {confirmed} replay-confirmed (races HB missed), \
         {fp} counted false positive(s)"
    );

    std::fs::write("BENCH_predict.json", render_json(&rows)).expect("write BENCH_predict.json");
    println!("wrote BENCH_predict.json");
}

/// Renders the rows as a stable JSON document (wall times included —
/// this file records a measurement, not a pinned artifact).
fn render_json(rows: &[PredictRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = write!(
        out,
        "{{\n  \"seed\": 0,\n  \"host_cpus\": {host_cpus},\n  \"apps\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"app\": \"{}\", \"events\": {}, \"hb_reported\": {}, \
             \"pred_reported\": {}, \"extra\": {}, \"confirmed\": {}, \
             \"false_positives\": {}, \"runs\": {}, \"hb_s\": {:.6}, \
             \"both_s\": {:.6}, \"overhead\": {:.3}}}{comma}",
            r.app,
            r.events,
            r.hb_reported,
            r.pred_reported,
            r.extra,
            r.confirmed,
            r.false_positives,
            r.runs,
            r.hb_s,
            r.both_s,
            r.overhead(),
        );
    }
    out.push_str("  ],\n");
    let (extra, confirmed, fp) = rows.iter().fold((0, 0, 0), |(e, c, f), r| {
        (e + r.extra, c + r.confirmed, f + r.false_positives)
    });
    let _ = writeln!(
        out,
        "  \"overall\": {{\"extra\": {extra}, \"confirmed\": {confirmed}, \
         \"false_positives\": {fp}}}"
    );
    out.push_str("}\n");
    out
}
