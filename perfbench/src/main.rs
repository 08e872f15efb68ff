//! perfbench: the CAFA race detector timed from encoded trace bytes to
//! rendered race report, over three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-1m|serve-ingest|predictive> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The untraced run (`--trace 0`) reports the end-to-end metrics; the
//! traced run (`--trace 1`) wraps every call into the library in a span
//! and reports the per-layer metrics. The last line of standard output
//! is one JSON object; the lines before it are the same numbers for a
//! reader. See `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod check;
mod spans;
mod stats;
mod work;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Tracer;
use stats::{hd_quantile, median, quantile};
use work::{Layers, Run, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Scratch directory, relative to the working directory: the serve
/// workload's journals and the traced run's span dump.
pub const OUT_DIR: &str = ".perfbench_out";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// End-to-end metrics and their units, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("events_per_s", "1/s"),
    ("report_p50_ms", "ms"),
    ("ingest_mib_per_s", "MiB/s"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 52] = [
    ("trace.decode_ms", "ms"),
    ("trace.decode_mib_per_s", "MiB/s"),
    ("trace.validate_ms", "ms"),
    ("trace.bytes", "bytes"),
    ("engine.partition_ms", "ms"),
    ("engine.islands", "count"),
    ("engine.batches", "count"),
    ("engine.largest_island_records", "count"),
    ("engine.extract_busy_ms", "ms"),
    ("hb.build_busy_ms", "ms"),
    ("hb.baseline_busy_ms", "ms"),
    ("hb.reachability_busy_ms", "ms"),
    ("hb.fixpoint_rounds", "count"),
    ("hb.rule_instances", "count"),
    ("hb.derived_edges", "count"),
    ("hb.queries", "count"),
    ("hb.premises", "count"),
    ("hb.edges_materialized", "count"),
    ("core.candidates_busy_ms", "ms"),
    ("core.filters_busy_ms", "ms"),
    ("core.classify_busy_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.render_json_ms", "ms"),
    ("core.pairs_checked", "count"),
    ("core.races", "count"),
    ("core.filtered", "count"),
    ("core.race_yield", "ratio"),
    ("core.worker_utilization", "ratio"),
    ("predict.build_ms", "ms"),
    ("predict.candidates_busy_ms", "ms"),
    ("predict.rounds", "count"),
    ("predict.derived_edges", "count"),
    ("predict.gated", "count"),
    ("predict.extra_reports", "count"),
    ("replay.adjudicate_ms", "ms"),
    ("replay.runs", "count"),
    ("replay.confirmed", "count"),
    ("replay.false_positives", "count"),
    ("replay.runs_per_verdict", "ratio"),
    ("stream.push_ms", "ms"),
    ("stream.finish_ms", "ms"),
    ("stream.decode_busy_ms", "ms"),
    ("stream.ingest_busy_ms", "ms"),
    ("stream.derives", "count"),
    ("stream.backpressure_flushes", "count"),
    ("stream.footprint_mb", "MB"),
    ("fleetserve.bytes", "bytes"),
    ("fleetserve.sessions_failed", "count"),
    ("fleetserve.modelled_peak_mb", "MB"),
    ("fleetserve.footprint_model_ratio", "ratio"),
    ("fleetserve.shard_skew", "ratio"),
    ("bench.tracing_overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    if !work::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            work::WORKLOADS.join("|")
        ));
    }
    Ok(args)
}

/// One finished pass.
struct Pass {
    run: Run,
    traced: bool,
    /// Peak live heap above the pass's starting live heap, in bytes.
    peak_heap: usize,
    failures: Vec<String>,
    layers: Layers,
}

fn one_pass(w: &mut dyn Workload, index: usize, tr: &mut Tracer, threads: usize) -> Pass {
    let mut layers = Layers::new();
    let base = alloc::reset_peak();
    let mut run = w.run(index, tr, &mut layers);
    let peak_heap = alloc::peak().saturating_sub(base);
    let failures = w.check(&run, tr, &mut layers);
    if tr.on() {
        work::finish_layers(&mut layers, threads);
        let measured_mb = peak_heap as f64 / 1e6;
        let modelled = layers
            .get("fleetserve.modelled_peak_mb")
            .copied()
            .unwrap_or(0.0);
        if modelled > 0.0 && measured_mb > 0.0 {
            layers.insert("fleetserve.footprint_model_ratio", modelled / measured_mb);
        }
    }
    // Reports are checked; only their count is kept.
    run.outputs.truncate(0);
    Pass {
        run,
        traced: tr.on(),
        peak_heap,
        failures,
        layers,
    }
}

/// FNV-1a 64 over every input, each prefixed by its length.
fn fingerprint(inputs: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for input in inputs {
        for &b in (input.len() as u64)
            .to_le_bytes()
            .iter()
            .chain(input.iter())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn main() -> ExitCode {
    match bench() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark. Reports that fail their check are counted in
/// the result line (`"correct": false`), not turned into an error.
fn bench() -> Result<(), String> {
    let args = parse_args()?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;

    // Set up several times: setup_s is the median, and every repeat
    // must generate the same bytes.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut input_fp = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = workload.take() {
            old.finish();
        }
        let t0 = Instant::now();
        let w = work::setup(&args.workload, args.seed, threads)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let fp = fingerprint(&w.inputs());
        if input_fp.is_some_and(|prev| prev != fp) {
            w.finish();
            return Err("set-up generated different bytes from the same seed".to_owned());
        }
        input_fp = Some(fp);
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");
    let inputs = workload.inputs();
    let (traces, input_bytes) = (inputs.len(), inputs.iter().map(|i| i.len()).sum::<usize>());

    let origin = Instant::now();
    let mut quiet = Tracer::new(false, origin);
    let mut traced = Tracer::new(true, origin);
    // No unmeasured warm-up pass: every pass re-decodes and
    // re-allocates its traces, and a pass of `serve-ingest` or
    // `predictive` takes several seconds, so a warm-up would cost a
    // fifth of the run. The median over passes absorbs a cold first
    // pass.
    let mut passes: Vec<Pass> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let index = passes.len() + 1;
        // A traced run alternates untraced and traced passes, so the
        // tracing overhead is measured under the same conditions.
        let tr = if args.trace && index.is_multiple_of(2) {
            &mut traced
        } else {
            &mut quiet
        };
        passes.push(one_pass(workload.as_mut(), index, tr, threads));
        // Stop when less than half a pass is left, so a run measures
        // about `--seconds` however long its passes are.
        let wall = median(passes.iter().map(|p| p.run.wall.as_secs_f64()).collect());
        let half_pass = Duration::from_secs_f64(wall / 2.0);
        let enough = !args.trace || passes.iter().any(|p| p.traced);
        if enough && Instant::now() + half_pass >= deadline {
            break;
        }
    }
    workload.finish();
    let attempted: usize = passes
        .iter()
        .map(|p| p.run.latencies_ms.len())
        .sum();
    let failures: Vec<&String> = passes
        .iter()
        .flat_map(|p| &p.failures)
        .collect();
    for f in failures.iter().take(10) {
        eprintln!("perfbench: check failed: {f}");
    }

    let events: u64 = passes[0].run.events;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cpus={threads} analysis_threads={threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# input traces={traces} bytes={input_bytes} events={events} fnv1a={:#018x}",
        input_fp.unwrap_or(0)
    );
    println!(
        "# passes measured={}; reports attempted={attempted} failed={} failed_share={}",
        passes.len(),
        failures.len(),
        failures.len() as f64 / attempted.max(1) as f64
    );

    let metrics = if args.trace {
        per_layer(&passes, &traced, &args)?
    } else {
        end_to_end(&passes, &setup_s)
    };
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        failures.is_empty(),
        failures.len()
    );
    Ok(())
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(passes: &[Pass], setup_s: &[f64]) -> Vec<Metric> {
    // The p50 is taken within each pass, then the median over passes: a
    // pass always has the same reports, so the rank it falls on does
    // not move with how many passes fit.
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    let mut all_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.run.latencies_ms.iter().copied())
        .collect();
    let n = all_ms.len();
    let values = [
        per_pass(&|p| p.run.events as f64 / p.run.wall.as_secs_f64()),
        per_pass(&|p| hd_quantile(&mut p.run.latencies_ms.clone(), 0.5)),
        per_pass(&|p| p.run.bytes as f64 / (1 << 20) as f64 / p.run.wall.as_secs_f64()),
        per_pass(&|p| p.peak_heap as f64 / 1e6),
        median(setup_s.to_vec()),
    ];
    let per_pass_samples = format!("median of {} passes", passes.len());
    let samples = [
        per_pass_samples.clone(),
        format!("median over passes of the pass Harrell-Davis p50; {n} reports"),
        per_pass_samples.clone(),
        per_pass_samples,
        format!("median of {} set-ups", setup_s.len()),
    ];
    let mut out = Vec::new();
    for (((name, unit), value), samples) in END_TO_END.iter().zip(values).zip(samples) {
        println!("{name:<20} {value:>16.4} {unit:<6} {samples}");
        out.push((*name, value, *unit));
    }
    // The tail, for a reader only: it has ten or more reports beyond it
    // only in runs of at least 100 reports, and on `predictive` it
    // falls between the ten catalog apps and the generated apps, so it
    // moves with how they rank. It is not a gated metric.
    if n >= 100 {
        println!(
            "# report_p90_ms {:.4} ms (all {n} reports of the run; not gated)",
            quantile(&mut all_ms, 0.9)
        );
    }
    out
}

fn per_layer(passes: &[Pass], traced: &Tracer, args: &Args) -> Result<Vec<Metric>, String> {
    let traced_passes: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let walls = |t: bool| {
        median(
            passes
                .iter()
                .filter(|p| p.traced == t)
                .map(|p| p.run.wall.as_secs_f64())
                .collect(),
        )
    };
    let (traced_wall, quiet_wall) = (walls(true), walls(false));
    let overhead = if quiet_wall > 0.0 {
        (traced_wall / quiet_wall - 1.0) * 100.0
    } else {
        0.0
    };

    let mut out = Vec::new();
    for (name, unit) in &PER_LAYER {
        let value = if *name == "bench.tracing_overhead_pct" {
            overhead
        } else {
            median(
                traced_passes
                    .iter()
                    .map(|p| p.layers.get(name).copied().unwrap_or(0.0))
                    .collect(),
            )
        };
        println!(
            "{name:<34} {value:>16.4} {unit:<6} median of {} traced passes",
            traced_passes.len()
        );
        out.push((*name, value, *unit));
    }

    println!(
        "# self time per span, summed over {} traced passes:",
        traced_passes.len()
    );
    for (name, (total, own)) in traced.totals() {
        println!(
            "#   {name:<44} total {:>10.3} ms  self {:>10.3} ms",
            total.as_secs_f64() * 1e3,
            own.as_secs_f64() * 1e3
        );
    }
    let path = format!("{OUT_DIR}/spans-{}-seed{}.jsonl", args.workload, args.seed);
    std::fs::write(&path, traced.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("# spans written to {path}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary runs and prints.
    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = work::WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        for name in &names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        assert_eq!(json.matches("\"name\": ").count(), names.len());
    }

    #[test]
    fn fingerprint_separates_inputs() {
        assert_ne!(fingerprint(&[b"ab", b"c"]), fingerprint(&[b"a", b"bc"]));
        assert_eq!(fingerprint(&[b"ab"]), fingerprint(&[b"ab"]));
    }
}
