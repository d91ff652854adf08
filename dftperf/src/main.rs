//! `dft-perf`: the DFT pipeline's benchmark. One run measures one workload
//! for a fixed wall-clock budget and prints, as its last stdout line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Untraced
//! runs report end-to-end metrics; traced runs (`--trace 1`) report
//! per-layer metrics. See `dftperf/README.md`.
//!
//! ```text
//! dft-perf --workload suite-bb|testgen-lifter|serve-sensor --seed N
//!          --seconds S --trace 0|1 [--passes N] [--expect-coverage C/T]
//!          [--spans FILE]
//! ```

mod measure;
mod probes;
mod runner;
mod serve_sensor;
mod suite_bb;
mod testgen_lifter;

use std::path::PathBuf;
use std::time::Instant;

use measure::{
    calibrate, median, peak_rss_mb, quantile, rate, ratio, CountingAlloc, Tally, Tracer,
    REFERENCE_MS,
};
use probes::DesignCosts;
use runner::{drive, Stop, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Fixed pass count instead of the time budget (tests).
    passes: Option<usize>,
    /// Overrides `suite-bb`'s expected union coverage (self-test).
    expect_coverage: (usize, usize),
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        passes: None,
        expect_coverage: suite_bb::EXPECTED_COVERAGE,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--passes" => args.passes = Some(value.parse().map_err(|_| bad())?),
            "--expect-coverage" => {
                let (c, t) = value.split_once('/').ok_or_else(bad)?;
                args.expect_coverage =
                    (c.parse().map_err(|_| bad())?, t.parse().map_err(|_| bad())?);
            }
            "--spans" => args.spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || (args.seconds <= 0.0 && args.passes.is_none()) {
        return Err("--workload and --seconds are required".into());
    }
    Ok(args)
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(r#""{}":{{"value":{v},"unit":"{}"}}"#, m.name, m.unit)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Sets the workload up [`SETUP_REPS`] times (keeping the last), then runs
/// it untraced, or untraced then traced.
fn measure<W: Workload>(
    args: &Args,
    setup: impl Fn() -> Result<W, String>,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        drop(w.take());
        let calib_before = calibrate();
        let t0 = Instant::now();
        w = Some(setup()?);
        let s = t0.elapsed().as_secs_f64();
        setup_s.push(s * REFERENCE_MS / (0.5 * (calib_before + calibrate())));
    }
    let mut w = w.expect("at least one set-up");
    let setup_ok = w.setup_error().is_none();
    report_errors(w.setup_error().into_iter());
    let stop = |share: f64| match args.passes {
        Some(p) => Stop::Passes(p),
        None => Stop::Seconds(args.seconds * share),
    };
    let mut off = Tracer::new(false);
    let mut scratch = Tally::default();

    if !args.trace {
        let run = drive(&mut w, stop(1.0), 0, false, &mut off, &mut scratch);
        report_errors(run.errors.iter());
        let lat = &run.lat_ms;
        return Ok(Outcome {
            correct: setup_ok && run.failed == 0,
            attempted: run.attempted,
            failed: run.failed,
            metrics: vec![
                metric("setup_s", median(&setup_s), "s"),
                metric("ops_per_s", rate(lat), "1/s"),
                metric("op_ms.p50", quantile(lat, 0.5), "ms"),
                metric("op_ms.p90", quantile(lat, 0.9), "ms"),
                metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            ],
        });
    }

    // Traced run: the first half untraced, for the tracing overhead; the
    // second half with spans, allocation counts and probes.
    let untraced = drive(&mut w, stop(0.5), 0, false, &mut off, &mut scratch);
    let mut tr = Tracer::new(true);
    let mut t = Tally::default();
    let enabled = w.enable_probes();
    let traced = drive(&mut w, stop(0.5), untraced.passes, true, &mut tr, &mut t);
    w.totals(&mut t);
    let costs = w.design_costs(&mut tr);
    report_errors(untraced.errors.iter().chain(&traced.errors));
    report_errors(
        enabled
            .as_ref()
            .err()
            .into_iter()
            .chain(costs.as_ref().err()),
    );
    let spans = args.spans.clone().unwrap_or_else(|| {
        let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        PathBuf::from(dir)
            .join("dft-perf")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
    });
    tr.write_jsonl(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    let costs = costs.unwrap_or_default();
    let failed = untraced.failed + traced.failed;
    Ok(Outcome {
        correct: setup_ok && failed == 0 && enabled.is_ok() && t.get("probe_failures") == 0.0,
        attempted: untraced.attempted + traced.attempted,
        failed,
        metrics: layer_metrics(&t, costs, rate(&untraced.lat_ms), rate(&traced.lat_ms)),
    })
}

fn report_errors(errors: impl Iterator<Item = impl std::fmt::Display>) {
    for e in errors {
        eprintln!("check failed: {e}");
    }
}

/// Per-layer metrics from a traced run's tally. Means are per op; a layer
/// the workload does not reach reads 0.
fn layer_metrics(
    t: &Tally,
    costs: DesignCosts,
    untraced_rate: f64,
    traced_rate: f64,
) -> Vec<Metric> {
    let ops = t.get("ops");
    let per_op = |k: &str| ratio(t.get(k), ops);
    let op_ms = t.get("op_ms");
    let share = |k: &str| 100.0 * ratio(t.get(k), op_ms);
    let m = metric;
    vec![
        m("tdf-sim.run_ms", per_op("tdf-sim.run_ms"), "ms"),
        m(
            "tdf-sim.ns_per_activation",
            1e6 * ratio(t.get("tdf-sim.run_ms"), t.get("tdf-sim.activations")),
            "ns",
        ),
        m("tdf-sim.elaborate_ms", per_op("tdf-sim.elaborate_ms"), "ms"),
        m(
            "tdf-sim.activations",
            per_op("tdf-sim.activations"),
            "count",
        ),
        m("tdf-sim.events", per_op("tdf-sim.events"), "count"),
        m("core.match_ms", per_op("core.match_ms"), "ms"),
        m(
            "core.ns_per_event",
            1e6 * ratio(t.get("core.match_ms"), t.get("tdf-sim.events")),
            "ns",
        ),
        m("core.static_cold_ms", costs.static_cold_ms, "ms"),
        m("core.automaton_ms", costs.automaton_ms, "ms"),
        m(
            "core.static_edit_ms",
            ratio(t.get("core.static_edit_ms"), t.get("edits")),
            "ms",
        ),
        m(
            "core.models_rebuilt",
            ratio(t.get("core.models_rebuilt"), t.get("serve.incremental")),
            "count",
        ),
        m("core.render_ms", per_op("core.render_ms"), "ms"),
        m("minic.parse_ms", costs.parse_ms, "ms"),
        m("monitor.observe_ms", per_op("monitor.observe_ms"), "ms"),
        m("testgen.build_ms", per_op("testgen.build_ms"), "ms"),
        m("testgen.candidates", per_op("testgen.candidates"), "count"),
        m(
            "testgen.accept_ratio",
            ratio(t.get("testgen.accepted"), t.get("testgen.candidates")),
            "ratio",
        ),
        m("serve.server_ms", per_op("serve.server_ms"), "ms"),
        m("serve.elaborate_ms", per_op("serve.elaborate_ms"), "ms"),
        m("serve.overhead_ms", per_op("serve.overhead_ms"), "ms"),
        m("serve.warm_ratio", per_op("serve.warm"), "ratio"),
        m(
            "serve.incremental_ratio",
            per_op("serve.incremental"),
            "ratio",
        ),
        m("serve.rejected", t.get("serve.rejected"), "count"),
        m("process.allocs_per_op", per_op("allocs"), "count"),
        m("process.alloc_bytes_per_op", per_op("alloc_bytes"), "B"),
        m(
            "process.allocs_per_activation",
            ratio(t.get("allocs"), t.get("tdf-sim.activations")),
            "count",
        ),
        m(
            "obs.tracing_overhead_pct",
            100.0 * (ratio(untraced_rate, traced_rate) - 1.0),
            "%",
        ),
        m("obs.unattributed_pct", share("self.unattributed"), "%"),
        m("models.self_pct", share("self.models"), "%"),
        m("tdf-sim.self_pct", share("self.tdf-sim"), "%"),
        m("core.self_pct", share("self.core"), "%"),
        m("monitor.self_pct", share("self.monitor"), "%"),
        m("testgen.self_pct", share("self.testgen"), "%"),
        m("serve.self_pct", share("self.serve"), "%"),
    ]
}

/// Pins the program's environment knobs to their defaults, with one
/// analysis thread: the 2 vCPUs stay free of in-process contention, and
/// the program's own metrics and tracing stay off.
fn pin_environment() {
    std::env::set_var("DFT_THREADS", "1");
    for knob in [
        "DFT_METRICS",
        "DFT_TRACE",
        "DFT_STREAM",
        "DFT_SUBSUME",
        "DFT_INCR",
    ] {
        std::env::remove_var(knob);
    }
}

/// Pins the process, and every thread it starts afterwards, to the first
/// CPU it may run on. The server's threads then hand requests over on the
/// CPU the calibration kernel runs on, instead of waking an idle vCPU whose
/// speed the kernel does not see.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    // SAFETY: the kernel writes at most `size` bytes to `mask`, and
    // `allowed` is exactly that large.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let Some((word, bits)) = allowed.iter().enumerate().find(|(_, bits)| **bits != 0) else {
        return;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: the kernel reads `size` bytes from `mask`, and `one` is
    // exactly that large. A failure leaves the process unpinned.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "suite-bb" => measure(args, || {
            suite_bb::SuiteBb::setup(args.seed, args.expect_coverage)
        }),
        "testgen-lifter" => measure(args, || testgen_lifter::TestgenLifter::setup(args.seed)),
        "serve-sensor" => measure(args, || serve_sensor::ServeSensor::setup(args.seed)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    pin_environment();
    pin_to_one_cpu();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dft-perf: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => println!("{}", outcome.to_json()),
        Err(e) => {
            eprintln!("dft-perf: {e}");
            std::process::exit(1);
        }
    }
}
