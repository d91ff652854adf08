//! Self-tests of the benchmark: its output checks can fail, and its exact
//! work counters repeat exactly. Run with
//! `cargo test --release --manifest-path dftperf/Cargo.toml`.

use std::process::Command;

/// Runs the benchmark for a fixed number of passes and returns its result
/// line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dft-perf"))
        .args(["--workload", workload, "--seed", "7", "--passes", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!(r#""{name}":{{"value":"#);
    let rest = &line[line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len()..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("numeric value")
}

#[test]
fn wrong_expected_coverage_flips_correct() {
    let right = run("suite-bb", false, &[]);
    assert!(right.starts_with(r#"{"correct":true,"#), "{right}");
    let wrong = run("suite-bb", false, &["--expect-coverage", "135/151"]);
    assert!(wrong.starts_with(r#"{"correct":false,"#), "{wrong}");
}

/// Counters that count work, not time: two traced runs of the same passes
/// must agree on every one of them.
const WORK: [&str; 4] = [
    "tdf-sim.activations",
    "tdf-sim.events",
    "core.models_rebuilt",
    "testgen.candidates",
];
const ALLOCS: [&str; 2] = ["process.allocs_per_op", "process.alloc_bytes_per_op"];

/// Runs two traced passes-bound runs; returns both result lines.
fn traced_twice(workload: &str) -> (String, String) {
    let first = run(workload, true, &[]);
    let second = run(workload, true, &[]);
    assert!(first.starts_with(r#"{"correct":true,"#), "{first}");
    assert!(second.starts_with(r#"{"correct":true,"#), "{second}");
    for name in WORK {
        assert_eq!(
            metric(&first, name),
            metric(&second, name),
            "{workload}: {name}"
        );
    }
    (first, second)
}

#[test]
fn exact_counters_repeat_on_suite_bb() {
    let (first, second) = traced_twice("suite-bb");
    assert_eq!(metric(&first, "tdf-sim.activations") * 24.0, 369_200.0);
    for name in ALLOCS {
        assert_eq!(metric(&first, name), metric(&second, name), "{name}");
    }
}

#[test]
fn exact_counters_repeat_on_testgen_lifter() {
    let (first, second) = traced_twice("testgen-lifter");
    assert_eq!(metric(&first, "testgen.candidates"), 8.0);
    for name in ALLOCS {
        assert_eq!(metric(&first, name), metric(&second, name), "{name}");
    }
}

/// The server's allocations are exact up to one race: its admission queue
/// re-allocates the tenant's key when the previous job's completion ran
/// before the next request arrived, which the client cannot observe. The
/// work counters stay exact.
#[test]
fn exact_counters_repeat_on_serve_sensor() {
    let (first, second) = traced_twice("serve-sensor");
    assert_eq!(metric(&first, "core.models_rebuilt"), 1.0);
    for name in ALLOCS {
        let (a, b) = (metric(&first, name), metric(&second, name));
        assert!((a - b).abs() <= 1e-3 * a, "{name}: {a} vs {b}");
    }
}
