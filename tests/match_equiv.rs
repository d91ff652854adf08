//! Property-based equivalence gate for the interned match automaton: on
//! random synthetic clusters and fault-injected event logs, the
//! [`MatchAutomaton`] fast path must produce *byte-identical* results —
//! exercised sets, executed defs, warning sequences, quarantine counts and
//! rendered coverage reports — to the legacy string matcher, and session
//! reports must not depend on the matcher thread count.
//!
//! Session reports are also gated against the test-side record-then-match
//! and full-tracking oracles (`tests/support`).
//!
//! The quick variants run in the default suite; heavier case counts are
//! opted in with `--features fault-inject` (the CI fault-injection job).

mod support;

use std::sync::OnceLock;

use proptest::prelude::*;

use support::{oracle_automaton, oracle_run};
use systemc_ams_dft::dft::synth::synthetic_chain;
use systemc_ams_dft::dft::{
    analyse, analyse_events_with_mode, obs, render_table1, Coverage, Design, DftSession,
    MatchAutomaton, MatchMode, StaticAnalysis, TestcaseResult, TestcaseSpec, Tracking,
};
use systemc_ams_dft::sim::{
    CompactEvent, Event, FaultInjector, FaultPlan, RecordingSink, RunLimits, SimTime, Simulator,
};

/// One synthetic chain design with its statics, a prebuilt automaton and a
/// healthy captured event log. Built once, shared across proptest cases.
struct Fixture {
    design: Design,
    statics: StaticAnalysis,
    automaton: MatchAutomaton,
    /// Same design/statics with every association row tracked (no
    /// subsumption reduction), for Full-vs-Reduced equivalence checks.
    full: MatchAutomaton,
    /// Explicitly subsumption-reduced twin of `full`.
    reduced: MatchAutomaton,
    events: Vec<Event>,
}

fn fixtures() -> &'static Vec<Fixture> {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        [(2usize, true), (3, false), (5, true)]
            .into_iter()
            .map(|(length, gains)| {
                let spec = synthetic_chain(length, gains);
                let design = spec.build_design().unwrap();
                let statics = analyse(&design);
                // The automaton freezes the id space *before* any log is
                // converted, so fabricated ghost names land above the
                // freeze — the same situation as a live session.
                let automaton = MatchAutomaton::new(&design, &statics);
                let full = MatchAutomaton::with_tracking(&design, &statics, Tracking::Full);
                let reduced = MatchAutomaton::with_tracking(&design, &statics, Tracking::Reduced);
                let cluster = spec.build_cluster().unwrap();
                let mut sim = Simulator::new(cluster).unwrap();
                let mut sink = RecordingSink::new();
                sim.run(SimTime::from_us(100), &mut sink).unwrap();
                assert!(!sink.events.is_empty(), "fixture produced events");
                Fixture {
                    design,
                    statics,
                    automaton,
                    full,
                    reduced,
                    events: sink.events,
                }
            })
            .collect()
    })
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0f64..0.6,
        0.0f64..0.6,
        0.0f64..0.6,
        0.0f64..0.9,
    )
        .prop_map(|(seed, drop, dup, reorder, corrupt)| {
            FaultPlan::new()
                .with_seed(seed)
                .with_drop_events(drop)
                .with_duplicate_events(dup)
                .with_reorder_events(reorder)
                .with_corrupt_events(corrupt)
        })
}

/// Both matchers over the same (possibly corrupted) log in `mode`: every
/// result field and the rendered single-testcase coverage report must be
/// byte-identical, and the coverage bitset must agree with the exercised
/// set on every static association index.
fn assert_matchers_equivalent(fx: &Fixture, log: &[Event], mode: MatchMode) {
    let compact: Vec<CompactEvent> = log
        .iter()
        .map(|e| CompactEvent::from_event(e, fx.automaton.interner()))
        .collect();
    let legacy = analyse_events_with_mode(&fx.design, log, mode);
    let (fast, bits) = fx.automaton.analyse_with_coverage(&compact, mode);

    assert_eq!(fast.exercised, legacy.exercised, "exercised sets differ");
    assert_eq!(fast.defs_executed, legacy.defs_executed, "defs differ");
    assert_eq!(fast.warnings, legacy.warnings, "warning sequences differ");
    assert_eq!(
        fast.quarantined, legacy.quarantined,
        "quarantine counts differ"
    );
    for (i, ca) in fx.statics.associations.iter().enumerate() {
        assert_eq!(
            bits.contains(i),
            fast.exercised.contains(&ca.assoc),
            "coverage bit {i} disagrees with the exercised set"
        );
    }

    // A coverage built from the bitset run renders exactly like one built
    // from the legacy hash-probe run.
    let legacy_run = TestcaseResult {
        name: "TC".into(),
        exercised: legacy.exercised,
        defs_executed: legacy.defs_executed,
        warnings: legacy.warnings,
        exercised_idx: None,
        ..TestcaseResult::default()
    };
    let fast_run = TestcaseResult {
        name: "TC".into(),
        exercised: fast.exercised,
        defs_executed: fast.defs_executed,
        warnings: fast.warnings,
        exercised_idx: Some(bits),
        ..TestcaseResult::default()
    };
    assert_eq!(
        render_table1(&Coverage::evaluate(&fx.statics, &[legacy_run])),
        render_table1(&Coverage::evaluate(&fx.statics, &[fast_run])),
        "rendered coverage reports differ"
    );
}

#[cfg(not(feature = "fault-inject"))]
const CASES: u32 = 32;
#[cfg(feature = "fault-inject")]
const CASES: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Fault-injected logs over random synthetic clusters: both matchers
    /// agree byte-for-byte in both modes.
    #[test]
    fn automaton_matches_legacy_on_injected_faults(
        which in 0usize..3,
        plan in arb_plan(),
    ) {
        let fx = &fixtures()[which];
        let corrupted = FaultInjector::new(plan).corrupt_log(&fx.events);
        assert_matchers_equivalent(fx, &corrupted, MatchMode::Lenient);
        assert_matchers_equivalent(fx, &corrupted, MatchMode::Strict);
    }

    /// Subsumption-reduced tracking must reconstruct *byte-identical* raw
    /// results — exercised set, defs, warnings, quarantine count, coverage
    /// bitset and rendered Table I — versus full tracking, on
    /// fault-injected logs in both match modes. Faults matter here: a
    /// corrupted log can exercise a frontier association while every
    /// record of a statically-subsumed one was dropped, so the
    /// reconstruction must come from the dynamic seen-pair set, never from
    /// the static implication map.
    #[test]
    fn reduced_tracking_matches_full_on_injected_faults(
        which in 0usize..3,
        plan in arb_plan(),
    ) {
        let fx = &fixtures()[which];
        let corrupted = FaultInjector::new(plan).corrupt_log(&fx.events);
        let compact: Vec<CompactEvent> = corrupted
            .iter()
            .map(|e| CompactEvent::from_event(e, fx.full.interner()))
            .collect();
        for mode in [MatchMode::Lenient, MatchMode::Strict] {
            let (rf, bf) = fx.full.analyse_with_coverage(&compact, mode);
            let (rr, br) = fx.reduced.analyse_with_coverage(&compact, mode);
            prop_assert_eq!(&rr.exercised, &rf.exercised);
            prop_assert_eq!(&rr.defs_executed, &rf.defs_executed);
            prop_assert_eq!(&rr.warnings, &rf.warnings);
            prop_assert_eq!(rr.quarantined, rf.quarantined);
            prop_assert_eq!(&br, &bf, "coverage bitsets differ");

            let run = |r: systemc_ams_dft::dft::DynamicResult, bits| TestcaseResult {
                name: "TC".into(),
                exercised: r.exercised,
                defs_executed: r.defs_executed,
                warnings: r.warnings,
                exercised_idx: Some(bits),
                ..TestcaseResult::default()
            };
            prop_assert_eq!(
                render_table1(&Coverage::evaluate(&fx.statics, &[run(rr, br)])),
                render_table1(&Coverage::evaluate(&fx.statics, &[run(rf, bf)])),
                "rendered coverage reports differ"
            );
        }
    }

    /// Healthy logs are the common case; cover them explicitly too.
    #[test]
    fn automaton_matches_legacy_on_healthy_logs(which in 0usize..3) {
        let fx = &fixtures()[which];
        assert_matchers_equivalent(fx, &fx.events, MatchMode::Lenient);
        assert_matchers_equivalent(fx, &fx.events, MatchMode::Strict);
    }

    /// The streaming cursor fed one event at a time must be byte-identical
    /// to the buffered whole-log analysis — every result field, the
    /// coverage bitset and the rendered Table I — in both match modes,
    /// on fault-injected logs.
    #[test]
    fn cursor_streaming_matches_buffered_analysis(
        which in 0usize..3,
        plan in arb_plan(),
    ) {
        let fx = &fixtures()[which];
        let corrupted = FaultInjector::new(plan).corrupt_log(&fx.events);
        let compact: Vec<CompactEvent> = corrupted
            .iter()
            .map(|e| CompactEvent::from_event(e, fx.automaton.interner()))
            .collect();
        for mode in [MatchMode::Lenient, MatchMode::Strict] {
            let (buffered, buffered_bits) = fx.automaton.analyse_with_coverage(&compact, mode);
            let mut cursor = fx.automaton.cursor(mode);
            for ev in &compact {
                cursor.feed(ev);
            }
            prop_assert_eq!(cursor.events_fed(), compact.len() as u64);
            let (streamed, streamed_bits) = cursor.finish();
            prop_assert_eq!(&streamed.exercised, &buffered.exercised);
            prop_assert_eq!(&streamed.defs_executed, &buffered.defs_executed);
            prop_assert_eq!(&streamed.warnings, &buffered.warnings);
            prop_assert_eq!(streamed.quarantined, buffered.quarantined);
            prop_assert_eq!(&streamed_bits, &buffered_bits, "coverage bitsets differ");

            let run = |r: systemc_ams_dft::dft::DynamicResult, bits| TestcaseResult {
                name: "TC".into(),
                exercised: r.exercised,
                defs_executed: r.defs_executed,
                warnings: r.warnings,
                exercised_idx: Some(bits),
                ..TestcaseResult::default()
            };
            prop_assert_eq!(
                render_table1(&Coverage::evaluate(&fx.statics, &[run(streamed, streamed_bits)])),
                render_table1(&Coverage::evaluate(&fx.statics, &[run(buffered, buffered_bits)])),
                "rendered coverage reports differ"
            );
        }
    }
}

/// The batch pipeline renders identical reports whatever worker count it
/// is handed (1 and 4).
#[test]
fn session_reports_identical_across_thread_counts() {
    for length in [2usize, 5] {
        let mut outputs = Vec::new();
        for threads in [1usize, 4] {
            let spec = synthetic_chain(length, true);
            let design = spec.build_design().unwrap();
            let mut session = DftSession::new(design).unwrap();
            let specs: Vec<TestcaseSpec> = (0..3)
                .map(|i| {
                    TestcaseSpec::new(
                        format!("TC{i}"),
                        spec.build_cluster().unwrap(),
                        SimTime::from_us(40),
                    )
                })
                .collect();
            session.run_testcases_with_threads(specs, RunLimits::none(), threads);
            let warnings: usize = session.runs().iter().map(|r| r.warnings.len()).sum();
            outputs.push((render_table1(&session.coverage()), warnings));
        }
        assert_eq!(
            outputs[0], outputs[1],
            "chain{length} differs by thread count"
        );
    }
}

/// The streamed session at 1 and 4 matcher threads renders exactly what
/// the buffered strategy — now the test-side record-then-match oracle,
/// with reduced and with full tracking — renders for the same suite.
#[test]
fn session_strategies_identical_across_thread_counts() {
    for length in [2usize, 5] {
        let spec = synthetic_chain(length, true);
        let specs = || -> Vec<TestcaseSpec> {
            (0..3)
                .map(|i| {
                    TestcaseSpec::new(
                        format!("TC{i}"),
                        spec.build_cluster().unwrap(),
                        SimTime::from_us(40),
                    )
                })
                .collect()
        };
        let mut outputs = Vec::new();
        for threads in [1usize, 4] {
            let mut session = DftSession::new(spec.build_design().unwrap()).unwrap();
            session.run_testcases_with_threads(specs(), RunLimits::none(), threads);
            let warnings: usize = session.runs().iter().map(|r| r.warnings.len()).sum();
            outputs.push((render_table1(&session.coverage()), warnings));
        }
        let session = DftSession::new(spec.build_design().unwrap()).unwrap();
        for tracking in [Tracking::Reduced, Tracking::Full] {
            let automaton = oracle_automaton(&session, tracking);
            let runs: Vec<TestcaseResult> = specs()
                .into_iter()
                .map(|tc| oracle_run(&automaton, &[], &tc.name, tc.cluster, tc.duration))
                .collect();
            let warnings: usize = runs.iter().map(|r| r.warnings.len()).sum();
            let cov = Coverage::evaluate(session.static_analysis(), &runs);
            outputs.push((render_table1(&cov), warnings));
        }
        for o in &outputs[1..] {
            assert_eq!(
                &outputs[0], o,
                "chain{length} differs from the oracles or by thread count"
            );
        }
    }
}

/// Peak-memory gate for the streamed pipeline: every event flows through
/// the `match.streamed_events` counter instead of a materialized log.
/// (The counter is process-global and tests run concurrently, so the
/// assertion is a strict increase, not an exact delta.)
#[test]
fn streamed_sessions_materialize_no_log() {
    let was_on = obs::metrics_enabled();
    obs::set_metrics_enabled(true);

    let spec = synthetic_chain(3, true);
    let mut session = DftSession::new(spec.build_design().unwrap()).unwrap();
    let before = obs::MetricsReport::capture().counter("match.streamed_events");
    session
        .run_testcase(
            "TC_stream",
            spec.build_cluster().unwrap(),
            SimTime::from_us(50),
        )
        .unwrap();
    let after = obs::MetricsReport::capture().counter("match.streamed_events");
    obs::set_metrics_enabled(was_on);
    assert!(
        after > before,
        "every streamed event must tick match.streamed_events ({before} -> {after})"
    );
}
