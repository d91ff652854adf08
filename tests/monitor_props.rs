//! Property-based tests for the streaming assertion monitor:
//!
//! * a compiled [`MonitorBank`] is total — arbitrary assertion trees fed
//!   arbitrary (even non-monotone) sample soup never panic and always
//!   yield exactly one verdict per assertion, in spec order;
//! * streamed session verdicts at 1/4 threads are byte-identical to the
//!   buffered strategy, now the test-side record-then-match oracle
//!   (`tests/support`): simulation is always sequential, so the monitor
//!   sees the same stream whichever way it is consumed;
//! * sessions without assertions behave byte-identically to sessions
//!   that never heard of the monitor.

mod support;

use proptest::prelude::*;

use stimuli::{Signal, Testcase};
use support::{oracle_automaton, oracle_run};
use systemc_ams_dft::dft::{
    render_table1, render_verdicts, verdicts_to_csv, DftSession, SessionConfig, TestcaseSpec,
    Tracking,
};
use systemc_ams_dft::models::pid::{build_pid_cluster, pid_assertions, pid_design, PidTuning, REF};
use systemc_ams_dft::monitor::{AssertionExpr, AssertionSpec, MonitorBank, SignalPred};
use systemc_ams_dft::sim::{Interner, Sample, SimTime, Value};

const SIGNALS: [&str; 3] = ["a.op_x", "b.op_y", "ghost.op_z"];

fn arb_pred() -> impl Strategy<Value = SignalPred> {
    prop_oneof![
        (-50.0f64..50.0).prop_map(SignalPred::Above),
        (-50.0f64..50.0).prop_map(SignalPred::Below),
        ((-50.0f64..50.0), (0.0f64..10.0))
            .prop_map(|(center, epsilon)| SignalPred::InBand { center, epsilon }),
    ]
}

fn arb_signal() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(SIGNALS[0].to_owned()),
        Just(SIGNALS[1].to_owned()),
        Just(SIGNALS[2].to_owned()),
    ]
}

fn arb_time() -> impl Strategy<Value = SimTime> {
    (0u64..200).prop_map(SimTime::from_us)
}

fn arb_leaf() -> BoxedStrategy<AssertionExpr> {
    prop_oneof![
        (arb_signal(), -50.0f64..50.0, 0.0f64..5.0)
            .prop_map(|(s, level, h)| { AssertionExpr::never_above(s, level).with_hysteresis(h) }),
        (arb_signal(), -50.0f64..50.0).prop_map(|(s, level)| AssertionExpr::never_below(s, level)),
        (
            arb_signal(),
            -50.0f64..50.0,
            0.0f64..10.0,
            arb_time(),
            arb_time()
        )
            .prop_map(|(s, target, eps, window, deadline)| {
                AssertionExpr::settles_by(s, target, eps, window, deadline)
            }),
        (arb_signal(), arb_pred(), 0u32..4, arb_time())
            .prop_map(|(s, p, n, w)| AssertionExpr::recurs_at_least(s, p, n, w)),
        (arb_signal(), arb_pred(), 0u32..4, arb_time())
            .prop_map(|(s, p, n, w)| AssertionExpr::recurs_at_most(s, p, n, w)),
        (
            arb_signal(),
            arb_pred(),
            arb_signal(),
            arb_pred(),
            arb_time()
        )
            .prop_map(|(ts, t, rs, r, w)| AssertionExpr::responds_within(ts, t, rs, r, w)),
    ]
    .boxed()
}

/// Two levels of combinators over arbitrary leaves (the compiler caps
/// depth at 16; adversarial *breadth* is what matters here).
fn arb_expr() -> BoxedStrategy<AssertionExpr> {
    let nested = prop_oneof![
        arb_leaf(),
        prop::collection::vec(arb_leaf(), 1..4).prop_map(AssertionExpr::all_of),
        prop::collection::vec(arb_leaf(), 1..4).prop_map(AssertionExpr::any_of),
        arb_leaf().prop_map(AssertionExpr::negate),
    ]
    .boxed();
    prop_oneof![
        nested.clone(),
        prop::collection::vec(nested.clone(), 1..4).prop_map(AssertionExpr::all_of),
        prop::collection::vec(nested.clone(), 1..4).prop_map(AssertionExpr::any_of),
        nested.prop_map(AssertionExpr::negate),
    ]
    .boxed()
}

/// A trace step: femtosecond timestamp (not necessarily monotone), a
/// signal index, and a value (`None` = undefined sample).
fn arb_trace() -> impl Strategy<Value = Vec<(u64, usize, Option<f64>)>> {
    prop::collection::vec(
        (
            0u64..300_000_000_000,
            0usize..SIGNALS.len(),
            prop_oneof![Just(None), (-100.0f64..100.0).prop_map(Some),],
        ),
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Totality: any assertion forest over any sample soup — including
    /// time going backwards and undefined samples — finalizes to exactly
    /// one verdict per assertion, in spec order, degraded or not.
    #[test]
    fn bank_is_total_on_adversarial_traces(
        exprs in prop::collection::vec(arb_expr(), 1..5),
        trace in arb_trace(),
        end in 0u64..400_000_000_000,
        degraded in any::<bool>(),
    ) {
        let interner = Interner::default();
        let syms: Vec<_> = SIGNALS.iter().map(|s| interner.intern(s)).collect();
        let specs: Vec<AssertionSpec> = exprs
            .into_iter()
            .enumerate()
            .map(|(i, e)| AssertionSpec::new(format!("p{i}"), e))
            .collect();
        let mut bank = MonitorBank::compile(&specs, &interner);
        for (fs, sig, value) in &trace {
            let sample = match value {
                Some(v) => Sample::new(Value::Double(*v)),
                None => Sample::undefined(),
            };
            bank.observe(SimTime::from_fs(*fs), syms[*sig], &sample);
        }
        let verdicts = bank.finalize(SimTime::from_fs(end), degraded);
        prop_assert_eq!(verdicts.len(), specs.len());
        for (v, s) in verdicts.iter().zip(&specs) {
            prop_assert_eq!(&v.name, &s.name);
        }
    }

    /// The worker count never touches the verdicts, and neither does
    /// streaming: the session at 1 and 4 threads and the buffered
    /// record-then-match oracle produce byte-identical verdict CSVs on
    /// the PID loop, nominal or fault-injected.
    #[test]
    fn verdicts_identical_across_threads_and_strategies(
        level in 2.0f64..18.0,
        detuned in any::<bool>(),
    ) {
        let tuning = if detuned { PidTuning::detuned() } else { PidTuning::nominal() };
        let tc = Testcase::new("prop", SimTime::from_ms(10)).with(REF, Signal::Constant(level));
        let mut csvs = Vec::new();
        for threads in [1usize, 4] {
            let config = SessionConfig::default().with_threads(threads);
            let mut session =
                DftSession::with_config(pid_design().unwrap(), config).unwrap()
                    .with_assertions(pid_assertions());
            let (cluster, _) = build_pid_cluster(&tc, tuning).unwrap();
            let _ = session.run_testcases(vec![TestcaseSpec::new(
                &tc.name, cluster, tc.duration,
            )]);
            csvs.push(verdicts_to_csv(session.runs()));
        }
        let session = DftSession::new(pid_design().unwrap()).unwrap();
        let automaton = oracle_automaton(&session, Tracking::Reduced);
        let (cluster, _) = build_pid_cluster(&tc, tuning).unwrap();
        let oracle = oracle_run(&automaton, &pid_assertions(), &tc.name, cluster, tc.duration);
        csvs.push(verdicts_to_csv(&[oracle]));
        for other in &csvs[1..] {
            prop_assert_eq!(&csvs[0], other, "verdicts diverged across configs");
        }
    }

    /// No assertions, no change: a session holding an empty assertion
    /// set reports coverage and renders byte-identically to one that was
    /// never given any, and carries zero verdicts.
    #[test]
    fn sessions_without_assertions_are_untouched(level in 2.0f64..18.0) {
        let tc = Testcase::new("plain", SimTime::from_ms(10)).with(REF, Signal::Constant(level));
        let run = |assertions: Option<Vec<AssertionSpec>>| {
            let mut session = DftSession::new(pid_design().unwrap()).unwrap();
            if let Some(a) = assertions {
                session.set_assertions(a);
            }
            let (cluster, _) = build_pid_cluster(&tc, PidTuning::nominal()).unwrap();
            session.run_testcase(&tc.name, cluster, tc.duration).unwrap();
            (
                render_table1(&session.coverage()),
                render_verdicts(session.runs()),
                session.runs()[0].verdicts.len(),
            )
        };
        let bare = run(None);
        let empty = run(Some(Vec::new()));
        let monitored = run(Some(pid_assertions()));
        prop_assert_eq!(&bare, &empty);
        prop_assert_eq!(&bare.0, &monitored.0, "monitoring must not move coverage");
        prop_assert_eq!(&bare.1, "", "no assertions, no verdict section");
        prop_assert_eq!(bare.2, 0);
    }
}
