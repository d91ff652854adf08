//! Byte-identity gate for the session's single execution path on the four
//! case studies (sensor, window lifter, buck-boost, PID loop): every
//! streamed, frontier-tracking session run must equal the test-side
//! record-then-match oracle with reduced *and* with full tracking
//! (`tests/support`) — per-run results, verdicts, Table I, the summary
//! and the coverage and verdict CSV exports.

mod support;

use support::{oracle_automaton, oracle_run};
use systemc_ams_dft::dft::{
    coverage_to_csv, render_summary, render_table1, verdicts_to_csv, AssertionSpec, Coverage,
    Design, DftSession, TestcaseResult, TestcaseSpec, Tracking,
};
use systemc_ams_dft::models::{buck_boost, pid, sensor, window_lifter};
use systemc_ams_dft::signals::Testcase;
use systemc_ams_dft::sim::Cluster;

struct Study {
    name: &'static str,
    design: Design,
    suite: Vec<Testcase>,
    build: Box<dyn Fn(&Testcase) -> Cluster>,
    assertions: Vec<AssertionSpec>,
}

fn studies() -> Vec<Study> {
    vec![
        Study {
            name: "sensor",
            design: sensor::sensor_design(sensor::BUGGY_ADC_FULL_SCALE).unwrap(),
            suite: sensor::sensor_testcases(),
            build: Box::new(|tc| {
                sensor::build_sensor_cluster(tc, sensor::BUGGY_ADC_FULL_SCALE)
                    .unwrap()
                    .0
            }),
            assertions: Vec::new(),
        },
        Study {
            name: "window_lifter",
            design: window_lifter::lifter_design().unwrap(),
            suite: window_lifter::lifter_suite().up_to(0).to_vec(),
            build: Box::new(|tc| window_lifter::build_lifter_cluster(tc).unwrap().0),
            assertions: Vec::new(),
        },
        Study {
            name: "buck_boost",
            design: buck_boost::bb_design().unwrap(),
            suite: buck_boost::bb_suite().up_to(0).to_vec(),
            build: Box::new(|tc| buck_boost::build_bb_cluster(tc).unwrap().0),
            assertions: Vec::new(),
        },
        Study {
            name: "pid",
            design: pid::pid_design().unwrap(),
            suite: pid::pid_testcases(),
            build: Box::new(|tc| {
                pid::build_pid_cluster(tc, pid::PidTuning::nominal())
                    .unwrap()
                    .0
            }),
            assertions: pid::pid_assertions(),
        },
    ]
}

/// Everything a report shows about one set of runs.
fn rendered(session: &DftSession, runs: &[TestcaseResult]) -> [String; 4] {
    let cov = Coverage::evaluate(session.static_analysis(), runs);
    [
        render_table1(&cov),
        render_summary(&cov),
        coverage_to_csv(&cov),
        verdicts_to_csv(runs),
    ]
}

#[test]
fn session_reports_equal_the_oracles_on_case_studies() {
    for study in studies() {
        let mut session = DftSession::new(study.design)
            .unwrap()
            .with_assertions(study.assertions.clone());
        let oracles = [Tracking::Reduced, Tracking::Full].map(|t| oracle_automaton(&session, t));
        let specs = study
            .suite
            .iter()
            .map(|tc| TestcaseSpec::new(&tc.name, (study.build)(tc), tc.duration))
            .collect();
        session.run_testcases(specs).unwrap();
        let got = rendered(&session, session.runs());
        for (automaton, tracking) in oracles.iter().zip(["reduced", "full"]) {
            let runs: Vec<TestcaseResult> = study
                .suite
                .iter()
                .map(|tc| {
                    let cluster = (study.build)(tc);
                    oracle_run(automaton, &study.assertions, &tc.name, cluster, tc.duration)
                })
                .collect();
            for (run, want) in session.runs().iter().zip(&runs) {
                let at = format!("{}/{} vs {tracking} oracle", study.name, run.name);
                assert!(!run.outcome.is_degraded(), "{at}: {:?}", run.outcome);
                assert_eq!(run.exercised, want.exercised, "{at}");
                assert_eq!(run.defs_executed, want.defs_executed, "{at}");
                assert_eq!(run.warnings, want.warnings, "{at}");
                assert_eq!(run.exercised_idx, want.exercised_idx, "{at}");
                assert_eq!(run.verdicts, want.verdicts, "{at}");
            }
            assert_eq!(
                got,
                rendered(&session, &runs),
                "{}: reports differ from the {tracking} oracle",
                study.name
            );
        }
    }
}
