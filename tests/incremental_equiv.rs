//! Property-based equivalence gate for incremental re-analysis: on random
//! single- and multi-model edits of synthetic chains, a
//! [`SessionArtifacts::build_incremental`] splice against the pre-edit
//! build must produce **byte-identical** results to a cold
//! [`SessionArtifacts::build_with`] of the edited design — the full
//! [`StaticAnalysis`] (associations, lints, subsumption mapping), the
//! rendered Table I / Table II bodies and the subsumption report — at 1
//! and 4 analysis threads, on a simulated testcase. The rendered reports
//! must also equal the full-tracking record-then-match oracle
//! (`tests/support`).

mod support;

use proptest::prelude::*;

use support::{oracle_automaton, oracle_run};
use systemc_ams_dft::dft::synth::{synthetic_chain, SynthSpec};
use systemc_ams_dft::dft::{
    render_subsumption, render_table1, render_table2, Coverage, DftSession, SessionArtifacts,
    SessionConfig, StaticAnalysis, Table2Row, Tracking,
};
use systemc_ams_dft::sim::SimTime;

/// One model body, parameterised by the input multiplier and branch
/// threshold an "edit" changes. Line-count preserving, so an edit to one
/// model leaves every other model's spans (and hence content hashes)
/// untouched — the shape of a real one-model source edit.
fn body(i: usize, mult: u32, thr: u32) -> String {
    format!(
        "void m{i}::processing()\n\
         {{\n\
             double x = ip_in * {mult};\n\
             double acc = 0;\n\
             if (x > {thr}) {{ acc = x; }}\n\
             m_state = m_state + acc;\n\
             if (m_state > 100) {{ m_state = 0; }}\n\
             op_out = acc + m_state;\n\
         }}\n"
    )
}

/// A chain spec whose source is regenerated with per-model edit
/// parameters; un-edited models get the base body (`* 2`, `> 1`).
fn chain_with(length: usize, gains: bool, edits: &[(usize, u32, u32)]) -> SynthSpec {
    let mut spec = synthetic_chain(length, gains);
    let mut source = String::new();
    for i in 0..length {
        let (mult, thr) = edits
            .iter()
            .find(|(j, _, _)| *j == i)
            .map(|&(_, m, t)| (m, t))
            .unwrap_or((2, 1));
        source.push_str(&body(i, mult, thr));
    }
    spec.source = source;
    spec
}

/// Renders everything a client can observe from one artifacts + one
/// simulated testcase: Table I, Table II and the subsumption report. With
/// `oracle` set, the testcase runs through the full-tracking
/// record-then-match oracle instead of the session.
fn observable(
    artifacts: std::sync::Arc<SessionArtifacts>,
    spec: &SynthSpec,
    config: &SessionConfig,
    oracle: bool,
) -> String {
    let mut session = DftSession::from_artifacts(artifacts, *config);
    let cluster = spec.build_cluster().unwrap();
    let duration = SimTime::from_us(50);
    let cov = if oracle {
        let automaton = oracle_automaton(&session, Tracking::Full);
        let run = oracle_run(&automaton, &[], "tc", cluster, duration);
        Coverage::evaluate(session.static_analysis(), &[run])
    } else {
        session.run_testcase("tc", cluster, duration).unwrap();
        session.coverage()
    };
    render(session.static_analysis(), &cov)
}

fn render(statics: &StaticAnalysis, cov: &Coverage) -> String {
    let row = Table2Row::from_coverage("synth", 0, 1, cov);
    format!(
        "{}\n{}\n{}",
        render_table1(cov),
        render_table2(&[row]),
        render_subsumption(statics, cov)
    )
}

fn arb_case() -> impl Strategy<Value = (usize, bool, Vec<(usize, u32, u32)>)> {
    // Edit indices are drawn over the widest chain and folded into range
    // with a modulo (the vendored proptest has no flat-map). Edited
    // multipliers start at 3, so every edit really changes the model (the
    // base body multiplies by 2).
    (
        2usize..5,
        any::<bool>(),
        prop::collection::vec((0usize..8, 3u32..9, 0u32..5), 1..=3),
    )
        .prop_map(|(len, gains, raw)| {
            let edits = raw
                .into_iter()
                .map(|(i, m, t)| (i % len, m, t))
                .collect::<Vec<_>>();
            (len, gains, edits)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The gate: cold build of the edited design == incremental splice
    /// from the pre-edit build == full-tracking oracle, at 1 and 4
    /// threads.
    #[test]
    fn incremental_rebuild_is_byte_identical_to_cold(case in arb_case()) {
        let (length, gains, edits) = case;
        let base = chain_with(length, gains, &[]);
        let edited = chain_with(length, gains, &edits);
        let mut edited_models: Vec<usize> =
            edits.iter().map(|&(i, _, _)| i).collect();
        edited_models.sort_unstable();
        edited_models.dedup();

        for threads in [1usize, 4] {
            let cold_config = SessionConfig::from_env()
                .with_threads(threads)
                .with_incremental(false);
            let incr_config = cold_config.with_incremental(true);

            let prev = SessionArtifacts::build_with(base.build_design().unwrap(), &incr_config);
            let cold = SessionArtifacts::build_with(edited.build_design().unwrap(), &cold_config);
            let incr = SessionArtifacts::build_incremental(
                edited.build_design().unwrap(),
                &prev,
                &incr_config,
            );

            prop_assert_eq!(
                cold.static_analysis(),
                incr.static_analysis(),
                "statics diverged (threads={})",
                threads
            );
            // Unchanged models must splice from `prev` (the global model
            // cache can only lower the count further).
            prop_assert!(
                incr.models_rebuilt() <= edited_models.len(),
                "rebuilt {} models for {} edits",
                incr.models_rebuilt(),
                edited_models.len()
            );

            // Rendered reports through a simulated testcase.
            let want = observable(cold.clone(), &edited, &incr_config, false);
            prop_assert_eq!(
                &want,
                &observable(incr.clone(), &edited, &incr_config, false),
                "incremental reports diverged (threads={})",
                threads
            );
            prop_assert_eq!(
                &want,
                &observable(incr, &edited, &incr_config, true),
                "reports diverged from the full-tracking oracle (threads={})",
                threads
            );
        }
    }

    /// Re-analysing an *unchanged* design against its own build rebuilds
    /// nothing and still reproduces the cold analysis exactly.
    #[test]
    fn noop_edit_splices_everything(
        length in 2usize..6,
        gains in any::<bool>(),
        four_threads in any::<bool>(),
    ) {
        let threads = if four_threads { 4usize } else { 1 };
        let spec = chain_with(length, gains, &[]);
        let cold_config = SessionConfig::from_env()
            .with_threads(threads)
            .with_incremental(false);
        let incr_config = cold_config.with_incremental(true);
        // A cold build still records fingerprints, so it seeds a later
        // incremental build like any other.
        let prev = SessionArtifacts::build_with(spec.build_design().unwrap(), &cold_config);
        let incr =
            SessionArtifacts::build_incremental(spec.build_design().unwrap(), &prev, &incr_config);
        prop_assert_eq!(incr.models_rebuilt(), 0);
        prop_assert_eq!(prev.static_analysis(), incr.static_analysis());
    }
}
