//! Test-side oracles for the session's single execution path.
//!
//! A [`DftSession`] streams every testcase through one panic-isolated,
//! frontier-tracking simulate pass. The alternatives it replaced survive
//! here, as the references its reports must equal byte for byte:
//!
//! * **record-then-match** — a plain [`Simulator`] records the whole
//!   compact event log, then [`MatchAutomaton::analyse_with_coverage`]
//!   matches it in one call;
//! * **full tracking** — the same, with a [`Tracking::Full`] automaton
//!   (every association row tracked, no subsumption reduction).

#![allow(dead_code)]

use std::sync::Arc;

use systemc_ams_dft::dft::{
    DftSession, MatchAutomaton, MatchMode, RunOutcome, TestcaseResult, Tracking,
};
use systemc_ams_dft::monitor::{AssertionSpec, MonitorBank, MonitorSink};
use systemc_ams_dft::sim::{Cluster, CompactRecordingSink, SimTime, Simulator};

/// The oracle automaton for `session`'s artifacts. Build it before the
/// session runs anything, so ghost names interned by faulty runs land
/// above its frozen id space exactly as they do for the session's own
/// automaton.
pub fn oracle_automaton(session: &DftSession, tracking: Tracking) -> MatchAutomaton {
    MatchAutomaton::with_tracking(session.design(), session.static_analysis(), tracking)
}

/// Runs one testcase through the record-then-match oracle: simulate
/// `cluster` for `duration` into a compact log (feeding `assertions`, if
/// any, from the same pass), then match the log with `automaton`.
///
/// # Panics
///
/// Panics if the cluster does not elaborate or simulate cleanly — the
/// oracle is only defined for healthy runs.
pub fn oracle_run(
    automaton: &MatchAutomaton,
    assertions: &[AssertionSpec],
    name: &str,
    mut cluster: Cluster,
    duration: SimTime,
) -> TestcaseResult {
    let interner = automaton.interner();
    cluster.set_interner(Arc::clone(interner));
    let mut sim = Simulator::new(cluster).expect("oracle cluster elaborates");
    let mut sink = CompactRecordingSink::new(Arc::clone(interner));
    let mut bank = MonitorBank::compile(assertions, interner);
    sim.run(duration, &mut MonitorSink::new(&mut sink, &mut bank))
        .expect("oracle run simulates");
    let (r, bits) = automaton.analyse_with_coverage(&sink.events, MatchMode::Lenient);
    let verdicts = if assertions.is_empty() {
        Vec::new()
    } else {
        bank.finalize(duration, false)
    };
    TestcaseResult {
        name: name.to_owned(),
        exercised: r.exercised,
        defs_executed: r.defs_executed,
        warnings: r.warnings,
        outcome: RunOutcome::Ok,
        exercised_idx: Some(bits),
        verdicts,
    }
}
