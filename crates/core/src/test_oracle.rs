//! Test-side oracles for the session's single execution path: the
//! record-then-match pipeline (a plain [`Simulator`] recording the whole
//! compact log, matched afterwards by
//! [`MatchAutomaton::analyse_with_coverage`]) with any [`Tracking`].
//! Session reports must equal it byte for byte.

use std::sync::Arc;

use dft_monitor::{AssertionSpec, MonitorBank, MonitorSink};
use tdf_sim::{Cluster, CompactRecordingSink, SimTime, Simulator};

use crate::coverage::{RunOutcome, TestcaseResult};
use crate::dynamic::MatchMode;
use crate::matcher::{MatchAutomaton, Tracking};
use crate::session::DftSession;

/// The oracle automaton for `session`'s artifacts. Build it before
/// the session runs anything, so ghost names interned by faulty runs
/// land above its frozen id space exactly as they do for the
/// session's own automaton.
pub(crate) fn oracle_automaton(session: &DftSession, tracking: Tracking) -> MatchAutomaton {
    MatchAutomaton::with_tracking(session.design(), session.static_analysis(), tracking)
}

/// The record-then-match oracle: a plain [`Simulator`] records the
/// whole compact log (and feeds `assertions`, if any), then
/// `automaton` matches it in one call.
pub(crate) fn oracle(
    automaton: &MatchAutomaton,
    assertions: &[AssertionSpec],
    name: &str,
    mut cluster: Cluster,
    duration: SimTime,
) -> TestcaseResult {
    let interner = automaton.interner();
    cluster.set_interner(Arc::clone(interner));
    let mut sim = Simulator::new(cluster).unwrap();
    let mut sink = CompactRecordingSink::new(Arc::clone(interner));
    let mut bank = MonitorBank::compile(assertions, interner);
    sim.run(duration, &mut MonitorSink::new(&mut sink, &mut bank))
        .unwrap();
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
