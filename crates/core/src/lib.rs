//! # dft-core — data flow testing for SystemC-AMS TDF models
//!
//! Reproduction of the core contribution of *"Data Flow Testing for
//! SystemC-AMS Timed Data Flow Models"* (DATE 2019): TDF-specific def-use
//! coverage, computed automatically from a combination of static and
//! dynamic analysis.
//!
//! The pipeline mirrors Fig. 3 of the paper:
//!
//! 1. **Static analysis** ([`analyse`]) — over the minic sources and the
//!    cluster binding information, computing every def-use association
//!    `(v, d, dm, u, um)` and classifying it **Strong**, **Firm**,
//!    **PFirm** or **PWeak** ([`Classification`]).
//! 2. **Dynamic analysis** ([`analyse_events`]) — per testcase, matching
//!    the instrumentation event log (from `tdf-interp`) into *exercised*
//!    associations, and flagging uses without definitions.
//! 3. **Coverage evaluation** ([`Coverage`]) — combining both into
//!    per-class ratios and the adequacy criteria `all-Strong`, `all-Firm`,
//!    `all-PFirm`, `all-PWeak`, `all-defs` and `all-dataflow`
//!    ([`Criterion`]).
//!
//! [`DftSession`] drives all three stages; [`render_table1`] /
//! [`render_table2`] regenerate the paper's tables.

#![warn(missing_docs)]

mod assoc;
mod classical;
mod coverage;
mod design;
mod dynamic;
mod error;
mod explain;
mod export;
mod fx;
mod matcher;
mod par;
mod report;
mod session;
mod statics;
pub mod synth;
#[cfg(test)]
mod test_oracle;

pub use assoc::{Association, Classification, ClassifiedAssoc};
pub use classical::classical_pairs;
pub use coverage::{Coverage, Criterion, RunOutcome, TestcaseResult, UncoveredReason};
pub use dataflow::BitSet;
pub use design::Design;
pub use dft_monitor::{
    AssertionExpr, AssertionSpec, AssertionVerdict, CountBound, MonitorBank, MonitorSink,
    SignalPred, ThresholdKind, Verdict,
};
pub use dynamic::{
    analyse_events, analyse_events_batch, analyse_events_batch_with_mode, analyse_events_with_mode,
    DynamicResult, DynamicWarning, MatchMode,
};
pub use error::{DftError, Result};
pub use explain::explain_association;
pub use export::{
    associations_to_csv, coverage_to_csv, diagnosis_to_csv, subsumption_to_csv, verdicts_to_csv,
};
pub use matcher::{MatchAutomaton, MatchCursor, Tracking};
pub use obs::{self, MetricsReport, TimerStat};
pub use par::thread_count;
pub use report::{
    render_subsumption, render_summary, render_table1, render_table2, render_verdicts, Table2Row,
};
pub use session::{
    DftSession, RetryAttempt, RetryPolicy, RetryReport, SessionArtifacts, SessionConfig,
    TestcaseSpec,
};
pub use statics::{analyse, analyse_with_threads, StaticAnalysis, StaticLint, SubsumptionInfo};
