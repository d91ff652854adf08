//! The three-stage DFT session of Fig. 3: static analysis once, then
//! dynamic analysis per testcase, then coverage evaluation — with the
//! uncovered-association work list driving the "tests addition" loop.
//!
//! The dynamic stage has exactly one execution path: every testcase —
//! a [`DftSession::run_testcase`] call is a batch of one — is elaborated
//! and simulated under `catch_unwind`, with a
//! [`MatchCursor`](crate::MatchCursor) riding the simulation through a
//! [`MatchingSink`], so events are matched as the kernel produces them
//! and no per-testcase log is ever materialized.
//! Peak memory is O(automaton state), which is what unlocks
//! long-/infinite-horizon runs. The automaton always tracks the
//! unsubsumed frontier ([`Tracking::Reduced`]).
//!
//! The equivalence oracles live in tests, not in production modes: a
//! plain [`Simulator`] recording into a
//! [`CompactRecordingSink`](tdf_sim::CompactRecordingSink) and matched
//! with [`MatchAutomaton::analyse_with_coverage`] (record-then-match),
//! and a [`Tracking::Full`] automaton. Session reports are gated
//! byte-identical to both in this module's tests, `tests/match_equiv.rs`,
//! `tests/incremental_equiv.rs`, `tests/monitor_props.rs` and
//! `tests/session_oracle.rs`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dft_monitor::{AssertionSpec, MonitorBank, MonitorSink};
use obs::MetricsReport;
use tdf_sim::{Cluster, EventSink, MatchingSink, RunLimits, SimTime, Simulator, TdfError};

use crate::coverage::{Coverage, RunOutcome, TestcaseResult};
use crate::design::Design;
use crate::dynamic::MatchMode;
use crate::error::{panic_payload_str, DftError, Result};
use crate::matcher::{MatchAutomaton, Tracking};
use crate::statics::{analyse_build, ModelArtifactCache, StaticAnalysis, StaticBuild};

/// All pipeline knobs of one session, resolved **once** at construction.
///
/// The only environment variable read is `DFT_THREADS`, exactly once, by
/// [`SessionConfig::from_env`]; nothing on a session's hot path touches
/// the environment afterwards. That makes per-request runs immune to
/// concurrent `set_var` races and lets a multi-tenant embedder (e.g.
/// `dft-serve`) give every request its own knob set over the same shared
/// artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Worker count for the static-analysis fan-out (the `DFT_THREADS`
    /// knob; reports are byte-identical for every value).
    pub threads: usize,
    /// Whether the static stage may memoize per-model artifacts:
    /// unchanged models resolve from the process-wide model-artifact
    /// cache — and, on [`SessionArtifacts::build_incremental`], from the
    /// previous build — instead of recomputing. An artifact-build-time
    /// knob; reports are byte-identical either way, and `false` runs the
    /// same code with no cache and no previous build (a cold build).
    pub incremental: bool,
}

impl SessionConfig {
    /// Resolves the worker count from the environment, with memoization
    /// on — the configuration [`DftSession::new`] uses.
    pub fn from_env() -> SessionConfig {
        SessionConfig {
            threads: crate::thread_count(),
            incremental: true,
        }
    }

    /// Overrides the worker count (builder style).
    pub fn with_threads(mut self, threads: usize) -> SessionConfig {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the incremental-memoization policy (builder style).
    pub fn with_incremental(mut self, incremental: bool) -> SessionConfig {
        self.incremental = incremental;
        self
    }
}

impl Default for SessionConfig {
    /// Defaults to [`SessionConfig::from_env`] — the documented behaviour
    /// of a plain [`DftSession::new`].
    fn default() -> SessionConfig {
        SessionConfig::from_env()
    }
}

/// The frozen, immutable product of the static pipeline stage: the
/// [`Design`] (with its interner), the [`StaticAnalysis`] and the prebuilt
/// [`MatchAutomaton`]. Everything in here is read-only after construction
/// and `Sync`, so one `Arc<SessionArtifacts>` can back any number of
/// concurrent [`DftSession`]s — this is the unit a warm artifact cache
/// (e.g. `dft-serve`'s content-hash cache) stores, letting repeat analyses
/// of the same design skip elaboration and static analysis entirely.
#[derive(Debug)]
pub struct SessionArtifacts {
    design: Design,
    statics: StaticAnalysis,
    automaton: MatchAutomaton,
    /// Per-model decomposition of the static stage, retained so a later
    /// [`SessionArtifacts::build_incremental`] can splice every unchanged
    /// model instead of recomputing it.
    static_build: StaticBuild,
    models_rebuilt: usize,
}

impl SessionArtifacts {
    /// Runs the static stage and freezes the artifacts with the
    /// environment-resolved configuration.
    pub fn build(design: Design) -> Arc<SessionArtifacts> {
        Self::build_with(design, &SessionConfig::from_env())
    }

    /// Runs the static stage on `config.threads` workers and freezes the
    /// artifacts.
    pub fn build_with(design: Design, config: &SessionConfig) -> Arc<SessionArtifacts> {
        Self::assemble(design, None, config)
    }

    /// Like [`SessionArtifacts::build_with`], but diffs `design`'s
    /// per-model content hashes against `prev` (a frozen build of an
    /// earlier revision, typically of the same design family) and splices
    /// every unchanged model's static artifact — and every cluster unit
    /// whose inputs are unchanged — into the fresh [`StaticAnalysis`] and
    /// [`MatchAutomaton`]. The result is byte-identical to a cold
    /// [`SessionArtifacts::build_with`] of the same design; only the work
    /// spent differs. With `config.incremental == false` `prev` is not
    /// consulted, so this *is* the cold build.
    pub fn build_incremental(
        design: Design,
        prev: &SessionArtifacts,
        config: &SessionConfig,
    ) -> Arc<SessionArtifacts> {
        Self::assemble(design, Some(prev), config)
    }

    fn assemble(
        design: Design,
        prev: Option<&SessionArtifacts>,
        config: &SessionConfig,
    ) -> Arc<SessionArtifacts> {
        let cache = config.incremental.then(ModelArtifactCache::global);
        let prev_build = prev.filter(|_| config.incremental).map(|p| &p.static_build);
        let outcome = analyse_build(&design, config.threads, cache, prev_build);
        let automaton =
            MatchAutomaton::with_tracking(&design, &outcome.analysis, Tracking::Reduced);
        Arc::new(SessionArtifacts {
            design,
            statics: outcome.analysis,
            automaton,
            static_build: outcome.build,
            models_rebuilt: outcome.models_rebuilt,
        })
    }

    /// The design under verification.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The static-stage result (associations + lints).
    pub fn static_analysis(&self) -> &StaticAnalysis {
        &self.statics
    }

    /// The [`Tracking`] policy the automaton was built with — always
    /// [`Tracking::Reduced`]; [`Tracking::Full`] survives only as a test
    /// oracle.
    pub fn tracking(&self) -> Tracking {
        Tracking::Reduced
    }

    /// How many user models the static stage actually recomputed when
    /// these artifacts were built (the rest were spliced from the
    /// process-wide model cache or a previous build).
    pub fn models_rebuilt(&self) -> usize {
        self.models_rebuilt
    }

    /// Number of user models in the design.
    pub fn model_count(&self) -> usize {
        self.static_build.model_count()
    }

    /// Re-runs only the static stage of an edited `design` against these
    /// artifacts, without building a match automaton. Returns the fresh
    /// analysis and how many models were actually recomputed. This is the
    /// measurement target for the incremental-vs-cold benchmark: it
    /// isolates exactly the work [`build_incremental`] saves, independent
    /// of design construction and automaton cost.
    ///
    /// [`build_incremental`]: SessionArtifacts::build_incremental
    pub fn reanalyse(&self, design: &Design, config: &SessionConfig) -> (StaticAnalysis, usize) {
        let cache = config.incremental.then(ModelArtifactCache::global);
        let prev_build = config.incremental.then_some(&self.static_build);
        let outcome = analyse_build(design, config.threads, cache, prev_build);
        (outcome.analysis, outcome.models_rebuilt)
    }
}

/// Exponential-backoff retry policy for the per-testcase supervisor
/// ([`DftSession::run_testcase_retrying`]): transient failures —
/// [`RunOutcome::Panicked`] and [`RunOutcome::TimedOut`] — are rerun up to
/// [`max_retries`] times with escalating budgets, while
/// [`RunOutcome::Failed`] (a deterministic elaboration/simulation error)
/// is permanent immediately.
///
/// [`max_retries`]: RetryPolicy::max_retries
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reruns after the first attempt (0 = never retry).
    pub max_retries: u32,
    /// Backoff slept before the first retry.
    pub backoff_base: Duration,
    /// Backoff multiplier per further retry (`base`, `base·m`, `base·m²`…).
    pub backoff_multiplier: u32,
    /// Factor applied to every finite [`RunLimits`] budget (activations,
    /// events, wall) per retry, so a run that timed out under a tight
    /// budget gets escalating headroom. Absolute deadlines are *not*
    /// escalated — a served request's deadline stays authoritative.
    pub budget_escalation: u32,
    /// Whether the supervisor actually sleeps its backoffs. Tests disable
    /// this and assert on the recorded schedule instead.
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_multiplier: 2,
            budget_escalation: 2,
            sleep: true,
        }
    }
}

impl RetryPolicy {
    /// Never retries (a single supervised attempt).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The backoff slept before retry number `retry` (1-based):
    /// `base · multiplier^(retry-1)`, saturating.
    pub fn backoff_before(&self, retry: u32) -> Duration {
        let factor = self
            .backoff_multiplier
            .checked_pow(retry.saturating_sub(1))
            .unwrap_or(u32::MAX);
        self.backoff_base.saturating_mul(factor)
    }

    /// `limits` with every finite budget escalated for attempt number
    /// `attempt` (0-based): factor `budget_escalation^attempt`, saturating.
    pub fn escalate(&self, limits: &RunLimits, attempt: u32) -> RunLimits {
        if attempt == 0 {
            return *limits;
        }
        let factor = self
            .budget_escalation
            .checked_pow(attempt)
            .unwrap_or(u32::MAX);
        let mut out = *limits;
        out.max_activations = limits
            .max_activations
            .map(|n| n.saturating_mul(u64::from(factor)));
        out.max_events = limits
            .max_events
            .map(|n| n.saturating_mul(u64::from(factor)));
        out.wall_budget = limits.wall_budget.map(|b| b.saturating_mul(factor));
        out
    }
}

/// One supervised attempt of a retried testcase.
#[derive(Debug, Clone)]
pub struct RetryAttempt {
    /// Attempt number (0 = the initial run).
    pub attempt: u32,
    /// How this attempt ended.
    pub outcome: RunOutcome,
    /// The (possibly escalated) budgets the attempt ran under.
    pub limits: RunLimits,
    /// The backoff scheduled after this attempt — `Some` exactly when a
    /// further attempt followed.
    pub backoff: Option<Duration>,
}

/// What [`DftSession::run_testcase_retrying`] did: every attempt with its
/// outcome, budgets and backoff. Only the **final** attempt's run is left
/// in the session — discarded attempts cannot contaminate the batch
/// report, so a testcase salvaged on retry reports byte-identically to one
/// that never failed.
#[derive(Debug, Clone)]
pub struct RetryReport {
    /// Testcase name.
    pub name: String,
    /// Every attempt, in order; never empty.
    pub attempts: Vec<RetryAttempt>,
}

impl RetryReport {
    /// The outcome of the final (kept) attempt.
    pub fn final_outcome(&self) -> &RunOutcome {
        &self.attempts.last().expect("never empty").outcome
    }

    /// True when earlier attempts degraded but the final one succeeded —
    /// coverage was salvaged from a flaky run.
    pub fn salvaged(&self) -> bool {
        self.attempts.len() > 1 && !self.final_outcome().is_degraded()
    }

    /// True when every attempt (including the kept one) degraded — the
    /// failure is classified permanent after the retry budget is spent.
    pub fn permanent_failure(&self) -> bool {
        self.final_outcome().is_degraded()
    }

    /// The backoffs slept between attempts, in order.
    pub fn backoff_schedule(&self) -> Vec<Duration> {
        self.attempts.iter().filter_map(|a| a.backoff).collect()
    }
}

/// One testcase prepared for [`DftSession::run_testcases`]: a freshly built
/// cluster plus its name and simulated duration.
#[derive(Debug)]
pub struct TestcaseSpec {
    /// Report name of the testcase.
    pub name: String,
    /// The elaboratable cluster (testcases differ in stimulus sources).
    pub cluster: Cluster,
    /// How long to simulate.
    pub duration: SimTime,
}

impl TestcaseSpec {
    /// Bundles a testcase.
    pub fn new(name: impl Into<String>, cluster: Cluster, duration: SimTime) -> TestcaseSpec {
        TestcaseSpec {
            name: name.into(),
            cluster,
            duration,
        }
    }
}

/// A data-flow-testing session over one design.
///
/// ```no_run
/// # fn design() -> dft_core::Design { unimplemented!() }
/// # fn build_cluster(_tc: &str) -> tdf_sim::Cluster { unimplemented!() }
/// use dft_core::DftSession;
/// use tdf_sim::SimTime;
///
/// let mut session = DftSession::new(design())?;
/// // Stage 1 ran at construction; stages 2+3 per testcase:
/// session.run_testcase("TC1", build_cluster("TC1"), SimTime::from_ms(1))?;
/// session.run_testcase("TC2", build_cluster("TC2"), SimTime::from_ms(1))?;
/// let cov = session.coverage();
/// println!("{}", dft_core::render_table1(&cov));
/// for missing in cov.uncovered() {
///     println!("add a testcase for {missing}");
/// }
/// # Ok::<(), dft_core::DftError>(())
/// ```
#[derive(Debug)]
pub struct DftSession {
    /// The frozen static-stage artifacts — design (with interner), static
    /// analysis and prebuilt [`MatchAutomaton`] — possibly shared with
    /// other sessions through an artifact cache.
    artifacts: Arc<SessionArtifacts>,
    /// Per-session knobs, resolved once at construction.
    config: SessionConfig,
    runs: Vec<TestcaseResult>,
    /// Assertions monitored alongside matching. Empty (the default) keeps
    /// the sample tap off and every run/report byte-identical to a
    /// session without monitor support.
    assertions: Vec<AssertionSpec>,
}

impl DftSession {
    /// Creates a session and runs the static stage, with every knob
    /// resolved from the environment ([`SessionConfig::from_env`]).
    pub fn new(design: Design) -> Result<DftSession> {
        Self::with_config(design, SessionConfig::from_env())
    }

    /// Creates a session with explicit knobs: the static stage runs on
    /// `config.threads` workers. Reports are byte-identical for every
    /// configuration.
    pub fn with_config(design: Design, config: SessionConfig) -> Result<DftSession> {
        Ok(Self::from_artifacts(
            SessionArtifacts::build_with(design, &config),
            config,
        ))
    }

    /// Creates a session over **already-frozen** artifacts — the warm
    /// path: elaboration and static analysis are skipped entirely, only
    /// per-session state (the run list) is allocated. This is what an
    /// artifact cache hit costs.
    pub fn from_artifacts(artifacts: Arc<SessionArtifacts>, config: SessionConfig) -> DftSession {
        DftSession {
            artifacts,
            config,
            runs: Vec::new(),
            assertions: Vec::new(),
        }
    }

    /// Attaches assertions to be monitored alongside matching (builder
    /// style): every subsequent testcase evaluates them over its sample
    /// streams in the same simulation pass and carries the per-assertion
    /// verdicts in [`TestcaseResult::verdicts`], in spec order. With no
    /// assertions the sample tap stays off and reports are byte-identical
    /// to a session without monitor support.
    pub fn with_assertions(mut self, assertions: Vec<AssertionSpec>) -> DftSession {
        self.assertions = assertions;
        self
    }

    /// Replaces the monitored assertions for subsequent testcases (the
    /// mutator twin of [`DftSession::with_assertions`]).
    pub fn set_assertions(&mut self, assertions: Vec<AssertionSpec>) {
        self.assertions = assertions;
    }

    /// The assertions currently monitored.
    pub fn assertions(&self) -> &[AssertionSpec] {
        &self.assertions
    }

    /// The frozen artifacts backing this session (shareable with further
    /// sessions via [`DftSession::from_artifacts`]).
    pub fn artifacts(&self) -> &Arc<SessionArtifacts> {
        &self.artifacts
    }

    /// The session's resolved configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The design under verification.
    pub fn design(&self) -> &Design {
        self.artifacts.design()
    }

    /// The static-stage result (associations + lints).
    pub fn static_analysis(&self) -> &StaticAnalysis {
        self.artifacts.static_analysis()
    }

    /// Runs one testcase: elaborates `cluster`, simulates it for
    /// `duration` with instrumentation enabled, and matches its def/use
    /// events into exercised associations in the same pass.
    ///
    /// This is a batch of one: the testcase takes the same path as every
    /// entry of [`DftSession::run_testcases`], so a single run reports
    /// identically to a batch of one even on malformed logs. Only the
    /// failure contract differs.
    ///
    /// The cluster must be freshly built per testcase (testcases differ in
    /// their stimulus sources).
    ///
    /// # Errors
    ///
    /// Returns elaboration/simulation errors and appends no run.
    ///
    /// # Panics
    ///
    /// A module panic is re-raised (with its original payload) after the
    /// session has been left as it was: no run is appended.
    pub fn run_testcase(
        &mut self,
        name: &str,
        cluster: Cluster,
        duration: SimTime,
    ) -> Result<&TestcaseResult> {
        let spec = TestcaseSpec::new(name, cluster, duration);
        let (result, run) = self.simulate(spec, &RunLimits::none());
        match run {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(e),
            Err(payload) => resume_unwind(payload),
        }
        self.runs.push(result);
        Ok(self.runs.last().expect("just pushed"))
    }

    /// Runs a batch of testcases in order, appending one run per entry.
    ///
    /// Unlike [`DftSession::run_testcase`], a failing testcase does **not**
    /// abort the batch: elaboration errors, simulation errors, tripped
    /// [`RunLimits`] budgets and even module panics are isolated to their
    /// testcase and recorded as a degraded [`RunOutcome`], and whatever the
    /// testcase emitted before failing still contributes (partial) coverage.
    ///
    /// # Errors
    ///
    /// Never errors; the `Result` is kept for API stability. Per-testcase
    /// failures are reported via [`TestcaseResult::outcome`].
    pub fn run_testcases(&mut self, testcases: Vec<TestcaseSpec>) -> Result<&[TestcaseResult]> {
        Ok(self.run_testcases_with(testcases, RunLimits::none()))
    }

    /// [`DftSession::run_testcases`] with per-testcase [`RunLimits`]
    /// budgets. Each testcase is simulated under `limits`; a tripped budget
    /// degrades only that testcase ([`RunOutcome::TimedOut`]) while the
    /// events it emitted before tripping are still matched.
    pub fn run_testcases_with(
        &mut self,
        testcases: Vec<TestcaseSpec>,
        limits: RunLimits,
    ) -> &[TestcaseResult] {
        static DEGRADED: obs::Counter = obs::Counter::new("testcase.degraded");
        let start = self.runs.len();
        for tc in testcases {
            let (mut result, run) = self.simulate(tc, &limits);
            result.outcome = outcome_of(run);
            if result.outcome.is_degraded() {
                DEGRADED.add(1);
            }
            self.runs.push(result);
        }
        &self.runs[start..]
    }

    /// [`DftSession::run_testcases_with`] taking a worker count. Matching
    /// happens inside the sequential simulation pass, so the worker count
    /// changes neither the work done nor the results; the parameter stays
    /// for callers that still pass one.
    pub fn run_testcases_with_threads(
        &mut self,
        testcases: Vec<TestcaseSpec>,
        limits: RunLimits,
        _threads: usize,
    ) -> &[TestcaseResult] {
        self.run_testcases_with(testcases, limits)
    }

    /// The dynamic stage for one testcase — the only place a session
    /// simulates. Elaborates `tc.cluster` onto the design-wide interner
    /// and runs it under `limits` inside `catch_unwind`, streaming every
    /// def/use event into a fresh [`MatchCursor`](crate::MatchCursor)
    /// and, when assertions are attached, every tapped sample into a
    /// fresh [`MonitorBank`].
    /// Returns the matched run (outcome `Ok`; callers map the second
    /// value onto the outcome they need) and how the simulation ended.
    /// Whatever was streamed before a failure is kept as partial
    /// coverage, and a run that did not complete finalizes its verdicts
    /// as degraded.
    ///
    /// Unwind-safety (why `AssertUnwindSafe` is sound): the closure owns
    /// the cluster and the simulator built from it, so a panic can only
    /// tear state that dies with the closure. The cursor and the bank
    /// cross the boundary as plain `&mut` borrows. Module code never runs
    /// while they are mid-update: `feed` is called from a module's
    /// `record` and returns before the module resumes, and `observe` runs
    /// in the kernel after the module has returned, so a module panic
    /// cannot interrupt either halfway. A panic *inside* `feed` or
    /// `observe` can leave them half-updated — no worse than sharing them
    /// behind a mutex and recovering the poisoned lock with `into_inner`
    /// — and such a run is finalized as degraded.
    fn simulate(
        &self,
        tc: TestcaseSpec,
        limits: &RunLimits,
    ) -> (TestcaseResult, std::thread::Result<Result<()>>) {
        let TestcaseSpec {
            name,
            mut cluster,
            duration,
        } = tc;
        let interner = self.design().interner();
        let mut cursor = self.artifacts.automaton.cursor(MatchMode::Lenient);
        let mut bank =
            (!self.assertions.is_empty()).then(|| MonitorBank::compile(&self.assertions, interner));
        let started = obs::metrics_enabled().then(Instant::now);
        cluster.set_interner(Arc::clone(interner));
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulator::new(cluster)?;
            let mut matching = MatchingSink::new(&mut cursor, Arc::clone(interner));
            let mut monitored;
            let sink: &mut dyn EventSink = match bank.as_mut() {
                Some(bank) => {
                    monitored = MonitorSink::new(&mut matching, bank);
                    &mut monitored
                }
                None => &mut matching,
            };
            let _span = obs::span("stage.simulate");
            sim.run_with_limits(duration, sink, limits)?;
            Ok::<(), DftError>(())
        }));
        if let Some(t0) = started {
            obs::counter_add(&format!("testcase.{name}.events"), cursor.events_fed());
            obs::observe_duration(&format!("testcase.{name}.wall"), t0.elapsed());
        }
        let (matched, bits) = {
            let _span = obs::span("stage.match");
            cursor.finish()
        };
        let verdicts = match bank {
            Some(mut bank) => {
                let _span = obs::span("stage.monitor");
                bank.finalize(duration, !matches!(run, Ok(Ok(()))))
            }
            None => Vec::new(),
        };
        let result = TestcaseResult {
            name,
            exercised: matched.exercised,
            defs_executed: matched.defs_executed,
            warnings: matched.warnings,
            outcome: RunOutcome::Ok,
            exercised_idx: Some(bits),
            verdicts,
        };
        (result, run)
    }

    /// Runs one testcase under a retry supervisor: transient failures
    /// ([`RunOutcome::Panicked`] / [`RunOutcome::TimedOut`]) are rerun up
    /// to `policy.max_retries` times with exponential backoff and
    /// escalating budgets, salvaging full coverage from flaky runs, while
    /// deterministic failures ([`RunOutcome::Failed`]) are permanent
    /// immediately.
    ///
    /// `build_cluster` is invoked once per attempt (clusters are consumed
    /// by elaboration) with the 0-based attempt number. Failure isolation
    /// is the same as [`DftSession::run_testcases_with`] — a panicking or
    /// stalling module degrades the attempt, never the session.
    ///
    /// Exactly one run is appended to the session: the final attempt's.
    /// Discarded attempts leave no trace in the batch report, so a
    /// salvaged testcase reports byte-identically to one that never
    /// failed; when the retry budget is spent, the last degraded run (and
    /// its partial coverage) is kept.
    pub fn run_testcase_retrying(
        &mut self,
        name: &str,
        mut build_cluster: impl FnMut(u32) -> Result<Cluster>,
        duration: SimTime,
        limits: RunLimits,
        policy: &RetryPolicy,
    ) -> RetryReport {
        static RETRIES: obs::Counter = obs::Counter::new("retry.reruns");
        static SALVAGED: obs::Counter = obs::Counter::new("retry.salvaged");
        static PERMANENT: obs::Counter = obs::Counter::new("retry.permanent_failures");
        let mut attempts = Vec::new();
        let mut attempt = 0u32;
        loop {
            let eff = policy.escalate(&limits, attempt);
            let outcome = match build_cluster(attempt) {
                Ok(cluster) => {
                    let spec = TestcaseSpec::new(name, cluster, duration);
                    self.run_testcases_with(vec![spec], eff);
                    self.runs.last().expect("batch of one").outcome.clone()
                }
                Err(e) => {
                    // Nothing simulated, so nothing was appended: record a
                    // placeholder run so the batch report names the failure.
                    let outcome = RunOutcome::Failed {
                        error: e.to_string(),
                    };
                    self.runs.push(TestcaseResult {
                        name: name.to_owned(),
                        outcome: outcome.clone(),
                        ..TestcaseResult::default()
                    });
                    outcome
                }
            };
            let transient = matches!(
                outcome,
                RunOutcome::Panicked { .. } | RunOutcome::TimedOut { .. }
            );
            if transient && attempt < policy.max_retries {
                // Drop the degraded run: its partial coverage (and the
                // degradation footer) must not survive a later success.
                self.runs.truncate(self.runs.len() - 1);
                let backoff = policy.backoff_before(attempt + 1);
                attempts.push(RetryAttempt {
                    attempt,
                    outcome,
                    limits: eff,
                    backoff: Some(backoff),
                });
                RETRIES.add(1);
                if policy.sleep && backoff > Duration::ZERO {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
                continue;
            }
            attempts.push(RetryAttempt {
                attempt,
                outcome,
                limits: eff,
                backoff: None,
            });
            break;
        }
        let report = RetryReport {
            name: name.to_owned(),
            attempts,
        };
        if report.salvaged() {
            SALVAGED.add(1);
        } else if report.attempts.len() > 1 && report.permanent_failure() {
            PERMANENT.add(1);
        }
        report
    }

    /// All testcase results so far.
    pub fn runs(&self) -> &[TestcaseResult] {
        &self.runs
    }

    /// Evaluates coverage over all testcases run so far.
    pub fn coverage(&self) -> Coverage {
        Coverage::evaluate(self.static_analysis(), &self.runs)
    }

    /// Drops all recorded runs (e.g. to replay a reduced testsuite).
    pub fn clear_runs(&mut self) {
        self.runs.clear();
    }

    /// Splits off and returns every run from index `start` on, leaving
    /// the session with its first `start` runs. This is the candidate
    /// protocol of coverage-guided generation: evaluate a batch
    /// ([`DftSession::run_testcases_with_threads`]), take the appended
    /// results for fitness scoring, and [`DftSession::push_run`] back
    /// only the accepted ones — the statics never re-run.
    ///
    /// # Panics
    ///
    /// Panics if `start > self.runs().len()`.
    pub fn take_runs_from(&mut self, start: usize) -> Vec<TestcaseResult> {
        self.runs.split_off(start)
    }

    /// Appends an already-computed run (one previously returned by
    /// [`DftSession::take_runs_from`]) without re-simulating anything.
    pub fn push_run(&mut self, run: TestcaseResult) {
        self.runs.push(run);
    }

    /// Snapshot of the observability registry: per-stage wall times
    /// (`stage.schedule` / `stage.simulate` / `stage.static` /
    /// `stage.match`), reachability-cache hit/miss counts
    /// (`cfg.reach_cache.*`), kernel counters (`sim.*`) and per-testcase
    /// series (`testcase.<name>.events` / `testcase.<name>.wall`).
    ///
    /// Empty unless the process runs with `DFT_METRICS=1` (or
    /// `DFT_TRACE=1`); render with [`MetricsReport::to_text`] or
    /// [`MetricsReport::to_json`]. The registry is process-global, so
    /// concurrent sessions aggregate into the same report.
    pub fn metrics(&self) -> MetricsReport {
        MetricsReport::capture()
    }
}

/// Maps a run's `catch_unwind` result onto the [`RunOutcome`] taxonomy.
fn outcome_of(run: std::thread::Result<std::result::Result<(), DftError>>) -> RunOutcome {
    match run {
        Ok(Ok(())) => RunOutcome::Ok,
        Ok(Err(DftError::Sim(
            e @ (TdfError::ActivationLimit { .. }
            | TdfError::EventLimit { .. }
            | TdfError::DeadlineExceeded { .. }),
        ))) => RunOutcome::TimedOut {
            reason: e.to_string(),
        },
        Ok(Err(e)) => RunOutcome::Failed {
            error: e.to_string(),
        },
        Err(payload) => RunOutcome::Panicked {
            payload: panic_payload_str(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::Association;
    use crate::test_oracle::{oracle, oracle_automaton};
    use tdf_interp::{Interface, InterpModule, TdfModelDef};
    use tdf_sim::{FaultPlan, FaultyEvents, FnSource, PanicAfter, TdfModule, Value};

    const SRC: &str = "\
void A::processing()
{
    double t = ip_in * 1000;
    double o = 0;
    if (t > 30) { o = t; }
    op_y = o;
}
void B::processing()
{
    double v = ip_x;
    op_z = v;
}";

    fn defs() -> Vec<TdfModelDef> {
        vec![
            TdfModelDef::new(
                "A",
                Interface::new()
                    .input("ip_in")
                    .output("op_y")
                    .timestep(SimTime::from_us(1)),
            ),
            TdfModelDef::new("B", Interface::new().input("ip_x").output("op_z")),
        ]
    }

    fn build_cluster(level: f64) -> (Cluster, Design) {
        build_cluster_with(level, |m| m)
    }

    /// Like `build_cluster`, but module A's event stream passes through a
    /// deterministic fault tap that garbles events — the malformed-log
    /// scenario where match-mode choices become visible.
    fn build_faulty_cluster(level: f64, plan: FaultPlan) -> (Cluster, Design) {
        build_cluster_with(level, move |m| Box::new(FaultyEvents::new(m, plan.clone())))
    }

    /// `build_cluster` with module A wrapped by `wrap_a` (a fault tap, a
    /// saboteur, or the identity).
    fn build_cluster_with(
        level: f64,
        wrap_a: impl Fn(Box<dyn TdfModule>) -> Box<dyn TdfModule>,
    ) -> (Cluster, Design) {
        let tu = minic::parse(SRC).unwrap();
        let mut cluster = Cluster::new("top");
        let src = cluster
            .add_module(Box::new(FnSource::new(
                "src",
                SimTime::from_us(1),
                move |_| Value::Double(level),
            )))
            .unwrap();
        let mut ids = Vec::new();
        for (i, d) in defs().into_iter().enumerate() {
            let m: Box<dyn TdfModule> =
                Box::new(InterpModule::new(&tu, &d.model, d.interface.clone()).unwrap());
            let m = if i == 0 { wrap_a(m) } else { m };
            ids.push(cluster.add_module(m).unwrap());
        }
        cluster.connect(src, "op_out", ids[0], "ip_in").unwrap();
        cluster.connect(ids[0], "op_y", ids[1], "ip_x").unwrap();
        let design = Design::new(minic::parse(SRC).unwrap(), defs(), cluster.netlist()).unwrap();
        (cluster, design)
    }

    /// Every reported field of two runs, plus their rendered Table I.
    fn assert_same_run(statics: &StaticAnalysis, a: &TestcaseResult, b: &TestcaseResult) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.exercised, b.exercised);
        assert_eq!(a.defs_executed, b.defs_executed);
        assert_eq!(a.warnings, b.warnings);
        assert_eq!(a.exercised_idx, b.exercised_idx);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(
            crate::render_table1(&Coverage::evaluate(statics, std::slice::from_ref(a))),
            crate::render_table1(&Coverage::evaluate(statics, std::slice::from_ref(b))),
        );
    }

    #[test]
    fn full_pipeline_covers_expected_pairs() {
        let (cluster, design) = build_cluster(0.1); // 100 mV -> above threshold
        let mut session = DftSession::new(design).unwrap();
        assert!(!session.static_analysis().is_empty());
        session
            .run_testcase("TC1", cluster, SimTime::from_us(3))
            .unwrap();
        let cov = session.coverage();
        // (t, 3, A, 5, A) exercised.
        let idx = cov
            .associations()
            .iter()
            .position(|c| c.assoc == Association::new("t", 3, "A", 5, "A"))
            .expect("static pair exists");
        assert!(cov.is_covered(idx));
        // Cross-model Strong pair: op_y def at 6 used in B line 10.
        let cross = cov
            .associations()
            .iter()
            .position(|c| c.assoc == Association::new("op_y", 6, "A", 10, "B"))
            .expect("cluster pair exists");
        assert!(cov.is_covered(cross));
    }

    #[test]
    fn below_threshold_misses_then_branch_pair() {
        let (cluster, design) = build_cluster(0.01); // 10 mV -> then-branch never taken
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcase("TC1", cluster, SimTime::from_us(3))
            .unwrap();
        let cov = session.coverage();
        let idx = cov
            .associations()
            .iter()
            .position(|c| c.assoc == Association::new("o", 5, "A", 6, "A"))
            .expect("redefinition pair exists");
        assert!(!cov.is_covered(idx), "o = t never executed");
        assert!(!cov.uncovered().is_empty());
    }

    #[test]
    fn batch_run_matches_sequential_runs() {
        let (c1, design) = build_cluster(0.01);
        let mut seq = DftSession::new(design).unwrap();
        seq.run_testcase("TC1", c1, SimTime::from_us(3)).unwrap();
        let (c2, _) = build_cluster(0.1);
        seq.run_testcase("TC2", c2, SimTime::from_us(3)).unwrap();

        let (b1, design) = build_cluster(0.01);
        let (b2, _) = build_cluster(0.1);
        let mut batch = DftSession::new(design).unwrap();
        let appended = batch
            .run_testcases(vec![
                TestcaseSpec::new("TC1", b1, SimTime::from_us(3)),
                TestcaseSpec::new("TC2", b2, SimTime::from_us(3)),
            ])
            .unwrap();
        assert_eq!(appended.len(), 2);

        assert_eq!(seq.runs().len(), batch.runs().len());
        for (s, b) in seq.runs().iter().zip(batch.runs()) {
            assert_eq!(s.name, b.name);
            assert_eq!(s.exercised, b.exercised);
            assert_eq!(s.defs_executed, b.defs_executed);
            assert_eq!(s.warnings, b.warnings);
        }
        assert_eq!(
            crate::render_table1(&seq.coverage()),
            crate::render_table1(&batch.coverage()),
            "reports byte-identical"
        );
    }

    #[test]
    fn take_and_push_runs_preserve_reports() {
        let (c1, design) = build_cluster(0.01);
        let (c2, _) = build_cluster(0.1);
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcases(vec![
                TestcaseSpec::new("TC1", c1, SimTime::from_us(3)),
                TestcaseSpec::new("TC2", c2, SimTime::from_us(3)),
            ])
            .unwrap();
        let before = crate::render_table1(&session.coverage());

        // Candidate protocol: take everything, push it back, same report.
        let taken = session.take_runs_from(0);
        assert_eq!(taken.len(), 2);
        assert_eq!(session.runs().len(), 0);
        for run in taken {
            session.push_run(run);
        }
        assert_eq!(crate::render_table1(&session.coverage()), before);

        // Dropping the tail keeps the head intact.
        let tail = session.take_runs_from(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(session.runs().len(), 1);
        assert_eq!(session.runs()[0].name, "TC1");
    }

    /// Verdicts from the one streamed pass equal recording the run first
    /// and evaluating afterwards (the record-then-match oracle).
    #[test]
    fn assertions_evaluate_in_one_pass_across_strategies() {
        use dft_monitor::{AssertionExpr, Verdict};
        // level 0.1 -> t = 100 > 30 -> op_y = 100 from the first activation.
        let specs = vec![
            AssertionSpec::new("cap", AssertionExpr::never_above("A.op_y", 50.0)),
            AssertionSpec::new("floor", AssertionExpr::never_below("A.op_y", -1.0)),
        ];
        let (cluster, design) = build_cluster(0.1);
        let mut session = DftSession::new(design).unwrap().with_assertions(specs);
        let automaton = oracle_automaton(&session, Tracking::Reduced);
        session
            .run_testcase("TC1", cluster, SimTime::from_us(3))
            .unwrap();
        // Coverage and verdicts both came out of the same run, and agree
        // with recording first and evaluating afterwards.
        let run = &session.runs()[0];
        assert!(!run.exercised.is_empty());
        let (cluster, _) = build_cluster(0.1);
        let expected = oracle(
            &automaton,
            session.assertions(),
            "TC1",
            cluster,
            SimTime::from_us(3),
        );
        assert_same_run(session.static_analysis(), run, &expected);
        assert_eq!(run.verdicts[0].name, "cap");
        assert_eq!(
            run.verdicts[0].verdict,
            Verdict::Fails {
                first_violation_time: SimTime::ZERO
            },
            "op_y jumps to 100 at the very first activation"
        );
        assert_eq!(run.verdicts[1].verdict, Verdict::Holds);
    }

    #[test]
    fn batch_verdicts_match_single_runs_and_degrade_to_inconclusive() {
        use dft_monitor::{AssertionExpr, Verdict};
        let specs = vec![
            AssertionSpec::new("cap", AssertionExpr::never_above("A.op_y", 50.0)),
            AssertionSpec::new("floor", AssertionExpr::never_below("A.op_y", -1.0)),
        ];
        let (c1, design) = build_cluster(0.1);
        let mut single = DftSession::new(design)
            .unwrap()
            .with_assertions(specs.clone());
        single.run_testcase("TC1", c1, SimTime::from_us(3)).unwrap();

        let (b1, design) = build_cluster(0.1);
        let mut batch = DftSession::new(design)
            .unwrap()
            .with_assertions(specs.clone());
        let _ = batch.run_testcases(vec![TestcaseSpec::new("TC1", b1, SimTime::from_us(3))]);
        assert_eq!(single.runs()[0].verdicts, batch.runs()[0].verdicts);

        // A tripped activation budget degrades the run: the latched
        // violation survives, the would-be pass is forced inconclusive.
        let (c2, design) = build_cluster(0.1);
        let mut degraded = DftSession::new(design).unwrap().with_assertions(specs);
        degraded.run_testcases_with(
            vec![TestcaseSpec::new("TC1", c2, SimTime::from_us(3))],
            RunLimits::none().with_max_activations(2),
        );
        let run = &degraded.runs()[0];
        assert!(run.outcome.is_degraded());
        assert!(run.verdicts[0].verdict.is_fail());
        assert_eq!(run.verdicts[1].verdict, Verdict::Inconclusive);
    }

    #[test]
    fn sessions_without_assertions_carry_no_verdicts() {
        let (cluster, design) = build_cluster(0.1);
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcase("TC1", cluster, SimTime::from_us(3))
            .unwrap();
        assert!(session.runs()[0].verdicts.is_empty());
        assert_eq!(crate::render_verdicts(session.runs()), "");
    }

    #[test]
    fn explicit_thread_counts_are_byte_identical() {
        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let (c1, design) = build_cluster(0.01);
            let (c2, _) = build_cluster(0.1);
            let mut session = DftSession::new(design).unwrap();
            session.run_testcases_with_threads(
                vec![
                    TestcaseSpec::new("TC1", c1, SimTime::from_us(3)),
                    TestcaseSpec::new("TC2", c2, SimTime::from_us(3)),
                ],
                RunLimits::none(),
                threads,
            );
            reports.push(crate::render_table1(&session.coverage()));
        }
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn metrics_report_covers_all_pipeline_stages() {
        let was_on = obs::metrics_enabled();
        obs::set_metrics_enabled(true);

        let (cluster, design) = build_cluster(0.1);
        // Force a cold static build: with memoization on, another test's
        // build of the same design could leave the model artifacts (and
        // their warmed reachability caches) resident, and the
        // reach-cache-miss assertion below would race test order.
        let config = SessionConfig::from_env().with_incremental(false);
        let artifacts = SessionArtifacts::build_with(design, &config);
        let mut session = DftSession::from_artifacts(artifacts, config);
        session
            .run_testcase("TC_metrics_probe", cluster, SimTime::from_us(3))
            .unwrap();
        let report = session.metrics();
        obs::set_metrics_enabled(was_on);

        assert!(!report.is_empty());
        for stage in [
            "stage.schedule",
            "stage.simulate",
            "stage.static",
            "stage.match",
        ] {
            let t = report
                .timer(stage)
                .unwrap_or_else(|| panic!("{stage} missing"));
            assert!(t.count >= 1, "{stage} recorded no spans");
        }
        assert!(
            report.counter("testcase.TC_metrics_probe.events") > 0,
            "per-testcase event count missing"
        );
        assert!(
            report.timer("testcase.TC_metrics_probe.wall").is_some(),
            "per-testcase wall timer missing"
        );
        // Static analysis queries reachability repeatedly per Cfg: at least
        // one closure build (miss) and at least one reuse (hit).
        assert!(report.counter("cfg.reach_cache.miss") >= 1);
        assert!(report.counter("cfg.reach_cache.hit") >= 1);
        assert!(report.counter("match.events") > 0);
        // Both renderings include every stage row.
        let (text, json) = (report.to_text(), report.to_json());
        assert!(text.contains("stage.simulate"), "{text}");
        assert!(json.contains("\"stage.simulate\""), "{json}");
    }

    #[test]
    fn failing_testcases_do_not_leak_pooled_buffers() {
        // Elaboration of a timestep-less cluster fails before anything
        // simulates: a typed error, no run appended, and nothing left
        // behind that changes the next run.
        let (warm, design) = build_cluster(0.1);
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcase("warm", warm, SimTime::from_us(3))
            .unwrap();
        for i in 0..4 {
            let tu = minic::parse(SRC).unwrap();
            let mut broken = Cluster::new("broken");
            let b =
                InterpModule::new(&tu, "B", Interface::new().input("ip_x").output("op_z")).unwrap();
            broken.add_module(Box::new(b)).unwrap();
            let run = session.run_testcase(&format!("bad{i}"), broken, SimTime::from_us(1));
            assert!(run.is_err(), "empty cluster must not elaborate");
            assert_eq!(session.runs().len(), 1, "an error appends no run");
        }
        let (again, _) = build_cluster(0.1);
        session
            .run_testcase("warm", again, SimTime::from_us(3))
            .unwrap();
        assert_same_run(
            session.static_analysis(),
            &session.runs()[0],
            &session.runs()[1],
        );
    }

    #[test]
    fn run_testcase_contract() {
        // A module panic leaves `run_testcase` with its payload and
        // appends no run; the same cluster in a batch appends exactly
        // one `Panicked` run.
        let (warm, design) = build_cluster(0.1);
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcase("warm", warm, SimTime::from_us(3))
            .unwrap();
        let panicking = || build_cluster_with(0.1, |m| Box::new(PanicAfter::new(m, 1))).0;
        let cluster = panicking();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = session.run_testcase("boom", cluster, SimTime::from_us(3));
        }));
        let payload = caught.expect_err("the module panic must propagate");
        assert!(panic_payload_str(payload).contains("panicking after 1 activations"));
        assert_eq!(session.runs().len(), 1, "a panic appends no run");
        let appended = session.run_testcases(vec![TestcaseSpec::new(
            "boom",
            panicking(),
            SimTime::from_us(3),
        )]);
        assert_eq!(appended.unwrap().len(), 1);
        assert!(matches!(
            session.runs()[1].outcome,
            RunOutcome::Panicked { .. }
        ));
    }

    #[test]
    fn single_and_batch_of_one_agree_on_malformed_logs() {
        // Ghost models/vars and warped timestamps in the event stream:
        // the input on which single runs and batches of one once
        // diverged. Single run, batch of one and the oracle agree.
        let plan = FaultPlan::new().with_seed(11).with_corrupt_events(0.5);
        let (c_single, design) = build_faulty_cluster(0.1, plan.clone());
        let mut single = DftSession::new(design).unwrap();
        let automaton = oracle_automaton(&single, Tracking::Reduced);
        single
            .run_testcase("TC", c_single, SimTime::from_us(5))
            .unwrap();

        let (c_batch, design) = build_faulty_cluster(0.1, plan.clone());
        let mut batch = DftSession::new(design).unwrap();
        batch
            .run_testcases(vec![TestcaseSpec::new("TC", c_batch, SimTime::from_us(5))])
            .unwrap();

        let (c_oracle, _) = build_faulty_cluster(0.1, plan);
        let expected = oracle(&automaton, &[], "TC", c_oracle, SimTime::from_us(5));
        let statics = single.static_analysis();
        assert_same_run(statics, &single.runs()[0], &batch.runs()[0]);
        assert_same_run(statics, &single.runs()[0], &expected);
        assert_eq!(
            crate::render_table1(&single.coverage()),
            crate::render_table1(&batch.coverage()),
            "batch-of-one must report like a single run"
        );
    }

    /// The streamed session agrees with the buffered strategy, which now
    /// lives only here as the record-then-match oracle. Reduced is what
    /// every session tracks; Full is the oracle that reduction
    /// reconstructs raw results exactly.
    #[test]
    fn streamed_and_buffered_strategies_agree() {
        for tracking in [Tracking::Reduced, Tracking::Full] {
            let (c1, design) = build_cluster(0.01);
            let (c2, _) = build_cluster(0.1);
            let mut session = DftSession::new(design).unwrap();
            let automaton = oracle_automaton(&session, tracking);
            session
                .run_testcase("TC1", c1, SimTime::from_us(3))
                .unwrap();
            session
                .run_testcases(vec![TestcaseSpec::new("TC2", c2, SimTime::from_us(3))])
                .unwrap();
            let expected: Vec<TestcaseResult> = [("TC1", 0.01), ("TC2", 0.1)]
                .into_iter()
                .map(|(name, level)| {
                    let (c, _) = build_cluster(level);
                    oracle(&automaton, &[], name, c, SimTime::from_us(3))
                })
                .collect();
            for (run, want) in session.runs().iter().zip(&expected) {
                assert_same_run(session.static_analysis(), run, want);
            }
            assert_eq!(
                crate::render_table1(&session.coverage()),
                crate::render_table1(&Coverage::evaluate(session.static_analysis(), &expected)),
                "{tracking:?}: session must report like the oracle"
            );
        }
    }

    #[test]
    fn adding_testcases_grows_coverage_monotonically() {
        let (c1, design) = build_cluster(0.01);
        let mut session = DftSession::new(design).unwrap();
        session
            .run_testcase("TC1", c1, SimTime::from_us(3))
            .unwrap();
        let before = session.coverage().exercised_count();
        let (c2, _) = build_cluster(0.1);
        session
            .run_testcase("TC2", c2, SimTime::from_us(3))
            .unwrap();
        let after = session.coverage().exercised_count();
        assert!(
            after > before,
            "TC2 exercises the hot branch: {before} -> {after}"
        );
        assert_eq!(session.runs().len(), 2);
        session.clear_runs();
        assert_eq!(session.coverage().exercised_count(), 0);
    }
}
