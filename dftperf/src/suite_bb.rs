//! `suite-bb`: the paper's buck-boost hand suite (Table II rows 5-8)
//! replayed through `DftSession::run_testcase` on warm shared artifacts.
//! One op is one testcase; a pass is the whole suite in a seeded order.
//! Long simulations dominate, so this is where the interpreter shows.

use std::sync::Arc;

use ams_models::buck_boost::{bb_design, bb_suite, build_bb_cluster, BUCK_BOOST_SRC};
use dft_core::{BitSet, DftSession, RunOutcome, SessionArtifacts, SessionConfig};
use stimuli::Testcase;
use tdf_sim::Simulator;

use crate::measure::{attribute, reattribute, Rng, Tally, Tracer};
use crate::probes::{design_costs, CountingSink, DesignCosts};
use crate::runner::Workload;

/// Union coverage of the full suite (EXPERIMENTS.md E3, final row).
pub const EXPECTED_COVERAGE: (usize, usize) = (134, 151);
/// Module activations of one pass over the suite.
pub const EXPECTED_ACTIVATIONS: u64 = 369_200;

pub struct SuiteBb {
    seed: u64,
    config: SessionConfig,
    artifacts: Arc<SessionArtifacts>,
    suite: Vec<Testcase>,
    /// Exercised static associations of each testcase, and the union
    /// coverage, in the cold reference session.
    reference: Vec<BitSet>,
    reference_union: (usize, usize),
    session: DftSession,
    order: Vec<usize>,
    /// Activations the probes saw in the current pass (traced run).
    pass_activations: u64,
    setup_error: Option<String>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl SuiteBb {
    /// Builds the shared artifacts and a cold reference session over the
    /// whole suite, which doubles as the warm-up pass. The set-up check
    /// fails when the reference does not reach `expected` union coverage.
    pub fn setup(seed: u64, expected: (usize, usize)) -> Result<SuiteBb, String> {
        let config = SessionConfig::from_env()
            .with_threads(1)
            .with_incremental(false);
        let artifacts = SessionArtifacts::build_with(bb_design().map_err(err)?, &config);
        let suite = bb_suite().all().to_vec();
        let mut cold = DftSession::with_config(bb_design().map_err(err)?, config).map_err(err)?;
        for tc in &suite {
            let (cluster, _) = build_bb_cluster(tc).map_err(err)?;
            cold.run_testcase(&tc.name, cluster, tc.duration)
                .map_err(err)?;
        }
        let reference = cold
            .runs()
            .iter()
            .map(|r| r.exercised_idx.clone().ok_or("reference run without bits"))
            .collect::<Result<Vec<_>, _>>()?;
        let reference_union = cold.coverage().total_ratio();
        let setup_error = (reference_union != expected)
            .then(|| format!("reference coverage {reference_union:?}, expected {expected:?}"));
        let session = DftSession::from_artifacts(Arc::clone(&artifacts), config);
        Ok(SuiteBb {
            seed,
            config,
            artifacts,
            order: (0..suite.len()).collect(),
            suite,
            reference,
            reference_union,
            session,
            pass_activations: 0,
            setup_error,
        })
    }

    /// Simulates testcase `idx` with a NullSink-equivalent counting sink,
    /// timing elaboration and the run: `(elaborate_ms, run_ms,
    /// activations, events)`.
    fn null_run(&self, idx: usize, tr: &mut Tracer) -> Result<(f64, f64, u64, u64), String> {
        let tc = &self.suite[idx];
        let (mut cluster, _) = tr
            .span("models.build_cluster", || build_bb_cluster(tc))
            .map_err(err)?;
        cluster.set_interner(Arc::clone(self.artifacts.design().interner()));
        tr.enter("tdf-sim.elaborate");
        let sim = Simulator::new(cluster);
        let elaborate = tr.exit();
        let mut sim = sim.map_err(err)?;
        let mut sink = CountingSink::default();
        tr.enter("tdf-sim.run");
        let stats = sim.run(tc.duration, &mut sink);
        let run = tr.exit();
        Ok((
            elaborate as f64 / 1e6,
            run as f64 / 1e6,
            stats.map_err(err)?.activations,
            sink.events,
        ))
    }
}

impl Workload for SuiteBb {
    type Out = ();

    fn pass_len(&self) -> usize {
        self.suite.len()
    }

    fn begin_pass(&mut self, pass: usize) {
        let mut rng = Rng::new(self.seed ^ (pass as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        self.order = (0..self.suite.len()).collect();
        rng.shuffle(&mut self.order);
        self.session = DftSession::from_artifacts(Arc::clone(&self.artifacts), self.config);
        self.pass_activations = 0;
    }

    fn op(&mut self, k: usize, tr: &mut Tracer) -> Result<(), String> {
        let tc = &self.suite[self.order[k]];
        let (cluster, _) = tr
            .span("models.build_cluster", || build_bb_cluster(tc))
            .map_err(err)?;
        tr.enter("core.run_testcase");
        let run = self.session.run_testcase(&tc.name, cluster, tc.duration);
        tr.exit();
        run.map(|_| ()).map_err(err)
    }

    fn check(&mut self, k: usize, (): ()) -> Result<(), String> {
        let run = self.session.runs().last().ok_or("no run recorded")?;
        if run.outcome != RunOutcome::Ok {
            return Err(format!("{}: outcome {:?}", run.name, run.outcome));
        }
        if run.exercised_idx.as_ref() != Some(&self.reference[self.order[k]]) {
            return Err(format!(
                "{}: exercised set differs from reference",
                run.name
            ));
        }
        Ok(())
    }

    fn end_pass(&mut self) -> Result<(), String> {
        let union = self.session.coverage().total_ratio();
        if union != self.reference_union {
            return Err(format!(
                "pass coverage {union:?} != {:?}",
                self.reference_union
            ));
        }
        if self.pass_activations != 0 && self.pass_activations != EXPECTED_ACTIVATIONS {
            return Err(format!(
                "pass activations {} != {EXPECTED_ACTIVATIONS}",
                self.pass_activations
            ));
        }
        Ok(())
    }

    /// Checks that one pass of NullSink runs makes the expected activations.
    fn enable_probes(&mut self) -> Result<(), String> {
        let mut off = Tracer::new(false);
        let activations = (0..self.suite.len())
            .map(|i| self.null_run(i, &mut off).map(|r| r.2))
            .sum::<Result<u64, String>>()?;
        if activations != EXPECTED_ACTIVATIONS {
            return Err(format!(
                "reference pass: {activations} activations, expected {EXPECTED_ACTIVATIONS}"
            ));
        }
        Ok(())
    }

    fn design_costs(&self, tr: &mut Tracer) -> Result<DesignCosts, String> {
        design_costs(bb_design, BUCK_BOOST_SRC, tr)
    }

    fn setup_error(&self) -> Option<&str> {
        self.setup_error.as_deref()
    }

    fn probe(
        &mut self,
        k: usize,
        op_spans: &[(&'static str, u64)],
        tr: &mut Tracer,
        t: &mut Tally,
    ) {
        attribute(op_spans, t);
        tr.enter("probe");
        let probe = self.null_run(self.order[k], tr);
        tr.exit();
        let Ok((elaborate, run, activations, events)) = probe else {
            t.add("probe_failures", 1.0);
            return;
        };
        self.pass_activations += activations;
        let session_ms = op_spans
            .iter()
            .filter(|(n, _)| *n == "core.run_testcase")
            .map(|&(_, ns)| ns as f64 / 1e6)
            .sum::<f64>();
        reattribute(t, "self.core", "self.tdf-sim", elaborate + run);
        t.add("tdf-sim.elaborate_ms", elaborate);
        t.add("tdf-sim.run_ms", run);
        t.add("tdf-sim.activations", activations as f64);
        t.add("tdf-sim.events", events as f64);
        t.add("core.match_ms", session_ms - elaborate - run);
    }
}
