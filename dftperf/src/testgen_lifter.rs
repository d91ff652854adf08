//! `testgen-lifter`: coverage-guided generation on the window lifter. One
//! op is one fixed-work `Generator::run` (no early stop), seeded from the
//! workload seed and the op's index in its pass. Many short simulations, so
//! per-candidate fixed costs dominate: stimulus and cluster build,
//! elaboration and schedule, cursor set-up, scoring.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use ams_models::window_lifter::{
    build_lifter_cluster, lifter_design, BTN_DOWN, BTN_UP, LOAD, WINDOW_LIFTER_SRC,
};
use dft_core::{DftSession, SessionArtifacts, SessionConfig, TestcaseSpec};
use stimuli::Testcase;
use tdf_sim::{RunLimits, SimTime, Simulator};
use testgen::{ChannelSpec, GenConfig, GenOutcome, Generator};

use crate::measure::{attribute, reattribute, Rng, Tally, Tracer};
use crate::probes::{design_costs, CountingSink, DesignCosts};
use crate::runner::Workload;

/// Refinement iterations per op.
pub const ITERATIONS: usize = 2;
/// Candidates per iteration.
pub const CANDIDATES: usize = 4;
/// Ops per pass; op `k` of every pass repeats op `k` of the warm-up pass.
pub const PASS_LEN: usize = 8;
/// Simulated time per candidate (the generation example's lifter horizon).
pub const DURATION: SimTime = SimTime::from_ms(160);
/// Per-candidate activation budget: deterministic, unlike a wall budget.
const MAX_ACTIVATIONS: u64 = 2_000_000;

/// What the build closure handed to the generator records.
#[derive(Default)]
struct Builds {
    count: usize,
    /// Traced run only: each call's interval and candidate.
    log: Option<Vec<(Instant, Instant, Testcase)>>,
}

pub struct TestgenLifter {
    seed: u64,
    builds: Rc<RefCell<Builds>>,
    /// Report of op `k` in the warm-up pass.
    renders: Vec<Option<String>>,
    /// Traced run only: a session over the same design for the probes.
    probe_session: Option<DftSession>,
    /// Candidates accepted by the op just checked.
    accepted: usize,
    setup_error: Option<String>,
}

pub struct OpOut {
    outcome: GenOutcome,
    builds: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn limits() -> RunLimits {
    RunLimits::none().with_max_activations(MAX_ACTIVATIONS)
}

impl TestgenLifter {
    /// Runs one warm-up pass, whose reports every later pass must repeat.
    pub fn setup(seed: u64) -> Result<TestgenLifter, String> {
        let mut w = TestgenLifter {
            seed,
            builds: Rc::default(),
            renders: vec![None; PASS_LEN],
            probe_session: None,
            accepted: 0,
            setup_error: None,
        };
        for k in 0..PASS_LEN {
            let out = w.op(k, &mut Tracer::new(false))?;
            if let Err(e) = w.check(k, out) {
                w.setup_error.get_or_insert(format!("warm-up op {k}: {e}"));
            }
        }
        Ok(w)
    }

    fn op_seed(&self, k: usize) -> u64 {
        Rng::new(self.seed ^ (k as u64).wrapping_mul(0xe703_7ed1_a0b4_28db)).next_u64()
    }

    /// One candidate outside the generator: a NullSink run (elaborate_ms,
    /// run_ms, activations, events) and a matched session run (ms).
    fn candidate_probe(
        &mut self,
        tc: &Testcase,
        tr: &mut Tracer,
    ) -> Result<(f64, f64, u64, u64, f64), String> {
        let session = self.probe_session.as_mut().ok_or("probes not enabled")?;
        let (mut cluster, _) = build_lifter_cluster(tc).map_err(err)?;
        cluster.set_interner(Arc::clone(session.design().interner()));
        tr.enter("tdf-sim.elaborate");
        let sim = Simulator::new(cluster);
        let elaborate = tr.exit() as f64 / 1e6;
        let mut sim = sim.map_err(err)?;
        let mut sink = CountingSink::default();
        tr.enter("tdf-sim.run");
        let stats = sim.run_with_limits(tc.duration, &mut sink, &limits());
        let run = tr.exit() as f64 / 1e6;
        // A candidate that trips the activation budget degrades the same
        // way inside the generator; its partial counts still apply.
        let activations = match stats {
            Ok(s) => s.activations,
            Err(_) => sim.stats().activations,
        };
        let (cluster, _) = build_lifter_cluster(tc).map_err(err)?;
        tr.enter("core.run_testcase");
        session.run_testcases_with_threads(
            vec![TestcaseSpec::new(&tc.name, cluster, tc.duration)],
            limits(),
            1,
        );
        let matched = tr.exit() as f64 / 1e6;
        session.clear_runs();
        Ok((elaborate, run, activations, sink.events, matched))
    }
}

impl Workload for TestgenLifter {
    type Out = OpOut;

    fn pass_len(&self) -> usize {
        PASS_LEN
    }

    fn begin_pass(&mut self, _pass: usize) {}

    fn op(&mut self, k: usize, tr: &mut Tracer) -> Result<OpOut, String> {
        let design = tr.span("models.design", lifter_design).map_err(err)?;
        let cfg = GenConfig {
            seed: self.op_seed(k),
            max_iterations: ITERATIONS,
            candidates_per_iteration: CANDIDATES,
            stagnation_limit: ITERATIONS,
            limits: limits(),
            threads: 1,
            target_exercised: None,
            ..GenConfig::default()
        };
        let channels = vec![
            ChannelSpec::new(BTN_UP, 0.0, 1.0),
            ChannelSpec::new(BTN_DOWN, 0.0, 1.0),
            ChannelSpec::new(LOAD, 0.0, 5.0),
        ];
        {
            let mut b = self.builds.borrow_mut();
            b.count = 0;
            if let Some(log) = b.log.as_mut() {
                log.clear();
            }
        }
        let builds = Rc::clone(&self.builds);
        let build = move |tc: &Testcase| {
            let mut b = builds.borrow_mut();
            b.count += 1;
            if b.log.is_none() {
                return build_lifter_cluster(tc).map(|(c, _)| c);
            }
            let t0 = Instant::now();
            let cluster = build_lifter_cluster(tc).map(|(c, _)| c);
            let t1 = Instant::now();
            if let Some(log) = b.log.as_mut() {
                log.push((t0, t1, tc.clone()));
            }
            cluster
        };
        tr.enter("core.generator_new");
        let gen = Generator::new(design, channels, DURATION, build, cfg);
        tr.exit();
        let gen = gen.map_err(err)?;
        tr.enter("testgen.run");
        let outcome = gen.run();
        if let Some(log) = self.builds.borrow().log.as_ref() {
            for (t0, t1, _) in log {
                tr.closed("models.build_cluster", *t0, *t1);
            }
        }
        tr.exit();
        let builds = self.builds.borrow().count;
        Ok(OpOut { outcome, builds })
    }

    fn check(&mut self, k: usize, out: OpOut) -> Result<(), String> {
        let rows = &out.outcome.report.rows;
        let candidates: usize = rows.iter().map(|r| r.candidates).sum();
        let expected = ITERATIONS * CANDIDATES;
        if rows.len() != ITERATIONS || candidates != expected || out.builds != expected {
            return Err(format!(
                "{} iterations, {candidates} candidates, {} builds; expected {ITERATIONS} x {CANDIDATES}",
                rows.len(),
                out.builds
            ));
        }
        let exercised = out.outcome.coverage.exercised_count();
        if out.outcome.minimized_exercised != exercised {
            return Err(format!(
                "minimized subset exercises {} of {exercised}",
                out.outcome.minimized_exercised
            ));
        }
        self.accepted = rows.iter().map(|r| r.accepted).sum();
        let render = out.outcome.report.render();
        match &self.renders[k] {
            Some(first) if *first != render => Err("report differs from the warm-up pass".into()),
            Some(_) => Ok(()),
            None => {
                self.renders[k] = Some(render);
                Ok(())
            }
        }
    }

    /// Switches on the per-candidate log and the probe session.
    fn enable_probes(&mut self) -> Result<(), String> {
        let config = SessionConfig::from_env().with_threads(1);
        let artifacts = SessionArtifacts::build_with(lifter_design().map_err(err)?, &config);
        self.probe_session = Some(DftSession::from_artifacts(artifacts, config));
        self.builds.borrow_mut().log = Some(Vec::new());
        Ok(())
    }

    fn design_costs(&self, tr: &mut Tracer) -> Result<DesignCosts, String> {
        design_costs(lifter_design, WINDOW_LIFTER_SRC, tr)
    }

    fn setup_error(&self) -> Option<&str> {
        self.setup_error.as_deref()
    }

    fn probe(
        &mut self,
        _k: usize,
        op_spans: &[(&'static str, u64)],
        tr: &mut Tracer,
        t: &mut Tally,
    ) {
        attribute(op_spans, t);
        let log = self.builds.borrow_mut().log.replace(Vec::new());
        let log = log.unwrap_or_default();
        let build_ms: f64 = log
            .iter()
            .map(|(a, b, _)| (*b - *a).as_secs_f64() * 1e3)
            .sum();
        tr.enter("probe");
        for (_, _, tc) in &log {
            match self.candidate_probe(tc, tr) {
                Ok((elaborate, run, activations, events, matched)) => {
                    reattribute(t, "self.testgen", "self.core", matched);
                    reattribute(t, "self.core", "self.tdf-sim", elaborate + run);
                    t.add("tdf-sim.elaborate_ms", elaborate);
                    t.add("tdf-sim.run_ms", run);
                    t.add("tdf-sim.activations", activations as f64);
                    t.add("tdf-sim.events", events as f64);
                    t.add("core.match_ms", matched - elaborate - run);
                }
                Err(_) => t.add("probe_failures", 1.0),
            }
        }
        tr.exit();
        t.add("testgen.build_ms", build_ms);
        t.add("testgen.candidates", log.len() as f64);
        t.add("testgen.accepted", self.accepted as f64);
    }
}
