//! The closed loop shared by every workload: one client thread runs whole
//! passes of ops, times each op, and checks each op's output outside the
//! timed interval.

use std::time::Instant;

use crate::measure::{alloc_counts, calibrate, count_allocs, Tally, Tracer, REFERENCE_MS};
use crate::probes::DesignCosts;

/// One workload: a fixed sequence of ops per pass, fixed by the seed.
pub trait Workload {
    /// What an op hands to its output check.
    type Out;

    /// Ops per pass. Every run covers whole passes, so every run has the
    /// same op mix.
    fn pass_len(&self) -> usize;

    /// Prepares pass number `pass` (0-based).
    fn begin_pass(&mut self, pass: usize);

    /// Runs op `k` of the current pass. This call is the timed op.
    fn op(&mut self, k: usize, tr: &mut Tracer) -> Result<Self::Out, String>;

    /// Checks the output of op `k`.
    fn check(&mut self, k: usize, out: Self::Out) -> Result<(), String>;

    /// Checks the pass as a whole, after its last op.
    fn end_pass(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Traced run only: re-runs parts of op `k` outside the op's time to
    /// split fused layers, and attributes the op's time to layers.
    /// `op_spans` are the self times of the op's spans.
    fn probe(&mut self, k: usize, op_spans: &[(&'static str, u64)], tr: &mut Tracer, t: &mut Tally);

    /// A failed set-up check, e.g. a reference that misses its expected
    /// coverage. The run goes on, and reports `correct: false`.
    fn setup_error(&self) -> Option<&str> {
        None
    }

    /// Traced run only: switches the probes on, after the untraced half.
    fn enable_probes(&mut self) -> Result<(), String>;

    /// Traced run only: what the workload's design costs to set up.
    fn design_costs(&self, tr: &mut Tracer) -> Result<DesignCosts, String>;

    /// Adds workload-wide totals to the traced run's tally.
    fn totals(&self, _t: &mut Tally) {}
}

/// When a drive stops: after a wall-clock budget, or after a fixed number
/// of passes (the tests use the latter, so two runs do identical work).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Seconds(f64),
    Passes(usize),
}

/// What a drive measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Latency of every op, ms, scaled to the reference machine speed by
    /// the calibration runs just before and after it.
    pub lat_ms: Vec<f64>,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The first few check failures, for stderr.
    pub errors: Vec<String>,
}

impl Run {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// Runs whole passes until `stop`. With `traced`, every op runs inside an
/// `op` span with allocation counting on, followed by the workload's probes.
pub fn drive<W: Workload>(
    w: &mut W,
    stop: Stop,
    first_pass: usize,
    traced: bool,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Run {
    let mut run = Run::default();
    let started = Instant::now();
    let n = w.pass_len();
    let mut calib_ms = calibrate();
    loop {
        let more = match stop {
            Stop::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Stop::Passes(p) => run.passes < p,
        };
        if !more {
            break;
        }
        w.begin_pass(first_pass + run.passes);
        let mut pass_failed = 0;
        for k in 0..n {
            let mark = tr.len();
            let allocs_before = alloc_counts();
            if traced {
                count_allocs(true);
                tr.enter("op");
            }
            let t0 = Instant::now();
            let out = w.op(k, tr);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if traced {
                tr.exit();
                count_allocs(false);
                let (a, b) = alloc_counts();
                tally.add("allocs", (a - allocs_before.0) as f64);
                tally.add("alloc_bytes", (b - allocs_before.1) as f64);
                tally.add("op_ms", ms);
                tally.add("ops", 1.0);
            }
            let calib_after = calibrate();
            run.lat_ms
                .push(ms * REFERENCE_MS / (0.5 * (calib_ms + calib_after)));
            calib_ms = calib_after;
            run.attempted += 1;
            match out.and_then(|o| w.check(k, o)) {
                Ok(()) => {
                    if traced {
                        let spans = tr.self_ns_since(mark);
                        w.probe(k, &spans, tr, tally);
                        calib_ms = calibrate();
                    }
                }
                Err(e) => {
                    pass_failed += 1;
                    run.fail(format!("pass {} op {k}: {e}", first_pass + run.passes));
                }
            }
        }
        if let Err(e) = w.end_pass() {
            // A failed pass-level check fails every op of the pass that
            // has not failed already.
            for _ in pass_failed..n {
                run.fail(format!("pass {}: {e}", first_pass + run.passes));
            }
        }
        run.passes += 1;
    }
    run
}
