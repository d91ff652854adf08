//! `serve-sensor`: one client connection to an in-process `dft-serve`
//! (default configuration, 2 workers) sending `analyse` requests for the
//! sensor design, each with one seeded 2 ms custom testcase and the same
//! assertion set. Three in four requests reuse one of 4 hot ADC full-scale
//! values (warm artifact-cache reads); one in four uses a value never seen
//! before (a one-model incremental rebuild: parse, statics, automaton).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ams_models::sensor::{sensor_design, FIXED_ADC_FULL_SCALE, SENSOR_SRC};
use dft_core::{
    render_table1, DftSession, SessionArtifacts, SessionConfig, TestcaseResult, Verdict,
};
use dft_serve::{AnalyseRequest, Json, Request, ServeConfig, ServerHandle, TestcaseSel};
use tdf_sim::Simulator;

use crate::measure::{attribute, reattribute, Rng, Tally, Tracer};
use crate::probes::{design_costs, CountingSink, DesignCosts};
use crate::runner::Workload;

/// Hot full-scale values. 511 and 1023 saturate the ADC on some inputs,
/// 2047 and 4095 never do.
const HOT: [f64; 4] = [511.0, 1023.0, 2047.0, 4095.0];
/// Fresh values start here: they never saturate the ADC, so every write
/// request has the expected outcome of this value.
const FRESH_BASE: f64 = 8192.0;
/// The probes' own edits start here, clear of every value a request uses.
const PROBE_BASE: f64 = 65536.0;
/// Requests per pass: 16 rounds of 3 reads and 1 write.
pub const PASS_LEN: usize = 64;

/// Fresh-value counter, process-wide so repeated set-ups never reuse one.
static FRESH: AtomicU64 = AtomicU64::new(0);

fn fresh(base: f64) -> f64 {
    base + FRESH.fetch_add(1, Ordering::Relaxed) as f64 / 1024.0
}

const ASSERTIONS: &str = r#"[{"name":"adc_in_range","assert":{"op":"never_above","signal":"adc.op_adc_out","level":1200}},{"name":"t_led_off","assert":{"op":"never_above","signal":"ctrl.op_T_LED","level":0.5}},{"name":"hold_rare","assert":{"op":"recurs","signal":"ctrl.op_hold","pred":{"kind":"above","level":0.5},"count":3,"bound":"at_most","window_us":1000}}]"#;

/// One request slot of a pass: which hot value it reads (`None`: a write)
/// and its testcase, as JSON.
struct Slot {
    hot: Option<usize>,
    testcase: String,
}

/// What a response must say for one slot.
#[derive(Debug, PartialEq)]
struct Expected {
    exercised: usize,
    verdicts: Vec<(String, String)>,
    table1: String,
}

pub struct ServeSensor {
    server: Option<ServerHandle>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    slots: Vec<Slot>,
    /// Expected outcome of each slot, from in-process sessions.
    expected: Vec<Expected>,
    /// Artifacts per design class: the hot values, then [`FRESH_BASE`].
    classes: Vec<Arc<SessionArtifacts>>,
    request_no: u64,
    /// Full scale of the request just sent.
    full_scale: f64,
    rejected: u64,
    /// The last checked response, for the probes.
    last: Option<Json>,
    /// Traced run only: the base of the probes' one-model edits.
    probe_prev: Option<Arc<SessionArtifacts>>,
    setup_error: Option<String>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn config() -> SessionConfig {
    SessionConfig::from_env().with_threads(1)
}

fn num(n: f64) -> String {
    format!("{n}")
}

/// A seeded 2 ms sensor stimulus: a temperature waveform, and a humidity
/// input that mostly idles below its interrupt threshold.
fn testcase_json(rng: &mut Rng, name: &str) -> String {
    let ts = match rng.below(5) {
        0 => format!(
            r#"{{"kind":"triangle","from":0,"to":{},"start_us":0,"end_us":2000}}"#,
            num(rng.range(0.3, 1.6))
        ),
        1 => format!(
            r#"{{"kind":"step","before":{},"after":{},"at_us":{}}}"#,
            num(rng.range(-0.1, 0.3)),
            num(rng.range(0.3, 1.6)),
            200 + rng.below(1600)
        ),
        2 => format!(
            r#"{{"kind":"ramp","from":{},"to":{},"start_us":{},"end_us":2000}}"#,
            num(rng.range(-0.1, 0.5)),
            num(rng.range(0.5, 1.6)),
            rng.below(1000)
        ),
        3 => format!(
            r#"{{"kind":"sine","offset":{},"amplitude":{},"freq_hz":{}}}"#,
            num(rng.range(0.2, 0.8)),
            num(rng.range(0.05, 0.6)),
            num(rng.range(500.0, 5000.0))
        ),
        _ => format!(
            r#"{{"kind":"constant","level":{}}}"#,
            num(rng.range(-0.1, 1.6))
        ),
    };
    let hs = match rng.below(4) {
        0 => format!(
            r#"{{"kind":"pwm","low":-0.05,"high":{},"period_us":{},"duty":{}}}"#,
            num(rng.range(0.2, 0.5)),
            200 + rng.below(600),
            num(rng.range(0.2, 0.8))
        ),
        1 => format!(
            r#"{{"kind":"constant","level":{}}}"#,
            num(rng.range(0.2, 0.5))
        ),
        _ => r#"{"kind":"constant","level":-0.05}"#.to_owned(),
    };
    format!(r#"{{"name":"{name}","duration_us":2000,"channels":{{"ts_in":{ts},"hs_in":{hs}}}}}"#)
}

fn request_line(id: u64, full_scale: f64, testcase: &str) -> String {
    format!(
        r#"{{"op":"analyse","id":"r{id}","tenant":"bench","threads":1,"design":{{"name":"sensor","full_scale":{}}},"testcases":[{testcase}],"assertions":{ASSERTIONS}}}"#,
        num(full_scale)
    )
}

/// Parses a request the way the server does, so the in-process reference
/// and the probes see exactly the inputs the server sees.
fn parse_request(line: &str) -> Result<AnalyseRequest, String> {
    match Request::parse(line).map_err(err)? {
        Request::Analyse(a) => Ok(*a),
        _ => Err("not an analyse request".into()),
    }
}

fn custom_testcase(req: &AnalyseRequest) -> Result<stimuli::Testcase, String> {
    match req.testcases.first() {
        Some(TestcaseSel::Custom(tc)) => Ok(tc.clone()),
        _ => Err("request without a custom testcase".into()),
    }
}

fn verdict_name(v: &Verdict) -> String {
    match v {
        Verdict::Holds => "holds".into(),
        Verdict::Vacuous => "vacuous".into(),
        Verdict::Inconclusive => "inconclusive".into(),
        Verdict::Fails {
            first_violation_time,
        } => format!("fails@{}", first_violation_time.as_fs()),
    }
}

fn expected_of(run: &TestcaseResult, session: &DftSession) -> Expected {
    let coverage = session.coverage();
    Expected {
        exercised: coverage.total_ratio().0,
        verdicts: run
            .verdicts
            .iter()
            .map(|v| (v.name.clone(), verdict_name(&v.verdict)))
            .collect(),
        table1: render_table1(&coverage),
    }
}

fn response_outcome(resp: &Json) -> Option<Expected> {
    let verdicts = resp
        .get("verdicts")?
        .as_arr()?
        .first()?
        .get("verdicts")?
        .as_arr()?;
    Some(Expected {
        exercised: resp.get("coverage")?.get("exercised")?.as_u64()? as usize,
        verdicts: verdicts
            .iter()
            .map(|v| {
                let name = v.get("name")?.as_str()?.to_owned();
                let verdict = match v.get("verdict")?.as_str()? {
                    "fails" => format!("fails@{}", v.get("first_violation_fs")?.as_str()?),
                    other => other.to_owned(),
                };
                Some((name, verdict))
            })
            .collect::<Option<Vec<_>>>()?,
        table1: resp.get("table1")?.as_str()?.to_owned(),
    })
}

impl ServeSensor {
    /// Generates the pass, computes every slot's expected outcome
    /// in-process, starts the server, connects, and sends one warm-up pass.
    pub fn setup(seed: u64) -> Result<ServeSensor, String> {
        let mut rng = Rng::new(seed);
        // Each block of 4 rounds leaves out every hot value once, so a hot
        // value is read at least every other round and never falls out of
        // the server's 8-entry LRU cache.
        let mut slots = Vec::with_capacity(PASS_LEN);
        for _block in 0..PASS_LEN / 16 {
            let mut left_out = [0, 1, 2, 3];
            rng.shuffle(&mut left_out);
            for skip in left_out {
                let mut round: Vec<Option<usize>> =
                    (0..4).map(|h| (h != skip).then_some(h)).collect();
                rng.shuffle(&mut round);
                for hot in round {
                    let name = format!("X{}", slots.len());
                    slots.push(Slot {
                        hot,
                        testcase: testcase_json(&mut rng, &name),
                    });
                }
            }
        }
        let classes = HOT
            .iter()
            .chain([&FRESH_BASE])
            .map(|&fs| {
                sensor_design(fs)
                    .map(|d| SessionArtifacts::build_with(d, &config().with_incremental(false)))
                    .map_err(err)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut expected = Vec::with_capacity(PASS_LEN);
        for slot in &slots {
            let class = slot.hot.unwrap_or(HOT.len());
            let fs = HOT.get(class).copied().unwrap_or(FRESH_BASE);
            let req = parse_request(&request_line(0, fs, &slot.testcase))?;
            let tc = custom_testcase(&req)?;
            let mut session = DftSession::from_artifacts(Arc::clone(&classes[class]), config())
                .with_assertions(req.assertions.clone());
            let cluster = req.design.cluster(&tc, None).map_err(err)?;
            session
                .run_testcase(&tc.name, cluster, tc.duration)
                .map_err(err)?;
            let run = session.runs().last().ok_or("no run")?;
            expected.push(expected_of(run, &session));
        }

        let server = dft_serve::start(ServeConfig::default()).map_err(err)?;
        let writer = TcpStream::connect(server.addr()).map_err(err)?;
        writer.set_nodelay(true).map_err(err)?;
        let reader = BufReader::new(writer.try_clone().map_err(err)?);
        let mut w = ServeSensor {
            server: Some(server),
            reader,
            writer,
            slots,
            expected,
            classes,
            request_no: 0,
            full_scale: 0.0,
            rejected: 0,
            last: None,
            probe_prev: None,
            setup_error: None,
        };
        let mut off = Tracer::new(false);
        for k in 0..PASS_LEN {
            let out = w.op(k, &mut off)?;
            if let Err(e) = w.check(k, out) {
                w.setup_error
                    .get_or_insert(format!("warm-up request {k}: {e}"));
            }
        }
        Ok(w)
    }

    /// Sends one request line and reads its response line.
    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.writer.write_all(line.as_bytes()).map_err(err)?;
        self.writer.write_all(b"\n").map_err(err)?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp).map_err(err)? == 0 {
            return Err("server closed the connection".into());
        }
        Ok(resp)
    }

    /// In-process differential runs of slot `k`'s testcase on its design
    /// class: (NullSink elaborate_ms, run_ms, activations, events), the
    /// matched run ms, the matched-and-monitored run ms, render_table1 ms.
    fn session_probe(&self, k: usize, tr: &mut Tracer) -> Result<[f64; 7], String> {
        let slot = &self.slots[k];
        let class = slot.hot.unwrap_or(HOT.len());
        let artifacts = &self.classes[class];
        let req = parse_request(&request_line(0, self.full_scale, &slot.testcase))?;
        let tc = custom_testcase(&req)?;
        let cluster = |tr: &mut Tracer| {
            tr.span("models.build_cluster", || req.design.cluster(&tc, None))
                .map_err(err)
        };

        let mut c = cluster(tr)?;
        c.set_interner(Arc::clone(artifacts.design().interner()));
        tr.enter("tdf-sim.elaborate");
        let sim = Simulator::new(c);
        let elaborate = tr.exit() as f64 / 1e6;
        let mut sim = sim.map_err(err)?;
        let mut sink = CountingSink::default();
        tr.enter("tdf-sim.run");
        let stats = sim.run(tc.duration, &mut sink);
        let run = tr.exit() as f64 / 1e6;
        let activations = stats.map_err(err)?.activations;

        let mut plain = DftSession::from_artifacts(Arc::clone(artifacts), config());
        let c = cluster(tr)?;
        tr.enter("core.run_testcase");
        let r = plain.run_testcase(&tc.name, c, tc.duration).map(|_| ());
        let matched = tr.exit() as f64 / 1e6;
        r.map_err(err)?;

        let mut monitored = DftSession::from_artifacts(Arc::clone(artifacts), config())
            .with_assertions(req.assertions.clone());
        let c = cluster(tr)?;
        tr.enter("monitor.run_testcase");
        let r = monitored.run_testcase(&tc.name, c, tc.duration).map(|_| ());
        let observed = tr.exit() as f64 / 1e6;
        r.map_err(err)?;

        let coverage = monitored.coverage();
        tr.enter("core.render");
        std::hint::black_box(render_table1(&coverage));
        let render = tr.exit() as f64 / 1e6;
        Ok([
            elaborate,
            run,
            activations as f64,
            sink.events as f64,
            matched,
            observed,
            render,
        ])
    }

    /// A one-model edit outside the server: design build ms and
    /// incremental static rebuild ms.
    fn edit_probe(&self, tr: &mut Tracer) -> Result<(f64, f64), String> {
        let prev = self.probe_prev.as_ref().ok_or("probes not enabled")?;
        let fs = fresh(PROBE_BASE);
        tr.enter("models.design");
        let design = sensor_design(fs);
        let design_ms = tr.exit() as f64 / 1e6;
        let design = design.map_err(err)?;
        tr.enter("core.static_edit");
        std::hint::black_box(SessionArtifacts::build_incremental(design, prev, &config()));
        let edit_ms = tr.exit() as f64 / 1e6;
        Ok((design_ms, edit_ms))
    }
}

impl Drop for ServeSensor {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(server) = self.server.take() {
            server.begin_shutdown();
            server.wait();
        }
    }
}

impl Workload for ServeSensor {
    type Out = String;

    fn pass_len(&self) -> usize {
        PASS_LEN
    }

    fn begin_pass(&mut self, _pass: usize) {}

    fn op(&mut self, k: usize, tr: &mut Tracer) -> Result<String, String> {
        self.request_no += 1;
        self.full_scale = match self.slots[k].hot {
            Some(h) => HOT[h],
            None => fresh(FRESH_BASE),
        };
        let line = request_line(self.request_no, self.full_scale, &self.slots[k].testcase);
        tr.enter("serve.request");
        let resp = self.round_trip(&line);
        tr.exit();
        resp
    }

    fn check(&mut self, k: usize, resp: String) -> Result<(), String> {
        let resp = Json::parse(resp.trim_end()).map_err(|e| format!("bad JSON: {e:?}"))?;
        match resp.get("status").and_then(Json::as_str) {
            Some("ok") => {}
            Some("rejected") => {
                self.rejected += 1;
                return Err("rejected".into());
            }
            other => return Err(format!("status {other:?}: {:?}", resp.get("error"))),
        }
        let got = response_outcome(&resp).ok_or("response lacks coverage, verdicts or table1")?;
        if got != self.expected[k] {
            return Err(format!(
                "slot {k}: got {} exercised {:?}, expected {} {:?}",
                got.exercised, got.verdicts, self.expected[k].exercised, self.expected[k].verdicts
            ));
        }
        self.last = Some(resp);
        Ok(())
    }

    /// Builds the base the probes' one-model edits start from.
    fn enable_probes(&mut self) -> Result<(), String> {
        let design = sensor_design(HOT[2]).map_err(err)?;
        self.probe_prev = Some(SessionArtifacts::build_with(design, &config()));
        Ok(())
    }

    fn design_costs(&self, tr: &mut Tracer) -> Result<DesignCosts, String> {
        design_costs(|| sensor_design(FIXED_ADC_FULL_SCALE), SENSOR_SRC, tr)
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
        let Some(resp) = self.last.take() else { return };
        let timing = |key: &str| {
            resp.get("timings")
                .and_then(|j| j.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (total, elaborate) = (timing("total_ms"), timing("elaborate_ms"));
        let round_trip = op_spans
            .iter()
            .filter(|(n, _)| *n == "serve.request")
            .map(|&(_, ns)| ns as f64 / 1e6)
            .sum::<f64>();
        t.add("serve.server_ms", total);
        t.add("serve.elaborate_ms", elaborate);
        t.add("serve.overhead_ms", round_trip - total);
        match resp.get("artifact").and_then(Json::as_str) {
            Some("warm") => t.add("serve.warm", 1.0),
            Some("incremental") => {
                t.add("serve.incremental", 1.0);
                t.add("core.models_rebuilt", timing("models_rebuilt"));
            }
            _ => {}
        }

        tr.enter("probe");
        let session = self.session_probe(k, tr);
        let edit = self.slots[k].hot.is_none().then(|| self.edit_probe(tr));
        tr.exit();
        let Ok([sim_elaborate, run, activations, events, matched, observed, render]) = session
        else {
            t.add("probe_failures", 1.0);
            return;
        };
        t.add("tdf-sim.elaborate_ms", sim_elaborate);
        t.add("tdf-sim.run_ms", run);
        t.add("tdf-sim.activations", activations);
        t.add("tdf-sim.events", events);
        t.add("core.match_ms", matched - sim_elaborate - run);
        t.add("monitor.observe_ms", observed - matched);
        t.add("core.render_ms", render);
        // The server's time splits into artifact fetch or rebuild, the
        // monitored session run and rendering, measured in-process; the
        // rest of the round trip is serve's own.
        reattribute(t, "self.serve", "self.tdf-sim", sim_elaborate + run);
        reattribute(
            t,
            "self.serve",
            "self.core",
            matched - sim_elaborate - run + render,
        );
        reattribute(t, "self.serve", "self.monitor", observed - matched);
        match edit {
            Some(Ok((design_ms, edit_ms))) => {
                t.add("edits", 1.0);
                t.add("core.static_edit_ms", edit_ms);
                // The server's rebuild, at most its measured elaboration.
                let design_ms = design_ms.min(elaborate);
                reattribute(t, "self.serve", "self.models", design_ms);
                reattribute(
                    t,
                    "self.serve",
                    "self.core",
                    edit_ms.min(elaborate - design_ms),
                );
            }
            Some(Err(_)) => t.add("probe_failures", 1.0),
            None => {}
        }
    }

    fn totals(&self, t: &mut Tally) {
        t.add("serve.rejected", self.rejected as f64);
    }
}
