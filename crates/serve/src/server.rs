//! The resilient analysis server: a long-lived TCP listener speaking
//! newline-delimited JSON, an admission-controlled job queue, and a fixed
//! worker pool running the full static → simulate → match pipeline per
//! request.
//!
//! Resilience invariants (exercised by `tests/server.rs`):
//!
//! * a malformed line, a panicking module, a tripped deadline or a
//!   fault-injected cluster produce an **error or degraded response**,
//!   never a dead connection or a dead server;
//! * overload produces an immediate `rejected` response with a
//!   `retry_after_ms` hint instead of unbounded queueing;
//! * responses are **byte-deterministic**: concurrent clients get the
//!   same table bodies a sequential run produces, warm or cold cache;
//! * SIGTERM (or an in-band `shutdown` request) drains: queued and
//!   executing jobs are answered, new work is rejected, then the
//!   listener closes and [`ServerHandle::wait`] returns the final
//!   metrics snapshot.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::admission::{AdmissionConfig, Queue, Rejection};
use crate::cache::{fnv1a, ArtifactCache};
use crate::json::Json;
use crate::proto::{AnalyseRequest, Request, TestcaseSel};
use dft_core::{
    obs, render_table1, render_table2, DftSession, MetricsReport, RetryPolicy, RetryReport,
    RunOutcome, SessionArtifacts, SessionConfig, Table2Row, TestcaseResult, Verdict,
};
use tdf_sim::RunLimits;

/// Longest accepted request line (bytes). Anything longer is answered
/// with an error and the connection is closed — a client streaming an
/// unterminated line cannot balloon server memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Worker-pool size (jobs executing concurrently).
    pub workers: usize,
    /// Admission-queue capacity (jobs waiting beyond the executing ones).
    pub queue_capacity: usize,
    /// Per-tenant queued + executing cap.
    pub per_tenant_in_flight: usize,
    /// Artifact-cache capacity in designs.
    pub cache_capacity: usize,
    /// Default transient-failure retry budget per testcase (requests may
    /// lower or raise their own within `[0, 16]`).
    pub default_retries: u32,
    /// Base backoff between retry attempts.
    pub retry_backoff: Duration,
    /// Whether retries actually sleep their backoff (tests disable).
    pub retry_sleep: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 32,
            per_tenant_in_flight: 4,
            cache_capacity: 8,
            default_retries: 2,
            retry_backoff: Duration::from_millis(25),
            retry_sleep: true,
        }
    }
}

impl ServeConfig {
    /// Reads overrides from `DFT_SERVE_*` environment variables
    /// (`ADDR`, `WORKERS`, `QUEUE`, `TENANT_CAP`, `CACHE`, `RETRIES`).
    pub fn from_env() -> ServeConfig {
        fn var<T: std::str::FromStr>(key: &str) -> Option<T> {
            std::env::var(key).ok()?.parse().ok()
        }
        let mut cfg = ServeConfig::default();
        if let Ok(addr) = std::env::var("DFT_SERVE_ADDR") {
            cfg.addr = addr;
        }
        if let Some(n) = var::<usize>("DFT_SERVE_WORKERS") {
            cfg.workers = n.clamp(1, 64);
        }
        if let Some(n) = var::<usize>("DFT_SERVE_QUEUE") {
            cfg.queue_capacity = n.max(1);
        }
        if let Some(n) = var::<usize>("DFT_SERVE_TENANT_CAP") {
            cfg.per_tenant_in_flight = n.max(1);
        }
        if let Some(n) = var::<usize>("DFT_SERVE_CACHE") {
            cfg.cache_capacity = n.max(1);
        }
        if let Some(n) = var::<u32>("DFT_SERVE_RETRIES") {
            cfg.default_retries = n.min(16);
        }
        cfg
    }
}

/// One admitted analysis job: the parsed request plus the channel its
/// response travels back to the connection thread on.
struct Job {
    request: Box<AnalyseRequest>,
    reply: mpsc::Sender<String>,
}

struct Shared {
    queue: Queue<Job>,
    cache: ArtifactCache,
    config: ServeConfig,
    /// The per-process session knobs requests start from (environment,
    /// resolved once at server start — satellite of the SessionConfig
    /// refactor: no hot-path env reads per request).
    base_session: SessionConfig,
    /// Second cache tier: the last frozen artifacts per design *family*.
    /// A whole-design miss — typically an edited parameterisation of a
    /// known family — rebuilds incrementally from this instead of cold,
    /// splicing every model the edit left unchanged. Bounded by the
    /// design-family enum, so no eviction.
    prev_builds: Mutex<HashMap<&'static str, Arc<SessionArtifacts>>>,
    connections: AtomicUsize,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::begin_shutdown`] then [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain: new `analyse` requests are rejected,
    /// queued and executing ones complete, workers then exit.
    pub fn begin_shutdown(&self) {
        self.shared.queue.begin_drain();
    }

    /// True once a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.queue.is_draining()
    }

    /// Blocks until the drain completes and every thread has exited, then
    /// returns the final process-wide metrics snapshot. Call
    /// [`ServerHandle::begin_shutdown`] first (or send a `shutdown`
    /// request / SIGTERM), otherwise this blocks until one arrives.
    pub fn wait(mut self) -> MetricsReport {
        self.shared.queue.await_drained();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Replies travel job-channel → connection thread → socket; the
        // drain barrier covers the first hop. Give the (microsecond-scale)
        // socket writes a grace window before the caller tears down.
        std::thread::sleep(Duration::from_millis(50));
        MetricsReport::capture()
    }
}

/// Binds the listener and spawns the acceptor + worker threads.
///
/// # Errors
///
/// Propagates bind failures; everything after a successful bind is
/// handled inside the server threads.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        queue: Queue::new(AdmissionConfig {
            queue_capacity: config.queue_capacity,
            per_tenant_in_flight: config.per_tenant_in_flight,
            workers: config.workers,
        }),
        cache: ArtifactCache::new(config.cache_capacity),
        base_session: SessionConfig::from_env(),
        prev_builds: Mutex::new(HashMap::new()),
        connections: AtomicUsize::new(0),
        config,
    });
    let workers = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("dft-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("dft-serve-accept".to_owned())
            .spawn(move || accept_loop(listener, &shared))
            .expect("spawn acceptor")
    };
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.queue.is_draining() {
            return; // closes the listener
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let spawned = std::thread::Builder::new()
                    .name("dft-serve-conn".to_owned())
                    .spawn(move || {
                        handle_connection(stream, &shared);
                        shared.connections.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    // Thread exhaustion: shed the connection, keep serving.
                    obs::Counter::new("serve.conn.spawn_failed").add(1);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Reads one `\n`-terminated line, bounded by [`MAX_LINE_BYTES`].
///
/// `Ok(None)` on clean EOF; `Err(true)` when the line overflowed the
/// bound (answerable), `Err(false)` on I/O errors (connection is gone).
fn read_bounded_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, bool> {
    let mut line = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(false),
        };
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                // EOF mid-line: treat the fragment as the final line.
                Ok(Some(String::from_utf8_lossy(&line).into_owned()))
            };
        }
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..nl]);
            reader.consume(nl + 1);
            if line.len() > MAX_LINE_BYTES {
                return Err(true);
            }
            return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
        }
        let n = buf.len();
        line.extend_from_slice(buf);
        reader.consume(n);
        if line.len() > MAX_LINE_BYTES {
            return Err(true);
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_bounded_line(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return,
            Err(true) => {
                let resp = error_response("", "request line exceeds 1 MiB");
                let _ = writeln!(writer, "{resp}");
                return;
            }
            Err(false) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = dispatch(&line, shared);
        if writeln!(writer, "{response}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

fn error_response(id: &str, message: &str) -> String {
    Json::obj([
        ("id", Json::str(id)),
        ("status", Json::str("error")),
        ("error", Json::str(message)),
    ])
    .to_line()
}

fn rejected_response(id: &str, rejection: &Rejection) -> String {
    Json::obj([
        ("id", Json::str(id)),
        ("status", Json::str("rejected")),
        ("reason", Json::str(rejection.reason.as_str())),
        ("retry_after_ms", Json::num(rejection.retry_after_ms as f64)),
    ])
    .to_line()
}

/// Handles one request line end to end, always producing a response line.
fn dispatch(line: &str, shared: &Arc<Shared>) -> String {
    static REJECTED: obs::Counter = obs::Counter::new("serve.rejected");
    let request = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => {
            obs::Counter::new("serve.malformed").add(1);
            return error_response("", &e.0);
        }
    };
    match request {
        Request::Ping => Json::obj([
            ("status", Json::str("ok")),
            ("op", Json::str("ping")),
            ("draining", Json::Bool(shared.queue.is_draining())),
        ])
        .to_line(),
        Request::Metrics => {
            let report = MetricsReport::capture();
            let parsed = Json::parse(&report.to_json()).unwrap_or(Json::Null);
            Json::obj([("status", Json::str("ok")), ("metrics", parsed)]).to_line()
        }
        Request::Shutdown => {
            shared.queue.begin_drain();
            Json::obj([("status", Json::str("ok")), ("draining", Json::Bool(true))]).to_line()
        }
        Request::Analyse(request) => {
            let id = request.id.clone();
            let tenant = request.tenant.clone();
            let (reply, rx) = mpsc::channel();
            match shared.queue.push(&tenant, Job { request, reply }) {
                Err(rejection) => {
                    REJECTED.add(1);
                    rejected_response(&id, &rejection)
                }
                Ok(()) => rx
                    .recv()
                    .unwrap_or_else(|_| error_response(&id, "worker dropped the request")),
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((tenant, job)) = shared.queue.pop() {
        let started = Instant::now();
        let id = job.request.id.clone();
        // The pipeline already isolates module panics; this outer guard
        // catches server-side bugs so a worker never dies with the queue
        // slot held.
        let response = catch_unwind(AssertUnwindSafe(|| handle_analyse(shared, &job.request)))
            .unwrap_or_else(|_| {
                obs::Counter::new("serve.worker_panics").add(1);
                error_response(&id, "internal error while processing the request")
            });
        let _ = job.reply.send(response);
        shared.queue.complete(&tenant, started.elapsed());
    }
}

fn outcome_json(outcome: &RunOutcome) -> (Json, Json) {
    match outcome {
        RunOutcome::Ok => (Json::str("ok"), Json::Null),
        RunOutcome::Failed { error } => (Json::str("failed"), Json::str(error.clone())),
        RunOutcome::TimedOut { reason } => (Json::str("timed-out"), Json::str(reason.clone())),
        RunOutcome::Panicked { payload } => (Json::str("panicked"), Json::str(payload.clone())),
    }
}

fn testcase_json(result: &TestcaseResult, retry: Option<&RetryReport>) -> Json {
    let (outcome, detail) = outcome_json(&result.outcome);
    Json::obj([
        ("name", Json::str(result.name.clone())),
        ("outcome", outcome),
        ("detail", detail),
        (
            "attempts",
            Json::num(retry.map_or(1, |r| r.attempts.len()) as f64),
        ),
        (
            "salvaged",
            Json::Bool(retry.is_some_and(RetryReport::salvaged)),
        ),
        ("warnings", Json::num(result.warnings.len() as f64)),
    ])
}

/// One testcase's assertion verdicts. Femtosecond violation times are
/// serialized as strings — they exceed the integers JSON numbers carry
/// exactly (2^53 fs is nine simulated seconds); `first_violation_us` is
/// the lossy numeric convenience.
fn verdicts_json(result: &TestcaseResult) -> Json {
    Json::obj([
        ("testcase", Json::str(result.name.clone())),
        (
            "verdicts",
            Json::Arr(
                result
                    .verdicts
                    .iter()
                    .map(|v| {
                        let mut fields = vec![("name", Json::str(v.name.clone()))];
                        match v.verdict {
                            Verdict::Holds => fields.push(("verdict", Json::str("holds"))),
                            Verdict::Vacuous => fields.push(("verdict", Json::str("vacuous"))),
                            Verdict::Inconclusive => {
                                fields.push(("verdict", Json::str("inconclusive")))
                            }
                            Verdict::Fails {
                                first_violation_time,
                            } => {
                                fields.push(("verdict", Json::str("fails")));
                                fields.push((
                                    "first_violation_fs",
                                    Json::str(first_violation_time.as_fs().to_string()),
                                ));
                                fields.push((
                                    "first_violation_us",
                                    Json::num(first_violation_time.as_fs() as f64 / 1e9),
                                ));
                            }
                        }
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs one `analyse` request to completion and renders its response.
fn handle_analyse(shared: &Arc<Shared>, request: &AnalyseRequest) -> String {
    static REQUESTS: obs::Counter = obs::Counter::new("serve.requests");
    static DEGRADED: obs::Counter = obs::Counter::new("serve.degraded_responses");
    static PREEMPTED: obs::Counter = obs::Counter::new("serve.deadline_preempted");
    REQUESTS.add(1);
    let started = Instant::now();
    let deadline = request
        .deadline_ms
        .map(|ms| started + Duration::from_millis(ms));
    let before = MetricsReport::capture();

    // Per-request session knobs: the server's environment-resolved base,
    // overridden by the request.
    let mut session_config = shared.base_session;
    if let Some(threads) = request.threads {
        session_config = session_config.with_threads(threads);
    }

    // Artifact cache: key on everything the frozen artifacts depend on.
    let material = request.design.cache_key_material();
    // Second tier: on a whole-design miss, the family's previous frozen
    // build (if any) seeds an incremental rebuild — only models the edit
    // touched are recomputed, the rest splice. A base configuration with
    // `incremental: false` disables the tier.
    let family_key = request.design.family();
    let via_incremental = std::cell::Cell::new(false);
    let elaborate_started = Instant::now();
    let built = shared.cache.get_or_build(fnv1a(material.as_bytes()), || {
        request.design.design().map(|design| {
            let prev = if session_config.incremental {
                let prev_builds = shared.prev_builds.lock().unwrap_or_else(|p| p.into_inner());
                prev_builds.get(family_key).map(Arc::clone)
            } else {
                None
            };
            match prev {
                Some(prev) => {
                    via_incremental.set(true);
                    SessionArtifacts::build_incremental(design, &prev, &session_config)
                }
                None => SessionArtifacts::build_with(design, &session_config),
            }
        })
    });
    let (artifacts, warm) = match built {
        Ok(pair) => pair,
        Err(e) => return error_response(&request.id, &format!("elaboration failed: {e}")),
    };
    let elaborate_ms = elaborate_started.elapsed().as_secs_f64() * 1e3;
    if !warm {
        let mut prev_builds = shared.prev_builds.lock().unwrap_or_else(|p| p.into_inner());
        prev_builds.insert(family_key, Arc::clone(&artifacts));
    }
    // `cold | warm | incremental` attribution: `warm` is a whole-design
    // hit; a miss that spliced at least one model from the family's
    // previous build is `incremental`; everything else (including a
    // splice attempt where every model changed) is `cold`.
    let artifact_state = if warm {
        "warm"
    } else if via_incremental.get() && artifacts.models_rebuilt() < artifacts.model_count() {
        "incremental"
    } else {
        "cold"
    };
    let models_rebuilt = if warm { 0 } else { artifacts.models_rebuilt() };
    let mut session = DftSession::from_artifacts(artifacts, session_config);
    if !request.assertions.is_empty() {
        session.set_assertions(request.assertions.clone());
    }

    // Resolve the batch (empty selector = the design's full suite).
    let suite = request.design.suite();
    let selectors: Vec<TestcaseSel> = if request.testcases.is_empty() {
        suite
            .iter()
            .map(|tc| TestcaseSel::Named(tc.name.clone()))
            .collect()
    } else {
        request.testcases.clone()
    };

    let policy = RetryPolicy {
        max_retries: request.retries.unwrap_or(shared.config.default_retries),
        backoff_base: shared.config.retry_backoff,
        sleep: shared.config.retry_sleep,
        ..RetryPolicy::default()
    };
    let mut limits = RunLimits::none();
    if let Some(n) = request.max_activations {
        limits = limits.with_max_activations(n);
    }
    if let Some(n) = request.max_events {
        limits = limits.with_max_events(n);
    }
    if let Some(at) = deadline {
        limits = limits.with_deadline(at);
    }

    let mut retries: Vec<Option<RetryReport>> = Vec::new();
    for sel in &selectors {
        let tc = match sel.resolve(&suite) {
            Ok(tc) => tc,
            Err(e) => {
                let name = match sel {
                    TestcaseSel::Named(name) => name.clone(),
                    TestcaseSel::Custom(tc) => tc.name.clone(),
                };
                session.push_run(TestcaseResult {
                    name,
                    outcome: RunOutcome::Failed {
                        error: e.to_string(),
                    },
                    ..TestcaseResult::default()
                });
                retries.push(None);
                continue;
            }
        };
        // Deadline pre-check: a request that has already spent its budget
        // degrades the *remaining* testcases instead of running them —
        // partial coverage from the completed prefix is still reported.
        if deadline.is_some_and(|at| Instant::now() >= at) {
            PREEMPTED.add(1);
            session.push_run(TestcaseResult {
                name: tc.name.clone(),
                outcome: RunOutcome::TimedOut {
                    reason: "request deadline exhausted before start".to_owned(),
                },
                ..TestcaseResult::default()
            });
            retries.push(None);
            continue;
        }
        let report = session.run_testcase_retrying(
            &tc.name,
            |_attempt| request.design.cluster(&tc, request.fault.as_ref()),
            tc.duration,
            limits,
            &policy,
        );
        retries.push(Some(report));
    }

    let coverage = session.coverage();
    let runs = session.runs();
    let degraded = runs.iter().any(|r| r.outcome.is_degraded());
    if degraded {
        DEGRADED.add(1);
    }
    let testcases = Json::Arr(
        runs.iter()
            .zip(&retries)
            .map(|(r, retry)| testcase_json(r, retry.as_ref()))
            .collect(),
    );
    let (exercised, total) = coverage.total_ratio();
    let mut response = vec![
        ("id", Json::str(request.id.clone())),
        (
            "status",
            Json::str(if degraded { "degraded" } else { "ok" }),
        ),
        ("design", Json::str(request.design.label())),
        ("cache", Json::str(if warm { "warm" } else { "cold" })),
        ("artifact", Json::str(artifact_state)),
        ("testcases", testcases),
        (
            "coverage",
            Json::obj([
                ("exercised", Json::num(exercised as f64)),
                ("static_total", Json::num(total as f64)),
                ("percent", Json::num(coverage.total_percent())),
            ]),
        ),
    ];
    if request.tables {
        let row = Table2Row::from_coverage(&request.design.label(), 0, runs.len(), &coverage);
        response.push(("table1", Json::str(render_table1(&coverage))));
        response.push(("table2", Json::str(render_table2(&[row]))));
    }
    // Verdicts ride along exactly when the request monitored assertions,
    // so assertion-free responses stay byte-identical to earlier builds.
    if !request.assertions.is_empty() {
        response.push((
            "verdicts",
            Json::Arr(runs.iter().map(verdicts_json).collect()),
        ));
    }
    // Per-request observability: the registry delta over this request
    // (empty unless the server runs with DFT_METRICS=1).
    let delta = MetricsReport::capture().delta(&before);
    let stages = Json::parse(&delta.to_json()).unwrap_or(Json::Null);
    response.push((
        "timings",
        Json::obj([
            ("elaborate_ms", Json::num(elaborate_ms)),
            ("models_rebuilt", Json::num(models_rebuilt as f64)),
            ("total_ms", Json::num(started.elapsed().as_secs_f64() * 1e3)),
            ("stages", stages),
        ]),
    ));
    Json::Obj(
        response
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
    .to_line()
}
