//! End-to-end tests of the analysis server over real TCP connections:
//! correctness (responses match a locally-run pipeline byte for byte),
//! resilience (malformed input, deadlines, rejection, drain) and the
//! concurrency-equivalence guarantee (concurrent == sequential, warm and
//! cold cache, 1 and 4 matching threads).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use dft_serve::{start, Json, ServeConfig, ServerHandle};

fn test_config() -> ServeConfig {
    ServeConfig {
        retry_sleep: false,
        workers: 4,
        ..ServeConfig::default()
    }
}

/// One client connection speaking the line protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send_raw(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        Json::parse(line.trim_end()).expect("response is valid JSON")
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.send_raw(line);
        self.recv()
    }
}

fn status(v: &Json) -> &str {
    v.get("status").and_then(Json::as_str).unwrap_or("<none>")
}

fn tables(v: &Json) -> (String, String) {
    (
        v.get("table1")
            .and_then(Json::as_str)
            .expect("table1")
            .to_owned(),
        v.get("table2")
            .and_then(Json::as_str)
            .expect("table2")
            .to_owned(),
    )
}

#[test]
fn ping_metrics_and_malformed_lines() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(&handle);
    let pong = client.roundtrip(r#"{"op":"ping"}"#);
    assert_eq!(status(&pong), "ok");
    assert_eq!(pong.get("draining").and_then(Json::as_bool), Some(false));

    // Malformed lines get error responses on a live connection...
    for bad in [
        "this is not json",
        "{}",
        r#"{"op":"frobnicate"}"#,
        "[1,2,3]",
    ] {
        let resp = client.roundtrip(bad);
        assert_eq!(status(&resp), "error", "{bad}");
        assert!(resp.get("error").and_then(Json::as_str).is_some());
    }
    // ...and the connection still works afterwards.
    let resp = client.roundtrip(r#"{"op":"metrics"}"#);
    assert_eq!(status(&resp), "ok");
    assert!(resp.get("metrics").is_some());

    handle.begin_shutdown();
    handle.wait();
}

#[test]
fn analyse_matches_a_locally_run_pipeline() {
    use systemc_ams_dft_server_oracle::sensor_oracle;
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(&handle);
    let resp = client.roundtrip(r#"{"op":"analyse","id":"r1","design":"sensor"}"#);
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("r1"));
    assert_eq!(resp.get("cache").and_then(Json::as_str), Some("cold"));
    let (t1, _t2) = tables(&resp);
    assert_eq!(t1, sensor_oracle(), "served Table I == locally computed");
    let tcs = resp.get("testcases").and_then(Json::as_arr).unwrap();
    assert_eq!(tcs.len(), 3, "sensor suite is TC1..TC3");
    assert!(tcs
        .iter()
        .all(|t| t.get("outcome").and_then(Json::as_str) == Some("ok")));

    // The second request for the same design hits the artifact cache.
    let warm = client.roundtrip(r#"{"op":"analyse","id":"r2","design":"sensor"}"#);
    assert_eq!(warm.get("cache").and_then(Json::as_str), Some("warm"));
    assert_eq!(tables(&warm).0, t1, "warm response is byte-identical");

    // A different parameterisation is a different artifact (cold again).
    let buggy = client
        .roundtrip(r#"{"op":"analyse","id":"r3","design":{"name":"sensor","full_scale":511}}"#);
    assert_eq!(buggy.get("cache").and_then(Json::as_str), Some("cold"));

    handle.begin_shutdown();
    handle.wait();
}

/// Local oracle for the sensor Table I, computed through the library the
/// same way a client would check the server's work.
mod systemc_ams_dft_server_oracle {
    use ams_models::sensor;
    use dft_core::{render_table1, DftSession};

    pub fn sensor_oracle() -> String {
        sensor_oracle_at(sensor::FIXED_ADC_FULL_SCALE)
    }

    /// Like [`sensor_oracle`] but parameterised by ADC full-scale, with
    /// incremental artifact reuse forced off — a pure cold build to hold
    /// the server's incremental path against.
    pub fn sensor_oracle_at(full_scale: f64) -> String {
        use dft_core::{SessionArtifacts, SessionConfig};
        let design = sensor::sensor_design(full_scale).unwrap();
        let config = SessionConfig::from_env().with_incremental(false);
        let artifacts = SessionArtifacts::build_with(design, &config);
        let mut session = DftSession::from_artifacts(artifacts, config);
        for tc in sensor::sensor_testcases() {
            let (cluster, _) = sensor::build_sensor_cluster(&tc, full_scale).unwrap();
            session
                .run_testcase(&tc.name, cluster, tc.duration)
                .unwrap();
        }
        render_table1(&session.coverage())
    }
}

/// The three case studies, as analyse request lines. Subsets of the two
/// big suites keep the equivalence matrix fast while still spanning all
/// three designs.
fn case_study_requests(threads: usize) -> Vec<String> {
    vec![
        format!(
            r#"{{"op":"analyse","id":"sensor","tenant":"eq","design":"sensor","threads":{threads}}}"#
        ),
        format!(
            r#"{{"op":"analyse","id":"lifter","tenant":"eq","design":"window-lifter","threads":{threads},"testcases":["up_0","up_1","down_0","idle"]}}"#
        ),
        format!(
            r#"{{"op":"analyse","id":"bb","tenant":"eq","design":"buck-boost","threads":{threads},"testcases":["buck_0","buck_1","boost_0"]}}"#
        ),
    ]
}

/// Satellite: N concurrent clients get byte-identical Table I/II bodies
/// to a sequential client, warm cache and cold, at 1 and 4 threads.
#[test]
fn concurrent_responses_equal_sequential_warm_and_cold() {
    let handle = start(test_config()).unwrap();

    // Sequential, cold cache, threads=1 — the reference bodies.
    let mut client = Client::connect(&handle);
    let mut reference = Vec::new();
    for req in case_study_requests(1) {
        let resp = client.roundtrip(&req);
        assert_eq!(status(&resp), "ok", "{resp:?}");
        assert_eq!(resp.get("cache").and_then(Json::as_str), Some("cold"));
        reference.push(tables(&resp));
    }

    // Sequential, warm, threads=4.
    for (req, expected) in case_study_requests(4).iter().zip(&reference) {
        let resp = client.roundtrip(req);
        assert_eq!(resp.get("cache").and_then(Json::as_str), Some("warm"));
        assert_eq!(&tables(&resp), expected, "warm/threads=4 differs");
    }

    // Concurrent, warm, both thread counts: one client per case study.
    for threads in [1usize, 4] {
        let joins: Vec<_> = case_study_requests(threads)
            .into_iter()
            .map(|req| {
                let mut c = Client::connect(&handle);
                std::thread::spawn(move || c.roundtrip(&req))
            })
            .collect();
        for (join, expected) in joins.into_iter().zip(&reference) {
            let resp = join.join().unwrap();
            assert_eq!(status(&resp), "ok");
            assert_eq!(&tables(&resp), expected, "concurrent differs (t={threads})");
        }
    }
    handle.begin_shutdown();
    handle.wait();

    // Concurrent, cold: a fresh server, all three built in parallel.
    let handle = start(test_config()).unwrap();
    let joins: Vec<_> = case_study_requests(4)
        .into_iter()
        .map(|req| {
            let mut c = Client::connect(&handle);
            std::thread::spawn(move || c.roundtrip(&req))
        })
        .collect();
    for (join, expected) in joins.into_iter().zip(&reference) {
        let resp = join.join().unwrap();
        assert_eq!(resp.get("cache").and_then(Json::as_str), Some("cold"));
        assert_eq!(&tables(&resp), expected, "concurrent-cold differs");
    }
    handle.begin_shutdown();
    handle.wait();
}

/// Tentpole: assertions ride the analyse request and verdicts ride the
/// response — evaluated in the same simulation pass as coverage. The
/// probe's producer doubles its input, so P1 (level 1.0) drives
/// `producer.op_y` to 2.0 from the very first activation.
#[test]
fn analyse_with_assertions_returns_verdicts() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(&handle);
    let resp = client.roundtrip(
        r#"{"op":"analyse","id":"a1","design":"probe","testcases":["P1"],"assertions":[{"name":"bounded","assert":{"op":"never_above","signal":"producer.op_y","level":10.0}},{"name":"small","assert":{"op":"never_above","signal":"producer.op_y","level":1.5}}]}"#,
    );
    assert_eq!(status(&resp), "ok", "{resp:?}");
    let verdicts = resp
        .get("verdicts")
        .and_then(Json::as_arr)
        .expect("verdicts");
    assert_eq!(verdicts.len(), 1, "one entry per testcase");
    let tc = &verdicts[0];
    assert_eq!(tc.get("testcase").and_then(Json::as_str), Some("P1"));
    let vs = tc.get("verdicts").and_then(Json::as_arr).unwrap();
    assert_eq!(vs.len(), 2, "spec order, one verdict per assertion");
    assert_eq!(vs[0].get("name").and_then(Json::as_str), Some("bounded"));
    assert_eq!(vs[0].get("verdict").and_then(Json::as_str), Some("holds"));
    assert_eq!(vs[1].get("name").and_then(Json::as_str), Some("small"));
    assert_eq!(vs[1].get("verdict").and_then(Json::as_str), Some("fails"));
    // Lossless femtosecond time comes back as a string; op_y first
    // exceeds 1.5 at the producer's very first activation (t = 0).
    assert_eq!(
        vs[1].get("first_violation_fs").and_then(Json::as_str),
        Some("0")
    );

    // An assertion-free request carries no verdicts key at all, so
    // pre-existing clients see byte-identical responses.
    let plain =
        client.roundtrip(r#"{"op":"analyse","id":"a2","design":"probe","testcases":["P1"]}"#);
    assert_eq!(status(&plain), "ok");
    assert!(
        plain.get("verdicts").is_none(),
        "no assertions, no verdicts"
    );

    // Malformed assertion specs are protocol errors, not crashes.
    let bad = client.roundtrip(
        r#"{"op":"analyse","id":"a3","design":"probe","assertions":[{"name":"x","assert":{"op":"sometime"}}]}"#,
    );
    assert_eq!(status(&bad), "error", "{bad:?}");
    handle.begin_shutdown();
    handle.wait();
}

/// A probe testcase that simulates far longer than any test deadline.
fn runaway_request(id: &str, deadline_ms: u64, retries: u32) -> String {
    format!(
        r#"{{"op":"analyse","id":"{id}","design":"probe","deadline_ms":{deadline_ms},"retries":{retries},"testcases":[{{"name":"RUNAWAY","duration_us":30000000,"channels":{{"level":{{"kind":"constant","level":1}}}}}}]}}"#
    )
}

#[test]
fn deadlines_degrade_the_request_not_the_server() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(&handle);
    let resp = client.roundtrip(&runaway_request("dl", 60, 2));
    assert_eq!(status(&resp), "degraded", "{resp:?}");
    let tcs = resp.get("testcases").and_then(Json::as_arr).unwrap();
    assert_eq!(
        tcs[0].get("outcome").and_then(Json::as_str),
        Some("timed-out")
    );
    // The absolute deadline is not escalated by retries: all three
    // attempts trip it, and the supervisor reports them.
    assert_eq!(tcs[0].get("attempts").and_then(Json::as_u64), Some(3));
    assert_eq!(tcs[0].get("salvaged").and_then(Json::as_bool), Some(false));
    // The server (and the very same connection) survive.
    assert_eq!(status(&client.roundtrip(r#"{"op":"ping"}"#)), "ok");
    handle.begin_shutdown();
    handle.wait();
}

#[test]
fn overload_rejects_with_retry_hints() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        per_tenant_in_flight: 1,
        retry_sleep: false,
        ..ServeConfig::default()
    };
    let handle = start(config).unwrap();

    // Occupy the single worker with a runaway request (bounded by its own
    // deadline so the test always terminates).
    let mut busy = Client::connect(&handle);
    busy.send_raw(&runaway_request("busy", 2000, 0));
    std::thread::sleep(Duration::from_millis(150)); // let it start executing

    // Same tenant (anonymous) again: per-tenant cap trips.
    let mut second = Client::connect(&handle);
    let rej = second.roundtrip(r#"{"op":"analyse","id":"t2","design":"probe","testcases":["P1"]}"#);
    assert_eq!(status(&rej), "rejected", "{rej:?}");
    assert_eq!(
        rej.get("reason").and_then(Json::as_str),
        Some("tenant-busy")
    );
    assert!(rej.get("retry_after_ms").and_then(Json::as_u64).unwrap() > 0);

    // A second tenant fits in the queue; a third finds it full.
    let mut t3 = Client::connect(&handle);
    t3.send_raw(
        r#"{"op":"analyse","id":"t3","tenant":"other","design":"probe","testcases":["P1"]}"#,
    );
    std::thread::sleep(Duration::from_millis(100)); // let it enqueue
    let mut t4 = Client::connect(&handle);
    let full = t4.roundtrip(
        r#"{"op":"analyse","id":"t4","tenant":"third","design":"probe","testcases":["P1"]}"#,
    );
    assert_eq!(status(&full), "rejected");
    assert_eq!(
        full.get("reason").and_then(Json::as_str),
        Some("queue-full")
    );

    // Everything admitted still completes.
    assert_eq!(status(&busy.recv()), "degraded"); // deadline-tripped runaway
    assert_eq!(status(&t3.recv()), "ok");
    handle.begin_shutdown();
    handle.wait();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let handle = start(ServeConfig {
        workers: 1,
        retry_sleep: false,
        ..ServeConfig::default()
    })
    .unwrap();

    // A request that takes a while (bounded by its deadline).
    let mut slow = Client::connect(&handle);
    slow.send_raw(&runaway_request("slow", 800, 0));
    std::thread::sleep(Duration::from_millis(100));

    // In-band shutdown (same path as SIGTERM in the binary).
    let mut admin = Client::connect(&handle);
    let ack = admin.roundtrip(r#"{"op":"shutdown"}"#);
    assert_eq!(ack.get("draining").and_then(Json::as_bool), Some(true));

    // New work is rejected while draining...
    let rej =
        admin.roundtrip(r#"{"op":"analyse","id":"late","design":"probe","testcases":["P1"]}"#);
    assert_eq!(status(&rej), "rejected");
    assert_eq!(rej.get("reason").and_then(Json::as_str), Some("draining"));

    // ...but the in-flight request is answered before the server exits.
    let resp = slow.recv();
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("slow"));
    assert_eq!(status(&resp), "degraded");
    handle.wait();
}

#[test]
fn oversized_lines_are_answered_then_the_connection_closes() {
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(&handle);
    let huge = "x".repeat(dft_serve::MAX_LINE_BYTES + 16);
    client.send_raw(&huge);
    let resp = client.recv();
    assert_eq!(status(&resp), "error");
    assert!(resp
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("1 MiB"));
    // That connection is closed; a fresh one works.
    let mut fresh = Client::connect(&handle);
    assert_eq!(status(&fresh.roundtrip(r#"{"op":"ping"}"#)), "ok");
    handle.begin_shutdown();
    handle.wait();
}

#[cfg(feature = "fault-inject")]
mod fault_soak {
    use super::*;

    #[test]
    fn injected_panics_degrade_responses_never_the_server() {
        let handle = start(test_config()).unwrap();
        let mut client = Client::connect(&handle);
        let resp = client.roundtrip(
            r#"{"op":"analyse","id":"f1","design":"probe","retries":1,"testcases":["P1","P2"],"fault":{"kind":"panic_after","after":2}}"#,
        );
        assert_eq!(status(&resp), "degraded", "{resp:?}");
        let tcs = resp.get("testcases").and_then(Json::as_arr).unwrap();
        for tc in tcs {
            // The saboteur is deterministic, so every retry panics too:
            // budget exhausted, outcome stays panicked.
            assert_eq!(tc.get("outcome").and_then(Json::as_str), Some("panicked"));
            assert_eq!(tc.get("attempts").and_then(Json::as_u64), Some(2));
        }
        assert_eq!(status(&client.roundtrip(r#"{"op":"ping"}"#)), "ok");
        handle.begin_shutdown();
        handle.wait();
    }

    #[test]
    fn corrupted_event_streams_stay_answered() {
        let handle = start(test_config()).unwrap();
        let mut client = Client::connect(&handle);
        let resp = client.roundtrip(
            r#"{"op":"analyse","id":"f2","design":"probe","testcases":["P1"],"fault":{"kind":"corrupt_events","seed":7,"rate":0.5}}"#,
        );
        // Lenient matching absorbs the corruption: the run completes (with
        // warnings), the server stays healthy.
        assert!(matches!(status(&resp), "ok" | "degraded"), "{resp:?}");
        assert_eq!(status(&client.roundtrip(r#"{"op":"ping"}"#)), "ok");
        handle.begin_shutdown();
        handle.wait();
    }

    #[test]
    fn soak_many_sabotaged_requests_concurrently() {
        let handle = start(test_config()).unwrap();
        let joins: Vec<_> = (0..8)
            .map(|i| {
                let mut c = Client::connect(&handle);
                let kind = match i % 3 {
                    0 => r#"{"kind":"panic_after","after":1}"#,
                    1 => r#"{"kind":"corrupt_events","seed":9,"rate":0.3}"#,
                    _ => r#"{"kind":"stall","after":0,"stall_ms":50}"#,
                };
                let req = format!(
                    r#"{{"op":"analyse","id":"soak{i}","design":"probe","retries":0,"deadline_ms":200,"testcases":["P1"],"fault":{kind}}}"#
                );
                std::thread::spawn(move || c.roundtrip(&req))
            })
            .collect();
        for join in joins {
            let resp = join.join().unwrap();
            let s = status(&resp);
            assert!(
                matches!(s, "ok" | "degraded" | "rejected"),
                "unexpected status {s}: {resp:?}"
            );
        }
        // After the soak, the server still answers cleanly.
        let mut c = Client::connect(&handle);
        let clean = c.roundtrip(r#"{"op":"analyse","id":"clean","design":"probe"}"#);
        assert_eq!(status(&clean), "ok", "{clean:?}");
        handle.begin_shutdown();
        handle.wait();
    }
}

/// Tentpole: a one-model edit (new ADC full-scale) misses the
/// whole-design cache tier but is rebuilt incrementally from the family's
/// previous build — and the served tables stay byte-identical to a pure
/// cold build with incremental reuse forced off.
#[test]
fn one_model_edit_is_served_incrementally() {
    use systemc_ams_dft_server_oracle::sensor_oracle_at;
    let handle = start(test_config()).unwrap();
    let mut client = Client::connect(&handle);

    let cold = client.roundtrip(r#"{"op":"analyse","id":"i1","design":"sensor"}"#);
    assert_eq!(status(&cold), "ok", "{cold:?}");
    assert_eq!(cold.get("cache").and_then(Json::as_str), Some("cold"));
    assert_eq!(cold.get("artifact").and_then(Json::as_str), Some("cold"));

    // Same family, edited ADC interface: cold at the whole-design tier,
    // incremental at the per-model tier.
    let edited = client
        .roundtrip(r#"{"op":"analyse","id":"i2","design":{"name":"sensor","full_scale":511}}"#);
    assert_eq!(status(&edited), "ok", "{edited:?}");
    assert_eq!(edited.get("cache").and_then(Json::as_str), Some("cold"));
    assert_eq!(
        edited.get("artifact").and_then(Json::as_str),
        Some("incremental"),
        "{edited:?}"
    );
    // A one-model edit rebuilds at most the edited model — possibly zero
    // when the process-wide per-model cache already holds it (other tests
    // in this binary analyse the fs=511 parameterisation too).
    let rebuilt = edited
        .get("timings")
        .and_then(|t| t.get("models_rebuilt"))
        .and_then(Json::as_f64)
        .expect("timings.models_rebuilt");
    assert!(
        (0.0..=1.0).contains(&rebuilt),
        "one-model edit rebuilt {rebuilt} models"
    );
    assert_eq!(
        tables(&edited).0,
        sensor_oracle_at(511.0),
        "incremental rebuild must be byte-identical to a cold build"
    );

    // Repeating the edited design hits the whole-design tier.
    let warm = client
        .roundtrip(r#"{"op":"analyse","id":"i3","design":{"name":"sensor","full_scale":511}}"#);
    assert_eq!(warm.get("cache").and_then(Json::as_str), Some("warm"));
    assert_eq!(warm.get("artifact").and_then(Json::as_str), Some("warm"));

    handle.begin_shutdown();
    handle.wait();
}
