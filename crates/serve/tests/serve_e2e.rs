//! End-to-end tests for the resilient service layer: real sockets, real
//! worker pool, real engines. Each test binds its own server on a free
//! port and shuts it down explicitly.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ofd_datagen::{clinical, csv, PresetConfig};
use ofd_discovery::{DiscoveryOptions, FastOfd};
use ofd_serve::http::{exchange, Reply};
use ofd_serve::{Fleet, PeerTimeouts, Router, RouterConfig, ServeConfig, Server};
use serde_json::{json, Value};

// ------------------------------------------------------------ tiny client

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: Option<&Value>) -> Reply {
    let payload = body.map(Value::to_string).unwrap_or_default();
    let timeouts = PeerTimeouts {
        connect: Duration::from_secs(10),
        read: Duration::from_secs(120),
    };
    exchange(addr, method, path, &[], payload.as_bytes(), &timeouts).expect("request")
}

// --------------------------------------------------------------- fixtures

fn dataset(rows: usize) -> (String, String) {
    let ds = clinical(&PresetConfig {
        n_rows: rows,
        n_attrs: 6,
        n_ofds: 2,
        seed: 11,
        ..PresetConfig::default()
    });
    (
        csv::write_csv(&ds.clean),
        ofd_ontology::write_ontology(&ds.full_ontology),
    )
}

/// Σ of the response as comparable keys — `support_bits` makes the
/// comparison bit-exact, no float formatting in the loop.
fn sigma_keys(reply: &Value) -> Vec<(String, String, u64, u64)> {
    let mut keys: Vec<_> = reply
        .get("ofds")
        .and_then(Value::as_array)
        .expect("ofds array")
        .iter()
        .map(|o| {
            let lhs: Vec<&str> = o
                .get("lhs")
                .and_then(Value::as_array)
                .expect("lhs")
                .iter()
                .map(|v| v.as_str().expect("lhs name"))
                .collect();
            (
                lhs.join(","),
                o.get("rhs").and_then(Value::as_str).expect("rhs").to_string(),
                o.get("support_bits").and_then(Value::as_u64).expect("bits"),
                o.get("level").and_then(Value::as_u64).expect("level"),
            )
        })
        .collect();
    keys.sort();
    keys
}

fn reference_sigma(csv_text: &str, onto_text: &str) -> Vec<(String, String, u64, u64)> {
    let rel = csv::read_csv(csv_text).expect("csv");
    let onto = ofd_ontology::parse_ontology(onto_text).expect("onto");
    let out = FastOfd::new(&rel, &onto)
        .options(DiscoveryOptions::new())
        .run();
    assert!(out.complete, "reference run is uninterrupted");
    let schema = rel.schema();
    let mut keys: Vec<_> = out
        .ofds
        .iter()
        .map(|d| {
            let lhs: Vec<&str> = d.ofd.lhs.iter().map(|a| schema.name(a)).collect();
            (
                lhs.join(","),
                schema.name(d.ofd.rhs).to_string(),
                d.support.to_bits(),
                d.level as u64,
            )
        })
        .collect();
    keys.sort();
    keys
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ofd-serve-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ------------------------------------------------------------------ tests

#[test]
fn health_ready_metrics_and_routing() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    let health = request(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);

    let ready = request(addr, "GET", "/readyz", None);
    assert_eq!(ready.status, 200);
    assert_eq!(ready.json().get("ready").and_then(Value::as_bool), Some(true));

    let metrics = request(addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    let metrics = metrics.json();
    assert_eq!(
        metrics.get("version").and_then(Value::as_u64),
        Some(1),
        "metrics speak schema v1"
    );
    let counters = metrics.get("counters").expect("counters");
    for name in ofd_serve::SERVE_COUNTERS {
        assert!(
            counters.get(name).and_then(Value::as_u64).is_some(),
            "pinned counter {name} present from the first scrape"
        );
    }

    assert_eq!(request(addr, "GET", "/nope", None).status, 405);
    assert_eq!(request(addr, "POST", "/v1/nope", None).status, 404);
    let bad = request(addr, "POST", "/v1/discover", Some(&json!("not an object")));
    assert_eq!(bad.status, 400);

    server.shutdown(Duration::from_secs(5));
}

#[test]
fn discover_roundtrip_matches_in_process_run() {
    let (csv_text, onto_text) = dataset(200);
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    let reply = request(
        addr,
        "POST",
        "/v1/discover",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.json().get("status").and_then(Value::as_str),
        Some("complete")
    );
    assert_eq!(
        sigma_keys(&reply.json()),
        reference_sigma(&csv_text, &onto_text),
        "served Σ is bit-identical to the in-process run"
    );

    let summary = server.shutdown(Duration::from_secs(5));
    assert_eq!(summary.admitted, 1);
    assert_eq!(summary.shed, 0);
}

#[test]
fn validate_and_clean_roundtrip() {
    let (csv_text, onto_text) = dataset(150);
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    // Discover to get a real OFD spec, then validate and clean with it.
    let discovered = request(
        addr,
        "POST",
        "/v1/discover",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    let specs: Vec<Value> = discovered
        .json()
        .get("ofds")
        .and_then(Value::as_array)
        .expect("ofds")
        .iter()
        .take(2)
        .map(|o| {
            let lhs: Vec<&str> = o
                .get("lhs")
                .and_then(Value::as_array)
                .expect("lhs")
                .iter()
                .map(|v| v.as_str().expect("name"))
                .collect();
            json!(format!(
                "{}->{}",
                lhs.join(","),
                o.get("rhs").and_then(Value::as_str).expect("rhs")
            ))
        })
        .collect();
    assert!(!specs.is_empty(), "clinical preset plants OFDs");

    let validated = request(
        addr,
        "POST",
        "/v1/validate",
        Some(&json!({
            "csv": &csv_text,
            "ontology": &onto_text,
            "ofds": Value::Array(specs.clone()),
        })),
    );
    assert_eq!(validated.status, 200);
    assert_eq!(
        validated.json().get("all_satisfied").and_then(Value::as_bool),
        Some(true),
        "discovered OFDs validate on the clean instance"
    );

    let cleaned = request(
        addr,
        "POST",
        "/v1/clean",
        Some(&json!({
            "csv": &csv_text,
            "ontology": &onto_text,
            "ofds": Value::Array(specs),
        })),
    );
    assert_eq!(cleaned.status, 200);
    assert_eq!(
        cleaned.json().get("satisfied").and_then(Value::as_bool),
        Some(true)
    );
    assert!(cleaned
        .json()
        .get("repaired_csv")
        .and_then(Value::as_str)
        .is_some());

    server.shutdown(Duration::from_secs(5));
}

#[test]
fn tiny_queue_sheds_with_backoff_hints_and_retries_succeed() {
    let (csv_text, onto_text) = dataset(800);
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let reference = reference_sigma(&csv_text, &onto_text);

    // Fire a burst bigger than workers + queue; some must shed.
    let mut clients = Vec::new();
    for _ in 0..6 {
        let (csv_text, onto_text) = (csv_text.clone(), onto_text.clone());
        clients.push(std::thread::spawn(move || {
            request(
                addr,
                "POST",
                "/v1/discover",
                Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
            )
        }));
    }
    let replies: Vec<Reply> = clients.into_iter().map(|c| c.join().expect("client")).collect();
    let shed: Vec<&Reply> = replies.iter().filter(|r| r.status == 429).collect();
    let ok: Vec<&Reply> = replies.iter().filter(|r| r.status == 200).collect();
    assert!(!shed.is_empty(), "burst of 6 over capacity 2 must shed");
    assert!(!ok.is_empty(), "some of the burst is admitted");
    for r in &shed {
        assert!(r.header("retry-after").is_some(), "shed carries Retry-After");
        assert!(
            r.json().get("retry_after_ms").and_then(Value::as_u64).is_some(),
            "shed carries a millisecond hint"
        );
    }
    for r in &ok {
        assert_eq!(sigma_keys(&r.json()), reference, "admitted bursts are correct");
    }

    // A shed client that retries with backoff eventually gets through.
    let mut backoff = Duration::from_millis(50);
    let deadline = Instant::now() + Duration::from_secs(60);
    let reply = loop {
        let r = request(
            addr,
            "POST",
            "/v1/discover",
            Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
        );
        if r.status == 200 {
            break r;
        }
        assert_eq!(r.status, 429, "only shedding on this path");
        assert!(Instant::now() < deadline, "retry must eventually succeed");
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_secs(1));
    };
    assert_eq!(sigma_keys(&reply.json()), reference);

    let summary = server.shutdown(Duration::from_secs(10));
    assert!(summary.shed >= 1);
    assert!(summary.admitted >= 1);
}

#[test]
fn drain_cancels_in_flight_then_restart_resumes_byte_identically() {
    let (csv_text, onto_text) = dataset(2500);
    let ckpt = tmp_dir("drain");
    let reference = reference_sigma(&csv_text, &onto_text);

    let server = Server::bind(ServeConfig {
        checkpoint_dir: Some(ckpt.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Long job in flight...
    let inflight = {
        let (csv_text, onto_text) = (csv_text.clone(), onto_text.clone());
        std::thread::spawn(move || {
            request(
                addr,
                "POST",
                "/v1/discover",
                Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
            )
        })
    };
    std::thread::sleep(Duration::from_millis(300));

    // ...when the drain hits (the /admin/drain path, same as SIGTERM).
    let drained = request(addr, "POST", "/admin/drain", None);
    assert_eq!(drained.status, 200);
    assert!(server.is_draining());
    assert!(server.drain_requested());

    // The in-flight job is answered: complete if it won the race, else a
    // sound INCOMPLETE partial cancelled at a checkpoint.
    let reply = inflight.join().expect("inflight client");
    assert_eq!(reply.status, 200, "admitted work is answered, not dropped");
    let body = reply.json();
    let status = body.get("status").and_then(Value::as_str).expect("status");
    if status == "incomplete" {
        assert_eq!(
            body.get("interrupt").and_then(Value::as_str),
            Some("cancelled")
        );
        // Soundness: the partial Σ is a subset of the reference.
        for key in sigma_keys(&body) {
            assert!(reference.contains(&key), "partial Σ entry {key:?} is sound");
        }
    } else {
        assert_eq!(sigma_keys(&body), reference);
    }

    // Draining server refuses new work and reports not-ready.
    assert_eq!(request(addr, "GET", "/readyz", None).status, 503);
    let refused = request(
        addr,
        "POST",
        "/v1/discover",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    assert_eq!(refused.status, 503);
    assert!(refused.header("retry-after").is_some());

    server.shutdown(Duration::from_secs(30));

    // Restart on the same checkpoint dir: the same request resumes (when
    // the drained run got far enough to snapshot) and the final Σ is
    // byte-identical to the uninterrupted reference either way.
    let server = Server::bind(ServeConfig {
        checkpoint_dir: Some(ckpt.clone()),
        ..ServeConfig::default()
    })
    .expect("bind restarted");
    let reply = request(
        server.addr(),
        "POST",
        "/v1/discover",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.json().get("status").and_then(Value::as_str),
        Some("complete")
    );
    assert_eq!(
        sigma_keys(&reply.json()),
        reference,
        "post-restart result is byte-identical to an uninterrupted run"
    );
    server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn breaker_opens_after_consecutive_panics_and_recovers() {
    let (csv_text, onto_text) = dataset(120);
    let server = Server::bind(ServeConfig {
        breaker_threshold: 2,
        breaker_cooldown_ms: 200,
        // The inject_panic chaos hook only arms under an active plan; a
        // zero-probability site keeps the plan itself inert.
        faults: ofd_core::FaultPlan::parse("seed=1,delay%0").expect("plan"),
        ..ServeConfig::default()
    })
    .expect("bind");
    ofd_core::silence_injected_panics();
    let addr = server.addr();
    let body = json!({ "csv": &csv_text, "ontology": &onto_text, "inject_panic": true });

    // Two consecutive handler panics → 500, 500, then the circuit opens.
    assert_eq!(request(addr, "POST", "/v1/discover", Some(&body)).status, 500);
    assert_eq!(request(addr, "POST", "/v1/discover", Some(&body)).status, 500);
    let open = request(addr, "POST", "/v1/discover", Some(&body));
    assert_eq!(open.status, 503);
    assert_eq!(
        open.json().get("error").and_then(Value::as_str),
        Some("circuit_open")
    );
    assert!(open.header("retry-after").is_some());

    // Other endpoints are isolated: their breakers are untouched.
    let other = request(
        addr,
        "POST",
        "/v1/validate",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text, "ofds": ["A->B"] })),
    );
    assert_ne!(other.status, 503, "validate endpoint unaffected");

    // After the cooldown a healthy request is the half-open probe; its
    // success closes the circuit for good.
    std::thread::sleep(Duration::from_millis(300));
    let healthy = json!({ "csv": &csv_text, "ontology": &onto_text });
    let probe = request(addr, "POST", "/v1/discover", Some(&healthy));
    assert_eq!(probe.status, 200, "half-open probe admitted and succeeds");
    let after = request(addr, "POST", "/v1/discover", Some(&healthy));
    assert_eq!(after.status, 200, "circuit closed again");

    let summary = server.shutdown(Duration::from_secs(10));
    assert!(summary.breaker_open >= 1);
}

#[test]
fn client_disconnect_cancels_the_running_job() {
    let (csv_text, onto_text) = dataset(2500);
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    // Send a long discover request, then hang up without reading.
    {
        let body_text =
            serde_json::to_string(&json!({ "csv": &csv_text, "ontology": &onto_text }))
                .expect("serialize");
        let mut stream = TcpStream::connect(addr).expect("connect");
        let head = format!(
            "POST /v1/discover HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
            body_text.len()
        );
        stream.write_all(head.as_bytes()).expect("head");
        stream.write_all(body_text.as_bytes()).expect("body");
        // Dropping the stream closes the socket → watcher sees EOF.
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = server.obs().snapshot();
        if snap.counter_sum("serve.client_disconnect") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect watcher must cancel the abandoned job"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown(Duration::from_secs(30));
}

#[test]
fn completed_jobs_are_never_counted_as_client_disconnects() {
    // Completion wakes the disconnect watcher by shutting down the
    // socket's read side; the EOF that wake produces must read as
    // "done", never as the client hanging up.
    let ds = clinical(&PresetConfig {
        n_rows: 3000,
        n_attrs: 6,
        n_ofds: 2,
        seed: 11,
        ..PresetConfig::default()
    });
    let schema = ds.clean.schema();
    let specs: Vec<String> = ds
        .ofds
        .iter()
        .map(|o| {
            let lhs: Vec<&str> = o.lhs.iter().map(|a| schema.name(a)).collect();
            format!("{}->{}", lhs.join(","), schema.name(o.rhs))
        })
        .collect();
    let base = json!({
        "csv": csv::write_csv(&ds.clean),
        "ontology": ofd_ontology::write_ontology(&ds.full_ontology),
        "ofds": specs,
    });
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let jobs = 8;
    for i in 0..jobs {
        let validated = request(addr, "POST", "/v1/validate", Some(&base));
        assert_eq!(validated.status, 200);
        assert_eq!(
            validated.json().get("status").and_then(Value::as_str),
            Some("complete")
        );
        let mut append = base.clone();
        if let Value::Object(fields) = &mut append {
            fields.push(("rows".into(), json!([ds.clean.row_texts(i)])));
        }
        let appended = request(addr, "POST", "/v1/append", Some(&append));
        assert_eq!(appended.status, 200);
        assert_eq!(
            appended.json().get("status").and_then(Value::as_str),
            Some("complete")
        );
    }
    let snap = server.obs().snapshot();
    assert_eq!(snap.counter("serve.completed"), Some(2 * jobs as u64));
    assert_eq!(
        snap.counter("serve.client_disconnect"),
        Some(0),
        "no client hung up, so no job may be counted as abandoned"
    );
    server.shutdown(Duration::from_secs(5));
}

/// Runs `teardown` on a helper thread and fails (instead of hanging the
/// suite) when it does not return within `limit`.
fn returns_within(limit: Duration, what: &str, teardown: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        teardown();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(limit).is_ok(),
        "{what} did not return within {limit:?}"
    );
}

#[test]
fn idle_server_and_router_shut_down_promptly() {
    // Accept loops block in `accept`; shutdown must wake them, including
    // through loopback when the listener is bound to an unspecified
    // address.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::bind(ServeConfig {
            addr: bind.into(),
            ..ServeConfig::default()
        })
        .expect("bind server");
        returns_within(
            Duration::from_secs(2),
            &format!("Server::shutdown on {bind}"),
            move || {
                server.shutdown(Duration::from_secs(5));
            },
        );
        let router = Router::bind(
            RouterConfig {
                addr: bind.into(),
                ..RouterConfig::default()
            },
            Fleet::Static(Vec::new()),
        )
        .expect("bind router");
        returns_within(
            Duration::from_secs(2),
            &format!("Router::shutdown on {bind}"),
            move || {
                router.shutdown();
            },
        );
    }
}

#[test]
fn readyz_reports_state_queue_depth_and_breaker_summary() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let ready = request(server.addr(), "GET", "/readyz", None);
    assert_eq!(ready.status, 200);
    let ready = ready.json();
    assert_eq!(ready.get("state").and_then(Value::as_str), Some("ok"));
    assert_eq!(ready.get("queue_depth").and_then(Value::as_u64), Some(0));
    assert!(
        ready.get("queue_cap").and_then(Value::as_u64).unwrap_or(0) > 0,
        "capacity reported next to depth"
    );
    let breakers = ready.get("breakers").expect("breaker summary");
    for endpoint in ["discover", "clean", "validate"] {
        assert_eq!(
            breakers.get(endpoint).and_then(Value::as_str),
            Some("closed"),
            "fresh server: {endpoint} breaker closed"
        );
    }
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn dataset_catalog_registers_resolves_and_survives_restart() {
    let (csv_text, onto_text) = dataset(200);
    let ckpt = tmp_dir("catalog");
    let reference = reference_sigma(&csv_text, &onto_text);

    let server = Server::bind(ServeConfig {
        checkpoint_dir: Some(ckpt.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Register once...
    let put = request(
        addr,
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    assert_eq!(put.status, 200);
    assert_eq!(put.json().get("version").and_then(Value::as_u64), Some(1));

    // ...then run jobs by reference instead of re-shipping rows.
    let by_ref = request(addr, "POST", "/v1/discover", Some(&json!({ "dataset": "clinical" })));
    assert_eq!(by_ref.status, 200);
    assert_eq!(
        by_ref.json().get("dataset").and_then(Value::as_str),
        Some("clinical@1"),
        "response echoes the resolved reference"
    );
    assert_eq!(
        sigma_keys(&by_ref.json()),
        reference,
        "by-reference Σ is bit-identical to the inline run"
    );

    // Catalog API: list and describe (metadata only).
    let list = request(addr, "GET", "/v1/datasets", None);
    assert_eq!(list.status, 200);
    assert_eq!(
        list.json().get("datasets").and_then(Value::as_array).map(Vec::len),
        Some(1)
    );
    let meta = request(addr, "GET", "/v1/datasets/clinical", None);
    assert_eq!(meta.status, 200);
    assert_eq!(meta.json().get("n_rows").and_then(Value::as_u64), Some(200));
    assert!(meta.json().get("csv").is_none(), "describe never ships rows");

    // Re-registration appends a version; the pin still resolves v1.
    let put2 = request(
        addr,
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_text })),
    );
    assert_eq!(put2.json().get("version").and_then(Value::as_u64), Some(2));

    // Unknown references and bad names are client errors.
    let unknown = request(addr, "POST", "/v1/discover", Some(&json!({ "dataset": "nope" })));
    assert_eq!(unknown.status, 400);
    let bad = request(addr, "PUT", "/v1/datasets/has.dot", Some(&json!({ "csv": "A\n1\n" })));
    assert_eq!(bad.status, 400);

    server.shutdown(Duration::from_secs(10));

    // Full restart on the same root: the catalog is durable and the
    // pinned version still answers byte-identically.
    let server = Server::bind(ServeConfig {
        checkpoint_dir: Some(ckpt.clone()),
        ..ServeConfig::default()
    })
    .expect("bind restarted");
    let reply = request(
        server.addr(),
        "POST",
        "/v1/discover",
        Some(&json!({ "dataset": "clinical@1" })),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(sigma_keys(&reply.json()), reference, "catalog survives restart");
    server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn cataloged_validates_reuse_the_version_memo_across_workers_and_panics() {
    let (csv_text, onto_text) = dataset(300);
    let ckpt = tmp_dir("validate-memo");
    let server = Server::bind(ServeConfig {
        workers: 2,
        checkpoint_dir: Some(ckpt.clone()),
        // The inject_panic chaos hook only arms under an active plan; a
        // zero-probability site keeps the plan itself inert.
        faults: ofd_core::FaultPlan::parse("seed=1,delay%0").expect("plan"),
        ..ServeConfig::default()
    })
    .expect("bind");
    ofd_core::silence_injected_panics();
    let addr = server.addr();
    let put = request(
        addr,
        "PUT",
        "/v1/datasets/memo",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    assert_eq!(put.status, 200);
    let specs: Vec<&str> = vec!["CC->CTRY", "CC,SYMP->CTRY", "CC->SYMP", "SYMP->CC"];
    let results = |body: Value| {
        let reply = request(addr, "POST", "/v1/validate", Some(&body));
        assert_eq!(reply.status, 200, "{:?}", reply.json());
        let v = reply.json();
        (v.get("results").cloned(), v.get("all_satisfied").cloned())
    };
    // The uncached reference: the same Σ shipped inline.
    let inline =
        results(json!({ "csv": &csv_text, "ontology": &onto_text, "ofds": specs.clone() }));
    assert!(inline.0.is_some());

    // A panicking job on the entry answers 500 and leaves it serving.
    let panicked = request(
        addr,
        "POST",
        "/v1/validate",
        Some(&json!({ "dataset": "memo@1", "ofds": specs.clone(), "inject_panic": true })),
    );
    assert_eq!(panicked.status, 500);

    // Two senders at once, so both workers validate the entry together.
    let rounds = 6;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..rounds {
                    let cached = results(json!({ "dataset": "memo@1", "ofds": specs.clone() }));
                    assert_eq!(cached, inline, "a cataloged validate answers like an uncached one");
                }
            });
        }
    });

    // Every OFD of every cataloged validate is one memo lookup, and each
    // distinct antecedent misses once.
    let metrics = request(addr, "GET", "/metrics", None).json();
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .expect("pinned counter")
    };
    let lookups = (2 * rounds * specs.len()) as u64;
    assert_eq!(counter("serve.catalog.partition_miss"), 3);
    assert_eq!(counter("serve.catalog.partition_hit"), lookups - 3);
    server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn mutual_peers_answer_an_unknown_name_without_a_describe_storm() {
    // Two workers that list each other in `peers`. A describe one sends
    // the other must be answered from local state only, or a name neither
    // holds bounces between them until connections run out.
    let free_port = || {
        std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("free port")
            .port()
    };
    let (port_a, port_b) = (free_port(), free_port());
    let ckpt = tmp_dir("mutual-peers");
    let bind = |port: u16, peer: u16, who: &str| {
        let obs = ofd_core::Obs::enabled();
        let server = Server::bind(ServeConfig {
            addr: format!("127.0.0.1:{port}"),
            checkpoint_dir: Some(ckpt.join(who)),
            peers: vec![format!("127.0.0.1:{peer}").parse().expect("peer addr")],
            obs: obs.clone(),
            ..ServeConfig::default()
        })
        .expect("bind");
        (server, obs)
    };
    let (a, obs_a) = bind(port_a, port_b, "a");
    let (b, obs_b) = bind(port_b, port_a, "b");
    let requests = |obs: &ofd_core::Obs| obs.snapshot().counter("serve.requests").unwrap_or(0);

    let unknown = request(a.addr(), "GET", "/v1/datasets/nope", None);
    assert_eq!(unknown.status, 400, "{:?}", unknown.json());
    let (on_a, on_b) = (requests(&obs_a), requests(&obs_b));
    assert!(
        on_a <= 2 && on_b <= 2,
        "one client describe cost serve.requests a={on_a} b={on_b}"
    );

    // A client describe keeps its peer fallback: a dataset registered on
    // B alone is still found through A, by read repair.
    let (csv_text, onto_text) = dataset(60);
    let put = request(
        b.addr(),
        "PUT",
        "/v1/datasets/solo",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    assert_eq!(put.status, 200, "{:?}", put.json());
    let meta = request(a.addr(), "GET", "/v1/datasets/solo", None);
    assert_eq!(meta.status, 200, "{:?}", meta.json());
    assert_eq!(meta.json().get("version").and_then(Value::as_u64), Some(1));
    assert_eq!(
        obs_a.snapshot().counter("serve.catalog.peer_fetch"),
        Some(1),
        "A repaired the version from B"
    );

    a.shutdown(Duration::from_secs(5));
    b.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn dataset_reference_on_a_catalogless_server_is_refused() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let reply = request(addr, "POST", "/v1/discover", Some(&json!({ "dataset": "x" })));
    assert_eq!(reply.status, 400, "no catalog dir → dataset refs are client errors");
    let put = request(addr, "PUT", "/v1/datasets/x", Some(&json!({ "csv": "A\n1\n" })));
    assert_eq!(put.status, 503, "catalog API reports the missing configuration");
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn timeout_budget_yields_incomplete_not_error() {
    let (csv_text, onto_text) = dataset(2500);
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let reply = request(
        server.addr(),
        "POST",
        "/v1/discover",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text, "timeout_ms": 1 })),
    );
    assert_eq!(reply.status, 200, "a timed-out job is a sound partial, not a failure");
    assert_eq!(
        reply.json().get("status").and_then(Value::as_str),
        Some("incomplete")
    );
    assert_eq!(
        reply.json().get("interrupt").and_then(Value::as_str),
        Some("deadline_exceeded")
    );
    server.shutdown(Duration::from_secs(10));
}
