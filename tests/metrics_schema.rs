//! Shape validation for the `ofd-obs` metrics JSON (schema version 1).
//!
//! By default the document is produced in-process by an instrumented
//! discovery run; set `METRICS_JSON=<path>` to validate a file instead —
//! CI's metrics-smoke job points it at the output of
//! `scale_probe --metrics-out` so the checked-in schema and the emitted
//! artifact can never drift apart silently. A second test scrapes a live
//! `ofd-serve` `/metrics` endpoint and holds it to the same schema, with
//! the `serve.*` counters pinned by name.

use serde_json::Value;

fn produce_in_process() -> String {
    use fastofd::core::Obs;
    use fastofd::discovery::{DiscoveryOptions, FastOfd};
    let ds = fastofd::datagen::clinical(&fastofd::datagen::PresetConfig {
        n_rows: 300,
        n_attrs: 6,
        n_ofds: 2,
        seed: 11,
        ..fastofd::datagen::PresetConfig::default()
    });
    let obs = Obs::enabled();
    FastOfd::new(&ds.clean, &ds.full_ontology)
        .options(DiscoveryOptions::new().obs(obs.clone()))
        .run();
    obs.snapshot().to_json_string(true)
}

/// Assert the structural invariants every schema-v1 document must hold,
/// and return the parsed document for producer-specific checks.
fn validate_schema_v1(text: &str) -> Value {
    let v: Value = serde_json::from_str(text).expect("metrics JSON parses");

    assert_eq!(v.get("version").and_then(Value::as_u64), Some(1), "schema version");
    assert_eq!(v.get("enabled").and_then(Value::as_bool), Some(true), "enabled flag");

    let counters = match v.get("counters").expect("counters present") {
        Value::Object(fields) => fields,
        other => panic!("counters must be an object, got {other}"),
    };
    for (name, value) in counters {
        assert!(value.as_u64().is_some(), "counter {name} must be a non-negative integer");
    }

    let gauges = match v.get("gauges").expect("gauges present") {
        Value::Object(fields) => fields,
        other => panic!("gauges must be an object, got {other}"),
    };
    for (name, value) in gauges {
        assert!(value.as_f64().is_some(), "gauge {name} must be numeric");
    }

    let histograms = match v.get("histograms").expect("histograms present") {
        Value::Object(fields) => fields,
        other => panic!("histograms must be an object, got {other}"),
    };
    for (name, h) in histograms {
        let bounds = h.get("bounds").and_then(Value::as_array).expect("bounds array");
        let counts = h.get("counts").and_then(Value::as_array).expect("counts array");
        assert_eq!(
            counts.len(),
            bounds.len() + 1,
            "histogram {name}: one bucket per bound plus overflow"
        );
        assert!(
            bounds.windows(2).all(|w| w[0].as_f64() < w[1].as_f64()),
            "histogram {name}: bounds must be strictly increasing"
        );
        let total: u64 = counts.iter().map(|c| c.as_u64().expect("bucket count")).sum();
        assert_eq!(
            h.get("count").and_then(Value::as_u64),
            Some(total),
            "histogram {name}: count equals the bucket sum"
        );
        assert!(h.get("sum").and_then(Value::as_f64).is_some(), "histogram {name}: sum");
    }

    let spans = v.get("spans").and_then(Value::as_array).expect("spans array");
    for (i, s) in spans.iter().enumerate() {
        assert!(s.get("name").and_then(Value::as_str).is_some(), "span {i}: name");
        assert!(s.get("start_us").and_then(Value::as_u64).is_some(), "span {i}: start_us");
        assert!(s.get("elapsed_us").and_then(Value::as_u64).is_some(), "span {i}: elapsed_us");
        let parent = s.get("parent").expect("span parent present");
        assert!(
            parent.is_null() || (parent.as_u64().map(|p| (p as usize) < i) == Some(true)),
            "span {i}: parent must be null or an earlier span index"
        );
    }

    v
}

fn counter_names(v: &Value) -> Vec<String> {
    match v.get("counters").expect("counters present") {
        Value::Object(fields) => fields.iter().map(|(n, _)| n.clone()).collect(),
        other => panic!("counters must be an object, got {other}"),
    }
}

#[test]
fn metrics_json_matches_schema_v1() {
    let text = match std::env::var("METRICS_JSON") {
        Ok(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("METRICS_JSON={path}: {e}")),
        Err(_) => produce_in_process(),
    };
    let v = validate_schema_v1(&text);

    // Every instrumented discovery run produces its partitions through the
    // partition cache, so it must publish the cache's counters (values are
    // workload-dependent).
    // `abandoned` counts exact discovery's scans that stopped before their
    // partition was complete; it is touched like the others, so it appears
    // (as a zero) in an approximate run too — dashboards never see an
    // absent series.
    let names = counter_names(&v);
    for name in [
        "discovery.partition.products",
        "discovery.partition.abandoned",
        "discovery.partition.cache.hits",
        "discovery.partition.cache.misses",
        "discovery.partition.cache.evicted_bytes",
    ] {
        assert!(names.iter().any(|n| n == name), "partition-cache counter {name} missing");
    }
    // The retired sampler publishes nothing.
    assert!(
        names.iter().all(|n| !n.starts_with("discovery.sample.")),
        "sampler counters are gone: {names:?}"
    );
    let gauges = match v.get("gauges").expect("gauges present") {
        Value::Object(fields) => fields.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
        other => panic!("gauges must be an object, got {other}"),
    };
    for name in [
        "discovery.partition.cache.resident_bytes",
        "discovery.partition.cache.peak_resident_bytes",
    ] {
        assert!(gauges.iter().any(|n| n == name), "partition-cache gauge {name} missing");
    }
}

/// One `GET /metrics` through the fleet's own client; the scrape must
/// succeed, and its body is returned as text.
fn scrape(addr: std::net::SocketAddr) -> String {
    let timeouts = fastofd::serve::PeerTimeouts::default();
    let reply = fastofd::serve::http::exchange(addr, "GET", "/metrics", &[], b"", &timeouts)
        .expect("scrape /metrics");
    assert_eq!(reply.status, 200, "scrape must succeed");
    String::from_utf8(reply.body().to_vec()).expect("utf8 reply")
}

/// A live `/metrics` scrape is a schema-v1 document, and the service-layer
/// counters are present by name from the moment the server binds — a
/// dashboard pointed at a fresh instance sees zeros, never absent series.
#[test]
fn serve_metrics_endpoint_matches_schema_v1_with_serve_counters_pinned() {
    use fastofd::serve::{ServeConfig, Server, SERVE_COUNTERS, STREAM_COUNTERS};

    let server = Server::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind serve on an ephemeral port");

    let v = validate_schema_v1(&scrape(server.addr()));
    let names = counter_names(&v);
    // The full pinned surface, via the crate's own constant so the server
    // and this test cannot drift apart...
    for name in SERVE_COUNTERS {
        assert!(names.iter().any(|n| n == name), "serve counter {name} missing");
    }
    // ...and the five acceptance-pinned names spelled out, so renaming a
    // counter in SERVE_COUNTERS still fails here rather than silently
    // repinning the schema.
    for name in [
        "serve.admitted",
        "serve.shed",
        "serve.breaker_open",
        "serve.drained",
        "serve.resumed",
        // The multi-host fleet surface: peer-to-peer catalog read repair
        // and cross-filesystem checkpoint shipping.
        "serve.catalog.peer_fetch",
        "serve.catalog.read_repaired",
        "serve.ship.served",
        "serve.ship.fetched",
        // Whether cataloged validates hit their version's partition memo.
        "serve.catalog.partition_hit",
        "serve.catalog.partition_miss",
        // The network fault-injection surface: workers publish zeros for
        // the chaos counters from bind so soak dashboards never see an
        // absent series.
        "serve.net.injected",
        "serve.net.resets",
        "serve.net.blackholes",
        "serve.net.retries_exhausted",
        // Cooperative cancel: zero on a healthy scrape, so a job whose
        // own completion reads as a hang-up shows up as a nonzero count.
        "serve.client_disconnect",
    ] {
        assert!(names.iter().any(|n| n == name), "acceptance counter {name} missing");
    }
    // The streaming layer's counters are pinned the same way: present
    // (zero) from bind, via the constant and by acceptance spelling.
    for name in STREAM_COUNTERS {
        assert!(names.iter().any(|n| n == name), "stream counter {name} missing");
    }
    for name in [
        "serve.stream.sessions",
        "serve.stream.resumed",
        "serve.stream.edits",
        "serve.stream.conflicts",
        "incremental.inserts",
        "incremental.retracts",
        "incremental.updates",
        "incremental.reverified_classes",
        "incremental.stale_updates",
    ] {
        assert!(names.iter().any(|n| n == name), "acceptance counter {name} missing");
    }
    // The admission-queue depth gauge is published from bind, so a fresh
    // scrape reads an explicit zero rather than a missing series.
    let depth = v
        .get("gauges")
        .and_then(|g| g.get("serve.queue.depth"))
        .and_then(Value::as_f64);
    assert_eq!(depth, Some(0.0), "serve.queue.depth gauge present on a fresh server");

    server.shutdown(std::time::Duration::from_secs(10));
}

/// A server's `/metrics` does not grow with the requests it serves: its
/// long-lived handle keeps counters, gauges and histograms but retains no
/// spans, so after N and after 2N inline discovers the document holds no
/// span and has the same size, up to the digits of totals that grew.
#[test]
fn serve_metrics_stay_bounded_as_requests_accumulate() {
    use fastofd::serve::{http, PeerTimeouts, ServeConfig, Server};

    let ds = fastofd::datagen::clinical(&fastofd::datagen::PresetConfig {
        n_rows: 300,
        seed: 5,
        ..fastofd::datagen::PresetConfig::default()
    });
    let body = serde_json::json!({
        "csv": fastofd::datagen::csv::write_csv(&ds.relation),
        "ontology": fastofd::ontology::write_ontology(&ds.ontology),
        "max_level": 3u64,
    })
    .to_string();
    let server = Server::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind serve on an ephemeral port");
    let timeouts = PeerTimeouts::default();
    let mut sizes = Vec::new();
    for _ in 0..2 {
        for _ in 0..10 {
            let reply = http::exchange(
                server.addr(),
                "POST",
                "/v1/discover",
                &[],
                body.as_bytes(),
                &timeouts,
            )
            .expect("discover");
            assert_eq!(reply.status, 200, "{}", String::from_utf8_lossy(reply.body()));
        }
        let text = scrape(server.addr());
        let v = validate_schema_v1(&text);
        assert_eq!(
            v.get("spans").and_then(Value::as_array).map(Vec::len),
            Some(0),
            "a served /metrics retains no spans"
        );
        sizes.push(text.len());
    }
    assert!(server.obs().snapshot().spans.is_empty());
    assert_eq!(
        server.obs().snapshot().counter("serve.admitted"),
        Some(20),
        "all 20 discovers ran on the server's handle"
    );
    assert!(
        sizes[1].abs_diff(sizes[0]) < 256,
        "/metrics grew from {} to {} bytes over 10 more requests",
        sizes[0],
        sizes[1]
    );
    server.shutdown(std::time::Duration::from_secs(10));
}

/// The shard router's `/metrics` document obeys the same schema, with the
/// `serve.router.*` counters pinned from the moment the router binds —
/// even with zero workers behind it.
#[test]
fn router_metrics_endpoint_matches_schema_v1_with_router_counters_pinned() {
    use fastofd::serve::{Fleet, Router, RouterConfig, NET_COUNTERS, ROUTER_COUNTERS};

    let router = Router::bind(RouterConfig::default(), Fleet::Static(Vec::new()))
        .expect("bind router on an ephemeral port");

    let v = validate_schema_v1(&scrape(router.addr()));
    let names = counter_names(&v);
    for name in ROUTER_COUNTERS {
        assert!(names.iter().any(|n| n == name), "router counter {name} missing");
    }
    // The network fault-injection counters bind alongside the router's
    // own, so a chaos soak can attribute every injected fault by name.
    for name in NET_COUNTERS {
        assert!(names.iter().any(|n| n == name), "net counter {name} missing");
    }
    // The acceptance-pinned spellings, independent of the constant.
    for name in [
        "serve.router.routed",
        "serve.router.retried",
        "serve.router.respawned",
        "serve.router.adopted",
        // Probe-driven ring membership and quorum catalog replication.
        "serve.router.ring.ejected",
        "serve.router.ring.readmitted",
        "serve.catalog.replicated_partial",
        // Deterministic network fault injection.
        "serve.net.injected",
        "serve.net.resets",
        "serve.net.blackholes",
        "serve.net.retries_exhausted",
    ] {
        assert!(names.iter().any(|n| n == name), "acceptance counter {name} missing");
    }

    router.shutdown();
}
