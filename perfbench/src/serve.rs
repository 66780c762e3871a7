//! `serve-stream-40k`: an open loop against an in-process
//! `Server::bind(ServeConfig::default())` whose catalog holds clinical 40k.
//! Reads are `POST /v1/validate` of Σ against `clinical@1`; writes are
//! `POST /v1/append` of small row batches into one streaming session.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ofd_core::{ExecGuard, FaultPlan, IncrementalChecker, Obs, Ofd, SenseIndex, Validator};
use ofd_datagen::csv::read_csv;
use ofd_datagen::{clinical, PresetConfig};
use ofd_ontology::{parse_ontology, write_ontology};
use ofd_serve::{
    content_fingerprint, jobs, Catalog, Endpoint, JobContext, PeerTimeouts, ServeConfig, Server,
    StreamSessions,
};
use serde_json::{json, Value};

use crate::discover::ms_since;
use crate::permuted_csv;
use crate::report::Report;
use crate::stats::{median, open_loop, quantile, summarize, Outcome, Rng, Tally, Timed};

/// Offered load, requests per second: about half of the 23 req/s the
/// server sustained under this generator in `--ramp` (see NOTES.md).
pub const RATE_PER_S: f64 = 12.0;
/// Every `WRITE_EVERY`-th request is an append: two reads per write.
const WRITE_EVERY: usize = 3;
const ROWS: usize = 40_000;
const BATCH_ROWS: usize = 2;
const BASE_SEED: u64 = 1;
const DATASET: &str = "clinical";
const REFERENCE: &str = "clinical@1";
/// Failure counters whose `/metrics` deltas the report discloses.
const FAILURE_COUNTERS: [&str; 5] = [
    "serve.shed",
    "serve.bad_request",
    "serve.conflict",
    "serve.incomplete",
    "serve.panics",
];

/// What one append must answer, from a direct `IncrementalChecker` replay.
#[derive(Clone, Copy)]
struct Expected {
    seq: u64,
    n_rows: u64,
    violations: u64,
}

/// The seeded request script and the inputs it needs.
pub struct Script {
    csv: String,
    ontology: String,
    specs: Vec<String>,
    /// `rows` of every append body, warm-up batch first.
    batches: Vec<Vec<Vec<String>>>,
    /// Intended send offsets of the measured reads and writes. Each kind
    /// is evenly spaced with a seeded jitter of ±10 % of its interval, so
    /// one blocking sender per kind keeps up unless the server stalls.
    reads: Vec<Duration>,
    writes: Vec<Duration>,
}

/// `n` sends spaced `1 / rate` apart, starting half an interval in times
/// `phase`, each moved by up to ±10 % of the interval.
fn spaced(n: usize, rate: f64, phase: f64, rng: &mut Rng) -> Vec<Duration> {
    (0..n)
        .map(|i| Duration::from_secs_f64((i as f64 + phase + 0.2 * (rng.unit() - 0.5)) / rate))
        .collect()
}

/// Builds the inputs: clinical 40k with rows permuted by `seed`, and
/// append batches drawn from a copy with 3 % of its cells corrupted.
pub fn script(seed: u64, seconds: f64, rate: f64) -> Script {
    let ds = clinical(&PresetConfig {
        n_rows: ROWS,
        seed: BASE_SEED,
        ..PresetConfig::default()
    });
    let mut rng = Rng::new(seed);
    let perm = rng.permutation(ROWS);
    let mut dirty = ds.clone();
    dirty.inject_errors(0.03, seed);
    let schema = ds.relation.schema();
    let specs = ds
        .ofds
        .iter()
        .map(|o| {
            let lhs: Vec<&str> = o.lhs.iter().map(|a| schema.name(a)).collect();
            format!("{}->{}", lhs.join(","), schema.name(o.rhs))
        })
        .collect();
    let n = (rate * seconds).round() as usize;
    let n_writes = n / WRITE_EVERY;
    let write_rate = rate / WRITE_EVERY as f64;
    let reads = spaced(n - n_writes, rate - write_rate, 0.25, &mut rng);
    let writes = spaced(n_writes, write_rate, 0.5, &mut rng);
    let batches = (0..=n_writes)
        .map(|_| {
            (0..BATCH_ROWS)
                .map(|_| {
                    let row = rng.below(ROWS);
                    dirty
                        .relation
                        .row_texts(row)
                        .iter()
                        .map(|s| s.to_string())
                        .collect()
                })
                .collect()
        })
        .collect();
    Script {
        csv: permuted_csv(&ds.relation, &perm),
        ontology: write_ontology(&ds.ontology),
        specs,
        batches,
        reads,
        writes,
    }
}

/// A bound server with the dataset registered, its session open, and the
/// expected answers computed in process.
pub struct Prepared {
    server: Option<Server>,
    pub addr: SocketAddr,
    pub ckpt: PathBuf,
    validate_body: String,
    expected_results: Value,
    write_bodies: Vec<String>,
    expected: Vec<Expected>,
    /// `IncrementalChecker::apply_insert` times of the replay, µs per row.
    apply_us: Vec<f64>,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown(Duration::from_secs(30));
        }
    }
}

fn sigma(specs: &[String], rel: &ofd_core::Relation) -> Vec<Ofd> {
    specs
        .iter()
        .map(|s| {
            let (lhs, rhs) = s.split_once("->").expect("spec has an arrow");
            let lhs: Vec<&str> = lhs.split(',').collect();
            Ofd::synonym_named(rel.schema(), &lhs, rhs).expect("spec names schema attributes")
        })
        .collect()
}

fn validate_results(v: &Validator<'_>, sigma: &[Ofd], rel: &ofd_core::Relation) -> Value {
    Value::Array(
        sigma
            .iter()
            .map(|ofd| {
                let r = v.check(ofd);
                json!({
                    "ofd": ofd.display(rel.schema()),
                    "satisfied": r.satisfied(),
                    "support": r.support(),
                    "support_bits": r.support().to_bits(),
                    "violating_classes": r.violation_count() as u64,
                })
            })
            .collect(),
    )
}

fn body(v: &Value) -> String {
    serde_json::to_string(v).expect("json renders")
}

/// Binds a fresh server on its own checkpoint dir under `work`, registers
/// the dataset, precomputes every expected answer, and opens the session
/// with the warm-up append.
pub fn setup(script: &Script, work: &Path, rep: usize) -> Result<Prepared, String> {
    let ckpt = work.join(format!("serve-{rep}"));
    let server = Server::bind(ServeConfig {
        checkpoint_dir: Some(ckpt.clone()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let catalog = server.catalog().ok_or("server has no catalog")?;
    let entry = catalog
        .put(DATASET, &script.csv, &script.ontology)
        .map_err(|e| format!("catalog put: {}", e.message()))?;
    if entry.version != 1 {
        return Err(format!("fresh catalog assigned version {}", entry.version));
    }

    // Expected answers, computed directly on the same texts.
    let rel = read_csv(&script.csv).map_err(|e| format!("csv: {e}"))?;
    let onto = parse_ontology(&script.ontology).map_err(|e| format!("ontology: {e}"))?;
    let sigma = sigma(&script.specs, &rel);
    let expected_results = validate_results(&Validator::new(&rel, &onto), &sigma, &rel);
    let mut live = rel.clone();
    let mut index = SenseIndex::synonym(&live, &onto);
    let mut checker = IncrementalChecker::new(&live, &index, &sigma);
    let mut expected = Vec::with_capacity(script.batches.len());
    let mut apply_us = Vec::new();
    for (j, batch) in script.batches.iter().enumerate() {
        for row in batch {
            let r = live
                .push_row(row.iter().map(String::as_str))
                .map_err(|e| format!("replay push: {e}"))?;
            index.extend_synonym(&live, &onto);
            let t = Instant::now();
            checker
                .apply_insert(&live, &index, r)
                .map_err(|e| format!("replay insert: {e}"))?;
            apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        expected.push(Expected {
            seq: j as u64 + 1,
            n_rows: live.n_rows() as u64,
            violations: checker.violation_count() as u64,
        });
    }

    let validate_body = body(&json!({"dataset": REFERENCE, "ofds": script.specs.clone()}));
    let write_bodies = script
        .batches
        .iter()
        .map(|rows| {
            body(&json!({"dataset": REFERENCE, "ofds": script.specs.clone(), "rows": rows.clone()}))
        })
        .collect();
    let prep = Prepared {
        server: Some(server),
        addr,
        ckpt,
        validate_body,
        expected_results,
        write_bodies,
        expected,
        apply_us,
    };
    for outcome in [prep.write(0).1, prep.read().1] {
        if outcome != Outcome::Ok {
            return Err(format!("warm-up request failed: {outcome:?}"));
        }
    }
    Ok(prep)
}

/// A minimal HTTP/1.1 exchange on a fresh connection: the server answers
/// one request per connection and then closes it.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    // Keep the write side open: a half-close reads as a disconnect to the
    // server's watcher, which would cancel the job.
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "reply is not utf-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("reply has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("reply has no status")?;
    Ok((status, body.to_string()))
}

/// Maps a reply to an outcome before its content is checked.
fn classify(reply: &Result<(u16, String), String>) -> Result<Value, Outcome> {
    let (status, body) = reply.as_ref().map_err(|e| Outcome::Error(e.clone()))?;
    match status {
        200 => {}
        429 => return Err(Outcome::Shed),
        503 => return Err(Outcome::Refused),
        s => return Err(Outcome::Error(format!("status {s}: {body}"))),
    }
    let v: Value =
        serde_json::from_str(body).map_err(|e| Outcome::Error(format!("reply json: {e}")))?;
    if v.get("status").and_then(Value::as_str) != Some("complete") {
        return Err(Outcome::Incomplete);
    }
    Ok(v)
}

impl Prepared {
    fn check_read(&self, v: &Value) -> Outcome {
        if v.get("results") != Some(&self.expected_results) {
            return Outcome::WrongOutput(
                "validate results differ from an in-process Validator".into(),
            );
        }
        Outcome::Ok
    }

    fn check_write(&self, j: usize, v: &Value) -> Outcome {
        let e = self.expected[j];
        let got = |k: &str| v.get(k).and_then(Value::as_u64);
        if got("seq") != Some(e.seq)
            || got("n_rows") != Some(e.n_rows)
            || got("violations") != Some(e.violations)
        {
            return Outcome::WrongOutput(format!(
                "append {j}: seq/n_rows/violations {:?}/{:?}/{:?}, replay {}/{}/{}",
                got("seq"),
                got("n_rows"),
                got("violations"),
                e.seq,
                e.n_rows,
                e.violations
            ));
        }
        Outcome::Ok
    }

    /// `POST /v1/validate`; returns the parsed reply for parity checks.
    fn read(&self) -> (Option<Value>, Outcome) {
        let reply = http(self.addr, "POST", "/v1/validate", &self.validate_body);
        match classify(&reply) {
            Ok(v) => {
                let o = self.check_read(&v);
                (Some(v), o)
            }
            Err(o) => (None, o),
        }
    }

    /// `POST /v1/append` of batch `j` (0 is the warm-up batch).
    fn write(&self, j: usize) -> (Option<Value>, Outcome) {
        let reply = http(self.addr, "POST", "/v1/append", &self.write_bodies[j]);
        match classify(&reply) {
            Ok(v) => {
                let o = self.check_write(j, &v);
                (Some(v), o)
            }
            Err(o) => (None, o),
        }
    }

    fn counters(&self) -> Option<Value> {
        let (status, body) = http(self.addr, "GET", "/metrics", "").ok()?;
        if status != 200 {
            return None;
        }
        serde_json::from_str::<Value>(&body)
            .ok()?
            .get("counters")
            .cloned()
    }
}

/// One measured request.
pub struct Sample {
    /// Intended send offset from the start of the loop.
    pub at: Duration,
    pub write: bool,
    pub timed: Timed,
    pub outcome: Outcome,
    pub reply: Option<Value>,
}

/// The measured open loop: writes go out in order on one connection
/// thread, reads on another, each at its intended send time.
pub struct LoadResult {
    /// In intended-send order.
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    pub failure_deltas: Vec<(String, u64)>,
}

pub fn run(script: &Script, prep: &Prepared) -> LoadResult {
    let before = prep.counters();
    let start = Instant::now() + Duration::from_millis(20);
    let (r, w) = std::thread::scope(|s| {
        let r = s.spawn(|| open_loop(start, &script.reads, |_| prep.read()));
        let w = s.spawn(|| open_loop(start, &script.writes, |i| prep.write(i + 1)));
        (
            r.join().expect("read sender panicked"),
            w.join().expect("write sender panicked"),
        )
    });
    let elapsed = start.elapsed();
    let sample = |write: bool| {
        move |(&at, (timed, (reply, outcome))): (&Duration, (Timed, (Option<Value>, Outcome)))| {
            Sample {
                at,
                write,
                timed,
                outcome,
                reply,
            }
        }
    };
    let mut samples: Vec<Sample> = script
        .reads
        .iter()
        .zip(r)
        .map(sample(false))
        .chain(script.writes.iter().zip(w).map(sample(true)))
        .collect();
    samples.sort_by_key(|s| s.at);
    let after = prep.counters();
    let failure_deltas = FAILURE_COUNTERS
        .iter()
        .map(|&name| {
            let get = |c: &Option<Value>| {
                c.as_ref()
                    .and_then(|c| c.get(name))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            };
            (name.to_string(), get(&after).saturating_sub(get(&before)))
        })
        .collect();
    LoadResult {
        samples,
        elapsed,
        failure_deltas,
    }
}

impl LoadResult {
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for s in &self.samples {
            t.record(&s.outcome);
        }
        for (name, delta) in &self.failure_deltas {
            // A failure the server counted but no reply showed (it would
            // have been answered as a non-200 and counted already).
            if *delta > 0 && t.failed() == 0 {
                t.record(&Outcome::Error(format!("{name} rose by {delta}")));
            }
        }
        t
    }

    /// Latencies of successful requests, all or one kind.
    pub fn latencies(&self, kind: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok && kind.is_none_or(|w| s.write == w))
            .map(|s| s.timed.latency_ms)
            .collect()
    }

    /// The kind of each of [`Self::latencies`]`(None)`: 0 read, 1 write.
    pub fn kinds(&self) -> Vec<usize> {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .map(|s| usize::from(s.write))
            .collect()
    }

    /// p99 of how late requests left the generator.
    pub fn late_p99_ms(&self) -> f64 {
        let mut late: Vec<f64> = self.samples.iter().map(|s| s.timed.late_ms).collect();
        late.sort_by(f64::total_cmp);
        quantile(&late, 0.99)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.latencies(None).len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Read/write medians and tails, generator lateness and the server's
    /// failure-counter deltas as detail lines; with `metrics`, the medians
    /// and lateness as per-layer metrics too.
    pub fn describe(&self, report: &mut Report, metrics: bool) {
        for (kind, label) in [(false, "read"), (true, "write")] {
            let latencies = self.latencies(Some(kind));
            match summarize(&latencies) {
                Some(s) => report.line(s.line(&format!("serve {label}s"))),
                None => report.line(format!(
                    "serve {label}s: {} samples, too few for a tail",
                    latencies.len()
                )),
            }
            if metrics && !latencies.is_empty() {
                report.metric(format!("serve.{label}_p50_ms"), median(&latencies), "ms");
            }
        }
        let late = self.late_p99_ms();
        report.line(format!("load generator: p99 late {late:.3} ms"));
        if metrics {
            report.metric("load.late_ms", late, "ms");
        }
        let deltas: Vec<String> = self
            .failure_deltas
            .iter()
            .map(|(n, d)| format!("{n}=+{d}"))
            .collect();
        report.line(format!("/metrics failure deltas: {}", deltas.join(" ")));
    }
}

/// Steps the offered rate through `rates`, `seconds` per step, each step on
/// a fresh server and session, and prints per step the completed rate, the
/// read and write medians, the generator's p99 lateness and the failures.
/// The sustained rate is the highest step (with every step below it) whose
/// requests all succeed and leave on time: p99 lateness under
/// [`LATE_OK_MS`].
pub fn ramp(
    seed: u64,
    seconds: f64,
    rates: &[f64],
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut sustained = None;
    let mut held = true;
    for (i, &rate) in rates.iter().enumerate() {
        let script = script(seed, seconds, rate);
        let prep = setup(&script, work, i)?;
        let load = run(&script, &prep);
        drop(prep);
        let tally = load.tally();
        let p50 = |write| median(&load.latencies(Some(write)));
        let late = load.late_p99_ms();
        held &= tally.failed() == 0 && late < LATE_OK_MS;
        if held {
            sustained = Some(rate);
        }
        report.line(format!(
            "ramp {rate} req/s: {:.3} completed/s, read p50 {:.3} ms, write p50 {:.3} ms, \
             p99 late {late:.3} ms, failed {} of {}",
            load.ops_per_s(),
            p50(false),
            p50(true),
            tally.failed(),
            tally.attempted
        ));
        report.tally.merge(&tally);
    }
    report.line(match sustained {
        Some(rate) => format!("sustained: {rate} req/s (p99 late < {LATE_OK_MS} ms, no failures)"),
        None => "sustained: none of the steps".into(),
    });
    Ok(())
}

/// Lateness (p99, ms) below which the generator counts as keeping up.
const LATE_OK_MS: f64 = 50.0;

/// Result fields an HTTP reply and the in-process replay must share.
fn parity_fields(write: bool, v: &Value) -> Vec<Option<Value>> {
    let keys: &[&str] = if write {
        &[
            "status",
            "seq",
            "applied",
            "n_rows",
            "violations",
            "all_satisfied",
            "sigma",
        ]
    } else {
        &["status", "results", "all_satisfied"]
    };
    keys.iter().map(|k| v.get(k).cloned()).collect()
}

/// The traced pass: the open loop over HTTP, then `jobs::execute` in
/// process on the same bodies in the same order (own context, catalog and
/// session table), plus the catalog, validate, incremental and snapshot
/// layers timed on their own.
pub fn traced(script: &Script, prep: &Prepared, work: &Path, report: &mut Report) {
    let load = run(script, prep);
    report.tally.merge(&load.tally());
    load.describe(report, true);

    // In-process replay: warm-up write and read, then the measured order.
    let dir = work.join("serve-replay");
    let catalog = Catalog::open(dir.join("catalog"), FaultPlan::none(), Obs::enabled());
    let put = catalog.put(DATASET, &script.csv, &script.ontology);
    let ctx = JobContext {
        guard: ExecGuard::unlimited(),
        obs: Obs::enabled(),
        faults: FaultPlan::none(),
        checkpoint_root: Some(dir.clone()),
        catalog: Some(Arc::new(catalog)),
        sessions: Arc::new(StreamSessions::new()),
        peers: Vec::new(),
        peer_timeouts: PeerTimeouts::default(),
    };
    let parse = |s: &str| serde_json::from_str::<Value>(s).expect("request bodies are valid json");
    let validate_body = parse(&prep.validate_body);
    let replay = |write: Option<usize>| -> (f64, Option<Value>) {
        let (endpoint, body) = match write {
            Some(j) => (Endpoint::Append, parse(&prep.write_bodies[j])),
            None => (Endpoint::Validate, validate_body.clone()),
        };
        let t = Instant::now();
        let out = jobs::execute(endpoint, &body, &ctx);
        (ms_since(t), out.ok().map(|(v, _)| v))
    };
    let mut jobs_ms = [Vec::new(), Vec::new()];
    let mut mismatches = 0;
    if put.is_ok() {
        replay(Some(0));
        replay(None);
        let mut j = 0;
        for s in &load.samples {
            let write = s.write.then(|| {
                j += 1;
                j
            });
            let (ms, value) = replay(write);
            jobs_ms[usize::from(s.write)].push(ms);
            let same = match (&s.reply, &value) {
                (Some(http), Some(local)) => {
                    parity_fields(s.write, http) == parity_fields(s.write, local)
                }
                _ => false,
            };
            mismatches += usize::from(!same);
        }
    }
    if put.is_err() || mismatches > 0 {
        report.tally.record(&Outcome::WrongOutput(format!(
            "jobs::execute replay differs from the HTTP replies on {mismatches} requests"
        )));
    }
    let jobs_validate = median(&jobs_ms[0]);
    let jobs_append = median(&jobs_ms[1]);
    report.metric("jobs.validate_ms", jobs_validate, "ms");
    report.metric("jobs.append_ms", jobs_append, "ms");
    let read_p50 = median(&load.latencies(Some(false)));
    let write_p50 = median(&load.latencies(Some(true)));
    report.metric("serve.overhead_read_ms", read_p50 - jobs_validate, "ms");
    report.metric("serve.overhead_write_ms", write_p50 - jobs_append, "ms");
    report.line(format!(
        "jobs::execute replay: {} validates, {} appends, first append {:.3} ms, last {:.3} ms",
        jobs_ms[0].len(),
        jobs_ms[1].len(),
        jobs_ms[1].first().copied().unwrap_or(0.0),
        jobs_ms[1].last().copied().unwrap_or(0.0)
    ));

    let healthz: Vec<f64> = (0..30)
        .map(|_| {
            let t = Instant::now();
            let ok = matches!(http(prep.addr, "GET", "/healthz", ""), Ok((200, _)));
            report.tally.record(&if ok {
                Outcome::Ok
            } else {
                Outcome::Error("healthz".into())
            });
            ms_since(t)
        })
        .collect();
    report.metric("serve.healthz_ms", median(&healthz), "ms");

    let fingerprint: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(content_fingerprint(&script.csv, &script.ontology));
            ms_since(t)
        })
        .collect();
    report.metric("catalog.fingerprint_ms", median(&fingerprint), "ms");
    if let Some(catalog) = &ctx.catalog {
        let resolve: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(catalog.resolve(REFERENCE).is_ok());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        report.metric("catalog.resolve_us", median(&resolve), "us");
        if let Ok(entry) = catalog.resolve(REFERENCE) {
            let sigma = sigma(&script.specs, &entry.relation);
            let check: Vec<f64> = (0..7)
                .map(|_| {
                    let t = Instant::now();
                    let v = Validator::new(&entry.relation, &entry.ontology_parsed);
                    std::hint::black_box(sigma.iter().filter(|o| v.check(o).satisfied()).count());
                    ms_since(t)
                })
                .collect();
            report.metric("validate.check_ms", median(&check), "ms");
        }
    }
    report.metric("incremental.apply_us", median(&prep.apply_us), "us");

    // The served session's newest snapshot, per edit it logs.
    let edits = (1 + load.samples.iter().filter(|s| s.write).count()) * BATCH_ROWS;
    let newest = newest_stream_snapshot(&prep.ckpt).unwrap_or(0);
    report.metric(
        "stream.snapshot_bytes_per_edit",
        newest as f64 / edits as f64,
        "B",
    );
    report.line(format!("stream snapshot: {newest} bytes for {edits} edits"));
}

/// Size of the largest file under any `stream-*` directory of `ckpt`.
fn newest_stream_snapshot(ckpt: &Path) -> Option<u64> {
    std::fs::read_dir(ckpt)
        .ok()?
        .flatten()
        .filter(|d| d.file_name().to_string_lossy().starts_with("stream-"))
        .filter_map(|d| std::fs::read_dir(d.path()).ok())
        .flat_map(|dir| dir.flatten())
        .filter_map(|f| f.metadata().ok().map(|m| m.len()))
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(status: u16, body: &str) -> Result<(u16, String), String> {
        Ok((status, body.to_string()))
    }

    #[test]
    fn replies_map_to_failure_kinds() {
        assert_eq!(classify(&reply(429, "{}")).unwrap_err(), Outcome::Shed);
        assert_eq!(classify(&reply(503, "{}")).unwrap_err(), Outcome::Refused);
        assert_eq!(
            classify(&reply(200, r#"{"status": "incomplete"}"#)).unwrap_err(),
            Outcome::Incomplete
        );
        assert!(matches!(
            classify(&reply(409, "{}")),
            Err(Outcome::Error(_))
        ));
        assert!(matches!(
            classify(&Err("reset".into())),
            Err(Outcome::Error(_))
        ));
        assert!(classify(&reply(200, r#"{"status": "complete"}"#)).is_ok());
    }
}
