//! Service-layer soak harness: hammer a real `ofd-serve` child process
//! with bursts, kill it mid-flight, drain it with SIGTERM, and corrupt
//! its snapshots — then assert every accepted request is answered, shed
//! requests carry honest backoff hints, and a restarted server produces
//! **byte-identical** results on the same checkpoint directory.
//!
//! ```text
//! serve_probe [--seed S] [--rows N] [--dir D]
//! serve_probe --router [--seed S] [--rows N] [--dir D]
//!             [--metrics-out PATH]                   # fleet soak
//! serve_probe --peers [--seed S] [--rows N] [--dir D]
//!             [--metrics-out PATH]                   # multi-host soak
//! serve_probe --chaos-net [--seed S] [--rows N] [--dir D]
//!             [--metrics-out PATH]                   # network chaos soak
//! serve_probe --server [--workers N] [--queue-cap N] [--budget-ms N]
//!             [--checkpoint-dir D] [--faults SPEC]
//!             [--addr HOST:PORT] [--peers LIST]      # child mode
//! ```
//!
//! The parent re-execs itself (`current_exe`) in `--server` mode so the
//! soak exercises real process boundaries: SIGKILL loses everything not
//! on disk, SIGTERM triggers the cooperative drain path, and the client
//! side sees genuine connection resets, not in-process shortcuts.
//!
//! Phases (default mode):
//! 1. **Shed** — burst a tiny-queue server; retried-with-backoff clients
//!    must all eventually succeed bit-identically, and `/metrics` must
//!    report the shed.
//! 2. **SIGKILL + resume** — kill the child mid-discovery at a seeded
//!    delay, restart on the same checkpoint dir, resend: Σ must be
//!    byte-identical to the uninterrupted reference.
//! 3. **SIGTERM drain** — the in-flight request is answered (complete or
//!    a sound cancelled partial) before the child exits 0.
//! 4. **Snapshot faults** — same kill/restart game with seeded snapshot
//!    I/O errors and torn writes; a lost checkpoint may cost recompute
//!    but must never change the answer.
//!
//! `--stream` runs the streaming soak instead: a seeded interleaving of
//! `/v1/append` / `/v1/retract` edits against a checkpointed session,
//! SIGKILLed mid-stream and resumed on a fresh process. Every reply must
//! be byte-identical to an uninterrupted reference run of the same edit
//! script, the final state must match a from-scratch validation of the
//! final rows, and a deliberately stale update must come back as a 409
//! that leaves the session usable. `--metrics-out` dumps the final
//! worker `/metrics` document for CI artifacts.
//!
//! `--router` runs the fleet soak instead: a supervised two-worker fleet
//! behind the shard router, all replicas sharing one checkpoint/catalog
//! root. It registers a dataset through the router's catalog API,
//! SIGKILLs the owning worker mid-discovery and requires the surviving
//! replica to **adopt** the dead worker's checkpoint on the *same*
//! still-open client connection, waits for the supervisor to respawn the
//! slot, then restarts the whole fleet and proves the catalog and every
//! answer survive byte-identically. On the restarted fleet, validates of
//! the reference Σ by catalog reference must answer as the same request
//! shipped inline, and the serving worker must reuse the version's cached
//! partitions (`serve.catalog.partition_hit` > 0). `--metrics-out` dumps the final
//! router and worker `/metrics` documents as one JSON file for CI
//! artifacts.
//!
//! `--peers` runs the multi-host soak: two workers with **disjoint**
//! checkpoint roots (private filesystems, like separate hosts) and
//! mutual `--peers` lists, fronted by a probe-driven router over a
//! static fleet. It proves quorum catalog replication (a PUT lands on
//! both replicas or neither), cross-filesystem checkpoint shipping for
//! jobs and stream sessions (`resumed_from: "peer"`), SIGKILL failover
//! with re-execution fallback (`resumed_from: "none"`, byte-identical
//! reply on the original connection), ring ejection/readmission with
//! hysteresis, a sub-quorum PUT refused with no torn version, and
//! peer-to-peer catalog read repair.
//!
//! `--chaos-net` runs the network chaos soak: the same two-host topology
//! with a seeded in-process chaos proxy on the router→worker wire
//! injecting delays, mid-body resets, partial replies, blackholes and
//! connection refusals. Every routed reply must stay byte-identical to
//! the fault-free reference, a simulated coordinator death mid-fan-out
//! must leave no readable torn catalog version, the `serve.net.*`
//! counters must attribute every injected fault, and re-running with the
//! same seed must replay the identical toxic schedule.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ofd_core::{FaultPlan, Obs};
use ofd_datagen::{clinical, csv, PresetConfig};
use ofd_discovery::{DiscoveryOptions, FastOfd};
use ofd_serve::http::exchange;
use ofd_serve::{
    termination_flag, Fleet, NetFaultProxy, PeerTimeouts, Router, RouterConfig, ServeConfig,
    Server, Supervisor, SupervisorConfig, WorkerSpec,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde_json::{json, Value};

// ---------------------------------------------------------- child mode

/// Runs a real server in this process until SIGTERM/SIGINT, then drains.
/// The parent scrapes the `listening on ADDR` line to find the port.
fn server_mode(flags: &[(String, String)]) -> ExitCode {
    let get = |name: &str| flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str());
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    };
    if let Some(a) = get("addr") {
        cfg.addr = a.to_owned();
    }
    if let Some(spec) = get("peers") {
        cfg.peers = ofd_serve::parse_peer_list(spec).expect("valid --peers list");
    }
    if let Some(n) = get("workers") {
        cfg.workers = n.parse().expect("--workers N");
    }
    if let Some(n) = get("queue-cap") {
        cfg.queue_cap = n.parse().expect("--queue-cap N");
    }
    if let Some(ms) = get("budget-ms") {
        cfg.budget_ms = ms.parse().expect("--budget-ms N");
    }
    cfg.checkpoint_dir = get("checkpoint-dir").map(PathBuf::from);
    if let Some(ms) = get("head-timeout-ms") {
        cfg.head_timeout_ms = ms.parse().expect("--head-timeout-ms N");
    }
    if let Some(ms) = get("peer-timeout-ms") {
        cfg.peer_timeout_ms = ms.parse().expect("--peer-timeout-ms N");
    }
    if let Some(spec) = get("faults") {
        cfg.faults = FaultPlan::parse(spec).expect("valid fault spec");
        ofd_core::silence_injected_panics();
    }
    let server = Server::bind(cfg).expect("child bind");
    println!("listening on {}", server.addr());
    std::io::stdout().flush().expect("flush");
    let term = termination_flag();
    while !term.load(std::sync::atomic::Ordering::SeqCst) && !server.drain_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    let summary = server.shutdown(Duration::from_secs(30));
    eprintln!(
        "child drained: admitted={} shed={} drained={} resumed={}",
        summary.admitted, summary.shed, summary.drained, summary.resumed
    );
    ExitCode::SUCCESS
}

// --------------------------------------------------------- child control

struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

/// Spawns `current_exe --server` with the given flags and waits for its
/// `listening on` line. `Err` means the child died before announcing
/// itself — e.g. a reserved fixed port was stolen between reservation
/// and bind — and the caller may retry with fresh ports.
fn try_spawn_server(flags: &[(&str, String)]) -> Result<ServerProc, String> {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.arg("--server");
    for (name, value) in flags {
        cmd.arg(format!("--{name}")).arg(value);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn server child: {e}"))?;
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().and_then(Result::ok).and_then(|line| {
        line.strip_prefix("listening on ")
            .and_then(|rest| rest.parse::<SocketAddr>().ok())
    });
    let Some(addr) = banner else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("child exited before announcing its address".into());
    };
    // Keep draining the pipe so the child never blocks on a full stdout.
    std::thread::spawn(move || for _ in lines {});
    Ok(ServerProc { child, addr })
}

fn spawn_server(flags: &[(&str, String)]) -> ServerProc {
    try_spawn_server(flags).expect("spawn server child")
}

/// Reserves an address by binding `127.0.0.1:0`, noting the port the OS
/// picked, and dropping the listener. Peer fleets need every address
/// known *before* any worker starts (the `--peers` lists are mutual), so
/// each worker binds a pre-reserved fixed port instead of `:0`. The tiny
/// reserve-to-bind race is real; callers retry with fresh ports.
fn reserve_port() -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve a port");
    listener.local_addr().expect("reserved port address")
}

impl ServerProc {
    /// SIGTERM on unix (cooperative drain); hard kill elsewhere.
    fn terminate(&mut self) {
        #[cfg(unix)]
        {
            extern "C" {
                fn kill(pid: i32, sig: i32) -> i32;
            }
            let rc = unsafe { kill(self.child.id() as i32, 15) };
            assert_eq!(rc, 0, "SIGTERM delivered");
        }
        #[cfg(not(unix))]
        self.child.kill().expect("kill child");
    }

    /// SIGKILL: the child gets no chance to drain — only the checkpoint
    /// directory survives.
    fn kill_hard(&mut self) {
        self.child.kill().expect("SIGKILL child");
        let _ = self.child.wait();
    }

    fn wait_exit(&mut self, timeout: Duration) -> Option<i32> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.code();
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

// ------------------------------------------------------------ tiny client

struct Reply {
    status: u16,
    retry_after_ms: Option<u64>,
    body: Value,
}

/// The client's deadlines: connects are local, discovery replies may
/// take a while.
const TIMEOUTS: PeerTimeouts = PeerTimeouts {
    connect: Duration::from_secs(10),
    read: Duration::from_secs(120),
};

/// One request through the fleet's own client. `Err` means the transport
/// died or tore the reply (expected while a child is being SIGKILLed),
/// never a served error.
fn try_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Value>,
) -> std::io::Result<Reply> {
    let payload = body.map(Value::to_string).unwrap_or_default();
    let reply = exchange(addr, method, path, &[], payload.as_bytes(), &TIMEOUTS)?;
    let body = reply.json();
    Ok(Reply {
        status: reply.status,
        retry_after_ms: body.get("retry_after_ms").and_then(Value::as_u64),
        body,
    })
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&Value>) -> Reply {
    try_request(addr, method, path, body).expect("request against a live server")
}

/// Retries through 429/503 with jittered exponential backoff, honouring
/// the server's `retry_after_ms` hint as the floor. Returns the first
/// 2xx reply and how many times it was shed on the way.
fn request_with_backoff(addr: SocketAddr, body: &Value, rng: &mut StdRng) -> (Reply, u64) {
    let mut backoff = Duration::from_millis(25);
    let mut shed = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = request(addr, "POST", "/v1/discover", Some(body));
        if reply.status == 200 {
            return (reply, shed);
        }
        assert!(
            reply.status == 429 || reply.status == 503,
            "only load shedding is retryable, got {}",
            reply.status
        );
        shed += 1;
        assert!(Instant::now() < deadline, "backoff retries must converge");
        let hint = reply.retry_after_ms.map(Duration::from_millis);
        let jitter = Duration::from_millis(rng.random_range(0u64..backoff.as_millis() as u64 + 1));
        std::thread::sleep(backoff.max(hint.unwrap_or(Duration::ZERO)) + jitter);
        backoff = (backoff * 2).min(Duration::from_secs(2));
    }
}

// --------------------------------------------------------------- fixtures

fn dataset(rows: usize, attrs: usize, seed: u64) -> (String, String) {
    let ds = clinical(&PresetConfig {
        n_rows: rows,
        n_attrs: attrs,
        n_ofds: 2,
        seed,
        ..PresetConfig::default()
    });
    (
        csv::write_csv(&ds.clean),
        ofd_ontology::write_ontology(&ds.full_ontology),
    )
}

/// Sorted `(lhs, rhs, support bits, level)` keys from a served reply.
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

/// Uninterrupted in-process ground truth for the same payload.
fn reference_sigma(csv_text: &str, onto_text: &str) -> Vec<(String, String, u64, u64)> {
    let rel = csv::read_csv(csv_text).expect("csv");
    let onto = ofd_ontology::parse_ontology(onto_text).expect("onto");
    let out = FastOfd::new(&rel, &onto).options(DiscoveryOptions::new()).run();
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

fn counter(metrics: &Value, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("metrics expose pinned counter {name}"))
}

// ----------------------------------------------------------------- phases

struct Args {
    seed: u64,
    rows: usize,
    dir: PathBuf,
}

/// Phase 1: a burst over a tiny admission queue. Every client converges
/// through backoff, shed replies carried hints, and `/metrics` owns up.
fn phase_shed(args: &Args, csv_text: &str, onto_text: &str, reference: &[(String, String, u64, u64)]) {
    let mut server = spawn_server(&[
        ("workers", "1".to_owned()),
        ("queue-cap", "1".to_owned()),
    ]);
    let addr = server.addr;

    let mut clients = Vec::new();
    for i in 0..8u64 {
        let body = json!({ "csv": csv_text, "ontology": onto_text });
        let mut rng = StdRng::seed_from_u64(args.seed ^ i);
        clients.push(std::thread::spawn(move || {
            request_with_backoff(addr, &body, &mut rng)
        }));
    }
    let mut total_shed = 0u64;
    for client in clients {
        let (reply, shed) = client.join().expect("burst client");
        assert_eq!(sigma_keys(&reply.body), reference, "burst Σ bit-identical");
        total_shed += shed;
    }
    let metrics = request(addr, "GET", "/metrics", None).body;
    for name in ofd_serve::SERVE_COUNTERS {
        counter(&metrics, name); // presence: the schema pin, served live
    }
    assert!(counter(&metrics, "serve.admitted") >= 8, "all clients admitted eventually");
    assert_eq!(
        counter(&metrics, "serve.shed"),
        total_shed,
        "server-side shed count matches what clients saw"
    );
    println!(
        "phase shed: ok (8 clients converged, {total_shed} sheds, admitted {})",
        counter(&metrics, "serve.admitted")
    );

    server.terminate();
    assert_eq!(server.wait_exit(Duration::from_secs(30)), Some(0), "clean drain exit");
}

/// Kill → restart → resend on one checkpoint dir; Σ must match `reference`
/// byte-for-byte whether the restarted run resumed or recomputed.
fn kill_restart_resend(
    tag: &str,
    ckpt: &std::path::Path,
    faults: Option<&str>,
    body: &Value,
    reference: &[(String, String, u64, u64)],
    kill_after: Duration,
) -> bool {
    let mut flags = vec![("checkpoint-dir", ckpt.display().to_string())];
    if let Some(spec) = faults {
        flags.push(("faults", spec.to_owned()));
    }
    let mut server = spawn_server(&flags);
    let addr = server.addr;

    // Fire the long request; the SIGKILL races it, so transport errors
    // and even a served reply are both legitimate outcomes.
    let inflight = {
        let body = body.clone();
        std::thread::spawn(move || try_request(addr, "POST", "/v1/discover", Some(&body)))
    };
    std::thread::sleep(kill_after);
    server.kill_hard();
    match inflight.join().expect("inflight client") {
        Err(_) => println!("phase {tag}: SIGKILL severed the in-flight connection (expected)"),
        Ok(reply) => println!("phase {tag}: reply won the race with status {}", reply.status),
    }

    // Restart on the same dir: byte-identical, resumed or not.
    let mut server = spawn_server(&flags);
    let reply = request(server.addr, "POST", "/v1/discover", Some(body));
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body.get("status").and_then(Value::as_str), Some("complete"));
    assert_eq!(
        sigma_keys(&reply.body),
        reference,
        "phase {tag}: post-restart Σ is byte-identical to the reference"
    );
    let resumed = reply
        .body
        .get("resumed_from_level")
        .and_then(Value::as_u64)
        .is_some();
    let metrics = request(server.addr, "GET", "/metrics", None).body;
    if resumed {
        assert!(counter(&metrics, "serve.resumed") >= 1, "resume is counted");
    }
    server.terminate();
    assert_eq!(server.wait_exit(Duration::from_secs(30)), Some(0));
    resumed
}

/// The engines finish the probe workloads in milliseconds — far inside
/// any kill window. A deterministic per-candidate delay stretches
/// discovery to seconds without changing a single bit of the result, so
/// SIGKILL/SIGTERM reliably land mid-flight with snapshots on disk.
fn slow_engine_spec(seed: u64) -> String {
    format!("seed={seed},delay%1.0,delay-ms=1")
}

/// Phase 2: seeded SIGKILLs mid-discovery. At least one trial must
/// actually resume from a snapshot, or the soak proves nothing.
fn phase_sigkill(args: &Args, body: &Value, reference: &[(String, String, u64, u64)]) {
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(7919));
    let spec = slow_engine_spec(args.seed);
    let mut resumes = 0u64;
    let trials = 3u64;
    for trial in 0..trials {
        let ckpt = args.dir.join(format!("sigkill{trial}"));
        let kill_after = Duration::from_millis(rng.random_range(300u64..1200));
        if kill_restart_resend("sigkill", &ckpt, Some(&spec), body, reference, kill_after) {
            resumes += 1;
        }
    }
    assert!(
        resumes >= 1,
        "no SIGKILL trial resumed from a snapshot — the kill window is not landing mid-flight"
    );
    println!("phase sigkill: ok ({resumes}/{trials} trials resumed from snapshots)");
}

/// Phase 3: SIGTERM drain. The admitted in-flight request is answered —
/// complete or a sound cancelled partial — and the child exits 0.
fn phase_drain(args: &Args, body: &Value, reference: &[(String, String, u64, u64)]) {
    let ckpt = args.dir.join("drain");
    let flags = [
        ("checkpoint-dir", ckpt.display().to_string()),
        ("faults", slow_engine_spec(args.seed)),
    ];
    let mut server = spawn_server(&flags);
    let addr = server.addr;

    let inflight = {
        let body = body.clone();
        std::thread::spawn(move || request(addr, "POST", "/v1/discover", Some(&body)))
    };
    std::thread::sleep(Duration::from_millis(250));
    server.terminate();

    let reply = inflight.join().expect("inflight client");
    assert_eq!(reply.status, 200, "admitted work is answered through the drain");
    let status = reply.body.get("status").and_then(Value::as_str).expect("status");
    if status == "incomplete" {
        assert_eq!(
            reply.body.get("interrupt").and_then(Value::as_str),
            Some("cancelled"),
            "drain cancels cooperatively"
        );
        for key in sigma_keys(&reply.body) {
            assert!(reference.contains(&key), "drained partial Σ entry {key:?} is sound");
        }
    } else {
        assert_eq!(sigma_keys(&reply.body), reference);
    }
    assert_eq!(server.wait_exit(Duration::from_secs(30)), Some(0), "drained child exits 0");

    // A restart on the drain's checkpoints finishes the job exactly.
    let mut server = spawn_server(&flags);
    let reply = request(server.addr, "POST", "/v1/discover", Some(body));
    assert_eq!(sigma_keys(&reply.body), reference, "post-drain restart is byte-identical");
    server.terminate();
    assert_eq!(server.wait_exit(Duration::from_secs(30)), Some(0));
    println!("phase drain: ok (in-flight answered as {status}, restart byte-identical)");
}

/// Phase 4: snapshot-write faults under the same kill/restart game.
fn phase_snapshot_faults(args: &Args, body: &Value, reference: &[(String, String, u64, u64)]) {
    let spec = format!(
        "seed={},snapshot-io%0.2,snapshot-torn%0.15,delay%1.0,delay-ms=1",
        args.seed
    );
    let ckpt = args.dir.join("faults");
    kill_restart_resend(
        "faults",
        &ckpt,
        Some(&spec),
        body,
        reference,
        Duration::from_millis(400),
    );
    println!("phase faults: ok (byte-identical despite injected snapshot corruption)");
}

// -------------------------------------------------------- streaming soak

/// One streaming edit, kept alongside a local row mirror so the final
/// state can be re-validated from scratch.
enum StreamEdit {
    Append(Vec<String>),
    Retract(usize),
    Update { row: usize, attr: String, value: String },
}

/// A consequent attribute that is not also an antecedent of any planted
/// OFD — the only cell the update path may touch.
fn updatable_rhs(ds: &ofd_datagen::Dataset) -> ofd_core::AttrId {
    ds.ofds
        .iter()
        .map(|o| o.rhs)
        .find(|&r| !ds.ofds.iter().any(|o| o.lhs.contains(r)))
        .expect("the clinical preset plants an update-safe consequent")
}

/// Seeded edit script over the planted dataset: duplicated rows, novel
/// senseless consequents, retracts and consequent updates. The first
/// three edits are one of each kind so every incremental counter moves.
fn stream_script(ds: &ofd_datagen::Dataset, seed: u64, count: usize) -> Vec<StreamEdit> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31907));
    let schema = ds.clean.schema();
    let rhs = ds.ofds[0].rhs;
    let upd = updatable_rhs(ds);
    let upd_name = schema.name(upd).to_string();
    let base_rows = ds.clean.n_rows();
    let mut n_rows = base_rows;
    let mut edits = Vec::with_capacity(count);
    for i in 0..count {
        let kind = if i < 3 { i as u64 * 4 } else { rng.random_range(0u64..10) };
        match kind {
            0..=3 => {
                let mut cells: Vec<String> = ds
                    .clean
                    .row_texts(rng.random_range(0..base_rows as u64) as usize)
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                if rng.random_range(0u64..3) == 0 {
                    cells[rhs.index()] = format!("novel-{i}");
                }
                edits.push(StreamEdit::Append(cells));
                n_rows += 1;
            }
            4..=6 => {
                let value = if rng.random_range(0u64..4) == 0 {
                    format!("novel-{i}")
                } else {
                    ds.clean
                        .text(rng.random_range(0..base_rows as u64) as usize, upd)
                        .to_string()
                };
                edits.push(StreamEdit::Update {
                    row: rng.random_range(0..n_rows as u64) as usize,
                    attr: upd_name.clone(),
                    value,
                });
            }
            _ if n_rows > 1 => {
                edits.push(StreamEdit::Retract(rng.random_range(0..n_rows as u64) as usize));
                n_rows -= 1;
            }
            _ => {}
        }
    }
    edits
}

/// The `/v1/append` or `/v1/retract` request for one edit.
fn stream_request(base: &Value, edit: &StreamEdit) -> (&'static str, Value) {
    let mut body = base.clone();
    let Value::Object(fields) = &mut body else {
        unreachable!("stream base body is an object")
    };
    match edit {
        StreamEdit::Append(cells) => {
            fields.push(("rows".into(), json!([cells.clone()])));
            ("/v1/append", body)
        }
        StreamEdit::Retract(row) => {
            fields.push(("rows".into(), json!([*row as u64])));
            ("/v1/retract", body)
        }
        StreamEdit::Update { row, attr, value } => {
            fields.push((
                "updates".into(),
                json!([{"row": *row as u64, "attr": attr, "value": value}]),
            ));
            ("/v1/append", body)
        }
    }
}

/// Serialized reply with `resumed_from_seq` blanked: the one field that
/// legitimately differs between the killed run and the reference run.
fn normalized_reply(mut reply: Value) -> String {
    if let Value::Object(fields) = &mut reply {
        for (name, value) in fields.iter_mut() {
            if name == "resumed_from_seq" {
                *value = Value::Null;
            }
        }
    }
    serde_json::to_string(&reply).expect("serialize reply")
}

/// `--stream`: seeded edit soak with a mid-stream SIGKILL. The resumed
/// run must be byte-identical to an uninterrupted reference, the final
/// state must match from-scratch validation, and conflicts must be 409s
/// that leave the session usable.
fn phase_stream(args: &Args, metrics_out: Option<&Path>) {
    let ds = clinical(&PresetConfig {
        n_rows: args.rows,
        n_attrs: 5,
        n_ofds: 2,
        seed: args.seed,
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
        "ofds": specs.clone(),
    });
    let edits = stream_script(&ds, args.seed, 160);
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(48271));
    let kill_at = rng.random_range(edits.len() as u64 / 4..(edits.len() as u64 * 3) / 4) as usize;

    // Reference: the full script against one uninterrupted server.
    let ref_dir = args.dir.join("stream-ref");
    let mut server = spawn_server(&[("checkpoint-dir", ref_dir.display().to_string())]);
    let mut reference = Vec::with_capacity(edits.len());
    for edit in &edits {
        let (path, body) = stream_request(&base, edit);
        let reply = request(server.addr, "POST", path, Some(&body));
        assert_eq!(reply.status, 200, "reference edit accepted");
        reference.push(normalized_reply(reply.body));
    }
    let ref_metrics = request(server.addr, "GET", "/metrics", None).body;
    assert!(counter(&ref_metrics, "serve.stream.sessions") >= 1, "session opened");
    assert_eq!(
        counter(&ref_metrics, "serve.stream.edits"),
        edits.len() as u64,
        "every reference edit is counted"
    );
    server.terminate();
    assert_eq!(server.wait_exit(Duration::from_secs(30)), Some(0), "reference drains");
    println!(
        "phase stream: reference run complete ({} edits, kill scheduled at {kill_at})",
        edits.len()
    );

    // Soak: same script, SIGKILL between edits, resume on a new process.
    let soak_dir = args.dir.join("stream-soak");
    let flags = [("checkpoint-dir", soak_dir.display().to_string())];
    let mut server = spawn_server(&flags);
    for (i, edit) in edits[..kill_at].iter().enumerate() {
        let (path, body) = stream_request(&base, edit);
        let reply = request(server.addr, "POST", path, Some(&body));
        assert_eq!(reply.status, 200);
        assert_eq!(
            normalized_reply(reply.body),
            reference[i],
            "pre-kill edit {i} is byte-identical to the reference"
        );
    }
    server.kill_hard();

    let mut server = spawn_server(&flags);
    for (i, edit) in edits[kill_at..].iter().enumerate() {
        let (path, body) = stream_request(&base, edit);
        let reply = request(server.addr, "POST", path, Some(&body));
        assert_eq!(reply.status, 200, "post-restart edit accepted");
        if i == 0 {
            assert_eq!(
                reply.body.get("resumed_from_seq").and_then(Value::as_u64),
                Some(kill_at as u64),
                "the first post-restart edit adopts the session snapshot"
            );
        }
        assert_eq!(
            normalized_reply(reply.body),
            reference[kill_at + i],
            "post-restart edit {} is byte-identical to the reference",
            kill_at + i
        );
    }

    // Independent ground truth: replay the script on a local row mirror
    // and re-validate the final rows from scratch.
    let mut mirror: Vec<Vec<String>> = (0..ds.clean.n_rows())
        .map(|r| ds.clean.row_texts(r).iter().map(|s| s.to_string()).collect())
        .collect();
    for edit in &edits {
        match edit {
            StreamEdit::Append(cells) => mirror.push(cells.clone()),
            StreamEdit::Retract(row) => {
                mirror.swap_remove(*row);
            }
            StreamEdit::Update { row, attr, value } => {
                let col = schema.attr(attr).expect("script attr").index();
                mirror[*row][col] = value.clone();
            }
        }
    }
    let names: Vec<&str> = schema.attrs().map(|a| schema.name(a)).collect();
    let row_refs: Vec<Vec<&str>> = mirror
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let final_rel =
        ofd_core::Relation::from_rows(names, row_refs.iter().map(Vec::as_slice)).expect("mirror");
    let validator = ofd_core::Validator::new(&final_rel, &ds.full_ontology);
    let expect: usize = ds.ofds.iter().map(|o| validator.check(o).violation_count()).sum();
    let final_reply: Value =
        serde_json::from_str(reference.last().expect("non-empty script")).expect("final reply");
    assert_eq!(
        final_reply.get("violations").and_then(Value::as_u64),
        Some(expect as u64),
        "final session state matches from-scratch validation"
    );
    assert_eq!(
        final_reply.get("n_rows").and_then(Value::as_u64),
        Some(mirror.len() as u64),
        "final row count matches the mirror"
    );

    // Conflict probe: a stale optimistic update is a 409 and the session
    // keeps serving afterwards.
    let upd_name = schema.name(updatable_rhs(&ds)).to_string();
    let mut stale = base.clone();
    if let Value::Object(fields) = &mut stale {
        fields.push((
            "updates".into(),
            json!([{"row": 0, "attr": &upd_name, "value": "x", "old": "definitely-not-current"}]),
        ));
    }
    let reply = request(server.addr, "POST", "/v1/append", Some(&stale));
    assert_eq!(reply.status, 409, "a stale update is a conflict, not a 500");
    let (path, body) = stream_request(&base, &StreamEdit::Append(mirror[0].clone()));
    let reply = request(server.addr, "POST", path, Some(&body));
    assert_eq!(reply.status, 200, "the session survives a conflict");
    assert_eq!(
        reply.body.get("n_rows").and_then(Value::as_u64),
        Some(mirror.len() as u64 + 1),
        "post-conflict edits keep applying"
    );

    // The respawned worker's ledger: resume observed, every live edit
    // counted, conflicts owned up to. (Replayed edits are deliberately
    // not re-counted.)
    let metrics = request(server.addr, "GET", "/metrics", None).body;
    let live_edits = (edits.len() - kill_at) as u64 + 1; // + post-conflict append
    assert!(counter(&metrics, "serve.stream.resumed") >= 1, "resume is counted");
    assert_eq!(counter(&metrics, "serve.stream.edits"), live_edits, "live edits counted");
    assert_eq!(
        counter(&metrics, "incremental.inserts")
            + counter(&metrics, "incremental.retracts")
            + counter(&metrics, "incremental.updates"),
        live_edits,
        "every live edit lands in exactly one incremental counter"
    );
    assert!(counter(&metrics, "serve.stream.conflicts") >= 1, "conflict counted");
    assert!(counter(&metrics, "incremental.stale_updates") >= 1, "stale update counted");

    if let Some(path) = metrics_out {
        let doc = json!({
            "worker": metrics,
            "reference_worker": ref_metrics,
            "edits": edits.len() as u64,
            "kill_at": kill_at as u64,
        });
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("metrics-out parent dir");
        }
        let text = serde_json::to_string_pretty(&doc).expect("serialize metrics") + "\n";
        std::fs::write(path, text).expect("write metrics-out");
        println!("phase stream: metrics written to {}", path.display());
    }
    server.terminate();
    assert_eq!(server.wait_exit(Duration::from_secs(30)), Some(0), "soak drains");
    println!(
        "phase stream: ok ({} edits byte-identical across SIGKILL at {kill_at}, final violations {expect})",
        edits.len()
    );
}

// ------------------------------------------------------ router fleet soak

/// Spawns a supervised two-worker fleet sharing `root` for checkpoints
/// and the catalog, fronted by the shard router. The same `Obs` handle
/// feeds supervisor and router so `serve.router.*` counters survive a
/// full-fleet restart (the processes die; the soak's ledger does not).
fn start_fleet(args: &Args, obs: &Obs, root: &Path) -> Router {
    let spec = WorkerSpec {
        program: std::env::current_exe().expect("current_exe"),
        args: vec![
            "--server".into(),
            "--checkpoint-dir".into(),
            root.display().to_string(),
            "--faults".into(),
            slow_engine_spec(args.seed),
        ],
    };
    let mut sup_cfg = SupervisorConfig::new(spec);
    sup_cfg.workers = 2;
    sup_cfg.obs = obs.clone();
    let supervisor = Supervisor::start(sup_cfg).expect("supervisor start");
    let router_cfg = RouterConfig {
        catalog_dir: Some(root.join("catalog")),
        obs: obs.clone(),
        ..RouterConfig::default()
    };
    Router::bind(router_cfg, Fleet::Supervised(supervisor)).expect("router bind")
}

fn supervised(router: &Router) -> &Supervisor {
    match router.fleet() {
        Fleet::Supervised(s) => s,
        Fleet::Static(_) => unreachable!("the fleet soak always supervises its workers"),
    }
}

/// A counter scraped straight off one worker's `/metrics` (0 when the
/// worker is unreachable — e.g. freshly killed).
fn worker_counter(addr: SocketAddr, name: &str) -> u64 {
    try_request(addr, "GET", "/metrics", None)
        .ok()
        .and_then(|r| {
            r.body
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_u64)
        })
        .unwrap_or(0)
}

/// Ceiling on any one worker's final `serve.requests` in the `--peers` and
/// `--chaos-net` soaks. At seed 42 the busiest worker ends at 74; a
/// catalog read that asks back the peers that asked it (two mutual peers
/// bouncing one unknown name) ends in the thousands.
const MAX_WORKER_REQUESTS: u64 = 1_000;

/// Fails the soak when any worker's `/metrics` (one document per worker
/// in `worker_metrics`) shows more requests than [`MAX_WORKER_REQUESTS`].
fn assert_no_request_storm(tag: &str, workers: usize, worker_metrics: &[Value]) {
    assert_eq!(worker_metrics.len(), workers, "{tag}: every worker answered /metrics");
    for (i, metrics) in worker_metrics.iter().enumerate() {
        let served = counter(metrics, "serve.requests");
        assert!(
            served <= MAX_WORKER_REQUESTS,
            "{tag}: worker {i} served {served} requests, over the bound of \
             {MAX_WORKER_REQUESTS} (a peer request storm?)"
        );
    }
}

/// One SIGKILL-adoption trial: fire a by-reference discovery through the
/// router, find the worker that admitted it by watching `serve.admitted`
/// move, SIGKILL that owner mid-flight, and require the router to answer
/// the *original* client connection byte-identically via the surviving
/// replica. Returns whether the survivor adopted the dead worker's
/// checkpoint (resumed mid-level) — at least one trial must.
fn router_kill_trial(
    router_addr: SocketAddr,
    sup: &Supervisor,
    version: u64,
    reference: &[(String, String, u64, u64)],
    rng: &mut StdRng,
) -> bool {
    let reference_str = format!("clinical@{version}");
    let body = json!({ "dataset": &reference_str });
    let before: Vec<(usize, SocketAddr, u64)> = sup
        .addrs()
        .iter()
        .enumerate()
        .filter_map(|(slot, addr)| addr.map(|a| (slot, a, worker_counter(a, "serve.admitted"))))
        .collect();
    assert_eq!(before.len(), 2, "both replicas live before the trial");

    let inflight = {
        let body = body.clone();
        std::thread::spawn(move || request(router_addr, "POST", "/v1/discover", Some(&body)))
    };

    // The admitting worker is the ring owner; metrics give it away.
    let deadline = Instant::now() + Duration::from_secs(10);
    let owner = loop {
        if let Some(&(slot, _, _)) = before
            .iter()
            .find(|&&(_, addr, n)| worker_counter(addr, "serve.admitted") > n)
        {
            break slot;
        }
        assert!(Instant::now() < deadline, "no worker admitted the in-flight request");
        std::thread::sleep(Duration::from_millis(10));
    };

    // Let discovery run into the snapshot-writing window, then pull the
    // rug. The supervisor notices, respawns; the router fails over.
    std::thread::sleep(Duration::from_millis(rng.random_range(300u64..1000)));
    let owner_pid = sup.pids()[owner];
    let killed = sup.kill_worker(owner);

    let reply = inflight.join().expect("inflight client");
    assert_eq!(reply.status, 200, "failover answers the original connection");
    assert_eq!(reply.body.get("status").and_then(Value::as_str), Some("complete"));
    assert_eq!(
        sigma_keys(&reply.body),
        reference,
        "failover Σ is byte-identical to the reference"
    );
    assert_eq!(
        reply.body.get("dataset").and_then(Value::as_str),
        Some(reference_str.as_str()),
        "the reply names the resolved dataset version"
    );
    let adopted = reply
        .body
        .get("resumed_from_level")
        .and_then(Value::as_u64)
        .is_some();

    // The slot must rejoin the ring before the next trial leans on it.
    if killed {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match sup.pids()[owner] {
                Some(pid) if Some(pid) != owner_pid => break,
                _ => {}
            }
            assert!(Instant::now() < deadline, "killed worker never respawned");
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    adopted
}

/// Validates the reference Σ by catalog reference and inline, twice each,
/// through the router: every cataloged reply must equal the inline one,
/// and the worker that served the cataloged ones (both route to the ring
/// owner of v1's content) must have reused a cached partition. Returns
/// that worker's `serve.catalog.partition_hit`.
fn phase_router_validates(
    router: &Router,
    csv_text: &str,
    onto_text: &str,
    reference: &[(String, String, u64, u64)],
) -> u64 {
    let specs: Vec<String> = reference
        .iter()
        .map(|(lhs, rhs, _, _)| format!("{lhs}->{rhs}"))
        .collect();
    let cataloged = json!({ "dataset": "clinical@1", "ofds": specs.clone() });
    let inline = json!({ "csv": csv_text, "ontology": onto_text, "ofds": specs });
    for _ in 0..2 {
        let by_ref = request(router.addr(), "POST", "/v1/validate", Some(&cataloged));
        let shipped = request(router.addr(), "POST", "/v1/validate", Some(&inline));
        assert_eq!(
            (by_ref.status, shipped.status),
            (200, 200),
            "validates answer"
        );
        for field in ["status", "results", "all_satisfied"] {
            assert_eq!(
                by_ref.body.get(field),
                shipped.body.get(field),
                "a cataloged validate's {field:?} equals the inline one's"
            );
        }
    }
    let counts: Vec<(u64, u64)> = supervised(router)
        .addrs()
        .into_iter()
        .flatten()
        .map(|a| {
            (
                worker_counter(a, "serve.catalog.partition_hit"),
                worker_counter(a, "serve.catalog.partition_miss"),
            )
        })
        .collect();
    let serving: Vec<u64> = counts
        .iter()
        .filter(|&&(hit, miss)| hit + miss > 0)
        .map(|&(hit, _)| hit)
        .collect();
    assert!(
        serving.len() == 1 && serving[0] > 0,
        "one worker served the cataloged validates and reused a cached \
         partition (per worker (hit, miss): {counts:?})"
    );
    serving[0]
}

/// `--router`: the whole fleet game — catalog registration through the
/// router, SIGKILL + checkpoint adoption on the surviving replica,
/// supervisor respawns, and a full-fleet restart that must preserve the
/// catalog and every answer.
fn phase_router(args: &Args, metrics_out: Option<&Path>) {
    let obs = Obs::enabled();
    let root = args.dir.join("fleet");
    let router = start_fleet(args, &obs, &root);
    let addr = router.addr();

    // Register v1 through the router and discover it by bare reference.
    let (csv_v1, onto_v1) = dataset(args.rows, 9, args.seed);
    let ref_v1 = reference_sigma(&csv_v1, &onto_v1);
    let put = request(
        addr,
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_v1, "ontology": &onto_v1 })),
    );
    assert_eq!(put.status, 200, "catalog PUT through the router");
    assert_eq!(put.body.get("version").and_then(Value::as_u64), Some(1));
    let reply = request(addr, "POST", "/v1/discover", Some(&json!({ "dataset": "clinical" })));
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.body.get("dataset").and_then(Value::as_str),
        Some("clinical@1"),
        "a bare reference resolves to the newest version"
    );
    assert_eq!(sigma_keys(&reply.body), ref_v1, "by-reference Σ matches the reference");
    println!("phase router: v1 registered and discovered by reference (|Σ|={})", ref_v1.len());

    // SIGKILL trials, each on a fresh catalog version so every trial
    // starts from a cold checkpoint directory.
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(6271));
    let trials = 3u64;
    let mut adoptions = 0u64;
    for trial in 0..trials {
        let (csv_t, onto_t) = dataset(args.rows, 9, args.seed ^ (trial + 1));
        let ref_t = reference_sigma(&csv_t, &onto_t);
        let put = request(
            addr,
            "PUT",
            "/v1/datasets/clinical",
            Some(&json!({ "csv": &csv_t, "ontology": &onto_t })),
        );
        let version = put.body.get("version").and_then(Value::as_u64).expect("version");
        assert_eq!(version, trial + 2, "versions are append-only");
        let adopted = router_kill_trial(addr, supervised(&router), version, &ref_t, &mut rng);
        println!(
            "phase router: trial {trial} survived its SIGKILL ({})",
            if adopted { "checkpoint adopted mid-level" } else { "survivor recomputed" }
        );
        adoptions += u64::from(adopted);
    }
    assert!(
        adoptions >= 1,
        "no trial adopted a dead worker's checkpoint — the kill window is not landing mid-flight"
    );

    // Full-fleet restart on the same root: catalog and answers survive.
    let workers_before: Vec<Value> = supervised(&router)
        .addrs()
        .into_iter()
        .flatten()
        .filter_map(|a| try_request(a, "GET", "/metrics", None).ok().map(|r| r.body))
        .collect();
    router.shutdown();
    let router = start_fleet(args, &obs, &root);
    let addr = router.addr();
    let described = request(addr, "GET", "/v1/datasets/clinical", None);
    assert_eq!(described.status, 200);
    assert_eq!(
        described.body.get("version").and_then(Value::as_u64),
        Some(trials + 1),
        "every registered version survives the restart"
    );
    let reply = request(addr, "POST", "/v1/discover", Some(&json!({ "dataset": "clinical@1" })));
    assert_eq!(reply.status, 200);
    assert_eq!(
        sigma_keys(&reply.body),
        ref_v1,
        "v1 is byte-identical across a full-fleet restart"
    );
    let hits = phase_router_validates(&router, &csv_v1, &onto_v1, &ref_v1);
    println!("phase router: cataloged validates of v1's Σ match inline ({hits} partition hits)");

    // The router's counters are the soak's ledger; pin them.
    let snap = obs.snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or_else(|| panic!("counter {name} present"));
    assert!(count("serve.router.routed") >= trials + 2, "every reply was routed");
    assert!(count("serve.router.retried") >= 1, "failover retried at least once");
    assert!(count("serve.router.respawned") >= trials, "every killed worker respawned");
    assert!(count("serve.router.adopted") >= 1, "adoption was observed end to end");

    if let Some(path) = metrics_out {
        let workers_final: Vec<Value> = supervised(&router)
            .addrs()
            .into_iter()
            .flatten()
            .filter_map(|a| try_request(a, "GET", "/metrics", None).ok().map(|r| r.body))
            .collect();
        let doc = json!({
            "router": request(addr, "GET", "/metrics", None).body,
            "workers": workers_final,
            "workers_before_restart": workers_before,
        });
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("metrics-out parent dir");
        }
        let text = serde_json::to_string_pretty(&doc).expect("serialize metrics") + "\n";
        std::fs::write(path, text).expect("write metrics-out");
        println!("phase router: metrics written to {}", path.display());
    }
    router.shutdown();
    println!(
        "phase router: ok ({adoptions}/{trials} trials adopted, routed={} retried={} respawned={})",
        count("serve.router.routed"),
        count("serve.router.retried"),
        count("serve.router.respawned"),
    );
}

// ------------------------------------------------------- peer fleet soak

/// One worker of a static multi-host fleet: its process handle plus the
/// flags needed to restart it on the *same* fixed address and the *same*
/// private checkpoint root.
struct PeerWorker {
    proc: ServerProc,
    flags: Vec<(&'static str, String)>,
}

impl PeerWorker {
    fn addr(&self) -> SocketAddr {
        self.proc.addr
    }

    /// Restarts the worker on its fixed address after a SIGKILL. The
    /// port was just freed by the kill; a short retry loop rides out any
    /// lingering OS-level reluctance to rebind it.
    fn restart(&mut self) {
        for attempt in 0..20u32 {
            match try_spawn_server(&self.flags) {
                Ok(proc) => {
                    self.proc = proc;
                    return;
                }
                Err(e) => {
                    eprintln!("peer fleet: restart attempt {attempt} failed: {e}");
                    std::thread::sleep(Duration::from_millis(150));
                }
            }
        }
        panic!("killed worker never rebound its fixed address");
    }
}

/// Spawns `n` workers with mutual `--peers` lists and **disjoint**
/// checkpoint roots — each worker owns a private filesystem, exactly
/// like separate hosts. Addresses are reserved up front so every worker
/// can name its siblings at spawn time; a stolen port retries the whole
/// fleet on fresh reservations. `extra_flags` ride along on every
/// worker (the peer soak slows the engines; the chaos soak tightens
/// peer timeouts instead).
fn spawn_peer_fleet(root: &Path, n: usize, extra_flags: &[(&'static str, String)]) -> Vec<PeerWorker> {
    'attempt: for attempt in 0..3u32 {
        let addrs: Vec<SocketAddr> = (0..n).map(|_| reserve_port()).collect();
        let mut fleet = Vec::with_capacity(n);
        for (i, addr) in addrs.iter().enumerate() {
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, a)| a.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let mut flags = vec![
                ("addr", addr.to_string()),
                ("peers", peers),
                ("checkpoint-dir", root.join(format!("host-{i}")).display().to_string()),
            ];
            flags.extend(extra_flags.iter().cloned());
            match try_spawn_server(&flags) {
                Ok(proc) => fleet.push(PeerWorker { proc, flags }),
                Err(e) => {
                    eprintln!("peer fleet: spawn attempt {attempt} failed: {e}");
                    for worker in &mut fleet {
                        worker.proc.kill_hard();
                    }
                    continue 'attempt;
                }
            }
        }
        return fleet;
    }
    panic!("could not bind the peer fleet on reserved ports after 3 attempts");
}

/// `--peers`: the multi-host game. Two workers with **disjoint**
/// checkpoint roots and mutual peer lists behind a probe-driven router:
/// quorum-replicated catalog PUTs, cross-filesystem checkpoint shipping
/// (`resumed_from: "peer"`), SIGKILL failover with re-execution fallback
/// (`resumed_from: "none"`), ring ejection/readmission with hysteresis,
/// a sub-quorum PUT refused with no torn version, and peer-to-peer
/// catalog read repair. Every served Σ must be byte-identical to the
/// uninterrupted in-process reference.
fn phase_peer_fleet(args: &Args, metrics_out: Option<&Path>) {
    let obs = Obs::enabled();
    let root = args.dir.join("peer-fleet");
    let mut fleet = spawn_peer_fleet(&root, 2, &[("faults", slow_engine_spec(args.seed))]);
    let worker_addrs: Vec<SocketAddr> = fleet.iter().map(PeerWorker::addr).collect();
    let router_cfg = RouterConfig {
        probe_interval_ms: 100,
        obs: obs.clone(),
        ..RouterConfig::default()
    };
    let router = Router::bind(router_cfg, Fleet::Static(worker_addrs.clone())).expect("router bind");
    let addr = router.addr();
    let snap_count = |name: &str| obs.snapshot().counter(name).unwrap_or(0);

    // v1: a quorum PUT through the router lands on every replica, and a
    // by-reference discovery through the router matches the reference.
    let (csv_v1, onto_v1) = dataset(args.rows, 9, args.seed);
    let ref_v1 = reference_sigma(&csv_v1, &onto_v1);
    let put = request(
        addr,
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_v1, "ontology": &onto_v1 })),
    );
    assert_eq!(put.status, 200, "quorum PUT with the full fleet live");
    assert_eq!(put.body.get("version").and_then(Value::as_u64), Some(1));
    assert_eq!(put.body.get("replicas").and_then(Value::as_u64), Some(2), "both replicas acked");
    for &w in &worker_addrs {
        let described = request(w, "GET", "/v1/datasets/clinical", None);
        assert_eq!(described.status, 200, "replica {w} serves the replicated dataset");
        assert_eq!(described.body.get("version").and_then(Value::as_u64), Some(1));
    }
    let reply = request(addr, "POST", "/v1/discover", Some(&json!({ "dataset": "clinical@1" })));
    assert_eq!(reply.status, 200);
    assert_eq!(sigma_keys(&reply.body), ref_v1, "routed Σ matches the reference");
    println!("phase peers: v1 replicated to both hosts and discovered (|Σ|={})", ref_v1.len());

    // v2: cross-filesystem checkpoint shipping. Run the job to
    // completion on host 0, then send the identical request to host 1 —
    // whose checkpoint root has never seen this job. It must ship the
    // snapshot from its peer, not recompute from scratch.
    let (csv_v2, onto_v2) = dataset(args.rows, 9, args.seed ^ 0x5eed);
    let ref_v2 = reference_sigma(&csv_v2, &onto_v2);
    let put = request(
        addr,
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_v2, "ontology": &onto_v2 })),
    );
    assert_eq!(put.body.get("version").and_then(Value::as_u64), Some(2));
    let body_v2 = json!({ "dataset": "clinical@2" });
    let first = request(worker_addrs[0], "POST", "/v1/discover", Some(&body_v2));
    assert_eq!(first.status, 200);
    assert_eq!(sigma_keys(&first.body), ref_v2);
    assert_eq!(
        first.body.get("resumed_from").and_then(Value::as_str),
        Some("none"),
        "the first run of fresh content is cold everywhere"
    );
    let fetched_before = worker_counter(worker_addrs[1], "serve.ship.fetched");
    let served_before = worker_counter(worker_addrs[0], "serve.ship.served");
    let second = request(worker_addrs[1], "POST", "/v1/discover", Some(&body_v2));
    assert_eq!(second.status, 200);
    assert_eq!(sigma_keys(&second.body), ref_v2, "shipped-snapshot Σ is byte-identical");
    assert_eq!(
        second.body.get("resumed_from").and_then(Value::as_str),
        Some("peer"),
        "host 1's cold root resumed from host 0's shipped checkpoint"
    );
    assert!(
        worker_counter(worker_addrs[1], "serve.ship.fetched") > fetched_before,
        "the requester counted the fetch"
    );
    assert!(
        worker_counter(worker_addrs[0], "serve.ship.served") > served_before,
        "the owner counted the transfer"
    );
    println!("phase peers: v2 checkpoint shipped across filesystems (resumed_from=peer)");

    // Stream sessions ship the same way: two edits against host 0, then
    // the third edit of the same session against host 1, which must
    // rebuild the session from its peer's persisted snapshot.
    let stream_ds = clinical(&PresetConfig {
        n_rows: args.rows.min(400),
        n_attrs: 5,
        n_ofds: 2,
        seed: args.seed,
        ..PresetConfig::default()
    });
    let schema = stream_ds.clean.schema();
    let specs: Vec<String> = stream_ds
        .ofds
        .iter()
        .map(|o| {
            let lhs: Vec<&str> = o.lhs.iter().map(|a| schema.name(a)).collect();
            format!("{}->{}", lhs.join(","), schema.name(o.rhs))
        })
        .collect();
    let stream_base = json!({
        "csv": csv::write_csv(&stream_ds.clean),
        "ontology": ofd_ontology::write_ontology(&stream_ds.full_ontology),
        "ofds": specs,
    });
    let edits = stream_script(&stream_ds, args.seed, 3);
    for edit in &edits[..2] {
        let (path, body) = stream_request(&stream_base, edit);
        let reply = request(worker_addrs[0], "POST", path, Some(&body));
        assert_eq!(reply.status, 200, "stream edit accepted on host 0");
    }
    let fetched_before = worker_counter(worker_addrs[1], "serve.ship.fetched");
    let (path, body) = stream_request(&stream_base, &edits[2]);
    let reply = request(worker_addrs[1], "POST", path, Some(&body));
    assert_eq!(reply.status, 200, "stream edit accepted on host 1");
    assert_eq!(
        reply.body.get("resumed_from_seq").and_then(Value::as_u64),
        Some(2),
        "host 1 rebuilt the session from host 0's shipped snapshot"
    );
    assert!(
        worker_counter(worker_addrs[1], "serve.ship.fetched") > fetched_before,
        "the stream adoption counted its fetch"
    );
    println!("phase peers: stream session shipped across filesystems (resumed_from_seq=2)");

    // SIGKILL the owner mid-discovery through the router. The survivor
    // cannot ship from a dead peer, so it must fall back to re-execution
    // from inputs — and still answer the original connection
    // byte-identically. The kill window is seeded; retry on a fresh
    // version until the failover actually lands mid-flight.
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(9241));
    let mut version = 2u64;
    let mut dead: Option<usize> = None;
    for trial in 0..3u64 {
        let (csv_t, onto_t) = dataset(args.rows, 9, args.seed ^ (0x100 + trial));
        let ref_t = reference_sigma(&csv_t, &onto_t);
        let put = request(
            addr,
            "PUT",
            "/v1/datasets/clinical",
            Some(&json!({ "csv": &csv_t, "ontology": &onto_t })),
        );
        assert_eq!(put.status, 200, "trial PUT with the full fleet live");
        version = put.body.get("version").and_then(Value::as_u64).expect("trial version");
        let body = json!({ "dataset": format!("clinical@{version}") });
        let before: Vec<u64> = worker_addrs
            .iter()
            .map(|&a| worker_counter(a, "serve.admitted"))
            .collect();
        let retried_before = snap_count("serve.router.retried");
        let inflight = {
            let body = body.clone();
            std::thread::spawn(move || request(addr, "POST", "/v1/discover", Some(&body)))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let owner = loop {
            if let Some(slot) = (0..worker_addrs.len())
                .find(|&i| worker_counter(worker_addrs[i], "serve.admitted") > before[i])
            {
                break slot;
            }
            assert!(Instant::now() < deadline, "no worker admitted the in-flight request");
            std::thread::sleep(Duration::from_millis(10));
        };
        std::thread::sleep(Duration::from_millis(rng.random_range(300u64..1000)));
        fleet[owner].proc.kill_hard();

        let reply = inflight.join().expect("inflight client");
        assert_eq!(reply.status, 200, "failover answers the original connection");
        assert_eq!(sigma_keys(&reply.body), ref_t, "failover Σ is byte-identical");
        let resumed = reply.body.get("resumed_from").and_then(Value::as_str);
        if snap_count("serve.router.retried") > retried_before && resumed == Some("none") {
            println!(
                "phase peers: trial {trial} failed over; survivor re-executed from inputs \
                 (resumed_from=none)"
            );
            dead = Some(owner);
            break;
        }
        // The job finished before the kill landed — restart the owner on
        // its fixed address and try again with fresh content.
        println!("phase peers: trial {trial} finished before the kill; retrying");
        fleet[owner].restart();
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            let ready = request(addr, "GET", "/readyz", None);
            if ready.body.get("live_workers").and_then(Value::as_u64) == Some(2) {
                break;
            }
            assert!(Instant::now() < deadline, "restarted worker never rejoined the ring");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    let dead = dead.expect("re-execution fallback never observed across 3 trials");

    // With the owner still dead, the prober must eject it: /readyz turns
    // degraded, and a catalog PUT is refused outright — one live replica
    // cannot make a two-replica quorum, and no torn version may appear.
    let deadline = Instant::now() + Duration::from_secs(10);
    let ready = loop {
        let ready = request(addr, "GET", "/readyz", None);
        if ready.body.get("state").and_then(Value::as_str) == Some("degraded") {
            break ready;
        }
        assert!(Instant::now() < deadline, "dead worker was never ejected from the ring");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(ready.status, 200, "a partial ring is degraded, not down");
    assert_eq!(ready.body.get("live_workers").and_then(Value::as_u64), Some(1));
    assert!(snap_count("serve.router.ring.ejected") >= 1, "the ejection was counted");
    let (csv_x, onto_x) = dataset(args.rows.min(600), 6, args.seed ^ 0xdead);
    let denied = request(
        addr,
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_x, "ontology": &onto_x })),
    );
    assert_eq!(denied.status, 503, "a sub-quorum PUT is refused");
    let survivor = worker_addrs[1 - dead];
    let described = request(survivor, "GET", "/v1/datasets/clinical", None);
    assert_eq!(
        described.body.get("version").and_then(Value::as_u64),
        Some(version),
        "the refused write left the newest version untouched"
    );
    let torn = request(survivor, "GET", &format!("/v1/datasets/clinical@{}", version + 1), None);
    assert_ne!(torn.status, 200, "no torn version is visible after the refused write");
    assert_eq!(
        snap_count("serve.catalog.replicated_partial"),
        0,
        "a two-replica quorum is all-or-nothing; partial replication is impossible"
    );
    println!("phase peers: ejection observed, sub-quorum PUT refused with no torn version");

    // Restart the dead host: the prober readmits it with hysteresis, and
    // quorum writes work again.
    fleet[dead].restart();
    let deadline = Instant::now() + Duration::from_secs(15);
    let ready = loop {
        let ready = request(addr, "GET", "/readyz", None);
        if ready.body.get("state").and_then(Value::as_str) == Some("ok") {
            break ready;
        }
        assert!(Instant::now() < deadline, "restarted worker was never readmitted");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(ready.body.get("live_workers").and_then(Value::as_u64), Some(2));
    assert!(snap_count("serve.router.ring.readmitted") >= 1, "the readmission was counted");
    let (csv_y, onto_y) = dataset(args.rows.min(600), 6, args.seed ^ 0xbeef);
    let put = request(
        addr,
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_y, "ontology": &onto_y })),
    );
    assert_eq!(put.status, 200, "quorum restored after readmission");
    assert_eq!(put.body.get("version").and_then(Value::as_u64), Some(version + 1));
    assert_eq!(put.body.get("replicas").and_then(Value::as_u64), Some(2));
    for &w in &worker_addrs {
        let described = request(w, "GET", "/v1/datasets/clinical", None);
        assert_eq!(described.body.get("version").and_then(Value::as_u64), Some(version + 1));
    }
    println!("phase peers: readmission observed, quorum writes restored (v{})", version + 1);

    // Peer-to-peer read repair: write one version to a single host
    // behind the router's back, then ask the *other* host for it by
    // explicit reference — it must fetch the gap from its peer.
    let (csv_r, onto_r) = dataset(args.rows.min(600), 6, args.seed ^ 0xfeed);
    let direct = request(
        worker_addrs[0],
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_r, "ontology": &onto_r })),
    );
    assert_eq!(direct.status, 200);
    let divergent = direct.body.get("version").and_then(Value::as_u64).expect("direct version");
    let fetch_before = worker_counter(worker_addrs[1], "serve.catalog.peer_fetch");
    let repaired = request(
        worker_addrs[1],
        "GET",
        &format!("/v1/datasets/clinical@{divergent}"),
        None,
    );
    assert_eq!(repaired.status, 200, "the missing version was repaired from a peer");
    assert_eq!(repaired.body.get("version").and_then(Value::as_u64), Some(divergent));
    assert!(
        worker_counter(worker_addrs[1], "serve.catalog.peer_fetch") > fetch_before,
        "the read repair counted its peer fetch"
    );
    println!("phase peers: catalog read repair fetched v{divergent} peer-to-peer");

    // The soak's ledger: every membership and replication event landed.
    assert!(snap_count("serve.router.ring.ejected") >= 1, "ejection was counted");
    assert!(snap_count("serve.router.ring.readmitted") >= 1, "readmission was counted");
    assert!(snap_count("serve.router.retried") >= 1, "failover retried at least once");
    let workers: Vec<Value> = worker_addrs
        .iter()
        .filter_map(|&a| try_request(a, "GET", "/metrics", None).ok().map(|r| r.body))
        .collect();
    assert_no_request_storm("phase peers", worker_addrs.len(), &workers);

    if let Some(path) = metrics_out {
        let doc = json!({
            "router": request(addr, "GET", "/metrics", None).body,
            "workers": workers,
        });
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("metrics-out parent dir");
        }
        let text = serde_json::to_string_pretty(&doc).expect("serialize metrics") + "\n";
        std::fs::write(path, text).expect("write metrics-out");
        println!("phase peers: metrics written to {}", path.display());
    }

    router.shutdown();
    for worker in &mut fleet {
        worker.proc.terminate();
        assert_eq!(worker.proc.wait_exit(Duration::from_secs(30)), Some(0), "worker drains");
    }
    println!(
        "phase peers: ok (ejected={} readmitted={} retried={} routed={})",
        snap_count("serve.router.ring.ejected"),
        snap_count("serve.router.ring.readmitted"),
        snap_count("serve.router.retried"),
        snap_count("serve.router.routed"),
    );
}

// -------------------------------------------------------- chaos-net soak

/// The seeded toxic mix for the chaos-net soak. Severity cascades inside
/// the plan (refuse > blackhole > reset > partial > delay), so the per-
/// connection probabilities here are "armed" rates, not exact shares.
fn chaos_net_spec(seed: u64) -> String {
    format!(
        "seed={seed},net-delay%0.12,net-reset%0.08,net-partial%0.05,net-blackhole%0.03,\
         net-refuse%0.08,delay-ms=1"
    )
}

/// What one chaos-net pass leaves behind: per-proxy toxic schedules in
/// accept order, plus the router-side chaos ledger.
struct ChaosPass {
    schedules: Vec<Vec<String>>,
    injected: u64,
    resets: u64,
    blackholes: u64,
    retries_exhausted: u64,
    router_metrics: Value,
    worker_metrics: Vec<Value>,
}

/// One pass of the chaos-net workload: a two-host peer fleet behind a
/// static-fleet router, with (`chaos`) or without the toxic proxies on
/// the router→worker wire. The workload is strictly sequential and the
/// prober is parked after its initial round, so the proxies' accept
/// order — and therefore the toxic schedule — is a pure function of the
/// fault-plan seed.
fn chaos_net_pass(
    args: &Args,
    tag: &str,
    chaos: bool,
    csv_text: &str,
    onto_text: &str,
    reference: &[(String, String, u64, u64)],
) -> ChaosPass {
    let obs = Obs::enabled();
    let root = args.dir.join(tag);
    let mut fleet = spawn_peer_fleet(&root, 2, &[("peer-timeout-ms", "1500".to_owned())]);
    let worker_addrs: Vec<SocketAddr> = fleet.iter().map(PeerWorker::addr).collect();

    // The toxic wire: one in-process chaos proxy per worker, each with
    // its own fault plan from the same spec (occurrence counters are
    // per-proxy, so each schedule is deterministic in isolation). The
    // router's Obs receives the `serve.net.*` attribution.
    let mut proxies: Vec<NetFaultProxy> = Vec::new();
    let upstream: Vec<SocketAddr> = if chaos {
        for &w in &worker_addrs {
            let plan =
                Arc::new(FaultPlan::parse(&chaos_net_spec(args.seed)).expect("chaos-net spec"));
            proxies.push(NetFaultProxy::bind(w, plan, obs.clone()).expect("chaos proxy bind"));
        }
        proxies.iter().map(NetFaultProxy::addr).collect()
    } else {
        worker_addrs.clone()
    };

    let router_cfg = RouterConfig {
        // The prober runs one round at bind, then sleeps past the soak's
        // lifetime: interleaved probe connections would make the proxies'
        // accept order — and so the toxic schedule — nondeterministic.
        // A fresh static ring defaults to fully live, so parking the
        // prober costs nothing.
        probe_interval_ms: 600_000,
        eject_after: 100,
        connect_timeout_ms: 500,
        forward_timeout_ms: 2_500,
        retry_backoff_ms: 25,
        extra_rounds: 4,
        peer_timeout_ms: 1_500,
        head_timeout_ms: 5_000,
        obs: obs.clone(),
        ..RouterConfig::default()
    };
    let router = Router::bind(router_cfg, Fleet::Static(upstream)).expect("router bind");
    let addr = router.addr();
    println!("phase chaos: [{tag}] fleet up (chaos={chaos}), router on {addr}");

    if chaos {
        // Wait out the initial probe round so it lands at a fixed place
        // (entry 0) in every proxy's schedule before the workload starts.
        let deadline = Instant::now() + Duration::from_secs(10);
        while proxies.iter().any(|p| p.schedule().is_empty()) {
            assert!(
                Instant::now() < deadline,
                "the router's initial probe round never reached the proxies"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Quorum PUT over the toxic wire: the retry budget must absorb every
    // injected fault — the client sees one clean 200, both replicas
    // converge, and idempotent re-sends cover torn acks.
    let put = request(
        addr,
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": csv_text, "ontology": onto_text })),
    );
    assert_eq!(put.status, 200, "chaos PUT converges through retries");
    assert_eq!(put.body.get("version").and_then(Value::as_u64), Some(1));
    assert_eq!(put.body.get("replicas").and_then(Value::as_u64), Some(2), "both replicas acked");
    println!("phase chaos: [{tag}] quorum PUT v1 converged");

    // Scripted reads: every routed reply must be byte-identical to the
    // in-process reference, no matter which toxics fire on the way.
    for i in 0..12u64 {
        let reply =
            request(addr, "POST", "/v1/discover", Some(&json!({ "dataset": "clinical@1" })));
        assert_eq!(reply.status, 200, "chaos discover {i} answered");
        if sigma_keys(&reply.body) != reference {
            for (p, proxy) in proxies.iter().enumerate() {
                eprintln!("proxy {p} schedule so far: {:?}", proxy.schedule());
            }
            panic!("chaos discover {i} diverged from the reference: {}", reply.body);
        }
    }
    let described = request(addr, "GET", "/v1/datasets/clinical", None);
    assert_eq!(described.status, 200);
    assert_eq!(described.body.get("version").and_then(Value::as_u64), Some(1));
    println!("phase chaos: [{tag}] 12 discovers byte-identical");

    // Coordinator death mid-fan-out: a pinned v2 lands on host 0 only —
    // as if the router died after one replica PUT and before any commit.
    // The stranded *pending* version must never become readable: the next
    // read quorum-confirms it, finds it short of majority, and tears it
    // down (`serve.catalog.read_repaired`).
    let (csv_orphan, onto_orphan) = dataset(args.rows.min(400), 6, args.seed ^ 0xc0de);
    let orphan = request(
        worker_addrs[0],
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_orphan, "ontology": &onto_orphan, "version": 2 })),
    );
    assert_eq!(orphan.status, 200, "the pinned replica write is accepted as pending");
    println!("phase chaos: [{tag}] orphaned pending v2 planted on host 0");
    let repaired_before = worker_counter(worker_addrs[0], "serve.catalog.read_repaired");
    let described = request(worker_addrs[0], "GET", "/v1/datasets/clinical", None);
    assert_eq!(
        described.body.get("version").and_then(Value::as_u64),
        Some(1),
        "a sub-quorum pending version is never served as newest"
    );
    assert!(
        worker_counter(worker_addrs[0], "serve.catalog.read_repaired") > repaired_before,
        "read repair tore the orphaned pending version down"
    );
    println!("phase chaos: [{tag}] orphan torn down by read repair");
    let torn = request(worker_addrs[0], "GET", "/v1/datasets/clinical@2", None);
    assert_ne!(torn.status, 200, "the torn version is unreadable after repair");
    println!("phase chaos: [{tag}] torn version unreadable ({})", torn.status);
    let peer_view = request(worker_addrs[1], "GET", "/v1/datasets/clinical", None);
    println!("phase chaos: [{tag}] peer view agrees ({})", peer_view.status);
    assert_eq!(
        peer_view.body.get("version").and_then(Value::as_u64),
        Some(1),
        "the untouched replica agrees on the newest version"
    );

    // The ledger: every injected fault is attributed by name, and the
    // schedule log agrees with both the plan's own accounting and the
    // router-side counters.
    let schedules: Vec<Vec<String>> = proxies.iter().map(NetFaultProxy::schedule).collect();
    let label_count = |label: &str| {
        schedules.iter().flatten().filter(|s| s.as_str() == label).count() as u64
    };
    let toxic_count: u64 = schedules.iter().flatten().filter(|s| s.as_str() != "pass").count() as u64;
    let fired_total: u64 = proxies.iter().map(|p| p.plan().net_fired()).sum();
    let snap = obs.snapshot();
    let net = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(net("serve.net.injected"), fired_total, "injected == Σ plan.net_fired()");
    assert_eq!(net("serve.net.injected"), toxic_count, "injected == non-pass schedule entries");
    assert_eq!(net("serve.net.resets"), label_count("reset"), "every reset attributed");
    assert_eq!(net("serve.net.blackholes"), label_count("blackhole"), "every blackhole attributed");

    println!("phase chaos: [{tag}] ledger consistent, collecting metrics");
    let router_metrics = request(addr, "GET", "/metrics", None).body;
    let worker_metrics: Vec<Value> = worker_addrs
        .iter()
        .filter_map(|&a| try_request(a, "GET", "/metrics", None).ok().map(|r| r.body))
        .collect();
    assert_no_request_storm(&format!("phase chaos: [{tag}]"), worker_addrs.len(), &worker_metrics);

    router.shutdown();
    for proxy in &mut proxies {
        proxy.stop();
    }
    for worker in &mut fleet {
        worker.proc.terminate();
        assert_eq!(worker.proc.wait_exit(Duration::from_secs(30)), Some(0), "worker drains");
    }
    ChaosPass {
        schedules,
        injected: net("serve.net.injected"),
        resets: net("serve.net.resets"),
        blackholes: net("serve.net.blackholes"),
        retries_exhausted: net("serve.net.retries_exhausted"),
        router_metrics,
        worker_metrics,
    }
}

/// `--chaos-net`: deterministic network fault injection on the
/// router→worker wire. A fault-free pass proves the topology clean, two
/// chaos passes with the same seed must replay the identical toxic
/// schedule, every routed reply must be byte-identical to the reference,
/// a coordinator death mid-fan-out must leave no readable torn version,
/// and the `serve.net.*` counters must attribute every injected fault.
fn phase_chaos_net(args: &Args, metrics_out: Option<&Path>) {
    let (csv_text, onto_text) = dataset(args.rows.min(400), 6, args.seed);
    let reference = reference_sigma(&csv_text, &onto_text);
    println!("phase chaos: reference |Σ|={} ({} rows, seed {})", reference.len(),
        args.rows.min(400), args.seed);

    let clean = chaos_net_pass(args, "chaos-ref", false, &csv_text, &onto_text, &reference);
    assert_eq!(clean.injected, 0, "no faults fire without the toxic wire");
    println!("phase chaos: fault-free reference pass clean");

    let run1 = chaos_net_pass(args, "chaos-a", true, &csv_text, &onto_text, &reference);
    assert!(
        run1.injected >= 3,
        "the pinned seed must actually inject faults (got {})",
        run1.injected
    );
    assert!(
        run1.resets + run1.blackholes >= 1,
        "the soak must see at least one destructive toxic"
    );
    println!(
        "phase chaos: run A survived {} injected faults ({} resets, {} blackholes, \
         {} retry budgets exhausted)",
        run1.injected, run1.resets, run1.blackholes, run1.retries_exhausted
    );

    let run2 = chaos_net_pass(args, "chaos-b", true, &csv_text, &onto_text, &reference);
    assert_eq!(
        run1.schedules, run2.schedules,
        "the same seed must replay the identical toxic schedule"
    );
    assert_eq!(
        (run1.injected, run1.resets, run1.blackholes),
        (run2.injected, run2.resets, run2.blackholes),
        "the same seed must replay the identical chaos ledger"
    );
    println!("phase chaos: run B replayed run A's schedule exactly ({} connections/proxy)",
        run1.schedules.iter().map(Vec::len).max().unwrap_or(0));

    if let Some(path) = metrics_out {
        let doc = json!({
            "router": run1.router_metrics,
            "workers": run1.worker_metrics,
            "schedules": run1.schedules,
            "injected": run1.injected,
            "resets": run1.resets,
            "blackholes": run1.blackholes,
            "retries_exhausted": run1.retries_exhausted,
        });
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("metrics-out parent dir");
        }
        let text = serde_json::to_string_pretty(&doc).expect("serialize metrics") + "\n";
        std::fs::write(path, text).expect("write metrics-out");
        println!("phase chaos: metrics written to {}", path.display());
    }
    println!(
        "phase chaos: ok (injected={} resets={} blackholes={}, schedule replayed byte-for-byte)",
        run1.injected, run1.resets, run1.blackholes
    );
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("--server") {
        raw.next();
        let mut flags = Vec::new();
        while let Some(arg) = raw.next() {
            let name = arg.strip_prefix("--").expect("--flag VALUE").to_owned();
            let value = raw.next().unwrap_or_else(|| panic!("--{name} expects a value"));
            flags.push((name, value));
        }
        return server_mode(&flags);
    }

    let mut args = Args {
        seed: 42,
        rows: 2500,
        dir: std::env::temp_dir().join(format!("ofd_serve_probe_{}", std::process::id())),
    };
    let mut router_mode = false;
    let mut stream_mode = false;
    let mut peers_mode = false;
    let mut chaos_net_mode = false;
    let mut metrics_out: Option<PathBuf> = None;
    while let Some(arg) = raw.next() {
        let mut value = |name: &str| raw.next().unwrap_or_else(|| panic!("{name} VALUE"));
        match arg.as_str() {
            "--seed" => args.seed = value("--seed").parse().expect("--seed expects an integer"),
            "--rows" => args.rows = value("--rows").parse().expect("--rows expects an integer"),
            "--dir" => args.dir = value("--dir").into(),
            "--router" => router_mode = true,
            "--stream" => stream_mode = true,
            "--peers" => peers_mode = true,
            "--chaos-net" => chaos_net_mode = true,
            "--metrics-out" => metrics_out = Some(value("--metrics-out").into()),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(
        metrics_out.is_none() || router_mode || stream_mode || peers_mode || chaos_net_mode,
        "--metrics-out only applies to --router, --stream, --peers and --chaos-net runs"
    );
    assert!(
        u32::from(router_mode)
            + u32::from(stream_mode)
            + u32::from(peers_mode)
            + u32::from(chaos_net_mode)
            <= 1,
        "--router, --stream, --peers and --chaos-net are separate soaks"
    );
    let _ = std::fs::remove_dir_all(&args.dir);

    if stream_mode {
        phase_stream(&args, metrics_out.as_deref());
        let _ = std::fs::remove_dir_all(&args.dir);
        println!("serve_probe: streaming session consistent");
        return ExitCode::SUCCESS;
    }

    if router_mode {
        phase_router(&args, metrics_out.as_deref());
        let _ = std::fs::remove_dir_all(&args.dir);
        println!("serve_probe: router fleet consistent");
        return ExitCode::SUCCESS;
    }

    if peers_mode {
        phase_peer_fleet(&args, metrics_out.as_deref());
        let _ = std::fs::remove_dir_all(&args.dir);
        println!("serve_probe: peer fleet consistent");
        return ExitCode::SUCCESS;
    }

    if chaos_net_mode {
        phase_chaos_net(&args, metrics_out.as_deref());
        let _ = std::fs::remove_dir_all(&args.dir);
        println!("serve_probe: chaos-net fleet consistent");
        return ExitCode::SUCCESS;
    }

    // Medium payload for the shed burst; a wide lattice (more attributes)
    // for the kill/drain phases — rows barely move discovery wall time,
    // attribute count does, and the kill window must land mid-discovery
    // with completed-level snapshots already on disk.
    let (burst_csv, burst_onto) = dataset(args.rows.min(800), 6, args.seed);
    let burst_ref = reference_sigma(&burst_csv, &burst_onto);
    let (long_csv, long_onto) = dataset(args.rows, 9, args.seed);
    let t0 = Instant::now();
    let long_ref = reference_sigma(&long_csv, &long_onto);
    let long_wall = t0.elapsed();
    let long_body = json!({ "csv": &long_csv, "ontology": &long_onto });
    println!(
        "reference: burst |Σ|={}, long |Σ|={} in {:?} ({} rows, seed {})",
        burst_ref.len(),
        long_ref.len(),
        long_wall,
        args.rows,
        args.seed
    );

    phase_shed(&args, &burst_csv, &burst_onto, &burst_ref);
    phase_sigkill(&args, &long_body, &long_ref);
    phase_drain(&args, &long_body, &long_ref);
    phase_snapshot_faults(&args, &long_body, &long_ref);

    let _ = std::fs::remove_dir_all(&args.dir);
    println!("serve_probe: all phases consistent");
    ExitCode::SUCCESS
}
