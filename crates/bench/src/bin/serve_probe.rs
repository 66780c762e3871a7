//! Service-layer soak harness: hammer real `ofd-serve` child processes
//! with bursts, kill them mid-flight, drain them with SIGTERM, corrupt
//! their snapshots and their network — then assert every accepted request
//! is answered, shed requests carry honest backoff hints, and every served
//! Σ and stream reply is **byte-identical** to an uninterrupted in-process
//! run.
//!
//! ```text
//! serve_probe [--seed S] [--rows N] [--dir D]
//! serve_probe --stream [--seed S] [--rows N] [--dir D]
//!             [--metrics-out PATH]                   # streaming soak
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
//! **One driver.** Every soak drives one [`Cluster`] handle, which starts,
//! addresses, kills, restarts, scrapes and stops each topology the soaks
//! use — a lone re-exec'd server, the supervised two-worker fleet behind
//! the router on one shared root, and workers on reserved ports with
//! private roots and mutual `--peers` lists behind a static router, with
//! or without chaos proxies on the router→worker wire — through one set
//! of steps: a fixture body and its reference Σ ([`data`], [`reference`]),
//! catalog PUT and describe ([`register`], [`describe`]),
//! discover-and-compare ([`discover`]), the kill-the-owner trial
//! ([`kill_in_flight`]), [`wait_until`], metrics ([`Cluster::scrape`],
//! [`bumps`]) and one `--metrics-out` writer ([`dump`]).
//!
//! The default soak:
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
//! `--stream`: a seeded interleaving of `/v1/append` / `/v1/retract`
//! edits against a checkpointed session, SIGKILLed mid-stream and resumed
//! on a fresh process. Every reply must be byte-identical to an
//! uninterrupted reference run of the same edit script, the resumed
//! session's persisted edit log must equal the reference's, the final
//! state must match a from-scratch validation of the final rows, and a stale
//! update must come back as a 409 that leaves the session usable.
//!
//! `--router`: the supervised fleet, all replicas sharing one
//! checkpoint/catalog root. It registers a dataset through the router's
//! catalog API, SIGKILLs the owning worker mid-discovery and requires the
//! surviving replica to **adopt** the dead worker's checkpoint on the
//! *same* still-open client connection, waits for the supervisor to
//! respawn the slot, then restarts the whole fleet and proves the catalog
//! and every answer survive. On the restarted fleet, validates of the
//! reference Σ by catalog reference must answer as the same request
//! shipped inline, and the serving worker must reuse the version's cached
//! partitions (`serve.catalog.partition_hit` > 0).
//!
//! `--peers`: two workers with **disjoint** checkpoint roots (private
//! filesystems, like separate hosts) behind a probe-driven router. It
//! proves quorum catalog replication, cross-filesystem checkpoint
//! shipping for jobs and stream sessions (`resumed_from: "peer"`),
//! SIGKILL failover with re-execution fallback (`resumed_from: "none"`),
//! ring ejection/readmission with hysteresis, a sub-quorum PUT refused
//! with no torn version, and peer-to-peer catalog read repair.
//!
//! `--chaos-net`: the same two-host topology with a seeded chaos proxy on
//! each router→worker wire injecting delays, mid-body resets, partial
//! replies, blackholes and refusals. Every routed reply must stay
//! byte-identical to the fault-free reference, a simulated coordinator
//! death mid-fan-out must leave no readable torn catalog version, the
//! `serve.net.*` counters must attribute every injected fault, and a
//! second pass with the same seed must replay the identical schedule.
//!
//! `--metrics-out` dumps the final router and worker `/metrics` documents
//! of the four non-default soaks as one JSON file for CI artifacts.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ofd_core::{FaultPlan, Obs};
use ofd_datagen::{clinical, csv, Dataset, PresetConfig};
use ofd_discovery::{DiscoveryOptions, FastOfd};
use ofd_ontology::{parse_ontology, write_ontology};
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
    fn parsed<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Option<T> {
        let (_, v) = flags.iter().find(|(n, _)| n == name)?;
        Some(
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} expects a valid value")),
        )
    }
    let mut cfg = ServeConfig {
        addr: parsed(flags, "addr").unwrap_or_else(|| "127.0.0.1:0".to_owned()),
        ..ServeConfig::default()
    };
    if let Some(spec) = parsed::<String>(flags, "peers") {
        cfg.peers = ofd_serve::parse_peer_list(&spec).expect("valid --peers list");
    }
    cfg.workers = parsed(flags, "workers").unwrap_or(cfg.workers);
    cfg.queue_cap = parsed(flags, "queue-cap").unwrap_or(cfg.queue_cap);
    cfg.budget_ms = parsed(flags, "budget-ms").unwrap_or(cfg.budget_ms);
    cfg.checkpoint_dir = parsed(flags, "checkpoint-dir");
    cfg.head_timeout_ms = parsed(flags, "head-timeout-ms").unwrap_or(cfg.head_timeout_ms);
    cfg.peer_timeout_ms = parsed(flags, "peer-timeout-ms").unwrap_or(cfg.peer_timeout_ms);
    if let Some(spec) = parsed::<String>(flags, "faults") {
        cfg.faults = FaultPlan::parse(&spec).expect("valid fault spec");
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

// ------------------------------------------------------------- the driver

type Flags = Vec<(&'static str, String)>;

/// One `--server` child and the flags that restart it on the same
/// address and the same checkpoint root.
struct Proc {
    child: Child,
    addr: SocketAddr,
    flags: Flags,
}

impl Proc {
    /// Spawns `current_exe --server` and waits for its `listening on`
    /// line. `Err` means the child died before announcing itself — e.g. a
    /// reserved fixed port was taken between reservation and bind.
    fn spawn(flags: Flags) -> Result<Proc, String> {
        let mut cmd = Command::new(std::env::current_exe().expect("current_exe"));
        cmd.arg("--server");
        for (name, value) in &flags {
            cmd.arg(format!("--{name}")).arg(value);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let mut lines = BufReader::new(child.stdout.take().expect("child stdout")).lines();
        let banner = lines.next().and_then(Result::ok);
        let Some(addr) = banner.and_then(|l| l.strip_prefix("listening on ")?.parse().ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("child exited before announcing its address".into());
        };
        // Keep draining the pipe so the child never blocks on a full stdout.
        std::thread::spawn(move || for _ in lines {});
        Ok(Proc { child, addr, flags })
    }

    /// SIGKILL: the child gets no chance to drain — only the checkpoint
    /// directory survives.
    fn kill(&mut self) {
        self.child.kill().expect("SIGKILL child");
        let _ = self.child.wait();
    }

    /// SIGTERM (cooperative drain; a hard kill off unix), then the child
    /// must exit 0.
    fn drain(&mut self) {
        #[cfg(unix)]
        {
            extern "C" {
                fn kill(pid: i32, sig: i32) -> i32;
            }
            // SAFETY: kill(2) takes two integers and touches no memory of
            // ours; the pid is this handle's own, not yet reaped, child.
            let rc = unsafe { kill(self.child.id() as i32, 15) };
            assert_eq!(rc, 0, "SIGTERM delivered");
        }
        #[cfg(not(unix))]
        self.child.kill().expect("kill child");
        let code = wait_until("a drained server exits", 30, || {
            self.child.try_wait().expect("try_wait").map(|s| s.code())
        });
        assert_eq!(code, Some(0), "a drained server exits 0");
    }
}

/// A soak that fails part-way leaves no server behind holding its pipes.
impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `checkpoint-dir` (and optional `faults`) child flags.
fn ckpt_flags(dir: PathBuf, faults: Option<String>) -> Flags {
    let mut flags = vec![("checkpoint-dir", dir.display().to_string())];
    flags.extend(faults.map(|spec| ("faults", spec)));
    flags
}

/// Every topology the soaks run, behind one handle: a lone re-exec'd
/// server (no router), a supervised fleet behind the router, or static
/// peer workers behind a router, optionally through chaos proxies. The
/// `obs` ledger is the router's, so `serve.router.*` and `serve.net.*`
/// counters outlive a full-fleet restart.
struct Cluster {
    obs: Obs,
    router: Option<Router>,
    procs: Vec<Proc>,
    proxies: Vec<NetFaultProxy>,
    size: usize,
}

impl Cluster {
    fn lone(flags: Flags) -> Cluster {
        Cluster {
            obs: Obs::enabled(),
            router: None,
            procs: vec![Proc::spawn(flags).expect("spawn server child")],
            proxies: Vec::new(),
            size: 1,
        }
    }

    /// Two supervised workers sharing `root` for checkpoints and the
    /// catalog, fronted by the shard router.
    fn supervised(root: &Path, faults: &str, obs: &Obs) -> Cluster {
        let root_arg = root.display().to_string();
        let args = [
            "--server",
            "--checkpoint-dir",
            &root_arg,
            "--faults",
            faults,
        ];
        let program = std::env::current_exe().expect("current_exe");
        let mut sup_cfg = SupervisorConfig::new(WorkerSpec {
            program,
            args: args.map(String::from).to_vec(),
        });
        sup_cfg.workers = 2;
        sup_cfg.obs = obs.clone();
        let supervisor = Supervisor::start(sup_cfg).expect("supervisor start");
        let cfg = RouterConfig {
            catalog_dir: Some(root.join("catalog")),
            obs: obs.clone(),
            ..RouterConfig::default()
        };
        let router = Router::bind(cfg, Fleet::Supervised(supervisor)).expect("router bind");
        Cluster {
            obs: obs.clone(),
            router: Some(router),
            procs: Vec::new(),
            proxies: Vec::new(),
            size: 2,
        }
    }

    /// Two workers with mutual `--peers` lists and **disjoint** roots
    /// under `root`, like separate hosts, behind a static router. Peer
    /// lists need every address before any worker starts, so each binds a
    /// reserved port; a stolen port retries the fleet on fresh ones. With
    /// `chaos`, each router→worker wire runs through a proxy with its own
    /// plan from that spec.
    fn peers(
        root: &Path,
        extra: &[(&'static str, String)],
        mut cfg: RouterConfig,
        chaos: Option<String>,
    ) -> Cluster {
        let procs = (0..3u32).find_map(|attempt| {
            let addrs: Vec<SocketAddr> = (0..2)
                .map(|_| {
                    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve");
                    listener.local_addr().expect("reserved port")
                })
                .collect();
            let mut procs: Vec<Proc> = Vec::new();
            for (i, addr) in addrs.iter().enumerate() {
                let peers: Vec<String> = (0..addrs.len())
                    .filter(|&j| j != i)
                    .map(|j| addrs[j].to_string())
                    .collect();
                let host = root.join(format!("host-{i}"));
                let mut flags = vec![("addr", addr.to_string()), ("peers", peers.join(","))];
                flags.extend(
                    ckpt_flags(host, None)
                        .into_iter()
                        .chain(extra.iter().cloned()),
                );
                match Proc::spawn(flags) {
                    Ok(proc) => procs.push(proc),
                    Err(e) => {
                        eprintln!("peer fleet: spawn attempt {attempt} failed: {e}");
                        procs.iter_mut().for_each(Proc::kill);
                        return None;
                    }
                }
            }
            Some(procs)
        });
        let procs =
            procs.expect("could not bind the peer fleet on reserved ports after 3 attempts");
        let obs = Obs::enabled();
        let proxies: Vec<NetFaultProxy> = chaos
            .iter()
            .flat_map(|spec| procs.iter().map(move |p| (spec, p.addr)))
            .map(|(spec, addr)| {
                let plan = Arc::new(FaultPlan::parse(spec).expect("chaos-net spec"));
                NetFaultProxy::bind(addr, plan, obs.clone()).expect("chaos proxy bind")
            })
            .collect();
        let upstream = match chaos {
            Some(_) => proxies.iter().map(NetFaultProxy::addr).collect(),
            None => procs.iter().map(|p| p.addr).collect(),
        };
        cfg.obs = obs.clone();
        let router = Router::bind(cfg, Fleet::Static(upstream)).expect("router bind");
        Cluster {
            obs,
            router: Some(router),
            procs,
            proxies,
            size: 2,
        }
    }

    /// The front address: the router's, or the lone server's.
    fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.procs[0].addr, Router::addr)
    }

    /// Live worker addresses in slot order (never the proxies').
    fn workers(&self) -> Vec<SocketAddr> {
        match self.router.as_ref().map(Router::fleet) {
            Some(Fleet::Supervised(sup)) => sup.addrs().into_iter().flatten().collect(),
            _ => self.procs.iter().map(|p| p.addr).collect(),
        }
    }

    /// Every reachable worker's `/metrics` document.
    fn scrape(&self) -> Vec<Value> {
        let replies = self
            .workers()
            .into_iter()
            .map(|a| try_request(a, "GET", "/metrics", None));
        replies.filter_map(Result::ok).map(|r| r.body).collect()
    }

    /// A counter of the router-side ledger (0 while unset).
    fn ledger(&self, name: &str) -> u64 {
        self.obs.snapshot().counter(name).unwrap_or(0)
    }

    /// SIGKILLs worker `slot`. A supervised slot must come back under a
    /// new pid before anything else leans on it.
    fn kill(&mut self, slot: usize) {
        let Some(Fleet::Supervised(sup)) = self.router.as_ref().map(Router::fleet) else {
            return self.procs[slot].kill();
        };
        let pid = sup.pids()[slot];
        if sup.kill_worker(slot) {
            wait_until("killed worker never respawned", 15, || {
                sup.pids()[slot].filter(|&new| Some(new) != pid)
            });
        }
    }

    /// Restarts a killed worker on its own flags. A fixed port was just
    /// freed by the kill; retries ride out any lingering reluctance to
    /// rebind it.
    fn restart(&mut self, slot: usize) {
        let flags = self.procs[slot].flags.clone();
        let proc = (0..20u32).find_map(|attempt| {
            Proc::spawn(flags.clone())
                .map_err(|e| {
                    eprintln!("restart attempt {attempt} failed: {e}");
                    std::thread::sleep(Duration::from_millis(150));
                })
                .ok()
        });
        self.procs[slot] = proc.expect("killed worker never rebound its address");
    }

    /// Stops the router (and a supervised fleet's workers) and the
    /// proxies, then drains every spawned server.
    fn stop(mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        self.proxies.iter_mut().for_each(NetFaultProxy::stop);
        self.procs.iter_mut().for_each(Proc::drain);
    }
}

/// Stops a supervised fleet's workers too when a soak fails part-way.
impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
    }
}

/// Polls `probe` every 10 ms until it yields a value; panics with `what`
/// after `secs` seconds.
fn wait_until<T>(what: &str, secs: u64, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ------------------------------------------------------------------ steps

struct Reply {
    status: u16,
    body: Value,
}

impl Reply {
    fn u64(&self, field: &str) -> Option<u64> {
        self.body.get(field).and_then(Value::as_u64)
    }

    fn str(&self, field: &str) -> Option<&str> {
        self.body.get(field).and_then(Value::as_str)
    }
}

/// The client's deadlines: connects are local, discovery replies may
/// take a while.
const TIMEOUTS: PeerTimeouts = PeerTimeouts {
    connect: Duration::from_secs(10),
    read: Duration::from_secs(120),
};

/// The catalog path every soak registers its versions under.
const DATASET: &str = "/v1/datasets/clinical";

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
    Ok(Reply {
        status: reply.status,
        body: reply.json(),
    })
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&Value>) -> Reply {
    try_request(addr, method, path, body).expect("request against a live server")
}

fn get(addr: SocketAddr, path: &str) -> Reply {
    request(addr, "GET", path, None)
}

fn post(addr: SocketAddr, path: &str, body: &Value) -> Reply {
    request(addr, "POST", path, Some(body))
}

fn metrics(addr: SocketAddr) -> Value {
    get(addr, "/metrics").body
}

/// A counter scraped straight off one server's `/metrics` (0 when the
/// server is unreachable — e.g. freshly killed).
fn worker_counter(addr: SocketAddr, name: &str) -> u64 {
    try_request(addr, "GET", "/metrics", None).map_or(0, |r| {
        r.body
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    })
}

/// A pinned counter of a `/metrics` document.
fn counter(metrics: &Value, name: &str) -> u64 {
    let value = metrics.get("counters").and_then(|c| c.get(name));
    value
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("metrics expose pinned counter {name}"))
}

/// Runs `act` and asserts it moved counter `name` on the server at `addr`.
fn bumps<T>(addr: SocketAddr, name: &str, what: &str, act: impl FnOnce() -> T) -> T {
    let before = worker_counter(addr, name);
    let out = act();
    assert!(worker_counter(addr, name) > before, "{what}");
    out
}

type Sigma = Vec<(String, String, u64, u64)>;

fn preset(rows: usize, attrs: usize, seed: u64) -> Dataset {
    clinical(&PresetConfig {
        n_rows: rows,
        n_attrs: attrs,
        n_ofds: 2,
        seed,
        ..PresetConfig::default()
    })
}

/// A clinical instance as a `{"csv", "ontology"}` request body.
fn data(rows: usize, attrs: usize, seed: u64) -> Value {
    let ds = preset(rows, attrs, seed);
    json!({ "csv": csv::write_csv(&ds.clean), "ontology": write_ontology(&ds.full_ontology) })
}

/// `body` with one more field appended.
fn with(body: &Value, key: &str, value: Value) -> Value {
    let mut body = body.clone();
    if let Value::Object(fields) = &mut body {
        fields.push((key.into(), value));
    }
    body
}

/// Uninterrupted in-process ground truth for a [`data`] body: sorted
/// `(lhs, rhs, support bits, level)` keys.
fn reference(body: &Value) -> Sigma {
    let text = |field: &str| {
        body.get(field)
            .and_then(Value::as_str)
            .expect("fixture text")
    };
    let rel = csv::read_csv(text("csv")).expect("csv");
    let onto = parse_ontology(text("ontology")).expect("onto");
    let out = FastOfd::new(&rel, &onto)
        .options(DiscoveryOptions::new())
        .run();
    assert!(out.complete, "reference run is uninterrupted");
    let schema = rel.schema();
    let mut keys: Sigma = out
        .ofds
        .iter()
        .map(|d| {
            let lhs: Vec<&str> = d.ofd.lhs.iter().map(|a| schema.name(a)).collect();
            let rhs = schema.name(d.ofd.rhs).to_string();
            (lhs.join(","), rhs, d.support.to_bits(), d.level as u64)
        })
        .collect();
    keys.sort();
    keys
}

/// The same keys from a served reply.
fn sigma_keys(reply: &Value) -> Sigma {
    let ofds = reply
        .get("ofds")
        .and_then(Value::as_array)
        .expect("ofds array");
    let mut keys: Sigma = ofds
        .iter()
        .map(|o| {
            let lhs = o.get("lhs").and_then(Value::as_array).expect("lhs");
            let lhs: Vec<&str> = lhs.iter().map(|v| v.as_str().expect("lhs name")).collect();
            let rhs = o
                .get("rhs")
                .and_then(Value::as_str)
                .expect("rhs")
                .to_string();
            let bits = o.get("support_bits").and_then(Value::as_u64).expect("bits");
            (
                lhs.join(","),
                rhs,
                bits,
                o.get("level").and_then(Value::as_u64).expect("level"),
            )
        })
        .collect();
    keys.sort();
    keys
}

/// A served discovery must be a 200 whose Σ equals `reference`.
fn assert_sigma(reply: &Reply, reference: &Sigma, what: &str) {
    assert_eq!(reply.status, 200, "{what}: answered");
    assert_eq!(
        &sigma_keys(&reply.body),
        reference,
        "{what}: Σ is byte-identical to the reference"
    );
}

/// `POST /v1/discover` and compare against the reference.
fn discover(addr: SocketAddr, body: &Value, reference: &Sigma, what: &str) -> Reply {
    let reply = post(addr, "/v1/discover", body);
    assert_sigma(&reply, reference, what);
    reply
}

/// `PUT /v1/datasets/clinical`; the write must be accepted.
fn register(addr: SocketAddr, body: &Value) -> Reply {
    let reply = request(addr, "PUT", DATASET, Some(body));
    assert_eq!(
        reply.status, 200,
        "catalog PUT on {addr} accepted: {}",
        reply.body
    );
    reply
}

/// `GET /v1/datasets/clinical`, or `clinical@{version}`.
fn describe(addr: SocketAddr, version: Option<u64>) -> Reply {
    get(
        addr,
        &version.map_or(DATASET.to_owned(), |v| format!("{DATASET}@{v}")),
    )
}

/// The kill-the-owner trial: sends `body` to `/v1/discover` on the front
/// address, finds the worker that admitted it by watching its
/// `serve.admitted` move, SIGKILLs that owner `delay` later and returns it
/// with the in-flight reply (`Err` when the kill severed the connection).
fn kill_in_flight(
    cluster: &mut Cluster,
    body: &Value,
    delay: Duration,
) -> (usize, std::io::Result<Reply>) {
    let workers = cluster.workers();
    let before: Vec<u64> = workers
        .iter()
        .map(|&a| worker_counter(a, "serve.admitted"))
        .collect();
    assert_eq!(
        before.len(),
        cluster.size,
        "every replica live before the trial"
    );
    let (addr, body) = (cluster.addr(), body.clone());
    let inflight =
        std::thread::spawn(move || try_request(addr, "POST", "/v1/discover", Some(&body)));
    let owner = match cluster.size {
        1 => 0,
        _ => wait_until("no worker admitted the in-flight request", 10, || {
            (0..workers.len()).find(|&i| worker_counter(workers[i], "serve.admitted") > before[i])
        }),
    };
    std::thread::sleep(delay);
    cluster.kill(owner);
    (owner, inflight.join().expect("in-flight client"))
}

/// Polls the router's `/readyz` until `ok` holds for it.
fn await_ready(addr: SocketAddr, secs: u64, what: &str, ok: impl Fn(&Reply) -> bool) -> Reply {
    wait_until(what, secs, || Some(get(addr, "/readyz")).filter(|r| ok(r)))
}

/// Ceiling on any one worker's final `serve.requests` in the `--peers` and
/// `--chaos-net` soaks. At seed 42 the busiest worker ends at 74; a
/// catalog read that asks back the peers that asked it (two mutual peers
/// bouncing one unknown name) ends in the thousands.
const MAX_WORKER_REQUESTS: u64 = 1_000;

/// Fails the soak when any worker's `/metrics` (one document per worker
/// in `worker_metrics`) shows more requests than [`MAX_WORKER_REQUESTS`].
fn assert_no_request_storm(tag: &str, workers: usize, worker_metrics: &[Value]) {
    assert_eq!(
        worker_metrics.len(),
        workers,
        "{tag}: every worker answered /metrics"
    );
    for (i, metrics) in worker_metrics.iter().enumerate() {
        let served = counter(metrics, "serve.requests");
        assert!(
            served <= MAX_WORKER_REQUESTS,
            "{tag}: worker {i} served {served} requests, over the bound of \
             {MAX_WORKER_REQUESTS} (a peer request storm?)"
        );
    }
}

/// Writes a soak's `--metrics-out` document, when one was asked for.
fn dump(tag: &str, path: Option<&Path>, doc: impl FnOnce() -> Value) {
    let Some(path) = path else { return };
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("metrics-out parent dir");
    }
    let text = serde_json::to_string_pretty(&doc()).expect("serialize metrics") + "\n";
    std::fs::write(path, text).expect("write metrics-out");
    println!("phase {tag}: metrics written to {}", path.display());
}

/// The engines finish the probe workloads in milliseconds — far inside
/// any kill window. A deterministic per-candidate delay stretches
/// discovery to seconds without changing a single bit of the result, so
/// SIGKILL/SIGTERM reliably land mid-flight with snapshots on disk.
fn slow_engine_spec(seed: u64) -> String {
    format!("seed={seed},delay%1.0,delay-ms=1")
}

struct Args {
    seed: u64,
    rows: usize,
    dir: PathBuf,
    metrics_out: Option<PathBuf>,
}

// ----------------------------------------------------------- default soak

/// Retries through 429/503 with jittered exponential backoff, honouring
/// the server's `retry_after_ms` hint as the floor. Returns the first
/// 2xx reply and how many times it was shed on the way.
fn request_with_backoff(addr: SocketAddr, body: &Value, rng: &mut StdRng) -> (Reply, u64) {
    let mut backoff = Duration::from_millis(25);
    let mut shed = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = post(addr, "/v1/discover", body);
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
        let hint = Duration::from_millis(reply.u64("retry_after_ms").unwrap_or(0));
        let jitter = Duration::from_millis(rng.random_range(0u64..backoff.as_millis() as u64 + 1));
        std::thread::sleep(backoff.max(hint) + jitter);
        backoff = (backoff * 2).min(Duration::from_secs(2));
    }
}

/// Phase 1: a burst over a tiny admission queue. Every client converges
/// through backoff, shed replies carried hints, and `/metrics` owns up.
fn phase_shed(args: &Args, body: &Value, reference: &Sigma) {
    let server = Cluster::lone(vec![
        ("workers", "1".to_owned()),
        ("queue-cap", "1".to_owned()),
    ]);
    let addr = server.addr();
    let clients: Vec<_> = (0..8u64)
        .map(|i| {
            let (body, mut rng) = (body.clone(), StdRng::seed_from_u64(args.seed ^ i));
            std::thread::spawn(move || request_with_backoff(addr, &body, &mut rng))
        })
        .collect();
    let mut total_shed = 0u64;
    for client in clients {
        let (reply, shed) = client.join().expect("burst client");
        assert_sigma(&reply, reference, "burst");
        total_shed += shed;
    }
    let metrics = metrics(addr);
    for name in ofd_serve::SERVE_COUNTERS {
        counter(&metrics, name); // presence: the schema pin, served live
    }
    let admitted = counter(&metrics, "serve.admitted");
    assert!(admitted >= 8, "all clients admitted eventually");
    let shed = counter(&metrics, "serve.shed");
    assert_eq!(
        shed, total_shed,
        "server-side shed count matches what clients saw"
    );
    println!("phase shed: ok (8 clients converged, {total_shed} sheds, admitted {admitted})");
    server.stop();
}

/// Kill → restart → resend on one checkpoint dir; Σ must match `reference`
/// byte-for-byte whether the restarted run resumed or recomputed.
fn kill_restart_resend(
    tag: &str,
    flags: Flags,
    body: &Value,
    reference: &Sigma,
    delay: Duration,
) -> bool {
    let mut server = Cluster::lone(flags);
    // The SIGKILL races the request, so transport errors and even a
    // served reply are both legitimate outcomes.
    match kill_in_flight(&mut server, body, delay).1 {
        Err(_) => println!("phase {tag}: SIGKILL severed the in-flight connection (expected)"),
        Ok(reply) => println!(
            "phase {tag}: reply won the race with status {}",
            reply.status
        ),
    }
    server.restart(0);
    let reply = discover(
        server.addr(),
        body,
        reference,
        &format!("phase {tag}: post-restart"),
    );
    assert_eq!(reply.str("status"), Some("complete"));
    let resumed = reply.u64("resumed_from_level").is_some();
    if resumed {
        assert!(
            counter(&metrics(server.addr()), "serve.resumed") >= 1,
            "resume is counted"
        );
    }
    server.stop();
    resumed
}

/// Phase 3: SIGTERM drain. The admitted in-flight request is answered —
/// complete or a sound cancelled partial — and the child exits 0.
fn phase_drain(args: &Args, body: &Value, reference: &Sigma) {
    let flags = ckpt_flags(args.dir.join("drain"), Some(slow_engine_spec(args.seed)));
    let server = Cluster::lone(flags.clone());
    let (addr, sent) = (server.addr(), body.clone());
    let inflight = std::thread::spawn(move || post(addr, "/v1/discover", &sent));
    std::thread::sleep(Duration::from_millis(250));
    server.stop();

    let reply = inflight.join().expect("inflight client");
    assert_eq!(
        reply.status, 200,
        "admitted work is answered through the drain"
    );
    let status = reply.str("status").expect("status");
    if status == "incomplete" {
        assert_eq!(
            reply.str("interrupt"),
            Some("cancelled"),
            "drain cancels cooperatively"
        );
        for key in sigma_keys(&reply.body) {
            assert!(
                reference.contains(&key),
                "drained partial Σ entry {key:?} is sound"
            );
        }
    } else {
        assert_sigma(&reply, reference, "drained in-flight request");
    }

    // A restart on the drain's checkpoints finishes the job exactly.
    let server = Cluster::lone(flags);
    discover(server.addr(), body, reference, "post-drain restart");
    server.stop();
    println!("phase drain: ok (in-flight answered as {status}, restart byte-identical)");
}

fn soak_default(args: &Args) -> &'static str {
    // Medium payload for the shed burst; a wide lattice (more attributes)
    // for the kill/drain phases — rows barely move discovery wall time,
    // attribute count does, and the kill window must land mid-discovery
    // with completed-level snapshots already on disk.
    let burst = data(args.rows.min(800), 6, args.seed);
    let burst_ref = reference(&burst);
    let long = data(args.rows, 9, args.seed);
    let t0 = Instant::now();
    let long_ref = reference(&long);
    println!(
        "reference: burst |Σ|={}, long |Σ|={} in {:?} ({} rows, seed {})",
        burst_ref.len(),
        long_ref.len(),
        t0.elapsed(),
        args.rows,
        args.seed
    );
    phase_shed(args, &burst, &burst_ref);

    // Phase 2: seeded SIGKILLs mid-discovery. At least one trial must
    // actually resume from a snapshot, or the soak proves nothing.
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(7919));
    let (trials, mut resumes) = (3u64, 0u64);
    for trial in 0..trials {
        let flags = ckpt_flags(
            args.dir.join(format!("sigkill{trial}")),
            Some(slow_engine_spec(args.seed)),
        );
        let delay = Duration::from_millis(rng.random_range(300u64..1200));
        resumes += u64::from(kill_restart_resend(
            "sigkill", flags, &long, &long_ref, delay,
        ));
    }
    assert!(
        resumes >= 1,
        "no SIGKILL trial resumed from a snapshot — the kill window is not landing mid-flight"
    );
    println!("phase sigkill: ok ({resumes}/{trials} trials resumed from snapshots)");

    phase_drain(args, &long, &long_ref);

    // Phase 4: snapshot-write faults under the same kill/restart game.
    let spec = format!(
        "seed={},snapshot-io%0.2,snapshot-torn%0.15,delay%1.0,delay-ms=1",
        args.seed
    );
    let flags = ckpt_flags(args.dir.join("faults"), Some(spec));
    kill_restart_resend(
        "faults",
        flags,
        &long,
        &long_ref,
        Duration::from_millis(400),
    );
    println!("phase faults: ok (byte-identical despite injected snapshot corruption)");
    "all phases consistent"
}

// -------------------------------------------------------- streaming soak

/// One streaming edit, kept alongside a local row mirror so the final
/// state can be re-validated from scratch.
enum StreamEdit {
    Append(Vec<String>),
    Retract(usize),
    Update {
        row: usize,
        attr: String,
        value: String,
    },
}

/// A consequent attribute that is not also an antecedent of any planted
/// OFD — the only cell the update path may touch.
fn updatable_rhs(ds: &Dataset) -> ofd_core::AttrId {
    ds.ofds
        .iter()
        .map(|o| o.rhs)
        .find(|&r| !ds.ofds.iter().any(|o| o.lhs.contains(r)))
        .expect("the clinical preset plants an update-safe consequent")
}

/// The streaming fixture: the planted 5-attribute instance and its
/// `{"csv", "ontology", "ofds"}` session body.
fn stream_fixture(rows: usize, seed: u64) -> (Dataset, Value) {
    let ds = preset(rows, 5, seed);
    let schema = ds.clean.schema();
    let specs: Vec<String> = ds
        .ofds
        .iter()
        .map(|o| {
            let lhs: Vec<&str> = o.lhs.iter().map(|a| schema.name(a)).collect();
            format!("{}->{}", lhs.join(","), schema.name(o.rhs))
        })
        .collect();
    let csv_text = csv::write_csv(&ds.clean);
    let base =
        json!({ "csv": csv_text, "ontology": write_ontology(&ds.full_ontology), "ofds": specs });
    (ds, base)
}

/// Seeded edit script over the planted dataset: duplicated rows, novel
/// senseless consequents, retracts and consequent updates. The first
/// three edits are one of each kind so every incremental counter moves.
fn stream_script(ds: &Dataset, seed: u64, count: usize) -> Vec<StreamEdit> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31907));
    let rhs = ds.ofds[0].rhs;
    let upd = updatable_rhs(ds);
    let upd_name = ds.clean.schema().name(upd).to_string();
    let base_rows = ds.clean.n_rows();
    let mut n_rows = base_rows;
    let mut edits = Vec::with_capacity(count);
    for i in 0..count {
        let kind = if i < 3 {
            i as u64 * 4
        } else {
            rng.random_range(0u64..10)
        };
        match kind {
            0..=3 => {
                let row = rng.random_range(0..base_rows as u64) as usize;
                let mut cells: Vec<String> = ds
                    .clean
                    .row_texts(row)
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
                let row = rng.random_range(0..n_rows as u64) as usize;
                edits.push(StreamEdit::Update {
                    row,
                    attr: upd_name.clone(),
                    value,
                });
            }
            _ if n_rows > 1 => {
                edits.push(StreamEdit::Retract(
                    rng.random_range(0..n_rows as u64) as usize
                ));
                n_rows -= 1;
            }
            _ => {}
        }
    }
    edits
}

/// Sends one edit as `/v1/append` or `/v1/retract`; it must be accepted.
fn send_edit(addr: SocketAddr, base: &Value, edit: &StreamEdit) -> Reply {
    let (path, body) = match edit {
        StreamEdit::Append(cells) => ("/v1/append", with(base, "rows", json!([cells.clone()]))),
        StreamEdit::Retract(row) => ("/v1/retract", with(base, "rows", json!([*row as u64]))),
        StreamEdit::Update { row, attr, value } => {
            let update = json!([{"row": *row as u64, "attr": attr, "value": value}]);
            ("/v1/append", with(base, "updates", update))
        }
    };
    let reply = post(addr, path, &body);
    assert_eq!(
        reply.status, 200,
        "stream edit accepted on {addr}: {}",
        reply.body
    );
    reply
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

/// The newest edit log a stream session persisted under a server's
/// checkpoint directory, read from disk (no request, so no counter moves).
fn persisted_session(dir: &Path, reply: &Reply) -> Value {
    let session = reply
        .str("session")
        .expect("stream replies name their session");
    ofd_core::SnapshotStore::new(dir.join(session))
        .load_latest("session")
        .expect("read the session's snapshots")
        .expect("the session persisted a snapshot")
        .body
}

/// `--stream`: seeded edit soak with a mid-stream SIGKILL. The resumed
/// run must be byte-identical to an uninterrupted reference, its persisted
/// edit log must equal the reference's, the final state must match
/// from-scratch validation, and conflicts must be 409s that leave the
/// session usable.
fn soak_stream(args: &Args) -> &'static str {
    let (ds, base) = stream_fixture(args.rows, args.seed);
    let schema = ds.clean.schema();
    let edits = stream_script(&ds, args.seed, 160);
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(48271));
    let kill_at = rng.random_range(edits.len() as u64 / 4..(edits.len() as u64 * 3) / 4) as usize;

    // Reference: the full script against one uninterrupted server.
    let ref_dir = args.dir.join("stream-ref");
    let server = Cluster::lone(ckpt_flags(ref_dir.clone(), None));
    let ref_replies: Vec<Reply> = edits
        .iter()
        .map(|edit| send_edit(server.addr(), &base, edit))
        .collect();
    let ref_log = persisted_session(&ref_dir, ref_replies.last().expect("non-empty script"));
    let reference: Vec<String> = ref_replies
        .into_iter()
        .map(|reply| normalized_reply(reply.body))
        .collect();
    let ref_metrics = metrics(server.addr());
    assert!(
        counter(&ref_metrics, "serve.stream.sessions") >= 1,
        "session opened"
    );
    let counted = counter(&ref_metrics, "serve.stream.edits");
    assert_eq!(
        counted,
        edits.len() as u64,
        "every reference edit is counted"
    );
    server.stop();
    println!(
        "phase stream: reference run complete ({} edits, kill scheduled at {kill_at})",
        edits.len()
    );

    // Soak: same script, SIGKILL between edits, resume on a new process.
    let soak_dir = args.dir.join("stream-soak");
    let mut server = Cluster::lone(ckpt_flags(soak_dir.clone(), None));
    let mut last = None;
    for (i, edit) in edits.iter().enumerate() {
        if i == kill_at {
            server.kill(0);
            server.restart(0);
        }
        let reply = send_edit(server.addr(), &base, edit);
        if i == kill_at {
            assert_eq!(
                reply.u64("resumed_from_seq"),
                Some(kill_at as u64),
                "the first post-restart edit adopts the session snapshot"
            );
        }
        assert_eq!(
            normalized_reply(reply.body.clone()),
            reference[i],
            "edit {i} is byte-identical to the reference (SIGKILL before edit {kill_at})"
        );
        last = Some(reply);
    }
    // A resume that lost or repeated an edit can still answer every later
    // edit alike (an update nothing reads again); the persisted log cannot.
    let soak_log = persisted_session(&soak_dir, &last.expect("non-empty script"));
    assert_eq!(
        ref_log.get("edits").and_then(Value::as_array).map(Vec::len),
        Some(edits.len()),
        "the reference persisted one op per scripted edit"
    );
    assert!(
        soak_log == ref_log,
        "the resumed session persisted the reference's edit log (SIGKILL before edit {kill_at})"
    );

    // Independent ground truth: replay the script on a local row mirror
    // and re-validate the final rows from scratch.
    let mut mirror: Vec<Vec<String>> = (0..ds.clean.n_rows())
        .map(|r| {
            ds.clean
                .row_texts(r)
                .iter()
                .map(|s| s.to_string())
                .collect()
        })
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
    let expect: usize = ds
        .ofds
        .iter()
        .map(|o| validator.check(o).violation_count())
        .sum();
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
    let update =
        json!([{"row": 0, "attr": &upd_name, "value": "x", "old": "definitely-not-current"}]);
    let reply = post(server.addr(), "/v1/append", &with(&base, "updates", update));
    assert_eq!(reply.status, 409, "a stale update is a conflict, not a 500");
    let reply = send_edit(server.addr(), &base, &StreamEdit::Append(mirror[0].clone()));
    assert_eq!(
        reply.u64("n_rows"),
        Some(mirror.len() as u64 + 1),
        "post-conflict edits keep applying"
    );

    // The respawned worker's ledger: resume observed, every live edit
    // counted, conflicts owned up to. (Replayed edits are deliberately
    // not re-counted.)
    let metrics = metrics(server.addr());
    let live_edits = (edits.len() - kill_at) as u64 + 1; // + post-conflict append
    assert!(
        counter(&metrics, "serve.stream.resumed") >= 1,
        "resume is counted"
    );
    assert_eq!(
        counter(&metrics, "serve.stream.edits"),
        live_edits,
        "live edits counted"
    );
    assert_eq!(
        counter(&metrics, "incremental.inserts")
            + counter(&metrics, "incremental.retracts")
            + counter(&metrics, "incremental.updates"),
        live_edits,
        "every live edit lands in exactly one incremental counter"
    );
    assert!(
        counter(&metrics, "serve.stream.conflicts") >= 1,
        "conflict counted"
    );
    assert!(
        counter(&metrics, "incremental.stale_updates") >= 1,
        "stale update counted"
    );

    dump("stream", args.metrics_out.as_deref(), || {
        json!({
            "worker": metrics,
            "reference_worker": ref_metrics,
            "edits": edits.len() as u64,
            "kill_at": kill_at as u64,
        })
    });
    server.stop();
    println!(
        "phase stream: ok ({} edits byte-identical across SIGKILL at {kill_at}, final violations {expect})",
        edits.len()
    );
    "streaming session consistent"
}

// ------------------------------------------------------ router fleet soak

/// Validates the reference Σ by catalog reference and inline, twice each,
/// through the router: every cataloged reply must equal the inline one,
/// and the worker that served the cataloged ones (both route to the ring
/// owner of v1's content) must have reused a cached partition. Returns
/// that worker's `serve.catalog.partition_hit`.
fn router_validates(fleet: &Cluster, v1: &Value, reference: &Sigma) -> u64 {
    let specs: Vec<String> = reference
        .iter()
        .map(|(lhs, rhs, _, _)| format!("{lhs}->{rhs}"))
        .collect();
    let cataloged = json!({ "dataset": "clinical@1", "ofds": specs.clone() });
    let inline = with(v1, "ofds", json!(specs));
    for _ in 0..2 {
        let by_ref = post(fleet.addr(), "/v1/validate", &cataloged);
        let shipped = post(fleet.addr(), "/v1/validate", &inline);
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
    let counts: Vec<(u64, u64)> = fleet
        .workers()
        .into_iter()
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

/// `--router`: catalog registration through the router, SIGKILL +
/// checkpoint adoption on the surviving replica, supervisor respawns,
/// and a full-fleet restart that must preserve the catalog and every
/// answer.
fn soak_router(args: &Args) -> &'static str {
    let (obs, root, faults) = (
        Obs::enabled(),
        args.dir.join("fleet"),
        slow_engine_spec(args.seed),
    );
    let mut fleet = Cluster::supervised(&root, &faults, &obs);

    // Register v1 through the router and discover it by bare reference.
    let v1 = data(args.rows, 9, args.seed);
    let ref_v1 = reference(&v1);
    assert_eq!(register(fleet.addr(), &v1).u64("version"), Some(1));
    let reply = discover(
        fleet.addr(),
        &json!({ "dataset": "clinical" }),
        &ref_v1,
        "by reference",
    );
    let newest = reply.str("dataset");
    assert_eq!(
        newest,
        Some("clinical@1"),
        "a bare reference resolves to the newest version"
    );
    println!(
        "phase router: v1 registered and discovered by reference (|Σ|={})",
        ref_v1.len()
    );

    // SIGKILL trials, each on a fresh catalog version so every trial
    // starts from a cold checkpoint directory. The supervisor respawns
    // the owner; the router fails the original connection over.
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(6271));
    let (trials, mut adoptions) = (3u64, 0u64);
    for trial in 0..trials {
        let body = data(args.rows, 9, args.seed ^ (trial + 1));
        let ref_t = reference(&body);
        let version = register(fleet.addr(), &body).u64("version");
        assert_eq!(version, Some(trial + 2), "versions are append-only");
        let name = format!("clinical@{}", trial + 2);
        let delay = Duration::from_millis(rng.random_range(300u64..1000));
        let (_, reply) = kill_in_flight(&mut fleet, &json!({ "dataset": &name }), delay);
        let reply = reply.expect("failover answers the original connection");
        assert_sigma(&reply, &ref_t, "failover");
        assert_eq!(reply.str("status"), Some("complete"));
        assert_eq!(
            reply.str("dataset"),
            Some(name.as_str()),
            "the reply names the resolved dataset version"
        );
        let adopted = reply.u64("resumed_from_level").is_some();
        println!(
            "phase router: trial {trial} survived its SIGKILL ({})",
            if adopted {
                "checkpoint adopted mid-level"
            } else {
                "survivor recomputed"
            }
        );
        adoptions += u64::from(adopted);
    }
    assert!(
        adoptions >= 1,
        "no trial adopted a dead worker's checkpoint — the kill window is not landing mid-flight"
    );

    // Full-fleet restart on the same root: catalog and answers survive.
    let workers_before = fleet.scrape();
    fleet.stop();
    let fleet = Cluster::supervised(&root, &faults, &obs);
    let described = describe(fleet.addr(), None);
    assert_eq!(described.status, 200);
    assert_eq!(
        described.u64("version"),
        Some(trials + 1),
        "every registered version survives the restart"
    );
    discover(
        fleet.addr(),
        &json!({ "dataset": "clinical@1" }),
        &ref_v1,
        "v1 across a full-fleet restart",
    );
    let hits = router_validates(&fleet, &v1, &ref_v1);
    println!("phase router: cataloged validates of v1's Σ match inline ({hits} partition hits)");

    // The router's counters are the soak's ledger; pin them.
    let [routed, retried, respawned, adopted] = ["routed", "retried", "respawned", "adopted"]
        .map(|n| fleet.ledger(&format!("serve.router.{n}")));
    assert!(routed >= trials + 2, "every reply was routed");
    assert!(retried >= 1, "failover retried at least once");
    assert!(respawned >= trials, "every killed worker respawned");
    assert!(adopted >= 1, "adoption was observed end to end");

    dump("router", args.metrics_out.as_deref(), || {
        json!({
            "router": metrics(fleet.addr()),
            "workers": fleet.scrape(),
            "workers_before_restart": workers_before,
        })
    });
    fleet.stop();
    println!(
        "phase router: ok ({adoptions}/{trials} trials adopted, routed={routed} retried={retried} respawned={respawned})"
    );
    "router fleet consistent"
}

// ------------------------------------------------------- peer fleet soak

/// `--peers`: the multi-host game. Every served Σ must be byte-identical
/// to the uninterrupted in-process reference.
fn soak_peers(args: &Args) -> &'static str {
    let cfg = RouterConfig {
        probe_interval_ms: 100,
        ..RouterConfig::default()
    };
    let faults = [("faults", slow_engine_spec(args.seed))];
    let mut fleet = Cluster::peers(&args.dir.join("peer-fleet"), &faults, cfg, None);
    let (addr, w) = (fleet.addr(), fleet.workers());

    // v1: a quorum PUT through the router lands on every replica, and a
    // by-reference discovery through the router matches the reference.
    let v1 = data(args.rows, 9, args.seed);
    let ref_v1 = reference(&v1);
    let put = register(addr, &v1);
    assert_eq!(put.u64("version"), Some(1));
    assert_eq!(put.u64("replicas"), Some(2), "both replicas acked");
    for &worker in &w {
        let described = describe(worker, None);
        assert_eq!(
            described.status, 200,
            "replica {worker} serves the replicated dataset"
        );
        assert_eq!(described.u64("version"), Some(1));
    }
    discover(addr, &json!({ "dataset": "clinical@1" }), &ref_v1, "routed");
    println!(
        "phase peers: v1 replicated to both hosts and discovered (|Σ|={})",
        ref_v1.len()
    );

    // v2: cross-filesystem checkpoint shipping. Run the job to
    // completion on host 0, then send the identical request to host 1 —
    // whose checkpoint root has never seen this job. It must ship the
    // snapshot from its peer, not recompute from scratch.
    let v2 = data(args.rows, 9, args.seed ^ 0x5eed);
    let ref_v2 = reference(&v2);
    assert_eq!(register(addr, &v2).u64("version"), Some(2));
    let body_v2 = json!({ "dataset": "clinical@2" });
    let first = discover(w[0], &body_v2, &ref_v2, "host 0's run");
    assert_eq!(
        first.str("resumed_from"),
        Some("none"),
        "the first run of fresh content is cold everywhere"
    );
    let second = bumps(
        w[0],
        "serve.ship.served",
        "the owner counted the transfer",
        || {
            bumps(
                w[1],
                "serve.ship.fetched",
                "the requester counted the fetch",
                || discover(w[1], &body_v2, &ref_v2, "shipped snapshot"),
            )
        },
    );
    let shipped = second.str("resumed_from");
    assert_eq!(
        shipped,
        Some("peer"),
        "host 1's cold root resumed from host 0's shipped checkpoint"
    );
    println!("phase peers: v2 checkpoint shipped across filesystems (resumed_from=peer)");

    // Stream sessions ship the same way: two edits against host 0, then
    // the third edit of the same session against host 1, which must
    // rebuild the session from its peer's persisted snapshot.
    let (stream_ds, stream_base) = stream_fixture(args.rows.min(400), args.seed);
    let edits = stream_script(&stream_ds, args.seed, 3);
    for edit in &edits[..2] {
        send_edit(w[0], &stream_base, edit);
    }
    let reply = bumps(
        w[1],
        "serve.ship.fetched",
        "the stream adoption counted its fetch",
        || send_edit(w[1], &stream_base, &edits[2]),
    );
    let seq = reply.u64("resumed_from_seq");
    assert_eq!(
        seq,
        Some(2),
        "host 1 rebuilt the session from host 0's shipped snapshot"
    );
    println!("phase peers: stream session shipped across filesystems (resumed_from_seq=2)");

    // SIGKILL the owner mid-discovery through the router. The survivor
    // cannot ship from a dead peer, so it must fall back to re-execution
    // from inputs — and still answer the original connection
    // byte-identically. The kill window is seeded; retry on a fresh
    // version until the failover actually lands mid-flight.
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(9241));
    let (mut version, mut dead) = (2u64, None);
    for trial in 0..3u64 {
        let body = data(args.rows, 9, args.seed ^ (0x100 + trial));
        let ref_t = reference(&body);
        version = register(addr, &body).u64("version").expect("trial version");
        let retried = fleet.ledger("serve.router.retried");
        let delay = Duration::from_millis(rng.random_range(300u64..1000));
        let by_ref = json!({ "dataset": format!("clinical@{version}") });
        let (owner, reply) = kill_in_flight(&mut fleet, &by_ref, delay);
        let reply = reply.expect("failover answers the original connection");
        assert_sigma(&reply, &ref_t, "failover");
        if fleet.ledger("serve.router.retried") > retried
            && reply.str("resumed_from") == Some("none")
        {
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
        fleet.restart(owner);
        await_ready(addr, 15, "restarted worker never rejoined the ring", |r| {
            r.u64("live_workers") == Some(2)
        });
    }
    let dead = dead.expect("re-execution fallback never observed across 3 trials");

    // With the owner still dead, the prober must eject it: /readyz turns
    // degraded, and a catalog PUT is refused outright — one live replica
    // cannot make a two-replica quorum, and no torn version may appear.
    let ready = await_ready(
        addr,
        10,
        "dead worker was never ejected from the ring",
        |r| r.str("state") == Some("degraded"),
    );
    assert_eq!(ready.status, 200, "a partial ring is degraded, not down");
    assert_eq!(ready.u64("live_workers"), Some(1));
    assert!(
        fleet.ledger("serve.router.ring.ejected") >= 1,
        "the ejection was counted"
    );
    let denied = request(
        addr,
        "PUT",
        DATASET,
        Some(&data(args.rows.min(600), 6, args.seed ^ 0xdead)),
    );
    assert_eq!(denied.status, 503, "a sub-quorum PUT is refused");
    let survivor = w[1 - dead];
    let newest = describe(survivor, None).u64("version");
    assert_eq!(
        newest,
        Some(version),
        "the refused write left the newest version untouched"
    );
    let torn = describe(survivor, Some(version + 1));
    assert_ne!(
        torn.status, 200,
        "no torn version is visible after the refused write"
    );
    assert_eq!(
        fleet.ledger("serve.catalog.replicated_partial"),
        0,
        "a two-replica quorum is all-or-nothing; partial replication is impossible"
    );
    println!("phase peers: ejection observed, sub-quorum PUT refused with no torn version");

    // Restart the dead host: the prober readmits it with hysteresis, and
    // quorum writes work again.
    fleet.restart(dead);
    let ready = await_ready(addr, 15, "restarted worker was never readmitted", |r| {
        r.str("state") == Some("ok")
    });
    assert_eq!(ready.u64("live_workers"), Some(2));
    assert!(
        fleet.ledger("serve.router.ring.readmitted") >= 1,
        "the readmission was counted"
    );
    let put = register(addr, &data(args.rows.min(600), 6, args.seed ^ 0xbeef));
    assert_eq!(
        put.u64("version"),
        Some(version + 1),
        "quorum restored after readmission"
    );
    assert_eq!(put.u64("replicas"), Some(2));
    for &worker in &w {
        assert_eq!(describe(worker, None).u64("version"), Some(version + 1));
    }
    println!(
        "phase peers: readmission observed, quorum writes restored (v{})",
        version + 1
    );

    // Peer-to-peer read repair: write one version to a single host
    // behind the router's back, then ask the *other* host for it by
    // explicit reference — it must fetch the gap from its peer.
    let direct = register(w[0], &data(args.rows.min(600), 6, args.seed ^ 0xfeed));
    let divergent = direct.u64("version").expect("direct version");
    let repaired = bumps(
        w[1],
        "serve.catalog.peer_fetch",
        "the read repair counted its peer fetch",
        || describe(w[1], Some(divergent)),
    );
    assert_eq!(
        repaired.status, 200,
        "the missing version was repaired from a peer"
    );
    assert_eq!(repaired.u64("version"), Some(divergent));
    println!("phase peers: catalog read repair fetched v{divergent} peer-to-peer");

    // The soak's ledger: every membership and replication event landed.
    let [ejected, readmitted, retried, routed] =
        ["ring.ejected", "ring.readmitted", "retried", "routed"]
            .map(|n| fleet.ledger(&format!("serve.router.{n}")));
    assert!(ejected >= 1, "ejection was counted");
    assert!(readmitted >= 1, "readmission was counted");
    assert!(retried >= 1, "failover retried at least once");
    let workers = fleet.scrape();
    assert_no_request_storm("phase peers", fleet.size, &workers);
    dump(
        "peers",
        args.metrics_out.as_deref(),
        || json!({ "router": metrics(addr), "workers": workers }),
    );
    fleet.stop();
    println!("phase peers: ok (ejected={ejected} readmitted={readmitted} retried={retried} routed={routed})");
    "peer fleet consistent"
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

/// One pass of the chaos-net workload over a two-host peer fleet, with
/// (`chaos`) or without the toxic proxies on the router→worker wire. The
/// workload is strictly sequential and the prober is parked after its
/// initial round, so the proxies' accept order — and therefore the toxic
/// schedule — is a pure function of the fault-plan seed. Returns what the
/// pass leaves behind, as its `--metrics-out` document: the final router
/// and worker metrics, the per-proxy toxic schedules in accept order and
/// the router-side chaos ledger.
fn chaos_net_pass(args: &Args, tag: &str, chaos: bool, body: &Value, reference: &Sigma) -> Value {
    let cfg = RouterConfig {
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
        ..RouterConfig::default()
    };
    let timeouts = [("peer-timeout-ms", "1500".to_owned())];
    let spec = chaos.then(|| chaos_net_spec(args.seed));
    let fleet = Cluster::peers(&args.dir.join(tag), &timeouts, cfg, spec);
    let (addr, w) = (fleet.addr(), fleet.workers());
    println!("phase chaos: [{tag}] fleet up (chaos={chaos}), router on {addr}");
    // Wait out the initial probe round so it lands at a fixed place
    // (entry 0) in every proxy's schedule before the workload starts.
    wait_until(
        "the router's initial probe round never reached the proxies",
        10,
        || {
            fleet
                .proxies
                .iter()
                .all(|p| !p.schedule().is_empty())
                .then_some(())
        },
    );

    // Quorum PUT over the toxic wire: the retry budget must absorb every
    // injected fault — the client sees one clean 200, both replicas
    // converge, and idempotent re-sends cover torn acks.
    let put = register(addr, body);
    assert_eq!(put.u64("version"), Some(1));
    assert_eq!(put.u64("replicas"), Some(2), "both replicas acked");
    println!("phase chaos: [{tag}] quorum PUT v1 converged");

    // Scripted reads: every routed reply must be byte-identical to the
    // in-process reference, no matter which toxics fire on the way.
    for i in 0..12u64 {
        let reply = post(addr, "/v1/discover", &json!({ "dataset": "clinical@1" }));
        assert_eq!(reply.status, 200, "chaos discover {i} answered");
        if &sigma_keys(&reply.body) != reference {
            for (p, proxy) in fleet.proxies.iter().enumerate() {
                eprintln!("proxy {p} schedule so far: {:?}", proxy.schedule());
            }
            panic!(
                "chaos discover {i} diverged from the reference: {}",
                reply.body
            );
        }
    }
    let described = describe(addr, None);
    assert_eq!(described.status, 200);
    assert_eq!(described.u64("version"), Some(1));
    println!("phase chaos: [{tag}] 12 discovers byte-identical");

    // Coordinator death mid-fan-out: a pinned v2 lands on host 0 only —
    // as if the router died after one replica PUT and before any commit.
    // The stranded *pending* version must never become readable: the next
    // read quorum-confirms it, finds it short of majority, and tears it
    // down (`serve.catalog.read_repaired`).
    register(
        w[0],
        &with(
            &data(args.rows.min(400), 6, args.seed ^ 0xc0de),
            "version",
            json!(2),
        ),
    );
    println!("phase chaos: [{tag}] orphaned pending v2 planted on host 0");
    let described = bumps(
        w[0],
        "serve.catalog.read_repaired",
        "read repair tore the orphaned pending version down",
        || describe(w[0], None),
    );
    let newest = described.u64("version");
    assert_eq!(
        newest,
        Some(1),
        "a sub-quorum pending version is never served as newest"
    );
    println!("phase chaos: [{tag}] orphan torn down by read repair");
    let torn = describe(w[0], Some(2));
    assert_ne!(
        torn.status, 200,
        "the torn version is unreadable after repair"
    );
    println!(
        "phase chaos: [{tag}] torn version unreadable ({})",
        torn.status
    );
    let peer_view = describe(w[1], None);
    println!(
        "phase chaos: [{tag}] peer view agrees ({})",
        peer_view.status
    );
    assert_eq!(
        peer_view.u64("version"),
        Some(1),
        "the untouched replica agrees on the newest version"
    );

    // The ledger: every injected fault is attributed by name, and the
    // schedule log agrees with both the plan's own accounting and the
    // router-side counters.
    let schedules: Vec<Vec<String>> = fleet.proxies.iter().map(NetFaultProxy::schedule).collect();
    let entries =
        |keep: &dyn Fn(&str) -> bool| schedules.iter().flatten().filter(|s| keep(s)).count() as u64;
    let fired_total: u64 = fleet.proxies.iter().map(|p| p.plan().net_fired()).sum();
    let [injected, resets, blackholes, retries_exhausted] =
        ["injected", "resets", "blackholes", "retries_exhausted"]
            .map(|n| fleet.ledger(&format!("serve.net.{n}")));
    assert_eq!(injected, fired_total, "injected == Σ plan.net_fired()");
    assert_eq!(
        injected,
        entries(&|s| s != "pass"),
        "injected == non-pass schedule entries"
    );
    assert_eq!(resets, entries(&|s| s == "reset"), "every reset attributed");
    assert_eq!(
        blackholes,
        entries(&|s| s == "blackhole"),
        "every blackhole attributed"
    );

    println!("phase chaos: [{tag}] ledger consistent, collecting metrics");
    let router_metrics = metrics(addr);
    let worker_metrics = fleet.scrape();
    assert_no_request_storm(
        &format!("phase chaos: [{tag}]"),
        fleet.size,
        &worker_metrics,
    );
    fleet.stop();
    json!({
        "router": router_metrics,
        "workers": worker_metrics,
        "schedules": schedules,
        "injected": injected,
        "resets": resets,
        "blackholes": blackholes,
        "retries_exhausted": retries_exhausted,
    })
}

/// `--chaos-net`: a fault-free pass proves the topology clean, and two
/// chaos passes with the same seed must replay the identical toxic
/// schedule and ledger.
fn soak_chaos_net(args: &Args) -> &'static str {
    let body = data(args.rows.min(400), 6, args.seed);
    let reference = reference(&body);
    println!(
        "phase chaos: reference |Σ|={} ({} rows, seed {})",
        reference.len(),
        args.rows.min(400),
        args.seed
    );

    let ledger = |pass: &Value| {
        ["injected", "resets", "blackholes", "retries_exhausted"]
            .map(|k| pass.get(k).and_then(Value::as_u64).expect("chaos ledger"))
    };
    let clean = chaos_net_pass(args, "chaos-ref", false, &body, &reference);
    assert_eq!(
        ledger(&clean)[0],
        0,
        "no faults fire without the toxic wire"
    );
    println!("phase chaos: fault-free reference pass clean");

    let run1 = chaos_net_pass(args, "chaos-a", true, &body, &reference);
    let [injected, resets, blackholes, exhausted] = ledger(&run1);
    assert!(
        injected >= 3,
        "the pinned seed must actually inject faults (got {injected})"
    );
    assert!(
        resets + blackholes >= 1,
        "the soak must see at least one destructive toxic"
    );
    println!(
        "phase chaos: run A survived {injected} injected faults ({resets} resets, {blackholes} \
         blackholes, {exhausted} retry budgets exhausted)"
    );

    let run2 = chaos_net_pass(args, "chaos-b", true, &body, &reference);
    let schedules = run1
        .get("schedules")
        .and_then(Value::as_array)
        .expect("schedules");
    assert_eq!(
        Some(schedules),
        run2.get("schedules").and_then(Value::as_array),
        "the same seed must replay the identical toxic schedule"
    );
    assert_eq!(
        ledger(&run1)[..3],
        ledger(&run2)[..3],
        "the same seed must replay the identical chaos ledger"
    );
    let longest = schedules
        .iter()
        .filter_map(Value::as_array)
        .map(Vec::len)
        .max();
    println!(
        "phase chaos: run B replayed run A's schedule exactly ({} connections/proxy)",
        longest.unwrap_or(0)
    );
    dump("chaos", args.metrics_out.as_deref(), || run1.clone());
    println!(
        "phase chaos: ok (injected={injected} resets={resets} blackholes={blackholes}, \
         schedule replayed byte-for-byte)"
    );
    "chaos-net fleet consistent"
}

/// The soak a command line selects.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Default,
    Stream,
    Router,
    Peers,
    ChaosNet,
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("--server") {
        raw.next();
        let mut flags = Vec::new();
        while let Some(arg) = raw.next() {
            let name = arg.strip_prefix("--").expect("--flag VALUE").to_owned();
            let value = raw
                .next()
                .unwrap_or_else(|| panic!("--{name} expects a value"));
            flags.push((name, value));
        }
        return server_mode(&flags);
    }

    let mut args = Args {
        seed: 42,
        rows: 2500,
        dir: std::env::temp_dir().join(format!("ofd_serve_probe_{}", std::process::id())),
        metrics_out: None,
    };
    let mut modes = Vec::new();
    while let Some(arg) = raw.next() {
        let mut value = |name: &str| raw.next().unwrap_or_else(|| panic!("{name} VALUE"));
        match arg.as_str() {
            "--seed" => args.seed = value("--seed").parse().expect("--seed expects an integer"),
            "--rows" => args.rows = value("--rows").parse().expect("--rows expects an integer"),
            "--dir" => args.dir = value("--dir").into(),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out").into()),
            "--stream" => modes.push(Mode::Stream),
            "--router" => modes.push(Mode::Router),
            "--peers" => modes.push(Mode::Peers),
            "--chaos-net" => modes.push(Mode::ChaosNet),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(
        modes.len() <= 1,
        "--router, --stream, --peers and --chaos-net are separate soaks"
    );
    let mode = modes.pop().unwrap_or(Mode::Default);
    assert!(
        args.metrics_out.is_none() || mode != Mode::Default,
        "--metrics-out only applies to --router, --stream, --peers and --chaos-net runs"
    );
    let _ = std::fs::remove_dir_all(&args.dir);
    let verdict = match mode {
        Mode::Default => soak_default(&args),
        Mode::Stream => soak_stream(&args),
        Mode::Router => soak_router(&args),
        Mode::Peers => soak_peers(&args),
        Mode::ChaosNet => soak_chaos_net(&args),
    };
    let _ = std::fs::remove_dir_all(&args.dir);
    println!("serve_probe: {verdict}");
    ExitCode::SUCCESS
}
