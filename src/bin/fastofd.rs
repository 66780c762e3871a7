//! `fastofd` — command-line front end for OFD checking, discovery and
//! cleaning over CSV data and text-format ontologies.
//!
//! ```text
//! fastofd generate --preset clinical --rows 5000 --err 3 --inc 4 \
//!                  --out data.csv --onto-out onto.txt
//! fastofd discover --data data.csv --ontology onto.txt [--kappa 0.9]
//!                  [--theta N] [--max-level L] [--threads T]
//!                  [--partition-cache-mib M]
//! fastofd check    --data data.csv --ontology onto.txt --ofd "CC->CTRY"
//! fastofd clean    --data data.csv --ontology onto.txt \
//!                  --ofd "CC->CTRY" --ofd "SYMP,DIAG->MED" \
//!                  [--tau 0.65] [--beam B] [--out repaired.csv]
//!                  [--onto-out repaired-onto.txt]
//! fastofd serve    [--addr 127.0.0.1:8080] [--workers N] [--queue-cap N]
//!                  [--budget-ms N] [--rss-high-water-mib N]
//!                  [--breaker-failures N] [--breaker-cooldown-ms N]
//!                  [--checkpoint-dir DIR]
//! ```
//!
//! Each command declares its flags: an unknown one is a usage error that
//! names it, and `fastofd <command> --help` prints the command's usage.
//!
//! `serve` also exposes the streaming endpoints `POST /v1/append` and
//! `POST /v1/retract`: tuple inserts, deletes and consequent-cell updates
//! are maintained incrementally against a per-dataset session (delta
//! stripped partitions — only the touched equivalence classes are
//! re-verified), checkpointed under `--checkpoint-dir` so sessions
//! survive restarts and replica failover.
//!
//! Exit codes: `0` success, `1` error (bad flags, I/O failure, violated
//! `check`), `3` the run finished with a sound-but-INCOMPLETE partial
//! result (guard limit, drain or injected fault) — scripts can tell
//! partial from complete without parsing output.

use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;

use fastofd::clean::{
    enforce_approximate, explain_violations, ofd_clean, render_report, OfdCleanConfig,
};
use fastofd::core::{
    silence_injected_panics, CheckpointOptions, ExecGuard, FaultPlan, GuardConfig, Obs, Ofd,
    Relation, Schema, SnapshotStore, Validator,
};
use fastofd::datagen::{census, clinical, csv, demo_dataset, kiva, PresetConfig};
use fastofd::discovery::{DiscoveryOptions, FastOfd};
use fastofd::ontology::{parse_ontology, write_ontology, Ontology};

/// Exit code for a run that finished with a sound-but-partial
/// (`INCOMPLETE`) result: everything printed/written is valid, but a
/// guard limit or interrupt stopped the run before completion.
const EXIT_INCOMPLETE: u8 = 3;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `SUCCESS` for a complete run, [`EXIT_INCOMPLETE`] otherwise.
fn completion_code(complete: bool) -> ExitCode {
    if complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCOMPLETE)
    }
}

/// Flags of the long-running engine commands (discover, clean, enforce):
/// execution limits, observability, crash safety and fault injection.
const RUN_FLAGS: &[&str] = &[
    "timeout-ms",
    "max-work",
    "max-rss-mib",
    "metrics-out",
    "trace",
    "checkpoint-dir",
    "resume",
    "faults",
];

/// Flags of a single `fastofd serve` process.
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "workers",
    "queue-cap",
    "budget-ms",
    "max-body-mib",
    "rss-high-water-mib",
    "breaker-failures",
    "breaker-cooldown-ms",
    "retry-after-ms",
    "head-timeout-ms",
    "peer-timeout-ms",
    "checkpoint-dir",
    "peers",
    "faults",
    "metrics-out",
];

/// A command's declared flags and its usage text.
struct Command {
    usage: &'static str,
    /// The flag groups it accepts: its own, plus [`RUN_FLAGS`] or
    /// [`SERVE_FLAGS`] where those apply.
    flags: &'static [&'static [&'static str]],
}

impl Command {
    /// The command `name` runs as, given its flags (`serve --router` is a
    /// command of its own); `None` for an unknown name.
    fn named(name: &str, flags: &HashMap<String, Vec<String>>) -> Option<Command> {
        let (usage, flags): (&'static str, &'static [&'static [&'static str]]) = match name {
            "generate" => (
                "fastofd generate [--preset clinical|kiva|census|demo] [--rows N] [--err PCT]\n\
                 \x20                [--inc PCT] [--seed N] [--out data.csv] [--onto-out ontology.txt]",
                &[&["preset", "rows", "err", "inc", "seed", "out", "onto-out"]],
            ),
            "discover" => (
                "fastofd discover --data data.csv [--ontology onto.txt] [--kappa K] [--theta N]\n\
                 \x20                [--max-level L] [--threads T] [--partition-cache-mib M]\n\
                 \x20                [--out sigma.txt] [run flags]",
                &[
                    &[
                        "data",
                        "ontology",
                        "kappa",
                        "theta",
                        "max-level",
                        "threads",
                        "partition-cache-mib",
                        "out",
                    ],
                    RUN_FLAGS,
                ],
            ),
            "check" => (
                "fastofd check --data data.csv [--ontology onto.txt]\n\
                 \x20             (--ofd \"A,B->C\" | --ofds-file F)... [--theta N] [--explain]",
                &[&["data", "ontology", "ofd", "ofds-file", "theta", "explain"]],
            ),
            "clean" => (
                "fastofd clean --data data.csv [--ontology onto.txt]\n\
                 \x20             (--ofd \"A,B->C\" | --ofds-file F)... [--theta N] [--tau T]\n\
                 \x20             [--beam B] [--out repaired.csv] [--onto-out repaired-onto.txt]\n\
                 \x20             [--report report.txt] [run flags]",
                &[
                    &[
                        "data",
                        "ontology",
                        "ofd",
                        "ofds-file",
                        "theta",
                        "tau",
                        "beam",
                        "out",
                        "onto-out",
                        "report",
                    ],
                    RUN_FLAGS,
                ],
            ),
            "enforce" => (
                "fastofd enforce --data data.csv [--ontology onto.txt] [--kappa K] [--max-level L]\n\
                 \x20               [--tau T] [--out repaired.csv] [run flags]",
                &[&["data", "ontology", "kappa", "max-level", "tau", "out"], RUN_FLAGS],
            ),
            "serve" if flags.contains_key("router") => (
                "fastofd serve --router [--addr A] [--workers N] [--worker-threads N]\n\
                 \x20             [--probe-interval-ms N] [--peers HOST:PORT,..] [--metrics-out F]\n\
                 \x20             [every serve flag but --router, forwarded to the workers]",
                &[&["router", "worker-threads", "probe-interval-ms"], SERVE_FLAGS],
            ),
            "serve" => (
                "fastofd serve [--addr A] [--workers N] [--queue-cap N] [--budget-ms N]\n\
                 \x20             [--max-body-mib N] [--rss-high-water-mib N] [--breaker-failures N]\n\
                 \x20             [--breaker-cooldown-ms N] [--retry-after-ms N] [--head-timeout-ms N]\n\
                 \x20             [--peer-timeout-ms N] [--checkpoint-dir DIR] [--peers HOST:PORT,..]\n\
                 \x20             [--faults SPEC] [--metrics-out F]",
                &[SERVE_FLAGS],
            ),
            _ => return None,
        };
        Some(Command { usage, flags })
    }

    fn accepts(&self, flag: &str) -> bool {
        self.flags.iter().any(|group| group.contains(&flag))
    }

    /// The usage text, with the run flags spelled out where they apply.
    fn usage(&self) -> String {
        let mut out = format!("usage: {}", self.usage);
        if self.flags.contains(&RUN_FLAGS) {
            out.push_str(
                "\nrun flags: [--timeout-ms N] [--max-work N] [--max-rss-mib N] [--metrics-out F]\n\
                 \x20          [--trace] [--checkpoint-dir DIR [--resume]] [--faults SPEC]",
            );
        }
        out
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        eprintln!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    }
    let mut flags: HashMap<String, Vec<String>> = HashMap::new();
    let mut current: Option<String> = None;
    for arg in args {
        if let Some(name) = arg.strip_prefix("--") {
            current = Some(name.to_owned());
            flags.entry(name.to_owned()).or_default();
        } else if let Some(name) = &current {
            flags.get_mut(name).expect("flag registered").push(arg);
            current = None;
        } else {
            return Err(format!("unexpected positional argument {arg:?}"));
        }
    }
    let spec = Command::named(&command, &flags)
        .ok_or_else(|| format!("unknown command {command:?}\n{}", usage()))?;
    if flags.contains_key("help") {
        println!("{}", spec.usage());
        return Ok(ExitCode::SUCCESS);
    }
    let mut unknown: Vec<&String> = flags.keys().filter(|name| !spec.accepts(name)).collect();
    unknown.sort();
    if let Some(name) = unknown.first() {
        return Err(format!(
            "unknown flag --{name} for `fastofd {command}`\n{}",
            spec.usage()
        ));
    }
    let single = |name: &str| -> Option<&str> {
        flags.get(name).and_then(|v| v.first()).map(String::as_str)
    };
    // Execution limits shared by every long-running command: the guard is
    // probed at every checkpoint and the command reports a sound partial
    // result marked INCOMPLETE when a limit trips.
    let guard = guard_from_flags(&flags)?;
    // Observability: `--metrics-out <path>` writes the metrics snapshot as
    // JSON, `--trace` prints the span tree to stderr. The handle is
    // disabled (zero-cost) unless one of the two flags is present.
    let obs = obs_from_flags(&flags);
    // Crash safety: `--checkpoint-dir DIR` snapshots resumable state at
    // every completed level/phase boundary; `--resume` restarts from the
    // newest valid snapshot. `--faults SPEC` (or FASTOFD_FAULTS) installs
    // a seeded fault-injection plan — testing only.
    let faults = faults_from_flags(&flags)?;
    if faults.is_active() {
        silence_injected_panics();
    }
    let checkpoint = checkpoint_from_flags(&flags, &faults)?;

    match command.as_str() {
        "generate" => {
            let preset = single("preset").unwrap_or("clinical");
            let rows: usize = single("rows")
                .unwrap_or("2000")
                .parse()
                .map_err(|_| "--rows expects an integer")?;
            let err_pct: f64 = single("err").unwrap_or("0").parse().map_err(|_| "--err")?;
            let inc_pct: f64 = single("inc").unwrap_or("0").parse().map_err(|_| "--inc")?;
            let seed: u64 = single("seed").unwrap_or("42").parse().map_err(|_| "--seed")?;
            let cfg = PresetConfig {
                n_rows: rows,
                seed,
                ..PresetConfig::default()
            };
            let mut ds = match preset {
                "clinical" => clinical(&cfg),
                "kiva" => kiva(&cfg),
                "census" => census(&PresetConfig { n_attrs: 11, ..cfg }),
                // Real-world vocabulary: ISO codes, country-name variants,
                // currencies, generic/brand drug names.
                "demo" => demo_dataset(rows, seed),
                other => return Err(format!("unknown preset {other:?}")),
            };
            if inc_pct > 0.0 {
                ds.degrade_ontology(inc_pct / 100.0, seed);
            }
            if err_pct > 0.0 {
                ds.inject_errors(err_pct / 100.0, seed);
            }
            let out = single("out").unwrap_or("data.csv");
            fs::write(out, csv::write_csv(&ds.relation)).map_err(|e| e.to_string())?;
            let onto_out = single("onto-out").unwrap_or("ontology.txt");
            fs::write(onto_out, write_ontology(&ds.ontology)).map_err(|e| e.to_string())?;
            println!(
                "wrote {rows} rows to {out}, {} senses to {onto_out} ({} errors injected, {} ontology values removed)",
                ds.ontology.len(),
                ds.injected.len(),
                ds.removed_values.len()
            );
            println!("planted OFDs:");
            for o in &ds.ofds {
                println!("  {}", o.display(ds.relation.schema()));
            }
            Ok(ExitCode::SUCCESS)
        }
        "discover" => {
            let (rel, onto) = load(&single("data"), &single("ontology"))?;
            let mut opts = DiscoveryOptions::new();
            if let Some(kappa) = single("kappa") {
                opts = opts.min_support(parse_kappa(kappa)?);
            }
            if let Some(theta) = single("theta") {
                opts = opts.kind(fastofd::core::OfdKind::Inheritance {
                    theta: theta.parse().map_err(|_| "--theta expects an integer")?,
                });
            }
            if let Some(level) = single("max-level") {
                opts = opts.max_level(level.parse().map_err(|_| "--max-level")?);
            }
            if let Some(t) = single("threads") {
                opts = opts.threads(t.parse().map_err(|_| "--threads")?);
            }
            if let Some(mib) = single("partition-cache-mib") {
                opts = opts.partition_cache_mib(
                    mib.parse()
                        .map_err(|_| "--partition-cache-mib expects MiB (0 keeps level 1 only)")?,
                );
            }
            opts = opts.guard(guard).obs(obs.clone()).faults(faults.clone());
            if let Some(ck) = checkpoint.clone() {
                opts = opts.checkpoint(ck);
            }
            let out = FastOfd::new(&rel, &onto).options(opts).run();
            print!("{}", out.display(rel.schema()));
            if let Some(level) = out.resumed_from_level {
                eprintln!("resumed from checkpoint: levels 1..={level} restored");
            }
            if out.snapshots_written > 0 || out.snapshot_errors > 0 {
                eprintln!(
                    "checkpoints: {} written, {} failed",
                    out.snapshots_written, out.snapshot_errors
                );
            }
            eprintln!(
                "{} minimal OFDs in {:.2?} ({} candidates verified)",
                out.len(),
                out.stats.elapsed,
                out.stats.total_verified()
            );
            if let Some(path) = single("out") {
                let text = sigma_to_text(rel.schema(), out.ofds());
                fs::write(path, text).map_err(|e| e.to_string())?;
                eprintln!("wrote Σ to {path} (load with --ofds-file)");
            }
            emit_obs(&obs, &flags)?;
            Ok(completion_code(out.complete))
        }
        "check" => {
            let (rel, onto) = load(&single("data"), &single("ontology"))?;
            let ofds = parse_ofds(&flags, rel.schema())?;
            if ofds.is_empty() {
                return Err("check requires at least one --ofd".into());
            }
            let validator = Validator::new(&rel, &onto);
            let mut all_ok = true;
            for ofd in &ofds {
                let v = validator.check(ofd);
                all_ok &= v.satisfied();
                println!(
                    "{}: {} (support {:.4}, {} violating classes)",
                    ofd.display(rel.schema()),
                    if v.satisfied() { "SATISFIED" } else { "VIOLATED" },
                    v.support(),
                    v.violation_count()
                );
                for o in v.violations().take(5) {
                    println!(
                        "  class@t{}: {}/{} tuples consistent",
                        o.representative, o.covered, o.size
                    );
                }
            }
            if !all_ok && flags.contains_key("explain") {
                println!();
                for e in explain_violations(&rel, &onto, &ofds) {
                    print!("{}", e.render());
                }
            }
            if all_ok {
                Ok(ExitCode::SUCCESS)
            } else {
                Err("one or more OFDs violated".into())
            }
        }
        "clean" => {
            let (rel, onto) = load(&single("data"), &single("ontology"))?;
            let ofds = parse_ofds(&flags, rel.schema())?;
            if ofds.is_empty() {
                return Err("clean requires at least one --ofd".into());
            }
            let mut config = OfdCleanConfig::default();
            if let Some(tau) = single("tau") {
                config.tau = tau.parse().map_err(|_| "--tau expects a float")?;
            }
            if let Some(beam) = single("beam") {
                config.beam = Some(beam.parse().map_err(|_| "--beam expects an integer")?);
            }
            config.guard = guard;
            config.obs = obs.clone();
            config.checkpoint = checkpoint.clone();
            let result = ofd_clean(&rel, &onto, &ofds, &config);
            if let Some(phase) = result.resumed_from_phase {
                eprintln!("resumed from checkpoint: phases 1..={phase} restored");
            }
            if result.snapshots_written > 0 || result.snapshot_errors > 0 {
                eprintln!(
                    "checkpoints: {} written, {} failed",
                    result.snapshots_written, result.snapshot_errors
                );
            }
            println!(
                "satisfied: {} — {} ontology insertion(s), {} cell repair(s), {} sense reassignment(s)",
                result.satisfied,
                result.ontology_dist(),
                result.data_dist(),
                result.reassignments
            );
            if let Some(i) = result.interrupt {
                println!("INCOMPLETE: interrupted ({i}); repairs above are sound but partial");
            }
            for (v, s) in &result.ontology_adds {
                println!(
                    "  S' += {:?} under {:?}",
                    result.repaired.pool().resolve(*v),
                    result
                        .repaired_ontology
                        .concept(*s)
                        .map(|c| c.label().to_owned())
                        .unwrap_or_default()
                );
            }
            for r in result.data_repairs.iter().take(20) {
                println!(
                    "  I'[{}][{}]: {:?} -> {:?}",
                    r.row,
                    result.repaired.schema().name(r.attr),
                    r.old,
                    r.new
                );
            }
            if result.data_repairs.len() > 20 {
                println!("  … {} more repairs", result.data_repairs.len() - 20);
            }
            if let Some(out) = single("out") {
                fs::write(out, csv::write_csv(&result.repaired)).map_err(|e| e.to_string())?;
                println!("wrote repaired data to {out}");
            }
            if let Some(onto_out) = single("onto-out") {
                fs::write(onto_out, write_ontology(&result.repaired_ontology))
                    .map_err(|e| e.to_string())?;
                println!("wrote repaired ontology to {onto_out}");
            }
            if let Some(report_path) = single("report") {
                let report = render_report(&rel, &onto, &ofds, &result);
                fs::write(report_path, report).map_err(|e| e.to_string())?;
                println!("wrote repair report to {report_path}");
            }
            emit_obs(&obs, &flags)?;
            Ok(completion_code(result.complete))
        }
        "enforce" => {
            // §5: discover κ-approximate OFDs on the (dirty) data, then
            // repair until they hold exactly.
            let (rel, onto) = load(&single("data"), &single("ontology"))?;
            let kappa = parse_kappa(single("kappa").unwrap_or("0.9"))?;
            let max_level: Option<usize> = match single("max-level") {
                Some(l) => Some(l.parse().map_err(|_| "--max-level")?),
                None => Some(3),
            };
            let mut config = OfdCleanConfig::default();
            if let Some(tau) = single("tau") {
                config.tau = tau.parse().map_err(|_| "--tau expects a float")?;
            }
            config.guard = guard;
            config.obs = obs.clone();
            config.checkpoint = checkpoint.clone();
            let result = enforce_approximate(&rel, &onto, kappa, max_level, &config);
            println!("discovered {} repairable rules at κ = {kappa}:", result.sigma.len());
            for o in &result.sigma {
                println!("  {}", o.display(rel.schema()));
            }
            println!(
                "repair: satisfied={} — {} ontology insertion(s), {} cell repair(s); all rules exact: {}",
                result.clean.satisfied,
                result.clean.ontology_dist(),
                result.clean.data_dist(),
                result.all_exact()
            );
            if let Some(i) = result.clean.interrupt {
                println!("INCOMPLETE: interrupted ({i}); repairs above are sound but partial");
            }
            if let Some(out) = single("out") {
                fs::write(out, csv::write_csv(&result.clean.repaired))
                    .map_err(|e| e.to_string())?;
                println!("wrote repaired data to {out}");
            }
            emit_obs(&obs, &flags)?;
            Ok(completion_code(result.clean.complete))
        }
        "serve" if flags.contains_key("router") => {
            // Router mode: this process runs no engines. It spawns and
            // supervises `--workers N` single-server worker processes
            // (each `fastofd serve` on an OS-assigned port, re-execed
            // from this binary), consistent-hash routes requests by
            // dataset fingerprint, fails over to the next replica on
            // connect/5xx errors, and respawns crashed workers behind a
            // restart-storm breaker. Give the fleet a shared
            // `--checkpoint-dir` so any replica can adopt a dead
            // sibling's checkpoints and the dataset catalog is
            // fleet-wide.
            let workers: usize = match single("workers") {
                Some(n) => n.parse().map_err(|_| "--workers expects an integer")?,
                None => 2,
            };
            // Checked before any worker spawns; the router enforces the
            // same cap its workers get.
            let max_body_bytes = single("max-body-mib").map(parse_max_body_mib).transpose()?;
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let mut worker_args: Vec<String> =
                vec!["serve".into(), "--addr".into(), "127.0.0.1:0".into()];
            // Workers inherit every serve flag that shapes job execution;
            // `--workers` is the *process* count here, so per-process
            // thread count travels as `--worker-threads`.
            for flag in [
                "queue-cap",
                "budget-ms",
                "max-body-mib",
                "rss-high-water-mib",
                "breaker-failures",
                "breaker-cooldown-ms",
                "retry-after-ms",
                "checkpoint-dir",
                "faults",
                "head-timeout-ms",
                "peer-timeout-ms",
                // Local workers learn the remote hosts too, so their
                // catalog read-repair and checkpoint shipping can reach
                // across the fleet.
                "peers",
            ] {
                if let Some(v) = single(flag) {
                    worker_args.push(format!("--{flag}"));
                    worker_args.push(v.to_owned());
                }
            }
            if let Some(n) = single("worker-threads") {
                worker_args.push("--workers".into());
                worker_args.push(n.to_owned());
            }
            let remote = match single("peers") {
                Some(spec) => fastofd::serve::parse_peer_list(spec)
                    .map_err(|e| format!("--peers: {e}"))?,
                None => Vec::new(),
            };
            let n_remote = remote.len();
            let obs_handle = Obs::enabled();
            let supervisor = fastofd::serve::Supervisor::start(fastofd::serve::SupervisorConfig {
                workers,
                remote,
                obs: obs_handle.clone(),
                ..fastofd::serve::SupervisorConfig::new(fastofd::serve::WorkerSpec {
                    program: exe,
                    args: worker_args,
                })
            })
            .map_err(|e| format!("supervisor: {e}"))?;
            let mut router_cfg = fastofd::serve::RouterConfig {
                addr: single("addr").unwrap_or("127.0.0.1:0").to_owned(),
                catalog_dir: single("checkpoint-dir")
                    .map(|d| std::path::PathBuf::from(d).join("catalog")),
                obs: obs_handle.clone(),
                ..fastofd::serve::RouterConfig::default()
            };
            if let Some(bytes) = max_body_bytes {
                router_cfg.max_body_bytes = bytes;
            }
            if let Some(ms) = single("probe-interval-ms") {
                router_cfg.probe_interval_ms =
                    ms.parse().map_err(|_| "--probe-interval-ms expects an integer")?;
            }
            if let Some(ms) = single("head-timeout-ms") {
                router_cfg.head_timeout_ms =
                    ms.parse().map_err(|_| "--head-timeout-ms expects an integer")?;
            }
            if let Some(ms) = single("peer-timeout-ms") {
                router_cfg.peer_timeout_ms =
                    ms.parse().map_err(|_| "--peer-timeout-ms expects an integer")?;
            }
            let router = fastofd::serve::Router::bind(
                router_cfg,
                fastofd::serve::Fleet::Supervised(supervisor),
            )
            .map_err(|e| format!("router bind: {e}"))?;
            println!(
                "listening on {} (router, workers={workers}, peers={n_remote})",
                router.addr()
            );
            {
                use std::io::Write;
                let _ = std::io::stdout().flush();
            }
            let term = fastofd::serve::termination_flag();
            while !term.load(std::sync::atomic::Ordering::SeqCst) && !router.drain_requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            eprintln!("router stopping: drained workers will not be respawned");
            router.shutdown();
            emit_obs(&obs_handle, &flags)?;
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            // Long-running resilient service over the same engines; see
            // the README "Serving" section for endpoint and shedding
            // semantics. Drains gracefully on SIGTERM/SIGINT or
            // `POST /admin/drain`, checkpointing in-flight jobs under
            // `--checkpoint-dir` for byte-identical resume after restart.
            let mut cfg = fastofd::serve::ServeConfig {
                faults: faults.clone(),
                ..fastofd::serve::ServeConfig::default()
            };
            if let Some(addr) = single("addr") {
                cfg.addr = addr.to_owned();
            }
            if let Some(n) = single("workers") {
                cfg.workers = n.parse().map_err(|_| "--workers expects an integer")?;
            }
            if let Some(n) = single("queue-cap") {
                cfg.queue_cap = n.parse().map_err(|_| "--queue-cap expects an integer")?;
            }
            if let Some(ms) = single("budget-ms") {
                cfg.budget_ms = ms.parse().map_err(|_| "--budget-ms expects an integer")?;
            }
            if let Some(mib) = single("max-body-mib") {
                cfg.max_body_bytes = parse_max_body_mib(mib)?;
            }
            if let Some(mib) = single("rss-high-water-mib") {
                cfg.rss_high_water_mib =
                    Some(mib.parse().map_err(|_| "--rss-high-water-mib expects an integer")?);
            }
            if let Some(n) = single("breaker-failures") {
                cfg.breaker_threshold =
                    n.parse().map_err(|_| "--breaker-failures expects an integer")?;
            }
            if let Some(ms) = single("breaker-cooldown-ms") {
                cfg.breaker_cooldown_ms =
                    ms.parse().map_err(|_| "--breaker-cooldown-ms expects an integer")?;
            }
            if let Some(ms) = single("retry-after-ms") {
                cfg.retry_after_ms =
                    ms.parse().map_err(|_| "--retry-after-ms expects an integer")?;
            }
            if let Some(ms) = single("head-timeout-ms") {
                cfg.head_timeout_ms =
                    ms.parse().map_err(|_| "--head-timeout-ms expects an integer")?;
            }
            if let Some(ms) = single("peer-timeout-ms") {
                cfg.peer_timeout_ms =
                    ms.parse().map_err(|_| "--peer-timeout-ms expects an integer")?;
            }
            cfg.checkpoint_dir = single("checkpoint-dir").map(std::path::PathBuf::from);
            if let Some(spec) = single("peers") {
                cfg.peers = fastofd::serve::parse_peer_list(spec)
                    .map_err(|e| format!("--peers: {e}"))?;
            }

            let server = fastofd::serve::Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
            let obs_handle = server.obs().clone();
            println!(
                "listening on {} (workers={}, queue={})",
                server.addr(),
                single("workers").unwrap_or("2"),
                single("queue-cap").unwrap_or("64"),
            );
            {
                use std::io::Write;
                let _ = std::io::stdout().flush();
            }
            let term = fastofd::serve::termination_flag();
            while !term.load(std::sync::atomic::Ordering::SeqCst) && !server.drain_requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            eprintln!("draining: admission closed, cancelling in-flight jobs to checkpoints");
            let summary = server.shutdown(std::time::Duration::from_secs(30));
            eprintln!(
                "drained: admitted={} shed={} breaker_open={} drained={} resumed={}",
                summary.admitted,
                summary.shed,
                summary.breaker_open,
                summary.drained,
                summary.resumed
            );
            emit_obs(&obs_handle, &flags)?;
            Ok(ExitCode::SUCCESS)
        }
        other => unreachable!("{other:?} has no flag declarations"),
    }
}

fn usage() -> String {
    "usage: fastofd <generate|discover|check|clean|enforce|serve> [--flags...]\n\
     serving: fastofd serve [--addr A] [--workers N] [--queue-cap N] [--budget-ms N]\n\
              [--rss-high-water-mib N] [--breaker-failures N] [--breaker-cooldown-ms N]\n\
              [--checkpoint-dir DIR] [--head-timeout-ms N] [--peer-timeout-ms N]\n\
              — graceful drain on SIGTERM or POST /admin/drain\n\
     streaming: POST /v1/append {csv, ontology, ofds|kappa, rows:[[cells]], updates:[{row,\n\
              attr, value[, old]}]} and POST /v1/retract {.., rows:[idx]} maintain a live\n\
              session incrementally (delta partitions, no re-validation of untouched\n\
              classes); sessions persist under --checkpoint-dir and survive restarts;\n\
              stale \"old\" guards and out-of-range rows answer 409\n\
     fleet: fastofd serve --router [--workers N] [--worker-threads N] [--checkpoint-dir DIR]\n\
            [--peers HOST:PORT,..] [--probe-interval-ms N] — supervised worker processes\n\
            plus fixed remote workers, consistent-hash routing by dataset fingerprint,\n\
            failover + respawn; probe-driven ring ejection/readmission for remote peers;\n\
            share --checkpoint-dir for checkpoint adoption + catalog, or give workers\n\
            --peers so quorum catalog writes and checkpoint shipping cross filesystems\n\
     exit codes: 0 complete, 1 error, 3 sound-but-INCOMPLETE partial result\n\
     execution limits (discover/clean/enforce): --timeout-ms N --max-work N --max-rss-mib N\n\
     observability (discover/clean/enforce): --metrics-out metrics.json --trace\n\
     crash safety (discover/clean/enforce): --checkpoint-dir DIR [--resume]\n\
     performance (discover): --partition-cache-mib M (partition memory bound; 0 keeps only\n\
              the pinned level-1 partitions; default 256)\n\
     each command's flags: fastofd <command> --help; an unknown flag is an error\n\
     fault injection (testing only): --faults \"seed=N,snapshot-io%P,panic@N\" or FASTOFD_FAULTS;\n\
              network sites: net-delay net-reset net-partial net-blackhole net-refuse\n\
              (+ delay-ms=N), realised by the in-process chaos proxy (serve_probe --chaos-net)\n\
     see the module docs (`cargo doc`) or README.md for details"
        .to_owned()
}

/// Parses the seeded fault-injection plan from `--faults SPEC`, falling
/// back to the `FASTOFD_FAULTS` environment variable. Inert unless set;
/// meant for the chaos harness and crash-safety tests.
fn faults_from_flags(flags: &HashMap<String, Vec<String>>) -> Result<FaultPlan, String> {
    let spec = flags
        .get("faults")
        .and_then(|v| v.first())
        .cloned()
        .or_else(|| std::env::var("FASTOFD_FAULTS").ok());
    match spec {
        Some(s) if !s.trim().is_empty() => {
            FaultPlan::parse(&s).map_err(|e| format!("--faults: {e}"))
        }
        _ => Ok(FaultPlan::none()),
    }
}

/// Builds checkpointing options from `--checkpoint-dir DIR` and `--resume`.
/// Snapshot-write faults from the active fault plan are installed on the
/// store so injected I/O errors and torn writes hit the real write path.
fn checkpoint_from_flags(
    flags: &HashMap<String, Vec<String>>,
    faults: &FaultPlan,
) -> Result<Option<CheckpointOptions>, String> {
    let Some(dir) = flags.get("checkpoint-dir").and_then(|v| v.first()) else {
        if flags.contains_key("resume") {
            return Err("--resume requires --checkpoint-dir".into());
        }
        return Ok(None);
    };
    let mut store = SnapshotStore::new(dir);
    if faults.is_active() {
        store = store.with_faults(faults.clone());
    }
    Ok(Some(CheckpointOptions {
        store,
        resume: flags.contains_key("resume"),
    }))
}

/// Builds the run's [`Obs`] handle: enabled when `--metrics-out` or
/// `--trace` is present, disabled (all no-ops) otherwise.
fn obs_from_flags(flags: &HashMap<String, Vec<String>>) -> Obs {
    if flags.contains_key("metrics-out") || flags.contains_key("trace") {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// Writes the metrics snapshot to `--metrics-out` (pretty JSON) and prints
/// the span tree to stderr under `--trace`.
fn emit_obs(obs: &Obs, flags: &HashMap<String, Vec<String>>) -> Result<(), String> {
    if !obs.is_enabled() {
        return Ok(());
    }
    let snapshot = obs.snapshot();
    if let Some(path) = flags.get("metrics-out").and_then(|v| v.first()) {
        fastofd::core::atomic_write(std::path::Path::new(path), snapshot.to_json_string(true).as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    if flags.contains_key("trace") {
        eprint!("{}", snapshot.render_trace());
    }
    Ok(())
}

/// Builds the run's [`ExecGuard`] from `--timeout-ms`, `--max-work` and
/// `--max-rss-mib`; unlimited when none are given.
fn guard_from_flags(flags: &HashMap<String, Vec<String>>) -> Result<ExecGuard, String> {
    let single =
        |name: &str| -> Option<&str> { flags.get(name).and_then(|v| v.first()).map(String::as_str) };
    let mut cfg = GuardConfig::default();
    if let Some(ms) = single("timeout-ms") {
        let ms: u64 = ms.parse().map_err(|_| "--timeout-ms expects an integer")?;
        cfg.timeout = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(w) = single("max-work") {
        cfg.max_work = Some(w.parse().map_err(|_| "--max-work expects an integer")?);
    }
    if let Some(m) = single("max-rss-mib") {
        cfg.max_rss_mib = Some(m.parse().map_err(|_| "--max-rss-mib expects an integer")?);
    }
    Ok(ExecGuard::new(cfg))
}

/// Parses `--kappa` for `discover` and `enforce`: a float in (0, 1], range
/// checked by [`DiscoveryOptions::try_min_support`].
fn parse_kappa(text: &str) -> Result<f64, String> {
    let kappa: f64 = text.parse().map_err(|_| "--kappa expects a float")?;
    DiscoveryOptions::new()
        .try_min_support(kappa)
        .map(|_| kappa)
        .map_err(|e| format!("--kappa: {e}"))
}

/// Parses `--max-body-mib` into a byte cap for either serve mode. A
/// count of MiB whose bytes do not fit in `usize` is a typed error, never
/// an overflow panic or a cap that wraps to zero.
fn parse_max_body_mib(text: &str) -> Result<usize, String> {
    let mib: usize = text.parse().map_err(|_| "--max-body-mib expects an integer")?;
    mib.checked_mul(1024 * 1024)
        .ok_or_else(|| format!("--max-body-mib: {mib} MiB does not fit in memory"))
}

fn load(
    data: &Option<&str>,
    ontology: &Option<&str>,
) -> Result<(Relation, Ontology), String> {
    let data = data.ok_or("--data <file.csv> is required")?;
    let text = fs::read_to_string(data).map_err(|e| format!("{data}: {e}"))?;
    let rel = csv::read_csv(&text).map_err(|e| format!("{data}: {e}"))?;
    let onto = match ontology {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_ontology(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => Ontology::empty(),
    };
    Ok((rel, onto))
}

/// Serializes OFDs in the `A,B->C` line format `--ofds-file` loads
/// (comments and blank lines allowed).
fn sigma_to_text<'a>(schema: &Schema, ofds: impl Iterator<Item = &'a Ofd>) -> String {
    let mut out = String::from("# fastofd Σ file: one \"A,B->C\" per line\n");
    for ofd in ofds {
        let lhs: Vec<&str> = ofd.lhs.iter().map(|a| schema.name(a)).collect();
        out.push_str(&format!("{}->{}\n", lhs.join(","), schema.name(ofd.rhs)));
    }
    out
}

/// Parses every `--ofd "A,B->C"` occurrence plus any `--ofds-file` files;
/// `--theta N` switches all of them to inheritance semantics.
fn parse_ofds(
    flags: &HashMap<String, Vec<String>>,
    schema: &Schema,
) -> Result<Vec<Ofd>, String> {
    let theta: Option<usize> = match flags.get("theta").and_then(|v| v.first()) {
        Some(t) => Some(t.parse().map_err(|_| "--theta expects an integer")?),
        None => None,
    };
    let mut specs: Vec<String> = flags
        .get("ofd").cloned()
        .unwrap_or_default();
    for path in flags.get("ofds-file").map(Vec::as_slice).unwrap_or(&[]) {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        specs.extend(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_owned),
        );
    }
    let mut out = Vec::new();
    for spec in &specs {
        let (lhs, rhs) = spec
            .split_once("->")
            .ok_or_else(|| format!("bad OFD {spec:?}; expected \"A,B->C\""))?;
        let lhs_names: Vec<&str> = lhs
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let lhs_set = schema
            .set(lhs_names.iter().copied())
            .map_err(|e| e.to_string())?;
        let rhs_attr = schema.attr(rhs.trim()).map_err(|e| e.to_string())?;
        out.push(match theta {
            Some(theta) => Ofd::inheritance(lhs_set, rhs_attr, theta),
            None => Ofd::synonym(lhs_set, rhs_attr),
        });
    }
    Ok(out)
}
