//! Request decoding and engine invocation for the job endpoints.
//!
//! A job carries its inputs inline (CSV text, ontology text, OFD specs)
//! so the server holds no session state — every piece of durable state
//! lives in the checkpoint directory, keyed by a fingerprint of the
//! request, which is what makes kill/restart resume work: the same
//! request sent to a restarted server maps to the same per-job
//! [`SnapshotStore`] and the engine's own input fingerprint decides
//! whether the snapshot is resumable.
//!
//! Support values are reported both as JSON floats (for humans) and as
//! raw IEEE-754 bit patterns (`support_bits`), the same trick the
//! checkpoint layer uses: clients asserting byte-identical resume compare
//! the bits and sidestep float formatting entirely.

use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ofd_clean::{ofd_clean, OfdCleanConfig};
use ofd_core::{
    CheckpointOptions, ExecGuard, FaultPlan, Fingerprint, Interrupt, Obs, Ofd, OfdKind, Relation,
    Schema, SnapshotStore, Validator,
};
use ofd_datagen::csv;
use ofd_discovery::{DiscoveryOptions, FastOfd};
use ofd_ontology::{parse_ontology, Ontology};
use serde_json::{json, Value};

use crate::catalog::{keyed_content, Catalog, CatalogEntry};

/// The job endpoints behind admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/discover` — FastOFD lattice traversal.
    Discover,
    /// `POST /v1/clean` — OFDClean repair.
    Clean,
    /// `POST /v1/validate` — per-OFD validation.
    Validate,
    /// `POST /v1/append` — streaming session: insert rows / update cells.
    Append,
    /// `POST /v1/retract` — streaming session: remove rows.
    Retract,
}

/// Number of job endpoints (size of the breaker array).
pub const ENDPOINT_COUNT: usize = 5;

/// Every endpoint, in [`Endpoint::index`] order — the one place that
/// enumerates them, so per-endpoint arrays iterate without a hand-kept
/// index match.
pub const ENDPOINTS: [Endpoint; ENDPOINT_COUNT] = [
    Endpoint::Discover,
    Endpoint::Clean,
    Endpoint::Validate,
    Endpoint::Append,
    Endpoint::Retract,
];

impl Endpoint {
    /// Routes a request path to its endpoint.
    pub fn from_path(path: &str) -> Option<Endpoint> {
        match path {
            "/v1/discover" => Some(Endpoint::Discover),
            "/v1/clean" => Some(Endpoint::Clean),
            "/v1/validate" => Some(Endpoint::Validate),
            "/v1/append" => Some(Endpoint::Append),
            "/v1/retract" => Some(Endpoint::Retract),
            _ => None,
        }
    }

    /// Stable slug used in responses and metrics labels.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Discover => "discover",
            Endpoint::Clean => "clean",
            Endpoint::Validate => "validate",
            Endpoint::Append => "append",
            Endpoint::Retract => "retract",
        }
    }

    /// Dense index into per-endpoint arrays (breakers).
    pub fn index(self) -> usize {
        match self {
            Endpoint::Discover => 0,
            Endpoint::Clean => 1,
            Endpoint::Validate => 2,
            Endpoint::Append => 3,
            Endpoint::Retract => 4,
        }
    }
}

/// What the worker needs to know about a finished job beyond its body.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobOutcome {
    /// The engine returned a sound partial result (`INCOMPLETE`).
    pub incomplete: bool,
    /// The run restored state from a checkpoint before continuing.
    pub resumed: bool,
    /// Why the run stopped early, when `incomplete`.
    pub interrupt: Option<Interrupt>,
}

/// A request the handler rejected before running an engine. Client
/// errors — they map to 400 and never move the circuit breaker.
#[derive(Debug)]
pub struct BadRequest(pub String);

/// A handler rejection with an HTTP classification. Neither variant moves
/// the circuit breaker — both describe the request, not endpoint health.
#[derive(Debug)]
pub enum JobError {
    /// Malformed request → 400.
    BadRequest(String),
    /// The request's view of session state is stale (wrong `old` value,
    /// retracted row index) → 409, retry after refreshing.
    Conflict(String),
}

impl From<BadRequest> for JobError {
    fn from(e: BadRequest) -> JobError {
        JobError::BadRequest(e.0)
    }
}

impl JobError {
    /// The rejection message.
    pub fn message(&self) -> &str {
        match self {
            JobError::BadRequest(m) | JobError::Conflict(m) => m,
        }
    }
}

/// Everything a handler needs besides the request body.
pub struct JobContext {
    /// Per-request guard (deadline from the server budget; cancel on
    /// client disconnect or drain).
    pub guard: ExecGuard,
    /// Server-wide metrics handle.
    pub obs: Obs,
    /// Seeded fault plan (inert in production).
    pub faults: FaultPlan,
    /// Root checkpoint directory; `None` disables checkpointing.
    pub checkpoint_root: Option<PathBuf>,
    /// Dataset catalog, when the server has one; lets requests reference
    /// `"dataset": "name@version"` instead of shipping rows inline.
    pub catalog: Option<Arc<Catalog>>,
    /// In-memory streaming sessions for `/v1/append` / `/v1/retract`
    /// (their durable state lives under `checkpoint_root`).
    pub sessions: Arc<crate::stream::StreamSessions>,
    /// Sibling workers of a multi-host fleet. When a job's checkpoint
    /// directory is empty locally, the dead owner's newest snapshot is
    /// fetched from here before falling back to re-execution.
    pub peers: Vec<std::net::SocketAddr>,
    /// Connect/read deadlines for those peer conversations.
    pub peer_timeouts: crate::peers::PeerTimeouts,
}

/// Runs `endpoint` on `body`, returning the response body and outcome.
pub fn execute(
    endpoint: Endpoint,
    body: &Value,
    ctx: &JobContext,
) -> Result<(Value, JobOutcome), JobError> {
    // Chaos hook for the circuit-breaker path: when (and only when) the
    // server was started with an active fault plan, a request carrying
    // `"inject_panic": true` panics inside the handler. The worker's
    // catch_unwind turns it into a 500 and a breaker failure — the soak
    // harness uses this to drive endpoints through open/half-open/closed.
    if ctx.faults.is_active()
        && field(body, "inject_panic").and_then(Value::as_bool) == Some(true)
    {
        panic!("{}", ofd_core::INJECTED_PANIC);
    }
    match endpoint {
        Endpoint::Discover => discover(body, ctx).map_err(JobError::from),
        Endpoint::Clean => clean(body, ctx).map_err(JobError::from),
        Endpoint::Validate => validate(body, ctx).map_err(JobError::from),
        Endpoint::Append => crate::stream::append(body, ctx),
        Endpoint::Retract => crate::stream::retract(body, ctx),
    }
}

// ---------------------------------------------------------------- inputs

pub(crate) fn field<'a>(body: &'a Value, name: &str) -> Option<&'a Value> {
    body.get(name).filter(|v| !v.is_null())
}

pub(crate) fn required_str<'a>(body: &'a Value, name: &str) -> Result<&'a str, BadRequest> {
    field(body, name)
        .and_then(Value::as_str)
        .ok_or_else(|| BadRequest(format!("missing required string field {name:?}")))
}

pub(crate) fn opt_str<'a>(body: &'a Value, name: &str) -> Result<Option<&'a str>, BadRequest> {
    match field(body, name) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| BadRequest(format!("field {name:?} must be a string"))),
    }
}

pub(crate) fn opt_u64(body: &Value, name: &str) -> Result<Option<u64>, BadRequest> {
    match field(body, name) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| BadRequest(format!("field {name:?} must be a non-negative integer"))),
    }
}

pub(crate) fn opt_f64(body: &Value, name: &str) -> Result<Option<f64>, BadRequest> {
    match field(body, name) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| BadRequest(format!("field {name:?} must be a number"))),
    }
}

/// A request's data inputs, resolved but not yet parsed: inline CSV and
/// ontology texts, or the interned [`CatalogEntry`] a `dataset:
/// "name@version"` reference names. Jobs parse at once; streaming
/// sessions parse only when a session is built, so a resident session
/// absorbing a one-row batch never pays a full CSV parse.
pub(crate) enum Inputs<'a> {
    Inline { csv: &'a str, onto: &'a str },
    Cataloged(Arc<CatalogEntry>),
}

impl<'a> Inputs<'a> {
    /// Resolves `"dataset"` against inline `"csv"` (+ `"ontology"`).
    pub(crate) fn resolve(body: &'a Value, ctx: &JobContext) -> Result<Inputs<'a>, BadRequest> {
        let Some(reference) = opt_str(body, "dataset")? else {
            return Ok(Inputs::Inline {
                csv: required_str(body, "csv")?,
                onto: opt_str(body, "ontology")?.unwrap_or(""),
            });
        };
        if field(body, "csv").is_some() {
            return Err(BadRequest(
                "request carries both \"dataset\" and inline \"csv\"; pick one".into(),
            ));
        }
        let catalog = ctx.catalog.as_ref().ok_or_else(|| {
            BadRequest("no dataset catalog on this server (start it with --checkpoint-dir)".into())
        })?;
        catalog
            .resolve(reference)
            .map(Inputs::Cataloged)
            .map_err(|e| BadRequest(format!("dataset: {}", e.message())))
    }

    /// The parsed relation and ontology: borrowed from a catalog entry's
    /// interned parse, so a hot dataset is parsed once per process, or
    /// parsed here from inline texts.
    pub(crate) fn parse(&self) -> Result<(Cow<'_, Relation>, Cow<'_, Ontology>), BadRequest> {
        let (csv_text, onto_text) = match self {
            Inputs::Cataloged(e) => {
                return Ok((Cow::Borrowed(&e.relation), Cow::Borrowed(&e.ontology_parsed)))
            }
            Inputs::Inline { csv, onto } => (*csv, *onto),
        };
        let rel = csv::read_csv(csv_text).map_err(|e| BadRequest(format!("csv: {e}")))?;
        let onto = if onto_text.is_empty() {
            Ontology::empty()
        } else {
            parse_ontology(onto_text).map_err(|e| BadRequest(format!("ontology: {e}")))?
        };
        Ok((Cow::Owned(rel), Cow::Owned(onto)))
    }

    /// The key state after `label` and the *resolved* texts, not the
    /// reference — so a job shipped inline and the same job shipped as
    /// `name@version` fingerprint to the *same* checkpoint directory and
    /// can adopt each other's snapshots. Cataloged texts are hashed once
    /// per entry, not per request.
    pub(crate) fn keyed(&self, label: &'static str) -> Fingerprint {
        match self {
            Inputs::Inline { csv, onto } => keyed_content(label, csv, onto),
            Inputs::Cataloged(e) => e.keyed(label),
        }
    }

    /// `"name@version"` echo for responses; `Null` for inline inputs.
    pub(crate) fn dataset_field(&self) -> Value {
        match self {
            Inputs::Inline { .. } => Value::Null,
            Inputs::Cataloged(e) => json!(format!("{}@{}", e.name, e.version)),
        }
    }
}

/// Parses the `"ofds": ["A,B->C", ...]` array (inheritance when `theta`
/// is present, synonym otherwise) — the same grammar as the CLI's
/// `--ofd` flag.
fn parse_ofds(body: &Value, schema: &Schema) -> Result<Vec<Ofd>, BadRequest> {
    let theta = opt_u64(body, "theta")?.map(|t| t as usize);
    let strings = ofds_strings(body)?
        .ok_or_else(|| BadRequest("missing required array field \"ofds\"".into()))?;
    parse_spec_list(&strings, theta, schema)
}

/// The `"ofds"` array's spec strings, or `None` when the body has no
/// `"ofds"` array.
pub(crate) fn ofds_strings(body: &Value) -> Result<Option<Vec<&str>>, BadRequest> {
    let Some(specs) = field(body, "ofds").and_then(Value::as_array) else {
        return Ok(None);
    };
    let strings = specs.iter().map(|spec| {
        spec.as_str()
            .ok_or_else(|| BadRequest("\"ofds\" entries must be strings".into()))
    });
    strings.collect::<Result<_, _>>().map(Some)
}

/// Parses `"A,B->C"` spec strings into [`Ofd`]s (inheritance when `theta`
/// is present, synonym otherwise) — shared by the batch endpoints and the
/// streaming sessions, which persist their Σ as exactly these strings.
pub(crate) fn parse_spec_list(
    specs: &[&str],
    theta: Option<usize>,
    schema: &Schema,
) -> Result<Vec<Ofd>, BadRequest> {
    let mut out = Vec::with_capacity(specs.len());
    for &spec in specs {
        let (lhs, rhs) = spec
            .split_once("->")
            .ok_or_else(|| BadRequest(format!("bad OFD {spec:?}; expected \"A,B->C\"")))?;
        let lhs_set = schema
            .set(lhs.split(',').map(str::trim).filter(|s| !s.is_empty()))
            .map_err(|e| BadRequest(e.to_string()))?;
        let rhs_attr = schema
            .attr(rhs.trim())
            .map_err(|e| BadRequest(e.to_string()))?;
        out.push(match theta {
            Some(theta) => Ofd::inheritance(lhs_set, rhs_attr, theta),
            None => Ofd::synonym(lhs_set, rhs_attr),
        });
    }
    if out.is_empty() {
        return Err(BadRequest("\"ofds\" must not be empty".into()));
    }
    Ok(out)
}

// ----------------------------------------------------------- checkpoints

/// Per-job checkpoint directory: `root/job-<fnv64-hex>` keyed by a
/// fingerprint of the endpoint and every result-affecting input. Two
/// concurrent jobs with different inputs therefore never share snapshot
/// files, while a resubmitted identical request (the restart path) maps
/// back to its own directory — the engine's internal fingerprint then
/// validates that the snapshot really matches before resuming.
///
/// The fingerprint hashes *resolved* content, never worker identity or
/// the `dataset` reference syntax, which is what makes the directories
/// worker-agnostic: any fleet worker handed the same request (inline or
/// by reference) computes the same path under the shared checkpoint
/// root and can adopt a dead sibling's snapshots mid-level.
///
/// The second element of the returned pair is the snapshot *provenance*
/// (echoed as `resumed_from` in job responses): `"local"` when this
/// replica already holds snapshots for the fingerprint, `"peer"` when
/// they were just shipped over from a sibling's checkpoint root (the
/// cross-filesystem adoption path, `serve.ship.fetched`), `"none"` when
/// no snapshot survives anywhere and the engine re-executes from inputs.
fn job_checkpoint(
    ctx: &JobContext,
    endpoint: Endpoint,
    body: &Value,
    inputs: &Inputs<'_>,
) -> Result<Option<(CheckpointOptions, &'static str)>, BadRequest> {
    let Some(root) = &ctx.checkpoint_root else {
        return Ok(None);
    };
    let mut fp = inputs.keyed(endpoint.label());
    for opt in ["kappa", "tau"] {
        fp.update_u64(opt_f64(body, opt)?.unwrap_or(-1.0).to_bits());
    }
    for opt in ["theta", "max_level", "beam"] {
        fp.update_u64(opt_u64(body, opt)?.map_or(u64::MAX, |v| v.wrapping_add(1)));
    }
    if let Some(specs) = field(body, "ofds").and_then(Value::as_array) {
        for spec in specs {
            fp.update_str(spec.as_str().unwrap_or(""));
        }
    }
    let fp = fp.finish();
    let dir: &Path = root.as_ref();
    let mut store = SnapshotStore::new(dir.join(format!("job-{fp:016x}")));
    if ctx.faults.is_active() {
        store = store.with_faults(ctx.faults.clone());
    }
    let provenance = if store.streams().map(|s| !s.is_empty()).unwrap_or(false) {
        "local"
    } else if !ctx.peers.is_empty()
        && crate::peers::fetch_and_install(
            &ctx.peers,
            &format!("/v1/jobs/{fp:016x}/snapshot"),
            &store,
            &ctx.peer_timeouts,
        ) > 0
    {
        ctx.obs.inc("serve.ship.fetched");
        "peer"
    } else {
        "none"
    };
    // Resume is unconditional: loading is fingerprint-validated and falls
    // back to a fresh run on any mismatch, so opting in is always sound.
    Ok(Some((CheckpointOptions { store, resume: true }, provenance)))
}

// -------------------------------------------------------------- handlers

fn status_fields(outcome: &JobOutcome) -> (Value, Value) {
    (
        json!(if outcome.incomplete { "incomplete" } else { "complete" }),
        match outcome.interrupt {
            Some(i) => json!(i.label()),
            None => Value::Null,
        },
    )
}

fn discover(body: &Value, ctx: &JobContext) -> Result<(Value, JobOutcome), BadRequest> {
    let inputs = Inputs::resolve(body, ctx)?;
    let (rel, onto) = inputs.parse()?;
    let (rel, onto) = (rel.as_ref(), onto.as_ref());
    let mut opts = DiscoveryOptions::new()
        .guard(ctx.guard.clone())
        .obs(ctx.obs.clone())
        .faults(ctx.faults.clone());
    if let Some(kappa) = opt_f64(body, "kappa")? {
        opts = opts
            .try_min_support(kappa)
            .map_err(|_| BadRequest("\"kappa\" must be in (0, 1]".into()))?;
    }
    if let Some(theta) = opt_u64(body, "theta")? {
        opts = opts.kind(OfdKind::Inheritance {
            theta: theta as usize,
        });
    }
    if let Some(level) = opt_u64(body, "max_level")? {
        opts = opts.max_level(level as usize);
    }
    if let Some(threads) = opt_u64(body, "threads")? {
        if threads == 0 {
            return Err(BadRequest("\"threads\" must be at least 1".into()));
        }
        opts = opts.threads(threads as usize);
    }
    // Tuning knobs. Both are result-neutral (the engine's differential
    // contract), so — like `threads` — they stay out of the job
    // fingerprint: a resubmission tuned differently still resumes the same
    // job's snapshots.
    if let Some(rounds) = opt_u64(body, "sample_rounds")? {
        opts = opts.sample_rounds(rounds as usize);
    }
    if let Some(mib) = opt_u64(body, "partition_cache_mib")? {
        opts = opts.partition_cache_mib(mib as usize);
    }
    let mut resumed_from = Value::Null;
    if let Some((ck, provenance)) = job_checkpoint(ctx, Endpoint::Discover, body, &inputs)? {
        opts = opts.checkpoint(ck);
        resumed_from = json!(provenance);
    }

    let out = FastOfd::new(rel, onto).options(opts).run();
    let outcome = JobOutcome {
        incomplete: !out.complete,
        resumed: out.resumed_from_level.is_some(),
        interrupt: out.interrupt,
    };
    let schema = rel.schema();
    let ofds: Vec<Value> = out
        .ofds
        .iter()
        .map(|d| {
            let lhs: Vec<Value> = d.ofd.lhs.iter().map(|a| json!(schema.name(a))).collect();
            json!({
                "lhs": Value::Array(lhs),
                "rhs": schema.name(d.ofd.rhs),
                "support": d.support,
                "support_bits": d.support.to_bits(),
                "level": d.level as u64,
            })
        })
        .collect();
    let (status, interrupt) = status_fields(&outcome);
    let value = json!({
        "endpoint": "discover",
        "status": status,
        "interrupt": interrupt,
        "dataset": inputs.dataset_field(),
        "ofds": Value::Array(ofds),
        "resumed_from_level": match out.resumed_from_level {
            Some(l) => json!(l as u64),
            None => Value::Null,
        },
        "snapshots_written": out.snapshots_written as u64,
        "snapshot_errors": out.snapshot_errors as u64,
        "resumed_from": resumed_from,
    });
    Ok((value, outcome))
}

fn validate(body: &Value, ctx: &JobContext) -> Result<(Value, JobOutcome), BadRequest> {
    let inputs = Inputs::resolve(body, ctx)?;
    let (rel, onto) = inputs.parse()?;
    let (rel, onto) = (rel.as_ref(), onto.as_ref());
    let ofds = parse_ofds(body, rel.schema())?;
    // A catalog version keeps its sense index and antecedent partitions
    // across validates; inline inputs build both per request.
    let validator = match &inputs {
        Inputs::Cataloged(e) => Validator::with_index(rel, onto, e.sense_index()),
        Inputs::Inline { .. } => Validator::new(rel, onto),
    };
    let mut results = Vec::with_capacity(ofds.len());
    let mut all_satisfied = true;
    let mut outcome = JobOutcome::default();
    for ofd in &ofds {
        // One checkpoint per dependency: a validate batch interrupted by
        // drain or disconnect reports the prefix it finished.
        if let Err(i) = ctx.guard.check() {
            outcome.incomplete = true;
            outcome.interrupt = Some(i);
            break;
        }
        let v = match &inputs {
            Inputs::Cataloged(e) => {
                let (partition, hit) = e.partition(ofd.lhs);
                ctx.obs.inc(if hit {
                    "serve.catalog.partition_hit"
                } else {
                    "serve.catalog.partition_miss"
                });
                validator.check_with_partition(ofd, &partition)
            }
            Inputs::Inline { .. } => validator.check(ofd),
        };
        all_satisfied &= v.satisfied();
        results.push(json!({
            "ofd": ofd.display(rel.schema()),
            "satisfied": v.satisfied(),
            "support": v.support(),
            "support_bits": v.support().to_bits(),
            "violating_classes": v.violation_count() as u64,
        }));
    }
    let (status, interrupt) = status_fields(&outcome);
    let value = json!({
        "endpoint": "validate",
        "status": status,
        "interrupt": interrupt,
        "dataset": inputs.dataset_field(),
        "results": Value::Array(results),
        "all_satisfied": all_satisfied,
    });
    Ok((value, outcome))
}

fn clean(body: &Value, ctx: &JobContext) -> Result<(Value, JobOutcome), BadRequest> {
    let inputs = Inputs::resolve(body, ctx)?;
    let (rel, onto) = inputs.parse()?;
    let (rel, onto) = (rel.as_ref(), onto.as_ref());
    let ofds = parse_ofds(body, rel.schema())?;
    let mut config = OfdCleanConfig {
        guard: ctx.guard.clone(),
        obs: ctx.obs.clone(),
        ..OfdCleanConfig::default()
    };
    if let Some(tau) = opt_f64(body, "tau")? {
        config.tau = tau;
    }
    if let Some(beam) = opt_u64(body, "beam")? {
        config.beam = Some(beam as usize);
    }
    let mut resumed_from = Value::Null;
    if let Some((ck, provenance)) = job_checkpoint(ctx, Endpoint::Clean, body, &inputs)? {
        config.checkpoint = Some(ck);
        resumed_from = json!(provenance);
    }

    let result = ofd_clean(rel, onto, &ofds, &config);
    let outcome = JobOutcome {
        incomplete: !result.complete,
        resumed: result.resumed_from_phase.is_some(),
        interrupt: result.interrupt,
    };
    let (status, interrupt) = status_fields(&outcome);
    let value = json!({
        "endpoint": "clean",
        "status": status,
        "interrupt": interrupt,
        "dataset": inputs.dataset_field(),
        "satisfied": result.satisfied,
        "ontology_insertions": result.ontology_dist() as u64,
        "cell_repairs": result.data_dist() as u64,
        "sense_reassignments": result.reassignments as u64,
        "resumed_from_phase": match result.resumed_from_phase {
            Some(p) => json!(p),
            None => Value::Null,
        },
        "snapshots_written": result.snapshots_written as u64,
        "snapshot_errors": result.snapshot_errors as u64,
        "resumed_from": resumed_from,
        "repaired_csv": csv::write_csv(&result.repaired),
    });
    Ok((value, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> JobContext {
        JobContext {
            guard: ExecGuard::unlimited(),
            obs: Obs::disabled(),
            faults: FaultPlan::none(),
            checkpoint_root: None,
            catalog: None,
            sessions: Arc::new(crate::stream::StreamSessions::new()),
            peers: Vec::new(),
            peer_timeouts: crate::peers::PeerTimeouts::default(),
        }
    }

    fn sample_body() -> Value {
        let ds = ofd_datagen::clinical(&ofd_datagen::PresetConfig {
            n_rows: 120,
            n_attrs: 5,
            n_ofds: 2,
            seed: 7,
            ..ofd_datagen::PresetConfig::default()
        });
        json!({
            "csv": csv::write_csv(&ds.clean),
            "ontology": ofd_ontology::write_ontology(&ds.full_ontology),
        })
    }

    #[test]
    fn discover_returns_complete_sigma_with_support_bits() {
        let (v, outcome) = discover(&sample_body(), &ctx()).expect("discover");
        assert!(!outcome.incomplete);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("complete"));
        let ofds = v.get("ofds").and_then(Value::as_array).expect("ofds");
        assert!(!ofds.is_empty(), "clinical preset plants OFDs");
        for o in ofds {
            let bits = o.get("support_bits").and_then(Value::as_u64).expect("bits");
            let support = o.get("support").and_then(Value::as_f64).expect("support");
            assert_eq!(f64::from_bits(bits), support, "bits round-trip the float");
        }
    }

    #[test]
    fn discover_under_a_tripped_guard_reports_incomplete() {
        let mut c = ctx();
        c.guard = ExecGuard::with_max_work(1);
        let (v, outcome) = discover(&sample_body(), &c).expect("discover");
        assert!(outcome.incomplete);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("incomplete"));
        assert!(v.get("interrupt").and_then(Value::as_str).is_some());
    }

    #[test]
    fn validate_checks_each_ofd() {
        let mut body = sample_body();
        if let Value::Object(fields) = &mut body {
            fields.push(("ofds".into(), json!(["CC->CTRY"])));
        }
        match validate(&body, &ctx()) {
            Ok((v, _)) => {
                let results = v.get("results").and_then(Value::as_array).expect("results");
                assert_eq!(results.len(), 1);
                assert!(results[0].get("satisfied").and_then(Value::as_bool).is_some());
            }
            // The preset's attribute names vary with config; a schema miss
            // must come back as a client error, not a panic.
            Err(BadRequest(msg)) => assert!(!msg.is_empty()),
        }
    }

    #[test]
    fn out_of_range_kappa_is_a_bad_request() {
        let with_kappa = |kappa: f64| {
            let mut body = sample_body();
            if let Value::Object(fields) = &mut body {
                fields.push(("kappa".into(), json!(kappa)));
            }
            body
        };
        for kappa in [0.0, -0.1, 1.5] {
            let err = discover(&with_kappa(kappa), &ctx()).expect_err("κ out of range");
            assert_eq!(err.0, "\"kappa\" must be in (0, 1]", "κ = {kappa}");
        }
        assert!(discover(&with_kappa(0.9), &ctx()).is_ok());
    }

    #[test]
    fn missing_csv_is_a_bad_request() {
        let err = discover(&json!({}), &ctx()).expect_err("missing csv");
        assert!(err.0.contains("csv"));
    }

    #[test]
    fn bad_ofd_spec_is_a_bad_request() {
        let mut body = sample_body();
        if let Value::Object(fields) = &mut body {
            fields.push(("ofds".into(), json!(["no-arrow-here"])));
        }
        let err = validate(&body, &ctx()).expect_err("bad spec");
        assert!(err.0.contains("expected"));
    }

    #[test]
    fn job_checkpoint_keys_by_inputs() {
        let mut c = ctx();
        c.checkpoint_root = Some(std::env::temp_dir().join("ofd-serve-ckpt-key-test"));
        let a = json!({"csv": "A,B\n1,2\n"});
        let b = json!({"csv": "A,B\n1,3\n"});
        let dir_of = |endpoint: Endpoint, body: &Value| {
            let inputs = Inputs::resolve(body, &c).expect("inputs");
            job_checkpoint(&c, endpoint, body, &inputs)
                .expect("checkpoint")
                .expect("enabled")
                .0
                .store
                .dir()
                .to_path_buf()
        };
        assert_eq!(
            dir_of(Endpoint::Discover, &a),
            dir_of(Endpoint::Discover, &a),
            "same request, same directory"
        );
        assert_ne!(
            dir_of(Endpoint::Discover, &a),
            dir_of(Endpoint::Discover, &b),
            "different csv, different directory"
        );
        assert_ne!(
            dir_of(Endpoint::Discover, &a),
            dir_of(Endpoint::Clean, &a),
            "different endpoint, different directory"
        );
    }

    #[test]
    fn hybrid_knobs_stay_out_of_the_job_fingerprint() {
        // Resubmitting a job with different pre-filter tuning (or thread
        // count) must land in the same snapshot directory: the knobs are
        // result-neutral, so a retuned retry still resumes the original
        // job's checkpoints.
        let mut c = ctx();
        c.checkpoint_root = Some(std::env::temp_dir().join("ofd-serve-ckpt-hybrid-test"));
        let plain = json!({"csv": "A,B\n1,2\n"});
        let tuned = json!({
            "csv": "A,B\n1,2\n",
            "threads": 4u64,
            "sample_rounds": 5u64,
            "shard_rows": 1000u64,
            "shards": 3u64,
            "partition_cache_mib": 16u64,
        });
        let dir_of = |body: &Value| {
            let inputs = Inputs::resolve(body, &c).expect("inputs");
            job_checkpoint(&c, Endpoint::Discover, body, &inputs)
                .expect("checkpoint")
                .expect("enabled")
                .0
                .store
                .dir()
                .to_path_buf()
        };
        assert_eq!(dir_of(&plain), dir_of(&tuned));
    }

    #[test]
    fn discover_with_hybrid_knobs_matches_default_sigma() {
        let (plain, _) = discover(&sample_body(), &ctx()).expect("discover");
        let mut tuned_body = sample_body();
        if let Value::Object(fields) = &mut tuned_body {
            fields.push(("sample_rounds".into(), json!(3u64)));
            fields.push(("shards".into(), json!(2u64)));
            fields.push(("threads".into(), json!(2u64)));
        }
        let (tuned, _) = discover(&tuned_body, &ctx()).expect("discover");
        assert_eq!(
            plain.get("ofds").and_then(Value::as_array),
            tuned.get("ofds").and_then(Value::as_array),
            "hybrid knobs are result-neutral through the HTTP surface"
        );
    }

    #[test]
    fn dataset_reference_without_a_catalog_is_a_bad_request() {
        let err = discover(&json!({"dataset": "flights"}), &ctx()).expect_err("no catalog");
        assert!(err.0.contains("catalog"), "actual: {}", err.0);
    }

    #[test]
    fn dataset_and_inline_csv_together_are_rejected() {
        let err = discover(&json!({"dataset": "flights", "csv": "A\n1\n"}), &ctx())
            .expect_err("ambiguous inputs");
        assert!(err.0.contains("pick one"), "actual: {}", err.0);
    }

    /// A context whose catalog holds `csv_text` and `onto_text` as
    /// `memo@1`, counting into an enabled [`Obs`].
    fn cataloged(tag: &str, csv_text: &str, onto_text: &str) -> (JobContext, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "ofd-serve-memo-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(dir.join("catalog"), FaultPlan::none(), Obs::disabled());
        catalog.put("memo", csv_text, onto_text).expect("put");
        let mut c = ctx();
        c.obs = Obs::enabled();
        c.catalog = Some(Arc::new(catalog));
        (c, dir)
    }

    /// A dirty clinical instance (so some OFDs fail) and Σ specs over it:
    /// the planted OFDs, then OFDs that reuse their antecedents with other
    /// consequents.
    fn memo_instance() -> (String, String, Vec<String>) {
        let mut ds = ofd_datagen::clinical(&ofd_datagen::PresetConfig {
            n_rows: 400,
            n_attrs: 7,
            n_ofds: 4,
            seed: 5,
            ..ofd_datagen::PresetConfig::default()
        });
        ds.inject_errors(0.05, 5);
        let schema = ds.relation.schema();
        let spec = |lhs: &ofd_core::AttrSet, rhs| {
            let names: Vec<&str> = lhs.iter().map(|a| schema.name(a)).collect();
            format!("{}->{}", names.join(","), schema.name(rhs))
        };
        let mut specs: Vec<String> = ds.ofds.iter().map(|o| spec(&o.lhs, o.rhs)).collect();
        for o in &ds.ofds {
            for a in schema.attrs().filter(|&a| !o.lhs.contains(a) && a != o.rhs).take(2) {
                specs.push(spec(&o.lhs, a));
            }
        }
        (
            csv::write_csv(&ds.relation),
            ofd_ontology::write_ontology(&ds.ontology),
            specs,
        )
    }

    /// Validates `specs` (with `theta` when given) against `memo@1` and
    /// asserts the reply's results equal an uncached `Validator`'s: the
    /// same request shipped inline.
    fn assert_matches_uncached(
        c: &JobContext,
        csv_text: &str,
        onto_text: &str,
        specs: &[String],
        theta: Option<u64>,
    ) {
        let with = |mut body: Value| {
            if let Value::Object(fields) = &mut body {
                fields.push(("ofds".into(), json!(specs.to_vec())));
                if let Some(t) = theta {
                    fields.push(("theta".into(), json!(t)));
                }
            }
            body
        };
        let (cached, _) = validate(&with(json!({"dataset": "memo@1"})), c).expect("cataloged");
        let inline_body = with(json!({"csv": csv_text, "ontology": onto_text}));
        let (inline, _) = validate(&inline_body, &ctx()).expect("inline");
        for key in ["status", "results", "all_satisfied"] {
            assert_eq!(cached.get(key), inline.get(key), "{key} of {specs:?} at θ {theta:?}");
        }
        assert_eq!(cached.get("dataset").and_then(Value::as_str), Some("memo@1"));
    }

    fn partition_counts(c: &JobContext) -> (Option<u64>, Option<u64>) {
        let m = c.obs.snapshot();
        (
            m.counter("serve.catalog.partition_hit"),
            m.counter("serve.catalog.partition_miss"),
        )
    }

    #[test]
    fn cataloged_validates_match_an_uncached_validator() {
        let (csv_text, onto_text, specs) = memo_instance();
        let (planted, shared) = specs.split_at(4);
        let (c, dir) = cataloged("match", &csv_text, &onto_text);
        // Repeated requests: the first fills the memo, the rest read it.
        for _ in 0..3 {
            assert_matches_uncached(&c, &csv_text, &onto_text, planted, None);
        }
        // A different Σ over the same antecedents, then θ (inheritance)
        // OFDs, whose partitions are the synonym ones.
        assert_matches_uncached(&c, &csv_text, &onto_text, shared, None);
        for theta in [0, 1, 2] {
            assert_matches_uncached(&c, &csv_text, &onto_text, &specs, Some(theta));
        }
        let antecedents: std::collections::HashSet<&str> =
            specs.iter().map(|s| s.split_once("->").expect("spec").0).collect();
        let lookups = (3 * planted.len() + shared.len() + 3 * specs.len()) as u64;
        let misses = antecedents.len() as u64;
        assert_eq!(partition_counts(&c), (Some(lookups - misses), Some(misses)));
        // The counts are a function of the request sequence alone.
        let (again, dir2) = cataloged("match-again", &csv_text, &onto_text);
        for _ in 0..3 {
            assert_matches_uncached(&again, &csv_text, &onto_text, planted, None);
        }
        assert_matches_uncached(&again, &csv_text, &onto_text, shared, None);
        for theta in [0, 1, 2] {
            assert_matches_uncached(&again, &csv_text, &onto_text, &specs, Some(theta));
        }
        assert_eq!(partition_counts(&again), partition_counts(&c));
        // Inline validates never touch the memo's counters.
        let inline = json!({"csv": &csv_text, "ontology": &onto_text, "ofds": planted.to_vec()});
        validate(&inline, &again).expect("inline");
        assert_eq!(partition_counts(&again), partition_counts(&c));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn concurrent_validates_of_one_entry_match_an_uncached_validator() {
        let (csv_text, onto_text, specs) = memo_instance();
        let (c, dir) = cataloged("concurrent", &csv_text, &onto_text);
        let sigmas: Vec<&[String]> = vec![&specs[..4], &specs[4..], &specs[2..7], &specs];
        std::thread::scope(|scope| {
            for (i, sigma) in sigmas.iter().enumerate() {
                let (c, csv_text, onto_text) = (&c, &csv_text, &onto_text);
                scope.spawn(move || {
                    for round in 0..4 {
                        let theta = (round % 2 == 1).then_some(i as u64 % 2);
                        assert_matches_uncached(c, csv_text, onto_text, sigma, theta);
                    }
                });
            }
        });
        let (hits, misses) = partition_counts(&c);
        let lookups: usize = sigmas.iter().map(|s| 4 * s.len()).sum();
        assert_eq!(hits.unwrap_or(0) + misses.unwrap_or(0), lookups as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_whose_budget_forces_eviction_replies_the_same() {
        // 2 columns × 200 rows: a 1,600-byte budget, and Π*_A and Π*_B
        // hold every row each, so the two antecedents evict each other.
        let mut text = String::from("A,B\n");
        for i in 0..200 {
            text.push_str(&format!("a{},b{}\n", i % 10, i % 7));
        }
        let (c, dir) = cataloged("evict", &text, "");
        let entry = c.catalog.as_ref().expect("catalog").resolve("memo@1").expect("entry");
        let budget = crate::catalog::column_bytes(&entry.relation);
        assert_eq!(budget, 1600);
        for _ in 0..3 {
            for spec in ["A->B", "B->A"] {
                assert_matches_uncached(&c, &text, "", &[spec.to_owned()], None);
            }
            let both = ["A->B".to_owned(), "B->A".to_owned()];
            assert_matches_uncached(&c, &text, "", &both, Some(1));
        }
        let stats = entry.partition_stats();
        assert!(stats.evicted_bytes > 0, "{stats:?}");
        assert!(stats.peak_resident_bytes <= budget, "{stats:?}");
        assert_eq!(partition_counts(&c), (None, Some(12)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cataloged_and_inline_requests_share_a_checkpoint_directory() {
        let tmp = std::env::temp_dir().join("ofd-serve-ckpt-adopt-test");
        let catalog = Catalog::open(tmp.join("catalog"), FaultPlan::none(), Obs::disabled());
        let csv_text = "A,B\n1,2\n3,4\n";
        catalog.put("shared", csv_text, "").expect("put");
        let mut c = ctx();
        c.checkpoint_root = Some(tmp.clone());
        c.catalog = Some(Arc::new(catalog));
        let dir_of = |body: &Value| {
            let inputs = Inputs::resolve(body, &c).expect("inputs");
            job_checkpoint(&c, Endpoint::Discover, body, &inputs)
                .expect("checkpoint")
                .expect("enabled")
                .0
                .store
                .dir()
                .to_path_buf()
        };
        assert_eq!(
            dir_of(&json!({"csv": csv_text})),
            dir_of(&json!({"dataset": "shared@1"})),
            "inline and by-reference requests with identical content adopt the same snapshots"
        );
        // Directory names are persisted: a restarted or adopting replica
        // finds a job's snapshots only under the name earlier releases
        // derived, so the key layout is pinned as a literal.
        assert_eq!(
            dir_of(&json!({"dataset": "shared@1"})).file_name(),
            Some(std::ffi::OsStr::new("job-41b80dc29d321467"))
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
