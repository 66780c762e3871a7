//! Seeded, deterministic fault injection for crash-safety testing.
//!
//! A [`FaultPlan`] generalizes the guard's single test-only fail point into
//! a schedule of injectable faults, shared (cheaply, via `Arc`) between the
//! caller, the engines and the snapshot store:
//!
//! * **snapshot-io** — a snapshot write returns an I/O error before any
//!   byte reaches disk (the atomic writer guarantees the previous snapshot
//!   survives);
//! * **snapshot-torn** — a snapshot write crashes mid-write, leaving a
//!   truncated file at the final path (exercising the loader's checksum
//!   validation; this simulates a *non-atomic* writer dying, the worst
//!   case the store must tolerate);
//! * **panic** — a verification worker panics mid-candidate
//!   ([`FaultPlan::worker_panic`] fires inside the engine's
//!   `catch_unwind` region and surfaces as
//!   [`Interrupt::WorkerPanic`](crate::Interrupt::WorkerPanic));
//! * **delay** — a worker sleeps briefly, perturbing thread interleaving.
//!
//! The **network sites** extend the same machinery to the TCP paths of
//! the multi-host fleet. They are probed by the in-process chaos proxy
//! (`ofd-serve`'s `netfault` module), once per accepted connection, in
//! severity order — the first site to fire decides the connection's
//! toxic:
//!
//! * **net-refuse** — the connection is closed before any byte is
//!   relayed (a refused/reset dial);
//! * **net-blackhole** — the connection is accepted and the request
//!   read, but no reply byte is ever written (the client's read
//!   timeout is the only way out);
//! * **net-reset** — the upstream reply is relayed up to a point
//!   *inside the body*, then the connection closes (a torn reply);
//! * **net-partial** — a prefix of the reply is written, then the
//!   connection stalls open without closing;
//! * **net-delay** — the whole exchange is relayed intact after a
//!   `delay-ms` sleep.
//!
//! Each site fires either **scheduled** (`site@N`: exactly the `N`-th
//! occurrence, 1-based) or **probabilistic** (`site%P`: each occurrence
//! independently with probability `P`, decided by a hash of
//! `(seed, site, occurrence)`). Both are deterministic functions of the
//! seed and the per-site occurrence counter, so a schedule replays
//! identically across runs — occurrence counts, not thread identity,
//! decide what fires.
//!
//! Plans parse from a compact spec (CLI `--faults` / `FASTOFD_FAULTS`):
//!
//! ```text
//! seed=42,snapshot-io%0.2,panic@17,delay%0.05,delay-ms=2
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Payload of an injected worker panic; the filtering panic hook installed
/// by [`silence_injected_panics`] recognizes it.
pub const INJECTED_PANIC: &str = "injected worker panic (fault plan)";

/// The injectable fault sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Snapshot write fails cleanly (I/O error, nothing written).
    SnapshotIo,
    /// Snapshot write dies mid-write (truncated file at the final path).
    SnapshotTorn,
    /// Verification worker panics.
    WorkerPanic,
    /// Worker sleeps for the plan's delay duration.
    Delay,
    /// Proxy relays the connection intact after a `delay-ms` sleep.
    NetDelay,
    /// Proxy closes the connection mid-reply-body (torn reply).
    NetReset,
    /// Proxy writes a prefix of the reply, then stalls without closing.
    NetPartial,
    /// Proxy accepts and reads the request but never replies.
    NetBlackhole,
    /// Proxy closes the connection before relaying anything.
    NetRefuse,
}

const N_SITES: usize = 9;

/// The network fault sites, in the severity order the proxy probes them.
pub const NET_SITES: [FaultSite; 5] = [
    FaultSite::NetRefuse,
    FaultSite::NetBlackhole,
    FaultSite::NetReset,
    FaultSite::NetPartial,
    FaultSite::NetDelay,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::SnapshotIo => 0,
            FaultSite::SnapshotTorn => 1,
            FaultSite::WorkerPanic => 2,
            FaultSite::Delay => 3,
            FaultSite::NetDelay => 4,
            FaultSite::NetReset => 5,
            FaultSite::NetPartial => 6,
            FaultSite::NetBlackhole => 7,
            FaultSite::NetRefuse => 8,
        }
    }

    /// The spec-file name of the site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SnapshotIo => "snapshot-io",
            FaultSite::SnapshotTorn => "snapshot-torn",
            FaultSite::WorkerPanic => "panic",
            FaultSite::Delay => "delay",
            FaultSite::NetDelay => "net-delay",
            FaultSite::NetReset => "net-reset",
            FaultSite::NetPartial => "net-partial",
            FaultSite::NetBlackhole => "net-blackhole",
            FaultSite::NetRefuse => "net-refuse",
        }
    }
}

/// The toxic a chaos proxy applies to one connection, decided by
/// [`FaultPlan::net_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Relay intact after the plan's delay.
    Delay,
    /// Relay part of the reply body, then close.
    Reset,
    /// Write a prefix of the reply, then stall open.
    Partial,
    /// Never write a reply byte.
    Blackhole,
    /// Close before relaying anything.
    Refuse,
}

impl NetFault {
    /// The fault site this toxic was rolled from.
    pub fn site(self) -> FaultSite {
        match self {
            NetFault::Delay => FaultSite::NetDelay,
            NetFault::Reset => FaultSite::NetReset,
            NetFault::Partial => FaultSite::NetPartial,
            NetFault::Blackhole => FaultSite::NetBlackhole,
            NetFault::Refuse => FaultSite::NetRefuse,
        }
    }

    /// Short label for schedules and logs (the site name without the
    /// `net-` prefix).
    pub fn label(self) -> &'static str {
        match self {
            NetFault::Delay => "delay",
            NetFault::Reset => "reset",
            NetFault::Partial => "partial",
            NetFault::Blackhole => "blackhole",
            NetFault::Refuse => "refuse",
        }
    }
}

/// How one snapshot write should fail, per the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFault {
    /// Return an I/O error without writing.
    Error,
    /// Write a truncated file at the final path, then report the error.
    Torn,
}

#[derive(Debug, Default)]
struct SiteState {
    /// Scheduled firing: the 1-based occurrence that fires (0 = off).
    at: u64,
    /// Probabilistic firing threshold: occurrence fires when
    /// `hash(seed, site, n) < prob_bits` (0 = off).
    prob_bits: u64,
    /// Occurrences observed so far.
    hits: AtomicU64,
    /// Occurrences that fired.
    fired: AtomicU64,
}

#[derive(Debug)]
struct FaultState {
    seed: u64,
    delay: Duration,
    sites: [SiteState; N_SITES],
}

/// A cheap, cloneable fault-injection plan; the default plan injects
/// nothing and costs one pointer check per probe.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    state: Option<Arc<FaultState>>,
}

/// SplitMix64: a well-mixed deterministic hash of the (seed, site,
/// occurrence) triple.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: never fires, near-zero probe cost.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan can fire at all.
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    /// Parses a fault spec: comma-separated entries of `seed=N`,
    /// `delay-ms=N`, `<site>@N` (scheduled) or `<site>%P` (probabilistic)
    /// where `<site>` is one of `snapshot-io`, `snapshot-torn`, `panic`,
    /// `delay`, `net-delay`, `net-reset`, `net-partial`, `net-blackhole`,
    /// `net-refuse`. An empty spec yields the inert plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(FaultPlan::none());
        }
        let mut seed: u64 = 0;
        let mut delay_ms: u64 = 1;
        let mut sites: [SiteState; N_SITES] = Default::default();
        let mut any = false;
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(v) = entry.strip_prefix("seed=") {
                seed = v
                    .parse()
                    .map_err(|_| FaultSpecError::bad(entry, "seed expects an integer"))?;
            } else if let Some(v) = entry.strip_prefix("delay-ms=") {
                delay_ms = v
                    .parse()
                    .map_err(|_| FaultSpecError::bad(entry, "delay-ms expects an integer"))?;
            } else if let Some((name, n)) = entry.split_once('@') {
                let site = site_by_name(name)
                    .ok_or_else(|| FaultSpecError::bad(entry, "unknown fault site"))?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| FaultSpecError::bad(entry, "@ expects an occurrence number"))?;
                if n == 0 {
                    return Err(FaultSpecError::bad(entry, "occurrences are 1-based"));
                }
                sites[site.index()].at = n;
                any = true;
            } else if let Some((name, p)) = entry.split_once('%') {
                let site = site_by_name(name)
                    .ok_or_else(|| FaultSpecError::bad(entry, "unknown fault site"))?;
                let p: f64 = p
                    .parse()
                    .map_err(|_| FaultSpecError::bad(entry, "% expects a probability"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(FaultSpecError::bad(entry, "probability must be in [0, 1]"));
                }
                sites[site.index()].prob_bits = (p * u64::MAX as f64) as u64;
                any = true;
            } else {
                return Err(FaultSpecError::bad(entry, "expected key=value, site@N or site%P"));
            }
        }
        if !any {
            return Ok(FaultPlan::none());
        }
        Ok(FaultPlan {
            state: Some(Arc::new(FaultState {
                seed,
                delay: Duration::from_millis(delay_ms),
                sites,
            })),
        })
    }

    /// A plan with exactly one scheduled fault: `site` fires at its `n`-th
    /// occurrence (1-based).
    pub fn scheduled(site: FaultSite, n: u64) -> FaultPlan {
        assert!(n >= 1, "occurrences are 1-based");
        let mut sites: [SiteState; N_SITES] = Default::default();
        sites[site.index()].at = n;
        FaultPlan {
            state: Some(Arc::new(FaultState {
                seed: 0,
                delay: Duration::from_millis(1),
                sites,
            })),
        }
    }

    /// Rolls one occurrence of `site`; `true` means the fault fires.
    fn roll(&self, site: FaultSite) -> bool {
        let Some(state) = &self.state else {
            return false;
        };
        let s = &state.sites[site.index()];
        if s.at == 0 && s.prob_bits == 0 {
            return false;
        }
        let n = s.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = (s.at != 0 && n == s.at)
            || (s.prob_bits != 0
                && mix64(state.seed ^ ((site.index() as u64) << 56) ^ n) < s.prob_bits);
        if fire {
            s.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Probes the snapshot-write sites; `Some` means this write must fail
    /// in the indicated way. Torn writes take precedence (they subsume the
    /// clean error).
    pub fn snapshot_write_fault(&self) -> Option<SnapshotFault> {
        if self.roll(FaultSite::SnapshotTorn) {
            return Some(SnapshotFault::Torn);
        }
        if self.roll(FaultSite::SnapshotIo) {
            return Some(SnapshotFault::Error);
        }
        None
    }

    /// Probes the worker-panic site; panics with [`INJECTED_PANIC`] when it
    /// fires. Engines call this *inside* their `catch_unwind` region so an
    /// injected panic travels the same path a genuine worker bug would.
    pub fn worker_panic(&self) {
        if self.roll(FaultSite::WorkerPanic) {
            panic!("{INJECTED_PANIC}");
        }
    }

    /// Probes the delay site; sleeps for the plan's delay when it fires.
    pub fn delay(&self) {
        if self.roll(FaultSite::Delay) {
            if let Some(state) = &self.state {
                std::thread::sleep(state.delay);
            }
        }
    }

    /// Probes the network sites, once per accepted connection: rolls each
    /// armed site in severity order ([`NET_SITES`] — refuse, blackhole,
    /// reset, partial, delay) and returns the first toxic that fires, or
    /// `None` for a clean relay. Short-circuiting keeps the per-site
    /// `fired` counters equal to the toxics a proxy actually *applied*,
    /// so `serve.net.*` counter attribution is exact.
    pub fn net_fault(&self) -> Option<NetFault> {
        self.state.as_ref()?;
        for site in NET_SITES {
            if self.roll(site) {
                return Some(match site {
                    FaultSite::NetDelay => NetFault::Delay,
                    FaultSite::NetReset => NetFault::Reset,
                    FaultSite::NetPartial => NetFault::Partial,
                    FaultSite::NetBlackhole => NetFault::Blackhole,
                    _ => NetFault::Refuse,
                });
            }
        }
        None
    }

    /// The plan's configured delay (`delay-ms=`), used by the `delay`
    /// worker site and the `net-delay` proxy toxic alike.
    pub fn delay_duration(&self) -> Duration {
        self.state
            .as_ref()
            .map(|s| s.delay)
            .unwrap_or(Duration::from_millis(1))
    }

    /// Faults fired so far at `site`.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.state
            .as_ref()
            .map(|s| s.sites[site.index()].fired.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        [
            FaultSite::SnapshotIo,
            FaultSite::SnapshotTorn,
            FaultSite::WorkerPanic,
            FaultSite::Delay,
            FaultSite::NetDelay,
            FaultSite::NetReset,
            FaultSite::NetPartial,
            FaultSite::NetBlackhole,
            FaultSite::NetRefuse,
        ]
        .iter()
        .map(|&s| self.fired(s))
        .sum()
    }

    /// Faults fired across the network sites only — what a chaos proxy
    /// injected, for reconciling against the `serve.net.*` counters.
    pub fn net_fired(&self) -> u64 {
        NET_SITES.iter().map(|&s| self.fired(s)).sum()
    }
}

fn site_by_name(name: &str) -> Option<FaultSite> {
    match name.trim() {
        "snapshot-io" => Some(FaultSite::SnapshotIo),
        "snapshot-torn" => Some(FaultSite::SnapshotTorn),
        "panic" => Some(FaultSite::WorkerPanic),
        "delay" => Some(FaultSite::Delay),
        "net-delay" => Some(FaultSite::NetDelay),
        "net-reset" => Some(FaultSite::NetReset),
        "net-partial" => Some(FaultSite::NetPartial),
        "net-blackhole" => Some(FaultSite::NetBlackhole),
        "net-refuse" => Some(FaultSite::NetRefuse),
        _ => None,
    }
}

/// A malformed `--faults` spec entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The offending entry.
    pub entry: String,
    /// What was wrong with it.
    pub message: &'static str,
}

impl FaultSpecError {
    fn bad(entry: &str, message: &'static str) -> FaultSpecError {
        FaultSpecError {
            entry: entry.to_owned(),
            message,
        }
    }
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec entry {:?}: {}", self.entry, self.message)
    }
}

impl std::error::Error for FaultSpecError {}

/// Installs a process-wide panic hook that suppresses the backtrace spam of
/// *injected* worker panics (payload == [`INJECTED_PANIC`]) while passing
/// every genuine panic through to the previously installed hook.
/// Idempotent; used by the chaos probe and the fault-injection tests.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| *s == INJECTED_PANIC)
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s == INJECTED_PANIC);
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        for _ in 0..1000 {
            assert!(p.snapshot_write_fault().is_none());
            p.worker_panic(); // must not panic
            p.delay();
        }
        assert_eq!(p.total_fired(), 0);
    }

    #[test]
    fn scheduled_fault_fires_exactly_once_at_n() {
        let p = FaultPlan::scheduled(FaultSite::SnapshotIo, 3);
        assert_eq!(p.snapshot_write_fault(), None);
        assert_eq!(p.snapshot_write_fault(), None);
        assert_eq!(p.snapshot_write_fault(), Some(SnapshotFault::Error));
        assert_eq!(p.snapshot_write_fault(), None);
        assert_eq!(p.fired(FaultSite::SnapshotIo), 1);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_per_seed() {
        let fires = |seed: u64| -> Vec<bool> {
            let p = FaultPlan::parse(&format!("seed={seed},snapshot-io%0.5")).unwrap();
            (0..64).map(|_| p.snapshot_write_fault().is_some()).collect()
        };
        assert_eq!(fires(7), fires(7), "same seed, same schedule");
        assert_ne!(fires(7), fires(8), "different seed, different schedule");
        let count = fires(7).iter().filter(|&&b| b).count();
        assert!((8..=56).contains(&count), "p=0.5 fires roughly half: {count}");
    }

    #[test]
    fn parse_round_trips_every_site() {
        let p = FaultPlan::parse("seed=9,snapshot-io@1,snapshot-torn@2,panic@99,delay%1.0,delay-ms=0")
            .unwrap();
        assert!(p.is_active());
        assert_eq!(p.snapshot_write_fault(), Some(SnapshotFault::Error));
        // Occurrence 2 of the torn site (occurrence counters are per-site;
        // the first call above consumed occurrence 1 of both).
        assert_eq!(p.snapshot_write_fault(), Some(SnapshotFault::Torn));
        p.delay(); // p=1, fires and sleeps 0ms
        assert_eq!(p.fired(FaultSite::Delay), 1);
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("unknown@3").is_err());
        assert!(FaultPlan::parse("panic@0").is_err());
        assert!(FaultPlan::parse("panic%1.5").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(!FaultPlan::parse("").unwrap().is_active());
        assert!(!FaultPlan::parse("seed=3").unwrap().is_active());
    }

    #[test]
    fn injected_panic_is_catchable() {
        silence_injected_panics();
        let p = FaultPlan::scheduled(FaultSite::WorkerPanic, 1);
        let caught = std::panic::catch_unwind(|| p.worker_panic());
        assert!(caught.is_err());
        assert_eq!(p.fired(FaultSite::WorkerPanic), 1);
    }

    #[test]
    fn net_sites_parse_scheduled_and_probabilistic_forms() {
        // Every net site round-trips through the spec grammar in both
        // the scheduled (@N) and probabilistic (%P) forms.
        for site in NET_SITES {
            let p = FaultPlan::parse(&format!("{}@1", site.name())).unwrap();
            assert!(p.is_active(), "{} @N parses", site.name());
            let toxic = p.net_fault().expect("first occurrence fires");
            assert_eq!(toxic.site(), site);
            assert_eq!(p.net_fault(), None, "scheduled site fires exactly once");
            assert_eq!(p.fired(site), 1);

            let p = FaultPlan::parse(&format!("seed=5,{}%1.0", site.name())).unwrap();
            assert_eq!(p.net_fault().map(NetFault::site), Some(site), "{} %P parses", site.name());
        }
        // All five in one spec, each scheduled at its own occurrence 1.
        // Short-circuit probing means a site's occurrence counter only
        // advances when no more-severe site fired, so the five toxics
        // cascade out in severity order, one per connection.
        let p = FaultPlan::parse(
            "seed=1,net-refuse@1,net-blackhole@1,net-reset@1,net-partial@1,net-delay@1",
        )
        .unwrap();
        assert_eq!(p.net_fault(), Some(NetFault::Refuse));
        assert_eq!(p.net_fault(), Some(NetFault::Blackhole));
        assert_eq!(p.net_fault(), Some(NetFault::Reset));
        assert_eq!(p.net_fault(), Some(NetFault::Partial));
        assert_eq!(p.net_fault(), Some(NetFault::Delay));
        assert_eq!(p.net_fault(), None);
        assert_eq!(p.net_fired(), 5);
        assert_eq!(p.total_fired(), 5);
    }

    #[test]
    fn net_sites_reject_unknown_and_malformed_entries() {
        assert!(FaultPlan::parse("net-bogus@1").is_err(), "unknown net site");
        assert!(FaultPlan::parse("net-reset@0").is_err(), "occurrences are 1-based");
        assert!(FaultPlan::parse("net-delay%2.0").is_err(), "probability out of range");
        assert!(FaultPlan::parse("net-blackhole").is_err(), "missing @N / %P form");
    }

    #[test]
    fn same_seed_replays_the_same_toxic_schedule() {
        let spec = "seed=42,net-delay%0.3,net-reset%0.2,net-blackhole%0.1,net-refuse%0.1";
        let schedule = |spec: &str| -> Vec<Option<NetFault>> {
            let p = FaultPlan::parse(spec).unwrap();
            (0..128).map(|_| p.net_fault()).collect()
        };
        assert_eq!(schedule(spec), schedule(spec), "same seed, same schedule");
        assert_ne!(
            schedule(spec),
            schedule("seed=43,net-delay%0.3,net-reset%0.2,net-blackhole%0.1,net-refuse%0.1"),
            "different seed, different schedule"
        );
        let fired = schedule(spec).iter().filter(|t| t.is_some()).count();
        assert!(fired > 10, "the mixed spec actually injects: {fired}");
    }

    #[test]
    fn clones_share_occurrence_counters() {
        let p = FaultPlan::scheduled(FaultSite::SnapshotIo, 2);
        let q = p.clone();
        assert_eq!(p.snapshot_write_fault(), None);
        assert_eq!(q.snapshot_write_fault(), Some(SnapshotFault::Error));
    }

    /// `FaultPlan::parse` is total: arbitrary text and edits of valid
    /// specs parse or return a typed error.
    #[test]
    fn parse_is_total() {
        use proptest::prelude::*;
        let valid = [
            "seed=42,delay%1.0,delay-ms=1",
            "seed=7,snapshot-io%0.2,snapshot-torn%0.15,delay%1.0,delay-ms=1",
            "seed=3,net-delay%0.12,net-reset%0.08,net-partial%0.05,net-blackhole%0.03,net-refuse%0.08",
            "panic@3,snapshot-io@1",
        ];
        // Spec punctuation and digits are drawn one time in two.
        let ch = || {
            (0u16..256).prop_map(|x| match x {
                0..=127 => char::from_u32(u32::from(x)).unwrap_or('?'),
                _ => "seed=,%@.-delay0123456789eE+-"[usize::from(x % 29)..]
                    .chars()
                    .next()
                    .unwrap(),
            })
        };
        proptest!(ProptestConfig::with_cases(512), |(
            raw in prop::collection::vec(ch(), 0..60),
            pick in 0usize..4,
            ops in prop::collection::vec((0u8..3, 0usize..256, ch()), 1..6),
        )| {
            let mut edited: Vec<char> = valid[pick].chars().collect();
            for &(op, at, c) in &ops {
                let at = at % (edited.len() + 1);
                match op {
                    0 if at < edited.len() => edited[at] = c,
                    1 => edited.insert(at, c),
                    _ if at < edited.len() => {
                        edited.remove(at);
                    }
                    _ => {}
                }
            }
            for spec in [raw.iter().collect::<String>(), edited.iter().collect()] {
                match FaultPlan::parse(&spec) {
                    Ok(plan) => {
                        let _ = plan.snapshot_write_fault();
                    }
                    Err(e) => prop_assert!(!e.to_string().is_empty()),
                }
            }
        });
    }
}
