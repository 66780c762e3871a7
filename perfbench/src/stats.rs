//! The benchmark's own statistics: percentiles, the tail rule, failure
//! tallies, and the two load loops (closed and open).

use std::time::{Duration, Instant};

/// A tail percentile must leave at least this many samples beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Fewest samples a run may hold: with fewer, the tail (10 beyond) would sit
/// below p80 and say little more than the median does.
pub const MIN_SAMPLES: usize = 50;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail of a sample set: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, `100 · (n − 10) / n`.
    pub percentile: f64,
    /// Samples strictly beyond it (always [`TAIL_BEYOND`]).
    pub beyond: usize,
}

/// Picks the tail of an ascending slice; `None` when there are too few
/// samples to leave [`TAIL_BEYOND`] beyond any of them.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    Some(Tail {
        value: sorted[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        beyond: TAIL_BEYOND,
    })
}

/// Median and tail of one latency set (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: Tail,
}

impl Summary {
    /// `<label>: samples=… p50=… tail=p… …`, the report line of one set.
    pub fn line(&self, label: &str) -> String {
        format!(
            "{label}: samples={} p50={:.3} ms tail=p{:.2} {:.3} ms ({} samples beyond)",
            self.n, self.p50, self.tail.percentile, self.tail.value, self.tail.beyond
        )
    }
}

/// Summarises latencies; `None` when there are too few for a tail.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        tail: tail(&sorted)?,
        p50: quantile(&sorted, 0.5),
    })
}

/// The quantile of each input's latencies read as its cost on a quiet core.
pub const QUIET_Q: f64 = 0.05;

/// Fewest ops an input needs before its [`QUIET_Q`] latency is read.
pub const QUIET_MIN_OPS: usize = 20;

/// What the run's ops cost on a quiet core. The recording host shares its
/// cores with other tenants: the same op runs 1.3–1.8× slower while a
/// neighbour is busy, the busy spells last from under a second to minutes,
/// and their share of a run moved between ≈10 % and ≈90 % from minute to
/// minute, flipping a run's median between the two speeds. The fastest
/// twentieth of the ops on each input read the program's own speed
/// whenever the run holds a few quiet seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Quiet {
    /// Median over the inputs of each input's quiet cost, every input
    /// counted once (ms). With two inputs it is their mean, so on the serve
    /// workload reads and writes weigh the same.
    pub p50: f64,
    /// Ops per second of busy time over the run's op mix, each op counted
    /// at its input's quiet cost.
    pub ops_per_s: f64,
    /// Each input's [`QUIET_Q`] latency (ms), by slot.
    pub costs: Vec<f64>,
}

/// Quiet-core statistics of latencies tagged with the input (`slot`) each
/// op ran on. `None` when some input has fewer than [`QUIET_MIN_OPS`] ops.
pub fn quiet(latencies_ms: &[f64], slots: &[usize]) -> Option<Quiet> {
    let n_slots = slots.iter().max()? + 1;
    let mut per_slot = vec![Vec::new(); n_slots];
    for (&ms, &slot) in latencies_ms.iter().zip(slots) {
        per_slot[slot].push(ms);
    }
    let mut costs = Vec::with_capacity(n_slots);
    let mut busy_ms = 0.0;
    for mut v in per_slot {
        if v.len() < QUIET_MIN_OPS {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let cost = quantile(&v, QUIET_Q);
        busy_ms += cost * v.len() as f64;
        costs.push(cost);
    }
    Some(Quiet {
        p50: median(&costs),
        ops_per_s: 1e3 * latencies_ms.len() as f64 / busy_ms,
        costs,
    })
}

/// Median of arbitrary values (NaN-free).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// How one attempted op ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Ok,
    /// The program answered, but not with the expected output.
    WrongOutput(String),
    /// Load-shed (HTTP 429).
    Shed,
    /// Refused outright (HTTP 503: draining or an open breaker).
    Refused,
    /// A sound but incomplete partial result.
    Incomplete,
    /// Anything else: a transport error or an unexpected status.
    Error(String),
}

/// Attempted and failed ops, by failure kind.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub wrong_output: u64,
    pub shed: u64,
    pub refused: u64,
    pub incomplete: u64,
    pub errors: u64,
    /// The first failure message seen, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        let (slot, what) = match outcome {
            Outcome::Ok => return,
            Outcome::WrongOutput(m) => (&mut self.wrong_output, format!("wrong output: {m}")),
            Outcome::Shed => (&mut self.shed, "shed".to_string()),
            Outcome::Refused => (&mut self.refused, "refused".to_string()),
            Outcome::Incomplete => (&mut self.incomplete, "incomplete".to_string()),
            Outcome::Error(m) => (&mut self.errors, format!("error: {m}")),
        };
        *slot += 1;
        self.first_failure.get_or_insert(what);
    }

    pub fn failed(&self) -> u64 {
        self.wrong_output + self.shed + self.refused + self.incomplete + self.errors
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.wrong_output += other.wrong_output;
        self.shed += other.shed;
        self.refused += other.refused;
        self.incomplete += other.incomplete;
        self.errors += other.errors;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure.clone();
        }
    }
}

/// Latencies of successful ops plus the tally of all of them.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub latencies_ms: Vec<f64>,
    /// The input each successful op ran on: op `i` runs on `i % period`.
    pub slots: Vec<usize>,
    pub tally: Tally,
    pub elapsed: Duration,
}

impl LoopResult {
    /// Successful ops per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.elapsed.as_secs_f64()
    }
}

/// One caller issuing op `i` as soon as op `i − 1` returns, until `budget`
/// has elapsed. The ops cycle through `period` inputs. After each
/// successful op, `between(input, latency_ms)` runs; its time counts
/// neither toward the budget nor in the loop's elapsed time.
pub fn closed_loop(
    budget: Duration,
    period: usize,
    mut op: impl FnMut(usize) -> Outcome,
    mut between: impl FnMut(usize, f64),
) -> LoopResult {
    let mut out = LoopResult::default();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut i = 0;
    while start.elapsed() - paused < budget {
        let t = Instant::now();
        let outcome = op(i);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if outcome == Outcome::Ok {
            out.latencies_ms.push(ms);
            out.slots.push(i % period);
            let p = Instant::now();
            between(i % period, ms);
            paused += p.elapsed();
        }
        out.tally.record(&outcome);
        i += 1;
    }
    out.elapsed = start.elapsed() - paused;
    out
}

/// An op within this factor of its input's fastest latency so far marks
/// a quiet moment of the host.
pub const QUIET_SLACK: f64 = 1.1;

/// Picks the quiet moments at which a closed loop pauses for a set-up:
/// right after an op that ran within [`QUIET_SLACK`] of its input's fastest
/// so far, at most one per `spacing`, `left` in all. Set-ups taken back to
/// back read the share of the run the host was busy, which moved `setup_s`
/// by a third between identical ten-run sets; taken at quiet moments they
/// read the program's own speed, as the quiet op costs do.
pub struct QuietMoments {
    best: Vec<f64>,
    left: usize,
    spacing: Duration,
    last: Instant,
}

impl QuietMoments {
    /// `count` moments spread over a loop of `budget`, which starts now.
    pub fn new(period: usize, count: usize, budget: Duration) -> QuietMoments {
        QuietMoments {
            best: vec![f64::INFINITY; period],
            left: count,
            spacing: budget / (count as u32 + 1),
            last: Instant::now(),
        }
    }

    /// Records an op's latency without taking a moment (warm-up ops).
    pub fn note(&mut self, input: usize, ms: f64) {
        self.best[input] = self.best[input].min(ms);
    }

    /// Records an op's latency; true when a set-up should run now. The
    /// spacing counts from when the previous set-up ended ([`Self::done`]).
    pub fn after(&mut self, input: usize, ms: f64) -> bool {
        self.note(input, ms);
        if self.left == 0
            || self.last.elapsed() < self.spacing
            || ms > QUIET_SLACK * self.best[input]
        {
            return false;
        }
        self.left -= 1;
        true
    }

    /// Marks the end of a set-up taken at a moment.
    pub fn done(&mut self) {
        self.last = Instant::now();
    }

    /// Moments not taken yet.
    pub fn left(&self) -> usize {
        self.left
    }
}

/// Timing of one open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Completion minus the *intended* send time.
    pub latency_ms: f64,
    /// Actual minus intended send time: how late the generator ran.
    pub late_ms: f64,
}

/// Sends request `k` (one sender, blocking) at `start + schedule[k]`, or at
/// once if the previous reply came back after that. Latency counts from the
/// intended send time, so a stalled reply inflates every request queued
/// behind it instead of silently delaying them (no coordinated omission).
pub fn open_loop<T>(
    start: Instant,
    schedule: &[Duration],
    mut send: impl FnMut(usize) -> T,
) -> Vec<(Timed, T)> {
    let mut out = Vec::with_capacity(schedule.len());
    for (k, offset) in schedule.iter().enumerate() {
        let intended = start + *offset;
        let now = Instant::now();
        if now < intended {
            std::thread::sleep(intended - now);
        }
        let sent = Instant::now();
        let reply = send(k);
        let done = Instant::now();
        out.push((
            Timed {
                latency_ms: done.duration_since(intended).as_secs_f64() * 1e3,
                late_ms: sent.duration_since(intended).as_secs_f64() * 1e3,
            },
            reply,
        ));
    }
    out
}

/// SplitMix64: the benchmark's only random source, so inputs and schedules
/// depend on `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0F0F_1234_ABCD)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&sorted).expect("200 samples have a tail");
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 190.0);
        assert_eq!(sorted.iter().filter(|&&v| v > t.value).count(), 10);
        assert!((t.percentile - 95.0).abs() < 1e-12);
        // At 400 samples the same rule reaches p97.5.
        let sorted: Vec<f64> = (1..=400).map(f64::from).collect();
        assert!((tail(&sorted).unwrap().percentile - 97.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&ten).is_none());
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).unwrap().value, 0.0);
        // The floor the benchmark enforces keeps the tail at p80 or above.
        let floor: Vec<f64> = (0..MIN_SAMPLES).map(|v| v as f64).collect();
        assert!(tail(&floor).unwrap().percentile >= 80.0);
    }

    #[test]
    fn summary_sorts_before_picking() {
        let mut v: Vec<f64> = (0..101).map(f64::from).collect();
        v.reverse();
        let s = summarize(&v).unwrap();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail.value, 90.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn quiet_reads_each_input_at_its_fastest_twentieth() {
        // Two inputs, 10 and 30 ms, 50 ops each; 80 % of the ops run 1.5×
        // slower, as while a neighbour holds the core.
        let slots: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let lat: Vec<f64> = (0..100)
            .map(|i| {
                let base = [10.0, 30.0][i % 2];
                if i < 80 {
                    base * 1.5
                } else {
                    base
                }
            })
            .collect();
        let q = quiet(&lat, &slots).unwrap();
        assert_eq!(q.costs, [10.0, 30.0]);
        // Every input counts once: the median of two costs is their mean.
        assert_eq!(q.p50, 20.0);
        assert!((q.ops_per_s - 1e3 * 100.0 / (50.0 * 10.0 + 50.0 * 30.0)).abs() < 1e-9);
        // The plain median is pulled up by the slow ops.
        assert_eq!(median(&lat), 22.5);
        // Doubling one input's cost moves both statistics, whatever its
        // share of the ops.
        let slots: Vec<usize> = (0..90).map(|i| usize::from(i % 3 == 0)).collect();
        let base: Vec<f64> = slots.iter().map(|&s| [10.0, 30.0][s]).collect();
        let slow: Vec<f64> = slots.iter().map(|&s| [10.0, 60.0][s]).collect();
        let (a, b) = (quiet(&base, &slots).unwrap(), quiet(&slow, &slots).unwrap());
        assert_eq!((a.p50, b.p50), (20.0, 35.0));
        assert!(b.ops_per_s < 0.7 * a.ops_per_s);
        // Every input needs QUIET_MIN_OPS ops.
        assert!(quiet(&base[..30], &slots[..30]).is_none());
    }

    #[test]
    fn failed_frac_counts_every_failure_kind() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Shed,
            Outcome::Refused,
            Outcome::Incomplete,
            Outcome::WrongOutput("sigma differs".into()),
            Outcome::Ok,
            Outcome::Error("reset".into()),
        ] {
            t.record(&o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(
            (t.shed, t.refused, t.incomplete, t.wrong_output, t.errors),
            (1, 1, 1, 1, 1)
        );
        assert_eq!(t.failed(), 5);
        assert!((t.failed_frac() - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(t.first_failure.as_deref(), Some("shed"));
        let mut total = Tally::default();
        total.merge(&t);
        total.merge(&t);
        assert_eq!((total.attempted, total.failed()), (16, 10));
    }

    #[test]
    fn closed_loop_keeps_only_successful_latencies() {
        let mut paused = 0;
        let r = closed_loop(
            Duration::from_millis(30),
            2,
            |i| {
                std::thread::sleep(Duration::from_millis(1));
                if i % 2 == 0 {
                    Outcome::Ok
                } else {
                    Outcome::Shed
                }
            },
            |input, _| {
                assert_eq!(input, 0, "runs after successful ops only");
                paused += 1;
                std::thread::sleep(Duration::from_millis(20));
            },
        );
        assert!(r.tally.attempted >= 2);
        assert_eq!(
            r.latencies_ms.len() as u64,
            r.tally.attempted - r.tally.shed
        );
        assert!(r.slots.iter().all(|&s| s == 0));
        // The pauses (20 ms each) count neither toward the budget nor in
        // the elapsed time.
        // Counted, the second pause would already have ended the loop.
        assert_eq!(paused, r.latencies_ms.len());
        assert!(paused >= 3);
        assert!(r.elapsed < Duration::from_millis(50));
    }

    #[test]
    fn quiet_moments_follow_the_fastest_ops() {
        let mut m = QuietMoments::new(2, 2, Duration::ZERO);
        m.note(1, 30.0);
        // Slower than input 1's best by more than the slack: busy.
        assert!(!m.after(1, 40.0));
        // A first op on input 0 is its own best: quiet.
        assert!(m.after(0, 10.0));
        m.done();
        assert!(!m.after(0, 15.0));
        assert!(m.after(1, 32.0));
        assert_eq!(m.left(), 0);
        // No moments are left, however quiet the host.
        assert!(!m.after(0, 9.0));
        // With a spacing, a quiet op right after a set-up does not count.
        let mut m = QuietMoments::new(1, 3, Duration::from_secs(3600));
        assert!(!m.after(0, 10.0));
        assert_eq!(m.left(), 3);
    }

    #[test]
    fn open_loop_times_from_intended_send_so_a_stall_inflates_the_queue() {
        // Ten requests due every 10 ms; the first reply stalls for 100 ms.
        let schedule: Vec<Duration> = (0..10).map(|k| Duration::from_millis(10 * k)).collect();
        let start = Instant::now();
        let out = open_loop(start, &schedule, |k| {
            if k == 0 {
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        assert!(out[0].0.latency_ms >= 100.0);
        for (k, (timed, ())) in out.iter().enumerate().skip(1) {
            // Request k could not leave before the stalled reply at 100 ms,
            // so it carries at least the wait since its own due time.
            let floor = 100.0 - 10.0 * k as f64;
            assert!(
                timed.latency_ms >= floor,
                "request {k}: {} ms < {floor} ms",
                timed.latency_ms
            );
            assert!(timed.late_ms >= floor, "request {k} was not counted late");
        }
        // Measured from the actual send instead, the queued requests would
        // look instant; the intended-time rule is what exposes the stall.
        let (t1, ()) = out[1];
        assert!(t1.latency_ms - t1.late_ms < 5.0);
    }

    #[test]
    fn rng_is_seeded_and_permutations_are_complete() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut p = Rng::new(3).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }
}
