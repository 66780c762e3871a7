//! The repository's benchmark: exact and approximate discovery, OFDClean
//! and a served read/write stream over the public APIs of the FastOFD /
//! OFDClean crates, each op's output checked.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it measures one workload untraced and prints its
//! end-to-end metrics; with `--trace 1` it re-runs every workload layer by
//! layer and prints the per-layer ledger (see NOTES.md).
//! `perfbench --ramp 10,20,… --seed <n> --seconds <s>` steps the serve
//! workload's offered rate to find the rate the server sustains. The last line of
//! standard output is the result object; `# ` lines before it disclose the
//! host, the inputs and the sample counts.

mod clean;
mod discover;
mod report;
mod serve;
mod stats;
mod sys;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ofd_core::Relation;

use crate::discover::ms_since;
use crate::report::Report;
use crate::stats::{
    closed_loop, median, quiet, summarize, Outcome, QuietMoments, MIN_SAMPLES, QUIET_MIN_OPS,
    QUIET_Q,
};

/// A workload's inputs as the program receives them: CSV and ontology text.
#[derive(Clone)]
pub struct Inputs {
    pub csv: String,
    pub ontology: String,
}

/// `rel` as CSV with its rows in `perm` order.
pub fn permuted_csv(rel: &Relation, perm: &[usize]) -> String {
    let quote = |cell: &str| {
        if cell.contains([',', '"', '\n']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    let schema = rel.schema();
    let header: Vec<String> = schema.attrs().map(|a| quote(schema.name(a))).collect();
    let mut out = header.join(",");
    out.push('\n');
    for &row in perm {
        let cells: Vec<String> = rel.row_texts(row).into_iter().map(quote).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

const WORKLOADS: [&str; 4] = [
    "discover-exact-10k",
    "discover-approx-5k",
    "clean-2k",
    "serve-stream-40k",
];

/// Set-ups per run; `setup_s` is their median. A closed loop runs one
/// before it and the rest at quiet moments inside it ([`QuietMoments`]),
/// or after it for moments the run never offered. The open loop runs
/// [`SETUP_BEFORE_OPEN`] before it and the rest after it: a set-up beside
/// it would compete with the server.
const SETUP_REPS: usize = 5;
const SETUP_BEFORE_OPEN: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--ramp r1,r2,…`: step the serve workload's offered rate instead of
    /// running a workload (see [`serve::ramp`]).
    ramp: Option<Vec<f64>>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ramp = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--ramp" => {
                let rates: Result<Vec<f64>, _> = value.split(',').map(str::parse).collect();
                match rates {
                    Ok(r) if r.iter().all(|&x| x > 0.0 && x.is_finite()) => ramp = Some(r),
                    _ => return Err("--ramp takes positive rates like 10,20,30".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let seed = seed.ok_or("--seed is required")?;
    if ramp.is_some() {
        return Ok(Args {
            workload: "serve-ramp".into(),
            seed,
            seconds,
            trace: false,
            ramp,
        });
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        ramp,
    })
}

/// Runs `make` `n` times, appending each time in seconds to `times` and
/// keeping the last result (earlier ones are dropped before the next
/// starts).
fn set_up<T>(
    times: &mut Vec<f64>,
    n: usize,
    make: &mut impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..n {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(make()?);
        times.push(t.elapsed().as_secs_f64());
    }
    kept.ok_or_else(|| "no set-up ran".into())
}

/// Refuses a run whose op cost leaves too few samples for a tail with ten
/// samples beyond it at p80 or higher, or too few ops per input for its
/// quiet cost.
fn refuse_if_short(
    name: &str,
    seconds: f64,
    expected_samples: f64,
    inputs: usize,
) -> Result<(), String> {
    if expected_samples < MIN_SAMPLES as f64 {
        return Err(format!(
            "refused: {name} would take only ~{expected_samples:.0} samples in {seconds} s; \
             its tail needs at least {MIN_SAMPLES} (10 beyond p80)"
        ));
    }
    if expected_samples < (QUIET_MIN_OPS * inputs) as f64 {
        return Err(format!(
            "refused: {name} would run its {inputs} inputs only ~{:.0} times each in \
             {seconds} s; each needs {QUIET_MIN_OPS}",
            expected_samples / inputs as f64
        ));
    }
    Ok(())
}

/// Starts the peak-memory window of the measured loop: set-up (input
/// generation, reference runs, expected answers) stays out of it.
fn start_measuring(report: &mut Report) {
    sys::release_freed_heap();
    if !sys::reset_peak_rss() {
        report.line("peak_rss_mib includes set-up: the kernel refused to reset VmHWM");
    }
}

/// The end-to-end metrics every workload reports, from the latencies of
/// the successful ops and the input each ran on (see [`quiet`]).
fn end_to_end(
    report: &mut Report,
    latencies: &[f64],
    slots: &[usize],
    setup_s: f64,
    peak_rss_mib: f64,
) -> Result<(), String> {
    let s = summarize(latencies).ok_or("too few successful ops for a tail")?;
    if s.n < MIN_SAMPLES {
        return Err(format!(
            "only {} samples; the tail needs {MIN_SAMPLES}",
            s.n
        ));
    }
    let q = quiet(latencies, slots)
        .ok_or_else(|| format!("an input ran fewer than {QUIET_MIN_OPS} ops"))?;
    report.line(s.line("ops"));
    let costs: Vec<String> = q.costs.iter().map(|c| format!("{c:.3}")).collect();
    report.line(format!(
        "quiet core (each input at its p{:.0}): p50={:.3} ms, {:.3} ops/s of busy time; \
         per input (slot order) [{}] ms",
        100.0 * QUIET_Q,
        q.p50,
        q.ops_per_s,
        costs.join(", ")
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("quiet_p50_ms", q.p50, "ms");
    report.metric("quiet_ops_per_s", q.ops_per_s, "1/s");
    report.metric("peak_rss_mib", peak_rss_mib, "MiB");
    Ok(())
}

/// Runs a set-up-and-closed-loop workload: one set-up, a warm-up pass
/// over the `period(prep)` inputs, the measured loop with the other
/// set-ups at its quiet moments, and any set-ups left after it.
fn run_closed<P>(
    args: &Args,
    report: &mut Report,
    mut make: impl FnMut() -> Result<P, String>,
    period: impl Fn(&P) -> usize,
    op: impl Fn(&P, usize) -> Outcome,
    describe: impl FnOnce(&P, &mut Report),
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let prep = set_up(&mut times, 1, &mut make)?;
    let period = period(&prep);
    let mut moments = QuietMoments::new(period, SETUP_REPS - 1, budget);
    let t = Instant::now();
    for i in 0..period {
        let t = Instant::now();
        let outcome = op(&prep, i);
        moments.note(i, ms_since(t));
        report.tally.record(&outcome);
    }
    refuse_if_short(
        &args.workload,
        args.seconds,
        args.seconds * period as f64 / t.elapsed().as_secs_f64(),
        period,
    )?;
    describe(&prep, report);

    start_measuring(report);
    // The peak-memory window ends at the first set-up in the loop, at
    // least a fifth of the budget in: every input has run by then, and the
    // ops after it repeat the same inputs.
    let mut peak = None;
    let mut setup_error = None;
    let r = closed_loop(
        budget,
        period,
        |i| op(&prep, i),
        |input, ms| {
            if moments.after(input, ms) {
                peak.get_or_insert_with(sys::peak_rss_mib);
                if let Err(e) = set_up(&mut times, 1, &mut make) {
                    setup_error.get_or_insert(e);
                }
                moments.done();
            }
        },
    );
    let peak = peak.unwrap_or_else(sys::peak_rss_mib);
    if let Some(e) = setup_error {
        return Err(e);
    }
    let at_moments = times.len() - 1;
    drop(prep);
    if moments.left() > 0 {
        drop(set_up(&mut times, moments.left(), &mut make)?);
    }
    let setups: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    report.line(format!(
        "set-ups [{}] s: 1 before the loop, {at_moments} at its quiet moments, {} after it",
        setups.join(", "),
        moments.left()
    ));

    report.tally.merge(&r.tally);
    report.line(format!(
        "closed loop, 1 caller, {:.3} s measured, {:.3} ops/s over the whole run",
        r.elapsed.as_secs_f64(),
        r.ops_per_s()
    ));
    end_to_end(report, &r.latencies_ms, &r.slots, median(&times), peak)
}

fn untraced(args: &Args, work: &sys::WorkDir, report: &mut Report) -> Result<(), String> {
    let name = args.workload.as_str();
    match name {
        "discover-exact-10k" | "discover-approx-5k" => {
            let spec = discover::spec(name);
            run_closed(
                args,
                report,
                || Ok(discover::setup(spec, args.seed)),
                |_| 1,
                |prep, _| discover::op(spec, prep),
                |_, _| {},
            )
        }
        "clean-2k" => run_closed(
            args,
            report,
            || Ok(clean::setup(args.seed)),
            |prep| prep.instances.len(),
            |prep, i| clean::op(prep.instance(i)),
            |prep, report| {
                let seeds: Vec<u64> = (0..prep.instances.len())
                    .map(|i| prep.instance(i).base_seed)
                    .collect();
                report.line(format!(
                    "rotation of clinical 2k instances, generator seeds {seeds:?} in slot \
                     order; repair_f1={:.6}",
                    clean::repair_f1(prep)
                ));
            },
        ),
        "serve-stream-40k" => {
            // Writes, a third of the requests, are the scarcer input.
            refuse_if_short(name, args.seconds, serve::RATE_PER_S * args.seconds, 3)?;
            let script = serve::script(args.seed, args.seconds, serve::RATE_PER_S);
            let mut times = Vec::with_capacity(SETUP_REPS);
            let mut rep = 0;
            let mut make = || {
                rep += 1;
                serve::setup(&script, work.path(), rep)
            };
            let prep = set_up(&mut times, SETUP_BEFORE_OPEN, &mut make)?;
            report.line(format!(
                "open loop at {} req/s (2 reads : 1 write), 2 sender threads, 1 connection each; \
                 checkpoint dir fs={} (snapshots fsync on every save, as shipped)",
                serve::RATE_PER_S,
                sys::fs_type(&prep.ckpt)
            ));
            start_measuring(report);
            let load = serve::run(&script, &prep);
            let peak = sys::peak_rss_mib();
            drop(prep);
            drop(set_up(
                &mut times,
                SETUP_REPS - SETUP_BEFORE_OPEN,
                &mut make,
            )?);
            report.tally.merge(&load.tally());
            load.describe(report, false);
            report.line(format!(
                "{:.3} requests completed per second of the run (the offered rate sets it)",
                load.ops_per_s()
            ));
            end_to_end(
                report,
                &load.latencies(None),
                &load.kinds(),
                median(&times),
                peak,
            )
        }
        other => Err(format!("unknown workload {other}")),
    }
}

/// The traced run. The contract of `--trace 1` is the whole per-layer
/// ledger, so every workload's layers are traced, each for a quarter of
/// the budget.
fn traced(args: &Args, work: &sys::WorkDir, report: &mut Report) -> Result<(), String> {
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    for spec in [&discover::EXACT, &discover::APPROX] {
        let prep = discover::setup(spec, args.seed);
        discover::traced(spec, &prep, quarter, report);
    }
    let prep = clean::setup(args.seed);
    clean::traced(&prep, quarter, report);
    let script = serve::script(args.seed, quarter.as_secs_f64(), serve::RATE_PER_S);
    let prep = serve::setup(&script, work.path(), 0)?;
    report.line(format!(
        "serve checkpoint dir fs={}",
        sys::fs_type(&prep.ckpt)
    ));
    serve::traced(&script, &prep, work.path(), report);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let work = match sys::WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: nproc={} cpu=\"{}\"",
        sys::nproc(),
        sys::cpu_model()
    );
    println!(
        "# source: commit={} tree={}",
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_TREE").unwrap_or_else(|_| "unknown".into())
    );
    println!(
        "# work dir fs={} (engines run with threads(1)); MALLOC_ARENA_MAX={}",
        sys::fs_type(work.path()),
        std::env::var("MALLOC_ARENA_MAX").unwrap_or_else(|_| "unset".into())
    );
    let mut report = Report::default();
    let started = Instant::now();
    let result = if let Some(rates) = &args.ramp {
        serve::ramp(args.seed, args.seconds, rates, work.path(), &mut report)
    } else if args.trace {
        traced(&args, &work, &mut report)
    } else {
        untraced(&args, &work, &mut report)
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::from(3);
    }
    report.line(format!("wall {:.3} s", started.elapsed().as_secs_f64()));
    report.print();
    ExitCode::SUCCESS
}
