//! End-to-end and per-layer benchmark of the SPIFFI VoD simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload's timed operation repeats for `--seconds`
//! seconds with tracing off, and the end-to-end metrics are printed
//! (medians over the repetitions). With `--trace 1` one repetition runs,
//! its simulations are replayed with the benchmark's probe attached, and
//! the per-layer metrics are printed. Both check every answer. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! Workloads, their rationale and the layer → end-to-end mapping are
//! described in `perfbench/README.md`.

mod layer;
mod micro;
mod reference;
mod sys;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use spiffi_core::RunReport;
use workloads::{Answer, Inputs, Output, Workload};

const USAGE: &str = "usage: perfbench --workload <fig11_memory_sweep|rt_scaleup_x4|steady_16k> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Repetitions measured even when `--seconds` has already run out.
const MIN_REPS: usize = 3;

/// Set-ups timed back to back when one set-up is too quick to time alone.
const SETUP_BATCH: usize = 64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run prints as its last line.
#[derive(Default)]
struct Summary {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Summary {
    /// Record and print one metric, with an optional note.
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: &str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("  {name:<32} {value:>14.6} {unit:<6} {note}");
        self.metrics.push(Metric { name, value, unit });
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn spread_note(v: &[f64]) -> String {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("median of {}, min {lo:.6}, max {hi:.6}", v.len())
}

/// Build one repetition's inputs, returning them with the set-up seconds
/// per set-up. Set-ups of the capacity workloads take microseconds, so a
/// batch of them is timed and averaged.
fn timed_setup(w: Workload, seed: u64) -> (Inputs, f64) {
    let batch = match w {
        Workload::Steady16k => 1,
        _ => SETUP_BATCH,
    };
    let t = Instant::now();
    let mut inputs = w.setup(seed);
    for _ in 1..batch {
        inputs = w.setup(seed);
    }
    (inputs, t.elapsed().as_secs_f64() / batch as f64)
}

/// One timed repetition.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    output: Output,
}

/// Set up and run one repetition; `None` if it panicked.
fn repetition(w: Workload, seed: u64) -> Option<Rep> {
    catch_unwind(AssertUnwindSafe(|| {
        sys::reset_peak_rss();
        let (inputs, setup_s) = timed_setup(w, seed);
        let cpu = sys::cpu_seconds();
        let t = Instant::now();
        let output = workloads::run(inputs);
        let wall_s = t.elapsed().as_secs_f64();
        Rep {
            setup_s,
            wall_s,
            cpu_s: sys::cpu_seconds() - cpu,
            peak_rss_mb: sys::peak_rss_mb(),
            output,
        }
    }))
    .ok()
}

/// Wrong answers in one repetition's output. Searches are compared with
/// `expected`; a steady run must be glitch-free and identical to the
/// first steady run of the process.
fn wrong_answers(output: &Output, expected: &[Answer], first_run: &mut Option<RunReport>) -> u64 {
    match output {
        Output::Searches(s) => {
            if s.results.len() != expected.len() {
                return s.results.len().max(expected.len()) as u64;
            }
            s.results
                .iter()
                .zip(expected)
                .filter(|(r, e)| Answer::of(r) != **e)
                .count() as u64
        }
        Output::Run(r) => {
            let first = first_run.get_or_insert_with(|| r.clone());
            (r.glitches != 0 || r != first) as u64
        }
    }
}

/// Print the answers of `output`, the timed repetition's also with the
/// paper's published figure where the workload reproduces one.
fn print_answers(w: Workload, output: &Output, timed: bool) {
    match output {
        Output::Searches(s) => {
            for (c, r) in s.configs.iter().zip(&s.results) {
                println!(
                    "  answer: {} MiB {:?} -> {} terminals, probes {:?}, {} counted events",
                    c.server_memory_bytes >> 20,
                    c.policy,
                    r.max_terminals,
                    r.probes,
                    r.events_processed
                );
            }
        }
        Output::Run(r) => println!("  answer: {}", r.summary()),
    }
    if timed && w == Workload::RtScaleupX4 {
        println!(
            "  paper: Table 2 publishes {} terminals for real-time x4 with full measurement \
             windows; this workload runs the --fast preset (short windows, step 10, one \
             replication), so the two are not expected to agree",
            reference::PAPER_RT_X4_TERMINALS
        );
    }
}

/// Run and check the held-out input of a workload whose timed repetitions
/// do not run at `seed` (see [`Workload::timed_seed`]): one untimed
/// repetition at `seed`, compared with a one-thread run.
fn held_out(sum: &mut Summary, w: Workload, seed: u64) {
    if w.timed_seed(seed) == seed {
        return;
    }
    println!("held-out input, seed {seed} (untimed):");
    sum.attempted += w.ops_per_rep();
    match repetition(w, seed) {
        Some(rep) => {
            sum.failed += wrong_answers(&rep.output, &w.expected(seed), &mut None);
            print_answers(w, &rep.output, false);
        }
        None => sum.failed += w.ops_per_rep(),
    }
}

/// `--trace 0`: repeat the timed operation and report end-to-end metrics.
fn measure(args: &Args) -> Summary {
    let w = args.workload;
    let seed = w.timed_seed(args.seed);
    let mut sum = Summary::default();
    let mut reps = Vec::new();
    let start = Instant::now();
    let mut attempts = 0;
    while attempts < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        attempts += 1;
        sum.attempted += w.ops_per_rep();
        match repetition(w, seed) {
            Some(rep) => reps.push(rep),
            None => sum.failed += w.ops_per_rep(),
        }
    }

    // Answers are checked after the clock stops: computing a non-default
    // seed's reference is itself a (one-thread) run.
    let expected = w.expected(seed);
    let mut first_run = None;
    for rep in &reps {
        sum.failed += wrong_answers(&rep.output, &expected, &mut first_run);
    }
    if let Some(rep) = reps.first() {
        print_answers(w, &rep.output, true);
    }
    held_out(&mut sum, w, args.seed);
    if reps.is_empty() {
        return sum;
    }

    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let (wall, cpu, setup, rss) = (
        col(|r| r.wall_s),
        col(|r| r.cpu_s),
        col(|r| r.setup_s),
        col(|r| r.peak_rss_mb),
    );
    println!("end-to-end ({} repetitions, tracing off):", reps.len());
    sum.metric("wall_s", median(&wall), "s", &spread_note(&wall));
    sum.metric("cpu_s", median(&cpu), "s", &spread_note(&cpu));
    sum.metric("setup_s", median(&setup), "s", &spread_note(&setup));
    sum.metric("peak_rss_mb", median(&rss), "MiB", &spread_note(&rss));
    println!(
        "  {:<32} {:>14.6} {:<6} {} failed of {} attempted (also the JSON's failed/attempted)",
        "fail_ratio",
        sum.failed as f64 / sum.attempted as f64,
        "1",
        sum.failed,
        sum.attempted
    );
    sum
}

fn main() {
    if let Some((key, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("SPIFFI_"))
    {
        eprintln!(
            "perfbench: refusing to run with {} set. The workloads fix their own thread \
             counts and execution paths; unset every SPIFFI_* variable and retry.",
            key.to_string_lossy()
        );
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    // `Harness::new` sizes its engine from SPIFFI_THREADS; pin it to the
    // workload's thread count before any thread exists.
    std::env::set_var("SPIFFI_THREADS", w.threads().to_string());

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "host: nproc {nproc}, workload threads {} (fixed)",
        w.threads()
    );

    let sum = if args.trace {
        trace::traced(w, args.seed)
    } else {
        measure(&args)
    };
    println!("{}", sum.json());
}
