//! Wall-clock performance harness for the scheduler/disk hot path.
//!
//! Runs a standard capacity-search workload — a bracketed bisection over
//! terminal counts on a 4-disk node, each probe a full deterministic
//! simulation — entirely on one thread, and reports wall seconds and
//! events per second. Results are written to `BENCH_perf.json` at the
//! repo root so speedups are tracked in-tree.
//!
//! Usage:
//!   perf_baseline --record-baseline   # store this build as the baseline
//!   perf_baseline                     # measure and compare to baseline
//!
//! The workload is seeded and single-threaded, so `events_processed` must
//! be identical run-to-run and build-to-build; the harness asserts this
//! against the recorded baseline, making it a coarse determinism check as
//! well as a throughput meter.
//!
//! Four sections are measured and written to the JSON: the sequential
//! bisection (`current`), the engine probe fan-out (`parallel`), the
//! speculative cached search (`speculative`) — the same bisection driven
//! by `Engine::max_glitch_free_terminals`, whose counted outcome the
//! binary asserts byte-identical to a fresh single-threaded search (the
//! CI correctness gate; wall clock is reported but never gated) — and
//! the warm-snapshot search (`snapshot`), which captures each base
//! warm-up once and forks it per probe, gated byte-identical to a
//! from-scratch sequential search on the same marginal timeline.

use std::sync::atomic::AtomicU32;
use std::time::Instant;

use spiffi_core::{
    engine_threads, fan_out, replication_seed, CapacitySearch, Engine, JournalSnapshot, KernelKind,
    SnapshotMode, SystemConfig, VodSystem,
};
use spiffi_mpeg::{AccessPattern, Library};
use spiffi_sched::SchedulerKind;
use spiffi_simcore::SimDuration;
use spiffi_trace::json::f64_fixed;

/// The fixed workload configuration: one node, four disks, uniform access
/// over 64 one-minute titles, memory far below the working set.
fn workload_config() -> SystemConfig {
    let mut c = SystemConfig::small_test();
    c.topology = spiffi_layout::Topology {
        nodes: 1,
        disks_per_node: 4,
    };
    c.n_videos = 64;
    c.access = AccessPattern::Uniform;
    c.video.duration = SimDuration::from_secs(60);
    c.server_memory_bytes = 32 * 1024 * 1024;
    c.timing.stagger = SimDuration::from_secs(5);
    c.timing.warmup = SimDuration::from_secs(10);
    c.timing.measure = SimDuration::from_secs(120);
    c.seed = 0x005b_1ff1_9e4f;
    c
}

/// Measured repetitions of the whole bisection; the wall clock is averaged
/// over these so a ~15% throughput change is well above run-to-run noise.
const ITERS: u32 = 3;

/// Bisection brackets on the terminal-count grid.
const LO: u32 = 4;
const HI: u32 = 96;
const STEP: u32 = 4;

/// The schedulers exercised per probe (the hot paths under optimisation).
fn schedulers() -> [SchedulerKind; 3] {
    [
        SchedulerKind::Elevator,
        SchedulerKind::Gss { groups: 4 },
        SchedulerKind::RealTime {
            classes: 3,
            spacing: SimDuration::from_secs(4),
        },
    ]
}

/// One probe: run every scheduler at `n` terminals; returns (total
/// glitches, total events processed). The seed is fixed across the whole
/// workload, so every run shares one pre-generated `library`.
fn probe(n: u32, library: &Library) -> (u64, u64) {
    let mut glitches = 0;
    let mut events = 0;
    for sched in schedulers() {
        let mut c = workload_config();
        c.scheduler = sched;
        c.n_terminals = n;
        let r = VodSystem::with_library(c, library.clone()).run();
        glitches += r.glitches;
        events += r.events_processed;
    }
    (glitches, events)
}

/// The standard capacity-search bisection, accumulating events.
fn run_workload(library: &Library) -> (u32, u64) {
    let grid = |x: u32| (x / STEP).max(1) * STEP;
    let mut events = 0;
    let mut lo = grid(LO);
    let mut hi = grid(HI);
    let (g, e) = probe(lo, library);
    events += e;
    assert_eq!(g, 0, "lower bracket {lo} must be feasible");
    let (g, e) = probe(hi, library);
    events += e;
    assert!(g > 0, "upper bracket {hi} must be infeasible");
    while hi - lo > STEP {
        let mid = grid(lo + (hi - lo) / 2);
        if mid <= lo || mid >= hi {
            break;
        }
        let (g, e) = probe(mid, library);
        events += e;
        if g == 0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, events)
}

/// One engine probe: the three scheduler runs fan out across the engine's
/// worker threads with the deterministic cancellation protocol — a run that
/// glitches stops immediately and cancels higher-indexed runs, and only the
/// prefix up to the first (lowest-indexed) glitching run is counted, so
/// glitch totals and event counts are identical at every thread count.
fn probe_engine(n: u32, engine: &Engine) -> (u64, u64) {
    let scheds = schedulers();
    let cancel = AtomicU32::new(u32::MAX);
    let reports = fan_out(scheds.len(), engine.threads(), |i| {
        let mut c = workload_config();
        c.scheduler = scheds[i];
        c.n_terminals = n;
        let library = engine.cache().get(&c);
        VodSystem::with_library(c, library).run_glitch_probe(&cancel, i as u32)
    });
    let counted = match reports.iter().position(|r| r.glitches > 0) {
        Some(i) => &reports[..=i],
        None => &reports[..],
    };
    (
        counted.iter().map(|r| r.glitches).sum(),
        counted.iter().map(|r| r.events_processed).sum(),
    )
}

/// The same bisection as [`run_workload`], on the experiment engine.
fn run_workload_engine(engine: &Engine) -> (u32, u64) {
    let grid = |x: u32| (x / STEP).max(1) * STEP;
    let mut events = 0;
    let mut lo = grid(LO);
    let mut hi = grid(HI);
    let (g, e) = probe_engine(lo, engine);
    events += e;
    assert_eq!(g, 0, "lower bracket {lo} must be feasible");
    let (g, e) = probe_engine(hi, engine);
    events += e;
    assert!(g > 0, "upper bracket {hi} must be infeasible");
    while hi - lo > STEP {
        let mid = grid(lo + (hi - lo) / 2);
        if mid <= lo || mid >= hi {
            break;
        }
        let (g, e) = probe_engine(mid, engine);
        events += e;
        if g == 0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, events)
}

/// The speculative-search variant: per scheduler, the whole bisection runs
/// through [`Engine::max_glitch_free_terminals`] — idle workers probe the
/// counts the search could visit next, and every clean replication outcome
/// lands in the engine's probe cache, so repeated searches replay instead
/// of re-simulating. Returns `(capacity, counted events, speculative
/// events)`; capacity is the minimum across schedulers, matching the
/// legacy sections' all-schedulers-clean probe criterion.
///
/// The engine seeds replication `r` as `replication_seed(base, r)`, so the
/// base seed is chosen to make replication 0 run the exact seed the legacy
/// sections use — same simulations, comparable capacity.
fn spec_workload(engine: &Engine) -> (u32, u64, u64) {
    let search = CapacitySearch {
        lo: LO,
        hi: HI,
        step: STEP,
        replications: 1,
    };
    let mut capacity = u32::MAX;
    let mut events = 0;
    let mut waste = 0;
    for sched in schedulers() {
        let mut c = workload_config();
        c.scheduler = sched;
        // Invert the engine's replication-seed derivation (the SplitMix64
        // golden-ratio increment) so replication 0 gets the legacy seed.
        c.seed = c.seed.wrapping_sub(0x9e37_79b9_7f4a_7c15);
        assert_eq!(replication_seed(c.seed, 0), workload_config().seed);
        let r = engine.max_glitch_free_terminals(&c, &search);
        capacity = capacity.min(r.max_terminals);
        events += r.events_processed;
        waste += r.speculative_events;
    }
    (capacity, events, waste)
}

/// Terminal populations for the scale section: a mid-size and a large
/// steady-state pump, 32 terminals per 4-disk node (well inside the
/// ~13-per-disk glitch knee, so the runs measure steady streaming, not
/// overload churn).
const SCALE_SIZES: [u32; 2] = [4_096, 16_384];

/// Measured repetitions per (size, kernel) cell of the scale section.
/// The recorded wall time is the best of these — the minimum is the
/// least-noise estimator on a shared machine, and both kernels get the
/// same treatment.
const SCALE_ITERS: u32 = 5;

/// The scale-section configuration: `terminals / 32` nodes of 4 disks
/// each, uniform access over 64 one-minute titles, 32 MB of buffer per
/// node, and a short schedule (the cost is in the population, not the
/// window). Only the event-kernel choice varies between the two runs of
/// each cell, so events processed must be byte-identical.
fn scale_config(n_terminals: u32) -> SystemConfig {
    let mut c = SystemConfig::small_test();
    let nodes = (n_terminals / 32).max(1);
    c.topology = spiffi_layout::Topology {
        nodes,
        disks_per_node: 4,
    };
    c.n_videos = 64;
    c.access = AccessPattern::Uniform;
    c.video.duration = SimDuration::from_secs(60);
    c.server_memory_bytes = nodes as u64 * 32 * 1024 * 1024;
    c.timing.stagger = SimDuration::from_secs(5);
    c.timing.warmup = SimDuration::from_secs(10);
    c.timing.measure = SimDuration::from_secs(20);
    c.n_terminals = n_terminals;
    c.seed = 0x005b_1ff1_9e4f;
    c
}

/// One measured cell of the scale section.
struct ScaleCell {
    terminals: u32,
    events_processed: u64,
    heap_wall_seconds: f64,
    bucket_wall_seconds: f64,
}

/// One steady-state pump at `n` terminals under `kind`: wall seconds,
/// events processed, glitches.
fn scale_run(n: u32, kind: KernelKind, library: &Library) -> (f64, u64, u64) {
    let mut sys = VodSystem::with_library(scale_config(n), library.clone());
    sys.set_calendar_kernel(kind);
    let start = Instant::now();
    let r = sys.run();
    (
        start.elapsed().as_secs_f64(),
        r.events_processed,
        r.glitches,
    )
}

/// Measure the scale section: for each population, run both kernels and
/// assert their counted events identical (the kernel swap must be
/// invisible to everything but the clock on the wall).
fn measure_scale() -> Vec<ScaleCell> {
    // All scale configs share n_videos/video/seed, hence one library.
    let library = VodSystem::generate_library(&scale_config(SCALE_SIZES[0]));
    scale_run(SCALE_SIZES[0], KernelKind::Bucket, &library); // warm-up
    SCALE_SIZES
        .iter()
        .map(|&n| {
            let (mut heap_wall, mut bucket_wall) = (f64::INFINITY, f64::INFINITY);
            let (mut events, mut glitches) = (0, 0);
            for _ in 0..SCALE_ITERS {
                let (w, e, g) = scale_run(n, KernelKind::Heap, &library);
                heap_wall = heap_wall.min(w);
                let (w2, e2, g2) = scale_run(n, KernelKind::Bucket, &library);
                bucket_wall = bucket_wall.min(w2);
                assert_eq!(
                    (e, g),
                    (e2, g2),
                    "kernel swap changed the simulation at {n} terminals"
                );
                events = e;
                glitches = g;
            }
            assert_eq!(glitches, 0, "scale workload must stay glitch-free at {n}");
            ScaleCell {
                terminals: n,
                events_processed: events,
                heap_wall_seconds: heap_wall,
                bucket_wall_seconds: bucket_wall,
            }
        })
        .collect()
}

/// One measured sample of the harness.
struct Sample {
    wall_seconds: f64,
    events_processed: u64,
    events_per_sec: f64,
    capacity: u32,
}

/// A measured sample of the speculative search: one cold pass (which does
/// all the simulating and reports the speculation waste), then the
/// standard warm-up-plus-`ITERS` measured passes on the now-warm engine.
struct SpecSample {
    cold_wall_seconds: f64,
    speculative_events: u64,
    wall_seconds: f64,
    events_processed: u64,
    capacity: u32,
}

/// The warm-snapshot variant: the same per-scheduler searches as the
/// speculative section, but the engine runs in [`SnapshotMode::Warm`] —
/// each base warm-up is simulated once, captured at the measurement
/// boundary, and every later probe forks the snapshot and simulates only
/// the marginal terminals. Snapshot modes use marginal timing (the
/// warm-up is extended by one stagger window), so the correctness
/// reference is a from-scratch sequential search in
/// [`SnapshotMode::Cold`] — same timeline, no snapshots — not the legacy
/// sections. Returns the sample plus the engine's journal so the JSON
/// can report the snapshot hit counters.
fn measure_snapshot(threads: usize) -> (SpecSample, JournalSnapshot) {
    let engine = Engine::with_threads(threads).with_snapshot_mode(SnapshotMode::Warm);
    let cold_start = Instant::now();
    let (_, _, waste) = spec_workload(&engine);
    let cold_wall = cold_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut events = 0;
    let mut capacity = 0;
    for _ in 0..ITERS {
        let (cap, e, _) = spec_workload(&engine);
        events += e;
        capacity = cap;
    }
    let sample = SpecSample {
        cold_wall_seconds: cold_wall,
        speculative_events: waste,
        wall_seconds: start.elapsed().as_secs_f64(),
        events_processed: events,
        capacity,
    };
    (sample, engine.journal().snapshot())
}

fn measure_speculative(threads: usize) -> SpecSample {
    let engine = Engine::with_threads(threads);
    let cold_start = Instant::now();
    let (_, _, waste) = spec_workload(&engine);
    let cold_wall = cold_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut events = 0;
    let mut capacity = 0;
    for _ in 0..ITERS {
        let (cap, e, _) = spec_workload(&engine);
        events += e;
        capacity = cap;
    }
    SpecSample {
        cold_wall_seconds: cold_wall,
        speculative_events: waste,
        wall_seconds: start.elapsed().as_secs_f64(),
        events_processed: events,
        capacity,
    }
}

fn measure() -> Sample {
    let library = VodSystem::generate_library(&workload_config());
    // Warm-up pass (page in code, touch allocator arenas), then the
    // measured passes.
    run_workload(&library);
    let start = Instant::now();
    let mut events = 0;
    let mut capacity = 0;
    for _ in 0..ITERS {
        let (cap, e) = run_workload(&library);
        events += e;
        capacity = cap;
    }
    let wall = start.elapsed().as_secs_f64();
    Sample {
        wall_seconds: wall,
        events_processed: events,
        events_per_sec: events as f64 / wall,
        capacity,
    }
}

/// Measure the engine-driven variant of the workload (probe fan-out with
/// deterministic early exit, plus the shared library cache).
fn measure_engine(threads: usize) -> Sample {
    let engine = Engine::with_threads(threads);
    // Warm-up also populates the library cache.
    run_workload_engine(&engine);
    let start = Instant::now();
    let mut events = 0;
    let mut capacity = 0;
    for _ in 0..ITERS {
        let (cap, e) = run_workload_engine(&engine);
        events += e;
        capacity = cap;
    }
    let wall = start.elapsed().as_secs_f64();
    Sample {
        wall_seconds: wall,
        events_processed: events,
        events_per_sec: events as f64 / wall,
        capacity,
    }
}

/// Machine cores visible to this run. Recorded in the JSON so the
/// per-core throughput figures can be compared across runners with
/// different core counts.
fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `threads` is the parallelism the section actually employed — the
/// calibration denominator for `events_per_sec_per_core`, which is the
/// wall-clock-independent number to eyeball across heterogeneous runners
/// (raw wall time and events/s scale with whatever hardware the job
/// landed on; per-core throughput mostly does not).
fn sample_json(s: &Sample, indent: &str, threads: usize) -> String {
    format!(
        "{{\n{indent}  \"wall_seconds\": {},\n{indent}  \"events_processed\": {},\n{indent}  \"events_per_sec\": {},\n{indent}  \"events_per_sec_per_core\": {},\n{indent}  \"capacity_terminals\": {}\n{indent}}}",
        f64_fixed(s.wall_seconds, 4),
        s.events_processed,
        f64_fixed(s.events_per_sec, 1),
        f64_fixed(s.events_per_sec / threads as f64, 1),
        s.capacity
    )
}

/// Extract `"key": <number>` from a flat JSON section. Good enough for the
/// file this binary itself writes; no external JSON crate is available.
fn extract_number(section: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = section.find(&pat)? + pat.len();
    let rest = section[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pull the `"baseline": {...}` object out of an existing BENCH_perf.json.
fn read_baseline(path: &std::path::Path) -> Option<Sample> {
    let text = std::fs::read_to_string(path).ok()?;
    let at = text.find("\"baseline\":")?;
    let open = text[at..].find('{')? + at;
    let close = text[open..].find('}')? + open;
    let section = &text[open..=close];
    Some(Sample {
        wall_seconds: extract_number(section, "wall_seconds")?,
        events_processed: extract_number(section, "events_processed")? as u64,
        events_per_sec: extract_number(section, "events_per_sec")?,
        capacity: extract_number(section, "capacity_terminals")? as u32,
    })
}

fn main() {
    let record_baseline = std::env::args().any(|a| a == "--record-baseline");
    let out = std::path::Path::new("BENCH_perf.json");

    println!("== perf_baseline: scheduler/disk hot-path throughput ==");
    println!(
        "workload: capacity bisection [{LO}, {HI}] step {STEP}, 4 disks, \
         elevator+gss+real-time per probe\n"
    );

    let current = measure();
    println!(
        "wall: {:.3} s   events: {}   throughput: {:.0} events/s   capacity: {} terminals",
        current.wall_seconds, current.events_processed, current.events_per_sec, current.capacity
    );

    let threads = engine_threads();
    let parallel = measure_engine(threads);
    let speedup = current.wall_seconds / parallel.wall_seconds;
    println!(
        "engine ({threads} thread(s)): wall: {:.3} s   events: {}   capacity: {} terminals   \
         speedup vs single-thread: {speedup:.2}x   {:.0} events/s/core",
        parallel.wall_seconds,
        parallel.events_processed,
        parallel.capacity,
        parallel.events_per_sec / threads as f64
    );
    assert_eq!(
        parallel.capacity, current.capacity,
        "the engine's probe protocol must reproduce the sequential capacity"
    );

    let speculative = measure_speculative(threads);
    // Correctness gate: the speculative search's *counted* outcome —
    // capacity and counted events — must be byte-identical to a fresh
    // single-threaded sequential bisection. (Wall clock is reported, never
    // gated: timing gates need pinned hardware.)
    let (seq_capacity, seq_events, seq_waste) = {
        let reference = Engine::with_threads(1);
        let sample = spec_workload(&reference);
        assert_eq!(sample, spec_workload(&reference), "warm replay drifted");
        sample
    };
    assert_eq!(seq_waste, 0, "sequential resolution must not speculate");
    assert_eq!(
        speculative.capacity, seq_capacity,
        "speculative search changed the capacity"
    );
    assert_eq!(
        speculative.events_processed,
        seq_events * ITERS as u64,
        "speculative search's counted events differ from the sequential bisection"
    );
    assert_eq!(
        speculative.capacity, current.capacity,
        "speculative search must reproduce the legacy capacity"
    );
    let spec_speedup = parallel.wall_seconds / speculative.wall_seconds;
    println!(
        "speculative ({threads} thread(s)): cold: {:.3} s (waste: {} events)   \
         warm: {:.3} s   events: {}   capacity: {} terminals   \
         speedup vs parallel section: {spec_speedup:.2}x",
        speculative.cold_wall_seconds,
        speculative.speculative_events,
        speculative.wall_seconds,
        speculative.events_processed,
        speculative.capacity
    );

    let (snapshot, snap_journal) = measure_snapshot(threads);
    // Correctness gate for the warm-fork path: capacity and counted
    // events must be byte-identical to a from-scratch sequential search
    // on the same marginal timeline (Cold mode — every probe simulated
    // from time zero, no snapshots, no speculation interleaving).
    let (snap_seq_capacity, snap_seq_events) = {
        let reference = Engine::with_threads(1).with_snapshot_mode(SnapshotMode::Cold);
        let (cap, events, waste) = spec_workload(&reference);
        assert_eq!(waste, 0, "sequential resolution must not speculate");
        assert!(
            reference.snapshot_cache().is_empty(),
            "the cold reference must not capture snapshots"
        );
        (cap, events)
    };
    assert_eq!(
        snapshot.capacity, snap_seq_capacity,
        "warm-fork search changed the capacity"
    );
    assert_eq!(
        snapshot.events_processed,
        snap_seq_events * ITERS as u64,
        "warm-fork search's counted events differ from the from-scratch sequential search"
    );
    assert!(
        snap_journal.snapshot_hits > 0,
        "the warm search never forked a captured snapshot"
    );
    let snap_speedup = parallel.wall_seconds / snapshot.wall_seconds;
    println!(
        "snapshot ({threads} thread(s), warm forks): cold: {:.3} s   warm: {:.3} s   \
         events: {}   capacity: {} terminals   {} captures / {} forks \
         ({} base-prefix events saved)   speedup vs parallel section: {snap_speedup:.2}x",
        snapshot.cold_wall_seconds,
        snapshot.wall_seconds,
        snapshot.events_processed,
        snapshot.capacity,
        snap_journal.snapshot_captures,
        snap_journal.snapshot_hits,
        snap_journal.snapshot_saved_events,
    );

    let scale = measure_scale();
    for c in &scale {
        let speedup = c.heap_wall_seconds / c.bucket_wall_seconds;
        println!(
            "scale ({} terminals): events: {}   heap: {:.3} s ({:.0} events/s)   \
             bucket: {:.3} s ({:.0} events/s)   bucket speedup: {speedup:.2}x",
            c.terminals,
            c.events_processed,
            c.heap_wall_seconds,
            c.events_processed as f64 / c.heap_wall_seconds,
            c.bucket_wall_seconds,
            c.events_processed as f64 / c.bucket_wall_seconds,
        );
    }

    let baseline = if record_baseline {
        None
    } else {
        read_baseline(out)
    };

    let mut json = format!(
        "{{\n  \"benchmark\": \"perf_baseline\",\n  \"cores\": {},\n",
        cores()
    );
    json.push_str(
        "  \"workload\": {\n    \"description\": \"single-threaded capacity bisection, 3 schedulers per probe\",\n",
    );
    json.push_str(&format!(
        "    \"disks\": 4,\n    \"videos\": 64,\n    \"search\": [{LO}, {HI}],\n    \"step\": {STEP},\n    \"seed\": {}\n  }},\n",
        workload_config().seed
    ));
    match (&baseline, record_baseline) {
        (Some(b), false) => {
            // Determinism cross-check against the recorded baseline.
            if b.events_processed != current.events_processed {
                eprintln!(
                    "WARNING: events_processed drifted from baseline ({} -> {}); \
                     the simulation itself changed, not just its speed",
                    b.events_processed, current.events_processed
                );
            }
            let improvement = current.events_per_sec / b.events_per_sec - 1.0;
            println!(
                "baseline: {:.0} events/s -> improvement: {:+.1}%",
                b.events_per_sec,
                improvement * 100.0
            );
            json.push_str(&format!("  \"baseline\": {},\n", sample_json(b, "  ", 1)));
            json.push_str(&format!(
                "  \"current\": {},\n",
                sample_json(&current, "  ", 1)
            ));
            json.push_str(&format!(
                "  \"events_per_sec_improvement\": {},\n  \"deterministic_vs_baseline\": {},\n",
                f64_fixed(improvement, 4),
                b.events_processed == current.events_processed
            ));
        }
        _ => {
            println!("recorded as baseline");
            json.push_str(&format!(
                "  \"baseline\": {},\n",
                sample_json(&current, "  ", 1)
            ));
        }
    }
    json.push_str(&format!(
        "  \"parallel\": {{\n    \"threads\": {threads},\n    \"wall_seconds\": {},\n    \
         \"events_processed\": {},\n    \"events_per_sec\": {},\n    \
         \"events_per_sec_per_core\": {},\n    \
         \"capacity_terminals\": {},\n    \"speedup_vs_single_thread\": {}\n  }},\n",
        f64_fixed(parallel.wall_seconds, 4),
        parallel.events_processed,
        f64_fixed(parallel.events_per_sec, 1),
        f64_fixed(parallel.events_per_sec / threads as f64, 1),
        parallel.capacity,
        f64_fixed(speedup, 4)
    ));
    json.push_str(&format!(
        "  \"speculative\": {{\n    \"threads\": {threads},\n    \
         \"cold_wall_seconds\": {},\n    \"speculative_events\": {},\n    \
         \"wall_seconds\": {},\n    \"events_processed\": {},\n    \
         \"capacity_terminals\": {},\n    \"speedup_vs_parallel\": {},\n    \
         \"counted_matches_sequential\": true\n  }},\n",
        f64_fixed(speculative.cold_wall_seconds, 4),
        speculative.speculative_events,
        f64_fixed(speculative.wall_seconds, 4),
        speculative.events_processed,
        speculative.capacity,
        f64_fixed(spec_speedup, 4)
    ));
    json.push_str(&format!(
        "  \"snapshot\": {{\n    \"threads\": {threads},\n    \
         \"cold_wall_seconds\": {},\n    \"wall_seconds\": {},\n    \
         \"events_processed\": {},\n    \"capacity_terminals\": {},\n    \
         \"speedup_vs_parallel\": {},\n    \
         \"snapshot_captures\": {},\n    \"snapshot_hits\": {},\n    \
         \"forked_terminals\": {},\n    \"snapshot_saved_events\": {},\n    \
         \"counted_matches_sequential\": true\n  }},\n",
        f64_fixed(snapshot.cold_wall_seconds, 4),
        f64_fixed(snapshot.wall_seconds, 4),
        snapshot.events_processed,
        snapshot.capacity,
        f64_fixed(snap_speedup, 4),
        snap_journal.snapshot_captures,
        snap_journal.snapshot_hits,
        snap_journal.forked_terminals,
        snap_journal.snapshot_saved_events,
    ));
    json.push_str("  \"scale\": {\n    \"kernels_agree\": true,\n    \"sizes\": [\n");
    for (i, c) in scale.iter().enumerate() {
        json.push_str(&format!(
            "      {{\n        \"terminals\": {},\n        \"events_processed\": {},\n        \
             \"heap_wall_seconds\": {},\n        \"heap_events_per_sec\": {},\n        \
             \"bucket_wall_seconds\": {},\n        \"bucket_events_per_sec\": {},\n        \
             \"bucket_speedup\": {}\n      }}{}\n",
            c.terminals,
            c.events_processed,
            f64_fixed(c.heap_wall_seconds, 4),
            f64_fixed(c.events_processed as f64 / c.heap_wall_seconds, 1),
            f64_fixed(c.bucket_wall_seconds, 4),
            f64_fixed(c.events_processed as f64 / c.bucket_wall_seconds, 1),
            f64_fixed(c.heap_wall_seconds / c.bucket_wall_seconds, 4),
            if i + 1 == scale.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write(out, json).expect("write BENCH_perf.json");
    println!("wrote {}", out.display());
}
