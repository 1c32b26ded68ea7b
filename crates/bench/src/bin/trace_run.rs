//! Record one fully instrumented run: JSONL + Chrome/Perfetto trace +
//! engine journal.
//!
//! Runs the standard 4-disk workload once with a `(TraceRecorder, Sampler)`
//! probe attached — every disk I/O, CPU span, network send, buffer-pool
//! event and terminal transition lands in the trace, and a 1 s sampler
//! tracks per-disk utilization, network bytes/s, pool occupancy and
//! outstanding deadlines. Then a small capacity search on an [`Engine`]
//! populates the run journal (per-probe wall time, cache hits, speculation
//! waste).
//!
//! Outputs, written to the repo root next to `BENCH_perf.json`:
//!
//! - `TRACE_run.jsonl` — one JSON object per line, merged events + samples
//!   in timestamp order (every line carries `type` and `t_ns`).
//! - `TRACE_run.trace.json` — Chrome `trace_event` JSON; open it in
//!   <https://ui.perfetto.dev> or `chrome://tracing`.
//! - `TRACE_journal.json` — the engine's run-journal snapshot.
//!
//! Usage:
//! ```text
//!   trace_run                    # full workload (120 s measurement window)
//!   trace_run --small            # CI-sized run (30 s window, fewer terminals)
//!   trace_run --forensics        # overload run + TRACE_forensics.json dump
//!   trace_run --scenario <file>  # fault-plan run + TRACE_scenario.json verdict
//! ```
//!
//! `--scenario` runs a fault-injection plan end to end: the plan file is
//! parsed and validated, the CI-sized workload runs with the scenario's
//! perturbations firing as calendar events (each firing lands in the
//! Perfetto export as an instant event on the fault track, written to
//! `TRACE_scenario.trace.json`), the faulted capacity is measured with an
//! [`Engine`] search, and the plan's `expect` thresholds are evaluated
//! against the run. The machine-readable verdict
//! goes to `TRACE_scenario.json`; the exit code is 0 when every threshold
//! passes, 1 when any fails, and 2 on a malformed plan. Faulted runs are
//! exactly as deterministic as clean ones, so the whole stdout is
//! byte-identical at any `SPIFFI_THREADS` setting.
//!
//! `--forensics` additionally runs a deliberately overloaded population
//! under a [`GlitchForensics`] probe: bounded rings of recent per-terminal
//! transitions and system context freeze at the first glitch and land in
//! `TRACE_forensics.json`.
//!
//! The binary cross-checks the trace against the report it rode along
//! with: the sampled per-disk utilization mean over the measurement window
//! must match `RunReport::avg_disk_utilization` within 1%, and the
//! recorder's dispatch tally must equal `events_processed`.

use spiffi_core::{
    CapacitySearch, Engine, FaultPlan, GlitchForensics, Sampler, SystemConfig, TraceRecorder,
    VodSystem,
};
use spiffi_mpeg::AccessPattern;
use spiffi_simcore::{SimDuration, SimTime};
use spiffi_trace::export;
use spiffi_trace::json::f64_fixed;
use spiffi_trace::{ForensicsDump, TraceEvent};

/// The perf_baseline workload shape: one node, four disks, uniform access
/// over 64 one-minute titles, memory far below the working set.
fn workload_config(small: bool) -> SystemConfig {
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
    c.timing.measure = SimDuration::from_secs(if small { 30 } else { 120 });
    c.n_terminals = if small { 12 } else { 24 };
    c.seed = 0x005b_1ff1_9e4f;
    c
}

/// Sampling interval: 1 s tiles the warmup and measurement windows
/// exactly, so the sampled utilization mean is directly comparable to the
/// report's window aggregate.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Forensics ring depth: the last 64 probe events per ring is enough to
/// see the I/O backlog leading into a glitch without ballooning the dump.
const FORENSICS_DEPTH: usize = 64;

/// Run a deliberately overloaded population (far above the workload's
/// ~60-terminal capacity) under a [`GlitchForensics`] probe and return the
/// dump frozen at the first glitch.
fn forensics_run(cfg: &SystemConfig) -> Option<ForensicsDump> {
    let mut c = cfg.clone();
    c.n_terminals = 200;
    c.timing.measure = SimDuration::from_secs(10);
    let library = VodSystem::generate_library(&c);
    let system = VodSystem::with_probe(c, library, GlitchForensics::new(FORENSICS_DEPTH));
    let (report, probe) = system.run_traced();
    let dump = probe.dump().cloned();
    match &dump {
        Some(d) => println!(
            "forensics: terminal {} glitched at {:.3} s ({} history entries, {} context events; \
             {} glitches measured in the overload run)",
            d.terminal,
            d.at.saturating_since(SimTime::ZERO).as_secs_f64(),
            d.history.len(),
            d.context.len(),
            report.glitches,
        ),
        None => println!("forensics: the overload run never glitched — no dump to write"),
    }
    dump
}

/// Run one fault-plan scenario end to end and return the process exit
/// code: 0 when every configured threshold passes, 1 when any fails, 2
/// when the plan itself is malformed or inconsistent with the workload.
///
/// The traced run uses the CI-sized workload (12 terminals, 30 s window)
/// so each plan's node/disk indices and fault times are written against a
/// fixed, known schedule; the capacity search then measures how many
/// terminals the *faulted* system still sustains glitch-free, which the
/// plan's `min_capacity` gate bounds from below.
fn scenario_run(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scenario: cannot read {path}: {e}");
            return 2;
        }
    };
    let plan = match FaultPlan::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("scenario {path}: {e}");
            return 2;
        }
    };
    let mut cfg = workload_config(true);
    if let Err(e) = plan.scenario.validate_against(&cfg.timing) {
        eprintln!("scenario {path}: {e}");
        return 2;
    }
    cfg.scenario = Some(plan.scenario.clone());
    if let Err(e) = cfg.validate() {
        eprintln!("scenario {path}: {e}");
        return 2;
    }
    let nodes = cfg.topology.nodes as usize;
    let disks_per_node = cfg.topology.disks_per_node as usize;

    println!("== trace_run --scenario: {} ==", plan.name);
    println!(
        "plan: {} fault(s){}; workload: {} terminals, {} disks, {} s window\n",
        plan.scenario.faults.len(),
        if plan.scenario.mix.is_some() {
            " + bitrate mix"
        } else {
            ""
        },
        cfg.n_terminals,
        nodes * disks_per_node,
        cfg.timing.measure.as_secs_f64(),
    );

    let library = VodSystem::generate_library(&cfg);
    let probe = (
        TraceRecorder::new(),
        Sampler::new(SAMPLE_INTERVAL, nodes, disks_per_node),
    );
    let system = VodSystem::with_probe(cfg.clone(), library, probe);
    let (report, (recorder, sampler)) = system.run_traced();

    let mut faults_fired = 0u64;
    for ev in recorder.events() {
        if let TraceEvent::Fault { now, ev } = ev {
            faults_fired += 1;
            println!(
                "fault @ {:.3} s: {ev:?}",
                now.saturating_since(SimTime::ZERO).as_secs_f64()
            );
        }
    }
    println!("{}", report.summary());
    println!("faults fired: {faults_fired}");

    let chrome = export::chrome_trace(recorder.events(), sampler.rows());
    std::fs::write("TRACE_scenario.trace.json", &chrome).expect("write TRACE_scenario.trace.json");

    // The recovered-capacity search: the same bracketed bisection the
    // clean workload uses, on the faulted config. Every probe injects the
    // scenario, so the answer is the population the system sustains
    // *through* the faults — the floor `min_capacity` gates.
    let engine = Engine::new();
    engine.journal().record_faults(faults_fired);
    let search = CapacitySearch {
        lo: 4,
        hi: 96,
        step: 4,
        replications: 1,
    };
    let result = engine.max_glitch_free_terminals(&cfg, &search);
    println!(
        "faulted capacity: {} terminals ({} probes{})",
        result.max_terminals,
        result.probes.len(),
        if result.below_bracket {
            ", below bracket"
        } else {
            ""
        },
    );

    let verdicts = plan
        .thresholds
        .evaluate(&report, Some(result.max_terminals));
    for v in &verdicts {
        println!(
            "check {}: limit {}, actual {} — {}",
            v.check,
            v.limit,
            v.actual,
            if v.pass { "pass" } else { "FAIL" },
        );
    }
    if verdicts.is_empty() {
        println!("plan sets no thresholds — nothing gated");
    }
    let all_pass = verdicts.iter().all(|v| v.pass);

    let glitch_ppm = report.glitches.saturating_mul(1_000_000) / report.blocks_delivered.max(1);
    let mut json = format!(
        "{{\n  \"scenario\": \"{}\",\n  \"plan_file\": \"{path}\",\n  \"faults_fired\": {faults_fired},\n  \
         \"report\": {{\n    \"terminals\": {},\n    \"glitches\": {},\n    \
         \"blocks_delivered\": {},\n    \"glitch_ppm\": {glitch_ppm},\n    \
         \"io_latency_max_ms\": {},\n    \"deadline_misses\": {}\n  }},\n  \
         \"capacity_terminals\": {},\n  \"below_bracket\": {},\n  \"verdicts\": [\n",
        plan.name,
        report.terminals,
        report.glitches,
        report.blocks_delivered,
        f64_fixed(report.io_latency_max_ms, 3),
        report.deadline_misses,
        result.max_terminals,
        result.below_bracket,
    );
    for (i, v) in verdicts.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"check\": \"{}\", \"limit\": {}, \"actual\": {}, \"pass\": {}}}{}\n",
            v.check,
            v.limit,
            v.actual,
            v.pass,
            if i + 1 == verdicts.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!("  ],\n  \"pass\": {all_pass}\n}}\n"));
    std::fs::write("TRACE_scenario.json", json).expect("write TRACE_scenario.json");

    println!("\nwrote TRACE_scenario.trace.json (open in https://ui.perfetto.dev)");
    println!("wrote TRACE_scenario.json (pass: {all_pass})");
    if all_pass {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--scenario") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--scenario requires a plan-file path");
            std::process::exit(2);
        };
        std::process::exit(scenario_run(path));
    }
    if let Some(bad) = args[1..]
        .iter()
        .find(|a| !matches!(a.as_str(), "--small" | "--forensics"))
    {
        eprintln!("trace_run: unknown argument {bad:?} (expected --small, --forensics, or --scenario <file>)");
        std::process::exit(2);
    }
    let small = args.iter().any(|a| a == "--small");
    let forensics = args.iter().any(|a| a == "--forensics");
    let cfg = workload_config(small);
    let nodes = cfg.topology.nodes as usize;
    let disks_per_node = cfg.topology.disks_per_node as usize;

    println!("== trace_run: instrumented run + engine journal ==");
    println!(
        "workload: {} terminals, {} disks, {} s window{}\n",
        cfg.n_terminals,
        nodes * disks_per_node,
        cfg.timing.measure.as_secs_f64(),
        if small { " (--small)" } else { "" }
    );

    let library = VodSystem::generate_library(&cfg);
    let probe = (
        TraceRecorder::new(),
        Sampler::new(SAMPLE_INTERVAL, nodes, disks_per_node),
    );
    let system = VodSystem::with_probe(cfg.clone(), library, probe);
    let (report, (recorder, sampler)) = system.run_traced();

    println!("{}", report.summary());
    println!(
        "events: {}   trace events: {}   samples: {}   histogram rejected: {}",
        report.events_processed,
        recorder.events().len(),
        sampler.rows().len(),
        report.io_latency_rejected,
    );

    // Cross-checks: the trace must agree with the report it observed.
    assert_eq!(
        recorder.dispatch_total(),
        report.events_processed,
        "recorder saw a different event count than the simulator"
    );
    let window_start = SimTime::ZERO + cfg.timing.warmup;
    let window_end = window_start + cfg.timing.measure;
    let sampled = sampler.mean_disk_utilization(window_start, window_end);
    let reported = report.avg_disk_utilization;
    let rel = (sampled - reported).abs() / reported.max(1e-9);
    println!(
        "disk utilization over the window: sampled {:.4}  reported {:.4}  (rel err {:.3}%)",
        sampled,
        reported,
        rel * 100.0
    );
    assert!(
        rel < 0.01,
        "sampled disk-utilization mean {sampled:.4} diverges from the report's {reported:.4}"
    );

    let jsonl = export::jsonl(recorder.events(), sampler.rows());
    std::fs::write("TRACE_run.jsonl", &jsonl).expect("write TRACE_run.jsonl");
    let chrome = export::chrome_trace(recorder.events(), sampler.rows());
    std::fs::write("TRACE_run.trace.json", &chrome).expect("write TRACE_run.trace.json");

    // A small capacity search to exercise the engine journal: run it
    // twice so the second pass shows up as cache hits. The workload's
    // capacity sits around 60 terminals, so the [4, 96] bracket bisects.
    let search = CapacitySearch {
        lo: 4,
        hi: 96,
        step: 4,
        replications: 1,
    };
    let engine = Engine::new();
    let mut search_cfg = cfg;
    search_cfg.timing.measure = SimDuration::from_secs(30);
    let result = engine.max_glitch_free_terminals(&search_cfg, &search);
    engine.max_glitch_free_terminals(&search_cfg, &search);
    let journal = engine.journal().snapshot();
    println!(
        "journal: capacity {} terminals, {} searches, {} simulated + {} cached probe runs, \
         {:.1} ms simulating, {} speculative events",
        result.max_terminals,
        journal.searches,
        journal.simulated(),
        journal.cache_hits(),
        journal.total_wall_nanos() as f64 / 1e6,
        journal.speculative_events,
    );
    std::fs::write("TRACE_journal.json", journal.to_json()).expect("write TRACE_journal.json");

    if forensics {
        let fdump = forensics_run(&workload_config(small));
        // A glitch-free overload run still writes a real object (not
        // `null`): jq gates keyed on `.glitches == 0` can tell "no glitch
        // happened" apart from "the file was never written", instead of
        // passing vacuously on a missing or null dump.
        let fjson = match &fdump {
            Some(d) => d.to_json(),
            None => "{\n  \"glitches\": 0,\n  \"dump\": null\n}\n".to_string(),
        };
        std::fs::write("TRACE_forensics.json", fjson).expect("write TRACE_forensics.json");
    }

    println!("\nwrote TRACE_run.jsonl ({} lines)", jsonl.lines().count());
    println!("wrote TRACE_run.trace.json (open in https://ui.perfetto.dev)");
    if forensics {
        println!("wrote TRACE_forensics.json");
    }
    println!("wrote TRACE_journal.json");
}
