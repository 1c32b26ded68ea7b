//! `--trace 1`: one checked repetition, its simulations replayed with the
//! layer probe, and the layer microbenchmarks at the shapes the replay
//! recorded.

use std::path::Path;

use spiffi_core::SystemConfig;
use spiffi_layout::Layout;
use spiffi_mpeg::VideoId;

use crate::layer::{ratio, Replayer, KINDS};
use crate::micro;
use crate::workloads::{Output, Workload};
use crate::{held_out, print_answers, repetition, wrong_answers, Summary};

/// Driver-level figures of the repetition's capacity searches.
#[derive(Default)]
struct Driver {
    probes: u64,
    counted: u64,
    speculative: u64,
    overhead_s: f64,
    library_misses: u64,
    probe_hits: u64,
}

/// Configurations the microbenchmark shapes come from.
struct Shapes {
    /// Smallest server memory.
    small: SystemConfig,
    /// Largest server memory.
    large: SystemConfig,
    /// Highest load: the configuration with the largest answer, at that
    /// many terminals.
    busiest: SystemConfig,
}

/// Run the traced repetition of `w` and report every per-layer metric.
pub fn traced(w: Workload, workload_seed: u64) -> Summary {
    let seed = w.timed_seed(workload_seed);
    let mut sum = Summary {
        attempted: w.ops_per_rep(),
        ..Summary::default()
    };
    let Some(rep) = repetition(w, seed) else {
        sum.failed = sum.attempted;
        return sum;
    };
    sum.failed += wrong_answers(&rep.output, &w.expected(seed), &mut None);
    print_answers(w, &rep.output, true);
    held_out(&mut sum, w, workload_seed);

    let mut replay = Replayer::new();
    let mut driver = Driver::default();
    let shapes = match &rep.output {
        Output::Searches(s) => {
            for (i, ((cfg, r), wall)) in s.configs.iter().zip(&s.results).zip(&s.walls).enumerate()
            {
                let plain_s = replay.search(i as u32 + 1, cfg, &r.probes, r.events_processed);
                driver.probes += r.probes.len() as u64;
                driver.counted += r.events_processed;
                driver.speculative += r.speculative_events;
                driver.overhead_s += wall - plain_s;
            }
            driver.library_misses = s.library_misses;
            driver.probe_hits = s.probe_hits;
            let memory = |c: &&SystemConfig| c.server_memory_bytes;
            let (cfg, r) = s
                .configs
                .iter()
                .zip(&s.results)
                .max_by_key(|(_, r)| r.max_terminals)
                .expect("a repetition runs at least one search");
            let mut busiest = cfg.clone();
            busiest.n_terminals = r.max_terminals.max(1);
            Shapes {
                small: s
                    .configs
                    .iter()
                    .min_by_key(memory)
                    .expect("one search")
                    .clone(),
                large: s
                    .configs
                    .iter()
                    .max_by_key(memory)
                    .expect("one search")
                    .clone(),
                busiest,
            }
        }
        Output::Run(report) => {
            let cfg = crate::workloads::steady(seed);
            replay.run(1, &cfg, report);
            Shapes {
                small: cfg.clone(),
                large: cfg.clone(),
                busiest: cfg,
            }
        }
    };
    sum.failed += replay.mismatches;

    report_counts(&mut sum, &replay, &driver);
    report_micro(&mut sum, &mut replay, &shapes);
    sum.metric(
        "trace.overhead_pct",
        (replay.traced_s / replay.plain_s - 1.0) * 100.0,
        "%",
        &format!(
            "traced {:.3} s vs untraced {:.3} s over the same runs",
            replay.traced_s, replay.plain_s
        ),
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{workload_seed}.jsonl", w.name()));
    match replay.write_spans(&path, w.name()) {
        Ok(n) => println!("spans: {n} written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    sum
}

/// Counts and host self time from the replay and the searches.
fn report_counts(sum: &mut Summary, replay: &Replayer, d: &Driver) {
    let c = replay.counts();
    println!(
        "per-layer ({} replayed events, {:.3} s untraced):",
        replay.events, replay.plain_s
    );
    sum.metric(
        "core.events",
        c.total_events() as f64,
        "count",
        "replayed runs",
    );
    sum.metric(
        "core.ns_per_event",
        replay.plain_s * 1e9 / replay.events.max(1) as f64,
        "ns",
        "untraced replay wall / events",
    );
    let self_total = c.self_ns.iter().sum();
    for (k, kind) in KINDS.iter().enumerate() {
        sum.metric(
            format!("core.self_ns.{kind}"),
            ratio(c.self_ns[k], c.events[k]),
            "ns",
            &format!(
                "per event, {:.1}% of host time",
                ratio(c.self_ns[k], self_total) * 100.0
            ),
        );
    }
    for (k, kind) in KINDS.iter().enumerate() {
        sum.metric(
            format!("core.events.{kind}"),
            c.events[k] as f64,
            "count",
            "",
        );
    }
    sum.metric("core.driver.probes", d.probes as f64, "count", "");
    sum.metric("core.driver.counted_events", d.counted as f64, "count", "");
    sum.metric(
        "core.driver.spec_waste_ratio",
        ratio(d.speculative, d.counted + d.speculative),
        "ratio",
        &format!("{} speculative events", d.speculative),
    );
    sum.metric(
        "core.driver.overhead_s",
        d.overhead_s,
        "s",
        "search wall minus its untraced probe runs",
    );
    sum.metric(
        "core.cache.library_misses",
        d.library_misses as f64,
        "count",
        "",
    );
    sum.metric("core.cache.probe_hits", d.probe_hits as f64, "count", "");
    sum.metric(
        "sched.queue_depth_p50",
        c.depth_quantile(0.5) as f64,
        "count",
        "at read start",
    );
    sum.metric(
        "sched.queue_depth_p99",
        c.depth_quantile(0.99) as f64,
        "count",
        "at read start",
    );
    sum.metric(
        "sched.deadline_misses",
        c.deadline_misses as f64,
        "count",
        "demand reads",
    );
    sum.metric("disk.reads_demand", c.reads_demand as f64, "count", "");
    sum.metric("disk.reads_prefetch", c.reads_prefetch as f64, "count", "");
    sum.metric(
        "disk.util",
        ratio(c.disk_busy_ns, c.disk_avail_ns),
        "ratio",
        "simulated",
    );
    sum.metric(
        "bufferpool.hit_rate",
        ratio(c.pool_hits + c.pool_inflight_hits, c.lookups()),
        "ratio",
        &format!(
            "{:.1}% resident, {:.1}% in-flight of {} lookups",
            ratio(c.pool_hits, c.lookups()) * 100.0,
            ratio(c.pool_inflight_hits, c.lookups()) * 100.0,
            c.lookups()
        ),
    );
    sum.metric("bufferpool.evictions", c.evictions as f64, "count", "");
    sum.metric(
        "bufferpool.alloc_failures",
        c.alloc_failures as f64,
        "count",
        "",
    );
    sum.metric(
        "prefetch.issued",
        c.prefetch_issued as f64,
        "count",
        "measurement windows",
    );
    sum.metric(
        "prefetch.useful_ratio",
        ratio(c.prefetch_used, c.prefetch_inserts),
        "ratio",
        &format!(
            "{} used of {} inserted",
            c.prefetch_used, c.prefetch_inserts
        ),
    );
    sum.metric(
        "prefetch.cancelled",
        c.prefetch_cancelled as f64,
        "count",
        "measurement windows",
    );
    sum.metric("net.messages", c.net_messages as f64, "count", "");
    sum.metric("cpu.jobs", c.cpu_jobs as f64, "count", "");
    sum.metric(
        "cpu.util",
        ratio(c.cpu_busy_ns, c.cpu_avail_ns),
        "ratio",
        "simulated",
    );
}

/// The layer microbenchmarks, fed the shapes the replay recorded.
fn report_micro(sum: &mut Summary, replay: &mut Replayer, shapes: &Shapes) {
    let cost = |sum: &mut Summary, name: &str, unit: &'static str, m: micro::Cost| {
        sum.metric(name, m.value, unit, &m.shape);
    };
    let Shapes {
        small,
        large,
        busiest,
    } = shapes;
    let (events, sim_ns) = (replay.counts().total_events(), replay.counts().sim_ns);
    let depth = replay.pending_depth(busiest);
    // Little's law: a depth-`depth` calendar at the replay's event rate.
    let horizon_ns = depth as f64 * sim_ns as f64 / events.max(1) as f64;
    cost(
        sum,
        "simcore.hold_ns",
        "ns",
        micro::calendar_hold(depth, horizon_ns),
    );

    let c = replay.counts();
    let sched_depth = c.depth_quantile(0.5) as usize;
    let hit = ratio(c.pool_hits, c.lookups());
    let inflight = ratio(c.pool_inflight_hits, c.lookups());
    let lib = replay.library(busiest);
    let used = Layout::striped(busiest.topology, busiest.stripe_bytes, &lib).max_disk_used_bytes();
    let cylinders = busiest.disk.with_capacity_for(used).num_cylinders;
    cost(
        sum,
        "sched.op_ns",
        "ns",
        micro::scheduler_hold(busiest.scheduler, sched_depth, cylinders),
    );
    cost(
        sum,
        "disk.read_ns",
        "ns",
        micro::disk_read(busiest.disk, used, busiest.stripe_bytes),
    );
    cost(
        sum,
        "bufferpool.lookup_ns",
        "ns",
        micro::pool_lookup(large.frames_per_node(), large.policy, hit, inflight),
    );
    cost(
        sum,
        "bufferpool.alloc_ns",
        "ns",
        micro::pool_alloc(small.frames_per_node(), small.policy),
    );
    cost(
        sum,
        "bufferpool.alloc_ns_max_mem",
        "ns",
        micro::pool_alloc(large.frames_per_node(), large.policy),
    );
    cost(
        sum,
        "layout.locate_ns",
        "ns",
        micro::layout_locate(busiest.topology, busiest.stripe_bytes, &lib),
    );
    cost(
        sum,
        "mpeg.generate_ms",
        "ms",
        micro::library_generate(busiest.n_videos, busiest.video, busiest.seed),
    );
    let video = lib.get(VideoId(0));
    cost(
        sum,
        "mpeg.frame_at_byte_ns",
        "ns",
        micro::frame_at_byte(video),
    );
    cost(
        sum,
        "core.pump_ns",
        "ns",
        micro::terminal_pump(video, busiest.stripe_bytes, busiest.terminal_memory_bytes),
    );
}
