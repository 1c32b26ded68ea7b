//! Golden-report regression test.
//!
//! Determinism is sacred: for a fixed seed and configuration, the
//! simulator must produce a byte-identical [`RunReport`] across code
//! changes that claim to be behavior-preserving (e.g. the allocation-free
//! scheduler/disk hot-path rewrites). These constants were captured when
//! workload randomness moved to per-terminal RNG streams; any drift in
//! them means the observable
//! simulation changed, not just its speed.
//!
//! Float fields are compared by `to_bits()` — "byte-identical" means
//! exactly that, not approximately equal.
//!
//! The search rows pin one capacity search per scheduler (capacity, every
//! probe and the counted events) and the scale rows pin two large steady
//! runs; together they are the counted-work gate a speed-only change must
//! leave untouched.

use spiffi_core::config::InitialPosition;
use spiffi_core::{
    replication_seed, run_once, CapacityResult, CapacitySearch, Engine, RunReport, SystemConfig,
    VodSystem,
};
use spiffi_mpeg::AccessPattern;
use spiffi_sched::SchedulerKind;
use spiffi_simcore::SimDuration;

fn tiny(scheduler: SchedulerKind, n_terminals: u32) -> SystemConfig {
    let mut c = SystemConfig::small_test();
    c.topology = spiffi_layout::Topology {
        nodes: 1,
        disks_per_node: 2,
    };
    c.n_videos = 40;
    c.access = AccessPattern::Uniform;
    c.video.duration = SimDuration::from_secs(60);
    c.server_memory_bytes = 16 * 1024 * 1024;
    c.timing.stagger = SimDuration::from_secs(5);
    c.timing.warmup = SimDuration::from_secs(10);
    c.timing.measure = SimDuration::from_secs(30);
    c.scheduler = scheduler;
    c.n_terminals = n_terminals;
    c.seed = 0x5b1ff1;
    c
}

/// One golden row: the integer core of the report plus bit-exact floats.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    glitches: u64,
    blocks_delivered: u64,
    videos_completed: u64,
    events_processed: u64,
    deadline_misses: u64,
    avg_disk_utilization_bits: u64,
    net_peak_bits: u64,
    io_latency_mean_bits: u64,
}

fn capture(scheduler: SchedulerKind, n_terminals: u32) -> Golden {
    let r = run_once(&tiny(scheduler, n_terminals));
    Golden {
        glitches: r.glitches,
        blocks_delivered: r.blocks_delivered,
        videos_completed: r.videos_completed,
        events_processed: r.events_processed,
        deadline_misses: r.deadline_misses,
        avg_disk_utilization_bits: r.avg_disk_utilization.to_bits(),
        net_peak_bits: r.net_peak_bytes_per_sec.to_bits(),
        io_latency_mean_bits: r.io_latency_mean_ms.to_bits(),
    }
}

#[test]
fn golden_realtime() {
    let g = capture(
        SchedulerKind::RealTime {
            classes: 3,
            spacing: SimDuration::from_secs(4),
        },
        8,
    );
    println!("GOLDEN realtime: {g:?}");
    assert_eq!(
        g,
        Golden {
            glitches: 0,
            blocks_delivered: 229,
            videos_completed: 0,
            events_processed: 2441,
            deadline_misses: 0,
            avg_disk_utilization_bits: 4597346758475504232,
            net_peak_bits: 4707390259288080384,
            io_latency_mean_bits: 4635123579290191049,
        }
    );
}

#[test]
fn golden_elevator() {
    let g = capture(SchedulerKind::Elevator, 40);
    println!("GOLDEN elevator: {g:?}");
    assert_eq!(
        g,
        Golden {
            glitches: 107,
            blocks_delivered: 1035,
            videos_completed: 0,
            events_processed: 10196,
            deadline_misses: 89,
            avg_disk_utilization_bits: 4607174054898085960,
            net_peak_bits: 4716537989872746496,
            io_latency_mean_bits: 4652885962662289357,
        }
    );
}

#[test]
fn golden_gss() {
    let g = capture(SchedulerKind::Gss { groups: 4 }, 40);
    println!("GOLDEN gss: {g:?}");
    assert_eq!(
        g,
        Golden {
            glitches: 45,
            blocks_delivered: 1024,
            videos_completed: 0,
            events_processed: 10008,
            deadline_misses: 57,
            avg_disk_utilization_bits: 4607182418800017408,
            net_peak_bits: 4716256514896035840,
            io_latency_mean_bits: 4652994685457242973,
        }
    );
}

/// Project a report onto the golden row (same fields as [`capture`]).
fn golden_of(r: &RunReport) -> Golden {
    Golden {
        glitches: r.glitches,
        blocks_delivered: r.blocks_delivered,
        videos_completed: r.videos_completed,
        events_processed: r.events_processed,
        deadline_misses: r.deadline_misses,
        avg_disk_utilization_bits: r.avg_disk_utilization.to_bits(),
        net_peak_bits: r.net_peak_bytes_per_sec.to_bits(),
        io_latency_mean_bits: r.io_latency_mean_ms.to_bits(),
    }
}

/// Replaying to `warmup − stagger` (as the layer benchmark does to read
/// the event-queue depth) keeps the calendar's lifetime accounting
/// consistent, and finishing the replayed run reproduces a fresh run.
#[test]
fn replay_preserves_calendar_accounting_and_reports() {
    let cfg = {
        let mut c = tiny(SchedulerKind::Elevator, 12);
        c.timing.measure = SimDuration::from_secs(20);
        c
    };
    let lib = VodSystem::generate_library(&cfg);
    let mut sys = VodSystem::with_library(cfg.clone(), lib.clone());
    sys.replay_to_snapshot();
    let (pending, scheduled, processed) = (
        sys.pending_events(),
        sys.scheduled_events_total(),
        sys.events_processed(),
    );
    println!(
        "calendar accounting (pending, scheduled, processed): {pending}, {scheduled}, {processed}"
    );
    assert!(pending > 0, "the replay must leave events pending");
    assert!(
        scheduled >= processed + pending as u64,
        "scheduled_total must cover processed + pending events"
    );
    assert_eq!(
        golden_of(&sys.run()),
        golden_of(&VodSystem::with_library(cfg, lib).run()),
        "a replayed run diverged from a fresh one"
    );
}

#[test]
fn golden_overloaded_realtime() {
    // Over capacity: glitches must be non-zero and still byte-stable.
    let g = capture(
        SchedulerKind::RealTime {
            classes: 3,
            spacing: SimDuration::from_secs(4),
        },
        40,
    );
    println!("GOLDEN overloaded: {g:?}");
    assert_eq!(
        g,
        Golden {
            glitches: 67,
            blocks_delivered: 1056,
            videos_completed: 0,
            events_processed: 10361,
            deadline_misses: 64,
            avg_disk_utilization_bits: 4607175913465347582,
            net_peak_bits: 4716538161671438336,
            io_latency_mean_bits: 4652513707330735653,
        }
    );
}

/// A batched run (§8.2): every terminal starts its title from the first
/// frame, tune-ins spread over 10 s and start requests for a title are
/// held 5 s to gather a piggyback group. With 40 terminals over twelve
/// titles, 22 of them end up following another terminal's stream.
fn piggyback_workload() -> SystemConfig {
    let mut c = tiny(SchedulerKind::Elevator, 40);
    c.n_videos = 12;
    c.initial_position = InitialPosition::Start;
    c.timing.stagger = SimDuration::from_secs(10);
    c.piggyback_delay = Some(SimDuration::from_secs(5));
    c
}

#[test]
fn golden_piggyback() {
    let r = run_once(&piggyback_workload());
    let g = (golden_of(&r), r.terminals_piggybacked);
    println!("GOLDEN piggyback (report, piggybacked): {g:?}");
    assert_eq!(
        g,
        (
            Golden {
                glitches: 0,
                blocks_delivered: 529,
                videos_completed: 0,
                events_processed: 5266,
                deadline_misses: 0,
                avg_disk_utilization_bits: 4606213731201088259,
                net_peak_bits: 4712738352565059584,
                io_latency_mean_bits: 4640004768182512539,
            },
            22
        )
    );
}

/// The counted-search workload: one node of four disks, uniform access
/// over 64 one-minute titles and 32 MiB of buffer, far below the working
/// set. The base seed is the engine's replication-seed derivation (the
/// SplitMix64 golden-ratio increment) inverted, so replication 0 runs
/// seed `0x005b_1ff1_9e4f`.
fn search_workload(scheduler: SchedulerKind) -> SystemConfig {
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
    c.scheduler = scheduler;
    c.seed = 0x005b_1ff1_9e4fu64.wrapping_sub(0x9e37_79b9_7f4a_7c15);
    c
}

const SEARCH: CapacitySearch = CapacitySearch {
    lo: 4,
    hi: 96,
    step: 4,
    replications: 1,
};

/// The counted outcome of a capacity search: every field of
/// [`CapacityResult`] except the thread-dependent `speculative_events`.
#[derive(Debug, PartialEq, Eq)]
struct SearchGolden {
    max_terminals: u32,
    probes: Vec<(u32, u64)>,
    events_processed: u64,
    below_bracket: bool,
}

fn search_golden(r: &CapacityResult) -> SearchGolden {
    SearchGolden {
        max_terminals: r.max_terminals,
        probes: r.probes.clone(),
        events_processed: r.events_processed,
        below_bracket: r.below_bracket,
    }
}

/// Search `scheduler`'s capacity on one and on two threads: the counted
/// outcome must agree, and one thread must not speculate.
fn capture_search(scheduler: SchedulerKind) -> SearchGolden {
    let cfg = search_workload(scheduler);
    assert_eq!(replication_seed(cfg.seed, 0), 0x005b_1ff1_9e4f);
    let one = Engine::with_threads(1).max_glitch_free_terminals(&cfg, &SEARCH);
    assert_eq!(one.speculative_events, 0, "one thread must not speculate");
    let two = Engine::with_threads(2).max_glitch_free_terminals(&cfg, &SEARCH);
    assert_eq!(
        search_golden(&one),
        search_golden(&two),
        "the search's counted outcome depends on the thread count"
    );
    search_golden(&one)
}

fn realtime_3x4() -> SchedulerKind {
    SchedulerKind::RealTime {
        classes: 3,
        spacing: SimDuration::from_secs(4),
    }
}

#[test]
fn golden_search_elevator() {
    let g = capture_search(SchedulerKind::Elevator);
    println!("GOLDEN search elevator: {g:?}");
    assert_eq!(
        g,
        SearchGolden {
            max_terminals: 60,
            probes: vec![(4, 0), (96, 1), (48, 0), (72, 1), (60, 0), (64, 1)],
            events_processed: 149608,
            below_bracket: false,
        }
    );
}

#[test]
fn golden_search_gss() {
    let g = capture_search(SchedulerKind::Gss { groups: 4 });
    println!("GOLDEN search gss: {g:?}");
    assert_eq!(
        g,
        SearchGolden {
            max_terminals: 56,
            probes: vec![(4, 0), (96, 1), (48, 0), (72, 1), (60, 1), (52, 0), (56, 0)],
            events_processed: 196629,
            below_bracket: false,
        }
    );
}

#[test]
fn golden_search_realtime() {
    let g = capture_search(realtime_3x4());
    println!("GOLDEN search realtime: {g:?}");
    assert_eq!(
        g,
        SearchGolden {
            max_terminals: 52,
            probes: vec![(4, 0), (96, 1), (48, 0), (72, 1), (60, 1), (52, 0), (56, 1)],
            events_processed: 171804,
            below_bracket: false,
        }
    );
}

/// The scale workload: `terminals / 32` nodes of four disks, 32 MiB of
/// buffer per node and a short schedule, well inside the glitch knee, so
/// the run measures steady streaming at a deep event queue.
fn scale_workload(n_terminals: u32) -> SystemConfig {
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

#[test]
fn golden_scale() {
    let cfg = scale_workload(4_096);
    let library = VodSystem::generate_library(&cfg);
    let counted: Vec<(u32, u64, u64)> = [4_096, 16_384]
        .into_iter()
        .map(|n| {
            let r = VodSystem::with_library(scale_workload(n), library.clone()).run();
            (n, r.events_processed, r.glitches)
        })
        .collect();
    println!("GOLDEN scale (terminals, events, glitches): {counted:?}");
    assert_eq!(counted, [(4_096, 684163, 0), (16_384, 2717649, 0)]);
}

/// The configurations the golden rows run are valid ones.
#[test]
fn golden_workloads_validate() {
    for scheduler in [
        SchedulerKind::Elevator,
        SchedulerKind::Gss { groups: 4 },
        realtime_3x4(),
    ] {
        let mut c = search_workload(scheduler);
        c.n_terminals = SEARCH.hi;
        assert_eq!(c.validate(), Ok(()), "{scheduler:?}");
    }
    for n in [4_096, 16_384] {
        assert_eq!(scale_workload(n).validate(), Ok(()), "{n} terminals");
    }
    assert_eq!(piggyback_workload().validate(), Ok(()));
}
