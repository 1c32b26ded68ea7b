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

use spiffi_core::{run_once, RunReport, SystemConfig, VodSystem};
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
