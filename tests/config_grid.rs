//! Configuration-grid sweep: every combination of scheduler × policy ×
//! prefetcher × placement runs a short simulation without panicking, with
//! sane reports and bit-identical determinism, and every cell passes
//! `SystemConfig::validate`. This is the guard rail for the whole
//! configuration space the experiment binaries walk.

use spiffi_vod::core::config::InitialPosition;
use spiffi_vod::prelude::*;

fn grid_base() -> SystemConfig {
    let mut c = SystemConfig::small_test();
    c.topology = Topology {
        nodes: 2,
        disks_per_node: 2,
    };
    c.n_videos = 16;
    c.video.duration = SimDuration::from_secs(90);
    c.server_memory_bytes = 32 * 1024 * 1024;
    c.n_terminals = 10;
    c.initial_position = InitialPosition::UniformWithinVideo;
    c.timing = RunTiming {
        stagger: SimDuration::from_secs(4),
        warmup: SimDuration::from_secs(10),
        measure: SimDuration::from_secs(25),
    };
    c
}

fn schedulers() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Fcfs,
        SchedulerKind::Edf,
        SchedulerKind::Elevator,
        SchedulerKind::RoundRobin,
        SchedulerKind::Gss { groups: 3 },
        SchedulerKind::RealTime {
            classes: 3,
            spacing: SimDuration::from_secs(4),
        },
    ]
}

fn prefetchers() -> Vec<PrefetchKind> {
    vec![
        PrefetchKind::Off,
        PrefetchKind::Standard { processes: 1 },
        PrefetchKind::RealTime { processes: 3 },
        PrefetchKind::Delayed {
            processes: 3,
            max_advance: SimDuration::from_secs(6),
        },
    ]
}

fn placements() -> Vec<Placement> {
    vec![
        Placement::Striped,
        Placement::NonStriped,
        Placement::StripeGroup { width: 2 },
    ]
}

fn check_report(r: &RunReport, label: &str) {
    assert!(r.blocks_delivered > 0, "{label}: no data flowed");
    for &u in &r.disk_utilizations {
        assert!((0.0..=1.0).contains(&u), "{label}: disk util {u}");
    }
    assert!(
        (0.0..=1.0).contains(&r.avg_cpu_utilization),
        "{label}: cpu util {}",
        r.avg_cpu_utilization
    );
    assert!(
        r.pool.lookups >= r.pool.resident_hits + r.pool.inflight_hits + r.pool.misses,
        "{label}: pool accounting drift {:?}",
        r.pool
    );
    assert!(
        r.prefetch.issued <= r.prefetch.enqueued,
        "{label}: prefetch accounting drift {:?}",
        r.prefetch
    );
    assert!(r.io_latency_max_ms >= r.io_latency_mean_ms || r.pool.misses == 0);
}

#[test]
fn scheduler_x_prefetcher_grid_runs_and_is_deterministic() {
    for sched in schedulers() {
        for pf in prefetchers() {
            let mut c = grid_base().with_scheduler(sched);
            c.prefetch = pf;
            let label = format!("{}/{}", sched.label(), pf.label());
            assert_eq!(c.validate(), Ok(()), "{label}");
            let a = run_once(&c);
            check_report(&a, &label);
            let b = run_once(&c);
            assert_eq!(
                (a.blocks_delivered, a.glitches, a.events_processed),
                (b.blocks_delivered, b.glitches, b.events_processed),
                "{label}: nondeterministic"
            );
        }
    }
}

#[test]
fn policy_x_placement_grid_runs() {
    for policy in [PolicyKind::GlobalLru, PolicyKind::LovePrefetch] {
        for placement in placements() {
            let mut c = grid_base();
            c.policy = policy;
            c.placement = placement;
            let label = format!("{}/{:?}", policy.label(), placement);
            assert_eq!(c.validate(), Ok(()), "{label}");
            let r = run_once(&c);
            check_report(&r, &label);
        }
    }
}

#[test]
fn stripe_size_x_terminal_memory_grid_runs() {
    for stripe_kb in [128u64, 512, 1024] {
        for term_mb in [2u64, 4] {
            let mut c = grid_base();
            c.stripe_bytes = stripe_kb * 1024;
            c.terminal_memory_bytes = term_mb * 1024 * 1024;
            let label = format!("{stripe_kb}KB/{term_mb}MB");
            assert_eq!(c.validate(), Ok(()), "{label}");
            let r = run_once(&c);
            check_report(&r, &label);
        }
    }
}

#[test]
fn feature_combinations_run() {
    // Pauses + piggybacking + aligned starts + real-time + delayed
    // prefetching + stripe groups, all at once.
    let mut c = grid_base().with_scheduler(SchedulerKind::RealTime {
        classes: 3,
        spacing: SimDuration::from_secs(4),
    });
    c.policy = PolicyKind::LovePrefetch;
    c.prefetch = PrefetchKind::Delayed {
        processes: 3,
        max_advance: SimDuration::from_secs(6),
    };
    c.placement = Placement::StripeGroup { width: 2 };
    c.pause = Some(PauseConfig::default());
    c.piggyback_delay = Some(SimDuration::from_secs(15));
    c.initial_position = InitialPosition::Start;
    assert_eq!(c.validate(), Ok(()), "kitchen-sink");
    let r = run_once(&c);
    check_report(&r, "kitchen-sink");
}
