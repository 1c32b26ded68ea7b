//! The parallel experiment engine must be invisible in the results: any
//! thread count produces bit-identical reports and capacities, because
//! each replication owns its RNG and calendar and results are slotted by
//! replication index. The probe early-exit protocol is deterministic too —
//! only the prefix of replications up to the first (lowest-indexed)
//! glitching one is ever counted, and that prefix cannot depend on thread
//! scheduling.

use std::sync::atomic::AtomicU32;

use spiffi_core::{
    replication_seed, CapacitySearch, Engine, ProbeCache, RunReport, SystemConfig, VodSystem,
};
use spiffi_simcore::SimDuration;

/// The tiny single-disk configuration used throughout the core tests:
/// capacity lands in single digits and a full search takes well under a
/// second, but the workload still exercises disks, prefetching and the
/// buffer pool.
fn tiny() -> SystemConfig {
    let mut c = SystemConfig::small_test();
    c.topology = spiffi_layout::Topology {
        nodes: 1,
        disks_per_node: 1,
    };
    c.n_videos = 40;
    c.access = spiffi_mpeg::AccessPattern::Uniform;
    c.video.duration = SimDuration::from_secs(60);
    c.server_memory_bytes = 16 * 1024 * 1024;
    c.timing.stagger = SimDuration::from_secs(5);
    c.timing.warmup = SimDuration::from_secs(10);
    c.timing.measure = SimDuration::from_secs(30);
    c
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Golden seeds for the capacity property: an arbitrary spread across the
/// seed space, fixed so failures reproduce.
const GOLDEN_SEEDS: [u64; 3] = [0x5eed, 0x00de_ad00_beef, u64::MAX / 7];

#[test]
fn run_replications_is_identical_at_every_thread_count() {
    let mut cfg = tiny();
    cfg.n_terminals = 6;
    let seeds: Vec<u64> = vec![1, 99, 0xabcdef, u64::MAX];

    let reference: Vec<RunReport> = Engine::with_threads(1).run_replications(&cfg, &seeds);
    assert_eq!(reference.len(), seeds.len());
    // Distinct seeds must actually produce distinct runs, or the equality
    // below would be vacuous.
    assert!(
        reference
            .iter()
            .skip(1)
            .any(|r| r.events_processed != reference[0].events_processed),
        "seeds should differentiate the runs"
    );

    for threads in THREAD_COUNTS {
        let got = Engine::with_threads(threads).run_replications(&cfg, &seeds);
        assert_eq!(got, reference, "thread count {threads} changed a report");
    }
}

#[test]
fn capacity_search_is_identical_at_every_thread_count() {
    let search = CapacitySearch {
        lo: 2,
        hi: 40,
        step: 2,
        replications: 2,
    };
    for seed in GOLDEN_SEEDS {
        let mut cfg = tiny();
        cfg.seed = seed;
        let reference = Engine::with_threads(1).max_glitch_free_terminals(&cfg, &search);
        for threads in THREAD_COUNTS {
            let got = Engine::with_threads(threads).max_glitch_free_terminals(&cfg, &search);
            assert_eq!(
                got.max_terminals, reference.max_terminals,
                "thread count {threads} changed the capacity for seed {seed:#x}"
            );
            assert_eq!(
                got.probes, reference.probes,
                "thread count {threads} changed the probe sequence for seed {seed:#x}"
            );
            assert_eq!(
                got.events_processed, reference.events_processed,
                "thread count {threads} changed the counted event total for seed {seed:#x}"
            );
        }
    }
}

/// The tentpole guarantee of the speculative search: at every thread
/// count, cold or pre-warmed, the full observable `CapacityResult` —
/// capacity, the probe log (counts *and* per-probe glitch totals), the
/// counted event total and the below-bracket flag — is byte-identical to
/// the one-thread sequential bisection. Only `speculative_events`, the
/// explicitly wall-clock-dependent waste counter, may differ.
#[test]
fn speculative_search_is_identical_to_sequential() {
    let search = CapacitySearch {
        lo: 2,
        hi: 40,
        step: 2,
        replications: 2,
    };
    for seed in GOLDEN_SEEDS {
        let mut cfg = tiny();
        cfg.seed = seed;
        let reference = Engine::with_threads(1).max_glitch_free_terminals(&cfg, &search);
        assert_eq!(
            reference.speculative_events, 0,
            "sequential resolution must not speculate"
        );
        for threads in THREAD_COUNTS {
            let engine = Engine::with_threads(threads);
            let cold = engine.max_glitch_free_terminals(&cfg, &search);
            assert_eq!(
                cold.max_terminals, reference.max_terminals,
                "thread count {threads} changed the capacity for seed {seed:#x}"
            );
            assert_eq!(
                cold.probes, reference.probes,
                "thread count {threads} changed the probe log for seed {seed:#x}"
            );
            assert_eq!(
                cold.events_processed, reference.events_processed,
                "thread count {threads} changed the counted events for seed {seed:#x}"
            );
            assert_eq!(cold.below_bracket, reference.below_bracket);

            // Same engine again: every pair replays from the probe cache.
            let warm = engine.max_glitch_free_terminals(&cfg, &search);
            assert_eq!(warm.max_terminals, reference.max_terminals);
            assert_eq!(warm.probes, reference.probes);
            assert_eq!(warm.events_processed, reference.events_processed);
            assert_eq!(
                warm.speculative_events, 0,
                "a fully warm search has nothing left to speculate"
            );
        }
    }
}

/// The speculative search's order and abandonment are invisible in the
/// results whichever way the first midpoint goes. The bracket 2..28 first
/// bisects at 14, which comes out clean at seed 0 (the search then
/// speculates above it) and glitches at seed 5 (below it). Every outcome
/// left in the probe cache must equal a one-thread run of its pair, so a
/// run the search abandoned or cancelled never enters the cache.
#[test]
fn speculation_order_and_abandonment_leave_results_unchanged() {
    let search = CapacitySearch {
        lo: 2,
        hi: 28,
        step: 2,
        replications: 2,
    };
    for (seed, midpoint_glitches) in [(0, false), (5, true)] {
        let mut cfg = tiny();
        cfg.seed = seed;
        let reference = Engine::with_threads(1).max_glitch_free_terminals(&cfg, &search);
        assert_eq!(reference.probes[2].0, 14, "first midpoint moved");
        assert_eq!(
            reference.probes[2].1 > 0,
            midpoint_glitches,
            "seed {seed} no longer covers its case: {:?}",
            reference.probes
        );
        for threads in [1, 2, 3] {
            let engine = Engine::with_threads(threads);
            let got = engine.max_glitch_free_terminals(&cfg, &search);
            assert_eq!(
                got.max_terminals, reference.max_terminals,
                "{threads} threads, seed {seed}"
            );
            assert_eq!(
                got.probes, reference.probes,
                "{threads} threads, seed {seed}"
            );
            assert_eq!(
                got.events_processed, reference.events_processed,
                "{threads} threads, seed {seed}"
            );

            let fp = ProbeCache::fingerprint(&cfg);
            let mut checked = 0;
            for n in (search.lo..=search.hi).step_by(search.step as usize) {
                for r in 0..search.replications {
                    let Some(cached) = engine.probe_cache().get(&fp, n, r) else {
                        continue;
                    };
                    let mut c = cfg.clone();
                    c.n_terminals = n;
                    c.seed = replication_seed(cfg.seed, r);
                    let alone = VodSystem::new(c).run_glitch_probe(&AtomicU32::new(u32::MAX), r);
                    assert_eq!(
                        (cached.glitches, cached.events),
                        (alone.glitches, alone.events_processed),
                        "cached ({n}, {r}) differs from its one-thread run at {threads} threads"
                    );
                    checked += 1;
                }
            }
            assert!(checked > 0, "no clean outcome was cached");
            assert_eq!(
                checked,
                engine.probe_cache().len(),
                "an off-grid pair was cached"
            );
        }
    }
}

/// A probe cache pre-warmed by one engine must be a pure accelerator for
/// another: handing a parallel engine's cache to a sequential engine (and
/// vice versa) changes nothing observable.
#[test]
fn prewarmed_probe_cache_is_invisible_in_results() {
    let search = CapacitySearch {
        lo: 2,
        hi: 40,
        step: 2,
        replications: 2,
    };
    let cfg = tiny();
    let reference = Engine::with_threads(1).max_glitch_free_terminals(&cfg, &search);

    let warmer = Engine::with_threads(8);
    let warmed = warmer.max_glitch_free_terminals(&cfg, &search);
    assert_eq!(warmed.probes, reference.probes);

    for threads in THREAD_COUNTS {
        let engine = Engine::with_caches(
            threads,
            std::sync::Arc::clone(warmer.cache()),
            std::sync::Arc::clone(warmer.probe_cache()),
        );
        let got = engine.max_glitch_free_terminals(&cfg, &search);
        assert_eq!(got.max_terminals, reference.max_terminals);
        assert_eq!(got.probes, reference.probes);
        assert_eq!(got.events_processed, reference.events_processed);
        assert_eq!(got.below_bracket, reference.below_bracket);
        assert_eq!(
            got.speculative_events, 0,
            "a pre-warmed search at {threads} threads re-simulated something"
        );
    }
}

#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<spiffi_core::LibraryCache>();
    // The pieces a worker thread owns outright: the simulation kernel's
    // RNG and calendar, and the whole assembled system.
    assert_send::<spiffi_simcore::SimRng>();
    assert_send::<spiffi_simcore::Calendar<spiffi_core::Event>>();
    assert_send::<spiffi_core::VodSystem>();
    assert_send::<spiffi_core::RunReport>();
}
