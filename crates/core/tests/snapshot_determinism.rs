//! The warm-snapshot fork path must be invisible in the results: forking
//! a captured base warm-up up to `n` terminals replays the exact run a
//! from-scratch marginal build at `n` produces, and a full capacity
//! search in [`SnapshotMode::Warm`] is byte-identical to the from-scratch
//! [`SnapshotMode::Cold`] reference at every thread count. Per-terminal
//! RNG streams are what make this hold: a terminal's workload draws
//! depend only on its own index, never on how many other terminals exist.
//!
//! The probe-path bugfix regression for the `Histogram::quantile(1.0)`
//! contract rides along (the auto-bracket rounding fix has dedicated unit
//! tests next to `round_to_grid` in the driver).

use std::sync::atomic::AtomicU32;
use std::sync::Arc;

use spiffi_core::{CapacitySearch, Engine, LibraryCache, SnapshotMode, SystemConfig, VodSystem};
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

const GOLDEN_SEEDS: [u64; 3] = [0x5eed, 0x00de_ad00_beef, u64::MAX / 7];

/// A marginal-timing config: the driver extends the warm-up by one
/// stagger window before probing, so the direct fork tests do the same.
fn marginal_cfg(n_terminals: u32, seed: u64) -> SystemConfig {
    let mut c = tiny();
    c.timing.warmup += c.timing.stagger;
    c.n_terminals = n_terminals;
    c.seed = seed;
    c
}

/// The tentpole contract at the system level: capture the base warm-up
/// once, fork to `n`, and the [`RunReport`](spiffi_core::RunReport) —
/// every field, floats bit-exact via `PartialEq` — equals the
/// from-scratch marginal build at `n`. The counted event total includes
/// the replayed prefix, so even `events_processed` matches.
#[test]
fn fork_matches_from_scratch_marginal_build() {
    let base = 2u32;
    for seed in GOLDEN_SEEDS {
        let cache = LibraryCache::new();
        let mut snap = {
            let c = marginal_cfg(base, seed);
            let lib = cache.get(&c);
            VodSystem::with_library_marginal(c, lib, base)
        };
        snap.replay_to_snapshot();
        let replayed = snap.events_processed();
        assert!(replayed > 0, "the base warm-up should process events");
        for n in [3u32, 5, 8] {
            let c = marginal_cfg(n, seed);
            let lib = cache.get(&c);
            let fresh = VodSystem::with_library_marginal(c, lib, base)
                .run_glitch_probe(&AtomicU32::new(u32::MAX), 0);
            let forked = snap
                .fork_to(n)
                .run_glitch_probe(&AtomicU32::new(u32::MAX), 0);
            assert_eq!(
                forked, fresh,
                "fork_to({n}) diverged from the from-scratch marginal build (seed {seed:#x})"
            );
        }
        // The snapshot itself is untouched by forking: fork again at a
        // count already probed and get the same bytes.
        let again = snap
            .fork_to(5)
            .run_glitch_probe(&AtomicU32::new(u32::MAX), 0);
        let c = marginal_cfg(5, seed);
        let lib = cache.get(&c);
        let fresh = VodSystem::with_library_marginal(c, lib, base)
            .run_glitch_probe(&AtomicU32::new(u32::MAX), 0);
        assert_eq!(again, fresh, "a second fork from the same snapshot drifted");
    }
}

/// The search-level gate: `SPIFFI_SNAPSHOT=1` (Warm) produces the exact
/// `CapacityResult` of the from-scratch marginal reference (Cold) — the
/// capacity, the probe log with per-probe glitch totals, the counted
/// event total and the bracket flag — at one, two and eight threads.
#[test]
fn warm_search_is_byte_identical_to_cold_at_every_thread_count() {
    let search = CapacitySearch {
        lo: 2,
        hi: 40,
        step: 2,
        replications: 2,
    };
    for seed in GOLDEN_SEEDS {
        let mut cfg = tiny();
        cfg.seed = seed;
        let reference = Engine::with_threads(1)
            .with_snapshot_mode(SnapshotMode::Cold)
            .max_glitch_free_terminals(&cfg, &search);
        for threads in THREAD_COUNTS {
            for mode in [SnapshotMode::Cold, SnapshotMode::Warm] {
                let engine = Engine::with_threads(threads).with_snapshot_mode(mode);
                let got = engine.max_glitch_free_terminals(&cfg, &search);
                assert_eq!(
                    got.max_terminals, reference.max_terminals,
                    "{mode:?} at {threads} threads changed the capacity for seed {seed:#x}"
                );
                assert_eq!(
                    got.probes, reference.probes,
                    "{mode:?} at {threads} threads changed the probe log for seed {seed:#x}"
                );
                assert_eq!(
                    got.events_processed, reference.events_processed,
                    "{mode:?} at {threads} threads changed the counted events for seed {seed:#x}"
                );
                assert_eq!(got.below_bracket, reference.below_bracket);
                if mode == SnapshotMode::Warm {
                    assert!(
                        engine.snapshot_cache().captures() > 0,
                        "the warm search never actually captured a snapshot"
                    );
                    let j = engine.journal().snapshot();
                    assert_eq!(j.snapshot_captures, engine.snapshot_cache().captures());
                    assert_eq!(j.snapshot_hits, engine.snapshot_cache().hits());
                }
            }
        }
    }
}

/// Warm forks pay off across *repeated* searches too: a second search on
/// the same warm engine (fresh probe cache withheld by using a widened
/// bracket) reuses the captured base snapshots rather than replaying the
/// warm-up.
#[test]
fn second_search_reuses_captured_snapshots() {
    let cfg = tiny();
    let engine = Engine::with_threads(1).with_snapshot_mode(SnapshotMode::Warm);
    let narrow = CapacitySearch {
        lo: 2,
        hi: 12,
        step: 2,
        replications: 2,
    };
    let wide = CapacitySearch {
        lo: 2,
        hi: 40,
        step: 2,
        replications: 2,
    };
    engine.max_glitch_free_terminals(&cfg, &narrow);
    let captures_after_first = engine.snapshot_cache().captures();
    assert!(captures_after_first > 0);
    engine.max_glitch_free_terminals(&cfg, &wide);
    assert_eq!(
        engine.snapshot_cache().captures(),
        captures_after_first,
        "the second search should fork the existing snapshots, not capture new ones"
    );
    assert!(
        engine.snapshot_cache().hits() > 0,
        "the second search never consulted the snapshot cache"
    );
}

/// With a zero stagger the marginal terminals would join exactly at the
/// measurement boundary and tie-break on schedule order, so Warm must
/// degrade to the Cold path: same answer, nothing captured.
#[test]
fn warm_degrades_to_cold_when_stagger_is_zero() {
    let mut cfg = tiny();
    cfg.timing.stagger = SimDuration::ZERO;
    let search = CapacitySearch {
        lo: 2,
        hi: 16,
        step: 2,
        replications: 1,
    };
    let cold = Engine::with_threads(1)
        .with_snapshot_mode(SnapshotMode::Cold)
        .max_glitch_free_terminals(&cfg, &search);
    let warm_engine = Engine::with_threads(1).with_snapshot_mode(SnapshotMode::Warm);
    let warm = warm_engine.max_glitch_free_terminals(&cfg, &search);
    assert_eq!(warm.max_terminals, cold.max_terminals);
    assert_eq!(warm.probes, cold.probes);
    assert_eq!(warm.events_processed, cold.events_processed);
    assert!(
        warm_engine.snapshot_cache().is_empty(),
        "a zero-stagger search must not capture snapshots"
    );
}

/// Marginal probes are cached under a different fingerprint than legacy
/// probes, so flipping the snapshot mode on a shared probe cache can
/// never cross-contaminate outcomes.
#[test]
fn snapshot_modes_do_not_share_probe_cache_entries() {
    let cfg = tiny();
    let search = CapacitySearch {
        lo: 2,
        hi: 12,
        step: 2,
        replications: 1,
    };
    let engine = Engine::with_threads(1);
    let off = engine.max_glitch_free_terminals(&cfg, &search);
    let entries_off = engine.probe_cache().len();
    let engine = Engine::with_caches(
        1,
        Arc::clone(engine.cache()),
        Arc::clone(engine.probe_cache()),
    )
    .with_snapshot_mode(SnapshotMode::Cold);
    let cold = engine.max_glitch_free_terminals(&cfg, &search);
    assert!(
        engine.probe_cache().len() > entries_off,
        "marginal probes must occupy their own cache entries"
    );
    // Both modes answer the same question; on this tiny config the
    // answers agree even though the timelines differ.
    assert_eq!(off.below_bracket, cold.below_bracket);
}

/// Regression (`Histogram::quantile(1.0)`): p100 used to report the top
/// bin's upper edge — a value that may never have been observed — instead
/// of the recorded maximum.
#[test]
fn histogram_p100_is_the_recorded_max() {
    let mut h = spiffi_simcore::stats::Histogram::new(1.0, 10);
    for v in [0.2, 3.7, 9.1] {
        h.add(v);
    }
    assert_eq!(h.quantile(1.0), h.max());
    assert_eq!(h.quantile(1.0), 9.1);
}
