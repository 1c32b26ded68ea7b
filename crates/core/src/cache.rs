//! Seed-keyed caching of generated video libraries.
//!
//! Library generation draws an exponential frame-size sample per frame of
//! every title and dominates the cost of building a [`VodSystem`]. The
//! library depends only on a handful of configuration fields — the seed,
//! the title count, the per-title stream parameters, and whether §8.1
//! search versions are stored — so every experiment grid that varies
//! schedulers, memory sizes, stripe sizes or terminal counts regenerates
//! the *same* libraries at every grid point. A [`LibraryCache`] shared
//! across a sweep generates each distinct library once and hands out
//! cheap [`Arc`] clones.
//!
//! The cache is `Sync`: the parallel experiment engine's workers
//! ([`Engine`](crate::Engine)) share one cache. It is built on
//! `OnceMemo`, a keyed once-cell: the first requester of a key generates
//! it while concurrent requesters of the same key block on that one
//! generation, so every key is built exactly once and every requester
//! receives the same [`Arc`]. Because those requesters would otherwise
//! sit idle, the cache generates on the thread budget of the engine that
//! created it ([`VodSystem::generate_library_on`]): titles are independent
//! and slotted by id, so the library is byte-identical at any budget.
//!
//! [`ProbeCache`] applies the same idea one level up: a capacity search
//! probes the same `(terminal count, replication)` pairs over and over —
//! the bracket confirmation re-probes a count the bisection later visits,
//! `hi == lo` brackets probe one count twice, and repeated searches over
//! one configuration repeat everything — so every *clean* per-replication
//! probe outcome is cached under `(config fingerprint, count, replication)`
//! and replayed instead of re-simulated.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use spiffi_mpeg::Library;

use crate::config::SystemConfig;
use crate::system::VodSystem;

/// A thread-safe keyed memo: each key's value is built once, by the first
/// caller to ask for it, and shared afterwards.
///
/// The map lock is held only to find or insert the key's cell; the build
/// itself runs under the cell's [`OnceLock`], so other keys stay
/// serviceable while one is built, and concurrent requesters of the same
/// key wait for the single build instead of duplicating it.
pub(crate) struct OnceMemo<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for OnceMemo<K, V> {
    fn default() -> Self {
        OnceMemo {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K, V> std::fmt::Debug for OnceMemo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnceMemo")
            .field("len", &self.map.lock().unwrap().len())
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Eq + Hash, V: Clone> OnceMemo<K, V> {
    /// The value for `key`, built with `build` if no caller has built it
    /// yet.
    pub(crate) fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        let cell = Arc::clone(self.map.lock().unwrap().entry(key).or_default());
        let mut hit = true;
        let value = cell
            .get_or_init(|| {
                hit = false;
                build()
            })
            .clone();
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Distinct keys requested so far.
    pub(crate) fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing has been requested yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests served by an earlier (or concurrent) build.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that ran the build.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The configuration fields [`VodSystem::generate_library`] actually reads,
/// collapsed into a hashable identity. Two configurations with equal keys
/// generate byte-identical libraries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LibraryKey {
    seed: u64,
    n_videos: usize,
    bit_rate_bps: u64,
    fps: u32,
    duration_ns: u64,
    search_speedup: Option<u32>,
    /// Bitrate-heterogeneity from a fault scenario, as `(every, bps)`:
    /// every k-th title is regenerated at an alternate bitrate, so two
    /// configurations differing only in mix must not share a library.
    mix: Option<(u32, u64)>,
}

impl LibraryKey {
    /// The library identity of `cfg`.
    pub fn of(cfg: &SystemConfig) -> Self {
        LibraryKey {
            seed: cfg.seed,
            n_videos: cfg.n_videos,
            bit_rate_bps: cfg.video.bit_rate_bps,
            fps: cfg.video.fps,
            duration_ns: cfg.video.duration.0,
            search_speedup: cfg.search_speedup,
            mix: cfg
                .scenario
                .as_ref()
                .and_then(|s| s.mix)
                .map(|m| (m.every, m.bit_rate_bps)),
        }
    }
}

/// A thread-safe, seed-keyed cache of generated libraries.
#[derive(Debug)]
pub struct LibraryCache {
    memo: OnceMemo<LibraryKey, Arc<Library>>,
    /// Threads each library's titles are generated on.
    threads: usize,
}

impl LibraryCache {
    /// An empty cache that generates each library on up to `threads`
    /// threads.
    pub fn new(threads: usize) -> Self {
        LibraryCache {
            memo: OnceMemo::default(),
            threads: threads.max(1),
        }
    }

    /// The library for `cfg`, generated on first request and shared
    /// afterwards. Concurrent first requests for one library generate it
    /// once; the others wait and share it.
    pub fn get(&self, cfg: &SystemConfig) -> Arc<Library> {
        self.memo.get_or_build(LibraryKey::of(cfg), || {
            Arc::new(VodSystem::generate_library_on(cfg, self.threads))
        })
    }

    /// Distinct libraries currently cached.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.memo.hits()
    }

    /// Requests that had to generate.
    pub fn misses(&self) -> u64 {
        self.memo.misses()
    }
}

/// The deterministic standalone outcome of one replication of a capacity
/// probe: what [`VodSystem::run_glitch_probe`] reports when the run
/// completes *cleanly* — to its own first measured glitch, or to the end
/// of the measurement window — without being truncated by a sibling's
/// cancel flag or by the search abandoning the count. Truncated outcomes
/// are wall-clock artifacts and must never enter the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Glitches measured before the run stopped (0 = glitch-free window).
    pub glitches: u64,
    /// Simulation events the replication processed before stopping.
    pub events: u64,
}

/// Cache key: `(config fingerprint, terminal count, replication index)`.
type ProbeKey = (Arc<str>, u32, u32);

/// A search-wide, thread-safe cache of per-replication probe outcomes,
/// keyed by `(config fingerprint, terminal count, replication index)`.
///
/// The engine consults it before simulating any `(count, replication)`
/// pair and inserts every clean outcome, so no pair is ever simulated
/// twice for one configuration — within a search, across the bracket /
/// bisection phases, and across repeated searches (e.g. the outer
/// [`capacity_with_confidence`](crate::capacity_with_confidence) loop run
/// twice, or a warm re-measurement in a bench harness). Concurrent
/// duplicate insertion is a benign race: clean outcomes are
/// deterministic, so racers insert equal values.
#[derive(Debug, Default)]
pub struct ProbeCache {
    map: Mutex<HashMap<ProbeKey, ProbeOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProbeCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProbeCache::default()
    }

    /// The probe identity of `cfg`: every configuration field *except*
    /// `n_terminals` (which each probe overrides with its candidate
    /// count), rendered through `Debug` into one interned string.
    ///
    /// Rust's `Debug` for floats prints the shortest round-trip
    /// representation, so two configurations with equal fingerprints are
    /// bit-identical as probe inputs — equal fingerprints really do imply
    /// equal outcomes, with no hand-maintained field list to fall out of
    /// sync when `SystemConfig` grows a field.
    pub fn fingerprint(cfg: &SystemConfig) -> Arc<str> {
        let mut c = cfg.clone();
        c.n_terminals = 0;
        Arc::from(format!("{c:?}"))
    }

    /// The cached outcome for replication `r` of a probe at `n` terminals,
    /// if a clean run has been recorded.
    pub fn get(&self, fp: &Arc<str>, n: u32, r: u32) -> Option<ProbeOutcome> {
        let got = self
            .map
            .lock()
            .unwrap()
            .get(&(Arc::clone(fp), n, r))
            .copied();
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Record the clean outcome for replication `r` at `n` terminals.
    pub fn insert(&self, fp: &Arc<str>, n: u32, r: u32, out: ProbeOutcome) {
        self.map.lock().unwrap().insert((Arc::clone(fp), n, r), out);
    }

    /// Distinct `(fingerprint, count, replication)` outcomes cached.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_identity_hits_different_seed_misses() {
        let cache = LibraryCache::new(1);
        let cfg = SystemConfig::small_test();
        let a = cache.get(&cfg);
        let b = cache.get(&cfg);
        assert!(Arc::ptr_eq(&a, &b), "second request must share");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        let mut other = cfg.clone();
        other.seed = cfg.seed + 1;
        let c = cache.get(&other);
        assert!(!Arc::ptr_eq(&a, &c), "different seed, different library");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_first_requests_generate_once() {
        // Regression: `get` used to generate outside the lock, so racing
        // first requests each built (and counted) their own copy. The
        // one build fans out over threads of its own.
        let cache = LibraryCache::new(4);
        let cfg = SystemConfig::small_test();
        let barrier = std::sync::Barrier::new(8);
        let libs: Vec<Arc<Library>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get(&cfg)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.misses(), 1, "one library, one generation");
        assert_eq!(cache.hits(), 7);
        assert!(libs.iter().all(|l| Arc::ptr_eq(l, &libs[0])));
    }

    #[test]
    fn key_ignores_non_library_fields() {
        let cfg = SystemConfig::small_test();
        let mut variant = cfg.clone();
        variant.n_terminals += 100;
        variant.stripe_bytes *= 2;
        variant.server_memory_bytes *= 2;
        assert_eq!(LibraryKey::of(&cfg), LibraryKey::of(&variant));

        let mut longer = cfg.clone();
        longer.video.duration = longer.video.duration + longer.video.duration;
        assert_ne!(LibraryKey::of(&cfg), LibraryKey::of(&longer));

        // A bitrate mix regenerates titles, so it must change the key —
        // but a scenario carrying only faults must not.
        let mut mixed = cfg.clone();
        mixed.scenario = Some(crate::scenario::Scenario {
            mix: Some(crate::scenario::BitrateMix {
                every: 4,
                bit_rate_bps: 15_000_000,
            }),
            ..Default::default()
        });
        assert_ne!(LibraryKey::of(&cfg), LibraryKey::of(&mixed));
        let mut faulted = cfg.clone();
        faulted.scenario = Some(crate::scenario::Scenario::default());
        assert_eq!(LibraryKey::of(&cfg), LibraryKey::of(&faulted));
    }

    #[test]
    fn probe_cache_roundtrip_and_counters() {
        let cache = ProbeCache::new();
        let fp = ProbeCache::fingerprint(&SystemConfig::small_test());
        assert!(cache.is_empty());
        assert_eq!(cache.get(&fp, 10, 0), None);
        let out = ProbeOutcome {
            glitches: 3,
            events: 12345,
        };
        cache.insert(&fp, 10, 0, out);
        assert_eq!(cache.get(&fp, 10, 0), Some(out));
        // Count and replication are both part of the key.
        assert_eq!(cache.get(&fp, 10, 1), None);
        assert_eq!(cache.get(&fp, 15, 0), None);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
    }

    #[test]
    fn probe_fingerprint_ignores_terminal_count_only() {
        let cfg = SystemConfig::small_test();
        let mut more_terms = cfg.clone();
        more_terms.n_terminals += 100;
        assert_eq!(
            ProbeCache::fingerprint(&cfg),
            ProbeCache::fingerprint(&more_terms),
            "probes override n_terminals, so it must not split the cache"
        );
        let mut other_seed = cfg.clone();
        other_seed.seed ^= 1;
        assert_ne!(
            ProbeCache::fingerprint(&cfg),
            ProbeCache::fingerprint(&other_seed),
            "replication seeds derive from the base seed"
        );
        let mut other_mem = cfg.clone();
        other_mem.server_memory_bytes *= 2;
        assert_ne!(
            ProbeCache::fingerprint(&cfg),
            ProbeCache::fingerprint(&other_mem)
        );
    }

    #[test]
    fn cached_library_matches_direct_generation() {
        let cache = LibraryCache::new(2);
        let cfg = SystemConfig::small_test();
        let cached = cache.get(&cfg);
        let direct = VodSystem::generate_library(&cfg);
        assert_eq!(cached.len(), direct.len());
        for i in 0..direct.len() {
            let id = spiffi_mpeg::VideoId(i as u32);
            assert_eq!(
                cached.get(id).total_bytes(),
                direct.get(id).total_bytes(),
                "title {i} differs"
            );
        }
    }

    #[test]
    fn threaded_generation_is_byte_identical() {
        let mut cfg = SystemConfig::small_test();
        cfg.search_speedup = Some(4);
        cfg.scenario = Some(crate::scenario::Scenario {
            mix: Some(crate::scenario::BitrateMix {
                every: 3,
                bit_rate_bps: 15_000_000,
            }),
            ..Default::default()
        });
        let reference = VodSystem::generate_library_on(&cfg, 1);
        assert_eq!(reference.len(), 2 * cfg.n_videos);
        assert!(reference
            .iter()
            .any(|v| v.params().bit_rate_bps == 15_000_000));
        for threads in [2, 8] {
            let lib = VodSystem::generate_library_on(&cfg, threads);
            assert_eq!(lib.len(), reference.len());
            for (a, b) in reference.iter().zip(lib.iter()) {
                assert_eq!(a.id(), b.id());
                assert_eq!(a.params().bit_rate_bps, b.params().bit_rate_bps);
                assert_eq!(a.total_bytes(), b.total_bytes(), "{:?}", a.id());
                for f in 0..=a.num_frames() {
                    assert_eq!(
                        a.cum_bytes_at_frame(f),
                        b.cum_bytes_at_frame(f),
                        "{:?} frame {f} at {threads} threads",
                        a.id()
                    );
                }
            }
        }
    }
}
