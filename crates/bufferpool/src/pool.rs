//! The buffer pool proper: page table, pinning, in-flight merging, stats.

use spiffi_layout::BlockAddr;
use spiffi_simcore::FastHashMap;

use crate::policy::{PolicyKind, ReplacementPolicy};

/// Slot index of a page frame within the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FrameId(pub u32);

/// Result of a page-table lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// The block is resident and can be served from memory.
    Resident(FrameId),
    /// An I/O for the block is already in flight; attach a waiter.
    InFlight(FrameId),
    /// The block is not in the pool.
    Miss,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameState {
    InFlight { is_prefetch: bool },
    Resident { was_prefetch: bool },
}

#[derive(Debug)]
struct Frame {
    key: BlockAddr,
    state: FrameState,
    pins: u32,
    /// Ever explicitly referenced by a terminal.
    ever_referenced: bool,
    /// The terminal that last referenced this page (Figure 16 statistics).
    last_referencer: Option<u32>,
    /// Opaque tokens of requests waiting for the in-flight I/O.
    waiters: Vec<u64>,
}

/// Pool statistics over the current measurement window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Terminal lookups (the denominator of Figure 16).
    pub lookups: u64,
    /// Lookups served from a resident page.
    pub resident_hits: u64,
    /// Lookups merged onto an in-flight I/O.
    pub inflight_hits: u64,
    /// Lookups requiring a new I/O.
    pub misses: u64,
    /// Lookups that found a page previously referenced by a *different*
    /// terminal (the numerator of Figure 16).
    pub shared_references: u64,
    /// Pages inserted by the prefetcher.
    pub prefetch_inserts: u64,
    /// Prefetched pages that were later referenced (useful prefetches).
    pub prefetch_used: u64,
    /// Prefetched pages evicted without ever being referenced (wasted
    /// prefetches — the failure mode of global LRU under aggressive
    /// prefetching, §7.3).
    pub prefetch_wasted: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Allocation attempts that failed because every page was pinned.
    pub alloc_failures: u64,
}

impl PoolStats {
    /// Fraction of lookups that found a page another terminal had already
    /// referenced (Figure 16's y-axis).
    pub fn shared_reference_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.shared_references as f64 / self.lookups as f64
        }
    }

    /// Fraction of lookups served without a new disk I/O.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.resident_hits + self.inflight_hits) as f64 / self.lookups as f64
        }
    }

    /// Reset all counters (measurement-window boundary).
    pub fn reset(&mut self) {
        *self = PoolStats::default();
    }
}

/// A fixed-capacity buffer pool of stripe-block page frames.
pub struct BufferPool {
    frames: Vec<Frame>,
    free: Vec<FrameId>,
    // Never iterated, so the deterministic fast hasher is safe here.
    map: FastHashMap<BlockAddr, FrameId>,
    policy: Box<dyn ReplacementPolicy>,
    stats: PoolStats,
    /// Whether the most recent counted lookup found a page last referenced
    /// by a different terminal (per-event detail behind
    /// [`PoolStats::shared_references`], for observation probes).
    last_lookup_shared: bool,
    /// Whether the most recent [`BufferPool::allocate`] evicted a resident
    /// page to make room.
    last_alloc_evicted: bool,
}

impl BufferPool {
    /// A pool of `capacity` frames managed by `policy`.
    pub fn new(capacity: usize, policy: PolicyKind) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            frames: Vec::with_capacity(capacity),
            free: (0..capacity as u32).rev().map(FrameId).collect(),
            map: FastHashMap::with_capacity_and_hasher(capacity, Default::default()),
            policy: policy.build(capacity),
            stats: PoolStats::default(),
            last_lookup_shared: false,
            last_alloc_evicted: false,
        }
    }

    /// Total frames.
    pub fn capacity(&self) -> usize {
        self.frames
            .capacity()
            .max(self.frames.len() + self.free.len())
    }

    /// Frames currently holding pages (resident or in flight).
    pub fn in_use(&self) -> usize {
        self.map.len()
    }

    /// Statistics for the current window.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Reset statistics at a measurement-window boundary.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Page-table lookup on behalf of `terminal` (pass `None` for internal
    /// probes, which are not counted in the reference statistics).
    pub fn lookup(&mut self, key: BlockAddr, terminal: Option<u32>) -> LookupResult {
        let result = match self.map.get(&key) {
            Some(&f) => match self.frames[f.0 as usize].state {
                FrameState::Resident { .. } => LookupResult::Resident(f),
                FrameState::InFlight { .. } => LookupResult::InFlight(f),
            },
            None => LookupResult::Miss,
        };
        if let Some(t) = terminal {
            self.stats.lookups += 1;
            self.last_lookup_shared = false;
            match result {
                LookupResult::Resident(f) | LookupResult::InFlight(f) => {
                    let frame = &self.frames[f.0 as usize];
                    if frame.ever_referenced && frame.last_referencer != Some(t) {
                        self.stats.shared_references += 1;
                        self.last_lookup_shared = true;
                    }
                    if matches!(result, LookupResult::Resident(_)) {
                        self.stats.resident_hits += 1;
                    } else {
                        self.stats.inflight_hits += 1;
                    }
                }
                LookupResult::Miss => self.stats.misses += 1,
            }
        }
        result
    }

    /// Allocate a frame for a new I/O on `key`. The frame starts pinned
    /// (the I/O holds a pin until [`BufferPool::complete_io`]). Returns
    /// `None` when every page is pinned — the §7.3 "server began to run out
    /// of free pages" condition.
    ///
    /// # Panics
    /// If `key` is already present; callers must look up first.
    pub fn allocate(&mut self, key: BlockAddr, is_prefetch: bool) -> Option<FrameId> {
        assert!(
            !self.map.contains_key(&key),
            "allocate for a block already in the pool: {key:?}"
        );
        self.last_alloc_evicted = false;
        let f = match self.free.pop() {
            Some(f) => {
                if f.0 as usize == self.frames.len() {
                    // First use of this slot: create the frame in place.
                    self.frames.push(Frame {
                        key,
                        state: FrameState::InFlight { is_prefetch },
                        pins: 1,
                        ever_referenced: false,
                        last_referencer: None,
                        waiters: Vec::new(),
                    });
                    self.finish_alloc(f, key, is_prefetch, true);
                    return Some(f);
                }
                f
            }
            None => {
                let frames = &self.frames;
                let victim = self.policy.victim(&|f: FrameId| {
                    let fr = &frames[f.0 as usize];
                    fr.pins == 0 && matches!(fr.state, FrameState::Resident { .. })
                });
                match victim {
                    Some(v) => {
                        self.evict(v);
                        v
                    }
                    None => {
                        self.stats.alloc_failures += 1;
                        return None;
                    }
                }
            }
        };
        // Reset the recycled frame field by field rather than overwriting
        // the struct: the waiter vector's capacity survives for reuse.
        let fr = &mut self.frames[f.0 as usize];
        fr.key = key;
        fr.state = FrameState::InFlight { is_prefetch };
        fr.pins = 1;
        fr.ever_referenced = false;
        fr.last_referencer = None;
        fr.waiters.clear();
        self.finish_alloc(f, key, is_prefetch, true);
        Some(f)
    }

    fn finish_alloc(&mut self, f: FrameId, key: BlockAddr, is_prefetch: bool, _new: bool) {
        self.map.insert(key, f);
        self.policy.on_insert(f, is_prefetch);
        if is_prefetch {
            self.stats.prefetch_inserts += 1;
        }
    }

    fn evict(&mut self, f: FrameId) {
        let frame = &self.frames[f.0 as usize];
        debug_assert_eq!(frame.pins, 0, "evicting a pinned frame");
        debug_assert!(frame.waiters.is_empty(), "evicting a frame with waiters");
        if let FrameState::Resident { was_prefetch } = frame.state {
            if was_prefetch && !frame.ever_referenced {
                self.stats.prefetch_wasted += 1;
            }
        }
        self.stats.evictions += 1;
        self.last_alloc_evicted = true;
        let key = frame.key;
        self.map.remove(&key);
        self.policy.on_remove(f);
    }

    /// Mark the in-flight I/O on `f` complete, releasing the I/O pin and
    /// draining any waiters attached while it was in flight.
    pub fn complete_io(&mut self, f: FrameId) -> Vec<u64> {
        let mut out = Vec::new();
        self.complete_io_into(f, &mut out);
        out
    }

    /// [`BufferPool::complete_io`], draining the waiters into a
    /// caller-owned buffer (cleared first) instead of allocating one. The
    /// event loop hands the same buffer back on every disk completion, so
    /// the per-I/O waiter allocation disappears; the frame keeps its own
    /// vector's capacity for the next in-flight period.
    pub fn complete_io_into(&mut self, f: FrameId, out: &mut Vec<u64>) {
        let frame = &mut self.frames[f.0 as usize];
        let is_prefetch = match frame.state {
            FrameState::InFlight { is_prefetch } => is_prefetch,
            FrameState::Resident { .. } => panic!("complete_io on a resident frame"),
        };
        frame.state = FrameState::Resident {
            was_prefetch: is_prefetch,
        };
        debug_assert!(frame.pins >= 1);
        frame.pins -= 1;
        out.clear();
        out.append(&mut frame.waiters);
    }

    /// Attach a waiter token to an in-flight frame.
    ///
    /// # Panics
    /// If the frame is not in flight.
    pub fn add_waiter(&mut self, f: FrameId, token: u64) {
        let frame = &mut self.frames[f.0 as usize];
        assert!(
            matches!(frame.state, FrameState::InFlight { .. }),
            "waiter on a frame with no in-flight I/O"
        );
        frame.waiters.push(token);
    }

    /// Record an explicit reference by `terminal` — updates recency, the
    /// prefetched→referenced transition, and sharing statistics.
    pub fn record_reference(&mut self, f: FrameId, terminal: u32) {
        let frame = &mut self.frames[f.0 as usize];
        if !frame.ever_referenced {
            if let FrameState::Resident { was_prefetch: true }
            | FrameState::InFlight { is_prefetch: true } = frame.state
            {
                self.stats.prefetch_used += 1;
            }
        }
        frame.ever_referenced = true;
        frame.last_referencer = Some(terminal);
        self.policy.on_reference(f);
    }

    /// Pin `f` against eviction.
    pub fn pin(&mut self, f: FrameId) {
        self.frames[f.0 as usize].pins += 1;
    }

    /// Release one pin on `f`.
    ///
    /// # Panics
    /// If the frame is not pinned.
    pub fn unpin(&mut self, f: FrameId) {
        let frame = &mut self.frames[f.0 as usize];
        assert!(frame.pins > 0, "unpin of an unpinned frame");
        frame.pins -= 1;
    }

    /// The block held by frame `f`.
    pub fn key_of(&self, f: FrameId) -> BlockAddr {
        self.frames[f.0 as usize].key
    }

    /// True if any resident unpinned page exists (an allocation would
    /// succeed).
    pub fn has_free_or_evictable(&mut self) -> bool {
        if !self.free.is_empty() {
            return true;
        }
        let frames = &self.frames;
        self.policy
            .victim(&|f: FrameId| {
                let fr = &frames[f.0 as usize];
                fr.pins == 0 && matches!(fr.state, FrameState::Resident { .. })
            })
            .is_some()
    }

    /// Whether the most recent counted lookup (one with a terminal) found
    /// a page last referenced by a *different* terminal. Per-event view of
    /// [`PoolStats::shared_references`], for observation probes.
    pub fn last_lookup_shared(&self) -> bool {
        self.last_lookup_shared
    }

    /// Whether the most recent [`BufferPool::allocate`] evicted a resident
    /// page (as opposed to taking a never-used frame or failing).
    pub fn last_alloc_evicted(&self) -> bool {
        self.last_alloc_evicted
    }

    /// Name of the replacement policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity())
            .field("in_use", &self.in_use())
            .field("policy", &self.policy.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiffi_mpeg::VideoId;

    fn key(v: u32, i: u32) -> BlockAddr {
        BlockAddr {
            video: VideoId(v),
            index: i,
        }
    }

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(capacity, PolicyKind::GlobalLru)
    }

    #[test]
    fn miss_then_allocate_then_hit() {
        let mut p = pool(4);
        assert_eq!(p.lookup(key(0, 0), Some(1)), LookupResult::Miss);
        let f = p.allocate(key(0, 0), false).unwrap();
        assert_eq!(p.lookup(key(0, 0), Some(1)), LookupResult::InFlight(f));
        let waiters = p.complete_io(f);
        assert!(waiters.is_empty());
        assert_eq!(p.lookup(key(0, 0), Some(1)), LookupResult::Resident(f));
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().inflight_hits, 1);
        assert_eq!(p.stats().resident_hits, 1);
        assert_eq!(p.in_use(), 1);
    }

    #[test]
    fn waiters_drain_on_completion() {
        let mut p = pool(4);
        let f = p.allocate(key(0, 0), true).unwrap();
        p.add_waiter(f, 101);
        p.add_waiter(f, 102);
        assert_eq!(p.complete_io(f), vec![101, 102]);
    }

    #[test]
    fn complete_io_into_reuses_the_callers_buffer() {
        let mut p = pool(2);
        let f0 = p.allocate(key(0, 0), false).unwrap();
        p.add_waiter(f0, 101);
        p.add_waiter(f0, 102);
        let mut buf = Vec::with_capacity(16);
        let cap = buf.capacity();
        p.complete_io_into(f0, &mut buf);
        assert_eq!(buf, vec![101, 102]);
        assert_eq!(buf.capacity(), cap, "drain must not reallocate");
        // Stale contents are cleared, not appended to.
        let f1 = p.allocate(key(0, 1), false).unwrap();
        p.add_waiter(f1, 7);
        p.complete_io_into(f1, &mut buf);
        assert_eq!(buf, vec![7]);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn recycled_frame_keeps_waiter_capacity() {
        let mut p = pool(1);
        let f0 = p.allocate(key(0, 0), false).unwrap();
        for t in 0..32 {
            p.add_waiter(f0, t);
        }
        assert_eq!(p.complete_io(f0).len(), 32);
        // Evict-and-reallocate must recycle the frame's waiter vector
        // rather than dropping it: a fresh waiter fits without growth.
        let f1 = p.allocate(key(0, 1), false).unwrap();
        assert_eq!(f1, f0, "single-frame pool must recycle the frame");
        p.add_waiter(f1, 99);
        assert_eq!(p.complete_io(f1), vec![99]);
    }

    #[test]
    #[should_panic(expected = "no in-flight I/O")]
    fn waiter_on_resident_frame_panics() {
        let mut p = pool(4);
        let f = p.allocate(key(0, 0), false).unwrap();
        p.complete_io(f);
        p.add_waiter(f, 1);
    }

    #[test]
    fn eviction_reuses_frames() {
        let mut p = pool(2);
        let f0 = p.allocate(key(0, 0), false).unwrap();
        let f1 = p.allocate(key(0, 1), false).unwrap();
        p.complete_io(f0);
        p.complete_io(f1);
        // Third allocation evicts the LRU (frame of block 0).
        let f2 = p.allocate(key(0, 2), false).unwrap();
        assert_eq!(f2, f0);
        assert_eq!(p.lookup(key(0, 0), None), LookupResult::Miss);
        assert_eq!(p.stats().evictions, 1);
        assert_eq!(p.in_use(), 2);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let mut p = pool(2);
        let f0 = p.allocate(key(0, 0), false).unwrap();
        let f1 = p.allocate(key(0, 1), false).unwrap();
        p.complete_io(f0);
        p.complete_io(f1);
        p.pin(f0);
        let f2 = p.allocate(key(0, 2), false).unwrap();
        assert_eq!(f2, f1, "must skip the pinned LRU frame");
        p.unpin(f0);
    }

    #[test]
    fn allocation_fails_when_everything_pinned() {
        let mut p = pool(2);
        // Both frames in flight (pinned by their I/O).
        p.allocate(key(0, 0), false).unwrap();
        p.allocate(key(0, 1), false).unwrap();
        assert_eq!(p.allocate(key(0, 2), false), None);
        assert_eq!(p.stats().alloc_failures, 1);
        assert!(!p.has_free_or_evictable());
    }

    #[test]
    fn has_free_or_evictable_transitions() {
        let mut p = pool(1);
        assert!(p.has_free_or_evictable());
        let f = p.allocate(key(0, 0), false).unwrap();
        assert!(!p.has_free_or_evictable(), "in-flight page is pinned");
        p.complete_io(f);
        assert!(p.has_free_or_evictable());
    }

    #[test]
    fn shared_reference_statistics_match_figure_16_semantics() {
        let mut p = pool(4);
        let f = p.allocate(key(0, 0), true).unwrap();
        p.complete_io(f);
        // Terminal 1 references the page: not shared (first reference).
        assert_eq!(p.lookup(key(0, 0), Some(1)), LookupResult::Resident(f));
        p.record_reference(f, 1);
        // Terminal 1 again: present but not "another terminal".
        p.lookup(key(0, 0), Some(1));
        // Terminal 2: shared.
        p.lookup(key(0, 0), Some(2));
        let s = p.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.shared_references, 1);
        assert!((s.shared_reference_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_useful_vs_wasted_accounting() {
        let mut p = pool(2);
        // Prefetch two pages; reference one; force both out.
        let f0 = p.allocate(key(0, 0), true).unwrap();
        let f1 = p.allocate(key(0, 1), true).unwrap();
        p.complete_io(f0);
        p.complete_io(f1);
        p.record_reference(f0, 7);
        p.allocate(key(0, 2), false).unwrap(); // evicts one of them
        p.allocate(key(0, 3), false).unwrap(); // evicts the other
        let s = p.stats();
        assert_eq!(s.prefetch_inserts, 2);
        assert_eq!(s.prefetch_used, 1);
        assert_eq!(s.prefetch_wasted, 1);
    }

    #[test]
    fn love_prefetch_pool_protects_prefetched_pages() {
        let mut p = BufferPool::new(2, PolicyKind::LovePrefetch);
        let f0 = p.allocate(key(0, 0), true).unwrap(); // prefetched, older
        let f1 = p.allocate(key(0, 1), false).unwrap();
        p.complete_io(f0);
        p.complete_io(f1);
        p.record_reference(f1, 1); // referenced garbage
        let f2 = p.allocate(key(0, 2), false).unwrap();
        assert_eq!(f2, f1, "love prefetch evicts referenced page first");
        assert_eq!(p.lookup(key(0, 0), None), LookupResult::Resident(f0));
        assert_eq!(p.policy_name(), "love-prefetch");
    }

    #[test]
    fn hit_rate_accounting() {
        let mut p = pool(4);
        let f = p.allocate(key(0, 0), false).unwrap();
        p.complete_io(f);
        p.lookup(key(0, 0), Some(1)); // hit
        p.lookup(key(0, 1), Some(1)); // miss
        assert!((p.stats().hit_rate() - 0.5).abs() < 1e-12);
        p.reset_stats();
        assert_eq!(p.stats().lookups, 0);
    }

    #[test]
    fn last_event_flags_mirror_the_latest_operation() {
        let mut p = pool(2);
        let f0 = p.allocate(key(0, 0), false).unwrap();
        assert!(!p.last_alloc_evicted(), "first frame comes off free list");
        let f1 = p.allocate(key(0, 1), false).unwrap();
        p.complete_io(f0);
        p.complete_io(f1);
        p.record_reference(f0, 1);
        p.lookup(key(0, 0), Some(1));
        assert!(!p.last_lookup_shared(), "same terminal is not a share");
        p.lookup(key(0, 0), Some(2));
        assert!(p.last_lookup_shared());
        p.lookup(key(0, 0), Some(1));
        assert!(!p.last_lookup_shared(), "flag resets per lookup");
        p.allocate(key(0, 2), false).unwrap();
        assert!(p.last_alloc_evicted(), "full pool allocation evicts");
    }

    #[test]
    #[should_panic(expected = "already in the pool")]
    fn double_allocate_panics() {
        let mut p = pool(4);
        p.allocate(key(0, 0), false).unwrap();
        p.allocate(key(0, 0), false).unwrap();
    }

    #[test]
    fn key_of_round_trips() {
        let mut p = pool(4);
        let f = p.allocate(key(3, 9), false).unwrap();
        assert_eq!(p.key_of(f), key(3, 9));
    }

    #[test]
    fn capacity_reporting() {
        let p = pool(7);
        assert_eq!(p.capacity(), 7);
    }
}
