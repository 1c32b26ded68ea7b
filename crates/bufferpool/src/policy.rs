//! Page replacement policies.

use crate::lru::LruList;
use crate::pool::FrameId;

/// Replacement policy interface. The pool tells the policy about page
/// lifecycle events; the policy answers victim queries. `evictable`
/// reports whether a frame may be evicted right now (resident, unpinned).
pub trait ReplacementPolicy: Send + Sync {
    /// A page entered the pool. `prefetched` marks background prefetches.
    fn on_insert(&mut self, f: FrameId, prefetched: bool);

    /// A terminal referenced the page (explicit request).
    fn on_reference(&mut self, f: FrameId);

    /// The page left the pool (evicted or invalidated).
    fn on_remove(&mut self, f: FrameId);

    /// Choose a victim among evictable pages, or `None` if every page is
    /// pinned.
    fn victim(&mut self, evictable: &dyn Fn(FrameId) -> bool) -> Option<FrameId>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Policy selection for configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Single LRU chain (baseline).
    GlobalLru,
    /// Separate prefetched/referenced chains \[Teng84\].
    LovePrefetch,
}

impl PolicyKind {
    /// Instantiate for a pool of `capacity` frames.
    pub fn build(self, capacity: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::GlobalLru => Box::new(GlobalLru::new(capacity)),
            PolicyKind::LovePrefetch => Box::new(LovePrefetch::new(capacity)),
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::GlobalLru => "global-lru",
            PolicyKind::LovePrefetch => "love-prefetch",
        }
    }
}

/// §5.2.1: "simply places newly referenced pages onto the end of a single
/// queue. When a new page is needed, the buffer pool searches for the first
/// available page starting from the head of the queue. This algorithm does
/// not distinguish between prefetched pages and referenced pages."
#[derive(Debug)]
pub struct GlobalLru {
    chain: LruList,
}

impl GlobalLru {
    /// A global LRU over `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        GlobalLru {
            chain: LruList::new(capacity),
        }
    }
}

impl ReplacementPolicy for GlobalLru {
    fn on_insert(&mut self, f: FrameId, _prefetched: bool) {
        self.chain.push_back(f.0);
    }

    fn on_reference(&mut self, f: FrameId) {
        self.chain.touch(f.0);
    }

    fn on_remove(&mut self, f: FrameId) {
        self.chain.remove(f.0);
    }

    fn victim(&mut self, evictable: &dyn Fn(FrameId) -> bool) -> Option<FrameId> {
        self.chain
            .find_first(|id| evictable(FrameId(id)))
            .map(FrameId)
    }

    fn name(&self) -> &'static str {
        "global-lru"
    }
}

/// §5.2.1 / Figure 4: "breaks the global LRU chain into two separate LRU
/// chains: one for prefetched pages and one for referenced pages. When a
/// stripe block is first prefetched, it is placed on the prefetched-pages
/// LRU chain. When it is subsequently referenced, it is moved to the
/// referenced-pages LRU chain. When a new page is needed, the buffer pool
/// first attempts to find an available page on the referenced-pages LRU
/// chain. If there are no available pages on the referenced-pages LRU
/// chain, the buffer pool takes a page from the prefetched-pages LRU
/// chain." Referenced video pages are almost always garbage (sequential
/// access), so evicting them first protects prefetched-but-unconsumed data.
#[derive(Debug)]
pub struct LovePrefetch {
    prefetched: LruList,
    referenced: LruList,
}

impl LovePrefetch {
    /// A love-prefetch policy over `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        LovePrefetch {
            prefetched: LruList::new(capacity),
            referenced: LruList::new(capacity),
        }
    }

    /// Pages currently on the prefetched chain (for tests/metrics).
    pub fn prefetched_len(&self) -> usize {
        self.prefetched.len()
    }

    /// Pages currently on the referenced chain (for tests/metrics).
    pub fn referenced_len(&self) -> usize {
        self.referenced.len()
    }
}

impl ReplacementPolicy for LovePrefetch {
    fn on_insert(&mut self, f: FrameId, prefetched: bool) {
        if prefetched {
            self.prefetched.push_back(f.0);
        } else {
            // Demand-fetched pages go straight to the referenced chain:
            // the requester consumes them immediately.
            self.referenced.push_back(f.0);
        }
    }

    fn on_reference(&mut self, f: FrameId) {
        if self.prefetched.contains(f.0) {
            self.prefetched.remove(f.0);
            self.referenced.push_back(f.0);
        } else {
            self.referenced.touch(f.0);
        }
    }

    fn on_remove(&mut self, f: FrameId) {
        if self.prefetched.contains(f.0) {
            self.prefetched.remove(f.0);
        } else {
            self.referenced.remove(f.0);
        }
    }

    fn victim(&mut self, evictable: &dyn Fn(FrameId) -> bool) -> Option<FrameId> {
        self.referenced
            .find_first(|id| evictable(FrameId(id)))
            .or_else(|| self.prefetched.find_first(|id| evictable(FrameId(id))))
            .map(FrameId)
    }

    fn name(&self) -> &'static str {
        "love-prefetch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(_: FrameId) -> bool {
        true
    }

    #[test]
    fn global_lru_evicts_least_recent() {
        let mut p = GlobalLru::new(4);
        p.on_insert(FrameId(0), false);
        p.on_insert(FrameId(1), true);
        p.on_insert(FrameId(2), false);
        assert_eq!(p.victim(&all), Some(FrameId(0)));
        p.on_reference(FrameId(0));
        assert_eq!(p.victim(&all), Some(FrameId(1)));
    }

    #[test]
    fn global_lru_ignores_prefetch_flag() {
        // The defining weakness: a prefetched-but-unused page ages out
        // ahead of referenced garbage.
        let mut p = GlobalLru::new(4);
        p.on_insert(FrameId(0), true); // prefetched, not yet used
        p.on_insert(FrameId(1), false);
        p.on_reference(FrameId(1));
        assert_eq!(p.victim(&all), Some(FrameId(0)));
    }

    #[test]
    fn global_lru_victim_skips_pinned() {
        let mut p = GlobalLru::new(4);
        p.on_insert(FrameId(0), false);
        p.on_insert(FrameId(1), false);
        let only_one = |f: FrameId| f.0 == 1;
        assert_eq!(p.victim(&only_one), Some(FrameId(1)));
        assert_eq!(p.victim(&|_| false), None);
    }

    #[test]
    fn love_prefetch_protects_prefetched_pages() {
        let mut p = LovePrefetch::new(4);
        p.on_insert(FrameId(0), true); // prefetched first (oldest)
        p.on_insert(FrameId(1), false);
        p.on_reference(FrameId(1)); // referenced garbage
                                    // Global LRU would evict frame 0; love prefetch evicts frame 1.
        assert_eq!(p.victim(&all), Some(FrameId(1)));
        assert_eq!(p.prefetched_len(), 1);
        assert_eq!(p.referenced_len(), 1);
    }

    #[test]
    fn love_prefetch_falls_back_to_prefetched_chain() {
        let mut p = LovePrefetch::new(4);
        p.on_insert(FrameId(0), true);
        p.on_insert(FrameId(1), true);
        assert_eq!(p.victim(&all), Some(FrameId(0)), "LRU of prefetched chain");
    }

    #[test]
    fn love_prefetch_reference_moves_between_chains() {
        let mut p = LovePrefetch::new(4);
        p.on_insert(FrameId(0), true);
        assert_eq!(p.prefetched_len(), 1);
        p.on_reference(FrameId(0));
        assert_eq!(p.prefetched_len(), 0);
        assert_eq!(p.referenced_len(), 1);
        // Second reference just refreshes recency.
        p.on_insert(FrameId(1), false);
        p.on_reference(FrameId(1));
        p.on_reference(FrameId(0));
        assert_eq!(p.victim(&all), Some(FrameId(1)));
    }

    #[test]
    fn love_prefetch_remove_from_either_chain() {
        let mut p = LovePrefetch::new(4);
        p.on_insert(FrameId(0), true);
        p.on_insert(FrameId(1), false);
        p.on_remove(FrameId(0));
        p.on_remove(FrameId(1));
        assert_eq!(p.prefetched_len(), 0);
        assert_eq!(p.referenced_len(), 0);
        assert_eq!(p.victim(&all), None);
    }

    #[test]
    fn kind_builds_and_labels() {
        assert_eq!(PolicyKind::GlobalLru.build(4).name(), "global-lru");
        assert_eq!(PolicyKind::LovePrefetch.build(4).name(), "love-prefetch");
        assert_eq!(PolicyKind::GlobalLru.label(), "global-lru");
        assert_eq!(PolicyKind::LovePrefetch.label(), "love-prefetch");
    }
}
