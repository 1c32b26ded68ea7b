//! A dense bitset over terminal indices.
//!
//! The measurement window tracks *which* terminals glitched
//! ([`RunReport::glitching_terminals`](crate::RunReport) wants the distinct
//! count). A `BTreeSet<u32>` pays an allocation and a pointer-chasing
//! ordered insert per glitch; at million-terminal scale the set is dense
//! enough that one bit per terminal — one word load, one OR, one popcount
//! amortized into an inline counter — is both smaller and faster, and
//! `clear` is a memset instead of a tree teardown.

/// A growable set of `u32` terminal indices, one bit each.
#[derive(Clone, Debug, Default)]
pub struct TermBitset {
    words: Vec<u64>,
    count: u32,
}

impl TermBitset {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set pre-sized for indices `0..n`.
    pub fn with_capacity(n: u32) -> Self {
        TermBitset {
            words: vec![0; (n as usize).div_ceil(64)],
            count: 0,
        }
    }

    /// Insert `index`, growing as needed; returns `true` if it was newly
    /// set. Idempotent, like the set it replaces.
    pub fn insert(&mut self, index: u32) -> bool {
        let (word, bit) = (index as usize / 64, index % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let newly = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.count += newly as u32;
        newly
    }

    /// True if `index` is in the set.
    pub fn contains(&self, index: u32) -> bool {
        self.words
            .get(index as usize / 64)
            .is_some_and(|w| w & (1 << (index % 64)) != 0)
    }

    /// Number of distinct indices inserted.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Remove every index, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Iterate the set indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| (w * 64 + b) as u32)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_is_idempotent_and_counted() {
        let mut s = TermBitset::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(64));
        assert!(s.insert(0));
        assert_eq!(s.len(), 3);
        assert!(s.contains(3) && s.contains(64) && s.contains(0));
        assert!(!s.contains(1) && !s.contains(65) && !s.contains(10_000));
    }

    #[test]
    fn grows_on_demand_and_clears_in_place() {
        let mut s = TermBitset::with_capacity(100);
        for t in (0..100_000).step_by(97) {
            assert!(s.insert(t));
        }
        let n = s.len();
        assert_eq!(n, (0..100_000u32).step_by(97).count() as u32);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(97));
        // Re-inserting after clear counts afresh.
        assert!(s.insert(97));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn matches_btreeset_on_random_streams() {
        use spiffi_simcore::SimRng;
        let mut rng = SimRng::stream(0xb175, 0);
        let mut bits = TermBitset::new();
        let mut reference = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            let t = rng.u64_below(5_000) as u32;
            assert_eq!(bits.insert(t), reference.insert(t));
        }
        assert_eq!(bits.len() as usize, reference.len());
        for t in 0..5_000 {
            assert_eq!(bits.contains(t), reference.contains(&t));
        }
    }
}
