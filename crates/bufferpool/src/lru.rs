//! An intrusive doubly linked LRU list over frame slots.
//!
//! Links live in a flat `Vec` indexed by frame id, so membership moves are
//! O(1) with no allocation — the pool performs a list operation on every
//! page reference.

/// Index-based intrusive LRU list. Front = least recently used.
#[derive(Debug)]
pub struct LruList {
    head: Option<u32>,
    tail: Option<u32>,
    links: Vec<Link>,
    len: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct Link {
    prev: Option<u32>,
    next: Option<u32>,
    in_list: bool,
}

impl LruList {
    /// A list able to hold slots `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        LruList {
            head: None,
            tail: None,
            links: vec![Link::default(); capacity],
            len: 0,
        }
    }

    /// Number of elements currently linked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `id` is currently in this list.
    pub fn contains(&self, id: u32) -> bool {
        self.links[id as usize].in_list
    }

    /// Append `id` at the MRU end.
    ///
    /// # Panics
    /// If `id` is already linked.
    pub fn push_back(&mut self, id: u32) {
        let link = &mut self.links[id as usize];
        assert!(!link.in_list, "slot {id} already in LRU list");
        link.in_list = true;
        link.next = None;
        link.prev = self.tail;
        match self.tail {
            Some(t) => self.links[t as usize].next = Some(id),
            None => self.head = Some(id),
        }
        self.tail = Some(id);
        self.len += 1;
    }

    /// Unlink `id`.
    ///
    /// # Panics
    /// If `id` is not linked.
    pub fn remove(&mut self, id: u32) {
        let link = self.links[id as usize];
        assert!(link.in_list, "slot {id} not in LRU list");
        match link.prev {
            Some(p) => self.links[p as usize].next = link.next,
            None => self.head = link.next,
        }
        match link.next {
            Some(n) => self.links[n as usize].prev = link.prev,
            None => self.tail = link.prev,
        }
        self.links[id as usize] = Link::default();
        self.len -= 1;
    }

    /// Move `id` to the MRU end.
    pub fn touch(&mut self, id: u32) {
        self.remove(id);
        self.push_back(id);
    }

    /// The LRU element, if any.
    pub fn front(&self) -> Option<u32> {
        self.head
    }

    /// Iterate from LRU to MRU.
    pub fn iter(&self) -> LruIter<'_> {
        LruIter {
            list: self,
            next: self.head,
        }
    }

    /// First element (from the LRU end) satisfying `pred`.
    pub fn find_first<F: FnMut(u32) -> bool>(&self, mut pred: F) -> Option<u32> {
        self.iter().find(|&id| pred(id))
    }
}

/// Iterator over an [`LruList`] from least to most recently used.
pub struct LruIter<'a> {
    list: &'a LruList,
    next: Option<u32>,
}

impl Iterator for LruIter<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        let id = self.next?;
        self.next = self.list.links[id as usize].next;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate_in_order() {
        let mut l = LruList::new(8);
        l.push_back(3);
        l.push_back(1);
        l.push_back(5);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![3, 1, 5]);
        assert_eq!(l.front(), Some(3));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn touch_moves_to_mru_end() {
        let mut l = LruList::new(8);
        l.push_back(0);
        l.push_back(1);
        l.push_back(2);
        l.touch(0);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 2, 0]);
    }

    #[test]
    fn remove_head_middle_tail() {
        let mut l = LruList::new(8);
        for i in 0..5 {
            l.push_back(i);
        }
        l.remove(0); // head
        l.remove(2); // middle
        l.remove(4); // tail
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert!(!l.contains(0));
        assert!(l.contains(1));
    }

    #[test]
    fn remove_last_element_empties() {
        let mut l = LruList::new(2);
        l.push_back(1);
        l.remove(1);
        assert!(l.is_empty());
        assert_eq!(l.front(), None);
        // Reinsertion works after removal.
        l.push_back(1);
        assert_eq!(l.front(), Some(1));
    }

    #[test]
    fn find_first_skips_non_matching() {
        let mut l = LruList::new(8);
        for i in 0..4 {
            l.push_back(i);
        }
        assert_eq!(l.find_first(|id| id % 2 == 1), Some(1));
        assert_eq!(l.find_first(|_| false), None);
    }

    #[test]
    #[should_panic(expected = "already in LRU list")]
    fn double_insert_panics() {
        let mut l = LruList::new(2);
        l.push_back(0);
        l.push_back(0);
    }

    #[test]
    #[should_panic(expected = "not in LRU list")]
    fn remove_absent_panics() {
        let mut l = LruList::new(2);
        l.remove(0);
    }

    #[test]
    fn stress_random_ops_match_reference_model() {
        use spiffi_simcore::SimRng;
        let mut rng = SimRng::new(1);
        let mut l = LruList::new(32);
        let mut reference: Vec<u32> = Vec::new();
        for _ in 0..5000 {
            let id = rng.u64_below(32) as u32;
            match rng.u64_below(3) {
                0 => {
                    if !l.contains(id) {
                        l.push_back(id);
                        reference.push(id);
                    }
                }
                1 => {
                    if l.contains(id) {
                        l.remove(id);
                        reference.retain(|&x| x != id);
                    }
                }
                _ => {
                    if l.contains(id) {
                        l.touch(id);
                        reference.retain(|&x| x != id);
                        reference.push(id);
                    }
                }
            }
            assert_eq!(l.iter().collect::<Vec<_>>(), reference);
        }
    }
}
