//! First-come-first-served scheduling.

use std::collections::VecDeque;

use spiffi_simcore::SimTime;

use crate::{DiskRequest, DiskScheduler, RequestId};

/// Service requests strictly in arrival order. The simplest correct
/// scheduler; \[Hari94\] studies its memory requirements against elevator.
#[derive(Debug, Default)]
pub struct Fcfs {
    queue: VecDeque<DiskRequest>,
}

impl Fcfs {
    /// An empty FCFS queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DiskScheduler for Fcfs {
    fn push(&mut self, req: DiskRequest) {
        self.queue.push_back(req);
    }

    fn pop_next(&mut self, _now: SimTime, _head: u32) -> Option<DiskRequest> {
        self.queue.pop_front()
    }

    fn remove(&mut self, id: RequestId) -> Option<DiskRequest> {
        let pos = self.queue.iter().position(|r| r.id == id)?;
        self.queue.remove(pos)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "fcfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req;

    #[test]
    fn services_in_arrival_order() {
        let mut s = Fcfs::new();
        s.push(req(1, 500));
        s.push(req(2, 3));
        s.push(req(3, 250));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop_next(SimTime::ZERO, 0))
            .map(|r| r.id.0)
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn remove_by_id() {
        let mut s = Fcfs::new();
        s.push(req(1, 0));
        s.push(req(2, 0));
        assert_eq!(s.remove(RequestId(1)).unwrap().id, RequestId(1));
        assert_eq!(s.remove(RequestId(9)), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id, RequestId(2));
    }

    #[test]
    fn empty_pop_returns_none() {
        let mut s = Fcfs::new();
        assert_eq!(s.pop_next(SimTime::ZERO, 0), None);
        assert!(s.is_empty());
        assert_eq!(s.name(), "fcfs");
    }
}
