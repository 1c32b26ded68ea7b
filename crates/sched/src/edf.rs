//! Earliest-deadline-first disk scheduling.
//!
//! EDF is the classic real-time baseline (\[Redd94\] compares elevator, EDF
//! and a hybrid): always service the request whose deadline is nearest,
//! ignoring head position entirely. It is optimal for schedulability on a
//! preemptive single resource but pays maximal seek overhead on a disk —
//! the gap between EDF and the paper's priority-elevator algorithm
//! (deadline *classes* with elevator order inside a class) isolates the
//! value of seek-awareness in a deadline scheduler.

use std::collections::BTreeMap;

use spiffi_simcore::SimTime;

use crate::{DiskRequest, DiskScheduler, RequestId};

/// Earliest-deadline-first: requests ordered by `(deadline, arrival)`;
/// requests without deadlines sort after all deadlines, among themselves in
/// arrival order.
#[derive(Debug, Default)]
pub struct Edf {
    by_deadline: BTreeMap<(SimTime, RequestId), DiskRequest>,
}

impl Edf {
    /// An empty EDF queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(req: &DiskRequest) -> (SimTime, RequestId) {
        (req.deadline.unwrap_or(SimTime::MAX), req.id)
    }
}

impl DiskScheduler for Edf {
    fn push(&mut self, req: DiskRequest) {
        self.by_deadline.insert(Self::key(&req), req);
    }

    fn pop_next(&mut self, _now: SimTime, _head: u32) -> Option<DiskRequest> {
        let key = *self.by_deadline.keys().next()?;
        self.by_deadline.remove(&key)
    }

    fn remove(&mut self, id: RequestId) -> Option<DiskRequest> {
        let key = self
            .by_deadline
            .iter()
            .find(|(_, r)| r.id == id)
            .map(|(&k, _)| k)?;
        self.by_deadline.remove(&key)
    }

    fn len(&self) -> usize {
        self.by_deadline.len()
    }

    fn name(&self) -> &'static str {
        "edf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamId;

    fn dreq(id: u64, cyl: u32, deadline_s: Option<f64>) -> DiskRequest {
        DiskRequest {
            id: RequestId(id),
            cylinder: cyl,
            deadline: deadline_s.map(SimTime::from_secs_f64),
            stream: Some(StreamId(id as u32)),
            is_prefetch: false,
        }
    }

    #[test]
    fn services_in_deadline_order() {
        let mut s = Edf::new();
        s.push(dreq(1, 0, Some(9.0)));
        s.push(dreq(2, 999, Some(1.0)));
        s.push(dreq(3, 500, Some(5.0)));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop_next(SimTime::ZERO, 0))
            .map(|r| r.id.0)
            .collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn head_position_is_ignored() {
        let mut s = Edf::new();
        s.push(dreq(1, 10, Some(2.0)));
        s.push(dreq(2, 5000, Some(1.0)));
        // Head sits right on top of request 1; EDF still crosses the disk.
        assert_eq!(s.pop_next(SimTime::ZERO, 10).unwrap().id.0, 2);
    }

    #[test]
    fn no_deadline_sorts_last_in_arrival_order() {
        let mut s = Edf::new();
        s.push(dreq(1, 0, None));
        s.push(dreq(2, 0, None));
        s.push(dreq(3, 0, Some(100.0)));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop_next(SimTime::ZERO, 0))
            .map(|r| r.id.0)
            .collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn deadline_ties_break_by_arrival() {
        let mut s = Edf::new();
        s.push(dreq(7, 0, Some(4.0)));
        s.push(dreq(3, 0, Some(4.0)));
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 3);
    }

    #[test]
    fn remove_and_len() {
        let mut s = Edf::new();
        s.push(dreq(1, 0, Some(1.0)));
        s.push(dreq(2, 0, None));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(RequestId(2)).unwrap().id.0, 2);
        assert_eq!(s.remove(RequestId(2)), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.name(), "edf");
    }
}
