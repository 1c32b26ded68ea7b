//! The paper's real-time priority-elevator disk scheduling algorithm
//! (§5.2.2, Figures 5 and 6), extending the priority scheduler of \[Care89\].

use spiffi_simcore::{SimDuration, SimTime};

use crate::{DiskRequest, DiskScheduler, RequestId};

/// Real-time scheduling: each request's deadline maps to one of a fixed set
/// of priority classes via uniformly spaced cutoffs; the highest-priority
/// non-empty class is serviced in elevator order; and "after each disk
/// access, priorities are recomputed using the current time", so requests
/// migrate toward higher priority as their deadlines approach.
///
/// With `classes = 3` and `spacing = 2 s` (Figure 5): requests within 2 s
/// of their deadline are priority 1 (highest), within 4 s priority 2, and
/// all others priority 3. Requests without a deadline — by default,
/// prefetches — always sit in the lowest class, which is exactly why "the
/// real-time disk scheduling algorithm can identify and skip prefetches if
/// necessary and, therefore, benefits from aggressive prefetching"
/// (§5.2.3).
#[derive(Debug)]
pub struct RealTime {
    classes: u32,
    spacing: SimDuration,
    queue: Vec<DiskRequest>,
    direction_up: bool,
}

impl RealTime {
    /// A real-time scheduler with `classes` priority classes separated by
    /// `spacing` (both ≥ 1).
    pub fn new(classes: u32, spacing: SimDuration) -> Self {
        assert!(classes >= 1, "need at least one priority class");
        assert!(
            spacing > SimDuration::ZERO,
            "priority spacing must be positive"
        );
        RealTime {
            classes,
            spacing,
            queue: Vec::new(),
            direction_up: true,
        }
    }

    /// Number of priority classes.
    pub fn classes(&self) -> u32 {
        self.classes
    }

    /// Priority spacing between class cutoffs.
    pub fn spacing(&self) -> SimDuration {
        self.spacing
    }

    /// Priority class of a request at time `now` (0 = most urgent).
    pub fn class_of(&self, req: &DiskRequest, now: SimTime) -> u32 {
        match req.deadline {
            None => self.classes - 1,
            Some(d) => {
                let remaining = d.saturating_since(now);
                ((remaining.0 / self.spacing.0) as u32).min(self.classes - 1)
            }
        }
    }
}

impl DiskScheduler for RealTime {
    fn push(&mut self, req: DiskRequest) {
        self.queue.push(req);
    }

    fn pop_next(&mut self, now: SimTime, head: u32) -> Option<DiskRequest> {
        if self.queue.is_empty() {
            return None;
        }
        // Single allocation-free pass: recompute each request's priority
        // exactly once, tracking the best class seen so far and, within
        // it, the nearest candidate in each sweep direction (ties broken
        // by arrival id, exactly as [`scan_select`] does).
        let mut best_class = u32::MAX;
        let mut best_up: Option<(u32, RequestId, usize)> = None;
        let mut best_down: Option<(u32, RequestId, usize)> = None;
        for (i, r) in self.queue.iter().enumerate() {
            let class = self.class_of(r, now);
            if class > best_class {
                continue;
            }
            if class < best_class {
                best_class = class;
                best_up = None;
                best_down = None;
            }
            let dist = r.cylinder.abs_diff(head);
            if r.cylinder >= head {
                let better = match best_up {
                    None => true,
                    Some((bd, bid, _)) => (dist, r.id) < (bd, bid),
                };
                if better {
                    best_up = Some((dist, r.id, i));
                }
            }
            if r.cylinder <= head {
                let better = match best_down {
                    None => true,
                    Some((bd, bid, _)) => (dist, r.id) < (bd, bid),
                };
                if better {
                    best_down = Some((dist, r.id, i));
                }
            }
        }
        // Continue the current sweep if it has a candidate; otherwise
        // reverse (the same fallback as [`scan_select`]).
        let (idx, dir) = match (self.direction_up, best_up, best_down) {
            (true, Some((_, _, i)), _) => (i, true),
            (true, None, Some((_, _, i))) => (i, false),
            (false, _, Some((_, _, i))) => (i, false),
            (false, Some((_, _, i)), None) => (i, true),
            (_, None, None) => unreachable!("queue non-empty"),
        };
        self.direction_up = dir;
        Some(self.queue.swap_remove(idx))
    }

    fn remove(&mut self, id: RequestId) -> Option<DiskRequest> {
        let pos = self.queue.iter().position(|r| r.id == id)?;
        Some(self.queue.swap_remove(pos))
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn name(&self) -> &'static str {
        "real-time"
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

    fn rt() -> RealTime {
        RealTime::new(3, SimDuration::from_secs(2))
    }

    #[test]
    fn class_mapping_matches_figure_5() {
        let s = rt();
        let now = SimTime::ZERO;
        // Within 2 s of deadline → class 0; within 4 s → class 1;
        // beyond 4 s → class 2.
        assert_eq!(s.class_of(&dreq(1, 0, Some(1.0)), now), 0);
        assert_eq!(s.class_of(&dreq(2, 0, Some(1.999)), now), 0);
        assert_eq!(s.class_of(&dreq(3, 0, Some(2.5)), now), 1);
        assert_eq!(s.class_of(&dreq(4, 0, Some(4.5)), now), 2);
        assert_eq!(s.class_of(&dreq(5, 0, Some(100.0)), now), 2);
        // Past-deadline requests are maximally urgent.
        let later = SimTime::from_secs_f64(10.0);
        assert_eq!(s.class_of(&dreq(6, 0, Some(5.0)), later), 0);
        // No deadline → lowest class.
        assert_eq!(s.class_of(&dreq(7, 0, None), now), 2);
    }

    #[test]
    fn urgent_request_preempts_elevator_order() {
        // Figure 6's scenario: request 1 at a near cylinder but priority 2;
        // request 2 farther away but priority 1 — request 2 goes first.
        let mut s = rt();
        s.push(dreq(1, 10, Some(3.0))); // class 1
        s.push(dreq(2, 50, Some(1.0))); // class 0
        let first = s.pop_next(SimTime::ZERO, 0).unwrap();
        assert_eq!(first.id.0, 2);
    }

    #[test]
    fn priorities_recompute_after_each_access() {
        // Continuing Figure 6: after servicing request 2 the clock has
        // advanced, request 1 is now within 2 s of its deadline, gets
        // promoted, and is serviced next even though a fresh class-1
        // request sits nearer the head.
        let mut s = rt();
        s.push(dreq(1, 10, Some(3.0)));
        s.push(dreq(3, 60, Some(7.0)));
        let now = SimTime::from_secs_f64(1.5); // request 1 now has 1.5 s left
        let next = s.pop_next(now, 50).unwrap();
        assert_eq!(next.id.0, 1);
    }

    #[test]
    fn elevator_order_within_class() {
        let mut s = rt();
        s.push(dreq(1, 30, Some(1.0)));
        s.push(dreq(2, 10, Some(1.2)));
        s.push(dreq(3, 50, Some(1.4)));
        // All class 0. Head 20 sweeping up: 30, 50, then down: 10.
        let order: Vec<u32> = std::iter::from_fn(|| s.pop_next(SimTime::ZERO, 20))
            .map(|r| r.cylinder)
            .collect();
        assert_eq!(order, vec![30, 50, 10]);
    }

    #[test]
    fn prefetches_yield_to_real_requests() {
        let mut s = rt();
        let mut pf = dreq(1, 5, None);
        pf.is_prefetch = true;
        s.push(pf);
        s.push(dreq(2, 900, Some(3.0)));
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 2);
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 1);
    }

    #[test]
    fn prefetch_with_deadline_can_outrank_lazy_real_request() {
        // Real-time prefetching (§5.2.3): "an urgent prefetch request can
        // take priority over a non-urgent true request."
        let mut s = rt();
        let mut pf = dreq(1, 5, Some(1.0));
        pf.is_prefetch = true;
        s.push(pf);
        s.push(dreq(2, 4, Some(30.0)));
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 1);
    }

    #[test]
    fn two_class_configuration() {
        let s = RealTime::new(2, SimDuration::from_secs(4));
        let now = SimTime::ZERO;
        assert_eq!(s.class_of(&dreq(1, 0, Some(3.0)), now), 0);
        assert_eq!(s.class_of(&dreq(2, 0, Some(5.0)), now), 1);
        assert_eq!(s.class_of(&dreq(3, 0, None), now), 1);
        assert_eq!(s.classes(), 2);
        assert_eq!(s.spacing(), SimDuration::from_secs(4));
    }

    #[test]
    fn remove_and_len() {
        let mut s = rt();
        s.push(dreq(1, 0, Some(1.0)));
        s.push(dreq(2, 0, Some(2.0)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(RequestId(1)).unwrap().id.0, 1);
        assert_eq!(s.remove(RequestId(1)), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.name(), "real-time");
    }

    #[test]
    #[should_panic(expected = "priority spacing")]
    fn zero_spacing_rejected() {
        let _ = RealTime::new(3, SimDuration::ZERO);
    }

    #[test]
    fn single_class_degenerates_to_elevator() {
        let mut s = RealTime::new(1, SimDuration::from_secs(4));
        s.push(dreq(1, 80, Some(0.1)));
        s.push(dreq(2, 20, Some(100.0)));
        // Both in class 0 regardless of deadline; pure elevator from head 0.
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().cylinder, 20);
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().cylinder, 80);
    }
}
