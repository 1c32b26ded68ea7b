//! The elevator (SCAN) disk scheduling algorithm.

use std::collections::BTreeMap;

use spiffi_simcore::SimTime;

use crate::{DiskRequest, DiskScheduler, RequestId};

/// SCAN: "scans the disk cylinders starting with the innermost cylinder and
/// working outward. When it reaches the outermost cylinder, the algorithm
/// reverses and begins scanning inward. An I/O request is serviced when the
/// disk head reaches its cylinder."
///
/// Requests are kept ordered by `(cylinder, arrival)` in a B-tree, so each
/// pop is a single ranged lookup in the sweep direction.
#[derive(Debug)]
pub struct Elevator {
    by_cylinder: BTreeMap<(u32, RequestId), DiskRequest>,
    direction_up: bool,
}

impl Default for Elevator {
    fn default() -> Self {
        Self::new()
    }
}

impl Elevator {
    /// An empty elevator sweeping outward.
    pub fn new() -> Self {
        Elevator {
            by_cylinder: BTreeMap::new(),
            direction_up: true,
        }
    }

    /// Current sweep direction (true = toward higher cylinders).
    pub fn direction_up(&self) -> bool {
        self.direction_up
    }
}

impl DiskScheduler for Elevator {
    fn push(&mut self, req: DiskRequest) {
        self.by_cylinder.insert((req.cylinder, req.id), req);
    }

    fn pop_next(&mut self, _now: SimTime, head: u32) -> Option<DiskRequest> {
        if self.by_cylinder.is_empty() {
            return None;
        }
        let key = if self.direction_up {
            // Next request at or beyond the head; otherwise reverse.
            match self
                .by_cylinder
                .range((head, RequestId(0))..)
                .next()
                .map(|(&k, _)| k)
            {
                Some(k) => k,
                None => {
                    self.direction_up = false;
                    *self
                        .by_cylinder
                        .range(..=(head, RequestId(u64::MAX)))
                        .next_back()
                        .map(|(k, _)| k)
                        .expect("queue known non-empty")
                }
            }
        } else {
            match self
                .by_cylinder
                .range(..=(head, RequestId(u64::MAX)))
                .next_back()
                .map(|(&k, _)| k)
            {
                Some(k) => k,
                None => {
                    self.direction_up = true;
                    *self
                        .by_cylinder
                        .range((head, RequestId(0))..)
                        .next()
                        .map(|(k, _)| k)
                        .expect("queue known non-empty")
                }
            }
        };
        self.by_cylinder.remove(&key)
    }

    fn remove(&mut self, id: RequestId) -> Option<DiskRequest> {
        // Id → cylinder is not indexed; linear scan is fine because
        // removal is rare (prefetch escalation only).
        let key = self
            .by_cylinder
            .iter()
            .find(|(_, r)| r.id == id)
            .map(|(&k, _)| k)?;
        self.by_cylinder.remove(&key)
    }

    fn len(&self) -> usize {
        self.by_cylinder.len()
    }

    fn name(&self) -> &'static str {
        "elevator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req;

    fn drain_order(s: &mut Elevator, mut head: u32) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(r) = s.pop_next(SimTime::ZERO, head) {
            out.push(r.cylinder);
            head = r.cylinder;
        }
        out
    }

    #[test]
    fn sweeps_upward_then_reverses() {
        let mut s = Elevator::new();
        for (id, cyl) in [(1, 50), (2, 10), (3, 80), (4, 30)] {
            s.push(req(id, cyl));
        }
        // Head at 40 sweeping up: 50, 80, then reverse: 30, 10.
        assert_eq!(drain_order(&mut s, 40), vec![50, 80, 30, 10]);
        assert!(!s.direction_up());
    }

    #[test]
    fn services_head_cylinder_in_both_directions() {
        let mut s = Elevator::new();
        s.push(req(1, 40));
        assert_eq!(s.pop_next(SimTime::ZERO, 40).unwrap().cylinder, 40);
        let mut s = Elevator::new();
        s.push(req(1, 40));
        // Force downward direction by exhausting an upward sweep first.
        s.push(req(2, 10));
        assert_eq!(s.pop_next(SimTime::ZERO, 40).unwrap().cylinder, 40);
        assert_eq!(s.pop_next(SimTime::ZERO, 40).unwrap().cylinder, 10);
    }

    #[test]
    fn fifo_within_a_cylinder() {
        let mut s = Elevator::new();
        s.push(req(5, 20));
        s.push(req(2, 20));
        s.push(req(9, 20));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop_next(SimTime::ZERO, 0))
            .map(|r| r.id.0)
            .collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn no_starvation_under_continuous_load() {
        // A request at cylinder 0 must be serviced even while new requests
        // keep arriving at high cylinders: the sweep eventually reverses.
        let mut s = Elevator::new();
        s.push(req(0, 0));
        let mut head = 500;
        let mut serviced_zero = false;
        for next_id in 1..=100u64 {
            s.push(req(next_id, 900 + (next_id as u32 % 10)));
            let r = s.pop_next(SimTime::ZERO, head).unwrap();
            head = r.cylinder;
            if r.cylinder == 0 {
                serviced_zero = true;
                break;
            }
        }
        assert!(serviced_zero, "elevator starved the low-cylinder request");
    }

    #[test]
    fn seek_distance_not_worse_than_fcfs_on_batch() {
        // Classic SCAN property: for a fixed batch, total head travel is at
        // most the FCFS travel. (Statistical over several seeds — holds
        // deterministically for batches, which is what we check.)
        use spiffi_simcore::SimRng;
        let mut rng = SimRng::new(42);
        for _ in 0..20 {
            let batch: Vec<u32> = (0..30).map(|_| rng.u64_below(1000) as u32).collect();
            let start = rng.u64_below(1000) as u32;

            let fcfs_travel: u64 = batch
                .iter()
                .scan(start, |h, &c| {
                    let d = h.abs_diff(c) as u64;
                    *h = c;
                    Some(d)
                })
                .sum();

            let mut s = Elevator::new();
            for (i, &c) in batch.iter().enumerate() {
                s.push(req(i as u64, c));
            }
            let mut head = start;
            let mut scan_travel = 0u64;
            while let Some(r) = s.pop_next(SimTime::ZERO, head) {
                scan_travel += head.abs_diff(r.cylinder) as u64;
                head = r.cylinder;
            }
            assert!(
                scan_travel <= fcfs_travel,
                "scan {scan_travel} > fcfs {fcfs_travel}"
            );
        }
    }

    #[test]
    fn remove_mid_queue() {
        let mut s = Elevator::new();
        s.push(req(1, 10));
        s.push(req(2, 20));
        assert_eq!(s.remove(RequestId(1)).unwrap().cylinder, 10);
        assert_eq!(s.remove(RequestId(1)), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn downward_sweep_reverses_up() {
        let mut s = Elevator::new();
        // Exhaust upward, then push something above the head while moving
        // down past it.
        s.push(req(1, 10));
        assert_eq!(s.pop_next(SimTime::ZERO, 50).unwrap().cylinder, 10);
        assert!(!s.direction_up());
        s.push(req(2, 30));
        // Head at 10 moving down: nothing below, reverse upward to 30.
        assert_eq!(s.pop_next(SimTime::ZERO, 10).unwrap().cylinder, 30);
        assert!(s.direction_up());
    }
}
