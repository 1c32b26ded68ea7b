//! Round-robin disk scheduling over streams.

use std::collections::{BTreeMap, VecDeque};

use spiffi_simcore::SimTime;

use crate::{DiskRequest, DiskScheduler, RequestId, StreamId};

/// Service streams in cyclic order, one request per turn. Equivalent to
/// GSS with one group per terminal (§5.2.2: "if the number of groups is
/// equal to the number of terminals, the algorithm is simply round-robin").
///
/// Requests without a stream are grouped under a single background
/// pseudo-stream that takes its turn like any other.
#[derive(Debug, Default)]
pub struct RoundRobin {
    queues: BTreeMap<StreamId, VecDeque<DiskRequest>>,
    /// The last stream serviced; the next pop starts strictly after it.
    cursor: Option<StreamId>,
    len: usize,
}

/// Pseudo-stream for requests with no originating stream.
const BACKGROUND: StreamId = StreamId(u32::MAX);

impl RoundRobin {
    /// An empty round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DiskScheduler for RoundRobin {
    fn push(&mut self, req: DiskRequest) {
        let stream = req.stream.unwrap_or(BACKGROUND);
        self.queues.entry(stream).or_default().push_back(req);
        self.len += 1;
    }

    fn pop_next(&mut self, _now: SimTime, _head: u32) -> Option<DiskRequest> {
        if self.len == 0 {
            return None;
        }
        // First non-empty stream strictly after the cursor, wrapping.
        let next_key = {
            let after = self.cursor.map(|c| StreamId(c.0.wrapping_add(1)));
            let from = after.unwrap_or(StreamId(0));
            self.queues
                .range(from..)
                .find(|(_, q)| !q.is_empty())
                .map(|(&k, _)| k)
                .or_else(|| {
                    self.queues
                        .range(..)
                        .find(|(_, q)| !q.is_empty())
                        .map(|(&k, _)| k)
                })
        }?;
        let q = self.queues.get_mut(&next_key).expect("key just found");
        let req = q.pop_front().expect("queue known non-empty");
        if q.is_empty() {
            self.queues.remove(&next_key);
        }
        self.cursor = Some(next_key);
        self.len -= 1;
        Some(req)
    }

    fn remove(&mut self, id: RequestId) -> Option<DiskRequest> {
        for (key, q) in self.queues.iter_mut() {
            if let Some(pos) = q.iter().position(|r| r.id == id) {
                let req = q.remove(pos).expect("index in range");
                if q.is_empty() {
                    let key = *key;
                    self.queues.remove(&key);
                }
                self.len -= 1;
                return Some(req);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sreq(id: u64, stream: u32, cyl: u32) -> DiskRequest {
        DiskRequest {
            id: RequestId(id),
            cylinder: cyl,
            deadline: None,
            stream: Some(StreamId(stream)),
            is_prefetch: false,
        }
    }

    #[test]
    fn cycles_over_streams() {
        let mut s = RoundRobin::new();
        // Two requests each from streams 0, 1, 2.
        for stream in 0..3u32 {
            for k in 0..2u64 {
                s.push(sreq(stream as u64 * 10 + k, stream, 100));
            }
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop_next(SimTime::ZERO, 0))
            .map(|r| r.stream.unwrap().0)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn fifo_within_stream() {
        let mut s = RoundRobin::new();
        s.push(sreq(5, 0, 10));
        s.push(sreq(6, 0, 20));
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 5);
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 6);
    }

    #[test]
    fn new_stream_joins_rotation() {
        let mut s = RoundRobin::new();
        s.push(sreq(1, 5, 0));
        s.pop_next(SimTime::ZERO, 0).unwrap();
        // After servicing stream 5, a new stream 2 arrives: the wrap-around
        // finds it.
        s.push(sreq(2, 2, 0));
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().stream.unwrap().0, 2);
    }

    #[test]
    fn background_requests_take_turns() {
        let mut s = RoundRobin::new();
        s.push(DiskRequest {
            id: RequestId(1),
            cylinder: 0,
            deadline: None,
            stream: None,
            is_prefetch: true,
        });
        s.push(sreq(2, 0, 0));
        // Stream 0 sorts before the background pseudo-stream (u32::MAX).
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 2);
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 1);
        assert!(s.is_empty());
    }

    #[test]
    fn remove_and_len() {
        let mut s = RoundRobin::new();
        s.push(sreq(1, 0, 0));
        s.push(sreq(2, 1, 0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(RequestId(2)).unwrap().id.0, 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(RequestId(2)), None);
        assert_eq!(s.name(), "round-robin");
    }
}
