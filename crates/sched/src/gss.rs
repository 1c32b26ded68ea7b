//! The group sweeping scheme (GSS) of \[Yu92\].

use std::collections::{BTreeMap, VecDeque};

use spiffi_simcore::SimTime;

use crate::{scan_select, DiskRequest, DiskScheduler, RequestId, StreamId};

/// GSS "assigns each terminal to one of a fixed set of groups. These groups
/// are processed repeatedly in round-robin order. To process a group, up to
/// one request from each terminal within that group is selected and
/// serviced using the elevator algorithm."
///
/// The selected per-terminal requests form a *frozen batch*: requests
/// arriving for a terminal after its group's pass began wait for the
/// group's next turn. This is what bounds each terminal's inter-service
/// time (and hence its buffer requirement) at the cost of coarser seek
/// optimization — the trade-off Figure 10 explores.
#[derive(Debug)]
pub struct Gss {
    groups: u32,
    pending: BTreeMap<StreamId, VecDeque<DiskRequest>>,
    /// Streams with pending requests, partitioned by group and kept
    /// sorted, so a batch refill touches only the chosen group's members
    /// instead of walking the whole `pending` map. Invariant: a stream is
    /// listed here iff it has a non-empty queue in `pending`.
    members: Vec<Vec<StreamId>>,
    /// The group whose batch is currently being serviced.
    current_group: u32,
    batch: Vec<DiskRequest>,
    direction_up: bool,
    len: usize,
}

/// Pseudo-stream for requests with no originating stream.
const BACKGROUND: StreamId = StreamId(u32::MAX);

impl Gss {
    /// A GSS scheduler with `groups` terminal groups (≥ 1).
    pub fn new(groups: u32) -> Self {
        assert!(groups >= 1, "GSS needs at least one group");
        Gss {
            groups,
            pending: BTreeMap::new(),
            members: vec![Vec::new(); groups as usize],
            current_group: 0,
            batch: Vec::new(),
            direction_up: true,
            len: 0,
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    fn group_of(&self, stream: StreamId) -> u32 {
        stream.0 % self.groups
    }

    /// Drop `stream` from its group's member list (it no longer has
    /// pending requests).
    fn retire_member(&mut self, stream: StreamId) {
        let g = self.group_of(stream) as usize;
        if let Ok(pos) = self.members[g].binary_search(&stream) {
            self.members[g].remove(pos);
        }
    }

    /// Fill the batch from the next group (in round-robin order) that has
    /// pending requests: one request per stream. O(size of that group) —
    /// the member lists make the other groups' streams invisible here.
    fn refill_batch(&mut self) {
        debug_assert!(self.batch.is_empty());
        for step in 0..self.groups {
            let g = ((self.current_group + step) % self.groups) as usize;
            if self.members[g].is_empty() {
                continue;
            }
            // Sorted member order matches the old whole-map walk.
            for &s in &self.members[g] {
                let q = self.pending.get_mut(&s).expect("member stream");
                self.batch.push(q.pop_front().expect("non-empty"));
                if q.is_empty() {
                    self.pending.remove(&s);
                }
            }
            self.members[g].retain(|s| self.pending.contains_key(s));
            // After this batch drains, the *next* group gets the next turn.
            self.current_group = (g as u32 + 1) % self.groups;
            return;
        }
    }
}

impl DiskScheduler for Gss {
    fn push(&mut self, req: DiskRequest) {
        let stream = req.stream.unwrap_or(BACKGROUND);
        let g = self.group_of(stream) as usize;
        let q = self.pending.entry(stream).or_default();
        if q.is_empty() {
            // Stream (re-)activated: register it with its group.
            if let Err(pos) = self.members[g].binary_search(&stream) {
                self.members[g].insert(pos, stream);
            }
        }
        q.push_back(req);
        self.len += 1;
    }

    fn pop_next(&mut self, _now: SimTime, head: u32) -> Option<DiskRequest> {
        if self.batch.is_empty() {
            self.refill_batch();
        }
        if self.batch.is_empty() {
            return None;
        }
        let (idx, dir) = scan_select(&self.batch, head, self.direction_up);
        self.direction_up = dir;
        self.len -= 1;
        Some(self.batch.swap_remove(idx))
    }

    fn remove(&mut self, id: RequestId) -> Option<DiskRequest> {
        if let Some(pos) = self.batch.iter().position(|r| r.id == id) {
            self.len -= 1;
            return Some(self.batch.swap_remove(pos));
        }
        let mut found: Option<(StreamId, usize)> = None;
        for (&s, q) in self.pending.iter() {
            if let Some(pos) = q.iter().position(|r| r.id == id) {
                found = Some((s, pos));
                break;
            }
        }
        let (s, pos) = found?;
        let q = self.pending.get_mut(&s).expect("stream present");
        let req = q.remove(pos).expect("index in range");
        if q.is_empty() {
            self.pending.remove(&s);
            self.retire_member(s);
        }
        self.len -= 1;
        Some(req)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "gss"
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
    fn one_request_per_stream_per_pass() {
        let mut s = Gss::new(1);
        // Stream 0 has three requests, stream 1 has one. In a single pass
        // each stream is serviced at most once, so the order must
        // interleave even though stream 0's requests are at nearer
        // cylinders.
        s.push(sreq(1, 0, 10));
        s.push(sreq(2, 0, 11));
        s.push(sreq(3, 0, 12));
        s.push(sreq(4, 1, 900));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop_next(SimTime::ZERO, 0))
            .map(|r| r.id.0)
            .collect();
        // Pass 1: {1, 4} in elevator order from head 0 → 1 then 4.
        // Pass 2: {2}; pass 3: {3}.
        assert_eq!(order, vec![1, 4, 2, 3]);
    }

    #[test]
    fn elevator_order_within_pass() {
        let mut s = Gss::new(1);
        s.push(sreq(1, 0, 500));
        s.push(sreq(2, 1, 100));
        s.push(sreq(3, 2, 300));
        let order: Vec<u32> = std::iter::from_fn(|| s.pop_next(SimTime::ZERO, 200))
            .map(|r| r.cylinder)
            .collect();
        // Head 200 sweeping up: 300, 500; reverse: 100.
        assert_eq!(order, vec![300, 500, 100]);
    }

    #[test]
    fn groups_take_turns() {
        let mut s = Gss::new(2);
        // Streams 0, 2 → group 0; streams 1, 3 → group 1.
        s.push(sreq(1, 0, 10));
        s.push(sreq(2, 1, 20));
        s.push(sreq(3, 2, 30));
        s.push(sreq(4, 3, 40));
        let groups: Vec<u32> = std::iter::from_fn(|| s.pop_next(SimTime::ZERO, 0))
            .map(|r| r.stream.unwrap().0 % 2)
            .collect();
        // Group 0's batch (streams 0 and 2) drains first, then group 1's.
        assert_eq!(groups, vec![0, 0, 1, 1]);
    }

    #[test]
    fn arrivals_during_pass_wait_for_next_turn() {
        let mut s = Gss::new(2);
        s.push(sreq(1, 0, 10)); // group 0
        s.push(sreq(2, 1, 20)); // group 1
                                // Start group 0's pass.
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 1);
        // A new group-0 request arrives; group 1 must still go next.
        s.push(sreq(3, 0, 5));
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 2);
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 3);
    }

    #[test]
    fn empty_groups_are_skipped() {
        let mut s = Gss::new(4);
        s.push(sreq(1, 3, 10)); // group 3 only
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 1);
        assert_eq!(s.pop_next(SimTime::ZERO, 0), None);
    }

    #[test]
    fn background_requests_participate() {
        let mut s = Gss::new(2);
        s.push(DiskRequest {
            id: RequestId(1),
            cylinder: 10,
            deadline: None,
            stream: None,
            is_prefetch: true,
        });
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 1);
    }

    #[test]
    fn remove_from_batch_and_pending() {
        let mut s = Gss::new(1);
        s.push(sreq(1, 0, 10));
        s.push(sreq(2, 0, 20));
        s.push(sreq(3, 1, 30));
        // Force batch construction.
        assert_eq!(s.pop_next(SimTime::ZERO, 0).unwrap().id.0, 1);
        // id 3 is now in the batch; id 2 is pending.
        assert_eq!(s.remove(RequestId(3)).unwrap().id.0, 3);
        assert_eq!(s.remove(RequestId(2)).unwrap().id.0, 2);
        assert_eq!(s.remove(RequestId(99)), None);
        assert_eq!(s.len(), 0);
        assert_eq!(s.pop_next(SimTime::ZERO, 0), None);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_rejected() {
        let _ = Gss::new(0);
    }

    #[test]
    fn many_groups_approach_round_robin() {
        // With as many groups as streams, each pass holds one stream's
        // request: pure round-robin by group index.
        let mut s = Gss::new(3);
        for stream in 0..3u32 {
            for k in 0..2u64 {
                s.push(sreq(stream as u64 * 10 + k, stream, stream * 100));
            }
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop_next(SimTime::ZERO, 0))
            .map(|r| r.stream.unwrap().0)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }
}
