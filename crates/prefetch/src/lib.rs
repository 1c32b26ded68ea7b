//! Prefetching strategies (§5.2.3 of the SPIFFI paper).
//!
//! "The standard SPIFFI prefetching algorithm operates by responding to
//! each real reference to a stripe block on some disk with a background
//! request for the next stripe block at the same disk. Each prefetch
//! request is inserted into a first-in first-out queue associated with the
//! appropriate disk. A fixed set of prefetch processes service each disk's
//! prefetch queue." The number of processes is the prefetcher's
//! **aggressiveness**: it bounds how many prefetch I/Os can sit in the disk
//! queue at once.
//!
//! Two extensions:
//!
//! * **Real-time prefetching** replaces the FIFO with a priority queue
//!   ordered by each prefetch's *estimated deadline* (when the anticipated
//!   true request will need the block), and passes that deadline to the
//!   real-time disk scheduler, so "an urgent prefetch request can take
//!   priority over a non-urgent true request".
//! * **Delayed prefetching** additionally holds a prefetch back until it
//!   has less than the **maximum advance prefetch time** left before its
//!   deadline (Figure 7), bounding how long prefetched data sits in memory
//!   and thereby the server's memory requirement.
//!
//! This crate models one disk's prefetch queue + process pool as a state
//! machine ([`PrefetchQueue`]); the server loop drives it with
//! [`PrefetchQueue::enqueue`] / [`PrefetchQueue::try_issue`] /
//! [`PrefetchQueue::complete`] and schedules the release timers that
//! [`IssueDecision::NotYet`] asks for.

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};

use spiffi_layout::BlockAddr;
use spiffi_simcore::{FastHashMap, SimDuration, SimTime};

/// One queued prefetch: the block to fetch and the deadline the true
/// request for it is estimated to carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Block to prefetch.
    pub block: BlockAddr,
    /// Estimated deadline of the anticipated real request.
    pub estimated_deadline: SimTime,
    /// Terminal the prefetch was issued on behalf of.
    pub stream: u32,
}

/// Prefetcher configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PrefetchKind {
    /// Prefetching disabled entirely.
    Off,
    /// FIFO queue; issued prefetches carry no deadline (lowest priority
    /// under real-time scheduling, indistinguishable from real requests
    /// under the others).
    Standard {
        /// Prefetch processes per disk (aggressiveness).
        processes: u32,
    },
    /// Deadline-ordered queue; issued prefetches carry their estimated
    /// deadline.
    RealTime {
        /// Prefetch processes per disk.
        processes: u32,
    },
    /// Real-time ordering plus a hold-back: a prefetch may not be issued
    /// earlier than `max_advance` before its estimated deadline.
    Delayed {
        /// Prefetch processes per disk.
        processes: u32,
        /// Maximum advance prefetch time (paper explores 8 s and 4 s).
        max_advance: SimDuration,
    },
}

impl PrefetchKind {
    /// Prefetch processes for this configuration.
    pub fn processes(self) -> u32 {
        match self {
            PrefetchKind::Off => 0,
            PrefetchKind::Standard { processes }
            | PrefetchKind::RealTime { processes }
            | PrefetchKind::Delayed { processes, .. } => processes,
        }
    }

    /// Whether issued prefetch I/Os carry their estimated deadline.
    pub fn deadline_aware(self) -> bool {
        matches!(
            self,
            PrefetchKind::RealTime { .. } | PrefetchKind::Delayed { .. }
        )
    }

    /// Short label for tables.
    pub fn label(self) -> String {
        match self {
            PrefetchKind::Off => "off".into(),
            PrefetchKind::Standard { processes } => format!("standard({processes})"),
            PrefetchKind::RealTime { processes } => format!("real-time({processes})"),
            PrefetchKind::Delayed {
                processes,
                max_advance,
            } => format!("delayed({processes},{}s)", max_advance.as_secs_f64()),
        }
    }
}

/// Result of asking the queue for the next prefetch to issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IssueDecision {
    /// Nothing to do: queue empty or all processes busy.
    Idle,
    /// Issue this prefetch to the disk scheduler now. `deadline` is the
    /// deadline the disk request should carry (None for the standard
    /// algorithm).
    Issue {
        /// The prefetch to submit.
        request: PrefetchRequest,
        /// Deadline to attach to the disk request.
        deadline: Option<SimTime>,
    },
    /// (Delayed prefetching only.) The most urgent queued prefetch may not
    /// be issued before `release_at`; re-poll then.
    NotYet {
        /// Earliest time the head prefetch becomes issuable.
        release_at: SimTime,
    },
}

/// Counters for the prefetcher.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrefetchStats {
    /// Requests accepted into the queue.
    pub enqueued: u64,
    /// Requests not enqueued because the block was already queued.
    pub deduplicated: u64,
    /// Requests handed to the disk scheduler.
    pub issued: u64,
    /// Issued requests whose I/O completed.
    pub completed: u64,
    /// Issued requests abandoned (block already resident, or no buffer
    /// frame available).
    pub aborted: u64,
    /// Queued requests cancelled because a demand read superseded them —
    /// the signature of a maximum advance prefetch time that is too small
    /// relative to the terminals' request lead (§7.3's delayed(4 s) case).
    pub cancelled: u64,
}

/// One disk's prefetch queue and process pool.
///
/// Cancellation is lazy: [`PrefetchQueue::cancel`] only forgets the block
/// in `queued_blocks`, and the cancelled entry stays in the FIFO or heap
/// until it reaches the front, where [`PrefetchQueue::try_issue`] drops
/// it. An entry is live iff `queued_blocks` maps its block to its own
/// sequence number, so an entry left behind by a cancel never issues,
/// even after its block is queued again.
#[derive(Clone, Debug)]
pub struct PrefetchQueue {
    kind: PrefetchKind,
    fifo: VecDeque<(u64, PrefetchRequest)>,
    by_deadline: BinaryHeap<Reverse<(SimTime, u64, PrefetchEntry)>>,
    /// Each queued block's live entry, by sequence number.
    queued_blocks: FastHashMap<BlockAddr, u64>,
    seq: u64,
    active: u32,
    stats: PrefetchStats,
}

/// Heap payload; ordered only through the surrounding tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PrefetchEntry(PrefetchRequest);

impl PartialOrd for PrefetchEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PrefetchEntry {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        // The (deadline, seq) prefix of the tuple is already a total order;
        // entries never tie on seq.
        std::cmp::Ordering::Equal
    }
}

impl PrefetchQueue {
    /// An empty queue for one disk.
    pub fn new(kind: PrefetchKind) -> Self {
        PrefetchQueue {
            kind,
            fifo: VecDeque::new(),
            by_deadline: BinaryHeap::new(),
            queued_blocks: FastHashMap::default(),
            seq: 0,
            active: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// Configuration in effect.
    pub fn kind(&self) -> PrefetchKind {
        self.kind
    }

    /// Queued (not yet issued) prefetches.
    pub fn len(&self) -> usize {
        self.queued_blocks.len()
    }

    /// True if no prefetches are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Prefetch I/Os currently issued and outstanding.
    pub fn active(&self) -> u32 {
        self.active
    }

    /// Counters.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Add a prefetch request. Duplicates of an already-queued block are
    /// dropped (two terminals streaming the same title generate the same
    /// prefetches).
    pub fn enqueue(&mut self, req: PrefetchRequest) {
        if matches!(self.kind, PrefetchKind::Off) {
            return;
        }
        let Entry::Vacant(slot) = self.queued_blocks.entry(req.block) else {
            self.stats.deduplicated += 1;
            return;
        };
        let seq = self.seq;
        self.seq += 1;
        slot.insert(seq);
        self.stats.enqueued += 1;
        match self.kind {
            PrefetchKind::Standard { .. } => self.fifo.push_back((seq, req)),
            PrefetchKind::RealTime { .. } | PrefetchKind::Delayed { .. } => {
                self.by_deadline
                    .push(Reverse((req.estimated_deadline, seq, PrefetchEntry(req))));
            }
            PrefetchKind::Off => unreachable!(),
        }
    }

    /// Drop a queued prefetch for `block` (a real request beat it); no-op
    /// if the block is not queued. Returns true if something was removed.
    /// O(1): the entry itself is dropped later, when it reaches the front.
    pub fn cancel(&mut self, block: BlockAddr) -> bool {
        if self.queued_blocks.remove(&block).is_none() {
            return false;
        }
        self.stats.cancelled += 1;
        true
    }

    /// Whether the entry `(seq, block)` is still queued, not cancelled.
    fn is_live(&self, seq: u64, block: BlockAddr) -> bool {
        self.queued_blocks.get(&block) == Some(&seq)
    }

    /// Pop cancelled entries off the front of the FIFO and the heap, so
    /// that each front is a live entry or the structure is empty.
    fn drop_stale_heads(&mut self) {
        while let Some(&(seq, req)) = self.fifo.front() {
            if self.is_live(seq, req.block) {
                break;
            }
            self.fifo.pop_front();
        }
        while let Some(&Reverse((_, seq, e))) = self.by_deadline.peek() {
            if self.is_live(seq, e.0.block) {
                break;
            }
            self.by_deadline.pop();
        }
    }

    /// Ask for the next prefetch to issue at time `now`.
    pub fn try_issue(&mut self, now: SimTime) -> IssueDecision {
        if self.active >= self.kind.processes() {
            return IssueDecision::Idle;
        }
        self.drop_stale_heads();
        match self.kind {
            PrefetchKind::Off => IssueDecision::Idle,
            PrefetchKind::Standard { .. } => match self.fifo.pop_front() {
                None => IssueDecision::Idle,
                Some((_, req)) => {
                    self.issue_bookkeeping(req);
                    IssueDecision::Issue {
                        request: req,
                        deadline: None,
                    }
                }
            },
            PrefetchKind::RealTime { .. } => match self.by_deadline.pop() {
                None => IssueDecision::Idle,
                Some(Reverse((_, _, e))) => {
                    self.issue_bookkeeping(e.0);
                    IssueDecision::Issue {
                        request: e.0,
                        deadline: Some(e.0.estimated_deadline),
                    }
                }
            },
            PrefetchKind::Delayed { max_advance, .. } => {
                let head = match self.by_deadline.peek() {
                    None => return IssueDecision::Idle,
                    Some(Reverse((d, _, _))) => *d,
                };
                let release_at = head
                    .saturating_since(SimTime::ZERO)
                    .0
                    .saturating_sub(max_advance.0);
                let release_at = SimTime(release_at);
                if release_at > now {
                    return IssueDecision::NotYet { release_at };
                }
                let Reverse((_, _, e)) = self.by_deadline.pop().expect("peeked");
                self.issue_bookkeeping(e.0);
                IssueDecision::Issue {
                    request: e.0,
                    deadline: Some(e.0.estimated_deadline),
                }
            }
        }
    }

    fn issue_bookkeeping(&mut self, req: PrefetchRequest) {
        self.queued_blocks.remove(&req.block);
        self.active += 1;
        self.stats.issued += 1;
    }

    /// An issued prefetch's I/O completed; frees a prefetch process.
    pub fn complete(&mut self) {
        debug_assert!(self.active > 0, "complete with no active prefetch");
        self.active -= 1;
        self.stats.completed += 1;
    }

    /// An issued prefetch was abandoned before or instead of its I/O
    /// (block already resident, or no buffer frame); frees a process.
    pub fn abort(&mut self) {
        debug_assert!(self.active > 0, "abort with no active prefetch");
        self.active -= 1;
        self.stats.aborted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiffi_mpeg::VideoId;

    fn block(i: u32) -> BlockAddr {
        BlockAddr {
            video: VideoId(0),
            index: i,
        }
    }

    fn req(i: u32, deadline_s: f64) -> PrefetchRequest {
        PrefetchRequest {
            block: block(i),
            estimated_deadline: SimTime::from_secs_f64(deadline_s),
            stream: i,
        }
    }

    fn issue_block(q: &mut PrefetchQueue, now: SimTime) -> Option<u32> {
        match q.try_issue(now) {
            IssueDecision::Issue { request, .. } => Some(request.block.index),
            _ => None,
        }
    }

    #[test]
    fn standard_is_fifo() {
        let mut q = PrefetchQueue::new(PrefetchKind::Standard { processes: 8 });
        q.enqueue(req(1, 9.0));
        q.enqueue(req(2, 1.0));
        q.enqueue(req(3, 5.0));
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(1));
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(2));
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(3));
    }

    #[test]
    fn standard_issues_without_deadline() {
        let mut q = PrefetchQueue::new(PrefetchKind::Standard { processes: 1 });
        q.enqueue(req(1, 9.0));
        match q.try_issue(SimTime::ZERO) {
            IssueDecision::Issue { deadline, .. } => assert_eq!(deadline, None),
            other => panic!("expected Issue, got {other:?}"),
        }
    }

    #[test]
    fn real_time_orders_by_deadline() {
        let mut q = PrefetchQueue::new(PrefetchKind::RealTime { processes: 8 });
        q.enqueue(req(1, 9.0));
        q.enqueue(req(2, 1.0));
        q.enqueue(req(3, 5.0));
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(2));
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(3));
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(1));
    }

    #[test]
    fn real_time_carries_deadline() {
        let mut q = PrefetchQueue::new(PrefetchKind::RealTime { processes: 1 });
        q.enqueue(req(1, 9.0));
        match q.try_issue(SimTime::ZERO) {
            IssueDecision::Issue { deadline, .. } => {
                assert_eq!(deadline, Some(SimTime::from_secs_f64(9.0)));
            }
            other => panic!("expected Issue, got {other:?}"),
        }
    }

    #[test]
    fn process_limit_bounds_outstanding() {
        let mut q = PrefetchQueue::new(PrefetchKind::Standard { processes: 2 });
        for i in 0..4 {
            q.enqueue(req(i, 1.0));
        }
        assert!(issue_block(&mut q, SimTime::ZERO).is_some());
        assert!(issue_block(&mut q, SimTime::ZERO).is_some());
        assert_eq!(q.active(), 2);
        assert_eq!(q.try_issue(SimTime::ZERO), IssueDecision::Idle);
        q.complete();
        assert!(issue_block(&mut q, SimTime::ZERO).is_some());
        assert_eq!(q.active(), 2);
        q.abort();
        assert_eq!(q.active(), 1);
        assert_eq!(q.stats().aborted, 1);
    }

    #[test]
    fn delayed_holds_back_until_window() {
        // Figure 7: a prefetch with deadline t may not be issued before
        // t - max_advance.
        let mut q = PrefetchQueue::new(PrefetchKind::Delayed {
            processes: 8,
            max_advance: SimDuration::from_secs(8),
        });
        q.enqueue(req(1, 20.0));
        match q.try_issue(SimTime::from_secs_f64(5.0)) {
            IssueDecision::NotYet { release_at } => {
                assert_eq!(release_at, SimTime::from_secs_f64(12.0));
            }
            other => panic!("expected NotYet, got {other:?}"),
        }
        // At the release instant it issues.
        assert_eq!(issue_block(&mut q, SimTime::from_secs_f64(12.0)), Some(1));
    }

    #[test]
    fn delayed_issues_immediately_when_urgent() {
        let mut q = PrefetchQueue::new(PrefetchKind::Delayed {
            processes: 1,
            max_advance: SimDuration::from_secs(8),
        });
        q.enqueue(req(1, 3.0));
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(1));
    }

    #[test]
    fn deduplication() {
        let mut q = PrefetchQueue::new(PrefetchKind::Standard { processes: 8 });
        q.enqueue(req(1, 1.0));
        q.enqueue(req(1, 2.0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().deduplicated, 1);
        // Once issued, the block may be queued again.
        issue_block(&mut q, SimTime::ZERO);
        q.enqueue(req(1, 3.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_removes_from_fifo_and_heap() {
        let mut q = PrefetchQueue::new(PrefetchKind::Standard { processes: 8 });
        q.enqueue(req(1, 1.0));
        q.enqueue(req(2, 2.0));
        assert!(q.cancel(block(1)));
        assert!(!q.cancel(block(1)));
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(2));

        let mut q = PrefetchQueue::new(PrefetchKind::RealTime { processes: 8 });
        q.enqueue(req(1, 1.0));
        q.enqueue(req(2, 2.0));
        assert!(q.cancel(block(1)));
        assert_eq!(q.len(), 1);
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(2));
    }

    #[test]
    fn off_kind_accepts_nothing() {
        let mut q = PrefetchQueue::new(PrefetchKind::Off);
        q.enqueue(req(1, 1.0));
        assert!(q.is_empty());
        assert_eq!(q.try_issue(SimTime::ZERO), IssueDecision::Idle);
        assert_eq!(PrefetchKind::Off.processes(), 0);
    }

    #[test]
    fn kind_labels_and_flags() {
        assert_eq!(
            PrefetchKind::Standard { processes: 2 }.label(),
            "standard(2)"
        );
        assert_eq!(
            PrefetchKind::Delayed {
                processes: 4,
                max_advance: SimDuration::from_secs(8)
            }
            .label(),
            "delayed(4,8s)"
        );
        assert!(!PrefetchKind::Standard { processes: 1 }.deadline_aware());
        assert!(PrefetchKind::RealTime { processes: 1 }.deadline_aware());
        assert!(PrefetchKind::Delayed {
            processes: 1,
            max_advance: SimDuration::from_secs(4)
        }
        .deadline_aware());
    }

    #[test]
    fn deadline_ties_issue_in_arrival_order() {
        let mut q = PrefetchQueue::new(PrefetchKind::RealTime { processes: 8 });
        q.enqueue(req(5, 1.0));
        q.enqueue(req(6, 1.0));
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(5));
        assert_eq!(issue_block(&mut q, SimTime::ZERO), Some(6));
    }
}
