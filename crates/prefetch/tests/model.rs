//! Model test: the lazily-cancelling [`PrefetchQueue`] against an eager
//! reference that removes a cancelled entry on the spot, over random
//! sequences of every operation. The two must agree on every
//! [`IssueDecision`], on `len()`, on `active()` and on the
//! [`PrefetchStats`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use spiffi_layout::BlockAddr;
use spiffi_mpeg::VideoId;
use spiffi_prefetch::{IssueDecision, PrefetchKind, PrefetchQueue, PrefetchRequest, PrefetchStats};
use spiffi_simcore::{SimDuration, SimRng, SimTime};

/// A request as a heap key: `(deadline, seq, video, block index, stream)`.
type Keyed = (SimTime, u64, u32, u32, u32);

/// The reference: a queue that deletes cancelled entries eagerly, from
/// the FIFO by position and from the heap by rebuilding it.
struct EagerQueue {
    kind: PrefetchKind,
    fifo: VecDeque<PrefetchRequest>,
    by_deadline: BinaryHeap<Reverse<Keyed>>,
    queued: HashSet<BlockAddr>,
    seq: u64,
    active: u32,
    stats: PrefetchStats,
}

/// A heap tuple back into its request.
fn unpack(&(deadline, _, video, index, stream): &Keyed) -> PrefetchRequest {
    PrefetchRequest {
        block: BlockAddr {
            video: VideoId(video),
            index,
        },
        estimated_deadline: deadline,
        stream,
    }
}

impl EagerQueue {
    fn new(kind: PrefetchKind) -> Self {
        EagerQueue {
            kind,
            fifo: VecDeque::new(),
            by_deadline: BinaryHeap::new(),
            queued: HashSet::new(),
            seq: 0,
            active: 0,
            stats: PrefetchStats::default(),
        }
    }

    fn len(&self) -> usize {
        self.fifo.len() + self.by_deadline.len()
    }

    fn enqueue(&mut self, req: PrefetchRequest) {
        if matches!(self.kind, PrefetchKind::Off) {
            return;
        }
        if !self.queued.insert(req.block) {
            self.stats.deduplicated += 1;
            return;
        }
        self.stats.enqueued += 1;
        if let PrefetchKind::Standard { .. } = self.kind {
            self.fifo.push_back(req);
        } else {
            let seq = self.seq;
            self.seq += 1;
            self.by_deadline.push(Reverse((
                req.estimated_deadline,
                seq,
                req.block.video.0,
                req.block.index,
                req.stream,
            )));
        }
    }

    fn cancel(&mut self, block: BlockAddr) -> bool {
        if !self.queued.remove(&block) {
            return false;
        }
        self.stats.cancelled += 1;
        if let PrefetchKind::Standard { .. } = self.kind {
            let pos = self.fifo.iter().position(|r| r.block == block).unwrap();
            self.fifo.remove(pos);
        } else {
            let drained = std::mem::take(&mut self.by_deadline);
            self.by_deadline = drained
                .into_iter()
                .filter(|Reverse(t)| unpack(t).block != block)
                .collect();
        }
        true
    }

    fn issue(&mut self, req: PrefetchRequest, deadline: Option<SimTime>) -> IssueDecision {
        self.queued.remove(&req.block);
        self.active += 1;
        self.stats.issued += 1;
        IssueDecision::Issue {
            request: req,
            deadline,
        }
    }

    fn try_issue(&mut self, now: SimTime) -> IssueDecision {
        if self.active >= self.kind.processes() {
            return IssueDecision::Idle;
        }
        match self.kind {
            PrefetchKind::Off => IssueDecision::Idle,
            PrefetchKind::Standard { .. } => match self.fifo.pop_front() {
                None => IssueDecision::Idle,
                Some(req) => self.issue(req, None),
            },
            PrefetchKind::RealTime { .. } => match self.by_deadline.pop() {
                None => IssueDecision::Idle,
                Some(Reverse(t)) => {
                    let req = unpack(&t);
                    self.issue(req, Some(req.estimated_deadline))
                }
            },
            PrefetchKind::Delayed { max_advance, .. } => {
                let Some(Reverse(t)) = self.by_deadline.peek() else {
                    return IssueDecision::Idle;
                };
                let release_at = SimTime(t.0 .0.saturating_sub(max_advance.0));
                if release_at > now {
                    return IssueDecision::NotYet { release_at };
                }
                let Reverse(t) = self.by_deadline.pop().unwrap();
                let req = unpack(&t);
                self.issue(req, Some(req.estimated_deadline))
            }
        }
    }

    fn complete(&mut self) {
        self.active -= 1;
        self.stats.completed += 1;
    }

    fn abort(&mut self) {
        self.active -= 1;
        self.stats.aborted += 1;
    }
}

fn block(index: u32) -> BlockAddr {
    BlockAddr {
        video: VideoId(index % 3),
        index,
    }
}

fn kinds() -> [PrefetchKind; 5] {
    [
        PrefetchKind::Standard { processes: 1 },
        PrefetchKind::Standard { processes: 4 },
        PrefetchKind::RealTime { processes: 2 },
        PrefetchKind::Delayed {
            processes: 1,
            max_advance: SimDuration::from_secs(4),
        },
        PrefetchKind::Delayed {
            processes: 3,
            max_advance: SimDuration::from_secs(8),
        },
    ]
}

/// Both queues agree on everything observable.
fn assert_same(lazy: &PrefetchQueue, eager: &EagerQueue, ctx: &str) {
    assert_eq!(lazy.len(), eager.len(), "{ctx}: len");
    assert_eq!(lazy.is_empty(), eager.len() == 0, "{ctx}: is_empty");
    assert_eq!(lazy.active(), eager.active, "{ctx}: active");
    assert_eq!(lazy.stats(), &eager.stats, "{ctx}: stats");
}

#[test]
fn lazy_cancel_matches_eager_reference() {
    for kind in kinds() {
        for seed in 0..40u64 {
            let mut rng = SimRng::stream(0x9ef, seed);
            let mut lazy = PrefetchQueue::new(kind);
            let mut eager = EagerQueue::new(kind);
            let mut now = SimTime::ZERO;
            // A small block pool, so duplicates, cancels of queued blocks
            // and re-enqueues of cancelled ones are all common.
            let pool = 4 + rng.index(28) as u32;
            for step in 0..3_000 {
                let ctx = format!("{kind:?} seed {seed} step {step}");
                match rng.index(12) {
                    0..=3 => {
                        let req = PrefetchRequest {
                            block: block(rng.u64_below(pool as u64) as u32),
                            estimated_deadline: now
                                + SimDuration::from_millis(rng.u64_below(20_000)),
                            stream: step,
                        };
                        lazy.enqueue(req);
                        eager.enqueue(req);
                    }
                    4..=6 => {
                        let b = block(rng.u64_below(pool as u64) as u32);
                        assert_eq!(lazy.cancel(b), eager.cancel(b), "{ctx}: cancel");
                    }
                    7..=9 => {
                        now += SimDuration::from_millis(rng.u64_below(1_500));
                        assert_eq!(lazy.try_issue(now), eager.try_issue(now), "{ctx}");
                    }
                    10 if eager.active > 0 => {
                        lazy.complete();
                        eager.complete();
                    }
                    11 if eager.active > 0 => {
                        lazy.abort();
                        eager.abort();
                    }
                    _ => {}
                }
                assert_same(&lazy, &eager, &ctx);
            }
            // Drain both with every process free and time far ahead.
            let end = now + SimDuration::from_secs(3_600);
            loop {
                while eager.active > 0 {
                    lazy.complete();
                    eager.complete();
                }
                let d = lazy.try_issue(end);
                assert_eq!(d, eager.try_issue(end), "{kind:?} seed {seed} drain");
                if d == IssueDecision::Idle {
                    break;
                }
            }
            assert_same(&lazy, &eager, &format!("{kind:?} seed {seed} drained"));
            assert!(lazy.is_empty());
        }
    }
}

/// A cancelled entry left in the queue never issues, even once its block
/// is queued again: only the new request, with its own deadline and
/// stream, comes out.
#[test]
fn cancelled_then_requeued_block_issues_only_the_new_request() {
    for kind in kinds() {
        let mut q = PrefetchQueue::new(kind);
        let old = PrefetchRequest {
            block: block(7),
            estimated_deadline: SimTime::from_secs_f64(1.0),
            stream: 1,
        };
        let new = PrefetchRequest {
            estimated_deadline: SimTime::from_secs_f64(2.0),
            stream: 2,
            ..old
        };
        q.enqueue(old);
        assert!(q.cancel(old.block));
        q.enqueue(new);
        assert_eq!(q.len(), 1, "{kind:?}");
        let mut issued = Vec::new();
        loop {
            match q.try_issue(SimTime::from_secs_f64(100.0)) {
                IssueDecision::Issue { request, .. } => {
                    issued.push(request);
                    q.complete();
                }
                IssueDecision::Idle => break,
                other => panic!("{kind:?}: unexpected {other:?}"),
            }
        }
        assert_eq!(issued, vec![new], "{kind:?}");
        assert!(q.is_empty(), "{kind:?}");
        assert_eq!(q.stats().cancelled, 1, "{kind:?}");
        assert_eq!(q.stats().issued, 1, "{kind:?}");
    }
}
