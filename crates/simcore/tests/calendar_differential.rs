//! Differential property test: the bucket-queue [`Calendar`] against a
//! small stable binary-heap model of the same contract, over randomized
//! interleavings of every mutating operation. The two must agree on
//! *everything observable* — pop order (including same-instant tie order),
//! bounded pops, clocks, counters, and panics on past-scheduling — because
//! the simulation's determinism contract rests on the calendar popping the
//! exact `(time, seq)` order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use spiffi_simcore::{Calendar, SimDuration, SimRng, SimTime};

/// The reference model: a stable min-heap over `(time, seq)`, with the
/// calendar's clock, counters and panics. `seq` is unique, so the payload
/// never takes part in an ordering decision.
#[derive(Clone, Default)]
struct HeapModel<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    now: SimTime,
    seq: u64,
}

/// The calendar operations both implementations expose.
trait Queue<E> {
    fn schedule_at(&mut self, at: SimTime, event: E);
    fn schedule_in(&mut self, delay: SimDuration, event: E);
    fn schedule_now(&mut self, event: E);
    fn pop(&mut self) -> Option<(SimTime, E)>;
    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)>;
    fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)>;
    fn advance_to(&mut self, at: SimTime);
    fn peek_time(&self) -> Option<SimTime>;
    fn now(&self) -> SimTime;
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool;
    fn scheduled_total(&self) -> u64;
}

impl<E> Queue<E> for Calendar<E> {
    fn schedule_at(&mut self, at: SimTime, event: E) {
        Calendar::schedule_at(self, at, event)
    }
    fn schedule_in(&mut self, delay: SimDuration, event: E) {
        Calendar::schedule_in(self, delay, event)
    }
    fn schedule_now(&mut self, event: E) {
        Calendar::schedule_now(self, event)
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        Calendar::pop(self)
    }
    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        Calendar::pop_until(self, limit)
    }
    fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        Calendar::pop_before(self, limit)
    }
    fn advance_to(&mut self, at: SimTime) {
        Calendar::advance_to(self, at)
    }
    fn peek_time(&self) -> Option<SimTime> {
        Calendar::peek_time(self)
    }
    fn now(&self) -> SimTime {
        Calendar::now(self)
    }
    fn len(&self) -> usize {
        Calendar::len(self)
    }
    fn is_empty(&self) -> bool {
        Calendar::is_empty(self)
    }
    fn scheduled_total(&self) -> u64 {
        Calendar::scheduled_total(self)
    }
}

impl<E: Ord> HeapModel<E> {
    fn pop_if(&mut self, refuse: impl Fn(SimTime) -> bool) -> Option<(SimTime, E)> {
        let &Reverse((t, _, _)) = self.heap.peek()?;
        if refuse(t) {
            return None;
        }
        let Reverse((t, _, e)) = self.heap.pop()?;
        self.now = t;
        Some((t, e))
    }
}

impl<E: Ord> Queue<E> for HeapModel<E> {
    fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < now {:?}",
            self.now
        );
        self.heap.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }
    fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }
    fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event)
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if(|_| false)
    }
    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.pop_if(|t| t > limit)
    }
    fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.pop_if(|t| t >= limit)
    }
    fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "advance_to into the past");
        if let Some(t) = self.peek_time() {
            assert!(t >= at, "advance_to would skip a pending event at {t:?}");
        }
        self.now = at;
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
    fn scheduled_total(&self) -> u64 {
        self.seq
    }
}

/// One randomized operation applied to both calendars in lockstep.
#[derive(Debug, Clone, Copy)]
enum Op {
    ScheduleAt(SimTime),
    ScheduleIn(SimDuration),
    ScheduleNow,
    Pop,
    PopUntil(SimDuration),
    PopBefore(SimDuration),
    AdvanceTo(SimDuration),
}

fn draw_op(rng: &mut SimRng, now: SimTime, horizon: u64) -> Op {
    match rng.index(20) {
        // Schedule-heavy mix so the queues actually fill up.
        0..=5 => Op::ScheduleAt(now + SimDuration(rng.u64_below(horizon))),
        6..=8 => Op::ScheduleIn(SimDuration(rng.u64_below(horizon))),
        // Heavy tie pressure: same-instant scheduling is the stability
        // contract's hardest case.
        9..=11 => Op::ScheduleNow,
        12..=15 => Op::Pop,
        16 => Op::PopUntil(SimDuration(rng.u64_below(horizon))),
        17 => Op::PopBefore(SimDuration(rng.u64_below(horizon))),
        18 => Op::AdvanceTo(SimDuration(rng.u64_below(horizon / 4 + 1))),
        // Rare far-future outlier to force cursor jumps and resizes.
        _ => Op::ScheduleAt(now + SimDuration(horizon * 1000 + rng.u64_below(horizon))),
    }
}

fn apply(cal: &mut impl Queue<u64>, op: Op, payload: u64) -> Option<(SimTime, u64)> {
    match op {
        Op::ScheduleAt(t) => {
            cal.schedule_at(t, payload);
            None
        }
        Op::ScheduleIn(d) => {
            cal.schedule_in(d, payload);
            None
        }
        Op::ScheduleNow => {
            cal.schedule_now(payload);
            None
        }
        Op::Pop => cal.pop(),
        Op::PopUntil(d) => {
            let limit = cal.now() + d;
            cal.pop_until(limit)
        }
        Op::PopBefore(d) => {
            let limit = cal.now() + d;
            cal.pop_before(limit)
        }
        Op::AdvanceTo(d) => {
            let at = cal.now() + d;
            if cal.peek_time().is_none_or(|t| t >= at) {
                cal.advance_to(at);
            }
            None
        }
    }
}

/// The full observable state the calendar and the model must agree on
/// after every single operation.
fn observe(cal: &impl Queue<u64>) -> (SimTime, usize, bool, u64, Option<SimTime>) {
    (
        cal.now(),
        cal.len(),
        cal.is_empty(),
        cal.scheduled_total(),
        cal.peek_time(),
    )
}

#[test]
fn bucket_and_heap_kernels_are_observationally_identical() {
    for seed in 0..96u64 {
        let mut rng = SimRng::stream(0xd1ff, seed);
        // Mix narrow and wide event horizons across seeds: narrow ones
        // mass events into few buckets, wide ones force resizes and
        // empty-day cursor walks.
        let horizon = [50u64, 1_000, 1_000_000, 40_000_000_000][rng.index(4)];
        let n_ops = 200 + rng.index(1800);
        let mut bucket = Calendar::with_capacity(rng.index(64));
        let mut heap = HeapModel::default();
        for step in 0..n_ops {
            // The payload doubles as the op index, so a divergence names
            // the exact op that caused it.
            let payload = step as u64;
            let op = draw_op(&mut rng, bucket.now(), horizon);
            let got_b = apply(&mut bucket, op, payload);
            let got_h = apply(&mut heap, op, payload);
            assert_eq!(got_b, got_h, "seed {seed} step {step} op {op:?}");
            assert_eq!(
                observe(&bucket),
                observe(&heap),
                "seed {seed} step {step} op {op:?}"
            );
            // Occasionally clone both mid-sequence and drain the clones:
            // a cloned calendar must pop exactly what its original would.
            if step % 511 == 255 {
                let mut cb = bucket.clone();
                let mut ch = heap.clone();
                while let Some(b) = cb.pop() {
                    assert_eq!(Some(b), ch.pop(), "seed {seed} clone at {step}");
                }
                assert_eq!(ch.pop(), None, "seed {seed} clone at {step}");
            }
        }
        // Drain to empty: the residual orders must match exactly.
        loop {
            let (b, h) = (bucket.pop(), heap.pop());
            assert_eq!(b, h, "seed {seed} drain");
            if b.is_none() {
                break;
            }
        }
        assert_eq!(observe(&bucket), observe(&heap), "seed {seed} drained");
    }
}

/// The panic message a closure dies with.
fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the operation must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Past-scheduling on `cal`, as a panicking closure.
fn schedule_into_past(mut cal: impl Queue<()>) -> impl FnOnce() {
    move || {
        cal.schedule_at(SimTime(100), ());
        cal.pop();
        cal.schedule_at(SimTime(99), ());
    }
}

/// An `advance_to` past a pending event on `cal`, as a panicking closure.
fn skip_pending(mut cal: impl Queue<()>) -> impl FnOnce() {
    move || {
        cal.schedule_at(SimTime(10), ());
        cal.advance_to(SimTime(11));
    }
}

/// The calendar and the model refuse past-scheduling with the same panic.
#[test]
fn kernels_panic_identically_on_past_scheduling() {
    for msg in [
        panic_message(schedule_into_past(Calendar::new())),
        panic_message(schedule_into_past(HeapModel::default())),
    ] {
        assert!(
            msg.contains("cannot schedule into the past"),
            "unexpected panic message {msg:?}"
        );
    }
}

/// Same for advance_to skipping a pending event.
#[test]
fn kernels_panic_identically_on_skipping_advance() {
    for msg in [
        panic_message(skip_pending(Calendar::new())),
        panic_message(skip_pending(HeapModel::default())),
    ] {
        assert!(
            msg.contains("would skip a pending event"),
            "unexpected panic message {msg:?}"
        );
    }
}
