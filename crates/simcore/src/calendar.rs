//! The pending-event calendar.
//!
//! A stable priority queue over `(time, sequence)`: events at the same
//! simulated instant fire in the order they were scheduled, which both
//! matches CSIM's semantics and makes runs deterministic. The calendar also
//! owns the simulated clock — popping an event advances `now` to the
//! event's time, and scheduling into the past is a programming error that
//! panics rather than silently reordering causality.
//!
//! The queue is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan 1990) over
//! the 128-bit key `time << 64 | seq`. It relies on the calendar being
//! monotone: no pending key is ever below the last popped key `last`. A
//! key lives in bucket 0 if it equals `last`, otherwise in bucket
//! `1 + i`, where `i` is the highest bit in which it differs from `last`.
//! Every key in a lower bucket is smaller than every key in a higher one,
//! so the minimum is in the lowest non-empty bucket, which a `u128`
//! occupancy mask finds with one `trailing_zeros`. A pop scans that
//! bucket for its minimum, makes it the new `last` and moves the
//! bucket's other entries down to the buckets they now belong to; each
//! entry moves down at most once per bit of the key. A schedule is one
//! `leading_zeros` and one `Vec::push`.
//!
//! The bounded pops ([`Calendar::pop_until`], [`Calendar::pop_before`])
//! and [`Calendar::peek_time`] locate the minimum without moving `last`,
//! and only a pop that the bound accepts makes it the new `last`. Moving
//! `last` on a refusal would break the invariant: the clock stays put, so
//! the caller may still schedule between `now` and the refused minimum,
//! below a `last` that had already jumped to it.
//!
//! The radix heap replaced a self-tuning calendar queue (Brown 1988). On
//! `steady_16k`'s recorded calendar traffic (5.47M operations, 2.72M
//! pops) the calendar queue inserted 60% of its events mid-bucket, behind
//! far-future entries that had wrapped around its wheel, and popped from
//! buckets of 4.9 entries on average where its design intended one. In
//! a replay of that traffic alone the radix heap took 79–109 ns per hold
//! against 85–127 ns, scanning buckets of 5.2 entries per pop. The gain
//! inside the event loop is larger, which points at footprint rather than
//! operation count: the calendar queue pre-sized its wheel from the
//! terminal count (131,072 deque headers, 4 MiB, for 16k terminals),
//! where the radix heap holds 129 vectors and the entries themselves.
//!
//! A stable binary heap over the same `(time, seq)` order survives as the
//! reference model of the differential test
//! (`tests/calendar_differential.rs`).

use crate::time::{SimDuration, SimTime};

/// The simulation's event calendar and clock.
///
/// `E` is the caller's event payload type; the queue never inspects it.
///
/// # Example
/// ```
/// use spiffi_simcore::{Calendar, SimDuration, SimTime};
///
/// let mut cal: Calendar<&str> = Calendar::new();
/// cal.schedule_in(SimDuration::from_secs(2), "second");
/// cal.schedule_in(SimDuration::from_secs(1), "first");
/// assert_eq!(cal.pop(), Some((SimTime::from_secs_f64(1.0), "first")));
/// assert_eq!(cal.pop(), Some((SimTime::from_secs_f64(2.0), "second")));
/// assert_eq!(cal.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct Calendar<E> {
    /// `BUCKETS` radix buckets, unordered within each.
    buckets: Vec<Vec<Entry<E>>>,
    /// Bit `b - 1` is set iff bucket `b >= 1` is non-empty. Bucket 0 is
    /// outside the mask: it can only hold a key equal to `last`, which
    /// happens solely for the first event at t = 0 before any pop.
    occupied: u128,
    /// The last popped key (0 before the first pop). No pending key is
    /// below it.
    last: u128,
    now: SimTime,
    seq: u64,
    scheduled_total: u64,
    len: usize,
}

#[derive(Clone, Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The radix key `time << 64 | seq`, ordered like `(time, seq)`.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time.0) << 64) | u128::from(self.seq)
    }
}

/// One bucket per bit of the key, plus bucket 0 for a key equal to `last`.
const BUCKETS: usize = 129;

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar with the clock at t = 0.
    pub fn new() -> Self {
        Calendar {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: 0,
            last: 0,
            now: SimTime::ZERO,
            seq: 0,
            scheduled_total: 0,
            len: 0,
        }
    }

    /// An empty calendar for about `capacity` pending events. The size is
    /// only a hint, and the radix heap ignores it: its buckets grow on
    /// demand and keep their buffers, so nothing needs pre-sizing.
    pub fn with_capacity(capacity: usize) -> Self {
        let _ = capacity;
        Self::new()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is before the current simulated time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < now {:?}",
            self.now
        );
        self.push_at(at, event);
    }

    /// Schedule `event` after delay `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at the current instant (fires after all events
    /// already scheduled for this instant). `now >= now` holds trivially,
    /// so this skips [`Calendar::schedule_at`]'s past-check.
    pub fn schedule_now(&mut self, event: E) {
        self.push_at(self.now, event);
    }

    /// The checked-in-common tail of every schedule path. `at >= now`
    /// and a fresh `seq` make the key exceed `last` (or equal it only for
    /// the very first event at t = 0).
    #[inline]
    fn push_at(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.scheduled_total += 1;
        self.len += 1;
        self.insert(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// The bucket a key belongs to relative to `last`.
    #[inline]
    fn bucket_of(&self, key: u128) -> usize {
        debug_assert!(key >= self.last, "calendar key below the last pop");
        (128 - (key ^ self.last).leading_zeros()) as usize
    }

    #[inline]
    fn insert(&mut self, e: Entry<E>) {
        let b = self.bucket_of(e.key());
        if b > 0 {
            self.occupied |= 1 << (b - 1);
        }
        self.buckets[b].push(e);
    }

    /// The bucket and index of the pending minimum, without moving
    /// `last`. The calendar must not be empty.
    #[inline]
    fn locate_min(&self) -> (usize, usize) {
        debug_assert!(self.len > 0);
        if !self.buckets[0].is_empty() {
            return (0, 0);
        }
        let b = self.occupied.trailing_zeros() as usize + 1;
        let bucket = &self.buckets[b];
        let mut best = 0;
        let mut best_key = bucket[0].key();
        for (i, e) in bucket.iter().enumerate().skip(1) {
            let k = e.key();
            if k < best_key {
                best = i;
                best_key = k;
            }
        }
        (b, best)
    }

    /// Remove and return the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_bounded(SimTime::MAX, true)
    }

    /// Remove and return the next event only if it fires at or before
    /// `limit`; the clock never advances past `limit`.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.pop_bounded(limit, true)
    }

    /// Remove and return the next event only if it fires strictly before
    /// `limit`. The single-pass sibling of peek-compare-pop loops such as
    /// replaying up to (but excluding) a late-join boundary.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.pop_bounded(limit, false)
    }

    /// Single-pass bounded pop: one scan locates the minimum and the bound
    /// is checked against it. Only an accepted pop moves `last` (see the
    /// module docs), so a refusal leaves the heap exactly as it was.
    fn pop_bounded(&mut self, limit: SimTime, inclusive: bool) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let (b, i) = self.locate_min();
        let time = self.buckets[b][i].time;
        if time > limit || (!inclusive && time == limit) {
            return None;
        }
        let e = self.buckets[b].swap_remove(i);
        if b > 0 {
            self.last = e.key();
            // The bucket's other entries all share `last`'s bits above
            // bit b - 1 and now differ from it only below, so each one
            // moves to a strictly lower bucket. Taking the vector out
            // keeps its buffer for the bucket's next fill.
            let mut rest = std::mem::take(&mut self.buckets[b]);
            self.occupied &= !(1 << (b - 1));
            for moved in rest.drain(..) {
                debug_assert!(self.bucket_of(moved.key()) < b);
                self.insert(moved);
            }
            self.buckets[b] = rest;
        }
        self.len -= 1;
        debug_assert!(time >= self.now, "event calendar went backwards");
        self.now = time;
        Some((time, e.event))
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let (b, i) = self.locate_min();
        Some(self.buckets[b][i].time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled (for throughput reporting).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Advance the clock to `at` without processing events; used to close a
    /// measurement window at an exact boundary.
    ///
    /// # Panics
    /// If an event earlier than `at` is still pending, or `at` is in the
    /// past.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "advance_to into the past");
        if let Some(t) = self.peek_time() {
            assert!(t >= at, "advance_to would skip a pending event at {t:?}");
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(30), 'c');
        cal.schedule_at(SimTime(10), 'a');
        cal.schedule_at(SimTime(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule_at(SimTime(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(100), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime(100));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(100), ());
        cal.pop();
        cal.schedule_at(SimTime(50), ());
    }

    #[test]
    fn pop_until_respects_limit() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(10), 'a');
        cal.schedule_at(SimTime(20), 'b');
        assert_eq!(cal.pop_until(SimTime(15)), Some((SimTime(10), 'a')));
        assert_eq!(cal.pop_until(SimTime(15)), None);
        assert_eq!(cal.now(), SimTime(10));
        assert_eq!(cal.pop_until(SimTime(25)), Some((SimTime(20), 'b')));
    }

    #[test]
    fn pop_before_is_exclusive() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(10), 'a');
        cal.schedule_at(SimTime(20), 'b');
        assert_eq!(cal.pop_before(SimTime(10)), None);
        assert_eq!(cal.pop_before(SimTime(11)), Some((SimTime(10), 'a')));
        assert_eq!(cal.pop_before(SimTime(20)), None);
        assert_eq!(cal.pop_until(SimTime(20)), Some((SimTime(20), 'b')));
    }

    #[test]
    fn schedule_now_fires_after_current_instant_events() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(10), 1);
        cal.pop();
        cal.schedule_now(2);
        cal.schedule_now(3);
        assert_eq!(cal.pop(), Some((SimTime(10), 2)));
        assert_eq!(cal.pop(), Some((SimTime(10), 3)));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(1000), ());
        cal.pop();
        cal.schedule_in(SimDuration(500), ());
        assert_eq!(cal.peek_time(), Some(SimTime(1500)));
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut cal: Calendar<()> = Calendar::new();
        cal.advance_to(SimTime(42));
        assert_eq!(cal.now(), SimTime(42));
    }

    #[test]
    #[should_panic(expected = "would skip a pending event")]
    fn advance_to_cannot_skip_events() {
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(10), ());
        cal.advance_to(SimTime(20));
    }

    #[test]
    fn len_and_counters() {
        let mut cal = Calendar::new();
        assert!(cal.is_empty());
        cal.schedule_at(SimTime(1), ());
        cal.schedule_at(SimTime(2), ());
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.scheduled_total(), 2);
        cal.pop();
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_is_stable() {
        // Property-style check: popping while scheduling preserves global
        // (time, insertion) order for equal times.
        let mut cal = Calendar::new();
        cal.schedule_at(SimTime(10), (10, 0));
        cal.schedule_at(SimTime(10), (10, 1));
        let first = cal.pop().unwrap();
        cal.schedule_at(SimTime(10), (10, 2));
        let second = cal.pop().unwrap();
        let third = cal.pop().unwrap();
        assert_eq!(first.1, (10, 0));
        assert_eq!(second.1, (10, 1));
        assert_eq!(third.1, (10, 2));
    }

    #[test]
    fn bucket_kernel_survives_growth_and_wide_horizons() {
        // Near-future clusters mixed with far-future outliers: entries
        // start in buckets far apart and cascade down through many
        // redistributions; popped order must stay exact.
        let mut cal = Calendar::new();
        let mut expect = Vec::new();
        for i in 0..5000u64 {
            // Mix of near-future clusters and far-future outliers.
            let t = if i % 97 == 0 {
                SimTime(1_000_000_000_000 + i)
            } else {
                SimTime((i % 911) * 1_000 + i / 911)
            };
            cal.schedule_at(t, i);
            expect.push((t, i));
        }
        expect.sort_by_key(|&(t, i)| (t, i));
        let got: Vec<(SimTime, u64)> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn massed_ties_do_not_thrash_the_rebuilder() {
        // Thousands of events at the same instant differ only in `seq`,
        // so they sort by the low half of the key: insertion order.
        let mut cal = Calendar::new();
        for i in 0..20_000u64 {
            cal.schedule_at(SimTime(5), i);
        }
        for i in 0..20_000u64 {
            assert_eq!(cal.pop(), Some((SimTime(5), i)));
        }
        assert!(cal.is_empty());
    }
}
