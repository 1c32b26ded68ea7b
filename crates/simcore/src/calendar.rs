//! The pending-event calendar.
//!
//! A stable priority queue over `(time, sequence)`: events at the same
//! simulated instant fire in the order they were scheduled, which both
//! matches CSIM's semantics and makes runs deterministic. The calendar also
//! owns the simulated clock — popping an event advances `now` to the
//! event's time, and scheduling into the past is a programming error that
//! panics rather than silently reordering causality.
//!
//! Two interchangeable kernels implement the queue:
//!
//! * [`KernelKind::Bucket`] (the default) — a calendar queue (Brown 1988,
//!   the structure DESP-C++'s event list builds on): an array of
//!   power-of-two-wide time buckets addressed by `(time >> shift) & mask`.
//!   Event times in a simulation like SPIFFI's are overwhelmingly
//!   near-future (frame ticks, disk completions, pump wakeups), so a pop
//!   takes the front of one sorted, mostly-singleton bucket and a
//!   schedule appends to one — amortized O(1) against the binary heap's
//!   O(log n) pointer-chasing sift. Bucket width and count adapt to the
//!   observed event-horizon distribution (see `BucketQueue::rebuild`'s
//!   rationale).
//! * [`KernelKind::Heap`] — the original stable binary heap, kept as the
//!   reference implementation for differential tests and kernel
//!   benchmarks.
//!
//! Both kernels pop the global minimum under the identical `(time, seq)`
//! total order, so the event history of any simulation — and therefore
//! every golden report — is byte-identical whichever kernel runs it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// Selects the data structure backing a [`Calendar`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Adaptive bucket (calendar) queue — amortized O(1), the default.
    Bucket,
    /// Stable binary min-heap — the O(log n) reference kernel.
    Heap,
}

/// The simulation's event calendar and clock.
///
/// `E` is the caller's event payload type; the kernel never inspects it.
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
    kernel: Kernel<E>,
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

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[derive(Clone, Debug)]
enum Kernel<E> {
    Bucket(BucketQueue<E>),
    Heap(BinaryHeap<Reverse<Entry<E>>>),
}

/// Location and key of the pending minimum, memoized between a scan and
/// the pop (or repeated bounded pops) that consumes it. Buckets are kept
/// sorted, so the minimum is always its bucket's front entry.
#[derive(Clone, Copy, Debug)]
struct CachedMin {
    bucket: usize,
    time: SimTime,
    seq: u64,
}

/// The calendar-queue kernel. Bucket for time `t` is
/// `(t >> shift) & mask`; one "day" is the `1 << shift` ns a bucket spans,
/// one "year" is a full trip around the wheel.
///
/// Each bucket is a `(time, seq)`-sorted deque, which is what makes the
/// kernel robust on SPIFFI-like workloads: the bucket minimum is the
/// front (a pop never re-scans the bucket, so thousands of events massed
/// on one instant still pop in O(1) each), and a freshly scheduled event
/// at an already-occupied instant carries a larger `seq` than everything
/// before it, so the tie lands as an O(1) back append. Only an insert
/// strictly inside a bucket's sorted run pays a shift, and the width
/// adaptation exists precisely to keep those runs near length one.
#[derive(Clone, Debug)]
struct BucketQueue<E> {
    buckets: Vec<VecDeque<Entry<E>>>,
    /// Occupancy bitmap: bit `i` is set iff `buckets[i]` is non-empty.
    /// The scan cursor crosses runs of empty days with `trailing_zeros`
    /// over these words (8 KB per 64 k buckets, L1/L2-resident) instead
    /// of loading one cold deque header per day — at large populations
    /// that header walk, not the pops, is where the wheel loses to the
    /// heap.
    occupied: Vec<u64>,
    /// `buckets.len() - 1`; the count is always a power of two.
    mask: u64,
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// The day the scan cursor stands on. Invariant: no pending event has
    /// an earlier day, so the cursor only ever skips confirmed-empty time.
    cur_day: u64,
    /// Memoized minimum; cleared by any removal or rebuild.
    cached: Option<CachedMin>,
    /// Pops since the wheel was last rebuilt.
    pops: u64,
    /// Layout-mismatch work since the wheel was last rebuilt: empty days
    /// the scan cursor crossed (bucket width too small) plus entries
    /// displaced by mid-bucket inserts (bucket width too large). A width
    /// re-plan triggers only once this exceeds both the per-pop budget
    /// and the rebuild's own cost — the second bound amortizes rebuilds
    /// and stops a plan that cannot improve from rebuilding in a loop.
    work: u64,
}

/// Initial / minimum bucket count. At least 64 so the occupancy bitmap
/// covers exactly `buckets.len()` bits in whole words and wrap arithmetic
/// stays bit-index = bucket-index.
const MIN_BUCKETS: usize = 64;
/// Maximum bucket count (2^20 buckets ≈ 24 MB of headers; beyond this the
/// per-bucket win has flattened out).
const MAX_BUCKETS: usize = 1 << 20;
/// Initial bucket width: 2^20 ns ≈ 1 ms, a sane starting guess for a
/// millisecond-scale workload; adapted from observed behaviour thereafter.
const INITIAL_SHIFT: u32 = 20;
/// Average layout-mismatch work per pop above which the layout is
/// re-planned. Deliberately tight: a wheel planned during an atypical
/// phase (e.g. the stagger ramp, whose span is ~100x the steady-state
/// event horizon) wastes only a few displaced entries per pop, and a
/// lax threshold lets that stale layout survive the whole run.
const WORK_PER_POP_LIMIT: u64 = 2;

impl<E> BucketQueue<E> {
    fn with_capacity(capacity: usize) -> Self {
        let n = capacity.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        BucketQueue {
            buckets: (0..n).map(|_| VecDeque::new()).collect(),
            occupied: vec![0; n / 64],
            mask: n as u64 - 1,
            shift: INITIAL_SHIFT,
            cur_day: 0,
            cached: None,
            pops: 0,
            work: 0,
        }
    }

    #[inline]
    fn day_of(&self, t: SimTime) -> u64 {
        t.0 >> self.shift
    }

    #[inline]
    fn insert(&mut self, time: SimTime, seq: u64, event: E) {
        let day = self.day_of(time);
        // An insert below the cursor (always still >= `now`) pulls the
        // cursor back so the scan cannot skip it.
        if day < self.cur_day {
            self.cur_day = day;
        }
        let idx = (day & self.mask) as usize;
        let bucket = &mut self.buckets[idx];
        // Sorted insert. `seq` increases monotonically, so the common
        // cases — a later time, or a tie at an occupied instant — append;
        // and an event a year or more nearer than a bucket's wrapped
        // far-future content lands at the front, which a deque also
        // inserts in O(1).
        if bucket
            .back()
            .is_none_or(|last| (last.time, last.seq) < (time, seq))
        {
            bucket.push_back(Entry { time, seq, event });
        } else {
            let pos = bucket.partition_point(|e| (e.time, e.seq) < (time, seq));
            // Entries actually shifted (the deque moves the shorter side)
            // are the width-too-large signal for the rebuilder.
            self.work += pos.min(bucket.len() - pos) as u64;
            bucket.insert(pos, Entry { time, seq, event });
        }
        self.occupied[idx >> 6] |= 1 << (idx & 63);
        if let Some(c) = self.cached {
            if (time, seq) < (c.time, c.seq) {
                self.cached = Some(CachedMin {
                    bucket: idx,
                    time,
                    seq,
                });
            }
        }
    }

    /// Locate the pending minimum, advancing the cursor past empty days.
    /// `len` is the caller-tracked entry count and must be non-zero.
    ///
    /// Buckets are sorted, so only each bucket's front can be its
    /// minimum; and because no entry's day precedes the cursor, a front
    /// belonging to the cursor's day is the global minimum — a front from
    /// a *later* day that wrapped into the same bucket is skipped by the
    /// day check until the cursor's year comes around.
    fn find_min(&mut self, len: usize) -> CachedMin {
        if let Some(c) = self.cached {
            return c;
        }
        debug_assert!(len > 0);
        let n_buckets = self.buckets.len() as u64;
        let mut visited = 0u64;
        let found = loop {
            // Cross the run of empty days in front of the cursor via the
            // bitmap. The run length is also the width-too-small signal
            // for the rebuilder — the *layout* waste is the same whether
            // the walk itself is cheap or not.
            let skipped = self.next_occupied_distance((self.cur_day & self.mask) as usize);
            self.work += skipped;
            self.cur_day += skipped;
            visited += skipped;
            let idx = (self.cur_day & self.mask) as usize;
            let e = self.buckets[idx]
                .front()
                .expect("occupied bit on empty bucket");
            if e.time.0 >> self.shift == self.cur_day {
                break CachedMin {
                    bucket: idx,
                    time: e.time,
                    seq: e.seq,
                };
            }
            // Occupied, but only by far-future entries that wrapped into
            // this bucket from a later year: step past it.
            self.work += 1;
            self.cur_day += 1;
            visited += 1;
            if visited > n_buckets {
                // A whole year of days holds nothing current: the next
                // event is far out. Jump the cursor straight to the global
                // minimum instead of crawling year by year.
                let c = self.scan_global_min().expect("len > 0 but no entries");
                self.cur_day = self.day_of(c.time);
                break c;
            }
        };
        self.cached = Some(found);
        found
    }

    /// Days from the bucket at `start` to the nearest non-empty bucket at
    /// or after it, wrapping around the wheel (0 if `start` itself is
    /// occupied). Must only be called while some bucket is non-empty.
    #[inline]
    fn next_occupied_distance(&self, start: usize) -> u64 {
        let first = self.occupied[start >> 6] >> (start & 63);
        if first != 0 {
            return first.trailing_zeros() as u64;
        }
        let mut dist = 64 - (start & 63) as u64;
        let mut w = start >> 6;
        loop {
            w += 1;
            if w == self.occupied.len() {
                w = 0;
            }
            let word = self.occupied[w];
            if word != 0 {
                return dist + word.trailing_zeros() as u64;
            }
            dist += 64;
        }
    }

    /// Scan every bucket front for the global minimum (cold fallback and
    /// `peek` on an unmemoized queue). O(buckets), not O(entries): each
    /// bucket's minimum is its front.
    fn scan_global_min(&self) -> Option<CachedMin> {
        let mut best: Option<CachedMin> = None;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            if let Some(e) = bucket.front() {
                if best.is_none_or(|b| (e.time, e.seq) < (b.time, b.seq)) {
                    best = Some(CachedMin {
                        bucket: idx,
                        time: e.time,
                        seq: e.seq,
                    });
                }
            }
        }
        best
    }

    /// Remove the memoized minimum found by [`BucketQueue::find_min`].
    fn remove(&mut self, c: CachedMin) -> E {
        self.cached = None;
        let bucket = &mut self.buckets[c.bucket];
        let e = bucket.pop_front().expect("cached minimum vanished");
        debug_assert!((e.time, e.seq) == (c.time, c.seq));
        match bucket.front() {
            // Whenever a minimum is memoized, its day is the cursor's day,
            // and every entry of that day lives in this one bucket — so a
            // successor still on the cursor's day is already the next
            // global minimum, and the following pop skips its scan.
            Some(next) if next.time.0 >> self.shift == self.cur_day => {
                self.cached = Some(CachedMin {
                    bucket: c.bucket,
                    time: next.time,
                    seq: next.seq,
                });
            }
            Some(_) => {}
            None => self.occupied[c.bucket >> 6] &= !(1 << (c.bucket & 63)),
        }
        e.event
    }

    /// Adaptive maintenance, run once per removal: grow/shrink the wheel
    /// when occupancy drifts, and re-plan the bucket width when the
    /// accumulated layout-mismatch work says the current width no longer
    /// matches the event-horizon distribution.
    fn maintain(&mut self, len: usize, now: SimTime) {
        self.pops += 1;
        let n = self.buckets.len();
        if (len > 4 * n && n < MAX_BUCKETS) || (len < n / 4 && n > MIN_BUCKETS) {
            self.rebuild(now);
        } else if self.work > WORK_PER_POP_LIMIT * self.pops && self.work > 2 * (n + len) as u64 {
            // The width no longer matches the event-horizon distribution,
            // and the accumulated waste has already paid for the
            // O(buckets + n log n) re-plan — so rebuilding is free in the
            // amortized sense, and a plan that cannot improve (massed
            // ties, shift jitter) re-triggers only after wasting that
            // much again, never in a loop.
            self.rebuild(now);
        }
    }

    /// Re-plan the wheel for the current population: bucket count tracks
    /// the event count at a target occupancy of ~2 (sorted deques make a
    /// two-deep bucket as cheap as a singleton, and half the buckets
    /// means half the header footprint the inserts walk), rebuilding when
    /// occupancy drifts outside [1/4, 4]; bucket width spreads the *body*
    /// of the pending-time distribution across one year of the wheel, so
    /// a pop crosses ~one empty day and an insert displaces ~nothing. The
    /// width is planned from the third quartile of pending
    /// times, not the full span — a far-future tail (a bimodal horizon
    /// distribution) would otherwise stretch the buckets so wide that the
    /// near-future bulk piles into a few giant ones. The tail itself just
    /// wraps around the wheel: sorted buckets keep wrapped far entries
    /// *behind* the near ones, and [`BucketQueue::find_min`]'s day check
    /// ignores a front from a later year.
    fn rebuild(&mut self, now: SimTime) {
        // Drain in place rather than dropping the deques: the buckets keep
        // their warmed-up buffers, so the redistribution below (and the
        // steady-state inserts after it) don't replay one allocation per
        // touched bucket on every re-plan.
        let mut entries: Vec<Entry<E>> = Vec::new();
        for bucket in &mut self.buckets {
            entries.extend(bucket.drain(..));
        }
        // Ascending (time, seq) order, so per-bucket appends below keep
        // every bucket sorted.
        entries.sort_unstable_by_key(|e| (e.time, e.seq));
        let len = entries.len();
        let n = (len / 2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let q_span = match (entries.first(), entries.get(len.saturating_mul(3) / 4)) {
            (Some(first), Some(q3)) => q3.time.0 - first.time.0,
            (Some(first), None) => entries[len - 1].time.0 - first.time.0,
            _ => 0,
        };
        let width = (q_span / (3 * n as u64 / 4)).max(1);
        // Floor log2: widths are powers of two so bucket addressing is a
        // shift-and-mask, never a division.
        let shift = 63 - width.leading_zeros();
        let mask = n as u64 - 1;
        let cur_day = entries
            .first()
            .map_or(now.0 >> shift, |e| e.time.0 >> shift);
        if n != self.buckets.len() {
            // Growing keeps every existing buffer; shrinking frees only
            // the dropped tail's.
            self.buckets.resize_with(n, VecDeque::new);
        }
        self.occupied.clear();
        self.occupied.resize(n / 64, 0);
        for e in entries {
            let idx = ((e.time.0 >> shift) & mask) as usize;
            self.occupied[idx >> 6] |= 1 << (idx & 63);
            self.buckets[idx].push_back(e);
        }
        self.mask = mask;
        self.shift = shift;
        self.cur_day = cur_day;
        self.cached = None;
        self.pops = 0;
        self.work = 0;
    }
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar with the clock at t = 0, on the default bucket
    /// kernel.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty calendar pre-sized for `capacity` pending events, so a
    /// caller that knows its steady-state event population (roughly a
    /// handful per active terminal) avoids the kernel's early growth
    /// reallocations.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_kernel(capacity, KernelKind::Bucket)
    }

    /// An empty calendar on an explicitly chosen kernel (benchmarks,
    /// differential tests).
    pub fn with_capacity_and_kernel(capacity: usize, kind: KernelKind) -> Self {
        let kernel = match kind {
            KernelKind::Bucket => Kernel::Bucket(BucketQueue::with_capacity(capacity)),
            KernelKind::Heap => Kernel::Heap(BinaryHeap::with_capacity(capacity)),
        };
        Calendar {
            kernel,
            now: SimTime::ZERO,
            seq: 0,
            scheduled_total: 0,
            len: 0,
        }
    }

    /// The kernel this calendar runs on.
    pub fn kernel_kind(&self) -> KernelKind {
        match self.kernel {
            Kernel::Bucket(_) => KernelKind::Bucket,
            Kernel::Heap(_) => KernelKind::Heap,
        }
    }

    /// Move every pending event onto `kind`, preserving each event's
    /// `(time, seq)` key — and therefore the exact pop order — along with
    /// the clock and all counters. A no-op if the calendar is already on
    /// that kernel.
    pub fn set_kernel(&mut self, kind: KernelKind) {
        if self.kernel_kind() == kind {
            return;
        }
        let entries: Vec<Entry<E>> = match &mut self.kernel {
            Kernel::Bucket(q) => std::mem::take(&mut q.buckets)
                .into_iter()
                .flatten()
                .collect(),
            Kernel::Heap(h) => std::mem::take(h).into_iter().map(|Reverse(e)| e).collect(),
        };
        let mut next = match kind {
            KernelKind::Bucket => Kernel::Bucket(BucketQueue::with_capacity(entries.len())),
            KernelKind::Heap => Kernel::Heap(BinaryHeap::with_capacity(entries.len())),
        };
        for e in entries {
            match &mut next {
                Kernel::Bucket(q) => q.insert(e.time, e.seq, e.event),
                Kernel::Heap(h) => h.push(Reverse(e)),
            }
        }
        if let Kernel::Bucket(q) = &mut next {
            // One planning pass establishes width, horizon and cursor for
            // the converted population.
            q.rebuild(self.now);
        }
        self.kernel = next;
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

    /// The checked-in-common tail of every schedule path.
    #[inline]
    fn push_at(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.scheduled_total += 1;
        self.len += 1;
        match &mut self.kernel {
            Kernel::Bucket(q) => {
                q.insert(at, seq, event);
                // Growth is insert-driven: a long schedule burst (system
                // construction, a fork adding thousands of terminals) must
                // not degrade into long bucket chains before the next pop.
                if self.len > 4 * q.buckets.len() && q.buckets.len() < MAX_BUCKETS {
                    q.rebuild(self.now);
                }
            }
            Kernel::Heap(h) => h.push(Reverse(Entry {
                time: at,
                seq,
                event,
            })),
        }
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
    /// replaying up to (but excluding) a snapshot boundary.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.pop_bounded(limit, false)
    }

    /// Single-pass bounded pop: one scan locates the minimum, the bound is
    /// checked against it, and the same located slot is removed on
    /// success — the minimum's position stays memoized for the next call
    /// when the bound refuses it.
    fn pop_bounded(&mut self, limit: SimTime, inclusive: bool) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        match &mut self.kernel {
            Kernel::Bucket(q) => {
                let c = q.find_min(self.len);
                if if inclusive {
                    c.time > limit
                } else {
                    c.time >= limit
                } {
                    return None;
                }
                let event = q.remove(c);
                self.len -= 1;
                debug_assert!(c.time >= self.now, "event calendar went backwards");
                self.now = c.time;
                q.maintain(self.len, self.now);
                Some((c.time, event))
            }
            Kernel::Heap(h) => {
                let head = h.peek()?;
                let t = head.0.time;
                if if inclusive { t > limit } else { t >= limit } {
                    return None;
                }
                let Reverse(e) = h.pop().expect("peeked entry vanished");
                self.len -= 1;
                debug_assert!(e.time >= self.now, "event calendar went backwards");
                self.now = e.time;
                Some((e.time, e.event))
            }
        }
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        match &self.kernel {
            // `&self` cannot advance the cursor or memoize; an unmemoized
            // peek pays a bucket-front scan. Hot loops use the bounded
            // pops instead.
            Kernel::Bucket(q) => match q.cached {
                Some(c) => Some(c.time),
                None => q.scan_global_min().map(|c| c.time),
            },
            Kernel::Heap(h) => h.peek().map(|Reverse(e)| Some(e.time)).unwrap_or(None),
        }
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

    /// Every structural test runs on both kernels.
    fn kernels() -> [KernelKind; 2] {
        [KernelKind::Bucket, KernelKind::Heap]
    }

    #[test]
    fn pops_in_time_order() {
        for k in kernels() {
            let mut cal = Calendar::with_capacity_and_kernel(0, k);
            cal.schedule_at(SimTime(30), 'c');
            cal.schedule_at(SimTime(10), 'a');
            cal.schedule_at(SimTime(20), 'b');
            let order: Vec<char> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec!['a', 'b', 'c'], "{k:?}");
        }
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        for k in kernels() {
            let mut cal = Calendar::with_capacity_and_kernel(0, k);
            for i in 0..100 {
                cal.schedule_at(SimTime(5), i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{k:?}");
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        for k in kernels() {
            let mut cal = Calendar::with_capacity_and_kernel(0, k);
            cal.schedule_at(SimTime(100), ());
            assert_eq!(cal.now(), SimTime::ZERO);
            cal.pop();
            assert_eq!(cal.now(), SimTime(100));
        }
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
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics_on_heap_kernel() {
        let mut cal = Calendar::with_capacity_and_kernel(0, KernelKind::Heap);
        cal.schedule_at(SimTime(100), ());
        cal.pop();
        cal.schedule_at(SimTime(50), ());
    }

    #[test]
    fn pop_until_respects_limit() {
        for k in kernels() {
            let mut cal = Calendar::with_capacity_and_kernel(0, k);
            cal.schedule_at(SimTime(10), 'a');
            cal.schedule_at(SimTime(20), 'b');
            assert_eq!(cal.pop_until(SimTime(15)), Some((SimTime(10), 'a')));
            assert_eq!(cal.pop_until(SimTime(15)), None);
            assert_eq!(cal.now(), SimTime(10));
            assert_eq!(cal.pop_until(SimTime(25)), Some((SimTime(20), 'b')));
        }
    }

    #[test]
    fn pop_before_is_exclusive() {
        for k in kernels() {
            let mut cal = Calendar::with_capacity_and_kernel(0, k);
            cal.schedule_at(SimTime(10), 'a');
            cal.schedule_at(SimTime(20), 'b');
            assert_eq!(cal.pop_before(SimTime(10)), None);
            assert_eq!(cal.pop_before(SimTime(11)), Some((SimTime(10), 'a')));
            assert_eq!(cal.pop_before(SimTime(20)), None);
            assert_eq!(cal.pop_until(SimTime(20)), Some((SimTime(20), 'b')));
        }
    }

    #[test]
    fn schedule_now_fires_after_current_instant_events() {
        for k in kernels() {
            let mut cal = Calendar::with_capacity_and_kernel(0, k);
            cal.schedule_at(SimTime(10), 1);
            cal.pop();
            cal.schedule_now(2);
            cal.schedule_now(3);
            assert_eq!(cal.pop(), Some((SimTime(10), 2)));
            assert_eq!(cal.pop(), Some((SimTime(10), 3)));
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        for k in kernels() {
            let mut cal = Calendar::with_capacity_and_kernel(0, k);
            cal.schedule_at(SimTime(1000), ());
            cal.pop();
            cal.schedule_in(SimDuration(500), ());
            assert_eq!(cal.peek_time(), Some(SimTime(1500)));
        }
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
        for k in kernels() {
            let mut cal = Calendar::with_capacity_and_kernel(0, k);
            assert!(cal.is_empty());
            cal.schedule_at(SimTime(1), ());
            cal.schedule_at(SimTime(2), ());
            assert_eq!(cal.len(), 2);
            assert_eq!(cal.scheduled_total(), 2);
            cal.pop();
            assert_eq!(cal.len(), 1);
            assert_eq!(cal.scheduled_total(), 2);
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_is_stable() {
        // Property-style check: popping while scheduling preserves global
        // (time, insertion) order for equal times.
        for k in kernels() {
            let mut cal = Calendar::with_capacity_and_kernel(0, k);
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
    }

    #[test]
    fn bucket_kernel_survives_growth_and_wide_horizons() {
        // Enough far-apart events to force several rebuilds and the
        // year-empty global-minimum jump; popped order must stay exact.
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
    fn set_kernel_preserves_order_and_counters() {
        let mut cal = Calendar::new();
        for i in 0..100u64 {
            cal.schedule_at(SimTime(i % 7), i);
        }
        cal.pop();
        let (len, total, now) = (cal.len(), cal.scheduled_total(), cal.now());
        cal.set_kernel(KernelKind::Heap);
        assert_eq!(cal.kernel_kind(), KernelKind::Heap);
        assert_eq!(
            (cal.len(), cal.scheduled_total(), cal.now()),
            (len, total, now)
        );
        let mut heap_order = Vec::new();
        // Round-trip back to bucket mid-drain.
        for _ in 0..50 {
            heap_order.push(cal.pop().unwrap());
        }
        cal.set_kernel(KernelKind::Bucket);
        while let Some(e) = cal.pop() {
            heap_order.push(e);
        }
        let mut expect: Vec<(SimTime, u64)> = (0..100u64).map(|i| (SimTime(i % 7), i)).collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        assert_eq!(heap_order, expect[1..]);
    }

    #[test]
    fn massed_ties_do_not_thrash_the_rebuilder() {
        // Thousands of events at the same instant: width adaptation cannot
        // separate them, but sorted buckets make each tie an O(1) append
        // and an O(1) front pop, so order stays exact at full speed.
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
