//! Differential property test: the bucket-queue calendar kernel against
//! the reference binary-heap kernel over randomized interleavings of
//! every mutating operation. The two kernels must agree on *everything
//! observable* — pop order (including same-instant tie order), bounded
//! pops, clocks, counters, and panics on past-scheduling — because the
//! simulation's determinism contract (byte-identical reports at any
//! thread/snapshot setting) rests on the kernels being
//! interchangeable.

use std::panic::{catch_unwind, AssertUnwindSafe};

use spiffi_simcore::{Calendar, KernelKind, SimDuration, SimRng, SimTime};

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

fn apply(cal: &mut Calendar<u64>, op: Op, payload: u64) -> Option<(SimTime, u64)> {
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

/// The full observable state the two kernels must agree on after every
/// single operation.
fn observe(cal: &Calendar<u64>) -> (SimTime, usize, bool, u64, Option<SimTime>) {
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
        let mut bucket = Calendar::with_capacity_and_kernel(rng.index(64), KernelKind::Bucket);
        let mut heap = Calendar::with_capacity_and_kernel(0, KernelKind::Heap);
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
            // Occasionally fork both mid-sequence (the PR 6 clone
            // contract) and drain the forks: clones must agree too.
            if step % 511 == 255 {
                let mut cb = bucket.clone();
                let mut ch = heap.clone();
                while let Some(b) = cb.pop() {
                    assert_eq!(Some(b), ch.pop(), "seed {seed} fork at {step}");
                }
                assert_eq!(ch.pop(), None, "seed {seed} fork at {step}");
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

/// Both kernels refuse past-scheduling with the same panic.
#[test]
fn kernels_panic_identically_on_past_scheduling() {
    for kind in [KernelKind::Bucket, KernelKind::Heap] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut cal = Calendar::with_capacity_and_kernel(0, kind);
            cal.schedule_at(SimTime(100), ());
            cal.pop();
            cal.schedule_at(SimTime(99), ());
        }));
        let err = result.expect_err("past scheduling must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("cannot schedule into the past"),
            "{kind:?}: unexpected panic message {msg:?}"
        );
    }
}

/// Same for advance_to skipping a pending event.
#[test]
fn kernels_panic_identically_on_skipping_advance() {
    for kind in [KernelKind::Bucket, KernelKind::Heap] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut cal = Calendar::with_capacity_and_kernel(0, kind);
            cal.schedule_at(SimTime(10), ());
            cal.advance_to(SimTime(11));
        }));
        let err = result.expect_err("skipping advance must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("would skip a pending event"),
            "{kind:?}: unexpected panic message {msg:?}"
        );
    }
}

/// Converting a live calendar between kernels at arbitrary points never
/// perturbs the pop order: a calendar that flips kernels every few ops
/// matches a heap-only reference throughout.
#[test]
fn kernel_conversion_mid_run_is_invisible() {
    for seed in 0..32u64 {
        let mut rng = SimRng::stream(0x5e7c, seed);
        let horizon = [300u64, 2_000_000][rng.index(2)];
        let mut flipping = Calendar::with_capacity_and_kernel(0, KernelKind::Bucket);
        let mut reference = Calendar::with_capacity_and_kernel(0, KernelKind::Heap);
        for step in 0..600u64 {
            let payload = step;
            let op = draw_op(&mut rng, flipping.now(), horizon);
            assert_eq!(
                apply(&mut flipping, op, payload),
                apply(&mut reference, op, payload),
                "seed {seed} step {step} op {op:?}"
            );
            if step % 37 == 36 {
                let next = if flipping.kernel_kind() == KernelKind::Bucket {
                    KernelKind::Heap
                } else {
                    KernelKind::Bucket
                };
                flipping.set_kernel(next);
                assert_eq!(observe(&flipping), observe(&reference), "seed {seed} flip");
            }
        }
        loop {
            let (f, r) = (flipping.pop(), reference.pop());
            assert_eq!(f, r, "seed {seed} drain");
            if f.is_none() {
                break;
            }
        }
    }
}
