//! Randomized property tests: invariants every disk scheduler must uphold
//! regardless of algorithm — conservation (each pushed request pops or
//! removes exactly once), length consistency under interleaved
//! push/pop/remove, no foreign requests, and bounded-pass fairness for the
//! per-stream schedulers.
//!
//! Driven by the deterministic [`SimRng`] rather than an external
//! property-testing framework, so failures are reproducible from the
//! printed seed alone.

use spiffi_sched::{DiskRequest, RequestId, SchedulerKind, StreamId};
use spiffi_simcore::{SimDuration, SimRng, SimTime};

fn all_kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Fcfs,
        SchedulerKind::Edf,
        SchedulerKind::Elevator,
        SchedulerKind::RoundRobin,
        SchedulerKind::Gss { groups: 1 },
        SchedulerKind::Gss { groups: 5 },
        SchedulerKind::RealTime {
            classes: 3,
            spacing: SimDuration::from_secs(2),
        },
    ]
}

/// Draw a random request with id `id`: arbitrary cylinder, optional
/// deadline, optional stream, and a prefetch flag.
fn random_req(rng: &mut SimRng, id: u64) -> DiskRequest {
    DiskRequest {
        id: RequestId(id),
        cylinder: rng.u64_below(2000) as u32,
        deadline: if rng.chance(0.5) {
            Some(SimTime::ZERO + SimDuration::from_millis(rng.u64_below(20_000)))
        } else {
            None
        },
        stream: if rng.chance(0.7) {
            Some(StreamId(rng.u64_below(16) as u32))
        } else {
            None
        },
        is_prefetch: rng.chance(0.5),
    }
}

/// Every request pushed is popped exactly once, in some order.
#[test]
fn conservation() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0xc0de, seed);
        let n = 1 + rng.index(60);
        let specs: Vec<DiskRequest> = (0..n).map(|i| random_req(&mut rng, i as u64)).collect();
        for kind in all_kinds() {
            let mut s = kind.build();
            for r in &specs {
                s.push(*r);
            }
            assert_eq!(s.len(), specs.len(), "seed {seed} under {}", s.name());
            let mut seen = vec![false; specs.len()];
            let mut now = SimTime::ZERO;
            let mut head = 0;
            while let Some(r) = s.pop_next(now, head) {
                let idx = r.id.0 as usize;
                assert!(idx < specs.len(), "foreign request under {}", s.name());
                assert!(!seen[idx], "seed {seed}: popped twice under {}", s.name());
                assert_eq!(r, specs[idx], "seed {seed}: mutated under {}", s.name());
                seen[idx] = true;
                head = r.cylinder;
                now += SimDuration::from_millis(10);
            }
            assert!(
                seen.iter().all(|&b| b),
                "seed {seed}: requests lost under {}",
                s.name()
            );
            assert_eq!(s.len(), 0);
        }
    }
}

/// Differential workload over all six schedulers: an identical random
/// push/pop/remove trace must conserve requests — every id popped or
/// removed exactly once, `len()` consistent after every step — and never
/// yield a request that was not pushed.
#[test]
fn differential_push_pop_remove() {
    for seed in 0..48u64 {
        let mut trace_rng = SimRng::stream(0xd1ff, seed);
        let n_reqs = 4 + trace_rng.index(48);
        let specs: Vec<DiskRequest> = (0..n_reqs)
            .map(|i| random_req(&mut trace_rng, i as u64))
            .collect();
        // Op trace: 0 = push next, 1 = pop, 2 = remove a random known id.
        let ops: Vec<u8> = (0..3 * n_reqs)
            .map(|_| trace_rng.u64_below(4).min(2) as u8)
            .collect();
        let removal_picks: Vec<usize> = (0..ops.len()).map(|_| trace_rng.index(n_reqs)).collect();

        for kind in all_kinds() {
            let mut s = kind.build();
            let mut next = 0usize;
            // Per-id lifecycle: 0 = not pushed, 1 = queued, 2 = gone.
            let mut state = vec![0u8; n_reqs];
            let mut expected_len = 0usize;
            let mut now = SimTime::ZERO;
            let mut head = 0;
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    0 if next < n_reqs => {
                        s.push(specs[next]);
                        state[next] = 1;
                        next += 1;
                        expected_len += 1;
                    }
                    1 => {
                        if let Some(r) = s.pop_next(now, head) {
                            let idx = r.id.0 as usize;
                            assert!(idx < n_reqs, "foreign request under {}", s.name());
                            assert_eq!(
                                state[idx],
                                1,
                                "seed {seed} step {step}: popped id {idx} not queued under {}",
                                s.name()
                            );
                            state[idx] = 2;
                            head = r.cylinder;
                            expected_len -= 1;
                        } else {
                            assert_eq!(expected_len, 0, "empty pop with queued requests");
                        }
                    }
                    _ => {
                        let victim = removal_picks[step];
                        let removed = s.remove(RequestId(victim as u64));
                        if state[victim] == 1 {
                            let r = removed.unwrap_or_else(|| {
                                panic!("seed {seed}: remove lost queued id under {}", s.name())
                            });
                            assert_eq!(r.id.0 as usize, victim);
                            state[victim] = 2;
                            expected_len -= 1;
                        } else {
                            assert!(
                                removed.is_none(),
                                "seed {seed}: removed unqueued id under {}",
                                s.name()
                            );
                        }
                    }
                }
                now += SimDuration::from_millis(5);
                assert_eq!(
                    s.len(),
                    expected_len,
                    "seed {seed} step {step}: len drift under {}",
                    s.name()
                );
                assert_eq!(s.is_empty(), expected_len == 0);
            }
            // Drain and check total conservation.
            while let Some(r) = s.pop_next(now, head) {
                let idx = r.id.0 as usize;
                assert_eq!(
                    state[idx],
                    1,
                    "seed {seed}: drain duplicate under {}",
                    s.name()
                );
                state[idx] = 2;
                head = r.cylinder;
                now += SimDuration::from_millis(5);
            }
            for (idx, &st) in state.iter().enumerate() {
                assert_ne!(st, 1, "seed {seed}: id {idx} stranded under {}", s.name());
            }
            assert_eq!(s.len(), 0);
        }
    }
}

/// `remove` extracts exactly the requested id and leaves the rest
/// serviceable.
#[test]
fn remove_is_precise() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0x4e40, seed);
        let n = 2 + rng.index(28);
        let specs: Vec<DiskRequest> = (0..n).map(|i| random_req(&mut rng, i as u64)).collect();
        let victim = rng.index(n) as u64;
        for kind in all_kinds() {
            let mut s = kind.build();
            for r in &specs {
                s.push(*r);
            }
            let removed = s.remove(RequestId(victim));
            assert!(
                removed.is_some(),
                "seed {seed}: remove lost id under {}",
                s.name()
            );
            assert_eq!(removed.unwrap().id.0, victim);
            assert_eq!(s.remove(RequestId(victim)), None);
            let mut rest = Vec::new();
            let mut head = 0;
            while let Some(r) = s.pop_next(SimTime::ZERO, head) {
                rest.push(r.id.0);
                head = r.cylinder;
            }
            rest.sort_unstable();
            let expect: Vec<u64> = (0..n as u64).filter(|&i| i != victim).collect();
            assert_eq!(
                rest,
                expect,
                "seed {seed}: residue wrong under {}",
                s.name()
            );
        }
    }
}

/// Clone contract: after an arbitrary prefix of pushes and pops, a deep
/// clone of a scheduler must drain in exactly the order the original
/// would have.
#[test]
fn clone_mid_workload_drains_identically() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0x54a9, seed);
        let n = 1 + rng.index(40);
        let specs: Vec<DiskRequest> = (0..n).map(|i| random_req(&mut rng, i as u64)).collect();
        let pops = rng.index(n + 1);
        for kind in all_kinds() {
            let mut s = kind.build();
            let mut now = SimTime::ZERO;
            let mut head = 0;
            for r in &specs {
                s.push(*r);
            }
            for _ in 0..pops {
                if let Some(r) = s.pop_next(now, head) {
                    head = r.cylinder;
                    now += SimDuration::from_millis(7);
                }
            }

            let mut clone = s.clone();
            assert_eq!(s.len(), clone.len(), "seed {seed} under {}", s.name());
            let mut head2 = head;
            let mut now2 = now;
            loop {
                let a = s.pop_next(now, head);
                let b = clone.pop_next(now2, head2);
                assert_eq!(a, b, "seed {seed}: drain diverged under {}", s.name());
                match a {
                    Some(r) => {
                        head = r.cylinder;
                        head2 = r.cylinder;
                        now += SimDuration::from_millis(7);
                        now2 += SimDuration::from_millis(7);
                    }
                    None => break,
                }
            }
        }
    }
}

/// Under GSS, between two consecutive services of the same stream no other
/// stream is serviced twice from the batch the stream was waiting in —
/// i.e. at most one request per stream per group pass.
#[test]
fn gss_single_service_per_pass() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0x6550, seed);
        let n = 5 + rng.index(35);
        let streams: Vec<u32> = (0..n).map(|_| rng.u64_below(6) as u32).collect();
        let mut s = SchedulerKind::Gss { groups: 1 }.build();
        for (i, &st) in streams.iter().enumerate() {
            s.push(DiskRequest {
                id: RequestId(i as u64),
                cylinder: (i as u32 * 37) % 1000,
                deadline: None,
                stream: Some(StreamId(st)),
                is_prefetch: false,
            });
        }
        // Drain; divide the service order into passes. Within a pass a
        // stream appears at most once.
        let mut order = Vec::new();
        let mut head = 0;
        while let Some(r) = s.pop_next(SimTime::ZERO, head) {
            order.push(r.stream.unwrap().0);
            head = r.cylinder;
        }
        // The number of passes equals the max per-stream multiplicity.
        let mut counts = [0u32; 6];
        for &st in &streams {
            counts[st as usize] += 1;
        }
        let passes = *counts.iter().max().unwrap();
        // Reconstruct pass boundaries greedily: a pass ends when a stream
        // repeats.
        let mut pass_count = 1u32;
        let mut seen = std::collections::HashSet::new();
        for &st in &order {
            if !seen.insert(st) {
                pass_count += 1;
                seen.clear();
                seen.insert(st);
            }
        }
        assert_eq!(pass_count, passes, "seed {seed}");
    }
}
