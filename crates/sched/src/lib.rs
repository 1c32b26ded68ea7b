//! Disk scheduling algorithms (§5.2.2 of the SPIFFI paper).
//!
//! Six schedulers behind one [`DiskScheduler`] trait:
//!
//! * [`Fcfs`] — first-come-first-served, the naive baseline.
//! * [`Elevator`] — SCAN: sweep the cylinders outward, reverse at the end.
//!   "Popular because it combines nearly minimal seek times and fairness."
//! * [`RoundRobin`] — cycle over streams, one request each; "makes no
//!   attempt to optimize seek distances" and always loses in Figure 10.
//! * [`Gss`] — the group sweeping scheme of \[Yu92\]: terminals are assigned
//!   to groups, groups are processed round-robin, and within a group's pass
//!   at most one request per terminal is serviced in elevator order. One
//!   group ≈ elevator (but at most one service per terminal per sweep);
//!   groups = terminals ≡ round-robin.
//! * [`Edf`] — earliest-deadline-first, the classic real-time baseline of
//!   \[Redd94\]: deadline-optimal but seek-oblivious.
//! * [`RealTime`] — the paper's contribution: deadlines map to a fixed set
//!   of priority classes via uniformly spaced cutoffs (Figure 5), the
//!   highest non-empty class is serviced in elevator order, and priorities
//!   are recomputed from the clock after every access (Figure 6). Requests
//!   without deadlines (default prefetches) sink to the lowest class.
//!
//! Schedulers order *queued* requests only; the disk itself (crate
//! `spiffi-disk`) models service times, and the server loop (crate
//! `spiffi-core`) moves one request at a time from scheduler to disk.

#![warn(missing_docs)]

mod edf;
mod elevator;
mod fcfs;
mod gss;
mod realtime;
mod rr;

pub use edf::Edf;
pub use elevator::Elevator;
pub use fcfs::Fcfs;
pub use gss::Gss;
pub use realtime::RealTime;
pub use rr::RoundRobin;

use spiffi_simcore::{SimDuration, SimTime};

/// Identifies one pending disk request across scheduler and disk. The
/// issuing layer allocates these densely from a counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Identifies the stream (terminal) a request belongs to, for the
/// per-terminal fairness of GSS and round-robin. Prefetch requests carry
/// the stream they were issued on behalf of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// One disk request as seen by a scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskRequest {
    /// Unique id; the payload (which block, who is waiting) lives with the
    /// issuer, keyed by this id.
    pub id: RequestId,
    /// Target cylinder, for seek-aware ordering.
    pub cylinder: u32,
    /// Completion deadline, if the issuer assigned one. `None` sorts as
    /// "least urgent" under the real-time policy.
    pub deadline: Option<SimTime>,
    /// Originating stream, if any.
    pub stream: Option<StreamId>,
    /// True for background prefetch requests.
    pub is_prefetch: bool,
}

/// Common interface of all disk schedulers.
///
/// `Send + Sync` so a scheduler boxed inside simulation state can move
/// across the experiment engine's worker threads and be shared read-only
/// from a cached snapshot.
pub trait DiskScheduler: Send + Sync {
    /// Enqueue a request.
    fn push(&mut self, req: DiskRequest);

    /// Select and remove the next request to service, given the current
    /// time (for deadline-based priorities) and disk head position (for
    /// seek-aware ordering). Returns `None` when no request is queued.
    fn pop_next(&mut self, now: SimTime, head_cylinder: u32) -> Option<DiskRequest>;

    /// Remove a specific queued request (used to escalate a queued
    /// prefetch when a real request arrives for the same block). Returns
    /// the request if it was still queued.
    fn remove(&mut self, id: RequestId) -> Option<DiskRequest>;

    /// Number of queued requests.
    fn len(&self) -> usize;

    /// Remove every queued request, in the order the scheduler would have
    /// serviced them from `now`/`head_cylinder`. Used by fault injection to
    /// re-dispatch a dead disk's queue to its failover target; the target's
    /// scheduler re-orders on push, so only determinism of the drain order
    /// matters, which repeated [`DiskScheduler::pop_next`] guarantees.
    fn drain(&mut self, now: SimTime, head_cylinder: u32) -> Vec<DiskRequest> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(req) = self.pop_next(now, head_cylinder) {
            out.push(req);
        }
        out
    }

    /// True when no requests are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Deep-copy this scheduler, queued requests and sweep state included,
    /// behind a fresh box. Lets simulation state holding a
    /// `Box<dyn DiskScheduler>` implement `Clone`.
    fn clone_box(&self) -> Box<dyn DiskScheduler>;
}

impl Clone for Box<dyn DiskScheduler> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Scheduler selection, used by configuration and the experiment harness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedulerKind {
    /// First-come-first-served.
    Fcfs,
    /// Earliest-deadline-first.
    Edf,
    /// SCAN / elevator.
    Elevator,
    /// Round-robin over streams.
    RoundRobin,
    /// Group sweeping scheme with the given number of groups.
    Gss {
        /// Number of terminal groups.
        groups: u32,
    },
    /// The paper's real-time priority elevator.
    RealTime {
        /// Number of priority classes (paper explores 2 and 3).
        classes: u32,
        /// Priority cutoff spacing (paper explores 4 s).
        spacing: SimDuration,
    },
}

impl SchedulerKind {
    /// Instantiate the scheduler.
    pub fn build(self) -> Box<dyn DiskScheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(Fcfs::new()),
            SchedulerKind::Edf => Box::new(Edf::new()),
            SchedulerKind::Elevator => Box::new(Elevator::new()),
            SchedulerKind::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerKind::Gss { groups } => Box::new(Gss::new(groups)),
            SchedulerKind::RealTime { classes, spacing } => {
                Box::new(RealTime::new(classes, spacing))
            }
        }
    }

    /// True for schedulers that use request deadlines.
    pub fn is_deadline_aware(self) -> bool {
        matches!(self, SchedulerKind::RealTime { .. } | SchedulerKind::Edf)
    }

    /// Short label for tables.
    pub fn label(self) -> String {
        match self {
            SchedulerKind::Fcfs => "fcfs".into(),
            SchedulerKind::Edf => "edf".into(),
            SchedulerKind::Elevator => "elevator".into(),
            SchedulerKind::RoundRobin => "round-robin".into(),
            SchedulerKind::Gss { groups } => format!("gss({groups})"),
            SchedulerKind::RealTime { classes, spacing } => {
                format!("real-time({classes},{}s)", spacing.as_secs_f64())
            }
        }
    }
}

/// Shared SCAN-order selection: among `candidates`, choose the next target
/// in the current sweep `direction` from `head`, reversing direction if the
/// sweep is exhausted. Ties on cylinder fall back to request id (arrival)
/// order. Returns the index of the chosen candidate and the new direction.
///
/// Used by [`Elevator`], [`Gss`] (within a group pass) and [`RealTime`]
/// (within the highest priority class).
pub(crate) fn scan_select(
    candidates: &[DiskRequest],
    head: u32,
    direction_up: bool,
) -> (usize, bool) {
    debug_assert!(!candidates.is_empty());
    let pick = |up: bool| -> Option<usize> {
        let mut best: Option<(u32, RequestId, usize)> = None;
        for (i, r) in candidates.iter().enumerate() {
            let eligible = if up {
                r.cylinder >= head
            } else {
                r.cylinder <= head
            };
            if !eligible {
                continue;
            }
            // Nearest cylinder in sweep direction; FIFO within a cylinder.
            let dist = r.cylinder.abs_diff(head);
            let key = (dist, r.id, i);
            let better = match best {
                None => true,
                Some((bd, bid, _)) => key < (bd, bid, usize::MAX),
            };
            if better {
                best = Some((dist, r.id, i));
            }
        }
        best.map(|(_, _, i)| i)
    };
    if let Some(i) = pick(direction_up) {
        (i, direction_up)
    } else {
        let i = pick(!direction_up).expect("non-empty candidate set");
        (i, !direction_up)
    }
}

#[cfg(test)]
pub(crate) fn req(id: u64, cyl: u32) -> DiskRequest {
    DiskRequest {
        id: RequestId(id),
        cylinder: cyl,
        deadline: None,
        stream: None,
        is_prefetch: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels() {
        assert_eq!(SchedulerKind::Elevator.label(), "elevator");
        assert_eq!(SchedulerKind::Gss { groups: 4 }.label(), "gss(4)");
        assert_eq!(
            SchedulerKind::RealTime {
                classes: 3,
                spacing: SimDuration::from_secs(4)
            }
            .label(),
            "real-time(3,4s)"
        );
        assert!(SchedulerKind::RealTime {
            classes: 3,
            spacing: SimDuration::from_secs(4)
        }
        .is_deadline_aware());
        assert!(!SchedulerKind::Elevator.is_deadline_aware());
    }

    #[test]
    fn build_constructs_each_kind() {
        for kind in [
            SchedulerKind::Fcfs,
            SchedulerKind::Edf,
            SchedulerKind::Elevator,
            SchedulerKind::RoundRobin,
            SchedulerKind::Gss { groups: 3 },
            SchedulerKind::RealTime {
                classes: 2,
                spacing: SimDuration::from_secs(4),
            },
        ] {
            let mut s = kind.build();
            assert!(s.is_empty());
            s.push(req(1, 10));
            assert_eq!(s.len(), 1);
            let popped = s.pop_next(SimTime::ZERO, 0).unwrap();
            assert_eq!(popped.id, RequestId(1));
            assert!(s.is_empty());
        }
    }

    #[test]
    fn scan_select_prefers_sweep_direction() {
        let c = [req(1, 5), req(2, 15), req(3, 25)];
        // Head at 10 moving up: nearest at-or-above is 15.
        let (i, up) = scan_select(&c, 10, true);
        assert_eq!(c[i].cylinder, 15);
        assert!(up);
        // Head at 10 moving down: nearest at-or-below is 5.
        let (i, up) = scan_select(&c, 10, false);
        assert_eq!(c[i].cylinder, 5);
        assert!(!up);
    }

    #[test]
    fn scan_select_reverses_when_exhausted() {
        let c = [req(1, 5)];
        let (i, up) = scan_select(&c, 10, true);
        assert_eq!(i, 0);
        assert!(!up, "direction must flip");
    }

    #[test]
    fn scan_select_fifo_within_cylinder() {
        let c = [req(7, 10), req(3, 10)];
        let (i, _) = scan_select(&c, 10, true);
        assert_eq!(c[i].id, RequestId(3), "lower id arrived first");
    }
}
