//! Fixed-interval time-series sampling over the probe stream.

use std::collections::VecDeque;

use spiffi_simcore::{SimDuration, SimTime};

use crate::probe::{DiskIoDone, DiskIoStart, PoolEvent, Probe};

/// One sampling interval, flushed when simulated time passes its end.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleRow {
    /// End of the interval this row covers (`[t - interval, t]`).
    pub t: SimTime,
    /// Fraction of the interval each disk spent servicing a request,
    /// indexed by `node * disks_per_node + disk`.
    pub disk_util: Vec<f64>,
    /// Bytes put on the wire during the interval, all messages summed.
    pub net_bytes: u64,
    /// Buffer-pool frames in use at the end of the interval, all nodes
    /// summed.
    pub pool_in_use: u64,
    /// Demand (non-prefetch) I/Os in flight at the end of the interval —
    /// each carries a playback deadline the disks still owe.
    pub outstanding_deadlines: u64,
}

/// A [`Probe`] that folds the callback stream into fixed-interval
/// [`SampleRow`]s.
///
/// Intervals tile the run from t = 0; a row is flushed lazily the first
/// time a callback (or [`Probe::run_end`]) lands past its end, so rows
/// come out in order with no gaps. Disk busy time is attributed by span
/// splitting: each service span `[start, start + total]` is clipped to
/// the intervals it overlaps, so a row's utilization is exact for that
/// interval rather than whole-span-at-issue-time as in the end-of-run
/// [`reset_window` accounting](spiffi_disk). Per-disk spans never overlap
/// (a drive services one request at a time), so clipped contributions sum
/// to at most the interval length.
///
/// Pool occupancy is tracked as a running count (+1 per allocation, −1
/// per eviction), seeded from the configured total capacity being empty;
/// rows record the value at interval end.
#[derive(Clone, Debug)]
pub struct Sampler {
    interval: SimDuration,
    disks: usize,
    disks_per_node: usize,
    /// Index of the earliest unflushed interval; slot `k` of `busy`
    /// covers interval `cur + k`.
    cur: u64,
    /// Per-interval, per-disk busy nanoseconds for intervals at and after
    /// `cur`. A service span (~tens of ms) can only reach a couple of
    /// intervals ahead, so the deque stays tiny.
    busy: VecDeque<Vec<u64>>,
    /// Bytes sent during interval `cur` (point events never land ahead).
    net_bytes: u64,
    pool_in_use: u64,
    outstanding_deadlines: u64,
    rows: Vec<SampleRow>,
}

impl Sampler {
    /// A sampler emitting one row per `interval` for a system of `nodes`
    /// nodes with `disks_per_node` disks each.
    pub fn new(interval: SimDuration, nodes: usize, disks_per_node: usize) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "sampling interval must be positive"
        );
        Sampler {
            interval,
            disks: nodes * disks_per_node,
            disks_per_node,
            cur: 0,
            busy: VecDeque::new(),
            net_bytes: 0,
            pool_in_use: 0,
            outstanding_deadlines: 0,
            rows: Vec::new(),
        }
    }

    /// The flushed rows so far; complete once [`Probe::run_end`] fires.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Mean per-disk utilization across all disks over rows whose
    /// interval lies entirely inside `[from, to]` — the number to compare
    /// against `RunReport::avg_disk_utilization` for a measurement window
    /// the interval tiles exactly.
    pub fn mean_disk_utilization(&self, from: SimTime, to: SimTime) -> f64 {
        mean_disk_utilization_of(&self.rows, self.interval, from, to)
    }

    fn end_of(&self, idx: u64) -> SimTime {
        SimTime::ZERO + self.interval.saturating_mul(idx + 1)
    }

    fn slot(&mut self, k: usize) -> &mut Vec<u64> {
        while self.busy.len() <= k {
            self.busy.push_back(vec![0u64; self.disks]);
        }
        &mut self.busy[k]
    }

    /// Flush every interval that ends at or before `upto`.
    fn roll(&mut self, upto: SimTime) {
        while self.end_of(self.cur) <= upto {
            let t = self.end_of(self.cur);
            let busy = self
                .busy
                .pop_front()
                .unwrap_or_else(|| vec![0u64; self.disks]);
            let disk_util = busy
                .into_iter()
                .map(|ns| (ns as f64 / self.interval.0 as f64).min(1.0))
                .collect();
            self.rows.push(SampleRow {
                t,
                disk_util,
                net_bytes: self.net_bytes,
                pool_in_use: self.pool_in_use,
                outstanding_deadlines: self.outstanding_deadlines,
            });
            self.net_bytes = 0;
            self.cur += 1;
        }
    }

    /// Add a busy span `[start, start + len]` for global disk `disk`,
    /// clipped to each overlapped interval. `start` is never before the
    /// current interval (callbacks arrive in time order).
    fn add_span(&mut self, disk: usize, start: SimTime, len: SimDuration) {
        let mut t = start;
        let end = start + len;
        while t < end {
            let idx = (t.0 - SimTime::ZERO.0) / self.interval.0;
            let clip_end = end.min(self.end_of(idx));
            let k = (idx - self.cur) as usize;
            self.slot(k)[disk] += (clip_end - t).0;
            t = clip_end;
        }
    }
}

/// Mean per-disk utilization across rows whose interval lies entirely
/// inside `[from, to]` (see [`Sampler::mean_disk_utilization`]).
fn mean_disk_utilization_of(
    rows: &[SampleRow],
    interval: SimDuration,
    from: SimTime,
    to: SimTime,
) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for row in rows {
        if row.t <= to && row.t.saturating_since(from) >= interval {
            sum += row.disk_util.iter().sum::<f64>();
            n += row.disk_util.len();
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl Probe for Sampler {
    fn disk_io_start(&mut self, now: SimTime, ev: DiskIoStart) {
        self.roll(now);
        let disk = ev.node as usize * self.disks_per_node + ev.disk as usize;
        self.add_span(disk, now, ev.service.total());
        if !ev.is_prefetch {
            self.outstanding_deadlines += 1;
        }
    }

    fn disk_io_done(&mut self, now: SimTime, ev: DiskIoDone) {
        self.roll(now);
        if !ev.is_prefetch {
            self.outstanding_deadlines = self.outstanding_deadlines.saturating_sub(1);
        }
    }

    fn net_send(&mut self, now: SimTime, ev: crate::probe::NetSend) {
        self.roll(now);
        self.net_bytes += ev.bytes;
    }

    fn pool_event(&mut self, now: SimTime, _node: u32, ev: PoolEvent) {
        self.roll(now);
        match ev {
            PoolEvent::Miss { evicted } | PoolEvent::PrefetchAlloc { evicted } => {
                // An eviction frees one frame and the allocation takes
                // one: net occupancy change is zero when evicting, +1
                // when the frame came off the free list.
                if !evicted {
                    self.pool_in_use += 1;
                }
            }
            PoolEvent::Hit { .. } | PoolEvent::InFlightHit { .. } | PoolEvent::AllocFailure => {}
        }
    }

    fn run_end(&mut self, end: SimTime) {
        self.roll(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{NetMsgKind, NetSend};
    use spiffi_disk::ServiceBreakdown;

    fn sec(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn start(node: u32, disk: u32, service_ms: u64, is_prefetch: bool) -> DiskIoStart {
        DiskIoStart {
            node,
            disk,
            queue_depth: 0,
            is_prefetch,
            service: ServiceBreakdown {
                seek: SimDuration::ZERO,
                settle: SimDuration::ZERO,
                rotation: SimDuration::ZERO,
                transfer: SimDuration::from_millis(service_ms),
                sequential: true,
            },
        }
    }

    #[test]
    fn spans_split_across_interval_boundaries() {
        let mut s = Sampler::new(SimDuration::from_secs(1), 1, 2);
        // 400 ms span on disk 0 starting at 0.8 s: 200 ms in row 0, 200 ms
        // in row 1.
        s.disk_io_start(
            SimTime::ZERO + SimDuration::from_millis(800),
            start(0, 0, 400, true),
        );
        s.run_end(sec(2));
        assert_eq!(s.rows().len(), 2);
        assert!((s.rows()[0].disk_util[0] - 0.2).abs() < 1e-12);
        assert!((s.rows()[1].disk_util[0] - 0.2).abs() < 1e-12);
        assert_eq!(s.rows()[0].disk_util[1], 0.0);
    }

    #[test]
    fn point_metrics_land_in_their_interval() {
        let mut s = Sampler::new(SimDuration::from_secs(1), 1, 1);
        let send = |bytes| NetSend {
            kind: NetMsgKind::Reply,
            bytes,
            delay: SimDuration::from_micros(5),
        };
        s.net_send(SimTime::ZERO + SimDuration::from_millis(100), send(1000));
        s.net_send(SimTime::ZERO + SimDuration::from_millis(1500), send(50));
        s.pool_event(
            SimTime::ZERO + SimDuration::from_millis(1600),
            0,
            PoolEvent::Miss { evicted: false },
        );
        s.pool_event(
            SimTime::ZERO + SimDuration::from_millis(1700),
            0,
            PoolEvent::Miss { evicted: true },
        );
        s.run_end(sec(3));
        assert_eq!(s.rows().len(), 3);
        assert_eq!(s.rows()[0].net_bytes, 1000);
        assert_eq!(s.rows()[1].net_bytes, 50);
        assert_eq!(s.rows()[2].net_bytes, 0);
        assert_eq!(s.rows()[0].pool_in_use, 0);
        assert_eq!(s.rows()[1].pool_in_use, 1);
        assert_eq!(s.rows()[2].pool_in_use, 1);
    }

    #[test]
    fn outstanding_deadlines_track_demand_io_only() {
        let mut s = Sampler::new(SimDuration::from_secs(1), 1, 1);
        s.disk_io_start(
            SimTime::ZERO + SimDuration::from_millis(100),
            start(0, 0, 10, false),
        );
        s.disk_io_start(
            SimTime::ZERO + SimDuration::from_millis(200),
            start(0, 0, 10, true),
        );
        s.disk_io_start(
            SimTime::ZERO + SimDuration::from_millis(300),
            start(0, 0, 10, false),
        );
        s.disk_io_done(
            SimTime::ZERO + SimDuration::from_millis(1200),
            DiskIoDone {
                node: 0,
                disk: 0,
                is_prefetch: false,
                latency: SimDuration::from_millis(10),
                deadline_slack_ns: Some(1),
            },
        );
        s.run_end(sec(2));
        assert_eq!(s.rows()[0].outstanding_deadlines, 2);
        assert_eq!(s.rows()[1].outstanding_deadlines, 1);
    }

    #[test]
    fn empty_gaps_emit_zero_rows_and_mean_filters_window() {
        let mut s = Sampler::new(SimDuration::from_secs(1), 1, 1);
        // Fully busy second 0, idle seconds 1-2, half of second 3.
        s.disk_io_start(SimTime::ZERO, start(0, 0, 1000, true));
        s.disk_io_start(sec(3), start(0, 0, 500, true));
        s.run_end(sec(4));
        assert_eq!(s.rows().len(), 4);
        let utils: Vec<f64> = s.rows().iter().map(|r| r.disk_util[0]).collect();
        assert_eq!(utils, vec![1.0, 0.0, 0.0, 0.5]);
        // Window covering rows 1..=3 only.
        assert!((s.mean_disk_utilization(sec(1), sec(4)) - (0.5 / 3.0)).abs() < 1e-12);
        // Full run.
        assert!((s.mean_disk_utilization(SimTime::ZERO, sec(4)) - 0.375).abs() < 1e-12);
    }
}
