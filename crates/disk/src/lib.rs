//! Mechanical disk model, after the Seagate ST15150N of Table 1.
//!
//! The paper simulates a then state-of-the-art SCSI-2 drive with these
//! parameters, which we take verbatim:
//!
//! | parameter | value |
//! |---|---|
//! | seek factor | 0.283 (ms · cylinders^-1/2) |
//! | settle time | 0.75 ms |
//! | rotation time | 8.333 ms |
//! | transfer rate | 7.4 MB/s |
//! | cylinder size | 1.25 MB |
//! | cache | 8 contexts × 128 KB |
//!
//! Like the paper, we assume constant-size cylinders ("for simplicity and
//! ease of implementation a constant cylinder size is assumed. No other
//! simplifying assumptions are made about this drive").
//!
//! A read's service time decomposes as
//!
//! ```text
//! seek(distance) + settle + rotational latency + transfer + head switches
//! ```
//!
//! with `seek(d) = seek_factor · √d` ms — the square-root single-seek curve
//! standard in disk modelling — and rotational latency drawn uniformly from
//! `[0, rotation)`. The segmented cache is modelled as 8 LRU *contexts*
//! that each remember where a sequential stream left off: a read that
//! continues a context streams with **no** positioning cost, which is how
//! the real drive's read-ahead segments behave for the contiguous fragment
//! reads SPIFFI's layout produces.

#![warn(missing_docs)]

use spiffi_simcore::stats::Counter;
use spiffi_simcore::{SimDuration, SimRng, SimTime};

/// Kibibyte.
pub const KB: u64 = 1024;
/// Mebibyte.
pub const MB: u64 = 1024 * 1024;

/// Drive parameters (defaults: the paper's Seagate ST15150N).
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Seek-time factor in milliseconds per √cylinder.
    pub seek_factor_ms: f64,
    /// Head settle time after a seek.
    pub settle: SimDuration,
    /// Full-rotation time (8.333 ms ⇒ 7200 rpm).
    pub rotation: SimDuration,
    /// Media transfer rate in bytes/second.
    pub transfer_bytes_per_sec: f64,
    /// Bytes per cylinder (constant, per the paper).
    pub cylinder_bytes: u64,
    /// Number of read-ahead cache contexts.
    pub cache_contexts: usize,
    /// Size of each cache context in bytes.
    pub context_bytes: u64,
    /// Number of cylinders the drive exposes.
    pub num_cylinders: u32,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            seek_factor_ms: 0.283,
            settle: SimDuration::from_micros(750),
            rotation: SimDuration::from_micros(8333),
            transfer_bytes_per_sec: 7.4 * MB as f64,
            cylinder_bytes: (1.25 * MB as f64) as u64,
            cache_contexts: 8,
            context_bytes: 128 * KB,
            // 7.2 GB of fragments at 1.25 MB/cylinder ≈ 5600 cylinders; the
            // default is generous and callers size it from the layout.
            num_cylinders: 5_600,
        }
    }
}

impl DiskParams {
    /// Cylinder containing a byte offset.
    pub fn cylinder_of(&self, byte: u64) -> u32 {
        (byte / self.cylinder_bytes) as u32
    }

    /// Seek time between two cylinders (zero for zero distance).
    pub fn seek_time(&self, from: u32, to: u32) -> SimDuration {
        let d = from.abs_diff(to);
        if d == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.seek_factor_ms * 1e-3 * (d as f64).sqrt())
    }

    /// Pure media transfer time for `len` bytes.
    pub fn transfer_time(&self, len: u64) -> SimDuration {
        SimDuration::from_secs_f64(len as f64 / self.transfer_bytes_per_sec)
    }

    /// Size the drive to cover `used_bytes` of data.
    pub fn with_capacity_for(mut self, used_bytes: u64) -> Self {
        self.num_cylinders = used_bytes.div_ceil(self.cylinder_bytes).max(1) as u32;
        self
    }

    /// Expected service time for a random `len`-byte read with an average
    /// seek over `avg_seek_cyls` cylinders — a closed-form used by tests
    /// and capacity estimates, not by the simulation itself.
    pub fn expected_random_service(&self, len: u64, avg_seek_cyls: u32) -> SimDuration {
        self.seek_time(0, avg_seek_cyls) + self.settle + self.rotation / 2 + self.transfer_time(len)
    }
}

/// Breakdown of one read's service time (for tests and tracing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceBreakdown {
    /// Arm movement.
    pub seek: SimDuration,
    /// Head settle (zero when streaming sequentially).
    pub settle: SimDuration,
    /// Rotational delay.
    pub rotation: SimDuration,
    /// Media transfer, including cylinder-crossing head switches.
    pub transfer: SimDuration,
    /// Whether the read continued a cache context (streamed).
    pub sequential: bool,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total(&self) -> SimDuration {
        self.seek + self.settle + self.rotation + self.transfer
    }
}

/// One simulated drive: head position, cache contexts, and busy-time
/// accounting. The caller (the per-disk scheduler loop) is responsible for
/// serialising reads — a drive services one request at a time.
#[derive(Clone, Debug)]
pub struct Disk {
    params: DiskParams,
    head_cylinder: u32,
    /// End byte addresses of active sequential streams, each paired with
    /// the stamp of its last use. Slots are unordered; recency lives in
    /// the stamps, so eviction picks the minimum stamp and no read ever
    /// shifts the array (the old `Vec::remove(0)` LRU rotation).
    contexts: Vec<(u64, u64)>,
    /// Monotone use counter backing the context LRU stamps.
    context_stamp: u64,
    /// Service-time multiplier in percent (100 = nominal). Fault-injection
    /// scenarios raise it to model a degraded drive (recalibration,
    /// remapped sectors); every component of the breakdown scales.
    latency_scale_pct: u32,
    busy: SimDuration,
    window_start: SimTime,
    reads: Counter,
    sequential_reads: Counter,
    bytes_read: u64,
}

impl Disk {
    /// A drive with its head parked at cylinder 0 and an empty cache.
    pub fn new(params: DiskParams) -> Self {
        Disk {
            params,
            head_cylinder: 0,
            contexts: Vec::with_capacity(params.cache_contexts),
            context_stamp: 0,
            latency_scale_pct: 100,
            busy: SimDuration::ZERO,
            window_start: SimTime::ZERO,
            reads: Counter::new(),
            sequential_reads: Counter::new(),
            bytes_read: 0,
        }
    }

    /// The drive's parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Current head cylinder (updated as reads complete).
    pub fn head_cylinder(&self) -> u32 {
        self.head_cylinder
    }

    /// Current service-time multiplier in percent (100 = nominal).
    pub fn latency_scale_pct(&self) -> u32 {
        self.latency_scale_pct
    }

    /// Set the service-time multiplier in percent. 200 means every read
    /// takes twice its nominal time; 100 restores nominal service.
    ///
    /// # Panics
    /// If `pct` is zero (a free disk is not a disk model).
    pub fn set_latency_scale_pct(&mut self, pct: u32) {
        assert!(pct > 0, "latency scale must be positive");
        self.latency_scale_pct = pct;
    }

    /// Service a read of `[start, start + len)` issued at `now`, returning
    /// the full timing breakdown. Advances head position, cache state, and
    /// busy-time accounting.
    ///
    /// # Panics
    /// If the read extends past the last cylinder or `len` is zero.
    pub fn read(&mut self, start: u64, len: u64, rng: &mut SimRng) -> ServiceBreakdown {
        assert!(len > 0, "zero-length disk read");
        let target = self.params.cylinder_of(start);
        let end_cyl = self.params.cylinder_of(start + len - 1);
        assert!(
            end_cyl < self.params.num_cylinders,
            "read [{start}, {}) beyond cylinder {} of {}",
            start + len,
            end_cyl,
            self.params.num_cylinders
        );

        let sequential = self.take_context(start);
        let (seek, settle, rotation) = if sequential {
            // The head is already positioned inside this stream; data
            // continues under the head (the drive's read-ahead segment has
            // been filling).
            (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO)
        } else {
            let seek = self.params.seek_time(self.head_cylinder, target);
            let settle = if target == self.head_cylinder {
                SimDuration::ZERO
            } else {
                self.params.settle
            };
            let latency = spiffi_simcore::dist::uniform_duration(rng, self.params.rotation);
            (seek, settle, latency)
        };

        // Transfer, plus a head switch (track-to-track seek + settle) per
        // cylinder boundary crossed mid-transfer.
        let crossings = (end_cyl - target) as u64;
        let transfer = self.params.transfer_time(len)
            + (self.params.seek_time(0, 1) + self.params.settle) * crossings;

        self.head_cylinder = end_cyl;
        self.push_context(start + len);

        self.reads.incr();
        if sequential {
            self.sequential_reads.incr();
        }
        self.bytes_read += len;

        let scale =
            |d: SimDuration| SimDuration(d.0.saturating_mul(self.latency_scale_pct as u64) / 100);
        let breakdown = ServiceBreakdown {
            seek: scale(seek),
            settle: scale(settle),
            rotation: scale(rotation),
            transfer: scale(transfer),
            sequential,
        };
        self.busy += breakdown.total();
        breakdown
    }

    /// True and consumes the context if `start` continues a cached stream.
    fn take_context(&mut self, start: u64) -> bool {
        if let Some(pos) = self.contexts.iter().position(|&(end, _)| end == start) {
            self.contexts.swap_remove(pos);
            true
        } else {
            false
        }
    }

    fn push_context(&mut self, end: u64) {
        self.context_stamp += 1;
        let entry = (end, self.context_stamp);
        if self.contexts.len() < self.params.cache_contexts {
            self.contexts.push(entry);
            return;
        }
        // Evict the least recently used stream: the minimum stamp (stamps
        // are unique, so the victim is unambiguous).
        let victim = self
            .contexts
            .iter()
            .enumerate()
            .min_by_key(|(_, &(_, stamp))| stamp)
            .map(|(i, _)| i)
            .expect("cache_contexts >= 1");
        self.contexts[victim] = entry;
    }

    /// Begin a fresh measurement window at `now`; the drive is assumed idle
    /// at the boundary (the caller closes windows between requests).
    pub fn reset_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.busy = SimDuration::ZERO;
        self.reads.reset();
        self.sequential_reads.reset();
        self.bytes_read = 0;
    }

    /// Busy fraction over the current window.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.window_start);
        if elapsed == SimDuration::ZERO {
            return 0.0;
        }
        (self.busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
    }

    /// Reads serviced in the current window.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Reads that streamed from a cache context in the current window.
    pub fn sequential_reads(&self) -> u64 {
        self.sequential_reads.get()
    }

    /// Bytes transferred in the current window.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskParams::default())
    }

    #[test]
    fn default_parameters_match_table_1() {
        let p = DiskParams::default();
        assert_eq!(p.settle, SimDuration::from_micros(750));
        assert_eq!(p.rotation, SimDuration::from_micros(8333));
        assert_eq!(p.cache_contexts, 8);
        assert_eq!(p.context_bytes, 128 * KB);
        assert!((p.seek_factor_ms - 0.283).abs() < 1e-12);
    }

    #[test]
    fn seek_time_is_sqrt_of_distance() {
        let p = DiskParams::default();
        assert_eq!(p.seek_time(10, 10), SimDuration::ZERO);
        let one = p.seek_time(0, 1).as_secs_f64();
        let hundred = p.seek_time(0, 100).as_secs_f64();
        assert!((hundred / one - 10.0).abs() < 1e-6);
        // Symmetric.
        assert_eq!(p.seek_time(5, 55), p.seek_time(55, 5));
        // Full-stroke seek over ~5600 cylinders ≈ 21 ms, a realistic max
        // for this class of drive.
        let full = p.seek_time(0, 5599).as_secs_f64() * 1e3;
        assert!((20.0..23.0).contains(&full), "full stroke {full} ms");
    }

    #[test]
    fn transfer_time_is_linear() {
        let p = DiskParams::default();
        let t1 = p.transfer_time(512 * KB).as_secs_f64();
        let t2 = p.transfer_time(1024 * KB).as_secs_f64();
        // Each duration is rounded to a whole nanosecond, so allow that
        // much slack in the ratio.
        assert!((t2 / t1 - 2.0).abs() < 1e-7);
        // 512 KB at 7.4 MB/s ≈ 67.6 ms.
        assert!((t1 * 1e3 - 67.57).abs() < 0.1, "transfer {t1}");
    }

    #[test]
    fn random_read_includes_all_components() {
        let mut d = disk();
        let mut rng = SimRng::new(1);
        // Move the head far from cylinder 0 first.
        let far = 4000u64 * d.params.cylinder_bytes;
        d.read(far, 512 * KB, &mut rng);
        let b = d.read(0, 512 * KB, &mut rng);
        assert!(!b.sequential);
        assert!(b.seek > SimDuration::ZERO);
        assert_eq!(b.settle, SimDuration::from_micros(750));
        assert!(b.rotation < d.params().rotation);
        assert!(b.transfer >= d.params().transfer_time(512 * KB));
    }

    #[test]
    fn sequential_read_streams_without_positioning() {
        let mut d = disk();
        let mut rng = SimRng::new(2);
        d.read(0, 512 * KB, &mut rng);
        let b = d.read(512 * KB, 512 * KB, &mut rng);
        assert!(b.sequential);
        assert_eq!(b.seek, SimDuration::ZERO);
        assert_eq!(b.rotation, SimDuration::ZERO);
        assert_eq!(d.sequential_reads(), 1);
    }

    #[test]
    fn eight_interleaved_streams_all_stay_sequential() {
        // The drive has 8 contexts; 8 round-robin streams must all stream.
        let mut d = disk();
        let mut rng = SimRng::new(3);
        let stride = 100 * MB;
        let mut next = [0u64; 8];
        for (s, pos) in next.iter_mut().enumerate() {
            *pos = s as u64 * stride;
            d.read(*pos, 512 * KB, &mut rng);
            *pos += 512 * KB;
        }
        for round in 0..3 {
            for (s, pos) in next.iter_mut().enumerate() {
                let b = d.read(*pos, 512 * KB, &mut rng);
                *pos += 512 * KB;
                assert!(b.sequential, "round {round} stream {s}");
            }
        }
    }

    #[test]
    fn ninth_stream_evicts_oldest_context() {
        let mut d = disk();
        let mut rng = SimRng::new(4);
        let stride = 100 * MB;
        for s in 0..9u64 {
            d.read(s * stride, 512 * KB, &mut rng);
        }
        // Stream 0's context was evicted; continuing it is not sequential.
        let b = d.read(512 * KB, 512 * KB, &mut rng);
        assert!(!b.sequential);
        // That non-sequential read evicted stream 1's context in turn, but
        // stream 2 is still cached.
        let b = d.read(2 * stride + 512 * KB, 512 * KB, &mut rng);
        assert!(b.sequential);
    }

    #[test]
    fn cylinder_crossing_adds_head_switch() {
        let p = DiskParams::default();
        let mut d = Disk::new(p);
        let mut rng = SimRng::new(5);
        // Aligned 512 KB read fits in one 1.25 MB cylinder: no crossing.
        let within = d.read(0, 512 * KB, &mut rng).transfer;
        // A read straddling a cylinder boundary pays one head switch.
        let mut d2 = Disk::new(p);
        let straddle_start = p.cylinder_bytes - 256 * KB;
        let straddle = d2.read(straddle_start, 512 * KB, &mut rng).transfer;
        let switch = p.seek_time(0, 1) + p.settle;
        assert_eq!(straddle, within + switch);
    }

    #[test]
    fn head_position_tracks_reads() {
        let mut d = disk();
        let mut rng = SimRng::new(6);
        let addr = 10 * d.params().cylinder_bytes + 3;
        d.read(addr, 1, &mut rng);
        assert_eq!(d.head_cylinder(), 10);
    }

    #[test]
    #[should_panic(expected = "beyond cylinder")]
    fn read_past_capacity_panics() {
        let p = DiskParams::default().with_capacity_for(10 * MB);
        let mut d = Disk::new(p);
        let mut rng = SimRng::new(7);
        d.read(11 * MB, 512 * KB, &mut rng);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_read_panics() {
        let mut d = disk();
        let mut rng = SimRng::new(8);
        d.read(0, 0, &mut rng);
    }

    #[test]
    fn latency_scale_doubles_every_component() {
        let mut nominal = disk();
        let mut degraded = disk();
        degraded.set_latency_scale_pct(200);
        assert_eq!(degraded.latency_scale_pct(), 200);
        // Same seed → same rotational draw; the degraded breakdown must be
        // exactly 2× per component (modulo the /100 integer rounding).
        let a = nominal.read(0, 512 * KB, &mut SimRng::new(11));
        let b = degraded.read(0, 512 * KB, &mut SimRng::new(11));
        for (x, y) in [
            (a.seek, b.seek),
            (a.settle, b.settle),
            (a.rotation, b.rotation),
            (a.transfer, b.transfer),
        ] {
            assert_eq!(y.0, x.0 * 2, "{x} vs {y}");
        }
        // Restoring nominal service stops the scaling.
        degraded.set_latency_scale_pct(100);
        let c = degraded.read(100 * MB, 512 * KB, &mut SimRng::new(12));
        let d = nominal.read(100 * MB, 512 * KB, &mut SimRng::new(12));
        assert_eq!(c.transfer, d.transfer);
    }

    #[test]
    #[should_panic(expected = "latency scale must be positive")]
    fn zero_latency_scale_panics() {
        disk().set_latency_scale_pct(0);
    }

    #[test]
    fn utilization_accounting() {
        let mut d = disk();
        let mut rng = SimRng::new(9);
        let b = d.read(0, 512 * KB, &mut rng);
        let total = b.total();
        // If the window is exactly twice the busy time, utilization is 50%.
        let now = SimTime::ZERO + total * 2;
        assert!((d.utilization(now) - 0.5).abs() < 1e-9);
        d.reset_window(now);
        assert_eq!(d.utilization(now + SimDuration::from_secs(1)), 0.0);
        assert_eq!(d.reads(), 0);
    }

    #[test]
    fn stats_counters() {
        let mut d = disk();
        let mut rng = SimRng::new(10);
        d.read(0, 512 * KB, &mut rng);
        d.read(512 * KB, 512 * KB, &mut rng);
        assert_eq!(d.reads(), 2);
        assert_eq!(d.sequential_reads(), 1);
        assert_eq!(d.bytes_read(), 1024 * KB);
    }

    #[test]
    fn capacity_sizing() {
        let p = DiskParams::default().with_capacity_for(7_200 * MB);
        // 7.2 GiB / 1.25 MiB = 5760 cylinders.
        assert_eq!(p.num_cylinders, 5_760);
        assert_eq!(p.cylinder_of(0), 0);
        assert_eq!(p.cylinder_of(p.cylinder_bytes), 1);
    }

    #[test]
    fn expected_service_estimate_is_sane() {
        let p = DiskParams::default();
        // ~1/3 stroke seek + half rotation + 512 KB transfer ≈ 85 ms.
        let est = p.expected_random_service(512 * KB, 1900).as_secs_f64() * 1e3;
        assert!((80.0..95.0).contains(&est), "estimate {est} ms");
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = ServiceBreakdown {
            seek: SimDuration::from_millis(1),
            settle: SimDuration::from_millis(2),
            rotation: SimDuration::from_millis(3),
            transfer: SimDuration::from_millis(4),
            sequential: false,
        };
        assert_eq!(b.total(), SimDuration::from_millis(10));
    }
}
