//! Measurement utilities.
//!
//! The paper reports disk/CPU utilization (Figures 14 and 17), peak
//! aggregate network bandwidth (Figure 18), buffer-pool re-reference rates
//! (Figure 16), and runs every experiment "until we were 90% confident that
//! the results were within 5%". The types here implement exactly those
//! measurements:
//!
//! * [`Welford`] — numerically stable running mean/variance with normal
//!   confidence intervals.
//! * [`Utilization`] — time-weighted busy fraction of a resource, with a
//!   measurement-window reset so warm-up is excluded.
//! * [`RateTracker`] — bytes bucketed per simulated second; reports peak and
//!   mean rates.
//! * [`Counter`] — a plain event counter with window reset.
//! * [`Histogram`] — fixed-width bins for latency/queue-length profiles.

use crate::time::{SimDuration, SimTime};

/// Welford online mean/variance accumulator.
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the confidence interval on the mean at the given
    /// confidence level (normal approximation; the paper's replication
    /// counts are large enough for this to be appropriate).
    pub fn ci_half_width(&self, confidence: Confidence) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        confidence.z() * self.stddev() / (self.n as f64).sqrt()
    }

    /// True once the mean is known within `fraction` of itself at the given
    /// confidence — the paper's "90% confident the results were within 5%"
    /// stopping rule.
    pub fn converged_within(&self, confidence: Confidence, fraction: f64) -> bool {
        if self.n < 2 {
            return false;
        }
        let hw = self.ci_half_width(confidence);
        hw <= fraction * self.mean().abs().max(f64::MIN_POSITIVE)
    }
}

/// Supported confidence levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Confidence {
    /// 90% two-sided confidence (the paper's level).
    P90,
    /// 95% two-sided confidence.
    P95,
    /// 99% two-sided confidence.
    P99,
}

impl Confidence {
    /// The standard normal quantile for the two-sided level.
    pub fn z(self) -> f64 {
        match self {
            Confidence::P90 => 1.6449,
            Confidence::P95 => 1.9600,
            Confidence::P99 => 2.5758,
        }
    }
}

/// Time-weighted busy/idle tracking for a resource (disk arm, CPU).
///
/// Call [`Utilization::set_busy`] at every state change; utilization is the
/// fraction of elapsed simulated time spent busy since the last
/// [`Utilization::reset_window`].
#[derive(Clone, Debug)]
pub struct Utilization {
    busy: bool,
    last_change: SimTime,
    window_start: SimTime,
    busy_time: SimDuration,
}

impl Default for Utilization {
    fn default() -> Self {
        Self::new()
    }
}

impl Utilization {
    /// A tracker that starts idle at t = 0.
    pub fn new() -> Self {
        Utilization {
            busy: false,
            last_change: SimTime::ZERO,
            window_start: SimTime::ZERO,
            busy_time: SimDuration::ZERO,
        }
    }

    /// Record a state change at time `now`. Idempotent if the state is
    /// unchanged.
    pub fn set_busy(&mut self, now: SimTime, busy: bool) {
        if busy == self.busy {
            return;
        }
        if self.busy {
            self.busy_time += now.saturating_since(self.last_change);
        }
        self.busy = busy;
        self.last_change = now;
    }

    /// Whether the resource is currently busy.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Start a fresh measurement window at `now` (used at end of warm-up).
    pub fn reset_window(&mut self, now: SimTime) {
        if self.busy {
            // Fold accumulated busy time away; the busy stretch continues
            // into the new window from `now`.
            self.last_change = now;
        }
        self.busy_time = SimDuration::ZERO;
        self.window_start = now;
    }

    /// Busy fraction over `[window start, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.window_start);
        if elapsed == SimDuration::ZERO {
            return 0.0;
        }
        let mut busy = self.busy_time;
        if self.busy {
            busy += now.saturating_since(self.last_change);
        }
        busy.as_secs_f64() / elapsed.as_secs_f64()
    }
}

/// Bytes-per-second rate tracking with per-second buckets.
///
/// Figure 18 reports the *peak* aggregate network bandwidth; bucketing by
/// simulated second matches how a provisioning engineer would read a
/// bandwidth graph.
#[derive(Clone, Debug)]
pub struct RateTracker {
    bucket: SimDuration,
    window_start: SimTime,
    current_bucket: u64,
    current_bytes: u64,
    peak_bytes: u64,
    total_bytes: u64,
}

impl RateTracker {
    /// A tracker with the given bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(bucket > SimDuration::ZERO);
        RateTracker {
            bucket,
            window_start: SimTime::ZERO,
            current_bucket: 0,
            current_bytes: 0,
            peak_bytes: 0,
            total_bytes: 0,
        }
    }

    /// Record `bytes` transferred at time `now`.
    ///
    /// Buckets only ever roll *forward*: an observation stamped earlier
    /// than the current bucket (a straggler delivered across a window
    /// reset, or any out-of-order caller) is credited to the current
    /// bucket rather than resetting it — resetting would both lose the
    /// open bucket's bytes from the peak and double-count a bucket roll
    /// when time moves forward again.
    pub fn add(&mut self, now: SimTime, bytes: u64) {
        let idx = now.saturating_since(self.window_start).0 / self.bucket.0;
        if idx > self.current_bucket {
            self.peak_bytes = self.peak_bytes.max(self.current_bytes);
            self.current_bucket = idx;
            self.current_bytes = 0;
        }
        self.current_bytes += bytes;
        self.total_bytes += bytes;
    }

    /// Start a fresh measurement window at `now`.
    pub fn reset_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.current_bucket = 0;
        self.current_bytes = 0;
        self.peak_bytes = 0;
        self.total_bytes = 0;
    }

    /// Peak bucket rate seen so far, in bytes/second.
    pub fn peak_bytes_per_sec(&self) -> f64 {
        self.peak_bytes.max(self.current_bytes) as f64 / self.bucket.as_secs_f64()
    }

    /// Mean rate over `[window start, now]`, in bytes/second.
    pub fn mean_bytes_per_sec(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.window_start).as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.total_bytes as f64 / elapsed
        }
    }

    /// Total bytes recorded in the window.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

/// A plain event counter with measurement-window reset.
#[derive(Clone, Debug, Default)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Reset to zero (at end of warm-up).
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

/// Fixed-width histogram with an overflow bin.
///
/// Observations are non-negative by construction (latencies, queue
/// lengths): negative values clamp to 0 consistently in the bins, the
/// running sum *and* the maximum, so [`Histogram::mean`] and
/// [`Histogram::quantile`] always agree in sign. Non-finite observations
/// (NaN, ±∞) are rejected outright — counted in [`Histogram::rejected`]
/// but never binned or summed, so one poisoned sample cannot turn
/// `mean()` into NaN while the quantiles silently keep reporting numbers.
#[derive(Clone, Debug)]
pub struct Histogram {
    width: f64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
    max: f64,
    rejected: u64,
}

impl Histogram {
    /// `nbins` bins of `width` each, covering `[0, nbins * width)`, plus an
    /// overflow bin.
    pub fn new(width: f64, nbins: usize) -> Self {
        assert!(width > 0.0 && nbins > 0);
        Histogram {
            width,
            bins: vec![0; nbins],
            overflow: 0,
            count: 0,
            sum: 0.0,
            max: 0.0,
            rejected: 0,
        }
    }

    /// Record an observation. Negative values clamp to 0 (bin, sum and max
    /// alike); non-finite values are counted in [`Histogram::rejected`] and
    /// otherwise ignored.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            self.rejected += 1;
            return;
        }
        let x = x.max(0.0);
        let idx = (x / self.width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += x;
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Value at or below which `q` (0..=1) of observations fall,
    /// approximated by the upper edge of the containing bin. `q = 1`
    /// returns the exact recorded [`Histogram::max`], so a reported p100
    /// can never exceed an observed value.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            // The top bin's upper edge over-reports the true maximum by up
            // to a full bin width; p100 is an observed value, so return it
            // exactly.
            return self.max;
        }
        let target = (q * self.count as f64).ceil() as u64;
        if target == 0 {
            // q = 0 is the infimum of the distribution; every observation
            // is ≥ 0, so the answer is 0, not the first bin's upper edge
            // (which `acc >= 0` would otherwise return unconditionally).
            return 0.0;
        }
        let mut acc = 0;
        for (i, &b) in self.bins.iter().enumerate() {
            acc += b;
            if acc >= target {
                return (i + 1) as f64 * self.width;
            }
        }
        self.max
    }

    /// Observations beyond the covered range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Non-finite observations rejected by [`Histogram::add`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Reset all bins.
    pub fn reset(&mut self) {
        self.bins.iter_mut().for_each(|b| *b = 0);
        self.overflow = 0;
        self.count = 0;
        self.sum = 0.0;
        self.max = 0.0;
        self.rejected = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_is_benign() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert!(w.ci_half_width(Confidence::P90).is_infinite());
        assert!(!w.converged_within(Confidence::P90, 0.05));
    }

    #[test]
    fn welford_convergence_rule() {
        let mut w = Welford::new();
        // Identical observations converge immediately after two samples.
        w.add(10.0);
        w.add(10.0);
        assert!(w.converged_within(Confidence::P90, 0.05));

        let mut noisy = Welford::new();
        noisy.add(0.0);
        noisy.add(100.0);
        assert!(!noisy.converged_within(Confidence::P90, 0.05));
    }

    #[test]
    fn confidence_quantiles_are_ordered() {
        assert!(Confidence::P90.z() < Confidence::P95.z());
        assert!(Confidence::P95.z() < Confidence::P99.z());
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut u = Utilization::new();
        u.set_busy(SimTime::from_secs_f64(0.0), true);
        u.set_busy(SimTime::from_secs_f64(3.0), false);
        u.set_busy(SimTime::from_secs_f64(5.0), true);
        u.set_busy(SimTime::from_secs_f64(6.0), false);
        // 4 busy seconds out of 10.
        assert!((u.utilization(SimTime::from_secs_f64(10.0)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn utilization_counts_open_busy_interval() {
        let mut u = Utilization::new();
        u.set_busy(SimTime::from_secs_f64(2.0), true);
        assert!((u.utilization(SimTime::from_secs_f64(4.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_window_reset_excludes_warmup() {
        let mut u = Utilization::new();
        u.set_busy(SimTime::from_secs_f64(0.0), true);
        // Still busy at reset; only post-reset busy time must count.
        u.reset_window(SimTime::from_secs_f64(100.0));
        u.set_busy(SimTime::from_secs_f64(105.0), false);
        let util = u.utilization(SimTime::from_secs_f64(110.0));
        assert!((util - 0.5).abs() < 1e-12, "util {util}");
    }

    #[test]
    fn utilization_idempotent_state_changes() {
        let mut u = Utilization::new();
        u.set_busy(SimTime::from_secs_f64(1.0), true);
        u.set_busy(SimTime::from_secs_f64(2.0), true); // no-op
        u.set_busy(SimTime::from_secs_f64(3.0), false);
        assert!((u.utilization(SimTime::from_secs_f64(4.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rate_tracker_peak_and_mean() {
        let mut r = RateTracker::new(SimDuration::from_secs(1));
        r.add(SimTime::from_secs_f64(0.1), 100);
        r.add(SimTime::from_secs_f64(0.9), 100);
        r.add(SimTime::from_secs_f64(1.5), 50);
        r.add(SimTime::from_secs_f64(2.5), 10);
        assert_eq!(r.total_bytes(), 260);
        assert!((r.peak_bytes_per_sec() - 200.0).abs() < 1e-9);
        assert!((r.mean_bytes_per_sec(SimTime::from_secs_f64(2.6)) - 100.0).abs() < 1.0);
    }

    #[test]
    fn rate_tracker_window_reset() {
        let mut r = RateTracker::new(SimDuration::from_secs(1));
        r.add(SimTime::from_secs_f64(0.5), 1_000_000);
        r.reset_window(SimTime::from_secs_f64(10.0));
        r.add(SimTime::from_secs_f64(10.5), 10);
        assert_eq!(r.total_bytes(), 10);
        assert!((r.peak_bytes_per_sec() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rate_tracker_ignores_backwards_time() {
        // Regression: an observation stamped before the current bucket
        // used to *reset* the open bucket (losing its bytes from the
        // peak), and the next in-order observation reset it again. The
        // straggler must be credited to the open bucket instead.
        let mut r = RateTracker::new(SimDuration::from_secs(1));
        r.add(SimTime::from_secs_f64(5.5), 100);
        // Straggler stamped long before the open bucket (e.g. delivered
        // across a window reset).
        r.add(SimTime::from_secs_f64(0.2), 50);
        r.add(SimTime::from_secs_f64(5.9), 10);
        assert_eq!(r.total_bytes(), 160);
        assert!(
            (r.peak_bytes_per_sec() - 160.0).abs() < 1e-9,
            "peak {} — backwards add reset the open bucket",
            r.peak_bytes_per_sec()
        );
    }

    #[test]
    fn rate_tracker_straggler_before_window_start() {
        // saturating_since clamps pre-window stamps to bucket 0; with the
        // open bucket also at 0 the bytes merge quietly.
        let mut r = RateTracker::new(SimDuration::from_secs(1));
        r.reset_window(SimTime::from_secs_f64(10.0));
        r.add(SimTime::from_secs_f64(10.2), 30);
        r.add(SimTime::from_secs_f64(9.0), 20); // before window start
        assert_eq!(r.total_bytes(), 50);
        assert!((r.peak_bytes_per_sec() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_binning_and_quantiles() {
        let mut h = Histogram::new(1.0, 10);
        for x in [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5] {
            h.add(x);
        }
        assert_eq!(h.count(), 10);
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert!((h.quantile(0.5) - 5.0).abs() < 1e-12);
        assert!((h.quantile(0.9) - 9.0).abs() < 1e-12);
        assert_eq!(h.quantile(1.0), 9.5); // the exact recorded max
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_quantile_zero_is_zero() {
        // Regression: q = 0 used to return the first bin's upper edge
        // (`width`) because an accumulator of 0 satisfied `acc >= 0` at
        // the first bin unconditionally.
        let mut h = Histogram::new(1.0, 10);
        h.add(3.5);
        h.add(7.5);
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn histogram_quantile_of_empty_is_zero() {
        let h = Histogram::new(1.0, 10);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn histogram_quantile_all_mass_in_overflow() {
        // Every observation beyond the binned range: any positive
        // quantile walks off the bins and reports the observed maximum.
        let mut h = Histogram::new(1.0, 2);
        h.add(10.0);
        h.add(20.0);
        h.add(30.0);
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 30.0);
        assert_eq!(h.quantile(1.0), 30.0);
    }

    #[test]
    fn histogram_overflow_and_reset() {
        let mut h = Histogram::new(1.0, 2);
        h.add(100.0);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.max(), 100.0);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.rejected(), 0);
    }

    #[test]
    fn histogram_rejects_nan_without_poisoning_mean() {
        // Regression: NaN used to bin at 0 (NaN.max(0.0) == 0.0) while
        // `sum += NaN` silently turned mean() into NaN forever.
        let mut h = Histogram::new(1.0, 10);
        h.add(2.5);
        h.add(f64::NAN);
        h.add(3.5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.rejected(), 1);
        assert!((h.mean() - 3.0).abs() < 1e-12, "mean {}", h.mean());
        assert_eq!(h.max(), 3.5);
    }

    #[test]
    fn histogram_rejects_infinities() {
        let mut h = Histogram::new(1.0, 10);
        h.add(f64::INFINITY);
        h.add(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.rejected(), 2);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_clamps_negatives_consistently() {
        // Regression: a negative observation landed in bin 0 but entered
        // `sum` raw, so mean() could go negative while quantile() stayed
        // non-negative.
        let mut h = Histogram::new(1.0, 10);
        h.add(-5.0);
        h.add(1.5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.rejected(), 0);
        assert!((h.mean() - 0.75).abs() < 1e-12, "mean {}", h.mean());
        assert!(h.mean() >= 0.0);
        assert!(h.quantile(0.5) >= 0.0);
        assert_eq!(h.max(), 1.5);

        let mut all_neg = Histogram::new(1.0, 4);
        all_neg.add(-1.0);
        all_neg.add(-2.0);
        assert_eq!(all_neg.mean(), 0.0);
        assert_eq!(all_neg.max(), 0.0);
        assert_eq!(all_neg.quantile(1.0), 0.0); // the clamped max, not bin 0's edge
    }

    #[test]
    fn histogram_p100_never_exceeds_an_observation() {
        // Regression: quantile(1.0) used to return the containing bin's
        // upper edge, reporting a p100 latency no request ever saw (e.g.
        // 1.0 for a single 0.1 observation in unit-width bins).
        let mut h = Histogram::new(1.0, 10);
        h.add(0.1);
        assert_eq!(h.quantile(1.0), 0.1);
        h.add(4.25);
        assert_eq!(h.quantile(1.0), 4.25);
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn histogram_p100_is_the_recorded_max() {
        let mut h = Histogram::new(1.0, 10);
        for v in [0.2, 3.7, 9.1] {
            h.add(v);
        }
        assert_eq!(h.quantile(1.0), h.max());
        assert_eq!(h.quantile(1.0), 9.1);
    }
}
