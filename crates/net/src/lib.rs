//! Network model (§6.2 of the SPIFFI paper).
//!
//! "The details of the network design are not considered as part of this
//! study and the network is assumed not to be a bottleneck. Thus, the
//! network is modeled as a bus with unlimited aggregate bandwidth and
//! constant latency regardless of which terminal and node are
//! communicating. The CPU times to initiate send and receive operations as
//! well as an appropriate wire delay based on the length of the message are
//! all simulated."
//!
//! Table 1's wire delay: **5 µs + 0.04 µs/byte**. A 512 KB stripe block
//! therefore takes ≈ 21 ms on the wire. There is no contention — messages
//! never queue *in* the network (they may queue at the recipient's CPU) —
//! but every byte is accounted so Figure 18's peak aggregate bandwidth can
//! be reported.

#![warn(missing_docs)]

use spiffi_simcore::stats::{Counter, RateTracker};
use spiffi_simcore::{SimDuration, SimTime};

/// Wire parameters (defaults: Table 1).
#[derive(Clone, Copy, Debug)]
pub struct NetParams {
    /// Fixed per-message latency.
    pub base_delay: SimDuration,
    /// Additional latency per byte, in nanoseconds.
    pub ns_per_byte: f64,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            base_delay: SimDuration::from_micros(5),
            ns_per_byte: 40.0, // 0.04 µs/byte
        }
    }
}

impl NetParams {
    /// Wire delay for a message of `bytes`.
    pub fn delay(&self, bytes: u64) -> SimDuration {
        self.base_delay + SimDuration::from_secs_f64(bytes as f64 * self.ns_per_byte * 1e-9)
    }
}

/// The shared bus: delay computation plus aggregate traffic accounting.
#[derive(Clone, Debug)]
pub struct Network {
    params: NetParams,
    traffic: RateTracker,
    messages: Counter,
}

impl Network {
    /// A bus with the given parameters, tracking bandwidth in one-second
    /// buckets (how Figure 18 reads).
    pub fn new(params: NetParams) -> Self {
        Network {
            params,
            traffic: RateTracker::new(SimDuration::from_secs(1)),
            messages: Counter::new(),
        }
    }

    /// Wire parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Record a send of `bytes` at `now` and return its delivery delay.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SimDuration {
        self.traffic.add(now, bytes);
        self.messages.incr();
        self.params.delay(bytes)
    }

    /// Peak aggregate bandwidth over any one-second bucket, bytes/second.
    pub fn peak_bytes_per_sec(&self) -> f64 {
        self.traffic.peak_bytes_per_sec()
    }

    /// Mean aggregate bandwidth since the window start, bytes/second.
    pub fn mean_bytes_per_sec(&self, now: SimTime) -> f64 {
        self.traffic.mean_bytes_per_sec(now)
    }

    /// Total bytes carried in the window.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.total_bytes()
    }

    /// Messages carried in the window.
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }

    /// Begin a fresh measurement window.
    pub fn reset_window(&mut self, now: SimTime) {
        self.traffic.reset_window(now);
        self.messages.reset();
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new(NetParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_formula_matches_table_1() {
        let p = NetParams::default();
        // Zero-byte message: 5 µs.
        assert_eq!(p.delay(0), SimDuration::from_micros(5));
        // 100 bytes: 5 µs + 4 µs.
        assert_eq!(p.delay(100), SimDuration::from_micros(9));
        // 512 KB stripe block: 5 µs + 524288 × 40 ns ≈ 20.98 ms.
        let d = p.delay(512 * 1024).as_secs_f64() * 1e3;
        assert!((d - 20.98).abs() < 0.01, "delay {d} ms");
    }

    #[test]
    fn delay_is_monotone_in_size() {
        let p = NetParams::default();
        let mut prev = SimDuration::ZERO;
        for bytes in [0u64, 1, 64, 1024, 65536, 1 << 20] {
            let d = p.delay(bytes);
            assert!(d >= prev);
            prev = d;
        }
    }

    #[test]
    fn traffic_accounting() {
        let mut n = Network::default();
        let t = SimTime::from_secs_f64(0.5);
        n.send(t, 1000);
        n.send(t, 2000);
        assert_eq!(n.total_bytes(), 3000);
        assert_eq!(n.messages(), 2);
        assert!((n.peak_bytes_per_sec() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn peak_tracks_busiest_second() {
        let mut n = Network::default();
        n.send(SimTime::from_secs_f64(0.1), 100);
        n.send(SimTime::from_secs_f64(1.1), 5000);
        n.send(SimTime::from_secs_f64(2.1), 200);
        assert!((n.peak_bytes_per_sec() - 5000.0).abs() < 1e-9);
        let mean = n.mean_bytes_per_sec(SimTime::from_secs_f64(2.65));
        assert!((mean - 2000.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn window_reset_clears_counters() {
        let mut n = Network::default();
        n.send(SimTime::ZERO, 1_000_000);
        n.reset_window(SimTime::from_secs_f64(10.0));
        assert_eq!(n.total_bytes(), 0);
        assert_eq!(n.messages(), 0);
        assert_eq!(n.peak_bytes_per_sec(), 0.0);
    }
}
