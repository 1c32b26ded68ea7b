//! Discrete-event simulation kernel for the SPIFFI video-on-demand study.
//!
//! The original paper used the proprietary CSIM/C++ process-oriented
//! simulation language. This crate provides the equivalent substrate as a
//! small, deterministic, event-driven kernel:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer nanosecond clock. Using
//!   integers (not floats) makes event ordering exact and runs bit-for-bit
//!   reproducible.
//! * [`Calendar`] — the pending-event set: a stable priority queue keyed by
//!   `(time, insertion sequence)`, so same-time events fire in insertion
//!   order, exactly like CSIM's event calendar.
//! * [`rng`] — a self-contained xoshiro256** generator with SplitMix64
//!   seeding. Identical output on every platform and every `rand` version.
//! * [`dist`] — the samplers the paper needs: exponential frame sizes,
//!   uniform rotational latency, and the Zipfian video-popularity
//!   distribution of Figure 8.
//! * [`stats`] — measurement utilities: Welford mean/variance with
//!   confidence intervals (the paper's "90% confident within 5%"
//!   methodology), time-weighted utilization tracking for disks and CPUs,
//!   and bucketed rate tracking for peak network bandwidth (Figure 18).
//! * [`fan_out`] — an index-slotted parallel map whose output is
//!   identical at any thread count.
//! * [`round_u64`] — `f64::round` to `u64` without the soft-float call the
//!   x86-64 baseline makes for it.

#![warn(missing_docs)]

pub mod calendar;
pub mod dist;
pub mod hash;
pub mod par;
pub mod rng;
pub mod round;
pub mod stats;
pub mod time;

pub use calendar::Calendar;
pub use hash::{FastHashMap, FastHashSet};
pub use par::fan_out;
pub use rng::SimRng;
pub use round::round_u64;
pub use time::{SimDuration, SimTime};
