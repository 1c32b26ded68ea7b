//! In-run observability for the SPIFFI simulator: a zero-cost probe
//! layer, fixed-interval time-series sampling, and trace export.
//!
//! The paper's CSIM lineage exposed per-facility trace streams; this crate
//! is the same idea done the Rust way. The event loop and every resource
//! model call into a [`Probe`] — a trait whose methods all have empty
//! defaults and whose call sites are gated on the associated constant
//! [`Probe::ENABLED`]. The system is generic over its probe, so with the
//! default [`NoopProbe`] every hook monomorphises to nothing: the hot path
//! compiles to exactly the allocation-free code it was before the layer
//! existed, and the golden reports stay byte-identical.
//!
//! Three probes ship with the crate:
//!
//! * [`NoopProbe`] — the default; costs nothing, records nothing.
//! * [`TraceRecorder`] — records every probe callback as a timestamped
//!   [`TraceEvent`].
//! * [`Sampler`] — folds the callback stream into fixed-interval
//!   [`SampleRow`] time series (per-disk utilization, aggregate network
//!   bytes, buffer-pool occupancy, outstanding demand deadlines).
//!
//! Probes compose as tuples — `(TraceRecorder, Sampler)` is itself a
//! [`Probe`] that feeds both — and [`export`] renders recorded events and
//! samples as JSONL or as Chrome/Perfetto `trace_event` JSON.
//!
//! Everything here is observation-only: a probe receives copies of values
//! the simulation already computed and can never influence event order,
//! RNG draws, or timing. Determinism of a traced run is therefore exactly
//! the determinism of the untraced run, and the serialized trace of a
//! replication is byte-identical no matter how many worker threads the
//! experiment engine uses around it.

#![warn(missing_docs)]

pub mod export;
mod forensics;
pub mod json;
mod probe;
mod record;
mod sample;

pub use forensics::{ForensicsDump, GlitchForensics};
pub use probe::{
    CpuJobKind, DiskIoDone, DiskIoStart, FaultEvent, NetMsgKind, NetSend, NoopProbe, PoolEvent,
    Probe, TerminalEvent,
};
pub use record::{TraceEvent, TraceRecorder};
pub use sample::{SampleRow, Sampler};
