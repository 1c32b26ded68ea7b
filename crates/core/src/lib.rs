//! The SPIFFI scalable video-on-demand system (Freedman & DeWitt, SIGMOD
//! 1995) — the core simulation assembling every substrate crate into the
//! full server + terminal population, plus the experiment driver.
//!
//! # Quick start
//!
//! ```
//! use spiffi_core::{run_once, SystemConfig};
//!
//! let mut cfg = SystemConfig::small_test();
//! cfg.n_terminals = 4;
//! let report = run_once(&cfg);
//! assert!(report.glitch_free());
//! println!("{}", report.summary());
//! ```
//!
//! The paper's primary metric — the maximum number of terminals a
//! configuration supports glitch-free — is computed by
//! [`max_glitch_free_terminals`].

#![warn(missing_docs)]

pub mod bitset;
pub mod cache;
pub mod config;
pub mod driver;
pub mod journal;
pub mod metrics;
pub mod node;
pub mod piggyback;
pub mod scenario;
pub mod system;
pub mod terminal;

pub use bitset::TermBitset;
pub use cache::{LibraryCache, LibraryKey, ProbeCache, ProbeOutcome};
pub use config::{default_prefetch_for, PauseConfig, RunTiming, SystemConfig, KB, MB};
pub use driver::{
    capacity_with_confidence, engine_threads, fan_out, max_glitch_free_terminals, replication_seed,
    run_once, run_replications, CapacityResult, CapacitySearch, ConfidentCapacity,
    ConfidentCapacityResult, Engine,
};
pub use journal::{JournalSnapshot, ProbeRun, RunJournal};
pub use metrics::RunReport;
pub use piggyback::{Piggyback, StartDecision};
pub use scenario::{BitrateMix, FaultPlan, FaultSpec, PlanError, Scenario, Thresholds, Verdict};
// The observability layer, re-exported so instrumented callers need only
// depend on `spiffi-core`.
pub use spiffi_trace::{
    ForensicsDump, GlitchForensics, NoopProbe, Probe, SampleRow, Sampler, TraceRecorder,
};
pub use system::{Event, VisualSearch, VodSystem};
pub use terminal::{PlayState, Pump, Terminal};
