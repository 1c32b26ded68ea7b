//! The experiment engine's run journal: what each capacity search
//! actually cost.
//!
//! The engine's determinism guarantees say nothing about *work*: a probe
//! replication may be simulated fresh, replayed from the
//! [`ProbeCache`](crate::cache::ProbeCache), or executed speculatively and
//! thrown away. The journal records that side of the story — one
//! [`ProbeRun`] per replication resolution with its wall-clock cost, plus
//! per-search speculation waste — so harnesses can serialize an accounting
//! of where the time went next to their performance numbers.
//!
//! Everything here is observation: the journal is fed from the driver's
//! probe paths and never influences scheduling or outcomes. Wall times
//! (and, above one thread, entry order) are wall-clock artifacts; the
//! snapshot sorts entries by `(terminals, replication)` so the serialized
//! journal reads in search order regardless of which worker ran what.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A phase of the probe pipeline whose wall-clock cost the journal
/// accounts separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Simulating a base prefix and capturing its warm snapshot.
    Capture,
    /// Forking a captured base out to a probe population.
    Fork,
    /// Running the simulation proper.
    Simulate,
}

/// Number of [`PhaseKind`] variants (the phase-accumulator array size).
pub const PHASE_COUNT: usize = 3;

impl PhaseKind {
    /// Stable index into phase accumulator arrays.
    pub fn index(self) -> usize {
        match self {
            PhaseKind::Capture => 0,
            PhaseKind::Fork => 1,
            PhaseKind::Simulate => 2,
        }
    }

    /// Stable lower-case name, used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Capture => "capture",
            PhaseKind::Fork => "fork",
            PhaseKind::Simulate => "simulate",
        }
    }

    /// All phases in index order.
    pub const ALL: [PhaseKind; PHASE_COUNT] =
        [PhaseKind::Capture, PhaseKind::Fork, PhaseKind::Simulate];
}

/// One probe-replication resolution during a capacity search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeRun {
    /// Terminal count being probed.
    pub terminals: u32,
    /// Replication index within the probe.
    pub replication: u32,
    /// Served from the probe cache (no simulation ran; `wall_nanos` covers
    /// only the lookup and is effectively zero).
    pub cached: bool,
    /// The run completed deterministically (reached its first measured
    /// glitch or the window end). False for runs truncated by the cancel
    /// or abort protocol, whose events are pure speculation waste.
    pub clean: bool,
    /// Simulation events the resolution accounted for.
    pub events: u64,
    /// Wall-clock time spent resolving, in nanoseconds.
    pub wall_nanos: u64,
}

/// Accumulates [`ProbeRun`]s and per-search totals across an
/// [`Engine`](crate::Engine)'s lifetime. Shared by every worker thread of
/// every search the engine runs.
#[derive(Debug, Default)]
pub struct RunJournal {
    probes: Mutex<Vec<ProbeRun>>,
    searches: AtomicU64,
    speculative_events: AtomicU64,
    snapshot_captures: AtomicU64,
    snapshot_hits: AtomicU64,
    forked_terminals: AtomicU64,
    snapshot_saved_events: AtomicU64,
    phase_wall_nanos: [AtomicU64; PHASE_COUNT],
    faults_injected: AtomicU64,
}

impl RunJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one probe-replication resolution.
    pub fn record_probe(&self, run: ProbeRun) {
        self.probes.lock().unwrap().push(run);
    }

    /// Record a completed capacity search and the speculative events it
    /// wasted.
    pub fn record_search(&self, speculative_events: u64) {
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.speculative_events
            .fetch_add(speculative_events, Ordering::Relaxed);
    }

    /// Record one warm-snapshot consultation: whether the base prefix was
    /// already captured (`hit`), how many marginal terminals the fork
    /// added, and how many base-prefix events the fork skipped re-running
    /// (the events the snapshot replayed once, now reused).
    pub fn record_snapshot(&self, hit: bool, forked_terminals: u32, prefix_events: u64) {
        if hit {
            self.snapshot_hits.fetch_add(1, Ordering::Relaxed);
            self.snapshot_saved_events
                .fetch_add(prefix_events, Ordering::Relaxed);
        } else {
            self.snapshot_captures.fetch_add(1, Ordering::Relaxed);
        }
        self.forked_terminals
            .fetch_add(forked_terminals as u64, Ordering::Relaxed);
    }

    /// Add `nanos` of wall-clock time to `phase`'s accumulator.
    pub fn record_phase(&self, phase: PhaseKind, nanos: u64) {
        self.phase_wall_nanos[phase.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record scenario fault actions a run executed (disk deaths, degrade
    /// set/restore pairs, abandonment bursts). Purely observational, like
    /// everything else here — the actions themselves fire inside the
    /// simulation's event loop.
    pub fn record_faults(&self, actions: u64) {
        self.faults_injected.fetch_add(actions, Ordering::Relaxed);
    }

    /// A consistent copy of the journal, entries sorted into search order.
    pub fn snapshot(&self) -> JournalSnapshot {
        let mut probes = self.probes.lock().unwrap().clone();
        probes.sort_by_key(|p| (p.terminals, p.replication, p.cached));
        JournalSnapshot {
            probes,
            searches: self.searches.load(Ordering::Relaxed),
            speculative_events: self.speculative_events.load(Ordering::Relaxed),
            snapshot_captures: self.snapshot_captures.load(Ordering::Relaxed),
            snapshot_hits: self.snapshot_hits.load(Ordering::Relaxed),
            forked_terminals: self.forked_terminals.load(Ordering::Relaxed),
            snapshot_saved_events: self.snapshot_saved_events.load(Ordering::Relaxed),
            phase_wall_nanos: std::array::from_fn(|i| {
                self.phase_wall_nanos[i].load(Ordering::Relaxed)
            }),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`RunJournal`].
#[derive(Clone, Debug)]
pub struct JournalSnapshot {
    /// Every recorded probe run, sorted by `(terminals, replication)`.
    pub probes: Vec<ProbeRun>,
    /// Capacity searches completed.
    pub searches: u64,
    /// Speculative events across all searches (see
    /// [`CapacityResult::speculative_events`](crate::CapacityResult)).
    pub speculative_events: u64,
    /// Warm base snapshots captured (base prefix simulated and kept).
    pub snapshot_captures: u64,
    /// Probe systems served by forking an already-captured snapshot.
    pub snapshot_hits: u64,
    /// Marginal terminals added across all snapshot forks (captures and
    /// hits alike).
    pub forked_terminals: u64,
    /// Base-prefix events that snapshot hits did not have to re-simulate.
    pub snapshot_saved_events: u64,
    /// Wall-clock nanoseconds per pipeline phase, indexed by
    /// [`PhaseKind::index`].
    pub phase_wall_nanos: [u64; PHASE_COUNT],
    /// Scenario fault actions executed across recorded runs.
    pub faults_injected: u64,
}

impl JournalSnapshot {
    /// Probe resolutions served from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.probes.iter().filter(|p| p.cached).count() as u64
    }

    /// Probe resolutions that ran a simulation.
    pub fn simulated(&self) -> u64 {
        self.probes.iter().filter(|p| !p.cached).count() as u64
    }

    /// Total wall-clock nanoseconds across all recorded runs.
    pub fn total_wall_nanos(&self) -> u64 {
        self.probes.iter().map(|p| p.wall_nanos).sum()
    }

    /// Serialize as a JSON object (hand-rolled: every value is a number or
    /// a boolean, so no escaping is needed).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"searches\": {},\n  \"speculative_events\": {},\n  \
             \"probe_runs\": {},\n  \"cache_hits\": {},\n  \"simulated\": {},\n  \
             \"snapshot_captures\": {},\n  \"snapshot_hits\": {},\n  \
             \"forked_terminals\": {},\n  \"snapshot_saved_events\": {},\n  \
             \"faults_injected\": {},\n  \"phase_wall_ms\": {{",
            self.searches,
            self.speculative_events,
            self.probes.len(),
            self.cache_hits(),
            self.simulated(),
            self.snapshot_captures,
            self.snapshot_hits,
            self.forked_terminals,
            self.snapshot_saved_events,
            self.faults_injected,
        );
        for (i, phase) in PhaseKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": ", phase.name());
            spiffi_trace::json::push_f64(
                &mut out,
                self.phase_wall_nanos[phase.index()] as f64 / 1e6,
                3,
            );
        }
        let _ = write!(
            out,
            "}},\n  \"total_wall_ms\": {:.3},\n  \"probes\": [",
            self.total_wall_nanos() as f64 / 1e6,
        );
        for (i, p) in self.probes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"terminals\": {}, \"replication\": {}, \"cached\": {}, \
                 \"clean\": {}, \"events\": {}, \"wall_ms\": {:.3}}}",
                p.terminals,
                p.replication,
                p.cached,
                p.clean,
                p.events,
                p.wall_nanos as f64 / 1e6,
            );
        }
        if !self.probes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(terminals: u32, replication: u32, cached: bool) -> ProbeRun {
        ProbeRun {
            terminals,
            replication,
            cached,
            clean: true,
            events: 100,
            wall_nanos: 1_500_000,
        }
    }

    #[test]
    fn snapshot_sorts_and_totals() {
        let j = RunJournal::new();
        j.record_probe(run(8, 1, false));
        j.record_probe(run(4, 0, true));
        j.record_probe(run(8, 0, false));
        j.record_search(42);
        j.record_search(0);
        let s = j.snapshot();
        assert_eq!(s.searches, 2);
        assert_eq!(s.speculative_events, 42);
        assert_eq!(
            s.probes
                .iter()
                .map(|p| (p.terminals, p.replication))
                .collect::<Vec<_>>(),
            vec![(4, 0), (8, 0), (8, 1)]
        );
        assert_eq!(s.cache_hits(), 1);
        assert_eq!(s.simulated(), 2);
        assert_eq!(s.total_wall_nanos(), 4_500_000);
    }

    #[test]
    fn json_is_balanced_and_carries_the_counts() {
        let j = RunJournal::new();
        j.record_probe(run(4, 0, false));
        j.record_search(7);
        j.record_snapshot(false, 4, 0);
        j.record_snapshot(true, 8, 1_000);
        j.record_phase(PhaseKind::Capture, 2_000_000);
        j.record_phase(PhaseKind::Simulate, 3_000_000);
        j.record_phase(PhaseKind::Simulate, 500_000);
        j.record_faults(4);
        let text = j.snapshot().to_json();
        assert!(text.contains("\"searches\": 1"));
        assert!(text.contains("\"speculative_events\": 7"));
        assert!(text.contains("\"snapshot_captures\": 1"));
        assert!(text.contains("\"snapshot_hits\": 1"));
        assert!(text.contains("\"forked_terminals\": 12"));
        assert!(text.contains("\"snapshot_saved_events\": 1000"));
        assert!(text.contains("\"terminals\": 4"));
        assert!(text.contains("\"wall_ms\": 1.500"));
        assert!(text.contains("\"capture\": 2.000"));
        assert!(text.contains("\"simulate\": 3.500"));
        assert!(text.contains("\"fork\": 0.000"));
        assert!(text.contains("\"faults_injected\": 4"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(text.matches(open).count(), text.matches(close).count());
        }
        // An empty journal serializes cleanly too.
        let empty = RunJournal::new().snapshot().to_json();
        assert!(empty.contains("\"probes\": []"));
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(empty.matches(open).count(), empty.matches(close).count());
        }
    }
}
