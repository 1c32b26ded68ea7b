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
             \"faults_injected\": {},\n  \"total_wall_ms\": {:.3},\n  \"probes\": [",
            self.searches,
            self.speculative_events,
            self.probes.len(),
            self.cache_hits(),
            self.simulated(),
            self.faults_injected,
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
        j.record_faults(4);
        let text = j.snapshot().to_json();
        assert!(text.contains("\"searches\": 1"));
        assert!(text.contains("\"speculative_events\": 7"));
        assert!(text.contains("\"terminals\": 4"));
        assert!(text.contains("\"wall_ms\": 1.500"));
        assert!(text.contains("\"total_wall_ms\": 1.500"));
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
