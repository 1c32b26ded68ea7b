//! The experiment driver: running configurations and finding the maximum
//! number of glitch-free terminals (§7.1).
//!
//! "Our primary metric is the maximum number of terminals that a
//! configuration can support without glitches. This value is obtained by
//! increasing the number of terminals until the number of glitches becomes
//! non-zero. To ensure that our results are accurate, we ran each
//! experiment until we were 90% confident that the results were within 5%
//! (about 10 terminals) of the actual maximum number of terminals."
//!
//! [`max_glitch_free_terminals`] performs that procedure as a bracketed
//! binary search on a terminal-count grid, requiring every replication
//! (different seeds) of a candidate count to finish its measurement window
//! glitch-free.
//!
//! # The experiment engine
//!
//! Every replication of an experiment owns its calendar, RNG and system
//! state and shares nothing with its siblings but a base seed, so
//! replications are embarrassingly parallel. [`Engine`] exploits that:
//! [`Engine::run_replications`] fans runs out across OS threads and slots
//! results by replication index, so its output is **byte-identical to the
//! sequential loop at any thread count**. Capacity probes additionally
//! short-circuit: when a replication glitches, higher-indexed replications
//! of the same probe abandon their runs (see
//! [`VodSystem::run_glitch_probe`] for why that preserves determinism).
//! Generated libraries are shared across a sweep through the engine's
//! [`LibraryCache`].
//!
//! The thread count defaults to the machine's available parallelism and
//! can be overridden with the `SPIFFI_THREADS` environment variable
//! (`SPIFFI_THREADS=1` runs everything on the caller's thread: the exact
//! sequential path).
//!
//! # Speculative capacity probing
//!
//! The capacity search itself is a sequential decision process — which
//! count to probe next depends on whether the current probe glitched —
//! but both possible next counts are known *before* the probe resolves,
//! so [`Engine::max_glitch_free_terminals`] keeps idle worker slots busy
//! running replications of the counts the search could visit next. Those
//! are ranked by how many still-undecided outcomes they assume, the clean
//! branch of an undecided probe before its glitch branch, and a count's
//! in-flight runs are abandoned as soon as the search can no longer reach
//! it (see `SpecSearch::pick_task` and `SpecState::abandon_unreachable`).
//! Every cleanly finished replication lands in a search-wide [`ProbeCache`]
//! keyed by `(config fingerprint, count, replication)`, so no pair is
//! ever simulated twice for one configuration — not within a search, not
//! across repeated searches on the same engine. Because a probe's
//! *counted* outcome is assembled purely from deterministic standalone
//! replication outcomes, the search walks the exact legacy probe
//! sequence and the [`CapacityResult`] stays byte-identical at any
//! thread count; speculative work the search never visits is reported
//! separately as [`CapacityResult::speculative_events`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::cache::{LibraryCache, ProbeCache, ProbeOutcome};
use crate::config::SystemConfig;
use crate::journal::{ProbeRun, RunJournal};
use crate::metrics::RunReport;
use crate::system::VodSystem;

/// Run one configuration to completion.
pub fn run_once(cfg: &SystemConfig) -> RunReport {
    VodSystem::new(cfg.clone()).run()
}

/// The seed for replication `r` of an experiment with base seed `base`.
///
/// Every replication loop in the driver derives its per-replication seeds
/// through this one function so they stay decorrelated the same way
/// everywhere. The multiplier is the full 64-bit golden-ratio constant
/// (SplitMix64's increment), which spreads consecutive replication indices
/// across the whole seed space; all arithmetic wraps so no replication
/// count can overflow. `r = 0` maps to a seed different from `base`, so a
/// replication never silently repeats the un-replicated experiment.
pub fn replication_seed(base: u64, r: u32) -> u64 {
    base.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(r as u64 + 1))
}

/// The `SPIFFI_*` environment variables the simulator reads. Any other
/// name under the prefix is rejected by [`Engine::new`]: a misspelt or
/// retired knob must not be silently ignored.
pub(crate) const ENV_KNOBS: [&str; 1] = ["SPIFFI_THREADS"];

/// The first name in `names` that carries the `SPIFFI_` prefix but is not
/// one of the [`ENV_KNOBS`], if any.
pub(crate) fn unknown_env_knob<'a>(names: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    names
        .into_iter()
        .find(|n| n.starts_with("SPIFFI_") && !ENV_KNOBS.contains(n))
}

/// Exit with a diagnostic (status 2) if the environment sets a `SPIFFI_*`
/// variable the simulator does not read. Scanning the environment copies
/// all of it, so the scan runs once per process, when the first engine is
/// built; binaries build every engine after start-up.
fn reject_unknown_env_knobs() {
    static SCANNED: std::sync::Once = std::sync::Once::new();
    SCANNED.call_once(|| {
        let names: Vec<String> = std::env::vars_os()
            .map(|(k, _)| k.to_string_lossy().into_owned())
            .collect();
        if let Some(bad) = unknown_env_knob(names.iter().map(String::as_str)) {
            eprintln!(
                "spiffi: unknown environment variable {bad} \
                 (the simulator reads only {})",
                ENV_KNOBS.join(", ")
            );
            std::process::exit(2);
        }
    });
}

/// Parse a `SPIFFI_THREADS` setting: unset or empty selects the machine's
/// available parallelism (`None`), a positive integer that many threads
/// (whitespace-trimmed). Anything else — `0`, a negative number, a word —
/// is an error carrying the offending text.
pub(crate) fn parse_threads(v: Option<&str>) -> Result<Option<usize>, String> {
    let t = v.unwrap_or("").trim();
    if t.is_empty() {
        return Ok(None);
    }
    match t.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(t.to_string()),
    }
}

/// Worker-thread budget for the experiment engine: the `SPIFFI_THREADS`
/// environment variable when set (`1` = the sequential search, run on the
/// caller's thread), otherwise the machine's available parallelism. A
/// value that is not a positive integer is rejected with a diagnostic and
/// a non-zero exit: a typo must not silently pick another thread count.
pub fn engine_threads() -> usize {
    let raw = std::env::var("SPIFFI_THREADS").ok();
    match parse_threads(raw.as_deref()) {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(bad) => {
            eprintln!("spiffi: bad SPIFFI_THREADS value {bad:?} (expected a positive integer)");
            std::process::exit(2);
        }
    }
}

/// The workspace's index-slotted parallel map, re-exported here so the
/// driver's callers keep one import path.
pub use spiffi_simcore::fan_out;

/// The parallel experiment engine: a thread budget plus a shared
/// [`LibraryCache`], behind every replication fan-out in the driver.
///
/// One engine should live as long as a sweep so every grid point reuses
/// the cached libraries. All results are byte-identical at any thread
/// count; see the [module docs](self) for the determinism argument.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    cache: Arc<LibraryCache>,
    probes: Arc<ProbeCache>,
    journal: Arc<RunJournal>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the ambient thread budget ([`engine_threads`]) and
    /// fresh caches. Exits with a diagnostic if the environment sets a
    /// `SPIFFI_*` variable other than `SPIFFI_THREADS`.
    pub fn new() -> Self {
        reject_unknown_env_knobs();
        Engine::with_threads(engine_threads())
    }

    /// An engine with an explicit thread budget (tests of the determinism
    /// guarantee construct several of these side by side). Its library
    /// cache generates on the same budget.
    pub fn with_threads(threads: usize) -> Self {
        Engine::with_caches(
            threads,
            Arc::new(LibraryCache::new(threads)),
            Arc::new(ProbeCache::new()),
        )
    }

    /// An engine sharing an existing library cache (e.g. across several
    /// sweeps of one bench binary) but with a fresh probe cache.
    pub fn with_cache(threads: usize, cache: Arc<LibraryCache>) -> Self {
        Engine::with_caches(threads, cache, Arc::new(ProbeCache::new()))
    }

    /// An engine sharing both a library cache and a probe cache, so
    /// repeated capacity searches replay clean probe outcomes instead of
    /// re-simulating them.
    pub fn with_caches(threads: usize, cache: Arc<LibraryCache>, probes: Arc<ProbeCache>) -> Self {
        Engine {
            threads: threads.max(1),
            cache,
            probes,
            journal: Arc::new(RunJournal::new()),
        }
    }

    /// An engine with a `threads` budget that shares everything else with
    /// this one: the library and probe caches and the run journal. Grid
    /// sweeps use it to spend their parallelism across grid points while
    /// every point still runs on the configured engine; the shared library
    /// cache keeps generating on this engine's budget, since the points
    /// that need a library wait for it.
    pub fn sibling(&self, threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
            cache: Arc::clone(&self.cache),
            probes: Arc::clone(&self.probes),
            journal: Arc::clone(&self.journal),
        }
    }

    /// The worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine's library cache.
    pub fn cache(&self) -> &Arc<LibraryCache> {
        &self.cache
    }

    /// The engine's search-wide probe cache.
    pub fn probe_cache(&self) -> &Arc<ProbeCache> {
        &self.probes
    }

    /// The engine's run journal: wall-clock and cache accounting for every
    /// probe replication this engine has resolved. Purely observational —
    /// snapshotting or serializing it never affects search results.
    pub fn journal(&self) -> &Arc<RunJournal> {
        &self.journal
    }

    /// Run one configuration to completion, sourcing its library from the
    /// cache. Equivalent to [`run_once`] but skips regeneration when the
    /// sweep has already built this library.
    pub fn run(&self, cfg: &SystemConfig) -> RunReport {
        VodSystem::with_library(cfg.clone(), self.cache.get(cfg)).run()
    }

    /// Run `cfg` once per seed in `seeds`, in parallel, returning reports
    /// in seed order. Byte-identical to the sequential loop
    /// `seeds.iter().map(|&s| run_once(&{cfg with seed s}))` at any thread
    /// count: each run owns its RNG and calendar, and results are slotted
    /// by index.
    pub fn run_replications(&self, cfg: &SystemConfig, seeds: &[u64]) -> Vec<RunReport> {
        fan_out(seeds.len(), self.threads, |i| {
            let mut c = cfg.clone();
            c.seed = seeds[i];
            let lib = self.cache.get(&c);
            VodSystem::with_library(c, lib).run()
        })
    }

    /// Find the maximum glitch-free terminal count for `cfg` (its
    /// `n_terminals` field is ignored) as a bracketed binary search on the
    /// step grid.
    ///
    /// The probe sequence is the classic sequential bisection's, replayed
    /// by a `SearchCursor`; probe outcomes are assembled per replication
    /// from the engine's [`ProbeCache`], simulating only the pairs the
    /// cache is missing. At one thread the search runs on the caller's
    /// thread and resolves the cursor's pending probe one replication at
    /// a time. Above one thread, idle workers speculatively run
    /// replications of the counts the search could visit next (both
    /// bisection branches are known in advance), so the wall-clock
    /// critical path shrinks while `max_terminals`, `probes` and
    /// `events_processed` stay byte-identical to `SPIFFI_THREADS=1`.
    ///
    /// # Panics
    /// If `search` fails [`CapacitySearch::validate`].
    pub fn max_glitch_free_terminals(
        &self,
        cfg: &SystemConfig,
        search: &CapacitySearch,
    ) -> CapacityResult {
        if let Err(e) = search.validate() {
            panic!("invalid capacity search: {e}");
        }
        let fp = ProbeCache::fingerprint(cfg);
        let result = SpecSearch::new(self, cfg, search, &fp).run();
        self.journal.record_search(result.speculative_events);
        result
    }

    /// The assembled system for replication `r` of a probe at `n`
    /// terminals, its library drawn from the cache.
    fn probe_system(&self, cfg: &SystemConfig, n: u32, r: u32) -> VodSystem {
        let mut c = cfg.clone();
        c.n_terminals = n;
        c.seed = replication_seed(cfg.seed, r);
        let lib = self.cache.get(&c);
        VodSystem::with_library(c, lib)
    }

    /// Estimate capacity with the paper's replication-until-confident rule
    /// (see [`capacity_with_confidence`]). The outer loop is inherently
    /// sequential — each replication decides whether another is needed —
    /// but every inner search runs on the engine.
    pub fn capacity_with_confidence(
        &self,
        cfg: &SystemConfig,
        params: &ConfidentCapacity,
    ) -> ConfidentCapacityResult {
        use spiffi_simcore::stats::Welford;
        assert!(params.min_replications >= 2 && params.max_replications >= params.min_replications);
        let mut w = Welford::new();
        let mut estimates = Vec::new();
        let mut converged = false;
        for rep in 0..params.max_replications {
            let mut c = cfg.clone();
            c.seed = replication_seed(cfg.seed, rep);
            let r = self.max_glitch_free_terminals(&c, &params.search);
            estimates.push(r.max_terminals);
            w.add(r.max_terminals as f64);
            if rep + 1 >= params.min_replications
                && w.converged_within(params.confidence, params.tolerance)
            {
                converged = true;
                break;
            }
        }
        let grid = params.search.step.max(1);
        let mean = w.mean();
        ConfidentCapacityResult {
            max_terminals: round_to_grid(mean, grid),
            estimates,
            ci_half_width: w.ci_half_width(params.confidence),
            converged,
        }
    }
}

/// Round a mean capacity estimate to the search grid, defensively.
///
/// The naive `(mean / grid).round() as u32 * grid` has two failure modes:
/// a mean below half a grid step rounds to **zero terminals** (the search
/// itself never reports an on-grid answer of 0 without flagging
/// `below_bracket`), and a huge or non-finite mean saturates the `as u32`
/// cast at `u32::MAX` and then *wraps* in the multiply. Here non-finite
/// means collapse to the grid floor and the result is clamped to
/// `[grid, largest grid-aligned u32]`.
fn round_to_grid(mean: f64, grid: u32) -> u32 {
    let grid = grid.max(1);
    let max_aligned = u32::MAX - u32::MAX % grid;
    if !mean.is_finite() || mean <= 0.0 {
        return grid;
    }
    let steps = (mean / grid as f64).round();
    if steps >= (max_aligned / grid) as f64 {
        return max_aligned;
    }
    (steps as u32).max(1) * grid
}

/// Where the bracketed bisection stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Probing the lower bracket.
    ConfirmLo,
    /// The lower bracket glitched; probing successively smaller counts.
    WalkDown {
        /// The count being probed.
        n: u32,
    },
    /// Probing the upper bracket.
    ConfirmHi,
    /// Bisecting with both brackets confirmed.
    Bisect {
        /// The grid midpoint being probed.
        mid: u32,
    },
    /// The search has its answer.
    Done {
        /// Largest glitch-free count found (0 if none).
        answer: u32,
        /// True if even the smallest on-grid count glitched.
        below_bracket: bool,
    },
}

/// The bracket/walk-down/bisection decision process as a pure state
/// machine: [`SearchCursor::pending`] names the count the search needs
/// probed next, [`SearchCursor::advance`] feeds it that probe's glitch
/// total. Factoring the decisions out of the probe loop is what makes
/// speculation exact — a hypothetical future of the search is just a
/// copied cursor advanced with an assumed outcome — and it replays the
/// legacy sequential loop probe for probe (including the duplicate probe
/// a `lo == hi` bracket performs), which is what keeps the probe
/// sequence byte-identical to the pre-speculative driver.
#[derive(Clone, Copy, Debug)]
struct SearchCursor {
    lo: u32,
    hi: u32,
    step: u32,
    phase: Phase,
}

impl SearchCursor {
    fn new(search: &CapacitySearch) -> Self {
        let grid = |x: u32| (x / search.step).max(1) * search.step;
        let lo = grid(search.lo);
        let hi = grid(search.hi).max(lo);
        SearchCursor {
            lo,
            hi,
            step: search.step,
            phase: Phase::ConfirmLo,
        }
    }

    /// The count the search needs probed next, `None` once answered.
    fn pending(&self) -> Option<u32> {
        match self.phase {
            Phase::ConfirmLo => Some(self.lo),
            Phase::WalkDown { n } => Some(n),
            Phase::ConfirmHi => Some(self.hi),
            Phase::Bisect { mid } => Some(mid),
            Phase::Done { .. } => None,
        }
    }

    /// The answer, `(max_terminals, below_bracket)`.
    ///
    /// # Panics
    /// If the search is not [`Phase::Done`].
    fn answer(&self) -> (u32, bool) {
        match self.phase {
            Phase::Done {
                answer,
                below_bracket,
            } => (answer, below_bracket),
            _ => panic!("capacity search consulted before it finished"),
        }
    }

    /// Feed the pending probe's glitch total and advance the search.
    fn advance(&mut self, glitches: u64) {
        let glitching = glitches > 0;
        self.phase = match self.phase {
            Phase::ConfirmLo => {
                if glitching {
                    Self::walk_down_from(self.lo, self.step)
                } else {
                    Phase::ConfirmHi
                }
            }
            Phase::WalkDown { n } => {
                if glitching {
                    Self::walk_down_from(n, self.step)
                } else {
                    Phase::Done {
                        answer: n,
                        below_bracket: false,
                    }
                }
            }
            Phase::ConfirmHi => {
                if glitching {
                    // Invariant henceforth: lo glitch-free, hi glitches.
                    self.next_mid()
                } else {
                    Phase::Done {
                        answer: self.hi,
                        below_bracket: false,
                    }
                }
            }
            Phase::Bisect { mid } => {
                if glitching {
                    self.hi = mid;
                } else {
                    self.lo = mid;
                }
                self.next_mid()
            }
            Phase::Done { .. } => panic!("capacity search advanced past its answer"),
        };
    }

    /// Every count this cursor, or any cursor it can advance into, may
    /// name as pending; `None` if there are more than `limit` of them.
    /// Advancing takes one branch, so a successor's set is a subset of
    /// its parent's.
    fn reachable_counts(&self, limit: usize) -> Option<HashSet<u32>> {
        let mut counts = HashSet::new();
        // The futures form a tree (every advance narrows the bracket or
        // walks down), so no state needs deduplicating.
        let mut stack = vec![*self];
        while let Some(cursor) = stack.pop() {
            let Some(n) = cursor.pending() else { continue };
            counts.insert(n);
            if counts.len() > limit {
                return None;
            }
            for glitches in [0, 1] {
                let mut next = cursor;
                next.advance(glitches);
                stack.push(next);
            }
        }
        Some(counts)
    }

    /// The phase after count `n` glitched during bracket confirmation or
    /// walk-down. The walk stays on the step grid and stops *at* the
    /// grid's floor (one step): stepping below it would probe off-grid
    /// counts, so an infeasible floor is reported as a distinct
    /// "capacity below bracket" outcome instead.
    fn walk_down_from(n: u32, step: u32) -> Phase {
        debug_assert!(
            n >= step && n.is_multiple_of(step),
            "walk-down left the step grid: n={n} step={step}"
        );
        if n > step {
            Phase::WalkDown { n: n - step }
        } else {
            Phase::Done {
                answer: 0,
                below_bracket: true,
            }
        }
    }

    /// The next bisection phase for the current `lo`/`hi` bracket: probe
    /// the grid midpoint while the bracket is wider than one step and the
    /// midpoint is interior, otherwise settle on `lo`.
    fn next_mid(&self) -> Phase {
        if self.hi - self.lo > self.step {
            let mid = ((self.lo + (self.hi - self.lo) / 2) / self.step).max(1) * self.step;
            if mid > self.lo && mid < self.hi {
                return Phase::Bisect { mid };
            }
        }
        Phase::Done {
            answer: self.lo,
            below_bracket: false,
        }
    }
}

/// Shared mutable state of one speculative capacity search.
#[derive(Debug)]
struct SpecState {
    /// The authoritative search position.
    cursor: SearchCursor,
    /// Probe log in cursor order: `(count, counted glitch total)`.
    probes: Vec<(u32, u64)>,
    /// Counted events — the deterministic total the result reports.
    counted_events: u64,
    /// Clean outcomes known to this search (cache-served or completed
    /// here), memoized so the cache mutex is touched once per pair.
    outcomes: HashMap<(u32, u32), ProbeOutcome>,
    /// Events executed by replications this call actually simulated,
    /// keyed by pair — the clean ones, consulted for waste accounting.
    fresh: HashMap<(u32, u32), u64>,
    /// Pairs currently being simulated by some worker.
    running: HashSet<(u32, u32)>,
    /// Per-count coordination flags, shared by that count's in-flight
    /// replications. A count leaves the map when the cursor can no longer
    /// reach it, its abandon flag raised on the way out.
    cancels: HashMap<u32, Arc<CountFlags>>,
    /// Every event simulated by this call, clean or truncated.
    executed_events: u64,
    /// The cursor reached [`Phase::Done`].
    done: bool,
}

impl SpecState {
    /// Raise the abandon flag of every count the cursor can no longer
    /// reach — every count, once the search is answered — and forget it.
    /// A cursor's reachable set only shrinks as it advances, so an
    /// abandoned count is never needed again. Nothing is abandoned while
    /// the set is too large to enumerate.
    fn abandon_unreachable(&mut self) {
        let Some(live) = self.cursor.reachable_counts(SpecSearch::MAX_FRONTIER) else {
            return;
        };
        self.cancels.retain(|n, flags| {
            let keep = live.contains(n);
            if !keep {
                flags.abandon.store(true, Ordering::Relaxed);
            }
            keep
        });
    }
}

/// The flags one count's replications poll while they run.
#[derive(Debug)]
struct CountFlags {
    /// The lowest glitching replication index (`u32::MAX` until one
    /// glitches): replications above it stop, since they are never
    /// counted (see [`VodSystem::run_glitch_probe`]).
    cancel: AtomicU32,
    /// Raised once the search can no longer visit the count: every
    /// replication of it stops.
    abandon: AtomicBool,
}

impl CountFlags {
    fn new() -> Self {
        CountFlags {
            cancel: AtomicU32::new(u32::MAX),
            abandon: AtomicBool::new(false),
        }
    }
}

/// One run of [`Engine::max_glitch_free_terminals`]: a team of workers
/// that drive the authoritative [`SearchCursor`] forward as probe outcomes
/// resolve, and spend idle slots on replications of counts the search may
/// visit next. See the [module docs](self#speculative-capacity-probing)
/// for the determinism argument.
///
/// With a one-thread engine the single worker runs on the caller's
/// thread. It then always picks the first missing replication of the
/// cursor's pending count, nothing is in flight to cancel or abandon, and
/// the search is exactly the sequential bisection loop.
struct SpecSearch<'a> {
    engine: &'a Engine,
    cfg: &'a SystemConfig,
    replications: u32,
    fp: &'a Arc<str>,
    state: Mutex<SpecState>,
    /// Signalled whenever an outcome lands or the search finishes.
    resolved: Condvar,
}

impl<'a> SpecSearch<'a> {
    /// How many distinct future counts [`SpecSearch::pick_task`] may
    /// examine per call. The reachable set is naturally small (bisection
    /// halves the bracket, so ~log₂ of the grid plus the walk-down), but
    /// a bound keeps a pathological grid from turning task selection
    /// into the bottleneck.
    const MAX_FRONTIER: usize = 256;

    fn new(
        engine: &'a Engine,
        cfg: &'a SystemConfig,
        search: &CapacitySearch,
        fp: &'a Arc<str>,
    ) -> Self {
        SpecSearch {
            engine,
            cfg,
            replications: search.replications,
            fp,
            state: Mutex::new(SpecState {
                cursor: SearchCursor::new(search),
                probes: Vec::new(),
                counted_events: 0,
                outcomes: HashMap::new(),
                fresh: HashMap::new(),
                running: HashSet::new(),
                cancels: HashMap::new(),
                executed_events: 0,
                done: false,
            }),
            resolved: Condvar::new(),
        }
    }

    fn run(self) -> CapacityResult {
        if self.engine.threads <= 1 {
            self.worker();
        } else {
            std::thread::scope(|s| {
                for _ in 0..self.engine.threads {
                    s.spawn(|| self.worker());
                }
            });
        }
        let st = self.state.into_inner().unwrap();
        let (max_terminals, below_bracket) = st.cursor.answer();
        // Waste = everything executed minus the executed events that the
        // search counted. Counted pairs are re-derived from the probe log
        // (deduplicated, because a `lo == hi` bracket counts one pair
        // twice while executing it once).
        let mut counted_pairs: HashSet<(u32, u32)> = HashSet::new();
        for &(n, _) in &st.probes {
            for r in 0..self.replications {
                let out = st.outcomes[&(n, r)];
                counted_pairs.insert((n, r));
                if out.glitches > 0 {
                    break;
                }
            }
        }
        let fresh_counted: u64 = counted_pairs
            .iter()
            .filter_map(|pair| st.fresh.get(pair))
            .sum();
        CapacityResult {
            max_terminals,
            probes: st.probes,
            events_processed: st.counted_events,
            speculative_events: st.executed_events.saturating_sub(fresh_counted),
            below_bracket,
        }
    }

    fn worker(&self) {
        let mut st = self.state.lock().unwrap();
        loop {
            self.drive(&mut st);
            if st.done {
                self.resolved.notify_all();
                return;
            }
            match self.pick_task(&mut st) {
                Some((n, r, flags)) => {
                    st.running.insert((n, r));
                    drop(st);
                    let started = std::time::Instant::now();
                    let system = self.engine.probe_system(self.cfg, n, r);
                    let (report, clean) =
                        system.run_glitch_probe_abortable(&flags.cancel, r, &flags.abandon);
                    self.engine.journal.record_probe(ProbeRun {
                        terminals: n,
                        replication: r,
                        cached: false,
                        clean,
                        events: report.events_processed,
                        wall_nanos: started.elapsed().as_nanos() as u64,
                    });
                    st = self.state.lock().unwrap();
                    st.running.remove(&(n, r));
                    st.executed_events += report.events_processed;
                    if clean {
                        let out = ProbeOutcome {
                            glitches: report.glitches,
                            events: report.events_processed,
                        };
                        self.engine.probes.insert(self.fp, n, r, out);
                        st.outcomes.insert((n, r), out);
                        st.fresh.insert((n, r), report.events_processed);
                    }
                    self.resolved.notify_all();
                }
                None => {
                    // Every needed pair is in flight on another worker (the
                    // cursor being unanswered guarantees at least one is):
                    // wait for a resolution.
                    st = self.resolved.wait(st).unwrap();
                }
            }
        }
    }

    /// Advance the authoritative cursor over every probe whose counted
    /// outcome is fully known, logging probes and counted events exactly
    /// as the sequential loop would, then abandon the counts the advance
    /// left behind.
    fn drive(&self, st: &mut SpecState) {
        let logged = st.probes.len();
        while let Some(n) = st.cursor.pending() {
            let Some((glitches, events)) = self.probe_total(st, n) else {
                break;
            };
            st.probes.push((n, glitches));
            st.counted_events += events;
            st.cursor.advance(glitches);
        }
        st.done = st.cursor.pending().is_none();
        if st.probes.len() > logged {
            st.abandon_unreachable();
        }
    }

    /// The counted `(glitch total, event total)` of a probe at `n`, if
    /// every replication outcome it depends on is known: replications in
    /// index order up to and including the first glitching one.
    fn probe_total(&self, st: &mut SpecState, n: u32) -> Option<(u64, u64)> {
        let mut glitches = 0u64;
        let mut events = 0u64;
        for r in 0..self.replications {
            let out = self.lookup(st, n, r)?;
            glitches += out.glitches;
            events += out.events;
            if out.glitches > 0 {
                break;
            }
        }
        Some((glitches, events))
    }

    /// The clean outcome of `(n, r)` if known, consulting this search's
    /// memo first and the engine-wide cache second (picking up pairs
    /// pre-warmed by earlier searches).
    fn lookup(&self, st: &mut SpecState, n: u32, r: u32) -> Option<ProbeOutcome> {
        if let Some(&out) = st.outcomes.get(&(n, r)) {
            return Some(out);
        }
        let out = self.engine.probes.get(self.fp, n, r)?;
        // First sighting of a pre-warmed pair this search (the memo above
        // absorbs repeats): journal it as a cache hit.
        self.engine.journal.record_probe(ProbeRun {
            terminals: n,
            replication: r,
            cached: true,
            clean: true,
            events: out.events,
            wall_nanos: 0,
        });
        st.outcomes.insert((n, r), out);
        Some(out)
    }

    /// Choose the next replication to simulate, walking the cursor's
    /// reachable futures as a 0-1 breadth-first search whose cost is the
    /// number of still-undecided outcomes a future assumes. A future
    /// reached through an outcome that is already decided (every counted
    /// replication known, or any replication known to glitch) costs
    /// nothing more than its parent, so the probe the search is waiting
    /// on, and whatever it is sure to probe next, always come first.
    /// Among undecided outcomes the clean branch goes before the glitch
    /// branch: a clean replication runs its whole measurement window
    /// while a glitching one stops at its first measured glitch, so a
    /// parent still running when a worker frees up is likelier to come
    /// out clean, and a clean parent's long run leaves its speculative
    /// child the most overlap. Within a count, replications dispatch in index order
    /// past any that are already running — the same
    /// all-replications-concurrent shape as the pre-speculative probe.
    fn pick_task(&self, st: &mut SpecState) -> Option<(u32, u32, Arc<CountFlags>)> {
        let mut queue: VecDeque<SearchCursor> = VecDeque::from([st.cursor]);
        let mut seen: HashSet<u32> = HashSet::new();
        while let Some(cursor) = queue.pop_front() {
            let Some(n) = cursor.pending() else { continue };
            if !seen.insert(n) {
                continue;
            }
            if seen.len() > Self::MAX_FRONTIER {
                return None;
            }
            // Scan this count's replications for one worth dispatching,
            // learning on the way whether the probe's outcome is decided:
            // glitching once any replication is known to glitch (higher
            // ones are never counted), clean once every one is known clean.
            let mut decided = Some(0);
            for r in 0..self.replications {
                match self.lookup(st, n, r) {
                    Some(out) if out.glitches > 0 => {
                        decided = Some(out.glitches);
                        break;
                    }
                    Some(_) => {}
                    None if st.running.contains(&(n, r)) => decided = None,
                    None => {
                        let flags = st
                            .cancels
                            .entry(n)
                            .or_insert_with(|| Arc::new(CountFlags::new()));
                        return Some((n, r, Arc::clone(flags)));
                    }
                }
            }
            match decided {
                Some(glitches) => {
                    let mut next = cursor;
                    next.advance(glitches);
                    queue.push_front(next);
                }
                None => {
                    for glitches in [0, 1] {
                        let mut next = cursor;
                        next.advance(glitches);
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }
}

/// Parameters of the capacity search.
#[derive(Clone, Debug)]
pub struct CapacitySearch {
    /// Lower bracket (must normally be feasible).
    pub lo: u32,
    /// Upper bracket (should be infeasible).
    pub hi: u32,
    /// Terminal-count granularity of the answer (the paper reports to
    /// about 5 terminals).
    pub step: u32,
    /// Independent replications (seeds) per probe; all must be glitch-free.
    pub replications: u32,
}

impl CapacitySearch {
    /// Check the search is well-formed: a positive step, `lo <= hi`, and
    /// at least one replication per probe. Zero replications would pass
    /// every probe vacuously and report the upper bracket as capacity.
    pub fn validate(&self) -> Result<(), String> {
        if self.step == 0 {
            return Err("step must be positive".into());
        }
        if self.lo > self.hi {
            return Err(format!(
                "lower bracket {} exceeds upper bracket {}",
                self.lo, self.hi
            ));
        }
        if self.replications == 0 {
            return Err("at least one replication per probe is required".into());
        }
        Ok(())
    }
}

impl Default for CapacitySearch {
    fn default() -> Self {
        CapacitySearch {
            lo: 10,
            hi: 400,
            step: 5,
            replications: 2,
        }
    }
}

/// Outcome of a capacity search.
#[derive(Clone, Debug)]
pub struct CapacityResult {
    /// Largest probed terminal count (on the step grid) with zero glitches
    /// across all replications.
    pub max_terminals: u32,
    /// Every probe performed: (terminal count, glitches). An infeasible
    /// probe short-circuits at its first glitch, so the count records the
    /// deterministic glitches of the lowest-indexed glitching replication
    /// (zero/non-zero is the capacity criterion; magnitudes beyond the
    /// first glitch are not comparable across search strategies).
    pub probes: Vec<(u32, u64)>,
    /// Simulation events attributable to the search — for each probe, the
    /// replications up to and including the first glitching one. Like the
    /// glitch counts, identical at any thread count — and independent of
    /// the probe cache: a cache-served replication contributes the events
    /// its original run processed.
    pub events_processed: u64,
    /// Simulation events this call executed that the search did not
    /// count: speculative probes of counts never visited, replications
    /// cancelled by a glitching sibling, and runs abandoned when the
    /// search finished. Unlike every other field this is a wall-clock
    /// artifact — it varies with thread count and cache warmth (exactly 0
    /// at one thread or on a fully warm cache) — and is reported only so
    /// harnesses can weigh speedup against speculation waste.
    pub speculative_events: u64,
    /// True if even the smallest count on the step grid glitched: the
    /// walk-down exhausted the grid without finding a feasible count, so
    /// `max_terminals` is 0 and the real capacity lies below the
    /// searchable bracket.
    pub below_bracket: bool,
}

/// Find the maximum glitch-free terminal count for `cfg` (its
/// `n_terminals` field is ignored).
///
/// Convenience wrapper constructing a transient [`Engine`] with the
/// ambient [`engine_threads`] budget; sweeps should hold their own engine
/// so the library cache persists across grid points.
pub fn max_glitch_free_terminals(cfg: &SystemConfig, search: &CapacitySearch) -> CapacityResult {
    Engine::new().max_glitch_free_terminals(cfg, search)
}

/// Run `cfg` once per seed in `seeds`, in parallel, returning reports in
/// seed order — a convenience wrapper over [`Engine::run_replications`]
/// with the ambient thread budget.
pub fn run_replications(cfg: &SystemConfig, seeds: &[u64]) -> Vec<RunReport> {
    Engine::new().run_replications(cfg, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiffi_simcore::SimDuration;

    /// A deliberately tiny configuration so capacity lands in single
    /// digits and the search completes in well under a second. Server
    /// memory is kept far below the working set (the paper's regime:
    /// videos are much larger than memory, so caching cannot substitute
    /// for disk bandwidth), and the library is large and uniformly
    /// accessed so near-simultaneous starts rarely share a stream —
    /// otherwise inadvertent piggybacking (§8.2) masks the disk limit.
    fn tiny() -> SystemConfig {
        let mut c = SystemConfig::small_test();
        c.topology = spiffi_layout::Topology {
            nodes: 1,
            disks_per_node: 1,
        };
        c.n_videos = 40;
        c.access = spiffi_mpeg::AccessPattern::Uniform;
        c.video.duration = SimDuration::from_secs(60);
        c.server_memory_bytes = 16 * 1024 * 1024;
        c.timing.stagger = SimDuration::from_secs(5);
        c.timing.warmup = SimDuration::from_secs(10);
        c.timing.measure = SimDuration::from_secs(30);
        c
    }

    #[test]
    fn replication_seeds_spread_across_the_full_seed_space() {
        // Regression: the capacity-search probe used to decorrelate with a
        // *truncated* 32-bit golden-ratio constant while the confidence
        // loop used the full 64-bit one, so the two replication schemes
        // produced unrelated (and in the probe's case, weakly spread)
        // seeds. The shared helper must use the full 64-bit constant.
        assert!(
            replication_seed(0, 0) > u32::MAX as u64,
            "seed {:#x} fits in 32 bits — truncated multiplier",
            replication_seed(0, 0)
        );
        // Distinct replications map to distinct seeds, none equal to the
        // base (a replication must never repeat the un-replicated run).
        let base = 0x5b1ff1;
        let seeds: Vec<u64> = (0..8).map(|r| replication_seed(base, r)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            assert_ne!(a, base);
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Wrapping, not panicking, at the top of the seed space.
        let _ = replication_seed(u64::MAX, u32::MAX);
    }

    #[test]
    fn thread_env_values_parse_or_error() {
        for unset in [None, Some(""), Some("  ")] {
            assert_eq!(parse_threads(unset), Ok(None), "{unset:?}");
        }
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some(" 8 ")), Ok(Some(8)));
        // Regression: `0` and garbage used to fall back silently to the
        // machine's parallelism. They must be rejected (the env reader
        // exits with a diagnostic).
        for bad in ["0", "abc", "-2", "1.5", "two", "99999999999999999999999"] {
            assert_eq!(parse_threads(Some(bad)), Err(bad.to_string()));
        }
    }

    #[test]
    fn only_the_threads_env_knob_is_accepted() {
        assert_eq!(ENV_KNOBS, ["SPIFFI_THREADS"]);
        assert_eq!(unknown_env_knob(ENV_KNOBS), None);
        assert_eq!(unknown_env_knob(["PATH", "HOME", "SPIFFI"]), None);
        // Retired knobs and typos under the prefix are named back.
        assert_eq!(
            unknown_env_knob(["SPIFFI_THREADS", "SPIFFI_RETIRED_KNOB"]),
            Some("SPIFFI_RETIRED_KNOB")
        );
        assert_eq!(unknown_env_knob(["SPIFFI_SNAPHOT"]), Some("SPIFFI_SNAPHOT"));
        assert_eq!(unknown_env_knob(["SPIFFI_threads"]), Some("SPIFFI_threads"));
        // The retired probe-timeline and event-kernel switches are
        // unknown now, so setting one fails loudly instead of being
        // silently ignored.
        for retired in ["SPIFFI_SNAPSHOT", "SPIFFI_CAL_KERNEL"] {
            assert_eq!(unknown_env_knob(["SPIFFI_THREADS", retired]), Some(retired));
        }
    }

    #[test]
    fn capacity_search_validation_rejects_malformed_input() {
        assert_eq!(CapacitySearch::default().validate(), Ok(()));
        let ok = CapacitySearch {
            lo: 10,
            hi: 10,
            step: 1,
            replications: 1,
        };
        assert_eq!(ok.validate(), Ok(()), "lo == hi is a legal bracket");
        for bad in [
            CapacitySearch {
                step: 0,
                ..ok.clone()
            },
            CapacitySearch {
                lo: 50,
                hi: 10,
                ..ok.clone()
            },
            CapacitySearch {
                replications: 0,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} passed validation");
        }
    }

    #[test]
    #[should_panic(expected = "invalid capacity search")]
    fn engine_refuses_a_malformed_search() {
        let search = CapacitySearch {
            replications: 0,
            ..CapacitySearch::default()
        };
        Engine::with_threads(1).max_glitch_free_terminals(&tiny(), &search);
    }

    #[test]
    fn round_to_grid_is_clamped_and_total() {
        // Ordinary rounding stays on the grid.
        assert_eq!(round_to_grid(12.4, 5), 10);
        assert_eq!(round_to_grid(12.6, 5), 15);
        assert_eq!(round_to_grid(40.0, 5), 40);
        // Regression: a sub-half-step mean used to round to 0 terminals,
        // an answer the search itself can never produce on-grid.
        assert_eq!(round_to_grid(1.0, 5), 5);
        assert_eq!(round_to_grid(2.4, 5), 5);
        assert_eq!(round_to_grid(0.0, 5), 5);
        // Regression: a huge mean used to saturate the `as u32` cast at
        // u32::MAX and then *wrap* in the `* grid` multiply. Saturate at
        // the largest grid-aligned count instead.
        assert_eq!(round_to_grid(1e20, 5), u32::MAX); // u32::MAX is a multiple of 5
        assert_eq!(round_to_grid(1e20, 4), u32::MAX - u32::MAX % 4);
        assert_eq!(round_to_grid(f64::INFINITY, 7), 7);
        // Non-finite and negative means collapse to the grid floor.
        assert_eq!(round_to_grid(f64::NAN, 5), 5);
        assert_eq!(round_to_grid(-3.0, 5), 5);
        // A zero grid is repaired, never a divide-by-zero.
        assert_eq!(round_to_grid(3.0, 0), 3);
    }

    #[test]
    fn run_once_is_deterministic() {
        let mut c = tiny();
        c.n_terminals = 4;
        let a = run_once(&c);
        let b = run_once(&c);
        assert_eq!(a.glitches, b.glitches);
        assert_eq!(a.blocks_delivered, b.blocks_delivered);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.videos_completed, b.videos_completed);
    }

    #[test]
    fn lightly_loaded_run_is_glitch_free() {
        let mut c = tiny();
        c.n_terminals = 2;
        let r = run_once(&c);
        assert!(
            r.glitch_free(),
            "2 terminals on a disk glitched: {}",
            r.summary()
        );
        assert!(r.blocks_delivered > 0, "no data flowed");
    }

    #[test]
    fn overloaded_run_glitches() {
        // One ST15150N sustains ~14 concurrent 4 Mbit/s streams at best;
        // 40 terminals must glitch.
        let mut c = tiny();
        c.n_terminals = 40;
        let r = run_once(&c);
        assert!(!r.glitch_free(), "40 terminals on one disk cannot be clean");
    }

    #[test]
    fn capacity_search_brackets_the_knee() {
        let c = tiny();
        let s = CapacitySearch {
            lo: 2,
            hi: 40,
            step: 2,
            replications: 1,
        };
        let r = max_glitch_free_terminals(&c, &s);
        // A single drive at ~85 ms per 512 KB random read supports roughly
        // 10-14 streams; the search must land in a plausible band.
        assert!(
            (4..=20).contains(&r.max_terminals),
            "implausible capacity {} (probes {:?})",
            r.max_terminals,
            r.probes
        );
        // Monotonicity of the probe outcomes around the answer.
        for &(n, g) in &r.probes {
            if n <= r.max_terminals {
                assert_eq!(g, 0, "probe at {n} glitched below the answer");
            }
        }
        assert!(r.events_processed > 0);
    }

    #[test]
    fn search_handles_infeasible_lower_bracket() {
        let c = tiny();
        let s = CapacitySearch {
            lo: 38,
            hi: 40,
            step: 2,
            replications: 1,
        };
        let r = max_glitch_free_terminals(&c, &s);
        assert!(r.max_terminals < 38);
    }

    #[test]
    fn search_handles_feasible_upper_bracket() {
        let c = tiny();
        let s = CapacitySearch {
            lo: 1,
            hi: 3,
            step: 1,
            replications: 1,
        };
        let r = max_glitch_free_terminals(&c, &s);
        assert_eq!(r.max_terminals, 3, "upper bracket was feasible");
    }

    #[test]
    fn engine_run_matches_run_once_and_caches() {
        let mut c = tiny();
        c.n_terminals = 3;
        let engine = Engine::with_threads(2);
        let a = engine.run(&c);
        let b = engine.run(&c);
        assert_eq!(a, b);
        assert_eq!(a, run_once(&c));
        assert_eq!(engine.cache().misses(), 1, "second run must hit the cache");
    }

    #[test]
    fn search_reports_capacity_below_bracket() {
        // One disk cannot feed 30 terminals, and with a 30-wide grid the
        // walk-down has nowhere to go: the search must say so explicitly
        // rather than hand back an indistinguishable 0.
        let c = tiny();
        let s = CapacitySearch {
            lo: 30,
            hi: 60,
            step: 30,
            replications: 1,
        };
        let r = max_glitch_free_terminals(&c, &s);
        assert_eq!(r.max_terminals, 0);
        assert!(r.below_bracket, "walk-down exhausted the grid");
        assert_eq!(r.probes.len(), 1, "only the grid floor is probeable");
        assert_eq!(r.probes[0].0, 30);
        assert!(r.probes[0].1 > 0);

        // A search that finds a feasible count must not raise the flag.
        let ok = max_glitch_free_terminals(
            &c,
            &CapacitySearch {
                lo: 2,
                hi: 40,
                step: 2,
                replications: 1,
            },
        );
        assert!(!ok.below_bracket);
        assert!(ok.max_terminals > 0);
    }

    #[test]
    fn degenerate_bracket_probes_twice_like_the_legacy_loop() {
        // lo == hi after gridding: the legacy loop probed the count once
        // as the lower bracket and once as the upper, logging two probes
        // and counting the events twice. The cursor replays that shape
        // (the cache makes the second probe free, but the log and the
        // counted totals must not change).
        let c = tiny();
        let s = CapacitySearch {
            lo: 2,
            hi: 2,
            step: 2,
            replications: 1,
        };
        let r = max_glitch_free_terminals(&c, &s);
        assert_eq!(r.max_terminals, 2);
        assert_eq!(r.probes.len(), 2, "bracket confirmation probes both ends");
        assert_eq!(r.probes[0], r.probes[1]);
        assert_eq!(r.events_processed % 2, 0);
    }

    #[test]
    fn repeated_search_is_served_from_the_probe_cache() {
        let c = tiny();
        let s = CapacitySearch {
            lo: 2,
            hi: 40,
            step: 2,
            replications: 2,
        };
        let engine = Engine::with_threads(1);
        let cold = engine.max_glitch_free_terminals(&c, &s);
        let cached_pairs = engine.probe_cache().len();
        assert!(cached_pairs > 0, "clean outcomes must be cached");
        let warm = engine.max_glitch_free_terminals(&c, &s);
        assert_eq!(cold.max_terminals, warm.max_terminals);
        assert_eq!(cold.probes, warm.probes);
        assert_eq!(cold.events_processed, warm.events_processed);
        assert_eq!(warm.speculative_events, 0);
        assert_eq!(
            engine.probe_cache().len(),
            cached_pairs,
            "a warm search must not simulate (and cache) new pairs"
        );
    }

    /// `rt_scaleup_x4`'s search shape: bracket 200..1300 on a 10 grid,
    /// one replication. Its first midpoint is 750, whose glitch branch
    /// bisects at 470 and whose clean branch at 1020; 1020's glitch
    /// branch bisects at 880.
    fn scaleup_search() -> CapacitySearch {
        CapacitySearch {
            lo: 200,
            hi: 1300,
            step: 10,
            replications: 1,
        }
    }

    /// Record a clean (`glitches == 0`) or glitching outcome for
    /// replication 0 of `n`, as a finished worker would.
    fn resolve(st: &mut SpecState, n: u32, glitches: u64) {
        st.outcomes.insert(
            (n, 0),
            ProbeOutcome {
                glitches,
                events: 1,
            },
        );
    }

    /// Dispatch the next task as a worker would, returning its count.
    fn dispatch(spec: &SpecSearch, st: &mut SpecState) -> (u32, Arc<CountFlags>) {
        let (n, r, flags) = spec.pick_task(st).expect("a task to dispatch");
        st.running.insert((n, r));
        (n, flags)
    }

    #[test]
    fn spare_worker_speculates_the_clean_branch_first() {
        let (engine, cfg) = (Engine::with_threads(2), tiny());
        let fp = ProbeCache::fingerprint(&cfg);
        let spec = SpecSearch::new(&engine, &cfg, &scaleup_search(), &fp);
        let mut st = spec.state.lock().unwrap();
        // While the lower bracket runs, the spare worker takes the upper
        // bracket (its clean branch), not the walk-down to 190.
        assert_eq!(dispatch(&spec, &mut st).0, 200);
        assert_eq!(dispatch(&spec, &mut st).0, 1300);
        resolve(&mut st, 200, 0);
        resolve(&mut st, 1300, 7);
        st.running.clear();
        spec.drive(&mut st);
        assert_eq!(st.cursor.pending(), Some(750));

        // With 750 running, the spare worker runs 1020, not 470.
        assert_eq!(dispatch(&spec, &mut st).0, 750);
        assert_eq!(dispatch(&spec, &mut st).0, 1020);
        // Once 1020 is known to glitch, 880 sits behind one open
        // assumption (750 clean), the same as 470, and its branch comes
        // first.
        st.running.remove(&(1020, 0));
        resolve(&mut st, 1020, 3);
        assert_eq!(dispatch(&spec, &mut st).0, 880);
        assert_eq!(dispatch(&spec, &mut st).0, 470);
    }

    #[test]
    fn reachable_counts_drop_the_branch_the_search_left() {
        let mut cursor = SearchCursor::new(&scaleup_search());
        cursor.advance(0); // 200 clean
        cursor.advance(1); // 1300 glitches
        assert_eq!(cursor.pending(), Some(750));
        let before = cursor.reachable_counts(SpecSearch::MAX_FRONTIER).unwrap();
        assert!(before.contains(&470) && before.contains(&1020));
        assert!(before.iter().all(|&n| n > 200 && n < 1300));

        cursor.advance(0); // 750 clean
        let after = cursor.reachable_counts(SpecSearch::MAX_FRONTIER).unwrap();
        assert!(after.contains(&1020) && after.contains(&880));
        assert!(
            after.iter().all(|&n| n > 750 && n < 1300),
            "470's subtree survived: {after:?}"
        );
        assert!(after.is_subset(&before));
        // A truncated walk reports nothing rather than a partial set.
        assert_eq!(cursor.reachable_counts(3), None);
    }

    #[test]
    fn counts_the_search_leaves_behind_are_abandoned() {
        let (engine, cfg) = (Engine::with_threads(2), tiny());
        let fp = ProbeCache::fingerprint(&cfg);
        let spec = SpecSearch::new(&engine, &cfg, &scaleup_search(), &fp);
        let mut st = spec.state.lock().unwrap();
        resolve(&mut st, 200, 0);
        resolve(&mut st, 1300, 7);
        spec.drive(&mut st);
        let (_, f750) = dispatch(&spec, &mut st);
        let (n, f1020) = dispatch(&spec, &mut st);
        assert_eq!(n, 1020);
        let (n, f470) = dispatch(&spec, &mut st);
        assert_eq!(n, 470);
        assert!(!f470.abandon.load(Ordering::Relaxed));

        // 750 comes out clean: 470 can no longer be reached, 1020 can.
        st.running.remove(&(750, 0));
        resolve(&mut st, 750, 0);
        spec.drive(&mut st);
        assert_eq!(st.cursor.pending(), Some(1020));
        assert!(f470.abandon.load(Ordering::Relaxed), "470 kept running");
        assert!(!f1020.abandon.load(Ordering::Relaxed));
        assert!(f750.abandon.load(Ordering::Relaxed));

        // The answer raises every flag still held.
        for (n, g) in [
            (1020, 0),
            (1160, 1),
            (1090, 1),
            (1050, 0),
            (1070, 0),
            (1080, 1),
        ] {
            resolve(&mut st, n, g);
        }
        spec.drive(&mut st);
        assert!(st.done);
        assert!(f1020.abandon.load(Ordering::Relaxed));
        assert!(st.cancels.is_empty());
    }

    #[test]
    fn nothing_is_abandoned_while_the_futures_are_too_many_to_walk() {
        // A 100 000-point grid: the cursor past its lower bracket still
        // reaches far more counts than the walk may enumerate.
        let search = CapacitySearch {
            lo: 1,
            hi: 100_000,
            step: 1,
            replications: 1,
        };
        let (engine, cfg) = (Engine::with_threads(2), tiny());
        let fp = ProbeCache::fingerprint(&cfg);
        let spec = SpecSearch::new(&engine, &cfg, &search, &fp);
        let mut st = spec.state.lock().unwrap();
        let (n, f1) = dispatch(&spec, &mut st);
        assert_eq!(n, 1);
        resolve(&mut st, 1, 0);
        spec.drive(&mut st);
        assert_eq!(st.cursor.pending(), Some(100_000));
        assert_eq!(st.cursor.reachable_counts(SpecSearch::MAX_FRONTIER), None);
        assert!(
            !f1.abandon.load(Ordering::Relaxed),
            "a truncated walk must abandon nothing"
        );
    }
}

/// The paper's §7.1 stopping rule: "we ran each experiment until we were
/// 90% confident that the results were within 5% (about 10 terminals) of
/// the actual maximum number of terminals."
///
/// Runs [`max_glitch_free_terminals`] once per seed, accumulating the
/// per-seed capacity estimates, until the confidence interval on their
/// mean shrinks inside `tolerance` (or `max_replications` is reached).
#[derive(Clone, Debug)]
pub struct ConfidentCapacity {
    /// Per-probe search parameters (replications inside each search should
    /// be 1; the outer loop provides replication).
    pub search: CapacitySearch,
    /// Confidence level (the paper uses 90%).
    pub confidence: spiffi_simcore::stats::Confidence,
    /// Relative half-width target (the paper uses 5%).
    pub tolerance: f64,
    /// Lower bound on replications before the rule may stop.
    pub min_replications: u32,
    /// Upper bound on replications.
    pub max_replications: u32,
}

impl Default for ConfidentCapacity {
    fn default() -> Self {
        ConfidentCapacity {
            search: CapacitySearch {
                replications: 1,
                ..CapacitySearch::default()
            },
            confidence: spiffi_simcore::stats::Confidence::P90,
            tolerance: 0.05,
            min_replications: 3,
            max_replications: 10,
        }
    }
}

/// Result of a confidence-replicated capacity estimate.
#[derive(Clone, Debug)]
pub struct ConfidentCapacityResult {
    /// Mean capacity across replications, rounded to the search grid.
    pub max_terminals: u32,
    /// Per-replication capacity estimates.
    pub estimates: Vec<u32>,
    /// Half-width of the confidence interval at the configured level.
    pub ci_half_width: f64,
    /// True if the tolerance was met before `max_replications`.
    pub converged: bool,
}

/// Estimate capacity with the paper's replication-until-confident rule —
/// a convenience wrapper over [`Engine::capacity_with_confidence`] with
/// the ambient thread budget.
pub fn capacity_with_confidence(
    cfg: &SystemConfig,
    params: &ConfidentCapacity,
) -> ConfidentCapacityResult {
    Engine::new().capacity_with_confidence(cfg, params)
}

#[cfg(test)]
mod confidence_tests {
    use super::*;
    use spiffi_simcore::SimDuration;

    fn tiny() -> SystemConfig {
        let mut c = SystemConfig::small_test();
        c.topology = spiffi_layout::Topology {
            nodes: 1,
            disks_per_node: 1,
        };
        c.n_videos = 40;
        c.access = spiffi_mpeg::AccessPattern::Uniform;
        c.video.duration = SimDuration::from_secs(60);
        c.server_memory_bytes = 16 * 1024 * 1024;
        c.timing.stagger = SimDuration::from_secs(5);
        c.timing.warmup = SimDuration::from_secs(10);
        c.timing.measure = SimDuration::from_secs(30);
        c
    }

    #[test]
    fn confident_capacity_replicates_and_converges() {
        let params = ConfidentCapacity {
            search: CapacitySearch {
                lo: 2,
                hi: 40,
                step: 2,
                replications: 1,
            },
            min_replications: 3,
            max_replications: 6,
            ..ConfidentCapacity::default()
        };
        let r = capacity_with_confidence(&tiny(), &params);
        assert!(r.estimates.len() >= 3);
        assert!(r.estimates.len() <= 6);
        assert!((4..=24).contains(&r.max_terminals), "capacity {r:?}");
        // The answer lies on the step grid.
        assert_eq!(r.max_terminals % 2, 0);
        // Per-seed estimates bracket the reported mean.
        let min = *r.estimates.iter().min().unwrap();
        let max = *r.estimates.iter().max().unwrap();
        assert!(min <= r.max_terminals && r.max_terminals <= max + 2);
        if r.converged {
            assert!(r.ci_half_width <= 0.05 * r.max_terminals as f64 + 1e-9);
        }
    }
}
