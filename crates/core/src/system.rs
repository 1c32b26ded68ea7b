//! The assembled SPIFFI video-on-demand system: one event loop driving
//! terminals, the network, node CPUs, buffer pools, prefetchers, disk
//! schedulers and disks.
//!
//! The request pipeline (§5.2):
//!
//! ```text
//! terminal ──wire──▶ node CPU (recv 2200i) ──▶ buffer pool lookup
//!    ▲                                         │ hit: reply
//!    │                                         │ in-flight: attach waiter
//!    │                                         ▼ miss: allocate frame
//!    │                          node CPU (start-I/O 20000i)
//!    │                                         ▼
//!    │                         disk scheduler ──▶ disk mechanics
//!    │                                         ▼ completion
//!    └──wire◀── node CPU (send 6800i) ◀── waiters drained
//! ```
//!
//! Every real reference also enqueues a prefetch for the next stripe block
//! on the same disk; prefetch processes pull from the per-disk prefetch
//! queue subject to the configured strategy (standard / real-time /
//! delayed).

use spiffi_bufferpool::{LookupResult, PoolStats};
use spiffi_layout::{BlockAddr, Layout, Placement};
use spiffi_mpeg::{Library, TitleSelector, VideoId};
use spiffi_net::Network;
use spiffi_prefetch::{IssueDecision, PrefetchRequest, PrefetchStats};
use spiffi_sched::{DiskRequest, RequestId, StreamId};
use spiffi_simcore::dist::{uniform_time, Exponential};
use spiffi_simcore::stats::Histogram;
use spiffi_simcore::{Calendar, SimRng, SimTime};
use spiffi_trace::{
    CpuJobKind, DiskIoDone, DiskIoStart, FaultEvent, NetMsgKind, NetSend, NoopProbe, PoolEvent,
    Probe, TerminalEvent,
};

use crate::config::{RunTiming, SystemConfig};
use crate::metrics::RunReport;
use crate::node::{decode_waiter, waiter_token, CpuJob, IoCtx, Node, PendingRead};
use crate::piggyback::{Piggyback, StartDecision};
use crate::terminal::Terminal;

/// A skip-based visual search (§8.1): show `show` of video, skip over
/// `skip`, repeat.
#[derive(Clone, Copy, Debug)]
pub struct VisualSearch {
    /// Length of each shown window (the paper suggests "one or two
    /// seconds").
    pub show: spiffi_simcore::SimDuration,
    /// Content skipped between windows ("out of every several seconds").
    pub skip: spiffi_simcore::SimDuration,
    /// True for fast-forward, false for rewind.
    pub forward: bool,
}

#[derive(Clone, Copy, Debug)]
struct SearchState {
    session: u64,
    search: VisualSearch,
    end_at: SimTime,
    started: bool,
}

/// One entry of the fault-scenario action table. The table is a pure
/// function of `cfg.scenario` — a degrade window expands to a set/restore
/// pair — so clones share it by value; pending [`Event::FaultFire`] events
/// index into it.
#[derive(Clone, Copy, Debug)]
enum FaultAction {
    /// Permanently fail a disk and re-dispatch its queue to a sibling.
    KillDisk { node: u32, disk: u32 },
    /// Scale a disk's mechanical latencies to `pct`% of nominal.
    SetLatencyScale { node: u32, disk: u32, pct: u32 },
    /// Every `every`-th terminal abandons its current title.
    Abandon { every: u32 },
}

/// The firing schedule `cfg.scenario` expands to, in declaration order:
/// a disk death or abandon burst is one action; a degrade window is a
/// set-scale action at its start and a restore-to-100% action at its end.
fn fault_schedule_of(cfg: &SystemConfig) -> Vec<(spiffi_simcore::SimDuration, FaultAction)> {
    use crate::scenario::FaultSpec;
    let mut out = Vec::new();
    let Some(scenario) = &cfg.scenario else {
        return out;
    };
    for fault in &scenario.faults {
        match *fault {
            FaultSpec::DiskDeath { node, disk, at } => {
                out.push((at, FaultAction::KillDisk { node, disk }));
            }
            FaultSpec::DiskDegrade {
                node,
                disk,
                at,
                dur,
                factor_pct,
            } => {
                out.push((
                    at,
                    FaultAction::SetLatencyScale {
                        node,
                        disk,
                        pct: factor_pct,
                    },
                ));
                // The restore may land past run end; it then simply
                // never pops.
                out.push((
                    at + dur,
                    FaultAction::SetLatencyScale {
                        node,
                        disk,
                        pct: 100,
                    },
                ));
            }
            FaultSpec::AbandonBurst { at, every } => {
                out.push((at, FaultAction::Abandon { every }));
            }
        }
    }
    out
}

/// The action table pending [`Event::FaultFire`] events index into.
fn fault_actions_of(cfg: &SystemConfig) -> Vec<FaultAction> {
    fault_schedule_of(cfg).into_iter().map(|(_, a)| a).collect()
}

/// Size of a read-request message on the wire.
pub const REQUEST_MSG_BYTES: u64 = 128;
/// Header overhead of a data reply on the wire.
pub const REPLY_HEADER_BYTES: u64 = 128;

/// Simulation events.
///
/// The enum is kept at 24 bytes (checked by a compile-time assertion
/// below): millions of these sit in the calendar's buckets at scale, so
/// every field earns its place. `RequestArrive` carries no target node —
/// the node is a pure function of the block's layout placement and is
/// recomputed at dispatch — and epochs travel as the `u16` the terminal
/// stores (see [`Terminal::epoch`]).
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A terminal comes online and selects its first title.
    StartTerminal(u32),
    /// Scheduled wake for a terminal; stale if `gen` no longer matches.
    Wake {
        /// Terminal index.
        term: u32,
        /// Generation at scheduling time.
        gen: u64,
    },
    /// A read request reached its target node (the node owning `block`
    /// per the layout).
    RequestArrive {
        /// Requesting terminal.
        term: u32,
        /// Terminal epoch.
        epoch: u16,
        /// Requested block.
        block: BlockAddr,
        /// Deadline assigned by the terminal.
        deadline: SimTime,
    },
    /// A data reply reached its terminal.
    ReplyArrive {
        /// Destination terminal.
        term: u32,
        /// Epoch echoed from the request.
        epoch: u16,
        /// Delivered block.
        block: BlockAddr,
    },
    /// A node CPU finished its current job.
    CpuDone {
        /// The node.
        node: u32,
    },
    /// A disk finished its current transfer.
    DiskDone {
        /// The node.
        node: u32,
        /// Node-local disk index.
        disk: u32,
    },
    /// A delayed prefetch became issuable; stale if `gen` mismatches.
    PrefetchRelease {
        /// The node.
        node: u32,
        /// Node-local disk index.
        disk: u32,
        /// Release-timer generation.
        gen: u64,
    },
    /// A piggyback batch for this title fires.
    PiggybackFire {
        /// The batched title.
        video: VideoId,
    },
    /// End of warm-up: begin collecting statistics.
    BeginMeasure,
    /// A subscriber pressed fast-forward/rewind: jump the terminal to a
    /// new position in its current title (§8.1).
    UserSeek {
        /// The terminal.
        term: u32,
        /// Target frame.
        frame: u64,
    },
    /// One step of a skip-based visual search (§8.1): play a short window,
    /// then jump.
    SearchStep {
        /// The terminal.
        term: u32,
        /// Search-session id; stale steps are dropped.
        session: u64,
    },
    /// Switch a terminal onto its title's §8.1 search version.
    SmoothSearchBegin {
        /// The terminal.
        term: u32,
        /// True for fast-forward.
        forward: bool,
        /// When to switch back to the normal version.
        end_at: SimTime,
    },
    /// Switch a terminal back from a search version to the normal title.
    SmoothSearchEnd {
        /// The terminal.
        term: u32,
    },
    /// Execute action `idx` of the fault-scenario action table (built
    /// deterministically from `cfg.scenario`, so the index alone
    /// identifies the perturbation in a cloned system too).
    FaultFire(u32),
}

/// Base of the per-terminal RNG stream ids: terminal `t` draws from stream
/// `TERMINAL_STREAM_BASE + t`. Chosen far above every other stream id in
/// use (layout `0x1a70`, per-disk `(node << 16) | disk`) so terminal
/// streams can never collide with component streams.
const TERMINAL_STREAM_BASE: u64 = 0x7e20_0000_0000;

/// The hot-state compaction contract: an [`Event`] stays within 24 bytes
/// so calendar buckets hold three per cacheline. Growing a variant past
/// this is a deliberate decision, not an accident — this assertion makes
/// it one.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// Stable variant name of an event, for [`Probe::sim_event`] tallies.
fn event_kind(ev: &Event) -> &'static str {
    match ev {
        Event::StartTerminal(_) => "StartTerminal",
        Event::Wake { .. } => "Wake",
        Event::RequestArrive { .. } => "RequestArrive",
        Event::ReplyArrive { .. } => "ReplyArrive",
        Event::CpuDone { .. } => "CpuDone",
        Event::DiskDone { .. } => "DiskDone",
        Event::PrefetchRelease { .. } => "PrefetchRelease",
        Event::PiggybackFire { .. } => "PiggybackFire",
        Event::BeginMeasure => "BeginMeasure",
        Event::UserSeek { .. } => "UserSeek",
        Event::SearchStep { .. } => "SearchStep",
        Event::SmoothSearchBegin { .. } => "SmoothSearchBegin",
        Event::SmoothSearchEnd { .. } => "SmoothSearchEnd",
        Event::FaultFire(_) => "FaultFire",
    }
}

/// The [`VodSystem::replay_to_snapshot`] boundary `warmup - stagger`: the
/// instant the last stagger-width window before measurement opens,
/// clamped to time zero. [`SystemConfig::validate`] rejects
/// `stagger > warmup`, but the boundary itself must degrade to time zero
/// rather than underflow if that guard is ever bypassed — the same
/// graceful degradation `stagger == 0` gets.
fn late_join_open(timing: &RunTiming) -> SimTime {
    SimTime::ZERO + timing.warmup.saturating_sub(timing.stagger)
}

/// Probe-facing classification of a CPU job.
fn cpu_job_kind(job: &CpuJob) -> CpuJobKind {
    match job {
        CpuJob::RecvRequest { .. } => CpuJobKind::RecvRequest,
        CpuJob::StartIo { .. } => CpuJobKind::StartIo,
        CpuJob::SendReply { .. } => CpuJobKind::SendReply,
    }
}

/// The assembled system. Build with [`VodSystem::new`], run to completion
/// with [`VodSystem::run`].
///
/// The system is generic over an observation [`Probe`]. The default
/// [`NoopProbe`] disables every instrumentation site at compile time —
/// `VodSystem` with no type argument is exactly the untraced system — while
/// [`VodSystem::with_probe`] builds a traced instance whose probe receives
/// disk, CPU, network, buffer-pool, and terminal telemetry as the run
/// unfolds. Probes are observation-only and cannot perturb the simulation;
/// a traced run produces a [`RunReport`] bit-identical to an untraced one.
///
/// `Clone` (for probes that are themselves `Clone`, which includes the
/// default [`NoopProbe`]) deep-copies the entire simulation state — the
/// event calendar, every node's disk queues and buffer pool, the terminal
/// vector, the piggyback manager and all RNG streams — except the video
/// library, which is immutable and stays shared behind its `Arc`. A clone
/// and its original evolve independently and deterministically: running
/// both produces equal reports.
#[derive(Clone)]
pub struct VodSystem<P: Probe = NoopProbe> {
    cfg: SystemConfig,
    cal: Calendar<Event>,
    library: std::sync::Arc<Library>,
    layout: Layout,
    selector: TitleSelector,
    net: Network,
    nodes: Vec<Node>,
    terminals: Vec<Terminal>,
    /// One independent RNG stream per terminal index (stream id
    /// `TERMINAL_STREAM_BASE + t`). A terminal's join instant, title
    /// choices, initial positions and pause plans are drawn exclusively
    /// from its own stream, so adding terminal `n+1` never perturbs the
    /// draws — and therefore the event history — of terminals `0..=n`.
    term_rngs: Vec<SimRng>,
    piggyback: Option<Piggyback>,
    /// Active skip-based visual searches, by terminal.
    searches: std::collections::HashMap<u32, SearchState>,
    search_sessions: u64,
    measuring: bool,
    next_req_id: u64,
    // --- measurement-window counters ---
    glitches_measured: u64,
    glitching_terminals: crate::bitset::TermBitset,
    blocks_delivered: u64,
    events_processed: u64,
    /// Disk I/O latency (scheduler queueing + service), seconds; 5 ms bins
    /// to 2 s.
    io_latency: Histogram,
    /// Demand I/Os completing after their deadline.
    deadline_misses: u64,
    /// Fault-scenario action table (see [`FaultAction`]); config-derived.
    fault_actions: Vec<FaultAction>,
    /// Fault actions executed so far (a clone must agree with its
    /// original on which faults already fired).
    faults_fired: u64,
    // --- recycled event-loop buffers (allocation-free steady state) ---
    /// Request buffer handed to [`Terminal::pump_reusing`] each wake.
    pump_scratch: Vec<u32>,
    /// Waiter buffer handed to `BufferPool::complete_io_into` each I/O.
    waiter_scratch: Vec<u64>,
    /// Observation probe; [`NoopProbe`] by default, compiled out entirely.
    probe: P,
}

impl VodSystem {
    /// Build the system described by `cfg`.
    ///
    /// # Panics
    /// If the configuration fails [`SystemConfig::validate`].
    pub fn new(cfg: SystemConfig) -> Self {
        let library = Self::generate_library(&cfg);
        Self::with_library(cfg, library)
    }

    /// The video library [`VodSystem::new`] would generate for `cfg`.
    ///
    /// Generation draws an exponential frame-size sample per frame of every
    /// title, which dominates construction cost. The library depends only
    /// on `cfg.seed`, `cfg.n_videos`, `cfg.video`, `cfg.search_speedup`,
    /// and a scenario's bitrate mix — callers running many simulations
    /// that agree on those fields (a capacity search at one replication
    /// seed, a scheduler comparison) should generate once and hand clones
    /// to [`VodSystem::with_library`].
    pub fn generate_library(cfg: &SystemConfig) -> Library {
        let seed = cfg.seed ^ 0x11b;
        let base = cfg.video;
        let mix = cfg.scenario.as_ref().and_then(|s| s.mix);
        let params_of = move |i: u32| match mix {
            Some(m) if m.applies_to(i) => spiffi_mpeg::VideoParams {
                bit_rate_bps: m.bit_rate_bps,
                ..base
            },
            _ => base,
        };
        match cfg.search_speedup {
            None => Library::generate_each(cfg.n_videos, seed, params_of),
            Some(speedup) => {
                Library::generate_each_with_search_versions(cfg.n_videos, seed, speedup, params_of)
            }
        }
    }

    /// Build the system described by `cfg` around a pre-generated
    /// `library`. Behaviour is bit-identical to [`VodSystem::new`] when
    /// `library` equals [`VodSystem::generate_library`]`(&cfg)`; passing
    /// any other library is a logic error (the layout and workload would
    /// disagree with the seed-derived titles).
    ///
    /// Accepts a bare [`Library`] or an `Arc<Library>` — the experiment
    /// engine shares one generated library across many concurrent runs via
    /// [`LibraryCache`](crate::cache::LibraryCache), so the system stores
    /// an [`Arc`](std::sync::Arc) and never clones title data.
    ///
    /// # Panics
    /// If the configuration fails [`SystemConfig::validate`].
    pub fn with_library(cfg: SystemConfig, library: impl Into<std::sync::Arc<Library>>) -> Self {
        Self::with_probe(cfg, library, NoopProbe)
    }
}

impl<P: Probe> VodSystem<P> {
    /// Build a traced system: [`VodSystem::with_library`] plus an
    /// observation `probe` that will receive telemetry callbacks as the
    /// run unfolds. Retrieve the probe (with everything it recorded) from
    /// [`VodSystem::run_traced`].
    ///
    /// # Panics
    /// If the configuration fails [`SystemConfig::validate`].
    pub fn with_probe(
        cfg: SystemConfig,
        library: impl Into<std::sync::Arc<Library>>,
        probe: P,
    ) -> Self {
        Self::build(cfg, library.into(), probe)
    }

    /// Swap this system's probe for `probe`, moving every other field
    /// unchanged. Observation-only by construction: the simulation state
    /// is untouched, so the run ahead is bit-identical to running under
    /// the old probe. This is how a caller attaches a probe to a system it
    /// built or cloned under the default [`NoopProbe`].
    pub fn attach_probe<Q: Probe>(self, probe: Q) -> VodSystem<Q> {
        VodSystem {
            cfg: self.cfg,
            cal: self.cal,
            library: self.library,
            layout: self.layout,
            selector: self.selector,
            net: self.net,
            nodes: self.nodes,
            terminals: self.terminals,
            term_rngs: self.term_rngs,
            piggyback: self.piggyback,
            searches: self.searches,
            search_sessions: self.search_sessions,
            measuring: self.measuring,
            next_req_id: self.next_req_id,
            glitches_measured: self.glitches_measured,
            glitching_terminals: self.glitching_terminals,
            blocks_delivered: self.blocks_delivered,
            events_processed: self.events_processed,
            io_latency: self.io_latency,
            deadline_misses: self.deadline_misses,
            fault_actions: self.fault_actions,
            faults_fired: self.faults_fired,
            pump_scratch: self.pump_scratch,
            waiter_scratch: self.waiter_scratch,
            probe,
        }
    }

    /// Shared constructor: every terminal joins in `[0, stagger)`.
    fn build(cfg: SystemConfig, library: std::sync::Arc<Library>, probe: P) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid configuration: {e}");
        }
        let layout = match cfg.placement {
            Placement::Striped => Layout::striped(cfg.topology, cfg.stripe_bytes, &library),
            Placement::NonStriped => {
                let mut rng = SimRng::stream(cfg.seed, 0x1a70);
                Layout::non_striped(cfg.topology, cfg.stripe_bytes, &library, &mut rng)
            }
            Placement::StripeGroup { width } => {
                Layout::stripe_group(cfg.topology, cfg.stripe_bytes, &library, width)
            }
        };
        let disk_params = cfg.disk.with_capacity_for(layout.max_disk_used_bytes());
        // Steady-state I/Os in flight per disk track the terminals served
        // per disk (each keeps a handful of demand + prefetch reads
        // queued); pre-size the per-disk maps so the hot path never
        // rehashes.
        let inflight_hint = (4 * cfg.n_terminals as usize)
            .div_ceil(cfg.topology.total_disks().max(1) as usize)
            .clamp(16, 4096);
        let nodes = (0..cfg.topology.nodes)
            .map(|n| {
                Node::new(
                    n,
                    cfg.topology.disks_per_node,
                    cfg.frames_per_node(),
                    cfg.policy,
                    cfg.cpu,
                    disk_params,
                    cfg.scheduler,
                    cfg.prefetch,
                    cfg.seed ^ 0xd15c,
                    inflight_hint,
                )
            })
            .collect();
        let terminals = (0..cfg.n_terminals)
            .map(|t| Terminal::new(t, cfg.terminal_memory_bytes))
            .collect();
        let selector = TitleSelector::new(cfg.access, cfg.n_videos);

        // Steady state holds a few pending events per terminal (wake,
        // in-flight I/O, prefetch); pre-size the calendar to skip its
        // early growth reallocations.
        let mut cal = Calendar::with_capacity(8 * cfg.n_terminals as usize);
        // Staggered starts (§6): "the terminals start movies at random
        // intervals." Each terminal's join instant is the first draw of
        // its own RNG stream, so the set of other terminals never shifts
        // it.
        let mut term_rngs: Vec<SimRng> = (0..cfg.n_terminals)
            .map(|t| SimRng::stream(cfg.seed, TERMINAL_STREAM_BASE + t as u64))
            .collect();
        for (t, rng) in term_rngs.iter_mut().enumerate() {
            let at = uniform_time(rng, SimTime::ZERO, SimTime::ZERO + cfg.timing.stagger);
            cal.schedule_at(at, Event::StartTerminal(t as u32));
        }
        cal.schedule_at(SimTime::ZERO + cfg.timing.warmup, Event::BeginMeasure);

        // Fault perturbations fire as ordinary calendar events, so they
        // interleave with the workload in deterministic event order at
        // any thread count, and pending firings are carried by the
        // calendar into every clone.
        let fault_actions = fault_actions_of(&cfg);
        for (idx, (at, _)) in fault_schedule_of(&cfg).iter().enumerate() {
            cal.schedule_at(SimTime::ZERO + *at, Event::FaultFire(idx as u32));
        }

        let piggyback = cfg.piggyback_delay.map(Piggyback::new);

        let glitching_terminals = crate::bitset::TermBitset::with_capacity(cfg.n_terminals);
        // A pump can request at most one terminal buffer's worth of
        // blocks; size the scratch so the first pump already fits.
        let pump_cap = (cfg.terminal_memory_bytes / cfg.stripe_bytes.max(1) + 1) as usize;

        VodSystem {
            cfg,
            cal,
            library,
            layout,
            selector,
            net: Network::default(),
            nodes,
            terminals,
            term_rngs,
            piggyback,
            searches: std::collections::HashMap::new(),
            search_sessions: 0,
            measuring: false,
            next_req_id: 0,
            glitches_measured: 0,
            glitching_terminals,
            blocks_delivered: 0,
            events_processed: 0,
            io_latency: Histogram::new(0.005, 400),
            deadline_misses: 0,
            fault_actions,
            faults_fired: 0,
            pump_scratch: Vec::with_capacity(pump_cap),
            waiter_scratch: Vec::with_capacity(16),
            probe,
        }
    }

    /// Run until `warmup + measure` and return the measured report.
    pub fn run(self) -> RunReport {
        self.run_traced().0
    }

    /// [`VodSystem::run`], additionally returning the probe with whatever
    /// it recorded. The report is bit-identical to an untraced run's.
    pub fn run_traced(mut self) -> (RunReport, P) {
        let end = SimTime::ZERO + self.cfg.timing.total();
        while let Some((_, ev)) = self.cal.pop_until(end) {
            self.events_processed += 1;
            self.dispatch(ev);
        }
        self.cal.advance_to(end);
        if P::ENABLED {
            self.probe.run_end(end);
        }
        let report = self.collect_report(end);
        (report, self.probe)
    }

    /// Run as one replication of a capacity-search probe.
    ///
    /// A probe only needs the zero/non-zero glitch outcome, so the event
    /// loop stops at the first glitch that lands in the measurement window
    /// — a decision made purely in simulation order, so the truncated
    /// report is exactly as deterministic as a full [`VodSystem::run`],
    /// and a glitch-free replication returns a report bit-identical to
    /// `run()`'s.
    ///
    /// `cancel` coordinates replications of the *same* probe: a glitching
    /// replication publishes its index with `fetch_min`, and a replication
    /// abandons its run (returning a truncated report) only when a
    /// **lower** index has glitched. Replications at or below the lowest
    /// glitching index are therefore never interfered with, which is what
    /// keeps the probe's observable outcome — the reports up to and
    /// including that index — byte-identical at any thread count. Reports
    /// of higher-indexed, cancelled replications are wall-clock-dependent
    /// and must not feed into results.
    pub fn run_glitch_probe(self, cancel: &std::sync::atomic::AtomicU32, index: u32) -> RunReport {
        let abort = std::sync::atomic::AtomicBool::new(false);
        self.run_glitch_probe_abortable(cancel, index, &abort).0
    }

    /// [`VodSystem::run_glitch_probe`] with an additional search-wide abort
    /// flag, for speculative probes whose outcome the capacity search may
    /// stop needing altogether (the search answered while this count was
    /// still hypothetical).
    ///
    /// Returns `(report, clean)`. `clean` is true iff the run completed
    /// *deterministically* — it reached its own first measured glitch or
    /// the end of the measurement window without being truncated by the
    /// cancel flag or the abort flag. Only clean outcomes may be cached or
    /// counted: a truncated report reflects wall-clock scheduling, not the
    /// simulation.
    pub fn run_glitch_probe_abortable(
        self,
        cancel: &std::sync::atomic::AtomicU32,
        index: u32,
        abort: &std::sync::atomic::AtomicBool,
    ) -> (RunReport, bool) {
        let (report, clean, _) = self.run_glitch_probe_abortable_traced(cancel, index, abort);
        (report, clean)
    }

    /// [`VodSystem::run_glitch_probe_abortable`], additionally returning
    /// the probe with whatever it recorded.
    /// [`Probe::run_end`] fires at the stop instant on every exit path, so
    /// a sampler's final partial interval is clipped consistently whether
    /// the run glitched, completed, or was truncated.
    pub fn run_glitch_probe_abortable_traced(
        mut self,
        cancel: &std::sync::atomic::AtomicU32,
        index: u32,
        abort: &std::sync::atomic::AtomicBool,
    ) -> (RunReport, bool, P) {
        use std::sync::atomic::Ordering;
        // Poll the cancel flag once per this many events: rarely enough to
        // stay off the coherence traffic, often enough (< 1 ms of work) to
        // abandon a doomed run promptly.
        const CANCEL_POLL_MASK: u64 = 0xfff;
        let end = SimTime::ZERO + self.cfg.timing.total();
        if cancel.load(Ordering::Relaxed) < index || abort.load(Ordering::Relaxed) {
            let now = self.cal.now();
            if P::ENABLED {
                self.probe.run_end(now);
            }
            return (self.collect_report(now), false, self.probe);
        }
        while let Some((_, ev)) = self.cal.pop_until(end) {
            self.events_processed += 1;
            self.dispatch(ev);
            if self.glitches_measured > 0 {
                cancel.fetch_min(index, Ordering::Relaxed);
                let now = self.cal.now();
                if P::ENABLED {
                    self.probe.run_end(now);
                }
                return (self.collect_report(now), true, self.probe);
            }
            if self.events_processed & CANCEL_POLL_MASK == 0
                && (cancel.load(Ordering::Relaxed) < index || abort.load(Ordering::Relaxed))
            {
                let now = self.cal.now();
                if P::ENABLED {
                    self.probe.run_end(now);
                }
                return (self.collect_report(now), false, self.probe);
            }
        }
        self.cal.advance_to(end);
        if P::ENABLED {
            self.probe.run_end(end);
        }
        (self.collect_report(end), true, self.probe)
    }

    /// Events processed so far (monotone; carried into clones).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Fault-scenario actions executed so far (a degrade window counts
    /// twice: once applying the scale, once restoring it).
    pub fn faults_fired(&self) -> u64 {
        self.faults_fired
    }

    /// Events currently pending in the calendar.
    pub fn pending_events(&self) -> usize {
        self.cal.len()
    }

    /// Events ever scheduled on the calendar (processed + pending +
    /// truncated; monotone).
    pub fn scheduled_events_total(&self) -> u64 {
        self.cal.scheduled_total()
    }

    /// Replay the simulation up to (but excluding) `warmup − stagger`, the
    /// instant the last stagger-width window before measurement opens.
    /// The layer benchmark replays here to read the event-queue depth a
    /// run reaches once its terminals have joined; finishing the run
    /// afterwards reproduces a run that never stopped.
    pub fn replay_to_snapshot(&mut self) {
        self.replay_before(late_join_open(&self.cfg.timing));
    }

    /// Process every event strictly before `at`, then stand the clock on
    /// `at`.
    fn replay_before(&mut self, at: SimTime) {
        // pop_before locates the minimum once per event (the peek-compare
        // result stays memoized inside the calendar when the bound refuses
        // it), instead of the peek-then-pop double traversal.
        while let Some((_, ev)) = self.cal.pop_before(at) {
            self.events_processed += 1;
            self.dispatch(ev);
        }
        self.cal.advance_to(at);
    }

    fn dispatch(&mut self, ev: Event) {
        if P::ENABLED {
            self.probe.sim_event(self.cal.now(), event_kind(&ev));
        }
        match ev {
            Event::StartTerminal(t) => self.start_first_title(t),
            Event::Wake { term, gen } => {
                if self.terminals[term as usize].gen() == gen {
                    self.pump_terminal(term);
                }
            }
            Event::RequestArrive {
                term,
                epoch,
                block,
                deadline,
            } => {
                // The owning node is a pure function of the placement;
                // recomputing it here keeps the event 8 bytes slimmer.
                let node = self.layout.locate(block).disk.node.0;
                self.submit_cpu(
                    node,
                    self.cfg.cpu.recv_msg_instr,
                    CpuJob::RecvRequest {
                        term,
                        epoch,
                        block,
                        deadline,
                    },
                );
            }
            Event::ReplyArrive { term, epoch, block } => {
                let video = self.library.get(block.video);
                let fresh = self.terminals[term as usize].on_block_arrival(
                    video,
                    self.cfg.stripe_bytes,
                    block.index,
                    epoch,
                );
                if fresh {
                    self.pump_terminal(term);
                }
            }
            Event::CpuDone { node } => {
                let now = self.cal.now();
                let started = if P::ENABLED {
                    self.nodes[node as usize].cpu.running_since()
                } else {
                    None
                };
                let (job, next) = self.nodes[node as usize].cpu.finish(now);
                if P::ENABLED {
                    let start = started.expect("CpuDone for an idle CPU");
                    self.probe.cpu_span(node, start, now, cpu_job_kind(&job));
                }
                if let Some(d) = next {
                    self.cal.schedule_at(now + d, Event::CpuDone { node });
                }
                self.handle_cpu_job(node, job);
            }
            Event::DiskDone { node, disk } => {
                // A completion from a disk that died mid-transfer is void:
                // its read was re-dispatched to the failover sibling when
                // the disk was killed.
                if self.nodes[node as usize].disks[disk as usize].alive {
                    self.handle_disk_done(node, disk);
                }
            }
            Event::PrefetchRelease { node, disk, gen } => {
                let unit = &mut self.nodes[node as usize].disks[disk as usize];
                if unit.release_gen == gen {
                    unit.release_timer = None;
                    self.prefetch_kick(node, disk);
                }
            }
            Event::PiggybackFire { video } => {
                let pb = self
                    .piggyback
                    .as_mut()
                    .expect("piggyback fire without manager");
                let (leader, _followers) = pb.fire(video);
                self.begin_stream(leader, video);
            }
            Event::BeginMeasure => self.begin_measure(),
            Event::UserSeek { term, frame } => self.user_seek(term, frame),
            Event::SearchStep { term, session } => self.search_step(term, session),
            Event::SmoothSearchBegin {
                term,
                forward,
                end_at,
            } => self.smooth_search_begin(term, forward, end_at),
            Event::SmoothSearchEnd { term } => self.smooth_search_end(term),
            Event::FaultFire(idx) => self.fire_fault(idx),
        }
    }

    // ----- terminal side -------------------------------------------------

    /// Schedule a fast-forward/rewind for terminal `term` at time `at`
    /// (§8.1): the terminal seeks to `frame` of whatever title it is then
    /// watching, discards its buffers, and re-primes from the new
    /// position. Call before [`VodSystem::run`].
    pub fn schedule_user_seek(&mut self, at: SimTime, term: u32, frame: u64) {
        assert!(term < self.cfg.n_terminals, "no terminal {term}");
        self.cal.schedule_at(at, Event::UserSeek { term, frame });
    }

    /// Begin a skip-based visual search (§8.1) on terminal `term` at time
    /// `at`: "the terminal can skip forward or backward through the movie
    /// showing one or two seconds out of every several seconds of video
    /// data. Since the skipped video segments need not be read, this
    /// scheme will not significantly increase the load on the video
    /// server." The terminal shows `search.show` of content, jumps over
    /// `search.skip`, and repeats until `at + duration`, then resumes
    /// normal playback from wherever the search landed. Call before
    /// [`VodSystem::run`].
    pub fn schedule_visual_search(
        &mut self,
        at: SimTime,
        term: u32,
        search: VisualSearch,
        duration: spiffi_simcore::SimDuration,
    ) {
        assert!(term < self.cfg.n_terminals, "no terminal {term}");
        assert!(search.show > spiffi_simcore::SimDuration::ZERO);
        self.search_sessions += 1;
        let session = self.search_sessions;
        self.searches.insert(
            term,
            SearchState {
                session,
                search,
                end_at: at + duration,
                started: false,
            },
        );
        self.cal
            .schedule_at(at, Event::SearchStep { term, session });
    }

    fn search_step(&mut self, term: u32, session: u64) {
        let now = self.cal.now();
        let Some(state) = self.searches.get_mut(&term) else {
            return;
        };
        if state.session != session {
            return; // superseded by a newer search
        }
        if now >= state.end_at {
            // Search over: normal playback continues from here.
            self.searches.remove(&term);
            return;
        }
        let Some(video) = self.terminals[term as usize].video() else {
            self.searches.remove(&term);
            return;
        };
        let v = self.library.get(video);
        let fps = v.params().fps as u64;
        let here = self.terminals[term as usize].current_frame().unwrap_or(0);
        let skip_frames = (state.search.skip.0 as u128 * fps as u128 / 1_000_000_000) as u64;
        let target = if state.started {
            if state.search.forward {
                here.saturating_add(skip_frames)
            } else {
                here.saturating_sub(skip_frames)
            }
        } else {
            state.started = true;
            here // first step: just begin showing from the current spot
        };
        let show = state.search.show;
        if target >= v.num_frames().saturating_sub(1) || (!state.search.forward && target == 0) {
            // Ran off the end of the title: stop searching there.
            self.searches.remove(&term);
            self.user_seek(term, target.min(v.num_frames().saturating_sub(1)));
            return;
        }
        self.user_seek(term, target);
        self.cal
            .schedule_at(now + show, Event::SearchStep { term, session });
    }

    /// Begin a smooth (search-version) fast-forward or rewind (§8.1's
    /// second scheme) on terminal `term` at time `at`, returning to normal
    /// playback after `duration`. Requires
    /// [`SystemConfig::search_speedup`](crate::config::SystemConfig) to be
    /// set. "The search versions of the movie will provide a smooth,
    /// constant rate video stream similar to what a typical VCR produces."
    /// Call before [`VodSystem::run`].
    pub fn schedule_smooth_search(
        &mut self,
        at: SimTime,
        term: u32,
        forward: bool,
        duration: spiffi_simcore::SimDuration,
    ) {
        assert!(term < self.cfg.n_terminals, "no terminal {term}");
        assert!(
            self.cfg.search_speedup.is_some(),
            "smooth search requires SystemConfig::search_speedup"
        );
        self.cal.schedule_at(
            at,
            Event::SmoothSearchBegin {
                term,
                forward,
                end_at: at + duration,
            },
        );
    }

    fn smooth_search_begin(&mut self, term: u32, forward: bool, end_at: SimTime) {
        let speedup = self
            .cfg
            .search_speedup
            .expect("smooth search without search versions") as u64;
        let Some(video) = self.terminals[term as usize].video() else {
            return;
        };
        let Some(search) = self.library.search_version_of(video) else {
            return; // already on a search version (double press): ignore
        };
        let here = self.terminals[term as usize].current_frame().unwrap_or(0);
        let sv = self.library.get(search);
        // Map the current position into the compressed timeline. Rewind
        // plays the search version too (we do not model reverse display;
        // the subscriber watches the preview stream while the position
        // rewinds at speed-up rate when they press play again — for the
        // simulator's purposes both directions read the search version
        // forward from the mapped position).
        let target = (here / speedup).min(sv.num_frames().saturating_sub(1));
        let _ = forward;
        self.terminals[term as usize].start_video(sv, self.cfg.stripe_bytes, target, Vec::new());
        self.pump_terminal(term);
        self.cal
            .schedule_at(end_at, Event::SmoothSearchEnd { term });
    }

    fn smooth_search_end(&mut self, term: u32) {
        let speedup = self
            .cfg
            .search_speedup
            .expect("smooth search without search versions") as u64;
        let Some(video) = self.terminals[term as usize].video() else {
            return;
        };
        let Some(normal) = self.library.normal_version_of(video) else {
            return; // the search ended some other way (title rollover)
        };
        let here = self.terminals[term as usize].current_frame().unwrap_or(0);
        let nv = self.library.get(normal);
        let target = (here * speedup).min(nv.num_frames().saturating_sub(1));
        self.terminals[term as usize].start_video(nv, self.cfg.stripe_bytes, target, Vec::new());
        self.pump_terminal(term);
    }

    fn user_seek(&mut self, term: u32, frame: u64) {
        let Some(video) = self.terminals[term as usize].video() else {
            return; // not watching anything yet — ignore the keypress
        };
        let v = self.library.get(video);
        let frame = frame.min(v.num_frames().saturating_sub(1));
        // Re-prime from the new position; in-flight replies for the old
        // position are invalidated by the epoch bump.
        self.terminals[term as usize].start_video(v, self.cfg.stripe_bytes, frame, Vec::new());
        self.pump_terminal(term);
    }

    /// A terminal comes online. Under
    /// [`InitialPosition::UniformWithinVideo`](crate::config::InitialPosition)
    /// its first viewing begins at a random position — the steady state an
    /// hours-long run converges to — and bypasses the piggyback manager
    /// (one cannot join a stream mid-video).
    fn start_first_title(&mut self, t: u32) {
        match self.cfg.initial_position {
            crate::config::InitialPosition::Start => self.start_next_title(t),
            crate::config::InitialPosition::UniformWithinVideo => {
                let video = self.selector.select(&mut self.term_rngs[t as usize]);
                let frames = self.library.get(video).num_frames();
                let frame = self.term_rngs[t as usize].u64_below(frames.max(1));
                self.begin_stream_at(t, video, frame);
            }
        }
    }

    /// Select (and possibly batch) the next title for terminal `t`.
    fn start_next_title(&mut self, t: u32) {
        let video = self.selector.select(&mut self.term_rngs[t as usize]);
        match self.piggyback.as_mut() {
            None => self.begin_stream(t, video),
            Some(pb) => {
                let now = self.cal.now();
                match pb.request_start(t, video, now) {
                    StartDecision::OpenedBatch { fire_at } => {
                        if P::ENABLED {
                            self.probe.terminal_event(
                                now,
                                t,
                                TerminalEvent::PiggybackOpened { video: video.0 },
                            );
                        }
                        self.cal
                            .schedule_at(fire_at, Event::PiggybackFire { video });
                    }
                    StartDecision::JoinedBatch => {
                        if P::ENABLED {
                            self.probe.terminal_event(
                                now,
                                t,
                                TerminalEvent::PiggybackJoined { video: video.0 },
                            );
                        }
                    }
                    // Duplicate request or an active follower: the terminal
                    // is already accounted for (in the batch or behind its
                    // leader) and needs no new event.
                    StartDecision::Ignored => {}
                }
            }
        }
    }

    /// Begin streaming `video` on terminal `t` from its first frame.
    fn begin_stream(&mut self, t: u32, video: VideoId) {
        self.begin_stream_at(t, video, 0);
    }

    /// Begin streaming `video` on terminal `t` from `start_frame`.
    fn begin_stream_at(&mut self, t: u32, video: VideoId, start_frame: u64) {
        let mut pauses = self.draw_pause_plan(t, video);
        // Pauses scheduled before the starting position already "happened";
        // keeping them would stall playback the moment it starts.
        pauses.retain(|&(frame, _)| frame >= start_frame);
        let v = self.library.get(video);
        self.terminals[t as usize].start_video(v, self.cfg.stripe_bytes, start_frame, pauses);
        self.pump_terminal(t);
    }

    /// Draw the pause plan for one viewing (§8.1): pause instants form a
    /// Poisson process over the title at the configured mean rate, with
    /// exponential durations.
    fn draw_pause_plan(
        &mut self,
        t: u32,
        video: VideoId,
    ) -> Vec<(u64, spiffi_simcore::SimDuration)> {
        let Some(pc) = self.cfg.pause else {
            return Vec::new();
        };
        let frames = self.library.get(video).num_frames();
        let mean_gap_frames = frames as f64 / pc.mean_pauses_per_video;
        let gap = Exponential::new(mean_gap_frames);
        let dur = Exponential::new(pc.mean_duration.as_secs_f64());
        let rng = &mut self.term_rngs[t as usize];
        let mut plan = Vec::new();
        let mut at = 0.0;
        loop {
            at += gap.sample(rng);
            let frame = at as u64;
            if frame >= frames {
                break;
            }
            plan.push((
                frame,
                spiffi_simcore::SimDuration::from_secs_f64(dur.sample(rng)),
            ));
        }
        plan
    }

    /// Pump a terminal and apply its decisions: send requests, schedule the
    /// wake, count glitches, and roll over finished titles.
    fn pump_terminal(&mut self, t: u32) {
        let now = self.cal.now();
        let vid = self.terminals[t as usize]
            .video()
            .expect("pumping a terminal with no video");
        let scratch = std::mem::take(&mut self.pump_scratch);
        let pump = {
            let video = self.library.get(vid);
            self.terminals[t as usize].pump_reusing(video, self.cfg.stripe_bytes, now, scratch)
        };

        if pump.glitched && self.measuring {
            self.glitches_measured += 1;
            self.glitching_terminals.insert(t);
        }
        if P::ENABLED {
            if pump.glitched {
                self.probe.terminal_event(now, t, TerminalEvent::Glitched);
            }
            if pump.started_playing {
                self.probe
                    .terminal_event(now, t, TerminalEvent::StartedPlaying);
            }
            if pump.paused {
                self.probe.terminal_event(now, t, TerminalEvent::Paused);
            }
            if pump.finished {
                self.probe
                    .terminal_event(now, t, TerminalEvent::FinishedTitle);
            }
        }

        for index in &pump.requests {
            self.send_request(
                t,
                BlockAddr {
                    video: vid,
                    index: *index,
                },
            );
        }

        if let Some(wake_at) = pump.wake_at {
            let gen = self.terminals[t as usize].gen();
            self.cal
                .schedule_at(wake_at.max(now), Event::Wake { term: t, gen });
        }

        // Reclaim the request buffer before the finished path, which pumps
        // other terminals (piggyback group members) reentrantly.
        self.pump_scratch = pump.requests;

        if pump.finished {
            self.handle_video_finished(t);
        }
    }

    /// A title completed on terminal `t`: dissolve its piggyback group (if
    /// any) and have every member pick a new title ("When a terminal
    /// finishes one movie, it randomly selects a new video and immediately
    /// begins playing it", §6).
    fn handle_video_finished(&mut self, t: u32) {
        let members = match self.piggyback.as_mut() {
            Some(pb) => pb.dissolve(t),
            None => vec![t],
        };
        for m in members {
            self.start_next_title(m);
        }
    }

    /// Transmit a read request from terminal `t` for `block`.
    fn send_request(&mut self, t: u32, block: BlockAddr) {
        let now = self.cal.now();
        let video = self.library.get(block.video);
        let deadline = self.terminals[t as usize].deadline_for_block(
            video,
            self.cfg.stripe_bytes,
            block.index,
            now,
        );
        let epoch = self.terminals[t as usize].epoch();
        let delay = self.net.send(now, REQUEST_MSG_BYTES);
        if P::ENABLED {
            self.probe.net_send(
                now,
                NetSend {
                    kind: NetMsgKind::Request,
                    bytes: REQUEST_MSG_BYTES,
                    delay,
                },
            );
        }
        self.cal.schedule_at(
            now + delay,
            Event::RequestArrive {
                term: t,
                epoch,
                block,
                deadline,
            },
        );
    }

    // ----- node side ------------------------------------------------------

    /// Put a job on a node's CPU, scheduling its completion if the CPU was
    /// idle.
    fn submit_cpu(&mut self, node: u32, instr: u64, job: CpuJob) {
        let now = self.cal.now();
        if let Some(d) = self.nodes[node as usize].cpu.submit(now, instr, job) {
            self.cal.schedule_at(now + d, Event::CpuDone { node });
        }
    }

    fn handle_cpu_job(&mut self, node: u32, job: CpuJob) {
        match job {
            CpuJob::RecvRequest {
                term,
                epoch,
                block,
                deadline,
            } => self.handle_request(node, term, epoch, block, deadline),
            CpuJob::StartIo { disk, req } => {
                // The target may have died while this job sat on the CPU
                // queue; its I/O context was migrated to the failover
                // sibling when the disk was killed, so the request simply
                // follows it there.
                let disk = self.route_disk(node, disk);
                self.nodes[node as usize].disks[disk as usize]
                    .sched
                    .push(req);
                self.try_start_disk(node, disk);
            }
            CpuJob::SendReply {
                term,
                epoch,
                block,
                len,
            } => {
                let now = self.cal.now();
                let delay = self.net.send(now, len + REPLY_HEADER_BYTES);
                if P::ENABLED {
                    self.probe.net_send(
                        now,
                        NetSend {
                            kind: NetMsgKind::Reply,
                            bytes: len + REPLY_HEADER_BYTES,
                            delay,
                        },
                    );
                }
                if self.measuring {
                    self.blocks_delivered += 1;
                }
                self.cal
                    .schedule_at(now + delay, Event::ReplyArrive { term, epoch, block });
            }
        }
    }

    /// Core request-processing path (runs after the receive CPU cost).
    fn handle_request(
        &mut self,
        node: u32,
        term: u32,
        epoch: u16,
        block: BlockAddr,
        deadline: SimTime,
    ) {
        let token = waiter_token(term, epoch);
        let loc = self.layout.locate(block);
        let d = self.route_disk(node, loc.disk.disk);
        let n = node as usize;
        let looked_up = self.nodes[n].pool.lookup(block, Some(term));
        if P::ENABLED {
            let now = self.cal.now();
            let shared = self.nodes[n].pool.last_lookup_shared();
            match looked_up {
                LookupResult::Resident(_) => {
                    self.probe.pool_event(now, node, PoolEvent::Hit { shared });
                }
                LookupResult::InFlight(_) => {
                    self.probe
                        .pool_event(now, node, PoolEvent::InFlightHit { shared });
                }
                LookupResult::Miss => {}
            }
        }
        match looked_up {
            LookupResult::Resident(f) => {
                self.nodes[n].pool.record_reference(f, term);
                self.submit_cpu(
                    node,
                    self.cfg.cpu.send_msg_instr,
                    CpuJob::SendReply {
                        term,
                        epoch,
                        block,
                        len: loc.len,
                    },
                );
            }
            LookupResult::InFlight(f) => {
                self.nodes[n].pool.add_waiter(f, token);
                // Escalate a still-queued prefetch to the real deadline so
                // the real-time scheduler treats it with the urgency of the
                // real request it now serves.
                let unit = &mut self.nodes[n].disks[d as usize];
                if let Some(&rid) = unit.by_block.get(&block) {
                    if let Some(mut req) = unit.sched.remove(rid) {
                        req.deadline = Some(req.deadline.map_or(deadline, |old| old.min(deadline)));
                        req.stream = Some(StreamId(term));
                        unit.sched.push(req);
                    }
                }
            }
            LookupResult::Miss => {
                // A queued (unissued) prefetch for this block is now
                // pointless: the demand read supersedes it.
                self.nodes[n].disks[d as usize].prefetch.cancel(block);
                match self.nodes[n].pool.allocate(block, false) {
                    Some(f) => {
                        if P::ENABLED {
                            let evicted = self.nodes[n].pool.last_alloc_evicted();
                            self.probe.pool_event(
                                self.cal.now(),
                                node,
                                PoolEvent::Miss { evicted },
                            );
                        }
                        self.nodes[n].pool.add_waiter(f, token);
                        self.issue_io(node, d, block, f, Some(deadline), Some(term), false);
                    }
                    None => {
                        if P::ENABLED {
                            self.probe
                                .pool_event(self.cal.now(), node, PoolEvent::AllocFailure);
                        }
                        self.nodes[n].pending_reads.push_back(PendingRead {
                            term,
                            epoch,
                            block,
                            deadline,
                        });
                    }
                }
            }
        }
        // §5.2.3: every real reference triggers a background prefetch of
        // the next stripe block on the same disk.
        self.enqueue_prefetch_after(node, block, deadline, term);
    }

    /// Queue the standard follow-on prefetch for the block after `block`
    /// on the same disk.
    fn enqueue_prefetch_after(
        &mut self,
        node: u32,
        block: BlockAddr,
        deadline: SimTime,
        term: u32,
    ) {
        let Some(next) = self.layout.next_block_same_disk(block) else {
            return;
        };
        let n = node as usize;
        if self.nodes[n].pool.lookup(next, None) != LookupResult::Miss {
            return;
        }
        let d = self.route_disk(node, self.layout.locate(next).disk.disk);
        // Estimated deadline: the real request for `next` trails this one
        // by the playback time of the intervening stripe blocks.
        let stride = (next.index - block.index) as u64;
        let stride_time = spiffi_simcore::SimDuration::from_secs_f64(
            stride as f64 * self.cfg.stripe_bytes as f64 * 8.0 / self.cfg.video.bit_rate_bps as f64,
        );
        self.nodes[n].disks[d as usize]
            .prefetch
            .enqueue(PrefetchRequest {
                block: next,
                estimated_deadline: deadline + stride_time,
                stream: term,
            });
        self.prefetch_kick(node, d);
    }

    /// Let the prefetch processes of disk `(node, disk)` issue as much as
    /// the strategy allows right now.
    fn prefetch_kick(&mut self, node: u32, disk: u32) {
        let now = self.cal.now();
        let n = node as usize;
        if !self.nodes[n].disks[disk as usize].alive {
            return;
        }
        loop {
            let decision = self.nodes[n].disks[disk as usize].prefetch.try_issue(now);
            match decision {
                IssueDecision::Idle => break,
                IssueDecision::NotYet { release_at } => {
                    // Arm (or re-arm) the release timer only when the queue
                    // head's release time moved earlier; re-arming on every
                    // kick would invalidate timers faster than they fire.
                    let unit = &mut self.nodes[n].disks[disk as usize];
                    let must_arm = unit.release_timer.is_none_or(|armed| release_at < armed);
                    if must_arm {
                        unit.release_gen += 1;
                        unit.release_timer = Some(release_at);
                        let gen = unit.release_gen;
                        self.cal.schedule_at(
                            release_at.max(now),
                            Event::PrefetchRelease { node, disk, gen },
                        );
                    }
                    break;
                }
                IssueDecision::Issue { request, deadline } => {
                    // The block may have been fetched (or be in flight) by
                    // the time this prefetch reaches the head of the queue.
                    if self.nodes[n].pool.lookup(request.block, None) != LookupResult::Miss {
                        self.nodes[n].disks[disk as usize].prefetch.abort();
                        continue;
                    }
                    match self.nodes[n].pool.allocate(request.block, true) {
                        None => {
                            // No frame available: drop the prefetch rather
                            // than stall real work.
                            if P::ENABLED {
                                self.probe.pool_event(now, node, PoolEvent::AllocFailure);
                            }
                            self.nodes[n].disks[disk as usize].prefetch.abort();
                            continue;
                        }
                        Some(f) => {
                            if P::ENABLED {
                                let evicted = self.nodes[n].pool.last_alloc_evicted();
                                self.probe.pool_event(
                                    now,
                                    node,
                                    PoolEvent::PrefetchAlloc { evicted },
                                );
                            }
                            self.issue_io(
                                node,
                                disk,
                                request.block,
                                f,
                                deadline,
                                Some(request.stream),
                                true,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Charge the start-I/O CPU cost and enqueue the disk request.
    #[allow(clippy::too_many_arguments)]
    fn issue_io(
        &mut self,
        node: u32,
        disk: u32,
        block: BlockAddr,
        frame: spiffi_bufferpool::FrameId,
        deadline: Option<SimTime>,
        stream: Option<u32>,
        is_prefetch: bool,
    ) {
        let rid = RequestId(self.next_req_id);
        self.next_req_id += 1;
        let loc = self.layout.locate(block);
        let unit = &mut self.nodes[node as usize].disks[disk as usize];
        let cylinder = unit.disk.params().cylinder_of(loc.disk_byte);
        let req = DiskRequest {
            id: rid,
            cylinder,
            deadline,
            stream: stream.map(StreamId),
            is_prefetch,
        };
        let now = self.cal.now();
        unit.inflight.insert(
            rid,
            IoCtx {
                block,
                frame,
                is_prefetch,
                issued_at: now,
                deadline,
            },
        );
        unit.by_block.insert(block, rid);
        self.submit_cpu(
            node,
            self.cfg.cpu.start_io_instr,
            CpuJob::StartIo { disk, req },
        );
    }

    /// If the disk is idle and work is queued, start the next transfer.
    fn try_start_disk(&mut self, node: u32, disk: u32) {
        let now = self.cal.now();
        let unit = &mut self.nodes[node as usize].disks[disk as usize];
        if !unit.alive || unit.current.is_some() {
            return;
        }
        let head = unit.disk.head_cylinder();
        let Some(req) = unit.sched.pop_next(now, head) else {
            return;
        };
        let ctx = unit.inflight[&req.id];
        let loc = self.layout.locate(ctx.block);
        let breakdown = unit.disk.read(loc.disk_byte, loc.len, &mut unit.rng);
        unit.current = Some(req.id);
        if P::ENABLED {
            let queue_depth = unit.sched.len() as u32;
            self.probe.disk_io_start(
                now,
                DiskIoStart {
                    node,
                    disk,
                    queue_depth,
                    is_prefetch: ctx.is_prefetch,
                    service: breakdown,
                },
            );
        }
        self.cal
            .schedule_at(now + breakdown.total(), Event::DiskDone { node, disk });
    }

    /// A disk transfer finished: publish the page, wake waiters, restart
    /// the pipeline.
    fn handle_disk_done(&mut self, node: u32, disk: u32) {
        let n = node as usize;
        let (ctx, len) = {
            let unit = &mut self.nodes[n].disks[disk as usize];
            let rid = unit.current.take().expect("disk-done with idle disk");
            let ctx = unit
                .inflight
                .remove(&rid)
                .expect("disk-done without context");
            unit.by_block.remove(&ctx.block);
            (ctx, self.layout.locate(ctx.block).len)
        };
        let now = self.cal.now();
        if P::ENABLED {
            let slack = ctx.deadline.map(|d| {
                (d.0 as i128 - now.0 as i128).clamp(i64::MIN as i128, i64::MAX as i128) as i64
            });
            self.probe.disk_io_done(
                now,
                DiskIoDone {
                    node,
                    disk,
                    is_prefetch: ctx.is_prefetch,
                    latency: now.saturating_since(ctx.issued_at),
                    deadline_slack_ns: slack,
                },
            );
        }
        if self.measuring && !ctx.is_prefetch {
            self.io_latency
                .add(now.saturating_since(ctx.issued_at).as_secs_f64());
            if let Some(d) = ctx.deadline {
                // Only *achievable* deadlines count as misses: the first
                // block of a (re)priming session carries deadline = issue
                // time ("display starts now"), which no disk can meet.
                if now > d && d > ctx.issued_at {
                    self.deadline_misses += 1;
                }
            }
        }
        let mut waiters = std::mem::take(&mut self.waiter_scratch);
        self.nodes[n].pool.complete_io_into(ctx.frame, &mut waiters);
        for &token in &waiters {
            let (term, epoch) = decode_waiter(token);
            self.nodes[n].pool.record_reference(ctx.frame, term);
            self.submit_cpu(
                node,
                self.cfg.cpu.send_msg_instr,
                CpuJob::SendReply {
                    term,
                    epoch,
                    block: ctx.block,
                    len,
                },
            );
        }
        self.waiter_scratch = waiters;
        if ctx.is_prefetch {
            self.nodes[n].disks[disk as usize].prefetch.complete();
        }
        // Frames may have become evictable: retry reads stalled on
        // allocation, then let the prefetcher and the disk continue.
        self.retry_pending(node);
        self.prefetch_kick(node, disk);
        self.try_start_disk(node, disk);
    }

    /// Retry demand reads that previously failed to get a buffer frame.
    fn retry_pending(&mut self, node: u32) {
        let n = node as usize;
        while let Some(pr) = self.nodes[n].pending_reads.front().copied() {
            let token = waiter_token(pr.term, pr.epoch);
            match self.nodes[n].pool.lookup(pr.block, None) {
                LookupResult::Resident(f) => {
                    self.nodes[n].pending_reads.pop_front();
                    self.nodes[n].pool.record_reference(f, pr.term);
                    let len = self.layout.locate(pr.block).len;
                    self.submit_cpu(
                        node,
                        self.cfg.cpu.send_msg_instr,
                        CpuJob::SendReply {
                            term: pr.term,
                            epoch: pr.epoch,
                            block: pr.block,
                            len,
                        },
                    );
                }
                LookupResult::InFlight(f) => {
                    self.nodes[n].pending_reads.pop_front();
                    self.nodes[n].pool.add_waiter(f, token);
                }
                LookupResult::Miss => match self.nodes[n].pool.allocate(pr.block, false) {
                    Some(f) => {
                        if P::ENABLED {
                            let evicted = self.nodes[n].pool.last_alloc_evicted();
                            self.probe.pool_event(
                                self.cal.now(),
                                node,
                                PoolEvent::Miss { evicted },
                            );
                        }
                        self.nodes[n].pending_reads.pop_front();
                        self.nodes[n].pool.add_waiter(f, token);
                        let d = self.route_disk(node, self.layout.locate(pr.block).disk.disk);
                        self.issue_io(
                            node,
                            d,
                            pr.block,
                            f,
                            Some(pr.deadline),
                            Some(pr.term),
                            false,
                        );
                    }
                    None => break,
                },
            }
        }
    }

    // ----- fault scenarios ------------------------------------------------

    /// The disk that demand and prefetch I/O aimed at `(node, disk)`
    /// should actually go to: the disk itself while it lives, else its
    /// failover sibling.
    fn route_disk(&self, node: u32, disk: u32) -> u32 {
        if self.nodes[node as usize].disks[disk as usize].alive {
            disk
        } else {
            self.failover_target(node, disk)
        }
    }

    /// The next living disk after `disk` on `node`, wrapping — chained
    /// deaths keep resolving as long as one sibling survives.
    ///
    /// # Panics
    /// If every disk on the node is dead; [`SystemConfig::validate`]
    /// rejects scenarios that could get here.
    fn failover_target(&self, node: u32, disk: u32) -> u32 {
        let dpn = self.cfg.topology.disks_per_node;
        (1..dpn)
            .map(|off| (disk + off) % dpn)
            .find(|&d| self.nodes[node as usize].disks[d as usize].alive)
            .expect("fault scenario left a node with no living disk")
    }

    /// Execute action `idx` of the scenario table.
    fn fire_fault(&mut self, idx: u32) {
        self.faults_fired += 1;
        match self.fault_actions[idx as usize] {
            FaultAction::SetLatencyScale { node, disk, pct } => {
                self.nodes[node as usize].disks[disk as usize]
                    .disk
                    .set_latency_scale_pct(pct);
                if P::ENABLED {
                    self.probe.fault_event(
                        self.cal.now(),
                        FaultEvent::DiskDegraded {
                            node,
                            disk,
                            latency_scale_pct: pct,
                        },
                    );
                }
            }
            FaultAction::KillDisk { node, disk } => self.kill_disk(node, disk),
            FaultAction::Abandon { every } => self.abandon_burst(every),
        }
    }

    /// Permanently fail `(node, disk)`. Every queued and in-service read
    /// is re-dispatched to the failover sibling — disk geometry is
    /// identical across a node, so cylinder numbers carry over — and all
    /// future I/O for the dead disk's blocks routes there too. Issued
    /// prefetches are demoted to demand reads: their pool frames may
    /// already hold waiters that must still be fed, so the reads cannot
    /// simply be dropped. The read on the platters at death is lost and
    /// reissued from scratch (its eventual `DiskDone` is void).
    fn kill_disk(&mut self, node: u32, disk: u32) {
        let now = self.cal.now();
        let n = node as usize;
        self.nodes[n].disks[disk as usize].alive = false;
        let target = self.failover_target(node, disk);
        let (mut moved, mut requeue) = {
            let unit = &mut self.nodes[n].disks[disk as usize];
            let head = unit.disk.head_cylinder();
            let mut requeue = unit.sched.drain(now, head);
            if let Some(rid) = unit.current.take() {
                let ctx = unit.inflight[&rid];
                let loc = self.layout.locate(ctx.block);
                requeue.push(DiskRequest {
                    id: rid,
                    cylinder: unit.disk.params().cylinder_of(loc.disk_byte),
                    deadline: ctx.deadline,
                    stream: None,
                    is_prefetch: false,
                });
            }
            // A pending delayed-prefetch release must not kick a dead
            // disk; the queued (unissued) prefetches behind it are
            // frameless and simply never issue.
            unit.release_gen += 1;
            unit.release_timer = None;
            let mut moved: Vec<(RequestId, IoCtx)> = unit.inflight.drain().collect();
            // Map drain order is an implementation detail; re-insert in
            // request order so the failover is bit-reproducible.
            moved.sort_unstable_by_key(|(rid, _)| rid.0);
            unit.by_block.clear();
            (moved, requeue)
        };
        for (rid, ctx) in &mut moved {
            if ctx.is_prefetch {
                self.nodes[n].disks[disk as usize].prefetch.complete();
                ctx.is_prefetch = false;
            }
            let tu = &mut self.nodes[n].disks[target as usize];
            tu.inflight.insert(*rid, *ctx);
            tu.by_block.insert(ctx.block, *rid);
        }
        for req in &mut requeue {
            req.is_prefetch = false;
            self.nodes[n].disks[target as usize].sched.push(*req);
        }
        if P::ENABLED {
            self.probe.fault_event(
                now,
                FaultEvent::DiskDeath {
                    node,
                    disk,
                    failover: target,
                },
            );
        }
        self.try_start_disk(node, target);
    }

    /// Every `every`-th terminal that is mid-title abandons it and picks
    /// a fresh selection — [`VodSystem::handle_video_finished`] semantics
    /// without a completed title. A piggyback group whose leader abandons
    /// dissolves, and every member re-selects; riding followers are not
    /// `Playing` themselves and are only reached that way.
    fn abandon_burst(&mut self, every: u32) {
        let mut abandoned = 0;
        for t in 0..self.cfg.n_terminals {
            if t % every != 0 {
                continue;
            }
            let mid_title = !matches!(
                self.terminals[t as usize].state(),
                crate::terminal::PlayState::Idle | crate::terminal::PlayState::Finished
            );
            if !mid_title {
                continue;
            }
            abandoned += 1;
            self.handle_video_finished(t);
        }
        if P::ENABLED {
            self.probe
                .fault_event(self.cal.now(), FaultEvent::AbandonBurst { abandoned });
        }
    }

    // ----- measurement ----------------------------------------------------

    fn begin_measure(&mut self) {
        let now = self.cal.now();
        self.measuring = true;
        self.glitches_measured = 0;
        self.glitching_terminals.clear();
        self.blocks_delivered = 0;
        self.io_latency.reset();
        self.deadline_misses = 0;
        self.net.reset_window(now);
        for node in &mut self.nodes {
            node.cpu.reset_window(now);
            node.pool.reset_stats();
            for unit in &mut node.disks {
                unit.disk.reset_window(now);
            }
        }
    }

    fn collect_report(&self, end: SimTime) -> RunReport {
        let mut disk_utils = Vec::new();
        let mut pool = PoolStats::default();
        let mut prefetch = PrefetchStats::default();
        let mut cpu_utils = Vec::new();
        for node in &self.nodes {
            cpu_utils.push(node.cpu.utilization(end));
            let s = node.pool.stats();
            pool.lookups += s.lookups;
            pool.resident_hits += s.resident_hits;
            pool.inflight_hits += s.inflight_hits;
            pool.misses += s.misses;
            pool.shared_references += s.shared_references;
            pool.prefetch_inserts += s.prefetch_inserts;
            pool.prefetch_used += s.prefetch_used;
            pool.prefetch_wasted += s.prefetch_wasted;
            pool.evictions += s.evictions;
            pool.alloc_failures += s.alloc_failures;
            for unit in &node.disks {
                disk_utils.push(unit.disk.utilization(end));
                let p = unit.prefetch.stats();
                prefetch.enqueued += p.enqueued;
                prefetch.deduplicated += p.deduplicated;
                prefetch.issued += p.issued;
                prefetch.completed += p.completed;
                prefetch.aborted += p.aborted;
                prefetch.cancelled += p.cancelled;
            }
        }
        let avg = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let maxf = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        let minf = |v: &[f64]| v.iter().copied().fold(1.0, f64::min);
        RunReport {
            terminals: self.cfg.n_terminals,
            measured: self.cfg.timing.measure,
            glitches: self.glitches_measured,
            glitching_terminals: self.glitching_terminals.len(),
            blocks_delivered: self.blocks_delivered,
            videos_completed: self.terminals.iter().map(|t| t.videos_completed()).sum(),
            avg_disk_utilization: avg(&disk_utils),
            max_disk_utilization: maxf(&disk_utils),
            min_disk_utilization: minf(&disk_utils),
            disk_utilizations: disk_utils,
            avg_cpu_utilization: avg(&cpu_utils),
            max_cpu_utilization: maxf(&cpu_utils),
            min_cpu_utilization: minf(&cpu_utils),
            net_peak_bytes_per_sec: self.net.peak_bytes_per_sec(),
            net_mean_bytes_per_sec: self.net.mean_bytes_per_sec(end),
            pool,
            prefetch,
            events_processed: self.events_processed,
            io_latency_mean_ms: self.io_latency.mean() * 1e3,
            io_latency_p95_ms: self.io_latency.quantile(0.95) * 1e3,
            io_latency_max_ms: self.io_latency.max() * 1e3,
            io_latency_rejected: self.io_latency.rejected(),
            deadline_misses: self.deadline_misses,
            terminals_piggybacked: self
                .piggyback
                .as_ref()
                .map_or(0, |p| p.terminals_piggybacked()),
        }
    }

    // ----- inspection (tests, examples) ------------------------------------

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The generated library.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// The storage layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.cal.now()
    }

    /// Access a terminal (tests).
    pub fn terminal(&self, t: u32) -> &Terminal {
        &self.terminals[t as usize]
    }

    /// Total glitches across all terminals since simulation start (not
    /// just the measurement window).
    pub fn glitches_since_start(&self) -> u64 {
        self.terminals.iter().map(|t| t.glitches_total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiffi_simcore::SimDuration;

    #[test]
    fn late_join_boundary_clamps_instead_of_underflowing() {
        // stagger > warmup cannot pass validate(), but the boundary must
        // degrade to a cold snapshot (time zero) rather than underflow —
        // the same graceful degradation stagger == 0 gets.
        let timing = RunTiming {
            stagger: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(4),
            measure: SimDuration::from_secs(1),
        };
        assert_eq!(late_join_open(&timing), SimTime::ZERO);
        let timing = RunTiming {
            stagger: SimDuration::from_secs(5),
            warmup: SimDuration::from_secs(15),
            measure: SimDuration::from_secs(1),
        };
        assert_eq!(
            late_join_open(&timing),
            SimTime::ZERO + SimDuration::from_secs(10)
        );
        let timing = RunTiming {
            stagger: SimDuration::ZERO,
            warmup: SimDuration::from_secs(15),
            measure: SimDuration::from_secs(1),
        };
        assert_eq!(
            late_join_open(&timing),
            SimTime::ZERO + SimDuration::from_secs(15)
        );
    }

    /// A clone taken at the replay boundary with piggyback groups and an
    /// in-progress visual search runs exactly like the original and like
    /// a system that was never stopped.
    #[test]
    fn clone_with_piggyback_and_visual_search_matches_fresh_build() {
        let mut cfg = SystemConfig::small_test();
        cfg.n_terminals = 14;
        cfg.piggyback_delay = Some(SimDuration::from_secs(2));
        let library = std::sync::Arc::new(VodSystem::generate_library(&cfg));
        let with_search = |mut sys: VodSystem| {
            sys.schedule_visual_search(
                SimTime::ZERO + SimDuration::from_secs(9),
                2,
                VisualSearch {
                    show: SimDuration::from_secs(1),
                    skip: SimDuration::from_secs(2),
                    forward: true,
                },
                SimDuration::from_secs(8),
            );
            sys
        };
        let mut sys = with_search(VodSystem::with_library(cfg.clone(), library.clone()));
        sys.replay_to_snapshot();
        assert!(!sys.searches.is_empty(), "no visual search at the boundary");
        let cloned = sys.clone().run();
        let fresh = with_search(VodSystem::with_library(cfg, library)).run();
        assert_eq!(cloned, fresh, "clone diverged from the fresh build");
        assert_eq!(sys.run(), fresh, "original diverged after cloning");
        assert!(fresh.blocks_delivered > 0, "degenerate run");
    }

    /// Records every fault callback so tests can assert what fired when.
    #[derive(Clone, Default)]
    struct FaultLog {
        events: Vec<(SimTime, FaultEvent)>,
    }

    impl Probe for FaultLog {
        fn fault_event(&mut self, now: SimTime, ev: FaultEvent) {
            self.events.push((now, ev));
        }
    }

    fn faulted_config() -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.n_terminals = 12;
        cfg.scenario = Some(crate::scenario::Scenario {
            faults: vec![
                crate::scenario::FaultSpec::DiskDeath {
                    node: 0,
                    disk: 0,
                    at: SimDuration::from_secs(20),
                },
                crate::scenario::FaultSpec::DiskDegrade {
                    node: 1,
                    disk: 1,
                    at: SimDuration::from_secs(25),
                    dur: SimDuration::from_secs(10),
                    factor_pct: 200,
                },
                crate::scenario::FaultSpec::AbandonBurst {
                    at: SimDuration::from_secs(30),
                    every: 3,
                },
            ],
            mix: Some(crate::scenario::BitrateMix {
                every: 4,
                bit_rate_bps: 8_000_000,
            }),
        });
        cfg
    }

    #[test]
    fn fault_scenario_perturbs_the_run_and_stays_deterministic() {
        let cfg = faulted_config();
        let (faulted, log) = VodSystem::with_probe(
            cfg.clone(),
            VodSystem::generate_library(&cfg),
            FaultLog::default(),
        )
        .run_traced();
        let again = VodSystem::new(cfg.clone()).run();
        assert_eq!(faulted, again, "faulted runs must reproduce bit-exactly");

        let mut clean_cfg = cfg.clone();
        clean_cfg.scenario = None;
        let clean = VodSystem::new(clean_cfg).run();
        assert_ne!(faulted, clean, "faults had no observable effect");

        // Death@20, degrade-set@25, abandon@30, degrade-restore@35 —
        // firing order follows simulation time, not declaration order.
        let kinds: Vec<&'static str> = log.events.iter().map(|(_, e)| e.label()).collect();
        assert_eq!(
            kinds,
            [
                "disk_death",
                "disk_degraded",
                "abandon_burst",
                "disk_degraded"
            ]
        );
        assert!(log.events.windows(2).all(|w| w[0].0 <= w[1].0));
        match log.events[0].1 {
            FaultEvent::DiskDeath {
                node,
                disk,
                failover,
            } => {
                assert_eq!((node, disk), (0, 0));
                assert_eq!(failover, 1, "failover must pick the living sibling");
            }
            other => panic!("expected disk death, got {other:?}"),
        }
        match log.events[2].1 {
            FaultEvent::AbandonBurst { abandoned } => {
                assert!(abandoned > 0, "no terminal was mid-title at the burst")
            }
            other => panic!("expected abandon burst, got {other:?}"),
        }
    }

    #[test]
    fn faulted_clone_matches_fresh_build() {
        // Clone mid-run between the faults: the disk death (20 s) and the
        // degrade (25 s) have fired, the abandon burst (30 s) and the
        // degrade restore (35 s) are pending calendar events that both the
        // clone and its original must carry out identically.
        let cfg = faulted_config();
        let library = std::sync::Arc::new(VodSystem::generate_library(&cfg));
        let mut sys = VodSystem::with_library(cfg.clone(), library.clone());
        sys.replay_before(SimTime::ZERO + SimDuration::from_secs(27));
        assert_eq!(sys.faults_fired(), 2, "death and degrade must have fired");
        let cloned = sys.clone().run();
        let fresh = VodSystem::with_library(cfg, library).run();
        assert_eq!(cloned, fresh, "faulted clone diverged from the fresh build");
        assert_eq!(sys.run(), fresh, "original diverged after cloning");
        assert!(fresh.blocks_delivered > 0, "degenerate run");
    }

    #[test]
    fn dead_disk_serves_no_io_and_its_streams_survive() {
        let cfg = faulted_config();
        let (report, probe) = VodSystem::with_probe(
            cfg.clone(),
            VodSystem::generate_library(&cfg),
            DiskIoLog::default(),
        )
        .run_traced();
        assert!(report.blocks_delivered > 0, "degenerate run");
        let death = SimTime::ZERO + SimDuration::from_secs(20);
        assert!(
            probe
                .starts
                .iter()
                .all(|&(t, node, disk)| { (node, disk) != (0, 0) || t < death }),
            "dead disk started a transfer after its death"
        );
        // The survivor on the node carried load after the death.
        assert!(
            probe
                .starts
                .iter()
                .any(|&(t, node, disk)| (node, disk) == (0, 1) && t > death),
            "failover sibling never served after the death"
        );
    }

    /// Records disk transfer starts as `(time, node, disk)`.
    #[derive(Clone, Default)]
    struct DiskIoLog {
        starts: Vec<(SimTime, u32, u32)>,
    }

    impl Probe for DiskIoLog {
        fn disk_io_start(&mut self, now: SimTime, ev: DiskIoStart) {
            self.starts.push((now, ev.node, ev.disk));
        }
    }
}
