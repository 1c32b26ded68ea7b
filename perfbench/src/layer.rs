//! The traced run: replay each timed operation's simulations with a
//! benchmark-owned probe attached, and collect per-layer counts, host
//! self time per event kind, and spans.
//!
//! A capacity search is replayed as direct `VodSystem` runs, one per
//! probe in its returned probe list, at replication 0's seed, each
//! stopping at its first measured glitch as the engine's probe runs do.
//! Every run executes twice, once untraced and once traced, so the
//! difference between the two is the tracing overhead.

use std::sync::atomic::{AtomicBool, AtomicU32};
use std::sync::Arc;
use std::time::Instant;

use spiffi_core::{replication_seed, LibraryKey, RunReport, SystemConfig, VodSystem};
use spiffi_mpeg::Library;
use spiffi_simcore::SimTime;
use spiffi_trace::{CpuJobKind, DiskIoDone, DiskIoStart, NetSend, PoolEvent, Probe};

/// Event kinds reported individually; every other kind is pooled.
pub const KINDS: [&str; 6] = [
    "Wake",
    "CpuDone",
    "DiskDone",
    "ReplyArrive",
    "RequestArrive",
    "StartTerminal",
];
const OTHER: usize = KINDS.len();

/// Per-layer counts accumulated over every traced run of a workload.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Events dispatched, by [`KINDS`] index (last slot: other kinds).
    pub events: [u64; KINDS.len() + 1],
    /// Host nanoseconds from each event's dispatch to the next one's.
    pub self_ns: [u64; KINDS.len() + 1],
    /// Simulated nanoseconds covered by the traced runs.
    pub sim_ns: u64,
    /// Demand disk reads started.
    pub reads_demand: u64,
    /// Prefetch disk reads started.
    pub reads_prefetch: u64,
    /// Simulated disk service nanoseconds.
    pub disk_busy_ns: u64,
    /// Disk-nanoseconds available (disks × simulated time).
    pub disk_avail_ns: u64,
    /// Reads started at each scheduler queue depth.
    pub depth_hist: Vec<u64>,
    /// Demand reads completing after their deadline.
    pub deadline_misses: u64,
    /// Node CPU jobs run.
    pub cpu_jobs: u64,
    /// Simulated CPU busy nanoseconds.
    pub cpu_busy_ns: u64,
    /// CPU-nanoseconds available (nodes × simulated time).
    pub cpu_avail_ns: u64,
    /// Network messages sent.
    pub net_messages: u64,
    /// Lookups served from a resident page.
    pub pool_hits: u64,
    /// Lookups merged onto an in-flight read.
    pub pool_inflight_hits: u64,
    /// Demand lookups that missed.
    pub pool_misses: u64,
    /// Allocations that evicted a page.
    pub evictions: u64,
    /// Allocations that found every page pinned.
    pub alloc_failures: u64,
    /// Prefetches issued (run reports: measurement windows only).
    pub prefetch_issued: u64,
    /// Queued prefetches cancelled by a demand read (run reports).
    pub prefetch_cancelled: u64,
    /// Pages the prefetcher inserted (run reports).
    pub prefetch_inserts: u64,
    /// Prefetched pages later referenced (run reports).
    pub prefetch_used: u64,
}

impl LayerCounts {
    /// Every event dispatched.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// The `q`-quantile of the scheduler queue depth at read start.
    pub fn depth_quantile(&self, q: f64) -> u32 {
        let total: u64 = self.depth_hist.iter().sum();
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut seen = 0;
        for (d, &c) in self.depth_hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return d as u32;
            }
        }
        0
    }

    /// Demand lookups: resident hits, in-flight hits and misses.
    pub fn lookups(&self) -> u64 {
        self.pool_hits + self.pool_inflight_hits + self.pool_misses
    }

    fn add_report(&mut self, r: &RunReport) {
        self.prefetch_issued += r.prefetch.issued;
        self.prefetch_cancelled += r.prefetch.cancelled;
        self.prefetch_inserts += r.pool.prefetch_inserts;
        self.prefetch_used += r.pool.prefetch_used;
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The benchmark's probe: counts at every layer boundary the system
/// reports, and host time between consecutive event dispatches. One probe
/// is moved from run to run, accumulating.
#[derive(Default)]
struct LayerProbe {
    counts: LayerCounts,
    last: Option<(Instant, usize)>,
    disks: u64,
    nodes: u64,
}

impl LayerProbe {
    fn close_interval(&mut self, now: Instant) {
        if let Some((t, k)) = self.last.take() {
            self.counts.self_ns[k] += now.duration_since(t).as_nanos() as u64;
        }
    }
}

impl Probe for LayerProbe {
    fn sim_event(&mut self, _now: SimTime, kind: &'static str) {
        let now = Instant::now();
        self.close_interval(now);
        let k = KINDS.iter().position(|&k| k == kind).unwrap_or(OTHER);
        self.counts.events[k] += 1;
        self.last = Some((now, k));
    }

    fn disk_io_start(&mut self, _now: SimTime, ev: DiskIoStart) {
        if ev.is_prefetch {
            self.counts.reads_prefetch += 1;
        } else {
            self.counts.reads_demand += 1;
        }
        self.counts.disk_busy_ns += ev.service.total().0;
        let depth = ev.queue_depth as usize;
        let hist = &mut self.counts.depth_hist;
        if hist.len() <= depth {
            hist.resize(depth + 1, 0);
        }
        hist[depth] += 1;
    }

    fn disk_io_done(&mut self, _now: SimTime, ev: DiskIoDone) {
        if !ev.is_prefetch && ev.deadline_slack_ns.is_some_and(|s| s < 0) {
            self.counts.deadline_misses += 1;
        }
    }

    fn cpu_span(&mut self, _node: u32, start: SimTime, end: SimTime, _job: CpuJobKind) {
        self.counts.cpu_jobs += 1;
        self.counts.cpu_busy_ns += end.0.saturating_sub(start.0);
    }

    fn net_send(&mut self, _now: SimTime, _ev: NetSend) {
        self.counts.net_messages += 1;
    }

    fn pool_event(&mut self, _now: SimTime, _node: u32, ev: PoolEvent) {
        let c = &mut self.counts;
        match ev {
            PoolEvent::Hit { .. } => c.pool_hits += 1,
            PoolEvent::InFlightHit { .. } => c.pool_inflight_hits += 1,
            PoolEvent::Miss { evicted } => {
                c.pool_misses += 1;
                c.evictions += evicted as u64;
            }
            PoolEvent::PrefetchAlloc { evicted } => c.evictions += evicted as u64,
            PoolEvent::AllocFailure => c.alloc_failures += 1,
        }
    }

    fn run_end(&mut self, end: SimTime) {
        self.close_interval(Instant::now());
        self.counts.sim_ns += end.0;
        self.counts.disk_avail_ns += self.disks * end.0;
        self.counts.cpu_avail_ns += self.nodes * end.0;
    }
}

/// One recorded span. Spans of one operation share its `op` id.
struct Span {
    /// `workload`, `op` or `probe_run`.
    name: &'static str,
    /// Id of the operation the span belongs to (0 for the workload span).
    op: u32,
    /// Terminals simulated (probe runs only).
    terminals: u32,
    /// Start, host nanoseconds since the replay began.
    start_ns: u64,
    /// End, host nanoseconds since the replay began.
    end_ns: u64,
    /// Simulation events dispatched inside the span.
    events: u64,
}

/// Replays a workload's operations and keeps what they measured.
pub struct Replayer {
    epoch: Instant,
    libraries: Vec<(LibraryKey, Arc<Library>)>,
    probe: LayerProbe,
    spans: Vec<Span>,
    /// Untraced wall seconds of the replayed runs.
    pub plain_s: f64,
    /// Traced wall seconds of the same runs.
    pub traced_s: f64,
    /// Events the replayed runs dispatched.
    pub events: u64,
    /// Operations whose replay disagreed with the operation's answer.
    pub mismatches: u64,
}

impl Replayer {
    /// A replayer whose spans are timed from now.
    pub fn new() -> Self {
        Replayer {
            epoch: Instant::now(),
            libraries: Vec::new(),
            probe: LayerProbe::default(),
            spans: Vec::new(),
            plain_s: 0.0,
            traced_s: 0.0,
            events: 0,
            mismatches: 0,
        }
    }

    /// Counts accumulated by the traced runs.
    pub fn counts(&self) -> &LayerCounts {
        &self.probe.counts
    }

    /// The library `cfg` runs on, generated once per library identity.
    pub fn library(&mut self, cfg: &SystemConfig) -> Arc<Library> {
        let key = LibraryKey::of(cfg);
        if let Some((_, lib)) = self.libraries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(lib);
        }
        let lib = Arc::new(VodSystem::generate_library(cfg));
        self.libraries.push((key, Arc::clone(&lib)));
        lib
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `cfg` untraced and traced (to its first measured glitch when
    /// `probe_run`, else to the end) and return both reports and the
    /// untraced wall seconds.
    fn run_twice(
        &mut self,
        op: u32,
        cfg: &SystemConfig,
        probe_run: bool,
    ) -> (RunReport, RunReport, f64) {
        let lib = self.library(cfg);
        let system = || VodSystem::with_library(cfg.clone(), Arc::clone(&lib));
        let no_cancel = || AtomicU32::new(u32::MAX);

        let t = Instant::now();
        let plain = if probe_run {
            system().run_glitch_probe(&no_cancel(), 0)
        } else {
            system().run()
        };
        let plain_s = t.elapsed().as_secs_f64();

        let mut probe = std::mem::take(&mut self.probe);
        probe.disks = cfg.topology.total_disks() as u64;
        probe.nodes = cfg.topology.nodes as u64;
        let start = self.now_ns();
        let t = Instant::now();
        let traced = system().attach_probe(probe);
        let (traced, probe) = if probe_run {
            let (r, _, p) =
                traced.run_glitch_probe_abortable_traced(&no_cancel(), 0, &AtomicBool::new(false));
            (r, p)
        } else {
            traced.run_traced()
        };
        self.traced_s += t.elapsed().as_secs_f64();
        self.probe = probe;
        self.spans.push(Span {
            name: "probe_run",
            op,
            terminals: cfg.n_terminals,
            start_ns: start,
            end_ns: self.now_ns(),
            events: traced.events_processed,
        });

        self.plain_s += plain_s;
        self.events += plain.events_processed;
        self.probe.counts.add_report(&plain);
        (plain, traced, plain_s)
    }

    /// Replay capacity search `op` of `cfg` whose probe list is `probes`
    /// and whose counted events are `counted`. Returns the untraced wall
    /// seconds of its probe runs.
    pub fn search(
        &mut self,
        op: u32,
        cfg: &SystemConfig,
        probes: &[(u32, u64)],
        counted: u64,
    ) -> f64 {
        let (start, before) = (self.now_ns(), self.events);
        let mut plain_s = 0.0;
        let mut agrees = true;
        for &(n, glitches) in probes {
            let mut c = cfg.clone();
            c.n_terminals = n;
            c.seed = replication_seed(cfg.seed, 0);
            let (plain, traced, s) = self.run_twice(op, &c, true);
            agrees &= plain == traced && plain.glitches == glitches;
            plain_s += s;
        }
        agrees &= self.events - before == counted;
        self.mismatches += !agrees as u64;
        self.op_span(op, start, before);
        plain_s
    }

    /// Replay steady-state run `op` of `cfg` that reported `expected`.
    pub fn run(&mut self, op: u32, cfg: &SystemConfig, expected: &RunReport) {
        let (start, before) = (self.now_ns(), self.events);
        let (plain, traced, _) = self.run_twice(op, cfg, false);
        self.mismatches += !(plain == traced && plain == *expected) as u64;
        self.op_span(op, start, before);
    }

    fn op_span(&mut self, op: u32, start_ns: u64, events_before: u64) {
        self.spans.push(Span {
            name: "op",
            op,
            terminals: 0,
            start_ns,
            end_ns: self.now_ns(),
            events: self.events - events_before,
        });
    }

    /// Pending calendar events once every terminal of `cfg` has joined
    /// (at replication 0's seed): the depth the event kernel runs at.
    pub fn pending_depth(&mut self, cfg: &SystemConfig) -> usize {
        let mut c = cfg.clone();
        c.seed = replication_seed(cfg.seed, 0);
        let lib = self.library(&c);
        let mut sys = VodSystem::with_library(c, lib);
        sys.replay_to_snapshot();
        sys.pending_events()
    }

    /// Close the workload span and write every span as a JSON line to
    /// `path`. Returns the number of spans written.
    pub fn write_spans(
        &mut self,
        path: &std::path::Path,
        workload: &str,
    ) -> std::io::Result<usize> {
        use std::fmt::Write as _;
        self.spans.push(Span {
            name: "workload",
            op: 0,
            terminals: 0,
            start_ns: 0,
            end_ns: self.now_ns(),
            events: self.events,
        });
        let mut s = String::new();
        for sp in &self.spans {
            let _ = writeln!(
                s,
                "{{\"workload\":\"{workload}\",\"name\":\"{}\",\"op\":{},\"terminals\":{},\"start_ns\":{},\"end_ns\":{},\"events\":{}}}",
                sp.name, sp.op, sp.terminals, sp.start_ns, sp.end_ns, sp.events
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)?;
        Ok(self.spans.len())
    }
}
