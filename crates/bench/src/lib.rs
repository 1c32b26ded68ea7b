//! Experiment harness shared by the per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§7–§8). They share:
//!
//! * [`Preset`] — `--fast` (short measurement windows, single replication;
//!   minutes) vs `--full` (the defaults; paper-faithful windows and two
//!   replications per probe).
//! * [`Harness`] — a preset plus a [`spiffi_core::Engine`]: capacity
//!   searches and reports run on the parallel experiment engine
//!   (`SPIFFI_THREADS` threads), one library cache serves the whole
//!   binary, and [`Harness::sweep`] fans independent grid points across
//!   threads with results in grid order.
//! * [`base_16_disk`] — §7's base configuration: 4 processors × 4 disks,
//!   64 one-hour videos, Zipf z = 1, 512 KB stripes, 2 MB terminals.
//! * [`Table`] — fixed-width table printing so each binary's output reads
//!   like the paper's figures.

#![warn(missing_docs)]

use spiffi_core::driver::fan_out;
use spiffi_core::{
    max_glitch_free_terminals, CapacityResult, CapacitySearch, Engine, RunReport, RunTiming,
    SystemConfig,
};

/// Experiment scale selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Short windows, single replication: minutes per figure.
    Fast,
    /// Paper-faithful windows, two replications per probe.
    Full,
}

impl Preset {
    /// Parse from process arguments: `--fast` (default) or `--full`.
    pub fn from_args() -> Preset {
        let mut preset = Preset::Fast;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--fast" => preset = Preset::Fast,
                "--full" => preset = Preset::Full,
                "--help" | "-h" => {
                    eprintln!("usage: [--fast|--full]   (default --fast)");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument {other}; try --fast or --full");
                    std::process::exit(2);
                }
            }
        }
        preset
    }

    /// The simulation schedule for this preset.
    pub fn timing(self) -> RunTiming {
        match self {
            Preset::Fast => RunTiming::fast(),
            Preset::Full => RunTiming::default(),
        }
    }

    /// Capacity-search parameters bracketing `[lo, hi]` terminals.
    pub fn search(self, lo: u32, hi: u32) -> CapacitySearch {
        match self {
            Preset::Fast => CapacitySearch {
                lo,
                hi,
                step: 10,
                replications: 1,
            },
            Preset::Full => CapacitySearch {
                lo,
                hi,
                step: 5,
                replications: 2,
            },
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Preset::Fast => "fast",
            Preset::Full => "full",
        }
    }
}

/// §7's base configuration with this preset's timing applied.
pub fn base_16_disk(preset: Preset) -> SystemConfig {
    let mut c = SystemConfig::paper_base();
    c.timing = preset.timing();
    c
}

/// A [`Preset`] bound to a parallel experiment [`Engine`].
///
/// One harness should live for a whole binary: every capacity search and
/// report it runs shares the engine's library cache (grid points that vary
/// schedulers, memory or stripe sizes reuse identical libraries instead of
/// regenerating them), and [`Harness::sweep`] fans independent grid points
/// across the engine's threads. All results are byte-identical at any
/// thread count, so `--fast`/`--full` output is reproducible no matter
/// what `SPIFFI_THREADS` says.
pub struct Harness {
    preset: Preset,
    engine: Engine,
}

impl Harness {
    /// A harness for the preset chosen on the command line, with the
    /// ambient (`SPIFFI_THREADS`) thread budget.
    pub fn from_args() -> Harness {
        Harness::new(Preset::from_args())
    }

    /// A harness for `preset` with the ambient thread budget.
    pub fn new(preset: Preset) -> Harness {
        Harness {
            preset,
            engine: Engine::new(),
        }
    }

    /// The preset in force.
    pub fn preset(&self) -> Preset {
        self.preset
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Run one configuration to completion on the engine (cached library).
    pub fn report(&self, cfg: &SystemConfig) -> RunReport {
        self.engine.run(cfg)
    }

    /// Capacity search with the preset's parameters and the standard
    /// 16-disk brackets.
    pub fn capacity(&self, cfg: &SystemConfig) -> CapacityResult {
        self.capacity_bracketed(cfg, 20, 400)
    }

    /// Capacity search with custom brackets (scale-up experiments).
    pub fn capacity_bracketed(&self, cfg: &SystemConfig, lo: u32, hi: u32) -> CapacityResult {
        self.engine
            .max_glitch_free_terminals(cfg, &self.preset.search(lo, hi))
    }

    /// Evaluate `f` at every grid point, concurrently, returning results
    /// in grid order (so tables print exactly as the sequential loop
    /// would).
    ///
    /// The closure receives a harness whose *single-threaded* engine is a
    /// [`Engine::sibling`] of this one: same library and probe caches,
    /// same journal. The parallelism budget is
    /// spent across grid points here, not nested inside each point's
    /// searches, while capacity probes already resolved by earlier
    /// searches (or another grid point over the same configuration) replay
    /// from the shared probe cache.
    pub fn sweep<X, R, F>(&self, points: Vec<X>, f: F) -> Vec<R>
    where
        X: Sync,
        R: Send,
        F: Fn(&Harness, &X) -> R + Sync,
    {
        let inner = Harness {
            preset: self.preset,
            engine: self.engine.sibling(1),
        };
        fan_out(points.len(), self.engine.threads(), |i| {
            f(&inner, &points[i])
        })
    }
}

/// Run a capacity search with the preset's parameters and standard
/// brackets for a 16-disk system.
///
/// Convenience wrapper over a transient engine; binaries sweeping a grid
/// should use a [`Harness`] so the library cache persists.
pub fn capacity(cfg: &SystemConfig, preset: Preset) -> CapacityResult {
    max_glitch_free_terminals(cfg, &preset.search(20, 400))
}

/// Run a capacity search with custom brackets (scale-up experiments).
pub fn capacity_bracketed(cfg: &SystemConfig, preset: Preset, lo: u32, hi: u32) -> CapacityResult {
    max_glitch_free_terminals(cfg, &preset.search(lo, hi))
}

/// Fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// A table whose columns have the given widths; prints the header row.
    pub fn new(headers: &[&str], widths: &[usize]) -> Self {
        assert_eq!(headers.len(), widths.len());
        let t = Table {
            widths: widths.to_vec(),
        };
        t.row(headers);
        t.rule();
        t
    }

    /// Print one row of right-aligned cells.
    pub fn row(&self, cells: &[&str]) {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{cell:>w$}  "));
        }
        println!("{}", line.trim_end());
    }

    /// Print a horizontal rule.
    pub fn rule(&self) {
        let total: usize = self.widths.iter().map(|w| w + 2).sum();
        println!("{}", "-".repeat(total.saturating_sub(2)));
    }
}

/// Print the experiment banner every binary starts with.
pub fn banner(what: &str, preset: Preset) {
    println!("== SPIFFI reproduction: {what} ==");
    println!(
        "preset: {} (use --full for paper-faithful windows)\n",
        preset.label()
    );
}

/// Format a byte count as binary megabytes (the paper's "Mbytes").
pub fn mb(bytes: u64) -> String {
    format!("{}", bytes / (1024 * 1024))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_sensibly() {
        assert!(Preset::Fast.timing().total() < Preset::Full.timing().total());
        let f = Preset::Fast.search(50, 400);
        let l = Preset::Full.search(50, 400);
        assert!(f.replications < l.replications);
        assert!(f.step > l.step);
    }

    #[test]
    fn base_config_is_paper_base_with_timing() {
        let c = base_16_disk(Preset::Fast);
        assert_eq!(c.topology.total_disks(), 16);
        assert_eq!(c.n_videos, 64);
        assert_eq!(c.timing.total(), Preset::Fast.timing().total());
    }

    #[test]
    fn mb_formats_binary_megabytes() {
        assert_eq!(mb(512 * 1024 * 1024), "512");
        assert_eq!(mb(4096 * 1024 * 1024), "4096");
    }

    #[test]
    fn sweep_preserves_grid_order_and_shares_the_cache() {
        let h = Harness::new(Preset::Fast);
        let mut cfg = SystemConfig::small_test();
        cfg.n_terminals = 2;
        // Vary a field the library does not depend on: every point must
        // reuse one cached library.
        let points: Vec<u64> = vec![2, 3, 4];
        let reports = h.sweep(points.clone(), |inner, &mem_mb| {
            let mut c = cfg.clone();
            c.server_memory_bytes = mem_mb * 1024 * 1024;
            inner.report(&c)
        });
        assert_eq!(reports.len(), 3);
        assert_eq!(h.engine().cache().misses(), 1, "library regenerated");
        // Grid order, not completion order.
        let direct = {
            let mut c = cfg.clone();
            c.server_memory_bytes = 3 * 1024 * 1024;
            spiffi_core::run_once(&c)
        };
        assert_eq!(reports[1], direct);
    }

    #[test]
    fn sweep_runs_points_on_the_harness_probe_cache_and_journal() {
        // Every grid point's search must land in the harness engine's
        // probe cache and journal, so a repeated sweep replays instead of
        // re-simulating and the journal accounts for every point.
        let h = Harness {
            preset: Preset::Fast,
            engine: Engine::with_threads(2),
        };
        let mut cfg = SystemConfig::small_test();
        cfg.topology = spiffi_layout::Topology {
            nodes: 1,
            disks_per_node: 1,
        };
        let search = CapacitySearch {
            lo: 2,
            hi: 8,
            step: 2,
            replications: 1,
        };
        let sweep = || {
            h.sweep(vec![16u64, 32], |inner, &mem_mb| {
                assert_eq!(inner.engine().threads(), 1);
                let mut c = cfg.clone();
                c.server_memory_bytes = mem_mb * 1024 * 1024;
                inner
                    .engine()
                    .max_glitch_free_terminals(&c, &search)
                    .max_terminals
            })
        };
        let caps = sweep();
        assert_eq!(caps.len(), 2);
        let cached = h.engine().probe_cache().len();
        assert!(cached > 0, "no probe outcome reached the harness cache");
        assert_eq!(h.engine().journal().snapshot().searches, 2);
        assert_eq!(sweep(), caps, "a repeated sweep changed its answers");
        assert_eq!(
            h.engine().probe_cache().len(),
            cached,
            "a repeated sweep must replay, not re-simulate"
        );
        assert_eq!(h.engine().journal().snapshot().searches, 4);
    }
}

/// The four base configurations of the §7.6 scale-up study (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScaleupVariant {
    /// Elevator, 2 MB terminals, 128 MB server memory (at base scale).
    ElevatorLean,
    /// Elevator, 2.5 MB terminals, 128 MB server memory.
    ElevatorBigTerm,
    /// Elevator, 2 MB terminals, 512 MB server memory.
    ElevatorBigMem,
    /// Real-time (3 classes, 4 s), love prefetch + delayed prefetching
    /// (8 s), 2 MB terminals, 512 MB server memory.
    RealTimeTuned,
}

impl ScaleupVariant {
    /// All four variants in Table 2's row order.
    pub fn all() -> [ScaleupVariant; 4] {
        [
            ScaleupVariant::ElevatorLean,
            ScaleupVariant::ElevatorBigTerm,
            ScaleupVariant::ElevatorBigMem,
            ScaleupVariant::RealTimeTuned,
        ]
    }

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            ScaleupVariant::ElevatorLean => "elevator 2MB/128MB",
            ScaleupVariant::ElevatorBigTerm => "elevator 2.5MB/128MB",
            ScaleupVariant::ElevatorBigMem => "elevator 2MB/512MB",
            ScaleupVariant::RealTimeTuned => "real-time 2MB/512MB",
        }
    }
}

/// Build the §7.6 configuration for a variant at scale factor 1, 2 or 4:
/// disks, videos and server memory scale together; 4 CPUs and everything
/// else stay fixed.
pub fn scaleup_config(variant: ScaleupVariant, scale: u32, preset: Preset) -> SystemConfig {
    use spiffi_bufferpool::PolicyKind;
    use spiffi_prefetch::PrefetchKind;
    use spiffi_sched::SchedulerKind;
    use spiffi_simcore::SimDuration;

    assert!(matches!(scale, 1 | 2 | 4), "Table 2 scales are x1/x2/x4");
    let mut c = base_16_disk(preset);
    c.topology = spiffi_layout::Topology {
        nodes: 4,
        disks_per_node: 4 * scale,
    };
    c.n_videos = (4 * c.topology.total_disks()) as usize;
    c.policy = PolicyKind::LovePrefetch;
    let base_mem_mb: u64 = match variant {
        ScaleupVariant::ElevatorLean | ScaleupVariant::ElevatorBigTerm => 128,
        ScaleupVariant::ElevatorBigMem | ScaleupVariant::RealTimeTuned => 512,
    };
    c.server_memory_bytes = base_mem_mb * scale as u64 * 1024 * 1024;
    c.terminal_memory_bytes = match variant {
        ScaleupVariant::ElevatorBigTerm => 5 * 1024 * 1024 / 2,
        _ => 2 * 1024 * 1024,
    };
    match variant {
        ScaleupVariant::RealTimeTuned => {
            c.scheduler = SchedulerKind::RealTime {
                classes: 3,
                spacing: SimDuration::from_secs(4),
            };
            c.prefetch = PrefetchKind::Delayed {
                processes: 4,
                max_advance: SimDuration::from_secs(8),
            };
        }
        _ => {
            c.scheduler = SchedulerKind::Elevator;
            c.prefetch = spiffi_core::default_prefetch_for(c.scheduler);
        }
    }
    c
}

/// Capacity-search brackets appropriate for a Table 2 scale factor.
pub fn scaleup_brackets(scale: u32) -> (u32, u32) {
    match scale {
        1 => (50, 400),
        2 => (100, 700),
        _ => (200, 1300),
    }
}
