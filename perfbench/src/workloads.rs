//! The benchmark's three workloads: how their inputs are built from the
//! workload seed, the operation each one times, and the answers it must
//! reproduce.

use std::time::Instant;

use spiffi_bench::{
    base_16_disk, scaleup_brackets, scaleup_config, Harness, Preset, ScaleupVariant,
};
use spiffi_bufferpool::PolicyKind;
use spiffi_core::{CapacityResult, CapacitySearch, Engine, RunReport, SystemConfig, VodSystem};
use spiffi_mpeg::AccessPattern;
use spiffi_simcore::SimDuration;

use crate::reference;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 11's memory × policy grid through `Harness::sweep`.
    Fig11MemorySweep,
    /// Table 2's real-time ×4 scale-up capacity search.
    RtScaleupX4,
    /// One memory-resident 16k-terminal steady-state run.
    Steady16k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig11MemorySweep,
        Workload::RtScaleupX4,
        Workload::Steady16k,
    ];

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig11MemorySweep => "fig11_memory_sweep",
            Workload::RtScaleupX4 => "rt_scaleup_x4",
            Workload::Steady16k => "steady_16k",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host threads the workload runs on. Fixed by the workload, never
    /// taken from the environment.
    pub fn threads(self) -> usize {
        match self {
            Workload::Fig11MemorySweep | Workload::RtScaleupX4 => 2,
            Workload::Steady16k => 1,
        }
    }

    /// Operations (capacity searches or runs) in one timed repetition.
    pub fn ops_per_rep(self) -> u64 {
        match self {
            Workload::Fig11MemorySweep => (FIG11_MEMORY_MB.len() * FIG11_POLICIES.len()) as u64,
            Workload::RtScaleupX4 | Workload::Steady16k => 1,
        }
    }

    /// The seed the timed repetitions run at for workload seed `seed`.
    ///
    /// A capacity search's cost is a discontinuous function of its seed:
    /// when the first mid-bracket probe glitches, the bisection walks down
    /// through clean, full-length probes; otherwise it walks up through
    /// glitching, truncated ones. At `rt_scaleup_x4` that moves one
    /// search's counted events between 4.8M and 8.2M across seeds 1..10,
    /// which would swamp any host-time change. The capacity workloads
    /// therefore time the published configuration at its stock seed and
    /// run `seed` once more, untimed, as a held-out input checked against
    /// a one-thread run. The steady run's cost does not depend on the
    /// seed, so it is timed at `seed`.
    pub fn timed_seed(self, seed: u64) -> u64 {
        match self {
            Workload::Fig11MemorySweep | Workload::RtScaleupX4 => DEFAULT_SEED,
            Workload::Steady16k => seed,
        }
    }

    /// Build the inputs of one timed repetition. This is the set-up the
    /// benchmark reports as `setup_s`.
    pub fn setup(self, seed: u64) -> Inputs {
        match self {
            Workload::Fig11MemorySweep => Inputs::Sweep {
                harness: Harness::new(Preset::Fast),
                grid: fig11_grid(seed),
            },
            Workload::RtScaleupX4 => {
                let (cfg, search) = rt_scaleup(seed);
                Inputs::Search {
                    engine: Engine::with_threads(self.threads()),
                    cfg,
                    search,
                }
            }
            Workload::Steady16k => {
                let cfg = steady(seed);
                let library = VodSystem::generate_library(&cfg);
                Inputs::Steady {
                    sys: VodSystem::with_library(cfg, library),
                }
            }
        }
    }

    /// The answers every repetition must reproduce: the pinned reference
    /// at the default seed, otherwise a one-thread run of the same
    /// searches (the steady run is checked for being glitch-free and
    /// identical across repetitions).
    pub fn expected(self, seed: u64) -> Vec<Answer> {
        if seed == DEFAULT_SEED {
            return reference::answers(self);
        }
        let one_thread = Engine::with_threads(1);
        match self {
            Workload::Fig11MemorySweep => fig11_grid(seed)
                .iter()
                .map(|c| Answer::of(&one_thread.max_glitch_free_terminals(c, &fig11_search())))
                .collect(),
            Workload::RtScaleupX4 => {
                let (cfg, search) = rt_scaleup(seed);
                vec![Answer::of(
                    &one_thread.max_glitch_free_terminals(&cfg, &search),
                )]
            }
            Workload::Steady16k => Vec::new(),
        }
    }
}

/// The workload seed whose answers are pinned in [`reference`]. It keeps
/// every configuration's stock seed, so its answers are the figure
/// binaries' answers.
pub const DEFAULT_SEED: u64 = 0;

/// The configuration seed for workload seed `seed`: the stock seed at the
/// default, a golden-ratio offset of it otherwise.
fn reseed(stock: u64, seed: u64) -> u64 {
    stock.wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Figure 11's server memory sizes, in MiB.
pub const FIG11_MEMORY_MB: [u64; 5] = [128, 256, 512, 1024, 4096];

/// Figure 11's replacement policies.
pub const FIG11_POLICIES: [PolicyKind; 2] = [PolicyKind::GlobalLru, PolicyKind::LovePrefetch];

/// Figure 11's grid in the figure binary's order (memory-major).
pub fn fig11_grid(seed: u64) -> Vec<SystemConfig> {
    FIG11_MEMORY_MB
        .iter()
        .flat_map(|&m| {
            FIG11_POLICIES.iter().map(move |&policy| {
                let mut c = base_16_disk(Preset::Fast);
                c.server_memory_bytes = m * 1024 * 1024;
                c.policy = policy;
                c.seed = reseed(c.seed, seed);
                c
            })
        })
        .collect()
}

/// The search `Harness::capacity` runs for every Figure 11 point.
pub fn fig11_search() -> CapacitySearch {
    Preset::Fast.search(20, 400)
}

/// Table 2's real-time ×4 configuration and its search.
pub fn rt_scaleup(seed: u64) -> (SystemConfig, CapacitySearch) {
    let mut cfg = scaleup_config(ScaleupVariant::RealTimeTuned, 4, Preset::Fast);
    cfg.seed = reseed(cfg.seed, seed);
    let (lo, hi) = scaleup_brackets(4);
    (cfg, Preset::Fast.search(lo, hi))
}

/// Terminals in the steady-state run.
pub const STEADY_TERMINALS: u32 = 16_384;

/// The steady-state configuration: 512 nodes × 4 disks serving 64
/// one-minute titles to 16k terminals, everything memory-resident.
pub fn steady(seed: u64) -> SystemConfig {
    let mut c = SystemConfig::small_test();
    let nodes = STEADY_TERMINALS / 32;
    c.topology = spiffi_layout::Topology {
        nodes,
        disks_per_node: 4,
    };
    c.n_videos = 64;
    c.access = AccessPattern::Uniform;
    c.video.duration = SimDuration::from_secs(60);
    c.server_memory_bytes = nodes as u64 * 32 * 1024 * 1024;
    c.timing.stagger = SimDuration::from_secs(5);
    c.timing.warmup = SimDuration::from_secs(10);
    c.timing.measure = SimDuration::from_secs(20);
    c.n_terminals = STEADY_TERMINALS;
    c.seed = reseed(0x005b_1ff1_9e4f, seed);
    c
}

/// What one capacity search must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Largest glitch-free terminal count found.
    pub max_terminals: u32,
    /// Every probe: (terminals, glitches).
    pub probes: Vec<(u32, u64)>,
}

impl Answer {
    /// The answer part of a search result.
    pub fn of(r: &CapacityResult) -> Answer {
        Answer {
            max_terminals: r.max_terminals,
            probes: r.probes.clone(),
        }
    }
}

/// Inputs of one timed repetition, built by [`Workload::setup`]. One
/// exists at a time, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// A fresh harness and the grid it sweeps.
    Sweep {
        /// Fresh harness: cold library and probe caches.
        harness: Harness,
        /// Grid points, in order.
        grid: Vec<SystemConfig>,
    },
    /// A fresh engine and the one search it runs.
    Search {
        /// Fresh engine: cold caches.
        engine: Engine,
        /// Configuration searched.
        cfg: SystemConfig,
        /// Search brackets.
        search: CapacitySearch,
    },
    /// A fully built system ready to run.
    Steady {
        /// The system, terminals and library built.
        sys: VodSystem,
    },
}

/// The capacity searches of one repetition.
pub struct Searches {
    /// Configuration of each search.
    pub configs: Vec<SystemConfig>,
    /// Result of each search.
    pub results: Vec<CapacityResult>,
    /// Wall seconds of each search.
    pub walls: Vec<f64>,
    /// Library generations the engine's cache performed.
    pub library_misses: u64,
    /// Probe outcomes the engine's probe cache served.
    pub probe_hits: u64,
}

/// What one timed repetition produced (a handful per run, so the
/// variants' sizes do not matter).
#[allow(clippy::large_enum_variant)]
pub enum Output {
    /// Capacity searches.
    Searches(Searches),
    /// One steady-state run.
    Run(RunReport),
}

/// Run one repetition: the timed part of a workload.
pub fn run(inputs: Inputs) -> Output {
    match inputs {
        Inputs::Sweep { harness, grid } => {
            let timed = harness.sweep(grid.clone(), |inner, c| {
                let t = Instant::now();
                let r = inner.capacity(c);
                (r, t.elapsed().as_secs_f64())
            });
            let (results, walls) = timed.into_iter().unzip();
            Output::Searches(Searches {
                configs: grid,
                results,
                walls,
                library_misses: harness.engine().cache().misses(),
                probe_hits: harness.engine().probe_cache().hits(),
            })
        }
        Inputs::Search {
            engine,
            cfg,
            search,
        } => {
            let t = Instant::now();
            let r = engine.max_glitch_free_terminals(&cfg, &search);
            let wall = t.elapsed().as_secs_f64();
            Output::Searches(Searches {
                configs: vec![cfg],
                results: vec![r],
                walls: vec![wall],
                library_misses: engine.cache().misses(),
                probe_hits: engine.probe_cache().hits(),
            })
        }
        Inputs::Steady { sys } => Output::Run(sys.run()),
    }
}
