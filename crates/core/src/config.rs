//! System configuration: every knob the paper's experiments turn.

use spiffi_bufferpool::PolicyKind;
use spiffi_cpu::CpuParams;
use spiffi_disk::DiskParams;
use spiffi_layout::{Placement, Topology};
use spiffi_mpeg::{AccessPattern, VideoParams};
use spiffi_net::NetParams;
use spiffi_prefetch::PrefetchKind;
use spiffi_sched::SchedulerKind;
use spiffi_simcore::SimDuration;

/// Kibibyte.
pub const KB: u64 = 1024;
/// Mebibyte.
pub const MB: u64 = 1024 * 1024;

/// Pause behaviour for the §8.1 experiment (Figure 19): "each terminal
/// paused each video on average twice for an average of 2 minutes."
#[derive(Clone, Copy, Debug)]
pub struct PauseConfig {
    /// Mean number of pauses per video (Poisson over the title length).
    pub mean_pauses_per_video: f64,
    /// Mean pause duration (exponential).
    pub mean_duration: SimDuration,
}

impl Default for PauseConfig {
    fn default() -> Self {
        PauseConfig {
            mean_pauses_per_video: 2.0,
            mean_duration: SimDuration::from_secs(120),
        }
    }
}

/// Where a terminal's *first* title begins playing.
///
/// The paper runs hours of simulated time so that, in steady state,
/// viewing positions are spread uniformly across each title (all titles
/// are the same length, so closed-loop rollover preserves the spread).
/// `UniformWithinVideo` jumps straight to that steady state by starting
/// each terminal's first viewing at a random position; every subsequent
/// title then starts from its beginning at an already-decorrelated time.
/// `Start` plays the first title from frame 0 (useful for tests and the
/// piggybacking study, where start alignment is the point).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialPosition {
    /// First title starts at frame 0.
    Start,
    /// First title starts at a uniformly random frame.
    UniformWithinVideo,
}

/// Simulation schedule: staggered starts, warm-up, measurement window.
///
/// "When a simulation begins, the terminals start movies at random
/// intervals. Once all the terminals have begun watching videos, the
/// simulator begins collecting performance and utilization data. The
/// simulation continues for a fixed period of simulated time and then is
/// terminated abruptly."
#[derive(Clone, Copy, Debug)]
pub struct RunTiming {
    /// Terminals start uniformly at random within `[0, stagger)`.
    pub stagger: SimDuration,
    /// Statistics collection begins at `warmup` (must exceed `stagger`
    /// plus priming time).
    pub warmup: SimDuration,
    /// Length of the measurement window; the run ends at
    /// `warmup + measure`.
    pub measure: SimDuration,
}

impl Default for RunTiming {
    fn default() -> Self {
        RunTiming {
            stagger: SimDuration::from_secs(60),
            warmup: SimDuration::from_secs(150),
            measure: SimDuration::from_secs(600),
        }
    }
}

impl RunTiming {
    /// A shorter schedule for quick experiments (`--fast` presets).
    pub fn fast() -> Self {
        RunTiming {
            stagger: SimDuration::from_secs(30),
            warmup: SimDuration::from_secs(60),
            measure: SimDuration::from_secs(180),
        }
    }

    /// Total simulated run length.
    pub fn total(&self) -> SimDuration {
        self.warmup + self.measure
    }
}

/// Full configuration of one simulated video server + workload.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Server shape (paper base: 4 nodes × 4 disks).
    pub topology: Topology,
    /// Number of titles in the library (paper: 4 per disk).
    pub n_videos: usize,
    /// Stream parameters of every title.
    pub video: VideoParams,
    /// Title popularity model (paper default: Zipf z = 1).
    pub access: AccessPattern,
    /// Striped or non-striped placement.
    pub placement: Placement,
    /// Stripe size (and read size), bytes.
    pub stripe_bytes: u64,
    /// Aggregate server memory across all nodes, bytes.
    pub server_memory_bytes: u64,
    /// Buffer memory per terminal, bytes (paper: 2 MB ≈ 4 s of video).
    pub terminal_memory_bytes: u64,
    /// Number of active terminals (the closed population).
    pub n_terminals: u32,
    /// Disk scheduling algorithm.
    pub scheduler: SchedulerKind,
    /// Buffer pool page replacement policy.
    pub policy: PolicyKind,
    /// Prefetching strategy.
    pub prefetch: PrefetchKind,
    /// Drive model (cylinder count is auto-sized from the layout).
    pub disk: DiskParams,
    /// Node CPU model.
    pub cpu: CpuParams,
    /// Network model.
    pub net: NetParams,
    /// Optional pause workload (§8.1).
    pub pause: Option<PauseConfig>,
    /// Optional piggybacking with the given batching delay (§8.2).
    pub piggyback_delay: Option<SimDuration>,
    /// Store §8.1 search versions of every title at this speed-up, for
    /// smooth fast-forward/rewind via
    /// [`VodSystem::schedule_smooth_search`](crate::VodSystem::schedule_smooth_search).
    /// Costs `1/speedup` extra disk space. Requires striped placement.
    pub search_speedup: Option<u32>,
    /// Initial viewing position of each terminal's first title.
    pub initial_position: InitialPosition,
    /// Simulation schedule.
    pub timing: RunTiming,
    /// Master random seed; replications vary this.
    pub seed: u64,
    /// Optional fault-injection scenario (scheduled perturbations plus an
    /// optional bitrate-heterogeneous library). `None` is a clean run.
    pub scenario: Option<crate::scenario::Scenario>,
}

impl SystemConfig {
    /// The paper's base configuration from §7: 4 processors × 4 disks,
    /// 64 one-hour videos, Zipf z = 1, 512 KB stripes, 4 GB of server
    /// memory, global LRU, elevator scheduling, 2 MB terminals.
    pub fn paper_base() -> Self {
        let topology = Topology {
            nodes: 4,
            disks_per_node: 4,
        };
        SystemConfig {
            topology,
            n_videos: (4 * topology.total_disks()) as usize,
            video: VideoParams::default(),
            access: AccessPattern::Zipf(1.0),
            placement: Placement::Striped,
            stripe_bytes: 512 * KB,
            server_memory_bytes: 4096 * MB,
            terminal_memory_bytes: 2 * MB,
            n_terminals: 200,
            scheduler: SchedulerKind::Elevator,
            policy: PolicyKind::GlobalLru,
            prefetch: default_prefetch_for(SchedulerKind::Elevator),
            disk: DiskParams::default(),
            cpu: CpuParams::default(),
            net: NetParams::default(),
            pause: None,
            piggyback_delay: None,
            search_speedup: None,
            initial_position: InitialPosition::UniformWithinVideo,
            timing: RunTiming::default(),
            seed: 0x5b1ff1,
            scenario: None,
        }
    }

    /// A small configuration (2 × 2 disks, short videos, short windows)
    /// for tests and quick demos.
    pub fn small_test() -> Self {
        let topology = Topology {
            nodes: 2,
            disks_per_node: 2,
        };
        SystemConfig {
            topology,
            n_videos: (4 * topology.total_disks()) as usize,
            video: VideoParams {
                duration: SimDuration::from_secs(120),
                ..VideoParams::default()
            },
            access: AccessPattern::Zipf(1.0),
            placement: Placement::Striped,
            stripe_bytes: 512 * KB,
            server_memory_bytes: 256 * MB,
            terminal_memory_bytes: 2 * MB,
            n_terminals: 20,
            scheduler: SchedulerKind::Elevator,
            policy: PolicyKind::LovePrefetch,
            prefetch: default_prefetch_for(SchedulerKind::Elevator),
            disk: DiskParams::default(),
            cpu: CpuParams::default(),
            net: NetParams::default(),
            pause: None,
            piggyback_delay: None,
            search_speedup: None,
            initial_position: InitialPosition::Start,
            timing: RunTiming {
                stagger: SimDuration::from_secs(5),
                warmup: SimDuration::from_secs(15),
                measure: SimDuration::from_secs(60),
            },
            seed: 1,
            scenario: None,
        }
    }

    /// Set scheduler *and* retune prefetching for it, per §5.2.3: "In each
    /// experiment, the prefetching mechanism was configured to maximize
    /// the performance of the disk scheduling algorithm in use."
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self.prefetch = default_prefetch_for(scheduler);
        self
    }

    /// Buffer-pool frames per node.
    pub fn frames_per_node(&self) -> usize {
        let per_node = self.server_memory_bytes / self.topology.nodes as u64;
        (per_node / self.stripe_bytes).max(1) as usize
    }

    /// Sanity-check invariants; call before running.
    pub fn validate(&self) -> Result<(), String> {
        if self.topology.nodes == 0 || self.topology.disks_per_node == 0 {
            return Err("topology must have at least one node and disk".into());
        }
        if self.n_videos == 0 {
            return Err("library must contain at least one video".into());
        }
        match self.scheduler {
            SchedulerKind::Gss { groups: 0 } => {
                return Err("GSS needs at least one group".into());
            }
            SchedulerKind::RealTime { classes, spacing }
                if classes == 0 || spacing == SimDuration::ZERO =>
            {
                return Err(
                    "real-time scheduling needs at least one class and a positive spacing".into(),
                );
            }
            _ => {}
        }
        if let AccessPattern::Zipf(z) = self.access {
            if !(z >= 0.0 && z.is_finite()) {
                return Err(format!(
                    "Zipf skew must be finite and non-negative, not {z}"
                ));
            }
        }
        if let Placement::StripeGroup { width } = self.placement {
            let disks = self.topology.total_disks();
            if width == 0 || !disks.is_multiple_of(width) {
                return Err(format!(
                    "stripe-group width {width} must divide the {disks} disks"
                ));
            }
        }
        self.video.validate().map_err(|e| e.to_string())?;
        if let Some(speedup) = self.search_speedup {
            if speedup < 2 {
                return Err("search versions need a speed-up of at least 2".into());
            }
            let search = VideoParams {
                duration: self.video.duration / speedup as u64,
                ..self.video
            };
            search
                .validate()
                .map_err(|e| format!("search version: {e}"))?;
        }
        if let Some(mix) = self.scenario.as_ref().and_then(|s| s.mix) {
            let mixed = VideoParams {
                bit_rate_bps: mix.bit_rate_bps,
                ..self.video
            };
            mixed
                .validate()
                .map_err(|e| format!("scenario bitrate mix: {e}"))?;
        }
        if self.stripe_bytes == 0 {
            return Err("stripe size must be positive".into());
        }
        if self.terminal_memory_bytes < self.stripe_bytes {
            return Err(format!(
                "terminal memory ({}) must hold at least one stripe block ({})",
                self.terminal_memory_bytes, self.stripe_bytes
            ));
        }
        if self.frames_per_node() < 2 {
            return Err("server memory must hold at least two frames per node".into());
        }
        if self.placement == Placement::NonStriped
            && !self
                .n_videos
                .is_multiple_of(self.topology.total_disks() as usize)
        {
            return Err("non-striped placement needs videos divisible by disks".into());
        }
        if self.timing.warmup < self.timing.stagger {
            return Err("warmup must cover the start stagger".into());
        }
        if let Some(scenario) = &self.scenario {
            scenario
                .validate_against(&self.timing)
                .map_err(|e| e.to_string())?;
            for fault in &scenario.faults {
                match *fault {
                    crate::scenario::FaultSpec::DiskDeath { node, disk, .. }
                    | crate::scenario::FaultSpec::DiskDegrade { node, disk, .. } => {
                        if node >= self.topology.nodes || disk >= self.topology.disks_per_node {
                            return Err(format!(
                                "fault targets node {node} disk {disk}, outside the topology"
                            ));
                        }
                    }
                    crate::scenario::FaultSpec::AbandonBurst { .. } => {}
                }
                if matches!(fault, crate::scenario::FaultSpec::DiskDeath { .. })
                    && self.topology.disks_per_node < 2
                {
                    return Err(
                        "disk death needs a surviving disk on the node to fail over to".into(),
                    );
                }
            }
            // Chained failover resolves as long as one sibling survives;
            // a scenario that kills every disk on a node has nowhere left
            // to re-dispatch.
            for n in 0..self.topology.nodes {
                let deaths = scenario
                    .faults
                    .iter()
                    .filter(|f| {
                        matches!(f, crate::scenario::FaultSpec::DiskDeath { node, .. } if *node == n)
                    })
                    .count() as u32;
                if deaths >= self.topology.disks_per_node {
                    return Err(format!("scenario kills every disk on node {n}"));
                }
            }
        }
        Ok(())
    }
}

/// The paper's prefetch tuning per scheduler (§5.2.3 and §7.3): "The
/// non-real-time disk scheduling algorithms are hurt by aggressive
/// prefetching… with elevator, prefetching is severely limited to avoid
/// interfering with actual I/O requests from the terminals", while "the
/// real-time disk scheduling algorithm can identify and skip prefetches if
/// necessary and, therefore, benefits from aggressive prefetching."
pub fn default_prefetch_for(scheduler: SchedulerKind) -> PrefetchKind {
    match scheduler {
        SchedulerKind::RealTime { .. } | SchedulerKind::Edf => {
            PrefetchKind::RealTime { processes: 4 }
        }
        _ => PrefetchKind::Standard { processes: 1 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_base_matches_section_7() {
        let c = SystemConfig::paper_base();
        assert_eq!(c.topology.total_disks(), 16);
        assert_eq!(c.n_videos, 64);
        assert_eq!(c.stripe_bytes, 512 * KB);
        assert_eq!(c.server_memory_bytes, 4096 * MB);
        assert_eq!(c.terminal_memory_bytes, 2 * MB);
        assert_eq!(c.video.duration, SimDuration::from_secs(3600));
        assert!(c.validate().is_ok());
        // 1 GB per node at 512 KB frames = 2048 frames.
        assert_eq!(c.frames_per_node(), 2048);
    }

    #[test]
    fn with_scheduler_retunes_prefetch() {
        let c = SystemConfig::paper_base().with_scheduler(SchedulerKind::RealTime {
            classes: 3,
            spacing: SimDuration::from_secs(4),
        });
        assert!(matches!(c.prefetch, PrefetchKind::RealTime { .. }));
        let c = c.with_scheduler(SchedulerKind::RoundRobin);
        assert!(matches!(
            c.prefetch,
            PrefetchKind::Standard { processes: 1 }
        ));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = SystemConfig::small_test();
        c.terminal_memory_bytes = KB;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::small_test();
        c.server_memory_bytes = 512 * KB;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::small_test();
        c.placement = Placement::NonStriped;
        c.n_videos = 7;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::small_test();
        c.timing.warmup = SimDuration::ZERO;
        assert!(c.validate().is_err());

        // A 1x "search version" used to reach the library's assertion.
        let mut c = SystemConfig::small_test();
        c.search_speedup = Some(1);
        assert!(c.validate().is_err());
    }

    /// The validation error of `small_test` after `edit`.
    fn video_error(edit: impl FnOnce(&mut SystemConfig)) -> String {
        let mut c = SystemConfig::small_test();
        edit(&mut c);
        c.validate().expect_err("config should be refused")
    }

    #[test]
    fn validation_refuses_zero_fps() {
        let err = video_error(|c| c.video.fps = 0);
        assert_eq!(err, spiffi_mpeg::ParamsError::ZeroFps.to_string());
    }

    #[test]
    fn validation_refuses_zero_bit_rate() {
        let err = video_error(|c| c.video.bit_rate_bps = 0);
        assert_eq!(err, spiffi_mpeg::ParamsError::ZeroBitRate.to_string());
    }

    #[test]
    fn validation_refuses_titles_without_frames() {
        // `--video-secs 0` used to hang the simulator.
        let err = video_error(|c| c.video.duration = SimDuration::ZERO);
        assert_eq!(err, spiffi_mpeg::ParamsError::NoFrames.to_string());
        // Under one frame time (1/30 s) is still no frame.
        let err = video_error(|c| c.video.duration = SimDuration::from_millis(30));
        assert_eq!(err, spiffi_mpeg::ParamsError::NoFrames.to_string());
        // A search version a fraction of the title's length can be empty
        // even when the title is not.
        let err = video_error(|c| {
            c.video.duration = SimDuration::from_millis(100);
            c.search_speedup = Some(4);
        });
        assert!(err.starts_with("search version:"), "{err}");
    }

    #[test]
    fn validation_refuses_gops_beyond_u32_offsets() {
        // 37 × a 30 fps GOP's mean bytes reaches 2³² just under 1.86 Gbit/s.
        let mut c = SystemConfig::small_test();
        c.video.bit_rate_bps = 1_800_000_000;
        assert!(c.validate().is_ok());
        let err = video_error(|c| c.video.bit_rate_bps = 1_900_000_000);
        assert_eq!(
            err,
            spiffi_mpeg::ParamsError::GopTooLarge {
                bit_rate_bps: 1_900_000_000
            }
            .to_string()
        );
        // The scenario's alternate rate is held to the same bound.
        let err = video_error(|c| {
            c.scenario = Some(crate::scenario::Scenario {
                mix: Some(crate::scenario::BitrateMix {
                    every: 4,
                    bit_rate_bps: 1_900_000_000,
                }),
                ..Default::default()
            })
        });
        assert!(err.starts_with("scenario bitrate mix:"), "{err}");
        let err = video_error(|c| {
            c.scenario = Some(crate::scenario::Scenario {
                mix: Some(crate::scenario::BitrateMix {
                    every: 4,
                    bit_rate_bps: 0,
                }),
                ..Default::default()
            })
        });
        assert!(err.ends_with("bit rate must be positive"), "{err}");
    }

    #[test]
    fn timing_totals() {
        let t = RunTiming::default();
        assert_eq!(t.total(), t.warmup + t.measure);
        assert!(RunTiming::fast().total() < RunTiming::default().total());
    }

    #[test]
    fn pause_defaults_match_section_8_1() {
        let p = PauseConfig::default();
        assert_eq!(p.mean_pauses_per_video, 2.0);
        assert_eq!(p.mean_duration, SimDuration::from_secs(120));
    }
}
