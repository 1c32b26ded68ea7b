//! Large-population determinism probe for CI.
//!
//! Runs a glitch curve and a bracketed capacity search on a ~4k-terminal
//! server (128 nodes × 4 disks, 32 terminals per node at the curve's low
//! end) through the experiment engine, printing only deterministic facts:
//! glitch counts, event counts, capacities. CI invokes this binary under
//! different engine shapes (`SPIFFI_THREADS=1` vs `8`) and diffs the
//! outputs byte-for-byte — the large-population scaling path gets the
//! same determinism contract as the small configs in
//! `examples/capacity_planning.rs`.
//!
//! The one line that legitimately varies with engine shape is prefixed
//! `experiment engine:` so the harness can filter it, mirroring the
//! capacity-planning example.

use spiffi_core::{CapacitySearch, Engine, SystemConfig};
use spiffi_mpeg::AccessPattern;
use spiffi_simcore::SimDuration;

/// The scale shape: 128 nodes × 4 disks, uniform access over 64
/// one-minute titles, 32 MB of buffer per node, short schedule. Matches
/// the `perf_baseline` scale section at its 4 096-terminal point.
fn scale_config() -> SystemConfig {
    let mut c = SystemConfig::small_test();
    let nodes = 128;
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
    c.n_terminals = 4_096;
    c.seed = 0x005b_1ff1_9e4f;
    c
}

fn main() {
    let cfg = scale_config();
    let engine = Engine::new();
    println!("experiment engine: {} thread(s)", engine.threads());
    println!(
        "scale shape: {} nodes x {} disks, {} videos\n",
        cfg.topology.nodes, cfg.topology.disks_per_node, cfg.n_videos
    );

    println!("glitch curve:");
    println!(
        "{:>10} {:>10} {:>12} {:>12}",
        "terminals", "glitches", "events", "disk util %"
    );
    for n in [3_584, 4_096, 4_608, 5_632, 6_656] {
        let mut c = cfg.clone();
        c.n_terminals = n;
        let r = engine.run(&c);
        println!(
            "{:>10} {:>10} {:>12} {:>12.1}",
            n,
            r.glitches,
            r.events_processed,
            r.avg_disk_utilization * 100.0
        );
    }

    println!("\nbracketed capacity search:");
    let search = CapacitySearch {
        lo: 4_096,
        hi: 7_168,
        step: 512,
        replications: 1,
    };
    let result = engine.max_glitch_free_terminals(&cfg, &search);
    for (n, g) in &result.probes {
        println!("  probed {n:>5} terminals -> {g} glitches");
    }
    println!(
        "\nmax glitch-free terminals on {} disks: {}",
        cfg.topology.total_disks(),
        result.max_terminals
    );
}
