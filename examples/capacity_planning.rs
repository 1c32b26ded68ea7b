//! Capacity planning: how many subscribers can a given server shape carry?
//!
//! Reproduces the paper's §7.1 methodology (Figure 9) on a small server:
//! sweep the terminal count, watch glitches go from zero to nonzero, then
//! let the bracketed capacity search pin down the knee.
//!
//! Run with: `cargo run --release --example capacity_planning`

use spiffi_vod::prelude::*;

fn main() {
    // One node with two disks, memory far below the working set — the
    // interesting regime where disk bandwidth is the binding resource.
    let mut cfg = SystemConfig::small_test();
    cfg.topology = Topology {
        nodes: 1,
        disks_per_node: 2,
    };
    cfg.n_videos = 32;
    cfg.access = AccessPattern::Uniform;
    cfg.server_memory_bytes = 32 * 1024 * 1024;

    // One engine for the whole session: probes run on up to
    // `engine_threads()` worker threads (override with SPIFFI_THREADS) and
    // every run shares one cached copy of the generated video library.
    let engine = Engine::new();
    println!("experiment engine: {} thread(s)\n", engine.threads());

    println!("glitch curve (the paper's Figure 9 procedure):");
    println!(
        "{:>10} {:>10} {:>12} {:>10}",
        "terminals", "glitches", "disk util %", "net MB/s"
    );
    for n in (4..=44).step_by(8) {
        let mut c = cfg.clone();
        c.n_terminals = n;
        let r = engine.run(&c);
        println!(
            "{:>10} {:>10} {:>12.1} {:>10.1}",
            n,
            r.glitches,
            r.avg_disk_utilization * 100.0,
            r.net_peak_bytes_per_sec / 1e6
        );
    }

    println!("\nbracketed capacity search:");
    let search = CapacitySearch {
        lo: 4,
        hi: 64,
        step: 2,
        replications: 2,
    };
    let result = engine.max_glitch_free_terminals(&cfg, &search);
    for (n, g) in &result.probes {
        println!("  probed {n:>3} terminals -> {g} glitches");
    }
    println!(
        "\nmax glitch-free terminals on {} disks: {}",
        cfg.topology.total_disks(),
        result.max_terminals
    );
    println!(
        "(subscribers need ~{:.0} Mbit/s; the {} disks provide {:.0} Mbit/s raw — \
         the surplus is served by terminals inadvertently sharing buffered streams)",
        result.max_terminals as f64 * 4.0,
        cfg.topology.total_disks(),
        cfg.topology.total_disks() as f64 * 7.4 * 8.0 * 1.048576,
    );
}
