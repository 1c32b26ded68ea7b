//! `spiffi-vod` — command-line front end to the SPIFFI simulator.
//!
//! ```console
//! $ spiffi-vod simulate --terminals 200
//! $ spiffi-vod capacity --scheduler real-time:3:4 --server-mem-mb 512
//! $ spiffi-vod simulate --nodes 4 --disks-per-node 8 --csv
//! ```
//!
//! Two subcommands:
//!
//! * `simulate` — run one configuration and print its measurement report;
//! * `capacity` — find the maximum glitch-free terminal count (§7.1).
//!
//! Every knob of [`SystemConfig`] is exposed as a flag; run with `--help`
//! for the list.

use std::process::ExitCode;

use spiffi_vod::core::config::InitialPosition;
use spiffi_vod::prelude::*;

const HELP: &str = "\
spiffi-vod — the SPIFFI scalable video-on-demand simulator (SIGMOD 1995)

USAGE:
    spiffi-vod <simulate|capacity> [OPTIONS]

SUBCOMMANDS:
    simulate    run one configuration and print the measurement report
    capacity    find the maximum glitch-free terminal count

SERVER OPTIONS:
    --nodes N               server nodes                    [default: 4]
    --disks-per-node D      disks per node                  [default: 4]
    --server-mem-mb M       aggregate server memory, MB     [default: 4096]
    --stripe-kb K           stripe (and read) size, KB      [default: 512]
    --scheduler S           fcfs | edf | elevator | round-robin | gss:G |
                            real-time:CLASSES:SPACING_SECS  [default: elevator]
    --policy P              global-lru | love-prefetch      [default: global-lru]
    --prefetch P            off | standard:N | real-time:N | delayed:N:SECS
                            [default: tuned to the scheduler]
    --placement P           striped | non-striped | group:WIDTH [default: striped]

WORKLOAD OPTIONS:
    --terminals T           active terminals                [default: 200]
    --terminal-mem-kb K     per-terminal buffer, KB         [default: 2048]
    --videos V              titles in the library           [default: 4 per disk]
    --video-secs S          title length, seconds           [default: 3600]
    --access A              uniform | zipf:Z                [default: zipf:1.0]
    --pauses                enable the Fig-19 pause workload
    --piggyback-secs S      enable piggybacking with an S-second delay
    --search-speedup K      store §8.1 search versions at K× speed
    --aligned-starts        first titles start at frame 0 (default: steady state)

RUN OPTIONS:
    --measure-secs S        measurement window              [default: 600]
    --warmup-secs S         warm-up before measuring        [default: 150]
    --stagger-secs S        terminal start stagger          [default: 60]
    --seed N                master random seed              [default: 0x5b1ff1]
    --csv                   machine-readable one-line output

CAPACITY OPTIONS:
    --lo N --hi N           search brackets                 [default: 20 400]
    --step N                answer granularity              [default: 10]
    --reps N                replications per probe          [default: 1]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run with --help for usage");
            ExitCode::from(2)
        }
    }
}

struct Parsed {
    cfg: SystemConfig,
    csv: bool,
    search: CapacitySearch,
}

fn run(args: &[String]) -> Result<(), String> {
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print!("{HELP}");
        return Ok(());
    }
    let command = args[0].as_str();
    if !matches!(command, "simulate" | "capacity") {
        return Err(format!("unknown subcommand `{command}`"));
    }
    let p = parse(&args[1..])?;
    p.cfg
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;

    match command {
        "simulate" => simulate(&p),
        "capacity" => {
            p.search
                .validate()
                .map_err(|e| format!("invalid capacity search: {e}"))?;
            capacity_cmd(&p)
        }
        _ => unreachable!(),
    }
    Ok(())
}

fn simulate(p: &Parsed) {
    let r = run_once(&p.cfg);
    if p.csv {
        println!(
            "terminals,glitches,glitching_terminals,blocks_delivered,avg_disk_util,\
             avg_cpu_util,net_peak_mbps,pool_hit_rate,shared_ref_rate,\
             io_latency_mean_ms,io_latency_p95_ms,deadline_misses"
        );
        println!(
            "{},{},{},{},{:.4},{:.4},{:.2},{:.4},{:.4},{:.2},{:.2},{}",
            r.terminals,
            r.glitches,
            r.glitching_terminals,
            r.blocks_delivered,
            r.avg_disk_utilization,
            r.avg_cpu_utilization,
            r.net_peak_bytes_per_sec / 1e6,
            r.pool.hit_rate(),
            r.pool.shared_reference_rate(),
            r.io_latency_mean_ms,
            r.io_latency_p95_ms,
            r.deadline_misses,
        );
        return;
    }
    println!("{}", r.summary());
    println!(
        "  io latency: mean {:.1} ms, p95 {:.1} ms, max {:.1} ms; deadline misses: {}",
        r.io_latency_mean_ms, r.io_latency_p95_ms, r.io_latency_max_ms, r.deadline_misses
    );
    println!(
        "  delivered {:.1} MB/s over {:.0} s ({} blocks, {} titles completed)",
        r.delivery_bytes_per_sec(p.cfg.stripe_bytes) / 1e6,
        r.measured.as_secs_f64(),
        r.blocks_delivered,
        r.videos_completed,
    );
}

fn capacity_cmd(p: &Parsed) {
    let result = max_glitch_free_terminals(&p.cfg, &p.search);
    if p.csv {
        println!("max_terminals,probes");
        println!("{},{}", result.max_terminals, result.probes.len());
        return;
    }
    for (n, g) in &result.probes {
        println!("  probe {n:>5} terminals -> {g} glitches");
    }
    println!("max glitch-free terminals: {}", result.max_terminals);
}

fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut cfg = SystemConfig::paper_base();
    let mut csv = false;
    let mut videos_explicit = false;
    let (mut lo, mut hi, mut step, mut reps) = (20u32, 400u32, 10u32, 1u32);
    let mut scheduler_explicit: Option<SchedulerKind> = None;
    let mut prefetch_explicit: Option<PrefetchKind> = None;

    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--nodes" => cfg.topology.nodes = parse_num(&value("--nodes")?)?,
            "--disks-per-node" => {
                cfg.topology.disks_per_node = parse_num(&value("--disks-per-node")?)?
            }
            "--server-mem-mb" => {
                cfg.server_memory_bytes =
                    parse_num::<u64>(&value("--server-mem-mb")?)? * 1024 * 1024
            }
            "--stripe-kb" => cfg.stripe_bytes = parse_num::<u64>(&value("--stripe-kb")?)? * 1024,
            "--scheduler" => scheduler_explicit = Some(parse_scheduler(&value("--scheduler")?)?),
            "--policy" => {
                cfg.policy = match value("--policy")?.as_str() {
                    "global-lru" => PolicyKind::GlobalLru,
                    "love-prefetch" => PolicyKind::LovePrefetch,
                    other => return Err(format!("unknown policy `{other}`")),
                }
            }
            "--prefetch" => prefetch_explicit = Some(parse_prefetch(&value("--prefetch")?)?),
            "--placement" => {
                cfg.placement = parse_placement(&value("--placement")?)?;
            }
            "--terminals" => cfg.n_terminals = parse_num(&value("--terminals")?)?,
            "--terminal-mem-kb" => {
                cfg.terminal_memory_bytes = parse_num::<u64>(&value("--terminal-mem-kb")?)? * 1024
            }
            "--videos" => {
                cfg.n_videos = parse_num(&value("--videos")?)?;
                videos_explicit = true;
            }
            "--video-secs" => {
                cfg.video.duration = SimDuration::from_secs(parse_num(&value("--video-secs")?)?)
            }
            "--access" => cfg.access = parse_access(&value("--access")?)?,
            "--pauses" => cfg.pause = Some(PauseConfig::default()),
            "--piggyback-secs" => {
                cfg.piggyback_delay = Some(SimDuration::from_secs(parse_num(&value(
                    "--piggyback-secs",
                )?)?))
            }
            "--aligned-starts" => cfg.initial_position = InitialPosition::Start,
            "--measure-secs" => {
                cfg.timing.measure = SimDuration::from_secs(parse_num(&value("--measure-secs")?)?)
            }
            "--warmup-secs" => {
                cfg.timing.warmup = SimDuration::from_secs(parse_num(&value("--warmup-secs")?)?)
            }
            "--stagger-secs" => {
                cfg.timing.stagger = SimDuration::from_secs(parse_num(&value("--stagger-secs")?)?)
            }
            "--seed" => cfg.seed = parse_num(&value("--seed")?)?,
            "--csv" => csv = true,
            "--lo" => lo = parse_num(&value("--lo")?)?,
            "--hi" => hi = parse_num(&value("--hi")?)?,
            "--step" => step = parse_num(&value("--step")?)?,
            "--reps" => reps = parse_num(&value("--reps")?)?,
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    // The library defaults to the paper's 4 titles per disk.
    if !videos_explicit {
        cfg.n_videos = (4 * cfg.topology.total_disks()) as usize;
    }
    if let Some(s) = scheduler_explicit {
        cfg = cfg.with_scheduler(s);
    }
    if let Some(p) = prefetch_explicit {
        cfg.prefetch = p;
    }
    Ok(Parsed {
        cfg,
        csv,
        search: CapacitySearch {
            lo,
            hi,
            step,
            replications: reps,
        },
    })
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("`{s}` is not a valid number"))
}

fn parse_scheduler(s: &str) -> Result<SchedulerKind, String> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["fcfs"] => Ok(SchedulerKind::Fcfs),
        ["edf"] => Ok(SchedulerKind::Edf),
        ["elevator"] => Ok(SchedulerKind::Elevator),
        ["round-robin"] => Ok(SchedulerKind::RoundRobin),
        ["gss", g] => Ok(SchedulerKind::Gss {
            groups: parse_num(g)?,
        }),
        ["real-time", c, sp] => Ok(SchedulerKind::RealTime {
            classes: parse_num(c)?,
            spacing: SimDuration::from_secs(parse_num(sp)?),
        }),
        _ => Err(format!(
            "unknown scheduler `{s}` (try elevator, fcfs, edf, round-robin, gss:4, real-time:3:4)"
        )),
    }
}

fn parse_prefetch(s: &str) -> Result<PrefetchKind, String> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["off"] => Ok(PrefetchKind::Off),
        ["standard", n] => Ok(PrefetchKind::Standard {
            processes: parse_num(n)?,
        }),
        ["real-time", n] => Ok(PrefetchKind::RealTime {
            processes: parse_num(n)?,
        }),
        ["delayed", n, secs] => Ok(PrefetchKind::Delayed {
            processes: parse_num(n)?,
            max_advance: SimDuration::from_secs(parse_num(secs)?),
        }),
        _ => Err(format!(
            "unknown prefetch `{s}` (try off, standard:1, real-time:4, delayed:4:8)"
        )),
    }
}

fn parse_placement(s: &str) -> Result<Placement, String> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["striped"] => Ok(Placement::Striped),
        ["non-striped"] => Ok(Placement::NonStriped),
        ["group", w] => Ok(Placement::StripeGroup {
            width: parse_num(w)?,
        }),
        _ => Err(format!(
            "unknown placement `{s}` (try striped, non-striped, group:4)"
        )),
    }
}

fn parse_access(s: &str) -> Result<AccessPattern, String> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["uniform"] => Ok(AccessPattern::Uniform),
        ["zipf", z] => Ok(AccessPattern::Zipf(
            z.parse().map_err(|_| format!("bad skew `{z}`"))?,
        )),
        _ => Err(format!(
            "unknown access pattern `{s}` (try uniform, zipf:1.0)"
        )),
    }
}
