//! Layer microbenchmarks in `cal_bench`'s hold-model style: each holds
//! one crate's structure at a shape taken from the workload's traced run
//! and times direct calls into its public functions.
//!
//! Every benchmark runs three batches and reports the median batch's
//! nanoseconds per operation, together with the shape it ran at.

use std::hint::black_box;
use std::time::Instant;

use spiffi_bufferpool::{BufferPool, LookupResult, PolicyKind};
use spiffi_core::Terminal;
use spiffi_disk::{Disk, DiskParams};
use spiffi_layout::{BlockAddr, Layout, Topology};
use spiffi_mpeg::{Library, Video, VideoId, VideoParams};
use spiffi_sched::{DiskRequest, RequestId, SchedulerKind, StreamId};
use spiffi_simcore::{Calendar, SimDuration, SimRng, SimTime};

/// A measured cost and the shape it was measured at.
pub struct Cost {
    /// Nanoseconds per operation (milliseconds for library generation).
    pub value: f64,
    /// Human-readable shape.
    pub shape: String,
}

const BATCHES: usize = 3;

/// Median over [`BATCHES`] runs of `batch`, which returns (elapsed
/// nanoseconds, operations).
fn median_per_op(mut batch: impl FnMut() -> (f64, u64)) -> f64 {
    let mut v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ns, ops) = batch();
            ns / ops as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[BATCHES / 2]
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Exponential draw with the given mean, in nanoseconds.
fn exp_ns(rng: &mut SimRng, mean_ns: f64) -> u64 {
    (-mean_ns * (1.0 - rng.f64()).ln()) as u64
}

/// `Calendar::schedule_at` + `pop` at a fixed pending depth, horizons
/// exponential with the workload's mean event horizon.
pub fn calendar_hold(depth: usize, horizon_ns: f64) -> Cost {
    const OPS: u64 = 2_000_000;
    let depth = depth.max(1);
    let value = median_per_op(|| {
        // 24-byte payload, the size of the simulator's event enum.
        let mut cal: Calendar<[u64; 3]> = Calendar::with_capacity(depth);
        let mut rng = SimRng::stream(0xca1b, depth as u64);
        for i in 0..depth {
            cal.schedule_at(SimTime(exp_ns(&mut rng, horizon_ns)), [i as u64; 3]);
        }
        let t = Instant::now();
        for _ in 0..OPS {
            let (now, ev) = cal.pop().expect("hold model never drains");
            cal.schedule_at(
                now + SimDuration(exp_ns(&mut rng, horizon_ns)),
                black_box(ev),
            );
        }
        (elapsed_ns(t), OPS)
    });
    Cost {
        value,
        shape: format!("depth {depth}, horizon exp mean {:.3} ms", horizon_ns / 1e6),
    }
}

/// `DiskScheduler::push` + `pop_next` at a fixed queue depth, 10 ms of
/// simulated service per request, deadlines up to 8 s out.
pub fn scheduler_hold(kind: SchedulerKind, depth: usize, cylinders: u32) -> Cost {
    const OPS: u64 = 1_000_000;
    let depth = depth.max(1);
    let value = median_per_op(|| {
        let mut sched = kind.build();
        let mut rng = SimRng::stream(0x5c4e, depth as u64);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut request = |rng: &mut SimRng, now: SimTime| {
            next_id += 1;
            DiskRequest {
                id: RequestId(next_id),
                cylinder: rng.u64_below(cylinders as u64) as u32,
                deadline: Some(now + SimDuration(rng.u64_below(8_000_000_000))),
                stream: Some(StreamId(rng.u64_below(1024) as u32)),
                is_prefetch: rng.chance(0.2),
            }
        };
        for _ in 0..depth {
            sched.push(request(&mut rng, now));
        }
        let mut head = 0;
        let t = Instant::now();
        for _ in 0..OPS {
            now += SimDuration::from_millis(10);
            let r = sched.pop_next(now, head).expect("hold model never drains");
            head = r.cylinder;
            sched.push(request(&mut rng, now));
        }
        (elapsed_ns(t), OPS)
    });
    Cost {
        value,
        shape: format!("{}, depth {depth}", kind.label()),
    }
}

/// `Disk::read` of one stripe block at uniformly random offsets.
pub fn disk_read(params: DiskParams, used_bytes: u64, block_bytes: u64) -> Cost {
    const OPS: u64 = 1_000_000;
    let params = params.with_capacity_for(used_bytes);
    let span = used_bytes.saturating_sub(block_bytes).max(1);
    let value = median_per_op(|| {
        let mut disk = Disk::new(params);
        let mut rng = SimRng::stream(0xd15c, 1);
        let starts: Vec<u64> = (0..4096).map(|_| rng.u64_below(span)).collect();
        let t = Instant::now();
        for i in 0..OPS {
            let s = starts[i as usize & 4095];
            black_box(disk.read(s, block_bytes, &mut rng));
        }
        (elapsed_ns(t), OPS)
    });
    Cost {
        value,
        shape: format!(
            "{} KiB reads over {} MiB",
            block_bytes / 1024,
            used_bytes >> 20
        ),
    }
}

/// A full pool of `frames` frames: blocks `0..resident` of video 0
/// resident and unpinned, the blocks after them in flight.
fn full_pool(frames: usize, resident: usize, policy: PolicyKind) -> BufferPool {
    let mut pool = BufferPool::new(frames, policy);
    for i in 0..frames as u32 {
        let f = pool
            .allocate(block(i), false)
            .expect("an unfilled pool has free frames");
        if (i as usize) < resident {
            pool.complete_io(f);
        }
    }
    pool
}

fn block(index: u32) -> BlockAddr {
    BlockAddr {
        video: VideoId(0),
        index,
    }
}

/// `BufferPool::lookup` on a full pool with the workload's mix of
/// resident hits, in-flight hits and misses.
pub fn pool_lookup(frames: usize, policy: PolicyKind, hit: f64, inflight: f64) -> Cost {
    const OPS: u64 = 2_000_000;
    let frames = frames.max(2);
    // Frames in flight in proportion to the in-flight hits; at least one
    // frame stays resident.
    let in_flight = ((frames as f64 * inflight).round() as u64).min(frames as u64 - 1);
    let resident = frames as u64 - in_flight;
    let value = median_per_op(|| {
        let mut pool = full_pool(frames, resident as usize, policy);
        let mut rng = SimRng::stream(0x100c, frames as u64);
        let keys: Vec<BlockAddr> = (0..4096)
            .map(|_| {
                let u = rng.f64();
                let index = if u < hit || (u < hit + inflight && in_flight == 0) {
                    rng.u64_below(resident)
                } else if u < hit + inflight {
                    resident + rng.u64_below(in_flight)
                } else {
                    frames as u64 + rng.u64_below(1 << 20)
                };
                block(index as u32)
            })
            .collect();
        let t = Instant::now();
        let mut resident = 0u64;
        for i in 0..OPS {
            let r = pool.lookup(keys[i as usize & 4095], Some(i as u32 & 63));
            resident += matches!(r, LookupResult::Resident(_)) as u64;
        }
        black_box(resident);
        (elapsed_ns(t), OPS)
    });
    Cost {
        value,
        shape: format!(
            "{frames} frames/node, {:.1}% resident, {:.1}% in-flight hits",
            hit * 100.0,
            inflight * 100.0
        ),
    }
}

/// `BufferPool::allocate` with eviction (plus the `complete_io` that
/// makes the frame evictable again) on a full pool.
pub fn pool_alloc(frames: usize, policy: PolicyKind) -> Cost {
    const OPS: u64 = 1_000_000;
    let frames = frames.max(2);
    let value = median_per_op(|| {
        let mut pool = full_pool(frames, frames, policy);
        let mut waiters = Vec::new();
        let t = Instant::now();
        for i in 0..OPS as u32 {
            let f = pool
                .allocate(block(frames as u32 + i), i & 7 == 0)
                .expect("no frame is pinned");
            pool.complete_io_into(f, &mut waiters);
        }
        (elapsed_ns(t), OPS)
    });
    Cost {
        value,
        shape: format!("{frames} frames/node, {policy:?}, evicting"),
    }
}

/// `Layout::locate` of uniformly random blocks of the library.
pub fn layout_locate(topology: Topology, block_bytes: u64, library: &Library) -> Cost {
    const OPS: u64 = 2_000_000;
    let layout = Layout::striped(topology, block_bytes, library);
    let mut rng = SimRng::stream(0x1a70, 1);
    let addrs: Vec<BlockAddr> = (0..4096)
        .map(|_| {
            let video = VideoId(rng.index(library.len()) as u32);
            let index = rng.u64_below(layout.num_blocks(video) as u64) as u32;
            BlockAddr { video, index }
        })
        .collect();
    let value = median_per_op(|| {
        let t = Instant::now();
        for i in 0..OPS {
            black_box(layout.locate(addrs[i as usize & 4095]));
        }
        (elapsed_ns(t), OPS)
    });
    Cost {
        value,
        shape: format!(
            "{} disks, {} titles, {} KiB stripes",
            topology.total_disks(),
            library.len(),
            block_bytes / 1024
        ),
    }
}

/// `Video::frame_at_byte` at uniformly random offsets.
pub fn frame_at_byte(video: &Video) -> Cost {
    const OPS: u64 = 2_000_000;
    let mut rng = SimRng::stream(0xf4a3, 1);
    let bytes: Vec<u64> = (0..4096)
        .map(|_| rng.u64_below(video.total_bytes()))
        .collect();
    let value = median_per_op(|| {
        let t = Instant::now();
        for i in 0..OPS {
            black_box(video.frame_at_byte(bytes[i as usize & 4095]));
        }
        (elapsed_ns(t), OPS)
    });
    Cost {
        value,
        shape: format!("{} frames", video.num_frames()),
    }
}

/// `Terminal::pump` of one terminal playing `video`, every requested
/// block delivered at once and the terminal woken when it asks to be
/// (block-arrival bookkeeping included in the time).
pub fn terminal_pump(video: &Video, block_bytes: u64, terminal_bytes: u64) -> Cost {
    const OPS: u64 = 500_000;
    let value = median_per_op(|| {
        let mut term = Terminal::new(0, terminal_bytes);
        term.start_video(video, block_bytes, 0, Vec::new());
        let mut now = SimTime::ZERO;
        let mut requests = Vec::new();
        let t = Instant::now();
        for _ in 0..OPS {
            let p = term.pump_reusing(video, block_bytes, now, requests);
            let epoch = term.epoch();
            for &b in &p.requests {
                term.on_block_arrival(video, block_bytes, b, epoch);
            }
            if p.finished {
                term.start_video(video, block_bytes, 0, Vec::new());
            }
            now = p
                .wake_at
                .filter(|&w| w > now)
                .unwrap_or(now + SimDuration::from_millis(1));
            requests = p.requests;
        }
        (elapsed_ns(t), OPS)
    });
    Cost {
        value,
        shape: format!(
            "{} KiB terminal, {} KiB blocks",
            terminal_bytes / 1024,
            block_bytes / 1024
        ),
    }
}

/// `Library::generate` of `n` titles, in milliseconds per library.
pub fn library_generate(n: usize, params: VideoParams, seed: u64) -> Cost {
    let value = median_per_op(|| {
        let t = Instant::now();
        black_box(Library::generate(n, params, seed));
        (elapsed_ns(t) / 1e6, 1)
    });
    Cost {
        value,
        shape: format!("{n} titles of {:.0} s", params.duration.as_secs_f64()),
    }
}
