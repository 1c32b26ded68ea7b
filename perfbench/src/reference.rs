//! Reference answers at the default seed, and the paper's published
//! figure the real-time scale-up workload is printed beside.

use crate::workloads::{Answer, Workload};

/// Table 2: terminals the paper's real-time ×4 configuration supports
/// (64 disks, full measurement windows).
pub const PAPER_RT_X4_TERMINALS: u32 = 760;

/// Figure 11's points in grid order: (capacity, probe list).
const FIG11: [(u32, &[(u32, u64)]); 10] = [
    // 128 MiB: global LRU, love prefetch
    (
        190,
        &[
            (20, 0),
            (400, 1),
            (210, 1),
            (110, 0),
            (160, 0),
            (180, 0),
            (190, 0),
            (200, 1),
        ],
    ),
    (
        210,
        &[
            (20, 0),
            (400, 1),
            (210, 0),
            (300, 1),
            (250, 1),
            (230, 1),
            (220, 1),
        ],
    ),
    // 256 MiB
    (
        210,
        &[
            (20, 0),
            (400, 1),
            (210, 0),
            (300, 1),
            (250, 1),
            (230, 1),
            (220, 1),
        ],
    ),
    (
        210,
        &[
            (20, 0),
            (400, 1),
            (210, 0),
            (300, 1),
            (250, 1),
            (230, 1),
            (220, 1),
        ],
    ),
    // 512 MiB
    (
        210,
        &[
            (20, 0),
            (400, 1),
            (210, 0),
            (300, 1),
            (250, 1),
            (230, 1),
            (220, 1),
        ],
    ),
    (
        210,
        &[
            (20, 0),
            (400, 1),
            (210, 0),
            (300, 1),
            (250, 1),
            (230, 1),
            (220, 1),
        ],
    ),
    // 1024 MiB
    (
        220,
        &[
            (20, 0),
            (400, 1),
            (210, 0),
            (300, 1),
            (250, 1),
            (230, 1),
            (220, 0),
        ],
    ),
    (
        220,
        &[
            (20, 0),
            (400, 1),
            (210, 0),
            (300, 1),
            (250, 1),
            (230, 1),
            (220, 0),
        ],
    ),
    // 4096 MiB
    (
        260,
        &[
            (20, 0),
            (400, 1),
            (210, 0),
            (300, 1),
            (250, 0),
            (270, 1),
            (260, 0),
        ],
    ),
    (
        260,
        &[
            (20, 0),
            (400, 1),
            (210, 0),
            (300, 1),
            (250, 0),
            (270, 1),
            (260, 0),
        ],
    ),
];

/// Table 2's real-time ×4 search: (capacity, probe list).
const RT_X4: (u32, &[(u32, u64)]) = (
    790,
    &[
        (200, 0),
        (1300, 1),
        (750, 0),
        (1020, 1),
        (880, 1),
        (810, 1),
        (780, 0),
        (790, 0),
        (800, 1),
    ],
);

/// The answers every repetition at the default seed must reproduce.
pub fn answers(w: Workload) -> Vec<Answer> {
    let answer = |&(max_terminals, probes): &(u32, &[(u32, u64)])| Answer {
        max_terminals,
        probes: probes.to_vec(),
    };
    match w {
        Workload::Fig11MemorySweep => FIG11.iter().map(answer).collect(),
        Workload::RtScaleupX4 => vec![answer(&RT_X4)],
        Workload::Steady16k => Vec::new(),
    }
}
