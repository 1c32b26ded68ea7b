//! Randomized property tests of the video model: the GOP byte index and
//! the frame-level lookups must agree for every title, and the cursor must
//! track random-access queries exactly. Driven by the deterministic
//! [`SimRng`] so failures reproduce from the printed seed.

use spiffi_mpeg::{PlayCursor, Video, VideoId, VideoParams, GOP_LEN};
use spiffi_simcore::{SimDuration, SimRng};

fn random_video(rng: &mut SimRng) -> (Video, u64) {
    // Titles from 2 to 90 seconds, arbitrary seeds and ids.
    let secs = 2 + rng.u64_below(88);
    let seed = rng.next_u64_raw();
    let id = rng.u64_below(1000) as u32;
    let v = Video::generate(
        VideoId(id),
        VideoParams {
            duration: SimDuration::from_secs(secs),
            ..VideoParams::default()
        },
        seed,
    );
    let frames = v.num_frames();
    (v, frames)
}

/// frame_at_byte is the exact inverse of cum_bytes_at_frame.
#[test]
fn frame_byte_round_trip() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0xf4a3e, seed);
        let (video, frames) = random_video(&mut rng);
        let f = rng.u64_below(frames);
        let start = video.cum_bytes_at_frame(f);
        let end = video.cum_bytes_at_frame(f + 1);
        assert!(end > start, "seed {seed}: frames have positive size");
        assert_eq!(video.frame_at_byte(start), f, "seed {seed}");
        assert_eq!(video.frame_at_byte(end - 1), f, "seed {seed}");
    }
}

/// The cumulative index is strictly increasing and ends at the total.
#[test]
fn cumulative_index_is_strictly_monotone() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0x1dc5, seed);
        let (video, frames) = random_video(&mut rng);
        let mut prev = 0;
        for f in 1..=frames {
            let c = video.cum_bytes_at_frame(f);
            assert!(
                c > prev,
                "seed {seed}: frame {} has non-positive size",
                f - 1
            );
            prev = c;
        }
        assert_eq!(prev, video.total_bytes(), "seed {seed}");
    }
}

/// A cursor seeked anywhere agrees with random access, and advancing from
/// there stays in agreement.
#[test]
fn cursor_agrees_with_random_access() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0xc0450, seed);
        let (video, frames) = random_video(&mut rng);
        let start = rng.u64_below(frames);
        let steps = rng.u64_below(40);
        let mut cursor = PlayCursor::new(&video, start);
        for f in start..start + steps {
            if cursor.at_end(&video) {
                break;
            }
            assert_eq!(
                cursor.bytes_before_frame(),
                video.cum_bytes_at_frame(f),
                "seed {seed}"
            );
            assert_eq!(
                cursor.bytes_through_frame(),
                video.cum_bytes_at_frame(f + 1),
                "seed {seed}"
            );
            cursor.advance(&video);
        }
    }
}

/// Regeneration is deterministic: any (seed, id) pair always yields
/// identical GOP sizes.
#[test]
fn regeneration_deterministic() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0x4e6e4, seed);
        let secs = 2 + rng.u64_below(28);
        let vseed = rng.next_u64_raw();
        let make = || {
            Video::generate(
                VideoId(1),
                VideoParams {
                    duration: SimDuration::from_secs(secs),
                    ..VideoParams::default()
                },
                vseed,
            )
        };
        let a = make();
        let b = make();
        assert_eq!(a.total_bytes(), b.total_bytes(), "seed {seed}");
        let g = rng.u64_below(a.num_gops());
        assert_eq!(a.gop_frame_sizes(g), b.gop_frame_sizes(g), "seed {seed}");
    }
}

/// Realized bit rate stays within 15% of nominal even for short clips (law
/// of large numbers over exponential frames).
#[test]
fn bit_rate_within_tolerance() {
    for seed in 0..64u64 {
        let mut rng = SimRng::stream(0xb17, seed);
        let secs = 30 + rng.u64_below(60);
        let vseed = rng.next_u64_raw();
        let v = Video::generate(
            VideoId(0),
            VideoParams {
                duration: SimDuration::from_secs(secs),
                ..VideoParams::default()
            },
            vseed,
        );
        let rate = v.actual_bit_rate_bps();
        assert!(
            (rate - 4_000_000.0).abs() < 600_000.0,
            "seed {seed}: rate {rate} for {secs}s clip"
        );
    }
}

/// The flat `u64` cumulative index `[0, s₀, s₀+s₁, …, total]` rebuilt
/// from the regenerated frame sizes: the reference the two-level index
/// must reproduce.
fn flat_cumulative(v: &Video) -> Vec<u64> {
    let mut cum = vec![0u64];
    for g in 0..v.num_gops() {
        let first = g * GOP_LEN as u64;
        let present = (v.num_frames() - first).min(GOP_LEN as u64) as usize;
        for &s in &v.gop_frame_sizes(g)[..present] {
            cum.push(cum.last().unwrap() + s);
        }
    }
    cum
}

/// Every lookup of the two-level index agrees with the flat reference:
/// `cum_bytes_at_frame` at every frame, `frame_at_byte` at the first and
/// last byte of every frame (so at every GOP boundary and both ends of the
/// title), and a full cursor walk.
#[test]
fn two_level_index_matches_flat_reference() {
    // 1.2 s and 61.1 s end on a partial GOP (36 = 2·15 + 6 and
    // 1833 = 122·15 + 3 frames), 0.2 s is one partial GOP (6 frames);
    // 61 s ends on a whole one.
    let durations = [
        SimDuration::from_millis(1200),
        SimDuration::from_secs(61),
        SimDuration::from_millis(61_100),
        SimDuration::from_millis(200),
    ];
    for bit_rate_bps in [4_000_000, 15_000_000] {
        for duration in durations {
            for seed in 0..4u64 {
                let params = VideoParams {
                    bit_rate_bps,
                    duration,
                    ..VideoParams::default()
                };
                let v = Video::generate(VideoId(seed as u32 * 7), params, 0x5eed ^ seed);
                let ctx = format!("{bit_rate_bps} bit/s, {duration:?}, seed {seed}");
                let flat = flat_cumulative(&v);
                let frames = v.num_frames();
                assert_eq!(flat.len() as u64, frames + 1, "{ctx}");
                assert_eq!(*flat.last().unwrap(), v.total_bytes(), "{ctx}");

                for f in 0..=frames {
                    assert_eq!(
                        v.cum_bytes_at_frame(f),
                        flat[f as usize],
                        "{ctx}: frame {f}"
                    );
                }
                assert_eq!(v.cum_bytes_at_frame(frames + 5), v.total_bytes(), "{ctx}");

                for f in 0..frames {
                    let (start, end) = (flat[f as usize], flat[f as usize + 1]);
                    assert_eq!(v.frame_at_byte(start), f, "{ctx}: first byte of {f}");
                    assert_eq!(v.frame_at_byte(end - 1), f, "{ctx}: last byte of {f}");
                }
                assert_eq!(v.frame_at_byte(v.total_bytes()), frames - 1, "{ctx}");

                let mut cursor = PlayCursor::new(&v, 0);
                for f in 0..frames {
                    let i = f as usize;
                    assert_eq!(cursor.frame(), f, "{ctx}");
                    assert_eq!(cursor.bytes_before_frame(), flat[i], "{ctx}: frame {f}");
                    assert_eq!(
                        cursor.bytes_through_frame(),
                        flat[i + 1],
                        "{ctx}: frame {f}"
                    );
                    assert_eq!(
                        cursor.frame_size(),
                        flat[i + 1] - flat[i],
                        "{ctx}: frame {f}"
                    );
                    cursor.advance(&v);
                }
                assert!(cursor.at_end(&v), "{ctx}");
            }
        }
    }
}

/// `frame_at_byte_near` answers exactly what `frame_at_byte` answers, for
/// any byte and any hint: bytes at and past the end of the title, hints
/// far from the byte in either direction and hints past the last frame.
#[test]
fn frame_at_byte_near_matches_frame_at_byte() {
    // A full one-hour title, a title ending on a partial GOP (36 = 2·15 + 6
    // frames) and one-GOP titles, whole (15 frames) and partial (6).
    let durations = [
        SimDuration::from_secs(3600),
        SimDuration::from_millis(1200),
        SimDuration::from_millis(500),
        SimDuration::from_millis(200),
    ];
    for (n, duration) in durations.into_iter().enumerate() {
        let params = VideoParams {
            duration,
            ..VideoParams::default()
        };
        let v = Video::generate(VideoId(n as u32), params, 0xfa57 + n as u64);
        let (total, frames) = (v.total_bytes(), v.num_frames());
        let mut rng = SimRng::stream(0x6a11, n as u64);
        for i in 0..20_000u64 {
            // A random magnitude for the out-of-range draws, up to 2⁶³.
            let far = 1u64 << (rng.index(63) + 1);
            let byte = match i % 4 {
                // Past the end, up to the far edge of the key space.
                0 => total + rng.u64_below(far),
                _ => rng.u64_below(total),
            };
            let near = match i % 5 {
                // Hints past the last frame.
                0 => frames + rng.u64_below(far),
                // Hints close to the byte's own frame, as the terminals pass.
                1 | 2 => {
                    let f = v.frame_at_byte(byte) as i64 + rng.u64_below(400) as i64 - 200;
                    f.max(0) as u64
                }
                _ => rng.u64_below(frames),
            };
            assert_eq!(
                v.frame_at_byte_near(byte, near),
                v.frame_at_byte(byte),
                "{duration:?}: byte {byte} near frame {near}"
            );
        }
        // Both ends of the title, from both ends of the hint range.
        for byte in [0, total - 1, total, u64::MAX] {
            for near in [0, frames - 1, frames, u64::MAX] {
                assert_eq!(
                    v.frame_at_byte_near(byte, near),
                    v.frame_at_byte(byte),
                    "{duration:?}: byte {byte} near frame {near}"
                );
            }
        }
    }
}

/// 64-bit FNV-1a over the little-endian bytes of `values`.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The byte index of three pinned titles — a one-hour 4 Mbit/s title, a
/// one-hour 15 Mbit/s title and a title whose last GOP is partial —
/// digested over `cum_bytes_at_frame` at every frame, and every lookup of
/// each checked against the prefix sum of its regenerated frame sizes.
/// The digests were captured from the flat `u32`-per-frame index, so any
/// change to how the index is stored must leave them as they are.
#[test]
fn pinned_titles_index_digests_and_lookups() {
    let titles = [
        (4_000_000, SimDuration::from_secs(3600), 0x1d3a_u64),
        (15_000_000, SimDuration::from_secs(3600), 0x15b1),
        (4_000_000, SimDuration::from_millis(61_100), 0x9a27),
    ];
    let mut digests = Vec::new();
    for (n, (bit_rate_bps, duration, seed)) in titles.into_iter().enumerate() {
        let params = VideoParams {
            bit_rate_bps,
            duration,
            ..VideoParams::default()
        };
        let v = Video::generate(VideoId(n as u32), params, seed);
        let ctx = format!("{bit_rate_bps} bit/s, {duration:?}");
        let frames = v.num_frames();
        digests.push(fnv1a((0..=frames).map(|f| v.cum_bytes_at_frame(f))));

        let flat = flat_cumulative(&v);
        assert_eq!(flat.len() as u64, frames + 1, "{ctx}");
        let mut cursor = PlayCursor::new(&v, 0);
        for f in 0..frames {
            let (start, end) = (flat[f as usize], flat[f as usize + 1]);
            assert_eq!(v.cum_bytes_at_frame(f), start, "{ctx}: frame {f}");
            for byte in [start, end - 1] {
                assert_eq!(v.frame_at_byte(byte), f, "{ctx}: byte {byte}");
                // Hints before, at and after the byte's frame, and past
                // the end of the title.
                for near in [0, f / 2, f, f + 1, f + 31, frames - 1, frames, u64::MAX] {
                    assert_eq!(
                        v.frame_at_byte_near(byte, near),
                        f,
                        "{ctx}: byte {byte} near frame {near}"
                    );
                }
            }
            assert_eq!(cursor.bytes_before_frame(), start, "{ctx}: frame {f}");
            assert_eq!(cursor.bytes_through_frame(), end, "{ctx}: frame {f}");
            cursor.advance(&v);
        }
        assert!(cursor.at_end(&v), "{ctx}");
        assert_eq!(v.cum_bytes_at_frame(frames), v.total_bytes(), "{ctx}");
    }
    println!("index digests: {digests:#x?}");
    assert_eq!(
        digests,
        [
            0x58bc_d89b_2411_89a3,
            0x483e_b45b_5bad_75c4,
            0x6a47_ebcb_3916_abc8
        ]
    );
}
