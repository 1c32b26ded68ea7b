//! A single synthetic video title and its frame-accurate byte index.

use spiffi_simcore::time::NANOS_PER_SEC;
use spiffi_simcore::{dist::Exponential, round_u64, SimDuration, SimRng};

use crate::frame::{GopPattern, GOP_LEN, GOP_SEQUENCE};

/// Identifier of a video title. Titles are numbered in popularity order:
/// video 0 is the most requested title (rank 0 of the Zipfian distribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VideoId(pub u32);

/// Stream parameters for generated titles.
#[derive(Clone, Copy, Debug)]
pub struct VideoParams {
    /// Compressed stream rate in bits/second (paper: 4 Mbit/s).
    pub bit_rate_bps: u64,
    /// Display rate in frames/second (paper: NTSC ≈ 30).
    pub fps: u32,
    /// Title length (paper: 60 minutes).
    pub duration: SimDuration,
}

impl Default for VideoParams {
    fn default() -> Self {
        VideoParams {
            bit_rate_bps: 4_000_000,
            fps: 30,
            duration: SimDuration::from_secs(3600),
        }
    }
}

impl VideoParams {
    /// Total number of displayed frames in the title.
    pub fn num_frames(&self) -> u64 {
        // duration * fps, rounded down to whole frames.
        (self.duration.0 as u128 * self.fps as u128 / NANOS_PER_SEC as u128) as u64
    }

    /// Display instant of frame `f` relative to playback start.
    #[inline]
    pub fn frame_display_offset(&self, f: u64) -> SimDuration {
        // Exactly floor(f·1e9 / fps), without the 128-bit soft division
        // (`__udivti3`) that a widened `f * 1e9 / fps` costs on the pump
        // hot path: with 1e9 = q·fps + r, the quotient decomposes into
        // f·q + ⌊f·r / fps⌋, and both products stay far inside u64 for
        // any in-range frame index (r < fps, f·q ≈ the offset itself).
        let fps = self.fps as u64;
        let q = NANOS_PER_SEC / fps;
        let r = NANOS_PER_SEC % fps;
        SimDuration(f * q + f * r / fps)
    }

    /// Smallest frame index whose display offset exceeds `t` — the first
    /// frame *not yet due* at playback offset `t`. Exact inverse of
    /// [`VideoParams::frame_display_offset`]'s floor quantization:
    /// `offset(f) > t ⇔ f·1e9 ≥ (t+1)·fps`, so the answer is
    /// `⌈(t+1)·fps / 1e9⌉` (saturating in regimes far past any title).
    #[inline]
    pub fn first_frame_after(&self, t: SimDuration) -> u64 {
        let fps = self.fps as u64;
        t.0.saturating_add(1)
            .saturating_mul(fps)
            .div_ceil(NANOS_PER_SEC)
    }

    /// Mean stream rate in bytes/second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bit_rate_bps as f64 / 8.0
    }

    /// Check that titles with these parameters can be generated and
    /// indexed.
    ///
    /// A frame's offset into its GOP is stored in at most 4 bytes. A frame
    /// size is an exponential draw `-mean·ln(u)` with `u ≥ 2⁻⁵³`, so no
    /// frame exceeds 36.7× its type's mean, and no GOP exceeds 37× the
    /// mean GOP; rates whose bound reaches 2³² bytes are refused (about
    /// 1.86 Gbit/s at 30 fps).
    pub fn validate(&self) -> Result<(), ParamsError> {
        if self.fps == 0 {
            return Err(ParamsError::ZeroFps);
        }
        if self.bit_rate_bps == 0 {
            return Err(ParamsError::ZeroBitRate);
        }
        if self.num_frames() == 0 {
            return Err(ParamsError::NoFrames);
        }
        let worst_gop =
            MAX_GOP_MEANS * GopPattern::for_bit_rate(self.bit_rate_bps, self.fps).mean_gop_bytes();
        if worst_gop >= (1u64 << 32) as f64 {
            return Err(ParamsError::GopTooLarge {
                bit_rate_bps: self.bit_rate_bps,
            });
        }
        Ok(())
    }
}

/// Upper bound on a GOP's bytes in units of its mean: `-ln(2⁻⁵³) ≈ 36.7`
/// rounded up, which also covers per-frame rounding.
const MAX_GOP_MEANS: f64 = 37.0;

/// Why [`VideoParams`] cannot describe a generated title.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamsError {
    /// The display rate is zero.
    ZeroFps,
    /// The stream rate is zero.
    ZeroBitRate,
    /// The duration holds no whole frame.
    NoFrames,
    /// A worst-case GOP at this rate overflows the `u32` frame offsets.
    GopTooLarge {
        /// The offending stream rate, bits/second.
        bit_rate_bps: u64,
    },
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::ZeroFps => write!(f, "video frame rate must be positive"),
            ParamsError::ZeroBitRate => write!(f, "video bit rate must be positive"),
            ParamsError::NoFrames => write!(f, "video duration must hold at least one frame"),
            ParamsError::GopTooLarge { bit_rate_bps } => write!(
                f,
                "video bit rate {bit_rate_bps} bit/s is too high: a worst-case GOP \
                 would overflow the 32-bit frame offsets"
            ),
        }
    }
}

impl std::error::Error for ParamsError {}

/// One video title: a deterministic sequence of I/P/B frames with
/// exponentially distributed sizes, and a byte index over them.
///
/// The index has two levels: 8-byte cumulative totals per GOP and one
/// slot per frame 1..14 of each GOP holding the frame's offset from the
/// start of its GOP (frame 0's offset is always 0). A slot is 3
/// little-endian bytes, or 4 for a title with an offset of 2²⁴ − 1 or
/// more, so a frame's stream position is `gop_cum[f / GOP_LEN]` plus its
/// slot. A one-hour 4 Mbit/s title at 30 fps indexes in about 0.36 MB
/// (58 KB of GOP totals and 302 KB of slots) instead of the 0.86 MB a
/// flat `u64` per frame would take.
#[derive(Clone, Debug)]
pub struct Video {
    id: VideoId,
    seed: u64,
    params: VideoParams,
    pattern: GopPattern,
    /// `gop_cum[g]` = total bytes of all frames before GOP `g`;
    /// `gop_cum[ngops]` = total title bytes.
    gop_cum: Vec<u64>,
    /// `GOP_LEN - 1` slots of `slot_bytes` bytes per GOP: slot `i - 1` of
    /// GOP `g` holds the bytes of the GOP's frames before frame `i`.
    /// Every slot is below `slot_mask`; the slots past a partial last GOP
    /// hold `slot_mask` itself, and one pad byte at the end lets the last
    /// slot be read with a 4-byte load. Precomputed once so the per-frame
    /// lookups on the simulation hot path (deadlines, wake times, glitch
    /// checks) never regenerate a GOP's frame sizes.
    slots: Vec<u8>,
    /// 3 or 4.
    slot_bytes: usize,
    /// The low `8 · slot_bytes` bits set.
    slot_mask: u32,
    num_frames: u64,
}

impl Video {
    /// Generate title `id` with the given parameters.
    ///
    /// `library_seed` is shared by the whole library; each title derives its
    /// own stream from `(library_seed, id)`, so "each time the same video is
    /// played, the same sequence of frames and frame sizes is repeated"
    /// (§6.1) regardless of what else the simulation does.
    ///
    /// # Panics
    /// If a GOP's bytes overflow the `u32` frame offsets, which
    /// [`VideoParams::validate`] rules out.
    pub fn generate(id: VideoId, params: VideoParams, library_seed: u64) -> Self {
        let seed = SimRng::stream(library_seed, id.0 as u64).next_u64_raw();
        let pattern = GopPattern::for_bit_rate(params.bit_rate_bps, params.fps);
        let dists = frame_dists(&pattern);
        let num_frames = params.num_frames();
        let ngops = num_frames.div_ceil(GOP_LEN as u64) as usize;
        let mut gop_cum = Vec::with_capacity(ngops + 1);
        gop_cum.push(0);
        let mut slots = SlotWriter::new(ngops);
        let mut acc = 0u64;
        for g in 0..ngops {
            let mut rng = SimRng::stream(seed, g as u64);
            let present = gop_frames(num_frames, g as u64);
            let mut within = 0u64;
            for (i, dist) in dists.iter().enumerate().take(present) {
                if i > 0 {
                    slots.push(within);
                }
                within += draw_frame_size(dist, &mut rng);
            }
            u32::try_from(within).expect("GOP bytes overflow the u32 frame offsets");
            slots.pad_gop(present);
            acc += within;
            gop_cum.push(acc);
        }
        let (slots, slot_bytes) = slots.finish();
        Video {
            id,
            seed,
            params,
            pattern,
            gop_cum,
            slots,
            slot_bytes,
            slot_mask: slot_mask(slot_bytes),
            num_frames,
        }
    }

    /// Title identifier.
    pub fn id(&self) -> VideoId {
        self.id
    }

    /// Stream parameters.
    pub fn params(&self) -> &VideoParams {
        &self.params
    }

    /// The GOP size pattern in use.
    pub fn pattern(&self) -> &GopPattern {
        &self.pattern
    }

    /// Total compressed size in bytes.
    pub fn total_bytes(&self) -> u64 {
        *self.gop_cum.last().expect("at least one GOP boundary")
    }

    /// Total number of frames.
    pub fn num_frames(&self) -> u64 {
        self.num_frames
    }

    /// Number of GOPs (last may be partial).
    pub fn num_gops(&self) -> u64 {
        self.gop_cum.len() as u64 - 1
    }

    /// Deterministically regenerate the frame sizes of GOP `g`
    /// (display order, `GOP_LEN` entries; for a partial final GOP the tail
    /// entries are generated but unused).
    pub fn gop_frame_sizes(&self, g: u64) -> [u64; GOP_LEN] {
        let mut rng = SimRng::stream(self.seed, g);
        frame_dists(&self.pattern).map(|dist| draw_frame_size(&dist, &mut rng))
    }

    /// Bytes of GOP `g`'s frames before its frame `i`, for
    /// `1 <= i < GOP_LEN`: one unaligned 4-byte load, masked to the slot
    /// width. Past the last frame of a partial GOP it reads `slot_mask`.
    #[inline]
    fn slot(&self, g: usize, i: usize) -> u32 {
        debug_assert!((1..GOP_LEN).contains(&i));
        let at = (g * (GOP_LEN - 1) + i - 1) * self.slot_bytes;
        let word: [u8; 4] = self.slots[at..at + 4].try_into().expect("a 4-byte slice");
        u32::from_le_bytes(word) & self.slot_mask
    }

    /// Bytes occupied by frames `[0, f)`.
    #[inline]
    pub fn cum_bytes_at_frame(&self, f: u64) -> u64 {
        if f >= self.num_frames {
            return self.total_bytes();
        }
        let (g, i) = (f as usize / GOP_LEN, f as usize % GOP_LEN);
        let within = if i == 0 { 0 } else { self.slot(g, i) };
        self.gop_cum[g] + u64::from(within)
    }

    /// The frame containing byte offset `byte` (clamped to the last frame
    /// at or past end of title).
    #[inline]
    pub fn frame_at_byte(&self, byte: u64) -> u64 {
        if byte >= self.total_bytes() {
            return self.num_frames.saturating_sub(1);
        }
        // The last GOP starting at or before `byte` (`gop_cum[0] = 0`, so
        // there is one).
        let g = self.gop_cum.partition_point(|&c| c <= byte) - 1;
        self.frame_in_gop(g, byte)
    }

    /// [`Video::frame_at_byte`], searching outward from the GOP of
    /// `near_frame` instead of bisecting the whole title.
    ///
    /// The search gallops: it probes 1, 2, 4, … GOPs away from the hint
    /// until it brackets `byte`, then bisects the bracket. A lookup `d`
    /// GOPs from the hint touches O(log d) index entries, all near each
    /// other, where a full bisection of a one-hour title's 7,200 GOPs
    /// touches 13 scattered ones. The answer does not depend on the
    /// hint; a hint past the last frame counts as the last frame.
    #[inline]
    pub fn frame_at_byte_near(&self, byte: u64, near_frame: u64) -> u64 {
        if byte >= self.total_bytes() {
            return self.num_frames.saturating_sub(1);
        }
        let cum = &self.gop_cum;
        // `cum[0] = 0 <= byte < cum[ngops]`, so the answer GOP is in
        // `[0, ngops)`. Bracket it as `cum[lo] <= byte < cum[hi]`.
        let ngops = cum.len() - 1;
        let start = (near_frame / GOP_LEN as u64).min(ngops as u64 - 1) as usize;
        let (mut lo, mut hi) = (start, start);
        let mut step = 1;
        if cum[start] <= byte {
            loop {
                hi = (lo + step).min(ngops);
                if cum[hi] > byte {
                    break;
                }
                lo = hi;
                step *= 2;
            }
        } else {
            loop {
                lo = hi.saturating_sub(step);
                if cum[lo] <= byte {
                    break;
                }
                hi = lo;
                step *= 2;
            }
        }
        let g = lo + cum[lo + 1..hi].partition_point(|&c| c <= byte);
        self.frame_in_gop(g, byte)
    }

    /// The last frame of GOP `g` starting at or before `byte`, which must
    /// lie inside the GOP.
    ///
    /// A branch-free search over the GOP's 15 frame starts (frame 0's is
    /// 0): each step halves the bracket `[base, base + len)` that holds the
    /// answer, probing frames 7, then up to 11, 13 and 14, so it never
    /// reads past the GOP's own slots. The offset searched for is capped
    /// at `slot_mask - 1`: every real slot is at most that, so they all
    /// still count for a byte past the cap, and the mask-valued slots past
    /// a partial GOP never do.
    #[inline]
    fn frame_in_gop(&self, g: usize, byte: u64) -> u64 {
        let within = (byte - self.gop_cum[g]).min(u64::from(self.slot_mask - 1)) as u32;
        let mut base = 0;
        for half in [7, 4, 2, 1] {
            if self.slot(g, base + half) <= within {
                base += half;
            }
        }
        (g * GOP_LEN + base) as u64
    }

    /// Display instant of frame `f`, as an offset from playback start.
    #[inline]
    pub fn frame_display_offset(&self, f: u64) -> SimDuration {
        self.params.frame_display_offset(f)
    }

    /// Smallest frame index whose display offset exceeds `t` (see
    /// [`VideoParams::first_frame_after`]).
    #[inline]
    pub fn first_frame_after(&self, t: SimDuration) -> u64 {
        self.params.first_frame_after(t)
    }

    /// The frame on display at playback offset `t` (clamped to last frame).
    #[inline]
    pub fn frame_at_offset(&self, t: SimDuration) -> u64 {
        // Exactly floor(t·fps / 1e9) in u64: split t into whole seconds
        // and a sub-second remainder — the remainder term's product is
        // < fps·1e9 — and let the compiler strength-reduce the
        // divisions by the constant 1e9 into multiplies.
        let fps = self.params.fps as u64;
        let secs = t.0 / NANOS_PER_SEC;
        let rem = t.0 % NANOS_PER_SEC;
        let f = secs * fps + rem * fps / NANOS_PER_SEC;
        f.min(self.num_frames.saturating_sub(1))
    }

    /// Measured mean bit rate of this particular title, bits/second.
    pub fn actual_bit_rate_bps(&self) -> f64 {
        self.total_bytes() as f64 * 8.0 / self.params.duration.as_secs_f64()
    }
}

/// Each frame type's size distribution, in GOP display order.
fn frame_dists(pattern: &GopPattern) -> [Exponential; GOP_LEN] {
    GOP_SEQUENCE.map(|ty| Exponential::new(pattern.mean_size(ty)))
}

/// One frame's size: an exponential draw rounded to whole bytes, at least 1.
#[inline]
fn draw_frame_size(dist: &Exponential, rng: &mut SimRng) -> u64 {
    round_u64(dist.sample(rng)).max(1)
}

/// The low `8 · slot_bytes` bits set.
fn slot_mask(slot_bytes: usize) -> u32 {
    u32::MAX >> (32 - 8 * slot_bytes)
}

/// Builds a title's slots 3 bytes wide, widening them to 4 the first time
/// an offset reaches the 3-byte mask.
struct SlotWriter {
    slots: Vec<u8>,
    slot_bytes: usize,
    /// Slots needed by the whole title, for the exact allocation.
    total: usize,
}

impl SlotWriter {
    fn new(ngops: usize) -> Self {
        let total = ngops * (GOP_LEN - 1);
        SlotWriter {
            slots: Vec::with_capacity(total * 3 + 1),
            slot_bytes: 3,
            total,
        }
    }

    /// Append the slot of a frame `offset` bytes into its GOP.
    fn push(&mut self, offset: u64) {
        if self.slot_bytes == 3 && offset >= u64::from(slot_mask(3)) {
            self.widen();
        }
        self.write(offset as u32);
    }

    /// Fill the slots past the last of a GOP's `present` frames with the
    /// mask.
    fn pad_gop(&mut self, present: usize) {
        for _ in present..GOP_LEN {
            self.write(slot_mask(self.slot_bytes));
        }
    }

    fn write(&mut self, value: u32) {
        self.slots
            .extend_from_slice(&value.to_le_bytes()[..self.slot_bytes]);
    }

    /// Re-encode the slots written so far 4 bytes wide.
    fn widen(&mut self) {
        let mut wide = Vec::with_capacity(self.total * 4 + 1);
        for slot in self.slots.chunks_exact(3) {
            wide.extend_from_slice(&[slot[0], slot[1], slot[2], 0]);
        }
        self.slots = wide;
        self.slot_bytes = 4;
    }

    /// The slots with their pad byte, and the slot width.
    fn finish(mut self) -> (Vec<u8>, usize) {
        self.slots.push(0);
        (self.slots, self.slot_bytes)
    }
}

/// Frames actually present in GOP `g` of a title with `num_frames` frames.
fn gop_frames(num_frames: u64, g: u64) -> usize {
    let start = g * GOP_LEN as u64;
    (num_frames.saturating_sub(start)).min(GOP_LEN as u64) as usize
}

/// A sequential read position over a [`Video`], caching the current GOP so
/// frame-by-frame advancement is O(1) amortized.
///
/// The cursor stores no reference to the video (terminals own cursors while
/// the library owns videos), so every method takes the `&Video` it was
/// created for. Passing a different video is a logic error caught by a
/// debug assertion.
#[derive(Clone, Debug)]
pub struct PlayCursor {
    video: VideoId,
    frame: u64,
    gop_idx: u64,
    /// Cumulative bytes within the cached GOP: `within_cum[i]` = bytes of
    /// the GOP's first `i` frames.
    within_cum: [u64; GOP_LEN + 1],
    /// Bytes before the cached GOP.
    gop_base: u64,
}

impl PlayCursor {
    /// A cursor positioned at `frame` of `video`.
    pub fn new(video: &Video, frame: u64) -> Self {
        let mut c = PlayCursor {
            video: video.id(),
            frame: 0,
            gop_idx: u64::MAX,
            within_cum: [0; GOP_LEN + 1],
            gop_base: 0,
        };
        c.seek(video, frame);
        c
    }

    fn load_gop(&mut self, video: &Video, g: u64) {
        // Read both levels of the precomputed index instead of
        // regenerating the GOP's sizes. A partial final GOP has no entries
        // past the last real frame; pad with the GOP's byte total (those
        // slots are never read while the cursor is in bounds). A title
        // with no frames has no GOP 0, so its cursor sees zero bytes.
        let present = gop_frames(video.num_frames, g);
        self.gop_base = video.gop_cum[g as usize];
        let gop_bytes = video
            .gop_cum
            .get(g as usize + 1)
            .map_or(0, |&end| end - self.gop_base);
        for (i, slot) in self.within_cum.iter_mut().enumerate() {
            *slot = match i {
                0 => 0,
                i if i < present => u64::from(video.slot(g as usize, i)),
                _ => gop_bytes,
            };
        }
        self.gop_idx = g;
    }

    /// Current frame index.
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// True when the cursor is past the last frame.
    pub fn at_end(&self, video: &Video) -> bool {
        self.frame >= video.num_frames()
    }

    /// Bytes of all frames before the current frame.
    pub fn bytes_before_frame(&self) -> u64 {
        let rem = (self.frame % GOP_LEN as u64) as usize;
        self.gop_base + self.within_cum[rem]
    }

    /// Bytes of all frames up to and including the current frame — the
    /// amount of stream data that must have arrived for this frame to
    /// display without a glitch.
    pub fn bytes_through_frame(&self) -> u64 {
        let rem = (self.frame % GOP_LEN as u64) as usize;
        self.gop_base + self.within_cum[rem + 1]
    }

    /// Size of the current frame.
    pub fn frame_size(&self) -> u64 {
        let rem = (self.frame % GOP_LEN as u64) as usize;
        self.within_cum[rem + 1] - self.within_cum[rem]
    }

    /// Advance to the next frame.
    pub fn advance(&mut self, video: &Video) {
        debug_assert_eq!(self.video, video.id(), "cursor used with wrong video");
        self.frame += 1;
        if self.frame.is_multiple_of(GOP_LEN as u64) && self.frame < video.num_frames() {
            self.load_gop(video, self.frame / GOP_LEN as u64);
        }
    }

    /// Reposition to an arbitrary frame (for fast-forward/rewind).
    pub fn seek(&mut self, video: &Video, frame: u64) {
        debug_assert_eq!(self.video, video.id(), "cursor used with wrong video");
        let frame = frame.min(video.num_frames());
        self.frame = frame;
        let g = (frame / GOP_LEN as u64).min(video.num_gops().saturating_sub(1));
        if g != self.gop_idx {
            self.load_gop(video, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_video() -> Video {
        Video::generate(
            VideoId(3),
            VideoParams {
                duration: SimDuration::from_secs(60),
                ..VideoParams::default()
            },
            99,
        )
    }

    #[test]
    fn regeneration_is_deterministic() {
        let a = short_video();
        let b = short_video();
        assert_eq!(a.total_bytes(), b.total_bytes());
        for g in 0..a.num_gops() {
            assert_eq!(a.gop_frame_sizes(g), b.gop_frame_sizes(g));
        }
    }

    #[test]
    fn different_titles_differ() {
        let p = VideoParams {
            duration: SimDuration::from_secs(60),
            ..VideoParams::default()
        };
        let a = Video::generate(VideoId(0), p, 99);
        let b = Video::generate(VideoId(1), p, 99);
        assert_ne!(a.total_bytes(), b.total_bytes());
    }

    #[test]
    fn bit_rate_close_to_nominal() {
        // One hour of video at 4 Mbit/s: the law of large numbers over
        // 108 000 exponential frames keeps the realized rate within 1%.
        let v = Video::generate(VideoId(0), VideoParams::default(), 7);
        let rate = v.actual_bit_rate_bps();
        assert!(
            (rate - 4_000_000.0).abs() < 40_000.0,
            "realized bit rate {rate}"
        );
    }

    #[test]
    fn one_hour_video_is_about_1_8_gbytes() {
        // §5.2.1: "2 hours equals 4 Gbytes" at 4 Mbit/s ⇒ 1 hour ≈ 1.8 GB.
        let v = Video::generate(VideoId(0), VideoParams::default(), 7);
        let gb = v.total_bytes() as f64 / 1e9;
        assert!((1.75..1.85).contains(&gb), "size {gb} GB");
    }

    #[test]
    fn cum_bytes_is_monotone_and_consistent() {
        let v = short_video();
        let mut prev = 0;
        for f in 0..=v.num_frames() {
            let c = v.cum_bytes_at_frame(f);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(v.cum_bytes_at_frame(v.num_frames()), v.total_bytes());
        assert_eq!(v.cum_bytes_at_frame(0), 0);
    }

    #[test]
    fn frame_at_byte_inverts_cum_bytes() {
        let v = short_video();
        for f in [0u64, 1, 14, 15, 16, 100, v.num_frames() - 1] {
            let start = v.cum_bytes_at_frame(f);
            let end = v.cum_bytes_at_frame(f + 1);
            assert_eq!(v.frame_at_byte(start), f, "first byte of frame {f}");
            assert_eq!(v.frame_at_byte(end - 1), f, "last byte of frame {f}");
        }
        assert_eq!(v.frame_at_byte(v.total_bytes()), v.num_frames() - 1);
        assert_eq!(v.frame_at_byte(u64::MAX), v.num_frames() - 1);
    }

    #[test]
    fn display_offsets() {
        let v = short_video();
        assert_eq!(v.frame_display_offset(0), SimDuration::ZERO);
        assert_eq!(v.frame_display_offset(30), SimDuration::from_secs(1));
        assert_eq!(v.frame_at_offset(SimDuration::from_secs(1)), 30);
        assert_eq!(v.frame_at_offset(SimDuration::ZERO), 0);
        // Clamped at the end.
        assert_eq!(
            v.frame_at_offset(SimDuration::from_secs(10_000)),
            v.num_frames() - 1
        );
    }

    #[test]
    fn num_frames_matches_duration() {
        let v = short_video();
        assert_eq!(v.num_frames(), 60 * 30);
        assert_eq!(v.num_gops(), 60 * 30 / 15);
    }

    #[test]
    fn partial_final_gop() {
        // 1.2 seconds at 30 fps = 36 frames = 2 GOPs + 6 frames.
        let v = Video::generate(
            VideoId(0),
            VideoParams {
                duration: SimDuration::from_millis(1200),
                ..VideoParams::default()
            },
            5,
        );
        assert_eq!(v.num_frames(), 36);
        assert_eq!(v.num_gops(), 3);
        assert_eq!(v.cum_bytes_at_frame(36), v.total_bytes());
        // Byte lookups work inside the partial GOP.
        let f = v.frame_at_byte(v.total_bytes() - 1);
        assert_eq!(f, 35);
    }

    #[test]
    fn cursor_walks_whole_video() {
        let v = short_video();
        let mut c = PlayCursor::new(&v, 0);
        let mut acc = 0u64;
        while !c.at_end(&v) {
            assert_eq!(c.bytes_before_frame(), acc);
            acc += c.frame_size();
            assert_eq!(c.bytes_through_frame(), acc);
            c.advance(&v);
        }
        assert_eq!(acc, v.total_bytes());
    }

    #[test]
    fn cursor_matches_random_access() {
        let v = short_video();
        let mut c = PlayCursor::new(&v, 0);
        for f in 0..v.num_frames() {
            assert_eq!(c.bytes_before_frame(), v.cum_bytes_at_frame(f));
            c.advance(&v);
        }
    }

    #[test]
    fn cursor_seek() {
        let v = short_video();
        let mut c = PlayCursor::new(&v, 0);
        c.seek(&v, 100);
        assert_eq!(c.frame(), 100);
        assert_eq!(c.bytes_before_frame(), v.cum_bytes_at_frame(100));
        // Seek backwards too (rewind).
        c.seek(&v, 7);
        assert_eq!(c.bytes_before_frame(), v.cum_bytes_at_frame(7));
        // Seeking past the end clamps and reports at_end.
        c.seek(&v, u64::MAX);
        assert!(c.at_end(&v));
    }

    #[test]
    fn validate_names_each_unusable_parameter() {
        let ok = VideoParams::default();
        assert_eq!(ok.validate(), Ok(()));
        let zero_fps = VideoParams { fps: 0, ..ok };
        assert_eq!(zero_fps.validate(), Err(ParamsError::ZeroFps));
        let zero_rate = VideoParams {
            bit_rate_bps: 0,
            ..ok
        };
        assert_eq!(zero_rate.validate(), Err(ParamsError::ZeroBitRate));
        let empty = VideoParams {
            duration: SimDuration::ZERO,
            ..ok
        };
        assert_eq!(empty.validate(), Err(ParamsError::NoFrames));
        let huge = VideoParams {
            bit_rate_bps: 2_000_000_000,
            ..ok
        };
        assert_eq!(
            huge.validate(),
            Err(ParamsError::GopTooLarge {
                bit_rate_bps: 2_000_000_000
            })
        );
    }

    #[test]
    #[should_panic(expected = "overflow the u32 frame offsets")]
    fn unvalidated_oversized_gop_fails_loudly() {
        // 1 Tbit/s: a mean GOP of 62.5 GB cannot be offset in 32 bits.
        let params = VideoParams {
            bit_rate_bps: 1_000_000_000_000,
            duration: SimDuration::from_millis(500),
            ..VideoParams::default()
        };
        Video::generate(VideoId(0), params, 1);
    }

    /// Every lookup agrees with the prefix sum of the regenerated frame
    /// sizes.
    fn assert_index_matches_frame_sizes(v: &Video) {
        let mut flat = vec![0u64];
        for g in 0..v.num_gops() {
            let present = gop_frames(v.num_frames(), g);
            for &s in &v.gop_frame_sizes(g)[..present] {
                flat.push(flat.last().unwrap() + s);
            }
        }
        assert_eq!(flat.len() as u64, v.num_frames() + 1);
        let mut c = PlayCursor::new(v, 0);
        for (f, w) in flat.windows(2).enumerate() {
            let f = f as u64;
            assert_eq!(v.cum_bytes_at_frame(f), w[0], "frame {f}");
            assert_eq!(v.frame_at_byte(w[0]), f, "first byte of frame {f}");
            assert_eq!(v.frame_at_byte(w[1] - 1), f, "last byte of frame {f}");
            assert_eq!(v.frame_at_byte_near(w[1] - 1, 0), f, "frame {f}");
            assert_eq!(c.bytes_through_frame(), w[1], "frame {f}");
            c.advance(v);
        }
        assert_eq!(v.total_bytes(), *flat.last().unwrap());
    }

    /// The largest offset of a frame into its GOP in `v`.
    fn largest_offset(v: &Video) -> u64 {
        (0..v.num_gops())
            .map(|g| {
                let present = gop_frames(v.num_frames(), g);
                v.gop_frame_sizes(g)[..present - 1].iter().sum::<u64>()
            })
            .max()
            .unwrap()
    }

    #[test]
    fn titles_with_offsets_under_the_3_byte_mask_use_3_byte_slots() {
        for bit_rate_bps in [4_000_000, 15_000_000] {
            let params = VideoParams {
                bit_rate_bps,
                ..VideoParams::default()
            };
            let v = Video::generate(VideoId(1), params, 3);
            assert!(largest_offset(&v) < (1 << 24) - 1, "{bit_rate_bps} bit/s");
            assert_eq!(v.slot_bytes, 3, "{bit_rate_bps} bit/s");
            assert_eq!(v.slots.len(), v.num_gops() as usize * (GOP_LEN - 1) * 3 + 1);
        }
    }

    #[test]
    fn slots_widen_to_4_bytes_at_an_offset_of_the_3_byte_mask() {
        // 20.1 s = 40 GOPs + 3 frames. At 150 Mbit/s a mean GOP is 9.4 MB,
        // and with this seed the first offset past the mask is in GOP 19,
        // so the slots widen after some were written 3 bytes wide; at
        // 300 Mbit/s (18.75 MB) GOP 0 already has one.
        for (bit_rate_bps, first_wide_gop) in [(150_000_000, 19), (300_000_000, 0)] {
            let params = VideoParams {
                bit_rate_bps,
                duration: SimDuration::from_millis(20_100),
                ..VideoParams::default()
            };
            let v = Video::generate(VideoId(0), params, 11);
            let first = (0..v.num_gops()).find(|&g| {
                let sizes = v.gop_frame_sizes(g);
                sizes[..GOP_LEN - 1].iter().sum::<u64>() >= (1 << 24) - 1
            });
            assert_eq!(first, Some(first_wide_gop), "{bit_rate_bps} bit/s");
            assert_eq!(v.slot_bytes, 4, "{bit_rate_bps} bit/s");
            assert_index_matches_frame_sizes(&v);
        }
    }

    #[test]
    fn bytes_past_the_mask_in_a_partial_gop_find_their_frame() {
        // Two-frame titles at 960 Mbit/s: a mean I frame of 12 MB, then a
        // 2.4 MB B frame. Find one whose I frame stays under the 3-byte
        // mask but whose second frame ends past it, so the byte lookups in
        // that frame search for offsets beyond every 3-byte slot.
        let params = VideoParams {
            bit_rate_bps: 960_000_000,
            duration: SimDuration::from_millis(67),
            ..VideoParams::default()
        };
        let mask = u64::from(slot_mask(3));
        let v = (0..100)
            .map(|seed| Video::generate(VideoId(0), params, seed))
            .find(|v| v.cum_bytes_at_frame(1) < mask && v.total_bytes() > mask + 1)
            .expect("a title whose last frame crosses the mask");
        assert_eq!(v.num_frames(), 2);
        assert_eq!(v.slot_bytes, 3);
        assert_eq!(v.frame_at_byte(mask + 1), 1);
        assert_index_matches_frame_sizes(&v);
    }

    #[test]
    fn frame_sizes_are_positive() {
        let v = short_video();
        for g in 0..v.num_gops() {
            assert!(v.gop_frame_sizes(g).iter().all(|&s| s >= 1));
        }
    }
}
