//! Synthetic MPEG-I video streams, per §6.1 of the SPIFFI paper.
//!
//! "To make the simulator as accurate as possible, the display of individual
//! MPEG frames is simulated." A compressed stream interleaves three frame
//! types — intra (I), predicted (P) and bidirectional (B) — in a repeating
//! 15-frame group of pictures. The paper's parameters:
//!
//! * I:P:B frame **frequency** ratio 1:4:10 (the classic
//!   `IBBPBBPBBPBBPBB` GOP),
//! * I:P:B frame **size** ratio 10:5:2,
//! * overall bit rate 4 Mbit/s at NTSC's ~30 frames/s,
//! * individual frame sizes exponentially distributed,
//! * "Each time the same video is played, the same sequence of frames and
//!   frame sizes is repeated" — frame sizes are a deterministic function of
//!   `(video seed, frame index)`.
//!
//! A one-hour video has 108 000 frames. [`Video`] indexes them in two
//! levels: a `u64` cumulative byte count per GOP (~58 KB per hour of
//! video) and a 3-byte offset from the start of its GOP for each frame
//! but the GOP's first (~302 KB; 4 bytes for a title with an offset of 16 MiB
//! or more), under half what a flat `u64` per frame would take.
//! [`PlayCursor`] adds an O(1) sequential window over that index for the
//! terminal's frame-accurate consumption. A [`Library`] generates its
//! titles independently, so it can spread them over threads and still
//! come out byte-identical.

#![warn(missing_docs)]

pub mod frame;
pub mod library;
pub mod video;

pub use frame::{FrameType, GopPattern, GOP_LEN};
pub use library::{AccessPattern, Library, TitleSelector};
pub use video::{ParamsError, PlayCursor, Video, VideoId, VideoParams};
