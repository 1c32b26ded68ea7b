//! The video terminal (§5.1 of the SPIFFI paper).
//!
//! "Before initiating display of a movie, a terminal first fills or
//! *primes* its buffers with video data. Then it begins decompressing and
//! displaying the movie while simultaneously retrieving subsequent blocks
//! of video. A terminal will always request more video data from the video
//! server as long as it has the memory to buffer it. … If the terminal
//! runs out of video to display, a *glitch* occurs and the terminal must
//! pause the movie while it waits for more data to arrive. If a glitch
//! does occur, the terminal re-primes its buffers before restarting display
//! of the video."
//!
//! The display of individual MPEG frames is simulated exactly, but *lazily*:
//! rather than scheduling one event per displayed frame (~82 million events
//! at 64-disk scale), the terminal computes the precise future instants at
//! which something can change — the moment its contiguous data runs dry
//! (a glitch), the moment enough frames will have been displayed to free
//! buffer space for the next request, the next scheduled pause, and the end
//! of the title — and asks the system to wake it then. Between wakes it
//! fast-forwards its consumption cursor to the current time. The observable
//! behaviour is identical to per-frame simulation.
//!
//! Requests are aligned to exactly one stripe block each (§7: "the
//! terminals carefully align read requests so that they correspond to
//! exactly one stripe block and may always be serviced by a single disk").

use std::collections::{BTreeSet, VecDeque};

use spiffi_mpeg::{PlayCursor, Video, VideoId};
use spiffi_simcore::{SimDuration, SimTime};

/// Playback state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlayState {
    /// No video assigned yet.
    Idle,
    /// Filling buffers before (re)starting display.
    Priming,
    /// Displaying; frame `f` (with `f ≥` the session's base frame) is
    /// shown at `origin + (frame_display_offset(f) −
    /// frame_display_offset(base))`.
    Playing {
        /// Display instant of the session's base frame.
        origin: SimTime,
    },
    /// User pressed pause; display resumes at `resume_at`.
    Paused {
        /// Origin in effect when the pause began.
        origin: SimTime,
        /// When the pause began.
        paused_at: SimTime,
        /// When display will resume.
        resume_at: SimTime,
    },
    /// The title finished; awaiting the next selection.
    Finished,
}

/// What a [`Terminal::pump`] decided: requests to transmit, when to wake
/// the terminal next, and which lifecycle transitions occurred.
#[derive(Clone, Debug, Default)]
pub struct Pump {
    /// Stripe-block indices to request from the server now.
    pub requests: Vec<u32>,
    /// Next instant at which the terminal must be pumped (via a wake
    /// event), if any.
    pub wake_at: Option<SimTime>,
    /// A glitch occurred during this pump.
    pub glitched: bool,
    /// The title completed during this pump.
    pub finished: bool,
    /// Display (re)started during this pump.
    pub started_playing: bool,
    /// A pause began during this pump.
    pub paused: bool,
}

/// One subscriber's set-top terminal.
///
/// The struct is split hot/cold for cache behaviour at large populations:
/// the fields every pump and every block arrival touch live inline (with
/// the play cursor, which the frame-consumption loop reads constantly),
/// while rarely-touched containers and lifetime statistics sit behind one
/// pointer in `TerminalCold`. A million-terminal vector thus keeps its
/// per-wake working set to the terminal's own few cachelines.
#[derive(Debug)]
pub struct Terminal {
    id: u32,
    capacity: u64,
    state: PlayState,
    video: Option<VideoId>,
    cursor: Option<PlayCursor>,
    /// First frame of the current viewing session (0 for a normal start;
    /// the seek target after fast-forward/rewind). Display timing is
    /// expressed relative to this frame so mid-video sessions never
    /// produce negative virtual origins.
    base_frame: u64,
    /// Bumped on every video start/seek; replies from older epochs are
    /// stale and ignored. 16 bits suffice: a stale collision would need
    /// 65 536 starts/seeks while a single reply is on the wire.
    epoch: u16,
    /// Bumped on every pump; wake events from older generations are stale.
    gen: u64,
    /// Next block index expected to extend the contiguous prefix.
    frontier_block: u32,
    /// End (exclusive, video-stream byte offset) of contiguous data.
    contiguous_end: u64,
    /// Byte total of the blocks parked in [`TerminalCold::ooo`]; doubles
    /// as the is-empty fast path that keeps arrivals off the cold box.
    ooo_bytes: u64,
    /// Next block index to request.
    next_request: u32,
    /// Requested bytes that have not arrived yet.
    outstanding: u64,
    /// Frame of the next scheduled pause (`u64::MAX` when none): the
    /// head of [`TerminalCold::pauses`], mirrored here so the per-frame
    /// consumption loop never dereferences the cold box.
    next_pause_frame: u64,
    /// First frame not fully inside the contiguous prefix, memoized for
    /// the prefix end it was computed at.
    data_stop: DataStop,
    blocks_received: u64,
    /// Rarely-touched state, one pointer away.
    cold: Box<TerminalCold>,
}

/// The cold half of a [`Terminal`]: containers touched only on
/// out-of-order arrivals, pause transitions, and title changes, plus
/// lifetime statistics read at report collection.
#[derive(Debug, Default)]
struct TerminalCold {
    /// Blocks arrived beyond the frontier.
    ooo: BTreeSet<u32>,
    /// Pauses still pending for this title: (frame, duration), ascending.
    pauses: VecDeque<(u64, SimDuration)>,
    glitches_total: u64,
    videos_completed: u64,
}

impl Terminal {
    /// A terminal with `capacity` bytes of buffer memory.
    pub fn new(id: u32, capacity: u64) -> Self {
        Terminal {
            id,
            capacity,
            state: PlayState::Idle,
            video: None,
            cursor: None,
            base_frame: 0,
            epoch: 0,
            gen: 0,
            frontier_block: 0,
            contiguous_end: 0,
            ooo_bytes: 0,
            next_request: 0,
            outstanding: 0,
            next_pause_frame: u64::MAX,
            data_stop: DataStop::STALE,
            blocks_received: 0,
            cold: Box::default(),
        }
    }

    /// Terminal id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current playback state.
    pub fn state(&self) -> PlayState {
        self.state
    }

    /// Currently assigned title.
    pub fn video(&self) -> Option<VideoId> {
        self.video
    }

    /// The request epoch (stale-reply filtering).
    pub fn epoch(&self) -> u16 {
        self.epoch
    }

    /// The wake generation (stale-wake filtering).
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Total glitches since creation.
    pub fn glitches_total(&self) -> u64 {
        self.cold.glitches_total
    }

    /// Titles finished since creation.
    pub fn videos_completed(&self) -> u64 {
        self.cold.videos_completed
    }

    /// Stripe blocks received since creation.
    pub fn blocks_received(&self) -> u64 {
        self.blocks_received
    }

    /// The frame the consumption cursor stands on (the next frame to
    /// display), if a video is loaded.
    pub fn current_frame(&self) -> Option<u64> {
        self.cursor.as_ref().map(|c| c.frame())
    }

    /// Bytes currently buffered (contiguous-ahead plus out-of-order).
    pub fn buffered_bytes(&self) -> u64 {
        let pos = self.cursor.as_ref().map_or(0, |c| c.bytes_before_frame());
        self.contiguous_end.saturating_sub(pos) + self.ooo_bytes
    }

    /// Begin a new title (or seek within one) at `start_frame`, with a
    /// pre-drawn pause plan. Resets all transfer state and bumps the epoch
    /// so in-flight replies for the previous title are ignored.
    pub fn start_video(
        &mut self,
        video: &Video,
        block_bytes: u64,
        start_frame: u64,
        pauses: Vec<(u64, SimDuration)>,
    ) {
        self.video = Some(video.id());
        let cursor = PlayCursor::new(video, start_frame);
        let start_byte = cursor.bytes_before_frame();
        let start_block = (start_byte / block_bytes) as u32;
        self.cursor = Some(cursor);
        self.base_frame = start_frame;
        self.epoch = self.epoch.wrapping_add(1);
        self.state = PlayState::Priming;
        self.frontier_block = start_block;
        self.contiguous_end = start_block as u64 * block_bytes;
        self.data_stop = DataStop::STALE; // new title: cached stop is for the old frame index
        self.cold.ooo.clear();
        self.ooo_bytes = 0;
        self.next_request = start_block;
        self.outstanding = 0;
        self.cold.pauses = pauses.into();
        self.next_pause_frame = self.cold.pauses.front().map_or(u64::MAX, |&(f, _)| f);
        debug_assert!(
            self.cold
                .pauses
                .iter()
                .zip(self.cold.pauses.iter().skip(1))
                .all(|(a, b)| a.0 <= b.0),
            "pause plan must be frame-ordered"
        );
    }

    /// A stripe block arrived. Returns `false` (and changes nothing) if the
    /// reply is stale — from before the last [`Terminal::start_video`].
    pub fn on_block_arrival(
        &mut self,
        video: &Video,
        block_bytes: u64,
        index: u32,
        epoch: u16,
    ) -> bool {
        if epoch != self.epoch {
            return false;
        }
        let total = video.total_bytes();
        let len = block_len(total, block_bytes, index);
        self.blocks_received += 1;
        debug_assert!(self.outstanding >= len, "arrival without a request");
        self.outstanding -= len;
        if index == self.frontier_block {
            self.frontier_block += 1;
            // Pull any out-of-order successors into the contiguous prefix
            // (`ooo_bytes > 0` keeps the common in-order case off the cold
            // box entirely).
            if self.ooo_bytes > 0 {
                while self.cold.ooo.remove(&self.frontier_block) {
                    self.ooo_bytes -= block_len(total, block_bytes, self.frontier_block);
                    self.frontier_block += 1;
                }
            }
            self.contiguous_end = (self.frontier_block as u64 * block_bytes).min(total);
        } else {
            debug_assert!(index > self.frontier_block, "duplicate block arrival");
            self.cold.ooo.insert(index);
            self.ooo_bytes += len;
        }
        true
    }

    /// Deadline the terminal attaches to a request for `block`: the display
    /// instant of the first frame needing that block's data. While priming,
    /// playback is assumed to start immediately, making priming requests
    /// maximally urgent.
    pub fn deadline_for_block(
        &self,
        video: &Video,
        block_bytes: u64,
        block: u32,
        now: SimTime,
    ) -> SimTime {
        let cursor = self.cursor.as_ref().expect("deadline without a video");
        let origin = match self.state {
            PlayState::Playing { origin } => origin,
            PlayState::Paused {
                origin,
                paused_at,
                resume_at,
            } => origin + (resume_at - paused_at),
            // Priming (or just started): assume display starts now.
            _ => virtual_origin(video, self.base_frame, cursor.frame(), now),
        };
        // Requested blocks lie within one terminal buffer of the cursor.
        let first_frame = video
            .frame_at_byte_near(block as u64 * block_bytes, cursor.frame())
            .max(self.base_frame);
        display_time(video, origin, self.base_frame, first_frame)
    }

    /// Advance the terminal to `now`: consume due frames, detect glitches,
    /// start/stop display, and decide which new requests fit in memory.
    /// The system must deliver the returned requests and schedule a wake at
    /// `wake_at` tagged with the (freshly bumped) [`Terminal::gen`].
    pub fn pump(&mut self, video: &Video, block_bytes: u64, now: SimTime) -> Pump {
        self.pump_reusing(video, block_bytes, now, Vec::new())
    }

    /// [`Terminal::pump`], but recycling a caller-owned request buffer.
    ///
    /// `requests` is cleared and becomes the returned [`Pump::requests`],
    /// so a caller that hands the vector back on the next pump (as the
    /// event loop does) amortizes the per-wake allocation away entirely.
    /// Behaviour is otherwise identical to `pump`.
    pub fn pump_reusing(
        &mut self,
        video: &Video,
        block_bytes: u64,
        now: SimTime,
        mut requests: Vec<u32>,
    ) -> Pump {
        requests.clear();
        self.gen += 1;
        let mut out = Pump {
            requests,
            ..Pump::default()
        };
        let total = video.total_bytes();
        let num_frames = video.num_frames();

        // Resume a due pause.
        if let PlayState::Paused {
            origin,
            paused_at,
            resume_at,
        } = self.state
        {
            if now >= resume_at {
                self.state = PlayState::Playing {
                    origin: origin + (resume_at - paused_at),
                };
            }
        }

        // Consume every frame due by `now`.
        while let PlayState::Playing { origin } = self.state {
            let cursor = self.cursor.as_mut().expect("playing without a video");
            if cursor.at_end(video) {
                // The title ends when the last frame's display slot closes.
                let end_at = display_time(video, origin, self.base_frame, num_frames);
                if end_at <= now {
                    self.state = PlayState::Finished;
                    self.cold.videos_completed += 1;
                    out.finished = true;
                }
                break;
            }
            let frame = cursor.frame();
            let ft = display_time(video, origin, self.base_frame, frame);
            if ft > now {
                break;
            }
            // A scheduled pause takes effect at its frame's display
            // instant. The mirrored head frame keeps this per-frame check
            // to one inline compare; the cold deque is touched only when a
            // pause actually fires.
            if frame >= self.next_pause_frame {
                let (_, dur) = self
                    .cold
                    .pauses
                    .pop_front()
                    .expect("pause mirror out of sync");
                self.next_pause_frame = self.cold.pauses.front().map_or(u64::MAX, |&(f, _)| f);
                self.state = PlayState::Paused {
                    origin,
                    paused_at: ft,
                    resume_at: ft + dur,
                };
                out.paused = true;
                continue; // re-enter: the pause may already be over
            }
            if cursor.bytes_through_frame() <= self.contiguous_end {
                // Every frame strictly before `stop` passes the same three
                // checks just made for this one — due by `now`, below the
                // pause threshold, inside contiguous data — because each
                // predicate is monotone in the frame index. Jump the
                // cursor there in one seek instead of spending a loop
                // iteration (display-time math and all) per frame; the
                // loop's next pass handles whatever `stop` ran into, in
                // the original per-frame priority order.
                let played =
                    SimDuration(now.0 + video.frame_display_offset(self.base_frame).0 - origin.0);
                let stop = video
                    .first_frame_after(played)
                    .min(self.next_pause_frame)
                    .min(self.data_stop.frame(video, self.contiguous_end, frame));
                debug_assert!(stop > frame, "bulk pump advance must make progress");
                cursor.seek(video, stop);
            } else {
                // Out of data at this frame's display instant: glitch and
                // re-prime (§5.1).
                self.cold.glitches_total += 1;
                out.glitched = true;
                self.state = PlayState::Priming;
                break;
            }
        }

        // Issue requests while buffer memory allows.
        if !matches!(self.state, PlayState::Idle | PlayState::Finished) {
            let num_blocks = total.div_ceil(block_bytes) as u32;
            loop {
                if self.next_request >= num_blocks {
                    break;
                }
                let len = block_len(total, block_bytes, self.next_request);
                if self.buffered_bytes() + self.outstanding + len > self.capacity {
                    break;
                }
                out.requests.push(self.next_request);
                self.outstanding += len;
                self.next_request += 1;
            }

            // Priming completes when nothing more can be requested and all
            // requested data has arrived.
            if matches!(self.state, PlayState::Priming)
                && self.outstanding == 0
                && (self.next_request >= num_blocks || {
                    let len = block_len(total, block_bytes, self.next_request);
                    self.buffered_bytes() + len > self.capacity
                })
                && out.requests.is_empty()
            {
                let cursor = self.cursor.as_ref().expect("priming without a video");
                self.state = PlayState::Playing {
                    origin: virtual_origin(video, self.base_frame, cursor.frame(), now),
                };
                out.started_playing = true;
            }
        }

        out.wake_at = self.next_wake(video, block_bytes, now);
        out
    }

    /// The earliest future instant at which this terminal's state can
    /// change without external input.
    fn next_wake(&mut self, video: &Video, block_bytes: u64, _now: SimTime) -> Option<SimTime> {
        match self.state {
            PlayState::Idle | PlayState::Priming | PlayState::Finished => None,
            PlayState::Paused { resume_at, .. } => Some(resume_at),
            PlayState::Playing { origin } => {
                let cursor = self.cursor.as_ref().expect("playing without a video");
                let total = video.total_bytes();
                let num_frames = video.num_frames();
                let mut wake: Option<SimTime> = None;
                let mut consider = |t: SimTime| {
                    wake = Some(match wake {
                        None => t,
                        Some(w) => w.min(t),
                    });
                };

                if cursor.at_end(video) {
                    consider(display_time(video, origin, self.base_frame, num_frames));
                    return wake;
                }

                // Moment the contiguous data runs dry (potential glitch),
                // or the end of the title if everything is buffered.
                let dry_frame = self
                    .data_stop
                    .frame(video, self.contiguous_end, cursor.frame());
                consider(display_time(video, origin, self.base_frame, dry_frame));

                // Moment enough frames will have been displayed to free
                // space for the next request.
                let num_blocks = total.div_ceil(block_bytes) as u32;
                if self.next_request < num_blocks {
                    let len = block_len(total, block_bytes, self.next_request);
                    let target = (self.contiguous_end + self.ooo_bytes + self.outstanding + len)
                        .saturating_sub(self.capacity);
                    if target > cursor.bytes_before_frame() {
                        // First frame k with cum(k+1) ≥ target.
                        let k = video.frame_at_byte_near(target - 1, cursor.frame());
                        consider(display_time(video, origin, self.base_frame, k));
                    }
                }

                // Next scheduled pause (mirrored head frame; MAX = none).
                if self.next_pause_frame != u64::MAX {
                    let pf = self.next_pause_frame.max(cursor.frame());
                    consider(display_time(video, origin, self.base_frame, pf));
                }

                wake
            }
        }
    }
}

/// The first frame not fully inside a terminal's contiguous prefix, with
/// the prefix end it was computed at.
///
/// The bulk pump advance and the next-wake computation both need it on
/// every playing pump, but the prefix only moves on block arrival, so the
/// byte-to-frame lookup behind it reruns only when the prefix has moved.
#[derive(Clone, Copy, Debug)]
struct DataStop {
    frame: u64,
    /// `contiguous_end` that `frame` belongs to (`u64::MAX` = stale).
    end: u64,
}

impl DataStop {
    /// A memo no prefix end matches.
    const STALE: DataStop = DataStop {
        frame: 0,
        end: u64::MAX,
    };

    /// The first frame of `video` not fully inside `[0, contiguous_end)`,
    /// searched from `cursor_frame`: the prefix ends at most one terminal
    /// buffer ahead of the cursor. Once the prefix covers the whole title
    /// the data never stops playback, so the answer is `num_frames`
    /// (the lookup would clamp to the last frame instead).
    #[inline]
    fn frame(&mut self, video: &Video, contiguous_end: u64, cursor_frame: u64) -> u64 {
        if self.end != contiguous_end {
            self.frame = if contiguous_end >= video.total_bytes() {
                video.num_frames()
            } else {
                video.frame_at_byte_near(contiguous_end, cursor_frame)
            };
            self.end = contiguous_end;
        }
        self.frame
    }
}

/// Length of block `index` of a `total`-byte stream cut into `block_bytes`
/// blocks (the final block may be short).
pub fn block_len(total: u64, block_bytes: u64, index: u32) -> u64 {
    let start = index as u64 * block_bytes;
    debug_assert!(start < total, "block {index} beyond stream end");
    block_bytes.min(total - start)
}

/// Display instant of frame `f` for a session whose base frame displays
/// at `origin`.
fn display_time(video: &Video, origin: SimTime, base_frame: u64, f: u64) -> SimTime {
    origin + (video.frame_display_offset(f) - video.frame_display_offset(base_frame))
}

/// The origin (display instant of `base_frame`) if frame `frame` begins
/// display at `now`. `frame ≥ base_frame` always holds: the cursor starts
/// at the base frame and only moves forward within a session, and playback
/// (re)starts strictly after the session began, so the subtraction cannot
/// underflow.
fn virtual_origin(video: &Video, base_frame: u64, frame: u64, now: SimTime) -> SimTime {
    let elapsed = video.frame_display_offset(frame) - video.frame_display_offset(base_frame);
    SimTime(
        now.0
            .checked_sub(elapsed.0)
            .expect("session played before it began"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiffi_mpeg::{VideoId, VideoParams};

    const BB: u64 = 512 * 1024;

    fn video() -> Video {
        Video::generate(
            VideoId(0),
            VideoParams {
                duration: SimDuration::from_secs(60),
                ..VideoParams::default()
            },
            42,
        )
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    /// Deliver block `i` and pump, returning the pump result.
    fn deliver(term: &mut Terminal, v: &Video, i: u32, now: SimTime) -> Pump {
        assert!(term.on_block_arrival(v, BB, i, term.epoch()));
        term.pump(v, BB, now)
    }

    #[test]
    fn priming_requests_fill_the_buffer() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        let p = term.pump(&v, BB, t(0.0));
        // 2 MB buffer / 512 KB blocks = 4 requests.
        assert_eq!(p.requests, vec![0, 1, 2, 3]);
        assert_eq!(term.state(), PlayState::Priming);
        assert!(p.wake_at.is_none(), "priming advances only on arrivals");
        assert!(!p.started_playing);
    }

    #[test]
    fn playback_starts_when_primed() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        term.pump(&v, BB, t(0.0));
        for i in 0..3 {
            let p = deliver(&mut term, &v, i, t(0.1 * (i + 1) as f64));
            assert!(!p.started_playing);
        }
        let p = deliver(&mut term, &v, 3, t(0.5));
        assert!(p.started_playing);
        assert!(matches!(term.state(), PlayState::Playing { .. }));
        assert!(p.wake_at.is_some());
        assert_eq!(term.buffered_bytes(), 4 * BB);
    }

    #[test]
    fn consumption_frees_space_and_triggers_requests() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        term.pump(&v, BB, t(0.0));
        for i in 0..4 {
            deliver(&mut term, &v, i, t(0.1));
        }
        // At 4 Mbit/s, 512 KB ≈ 1.05 s of video. Pump after 1.2 s of
        // display: at least one block's worth consumed → a new request.
        let p = term.pump(&v, BB, t(0.1 + 1.2));
        assert_eq!(p.requests, vec![4]);
        assert!(term.buffered_bytes() < 4 * BB);
    }

    #[test]
    fn glitch_when_data_runs_dry() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        term.pump(&v, BB, t(0.0));
        for i in 0..4 {
            deliver(&mut term, &v, i, t(0.1));
        }
        // Never deliver block 4. The 2 MB of data covers ~4.2 s of video;
        // pumping at the dry instant must record exactly one glitch and
        // fall back to priming.
        let mut p = term.pump(&v, BB, t(0.1));
        // The wakes before the dry instant are request opportunities; keep
        // pumping until the glitch.
        let mut glitch_at = t(0.0);
        let mut guard = 0;
        while !p.glitched {
            let w = p.wake_at.expect("must keep waking until dry");
            glitch_at = w;
            p = term.pump(&v, BB, w);
            guard += 1;
            assert!(guard < 100, "no glitch detected");
        }
        assert_eq!(term.glitches_total(), 1);
        assert_eq!(term.state(), PlayState::Priming);
        // 2 MB of data ≈ 4.2 s of 4 Mbit/s video: the glitch lands there.
        assert!(
            glitch_at.as_secs_f64() > 3.5 && glitch_at.as_secs_f64() < 5.0,
            "glitch at {glitch_at}"
        );
    }

    #[test]
    fn reprime_after_glitch_restarts_playback() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        let mut pending: Vec<u32> = term.pump(&v, BB, t(0.0)).requests;
        for i in pending.clone() {
            pending.extend(deliver(&mut term, &v, i, t(0.1)).requests);
        }
        // Run to the glitch, accumulating every request issued on the way.
        let mut p = term.pump(&v, BB, t(0.1));
        let mut guard = 0;
        while !p.glitched {
            pending.extend(p.requests.iter().copied());
            p = term.pump(&v, BB, p.wake_at.unwrap());
            guard += 1;
            assert!(guard < 200);
        }
        pending.extend(p.requests.iter().copied());
        let glitch_time = SimTime::from_secs_f64(5.0); // any time after
                                                       // Requests queued before the glitch (block 4 onward) are still
                                                       // outstanding; deliver everything it asks for until play restarts.
        let mut restarted = p.started_playing;
        let mut queue: std::collections::VecDeque<u32> =
            pending.into_iter().filter(|&b| b >= 4).collect();
        let mut guard = 0;
        while !restarted {
            let b = queue.pop_front().expect("terminal must keep requesting");
            let p = deliver(&mut term, &v, b, glitch_time);
            queue.extend(p.requests);
            restarted = p.started_playing;
            guard += 1;
            assert!(guard < 50, "re-prime never completed");
        }
        assert!(matches!(term.state(), PlayState::Playing { .. }));
    }

    #[test]
    fn out_of_order_arrivals_extend_contiguity_correctly() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        term.pump(&v, BB, t(0.0));
        // Blocks arrive 1, 3, 0, 2.
        term.on_block_arrival(&v, BB, 1, term.epoch());
        term.on_block_arrival(&v, BB, 3, term.epoch());
        assert_eq!(term.buffered_bytes(), 2 * BB); // all out-of-order
        term.on_block_arrival(&v, BB, 0, term.epoch());
        assert_eq!(term.buffered_bytes(), 3 * BB); // 0,1 contiguous + 3
        let p = deliver(&mut term, &v, 2, t(0.5));
        assert!(p.started_playing);
        assert_eq!(term.buffered_bytes(), 4 * BB);
    }

    #[test]
    fn stale_epoch_replies_are_dropped() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        term.pump(&v, BB, t(0.0));
        let old_epoch = term.epoch();
        // Seek (restart) before replies arrive.
        term.start_video(&v, BB, 0, vec![]);
        assert!(!term.on_block_arrival(&v, BB, 0, old_epoch));
        assert_eq!(term.buffered_bytes(), 0);
    }

    #[test]
    fn deadline_is_display_time_of_first_needing_frame() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        term.pump(&v, BB, t(0.0));
        for i in 0..4 {
            deliver(&mut term, &v, i, t(0.0));
        }
        // Playing with origin = 0. Block 4's first byte lives in a frame
        // about 4 × 1.05 s into the title.
        let d = term.deadline_for_block(&v, BB, 4, t(0.0));
        let expect = v
            .frame_display_offset(v.frame_at_byte(4 * BB))
            .as_secs_f64();
        assert!((d.as_secs_f64() - expect).abs() < 1e-9);
        assert!(d.as_secs_f64() > 3.0 && d.as_secs_f64() < 6.0, "{d}");
    }

    #[test]
    fn priming_deadlines_are_urgent() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        term.pump(&v, BB, t(10.0));
        // Block 0 is needed "immediately" — deadline at the assumed start.
        let d = term.deadline_for_block(&v, BB, 0, t(10.0));
        assert_eq!(d, t(10.0));
        // Later blocks get proportionally later deadlines.
        let d3 = term.deadline_for_block(&v, BB, 3, t(10.0));
        assert!(d3 > d);
    }

    #[test]
    fn pause_stops_consumption_and_resume_restores_it() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        // Pause at frame 30 (t=1 s into display) for 10 s.
        term.start_video(&v, BB, 0, vec![(30, SimDuration::from_secs(10))]);
        term.pump(&v, BB, t(0.0));
        for i in 0..4 {
            deliver(&mut term, &v, i, t(0.0));
        }
        // Display runs 0..1 s, then pauses until 11 s.
        let p = term.pump(&v, BB, t(1.0));
        assert!(p.paused);
        match term.state() {
            PlayState::Paused { resume_at, .. } => {
                assert_eq!(resume_at, t(11.0));
            }
            s => panic!("expected pause, got {s:?}"),
        }
        let buffered_at_pause = term.buffered_bytes();
        // Pumping mid-pause consumes nothing.
        let p = term.pump(&v, BB, t(5.0));
        assert_eq!(term.buffered_bytes(), buffered_at_pause);
        assert_eq!(p.wake_at, Some(t(11.0)));
        // After resume, the origin has shifted: frame 60 (2 s of content)
        // now displays at 12 s.
        term.pump(&v, BB, t(11.0));
        match term.state() {
            PlayState::Playing { origin } => assert_eq!(origin, t(10.0)),
            s => panic!("expected playing, got {s:?}"),
        }
    }

    #[test]
    fn requests_continue_during_pause() {
        let v = video();
        let mut term = Terminal::new(0, 4 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![(30, SimDuration::from_secs(60))]);
        let reqs = term.pump(&v, BB, t(0.0)).requests;
        assert_eq!(reqs.len(), 8);
        for i in 0..8 {
            deliver(&mut term, &v, i, t(0.0));
        }
        // Pause at 1 s; buffer has drained ~1 s of video, so a pump during
        // the pause can still issue the next request ("It can even use the
        // time during which it is paused to fill its buffers").
        let p = term.pump(&v, BB, t(1.5));
        assert!(matches!(term.state(), PlayState::Paused { .. }));
        assert!(!p.requests.is_empty(), "paused terminal must keep filling");
    }

    #[test]
    fn video_finishes_at_the_right_time() {
        // A tiny video (3 s) fully buffered: finishes exactly at 3 s after
        // display start.
        let v = Video::generate(
            VideoId(1),
            VideoParams {
                duration: SimDuration::from_secs(3),
                ..VideoParams::default()
            },
            7,
        );
        let total = v.total_bytes();
        let nblocks = total.div_ceil(BB) as u32;
        let mut term = Terminal::new(0, 8 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        let p = term.pump(&v, BB, t(0.0));
        assert_eq!(p.requests.len(), nblocks as usize);
        let mut started = false;
        for i in 0..nblocks {
            started |= deliver(&mut term, &v, i, t(0.0)).started_playing;
        }
        assert!(started);
        // Pump before the end: not finished.
        let p = term.pump(&v, BB, t(2.9));
        assert!(!p.finished);
        let wake = p.wake_at.expect("end-of-title wake");
        assert_eq!(wake, t(3.0));
        let p = term.pump(&v, BB, wake);
        assert!(p.finished);
        assert_eq!(term.videos_completed(), 1);
        assert_eq!(term.state(), PlayState::Finished);
    }

    #[test]
    fn mid_video_start_frame_seek() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        // Fast-forward: start at frame 900 (30 s in).
        term.start_video(&v, BB, 0, vec![]);
        term.pump(&v, BB, t(0.0));
        term.start_video(&v, BB, 900, vec![]);
        let p = term.pump(&v, BB, t(1.0));
        // Requests begin at the block containing frame 900's first byte.
        let expect_block = (v.cum_bytes_at_frame(900) / BB) as u32;
        assert_eq!(p.requests[0], expect_block);
        assert_eq!(p.requests.len(), 4);
    }

    #[test]
    fn wake_generation_increments_per_pump() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        let g0 = term.gen();
        term.pump(&v, BB, t(0.0));
        assert_eq!(term.gen(), g0 + 1);
        term.pump(&v, BB, t(0.0));
        assert_eq!(term.gen(), g0 + 2);
    }

    #[test]
    fn block_len_handles_short_tail() {
        assert_eq!(block_len(1000, 300, 0), 300);
        assert_eq!(block_len(1000, 300, 3), 100);
    }

    #[test]
    fn no_duplicate_requests_across_pumps() {
        let v = video();
        let mut term = Terminal::new(0, 2 * 1024 * 1024);
        term.start_video(&v, BB, 0, vec![]);
        let a = term.pump(&v, BB, t(0.0)).requests;
        let b = term.pump(&v, BB, t(0.0)).requests;
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert!(b.is_empty(), "second pump must not re-request");
    }
}
