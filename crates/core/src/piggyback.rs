//! Piggybacking terminals (§8.2 of the SPIFFI paper).
//!
//! "There is no reason why the video server could not recognize popular
//! movies and intentionally delay the first subscriber (e.g., by playing a
//! few commercials) while it waits for additional subscribers to request
//! the same movie. In this way, a group of terminals could be 'piggybacked'
//! and serviced as though they were one terminal."
//!
//! The manager batches start requests per title within a configurable
//! delay window. When a batch fires, its first member becomes the group
//! *leader* — the only terminal that actually transfers data — and the
//! rest become *followers* who watch the leader's stream (a network-level
//! multicast). Followers therefore place no additional load on the server.

use std::collections::HashMap;

use spiffi_mpeg::VideoId;
use spiffi_simcore::{SimDuration, SimTime};

/// Outcome of routing a start request through the manager.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StartDecision {
    /// A new batch was opened for this title; the system must schedule a
    /// batch-fire event at the returned instant.
    OpenedBatch {
        /// When the batch fires.
        fire_at: SimTime,
    },
    /// The terminal joined an existing batch and waits for it to fire.
    JoinedBatch,
    /// The request was dropped: the terminal is already a member of the
    /// open batch for this title, or is currently following another
    /// terminal's stream and so cannot start one of its own.
    Ignored,
}

/// The piggyback batch manager.
#[derive(Debug, Default)]
pub struct Piggyback {
    delay: SimDuration,
    open: HashMap<VideoId, Vec<u32>>,
    /// leader → followers, for groups currently streaming.
    groups: HashMap<u32, Vec<u32>>,
    /// follower → leader.
    leader_of: HashMap<u32, u32>,
    batches_fired: u64,
    terminals_piggybacked: u64,
}

impl Piggyback {
    /// A manager batching starts within `delay`.
    pub fn new(delay: SimDuration) -> Self {
        Piggyback {
            delay,
            ..Default::default()
        }
    }

    /// The batching delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Terminal `term` wants to start `video` at `now`.
    ///
    /// A terminal currently following another terminal's stream has no
    /// stream of its own to start — its request is [`StartDecision::Ignored`]
    /// (it will pick a fresh title when its group dissolves). Likewise a
    /// terminal already waiting in the open batch for this title is not
    /// added a second time: duplicates would inflate
    /// [`Piggyback::terminals_piggybacked`], hand [`Piggyback::fire`] a
    /// follower list with repeats, and let a terminal overwrite its own
    /// `leader_of` entry.
    pub fn request_start(&mut self, term: u32, video: VideoId, now: SimTime) -> StartDecision {
        if self.leader_of.contains_key(&term) {
            return StartDecision::Ignored;
        }
        match self.open.get_mut(&video) {
            Some(members) => {
                if members.contains(&term) {
                    StartDecision::Ignored
                } else {
                    members.push(term);
                    StartDecision::JoinedBatch
                }
            }
            None => {
                self.open.insert(video, vec![term]);
                StartDecision::OpenedBatch {
                    fire_at: now + self.delay,
                }
            }
        }
    }

    /// Fire the batch for `video`: returns `(leader, followers)`.
    ///
    /// # Panics
    /// If no batch is open for the title.
    pub fn fire(&mut self, video: VideoId) -> (u32, Vec<u32>) {
        let members = self
            .open
            .remove(&video)
            .expect("fired a batch that is not open");
        let leader = members[0];
        let followers = members[1..].to_vec();
        for &f in &followers {
            self.leader_of.insert(f, leader);
        }
        self.terminals_piggybacked += followers.len() as u64;
        self.batches_fired += 1;
        self.groups.insert(leader, followers.clone());
        (leader, followers)
    }

    /// The leader's title finished: dissolve its group and return every
    /// member (leader first) so each can select a new title.
    pub fn dissolve(&mut self, leader: u32) -> Vec<u32> {
        let followers = self.groups.remove(&leader).unwrap_or_default();
        let mut all = Vec::with_capacity(followers.len() + 1);
        all.push(leader);
        for f in followers {
            self.leader_of.remove(&f);
            all.push(f);
        }
        all
    }

    /// True if `term` is currently following another terminal's stream.
    pub fn is_follower(&self, term: u32) -> bool {
        self.leader_of.contains_key(&term)
    }

    /// Number of streams saved so far (followers across all fired batches).
    pub fn terminals_piggybacked(&self) -> u64 {
        self.terminals_piggybacked
    }

    /// Batches fired so far.
    pub fn batches_fired(&self) -> u64 {
        self.batches_fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn first_requester_opens_batch() {
        let mut pb = Piggyback::new(SimDuration::from_secs(300));
        let d = pb.request_start(1, VideoId(0), t(10.0));
        assert_eq!(d, StartDecision::OpenedBatch { fire_at: t(310.0) });
    }

    #[test]
    fn subsequent_requesters_join() {
        let mut pb = Piggyback::new(SimDuration::from_secs(300));
        pb.request_start(1, VideoId(0), t(0.0));
        assert_eq!(
            pb.request_start(2, VideoId(0), t(50.0)),
            StartDecision::JoinedBatch
        );
        assert_eq!(
            pb.request_start(3, VideoId(0), t(100.0)),
            StartDecision::JoinedBatch
        );
        let (leader, followers) = pb.fire(VideoId(0));
        assert_eq!(leader, 1);
        assert_eq!(followers, vec![2, 3]);
        assert!(pb.is_follower(2));
        assert!(pb.is_follower(3));
        assert!(!pb.is_follower(1));
        assert_eq!(pb.terminals_piggybacked(), 2);
        assert_eq!(pb.batches_fired(), 1);
    }

    #[test]
    fn different_titles_batch_separately() {
        let mut pb = Piggyback::new(SimDuration::from_secs(300));
        pb.request_start(1, VideoId(0), t(0.0));
        let d = pb.request_start(2, VideoId(1), t(0.0));
        assert!(matches!(d, StartDecision::OpenedBatch { .. }));
    }

    #[test]
    fn batch_reopens_after_fire() {
        let mut pb = Piggyback::new(SimDuration::from_secs(300));
        pb.request_start(1, VideoId(0), t(0.0));
        pb.fire(VideoId(0));
        // A new request after firing opens a fresh batch.
        let d = pb.request_start(9, VideoId(0), t(400.0));
        assert_eq!(d, StartDecision::OpenedBatch { fire_at: t(700.0) });
    }

    #[test]
    fn duplicate_join_is_ignored() {
        // Regression: the same terminal could join an open batch twice,
        // appearing twice in fire()'s follower list and double-counting
        // terminals_piggybacked.
        let mut pb = Piggyback::new(SimDuration::from_secs(300));
        pb.request_start(1, VideoId(0), t(0.0));
        assert_eq!(
            pb.request_start(2, VideoId(0), t(10.0)),
            StartDecision::JoinedBatch
        );
        assert_eq!(
            pb.request_start(2, VideoId(0), t(20.0)),
            StartDecision::Ignored
        );
        // The batch opener re-requesting is a duplicate too.
        assert_eq!(
            pb.request_start(1, VideoId(0), t(30.0)),
            StartDecision::Ignored
        );
        let (leader, followers) = pb.fire(VideoId(0));
        assert_eq!(leader, 1);
        assert_eq!(followers, vec![2]);
        assert_eq!(pb.terminals_piggybacked(), 1);
    }

    #[test]
    fn active_follower_cannot_start() {
        // Regression: a follower of a streaming group could open or join a
        // batch; if it then led (or followed) that batch, leader_of and
        // groups lost track of the original membership.
        let mut pb = Piggyback::new(SimDuration::from_secs(10));
        pb.request_start(1, VideoId(0), t(0.0));
        pb.request_start(2, VideoId(0), t(1.0));
        pb.fire(VideoId(0));
        assert!(pb.is_follower(2));
        // Terminal 2 is mid-stream behind leader 1: both opening a new
        // title and joining an open batch must be refused.
        assert_eq!(
            pb.request_start(2, VideoId(3), t(5.0)),
            StartDecision::Ignored
        );
        pb.request_start(7, VideoId(4), t(5.0));
        assert_eq!(
            pb.request_start(2, VideoId(4), t(6.0)),
            StartDecision::Ignored
        );
        let (_, followers) = pb.fire(VideoId(4));
        assert!(!followers.contains(&2));
        // Once its group dissolves the terminal may start again.
        pb.dissolve(1);
        assert!(matches!(
            pb.request_start(2, VideoId(5), t(20.0)),
            StartDecision::OpenedBatch { .. }
        ));
    }

    #[test]
    fn dissolve_returns_all_members() {
        let mut pb = Piggyback::new(SimDuration::from_secs(10));
        pb.request_start(1, VideoId(0), t(0.0));
        pb.request_start(2, VideoId(0), t(1.0));
        pb.fire(VideoId(0));
        let members = pb.dissolve(1);
        assert_eq!(members, vec![1, 2]);
        assert!(!pb.is_follower(2));
        // Dissolving a solo terminal (no group) returns just itself.
        assert_eq!(pb.dissolve(5), vec![5]);
    }
}
