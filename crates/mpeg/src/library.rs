//! The video library and title-popularity model.
//!
//! §6.1: "The simulated video library consists of 4 one hour long videos per
//! disk" and titles are requested with a Zipfian distribution (Figure 8),
//! "the parameter z determines how skewed the distribution is"; §7.5 also
//! evaluates a uniform distribution.

use spiffi_simcore::{dist::Zipf, fan_out, SimRng};

use crate::video::{Video, VideoId, VideoParams};

/// How terminals choose titles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AccessPattern {
    /// Every title equally likely (§7.4/§7.5 baseline).
    Uniform,
    /// Zipfian with skew `z` (paper default `z = 1`).
    Zipf(f64),
}

impl AccessPattern {
    /// The equivalent Zipf skew (uniform is `z = 0`).
    pub fn skew(self) -> f64 {
        match self {
            AccessPattern::Uniform => 0.0,
            AccessPattern::Zipf(z) => z,
        }
    }
}

/// A generated library of titles, numbered in popularity order.
///
/// A library may additionally carry **search versions** (§8.1 of the
/// paper): "a completely separate version of each movie may be stored for
/// supporting rewind and fast-forward searches … for a small amount of
/// additional disk space, the search versions of the movie will provide a
/// smooth, constant rate video stream." A search version at speed-up `k`
/// compresses the title's content into `1/k` of its duration (and bytes)
/// at the same stream rate; it occupies title ids `n..2n`.
#[derive(Clone, Debug)]
pub struct Library {
    videos: Vec<Video>,
    /// Number of *normal* titles (search versions, if any, follow).
    normal_titles: usize,
    /// Speed-up factor of the search versions, if present.
    search_speedup: Option<u32>,
}

impl Library {
    /// Generate `n` titles with identical stream parameters.
    pub fn generate(n: usize, params: VideoParams, seed: u64) -> Self {
        Self::generate_each(n, seed, 1, |_| params)
    }

    /// Generate `n` titles where title `i` uses `params_of(i)` — a
    /// bitrate-heterogeneous library (e.g. mostly 4 Mbit/s titles with
    /// every k-th at 15 Mbit/s) — on up to `threads` threads. Frame sizes
    /// still derive only from `(seed, id)` and the title's own parameters.
    pub fn generate_each(
        n: usize,
        seed: u64,
        threads: usize,
        params_of: impl Fn(u32) -> VideoParams + Sync,
    ) -> Self {
        Self::generate_titles(n, seed, None, threads, params_of)
    }

    /// Generate `n` titles plus one search version per title at the given
    /// speed-up (≥ 2). Search version of title `i` is title `n + i`,
    /// with duration (and size) scaled by `1/speedup`.
    pub fn generate_with_search_versions(
        n: usize,
        params: VideoParams,
        seed: u64,
        speedup: u32,
    ) -> Self {
        Self::generate_each_with_search_versions(n, seed, speedup, 1, |_| params)
    }

    /// [`Library::generate_with_search_versions`] with per-title
    /// parameters, on up to `threads` threads: title `i` uses
    /// `params_of(i)`, and its search version inherits those parameters
    /// with duration scaled by `1/speedup`.
    pub fn generate_each_with_search_versions(
        n: usize,
        seed: u64,
        speedup: u32,
        threads: usize,
        params_of: impl Fn(u32) -> VideoParams + Sync,
    ) -> Self {
        Self::generate_titles(n, seed, Some(speedup), threads, params_of)
    }

    /// The one per-title path behind every constructor.
    ///
    /// Each title is a pure function of `(seed, id, params)` and lands in
    /// its id's slot, so the library is byte-identical at any thread
    /// count; `threads == 1` generates on the caller's thread in id order.
    fn generate_titles(
        n: usize,
        seed: u64,
        search_speedup: Option<u32>,
        threads: usize,
        params_of: impl Fn(u32) -> VideoParams + Sync,
    ) -> Self {
        assert!(n > 0, "library must contain at least one title");
        if let Some(speedup) = search_speedup {
            assert!(speedup >= 2, "a search version must be faster than 1x");
        }
        let titles = if search_speedup.is_some() { 2 * n } else { n };
        let videos = fan_out(titles, threads, |i| {
            let params = params_of((i % n) as u32);
            let params = match search_speedup {
                Some(speedup) if i >= n => VideoParams {
                    duration: params.duration / speedup as u64,
                    ..params
                },
                _ => params,
            };
            Video::generate(VideoId(i as u32), params, seed)
        });
        Library {
            videos,
            normal_titles: n,
            search_speedup,
        }
    }

    /// Number of normal titles (excludes search versions).
    pub fn normal_titles(&self) -> usize {
        self.normal_titles
    }

    /// Speed-up of the search versions, if the library has them.
    pub fn search_speedup(&self) -> Option<u32> {
        self.search_speedup
    }

    /// The search version of a normal title, if the library has one.
    pub fn search_version_of(&self, id: VideoId) -> Option<VideoId> {
        self.search_speedup?;
        if (id.0 as usize) < self.normal_titles {
            Some(VideoId(id.0 + self.normal_titles as u32))
        } else {
            None
        }
    }

    /// The normal title a search version belongs to, if `id` is one.
    pub fn normal_version_of(&self, id: VideoId) -> Option<VideoId> {
        self.search_speedup?;
        if (id.0 as usize) >= self.normal_titles {
            Some(VideoId(id.0 - self.normal_titles as u32))
        } else {
            None
        }
    }

    /// Number of titles.
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// True if the library is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// Look up a title.
    pub fn get(&self, id: VideoId) -> &Video {
        &self.videos[id.0 as usize]
    }

    /// Iterate over all titles.
    pub fn iter(&self) -> impl Iterator<Item = &Video> {
        self.videos.iter()
    }

    /// The largest title size, in bytes (used to size disk fragments).
    pub fn max_video_bytes(&self) -> u64 {
        self.videos
            .iter()
            .map(Video::total_bytes)
            .max()
            .expect("non-empty library")
    }

    /// Total bytes across all titles.
    pub fn total_bytes(&self) -> u64 {
        self.videos.iter().map(Video::total_bytes).sum()
    }
}

/// Draws titles from a [`Library`] according to an [`AccessPattern`].
#[derive(Clone, Debug)]
pub struct TitleSelector {
    dist: Zipf,
}

impl TitleSelector {
    /// A selector over `n_titles` titles.
    pub fn new(pattern: AccessPattern, n_titles: usize) -> Self {
        TitleSelector {
            dist: Zipf::new(n_titles, pattern.skew()),
        }
    }

    /// Draw a title. Title ids coincide with popularity ranks.
    pub fn select(&self, rng: &mut SimRng) -> VideoId {
        VideoId(self.dist.sample(rng) as u32)
    }

    /// Probability of drawing a given title.
    pub fn probability(&self, id: VideoId) -> f64 {
        self.dist.probability(id.0 as usize)
    }

    /// Number of titles.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// True if there are no titles (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiffi_simcore::SimDuration;

    fn small_params() -> VideoParams {
        VideoParams {
            duration: SimDuration::from_secs(30),
            ..VideoParams::default()
        }
    }

    #[test]
    fn library_generation() {
        let lib = Library::generate(8, small_params(), 1);
        assert_eq!(lib.len(), 8);
        assert_eq!(lib.get(VideoId(5)).id(), VideoId(5));
        assert_eq!(lib.iter().count(), 8);
        assert!(lib.max_video_bytes() > 0);
        assert_eq!(
            lib.total_bytes(),
            lib.iter().map(|v| v.total_bytes()).sum::<u64>()
        );
    }

    #[test]
    fn library_titles_are_distinct_but_reproducible() {
        let a = Library::generate(4, small_params(), 42);
        let b = Library::generate(4, small_params(), 42);
        for i in 0..4 {
            assert_eq!(
                a.get(VideoId(i)).total_bytes(),
                b.get(VideoId(i)).total_bytes()
            );
        }
        let sizes: Vec<u64> = a.iter().map(|v| v.total_bytes()).collect();
        let mut dedup = sizes.clone();
        dedup.dedup();
        assert_eq!(sizes, dedup, "adjacent titles should differ in size");
    }

    #[test]
    fn per_title_params_produce_a_heterogeneous_library() {
        let base = small_params();
        let fat = VideoParams {
            bit_rate_bps: base.bit_rate_bps * 3,
            ..base
        };
        let lib = Library::generate_each(8, 1, 1, |i| if i % 4 == 0 { fat } else { base });
        assert_eq!(lib.get(VideoId(0)).params().bit_rate_bps, fat.bit_rate_bps);
        assert_eq!(lib.get(VideoId(1)).params().bit_rate_bps, base.bit_rate_bps);
        assert_eq!(lib.get(VideoId(4)).params().bit_rate_bps, fat.bit_rate_bps);
        // A 3x-bitrate title of equal duration carries roughly 3x the bytes.
        let ratio =
            lib.get(VideoId(0)).total_bytes() as f64 / lib.get(VideoId(1)).total_bytes() as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
        // The uniform constructor stays bit-identical to generate_each.
        let uniform = Library::generate(8, base, 1);
        let each = Library::generate_each(8, 1, 1, |_| base);
        for i in 0..8u32 {
            assert_eq!(
                uniform.get(VideoId(i)).total_bytes(),
                each.get(VideoId(i)).total_bytes()
            );
        }
    }

    #[test]
    fn zipf_selector_prefers_low_ranks() {
        let sel = TitleSelector::new(AccessPattern::Zipf(1.0), 64);
        let mut rng = SimRng::new(3);
        let mut counts = vec![0u32; 64];
        for _ in 0..100_000 {
            counts[sel.select(&mut rng).0 as usize] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[60]);
        // Top title draws about 21% of requests at z = 1 over 64 titles.
        let share = counts[0] as f64 / 100_000.0;
        assert!((share - 0.21).abs() < 0.01, "top-title share {share}");
    }

    #[test]
    fn uniform_selector_is_flat() {
        let sel = TitleSelector::new(AccessPattern::Uniform, 16);
        let mut rng = SimRng::new(4);
        let mut counts = vec![0u32; 16];
        for _ in 0..160_000 {
            counts[sel.select(&mut rng).0 as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "counts {counts:?}");
        }
    }

    #[test]
    fn skew_accessor() {
        assert_eq!(AccessPattern::Uniform.skew(), 0.0);
        assert_eq!(AccessPattern::Zipf(1.5).skew(), 1.5);
    }

    #[test]
    fn probability_matches_pattern() {
        let sel = TitleSelector::new(AccessPattern::Zipf(1.0), 4);
        let h: f64 = (1..=4).map(|i| 1.0 / i as f64).sum();
        assert!((sel.probability(VideoId(0)) - 1.0 / h).abs() < 1e-12);
        assert_eq!(sel.len(), 4);
    }
}

#[cfg(test)]
mod search_version_tests {
    use super::*;
    use spiffi_simcore::SimDuration;

    fn params() -> VideoParams {
        VideoParams {
            duration: SimDuration::from_secs(60),
            ..VideoParams::default()
        }
    }

    #[test]
    fn search_versions_double_the_library() {
        let lib = Library::generate_with_search_versions(4, params(), 7, 8);
        assert_eq!(lib.len(), 8);
        assert_eq!(lib.normal_titles(), 4);
        assert_eq!(lib.search_speedup(), Some(8));
    }

    #[test]
    fn search_versions_are_one_over_speedup_sized() {
        let lib = Library::generate_with_search_versions(4, params(), 7, 8);
        for i in 0..4u32 {
            let normal = lib.get(VideoId(i));
            let search = lib.get(lib.search_version_of(VideoId(i)).unwrap());
            // Duration exactly 1/8; bytes approximately (stochastic sizes).
            assert_eq!(search.params().duration, normal.params().duration / 8);
            let ratio = search.total_bytes() as f64 / normal.total_bytes() as f64;
            assert!((0.10..0.16).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn version_mapping_round_trips() {
        let lib = Library::generate_with_search_versions(4, params(), 7, 4);
        for i in 0..4u32 {
            let s = lib.search_version_of(VideoId(i)).unwrap();
            assert_eq!(lib.normal_version_of(s), Some(VideoId(i)));
            // Search versions have no search versions of their own.
            assert_eq!(lib.search_version_of(s), None);
            assert_eq!(lib.normal_version_of(VideoId(i)), None);
        }
    }

    #[test]
    fn plain_library_has_no_search_versions() {
        let lib = Library::generate(4, params(), 7);
        assert_eq!(lib.search_speedup(), None);
        assert_eq!(lib.search_version_of(VideoId(0)), None);
        assert_eq!(lib.normal_titles(), 4);
    }

    #[test]
    #[should_panic(expected = "faster than 1x")]
    fn speedup_must_exceed_one() {
        let _ = Library::generate_with_search_versions(4, params(), 7, 1);
    }
}
