//! Deterministic fault-injection scenario engine: parsed fault plans and
//! their acceptance thresholds.
//!
//! A *scenario* is a small set of perturbations scheduled at exact
//! simulation times — a disk dies, a disk serves reads at 2× latency for
//! a window, a burst of terminals abandons mid-title, the library mixes
//! 4 Mbit/s titles with 15 Mbit/s ones. Scenarios ride inside
//! [`SystemConfig`](crate::SystemConfig) and fire as ordinary calendar
//! events inside the system, so a faulted run is exactly as deterministic
//! as a clean one: byte-identical reports at any `SPIFFI_THREADS`
//! setting.
//!
//! A [`FaultPlan`] is a scenario plus per-scenario acceptance thresholds,
//! parsed from a line-oriented `key=value` file. `trace_run --scenario <file>` evaluates the
//! thresholds and writes a machine-readable verdict for CI.
//!
//! # Plan grammar
//!
//! Lines are records; `#` starts a comment; blank lines are skipped. The
//! first token names the record kind, the rest are `key=value` pairs
//! (integers only — times in milliseconds, rates in parts-per-million):
//!
//! ```text
//! scenario name=disk_death
//! fault kind=death   node=0 disk=1 at_ms=20000
//! fault kind=degrade node=0 disk=2 at_ms=5000 dur_ms=10000 factor_pct=200
//! fault kind=abandon at_ms=25000 every=3
//! mix every=4 bps=15000000
//! expect max_glitch_ppm=5000 max_stall_ms=2000 min_capacity=24
//! ```
//!
//! Every malformed input is a typed [`PlanError`] — the parser never
//! panics.

use std::fmt;

use spiffi_simcore::SimDuration;

use crate::config::RunTiming;
use crate::metrics::RunReport;

/// One scheduled perturbation. Times are offsets from simulation start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// The disk stops servicing I/O at `at`; its queued and in-flight
    /// reads re-dispatch to the next surviving disk on the node.
    DiskDeath {
        /// Owning node.
        node: u32,
        /// Node-local disk index.
        disk: u32,
        /// When the disk dies.
        at: SimDuration,
    },
    /// The disk serves every read at `factor_pct`/100 × nominal latency
    /// over `[at, at + dur)`.
    DiskDegrade {
        /// Owning node.
        node: u32,
        /// Node-local disk index.
        disk: u32,
        /// Window start.
        at: SimDuration,
        /// Window length (must be positive).
        dur: SimDuration,
        /// Service-time multiplier in percent (200 = 2× latency).
        factor_pct: u32,
    },
    /// At `at`, every `every`-th terminal that is playing or paused
    /// abandons its title and immediately starts another.
    AbandonBurst {
        /// When the burst fires.
        at: SimDuration,
        /// Stride: terminal `t` abandons when `t % every == 0`.
        every: u32,
    },
}

impl FaultSpec {
    /// The perturbation's scheduled time (window start for degradations).
    pub fn at(&self) -> SimDuration {
        match *self {
            FaultSpec::DiskDeath { at, .. }
            | FaultSpec::DiskDegrade { at, .. }
            | FaultSpec::AbandonBurst { at, .. } => at,
        }
    }
}

/// A bitrate-heterogeneous library: every `every`-th title (indices
/// `0, every, 2·every, …`) streams at `bit_rate_bps` instead of the
/// configured base rate, modelling a library that mixes standard titles
/// with high-bitrate ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitrateMix {
    /// Title stride (1 = every title uses the alternate rate).
    pub every: u32,
    /// The alternate bit rate, bits per second.
    pub bit_rate_bps: u64,
}

impl BitrateMix {
    /// Whether title `video` streams at the alternate rate.
    pub fn applies_to(&self, video: u32) -> bool {
        video.is_multiple_of(self.every)
    }
}

/// The simulation-affecting part of a plan: what happens, and when.
/// Lives inside [`SystemConfig`](crate::SystemConfig), so it participates
/// in config fingerprints and snapshot compatibility automatically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Scenario {
    /// Scheduled perturbations, in file order.
    pub faults: Vec<FaultSpec>,
    /// Optional bitrate-heterogeneous library.
    pub mix: Option<BitrateMix>,
}

/// Per-scenario acceptance thresholds (the `expect` record). All
/// optional; an absent threshold is not checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Thresholds {
    /// Max glitches per million delivered blocks over the measurement
    /// window (which spans the fault and the rebuild).
    pub max_glitch_ppm: Option<u64>,
    /// Max observed I/O completion latency in milliseconds — bounds the
    /// failover stall a re-dispatched read may suffer.
    pub max_stall_ms: Option<u64>,
    /// Floor on the capacity (glitch-free terminals) the faulted system
    /// must still sustain.
    pub min_capacity: Option<u32>,
}

/// One evaluated threshold: what was checked, the limit, what the run
/// actually did, and whether it passed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Threshold name (stable, used as the JSON key).
    pub check: &'static str,
    /// The configured limit.
    pub limit: u64,
    /// The measured value.
    pub actual: u64,
    /// Whether the measurement satisfied the limit.
    pub pass: bool,
}

impl Thresholds {
    /// Evaluate every configured threshold against a run's report and
    /// (for the capacity floor) a measured capacity. Returns one
    /// [`Verdict`] per configured threshold, in declaration order.
    pub fn evaluate(&self, report: &RunReport, capacity: Option<u32>) -> Vec<Verdict> {
        let mut out = Vec::new();
        if let Some(limit) = self.max_glitch_ppm {
            let actual = report.glitches.saturating_mul(1_000_000) / report.blocks_delivered.max(1);
            out.push(Verdict {
                check: "max_glitch_ppm",
                limit,
                actual,
                pass: actual <= limit,
            });
        }
        if let Some(limit) = self.max_stall_ms {
            let actual = report.io_latency_max_ms.ceil().max(0.0) as u64;
            out.push(Verdict {
                check: "max_stall_ms",
                limit,
                actual,
                pass: actual <= limit,
            });
        }
        if let Some(limit) = self.min_capacity {
            let actual = capacity.unwrap_or(0) as u64;
            out.push(Verdict {
                check: "min_capacity",
                limit: limit as u64,
                actual,
                pass: actual >= limit as u64,
            });
        }
        out
    }
}

/// A parsed scenario file: the scenario, its name, and its acceptance
/// thresholds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scenario name from the `scenario` record.
    pub name: String,
    /// The simulation-affecting perturbations.
    pub scenario: Scenario,
    /// Acceptance thresholds from `expect` records.
    pub thresholds: Thresholds,
}

/// Everything that can be wrong with a plan file. Parsing and validation
/// return these; they never panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A line began with an unrecognized record kind.
    UnknownRecord {
        /// 1-based line number.
        line: usize,
        /// The offending first token.
        kind: String,
    },
    /// A record carried a key it does not accept.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The offending key.
        key: String,
    },
    /// A value failed to parse or was out of range for its key.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value was bad.
        key: &'static str,
        /// The offending value text.
        value: String,
    },
    /// A record was missing a required key.
    MissingKey {
        /// 1-based line number.
        line: usize,
        /// The missing key.
        key: &'static str,
    },
    /// The same key appeared twice in one record (or across `expect`
    /// records).
    DuplicateKey {
        /// 1-based line number.
        line: usize,
        /// The repeated key.
        key: &'static str,
    },
    /// The plan has no `scenario name=…` record.
    MissingName,
    /// Two death faults target the same disk.
    DuplicateFault {
        /// Owning node.
        node: u32,
        /// Node-local disk index.
        disk: u32,
    },
    /// A fault is scheduled at or past the end of the run.
    FaultPastEnd {
        /// The fault's time, milliseconds.
        at_ms: u64,
        /// The run's end, milliseconds.
        end_ms: u64,
    },
    /// A degradation window has zero length.
    EmptyWindow {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownRecord { line, kind } => {
                write!(f, "line {line}: unknown record kind `{kind}`")
            }
            PlanError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key `{key}`")
            }
            PlanError::BadValue { line, key, value } => {
                write!(f, "line {line}: bad value `{value}` for `{key}`")
            }
            PlanError::MissingKey { line, key } => {
                write!(f, "line {line}: missing required key `{key}`")
            }
            PlanError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key `{key}`")
            }
            PlanError::MissingName => write!(f, "plan has no `scenario name=…` record"),
            PlanError::DuplicateFault { node, disk } => {
                write!(f, "two death faults target node {node} disk {disk}")
            }
            PlanError::FaultPastEnd { at_ms, end_ms } => {
                write!(f, "fault at {at_ms} ms is past the run end at {end_ms} ms")
            }
            PlanError::EmptyWindow { line } => {
                write!(f, "line {line}: degradation window has zero length")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// One record's `key=value` pairs, consumed key by key so leftovers can
/// be reported as [`PlanError::UnknownKey`].
struct Record<'a> {
    line: usize,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    fn new(line: usize, tokens: &[&'a str]) -> Result<Self, PlanError> {
        let mut pairs = Vec::with_capacity(tokens.len());
        for tok in tokens {
            let Some((k, v)) = tok.split_once('=') else {
                return Err(PlanError::UnknownKey {
                    line,
                    key: tok.to_string(),
                });
            };
            pairs.push((k, v));
        }
        Ok(Record { line, pairs })
    }

    /// Take `key`'s value, erroring on absence or repetition.
    fn take(&mut self, key: &'static str) -> Result<&'a str, PlanError> {
        match self.take_opt(key)? {
            Some(v) => Ok(v),
            None => Err(PlanError::MissingKey {
                line: self.line,
                key,
            }),
        }
    }

    fn take_opt(&mut self, key: &'static str) -> Result<Option<&'a str>, PlanError> {
        let mut found = None;
        let mut i = 0;
        while i < self.pairs.len() {
            if self.pairs[i].0 == key {
                if found.is_some() {
                    return Err(PlanError::DuplicateKey {
                        line: self.line,
                        key,
                    });
                }
                found = Some(self.pairs.remove(i).1);
            } else {
                i += 1;
            }
        }
        Ok(found)
    }

    fn u64(&mut self, key: &'static str) -> Result<u64, PlanError> {
        let v = self.take(key)?;
        parse_u64(self.line, key, v)
    }

    fn u32(&mut self, key: &'static str) -> Result<u32, PlanError> {
        let v = self.take(key)?;
        v.parse::<u32>().map_err(|_| PlanError::BadValue {
            line: self.line,
            key,
            value: v.to_string(),
        })
    }

    /// Error on any key the record did not consume.
    fn finish(self) -> Result<(), PlanError> {
        match self.pairs.first() {
            Some((k, _)) => Err(PlanError::UnknownKey {
                line: self.line,
                key: k.to_string(),
            }),
            None => Ok(()),
        }
    }
}

fn parse_u64(line: usize, key: &'static str, v: &str) -> Result<u64, PlanError> {
    v.parse::<u64>().map_err(|_| PlanError::BadValue {
        line,
        key,
        value: v.to_string(),
    })
}

impl FaultPlan {
    /// Parse a plan file. Structural problems local to the file —
    /// unknown records or keys, bad values, zero-length windows, two
    /// deaths on one disk — are caught here; checks that need the run
    /// schedule live in [`Scenario::validate_against`].
    pub fn parse(text: &str) -> Result<FaultPlan, PlanError> {
        let mut name: Option<String> = None;
        let mut scenario = Scenario::default();
        let mut thresholds = Thresholds::default();

        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let body = raw.split('#').next().unwrap_or("");
            let tokens: Vec<&str> = body.split_whitespace().collect();
            let Some((&kind, rest)) = tokens.split_first() else {
                continue;
            };
            let mut rec = Record::new(line, rest)?;
            match kind {
                "scenario" => {
                    let v = rec.take("name")?;
                    if name.is_some() {
                        return Err(PlanError::DuplicateKey { line, key: "name" });
                    }
                    if v.is_empty() || !v.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                        return Err(PlanError::BadValue {
                            line,
                            key: "name",
                            value: v.to_string(),
                        });
                    }
                    name = Some(v.to_string());
                }
                "fault" => {
                    let spec = parse_fault(&mut rec)?;
                    if let FaultSpec::DiskDeath { node, disk, .. } = spec {
                        let dup = scenario.faults.iter().any(|f| {
                            matches!(f, FaultSpec::DiskDeath { node: n, disk: d, .. }
                                if *n == node && *d == disk)
                        });
                        if dup {
                            return Err(PlanError::DuplicateFault { node, disk });
                        }
                    }
                    scenario.faults.push(spec);
                }
                "mix" => {
                    if scenario.mix.is_some() {
                        return Err(PlanError::DuplicateKey { line, key: "every" });
                    }
                    let every = rec.u32("every")?;
                    if every == 0 {
                        return Err(PlanError::BadValue {
                            line,
                            key: "every",
                            value: "0".to_string(),
                        });
                    }
                    let bps = rec.u64("bps")?;
                    if bps == 0 {
                        return Err(PlanError::BadValue {
                            line,
                            key: "bps",
                            value: "0".to_string(),
                        });
                    }
                    scenario.mix = Some(BitrateMix {
                        every,
                        bit_rate_bps: bps,
                    });
                }
                "expect" => {
                    for (key, slot) in [
                        ("max_glitch_ppm", &mut thresholds.max_glitch_ppm),
                        ("max_stall_ms", &mut thresholds.max_stall_ms),
                    ] {
                        if let Some(v) = rec.take_opt(key)? {
                            if slot.is_some() {
                                return Err(PlanError::DuplicateKey { line, key });
                            }
                            *slot = Some(parse_u64(line, key, v)?);
                        }
                    }
                    if let Some(v) = rec.take_opt("min_capacity")? {
                        if thresholds.min_capacity.is_some() {
                            return Err(PlanError::DuplicateKey {
                                line,
                                key: "min_capacity",
                            });
                        }
                        let n = v.parse::<u32>().map_err(|_| PlanError::BadValue {
                            line,
                            key: "min_capacity",
                            value: v.to_string(),
                        })?;
                        thresholds.min_capacity = Some(n);
                    }
                }
                other => {
                    return Err(PlanError::UnknownRecord {
                        line,
                        kind: other.to_string(),
                    });
                }
            }
            rec.finish()?;
        }

        let name = name.ok_or(PlanError::MissingName)?;
        Ok(FaultPlan {
            name,
            scenario,
            thresholds,
        })
    }
}

fn parse_fault(rec: &mut Record<'_>) -> Result<FaultSpec, PlanError> {
    let line = rec.line;
    let kind = rec.take("kind")?;
    let at = SimDuration::from_millis(rec.u64("at_ms")?);
    match kind {
        "death" => Ok(FaultSpec::DiskDeath {
            node: rec.u32("node")?,
            disk: rec.u32("disk")?,
            at,
        }),
        "degrade" => {
            let node = rec.u32("node")?;
            let disk = rec.u32("disk")?;
            let dur_ms = rec.u64("dur_ms")?;
            if dur_ms == 0 {
                return Err(PlanError::EmptyWindow { line });
            }
            let factor_pct = rec.u32("factor_pct")?;
            if factor_pct == 0 {
                return Err(PlanError::BadValue {
                    line,
                    key: "factor_pct",
                    value: "0".to_string(),
                });
            }
            Ok(FaultSpec::DiskDegrade {
                node,
                disk,
                at,
                dur: SimDuration::from_millis(dur_ms),
                factor_pct,
            })
        }
        "abandon" => {
            let every = rec.u32("every")?;
            if every == 0 {
                return Err(PlanError::BadValue {
                    line,
                    key: "every",
                    value: "0".to_string(),
                });
            }
            Ok(FaultSpec::AbandonBurst { at, every })
        }
        other => Err(PlanError::BadValue {
            line,
            key: "kind",
            value: other.to_string(),
        }),
    }
}

impl Scenario {
    /// Check the scenario against a run schedule: every fault (and every
    /// degradation window's *start*) must fall strictly before the run
    /// end, or it would never fire.
    pub fn validate_against(&self, timing: &RunTiming) -> Result<(), PlanError> {
        let end = timing.total();
        for fault in &self.faults {
            if fault.at() >= end {
                return Err(PlanError::FaultPastEnd {
                    at_ms: fault.at().0 / 1_000_000,
                    end_ms: end.0 / 1_000_000,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "\
# a full plan exercising every record kind
scenario name=kitchen_sink
fault kind=death   node=0 disk=1 at_ms=20000
fault kind=degrade node=0 disk=2 at_ms=5000 dur_ms=10000 factor_pct=200
fault kind=abandon at_ms=25000 every=3   # trailing comment
mix every=4 bps=15000000
expect max_glitch_ppm=5000 max_stall_ms=2000
expect min_capacity=24
";

    #[test]
    fn full_plan_parses() {
        let plan = FaultPlan::parse(FULL).expect("parse");
        assert_eq!(plan.name, "kitchen_sink");
        assert_eq!(plan.scenario.faults.len(), 3);
        assert_eq!(
            plan.scenario.faults[0],
            FaultSpec::DiskDeath {
                node: 0,
                disk: 1,
                at: SimDuration::from_secs(20),
            }
        );
        assert_eq!(
            plan.scenario.mix,
            Some(BitrateMix {
                every: 4,
                bit_rate_bps: 15_000_000,
            })
        );
        assert_eq!(plan.thresholds.max_glitch_ppm, Some(5000));
        assert_eq!(plan.thresholds.max_stall_ms, Some(2000));
        assert_eq!(plan.thresholds.min_capacity, Some(24));
    }

    #[test]
    fn unknown_record_and_key_are_typed_errors() {
        assert_eq!(
            FaultPlan::parse("inject kind=death\n"),
            Err(PlanError::UnknownRecord {
                line: 1,
                kind: "inject".to_string(),
            })
        );
        let text = "scenario name=x\nfault kind=abandon at_ms=1 every=2 wat=3\n";
        assert_eq!(
            FaultPlan::parse(text),
            Err(PlanError::UnknownKey {
                line: 2,
                key: "wat".to_string(),
            })
        );
    }

    #[test]
    fn missing_and_bad_values_are_typed_errors() {
        let text = "scenario name=x\nfault kind=death node=0 disk=1\n";
        assert_eq!(
            FaultPlan::parse(text),
            Err(PlanError::MissingKey {
                line: 2,
                key: "at_ms",
            })
        );
        let text = "scenario name=x\nfault kind=death node=0 disk=one at_ms=5\n";
        assert_eq!(
            FaultPlan::parse(text),
            Err(PlanError::BadValue {
                line: 2,
                key: "disk",
                value: "one".to_string(),
            })
        );
        let text = "scenario name=x\nfault kind=explode at_ms=5\n";
        assert_eq!(
            FaultPlan::parse(text),
            Err(PlanError::BadValue {
                line: 2,
                key: "kind",
                value: "explode".to_string(),
            })
        );
        assert_eq!(
            FaultPlan::parse("fault kind=death node=0 disk=0 at_ms=1\n"),
            { Err(PlanError::MissingName) }
        );
    }

    #[test]
    fn two_deaths_on_one_disk_is_an_error() {
        let text = "scenario name=x\n\
                    fault kind=death node=1 disk=2 at_ms=1000\n\
                    fault kind=death node=1 disk=2 at_ms=2000\n";
        assert_eq!(
            FaultPlan::parse(text),
            Err(PlanError::DuplicateFault { node: 1, disk: 2 })
        );
        // Same disk index on a different node is fine.
        let text = "scenario name=x\n\
                    fault kind=death node=1 disk=2 at_ms=1000\n\
                    fault kind=death node=0 disk=2 at_ms=2000\n";
        assert!(FaultPlan::parse(text).is_ok());
    }

    #[test]
    fn zero_length_degrade_window_is_an_error() {
        let text = "scenario name=x\n\
                    fault kind=degrade node=0 disk=0 at_ms=1000 dur_ms=0 factor_pct=200\n";
        assert_eq!(
            FaultPlan::parse(text),
            Err(PlanError::EmptyWindow { line: 2 })
        );
    }

    #[test]
    fn fault_past_run_end_fails_validation() {
        let timing = RunTiming {
            stagger: SimDuration::from_secs(5),
            warmup: SimDuration::from_secs(10),
            measure: SimDuration::from_secs(30),
        };
        let text = "scenario name=x\nfault kind=death node=0 disk=0 at_ms=40000\n";
        let plan = FaultPlan::parse(text).expect("parse");
        assert_eq!(
            plan.scenario.validate_against(&timing),
            Err(PlanError::FaultPastEnd {
                at_ms: 40_000,
                end_ms: 40_000,
            })
        );
        let text = "scenario name=x\nfault kind=death node=0 disk=0 at_ms=39999\n";
        let plan = FaultPlan::parse(text).expect("parse");
        assert!(plan.scenario.validate_against(&timing).is_ok());
    }

    #[test]
    fn duplicate_keys_are_errors() {
        let text = "scenario name=x\nfault kind=death node=0 node=1 disk=0 at_ms=1\n";
        assert_eq!(
            FaultPlan::parse(text),
            Err(PlanError::DuplicateKey {
                line: 2,
                key: "node",
            })
        );
        let text = "scenario name=x\nexpect max_stall_ms=1\nexpect max_stall_ms=2\n";
        assert_eq!(
            FaultPlan::parse(text),
            Err(PlanError::DuplicateKey {
                line: 3,
                key: "max_stall_ms",
            })
        );
    }

    #[test]
    fn mix_stride_selects_titles() {
        let mix = BitrateMix {
            every: 4,
            bit_rate_bps: 15_000_000,
        };
        let picked: Vec<u32> = (0..10).filter(|&v| mix.applies_to(v)).collect();
        assert_eq!(picked, vec![0, 4, 8]);
    }

    #[test]
    fn thresholds_evaluate_against_a_report() {
        let report = RunReport {
            glitches: 6,
            blocks_delivered: 1_000_000,
            io_latency_max_ms: 123.4,
            ..RunReport::default()
        };
        let t = Thresholds {
            max_glitch_ppm: Some(5),
            max_stall_ms: Some(200),
            min_capacity: Some(24),
        };
        let verdicts = t.evaluate(&report, Some(28));
        assert_eq!(verdicts.len(), 3);
        assert!(!verdicts[0].pass); // 6 ppm > 5 ppm
        assert_eq!(verdicts[0].actual, 6);
        assert!(verdicts[1].pass); // 124 ms <= 200 ms
        assert_eq!(verdicts[1].actual, 124);
        // 28 >= 24
        assert!(verdicts[2].pass);
        // No capacity measured → the floor fails rather than vacuously
        // passing.
        let verdicts = t.evaluate(&report, None);
        assert!(!verdicts[2].pass);
        // Default thresholds check nothing.
        assert!(Thresholds::default().evaluate(&report, None).is_empty());
    }
}
