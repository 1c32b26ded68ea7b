//! Render recorded events and samples as JSONL or Chrome/Perfetto JSON.
//!
//! Both renderers are deterministic: output depends only on the recorded
//! data, all numbers are formatted from integers (timestamps keep full
//! nanosecond precision), and iteration orders are fixed. The serialized
//! trace of a replication is therefore byte-identical regardless of how
//! many engine threads ran around it.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use spiffi_simcore::SimTime;

use crate::json;
use crate::probe::{FaultEvent, PoolEvent, TerminalEvent};
use crate::record::TraceEvent;
use crate::sample::SampleRow;

/// Render events and sample rows as JSON Lines, merged in timestamp
/// order. Every line is a flat object carrying at least `"type"` and
/// `"t_ns"`; span lines add `"dur_ns"`.
pub fn jsonl(events: &[TraceEvent], rows: &[SampleRow]) -> String {
    let mut out = String::new();
    let mut ei = 0;
    let mut ri = 0;
    // Both inputs are time-sorted; merge with events first on ties so a
    // sample row summarizes everything up to its interval end.
    while ei < events.len() || ri < rows.len() {
        let take_event = match (events.get(ei), rows.get(ri)) {
            (Some(e), Some(r)) => e.t() <= r.t,
            (Some(_), None) => true,
            _ => false,
        };
        if take_event {
            jsonl_event(&mut out, &events[ei]);
            ei += 1;
        } else {
            jsonl_row(&mut out, &rows[ri]);
            ri += 1;
        }
    }
    out
}

pub(crate) fn jsonl_event(out: &mut String, ev: &TraceEvent) {
    match *ev {
        TraceEvent::DiskIoStart { now, ev } => {
            let s = ev.service;
            let _ = writeln!(
                out,
                "{{\"type\":\"disk_io_start\",\"t_ns\":{},\"node\":{},\"disk\":{},\
                 \"queue_depth\":{},\"prefetch\":{},\"dur_ns\":{},\"seek_ns\":{},\
                 \"settle_ns\":{},\"rotation_ns\":{},\"transfer_ns\":{},\"sequential\":{}}}",
                now.0,
                ev.node,
                ev.disk,
                ev.queue_depth,
                ev.is_prefetch,
                s.total().0,
                s.seek.0,
                s.settle.0,
                s.rotation.0,
                s.transfer.0,
                s.sequential,
            );
        }
        TraceEvent::DiskIoDone { now, ev } => {
            let _ = write!(
                out,
                "{{\"type\":\"disk_io_done\",\"t_ns\":{},\"node\":{},\"disk\":{},\
                 \"prefetch\":{},\"latency_ns\":{},\"deadline_slack_ns\":",
                now.0, ev.node, ev.disk, ev.is_prefetch, ev.latency.0,
            );
            match ev.deadline_slack_ns {
                Some(ns) => {
                    let _ = write!(out, "{ns}");
                }
                None => out.push_str("null"),
            }
            out.push_str("}\n");
        }
        TraceEvent::CpuSpan {
            node,
            start,
            end,
            job,
        } => {
            let _ = writeln!(
                out,
                "{{\"type\":\"cpu_span\",\"t_ns\":{},\"node\":{},\"dur_ns\":{},\"job\":\"{}\"}}",
                start.0,
                node,
                (end - start).0,
                job.label(),
            );
        }
        TraceEvent::NetSend { now, ev } => {
            let _ = writeln!(
                out,
                "{{\"type\":\"net_send\",\"t_ns\":{},\"kind\":\"{}\",\"bytes\":{},\"delay_ns\":{}}}",
                now.0,
                ev.kind.label(),
                ev.bytes,
                ev.delay.0,
            );
        }
        TraceEvent::Pool { now, node, ev } => {
            let _ = write!(
                out,
                "{{\"type\":\"pool\",\"t_ns\":{},\"node\":{},\"event\":\"{}\"",
                now.0,
                node,
                pool_label(ev),
            );
            match ev {
                PoolEvent::Hit { shared } | PoolEvent::InFlightHit { shared } => {
                    let _ = write!(out, ",\"shared\":{shared}");
                }
                PoolEvent::Miss { evicted } | PoolEvent::PrefetchAlloc { evicted } => {
                    let _ = write!(out, ",\"evicted\":{evicted}");
                }
                PoolEvent::AllocFailure => {}
            }
            out.push_str("}\n");
        }
        TraceEvent::Terminal { now, term, ev } => {
            let _ = write!(
                out,
                "{{\"type\":\"terminal\",\"t_ns\":{},\"term\":{},\"event\":\"{}\"",
                now.0,
                term,
                terminal_label(ev),
            );
            if let TerminalEvent::PiggybackJoined { video }
            | TerminalEvent::PiggybackOpened { video } = ev
            {
                let _ = write!(out, ",\"video\":{video}");
            }
            out.push_str("}\n");
        }
        TraceEvent::Fault { now, ev } => {
            let _ = write!(
                out,
                "{{\"type\":\"fault\",\"t_ns\":{},\"fault\":\"{}\"",
                now.0,
                ev.label(),
            );
            match ev {
                FaultEvent::DiskDeath {
                    node,
                    disk,
                    failover,
                } => {
                    let _ = write!(
                        out,
                        ",\"node\":{node},\"disk\":{disk},\"failover\":{failover}"
                    );
                }
                FaultEvent::DiskDegraded {
                    node,
                    disk,
                    latency_scale_pct,
                } => {
                    let _ = write!(
                        out,
                        ",\"node\":{node},\"disk\":{disk},\"latency_scale_pct\":{latency_scale_pct}"
                    );
                }
                FaultEvent::AbandonBurst { abandoned } => {
                    let _ = write!(out, ",\"abandoned\":{abandoned}");
                }
            }
            out.push_str("}\n");
        }
    }
}

fn jsonl_row(out: &mut String, row: &SampleRow) {
    let _ = write!(
        out,
        "{{\"type\":\"sample\",\"t_ns\":{},\"disk_util\":[",
        row.t.0
    );
    for (i, u) in row.disk_util.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_f64(out, *u, 6);
    }
    let _ = writeln!(
        out,
        "],\"net_bytes\":{},\"pool_in_use\":{},\"outstanding_deadlines\":{}}}",
        row.net_bytes, row.pool_in_use, row.outstanding_deadlines,
    );
}

pub(crate) fn pool_label(ev: PoolEvent) -> &'static str {
    match ev {
        PoolEvent::Hit { .. } => "hit",
        PoolEvent::InFlightHit { .. } => "inflight_hit",
        PoolEvent::Miss { .. } => "miss",
        PoolEvent::PrefetchAlloc { .. } => "prefetch_alloc",
        PoolEvent::AllocFailure => "alloc_failure",
    }
}

pub(crate) fn terminal_label(ev: TerminalEvent) -> &'static str {
    match ev {
        TerminalEvent::StartedPlaying => "started_playing",
        TerminalEvent::Glitched => "glitched",
        TerminalEvent::Paused => "paused",
        TerminalEvent::FinishedTitle => "finished_title",
        TerminalEvent::PiggybackJoined { .. } => "piggyback_joined",
        TerminalEvent::PiggybackOpened { .. } => "piggyback_opened",
    }
}

/// Microseconds with nanosecond precision, as Chrome's `ts`/`dur` fields
/// expect. Formatted from the integer nanosecond count so the rendering
/// is exact and deterministic.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Comma separation state for a `traceEvents` array under construction.
struct Emitter {
    first: bool,
}

impl Emitter {
    fn new() -> Self {
        Emitter { first: true }
    }

    fn line(&mut self, out: &mut String, line: &str) {
        if !self.first {
            out.push_str(",\n");
        }
        self.first = false;
        out.push_str(line);
    }
}

/// Render events and sample rows in Chrome `trace_event` JSON (the
/// `{"traceEvents":[...]}` container), loadable in Perfetto or
/// `chrome://tracing`.
///
/// Layout: each node is a process (`pid = 1 + node`) whose thread 0 is
/// the CPU and thread `1 + d` is disk `d` — disk services and CPU jobs
/// render as complete (`"X"`) slices. Process 0 holds system-wide
/// tracks: network sends and terminal transitions as instant events, and
/// the sampler series as counter (`"C"`) tracks.
pub fn chrome_trace(events: &[TraceEvent], rows: &[SampleRow]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut em = Emitter::new();
    emit_dispatcher(&mut out, &mut em, events, rows);
    out.push_str("\n]}\n");
    out
}

/// The body of [`chrome_trace`]: process/thread metadata, event
/// slices/instants, and the sampler counter tracks, written into an open
/// `traceEvents` array.
fn emit_dispatcher(out: &mut String, em: &mut Emitter, events: &[TraceEvent], rows: &[SampleRow]) {
    let mut emit = |line: String, out: &mut String| {
        em.line(out, &line);
    };

    // Name the processes/threads that actually appear.
    let mut node_tids: BTreeSet<(u32, u32)> = BTreeSet::new();
    for ev in events {
        match *ev {
            TraceEvent::DiskIoStart { ev, .. } => {
                node_tids.insert((ev.node, 1 + ev.disk));
            }
            TraceEvent::CpuSpan { node, .. } => {
                node_tids.insert((node, 0));
            }
            _ => {}
        }
    }
    emit(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"system\"}}"
            .to_string(),
        out,
    );
    for &(node, tid) in &node_tids {
        if tid == 0 {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"node {}\"}}}}",
                    1 + node,
                    node,
                ),
                out,
            );
            emit(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"cpu\"}}}}",
                    1 + node,
                ),
                out,
            );
        } else {
            emit(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"disk {}\"}}}}",
                    1 + node,
                    tid,
                    tid - 1,
                ),
                out,
            );
        }
    }

    for ev in events {
        match *ev {
            TraceEvent::DiskIoStart { now, ev } => {
                let s = ev.service;
                emit(
                    format!(
                        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"disk\",\"pid\":{},\"tid\":{},\
                         \"ts\":{},\"dur\":{},\"args\":{{\"queue_depth\":{},\"seek_ns\":{},\
                         \"settle_ns\":{},\"rotation_ns\":{},\"transfer_ns\":{},\"sequential\":{}}}}}",
                        if ev.is_prefetch { "prefetch" } else { "read" },
                        1 + ev.node,
                        1 + ev.disk,
                        micros(now.0),
                        micros(s.total().0),
                        ev.queue_depth,
                        s.seek.0,
                        s.settle.0,
                        s.rotation.0,
                        s.transfer.0,
                        s.sequential,
                    ),
                    out,
                );
            }
            TraceEvent::DiskIoDone { .. } => {
                // The start event already carries the service slice; the
                // completion adds nothing visual.
            }
            TraceEvent::CpuSpan {
                node,
                start,
                end,
                job,
            } => {
                emit(
                    format!(
                        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"cpu\",\"pid\":{},\"tid\":0,\
                         \"ts\":{},\"dur\":{}}}",
                        job.label(),
                        1 + node,
                        micros(start.0),
                        micros((end - start).0),
                    ),
                    out,
                );
            }
            TraceEvent::NetSend { now, ev } => {
                emit(
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"net {}\",\"cat\":\"net\",\"pid\":0,\
                         \"tid\":0,\"ts\":{},\"args\":{{\"bytes\":{},\"delay_ns\":{}}}}}",
                        ev.kind.label(),
                        micros(now.0),
                        ev.bytes,
                        ev.delay.0,
                    ),
                    out,
                );
            }
            TraceEvent::Pool { now, node, ev } => {
                emit(
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"pool {}\",\"cat\":\"pool\",\
                         \"pid\":{},\"tid\":0,\"ts\":{}}}",
                        pool_label(ev),
                        1 + node,
                        micros(now.0),
                    ),
                    out,
                );
            }
            TraceEvent::Terminal { now, term, ev } => {
                emit(
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"term {} {}\",\"cat\":\"terminal\",\
                         \"pid\":0,\"tid\":1,\"ts\":{}}}",
                        term,
                        terminal_label(ev),
                        micros(now.0),
                    ),
                    out,
                );
            }
            TraceEvent::Fault { now, ev } => {
                let args = match ev {
                    FaultEvent::DiskDeath {
                        node,
                        disk,
                        failover,
                    } => format!("{{\"node\":{node},\"disk\":{disk},\"failover\":{failover}}}"),
                    FaultEvent::DiskDegraded {
                        node,
                        disk,
                        latency_scale_pct,
                    } => format!(
                        "{{\"node\":{node},\"disk\":{disk},\"latency_scale_pct\":{latency_scale_pct}}}"
                    ),
                    FaultEvent::AbandonBurst { abandoned } => {
                        format!("{{\"abandoned\":{abandoned}}}")
                    }
                };
                emit(
                    format!(
                        "{{\"ph\":\"i\",\"s\":\"g\",\"name\":\"fault {}\",\"cat\":\"fault\",\
                         \"pid\":0,\"tid\":0,\"ts\":{},\"args\":{args}}}",
                        ev.label(),
                        micros(now.0),
                    ),
                    out,
                );
            }
        }
    }

    emit_counter_rows(out, em, rows);
}

/// The four sampler counter tracks (`disk_util`, `net_bytes`,
/// `pool_in_use`, `outstanding_deadlines`) under the system process.
fn emit_counter_rows(out: &mut String, em: &mut Emitter, rows: &[SampleRow]) {
    let pid = 0;
    for row in rows {
        let ts = micros(row.t.0);
        let mut util = String::new();
        for (i, u) in row.disk_util.iter().enumerate() {
            if i > 0 {
                util.push(',');
            }
            let _ = write!(util, "\"d{i}\":");
            json::push_f64(&mut util, *u, 6);
        }
        em.line(
            out,
            &format!(
                "{{\"ph\":\"C\",\"name\":\"disk_util\",\"pid\":{pid},\"ts\":{ts},\"args\":{{{util}}}}}"
            ),
        );
        em.line(
            out,
            &format!(
                "{{\"ph\":\"C\",\"name\":\"net_bytes\",\"pid\":{pid},\"ts\":{ts},\
                 \"args\":{{\"bytes\":{}}}}}",
                row.net_bytes,
            ),
        );
        em.line(
            out,
            &format!(
                "{{\"ph\":\"C\",\"name\":\"pool_in_use\",\"pid\":{pid},\"ts\":{ts},\
                 \"args\":{{\"frames\":{}}}}}",
                row.pool_in_use,
            ),
        );
        em.line(
            out,
            &format!(
                "{{\"ph\":\"C\",\"name\":\"outstanding_deadlines\",\"pid\":{pid},\"ts\":{ts},\
                 \"args\":{{\"ios\":{}}}}}",
                row.outstanding_deadlines,
            ),
        );
    }
}

/// The run's end time as recorded in the event stream — the maximum
/// timestamp across events and rows. Handy for labelling exports.
pub fn stream_end(events: &[TraceEvent], rows: &[SampleRow]) -> SimTime {
    let e = events.last().map(|e| e.t()).unwrap_or(SimTime::ZERO);
    let r = rows.last().map(|r| r.t).unwrap_or(SimTime::ZERO);
    e.max(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{CpuJobKind, DiskIoStart, NetMsgKind, NetSend};
    use spiffi_disk::ServiceBreakdown;
    use spiffi_simcore::SimDuration;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::CpuSpan {
                node: 0,
                start: SimTime(1_000),
                end: SimTime(3_500),
                job: CpuJobKind::RecvRequest,
            },
            TraceEvent::DiskIoStart {
                now: SimTime(5_000),
                ev: DiskIoStart {
                    node: 0,
                    disk: 1,
                    queue_depth: 2,
                    is_prefetch: false,
                    service: ServiceBreakdown {
                        seek: SimDuration(10),
                        settle: SimDuration(20),
                        rotation: SimDuration(30),
                        transfer: SimDuration(40),
                        sequential: false,
                    },
                },
            },
            TraceEvent::NetSend {
                now: SimTime(9_000),
                ev: NetSend {
                    kind: NetMsgKind::Reply,
                    bytes: 512,
                    delay: SimDuration(5_000),
                },
            },
        ]
    }

    fn sample_rows() -> Vec<SampleRow> {
        vec![SampleRow {
            t: SimTime(8_000),
            disk_util: vec![0.25, 0.5],
            net_bytes: 640,
            pool_in_use: 3,
            outstanding_deadlines: 1,
        }]
    }

    #[test]
    fn jsonl_lines_carry_type_and_timestamp_in_merge_order() {
        let text = jsonl(&sample_events(), &sample_rows());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"type\":\""));
            assert!(line.contains("\"t_ns\":"));
        }
        // The sample at 8 µs lands between the disk start (5 µs) and the
        // net send (9 µs).
        assert!(lines[2].contains("\"type\":\"sample\""));
        assert!(lines[3].contains("\"type\":\"net_send\""));
        assert!(lines[0].contains("\"dur_ns\":2500"));
        assert!(lines[1].contains("\"dur_ns\":100"));
    }

    #[test]
    fn chrome_trace_is_wellformed_and_uses_micros() {
        let text = chrome_trace(&sample_events(), &sample_rows());
        assert!(text.starts_with("{\"traceEvents\":[\n"));
        assert!(text.ends_with("\n]}\n"));
        // 5000 ns = 5.000 µs.
        assert!(text.contains("\"ts\":5.000"));
        // 2500 ns CPU span = 2.500 µs duration.
        assert!(text.contains("\"dur\":2.500"));
        // Counters from the sample row.
        assert!(text.contains("\"name\":\"disk_util\""));
        assert!(text.contains("\"d1\":0.500000"));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the dependency set).
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = text.matches(open).count();
            let closes = text.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn stream_end_is_max_timestamp() {
        assert_eq!(stream_end(&sample_events(), &sample_rows()), SimTime(9_000));
    }
}
