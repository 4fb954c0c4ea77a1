//! Chrome-trace reader: the parsed-event API of the telemetry layer.
//!
//! [`super::chrome::chrome_trace`] is a write-only export; this module is
//! its inverse, turning a trace document back into the [`Event`] stream it
//! was rendered from so post-run tooling (the `dakc analyze` subcommand)
//! can consume the same artifacts Perfetto does instead of requiring a
//! side channel. Reading is lossy only where the export was: event order
//! and timestamps survive (µs precision), and rows the reader does not
//! recognize are counted, not fatal, so traces from newer writers still
//! load.

use super::event::{Event, EventKind};
use super::json::{parse, JsonValue};

/// A trace document decoded back into events.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// Reconstructed events, in file order.
    pub events: Vec<Event>,
    /// `(pe, node)` pairs from the thread-name metadata records — the
    /// pid/tid layout the writer used (`node = pe / ppn` for simulator
    /// traces, `node = rank` for merged launch traces).
    pub pe_node: Vec<(u32, u32)>,
    /// The optional top-level `"dakc"` metadata object
    /// (see [`super::chrome::chrome_trace_with`]).
    pub dakc: Option<JsonValue>,
    /// Rows that were valid JSON but not a recognized event shape.
    pub skipped: usize,
}

impl ParsedTrace {
    /// Number of distinct process tracks (nodes or ranks) in the trace.
    pub fn nodes(&self) -> usize {
        let mut ids: Vec<u32> = self.pe_node.iter().map(|&(_, n)| n).collect();
        ids.extend(self.events.iter().map(|e| e.pe));
        if self.pe_node.is_empty() {
            ids.sort_unstable();
            ids.dedup();
            return ids.len();
        }
        self.pe_node.iter().map(|&(_, n)| n).max().map_or(0, |m| m as usize + 1)
    }

    /// The node (process track) a PE was rendered on, falling back to the
    /// PE id itself when the trace carried no metadata for it.
    pub fn node_of(&self, pe: u32) -> u32 {
        self.pe_node.iter().find(|&&(p, _)| p == pe).map_or(pe, |&(_, n)| n)
    }
}

/// Microseconds per second (trace-event timestamps are µs).
const US: f64 = 1e6;

fn num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(JsonValue::as_f64)
}

fn arg_num(v: &JsonValue, key: &str) -> Option<f64> {
    v.get("args").and_then(|a| a.get(key)).and_then(JsonValue::as_f64)
}

fn arg_u64(v: &JsonValue, key: &str) -> Option<u64> {
    arg_num(v, key).map(|f| f as u64)
}

/// Decodes one `ph:"i"` instant row by its name.
fn decode_instant(name: &str, row: &JsonValue) -> Option<EventKind> {
    let u = |k: &str| arg_u64(row, k);
    Some(match name {
        "msg_send" => EventKind::MsgSend {
            dst: u("dst")? as u32,
            tag: u("tag")? as u32,
            bytes: u("bytes")? as u32,
        },
        "msg_deliver" => EventKind::MsgDeliver {
            src: u("src")? as u32,
            tag: u("tag")? as u32,
            bytes: u("bytes")? as u32,
        },
        "put_flush" => EventKind::PutFlush {
            hop: u("hop")? as u32,
            bytes: u("bytes")? as u32,
            fill_pct: u("fill_pct")? as u8,
        },
        "l1_drain" => EventKind::L1Drain { packets: u("packets")? as u32 },
        "l2_ship" => EventKind::L2Ship {
            dst: u("dst")? as u32,
            records: u("records")? as u32,
            fill_pct: u("fill_pct")? as u8,
            heavy: matches!(
                row.get("args").and_then(|a| a.get("heavy")),
                Some(JsonValue::Bool(true))
            ),
        },
        "l3_flush" => EventKind::L3Flush {
            occupancy: u("occupancy")? as u32,
            cap: u("cap")? as u32,
        },
        "phase" => EventKind::Phase { phase: u("phase")? as u32 },
        "mem_alloc" => EventKind::MemAlloc { bytes: u("bytes")?, now: u("now")? },
        "mem_free" => EventKind::MemFree { bytes: u("bytes")?, now: u("now")? },
        "oom" => EventKind::Oom { bytes: u("bytes")? },
        "net_retry" => EventKind::NetRetry {
            dst: u("dst")? as u32,
            attempt: u("attempt")? as u32,
            delay_us: u("delay_us")?,
        },
        "net_fault" => EventKind::NetFault {
            kind: EventKind::fault_tag(
                row.get("args")
                    .and_then(|a| a.get("fault"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or(""),
            ),
        },
        _ => return None,
    })
}

/// Decodes one row of the `traceEvents` array, or `None` for rows that
/// are not events (metadata) or not a recognized shape.
fn decode_row(row: &JsonValue) -> Option<Event> {
    let ph = row.get("ph").and_then(JsonValue::as_str)?;
    let ts = num(row, "ts")? / US;
    let pe = num(row, "tid")? as u32;
    let name = row.get("name").and_then(JsonValue::as_str).unwrap_or("");
    let kind = match ph {
        "i" => decode_instant(name, row)?,
        "B" if name == "barrier" => EventKind::BarrierEnter,
        "E" if name == "barrier" => {
            EventKind::BarrierExit { waited_s: arg_num(row, "waited_s").unwrap_or(0.0) }
        }
        "C" => {
            if let Some(pe_str) = name.strip_prefix("queue_depth/pe") {
                let _: u32 = pe_str.parse().ok()?;
                EventKind::QueueDepth { depth: arg_u64(row, "depth")? as u32 }
            } else if name == "node_mem" {
                EventKind::NodeMem { node: num(row, "pid")? as u32, bytes: arg_u64(row, "bytes")? }
            } else {
                return None;
            }
        }
        "s" if name == "msgflow" => EventKind::FlowSend {
            flow: num(row, "id")? as u64,
            channel: arg_u64(row, "channel")? as u8,
            dst: arg_u64(row, "dst")? as u32,
        },
        "f" if name == "msgflow" => EventKind::FlowRecv {
            flow: num(row, "id")? as u64,
            channel: arg_u64(row, "channel")? as u8,
            src: arg_u64(row, "src")? as u32,
            l3_s: arg_num(row, "l3_s")?,
            l2_s: arg_num(row, "l2_s")?,
            l1_s: arg_num(row, "l1_s")?,
            l0_s: arg_num(row, "l0_s")?,
            net_s: arg_num(row, "net_s")?,
            drain_s: arg_num(row, "drain_s")?,
            e2e_s: arg_num(row, "e2e_s")?,
        },
        _ => return None,
    };
    Some(Event { ts, pe, kind })
}

/// Parses a Chrome trace-event document produced by
/// [`super::chrome::chrome_trace`] (or `chrome_trace_with`) back into its
/// event stream.
///
/// Errors on malformed JSON or a missing `traceEvents` array; individual
/// unrecognized rows are tolerated and tallied in
/// [`ParsedTrace::skipped`].
pub fn read_chrome_trace(body: &str) -> Result<ParsedTrace, String> {
    let doc = parse(body)?;
    let rows = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("trace: missing traceEvents array")?;
    let mut out = ParsedTrace { dakc: doc.get("dakc").cloned(), ..ParsedTrace::default() };
    for row in rows {
        let ph = row.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        if ph == "M" {
            // thread_name metadata carries the pe → node (tid → pid) map.
            if row.get("name").and_then(JsonValue::as_str) == Some("thread_name") {
                if let (Some(pid), Some(tid)) = (num(row, "pid"), num(row, "tid")) {
                    out.pe_node.push((tid as u32, pid as u32));
                }
            }
            continue;
        }
        match decode_row(row) {
            Some(e) => out.events.push(e),
            None => out.skipped += 1,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::chrome::{chrome_trace, chrome_trace_with};
    use proptest::prelude::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event { ts: 0.0, pe: 0, kind: EventKind::Phase { phase: 1 } },
            Event { ts: 1e-6, pe: 0, kind: EventKind::MsgSend { dst: 1, tag: 7, bytes: 128 } },
            Event { ts: 2e-6, pe: 1, kind: EventKind::MsgDeliver { src: 0, tag: 7, bytes: 128 } },
            Event { ts: 3e-6, pe: 1, kind: EventKind::BarrierEnter },
            Event { ts: 4e-6, pe: 1, kind: EventKind::BarrierExit { waited_s: 1e-6 } },
            Event { ts: 5e-6, pe: 0, kind: EventKind::QueueDepth { depth: 3 } },
            Event { ts: 6e-6, pe: 0, kind: EventKind::NodeMem { node: 0, bytes: 4096 } },
            Event { ts: 7e-6, pe: 0, kind: EventKind::FlowSend { flow: 9, channel: 1, dst: 3 } },
            Event {
                ts: 9e-6,
                pe: 3,
                kind: EventKind::FlowRecv {
                    flow: 9,
                    channel: 1,
                    src: 0,
                    l3_s: 1e-6,
                    l2_s: 0.0,
                    l1_s: 0.0,
                    l0_s: 0.0,
                    net_s: 1e-6,
                    drain_s: 0.0,
                    e2e_s: 2e-6,
                },
            },
            Event { ts: 10e-6, pe: 2, kind: EventKind::NetFault { kind: 3 } },
        ]
    }

    #[test]
    fn round_trips_every_event() {
        let events = sample_events();
        let parsed = read_chrome_trace(&chrome_trace(&events, 2)).unwrap();
        assert_eq!(parsed.skipped, 0, "every row recognized");
        assert_eq!(parsed.events.len(), events.len());
        for (orig, back) in events.iter().zip(&parsed.events) {
            assert_eq!(orig.pe, back.pe);
            assert!((orig.ts - back.ts).abs() < 1e-12, "{} vs {}", orig.ts, back.ts);
            assert_eq!(orig.kind, back.kind);
        }
        // ppn=2: pes {0,1,2,3} → nodes {0,0,1,1}.
        assert_eq!(parsed.nodes(), 2);
        assert_eq!(parsed.node_of(3), 1);
    }

    #[test]
    fn reads_dakc_meta_and_tolerates_unknown_rows() {
        let body = chrome_trace_with(&sample_events(), 1, Some("{\"ranks\":4}"));
        // Splice in a row from a hypothetical future writer.
        let body = body.replace(
            "{\"traceEvents\":[\n",
            "{\"traceEvents\":[\n{\"name\":\"quantum_event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{}},\n",
        );
        let parsed = read_chrome_trace(&body).unwrap();
        assert_eq!(parsed.skipped, 1);
        assert_eq!(parsed.events.len(), sample_events().len());
        assert_eq!(
            parsed.dakc.as_ref().and_then(|d| d.get("ranks")).and_then(JsonValue::as_f64),
            Some(4.0)
        );
    }

    #[test]
    fn large_trace_reads_in_linear_time() {
        // ~60k rows (several MB): string-heavy rows like a real launch
        // trace, where parse cost used to grow with the square of size.
        let events: Vec<Event> = (0..20_000u32)
            .flat_map(|i| {
                let ts = f64::from(i) * 1e-6;
                [
                    Event { ts, pe: i % 4, kind: EventKind::MsgSend { dst: (i + 1) % 4, tag: 7, bytes: i } },
                    Event { ts, pe: (i + 1) % 4, kind: EventKind::MsgDeliver { src: i % 4, tag: 7, bytes: i } },
                    Event { ts, pe: i % 4, kind: EventKind::QueueDepth { depth: i % 64 } },
                ]
            })
            .collect();
        let body = chrome_trace(&events, 2);
        assert!(body.len() > 4 << 20, "trace is only {} bytes", body.len());
        let start = std::time::Instant::now();
        let parsed = read_chrome_trace(&body).unwrap();
        let took = start.elapsed();
        assert_eq!(parsed.events.len(), events.len());
        assert_eq!(parsed.skipped, 0);
        let limit = if cfg!(debug_assertions) { 20.0 } else { 1.0 };
        assert!(took.as_secs_f64() < limit, "{} byte trace took {took:?}", body.len());
    }

    #[test]
    fn rejects_non_trace_json() {
        assert!(read_chrome_trace("not json").is_err());
        assert!(read_chrome_trace("{\"counters\":{}}").is_err());
    }

    proptest! {
        // Write → read is the identity on the event stream (timestamps to
        // µs export precision).
        #[test]
        fn write_read_round_trip(
            raw in prop::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 1..40),
        ) {
            let events: Vec<Event> = raw
                .iter()
                .map(|&(a, b, tbits)| {
                    let ts = (tbits % 1_000_000_000) as f64 * 1e-6;
                    Event {
                        ts,
                        pe: a % 8,
                        kind: EventKind::MsgSend {
                            dst: (a / 8) % 8,
                            tag: a,
                            bytes: (b % (1 << 20)) as u32,
                        },
                    }
                })
                .collect();
            let parsed = read_chrome_trace(&chrome_trace(&events, 4)).unwrap();
            prop_assert_eq!(parsed.events.len(), events.len());
            prop_assert_eq!(parsed.skipped, 0);
            for (orig, back) in events.iter().zip(&parsed.events) {
                prop_assert_eq!(&orig.kind, &back.kind);
                prop_assert!((orig.ts - back.ts).abs() < 1e-9);
            }
        }
    }
}
