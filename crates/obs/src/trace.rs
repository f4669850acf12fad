//! Chrome Trace Event Format export (Perfetto-viewable) and a
//! zero-dependency validator for the emitted JSON.
//!
//! [`export_trace`] is collective: every rank ships its buffered span
//! events to rank 0 via one allgather, and rank 0 writes a single
//! `trace.json` with one track (`tid`) per rank. Load the file in
//! <https://ui.perfetto.dev> or `chrome://tracing`; nesting is inferred
//! from time containment, which our strictly LIFO span guards satisfy
//! by construction.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;

use forust_comm::Communicator;

use crate::json::Json;
use crate::{snapshot_local, LocalReport, TraceEvent};

/// Track id of (rank, lane). Lane 0 keeps the bare rank id (the layout
/// every existing consumer asserts on); worker lanes get disjoint ids
/// above any plausible rank count.
fn track_tid(rank: usize, lane: u32) -> usize {
    if lane == 0 {
        rank
    } else {
        4096 * lane as usize + rank
    }
}

use crate::json::escape as json_escape;

/// Write the gathered trace as Chrome Trace Event Format JSON.
fn write_trace(
    w: &mut impl Write,
    per_rank: &[(usize, Vec<(String, u64, u64, u32)>)],
) -> std::io::Result<()> {
    writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    let sep = |w: &mut dyn Write, first: &mut bool| -> std::io::Result<()> {
        if !*first {
            writeln!(w, ",")?;
        }
        *first = false;
        Ok(())
    };
    for (rank, events) in per_rank {
        // One track per rank, plus one per pool lane that produced events.
        let mut lanes: BTreeSet<u32> = events.iter().map(|(_, _, _, l)| *l).collect();
        lanes.insert(0);
        for lane in lanes {
            let tid = track_tid(*rank, lane);
            let label = if lane == 0 {
                format!("rank {rank}")
            } else {
                format!("rank {rank} worker {lane}")
            };
            sep(w, &mut first)?;
            write!(
                w,
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            )?;
            sep(w, &mut first)?;
            write!(
                w,
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{}}}}}",
                rank * 256 + lane as usize
            )?;
        }
    }
    for (rank, events) in per_rank {
        for (name, ts_ns, dur_ns, lane) in events {
            sep(w, &mut first)?;
            // Chrome trace timestamps are microseconds; keep sub-µs
            // resolution with fractional values.
            write!(
                w,
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                track_tid(*rank, *lane),
                json_escape(name),
                *ts_ns as f64 / 1e3,
                *dur_ns as f64 / 1e3,
            )?;
        }
    }
    writeln!(w, "\n]}}")?;
    Ok(())
}

/// Export every rank's span timeline to `path` as a Chrome Trace Event
/// Format file with one track per rank. Collective: all ranks must
/// call it; rank 0 performs the write and a final barrier guarantees
/// the file exists on return for every rank.
pub fn export_trace<C: Communicator>(comm: &C, path: &Path) -> std::io::Result<()> {
    let local = snapshot_local().unwrap_or_default();
    export_trace_from(comm, path, &local)
}

/// As [`export_trace`], from an explicit local report.
pub fn export_trace_from<C: Communicator>(
    comm: &C,
    path: &Path,
    local: &LocalReport,
) -> std::io::Result<()> {
    let events: Vec<(String, u64, u64, u32)> = local
        .events
        .iter()
        .map(|ev| (ev.name.to_string(), ev.ts_ns, ev.dur_ns, ev.lane))
        .collect();
    let gathered = comm.allgatherv(&events);
    if comm.rank() == 0 {
        let per_rank: Vec<_> = gathered.into_iter().enumerate().collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write_trace(&mut out, &per_rank)?;
        out.flush()?;
    }
    comm.barrier();
    Ok(())
}

/// What [`validate_trace`] extracts from a trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Number of `"ph":"X"` complete events.
    pub complete_events: usize,
    /// Distinct `tid` values among complete events — one per rank.
    pub tids: BTreeSet<i64>,
    /// Distinct span names among complete events.
    pub names: BTreeSet<String>,
}

/// Re-parse an emitted Chrome Trace file with the built-in JSON parser
/// ([`crate::json`]): checks the overall structure parses and summarizes
/// the complete events, enough to gate CI on "Perfetto would load this".
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    let root = Json::parse(text)?;
    if !matches!(root, Json::Object(_)) {
        return Err("root is not an object".into());
    }
    let events = root.get("traceEvents").ok_or("missing traceEvents")?;
    let Json::Array(events) = events else {
        return Err("traceEvents is not an array".into());
    };
    let mut summary = TraceSummary::default();
    for ev in events {
        let Json::Object(ev) = ev else {
            return Err("trace event is not an object".into());
        };
        let get = |k: &str| ev.iter().find(|(f, _)| f == k).map(|(_, v)| v);
        let Some(Json::String(ph)) = get("ph") else {
            return Err("trace event missing ph".into());
        };
        if ph != "X" {
            continue;
        }
        summary.complete_events += 1;
        match get("tid") {
            Some(Json::Number(t)) => {
                summary.tids.insert(*t as i64);
            }
            _ => return Err("complete event missing numeric tid".into()),
        }
        match get("name") {
            Some(Json::String(n)) => {
                summary.names.insert(n.clone());
            }
            _ => return Err("complete event missing name".into()),
        }
        if !matches!(get("ts"), Some(Json::Number(_))) {
            return Err("complete event missing numeric ts".into());
        }
        if !matches!(get("dur"), Some(Json::Number(_))) {
            return Err("complete event missing numeric dur".into());
        }
    }
    Ok(summary)
}

/// Round-trip helper for tests: write the given per-rank events into a
/// string in trace format.
pub fn render_trace_for_test(per_rank: &[(usize, Vec<TraceEvent>)]) -> String {
    let decoded: Vec<(usize, Vec<(String, u64, u64, u32)>)> = per_rank
        .iter()
        .map(|(r, evs)| {
            (
                *r,
                evs.iter()
                    .map(|e| (e.name.to_string(), e.ts_ns, e.dur_ns, e.lane))
                    .collect(),
            )
        })
        .collect();
    let mut buf = Vec::new();
    write_trace(&mut buf, &decoded).expect("write to vec");
    String::from_utf8(buf).expect("trace is utf8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_validates_with_one_track_per_rank() {
        let per_rank = vec![
            (
                0,
                vec![
                    TraceEvent {
                        name: "step",
                        ts_ns: 1_000,
                        dur_ns: 10_000,
                        lane: 0,
                    },
                    TraceEvent {
                        name: "rhs.interior",
                        ts_ns: 2_000,
                        dur_ns: 3_000,
                        lane: 0,
                    },
                ],
            ),
            (
                1,
                vec![TraceEvent {
                    name: "step",
                    ts_ns: 1_500,
                    dur_ns: 9_000,
                    lane: 0,
                }],
            ),
        ];
        let text = render_trace_for_test(&per_rank);
        let summary = validate_trace(&text).expect("valid trace");
        assert_eq!(summary.complete_events, 3);
        assert_eq!(summary.tids.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert!(summary.names.contains("step"));
        assert!(summary.names.contains("rhs.interior"));
    }

    #[test]
    fn escaped_names_survive() {
        let per_rank = vec![(
            0,
            vec![TraceEvent {
                name: "weird\"name\\x",
                ts_ns: 0,
                dur_ns: 1,
                lane: 0,
            }],
        )];
        let text = render_trace_for_test(&per_rank);
        let summary = validate_trace(&text).expect("valid trace");
        assert!(summary.names.contains("weird\"name\\x"));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace("{\"traceEvents\": 5}").is_err());
        assert!(validate_trace("{}").is_err());
        // Complete event missing tid.
        let bad = "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"ts\":0,\"dur\":1}]}";
        assert!(validate_trace(bad).is_err());
    }

    #[test]
    fn empty_rank_set_still_valid() {
        let text = render_trace_for_test(&[]);
        let summary = validate_trace(&text).expect("valid trace");
        assert_eq!(summary.complete_events, 0);
    }
}
