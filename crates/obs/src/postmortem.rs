//! Post-mortem bundles: what every rank was doing in the moments
//! before a crash, written as one JSON file by the recovery supervisor.
//!
//! When the chaos stack kills a rank, each rank (dying and surviving
//! alike) deposits a [`FlightDump`] — the tail of
//! its span timeline, its counter snapshot, and for the dying rank the
//! innermost span that was in flight — into the process-wide flight
//! store ([`crate::flight_deposit`]). The supervisor drains the store
//! ([`crate::flight_take_all`]) and hands the dumps here;
//! [`write_postmortem`] emits a `postmortem.json` bundle and
//! [`validate_postmortem`] re-parses it with the built-in JSON parser
//! ([`crate::json`]) so chaos tests and CI can assert on the bundle
//! offline, with no external tooling.

use std::io::Write;
use std::path::Path;

use crate::json::{escape, Json};
use crate::FlightDump;

/// Schema tag stamped into (and required from) every bundle.
pub const SCHEMA: &str = "forust.postmortem.v1";

/// Everything the supervisor knows about one caught crash.
#[derive(Debug, Clone, Default)]
pub struct Postmortem {
    /// The rank the crash was attributed to.
    pub dead_rank: usize,
    /// The comm call site named by the crash payload (e.g. the
    /// `RankCrashed::call` of the injected fault).
    pub dead_call: String,
    /// Which recovery attempt caught the crash (0-based).
    pub attempt: usize,
    /// Newest checkpoint epoch available for restore, if any.
    pub checkpoint_epoch: Option<u64>,
    /// Flight-recorder lookback window the dumps were taken with, ms.
    pub window_ms: u64,
    /// Per-rank flight dumps, sorted by rank.
    pub ranks: Vec<FlightDump>,
}

/// Render the bundle as a JSON document.
pub fn render_postmortem(pm: &Postmortem) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{}\",\n", SCHEMA));
    s.push_str(&format!("  \"dead_rank\": {},\n", pm.dead_rank));
    s.push_str(&format!(
        "  \"dead_call\": \"{}\",\n",
        escape(&pm.dead_call)
    ));
    s.push_str(&format!("  \"attempt\": {},\n", pm.attempt));
    match pm.checkpoint_epoch {
        Some(e) => s.push_str(&format!("  \"checkpoint_epoch\": {e},\n")),
        None => s.push_str("  \"checkpoint_epoch\": null,\n"),
    }
    s.push_str(&format!("  \"window_ms\": {},\n", pm.window_ms));
    s.push_str("  \"ranks\": [");
    for (i, d) in pm.ranks.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {");
        s.push_str(&format!("\"rank\": {}, ", d.rank));
        match &d.crash_phase {
            Some(p) => s.push_str(&format!("\"in_flight_phase\": \"{}\", ", escape(p))),
            None => s.push_str("\"in_flight_phase\": null, "),
        }
        s.push_str(&format!(
            "\"deposited_ms\": {:.3},\n     \"counters\": {{",
            d.deposited_ns as f64 / 1e6
        ));
        for (j, (name, v)) in d.counters.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {v}", escape(name)));
        }
        s.push_str("},\n     \"events\": [");
        for (j, ev) in d.events.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"ts_us\": {:.3}, \"dur_us\": {:.3}, \"lane\": {}}}",
                escape(ev.name),
                ev.ts_ns as f64 / 1e3,
                ev.dur_ns as f64 / 1e3,
                ev.lane
            ));
        }
        s.push_str("]}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Write the bundle to `path` (creating parent directories).
pub fn write_postmortem(path: &Path, pm: &Postmortem) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(render_postmortem(pm).as_bytes())?;
    f.flush()
}

/// What [`validate_postmortem`] extracts from a bundle.
#[derive(Debug, Clone, Default)]
pub struct PostmortemSummary {
    /// `dead_rank` field.
    pub dead_rank: usize,
    /// `dead_call` field.
    pub dead_call: String,
    /// Which recovery attempt caught the crash.
    pub attempt: usize,
    /// The dead rank's `in_flight_phase`, if its dump made the bundle.
    pub in_flight_phase: Option<String>,
    /// Ranks that contributed dumps, in file order.
    pub ranks: Vec<usize>,
    /// Total span events across all dumps.
    pub events_total: usize,
}

/// Re-parse and schema-check a bundle emitted by [`write_postmortem`].
pub fn validate_postmortem(text: &str) -> Result<PostmortemSummary, String> {
    let root = Json::parse(text)?;
    match root.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("unknown schema {s:?}")),
        None => return Err("missing schema".into()),
    }
    let dead_rank = root
        .get("dead_rank")
        .and_then(Json::as_u64)
        .ok_or("missing dead_rank")? as usize;
    let dead_call = root
        .get("dead_call")
        .and_then(Json::as_str)
        .ok_or("missing dead_call")?
        .to_string();
    let attempt = root
        .get("attempt")
        .and_then(Json::as_u64)
        .ok_or("missing attempt")? as usize;
    if root.get("window_ms").and_then(Json::as_u64).is_none() {
        return Err("missing window_ms".into());
    }
    let ranks = root
        .get("ranks")
        .and_then(Json::as_array)
        .ok_or("missing ranks array")?;
    let mut summary = PostmortemSummary {
        dead_rank,
        dead_call,
        attempt,
        ..Default::default()
    };
    for entry in ranks {
        let rank = entry
            .get("rank")
            .and_then(Json::as_u64)
            .ok_or("rank entry missing rank")? as usize;
        summary.ranks.push(rank);
        let phase = match entry.get("in_flight_phase") {
            Some(Json::String(p)) => Some(p.clone()),
            Some(Json::Null) => None,
            _ => return Err(format!("rank {rank} missing in_flight_phase")),
        };
        if rank == dead_rank {
            summary.in_flight_phase = phase;
        }
        if entry.get("counters").and_then(Json::as_object).is_none() {
            return Err(format!("rank {rank} missing counters object"));
        }
        let events = entry
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("rank {rank} missing events array"))?;
        for ev in events {
            if ev.get("name").and_then(Json::as_str).is_none()
                || ev.get("ts_us").and_then(Json::as_f64).is_none()
                || ev.get("dur_us").and_then(Json::as_f64).is_none()
            {
                return Err(format!("rank {rank} has a malformed event"));
            }
        }
        summary.events_total += events.len();
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn sample() -> Postmortem {
        Postmortem {
            dead_rank: 1,
            dead_call: "recv_bytes".into(),
            attempt: 0,
            checkpoint_epoch: Some(2),
            window_ms: 250,
            ranks: vec![
                FlightDump {
                    rank: 0,
                    crash_phase: None,
                    counters: vec![("halo.bytes_sent".into(), 4096)],
                    events: vec![TraceEvent {
                        name: "rk.stage",
                        ts_ns: 1_500,
                        dur_ns: 2_000,
                        lane: 0,
                    }],
                    deposited_ns: 9_000_000,
                },
                FlightDump {
                    rank: 1,
                    crash_phase: Some("rhs.exchange_wait".into()),
                    counters: vec![],
                    events: vec![],
                    deposited_ns: 9_100_000,
                },
            ],
        }
    }

    #[test]
    fn round_trip_names_dead_rank_and_phase() {
        let text = render_postmortem(&sample());
        let summary = validate_postmortem(&text).expect("valid bundle");
        assert_eq!(summary.dead_rank, 1);
        assert_eq!(summary.dead_call, "recv_bytes");
        assert_eq!(
            summary.in_flight_phase.as_deref(),
            Some("rhs.exchange_wait")
        );
        assert_eq!(summary.ranks, vec![0, 1]);
        assert_eq!(summary.events_total, 1);
    }

    #[test]
    fn validator_rejects_wrong_schema_and_missing_fields() {
        assert!(validate_postmortem("{}").is_err());
        assert!(validate_postmortem("{\"schema\": \"bogus\"}").is_err());
        let mut text = render_postmortem(&sample());
        text = text.replace("\"dead_rank\": 1,", "");
        assert!(validate_postmortem(&text).is_err());
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("forust_pm_{}", std::process::id()));
        let path = dir.join("nested").join("postmortem.json");
        write_postmortem(&path, &sample()).expect("write bundle");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(validate_postmortem(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
