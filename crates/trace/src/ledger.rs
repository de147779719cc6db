//! Perf history ledger: the cross-commit perf trajectory, one JSON
//! line per gated run.
//!
//! The gate compares *one* fresh run against *one* baseline; the ledger
//! (`results/history/perf.jsonl`) remembers every gated run so the
//! BDS/SIS ratio trajectory the ROADMAP north-star asks for is an
//! append-only record instead of folklore. Each line is a complete
//! `bds-perf-ledger/v1` object — self-describing, so a truncated or
//! hand-edited file fails [`parse_ledger`] with the guilty line number
//! (`cargo xtask perfhist --check` turns that into a CI failure).
//!
//! [`LedgerEntry::from_report`] condenses a `bds-trace-report/v1`
//! document into one row: structural totals (gates, literals, memory
//! proxy) summed across circuits, BDS wall seconds summed, the
//! BDS/SIS speedup geo-meaned, and the three gated telemetry metrics
//! folded to their worst observed value (minimum cache hit rate,
//! maximum peaks). `cargo xtask perfgate --record` appends a row after
//! a passing gate; `cargo xtask perfhist` renders the trend table with
//! deltas against the previous row and against the seed (first) row.

use crate::json::Json;

/// Schema identifier carried by every ledger line.
pub const LEDGER_SCHEMA: &str = "bds-perf-ledger/v1";

/// One gated run, condensed to a single trend row.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerEntry {
    /// Short commit hash of the gated tree (`"unknown"` outside git).
    pub commit: String,
    /// Worker count the run was gated at.
    pub jobs: u64,
    /// Circuits in the report.
    pub circuits: u64,
    /// Mapped gates, summed across circuits.
    pub gates: u64,
    /// Factored literals, summed across circuits.
    pub literals: u64,
    /// Peak live BDD nodes (memory proxy), summed across circuits.
    pub mem_proxy: u64,
    /// BDS wall seconds, summed across circuits.
    pub seconds: f64,
    /// Geometric mean of the per-circuit BDS/SIS speedups.
    pub speedup: f64,
    /// Worst (minimum) per-circuit ITE cache hit rate.
    pub cache_hit_rate: f64,
    /// Worst (maximum) per-circuit peak arena bytes.
    pub peak_arena_bytes: u64,
    /// Worst (maximum) per-circuit peak unique-table load.
    pub peak_unique_load: f64,
}

impl LedgerEntry {
    /// Condenses a `bds-trace-report/v1` document into one ledger row.
    /// Telemetry fields come from each row's embedded `telemetry`
    /// object; rows without one leave them at their neutral values.
    ///
    /// # Errors
    /// Returns a description when `report` is not a
    /// `bds-trace-report/v1` document with a non-empty `circuits`
    /// array.
    pub fn from_report(report: &Json, commit: &str) -> Result<LedgerEntry, String> {
        match report.get("schema").and_then(Json::as_str) {
            Some(crate::gate::REPORT_SCHEMA) => {}
            other => return Err(format!("report has unsupported schema {other:?}")),
        }
        let circuits = report
            .get("circuits")
            .and_then(Json::as_arr)
            .ok_or("report has no circuits array")?;
        if circuits.is_empty() {
            return Err("report has no circuits".into());
        }

        let mut entry = LedgerEntry {
            commit: commit.to_string(),
            jobs: report.get("jobs").and_then(Json::as_u64).unwrap_or(1),
            circuits: circuits.len() as u64,
            gates: 0,
            literals: 0,
            mem_proxy: 0,
            seconds: 0.0,
            speedup: 1.0,
            cache_hit_rate: 1.0,
            peak_arena_bytes: 0,
            peak_unique_load: 0.0,
        };
        let mut log_speedup_sum = 0.0;
        let mut speedups = 0u32;
        for c in circuits {
            let bds = c.get("bds");
            let field = |name: &str| bds.and_then(|b| b.get(name)).and_then(Json::as_u64);
            entry.gates += field("gates").unwrap_or(0);
            entry.literals += field("literals").unwrap_or(0);
            entry.mem_proxy += field("mem_proxy").unwrap_or(0);
            entry.seconds += bds
                .and_then(|b| b.get("seconds"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            if let Some(s) = c.get("speedup").and_then(Json::as_f64) {
                if s > 0.0 {
                    log_speedup_sum += s.ln();
                    speedups += 1;
                }
            }
            if let Some(t) = c.get("telemetry") {
                if let Some(v) = t.get("cache_hit_rate").and_then(Json::as_f64) {
                    entry.cache_hit_rate = entry.cache_hit_rate.min(v);
                }
                if let Some(v) = t.get("peak_arena_bytes").and_then(Json::as_u64) {
                    entry.peak_arena_bytes = entry.peak_arena_bytes.max(v);
                }
                if let Some(v) = t.get("peak_unique_load").and_then(Json::as_f64) {
                    entry.peak_unique_load = entry.peak_unique_load.max(v);
                }
            }
        }
        if speedups > 0 {
            entry.speedup = (log_speedup_sum / f64::from(speedups)).exp();
        }
        Ok(entry)
    }

    /// Serializes the entry as one schema-tagged JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(LEDGER_SCHEMA.into())),
            ("commit".into(), Json::Str(self.commit.clone())),
            ("jobs".into(), Json::Int(self.jobs)),
            ("circuits".into(), Json::Int(self.circuits)),
            ("gates".into(), Json::Int(self.gates)),
            ("literals".into(), Json::Int(self.literals)),
            ("mem_proxy".into(), Json::Int(self.mem_proxy)),
            ("seconds".into(), Json::Num(self.seconds)),
            ("speedup".into(), Json::Num(self.speedup)),
            ("cache_hit_rate".into(), Json::Num(self.cache_hit_rate)),
            ("peak_arena_bytes".into(), Json::Int(self.peak_arena_bytes)),
            ("peak_unique_load".into(), Json::Num(self.peak_unique_load)),
        ])
    }

    /// Renders the entry as a single `jsonl` line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        // The pretty renderer may break objects across lines; join the
        // per-field scalar renders so one entry is exactly one line.
        let fields = match self.to_json() {
            Json::Obj(fields) => fields,
            _ => Vec::new(),
        };
        let parts: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{k:?}: {}", v.render().trim_end()))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }

    /// Parses one ledger line.
    ///
    /// # Errors
    /// Returns a description for malformed JSON, a wrong schema tag, or
    /// a missing field.
    pub fn parse_line(line: &str) -> Result<LedgerEntry, String> {
        let doc = crate::json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(LEDGER_SCHEMA) => {}
            other => return Err(format!("unsupported ledger schema {other:?}")),
        }
        let int = |name: &str| {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field {name:?}"))
        };
        let num = |name: &str| {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field {name:?}"))
        };
        Ok(LedgerEntry {
            commit: doc
                .get("commit")
                .and_then(Json::as_str)
                .ok_or("missing string field \"commit\"")?
                .to_string(),
            jobs: int("jobs")?,
            circuits: int("circuits")?,
            gates: int("gates")?,
            literals: int("literals")?,
            mem_proxy: int("mem_proxy")?,
            seconds: num("seconds")?,
            speedup: num("speedup")?,
            cache_hit_rate: num("cache_hit_rate")?,
            peak_arena_bytes: int("peak_arena_bytes")?,
            peak_unique_load: num("peak_unique_load")?,
        })
    }
}

/// Parses a whole `perf.jsonl` file. Blank lines are allowed (a
/// trailing newline is the normal case); anything else must be a valid
/// ledger line.
///
/// # Errors
/// Returns `"line N: <detail>"` for the first malformed line.
pub fn parse_ledger(text: &str) -> Result<Vec<LedgerEntry>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(LedgerEntry::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Formats a signed delta column: an empty cell for "no previous row".
fn delta_cell(cur: f64, prev: Option<f64>) -> String {
    match prev {
        Some(p) => format!("{:+.2}%", percent_change(p, cur)),
        None => "-".to_string(),
    }
}

fn percent_change(from: f64, to: f64) -> f64 {
    if from == 0.0 {
        0.0
    } else {
        (to - from) / from * 100.0
    }
}

/// Renders the trend table: one row per entry, with structural totals,
/// wall seconds and speedup, plus percentage deltas against the
/// previous row (`Δprev`) and against the seed (first) row (`Δseed`).
#[must_use]
#[allow(clippy::cast_precision_loss)] // trend percentages; f64 loss fine
pub fn render_history(entries: &[LedgerEntry]) -> String {
    let mut out = format!(
        "{:<10} {:>4} {:>8} {:>9} {:>10} {:>9} {:>8} {:>9} {:>9}\n",
        "commit", "jobs", "gates", "literals", "mem_proxy", "seconds", "speedup", "Δprev", "Δseed"
    );
    let seed = entries.first();
    for (i, e) in entries.iter().enumerate() {
        // The trend metric is BDS wall seconds: structural totals are
        // exact-gated anyway, so wall time is where movement lives.
        let dprev = delta_cell(e.seconds, i.checked_sub(1).map(|p| entries[p].seconds));
        let dseed = delta_cell(e.seconds, seed.filter(|_| i > 0).map(|s| s.seconds));
        out.push_str(&format!(
            "{:<10} {:>4} {:>8} {:>9} {:>10} {:>9.3} {:>8.2} {:>9} {:>9}\n",
            e.commit, e.jobs, e.gates, e.literals, e.mem_proxy, e.seconds, e.speedup, dprev, dseed
        ));
    }
    if let (Some(s), Some(l)) = (seed, entries.last()) {
        if entries.len() > 1 {
            out.push_str(&format!(
                "trend vs seed: gates {:+}, literals {:+}, seconds {:+.2}%, speedup {:.2} -> {:.2}\n",
                l.gates as i64 - s.gates as i64,
                l.literals as i64 - s.literals as i64,
                percent_change(s.seconds, l.seconds),
                s.speedup,
                l.speedup,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::REPORT_SCHEMA;

    fn entry(commit: &str, gates: u64, seconds: f64) -> LedgerEntry {
        LedgerEntry {
            commit: commit.into(),
            jobs: 1,
            circuits: 2,
            gates,
            literals: 100,
            mem_proxy: 50,
            seconds,
            speedup: 1.25,
            cache_hit_rate: 0.31,
            peak_arena_bytes: 4096,
            peak_unique_load: 0.5,
        }
    }

    fn report() -> Json {
        let circuit = |name: &str, gates: u64, seconds: f64, speedup: f64, hit: f64| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("speedup".into(), Json::Num(speedup)),
                (
                    "bds".into(),
                    Json::Obj(vec![
                        ("gates".into(), Json::Int(gates)),
                        ("literals".into(), Json::Int(gates * 3)),
                        ("mem_proxy".into(), Json::Int(gates * 2)),
                        ("seconds".into(), Json::Num(seconds)),
                    ]),
                ),
                (
                    "telemetry".into(),
                    Json::Obj(vec![
                        ("cache_hit_rate".into(), Json::Num(hit)),
                        ("peak_arena_bytes".into(), Json::Int(gates * 100)),
                        ("peak_unique_load".into(), Json::Num(hit / 2.0)),
                    ]),
                ),
            ])
        };
        Json::Obj(vec![
            ("schema".into(), Json::Str(REPORT_SCHEMA.into())),
            ("jobs".into(), Json::Int(4)),
            (
                "circuits".into(),
                Json::Arr(vec![
                    circuit("a", 10, 0.5, 2.0, 0.40),
                    circuit("b", 20, 1.5, 0.5, 0.30),
                ]),
            ),
        ])
    }

    #[test]
    fn from_report_condenses_totals_and_worst_telemetry() {
        let e = LedgerEntry::from_report(&report(), "abc1234").unwrap();
        assert_eq!((e.commit.as_str(), e.jobs, e.circuits), ("abc1234", 4, 2));
        assert_eq!((e.gates, e.literals, e.mem_proxy), (30, 90, 60));
        assert!((e.seconds - 2.0).abs() < 1e-12);
        // geomean(2.0, 0.5) = 1.0
        assert!((e.speedup - 1.0).abs() < 1e-12);
        assert!((e.cache_hit_rate - 0.30).abs() < 1e-12);
        assert_eq!(e.peak_arena_bytes, 2000);
        assert!((e.peak_unique_load - 0.20).abs() < 1e-12);
    }

    #[test]
    fn line_round_trip_is_lossless_and_single_line() {
        let e = entry("abc1234", 30, 2.0);
        let line = e.to_line();
        assert!(!line.contains('\n'), "one entry = one line: {line}");
        assert_eq!(LedgerEntry::parse_line(&line).unwrap(), e);
    }

    #[test]
    fn parse_ledger_reports_the_guilty_line() {
        let good = entry("aaaaaaa", 1, 1.0).to_line();
        let text = format!("{good}\nnot json at all\n");
        let err = parse_ledger(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // Wrong schema is caught too.
        let alien = "{\"schema\": \"bds-trace-report/v1\"}";
        let err = parse_ledger(alien).unwrap_err();
        assert!(err.contains("unsupported ledger schema"), "{err}");
        // Blank lines are fine.
        let ok = parse_ledger(&format!("{good}\n\n{good}\n")).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn render_history_shows_deltas_vs_prev_and_seed() {
        let rows = vec![
            entry("seed000", 30, 2.0),
            entry("bbbb111", 30, 1.0),
            entry("cccc222", 30, 1.5),
        ];
        let table = render_history(&rows);
        // Seed row has no deltas; later rows show both columns.
        assert!(table.contains("seed000"), "{table}");
        assert!(table.contains("-50.00%"), "{table}"); // 2.0 -> 1.0 vs prev
        assert!(table.contains("+50.00%"), "{table}"); // 1.0 -> 1.5 vs prev
        assert!(table.contains("-25.00%"), "{table}"); // 1.5 vs seed 2.0
        assert!(table.contains("trend vs seed"), "{table}");
    }

    #[test]
    fn from_report_rejects_alien_or_empty_reports() {
        let bad = Json::Obj(vec![("schema".into(), Json::Str("nope/v9".into()))]);
        assert!(LedgerEntry::from_report(&bad, "x").is_err());
        let empty = Json::Obj(vec![
            ("schema".into(), Json::Str(REPORT_SCHEMA.into())),
            ("circuits".into(), Json::Arr(vec![])),
        ]);
        assert!(LedgerEntry::from_report(&empty, "x").is_err());
    }
}
