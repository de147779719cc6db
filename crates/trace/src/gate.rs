//! Perf-regression gate: noise-tolerant comparison of two
//! `bds-trace-report/v1` files.
//!
//! One implementation serves both front ends — `bds-bench summary
//! --compare` and `cargo xtask perfgate` — so the thresholds cannot
//! drift apart. Circuits are matched by name; for each match the gate
//! checks the BDS-side metrics:
//!
//! * **structural counts** (`gates`, `literals`, `mem_proxy`) are exact:
//!   the flow is deterministic, so any increase over the baseline is a
//!   real regression;
//! * **wall time** (`seconds`) is noisy: it only regresses when the
//!   fresh value exceeds the baseline by more than a relative percentage
//!   *plus* an absolute floor (see [`Thresholds`]), so scheduler jitter
//!   on sub-100ms circuits cannot fail a build;
//! * **engine telemetry** embedded in each row (`telemetry`: cache hit
//!   rate, peak arena bytes, peak unique-table load) is deterministic:
//!   the hit rate may not drop and the peaks may not grow, with only a
//!   float round-tripping epsilon on the two ratios.
//!
//! The gate never fails on *missing* circuits — a baseline from a
//! different bench simply matches nothing — but front ends that require
//! overlap (perfgate) treat `matched == 0` as an error themselves.

use crate::json::Json;

/// Report schema accepted by [`compare_reports`].
pub const REPORT_SCHEMA: &str = "bds-trace-report/v1";

/// Environment variable overriding the wall-time allowance, read by
/// [`Thresholds::from_env`]. Format `PCT` or `PCT+FLOOR` (e.g. `150` or
/// `150+0.5` for 150% relative plus 0.5 s absolute slack).
pub const TOLERANCE_ENV: &str = "BDS_PERFGATE_TOLERANCE";

/// Absolute slack applied when gating floating-point telemetry metrics
/// (hit rates, load factors): the values are deterministic, but they
/// pass through `f64` formatting/parsing on the way into a report file.
const FLOAT_EPSILON: f64 = 1e-6;

/// Per-metric regression tolerances.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// Allowed relative wall-time increase, in percent (100.0 = may
    /// double before failing).
    pub seconds_pct: f64,
    /// Absolute wall-time slack in seconds added on top of the relative
    /// allowance, so microsecond-scale baselines are not gated on
    /// scheduler noise.
    pub seconds_floor: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            seconds_pct: 100.0,
            seconds_floor: 0.25,
        }
    }
}

impl Thresholds {
    /// Parses a `PCT` or `PCT+FLOOR` tolerance spec (`"150"`,
    /// `"150+0.5"`). `None` for malformed or negative values.
    #[must_use]
    pub fn parse(spec: &str) -> Option<Thresholds> {
        let spec = spec.trim();
        let (pct_str, floor_str) = match spec.split_once('+') {
            Some((p, f)) => (p, Some(f)),
            None => (spec, None),
        };
        let seconds_pct: f64 = pct_str.trim().parse().ok()?;
        let seconds_floor: f64 = match floor_str {
            Some(f) => f.trim().parse().ok()?,
            None => Thresholds::default().seconds_floor,
        };
        if !seconds_pct.is_finite()
            || !seconds_floor.is_finite()
            || seconds_pct < 0.0
            || seconds_floor < 0.0
        {
            return None;
        }
        Some(Thresholds {
            seconds_pct,
            seconds_floor,
        })
    }

    /// The defaults, overridden by [`TOLERANCE_ENV`] when it is set and
    /// well-formed. A malformed value is an `Err` (with the offending
    /// spec) rather than a silent fallback: a CI job that *believes* it
    /// widened the gate must not run with the tight default.
    ///
    /// # Errors
    /// The unparsable spec string.
    pub fn from_env() -> Result<Thresholds, String> {
        match std::env::var(TOLERANCE_ENV) {
            Ok(spec) => Thresholds::parse(&spec)
                .ok_or_else(|| format!("{TOLERANCE_ENV}={spec:?} (want PCT or PCT+FLOOR)")),
            Err(_) => Ok(Thresholds::default()),
        }
    }
}

/// One metric that moved past its threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Circuit name the metric belongs to.
    pub circuit: String,
    /// Metric name (`gates`, `literals`, `mem_proxy`, `seconds`).
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Highest value that would still have passed.
    pub limit: f64,
}

/// Result of gating one fresh report against a baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateOutcome {
    /// Circuits present in both reports.
    pub matched: usize,
    /// Metrics that regressed past their threshold.
    pub regressions: Vec<Regression>,
    /// Metrics strictly better than the baseline (for reporting).
    pub improved: usize,
}

impl GateOutcome {
    /// `true` when no tracked metric regressed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable verdict, one line per regression.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "perfgate: {} circuit(s) matched, {} metric(s) improved, {} regression(s)\n",
            self.matched,
            self.improved,
            self.regressions.len()
        );
        for r in &self.regressions {
            out.push_str(&format!(
                "  REGRESSION {:<12} {:<9} baseline {:.4} -> current {:.4} (limit {:.4})\n",
                r.circuit, r.metric, r.baseline, r.current, r.limit
            ));
        }
        out
    }
}

fn validate(doc: &Json, which: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(REPORT_SCHEMA) => Ok(()),
        other => Err(format!("{which} report has unsupported schema {other:?}")),
    }
}

fn bds_metric(circuit: &Json, metric: &str) -> Option<f64> {
    circuit.get("bds")?.get(metric)?.as_f64()
}

fn find_circuit<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("circuits")?
        .as_arr()?
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
}

/// Gates `current` against `baseline` under `thresholds`.
///
/// # Errors
/// Returns a description when either document is not a
/// `bds-trace-report/v1` report with a `circuits` array.
pub fn compare_reports(
    baseline: &Json,
    current: &Json,
    thresholds: &Thresholds,
) -> Result<GateOutcome, String> {
    validate(baseline, "baseline")?;
    validate(current, "current")?;
    let current_circuits = current
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("current report has no circuits array")?;
    baseline
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("baseline report has no circuits array")?;

    let mut outcome = GateOutcome::default();
    for fresh in current_circuits {
        let Some(name) = fresh.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(base) = find_circuit(baseline, name) else {
            continue;
        };
        outcome.matched += 1;

        for metric in ["gates", "literals", "mem_proxy"] {
            let (Some(b), Some(c)) = (bds_metric(base, metric), bds_metric(fresh, metric)) else {
                continue;
            };
            if c > b {
                outcome.regressions.push(Regression {
                    circuit: name.to_string(),
                    metric,
                    baseline: b,
                    current: c,
                    limit: b,
                });
            } else if c < b {
                outcome.improved += 1;
            }
        }

        if let (Some(b), Some(c)) = (bds_metric(base, "seconds"), bds_metric(fresh, "seconds")) {
            let limit = b * (1.0 + thresholds.seconds_pct / 100.0) + thresholds.seconds_floor;
            if c > limit {
                outcome.regressions.push(Regression {
                    circuit: name.to_string(),
                    metric: "seconds",
                    baseline: b,
                    current: c,
                    limit,
                });
            } else if c < b {
                outcome.improved += 1;
            }
        }

        // Telemetry metrics ride along when both sides carry the
        // object; older baselines without it simply skip the check.
        if let (Some(bt), Some(ct)) = (base.get("telemetry"), fresh.get("telemetry")) {
            gate_telemetry(name, bt, ct, &mut outcome);
        }
    }
    Ok(outcome)
}

/// Gates one circuit's telemetry object: cache hit rate may not drop,
/// peak arena bytes and peak unique-table load may not grow. All three
/// are deterministic, so the only slack is [`FLOAT_EPSILON`] on the
/// two `f64` metrics (report-file round-tripping).
fn gate_telemetry(name: &str, base: &Json, fresh: &Json, outcome: &mut GateOutcome) {
    // (metric, lower_is_worse, epsilon)
    let checks: [(&'static str, bool, f64); 3] = [
        ("cache_hit_rate", true, FLOAT_EPSILON),
        ("peak_arena_bytes", false, 0.0),
        ("peak_unique_load", false, FLOAT_EPSILON),
    ];
    for (metric, lower_is_worse, eps) in checks {
        let (Some(b), Some(c)) = (
            base.get(metric).and_then(Json::as_f64),
            fresh.get(metric).and_then(Json::as_f64),
        ) else {
            continue;
        };
        let (regressed, limit) = if lower_is_worse {
            (c < b - eps, b - eps)
        } else {
            (c > b + eps, b + eps)
        };
        if regressed {
            outcome.regressions.push(Regression {
                circuit: name.to_string(),
                metric,
                baseline: b,
                current: c,
                limit,
            });
        } else if (lower_is_worse && c > b) || (!lower_is_worse && c < b) {
            outcome.improved += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: &[(&str, u64, u64, u64, f64)]) -> Json {
        let circuits = rows
            .iter()
            .map(|&(name, gates, literals, mem_proxy, seconds)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.into())),
                    (
                        "bds".into(),
                        Json::Obj(vec![
                            ("gates".into(), Json::Int(gates)),
                            ("literals".into(), Json::Int(literals)),
                            ("mem_proxy".into(), Json::Int(mem_proxy)),
                            ("seconds".into(), Json::Num(seconds)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(REPORT_SCHEMA.into())),
            ("bench".into(), Json::Str("test".into())),
            ("circuits".into(), Json::Arr(circuits)),
        ])
    }

    #[test]
    fn identical_reports_pass() {
        let doc = report(&[("a", 10, 20, 30, 0.05), ("b", 5, 9, 7, 0.01)]);
        let outcome = compare_reports(&doc, &doc, &Thresholds::default()).unwrap();
        assert!(outcome.passed());
        assert_eq!(outcome.matched, 2);
        assert_eq!(outcome.improved, 0);
    }

    #[test]
    fn count_increase_is_an_exact_regression() {
        let base = report(&[("a", 10, 20, 30, 0.05)]);
        let fresh = report(&[("a", 11, 20, 30, 0.05)]);
        let outcome = compare_reports(&base, &fresh, &Thresholds::default()).unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions.len(), 1);
        let r = &outcome.regressions[0];
        assert_eq!((r.circuit.as_str(), r.metric), ("a", "gates"));
        assert_eq!((r.baseline, r.current, r.limit), (10.0, 11.0, 10.0));
        assert!(outcome.render().contains("REGRESSION a"));
    }

    #[test]
    fn wall_time_tolerates_noise_but_not_blowups() {
        let base = report(&[("a", 10, 20, 30, 0.05)]);
        // 4x on a 50ms circuit is still inside 2x + 250ms slack.
        let noisy = report(&[("a", 10, 20, 30, 0.20)]);
        let t = Thresholds::default();
        assert!(compare_reports(&base, &noisy, &t).unwrap().passed());
        // Past the relative + absolute allowance it fails.
        let blown = report(&[("a", 10, 20, 30, 0.40)]);
        let tight = Thresholds {
            seconds_pct: 100.0,
            seconds_floor: 0.01,
        };
        let outcome = compare_reports(&base, &blown, &tight).unwrap();
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].metric, "seconds");
        assert!((outcome.regressions[0].limit - 0.11).abs() < 1e-9);
    }

    #[test]
    fn improvements_are_counted_not_failed() {
        let base = report(&[("a", 10, 20, 30, 0.05)]);
        let fresh = report(&[("a", 8, 18, 30, 0.01)]);
        let outcome = compare_reports(&base, &fresh, &Thresholds::default()).unwrap();
        assert!(outcome.passed());
        assert_eq!(outcome.improved, 3);
    }

    #[test]
    fn disjoint_reports_match_nothing() {
        let base = report(&[("a", 10, 20, 30, 0.05)]);
        let fresh = report(&[("z", 10, 20, 30, 0.05)]);
        let outcome = compare_reports(&base, &fresh, &Thresholds::default()).unwrap();
        assert_eq!(outcome.matched, 0);
        assert!(outcome.passed());
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let good = report(&[]);
        let bad = Json::Obj(vec![("schema".into(), Json::Str("nope/v9".into()))]);
        assert!(compare_reports(&bad, &good, &Thresholds::default()).is_err());
        assert!(compare_reports(&good, &bad, &Thresholds::default()).is_err());
    }

    #[test]
    fn tolerance_spec_parsing() {
        assert_eq!(
            Thresholds::parse("150"),
            Some(Thresholds {
                seconds_pct: 150.0,
                seconds_floor: 0.25
            })
        );
        assert_eq!(
            Thresholds::parse(" 150 + 0.5 "),
            Some(Thresholds {
                seconds_pct: 150.0,
                seconds_floor: 0.5
            })
        );
        assert_eq!(Thresholds::parse(""), None);
        assert_eq!(Thresholds::parse("abc"), None);
        assert_eq!(Thresholds::parse("-10"), None);
        assert_eq!(Thresholds::parse("100+-1"), None);
        assert_eq!(Thresholds::parse("inf"), None);
    }

    /// A one-circuit report (`a`, fixed BDS metrics) whose row embeds
    /// a telemetry object, as `row_json` writes it.
    fn telemetry_report(hit_rate: f64, bytes: u64, load: f64) -> Json {
        let Json::Obj(mut fields) = report(&[("a", 10, 20, 30, 0.05)]) else {
            unreachable!()
        };
        for (k, v) in &mut fields {
            if k == "circuits" {
                let Json::Arr(circuits) = v else {
                    unreachable!()
                };
                for c in circuits {
                    let Json::Obj(cf) = c else { unreachable!() };
                    cf.push((
                        "telemetry".into(),
                        Json::Obj(vec![
                            ("cache_hit_rate".into(), Json::Num(hit_rate)),
                            ("peak_arena_bytes".into(), Json::Int(bytes)),
                            ("peak_unique_load".into(), Json::Num(load)),
                        ]),
                    ));
                }
            }
        }
        Json::Obj(fields)
    }

    fn gate(base: &Json, fresh: &Json) -> GateOutcome {
        compare_reports(base, fresh, &Thresholds::default()).unwrap()
    }

    #[test]
    fn telemetry_gate_directions() {
        let base = telemetry_report(0.40, 1000, 0.50);
        // Identical passes.
        let outcome = gate(&base, &base);
        assert!(outcome.passed());
        assert_eq!(outcome.matched, 1);
        // Hit rate dropping fails; peaks growing fail.
        let worse = telemetry_report(0.35, 1200, 0.60);
        let outcome = gate(&base, &worse);
        let metrics: Vec<&str> = outcome.regressions.iter().map(|r| r.metric).collect();
        assert_eq!(
            metrics,
            vec!["cache_hit_rate", "peak_arena_bytes", "peak_unique_load"]
        );
        // Hit rate up, peaks down: improvements, not failures.
        let better = telemetry_report(0.45, 900, 0.40);
        let outcome = gate(&base, &better);
        assert!(outcome.passed());
        assert_eq!(outcome.improved, 3);
    }

    #[test]
    fn telemetry_float_epsilon_absorbs_round_tripping() {
        let base = telemetry_report(0.40, 1000, 0.50);
        let jitter = telemetry_report(0.40 - 1e-9, 1000, 0.50 + 1e-9);
        assert!(gate(&base, &jitter).passed());
        // But bytes are exact: one extra byte fails.
        let bloat = telemetry_report(0.40, 1001, 0.50);
        assert!(!gate(&base, &bloat).passed());
    }

    #[test]
    fn embedded_telemetry_rides_the_report_gate() {
        let base = telemetry_report(0.40, 1000, 0.5);
        let fresh = telemetry_report(0.30, 1000, 0.5);
        let outcome = gate(&base, &fresh);
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].metric, "cache_hit_rate");
        // A baseline without the object skips the telemetry checks.
        let old_base = report(&[("a", 10, 20, 30, 0.05)]);
        assert!(gate(&old_base, &fresh).passed());
    }
}
