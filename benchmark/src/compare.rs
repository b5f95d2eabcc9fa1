//! `benchmark compare <base.json> <new.json>`: one row per workload ×
//! bounded metric, judged by the metric's direction and bound.
//!
//! * **worse** — the new value lost more than the bound;
//! * **better** — it gained more than the bound, or gained at all on a
//!   deterministic metric (zero spread);
//! * **unchanged** — neither;
//! * **unresolved** — the run-to-run spread of either side is wider than
//!   the bound, so the difference cannot be told from noise.
//!
//! Per-layer metrics carry no bound and are not judged.

use std::fmt::Write as _;

use crate::json::Json;

/// One bounded metric of one workload, as read from a results file.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// `true` when larger is better.
    pub higher: bool,
    /// Regression bound, as a share of the base value.
    pub bound: f64,
    /// Quartile spread as a share of the median.
    pub spread: f64,
}

/// The judgement of one pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved beyond the bound (or at all, when deterministic).
    Better,
    /// Regressed beyond the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// Spread wider than the bound.
    Unresolved,
}

/// Reads the bounded metrics of a results file: one run's document or a
/// `summary.json` holding several under `"runs"`.
///
/// # Errors
///
/// When the file is unreadable or not a results document.
pub fn load(text: &str) -> Result<Vec<Entry>, String> {
    let doc = Json::parse(text)?;
    let runs: Vec<&Json> = match doc.get("runs").and_then(Json::as_array) {
        Some(runs) => runs.iter().collect(),
        None => vec![&doc],
    };
    let mut out = Vec::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run has no \"workload\"")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("a run has no \"metrics\" object")?;
        for (name, m) in metrics {
            let Some(bound) = m.get("bound").and_then(Json::as_f64) else {
                continue;
            };
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{name}: no {k}"))
            };
            out.push(Entry {
                workload: workload.to_string(),
                metric: name.clone(),
                value: field("value")?,
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                higher: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound,
                spread: field("spread")?,
            });
        }
    }
    Ok(out)
}

/// Judges `new` against `base`. Returns the relative gain (positive is
/// better) and the verdict.
pub fn judge(base: &Entry, new: &Entry) -> (f64, Verdict) {
    let change = if base.value == 0.0 {
        if new.value == 0.0 {
            0.0
        } else {
            new.value.signum()
        }
    } else {
        (new.value - base.value) / base.value.abs()
    };
    let gain = if base.higher { change } else { -change };
    let spread = base.spread.max(new.spread);
    let verdict = if spread > base.bound {
        Verdict::Unresolved
    } else if gain < -base.bound {
        Verdict::Worse
    } else if gain > base.bound || (spread == 0.0 && gain > 0.0) {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    (gain, verdict)
}

/// The comparison table, and whether any pair got worse.
pub fn render(base: &[Entry], new: &[Entry]) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<40} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "base", "new", "gain"
    );
    let mut worse = false;
    for b in base {
        let Some(n) = new
            .iter()
            .find(|n| n.workload == b.workload && n.metric == b.metric)
        else {
            let _ = writeln!(
                out,
                "{:<14} {:<40} {:>16.6} {:>16} {:>9}  missing",
                b.workload, b.metric, b.value, "-", "-"
            );
            continue;
        };
        let (gain, verdict) = judge(b, n);
        worse |= verdict == Verdict::Worse;
        let _ = writeln!(
            out,
            "{:<14} {:<40} {:>16.6} {:>16.6} {:>+8.2}%  {} ({})",
            b.workload,
            b.metric,
            b.value,
            n.value,
            gain * 100.0,
            match verdict {
                Verdict::Better => "better",
                Verdict::Worse => "worse",
                Verdict::Unchanged => "unchanged",
                Verdict::Unresolved => "unresolved",
            },
            b.unit
        );
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(value: f64, higher: bool, bound: f64, spread: f64) -> Entry {
        Entry {
            workload: "w".into(),
            metric: "m".into(),
            value,
            unit: "u".into(),
            higher,
            bound,
            spread,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = entry(100.0, true, 0.1, 0.02);
        assert_eq!(
            judge(&base, &entry(85.0, true, 0.1, 0.02)).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &entry(95.0, true, 0.1, 0.02)).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&base, &entry(120.0, true, 0.1, 0.02)).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &entry(50.0, true, 0.1, 0.3)).1,
            Verdict::Unresolved
        );
        let lower = entry(100.0, false, 0.001, 0.0);
        assert_eq!(
            judge(&lower, &entry(99.99, false, 0.001, 0.0)).1,
            Verdict::Better
        );
        assert_eq!(
            judge(&lower, &entry(100.0, false, 0.001, 0.0)).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&lower, &entry(101.0, false, 0.001, 0.0)).1,
            Verdict::Worse
        );
    }

    #[test]
    fn loads_single_runs_and_summaries_skipping_unbounded_metrics() {
        let run = r#"{"workload": "w", "metrics": {
            "a": {"value": 2, "unit": "s", "better": "lower", "bound": 0.1, "spread": 0.01},
            "b": {"value": 3, "unit": "us", "better": "lower", "bound": null, "spread": 0}}}"#;
        let one = load(run).unwrap();
        assert_eq!(one.len(), 1);
        assert!(!one[0].higher);
        let both = load(&format!("{{\"runs\": [{run}, {run}]}}")).unwrap();
        assert_eq!(both.len(), 2);
        assert!(load("{\"metrics\": {}}").is_err());
    }
}
