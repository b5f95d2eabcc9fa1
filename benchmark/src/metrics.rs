//! Metric declarations, the per-run metric collector, and the statistics
//! every workload shares (medians, quartile spreads, percentiles).
//!
//! Three tiers of metrics:
//!
//! * **end to end** — what a user of the simulator sees; declared in
//!   `BENCHMARK.json` with a regression bound, emitted by every workload on
//!   an untraced run;
//! * **per layer** — one module's work, time or outcome ratio; declared in
//!   `BENCHMARK.json` without a bound, emitted by every workload on a traced
//!   run;
//! * **extra** — workload-specific detail (per network, per tenant, per
//!   frame class), written to the results files and compared by
//!   `benchmark compare`, but not printed in the result line.

use std::fmt::Write as _;

use crate::json::quote;

/// Bound on host-time end-to-end metrics: the share of the base value a
/// change may lose before `compare` calls it worse. Over ten runs on a
/// shared 2-core machine the quartile spread of these metrics stays
/// within a third of it.
pub const HOST_BOUND: f64 = 0.20;
/// Bound on the set-up time, the noisiest host metric.
pub const SETUP_BOUND: f64 = 0.25;
/// Bound on modeled (deterministic) metrics: effectively exact.
pub const MODELED_BOUND: f64 = 0.001;
/// Bound on peak resident memory (allocator arenas vary by a few %).
pub const MEMORY_BOUND: f64 = 0.15;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a number was timed on the host or computed by the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Wall-clock or memory measurement: carries noise.
    Host,
    /// Modeled cycles, energy or outcome counts: repeats exactly.
    Modeled,
}

/// The tier a metric belongs to (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Declared end-to-end metric.
    EndToEnd,
    /// Declared per-layer metric.
    PerLayer,
    /// Workload-specific detail.
    Extra,
}

impl Tier {
    fn as_str(self) -> &'static str {
        match self {
            Tier::EndToEnd => "end_to_end",
            Tier::PerLayer => "per_layer",
            Tier::Extra => "extra",
        }
    }
}

/// A declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Decl {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Host or modeled.
    pub source: Source,
    /// Regression bound (end-to-end and extra metrics only).
    pub bound: Option<f64>,
}

fn decl(
    name: &str,
    unit: &'static str,
    better: Better,
    source: Source,
    bound: Option<f64>,
) -> Decl {
    Decl {
        name: name.to_string(),
        unit,
        better,
        source,
        bound,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end() -> Vec<Decl> {
    use Better::*;
    use Source::*;
    vec![
        decl("setup_s", "s", Lower, Host, Some(SETUP_BOUND)),
        decl("host_items_per_s", "1/s", Higher, Host, Some(HOST_BOUND)),
        decl(
            "sim_cycles_per_host_s",
            "cycles/s",
            Higher,
            Host,
            Some(HOST_BOUND),
        ),
        decl(
            "modeled_cycles_per_item",
            "cycles",
            Lower,
            Modeled,
            Some(MODELED_BOUND),
        ),
        decl(
            "modeled_nj_per_item",
            "nJ",
            Lower,
            Modeled,
            Some(MODELED_BOUND),
        ),
        decl(
            "modeled_latency_p50_cycles",
            "cycles",
            Lower,
            Modeled,
            Some(MODELED_BOUND),
        ),
        decl(
            "modeled_latency_p99_cycles",
            "cycles",
            Lower,
            Modeled,
            Some(MODELED_BOUND),
        ),
        decl(
            "slo_attainment",
            "ratio",
            Higher,
            Modeled,
            Some(MODELED_BOUND),
        ),
        decl("peak_rss_mb", "MB", Lower, Host, Some(MEMORY_BOUND)),
    ]
}

/// Layer kinds the modeled per-layer metrics are split by. `load` is the
/// NBin fill phase; `norm` covers LRN and LCN.
pub const KINDS: [&str; 5] = ["load", "conv", "pool", "fc", "norm"];
/// Buffers whose traffic is reported per layer kind.
pub const BUFFERS: [&str; 4] = ["nbin", "nbout", "sb", "ib"];
/// Table 4 energy components.
pub const ENERGY: [&str; 5] = ["nfu", "nbin", "nbout", "sb", "ib"];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<Decl> {
    use Better::*;
    use Source::*;
    let mut v = vec![
        decl("sensor.us_per_region", "us", Lower, Host, None),
        decl("sensor.share", "ratio", Lower, Host, None),
        decl("core.infer_us_p50", "us", Lower, Host, None),
        decl("core.infer_us_p99", "us", Lower, Host, None),
        decl("core.share", "ratio", Lower, Host, None),
        decl("core.prepare_ms", "ms", Lower, Host, None),
        decl("core.live_decode_share", "ratio", Lower, Host, None),
        decl("pipeline.unattributed_share", "ratio", Lower, Host, None),
        decl("trace.overhead", "ratio", Higher, Host, None),
    ];
    for kind in KINDS {
        v.push(decl(
            &format!("core.{kind}.cycles"),
            "cycles",
            Lower,
            Modeled,
            None,
        ));
        for buf in BUFFERS {
            v.push(decl(
                &format!("core.{kind}.{buf}_bytes"),
                "bytes",
                Lower,
                Modeled,
                None,
            ));
        }
        if kind != "load" {
            v.push(decl(
                &format!("core.{kind}.pe_util"),
                "ratio",
                Higher,
                Modeled,
                None,
            ));
        }
    }
    for comp in ENERGY {
        v.push(decl(
            &format!("core.energy_nj.{comp}"),
            "nJ",
            Lower,
            Modeled,
            None,
        ));
    }
    for (name, better) in [
        ("video.skip_ratio", Higher),
        ("video.rows_streamed_ratio", Lower),
        ("video.compare_cycles_share", Lower),
        ("video.cycle_saving", Higher),
        ("serve.reject_ratio", Lower),
        ("serve.drop_ratio", Lower),
        ("serve.degrade_ratio", Lower),
        ("serve.batched_ratio", Higher),
    ] {
        v.push(decl(name, "ratio", better, Modeled, None));
    }
    for (name, better) in [
        ("serve.retries_per_request", Lower),
        ("serve.queue_depth_mean", Lower),
        ("faults.detected", Higher),
        ("faults.corrected", Higher),
        ("faults.silent", Lower),
    ] {
        v.push(decl(name, "count", better, Modeled, None));
    }
    v
}

/// The declared metrics of `tier` (none for extras).
pub fn declared(tier: Tier) -> Vec<Decl> {
    match tier {
        Tier::EndToEnd => end_to_end(),
        Tier::PerLayer => per_layer(),
        Tier::Extra => Vec::new(),
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Declaration (name, unit, direction, source, bound).
    pub decl: Decl,
    /// Tier.
    pub tier: Tier,
    /// Measured value.
    pub value: f64,
    /// Quartile spread of the samples the value is the median of, as a
    /// share of that median (0 for modeled metrics).
    pub spread: f64,
}

/// The metrics one workload run produced, in emission order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// An empty collector.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn push(&mut self, decl: Decl, tier: Tier, value: f64, spread: f64) {
        self.items.retain(|m| m.decl.name != decl.name);
        self.items.push(Metric {
            decl,
            tier,
            value,
            spread,
        });
    }

    fn lookup(list: Vec<Decl>, name: &str) -> Decl {
        list.into_iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
    }

    /// Records a declared end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared (a bug in the workload).
    pub fn e2e(&mut self, name: &str, value: f64, spread: f64) {
        self.push(
            Self::lookup(end_to_end(), name),
            Tier::EndToEnd,
            value,
            spread,
        );
    }

    /// Records a declared per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared (a bug in the workload).
    pub fn layer(&mut self, name: &str, value: f64) {
        self.push(Self::lookup(per_layer(), name), Tier::PerLayer, value, 0.0);
    }

    /// Records a workload-specific host metric with the host bound.
    pub fn extra_host(
        &mut self,
        name: &str,
        unit: &'static str,
        better: Better,
        value: f64,
        spread: f64,
    ) {
        let d = decl(name, unit, better, Source::Host, Some(HOST_BOUND));
        self.push(d, Tier::Extra, value, spread);
    }

    /// Records a workload-specific modeled metric with the modeled bound.
    pub fn extra_modeled(&mut self, name: &str, unit: &'static str, better: Better, value: f64) {
        let d = decl(name, unit, better, Source::Modeled, Some(MODELED_BOUND));
        self.push(d, Tier::Extra, value, 0.0);
    }

    /// All metrics, in emission order.
    pub fn all(&self) -> &[Metric] {
        &self.items
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items
            .iter()
            .find(|m| m.decl.name == name)
            .map(|m| m.value)
    }

    /// Names of declared metrics of `tier` that were not recorded, and of
    /// recorded metrics with a non-finite value or an invalid name or unit.
    pub fn problems(&self, tier: Tier) -> Vec<String> {
        let mut out: Vec<String> = declared(tier)
            .iter()
            .filter(|d| self.get(&d.name).is_none())
            .map(|d| format!("metric {} was not measured", d.name))
            .collect();
        for m in &self.items {
            if !m.value.is_finite() || !m.spread.is_finite() {
                out.push(format!(
                    "metric {} is not finite ({})",
                    m.decl.name, m.value
                ));
            }
            if !valid_name(&m.decl.name) || !valid_unit(m.decl.unit) {
                out.push(format!(
                    "metric {} has an invalid name or unit",
                    m.decl.name
                ));
            }
        }
        out
    }

    /// The result line's metric object: `{"name": {"value": v, "unit": "u"}}`
    /// over the metrics of `tier`, in declaration order.
    pub fn line_json(&self, tier: Tier) -> String {
        let order = declared(tier);
        let ordered = order.iter().filter_map(|d| {
            self.items
                .iter()
                .find(|m| m.tier == tier && m.decl.name == d.name)
        });
        let mut out = String::from("{");
        for (i, m) in ordered.enumerate() {
            if i > 0 {
                out += ", ";
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.decl.name),
                m.value,
                quote(m.decl.unit)
            );
        }
        out + "}"
    }

    /// The results-file metric object, with direction, bound, spread,
    /// source and tier for `benchmark compare`.
    pub fn results_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, m) in self.items.iter().enumerate() {
            let bound = m.decl.bound.map_or("null".to_string(), |b| b.to_string());
            let _ = writeln!(
                out,
                "    {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \
                 \"spread\": {}, \"source\": {}, \"tier\": {}}}{}",
                quote(&m.decl.name),
                m.value,
                quote(m.decl.unit),
                quote(m.decl.better.as_str()),
                bound,
                m.spread,
                quote(match m.decl.source {
                    Source::Host => "host",
                    Source::Modeled => "modeled",
                }),
                quote(m.tier.as_str()),
                if i + 1 < self.items.len() { "," } else { "" }
            );
        }
        out + "  }"
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `v` by the exclusive method (Python's
/// `statistics.quantiles(v, n=4)`). Needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range of `v` as a share of its median (0 when fewer than
/// two samples or a zero median).
pub fn spread(v: &[f64]) -> f64 {
    let med = median(v);
    match quartiles(v) {
        Some([q1, _, q3]) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `(median, spread)` of `v`.
pub fn median_spread(v: &[f64]) -> (f64, f64) {
    (median(v), spread(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let mut names = Vec::new();
        for d in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}", d.unit);
            names.push(d.name);
        }
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(n <= 16 + 128);
    }
}
