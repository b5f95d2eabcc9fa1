//! The quantized early-exit cascade experiment behind
//! `harness cascade [--smoke]`.
//!
//! Runs the two-stage sensor-side cascade from `shidiannao-quant` — a
//! 1-bit binarized front-end scoring every region tile, escalating only
//! above-threshold regions to the full-precision LeNet-5 — and writes
//! `BENCH_cascade.json`: escalation rate, cycles/energy saved against
//! the all-full-precision baseline, the accuracy delta vs the oracle
//! that runs the full network everywhere, bit-identity certificates for
//! both stages, and a per-network accuracy study of the w2/w1
//! quantization passes against the f64 golden model.
//!
//! Determinism contract matches the other harness artifacts: the report
//! is a pure function of [`CascadeConfig`], so the JSON document is
//! byte-identical across runs, machines, and rayon thread counts.
//! `run_cascade` proves it the same blunt way as the tuner — three
//! generations, one pinned to a single rayon worker, byte-compared.
//!
//! Gates (smoke, CI):
//!
//! * the binary front-end is ≥ 4× cheaper per inference (cycles) than
//!   the full-precision network,
//! * cascade end-to-end cycles **and** energy are strictly below the
//!   all-full-precision baseline,
//! * both stages replay bit-identically to the fixed-point golden
//!   reference and the XNOR kernels certify against the 16-bit kernels,
//! * the smoke escalation count is frozen (12 of 36 regions) so any
//!   drift in the synthetic scene, the quantizer, or the front-end
//!   topology is caught.

use shidiannao_cnn::zoo;
use shidiannao_core::WeightPrecision;
use shidiannao_quant::{
    accuracy_study, cascade_tenants, AccuracyRow, CascadeConfig, CascadeReport, QuantError,
};

use crate::artifact::{emit_deterministic, Artifact, Gated};
use crate::json::{comma, json_f64, json_str};

/// Frozen smoke-mode escalation: 12 of the 36 regions clear the
/// front-end threshold. Regenerate deliberately if the scene, seed, or
/// front-end topology changes.
pub const EXPECTED_SMOKE_ESCALATED: usize = 12;
/// Frozen smoke-mode region count: 4 frames × 3×3 grid.
pub const EXPECTED_SMOKE_REGIONS: usize = 36;

/// Networks in the quantization accuracy study, with input counts kept
/// small enough for CI (the forward passes run on the golden model, not
/// the cached simulator).
const STUDY_NETS: [&str; 2] = ["Gabor", "SimpleConv"];
const STUDY_INPUTS: usize = 8;
const STUDY_SEED: u64 = 2015;

/// The cascade experiment report: the quant crate's cascade outcome
/// plus the accuracy-study rows and the serve-tenant projection.
#[derive(Clone, Debug, PartialEq)]
pub struct CascadeBenchReport {
    /// Scenario label (`smoke` / `full`).
    pub scenario: &'static str,
    /// The cascade outcome.
    pub report: CascadeReport,
    /// Per-network, per-precision accuracy of the quantization pass.
    pub study: Vec<AccuracyRow>,
    /// Names of the serve tenants the cascade projects to.
    pub tenant_names: Vec<String>,
}

/// Runs the cascade scenario plus the accuracy study.
pub fn evaluate(smoke: bool) -> Result<CascadeBenchReport, QuantError> {
    let cfg = if smoke {
        CascadeConfig::smoke()
    } else {
        CascadeConfig::full()
    };
    let (tenants, report) = cascade_tenants(&cfg)?;
    let mut study = Vec::new();
    for name in STUDY_NETS {
        let net = zoo::by_name(name)
            .ok_or_else(|| QuantError::Pack {
                reason: format!("unknown study network {name}"),
            })?
            .build(cfg.net_seed)?;
        for precision in [
            WeightPrecision::W16,
            WeightPrecision::W2,
            WeightPrecision::W1,
        ] {
            study.push(accuracy_study(&net, precision, STUDY_INPUTS, STUDY_SEED)?);
        }
    }
    Ok(CascadeBenchReport {
        scenario: if smoke { "smoke" } else { "full" },
        report,
        study,
        tenant_names: tenants.into_iter().map(|t| t.name).collect(),
    })
}

impl Artifact for CascadeBenchReport {
    /// Deterministic JSON document (`BENCH_cascade.json`).
    fn to_json(&self) -> String {
        let r = &self.report;
        let mut out = String::from("{\n");
        out += &format!("  \"scenario\": {},\n", json_str(self.scenario));
        out += &format!("  \"frames\": {},\n", r.config.frames);
        out += &format!("  \"regions\": {},\n", r.regions.len());
        out += &format!("  \"escalated\": {},\n", r.escalated);
        out += &format!("  \"escalation_rate\": {},\n", json_f64(r.escalation_rate));
        out += &format!("  \"front_cycles\": {},\n", r.front_cycles);
        out += &format!("  \"full_cycles\": {},\n", r.full_cycles);
        out += &format!("  \"front_energy_nj\": {},\n", json_f64(r.front_energy_nj));
        out += &format!("  \"full_energy_nj\": {},\n", json_f64(r.full_energy_nj));
        out += &format!("  \"cascade_cycles\": {},\n", r.cascade_cycles);
        out += &format!(
            "  \"cascade_energy_nj\": {},\n",
            json_f64(r.cascade_energy_nj)
        );
        out += &format!("  \"all_full_cycles\": {},\n", r.all_full_cycles);
        out += &format!(
            "  \"all_full_energy_nj\": {},\n",
            json_f64(r.all_full_energy_nj)
        );
        out += &format!("  \"cycles_saved\": {},\n", json_f64(r.cycles_saved()));
        out += &format!("  \"energy_saved\": {},\n", json_f64(r.energy_saved()));
        out += &format!(
            "  \"front_advantage\": {},\n",
            json_f64(r.front_advantage())
        );
        out += &format!("  \"missed_positives\": {},\n", r.missed_positives);
        out += &format!("  \"accuracy_delta\": {},\n", json_f64(r.accuracy_delta));
        out += &format!("  \"front_bit_identical\": {},\n", r.front_bit_identical);
        out += &format!("  \"full_bit_identical\": {},\n", r.full_bit_identical);
        out += &format!("  \"kernel_certified\": {},\n", r.kernel_certified);
        out += &format!("  \"front_sb_bytes\": {},\n", r.front_sb_bytes);
        out += &format!(
            "  \"front_sb_bytes_baseline\": {},\n",
            r.front_sb_bytes_baseline
        );
        out += &format!(
            "  \"tenants\": [{}],\n",
            self.tenant_names
                .iter()
                .map(|n| json_str(n))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out += "  \"study\": [\n";
        for (i, row) in self.study.iter().enumerate() {
            out += &format!(
                "    {{\"net\": {}, \"precision\": {}, \"mean_abs_err\": {}, \
                 \"top1_match\": {}, \"sb_bytes\": {}, \"sb_bytes_baseline\": {}}}{}\n",
                json_str(&row.net),
                json_str(row.precision),
                json_f64(row.mean_abs_err),
                json_f64(row.top1_match),
                row.sb_bytes,
                row.sb_bytes_baseline,
                comma(i, self.study.len()),
            );
        }
        out += "  ],\n";
        out += "  \"region_outcomes\": [\n";
        for (i, reg) in self.report.regions.iter().enumerate() {
            out += &format!(
                "    {{\"frame\": {}, \"index\": {}, \"front_score_bits\": {}, \
                 \"escalated\": {}, \"oracle_positive\": {}}}{}\n",
                reg.frame,
                reg.index,
                reg.front_score.to_bits(),
                reg.escalated(),
                reg.oracle_positive,
                comma(i, self.report.regions.len()),
            );
        }
        out += "  ]\n}\n";
        out
    }

    /// Human-readable summary for harness stdout.
    fn render(&self) -> String {
        let r = &self.report;
        let mut out = format!(
            "two-stage cascade ({}): {} regions over {} frames\n",
            self.scenario,
            r.regions.len(),
            r.config.frames
        );
        out += &format!(
            "  front (w1, XNOR-certified): {:>6} cycles {:>9.1} nJ per inference\n",
            r.front_cycles, r.front_energy_nj
        );
        out += &format!(
            "  full  (LeNet-5, 16-bit):    {:>6} cycles {:>9.1} nJ per inference\n",
            r.full_cycles, r.full_energy_nj
        );
        out += &format!(
            "  escalated {}/{} ({:.1}%), front advantage {:.1}x\n",
            r.escalated,
            r.regions.len(),
            100.0 * r.escalation_rate,
            r.front_advantage()
        );
        out += &format!(
            "  cascade {} cycles {:.1} nJ vs all-full {} cycles {:.1} nJ\n",
            r.cascade_cycles, r.cascade_energy_nj, r.all_full_cycles, r.all_full_energy_nj
        );
        out += &format!(
            "  saved: {:.1}% cycles, {:.1}% energy; missed positives {}/{} \
             (accuracy delta {:.3})\n",
            100.0 * r.cycles_saved(),
            100.0 * r.energy_saved(),
            r.missed_positives,
            r.regions.len(),
            r.accuracy_delta
        );
        out += &format!(
            "  front SB: {} bytes packed vs {} bytes at 16 bits\n",
            r.front_sb_bytes, r.front_sb_bytes_baseline
        );
        out += "\nquantization accuracy vs f64 golden model:\n";
        out += "  network      precision  mean |err|  top-1 match  SB bytes\n";
        for row in &self.study {
            out += &format!(
                "  {:<12} {:<10} {:>9.4} {:>11.2} {:>9}\n",
                row.net, row.precision, row.mean_abs_err, row.top1_match, row.sb_bytes
            );
        }
        out
    }

    /// Gate violations under the harness's unified exit-code policy.
    fn gate_errors(&self) -> Vec<String> {
        let r = &self.report;
        let mut errors = Vec::new();
        if r.front_advantage() < 4.0 {
            errors.push(format!(
                "front-end advantage {:.2}x below the 4x floor ({} vs {} cycles)",
                r.front_advantage(),
                r.front_cycles,
                r.full_cycles
            ));
        }
        if r.cascade_cycles >= r.all_full_cycles {
            errors.push(format!(
                "cascade cycles {} not below all-full-precision {}",
                r.cascade_cycles, r.all_full_cycles
            ));
        }
        if r.cascade_energy_nj >= r.all_full_energy_nj {
            errors.push(format!(
                "cascade energy {:.1} nJ not below all-full-precision {:.1} nJ",
                r.cascade_energy_nj, r.all_full_energy_nj
            ));
        }
        if !r.front_bit_identical {
            errors.push("front stage diverged from the fixed-point golden reference".to_string());
        }
        if !r.full_bit_identical {
            errors.push("full stage diverged from the fixed-point golden reference".to_string());
        }
        if !r.kernel_certified {
            errors.push("XNOR kernels failed bit-identity certification".to_string());
        }
        if self.scenario == "smoke" {
            if r.regions.len() != EXPECTED_SMOKE_REGIONS {
                errors.push(format!(
                    "smoke region count {} != frozen {EXPECTED_SMOKE_REGIONS}",
                    r.regions.len()
                ));
            }
            if r.escalated != EXPECTED_SMOKE_ESCALATED {
                errors.push(format!(
                    "smoke escalation count {} != frozen {EXPECTED_SMOKE_ESCALATED}",
                    r.escalated
                ));
            }
        }
        for row in &self.study {
            // w16's only divergence from the f64 golden model is Q7.8
            // rounding; argmax can flip on near-ties, so the gate sits
            // on mean error. Measured: w16 ≤ 0.007, w1 ≤ 0.040.
            let cap = if row.precision == "w16" { 0.02 } else { 0.1 };
            if row.mean_abs_err >= cap {
                errors.push(format!(
                    "{} at {} drifted {:.4} mean |err| from the f64 golden model (cap {cap})",
                    row.net, row.precision, row.mean_abs_err
                ));
            }
        }
        errors
    }
}

/// `harness cascade [--smoke]`: the cascade through
/// [`emit_deterministic`] (three byte-compared evaluations, then
/// `BENCH_cascade.json`).
pub fn run_cascade(smoke: bool) -> Gated {
    emit_deterministic("BENCH_cascade.json", "cascade", || evaluate(smoke))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cascade_passes_its_frozen_gate() {
        let report = evaluate(true).unwrap();
        let errors = report.gate_errors();
        assert!(errors.is_empty(), "gate failed: {errors:?}");
        assert_eq!(report.report.regions.len(), EXPECTED_SMOKE_REGIONS);
        assert_eq!(report.report.escalated, EXPECTED_SMOKE_ESCALATED);
        assert_eq!(
            report.tenant_names,
            vec!["cascade-front".to_string(), "cascade-escalate".to_string()]
        );
    }

    #[test]
    fn smoke_json_is_byte_deterministic() {
        let a = evaluate(true).unwrap().to_json();
        let b = evaluate(true).unwrap().to_json();
        assert_eq!(a, b);
        for key in [
            "\"scenario\"",
            "\"escalation_rate\"",
            "\"front_advantage\"",
            "\"cycles_saved\"",
            "\"kernel_certified\"",
            "\"study\"",
            "\"region_outcomes\"",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
    }

    #[test]
    fn study_covers_every_net_at_every_precision() {
        let report = evaluate(true).unwrap();
        assert_eq!(report.study.len(), STUDY_NETS.len() * 3);
        // Narrower weights can only shrink the packed footprint.
        for rows in report.study.chunks(3) {
            assert!(rows[0].sb_bytes >= rows[1].sb_bytes);
            assert!(rows[1].sb_bytes > rows[2].sb_bytes);
            assert_eq!(rows[0].precision, "w16");
            assert_eq!(rows[2].precision, "w1");
        }
    }
}
