//! The fault-injection campaign: fault rate × SRAM protection across the
//! benchmark zoo, plus a graceful-degradation streaming measurement.
//!
//! Every fault outcome here is a pure function of the sweep seed — no
//! wall clock, no OS randomness — so `BENCH_faults.json` is
//! byte-identical across invocations and worker counts; `harness
//! faults` writes it through [`emit_deterministic`], which evaluates the
//! campaign three times (once pinned to one rayon worker) and
//! byte-compares the documents.
//!
//! Each sweep cell runs its trials twice: once through sessions
//! replaying the precompiled micro-op schedule (the default — silent
//! faults resolve through the per-layer overlay, detected faults abort
//! via live decode of the aborting layer) and once with replay disabled
//! (live HFSM decode, per-access fault filtering). The cell certifies
//! that both paths agreed on every trial's outcome: output bits, fault
//! counters, and — for aborted trials — the cycle count charged to the
//! wasted attempt.
//!
//! The SRAM sweep isolates memory faults (`pe_stuck_rate` and
//! `scanline_rate` are zero) so each cell measures exactly what the
//! protection code can and cannot do: under no protection every flip is
//! silent, parity detects single-bit flips but passes double-bit upsets
//! silently, and SECDED corrects single-bit flips and detects double-bit
//! ones — so **SDC under SECDED is structurally zero**, which the smoke
//! sweep (and CI) asserts. Datapath and sensor-link faults, which no SRAM
//! code can absorb, are exercised by the degradation rows instead.

use crate::artifact::{emit_deterministic, Artifact, Gated};
use crate::geomean;
use crate::json::{comma, json_f64};
use shidiannao_cnn::{zoo, Network};
use shidiannao_core::area::{area_of, area_with_protection};
use shidiannao_core::energy::EnergyModel;
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, FaultStats, PreparedNetwork, RunError,
    SramProtection,
};
use shidiannao_fixed::Fx;
use shidiannao_sensor::{FaultySensor, FrameSource, RegionGrid, SyntheticSensor};
use std::convert::Infallible;

/// The campaign's base seed; every fault pattern derives from it.
pub const SWEEP_SEED: u64 = 0xFA17;

/// One (network, protection, rate) cell of the SRAM fault sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultCell {
    /// Benchmark network name.
    pub network: String,
    /// Protection code in force.
    pub protection: SramProtection,
    /// Per-word flip rate applied to NBin/NBout, SB, and IB reads.
    pub rate: f64,
    /// Independent seeded trials.
    pub trials: u32,
    /// Trials that completed bit-identical to the golden model.
    pub clean: u32,
    /// Trials that completed with a diverged output (silent data
    /// corruption).
    pub sdc: u32,
    /// Trials aborted by a detected uncorrectable error.
    pub detected: u32,
    /// Fault events corrected by SECDED across all trials.
    pub corrected_events: u64,
    /// Fault events that silently flipped data across all trials.
    pub silent_events: u64,
    /// Mean absolute output divergence of the SDC trials (golden-model
    /// units), 0 when no trial diverged.
    pub divergence: f64,
    /// Whether every trial's outcome — output bits, fault counters, and
    /// abort cycle counts — agreed between the replayed and live runs.
    pub paths_agree: bool,
}

impl FaultCell {
    /// Fraction of trials ending in silent data corruption.
    pub fn sdc_rate(&self) -> f64 {
        self.sdc as f64 / self.trials.max(1) as f64
    }

    /// Fraction of trials ending in a detected abort.
    pub fn detection_rate(&self) -> f64 {
        self.detected as f64 / self.trials.max(1) as f64
    }
}

/// Energy and area cost of one protection level (paper config, geomean
/// over the swept networks for energy).
#[derive(Clone, Debug, PartialEq)]
pub struct ProtectionOverhead {
    /// Protection code.
    pub protection: SramProtection,
    /// Whole-run energy multiplier vs. unprotected SRAMs.
    pub energy_overhead: f64,
    /// Total die-area multiplier vs. unprotected SRAMs.
    pub area_overhead: f64,
}

/// One graceful-degradation streaming measurement: a faulty sensor feeds
/// a frame through a fault-injecting session with retry-then-skip.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradationRow {
    /// Benchmark network name.
    pub network: String,
    /// Protection code.
    pub protection: SramProtection,
    /// Uniform fault rate (SRAM, PE, and scanline sites all active).
    pub rate: f64,
    /// Regions in the frame.
    pub regions: usize,
    /// Regions completing on the first attempt.
    pub ok: usize,
    /// Regions completing after retries.
    pub degraded: usize,
    /// Regions dropped (fault-exhausted or over budget).
    pub dropped: usize,
    /// Scanlines the sensor link dropped.
    pub dropped_rows: u64,
    /// Scanlines the sensor link corrupted.
    pub corrupted_rows: u64,
    /// Cycles spent, failed attempts included.
    pub cycles: u64,
}

impl DegradationRow {
    /// Fraction of regions that produced an output.
    pub fn coverage(&self) -> f64 {
        (self.ok + self.degraded) as f64 / self.regions.max(1) as f64
    }
}

/// The whole campaign: sweep cells, protection overheads, and
/// degradation rows.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultReport {
    /// Base seed of every fault pattern.
    pub seed: u64,
    /// The SRAM sweep.
    pub cells: Vec<FaultCell>,
    /// Energy/area cost per protection level.
    pub overheads: Vec<ProtectionOverhead>,
    /// Graceful-degradation streaming rows.
    pub degradation: Vec<DegradationRow>,
}

/// Per-cell trial count, degradation retry bound, and sizes of the two
/// sweep variants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepConfig {
    trials: u32,
    rates: &'static [f64],
    nets: usize,
}

const FULL_RATES: [f64; 4] = [0.0, 1e-5, 1e-4, 1e-3];
const SMOKE_RATES: [f64; 2] = [0.0, 1e-3];
const MAX_RETRIES: u32 = 2;

fn sweep_networks(count: usize) -> Vec<Network> {
    [zoo::gabor(), zoo::simple_conv(), zoo::lenet5()]
        .into_iter()
        .take(count)
        .map(|b| b.build(2015).expect("zoo topologies are valid"))
        .collect()
}

/// The CI-sized campaign: one network, two rates, every protection.
pub fn smoke() -> FaultReport {
    run_sweep(SweepConfig {
        trials: 2,
        rates: &SMOKE_RATES,
        nets: 1,
    })
}

/// The full campaign: three zoo networks, four rates, every protection,
/// several trials per cell.
pub fn full() -> FaultReport {
    run_sweep(SweepConfig {
        trials: 3,
        rates: &FULL_RATES,
        nets: 3,
    })
}

fn run_sweep(cfg: SweepConfig) -> FaultReport {
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let networks = sweep_networks(cfg.nets);
    let mut cells = Vec::new();
    let mut energy_base = Vec::new();
    for (ni, net) in networks.iter().enumerate() {
        let prepared = accel
            .prepare(net)
            .expect("zoo networks fit the paper config");
        let input = net.random_input(SWEEP_SEED ^ 0xABCD);
        let golden = net.forward_fixed(&input).output();
        let clean_run = prepared
            .session()
            .run(&input)
            .expect("matching input shape");
        energy_base.push(clean_run.energy().total_nj());
        for (pi, &protection) in SramProtection::ALL.iter().enumerate() {
            for (ri, &rate) in cfg.rates.iter().enumerate() {
                cells.push(run_cell(CellInputs {
                    prepared: &prepared,
                    input: &input,
                    golden: &golden,
                    name: net.name().to_string(),
                    protection,
                    rate,
                    trials: cfg.trials,
                    salt_base: ((ni as u64) << 48) | ((pi as u64) << 40) | ((ri as u64) << 32),
                }));
            }
        }
    }
    let overheads = SramProtection::ALL
        .iter()
        .map(|&p| protection_overhead(p, &networks, &accel, &energy_base))
        .collect();
    let max_rate = cfg.rates.iter().copied().fold(0.0f64, f64::max);
    let mut degradation = Vec::new();
    for net in networks.iter().take(1) {
        for &p in &SramProtection::ALL {
            degradation.push(degradation_row(&accel, net, p, max_rate));
        }
    }
    FaultReport {
        seed: SWEEP_SEED,
        cells,
        overheads,
        degradation,
    }
}

struct CellInputs<'a> {
    prepared: &'a PreparedNetwork,
    input: &'a shidiannao_tensor::MapStack<shidiannao_fixed::Fx>,
    golden: &'a [shidiannao_fixed::Fx],
    name: String,
    protection: SramProtection,
    rate: f64,
    trials: u32,
    salt_base: u64,
}

/// What one seeded trial produced — kept from the replay pass so the
/// live pass can certify it reproduced the exact same outcome.
enum TrialOutcome {
    /// Run completed: final output bits and fault counters.
    Done(Vec<Fx>, FaultStats),
    /// Run aborted on a detected fault: cycles charged to the wasted
    /// attempt and fault counters at the abort.
    Aborted(u64, FaultStats),
}

fn run_cell(c: CellInputs<'_>) -> FaultCell {
    let cfg = FaultConfig {
        seed: SWEEP_SEED,
        nb_flip_rate: c.rate,
        sb_flip_rate: c.rate,
        ib_flip_rate: c.rate,
        pe_stuck_rate: 0.0,
        scanline_rate: 0.0,
        double_flip_share: 0.1,
        protection: c.protection,
    };
    let base_plan = FaultPlan::new(cfg);
    let mut cell = FaultCell {
        network: c.name,
        protection: c.protection,
        rate: c.rate,
        trials: c.trials,
        clean: 0,
        sdc: 0,
        detected: 0,
        corrected_events: 0,
        silent_events: 0,
        divergence: 0.0,
        paths_agree: true,
    };
    let mut divergences = Vec::new();
    let mut outcomes = Vec::with_capacity(c.trials as usize);

    // Replay pass: sessions default to schedule replay; the fault plan
    // resolves into per-layer overlays once per salt.
    let mut session = c.prepared.session_with_faults(base_plan);
    for trial in 0..c.trials {
        session.set_fault_plan(base_plan.with_salt(c.salt_base | trial as u64));
        match session.run(c.input) {
            Ok(run) => {
                let stats = run.fault_stats();
                cell.corrected_events += stats.corrected;
                cell.silent_events += stats.silent;
                let out = run.output();
                if out == c.golden {
                    cell.clean += 1;
                } else {
                    cell.sdc += 1;
                    let err: f64 = out
                        .iter()
                        .zip(c.golden)
                        .map(|(a, b)| (a.to_f32() - b.to_f32()).abs() as f64)
                        .sum();
                    divergences.push(err / c.golden.len().max(1) as f64);
                }
                outcomes.push(TrialOutcome::Done(out, *run.fault_stats()));
            }
            Err(RunError::FaultDetected(_)) => {
                cell.detected += 1;
                outcomes.push(TrialOutcome::Aborted(
                    session.last_cycles(),
                    *session.fault_stats(),
                ));
            }
            Err(e) => unreachable!("non-fault failure in the sweep: {e}"),
        }
    }

    // Live pass: the same trials through live HFSM decode must land on
    // the exact same outcomes.
    let mut live = c.prepared.session_with_faults(base_plan);
    live.set_schedule_replay(false);
    for (trial, expected) in outcomes.iter().enumerate() {
        live.set_fault_plan(base_plan.with_salt(c.salt_base | trial as u64));
        match (live.run(c.input), expected) {
            (Ok(run), TrialOutcome::Done(out, stats)) => {
                cell.paths_agree &= run.output() == *out && run.fault_stats() == stats;
            }
            (Err(RunError::FaultDetected(_)), TrialOutcome::Aborted(cycles, stats)) => {
                cell.paths_agree &= live.last_cycles() == *cycles && live.fault_stats() == stats;
            }
            (Ok(_), TrialOutcome::Aborted(..))
            | (Err(RunError::FaultDetected(_)), TrialOutcome::Done(..)) => {
                cell.paths_agree = false;
            }
            (Err(e), _) => unreachable!("non-fault failure in the sweep: {e}"),
        }
    }

    if !divergences.is_empty() {
        cell.divergence = divergences.iter().sum::<f64>() / divergences.len() as f64;
    }
    cell
}

fn protection_overhead(
    protection: SramProtection,
    networks: &[Network],
    accel: &Accelerator,
    energy_base: &[f64],
) -> ProtectionOverhead {
    let model = EnergyModel::paper_65nm().with_sram_protection(protection);
    let ratios: Vec<f64> = networks
        .iter()
        .zip(energy_base)
        .map(|(net, &base)| {
            let prepared = accel.prepare(net).expect("fits");
            let run = prepared
                .session()
                .run(&net.random_input(SWEEP_SEED ^ 0xABCD))
                .expect("matching input shape");
            model.charge_run(run.stats()).total_nj() / base
        })
        .collect();
    let cfg = AcceleratorConfig::paper();
    ProtectionOverhead {
        protection,
        energy_overhead: geomean(&ratios),
        area_overhead: area_with_protection(&cfg, protection).total_mm2()
            / area_of(&cfg).total_mm2(),
    }
}

/// One frame of faulty streaming with retry-then-skip, mirroring
/// `StreamingPipeline::process_frame_degraded` (which lives above this
/// crate in the dependency graph): the sensor link injects scanline
/// faults, the session injects SRAM/PE faults, detected errors retry up
/// to [`MAX_RETRIES`] times with a fresh salt, then drop the region.
fn degradation_row(
    accel: &Accelerator,
    net: &Network,
    protection: SramProtection,
    rate: f64,
) -> DegradationRow {
    let (fw, fh) = (36, 28);
    let dims = net.input_dims();
    let grid = RegionGrid::new((fw, fh), dims, (fw - dims.0, fh - dims.1));
    // Sensor links fail per scanline (a missed HSYNC, a serial burst),
    // so the row rate sits orders of magnitude above the per-word SRAM
    // rate; scale it so a frame-sized measurement actually exercises the
    // dropped/corrupted-row paths.
    let plan = FaultPlan::new(FaultConfig {
        double_flip_share: 0.1,
        scanline_rate: (rate * 100.0).clamp(0.0, 0.5),
        ..FaultConfig::uniform(SWEEP_SEED, rate, protection)
    });
    let mut cam = FaultySensor::new(SyntheticSensor::new(fw, fh, 3), plan);
    let frame = cam.next_frame();
    let prepared = accel.prepare(net).expect("fits the paper config");
    let mut session = prepared.session_with_faults(plan);
    let mut row = DegradationRow {
        network: net.name().to_string(),
        protection,
        rate,
        regions: grid.count(),
        ok: 0,
        degraded: 0,
        dropped: 0,
        dropped_rows: 0,
        corrupted_rows: 0,
        cycles: 0,
    };
    let stream = grid
        .try_stream(&frame, net.input_maps())
        .expect("frame matches the grid by construction");
    for (ri, region) in stream.enumerate() {
        let mut done = false;
        for attempt in 0..=MAX_RETRIES {
            let salt = ((ri as u64) << 8) ^ attempt as u64;
            session.set_fault_plan(plan.with_salt(salt));
            match session.infer(&region) {
                Ok(run) => {
                    row.cycles += run.stats().cycles();
                    if attempt == 0 {
                        row.ok += 1;
                    } else {
                        row.degraded += 1;
                    }
                    done = true;
                    break;
                }
                Err(RunError::FaultDetected(_)) => row.cycles += session.last_cycles(),
                Err(e) => unreachable!("non-fault failure in degradation: {e}"),
            }
        }
        if !done {
            row.dropped += 1;
        }
    }
    row.dropped_rows = cam.dropped_rows();
    row.corrupted_rows = cam.corrupted_rows();
    row
}

impl FaultReport {
    /// SDC trials observed under SECDED across the whole sweep — the
    /// protection guarantee CI asserts to be zero.
    pub fn sdc_under_secded(&self) -> u32 {
        self.cells
            .iter()
            .filter(|c| c.protection == SramProtection::Secded)
            .map(|c| c.sdc)
            .sum()
    }

    /// Zero-rate cells must all be clean — the transparency guarantee.
    pub fn zero_rate_all_clean(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.rate == 0.0)
            .all(|c| c.clean == c.trials && c.sdc == 0 && c.detected == 0)
    }

    /// Every cell's replayed and live-decoded trials must have produced
    /// identical outcomes — the schedule-replay equivalence guarantee CI
    /// asserts alongside the protection gates.
    pub fn all_paths_agree(&self) -> bool {
        self.cells.iter().all(|c| c.paths_agree)
    }
}

impl Artifact for FaultReport {
    /// Machine-readable JSON (hand-rolled, deterministic).
    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out += &format!("  \"seed\": {},\n", self.seed);
        out += "  \"cells\": [\n";
        for (i, c) in self.cells.iter().enumerate() {
            out += &format!(
                "    {{\"network\": \"{}\", \"protection\": \"{}\", \"rate\": {}, \
                 \"trials\": {}, \"clean\": {}, \"sdc\": {}, \"detected\": {}, \
                 \"sdc_rate\": {}, \"detection_rate\": {}, \"corrected_events\": {}, \
                 \"silent_events\": {}, \"divergence\": {}, \"paths_agree\": {}}}{}\n",
                c.network,
                c.protection.label(),
                json_f64(c.rate),
                c.trials,
                c.clean,
                c.sdc,
                c.detected,
                json_f64(c.sdc_rate()),
                json_f64(c.detection_rate()),
                c.corrected_events,
                c.silent_events,
                json_f64(c.divergence),
                c.paths_agree,
                comma(i, self.cells.len()),
            );
        }
        out += "  ],\n";
        out += "  \"overheads\": [\n";
        for (i, o) in self.overheads.iter().enumerate() {
            out += &format!(
                "    {{\"protection\": \"{}\", \"energy_overhead\": {}, \
                 \"area_overhead\": {}}}{}\n",
                o.protection.label(),
                json_f64(o.energy_overhead),
                json_f64(o.area_overhead),
                comma(i, self.overheads.len()),
            );
        }
        out += "  ],\n";
        out += "  \"degradation\": [\n";
        for (i, d) in self.degradation.iter().enumerate() {
            out += &format!(
                "    {{\"network\": \"{}\", \"protection\": \"{}\", \"rate\": {}, \
                 \"regions\": {}, \"ok\": {}, \"degraded\": {}, \"dropped\": {}, \
                 \"coverage\": {}, \"dropped_rows\": {}, \"corrupted_rows\": {}, \
                 \"cycles\": {}}}{}\n",
                d.network,
                d.protection.label(),
                json_f64(d.rate),
                d.regions,
                d.ok,
                d.degraded,
                d.dropped,
                json_f64(d.coverage()),
                d.dropped_rows,
                d.corrupted_rows,
                d.cycles,
                comma(i, self.degradation.len()),
            );
        }
        out += "  ],\n";
        out += &format!(
            "  \"sdc_under_secded\": {},\n  \"zero_rate_all_clean\": {},\n  \
             \"all_paths_agree\": {}\n}}\n",
            self.sdc_under_secded(),
            self.zero_rate_all_clean(),
            self.all_paths_agree(),
        );
        out
    }

    /// Human-readable summary table.
    fn render(&self) -> String {
        let mut out = String::from(
            "Fault campaign (rate x protection, SRAM sites only; replay vs live decode)\n\
             network      protection  rate      clean  sdc  detected  corrected  silent  agree\n",
        );
        for c in &self.cells {
            out += &format!(
                "{:<12} {:<11} {:<9.0e} {:>5} {:>4} {:>9} {:>10} {:>7}  {}\n",
                c.network,
                c.protection.label(),
                c.rate,
                c.clean,
                c.sdc,
                c.detected,
                c.corrected_events,
                c.silent_events,
                if c.paths_agree { "yes" } else { "NO" },
            );
        }
        out += "\nProtection overheads (vs. unprotected)\n";
        for o in &self.overheads {
            out += &format!(
                "{:<11} energy x{:.3}  area x{:.3}\n",
                o.protection.label(),
                o.energy_overhead,
                o.area_overhead
            );
        }
        out += "\nGraceful degradation (faulty sensor + faulty SRAM/PEs)\n";
        for d in &self.degradation {
            out += &format!(
                "{:<12} {:<11} rate {:<9.0e} regions {:>3}: {} ok, {} degraded, {} dropped \
                 (coverage {:.2}), {} rows dropped, {} corrupted\n",
                d.network,
                d.protection.label(),
                d.rate,
                d.regions,
                d.ok,
                d.degraded,
                d.dropped,
                d.coverage(),
                d.dropped_rows,
                d.corrupted_rows,
            );
        }
        out
    }

    /// The CI gate: no SDC under SECDED, zero-rate cells clean, and
    /// replay agreeing with live decode in every cell.
    fn gate_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if self.sdc_under_secded() != 0 {
            errors.push("SECDED let silent data corruption through".to_string());
        }
        if !self.zero_rate_all_clean() {
            errors.push("a zero-rate run diverged from the golden model".to_string());
        }
        if !self.all_paths_agree() {
            errors.push("schedule replay diverged from live decode in a fault cell".to_string());
        }
        errors
    }
}

/// `harness faults [--smoke]`: the campaign through
/// [`emit_deterministic`] (three byte-compared evaluations, then
/// `BENCH_faults.json`).
pub fn run_faults(smoke: bool) -> Gated {
    emit_deterministic("BENCH_faults.json", "faults", || {
        Ok::<_, Infallible>(if smoke { self::smoke() } else { full() })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_meets_the_protection_guarantees() {
        let r = smoke();
        // 1 network x 3 protections x 2 rates.
        assert_eq!(r.cells.len(), 6);
        assert_eq!(r.sdc_under_secded(), 0);
        assert!(r.zero_rate_all_clean());
        assert!(r.all_paths_agree());
        // The nonzero-rate unprotected cell must show silent corruption.
        let none = r
            .cells
            .iter()
            .find(|c| c.protection == SramProtection::None && c.rate > 0.0)
            .unwrap();
        assert!(none.sdc > 0, "{none:?}");
        assert!(none.divergence > 0.0);
        assert_eq!(r.degradation.len(), 3);
        for d in &r.degradation {
            assert_eq!(d.ok + d.degraded + d.dropped, d.regions);
        }
    }

    #[test]
    fn smoke_sweep_is_byte_reproducible() {
        let (a, b) = (smoke().to_json(), smoke().to_json());
        assert_eq!(a, b);
        assert!(a.contains("\"paths_agree\": true"));
        assert!(a.contains("\"divergence\""));
    }

    #[test]
    fn overheads_are_ordered_none_parity_secded() {
        let r = smoke();
        let by = |p: SramProtection| {
            r.overheads
                .iter()
                .find(|o| o.protection == p)
                .unwrap()
                .clone()
        };
        let (n, p, s) = (
            by(SramProtection::None),
            by(SramProtection::Parity),
            by(SramProtection::Secded),
        );
        assert_eq!(n.energy_overhead, 1.0);
        assert_eq!(n.area_overhead, 1.0);
        assert!(p.energy_overhead > 1.0 && p.energy_overhead < s.energy_overhead);
        assert!(p.area_overhead > 1.0 && p.area_overhead < s.area_overhead);
    }
}
