//! The sensor-side early-exit cascade.
//!
//! This is the deployment the precision axis exists for: a tiny
//! **binarized** front-end network sits next to the sensor and scores
//! every region tile of every frame; only regions whose score clears
//! the escalation threshold are forwarded to the full-precision
//! network. Most of a surveillance-style scene is boring, so most
//! regions stop at the 1-bit stage — the cascade's cycles and energy
//! are `regions·front + escalated·full` against the all-full-precision
//! baseline's `regions·full`.
//!
//! Both stages run on the real simulator (`prepare()` + schedule
//! replay) and both carry bit-identity certificates against the
//! fixed-point golden reference; the front-end additionally charges the
//! W1 energy/area scaling its XNOR datapath earns (see `kernel` for why
//! that is sound). Accuracy is measured against the oracle that runs
//! the full-precision network on *every* region: a miss is an
//! oracle-positive region the front-end declined to escalate.
//!
//! Everything is a pure function of [`CascadeConfig`] — same seed, same
//! outcome set, same report, on any physical thread count (rayon only
//! parallelises the independent per-region inferences).

use std::sync::Arc;

use rayon::prelude::*;
use shidiannao_cnn::{zoo, ConvSpec, FcSpec, Network, NetworkBuilder, PoolSpec};
use shidiannao_core::{Accelerator, AcceleratorConfig, WeightPrecision};
use shidiannao_fixed::Fx;
use shidiannao_sensor::{FrameSource, RegionGrid, SyntheticSensor};
use shidiannao_serve::{binarize_pixel, InputSource, TenantSpec, Traffic};
use shidiannao_tensor::MapStack;

use crate::kernel::certify_xnor;
use crate::quantize::{quantize_network, QuantizedNetwork};
use crate::QuantError;

/// The two-stage cascade scenario: what the sensor sees, how it is
/// tiled, and where the thresholds sit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CascadeConfig {
    /// Sensor seed (drives the synthetic scene).
    pub seed: u64,
    /// Network weight seed (both stages).
    pub net_seed: u64,
    /// Frames to process.
    pub frames: usize,
    /// Sensor frame dimensions.
    pub frame: (usize, usize),
    /// Region tile dimensions (both networks' input size).
    pub region: (usize, usize),
    /// Region tiling stride.
    pub stride: (usize, usize),
    /// Front-end escalation threshold: escalate iff `score ≥ threshold`.
    pub threshold: Fx,
    /// Full-precision decision threshold: a region is *positive* iff
    /// the full network's max output is `≥ decision`.
    pub decision: Fx,
}

impl CascadeConfig {
    /// The CI smoke scenario: 4 frames of 64×64, 3×3 regions each.
    pub fn smoke() -> CascadeConfig {
        CascadeConfig {
            seed: 2015,
            net_seed: 42,
            frames: 4,
            frame: (64, 64),
            region: (32, 32),
            stride: (16, 16),
            // Chosen against the smoke scene's score distributions:
            // front scores span −0.04..0.45 (escalating the top third),
            // full-stage maxima cluster at 0.035..0.047.
            threshold: Fx::from_f32(0.25),
            decision: Fx::from_bits(12),
        }
    }

    /// The full scenario: 16 frames of 96×96, 5×5 regions each.
    pub fn full() -> CascadeConfig {
        CascadeConfig {
            frames: 16,
            frame: (96, 96),
            ..CascadeConfig::smoke()
        }
    }

    /// The region grid this config tiles frames with.
    pub fn grid(&self) -> RegionGrid {
        RegionGrid::new(self.frame, self.region, self.stride)
    }

    /// Regions per frame.
    pub fn regions_per_frame(&self) -> usize {
        self.grid().count()
    }
}

/// The front-end topology before binarization: one conv stage, one
/// pool, one score neuron — deliberately tiny, 32×32 input to match the
/// full-precision network's region size.
pub fn front_end() -> NetworkBuilder {
    NetworkBuilder::new("BinaryFront", 1, (32, 32))
        .conv(ConvSpec::new(4, (5, 5)).with_stride((2, 2)))
        .pool(PoolSpec::max((2, 2)))
        .fc(FcSpec::new(1))
}

/// Builds and binarizes the front-end (`W1`, per-group scales).
pub fn binary_front(net_seed: u64) -> Result<QuantizedNetwork, QuantError> {
    let net = front_end().build(net_seed)?;
    quantize_network(&net, WeightPrecision::W1)
}

/// The full-precision second stage: LeNet-5, whose 32×32 input is
/// exactly one region tile.
pub fn full_stage(net_seed: u64) -> Result<Network, QuantError> {
    Ok(zoo::lenet5().build(net_seed)?)
}

/// What happened to one region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CascadeOutcome {
    /// The front-end score stayed below the threshold; the region never
    /// reached the full-precision network.
    Rejected,
    /// The region escalated; `positive` is the full network's verdict.
    Escalated {
        /// Full-precision decision for the region.
        positive: bool,
    },
}

/// One region's record in the cascade run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionOutcome {
    /// Frame index.
    pub frame: u64,
    /// Region index within the frame (row-major grid order).
    pub index: usize,
    /// Region origin in frame pixels.
    pub origin: (usize, usize),
    /// The front-end's score (its single output neuron).
    pub front_score: Fx,
    /// Rejected or escalated (+ full-precision verdict).
    pub outcome: CascadeOutcome,
    /// The oracle's verdict: full-precision network on this region,
    /// regardless of what the cascade did.
    pub oracle_positive: bool,
}

impl RegionOutcome {
    /// `true` if the region escalated to the full-precision stage.
    pub fn escalated(&self) -> bool {
        matches!(self.outcome, CascadeOutcome::Escalated { .. })
    }
}

/// The complete, deterministic result of a cascade run.
#[derive(Clone, Debug, PartialEq)]
pub struct CascadeReport {
    /// The scenario that produced this report.
    pub config: CascadeConfig,
    /// Every region, frame-major then grid order.
    pub regions: Vec<RegionOutcome>,
    /// Regions that escalated.
    pub escalated: usize,
    /// `escalated / regions`.
    pub escalation_rate: f64,
    /// Cycles per front-end inference (data-independent).
    pub front_cycles: u64,
    /// Cycles per full-precision inference (data-independent).
    pub full_cycles: u64,
    /// Energy per front-end inference at the W1 precision scaling, nJ.
    pub front_energy_nj: f64,
    /// Energy per full-precision inference, nJ.
    pub full_energy_nj: f64,
    /// Total cascade cycles: `regions·front + escalated·full`.
    pub cascade_cycles: u64,
    /// Total cascade energy, nJ.
    pub cascade_energy_nj: f64,
    /// Baseline cycles: every region through the full network.
    pub all_full_cycles: u64,
    /// Baseline energy, nJ.
    pub all_full_energy_nj: f64,
    /// Oracle-positive regions the front-end declined to escalate.
    pub missed_positives: usize,
    /// `missed_positives / regions` — the cascade's accuracy delta vs
    /// running the full network everywhere.
    pub accuracy_delta: f64,
    /// Front-end simulator output == fixed-point golden, every region.
    pub front_bit_identical: bool,
    /// Full-stage simulator output == fixed-point golden, every
    /// escalated region.
    pub full_bit_identical: bool,
    /// XNOR kernels certified bit-identical to the 16-bit kernels on
    /// every packed group's magnitudes.
    pub kernel_certified: bool,
    /// Front-end synaptic SB bytes, 1-bit packed.
    pub front_sb_bytes: usize,
    /// The same weights at 16 bits.
    pub front_sb_bytes_baseline: usize,
}

impl CascadeReport {
    /// Fraction of baseline cycles the cascade saved.
    pub fn cycles_saved(&self) -> f64 {
        1.0 - self.cascade_cycles as f64 / self.all_full_cycles as f64
    }

    /// Fraction of baseline energy the cascade saved.
    pub fn energy_saved(&self) -> f64 {
        1.0 - self.cascade_energy_nj / self.all_full_energy_nj
    }

    /// How many times cheaper (in cycles) one front-end inference is
    /// than one full-precision inference.
    pub fn front_advantage(&self) -> f64 {
        self.full_cycles as f64 / self.front_cycles as f64
    }
}

/// Runs the two-stage cascade. Pure in `cfg`: byte-identical reports on
/// every run and every rayon thread count.
pub fn run_cascade(cfg: &CascadeConfig) -> Result<CascadeReport, QuantError> {
    let front = binary_front(cfg.net_seed)?;
    let full = full_stage(cfg.net_seed)?;

    // The front-end charges the W1 energy scaling its XNOR datapath and
    // 1-bit SB earn; cycle counts are untouched (same schedule).
    let mut front_accel = Accelerator::new(AcceleratorConfig::paper());
    let w1_model = front_accel
        .energy_model()
        .with_weight_precision(WeightPrecision::W1);
    front_accel.set_energy_model(w1_model);
    let front_prepared = Arc::new(front_accel.prepare(&front.network)?);

    let full_accel = Accelerator::new(AcceleratorConfig::paper());
    let full_prepared = Arc::new(full_accel.prepare(&full)?);

    // Tile the scene. Inputs are collected up front so the parallel
    // stage is a pure map over an ordered work list.
    /// One tile of the ordered work list: frame, grid index, origin, pixels.
    type WorkItem = (u64, usize, (usize, usize), MapStack<Fx>);
    let grid = cfg.grid();
    let mut sensor = SyntheticSensor::new(cfg.frame.0, cfg.frame.1, cfg.seed);
    let mut work: Vec<WorkItem> = Vec::new();
    for _ in 0..cfg.frames {
        let frame = sensor.next_frame();
        for (index, origin) in grid.origins().enumerate() {
            let raw = frame.try_region_stacked(origin, cfg.region, 1)?;
            work.push((frame.index(), index, origin, raw));
        }
    }

    struct RegionResult {
        outcome: RegionOutcome,
        front_ok: bool,
        full_ok: bool,
    }

    let results: Vec<Result<RegionResult, QuantError>> = work
        .par_iter()
        .map(|(frame, index, origin, raw)| {
            // The front-end sees what the in-sensor comparator emits:
            // the sign-binarized region (same mapping the serve
            // tenant's `BinarizedStream` source applies).
            let bin = raw.map(|&px| binarize_pixel(px));
            let front_run = front_prepared.session().run(&bin)?;
            let front_out = front_run.output();
            let front_score = front_out.first().copied().unwrap_or(Fx::MIN);
            let front_golden = front.network.forward_fixed(&bin).output();
            let front_ok = front_out == front_golden;

            // Oracle: the full network's verdict on every region, from
            // the golden reference (bit-identical to the simulator).
            let full_golden = full.forward_fixed(raw).output();
            let oracle_positive =
                full_golden.iter().copied().fold(Fx::MIN, Fx::max) >= cfg.decision;

            let escalate = front_score >= cfg.threshold;
            let (outcome, full_ok) = if escalate {
                let full_run = full_prepared.session().run(raw)?;
                let full_out = full_run.output();
                let positive = full_out.iter().copied().fold(Fx::MIN, Fx::max) >= cfg.decision;
                (
                    CascadeOutcome::Escalated { positive },
                    full_out == full_golden,
                )
            } else {
                (CascadeOutcome::Rejected, true)
            };
            Ok(RegionResult {
                outcome: RegionOutcome {
                    frame: *frame,
                    index: *index,
                    origin: *origin,
                    front_score,
                    outcome,
                    oracle_positive,
                },
                front_ok,
                full_ok,
            })
        })
        .collect();

    let mut regions = Vec::with_capacity(results.len());
    let mut front_bit_identical = true;
    let mut full_bit_identical = true;
    for r in results {
        let r = r?;
        front_bit_identical &= r.front_ok;
        full_bit_identical &= r.full_ok;
        regions.push(r.outcome);
    }

    // Per-inference cycles and energy are data-independent (they depend
    // only on topology), so one probe run of each stage prices the
    // whole scenario.
    let probe = front.network.random_input(cfg.net_seed);
    let front_run = front_prepared.session().run(&probe)?;
    let front_cycles = front_run.stats().cycles();
    let front_energy_nj = front_run.energy().total_nj();
    let full_probe = full.random_input(cfg.net_seed);
    let full_run = full_prepared.session().run(&full_probe)?;
    let full_cycles = full_run.stats().cycles();
    let full_energy_nj = full_run.energy().total_nj();

    let total = regions.len();
    let escalated = regions.iter().filter(|r| r.escalated()).count();
    let missed_positives = regions
        .iter()
        .filter(|r| r.oracle_positive && !r.escalated())
        .count();

    let cascade_cycles = front_cycles * total as u64 + full_cycles * escalated as u64;
    let cascade_energy_nj = front_energy_nj * total as f64 + full_energy_nj * escalated as f64;
    let all_full_cycles = full_cycles * total as u64;
    let all_full_energy_nj = full_energy_nj * total as f64;

    // Certify the XNOR kernels on every magnitude the front-end
    // actually uses (binarized inputs are ±ONE).
    let kernel_certified = front
        .packed
        .iter()
        .all(|pw| certify_xnor(Fx::ONE, pw.scale(), cfg.seed ^ 0x5ead, 16));

    Ok(CascadeReport {
        config: *cfg,
        regions,
        escalated,
        escalation_rate: if total == 0 {
            0.0
        } else {
            escalated as f64 / total as f64
        },
        front_cycles,
        full_cycles,
        front_energy_nj,
        full_energy_nj,
        cascade_cycles,
        cascade_energy_nj,
        all_full_cycles,
        all_full_energy_nj,
        missed_positives,
        accuracy_delta: if total == 0 {
            0.0
        } else {
            missed_positives as f64 / total as f64
        },
        front_bit_identical,
        full_bit_identical,
        kernel_certified,
        front_sb_bytes: front.packed_sb_bytes,
        front_sb_bytes_baseline: front.baseline_sb_bytes,
    })
}

/// The cascade as a tenant class of the inference service: a binarized
/// front-end tenant streaming every region of the scenario through the
/// new `BinarizedStream` source, plus an escalation tenant carrying
/// exactly the full-precision load the cascade outcome says survives
/// the front stage. Returns the tenant pair and the report the
/// escalation count came from.
pub fn cascade_tenants(
    cfg: &CascadeConfig,
) -> Result<(Vec<TenantSpec>, CascadeReport), QuantError> {
    let report = run_cascade(cfg)?;
    let front = binary_front(cfg.net_seed)?;
    let full = full_stage(cfg.net_seed)?;
    let total = report.regions.len();
    // The front tenant ticks at sensor rate; the escalation tenant's
    // period stretches so both finish together at the frozen
    // escalation rate.
    let front_period = 2 * report.front_cycles.max(1);
    let esc_count = report.escalated.max(1);
    let esc_period = (front_period * total as u64) / esc_count as u64;
    let tenants = vec![
        TenantSpec::new("cascade-front", front.network)
            .source(InputSource::BinarizedStream {
                seed: cfg.seed,
                frame: cfg.frame,
                stride: cfg.stride,
            })
            .traffic(Traffic::Open {
                period: front_period,
                jitter: 0,
                count: total as u64,
            })
            .weight(2),
        TenantSpec::new("cascade-escalate", full)
            .source(InputSource::Stream {
                seed: cfg.seed,
                frame: cfg.frame,
                stride: cfg.stride,
            })
            .traffic(Traffic::Open {
                period: esc_period,
                jitter: 0,
                count: report.escalated as u64,
            }),
    ];
    Ok((tenants, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cascade_is_deterministic_and_certified() {
        let cfg = CascadeConfig::smoke();
        let a = run_cascade(&cfg).unwrap();
        let b = run_cascade(&cfg).unwrap();
        assert_eq!(a, b, "same config, same report");
        assert_eq!(a.regions.len(), cfg.frames * cfg.regions_per_frame());
        assert!(a.front_bit_identical, "front stage must match golden");
        assert!(a.full_bit_identical, "full stage must match golden");
        assert!(a.kernel_certified, "XNOR kernels must certify");
    }

    #[test]
    fn front_end_is_structurally_cheaper_than_the_full_stage() {
        let cfg = CascadeConfig::smoke();
        let r = run_cascade(&cfg).unwrap();
        assert!(
            r.front_advantage() >= 4.0,
            "front {} vs full {} cycles",
            r.front_cycles,
            r.full_cycles
        );
        // With any escalation rate below 1, the cascade beats the
        // all-full-precision baseline on both axes.
        if r.escalation_rate < 1.0 {
            assert!(r.cascade_cycles < r.all_full_cycles);
            assert!(r.cascade_energy_nj < r.all_full_energy_nj);
        }
    }

    #[test]
    fn escalation_threshold_gates_the_second_stage() {
        // Threshold at MIN escalates everything; at MAX nothing.
        let mut all = CascadeConfig::smoke();
        all.frames = 1;
        all.threshold = Fx::MIN;
        let r = run_cascade(&all).unwrap();
        assert_eq!(r.escalated, r.regions.len());
        assert_eq!(r.missed_positives, 0, "full coverage misses nothing");

        let mut none = all;
        none.threshold = Fx::MAX;
        let r = run_cascade(&none).unwrap();
        assert_eq!(r.escalated, 0);
        assert_eq!(
            r.missed_positives,
            r.regions.iter().filter(|x| x.oracle_positive).count()
        );
    }

    #[test]
    fn tenant_pair_matches_the_cascade_outcome() {
        let mut cfg = CascadeConfig::smoke();
        cfg.frames = 1;
        let (tenants, report) = cascade_tenants(&cfg).unwrap();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].name, "cascade-front");
        assert_eq!(tenants[1].name, "cascade-escalate");
        assert!(report.escalated <= report.regions.len());
    }
}
