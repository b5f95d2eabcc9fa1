//! The temporal-reuse video datapath: motion-gated region scheduling
//! over the streaming pipeline (DESIGN.md §3k).
//!
//! §10.2 tiles each frame into a grid of overlapping regions and runs
//! every one through the accelerator — correct, but wasteful on video,
//! where most of a surveillance-style scene does not change between
//! frames. A [`VideoPipeline`] puts a frame-differencing comparator on
//! the sensor side (the [`crate::sensor::FrameDelta`] dirty-region
//! bitmaps): **clean** regions skip inference entirely and replay the
//! cached result at the calibrated compare-only cost, while **dirty**
//! regions run the normal path — with the Load phase shrunk to the
//! changed input rows by the cross-frame NBin residency of
//! [`crate::sim::Session::infer_delta`]. A periodic full refresh and a
//! per-region staleness bound keep cached results from drifting
//! unboundedly, and an every-region oracle prices what the gating
//! actually costs (`stale_results`, `missed_detections`) the same way
//! the early-exit cascade prices declined escalations.
//!
//! Everything is a pure function of the construction inputs and the
//! frame sequence: same sensor seed, same config, same reports.

use crate::cnn::{ConvSpec, FcSpec, Network, NetworkBuilder, PoolSpec};
use crate::fixed::Fx;
use crate::pipeline::{
    frame_workers, run_regions, PipelineError, RegionLedger, RegionResult, RegionTally,
    StreamingPipeline,
};
use crate::quant::quantize_network;
use crate::sensor::{Frame, FrameDelta, RegionGrid};
use crate::serve::binarize_pixel;
use crate::sim::{
    Accelerator, AcceleratorConfig, LayerStats, NbResidency, PreparedNetwork, WeightPrecision,
};

/// How a dirty region is confirmed before full-precision compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MotionGate {
    /// Frame differencing alone: every dirty region computes.
    Diff,
    /// Dirty regions are re-scored by a tiny W1-binarized front-end
    /// (the early-exit cascade's sensor-side stage); only regions the
    /// front confirms escalate to full compute, the rest replay their
    /// cached result. The front's cycles and W1-scaled energy are
    /// charged per gate decision.
    DiffThenBinaryFront {
        /// Escalate iff the front's score is `≥ threshold`.
        threshold: Fx,
        /// Weight seed of the front network.
        seed: u64,
    },
}

/// Motion-gated scheduling parameters of a [`VideoPipeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VideoConfig {
    /// Per-pixel differencing threshold: a region is dirty when any
    /// pixel moved by at least this much. `0` disables gating entirely —
    /// the pipeline reduces *exactly* to frame-independent
    /// [`StreamingPipeline::process_frame`].
    pub dirty_threshold: u8,
    /// Every `refresh_interval`-th frame recomputes all regions
    /// regardless of motion (`0` = never force a refresh).
    pub refresh_interval: u64,
    /// A cached result older than this many frames is recomputed even
    /// if its region stays clean (`0` = no bound).
    pub staleness_bound: u64,
    /// The gate confirming dirty regions.
    pub gate: MotionGate,
    /// Detection threshold the oracle prices misses against: a region
    /// is *positive* iff its max output is `≥ decision`.
    pub decision: Fx,
    /// Run the every-region oracle (golden reference on every region)
    /// to certify computed outputs and price skipped ones. Costs host
    /// time only — never accelerator cycles.
    pub oracle: bool,
}

impl Default for VideoConfig {
    fn default() -> VideoConfig {
        VideoConfig {
            dirty_threshold: 8,
            refresh_interval: 16,
            staleness_bound: 0,
            gate: MotionGate::Diff,
            decision: Fx::from_bits(12),
            oracle: true,
        }
    }
}

/// One region's cached recognition output and when it was computed.
#[derive(Clone, Debug)]
struct CachedRegion {
    output: Vec<Fx>,
    computed_at: u64,
}

/// What the pipeline keeps per region: the cached result and NBin
/// residency across frames, plus the current frame's gate verdict and
/// run energy. The parallel pass works on these slots in place, so a
/// frame stages nothing but its report.
#[derive(Clone, Debug, Default)]
struct RegionSlot {
    cached: Option<CachedRegion>,
    residency: NbResidency,
    /// This frame: the region computes rather than replaying `cached`.
    compute: bool,
    /// This frame: the computed run's energy, nJ, folded in grid order.
    energy_nj: f64,
}

impl RegionSlot {
    /// The cached output buffer for a run at frame `seq`, reusing the
    /// previous run's allocation.
    fn cache_for(&mut self, seq: u64) -> &mut Vec<Fx> {
        let cached = self.cached.get_or_insert_with(|| CachedRegion {
            output: Vec::new(),
            computed_at: seq,
        });
        cached.computed_at = seq;
        &mut cached.output
    }
}

/// A worker's integer totals over its regions (any order sums the same).
#[derive(Clone, Copy, Debug, Default)]
struct VideoTally {
    cycles: RegionTally,
    rows_streamed: usize,
    /// Computed regions whose output differs from the golden reference.
    golden_mismatches: usize,
    stale_results: usize,
    missed_detections: usize,
}

impl VideoTally {
    /// Adds another worker's tally.
    fn absorb(&mut self, other: VideoTally) {
        self.cycles.absorb(other.cycles);
        self.rows_streamed += other.rows_streamed;
        self.golden_mismatches += other.golden_mismatches;
        self.stale_results += other.stale_results;
        self.missed_detections += other.missed_detections;
    }
}

/// The prepared binarized front-end of
/// [`MotionGate::DiffThenBinaryFront`], priced at the W1 energy scaling
/// (same topology family as the cascade's `BinaryFront`, sized to the
/// pipeline's region).
#[derive(Clone, Debug)]
struct FrontGate {
    prepared: PreparedNetwork,
    threshold: Fx,
}

impl FrontGate {
    fn build(region: (usize, usize), threshold: Fx, seed: u64) -> Result<FrontGate, PipelineError> {
        let net = NetworkBuilder::new("VideoFront", 1, region)
            .conv(ConvSpec::new(4, (5, 5)).with_stride((2, 2)))
            .pool(PoolSpec::max((2, 2)))
            .fc(FcSpec::new(1))
            .build(seed)
            .map_err(|e| PipelineError::Gate(format!("front topology: {e}")))?;
        let quantized = quantize_network(&net, WeightPrecision::W1)
            .map_err(|e| PipelineError::Gate(format!("front quantization: {e}")))?;
        let mut accel = Accelerator::new(AcceleratorConfig::paper());
        let w1 = accel
            .energy_model()
            .with_weight_precision(WeightPrecision::W1);
        accel.set_energy_model(w1);
        let prepared = accel.prepare(&quantized.network)?;
        Ok(FrontGate {
            prepared,
            threshold,
        })
    }
}

/// Timing, energy, and accounting of one motion-gated frame.
#[derive(Clone, Debug, PartialEq)]
pub struct VideoFrameReport {
    frame_index: u64,
    results: Vec<RegionResult>,
    ledger: RegionLedger,
    compute_cycles: u64,
    load_cycles: u64,
    compare_cycles: u64,
    front_cycles: u64,
    energy_nj: f64,
    compare_energy_nj: f64,
    front_energy_nj: f64,
    baseline_cycles: u64,
    baseline_energy_nj: f64,
    rows_streamed: usize,
    rows_total: usize,
    front_runs: usize,
    front_rejected: usize,
    stale_results: usize,
    missed_detections: usize,
    bit_identical: bool,
    frequency_ghz: f64,
}

impl VideoFrameReport {
    /// Position of this frame in the pipeline's sequence.
    pub fn frame_index(&self) -> u64 {
        self.frame_index
    }

    /// Per-region outputs in grid order — computed or cache-replayed,
    /// every region present.
    pub fn results(&self) -> &[RegionResult] {
        &self.results
    }

    /// The shared region-outcome ledger; balances to the grid size.
    pub fn ledger(&self) -> RegionLedger {
        self.ledger
    }

    /// Accelerator cycles spent computing dirty regions (loads
    /// excluded).
    pub fn compute_cycles(&self) -> u64 {
        self.compute_cycles
    }

    /// Cycles streaming dirty input rows into NBin (delta loads).
    pub fn load_cycles(&self) -> u64 {
        self.load_cycles
    }

    /// Cycles of the sensor-side differencing comparator.
    pub fn compare_cycles(&self) -> u64 {
        self.compare_cycles
    }

    /// Cycles of the binarized front gate (0 under [`MotionGate::Diff`]).
    pub fn front_cycles(&self) -> u64 {
        self.front_cycles
    }

    /// Total cycles of the gated frame, all stages.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.load_cycles + self.compare_cycles + self.front_cycles
    }

    /// Accelerator energy of the computed regions, nJ.
    pub fn energy_nj(&self) -> f64 {
        self.energy_nj
    }

    /// Energy of the differencing comparator (NB-style reads), nJ.
    pub fn compare_energy_nj(&self) -> f64 {
        self.compare_energy_nj
    }

    /// Energy of the front gate at the W1 scaling, nJ.
    pub fn front_energy_nj(&self) -> f64 {
        self.front_energy_nj
    }

    /// Total energy of the gated frame, nJ.
    pub fn total_energy_nj(&self) -> f64 {
        self.energy_nj + self.compare_energy_nj + self.front_energy_nj
    }

    /// Cycles frame-independent processing would have spent on this
    /// frame (every region computed, cold loads).
    pub fn baseline_cycles(&self) -> u64 {
        self.baseline_cycles
    }

    /// Energy frame-independent processing would have spent, nJ.
    pub fn baseline_energy_nj(&self) -> f64 {
        self.baseline_energy_nj
    }

    /// Input rows actually streamed over the sensor→NBin link across
    /// the frame's computed regions.
    pub fn rows_streamed(&self) -> usize {
        self.rows_streamed
    }

    /// Input rows the computed regions carry in total.
    pub fn rows_total(&self) -> usize {
        self.rows_total
    }

    /// Front-gate inferences run this frame.
    pub fn front_runs(&self) -> usize {
        self.front_runs
    }

    /// Dirty regions the front gate sent back to cache replay.
    pub fn front_rejected(&self) -> usize {
        self.front_rejected
    }

    /// Skipped regions whose replayed output differs from what a fresh
    /// compute would produce (oracle-priced; 0 when the oracle is off).
    pub fn stale_results(&self) -> usize {
        self.stale_results
    }

    /// Skipped regions that are oracle-positive but whose replayed
    /// output is not — detections the gating delayed.
    pub fn missed_detections(&self) -> usize {
        self.missed_detections
    }

    /// Every computed region matched the fixed-point golden reference
    /// (vacuously `true` when the oracle is off).
    pub fn bit_identical(&self) -> bool {
        self.bit_identical
    }

    /// Frame latency in seconds (serial stages).
    pub fn seconds(&self) -> f64 {
        self.total_cycles() as f64 / (self.frequency_ghz * 1e9)
    }
}

/// A [`StreamingPipeline`] with motion-gated region scheduling and
/// cross-frame NBin residency (see [the module](self)).
///
/// # Examples
///
/// ```
/// use shidiannao::prelude::*;
/// use shidiannao::sensor::{FrameSource, Motion, RegionGrid, VideoSensor};
/// use shidiannao::video::{VideoConfig, VideoPipeline};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = zoo::gabor().build(1)?; // 20×20 input
/// let grid = RegionGrid::new((40, 40), (20, 20), (20, 20));
/// let mut pipe = VideoPipeline::new(
///     Accelerator::new(AcceleratorConfig::paper()),
///     net,
///     grid,
///     VideoConfig::default(),
/// )?;
/// let mut cam = VideoSensor::new(40, 40, 7, Motion::Static);
/// let cold = pipe.process_frame(&cam.next_frame())?;
/// let warm = pipe.process_frame(&cam.next_frame())?;
/// // A static scene: the second frame skips every region.
/// assert_eq!(cold.ledger().computed, 4);
/// assert_eq!(warm.ledger().skipped, 4);
/// assert!(warm.total_cycles() < cold.total_cycles());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct VideoPipeline {
    inner: StreamingPipeline,
    config: VideoConfig,
    delta: FrameDelta,
    front: Option<FrontGate>,
    regions: Vec<RegionSlot>,
    frames_seen: u64,
    per_region_cycles: u64,
    per_region_energy_nj: f64,
}

impl VideoPipeline {
    /// Assembles a motion-gated pipeline over `accel`/`network`/`grid`
    /// and calibrates the frame-independent baseline cost with one
    /// probe inference (per-region cycles and energy are
    /// data-independent, so one probe prices every region).
    ///
    /// # Errors
    ///
    /// Everything [`StreamingPipeline::new`] rejects, plus
    /// [`PipelineError::Gate`] when the front-end of
    /// [`MotionGate::DiffThenBinaryFront`] cannot be built for the
    /// grid's region size.
    pub fn new(
        accel: Accelerator,
        network: Network,
        grid: RegionGrid,
        config: VideoConfig,
    ) -> Result<VideoPipeline, PipelineError> {
        let inner = StreamingPipeline::new(accel, network, grid)?;
        let front = match config.gate {
            MotionGate::Diff => None,
            MotionGate::DiffThenBinaryFront { threshold, seed } => {
                Some(FrontGate::build(grid.region_dims(), threshold, seed)?)
            }
        };
        let probe = inner.network().random_input(0x71DE0);
        let run = inner.prepared().session().infer(&probe)?;
        let count = grid.count();
        Ok(VideoPipeline {
            per_region_cycles: run.stats().cycles(),
            per_region_energy_nj: run.energy().total_nj(),
            delta: FrameDelta::new(grid, config.dirty_threshold),
            front,
            regions: vec![RegionSlot::default(); count],
            frames_seen: 0,
            inner,
            config,
        })
    }

    /// The underlying frame-independent pipeline.
    pub fn pipeline(&self) -> &StreamingPipeline {
        &self.inner
    }

    /// The grid driving the pipeline.
    pub fn grid(&self) -> &RegionGrid {
        self.inner.grid()
    }

    /// The network being served.
    pub fn network(&self) -> &Network {
        self.inner.network()
    }

    /// The scheduling parameters.
    pub fn config(&self) -> &VideoConfig {
        &self.config
    }

    /// Frames processed so far.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Calibrated frame-independent cost of one region (cycles, nJ).
    pub fn per_region_cost(&self) -> (u64, f64) {
        (self.per_region_cycles, self.per_region_energy_nj)
    }

    /// Drops all temporal state — differencing history, cached results,
    /// NBin residency. The next frame behaves like the first.
    pub fn reset(&mut self) {
        self.delta.reset();
        for r in &mut self.regions {
            r.cached = None;
            r.residency.invalidate();
        }
        self.frames_seen = 0;
    }

    /// Processes one frame under motion gating.
    ///
    /// A serial gate pass decides, in grid order, which regions compute
    /// (staleness, refresh, dirty bit, front gate). Those regions — and,
    /// with the oracle on, the skipped ones it prices — then run in
    /// parallel on the region-parallel executor behind
    /// [`StreamingPipeline::process_frame`], in place on the pipeline's
    /// per-region slots (cached result, NBin residency), and the report
    /// is folded in grid order: it is bit-identical at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stream`] on a frame/grid mismatch and
    /// [`PipelineError::Run`]/[`PipelineError::Gate`] if a compute or
    /// gate run fails (cannot happen after a successful
    /// [`VideoPipeline::new`]).
    pub fn process_frame(&mut self, frame: &Frame) -> Result<VideoFrameReport, PipelineError> {
        self.process_frame_with(frame, frame_workers())
    }

    /// [`VideoPipeline::process_frame`] on exactly `workers` workers.
    pub(crate) fn process_frame_with(
        &mut self,
        frame: &Frame,
        workers: usize,
    ) -> Result<VideoFrameReport, PipelineError> {
        let seq = self.frames_seen;
        let count = self.inner.grid().count();
        let baseline_cycles = self.per_region_cycles * count as u64;
        let baseline_energy_nj = self.per_region_energy_nj * count as f64;
        let frequency_ghz = self.inner.prepared().config().frequency_ghz;

        // Threshold 0: exact reduction to frame-independent processing —
        // no differencing, no residency, cold loads, identical cycles,
        // energy, and outputs.
        if self.config.dirty_threshold == 0 {
            let report = self.inner.process_frame_with(frame, workers)?;
            self.frames_seen += 1;
            for (slot, r) in self.regions.iter_mut().zip(report.results()) {
                slot.cache_for(seq).clone_from(&r.output);
            }
            let maps = self.inner.network().input_maps();
            let rows = count * maps * self.inner.grid().region_dims().1;
            return Ok(VideoFrameReport {
                frame_index: seq,
                ledger: report.ledger(),
                compute_cycles: report.compute_cycles(),
                load_cycles: report.load_cycles(),
                compare_cycles: 0,
                front_cycles: 0,
                energy_nj: report.energy_nj(),
                compare_energy_nj: 0.0,
                front_energy_nj: 0.0,
                baseline_cycles,
                baseline_energy_nj,
                rows_streamed: rows,
                rows_total: rows,
                front_runs: 0,
                front_rejected: 0,
                stale_results: 0,
                missed_detections: 0,
                bit_identical: true,
                results: report.results().to_vec(),
                frequency_ghz,
            });
        }

        let dirty_map = self.delta.observe(frame)?;
        self.frames_seen += 1;
        let config = self.config;
        let grid = self.inner.grid();
        let network = self.inner.network();
        let prepared = self.inner.prepared();
        let maps = network.input_maps();

        let mut ledger = RegionLedger::default();
        let mut front_cycles = 0u64;
        let mut front_energy_nj = 0.0;
        let (mut front_runs, mut front_rejected) = (0usize, 0usize);
        let refresh_due =
            config.refresh_interval > 0 && seq.is_multiple_of(config.refresh_interval);

        // Gate pass, serial in grid order: which regions compute. Skipped
        // (clean or front-rejected) regions replay their cached result;
        // their cost is the frame-level compare pass. One front session
        // serves the frame's gate decisions.
        let mut front = self.front.as_ref().map(|f| (f, f.prepared.session()));
        for (ri, slot) in self.regions.iter_mut().enumerate() {
            let stale_due = slot.cached.as_ref().is_some_and(|c| {
                config.staleness_bound > 0 && seq - c.computed_at >= config.staleness_bound
            });
            slot.compute = slot.cached.is_none() || refresh_due || stale_due;
            if !slot.compute && dirty_map.is_dirty(ri) {
                match &mut front {
                    None => slot.compute = true,
                    Some((f, fs)) => {
                        // Second gate: the W1 front re-scores the dirty
                        // region from its sign-binarized pixels.
                        front_runs += 1;
                        let raw = grid.try_region(frame, ri, 1)?;
                        let run = fs.infer_ref(&raw.map(|&px| binarize_pixel(px)))?;
                        front_cycles += run.stats().cycles();
                        front_energy_nj += run.energy().total_nj();
                        let score = run.output_flat().first().copied().unwrap_or(Fx::MIN);
                        if score >= f.threshold {
                            slot.compute = true;
                        } else {
                            front_rejected += 1;
                        }
                    }
                }
            }
            ledger.computed += usize::from(slot.compute);
        }
        ledger.skipped = count - ledger.computed;

        // Parallel pass over the region slots: computed regions run with
        // their own residency, and the oracle prices the skipped ones.
        let states = run_regions(
            &mut self.regions,
            workers,
            || (prepared.session(), VideoTally::default()),
            |(session, tally), ri, slot| {
                if !slot.compute && !config.oracle {
                    return Ok(());
                }
                let raw = grid.try_region(frame, ri, maps)?;
                if slot.compute {
                    let (run, delta) = session.infer_delta_ref(&raw, &mut slot.residency)?;
                    let output = slot.cache_for(seq);
                    let energy_nj = tally.cycles.record(&run, output);
                    if config.oracle && *output != network.forward_fixed(&raw).output() {
                        tally.golden_mismatches += 1;
                    }
                    slot.energy_nj = energy_nj;
                    tally.rows_streamed += delta.rows_streamed;
                } else if let Some(c) = &slot.cached {
                    let golden = network.forward_fixed(&raw).output();
                    if golden != c.output {
                        tally.stale_results += 1;
                        let positive = |out: &[Fx]| {
                            out.iter().copied().fold(Fx::MIN, Fx::max) >= config.decision
                        };
                        if positive(&golden) && !positive(&c.output) {
                            tally.missed_detections += 1;
                        }
                    }
                }
                Ok::<_, PipelineError>(())
            },
        )?;

        // Fold: energy in grid order, integer totals in any order.
        let mut energy_nj = 0.0;
        let mut results = Vec::with_capacity(count);
        for (slot, origin) in self.regions.iter().zip(grid.origins()) {
            if slot.compute {
                energy_nj += slot.energy_nj;
            }
            let output = slot.cached.as_ref().map(|c| c.output.clone());
            results.push(RegionResult {
                origin,
                output: output.unwrap_or_default(),
            });
        }
        let mut tally = VideoTally::default();
        for (_, t) in states {
            tally.absorb(t);
        }

        // The differencing comparator consumes one NB bank width of
        // pixels per cycle and is priced as NB-style reads — the same
        // calibration `hot_path` pins.
        let bank = prepared.config().nb_bank_width_bytes() as u64;
        let compared = dirty_map.compared_pixels();
        let compare_cycles = compared.div_ceil(bank);
        let compare_energy_nj = {
            let mut ls = LayerStats::default();
            ls.nbin.read_accesses = compare_cycles;
            ls.nbin.read_bytes = compared;
            prepared.energy_model().charge(&ls).total_nj()
        };

        Ok(VideoFrameReport {
            frame_index: seq,
            results,
            ledger,
            compute_cycles: tally.cycles.compute_cycles,
            load_cycles: tally.cycles.load_cycles,
            compare_cycles,
            front_cycles,
            energy_nj,
            compare_energy_nj,
            front_energy_nj,
            baseline_cycles,
            baseline_energy_nj,
            rows_streamed: tally.rows_streamed,
            rows_total: ledger.computed * maps * grid.region_dims().1,
            front_runs,
            front_rejected,
            stale_results: tally.stale_results,
            missed_detections: tally.missed_detections,
            bit_identical: tally.golden_mismatches == 0,
            frequency_ghz,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::sensor::{Motion, MovingObject, VideoSensor};

    const FRAME: (usize, usize) = (60, 50);

    /// Runs one four-frame scene through a fresh pipeline at 1, 2, 3 and 7
    /// workers; every report must be identical, energy bit for bit.
    /// Returns the single-worker reports.
    fn worker_invariant(config: VideoConfig, motion: Motion) -> Vec<VideoFrameReport> {
        // 11 × 9 = 99 regions: four blocks, the last one ragged.
        let grid = RegionGrid::new(FRAME, (20, 20), (4, 4));
        let run = |workers| {
            let net = zoo::gabor().build(1).unwrap();
            let accel = Accelerator::new(AcceleratorConfig::paper());
            let mut pipe = VideoPipeline::new(accel, net, grid, config).unwrap();
            let mut cam = VideoSensor::new(FRAME.0, FRAME.1, 3, motion).with_object(MovingObject {
                size: (12, 12),
                speed: (7, 5),
            });
            (0..4)
                .map(|_| pipe.process_frame_with(&cam.next_frame(), workers).unwrap())
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        for workers in [2, 3, 7] {
            let parallel = run(workers);
            assert_eq!(parallel, serial, "{workers} workers, {config:?}");
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.energy_nj().to_bits(), s.energy_nj().to_bits());
                assert_eq!(p.front_energy_nj().to_bits(), s.front_energy_nj().to_bits());
            }
        }
        serial
    }

    fn gated(gate: MotionGate, oracle: bool) -> VideoConfig {
        VideoConfig {
            refresh_interval: 4,
            staleness_bound: 3,
            gate,
            oracle,
            ..VideoConfig::default()
        }
    }

    #[test]
    fn diff_gate_is_worker_invariant_with_and_without_the_oracle() {
        for oracle in [true, false] {
            let reports = worker_invariant(gated(MotionGate::Diff, oracle), Motion::Static);
            assert!(reports.iter().any(|r| r.ledger().skipped > 0));
            assert!(reports[1..].iter().any(|r| r.ledger().computed > 0));
            assert!(reports.iter().all(|r| r.bit_identical()));
        }
    }

    #[test]
    fn front_gate_is_worker_invariant() {
        let gate = MotionGate::DiffThenBinaryFront {
            threshold: Fx::from_f32(0.25),
            seed: 42,
        };
        let reports = worker_invariant(gated(gate, true), Motion::Jitter { amp: 1 });
        assert!(reports.iter().map(|r| r.front_runs()).sum::<usize>() > 0);
    }

    #[test]
    fn panning_and_threshold_zero_are_worker_invariant() {
        let pan = worker_invariant(gated(MotionGate::Diff, false), Motion::Pan { dx: 2, dy: 1 });
        assert!(pan.iter().all(|r| r.ledger().skipped == 0));
        let config = VideoConfig {
            dirty_threshold: 0,
            ..VideoConfig::default()
        };
        let cold = worker_invariant(config, Motion::Static);
        assert!(cold.iter().all(|r| r.rows_streamed() == r.rows_total()));
    }
}
