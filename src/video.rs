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
//! regions compute — with the Load phase shrunk to the changed input
//! rows by the cross-frame NBin residency of
//! [`crate::sim::Session::stage_delta`]. On the host, a region row whose
//! regions all compute (every row of a panning or refresh frame) shares
//! the grid's strip prefix the way [`StreamingPipeline::process_frame`]
//! does, and each region replays only the remaining layers; the other
//! rows run their dirty regions whole. Either way every region is
//! charged its full schedule. A periodic full refresh and a
//! per-region staleness bound keep cached results from drifting
//! unboundedly, and an every-region oracle prices what the gating
//! actually costs (`stale_results`, `missed_detections`) the same way
//! the early-exit cascade prices declined escalations.
//!
//! Everything is a pure function of the construction inputs and the
//! frame sequence: same sensor seed, same config, same reports.

use crate::cnn::Network;
use crate::fixed::Fx;
use crate::pipeline::{
    PipelineError, RegionLedger, RegionResult, RegionTally, StreamingPipeline, StripScratch,
};
use crate::quant::{binary_front, prepare_w1};
use crate::sensor::{Frame, FrameDelta, RegionGrid};
use crate::serve::binarize_pixel;
use crate::sim::{fanout, Accelerator, LayerStats, NbResidency, PreparedNetwork};
use crate::tensor::MapStack;

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
/// [`MotionGate::DiffThenBinaryFront`]: the cascade's `BinaryFront`
/// sized to the pipeline's region, priced at the W1 energy scaling.
#[derive(Clone, Debug)]
struct FrontGate {
    prepared: PreparedNetwork,
    threshold: Fx,
}

impl FrontGate {
    fn build(region: (usize, usize), threshold: Fx, seed: u64) -> Result<FrontGate, PipelineError> {
        let front = binary_front(seed, region)
            .map_err(|e| PipelineError::Gate(format!("front end: {e}")))?;
        Ok(FrontGate {
            prepared: prepare_w1(&front.network)?,
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
}

impl VideoPipeline {
    /// Assembles a motion-gated pipeline over `accel`/`network`/`grid`.
    /// The frame-independent baseline of a region is priced from
    /// [`PreparedNetwork::clean_stats`]: per-region cycles and energy
    /// are data-independent.
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
        let count = grid.count();
        Ok(VideoPipeline {
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

    /// Frame-independent cost of one region (cycles, nJ), from the
    /// clean statistics `prepare` recorded.
    pub fn per_region_cost(&self) -> (u64, f64) {
        let prepared = self.inner.prepared();
        let clean = prepared.clean_stats();
        let energy = prepared.energy_model().charge_run(clean);
        (clean.cycles(), energy.total_nj())
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
    /// parallel on the fan-out behind [`StreamingPipeline::process_frame`],
    /// one band of about `ny / workers` whole region rows per worker, in
    /// place on the pipeline's per-region slots (cached result, NBin
    /// residency). Each computing region stages its delta load from its
    /// own tile; threshold 0 turns gating off, so every region computes
    /// from a cold load and no differencing runs. In a row where every region computes, the worker then
    /// computes the grid's shared prefix once over the row's strip
    /// (C1–C3 for Gabor at stride 10; DESIGN.md §3l), rolled on from its
    /// strip for the row above when it ran one in this band, else fresh,
    /// and each region replays the remaining layers from its window; in
    /// any other row a computing region runs whole. The report is folded
    /// in grid order: it is bit-identical at any worker count, and to
    /// running every computing region whole.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stream`] on a frame/grid mismatch and
    /// [`PipelineError::Run`]/[`PipelineError::Gate`] if a compute or
    /// gate run fails (cannot happen after a successful
    /// [`VideoPipeline::new`]).
    pub fn process_frame(&mut self, frame: &Frame) -> Result<VideoFrameReport, PipelineError> {
        self.process_frame_with(frame, fanout::workers(0))
    }

    /// [`VideoPipeline::process_frame`] on exactly `workers` workers.
    pub(crate) fn process_frame_with(
        &mut self,
        frame: &Frame,
        workers: usize,
    ) -> Result<VideoFrameReport, PipelineError> {
        let seq = self.frames_seen;
        let count = self.inner.grid().count();
        let (region_cycles, region_nj) = self.per_region_cost();
        let baseline_cycles = region_cycles * count as u64;
        let baseline_energy_nj = region_nj * count as f64;
        let frequency_ghz = self.inner.prepared().config().frequency_ghz;

        // Threshold 0 turns gating off: no differencing (the frame is only
        // checked against the grid), every region computes, and no delta
        // load is staged, so loads are cold — frame-independent processing
        // exactly, through the same pass.
        let gated = self.config.dirty_threshold > 0;
        let dirty_map = if gated {
            Some(self.delta.observe(frame)?)
        } else {
            self.inner.grid().check(frame)?;
            None
        };
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
        let mut raw = MapStack::new(1, 1);
        for (ri, slot) in self.regions.iter_mut().enumerate() {
            let stale_due = slot.cached.as_ref().is_some_and(|c| {
                config.staleness_bound > 0 && seq - c.computed_at >= config.staleness_bound
            });
            slot.compute = !gated || slot.cached.is_none() || refresh_due || stale_due;
            if !slot.compute && dirty_map.as_ref().is_some_and(|d| d.is_dirty(ri)) {
                match &mut front {
                    None => slot.compute = true,
                    Some((f, fs)) => {
                        // Second gate: the W1 front re-scores the dirty
                        // region from its sign-binarized pixels,
                        // binarized in place in the reused tile.
                        front_runs += 1;
                        frame.try_region_into(
                            grid.origin_at(ri),
                            grid.region_dims(),
                            1,
                            &mut raw,
                        )?;
                        for map in raw.iter_mut() {
                            for y in 0..map.height() {
                                for px in map.row_mut(y) {
                                    *px = binarize_pixel(*px);
                                }
                            }
                        }
                        let run = fs.infer_ref(&raw)?;
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

        // A region row whose regions all compute runs the grid's shared
        // strip prefix once for the row; other rows run their computing
        // regions whole.
        let inner = &self.inner;
        let (nx, ny) = grid.counts();
        let strip_rows: Vec<bool> = self
            .regions
            .chunks(nx)
            .map(|row| inner.prefix_layers() > 0 && row.iter().all(|slot| slot.compute))
            .collect();

        // Parallel pass over the region slots, one band of whole region
        // rows per worker: computed regions run with their own
        // residency, and the oracle prices the skipped ones.
        let band = ny.div_ceil(workers.max(1));
        let states = fanout::run(
            &mut self.regions,
            band * nx,
            workers,
            || {
                (
                    prepared.session(),
                    VideoTally::default(),
                    MapStack::new(1, 1),
                    StripScratch::new(),
                )
            },
            |(session, tally, raw, strip), ri, slot| {
                if !slot.compute && !config.oracle {
                    return Ok(());
                }
                frame.try_region_into(grid.origin_at(ri), grid.region_dims(), maps, raw)?;
                if slot.compute {
                    tally.rows_streamed += if gated {
                        session.stage_delta(raw, &mut slot.residency).rows_streamed
                    } else {
                        maps * grid.region_dims().1
                    };
                    let run = if strip_rows[ri / nx] {
                        inner.strip_region(session, frame, ri, band, strip)?
                    } else {
                        session.infer_ref(raw)?
                    };
                    let output = slot.cache_for(seq);
                    let energy_nj = tally.cycles.record(&run, output);
                    if config.oracle && *output != network.forward_fixed(raw).output() {
                        tally.golden_mismatches += 1;
                    }
                    slot.energy_nj = energy_nj;
                } else if let Some(c) = &slot.cached {
                    let golden = network.forward_fixed(raw).output();
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
        for (_, t, _, _) in states {
            tally.absorb(t);
        }

        // The differencing comparator consumes one NB bank width of
        // pixels per cycle and is priced as NB-style reads — the same
        // calibration `hot_path` pins.
        let bank = prepared.config().nb_bank_width_bytes() as u64;
        let compared = dirty_map.map_or(0, |d| d.compared_pixels());
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
    /// workers, on a grid of 20×20 regions at `stride` (4 shares
    /// C1–S4, k = 4; 10, the benchmark's, shares C1–C3, k = 3); every
    /// report must be identical, energy bit for bit. Returns the
    /// single-worker reports.
    fn worker_invariant(
        config: VideoConfig,
        motion: Motion,
        stride: usize,
    ) -> Vec<VideoFrameReport> {
        // Stride 4: 11 × 9 = 99 regions; stride 10: 5 × 4 = 20.
        let grid = RegionGrid::new(FRAME, (20, 20), (stride, stride));
        let run = |workers| {
            let net = zoo::gabor().build(1).unwrap();
            let accel = Accelerator::new(AcceleratorConfig::paper());
            let mut pipe = VideoPipeline::new(accel, net, grid, config).unwrap();
            assert_eq!(pipe.inner.prefix_layers(), if stride == 4 { 4 } else { 3 });
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
        for (oracle, stride) in [(true, 4), (false, 4), (true, 10), (false, 10)] {
            let config = gated(MotionGate::Diff, oracle);
            let reports = worker_invariant(config, Motion::Static, stride);
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
        for stride in [4, 10] {
            let reports = worker_invariant(gated(gate, true), Motion::Jitter { amp: 1 }, stride);
            assert!(reports.iter().map(|r| r.front_runs()).sum::<usize>() > 0);
        }
    }

    #[test]
    fn panning_and_threshold_zero_are_worker_invariant() {
        let pan = Motion::Pan { dx: 2, dy: 1 };
        let config = VideoConfig {
            dirty_threshold: 0,
            ..VideoConfig::default()
        };
        for stride in [4, 10] {
            let reports = worker_invariant(gated(MotionGate::Diff, false), pan, stride);
            assert!(reports.iter().all(|r| r.ledger().skipped == 0));
            let cold = worker_invariant(config, Motion::Static, stride);
            assert!(cold.iter().all(|r| r.rows_streamed() == r.rows_total()));
            // The oracle (on by default) checks every threshold-0 region
            // against the golden reference.
            assert!(cold.iter().all(|r| r.bit_identical()));
        }
    }

    /// The strip rule's guard: a row whose regions all compute rolls its
    /// strip on only from a strip the same worker ran for the row above.
    /// On a stride-10 grid (k = 3, the benchmark's geometry) under a
    /// staleness bound, a moving object leaves frames where a row whose
    /// regions all compute follows, in one worker's band, a row where
    /// only some do, below an earlier strip row (frame 4's rows read
    /// all, some, all, all, all, all). Rolling that row's strip on from the
    /// worker's last strip would compute the wrong rows; it must start
    /// fresh, and every computed region must equal the golden reference.
    #[test]
    fn a_strip_row_after_a_partial_row_starts_fresh() {
        let (w, h) = (80, 70);
        let grid = RegionGrid::new((w, h), (20, 20), (10, 10));
        let (nx, _) = grid.counts();
        let config = VideoConfig {
            refresh_interval: 0,
            staleness_bound: 2,
            ..VideoConfig::default()
        };
        let net = zoo::gabor().build(1).unwrap();
        let accel = Accelerator::new(AcceleratorConfig::paper());
        let mut pipe = VideoPipeline::new(accel, net.clone(), grid, config).unwrap();
        assert_eq!(pipe.inner.prefix_layers(), 3);
        let mut cam = VideoSensor::new(w, h, 5, Motion::Static).with_object(MovingObject {
            size: (12, 12),
            speed: (5, 11),
        });
        let mut fresh_after_partial = 0;
        for _ in 0..8 {
            let frame = cam.next_frame();
            let report = pipe.process_frame_with(&frame, 1).unwrap();
            assert!(report.bit_identical());
            for (ri, (r, slot)) in report.results().iter().zip(&pipe.regions).enumerate() {
                if slot.compute {
                    let region = grid.try_region(&frame, ri, 1).unwrap();
                    assert_eq!(r.output, net.forward_fixed(&region).output(), "region {ri}");
                }
            }
            let full: Vec<bool> = pipe
                .regions
                .chunks(nx)
                .map(|row| row.iter().all(|s| s.compute))
                .collect();
            fresh_after_partial += (2..full.len())
                .filter(|&r| full[r] && !full[r - 1] && full[..r - 1].contains(&true))
                .count();
        }
        assert!(fresh_after_partial > 0, "the scene must exercise the guard");
    }
}
