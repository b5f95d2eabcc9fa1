//! The end-to-end streaming pipeline of §2/§10.2: sensor → partial-frame
//! buffer → region stream → accelerator → per-region recognition outputs.
//!
//! This ties the workspace together the way Fig. 1 deploys the chip: the
//! accelerator sits on the streaming path, frames never exist in full,
//! and only "the few output bytes of the recognition process" leave for
//! the host.
//!
//! The modeled chip runs every region whole; the host need not. Overlapping
//! regions repeat each other's early convolutions, so
//! [`StreamingPipeline::process_frame`] computes the shareable prefix over
//! each row's full-width strip (the band the §10.2 row buffer holds),
//! rolling it down a worker's band of rows so that a strip computes only
//! its new input rows, and replays each region from its window of it,
//! charged the full schedule (DESIGN.md §3l, "Shared strip prefix").

use crate::cnn::{LayerBody, Network};
use crate::fixed::Fx;
use crate::sensor::{Frame, RegionGrid, StreamError};
use crate::sim::{
    fanout, Accelerator, FaultPlan, FaultStats, InferenceRef, PreparedNetwork, RunError, Session,
};
use crate::tensor::MapStack;
use core::fmt;

/// Error constructing or running a [`StreamingPipeline`].
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// The region size does not match the network's input dimensions.
    RegionShape {
        /// Region size the grid produces.
        region: (usize, usize),
        /// Input size the network expects.
        network: (usize, usize),
    },
    /// The accelerator rejected the network or a region.
    Run(RunError),
    /// The sensor stream rejected the frame.
    Stream(StreamError),
    /// A motion-gate stage could not be built or run.
    Gate(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::RegionShape { region, network } => write!(
                f,
                "grid regions are {}x{} but the network expects {}x{}",
                region.0, region.1, network.0, network.1
            ),
            PipelineError::Run(e) => e.fmt(f),
            PipelineError::Stream(e) => e.fmt(f),
            PipelineError::Gate(e) => write!(f, "motion gate: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<RunError> for PipelineError {
    fn from(e: RunError) -> PipelineError {
        PipelineError::Run(e)
    }
}

impl From<StreamError> for PipelineError {
    fn from(e: StreamError) -> PipelineError {
        PipelineError::Stream(e)
    }
}

/// The shared region-outcome ledger: every frame report — plain,
/// degraded, or video — accounts for each grid region exactly once, so
/// the four counters always balance to the grid size. Hosts read one
/// vocabulary regardless of which pipeline produced the frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionLedger {
    /// Regions run through the accelerator this frame.
    pub computed: usize,
    /// Regions whose cached result was replayed (motion-gated skip).
    pub skipped: usize,
    /// Regions that completed only after fault retries.
    pub degraded: usize,
    /// Regions dropped (faulted out or over budget) with no output.
    pub dropped: usize,
}

impl RegionLedger {
    /// Total regions accounted for — the grid size when balanced.
    pub fn total(&self) -> usize {
        self.computed + self.skipped + self.degraded + self.dropped
    }

    /// Regions that produced an output (everything but dropped).
    pub fn covered(&self) -> usize {
        self.computed + self.skipped + self.degraded
    }

    /// Fraction of regions that produced an output (1.0 when empty).
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            return 1.0;
        }
        self.covered() as f64 / self.total() as f64
    }
}

/// A worker's cycle totals. They are integer sums, so the frame total is
/// the same whichever worker ran which region; only energy (`f64`) is
/// kept per region and summed in grid order.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RegionTally {
    pub(crate) load_cycles: u64,
    pub(crate) compute_cycles: u64,
}

impl RegionTally {
    /// Records a run: adds its cycles, copies its output into `output`
    /// and returns its energy in nJ. `output` is a buffer the caller
    /// owns (a report slot reserved on the caller thread, or a reused
    /// cache entry), so workers allocate nothing that outlives them.
    pub(crate) fn record(&mut self, run: &InferenceRef<'_>, output: &mut Vec<Fx>) -> f64 {
        output.clear();
        for map in run.output().iter() {
            output.extend_from_slice(map.as_slice());
        }
        let load_cycles = run.stats().layers()[0].cycles;
        self.load_cycles += load_cycles;
        self.compute_cycles += run.stats().cycles() - load_cycles;
        run.energy().total_nj()
    }

    /// Adds another worker's tally.
    pub(crate) fn absorb(&mut self, other: RegionTally) {
        self.load_cycles += other.load_cycles;
        self.compute_cycles += other.compute_cycles;
    }
}

/// One region's recognition result.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionResult {
    /// Region origin within the frame.
    pub origin: (usize, usize),
    /// The network's output neurons for this region.
    pub output: Vec<Fx>,
}

/// Timing and energy of one processed frame.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameReport {
    results: Vec<RegionResult>,
    compute_cycles: u64,
    load_cycles: u64,
    energy_nj: f64,
    frequency_ghz: f64,
}

impl FrameReport {
    /// Per-region outputs, in the grid's row-major order.
    pub fn results(&self) -> &[RegionResult] {
        &self.results
    }

    /// Regions whose first output neuron exceeds `threshold` — the
    /// detection set a host would receive.
    pub fn detections(&self, threshold: Fx) -> Vec<&RegionResult> {
        self.results
            .iter()
            .filter(|r| r.output.first().is_some_and(|&v| v > threshold))
            .collect()
    }

    /// Accelerator cycles spent computing (NBin loads excluded).
    pub fn compute_cycles(&self) -> u64 {
        self.compute_cycles
    }

    /// Cycles spent streaming regions into NBin.
    pub fn load_cycles(&self) -> u64 {
        self.load_cycles
    }

    /// Frame latency in seconds when region loads overlap the previous
    /// region's compute (the deployment of Fig. 1: the sensor streams at
    /// a matched rate, §10.2) — compute plus one pipeline-fill load.
    pub fn seconds_overlapped(&self) -> f64 {
        let fill = self.load_cycles / (self.results.len().max(1) as u64);
        (self.compute_cycles + fill) as f64 / (self.frequency_ghz * 1e9)
    }

    /// Frame latency with serial loads (no overlap) — the pessimistic
    /// bound.
    pub fn seconds_serial(&self) -> f64 {
        (self.compute_cycles + self.load_cycles) as f64 / (self.frequency_ghz * 1e9)
    }

    /// Sustained frames per second under overlapped streaming.
    pub fn fps(&self) -> f64 {
        1.0 / self.seconds_overlapped()
    }

    /// Energy for the whole frame in nanojoules.
    pub fn energy_nj(&self) -> f64 {
        self.energy_nj
    }

    /// The region-outcome ledger: every region of a plain frame is
    /// computed, so the ledger is all-`computed`.
    pub fn ledger(&self) -> RegionLedger {
        RegionLedger {
            computed: self.results.len(),
            ..RegionLedger::default()
        }
    }
}

/// A deployed recognition pipeline: a network on an accelerator, fed by a
/// region grid.
///
/// # Examples
///
/// ```
/// use shidiannao::pipeline::StreamingPipeline;
/// use shidiannao::prelude::*;
/// use shidiannao::sensor::{RegionGrid, SyntheticSensor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = zoo::gabor().build(1)?; // 20×20 input
/// let grid = RegionGrid::new((40, 40), (20, 20), (20, 20));
/// let pipe = StreamingPipeline::new(
///     Accelerator::new(AcceleratorConfig::paper()),
///     net,
///     grid,
/// )?;
/// let mut cam = SyntheticSensor::new(40, 40, 7);
/// let report = pipe.process_frame(&cam.next_frame())?;
/// assert_eq!(report.results().len(), 4);
/// assert!(report.fps() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct StreamingPipeline {
    prepared: PreparedNetwork,
    grid: RegionGrid,
    /// What one evaluation per region-row strip computes for the row.
    prefix: StripPrefix,
}

/// A grid's shared strip prefix (DESIGN.md §3l).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StripPrefix {
    /// Leading layers computed once per region-row strip; 0 runs every
    /// region whole.
    layers: usize,
    /// Their cumulative `x`-stride: region `x`'s window of the strip's
    /// output starts at column `x / stride`.
    stride: usize,
    /// The window's width: layer `layers − 1`'s output width (the
    /// region's own when `layers` is 0).
    width: usize,
}

/// The shared strip prefix for a grid: how many of the network's
/// structurally shareable layers ([`PreparedNetwork::shareable_prefix`])
/// one evaluation per region row computes for all of the row's regions.
/// Layer `i` stays in while every region's `x`-origin, the clamped last
/// column included, is a multiple of the cumulative `x`-stride `s` of
/// layers `0..=i` — so each region's layer-`i` output is an exact column
/// window of the strip's — and while the strip computes fewer output
/// columns (`ow + (F − R)/s`) than the row's `nx` regions do (`nx · ow`).
/// A grid with no overlap gets 0. Whether a row's strip then rolls on
/// from the row above, the `y` rule, is decided per row
/// ([`StreamingPipeline::continues`]).
fn strip_prefix(prepared: &PreparedNetwork, grid: &RegionGrid) -> StripPrefix {
    let (nx, _) = grid.counts();
    let span = grid.frame_dims().0 - grid.region_dims().0;
    let mut prefix = StripPrefix {
        layers: 0,
        stride: 1,
        width: grid.region_dims().0,
    };
    for layer in &prepared.network().layers()[..prepared.shareable_prefix()] {
        let (LayerBody::Conv { stride, .. } | LayerBody::Pool { stride, .. }) = layer.body() else {
            break;
        };
        let s = prefix.stride * stride.0;
        let aligned = (0..nx).all(|i| grid.origin(i, 0).0.is_multiple_of(s));
        let ow = layer.out_dims().0;
        if !aligned || ow + span / s >= nx * ow {
            break;
        }
        prefix = StripPrefix {
            layers: prefix.layers + 1,
            stride: s,
            width: ow,
        };
    }
    prefix
}

/// A worker's strip state, reused across its rows: the row's input rows
/// (the whole strip, or the rows a continued strip adds), the prefix's
/// output over the strip, one region's window of that, and which region
/// row the strip holds on the worker's session.
pub(crate) struct StripScratch {
    input: MapStack<Fx>,
    prefix: MapStack<Fx>,
    window: MapStack<Fx>,
    row: Option<usize>,
}

impl StripScratch {
    pub(crate) fn new() -> StripScratch {
        StripScratch {
            input: MapStack::new(1, 1),
            prefix: MapStack::new(1, 1),
            window: MapStack::new(1, 1),
            row: None,
        }
    }
}

/// Copies columns `x0..x0 + w` of every map of `src` into `out`.
fn copy_window(src: &MapStack<Fx>, x0: usize, w: usize, out: &mut MapStack<Fx>) {
    let h = src.height();
    out.refill(w, h, src.len(), Fx::ZERO);
    for (m, map) in src.iter().enumerate() {
        let target = out.get_mut(m).expect("refilled to the source's maps");
        for y in 0..h {
            target.row_mut(y).copy_from_slice(&map.row(y)[x0..x0 + w]);
        }
    }
}

impl StreamingPipeline {
    /// Assembles a pipeline, validating that grid regions match the
    /// network input and that the network fits the accelerator. The
    /// network is prepared once here — compiled and its synapse store
    /// banked — so per-region execution does no redundant work.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] on a region/network shape mismatch or if
    /// the network exceeds the on-chip buffers.
    pub fn new(
        accel: Accelerator,
        network: Network,
        grid: RegionGrid,
    ) -> Result<StreamingPipeline, PipelineError> {
        if grid.region_dims() != network.input_dims() {
            return Err(PipelineError::RegionShape {
                region: grid.region_dims(),
                network: network.input_dims(),
            });
        }
        let prepared = accel.prepare(&network)?;
        let prefix = strip_prefix(&prepared, &grid);
        Ok(StreamingPipeline {
            prepared,
            grid,
            prefix,
        })
    }

    /// The grid driving the pipeline.
    pub fn grid(&self) -> &RegionGrid {
        &self.grid
    }

    /// The prepared network backing the pipeline (compiled schedule,
    /// banked synapse store, optimizer report).
    pub fn prepared(&self) -> &PreparedNetwork {
        &self.prepared
    }

    /// The network being served.
    pub fn network(&self) -> &Network {
        self.prepared.network()
    }

    /// The new input rows when region row `row`'s strip continues row
    /// `row − 1`'s in a worker's `band` of rows: the `y`-step between
    /// their origins, when `row` is not the band's first and the shared
    /// prefix rolls down that step
    /// ([`PreparedNetwork::prefix_rolls`](crate::sim::PreparedNetwork::prefix_rolls)).
    /// `None` starts the strip fresh.
    fn continues(&self, row: usize, band: usize) -> Option<usize> {
        if row.is_multiple_of(band) {
            return None;
        }
        let y = |j| self.grid.origin(0, j).1;
        let step = y(row) - y(row - 1);
        self.prepared
            .prefix_rolls(self.prefix.layers, step)
            .then_some(step)
    }

    /// Leading layers one evaluation per region-row strip computes for
    /// the whole row (0 when the grid shares none).
    pub(crate) fn prefix_layers(&self) -> usize {
        self.prefix.layers
    }

    /// The worker's step for region `index` of a strip row, on a worker
    /// that takes whole `band`s of rows: at the row's first region it
    /// tiles the row's strip and computes the shared prefix over it, and
    /// every region then replays the remaining layers from its own
    /// window ([`Session::infer_ref_from`]). The strip rolls on from the
    /// worker's previous one — tiling and feeding only the new input
    /// rows — when that strip was the row above, in the same band, and
    /// the prefix rolls down the step between them; otherwise it starts
    /// fresh. A delta load staged before the call is consumed by the
    /// region's run.
    pub(crate) fn strip_region<'s>(
        &self,
        session: &'s mut Session<'_>,
        frame: &Frame,
        index: usize,
        band: usize,
        strip: &mut StripScratch,
    ) -> Result<InferenceRef<'s>, PipelineError> {
        let StripPrefix {
            layers: k,
            stride,
            width,
        } = self.prefix;
        let (nx, _) = self.grid.counts();
        let row = index / nx;
        if index.is_multiple_of(nx) {
            let step = self
                .continues(row, band)
                .filter(|_| strip.row == Some(row - 1));
            let rows = step.unwrap_or(self.grid.region_dims().1);
            let maps = self.network().input_maps();
            self.grid
                .try_strip_into(frame, row, rows, maps, &mut strip.input)?;
            if k > 0 {
                session.prefix_values(k, &strip.input, step.is_some(), &mut strip.prefix)?;
            }
            strip.row = Some(row);
        }
        let src = if k > 0 { &strip.prefix } else { &strip.input };
        let x = self.grid.origin(index % nx, row).0;
        copy_window(src, x / stride, width, &mut strip.window);
        Ok(session.infer_ref_from(k, &strip.window)?)
    }

    /// Runs every region of a frame through the accelerator.
    ///
    /// Regions run in parallel on `RAYON_NUM_THREADS` threads, else all
    /// cores (see DESIGN.md, "Region-parallel frames"), each taking one
    /// block of about `ny / workers` whole region rows. A worker computes the
    /// grid's shared prefix once per row (for ConvNN on the paper grid,
    /// C1–S4: DESIGN.md §3l) over the row's strip — the §10.2 row
    /// buffer's band, the frame's full width at region height. The
    /// band's first strip is computed whole; each later one that can,
    /// rolls: the worker tiles and feeds only the input rows below the
    /// previous strip. Each region then replays only the remaining
    /// layers from its own window of the strip
    /// ([`Session::infer_ref_from`](crate::sim::Session::infer_ref_from)),
    /// charged the full recorded schedule, Load included. The report is
    /// folded in grid order and is bit-identical to running every region
    /// whole, at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stream`] if the frame's dimensions do not
    /// match the grid, and [`PipelineError::Run`] if a region run fails
    /// (cannot happen after a successful [`StreamingPipeline::new`]).
    pub fn process_frame(&self, frame: &Frame) -> Result<FrameReport, PipelineError> {
        self.process_frame_with(frame, fanout::workers(0))
    }

    /// [`StreamingPipeline::process_frame`] on exactly `workers` workers.
    pub(crate) fn process_frame_with(
        &self,
        frame: &Frame,
        workers: usize,
    ) -> Result<FrameReport, PipelineError> {
        let outputs = self.network().output_count();
        let (nx, ny) = self.grid.counts();
        // Each worker rolls the prefix down one band of region rows.
        let band = ny.div_ceil(workers.max(1));
        let mut results: Vec<RegionResult> = self
            .grid
            .origins()
            .map(|origin| RegionResult {
                origin,
                output: Vec::with_capacity(outputs),
            })
            .collect();
        let mut slots: Vec<_> = results.iter_mut().map(|r| (r, 0.0)).collect();
        // One session per worker serves all of its regions: buffers and
        // the PE mesh stay allocated, and no region recompiles anything.
        let states = fanout::run(
            &mut slots,
            band * nx,
            workers,
            || {
                (
                    self.prepared.session(),
                    RegionTally::default(),
                    StripScratch::new(),
                )
            },
            |(session, tally, strip), i, (result, energy_nj)| {
                let run = self.strip_region(session, frame, i, band, strip)?;
                *energy_nj = tally.record(&run, &mut result.output);
                Ok::<_, PipelineError>(())
            },
        )?;
        let energy_nj = slots.iter().fold(0.0, |sum, (_, nj)| sum + nj);
        drop(slots);
        let mut tally = RegionTally::default();
        for (_, t, _) in states {
            tally.absorb(t);
        }
        Ok(FrameReport {
            results,
            compute_cycles: tally.compute_cycles,
            load_cycles: tally.load_cycles,
            energy_nj,
            frequency_ghz: self.prepared.config().frequency_ghz,
        })
    }

    /// Runs a frame under a fault plan with graceful degradation instead
    /// of frame abort.
    ///
    /// Each region runs in a fault-injecting session salted by
    /// `(frame, region, attempt)`, so every attempt sees an independent —
    /// but fully replayable — fault pattern. When SRAM protection detects
    /// an uncorrectable error the region is **retried** up to
    /// `policy.max_retries` times (a real controller would re-fetch the
    /// region from the row buffer), then **dropped**; the cycles burned by
    /// failed attempts are still charged. That loop is
    /// [`Session::infer_retrying`](crate::sim::Session::infer_retrying)
    /// with no slack bound. A per-frame cycle budget acts as the
    /// watchdog: checked before each region, once spent it drops the
    /// remaining regions without running them. The frame always
    /// completes with per-region outcomes rather than propagating
    /// [`RunError::FaultDetected`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stream`] on a frame/grid mismatch and
    /// [`PipelineError::Run`] only for non-fault failures.
    pub fn process_frame_degraded(
        &self,
        frame: &Frame,
        plan: FaultPlan,
        policy: &DegradePolicy,
    ) -> Result<DegradedFrameReport, PipelineError> {
        self.grid.check(frame)?;
        let maps = self.network().input_maps();
        let mut results = Vec::with_capacity(self.grid.count());
        let mut cycles = 0u64;
        let mut energy_nj = 0.0;
        let mut fault_stats = FaultStats::default();
        let mut session = self.prepared.session_with_faults(plan);
        let mut region = MapStack::new(1, 1);
        for (ri, origin) in self.grid.origins().enumerate() {
            if policy
                .frame_cycle_budget
                .is_some_and(|budget| cycles >= budget)
            {
                results.push(DegradedRegionResult {
                    origin,
                    outcome: DegradeOutcome::DroppedBudget,
                    output: None,
                });
                continue;
            }
            frame.try_region_into(origin, self.grid.region_dims(), maps, &mut region)?;
            let retried = session.infer_retrying(
                &region,
                0..=policy.max_retries,
                |attempt| {
                    plan.with_salt((frame.index() << 32) ^ ((ri as u64) << 8) ^ u64::from(attempt))
                },
                u64::MAX,
            )?;
            cycles += retried.cycles;
            fault_stats.absorb(&retried.fault_stats);
            let output = retried.run.map(|run| {
                energy_nj += run.energy().total_nj();
                run.output_flat()
            });
            results.push(DegradedRegionResult {
                origin,
                outcome: retried.outcome,
                output,
            });
        }
        Ok(DegradedFrameReport {
            results,
            cycles,
            energy_nj,
            frequency_ghz: self.prepared.config().frequency_ghz,
            fault_stats,
        })
    }
}

/// How [`StreamingPipeline::process_frame_degraded`] responds to detected
/// faults and deadline pressure, and what happened to one region under
/// it. Both types live in `shidiannao-faults`; they are re-exported here
/// under their historical path.
pub use crate::faults::{DegradeOutcome, DegradePolicy};

/// One region's result under graceful degradation.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradedRegionResult {
    /// Region origin within the frame.
    pub origin: (usize, usize),
    /// How the region completed (or didn't).
    pub outcome: DegradeOutcome,
    /// The network outputs, present unless the region was dropped.
    pub output: Option<Vec<Fx>>,
}

/// A whole frame's outcome under graceful degradation.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradedFrameReport {
    results: Vec<DegradedRegionResult>,
    cycles: u64,
    energy_nj: f64,
    frequency_ghz: f64,
    fault_stats: FaultStats,
}

impl DegradedFrameReport {
    /// Per-region outcomes, in the grid's row-major order.
    pub fn results(&self) -> &[DegradedRegionResult] {
        &self.results
    }

    /// Regions that completed on the first attempt.
    pub fn ok_regions(&self) -> usize {
        self.count(|o| o == DegradeOutcome::Ok)
    }

    /// Regions that completed only after retries.
    pub fn degraded_regions(&self) -> usize {
        self.count(|o| matches!(o, DegradeOutcome::Degraded { .. }))
    }

    /// Regions dropped (faulted out or over budget).
    pub fn dropped_regions(&self) -> usize {
        self.count(|o| {
            matches!(
                o,
                DegradeOutcome::DroppedFaulty | DegradeOutcome::DroppedBudget
            )
        })
    }

    /// Fraction of regions that produced an output.
    pub fn coverage(&self) -> f64 {
        self.ledger().coverage()
    }

    /// The region-outcome ledger shared with [`FrameReport::ledger`] and
    /// the video pipeline: `computed`/`degraded`/`dropped` balance to the
    /// grid size (a degraded frame never skips).
    pub fn ledger(&self) -> RegionLedger {
        RegionLedger {
            computed: self.ok_regions(),
            skipped: 0,
            degraded: self.degraded_regions(),
            dropped: self.dropped_regions(),
        }
    }

    /// Total cycles spent, including failed attempts.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Frame latency in seconds (retries included).
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (self.frequency_ghz * 1e9)
    }

    /// Energy of the successful runs in nanojoules.
    pub fn energy_nj(&self) -> f64 {
        self.energy_nj
    }

    /// Aggregated fault-injection statistics across all attempts.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    fn count(&self, pred: impl Fn(DegradeOutcome) -> bool) -> usize {
        self.results.iter().filter(|r| pred(r.outcome)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::sensor::SyntheticSensor;

    fn small_pipeline() -> (StreamingPipeline, SyntheticSensor) {
        let net = zoo::gabor().build(1).unwrap();
        let grid = RegionGrid::new((36, 28), (20, 20), (16, 8));
        let pipe = StreamingPipeline::new(Accelerator::new(AcceleratorConfig::paper()), net, grid)
            .unwrap();
        (pipe, SyntheticSensor::new(36, 28, 3))
    }

    #[test]
    fn processes_every_region() {
        let (pipe, mut cam) = small_pipeline();
        let report = pipe.process_frame(&cam.next_frame()).unwrap();
        assert_eq!(report.results().len(), pipe.grid().count());
        assert!(report.compute_cycles() > 0);
        assert!(report.load_cycles() > 0);
        assert!(report.energy_nj() > 0.0);
    }

    #[test]
    fn overlapped_streaming_is_faster_than_serial() {
        let (pipe, mut cam) = small_pipeline();
        let report = pipe.process_frame(&cam.next_frame()).unwrap();
        assert!(report.seconds_overlapped() < report.seconds_serial());
        assert!(report.fps() > 1.0 / report.seconds_serial());
    }

    #[test]
    fn detections_threshold_filters() {
        let (pipe, mut cam) = small_pipeline();
        let report = pipe.process_frame(&cam.next_frame()).unwrap();
        let all = report.detections(Fx::MIN).len();
        let none = report.detections(Fx::MAX).len();
        assert_eq!(all, report.results().len());
        assert_eq!(none, 0);
    }

    #[test]
    fn shape_mismatch_is_rejected_at_construction() {
        let net = zoo::gabor().build(1).unwrap(); // expects 20×20
        let grid = RegionGrid::new((64, 64), (32, 32), (16, 16));
        let err = StreamingPipeline::new(Accelerator::new(AcceleratorConfig::paper()), net, grid)
            .unwrap_err();
        assert!(err.to_string().contains("expects 20x20"), "{err}");
    }

    #[test]
    fn mismatched_frame_is_a_typed_stream_error() {
        let (pipe, _) = small_pipeline();
        let mut wrong = SyntheticSensor::new(64, 64, 3);
        let err = pipe.process_frame(&wrong.next_frame()).unwrap_err();
        assert!(matches!(err, PipelineError::Stream(_)), "{err:?}");
    }

    #[test]
    fn degraded_run_with_zero_plan_matches_plain_run() {
        let (pipe, mut cam) = small_pipeline();
        let frame = cam.next_frame();
        let plain = pipe.process_frame(&frame).unwrap();
        let degraded = pipe
            .process_frame_degraded(&frame, FaultPlan::none(), &DegradePolicy::default())
            .unwrap();
        assert_eq!(degraded.ok_regions(), pipe.grid().count());
        assert_eq!(degraded.degraded_regions(), 0);
        assert_eq!(degraded.dropped_regions(), 0);
        assert_eq!(degraded.coverage(), 1.0);
        assert_eq!(degraded.fault_stats().total_faults(), 0);
        for (d, p) in degraded.results().iter().zip(plain.results()) {
            assert_eq!(d.origin, p.origin);
            assert_eq!(d.output.as_deref(), Some(p.output.as_slice()));
        }
    }

    #[test]
    fn detected_faults_degrade_or_drop_but_never_abort_the_frame() {
        use crate::sim::{FaultConfig, SramProtection};
        let (pipe, mut cam) = small_pipeline();
        let frame = cam.next_frame();
        // Parity at a high flip rate: detections are certain, so the
        // degradation path (retry, then drop) must carry the frame.
        let plan = FaultPlan::new(FaultConfig::uniform(11, 1e-3, SramProtection::Parity));
        let policy = DegradePolicy {
            max_retries: 1,
            frame_cycle_budget: None,
        };
        let report = pipe.process_frame_degraded(&frame, plan, &policy).unwrap();
        assert_eq!(report.results().len(), pipe.grid().count());
        assert!(report.fault_stats().detected > 0);
        assert!(report.dropped_regions() + report.degraded_regions() > 0);
        assert!(report.cycles() > 0);
        // Replayable: same plan, same frame, same outcome.
        let again = pipe.process_frame_degraded(&frame, plan, &policy).unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn cycle_budget_watchdog_drops_remaining_regions() {
        let (pipe, mut cam) = small_pipeline();
        let frame = cam.next_frame();
        let unlimited = pipe
            .process_frame_degraded(&frame, FaultPlan::none(), &DegradePolicy::default())
            .unwrap();
        let per_region = unlimited.cycles() / pipe.grid().count() as u64;
        // Budget for roughly one region: the rest must be dropped unrun.
        let policy = DegradePolicy {
            max_retries: 0,
            frame_cycle_budget: Some(per_region + 1),
        };
        let report = pipe
            .process_frame_degraded(&frame, FaultPlan::none(), &policy)
            .unwrap();
        assert!(report.ok_regions() >= 1);
        assert!(report.dropped_regions() >= 1);
        assert_eq!(
            report.ok_regions() + report.dropped_regions(),
            pipe.grid().count()
        );
        assert!(report.coverage() < 1.0);
        // Budget zero drops everything before any work.
        let none = pipe
            .process_frame_degraded(
                &frame,
                FaultPlan::none(),
                &DegradePolicy {
                    max_retries: 0,
                    frame_cycle_budget: Some(0),
                },
            )
            .unwrap();
        assert_eq!(none.dropped_regions(), pipe.grid().count());
        assert_eq!(none.cycles(), 0);
    }

    /// The public-API oracle: every region tiled with `grid.stream` and
    /// run whole through `Session::infer` on one session, summed in grid
    /// order — `(cycles, energy nJ, outputs)`.
    fn per_region_loop(pipe: &StreamingPipeline, frame: &Frame) -> (u64, f64, Vec<Vec<Fx>>) {
        let mut session = pipe.prepared().session();
        let (mut cycles, mut nj, mut outputs) = (0, 0.0f64, Vec::new());
        for region in pipe.grid().stream(frame, pipe.network().input_maps()) {
            let run = session.infer(&region).unwrap();
            cycles += run.stats().cycles();
            nj += run.energy().total_nj();
            outputs.push(run.output_flat());
        }
        (cycles, nj, outputs)
    }

    /// Whether a report equals the oracle: outputs, cycles, and energy
    /// by bits.
    fn matches_loop(
        report: &FrameReport,
        (cycles, nj, outputs): &(u64, f64, Vec<Vec<Fx>>),
    ) -> bool {
        report.compute_cycles() + report.load_cycles() == *cycles
            && report.energy_nj().to_bits() == nj.to_bits()
            && report
                .results()
                .iter()
                .map(|r| &r.output)
                .eq(outputs.iter())
    }

    /// The executor's fold reproduces the one-session serial loop bit for
    /// bit at every worker count, on a grid of several region rows whose
    /// strips share C1–C3 and roll down each worker's band.
    #[test]
    fn reports_are_identical_at_any_worker_count() {
        let net = zoo::gabor().build(1).unwrap();
        let grid = RegionGrid::new((120, 102), (20, 20), (6, 8));
        let pipe = StreamingPipeline::new(Accelerator::new(AcceleratorConfig::paper()), net, grid)
            .unwrap();
        // Origins step by 6 and the last column is 100: even, but not all
        // multiples of S4's cumulative stride 4.
        assert_eq!(pipe.prefix.layers, 3);
        assert!(grid.counts().1 > 4);
        let frame = SyntheticSensor::new(120, 102, 5).next_frame();
        let oracle = per_region_loop(&pipe, &frame);
        for workers in [1, 2, 3, 7] {
            let report = pipe.process_frame_with(&frame, workers).unwrap();
            assert!(matches_loop(&report, &oracle), "{workers} workers");
        }
        let wrong = SyntheticSensor::new(64, 64, 5).next_frame();
        let err = pipe.process_frame_with(&wrong, 3).unwrap_err();
        assert!(matches!(err, PipelineError::Stream(_)), "{err:?}");
    }

    fn pipeline(net: Network, grid: RegionGrid) -> StreamingPipeline {
        StreamingPipeline::new(Accelerator::new(AcceleratorConfig::paper()), net, grid).unwrap()
    }

    /// The strip prefix each rule leaves: ConvNN shares C1–S4 on the
    /// paper grid (C5's strip would be 145 columns against 37 regions'
    /// one each); a grid without overlap shares nothing; FaceRecog's
    /// ceiling S2 clips at the region edge, so at most C1 is shared.
    ///
    /// And which strips roll. ConvNN on the paper grid continues every
    /// row but a band's first: C1–S4 step 4 input rows per output row,
    /// and the grid steps 16 rows, then 12 to the clamped last row (444).
    /// Steps off the cumulative `y`-stride, and steps past the overlap,
    /// start fresh; FaceRecog's C1 steps 1 row, so any overlap rolls.
    #[test]
    fn strip_prefix_follows_structure_alignment_and_cost() {
        let convnn = pipeline(zoo::convnn().build(1).unwrap(), RegionGrid::paper_convnn());
        assert_eq!(convnn.prepared().shareable_prefix(), 5);
        assert_eq!(
            convnn.prefix,
            StripPrefix {
                layers: 4,
                stride: 4,
                width: 14
            }
        );
        let gabor = || zoo::gabor().build(1).unwrap();
        let doc = pipeline(gabor(), RegionGrid::new((40, 40), (20, 20), (20, 20)));
        assert_eq!(doc.prefix.layers, 0);
        let misaligned = pipeline(gabor(), RegionGrid::new((41, 40), (20, 20), (7, 20)));
        assert_eq!(misaligned.prefix.layers, 1);
        let recog = zoo::face_recog().build(1).unwrap();
        let recog = pipeline(recog, RegionGrid::new((63, 40), (23, 28), (4, 6)));
        assert_eq!(recog.prepared().shareable_prefix(), 1);
        assert_eq!(recog.prefix.layers, 1);

        let (_, ny) = convnn.grid().counts();
        assert_eq!(ny, 29);
        for band in [ny, 15, 10, 1] {
            for row in 0..ny {
                let want = match row {
                    _ if row.is_multiple_of(band) => None,
                    28 => Some(12),
                    _ => Some(16),
                };
                assert_eq!(convnn.continues(row, band), want, "row {row}, band {band}");
            }
        }
        // C1–C3 step 2 rows; the last row clamps to 80, a step of 3.
        let odd = pipeline(gabor(), RegionGrid::new((120, 100), (20, 20), (6, 7)));
        assert_eq!(odd.prefix.layers, 3);
        assert!((1..odd.grid().counts().1).all(|row| odd.continues(row, 99).is_none()));
        // Steps of 8, then 2 to the clamped last row (82).
        let even = pipeline(gabor(), RegionGrid::new((120, 102), (20, 20), (6, 8)));
        assert_eq!(even.prefix.layers, 3);
        let (_, ny) = even.grid().counts();
        assert!((1..ny - 1).all(|row| even.continues(row, 99) == Some(8)));
        assert_eq!(even.continues(ny - 1, 99), Some(2));
        // C1's 16 output rows cannot take a 20-row step.
        assert_eq!(misaligned.continues(1, 2), None);
        assert_eq!(recog.continues(1, 9), Some(6));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Any of three networks, any grid, strides aligned to the
        /// prefix or not in `x` and in `y` (so strips roll, or start
        /// fresh), any worker count (so bands split anywhere): the
        /// report equals the public per-region loop and the
        /// single-worker report.
        #[test]
        fn worker_count_never_changes_a_report(
            which in 0usize..3,
            extra in (0usize..40, 0usize..40),
            stride in (1usize..12, 1usize..13),
            aligned in (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
            workers in 2usize..9,
            seed in 0u64..1_000,
        ) {
            // Gabor; FaceAlign (floor-rounded S4, 21→10 in y, so C3/S4
            // carries a row no output reads); FaceRecog (ceiling S2,
            // 21→11, which clips in x; its C1 steps 1 row in y).
            let builder = [zoo::gabor, zoo::face_align, zoo::face_recog][which];
            let net = builder().build(1).unwrap();
            let region = net.input_dims();
            // Aligned grids step by a multiple of 4 (every prefix's
            // cumulative stride divides it) and end on one. Aligned
            // x-steps run 4..44, past the region width (grids whose
            // regions do not overlap, or where the cost rule cuts k);
            // aligned y-steps stay at 4..16, so a frame at most 40 rows
            // over the region still has rows that continue a strip.
            let extent = |aligned: bool, r: usize, extra: usize| {
                if aligned { r + extra / 4 * 4 } else { r + extra }
            };
            let sx = if aligned.0 { 4 * stride.0 } else { stride.0 };
            let sy = if aligned.1 { 4 * stride.1.div_ceil(3) } else { stride.1 };
            let (w, h) = (extent(aligned.0, region.0, extra.0), extent(aligned.1, region.1, extra.1));
            let pipe = pipeline(net, RegionGrid::new((w, h), region, (sx, sy)));
            let frame = SyntheticSensor::new(w, h, seed).next_frame();
            let oracle = per_region_loop(&pipe, &frame);
            let serial = pipe.process_frame_with(&frame, 1).unwrap();
            let parallel = pipe.process_frame_with(&frame, workers).unwrap();
            proptest::prop_assert!(matches_loop(&serial, &oracle), "{:?}", pipe.prefix);
            proptest::prop_assert_eq!(serial.energy_nj().to_bits(), parallel.energy_nj().to_bits());
            proptest::prop_assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn region_results_carry_origins() {
        let (pipe, mut cam) = small_pipeline();
        let report = pipe.process_frame(&cam.next_frame()).unwrap();
        assert_eq!(report.results()[0].origin, (0, 0));
        let origins: Vec<_> = pipe.grid().origins().collect();
        for (r, o) in report.results().iter().zip(origins) {
            assert_eq!(r.origin, o);
        }
    }
}
