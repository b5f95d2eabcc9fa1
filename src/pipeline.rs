//! The end-to-end streaming pipeline of §2/§10.2: sensor → partial-frame
//! buffer → region stream → accelerator → per-region recognition outputs.
//!
//! This ties the workspace together the way Fig. 1 deploys the chip: the
//! accelerator sits on the streaming path, frames never exist in full,
//! and only "the few output bytes of the recognition process" leave for
//! the host.

use crate::cnn::Network;
use crate::fixed::Fx;
use crate::sensor::{Frame, RegionGrid, RowBuffer, StreamError};
use crate::sim::{Accelerator, FaultPlan, FaultStats, InferenceRef, PreparedNetwork, RunError};
use core::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Regions a worker claims at a time: large enough that claiming costs
/// nothing next to a block's inferences, small enough that a frame's
/// blocks balance across workers.
const REGION_BLOCK: usize = 32;

/// Workers a frame's regions run on, by the vendored rayon shim's rule:
/// `RAYON_NUM_THREADS` when it is a positive integer, else the machine's
/// available parallelism.
pub(crate) fn frame_workers() -> usize {
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// The region-parallel executor behind both frame pipelines: runs
/// `run(state, i, &mut slots[i])` for every slot, on up to `workers`
/// threads, the calling thread included, and returns the states the
/// workers opened.
///
/// Slots are split into fixed blocks of [`REGION_BLOCK`], claimed through
/// an atomic index. Each worker opens its own `state` (a `Session` and
/// its tally) with `open` on its first block and writes only into the
/// slots of the blocks it claimed, so callers fold the slots afterwards
/// in grid order and get the same report at any worker count. The caller
/// thread drains blocks too rather than idling: every extra thread costs
/// memory of its own.
///
/// # Errors
///
/// The error of the lowest-indexed slot that failed.
pub(crate) fn run_regions<T, S, E>(
    slots: &mut [T],
    workers: usize,
    open: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize, &mut T) -> Result<(), E> + Sync,
) -> Result<Vec<S>, E>
where
    T: Send,
    S: Send,
    E: Send,
{
    let workers = workers.min(slots.len().div_ceil(REGION_BLOCK));
    if workers <= 1 {
        let mut state = None;
        for (i, slot) in slots.iter_mut().enumerate() {
            run(state.get_or_insert_with(&open), i, slot)?;
        }
        return Ok(state.into_iter().collect());
    }
    let blocks: Vec<Mutex<&mut [T]>> = slots.chunks_mut(REGION_BLOCK).map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let failed: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let drain = || {
        let mut state = None;
        loop {
            // Relaxed: the index only hands out block numbers; each
            // block's slots sit behind their own mutex.
            let b = next.fetch_add(1, Ordering::Relaxed);
            let Some(block) = blocks.get(b) else { break };
            let mut block = block.lock().expect("a region block is claimed once");
            let state = state.get_or_insert_with(&open);
            for (k, slot) in block.iter_mut().enumerate() {
                let i = b * REGION_BLOCK + k;
                if let Err(e) = run(state, i, slot) {
                    let mut failed = failed.lock().expect("no worker panics holding it");
                    if failed.as_ref().is_none_or(|(j, _)| i < *j) {
                        *failed = Some((i, e));
                    }
                    break;
                }
            }
        }
        state
    };
    let states = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut states: Vec<S> = drain().into_iter().collect();
        for worker in spawned {
            states.extend(
                worker
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        states
    });
    match failed.into_inner().expect("no worker panics holding it") {
        Some((_, e)) => Err(e),
        None => Ok(states),
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
        Ok(StreamingPipeline { prepared, grid })
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

    /// The §10.2 partial-frame buffer this pipeline needs.
    pub fn row_buffer(&self) -> RowBuffer {
        RowBuffer::for_grid(&self.grid, 2)
    }

    /// Runs every region of a frame through the accelerator.
    ///
    /// Regions are independent — each is its own NBin load and run — so
    /// they run in parallel on [`frame_workers`] threads (see DESIGN.md,
    /// "Region-parallel frames"). The report is folded in grid order and
    /// is bit-identical at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stream`] if the frame's dimensions do not
    /// match the grid, and [`PipelineError::Run`] if a region run fails
    /// (cannot happen after a successful [`StreamingPipeline::new`]).
    pub fn process_frame(&self, frame: &Frame) -> Result<FrameReport, PipelineError> {
        self.process_frame_with(frame, frame_workers())
    }

    /// [`StreamingPipeline::process_frame`] on exactly `workers` workers.
    pub(crate) fn process_frame_with(
        &self,
        frame: &Frame,
        workers: usize,
    ) -> Result<FrameReport, PipelineError> {
        let maps = self.network().input_maps();
        let outputs = self.network().output_count();
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
        let states = run_regions(
            &mut slots,
            workers,
            || (self.prepared.session(), RegionTally::default()),
            |(session, tally), i, (result, energy_nj)| {
                let region = self.grid.try_region(frame, i, maps)?;
                *energy_nj = tally.record(&session.infer_ref(&region)?, &mut result.output);
                Ok::<_, PipelineError>(())
            },
        )?;
        let energy_nj = slots.iter().fold(0.0, |sum, (_, nj)| sum + nj);
        drop(slots);
        let mut tally = RegionTally::default();
        for (_, t) in states {
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
    /// failed attempts are still charged. A per-frame cycle budget acts as
    /// the watchdog: once spent, remaining regions are dropped without
    /// running. The frame always completes with per-region outcomes
    /// rather than propagating [`RunError::FaultDetected`].
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
        let maps = self.network().input_maps();
        let origins: Vec<_> = self.grid.origins().collect();
        let mut results = Vec::with_capacity(origins.len());
        let mut cycles = 0u64;
        let mut energy_nj = 0.0;
        let mut fault_stats = FaultStats::default();
        let mut session = self.prepared.session_with_faults(plan);
        for ((ri, origin), region) in origins
            .into_iter()
            .enumerate()
            .zip(self.grid.try_stream(frame, maps)?)
        {
            if policy
                .frame_cycle_budget
                .is_some_and(|budget| cycles >= budget)
            {
                results.push(DegradedRegionResult {
                    origin,
                    outcome: RegionOutcome::DroppedBudget,
                    output: None,
                });
                continue;
            }
            let mut outcome = RegionOutcome::DroppedFaulty;
            let mut output = None;
            for attempt in 0..=policy.max_retries {
                let salt = (frame.index() << 32) ^ ((ri as u64) << 8) ^ attempt as u64;
                session.set_fault_plan(plan.with_salt(salt));
                match session.infer(&region) {
                    Ok(run) => {
                        cycles += run.stats().cycles();
                        energy_nj += run.energy().total_nj();
                        fault_stats.absorb(run.fault_stats());
                        output = Some(run.output_flat());
                        outcome = if attempt == 0 {
                            RegionOutcome::Ok
                        } else {
                            RegionOutcome::Degraded { retries: attempt }
                        };
                        break;
                    }
                    Err(RunError::FaultDetected(_)) => {
                        // The aborted attempt's cycles are real time the
                        // watchdog saw pass; charge them before retrying.
                        cycles += session.last_cycles();
                        fault_stats.absorb(session.fault_stats());
                    }
                    Err(e) => return Err(PipelineError::Run(e)),
                }
            }
            results.push(DegradedRegionResult {
                origin,
                outcome,
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
/// faults and deadline pressure. The policy type lives in
/// `shidiannao-faults` so the multi-tenant serve scheduler can share it;
/// it is re-exported here under its historical path.
pub use crate::faults::DegradePolicy;

/// What happened to one region under graceful degradation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionOutcome {
    /// Completed on the first attempt.
    Ok,
    /// Completed after `retries` additional attempts.
    Degraded {
        /// Retry count that led to success.
        retries: u32,
    },
    /// Every attempt hit a detected fault; the region was skipped.
    DroppedFaulty,
    /// The frame's cycle budget ran out before this region started.
    DroppedBudget,
}

/// One region's result under graceful degradation.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradedRegionResult {
    /// Region origin within the frame.
    pub origin: (usize, usize),
    /// How the region completed (or didn't).
    pub outcome: RegionOutcome,
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
        self.count(|o| o == RegionOutcome::Ok)
    }

    /// Regions that completed only after retries.
    pub fn degraded_regions(&self) -> usize {
        self.count(|o| matches!(o, RegionOutcome::Degraded { .. }))
    }

    /// Regions dropped (faulted out or over budget).
    pub fn dropped_regions(&self) -> usize {
        self.count(|o| {
            matches!(
                o,
                RegionOutcome::DroppedFaulty | RegionOutcome::DroppedBudget
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

    fn count(&self, pred: impl Fn(RegionOutcome) -> bool) -> usize {
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

    /// The executor's fold reproduces the one-session serial loop bit for
    /// bit at every worker count, on a grid of several blocks with a
    /// ragged last one.
    #[test]
    fn reports_are_identical_at_any_worker_count() {
        let net = zoo::gabor().build(1).unwrap();
        let grid = RegionGrid::new((120, 100), (20, 20), (6, 7));
        assert!(grid.count() > 4 * REGION_BLOCK && !grid.count().is_multiple_of(REGION_BLOCK));
        let pipe = StreamingPipeline::new(Accelerator::new(AcceleratorConfig::paper()), net, grid)
            .unwrap();
        let frame = SyntheticSensor::new(120, 100, 5).next_frame();
        let mut session = pipe.prepared().session();
        let (mut cycles, mut nj, mut outputs) = (0, 0.0f64, Vec::new());
        for region in grid.stream(&frame, 1) {
            let run = session.infer(&region).unwrap();
            cycles += run.stats().cycles();
            nj += run.energy().total_nj();
            outputs.push(run.output_flat());
        }
        for workers in [1, 2, 3, 7] {
            let report = pipe.process_frame_with(&frame, workers).unwrap();
            assert_eq!(report.compute_cycles() + report.load_cycles(), cycles);
            assert_eq!(
                report.energy_nj().to_bits(),
                nj.to_bits(),
                "{workers} workers"
            );
            let got: Vec<_> = report.results().iter().map(|r| r.output.clone()).collect();
            assert_eq!(got, outputs, "{workers} workers");
        }
        let wrong = SyntheticSensor::new(64, 64, 5).next_frame();
        let err = pipe.process_frame_with(&wrong, 3).unwrap_err();
        assert!(matches!(err, PipelineError::Stream(_)), "{err:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Any grid, any stride, any worker count: the report equals the
        /// single-worker one.
        #[test]
        fn worker_count_never_changes_a_report(
            w in 20usize..72,
            h in 20usize..56,
            sx in 3usize..13,
            sy in 3usize..13,
            workers in 2usize..9,
            seed in 0u64..1_000,
        ) {
            let net = zoo::gabor().build(1).unwrap();
            let grid = RegionGrid::new((w, h), (20, 20), (sx, sy));
            let pipe =
                StreamingPipeline::new(Accelerator::new(AcceleratorConfig::paper()), net, grid)
                    .unwrap();
            let frame = SyntheticSensor::new(w, h, seed).next_frame();
            let serial = pipe.process_frame_with(&frame, 1).unwrap();
            let parallel = pipe.process_frame_with(&frame, workers).unwrap();
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
