//! The top-level accelerator: compile, load, execute, report.
//!
//! [`Accelerator::prepare`] performs every input-independent stage once:
//! the capacity check, compilation, the banked synapse-store image, the
//! recorded micro-op schedule ([`crate::NetworkSchedule`]) and the
//! schedule optimizer's cost report ([`crate::opt`]). A [`Session`]
//! borrows the resulting [`PreparedNetwork`] and replays its recorded
//! schedule (or live-decodes every layer with replay off).

use crate::alu::Alu;
use crate::buffer::{
    CapacityError, EmptyBufferError, InstructionBuffer, NeuronBuffer, SynapseBuffer,
};
use crate::compiler::{self, CompileError, Program};
use crate::config::{AcceleratorConfig, ConfigError};
use crate::energy::{EnergyModel, EnergyReport};
use crate::exec::{replay, Engine, Scratch, StripShape};
use crate::hfsm::{FirstState, Hfsm, TransitionError};
use crate::nfu::Nfu;
use crate::sb::SynapseStore;
use crate::schedule::{self, LayerOverlay, LayerSchedule, NetworkSchedule, ScheduleRecorder};
use crate::stats::RunStats;
use core::fmt;
use core::ops::RangeInclusive;
use shidiannao_cnn::{LayerBody, Network};
use shidiannao_faults::{
    DegradeOutcome, DetectedFault, FaultPlan, FaultSite, FaultState, FaultStats,
};
use shidiannao_fixed::Fx;
use shidiannao_tensor::MapStack;
use std::sync::Arc;

/// Error produced by [`Accelerator::prepare`] or a [`Session`] run.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The configuration is invalid.
    Config(ConfigError),
    /// A layer or the CNN as a whole does not fit on chip (§6's sizing
    /// constraint).
    Capacity(CapacityError),
    /// The network cannot be lowered to the 61-bit ISA.
    Compile(CompileError),
    /// The input stack does not match the network's input shape.
    InputShape {
        /// What the network expects: `(maps, width, height)`.
        expected: (usize, usize, usize),
        /// What was provided.
        got: (usize, usize, usize),
    },
    /// A buffer was read (or drained) while holding no data — e.g. after
    /// a failed load.
    EmptyBuffer(EmptyBufferError),
    /// SRAM protection detected an uncorrectable error; the run aborted
    /// instead of silently corrupting data.
    FaultDetected(DetectedFault),
    /// The control path attempted an illegal HFSM transition (a
    /// scheduling bug, never a data error).
    Control(TransitionError),
    /// [`Session::infer_ref_from`] or [`Session::prefix_values`] asked for
    /// a shared prefix of `layers` layers that this session cannot serve.
    Prefix {
        /// The prefix length asked for.
        layers: usize,
        /// Why it cannot be served.
        reason: &'static str,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => e.fmt(f),
            RunError::Capacity(e) => e.fmt(f),
            RunError::Compile(e) => e.fmt(f),
            RunError::InputShape { expected, got } => write!(
                f,
                "input shape {got:?} does not match the network's {expected:?}"
            ),
            RunError::EmptyBuffer(e) => e.fmt(f),
            RunError::FaultDetected(e) => e.fmt(f),
            RunError::Control(e) => e.fmt(f),
            RunError::Prefix { layers, reason } => {
                write!(f, "cannot share a {layers}-layer prefix: {reason}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> RunError {
        RunError::Config(e)
    }
}

impl From<CapacityError> for RunError {
    fn from(e: CapacityError) -> RunError {
        RunError::Capacity(e)
    }
}

impl From<CompileError> for RunError {
    fn from(e: CompileError) -> RunError {
        RunError::Compile(e)
    }
}

impl From<EmptyBufferError> for RunError {
    fn from(e: EmptyBufferError) -> RunError {
        RunError::EmptyBuffer(e)
    }
}

impl From<DetectedFault> for RunError {
    fn from(e: DetectedFault) -> RunError {
        RunError::FaultDetected(e)
    }
}

impl From<TransitionError> for RunError {
    fn from(e: TransitionError) -> RunError {
        RunError::Control(e)
    }
}

/// The ShiDianNao accelerator simulator.
///
/// # Examples
///
/// ```
/// use shidiannao_cnn::zoo;
/// use shidiannao_core::{Accelerator, AcceleratorConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = zoo::gabor().build(1)?;
/// let accel = Accelerator::new(AcceleratorConfig::paper());
/// let run = accel.prepare(&net)?.session().run(&net.random_input(7))?;
/// assert_eq!(run.output().len(), net.output_count());
/// assert!(run.stats().cycles() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Accelerator {
    config: AcceleratorConfig,
    energy_model: EnergyModel,
}

impl Accelerator {
    /// Creates an accelerator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`Accelerator::try_new`] for a non-panicking construction.
    #[allow(clippy::panic)]
    pub fn new(config: AcceleratorConfig) -> Accelerator {
        Accelerator::try_new(config)
            .unwrap_or_else(|e| panic!("invalid accelerator configuration: {e}"))
    }

    /// Creates an accelerator, rejecting invalid configurations with a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration fails validation.
    pub fn try_new(config: AcceleratorConfig) -> Result<Accelerator, ConfigError> {
        config.validate()?;
        Ok(Accelerator {
            config,
            energy_model: EnergyModel::paper_65nm(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// Replaces the energy model (e.g. a different process node).
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        self.energy_model = model;
    }

    /// The NB/SB halves of the capacity check (no compilation needed).
    fn check_data_capacity(&self, network: &Network) -> Result<(), RunError> {
        let nb_cap = self.config.nbin_bytes.min(self.config.nbout_bytes);
        let input_bytes =
            network.input_maps() * network.input_dims().0 * network.input_dims().1 * 2;
        let mut max_layer = input_bytes;
        let mut synapse_bytes = 0;
        for layer in network.layers() {
            max_layer = max_layer.max(layer.out_neurons() * 2);
            // Synapses plus the per-output biases the SB image also holds.
            synapse_bytes += layer.synapse_count() * 2;
            synapse_bytes += match layer.body() {
                shidiannao_cnn::LayerBody::Conv { .. } | shidiannao_cnn::LayerBody::Fc { .. } => {
                    layer.out_maps() * 2
                }
                _ => 0,
            };
        }
        if max_layer > nb_cap {
            return Err(CapacityError {
                buffer: "NBin/NBout",
                needed: max_layer,
                available: nb_cap,
            }
            .into());
        }
        if synapse_bytes > self.config.sb_bytes {
            return Err(CapacityError {
                buffer: "SB",
                needed: synapse_bytes,
                available: self.config.sb_bytes,
            }
            .into());
        }
        Ok(())
    }

    /// The IB half of the capacity check.
    fn check_ib_capacity(&self, program: &Program) -> Result<(), RunError> {
        if program.bytes() > self.config.ib_bytes {
            return Err(CapacityError {
                buffer: "IB",
                needed: program.bytes(),
                available: self.config.ib_bytes,
            }
            .into());
        }
        Ok(())
    }

    /// Performs every per-network (input-independent) stage of an
    /// inference **once** — config validation happened in
    /// [`Accelerator::new`]; this adds the capacity check (every layer's
    /// neurons within NBin/NBout, all synapses within SB, the program
    /// within IB, §6), compilation to the 61-bit program, and the banked
    /// synapse-store image — and returns a [`PreparedNetwork`] whose
    /// [`Session`]s execute inferences without repeating any of it. A
    /// one-shot run is `accel.prepare(&net)?.session().run(&input)`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Capacity`] naming the overflowing buffer, or
    /// [`RunError::Compile`] when a dimension exceeds the ISA's fields.
    pub fn prepare(&self, network: &Network) -> Result<PreparedNetwork, RunError> {
        self.check_data_capacity(network)?;
        let program = compiler::compile(network)?;
        compiler::validate(&program, network)?;
        self.check_ib_capacity(&program)?;
        let store = SynapseStore::load(network, self.config.sb_bytes)?
            .with_banking(self.config.pe_cols, self.config.pe_rows);
        let layer_instruction_counts = (0..network.layers().len())
            .map(|i| program.layer_instruction_count(network, i))
            .collect();
        // `Layer::label` formats a fresh `String`; render each label once
        // here so steady-state inference only copies bytes into recycled
        // stats slots.
        let layer_labels = network.layers().iter().map(|l| l.label()).collect();
        let mut prepared = PreparedNetwork {
            config: self.config.clone(),
            energy_model: self.energy_model,
            network: network.clone(),
            program,
            store,
            layer_instruction_counts,
            layer_labels,
            schedule: Arc::new(NetworkSchedule::empty()),
            opt_report: crate::opt::OptReport::default(),
            shareable_prefix: 0,
            clean_stats: RunStats::new(),
        };
        // Record the precompiled micro-op schedule: one instrumented run
        // with a recorder attached to the fault-filter hook points. The
        // control path is static (nothing depends on input data), so one
        // pass on an arbitrary well-shaped input captures every run's
        // control stream exactly, and its statistics are every clean
        // run's.
        let (schedule, clean_stats) = {
            let input = prepared.network.random_input(0);
            let mut session = prepared.session();
            session.recorder = Some(Box::new(ScheduleRecorder::new()));
            session.execute(0, &input, None)?;
            let recorder = session
                .recorder
                .take()
                .expect("the recording run does not detach the recorder");
            (recorder.into_schedule(), session.stats)
        };
        prepared.clean_stats = clean_stats;
        // Price the optimizer's passes over the recording once; sessions
        // always replay the recording itself.
        prepared.opt_report = crate::opt::optimize(
            &schedule,
            &prepared.network,
            &prepared.config,
            &prepared.energy_model,
        );
        prepared.shareable_prefix = shareable_prefix(&prepared.network, &schedule);
        prepared.schedule = Arc::new(schedule);
        Ok(prepared)
    }
}

impl Default for Accelerator {
    fn default() -> Accelerator {
        Accelerator::new(AcceleratorConfig::paper())
    }
}

/// A network after every input-independent stage of an inference:
/// validated against the configuration's capacities, compiled to its
/// 61-bit program, and with its synapse-store image built and banked.
///
/// Produced by [`Accelerator::prepare`]. Executing through a
/// `PreparedNetwork` never recompiles or rebuilds the SB image
/// (assertable via [`crate::compiler::compile_calls`] and
/// [`SynapseStore::build_calls`]).
///
/// # Examples
///
/// ```
/// use shidiannao_cnn::zoo;
/// use shidiannao_core::{Accelerator, AcceleratorConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = zoo::gabor().build(1)?;
/// let prepared = Accelerator::new(AcceleratorConfig::paper()).prepare(&net)?;
/// let mut session = prepared.session();
/// for seed in 0..4 {
///     let run = session.run(&net.random_input(seed))?;
///     assert_eq!(run.output(), net.forward_fixed(&net.random_input(seed)).output());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PreparedNetwork {
    config: AcceleratorConfig,
    energy_model: EnergyModel,
    network: Network,
    program: Program,
    store: SynapseStore,
    layer_instruction_counts: Vec<usize>,
    layer_labels: Vec<String>,
    /// The precompiled micro-op schedule, read by every session through
    /// its `&PreparedNetwork` — per-tenant control state is paid for
    /// once, not per session (and shared by clones of the network).
    schedule: Arc<NetworkSchedule>,
    /// What the optimizer's passes would save on `schedule`.
    opt_report: crate::opt::OptReport,
    /// Leading layers a strip evaluation can stand in for
    /// ([`PreparedNetwork::shareable_prefix`]).
    shareable_prefix: usize,
    /// The recording run's statistics ([`PreparedNetwork::clean_stats`]).
    clean_stats: RunStats,
}

/// The structural half of the shared strip prefix (DESIGN.md §3l): the
/// leading layers that are conv or pool, replay from the schedule, and
/// whose pool windows never clip at the right edge of the region. Such a
/// layer computes every region column exactly as it computes the same
/// column of a wider strip. Clipping in `y` is harmless to a fresh
/// strip, which is exactly one region tall; only a strip that continues
/// the one above needs unclipped windows in `y`
/// ([`PreparedNetwork::prefix_rolls`]). The last layer always runs on the
/// region itself.
fn shareable_prefix(network: &Network, schedule: &NetworkSchedule) -> usize {
    let layers = network.layers();
    layers
        .iter()
        .zip(schedule.layers())
        .take(layers.len().saturating_sub(1))
        .take_while(|(layer, sl)| {
            sl.replayable()
                && match layer.body() {
                    LayerBody::Conv { .. } => true,
                    LayerBody::Pool { window, stride, .. } => {
                        (layer.out_dims().0 - 1) * stride.0 + window.0 <= layer.in_dims().0
                    }
                    _ => false,
                }
        })
        .count()
}

impl PreparedNetwork {
    /// The configuration this network was prepared for.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The prepared network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The compiled control program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The banked synapse-store image.
    pub fn store(&self) -> &SynapseStore {
        &self.store
    }

    /// The energy model inferences will be charged with.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// The precompiled micro-op schedule (the `Arc` is exposed so
    /// callers can verify sharing: sessions borrow it through the
    /// prepared network, so opening one adds no clone).
    pub fn schedule(&self) -> &Arc<NetworkSchedule> {
        &self.schedule
    }

    /// Per-pass elimination counters the optimizer's cost model priced
    /// over the recorded schedule at prepare time.
    pub fn optimizer_report(&self) -> &crate::opt::OptReport {
        &self.opt_report
    }

    /// The statistics of every clean inference of this network, from
    /// the recording run `prepare` made: cycles, SRAM traffic and PE
    /// activity depend only on the topology, never on the input. Charge
    /// them with [`EnergyModel::charge_run`] for the energy.
    pub fn clean_stats(&self) -> &RunStats {
        &self.clean_stats
    }

    /// How many leading layers a strip evaluation
    /// ([`Session::prefix_values`]) can compute for every region of a
    /// row at once: conv and pool layers that replay and whose pool
    /// windows never clip in `x` at the region's size, stopping before
    /// the last layer. A region grid may use fewer (its strides must
    /// align, and the strip must save work); 0 means none.
    pub fn shareable_prefix(&self) -> usize {
        self.shareable_prefix
    }

    /// Whether a strip of the first `k` layers can *roll* down `step`
    /// input rows: continue the previous strip
    /// ([`Session::prefix_values`] with `continues`) by computing only
    /// the rows below it. That holds when `k` is a shareable prefix;
    /// none of its layers has a `y`-window shorter than its `y`-stride;
    /// none of its pools clips in `y` at the region's size (a clipped
    /// last window would be a whole one in the next strip); `step` is a
    /// positive multiple of the layers' cumulative `y`-stride `s`; and
    /// `step / s`, the new output rows, is at most layer `k − 1`'s output
    /// height.
    pub fn prefix_rolls(&self, k: usize, step: usize) -> bool {
        if k == 0 || k > self.shareable_prefix || step == 0 {
            return false;
        }
        let layers = &self.network.layers()[..k];
        let fits = layers.iter().all(|layer| {
            let (window, stride) = match layer.body() {
                LayerBody::Conv { kernel, stride, .. } => (kernel.1, stride.1),
                LayerBody::Pool { window, stride, .. } => (window.1, stride.1),
                _ => return false,
            };
            window >= stride && (layer.out_dims().1 - 1) * stride + window <= layer.in_dims().1
        });
        let s = replay::y_stride(layers);
        fits && step.is_multiple_of(s) && step / s <= layers[k - 1].out_dims().1
    }

    /// Opens a [`Session`]: NBin/NBout, SB, IB, the PE mesh, and the ALU
    /// are allocated (and SB/IB loaded) once, then reused by every
    /// inference run through it.
    pub fn session(&self) -> Session<'_> {
        self.session_with_faults(FaultPlan::none())
    }

    /// Opens a [`Session`] that executes under a seeded fault plan: SRAM
    /// reads are filtered through the plan, and the plan's stuck-at
    /// faults are installed in the PE mesh. A zero-rate plan behaves (and
    /// performs) exactly like [`PreparedNetwork::session`].
    pub fn session_with_faults(&self, plan: FaultPlan) -> Session<'_> {
        let cfg = &self.config;
        let mut sb = SynapseBuffer::new(cfg.sb_bytes);
        let mut ib = InstructionBuffer::new(cfg.ib_bytes);
        sb.load(self.store.bytes())
            .expect("SB capacity was verified by prepare");
        ib.load(self.program.bytes())
            .expect("IB capacity was verified by prepare");
        let mut nfu = Nfu::new(cfg.pe_cols, cfg.pe_rows);
        nfu.set_stuck_faults(|x, y| plan.pe_stuck(x, y));
        Session {
            prepared: self,
            nbin: NeuronBuffer::new(cfg.pe_cols, cfg.pe_rows, cfg.nbin_bytes),
            nbout: NeuronBuffer::new(cfg.pe_cols, cfg.pe_rows, cfg.nbout_bytes),
            sb,
            ib,
            nfu,
            alu: Alu::new(cfg.alu_lanes),
            faults: FaultState::new(plan),
            scratch: Scratch::default(),
            stats: RunStats::new(),
            last_cycles: 0,
            replay_enabled: true,
            overlays: Vec::new(),
            overlays_valid: false,
            pending_delta_bytes: None,
            staged: NbResidency::default(),
            recorder: None,
        }
    }
}

/// Caller-held cross-frame NBin residency state for
/// [`Session::stage_delta`]: one content hash per input row, keyed by
/// the input geometry.
///
/// The model (DESIGN.md §3k): the double-buffered NBin's *staging* bank
/// — the one the sensor streams the next frame into while the compute
/// bank runs — still holds the previous frame's rows when the same
/// region geometry comes around again. Rows whose content is unchanged
/// need not re-stream; only dirty rows cross the sensor→NBin link. The
/// dirty set is **derived**, not asserted: `stage_delta` hashes every
/// row of the presented input (the same `mix64` finalizer the schedule
/// recorder's `AccessSet` hashes addresses with) and compares against
/// the resident hashes, so a caller cannot under-declare the rows of
/// the input it stages. A run from layer 0 that consumes the stage
/// re-checks its input against the staged hashes and loads cold on any
/// difference; a run from a shared prefix sees only layer `k − 1`'s
/// values, so that they are the staged input's stays the caller's
/// contract. The full input values are still installed in the
/// simulator's buffer — the resident rows are, by definition, already
/// those values — which is why delta-load replay is bit-identical to a
/// cold load by construction; only the Load phase's modeled cycles and
/// NBin write traffic shrink.
///
/// One residency tracks one stream of same-geometry inputs (e.g. one
/// region slot of a video grid). Geometry changes reset it to cold.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NbResidency {
    /// Geometry the hashes describe: `(maps, width, height)`.
    dims: (usize, usize, usize),
    /// One content hash per `(map, row)`, map-major.
    rows: Vec<u64>,
}

impl NbResidency {
    /// Fresh (cold) residency: the first delta run streams every row.
    pub fn new() -> NbResidency {
        NbResidency::default()
    }

    /// Drops the resident state: the next delta run streams every row.
    pub fn invalidate(&mut self) {
        self.dims = (0, 0, 0);
        self.rows.clear();
    }

    /// `true` once a run has populated the resident hashes.
    pub fn is_warm(&self) -> bool {
        !self.rows.is_empty()
    }

    /// Rows tracked (`maps × height`; 0 when cold).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether `input` has the geometry and every row hash recorded here.
    fn describes(&self, input: &MapStack<Fx>) -> bool {
        let h = input.height();
        self.dims == (input.len(), input.width(), h)
            && self.rows.len() == input.len() * h
            && input
                .iter()
                .enumerate()
                .all(|(m, map)| (0..h).all(|y| self.rows[m * h + y] == hash_row(map.row(y))))
    }
}

/// Hashes one input row's exact bit content with the schedule
/// recorder's `mix64` chain, four 16-bit words per mix.
fn hash_row(row: &[Fx]) -> u64 {
    let mut h = schedule::mix64(0x000D_E17A ^ row.len() as u64);
    for chunk in row.chunks(4) {
        let mut word = 0u64;
        for (i, v) in chunk.iter().enumerate() {
            word |= (v.to_bits() as u16 as u64) << (16 * i);
        }
        h = schedule::mix64(h ^ word);
    }
    h
}

/// Load-phase accounting of one [`Session::stage_delta`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaLoad {
    /// Input rows the network geometry carries (`maps × height`).
    pub rows_total: usize,
    /// Rows that differed from the resident state and streamed.
    pub rows_streamed: usize,
    /// Bytes the Load phase streamed (`rows_streamed × width × 2`).
    pub bytes_streamed: u64,
    /// Bytes a cold load streams.
    pub bytes_total: u64,
}

impl DeltaLoad {
    /// `true` when residency saved at least one row's stream.
    pub fn any_saved(&self) -> bool {
        self.rows_streamed < self.rows_total
    }
}

/// Reusable execution state over a [`PreparedNetwork`]: the neuron
/// buffers, synapse buffer, instruction buffer, PE mesh, ALU, statistics
/// slots, and the executors' scratch arena stay allocated across
/// inferences. Each run resets the mesh to its power-on state first, so
/// results and statistics are bit-identical to a freshly constructed
/// accelerator's.
///
/// After the first inference has grown every buffer to the network's
/// high-water mark, a [`Session::infer_ref`] call performs **zero heap
/// allocations** (asserted by the benchmark harness's counting
/// allocator).
pub struct Session<'p> {
    /// Holds the decoded control state (the schedule) every session of
    /// the network shares instead of re-deriving or copying it.
    prepared: &'p PreparedNetwork,
    nbin: NeuronBuffer,
    nbout: NeuronBuffer,
    sb: SynapseBuffer,
    ib: InstructionBuffer,
    nfu: Nfu,
    alu: Alu,
    faults: FaultState,
    scratch: Scratch,
    stats: RunStats,
    last_cycles: u64,
    /// Schedule replay on/off (on by default; benches flip it off to
    /// measure live decode).
    replay_enabled: bool,
    /// Per-layer fault overlays, resolved lazily from the schedule the
    /// first faulted run after a plan change, then reused run after run.
    overlays: Vec<LayerOverlay>,
    overlays_valid: bool,
    /// Load-phase bytes staged by [`Session::stage_delta`] for the next
    /// run; `None` means cold (full) load. Consumed at the top of
    /// `execute_inner`, so it can never leak across runs.
    pending_delta_bytes: Option<u64>,
    /// The geometry and row hashes of the input the pending stage
    /// describes, checked by a run from layer 0.
    staged: NbResidency,
    /// Attached only by `prepare()`'s recording run.
    recorder: Option<Box<ScheduleRecorder>>,
}

impl<'p> Session<'p> {
    /// The prepared network this session executes.
    pub fn prepared(&self) -> &'p PreparedNetwork {
        self.prepared
    }

    /// Replaces the session's fault plan (and re-derives the PE mesh's
    /// stuck-at faults) without reallocating buffers — how
    /// [`Session::infer_retrying`] retries under a salted plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.nfu.set_stuck_faults(|x, y| plan.pe_stuck(x, y));
        self.faults = FaultState::new(plan);
        // Fault overlays are resolved against a specific plan; the next
        // faulted run rebuilds them.
        self.overlays_valid = false;
    }

    /// Enables or disables schedule replay (on by default). With replay
    /// off every layer live-decodes — outputs, statistics, energy,
    /// traces, and fault counters are bit-identical either way; only
    /// simulation throughput differs.
    pub fn set_schedule_replay(&mut self, enabled: bool) {
        self.replay_enabled = enabled;
    }

    /// Whether schedule replay is enabled.
    pub fn schedule_replay(&self) -> bool {
        self.replay_enabled
    }

    /// Fault counters of the most recent run (reset at each run's start;
    /// valid after both successful and aborted runs).
    pub fn fault_stats(&self) -> &FaultStats {
        self.faults.stats()
    }

    /// Cycles charged by the most recent run, including runs aborted by
    /// [`RunError::FaultDetected`] — the cost a watchdog accounts for a
    /// wasted attempt.
    pub fn last_cycles(&self) -> u64 {
        self.last_cycles
    }

    /// Executes one inference, recording every layer's output stack: the
    /// traced form of [`Session::infer_ref`], with the same final output,
    /// statistics and energy.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InputShape`] when the input mismatches.
    pub fn run(&mut self, input: &MapStack<Fx>) -> Result<RunOutcome, RunError> {
        let mut layer_outputs = Vec::new();
        self.execute(0, input, Some(&mut layer_outputs))?;
        let run = self.last_inference()?;
        Ok(RunOutcome {
            layer_outputs,
            stats: run.stats.clone(),
            energy: run.energy,
            energy_model: self.prepared.energy_model,
            frequency_ghz: run.frequency_ghz,
            fault_stats: *run.fault_stats,
        })
    }

    /// Executes one inference and returns an owned copy of
    /// [`Session::infer_ref`]'s result, for callers that keep it past the
    /// session's next run. The copy allocates; callers that only *look*
    /// at the result should use `infer_ref`.
    ///
    /// # Errors
    ///
    /// Exactly [`Session::infer_ref`]'s.
    pub fn infer(&mut self, input: &MapStack<Fx>) -> Result<Inference, RunError> {
        self.infer_ref(input).map(Inference::from)
    }

    /// Executes one inference and returns the result *borrowed* from the
    /// session: the output stack stays installed in the buffer and the
    /// statistics live in the session's recycled slots, so once the
    /// session's buffers have grown to the network's high-water mark this
    /// path performs **zero heap allocations** per inference. Every other
    /// way to run an inference is a form of this one: [`Session::run`]
    /// adds the per-layer trace, [`Session::infer`] copies the result
    /// out, [`Session::infer_ref_from`] starts from a shared prefix and
    /// [`Session::infer_retrying`] retries under salted fault plans. A
    /// delta load staged by [`Session::stage_delta`] is consumed here.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InputShape`] when the input mismatches.
    pub fn infer_ref(&mut self, input: &MapStack<Fx>) -> Result<InferenceRef<'_>, RunError> {
        self.infer_ref_from(0, input)
    }

    /// [`Session::infer_ref`] for a region whose first `k` layers were
    /// already computed elsewhere — by [`Session::prefix_values`] over the
    /// region's row strip. `mid` is layer `k − 1`'s output for this region
    /// (the network input when `k` is 0). Layers `0..k` run
    /// *charge-only*: their IB fetches, HFSM entries, recorded statistics,
    /// FIFO peaks and bank-conflict stalls are charged exactly as replay
    /// charges them, and the Load phase streams the network's full input
    /// shape. So outputs, cycles, energy and every counter are
    /// bit-identical to `infer_ref` on the whole region; only the host
    /// skips the prefix's arithmetic. Zero heap allocations once warm.
    ///
    /// # Errors
    ///
    /// [`RunError::InputShape`] when `mid` is not layer `k − 1`'s output
    /// shape, and [`RunError::Prefix`] when `k` exceeds
    /// [`PreparedNetwork::shareable_prefix`] or the session cannot
    /// charge a layer without computing it (an active fault plan, stuck
    /// PEs, or schedule replay off). The session's next run is unaffected
    /// either way.
    pub fn infer_ref_from(
        &mut self,
        k: usize,
        mid: &MapStack<Fx>,
    ) -> Result<InferenceRef<'_>, RunError> {
        self.execute(k, mid, None)?;
        self.last_inference()
    }

    /// Runs `input` under salted retries: attempt `a` of `attempts` runs
    /// under `plan_for(a)` until one completes. An attempt aborted by
    /// [`RunError::FaultDetected`] still charges its cycles
    /// ([`Session::last_cycles`]) and fault counters; once the cycles
    /// charged so far reach `slack` the input is dropped
    /// ([`DegradeOutcome::DroppedBudget`]), and once the range is spent
    /// it is dropped as [`DegradeOutcome::DroppedFaulty`]. The
    /// successful attempt's result is borrowed, as from
    /// [`Session::infer_ref`], so a warm call allocates nothing.
    ///
    /// # Errors
    ///
    /// Any error other than [`RunError::FaultDetected`], from the
    /// attempt that raised it.
    pub fn infer_retrying(
        &mut self,
        input: &MapStack<Fx>,
        attempts: RangeInclusive<u32>,
        plan_for: impl Fn(u32) -> FaultPlan,
        slack: u64,
    ) -> Result<Retried<'_>, RunError> {
        let first = *attempts.start();
        let mut outcome = DegradeOutcome::DroppedFaulty;
        let mut last_attempt = *attempts.end();
        let mut cycles = 0u64;
        let mut fault_stats = FaultStats::default();
        for attempt in attempts {
            self.set_fault_plan(plan_for(attempt));
            let result = self.execute(0, input, None);
            cycles += self.last_cycles;
            fault_stats.absorb(self.faults.stats());
            outcome = match result {
                Ok(()) if attempt == first => DegradeOutcome::Ok,
                Ok(()) => DegradeOutcome::Degraded {
                    retries: attempt - first,
                },
                Err(RunError::FaultDetected(_)) if cycles >= slack => DegradeOutcome::DroppedBudget,
                Err(RunError::FaultDetected(_)) => continue,
                Err(e) => return Err(e),
            };
            last_attempt = attempt;
            break;
        }
        // Borrowed once, after the loop: the borrow checker rejects
        // returning a borrow of the session from a loop that mutates it.
        let completed = matches!(
            outcome,
            DegradeOutcome::Ok | DegradeOutcome::Degraded { .. }
        );
        let run = completed.then(|| self.last_inference()).transpose()?;
        Ok(Retried {
            outcome,
            last_attempt,
            cycles,
            fault_stats,
            run,
        })
    }

    /// The last run's result, borrowed from the session.
    fn last_inference(&self) -> Result<InferenceRef<'_>, RunError> {
        let energy = self.prepared.energy_model.charge_run(&self.stats);
        let output = self.nbin.contents().ok_or(EmptyBufferError {
            buffer: "NB (final output)",
        })?;
        Ok(InferenceRef {
            output,
            stats: &self.stats,
            energy,
            frequency_ghz: self.prepared.config.frequency_ghz,
            fault_stats: self.faults.stats(),
        })
    }

    /// Computes the values of the network's first `k` layers over a
    /// strip into `out`: one row of a region grid, as wide as the frame.
    /// Column `x / s` of `out`, where `s` is the layers' cumulative
    /// `x`-stride, starts the `mid` that [`Session::infer_ref_from`] takes
    /// for the region at `x`, whenever `s` divides `x`. The value bodies
    /// are replay's own, so those columns are bit-identical to the
    /// region's replay. Nothing is charged: this is host arithmetic, not
    /// a modeled run.
    ///
    /// With `continues` false, `rows` is the whole strip: the network's
    /// input maps and height, and any width at least the input's. With
    /// `continues` true, the strip is the previous one moved down
    /// `rows.height()` input rows, and `rows` holds only those rows, the
    /// ones below the previous strip. The session carries each layer's
    /// overlapping rows from the previous call, computes only the new
    /// ones, and rolls `out` — which must hold the previous call's
    /// output — so that it holds the current strip's whole output, equal
    /// to a fresh call over the whole strip.
    ///
    /// # Errors
    ///
    /// [`RunError::Prefix`] when `k` is 0 or exceeds
    /// [`PreparedNetwork::shareable_prefix`], when `rows` has the wrong
    /// maps, a height other than the input's for a fresh strip, or a
    /// width below the input's; and for a continuation that the prefix
    /// cannot roll by ([`PreparedNetwork::prefix_rolls`]) or that follows
    /// no strip of the same layers, width and output shape on this
    /// session.
    pub fn prefix_values(
        &mut self,
        k: usize,
        rows: &MapStack<Fx>,
        continues: bool,
        out: &mut MapStack<Fx>,
    ) -> Result<(), RunError> {
        let network = &self.prepared.network;
        let (in_w, in_h) = network.input_dims();
        let shape = StripShape {
            layers: k,
            width: rows.width(),
            out: (out.map_dims(), out.len()),
        };
        let reason = if k == 0 {
            Some("an empty prefix computes nothing")
        } else if k > self.prepared.shareable_prefix {
            Some(PREFIX_TOO_LONG)
        } else if rows.len() != network.input_maps()
            || rows.width() < in_w
            || (!continues && rows.height() != in_h)
        {
            Some("a strip needs the network's input maps and height, and at least its width")
        } else if continues && !self.prepared.prefix_rolls(k, rows.height()) {
            Some("the prefix cannot roll down this many rows")
        } else if continues && self.scratch.strip != Some(shape) {
            Some("a continued strip needs a previous strip of the same layers, width and output")
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(RunError::Prefix { layers: k, reason });
        }
        replay::prefix(
            &network.layers()[..k],
            &self.prepared.store,
            &self.alu,
            &mut self.scratch,
            rows,
            continues,
            out,
        );
        self.scratch.strip = Some(StripShape {
            out: (out.map_dims(), out.len()),
            ..shape
        });
        Ok(())
    }

    /// Stages a **delta load** for the session's next run: rows of
    /// `input` whose content matches the caller-held [`NbResidency`] are
    /// served from the double-buffered NBin's resident copy, so only the
    /// dirty rows stream over the sensor→NBin link and the next run's
    /// Load phase charges only their cycles and NBin writes. `residency`
    /// is updated to describe `input`.
    ///
    /// Whatever run comes next consumes the stage, even one that fails:
    /// [`Session::run`], `infer`, `infer_ref`, `infer_ref_from` (which
    /// takes `input`'s layer-`k − 1` values) or the first attempt of
    /// `infer_retrying`. [`Session::prefix_values`] is not a run and
    /// leaves it staged. A run from layer 0 checks that it loads the
    /// staged input — the same geometry and the same hash on every row —
    /// and charges a cold Load when it does not. A run from a shared
    /// prefix (`infer_ref_from` with `k > 0`) sees only layer `k − 1`'s
    /// values, so presenting the staged input's values stays the
    /// caller's contract. After a Load that streams only `input`'s dirty
    /// rows, everything is bit-identical to a cold run by construction
    /// (see [`NbResidency`]).
    pub fn stage_delta(&mut self, input: &MapStack<Fx>, residency: &mut NbResidency) -> DeltaLoad {
        let maps = input.len();
        let (w, h) = (input.width(), input.height());
        let rows_total = maps * h;
        let bytes_total = (input.neuron_count() * 2) as u64;
        let dims = (maps, w, h);
        let warm = residency.dims == dims && residency.rows.len() == rows_total;
        if !warm {
            residency.dims = dims;
            residency.rows.clear();
            residency.rows.resize(rows_total, 0);
        }
        let mut streamed = 0usize;
        for (m, map) in input.iter().enumerate() {
            for y in 0..h {
                let hash = hash_row(map.row(y));
                let slot = &mut residency.rows[m * h + y];
                if !warm || *slot != hash {
                    streamed += 1;
                    *slot = hash;
                }
            }
        }
        let bytes_streamed = streamed as u64 * (w * 2) as u64;
        self.pending_delta_bytes = Some(bytes_streamed);
        self.staged.dims = dims;
        self.staged.rows.clone_from(&residency.rows);
        DeltaLoad {
            rows_total,
            rows_streamed: streamed,
            bytes_streamed,
            bytes_total,
        }
    }

    /// [`Session::stage_delta`] followed by [`Session::infer`].
    ///
    /// # Errors
    ///
    /// Exactly [`Session::infer`]'s.
    pub fn infer_delta(
        &mut self,
        input: &MapStack<Fx>,
        residency: &mut NbResidency,
    ) -> Result<(Inference, DeltaLoad), RunError> {
        let delta = self.stage_delta(input, residency);
        let inference = self.infer(input)?;
        Ok((inference, delta))
    }

    /// The schedule this run replays from, or `None` when every layer
    /// must live-decode (§3f in DESIGN.md). Replay covers traced and
    /// silently-faulted runs too — that is its point — but stuck-at PEs
    /// corrupt values inside the propagation network in ways the
    /// precompiled stream does not model, and the recording run itself
    /// must live-decode.
    fn replay_schedule(&self) -> Option<&'p NetworkSchedule> {
        let schedule: &'p NetworkSchedule = &self.prepared.schedule;
        let replay = self.replay_enabled
            && self.recorder.is_none()
            && !self.nfu.any_stuck()
            && schedule.layer_count() == self.prepared.network.layers().len();
        replay.then_some(schedule)
    }

    /// The session's one inference loop, behind `run`, `infer_ref_from`
    /// and `infer_retrying` (`trace` is `Some` only for `run`);
    /// `last_inference` then delivers its result. `input` is layer
    /// `start − 1`'s output (the network input when `start` is 0); layers
    /// before `start` are charged without computing. Statistics land in
    /// the session's recycled [`RunStats`] slots; the final layer's output
    /// is left installed in the buffer currently holding the NBin role.
    /// Cycles charged up to an abort (including a
    /// [`RunError::FaultDetected`] one) are recorded in
    /// [`Session::last_cycles`] either way.
    fn execute(
        &mut self,
        start: usize,
        input: &MapStack<Fx>,
        trace: Option<&mut Vec<MapStack<Fx>>>,
    ) -> Result<(), RunError> {
        self.faults.reset_stats();
        self.stats.restart();
        let result = self.execute_inner(start, input, trace);
        self.last_cycles = self.stats.cycles();
        result
    }

    fn execute_inner(
        &mut self,
        start: usize,
        input: &MapStack<Fx>,
        mut trace: Option<&mut Vec<MapStack<Fx>>>,
    ) -> Result<(), RunError> {
        // Consume any staged delta-load immediately so an aborted or
        // shape-rejected run cannot leak it into the next one. A run from
        // layer 0 that loads anything but the staged input streams cold.
        let staged_delta_bytes = self
            .pending_delta_bytes
            .take()
            .filter(|_| start > 0 || self.staged.describes(input));
        let network = &self.prepared.network;
        let expected = match start.checked_sub(1) {
            None => (
                network.input_maps(),
                network.input_dims().0,
                network.input_dims().1,
            ),
            Some(last) => {
                let reason = if start > self.prepared.shareable_prefix {
                    Some(PREFIX_TOO_LONG)
                } else if self.faults.active() || self.replay_schedule().is_none() {
                    Some("charging a layer without computing it needs clean schedule replay")
                } else {
                    None
                };
                if let Some(reason) = reason {
                    return Err(RunError::Prefix {
                        layers: start,
                        reason,
                    });
                }
                let layer = &network.layers()[last];
                (layer.out_maps(), layer.out_dims().0, layer.out_dims().1)
            }
        };
        let got = (input.len(), input.width(), input.height());
        if expected != got {
            return Err(RunError::InputShape { expected, got });
        }

        let cfg = &self.prepared.config;
        let store = &self.prepared.store;
        self.nfu.reset();
        let mut hfsm = Hfsm::new();
        let schedule = self.replay_schedule();
        if let Some(sched) = schedule {
            if self.faults.active() && !self.overlays_valid {
                // Resolve the plan against the schedule once; every
                // subsequent run under this plan reuses the overlays.
                self.overlays.clear();
                let plan = *self.faults.plan();
                self.overlays.extend(
                    sched
                        .layers()
                        .iter()
                        .enumerate()
                        .map(|(i, ls)| schedule::build_overlay(&plan, i, ls)),
                );
                self.overlays_valid = true;
            }
        }

        // Load phase: the sensor/host streams the image into NBin at one
        // bank-width write per cycle. A staged delta-load
        // ([`Session::stage_delta`]) streams only the dirty rows; the
        // resident rows are already in the staging bank, so the full
        // values are installed either way and everything downstream is
        // bit-identical to a cold load. A run from a shared prefix
        // streams the region all the same: the modeled chip computes it.
        let load = self.stats.begin_layer("Load");
        hfsm.enter(FirstState::Load)?;
        self.ib.fetch(load);
        self.faults.filter_word(FaultSite::Ib, 0, [0, 0, 0])?;
        let input_bytes =
            network.input_maps() * network.input_dims().0 * network.input_dims().1 * 2;
        let streamed_bytes = staged_delta_bytes.unwrap_or(input_bytes as u64);
        load.cycles = streamed_bytes.div_ceil(cfg.nb_bank_width_bytes() as u64);
        if streamed_bytes > 0 {
            load.nbin.write(streamed_bytes);
        }

        if let Some(outputs) = trace.as_deref_mut() {
            outputs.reserve(network.layers().len());
        }
        for (i, layer) in network.layers().iter().enumerate() {
            let compute = i >= start;
            if i == start {
                self.nbin.load_from(input)?;
            }
            if compute {
                let (ow, oh) = layer.out_dims();
                self.nbout.begin_output(ow, oh, layer.out_maps())?;
            }
            let layer_stats = self.stats.begin_layer(&self.prepared.layer_labels[i]);
            for f in 0..self.prepared.layer_instruction_counts[i] {
                self.ib.fetch(layer_stats);
                // Fetches are addressed per layer epoch (the load fetch is
                // epoch 0).
                self.faults
                    .filter_word(FaultSite::Ib, i + 1, [f as u64, 0, 0])?;
            }
            let replay = layer_replay(
                schedule,
                &self.overlays,
                i,
                &mut self.nbin,
                &mut self.faults,
            )?;
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.begin_layer(cfg, layer);
            }
            let attach_recorder =
                self.recorder.is_some() && schedule::layer_overlayable(cfg, layer);
            let mut engine = Engine {
                cfg,
                nbin: &self.nbin,
                nbout: &mut self.nbout,
                sb: &self.sb,
                store,
                layer_index: i,
                nfu: &mut self.nfu,
                alu: &self.alu,
                hfsm: &mut hfsm,
                stats: &mut *layer_stats,
                faults: &mut self.faults,
                scratch: &mut self.scratch,
                recorder: if attach_recorder {
                    self.recorder.as_deref_mut()
                } else {
                    None
                },
            };
            // On an abort the slot keeps the layer's cycles so watchdog
            // budgets can charge the wasted attempt. A charge-only layer
            // always replays: the shareable prefix is replayable, and
            // `start > 0` requires replay on.
            match replay {
                Some((sl, sb_patches)) => {
                    replay::run_layer(&mut engine, layer, sl, sb_patches, compute)?
                }
                None => engine.run_layer(layer)?,
            }
            if let Some(rec) = self.recorder.as_deref_mut() {
                // Snapshot the layer's stats delta *before* bank-conflict
                // folding (applied below identically on either path) and
                // the mesh's cumulative FIFO peaks.
                rec.finish_layer(layer_stats, self.nfu.fifo_peaks());
            }
            if cfg.model_bank_conflicts {
                // Conflicting banked requests serialize: the stall cycles
                // extend the layer with the whole mesh idle.
                layer_stats.cycles += layer_stats.bank_conflict_cycles;
                layer_stats.pe_total_slots +=
                    layer_stats.bank_conflict_cycles * cfg.pe_count() as u64;
            }
            // §5's role swap: the finished output becomes the next
            // layer's input in place, with no copy. Charge-only layers
            // swap too, so layer `start` runs on the same physical
            // buffers as in a full run.
            if compute {
                self.nbout.finish_output_into_input()?;
            }
            core::mem::swap(&mut self.nbin, &mut self.nbout);
            if let Some(outputs) = trace.as_deref_mut() {
                let installed = self.nbin.contents().ok_or(EmptyBufferError {
                    buffer: "NB (installed output)",
                })?;
                outputs.push(installed.clone());
            }
        }
        hfsm.enter(FirstState::End)?;

        Ok(())
    }
}

/// Why a prefix longer than the network's shareable one is refused.
const PREFIX_TOO_LONG: &str = "longer than the network's shareable prefix";

/// The per-layer replay decision of `execute_inner`. Layer `i` replays
/// when replay is on (`schedule` is `Some`), the schedule models the
/// layer, and — under an active fault plan — its overlay is not
/// [`LayerOverlay::Live`]: detected errors abort mid-layer with exact
/// partial statistics only live decode reproduces, and normalization
/// layers' staged NBout re-reads are priced only live. A replayed layer's
/// silent faults are pre-resolved here: NB flips go into the input stack
/// in place and the counter delta lands in one absorb.
/// Returns the layer's schedule and the SB patches to apply at fetch, or
/// `None` for live decode.
fn layer_replay<'s>(
    schedule: Option<&'s NetworkSchedule>,
    overlays: &'s [LayerOverlay],
    i: usize,
    nbin: &mut NeuronBuffer,
    faults: &mut FaultState,
) -> Result<Option<(&'s LayerSchedule, &'s replay::SbPatches)>, RunError> {
    let Some(sl) = schedule
        .map(|s| &s.layers()[i])
        .filter(|sl| sl.replayable())
    else {
        return Ok(None);
    };
    if !faults.active() {
        return Ok(Some((sl, &[])));
    }
    match &overlays[i] {
        LayerOverlay::Live => Ok(None),
        LayerOverlay::Silent(s) => {
            if !s.nb_patches.is_empty() {
                let stack = nbin.contents_mut().ok_or(EmptyBufferError {
                    buffer: "NB (input role)",
                })?;
                schedule::apply_nb_patches(stack, sl.nb_flat, &s.nb_patches);
            }
            faults.absorb_stats(&s.delta);
            Ok(Some((sl, &s.sb_patches)))
        }
        LayerOverlay::Clean => Ok(Some((sl, &[]))),
    }
}

// Thread-migration invariant: the serve layer pools warm `Session`s and
// hands them to scheduler worker threads, so both ends of the
// prepare→execute split must stay thread-safe:
//
// * `PreparedNetwork` must be `Send + Sync` — one prepared network is
//   shared by reference across every worker executing its tenant;
// * `Session<'_>` must be `Send` — a pooled session (which holds a
//   `&PreparedNetwork` plus its own buffers and PE mesh) migrates to
//   whichever worker thread the scheduler dispatches it to.
//
// Everything inside is owned data (`Vec`-backed buffers, SoA PE state,
// copyable plans); nothing holds `Rc`, interior mutability, or raw
// pointers. These compile-time assertions keep it that way: adding a
// non-thread-safe field to either type breaks the build here rather than
// deep inside the serve crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<PreparedNetwork>();
    assert_sync::<PreparedNetwork>();
    assert_send::<Session<'static>>();
};

/// An owned inference result from [`Session::infer`]: a copy of an
/// [`InferenceRef`] that outlives the session's next run.
#[derive(Clone, Debug)]
pub struct Inference {
    output: MapStack<Fx>,
    stats: RunStats,
    energy: EnergyReport,
    frequency_ghz: f64,
    fault_stats: FaultStats,
}

impl From<InferenceRef<'_>> for Inference {
    fn from(run: InferenceRef<'_>) -> Inference {
        Inference {
            output: run.output.clone(),
            stats: run.stats.clone(),
            energy: run.energy,
            frequency_ghz: run.frequency_ghz,
            fault_stats: *run.fault_stats,
        }
    }
}

impl Inference {
    /// The final layer's output stack.
    pub fn output(&self) -> &MapStack<Fx> {
        &self.output
    }

    /// The final layer's output, flattened map-major (comparable to
    /// [`RunOutcome::output`]).
    pub fn output_flat(&self) -> Vec<Fx> {
        self.output.flatten()
    }

    /// Execution statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Energy charged by the prepared network's model.
    pub fn energy(&self) -> &EnergyReport {
        &self.energy
    }

    /// Wall-clock seconds for this inference.
    pub fn seconds(&self) -> f64 {
        self.stats.seconds_at(self.frequency_ghz)
    }

    /// What the fault layer did during this inference (all zeros under a
    /// fault-free plan).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }
}

/// A borrowed inference result from [`Session::infer_ref`]: the output
/// stack and statistics are views into the session's reusable storage
/// (valid until the next run), so producing one allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct InferenceRef<'s> {
    output: &'s MapStack<Fx>,
    stats: &'s RunStats,
    energy: EnergyReport,
    frequency_ghz: f64,
    fault_stats: &'s FaultStats,
}

impl InferenceRef<'_> {
    /// The final layer's output stack.
    pub fn output(&self) -> &MapStack<Fx> {
        self.output
    }

    /// The final layer's output, flattened map-major (comparable to
    /// [`RunOutcome::output`]).
    pub fn output_flat(&self) -> Vec<Fx> {
        self.output.flatten()
    }

    /// Execution statistics.
    pub fn stats(&self) -> &RunStats {
        self.stats
    }

    /// Energy charged by the prepared network's model.
    pub fn energy(&self) -> &EnergyReport {
        &self.energy
    }

    /// Wall-clock seconds for this inference.
    pub fn seconds(&self) -> f64 {
        self.stats.seconds_at(self.frequency_ghz)
    }

    /// What the fault layer did during this inference (all zeros under a
    /// fault-free plan).
    pub fn fault_stats(&self) -> &FaultStats {
        self.fault_stats
    }
}

/// How [`Session::infer_retrying`] resolved an input.
#[derive(Clone, Copy, Debug)]
pub struct Retried<'s> {
    /// Ok, degraded after retries, or dropped.
    pub outcome: DegradeOutcome,
    /// Absolute index of the last attempt made: the range's end when
    /// every attempt faulted.
    pub last_attempt: u32,
    /// Cycles of every attempt, aborted ones included.
    pub cycles: u64,
    /// Fault counters summed over every attempt.
    pub fault_stats: FaultStats,
    /// The successful attempt's result; `None` when the input was
    /// dropped.
    pub run: Option<InferenceRef<'s>>,
}

/// The result of one accelerator execution.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    layer_outputs: Vec<MapStack<Fx>>,
    stats: RunStats,
    energy: EnergyReport,
    energy_model: EnergyModel,
    frequency_ghz: f64,
    fault_stats: FaultStats,
}

impl RunOutcome {
    /// The final layer's output, flattened map-major (comparable to
    /// [`shidiannao_cnn::ForwardTrace::output`]).
    ///
    /// # Panics
    ///
    /// Panics if the network had no layers (impossible for built
    /// networks).
    pub fn output(&self) -> Vec<Fx> {
        self.layer_outputs
            .last()
            .expect("networks have at least one layer")
            .flatten()
    }

    /// Every layer's output stack, in execution order.
    pub fn layer_outputs(&self) -> &[MapStack<Fx>] {
        &self.layer_outputs
    }

    /// Execution statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Energy charged by the accelerator's model.
    pub fn energy(&self) -> &EnergyReport {
        &self.energy
    }

    /// The energy model this run was charged with.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// Wall-clock seconds for this inference.
    pub fn seconds(&self) -> f64 {
        self.stats.seconds_at(self.frequency_ghz)
    }

    /// Average power in milliwatts.
    pub fn average_power_mw(&self) -> f64 {
        self.energy
            .average_power_mw(self.stats.cycles(), self.frequency_ghz)
    }

    /// What the fault layer did during this run (all zeros under a
    /// fault-free plan).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Sustained fixed-point GOP/s over the run: PE multiplies, adds, and
    /// comparisons plus ALU operations, divided by wall-clock time.
    /// Compare with [`AcceleratorConfig::peak_gops`] — the gap is the
    /// measured utilization loss.
    pub fn effective_gops(&self) -> f64 {
        let t = self.stats.total();
        let ops = t.pe_muls + t.pe_adds + t.pe_cmps + t.alu_acts + t.alu_divs;
        ops as f64 / self.seconds() / 1e9
    }
}
