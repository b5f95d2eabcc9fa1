//! The top-level accelerator: compile, load, execute, report.

use crate::alu::Alu;
use crate::buffer::{
    CapacityError, EmptyBufferError, InstructionBuffer, NeuronBuffer, SynapseBuffer,
};
use crate::compiler::{self, CompileError, Program};
use crate::config::{AcceleratorConfig, ConfigError};
use crate::energy::{EnergyModel, EnergyReport};
use crate::exec::{replay, Engine, Scratch};
use crate::hfsm::{FirstState, Hfsm};
use crate::nfu::Nfu;
use crate::sb::SynapseStore;
use crate::schedule::{self, LayerOverlay, LayerSchedule, NetworkSchedule, ScheduleRecorder};
use crate::stats::RunStats;
use core::fmt;
use shidiannao_cnn::{LayerBody, Network};
use shidiannao_faults::{DetectedFault, FaultPlan, FaultSite, FaultState, FaultStats};
use shidiannao_fixed::Fx;
use shidiannao_tensor::MapStack;
use std::sync::Arc;

/// Error produced by [`Accelerator::run`].
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
/// let run = accel.run(&net, &net.random_input(7))?;
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

    /// Compiles a network to its control program.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Compile`] if a dimension exceeds the ISA's
    /// field widths.
    pub fn compile(&self, network: &Network) -> Result<Program, RunError> {
        let program = compiler::compile(network)?;
        compiler::validate(&program, network)?;
        Ok(program)
    }

    /// Checks that a network fits on chip: every layer's neurons within
    /// NBin/NBout, all synapses within SB, the program within IB (§6).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Capacity`] naming the overflowing buffer.
    pub fn check_capacity(&self, network: &Network) -> Result<(), RunError> {
        self.check_data_capacity(network)?;
        let program = self.compile(network)?;
        self.check_ib_capacity(&program)
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
    /// [`Accelerator::new`]; this adds the capacity check, compilation to
    /// the 61-bit program, and the banked synapse-store image — and
    /// returns a [`PreparedNetwork`] that executes inferences without
    /// repeating any of it.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Capacity`] or [`RunError::Compile`] exactly as
    /// [`Accelerator::run`] would.
    pub fn prepare(&self, network: &Network) -> Result<PreparedNetwork, RunError> {
        self.check_data_capacity(network)?;
        let program = self.compile(network)?;
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
            opt_schedule: Arc::new(NetworkSchedule::empty()),
            opt_report: crate::opt::OptReport::default(),
        };
        // Record the precompiled micro-op schedule: one instrumented run
        // with a recorder attached to the fault-filter hook points. The
        // control path is static (nothing depends on input data), so one
        // pass on an arbitrary well-shaped input captures every run's
        // control stream exactly.
        let schedule = {
            let input = prepared.network.random_input(0);
            let mut session = prepared.session();
            session.recorder = Some(Box::new(ScheduleRecorder::new()));
            session.execute(&input, None)?;
            session
                .recorder
                .take()
                .expect("the recording run does not detach the recorder")
                .into_schedule()
        };
        // Optimize the recorded schedule once (every pass on); sessions
        // replay the verbatim recording by default and opt in to the
        // optimized stream via `Session::set_optimized_replay`.
        let (opt_schedule, opt_report) = crate::opt::optimize(
            &schedule,
            &prepared.network,
            &prepared.config,
            &prepared.energy_model,
            &crate::opt::OptConfig::default(),
        );
        prepared.schedule = Arc::new(schedule);
        prepared.opt_schedule = Arc::new(opt_schedule);
        prepared.opt_report = opt_report;
        Ok(prepared)
    }

    /// Executes one inference cycle-by-cycle.
    ///
    /// The input is streamed into NBin (charged as the Load phase), each
    /// layer runs under its §8 mapping, and NBin/NBout swap roles between
    /// layers. The result is bit-identical to
    /// [`Network::forward_fixed`].
    ///
    /// This is a thin compatibility wrapper over [`Accelerator::prepare`]
    /// followed by a single-use [`Session::run`]; callers executing the same
    /// network more than once should hold on to the [`PreparedNetwork`]
    /// (and a [`Session`]) instead, so compilation and synapse-store
    /// banking happen once rather than per inference.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the input shape mismatches or the network
    /// does not fit on chip.
    pub fn run(&self, network: &Network, input: &MapStack<Fx>) -> Result<RunOutcome, RunError> {
        let expected = (
            network.input_maps(),
            network.input_dims().0,
            network.input_dims().1,
        );
        let got = (input.len(), input.width(), input.height());
        if expected != got {
            return Err(RunError::InputShape { expected, got });
        }
        self.prepare(network)?.session().run(input)
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
    /// The precompiled micro-op schedule, shared (`Arc`) by every
    /// session — per-tenant control state is paid for once, not per
    /// session.
    schedule: Arc<NetworkSchedule>,
    /// The optimizer's rewrite of `schedule` (all passes of
    /// [`crate::opt::OptConfig::default`]), built once at prepare time;
    /// sessions swap it in via [`Session::set_optimized_replay`].
    opt_schedule: Arc<NetworkSchedule>,
    /// What the optimizer eliminated building `opt_schedule`.
    opt_report: crate::opt::OptReport,
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
    /// callers can verify sharing: every open session holds one clone).
    pub fn schedule(&self) -> &Arc<NetworkSchedule> {
        &self.schedule
    }

    /// The optimizer's rewrite of the recorded schedule (all default
    /// passes), shared by every session that opts in via
    /// [`Session::set_optimized_replay`].
    pub fn optimized_schedule(&self) -> &Arc<NetworkSchedule> {
        &self.opt_schedule
    }

    /// Per-pass elimination counters from building the optimized
    /// schedule.
    pub fn optimizer_report(&self) -> &crate::opt::OptReport {
        &self.opt_report
    }

    /// Rebuilds the optimized schedule with an explicit pass subset
    /// (the default is every pass on) — how tests and benches exercise
    /// individual passes. Sessions opened afterwards see the new
    /// schedule; already-open sessions keep their `Arc` clone.
    pub fn reoptimize(&mut self, opt: &crate::opt::OptConfig) {
        let (sched, report) = crate::opt::optimize(
            &self.schedule,
            &self.network,
            &self.config,
            &self.energy_model,
            opt,
        );
        self.opt_schedule = Arc::new(sched);
        self.opt_report = report;
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
            schedule: Arc::clone(&self.schedule),
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
            optimized: false,
            overlays: Vec::new(),
            overlays_valid: false,
            pending_delta_bytes: None,
            recorder: None,
        }
    }

    /// Whether the optimizer's `delta_load` pass armed the Load phase
    /// for cross-frame NBin residency ([`Session::infer_delta`]). On by
    /// default; [`PreparedNetwork::reoptimize`] with
    /// [`crate::OptConfig::none`] disarms it.
    pub fn delta_load_capable(&self) -> bool {
        self.opt_report.delta_load
    }
}

/// Caller-held cross-frame NBin residency state for
/// [`Session::infer_delta`]: one content hash per input row, keyed by
/// the input geometry.
///
/// The model (DESIGN.md §3k): the double-buffered NBin's *staging* bank
/// — the one the sensor streams the next frame into while the compute
/// bank runs — still holds the previous frame's rows when the same
/// region geometry comes around again. Rows whose content is unchanged
/// need not re-stream; only dirty rows cross the sensor→NBin link. The
/// dirty set is **derived**, not asserted: `infer_delta` hashes every
/// row of the presented input (the same `mix64` finalizer the schedule
/// recorder's `AccessSet` hashes addresses with) and compares against
/// the resident hashes, so a caller cannot under-declare. The full
/// input values are still installed in the simulator's buffer — the
/// resident rows are, by definition, already those values — which is
/// why delta-load replay is bit-identical to a cold load by
/// construction; only the Load phase's modeled cycles and NBin write
/// traffic shrink.
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

/// Load-phase accounting of one [`Session::infer_delta`] run.
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
    prepared: &'p PreparedNetwork,
    /// One `Arc` clone of the prepared network's schedule: sessions
    /// share the decoded control state instead of re-deriving (or
    /// copying) it.
    schedule: Arc<NetworkSchedule>,
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
    /// Whether `schedule` currently points at the prepared network's
    /// optimizer-rewritten stream (off by default — the verbatim
    /// recording is the frozen-baseline path).
    optimized: bool,
    /// Per-layer fault overlays, resolved lazily from the schedule the
    /// first faulted run after a plan change, then reused run after run.
    overlays: Vec<LayerOverlay>,
    overlays_valid: bool,
    /// Load-phase bytes staged by [`Session::infer_delta`] for the next
    /// run; `None` means cold (full) load. Consumed at the top of
    /// `execute_inner`, so it can never leak across runs.
    pending_delta_bytes: Option<u64>,
    /// Attached only by `prepare()`'s recording run.
    recorder: Option<Box<ScheduleRecorder>>,
}

impl<'p> Session<'p> {
    /// The prepared network this session executes.
    pub fn prepared(&self) -> &'p PreparedNetwork {
        self.prepared
    }

    /// Replaces the session's fault plan (and re-derives the PE mesh's
    /// stuck-at faults) without reallocating buffers — how the degraded
    /// streaming pipeline retries a region under a salted plan.
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

    /// Switches the session between the verbatim recording (default)
    /// and the optimizer-rewritten schedule ([`crate::opt`]). Outputs
    /// are bit-identical either way; the optimized stream replays
    /// faster, models strictly fewer cycles, and charges less energy.
    /// Fault overlays are resolved against a specific schedule, so
    /// switching invalidates them (the next faulted run rebuilds).
    pub fn set_optimized_replay(&mut self, enabled: bool) {
        if self.optimized == enabled {
            return;
        }
        self.optimized = enabled;
        self.schedule = if enabled {
            Arc::clone(&self.prepared.opt_schedule)
        } else {
            Arc::clone(&self.prepared.schedule)
        };
        self.overlays_valid = false;
    }

    /// Whether the session replays the optimized schedule.
    pub fn optimized_replay(&self) -> bool {
        self.optimized
    }

    /// The fault plan in force.
    pub fn fault_plan(&self) -> &FaultPlan {
        self.faults.plan()
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

    /// Executes one inference, recording every layer's output stack
    /// (identical to what [`Accelerator::run`] returns).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InputShape`] when the input mismatches.
    pub fn run(&mut self, input: &MapStack<Fx>) -> Result<RunOutcome, RunError> {
        let mut layer_outputs = Vec::new();
        self.execute(input, Some(&mut layer_outputs))?;
        let stats = self.stats.clone();
        let energy = self.prepared.energy_model.charge_run(&stats);
        Ok(RunOutcome {
            layer_outputs,
            stats,
            energy,
            energy_model: self.prepared.energy_model,
            frequency_ghz: self.prepared.config.frequency_ghz,
            fault_stats: *self.faults.stats(),
        })
    }

    /// Executes one inference without keeping per-layer output traces —
    /// the owned-result streaming path. The final output, statistics,
    /// and energy are identical to [`Session::run`]'s.
    ///
    /// Taking the output stack out of the buffer costs the next run one
    /// stack allocation; throughput-critical callers that only need to
    /// *look* at the result should use [`Session::infer_ref`], which is
    /// allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InputShape`] when the input mismatches.
    pub fn infer(&mut self, input: &MapStack<Fx>) -> Result<Inference, RunError> {
        self.execute(input, None)?;
        let output = self.nbin.take().ok_or(EmptyBufferError {
            buffer: "NB (final output)",
        })?;
        let stats = self.stats.clone();
        let energy = self.prepared.energy_model.charge_run(&stats);
        Ok(Inference {
            output,
            stats,
            energy,
            frequency_ghz: self.prepared.config.frequency_ghz,
            fault_stats: *self.faults.stats(),
        })
    }

    /// Executes one inference and returns the result *borrowed* from the
    /// session: the output stack stays installed in the buffer and the
    /// statistics live in the session's recycled slots, so once the
    /// session's buffers have grown to the network's high-water mark this
    /// path performs **zero heap allocations** per inference. Output,
    /// statistics, and energy are bit-identical to [`Session::run`]'s and
    /// [`Session::infer`]'s.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InputShape`] when the input mismatches.
    pub fn infer_ref(&mut self, input: &MapStack<Fx>) -> Result<InferenceRef<'_>, RunError> {
        self.execute(input, None)?;
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

    /// Executes one inference with a **delta load**: rows of `input`
    /// whose content matches the caller-held [`NbResidency`] state are
    /// served from the double-buffered NBin's resident copy, and only
    /// dirty rows stream over the sensor→NBin link — the Load phase's
    /// cycles and NBin write traffic shrink proportionally. Everything
    /// after the Load phase (outputs, per-layer statistics, fault
    /// behaviour) is **bit-identical** to [`Session::infer`] by
    /// construction (see [`NbResidency`] for why), and `residency` is
    /// updated to describe `input` either way.
    ///
    /// Requires the prepared network's optimizer to have the
    /// `delta_load` pass armed ([`crate::OptConfig`], on by default);
    /// with the pass off, the run cold-loads and the report shows every
    /// row streamed.
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

    /// The borrowed-result form of [`Session::infer_delta`]: zero heap
    /// allocations in steady state, like [`Session::infer_ref`].
    ///
    /// # Errors
    ///
    /// Exactly [`Session::infer`]'s.
    pub fn infer_delta_ref(
        &mut self,
        input: &MapStack<Fx>,
        residency: &mut NbResidency,
    ) -> Result<(InferenceRef<'_>, DeltaLoad), RunError> {
        let delta = self.stage_delta(input, residency);
        let inference = self.infer_ref(input)?;
        Ok((inference, delta))
    }

    /// Hashes `input`'s rows against `residency`, updates the resident
    /// state, and (when the `delta_load` pass is armed) stages the
    /// dirty-byte count for the next run's Load phase.
    fn stage_delta(&mut self, input: &MapStack<Fx>, residency: &mut NbResidency) -> DeltaLoad {
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
        let delta = DeltaLoad {
            rows_total,
            rows_streamed: streamed,
            bytes_streamed: streamed as u64 * (w * 2) as u64,
            bytes_total,
        };
        if self.prepared.opt_report.delta_load {
            self.pending_delta_bytes = Some(delta.bytes_streamed);
            delta
        } else {
            // Pass disarmed: the run cold-loads; report it honestly.
            DeltaLoad {
                rows_streamed: rows_total,
                bytes_streamed: bytes_total,
                ..delta
            }
        }
    }

    /// The schedule this run replays from, or `None` when every layer
    /// must live-decode (§3f in DESIGN.md). Replay covers traced and
    /// silently-faulted runs too — that is its point — but stuck-at PEs
    /// corrupt values inside the propagation network in ways the
    /// precompiled stream does not model, and the recording run itself
    /// must live-decode.
    fn replay_schedule(&self) -> Option<Arc<NetworkSchedule>> {
        let replay = self.replay_enabled
            && self.recorder.is_none()
            && !self.nfu.any_stuck()
            && self.schedule.layer_count() == self.prepared.network.layers().len();
        replay.then(|| Arc::clone(&self.schedule))
    }

    /// The cycle-by-cycle inference loop shared by `run`, `infer`, and
    /// `infer_ref` (`trace` is `Some` only for `run`). Statistics land in
    /// the session's recycled [`RunStats`] slots; the final layer's
    /// output is left installed in the buffer currently holding the NBin
    /// role. Cycles charged up to an abort (including a
    /// [`RunError::FaultDetected`] one) are recorded in
    /// [`Session::last_cycles`] either way.
    fn execute(
        &mut self,
        input: &MapStack<Fx>,
        trace: Option<&mut Vec<MapStack<Fx>>>,
    ) -> Result<(), RunError> {
        self.faults.reset_stats();
        self.stats.restart();
        let result = self.execute_inner(input, trace);
        self.last_cycles = self.stats.cycles();
        result
    }

    fn execute_inner(
        &mut self,
        input: &MapStack<Fx>,
        mut trace: Option<&mut Vec<MapStack<Fx>>>,
    ) -> Result<(), RunError> {
        // Consume any staged delta-load immediately so an aborted or
        // shape-rejected run cannot leak it into the next one.
        let staged_delta_bytes = self.pending_delta_bytes.take();
        let network = &self.prepared.network;
        let expected = (
            network.input_maps(),
            network.input_dims().0,
            network.input_dims().1,
        );
        let got = (input.len(), input.width(), input.height());
        if expected != got {
            return Err(RunError::InputShape { expected, got });
        }

        let cfg = &self.prepared.config;
        let store = &self.prepared.store;
        self.nfu.reset();
        let mut hfsm = Hfsm::new();
        let schedule = self.replay_schedule();
        if let Some(sched) = schedule.as_deref() {
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
        // ([`Session::infer_delta`]) streams only the dirty rows; the
        // resident rows are already in the staging bank, so the full
        // values are installed either way and everything downstream is
        // bit-identical to a cold load.
        let load = self.stats.begin_layer("Load");
        hfsm.enter(FirstState::Load).expect("HFSM: load");
        self.ib.fetch(load);
        self.faults.filter_word(FaultSite::Ib, 0, [0, 0, 0])?;
        let input_bytes = input.neuron_count() * 2;
        let streamed_bytes = staged_delta_bytes.unwrap_or(input_bytes as u64);
        load.cycles = streamed_bytes.div_ceil(cfg.nb_bank_width_bytes() as u64);
        if streamed_bytes > 0 {
            load.nbin.write(streamed_bytes);
        }
        self.nbin.load_from(input)?;

        if let Some(outputs) = trace.as_deref_mut() {
            outputs.reserve(network.layers().len());
        }
        for (i, layer) in network.layers().iter().enumerate() {
            let (ow, oh) = layer.out_dims();
            self.nbout.begin_output(ow, oh, layer.out_maps())?;
            let layer_stats = self.stats.begin_layer(&self.prepared.layer_labels[i]);
            for f in 0..self.prepared.layer_instruction_counts[i] {
                self.ib.fetch(layer_stats);
                // Fetches are addressed per layer epoch (the load fetch is
                // epoch 0).
                self.faults
                    .filter_word(FaultSite::Ib, i + 1, [f as u64, 0, 0])?;
            }
            let replay = layer_replay(
                schedule.as_deref(),
                &self.overlays,
                i,
                &mut self.nbin,
                &mut self.faults,
            )?;
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.begin_layer(
                    schedule::layer_replayable(cfg, layer),
                    matches!(layer.body(), LayerBody::Fc { .. }),
                );
            }
            let attach_recorder = self.recorder.is_some() && schedule::layer_replayable(cfg, layer);
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
            // budgets can charge the wasted attempt.
            match replay {
                Some((sl, sb_patches)) => replay::run_layer(&mut engine, layer, sl, sb_patches)?,
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
            // layer's input in place, with no copy.
            self.nbout.finish_output_into_input()?;
            core::mem::swap(&mut self.nbin, &mut self.nbout);
            if let Some(outputs) = trace.as_deref_mut() {
                let installed = self.nbin.contents().ok_or(EmptyBufferError {
                    buffer: "NB (installed output)",
                })?;
                outputs.push(installed.clone());
            }
        }
        hfsm.enter(FirstState::End).expect("HFSM: end");

        Ok(())
    }
}

/// The per-layer replay decision of `execute_inner`. Layer `i` replays when replay is on (`schedule` is
/// `Some`), the schedule models the layer, and its fault overlay holds
/// no detected error — detected errors abort mid-layer with exact
/// partial statistics only live decode reproduces. A replayed layer's
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
        LayerOverlay::Abort => Ok(None),
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

/// A trace-free inference result from [`Session::infer`]: the final
/// output plus the run's statistics and energy.
#[derive(Clone, Debug)]
pub struct Inference {
    output: MapStack<Fx>,
    stats: RunStats,
    energy: EnergyReport,
    frequency_ghz: f64,
    fault_stats: FaultStats,
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

    /// Consumes the result, returning the output stack.
    pub fn into_output(self) -> MapStack<Fx> {
        self.output
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

    /// Per-layer energy breakdown (same order as
    /// [`RunStats::layers`](crate::RunStats::layers), Load phase first),
    /// charged with the same model as [`RunOutcome::energy`] — the one
    /// the accelerator was configured with.
    pub fn layer_energies(&self) -> Vec<EnergyReport> {
        self.stats
            .layers()
            .iter()
            .map(|l| self.energy_model.charge(l))
            .collect()
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
