//! Cycle-level simulator of the ShiDianNao CNN accelerator (ISCA 2015).
//!
//! This crate is the reproduction's primary contribution: a
//! microarchitectural model of the accelerator of *ShiDianNao: Shifting
//! Vision Processing Closer to the Sensor*, executed cycle by cycle:
//!
//! * the `Px × Py` PE mesh with per-PE FIFOs and inter-PE data
//!   propagation (§5.1, Figs. 5–6),
//! * [`NeuronBuffer`] — banked NBin/NBout with the six NB-controller read
//!   modes and the block write mode (§6–§7.1, Figs. 9–11),
//! * [`Alu`] — 16-bit division and 16-segment piecewise-linear activation
//!   (§5.2),
//! * [`isa`] / [`compiler`] — the 61-bit instruction encoding and the
//!   network-to-program compiler (§7.2),
//! * [`Hfsm`] — the two-level hierarchical control FSM (Fig. 12),
//! * the §8 layer mappings (convolution per Fig. 13, pooling per Fig. 14,
//!   classifier, decomposed LRN/LCN per Figs. 15–16),
//! * [`energy`] / [`area`] — the Table 4 energy and area models.
//!
//! Execution is functionally **bit-identical** to the fixed-point golden
//! reference in `shidiannao-cnn`, while every cycle, SRAM access, FIFO
//! transfer, and PE operation is counted for the performance and energy
//! results (Figs. 7, 18, 19).
//!
//! # Examples
//!
//! ```
//! use shidiannao_cnn::zoo;
//! use shidiannao_core::{Accelerator, AcceleratorConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let network = zoo::lenet5().build(42)?;
//! let input = network.random_input(7);
//!
//! let accel = Accelerator::new(AcceleratorConfig::paper());
//! let run = accel.prepare(&network)?.session().run(&input)?;
//!
//! // Bit-identical to the golden reference.
//! assert_eq!(run.output(), network.forward_fixed(&input).output());
//! # Ok(())
//! # }
//! ```

// Library run paths report failures as typed errors (`RunError`,
// `EmptyBufferError`) rather than panicking; contract violations still use
// `assert!`/`.expect()` which these lints deliberately do not cover.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
// The only unsafe code is the two calls into the AVX2-compiled twins of
// the replay value stage (`exec/replay.rs`), each behind its own allow.
#![deny(unsafe_code)]

pub mod area;
pub mod compiler;
pub mod energy;
pub mod fanout;
pub mod isa;
pub mod trace;

mod accel;
mod alu;
mod buffer;
mod config;
mod exec;
mod hfsm;
mod nfu;
pub mod opt;
mod sb;
mod schedule;
mod stats;

pub use accel::{
    Accelerator, DeltaLoad, Inference, InferenceRef, NbResidency, PreparedNetwork, Retried,
    RunError, RunOutcome, Session,
};
pub use alu::Alu;
pub use buffer::{
    CapacityError, EmptyBufferError, InstructionBuffer, NeuronBuffer, ReadScratch, SynapseBuffer,
};
pub use config::{AcceleratorConfig, ConfigError};
pub use energy::{EnergyModel, EnergyReport, WeightPrecision};
pub use hfsm::{FirstState, Hfsm, SecondState, TransitionError};
pub use opt::OptReport;
pub use sb::SynapseStore;
pub use schedule::{LayerSchedule, NetworkSchedule};
pub use stats::{BufferTraffic, LayerStats, ReadMode, RunStats};

/// The shared value-reduction kernels (vectorized lane kernel + scalar
/// reference) — public so the microbenches can compare them in
/// isolation.
pub mod kernel {
    pub use crate::exec::values::{
        classifier_dot_raw, sum_to_raw, LaneKernel, ScalarKernel, ValueKernel,
    };
}

// Re-export the fault-injection vocabulary so downstream crates can drive
// fault campaigns without depending on `shidiannao-faults` directly.
pub use shidiannao_faults::{
    DegradeOutcome, DegradePolicy, DetectedFault, FaultConfig, FaultPlan, FaultSite, FaultState,
    FaultStats, PeStuck, PeStuckTarget, ScanlineFault, SramProtection,
};
