//! Binary and low-bit execution modes for the ShiDianNao simulator, and
//! the sensor-side early-exit cascade they unlock.
//!
//! The paper's thesis is moving vision processing next to the sensor;
//! the related work (PISA, convolution-in-pixel sensors) pushes one step
//! further: a binary CNN front-end *in* the sensor that scores every
//! region tile, with full-precision escalation only for the interesting
//! ones. This crate builds that precision axis end to end:
//!
//! * [`pack`] — 1-bit and 2-bit SB weight packing (sign bit-planes in
//!   `u64` words plus a per-group magnitude), exact round trip back to
//!   the 16-bit fixed-point store,
//! * [`kernel`] — the XNOR-popcount value kernels implementing the same
//!   [`ValueKernel`](shidiannao_core::kernel::ValueKernel) trait the
//!   engine's `LaneKernel`/`ScalarKernel` pair implements, certified
//!   bit-identical to each other *and* to the 16-bit kernels on
//!   sign-binarized operands,
//! * [`quantize`] — sign/threshold binarization of trained zoo weights
//!   (per-output-map magnitudes, 1-bit or 2-bit levels) plus the
//!   PLA-based activation binarizer and the accuracy study against the
//!   floating-point golden model,
//! * [`cascade`] — the two-stage early-exit cascade over sensor region
//!   tiles: a binarized front-end network scores every region, only
//!   scores above the escalation threshold run the full-precision
//!   network, and both stages carry simulator-vs-golden bit-identity
//!   certificates.
//!
//! # Why quantized networks replay recorded schedules unchanged
//!
//! Binarization keeps every weight an ordinary
//! [`Fx`](shidiannao_fixed::Fx) value (`±α`, or the four 2-bit levels
//! `{±1, ±3}·α`), so a quantized network is an
//! ordinary `shidiannao_cnn::Network`: `prepare()` compiles it, the
//! recorded micro-op schedule replays it, and the simulator stays
//! bit-identical to the fixed-point golden reference with **zero**
//! changes to the engine. What the XNOR kernels add is the proof that a
//! real 1-bit datapath computes the *same raw sums* the 16-bit lane
//! kernel computes on those operands — which is what justifies charging
//! the cheaper per-precision energy/area ([`WeightPrecision`] scaling
//! in `EnergyModel`/`area_with_precision`) against the unchanged cycle
//! counts.

// Quantized paths report failures as typed `QuantError`s rather than
// panicking; contract violations still use `assert!`/`.expect()` which
// these lints deliberately do not cover.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![forbid(unsafe_code)]

use core::fmt;

pub mod cascade;
pub mod kernel;
pub mod pack;
pub mod quantize;

pub use cascade::{
    binary_front, cascade_tenants, full_stage, prepare_w1, run_cascade, CascadeConfig,
    CascadeOutcome, CascadeReport, RegionOutcome,
};
pub use kernel::{certify_xnor, XnorLaneKernel, XnorScalarKernel};
pub use pack::PackedWeights;
pub use quantize::{
    accuracy_study, binarize_stack, quantize_network, sign_pla, AccuracyRow, QuantizedNetwork,
};

// Re-export the precision vocabulary so downstream crates can scale
// energy/area without naming `shidiannao-core` directly.
pub use shidiannao_core::WeightPrecision;

/// A failure in a quantized path.
#[derive(Clone, Debug, PartialEq)]
pub enum QuantError {
    /// A value cannot be packed at the requested precision (not one of
    /// the precision's representable levels for the group's magnitude).
    Pack {
        /// What was wrong.
        reason: String,
    },
    /// The requested precision is not a packed one (`W16` cannot be
    /// bit-plane packed).
    UnpackedPrecision,
    /// Building or rewriting a network failed.
    Network(shidiannao_cnn::NetworkError),
    /// The simulator rejected a quantized run (typed `RunError` from
    /// `prepare()`/`Session`).
    Run(shidiannao_core::RunError),
    /// A sensor region did not fit its frame.
    Stream(shidiannao_sensor::StreamError),
    /// Building the cascade's serve tenants failed.
    Serve(shidiannao_serve::ServeError),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::Pack { reason } => write!(f, "packing failed: {reason}"),
            QuantError::UnpackedPrecision => {
                write!(
                    f,
                    "16-bit weights are stored directly, not bit-plane packed"
                )
            }
            QuantError::Network(e) => write!(f, "network error: {e}"),
            QuantError::Run(e) => write!(f, "run error: {e}"),
            QuantError::Stream(e) => write!(f, "stream error: {e}"),
            QuantError::Serve(e) => write!(f, "serve error: {e}"),
        }
    }
}

impl std::error::Error for QuantError {}

impl From<shidiannao_cnn::NetworkError> for QuantError {
    fn from(e: shidiannao_cnn::NetworkError) -> QuantError {
        QuantError::Network(e)
    }
}

impl From<shidiannao_core::RunError> for QuantError {
    fn from(e: shidiannao_core::RunError) -> QuantError {
        QuantError::Run(e)
    }
}

impl From<shidiannao_sensor::StreamError> for QuantError {
    fn from(e: shidiannao_sensor::StreamError) -> QuantError {
        QuantError::Stream(e)
    }
}

impl From<shidiannao_serve::ServeError> for QuantError {
    fn from(e: shidiannao_serve::ServeError) -> QuantError {
        QuantError::Serve(e)
    }
}
