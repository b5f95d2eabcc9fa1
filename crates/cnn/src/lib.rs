//! CNN model definitions, golden-reference execution, and the paper's
//! benchmark networks.
//!
//! This crate is the machine-learning substrate of the ShiDianNao
//! reproduction. It provides:
//!
//! * layer descriptors for the four layer families of §3 — convolutional,
//!   pooling, classifier, and normalization (LRN / LCN) — via [`LayerSpec`],
//! * a validated [`Network`] built with [`NetworkBuilder`], holding
//!   deterministic 16-bit fixed-point weights,
//! * a **golden reference executor** ([`Network::forward_fixed`]) whose
//!   fixed-point semantics the cycle-level simulator must match
//!   bit-for-bit, plus an `f32` executor for accuracy comparisons,
//! * per-layer operation counts ([`ops`]) feeding the CPU/GPU/DianNao
//!   performance models,
//! * storage accounting reproducing Table 1 ([`storage`]),
//! * the ten benchmark CNNs of Table 2 ([`zoo`]).
//!
//! # Examples
//!
//! ```
//! use shidiannao_cnn::zoo;
//!
//! let net = zoo::lenet5().build(42).unwrap();
//! let input = net.random_input(7);
//! let out = net.forward_fixed(&input);
//! assert_eq!(out.output().len(), 10); // ten digit classes
//! ```

// Model loading and network construction report failures as typed errors
// (`FormatError`, `NetworkError`); contract violations on programmer-built
// values still use `assert!`/`.expect()`, which these lints do not cover.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

mod connect;
pub mod io;
mod layer;
mod network;
pub mod ops;
pub mod reference;
pub mod storage;
mod weights;
pub mod zoo;

pub use connect::ConnectionTable;
pub use layer::{
    Activation, Connectivity, ConvSpec, FcSpec, LayerKind, LayerSpec, LcnSpec, LrnSpec, PoolKind,
    PoolSpec, Rounding,
};
pub use network::{ForwardTrace, Layer, LayerBody, Network, NetworkBuilder, NetworkError};
pub use weights::{ConvWeights, FcWeights};

#[cfg(test)]
mod tests {
    #[test]
    fn zoo_is_reachable_from_crate_root() {
        assert_eq!(crate::zoo::all().len(), 10);
    }
}
