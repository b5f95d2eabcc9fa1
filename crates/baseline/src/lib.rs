//! The comparison baselines of §9: a resized DianNao accelerator model
//! (with its DianNao-FreeMem ideal variant), an analytical CPU model, an
//! analytical GPU model, and the DRAM cost model they share.
//!
//! These are the *substitutes* for the paper's measured baselines (Intel
//! Xeon E7-8830, NVIDIA K20M + Caffe, and the authors' re-implemented
//! 8 × 8 DianNao): we have none of that hardware, and the paper uses the
//! baselines only as comparison points for Figs. 18–19. Each model is
//! mechanistic where the paper describes mechanism (DianNao's 8 × 8 NFU,
//! its 62.5 GB/s memory interface, 1 KB/1 KB/16 KB buffers; the GPU's
//! under-occupancy on tiny kernels) and calibrated where the paper gives
//! only measurements (CPU effective throughput, GPU launch overhead, DRAM
//! energy per byte). Calibration constants are documented inline and the
//! resulting mean ratios are checked against the paper in
//! `tests/figures.rs` (repository root) and EXPERIMENTS.md.

// The analytical baselines are total functions of a built network;
// contract violations still use `assert!`/`.expect()`, which these lints do
// not cover.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![forbid(unsafe_code)]

mod cpu;
mod diannao;
mod dram;
mod gpu;

pub use cpu::CpuModel;
pub use diannao::{BaselineLayer, BaselineRun, DianNao, DianNaoConfig};
pub use dram::DramModel;
pub use gpu::{GpuModel, GpuRun};
