//! # ShiDianNao reproduction
//!
//! A from-scratch Rust reproduction of *ShiDianNao: Shifting Vision
//! Processing Closer to the Sensor* (Du et al., ISCA 2015): a cycle-level
//! simulator of the accelerator, golden-model CNN substrate, the paper's
//! baselines (DianNao, CPU, GPU), a sensor streaming front-end, and a
//! benchmark harness regenerating every table and figure of the evaluation.
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! * [`fixed`] — 16-bit fixed-point arithmetic and the ALU's
//!   piecewise-linear activation tables (§5),
//! * [`tensor`] — feature maps and sliding-window geometry (§3),
//! * [`cnn`] — layer descriptors, network builder, golden reference
//!   executor, and the ten benchmark networks of Table 2,
//! * [`sim`] — the ShiDianNao accelerator simulator itself (§§5–8),
//! * [`baseline`] — the DianNao / CPU / GPU comparison models (§9),
//! * [`sensor`] — the CMOS-sensor streaming front-end (§2, §10.2),
//! * [`serve`] — the multi-tenant inference service: session pooling,
//!   deadline- and fairness-aware scheduling, bounded admission queues,
//!   a deterministic load generator, and the fault-tolerant sharded
//!   cluster (rendezvous routing, heartbeat health checks,
//!   drain/failover with retry budgets, seeded chaos episodes).
//!
//! # Quickstart
//!
//! ```
//! use shidiannao::prelude::*;
//!
//! // Build LeNet-5 with deterministic weights, quantize, and run one
//! // inference on the simulated accelerator.
//! let network = zoo::lenet5().build(42).expect("valid topology");
//! let accel = Accelerator::new(AcceleratorConfig::paper());
//! let input = network.random_input(7);
//! let prepared = accel.prepare(&network).expect("network fits on chip");
//! let run = prepared.session().run(&input).expect("input shape matches");
//!
//! // The simulator's output is bit-identical to the fixed-point golden
//! // reference.
//! let golden = network.forward_fixed(&input);
//! assert_eq!(run.output(), golden.output());
//! assert!(run.stats().cycles() > 0);
//! ```

// The pipelines report failures as typed `PipelineError`s; contract
// violations still use `assert!`/`.expect()`, which these lints do not
// cover.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![forbid(unsafe_code)]

pub mod pipeline;
pub mod video;

pub use shidiannao_baseline as baseline;
pub use shidiannao_cnn as cnn;
pub use shidiannao_core as sim;
pub use shidiannao_faults as faults;
pub use shidiannao_fixed as fixed;
pub use shidiannao_quant as quant;
pub use shidiannao_sensor as sensor;
pub use shidiannao_serve as serve;
pub use shidiannao_tensor as tensor;

/// Convenience re-exports of the types most programs need.
pub mod prelude {
    pub use crate::baseline::{CpuModel, DianNao, DianNaoConfig, GpuModel};
    pub use crate::cnn::{zoo, Layer, Network, NetworkBuilder};
    pub use crate::fixed::{Accum, Fx, Pla};
    pub use crate::pipeline::{DegradePolicy, RegionLedger, StreamingPipeline};
    pub use crate::quant::{CascadeConfig, QuantizedNetwork, WeightPrecision};
    pub use crate::sensor::{FrameSource, RegionStream};
    pub use crate::serve::{
        Cluster, ClusterConfig, InferenceService, ServeConfig, ShardFaultConfig, ShardSpec,
        TenantSpec, Traffic,
    };
    pub use crate::sim::{
        Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, PreparedNetwork, Session,
        SramProtection,
    };
    pub use crate::tensor::{FeatureMap, MapStack, WindowGrid};
    pub use crate::video::{MotionGate, VideoConfig, VideoPipeline};
}
