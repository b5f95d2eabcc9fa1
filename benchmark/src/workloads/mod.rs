//! The five workloads. Each builds its system through the public API,
//! warms it up, times equal-work chunks, checks outputs, and records its
//! metrics: end to end on an untraced run, per layer on a traced one.

pub mod serve;
pub mod vga;
pub mod video;
pub mod zoo;

use crate::run::{Opts, Outcome, Workload};

/// Runs workload `w` in this process.
///
/// # Errors
///
/// When the workload cannot be set up or a call into the system fails.
pub fn run(w: Workload, o: &Opts) -> Result<Outcome, String> {
    match w {
        Workload::VgaConvnn => vga::run(o),
        Workload::ZooTable2 => zoo::run(o),
        Workload::VideoStatic => video::run(o, &video::STATIC),
        Workload::VideoPan => video::run(o, &video::PAN),
        Workload::ServeMixed => serve::run(o),
    }
}
