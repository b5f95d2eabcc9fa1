//! Cycle-level layer executors.
//!
//! Each executor drives the NFU mesh cycle by cycle, issuing NB controller
//! reads in the modes §7.1 assigns to its layer type, propagating data
//! between PEs through the FIFOs, and producing output neurons that are
//! **bit-identical** to the golden reference in `shidiannao-cnn`.
//!
//! All SRAM reads route through the `Engine`'s fault-filtering wrappers:
//! with an inactive [`FaultState`] they are pass-throughs, and with an
//! active one every word is filtered by address through the seeded fault
//! plan, so faulted executions are replayable and independent of the read
//! mode that happened to deliver a word.

mod conv;
mod fc;
mod norm;
mod packed;
mod pool;
pub(crate) mod replay;
pub mod values;
mod window;

pub(crate) use packed::applies_cfg as packed_applies_cfg;
pub(crate) use window::WindowOp;

use crate::accel::RunError;
use crate::alu::Alu;
use crate::buffer::{NeuronBuffer, ReadScratch, SynapseBuffer};
use crate::config::AcceleratorConfig;
use crate::hfsm::{FirstState, Hfsm};
use crate::nfu::Nfu;
use crate::sb::SynapseStore;
use crate::schedule::ScheduleRecorder;
use crate::stats::LayerStats;
use shidiannao_cnn::{Layer, LayerBody};
use shidiannao_faults::{FaultSite, FaultState};
use shidiannao_fixed::Fx;
use shidiannao_tensor::{FeatureMap, MapStack};

/// Session-owned reusable working storage for the executors.
///
/// Every per-cycle buffer the hot path needs lives here, so a
/// steady-state simulated cycle performs zero heap allocations: the
/// vectors are `mem::take`n by an executor for the duration of a region,
/// refilled in place (`clear()` + `push`/`extend`), and handed back.
/// Capacities grow to each network's high-water mark during the first
/// inference and are reused thereafter.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Bank-conflict accounting storage for the NB controller.
    pub read: ReadScratch,
    /// Per-cycle received neurons (window sweep).
    pub values: Vec<Fx>,
    /// Secondary read target (mode (c) bottom row / mode (f) right
    /// column merged into `values`).
    pub aux: Vec<Fx>,
    /// Epilogue drain buffer (accumulator read-out → ALU → write-back).
    pub vals: Vec<Fx>,
    /// Edge-clipped gather coordinates (non-overlapping pooling).
    pub coords: Vec<(usize, usize)>,
    /// PE lanes paired with `coords`.
    pub lanes: Vec<(usize, usize)>,
    /// Classifier group's union of input indices, ascending.
    pub idxs: Vec<usize>,
    /// Classifier per-PE sparse-row cursors.
    pub cursors: Vec<usize>,
    /// i64 lane accumulators of the replay bodies: one slot per output
    /// column of the row being reduced, at any row width.
    pub sums: Vec<i64>,
    /// The strip prefix's stage inputs, one per stage
    /// ([`replay::prefix`]): the rows the stage carries from the previous
    /// strip, then its new rows.
    pub stages: Vec<MapStack<Fx>>,
    /// The strip prefix's one-map conv output, pooled straight on.
    pub conv_out: Option<FeatureMap<Fx>>,
    /// The strip `stages` last rolled through, which a continued strip
    /// extends.
    pub strip: Option<StripShape>,
    /// Normalization-layer storage, live and replayed.
    pub norm: NormScratch,
}

/// The shape of a computed strip prefix: what a continuation must match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StripShape {
    /// Leading network layers computed.
    pub layers: usize,
    /// The strip's input width.
    pub width: usize,
    /// The output's map dimensions and map count.
    pub out: ((usize, usize), usize),
}

/// Normalization-layer working storage (§8.4), shared by the live
/// executors in [`norm`] and the replay bodies in [`replay`]. Planes are
/// flat and row-major.
#[derive(Debug, Default)]
pub(crate) struct NormScratch {
    /// NB tile / gather target (live).
    pub tile: Vec<Fx>,
    /// LRN denominators, LCN's δ read-out and divide epilogue (live).
    pub vals: Vec<Fx>,
    /// LCN pass-1 gather coordinates (live).
    pub coords: Vec<(usize, usize)>,
    /// PE lanes paired with `coords` (live).
    pub lanes: Vec<(usize, usize)>,
    /// LCN's μ plane.
    pub mu: Vec<Fx>,
    /// LCN's v planes, one per map (live).
    pub v: Vec<Fx>,
    /// LCN's δ plane.
    pub delta: Vec<Fx>,
    /// Every input map zero-padded by half the LCN window, then the
    /// squared v planes in place (replay).
    pub padded: Vec<Fx>,
}

/// Mutable execution context threaded through the layer executors.
pub(crate) struct Engine<'a> {
    pub cfg: &'a AcceleratorConfig,
    pub nbin: &'a NeuronBuffer,
    pub nbout: &'a mut NeuronBuffer,
    pub sb: &'a SynapseBuffer,
    pub store: &'a SynapseStore,
    pub layer_index: usize,
    pub nfu: &'a mut Nfu,
    pub alu: &'a Alu,
    pub hfsm: &'a mut Hfsm,
    pub stats: &'a mut LayerStats,
    pub faults: &'a mut FaultState,
    pub scratch: &'a mut Scratch,
    /// Attached only during the one recording pass `prepare()` runs:
    /// the fault-filter hook points report every NB/SB word address to
    /// the recorder instead of filtering (the recording run is
    /// fault-free by construction). `None` on every session run, so the
    /// hot path pays a single never-taken branch.
    pub recorder: Option<&'a mut ScheduleRecorder>,
}

impl Engine<'_> {
    /// Executes one layer; results are collected in `nbout`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::FaultDetected`] when SRAM protection detects an
    /// uncorrectable error, [`RunError::EmptyBuffer`] on a read from an
    /// unloaded buffer, or [`RunError::Control`] on an HFSM scheduling
    /// violation.
    pub(crate) fn run_layer(&mut self, layer: &Layer) -> Result<(), RunError> {
        match layer.body() {
            LayerBody::Conv { .. } => {
                self.hfsm.enter(FirstState::Conv)?;
                if packed::applies(self, layer) {
                    packed::run_conv(self, layer)
                } else {
                    conv::run(self, layer)
                }
            }
            LayerBody::Pool { .. } => {
                self.hfsm.enter(FirstState::Pool)?;
                pool::run(self, layer)
            }
            LayerBody::Fc { .. } => {
                self.hfsm.enter(FirstState::Classifier)?;
                fc::run(self, layer)
            }
            LayerBody::Lrn(_) | LayerBody::Lcn { .. } => {
                self.hfsm.enter(FirstState::Norm)?;
                norm::run(self, layer)
            }
        }
    }

    /// Charges one compute cycle with `busy` active PEs.
    #[inline]
    pub(crate) fn tick(&mut self, busy: usize) {
        self.stats.cycles += 1;
        self.stats.pe_busy_slots += busy as u64;
        self.stats.pe_total_slots += self.cfg.pe_count() as u64;
    }

    /// Charges `n` pure-latency cycles (ALU drain, write-back) with no PE
    /// activity.
    #[inline]
    pub(crate) fn tick_idle(&mut self, n: u64) {
        self.stats.cycles += n;
        self.stats.pe_total_slots += n * self.cfg.pe_count() as u64;
    }

    // ----- fault-filtered SRAM read wrappers -------------------------
    //
    // Each wrapper performs the metered buffer read and then filters
    // every delivered word through the fault plan, addressed by the
    // word's *logical* NB cell `(map, x, y)` (or flat index / weight
    // coordinate). Addressing by cell — not by access count — gives
    // persistent-faulty-cell semantics: the same cell faults identically
    // whichever read mode delivers it, so faulted runs are bit-identical
    // across the prepared/session/legacy paths.

    /// Mode (a)/(b)/(e) tile read through the fault filter, into `out`
    /// (cleared first).
    pub(crate) fn nb_tile_into(
        &mut self,
        map: usize,
        (x0, y0): (usize, usize),
        (w, h): (usize, usize),
        (sx, sy): (usize, usize),
        out: &mut Vec<Fx>,
    ) -> Result<(), RunError> {
        self.nbin.read_tile_into(
            map,
            (x0, y0),
            (w, h),
            (sx, sy),
            self.stats,
            &mut self.scratch.read,
            out,
        )?;
        if let Some(rec) = self.recorder.as_deref_mut() {
            for n in 0..out.len() {
                let (i, j) = (n % w, n / w);
                rec.note_nb([map as u64, (x0 + i * sx) as u64, (y0 + j * sy) as u64]);
            }
        } else if self.faults.active() {
            let layer = self.layer_index;
            for (n, v) in out.iter_mut().enumerate() {
                let (i, j) = (n % w, n / w);
                let addr = [map as u64, (x0 + i * sx) as u64, (y0 + j * sy) as u64];
                *v = self.faults.filter_value(FaultSite::NbIn, layer, addr, *v)?;
            }
        }
        Ok(())
    }

    /// Mode (a)/(b)/(e) tile read returning a fresh `Vec` — the cold-path
    /// wrapper of the multi-map packing ablation.
    pub(crate) fn nb_tile(
        &mut self,
        map: usize,
        origin: (usize, usize),
        dims: (usize, usize),
        stride: (usize, usize),
    ) -> Result<Vec<Fx>, RunError> {
        let mut out = Vec::new();
        self.nb_tile_into(map, origin, dims, stride, &mut out)?;
        Ok(out)
    }

    /// Mode (c) row read through the fault filter, into `out` (cleared
    /// first).
    pub(crate) fn nb_row_into(
        &mut self,
        map: usize,
        (x0, y0): (usize, usize),
        n: usize,
        sx: usize,
        out: &mut Vec<Fx>,
    ) -> Result<(), RunError> {
        self.nbin.read_row_into(
            map,
            (x0, y0),
            n,
            sx,
            self.stats,
            &mut self.scratch.read,
            out,
        )?;
        if let Some(rec) = self.recorder.as_deref_mut() {
            for i in 0..out.len() {
                rec.note_nb([map as u64, (x0 + i * sx) as u64, y0 as u64]);
            }
        } else if self.faults.active() {
            let layer = self.layer_index;
            for (i, v) in out.iter_mut().enumerate() {
                let addr = [map as u64, (x0 + i * sx) as u64, y0 as u64];
                *v = self.faults.filter_value(FaultSite::NbIn, layer, addr, *v)?;
            }
        }
        Ok(())
    }

    /// Mode (f) column read through the fault filter, into `out` (cleared
    /// first).
    pub(crate) fn nb_col_into(
        &mut self,
        map: usize,
        (x0, y0): (usize, usize),
        n: usize,
        sy: usize,
        out: &mut Vec<Fx>,
    ) -> Result<(), RunError> {
        self.nbin.read_col_into(
            map,
            (x0, y0),
            n,
            sy,
            self.stats,
            &mut self.scratch.read,
            out,
        )?;
        if let Some(rec) = self.recorder.as_deref_mut() {
            for j in 0..out.len() {
                rec.note_nb([map as u64, x0 as u64, (y0 + j * sy) as u64]);
            }
        } else if self.faults.active() {
            let layer = self.layer_index;
            for (j, v) in out.iter_mut().enumerate() {
                let addr = [map as u64, x0 as u64, (y0 + j * sy) as u64];
                *v = self.faults.filter_value(FaultSite::NbIn, layer, addr, *v)?;
            }
        }
        Ok(())
    }

    /// Mode (d) single-neuron read through the fault filter. Classifier
    /// layers address by flat index; a layer is either spatial or flat,
    /// so the address spaces cannot collide within one layer epoch.
    pub(crate) fn nb_single(&mut self, flat: usize) -> Result<Fx, RunError> {
        let v = self.nbin.read_single(flat, self.stats)?;
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.note_nb([flat as u64, 0, 0]);
        } else if self.faults.active() {
            let layer = self.layer_index;
            return Ok(self
                .faults
                .filter_value(FaultSite::NbIn, layer, [flat as u64, 0, 0], v)?);
        }
        Ok(v)
    }

    /// Mode (e) gather read through the fault filter, into `out` (cleared
    /// first).
    pub(crate) fn nb_gather_into(
        &mut self,
        map: usize,
        coords: &[(usize, usize)],
        out: &mut Vec<Fx>,
    ) -> Result<(), RunError> {
        self.nbin
            .read_gather_into(map, coords, self.stats, &mut self.scratch.read, out)?;
        if let Some(rec) = self.recorder.as_deref_mut() {
            for &(x, y) in coords {
                rec.note_nb([map as u64, x as u64, y as u64]);
            }
        } else if self.faults.active() {
            let layer = self.layer_index;
            for (v, &(x, y)) in out.iter_mut().zip(coords) {
                let addr = [map as u64, x as u64, y as u64];
                *v = self.faults.filter_value(FaultSite::NbIn, layer, addr, *v)?;
            }
        }
        Ok(())
    }

    /// Filters one synapse word (weight or bias) served from the SB
    /// image. The caller meters the SB access; `addr` is the weight's
    /// logical coordinate in the image.
    #[inline]
    pub(crate) fn sb_value(&mut self, addr: [u64; 3], v: Fx) -> Result<Fx, RunError> {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.note_sb(addr);
        } else if self.faults.active() {
            let layer = self.layer_index;
            return Ok(self.faults.filter_value(FaultSite::Sb, layer, addr, v)?);
        }
        Ok(v)
    }

    /// Filters one word of a staged NBout re-read (the decomposed LCN
    /// sub-layers re-read μ and v from NBout; `pass` tags which staged
    /// map). Other NBout contents manifest through the next layer's NBin
    /// reads after the role swap, so they are not separately injected.
    #[inline]
    pub(crate) fn nbout_value(
        &mut self,
        pass: u64,
        (x, y): (usize, usize),
        v: Fx,
    ) -> Result<Fx, RunError> {
        if self.faults.active() {
            let layer = self.layer_index;
            return Ok(self.faults.filter_value(
                FaultSite::NbOut,
                layer,
                [pass, x as u64, y as u64],
                v,
            )?);
        }
        Ok(v)
    }
}

/// SB-image address of a per-output bias word.
#[inline]
pub(crate) fn bias_addr(out_unit: usize) -> [u64; 3] {
    [out_unit as u64, u64::MAX, 0]
}

/// SB-image address of a convolution kernel word.
#[inline]
pub(crate) fn conv_weight_addr(o: usize, j: usize, (kx, ky): (usize, usize)) -> [u64; 3] {
    [o as u64, j as u64, ((ky as u64) << 32) | kx as u64]
}

/// SB-image address of a classifier weight word.
#[inline]
pub(crate) fn fc_weight_addr(out_unit: usize, slot: usize) -> [u64; 3] {
    [out_unit as u64, slot as u64, u64::MAX]
}
