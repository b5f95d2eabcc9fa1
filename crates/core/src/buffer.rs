//! The on-chip SRAM buffers: NBin/NBout neuron buffers with the six-mode
//! NB controller (Figs. 9–11), the synapse buffer, and the instruction
//! buffer.
//!
//! Every read mode has a `*_into` form that fills caller-owned scratch
//! storage — the steady-state simulation path allocates nothing. The
//! `Vec`-returning forms are thin wrappers kept for tests and one-shot
//! callers.

use crate::stats::{LayerStats, ReadMode};
use core::fmt;
use shidiannao_fixed::Fx;
use shidiannao_tensor::{FeatureMap, MapStack};

/// Error raised when data does not fit an on-chip buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapacityError {
    /// Which buffer overflowed.
    pub buffer: &'static str,
    /// Bytes required.
    pub needed: usize,
    /// Bytes available.
    pub available: usize,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} overflow: need {} bytes but only {} available",
            self.buffer, self.needed, self.available
        )
    }
}

impl std::error::Error for CapacityError {}

/// Error raised when a buffer is read (or finished) in a state that holds
/// no data — e.g. a read before any [`NeuronBuffer::load`], or taking an
/// output after a failed load left the buffer empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmptyBufferError {
    /// Which buffer (and role) was empty.
    pub buffer: &'static str,
}

impl fmt::Display for EmptyBufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} is empty: read before a successful load", self.buffer)
    }
}

impl std::error::Error for EmptyBufferError {}

/// Reusable working storage for bank-conflict accounting.
///
/// `loads` is the per-bank word-count histogram (`2 × Py` banks);
/// `words` holds the deduplicated word list for irregular (gather)
/// access patterns. Owned by the session's scratch arena so that
/// steady-state conflict modelling allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ReadScratch {
    words: Vec<(usize, usize)>,
    loads: Vec<u32>,
}

impl ReadScratch {
    /// Resets the per-bank histogram for a buffer with `py` banks per
    /// group and returns the bank count.
    #[inline]
    fn reset_loads(&mut self, py: usize) -> usize {
        self.loads.clear();
        self.loads.resize(2 * py, 0);
        2 * py
    }
}

/// A neuron buffer (NBin or NBout) with its controller.
///
/// The physical organisation follows §6 / Fig. 11: `2 × Py` banks of
/// `Px × 2` bytes width; a feature-map row is striped across one bank group
/// with `Px`-column segments alternating between group 0 and group 1, and
/// bank index `y mod Py` within the group. The controller exposes the six
/// read modes of Fig. 10 and the block write mode of §7.1; every access is
/// tallied into [`LayerStats`].
///
/// A retired output stack is kept as `spare` storage and recycled by the
/// next [`NeuronBuffer::begin_output`], so the per-layer role swap churns
/// no allocations once shapes have been seen. Maps shed when a reshape
/// shrinks the map count are parked in a recycle `pool` rather than
/// dropped, so layer sequences whose map counts oscillate (1 input map →
/// many conv maps → few classifier maps) also settle at a high-water mark
/// and then allocate nothing.
#[derive(Clone, Debug)]
pub struct NeuronBuffer {
    px: usize,
    py: usize,
    capacity_bytes: usize,
    stack: Option<MapStack<Fx>>,
    // Output under construction: map dims + write coverage tracking.
    out: Option<MapStack<Fx>>,
    out_written: u64,
    // Bank-group usage histogram for the Fig. 11 write-parity invariant.
    write_groups: [u64; 2],
    // Retired stack recycled by begin_output (not architectural state).
    spare: Option<MapStack<Fx>>,
    // Maps shed by shrinking reshapes, reused before allocating anew
    // (not architectural state).
    pool: Vec<FeatureMap<Fx>>,
}

impl PartialEq for NeuronBuffer {
    fn eq(&self, other: &NeuronBuffer) -> bool {
        // `spare` is recycled storage, not architectural state.
        self.px == other.px
            && self.py == other.py
            && self.capacity_bytes == other.capacity_bytes
            && self.stack == other.stack
            && self.out == other.out
            && self.out_written == other.out_written
            && self.write_groups == other.write_groups
    }
}

impl NeuronBuffer {
    /// Creates an empty buffer for a `Px × Py` NFU.
    pub fn new(px: usize, py: usize, capacity_bytes: usize) -> NeuronBuffer {
        NeuronBuffer {
            px,
            py,
            capacity_bytes,
            stack: None,
            out: None,
            out_written: 0,
            write_groups: [0, 0],
            spare: None,
            pool: Vec::new(),
        }
    }

    /// Capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Loads a whole layer's neurons (role handoff or sensor streaming).
    /// No access cost is charged — charging the producer is the caller's
    /// job.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the stack exceeds capacity.
    pub fn load(&mut self, stack: MapStack<Fx>) -> Result<(), CapacityError> {
        let needed = stack.neuron_count() * 2;
        if needed > self.capacity_bytes {
            return Err(CapacityError {
                buffer: "NB",
                needed,
                available: self.capacity_bytes,
            });
        }
        self.stack = Some(stack);
        Ok(())
    }

    /// [`NeuronBuffer::load`] from a borrowed stack, reusing the storage
    /// of whatever the buffer previously held (capacity-reusing
    /// `clone_from`) — the steady-state way to stream a new input frame
    /// in without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the stack exceeds capacity.
    pub fn load_from(&mut self, source: &MapStack<Fx>) -> Result<(), CapacityError> {
        let needed = source.neuron_count() * 2;
        if needed > self.capacity_bytes {
            return Err(CapacityError {
                buffer: "NB",
                needed,
                available: self.capacity_bytes,
            });
        }
        match &mut self.stack {
            Some(stack) => stack.clone_from_recycling(source, &mut self.pool),
            None => self.stack = Some(source.clone()),
        }
        Ok(())
    }

    /// The currently loaded layer, if any.
    pub fn contents(&self) -> Option<&MapStack<Fx>> {
        self.stack.as_ref()
    }

    /// Mutable access to the loaded layer — the schedule-replay path
    /// XORs a fault overlay's silent NB flips into the stack in place
    /// before executing a layer's arithmetic.
    pub(crate) fn contents_mut(&mut self) -> Option<&mut MapStack<Fx>> {
        self.stack.as_mut()
    }

    /// Removes and returns the loaded layer.
    pub fn take(&mut self) -> Option<MapStack<Fx>> {
        self.stack.take()
    }

    fn loaded(&self) -> Result<&MapStack<Fx>, EmptyBufferError> {
        self.stack.as_ref().ok_or(EmptyBufferError {
            buffer: "NB (input role)",
        })
    }

    /// The bank group (0 or 1) a column index belongs to (Fig. 11).
    #[inline]
    pub fn bank_group_of(&self, x: usize) -> usize {
        (x / self.px) % 2
    }

    /// Serialization penalty of a *rectangular* access: the `x`-walk
    /// visits column segments in non-decreasing order and the `y`-walk
    /// visits `h` distinct rows, so the distinct `(segment, row)` word
    /// set is (deduplicated segments) × (rows) — no sort needed. Words
    /// mapping to the same bank (same segment parity, same `row mod Py`)
    /// share a port and serialize; returns the extra cycles beyond the
    /// first.
    fn rect_extra_cycles(
        &self,
        (x0, y0): (usize, usize),
        (w, h): (usize, usize),
        (sx, sy): (usize, usize),
        scratch: &mut ReadScratch,
    ) -> u64 {
        if h == 1 {
            // Single row: every word shares `y mod Py`, so words conflict
            // exactly when their segments share a group parity. Count
            // distinct segments per parity without the histogram — this
            // is the per-sweep-cycle mode (c) path.
            let mut counts = [0u64; 2];
            let mut prev_seg = usize::MAX;
            for i in 0..w {
                let seg = (x0 + i * sx) / self.px;
                if seg != prev_seg {
                    prev_seg = seg;
                    counts[seg % 2] += 1;
                }
            }
            return counts[0].max(counts[1]).saturating_sub(1);
        }
        if w == 1 && sy == 1 && h <= self.py {
            // Single unit-stride column of at most Py rows: one segment,
            // all distinct banks — the per-sweep-cycle mode (f) path.
            return 0;
        }
        scratch.reset_loads(self.py);
        let mut max = 0u32;
        let mut prev_seg = usize::MAX;
        for i in 0..w {
            let seg = (x0 + i * sx) / self.px;
            if seg == prev_seg {
                continue;
            }
            prev_seg = seg;
            let group = (seg % 2) * self.py;
            for j in 0..h {
                let bank = group + (y0 + j * sy) % self.py;
                scratch.loads[bank] += 1;
                max = max.max(scratch.loads[bank]);
            }
        }
        u64::from(max.max(1)) - 1
    }

    /// Serialization penalty of an irregular word set (gather reads):
    /// dedup the words, histogram per bank, extra cycles beyond the
    /// first.
    fn gather_extra_cycles(
        &self,
        words: impl Iterator<Item = (usize, usize)>,
        scratch: &mut ReadScratch,
    ) -> u64 {
        scratch.words.clear();
        scratch.words.extend(words);
        scratch.words.sort_unstable();
        scratch.words.dedup();
        scratch.reset_loads(self.py);
        let mut max = 0u32;
        for &(seg, y) in &scratch.words {
            let bank = (seg % 2) * self.py + y % self.py;
            scratch.loads[bank] += 1;
            max = max.max(scratch.loads[bank]);
        }
        u64::from(max.max(1)) - 1
    }

    /// Mode (a)/(b) (or (e) when strided): read a `w × h` tile of neurons
    /// whose top-left input coordinate is `(x0, y0)`, consecutive PEs
    /// `stride` apart, into `out` (cleared first), row-major.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if the buffer holds no input layer.
    // Mirrors the NB controller port list (map, origin, extent, stride)
    // plus the two caller-owned scratch targets; bundling them would only
    // obscure the Fig. 10 interface.
    #[allow(clippy::too_many_arguments)]
    pub fn read_tile_into(
        &self,
        map: usize,
        (x0, y0): (usize, usize),
        (w, h): (usize, usize),
        (sx, sy): (usize, usize),
        stats: &mut LayerStats,
        scratch: &mut ReadScratch,
        out: &mut Vec<Fx>,
    ) -> Result<(), EmptyBufferError> {
        let stack = self.loaded()?;
        let mode = if sx == 1 && sy == 1 {
            if self.bank_group_of(x0) == 0 {
                ReadMode::A
            } else {
                ReadMode::B
            }
        } else {
            ReadMode::E
        };
        stats.nbin_read(mode, (w * h * 2) as u64);
        stats.bank_conflict_cycles += self.rect_extra_cycles((x0, y0), (w, h), (sx, sy), scratch);
        let fm = &stack[map];
        out.clear();
        if sx == 1 {
            for j in 0..h {
                out.extend_from_slice(&fm.row(y0 + j * sy)[x0..x0 + w]);
            }
        } else {
            for j in 0..h {
                for i in 0..w {
                    out.push(fm[(x0 + i * sx, y0 + j * sy)]);
                }
            }
        }
        Ok(())
    }

    /// Mode (a)/(b)/(e) tile read returning a fresh `Vec` (thin wrapper
    /// over [`NeuronBuffer::read_tile_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if the buffer holds no input layer.
    pub fn read_tile(
        &self,
        map: usize,
        origin: (usize, usize),
        dims: (usize, usize),
        stride: (usize, usize),
        stats: &mut LayerStats,
    ) -> Result<Vec<Fx>, EmptyBufferError> {
        let mut scratch = ReadScratch::default();
        let mut out = Vec::new();
        self.read_tile_into(map, origin, dims, stride, stats, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Mode (c): read up to `Px` neurons of one row from a single bank
    /// into `out` (cleared first).
    ///
    /// The `n ≤ Px` bank-width bound is `debug_assert!`-checked only: the
    /// executors derive `n` from the active block width, which the block
    /// schedule caps at `Px` by construction.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if the buffer holds no input layer.
    // Mirrors the NB controller port list (map, origin, extent, stride)
    // plus the two caller-owned scratch targets; bundling them would only
    // obscure the Fig. 10 interface.
    #[allow(clippy::too_many_arguments)]
    pub fn read_row_into(
        &self,
        map: usize,
        (x0, y0): (usize, usize),
        n: usize,
        sx: usize,
        stats: &mut LayerStats,
        scratch: &mut ReadScratch,
        out: &mut Vec<Fx>,
    ) -> Result<(), EmptyBufferError> {
        debug_assert!(
            n <= self.px,
            "mode (c) reads at most Px={} neurons",
            self.px
        );
        let stack = self.loaded()?;
        let mode = if sx == 1 { ReadMode::C } else { ReadMode::E };
        stats.nbin_read(mode, (n * 2) as u64);
        stats.bank_conflict_cycles += self.rect_extra_cycles((x0, y0), (n, 1), (sx, 1), scratch);
        let fm = &stack[map];
        out.clear();
        if sx == 1 {
            out.extend_from_slice(&fm.row(y0)[x0..x0 + n]);
        } else {
            for i in 0..n {
                out.push(fm[(x0 + i * sx, y0)]);
            }
        }
        Ok(())
    }

    /// Mode (c) row read returning a fresh `Vec` (thin wrapper over
    /// [`NeuronBuffer::read_row_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if the buffer holds no input layer.
    pub fn read_row(
        &self,
        map: usize,
        origin: (usize, usize),
        n: usize,
        sx: usize,
        stats: &mut LayerStats,
    ) -> Result<Vec<Fx>, EmptyBufferError> {
        let mut scratch = ReadScratch::default();
        let mut out = Vec::new();
        self.read_row_into(map, origin, n, sx, stats, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Mode (f): read one neuron per bank — a column of up to `Py`
    /// neurons — into `out` (cleared first).
    ///
    /// The `n ≤ Py` bank-count bound is `debug_assert!`-checked only (see
    /// [`NeuronBuffer::read_row_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if the buffer holds no input layer.
    // Mirrors the NB controller port list (map, origin, extent, stride)
    // plus the two caller-owned scratch targets; bundling them would only
    // obscure the Fig. 10 interface.
    #[allow(clippy::too_many_arguments)]
    pub fn read_col_into(
        &self,
        map: usize,
        (x0, y0): (usize, usize),
        n: usize,
        sy: usize,
        stats: &mut LayerStats,
        scratch: &mut ReadScratch,
        out: &mut Vec<Fx>,
    ) -> Result<(), EmptyBufferError> {
        debug_assert!(
            n <= self.py,
            "mode (f) reads at most Py={} neurons",
            self.py
        );
        let stack = self.loaded()?;
        let mode = if sy == 1 { ReadMode::F } else { ReadMode::E };
        stats.nbin_read(mode, (n * 2) as u64);
        stats.bank_conflict_cycles += self.rect_extra_cycles((x0, y0), (1, n), (1, sy), scratch);
        let fm = &stack[map];
        out.clear();
        for j in 0..n {
            out.push(fm[(x0, y0 + j * sy)]);
        }
        Ok(())
    }

    /// Mode (f) column read returning a fresh `Vec` (thin wrapper over
    /// [`NeuronBuffer::read_col_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if the buffer holds no input layer.
    pub fn read_col(
        &self,
        map: usize,
        origin: (usize, usize),
        n: usize,
        sy: usize,
        stats: &mut LayerStats,
    ) -> Result<Vec<Fx>, EmptyBufferError> {
        let mut scratch = ReadScratch::default();
        let mut out = Vec::new();
        self.read_col_into(map, origin, n, sy, stats, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Mode (d): read a single neuron by flat (map-major, row-major) index
    /// — the classifier-layer broadcast read. Already allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if the buffer holds no input layer.
    pub fn read_single(&self, flat: usize, stats: &mut LayerStats) -> Result<Fx, EmptyBufferError> {
        let stack = self.loaded()?;
        let per_map = stack.width() * stack.height();
        let map = flat / per_map;
        let rem = flat % per_map;
        stats.nbin_read(ReadMode::D, 2);
        Ok(stack[map][(rem % stack.width(), rem / stack.width())])
    }

    /// Mode (e): gather arbitrary strided coordinates (pooling windows)
    /// into `out` (cleared first); one access delivering `coords.len()`
    /// neurons.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if the buffer holds no input layer.
    pub fn read_gather_into(
        &self,
        map: usize,
        coords: &[(usize, usize)],
        stats: &mut LayerStats,
        scratch: &mut ReadScratch,
        out: &mut Vec<Fx>,
    ) -> Result<(), EmptyBufferError> {
        let stack = self.loaded()?;
        stats.nbin_read(ReadMode::E, (coords.len() * 2) as u64);
        stats.bank_conflict_cycles +=
            self.gather_extra_cycles(coords.iter().map(|&(x, y)| (x / self.px, y)), scratch);
        let fm = &stack[map];
        out.clear();
        for &(x, y) in coords {
            out.push(fm[(x, y)]);
        }
        Ok(())
    }

    /// Mode (e) gather read returning a fresh `Vec` (thin wrapper over
    /// [`NeuronBuffer::read_gather_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if the buffer holds no input layer.
    pub fn read_gather(
        &self,
        map: usize,
        coords: &[(usize, usize)],
        stats: &mut LayerStats,
    ) -> Result<Vec<Fx>, EmptyBufferError> {
        let mut scratch = ReadScratch::default();
        let mut out = Vec::new();
        self.read_gather_into(map, coords, stats, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Starts collecting a new output layer of `count` maps of `w × h`,
    /// recycling the storage of a previously retired stack when one is
    /// available.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the output layer exceeds capacity.
    pub fn begin_output(&mut self, w: usize, h: usize, count: usize) -> Result<(), CapacityError> {
        let needed = w * h * count * 2;
        if needed > self.capacity_bytes {
            return Err(CapacityError {
                buffer: "NB (output)",
                needed,
                available: self.capacity_bytes,
            });
        }
        let mut recycled = self.spare.take().unwrap_or_else(|| MapStack::new(w, h));
        recycled.refill_recycling(w, h, count, Fx::ZERO, &mut self.pool);
        self.out = Some(recycled);
        self.out_written = 0;
        self.write_groups = [0, 0];
        Ok(())
    }

    /// Block write (§7.1): stores an `w × h` block of results whose
    /// top-left output coordinate is `(x0, y0)` — the output register array
    /// flushing after all `Px × Py` PEs finish. The block lands in the bank
    /// group given by its column parity (Fig. 11), which is recorded for
    /// invariant checks.
    ///
    /// # Panics
    ///
    /// Panics if no output is begun or the block exceeds the output map.
    pub fn write_block(
        &mut self,
        map: usize,
        (x0, y0): (usize, usize),
        (w, h): (usize, usize),
        values: &[Fx],
        stats: &mut LayerStats,
    ) {
        assert_eq!(values.len(), w * h, "block payload mismatch");
        let group = self.bank_group_of(x0);
        self.write_groups[group] += 1;
        let out = self.out.as_mut().expect("write before begin_output");
        let target = out.get_mut(map).expect("output map out of range");
        for j in 0..h {
            for i in 0..w {
                target[(x0 + i, y0 + j)] = values[j * w + i];
            }
        }
        self.out_written += (w * h) as u64;
        stats.nbout.write((w * h * 2) as u64);
    }

    /// Scalar-group write: stores one value into each of `values.len()`
    /// consecutive `1 × 1` output maps starting at `start_map` — how a
    /// classifier layer's output register array flushes a PE group's
    /// results in a single write (§8.3).
    ///
    /// # Panics
    ///
    /// Panics if no output is begun, a map index is out of range, or the
    /// output maps are not `1 × 1`.
    pub fn write_scalar_group(&mut self, start_map: usize, values: &[Fx], stats: &mut LayerStats) {
        let out = self.out.as_mut().expect("write before begin_output");
        assert_eq!(out.map_dims(), (1, 1), "scalar writes need 1x1 maps");
        for (i, &v) in values.iter().enumerate() {
            out.get_mut(start_map + i).expect("output map out of range")[(0, 0)] = v;
        }
        self.out_written += values.len() as u64;
        self.write_groups[0] += 1;
        stats.nbout.write((values.len() * 2) as u64);
    }

    /// Finishes the output layer and returns it.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if no output was begun.
    ///
    /// # Panics
    ///
    /// Panics if not every output neuron was written exactly once in
    /// aggregate (coverage check).
    pub fn finish_output(&mut self) -> Result<MapStack<Fx>, EmptyBufferError> {
        let out = self.out.take().ok_or(EmptyBufferError {
            buffer: "NB (output role)",
        })?;
        assert_eq!(
            self.out_written as usize,
            out.neuron_count(),
            "output coverage mismatch"
        );
        Ok(out)
    }

    /// Finishes the output layer and installs it as this buffer's *input*
    /// contents in place — the NBin/NBout role swap of §5: after
    /// [`finish_output_into_input`](Self::finish_output_into_input) the
    /// caller swaps which physical buffer plays the NBin role, so the
    /// layer handoff costs zero copies (versus
    /// [`finish_output`](Self::finish_output) + [`load`](Self::load)).
    /// The displaced input stack is retired into the recycle slot for the
    /// next [`begin_output`](Self::begin_output).
    ///
    /// # Errors
    ///
    /// Returns [`EmptyBufferError`] if no output was begun.
    ///
    /// # Panics
    ///
    /// Panics like [`finish_output`](Self::finish_output) if the output
    /// coverage is incomplete.
    pub fn finish_output_into_input(&mut self) -> Result<(), EmptyBufferError> {
        let out = self.finish_output()?;
        self.spare = self.stack.replace(out);
        Ok(())
    }

    /// Block-write counts per bank group `(group 0, group 1)` since the
    /// last [`NeuronBuffer::begin_output`].
    pub fn write_group_histogram(&self) -> [u64; 2] {
        self.write_groups
    }
}

/// The synapse buffer: `Py` banks holding every kernel and classifier
/// weight of the CNN (§6).
///
/// Weight *values* live in the [`shidiannao_cnn::Network`] the accelerator
/// executes; `SynapseBuffer` enforces the capacity constraint and meters
/// the read traffic the NFU generates, which is what the energy model
/// charges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynapseBuffer {
    capacity_bytes: usize,
    loaded_bytes: usize,
}

impl SynapseBuffer {
    /// Creates an empty synapse buffer.
    pub fn new(capacity_bytes: usize) -> SynapseBuffer {
        SynapseBuffer {
            capacity_bytes,
            loaded_bytes: 0,
        }
    }

    /// Capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Registers the CNN's full synapse footprint (all layers at once, §6).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the synapses exceed capacity.
    pub fn load(&mut self, synapse_bytes: usize) -> Result<(), CapacityError> {
        if synapse_bytes > self.capacity_bytes {
            return Err(CapacityError {
                buffer: "SB",
                needed: synapse_bytes,
                available: self.capacity_bytes,
            });
        }
        self.loaded_bytes = synapse_bytes;
        Ok(())
    }

    /// Bytes currently resident.
    #[inline]
    pub fn loaded_bytes(&self) -> usize {
        self.loaded_bytes
    }

    /// One broadcast kernel-value read (convolutional layers read a single
    /// synapse per cycle and share it across all PEs, §8.1). Already
    /// allocation-free: the value itself comes from the [`SynapseStore`]'s
    /// indexed tables; this meters the SRAM traffic.
    ///
    /// [`SynapseStore`]: crate::SynapseStore
    #[inline]
    pub fn read_broadcast(&self, stats: &mut LayerStats) {
        stats.sb.read(2);
    }

    /// One wide read of `n` synapses (classifier layers read `Px × Py`
    /// different weights per cycle, §8.3).
    #[inline]
    pub fn read_wide(&self, n: usize, stats: &mut LayerStats) {
        stats.sb.read((n * 2) as u64);
    }
}

/// The instruction buffer and decoder front-end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstructionBuffer {
    capacity_bytes: usize,
    loaded_bytes: usize,
}

impl InstructionBuffer {
    /// Creates an empty instruction buffer.
    pub fn new(capacity_bytes: usize) -> InstructionBuffer {
        InstructionBuffer {
            capacity_bytes,
            loaded_bytes: 0,
        }
    }

    /// Capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Registers a compiled program's footprint.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the program exceeds capacity.
    pub fn load(&mut self, program_bytes: usize) -> Result<(), CapacityError> {
        if program_bytes > self.capacity_bytes {
            return Err(CapacityError {
                buffer: "IB",
                needed: program_bytes,
                available: self.capacity_bytes,
            });
        }
        self.loaded_bytes = program_bytes;
        Ok(())
    }

    /// One instruction fetch (8 bytes holds the 61-bit word).
    #[inline]
    pub fn fetch(&self, stats: &mut LayerStats) {
        stats.ib.read(8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shidiannao_tensor::FeatureMap;

    fn stack_4x4() -> MapStack<Fx> {
        MapStack::from_fn(4, 4, 2, |m| {
            FeatureMap::from_fn(4, 4, move |x, y| {
                Fx::from_int((m * 100 + y * 10 + x) as i32 % 60)
            })
        })
    }

    fn nb() -> NeuronBuffer {
        let mut nb = NeuronBuffer::new(2, 2, 4096);
        nb.load(stack_4x4()).unwrap();
        nb
    }

    #[test]
    fn load_respects_capacity() {
        let mut small = NeuronBuffer::new(2, 2, 8);
        let err = small.load(stack_4x4()).unwrap_err();
        assert_eq!(err.needed, 64);
        assert!(err.to_string().contains("overflow"));
        assert!(small.load_from(&stack_4x4()).is_err());
    }

    #[test]
    fn load_from_reuses_storage() {
        let mut nb = nb();
        let replacement = MapStack::filled(3, 3, 1, Fx::from_int(5));
        nb.load_from(&replacement).unwrap();
        assert_eq!(nb.contents().unwrap(), &replacement);
    }

    #[test]
    fn tile_read_is_row_major_and_counted() {
        let nb = nb();
        let mut s = LayerStats::new("t");
        let tile = nb.read_tile(0, (1, 1), (2, 2), (1, 1), &mut s).unwrap();
        assert_eq!(
            tile,
            vec![
                Fx::from_int(11),
                Fx::from_int(12),
                Fx::from_int(21),
                Fx::from_int(22)
            ]
        );
        assert_eq!(s.nbin.read_bytes, 8);
        assert_eq!(s.reads_by_mode[ReadMode::A as usize], 1);
    }

    #[test]
    fn tile_mode_depends_on_group_and_stride() {
        let nb = nb();
        let mut s = LayerStats::new("t");
        nb.read_tile(0, (2, 0), (2, 2), (1, 1), &mut s).unwrap(); // x0=2, px=2 → group 1
        assert_eq!(s.reads_by_mode[ReadMode::B as usize], 1);
        nb.read_tile(0, (0, 0), (2, 2), (2, 2), &mut s).unwrap(); // strided
        assert_eq!(s.reads_by_mode[ReadMode::E as usize], 1);
    }

    #[test]
    fn strided_tile_gathers_correctly() {
        let nb = nb();
        let mut s = LayerStats::new("t");
        let tile = nb.read_tile(0, (0, 0), (2, 2), (2, 2), &mut s).unwrap();
        assert_eq!(
            tile,
            vec![
                Fx::from_int(0),
                Fx::from_int(2),
                Fx::from_int(20),
                Fx::from_int(22)
            ]
        );
    }

    #[test]
    fn row_and_col_reads() {
        let nb = nb();
        let mut s = LayerStats::new("t");
        let row = nb.read_row(1, (0, 2), 2, 1, &mut s).unwrap();
        assert_eq!(row, vec![Fx::from_int(0), Fx::from_int(1)]); // 120%60, 121%60
        let col = nb.read_col(0, (3, 0), 2, 1, &mut s).unwrap();
        assert_eq!(col, vec![Fx::from_int(3), Fx::from_int(13)]);
        assert_eq!(s.reads_by_mode[ReadMode::C as usize], 1);
        assert_eq!(s.reads_by_mode[ReadMode::F as usize], 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "at most Px")]
    fn row_read_bounded_by_bank_width() {
        let nb = nb();
        let mut s = LayerStats::new("t");
        let _ = nb.read_row(0, (0, 0), 3, 1, &mut s);
    }

    #[test]
    fn single_read_uses_flat_index() {
        let nb = nb();
        let mut s = LayerStats::new("t");
        // flat 17 → map 1, position (1, 0) → value (100+1)%60 = 41.
        assert_eq!(nb.read_single(17, &mut s).unwrap(), Fx::from_int(41));
        assert_eq!(s.reads_by_mode[ReadMode::D as usize], 1);
        assert_eq!(s.nbin.read_bytes, 2);
    }

    #[test]
    fn gather_counts_one_access() {
        let nb = nb();
        let mut s = LayerStats::new("t");
        let vals = nb.read_gather(0, &[(0, 0), (3, 3)], &mut s).unwrap();
        assert_eq!(vals, vec![Fx::from_int(0), Fx::from_int(33)]);
        assert_eq!(s.nbin.read_accesses, 1);
        assert_eq!(s.nbin.read_bytes, 4);
    }

    #[test]
    fn into_reads_match_vec_reads() {
        let nb = nb();
        let mut s1 = LayerStats::new("vec");
        let mut s2 = LayerStats::new("vec");
        let mut scratch = ReadScratch::default();
        let mut out = Vec::new();

        let want = nb.read_tile(0, (0, 1), (2, 3), (1, 1), &mut s1).unwrap();
        nb.read_tile_into(0, (0, 1), (2, 3), (1, 1), &mut s2, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, want);

        let want = nb.read_tile(1, (0, 0), (2, 2), (2, 1), &mut s1).unwrap();
        nb.read_tile_into(1, (0, 0), (2, 2), (2, 1), &mut s2, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, want);

        let want = nb.read_row(0, (1, 2), 2, 1, &mut s1).unwrap();
        nb.read_row_into(0, (1, 2), 2, 1, &mut s2, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, want);

        let want = nb.read_col(1, (2, 0), 2, 2, &mut s1).unwrap();
        nb.read_col_into(1, (2, 0), 2, 2, &mut s2, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, want);

        let coords = [(0, 0), (2, 1), (2, 1), (3, 3)];
        let want = nb.read_gather(0, &coords, &mut s1).unwrap();
        nb.read_gather_into(0, &coords, &mut s2, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out, want);
        assert_eq!(s1, s2);
    }

    #[test]
    fn into_reads_meter_identically() {
        let nb = nb();
        let mut s1 = LayerStats::new("t");
        let mut s2 = LayerStats::new("t");
        let mut scratch = ReadScratch::default();
        let mut out = Vec::new();
        let _ = nb.read_tile(0, (1, 0), (2, 4), (1, 1), &mut s1).unwrap();
        let _ = nb.read_gather(0, &[(0, 0), (0, 1), (2, 0)], &mut s1);
        nb.read_tile_into(0, (1, 0), (2, 4), (1, 1), &mut s2, &mut scratch, &mut out)
            .unwrap();
        nb.read_gather_into(
            0,
            &[(0, 0), (0, 1), (2, 0)],
            &mut s2,
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(s1, s2);
        assert_ne!(s1.bank_conflict_cycles, 0);
    }

    #[test]
    fn write_blocks_cover_output_and_track_groups() {
        let mut nb = NeuronBuffer::new(2, 2, 4096);
        nb.begin_output(4, 2, 1).unwrap();
        let mut s = LayerStats::new("t");
        let vals: Vec<Fx> = (0..4).map(Fx::from_int).collect();
        nb.write_block(0, (0, 0), (2, 2), &vals, &mut s);
        nb.write_block(0, (2, 0), (2, 2), &vals, &mut s);
        assert_eq!(nb.write_group_histogram(), [1, 1]);
        let out = nb.finish_output().unwrap();
        assert_eq!(out[0][(0, 0)], Fx::from_int(0));
        assert_eq!(out[0][(3, 1)], Fx::from_int(3));
        assert_eq!(s.nbout.write_bytes, 16);
    }

    #[test]
    fn role_swap_recycles_retired_stacks() {
        let mut nb = nb();
        let mut s = LayerStats::new("t");
        nb.begin_output(1, 1, 1).unwrap();
        nb.write_block(0, (0, 0), (1, 1), &[Fx::from_int(9)], &mut s);
        nb.finish_output_into_input().unwrap();
        // The displaced 4x4 input stack is now the recycle slot; the next
        // begin_output reshapes it in place.
        assert!(nb.spare.is_some());
        nb.begin_output(2, 2, 3).unwrap();
        assert!(nb.spare.is_none());
        let out = nb.out.as_ref().unwrap();
        assert_eq!(out.map_dims(), (2, 2));
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|m| m.iter().all(|&v| v == Fx::ZERO)));
        assert_eq!(nb.contents().unwrap()[0][(0, 0)], Fx::from_int(9));
    }

    #[test]
    #[should_panic(expected = "coverage mismatch")]
    fn finish_requires_full_coverage() {
        let mut nb = NeuronBuffer::new(2, 2, 4096);
        nb.begin_output(4, 4, 1).unwrap();
        let mut s = LayerStats::new("t");
        nb.write_block(0, (0, 0), (2, 2), &[Fx::ZERO; 4], &mut s);
        let _ = nb.finish_output();
    }

    #[test]
    fn output_capacity_enforced() {
        let mut nb = NeuronBuffer::new(2, 2, 8);
        assert!(nb.begin_output(4, 4, 1).is_err());
    }

    #[test]
    fn sb_meters_reads_and_capacity() {
        let mut sb = SynapseBuffer::new(64);
        assert!(sb.load(64).is_ok());
        assert_eq!(sb.loaded_bytes(), 64);
        assert!(sb.load(65).is_err());
        let mut s = LayerStats::new("t");
        sb.read_broadcast(&mut s);
        sb.read_wide(64, &mut s);
        assert_eq!(s.sb.read_accesses, 2);
        assert_eq!(s.sb.read_bytes, 130);
    }

    #[test]
    fn ib_meters_fetches() {
        let mut ib = InstructionBuffer::new(16);
        assert!(ib.load(16).is_ok());
        assert!(ib.load(17).is_err());
        let mut s = LayerStats::new("t");
        ib.fetch(&mut s);
        assert_eq!(s.ib.read_bytes, 8);
        assert_eq!(ib.capacity_bytes(), 16);
    }

    #[test]
    fn reads_before_load_are_typed_errors() {
        let nb = NeuronBuffer::new(2, 2, 4096);
        let mut s = LayerStats::new("t");
        let err = nb.read_tile(0, (0, 0), (2, 2), (1, 1), &mut s).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        assert!(nb.read_row(0, (0, 0), 2, 1, &mut s).is_err());
        assert!(nb.read_col(0, (0, 0), 2, 1, &mut s).is_err());
        assert!(nb.read_single(0, &mut s).is_err());
        assert!(nb.read_gather(0, &[(0, 0)], &mut s).is_err());
        // No access was metered for a failed read.
        assert_eq!(s.nbin.read_bytes, 0);
    }

    #[test]
    fn finish_without_begin_is_a_typed_error() {
        let mut nb = NeuronBuffer::new(2, 2, 4096);
        assert!(nb.finish_output().is_err());
        assert!(nb.finish_output_into_input().is_err());
    }

    #[test]
    fn take_and_contents() {
        let mut nb = nb();
        assert!(nb.contents().is_some());
        let s = nb.take().unwrap();
        assert_eq!(s.len(), 2);
        assert!(nb.contents().is_none());
    }
}
