//! Processing-element state (Fig. 6), stored structure-of-arrays.
//!
//! The mesh's architectural state — accumulators, comparator registers,
//! output registers, and the FIFO-H/FIFO-V shift registers — lives in
//! [`PeArray`]: one flat array per register class, indexed by PE. A
//! window-sweep cycle is then a branch-light loop over contiguous arrays
//! instead of a pointer chase through per-PE `VecDeque`s. The per-PE view
//! API of the original array-of-structs design survives as [`PeRef`] /
//! [`PeMut`] accessor shims (what tests and the fault machinery use).

use shidiannao_faults::{PeStuck, PeStuckTarget};
use shidiannao_fixed::{Accum, Fx};

/// Structure-of-arrays storage for `n` processing elements.
///
/// Per Fig. 6, each PE holds a multiplier + adder (the widened [`Accum`]),
/// a comparator register (max pooling), an output register, and the two
/// inter-PE FIFOs:
///
/// * **FIFO-H** buffers every input neuron the PE receives; the *left*
///   neighbour pops it `Sx` cycles later while sweeping a kernel row,
/// * **FIFO-V** buffers the neurons received at the first column of a
///   kernel row (`kx = 0`); the *upper* neighbour pops it `Sy` kernel rows
///   later.
///
/// FIFO storage is a flat slab of `n × cap` words; PE `i`'s queue occupies
/// `[i·cap, i·cap + len_i)` oldest-first. Depths are tiny (`Sx`/`Sy`,
/// almost always 1–2), so shifting on pop beats ring indexing. Peak
/// occupancies are recorded so tests can verify the §5.1 sizing.
#[derive(Clone, Debug)]
pub(crate) struct PeArray {
    n: usize,
    acc: Vec<Accum>,
    cmp: Vec<Fx>,
    out: Vec<Fx>,
    fifo_h: Vec<Fx>,
    fifo_v: Vec<Fx>,
    h_len: Vec<u32>,
    v_len: Vec<u32>,
    h_peak: Vec<u32>,
    v_peak: Vec<u32>,
    h_depth: usize,
    v_depth: usize,
    h_cap: usize,
    v_cap: usize,
    // Hardware stuck-at faults: survive reset() (a property of the
    // silicon, not of the architectural state).
    stuck: Vec<Option<PeStuck>>,
    stuck_count: usize,
}

impl PeArray {
    /// Creates `n` idle PEs in their power-on state.
    pub(crate) fn new(n: usize) -> PeArray {
        PeArray {
            n,
            acc: vec![Accum::new(); n],
            cmp: vec![Fx::MIN; n],
            out: vec![Fx::ZERO; n],
            fifo_h: vec![Fx::ZERO; n],
            fifo_v: vec![Fx::ZERO; n],
            h_len: vec![0; n],
            v_len: vec![0; n],
            h_peak: vec![0; n],
            v_peak: vec![0; n],
            h_depth: 1,
            v_depth: 1,
            h_cap: 1,
            v_cap: 1,
            stuck: vec![None; n],
            stuck_count: 0,
        }
    }

    /// PE count.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Restores every PE to its power-on state, keeping slab capacities
    /// (capacity is not architectural state) and any stuck-at faults.
    pub(crate) fn reset(&mut self) {
        self.acc.fill(Accum::new());
        self.cmp.fill(Fx::MIN);
        self.out.fill(Fx::ZERO);
        self.h_len.fill(0);
        self.v_len.fill(0);
        self.h_peak.fill(0);
        self.v_peak.fill(0);
        self.h_depth = 1;
        self.v_depth = 1;
    }

    /// `true` when any PE carries a stuck-at fault (forces live decode).
    #[inline]
    pub(crate) fn any_stuck(&self) -> bool {
        self.stuck_count != 0
    }

    pub(crate) fn set_stuck(&mut self, i: usize, fault: Option<PeStuck>) {
        match (self.stuck[i].is_some(), fault.is_some()) {
            (false, true) => self.stuck_count += 1,
            (true, false) => self.stuck_count -= 1,
            _ => {}
        }
        self.stuck[i] = fault;
    }

    #[inline]
    pub(crate) fn stuck(&self, i: usize) -> Option<PeStuck> {
        self.stuck[i]
    }

    #[inline]
    fn stuck_output(&self, i: usize, v: Fx) -> Fx {
        match self.stuck[i] {
            Some(f) if f.target == PeStuckTarget::Output => f.apply(v),
            _ => v,
        }
    }

    #[inline]
    fn stuck_fifo(&self, i: usize, v: Fx) -> Fx {
        match self.stuck[i] {
            Some(f) if f.target == PeStuckTarget::Fifo => f.apply(v),
            _ => v,
        }
    }

    // ----- datapath registers ----------------------------------------

    /// Begins a new output neuron for MAC/add work, pre-loading the bias.
    #[inline]
    pub(crate) fn reset_accumulator(&mut self, i: usize, bias: Fx) {
        self.acc[i] = Accum::from_fx(bias);
    }

    /// Begins a new output neuron for max pooling.
    #[inline]
    pub(crate) fn reset_comparator(&mut self, i: usize) {
        self.cmp[i] = Fx::MIN;
    }

    /// One multiply-accumulate cycle.
    #[inline]
    pub(crate) fn mac(&mut self, i: usize, neuron: Fx, synapse: Fx) {
        self.acc[i].mac(neuron, synapse);
    }

    /// One accumulate-only cycle (average pooling, matrix addition).
    #[inline]
    pub(crate) fn add(&mut self, i: usize, neuron: Fx) {
        self.acc[i].add_fx(neuron);
    }

    /// One comparison cycle (max pooling).
    #[inline]
    pub(crate) fn compare(&mut self, i: usize, neuron: Fx) {
        self.cmp[i] = self.cmp[i].max(neuron);
    }

    /// Reads an accumulator through the PE output path (truncate +
    /// saturate, then through any stuck-at output fault).
    #[inline]
    pub(crate) fn accumulator(&self, i: usize) -> Fx {
        self.stuck_output(i, self.acc[i].to_fx())
    }

    /// Divides an accumulated sum by `count` (average pooling read-out).
    #[inline]
    pub(crate) fn accumulator_mean(&self, i: usize, count: usize) -> Fx {
        self.stuck_output(i, self.acc[i].mean(count))
    }

    /// A comparator register (max pooling result).
    #[inline]
    pub(crate) fn comparator(&self, i: usize) -> Fx {
        self.stuck_output(i, self.cmp[i])
    }

    /// Direct accumulator access for schedule replay: the classifier's
    /// whole weight row reduces in one dot product, so the per-cycle
    /// dispatch through [`PeArray::mac`] is bypassed. Fault handling is
    /// moot — replay is only selected when no PE carries a stuck-at
    /// fault.
    #[inline]
    pub(crate) fn acc_mut(&mut self, i: usize) -> &mut Accum {
        &mut self.acc[i]
    }

    /// Folds a recorded peak FIFO occupancy into the peak tracking
    /// (schedule replay advances the mesh to the after-layer peaks the
    /// recording run saw). [`PeArray::max_fifo_peaks`] reports a global
    /// maximum, so carrying the peak in PE 0's slot (always active —
    /// blocks anchor at the mesh origin) preserves the exact
    /// cumulative-since-reset semantics the live sweep produces.
    #[inline]
    pub(crate) fn note_fifo_peaks(&mut self, h: u32, v: u32) {
        self.h_peak[0] = self.h_peak[0].max(h);
        self.v_peak[0] = self.v_peak[0].max(v);
    }

    #[inline]
    pub(crate) fn latch_output(&mut self, i: usize, v: Fx) {
        self.out[i] = v;
    }

    #[inline]
    pub(crate) fn output(&self, i: usize) -> Fx {
        self.out[i]
    }

    // ----- FIFOs ------------------------------------------------------

    /// Configures the FIFO depths for the coming window pass: `Sx` slots
    /// for FIFO-H and `Sy` for FIFO-V (the §5.1 sizing). The FIFOs behave
    /// as shift registers: pushing into a full FIFO silently evicts the
    /// oldest entry — the value a left/upper neighbour would have consumed
    /// if one existed (edge PEs push like everyone else, Fig. 13).
    ///
    /// # Panics
    ///
    /// Panics if a depth is zero.
    pub(crate) fn set_fifo_depths(&mut self, h_depth: usize, v_depth: usize) {
        assert!(h_depth > 0 && v_depth > 0, "FIFO depths must be non-zero");
        self.h_depth = h_depth;
        self.v_depth = v_depth;
        if h_depth > self.h_cap {
            self.grow_h(h_depth);
        }
        if v_depth > self.v_cap {
            self.grow_v(v_depth);
        }
    }

    fn grow_h(&mut self, new_cap: usize) {
        let mut slab = vec![Fx::ZERO; self.n * new_cap];
        for i in 0..self.n {
            let len = self.h_len[i] as usize;
            slab[i * new_cap..i * new_cap + len]
                .copy_from_slice(&self.fifo_h[i * self.h_cap..i * self.h_cap + len]);
        }
        self.fifo_h = slab;
        self.h_cap = new_cap;
    }

    fn grow_v(&mut self, new_cap: usize) {
        let mut slab = vec![Fx::ZERO; self.n * new_cap];
        for i in 0..self.n {
            let len = self.v_len[i] as usize;
            slab[i * new_cap..i * new_cap + len]
                .copy_from_slice(&self.fifo_v[i * self.v_cap..i * self.v_cap + len]);
        }
        self.fifo_v = slab;
        self.v_cap = new_cap;
    }

    /// Pushes a received neuron into PE `i`'s FIFO-H (every received
    /// value).
    #[inline]
    pub(crate) fn push_h(&mut self, i: usize, v: Fx) {
        let len = self.h_len[i] as usize;
        if len == self.h_depth {
            // Shift-register eviction: drop the oldest, length stays at
            // depth (peak already recorded it).
            let base = i * self.h_cap;
            self.fifo_h.copy_within(base + 1..base + len, base);
            self.fifo_h[base + len - 1] = v;
            return;
        }
        if len == self.h_cap {
            // Depth was shrunk below the live length without a clear;
            // keep the legacy unbounded-growth semantics.
            self.grow_h(len + 1);
        }
        self.fifo_h[i * self.h_cap + len] = v;
        let new_len = (len + 1) as u32;
        self.h_len[i] = new_len;
        if new_len > self.h_peak[i] {
            self.h_peak[i] = new_len;
        }
    }

    /// Pushes a received neuron into PE `i`'s FIFO-V (first-column values
    /// only).
    #[inline]
    pub(crate) fn push_v(&mut self, i: usize, v: Fx) {
        let len = self.v_len[i] as usize;
        if len == self.v_depth {
            let base = i * self.v_cap;
            self.fifo_v.copy_within(base + 1..base + len, base);
            self.fifo_v[base + len - 1] = v;
            return;
        }
        if len == self.v_cap {
            self.grow_v(len + 1);
        }
        self.fifo_v[i * self.v_cap + len] = v;
        let new_len = (len + 1) as u32;
        self.v_len[i] = new_len;
        if new_len > self.v_peak[i] {
            self.v_peak[i] = new_len;
        }
    }

    /// Pops the oldest FIFO-H entry of PE `i` — called on behalf of its
    /// left neighbour.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty (a scheduling bug: the propagation
    /// schedule guarantees the value was pushed `Sx` cycles earlier).
    #[inline]
    pub(crate) fn pop_h(&mut self, i: usize) -> Fx {
        let len = self.h_len[i] as usize;
        assert!(len > 0, "FIFO-H underflow");
        let base = i * self.h_cap;
        let v = self.fifo_h[base];
        self.fifo_h.copy_within(base + 1..base + len, base);
        self.h_len[i] = (len - 1) as u32;
        self.stuck_fifo(i, v)
    }

    /// Pops the oldest FIFO-V entry of PE `i` — called on behalf of its
    /// upper neighbour.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty.
    #[inline]
    pub(crate) fn pop_v(&mut self, i: usize) -> Fx {
        let len = self.v_len[i] as usize;
        assert!(len > 0, "FIFO-V underflow");
        let base = i * self.v_cap;
        let v = self.fifo_v[base];
        self.fifo_v.copy_within(base + 1..base + len, base);
        self.v_len[i] = (len - 1) as u32;
        self.stuck_fifo(i, v)
    }

    /// Clears PE `i`'s FIFO-H.
    #[inline]
    pub(crate) fn clear_h(&mut self, i: usize) {
        self.h_len[i] = 0;
    }

    /// Clears PE `i`'s FIFO-V.
    #[inline]
    pub(crate) fn clear_v(&mut self, i: usize) {
        self.v_len[i] = 0;
    }

    /// Clears every FIFO-H (kernel-row boundary).
    #[inline]
    pub(crate) fn clear_all_h(&mut self) {
        self.h_len.fill(0);
    }

    /// Clears every FIFO-V (window-pass boundary).
    #[inline]
    pub(crate) fn clear_all_v(&mut self) {
        self.v_len.fill(0);
    }

    /// Current FIFO occupancies `(H, V)` of PE `i`.
    #[inline]
    pub(crate) fn fifo_len(&self, i: usize) -> (usize, usize) {
        (self.h_len[i] as usize, self.v_len[i] as usize)
    }

    /// Peak FIFO occupancies `(H, V)` of PE `i` since construction/reset.
    #[inline]
    pub(crate) fn fifo_peaks(&self, i: usize) -> (usize, usize) {
        (self.h_peak[i] as usize, self.v_peak[i] as usize)
    }

    /// Deepest FIFO occupancies across all PEs `(H, V)`.
    pub(crate) fn max_fifo_peaks(&self) -> (usize, usize) {
        let h = self.h_peak.iter().copied().max().unwrap_or(0);
        let v = self.v_peak.iter().copied().max().unwrap_or(0);
        (h as usize, v as usize)
    }

    /// Drains the active block's accumulators into `out` (cleared first),
    /// row-major, through the PE output path.
    pub(crate) fn read_accumulators_into(
        &self,
        px_stride: usize,
        (aw, ah): (usize, usize),
        out: &mut Vec<Fx>,
    ) {
        out.clear();
        for py in 0..ah {
            let base = py * px_stride;
            for dx in 0..aw {
                out.push(self.accumulator(base + dx));
            }
        }
    }
}

/// Shared read-only view of one PE inside a [`PeArray`] — the Fig. 6
/// per-PE API, preserved for tests and the fault machinery.
#[derive(Clone, Copy)]
pub struct PeRef<'a> {
    pub(crate) arr: &'a PeArray,
    pub(crate) i: usize,
}

impl PeRef<'_> {
    /// Reads the accumulator out through the PE output path (truncate +
    /// saturate, then through any stuck-at output fault).
    #[inline]
    pub fn accumulator(&self) -> Fx {
        self.arr.accumulator(self.i)
    }

    /// Divides the accumulated sum by `count` (average pooling read-out).
    #[inline]
    pub fn accumulator_mean(&self, count: usize) -> Fx {
        self.arr.accumulator_mean(self.i, count)
    }

    /// The comparator register (max pooling result).
    #[inline]
    pub fn comparator(&self) -> Fx {
        self.arr.comparator(self.i)
    }

    /// The latched output.
    #[inline]
    pub fn output(&self) -> Fx {
        self.arr.output(self.i)
    }

    /// Current FIFO occupancies `(H, V)`.
    #[inline]
    pub fn fifo_len(&self) -> (usize, usize) {
        self.arr.fifo_len(self.i)
    }

    /// Peak FIFO occupancies `(H, V)` since construction/reset.
    #[inline]
    pub fn fifo_peaks(&self) -> (usize, usize) {
        self.arr.fifo_peaks(self.i)
    }

    /// The configured stuck-at fault, if any.
    #[inline]
    pub fn stuck(&self) -> Option<PeStuck> {
        self.arr.stuck(self.i)
    }
}

/// Mutable view of one PE inside a [`PeArray`].
pub struct PeMut<'a> {
    pub(crate) arr: &'a mut PeArray,
    pub(crate) i: usize,
}

impl PeMut<'_> {
    /// Begins a new output neuron for MAC/add work, pre-loading the bias.
    #[inline]
    pub fn reset_accumulator(&mut self, bias: Fx) {
        self.arr.reset_accumulator(self.i, bias);
    }

    /// Begins a new output neuron for max pooling.
    #[inline]
    pub fn reset_comparator(&mut self) {
        self.arr.reset_comparator(self.i);
    }

    /// One multiply-accumulate cycle.
    #[inline]
    pub fn mac(&mut self, neuron: Fx, synapse: Fx) {
        self.arr.mac(self.i, neuron, synapse);
    }

    /// One accumulate-only cycle (average pooling, matrix addition).
    #[inline]
    pub fn add(&mut self, neuron: Fx) {
        self.arr.add(self.i, neuron);
    }

    /// One comparison cycle (max pooling).
    #[inline]
    pub fn compare(&mut self, neuron: Fx) {
        self.arr.compare(self.i, neuron);
    }

    /// Latches a final value into the output register (what the NB
    /// controller's output register array collects).
    #[inline]
    pub fn latch_output(&mut self, v: Fx) {
        self.arr.latch_output(self.i, v);
    }

    /// Pushes a received neuron into FIFO-H (every received value).
    #[inline]
    pub fn push_h(&mut self, v: Fx) {
        self.arr.push_h(self.i, v);
    }

    /// Pushes a received neuron into FIFO-V (first-column values only).
    #[inline]
    pub fn push_v(&mut self, v: Fx) {
        self.arr.push_v(self.i, v);
    }

    /// Pops the oldest FIFO-H entry.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty.
    #[inline]
    pub fn pop_h(&mut self) -> Fx {
        self.arr.pop_h(self.i)
    }

    /// Pops the oldest FIFO-V entry.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is empty.
    #[inline]
    pub fn pop_v(&mut self) -> Fx {
        self.arr.pop_v(self.i)
    }

    /// Clears FIFO-H (kernel-row boundary).
    #[inline]
    pub fn clear_h(&mut self) {
        self.arr.clear_h(self.i);
    }

    /// Clears FIFO-V (window-pass boundary).
    #[inline]
    pub fn clear_v(&mut self) {
        self.arr.clear_v(self.i);
    }

    /// Installs (or clears) a stuck-at datapath fault.
    #[inline]
    pub fn set_stuck(&mut self, stuck: Option<PeStuck>) {
        self.arr.set_stuck(self.i, stuck);
    }

    /// Reads the accumulator out through the PE output path.
    #[inline]
    pub fn accumulator(&self) -> Fx {
        self.arr.accumulator(self.i)
    }

    /// Divides the accumulated sum by `count` (average pooling read-out).
    #[inline]
    pub fn accumulator_mean(&self, count: usize) -> Fx {
        self.arr.accumulator_mean(self.i, count)
    }

    /// The comparator register (max pooling result).
    #[inline]
    pub fn comparator(&self) -> Fx {
        self.arr.comparator(self.i)
    }

    /// The latched output.
    #[inline]
    pub fn output(&self) -> Fx {
        self.arr.output(self.i)
    }

    /// Current FIFO occupancies `(H, V)`.
    #[inline]
    pub fn fifo_len(&self) -> (usize, usize) {
        self.arr.fifo_len(self.i)
    }

    /// Peak FIFO occupancies `(H, V)` since construction/reset.
    #[inline]
    pub fn fifo_peaks(&self) -> (usize, usize) {
        self.arr.fifo_peaks(self.i)
    }

    /// The configured stuck-at fault, if any.
    #[inline]
    pub fn stuck(&self) -> Option<PeStuck> {
        self.arr.stuck(self.i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one() -> PeArray {
        PeArray::new(1)
    }

    #[test]
    fn mac_chain_accumulates_with_bias() {
        let mut pe = one();
        pe.reset_accumulator(0, Fx::from_f32(0.5));
        pe.mac(0, Fx::from_f32(2.0), Fx::from_f32(3.0));
        pe.mac(0, Fx::from_f32(-1.0), Fx::from_f32(1.0));
        assert_eq!(pe.accumulator(0), Fx::from_f32(5.5));
    }

    #[test]
    fn comparator_tracks_max() {
        let mut pe = one();
        pe.reset_comparator(0);
        pe.compare(0, Fx::from_f32(-3.0));
        assert_eq!(pe.comparator(0), Fx::from_f32(-3.0));
        pe.compare(0, Fx::from_f32(1.0));
        pe.compare(0, Fx::from_f32(0.5));
        assert_eq!(pe.comparator(0), Fx::from_f32(1.0));
    }

    #[test]
    fn mean_readout_for_average_pooling() {
        let mut pe = one();
        pe.reset_accumulator(0, Fx::ZERO);
        for v in [1.0f32, 2.0, 3.0, 6.0] {
            pe.add(0, Fx::from_f32(v));
        }
        assert_eq!(pe.accumulator_mean(0, 4), Fx::from_f32(3.0));
    }

    #[test]
    fn fifos_are_fifo_ordered() {
        let mut pe = one();
        pe.set_fifo_depths(4, 4);
        pe.push_h(0, Fx::from_int(1));
        pe.push_h(0, Fx::from_int(2));
        assert_eq!(pe.pop_h(0), Fx::from_int(1));
        assert_eq!(pe.pop_h(0), Fx::from_int(2));
        pe.push_v(0, Fx::from_int(9));
        assert_eq!(pe.pop_v(0), Fx::from_int(9));
    }

    #[test]
    fn peaks_record_high_water_mark() {
        let mut pe = one();
        pe.set_fifo_depths(2, 1);
        pe.push_h(0, Fx::ZERO);
        pe.push_h(0, Fx::ZERO);
        pe.pop_h(0);
        pe.push_h(0, Fx::ZERO);
        assert_eq!(pe.fifo_peaks(0), (2, 0));
        assert_eq!(pe.fifo_len(0), (2, 0));
        pe.clear_h(0);
        assert_eq!(pe.fifo_len(0), (0, 0));
        assert_eq!(pe.fifo_peaks(0), (2, 0));
    }

    #[test]
    fn full_fifo_evicts_oldest_like_a_shift_register() {
        let mut pe = one();
        pe.set_fifo_depths(2, 2);
        pe.push_h(0, Fx::from_int(1));
        pe.push_h(0, Fx::from_int(2));
        pe.push_h(0, Fx::from_int(3)); // evicts 1
        assert_eq!(pe.fifo_len(0).0, 2);
        assert_eq!(pe.pop_h(0), Fx::from_int(2));
        assert_eq!(pe.pop_h(0), Fx::from_int(3));
    }

    #[test]
    fn shrunk_depth_keeps_live_entries_growable() {
        // Legacy VecDeque semantics: shrinking the depth below the live
        // length does not evict; a push then grows past the depth.
        let mut pe = one();
        pe.set_fifo_depths(3, 1);
        pe.push_h(0, Fx::from_int(1));
        pe.push_h(0, Fx::from_int(2));
        pe.set_fifo_depths(1, 1);
        pe.push_h(0, Fx::from_int(3));
        assert_eq!(pe.fifo_len(0).0, 3);
        assert_eq!(pe.pop_h(0), Fx::from_int(1));
        assert_eq!(pe.pop_h(0), Fx::from_int(2));
        assert_eq!(pe.pop_h(0), Fx::from_int(3));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_fifo_depth_rejected() {
        let mut pe = one();
        pe.set_fifo_depths(0, 1);
    }

    #[test]
    #[should_panic(expected = "FIFO-H underflow")]
    fn empty_pop_is_a_scheduling_bug() {
        let mut pe = one();
        let _ = pe.pop_h(0);
    }

    #[test]
    fn output_register_latches() {
        let mut pe = one();
        pe.latch_output(0, Fx::from_f32(1.5));
        assert_eq!(pe.output(0), Fx::from_f32(1.5));
    }

    #[test]
    fn stuck_output_fault_pins_bits_on_readout() {
        let mut pe = one();
        // Bit 0 stuck at 1 on the output path.
        pe.set_stuck(
            0,
            Some(PeStuck {
                mask: 0x0001,
                value: 0x0001,
                target: PeStuckTarget::Output,
            }),
        );
        assert!(pe.any_stuck());
        pe.reset_accumulator(0, Fx::ZERO);
        assert_eq!(pe.accumulator(0).to_bits(), 0x0001);
        // FIFO path is unaffected by an Output-target fault.
        pe.push_h(0, Fx::ZERO);
        assert_eq!(pe.pop_h(0), Fx::ZERO);
    }

    #[test]
    fn stuck_fifo_fault_corrupts_propagated_values_only() {
        let mut pe = one();
        pe.set_stuck(
            0,
            Some(PeStuck {
                mask: 0x0100,
                value: 0x0000,
                target: PeStuckTarget::Fifo,
            }),
        );
        pe.set_fifo_depths(2, 2);
        pe.push_h(0, Fx::from_bits(0x01FF));
        assert_eq!(pe.pop_h(0).to_bits(), 0x00FF);
        pe.reset_accumulator(0, Fx::from_bits(0x0100));
        assert_eq!(pe.accumulator(0).to_bits(), 0x0100);
    }

    #[test]
    fn stuck_fault_survives_reset() {
        let mut pe = one();
        let fault = PeStuck {
            mask: 0x8000,
            value: 0x8000,
            target: PeStuckTarget::Output,
        };
        pe.set_stuck(0, Some(fault));
        pe.reset();
        assert_eq!(pe.stuck(0), Some(fault));
        assert!(pe.any_stuck());
        pe.set_stuck(0, None);
        pe.reset();
        assert_eq!(pe.stuck(0), None);
        assert!(!pe.any_stuck());
    }

    #[test]
    fn reset_clears_previous_neuron_state() {
        let mut pe = one();
        pe.mac(0, Fx::ONE, Fx::ONE);
        pe.reset_accumulator(0, Fx::ZERO);
        assert_eq!(pe.accumulator(0), Fx::ZERO);
        pe.compare(0, Fx::MAX);
        pe.reset_comparator(0);
        assert_eq!(pe.comparator(0), Fx::MIN);
        pe.set_fifo_depths(4, 4);
        pe.push_h(0, Fx::ONE);
        pe.reset();
        assert_eq!(pe.fifo_len(0), (0, 0));
        assert_eq!(pe.fifo_peaks(0), (0, 0));
        assert_eq!(pe.len(), 1);
    }
}
