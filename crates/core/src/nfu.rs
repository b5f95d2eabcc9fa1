//! The Neural Functional Unit: a 2D mesh of PEs (Fig. 5) and their
//! architectural state (Fig. 6), stored structure-of-arrays.

use crate::stats::LayerStats;
use shidiannao_faults::{PeStuck, PeStuckTarget};
use shidiannao_fixed::{Accum, Fx};

/// The `Px × Py` PE mesh with its inter-PE propagation topology.
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
/// Data therefore propagates right-to-left (a PE pops its **right**
/// neighbour's FIFO-H) and bottom-to-top (a PE pops the FIFO-V of the PE
/// **below** it), matching §5.1's "each PE can send locally-stored input
/// neurons to its left and lower neighbors" as seen from the receiving
/// side of Fig. 13's walkthrough.
///
/// The model keeps no output-register array: results are read straight
/// off the accumulators and comparators.
///
/// Each register class is one flat array, so a window-sweep cycle is a
/// branch-light loop over contiguous arrays. Per-PE operations take the
/// row-major PE index `y·Px + x` ([`Nfu::index`] converts a mesh
/// coordinate).
#[derive(Clone, Debug)]
pub(crate) struct Nfu {
    px: usize,
    py: usize,
    acc: Vec<Accum>,
    cmp: Vec<Fx>,
    fifo_h: FifoBank,
    fifo_v: FifoBank,
    // Hardware stuck-at faults: survive reset() (a property of the
    // silicon, not of the architectural state).
    stuck: Vec<Option<PeStuck>>,
    stuck_count: usize,
}

/// One FIFO class (H or V) of every PE. Storage is a flat slab of
/// `n × cap` words; PE `i`'s queue occupies `[i·cap, i·cap + len_i)`
/// oldest-first. Depths are tiny (`Sx`/`Sy`, almost always 1–2), so
/// shifting on pop beats ring indexing. Peak occupancies are recorded so
/// tests can verify the §5.1 sizing.
#[derive(Clone, Debug)]
struct FifoBank {
    name: char,
    slab: Vec<Fx>,
    len: Vec<u32>,
    peak: Vec<u32>,
    depth: usize,
    cap: usize,
}

impl FifoBank {
    fn new(name: char, n: usize) -> FifoBank {
        FifoBank {
            name,
            slab: vec![Fx::ZERO; n],
            len: vec![0; n],
            peak: vec![0; n],
            depth: 1,
            cap: 1,
        }
    }

    fn reset(&mut self) {
        self.len.fill(0);
        self.peak.fill(0);
        self.depth = 1;
    }

    fn set_depth(&mut self, depth: usize) {
        self.depth = depth;
        if depth > self.cap {
            self.grow(depth);
        }
    }

    fn grow(&mut self, new_cap: usize) {
        let mut slab = vec![Fx::ZERO; self.len.len() * new_cap];
        for (i, &len) in self.len.iter().enumerate() {
            let len = len as usize;
            slab[i * new_cap..i * new_cap + len]
                .copy_from_slice(&self.slab[i * self.cap..i * self.cap + len]);
        }
        self.slab = slab;
        self.cap = new_cap;
    }

    #[inline]
    fn push(&mut self, i: usize, v: Fx) {
        let len = self.len[i] as usize;
        if len == self.depth {
            // Shift-register eviction: drop the oldest, length stays at
            // depth (peak already recorded it).
            let base = i * self.cap;
            self.slab.copy_within(base + 1..base + len, base);
            self.slab[base + len - 1] = v;
            return;
        }
        if len == self.cap {
            // Depth was shrunk below the live length without a clear;
            // keep the legacy unbounded-growth semantics.
            self.grow(len + 1);
        }
        self.slab[i * self.cap + len] = v;
        let new_len = (len + 1) as u32;
        self.len[i] = new_len;
        if new_len > self.peak[i] {
            self.peak[i] = new_len;
        }
    }

    /// # Panics
    ///
    /// Panics if the FIFO is empty (a scheduling bug: the propagation
    /// schedule guarantees the value was pushed `Sx`/`Sy` steps earlier).
    #[inline]
    fn pop(&mut self, i: usize) -> Fx {
        let len = self.len[i] as usize;
        assert!(len > 0, "FIFO-{} underflow", self.name);
        let base = i * self.cap;
        let v = self.slab[base];
        self.slab.copy_within(base + 1..base + len, base);
        self.len[i] = (len - 1) as u32;
        v
    }

    fn max_peak(&self) -> usize {
        self.peak.iter().copied().max().unwrap_or(0) as usize
    }
}

impl Nfu {
    /// Creates a mesh of idle PEs in their power-on state.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn new(px: usize, py: usize) -> Nfu {
        assert!(px > 0 && py > 0, "NFU mesh must be non-empty");
        let n = px * py;
        Nfu {
            px,
            py,
            acc: vec![Accum::new(); n],
            cmp: vec![Fx::MIN; n],
            fifo_h: FifoBank::new('H', n),
            fifo_v: FifoBank::new('V', n),
            stuck: vec![None; n],
            stuck_count: 0,
        }
    }

    /// The row-major index of the PE at `(x, y)`.
    ///
    /// Bounds are `debug_assert!`-checked only: mesh coordinates come
    /// from the compiled block schedule, which never exceeds `(Px, Py)`
    /// by construction (checked in `Program::compile`), so release
    /// builds skip the per-access range check.
    #[inline]
    pub(crate) fn index(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.px && y < self.py, "PE ({x},{y}) out of range");
        y * self.px + x
    }

    // ----- whole mesh -------------------------------------------------

    /// Restores every PE to its power-on state, so a mesh reused across
    /// inferences is indistinguishable from a freshly constructed one —
    /// including the FIFO peak-occupancy counters the §5.1 sizing tests
    /// read. Slab capacities (not architectural state) and stuck-at
    /// faults (they model silicon, not state) survive.
    pub(crate) fn reset(&mut self) {
        self.acc.fill(Accum::new());
        self.cmp.fill(Fx::MIN);
        self.fifo_h.reset();
        self.fifo_v.reset();
    }

    /// Configures every PE's FIFO depths for the coming window pass: `Sx`
    /// slots for FIFO-H and `Sy` for FIFO-V (the §5.1 sizing). The FIFOs
    /// behave as shift registers: pushing into a full FIFO silently evicts
    /// the oldest entry — the value a left/upper neighbour would have
    /// consumed if one existed (edge PEs push like everyone else, Fig. 13).
    ///
    /// # Panics
    ///
    /// Panics if a depth is zero.
    pub(crate) fn set_fifo_depths(&mut self, h_depth: usize, v_depth: usize) {
        assert!(h_depth > 0 && v_depth > 0, "FIFO depths must be non-zero");
        self.fifo_h.set_depth(h_depth);
        self.fifo_v.set_depth(v_depth);
    }

    /// Clears every PE's FIFO-H (kernel-row boundary).
    #[inline]
    pub(crate) fn clear_fifos_h(&mut self) {
        self.fifo_h.len.fill(0);
    }

    /// Clears every PE's FIFO-V (window-pass boundary).
    #[inline]
    pub(crate) fn clear_fifos_v(&mut self) {
        self.fifo_v.len.fill(0);
    }

    /// Installs per-PE stuck-at faults from a map of `(x, y)` to fault
    /// descriptor. Passing a closure that always returns `None` clears any
    /// previously installed faults. Stuck faults survive [`Nfu::reset`].
    pub(crate) fn set_stuck_faults(&mut self, f: impl Fn(usize, usize) -> Option<PeStuck>) {
        for i in 0..self.stuck.len() {
            self.set_stuck(i, f(i % self.px, i / self.px));
        }
    }

    fn set_stuck(&mut self, i: usize, fault: Option<PeStuck>) {
        match (self.stuck[i].is_some(), fault.is_some()) {
            (false, true) => self.stuck_count += 1,
            (true, false) => self.stuck_count -= 1,
            _ => {}
        }
        self.stuck[i] = fault;
    }

    /// `true` when any PE carries a stuck-at fault — the condition that
    /// forces live decode (replay does not model stuck PEs).
    #[inline]
    pub(crate) fn any_stuck(&self) -> bool {
        self.stuck_count != 0
    }

    /// Folds all PEs' peak FIFO occupancies into the layer statistics.
    pub(crate) fn record_fifo_peaks(&self, stats: &mut LayerStats) {
        let (h, v) = self.fifo_peaks();
        stats.fifo_h_peak = stats.fifo_h_peak.max(h);
        stats.fifo_v_peak = stats.fifo_v_peak.max(v);
    }

    /// The mesh's cumulative `(FIFO-H, FIFO-V)` peak occupancies —
    /// monotone across a run (only `reset` clears them), which is what
    /// lets the schedule recorder snapshot them per layer.
    #[inline]
    pub(crate) fn fifo_peaks(&self) -> (usize, usize) {
        (self.fifo_h.max_peak(), self.fifo_v.max_peak())
    }

    /// Folds a recorded peak FIFO occupancy into the peak tracking
    /// (schedule replay advances the mesh to the after-layer peaks the
    /// recording run saw). [`Nfu::fifo_peaks`] reports a global maximum,
    /// so carrying the peak in PE 0's slot (always active — blocks anchor
    /// at the mesh origin) preserves the exact cumulative-since-reset
    /// semantics the live sweep produces.
    #[inline]
    pub(crate) fn note_fifo_peaks(&mut self, h: u32, v: u32) {
        self.fifo_h.peak[0] = self.fifo_h.peak[0].max(h);
        self.fifo_v.peak[0] = self.fifo_v.peak[0].max(v);
    }

    /// Drains the active block's accumulators into `out` (cleared first),
    /// row-major, through the PE output path.
    #[inline]
    pub(crate) fn read_accumulators_into(&self, (aw, ah): (usize, usize), out: &mut Vec<Fx>) {
        out.clear();
        for y in 0..ah {
            for x in 0..aw {
                out.push(self.accumulator(y * self.px + x));
            }
        }
    }

    // ----- per PE: datapath registers ---------------------------------

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
        self.through_stuck(i, PeStuckTarget::Output, self.acc[i].to_fx())
    }

    /// Divides an accumulated sum by `count` (average pooling read-out).
    #[inline]
    pub(crate) fn accumulator_mean(&self, i: usize, count: usize) -> Fx {
        self.through_stuck(i, PeStuckTarget::Output, self.acc[i].mean(count))
    }

    /// A comparator register (max pooling result).
    #[inline]
    pub(crate) fn comparator(&self, i: usize) -> Fx {
        self.through_stuck(i, PeStuckTarget::Output, self.cmp[i])
    }

    /// Direct accumulator access for schedule replay: the classifier's
    /// whole weight row reduces in one dot product, so the per-cycle
    /// dispatch through [`Nfu::mac`] is bypassed. Fault handling is moot —
    /// replay is only selected when no PE carries a stuck-at fault.
    #[inline]
    pub(crate) fn acc_mut(&mut self, i: usize) -> &mut Accum {
        &mut self.acc[i]
    }

    /// `v` through PE `i`'s stuck-at fault, if it sits on `target`.
    #[inline]
    fn through_stuck(&self, i: usize, target: PeStuckTarget, v: Fx) -> Fx {
        match self.stuck[i] {
            Some(f) if f.target == target => f.apply(v),
            _ => v,
        }
    }

    // ----- per PE: FIFOs ----------------------------------------------

    /// Pushes a received neuron into PE `i`'s FIFO-H (every received
    /// value).
    #[inline]
    pub(crate) fn push_h(&mut self, i: usize, v: Fx) {
        self.fifo_h.push(i, v);
    }

    /// Pushes a received neuron into PE `i`'s FIFO-V (first-column values
    /// only).
    #[inline]
    pub(crate) fn push_v(&mut self, i: usize, v: Fx) {
        self.fifo_v.push(i, v);
    }

    /// Pops the FIFO-H of the PE to the right of PE `i` — the horizontal
    /// inter-PE propagation of Fig. 13 cycles #1–#2.
    ///
    /// # Panics
    ///
    /// Panics if PE `i` is in the rightmost column (it has no right
    /// neighbour and must read from NBin instead), or if that FIFO is
    /// empty.
    #[inline]
    pub(crate) fn propagate_from_right(&mut self, i: usize) -> Fx {
        assert!(i % self.px + 1 < self.px, "PE {i} has no right neighbour");
        let v = self.fifo_h.pop(i + 1);
        self.through_stuck(i + 1, PeStuckTarget::Fifo, v)
    }

    /// Pops the FIFO-V of the PE below PE `i` — the vertical inter-PE
    /// propagation of Fig. 13 cycle #3.
    ///
    /// # Panics
    ///
    /// Panics if PE `i` is in the bottom row, or if that FIFO is empty.
    #[inline]
    pub(crate) fn propagate_from_below(&mut self, i: usize) -> Fx {
        let below = i + self.px;
        assert!(below < self.acc.len(), "PE {i} has no lower neighbour");
        let v = self.fifo_v.pop(below);
        self.through_stuck(below, PeStuckTarget::Fifo, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-only inspection of one PE.
    impl Nfu {
        fn fifo_len(&self, i: usize) -> (usize, usize) {
            (self.fifo_h.len[i] as usize, self.fifo_v.len[i] as usize)
        }

        fn pe_fifo_peaks(&self, i: usize) -> (usize, usize) {
            (self.fifo_h.peak[i] as usize, self.fifo_v.peak[i] as usize)
        }
    }

    fn one() -> Nfu {
        Nfu::new(1, 1)
    }

    #[test]
    fn mesh_geometry() {
        let nfu = Nfu::new(8, 8);
        assert_eq!(nfu.acc.len(), 64);
        assert_eq!((nfu.px, nfu.py), (8, 8));
        assert_eq!(nfu.index(7, 7), 63);
        assert_eq!(nfu.index(3, 1), 11);
    }

    #[test]
    fn horizontal_propagation_moves_right_to_left() {
        let mut nfu = Nfu::new(2, 1);
        nfu.push_h(1, Fx::from_int(7));
        assert_eq!(nfu.propagate_from_right(0), Fx::from_int(7));
    }

    #[test]
    fn vertical_propagation_moves_bottom_to_top() {
        let mut nfu = Nfu::new(1, 2);
        nfu.push_v(1, Fx::from_int(9));
        assert_eq!(nfu.propagate_from_below(0), Fx::from_int(9));
    }

    #[test]
    fn propagation_addresses_the_neighbour_on_a_wide_mesh() {
        let mut nfu = Nfu::new(3, 2);
        nfu.set_fifo_depths(2, 2);
        for i in 0..6 {
            nfu.push_h(i, Fx::from_int(i as i32));
            nfu.push_v(i, Fx::from_int(10 + i as i32));
        }
        let (a, b) = (nfu.index(1, 0), nfu.index(0, 1));
        assert_eq!(nfu.propagate_from_right(a), Fx::from_int(2));
        assert_eq!(nfu.propagate_from_right(b), Fx::from_int(4));
        assert_eq!(nfu.propagate_from_below(a), Fx::from_int(14));
        assert_eq!(nfu.fifo_len(a), (1, 1));
    }

    #[test]
    #[should_panic(expected = "no right neighbour")]
    fn rightmost_column_cannot_propagate() {
        let mut nfu = Nfu::new(2, 2);
        let i = nfu.index(1, 0);
        let _ = nfu.propagate_from_right(i);
    }

    #[test]
    #[should_panic(expected = "no lower neighbour")]
    fn bottom_row_cannot_propagate() {
        let mut nfu = Nfu::new(2, 2);
        let i = nfu.index(0, 1);
        let _ = nfu.propagate_from_below(i);
    }

    #[test]
    fn clears_affect_all_pes() {
        let mut nfu = Nfu::new(2, 2);
        for i in 0..4 {
            nfu.push_h(i, Fx::ZERO);
            nfu.push_v(i, Fx::ZERO);
        }
        nfu.clear_fifos_h();
        assert_eq!(nfu.fifo_len(nfu.index(1, 1)), (0, 1));
        nfu.clear_fifos_v();
        assert_eq!(nfu.fifo_len(nfu.index(1, 1)), (0, 0));
    }

    #[test]
    fn peaks_fold_into_stats() {
        let mut nfu = Nfu::new(2, 1);
        nfu.set_fifo_depths(2, 2);
        nfu.push_h(0, Fx::ZERO);
        nfu.push_h(0, Fx::ZERO);
        nfu.push_v(1, Fx::ZERO);
        let mut stats = LayerStats::new("t");
        nfu.record_fifo_peaks(&mut stats);
        assert_eq!(stats.fifo_h_peak, 2);
        assert_eq!(stats.fifo_v_peak, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn pe_access_is_bounds_checked() {
        let nfu = Nfu::new(2, 2);
        let _ = nfu.index(2, 0);
    }

    #[test]
    fn stuck_faults_install_per_pe_and_survive_reset() {
        let mut nfu = Nfu::new(2, 2);
        let fault = PeStuck {
            mask: 1,
            value: 1,
            target: PeStuckTarget::Output,
        };
        nfu.set_stuck_faults(|x, y| (x == 1 && y == 0).then_some(fault));
        nfu.reset();
        assert!(nfu.any_stuck());
        assert_eq!(nfu.stuck[nfu.index(1, 0)], Some(fault));
        assert_eq!(nfu.stuck[nfu.index(0, 0)], None);
        nfu.set_stuck_faults(|_, _| None);
        assert_eq!(nfu.stuck[nfu.index(1, 0)], None);
        assert!(!nfu.any_stuck());
    }

    #[test]
    fn accumulator_drain_is_row_major_over_the_active_block() {
        let mut nfu = Nfu::new(3, 2);
        for y in 0..2 {
            for x in 0..3 {
                let i = nfu.index(x, y);
                nfu.reset_accumulator(i, Fx::from_int((10 * y + x) as i32));
            }
        }
        let mut acc = Vec::new();
        nfu.read_accumulators_into((2, 2), &mut acc);
        let want: Vec<Fx> = [0, 1, 10, 11].into_iter().map(Fx::from_int).collect();
        assert_eq!(acc, want);
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
        assert_eq!(pe.fifo_h.pop(0), Fx::from_int(1));
        assert_eq!(pe.fifo_h.pop(0), Fx::from_int(2));
        pe.push_v(0, Fx::from_int(9));
        assert_eq!(pe.fifo_v.pop(0), Fx::from_int(9));
    }

    #[test]
    fn peaks_record_high_water_mark() {
        let mut pe = one();
        pe.set_fifo_depths(2, 1);
        pe.push_h(0, Fx::ZERO);
        pe.push_h(0, Fx::ZERO);
        pe.fifo_h.pop(0);
        pe.push_h(0, Fx::ZERO);
        assert_eq!(pe.pe_fifo_peaks(0), (2, 0));
        assert_eq!(pe.fifo_len(0), (2, 0));
        pe.clear_fifos_h();
        assert_eq!(pe.fifo_len(0), (0, 0));
        assert_eq!(pe.pe_fifo_peaks(0), (2, 0));
    }

    #[test]
    fn full_fifo_evicts_oldest_like_a_shift_register() {
        let mut pe = one();
        pe.set_fifo_depths(2, 2);
        pe.push_h(0, Fx::from_int(1));
        pe.push_h(0, Fx::from_int(2));
        pe.push_h(0, Fx::from_int(3)); // evicts 1
        assert_eq!(pe.fifo_len(0).0, 2);
        assert_eq!(pe.fifo_h.pop(0), Fx::from_int(2));
        assert_eq!(pe.fifo_h.pop(0), Fx::from_int(3));
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
        assert_eq!(pe.fifo_h.pop(0), Fx::from_int(1));
        assert_eq!(pe.fifo_h.pop(0), Fx::from_int(2));
        assert_eq!(pe.fifo_h.pop(0), Fx::from_int(3));
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
        let mut nfu = Nfu::new(2, 1);
        let _ = nfu.propagate_from_right(0);
    }

    #[test]
    fn stuck_output_fault_pins_bits_on_readout() {
        let mut nfu = Nfu::new(2, 1);
        // Bit 0 stuck at 1 on the output path.
        nfu.set_stuck(
            1,
            Some(PeStuck {
                mask: 0x0001,
                value: 0x0001,
                target: PeStuckTarget::Output,
            }),
        );
        assert!(nfu.any_stuck());
        nfu.reset_accumulator(1, Fx::ZERO);
        assert_eq!(nfu.accumulator(1).to_bits(), 0x0001);
        // FIFO path is unaffected by an Output-target fault.
        nfu.push_h(1, Fx::ZERO);
        assert_eq!(nfu.propagate_from_right(0), Fx::ZERO);
    }

    #[test]
    fn stuck_fifo_fault_corrupts_propagated_values_only() {
        let mut nfu = Nfu::new(2, 1);
        nfu.set_stuck(
            1,
            Some(PeStuck {
                mask: 0x0100,
                value: 0x0000,
                target: PeStuckTarget::Fifo,
            }),
        );
        nfu.set_fifo_depths(2, 2);
        nfu.push_h(1, Fx::from_bits(0x01FF));
        assert_eq!(nfu.propagate_from_right(0).to_bits(), 0x00FF);
        nfu.reset_accumulator(1, Fx::from_bits(0x0100));
        assert_eq!(nfu.accumulator(1).to_bits(), 0x0100);
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
        assert_eq!(pe.stuck[0], Some(fault));
        assert!(pe.any_stuck());
        pe.set_stuck(0, None);
        pe.reset();
        assert_eq!(pe.stuck[0], None);
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
        assert_eq!(pe.pe_fifo_peaks(0), (0, 0));
        assert_eq!(pe.acc.len(), 1);
    }
}
