//! The Neural Functional Unit: a 2D mesh of PEs (Fig. 5).

use crate::pe::{PeArray, PeMut, PeRef};
use crate::stats::LayerStats;
use shidiannao_fixed::{Accum, Fx};

/// The `Px × Py` PE mesh with its inter-PE propagation topology.
///
/// PEs are addressed by `(x, y)` with `x` the column and `y` the row. Data
/// propagates right-to-left (a PE pops its **right** neighbour's FIFO-H)
/// and bottom-to-top (a PE pops the FIFO-V of the PE **below** it),
/// matching §5.1's "each PE can send locally-stored input neurons to its
/// left and lower neighbors" as seen from the receiving side of Fig. 13's
/// walkthrough.
///
/// PE state is stored structure-of-arrays in a `PeArray` (one flat
/// array per register class, indexed `y·Px + x`); [`Nfu::pe`] /
/// [`Nfu::pe_mut`] hand out per-PE views; schedule replay reaches the
/// accumulator and comparator arrays directly.
#[derive(Clone, Debug)]
pub struct Nfu {
    px: usize,
    py: usize,
    pes: PeArray,
}

impl Nfu {
    /// Creates a mesh of idle PEs.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(px: usize, py: usize) -> Nfu {
        assert!(px > 0 && py > 0, "NFU mesh must be non-empty");
        Nfu {
            px,
            py,
            pes: PeArray::new(px * py),
        }
    }

    /// Mesh columns (`Px`).
    #[inline]
    pub fn px(&self) -> usize {
        self.px
    }

    /// Mesh rows (`Py`).
    #[inline]
    pub fn py(&self) -> usize {
        self.py
    }

    /// Total PE count.
    #[inline]
    pub fn len(&self) -> usize {
        self.pes.len()
    }

    /// Always false (the mesh is non-empty by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The PE at `(x, y)`.
    ///
    /// Bounds are `debug_assert!`-checked only: mesh coordinates come
    /// from the compiled block schedule, which never exceeds `(Px, Py)`
    /// by construction (checked in `Program::compile`), so release
    /// builds skip the per-access range check.
    #[inline]
    pub fn pe(&self, x: usize, y: usize) -> PeRef<'_> {
        debug_assert!(x < self.px && y < self.py, "PE ({x},{y}) out of range");
        PeRef {
            arr: &self.pes,
            i: y * self.px + x,
        }
    }

    /// Mutable view of the PE at `(x, y)` (bounds `debug_assert!`-checked,
    /// see [`Nfu::pe`]).
    #[inline]
    pub fn pe_mut(&mut self, x: usize, y: usize) -> PeMut<'_> {
        debug_assert!(x < self.px && y < self.py, "PE ({x},{y}) out of range");
        PeMut {
            arr: &mut self.pes,
            i: y * self.px + x,
        }
    }

    /// Pops the FIFO-H of the PE to the right of `(x, y)` — the horizontal
    /// inter-PE propagation of Fig. 13 cycles #1–#2.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is the rightmost column (it has no right
    /// neighbour and must read from NBin instead).
    pub fn propagate_from_right(&mut self, x: usize, y: usize) -> Fx {
        assert!(x + 1 < self.px, "PE ({x},{y}) has no right neighbour");
        self.pes.pop_h(y * self.px + x + 1)
    }

    /// Pops the FIFO-V of the PE below `(x, y)` — the vertical inter-PE
    /// propagation of Fig. 13 cycle #3.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is the bottom row.
    pub fn propagate_from_below(&mut self, x: usize, y: usize) -> Fx {
        assert!(y + 1 < self.py, "PE ({x},{y}) has no lower neighbour");
        self.pes.pop_v((y + 1) * self.px + x)
    }

    /// Restores every PE to its power-on state, so a mesh reused across
    /// inferences is indistinguishable from a freshly constructed one —
    /// including the FIFO peak-occupancy counters the §5.1 sizing tests
    /// read. Stuck-at faults survive (they model silicon, not state).
    pub fn reset(&mut self) {
        self.pes.reset();
    }

    /// Configures every PE's FIFO depths for a window pass (§5.1 sizing:
    /// `Sx` and `Sy`).
    pub fn set_fifo_depths(&mut self, h_depth: usize, v_depth: usize) {
        self.pes.set_fifo_depths(h_depth, v_depth);
    }

    /// Clears every PE's FIFO-H (kernel-row boundary).
    pub fn clear_fifos_h(&mut self) {
        self.pes.clear_all_h();
    }

    /// Clears every PE's FIFO-V (window-pass boundary).
    pub fn clear_fifos_v(&mut self) {
        self.pes.clear_all_v();
    }

    /// Installs per-PE stuck-at faults from a map of `(x, y)` to fault
    /// descriptor. Passing a closure that always returns `None` clears any
    /// previously installed faults. Stuck faults survive [`Nfu::reset`].
    pub fn set_stuck_faults(
        &mut self,
        f: impl Fn(usize, usize) -> Option<shidiannao_faults::PeStuck>,
    ) {
        for y in 0..self.py {
            for x in 0..self.px {
                self.pes.set_stuck(y * self.px + x, f(x, y));
            }
        }
    }

    /// `true` when any PE carries a stuck-at fault — the condition that
    /// forces live decode (replay does not model stuck PEs).
    #[inline]
    pub fn any_stuck(&self) -> bool {
        self.pes.any_stuck()
    }

    /// Folds all PEs' peak FIFO occupancies into the layer statistics.
    pub fn record_fifo_peaks(&self, stats: &mut LayerStats) {
        let (h, v) = self.pes.max_fifo_peaks();
        stats.fifo_h_peak = stats.fifo_h_peak.max(h);
        stats.fifo_v_peak = stats.fifo_v_peak.max(v);
    }

    /// The mesh's cumulative `(FIFO-H, FIFO-V)` peak occupancies —
    /// monotone across a run (only `reset` clears them), which is what
    /// lets the schedule recorder snapshot them per layer.
    #[inline]
    pub(crate) fn fifo_peaks(&self) -> (usize, usize) {
        self.pes.max_fifo_peaks()
    }

    /// Drains the active block's accumulators into `out` (cleared first),
    /// row-major, through the PE output path.
    #[inline]
    pub(crate) fn read_accumulators_into(&self, active: (usize, usize), out: &mut Vec<Fx>) {
        self.pes.read_accumulators_into(self.px, active, out);
    }

    // ----- schedule-replay access -------------------------------------

    /// Direct accumulator access for the classifier replay (bounds
    /// `debug_assert!`-checked, see [`Nfu::pe`]).
    #[inline]
    pub(crate) fn acc_mut(&mut self, x: usize, y: usize) -> &mut Accum {
        debug_assert!(x < self.px && y < self.py, "PE ({x},{y}) out of range");
        self.pes.acc_mut(y * self.px + x)
    }

    /// Folds a recorded layer's peak into the FIFO peak tracking (see
    /// `PeArray::note_fifo_peaks`).
    #[inline]
    pub(crate) fn note_fifo_peaks(&mut self, h: u32, v: u32) {
        self.pes.note_fifo_peaks(h, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shidiannao_fixed::Fx;

    #[test]
    fn mesh_geometry() {
        let nfu = Nfu::new(8, 8);
        assert_eq!(nfu.len(), 64);
        assert_eq!((nfu.px(), nfu.py()), (8, 8));
        assert!(!nfu.is_empty());
    }

    #[test]
    fn horizontal_propagation_moves_right_to_left() {
        let mut nfu = Nfu::new(2, 1);
        nfu.pe_mut(1, 0).push_h(Fx::from_int(7));
        assert_eq!(nfu.propagate_from_right(0, 0), Fx::from_int(7));
    }

    #[test]
    fn vertical_propagation_moves_bottom_to_top() {
        let mut nfu = Nfu::new(1, 2);
        nfu.pe_mut(0, 1).push_v(Fx::from_int(9));
        assert_eq!(nfu.propagate_from_below(0, 0), Fx::from_int(9));
    }

    #[test]
    #[should_panic(expected = "no right neighbour")]
    fn rightmost_column_cannot_propagate() {
        let mut nfu = Nfu::new(2, 2);
        let _ = nfu.propagate_from_right(1, 0);
    }

    #[test]
    #[should_panic(expected = "no lower neighbour")]
    fn bottom_row_cannot_propagate() {
        let mut nfu = Nfu::new(2, 2);
        let _ = nfu.propagate_from_below(0, 1);
    }

    #[test]
    fn clears_affect_all_pes() {
        let mut nfu = Nfu::new(2, 2);
        for y in 0..2 {
            for x in 0..2 {
                nfu.pe_mut(x, y).push_h(Fx::ZERO);
                nfu.pe_mut(x, y).push_v(Fx::ZERO);
            }
        }
        nfu.clear_fifos_h();
        assert_eq!(nfu.pe(1, 1).fifo_len(), (0, 1));
        nfu.clear_fifos_v();
        assert_eq!(nfu.pe(1, 1).fifo_len(), (0, 0));
    }

    #[test]
    fn peaks_fold_into_stats() {
        let mut nfu = Nfu::new(2, 1);
        nfu.set_fifo_depths(2, 2);
        nfu.pe_mut(0, 0).push_h(Fx::ZERO);
        nfu.pe_mut(0, 0).push_h(Fx::ZERO);
        nfu.pe_mut(1, 0).push_v(Fx::ZERO);
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
        let _ = nfu.pe(2, 0);
    }

    #[test]
    fn stuck_faults_install_per_pe_and_survive_reset() {
        use shidiannao_faults::{PeStuck, PeStuckTarget};
        let mut nfu = Nfu::new(2, 2);
        let fault = PeStuck {
            mask: 1,
            value: 1,
            target: PeStuckTarget::Output,
        };
        nfu.set_stuck_faults(|x, y| (x == 1 && y == 0).then_some(fault));
        nfu.reset();
        assert!(nfu.any_stuck());
        assert_eq!(nfu.pe(1, 0).stuck(), Some(fault));
        assert_eq!(nfu.pe(0, 0).stuck(), None);
        nfu.set_stuck_faults(|_, _| None);
        assert_eq!(nfu.pe(1, 0).stuck(), None);
        assert!(!nfu.any_stuck());
    }

    #[test]
    fn accumulator_drain_is_row_major_over_the_active_block() {
        let mut nfu = Nfu::new(3, 2);
        for y in 0..2 {
            for x in 0..3 {
                nfu.pe_mut(x, y)
                    .reset_accumulator(Fx::from_int((10 * y + x) as i32));
            }
        }
        let mut acc = Vec::new();
        nfu.read_accumulators_into((2, 2), &mut acc);
        let want: Vec<Fx> = [0, 1, 10, 11].into_iter().map(Fx::from_int).collect();
        assert_eq!(acc, want);
    }
}
