//! Input-map → output-map connection tables for convolutional layers.

use core::fmt;

/// Which input feature maps feed each output feature map of a convolutional
/// layer — the paper's `A_mo` set in formula (1).
///
/// Classic CNNs connect output maps to *subsets* of the input maps (e.g.
/// LeNet-5's C3 uses 60 kernels instead of the 6 × 16 = 96 of full
/// connectivity), and Table 2's kernel counts reflect this. A table stores,
/// per output map, the sorted list of connected input maps; one `Kx × Ky`
/// kernel exists per connected pair, so [`ConnectionTable::pair_count`] is
/// exactly the Table 2 kernel count.
///
/// # Examples
///
/// ```
/// use shidiannao_cnn::ConnectionTable;
/// let full = ConnectionTable::full(6, 16);
/// assert_eq!(full.pair_count(), 96);
/// let lenet = ConnectionTable::lenet_c3();
/// assert_eq!(lenet.pair_count(), 60);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ConnectionTable {
    in_maps: usize,
    // inputs[o] = sorted connected input-map indices for output map o.
    inputs: Vec<Vec<usize>>,
}

impl ConnectionTable {
    /// Full connectivity: every output map reads every input map.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn full(in_maps: usize, out_maps: usize) -> ConnectionTable {
        assert!(in_maps > 0 && out_maps > 0, "map counts must be non-zero");
        ConnectionTable {
            in_maps,
            inputs: vec![(0..in_maps).collect(); out_maps],
        }
    }

    /// Deterministic partial connectivity with exactly `pairs` kernels,
    /// distributed as evenly as possible across output maps, each map's
    /// connections forming a contiguous (wrapping) run of input maps.
    ///
    /// This reconstructs the Table 2 benchmarks whose kernel counts are
    /// below full connectivity (e.g. CNP C3: 61 kernels for 6 × 16 maps).
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is zero, exceeds `in_maps × out_maps`, or would
    /// give some output map more connections than there are input maps.
    pub fn spread(in_maps: usize, out_maps: usize, pairs: usize) -> ConnectionTable {
        assert!(in_maps > 0 && out_maps > 0, "map counts must be non-zero");
        assert!(
            (1..=in_maps * out_maps).contains(&pairs),
            "pair count {pairs} out of range for {in_maps}x{out_maps} maps"
        );
        let base = pairs / out_maps;
        let extra = pairs % out_maps;
        let mut inputs = Vec::with_capacity(out_maps);
        for o in 0..out_maps {
            let count = base + usize::from(o < extra);
            assert!(
                count <= in_maps,
                "output map {o} would need {count} connections but only {in_maps} inputs exist"
            );
            let start = (o * in_maps) / out_maps;
            let mut conn: Vec<usize> = (0..count).map(|j| (start + j) % in_maps).collect();
            conn.sort_unstable();
            inputs.push(conn);
        }
        ConnectionTable { in_maps, inputs }
    }

    /// The classic LeNet-5 C3 connection scheme (60 kernels between 6 input
    /// and 16 output maps), as published by LeCun et al.
    pub fn lenet_c3() -> ConnectionTable {
        let mut inputs = Vec::with_capacity(16);
        // Maps 0–5: three consecutive inputs.
        for o in 0..6 {
            inputs.push((0..3).map(|j| (o + j) % 6).collect());
        }
        // Maps 6–11: four consecutive inputs.
        for o in 0..6 {
            inputs.push((0..4).map(|j| (o + j) % 6).collect());
        }
        // Maps 12–14: four non-contiguous inputs.
        inputs.push(vec![0, 1, 3, 4]);
        inputs.push(vec![1, 2, 4, 5]);
        inputs.push(vec![0, 2, 3, 5]);
        // Map 15: all six.
        inputs.push((0..6).collect());
        let mut inputs: Vec<Vec<usize>> = inputs;
        for conn in &mut inputs {
            conn.sort_unstable();
        }
        ConnectionTable { in_maps: 6, inputs }
    }

    /// Builds a table from explicit per-output-map input lists.
    ///
    /// # Panics
    ///
    /// Panics if any list is empty, unsorted after normalization is
    /// impossible (duplicate entries), or references an input ≥ `in_maps`.
    pub fn from_lists(in_maps: usize, lists: Vec<Vec<usize>>) -> ConnectionTable {
        assert!(!lists.is_empty(), "at least one output map required");
        let mut inputs = lists;
        for (o, conn) in inputs.iter_mut().enumerate() {
            assert!(!conn.is_empty(), "output map {o} has no inputs");
            conn.sort_unstable();
            conn.dedup();
            assert!(
                conn.last().is_some_and(|&last| last < in_maps),
                "output map {o} references input beyond {in_maps}"
            );
        }
        ConnectionTable { in_maps, inputs }
    }

    /// Number of input maps the table reads from.
    #[inline]
    pub fn in_maps(&self) -> usize {
        self.in_maps
    }

    /// Number of output maps the table produces.
    #[inline]
    pub fn out_maps(&self) -> usize {
        self.inputs.len()
    }

    /// The sorted input maps connected to output map `o` (the paper's
    /// `A_mo`).
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range.
    #[inline]
    pub fn inputs_of(&self, o: usize) -> &[usize] {
        &self.inputs[o]
    }

    /// Total number of connected (input, output) pairs — i.e. the number of
    /// `Kx × Ky` kernels (Table 2's `#`).
    pub fn pair_count(&self) -> usize {
        self.inputs.iter().map(Vec::len).sum()
    }

    /// `true` if every output map connects to every input map.
    pub fn is_full(&self) -> bool {
        self.pair_count() == self.in_maps * self.out_maps()
    }
}

impl fmt::Debug for ConnectionTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ConnectionTable {{ {} in, {} out, {} pairs }}",
            self.in_maps,
            self.out_maps(),
            self.pair_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_table_counts() {
        let t = ConnectionTable::full(6, 16);
        assert_eq!(t.pair_count(), 96);
        assert!(t.is_full());
        assert_eq!(t.inputs_of(15), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn lenet_c3_matches_the_classic_sixty() {
        let t = ConnectionTable::lenet_c3();
        assert_eq!(t.in_maps(), 6);
        assert_eq!(t.out_maps(), 16);
        assert_eq!(t.pair_count(), 60);
        assert!(!t.is_full());
        assert_eq!(t.inputs_of(0).len(), 3);
        assert_eq!(t.inputs_of(6).len(), 4);
        assert_eq!(t.inputs_of(15).len(), 6);
    }

    #[test]
    fn spread_hits_exact_pair_counts() {
        // CNP C3: 61 kernels between 6 and 16 maps.
        let t = ConnectionTable::spread(6, 16, 61);
        assert_eq!(t.pair_count(), 61);
        // Every list sorted, unique, within range.
        for o in 0..16 {
            let conn = t.inputs_of(o);
            assert!(conn.windows(2).all(|w| w[0] < w[1]));
            assert!(conn.iter().all(|&i| i < 6));
        }
    }

    #[test]
    fn spread_full_when_pairs_saturate() {
        let t = ConnectionTable::spread(4, 4, 16);
        assert!(t.is_full());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spread_rejects_too_many_pairs() {
        let _ = ConnectionTable::spread(2, 2, 5);
    }

    #[test]
    fn spread_balances_within_one() {
        let t = ConnectionTable::spread(20, 25, 125); // Face Recog. C3
        assert_eq!(t.pair_count(), 125);
        let sizes: Vec<_> = (0..25).map(|o| t.inputs_of(o).len()).collect();
        assert!(sizes.iter().all(|&s| s == 5));
    }

    #[test]
    fn from_lists_normalizes() {
        let t = ConnectionTable::from_lists(4, vec![vec![2, 0], vec![3]]);
        assert_eq!(t.inputs_of(0), &[0, 2]);
        assert_eq!(t.out_maps(), 2);
    }

    #[test]
    #[should_panic(expected = "references input beyond")]
    fn from_lists_validates_range() {
        let _ = ConnectionTable::from_lists(2, vec![vec![2]]);
    }

    #[test]
    fn debug_reports_counts() {
        let t = ConnectionTable::full(2, 3);
        assert_eq!(format!("{t:?}"), "ConnectionTable { 2 in, 3 out, 6 pairs }");
    }
}
