//! The synapse store: the SB's contents and address map.
//!
//! §6: "SB stores all synapses of a CNN and has Py banks." This module
//! lays every layer's weights out in a concrete SB image — biases first,
//! then kernels (row-major, in connection order) for convolutional
//! layers; biases then row weights (ascending input index) for classifier
//! layers — and serves the executors' weight fetches from that image. The
//! address map is striped across the `Py` banks at `Px × 2`-byte
//! granularity like the NB (Fig. 5 shows SB banked per PE row).

use crate::buffer::CapacityError;
use core::cell::Cell;
use shidiannao_cnn::{LayerBody, Network};
use shidiannao_fixed::Fx;

thread_local! {
    /// Per-thread count of [`SynapseStore::load`] invocations
    /// (diagnostic; per thread for the same reason as
    /// [`crate::compiler::compile_calls`]).
    static BUILD_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Where one layer's weights live in the SB image.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LayerRegion {
    /// First element index of the layer's region.
    base: usize,
    /// Per output map/neuron: offset of its bias, followed by its weights.
    entry_offsets: Vec<usize>,
}

/// The SB image: every synapse and bias of a CNN, resident on chip.
///
/// # Examples
///
/// ```
/// use shidiannao_cnn::zoo;
/// use shidiannao_core::SynapseStore;
///
/// let net = zoo::lenet5().build(1).unwrap();
/// let store = SynapseStore::load(&net, 128 * 1024).unwrap();
/// // All 60 570 synapses plus one bias per output neuron are resident.
/// assert!(store.bytes() >= 60_570 * 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SynapseStore {
    data: Vec<Fx>,
    layers: Vec<LayerRegion>,
    px: usize,
    py: usize,
}

impl SynapseStore {
    /// Serializes a network's weights into an SB image.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the image exceeds `capacity_bytes` —
    /// the §6 constraint that the whole CNN must be resident.
    pub fn load(network: &Network, capacity_bytes: usize) -> Result<SynapseStore, CapacityError> {
        BUILD_CALLS.with(|n| n.set(n.get() + 1));
        let mut data = Vec::new();
        let mut layers = Vec::with_capacity(network.layers().len());
        for layer in network.layers() {
            let base = data.len();
            let mut entry_offsets = Vec::new();
            match layer.body() {
                LayerBody::Conv { table, weights, .. } => {
                    for o in 0..layer.out_maps() {
                        entry_offsets.push(data.len() - base);
                        data.push(weights.bias(o));
                        for j in 0..table.inputs_of(o).len() {
                            data.extend(weights.kernel(o, j).iter().copied());
                        }
                    }
                }
                LayerBody::Fc { weights, .. } => {
                    for n in 0..weights.out_count() {
                        entry_offsets.push(data.len() - base);
                        data.push(weights.bias(n));
                        data.extend(weights.row(n).iter().map(|&(_, w)| w));
                    }
                }
                // Pooling and normalization layers hold no synapses
                // (Table 1's accounting); their regions are empty.
                _ => {}
            }
            layers.push(LayerRegion {
                base,
                entry_offsets,
            });
        }
        let bytes = data.len() * 2;
        if bytes > capacity_bytes {
            return Err(CapacityError {
                buffer: "SB",
                needed: bytes,
                available: capacity_bytes,
            });
        }
        Ok(SynapseStore {
            data,
            layers,
            px: 8,
            py: 8,
        })
    }

    /// How many times [`SynapseStore::load`] has run on the calling
    /// thread.
    /// Tests use this to assert that a prepared-network pipeline builds
    /// each SB image exactly once, no matter how many inferences run.
    pub fn build_calls() -> u64 {
        BUILD_CALLS.with(Cell::get)
    }

    /// Configures the bank striping geometry (defaults to the 8 × 8
    /// paper design).
    pub fn with_banking(mut self, px: usize, py: usize) -> SynapseStore {
        self.px = px.max(1);
        self.py = py.max(1);
        self
    }

    /// Resident bytes (synapses + biases).
    pub fn bytes(&self) -> usize {
        self.data.len() * 2
    }

    /// The SB bank an element index is striped into (`Py` banks at
    /// `Px`-element granularity).
    pub fn bank_of(&self, element: usize) -> usize {
        (element / self.px) % self.py
    }

    fn entry(&self, layer: usize, unit: usize) -> usize {
        let region = &self.layers[layer];
        region.base + region.entry_offsets[unit]
    }

    /// The bias of output map / neuron `unit` of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or the layer holds no
    /// synapses.
    pub fn bias(&self, layer: usize, unit: usize) -> Fx {
        self.data[self.entry(layer, unit)]
    }

    /// Convolution kernel element `(kx, ky)` of output map `o`'s `j`-th
    /// connected input, given the kernel dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn conv_weight(
        &self,
        layer: usize,
        o: usize,
        j: usize,
        (kx, ky): (usize, usize),
        kernel: (usize, usize),
    ) -> Fx {
        let idx = self.entry(layer, o) + 1 + j * kernel.0 * kernel.1 + ky * kernel.0 + kx;
        self.data[idx]
    }

    /// The whole kernel of output map `o`'s `j`-th connected input as one
    /// contiguous slice in sweep `(ky, kx)` row-major order — schedule
    /// replay borrows this directly instead of staging the kernel element
    /// by element.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn conv_kernel(&self, layer: usize, o: usize, j: usize, kernel: (usize, usize)) -> &[Fx] {
        let k = kernel.0 * kernel.1;
        let base = self.entry(layer, o) + 1 + j * k;
        &self.data[base..base + k]
    }

    /// The `k`-th weight (ascending input-index order) of classifier
    /// output `n`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn fc_weight(&self, layer: usize, n: usize, k: usize) -> Fx {
        self.data[self.entry(layer, n) + 1 + k]
    }

    /// All `len` weights of classifier output `n` as one slice (ascending
    /// input-index order) — schedule replay streams a whole row per PE
    /// instead of re-deriving the entry base per weight.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn fc_row(&self, layer: usize, n: usize, len: usize) -> &[Fx] {
        let entry = self.entry(layer, n);
        &self.data[entry + 1..entry + 1 + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shidiannao_cnn::zoo;

    #[test]
    fn lenet_image_matches_its_weights() {
        let net = zoo::lenet5().build(7).unwrap();
        let store = SynapseStore::load(&net, 128 * 1024).unwrap();
        for (i, layer) in net.layers().iter().enumerate() {
            match layer.body() {
                LayerBody::Conv {
                    table,
                    weights,
                    kernel,
                    ..
                } => {
                    for o in 0..layer.out_maps() {
                        assert_eq!(store.bias(i, o), weights.bias(o));
                        for j in 0..table.inputs_of(o).len() {
                            let slice = store.conv_kernel(i, o, j, *kernel);
                            for ky in 0..kernel.1 {
                                for kx in 0..kernel.0 {
                                    assert_eq!(
                                        store.conv_weight(i, o, j, (kx, ky), *kernel),
                                        weights.kernel(o, j)[(kx, ky)]
                                    );
                                    assert_eq!(
                                        slice[ky * kernel.0 + kx],
                                        weights.kernel(o, j)[(kx, ky)]
                                    );
                                }
                            }
                        }
                    }
                }
                LayerBody::Fc { weights, .. } => {
                    for n in 0..weights.out_count() {
                        assert_eq!(store.bias(i, n), weights.bias(n));
                        for (k, &(_, w)) in weights.row(n).iter().enumerate() {
                            assert_eq!(store.fc_weight(i, n, k), w);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn footprint_is_synapses_plus_biases() {
        let net = zoo::lenet5().build(7).unwrap();
        let store = SynapseStore::load(&net, 128 * 1024).unwrap();
        let synapses: usize = net.layers().iter().map(|l| l.synapse_count()).sum();
        // Biases: one per conv output map or classifier output neuron.
        let biases = 6 + 16 + 120 + 84 + 10;
        assert_eq!(store.bytes(), (synapses + biases) * 2);
    }

    #[test]
    fn every_benchmark_fits_the_paper_sb() {
        for b in zoo::all() {
            let net = b.build(1).unwrap();
            let store = SynapseStore::load(&net, 128 * 1024);
            assert!(store.is_ok(), "{}", net.name());
        }
    }

    #[test]
    fn overflow_names_the_sb() {
        let net = zoo::lenet5().build(1).unwrap();
        let err = SynapseStore::load(&net, 1024).unwrap_err();
        assert_eq!(err.buffer, "SB");
        assert!(err.needed > 118 * 1024);
    }

    #[test]
    fn bank_striping_covers_all_banks() {
        let net = zoo::lenet5().build(1).unwrap();
        let store = SynapseStore::load(&net, 128 * 1024)
            .unwrap()
            .with_banking(8, 8);
        let mut seen = [false; 8];
        for e in 0..64 {
            seen[store.bank_of(e * 8)] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(store.bank_of(0), store.bank_of(7));
        assert_ne!(store.bank_of(0), store.bank_of(8));
    }
}
