//! Layer descriptors for the four CNN layer families of §3.

use crate::ConnectionTable;
use core::fmt;
use shidiannao_fixed::{Fx, Pla};

/// The non-linear activation applied by the ALU after a layer's
/// accumulation (§5.2).
///
/// In fixed-point execution the activation is evaluated through the ALU's
/// 16-segment piecewise-linear interpolator, so the golden reference and
/// the simulator share identical (approximated) semantics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Activation {
    /// No activation: the accumulated value passes through unchanged.
    #[default]
    None,
    /// Hyperbolic tangent via the ALU PLA.
    Tanh,
    /// Logistic sigmoid via the ALU PLA.
    Sigmoid,
}

impl Activation {
    /// The PLA table the ALU would load for this activation, or `None` when
    /// the value bypasses the ALU: a handle on the same process-wide table
    /// every ALU holds, so calling this per layer builds nothing.
    pub fn pla(self) -> Option<Pla> {
        match self {
            Activation::None => None,
            Activation::Tanh => Some(Pla::tanh()),
            Activation::Sigmoid => Some(Pla::sigmoid()),
        }
    }

    /// Applies the activation in `f32` (for the floating-point reference).
    pub fn apply_f32(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Applies the activation through a pre-built PLA table (fixed-point
    /// path). `pla` must come from [`Activation::pla`] on the same variant.
    pub fn apply_fixed(self, x: Fx, pla: Option<&Pla>) -> Fx {
        match (self, pla) {
            (Activation::None, _) => x,
            (_, Some(p)) => p.eval(x),
            (_, None) => x,
        }
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Activation::None => "none",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
        };
        f.write_str(s)
    }
}

/// Pooling operator (§3, formula (2)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling: the PE comparator path.
    Max,
    /// Average pooling: PE adder path plus an ALU division.
    Avg,
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PoolKind::Max => "max",
            PoolKind::Avg => "avg",
        })
    }
}

/// How a pooling layer sizes its output when the input is not an exact
/// multiple of the stride. Table 2's benchmarks use both conventions (e.g.
/// Face Recog. S2 maps 21→11, ceiling; Face Align. S4 maps 21→10, floor),
/// so the choice is per-layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Rounding {
    /// Truncate: trailing rows/columns that do not fill a window are
    /// dropped.
    #[default]
    Floor,
    /// Cover: a final partial window (clipped at the input edge) produces
    /// one more output.
    Ceil,
}

impl Rounding {
    /// Output extent of a window `k` sliding over `n` at stride `s`;
    /// `None` when `k > n`, `s == 0` or the count overflows.
    pub fn extent(self, n: usize, k: usize, s: usize) -> Option<usize> {
        let span = n.checked_sub(k)?;
        if s == 0 {
            return None;
        }
        let steps = match self {
            Rounding::Floor => span / s,
            Rounding::Ceil => span.div_ceil(s),
        };
        steps.checked_add(1)
    }
}

/// How a convolutional layer's output maps connect to its input maps.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Connectivity {
    /// Every output map reads every input map.
    Full,
    /// Exactly this many (input, output) kernel pairs, distributed by
    /// [`ConnectionTable::spread`].
    Pairs(usize),
    /// An explicit table.
    Table(ConnectionTable),
}

/// Specification of a convolutional layer (formula (1)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    /// Number of output feature maps.
    pub out_maps: usize,
    /// Kernel dimensions `(Kx, Ky)`.
    pub kernel: (usize, usize),
    /// Window step `(Sx, Sy)`.
    pub stride: (usize, usize),
    /// Input-to-output map connectivity.
    pub connectivity: Connectivity,
    /// ALU activation applied to each output neuron.
    pub activation: Activation,
}

impl ConvSpec {
    /// A fully-connected convolution with stride 1 and the given kernel.
    pub fn new(out_maps: usize, kernel: (usize, usize)) -> ConvSpec {
        ConvSpec {
            out_maps,
            kernel,
            stride: (1, 1),
            connectivity: Connectivity::Full,
            activation: Activation::Tanh,
        }
    }

    /// Overrides the connectivity to an exact kernel-pair count (Table 2's
    /// `#` column).
    pub fn with_pairs(mut self, pairs: usize) -> ConvSpec {
        self.connectivity = Connectivity::Pairs(pairs);
        self
    }

    /// Overrides the connectivity with an explicit table.
    pub fn with_table(mut self, table: ConnectionTable) -> ConvSpec {
        self.connectivity = Connectivity::Table(table);
        self
    }

    /// Overrides the stride.
    pub fn with_stride(mut self, stride: (usize, usize)) -> ConvSpec {
        self.stride = stride;
        self
    }

    /// Overrides the activation.
    pub fn with_activation(mut self, activation: Activation) -> ConvSpec {
        self.activation = activation;
        self
    }
}

/// Specification of a pooling layer (formula (2)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Pooling window `(Kx, Ky)`.
    pub window: (usize, usize),
    /// Window step; in the common case equal to the window
    /// (non-overlapping).
    pub stride: (usize, usize),
    /// Max or average pooling.
    pub kind: PoolKind,
    /// Edge handling for inputs not divisible by the stride.
    pub rounding: Rounding,
    /// Optional activation (classical CNNs apply one; "recent studies no
    /// longer suggest that", §3).
    pub activation: Activation,
}

impl PoolSpec {
    /// Non-overlapping max pooling with the given square-ish window.
    pub fn max(window: (usize, usize)) -> PoolSpec {
        PoolSpec {
            window,
            stride: window,
            kind: PoolKind::Max,
            rounding: Rounding::Floor,
            activation: Activation::None,
        }
    }

    /// Non-overlapping average pooling with the given window.
    pub fn avg(window: (usize, usize)) -> PoolSpec {
        PoolSpec {
            kind: PoolKind::Avg,
            ..PoolSpec::max(window)
        }
    }

    /// Overrides the stride (overlapping pooling is handled like a
    /// convolution by the accelerator, §8.2).
    pub fn with_stride(mut self, stride: (usize, usize)) -> PoolSpec {
        self.stride = stride;
        self
    }

    /// Selects ceiling rounding (a trailing clipped window).
    pub fn with_ceil(mut self) -> PoolSpec {
        self.rounding = Rounding::Ceil;
        self
    }

    /// Overrides the activation.
    pub fn with_activation(mut self, activation: Activation) -> PoolSpec {
        self.activation = activation;
        self
    }
}

/// Specification of a (fully or partially connected) classifier layer
/// (formula (7)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FcSpec {
    /// Number of output neurons.
    pub out_neurons: usize,
    /// Synapses per output neuron; `None` means fully connected. Some
    /// Table 2 classifiers are sparse (e.g. MPCNN F6 has 6 000 synapses for
    /// 180 × 300 neurons): each output then reads a deterministic
    /// contiguous (wrapping) block of inputs.
    pub synapses_per_output: Option<usize>,
    /// ALU activation.
    pub activation: Activation,
}

impl FcSpec {
    /// A fully-connected classifier with `tanh` activation.
    pub fn new(out_neurons: usize) -> FcSpec {
        FcSpec {
            out_neurons,
            synapses_per_output: None,
            activation: Activation::Tanh,
        }
    }

    /// Limits each output to `count` synapses.
    pub fn with_synapses_per_output(mut self, count: usize) -> FcSpec {
        self.synapses_per_output = Some(count);
        self
    }

    /// Overrides the activation.
    pub fn with_activation(mut self, activation: Activation) -> FcSpec {
        self.activation = activation;
        self
    }
}

/// Specification of a Local Response Normalization layer (formula (3)):
/// `O = I / (k + α · Σⱼ Iⱼ²)` with `j` ranging over a window of `M`
/// adjacent maps at the same position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LrnSpec {
    /// Cross-map window size `M` (the sum covers `mi − M/2 ..= mi + M/2`,
    /// clipped).
    pub window_maps: usize,
    /// Additive constant `k`.
    pub k: f32,
    /// Scale `α`.
    pub alpha: f32,
}

impl LrnSpec {
    /// AlexNet-flavoured defaults: 5-map window, `k = 2`, `α = 10⁻⁴`.
    pub fn new() -> LrnSpec {
        LrnSpec {
            window_maps: 5,
            k: 2.0,
            alpha: 1e-4,
        }
    }

    /// Quantized `k` as the ALU sees it.
    pub fn k_fx(&self) -> Fx {
        Fx::from_f32(self.k)
    }

    /// Quantized `α` as the ALU sees it.
    pub fn alpha_fx(&self) -> Fx {
        Fx::from_f32(self.alpha)
    }
}

impl Default for LrnSpec {
    fn default() -> LrnSpec {
        LrnSpec::new()
    }
}

/// Specification of a Local Contrast Normalization layer (formulae (4)–(6)):
/// subtractive normalization with a Gaussian window followed by divisive
/// normalization by the local standard deviation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LcnSpec {
    /// Spatial Gaussian window side (odd; e.g. 5 or 9).
    pub window: usize,
}

impl LcnSpec {
    /// Creates an LCN spec.
    ///
    /// # Panics
    ///
    /// Panics if `window` is even or zero.
    pub fn new(window: usize) -> LcnSpec {
        assert!(window % 2 == 1, "LCN window must be odd, got {window}");
        LcnSpec { window }
    }
}

/// A layer specification as pushed into a
/// [`NetworkBuilder`](crate::NetworkBuilder); geometry is resolved (and
/// validated) when the network is built.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerSpec {
    /// Convolutional layer.
    Conv(ConvSpec),
    /// Pooling layer.
    Pool(PoolSpec),
    /// Classifier (fully/partially connected) layer.
    Fc(FcSpec),
    /// Local Response Normalization layer.
    Lrn(LrnSpec),
    /// Local Contrast Normalization layer.
    Lcn(LcnSpec),
}

impl LayerSpec {
    /// The layer family, used by performance models and the scheduler.
    pub fn kind(&self) -> LayerKind {
        match self {
            LayerSpec::Conv(_) => LayerKind::Conv,
            LayerSpec::Pool(_) => LayerKind::Pool,
            LayerSpec::Fc(_) => LayerKind::Fc,
            LayerSpec::Lrn(_) => LayerKind::Lrn,
            LayerSpec::Lcn(_) => LayerKind::Lcn,
        }
    }
}

/// The layer family (Table 2's C / S / F naming plus the two normalization
/// types).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerKind {
    /// Convolutional ("C").
    Conv,
    /// Pooling ("S", subsampling).
    Pool,
    /// Classifier ("F", fully connected).
    Fc,
    /// Local Response Normalization.
    Lrn,
    /// Local Contrast Normalization.
    Lcn,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LayerKind::Conv => "conv",
            LayerKind::Pool => "pool",
            LayerKind::Fc => "fc",
            LayerKind::Lrn => "lrn",
            LayerKind::Lcn => "lcn",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_f32_shapes() {
        assert_eq!(Activation::None.apply_f32(3.0), 3.0);
        assert!((Activation::Tanh.apply_f32(1.0) - 0.7615942).abs() < 1e-6);
        assert!((Activation::Sigmoid.apply_f32(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn activation_fixed_uses_pla() {
        let act = Activation::Tanh;
        let pla = act.pla();
        let y = act.apply_fixed(Fx::from_f32(0.5), pla.as_ref());
        assert!((y.to_f32() - 0.5f32.tanh()).abs() < 0.02);
        assert_eq!(Activation::None.pla(), None);
    }

    #[test]
    fn conv_spec_builders_chain() {
        let s = ConvSpec::new(16, (5, 5))
            .with_pairs(60)
            .with_stride((2, 2))
            .with_activation(Activation::Sigmoid);
        assert_eq!(s.out_maps, 16);
        assert_eq!(s.stride, (2, 2));
        assert_eq!(s.connectivity, Connectivity::Pairs(60));
        assert_eq!(s.activation, Activation::Sigmoid);
    }

    #[test]
    fn pool_spec_defaults_non_overlapping() {
        let s = PoolSpec::max((2, 2));
        assert_eq!(s.stride, (2, 2));
        assert_eq!(s.kind, PoolKind::Max);
        assert_eq!(s.rounding, Rounding::Floor);
        let c = PoolSpec::avg((3, 3)).with_ceil();
        assert_eq!(c.kind, PoolKind::Avg);
        assert_eq!(c.rounding, Rounding::Ceil);
    }

    #[test]
    fn fc_spec_partial_synapses() {
        let s = FcSpec::new(300).with_synapses_per_output(20);
        assert_eq!(s.synapses_per_output, Some(20));
    }

    #[test]
    fn lrn_quantizes_parameters() {
        let s = LrnSpec::new();
        assert_eq!(s.k_fx(), Fx::from_f32(2.0));
        assert_eq!(LrnSpec::default(), LrnSpec::new());
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn lcn_rejects_even_window() {
        let _ = LcnSpec::new(4);
    }

    #[test]
    fn kinds_display() {
        assert_eq!(LayerKind::Conv.to_string(), "conv");
        assert_eq!(
            LayerSpec::Pool(PoolSpec::max((2, 2))).kind(),
            LayerKind::Pool
        );
        assert_eq!(Activation::Tanh.to_string(), "tanh");
        assert_eq!(PoolKind::Avg.to_string(), "avg");
    }
}
