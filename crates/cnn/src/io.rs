//! Binary model serialization.
//!
//! The paper's deployment model assumes "off-line training by the service
//! provider" (§3): trained weights are produced elsewhere and shipped to
//! the sensor. This module defines the container for that: a compact
//! little-endian binary format (`SDNN`, version 1) holding the topology
//! and the 16-bit fixed-point weights, so a [`Network`] round-trips
//! through files byte-exactly.

use crate::layer::{Activation, LcnSpec, LrnSpec, PoolKind, Rounding};
use crate::network::{gaussian_window, Layer, LayerBody, Network};
use crate::weights::{ConvWeights, FcWeights};
use crate::ConnectionTable;
use core::fmt;
use shidiannao_fixed::Fx;
use shidiannao_tensor::FeatureMap;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"SDNN";
const VERSION: u16 = 1;

/// Error produced while reading a model file.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a valid `SDNN` model (message explains).
    Corrupt(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "model i/o failed: {e}"),
            FormatError::Corrupt(msg) => write!(f, "invalid model file: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> FormatError {
        FormatError::Io(e)
    }
}

struct Reader<R> {
    inner: R,
}

impl<R: Read> Reader<R> {
    fn u8(&mut self) -> Result<u8, FormatError> {
        let mut b = [0u8; 1];
        self.inner.read_exact(&mut b)?;
        Ok(b[0])
    }

    fn u16(&mut self) -> Result<u16, FormatError> {
        let mut b = [0u8; 2];
        self.inner.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self) -> Result<u32, FormatError> {
        let mut b = [0u8; 4];
        self.inner.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn usize32(&mut self) -> Result<usize, FormatError> {
        Ok(self.u32()? as usize)
    }

    fn f32(&mut self) -> Result<f32, FormatError> {
        let mut b = [0u8; 4];
        self.inner.read_exact(&mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    fn fx(&mut self) -> Result<Fx, FormatError> {
        let mut b = [0u8; 2];
        self.inner.read_exact(&mut b)?;
        Ok(Fx::from_bits(i16::from_le_bytes(b)))
    }

    /// Reads exactly `len` bytes, growing the buffer only as bytes
    /// arrive (a declared length never sizes an allocation up front).
    fn bytes(&mut self, len: usize) -> Result<Vec<u8>, FormatError> {
        let mut buf = Vec::new();
        (&mut self.inner).take(len as u64).read_to_end(&mut buf)?;
        if buf.len() != len {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        Ok(buf)
    }
}

struct Writer<W> {
    inner: W,
}

impl<W: Write> Writer<W> {
    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.inner.write_all(&[v])
    }

    fn u16(&mut self, v: u16) -> io::Result<()> {
        self.inner.write_all(&v.to_le_bytes())
    }

    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.inner.write_all(&v.to_le_bytes())
    }

    fn f32(&mut self, v: f32) -> io::Result<()> {
        self.inner.write_all(&v.to_le_bytes())
    }

    fn fx(&mut self, v: Fx) -> io::Result<()> {
        self.inner.write_all(&v.to_bits().to_le_bytes())
    }
}

fn act_code(a: Activation) -> u8 {
    match a {
        Activation::None => 0,
        Activation::Tanh => 1,
        Activation::Sigmoid => 2,
    }
}

fn act_from(code: u8) -> Result<Activation, FormatError> {
    Ok(match code {
        0 => Activation::None,
        1 => Activation::Tanh,
        2 => Activation::Sigmoid,
        other => return Err(FormatError::Corrupt(format!("activation code {other}"))),
    })
}

/// Serializes a network to any writer.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn save<W: Write>(network: &Network, writer: W) -> io::Result<()> {
    let mut w = Writer { inner: writer };
    w.inner.write_all(MAGIC)?;
    w.u16(VERSION)?;
    let name = network.name().as_bytes();
    w.u16(name.len() as u16)?;
    w.inner.write_all(name)?;
    w.u32(network.input_maps() as u32)?;
    w.u32(network.input_dims().0 as u32)?;
    w.u32(network.input_dims().1 as u32)?;
    w.u32(network.layers().len() as u32)?;
    for layer in network.layers() {
        match layer.body() {
            LayerBody::Conv {
                table,
                kernel,
                stride,
                weights,
                activation,
            } => {
                w.u8(0)?;
                w.u32(layer.out_maps() as u32)?;
                w.u32(kernel.0 as u32)?;
                w.u32(kernel.1 as u32)?;
                w.u32(stride.0 as u32)?;
                w.u32(stride.1 as u32)?;
                w.u8(act_code(*activation))?;
                for o in 0..layer.out_maps() {
                    let conn = table.inputs_of(o);
                    w.u32(conn.len() as u32)?;
                    for &i in conn {
                        w.u32(i as u32)?;
                    }
                    w.fx(weights.bias(o))?;
                    for j in 0..conn.len() {
                        for v in weights.kernel(o, j).iter() {
                            w.fx(*v)?;
                        }
                    }
                }
            }
            LayerBody::Pool {
                window,
                stride,
                kind,
                rounding,
                activation,
            } => {
                w.u8(1)?;
                w.u32(window.0 as u32)?;
                w.u32(window.1 as u32)?;
                w.u32(stride.0 as u32)?;
                w.u32(stride.1 as u32)?;
                w.u8(u8::from(*kind == PoolKind::Avg))?;
                w.u8(u8::from(*rounding == Rounding::Ceil))?;
                w.u8(act_code(*activation))?;
            }
            LayerBody::Fc {
                weights,
                activation,
            } => {
                w.u8(2)?;
                w.u32(weights.out_count() as u32)?;
                w.u8(act_code(*activation))?;
                for n in 0..weights.out_count() {
                    let row = weights.row(n);
                    w.u32(row.len() as u32)?;
                    w.fx(weights.bias(n))?;
                    for &(i, v) in row {
                        w.u32(i as u32)?;
                        w.fx(v)?;
                    }
                }
            }
            LayerBody::Lrn(spec) => {
                w.u8(3)?;
                w.u32(spec.window_maps as u32)?;
                w.f32(spec.k)?;
                w.f32(spec.alpha)?;
            }
            LayerBody::Lcn { spec, .. } => {
                w.u8(4)?;
                w.u32(spec.window as u32)?;
            }
        }
    }
    Ok(())
}

/// Largest LCN window a model file may declare. The Gaussian window is
/// synthesized rather than read, so its size is the one allocation no
/// file bytes stand behind; the cap keeps it bounded (a 1023×1023
/// window is far past any published LCN configuration).
pub const MAX_LCN_WINDOW: usize = 1023;

/// Deserializes a network from any reader.
///
/// Allocation is bounded by the bytes actually read: a declared count
/// (output maps, connections, kernel values, classifier rows) never
/// sizes a buffer before the values behind it arrive, so a short or
/// hostile file fails with an error instead of a huge allocation.
///
/// # Errors
///
/// Returns [`FormatError`] on I/O failure (including a file shorter
/// than its declared counts), a bad magic/version, or inconsistent or
/// overflowing geometry.
pub fn load<R: Read>(reader: R) -> Result<Network, FormatError> {
    let mut r = Reader { inner: reader };
    let mut magic = [0u8; 4];
    r.inner.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(FormatError::Corrupt("bad magic".into()));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(FormatError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let name_len = r.u16()? as usize;
    let name = String::from_utf8(r.bytes(name_len)?)
        .map_err(|_| FormatError::Corrupt("name is not UTF-8".into()))?;
    let input_maps = r.usize32()?;
    let input_dims = (r.usize32()?, r.usize32()?);
    if input_maps == 0 || input_dims.0 == 0 || input_dims.1 == 0 {
        return Err(FormatError::Corrupt("empty input".into()));
    }
    let layer_count = r.usize32()?;
    if layer_count == 0 || layer_count > 1024 {
        return Err(FormatError::Corrupt(format!("layer count {layer_count}")));
    }

    let mut layers = Vec::new();
    let mut maps = input_maps;
    let mut dims = input_dims;
    for index in 0..layer_count {
        let corrupt = |msg: &str| FormatError::Corrupt(format!("layer {index}: {msg}"));
        let tag = r.u8()?;
        let layer = match tag {
            0 => {
                let out_maps = r.usize32()?;
                let kernel = (r.usize32()?, r.usize32()?);
                let stride = (r.usize32()?, r.usize32()?);
                let activation = act_from(r.u8()?)?;
                if out_maps == 0 || kernel.0 == 0 || kernel.1 == 0 {
                    return Err(corrupt("degenerate conv"));
                }
                if kernel.0 > dims.0 || kernel.1 > dims.1 || stride.0 == 0 || stride.1 == 0 {
                    return Err(corrupt("kernel exceeds input"));
                }
                let kernel_len = kernel
                    .0
                    .checked_mul(kernel.1)
                    .ok_or_else(|| corrupt("kernel size overflows"))?;
                // Every buffer below grows one value at a time as the
                // file supplies it; `out_maps`, `conn_len` and the
                // kernel size are only loop bounds.
                let mut lists = Vec::new();
                let mut kernels = Vec::new();
                let mut biases = Vec::new();
                for _ in 0..out_maps {
                    let conn_len = r.usize32()?;
                    if conn_len == 0 || conn_len > maps {
                        return Err(corrupt("bad connection count"));
                    }
                    let mut conn: Vec<usize> = Vec::new();
                    for _ in 0..conn_len {
                        let i = r.usize32()?;
                        // Ascending like the saved table, so kernel `j`
                        // pairs with the `j`-th connection after loading.
                        if i >= maps || conn.last().is_some_and(|&p| p >= i) {
                            return Err(corrupt("connections must ascend in range"));
                        }
                        conn.push(i);
                    }
                    biases.push(r.fx()?);
                    let mut ks = Vec::new();
                    for _ in 0..conn_len {
                        let mut values = Vec::new();
                        for _ in 0..kernel_len {
                            values.push(r.fx()?);
                        }
                        let k = FeatureMap::from_vec(kernel.0, kernel.1, values)
                            .map_err(|e| corrupt(&e.to_string()))?;
                        ks.push(k);
                    }
                    lists.push(conn);
                    kernels.push(ks);
                }
                let table = ConnectionTable::from_lists(maps, lists);
                let out_dims = (
                    extent(dims.0, kernel.0, stride.0, Rounding::Floor)
                        .ok_or_else(|| corrupt("output extent overflows"))?,
                    extent(dims.1, kernel.1, stride.1, Rounding::Floor)
                        .ok_or_else(|| corrupt("output extent overflows"))?,
                );
                Layer::from_parts(
                    index,
                    maps,
                    dims,
                    out_maps,
                    out_dims,
                    LayerBody::Conv {
                        table,
                        kernel,
                        stride,
                        weights: ConvWeights::from_parts(kernels, biases),
                        activation,
                    },
                )
            }
            1 => {
                let window = (r.usize32()?, r.usize32()?);
                let stride = (r.usize32()?, r.usize32()?);
                let kind = if r.u8()? == 1 {
                    PoolKind::Avg
                } else {
                    PoolKind::Max
                };
                let rounding = if r.u8()? == 1 {
                    Rounding::Ceil
                } else {
                    Rounding::Floor
                };
                let activation = act_from(r.u8()?)?;
                if window.0 == 0
                    || window.1 == 0
                    || stride.0 == 0
                    || stride.1 == 0
                    || window.0 > dims.0
                    || window.1 > dims.1
                {
                    return Err(corrupt("degenerate pooling"));
                }
                if rounding == Rounding::Ceil && stride != window {
                    return Err(corrupt("ceil pooling requires stride == window"));
                }
                let out_dims = (
                    extent(dims.0, window.0, stride.0, rounding)
                        .ok_or_else(|| corrupt("output extent overflows"))?,
                    extent(dims.1, window.1, stride.1, rounding)
                        .ok_or_else(|| corrupt("output extent overflows"))?,
                );
                Layer::from_parts(
                    index,
                    maps,
                    dims,
                    maps,
                    out_dims,
                    LayerBody::Pool {
                        window,
                        stride,
                        kind,
                        rounding,
                        activation,
                    },
                )
            }
            2 => {
                let out_count = r.usize32()?;
                let activation = act_from(r.u8()?)?;
                let in_count = maps
                    .checked_mul(dims.0)
                    .and_then(|n| n.checked_mul(dims.1))
                    .ok_or_else(|| corrupt("classifier input count overflows"))?;
                if out_count == 0 {
                    return Err(corrupt("degenerate classifier"));
                }
                let mut rows = Vec::new();
                let mut biases = Vec::new();
                for _ in 0..out_count {
                    let row_len = r.usize32()?;
                    if row_len == 0 || row_len > in_count {
                        return Err(corrupt("bad row length"));
                    }
                    biases.push(r.fx()?);
                    let mut row = Vec::new();
                    let mut prev: Option<usize> = None;
                    for _ in 0..row_len {
                        let i = r.usize32()?;
                        if i >= in_count || prev.is_some_and(|p| p >= i) {
                            return Err(corrupt("row indices must ascend in range"));
                        }
                        prev = Some(i);
                        row.push((i, r.fx()?));
                    }
                    rows.push(row);
                }
                Layer::from_parts(
                    index,
                    maps,
                    dims,
                    out_count,
                    (1, 1),
                    LayerBody::Fc {
                        weights: FcWeights::from_parts(rows, biases, in_count),
                        activation,
                    },
                )
            }
            3 => {
                let window_maps = r.usize32()?;
                let (k, alpha) = (r.f32()?, r.f32()?);
                if window_maps == 0 {
                    return Err(corrupt("zero LRN window"));
                }
                Layer::from_parts(
                    index,
                    maps,
                    dims,
                    maps,
                    dims,
                    LayerBody::Lrn(LrnSpec {
                        window_maps,
                        k,
                        alpha,
                    }),
                )
            }
            4 => {
                let window = r.usize32()?;
                if window % 2 == 0 || window > dims.0 || window > dims.1 || window > MAX_LCN_WINDOW
                {
                    return Err(corrupt("bad LCN window"));
                }
                let gauss = gaussian_window(window, maps);
                Layer::from_parts(
                    index,
                    maps,
                    dims,
                    maps,
                    dims,
                    LayerBody::Lcn {
                        spec: LcnSpec::new(window),
                        gauss,
                    },
                )
            }
            other => return Err(corrupt(&format!("unknown layer tag {other}"))),
        };
        maps = layer.out_maps();
        dims = layer.out_dims();
        layers.push(layer);
    }
    Ok(Network::from_parts(name, input_maps, input_dims, layers))
}

/// Output extent of a window `k` sliding over `n` at stride `s` (the
/// caller has checked `1 <= k <= n` and `s >= 1`); `None` on overflow.
fn extent(n: usize, k: usize, s: usize, rounding: Rounding) -> Option<usize> {
    let span = n.checked_sub(k)?;
    let steps = match rounding {
        Rounding::Floor => span.checked_div(s)?,
        Rounding::Ceil => span.div_ceil(s),
    };
    steps.checked_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn round_trip(net: &Network) -> Network {
        let mut buf = Vec::new();
        save(net, &mut buf).unwrap();
        load(buf.as_slice()).unwrap()
    }

    #[test]
    fn every_benchmark_round_trips_byte_exactly() {
        for b in zoo::all() {
            let net = b.build(9).unwrap();
            let loaded = round_trip(&net);
            assert_eq!(loaded, net, "{}", net.name());
        }
    }

    #[test]
    fn extended_networks_round_trip() {
        for b in zoo::extended::all() {
            let net = b.build(9).unwrap();
            assert_eq!(round_trip(&net), net, "{}", net.name());
        }
    }

    #[test]
    fn loaded_networks_run_identically() {
        let net = zoo::gabor().build(3).unwrap();
        let loaded = round_trip(&net);
        let input = net.random_input(4);
        assert_eq!(
            loaded.forward_fixed(&input).output(),
            net.forward_fixed(&input).output()
        );
    }

    #[test]
    fn save_is_deterministic() {
        let net = zoo::lenet5().build(1).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        save(&net, &mut a).unwrap();
        save(&net, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = load(&b"NOPE"[..]).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn truncated_files_are_rejected() {
        let net = zoo::gabor().build(1).unwrap();
        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load(buf.as_slice()).is_err());
    }

    #[test]
    fn corrupted_connection_is_rejected() {
        let net = zoo::gabor().build(1).unwrap();
        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();
        // Flip a byte inside the header region to a nonsense layer count.
        let name_len = net.name().len();
        let layer_count_pos = 4 + 2 + 2 + name_len + 12;
        buf[layer_count_pos] = 0xFF;
        buf[layer_count_pos + 1] = 0xFF;
        assert!(load(buf.as_slice()).is_err());
    }

    /// A 46-byte file declaring one conv layer with `out_maps =
    /// u32::MAX` and nothing behind it: the loader must fail on the
    /// missing bytes, not size buffers from the declared count.
    #[test]
    fn huge_declared_map_count_is_an_error_not_an_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes()); // empty name
        for v in [1u32, 8, 8, 1] {
            // input maps, width, height, layer count
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.push(0); // conv
        for v in [u32::MAX, 3, 3, 1, 1] {
            // out_maps, kernel, stride
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.push(0); // no activation
        assert_eq!(buf.len(), 46);
        assert!(load(buf.as_slice()).is_err());
    }

    #[test]
    fn overflowing_classifier_input_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        for v in [u32::MAX, u32::MAX, u32::MAX, 1] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.push(2); // classifier
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0);
        let err = load(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn oversized_lcn_window_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        for v in [1u32, u32::MAX, u32::MAX, 1] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.push(4); // LCN
        buf.extend_from_slice(&(MAX_LCN_WINDOW as u32 + 2).to_le_bytes());
        let err = load(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("LCN window"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let net = zoo::gabor().build(1).unwrap();
        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();
        buf[4] = 99;
        let err = load(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }
}
