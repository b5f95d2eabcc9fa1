//! The CMOS/CCD sensor streaming front-end (§2, §10.2).
//!
//! ShiDianNao sits "on the streaming path from sensors to hosts": frames
//! arrive as scanline streams, are buffered a few rows at a time (no
//! full-frame storage — commercial image processors hold ~256 KB, §2),
//! and the recognition CNN runs over overlapping regions of each frame.
//! §10.2 computes the resulting frame rate: a 640 × 480 frame holds
//! `⌈(640−64)/16+1⌉ × ⌈(480−36)/16+1⌉ = 1 073` overlapping 64 × 36
//! regions for the ConvNN benchmark, and at 0.047 ms per region the
//! accelerator sustains 20 fps.
//!
//! This crate provides:
//!
//! * [`SyntheticSensor`] — a deterministic frame generator standing in for
//!   sensor hardware we do not have (the substitution preserves the
//!   streaming geometry, which is all §10.2 depends on),
//! * [`RegionGrid`] / [`RegionStream`] — the overlapping-region tiling,
//!   sequential or by region index ([`RegionGrid::try_region`]),
//! * [`SeekableSource`] — O(1) random access to any frame of a source
//!   that is a pure function of `(seed, index)`,
//! * [`RowBuffer`] — the partial-frame row buffer and its §10.2 sizing
//!   argument ("a few tens of pixel rows"),
//! * [`frames_per_second`] — the fps arithmetic,
//! * [`video`] — the temporal front-end: deterministic video sources
//!   ([`VideoSensor`]) and the per-region frame differencer
//!   ([`FrameDelta`]) producing per-stream dirty-region bitmaps.

// Streaming paths report failures as typed [`StreamError`]s; the
// `assert!`-based contract checks on the legacy panicking APIs remain.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![forbid(unsafe_code)]

use core::fmt;
use shidiannao_faults::{FaultPlan, ScanlineFault};
use shidiannao_fixed::Fx;
use shidiannao_tensor::{FeatureMap, MapStack};

pub mod video;

pub use video::{DirtyBitmap, DirtyMap, FrameDelta, Motion, MovingObject, VideoSensor};

/// A failure on the sensor streaming path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// A requested region does not fit inside the frame.
    RegionOutOfBounds {
        /// Region origin `(x0, y0)`.
        origin: (usize, usize),
        /// Region dimensions `(w, h)`.
        region: (usize, usize),
        /// Frame dimensions `(width, height)`.
        frame: (usize, usize),
    },
    /// A frame's dimensions do not match the grid it is streamed through.
    FrameMismatch {
        /// The frame's dimensions.
        frame: (usize, usize),
        /// The grid's expected frame dimensions.
        grid: (usize, usize),
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::RegionOutOfBounds {
                origin: (x0, y0),
                region: (w, h),
                frame: (fw, fh),
            } => write!(f, "region {w}x{h}@({x0},{y0}) exceeds frame {fw}x{fh}"),
            StreamError::FrameMismatch { frame, grid } => write!(
                f,
                "frame {}x{} does not match the grid's {}x{}",
                frame.0, frame.1, grid.0, grid.1
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// A captured frame: one 8-bit grayscale pixel array plus its sequence
/// number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    index: u64,
    pixels: FeatureMap<u8>,
}

impl Frame {
    /// Wraps a pixel array as frame number `index`.
    pub fn new(index: u64, pixels: FeatureMap<u8>) -> Frame {
        Frame { index, pixels }
    }

    /// The frame's sequence number.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Frame dimensions `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        self.pixels.dims()
    }

    /// The raw pixels.
    pub fn pixels(&self) -> &FeatureMap<u8> {
        &self.pixels
    }

    /// Extracts a region as a fixed-point stack, pixels scaled to
    /// `[0, 1)` — the format NBin receives — replicated across `maps`
    /// identical input maps (for benchmarks with multi-channel inputs,
    /// e.g. ConvNN's 3), or reports [`StreamError::RegionOutOfBounds`] if
    /// it does not fit inside the frame.
    pub fn try_region_stacked(
        &self,
        origin: (usize, usize),
        dims: (usize, usize),
        maps: usize,
    ) -> Result<MapStack<Fx>, StreamError> {
        let mut stack = MapStack::new(dims.0, dims.1);
        self.try_region_into(origin, dims, maps, &mut stack)?;
        Ok(stack)
    }

    /// [`Frame::try_region_stacked`] into a caller-held stack, reusing
    /// its storage: allocation-free once `out` has held a region this
    /// size.
    ///
    /// # Errors
    ///
    /// [`StreamError::RegionOutOfBounds`] when the region does not fit
    /// inside the frame; `out` is left as it was.
    pub fn try_region_into(
        &self,
        (x0, y0): (usize, usize),
        (w, h): (usize, usize),
        maps: usize,
        out: &mut MapStack<Fx>,
    ) -> Result<(), StreamError> {
        let (fw, fh) = self.dims();
        if x0 + w > fw || y0 + h > fh {
            return Err(StreamError::RegionOutOfBounds {
                origin: (x0, y0),
                region: (w, h),
                frame: (fw, fh),
            });
        }
        out.refill(w, h, maps, Fx::ZERO);
        let mut maps = out.iter_mut();
        if let Some(first) = maps.next() {
            for y in 0..h {
                let pixels = &self.pixels.row(y0 + y)[x0..x0 + w];
                for (v, &px) in first.row_mut(y).iter_mut().zip(pixels) {
                    *v = pixel_fx(px);
                }
            }
            for map in maps {
                map.clone_from(first);
            }
        }
        Ok(())
    }
}

/// A sensor pixel as NBin receives it: `px / 256` in Q7.8, whose raw
/// bits are the pixel itself — exactly `Fx::from_f32(px as f32 / 256.0)`,
/// without the float round trip.
fn pixel_fx(px: u8) -> Fx {
    const _: () = assert!(shidiannao_fixed::FRAC_BITS == 8, "a pixel is px/256");
    Fx::from_bits(i16::from(px))
}

/// Anything that produces frames — implemented by [`SyntheticSensor`] and
/// by whatever real capture source a deployment wires in.
pub trait FrameSource {
    /// Produces the next frame.
    fn next_frame(&mut self) -> Frame;

    /// Frame dimensions `(width, height)`.
    fn dims(&self) -> (usize, usize);
}

/// A [`FrameSource`] whose frames are a pure function of their index, so
/// it can jump to any frame in O(1) instead of replaying the stream.
///
/// # Examples
///
/// ```
/// use shidiannao_sensor::{FrameSource, SeekableSource, SyntheticSensor};
/// let mut replayed = SyntheticSensor::new(32, 24, 7);
/// let third = (0..3).map(|_| replayed.next_frame()).last();
/// let mut seeked = SyntheticSensor::new(32, 24, 7);
/// seeked.seek(2);
/// assert_eq!(Some(seeked.next_frame()), third);
/// ```
pub trait SeekableSource: FrameSource {
    /// Positions the source so the next frame it produces is frame
    /// `index`.
    fn seek(&mut self, index: u64);
}

/// A deterministic synthetic sensor.
///
/// Stands in for the CMOS/CCD hardware: pixel values come from a cheap
/// hash of `(seed, frame, x, y)` so every run streams the same scene.
///
/// # Examples
///
/// ```
/// use shidiannao_sensor::{FrameSource, SyntheticSensor};
/// let mut cam = SyntheticSensor::vga(7);
/// let f = cam.next_frame();
/// assert_eq!(f.dims(), (640, 480));
/// assert_eq!(cam.next_frame().index(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SyntheticSensor {
    width: usize,
    height: usize,
    seed: u64,
    next_index: u64,
}

impl SyntheticSensor {
    /// Creates a sensor of arbitrary resolution.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn new(width: usize, height: usize, seed: u64) -> SyntheticSensor {
        assert!(width > 0 && height > 0, "sensor must be non-empty");
        SyntheticSensor {
            width,
            height,
            seed,
            next_index: 0,
        }
    }

    /// The 640 × 480 sensor of §10.2 ("usually images are resized in
    /// certain range before processing").
    pub fn vga(seed: u64) -> SyntheticSensor {
        SyntheticSensor::new(640, 480, seed)
    }
}

fn hash_pixel(seed: u64, frame: u64, x: usize, y: usize) -> u8 {
    let mut v = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(frame.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(((x as u64) << 32) | y as u64);
    v ^= v >> 33;
    v = v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    v ^= v >> 33;
    (v & 0xFF) as u8
}

impl FrameSource for SyntheticSensor {
    fn next_frame(&mut self) -> Frame {
        let index = self.next_index;
        self.next_index += 1;
        let seed = self.seed;
        Frame::new(
            index,
            FeatureMap::from_fn(self.width, self.height, |x, y| {
                hash_pixel(seed, index, x, y)
            }),
        )
    }

    fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }
}

impl SeekableSource for SyntheticSensor {
    fn seek(&mut self, index: u64) {
        self.next_index = index;
    }
}

/// A [`FrameSource`] wrapper that injects deterministic scanline faults
/// from a [`FaultPlan`] — the sensor-link half of the fault model.
///
/// Real sensor links drop or corrupt whole scanlines (a missed HSYNC, a
/// burst on the serial link), not individual pixels. Per the plan:
///
/// * a **dropped** row repeats the previous delivered row (what a
///   line-buffer front-end holds when the line never arrives); row 0
///   drops to black,
/// * a **corrupted** row XORs a non-zero pattern over a burst of pixels.
///
/// The same `(plan, frame index, row)` always produces the same fault, so
/// faulty streams are replayable from the seed alone.
#[derive(Clone, Debug)]
pub struct FaultySensor<S: FrameSource> {
    inner: S,
    plan: FaultPlan,
    dropped: u64,
    corrupted: u64,
}

impl<S: FrameSource> FaultySensor<S> {
    /// Wraps a source with a fault plan.
    pub fn new(inner: S, plan: FaultPlan) -> FaultySensor<S> {
        FaultySensor {
            inner,
            plan,
            dropped: 0,
            corrupted: 0,
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Scanlines dropped so far.
    pub fn dropped_rows(&self) -> u64 {
        self.dropped
    }

    /// Scanlines corrupted so far.
    pub fn corrupted_rows(&self) -> u64 {
        self.corrupted
    }

    fn apply_faults(&mut self, frame: Frame) -> Frame {
        if !self.plan.has_scanline_faults() {
            return frame;
        }
        let (w, h) = frame.dims();
        let index = frame.index();
        let mut pixels = frame.pixels().clone();
        for y in 0..h {
            match self.plan.scanline_fault(index, y as u64) {
                None => {}
                Some(ScanlineFault::Dropped) => {
                    self.dropped += 1;
                    for x in 0..w {
                        pixels[(x, y)] = if y == 0 { 0 } else { pixels[(x, y - 1)] };
                    }
                }
                Some(ScanlineFault::Corrupted { xor, burst }) => {
                    self.corrupted += 1;
                    let start = (burst as usize) % w;
                    let len = ((burst >> 16) as usize % w).max(1);
                    for x in start..(start + len).min(w) {
                        pixels[(x, y)] ^= xor;
                    }
                }
            }
        }
        Frame::new(index, pixels)
    }
}

impl<S: FrameSource> FrameSource for FaultySensor<S> {
    fn next_frame(&mut self) -> Frame {
        let frame = self.inner.next_frame();
        self.apply_faults(frame)
    }

    fn dims(&self) -> (usize, usize) {
        self.inner.dims()
    }
}

/// Faults are a pure function of `(plan, frame index, row)`, so a
/// seekable camera stays seekable behind the fault injector.
impl<S: SeekableSource> SeekableSource for FaultySensor<S> {
    fn seek(&mut self, index: u64) {
        self.inner.seek(index);
    }
}

/// The overlapping-region tiling of §10.2: regions of `region` size slide
/// by `stride`, with a final clipped placement so the frame edge is
/// covered (the paper's ceiling division).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RegionGrid {
    frame: (usize, usize),
    region: (usize, usize),
    stride: (usize, usize),
}

impl RegionGrid {
    /// Creates a grid.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the frame or a stride is zero.
    pub fn new(
        frame: (usize, usize),
        region: (usize, usize),
        stride: (usize, usize),
    ) -> RegionGrid {
        assert!(
            region.0 <= frame.0 && region.1 <= frame.1,
            "region exceeds frame"
        );
        assert!(stride.0 > 0 && stride.1 > 0, "stride must be non-zero");
        RegionGrid {
            frame,
            region,
            stride,
        }
    }

    /// The §10.2 configuration: 640 × 480 frame, 64 × 36 regions
    /// overlapped by 16 pixels.
    pub fn paper_convnn() -> RegionGrid {
        RegionGrid::new((640, 480), (64, 36), (16, 16))
    }

    /// Region count per axis: `⌈(F − R)/S⌉ + 1`.
    pub fn counts(&self) -> (usize, usize) {
        (
            (self.frame.0 - self.region.0).div_ceil(self.stride.0) + 1,
            (self.frame.1 - self.region.1).div_ceil(self.stride.1) + 1,
        )
    }

    /// Total regions per frame (1 073 for [`RegionGrid::paper_convnn`]).
    pub fn count(&self) -> usize {
        let (nx, ny) = self.counts();
        nx * ny
    }

    /// Region dimensions.
    pub fn region_dims(&self) -> (usize, usize) {
        self.region
    }

    /// Frame dimensions the grid tiles.
    pub fn frame_dims(&self) -> (usize, usize) {
        self.frame
    }

    /// Tiling stride.
    pub fn stride(&self) -> (usize, usize) {
        self.stride
    }

    /// The origin of region `(i, j)`, clamped so the region stays inside
    /// the frame (the final row/column placement).
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside [`RegionGrid::counts`].
    pub fn origin(&self, i: usize, j: usize) -> (usize, usize) {
        let span = (self.frame.0 - self.region.0, self.frame.1 - self.region.1);
        // `k < ⌈span / s⌉ + 1` without a division: `k = 0`, or the
        // previous placement `(k − 1)·s` still starts inside `span`.
        let placed = |k: usize, s: usize, span: usize| {
            k == 0 || (k - 1).checked_mul(s).is_some_and(|o| o < span)
        };
        assert!(
            placed(i, self.stride.0, span.0) && placed(j, self.stride.1, span.1),
            "region ({i},{j}) out of grid"
        );
        (
            (i * self.stride.0).min(span.0),
            (j * self.stride.1).min(span.1),
        )
    }

    /// The origin of region `index` in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`RegionGrid::count`], like
    /// [`RegionGrid::origin`].
    pub fn origin_at(&self, index: usize) -> (usize, usize) {
        let (nx, _) = self.counts();
        self.origin(index % nx, index / nx)
    }

    /// Iterates all region origins, row-major.
    pub fn origins(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (nx, ny) = self.counts();
        (0..ny).flat_map(move |j| (0..nx).map(move |i| self.origin(i, j)))
    }

    /// Tiles region `index` (row-major) of a frame with `maps` replicated
    /// input channels, without touching any other region — what lets
    /// several workers share one frame, each tiling only its own regions.
    /// Yields exactly the stack [`RegionGrid::try_stream`] yields at
    /// position `index`.
    ///
    /// # Errors
    ///
    /// [`StreamError::FrameMismatch`] when the frame's dimensions differ
    /// from the grid's.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`RegionGrid::count`].
    pub fn try_region(
        &self,
        frame: &Frame,
        index: usize,
        maps: usize,
    ) -> Result<MapStack<Fx>, StreamError> {
        self.check(frame)?;
        frame.try_region_stacked(self.origin_at(index), self.region, maps)
    }

    /// Tiles the strip of region row `row`: the frame's full width at
    /// the row's region height and `y`-origin, with `maps` replicated
    /// input channels, into `out` (storage reused). Region `(i, row)` is
    /// the strip's columns from `origin(i, row).0` on — the §10.2 row
    /// buffer's band as the accelerator's input. Only the strip's last
    /// `rows` rows are tiled: all of it when `rows` is the region height,
    /// or just the rows a strip adds below the one before it.
    ///
    /// # Errors
    ///
    /// [`StreamError::FrameMismatch`] when the frame's dimensions differ
    /// from the grid's, and [`StreamError::RegionOutOfBounds`] when
    /// `row` is not below the grid's row count or `rows` is 0 or exceeds
    /// the region height.
    pub fn try_strip_into(
        &self,
        frame: &Frame,
        row: usize,
        rows: usize,
        maps: usize,
        out: &mut MapStack<Fx>,
    ) -> Result<(), StreamError> {
        self.check(frame)?;
        let (_, ny) = self.counts();
        if row >= ny || !(1..=self.region.1).contains(&rows) {
            return Err(StreamError::RegionOutOfBounds {
                origin: (0, row.saturating_mul(self.stride.1)),
                region: (self.frame.0, rows),
                frame: self.frame,
            });
        }
        let y0 = self.origin(0, row).1 + self.region.1 - rows;
        frame.try_region_into((0, y0), (self.frame.0, rows), maps, out)
    }

    /// [`StreamError::FrameMismatch`] unless the frame has the grid's
    /// dimensions.
    pub fn check(&self, frame: &Frame) -> Result<(), StreamError> {
        if frame.dims() != self.frame {
            return Err(StreamError::FrameMismatch {
                frame: frame.dims(),
                grid: self.frame,
            });
        }
        Ok(())
    }

    /// Streams a frame's regions as fixed-point stacks with `maps`
    /// replicated input channels, or reports
    /// [`StreamError::FrameMismatch`] if the frame's dimensions differ
    /// from the grid's.
    pub fn try_stream<'a>(
        &self,
        frame: &'a Frame,
        maps: usize,
    ) -> Result<RegionStream<'a>, StreamError> {
        self.check(frame)?;
        Ok(RegionStream {
            frame,
            grid: *self,
            maps,
            next: 0,
        })
    }
}

impl fmt::Display for RegionGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} frame, {}x{} regions, stride {}x{} ({} regions)",
            self.frame.0,
            self.frame.1,
            self.region.0,
            self.region.1,
            self.stride.0,
            self.stride.1,
            self.count()
        )
    }
}

/// Iterator over a frame's regions as fixed-point input stacks.
#[derive(Debug)]
pub struct RegionStream<'a> {
    frame: &'a Frame,
    grid: RegionGrid,
    maps: usize,
    next: usize,
}

impl Iterator for RegionStream<'_> {
    type Item = MapStack<Fx>;

    fn next(&mut self) -> Option<MapStack<Fx>> {
        if self.next >= self.grid.count() {
            return None;
        }
        let origin = self.grid.origin_at(self.next);
        self.next += 1;
        // The stream was built for a frame of the grid's dimensions, and
        // every region of the grid fits inside such a frame.
        self.frame
            .try_region_stacked(origin, self.grid.region_dims(), self.maps)
            .ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.grid.count().saturating_sub(self.next);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RegionStream<'_> {}

/// The partial-frame row buffer (§10.2): "the partial frame buffer must
/// store only the parts of the image reused across overlapping regions …
/// of the order of a few tens of pixel rows".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RowBuffer {
    frame_width: usize,
    rows: usize,
    bytes_per_pixel: usize,
}

impl RowBuffer {
    /// Sizes the buffer for a region grid: it must hold one region-height
    /// band of full-width rows while the band's regions are processed,
    /// plus the `region_h − stride_y` rows reused by the next band.
    pub fn for_grid(grid: &RegionGrid, bytes_per_pixel: usize) -> RowBuffer {
        let reuse = grid.region.1 - grid.stride.1.min(grid.region.1);
        RowBuffer {
            frame_width: grid.frame.0,
            rows: grid.region.1 + reuse,
            bytes_per_pixel,
        }
    }

    /// Rows the buffer holds.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Buffer footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.frame_width * self.rows * self.bytes_per_pixel
    }

    /// `true` if the buffer fits a commercial image processor's local
    /// SRAM (§2's 256 KB).
    pub fn fits_commercial_sram(&self) -> bool {
        self.bytes() <= 256 * 1024
    }
}

/// Frames per second given per-region processing time — the §10.2
/// arithmetic (sensors stream at the matched rate, so region processing is
/// the bottleneck).
pub fn frames_per_second(regions_per_frame: usize, seconds_per_region: f64) -> f64 {
    1.0 / (regions_per_frame as f64 * seconds_per_region)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_1073_regions() {
        let g = RegionGrid::paper_convnn();
        assert_eq!(g.counts(), (37, 29));
        assert_eq!(g.count(), 1073);
        assert!(g.to_string().contains("1073 regions"));
    }

    #[test]
    fn origins_cover_the_frame_edge() {
        let g = RegionGrid::paper_convnn();
        let last = g.origin(36, 28);
        assert_eq!(last, (640 - 64, 480 - 36));
        assert_eq!(g.origins().count(), 1073);
    }

    #[test]
    fn origin_accepts_exactly_the_counted_placements() {
        for (frame, region, stride) in [
            (20, 20, 1),
            (21, 20, 1),
            (40, 20, 10),
            (47, 20, 10),
            (47, 5, 7),
            (30, 4, 13),
            (9, 0, 4),
        ] {
            let g = RegionGrid::new((frame, frame), (region, region), (stride, stride));
            let (n, _) = g.counts();
            for k in 0..n + 3 {
                let placed = std::panic::catch_unwind(|| g.origin(k, 0)).is_ok();
                assert_eq!(placed, k < n, "{frame}/{region}/{stride}: k = {k}");
                let placed = std::panic::catch_unwind(|| g.origin(0, k)).is_ok();
                assert_eq!(placed, k < n, "{frame}/{region}/{stride}: k = {k}");
            }
        }
        let g = RegionGrid::new((8, 8), (4, 4), (usize::MAX, 1));
        assert_eq!(g.counts().0, 2);
        assert!(std::panic::catch_unwind(|| g.origin(2, 0)).is_err());
    }

    #[test]
    fn synthetic_sensor_is_deterministic() {
        let mut a = SyntheticSensor::new(32, 24, 9);
        let mut b = SyntheticSensor::new(32, 24, 9);
        assert_eq!(a.next_frame(), b.next_frame());
        let f1 = a.next_frame();
        assert_eq!(f1.index(), 1);
        let mut c = SyntheticSensor::new(32, 24, 10);
        assert_ne!(a.next_frame().pixels(), c.next_frame().pixels());
        assert_eq!(a.dims(), (32, 24));
    }

    #[test]
    fn regions_scale_pixels_into_unit_range() {
        let mut cam = SyntheticSensor::new(16, 16, 1);
        let f = cam.next_frame();
        let r = f.try_region_stacked((4, 4), (8, 8), 1).unwrap();
        assert_eq!(r.map_dims(), (8, 8));
        for v in r[0].iter() {
            let x = v.to_f32();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn pixels_convert_exactly_as_the_float_scaling_does() {
        for px in 0..=u8::MAX {
            assert_eq!(pixel_fx(px), Fx::from_f32(f32::from(px) / 256.0), "{px}");
        }
    }

    #[test]
    fn region_stacking_replicates_channels() {
        let mut cam = SyntheticSensor::new(16, 16, 1);
        let f = cam.next_frame();
        let r = f.try_region_stacked((0, 0), (8, 8), 3).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], r[2]);
    }

    #[test]
    fn stream_yields_every_region() {
        let g = RegionGrid::new((32, 24), (16, 12), (8, 8));
        let mut cam = SyntheticSensor::new(32, 24, 2);
        let f = cam.next_frame();
        let stream = g.try_stream(&f, 1).unwrap();
        assert_eq!(stream.len(), g.count());
        let all: Vec<_> = g.try_stream(&f, 1).unwrap().collect();
        assert_eq!(all.len(), g.count());
        assert_eq!(all[0].map_dims(), (16, 12));
    }

    #[test]
    fn indexed_tiling_matches_the_stream() {
        let g = RegionGrid::new((37, 29), (16, 12), (7, 5));
        let f = SyntheticSensor::new(37, 29, 4).next_frame();
        for (i, streamed) in g.try_stream(&f, 2).unwrap().enumerate() {
            assert_eq!(g.try_region(&f, i, 2).unwrap(), streamed, "region {i}");
        }
        let wrong = SyntheticSensor::new(16, 16, 4).next_frame();
        assert!(matches!(
            g.try_region(&wrong, 0, 1),
            Err(StreamError::FrameMismatch { .. })
        ));
    }

    #[test]
    fn seeking_equals_replaying() {
        use shidiannao_faults::FaultConfig;
        let plan = FaultPlan::new(FaultConfig {
            seed: 3,
            scanline_rate: 0.3,
            ..FaultConfig::zero()
        });
        let mut replayed = FaultySensor::new(SyntheticSensor::new(24, 16, 8), plan);
        let frames: Vec<_> = (0..5).map(|_| replayed.next_frame()).collect();
        let mut seeked = FaultySensor::new(SyntheticSensor::new(24, 16, 8), plan);
        for i in [4u64, 0, 2, 3, 1] {
            seeked.seek(i);
            assert_eq!(seeked.next_frame(), frames[i as usize], "frame {i}");
        }
    }

    #[test]
    fn row_buffer_is_a_few_tens_of_rows_and_fits_sram() {
        // §10.2: tens of rows, well under the 256 KB of commercial image
        // processors (16-bit pixels as stored for NBin).
        let buf = RowBuffer::for_grid(&RegionGrid::paper_convnn(), 2);
        assert_eq!(buf.rows(), 36 + 20);
        assert!(buf.rows() < 100);
        assert!(buf.fits_commercial_sram(), "{} bytes", buf.bytes());
    }

    #[test]
    fn fps_arithmetic_matches_paper() {
        // 1 073 regions × 0.047 ms ≈ 50 ms → ~20 fps (§10.2).
        let fps = frames_per_second(1073, 0.047e-3);
        assert!((fps - 19.8).abs() < 0.3, "{fps}");
    }

    #[test]
    fn try_region_reports_out_of_bounds() {
        let mut cam = SyntheticSensor::new(8, 8, 1);
        let f = cam.next_frame();
        let err = f.try_region_stacked((4, 4), (8, 8), 1).unwrap_err();
        assert_eq!(
            err,
            StreamError::RegionOutOfBounds {
                origin: (4, 4),
                region: (8, 8),
                frame: (8, 8),
            }
        );
        assert!(err.to_string().contains("exceeds frame"));
        assert!(f.try_region_stacked((0, 0), (8, 8), 1).is_ok());
        assert!(f.try_region_stacked((4, 4), (8, 8), 2).is_err());
    }

    #[test]
    fn try_strip_into_reports_out_of_bounds_rows() {
        // 3 region rows of height 12 at y-stride 6.
        let g = RegionGrid::new((32, 24), (16, 12), (8, 6));
        assert_eq!(g.counts().1, 3);
        let f = SyntheticSensor::new(32, 24, 3).next_frame();
        let mut out = MapStack::new(1, 1);
        let bad = |row: usize, rows| StreamError::RegionOutOfBounds {
            origin: (0, row.saturating_mul(6)),
            region: (32, rows),
            frame: (32, 24),
        };
        for (row, rows) in [(0, 0), (1, 13), (3, 12), (usize::MAX, 1)] {
            let err = g.try_strip_into(&f, row, rows, 1, &mut out).unwrap_err();
            assert_eq!(err, bad(row, rows), "row {row}, rows {rows}");
        }
        g.try_strip_into(&f, 2, 12, 2, &mut out).unwrap();
        assert_eq!((out.width(), out.height(), out.len()), (32, 12, 2));
        // The last row's strip is clamped to y = 12; its last 6 rows end
        // on the frame's last row.
        g.try_strip_into(&f, 2, 6, 1, &mut out).unwrap();
        let last = f.try_region_stacked((0, 23), (32, 1), 1).unwrap();
        assert_eq!(out.get(0).unwrap().row(5), last.get(0).unwrap().row(0));
    }

    #[test]
    fn try_stream_reports_frame_mismatch() {
        let g = RegionGrid::new((32, 24), (16, 12), (8, 8));
        let mut cam = SyntheticSensor::new(16, 16, 2);
        let f = cam.next_frame();
        let err = g.try_stream(&f, 1).unwrap_err();
        assert_eq!(
            err,
            StreamError::FrameMismatch {
                frame: (16, 16),
                grid: (32, 24),
            }
        );
        let mut ok_cam = SyntheticSensor::new(32, 24, 2);
        let ok = ok_cam.next_frame();
        assert_eq!(g.try_stream(&ok, 1).unwrap().count(), g.count());
    }

    #[test]
    fn faulty_sensor_with_zero_plan_is_transparent() {
        let mut plain = SyntheticSensor::new(32, 24, 5);
        let mut faulty = FaultySensor::new(SyntheticSensor::new(32, 24, 5), FaultPlan::none());
        for _ in 0..3 {
            assert_eq!(plain.next_frame(), faulty.next_frame());
        }
        assert_eq!(faulty.dropped_rows() + faulty.corrupted_rows(), 0);
        assert_eq!(faulty.dims(), (32, 24));
    }

    #[test]
    fn faulty_sensor_is_deterministic_and_injects_rows() {
        use shidiannao_faults::FaultConfig;
        let cfg = FaultConfig {
            seed: 99,
            scanline_rate: 0.2,
            ..FaultConfig::zero()
        };
        let plan = FaultPlan::new(cfg);
        let mut a = FaultySensor::new(SyntheticSensor::new(32, 24, 5), plan);
        let mut b = FaultySensor::new(SyntheticSensor::new(32, 24, 5), plan);
        let (fa, fb) = (a.next_frame(), b.next_frame());
        assert_eq!(fa, fb);
        // At a 20% row rate over 24 rows, some fault fires with
        // overwhelming probability for this fixed seed.
        assert!(a.dropped_rows() + a.corrupted_rows() > 0);
        // The faulty frame differs from the clean one.
        let clean = SyntheticSensor::new(32, 24, 5).next_frame();
        assert_ne!(fa, clean);
    }

    #[test]
    fn non_overlapping_grid_counts() {
        let g = RegionGrid::new((64, 64), (16, 16), (16, 16));
        assert_eq!(g.count(), 16);
        let b = RowBuffer::for_grid(&g, 2);
        assert_eq!(b.rows(), 16);
    }
}
