//! The video front-end: deterministic multi-stream video sources and
//! per-region frame differencing.
//!
//! ShiDianNao's argument — sit next to the sensor, skip the DRAM round
//! trip — extends in time: consecutive video frames share most of their
//! pixels, so most region tiles are unchanged and recomputing them
//! wastes exactly the cycles and nanojoules the architecture saves.
//! This module provides the sensor half of that temporal datapath:
//!
//! * [`VideoSensor`] — a seed-replayable synthetic video camera. Unlike
//!   [`SyntheticSensor`](crate::SyntheticSensor) (whose hash re-rolls
//!   every pixel every frame), it renders a *persistent* world texture
//!   through a camera [`Motion`] (static / panning / jittered), with an
//!   optional [`MovingObject`] so even a static scene has a small dirty
//!   set. It implements [`FrameSource`] and [`SeekableSource`], so it
//!   composes with [`FaultySensor`](crate::FaultySensor) like any other
//!   camera and jumps to any frame in O(1).
//! * [`FrameDelta`] — the per-region frame differencer: an 8-bit
//!   comparator over the row buffer's previous-frame band, marking a
//!   region dirty when any pixel moved by at least the configured
//!   threshold. A threshold of `0` marks every region dirty (the
//!   degenerate frame-independent schedule). The modeled comparator
//!   reads every region's band, overlaps included; the host reaches the
//!   same verdicts in one pass over the frame, comparing each pixel
//!   once and reducing the changes per region row.
//! * [`DirtyBitmap`] / [`DirtyMap`] — the per-stream dirty-region
//!   bitmap each observed frame produces, bit-packed because a VGA
//!   stream carries 1 073 regions per frame.
//!
//! Everything is a pure function of `(seed, frame index)`: two sensors
//! built from the same parameters stream byte-identical frames, and the
//! dirty set is a pure function of `(scene, threshold)` — the property
//! the video pipeline's determinism certificate rests on.

use crate::{Frame, FrameSource, RegionGrid, SeekableSource, StreamError};
use shidiannao_tensor::FeatureMap;

/// Camera motion of a [`VideoSensor`] scene.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Motion {
    /// Static camera: background pixels are identical every frame.
    Static,
    /// Panning camera: the view shifts `(dx, dy)` world pixels per
    /// frame, so every background pixel changes every frame.
    Pan {
        /// Horizontal world pixels per frame.
        dx: i32,
        /// Vertical world pixels per frame.
        dy: i32,
    },
    /// Jittering camera: each frame views the world through a seeded
    /// shake offset drawn from `[-amp, amp]` on both axes.
    Jitter {
        /// Maximum shake amplitude in pixels.
        amp: u32,
    },
}

/// A deterministic moving object: a bright textured block orbiting the
/// frame in screen space, touching a handful of regions per frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MovingObject {
    /// Object dimensions `(width, height)` in pixels.
    pub size: (usize, usize),
    /// Screen pixels the object advances per frame on each axis.
    pub speed: (usize, usize),
}

impl MovingObject {
    /// Where the object sits at `frame`, inside a `(w, h)` screen.
    fn origin(&self, frame: u64, (w, h): (usize, usize)) -> (usize, usize) {
        let span_x = (w - self.size.0 + 1) as u64;
        let span_y = (h - self.size.1 + 1) as u64;
        (
            ((frame * self.speed.0 as u64) % span_x) as usize,
            ((frame * self.speed.1 as u64) % span_y) as usize,
        )
    }
}

/// The persistent world texture: a hash of `(seed, world x, world y)`
/// only — no frame term, so a pixel looked at twice is the same pixel.
fn world_pixel(seed: u64, wx: i64, wy: i64) -> u8 {
    let mut v = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((wx as u64) << 32) ^ (wy as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    v ^= v >> 33;
    v = v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    v ^= v >> 33;
    (v & 0xFF) as u8
}

/// A deterministic synthetic video camera (see [the module](self)).
///
/// # Examples
///
/// ```
/// use shidiannao_sensor::{FrameSource, Motion, MovingObject, VideoSensor};
/// let mut cam = VideoSensor::new(64, 48, 7, Motion::Static)
///     .with_object(MovingObject { size: (8, 8), speed: (3, 2) });
/// let a = cam.next_frame();
/// let b = cam.next_frame();
/// // Static background, moving object: the frames differ, but only
/// // around the object.
/// assert_ne!(a.pixels(), b.pixels());
/// ```
#[derive(Clone, Debug)]
pub struct VideoSensor {
    width: usize,
    height: usize,
    seed: u64,
    motion: Motion,
    object: Option<MovingObject>,
    next_index: u64,
}

impl VideoSensor {
    /// Creates a camera over a fresh world.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero.
    pub fn new(width: usize, height: usize, seed: u64, motion: Motion) -> VideoSensor {
        assert!(width > 0 && height > 0, "sensor must be non-empty");
        VideoSensor {
            width,
            height,
            seed,
            motion,
            object: None,
            next_index: 0,
        }
    }

    /// Adds a moving object to the scene.
    ///
    /// # Panics
    ///
    /// Panics if the object does not fit inside the frame.
    pub fn with_object(mut self, object: MovingObject) -> VideoSensor {
        assert!(
            object.size.0 <= self.width && object.size.1 <= self.height,
            "object exceeds frame"
        );
        assert!(
            object.size.0 > 0 && object.size.1 > 0,
            "object must be non-empty"
        );
        self.object = Some(object);
        self
    }

    /// The camera motion.
    pub fn motion(&self) -> Motion {
        self.motion
    }

    /// The scene's moving object, if any.
    pub fn object(&self) -> Option<MovingObject> {
        self.object
    }

    /// The world-space offset the camera views frame `frame` through.
    fn view_offset(&self, frame: u64) -> (i64, i64) {
        match self.motion {
            Motion::Static => (0, 0),
            Motion::Pan { dx, dy } => (dx as i64 * frame as i64, dy as i64 * frame as i64),
            Motion::Jitter { amp } => {
                if amp == 0 {
                    return (0, 0);
                }
                // One splitmix draw per frame, split into two axes.
                let mut v = (self.seed ^ frame.wrapping_mul(0xA24B_AED4_963E_E407))
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                v ^= v >> 31;
                v = v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                v ^= v >> 29;
                let span = 2 * amp as u64 + 1;
                (
                    (v % span) as i64 - amp as i64,
                    ((v >> 32) % span) as i64 - amp as i64,
                )
            }
        }
    }
}

impl FrameSource for VideoSensor {
    fn next_frame(&mut self) -> Frame {
        let index = self.next_index;
        self.next_index += 1;
        let (ox, oy) = self.view_offset(index);
        let seed = self.seed;
        let object = self
            .object
            .map(|o| (o, o.origin(index, (self.width, self.height))));
        Frame::new(
            index,
            FeatureMap::from_fn(self.width, self.height, |x, y| {
                if let Some((o, (px, py))) = object {
                    if x >= px && x < px + o.size.0 && y >= py && y < py + o.size.1 {
                        // Bright rigid texture in object-local
                        // coordinates, distinct from any background value
                        // (backgrounds stay below 0xC0 only by chance, so
                        // the high bits just bias the object bright).
                        return 0xC0
                            | (world_pixel(seed ^ 0x0B1E, (x - px) as i64, (y - py) as i64)
                                & 0x3F);
                    }
                }
                world_pixel(seed, x as i64 + ox, y as i64 + oy)
            }),
        )
    }

    fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }
}

impl SeekableSource for VideoSensor {
    fn seek(&mut self, index: u64) {
        self.next_index = index;
    }
}

/// A bit-packed per-region dirty set (one bit per region of a
/// [`RegionGrid`], row-major).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DirtyBitmap {
    len: usize,
    words: Vec<u64>,
}

impl DirtyBitmap {
    /// An all-clean bitmap over `len` regions.
    pub fn new(len: usize) -> DirtyBitmap {
        DirtyBitmap {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// An all-dirty bitmap over `len` regions.
    pub fn all_dirty(len: usize) -> DirtyBitmap {
        let mut words = vec![!0u64; len.div_ceil(64)];
        if let (Some(last), tail @ 1..) = (words.last_mut(), len % 64) {
            *last = (1u64 << tail) - 1;
        }
        DirtyBitmap { len, words }
    }

    /// Appends region `index`'s bit to the words of a bitmap being built
    /// row-major: regions arrive in index order, so a new word starts at
    /// every multiple of 64.
    fn push(words: &mut Vec<u64>, index: usize, dirty: bool) {
        if index.is_multiple_of(64) {
            words.push(0);
        }
        if let Some(word) = words.last_mut() {
            *word |= u64::from(dirty) << (index % 64);
        }
    }

    /// Regions tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the bitmap tracks no regions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks region `i` dirty or clean.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, dirty: bool) {
        assert!(i < self.len, "region {i} out of {}", self.len);
        let mask = 1u64 << (i % 64);
        if dirty {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Whether region `i` is dirty.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "region {i} out of {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Dirty regions.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when every region is dirty.
    pub fn all(&self) -> bool {
        self.count() == self.len
    }

    /// Iterates the per-region dirty bits, row-major.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

/// What one observed frame looked like to the differencer: the frame's
/// dirty-region bitmap plus the comparator work it took to produce it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirtyMap {
    frame_index: u64,
    bitmap: DirtyBitmap,
    compared_pixels: u64,
}

impl DirtyMap {
    /// The observed frame's sequence number.
    pub fn frame_index(&self) -> u64 {
        self.frame_index
    }

    /// The per-region dirty bits.
    pub fn bitmap(&self) -> &DirtyBitmap {
        &self.bitmap
    }

    /// Whether region `i` is dirty.
    pub fn is_dirty(&self, i: usize) -> bool {
        self.bitmap.get(i)
    }

    /// Dirty regions.
    pub fn dirty_count(&self) -> usize {
        self.bitmap.count()
    }

    /// Regions tracked.
    pub fn regions(&self) -> usize {
        self.bitmap.len()
    }

    /// 8-bit pixel comparisons performed (0 for the first frame, which
    /// has nothing to compare against and is all-dirty by definition).
    pub fn compared_pixels(&self) -> u64 {
        self.compared_pixels
    }
}

/// The per-region frame differencer: holds the previous frame's pixels
/// (the row-buffer band the §10.2 front-end already keeps) and marks a
/// region dirty when any of its pixels changed by at least `threshold`
/// grey levels.
///
/// The first observed frame is always all-dirty; a `threshold` of `0`
/// marks every region dirty on every frame (`|Δ| ≥ 0` always holds), so
/// the motion gate degenerates to frame-independent processing.
///
/// The host compares each pixel once, row slice against row slice, and
/// reduces the changes per region row into one frame-width band; a
/// region is dirty iff its `rw` columns of its row's band are nonzero.
/// The modeled comparator is still per region:
/// [`DirtyMap::compared_pixels`] charges `rw · rh` pixels for every
/// region, overlaps included, because the hardware reads each region's
/// band at line rate.
#[derive(Clone, Debug)]
pub struct FrameDelta {
    grid: RegionGrid,
    threshold: u8,
    prev: Option<FeatureMap<u8>>,
    /// The region row's band, then the ring of cells it is ORed from
    /// (see `changed_regions`); kept so a frame allocates none of it.
    scratch: Vec<u8>,
}

impl FrameDelta {
    /// Creates a differencer over `grid` with the given dirty threshold.
    pub fn new(grid: RegionGrid, threshold: u8) -> FrameDelta {
        FrameDelta {
            grid,
            threshold,
            prev: None,
            scratch: Vec::new(),
        }
    }

    /// The grid regions are diffed against.
    pub fn grid(&self) -> &RegionGrid {
        &self.grid
    }

    /// The dirty threshold in grey levels.
    pub fn threshold(&self) -> u8 {
        self.threshold
    }

    /// Forgets the previous frame: the next observation is all-dirty.
    pub fn reset(&mut self) {
        self.prev = None;
    }

    /// Diffs `frame` against the previously observed one and records it
    /// as the new reference.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::FrameMismatch`] when the frame's
    /// dimensions differ from the grid's.
    pub fn observe(&mut self, frame: &Frame) -> Result<DirtyMap, StreamError> {
        self.grid.check(frame)?;
        let regions = self.grid.count();
        let (rw, rh) = self.grid.region_dims();
        let compared = (regions * rw * rh) as u64;
        let (bitmap, compared_pixels) = match &self.prev {
            None => (DirtyBitmap::all_dirty(regions), 0),
            Some(_) if self.threshold == 0 => (DirtyBitmap::all_dirty(regions), compared),
            Some(prev) => {
                let (grid, scratch) = (&self.grid, &mut self.scratch);
                let dirty = changed_regions(grid, self.threshold, scratch, frame.pixels(), prev);
                (dirty, compared)
            }
        };
        match &mut self.prev {
            Some(prev) => prev.clone_from(frame.pixels()),
            None => self.prev = Some(frame.pixels().clone()),
        }
        Ok(DirtyMap {
            frame_index: frame.index(),
            bitmap,
            compared_pixels,
        })
    }
}

/// The regions of `grid` where some pixel of `cur` differs from `prev`
/// by at least `threshold` (non-zero), comparing each frame row once.
///
/// Frame rows are grouped into cells of `g` rows, `g` dividing the
/// region height, the vertical stride and the clamped last origin, so
/// every region row is a run of `rh / g` whole cells and overlapping
/// region rows share theirs. A cell is the per-column OR of
/// `|Δ| − (threshold − 1)` (saturating, so nonzero iff `|Δ| ≥
/// threshold`) over its rows; a region row's band is the OR of its
/// cells, and a region is dirty iff its `rw` columns of the band are
/// nonzero. `scratch` holds the band and a ring of the last `rh / g`
/// cells: region rows only move down, so no cell is computed twice.
fn changed_regions(
    grid: &RegionGrid,
    threshold: u8,
    scratch: &mut Vec<u8>,
    cur: &FeatureMap<u8>,
    prev: &FeatureMap<u8>,
) -> DirtyBitmap {
    let (nx, ny) = grid.counts();
    let (rw, rh) = grid.region_dims();
    let (fw, fh) = grid.frame_dims();
    let g = gcd(gcd(grid.stride().1, rh), fh - rh);
    let cells = rh / g;
    scratch.resize((cells + 1) * fw, 0);
    let (band, ring) = scratch.split_at_mut(fw);
    let mut next = 0;
    let mut words = Vec::with_capacity((nx * ny).div_ceil(64));
    for j in 0..ny {
        let first = grid.origin(0, j).1 / g;
        for k in next.max(first)..first + cells {
            let cell = &mut ring[(k % cells) * fw..][..fw];
            cell.fill(0);
            for y in k * g..(k + 1) * g {
                for ((d, &c), &p) in cell.iter_mut().zip(cur.row(y)).zip(prev.row(y)) {
                    *d |= c.abs_diff(p).saturating_sub(threshold - 1);
                }
            }
        }
        next = first + cells;
        band.fill(0);
        for cell in ring.chunks_exact(fw) {
            for (b, &d) in band.iter_mut().zip(cell) {
                *b |= d;
            }
        }
        for i in 0..nx {
            let (x0, _) = grid.origin(i, j);
            let dirty = band[x0..x0 + rw].iter().fold(0, |a, &b| a | b) != 0;
            DirtyBitmap::push(&mut words, j * nx + i, dirty);
        }
    }
    DirtyBitmap {
        len: nx * ny,
        words,
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultySensor, SyntheticSensor};
    use proptest::prelude::*;
    use shidiannao_faults::FaultPlan;

    fn grid() -> RegionGrid {
        RegionGrid::new((64, 48), (16, 16), (16, 16))
    }

    /// The per-region scan [`FrameDelta::observe`] replaced, kept as its
    /// oracle: each region's window is scanned on its own with 2-D
    /// indexed loads, exiting at its first changed pixel.
    struct RegionScan {
        grid: RegionGrid,
        threshold: u8,
        prev: Option<FeatureMap<u8>>,
    }

    impl RegionScan {
        fn new(grid: RegionGrid, threshold: u8) -> RegionScan {
            RegionScan {
                grid,
                threshold,
                prev: None,
            }
        }

        fn observe(&mut self, frame: &Frame) -> DirtyMap {
            let regions = self.grid.count();
            let (rw, rh) = self.grid.region_dims();
            let mut bitmap = DirtyBitmap::new(regions);
            let mut compared = 0u64;
            match &self.prev {
                None => (0..regions).for_each(|i| bitmap.set(i, true)),
                Some(prev) => {
                    let cur = frame.pixels();
                    for (i, (x0, y0)) in self.grid.origins().enumerate() {
                        let mut dirty = self.threshold == 0;
                        'scan: for y in y0..y0 + rh {
                            for x in x0..x0 + rw {
                                if cur[(x, y)].abs_diff(prev[(x, y)]) >= self.threshold {
                                    dirty = true;
                                    break 'scan;
                                }
                            }
                        }
                        compared += (rw * rh) as u64;
                        bitmap.set(i, dirty);
                    }
                }
            }
            self.prev = Some(frame.pixels().clone());
            DirtyMap {
                frame_index: frame.index(),
                bitmap,
                compared_pixels: compared,
            }
        }
    }

    /// Coordinates along one axis where a single changed pixel tests a
    /// boundary: both frame edges and, for every region placement, the
    /// pixel before it, its first and last pixel, and the pixel after it
    /// (an overlap seam when placements overlap, a gap when they do not).
    fn boundaries(frame: usize, region: usize, origins: impl Iterator<Item = usize>) -> Vec<usize> {
        let mut at = vec![0, frame - 1];
        for x0 in origins {
            at.extend([x0.wrapping_sub(1), x0, x0 + region - 1, x0 + region]);
        }
        at.retain(|&x| x < frame);
        at
    }

    proptest! {
        #[test]
        fn one_pass_differencing_equals_the_region_scan(
            frame in (1usize..48, 1usize..40),
            region in (0usize..1000, 0usize..1000),
            stride in (1usize..17, 1usize..17),
            threshold in any::<u8>(),
            seed in any::<u64>(),
            pick in (0usize..1000, 0usize..1000, 0usize..4, 0usize..256),
        ) {
            let (fw, fh) = frame;
            let region = (1 + region.0 % fw, 1 + region.1 % fh);
            let grid = RegionGrid::new(frame, region, stride);
            let (nx, ny) = grid.counts();
            let xs = boundaries(fw, region.0, (0..nx).map(|i| grid.origin(i, 0).0));
            let ys = boundaries(fh, region.1, (0..ny).map(|j| grid.origin(0, j).1));
            let at = (xs[pick.0 % xs.len()], ys[pick.1 % ys.len()]);
            // One pixel moves by exactly `threshold` or by one less, up
            // or down.
            let delta = if pick.2 % 2 == 0 { threshold } else { threshold.saturating_sub(1) };
            let low = (pick.3 % (256 - usize::from(delta))) as u8;
            let (before, after) = if pick.2 < 2 { (low, low + delta) } else { (low + delta, low) };
            let scene = |salt: u64, dx: i64, moved: Option<u8>| {
                FeatureMap::from_fn(fw, fh, |x, y| match moved {
                    Some(v) if (x, y) == at => v,
                    _ => world_pixel(seed ^ salt, x as i64 + dx, y as i64),
                })
            };
            let base = scene(0, 0, Some(before));
            let jitter = FeatureMap::from_fn(fw, fh, |x, y| {
                let h = world_pixel(seed ^ 0x5EED, x as i64, y as i64);
                if h.is_multiple_of(8) { base[(x, y)].wrapping_add(h) } else { base[(x, y)] }
            });
            let frames = [
                base.clone(),
                scene(0, 0, Some(after)),
                jitter.clone(),
                jitter,
                scene(0, 1, None),
                base,
            ];
            let mut delta = FrameDelta::new(grid, threshold);
            let mut oracle = RegionScan::new(grid, threshold);
            for (index, pixels) in frames.into_iter().enumerate() {
                let frame = Frame::new(index as u64, pixels);
                if index == 4 {
                    delta.reset();
                    oracle.prev = None;
                }
                prop_assert_eq!(delta.observe(&frame).unwrap(), oracle.observe(&frame));
            }
        }
    }

    #[test]
    fn static_scene_repeats_exactly() {
        let mut cam = VideoSensor::new(64, 48, 7, Motion::Static);
        let a = cam.next_frame();
        let b = cam.next_frame();
        assert_eq!(a.pixels(), b.pixels());
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn video_sensor_is_seed_replayable() {
        for motion in [
            Motion::Static,
            Motion::Pan { dx: 2, dy: -1 },
            Motion::Jitter { amp: 2 },
        ] {
            let mut a = VideoSensor::new(48, 32, 11, motion).with_object(MovingObject {
                size: (6, 6),
                speed: (3, 2),
            });
            let mut b = a.clone();
            for _ in 0..4 {
                assert_eq!(a.next_frame(), b.next_frame(), "{motion:?}");
            }
        }
    }

    #[test]
    fn panning_moves_every_pixel_and_jitter_shakes() {
        let mut pan = VideoSensor::new(32, 32, 3, Motion::Pan { dx: 1, dy: 0 });
        let a = pan.next_frame();
        let b = pan.next_frame();
        // A 1-pixel pan shifts the texture: column x of frame 1 equals
        // column x+1 of frame 0.
        assert_eq!(b.pixels()[(0, 5)], a.pixels()[(1, 5)]);

        let mut jit = VideoSensor::new(32, 32, 3, Motion::Jitter { amp: 1 });
        let frames: Vec<_> = (0..4).map(|_| jit.next_frame()).collect();
        assert!(
            frames.windows(2).any(|w| w[0].pixels() != w[1].pixels()),
            "jitter never moved"
        );
    }

    #[test]
    fn moving_object_dirties_few_regions_of_a_static_scene() {
        let mut cam = VideoSensor::new(64, 48, 7, Motion::Static).with_object(MovingObject {
            size: (8, 8),
            speed: (5, 3),
        });
        let mut delta = FrameDelta::new(grid(), 1);
        let first = delta.observe(&cam.next_frame()).unwrap();
        assert!(first.bitmap().all(), "first frame is all-dirty");
        assert_eq!(first.compared_pixels(), 0);
        let second = delta.observe(&cam.next_frame()).unwrap();
        let dirty = second.dirty_count();
        assert!(dirty > 0, "the object moved");
        assert!(
            dirty < second.regions(),
            "a static background stays mostly clean ({dirty}/{})",
            second.regions()
        );
        assert_eq!(second.compared_pixels(), (grid().count() * 16 * 16) as u64);
    }

    #[test]
    fn threshold_zero_marks_everything_dirty() {
        let mut cam = VideoSensor::new(64, 48, 7, Motion::Static);
        let mut delta = FrameDelta::new(grid(), 0);
        let _ = delta.observe(&cam.next_frame()).unwrap();
        let second = delta.observe(&cam.next_frame()).unwrap();
        assert!(second.bitmap().all(), "threshold 0 is frame-independent");
    }

    #[test]
    fn identical_frames_are_clean_above_threshold_zero() {
        let mut cam = VideoSensor::new(64, 48, 7, Motion::Static);
        let mut delta = FrameDelta::new(grid(), 1);
        let _ = delta.observe(&cam.next_frame()).unwrap();
        let second = delta.observe(&cam.next_frame()).unwrap();
        assert_eq!(second.dirty_count(), 0);
    }

    #[test]
    fn dirty_set_is_a_pure_function_of_seed_and_threshold() {
        for threshold in [0u8, 1, 16] {
            let run = |seed: u64| -> Vec<DirtyMap> {
                let mut cam = VideoSensor::new(64, 48, seed, Motion::Jitter { amp: 1 })
                    .with_object(MovingObject {
                        size: (8, 8),
                        speed: (3, 2),
                    });
                let mut delta = FrameDelta::new(grid(), threshold);
                (0..4)
                    .map(|_| delta.observe(&cam.next_frame()).unwrap())
                    .collect()
            };
            assert_eq!(run(5), run(5), "threshold {threshold}");
        }
    }

    #[test]
    fn frame_delta_rejects_mismatched_frames() {
        let mut cam = VideoSensor::new(32, 32, 7, Motion::Static);
        let mut delta = FrameDelta::new(grid(), 1);
        let err = delta.observe(&cam.next_frame()).unwrap_err();
        assert!(matches!(err, StreamError::FrameMismatch { .. }));
    }

    #[test]
    fn reset_forgets_the_reference_frame() {
        let mut cam = VideoSensor::new(64, 48, 7, Motion::Static).with_object(MovingObject {
            size: (8, 8),
            speed: (5, 3),
        });
        let (a, b, c) = (cam.next_frame(), cam.next_frame(), cam.next_frame());
        let mut delta = FrameDelta::new(grid(), 1);
        let _ = delta.observe(&a).unwrap();
        delta.reset();
        let again = delta.observe(&b).unwrap();
        assert!(again.bitmap().all());
        assert_eq!(again.compared_pixels(), 0);
        // Only the first frame after a reset is all-dirty: the next one
        // is diffed against it, exactly as a fresh differencer would.
        let next = delta.observe(&c).unwrap();
        assert!(next.dirty_count() > 0 && !next.bitmap().all());
        let mut oracle = RegionScan::new(grid(), 1);
        oracle.observe(&b);
        assert_eq!(next, oracle.observe(&c));
    }

    #[test]
    fn video_sensor_composes_with_faulty_sensor() {
        use shidiannao_faults::FaultConfig;
        let cfg = FaultConfig {
            seed: 99,
            scanline_rate: 0.2,
            ..FaultConfig::zero()
        };
        let cam = VideoSensor::new(32, 24, 5, Motion::Static);
        let mut a = FaultySensor::new(cam.clone(), FaultPlan::new(cfg));
        let mut b = FaultySensor::new(cam, FaultPlan::new(cfg));
        for _ in 0..3 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
        assert!(a.dropped_rows() + a.corrupted_rows() > 0);
    }

    #[test]
    fn bitmap_packs_and_counts() {
        let mut b = DirtyBitmap::new(130);
        assert_eq!(b.count(), 0);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert_eq!(b.count(), 3);
        assert!(b.get(64) && !b.get(63));
        b.set(64, false);
        assert_eq!(b.count(), 2);
        assert!(!b.all());
        assert!(DirtyBitmap::all_dirty(130).all());
        assert_eq!(b.iter().filter(|&d| d).count(), 2);
        assert!(!b.is_empty() && DirtyBitmap::new(0).is_empty());
    }

    #[test]
    fn all_dirty_fills_whole_words_and_clears_the_tail() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let b = DirtyBitmap::all_dirty(n);
            assert_eq!(b.count(), n, "n = {n}");
            assert_eq!(b.words.len(), n.div_ceil(64));
            assert!(b.all() && b.iter().all(|d| d));
            if n % 64 != 0 {
                assert_eq!(b.words[n / 64] >> (n % 64), 0, "tail of {n}");
            }
        }
    }

    #[test]
    fn video_and_synthetic_sensors_share_the_frame_contract() {
        // Both sources produce frames the same grid machinery consumes.
        let mut video = VideoSensor::new(64, 48, 7, Motion::Static);
        let mut synth = SyntheticSensor::new(64, 48, 7);
        let g = grid();
        assert_eq!(
            g.try_stream(&video.next_frame(), 1).unwrap().count(),
            g.try_stream(&synth.next_frame(), 1).unwrap().count()
        );
    }
}
