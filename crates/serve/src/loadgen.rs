//! Deterministic load generation: tenant specifications and open- and
//! closed-loop traffic models on the virtual clock.
//!
//! A tenant bundles a zoo network with its traffic shape, SLO, fault
//! environment, and input source. Arrival times are pure functions of
//! `(spec, seq)` — open-loop jitter comes from splitmix64, closed-loop
//! arrivals from completion times the deterministic scheduler produced —
//! so a scenario replays identically on every run.

use shidiannao_cnn::Network;
use shidiannao_faults::{FaultConfig, FaultPlan};
use shidiannao_fixed::Fx;
use shidiannao_sensor::{
    FaultySensor, FrameSource, Motion, MovingObject, RegionGrid, SeekableSource, StreamError,
    SyntheticSensor, VideoSensor,
};
use shidiannao_tensor::MapStack;

use crate::splitmix64;

/// How a tenant offers load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// Open loop: request `n` arrives at `(n + 1) × period + jitter_n`
    /// regardless of service progress (a sensor that keeps shuttering).
    Open {
        /// Mean inter-arrival gap in cycles.
        period: u64,
        /// Uniform jitter bound in cycles (`jitter_n < jitter + 1`,
        /// drawn from splitmix64). Keep below `period` for strictly
        /// increasing arrivals; larger values are clamped monotone.
        jitter: u64,
        /// Total requests to issue.
        count: u64,
    },
    /// Closed loop: `clients` callers that each wait for their previous
    /// request to resolve, think, then issue the next one (an RPC
    /// client pool).
    Closed {
        /// Concurrent callers.
        clients: u32,
        /// Think time between a resolution and the next issue, cycles.
        think: u64,
        /// Total requests to issue across all callers.
        count: u64,
    },
}

impl Traffic {
    /// Total requests this traffic model will issue.
    pub fn count(&self) -> u64 {
        match *self {
            Traffic::Open { count, .. } | Traffic::Closed { count, .. } => count,
        }
    }
}

/// Where a tenant's inputs come from. Either way the input for sequence
/// number `seq` is a pure function of the spec, so any worker thread can
/// rebuild it bit-identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputSource {
    /// `Network::random_input(seed ^ seq)` — an RPC tenant sending
    /// arbitrary payloads.
    Random {
        /// Base seed, mixed with the request sequence number.
        seed: u64,
    },
    /// Regions tiled out of synthetic sensor frames — a streaming camera
    /// tenant. Request `seq` maps to region `seq % grid.count()` of
    /// frame `seq / grid.count()`. Scanline faults from the tenant's
    /// [`FaultConfig`] corrupt rows deterministically on the way in.
    Stream {
        /// Sensor seed.
        seed: u64,
        /// Sensor frame dimensions `(width, height)`; must contain the
        /// network's input dimensions.
        frame: (usize, usize),
        /// Region tiling stride `(x, y)`.
        stride: (usize, usize),
    },
    /// [`InputSource::Stream`] with every region pixel sign-binarized to
    /// `±1.0` against the mid-scale threshold (pixel ≥ 0.5 → `+1`) — the
    /// input a binary front-end tenant (`shidiannao-quant`) consumes.
    /// The comparator sits in the sensor readout, so a binarized tenant
    /// moves 1-bit pixels instead of 8-bit ones; the stacked input is
    /// still Q7.8 `±ONE` values on the wire into NBin.
    BinarizedStream {
        /// Sensor seed.
        seed: u64,
        /// Sensor frame dimensions `(width, height)`.
        frame: (usize, usize),
        /// Region tiling stride `(x, y)`.
        stride: (usize, usize),
    },
    /// Regions tiled out of a deterministic **video** camera
    /// ([`VideoSensor`]) — a temporally coherent scene whose frames
    /// differ only where the camera or an object moved, the tenant class
    /// the motion-gated video pipeline serves. Same `seq` mapping and
    /// scanline-fault model as [`InputSource::Stream`].
    VideoStream {
        /// Sensor seed (drives the persistent world texture).
        seed: u64,
        /// Sensor frame dimensions `(width, height)`.
        frame: (usize, usize),
        /// Region tiling stride `(x, y)`.
        stride: (usize, usize),
        /// Camera motion of the scene.
        motion: Motion,
        /// Optional moving object crossing the scene.
        object: Option<MovingObject>,
    },
}

impl InputSource {
    /// The `(frame, stride)` geometry of a streaming source, `None` for
    /// [`InputSource::Random`] — one validation path for every stream
    /// flavour.
    pub fn stream_geometry(&self) -> Option<((usize, usize), (usize, usize))> {
        match *self {
            InputSource::Random { .. } => None,
            InputSource::Stream { frame, stride, .. }
            | InputSource::BinarizedStream { frame, stride, .. }
            | InputSource::VideoStream { frame, stride, .. } => Some((frame, stride)),
        }
    }
}

/// One tenant of the service: a network plus traffic, SLO, fault
/// environment, input source, and scheduling weight.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (also keys the report).
    pub name: String,
    /// The tenant's network (one `PreparedNetwork` + session pool each).
    pub network: Network,
    /// Fair-share weight across tenants (≥ 1).
    pub weight: u32,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Relative deadline: a request arriving at `t` must complete by
    /// `t + deadline_cycles` to meet its SLO.
    pub deadline_cycles: u64,
    /// Traffic model.
    pub traffic: Traffic,
    /// Input source.
    pub source: InputSource,
    /// Fault environment ([`FaultConfig::zero`] for a clean tenant).
    pub faults: FaultConfig,
    /// Salted retries before a faulty request is dropped.
    pub max_retries: u32,
}

impl TenantSpec {
    /// A tenant with benign defaults: weight 1, queue capacity 8, one
    /// open-loop request, clean faults, random inputs, 2 retries, and a
    /// deadline of 1M cycles. Chain the builder methods to shape it.
    pub fn new(name: impl Into<String>, network: Network) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            network,
            weight: 1,
            queue_capacity: 8,
            deadline_cycles: 1_000_000,
            traffic: Traffic::Open {
                period: 1,
                jitter: 0,
                count: 1,
            },
            source: InputSource::Random { seed: 0 },
            faults: FaultConfig::zero(),
            max_retries: 2,
        }
    }

    /// Sets the fair-share weight.
    pub fn weight(mut self, weight: u32) -> TenantSpec {
        self.weight = weight;
        self
    }

    /// Sets the bounded queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> TenantSpec {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the relative deadline in cycles.
    pub fn deadline_cycles(mut self, cycles: u64) -> TenantSpec {
        self.deadline_cycles = cycles;
        self
    }

    /// Sets the traffic model.
    pub fn traffic(mut self, traffic: Traffic) -> TenantSpec {
        self.traffic = traffic;
        self
    }

    /// Sets the input source.
    pub fn source(mut self, source: InputSource) -> TenantSpec {
        self.source = source;
        self
    }

    /// Sets the fault environment.
    pub fn faults(mut self, faults: FaultConfig) -> TenantSpec {
        self.faults = faults;
        self
    }

    /// Sets the retry budget.
    pub fn max_retries(mut self, retries: u32) -> TenantSpec {
        self.max_retries = retries;
        self
    }

    /// Builds the input for request `seq` — a pure function, safe to
    /// call from any worker thread.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError`] when a streaming region does not fit the
    /// configured frame (callers validate dimensions up front, so this
    /// indicates a mis-built spec).
    pub fn build_input(&self, seq: u64) -> Result<MapStack<Fx>, StreamError> {
        match self.source {
            InputSource::Random { seed } => Ok(self
                .network
                .random_input(splitmix64(seed ^ seq.wrapping_mul(0x9e37_79b9)))),
            InputSource::Stream {
                seed,
                frame,
                stride,
            } => self.stream_region(seed, frame, stride, seq, false),
            InputSource::BinarizedStream {
                seed,
                frame,
                stride,
            } => self.stream_region(seed, frame, stride, seq, true),
            InputSource::VideoStream {
                seed,
                frame,
                stride,
                motion,
                object,
            } => {
                let mut cam = VideoSensor::new(frame.0, frame.1, seed, motion);
                if let Some(o) = object {
                    cam = cam.with_object(o);
                }
                self.stream_region_from(cam, frame, stride, seq, false)
            }
        }
    }

    /// The shared streaming path behind [`InputSource::Stream`] and
    /// [`InputSource::BinarizedStream`].
    fn stream_region(
        &self,
        seed: u64,
        frame: (usize, usize),
        stride: (usize, usize),
        seq: u64,
        binarize: bool,
    ) -> Result<MapStack<Fx>, StreamError> {
        let cam = SyntheticSensor::new(frame.0, frame.1, seed);
        self.stream_region_from(cam, frame, stride, seq, binarize)
    }

    /// Tiles region `seq % regions` of frame `seq / regions` out of any
    /// seekable camera, scanline faults applied on the way in. The camera
    /// jumps straight to the frame, so building an input costs one frame
    /// whatever `seq` is.
    fn stream_region_from<S: SeekableSource>(
        &self,
        camera: S,
        frame: (usize, usize),
        stride: (usize, usize),
        seq: u64,
        binarize: bool,
    ) -> Result<MapStack<Fx>, StreamError> {
        let dims = self.network.input_dims();
        let grid = RegionGrid::new(frame, dims, stride);
        let regions = grid.count() as u64;
        // Scanline faults ride the tenant's fault plan, like the
        // streaming pipeline's camera does.
        let mut cam = FaultySensor::new(camera, FaultPlan::new(self.faults));
        cam.seek(seq / regions);
        let f = cam.next_frame();
        let stack = grid.try_region(&f, (seq % regions) as usize, self.network.input_maps())?;
        Ok(if binarize {
            stack.map(|&px| binarize_pixel(px))
        } else {
            stack
        })
    }
}

/// Sign-binarizes one sensor pixel against the mid-scale threshold:
/// `[0.5, 1) → +ONE`, `[0, 0.5) → -ONE`.
pub fn binarize_pixel(px: Fx) -> Fx {
    if px >= Fx::from_f32(0.5) {
        Fx::ONE
    } else {
        -Fx::ONE
    }
}

/// Per-tenant arrival generator driven by the cluster event loop.
#[derive(Clone, Debug)]
pub(crate) struct TenantGen {
    traffic: Traffic,
    /// Seed for open-loop jitter.
    seed: u64,
    /// Sequence numbers handed out so far.
    issued: u64,
    /// Monotonic clamp for open-loop arrivals under oversized jitter.
    last_time: u64,
    /// Closed loop: pending issue times, kept sorted ascending.
    pending: Vec<u64>,
}

impl TenantGen {
    pub(crate) fn new(tenant: usize, traffic: Traffic) -> TenantGen {
        let mut gen = TenantGen {
            traffic,
            seed: splitmix64(0x6c6f_6164 ^ ((tenant as u64) << 32)),
            issued: 0,
            last_time: 0,
            pending: Vec::new(),
        };
        if let Traffic::Closed {
            clients,
            think,
            count,
        } = traffic
        {
            // Stagger the callers' first issues across one think time so
            // they don't all collide at cycle 0.
            let callers = u64::from(clients).min(count);
            let stagger = if callers > 1 { think / callers } else { 0 };
            gen.pending = (0..callers).map(|c| c * stagger).collect();
        }
        gen
    }

    /// Next arrival `(time, seq)` if the tenant will issue again.
    pub(crate) fn peek(&self) -> Option<(u64, u64)> {
        match self.traffic {
            Traffic::Open {
                period,
                jitter,
                count,
            } => {
                if self.issued >= count {
                    return None;
                }
                let n = self.issued;
                let j = splitmix64(self.seed ^ n) % jitter.saturating_add(1);
                let raw = (n + 1).saturating_mul(period).saturating_add(j);
                Some((raw.max(self.last_time), n))
            }
            Traffic::Closed { .. } => self.pending.first().map(|&t| (t, self.issued)),
        }
    }

    /// Consumes the arrival returned by [`TenantGen::peek`].
    pub(crate) fn pop(&mut self) -> Option<(u64, u64)> {
        let (time, seq) = self.peek()?;
        if matches!(self.traffic, Traffic::Closed { .. }) {
            self.pending.remove(0);
        }
        self.issued += 1;
        self.last_time = time;
        Some((time, seq))
    }

    /// Closed loop only: a caller's request resolved (completed, was
    /// dropped, or was rejected) at `time`; schedule its next issue.
    pub(crate) fn on_resolved(&mut self, time: u64) {
        if let Traffic::Closed { think, count, .. } = self.traffic {
            if self.issued + self.pending.len() as u64 >= count {
                return;
            }
            let at = time.saturating_add(think);
            let pos = self.pending.partition_point(|&t| t <= at);
            self.pending.insert(pos, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_is_monotone_and_bounded() {
        let mut gen = TenantGen::new(
            0,
            Traffic::Open {
                period: 100,
                jitter: 250, // deliberately larger than the period
                count: 50,
            },
        );
        let mut last = 0;
        let mut n = 0;
        while let Some((t, seq)) = gen.pop() {
            assert!(t >= last, "arrival went backwards");
            assert_eq!(seq, n);
            last = t;
            n += 1;
        }
        assert_eq!(n, 50);
    }

    #[test]
    fn open_loop_replays_identically() {
        let traffic = Traffic::Open {
            period: 700,
            jitter: 300,
            count: 20,
        };
        let collect = || {
            let mut gen = TenantGen::new(3, traffic);
            std::iter::from_fn(move || gen.pop()).collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn closed_loop_waits_for_resolution() {
        let mut gen = TenantGen::new(
            0,
            Traffic::Closed {
                clients: 2,
                think: 100,
                count: 4,
            },
        );
        let a = gen.pop().expect("client 0 first issue");
        let b = gen.pop().expect("client 1 first issue");
        assert_eq!((a.1, b.1), (0, 1));
        assert_eq!(gen.peek(), None); // both callers outstanding
        gen.on_resolved(500);
        assert_eq!(gen.peek(), Some((600, 2)));
        gen.pop();
        gen.on_resolved(550);
        assert_eq!(gen.pop(), Some((650, 3)));
        gen.on_resolved(700); // count exhausted: no fifth issue
        assert_eq!(gen.peek(), None);
    }

    #[test]
    fn random_input_is_pure() {
        let net = shidiannao_cnn::zoo::gabor().build(1).expect("build gabor");
        let spec = TenantSpec::new("g", net).source(InputSource::Random { seed: 9 });
        let a = spec.build_input(4).expect("input");
        let b = spec.build_input(4).expect("input");
        assert_eq!(a.flatten(), b.flatten());
        let c = spec.build_input(5).expect("input");
        assert_ne!(a.flatten(), c.flatten());
    }

    #[test]
    fn binarized_stream_is_pure_sign_of_the_raw_stream() {
        let net = shidiannao_cnn::zoo::gabor().build(1).expect("build gabor");
        let raw = TenantSpec::new("g", net.clone()).source(InputSource::Stream {
            seed: 5,
            frame: (40, 40),
            stride: (20, 20),
        });
        let bin = TenantSpec::new("g", net).source(InputSource::BinarizedStream {
            seed: 5,
            frame: (40, 40),
            stride: (20, 20),
        });
        for seq in [0u64, 3, 7] {
            let r = raw.build_input(seq).expect("raw region").flatten();
            let b = bin.build_input(seq).expect("binarized region").flatten();
            assert!(b.iter().all(|&v| v == Fx::ONE || v == -Fx::ONE));
            for (r, b) in r.iter().zip(&b) {
                assert_eq!(*b, binarize_pixel(*r), "seq {seq}");
            }
            // Pure replay.
            let again = bin.build_input(seq).expect("replay").flatten();
            assert_eq!(b, again);
        }
    }

    #[test]
    fn stream_input_tiles_regions() {
        let net = shidiannao_cnn::zoo::gabor().build(1).expect("build gabor");
        let dims = net.input_dims();
        let spec = TenantSpec::new("g", net).source(InputSource::Stream {
            seed: 5,
            frame: (40, 40),
            stride: (20, 20),
        });
        // 40x40 frame, 20x20 regions, stride 20 → 4 regions per frame.
        let r0 = spec.build_input(0).expect("region");
        assert_eq!(r0.map_dims(), dims);
        let r4 = spec.build_input(4).expect("next frame, region 0");
        assert_ne!(r0.flatten(), r4.flatten());
        // Pure replay.
        assert_eq!(r0.flatten(), spec.build_input(0).expect("replay").flatten());
    }

    #[test]
    fn video_stream_is_pure_and_tiles_regions() {
        let net = shidiannao_cnn::zoo::gabor().build(1).expect("build gabor");
        let dims = net.input_dims();
        let spec = TenantSpec::new("g", net).source(InputSource::VideoStream {
            seed: 5,
            frame: (40, 40),
            stride: (20, 20),
            motion: Motion::Pan { dx: 3, dy: 1 },
            object: None,
        });
        let r0 = spec.build_input(0).expect("region");
        assert_eq!(r0.map_dims(), dims);
        // Panning scene: the same region of the next frame has shifted.
        let r4 = spec.build_input(4).expect("next frame, region 0");
        assert_ne!(r0.flatten(), r4.flatten());
        // Pure replay: sequence numbers alone determine the pixels.
        assert_eq!(r0.flatten(), spec.build_input(0).expect("replay").flatten());
        assert_eq!(r4.flatten(), spec.build_input(4).expect("replay").flatten());
    }

    #[test]
    fn static_video_repeats_frames_exactly() {
        let net = shidiannao_cnn::zoo::gabor().build(1).expect("build gabor");
        let spec = TenantSpec::new("g", net).source(InputSource::VideoStream {
            seed: 9,
            frame: (40, 40),
            stride: (20, 20),
            motion: Motion::Static,
            object: None,
        });
        // A static clean scene never changes: every frame tiles the same
        // regions, which is exactly what motion gating exploits.
        for region in 0..4u64 {
            let now = spec.build_input(region).expect("frame 0").flatten();
            let next = spec.build_input(region + 4).expect("frame 1").flatten();
            assert_eq!(now, next, "region {region}");
        }
    }

    #[test]
    fn video_stream_composes_with_scanline_faults() {
        use shidiannao_faults::SramProtection;
        let net = shidiannao_cnn::zoo::gabor().build(1).expect("build gabor");
        let source = InputSource::VideoStream {
            seed: 9,
            frame: (40, 40),
            stride: (20, 20),
            motion: Motion::Static,
            object: None,
        };
        let clean = TenantSpec::new("g", net.clone()).source(source);
        let noisy = TenantSpec::new("g", net)
            .source(source)
            .faults(FaultConfig::uniform(7, 0.5, SramProtection::None));
        // Heavy scanline faults corrupt at least one region, but the
        // corruption itself replays deterministically.
        let differs = (0..8u64).any(|seq| {
            clean.build_input(seq).expect("clean").flatten()
                != noisy.build_input(seq).expect("noisy").flatten()
        });
        assert!(differs, "50% scanline faults left all regions untouched");
        for seq in 0..8u64 {
            assert_eq!(
                noisy.build_input(seq).expect("noisy").flatten(),
                noisy.build_input(seq).expect("replay").flatten(),
            );
        }
    }

    /// Inputs built by seeking straight to a frame equal the regions of a
    /// sensor replayed from frame 0, across frame boundaries, with
    /// scanline faults on, for a synthetic and a panning video camera.
    #[test]
    fn seek_built_inputs_equal_replayed_streams() {
        let net = shidiannao_cnn::zoo::gabor().build(1).expect("build gabor");
        let (frame, stride) = ((40, 40), (10, 10));
        let grid = RegionGrid::new(frame, net.input_dims(), stride);
        let faults = FaultConfig {
            seed: 7,
            scanline_rate: 0.3,
            ..FaultConfig::zero()
        };
        let motion = Motion::Pan { dx: 3, dy: 1 };
        let object = MovingObject {
            size: (6, 6),
            speed: (5, 3),
        };
        let replay = |cam: &mut dyn FrameSource| -> Vec<Vec<Fx>> {
            (0..4)
                .flat_map(|_| {
                    let f = cam.next_frame();
                    grid.stream(&f, 1).map(|r| r.flatten()).collect::<Vec<_>>()
                })
                .collect()
        };
        let plan = FaultPlan::new(faults);
        let video = VideoSensor::new(frame.0, frame.1, 9, motion).with_object(object);
        let cases = [
            (
                InputSource::Stream {
                    seed: 9,
                    frame,
                    stride,
                },
                replay(&mut FaultySensor::new(
                    SyntheticSensor::new(frame.0, frame.1, 9),
                    plan,
                )),
            ),
            (
                InputSource::VideoStream {
                    seed: 9,
                    frame,
                    stride,
                    motion,
                    object: Some(object),
                },
                replay(&mut FaultySensor::new(video, plan)),
            ),
        ];
        for (source, expected) in cases {
            let spec = TenantSpec::new("g", net.clone())
                .source(source)
                .faults(faults);
            assert_eq!(expected.len(), 4 * grid.count());
            // Descending, so no request can lean on a previous one.
            for seq in (0..expected.len()).rev() {
                let built = spec.build_input(seq as u64).expect("input").flatten();
                assert_eq!(built, expected[seq], "{source:?} seq {seq}");
            }
        }
    }

    #[test]
    fn stream_geometry_covers_every_streaming_source() {
        let geom = ((40, 40), (20, 20));
        let video = InputSource::VideoStream {
            seed: 1,
            frame: geom.0,
            stride: geom.1,
            motion: Motion::Static,
            object: Some(MovingObject {
                size: (8, 8),
                speed: (3, 2),
            }),
        };
        let stream = InputSource::Stream {
            seed: 1,
            frame: geom.0,
            stride: geom.1,
        };
        let binarized = InputSource::BinarizedStream {
            seed: 1,
            frame: geom.0,
            stride: geom.1,
        };
        for src in [video, stream, binarized] {
            assert_eq!(src.stream_geometry(), Some(geom));
        }
        assert_eq!(InputSource::Random { seed: 1 }.stream_geometry(), None);
    }
}
