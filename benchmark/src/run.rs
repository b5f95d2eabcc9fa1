//! What every workload shares: options, the timed-chunk loop and its
//! host-speed reference, repeated set-up, peak memory, the modeled
//! per-layer breakdown, and the results files.

use std::fmt::Display;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use shidiannao::cnn::{LayerKind, Network};
use shidiannao::sim::{EnergyReport, PreparedNetwork, RunStats};

use crate::json::quote;
use crate::metrics::{median_spread, percentile, Metrics, Tier, BUFFERS, KINDS};
use crate::trace::Tracer;

/// Network build seed: the harness seed, so the frozen seed cycle tables
/// apply to every network the benchmark builds.
pub const BUILD_SEED: u64 = 2015;

/// The §10.2 real-time rate: a frame meets its deadline when its modeled
/// time is at most `1 / PAPER_FPS` seconds.
pub const PAPER_FPS: f64 = 20.0;

/// Set-ups before the first timed chunk.
pub const FIRST_SETUPS: usize = 3;
/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Between timed chunks the set-up repeats until set-ups have taken this
/// share of the timed seconds so far...
pub const SETUP_SHARE: f64 = 0.1;
/// ...or have run this many times.
pub const MAX_SETUPS: usize = 64;

/// Converts any displayable error into the benchmark's error string.
pub fn err(e: impl Display) -> String {
    e.to_string()
}

/// The five workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §10.2: ConvNN over the 1 073 regions of every VGA frame.
    VgaConvnn,
    /// Table 2 networks plus the LRN and LCN extended networks.
    ZooTable2,
    /// Motion-gated video, static camera with one moving object.
    VideoStatic,
    /// Motion-gated video, panning camera.
    VideoPan,
    /// Multi-tenant serving: closed and open loops, faults, batching.
    ServeMixed,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::VgaConvnn,
        Workload::ZooTable2,
        Workload::VideoStatic,
        Workload::VideoPan,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VgaConvnn => "vga_convnn",
            Workload::ZooTable2 => "zoo_table2",
            Workload::VideoStatic => "video_static",
            Workload::VideoPan => "video_pan",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Options of one workload run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload seed: drives inputs and sensors, never network weights.
    pub seed: u64,
    /// Seconds of timed work. A traced run spends half of it untraced
    /// (the reference for shares and overhead) and half traced.
    pub seconds: f64,
    /// Record spans and emit the per-layer metrics.
    pub trace: bool,
    /// Smallest sizes: one set-up, no warm-up, one chunk.
    pub smoke: bool,
    /// OS threads a workload may use (the serve worker threads).
    pub threads: usize,
}

impl Opts {
    /// Warm-up size: `full`, or none at smoke size.
    pub fn warmup(&self, full: usize) -> usize {
        if self.smoke {
            0
        } else {
            full
        }
    }
}

/// What a workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every metric measured.
    pub metrics: Metrics,
    /// Items processed (frames, inferences, requests).
    pub attempted: u64,
    /// Items that failed a correctness check or returned an error.
    pub failed: u64,
    /// Descriptions of the failures.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Records one failed item when `ok` is false, and why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(what());
            }
        }
    }

    /// Moves metric-table problems (missing, non-finite, invalid) into
    /// the error list.
    pub fn validate(&mut self, trace: bool) {
        let tier = if trace {
            Tier::PerLayer
        } else {
            Tier::EndToEnd
        };
        let problems = self.metrics.problems(tier);
        self.errors.extend(problems);
    }
}

/// Seconds [`Reference::time`] takes on an idle core of the 2-core Xeon VM
/// the bounds in `BENCHMARK.json` were set on. Host times in end-to-end
/// metrics are in reference seconds: seconds of that core running
/// uncontended.
const REFERENCE_S: f64 = 0.004;

/// A fixed CPU kernel of the benchmark's own, which no change to the
/// simulator can speed up, timed right after every timed section. Other
/// tenants of a shared host slow the simulator by up to 2×, and by how
/// much changes within a fraction of a second. The kernel has the shape of
/// the simulator's hot loop (`shifted_mac` in schedule replay): short
/// strided i16 × i16 → i64 multiply-accumulate sweeps over 64 KB, so
/// contention slows both alike.
struct Reference {
    buf: Vec<i16>,
    lanes: Vec<i64>,
}

impl Reference {
    /// The kernel with its fixed pseudo-random buffer.
    fn new() -> Reference {
        Reference {
            buf: (0..32_768u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 20) as i16)
                .collect(),
            lanes: vec![0; 8],
        }
    }

    /// Runs the kernel twice and returns the seconds of the second pass,
    /// so the cache state the timed section left behind does not count.
    fn time(&mut self) -> f64 {
        let (buf, lanes) = (&self.buf, &mut self.lanes[..]);
        let n = buf.len();
        let mut pass = || {
            for rep in 0..48 {
                let mut base = rep * 17;
                for _ in 0..n / 16 {
                    let b = base % (n - 64);
                    let row = &buf[b..b + 48];
                    let stride = 1 + (base & 1);
                    for k in 0..5 {
                        let w = i64::from(buf[(b + k * 3) % n]);
                        for (px, l) in lanes.iter_mut().enumerate() {
                            *l += i64::from(row[k + px * stride]) * w;
                        }
                    }
                    base += 37;
                }
            }
            black_box(&mut *lanes);
        };
        pass();
        timed(pass).1
    }

    /// `secs` of a section just timed, in reference seconds: scaled by
    /// how much slower than [`REFERENCE_S`] the kernel runs now.
    fn scale(&mut self, secs: f64) -> f64 {
        secs * REFERENCE_S / self.time()
    }
}

/// What [`measure`] timed.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Seconds of each untraced chunk.
    pub plain: Vec<f64>,
    /// Each untraced chunk in reference seconds.
    pub plain_ref: Vec<f64>,
    /// Seconds of each traced chunk.
    pub traced: Vec<f64>,
}

/// Runs timed chunks until at least `o.seconds` of timed work and `min`
/// chunks (one at smoke size) are done. A traced run alternates untraced
/// and traced chunks, so drift in host speed reaches both alike, and runs
/// `min` of each. `chunk(i, traced)` does its own timing, so correctness
/// checks between timed sections stay out of the numbers, and returns the
/// seconds timed. After each chunk the reference kernel is timed, then the
/// set-up repeats (see [`SETUP_SHARE`]), so set-ups are sampled across
/// the whole run rather than in one stretch.
///
/// # Errors
///
/// The first error a chunk or a set-up returns.
pub fn measure<T, F>(
    o: &Opts,
    min: usize,
    setup: &mut SetUp<F>,
    mut chunk: impl FnMut(usize, bool) -> Result<f64, String>,
) -> Result<Timing, String>
where
    F: FnMut() -> Result<(T, f64), String>,
{
    let (min, seconds) = if o.smoke { (1, 0.0) } else { (min, o.seconds) };
    let (mut plain, mut plain_ref, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = Reference::new();
    let mut total = 0.0;
    let mut i = 0;
    while plain.len() < min || (o.trace && traced.len() < min) || total < seconds {
        let trace = o.trace && i % 2 == 1;
        let s = chunk(i, trace)?;
        total += s;
        if trace {
            traced.push(s);
        } else {
            plain.push(s);
            plain_ref.push(reference.scale(s));
        }
        while !o.smoke
            && setup.secs.len() < MAX_SETUPS
            && (setup.secs.len() < SETUPS || setup.secs.iter().sum::<f64>() < SETUP_SHARE * total)
        {
            black_box(setup.once()?);
        }
        i += 1;
    }
    Ok(Timing {
        plain,
        plain_ref,
        traced,
    })
}

/// A workload's full set-up (build the networks, `prepare`, construct the
/// pipeline or service), and the seconds of every time it ran.
pub struct SetUp<F> {
    build: F,
    reference: Reference,
    /// Seconds of each set-up.
    pub secs: Vec<f64>,
    /// Each set-up in reference seconds.
    pub secs_ref: Vec<f64>,
    /// Seconds of each set-up spent in `Accelerator::prepare`.
    pub prepare: Vec<f64>,
}

impl<F> SetUp<F> {
    /// `build` returns what it built and the seconds of that spent in
    /// `Accelerator::prepare`.
    pub fn new(build: F) -> SetUp<F> {
        SetUp {
            build,
            reference: Reference::new(),
            secs: Vec::new(),
            secs_ref: Vec::new(),
            prepare: Vec::new(),
        }
    }

    /// Runs one set-up, times the reference kernel after it, and returns
    /// what it built.
    ///
    /// # Errors
    ///
    /// The error `build` returns.
    pub fn once<T>(&mut self) -> Result<T, String>
    where
        F: FnMut() -> Result<(T, f64), String>,
    {
        let t = Instant::now();
        let (built, prepare_s) = (self.build)()?;
        let secs = t.elapsed().as_secs_f64();
        self.secs.push(secs);
        self.secs_ref.push(self.reference.scale(secs));
        self.prepare.push(prepare_s);
        Ok(built)
    }

    /// Runs the set-ups before the first timed chunk ([`FIRST_SETUPS`],
    /// one at smoke size) and returns the last build, the one the workload
    /// times. [`measure`] repeats the set-up between chunks.
    ///
    /// # Errors
    ///
    /// The first error `build` returns.
    pub fn first<T>(&mut self, o: &Opts) -> Result<T, String>
    where
        F: FnMut() -> Result<(T, f64), String>,
    {
        let n = if o.smoke { 1 } else { FIRST_SETUPS };
        for _ in 1..n {
            black_box(self.once()?);
        }
        self.once()
    }
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process (`VmHWM`), in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One timed chunk of equal work.
#[derive(Clone, Copy, Debug)]
pub struct Chunk {
    /// Items (frames, inferences, requests) the chunk completed.
    pub items: f64,
    /// Modeled cycles the chunk simulated.
    pub cycles: f64,
    /// Reference seconds it took.
    pub secs: f64,
}

/// Records the host end-to-end metrics: set-up time, items and modeled
/// cycles per host second, and peak memory. Each is the median of its
/// samples in reference seconds (`setups` and each chunk's `secs`), so a
/// burst of contention moves a few samples and a slow stretch moves none;
/// spreads are those of these samples.
///
/// # Errors
///
/// When peak memory cannot be read.
pub fn host_e2e(m: &mut Metrics, setups: &[f64], chunks: &[Chunk]) -> Result<(), String> {
    let (setup, setup_spread) = median_spread(setups);
    m.e2e("setup_s", setup, setup_spread);
    let per = |f: fn(&Chunk) -> f64| -> Vec<f64> { chunks.iter().map(|c| f(c) / c.secs).collect() };
    for (name, rates) in [
        ("host_items_per_s", per(|c| c.items)),
        ("sim_cycles_per_host_s", per(|c| c.cycles)),
    ] {
        let (rate, rate_spread) = median_spread(&rates);
        m.e2e(name, rate, rate_spread);
    }
    m.e2e("peak_rss_mb", peak_rss_mb()?, 0.0);
    Ok(())
}

/// The modeled end-to-end metrics of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Modeled {
    /// Modeled cycles per item.
    pub cycles_per_item: f64,
    /// Modeled energy per item, nJ.
    pub nj_per_item: f64,
    /// Median modeled latency of an item, cycles.
    pub latency_p50: f64,
    /// 99th-percentile modeled latency of an item, cycles.
    pub latency_p99: f64,
    /// Items that met their deadline (and checks) ÷ items attempted.
    pub slo_attainment: f64,
}

/// Records the modeled end-to-end metrics.
pub fn modeled_e2e(m: &mut Metrics, v: &Modeled) {
    m.e2e("modeled_cycles_per_item", v.cycles_per_item, 0.0);
    m.e2e("modeled_nj_per_item", v.nj_per_item, 0.0);
    m.e2e("modeled_latency_p50_cycles", v.latency_p50, 0.0);
    m.e2e("modeled_latency_p99_cycles", v.latency_p99, 0.0);
    m.e2e("slo_attainment", v.slo_attainment, 0.0);
}

/// Whether a prepared network live-decodes at least one layer (LRN and
/// LCN layers are not schedule-replayed).
pub fn live_decodes(prepared: &PreparedNetwork) -> bool {
    let schedule = prepared.schedule();
    schedule.replayable_layers() < schedule.layer_count()
}

/// Modeled statistics averaged over the inferences a workload runs, split
/// by layer kind: the modeled per-layer metrics.
#[derive(Clone, Debug, Default)]
pub struct Mix {
    weight: f64,
    cycles: [f64; 5],
    bytes: [[f64; 4]; 5],
    busy: [f64; 5],
    slots: [f64; 5],
    energy: [f64; 5],
}

impl Mix {
    /// Adds one inference of `net`, counted `weight` times.
    pub fn add(&mut self, net: &Network, stats: &RunStats, energy: &EnergyReport, weight: f64) {
        self.weight += weight;
        for (i, layer) in stats.layers().iter().enumerate() {
            // Stats list the Load phase first, then one entry per layer.
            let k = match i.checked_sub(1).map(|l| net.layers()[l].kind()) {
                None => 0,
                Some(LayerKind::Conv) => 1,
                Some(LayerKind::Pool) => 2,
                Some(LayerKind::Fc) => 3,
                Some(LayerKind::Lrn | LayerKind::Lcn) => 4,
            };
            self.cycles[k] += weight * layer.cycles as f64;
            let traffic = [&layer.nbin, &layer.nbout, &layer.sb, &layer.ib];
            for (b, t) in traffic.into_iter().enumerate() {
                self.bytes[k][b] += weight * t.total_bytes() as f64;
            }
            self.busy[k] += weight * layer.pe_busy_slots as f64;
            self.slots[k] += weight * layer.pe_total_slots as f64;
        }
        let e = [
            energy.nfu_nj,
            energy.nbin_nj,
            energy.nbout_nj,
            energy.sb_nj,
            energy.ib_nj,
        ];
        for (acc, v) in self.energy.iter_mut().zip(e) {
            *acc += weight * v;
        }
    }

    /// Records the per-inference averages as per-layer metrics.
    pub fn emit(&self, m: &mut Metrics) {
        let w = self.weight.max(f64::MIN_POSITIVE);
        for (k, kind) in KINDS.iter().enumerate() {
            m.layer(&format!("core.{kind}.cycles"), self.cycles[k] / w);
            for (b, buf) in BUFFERS.iter().enumerate() {
                m.layer(&format!("core.{kind}.{buf}_bytes"), self.bytes[k][b] / w);
            }
            if k > 0 {
                let util = if self.slots[k] > 0.0 {
                    self.busy[k] / self.slots[k]
                } else {
                    0.0
                };
                m.layer(&format!("core.{kind}.pe_util"), util);
            }
        }
        for (comp, e) in crate::metrics::ENERGY.iter().zip(self.energy) {
            m.layer(&format!("core.energy_nj.{comp}"), e / w);
        }
    }
}

/// Host time of one item's layers, for [`host_layers`].
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Mean untraced seconds per item.
    pub item_s: f64,
    /// Mean traced seconds per item.
    pub traced_item_s: f64,
    /// Sensor seconds per item (frame synthesis, tiling, differencing,
    /// request input building).
    pub sensor_s: f64,
    /// Core seconds per item (`Session` inference calls).
    pub core_s: f64,
    /// Sensor microseconds per region produced.
    pub sensor_us_per_region: f64,
    /// Microseconds of each timed `Session` inference call.
    pub infer_us: Vec<f64>,
    /// Median milliseconds of `Accelerator::prepare` per set-up.
    pub prepare_ms: f64,
    /// Share of core time in networks that live-decode a layer.
    pub live_decode_share: f64,
}

/// Records the host per-layer metrics. Shares are of the mean untraced
/// item time; what sensor and core do not cover is
/// `pipeline.unattributed_share`.
pub fn host_layers(m: &mut Metrics, t: &LayerTimes) {
    let sensor = t.sensor_s / t.item_s;
    let core = t.core_s / t.item_s;
    m.layer("sensor.us_per_region", t.sensor_us_per_region);
    m.layer("sensor.share", sensor);
    m.layer("core.infer_us_p50", percentile(&t.infer_us, 50.0));
    m.layer("core.infer_us_p99", percentile(&t.infer_us, 99.0));
    m.layer("core.share", core);
    m.layer("core.prepare_ms", t.prepare_ms);
    m.layer("core.live_decode_share", t.live_decode_share);
    m.layer("pipeline.unattributed_share", 1.0 - sensor - core);
    m.layer("trace.overhead", t.item_s / t.traced_item_s);
}

/// The gating metrics of a workload without motion gating: nothing is
/// skipped, every row streams, nothing is compared, nothing is saved.
pub fn no_gating(m: &mut Metrics) {
    m.layer("video.skip_ratio", 0.0);
    m.layer("video.rows_streamed_ratio", 1.0);
    m.layer("video.compare_cycles_share", 0.0);
    m.layer("video.cycle_saving", 1.0);
}

/// The serving and fault metrics of a workload without a service: no
/// queue, no faults.
pub fn no_serving(m: &mut Metrics) {
    for name in [
        "serve.reject_ratio",
        "serve.drop_ratio",
        "serve.degrade_ratio",
        "serve.batched_ratio",
        "serve.retries_per_request",
        "serve.queue_depth_mean",
        "faults.detected",
        "faults.corrected",
        "faults.silent",
    ] {
        m.layer(name, 0.0);
    }
}

/// Where results and traces are written: `results/` beside this
/// package's manifest.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Writes `results/<workload>.trace.json`.
///
/// # Errors
///
/// When the file cannot be written.
pub fn write_trace(w: Workload, tracer: &Tracer) -> Result<PathBuf, String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(err)?;
    let path = dir.join(format!("{}.trace.json", w.name()));
    std::fs::write(&path, tracer.chrome_json()).map_err(err)?;
    Ok(path)
}

/// The path of a run's results file: `<workload>.json` untraced,
/// `<workload>.layers.json` traced.
pub fn results_path(w: Workload, trace: bool) -> PathBuf {
    let suffix = if trace { "layers.json" } else { "json" };
    results_dir().join(format!("{}.{suffix}", w.name()))
}

/// A run's results document.
pub fn results_json(w: Workload, o: &Opts, out: &Outcome) -> String {
    let errors: Vec<String> = out.errors.iter().map(|e| quote(e)).collect();
    format!(
        "{{\n  \"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \
         \"threads\": {},\n  \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}],\n  \
         \"metrics\": {}\n}}\n",
        quote(w.name()),
        o.trace,
        o.seed,
        o.seconds,
        o.smoke,
        o.threads,
        out.correct(),
        out.attempted,
        out.failed,
        errors.join(", "),
        out.metrics.results_json()
    )
}
