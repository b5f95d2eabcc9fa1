//! The experiment implementations, one per paper artifact.
//!
//! Every per-network and per-configuration loop fans out over a parallel
//! iterator (an order-preserving indexed map), so regenerating the full
//! evaluation scales with the host's cores while emitting rows in exactly
//! the serial order — same [`SEED`], same row sequence, bit-identical
//! artifacts whether `RAYON_NUM_THREADS` is 1 or 64. The experiments that
//! re-run the same topology on the paper configuration (Fig. 18, Fig. 19,
//! Table 4, §10.2) share one set of prepared, executed networks via
//! [`paper_runs`].

use rayon::prelude::*;
use shidiannao_baseline::{CpuModel, DianNao, DianNaoConfig, DramModel, GpuModel};
use shidiannao_cnn::{storage, zoo, Network, NetworkBuilder};
use shidiannao_core::{Accelerator, AcceleratorConfig, PreparedNetwork, RunError, RunOutcome};
use shidiannao_sensor::{frames_per_second, RegionGrid, RowBuffer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Seed used for every experiment's weights and inputs (results are
/// deterministic end to end).
pub const SEED: u64 = 2015;

fn build(b: NetworkBuilder) -> Network {
    b.build(SEED).expect("benchmark topologies are valid")
}

fn run_shidiannao(net: &Network, cfg: AcceleratorConfig) -> RunOutcome {
    let accel = Accelerator::new(cfg);
    accel
        .run(net, &net.random_input(SEED ^ 0xABCD))
        .expect("benchmarks fit the paper configuration")
}

/// One zoo benchmark prepared and executed once on the paper
/// configuration — the shared input to Figs. 18–19, Table 4, and §10.2.
#[derive(Clone, Debug)]
pub struct PaperRun {
    /// The built network.
    pub net: Network,
    /// Its simulator execution at [`AcceleratorConfig::paper`] with the
    /// standard `SEED ^ 0xABCD` input.
    pub run: RunOutcome,
}

/// Executes every zoo benchmark on the paper configuration, in parallel,
/// in `zoo::all()` order. This is the cache-free worker behind
/// [`paper_runs`]; the perf harness calls it directly to time real
/// executions.
pub fn compute_paper_runs() -> Vec<PaperRun> {
    zoo::all()
        .into_par_iter()
        .map(|b| {
            let net = build(b);
            let prepared = Accelerator::new(AcceleratorConfig::paper())
                .prepare(&net)
                .expect("benchmarks fit the paper configuration");
            let run = prepared
                .session()
                .run(&net.random_input(SEED ^ 0xABCD))
                .expect("prepared networks accept their own input shape");
            PaperRun { net, run }
        })
        .collect()
}

/// The shared paper-configuration runs, computed once per process (in
/// parallel) and reused by every experiment that needs them.
pub fn paper_runs() -> &'static [PaperRun] {
    static CACHE: OnceLock<Vec<PaperRun>> = OnceLock::new();
    CACHE.get_or_init(compute_paper_runs)
}

// --------------------------------------------------- prepared-network cache

/// Entry cap for the shared prepared-network cache. A full autotuner run
/// evaluates hundreds of (network, configuration) pairs; keeping every
/// prepared program and synapse store resident would dominate memory, so
/// past the cap lookups still prepare (and return) fresh networks but no
/// longer insert.
const PREPARED_CACHE_CAP: usize = 64;

static PREPARED_HITS: AtomicU64 = AtomicU64::new(0);
static PREPARED_MISSES: AtomicU64 = AtomicU64::new(0);

type PreparedKey = (String, String);

fn prepared_cache() -> &'static Mutex<HashMap<PreparedKey, Arc<PreparedNetwork>>> {
    static CACHE: OnceLock<Mutex<HashMap<PreparedKey, Arc<PreparedNetwork>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Prepares `net` for `cfg`, reusing the process-wide keyed cache shared
/// by [`design_space_sweep`] and the autotuner (`crate::tune`).
///
/// The key is `(network name, configuration debug string)`, so distinct
/// capacities, grids, or protection levels never collide while repeated
/// evaluations of the same point — the common case when the sweep, the
/// tuner, and the perf harness run in one process — skip compilation,
/// recording, and schedule optimization entirely. Results are identical
/// whether an entry hits or misses, so cached runs stay bit-identical
/// across thread counts and call orders.
pub fn prepared_cached(
    net: &Network,
    cfg: &AcceleratorConfig,
) -> Result<Arc<PreparedNetwork>, RunError> {
    let key = (net.name().to_string(), format!("{cfg:?}"));
    if let Some(hit) = prepared_cache().lock().expect("cache lock").get(&key) {
        PREPARED_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(hit));
    }
    PREPARED_MISSES.fetch_add(1, Ordering::Relaxed);
    let prepared = Arc::new(Accelerator::new(cfg.clone()).prepare(net)?);
    let mut cache = prepared_cache().lock().expect("cache lock");
    if cache.len() < PREPARED_CACHE_CAP {
        cache.insert(key, Arc::clone(&prepared));
    }
    Ok(prepared)
}

/// `(hits, misses)` of [`prepared_cached`] since process start — the
/// harness prints the hit rate after sweeps and tuner runs.
pub fn prepared_cache_stats() -> (u64, u64) {
    (
        PREPARED_HITS.load(Ordering::Relaxed),
        PREPARED_MISSES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------- Table 1

/// One row of Table 1: per-CNN storage requirements.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Largest layer size in KB.
    pub largest_layer_kb: f64,
    /// Synapse storage in KB.
    pub synapses_kb: f64,
    /// Total storage in KB.
    pub total_kb: f64,
}

/// Regenerates Table 1 from the benchmark topologies.
pub fn table1_storage() -> Vec<Table1Row> {
    zoo::all()
        .into_par_iter()
        .map(|b| {
            let r = storage::report(&build(b));
            Table1Row {
                name: r.name().to_string(),
                largest_layer_kb: r.largest_layer_kb(),
                synapses_kb: r.synapse_kb(),
                total_kb: r.total_kb(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 7

/// One point of Fig. 7: internal bandwidth at a PE count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig7Row {
    /// Number of PEs (square mesh).
    pub pes: usize,
    /// GB/s from NBin+SB to the NFU with inter-PE propagation.
    pub with_propagation_gbps: f64,
    /// GB/s without inter-PE propagation.
    pub without_propagation_gbps: f64,
}

impl Fig7Row {
    /// Fraction of NBin+SB traffic eliminated by propagation. Returns
    /// `0.0` (no reduction) rather than NaN when the baseline bandwidth
    /// is zero.
    pub fn reduction(&self) -> f64 {
        if self.without_propagation_gbps == 0.0 {
            return 0.0;
        }
        1.0 - self.with_propagation_gbps / self.without_propagation_gbps
    }
}

/// Regenerates Fig. 7: the representative LeNet-5 convolutional layer
/// (32 × 32 input, 5 × 5 kernel) on square PE meshes of 1–64 PEs.
pub fn fig7_bandwidth() -> Vec<Fig7Row> {
    let net = build(
        NetworkBuilder::new("fig7", 1, (32, 32)).conv(shidiannao_cnn::ConvSpec::new(1, (5, 5))),
    );
    let net = &net;
    (1..=8)
        .into_par_iter()
        .map(|side| {
            let gbps = |cfg: AcceleratorConfig| {
                let freq = cfg.frequency_ghz;
                let run = run_shidiannao(net, cfg);
                let conv = &run.stats().layers()[1];
                conv.internal_bytes_per_cycle() * freq
            };
            Fig7Row {
                pes: side * side,
                with_propagation_gbps: gbps(AcceleratorConfig::with_pe_grid(side, side)),
                without_propagation_gbps: gbps(
                    AcceleratorConfig::with_pe_grid(side, side).without_propagation(),
                ),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 18

/// One group of Fig. 18 bars: per-benchmark execution times.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig18Row {
    /// Benchmark name.
    pub name: String,
    /// CPU baseline seconds.
    pub cpu_s: f64,
    /// GPU baseline seconds.
    pub gpu_s: f64,
    /// DianNao baseline seconds.
    pub diannao_s: f64,
    /// ShiDianNao seconds.
    pub shidiannao_s: f64,
}

impl Fig18Row {
    /// GPU speedup over the CPU.
    pub fn gpu_speedup(&self) -> f64 {
        self.cpu_s / self.gpu_s
    }

    /// DianNao speedup over the CPU.
    pub fn diannao_speedup(&self) -> f64 {
        self.cpu_s / self.diannao_s
    }

    /// ShiDianNao speedup over the CPU.
    pub fn shidiannao_speedup(&self) -> f64 {
        self.cpu_s / self.shidiannao_s
    }
}

/// Regenerates Fig. 18: per-benchmark speedups of GPU, DianNao, and
/// ShiDianNao over the CPU. The simulator runs come from the shared
/// [`paper_runs`] cache; only the analytical baselines are evaluated
/// here (in parallel, per benchmark).
pub fn fig18_speedups() -> Vec<Fig18Row> {
    let cpu = CpuModel::xeon_e7_8830();
    let gpu = GpuModel::k20m();
    let diannao = DianNao::new(DianNaoConfig::paper());
    paper_runs()
        .par_iter()
        .map(|p| Fig18Row {
            name: p.net.name().to_string(),
            cpu_s: cpu.run_seconds(&p.net),
            gpu_s: gpu.run(&p.net).seconds(),
            diannao_s: diannao.run(&p.net).seconds(),
            shidiannao_s: p.run.seconds(),
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 19

/// One group of Fig. 19 bars: per-benchmark energies in nJ.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig19Row {
    /// Benchmark name.
    pub name: String,
    /// GPU energy.
    pub gpu_nj: f64,
    /// DianNao energy (with DRAM).
    pub diannao_nj: f64,
    /// DianNao with free main memory.
    pub diannao_freemem_nj: f64,
    /// ShiDianNao energy, conservatively including the DRAM fetch of the
    /// input image (the Fig. 19 accounting).
    pub shidiannao_nj: f64,
    /// ShiDianNao with frames streamed straight into NBin (the §10.3
    /// "integrated in an embedded vision sensor" variant).
    pub shidiannao_sensor_nj: f64,
}

/// Regenerates Fig. 19: per-benchmark energy of GPU, DianNao,
/// DianNao-FreeMem, and ShiDianNao. Simulator energies come from the
/// shared [`paper_runs`] cache.
pub fn fig19_energy() -> Vec<Fig19Row> {
    let gpu = GpuModel::k20m();
    let diannao = DianNao::new(DianNaoConfig::paper());
    let dram = DramModel::vision_sensor();
    paper_runs()
        .par_iter()
        .map(|p| {
            let net = &p.net;
            let d = diannao.run(net);
            let input_bytes =
                (net.input_maps() * net.input_dims().0 * net.input_dims().1 * 2) as u64;
            let own = p.run.energy().total_nj();
            Fig19Row {
                name: net.name().to_string(),
                gpu_nj: gpu.run(net).energy_nj(),
                diannao_nj: d.energy_nj(),
                diannao_freemem_nj: d.energy_free_mem_nj(),
                shidiannao_nj: own + dram.transfer_energy_nj(input_bytes),
                shidiannao_sensor_nj: own,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Table 4

/// Table 4 regenerated: layout characteristics plus power/energy averaged
/// over the ten benchmarks.
#[derive(Clone, Debug, PartialEq)]
pub struct Table4Report {
    /// Component areas (NFU, NBin, NBout, SB, IB) in mm².
    pub area_mm2: [f64; 5],
    /// Average power per component in mW at 1 GHz.
    pub power_mw: [f64; 5],
    /// Average per-inference energy per component in nJ.
    pub energy_nj: [f64; 5],
}

impl Table4Report {
    /// Total area.
    pub fn total_area_mm2(&self) -> f64 {
        self.area_mm2.iter().sum()
    }

    /// Total average power.
    pub fn total_power_mw(&self) -> f64 {
        self.power_mw.iter().sum()
    }

    /// Total average energy.
    pub fn total_energy_nj(&self) -> f64 {
        self.energy_nj.iter().sum()
    }

    /// Component energy shares (fractions of the total).
    pub fn energy_shares(&self) -> [f64; 5] {
        let t = self.total_energy_nj();
        let mut s = self.energy_nj;
        for v in &mut s {
            *v /= t;
        }
        s
    }
}

/// Regenerates Table 4 from the shared [`paper_runs`] cache by averaging
/// over all ten benchmarks.
pub fn table4_characteristics() -> Table4Report {
    let cfg = AcceleratorConfig::paper();
    let area = shidiannao_core::area::area_of(&cfg);
    let mut energy = [0.0f64; 5];
    let mut power = [0.0f64; 5];
    let runs = paper_runs();
    let n = runs.len() as f64;
    for p in runs {
        let e = p.run.energy();
        let comps = [e.nfu_nj, e.nbin_nj, e.nbout_nj, e.sb_nj, e.ib_nj];
        let seconds = p.run.seconds();
        for (i, c) in comps.iter().enumerate() {
            energy[i] += c / n;
            power[i] += (c * 1e-9 / seconds * 1e3) / n;
        }
    }
    Table4Report {
        area_mm2: [
            area.nfu_mm2,
            area.nbin_mm2,
            area.nbout_mm2,
            area.sb_mm2,
            area.ib_mm2,
        ],
        power_mw: power,
        energy_nj: energy,
    }
}

// ----------------------------------------------------- design-space sweep

/// One design point of the PE-array sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignPoint {
    /// Mesh side (square array).
    pub side: usize,
    /// Geomean cycles across the ten benchmarks.
    pub geomean_cycles: f64,
    /// Geomean PE utilization.
    pub geomean_utilization: f64,
    /// Total accelerator area at 65 nm.
    pub area_mm2: f64,
    /// Geomean per-inference energy.
    pub geomean_energy_nj: f64,
}

impl DesignPoint {
    /// The energy-delay-area product — the figure of merit the sweep
    /// minimizes.
    pub fn edap(&self) -> f64 {
        self.geomean_energy_nj * self.geomean_cycles * self.area_mm2
    }
}

/// Sweeps square PE arrays across all ten benchmarks — the design-space
/// study behind the paper's 8×8 choice (§10.2 discusses the utilization
/// side of this trade-off).
///
/// The full `sides × benchmarks` product is flattened into one indexed
/// parallel iterator so every (configuration, network) pair runs
/// concurrently; results are regrouped per side in order afterwards.
pub fn design_space_sweep(sides: &[usize]) -> Vec<DesignPoint> {
    // Networks are side-independent: build each once, share across sides.
    let nets: Vec<Network> = zoo::all().into_par_iter().map(build).collect();
    let nets = &nets;
    let pairs: Vec<(usize, usize)> = sides
        .iter()
        .flat_map(|&side| (0..nets.len()).map(move |n| (side, n)))
        .collect();
    let per_pair: Vec<(f64, f64, f64)> = pairs
        .into_par_iter()
        .map(|(side, n)| {
            let cfg = AcceleratorConfig::with_pe_grid(side, side);
            let prepared =
                prepared_cached(&nets[n], &cfg).expect("benchmarks fit swept configurations");
            let run = prepared
                .session()
                .run(&nets[n].random_input(SEED ^ 0xABCD))
                .expect("prepared networks accept their own input shape");
            (
                run.stats().cycles() as f64,
                run.stats().total().pe_utilization().max(1e-9),
                run.energy().total_nj(),
            )
        })
        .collect();
    sides
        .iter()
        .zip(per_pair.chunks(nets.len()))
        .map(|(&side, chunk)| {
            let cfg = AcceleratorConfig::with_pe_grid(side, side);
            let cycles: Vec<f64> = chunk.iter().map(|r| r.0).collect();
            let utils: Vec<f64> = chunk.iter().map(|r| r.1).collect();
            let energies: Vec<f64> = chunk.iter().map(|r| r.2).collect();
            DesignPoint {
                side,
                geomean_cycles: crate::geomean(&cycles),
                geomean_utilization: crate::geomean(&utils),
                area_mm2: shidiannao_core::area::area_of(&cfg).total_mm2(),
                geomean_energy_nj: crate::geomean(&energies),
            }
        })
        .collect()
}

// ------------------------------------------------------------ §8.1 reuse

/// The §8.1 inter-PE reuse measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReuseReport {
    /// NBin read reduction for the 2×2-PE / 3×3-kernel toy example
    /// (paper: 44.4 %).
    pub toy_reduction: f64,
    /// NBin read reduction for LeNet-5 C1 on 64 PEs (paper: 73.88 %; see
    /// EXPERIMENTS.md for the discrepancy discussion).
    pub lenet_c1_reduction: f64,
}

/// Measures the §8.1 read-reduction claims. All four with/without
/// propagation runs execute concurrently.
pub fn reuse_report() -> ReuseReport {
    let toy =
        build(NetworkBuilder::new("toy", 1, (4, 4)).conv(shidiannao_cnn::ConvSpec::new(1, (3, 3))));
    let lenet = build(zoo::lenet5());
    let toy_cfg = AcceleratorConfig::with_pe_grid(2, 2);
    let cases: Vec<(&Network, AcceleratorConfig)> = vec![
        (&toy, toy_cfg.clone()),
        (&toy, toy_cfg.without_propagation()),
        (&lenet, AcceleratorConfig::paper()),
        (&lenet, AcceleratorConfig::paper().without_propagation()),
    ];
    let reads: Vec<f64> = cases
        .into_par_iter()
        .map(|(net, cfg)| run_shidiannao(net, cfg).stats().layers()[1].nbin.read_bytes as f64)
        .collect();
    ReuseReport {
        toy_reduction: 1.0 - reads[0] / reads[1],
        lenet_c1_reduction: 1.0 - reads[2] / reads[3],
    }
}

// --------------------------------------------------------- §10.2 framerate

/// The §10.2 real-time streaming analysis for ConvNN on a VGA sensor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FramerateReport {
    /// Overlapping 64 × 36 regions per 640 × 480 frame (paper: 1 073).
    pub regions_per_frame: usize,
    /// Milliseconds to process one region (paper: 0.047 ms).
    pub ms_per_region: f64,
    /// Milliseconds per frame (paper: "a little more than 50 ms").
    pub ms_per_frame: f64,
    /// Sustained frames per second (paper: 20 fps).
    pub fps: f64,
    /// Partial-frame row-buffer footprint in KB (paper: fits 256 KB).
    pub row_buffer_kb: f64,
}

/// Regenerates the §10.2 frame-rate analysis from the shared
/// [`paper_runs`] cache (ConvNN is one of the ten zoo benchmarks).
pub fn framerate_report() -> FramerateReport {
    let grid = RegionGrid::paper_convnn();
    let per_region = paper_runs()
        .iter()
        .find(|p| p.net.name() == "ConvNN")
        .expect("ConvNN is in the zoo")
        .run
        .seconds();
    let regions = grid.count();
    FramerateReport {
        regions_per_frame: regions,
        ms_per_region: per_region * 1e3,
        ms_per_frame: per_region * regions as f64 * 1e3,
        fps: frames_per_second(regions, per_region),
        row_buffer_kb: RowBuffer::for_grid(&grid, 2).bytes() as f64 / 1024.0,
    }
}
