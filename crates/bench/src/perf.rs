//! The harness's own certificate: serial-vs-parallel determinism of the
//! experiments and, per benchmark, the execution-path and allocation
//! certificates of prepared-session inference.
//!
//! This module backs the `harness bench` subcommand, which writes the
//! machine-readable `BENCH_harness.json` through
//! [`emit_deterministic`]: the report is evaluated three times (once
//! pinned to one rayon worker) and the three documents must be
//! byte-identical. The document therefore carries no host time; host
//! speed is the repository benchmark's job (`benchmark/`, with noise
//! control and `compare`). Two families of rows:
//!
//! * **Experiment fingerprints** — every parallel-sensitive experiment
//!   is hashed (64-bit FNV-1a of its result's `Debug` text). The pinned and ambient evaluations are byte-compared, so a
//!   fingerprint that moved with the worker count fails the gate: that
//!   is the certificate that parallel execution is bit-identical to
//!   serial.
//! * **Throughput rows** — per benchmark, one `prepare` followed by a
//!   warmed-up burst of `Session::infer_ref` calls through
//!   zero-allocation schedule replay (the default path; with replay off
//!   every layer live-decodes). Each row carries a *correctness
//!   certificate* over the three [`CERTIFIED_PATHS`]: the heap
//!   allocations counted during the burst (must be zero in steady state)
//!   and whether schedule replay reproduced the golden reference
//!   (`Network::forward_fixed`). A session has one inference loop and
//!   one way to deliver its result (`Session::infer_ref`; `run` adds the
//!   per-layer trace, `infer` copies the result out), so the replayed
//!   traced `run` and `infer_ref` must both equal the golden output and
//!   each other's statistics and energy.
//!
//! * **Instrumented-path rows** — per benchmark, the *traced* session
//!   run (`Session::run`, the path fault campaigns and debugging use)
//!   with replay disabled (`set_schedule_replay`, i.e. live HFSM decode)
//!   must agree bit-for-bit with the replayed run on outputs, per-layer
//!   traces, statistics, and energy (the live-decode path), and a
//!   session replaying under a *silent* fault plan must stay
//!   allocation-free in steady state. The two paths are also timed side
//!   by side; the ratio ([`ThroughputRow::instr_speedup`]) feeds
//!   [`INSTR_SPEEDUP_GATE`] and the stdout summary, never the artifact.
//!
//! * **Optimizer columns** — per benchmark, the per-pass elimination
//!   counters the schedule optimizer's cost model
//!   ([`shidiannao_core::opt::optimize`]: NB dedup, read-mode
//!   re-selection, SB coalescing, FIFO-fold) prices over the prepared
//!   network's recording into a [`shidiannao_core::OptReport`], and the
//!   modeled cycles they leave (`opt_cycles_per_inference`, the recorded
//!   cycles minus the folded ones). Sessions always replay the recording, so there is no
//!   optimized path to certify.
//!
//! * **Delta-load rows** — per benchmark, a separate certificate for
//!   cross-frame NBin residency (`Session::stage_delta`, here through
//!   `Session::infer_delta`): a cold call must stream every input row
//!   and reproduce the golden output bit-for-bit, and an immediately
//!   repeated call on the same input must stream zero rows, report a
//!   zero-cycle Load phase, and still reproduce it — the dirty set is
//!   derived from content hashes, so bit-identity holds by construction
//!   and only the Load accounting may shrink.
//!
//! A batch of N inputs is N runs through these same paths (serve
//! batching is virtual-clock accounting), so it has no row of its own.
//!
//! The gate (`Artifact::gate_errors`, the same in full and smoke mode):
//! seed-frozen `sim_cycles_per_inference` for all ten networks
//! (trace-free and instrumented paths alike — any scheduled-path cycle
//! drift fails CI), the optimizer's never-increase and strict-reduction
//! counts, zero steady-state allocations (clean and silently faulted
//! replay), bit-identity of every certified path, and the headline
//! speedup (schedule replay must run the instrumented path at least
//! [`INSTR_SPEEDUP_GATE`]× faster than live decode on LeNet-5 and on at
//! least [`INSTR_SPEEDUP_NETS`] of the ten benchmarks).

use crate::artifact::{emit_deterministic, Artifact, Gated};
use crate::experiments::{self, compute_paper_runs, SEED};
use crate::json::Json;
use shidiannao_cnn::zoo;
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, NbResidency, SramProtection,
};
use std::convert::Infallible;
use std::time::Instant;

/// Sides used for the design-space sweep experiment (a subset of the
/// full render to keep the bench subcommand short).
const SWEEP_SIDES: [usize; 4] = [2, 4, 6, 8];

/// Inferences per benchmark in the full throughput burst.
const BURST: usize = 10;

/// Ceiling on warm-up inferences before the counted burst. Warm-up is
/// adaptive — it stops once [`WARMUP_QUIET`] consecutive inferences
/// perform zero heap allocations (steady state: every reusable buffer
/// and the map recycling pool at their high-water marks). The cap only
/// bounds a regression where a topology never converges.
const WARMUP_CAP: usize = 512;

/// Consecutive zero-allocation inferences required to declare steady
/// state. A single quiet inference is not enough: the recycling pool's
/// map-to-shape assignment can wander for a few runs after its first
/// quiet one while capacities finish growing to their high-water marks.
const WARMUP_QUIET: usize = 8;

/// Inferences per benchmark in `--smoke` mode (CI-sized).
const SMOKE_BURST: usize = 3;

/// The execution paths every throughput row certifies bit-identical:
/// schedule replay (`paths_bit_identical`), live HFSM decode with replay
/// off (`instr_paths_bit_identical`), and the golden fixed-point
/// reference both are held to. The delta load is certified in its own
/// row fields.
pub const CERTIFIED_PATHS: [&str; 3] = ["schedule replay", "live decode", "golden reference"];

/// Minimum instrumented-path speedup (schedule replay over live HFSM
/// decode, measured side by side in the same process) the gate requires
/// on LeNet-5 and on [`INSTR_SPEEDUP_NETS`] benchmarks.
pub const INSTR_SPEEDUP_GATE: f64 = 2.0;

/// How many of the ten frozen benchmarks must clear
/// [`INSTR_SPEEDUP_GATE`].
pub const INSTR_SPEEDUP_NETS: usize = 5;

/// Per-word flip rate of the silent fault plan used by the replay
/// allocation gate (NB and SB sites only, no protection — every flip is
/// silently patched through the schedule overlay, never aborting).
const SILENT_FAULT_RATE: f64 = 1e-4;

/// How many of the ten frozen benchmarks the optimizer's cost model must
/// price at *strictly* fewer modeled cycles than the seed-frozen
/// recording (no benchmark may ever report more).
pub const OPT_CYCLES_REDUCED_NETS: usize = 5;

/// Simulated cycles per inference frozen at the repository seed; the
/// SoA datapath must never change a cycle count (`harness bench` fails
/// CI otherwise).
pub const SEED_CYCLES_PER_INFERENCE: &[(&str, u64)] = &[
    ("CNP", 31232),
    ("MPCNN", 53231),
    ("FaceRecog", 8357),
    ("LeNet-5", 10017),
    ("SimpleConv", 8353),
    ("CFF", 3351),
    ("NEO", 2390),
    ("ConvNN", 17301),
    ("Gabor", 905),
    ("FaceAlign", 8812),
];

/// One experiment's result, fingerprinted.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentFingerprint {
    /// Experiment name (the harness subcommand vocabulary).
    pub name: String,
    /// 64-bit FNV-1a of the experiment result's `Debug` text.
    pub fingerprint: u64,
}

/// One benchmark's prepared-session certificates.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Benchmark name.
    pub name: String,
    /// Inferences in the burst.
    pub inferences: usize,
    /// Simulated accelerator cycles per inference.
    pub sim_cycles_per_inference: u64,
    /// Heap allocations counted during the (post-warm-up) burst. The
    /// zero-allocation datapath claim requires this to be exactly 0.
    pub steady_state_allocs: u64,
    /// Whether the replayed traced `Session::run` and `Session::infer_ref`
    /// both reproduced the golden reference's output bit-for-bit and
    /// agreed with each other on statistics and energy.
    pub paths_bit_identical: bool,
    /// Traced `Session::run` inferences in each instrumented burst.
    pub instr_inferences: usize,
    /// Wall-clock seconds for the instrumented burst with schedule
    /// replay on (the default). Gated and printed, never written.
    pub instr_replay_wall_s: f64,
    /// Wall-clock seconds for the same burst with replay disabled (live
    /// HFSM decode). Gated and printed, never written.
    pub instr_live_wall_s: f64,
    /// Simulated cycles per inference reported by the replayed
    /// instrumented run; must equal the seed-frozen count (scheduled-path
    /// drift fails the gate).
    pub instr_cycles_per_inference: u64,
    /// Whether the replayed and live-decoded instrumented runs agreed
    /// bit-for-bit on outputs, per-layer traces, statistics, and energy
    /// (the live-decode certified path).
    pub instr_paths_bit_identical: bool,
    /// Heap allocations counted during a warmed `infer_ref` burst under
    /// a silent fault plan — schedule replay resolving the fault overlay
    /// must stay allocation-free too.
    pub fault_replay_allocs: u64,
    /// Modeled cycles per inference the optimizer's cost model prices
    /// (`sim_cycles_per_inference − opt_cycles_saved`); must never exceed
    /// the seed-frozen count, and must be strictly below it on
    /// [`OPT_CYCLES_REDUCED_NETS`] benchmarks.
    pub opt_cycles_per_inference: u64,
    /// Redundant NB word deliveries eliminated by the `nb_dedup` pass.
    pub opt_nb_reads_eliminated: u64,
    /// NB read requests removed by the `mode_select` re-cover.
    pub opt_modes_reselected: u64,
    /// SB bytes removed by the `sb_coalesce` dedup.
    pub opt_sb_bytes_coalesced: u64,
    /// SB read requests removed by `sb_coalesce` dedup + burst merging.
    pub opt_sb_accesses_coalesced: u64,
    /// Modeled cycles folded out by the `fifo_fold` pass.
    pub opt_cycles_saved: u64,
    /// Input rows a cold delta-load streamed (must equal the total).
    pub delta_rows_total: u64,
    /// Input rows the warm repeat of the same input streamed (must be 0).
    pub delta_warm_rows: u64,
    /// Load-phase cycles reported by the warm repeat (must be 0).
    pub delta_warm_load_cycles: u64,
    /// Whether the cold and warm delta-load runs reproduced the golden
    /// output bit-for-bit, and the cold run streamed every row.
    pub delta_bit_identical: bool,
}

impl ThroughputRow {
    /// Heap allocations per simulated cycle over the burst (0.0 in the
    /// steady state the tentpole demands).
    pub fn allocs_per_cycle(&self) -> f64 {
        let cycles = self.sim_cycles_per_inference * self.inferences as u64;
        if cycles == 0 {
            return f64::NAN;
        }
        self.steady_state_allocs as f64 / cycles as f64
    }

    /// Live / replay wall-clock ratio of the instrumented path, measured
    /// side by side in the same process (machine-independent, the
    /// gate's speedup evidence).
    pub fn instr_speedup(&self) -> f64 {
        if self.instr_inferences == 0 || self.instr_replay_wall_s == 0.0 {
            return 0.0;
        }
        self.instr_live_wall_s / self.instr_replay_wall_s
    }
}

/// The complete harness certificate.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Per-experiment result fingerprints (empty in smoke mode).
    pub experiments: Vec<ExperimentFingerprint>,
    /// Per-benchmark session certificates.
    pub throughput: Vec<ThroughputRow>,
}

impl PerfReport {
    /// The optimizer's elimination counters summed over every benchmark
    /// — the aggregate the `harness bench` summary line prints.
    pub fn optimizer_totals(&self) -> (u64, u64, u64, u64) {
        self.throughput.iter().fold((0, 0, 0, 0), |acc, t| {
            (
                acc.0 + t.opt_nb_reads_eliminated,
                acc.1 + t.opt_modes_reselected,
                acc.2 + t.opt_sb_bytes_coalesced,
                acc.3 + t.opt_cycles_saved,
            )
        })
    }
}

impl Artifact for PerfReport {
    /// The `BENCH_harness.json` document: counts, bools, hex
    /// fingerprints and benchmark names — no host time.
    fn to_json(&self) -> Json {
        let experiments = Json::rows(&self.experiments, |e| {
            [
                ("name", e.name.as_str().into()),
                ("fingerprint", format!("{:016x}", e.fingerprint).into()),
            ]
        });
        let throughput = Json::rows(&self.throughput, |t| {
            [
                ("name", t.name.as_str().into()),
                ("inferences", t.inferences.into()),
                (
                    "sim_cycles_per_inference",
                    t.sim_cycles_per_inference.into(),
                ),
                ("steady_state_allocs", t.steady_state_allocs.into()),
                ("allocs_per_cycle", t.allocs_per_cycle().into()),
                ("paths_bit_identical", t.paths_bit_identical.into()),
                ("instr_inferences", t.instr_inferences.into()),
                (
                    "instr_cycles_per_inference",
                    t.instr_cycles_per_inference.into(),
                ),
                (
                    "instr_paths_bit_identical",
                    t.instr_paths_bit_identical.into(),
                ),
                ("fault_replay_allocs", t.fault_replay_allocs.into()),
                (
                    "opt_cycles_per_inference",
                    t.opt_cycles_per_inference.into(),
                ),
                ("opt_nb_reads_eliminated", t.opt_nb_reads_eliminated.into()),
                ("opt_modes_reselected", t.opt_modes_reselected.into()),
                ("opt_sb_bytes_coalesced", t.opt_sb_bytes_coalesced.into()),
                (
                    "opt_sb_accesses_coalesced",
                    t.opt_sb_accesses_coalesced.into(),
                ),
                ("opt_cycles_saved", t.opt_cycles_saved.into()),
                ("delta_rows_total", t.delta_rows_total.into()),
                ("delta_warm_rows", t.delta_warm_rows.into()),
                ("delta_warm_load_cycles", t.delta_warm_load_cycles.into()),
                ("delta_bit_identical", t.delta_bit_identical.into()),
            ]
        });
        Json::Object(vec![
            ("experiments", experiments),
            ("throughput", throughput),
        ])
    }

    /// Human-readable rendering of the same numbers, plus the
    /// instrumented-path speedup the gate checks.
    fn render(&self) -> String {
        let mut out = String::new();
        if !self.experiments.is_empty() {
            out += "Experiment fingerprints (identical across worker counts)\n\
                    experiment           fingerprint\n";
            for e in &self.experiments {
                out += &format!("{:<20} {:016x}\n", e.name, e.fingerprint);
            }
            out += "\n";
        }
        out += "Prepared-session certificate (Session::infer_ref, schedule replay, warmed burst)\n\
                CNN          cycles/inf  allocs  ==golden\n";
        for t in &self.throughput {
            out += &format!(
                "{:<12} {:>10}  {:>6}  {}\n",
                t.name,
                t.sim_cycles_per_inference,
                t.steady_state_allocs,
                if t.paths_bit_identical { "yes" } else { "NO" },
            );
        }
        out += "\nInstrumented path (traced Session::run, schedule replay vs live decode)\n\
                CNN          cycles/inf   vs live  fault allocs  replay==live\n";
        for t in &self.throughput {
            out += &format!(
                "{:<12} {:>10} {:>8.2}x  {:>12}  {}\n",
                t.name,
                t.instr_cycles_per_inference,
                t.instr_speedup(),
                t.fault_replay_allocs,
                if t.instr_paths_bit_identical {
                    "yes"
                } else {
                    "NO"
                },
            );
        }
        out += "\nSchedule optimizer (cost model over the recording)\n\
                CNN          cycles/inf  saved  NB elim  modes  SB bytes\n";
        for t in &self.throughput {
            out += &format!(
                "{:<12} {:>10} {:>6} {:>8} {:>6} {:>9}\n",
                t.name,
                t.opt_cycles_per_inference,
                t.opt_cycles_saved,
                t.opt_nb_reads_eliminated,
                t.opt_modes_reselected,
                t.opt_sb_bytes_coalesced,
            );
        }
        out += "\nDelta-load path (cross-frame NBin residency, warm repeat of one input)\n\
                CNN          rows total  warm rows  warm load cycles  ==infer\n";
        for t in &self.throughput {
            out += &format!(
                "{:<12} {:>10} {:>10} {:>17}  {}\n",
                t.name,
                t.delta_rows_total,
                t.delta_warm_rows,
                t.delta_warm_load_cycles,
                if t.delta_bit_identical { "yes" } else { "NO" },
            );
        }
        let (nb, modes, sb, cycles) = self.optimizer_totals();
        out += &format!(
            "optimizer totals: {nb} NB deliveries eliminated, {modes} NB requests \
             re-covered, {sb} SB bytes coalesced, {cycles} modeled cycles folded\n"
        );
        out
    }

    /// The gate over the throughput rows: every frozen benchmark present
    /// with its seed-exact `sim_cycles_per_inference` on both the clean
    /// replayed and the traced replayed path, the optimizer never adding
    /// and usually removing cycles, every certified path bit-identical,
    /// a zero-allocation steady state (clean and silently faulted replay
    /// alike), and the instrumented-path speedup threshold.
    fn gate_errors(&self) -> Vec<String> {
        let rows = &self.throughput;
        let mut errors = Vec::new();
        let mut cycles_reduced = 0usize;
        for &(name, expect) in SEED_CYCLES_PER_INFERENCE {
            match rows.iter().find(|r| r.name == name) {
                None => errors.push(format!("{name}: missing from the throughput rows")),
                Some(row) => {
                    if row.sim_cycles_per_inference != expect {
                        errors.push(format!(
                            "{name}: sim_cycles_per_inference {} != seed-frozen {expect}",
                            row.sim_cycles_per_inference
                        ));
                    }
                    if row.instr_cycles_per_inference != expect {
                        errors.push(format!(
                            "{name}: scheduled-path drift — instrumented replay reported \
                             {} cycles, seed-frozen {expect}",
                            row.instr_cycles_per_inference
                        ));
                    }
                    if row.opt_cycles_per_inference > expect {
                        errors.push(format!(
                            "{name}: optimizer increased modeled cycles — its cost model \
                             priced {} cycles, seed-frozen recording {expect}",
                            row.opt_cycles_per_inference
                        ));
                    } else if row.opt_cycles_per_inference < expect {
                        cycles_reduced += 1;
                    }
                }
            }
        }
        if cycles_reduced < OPT_CYCLES_REDUCED_NETS {
            errors.push(format!(
                "only {cycles_reduced}/{} benchmarks showed strictly reduced optimized \
                 modeled cycles ({OPT_CYCLES_REDUCED_NETS} required)",
                SEED_CYCLES_PER_INFERENCE.len()
            ));
        }
        for row in rows {
            if !row.paths_bit_identical {
                errors.push(format!(
                    "{}: schedule replay diverged from the golden reference (run / infer_ref)",
                    row.name
                ));
            }
            if !row.instr_paths_bit_identical {
                errors.push(format!(
                    "{}: schedule replay diverged from live decode on the instrumented path",
                    row.name
                ));
            }
            if row.steady_state_allocs != 0 {
                errors.push(format!(
                    "{}: clean replay allocated {} times in steady state ({} allocs/cycle)",
                    row.name,
                    row.steady_state_allocs,
                    row.allocs_per_cycle()
                ));
            }
            if row.fault_replay_allocs != 0 {
                errors.push(format!(
                    "{}: schedule replay under a silent fault plan allocated {} times \
                     in steady state",
                    row.name, row.fault_replay_allocs
                ));
            }
            if !row.delta_bit_identical {
                errors.push(format!(
                    "{}: delta-load path diverged from the golden reference",
                    row.name
                ));
            }
            if row.delta_warm_rows != 0 || row.delta_warm_load_cycles != 0 {
                errors.push(format!(
                    "{}: warm delta-load streamed {} rows / {} load cycles on an \
                     unchanged input (0 expected)",
                    row.name, row.delta_warm_rows, row.delta_warm_load_cycles
                ));
            }
        }
        if let Some(row) = rows.iter().find(|r| r.name == "LeNet-5") {
            if row.instr_speedup() < INSTR_SPEEDUP_GATE {
                errors.push(format!(
                    "LeNet-5: instrumented replay speedup {:.2}x below the {INSTR_SPEEDUP_GATE}x gate",
                    row.instr_speedup()
                ));
            }
        }
        let fast_enough = rows
            .iter()
            .filter(|r| {
                SEED_CYCLES_PER_INFERENCE.iter().any(|&(n, _)| n == r.name)
                    && r.instr_speedup() >= INSTR_SPEEDUP_GATE
            })
            .count();
        if fast_enough < INSTR_SPEEDUP_NETS {
            errors.push(format!(
                "only {fast_enough}/{} benchmarks met the {INSTR_SPEEDUP_GATE}x instrumented \
                 replay speedup ({INSTR_SPEEDUP_NETS} required)",
                SEED_CYCLES_PER_INFERENCE.len()
            ));
        }
        errors
    }
}

/// 64-bit FNV-1a of `bytes` — a fixed algorithm, so a fingerprint is
/// stable across Rust releases (unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fingerprints `value` as the [`fnv1a`] of its `Debug` text.
fn fingerprint(name: &str, value: &impl std::fmt::Debug) -> ExperimentFingerprint {
    ExperimentFingerprint {
        name: name.to_string(),
        fingerprint: fnv1a(format!("{value:?}").as_bytes()),
    }
}

/// Fingerprints every parallel-sensitive experiment. The
/// paper-configuration runs go through [`compute_paper_runs`]
/// (cache-free), so the fingerprint covers real simulator work, not a
/// cache hit.
pub fn measure_experiments() -> Vec<ExperimentFingerprint> {
    // Fingerprint the observable paper-run results, not the raw trace
    // dump, to keep the hashed text small but still bit-exact.
    let paper_runs: Vec<_> = compute_paper_runs()
        .iter()
        .map(|p| {
            (
                p.net.name().to_string(),
                p.run.stats().cycles(),
                p.run.energy().total_nj().to_bits(),
                format!("{:?}", p.run.output()),
            )
        })
        .collect();
    vec![
        fingerprint("paper_runs", &paper_runs),
        fingerprint("table1_storage", &experiments::table1_storage()),
        fingerprint("fig7_bandwidth", &experiments::fig7_bandwidth()),
        fingerprint(
            "design_space_sweep",
            &experiments::design_space_sweep(&SWEEP_SIDES),
        ),
        fingerprint("reuse_report", &experiments::reuse_report()),
    ]
}

/// Measures one benchmark: bit-identity certificates across the
/// [`CERTIFIED_PATHS`], a warmed, allocation-counted `infer_ref` burst,
/// the instrumented and delta-load rows, and the optimizer's counters.
fn measure_one(b: shidiannao_cnn::NetworkBuilder, burst: usize) -> ThroughputRow {
    let net = b.build(SEED).expect("benchmark topologies are valid");
    let input = net.random_input(SEED ^ 0xABCD);
    let prepared = Accelerator::new(AcceleratorConfig::paper())
        .prepare(&net)
        .expect("benchmarks fit the paper config");

    // Certificate: the replayed traced run and the borrowed infer_ref
    // must reproduce the golden fixed-point reference and agree with
    // each other on statistics and energy.
    let golden = net.forward_fixed(&input).output();
    let mut session = prepared.session();
    let run = session.run(&input).expect("instrumented session run");
    let paths_bit_identical = run.output() == golden && {
        let r = session.infer_ref(&input).expect("trace-free infer_ref");
        r.output_flat() == golden && r.stats() == run.stats() && r.energy() == run.energy()
    };

    // Warm up until whole inferences stop allocating — scratch slabs
    // and the map recycling pool grow toward their high-water marks
    // over the first runs — then count heap allocations over the burst.
    let mut quiet = 0;
    for _ in 0..WARMUP_CAP {
        let (allocs, ()) = crate::alloc::count_allocations(|| {
            let _ = session.infer_ref(&input).expect("warm-up infer_ref");
        });
        quiet = if allocs == 0 { quiet + 1 } else { 0 };
        if quiet >= WARMUP_QUIET {
            break;
        }
    }
    let mut cycles = 0;
    let (steady_state_allocs, ()) = crate::alloc::count_allocations(|| {
        for _ in 0..burst {
            let r = session.infer_ref(&input).expect("input shape matches");
            cycles = r.stats().cycles();
        }
    });

    // Live-decode certified path: the traced instrumented run with
    // schedule replay disabled (live HFSM decode, the pre-schedule code
    // path) must agree with the replayed run on outputs, per-layer
    // traces, statistics, and energy.
    let mut live = prepared.session();
    live.set_schedule_replay(false);
    let live_run = live.run(&input).expect("live instrumented run");
    let instr_paths_bit_identical = live_run.output() == run.output()
        && live_run.layer_outputs() == run.layer_outputs()
        && live_run.stats() == run.stats()
        && live_run.energy() == run.energy();

    // Instrumented-path speedup, measured side by side: the same traced
    // burst through schedule replay and through live decode.
    let mut instr_cycles = 0;
    let start = Instant::now();
    for _ in 0..burst {
        let r = session.run(&input).expect("replayed instrumented run");
        instr_cycles = r.stats().cycles();
    }
    let instr_replay_wall_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..burst {
        live.run(&input).expect("live instrumented run");
    }
    let instr_live_wall_s = start.elapsed().as_secs_f64();

    // Replay under a silent fault plan (NB/SB flips, no protection —
    // every fault resolves to an overlay patch, never an abort) must be
    // as allocation-free as the clean path once the overlay is built.
    let plan = FaultPlan::new(FaultConfig {
        nb_flip_rate: SILENT_FAULT_RATE,
        sb_flip_rate: SILENT_FAULT_RATE,
        ib_flip_rate: 0.0,
        pe_stuck_rate: 0.0,
        scanline_rate: 0.0,
        ..FaultConfig::uniform(SEED, 0.0, SramProtection::None)
    });
    let mut faulty = prepared.session_with_faults(plan);
    let mut quiet = 0;
    for _ in 0..WARMUP_CAP {
        let (allocs, ()) = crate::alloc::count_allocations(|| {
            let _ = faulty.infer_ref(&input).expect("silent faults never abort");
        });
        quiet = if allocs == 0 { quiet + 1 } else { 0 };
        if quiet >= WARMUP_QUIET {
            break;
        }
    }
    let (fault_replay_allocs, ()) = crate::alloc::count_allocations(|| {
        for _ in 0..burst {
            let _ = faulty.infer_ref(&input).expect("silent faults never abort");
        }
    });

    // Delta-load certificate: a cold `infer_delta` must stream every
    // input row and reproduce the golden output; an immediately repeated
    // call on the same input must stream zero rows, report a zero-cycle
    // Load phase, and still reproduce it.
    let mut delta_session = prepared.session();
    let mut residency = NbResidency::new();
    let (cold, d_cold) = delta_session
        .infer_delta(&input, &mut residency)
        .expect("cold delta-load");
    let cold_ok = cold.output_flat() == golden && d_cold.rows_streamed == d_cold.rows_total;
    let (warm, d_warm) = delta_session
        .infer_delta(&input, &mut residency)
        .expect("warm delta-load");
    let delta_warm_load_cycles = warm.stats().layers()[0].cycles;
    let delta_bit_identical = cold_ok && warm.output_flat() == golden;

    let opt_report = shidiannao_core::opt::optimize(
        prepared.schedule(),
        prepared.network(),
        prepared.config(),
        prepared.energy_model(),
    );
    ThroughputRow {
        name: net.name().to_string(),
        inferences: burst,
        sim_cycles_per_inference: cycles,
        steady_state_allocs,
        paths_bit_identical,
        instr_inferences: burst,
        instr_replay_wall_s,
        instr_live_wall_s,
        instr_cycles_per_inference: instr_cycles,
        instr_paths_bit_identical,
        fault_replay_allocs,
        opt_cycles_per_inference: cycles.saturating_sub(opt_report.cycles_saved),
        opt_nb_reads_eliminated: opt_report.nb_reads_eliminated,
        opt_modes_reselected: opt_report.nb_modes_reselected,
        opt_sb_bytes_coalesced: opt_report.sb_bytes_coalesced,
        opt_sb_accesses_coalesced: opt_report.sb_accesses_coalesced,
        opt_cycles_saved: opt_report.cycles_saved,
        delta_rows_total: d_cold.rows_total as u64,
        delta_warm_rows: d_warm.rows_streamed as u64,
        delta_warm_load_cycles,
        delta_bit_identical,
    }
}

/// Certifies every benchmark with a `burst`-inference measurement.
pub fn measure_throughput(burst: usize) -> Vec<ThroughputRow> {
    zoo::all()
        .into_iter()
        .map(|b| measure_one(b, burst))
        .collect()
}

/// The full report: experiment fingerprints and full-burst rows.
pub fn measure() -> PerfReport {
    PerfReport {
        experiments: measure_experiments(),
        throughput: measure_throughput(BURST),
    }
}

/// The CI-sized report: throughput certificates only (no experiment
/// fingerprints), with a short burst.
pub fn measure_smoke() -> PerfReport {
    PerfReport {
        experiments: Vec::new(),
        throughput: measure_throughput(SMOKE_BURST),
    }
}

/// `harness bench [--smoke]`: the report through [`emit_deterministic`]
/// (three byte-compared evaluations, then `BENCH_harness.json`).
pub fn run_bench(smoke: bool) -> Gated {
    emit_deterministic("BENCH_harness.json", "bench", || {
        Ok::<_, Infallible>(if smoke { measure_smoke() } else { measure() })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_row() -> ThroughputRow {
        ThroughputRow {
            name: "LeNet-5".into(),
            inferences: 10,
            sim_cycles_per_inference: 10017,
            steady_state_allocs: 0,
            paths_bit_identical: true,
            instr_inferences: 10,
            instr_replay_wall_s: 0.1,
            instr_live_wall_s: 1.0,
            instr_cycles_per_inference: 10017,
            instr_paths_bit_identical: true,
            fault_replay_allocs: 0,
            opt_cycles_per_inference: 10016,
            opt_nb_reads_eliminated: 100,
            opt_modes_reselected: 10,
            opt_sb_bytes_coalesced: 64,
            opt_sb_accesses_coalesced: 8,
            opt_cycles_saved: 1,
            delta_rows_total: 32,
            delta_warm_rows: 0,
            delta_warm_load_cycles: 0,
            delta_bit_identical: true,
        }
    }

    /// A clean ten-row report: every frozen benchmark at its seed cycle
    /// count, the optimizer pricing one cycle fewer.
    fn clean_report() -> PerfReport {
        PerfReport {
            experiments: Vec::new(),
            throughput: SEED_CYCLES_PER_INFERENCE
                .iter()
                .map(|&(name, cycles)| ThroughputRow {
                    name: name.into(),
                    sim_cycles_per_inference: cycles,
                    instr_cycles_per_inference: cycles,
                    opt_cycles_per_inference: cycles - 1,
                    ..probe_row()
                })
                .collect(),
        }
    }

    #[test]
    fn fingerprints_are_fnv1a_of_the_debug_text() {
        // The published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let f = fingerprint("probe", &vec![1, 2, 3]);
        assert_eq!(f.name, "probe");
        assert_eq!(f.fingerprint, fnv1a(b"[1, 2, 3]"));
        assert_ne!(f, fingerprint("probe", &vec![1, 2, 4]));
    }

    #[test]
    fn report_json_has_the_schema_keys_and_no_host_time() {
        let report = PerfReport {
            experiments: vec![fingerprint("probe", &1)],
            throughput: vec![probe_row()],
        };
        let json = report.to_json().render();
        for key in [
            "\"experiments\"",
            "\"fingerprint\"",
            "\"throughput\"",
            "\"sim_cycles_per_inference\"",
            "\"steady_state_allocs\"",
            "\"allocs_per_cycle\"",
            "\"paths_bit_identical\"",
            "\"instr_inferences\"",
            "\"instr_cycles_per_inference\"",
            "\"instr_paths_bit_identical\"",
            "\"fault_replay_allocs\"",
            "\"opt_cycles_per_inference\"",
            "\"opt_nb_reads_eliminated\"",
            "\"opt_modes_reselected\"",
            "\"opt_sb_bytes_coalesced\"",
            "\"opt_sb_accesses_coalesced\"",
            "\"opt_cycles_saved\"",
            "\"delta_rows_total\"",
            "\"delta_warm_rows\"",
            "\"delta_warm_load_cycles\"",
            "\"delta_bit_identical\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        for banned in [
            "\"threads\"",
            "_s\"",
            "speedup",
            "\"opt_allocs\"",
            "\"opt_paths_bit_identical\"",
        ] {
            assert!(!json.contains(banned), "{banned} in {json}");
        }
        assert!(
            json.contains(&format!("\"{:016x}\"", fnv1a(b"1"))),
            "{json}"
        );
    }

    #[test]
    fn row_derives_baseline_metrics() {
        let row = probe_row();
        assert_eq!(row.allocs_per_cycle(), 0.0);
        assert!((row.instr_speedup() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn smoke_documents_are_byte_identical() {
        assert_eq!(
            measure_smoke().to_json().render(),
            measure_smoke().to_json().render()
        );
    }

    #[test]
    fn gate_errors_flags_every_violation_class() {
        let clean = clean_report();
        assert!(clean.gate_errors().is_empty());

        // Drift (clean and traced), divergence (replay-vs-golden,
        // replay-vs-live, and delta-load), allocation (clean and faulty
        // replay), an optimizer cycle increase, and absence each produce
        // an error.
        let mut bad = clean.clone();
        let rows = &mut bad.throughput;
        rows[0].sim_cycles_per_inference += 1;
        rows[1].paths_bit_identical = false;
        rows[2].steady_state_allocs = 7;
        rows[3].instr_cycles_per_inference += 2;
        rows[4].instr_paths_bit_identical = false;
        rows[5].fault_replay_allocs = 3;
        rows[0].opt_cycles_per_inference += 10;
        rows[4].delta_bit_identical = false;
        rows[5].delta_warm_rows = 6;
        rows.pop();
        let errors = bad.gate_errors();
        assert_eq!(errors.len(), 10, "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("seed-frozen")));
        assert!(errors
            .iter()
            .any(|e| e.contains("diverged from the golden reference (run")));
        assert!(errors.iter().any(|e| e.contains("clean replay allocated")));
        assert!(errors.iter().any(|e| e.contains("scheduled-path drift")));
        assert!(errors
            .iter()
            .any(|e| e.contains("diverged from live decode")));
        assert!(errors.iter().any(|e| e.contains("silent fault plan")));
        assert!(errors
            .iter()
            .any(|e| e.contains("optimizer increased modeled cycles")));
        assert!(errors
            .iter()
            .any(|e| e.contains("delta-load path diverged")));
        assert!(errors
            .iter()
            .any(|e| e.contains("warm delta-load streamed")));
        assert!(errors.iter().any(|e| e.contains("missing")));
    }

    #[test]
    fn gate_errors_enforces_the_optimizer_gates() {
        let mut report = clean_report();
        // Cycle parity (optimized == recorded) on six networks trips the
        // strict-reduction count without tripping the never-increase
        // check.
        for row in report.throughput.iter_mut().take(6) {
            row.opt_cycles_per_inference += 1;
        }
        let errors = report.gate_errors();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].contains("strictly reduced optimized"),
            "{errors:?}"
        );
    }

    #[test]
    fn gate_errors_enforces_the_instrumented_speedup_gate() {
        let mut report = clean_report();
        // Slow replay on LeNet-5 alone trips the headline gate (the
        // nine remaining fast rows still satisfy the 5-of-10 count).
        let lenet = &mut report.throughput[3];
        lenet.instr_replay_wall_s = lenet.instr_live_wall_s;
        let errors = report.gate_errors();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("below the 2x gate"), "{errors:?}");
        // Slow replay on six networks also trips the 5-of-10 count.
        for row in report.throughput.iter_mut().take(6) {
            row.instr_replay_wall_s = row.instr_live_wall_s;
        }
        let errors = report.gate_errors();
        assert!(
            errors.iter().any(|e| e.contains("4/10 benchmarks")),
            "{errors:?}"
        );
    }
}
