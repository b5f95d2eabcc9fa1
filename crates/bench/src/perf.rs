//! Wall-clock measurement of the harness itself: serial vs parallel
//! experiment regeneration and prepared-session inference throughput.
//!
//! This module backs the `harness bench` subcommand, which writes the
//! machine-readable `BENCH_harness.json`. Two families of numbers:
//!
//! * **Experiment timings** — every parallel-sensitive experiment is run
//!   twice, once pinned to one worker (`RAYON_NUM_THREADS=1`) and once
//!   with the full thread pool, and the two results' `Debug` fingerprints
//!   are compared so the JSON also certifies that parallel execution is
//!   bit-identical to serial.
//! * **Throughput rows** — per benchmark, one `prepare` followed by a
//!   warmed-up burst of `Session::infer_ref` calls through
//!   zero-allocation schedule replay (the default path; with replay off
//!   every layer live-decodes), reported as simulated cycles/sec and
//!   inferences/sec next to the legacy one-shot `Accelerator::run` and
//!   the frozen PR-1 baseline. Each row also carries a *correctness
//!   certificate* over the seven [`CERTIFIED_PATHS`]: the heap
//!   allocations counted during the burst (must be zero in steady state)
//!   and whether the first four paths (legacy one-shot, instrumented
//!   `Session::run`, trace-free `Session::infer` and `Session::infer_ref`)
//!   produced bit-identical outputs, statistics, and energy.
//!
//! * **Instrumented-path rows** — per benchmark, the *traced* session
//!   run (`Session::run`, the path fault campaigns and debugging use) is
//!   timed twice: once replaying the precompiled micro-op schedule
//!   (default) and once with replay disabled (`set_schedule_replay`,
//!   i.e. live HFSM decode — the pre-schedule PR-3 code path). The two
//!   runs must agree bit-for-bit on outputs, per-layer traces,
//!   statistics, and energy (the fifth certified path), and a session
//!   replaying under a *silent* fault plan must stay allocation-free in
//!   steady state.
//!
//! * **Optimized-replay rows** — per benchmark, the schedule optimizer's
//!   rewritten stream ([`shidiannao_core::opt`]: NB dedup, read-mode
//!   re-selection, SB coalescing, FIFO-fold) is certified as the sixth
//!   path (outputs and per-layer traces bit-identical to the recorded
//!   replay, clean and under a silent fault plan, and allocation-free
//!   in steady state), with per-pass elimination counters copied from
//!   the prepared network's [`shidiannao_core::OptReport`]. The
//!   optimizer rewrites only costs, so both streams replay through the
//!   same bodies and there is no host-speed comparison to make.
//!
//! * **Delta-load rows** — per benchmark, the cross-frame NBin residency
//!   path (`Session::infer_delta`) is certified as the seventh path: a
//!   cold call must stream every input row and agree bit-for-bit with a
//!   plain `infer`, and an immediately repeated call on the same input
//!   must stream zero rows, report a zero-cycle Load phase, and still
//!   agree bit-for-bit — the dirty set is derived from content hashes, so
//!   bit-identity holds by construction and only the Load accounting may
//!   shrink.
//!
//! A batch of N inputs is N runs through these same paths (serve
//! batching is virtual-clock accounting), so it has no row of its own.
//!
//! `smoke_errors` distills the rows into the CI gate: seed-frozen
//! `sim_cycles_per_inference` for all ten networks (trace-free and
//! instrumented paths alike — any scheduled-path cycle drift fails CI),
//! zero steady-state allocations (clean, faulty, and optimized replay),
//! bit-identity of every certified path, and the headline speedup
//! (schedule replay must run the instrumented path at least
//! [`INSTR_SPEEDUP_GATE`]× faster than live decode on LeNet-5 and on at
//! least [`INSTR_SPEEDUP_NETS`] of the ten benchmarks).

use crate::experiments::{self, compute_paper_runs, SEED};
use crate::json::{comma, json_f64, json_opt_f64};
use shidiannao_cnn::zoo;
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, NbResidency, SramProtection,
};
use std::time::Instant;

/// Sides used for the sweep when timing it (a subset of the full render
/// to keep the bench subcommand short).
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

/// The execution paths every throughput row certifies bit-identical, in
/// certificate order: the legacy one-shot `Accelerator::run`, the
/// instrumented `Session::run`, the trace-free `Session::infer` and
/// `Session::infer_ref`, live HFSM decode (schedule replay off), the
/// optimizer-rewritten replay, and the `Session::infer_delta` delta load.
pub const CERTIFIED_PATHS: [&str; 7] = [
    "legacy",
    "run",
    "infer",
    "infer_ref",
    "live decode",
    "optimized replay",
    "delta load",
];

/// Minimum instrumented-path speedup (schedule replay over live HFSM
/// decode, measured side by side in the same process) the smoke gate
/// requires on LeNet-5 and on [`INSTR_SPEEDUP_NETS`] benchmarks.
pub const INSTR_SPEEDUP_GATE: f64 = 2.0;

/// How many of the ten frozen benchmarks must clear
/// [`INSTR_SPEEDUP_GATE`].
pub const INSTR_SPEEDUP_NETS: usize = 5;

/// Per-word flip rate of the silent fault plan used by the replay
/// allocation gate (NB and SB sites only, no protection — every flip is
/// silently patched through the schedule overlay, never aborting).
const SILENT_FAULT_RATE: f64 = 1e-4;

/// How many of the ten frozen benchmarks must report *strictly* fewer
/// optimized modeled cycles than the seed-frozen recording (no benchmark
/// may ever report more).
pub const OPT_CYCLES_REDUCED_NETS: usize = 5;

/// Simulated cycles per inference frozen at the repository seed; the
/// SoA datapath must never change a cycle count (`harness bench --smoke`
/// fails CI otherwise).
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

/// `sim_cycles_per_s` measured by PR 1 (prepared-run pipeline, pre-SoA),
/// copied verbatim from that PR's `BENCH_harness.json` so speedups are
/// computed against a fixed reference instead of a moving rerun.
pub const PR1_SIM_CYCLES_PER_S: &[(&str, f64)] = &[
    ("CNP", 2038759.1802994816),
    ("MPCNN", 1855007.509851419),
    ("FaceRecog", 1677878.928135524),
    ("LeNet-5", 1265647.7660950513),
    ("SimpleConv", 1666545.7607967944),
    ("CFF", 1435555.2638654246),
    ("NEO", 1461917.7461461187),
    ("ConvNN", 1199689.549385136),
    ("Gabor", 1575451.5061229356),
    ("FaceAlign", 1158505.9049619182),
];

/// Instrumented-path (`Session::run`, traced, live HFSM decode)
/// `sim_cycles_per_s` measured immediately before the schedule-replay
/// executor landed — the PR-3 datapath this PR's replay numbers are
/// compared against. Frozen like [`PR1_SIM_CYCLES_PER_S`] so the
/// `instr_speedup_vs_pr3` column references a fixed point instead of a
/// moving rerun.
pub const PR3_INSTR_SIM_CYCLES_PER_S: &[(&str, f64)] = &[
    ("CNP", 3265015.320),
    ("MPCNN", 3050739.942),
    ("FaceRecog", 2936528.880),
    ("LeNet-5", 2432147.409),
    ("SimpleConv", 3722040.195),
    ("CFF", 1989152.323),
    ("NEO", 2125046.446),
    ("ConvNN", 1737498.128),
    ("Gabor", 2210228.645),
    ("FaceAlign", 1678315.903),
];

fn lookup<T: Copy>(table: &[(&str, T)], name: &str) -> Option<T> {
    table.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// One experiment timed serially and in parallel.
#[derive(Clone, Debug)]
pub struct ExperimentTiming {
    /// Experiment name (the harness subcommand vocabulary).
    pub name: String,
    /// Wall-clock seconds with `RAYON_NUM_THREADS=1`.
    pub serial_s: f64,
    /// Wall-clock seconds with the full thread pool.
    pub parallel_s: f64,
    /// Whether the serial and parallel results were bit-identical
    /// (compared via their `Debug` formatting).
    pub bit_identical: bool,
}

impl ExperimentTiming {
    /// Serial / parallel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        if self.parallel_s == 0.0 {
            return 0.0;
        }
        self.serial_s / self.parallel_s
    }
}

/// One benchmark's prepared-session inference throughput.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Benchmark name.
    pub name: String,
    /// Seconds for the one-time `Accelerator::prepare`.
    pub prepare_s: f64,
    /// Inferences in the burst.
    pub inferences: usize,
    /// Wall-clock seconds for the whole burst through one `Session`.
    pub wall_s: f64,
    /// Simulated accelerator cycles per inference.
    pub sim_cycles_per_inference: u64,
    /// Simulated cycles advanced per wall-clock second.
    pub sim_cycles_per_s: f64,
    /// Inferences completed per wall-clock second.
    pub inferences_per_s: f64,
    /// Wall-clock seconds for the same burst through the legacy one-shot
    /// `Accelerator::run` (re-preparing every time).
    pub legacy_wall_s: f64,
    /// Inferences in the legacy burst (the smoke run shortens it).
    pub legacy_inferences: usize,
    /// Heap allocations counted during the (post-warm-up) burst. The
    /// zero-allocation datapath claim requires this to be exactly 0.
    pub steady_state_allocs: u64,
    /// Whether the legacy one-shot, instrumented session run, and the
    /// trace-free `infer`/`infer_ref` paths agreed bit-for-bit on
    /// outputs, statistics, and energy.
    pub paths_bit_identical: bool,
    /// Traced `Session::run` inferences in each instrumented burst.
    pub instr_inferences: usize,
    /// Wall-clock seconds for the instrumented burst with schedule
    /// replay on (the default).
    pub instr_replay_wall_s: f64,
    /// Wall-clock seconds for the same burst with replay disabled —
    /// live HFSM decode, the pre-schedule PR-3 code path.
    pub instr_live_wall_s: f64,
    /// Simulated cycles per inference reported by the replayed
    /// instrumented run; must equal the seed-frozen count (scheduled-path
    /// drift fails the smoke gate).
    pub instr_cycles_per_inference: u64,
    /// Whether the replayed and live-decoded instrumented runs agreed
    /// bit-for-bit on outputs, per-layer traces, statistics, and energy
    /// (the fifth certified path).
    pub instr_paths_bit_identical: bool,
    /// Heap allocations counted during a warmed `infer_ref` burst under
    /// a silent fault plan — schedule replay resolving the fault overlay
    /// must stay allocation-free too.
    pub fault_replay_allocs: u64,
    /// Simulated cycles per inference reported by the *optimized*
    /// schedule replay; must never exceed the seed-frozen count, and
    /// must be strictly below it on [`OPT_CYCLES_REDUCED_NETS`]
    /// benchmarks.
    pub opt_cycles_per_inference: u64,
    /// Heap allocations counted during the warmed optimized-replay burst
    /// (the optimizer must preserve the zero-allocation steady state).
    pub opt_allocs: u64,
    /// Whether the optimized replay agreed bit-for-bit with the recorded
    /// replay — outputs and per-layer traces on the instrumented run,
    /// outputs on the trace-free path, and outputs under the silent fault plan
    /// (the sixth certified path).
    pub opt_paths_bit_identical: bool,
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
    /// Whether the cold and warm delta-load runs agreed bit-for-bit with
    /// a plain `infer` on outputs, and the cold run streamed every row
    /// (the seventh certified path).
    pub delta_bit_identical: bool,
}

impl ThroughputRow {
    /// Legacy / session wall-clock ratio: what buffer reuse plus schedule
    /// replay buy over re-preparing and re-instrumenting each run.
    pub fn session_speedup(&self) -> f64 {
        if self.wall_s == 0.0 || self.legacy_inferences == 0 {
            return 0.0;
        }
        let legacy_per_inf = self.legacy_wall_s / self.legacy_inferences as f64;
        let session_per_inf = self.wall_s / self.inferences as f64;
        if session_per_inf == 0.0 {
            return 0.0;
        }
        legacy_per_inf / session_per_inf
    }

    /// Heap allocations per simulated cycle over the burst (0.0 in the
    /// steady state the tentpole demands).
    pub fn allocs_per_cycle(&self) -> f64 {
        let cycles = self.sim_cycles_per_inference * self.inferences as u64;
        if cycles == 0 {
            return f64::NAN;
        }
        self.steady_state_allocs as f64 / cycles as f64
    }

    /// The frozen PR-1 `sim_cycles_per_s` for this network, if it is one
    /// of the ten baseline benchmarks.
    pub fn pr1_sim_cycles_per_s(&self) -> Option<f64> {
        lookup(PR1_SIM_CYCLES_PER_S, &self.name)
    }

    /// Throughput relative to the frozen PR-1 baseline.
    pub fn speedup_vs_pr1(&self) -> Option<f64> {
        self.pr1_sim_cycles_per_s()
            .map(|base| self.sim_cycles_per_s / base)
    }

    /// Live / replay wall-clock ratio of the instrumented path, measured
    /// side by side in the same process (machine-independent, the smoke
    /// gate's speedup evidence).
    pub fn instr_speedup(&self) -> f64 {
        if self.instr_inferences == 0 || self.instr_replay_wall_s == 0.0 {
            return 0.0;
        }
        self.instr_live_wall_s / self.instr_replay_wall_s
    }

    /// Simulated cycles advanced per wall-clock second by the replayed
    /// instrumented path.
    pub fn instr_sim_cycles_per_s(&self) -> f64 {
        if self.instr_replay_wall_s == 0.0 {
            return 0.0;
        }
        self.instr_cycles_per_inference as f64 * self.instr_inferences as f64
            / self.instr_replay_wall_s
    }

    /// The frozen PR-3 instrumented-path `sim_cycles_per_s` for this
    /// network, if it is one of the ten baseline benchmarks.
    pub fn pr3_instr_sim_cycles_per_s(&self) -> Option<f64> {
        lookup(PR3_INSTR_SIM_CYCLES_PER_S, &self.name)
    }

    /// Replayed instrumented throughput relative to the frozen PR-3
    /// live-decode baseline.
    pub fn instr_speedup_vs_pr3(&self) -> Option<f64> {
        self.pr3_instr_sim_cycles_per_s()
            .map(|base| self.instr_sim_cycles_per_s() / base)
    }
}

/// The complete harness performance report.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Worker threads the parallel passes used.
    pub threads: usize,
    /// Per-experiment serial vs parallel timings.
    pub experiments: Vec<ExperimentTiming>,
    /// Per-benchmark session throughput.
    pub throughput: Vec<ThroughputRow>,
}

impl PerfReport {
    /// Total serial seconds across the timed experiments.
    pub fn total_serial_s(&self) -> f64 {
        self.experiments.iter().map(|e| e.serial_s).sum()
    }

    /// Total parallel seconds across the timed experiments.
    pub fn total_parallel_s(&self) -> f64 {
        self.experiments.iter().map(|e| e.parallel_s).sum()
    }

    /// Whole-harness serial / parallel speedup.
    pub fn total_speedup(&self) -> f64 {
        let p = self.total_parallel_s();
        if p == 0.0 {
            return 0.0;
        }
        self.total_serial_s() / p
    }

    /// Whether every experiment was bit-identical between serial and
    /// parallel execution.
    pub fn all_bit_identical(&self) -> bool {
        self.experiments.iter().all(|e| e.bit_identical)
    }

    /// Whether every benchmark's [`CERTIFIED_PATHS`] agreed bit-for-bit.
    pub fn all_paths_bit_identical(&self) -> bool {
        self.throughput.iter().all(|t| {
            t.paths_bit_identical
                && t.instr_paths_bit_identical
                && t.opt_paths_bit_identical
                && t.delta_bit_identical
        })
    }

    /// Whether no benchmark's measured burst touched the heap — the
    /// clean, faulty, and optimized schedule-replay bursts alike.
    pub fn zero_alloc_steady_state(&self) -> bool {
        self.throughput
            .iter()
            .all(|t| t.steady_state_allocs == 0 && t.fault_replay_allocs == 0 && t.opt_allocs == 0)
    }

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

    /// The `BENCH_harness.json` document (no external JSON dependency —
    /// every value is a string-free number, a bool, or an escaped-free
    /// benchmark name).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out += &format!("  \"threads\": {},\n", self.threads);
        out += "  \"experiments\": [\n";
        for (i, e) in self.experiments.iter().enumerate() {
            out += &format!(
                "    {{\"name\": \"{}\", \"serial_s\": {}, \"parallel_s\": {}, \
                 \"speedup\": {}, \"bit_identical\": {}}}{}\n",
                e.name,
                json_f64(e.serial_s),
                json_f64(e.parallel_s),
                json_f64(e.speedup()),
                e.bit_identical,
                comma(i, self.experiments.len()),
            );
        }
        out += "  ],\n";
        out += &format!(
            "  \"total\": {{\"serial_s\": {}, \"parallel_s\": {}, \"speedup\": {}, \
             \"bit_identical\": {}}},\n",
            json_f64(self.total_serial_s()),
            json_f64(self.total_parallel_s()),
            json_f64(self.total_speedup()),
            self.all_bit_identical(),
        );
        out += "  \"throughput\": [\n";
        for (i, t) in self.throughput.iter().enumerate() {
            out += &format!(
                "    {{\"name\": \"{}\", \"prepare_s\": {}, \"inferences\": {}, \
                 \"wall_s\": {}, \"sim_cycles_per_inference\": {}, \
                 \"sim_cycles_per_s\": {}, \"inferences_per_s\": {}, \
                 \"legacy_wall_s\": {}, \"session_speedup\": {}, \
                 \"steady_state_allocs\": {}, \"allocs_per_cycle\": {}, \
                 \"pr1_sim_cycles_per_s\": {}, \"speedup_vs_pr1\": {}, \
                 \"paths_bit_identical\": {}, \
                 \"instr_inferences\": {}, \"instr_replay_wall_s\": {}, \
                 \"instr_live_wall_s\": {}, \"instr_speedup\": {}, \
                 \"instr_cycles_per_inference\": {}, \
                 \"instr_sim_cycles_per_s\": {}, \
                 \"pr3_instr_sim_cycles_per_s\": {}, \
                 \"instr_speedup_vs_pr3\": {}, \
                 \"instr_paths_bit_identical\": {}, \
                 \"fault_replay_allocs\": {}, \
                 \"opt_cycles_per_inference\": {}, \
                 \"opt_allocs\": {}, \"opt_paths_bit_identical\": {}, \
                 \"opt_nb_reads_eliminated\": {}, \"opt_modes_reselected\": {}, \
                 \"opt_sb_bytes_coalesced\": {}, \
                 \"opt_sb_accesses_coalesced\": {}, \
                 \"opt_cycles_saved\": {}, \
                 \"delta_rows_total\": {}, \"delta_warm_rows\": {}, \
                 \"delta_warm_load_cycles\": {}, \
                 \"delta_bit_identical\": {}}}{}\n",
                t.name,
                json_f64(t.prepare_s),
                t.inferences,
                json_f64(t.wall_s),
                t.sim_cycles_per_inference,
                json_f64(t.sim_cycles_per_s),
                json_f64(t.inferences_per_s),
                json_f64(t.legacy_wall_s),
                json_f64(t.session_speedup()),
                t.steady_state_allocs,
                json_f64(t.allocs_per_cycle()),
                json_opt_f64(t.pr1_sim_cycles_per_s()),
                json_opt_f64(t.speedup_vs_pr1()),
                t.paths_bit_identical,
                t.instr_inferences,
                json_f64(t.instr_replay_wall_s),
                json_f64(t.instr_live_wall_s),
                json_f64(t.instr_speedup()),
                t.instr_cycles_per_inference,
                json_f64(t.instr_sim_cycles_per_s()),
                json_opt_f64(t.pr3_instr_sim_cycles_per_s()),
                json_opt_f64(t.instr_speedup_vs_pr3()),
                t.instr_paths_bit_identical,
                t.fault_replay_allocs,
                t.opt_cycles_per_inference,
                t.opt_allocs,
                t.opt_paths_bit_identical,
                t.opt_nb_reads_eliminated,
                t.opt_modes_reselected,
                t.opt_sb_bytes_coalesced,
                t.opt_sb_accesses_coalesced,
                t.opt_cycles_saved,
                t.delta_rows_total,
                t.delta_warm_rows,
                t.delta_warm_load_cycles,
                t.delta_bit_identical,
                comma(i, self.throughput.len()),
            );
        }
        out += "  ]\n}\n";
        out
    }

    /// Human-readable rendering of the same numbers.
    pub fn render(&self) -> String {
        let mut out = format!("Harness performance ({} worker threads)\n", self.threads);
        if !self.experiments.is_empty() {
            out += "experiment           serial (s)  parallel (s)  speedup  bit-identical\n";
            for e in &self.experiments {
                out += &format!(
                    "{:<20} {:>10.3} {:>13.3} {:>7.2}x  {}\n",
                    e.name,
                    e.serial_s,
                    e.parallel_s,
                    e.speedup(),
                    if e.bit_identical { "yes" } else { "NO" },
                );
            }
            out += &format!(
                "{:<20} {:>10.3} {:>13.3} {:>7.2}x  {}\n\n",
                "total",
                self.total_serial_s(),
                self.total_parallel_s(),
                self.total_speedup(),
                if self.all_bit_identical() {
                    "yes"
                } else {
                    "NO"
                },
            );
        }
        out += "Prepared-session throughput (Session::infer_ref, schedule replay, warmed burst)\n\
                CNN          cycles/inf   sim cycles/s   inf/s   vs one-shot  vs PR-1  allocs  4-path\n";
        for t in &self.throughput {
            out += &format!(
                "{:<12} {:>10} {:>14.3e} {:>7.1} {:>10.2}x {:>7}  {:>6}  {}\n",
                t.name,
                t.sim_cycles_per_inference,
                t.sim_cycles_per_s,
                t.inferences_per_s,
                t.session_speedup(),
                t.speedup_vs_pr1()
                    .map_or_else(|| "n/a".to_string(), |s| format!("{s:.2}x")),
                t.steady_state_allocs,
                if t.paths_bit_identical { "yes" } else { "NO" },
            );
        }
        out += "\nInstrumented-path throughput (traced Session::run, schedule replay vs live decode)\n\
                CNN          cycles/inf   sim cycles/s   vs live  vs PR-3  fault allocs  replay==live\n";
        for t in &self.throughput {
            out += &format!(
                "{:<12} {:>10} {:>14.3e} {:>8.2}x {:>7}  {:>12}  {}\n",
                t.name,
                t.instr_cycles_per_inference,
                t.instr_sim_cycles_per_s(),
                t.instr_speedup(),
                t.instr_speedup_vs_pr3()
                    .map_or_else(|| "n/a".to_string(), |s| format!("{s:.2}x")),
                t.fault_replay_allocs,
                if t.instr_paths_bit_identical {
                    "yes"
                } else {
                    "NO"
                },
            );
        }
        out += "\nOptimized replay (schedule optimizer passes, vs recorded replay)\n\
                CNN          cycles/inf  saved  NB elim  modes  SB bytes  allocs  ==replay\n";
        for t in &self.throughput {
            out += &format!(
                "{:<12} {:>10} {:>6} {:>8} {:>6} {:>9}  {:>6}  {}\n",
                t.name,
                t.opt_cycles_per_inference,
                t.opt_cycles_saved,
                t.opt_nb_reads_eliminated,
                t.opt_modes_reselected,
                t.opt_sb_bytes_coalesced,
                t.opt_allocs,
                if t.opt_paths_bit_identical {
                    "yes"
                } else {
                    "NO"
                },
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
}

/// Times `f` once and returns (seconds, `Debug` fingerprint of result).
fn timed<T: std::fmt::Debug>(f: impl FnOnce() -> T) -> (f64, String) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), format!("{value:?}"))
}

/// Runs `f` serially (one worker) and in parallel, comparing results.
///
/// When the effective pool size is already 1 — a single-core machine, or
/// `RAYON_NUM_THREADS=1` — the "parallel" pass would execute the exact
/// same serial code path, so the experiment is measured once and reported
/// with `parallel_s == serial_s` (speedup exactly 1.0) instead of timing
/// two identical runs and reporting their noise as a phantom regression.
fn serial_vs_parallel<T: std::fmt::Debug>(name: &str, f: impl Fn() -> T) -> ExperimentTiming {
    if rayon::current_num_threads() <= 1 {
        let (serial_s, _) = timed(&f);
        return ExperimentTiming {
            name: name.to_string(),
            serial_s,
            parallel_s: serial_s,
            bit_identical: true,
        };
    }
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (serial_s, serial_fp) = timed(&f);
    match &saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let (parallel_s, parallel_fp) = timed(&f);
    ExperimentTiming {
        name: name.to_string(),
        serial_s,
        parallel_s,
        bit_identical: serial_fp == parallel_fp,
    }
}

/// Times every parallel-sensitive experiment serial-vs-parallel. The
/// paper-configuration runs are timed through [`compute_paper_runs`]
/// (cache-free), so the number reflects real simulator work, not a cache
/// hit.
pub fn measure_experiments() -> Vec<ExperimentTiming> {
    vec![
        serial_vs_parallel("paper_runs", || {
            // Fingerprint the observable results, not the raw trace dump,
            // to keep the comparison string small but still bit-exact.
            compute_paper_runs()
                .iter()
                .map(|p| {
                    (
                        p.net.name().to_string(),
                        p.run.stats().cycles(),
                        p.run.energy().total_nj().to_bits(),
                        format!("{:?}", p.run.output()),
                    )
                })
                .collect::<Vec<_>>()
        }),
        serial_vs_parallel("table1_storage", experiments::table1_storage),
        serial_vs_parallel("fig7_bandwidth", experiments::fig7_bandwidth),
        serial_vs_parallel("design_space_sweep", || {
            experiments::design_space_sweep(&SWEEP_SIDES)
        }),
        serial_vs_parallel("reuse_report", experiments::reuse_report),
    ]
}

/// Measures one benchmark: bit-identity certificates across the
/// [`CERTIFIED_PATHS`], a warmed, allocation-counted `infer_ref` burst,
/// the legacy one-shot burst for comparison, and the instrumented,
/// optimized-replay, and delta-load rows.
fn measure_one(
    b: shidiannao_cnn::NetworkBuilder,
    burst: usize,
    legacy_runs: usize,
) -> ThroughputRow {
    let net = b.build(SEED).expect("benchmark topologies are valid");
    let input = net.random_input(SEED ^ 0xABCD);
    let accel = Accelerator::new(AcceleratorConfig::paper());

    let start = Instant::now();
    let prepared = accel
        .prepare(&net)
        .expect("benchmarks fit the paper config");
    let prepare_s = start.elapsed().as_secs_f64();

    // Certificate: legacy one-shot, instrumented session run, and the
    // trace-free infer/infer_ref must agree bit-for-bit on outputs,
    // statistics, and energy before any of them is worth timing.
    let legacy = accel
        .run(&net, &input)
        .expect("benchmarks fit the paper config");
    let mut session = prepared.session();
    let run = session.run(&input).expect("instrumented session run");
    let inf = session.infer(&input).expect("trace-free infer");
    let paths_bit_identical = {
        let r = session.infer_ref(&input).expect("trace-free infer_ref");
        r.output() == inf.output() && r.stats() == inf.stats() && r.energy() == inf.energy()
    } && run.output() == legacy.output()
        && inf.output_flat() == legacy.output()
        && run.stats() == legacy.stats()
        && inf.stats() == legacy.stats()
        && run.energy() == legacy.energy()
        && inf.energy() == legacy.energy();

    // Warm up until whole inferences stop allocating — scratch slabs
    // and the map recycling pool grow toward their high-water marks
    // over the first runs — then count heap allocations over the timed
    // burst.
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
    let start = Instant::now();
    let (steady_state_allocs, ()) = crate::alloc::count_allocations(|| {
        for _ in 0..burst {
            let r = session.infer_ref(&input).expect("input shape matches");
            cycles = r.stats().cycles();
        }
    });
    let wall_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in 0..legacy_runs {
        accel
            .run(&net, &input)
            .expect("benchmarks fit the paper config");
    }
    let legacy_wall_s = start.elapsed().as_secs_f64();

    // Fifth certified path: the traced instrumented run with
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

    // Sixth certified path: the schedule optimizer's
    // rewritten stream must agree with the recorded replay bit-for-bit
    // — outputs and per-layer traces on the instrumented run, outputs
    // on the trace-free path, and outputs under the silent fault plan.
    let opt_report = *prepared.optimizer_report();
    let mut opt_instr = prepared.session();
    opt_instr.set_optimized_replay(true);
    let opt_run = opt_instr.run(&input).expect("optimized instrumented run");
    let opt_cycles = opt_run.stats().cycles();
    let mut opt_paths_bit_identical = opt_run.output() == run.output()
        && opt_run.layer_outputs() == run.layer_outputs()
        && opt_run.stats().cycles() <= run.stats().cycles();
    let mut opt_fast = prepared.session();
    opt_fast.set_optimized_replay(true);
    {
        let r = opt_fast.infer_ref(&input).expect("optimized infer_ref");
        opt_paths_bit_identical &= r.output() == inf.output();
    }
    {
        let mut opt_faulty = prepared.session_with_faults(plan);
        opt_faulty.set_optimized_replay(true);
        let a = opt_faulty
            .infer_ref(&input)
            .expect("silent faults never abort");
        let b = faulty.infer_ref(&input).expect("silent faults never abort");
        opt_paths_bit_identical &= a.output() == b.output();
    }

    // Optimized-replay burst: warm to the allocation steady state, then
    // count heap allocations over a full burst.
    let mut quiet = 0;
    for _ in 0..WARMUP_CAP {
        let (allocs, ()) = crate::alloc::count_allocations(|| {
            let _ = opt_fast.infer_ref(&input).expect("optimized infer_ref");
        });
        quiet = if allocs == 0 { quiet + 1 } else { 0 };
        if quiet >= WARMUP_QUIET {
            break;
        }
    }
    let (opt_allocs, ()) = crate::alloc::count_allocations(|| {
        for _ in 0..burst {
            let _ = opt_fast.infer_ref(&input).expect("optimized infer_ref");
        }
    });

    // Seventh certified path: the delta-load staging path. A
    // cold `infer_delta` must stream every input row and agree with a
    // plain `infer`; an immediately repeated call on the same input must
    // stream zero rows, report a zero-cycle Load phase, and still agree.
    let mut delta_session = prepared.session();
    let mut residency = NbResidency::new();
    let (cold, d_cold) = delta_session
        .infer_delta(&input, &mut residency)
        .expect("cold delta-load");
    let cold_ok = cold.output() == inf.output() && d_cold.rows_streamed == d_cold.rows_total;
    let (warm, d_warm) = delta_session
        .infer_delta(&input, &mut residency)
        .expect("warm delta-load");
    let delta_warm_load_cycles = warm.stats().layers()[0].cycles;
    let delta_bit_identical = cold_ok && warm.output() == inf.output();

    ThroughputRow {
        name: net.name().to_string(),
        prepare_s,
        inferences: burst,
        wall_s,
        sim_cycles_per_inference: cycles,
        sim_cycles_per_s: cycles as f64 * burst as f64 / wall_s,
        inferences_per_s: burst as f64 / wall_s,
        legacy_wall_s,
        legacy_inferences: legacy_runs,
        steady_state_allocs,
        paths_bit_identical,
        instr_inferences: burst,
        instr_replay_wall_s,
        instr_live_wall_s,
        instr_cycles_per_inference: instr_cycles,
        instr_paths_bit_identical,
        fault_replay_allocs,
        opt_cycles_per_inference: opt_cycles,
        opt_allocs,
        opt_paths_bit_identical,
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

/// Measures prepared-session inference throughput for every benchmark.
pub fn measure_throughput() -> Vec<ThroughputRow> {
    zoo::all()
        .into_iter()
        .map(|b| measure_one(b, BURST, BURST))
        .collect()
}

/// Runs the full performance measurement.
pub fn measure() -> PerfReport {
    PerfReport {
        threads: rayon::current_num_threads(),
        experiments: measure_experiments(),
        throughput: measure_throughput(),
    }
}

/// The CI-sized measurement: throughput certificates only (no
/// serial-vs-parallel experiment timings), with a short burst.
pub fn measure_smoke() -> PerfReport {
    PerfReport {
        threads: rayon::current_num_threads(),
        experiments: Vec::new(),
        throughput: zoo::all()
            .into_iter()
            .map(|b| measure_one(b, SMOKE_BURST, 1))
            .collect(),
    }
}

/// The CI gate over a set of throughput rows: every frozen benchmark
/// present with its seed-exact `sim_cycles_per_inference` on both the
/// clean replayed and the traced replayed path, every certified path
/// bit-identical, a zero-allocation steady state (clean, faulty, and
/// optimized replay alike), and the instrumented-path and
/// optimized-replay speedup thresholds. Returns the list of violations
/// (empty means pass).
pub fn smoke_errors(rows: &[ThroughputRow]) -> Vec<String> {
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
                        "{name}: optimizer increased modeled cycles — optimized replay \
                         reported {} cycles, seed-frozen recording {expect}",
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
                "{}: execution paths diverged (legacy / run / infer / infer_ref)",
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
        if !row.opt_paths_bit_identical {
            errors.push(format!(
                "{}: optimized replay diverged from the recorded replay",
                row.name
            ));
        }
        if row.opt_allocs != 0 {
            errors.push(format!(
                "{}: optimized replay allocated {} times in steady state",
                row.name, row.opt_allocs
            ));
        }
        if !row.delta_bit_identical {
            errors.push(format!(
                "{}: delta-load path diverged from plain inference",
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
            lookup(SEED_CYCLES_PER_INFERENCE, &r.name).is_some()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_row() -> ThroughputRow {
        ThroughputRow {
            name: "LeNet-5".into(),
            prepare_s: 0.001,
            inferences: 10,
            wall_s: 0.5,
            sim_cycles_per_inference: 10017,
            sim_cycles_per_s: 20000.0,
            inferences_per_s: 20.0,
            legacy_wall_s: 1.0,
            legacy_inferences: 10,
            steady_state_allocs: 0,
            paths_bit_identical: true,
            instr_inferences: 10,
            instr_replay_wall_s: 0.1,
            instr_live_wall_s: 1.0,
            instr_cycles_per_inference: 10017,
            instr_paths_bit_identical: true,
            fault_replay_allocs: 0,
            opt_cycles_per_inference: 10016,
            opt_allocs: 0,
            opt_paths_bit_identical: true,
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

    #[test]
    fn json_f64_is_json_safe() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn serial_vs_parallel_detects_identical_results() {
        let t = serial_vs_parallel("probe", || vec![1, 2, 3]);
        assert!(t.bit_identical);
        assert_eq!(t.name, "probe");
    }

    #[test]
    fn report_json_has_the_schema_keys() {
        let report = PerfReport {
            threads: 4,
            experiments: vec![ExperimentTiming {
                name: "probe".into(),
                serial_s: 2.0,
                parallel_s: 1.0,
                bit_identical: true,
            }],
            throughput: vec![probe_row()],
        };
        let json = report.to_json();
        for key in [
            "\"threads\"",
            "\"experiments\"",
            "\"serial_s\"",
            "\"parallel_s\"",
            "\"speedup\"",
            "\"bit_identical\"",
            "\"total\"",
            "\"throughput\"",
            "\"sim_cycles_per_inference\"",
            "\"sim_cycles_per_s\"",
            "\"inferences_per_s\"",
            "\"session_speedup\"",
            "\"steady_state_allocs\"",
            "\"allocs_per_cycle\"",
            "\"pr1_sim_cycles_per_s\"",
            "\"speedup_vs_pr1\"",
            "\"paths_bit_identical\"",
            "\"instr_replay_wall_s\"",
            "\"instr_live_wall_s\"",
            "\"instr_speedup\"",
            "\"instr_cycles_per_inference\"",
            "\"instr_sim_cycles_per_s\"",
            "\"pr3_instr_sim_cycles_per_s\"",
            "\"instr_speedup_vs_pr3\"",
            "\"instr_paths_bit_identical\"",
            "\"fault_replay_allocs\"",
            "\"opt_cycles_per_inference\"",
            "\"opt_allocs\"",
            "\"opt_paths_bit_identical\"",
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
        assert!((report.total_speedup() - 2.0).abs() < 1e-12);
        assert!(report.all_bit_identical());
        assert!(report.all_paths_bit_identical());
        assert!(report.zero_alloc_steady_state());
    }

    #[test]
    fn row_derives_baseline_metrics() {
        let row = probe_row();
        assert_eq!(row.allocs_per_cycle(), 0.0);
        let base = row.pr1_sim_cycles_per_s().expect("LeNet-5 has a baseline");
        assert!((row.speedup_vs_pr1().unwrap() - 20000.0 / base).abs() < 1e-12);
        assert!((row.session_speedup() - 2.0).abs() < 1e-12);
        assert!((row.instr_speedup() - 10.0).abs() < 1e-12);
        let instr = row.instr_sim_cycles_per_s();
        assert!((instr - 10017.0 * 10.0 / 0.1).abs() < 1e-6);
        let pr3 = row
            .pr3_instr_sim_cycles_per_s()
            .expect("LeNet-5 has a PR-3 baseline");
        assert!((row.instr_speedup_vs_pr3().unwrap() - instr / pr3).abs() < 1e-12);
    }

    #[test]
    fn smoke_errors_flags_every_violation_class() {
        // A clean ten-row set passes.
        let clean: Vec<ThroughputRow> = SEED_CYCLES_PER_INFERENCE
            .iter()
            .map(|&(name, cycles)| ThroughputRow {
                name: name.into(),
                sim_cycles_per_inference: cycles,
                instr_cycles_per_inference: cycles,
                opt_cycles_per_inference: cycles - 1,
                ..probe_row()
            })
            .collect();
        assert!(smoke_errors(&clean).is_empty());

        // Drift (clean and traced), divergence (four-path,
        // replay-vs-live, optimized, and delta-load), allocation (clean,
        // faulty, and optimized replay), and absence each produce an
        // error.
        let mut bad = clean.clone();
        bad[0].sim_cycles_per_inference += 1;
        bad[1].paths_bit_identical = false;
        bad[2].steady_state_allocs = 7;
        bad[3].instr_cycles_per_inference += 2;
        bad[4].instr_paths_bit_identical = false;
        bad[5].fault_replay_allocs = 3;
        bad[0].opt_cycles_per_inference += 10;
        bad[1].opt_paths_bit_identical = false;
        bad[2].opt_allocs = 4;
        bad[4].delta_bit_identical = false;
        bad[5].delta_warm_rows = 6;
        bad.pop();
        let errors = smoke_errors(&bad);
        assert_eq!(errors.len(), 12, "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("seed-frozen")));
        assert!(errors.iter().any(|e| e.contains("diverged (legacy")));
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
            .any(|e| e.contains("optimized replay diverged")));
        assert!(errors
            .iter()
            .any(|e| e.contains("optimized replay allocated")));
        assert!(errors
            .iter()
            .any(|e| e.contains("delta-load path diverged")));
        assert!(errors
            .iter()
            .any(|e| e.contains("warm delta-load streamed")));
        assert!(errors.iter().any(|e| e.contains("missing")));
    }

    #[test]
    fn smoke_errors_enforces_the_optimizer_gates() {
        let mut rows: Vec<ThroughputRow> = SEED_CYCLES_PER_INFERENCE
            .iter()
            .map(|&(name, cycles)| ThroughputRow {
                name: name.into(),
                sim_cycles_per_inference: cycles,
                instr_cycles_per_inference: cycles,
                opt_cycles_per_inference: cycles - 1,
                ..probe_row()
            })
            .collect();
        // Cycle parity (optimized == recorded) on six networks trips the
        // strict-reduction count without tripping the never-increase
        // check.
        for row in rows.iter_mut().take(6) {
            row.opt_cycles_per_inference += 1;
        }
        let errors = smoke_errors(&rows);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].contains("strictly reduced optimized"),
            "{errors:?}"
        );
    }

    #[test]
    fn smoke_errors_enforces_the_instrumented_speedup_gate() {
        let mut rows: Vec<ThroughputRow> = SEED_CYCLES_PER_INFERENCE
            .iter()
            .map(|&(name, cycles)| ThroughputRow {
                name: name.into(),
                sim_cycles_per_inference: cycles,
                instr_cycles_per_inference: cycles,
                opt_cycles_per_inference: cycles - 1,
                ..probe_row()
            })
            .collect();
        // Slow replay on LeNet-5 alone trips the headline gate (the
        // nine remaining fast rows still satisfy the 5-of-10 count).
        rows[3].instr_replay_wall_s = rows[3].instr_live_wall_s;
        let errors = smoke_errors(&rows);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("below the 2x gate"), "{errors:?}");
        // Slow replay on six networks also trips the 5-of-10 count.
        for row in rows.iter_mut().take(6) {
            row.instr_replay_wall_s = row.instr_live_wall_s;
        }
        let errors = smoke_errors(&rows);
        assert!(
            errors.iter().any(|e| e.contains("4/10 benchmarks")),
            "{errors:?}"
        );
    }

    #[test]
    fn baseline_tables_cover_the_same_networks() {
        assert_eq!(SEED_CYCLES_PER_INFERENCE.len(), 10);
        assert_eq!(PR1_SIM_CYCLES_PER_S.len(), 10);
        assert_eq!(PR3_INSTR_SIM_CYCLES_PER_S.len(), 10);
        for &(name, _) in SEED_CYCLES_PER_INFERENCE {
            assert!(
                lookup(PR1_SIM_CYCLES_PER_S, name).is_some(),
                "{name} missing a PR-1 baseline"
            );
            assert!(
                lookup(PR3_INSTR_SIM_CYCLES_PER_S, name).is_some(),
                "{name} missing a PR-3 instrumented baseline"
            );
        }
    }
}
