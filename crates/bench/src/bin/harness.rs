//! The reproduction harness: prints any (or every) table and figure of
//! the ShiDianNao evaluation.
//!
//! ```text
//! harness [table1|table3|table4|fig7|fig17|fig18|fig19|reuse|framerate|sweep|faults|serve|cluster|tune|cascade|video|all|bench]
//! ```
//!
//! `harness bench [--smoke]` certifies the simulator itself: the
//! experiments' result fingerprints (full mode only) and, per zoo
//! network, prepared-session inference through zero-allocation schedule
//! replay. It writes `BENCH_harness.json` to the working directory and
//! fails if the document is not byte-identical across three evaluations
//! (one pinned to a single rayon worker), if `sim_cycles_per_inference`
//! for any of the ten networks (trace-free and instrumented schedule
//! replay) drifts from the repository seed, if any of the three
//! certified execution paths (`perf::CERTIFIED_PATHS`) diverged, if a
//! measured replay burst allocated in steady state, if the schedule
//! optimizer's cost model adds cycles anywhere or removes them on too
//! few networks,
//! or if instrumented replay is not `perf::INSTR_SPEEDUP_GATE`x faster
//! than live decode (a side-by-side ratio printed to stdout, never
//! written). `--smoke` shortens the bursts and skips the fingerprints.
//!
//! `harness faults [--smoke]` runs the seeded fault-injection campaign
//! (fault rate × SRAM protection across the zoo, each SRAM cell through
//! both schedule replay and live decode, plus the graceful-degradation
//! streaming measurement), writes `BENCH_faults.json`, and fails if the
//! document is not byte-identical across three evaluations (one pinned
//! to a single rayon worker), any SECDED-protected trial suffered silent
//! data corruption, a zero-rate trial diverged, or replay disagreed with
//! live decode anywhere.
//!
//! `harness serve [--smoke]` drives the deterministic multi-tenant
//! serving scenario (interactive LeNet-5, faulty streaming Gabor, batch
//! MPCNN) on the virtual clock, writes `BENCH_serve.json`, and fails if
//! the report differs across physical worker counts or admission
//! interleavings, if any served output diverges from a direct
//! `Session::infer`, or (in smoke mode) if the frozen per-tenant SLO
//! ledger drifted.
//!
//! `harness cluster [--smoke]` drives the same tenant mix through a
//! heterogeneous fault-tolerant shard cluster twice — healthy, then
//! under a seeded chaos plan of shard crashes, slow-shard episodes, and
//! SRAM-fault bursts — writes `BENCH_cluster.json`, and fails if the
//! report differs across physical thread counts or shard scan orders,
//! if any tenant's six-class outcome ledger fails to balance (a request
//! lost or double-counted), if any surviving sampled output diverges
//! from a direct `Session::infer` on the serving shard's accelerator,
//! if the chaos plan failed to exercise the crash, drain, slow-shard,
//! or burst paths, or (in smoke mode) if the frozen ledgers drifted.
//!
//! `harness tune [--smoke]` runs the design-space autotuner: a sweep of
//! PE mesh sides, NB/SB capacities (the NB bank width follows the mesh),
//! and SRAM protection levels over the zoo, costed as (area, geomean
//! energy, geomean cycles) and reduced to a Pareto frontier plus a
//! per-tenant minimum-EDAP pick. It writes `BENCH_tuner.json` and fails
//! if the document is not byte-identical across three evaluations (one
//! pinned to a single rayon worker), if a picked configuration fails the
//! replay bit-identity certificate, or (in smoke mode) if
//! the frozen frontier labels or tenant picks drifted.
//!
//! `harness cascade [--smoke]` runs the quantized two-stage early-exit
//! cascade: a 1-bit binarized front-end (XNOR kernels certified
//! bit-identical to the 16-bit kernels) scores every sensor region and
//! only above-threshold regions escalate to the full-precision LeNet-5.
//! It writes `BENCH_cascade.json` (escalation rate, cycles/energy saved
//! vs all-full-precision, accuracy delta vs the run-everything oracle,
//! bit-identity certificates for both stages, and the w16/w2/w1
//! quantization accuracy study) and fails if the document is not
//! byte-identical across three evaluations (one pinned to a single
//! rayon worker), if the front-end's per-inference cycle advantage
//! falls below 4x, if the cascade is not strictly cheaper than the
//! baseline on both cycles and energy, if either stage diverges from
//! the fixed-point golden reference, if the XNOR kernels fail
//! certification, or (in smoke mode) if the frozen escalation count
//! drifted.
//!
//! `harness video [--smoke]` runs the temporal-reuse video experiment:
//! three camera motion classes (static, mostly-static, panning) through
//! the motion-gated video pipeline — clean regions replay cached results
//! at calibrated compare-only cost, dirty regions recompute through the
//! cross-frame delta-load path — plus a fourth run gating dirty regions
//! through the cascade's binarized front-end, plus a multi-camera serve leg
//! driving dozens of deterministic `VideoStream` tenants through the
//! inference service with per-stream deadline SLOs. It writes
//! `BENCH_video.json` and fails if the document is not byte-identical
//! across three evaluations (one pinned to a single rayon worker), if
//! the static or mostly-static scene misses strict cycle (2x) and
//! energy savings over frame-independent processing, if any computed
//! region diverges from a direct `Session::infer`, if warm recomputes
//! save no NBin rows, if the serve leg varies across worker counts or
//! its ledgers fail to balance, or (in smoke mode) if the frozen
//! skip/compute ledgers drifted.
//!
//! The seven gated subcommands share one exit-code policy: the summary
//! goes to stdout, every gate violation goes to stderr, and the process
//! exits nonzero iff at least one gate failed. All seven gate and write
//! their artifact through `shidiannao_bench::artifact`: each report
//! builds its document as a `shidiannao_bench::json::Json` value, and
//! `Json::render` is the one writer that lays out every `BENCH_*.json`.

use shidiannao_bench::artifact::{emit, Gated};
use shidiannao_bench::{cascade, cluster, faults, perf, report, serve, tune, video};
use std::env;
use std::process::ExitCode;

fn smoke_flag() -> bool {
    env::args().nth(2).is_some_and(|f| f == "--smoke")
}

/// `harness serve [--smoke]`: multi-tenant scenario, artefact, gates.
fn run_serve(smoke: bool) -> Gated {
    match serve::serve_report(smoke) {
        Ok(bench) => emit("BENCH_serve.json", &bench, Vec::new()),
        Err(e) => (String::new(), vec![format!("scenario failed: {e}")]),
    }
}

/// `harness cluster [--smoke]`: chaos scenario, artefact, gates.
fn run_cluster(smoke: bool) -> Gated {
    match cluster::cluster_report(smoke) {
        Ok(bench) => emit("BENCH_cluster.json", &bench, Vec::new()),
        Err(e) => (String::new(), vec![format!("scenario failed: {e}")]),
    }
}

fn main() -> ExitCode {
    let arg = env::args().nth(1).unwrap_or_else(|| "all".to_string());
    // The gated subcommands share one exit-code policy (see module docs).
    let gated = match arg.as_str() {
        "faults" => Some(faults::run_faults(smoke_flag())),
        "bench" => Some(perf::run_bench(smoke_flag())),
        "serve" => Some(run_serve(smoke_flag())),
        "cluster" => Some(run_cluster(smoke_flag())),
        "tune" => Some(tune::run_tune(smoke_flag())),
        "cascade" => Some(cascade::run_cascade(smoke_flag())),
        "video" => Some(video::run_video(smoke_flag())),
        _ => None,
    };
    if let Some((out, errors)) = gated {
        print!("{out}");
        if errors.is_empty() {
            return ExitCode::SUCCESS;
        }
        for e in &errors {
            eprintln!("{arg}: {e}");
        }
        return ExitCode::FAILURE;
    }
    let out = match arg.as_str() {
        "table1" => report::render_table1(),
        "table3" => report::render_table3(),
        "table4" => report::render_table4(),
        "fig7" => report::render_fig7(),
        "fig17" => {
            shidiannao_core::area::floorplan_ascii(&shidiannao_core::AcceleratorConfig::paper())
        }
        "fig18" => report::render_fig18(),
        "fig19" => report::render_fig19(),
        "reuse" => report::render_reuse(),
        "framerate" => report::render_framerate(),
        "sweep" => report::render_sweep(),
        "all" => report::render_all(),
        "calib" => {
            use shidiannao_baseline::{CpuModel, DianNao, DianNaoConfig, GpuModel};
            use shidiannao_cnn::zoo;
            use shidiannao_core::{Accelerator, AcceleratorConfig};
            let mut s_nj = vec![];
            let mut i_bytes = vec![];
            let mut t_bytes = vec![];
            let mut d_on = vec![];
            let mut sdn_s = vec![];
            let mut dn_s = vec![];
            let mut cpu_s = vec![];
            let mut gpu_s = vec![];
            for b in zoo::all() {
                let net = b.build(2015).unwrap();
                let run = Accelerator::new(AcceleratorConfig::paper())
                    .prepare(&net)
                    .and_then(|p| p.session().run(&net.random_input(2015 ^ 0xABCD)))
                    .unwrap();
                let d = DianNao::new(DianNaoConfig::paper()).run(&net);
                s_nj.push(run.energy().total_nj());
                i_bytes
                    .push((net.input_maps() * net.input_dims().0 * net.input_dims().1 * 2) as f64);
                t_bytes.push(d.dram_bytes() as f64);
                d_on.push(d.energy_free_mem_nj());
                sdn_s.push(run.seconds());
                dn_s.push(d.seconds());
                cpu_s.push(CpuModel::xeon_e7_8830().run_seconds(&net));
                gpu_s.push(GpuModel::k20m().run(&net).seconds());
            }
            let g = shidiannao_bench::geomean;
            format!("geomean S={:.0} nJ, I={:.0} B, T={:.0} B, D_onchip={:.0} nJ\nsdn={:.3e}s dn={:.3e}s cpu={:.3e}s gpu={:.3e}s\n",
                g(&s_nj), g(&i_bytes), g(&t_bytes), g(&d_on), g(&sdn_s), g(&dn_s), g(&cpu_s), g(&gpu_s))
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; expected one of: table1 table3 table4 fig7 fig17 fig18 fig19 reuse framerate sweep faults serve cluster tune cascade video calib bench all"
            );
            return ExitCode::FAILURE;
        }
    };
    print!("{out}");
    ExitCode::SUCCESS
}
