//! The design-space autotuner behind `harness tune [--smoke]`.
//!
//! Schedule replay makes a point evaluation cheap: one cached
//! `prepare` plus one replayed simulator run per (configuration,
//! network) pair, shared through
//! [`prepared_cached`]. The tuner
//! exploits that to sweep a real design space:
//!
//! * **PE mesh** — square `Px×Py` sides 4..=16. The NB bank *width* is
//!   derived from the mesh (`Px × 2` bytes, §6), so sweeping the side
//!   sweeps the bank geometry implicitly.
//! * **NB / SB capacities** — (NBin = NBout, SB) pairs from 32 KB/64 KB
//!   up to 256 KB/256 KB. Capacities gate *feasibility* (a network
//!   either fits or returns a capacity error), not cycles or energy, so
//!   the frontier naturally selects the smallest capacity that fits.
//! * **SRAM protection** — none / parity / SECDED. Protection scales
//!   modeled SRAM energy ([`EnergyModel::with_sram_protection`]) and
//!   area ([`area_with_protection`]) but never cycles, so one simulation
//!   serves all three protection points of a configuration.
//!
//! Every point is costed as (total area mm², geomean energy nJ, geomean
//! cycles) over the benchmark set, and the report emits the **Pareto
//! frontier** under four-objective dominance: a point dominates another
//! only if it is no worse on area, energy, *and* latency while being at
//! least as protected (otherwise stronger protection — strictly worse
//! on all three cost axes by construction — could never survive). The
//! per-tenant **pick** is the frontier point minimizing that tenant's
//! EDAP (energy × delay × area); `harness cluster` turns the distinct
//! picks into a tuner-chosen heterogeneous shard fleet via
//! [`tuned_shard_specs`].
//!
//! Determinism: the grid is evaluated through one order-preserving
//! indexed parallel iterator and every derived number is a pure
//! function of [`SEED`], so `BENCH_tuner.json` is byte-identical across
//! runs, machines, and thread counts. `run_tune` proves it the blunt
//! way — the report is generated three times (once pinned to one rayon
//! worker) and the three documents must compare byte-equal. Every pick
//! is certified (`picks_bit_identical`): its recorded-schedule replay
//! reproduces the golden fixed-point reference. In smoke mode the
//! frontier labels and tenant picks are frozen so CI catches any
//! cost-model drift that moves the frontier.

use crate::artifact::{emit_deterministic, Artifact, Gated};
use crate::experiments::{prepared_cache_stats, prepared_cached, SEED};
use crate::json::{comma, json_f64, json_str};
use rayon::prelude::*;
use shidiannao_cnn::{zoo, Network};
use shidiannao_core::area::{area_with_precision, area_with_protection};
use shidiannao_core::energy::EnergyModel;
use shidiannao_core::{AcceleratorConfig, SramProtection, WeightPrecision};
use std::convert::Infallible;

/// Square PE-mesh sides swept by the full grid.
pub const FULL_SIDES: [usize; 13] = [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

/// (NBin = NBout, SB) capacity pairs in KB swept by the full grid.
pub const FULL_CAPS_KB: [(usize, usize); 6] = [
    (32, 64),
    (64, 64),
    (64, 128),
    (128, 128),
    (128, 256),
    (256, 256),
];

/// The CI-sized smoke grid: three sides, two capacity pairs.
pub const SMOKE_SIDES: [usize; 3] = [4, 8, 12];

/// Smoke capacity pairs (the paper pair and one size up).
pub const SMOKE_CAPS_KB: [(usize, usize); 2] = [(64, 128), (128, 256)];

/// Protection levels costed per simulated configuration.
pub const PROTECTIONS: [SramProtection; 3] = [
    SramProtection::None,
    SramProtection::Parity,
    SramProtection::Secded,
];

/// Weight precisions costed per point, in column order. The 16-bit
/// column drives frontier dominance and the picks; the 2-bit and 1-bit
/// columns are informational (`shidiannao-quant` certifies when a
/// network can actually run at them), so adding them cannot move the
/// frozen frontier.
pub const PRECISIONS: [WeightPrecision; 3] = [
    WeightPrecision::W16,
    WeightPrecision::W2,
    WeightPrecision::W1,
];

/// Minimum evaluated grid points the full run must cover.
pub const TUNE_MIN_FULL_POINTS: usize = 200;

/// The cluster tenants the tuner picks configurations for, as
/// `(tenant name, zoo network name)`.
pub const TENANT_NETS: [(&str, &str); 3] = [
    ("lenet5-interactive", "LeNet-5"),
    ("gabor-stream", "Gabor"),
    ("mpcnn-batch", "MPCNN"),
];

/// Networks the smoke grid evaluates — exactly the cluster tenants'
/// networks, so the smoke picks feed `harness cluster` directly.
pub const SMOKE_NETS: [&str; 3] = ["LeNet-5", "Gabor", "MPCNN"];

/// Frontier labels frozen for the smoke grid. Any drift means the cost
/// model, the simulator, or the dominance rule changed behaviour and
/// the frontier must be re-frozen deliberately.
pub const EXPECTED_SMOKE_FRONTIER: &[&str] = &[
    "pe4x4-nb64k-sb128k-none",
    "pe4x4-nb64k-sb128k-parity",
    "pe4x4-nb64k-sb128k-secded",
    "pe8x8-nb64k-sb128k-none",
    "pe8x8-nb64k-sb128k-parity",
    "pe8x8-nb64k-sb128k-secded",
    "pe12x12-nb64k-sb128k-none",
    "pe12x12-nb64k-sb128k-parity",
    "pe12x12-nb64k-sb128k-secded",
];

/// Per-tenant picks frozen for the smoke grid.
pub const EXPECTED_SMOKE_PICKS: &[(&str, &str)] = &[
    ("lenet5-interactive", "pe12x12-nb64k-sb128k-none"),
    ("gabor-stream", "pe8x8-nb64k-sb128k-none"),
    ("mpcnn-batch", "pe12x12-nb64k-sb128k-none"),
];

fn prot_rank(p: SramProtection) -> u8 {
    match p {
        SramProtection::None => 0,
        SramProtection::Parity => 1,
        SramProtection::Secded => 2,
    }
}

fn prot_label(p: SramProtection) -> &'static str {
    match p {
        SramProtection::None => "none",
        SramProtection::Parity => "parity",
        SramProtection::Secded => "secded",
    }
}

/// One network's cost at one (fully feasible) design point.
#[derive(Clone, Debug, PartialEq)]
pub struct NetCost {
    /// Benchmark name.
    pub net: String,
    /// Simulated cycles per inference (protection-independent).
    pub cycles: u64,
    /// Modeled energy per inference at the point's protection level.
    pub energy_nj: f64,
    /// The same inference re-costed with 2-bit weights
    /// ([`WeightPrecision::W2`] PE/SB scaling).
    pub energy_nj_w2: f64,
    /// The same inference re-costed with 1-bit weights (XNOR datapath).
    pub energy_nj_w1: f64,
}

/// One evaluated design point.
#[derive(Clone, Debug, PartialEq)]
pub struct TunePoint {
    /// `pe{s}x{s}-nb{n}k-sb{m}k-{prot}` — the stable identity the
    /// frozen frontier and the shard specs reference.
    pub label: String,
    /// Square PE-mesh side.
    pub side: usize,
    /// NBin (= NBout) capacity in KB.
    pub nb_kb: usize,
    /// SB capacity in KB.
    pub sb_kb: usize,
    /// SRAM protection level.
    pub protection: SramProtection,
    /// Networks that fit this configuration.
    pub feasible: usize,
    /// Networks evaluated.
    pub networks: usize,
    /// Per-network costs (populated only when every network fits).
    pub per_net: Vec<NetCost>,
    /// Total accelerator area at 65 nm, protection overhead included.
    pub area_mm2: f64,
    /// Area with the SB and multiplier array shrunk for 1-bit weights.
    pub area_mm2_w1: f64,
    /// Geomean cycles over the networks (0 unless fully feasible).
    pub geomean_cycles: f64,
    /// Geomean energy over the networks (0 unless fully feasible).
    pub geomean_energy_nj: f64,
    /// Geomean 2-bit-weight energy (informational column).
    pub geomean_energy_nj_w2: f64,
    /// Geomean 1-bit-weight energy (informational column).
    pub geomean_energy_nj_w1: f64,
    /// Whether the point sits on the Pareto frontier.
    pub on_frontier: bool,
}

impl TunePoint {
    /// The accelerator configuration this point describes.
    pub fn config(&self) -> AcceleratorConfig {
        grid_config(self.side, self.nb_kb, self.sb_kb)
    }

    /// Whether every evaluated network fit.
    pub fn fully_feasible(&self) -> bool {
        self.feasible == self.networks
    }

    /// Geomean energy-delay-area product (0 unless fully feasible).
    pub fn edap(&self) -> f64 {
        self.geomean_energy_nj * self.geomean_cycles * self.area_mm2
    }

    /// The EDAP the point would post if every network ran with 1-bit
    /// weights (same cycles, W1 energy and area). Informational: it
    /// selects the binary front-end shard, never the frontier.
    pub fn edap_w1(&self) -> f64 {
        self.geomean_energy_nj_w1 * self.geomean_cycles * self.area_mm2_w1
    }
}

/// One tenant's auto-selected configuration: the frontier point
/// minimizing that tenant's own EDAP.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantPick {
    /// Tenant name (the cluster benchmark's vocabulary).
    pub tenant: String,
    /// Zoo network the tenant serves.
    pub net: String,
    /// Label of the picked point.
    pub label: String,
    /// The tenant's cycles at the pick.
    pub cycles: u64,
    /// The tenant's energy at the pick.
    pub energy_nj: f64,
    /// The pick's area.
    pub area_mm2: f64,
}

impl TenantPick {
    /// The tenant-specific figure of merit the pick minimized.
    pub fn edap(&self) -> f64 {
        self.energy_nj * self.cycles as f64 * self.area_mm2
    }
}

/// The complete autotuner report.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneReport {
    /// Whether this was the smoke-sized grid.
    pub smoke: bool,
    /// Benchmark names evaluated, in order.
    pub networks: Vec<String>,
    /// Every grid point, in grid order.
    pub points: Vec<TunePoint>,
    /// Per-tenant frontier picks.
    pub picks: Vec<TenantPick>,
    /// Whether every pick's configuration passed the bit-identity
    /// certificate: recorded-schedule replay reproduces the golden
    /// fixed-point reference exactly.
    pub picks_bit_identical: bool,
}

fn grid_config(side: usize, nb_kb: usize, sb_kb: usize) -> AcceleratorConfig {
    AcceleratorConfig {
        nbin_bytes: nb_kb * 1024,
        nbout_bytes: nb_kb * 1024,
        sb_bytes: sb_kb * 1024,
        ..AcceleratorConfig::with_pe_grid(side, side)
    }
}

fn grid(smoke: bool) -> Vec<(usize, usize, usize)> {
    let (sides, caps): (&[usize], &[(usize, usize)]) = if smoke {
        (&SMOKE_SIDES, &SMOKE_CAPS_KB)
    } else {
        (&FULL_SIDES, &FULL_CAPS_KB)
    };
    sides
        .iter()
        .flat_map(|&side| caps.iter().map(move |&(nb, sb)| (side, nb, sb)))
        .collect()
}

fn networks(smoke: bool) -> Vec<Network> {
    let builders = if smoke {
        SMOKE_NETS
            .iter()
            .map(|n| zoo::by_name(n).expect("smoke networks are in the zoo"))
            .collect()
    } else {
        zoo::all()
    };
    builders
        .into_par_iter()
        .map(|b| b.build(SEED).expect("zoo topologies are valid"))
        .collect()
}

/// Evaluates the grid and assembles the report. Deterministic: the
/// result is a pure function of `smoke` and [`SEED`].
pub fn evaluate(smoke: bool) -> TuneReport {
    let nets = networks(smoke);
    let nets = &nets;
    let configs = grid(smoke);
    // One simulation per (configuration, network) pair; all three
    // protection points of a configuration re-cost the same run. The
    // flattened indexed map preserves grid order regardless of the
    // thread count.
    let pairs: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..nets.len()).map(move |n| (c, n)))
        .collect();
    let sims: Vec<Option<(u64, [[f64; 3]; 3])>> = pairs
        .into_par_iter()
        .map(|(c, n)| {
            let (side, nb_kb, sb_kb) = configs[c];
            let cfg = grid_config(side, nb_kb, sb_kb);
            let prepared = prepared_cached(&nets[n], &cfg).ok()?;
            let run = prepared
                .session()
                .run(&nets[n].random_input(SEED ^ 0xABCD))
                .ok()?;
            let total = run.stats().total();
            // Per protection × per precision: protection scales the SRAM
            // terms, precision scales the PE-busy and SB terms, and both
            // re-cost the same traffic counters from one simulation.
            let energies = PROTECTIONS.map(|p| {
                PRECISIONS.map(|q| {
                    EnergyModel::paper_65nm()
                        .with_sram_protection(p)
                        .with_weight_precision(q)
                        .charge(&total)
                        .total_nj()
                })
            });
            Some((run.stats().cycles(), energies))
        })
        .collect();

    let mut points = Vec::with_capacity(configs.len() * PROTECTIONS.len());
    for (c, &(side, nb_kb, sb_kb)) in configs.iter().enumerate() {
        let chunk = &sims[c * nets.len()..(c + 1) * nets.len()];
        let feasible = chunk.iter().filter(|s| s.is_some()).count();
        let fully = feasible == nets.len();
        for (p_idx, &protection) in PROTECTIONS.iter().enumerate() {
            let cfg = grid_config(side, nb_kb, sb_kb);
            let area_mm2 = area_with_protection(&cfg, protection).total_mm2();
            let area_mm2_w1 =
                area_with_precision(&cfg, protection, WeightPrecision::W1).total_mm2();
            let per_net: Vec<NetCost> = if fully {
                nets.iter()
                    .zip(chunk)
                    .filter_map(|(net, sim)| {
                        sim.as_ref().map(|&(cycles, energies)| NetCost {
                            net: net.name().to_string(),
                            cycles,
                            energy_nj: energies[p_idx][0],
                            energy_nj_w2: energies[p_idx][1],
                            energy_nj_w1: energies[p_idx][2],
                        })
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let gm = |f: fn(&NetCost) -> f64| {
                let v: Vec<f64> = per_net.iter().map(f).collect();
                crate::geomean(&v)
            };
            let (geomean_cycles, geomean_energy_nj, geomean_energy_nj_w2, geomean_energy_nj_w1) =
                if fully {
                    (
                        gm(|n| n.cycles as f64),
                        gm(|n| n.energy_nj),
                        gm(|n| n.energy_nj_w2),
                        gm(|n| n.energy_nj_w1),
                    )
                } else {
                    (0.0, 0.0, 0.0, 0.0)
                };
            points.push(TunePoint {
                label: format!(
                    "pe{side}x{side}-nb{nb_kb}k-sb{sb_kb}k-{}",
                    prot_label(protection)
                ),
                side,
                nb_kb,
                sb_kb,
                protection,
                feasible,
                networks: nets.len(),
                per_net,
                area_mm2,
                area_mm2_w1,
                geomean_cycles,
                geomean_energy_nj,
                geomean_energy_nj_w2,
                geomean_energy_nj_w1,
                on_frontier: false,
            });
        }
    }

    mark_frontier(&mut points);
    let picks = pick_tenants(&points);
    let picks_bit_identical = certify_picks(nets, &picks, &points);
    TuneReport {
        smoke,
        networks: nets.iter().map(|n| n.name().to_string()).collect(),
        points,
        picks,
        picks_bit_identical,
    }
}

/// Four-objective Pareto dominance over the fully feasible points:
/// `a` dominates `b` when it is no worse on area, energy, and cycles,
/// at least as protected, and strictly better somewhere.
fn mark_frontier(points: &mut [TunePoint]) {
    let costs: Vec<Option<(f64, f64, f64, u8)>> = points
        .iter()
        .map(|p| {
            p.fully_feasible().then_some((
                p.area_mm2,
                p.geomean_energy_nj,
                p.geomean_cycles,
                prot_rank(p.protection),
            ))
        })
        .collect();
    for i in 0..points.len() {
        let Some(b) = costs[i] else { continue };
        let dominated = costs.iter().enumerate().any(|(j, a)| {
            let Some(a) = a else { return false };
            j != i
                && a.0 <= b.0
                && a.1 <= b.1
                && a.2 <= b.2
                && a.3 >= b.3
                && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2 || a.3 > b.3)
        });
        points[i].on_frontier = !dominated;
    }
}

/// Per-tenant auto-selection: the frontier point minimizing the
/// tenant's own EDAP, ties broken by grid order.
fn pick_tenants(points: &[TunePoint]) -> Vec<TenantPick> {
    TENANT_NETS
        .iter()
        .filter_map(|&(tenant, net_name)| {
            let mut best: Option<TenantPick> = None;
            for p in points.iter().filter(|p| p.on_frontier) {
                let Some(cost) = p.per_net.iter().find(|n| n.net == net_name) else {
                    continue;
                };
                let pick = TenantPick {
                    tenant: tenant.to_string(),
                    net: net_name.to_string(),
                    label: p.label.clone(),
                    cycles: cost.cycles,
                    energy_nj: cost.energy_nj,
                    area_mm2: p.area_mm2,
                };
                if best.as_ref().is_none_or(|b| pick.edap() < b.edap()) {
                    best = Some(pick);
                }
            }
            best
        })
        .collect()
}

/// The bit-identity certificate over the picked configurations: the
/// recorded-schedule replay must reproduce the golden fixed-point
/// reference exactly on the tenant's network at the picked grid point.
fn certify_picks(nets: &[Network], picks: &[TenantPick], points: &[TunePoint]) -> bool {
    picks.iter().all(|pick| {
        let Some(point) = points.iter().find(|p| p.label == pick.label) else {
            return false;
        };
        let Some(net) = nets.iter().find(|n| n.name() == pick.net) else {
            return false;
        };
        let Ok(prepared) = prepared_cached(net, &point.config()) else {
            return false;
        };
        let input = net.random_input(SEED ^ 0xABCD);
        let golden = net.forward_fixed(&input);
        prepared
            .session()
            .run(&input)
            .is_ok_and(|recorded| recorded.output() == golden.output())
    })
}

/// The tuner-chosen heterogeneous shard fleet for `harness cluster`:
/// the distinct accelerator configurations among the smoke-grid tenant
/// picks, as `(shard name, configuration)` pairs in pick order.
/// Equivalent to [`tuned_shard_specs_for`]`(false)` — the cluster
/// bench's frozen ledgers depend on this exact fleet.
pub fn tuned_shard_specs() -> Vec<(String, AcceleratorConfig)> {
    tuned_shard_specs_for(false)
}

/// [`tuned_shard_specs`], optionally extended with a **binary
/// front-end shard**: the frontier point minimizing the Gabor tenant's
/// 1-bit EDAP (`energy_w1 × cycles × area_w1`), named
/// `tuned-binary-front`. A cascade deployment pins its binarized
/// front-end tenant to that shard while the full-precision tenants
/// stay on the 16-bit picks.
pub fn tuned_shard_specs_for(include_binary_front: bool) -> Vec<(String, AcceleratorConfig)> {
    let report = evaluate(true);
    let mut specs: Vec<(String, AcceleratorConfig)> = Vec::new();
    for pick in &report.picks {
        let Some(point) = report.points.iter().find(|p| p.label == pick.label) else {
            continue;
        };
        let cfg = point.config();
        if specs.iter().any(|(_, c)| *c == cfg) {
            continue;
        }
        specs.push((
            format!(
                "tuned-pe{}x{}-nb{}k-sb{}k",
                point.side, point.side, point.nb_kb, point.sb_kb
            ),
            cfg,
        ));
    }
    if include_binary_front {
        let front = report
            .points
            .iter()
            .filter(|p| p.on_frontier)
            .filter_map(|p| {
                let gabor = p.per_net.iter().find(|n| n.net == "Gabor")?;
                Some((gabor.energy_nj_w1 * gabor.cycles as f64 * p.area_mm2_w1, p))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0));
        if let Some((_, point)) = front {
            specs.push(("tuned-binary-front".to_string(), point.config()));
        }
    }
    specs
}

impl TuneReport {
    /// Labels of the frontier points, in grid order.
    pub fn frontier_labels(&self) -> Vec<&str> {
        self.points
            .iter()
            .filter(|p| p.on_frontier)
            .map(|p| p.label.as_str())
            .collect()
    }

    /// Grid points that were fully feasible.
    pub fn fully_feasible(&self) -> usize {
        self.points.iter().filter(|p| p.fully_feasible()).count()
    }
}

impl Artifact for TuneReport {
    /// The `BENCH_tuner.json` document. Built exclusively from
    /// seed-deterministic quantities (no wall clock, no cache
    /// statistics), so the bytes are stable across runs, machines, and
    /// thread counts.
    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out += &format!(
            "  \"scenario\": {},\n",
            json_str(if self.smoke { "smoke" } else { "full" })
        );
        out += &format!("  \"grid_points\": {},\n", self.points.len());
        out += &format!("  \"fully_feasible\": {},\n", self.fully_feasible());
        out += &format!("  \"picks_bit_identical\": {},\n", self.picks_bit_identical);
        out += "  \"networks\": [";
        for (i, n) in self.networks.iter().enumerate() {
            out += &format!("{}{}", json_str(n), comma(i, self.networks.len()));
        }
        out += "],\n";
        out += "  \"points\": [\n";
        for (i, p) in self.points.iter().enumerate() {
            out += &format!(
                "    {{\"label\": {}, \"side\": {}, \"nb_kb\": {}, \"sb_kb\": {}, \
                 \"protection\": {}, \"feasible\": {}, \"networks\": {}, \
                 \"area_mm2\": {}, \"area_mm2_w1\": {}, \"geomean_cycles\": {}, \
                 \"geomean_energy_nj\": {}, \"geomean_energy_nj_w2\": {}, \
                 \"geomean_energy_nj_w1\": {}, \"edap\": {}, \"edap_w1\": {}, \
                 \"on_frontier\": {}}}{}\n",
                json_str(&p.label),
                p.side,
                p.nb_kb,
                p.sb_kb,
                json_str(prot_label(p.protection)),
                p.feasible,
                p.networks,
                json_f64(p.area_mm2),
                json_f64(p.area_mm2_w1),
                json_f64(p.geomean_cycles),
                json_f64(p.geomean_energy_nj),
                json_f64(p.geomean_energy_nj_w2),
                json_f64(p.geomean_energy_nj_w1),
                json_f64(p.edap()),
                json_f64(p.edap_w1()),
                p.on_frontier,
                comma(i, self.points.len()),
            );
        }
        out += "  ],\n";
        out += "  \"frontier\": [";
        let frontier = self.frontier_labels();
        for (i, l) in frontier.iter().enumerate() {
            out += &format!("{}{}", json_str(l), comma(i, frontier.len()));
        }
        out += "],\n";
        out += "  \"picks\": [\n";
        for (i, pick) in self.picks.iter().enumerate() {
            out += &format!(
                "    {{\"tenant\": {}, \"net\": {}, \"label\": {}, \"cycles\": {}, \
                 \"energy_nj\": {}, \"area_mm2\": {}, \"edap\": {}}}{}\n",
                json_str(&pick.tenant),
                json_str(&pick.net),
                json_str(&pick.label),
                pick.cycles,
                json_f64(pick.energy_nj),
                json_f64(pick.area_mm2),
                json_f64(pick.edap()),
                comma(i, self.picks.len()),
            );
        }
        out += "  ]\n}\n";
        out
    }

    /// Human-readable summary: the frontier, the picks, and the shared
    /// prepared-network cache's hit rate.
    fn render(&self) -> String {
        let mut out = format!(
            "Design-space autotuner ({}): {} grid points over {} networks, \
             {} fully feasible, {} on the Pareto frontier\n",
            if self.smoke { "smoke" } else { "full" },
            self.points.len(),
            self.networks.len(),
            self.fully_feasible(),
            self.frontier_labels().len(),
        );
        out += "frontier point                  area mm2  geomean cycles  geomean nJ  \
                w2 nJ    w1 nJ          EDAP\n";
        for p in self.points.iter().filter(|p| p.on_frontier) {
            out += &format!(
                "{:<30} {:>9.3} {:>15.1} {:>11.1} {:>8.1} {:>8.1} {:>13.3e}\n",
                p.label,
                p.area_mm2,
                p.geomean_cycles,
                p.geomean_energy_nj,
                p.geomean_energy_nj_w2,
                p.geomean_energy_nj_w1,
                p.edap(),
            );
        }
        for pick in &self.picks {
            out += &format!(
                "pick {:<20} -> {:<28} ({} cycles, {:.1} nJ, {:.3} mm2)\n",
                pick.tenant, pick.label, pick.cycles, pick.energy_nj, pick.area_mm2,
            );
        }
        let (hits, misses) = prepared_cache_stats();
        let total = hits + misses;
        let rate = if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64 * 100.0
        };
        out += &format!(
            "prepared-network cache: {hits} hits / {misses} misses ({rate:.1}% hit rate)\n"
        );
        out += &format!(
            "replay bit-identity over the picks: {}\n",
            if self.picks_bit_identical {
                "yes"
            } else {
                "NO"
            }
        );
        out
    }

    /// The CI gate: empty when every certificate holds.
    fn gate_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if !self.picks_bit_identical {
            errors.push(
                "a picked configuration failed the replay bit-identity certificate".to_string(),
            );
        }
        if self.frontier_labels().is_empty() {
            errors.push("the Pareto frontier is empty".to_string());
        }
        if self.picks.len() != TENANT_NETS.len() {
            errors.push(format!(
                "only {}/{} tenants received a pick",
                self.picks.len(),
                TENANT_NETS.len()
            ));
        }
        for pick in &self.picks {
            if !self
                .points
                .iter()
                .any(|p| p.on_frontier && p.label == pick.label)
            {
                errors.push(format!(
                    "{}: pick {} is not on the frontier",
                    pick.tenant, pick.label
                ));
            }
        }
        if !self.smoke && self.points.len() < TUNE_MIN_FULL_POINTS {
            errors.push(format!(
                "full grid evaluated {} points, below the {TUNE_MIN_FULL_POINTS} floor",
                self.points.len()
            ));
        }
        if self.smoke {
            let frontier = self.frontier_labels();
            if frontier != EXPECTED_SMOKE_FRONTIER {
                errors.push(format!(
                    "smoke frontier drift: got {frontier:?}, frozen {EXPECTED_SMOKE_FRONTIER:?}"
                ));
            }
            for &(tenant, label) in EXPECTED_SMOKE_PICKS {
                match self.picks.iter().find(|p| p.tenant == tenant) {
                    None => errors.push(format!("smoke pick for {tenant} missing")),
                    Some(p) if p.label != label => errors.push(format!(
                        "smoke pick drift: {tenant} picked {}, frozen {label}",
                        p.label
                    )),
                    Some(_) => {}
                }
            }
        }
        errors
    }
}

/// `harness tune [--smoke]`: the tuner through [`emit_deterministic`]
/// (three byte-compared evaluations, then `BENCH_tuner.json`).
pub fn run_tune(smoke: bool) -> Gated {
    emit_deterministic("BENCH_tuner.json", "tune", || {
        Ok::<_, Infallible>(evaluate(smoke))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_passes_its_frozen_gate() {
        let report = evaluate(true);
        let errors = report.gate_errors();
        assert!(errors.is_empty(), "gate failed: {errors:?}");
        assert_eq!(report.points.len(), 18);
        assert!(report.picks_bit_identical);
        // Capacity sizing: at a fixed side and protection the smaller
        // feasible capacity pair dominates the larger one (same cycles
        // and energy, less area), so only nb64k/sb128k survives.
        assert!(report
            .frontier_labels()
            .iter()
            .all(|l| l.contains("nb64k-sb128k")));
    }

    #[test]
    fn smoke_json_is_byte_deterministic() {
        let a = evaluate(true).to_json();
        let b = evaluate(true).to_json();
        assert_eq!(a, b);
        for key in [
            "\"scenario\"",
            "\"grid_points\"",
            "\"fully_feasible\"",
            "\"picks_bit_identical\"",
            "\"points\"",
            "\"frontier\"",
            "\"picks\"",
            "\"edap\"",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
    }

    #[test]
    fn dominance_requires_protection_parity() {
        // A SECDED point strictly worse on every cost axis than its
        // unprotected sibling still survives: nothing at its protection
        // tier beats it.
        let report = evaluate(true);
        let frontier = report.frontier_labels();
        assert!(frontier.iter().any(|l| l.ends_with("secded")));
        assert!(frontier.iter().any(|l| l.ends_with("none")));
    }

    #[test]
    fn tuned_shards_are_heterogeneous() {
        let specs = tuned_shard_specs();
        assert!(!specs.is_empty());
        // The frozen smoke picks split across two mesh sides.
        assert!(specs.len() >= 2, "picks collapsed to one config: {specs:?}");
        for (name, cfg) in &specs {
            assert!(name.starts_with("tuned-pe"), "{name}");
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn precision_columns_order_strictly_and_leave_the_frontier_alone() {
        let report = evaluate(true);
        for p in report.points.iter().filter(|p| p.fully_feasible()) {
            // Narrower weights strictly cheaper: w1 < w2 < w16 on both
            // energy and (for w1) area.
            assert!(p.geomean_energy_nj_w1 < p.geomean_energy_nj_w2);
            assert!(p.geomean_energy_nj_w2 < p.geomean_energy_nj);
            assert!(p.area_mm2_w1 < p.area_mm2);
            for n in &p.per_net {
                assert!(n.energy_nj_w1 < n.energy_nj_w2);
                assert!(n.energy_nj_w2 < n.energy_nj);
            }
        }
        // The informational columns must not have moved the frozen
        // frontier (dominance still runs on the 16-bit column).
        assert_eq!(report.frontier_labels(), EXPECTED_SMOKE_FRONTIER);
    }

    #[test]
    fn binary_front_shard_extends_but_never_perturbs_the_fleet() {
        let base = tuned_shard_specs();
        let with_front = tuned_shard_specs_for(true);
        assert_eq!(with_front.len(), base.len() + 1);
        assert_eq!(&with_front[..base.len()], &base[..]);
        let (name, cfg) = with_front.last().unwrap();
        assert_eq!(name, "tuned-binary-front");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn full_grid_covers_the_floor() {
        assert!(FULL_SIDES.len() * FULL_CAPS_KB.len() * PROTECTIONS.len() >= TUNE_MIN_FULL_POINTS);
    }
}
