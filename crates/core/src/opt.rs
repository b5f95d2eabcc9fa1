//! The schedule optimizer: a prepare-time cost model over a recorded
//! [`NetworkSchedule`]. Four passes price what the recorded control
//! stream would cost with its slack reclaimed, and the prepared network
//! keeps only the resulting [`OptReport`] (DESIGN.md §3i). Sessions
//! always replay the recording, so the optimizer changes no output, no
//! run statistic and no fault decision.
//!
//! The recording in the `schedule` module is a *verbatim* transcript of
//! the live HFSM decode: every NB word delivery, every SB broadcast,
//! every per-block drain cycle. The live decoder is deliberately naive
//! (it mirrors the paper's control path), so the transcript carries
//! slack a post-pass can price:
//!
//! * **`nb_dedup`** — redundant NB delivery elimination. Overlapping
//!   windows re-read the same NBin word up to `kx·ky` times; the
//!   inter-PE FIFOs exist precisely so re-reads can be served from
//!   PE-side registers. The pass charges every recorded `ReadRec`
//!   once and removes the re-delivered bytes from `nbin.read_bytes`.
//! * **`mode_select`** — NB read-mode re-selection. The recorded
//!   request mix is whatever the decoder happened to issue; the pass
//!   re-covers the layer's unique address set with the cheapest legal
//!   mix: full `Px×Py` tile reads (modes (a)/(b), split by the tile
//!   origin's bank-group parity) over each input map's bounding box for
//!   spatial layers, and mode (c) row bursts of up to `Px` consecutive
//!   words for flat (classifier) address streams. Applied only when it
//!   issues strictly fewer requests than the recording.
//! * **`sb_coalesce`** — SB dedup + burst coalescing. Each unique SB
//!   word is fetched once (conv re-broadcasts are served from PE-local
//!   weight registers), and adjacent addresses — consecutive `kx`
//!   within a kernel row, consecutive classifier slots — merge into
//!   bursts of up to `pe_count` words per request. Bias broadcast words
//!   stay single-word requests.
//! * **`fifo_fold`** — FIFO-peak-aware drain folding. Every output
//!   block (conv/pool) or PE group (fc) ends in a one-cycle all-idle
//!   flush (`tick_idle(1)` in the live executors) while the ALU drains.
//!   Consecutive blocks can overlap that drain with the next block's
//!   first fill cycle: at the flush the inter-PE FIFOs are at their
//!   recorded steady occupancy, and the next block's prologue re-creates
//!   exactly that state, so the overlap cannot push any FIFO past its
//!   recorded peak. The pass folds `blocks − 1` flush cycles per layer
//!   — but only when the recorded peaks fit the layer's §5.1 sizing
//!   bound (the window extent), which is what makes the overlap legal.
//!
//! Every pass only ever *decreases* a scratch copy of the layer's
//! counters (each is clamped to the recording when its re-cover would
//! not win), and the energy model is linear with positive coefficients
//! in bytes/accesses/cycles/slots, so the priced energy never exceeds
//! the recording's either.

use crate::config::AcceleratorConfig;
use crate::energy::EnergyModel;
use crate::schedule::{LayerSchedule, NetworkSchedule};
use crate::stats::{LayerStats, ReadMode};
use shidiannao_cnn::{Layer, LayerBody, Network};
use std::collections::HashMap;

/// What the optimizer's passes would save on a recorded schedule:
/// per-pass elimination counters plus the modeled-cost deltas, summed
/// over every priced layer (replayable, not normalization).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OptReport {
    /// Redundant NB word deliveries eliminated (`nb_dedup`: Σ mult−1).
    pub nb_reads_eliminated: u64,
    /// NB read requests removed by re-covering with cheaper modes
    /// (`mode_select`: recorded accesses − re-covered accesses).
    pub nb_modes_reselected: u64,
    /// SB bytes removed by dedup (`sb_coalesce`).
    pub sb_bytes_coalesced: u64,
    /// SB read requests removed by dedup + burst merging (`sb_coalesce`).
    pub sb_accesses_coalesced: u64,
    /// Modeled cycles folded out of the schedule (`fifo_fold`).
    pub cycles_saved: u64,
    /// Modeled energy delta over the priced layers, in nJ (recorded
    /// charge − optimized charge under the prepared network's model).
    pub energy_saved_nj: f64,
    /// Priced layers any pass changed.
    pub layers_optimized: usize,
}

/// Prices every pass over a recorded schedule. Non-replayable layers
/// (which live-decode every run) and normalization layers (whose
/// recording carries no address stream to re-cover) are skipped; each
/// other layer's counters are re-costed on a scratch copy as documented
/// on [the module](self), and only the savings are kept.
pub fn optimize(
    recorded: &NetworkSchedule,
    network: &Network,
    cfg: &AcceleratorConfig,
    model: &EnergyModel,
) -> OptReport {
    let mut report = OptReport::default();
    for (sched, layer) in recorded.layers().iter().zip(network.layers()) {
        if !sched.replayable() || matches!(layer.body(), LayerBody::Lrn(_) | LayerBody::Lcn { .. })
        {
            continue;
        }
        let mut stats = sched.stats.clone();
        nb_dedup(sched, &mut stats, &mut report);
        mode_select(sched, &mut stats, cfg, &mut report);
        sb_coalesce(sched, &mut stats, cfg, &mut report);
        fifo_fold(&mut stats, layer, cfg, &mut report);
        if stats != sched.stats {
            report.layers_optimized += 1;
            report.energy_saved_nj +=
                model.charge(&sched.stats).total_nj() - model.charge(&stats).total_nj();
        }
    }
    report
}

/// Pass 1: charge every NB word's delivery once.
fn nb_dedup(sched: &LayerSchedule, stats: &mut LayerStats, report: &mut OptReport) {
    let redundant: u64 = sched.nb_reads.iter().map(|r| (r.mult - 1) as u64).sum();
    if redundant > 0 {
        // Every delivery moved one 16-bit word; the recording charged
        // each of them (the recorder listens on the per-word filter).
        stats.nbin.read_bytes = stats.nbin.read_bytes.saturating_sub(2 * redundant);
        report.nb_reads_eliminated += redundant;
    }
}

/// Pass 2: re-cover the unique NB address set with the cheapest request
/// mix, clamped to the recording when the re-cover would not win.
fn mode_select(
    sched: &LayerSchedule,
    stats: &mut LayerStats,
    cfg: &AcceleratorConfig,
    report: &mut OptReport,
) {
    let recorded = stats.nbin.read_accesses;
    if recorded == 0 || sched.nb_reads.is_empty() {
        return;
    }
    let (px, py) = (cfg.pe_cols as u64, cfg.pe_rows as u64);
    let mut mix = [0u64; 6];
    if sched.nb_flat {
        // Flat (classifier) stream: maximal runs of consecutive flat
        // indices, each covered by mode (c) bursts of up to Px words.
        let mut flats: Vec<u64> = sched.nb_reads.iter().map(|r| r.addr[0]).collect();
        flats.sort_unstable();
        let mut i = 0;
        while i < flats.len() {
            let start = i;
            while i + 1 < flats.len() && flats[i + 1] == flats[i] + 1 {
                i += 1;
            }
            let run = (i - start + 1) as u64;
            mix[ReadMode::C as usize] += run.div_ceil(px);
            i += 1;
        }
    } else {
        // Spatial stream: per input map, cover the touched bounding box
        // with full Px×Py tile reads; each tile is a mode (a) or (b)
        // request by its origin column's bank-group parity.
        let mut boxes: HashMap<u64, (u64, u64, u64, u64)> = HashMap::new();
        for r in &sched.nb_reads {
            let (m, x, y) = (r.addr[0], r.addr[1], r.addr[2]);
            let b = boxes.entry(m).or_insert((x, x, y, y));
            b.0 = b.0.min(x);
            b.1 = b.1.max(x);
            b.2 = b.2.min(y);
            b.3 = b.3.max(y);
        }
        for &(x0, x1, y0, y1) in boxes.values() {
            let tiles_y = (y1 - y0 + 1).div_ceil(py);
            for tx in 0..(x1 - x0 + 1).div_ceil(px) {
                let group = ((x0 + tx * px) / px) % 2;
                let mode = if group == 0 { ReadMode::A } else { ReadMode::B };
                mix[mode as usize] += tiles_y;
            }
        }
    }
    let total: u64 = mix.iter().sum();
    if total < recorded {
        report.nb_modes_reselected += recorded - total;
        stats.nbin.read_accesses = total;
        stats.reads_by_mode = mix;
    }
}
/// `true` when two sorted SB addresses are burst-adjacent: consecutive
/// `kx` within one conv kernel row, or consecutive slots within one
/// classifier weight row. Bias broadcast words (`addr[1] == MAX`) stay
/// single-word requests.
fn sb_adjacent(a: [u64; 3], b: [u64; 3]) -> bool {
    if a[1] == u64::MAX || b[1] == u64::MAX {
        return false;
    }
    if a[2] == u64::MAX && b[2] == u64::MAX {
        a[0] == b[0] && b[1] == a[1].wrapping_add(1)
    } else {
        a[0] == b[0] && a[1] == b[1] && b[2] == a[2].wrapping_add(1)
    }
}

/// Pass 3: fetch each unique SB word once and merge adjacent addresses
/// into bursts of up to `pe_count` words per request.
fn sb_coalesce(
    sched: &LayerSchedule,
    stats: &mut LayerStats,
    cfg: &AcceleratorConfig,
    report: &mut OptReport,
) {
    let reads = &sched.sb_reads;
    if reads.is_empty() {
        return;
    }
    let rebroadcast: u64 = reads.iter().map(|r| (r.mult - 1) as u64).sum();
    if rebroadcast > 0 {
        let bytes = 2 * rebroadcast;
        stats.sb.read_bytes = stats.sb.read_bytes.saturating_sub(bytes);
        report.sb_bytes_coalesced += bytes;
    }
    // `sb_reads` is sorted by address (the recorder's invariant), so
    // maximal adjacent runs are contiguous.
    let burst = cfg.pe_count() as u64;
    let mut bursts: u64 = 0;
    let mut i = 0;
    while i < reads.len() {
        let start = i;
        while i + 1 < reads.len() && sb_adjacent(reads[i].addr, reads[i + 1].addr) {
            i += 1;
        }
        bursts += ((i - start + 1) as u64).div_ceil(burst);
        i += 1;
    }
    let recorded = stats.sb.read_accesses;
    if bursts < recorded {
        report.sb_accesses_coalesced += recorded - bursts;
        stats.sb.read_accesses = bursts;
    }
}

/// Pass 4: fold the per-block one-cycle ALU drain into the next block's
/// first fill cycle, when the recorded FIFO peaks make the overlap legal.
fn fifo_fold(
    stats: &mut LayerStats,
    layer: &Layer,
    cfg: &AcceleratorConfig,
    report: &mut OptReport,
) {
    let (px, py) = (cfg.pe_cols.max(1), cfg.pe_rows.max(1));
    let (ow, oh) = layer.out_dims();
    // Per-layer flush count and the §5.1 FIFO sizing bound the recorded
    // peaks must fit for the drain/fill overlap to be legal.
    let (passes, bound) = match layer.body() {
        LayerBody::Conv { kernel, .. } => (
            layer.out_maps() * ow.div_ceil(px) * oh.div_ceil(py),
            (kernel.0, kernel.1),
        ),
        LayerBody::Pool { window, .. } => (
            layer.out_maps() * ow.div_ceil(px) * oh.div_ceil(py),
            (window.0, window.1),
        ),
        LayerBody::Fc { .. } => (layer.out_maps().div_ceil(cfg.pe_count()), (0, 0)),
        // Normalization layers never reach the optimizer passes.
        LayerBody::Lrn(_) | LayerBody::Lcn { .. } => return,
    };
    if stats.fifo_h_peak > bound.0 || stats.fifo_v_peak > bound.1 {
        return;
    }
    let pe = cfg.pe_count() as u64;
    let idle = stats.pe_total_slots.saturating_sub(stats.pe_busy_slots);
    // Clamp to the counters the fold draws down: each folded flush was
    // one all-idle cycle (`pe_count` idle slots), and the layer keeps at
    // least one cycle.
    let folds = (passes.saturating_sub(1) as u64)
        .min(stats.cycles.saturating_sub(1))
        .min(idle / pe.max(1));
    if folds > 0 {
        stats.cycles -= folds;
        stats.pe_total_slots -= folds * pe;
        report.cycles_saved += folds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ReadRec;

    fn rec(addr: [u64; 3], mult: u32) -> ReadRec {
        ReadRec { addr, mult }
    }

    fn spatial_layer() -> LayerSchedule {
        let mut stats = LayerStats::new("C1");
        stats.cycles = 100;
        stats.pe_busy_slots = 400;
        stats.pe_total_slots = 800;
        stats.nbin.read_accesses = 64;
        stats.nbin.read_bytes = 512;
        stats.reads_by_mode[ReadMode::E as usize] = 64;
        stats.sb.read_accesses = 30;
        stats.sb.read_bytes = 60;
        LayerSchedule {
            stats,
            nb_reads: (0..8)
                .flat_map(|x| (0..8).map(move |y| rec([0, x, y], 4)))
                .collect(),
            sb_reads: (0..25)
                .map(|k| rec([0, 0, ((k / 5) << 32) | (k % 5)], 1))
                .collect(),
            replayable: true,
            ..LayerSchedule::default()
        }
    }

    #[test]
    fn nb_dedup_clamps_multiplicities_and_bytes() {
        let l = spatial_layer();
        let mut stats = l.stats.clone();
        let mut r = OptReport::default();
        nb_dedup(&l, &mut stats, &mut r);
        assert_eq!(r.nb_reads_eliminated, 64 * 3);
        assert_eq!(stats.nbin.read_bytes, 512 - 2 * 64 * 3);
        // The recording itself is never rewritten.
        assert!(l.nb_reads.iter().all(|x| x.mult == 4));
    }

    #[test]
    fn mode_select_recovers_with_tiles_and_keeps_sums_coherent() {
        let l = spatial_layer();
        let mut stats = l.stats.clone();
        let mut r = OptReport::default();
        let cfg = AcceleratorConfig::paper(); // 8×8 PEs
        mode_select(&l, &mut stats, &cfg, &mut r);
        // One 8×8 bounding box → a single mode (a) tile read.
        assert_eq!(stats.nbin.read_accesses, 1);
        assert_eq!(stats.reads_by_mode[ReadMode::A as usize], 1);
        assert_eq!(
            stats.reads_by_mode.iter().sum::<u64>(),
            stats.nbin.read_accesses
        );
        assert_eq!(r.nb_modes_reselected, 63);
    }

    #[test]
    fn mode_select_never_increases_requests() {
        let mut l = spatial_layer();
        l.stats.nbin.read_accesses = 1; // already optimal
        l.stats.reads_by_mode = [0; 6];
        l.stats.reads_by_mode[ReadMode::A as usize] = 1;
        let mut stats = l.stats.clone();
        let mut r = OptReport::default();
        mode_select(&l, &mut stats, &AcceleratorConfig::paper(), &mut r);
        assert_eq!(stats, l.stats);
        assert_eq!(r.nb_modes_reselected, 0);
    }

    #[test]
    fn sb_coalesce_bursts_kernel_rows_and_isolates_biases() {
        let mut l = spatial_layer();
        l.sb_reads.push(rec([0, u64::MAX, 0], 3)); // bias word
        l.sb_reads.sort_unstable_by_key(|a| a.addr);
        l.stats.sb.read_accesses = 28;
        let mut stats = l.stats.clone();
        let mut r = OptReport::default();
        sb_coalesce(&l, &mut stats, &AcceleratorConfig::paper(), &mut r);
        // Five kernel rows of five (each a run ≤ 64-word burst) + bias.
        assert_eq!(stats.sb.read_accesses, 6);
        assert_eq!(r.sb_accesses_coalesced, 22);
        assert_eq!(r.sb_bytes_coalesced, 2 * 2); // the bias word's re-reads
    }

    #[test]
    fn flat_runs_coalesce_to_mode_c() {
        let mut l = spatial_layer();
        l.nb_flat = true;
        l.nb_reads = (0..20).map(|f| rec([f, 0, 0], 1)).collect();
        l.stats.nbin.read_accesses = 20;
        l.stats.reads_by_mode = [0; 6];
        l.stats.reads_by_mode[ReadMode::D as usize] = 20;
        let mut stats = l.stats.clone();
        let mut r = OptReport::default();
        mode_select(&l, &mut stats, &AcceleratorConfig::paper(), &mut r);
        // 20 consecutive words → ceil(20/8) = 3 mode (c) bursts.
        assert_eq!(stats.nbin.read_accesses, 3);
        assert_eq!(stats.reads_by_mode[ReadMode::C as usize], 3);
    }
}
