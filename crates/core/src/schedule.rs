//! Precompiled micro-op schedules: the per-layer control stream, decoded
//! once at [`crate::Accelerator::prepare`] time.
//!
//! The paper's control path is *static*: the HFSM expands each layer's
//! 61-bit instructions into a fully deterministic per-cycle sequence of
//! NB/SB reads, PE steps, and write-backs (§7, Figs. 10–12) — nothing
//! about it depends on input data. This module runs the existing
//! instrumented decoder **once** per layer while a [`ScheduleRecorder`]
//! listens on the engine's fault-filter hook points, and freezes what it
//! saw into a [`LayerSchedule`]:
//!
//! * the layer's complete [`LayerStats`] delta (cycles, per-mode NB
//!   reads, SB/IB traffic, PE ops, FIFO activity, bank-conflict stalls —
//!   all input-independent),
//! * the deduplicated `(site, address) → access multiplicity` stream of
//!   every SRAM word the layer touches, in exactly the addressing scheme
//!   the fault layer keys on, and
//! * the PE mesh's cumulative FIFO peak occupancy after the layer.
//!
//! Sessions then *replay* the schedule instead of re-deriving it: the
//! statistics are absorbed in one call, fault decisions are resolved per
//! unique address (times its multiplicity) instead of per access, and
//! only the arithmetic that actually produces neuron values is executed
//! — for conv and pool one whole output row per lane-kernel sweep
//! (`exec/replay.rs`), since the cost of the `Px×Py` block tiling is
//! already in the recorded delta.
//! The schedule lives in an `Arc` inside [`crate::PreparedNetwork`], so
//! every `Session` of a tenant shares one copy of the decoded control
//! state.
//!
//! The hook-point contract with `shidiannao-faults` (see DESIGN.md §3f):
//! a fault decision is a pure function of `(seed, site, layer, address)`,
//! so a schedule that reproduces the exact multiset of filtered addresses
//! reproduces the exact faults — bit-identically, in any order.

use crate::config::AcceleratorConfig;
use crate::stats::LayerStats;
use shidiannao_cnn::Layer;
use shidiannao_faults::{FaultPlan, FaultSite, FaultStats, SramProtection};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One deduplicated SRAM word access: the logical address the fault
/// layer keys on, plus how many times the layer reads that word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadRec {
    /// Site-specific logical word address (NB cell, SB weight/bias
    /// coordinate).
    pub addr: [u64; 3],
    /// Accesses the layer performs on this word (each one is filtered —
    /// and counted — by the fault layer on the live path).
    pub mult: u32,
}

/// One layer's precompiled micro-op schedule.
#[derive(Clone, Debug, Default)]
pub struct LayerSchedule {
    /// The layer's complete statistics delta, captured *before* the
    /// bank-conflict stall folding the outer loop applies (so the fold
    /// stays shared between the live and replay paths).
    pub(crate) stats: LayerStats,
    /// Every NBin word the layer reads, deduplicated with multiplicity.
    pub(crate) nb_reads: Vec<ReadRec>,
    /// Every SB word (weight or bias) the layer reads, deduplicated with
    /// multiplicity, sorted by address for patch lookup.
    pub(crate) sb_reads: Vec<ReadRec>,
    /// `true` when NB addresses are flat mode (d) indices
    /// (`[flat, 0, 0]`, classifier layers) rather than spatial
    /// `[map, x, y]` cells.
    pub(crate) nb_flat: bool,
    /// The PE mesh's cumulative `(FIFO-H, FIFO-V)` peak occupancy after
    /// the layer — peaks are monotone across a run, so replay folds this
    /// in to keep any later live-decoded layer's peak stats identical.
    pub(crate) fifo_peaks_after: (usize, usize),
    /// `false` for layers the replay executor does not model
    /// (normalization layers, multi-map-packed convolutions): they
    /// live-decode every run.
    pub(crate) replayable: bool,
}

impl LayerSchedule {
    /// `true` when sessions replay this layer instead of live-decoding
    /// it.
    pub fn replayable(&self) -> bool {
        self.replayable
    }

    /// Simulated cycles the layer contributes (before bank-conflict
    /// stall folding).
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Deduplicated NB words the layer touches.
    pub fn nb_words(&self) -> usize {
        self.nb_reads.len()
    }

    /// Deduplicated SB words the layer touches.
    pub fn sb_words(&self) -> usize {
        self.sb_reads.len()
    }

    /// NB read requests the layer issues (sum over modes (a)–(f)).
    pub fn nb_read_accesses(&self) -> u64 {
        self.stats.nbin.read_accesses
    }

    /// SB read requests the layer issues.
    pub fn sb_read_accesses(&self) -> u64 {
        self.stats.sb.read_accesses
    }
}

/// A whole network's precompiled control state, shared (`Arc`) by every
/// [`crate::Session`] opened on the owning [`crate::PreparedNetwork`].
#[derive(Clone, Debug, Default)]
pub struct NetworkSchedule {
    layers: Vec<LayerSchedule>,
}

impl NetworkSchedule {
    /// The placeholder installed while the recording pass itself runs.
    pub(crate) fn empty() -> NetworkSchedule {
        NetworkSchedule::default()
    }

    /// Rebuilds a schedule from transformed per-layer entries — the
    /// schedule optimizer's constructor ([`crate::opt::optimize`]).
    pub(crate) fn from_layers(layers: Vec<LayerSchedule>) -> NetworkSchedule {
        NetworkSchedule { layers }
    }

    /// Per-layer schedules, in execution order.
    pub fn layers(&self) -> &[LayerSchedule] {
        &self.layers
    }

    /// Number of layers the schedule covers (0 for the placeholder).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// How many layers sessions replay rather than live-decode.
    pub fn replayable_layers(&self) -> usize {
        self.layers.iter().filter(|l| l.replayable).count()
    }

    /// Approximate heap footprint of the schedule — the control state a
    /// multi-tenant deployment shares across sessions instead of
    /// re-deriving per cycle per session.
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                core::mem::size_of::<LayerSchedule>()
                    + (l.nb_reads.len() + l.sb_reads.len()) * core::mem::size_of::<ReadRec>()
            })
            .sum()
    }
}

// ----- recording ------------------------------------------------------

/// The 64-bit finalizer of `splitmix64`, used to hash recorded
/// addresses and — via [`crate::accel::NbResidency`] — resident NBin
/// row contents (the fault layer has its own copy; the two never need
/// to agree).
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A non-cryptographic hasher for `[u64; 3]` addresses: recording
/// filters millions of words per network, so the default SipHash would
/// dominate the one-time prepare cost.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }
}

type AddrBuildHasher = BuildHasherDefault<AddrHasher>;

/// Deduplicating accumulator for one site's address stream.
#[derive(Default)]
struct AccessSet {
    index: HashMap<[u64; 3], u32, AddrBuildHasher>,
    list: Vec<ReadRec>,
}

impl AccessSet {
    #[inline]
    fn note(&mut self, addr: [u64; 3]) {
        match self.index.entry(addr) {
            Entry::Occupied(e) => self.list[*e.get() as usize].mult += 1,
            Entry::Vacant(e) => {
                e.insert(self.list.len() as u32);
                self.list.push(ReadRec { addr, mult: 1 });
            }
        }
    }

    fn drain(&mut self) -> Vec<ReadRec> {
        self.index.clear();
        core::mem::take(&mut self.list)
    }
}

/// Listens on the engine's fault-filter hook points during the one
/// recording pass `prepare()` runs, and freezes each layer's control
/// stream into a [`LayerSchedule`].
#[derive(Default)]
pub(crate) struct ScheduleRecorder {
    layers: Vec<LayerSchedule>,
    nb: AccessSet,
    sb: AccessSet,
    replayable: bool,
    nb_flat: bool,
}

impl ScheduleRecorder {
    pub(crate) fn new() -> ScheduleRecorder {
        ScheduleRecorder::default()
    }

    /// Starts recording a layer. For non-replayable layers the engine
    /// detaches the recorder, so no addresses arrive; the schedule entry
    /// still exists (with its flag) to keep layer indices aligned.
    pub(crate) fn begin_layer(&mut self, replayable: bool, nb_flat: bool) {
        self.replayable = replayable;
        self.nb_flat = nb_flat;
    }

    /// One NBin word delivered through a fault-filter hook point.
    #[inline]
    pub(crate) fn note_nb(&mut self, addr: [u64; 3]) {
        self.nb.note(addr);
    }

    /// One SB word (weight or bias) delivered through the fault filter.
    #[inline]
    pub(crate) fn note_sb(&mut self, addr: [u64; 3]) {
        self.sb.note(addr);
    }

    /// Finishes the layer: captures its statistics delta (pre
    /// bank-conflict folding) and the mesh's cumulative FIFO peaks.
    pub(crate) fn finish_layer(&mut self, stats: &LayerStats, fifo_peaks_after: (usize, usize)) {
        let mut sb_reads = self.sb.drain();
        // Sorted for the replay executor's binary-search patch lookup.
        sb_reads.sort_unstable_by_key(|a| a.addr);
        let mut stats = stats.clone();
        // The session fetches the layer's instructions live on every run
        // (IB faults are decided at fetch, replay or not), charging IB
        // traffic into the layer slot before dispatch — so the absorbed
        // delta must not carry the recording run's IB fetches too.
        stats.ib = crate::stats::BufferTraffic::default();
        self.layers.push(LayerSchedule {
            stats,
            nb_reads: self.nb.drain(),
            sb_reads,
            nb_flat: self.nb_flat,
            fifo_peaks_after,
            replayable: self.replayable,
        });
    }

    pub(crate) fn into_schedule(self) -> NetworkSchedule {
        NetworkSchedule {
            layers: self.layers,
        }
    }
}

/// Whether the replay executor models this layer under this
/// configuration. Normalization layers (decomposed LRN/LCN sub-passes
/// with staged NBout re-reads) and multi-map-packed convolutions always
/// live-decode.
pub(crate) fn layer_replayable(cfg: &AcceleratorConfig, layer: &Layer) -> bool {
    use shidiannao_cnn::LayerBody;
    match layer.body() {
        LayerBody::Conv { .. } => !crate::exec::packed_applies_cfg(cfg, layer),
        LayerBody::Pool { .. } | LayerBody::Fc { .. } => true,
        LayerBody::Lrn(_) | LayerBody::Lcn { .. } => false,
    }
}

// ----- fault overlays -------------------------------------------------

/// A silent-fault overlay: everything an active fault plan does to one
/// replayed layer, resolved ahead of time from the schedule's address
/// stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct SilentOverlay {
    /// NB cells whose delivered value flips (XOR mask), applied in place
    /// to the input stack before the layer's arithmetic.
    pub(crate) nb_patches: Vec<([u64; 3], u16)>,
    /// SB words whose delivered value flips, sorted by address; the
    /// replay executor patches weights/biases at fetch time.
    pub(crate) sb_patches: Vec<([u64; 3], u16)>,
    /// The exact fault-counter delta the live path would accumulate over
    /// the layer (each faulted word counts once per access).
    pub(crate) delta: FaultStats,
}

/// What the fault plan does to one layer of the schedule.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum LayerOverlay {
    /// No fault touches the layer: replay is pure arithmetic.
    Clean,
    /// Only silent/corrected faults fire: replay with patched values and
    /// a precomputed counter delta.
    Silent(SilentOverlay),
    /// At least one access detects an uncorrectable error: the layer
    /// live-decodes so the abort fires at the exact access (and with the
    /// exact partial statistics) the live path produces.
    Abort,
}

/// Resolves a fault plan against one layer's recorded address stream.
pub(crate) fn build_overlay(
    plan: &FaultPlan,
    layer_index: usize,
    sched: &LayerSchedule,
) -> LayerOverlay {
    let mut overlay = SilentOverlay::default();
    let protection = plan.protection();
    let site = |site: FaultSite,
                reads: &[ReadRec],
                patches: &mut Vec<([u64; 3], u16)>,
                delta: &mut FaultStats|
     -> bool {
        for rec in reads {
            let Some(mask) = plan.flip_mask(site, layer_index, rec.addr) else {
                continue;
            };
            let mult = rec.mult as u64;
            let double = mask.count_ones() > 1;
            match site {
                FaultSite::NbIn | FaultSite::NbOut => delta.nb_faults += mult,
                FaultSite::Sb => delta.sb_faults += mult,
                FaultSite::Ib => delta.ib_faults += mult,
                FaultSite::Pe | FaultSite::Scanline => {}
            }
            if double {
                delta.double_bit += mult;
            }
            match protection {
                SramProtection::None => {
                    delta.silent += mult;
                    patches.push((rec.addr, mask));
                }
                SramProtection::Parity => {
                    if double {
                        delta.silent += mult;
                        patches.push((rec.addr, mask));
                    } else {
                        return false; // detected → abort
                    }
                }
                SramProtection::Secded => {
                    if double {
                        return false; // detected → abort
                    }
                    delta.corrected += mult;
                }
            }
        }
        true
    };
    let mut delta = FaultStats::default();
    if !site(
        FaultSite::NbIn,
        &sched.nb_reads,
        &mut overlay.nb_patches,
        &mut delta,
    ) || !site(
        FaultSite::Sb,
        &sched.sb_reads,
        &mut overlay.sb_patches,
        &mut delta,
    ) {
        return LayerOverlay::Abort;
    }
    overlay.delta = delta;
    if overlay.delta == FaultStats::default() {
        LayerOverlay::Clean
    } else {
        // The recorder sorted `sb_reads`, so the patches (a filtered
        // subsequence) are already sorted for binary search.
        LayerOverlay::Silent(overlay)
    }
}

/// XORs a layer's silent NB flips into the input stack in place. Safe:
/// the live path filters every read of a cell identically (decisions are
/// address-pure), the stack is never re-read after the role swap, and
/// layer traces snapshot outputs before the *next* layer patches them.
pub(crate) fn apply_nb_patches(
    stack: &mut shidiannao_tensor::MapStack<shidiannao_fixed::Fx>,
    nb_flat: bool,
    patches: &[([u64; 3], u16)],
) {
    use shidiannao_fixed::Fx;
    let (w, h) = (stack.width(), stack.height());
    for &(addr, mask) in patches {
        let (map, x, y) = if nb_flat {
            let flat = addr[0] as usize;
            let per_map = w * h;
            let rem = flat % per_map;
            (flat / per_map, rem % w, rem / w)
        } else {
            (addr[0] as usize, addr[1] as usize, addr[2] as usize)
        };
        let fm = stack
            .get_mut(map)
            .expect("recorded NB address within the loaded stack");
        let cell = fm
            .get_mut(x, y)
            .expect("recorded NB address within the map");
        *cell = Fx::from_bits(cell.to_bits() ^ mask as i16);
    }
}

/// Binary-search patch lookup for SB words served during replay; a
/// miss (the overwhelmingly common case) costs one emptiness check.
#[inline]
pub(crate) fn patch_fx(
    patches: &[([u64; 3], u16)],
    addr: [u64; 3],
    v: shidiannao_fixed::Fx,
) -> shidiannao_fixed::Fx {
    if patches.is_empty() {
        return v;
    }
    match patches.binary_search_by(|p| p.0.cmp(&addr)) {
        Ok(i) => shidiannao_fixed::Fx::from_bits(v.to_bits() ^ patches[i].1 as i16),
        Err(_) => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shidiannao_faults::FaultConfig;

    fn rec(addr: [u64; 3], mult: u32) -> ReadRec {
        ReadRec { addr, mult }
    }

    #[test]
    fn access_set_deduplicates_with_multiplicity() {
        let mut s = AccessSet::default();
        s.note([1, 2, 3]);
        s.note([4, 5, 6]);
        s.note([1, 2, 3]);
        s.note([1, 2, 3]);
        let list = s.drain();
        assert_eq!(list, vec![rec([1, 2, 3], 3), rec([4, 5, 6], 1)]);
        // Reusable after draining.
        s.note([7, 7, 7]);
        assert_eq!(s.drain(), vec![rec([7, 7, 7], 1)]);
    }

    #[test]
    fn zero_plan_builds_clean_overlays() {
        let sched = LayerSchedule {
            nb_reads: (0..64).map(|i| rec([0, i, 0], 2)).collect(),
            sb_reads: vec![rec([0, u64::MAX, 0], 4)],
            replayable: true,
            ..LayerSchedule::default()
        };
        assert_eq!(
            build_overlay(&FaultPlan::none(), 0, &sched),
            LayerOverlay::Clean
        );
    }

    #[test]
    fn overlay_counters_scale_with_multiplicity() {
        let plan = FaultPlan::new(FaultConfig::uniform(42, 0.02, SramProtection::None));
        // Find a faulting NB address under this plan at layer 0.
        let addr = (0..100_000u64)
            .map(|a| [0, a, 0])
            .find(|&a| plan.flip_mask(FaultSite::NbIn, 0, a).is_some())
            .expect("a fault fires somewhere");
        let mask = plan
            .flip_mask(FaultSite::NbIn, 0, addr)
            .expect("just found");
        let double = mask.count_ones() > 1;
        let sched = LayerSchedule {
            nb_reads: vec![rec(addr, 5)],
            replayable: true,
            ..LayerSchedule::default()
        };
        match build_overlay(&plan, 0, &sched) {
            LayerOverlay::Silent(s) => {
                assert_eq!(s.delta.nb_faults, 5);
                assert_eq!(s.delta.silent, 5);
                assert_eq!(s.delta.double_bit, if double { 5 } else { 0 });
                assert_eq!(s.nb_patches, vec![(addr, mask)]);
            }
            o => panic!("expected a silent overlay, got {o:?}"),
        }
        // The same fault is layer-epoch separated: a different layer
        // index resolves independently.
        let other = build_overlay(&plan, 3, &sched);
        assert!(matches!(
            other,
            LayerOverlay::Clean | LayerOverlay::Silent(_) | LayerOverlay::Abort
        ));
    }

    #[test]
    fn secded_single_bit_is_counted_but_not_patched() {
        let plan = FaultPlan::new(FaultConfig::uniform(42, 0.02, SramProtection::Secded));
        let addr = (0..100_000u64)
            .map(|a| [0, a, 0])
            .find(|&a| {
                plan.flip_mask(FaultSite::NbIn, 0, a)
                    .is_some_and(|m| m.count_ones() == 1)
            })
            .expect("a single-bit fault fires somewhere");
        let sched = LayerSchedule {
            nb_reads: vec![rec(addr, 3)],
            replayable: true,
            ..LayerSchedule::default()
        };
        match build_overlay(&plan, 0, &sched) {
            LayerOverlay::Silent(s) => {
                assert_eq!(s.delta.corrected, 3);
                assert_eq!(s.delta.silent, 0);
                assert!(s.nb_patches.is_empty());
            }
            o => panic!("expected a silent (corrected) overlay, got {o:?}"),
        }
    }

    #[test]
    fn detected_faults_force_live_decode() {
        let plan = FaultPlan::new(FaultConfig::uniform(42, 0.02, SramProtection::Secded));
        let addr = (0..200_000u64)
            .map(|a| [0, a, 0])
            .find(|&a| {
                plan.flip_mask(FaultSite::NbIn, 0, a)
                    .is_some_and(|m| m.count_ones() == 2)
            })
            .expect("a double-bit fault fires somewhere");
        let sched = LayerSchedule {
            nb_reads: vec![rec(addr, 1)],
            replayable: true,
            ..LayerSchedule::default()
        };
        assert_eq!(build_overlay(&plan, 0, &sched), LayerOverlay::Abort);
    }

    #[test]
    fn nb_patches_apply_to_spatial_and_flat_addresses() {
        use shidiannao_fixed::Fx;
        use shidiannao_tensor::MapStack;
        let mut stack = MapStack::filled(3, 2, 2, Fx::from_f32(0.5));
        let before = stack[1][(2, 1)];
        apply_nb_patches(&mut stack, false, &[([1, 2, 1], 0b100)]);
        assert_eq!(stack[1][(2, 1)].to_bits(), before.to_bits() ^ 0b100);
        // Flat index 7 = map 1, rem 1 → (x 1, y 0).
        let before = stack[1][(1, 0)];
        apply_nb_patches(&mut stack, true, &[([7, 0, 0], 1)]);
        assert_eq!(stack[1][(1, 0)].to_bits(), before.to_bits() ^ 1);
    }

    #[test]
    fn patch_lookup_hits_and_misses() {
        use shidiannao_fixed::Fx;
        let patches = vec![([1, 0, 0], 0b1u16), ([2, 0, 0], 0b10u16)];
        let v = Fx::from_f32(1.0);
        assert_eq!(patch_fx(&patches, [0, 0, 0], v), v);
        assert_eq!(
            patch_fx(&patches, [2, 0, 0], v).to_bits(),
            v.to_bits() ^ 0b10
        );
        assert_eq!(patch_fx(&[], [2, 0, 0], v), v);
    }
}
