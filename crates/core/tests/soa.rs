//! Property-based equivalence for the zero-allocation SoA datapath:
//! the `read_into` buffer variants must be bit-identical (values *and*
//! metering) to the legacy `Vec`-returning reads, and trace-free
//! inference (`Session::infer` / `infer_ref`) — schedule replay by
//! default, per-cycle HFSM decode with replay off — must be
//! bit-identical (outputs, statistics, energy, fault counters) to the
//! traced `Session::run`, the legacy one-shot, and the golden model,
//! clean and under an active fault plan.

use proptest::prelude::*;
use shidiannao_cnn::{Activation, ConvSpec, FcSpec, NetworkBuilder, PoolSpec};
use shidiannao_core::{
    Accelerator, AcceleratorConfig, FaultConfig, FaultPlan, LayerStats, NeuronBuffer, ReadScratch,
    SramProtection,
};
use shidiannao_fixed::Fx;
use shidiannao_tensor::{FeatureMap, MapStack};

/// A deterministic pseudo-random stack: every word distinct enough to
/// catch coordinate mix-ups.
fn stack(maps: usize, w: usize, h: usize, seed: u64) -> MapStack<Fx> {
    MapStack::from_fn(w, h, maps, |m| {
        FeatureMap::from_fn(w, h, |x, y| {
            let mix = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(((m * w * h + y * w + x) as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            Fx::from_bits((mix >> 17) as i16)
        })
    })
}

fn loaded_buffer(px: usize, py: usize, stack: MapStack<Fx>) -> NeuronBuffer {
    let mut nb = NeuronBuffer::new(px, py, 256 * 1024);
    nb.load(stack).expect("test stacks fit 256 KB");
    nb
}

fn activations() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::None),
        Just(Activation::Tanh),
        Just(Activation::Sigmoid),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Modes (a)/(b)/(e): `read_tile_into` ≡ `read_tile`, values and
    /// every stats counter (including bank-conflict cycles).
    #[test]
    fn tile_reads_into_match_vec_reads(
        px in 2usize..9,
        py in 2usize..9,
        maps in 1usize..4,
        w in 4usize..24,
        h in 4usize..24,
        tw in 1usize..9,
        th in 1usize..9,
        sx in 1usize..4,
        sy in 1usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!((tw - 1) * sx < w && (th - 1) * sy < h);
        let x0 = w - 1 - (tw - 1) * sx;
        let y0 = h - 1 - (th - 1) * sy;
        let nb = loaded_buffer(px, py, stack(maps, w, h, seed));
        let map = seed as usize % maps;
        let mut s_vec = LayerStats::new("s");
        let mut s_into = LayerStats::new("s");
        let mut scratch = ReadScratch::default();
        let mut out = Vec::new();
        let legacy = nb
            .read_tile(map, (x0, y0), (tw, th), (sx, sy), &mut s_vec)
            .unwrap();
        nb.read_tile_into(map, (x0, y0), (tw, th), (sx, sy), &mut s_into, &mut scratch, &mut out)
            .unwrap();
        prop_assert_eq!(&legacy, &out);
        prop_assert_eq!(s_vec, s_into);

        // Reuse of a dirty scratch/output buffer must not change anything.
        let mut s_again = LayerStats::new("s");
        nb.read_tile_into(map, (0, 0), (tw, th), (sx, sy), &mut s_again, &mut scratch, &mut out)
            .unwrap();
        let from_origin = nb
            .read_tile(map, (0, 0), (tw, th), (sx, sy), &mut s_vec)
            .unwrap();
        prop_assert_eq!(from_origin, out);
    }

    /// Modes (c) and (f): row/column reads, `into` ≡ `Vec`.
    #[test]
    fn row_and_col_reads_into_match_vec_reads(
        px in 2usize..9,
        py in 2usize..9,
        w in 4usize..24,
        h in 4usize..24,
        stride in 1usize..4,
        seed in 0u64..1000,
    ) {
        let nb = loaded_buffer(px, py, stack(2, w, h, seed));
        let n_row = px.min(w.div_ceil(stride));
        let n_col = py.min(h.div_ceil(stride));
        let mut s_vec = LayerStats::new("s");
        let mut s_into = LayerStats::new("s");
        let mut scratch = ReadScratch::default();
        let mut out = Vec::new();

        let legacy = nb.read_row(1, (0, h - 1), n_row, stride, &mut s_vec).unwrap();
        nb.read_row_into(1, (0, h - 1), n_row, stride, &mut s_into, &mut scratch, &mut out)
            .unwrap();
        prop_assert_eq!(&legacy, &out);

        let legacy = nb.read_col(1, (w - 1, 0), n_col, stride, &mut s_vec).unwrap();
        nb.read_col_into(1, (w - 1, 0), n_col, stride, &mut s_into, &mut scratch, &mut out)
            .unwrap();
        prop_assert_eq!(&legacy, &out);
        prop_assert_eq!(s_vec, s_into);
    }

    /// Mode (e) gathers: random (possibly duplicated) coordinates,
    /// `into` ≡ `Vec` including the sorted-dedup conflict model.
    #[test]
    fn gather_reads_into_match_vec_reads(
        px in 2usize..9,
        py in 2usize..9,
        w in 4usize..20,
        h in 4usize..20,
        picks in proptest::collection::vec((0usize..400, 0usize..400), 1..64),
        seed in 0u64..1000,
    ) {
        let nb = loaded_buffer(px, py, stack(1, w, h, seed));
        let coords: Vec<(usize, usize)> =
            picks.iter().map(|&(x, y)| (x % w, y % h)).collect();
        let mut s_vec = LayerStats::new("s");
        let mut s_into = LayerStats::new("s");
        let mut scratch = ReadScratch::default();
        let mut out = Vec::new();
        let legacy = nb.read_gather(0, &coords, &mut s_vec).unwrap();
        nb.read_gather_into(0, &coords, &mut s_into, &mut scratch, &mut out).unwrap();
        prop_assert_eq!(&legacy, &out);
        prop_assert_eq!(s_vec, s_into);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Clean trace-free inference (`Session::infer` / `infer_ref`, with
    /// schedule replay on or off), the traced path (`Session::run`), and
    /// the legacy one-shot (`Accelerator::run`) agree bit-for-bit on
    /// outputs, statistics, and energy across random geometries, with and
    /// without inter-PE propagation — and all match the golden model.
    #[test]
    fn clean_infer_is_bit_identical_to_instrumented_paths(
        in_maps in 1usize..3,
        c_maps in 1usize..5,
        w in 8usize..20,
        h in 8usize..20,
        k in 1usize..5,
        sx in 1usize..3,
        sy in 1usize..3,
        pool_win in 2usize..4,
        overlap in any::<bool>(),
        avg in any::<bool>(),
        out in 1usize..12,
        act in activations(),
        px in 2usize..9,
        py in 2usize..9,
        replay in any::<bool>(),
        propagate in any::<bool>(),
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= w && k <= h);
        let pool_stride = if overlap { (pool_win - 1).max(1) } else { pool_win };
        let pool = if avg {
            PoolSpec::avg((pool_win, pool_win))
        } else {
            PoolSpec::max((pool_win, pool_win))
        }
        .with_stride((pool_stride, pool_stride));
        let net = NetworkBuilder::new("p", in_maps, (w, h))
            .conv(ConvSpec::new(c_maps, (k, k)).with_stride((sx, sy)).with_activation(act))
            .pool(pool)
            .fc(FcSpec::new(out))
            .build(seed);
        let Ok(net) = net else {
            // Degenerate geometry (a layer collapsed to zero outputs).
            return Ok(());
        };
        let input = net.random_input(seed ^ 0x5A5A);
        let golden = net.forward_fixed(&input);
        let mut cfg = AcceleratorConfig::with_pe_grid(px, py);
        cfg.inter_pe_propagation = propagate;
        let accel = Accelerator::new(cfg);

        let legacy = accel.run(&net, &input).expect("network fits");
        let prepared = accel.prepare(&net).expect("network fits");
        let mut session = prepared.session();
        session.set_schedule_replay(replay);
        let run = session.run(&input).expect("instrumented session run");
        let inf = session.infer(&input).expect("clean infer");
        {
            let r = session.infer_ref(&input).expect("clean infer_ref");
            prop_assert_eq!(r.output(), inf.output());
            prop_assert_eq!(r.stats(), inf.stats());
            prop_assert_eq!(r.energy(), inf.energy());
        }

        prop_assert_eq!(legacy.output(), golden.output());
        prop_assert_eq!(run.output(), golden.output());
        prop_assert_eq!(inf.output_flat(), golden.output());
        prop_assert_eq!(run.stats(), legacy.stats());
        prop_assert_eq!(inf.stats(), legacy.stats());
        prop_assert_eq!(run.energy(), legacy.energy());
        prop_assert_eq!(inf.energy(), legacy.energy());
    }

    /// Under an active fault plan, trace-free `infer` (replaying silent
    /// faults through overlays, live-decoding stuck PEs and aborts) must
    /// reproduce the instrumented faulted run exactly — same corrupted
    /// outputs, same statistics, same fault counters.
    #[test]
    fn faulted_infer_is_bit_identical_to_instrumented_run(
        nb_rate in prop_oneof![Just(0.0), Just(1e-3), Just(1e-2)],
        sb_rate in prop_oneof![Just(0.0), Just(1e-3)],
        pe_rate in prop_oneof![Just(0.0), Just(0.05)],
        w in 8usize..16,
        k in 2usize..4,
        seed in 0u64..1000,
    ) {
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(2, (k, k)))
            .pool(PoolSpec::max((2, 2)))
            .fc(FcSpec::new(4))
            .build(seed)
            .unwrap();
        let input = net.random_input(seed ^ 0xFA);
        let mut cfg = FaultConfig::zero();
        cfg.seed = seed;
        cfg.nb_flip_rate = nb_rate;
        cfg.sb_flip_rate = sb_rate;
        cfg.pe_stuck_rate = pe_rate;
        cfg.protection = SramProtection::None;
        let plan = FaultPlan::new(cfg);

        let prepared = Accelerator::new(AcceleratorConfig::paper())
            .prepare(&net)
            .expect("network fits");
        let legacy = prepared
            .session_with_faults(plan)
            .run(&input)
            .expect("unprotected plans never abort");
        let mut session = prepared.session_with_faults(plan);
        let run = session.run(&input).expect("instrumented faulted run");
        let fault_stats_run = *session.fault_stats();
        let inf = session.infer(&input).expect("faulted infer");
        let fault_stats_inf = *session.fault_stats();

        prop_assert_eq!(run.output(), legacy.output());
        prop_assert_eq!(inf.output_flat(), legacy.output());
        prop_assert_eq!(run.stats(), legacy.stats());
        prop_assert_eq!(inf.stats(), legacy.stats());
        prop_assert_eq!(fault_stats_run, *legacy.fault_stats());
        prop_assert_eq!(fault_stats_inf, fault_stats_run);
        if nb_rate == 0.0 && sb_rate == 0.0 && pe_rate == 0.0 {
            // Zero-rate plans leave the output clean.
            prop_assert_eq!(inf.output_flat(), net.forward_fixed(&input).output());
        }
    }
}
