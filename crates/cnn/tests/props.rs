//! Property-based tests for the CNN substrate: connection tables, weight
//! containers, geometry resolution, storage accounting, the
//! fixed-vs-float error bound, and the model loader under hostile bytes.

use proptest::prelude::*;
use shidiannao_cnn::{
    io, storage, zoo, ConnectionTable, ConvSpec, FcSpec, NetworkBuilder, PoolSpec,
};
use std::sync::OnceLock;

/// The saved SDNN bytes of every zoo network (the ten benchmarks plus
/// the LRN/LCN/MLP extensions, so every layer tag is covered), built
/// once per test binary.
fn saved_zoo() -> &'static [Vec<u8>] {
    static SAVED: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SAVED.get_or_init(|| {
        zoo::all()
            .into_iter()
            .chain(zoo::extended::all())
            .map(|b| {
                let mut buf = Vec::new();
                io::save(&b.build(1).unwrap(), &mut buf).unwrap();
                buf
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn load_never_panics_on_truncated_or_mutated_models(
        net in 0usize..64,
        keep_permille in prop_oneof![Just(1000usize), 0usize..1000],
        edits in proptest::collection::vec((any::<bool>(), any::<usize>(), any::<u8>()), 0..6),
    ) {
        let saved = saved_zoo();
        let mut bytes = saved[net % saved.len()].clone();
        for (in_header, pos, value) in edits {
            // Half the edits land in the first 64 bytes, where the header
            // and the first layer's declared counts live.
            let span = if in_header { bytes.len().min(64) } else { bytes.len() };
            bytes[pos % span] = value;
        }
        let keep_permille: usize = keep_permille;
        bytes.truncate(bytes.len() * keep_permille / 1000);
        // `Ok` and `Err` are both acceptable; a panic or an allocation
        // abort fails the test.
        let _ = io::load(bytes.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spread_tables_always_hit_the_pair_count(
        in_maps in 1usize..12,
        out_maps in 1usize..12,
        frac in 1usize..=100,
    ) {
        let max_pairs = in_maps * out_maps;
        let pairs = (max_pairs * frac / 100).max(out_maps.min(max_pairs)).min(max_pairs);
        // `spread` requires per-map counts ≤ in_maps; the even split
        // guarantees that whenever pairs ≤ in×out and pairs ≥ out… except
        // when out > pairs. Clamp as zoo does.
        prop_assume!(pairs >= out_maps || pairs >= 1);
        let pairs = pairs.max(out_maps.min(max_pairs)).min(max_pairs);
        prop_assume!(pairs.div_ceil(out_maps) <= in_maps);
        let t = ConnectionTable::spread(in_maps, out_maps, pairs);
        prop_assert_eq!(t.pair_count(), pairs);
        for o in 0..out_maps {
            let conn = t.inputs_of(o);
            prop_assert!(!conn.is_empty() || pairs < out_maps);
            prop_assert!(conn.windows(2).all(|w| w[0] < w[1]), "sorted unique");
            prop_assert!(conn.iter().all(|&i| i < in_maps));
        }
    }

    #[test]
    fn conv_geometry_matches_the_formula(
        w in 4usize..40,
        h in 4usize..40,
        kx in 1usize..6,
        ky in 1usize..6,
        sx in 1usize..4,
        sy in 1usize..4,
    ) {
        prop_assume!(kx <= w && ky <= h);
        let net = NetworkBuilder::new("p", 1, (w, h))
            .conv(ConvSpec::new(2, (kx, ky)).with_stride((sx, sy)))
            .build(0)
            .unwrap();
        let out = net.layers()[0].out_dims();
        prop_assert_eq!(out, ((w - kx) / sx + 1, (h - ky) / sy + 1));
    }

    #[test]
    fn pool_ceiling_never_undercounts(
        w in 4usize..40,
        h in 4usize..40,
        win in 2usize..5,
    ) {
        prop_assume!(win <= w && win <= h);
        let floor = NetworkBuilder::new("f", 1, (w, h))
            .pool(PoolSpec::max((win, win)))
            .build(0)
            .unwrap();
        let ceil = NetworkBuilder::new("c", 1, (w, h))
            .pool(PoolSpec::max((win, win)).with_ceil())
            .build(0)
            .unwrap();
        let (fw, fh) = floor.layers()[0].out_dims();
        let (cw, ch) = ceil.layers()[0].out_dims();
        prop_assert!(cw >= fw && ch >= fh);
        prop_assert!(cw <= fw + 1 && ch <= fh + 1);
        // Ceiling covers every input neuron; floor may drop a remainder.
        prop_assert!(cw * win >= w && ch * win >= h);
    }

    #[test]
    fn storage_total_is_layers_plus_synapses(
        w in 8usize..24,
        maps in 1usize..4,
        out in 1usize..20,
        seed in 0u64..100,
    ) {
        let net = NetworkBuilder::new("p", maps, (w, w))
            .conv(ConvSpec::new(3, (3, 3)))
            .pool(PoolSpec::max((2, 2)))
            .fc(FcSpec::new(out))
            .build(seed)
            .unwrap();
        let r = storage::report(&net);
        let neuron_bytes: usize = r.layer_bytes().iter().map(|&(_, b)| b).sum();
        prop_assert_eq!(r.total_bytes(), neuron_bytes + r.synapse_bytes());
        prop_assert!(r.largest_layer_bytes() <= neuron_bytes);
        let synapses: usize = net.layers().iter().map(|l| l.synapse_count()).sum();
        prop_assert_eq!(r.synapse_bytes(), synapses * 2);
    }

    #[test]
    fn forward_output_shapes_always_match_geometry(
        w in 8usize..20,
        maps in 1usize..3,
        k in 2usize..4,
        seed in 0u64..100,
    ) {
        let net = NetworkBuilder::new("p", maps, (w, w))
            .conv(ConvSpec::new(4, (k, k)))
            .pool(PoolSpec::avg((2, 2)))
            .fc(FcSpec::new(6))
            .build(seed)
            .unwrap();
        let trace = net.forward_fixed(&net.random_input(seed ^ 1));
        for (i, layer) in net.layers().iter().enumerate() {
            let out = trace.layer_output(i).unwrap();
            prop_assert_eq!(out.len(), layer.out_maps());
            prop_assert_eq!(out.map_dims(), layer.out_dims());
        }
    }

    #[test]
    fn fixed_point_error_stays_bounded(
        w in 10usize..18,
        seed in 0u64..200,
    ) {
        // One conv + pool + fc with 1/√fan-in weights: the fixed-point
        // output stays within a small bound of the float output (the §5
        // negligible-loss premise).
        let net = NetworkBuilder::new("p", 1, (w, w))
            .conv(ConvSpec::new(4, (3, 3)))
            .pool(PoolSpec::max((2, 2)))
            .fc(FcSpec::new(8))
            .build(seed)
            .unwrap();
        let input = net.random_input(seed ^ 3);
        let fixed = net.forward_fixed(&input).output();
        let float = net.forward_f32(&input.map(|v| v.to_f32()));
        for (a, b) in fixed.iter().zip(float.last().unwrap().flatten()) {
            prop_assert!((a.to_f32() - b).abs() < 0.15, "{} vs {}", a.to_f32(), b);
        }
    }

    #[test]
    fn builds_are_reproducible(seed in 0u64..1000) {
        let a = NetworkBuilder::new("p", 1, (12, 12))
            .conv(ConvSpec::new(3, (3, 3)))
            .fc(FcSpec::new(5))
            .build(seed)
            .unwrap();
        let b = NetworkBuilder::new("p", 1, (12, 12))
            .conv(ConvSpec::new(3, (3, 3)))
            .fc(FcSpec::new(5))
            .build(seed)
            .unwrap();
        prop_assert_eq!(a, b);
    }
}
