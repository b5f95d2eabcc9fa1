//! Property-based tests for feature-map and map-stack layout.

use proptest::prelude::*;
use shidiannao_tensor::{FeatureMap, MapStack};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexing_matches_row_major_layout(
        w in 1usize..40,
        h in 1usize..40,
    ) {
        let m = FeatureMap::from_fn(w, h, |x, y| y * w + x);
        for ((x, y), &v) in m.indexed_iter() {
            prop_assert_eq!(v, y * w + x);
            prop_assert_eq!(m[(x, y)], v);
            prop_assert_eq!(m.get(x, y), Some(&v));
        }
        prop_assert_eq!(m.as_slice().len(), w * h);
    }

    #[test]
    fn stack_flatten_is_map_major(
        w in 1usize..10,
        h in 1usize..10,
        n in 1usize..5,
    ) {
        let s = MapStack::from_fn(w, h, n, |m| {
            FeatureMap::from_fn(w, h, move |x, y| (m, x, y))
        });
        let flat = s.flatten();
        prop_assert_eq!(flat.len(), n * w * h);
        for (i, &(m, x, y)) in flat.iter().enumerate() {
            prop_assert_eq!(i, m * w * h + y * w + x);
        }
    }

    #[test]
    fn zip_with_is_elementwise(
        w in 1usize..12,
        h in 1usize..12,
    ) {
        let a = FeatureMap::from_fn(w, h, |x, y| (x + y) as i64);
        let b = FeatureMap::from_fn(w, h, |x, y| (x * y) as i64);
        let c = a.zip_with(&b, |p, q| p + q).unwrap();
        for ((x, y), &v) in c.indexed_iter() {
            prop_assert_eq!(v, (x + y + x * y) as i64);
        }
    }
}
