//! Property test for the `OrderedList` permutation runtime against a
//! reference model: a stable comparator sort followed by a hash map from
//! key to first-occurrence rank (deduplicated under `unique`). Every order,
//! width, duplicate pattern and query sequence must give the model's
//! answers and errors.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use spf_codegen::morton::morton_cmp;
use spf_codegen::runtime::{CmpFn, ListError, ListOrder, OrderedList};

/// The four orders; the custom one compares only the first column,
/// descending, so equal keys need not be adjacent after sorting.
fn list_order(which: usize) -> ListOrder {
    match which {
        0 => ListOrder::Insertion,
        1 => ListOrder::Lexicographic,
        2 => ListOrder::Morton,
        _ => {
            let cmp: CmpFn = Arc::new(|a: &[i64], b: &[i64]| b[0].cmp(&a[0]));
            ListOrder::Custom(cmp)
        }
    }
}

struct Model {
    sorted: Vec<Vec<i64>>,
    ranks: HashMap<Vec<i64>, i64>,
}

impl Model {
    fn new(keys: &[Vec<i64>], order: &ListOrder, unique: bool) -> Model {
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        idx.sort_by(|&a, &b| match order {
            ListOrder::Insertion => Ordering::Equal,
            ListOrder::Lexicographic => keys[a].cmp(&keys[b]),
            ListOrder::Morton => morton_cmp(&keys[a], &keys[b]),
            ListOrder::Custom(f) => f(&keys[a], &keys[b]),
        });
        let mut model = Model {
            sorted: Vec::new(),
            ranks: HashMap::new(),
        };
        for p in idx {
            match model.ranks.entry(keys[p].clone()) {
                Entry::Vacant(e) => {
                    e.insert(model.sorted.len() as i64);
                    model.sorted.push(keys[p].clone());
                }
                Entry::Occupied(_) if !unique => model.sorted.push(keys[p].clone()),
                Entry::Occupied(_) => {}
            }
        }
        model
    }

    fn rank(&self, key: &[i64]) -> Result<i64, ListError> {
        self.ranks
            .get(key)
            .copied()
            .ok_or_else(|| ListError::UnknownKey(key.to_vec()))
    }
}

/// Width, keys with many duplicates (columns drawn from -3..4, scaled so
/// the packed sort's u64, u128 and comparator tiers all occur), order and
/// `unique`. Morton keys are shifted non-negative.
fn arb_list() -> impl Strategy<Value = (usize, Vec<Vec<i64>>, usize, bool)> {
    let scale = prop_oneof![Just(1i64), Just(1_000_003), Just(1i64 << 40)];
    (1usize..=4, 0usize..4, scale, any::<bool>()).prop_flat_map(|(w, order, scale, unique)| {
        let shift = if order == 2 { 3 } else { 0 };
        let keys = vec(vec(-3i64..4, w), 0..48).prop_map(move |keys| {
            keys.into_iter()
                .map(|k| k.into_iter().map(|c| (c + shift) * scale).collect())
                .collect::<Vec<Vec<i64>>>()
        });
        (Just(w), keys, Just(order), Just(unique))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn ordered_list_matches_hash_map_model(
        (w, keys, which, unique) in arb_list(),
        swaps in vec((any::<usize>(), any::<usize>()), 0..64),
    ) {
        let order = list_order(which);
        let model = Model::new(&keys, &order, unique);
        let mut list = OrderedList::new(w, order, unique);
        let never = vec![1i64 << 50; w];

        prop_assert_eq!(list.rank(&never), Err(ListError::NotFinalized));
        prop_assert_eq!(list.key_col(0, 0), Err(ListError::NotFinalized));
        for k in &keys {
            list.insert(k).unwrap();
        }
        prop_assert_eq!(
            list.insert(&vec![0; w + 1]),
            Err(ListError::WidthMismatch { expect: w, got: w + 1 })
        );
        prop_assert_eq!(list.len(), keys.len());
        list.finalize();
        list.finalize();
        prop_assert_eq!(list.insert(&vec![0; w]), Err(ListError::AlreadyFinalized));
        prop_assert_eq!(
            list.rank(&vec![0; w + 1]),
            Err(ListError::WidthMismatch { expect: w, got: w + 1 })
        );
        prop_assert_eq!(list.key_col(0, w), Err(ListError::BadColumn(w)));

        prop_assert_eq!(list.len(), model.sorted.len());
        prop_assert_eq!(list.is_empty(), keys.is_empty());
        for (pos, row) in model.sorted.iter().enumerate() {
            for (d, &v) in row.iter().enumerate() {
                prop_assert_eq!(list.key_col(pos, d), Ok(v));
            }
        }

        // Insertion order, then the same walk again, then a shuffle with a
        // never-inserted key after every fourth query.
        let mut shuffled = keys.clone();
        for &(a, b) in &swaps {
            if !shuffled.is_empty() {
                let n = shuffled.len();
                shuffled.swap(a % n, b % n);
            }
        }
        let mut queries: Vec<&[i64]> = keys.iter().chain(&keys).map(Vec::as_slice).collect();
        for (i, k) in shuffled.iter().enumerate() {
            queries.push(k);
            if i % 4 == 3 {
                queries.push(&never);
            }
        }
        queries.push(&never);
        let copy = list.clone();
        for q in queries {
            prop_assert_eq!(list.rank(q), model.rank(q), "query {:?}", q);
        }
        // A clone carries the same ranks.
        for k in &keys {
            prop_assert_eq!(copy.rank(k), model.rank(k));
        }
    }
}
