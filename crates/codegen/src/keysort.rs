//! The key-packing sort behind every permutation in the crate:
//! `OrderedList::finalize` and the [`lex_sort_perm`] / [`morton_sort_perm`]
//! kernels all order their entries here, so the interpreter and the native
//! kernels agree by construction.
//!
//! Each entry's key is packed into one integer together with its ordinal
//! (position in the input) in the low bits, and the packed integers are
//! sorted with `sort_unstable`. Ordinals are distinct, so the unstable sort
//! yields exactly the order a stable sort by key would: equal keys stay in
//! input order.
//!
//! * **Lexicographic:** each column is offset by its minimum and packed
//!   into the bits its span needs, the first column most significant.
//!   Negative keys (DIA offsets) pack like any other.
//! * **Morton:** the coordinates are bit-interleaved with
//!   [`morton_spread`], each taking the bits of the largest coordinate.
//!
//! Keys plus ordinal that fit in 64 bits sort as `u64`, those that fit in
//! 128 as `u128`; wider keys fall back to the comparator sort with the same
//! ordinal tie-break, which gives the same permutation.
//!
//! [`lex_sort_perm`]: crate::kernels::lex_sort_perm
//! [`morton_sort_perm`]: crate::kernels::morton_sort_perm

use std::cmp::Ordering;

use crate::morton::{bits_for_extent, morton_cmp_by, morton_spread};

/// The orders the packed sort supports.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PackedOrder {
    /// Lexicographic over the key columns.
    Lexicographic,
    /// Morton / Z-order over the key columns (non-negative keys only).
    Morton,
}

/// Returns the ordinals `0..n` sorted by their `width`-column key in
/// `order`, ties broken by ordinal. Column `d` of entry `p` is `key(p, d)`.
///
/// # Panics
/// Panics on a negative key in Morton order, as [`crate::morton_encode`]
/// does.
pub(crate) fn sort_perm(
    n: usize,
    width: usize,
    order: PackedOrder,
    key: impl Fn(usize, usize) -> i64,
) -> Vec<usize> {
    let lex_cmp = |a: usize, b: usize| {
        (0..width)
            .map(|d| key(a, d).cmp(&key(b, d)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    let ord_bits = bits_for_extent(n);
    match order {
        PackedOrder::Lexicographic => {
            // Already-ordered input (e.g. row-major COO) needs no sort.
            if (1..n).all(|p| lex_cmp(p - 1, p).is_le()) {
                return (0..n).collect();
            }
            let (lo, bits): (Vec<i64>, Vec<u32>) = (0..width)
                .map(|d| {
                    let (min, max) = (0..n).fold((i64::MAX, i64::MIN), |(lo, hi), p| {
                        let v = key(p, d);
                        (lo.min(v), hi.max(v))
                    });
                    // The span fits in u64 even when max - min overflows i64.
                    (
                        min,
                        u64::BITS - (max.wrapping_sub(min) as u64).leading_zeros(),
                    )
                })
                .unzip();
            let key_bits: u32 = bits.iter().sum();
            let pack = |p: usize| {
                (0..width).fold(0u128, |acc, d| {
                    (acc << bits[d]) | key(p, d).wrapping_sub(lo[d]) as u64 as u128
                })
            };
            sort_packed(n, key_bits + ord_bits, ord_bits, pack)
                .unwrap_or_else(|| comparator_sort(n, lex_cmp))
        }
        PackedOrder::Morton => {
            let max = (0..n)
                .flat_map(|p| (0..width).map(move |d| (p, d)))
                .map(|(p, d)| key(p, d))
                .max()
                .unwrap_or(0)
                .max(0);
            let bits = bits_for_extent(max as usize + 1);
            let rank = width as u32;
            let pack = |p: usize| {
                (0..width).fold(0u128, |acc, d| {
                    acc | morton_spread(key(p, d), bits, rank, d as u32)
                })
            };
            sort_packed(n, rank * bits + ord_bits, ord_bits, pack).unwrap_or_else(|| {
                comparator_sort(n, |a, b| morton_cmp_by(width, |d| (key(a, d), key(b, d))))
            })
        }
    }
}

/// Sorts `(code(p) << ord_bits) | p` as `u64` or `u128` and reads the
/// ordinals back; `None`, without calling `code`, when `total_bits`
/// exceeds 128.
fn sort_packed(
    n: usize,
    total_bits: u32,
    ord_bits: u32,
    code: impl Fn(usize) -> u128,
) -> Option<Vec<usize>> {
    let mask = (1u128 << ord_bits) - 1;
    let packed = |p: usize| (code(p) << ord_bits) | p as u128;
    if total_bits <= 64 {
        let mut keys: Vec<u64> = (0..n).map(|p| packed(p) as u64).collect();
        keys.sort_unstable();
        Some(
            keys.into_iter()
                .map(|k| (k as u128 & mask) as usize)
                .collect(),
        )
    } else if total_bits <= 128 {
        let mut keys: Vec<u128> = (0..n).map(packed).collect();
        keys.sort_unstable();
        Some(keys.into_iter().map(|k| (k & mask) as usize).collect())
    } else {
        None
    }
}

/// The fallback for keys too wide to pack: ordinals sorted by `cmp`, ties
/// broken by ordinal.
fn comparator_sort(n: usize, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_unstable_by(|&a, &b| cmp(a, b).then(a.cmp(&b)));
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::morton_cmp;

    fn stable_ref(rows: &[Vec<i64>], order: PackedOrder) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..rows.len()).collect();
        perm.sort_by(|&a, &b| match order {
            PackedOrder::Lexicographic => rows[a].cmp(&rows[b]),
            PackedOrder::Morton => morton_cmp(&rows[a], &rows[b]),
        });
        perm
    }

    fn check(rows: &[Vec<i64>], order: PackedOrder) {
        let width = rows.first().map_or(1, Vec::len);
        let got = sort_perm(rows.len(), width, order, |p, d| rows[p][d]);
        assert_eq!(got, stable_ref(rows, order), "{order:?} on {rows:?}");
    }

    #[test]
    fn matches_stable_sort_on_every_width_tier() {
        // u64 tier; u128 tier (two 30-bit columns plus 6 ordinal bits);
        // comparator tier (two 63-bit columns overflow 128 bits).
        let small: Vec<Vec<i64>> = vec![vec![3, 1], vec![0, 2], vec![3, 1], vec![1, 0]];
        let mid: Vec<Vec<i64>> = (0..50)
            .map(|i| vec![((i * 7919) % 13) << 26, ((i * 31) % 5) << 26])
            .collect();
        let wide: Vec<Vec<i64>> = (0..50)
            .map(|i| vec![(i % 2) * (i64::MAX - i), ((i / 2) % 2) * (i64::MAX - 3 * i)])
            .collect();
        for rows in [&small, &mid, &wide] {
            check(rows, PackedOrder::Lexicographic);
            check(rows, PackedOrder::Morton);
        }
    }

    #[test]
    fn lexicographic_packs_negative_and_extreme_keys() {
        let rows: Vec<Vec<i64>> = [-3i64, 5, -3, 0, i64::MIN, i64::MAX, 5]
            .iter()
            .map(|&k| vec![k])
            .collect();
        check(&rows, PackedOrder::Lexicographic);
    }

    #[test]
    fn sorted_and_empty_inputs() {
        check(&[], PackedOrder::Lexicographic);
        check(&[], PackedOrder::Morton);
        let sorted: Vec<Vec<i64>> = (0..10).map(|i| vec![i / 3, i % 3]).collect();
        assert_eq!(
            sort_perm(sorted.len(), 2, PackedOrder::Lexicographic, |p, d| sorted
                [p][d]),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn morton_rejects_negative_keys() {
        sort_perm(2, 1, PackedOrder::Morton, |p, _| p as i64 - 1);
    }
}
