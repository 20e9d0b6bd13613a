//! Parameterized sparse matrix generators.
//!
//! Each generator is deterministic in its seed and produces the structure
//! class named by its function: banded stencils (DIA-friendly), finite-
//! element-style clustered bands, uniform random, and power-law degree
//! distributions (web/circuit-like).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse_formats::{Coo3Tensor, CooMatrix};

/// 5-point Laplacian stencil on an `nx × ny` grid (matrix is
/// `(nx*ny) × (nx*ny)` with 5 diagonals) — the `ecology1` / `jnlbrng1`
/// structure class and the best case for DIA.
pub fn stencil5(nx: usize, ny: usize) -> CooMatrix {
    let n = nx * ny;
    let mut row = Vec::with_capacity(5 * n);
    let mut col = Vec::with_capacity(5 * n);
    let mut val = Vec::with_capacity(5 * n);
    for y in 0..ny {
        for x in 0..nx {
            let i = (y * nx + x) as i64;
            let mut push = |j: i64, v: f64| {
                row.push(i);
                col.push(j);
                val.push(v);
            };
            if y > 0 {
                push(i - nx as i64, -1.0);
            }
            if x > 0 {
                push(i - 1, -1.0);
            }
            push(i, 4.0);
            if x + 1 < nx {
                push(i + 1, -1.0);
            }
            if y + 1 < ny {
                push(i + nx as i64, -1.0);
            }
        }
    }
    CooMatrix::from_triplets(n, n, row, col, val).expect("stencil in range")
}

/// 7-point Laplacian stencil on an `nx × ny × nz` grid — the
/// `atmosmodd` / `Lin` / `Baumann` structure class.
pub fn stencil7(nx: usize, ny: usize, nz: usize) -> CooMatrix {
    let n = nx * ny * nz;
    let mut row = Vec::with_capacity(7 * n);
    let mut col = Vec::with_capacity(7 * n);
    let mut val = Vec::with_capacity(7 * n);
    let plane = (nx * ny) as i64;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = (z * nx * ny + y * nx + x) as i64;
                let mut push = |j: i64, v: f64| {
                    row.push(i);
                    col.push(j);
                    val.push(v);
                };
                if z > 0 {
                    push(i - plane, -1.0);
                }
                if y > 0 {
                    push(i - nx as i64, -1.0);
                }
                if x > 0 {
                    push(i - 1, -1.0);
                }
                push(i, 6.0);
                if x + 1 < nx {
                    push(i + 1, -1.0);
                }
                if y + 1 < ny {
                    push(i + nx as i64, -1.0);
                }
                if z + 1 < nz {
                    push(i + plane, -1.0);
                }
            }
        }
    }
    CooMatrix::from_triplets(n, n, row, col, val).expect("stencil in range")
}

/// Banded matrix with the given diagonal offsets, each populated with
/// probability `fill` — the `majorbasis` (many diagonals) and
/// `dixmaanl` / `denormal` classes.
pub fn banded(n: usize, offsets: &[i64], fill: f64, seed: u64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row = Vec::new();
    let mut col = Vec::new();
    let mut val = Vec::new();
    for i in 0..n as i64 {
        for &o in offsets {
            let j = i + o;
            if j >= 0 && (j as usize) < n && (fill >= 1.0 || rng.gen_bool(fill)) {
                row.push(i);
                col.push(j);
                val.push(rng.gen_range(-1.0..1.0));
            }
        }
    }
    CooMatrix::from_triplets(n, n, row, col, val).expect("band in range")
}

/// `count` evenly spread symmetric diagonal offsets (always including 0).
pub fn spread_offsets(count: usize, max_offset: i64) -> Vec<i64> {
    let mut offs = vec![0i64];
    let half = (count.saturating_sub(1)) / 2;
    for k in 1..=half {
        let o = (k as i64 * max_offset) / half.max(1) as i64;
        offs.push(o.max(k as i64));
        offs.push(-(o.max(k as i64)));
    }
    if count.is_multiple_of(2) && count > 1 {
        offs.push(max_offset + 1);
    }
    offs.sort_unstable();
    offs.dedup();
    offs
}

/// FEM-style matrix: dense `block × block` clusters along the diagonal
/// plus off-diagonal coupling blocks — the `pdb1HYS` / `cant` / `consph`
/// / `pwtk` class (high NNZ per row, clustered).
pub fn fem_like(n: usize, block: usize, couple: usize, seed: u64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let nb = n.div_ceil(block);
    let mut row = Vec::new();
    let mut col = Vec::new();
    let mut val = Vec::new();
    for b in 0..nb {
        let base = b * block;
        // Coupled blocks: self plus `couple` random neighbours.
        let mut partners = vec![b];
        for _ in 0..couple {
            let span = 8.max(nb / 64);
            let lo = b.saturating_sub(span);
            let hi = (b + span).min(nb - 1);
            partners.push(rng.gen_range(lo..=hi));
        }
        partners.sort_unstable();
        partners.dedup();
        for &p in &partners {
            let pbase = p * block;
            for r in 0..block.min(n - base) {
                for c in 0..block.min(n - pbase) {
                    if rng.gen_bool(0.6) {
                        row.push((base + r) as i64);
                        col.push((pbase + c) as i64);
                        val.push(rng.gen_range(-1.0..1.0));
                    }
                }
            }
        }
    }
    let mut m = CooMatrix::from_triplets(n, n, row, col, val).expect("fem in range");
    m.sort_row_major();
    dedup_coo(&mut m);
    m
}

/// Uniform random matrix with (approximately) `nnz` distinct nonzeros —
/// the `mac_econ_fwd500` / `cop20k_A` class.
pub fn random_uniform(nr: usize, nc: usize, nnz: usize, seed: u64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row = Vec::with_capacity(nnz);
    let mut col = Vec::with_capacity(nnz);
    let mut val = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        row.push(rng.gen_range(0..nr) as i64);
        col.push(rng.gen_range(0..nc) as i64);
        val.push(rng.gen_range(-1.0..1.0));
    }
    let mut m = CooMatrix::from_triplets(nr, nc, row, col, val).expect("random in range");
    m.sort_row_major();
    dedup_coo(&mut m);
    m
}

/// Power-law rows: a few very dense rows, a long sparse tail — the
/// `webbase1M` / `scircuit` class.
pub fn power_law(nr: usize, nc: usize, nnz: usize, seed: u64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row = Vec::with_capacity(nnz);
    let mut col = Vec::with_capacity(nnz);
    let mut val = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        // Zipf-ish row selection via inverse power transform.
        let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-12);
        let r = ((nr as f64).powf(u) - 1.0) as usize % nr;
        row.push(r as i64);
        col.push(rng.gen_range(0..nc) as i64);
        val.push(rng.gen_range(-1.0..1.0));
    }
    let mut m = CooMatrix::from_triplets(nr, nc, row, col, val).expect("power in range");
    m.sort_row_major();
    dedup_coo(&mut m);
    m
}

/// A seeded Fisher–Yates permutation of `0..n` (a fixed LCG, so the same
/// seed scrambles identically everywhere); apply it with `permute` to
/// make a sorted container genuinely unordered.
pub fn shuffle_perm(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        perm.swap(i, j);
    }
    perm
}

/// Removes duplicate coordinates from a sorted COO matrix (keeping the
/// first value).
pub fn dedup_coo(m: &mut CooMatrix) {
    debug_assert!(m.is_sorted_row_major());
    let mut w = 0usize;
    for r in 0..m.nnz() {
        if w > 0 && m.row[r] == m.row[w - 1] && m.col[r] == m.col[w - 1] {
            continue;
        }
        m.row[w] = m.row[r];
        m.col[w] = m.col[r];
        m.val[w] = m.val[r];
        w += 1;
    }
    m.row.truncate(w);
    m.col.truncate(w);
    m.val.truncate(w);
}

/// Skewed random order-3 tensor with `nnz` entries — the FROSTT
/// (`darpa` / `fb-m` / `fb-s`) class: heavy-tailed first two modes,
/// near-uniform third.
pub fn skewed_tensor(
    dims: (usize, usize, usize),
    nnz: usize,
    seed: u64,
) -> Coo3Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let (d0, d1, d2) = dims;
    let mut i0 = Vec::with_capacity(nnz);
    let mut i1 = Vec::with_capacity(nnz);
    let mut i2 = Vec::with_capacity(nnz);
    let mut val = Vec::with_capacity(nnz);
    let skew = |rng: &mut StdRng, extent: usize| -> i64 {
        let u: f64 = rng.gen_range(0.0f64..1.0).max(1e-12);
        (((extent as f64).powf(u) - 1.0) as usize % extent) as i64
    };
    for _ in 0..nnz {
        i0.push(skew(&mut rng, d0));
        i1.push(skew(&mut rng, d1));
        i2.push(rng.gen_range(0..d2) as i64);
        val.push(rng.gen_range(-1.0..1.0));
    }
    let mut t = Coo3Tensor::from_coords(dims, i0, i1, i2, val).expect("tensor in range");
    // Sources in Table 4 are lexicographically sorted COO with unique
    // coordinates (rank-based permutation assumes no duplicates).
    t.sort_by(|a, b| a.cmp(b));
    let mut w = 0usize;
    for r in 0..t.nnz() {
        if w > 0 && t.i0[r] == t.i0[w - 1] && t.i1[r] == t.i1[w - 1] && t.i2[r] == t.i2[w - 1]
        {
            continue;
        }
        t.i0[w] = t.i0[r];
        t.i1[w] = t.i1[r];
        t.i2[w] = t.i2[r];
        t.val[w] = t.val[r];
        w += 1;
    }
    t.i0.truncate(w);
    t.i1.truncate(w);
    t.i2.truncate(w);
    t.val.truncate(w);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil5_has_five_diagonals() {
        let m = stencil5(10, 10);
        assert_eq!(m.nr, 100);
        assert_eq!(m.diagonals(), vec![-10, -1, 0, 1, 10]);
        assert!(m.is_sorted_row_major());
    }

    #[test]
    fn stencil7_has_seven_diagonals() {
        let m = stencil7(5, 5, 5);
        assert_eq!(m.diagonals().len(), 7);
    }

    #[test]
    fn banded_respects_offsets() {
        let m = banded(50, &[-2, 0, 3], 1.0, 1);
        assert_eq!(m.diagonals(), vec![-2, 0, 3]);
        // Full fill: each diagonal contributes n - |offset| entries.
        assert_eq!(m.nnz(), 48 + 50 + 47);
    }

    #[test]
    fn spread_offsets_counts() {
        let offs = spread_offsets(22, 300);
        assert!(offs.len() >= 20 && offs.len() <= 23, "{offs:?}");
        assert!(offs.contains(&0));
        let mut sorted = offs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, offs);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_uniform(40, 40, 200, 7), random_uniform(40, 40, 200, 7));
        assert_eq!(power_law(40, 40, 200, 7), power_law(40, 40, 200, 7));
        let a = fem_like(64, 8, 2, 3);
        assert_eq!(a, fem_like(64, 8, 2, 3));
    }

    #[test]
    fn shuffle_perm_is_a_seeded_permutation() {
        let p = shuffle_perm(100, 3);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(p, sorted, "a scramble, not the identity");
        assert_eq!(p, shuffle_perm(100, 3), "same seed, same order");
        assert!(shuffle_perm(0, 3).is_empty());
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut m = CooMatrix::from_triplets(
            3,
            3,
            vec![0, 0, 1],
            vec![1, 1, 2],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap();
        dedup_coo(&mut m);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.val, vec![1.0, 3.0]);
    }

    #[test]
    fn power_law_is_skewed() {
        let m = power_law(1000, 1000, 20_000, 3);
        let mut counts = vec![0usize; 1000];
        for &r in &m.row {
            counts[r as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Top 1% of rows hold far more than 1% of nonzeros.
        let top: usize = counts[..10].iter().sum();
        assert!(top * 10 > m.nnz(), "top={top} nnz={}", m.nnz());
    }

    #[test]
    fn skewed_tensor_sorted_and_in_range() {
        let t = skewed_tensor((100, 100, 20), 5_000, 9);
        assert!(t.nnz() > 0);
        for n in 1..t.nnz() {
            let a = [t.i0[n - 1], t.i1[n - 1], t.i2[n - 1]];
            let b = [t.i0[n], t.i1[n], t.i2[n]];
            assert!(a <= b);
        }
    }
}
