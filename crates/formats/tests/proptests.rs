//! Property-based tests on the runtime containers: every format's
//! reference conversion round-trips through COO/dense, validates its own
//! invariants, and computes the same SpMV.

use proptest::prelude::*;
use sparse_formats::{
    CooMatrix, CscMatrix, CsrMatrix, DiaMatrix, EllMatrix, MortonCooMatrix,
};

fn arb_coo() -> impl Strategy<Value = CooMatrix> {
    (1usize..20, 1usize..20)
        .prop_flat_map(|(nr, nc)| {
            let coords = proptest::collection::btree_set((0..nr, 0..nc), 0..48);
            (Just(nr), Just(nc), coords)
        })
        .prop_map(|(nr, nc, coords)| {
            let row: Vec<i64> = coords.iter().map(|&(i, _)| i as i64).collect();
            let col: Vec<i64> = coords.iter().map(|&(_, j)| j as i64).collect();
            // Values strictly nonzero so padding drops are detectable.
            let val: Vec<f64> = (0..coords.len()).map(|k| k as f64 + 1.0).collect();
            CooMatrix::from_triplets(nr, nc, row, col, val).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn csr_round_trip_and_validate(coo in arb_coo()) {
        let csr = CsrMatrix::from_coo(&coo);
        csr.validate().unwrap();
        prop_assert_eq!(csr.to_dense(), coo.to_dense());
        let mut back = csr.to_coo();
        back.sort_row_major();
        let mut orig = coo;
        orig.sort_row_major();
        prop_assert_eq!(back, orig);
    }

    #[test]
    fn csc_round_trip_and_validate(coo in arb_coo()) {
        let csc = CscMatrix::from_coo(&coo);
        csc.validate().unwrap();
        prop_assert_eq!(csc.to_dense(), coo.to_dense());
    }

    #[test]
    fn dia_round_trip_and_validate(coo in arb_coo()) {
        let dia = DiaMatrix::from_coo(&coo);
        dia.validate().unwrap();
        prop_assert_eq!(dia.to_dense(), coo.to_dense());
        prop_assert_eq!(dia.nd(), coo.diagonals().len());
    }

    #[test]
    fn ell_round_trip_and_validate(coo in arb_coo()) {
        let ell = EllMatrix::from_coo(&coo);
        ell.validate().unwrap();
        prop_assert_eq!(ell.to_dense(), coo.to_dense());
    }

    #[test]
    fn mcoo_is_a_permutation(coo in arb_coo()) {
        let m = MortonCooMatrix::from_coo(&coo);
        m.validate().unwrap();
        prop_assert_eq!(m.coo.to_dense(), coo.to_dense());
        prop_assert_eq!(m.nnz(), coo.nnz());
    }

    #[test]
    fn all_spmv_agree(coo in arb_coo()) {
        let x: Vec<f64> = (0..coo.nc).map(|k| ((k * 7 % 5) as f64) - 2.0).collect();
        let want = coo.to_dense().spmv(&x);
        let close = |got: Vec<f64>| {
            got.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-9)
        };
        prop_assert!(close(coo.spmv(&x)));
        prop_assert!(close(CsrMatrix::from_coo(&coo).spmv(&x)));
        prop_assert!(close(CscMatrix::from_coo(&coo).spmv(&x)));
        prop_assert!(close(DiaMatrix::from_coo(&coo).spmv(&x)));
        prop_assert!(close(EllMatrix::from_coo(&coo).spmv(&x)));
    }

    /// Morton comparison is a strict weak ordering consistent with the
    /// encoded codes (checked exhaustively elsewhere; sampled here at
    /// larger coordinates).
    #[test]
    fn morton_cmp_consistent_with_codes(
        a in (0i64..1 << 20, 0i64..1 << 20),
        b in (0i64..1 << 20, 0i64..1 << 20),
    ) {
        use spf_codegen::morton::{morton_cmp, morton_encode};
        let ca = morton_encode(&[a.0, a.1], 21);
        let cb = morton_encode(&[b.0, b.1], 21);
        prop_assert_eq!(morton_cmp(&[a.0, a.1], &[b.0, b.1]), ca.cmp(&cb));
    }
}

/// Arbitrary small order-3 tensor with unique coordinates.
fn arb_coo3() -> impl Strategy<Value = sparse_formats::Coo3Tensor> {
    (2usize..12, 2usize..12, 2usize..12)
        .prop_flat_map(|(d0, d1, d2)| {
            let coords = proptest::collection::btree_set((0..d0, 0..d1, 0..d2), 0..40);
            (Just((d0, d1, d2)), coords)
        })
        .prop_map(|(dims, coords)| {
            let i0: Vec<i64> = coords.iter().map(|&(a, _, _)| a as i64).collect();
            let i1: Vec<i64> = coords.iter().map(|&(_, b, _)| b as i64).collect();
            let i2: Vec<i64> = coords.iter().map(|&(_, _, c)| c as i64).collect();
            let val: Vec<f64> = (0..coords.len()).map(|k| k as f64 + 1.0).collect();
            sparse_formats::Coo3Tensor::from_coords(dims, i0, i1, i2, val).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hicoo_round_trip_and_ttv(t in arb_coo3(), bits in 1u32..4) {
        use sparse_formats::{HicooTensor, MortonCoo3Tensor};
        let h = HicooTensor::from_coo3(&t, bits);
        h.validate().unwrap();
        prop_assert_eq!(h.to_coo3(), MortonCoo3Tensor::from_coo3(&t).coo);
        let x: Vec<f64> = (0..t.nz).map(|k| (k % 3) as f64).collect();
        prop_assert_eq!(h.ttv_mode2(&x), t.ttv_mode2(&x));
    }
}
