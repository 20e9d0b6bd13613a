//! Every catalog plan that queries an `OrderedList` rank walks its queries
//! in insertion order, so the list answers all of them from its ordinal
//! table: a stats-collecting run of each such plan counts zero rank
//! misses, and its output matches the stats-free run's.

use sparse_formats::{
    AnyMatrix, AnyTensor, CscMatrix, CsrMatrix, EllMatrix, MortonCoo3Tensor, MortonCooMatrix,
};
use sparse_matgen::catalog::{pair_descriptors, MATRIX_PAIRS, TENSOR_PAIRS};
use sparse_matgen::{random_uniform, skewed_tensor};
use sparse_synthesis::{Conversion, SynthesisOptions};

/// Synthesizes the catalog pair `src -> dst`.
fn conversion(src: &str, dst: &str) -> Conversion {
    let (s, d) = pair_descriptors(src, dst);
    Conversion::new(&s, &d, SynthesisOptions::default()).unwrap()
}

/// A reversed order visits the permutation paths of unordered sources.
fn reversed(n: usize) -> Vec<usize> {
    (0..n).rev().collect()
}

#[test]
fn catalog_rank_queries_all_hit_the_ordinal_table() {
    let sorted = random_uniform(40, 36, 300, 7);
    let mut unordered = sorted.clone();
    unordered.permute(&reversed(sorted.nnz()));
    let tensor = skewed_tensor((12, 10, 8), 200, 11);
    let mut unordered3 = tensor.clone();
    unordered3.permute(&reversed(tensor.nnz()));

    let mut with_rank = 0;
    for (src, dst) in MATRIX_PAIRS {
        let conv = conversion(src, dst);
        let input = match src {
            "coo" => AnyMatrix::Coo(unordered.clone()),
            "scoo" => AnyMatrix::Coo(sorted.clone()),
            "csr" => AnyMatrix::Csr(CsrMatrix::from_coo(&sorted)),
            "csc" => AnyMatrix::Csc(CscMatrix::from_coo(&sorted)),
            "mcoo" => AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(&sorted)),
            _ => AnyMatrix::Ell(EllMatrix::from_coo(&sorted)),
        };
        let (out, stats) = conv.run_matrix(&input).unwrap();
        assert_eq!(stats.rank_misses, 0, "{src}->{dst}");
        assert_eq!(out, conv.run_matrix_quiet(&input).unwrap(), "{src}->{dst}");
        with_rank += usize::from(conv.emit_c().contains(".rank("));
    }
    for (src, dst) in TENSOR_PAIRS {
        let conv = conversion(src, dst);
        let input = match src {
            "coo3" => AnyTensor::Coo3(unordered3.clone()),
            "scoo3" => AnyTensor::Coo3(tensor.clone()),
            _ => AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(&tensor)),
        };
        let (out, stats) = conv.run_tensor(&input).unwrap();
        assert_eq!(stats.rank_misses, 0, "{src}->{dst}");
        assert_eq!(out, conv.run_tensor_quiet(&input).unwrap(), "{src}->{dst}");
        with_rank += usize::from(conv.emit_c().contains(".rank("));
    }
    // The six DIA plans build a unique `L_off` list but never rank it.
    assert_eq!(with_rank, 23, "catalog plans that query P.rank");
}
