//! Runtime sparse containers: the concrete data structures the format
//! descriptors describe, with validation against the descriptor
//! invariants, reference conversions (the test oracles for synthesized
//! code), and per-format SpMV/TTV kernels.
//!
//! Each container's `validate()` is the one statement of its structural
//! invariants (lengths, pointer shape, index bounds, intra-segment
//! ordering, padding). Constructors run it on what they build, and
//! [`crate::validate_matrix`] / [`crate::validate_tensor`] run it on
//! untrusted inputs before adding the descriptor's own obligations.

pub mod any;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod ell;
pub mod hicoo;
pub mod mcoo;

pub use any::{AnyMatrix, AnyTensor, MatrixRef, TensorRef};
pub use coo::{Coo3Tensor, CooMatrix};
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use dia::DiaMatrix;
pub use ell::EllMatrix;
pub use hicoo::HicooTensor;
pub use mcoo::{MortonCoo3Tensor, MortonCooMatrix};

use crate::validate::{InputCheck, ValidationError};

/// `0 <= v < extent`, compared in `u64` so absurd extents never wrap.
#[inline]
pub(crate) fn in_bounds(v: i64, extent: usize) -> bool {
    v >= 0 && (v as u64) < extent as u64
}

/// The compressed formats' pointer obligations: length `n_major + 1`,
/// ends `0..=nnz` (its declared range), non-decreasing (its monotonic
/// quantifier). Once it holds, slicing by the pointer's windows is safe.
pub(crate) fn check_pointer(
    ptr: &[i64],
    n_major: usize,
    nnz: usize,
    what: &str,
) -> Result<(), ValidationError> {
    if ptr.len() != n_major + 1 {
        return Err(ValidationError::new(
            InputCheck::ArrayLengths,
            format!("{what} has length {}, expected {}", ptr.len(), n_major + 1),
        ));
    }
    let (first, last) = (ptr[0], ptr[n_major]);
    if first != 0 || last != nnz as i64 {
        return Err(ValidationError::new(
            InputCheck::PointerEnds,
            format!("{what} spans {first}..={last}, expected 0..={nnz}"),
        ));
    }
    if let Some(p) = ptr.windows(2).position(|w| w[0] > w[1]) {
        return Err(ValidationError::new(
            InputCheck::PointerMonotone,
            format!("{what}[{p}] = {} exceeds {what}[{}] = {}", ptr[p], p + 1, ptr[p + 1]),
        ));
    }
    Ok(())
}

/// The compressed formats' minor-index obligations: bounds, then strictly
/// increasing indices inside each segment (the reordering quantifier,
/// which also forbids duplicates). `ptr` must already satisfy
/// [`check_pointer`] against `idx`. Each sweep folds a flag without
/// branching (so it vectorizes) and searches for the culprit only when
/// the flag says there is one.
pub(crate) fn check_compressed_minor(
    ptr: &[i64],
    idx: &[i64],
    extent: usize,
    what: &str,
) -> Result<(), ValidationError> {
    let in_range = |j: &i64| in_bounds(*j, extent);
    if !idx.iter().fold(true, |ok, j| ok & in_range(j)) {
        if let Some(n) = idx.iter().position(|j| !in_range(j)) {
            return Err(ValidationError::new(
                InputCheck::IndexBounds,
                format!("{what}[{n}] = {} outside 0..{extent}", idx[n]),
            ));
        }
    }
    for (w, seg) in ptr.windows(2).enumerate() {
        let seg = &idx[seg[0] as usize..seg[1] as usize];
        if seg.windows(2).fold(true, |ok, p| ok & (p[0] < p[1])) {
            continue;
        }
        let Some(p) = seg.windows(2).find(|p| p[0] >= p[1]) else {
            continue;
        };
        return Err(if p[0] == p[1] {
            ValidationError::new(
                InputCheck::DuplicateCoordinate,
                format!("{what} repeats index {} inside segment {w}", p[1]),
            )
        } else {
            ValidationError::new(
                InputCheck::Ordering,
                format!("{what} not increasing inside segment {w}: {} then {}", p[0], p[1]),
            )
        });
    }
    Ok(())
}
