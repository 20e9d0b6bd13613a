//! Untrusted-input validation: a runtime container checked against the
//! *source descriptor's* quantifier obligations.
//!
//! The static plan verifier (`sparse-analyze`) proves a synthesized
//! inspector correct **under the descriptor's universal quantifiers** —
//! e.g. that a CSR source's `rowptr` is non-decreasing and spans
//! `0..=NNZ`. Those quantifiers are *assumptions about the input*: a
//! caller can hand the engine a `CsrMatrix` whose public fields violate
//! every one of them, and the proved-correct inspector then produces
//! silent garbage or out-of-bounds accesses. This module is the runtime
//! half of that contract: every obligation the verifier assumed is
//! checked against the concrete container *before binding*, and
//! violations come back as a typed [`ValidationError`] naming the failed
//! check.
//!
//! The obligations come from two places, each written once:
//!
//! * the container's own `validate()` states its structure (lengths,
//!   pointer shape, index bounds, intra-segment ordering, padding) — the
//!   same check its constructors run on what they build;
//! * this module adds what depends on the descriptor rather than the
//!   container: the [`OrderKey`] a coordinate descriptor claims (so the
//!   same `CooMatrix` is accepted under an unordered `COO` descriptor but
//!   rejected under `SCOO` when out of row-major order), and finite
//!   values.
//!
//! Validation is `O(nnz)` with small constants (single pass per array,
//! no allocation); EXPERIMENTS.md and `BENCH_E2E.json` give its cost per
//! source format.

use std::cmp::Ordering;

use spf_codegen::morton::morton_cmp;
use spf_ir::order::{Comparator, OrderKey};

use crate::containers::{in_bounds, Coo3Tensor, CooMatrix, MatrixRef, TensorRef};
use crate::descriptors::FormatDescriptor;
use crate::FormatKind;

/// The named runtime checks, each the dynamic counterpart of a static
/// verifier obligation (see [`InputCheck::static_counterpart`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputCheck {
    /// Parallel arrays must have consistent (declared) lengths.
    ArrayLengths,
    /// A pointer array must start at 0 and end at `NNZ` (its declared
    /// range in Table 1).
    PointerEnds,
    /// A pointer array must be non-decreasing (its monotonic universal
    /// quantifier).
    PointerMonotone,
    /// Every stored index must lie inside the declared dense bounds
    /// (the UF's declared range).
    IndexBounds,
    /// Nonzeros must respect the descriptor's reordering universal
    /// quantifier (row-major, column-major, Morton, …).
    Ordering,
    /// A strict ordering quantifier forbids two nonzeros at the same
    /// coordinates.
    DuplicateCoordinate,
    /// Stored values must be finite (no NaN/±Inf — they break the
    /// bit-exactness contract of every downstream comparison).
    ValueFinite,
    /// Padding slots (ELL sentinel slots, DIA out-of-matrix positions)
    /// must hold zero, and ELL padding must trail the row.
    PaddingZero,
}

impl InputCheck {
    /// Stable kebab-case name, used in error messages and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            InputCheck::ArrayLengths => "array-lengths",
            InputCheck::PointerEnds => "pointer-ends",
            InputCheck::PointerMonotone => "pointer-monotone",
            InputCheck::IndexBounds => "index-bounds",
            InputCheck::Ordering => "ordering",
            InputCheck::DuplicateCoordinate => "duplicate-coordinate",
            InputCheck::ValueFinite => "value-finite",
            InputCheck::PaddingZero => "padding-zero",
        }
    }

    /// The static-verifier diagnostic whose *assumption* this runtime
    /// check discharges, when one exists. The verifier proves the plan
    /// correct given the obligation; this check establishes the
    /// obligation for a concrete input. `None` marks checks with no
    /// static counterpart (they guard runtime-only hazards).
    pub fn static_counterpart(self) -> Option<&'static str> {
        match self {
            InputCheck::ArrayLengths => Some("SA005"),
            InputCheck::PointerEnds => Some("SA004"),
            InputCheck::PointerMonotone => Some("SA006"),
            InputCheck::IndexBounds => Some("SA003"),
            InputCheck::Ordering | InputCheck::DuplicateCoordinate => Some("SA007"),
            InputCheck::ValueFinite | InputCheck::PaddingZero => None,
        }
    }
}

impl std::fmt::Display for InputCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A violated input obligation: which check failed, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// The failed check.
    pub check: InputCheck,
    /// Human-readable specifics (offending index, observed value, …).
    pub detail: String,
}

impl ValidationError {
    pub(crate) fn new(check: InputCheck, detail: impl Into<String>) -> Self {
        ValidationError { check, detail: detail.into() }
    }
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

impl std::error::Error for ValidationError {}

/// Validates any rank-2 container against the obligations of `desc`.
///
/// Dispatches on the descriptor's structural [`FormatKind`] exactly like
/// the bind layer: coordinate-kind descriptors accept both `Coo` and
/// `MortonCoo` containers (the storage is identical; ordering is the
/// *descriptor's* claim and is checked here against `desc`'s
/// [`OrderKey`]). A descriptor/container pairing with no bind path is
/// *not* this module's concern and passes through (`Ok`): the dispatch
/// layer reports it as an unsupported conversion.
///
/// # Errors
/// Returns the first violated obligation.
pub fn validate_matrix(
    desc: &FormatDescriptor,
    m: MatrixRef<'_>,
) -> Result<(), ValidationError> {
    match (desc.kind(), m) {
        (FormatKind::Coo | FormatKind::SortedCoo | FormatKind::MortonCoo, MatrixRef::Coo(c)) => {
            validate_coo_like(desc, c)
        }
        (
            FormatKind::Coo | FormatKind::SortedCoo | FormatKind::MortonCoo,
            MatrixRef::MortonCoo(mc),
        ) => validate_coo_like(desc, &mc.coo),
        (FormatKind::Csr, MatrixRef::Csr(c)) => {
            c.validate()?;
            check_finite(&c.val, "val")
        }
        (FormatKind::Csc, MatrixRef::Csc(c)) => {
            c.validate()?;
            check_finite(&c.val, "val")
        }
        // Slot layouts check finiteness between their shape and their
        // slots (see `DiaMatrix::check`).
        (FormatKind::Dia, MatrixRef::Dia(d)) => d.check(true),
        (FormatKind::Ell, MatrixRef::Ell(e)) => e.check(true),
        // Kind/container mismatch or unsupported kind: the bind layer
        // owns that error.
        _ => Ok(()),
    }
}

/// Validates any order-3 container against the obligations of `desc`;
/// tensor analogue of [`validate_matrix`].
///
/// # Errors
/// Returns the first violated obligation.
pub fn validate_tensor(
    desc: &FormatDescriptor,
    t: TensorRef<'_>,
) -> Result<(), ValidationError> {
    match (desc.kind(), t) {
        (FormatKind::Coo3 | FormatKind::MortonCoo3, TensorRef::Coo3(c)) => {
            validate_coo3_like(desc, c)
        }
        (FormatKind::Coo3 | FormatKind::MortonCoo3, TensorRef::MortonCoo3(mc)) => {
            validate_coo3_like(desc, &mc.coo)
        }
        _ => Ok(()),
    }
}

pub(crate) fn check_finite(vals: &[f64], what: &str) -> Result<(), ValidationError> {
    match vals.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(p) => Err(ValidationError::new(
            InputCheck::ValueFinite,
            format!("{what}[{p}] = {} is not finite", vals[p]),
        )),
    }
}

/// Evaluates one [`OrderKey`] dimension at a dense coordinate, in `i128`
/// so corrupt-but-bounds-checked coordinates can never overflow.
fn eval_key_dim(coeffs: &[i64], constant: i64, coords: &[i64]) -> i128 {
    let mut acc = constant as i128;
    for (c, x) in coeffs.iter().zip(coords) {
        acc += (*c as i128) * (*x as i128);
    }
    acc
}

/// Compares two nonzeros' dense coordinates under `key`. Returns `None`
/// for user-defined comparators, which cannot be evaluated structurally.
fn key_cmp(key: &OrderKey, a: &[i64], b: &[i64]) -> Option<Ordering> {
    match &key.comparator {
        Comparator::Lexicographic => {
            for dim in &key.dims {
                let ka = eval_key_dim(&dim.coeffs, dim.constant, a);
                let kb = eval_key_dim(&dim.coeffs, dim.constant, b);
                match ka.cmp(&kb) {
                    Ordering::Equal => continue,
                    other => return Some(other),
                }
            }
            Some(Ordering::Equal)
        }
        Comparator::Morton => {
            // Catalog Morton keys are identity coordinates; evaluate the
            // affine form anyway so shifted keys stay honest. Coordinates
            // are bounds-checked before ordering runs, so the i64
            // narrowing cannot truncate.
            let ka: Vec<i64> = key
                .dims
                .iter()
                .map(|d| eval_key_dim(&d.coeffs, d.constant, a) as i64)
                .collect();
            let kb: Vec<i64> = key
                .dims
                .iter()
                .map(|d| eval_key_dim(&d.coeffs, d.constant, b) as i64)
                .collect();
            Some(morton_cmp(&ka, &kb))
        }
        Comparator::UserFn(_) => None,
    }
}

/// If every dimension of `key` is a bare coordinate (unit coefficient,
/// zero constant), returns the coordinate positions. This is every
/// catalog key; it makes the per-pair comparison a handful of `i64`
/// compares instead of generic affine evaluation.
fn identity_dims(key: &OrderKey) -> Option<Vec<usize>> {
    key.dims
        .iter()
        .map(|d| {
            if d.constant != 0 {
                return None;
            }
            let mut unit = None;
            for (p, &c) in d.coeffs.iter().enumerate() {
                match c {
                    0 => {}
                    1 if unit.is_none() && p < 3 => unit = Some(p),
                    _ => return None,
                }
            }
            unit
        })
        .collect()
}

/// Checks the reordering quantifier
/// `∀ n1 < n2 : key(n1) < key(n2)` over adjacent nonzeros.
///
/// `coords(n)` yields the dense coordinates of nonzero `n` (already
/// bounds-checked). A `strict` quantifier — every descriptor's — also
/// forbids equal keys over *identical coordinates*, a duplicate nonzero;
/// the Morton containers check the non-strict order, which admits them.
pub(crate) fn check_order(
    key: &OrderKey,
    nnz: usize,
    coords: impl Fn(usize) -> [i64; 3],
    rank: usize,
    strict: bool,
) -> Result<(), ValidationError> {
    // The comparison is chosen once, outside the scan. Identity keys
    // (every catalog key) compare a handful of `i64`s.
    match (&key.comparator, identity_dims(key)) {
        (Comparator::UserFn(_), _) => Ok(()), // user-defined: not checkable
        (Comparator::Lexicographic, Some(dims)) => {
            scan_order(key, nnz, coords, rank, strict, |a, b| {
                let differs = dims.iter().map(|&p| a[p].cmp(&b[p])).find(|o| o.is_ne());
                Some(differs.unwrap_or(Ordering::Equal))
            })
        }
        (Comparator::Morton, Some(dims)) => {
            scan_order(key, nnz, coords, rank, strict, |a, b| {
                // Gather the key coordinates on the stack; `morton_cmp`
                // takes slices, so no per-pair allocation.
                let (mut ka, mut kb) = ([0i64; 3], [0i64; 3]);
                for (t, &p) in dims.iter().enumerate() {
                    (ka[t], kb[t]) = (a[p], b[p]);
                }
                Some(morton_cmp(&ka[..dims.len()], &kb[..dims.len()]))
            })
        }
        _ => scan_order(key, nnz, coords, rank, strict, |a, b| {
            key_cmp(key, &a[..rank], &b[..rank])
        }),
    }
}

/// The adjacent-pair loop of [`check_order`] under one comparison;
/// `cmp` returning `None` ends the check (not evaluable).
fn scan_order(
    key: &OrderKey,
    nnz: usize,
    coords: impl Fn(usize) -> [i64; 3],
    rank: usize,
    strict: bool,
    cmp: impl Fn(&[i64; 3], &[i64; 3]) -> Option<Ordering>,
) -> Result<(), ValidationError> {
    if nnz < 2 {
        return Ok(());
    }
    let mut prev = coords(0);
    for n in 1..nnz {
        let cur = coords(n);
        match cmp(&prev, &cur) {
            None => return Ok(()),
            Some(Ordering::Greater) => {
                return Err(ValidationError::new(
                    InputCheck::Ordering,
                    format!(
                        "nonzeros {} and {} are out of {} order ({:?} then {:?})",
                        n - 1,
                        n,
                        key.comparator,
                        &prev[..rank],
                        &cur[..rank]
                    ),
                ));
            }
            Some(Ordering::Equal) if strict && prev[..rank] == cur[..rank] => {
                return Err(ValidationError::new(
                    InputCheck::DuplicateCoordinate,
                    format!(
                        "nonzeros {} and {} share coordinates {:?} under a strict order",
                        n - 1,
                        n,
                        &prev[..rank]
                    ),
                ));
            }
            Some(_) => {}
        }
        prev = cur;
    }
    Ok(())
}

fn validate_coo_like(
    desc: &FormatDescriptor,
    m: &CooMatrix,
) -> Result<(), ValidationError> {
    // Fast path for the catalog's coordinate descriptors: unordered, or
    // an identity lexicographic key over both coordinates. One fused,
    // branch-light sweep accumulates a single validity flag (`&`, not
    // `&&`, so the loop vectorizes); the precise checks below run only
    // when something failed, to locate and describe it.
    let fast: Option<Option<(usize, usize)>> = match &desc.order {
        None => Some(None),
        Some(k) if matches!(k.comparator, Comparator::Lexicographic) => {
            match identity_dims(k).as_deref() {
                // Both coordinates must appear in the key: equal keys then
                // imply identical coordinates, i.e. a duplicate, so the
                // sweep can demand strictly increasing keys.
                Some(&[p0, p1]) if (p0, p1) == (0, 1) || (p0, p1) == (1, 0) => {
                    Some(Some((p0, p1)))
                }
                _ => None,
            }
        }
        _ => None,
    };
    let (row, col, val) = (&m.row[..], &m.col[..], &m.val[..]);
    if row.len() != col.len() || row.len() != val.len() {
        return m.validate(); // names the length mismatch
    }
    if let Some(order2) = fast {
        let mut ok = true;
        for ((&i, &j), &v) in row.iter().zip(col).zip(val) {
            ok &= in_bounds(i, m.nr) & in_bounds(j, m.nc) & v.is_finite();
        }
        if let Some((p0, p1)) = order2 {
            for (rw, cw) in row.windows(2).zip(col.windows(2)) {
                let a = [rw[0], cw[0]];
                let b = [rw[1], cw[1]];
                ok &= (a[p0], a[p1]) < (b[p0], b[p1]);
            }
        }
        if ok {
            return Ok(());
        }
    }
    m.validate()?;
    check_finite(val, "val")?;
    if let Some(key) = &desc.order {
        check_order(key, m.nnz(), |n| [row[n], col[n], 0], 2, true)?;
    }
    Ok(())
}

fn validate_coo3_like(
    desc: &FormatDescriptor,
    t: &Coo3Tensor,
) -> Result<(), ValidationError> {
    t.validate()?;
    check_finite(&t.val, "val")?;
    if let Some(key) = &desc.order {
        check_order(key, t.nnz(), |n| [t.i0[n], t.i1[n], t.i2[n]], 3, true)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containers::{CscMatrix, CsrMatrix, DiaMatrix, EllMatrix, MortonCooMatrix};
    use crate::descriptors;

    fn coo_sorted() -> CooMatrix {
        CooMatrix::from_triplets(
            3,
            4,
            vec![0, 0, 1, 2],
            vec![0, 2, 3, 0],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn accepts_valid_inputs_under_matching_descriptors() {
        let coo = coo_sorted();
        validate_matrix(&descriptors::coo(), MatrixRef::Coo(&coo)).unwrap();
        validate_matrix(&descriptors::scoo(), MatrixRef::Coo(&coo)).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap();
        let csc = CscMatrix::from_coo(&coo);
        validate_matrix(&descriptors::csc(), MatrixRef::Csc(&csc)).unwrap();
        let ell = EllMatrix::from_coo(&coo);
        validate_matrix(&descriptors::ell(), MatrixRef::Ell(&ell)).unwrap();
        let dia = DiaMatrix::from_coo(&coo);
        validate_matrix(&descriptors::dia(), MatrixRef::Dia(&dia)).unwrap();
        let mcoo = MortonCooMatrix::from_coo(&coo);
        validate_matrix(&descriptors::mcoo(), MatrixRef::MortonCoo(&mcoo)).unwrap();
    }

    #[test]
    fn order_obligation_is_the_descriptors_not_the_containers() {
        // Unsorted nonzeros: fine under COO, an ordering violation under
        // SCOO, and a Morton violation under MCOO.
        let coo =
            CooMatrix::from_triplets(3, 3, vec![2, 0], vec![0, 1], vec![1.0, 2.0]).unwrap();
        validate_matrix(&descriptors::coo(), MatrixRef::Coo(&coo)).unwrap();
        let err = validate_matrix(&descriptors::scoo(), MatrixRef::Coo(&coo)).unwrap_err();
        assert_eq!(err.check, InputCheck::Ordering);
        let err = validate_matrix(&descriptors::mcoo(), MatrixRef::Coo(&coo)).unwrap_err();
        assert_eq!(err.check, InputCheck::Ordering);
    }

    #[test]
    fn duplicate_coordinates_rejected_under_strict_orders() {
        let coo = CooMatrix::from_triplets(
            3,
            3,
            vec![1, 1],
            vec![2, 2],
            vec![1.0, 2.0],
        )
        .unwrap();
        // Unordered COO tolerates duplicates (they accumulate).
        validate_matrix(&descriptors::coo(), MatrixRef::Coo(&coo)).unwrap();
        let err = validate_matrix(&descriptors::scoo(), MatrixRef::Coo(&coo)).unwrap_err();
        assert_eq!(err.check, InputCheck::DuplicateCoordinate);
    }

    #[test]
    fn csr_obligations() {
        let mut csr = CsrMatrix::from_coo(&coo_sorted());
        csr.rowptr[1] = 3;
        csr.rowptr[2] = 2; // non-monotone
        let err = validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap_err();
        assert_eq!(err.check, InputCheck::PointerMonotone);

        let mut csr = CsrMatrix::from_coo(&coo_sorted());
        csr.col[0] = 99;
        let err = validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap_err();
        assert_eq!(err.check, InputCheck::IndexBounds);

        let mut csr = CsrMatrix::from_coo(&coo_sorted());
        csr.col[1] = csr.col[0];
        let err = validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap_err();
        assert_eq!(err.check, InputCheck::DuplicateCoordinate);

        let mut csr = CsrMatrix::from_coo(&coo_sorted());
        csr.val.pop();
        let err = validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap_err();
        assert_eq!(err.check, InputCheck::ArrayLengths);

        let mut csr = CsrMatrix::from_coo(&coo_sorted());
        *csr.rowptr.last_mut().unwrap() += 1;
        let err = validate_matrix(&descriptors::csr(), MatrixRef::Csr(&csr)).unwrap_err();
        assert_eq!(err.check, InputCheck::PointerEnds);
    }

    #[test]
    fn non_finite_values_rejected() {
        let mut coo = coo_sorted();
        coo.val[2] = f64::NAN;
        let err = validate_matrix(&descriptors::coo(), MatrixRef::Coo(&coo)).unwrap_err();
        assert_eq!(err.check, InputCheck::ValueFinite);

        let mut csc = CscMatrix::from_coo(&coo_sorted());
        csc.val[0] = f64::INFINITY;
        let err = validate_matrix(&descriptors::csc(), MatrixRef::Csc(&csc)).unwrap_err();
        assert_eq!(err.check, InputCheck::ValueFinite);
    }

    #[test]
    fn dia_and_ell_padding_obligations() {
        let mut dia = DiaMatrix::from_coo(&coo_sorted());
        dia.data.pop();
        let err = validate_matrix(&descriptors::dia(), MatrixRef::Dia(&dia)).unwrap_err();
        assert_eq!(err.check, InputCheck::ArrayLengths);

        // Nonzero in an out-of-matrix DIA slot.
        let dia = DiaMatrix { nr: 2, nc: 2, off: vec![1], data: vec![5.0, 7.0] };
        let err = validate_matrix(&descriptors::dia(), MatrixRef::Dia(&dia)).unwrap_err();
        assert_eq!(err.check, InputCheck::PaddingZero);

        let mut ell = EllMatrix::from_coo(&coo_sorted());
        // Interior padding: make slot 0 a sentinel while slot 1 stays.
        ell.col[0] = -1;
        ell.data[0] = 0.0;
        let err = validate_matrix(&descriptors::ell(), MatrixRef::Ell(&ell)).unwrap_err();
        assert_eq!(err.check, InputCheck::PaddingZero);
    }

    #[test]
    fn tensor_obligations() {
        let t = Coo3Tensor::from_coords(
            (2, 2, 2),
            vec![1, 0],
            vec![0, 1],
            vec![0, 1],
            vec![1.0, 2.0],
        )
        .unwrap();
        validate_tensor(&descriptors::coo3(), TensorRef::Coo3(&t)).unwrap();
        let err = validate_tensor(&descriptors::scoo3(), TensorRef::Coo3(&t)).unwrap_err();
        assert_eq!(err.check, InputCheck::Ordering);

        let mut short = t.clone();
        short.i2.pop();
        let err = validate_tensor(&descriptors::coo3(), TensorRef::Coo3(&short)).unwrap_err();
        assert_eq!(err.check, InputCheck::ArrayLengths);
    }

    #[test]
    fn mismatched_pairings_pass_through_to_dispatch() {
        // CSR container under a COO descriptor: not validation's call.
        let csr = CsrMatrix::from_coo(&coo_sorted());
        validate_matrix(&descriptors::coo(), MatrixRef::Csr(&csr)).unwrap();
    }

    #[test]
    fn static_counterparts_are_stable() {
        assert_eq!(InputCheck::PointerMonotone.static_counterpart(), Some("SA006"));
        assert_eq!(InputCheck::Ordering.static_counterpart(), Some("SA007"));
        assert_eq!(InputCheck::ValueFinite.static_counterpart(), None);
        assert_eq!(InputCheck::PointerMonotone.as_str(), "pointer-monotone");
    }
}
