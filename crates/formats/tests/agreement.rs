//! One statement of each container's invariants: for every corruption
//! class, a container's validating constructor and `validate_matrix` /
//! `validate_tensor` under its catalog descriptor reach the same
//! `validate()` and return the same error. Where the verdicts differ on
//! purpose — an obligation the descriptor adds (finite values, a claimed
//! order, a strict order) — the table says so row by row.

use sparse_formats::{
    validate_matrix, validate_tensor, AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix,
    CsrMatrix, DiaMatrix, EllMatrix, FormatDescriptor, InputCheck, MortonCoo3Tensor,
    MortonCooMatrix, ValidationError,
};
use InputCheck::*;

/// Who refuses a corrupted container, naming which check.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// A structural invariant: the constructor and the validator return
    /// the same error.
    Both(InputCheck),
    /// An obligation of the descriptor only: the constructor accepts.
    Validator(InputCheck),
    /// Both refuse, naming different checks.
    Split { ctor: InputCheck, validator: InputCheck },
}
use Expect::*;

type Verdict = Result<(), ValidationError>;

impl Expect {
    fn assert(self, class: &str, ctor: Verdict, v: Verdict) {
        let (want_ctor, want_v) = match self {
            Both(c) => (Some(c), c),
            Validator(c) => (None, c),
            Split { ctor, validator } => (Some(ctor), validator),
        };
        assert_eq!(v.as_ref().map_err(|e| e.check), Err(want_v), "{class}: validator");
        assert_eq!(ctor.as_ref().err().map(|e| e.check), want_ctor, "{class}: constructor");
        if let Both(_) = self {
            assert_eq!(ctor, v, "{class}: detail");
        }
    }
}

/// 4×5, sorted row-major; row 0 and column 1 hold two entries each, so
/// every class has a realization in every layout.
fn sample() -> CooMatrix {
    CooMatrix::from_triplets(
        4,
        5,
        vec![0, 0, 1, 2, 3],
        vec![1, 3, 0, 1, 4],
        vec![1.0, 2.0, 3.0, 4.0, 5.0],
    )
    .unwrap()
}

fn coo(f: fn(&mut CooMatrix)) -> AnyMatrix {
    let mut m = sample();
    f(&mut m);
    AnyMatrix::Coo(m)
}

fn mcoo(f: fn(&mut CooMatrix)) -> AnyMatrix {
    let mut m = MortonCooMatrix::from_coo(&sample());
    f(&mut m.coo);
    AnyMatrix::MortonCoo(m)
}

fn csr(f: fn(&mut CsrMatrix)) -> AnyMatrix {
    let mut m = CsrMatrix::from_coo(&sample());
    f(&mut m);
    AnyMatrix::Csr(m)
}

fn csc(f: fn(&mut CscMatrix)) -> AnyMatrix {
    let mut m = CscMatrix::from_coo(&sample());
    f(&mut m);
    AnyMatrix::Csc(m)
}

fn dia(f: fn(&mut DiaMatrix)) -> AnyMatrix {
    let mut m = DiaMatrix::from_coo(&sample());
    f(&mut m);
    AnyMatrix::Dia(m)
}

fn ell(f: fn(&mut EllMatrix)) -> AnyMatrix {
    let mut m = EllMatrix::from_coo(&sample());
    f(&mut m);
    AnyMatrix::Ell(m)
}

/// Rebuilds `m` from its fields through the container's constructor.
fn construct(m: AnyMatrix) -> Verdict {
    match m {
        AnyMatrix::Coo(c) => CooMatrix::from_triplets(c.nr, c.nc, c.row, c.col, c.val).map(drop),
        AnyMatrix::MortonCoo(m) => MortonCooMatrix::new(m.coo).map(drop),
        AnyMatrix::Csr(c) => CsrMatrix::new(c.nr, c.nc, c.rowptr, c.col, c.val).map(drop),
        AnyMatrix::Csc(c) => CscMatrix::new(c.nr, c.nc, c.colptr, c.row, c.val).map(drop),
        AnyMatrix::Dia(d) => DiaMatrix::new(d.nr, d.nc, d.off, d.data).map(drop),
        AnyMatrix::Ell(e) => EllMatrix::new(e.nr, e.nc, e.width, e.col, e.data).map(drop),
    }
}

#[rustfmt::skip]
fn matrix_table() -> Vec<(&'static str, AnyMatrix, FormatDescriptor, Expect)> {
    use sparse_formats::descriptors::{coo as d_coo, csc as d_csc, csr as d_csr, dia as d_dia,
        ell as d_ell, mcoo as d_mcoo, scoo as d_scoo};
    vec![
        // COO: lengths and bounds are the container's; order is SCOO's.
        ("coo truncate", coo(|m| { m.val.pop(); }), d_coo(), Both(ArrayLengths)),
        ("coo extra length", coo(|m| m.row.push(0)), d_coo(), Both(ArrayLengths)),
        ("coo negative index", coo(|m| m.row[0] = -3), d_coo(), Both(IndexBounds)),
        ("coo oversized index", coo(|m| m.col[0] = 12), d_coo(), Both(IndexBounds)),
        ("coo non-finite", coo(|m| m.val[0] = f64::NAN), d_coo(), Validator(ValueFinite)),
        ("scoo unsorted", coo(|m| m.row.swap(0, 4)), d_scoo(), Validator(Ordering)),
        ("scoo repeat", coo(|m| m.col[1] = m.col[0]), d_scoo(), Validator(DuplicateCoordinate)),
        // MCOO: the container's Morton order admits equal neighbours, the
        // descriptor's strict order does not.
        ("mcoo truncate", mcoo(|m| { m.col.pop(); }), d_mcoo(), Both(ArrayLengths)),
        ("mcoo oversized index", mcoo(|m| m.row[0] = 9), d_mcoo(), Both(IndexBounds)),
        ("mcoo unsorted", mcoo(|m| m.permute(&[4, 1, 2, 3, 0])), d_mcoo(), Both(Ordering)),
        ("mcoo repeat", mcoo(|m| (m.row[1], m.col[1]) = (m.row[0], m.col[0])), d_mcoo(),
            Validator(DuplicateCoordinate)),
        // CSR: rowptr [0, 2, 3, 4, 5], col [1, 3, 0, 1, 4].
        ("csr truncate", csr(|m| { m.val.pop(); }), d_csr(), Both(ArrayLengths)),
        ("csr extra length", csr(|m| m.col.push(0)), d_csr(), Both(ArrayLengths)),
        ("csr short pointer", csr(|m| { m.rowptr.pop(); }), d_csr(), Both(ArrayLengths)),
        ("csr pointer end", csr(|m| m.rowptr[4] = 6), d_csr(), Both(PointerEnds)),
        ("csr swap pointer pair", csr(|m| m.rowptr.swap(1, 2)), d_csr(), Both(PointerMonotone)),
        ("csr negative index", csr(|m| m.col[0] = -1), d_csr(), Both(IndexBounds)),
        ("csr oversized index", csr(|m| m.col[0] = 14), d_csr(), Both(IndexBounds)),
        ("csr repeat", csr(|m| m.col[1] = m.col[0]), d_csr(), Both(DuplicateCoordinate)),
        ("csr unsorted", csr(|m| m.col.swap(0, 1)), d_csr(), Both(Ordering)),
        ("csr non-finite", csr(|m| m.val[2] = f64::INFINITY), d_csr(), Validator(ValueFinite)),
        // CSC: colptr [0, 1, 3, 3, 4, 5], row [1, 0, 2, 0, 3].
        ("csc truncate", csc(|m| { m.val.pop(); }), d_csc(), Both(ArrayLengths)),
        ("csc pointer end", csc(|m| m.colptr[0] = 1), d_csc(), Both(PointerEnds)),
        ("csc swap pointer pair", csc(|m| m.colptr.swap(1, 2)), d_csc(), Both(PointerMonotone)),
        ("csc oversized index", csc(|m| m.row[0] = 11), d_csc(), Both(IndexBounds)),
        ("csc repeat", csc(|m| m.row[2] = m.row[1]), d_csc(), Both(DuplicateCoordinate)),
        ("csc unsorted", csc(|m| m.row.swap(1, 2)), d_csc(), Both(Ordering)),
        ("csc non-finite", csc(|m| m.val[0] = f64::NAN), d_csc(), Validator(ValueFinite)),
        // DIA: off [-1, 1, 3]; slot 0 (row 0, diagonal -1) is padding.
        ("dia truncate", dia(|m| { m.data.pop(); }), d_dia(), Both(ArrayLengths)),
        ("dia unsorted", dia(|m| m.off.swap(0, 1)), d_dia(), Both(Ordering)),
        ("dia repeat", dia(|m| m.off[1] = m.off[0]), d_dia(), Both(DuplicateCoordinate)),
        ("dia oversized offset", dia(|m| m.off[2] = 5), d_dia(), Both(IndexBounds)),
        ("dia nonzero padding", dia(|m| m.data[0] = 5.0), d_dia(), Both(PaddingZero)),
        ("dia non-finite", dia(|m| m.data[1] = f64::NAN), d_dia(), Validator(ValueFinite)),
        // The validator checks finiteness before padding, so a non-finite
        // padding slot is named as such.
        ("dia non-finite padding", dia(|m| m.data[0] = f64::NAN), d_dia(),
            Split { ctor: PaddingZero, validator: ValueFinite }),
        // ELL: width 2, col [1, 3, 0, -1, 1, -1, 4, -1].
        ("ell truncate", ell(|m| { m.data.pop(); }), d_ell(), Both(ArrayLengths)),
        ("ell extra length", ell(|m| m.col.push(0)), d_ell(), Both(ArrayLengths)),
        ("ell negative index", ell(|m| m.col[0] = -1), d_ell(), Both(PaddingZero)),
        ("ell interior padding", ell(|m| (m.col[0], m.data[0]) = (-1, 0.0)), d_ell(),
            Both(PaddingZero)),
        ("ell oversized index", ell(|m| m.col[0] = 9), d_ell(), Both(IndexBounds)),
        ("ell repeat", ell(|m| m.col[1] = m.col[0]), d_ell(), Both(DuplicateCoordinate)),
        ("ell unsorted", ell(|m| m.col.swap(0, 1)), d_ell(), Both(Ordering)),
        ("ell non-finite", ell(|m| m.data[2] = f64::NAN), d_ell(), Validator(ValueFinite)),
    ]
}

#[test]
fn constructors_and_validate_matrix_name_the_same_check() {
    for (class, input, desc, expect) in matrix_table() {
        let validated = validate_matrix(&desc, input.as_ref());
        expect.assert(class, construct(input), validated);
    }
}

/// Dims 3×4×5, sorted lexicographically.
fn tensor() -> Coo3Tensor {
    Coo3Tensor::from_coords(
        (3, 4, 5),
        vec![0, 1, 2, 2],
        vec![1, 0, 3, 3],
        vec![4, 2, 0, 1],
        vec![1.0, 2.0, 3.0, 4.0],
    )
    .unwrap()
}

fn coo3(f: fn(&mut Coo3Tensor)) -> AnyTensor {
    let mut t = tensor();
    f(&mut t);
    AnyTensor::Coo3(t)
}

fn mcoo3(f: fn(&mut Coo3Tensor)) -> AnyTensor {
    let mut t = MortonCoo3Tensor::from_coo3(&tensor());
    f(&mut t.coo);
    AnyTensor::MortonCoo3(t)
}

#[rustfmt::skip]
fn tensor_table() -> Vec<(&'static str, AnyTensor, FormatDescriptor, Expect)> {
    use sparse_formats::descriptors::{coo3 as d_coo3, mcoo3 as d_mcoo3, scoo3 as d_scoo3};
    vec![
        ("coo3 truncate", coo3(|t| { t.i2.pop(); }), d_coo3(), Both(ArrayLengths)),
        ("coo3 negative index", coo3(|t| t.i1[0] = -1), d_coo3(), Both(IndexBounds)),
        ("coo3 oversized index", coo3(|t| t.i2[3] = 5), d_coo3(), Both(IndexBounds)),
        ("coo3 non-finite", coo3(|t| t.val[1] = f64::NAN), d_coo3(), Validator(ValueFinite)),
        ("scoo3 unsorted", coo3(|t| t.i0.swap(0, 3)), d_scoo3(), Validator(Ordering)),
        ("scoo3 repeat", coo3(|t| t.i2[3] = t.i2[2]), d_scoo3(), Validator(DuplicateCoordinate)),
        ("mcoo3 extra length", mcoo3(|t| t.i0.push(0)), d_mcoo3(), Both(ArrayLengths)),
        ("mcoo3 unsorted", mcoo3(|t| t.permute(&[3, 1, 2, 0])), d_mcoo3(), Both(Ordering)),
        ("mcoo3 repeat", mcoo3(|t| (t.i0[1], t.i1[1], t.i2[1]) = (t.i0[0], t.i1[0], t.i2[0])),
            d_mcoo3(), Validator(DuplicateCoordinate)),
    ]
}

#[test]
fn constructors_and_validate_tensor_name_the_same_check() {
    for (class, input, desc, expect) in tensor_table() {
        let validated = validate_tensor(&desc, input.as_ref());
        let constructed = match input {
            AnyTensor::Coo3(t) => {
                Coo3Tensor::from_coords((t.nr, t.nc, t.nz), t.i0, t.i1, t.i2, t.val).map(drop)
            }
            AnyTensor::MortonCoo3(t) => MortonCoo3Tensor::new(t.coo).map(drop),
        };
        expect.assert(class, constructed, validated);
    }
}
