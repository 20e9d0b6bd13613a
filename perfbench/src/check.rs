//! Output checking against the `sparse_formats` container reference
//! conversions, never against the synthesizer itself.
//!
//! Each distinct output is compared with its reference once, outside any
//! timed region; its digest is kept, and every later output of the same
//! item must reproduce that digest exactly.

use sparse_engine::EngineError;
use sparse_formats::{
    AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, DiaMatrix, InputCheck,
    MortonCoo3Tensor, MortonCooMatrix,
};
use sparse_synthesis::RunError;

use crate::catalog::Fmt;
use crate::workload::{Base, Item};

/// A conversion result from either rank.
pub enum Output {
    M(AnyMatrix),
    T(AnyTensor),
}

/// The validator's check vocabulary: a rejection must name one of these.
const CHECKS: [InputCheck; 8] = [
    InputCheck::ArrayLengths,
    InputCheck::PointerEnds,
    InputCheck::PointerMonotone,
    InputCheck::IndexBounds,
    InputCheck::Ordering,
    InputCheck::DuplicateCoordinate,
    InputCheck::ValueFinite,
    InputCheck::PaddingZero,
];

/// True for the typed rejection a corrupted input must produce.
pub fn is_expected_rejection(err: &EngineError) -> bool {
    match err {
        EngineError::Run(RunError::InvalidInput { check, .. }) => {
            CHECKS.iter().any(|c| c.as_str() == *check)
        }
        _ => false,
    }
}

/// Whether `out` is the reference conversion of `base` into `dst`.
/// Unordered destinations are compared after sorting, ordered ones
/// exactly.
pub fn matches_reference(dst: Fmt, base: &Base, out: &Output) -> bool {
    match (base, out) {
        (Base::M(m), Output::M(out)) => match (dst, out) {
            (Fmt::Coo, AnyMatrix::Coo(c)) => {
                let mut c = c.clone();
                c.sort_row_major();
                c == *m
            }
            (Fmt::Scoo, AnyMatrix::Coo(c)) => c == m,
            (Fmt::Csr, AnyMatrix::Csr(c)) => *c == CsrMatrix::from_coo(m),
            (Fmt::Csc, AnyMatrix::Csc(c)) => *c == CscMatrix::from_coo(m),
            (Fmt::Dia, AnyMatrix::Dia(d)) => *d == DiaMatrix::from_coo(m),
            (Fmt::Mcoo, AnyMatrix::MortonCoo(mc)) => *mc == MortonCooMatrix::from_coo(m),
            _ => false,
        },
        (Base::T(t), Output::T(out)) => match (dst, out) {
            (Fmt::Coo3, AnyTensor::Coo3(c)) => {
                let mut c = c.clone();
                c.sort_by(|a, b| a.cmp(b));
                c == *t
            }
            (Fmt::Scoo3, AnyTensor::Coo3(c)) => c == t,
            (Fmt::Mcoo3, AnyTensor::MortonCoo3(mc)) => *mc == MortonCoo3Tensor::from_coo3(t),
            _ => false,
        },
        _ => false,
    }
}

/// A 64-bit digest over every array and dimension of an output.
pub fn digest(out: &Output) -> u64 {
    match out {
        Output::M(m) => digest_matrix(m),
        Output::T(t) => digest_tensor(t),
    }
}

pub fn digest_matrix(m: &AnyMatrix) -> u64 {
    let mut h = Digest::new();
    match m {
        AnyMatrix::Coo(c) => h.coo(1, c),
        AnyMatrix::MortonCoo(mc) => h.coo(2, &mc.coo),
        AnyMatrix::Csr(c) => {
            h.words(&[3, c.nr as u64, c.nc as u64]);
            h.ints(&c.rowptr);
            h.ints(&c.col);
            h.floats(&c.val);
        }
        AnyMatrix::Csc(c) => {
            h.words(&[4, c.nr as u64, c.nc as u64]);
            h.ints(&c.colptr);
            h.ints(&c.row);
            h.floats(&c.val);
        }
        AnyMatrix::Dia(d) => {
            h.words(&[5, d.nr as u64, d.nc as u64]);
            h.ints(&d.off);
            h.floats(&d.data);
        }
        AnyMatrix::Ell(e) => {
            h.words(&[6, e.nr as u64, e.nc as u64, e.width as u64]);
            h.ints(&e.col);
            h.floats(&e.data);
        }
    }
    h.0
}

pub fn digest_tensor(t: &AnyTensor) -> u64 {
    let mut h = Digest::new();
    match t {
        AnyTensor::Coo3(c) => h.coo3(7, c),
        AnyTensor::MortonCoo3(mc) => h.coo3(8, &mc.coo),
    }
    h.0
}

struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0x51_7C_C1_B7_27_22_0A_95)
    }

    fn coo(&mut self, tag: u64, c: &CooMatrix) {
        self.words(&[tag, c.nr as u64, c.nc as u64]);
        self.ints(&c.row);
        self.ints(&c.col);
        self.floats(&c.val);
    }

    fn coo3(&mut self, tag: u64, t: &Coo3Tensor) {
        self.words(&[tag, t.nr as u64, t.nc as u64, t.nz as u64]);
        self.ints(&t.i0);
        self.ints(&t.i1);
        self.ints(&t.i2);
        self.floats(&t.val);
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn words(&mut self, ws: &[u64]) {
        ws.iter().for_each(|&w| self.word(w));
    }

    fn ints(&mut self, xs: &[i64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.word(x as u64));
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.word(x.to_bits()));
    }
}

/// Per-item outcome bookkeeping for one workload: attempted, failed and
/// expected-rejection counts, plus the digest of each item's verified
/// output.
pub struct Checker {
    digests: Vec<Vec<Option<u64>>>,
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checker {
    /// `items_per_op[i]` is the number of items of op `i`.
    pub fn new(items_per_op: impl Iterator<Item = usize>) -> Checker {
        Checker {
            digests: items_per_op.map(|n| vec![None; n]).collect(),
            attempted: 0,
            failed: 0,
            rejected: 0,
            notes: vec![],
        }
    }

    /// Checks the outcome of item `k` of op `op`; true when it is right.
    pub fn check(
        &mut self,
        op: usize,
        k: usize,
        item: &Item,
        dst: Fmt,
        bases: &[Base],
        outcome: Result<Output, EngineError>,
    ) -> bool {
        let ok = match (&outcome, item.corrupt) {
            (Err(e), true) => is_expected_rejection(e),
            (Ok(out), false) => {
                let d = digest(out);
                match self.digests[op][k] {
                    Some(known) => known == d,
                    None => {
                        let ok = matches_reference(dst, &bases[item.base], out);
                        if ok {
                            self.digests[op][k] = Some(d);
                        }
                        ok
                    }
                }
            }
            _ => false,
        };
        self.record(
            ok,
            item.corrupt,
            || format!("op {op} item {k} -> {dst:?}"),
            &outcome,
        )
    }

    /// Checks a corrupted probe input that is not one of the workload's
    /// ops: it must come back as a typed rejection.
    pub fn expect_rejection(&mut self, what: &str, outcome: Result<Output, EngineError>) -> bool {
        let ok = matches!(&outcome, Err(e) if is_expected_rejection(e));
        self.record(ok, true, || format!("rejection probe {what}"), &outcome)
    }

    fn record(
        &mut self,
        ok: bool,
        corrupt: bool,
        what: impl FnOnce() -> String,
        outcome: &Result<Output, EngineError>,
    ) -> bool {
        self.attempted += 1;
        if ok && corrupt {
            self.rejected += 1;
        }
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                let why = match outcome {
                    Ok(_) if corrupt => "corrupt input accepted".to_string(),
                    Ok(_) => "output differs from the reference".to_string(),
                    Err(e) => e.to_string(),
                };
                self.notes.push(format!("{}: {why}", what()));
            }
        }
        ok
    }
}
