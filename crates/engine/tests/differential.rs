//! Engine-level differential suite: the evidence behind the kernel gate.
//!
//! A default engine serves a conversion from a native kernel whenever one
//! is registered for the pair's structural fingerprints and the input
//! passed validation. This suite is what makes that safe. Every
//! synthesizable catalog pair (31 matrix, 6 tensor) runs through two
//! default-configured engines, one under `Backend::Auto` and one under
//! `Backend::InterpreterOnly`, on `sparse_matgen` generator inputs plus an
//! edge battery (empty, `0×N`, `N×0`, dense rows and columns, unsorted
//! COO with duplicate coordinates). For every input:
//!
//! * the two backends' outputs are bit-identical (values compared as bit
//!   patterns);
//! * both equal the `sparse_formats` container reference conversion of
//!   the input's stably sorted triplets — except on duplicate
//!   coordinates, where no catalog plan produces the reference and each
//!   pair's outcome is pinned in [`ON_DUPLICATES`];
//! * under `Auto`, a pair whose plan `has_kernel()` is served by the
//!   kernel (a hit, or a decline on duplicate coordinates followed by the
//!   interpreter), and a pair without one never touches a kernel.

use std::fmt::Debug;

use sparse_engine::{Backend, Engine, EngineConfig, EngineError, EngineStats};
use sparse_formats::{
    AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, DiaMatrix, EllMatrix,
    FormatDescriptor, MortonCoo3Tensor, MortonCooMatrix,
};
use sparse_matgen::catalog::{pair_descriptors, MATRIX_PAIRS, TENSOR_PAIRS};
use sparse_matgen::{
    banded, power_law, random_uniform, shuffle_perm, skewed_tensor, spread_offsets, stencil5,
};

/// What a pair with an unordered source returns for repeated coordinates
/// (valid input: the `coo` and `coo3` descriptors carry no uniqueness
/// obligation). Neither outcome is the reference conversion, which sums
/// duplicates; both backends must return the same one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OnDuplicates {
    /// A typed error: the destination orders its coordinates strictly, so
    /// output validation refuses the container.
    Refused,
    /// Silent garbage: a container that is not the input's conversion.
    /// The permutation plans give a repeated coordinate its first
    /// occurrence's `P.rank`, so they write one slot twice and leave
    /// another unwritten; the DIA plan keeps the last duplicate.
    Silent,
}

/// Every catalog pair with an unordered source, pinned so that closing
/// one of these cases must update the table.
const ON_DUPLICATES: [((&str, &str), OnDuplicates); 7] = [
    (("coo", "scoo"), OnDuplicates::Silent),
    (("coo", "csr"), OnDuplicates::Refused),
    (("coo", "csc"), OnDuplicates::Refused),
    (("coo", "dia"), OnDuplicates::Silent),
    (("coo", "mcoo"), OnDuplicates::Refused),
    (("coo3", "scoo3"), OnDuplicates::Silent),
    (("coo3", "mcoo3"), OnDuplicates::Refused),
];

fn on_duplicates(pair: (&str, &str)) -> OnDuplicates {
    ON_DUPLICATES
        .iter()
        .find(|(p, _)| *p == pair)
        .map(|&(_, o)| o)
        .unwrap_or_else(|| panic!("{pair:?}: no duplicate outcome pinned"))
}

/// The two engines under comparison: default configuration, differing
/// only in backend policy.
fn engines() -> (Engine, Engine) {
    let interp = EngineConfig {
        backend: Backend::InterpreterOnly,
        ..Default::default()
    };
    (Engine::new(), Engine::with_config(interp))
}

fn matrix(nr: usize, nc: usize, row: Vec<i64>, col: Vec<i64>) -> CooMatrix {
    let val = (0..row.len()).map(|k| k as f64 * 0.5 + 1.0).collect();
    CooMatrix::from_triplets(nr, nc, row, col, val).unwrap()
}

/// Sorted, duplicate-free matrix inputs: generator families plus the
/// structural edge battery.
fn matrix_bases() -> Vec<(String, CooMatrix)> {
    let mut out = Vec::new();
    for seed in 0..3u64 {
        out.push((format!("uniform/{seed}"), random_uniform(40, 30, 220, seed)));
        out.push((format!("power-law/{seed}"), power_law(50, 20, 260, seed)));
        out.push((
            format!("banded/{seed}"),
            banded(30, &spread_offsets(5, 6), 0.7, seed),
        ));
    }
    out.push(("stencil5".into(), stencil5(6, 5)));
    let edges = [
        ("empty 4x4", matrix(4, 4, vec![], vec![])),
        ("0x7", matrix(0, 7, vec![], vec![])),
        ("7x0", matrix(7, 0, vec![], vec![])),
        ("0x0", matrix(0, 0, vec![], vec![])),
        ("last slot", matrix(3, 3, vec![2], vec![2])),
        (
            "empty rows",
            matrix(6, 4, vec![0, 0, 3, 5], vec![1, 3, 0, 2]),
        ),
        ("dense row", matrix(5, 6, vec![2; 6], (0..6).collect())),
        ("dense column", matrix(6, 3, (0..6).collect(), vec![1; 6])),
        ("1x8 dense", matrix(1, 8, vec![0; 8], (0..8).collect())),
        ("8x1 dense", matrix(8, 1, (0..8).collect(), vec![0; 8])),
    ];
    out.extend(edges.into_iter().map(|(l, m)| (l.to_string(), m)));
    for (_, m) in &mut out {
        m.sort_row_major();
    }
    out
}

/// Unordered COO inputs that repeat coordinates (valid under the `coo`
/// descriptor, which has no ordering quantifier).
fn duplicate_inputs() -> Vec<(String, CooMatrix)> {
    let mut out = vec![(
        "dup small".to_string(),
        matrix(3, 3, vec![1, 0, 1, 2], vec![2, 1, 2, 0]),
    )];
    for seed in 0..2u64 {
        let mut m = random_uniform(20, 16, 90, seed);
        // Repeat every fifth entry with a different value, then scramble.
        for k in (0..m.nnz()).step_by(5) {
            let (i, j, v) = (m.row[k], m.col[k], m.val[k]);
            m.row.push(i);
            m.col.push(j);
            m.val.push(v + 100.0);
        }
        m.permute(&shuffle_perm(m.nnz(), seed + 11));
        out.push((format!("dup uniform/{seed}"), m));
    }
    out
}

/// Presents a sorted base as the source container `src` requires.
fn matrix_source(src: &str, base: &CooMatrix, seed: u64) -> AnyMatrix {
    match src {
        "coo" => {
            let mut m = base.clone();
            m.permute(&shuffle_perm(m.nnz(), seed));
            AnyMatrix::Coo(m)
        }
        "scoo" => AnyMatrix::Coo(base.clone()),
        "csr" => AnyMatrix::Csr(CsrMatrix::from_coo(base)),
        "csc" => AnyMatrix::Csc(CscMatrix::from_coo(base)),
        "mcoo" => AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(base)),
        "ell" => AnyMatrix::Ell(EllMatrix::from_coo(base)),
        _ => unreachable!("not a matrix source: {src}"),
    }
}

/// The container reference conversion of `sorted` (the input's triplets,
/// stably sorted row-major) into `dst`. An unordered destination is
/// compared after the same stable sort.
fn matrix_reference_matches(dst: &str, sorted: &CooMatrix, out: &AnyMatrix) -> bool {
    match (dst, out) {
        ("coo", AnyMatrix::Coo(c)) => {
            let mut c = c.clone();
            c.sort_row_major();
            c == *sorted
        }
        ("scoo", AnyMatrix::Coo(c)) => c == sorted,
        ("csr", AnyMatrix::Csr(c)) => *c == CsrMatrix::from_coo(sorted),
        ("csc", AnyMatrix::Csc(c)) => *c == CscMatrix::from_coo(sorted),
        ("dia", AnyMatrix::Dia(d)) => *d == DiaMatrix::from_coo(sorted),
        ("mcoo", AnyMatrix::MortonCoo(m)) => *m == MortonCooMatrix::from_coo(sorted),
        _ => false,
    }
}

/// Every stored value as its bit pattern: `==` on `f64` cannot tell
/// `0.0` from `-0.0`, and bit-identity is the claim.
fn matrix_value_bits(m: &AnyMatrix) -> Vec<u64> {
    let vals: &[f64] = match m {
        AnyMatrix::Coo(c) => &c.val,
        AnyMatrix::MortonCoo(mc) => &mc.coo.val,
        AnyMatrix::Csr(c) => &c.val,
        AnyMatrix::Csc(c) => &c.val,
        AnyMatrix::Dia(d) => &d.data,
        AnyMatrix::Ell(e) => &e.data,
    };
    vals.iter().map(|v| v.to_bits()).collect()
}

fn tensor_value_bits(t: &AnyTensor) -> Vec<u64> {
    let vals: &[f64] = match t {
        AnyTensor::Coo3(c) => &c.val,
        AnyTensor::MortonCoo3(mc) => &mc.coo.val,
    };
    vals.iter().map(|v| v.to_bits()).collect()
}

/// What the `Auto` engine did with one conversion, read from its stats
/// delta.
#[derive(Debug, PartialEq, Eq)]
enum Route {
    Kernel,
    DeclinedThenInterp,
    Interp,
}

fn route(before: &EngineStats, after: &EngineStats) -> Route {
    let hits = after.kernels_hit - before.kernels_hit;
    let declines = after.kernel_declines - before.kernel_declines;
    // The interpreter ran whether it answered or failed.
    let interp = after.interp_fallbacks - before.interp_fallbacks
        + (after.conversions_failed - before.conversions_failed);
    assert_eq!(
        after.kernel_panics, before.kernel_panics,
        "no kernel may panic"
    );
    match (hits, declines, interp) {
        (1, 0, 0) => Route::Kernel,
        (0, 1, 1) => Route::DeclinedThenInterp,
        (0, 0, 1) => Route::Interp,
        other => panic!("one conversion, impossible route deltas (hit, decline, interp) {other:?}"),
    }
}

fn assert_balanced(label: &str, s: &EngineStats) {
    assert_eq!(
        s.kernels_hit + s.interp_fallbacks,
        s.conversions,
        "{label}: accounting"
    );
    assert_eq!(s.panics_caught, 0, "{label}: no panics");
    assert_eq!(
        s.plans_verified, 0,
        "{label}: default engines verify nothing"
    );
}

/// Asserts both backends produced the same outcome: equal containers with
/// bit-identical values, or errors with the same message.
fn assert_same_outcome<T: PartialEq + Debug>(
    label: &str,
    auto: &Result<T, EngineError>,
    interp: &Result<T, EngineError>,
    value_bits: fn(&T) -> Vec<u64>,
) {
    match (auto, interp) {
        (Ok(a), Ok(i)) => {
            assert_eq!(a, i, "{label}: backends disagree");
            assert_eq!(value_bits(a), value_bits(i), "{label}: value bits differ");
        }
        (Err(a), Err(i)) => assert_eq!(a.to_string(), i.to_string(), "{label}: errors differ"),
        _ => panic!("{label}: one backend failed\n  Auto {auto:?}\n  InterpreterOnly {interp:?}"),
    }
}

/// Runs one matrix input through both engines, asserts they agree, and
/// returns the `Auto` outcome with its route.
fn run_both(
    auto: &Engine,
    interp: &Engine,
    descs: &(FormatDescriptor, FormatDescriptor),
    input: &AnyMatrix,
    label: &str,
) -> (Result<AnyMatrix, EngineError>, Route) {
    let before = auto.stats();
    let a = auto.convert(&descs.0, &descs.1, input);
    let taken = route(&before, &auto.stats());
    let i = interp.convert(&descs.0, &descs.1, input);
    assert_same_outcome(label, &a, &i, matrix_value_bits);
    (a, taken)
}

#[test]
fn every_matrix_pair_agrees_across_backends_and_with_references() {
    let bases = matrix_bases();
    let mut kernel_pairs = 0;
    for (src, dst) in MATRIX_PAIRS {
        let descs = pair_descriptors(src, dst);
        let (auto, interp) = engines();
        let has_kernel = auto.plan(&descs.0, &descs.1).unwrap().has_kernel();
        kernel_pairs += has_kernel as usize;
        for (k, (name, base)) in bases.iter().enumerate() {
            let label = format!("{src}->{dst} [{name}]");
            let input = matrix_source(src, base, k as u64 + 1);
            let (out, taken) = run_both(&auto, &interp, &descs, &input, &label);
            let out = out.unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(
                matrix_reference_matches(dst, base, &out),
                "{label}: reference\n{out:?}"
            );
            let want = if has_kernel {
                Route::Kernel
            } else {
                Route::Interp
            };
            assert_eq!(
                taken, want,
                "{label}: duplicate-free input took the wrong route"
            );
        }
        let stats = auto.stats();
        assert_eq!(
            stats.kernels_hit > 0,
            has_kernel,
            "{src}->{dst}: kernel use vs registry"
        );
        assert_balanced(&format!("{src}->{dst} Auto"), &stats);
        let istats = interp.stats();
        assert_eq!(
            istats.kernels_hit + istats.kernel_declines,
            0,
            "{src}->{dst}: policy"
        );
        assert_balanced(&format!("{src}->{dst} InterpreterOnly"), &istats);
    }
    assert_eq!(
        kernel_pairs, 12,
        "kernel-backed matrix pairs in the catalog"
    );
}

/// The duplicate-coordinate contract for one outcome: exactly what
/// [`ON_DUPLICATES`] pins for the pair, and never the reference.
fn check_duplicate_outcome<T: Debug>(
    label: &str,
    expected: OnDuplicates,
    out: &Result<T, EngineError>,
    matches_reference: impl Fn(&T) -> bool,
) {
    match (expected, out) {
        (OnDuplicates::Silent, Ok(o)) => {
            assert!(
                !matches_reference(o),
                "{label}: now matches the reference; update ON_DUPLICATES"
            )
        }
        (OnDuplicates::Refused, Err(EngineError::Run(_))) => {}
        (expected, out) => panic!("{label}: expected {expected:?}, got {out:?}"),
    }
}

#[test]
fn unsorted_coo_with_duplicates_agrees_across_backends() {
    // Only the unordered `coo` source admits repeated coordinates. A
    // kernel that cannot reproduce the plan's outcome declines (the
    // sort-based ones) or builds a container its destination refuses
    // (the counting-sort ones); the interpreter then answers. Either way
    // both backends agree.
    for (src, dst) in MATRIX_PAIRS.into_iter().filter(|(s, _)| *s == "coo") {
        let descs = pair_descriptors(src, dst);
        let (auto, interp) = engines();
        let has_kernel = auto.plan(&descs.0, &descs.1).unwrap().has_kernel();
        let expected = on_duplicates((src, dst));
        for (name, input) in duplicate_inputs() {
            let label = format!("{src}->{dst} [{name}]");
            let mut sorted = input.clone();
            sorted.sort_row_major();
            let (out, taken) = run_both(&auto, &interp, &descs, &AnyMatrix::Coo(input), &label);
            check_duplicate_outcome(&label, expected, &out, |o| {
                matrix_reference_matches(dst, &sorted, o)
            });
            match (has_kernel, taken) {
                (true, Route::Kernel | Route::DeclinedThenInterp) | (false, Route::Interp) => {}
                (_, taken) => panic!("{label}: route {taken:?} with has_kernel={has_kernel}"),
            }
        }
        let (stats, istats) = (auto.stats(), interp.stats());
        assert_eq!(
            stats.kernels_hit + stats.interp_fallbacks,
            stats.conversions,
            "{src}->{dst}"
        );
        assert_eq!(
            stats.panics_caught + istats.panics_caught,
            0,
            "{src}->{dst}: no panics"
        );
        assert_eq!(
            istats.kernels_hit + istats.kernel_declines,
            0,
            "{src}->{dst}: policy"
        );
    }
}

fn tensor(dims: (usize, usize, usize), coords: &[[i64; 3]]) -> Coo3Tensor {
    let col = |d: usize| coords.iter().map(|c| c[d]).collect();
    let val = (0..coords.len()).map(|k| k as f64 * 0.25 - 1.0).collect();
    Coo3Tensor::from_coords(dims, col(0), col(1), col(2), val).unwrap()
}

fn lex_sort(t: &mut Coo3Tensor) {
    t.sort_by(|a, b| a.cmp(b));
}

fn tensor_source(src: &str, base: &Coo3Tensor, seed: u64) -> AnyTensor {
    match src {
        "coo3" => {
            let mut t = base.clone();
            t.permute(&shuffle_perm(t.nnz(), seed));
            AnyTensor::Coo3(t)
        }
        "scoo3" => AnyTensor::Coo3(base.clone()),
        "mcoo3" => AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(base)),
        _ => unreachable!("not a tensor source: {src}"),
    }
}

fn tensor_reference_matches(dst: &str, sorted: &Coo3Tensor, out: &AnyTensor) -> bool {
    match (dst, out) {
        ("coo3", AnyTensor::Coo3(c)) => {
            let mut c = c.clone();
            lex_sort(&mut c);
            c == *sorted
        }
        ("scoo3", AnyTensor::Coo3(c)) => c == sorted,
        ("mcoo3", AnyTensor::MortonCoo3(m)) => *m == MortonCoo3Tensor::from_coo3(sorted),
        _ => false,
    }
}

#[test]
fn every_tensor_pair_agrees_across_backends_and_with_references() {
    let mut bases: Vec<(String, Coo3Tensor)> = (0..3u64)
        .map(|seed| {
            (
                format!("skewed/{seed}"),
                skewed_tensor((12, 10, 14), 160, seed),
            )
        })
        .collect();
    bases.push(("empty".into(), tensor((3, 3, 3), &[])));
    bases.push(("0x4x4".into(), tensor((0, 4, 4), &[])));
    bases.push(("single".into(), tensor((2, 3, 4), &[[1, 2, 3]])));
    bases.push((
        "dense fiber".into(),
        tensor(
            (2, 2, 6),
            &[
                [1, 0, 0],
                [1, 0, 1],
                [1, 0, 2],
                [1, 0, 3],
                [1, 0, 4],
                [1, 0, 5],
            ],
        ),
    ));
    for (_, t) in &mut bases {
        lex_sort(t);
    }
    // Repeated coordinates, valid only for the unordered source.
    let dup = tensor(
        (3, 3, 3),
        &[[2, 1, 0], [0, 0, 1], [2, 1, 0], [1, 2, 2], [0, 0, 1]],
    );

    let mut kernel_pairs = 0;
    for (src, dst) in TENSOR_PAIRS {
        let (s, d) = pair_descriptors(src, dst);
        let (auto, interp) = engines();
        let has_kernel = auto.plan(&s, &d).unwrap().has_kernel();
        kernel_pairs += has_kernel as usize;
        let mut inputs: Vec<(String, AnyTensor, Coo3Tensor)> = bases
            .iter()
            .enumerate()
            .map(|(k, (name, base))| {
                (
                    name.clone(),
                    tensor_source(src, base, k as u64 + 1),
                    base.clone(),
                )
            })
            .collect();
        if src == "coo3" {
            let mut sorted = dup.clone();
            lex_sort(&mut sorted);
            inputs.push(("duplicates".into(), AnyTensor::Coo3(dup.clone()), sorted));
        }
        for (name, input, sorted) in inputs {
            let label = format!("{src}->{dst} [{name}]");
            let before = auto.stats();
            let a = auto.convert_tensor(&s, &d, &input);
            let taken = route(&before, &auto.stats());
            let i = interp.convert_tensor(&s, &d, &input);
            assert_same_outcome(&label, &a, &i, tensor_value_bits);
            let duplicates = name == "duplicates";
            if duplicates {
                check_duplicate_outcome(&label, on_duplicates((src, dst)), &a, |o| {
                    tensor_reference_matches(dst, &sorted, o)
                });
            } else {
                let out = a.unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(
                    tensor_reference_matches(dst, &sorted, &out),
                    "{label}: reference\n{out:?}"
                );
            }
            let ok = matches!(
                (has_kernel, &taken, duplicates),
                (true, Route::Kernel, _)
                    | (false, Route::Interp, _)
                    | (true, Route::DeclinedThenInterp, true)
            );
            assert!(ok, "{label}: route {taken:?} with has_kernel={has_kernel}");
        }
        let stats = auto.stats();
        assert_eq!(
            stats.kernels_hit > 0,
            has_kernel,
            "{src}->{dst}: kernel use vs registry"
        );
        assert_balanced(&format!("{src}->{dst} Auto"), &stats);
        assert_eq!(interp.stats().kernels_hit, 0, "{src}->{dst}: policy");
        assert_balanced(&format!("{src}->{dst} InterpreterOnly"), &interp.stats());
    }
    assert_eq!(kernel_pairs, 2, "kernel-backed tensor pairs in the catalog");
}
