//! Execution-backend contract tests: the native kernel path engages
//! exactly when policy, validation, and registration all line up —
//! with or without plan verification; every other conversion
//! interprets; and the accounting invariant `kernels_hit +
//! interp_fallbacks == conversions` holds unconditionally.

use std::sync::Arc;

use sparse_engine::{Backend, CollectingSubscriber, Engine, EngineConfig, EngineStats};
use sparse_formats::descriptors;
use sparse_formats::{AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CsrMatrix, MortonCoo3Tensor};
use sparse_obs::Stage;

fn sample_scoo(nr: usize, nc: usize, per_row: usize) -> CooMatrix {
    let mut row = Vec::new();
    let mut col = Vec::new();
    let mut val = Vec::new();
    for i in 0..nr as i64 {
        for k in 0..per_row.min(nc) as i64 {
            row.push(i);
            col.push((i * 3 + k * 5) % nc as i64);
            val.push((i * 10 + k) as f64 + 0.25);
        }
    }
    let mut m = CooMatrix::from_triplets(nr, nc, row, col, val).unwrap();
    m.sort_row_major();
    m
}

fn verified() -> Engine {
    Engine::with_config(EngineConfig { verify_plans: true, ..Default::default() })
}

fn assert_invariant(stats: &EngineStats) {
    assert_eq!(
        stats.kernels_hit + stats.interp_fallbacks,
        stats.conversions,
        "every conversion is either a kernel hit or an interpreter execution"
    );
}

#[test]
fn verified_engine_serves_hot_pair_from_kernel() {
    let engine = verified();
    let coo = sample_scoo(20, 16, 3);
    let out = engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &AnyMatrix::Coo(coo.clone()))
        .unwrap();
    assert_eq!(out, AnyMatrix::Csr(CsrMatrix::from_coo(&coo)));
    let stats = engine.stats();
    assert_eq!(stats.kernels_hit, 1, "verified hot pair must hit the kernel");
    assert_eq!(stats.interp_fallbacks, 0);
    assert!(stats.kernel_time > std::time::Duration::ZERO);
    assert_invariant(&stats);
}

#[test]
fn backend_choice_does_not_change_results() {
    let auto = verified();
    let interp_only = Engine::with_config(EngineConfig {
        verify_plans: true,
        backend: Backend::InterpreterOnly,
        ..Default::default()
    });
    let coo = sample_scoo(15, 12, 2);
    for (src, dst, input) in [
        (descriptors::scoo(), descriptors::csr(), AnyMatrix::Coo(coo.clone())),
        (descriptors::scoo(), descriptors::csc(), AnyMatrix::Coo(coo.clone())),
        (descriptors::csr(), descriptors::coo(), AnyMatrix::Csr(CsrMatrix::from_coo(&coo))),
    ] {
        let a = auto.convert(&src, &dst, &input).unwrap();
        let b = interp_only.convert(&src, &dst, &input).unwrap();
        assert_eq!(a, b, "{} -> {}", src.name, dst.name);
    }
    assert!(auto.stats().kernels_hit >= 1);
    assert_eq!(interp_only.stats().kernels_hit, 0, "InterpreterOnly must never use kernels");
    assert_eq!(interp_only.stats().interp_fallbacks, interp_only.stats().conversions);
    assert_invariant(&auto.stats());
    assert_invariant(&interp_only.stats());
}

#[test]
fn default_engine_serves_hot_pair_from_kernel_without_verifying() {
    // The default engine does not verify plans, and kernels do not need
    // it: a registered fingerprint pair plus validated input is the
    // whole gate, so `Engine::new()` runs the kernel.
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(EngineConfig::default(), collector.clone());
    let coo = sample_scoo(10, 10, 2);
    let out = engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &AnyMatrix::Coo(coo.clone()))
        .unwrap();
    assert_eq!(out, AnyMatrix::Csr(CsrMatrix::from_coo(&coo)));
    let stats = engine.stats();
    assert_eq!(stats.kernels_hit, 1, "the default engine must use the registered kernel");
    assert_eq!(stats.interp_fallbacks, 0);
    assert_eq!(stats.plans_verified, 0, "no plan was verified");
    assert!(collector.spans_for(Stage::Verify).is_empty(), "no verify span on the default engine");
    assert_invariant(&stats);
}

#[test]
fn unvalidated_inputs_disable_kernels() {
    // Kernels assume validated inputs; an engine that skips validation
    // must not take the kernel path, and nothing else has to be turned
    // off for that to hold.
    let engine = Engine::with_config(EngineConfig { validate_inputs: false, ..Default::default() });
    let coo = sample_scoo(10, 10, 2);
    engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &AnyMatrix::Coo(coo))
        .unwrap();
    let stats = engine.stats();
    assert_eq!(stats.kernels_hit, 0);
    assert_eq!(stats.interp_fallbacks, 1);
    assert_invariant(&stats);
}

#[test]
fn long_tail_pairs_fall_back_and_invariant_holds() {
    // scoo -> dia has no registered kernel; it must interpret, and the
    // accounting must balance across a mix of hot and long-tail pairs.
    let engine = verified();
    let coo = sample_scoo(12, 12, 2);
    let input = AnyMatrix::Coo(coo);
    engine.convert(&descriptors::scoo(), &descriptors::csr(), &input).unwrap();
    engine.convert(&descriptors::scoo(), &descriptors::dia(), &input).unwrap();
    engine.convert(&descriptors::scoo(), &descriptors::mcoo(), &input).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.conversions, 3);
    assert_eq!(stats.kernels_hit, 2, "csr and mcoo destinations are kernel-backed");
    assert_eq!(stats.interp_fallbacks, 1, "dia has no kernel and must interpret");
    assert_invariant(&stats);
}

#[test]
fn kernel_decline_falls_back_transparently() {
    // Unordered COO tolerates duplicate coordinates, which the sort-based
    // permutation kernels cannot reproduce (the plan collapses them
    // through first-occurrence ranks) — so the kernel declines and the
    // interpreter answers. The decline itself must never surface.
    let engine = verified();
    let dup = CooMatrix::from_triplets(
        3,
        3,
        vec![1, 0, 1, 2],
        vec![2, 1, 2, 0],
        vec![1.0, 2.0, 3.0, 4.0],
    )
    .unwrap();
    let dst = descriptors::scoo().with_suffix("_d");
    let res = engine.convert(&descriptors::coo(), &dst, &AnyMatrix::Coo(dup));
    // Whatever the interpreter decides about duplicate collapse, the
    // accounting must show a fallback, not a kernel hit.
    let stats = engine.stats();
    assert_eq!(stats.kernels_hit, 0, "declined kernels are not hits");
    assert_eq!(stats.interp_fallbacks, 1);
    assert_invariant(&stats);
    drop(res);

    // A duplicate-free input through the same (cached) plan hits the
    // kernel again.
    let clean = sample_scoo(6, 6, 2);
    let out = engine
        .convert(&descriptors::coo(), &dst, &AnyMatrix::Coo(clean.clone()))
        .unwrap();
    let mut want = clean;
    want.sort_row_major();
    assert_eq!(out, AnyMatrix::Coo(want));
    assert_eq!(engine.stats().kernels_hit, 1);
    assert_invariant(&engine.stats());
}

#[test]
fn batches_use_kernels_per_item() {
    let engine = verified();
    let coo = sample_scoo(14, 10, 2);
    let inputs: Vec<AnyMatrix> = (0..6).map(|_| AnyMatrix::Coo(coo.clone())).collect();
    let outs = engine
        .convert_batch(&descriptors::scoo(), &descriptors::csr(), &inputs)
        .unwrap();
    let want = AnyMatrix::Csr(CsrMatrix::from_coo(&coo));
    for out in outs {
        assert_eq!(out.unwrap(), want);
    }
    let stats = engine.stats();
    assert_eq!(stats.conversions, 6);
    assert_eq!(stats.kernels_hit, 6, "every batch item is kernel-eligible");
    assert_invariant(&stats);
}

#[test]
fn tensor_conversions_use_kernels_too() {
    let engine = verified();
    let t = Coo3Tensor::from_coords(
        (6, 5, 7),
        vec![0, 1, 1, 3, 5],
        vec![2, 0, 4, 1, 3],
        vec![1, 6, 0, 2, 5],
        vec![1.0, 2.0, 3.0, 4.0, 5.0],
    )
    .unwrap();
    let out = engine
        .convert_tensor(&descriptors::scoo3(), &descriptors::mcoo3(), &AnyTensor::Coo3(t.clone()))
        .unwrap();
    // scoo3 requires sorted input; this one is lexicographically sorted.
    assert_eq!(out, AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(&t)));
    let stats = engine.stats();
    assert_eq!(stats.kernels_hit, 1);
    assert_invariant(&stats);
}

#[test]
fn default_engine_pays_for_duplicate_declines_and_answers_like_the_interpreter() {
    // The sort-based kernels find duplicate coordinates only after their
    // full sort, then decline; the default engine has paid that sort and
    // then runs the interpreter. The outcome must be the interpreter's
    // (on duplicates that is a wrong container for COO -> SCOO and a typed
    // output error for the Morton destinations; see the engine
    // differential suite), and the wasted attempt must show in the ledger.
    let dup = CooMatrix::from_triplets(
        4,
        4,
        vec![1, 0, 1, 3, 2, 0],
        vec![2, 1, 2, 0, 3, 1],
        vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    )
    .unwrap();
    let dup3 = Coo3Tensor::from_coords(
        (3, 3, 3),
        vec![2, 0, 2, 1],
        vec![1, 0, 1, 2],
        vec![0, 1, 0, 2],
        vec![1.0, 2.0, 3.0, 4.0],
    )
    .unwrap();
    let interp_only = || {
        Engine::with_config(EngineConfig { backend: Backend::InterpreterOnly, ..Default::default() })
    };
    fn same<T: PartialEq + std::fmt::Debug, E: std::fmt::Display>(
        label: &str,
        got: Result<T, E>,
        want: Result<T, E>,
    ) {
        match (got, want) {
            (Ok(g), Ok(w)) => assert_eq!(g, w, "{label}: output must equal the interpreter's"),
            (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{label}"),
            (g, w) => panic!("{label}: outcomes differ: {:?} vs {:?}", g.is_ok(), w.is_ok()),
        }
    }
    let check = |label: &str, engine: &Engine| {
        let stats = engine.stats();
        assert_eq!(stats.kernel_declines, 1, "{label}: the kernel must decline");
        assert!(stats.kernel_declined_time > std::time::Duration::ZERO, "{label}: declined time");
        assert_eq!(stats.kernels_hit, 0, "{label}");
        assert_eq!(
            stats.interp_fallbacks + stats.conversions_failed,
            1,
            "{label}: the interpreter answers"
        );
        assert_eq!(stats.panics_caught, 0, "{label}");
        assert_invariant(&stats);
    };

    let src = descriptors::coo();
    for dst in [descriptors::scoo().with_suffix("_d"), descriptors::mcoo()] {
        let label = format!("COO -> {}", dst.name);
        let input = AnyMatrix::Coo(dup.clone());
        let engine = Engine::new();
        let got = engine.convert(&src, &dst, &input);
        same(&label, got, interp_only().convert(&src, &dst, &input));
        check(&label, &engine);
    }

    let (src, dst) = (descriptors::coo3(), descriptors::mcoo3());
    let input = AnyTensor::Coo3(dup3);
    let engine = Engine::new();
    let got = engine.convert_tensor(&src, &dst, &input);
    same("COO3 -> MCOO3", got, interp_only().convert_tensor(&src, &dst, &input));
    check("COO3 -> MCOO3", &engine);
}
