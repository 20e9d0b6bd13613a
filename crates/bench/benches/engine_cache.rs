//! Engine serving-layer benchmark: plan-cache amortization and batch
//! throughput.
//!
//! Measurements on a >=100k-nnz COO -> CSR conversion:
//!
//! 1. **plan acquisition** — what the cache eliminates: synthesizing +
//!    lowering a plan from scratch vs fetching it from a warm cache.
//!    This is the headline ratio (required >=10x; in practice several
//!    hundred x).
//! 2. **end-to-end** — a cold engine's first `convert` (synthesis + run)
//!    vs warm converts (run only). On large inputs the inspector
//!    execution dominates, so this ratio is modest by design — the cache
//!    removes the synthesis term, it cannot make execution faster.
//! 3. **overhead gates** — input validation and the observability
//!    layer's instrumentation (with the default `NoopSubscriber`) are
//!    each asserted to cost <5% next to raw execution. The
//!    instrumentation gate runs the interpreter on both sides.
//! 4. **batch** — `convert_batch` over copies of the input at several
//!    thread counts (wall-clock scaling requires >1 available CPU; the
//!    available parallelism is printed alongside).
//!
//! Run with `cargo bench -p sparse-bench --bench engine_cache`.

use std::time::{Duration, Instant};

use sparse_bench::run_bare;
use sparse_engine::{Backend, Engine, EngineConfig};
use sparse_formats::{descriptors, AnyMatrix, CooMatrix};
use sparse_synthesis::{bind_matrix, extract_matrix};
use spf_codegen::runtime::RtEnv;

/// Deterministic scattered matrix, sorted row-major, ~143k nnz.
fn large_scoo() -> CooMatrix {
    let (nr, nc, stride) = (1000usize, 1000usize, 7usize);
    let mut row = Vec::new();
    let mut col = Vec::new();
    let mut val = Vec::new();
    for k in (0..nr * nc).step_by(stride) {
        row.push((k / nc) as i64);
        col.push((k % nc) as i64);
        val.push((k % 97) as f64 + 1.0);
    }
    CooMatrix::from_triplets(nr, nc, row, col, val).unwrap()
}

fn time<R>(mut f: impl FnMut() -> R) -> Duration {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed()
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    const SAMPLES: usize = 5;
    let src = descriptors::scoo();
    let dst = descriptors::csr();
    let input = AnyMatrix::Coo(large_scoo());
    let nnz = input.nnz();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "engine_cache: COO -> CSR, {nnz} nnz, {SAMPLES} samples each, {cpus} CPU(s) available"
    );

    // 1. Plan acquisition: synthesis from scratch vs warm-cache fetch.
    let cold_plan = median(
        (0..SAMPLES)
            .map(|_| {
                let engine = Engine::new();
                time(|| engine.plan(&src, &dst).unwrap())
            })
            .collect(),
    );
    let engine = Engine::new();
    engine.plan(&src, &dst).unwrap();
    let warm_plan = median(
        (0..SAMPLES * 100)
            .map(|_| time(|| engine.plan(&src, &dst).unwrap()))
            .collect(),
    );
    let plan_ratio = cold_plan.as_secs_f64() / warm_plan.as_secs_f64().max(1e-9);
    eprintln!("  plan: cold synthesis          {cold_plan:>12.2?}");
    eprintln!("  plan: warm cache fetch        {warm_plan:>12.2?}   cold/warm = {plan_ratio:.0}x");
    assert!(
        plan_ratio >= 10.0,
        "plan cache must beat re-synthesis by >=10x (got {plan_ratio:.1}x)"
    );

    // 2. End-to-end conversions on the large input.
    let cold_convert = median(
        (0..SAMPLES)
            .map(|_| {
                let engine = Engine::new();
                time(|| engine.convert(&src, &dst, &input).unwrap())
            })
            .collect(),
    );
    let engine = Engine::new();
    engine.convert(&src, &dst, &input).unwrap();
    let warm_convert = median(
        (0..SAMPLES)
            .map(|_| time(|| engine.convert(&src, &dst, &input).unwrap()))
            .collect(),
    );
    assert_eq!(engine.stats().plans_synthesized, 1, "warm path must not synthesize");
    let e2e_ratio = cold_convert.as_secs_f64() / warm_convert.as_secs_f64();
    eprintln!("  convert: cold (synth + run)   {cold_convert:>12.2?}");
    eprintln!("  convert: warm (run only)      {warm_convert:>12.2?}   cold/warm = {e2e_ratio:.2}x");

    // 3. Input-validation overhead: the structural checks a validated
    //    conversion adds on top of raw execution (bind, the stats-on
    //    interpreter, extract). Validation cost is measured directly
    //    (it is deterministic) rather than by differencing two noisy
    //    end-to-end timings, and must stay in the noise (<5%) next to
    //    the interpreter. The two sides alternate sample by sample, as
    //    in gate 4, so both see the same interpreter speed level.
    let plan = engine.plan(&src, &dst).unwrap();
    let (mut validate_only, mut unchecked) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES * 3 {
        validate_only.push(time(|| {
            sparse_formats::validate_matrix(&plan.synth.src, (&input).into()).unwrap()
        }));
        unchecked.push(time(|| {
            let mut env = RtEnv::new();
            bind_matrix(&mut env, &plan.synth.src, input.as_ref()).unwrap();
            let stats = plan.execute_env(&mut env).unwrap();
            let (nr, nc) = input.dims();
            (extract_matrix(&mut env, &plan.synth.dst, nr, nc).unwrap(), stats)
        }));
    }
    let (validate_only, unchecked) = (median(validate_only), median(unchecked));
    let overhead = validate_only.as_secs_f64() / unchecked.as_secs_f64();
    eprintln!("  run: execution (unchecked)    {unchecked:>12.2?}");
    eprintln!(
        "  run: input validation         {validate_only:>12.2?}   overhead = {:.2}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "input validation must cost <5% of a conversion (got {:.2}%)",
        overhead * 100.0
    );

    // 4. Observability overhead: the engine's warm `convert` runs the
    //    *instrumented* pipeline — stage timers, span emission, the
    //    event ring, per-pair histograms — with the default
    //    `NoopSubscriber`. That whole layer must stay invisible next to
    //    the uninstrumented baseline: validation plus the same stats-free
    //    interpreter with no timers or spans, i.e. what the same warm
    //    conversion costs without the observability layer. The observed
    //    engine is interpreter-only, because a default engine serves this
    //    pair from its native kernel; both sides skip `ExecStats`, so the
    //    gate compares like with like. The two sides alternate sample by
    //    sample: the interpreter's run time drifts between two levels
    //    over a process's life (~6.5 ms and ~10.5 ms on this input on a
    //    2-vCPU x86-64 host), and interleaving exposes both sides to the
    //    same level.
    let interp_engine = Engine::with_config(EngineConfig {
        backend: Backend::InterpreterOnly,
        ..Default::default()
    });
    interp_engine.convert(&src, &dst, &input).unwrap();
    let (mut observed, mut baseline) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES * 3 {
        observed.push(time(|| interp_engine.convert(&src, &dst, &input).unwrap()));
        baseline.push(time(|| {
            sparse_formats::validate_matrix(&plan.synth.src, (&input).into()).unwrap();
            run_bare(&plan, input.as_ref())
        }));
    }
    let (observed, baseline) = (median(observed), median(baseline));
    let obs_overhead = observed.as_secs_f64() / baseline.as_secs_f64() - 1.0;
    eprintln!("  obs: baseline (validate+bare) {baseline:>12.2?}");
    eprintln!(
        "  obs: instrumented convert     {observed:>12.2?}   overhead = {:+.2}%",
        obs_overhead * 100.0
    );
    assert!(
        obs_overhead < 0.05,
        "NoopSubscriber instrumentation must cost <5% on the warm path (got {:+.2}%)",
        obs_overhead * 100.0
    );

    // 5. Batch throughput at several widths.
    let batch: Vec<AnyMatrix> = (0..16).map(|_| input.clone()).collect();
    for threads in [1usize, 2, 4, 8] {
        let engine = Engine::with_config(EngineConfig { threads, ..Default::default() });
        engine.plan(&src, &dst).unwrap(); // prime so timing is pure execution
        let total = median(
            (0..SAMPLES)
                .map(|_| {
                    time(|| {
                        for item in engine.convert_batch(&src, &dst, &batch).unwrap() {
                            item.unwrap();
                        }
                    })
                })
                .collect(),
        );
        let per = total / batch.len() as u32;
        eprintln!(
            "  batch x{} @ {threads} thread(s):      {total:>12.2?} total, {per:?}/conversion",
            batch.len()
        );
    }
}
