//! Observability contracts: stage spans cover the conversion pipeline,
//! exceptional events land in the ring and the subscriber, and the
//! Prometheus-style exposition is snapshot-stable (metric names are API).

use std::sync::Arc;
use std::time::Instant;

use sparse_engine::{Backend, CollectingSubscriber, Engine, EngineConfig};
use sparse_formats::descriptors;
use sparse_formats::{AnyMatrix, CooMatrix};
use sparse_obs::{EventKind, Stage};

/// Sorted row-major, 5 stored entries.
fn sample() -> AnyMatrix {
    AnyMatrix::Coo(
        CooMatrix::from_triplets(
            4,
            5,
            vec![0, 0, 1, 2, 3],
            vec![1, 3, 0, 2, 4],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap(),
    )
}

/// Row-major sortedness violated (the `scoo` source claims it).
fn unsorted() -> AnyMatrix {
    AnyMatrix::Coo(
        CooMatrix::from_triplets(4, 5, vec![3, 0], vec![0, 1], vec![1.0, 2.0]).unwrap(),
    )
}

/// The stage sequence of one successful conversion, checked for the
/// invariants every path shares: all ok, all keyed by one nonzero pair,
/// no events.
fn stages_of_one_conversion(collector: &CollectingSubscriber) -> Vec<Stage> {
    let spans = collector.spans();
    assert!(spans.iter().all(|s| s.ok), "every stage succeeded: {spans:?}");
    let pair = spans[0].pair;
    assert_ne!(pair, 0, "the plan fingerprint keys the spans");
    assert!(spans.iter().all(|s| s.pair == pair), "one conversion, one pair: {spans:?}");
    assert!(collector.events().is_empty(), "success emits no events");
    spans.iter().map(|s| s.stage).collect()
}

#[test]
fn interp_path_emits_spans_for_every_stage() {
    // No verification, no budget: plan, validate, interp, extract — in
    // that order — whether the interpreter runs by policy on a kernel
    // pair or because the pair has no kernel.
    for (backend, dst) in [
        (Backend::InterpreterOnly, descriptors::csr()),
        (Backend::Auto, descriptors::dia()),
    ] {
        let collector = Arc::new(CollectingSubscriber::new());
        let engine = Engine::with_subscriber(
            EngineConfig { backend, ..Default::default() },
            collector.clone(),
        );
        engine.convert(&descriptors::scoo(), &dst, &sample()).unwrap();
        assert_eq!(
            stages_of_one_conversion(&collector),
            [Stage::Plan, Stage::Validate, Stage::Interp, Stage::Extract],
            "{backend:?} SCOO->{}",
            dst.name
        );
        assert_eq!(engine.stats().kernels_hit, 0);
    }

    // The default engine on a kernel pair: plan, validate, kernel — the
    // kernel builds the container itself, so no interp or extract stage.
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(EngineConfig::default(), collector.clone());
    engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &sample())
        .unwrap();
    assert_eq!(
        stages_of_one_conversion(&collector),
        [Stage::Plan, Stage::Validate, Stage::Kernel]
    );
    assert_eq!(engine.stats().kernels_hit, 1);
}

#[test]
fn kernel_path_emits_kernel_span_instead_of_interp() {
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(
        EngineConfig { verify_plans: true, ..Default::default() },
        collector.clone(),
    );
    engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &sample())
        .unwrap();
    assert_eq!(engine.stats().kernels_hit, 1, "scoo -> csr must be kernel-backed");

    let kernel = collector.spans_for(Stage::Kernel);
    assert_eq!(kernel.len(), 1);
    assert!(kernel[0].ok);
    assert!(collector.spans_for(Stage::Interp).is_empty(), "the kernel answered");
    assert_eq!(collector.spans_for(Stage::Verify).len(), 1, "fresh plan was verified");
}

#[test]
fn rejected_input_reaches_ring_and_subscriber() {
    let collector = Arc::new(CollectingSubscriber::new());
    let engine = Engine::with_subscriber(EngineConfig::default(), collector.clone());
    let err = engine
        .convert(&descriptors::scoo(), &descriptors::csr(), &unsorted())
        .unwrap_err();
    assert!(err.to_string().contains("ordering"), "{err}");

    let events = collector.events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind, EventKind::InputRejected);
    assert_eq!(events[0].nnz, 2, "the event carries the input's nnz");
    assert_eq!(engine.events().recorded(), 1);
    let dump = engine.events_dump();
    assert!(dump.contains("input-rejected"), "{dump}");
    // The validate span reports the failure; no execution stage ran.
    let validate = collector.spans_for(Stage::Validate);
    assert_eq!(validate.len(), 1);
    assert!(!validate[0].ok);
    assert!(collector.spans_for(Stage::Interp).is_empty());
}

#[test]
fn stage_ledger_times_disjoint_parts_of_each_call() {
    // The ledger's stage times are disjoint parts of one call, so they sum
    // to at most its wall time; and the plan lookup, fingerprinting
    // included, is one of them even on a warm call.
    let engine = Engine::new();
    let src = descriptors::scoo();
    for dst in [descriptors::csr(), descriptors::dia()] {
        engine.convert(&src, &dst, &sample()).unwrap();
        let before = engine.stats();
        let t0 = Instant::now();
        engine.convert(&src, &dst, &sample()).unwrap();
        let wall = t0.elapsed();
        let after = engine.stats();
        assert!(after.plan_time > before.plan_time, "SCOO->{}: warm lookup untimed", dst.name);
        let stages = (after.plan_time - before.plan_time)
            + (after.validate_time - before.validate_time)
            + (after.kernel_time - before.kernel_time)
            + (after.kernel_declined_time - before.kernel_declined_time)
            + (after.exec_time - before.exec_time);
        assert!(stages <= wall, "SCOO->{}: stages {stages:?} exceed wall {wall:?}", dst.name);
    }
}

/// Replaces every digit run with `N` so the snapshot is independent of
/// measured latencies while still pinning every metric name, label,
/// help string, and line ordering.
fn normalize(text: &str) -> String {
    let mut out = String::new();
    let mut in_digits = false;
    for c in text.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('N');
            }
            in_digits = true;
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

#[test]
fn metrics_text_is_snapshot_stable() {
    let engine = Engine::new();
    let (src, dst) = (descriptors::scoo(), descriptors::csr());
    engine.convert(&src, &dst, &sample()).unwrap();
    engine.convert(&src, &dst, &sample()).unwrap();
    assert!(engine.convert(&src, &dst, &unsorted()).is_err());

    let text = engine.metrics_text();
    // Exact counter lines first — these are deterministic.
    for line in [
        "engine_plan_lookups_total 3",
        "engine_cache_hits_total 2",
        "engine_cache_misses_total 1",
        "engine_plans_synthesized_total 1",
        "engine_conversions_total 2",
        "engine_conversions_failed_total 0",
        "engine_kernels_hit_total 2",
        "engine_interp_fallbacks_total 0",
        "engine_inputs_rejected_total 1",
        "engine_nnz_moved_total 10",
        "engine_events_recorded_total 1",
        "engine_events_dropped_total 0",
        "engine_pair_latency_nanoseconds_count{pair=\"SCOO->CSR\"} 2",
        "engine_pair_nnz_sum{pair=\"SCOO->CSR\"} 10",
    ] {
        assert!(text.lines().any(|l| l == line), "missing `{line}` in:\n{text}");
    }
    // Then the full page, digit-normalized: metric names, help strings,
    // label sets, and ordering are all stable API.
    assert_eq!(normalize(&text), SNAPSHOT, "full exposition drifted:\n{text}");
}

const SNAPSHOT: &str = "\
# HELP engine_plan_lookups_total Plan lookups received.
# TYPE engine_plan_lookups_total counter
engine_plan_lookups_total N
# HELP engine_cache_hits_total Plan lookups answered from the cache.
# TYPE engine_cache_hits_total counter
engine_cache_hits_total N
# HELP engine_cache_misses_total Plan lookups that synthesized or observed a failure.
# TYPE engine_cache_misses_total counter
engine_cache_misses_total N
# HELP engine_cache_evictions_total Plans dropped under the capacity limit.
# TYPE engine_cache_evictions_total counter
engine_cache_evictions_total N
# HELP engine_cached_plans Plans currently resident.
# TYPE engine_cached_plans gauge
engine_cached_plans N
# HELP engine_plans_synthesized_total Plans built by the synthesizer.
# TYPE engine_plans_synthesized_total counter
engine_plans_synthesized_total N
# HELP engine_plan_failures_total Plan constructions that failed.
# TYPE engine_plan_failures_total counter
engine_plan_failures_total N
# HELP engine_plans_verified_total Plans run through the static verifier.
# TYPE engine_plans_verified_total counter
engine_plans_verified_total N
# HELP engine_plans_rejected_total Plans the verifier refused.
# TYPE engine_plans_rejected_total counter
engine_plans_rejected_total N
# HELP engine_parallel_plans_total Verified plans with a proved parallel loop.
# TYPE engine_parallel_plans_total counter
engine_parallel_plans_total N
# HELP engine_conversions_total Conversions that completed successfully.
# TYPE engine_conversions_total counter
engine_conversions_total N
# HELP engine_conversions_failed_total Executions that started and then failed or panicked.
# TYPE engine_conversions_failed_total counter
engine_conversions_failed_total N
# HELP engine_nnz_moved_total Stored entries moved by successful conversions.
# TYPE engine_nnz_moved_total counter
engine_nnz_moved_total N
# HELP engine_kernels_hit_total Conversions served by a native kernel.
# TYPE engine_kernels_hit_total counter
engine_kernels_hit_total N
# HELP engine_kernel_declines_total Kernel attempts that declined the input.
# TYPE engine_kernel_declines_total counter
engine_kernel_declines_total N
# HELP engine_kernel_panics_total Kernel attempts that panicked (contained).
# TYPE engine_kernel_panics_total counter
engine_kernel_panics_total N
# HELP engine_interp_fallbacks_total Successful conversions executed by the interpreter.
# TYPE engine_interp_fallbacks_total counter
engine_interp_fallbacks_total N
# HELP engine_inputs_rejected_total Inputs refused before execution (validation or admission).
# TYPE engine_inputs_rejected_total counter
engine_inputs_rejected_total N
# HELP engine_items_failed_total Batch items whose final result was an error.
# TYPE engine_items_failed_total counter
engine_items_failed_total N
# HELP engine_panics_caught_total Panics contained at an isolation boundary.
# TYPE engine_panics_caught_total counter
engine_panics_caught_total N
# HELP engine_degraded_conversions_total Batch items retried on the sequential path.
# TYPE engine_degraded_conversions_total counter
engine_degraded_conversions_total N
# HELP engine_deadline_expired_total Batch items that never started before the deadline.
# TYPE engine_deadline_expired_total counter
engine_deadline_expired_total N
# HELP engine_synth_nanoseconds_total Wall time in synthesis and lowering.
# TYPE engine_synth_nanoseconds_total counter
engine_synth_nanoseconds_total N
# HELP engine_verify_nanoseconds_total Wall time in static plan verification.
# TYPE engine_verify_nanoseconds_total counter
engine_verify_nanoseconds_total N
# HELP engine_validate_nanoseconds_total Wall time in input validation and admission estimation.
# TYPE engine_validate_nanoseconds_total counter
engine_validate_nanoseconds_total N
# HELP engine_exec_nanoseconds_total Wall time in interpreter execution.
# TYPE engine_exec_nanoseconds_total counter
engine_exec_nanoseconds_total N
# HELP engine_kernel_nanoseconds_total Wall time in native kernels that hit.
# TYPE engine_kernel_nanoseconds_total counter
engine_kernel_nanoseconds_total N
# HELP engine_kernel_declined_nanoseconds_total Wall time in kernel attempts that declined or panicked.
# TYPE engine_kernel_declined_nanoseconds_total counter
engine_kernel_declined_nanoseconds_total N
# HELP engine_events_recorded_total Exceptional events recorded.
# TYPE engine_events_recorded_total counter
engine_events_recorded_total N
# HELP engine_events_dropped_total Exceptional events dropped by the ring.
# TYPE engine_events_dropped_total counter
engine_events_dropped_total N
# HELP engine_pair_latency_nanoseconds End-to-end successful-conversion latency per pair.
# TYPE engine_pair_latency_nanoseconds summary
engine_pair_latency_nanoseconds{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_latency_nanoseconds{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_latency_nanoseconds{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_latency_nanoseconds_count{pair=\"SCOO->CSR\"} N
engine_pair_latency_nanoseconds_sum{pair=\"SCOO->CSR\"} N
# HELP engine_pair_nnz Input stored-entry counts per pair.
# TYPE engine_pair_nnz summary
engine_pair_nnz{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_nnz{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_nnz{pair=\"SCOO->CSR\",quantile=\"N.N\"} N
engine_pair_nnz_count{pair=\"SCOO->CSR\"} N
engine_pair_nnz_sum{pair=\"SCOO->CSR\"} N
";
