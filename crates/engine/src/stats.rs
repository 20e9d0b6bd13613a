//! Engine counters: lock-free atomics updated on the hot path, snapshot
//! into a plain [`EngineStats`] value on demand.
//!
//! Every counter increments at exactly one site, at the moment the thing
//! it counts actually happens — no counter is ever *derived* from other
//! counters (an earlier `cache_hits = lookups - misses` formula reported
//! transient garbage whenever a snapshot raced an in-flight lookup).
//! The README's stats-semantics table documents each counter's trigger
//! condition; tests assert the cross-counter invariants.
//!
//! Each counter is declared once, as a row of the `counters!` table
//! below, which generates the `StatsInner` atomic, the [`EngineStats`]
//! field (with its documentation) and the counter's lines in
//! `Engine::metrics_text`. A row's kind says how it is stored and shown:
//! `count` is an atomic event count, `nanos` an atomic nanosecond total
//! snapshot as a [`Duration`], and `cache` a value read from the plan
//! cache at snapshot time (`evictions` a counter, `resident` a gauge).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sparse_obs::expo::MetricsText;

/// The plan-cache values a snapshot reads alongside the atomics.
pub(crate) struct CacheReadout {
    pub cache_evictions: u64,
    pub cached_plans: usize,
}

/// The field type of one row in `StatsInner`: an atomic for the engine's
/// own counters, nothing for values the plan cache owns.
macro_rules! cell {
    (count) => { AtomicU64 };
    (nanos) => { AtomicU64 };
    (cache $_:ident) => { () };
}

/// One row's snapshot value.
macro_rules! load {
    (count, $inner:expr, $cache:expr) => {
        $inner.load(Ordering::Relaxed)
    };
    (nanos, $inner:expr, $cache:expr) => {
        Duration::from_nanos($inner.load(Ordering::Relaxed))
    };
    (cache $_:ident, $inner:expr, $cache:expr) => {
        $cache
    };
}

/// One row's exposition lines.
macro_rules! expose {
    (count, $page:expr, $name:literal, $help:literal, $v:expr) => {
        $page.counter($name, $help, $v)
    };
    (nanos, $page:expr, $name:literal, $help:literal, $v:expr) => {
        $page.counter($name, $help, $v.as_nanos() as u64)
    };
    (cache evictions, $page:expr, $name:literal, $help:literal, $v:expr) => {
        $page.counter($name, $help, $v)
    };
    (cache resident, $page:expr, $name:literal, $help:literal, $v:expr) => {
        $page.gauge($name, $help, $v as u64)
    };
}

macro_rules! counters {
    ($(
        $(#[doc = $doc:literal])*
        $field:ident: $ty:ty = $($kind:ident)+, $metric:literal, $help:literal;
    )*) => {
        /// Internal atomic counters; one instance per [`crate::Engine`].
        /// Cache rows are unit placeholders: the plan cache owns their
        /// values, so nothing reads these fields.
        #[derive(Debug, Default)]
        #[allow(dead_code)]
        pub(crate) struct StatsInner {
            $(pub $field: cell!($($kind)+),)*
        }

        impl StatsInner {
            pub fn snapshot(&self, cache: CacheReadout) -> EngineStats {
                EngineStats {
                    $($field: load!($($kind)+, self.$field, cache.$field),)*
                }
            }
        }

        /// A point-in-time snapshot of an engine's counters.
        ///
        /// Counters are monotone over the engine's lifetime (except
        /// `cached_plans`, which tracks current occupancy), so rates can be
        /// computed by differencing two snapshots. Each counter has its own
        /// atomic incremented at its trigger site; none is derived, so a
        /// snapshot taken mid-flight never reports impossible combinations
        /// (though unrelated counters may of course be mid-update relative
        /// to each other).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[doc = $doc])* pub $field: $ty,)*
        }

        impl EngineStats {
            /// Appends every counter's exposition lines, in table order.
            pub(crate) fn expose(&self, page: &mut MetricsText) {
                $(expose!($($kind)+, page, $metric, $help, self.$field);)*
            }
        }
    };
}

counters! {
    /// Plan lookups received (`Engine::plan` calls, including the
    /// implicit one in every convert). `plan_lookups == cache_hits +
    /// cache_misses` once all in-flight lookups resolve.
    plan_lookups: u64 = count, "engine_plan_lookups_total", "Plan lookups received.";
    /// Plan lookups answered from the cache without synthesizing.
    /// Counted at the hit site, never derived from other counters.
    cache_hits: u64 = count,
        "engine_cache_hits_total", "Plan lookups answered from the cache.";
    /// Plan lookups that missed the cache: this thread synthesized, or
    /// observed a (briefly cached) synthesis failure.
    cache_misses: u64 = count,
        "engine_cache_misses_total", "Plan lookups that synthesized or observed a failure.";
    /// Plans dropped to make room under the capacity limit.
    cache_evictions: u64 = cache evictions,
        "engine_cache_evictions_total", "Plans dropped under the capacity limit.";
    /// Plans currently resident in the cache.
    cached_plans: usize = cache resident, "engine_cached_plans", "Plans currently resident.";
    /// Plans built by the synthesizer (equivalently: cache misses that
    /// succeeded and were admitted). A warm cache leaves this unchanged.
    plans_synthesized: u64 = count,
        "engine_plans_synthesized_total", "Plans built by the synthesizer.";
    /// Plan constructions that failed in synthesis/lowering (verifier
    /// rejections count separately under `plans_rejected`).
    plan_failures: u64 = count,
        "engine_plan_failures_total", "Plan constructions that failed.";
    /// Plans run through the static verifier (only under
    /// `EngineConfig::verify_plans`).
    plans_verified: u64 = count,
        "engine_plans_verified_total", "Plans run through the static verifier.";
    /// Plans the verifier rejected with error-severity diagnostics;
    /// rejected plans are never cached.
    plans_rejected: u64 = count, "engine_plans_rejected_total", "Plans the verifier refused.";
    /// Verified plans with at least one loop nest statically proved free
    /// of loop-carried dependences.
    parallel_plans: u64 = count,
        "engine_parallel_plans_total", "Verified plans with a proved parallel loop.";
    /// Conversions that **completed successfully** (each batch element
    /// counts once). Failed or panicked executions count under
    /// `conversions_failed` instead, and pre-execution refusals under
    /// `inputs_rejected` — an earlier regime counted attempts here,
    /// which made `conversions` disagree with the number of outputs
    /// actually produced.
    conversions: u64 = count,
        "engine_conversions_total", "Conversions that completed successfully.";
    /// Executions that started and then failed: a typed interpreter
    /// error or a contained panic. Pre-execution refusals (validation,
    /// admission, deadline) are *not* counted here.
    conversions_failed: u64 = count,
        "engine_conversions_failed_total", "Executions that started and then failed or panicked.";
    /// Total stored entries moved across all successful conversions
    /// (input nnz, padding excluded).
    nnz_moved: u64 = count,
        "engine_nnz_moved_total", "Stored entries moved by successful conversions.";
    /// Conversions served by a native fused kernel (see
    /// [`crate::Backend`]). Every successful conversion is either a
    /// kernel hit or an interpreter execution: `kernels_hit +
    /// interp_fallbacks == conversions` always holds.
    kernels_hit: u64 = count,
        "engine_kernels_hit_total", "Conversions served by a native kernel.";
    /// Kernel attempts that declined the input (returned an error); the
    /// interpreter answered instead. Declines are not failures — the
    /// conversion's outcome is whatever the interpreter produced.
    kernel_declines: u64 = count,
        "engine_kernel_declines_total", "Kernel attempts that declined the input.";
    /// Kernel attempts that panicked; the panic was contained, counted
    /// (also under `panics_caught`), and the interpreter answered
    /// instead. An earlier regime swallowed these entirely.
    kernel_panics: u64 = count,
        "engine_kernel_panics_total", "Kernel attempts that panicked (contained).";
    /// Successful conversions executed by the SPF-IR interpreter —
    /// because no kernel is registered for the pair, input validation is
    /// off, the backend is [`crate::Backend::InterpreterOnly`], or
    /// a kernel declined/panicked on the input. Falling back is never an
    /// error.
    interp_fallbacks: u64 = count,
        "engine_interp_fallbacks_total", "Successful conversions executed by the interpreter.";
    /// Inputs refused *before* execution: validation failures
    /// (`RunError::InvalidInput`) plus admission-control refusals
    /// (`RunError::ResourceExhausted`). Refused inputs count neither as
    /// `conversions` nor as `conversions_failed`.
    inputs_rejected: u64 = count,
        "engine_inputs_rejected_total",
        "Inputs refused before execution (validation or admission).";
    /// Batch items whose result was an error. Includes rejected, failed,
    /// panicked, and deadline-expired items; single `convert` calls are
    /// not counted here.
    items_failed: u64 = count,
        "engine_items_failed_total", "Batch items whose final result was an error.";
    /// Worker panics contained at an isolation boundary: per-item
    /// `catch_unwind` around the interpreter, the kernel attempt guard
    /// (also counted under `kernel_panics`), or the plan builder.
    panics_caught: u64 = count,
        "engine_panics_caught_total", "Panics contained at an isolation boundary.";
    /// Batch items that never started because the per-batch deadline
    /// expired first (`RunError::DeadlineExceeded`).
    deadline_expired: u64 = count,
        "engine_deadline_expired_total", "Batch items that never started before the deadline.";
    /// Cumulative wall time spent in `Engine::plan` lookups: descriptor
    /// fingerprinting and the cache probe on every call, plus (on a miss)
    /// the synthesis and verification that `synth_time` and `verify_time`
    /// also count. With it, a conversion's stage times — `plan_time`,
    /// `validate_time`, `kernel_time`, `kernel_declined_time`,
    /// `exec_time` — sum to its wall time.
    plan_time: Duration = nanos,
        "engine_plan_nanoseconds_total", "Wall time in plan lookups, synthesis included.";
    /// Cumulative wall time spent in synthesis + lowering.
    synth_time: Duration = nanos,
        "engine_synth_nanoseconds_total", "Wall time in synthesis and lowering.";
    /// Cumulative wall time spent in static plan verification.
    verify_time: Duration = nanos,
        "engine_verify_nanoseconds_total", "Wall time in static plan verification.";
    /// Cumulative wall time spent validating inputs against source
    /// descriptors (and estimating admission footprints).
    validate_time: Duration = nanos,
        "engine_validate_nanoseconds_total",
        "Wall time in input validation and admission estimation.";
    /// Cumulative wall time spent executing inspectors (summed across
    /// batch workers, so it can exceed wall-clock under parallelism).
    /// Kernel executions are counted separately in `kernel_time`.
    exec_time: Duration = nanos,
        "engine_exec_nanoseconds_total", "Wall time in interpreter execution.";
    /// Cumulative wall time spent in native kernels that *hit*
    /// (produced the output).
    kernel_time: Duration = nanos,
        "engine_kernel_nanoseconds_total", "Wall time in native kernels that hit.";
    /// Cumulative wall time spent in kernel attempts that declined or
    /// panicked before the interpreter took over. Separately attributed
    /// so per-conversion stage times sum to wall time — an earlier
    /// regime silently dropped this time on the floor.
    kernel_declined_time: Duration = nanos,
        "engine_kernel_declined_nanoseconds_total",
        "Wall time in kernel attempts that declined or panicked.";
}

impl StatsInner {
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }
}
