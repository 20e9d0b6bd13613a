//! Engine counters: lock-free atomics updated on the hot path, snapshot
//! into a plain [`EngineStats`] value on demand.
//!
//! Every counter increments at exactly one site, at the moment the thing
//! it counts actually happens — no counter is ever *derived* from other
//! counters (an earlier `cache_hits = lookups - misses` formula reported
//! transient garbage whenever a snapshot raced an in-flight lookup).
//! The README's stats-semantics table documents each counter's trigger
//! condition; tests assert the cross-counter invariants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Internal atomic counters; one instance per [`crate::Engine`].
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub plan_lookups: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub plans_synthesized: AtomicU64,
    pub plan_failures: AtomicU64,
    pub plans_verified: AtomicU64,
    pub plans_rejected: AtomicU64,
    pub parallel_plans: AtomicU64,
    pub conversions: AtomicU64,
    pub conversions_failed: AtomicU64,
    pub nnz_moved: AtomicU64,
    pub kernels_hit: AtomicU64,
    pub kernel_declines: AtomicU64,
    pub kernel_panics: AtomicU64,
    pub interp_fallbacks: AtomicU64,
    pub plan_nanos: AtomicU64,
    pub synth_nanos: AtomicU64,
    pub verify_nanos: AtomicU64,
    pub validate_nanos: AtomicU64,
    pub exec_nanos: AtomicU64,
    pub kernel_nanos: AtomicU64,
    pub kernel_declined_nanos: AtomicU64,
    pub inputs_rejected: AtomicU64,
    pub items_failed: AtomicU64,
    pub panics_caught: AtomicU64,
    pub degraded_conversions: AtomicU64,
    pub deadline_expired: AtomicU64,
}

impl StatsInner {
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self, evictions: u64, cached_plans: usize) -> EngineStats {
        EngineStats {
            plan_lookups: self.plan_lookups.load(Ordering::Relaxed),
            plans_synthesized: self.plans_synthesized.load(Ordering::Relaxed),
            plan_failures: self.plan_failures.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: evictions,
            cached_plans,
            plans_verified: self.plans_verified.load(Ordering::Relaxed),
            plans_rejected: self.plans_rejected.load(Ordering::Relaxed),
            parallel_plans: self.parallel_plans.load(Ordering::Relaxed),
            conversions: self.conversions.load(Ordering::Relaxed),
            conversions_failed: self.conversions_failed.load(Ordering::Relaxed),
            nnz_moved: self.nnz_moved.load(Ordering::Relaxed),
            kernels_hit: self.kernels_hit.load(Ordering::Relaxed),
            kernel_declines: self.kernel_declines.load(Ordering::Relaxed),
            kernel_panics: self.kernel_panics.load(Ordering::Relaxed),
            interp_fallbacks: self.interp_fallbacks.load(Ordering::Relaxed),
            plan_time: Duration::from_nanos(self.plan_nanos.load(Ordering::Relaxed)),
            synth_time: Duration::from_nanos(self.synth_nanos.load(Ordering::Relaxed)),
            verify_time: Duration::from_nanos(self.verify_nanos.load(Ordering::Relaxed)),
            validate_time: Duration::from_nanos(self.validate_nanos.load(Ordering::Relaxed)),
            exec_time: Duration::from_nanos(self.exec_nanos.load(Ordering::Relaxed)),
            kernel_time: Duration::from_nanos(self.kernel_nanos.load(Ordering::Relaxed)),
            kernel_declined_time: Duration::from_nanos(
                self.kernel_declined_nanos.load(Ordering::Relaxed),
            ),
            inputs_rejected: self.inputs_rejected.load(Ordering::Relaxed),
            items_failed: self.items_failed.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            degraded_conversions: self.degraded_conversions.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
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
/// (though unrelated counters may of course be mid-update relative to
/// each other).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Plan lookups received (`Engine::plan` calls, including the
    /// implicit one in every convert). `plan_lookups == cache_hits +
    /// cache_misses` once all in-flight lookups resolve.
    pub plan_lookups: u64,
    /// Plans built by the synthesizer (equivalently: cache misses that
    /// succeeded and were admitted). A warm cache leaves this unchanged.
    pub plans_synthesized: u64,
    /// Plan constructions that failed in synthesis/lowering (verifier
    /// rejections count separately under `plans_rejected`).
    pub plan_failures: u64,
    /// Plan lookups answered from the cache without synthesizing.
    /// Counted at the hit site, never derived from other counters.
    pub cache_hits: u64,
    /// Plan lookups that missed the cache: this thread synthesized, or
    /// observed a (briefly cached) synthesis failure.
    pub cache_misses: u64,
    /// Plans dropped to make room under the capacity limit.
    pub cache_evictions: u64,
    /// Plans currently resident in the cache.
    pub cached_plans: usize,
    /// Plans run through the static verifier (only under
    /// `EngineConfig::verify_plans`).
    pub plans_verified: u64,
    /// Plans the verifier rejected with error-severity diagnostics;
    /// rejected plans are never cached.
    pub plans_rejected: u64,
    /// Verified plans with at least one loop nest statically proved free
    /// of loop-carried dependences.
    pub parallel_plans: u64,
    /// Conversions that **completed successfully** (each batch element
    /// counts once). Failed or panicked executions count under
    /// `conversions_failed` instead, and pre-execution refusals under
    /// `inputs_rejected` — an earlier regime counted attempts here,
    /// which made `conversions` disagree with the number of outputs
    /// actually produced.
    pub conversions: u64,
    /// Executions that started and then failed: a typed interpreter
    /// error or a contained panic. Pre-execution refusals (validation,
    /// admission, deadline) are *not* counted here.
    pub conversions_failed: u64,
    /// Total stored entries moved across all successful conversions
    /// (input nnz, padding excluded).
    pub nnz_moved: u64,
    /// Conversions served by a native fused kernel (see
    /// [`crate::Backend`]). Every successful conversion is either a
    /// kernel hit or an interpreter execution: `kernels_hit +
    /// interp_fallbacks == conversions` always holds.
    pub kernels_hit: u64,
    /// Kernel attempts that declined the input (returned an error); the
    /// interpreter answered instead. Declines are not failures — the
    /// conversion's outcome is whatever the interpreter produced.
    pub kernel_declines: u64,
    /// Kernel attempts that panicked; the panic was contained, counted
    /// (also under `panics_caught`), and the interpreter answered
    /// instead. An earlier regime swallowed these entirely.
    pub kernel_panics: u64,
    /// Successful conversions executed by the SPF-IR interpreter —
    /// because no kernel is registered for the pair, input validation is
    /// off, the backend is [`crate::Backend::InterpreterOnly`], or
    /// a kernel declined/panicked on the input. Falling back is never an
    /// error.
    pub interp_fallbacks: u64,
    /// Cumulative wall time spent in `Engine::plan` lookups: descriptor
    /// fingerprinting and the cache probe on every call, plus (on a miss)
    /// the synthesis and verification that `synth_time` and `verify_time`
    /// also count. With it, a conversion's stage times — `plan_time`,
    /// `validate_time`, `kernel_time`, `kernel_declined_time`,
    /// `exec_time` — sum to its wall time. Not yet exported by
    /// `Engine::metrics_text`.
    pub plan_time: Duration,
    /// Cumulative wall time spent in synthesis + lowering.
    pub synth_time: Duration,
    /// Cumulative wall time spent in static plan verification.
    pub verify_time: Duration,
    /// Cumulative wall time spent validating inputs against source
    /// descriptors (and estimating admission footprints).
    pub validate_time: Duration,
    /// Cumulative wall time spent executing inspectors (summed across
    /// batch workers, so it can exceed wall-clock under parallelism).
    /// Kernel executions are counted separately in `kernel_time`.
    pub exec_time: Duration,
    /// Cumulative wall time spent in native kernels that *hit*
    /// (produced the output).
    pub kernel_time: Duration,
    /// Cumulative wall time spent in kernel attempts that declined or
    /// panicked before the interpreter took over. Separately attributed
    /// so per-conversion stage times sum to wall time — an earlier
    /// regime silently dropped this time on the floor.
    pub kernel_declined_time: Duration,
    /// Inputs refused *before* execution: validation failures
    /// (`RunError::InvalidInput`) plus admission-control refusals
    /// (`RunError::ResourceExhausted`). Refused inputs count neither as
    /// `conversions` nor as `conversions_failed`.
    pub inputs_rejected: u64,
    /// Batch items whose final (post-degradation) result was an error.
    /// Includes rejected, failed, panicked, and deadline-expired items;
    /// single `convert` calls are not counted here.
    pub items_failed: u64,
    /// Worker panics contained at an isolation boundary: per-item
    /// `catch_unwind` around the interpreter, the kernel attempt guard
    /// (also counted under `kernel_panics`), or the plan builder.
    pub panics_caught: u64,
    /// Batch items retried on the sequential path after their
    /// parallel-path attempt failed with a transient error.
    pub degraded_conversions: u64,
    /// Batch items that never started because the per-batch deadline
    /// expired first (`RunError::DeadlineExceeded`).
    pub deadline_expired: u64,
}
