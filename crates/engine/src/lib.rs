//! The conversion-engine serving layer.
//!
//! `sparse-synthesis` answers "given a source and destination format
//! descriptor, synthesize an inspector and run it once". This crate turns
//! that into a long-lived service:
//!
//! * **Plan caching** — synthesis costs orders of magnitude more than
//!   executing the resulting inspector on small/medium inputs, so the
//!   engine caches compiled [`Conversion`] plans keyed by a *structural*
//!   fingerprint of `(source, destination, options)`. Equal-by-structure
//!   descriptors share a plan regardless of name or instance identity;
//!   a warm cache performs **zero** synthesis. The cache is an LRU with
//!   configurable capacity and synthesize-exactly-once semantics under
//!   concurrency (see [`cache`]).
//! * **Generic dispatch** — [`Engine::convert`] accepts any
//!   [`AnyMatrix`] and returns whichever container the destination
//!   descriptor's structural [`FormatKind`](sparse_formats::FormatKind)
//!   calls for; no per-pair entry points.
//! * **Batch parallelism** — [`Engine::convert_batch`] fans a slice of
//!   inputs over scoped worker threads that share one cached plan
//!   (`Arc<Conversion>`); each execution builds its own interpreter
//!   environment, and outputs come back in input order.
//! * **Plan verification** — with [`EngineConfig::verify_plans`], every
//!   freshly synthesized plan runs through the `sparse-analyze` static
//!   verifier at synthesis time: plans with error-severity findings are
//!   refused (and never cached), and batch fan-out is gated on the
//!   verifier's dependence verdict.
//! * **Native kernel backend** — under [`Backend::Auto`] (the default
//!   policy), conversions whose inputs are *validated* are served by a
//!   fused hand-optimized kernel from the
//!   [`sparse_synthesis::KernelRegistry`] whenever one is registered for
//!   the pair's structural fingerprints, instead of the SPF-IR
//!   interpreter. Kernels are bit-identical to the interpreter
//!   (differential-tested per registered pair); any miss, decline, or
//!   contained kernel panic falls back to the interpreter transparently —
//!   fallback is never an error. A default [`Engine::new`] runs kernels.
//! * **Observability** — [`Engine::stats`] snapshots hit/miss/eviction
//!   counters, conversion and nnz totals, kernel hits vs interpreter
//!   fallbacks, verification outcomes, and cumulative synthesis vs
//!   execution vs kernel time; every counter increments at exactly one
//!   trigger site (see the README's stats-semantics table). Beyond the
//!   counters, the engine emits structured telemetry through the
//!   `sparse-obs` layer: a [`Subscriber`] receives one [`Span`] per
//!   completed stage (`plan`, `verify`, `validate`, `admission`,
//!   `kernel`, `interp`, `extract`), exceptional occurrences land in a
//!   lock-free [`EventRing`] (dumpable via [`Engine::events_dump`]),
//!   per-pair latency/nnz histograms accumulate behind
//!   [`Engine::pair_histograms`], and [`Engine::metrics_text`] renders
//!   everything as a Prometheus-style text page with stable metric
//!   names. The default [`NoopSubscriber`] keeps the instrumented hot
//!   path within noise of the uninstrumented one.
//!
//! ```
//! use sparse_engine::Engine;
//! use sparse_formats::{descriptors, AnyMatrix, CooMatrix};
//!
//! let engine = Engine::new();
//! let coo = CooMatrix::from_triplets(
//!     2, 2, vec![0, 1], vec![1, 0], vec![1.0, 2.0],
//! ).unwrap();
//! let src = descriptors::coo();
//! let dst = descriptors::csr();
//! let out = engine.convert(&src, &dst, &AnyMatrix::Coo(coo)).unwrap();
//! assert!(matches!(out, AnyMatrix::Csr(_)));
//! // A second conversion reuses the cached plan: no synthesis.
//! assert_eq!(engine.stats().plans_synthesized, 1);
//! ```

#![warn(missing_docs)]
// No panicking escape hatches in production code: every failure must
// surface as a typed error (tests may assert freely; see clippy.toml).
#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]

mod admission;
pub mod cache;
mod stats;

use std::fmt;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparse_analyze::AnalysisReport;
use sparse_formats::descriptors::StructuralHasher;
use sparse_formats::{AnyMatrix, AnyTensor, FormatDescriptor};
use sparse_obs::{Event, EventKind, EventRing, PairHistograms, PairSnapshot, Span, Stage};
use sparse_synthesis::{Conversion, RunError, SynthesisOptions};

use cache::{panic_message, Lookup, PlanCache};
use stats::StatsInner;
pub use sparse_obs::{CollectingSubscriber, NoopSubscriber, Subscriber};
pub use stats::EngineStats;

/// A cached plan: the compiled conversion plus (when the engine runs with
/// [`EngineConfig::verify_plans`]) the static verification report that
/// admitted it into the cache. Derefs to [`Conversion`], so existing
/// callers of [`Engine::plan`] keep working unchanged.
pub struct Plan {
    /// The compiled conversion.
    pub conversion: Conversion,
    /// The verifier's report; `None` when verification is off. Plans with
    /// error-severity findings are rejected before caching, so a present
    /// report is always clean.
    pub verification: Option<AnalysisReport>,
    /// The plan's cache key (structural fingerprints of `(src, dst)`,
    /// options, and the verification flag). Spans, events, and per-pair
    /// histograms are keyed by this value so telemetry can be correlated
    /// back to a specific pair.
    pub pair: u64,
}

impl Plan {
    /// A human-readable `"SRC->DST"` label for this plan's pair, used by
    /// the per-pair histograms and the metrics exposition.
    pub fn pair_label(&self) -> String {
        format!("{}->{}", self.conversion.synth.src.name, self.conversion.synth.dst.name)
    }
}

impl Deref for Plan {
    type Target = Conversion;

    fn deref(&self) -> &Conversion {
        &self.conversion
    }
}

/// Errors raised by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Synthesizing or lowering the plan failed. Carried as the rendered
    /// message because failures are cached briefly and shared across
    /// threads.
    Plan(String),
    /// Running a plan failed (input validation, admission control,
    /// dispatch mismatch, execution, or output validation).
    Run(RunError),
    /// A worker panicked mid-conversion; the panic was contained at the
    /// item boundary (`catch_unwind`) and carries the rendered payload.
    /// The engine — cache, stats, sibling batch items — remains fully
    /// usable.
    Panicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Plan(m) => write!(f, "planning failed: {m}"),
            EngineError::Run(e) => write!(f, "conversion failed: {e}"),
            EngineError::Panicked(m) => write!(f, "conversion panicked (contained): {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RunError> for EngineError {
    fn from(e: RunError) -> Self {
        EngineError::Run(e)
    }
}

/// Which execution backend the engine may use for a conversion.
///
/// The selection rule under [`Backend::Auto`] is: structural fingerprint
/// match in the [`sparse_synthesis::KernelRegistry`] **and** input
/// validation is on — then the native kernel runs; anything else executes
/// on the SPF-IR interpreter. Plan verification plays no part: the
/// verifier checks the synthesized plan, which a kernel never runs, while
/// the differential suites prove each registered kernel bit-identical to
/// that plan on validated inputs. Falling back is never an error, and a
/// kernel that declines an input (or panics) falls back transparently
/// too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Prefer a registered native kernel when inputs are validated;
    /// interpret otherwise (the default).
    #[default]
    Auto,
    /// Always execute on the SPF-IR interpreter, even when a kernel is
    /// registered for the pair. Useful for differential testing and for
    /// benchmarking the interpreter itself.
    InterpreterOnly,
}

/// Engine construction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum number of cached plans (LRU beyond this). Minimum 1.
    pub capacity: usize,
    /// Worker threads for [`Engine::convert_batch`]. `0` means "use
    /// available parallelism".
    pub threads: usize,
    /// Synthesis options baked into every plan this engine builds (and
    /// into the cache key, so engines with different options never share
    /// a fingerprint).
    pub options: SynthesisOptions,
    /// Run the static verifier on every freshly synthesized plan. Plans
    /// with error-severity findings are refused (and never cached), and
    /// [`Engine::convert_batch`] only fans work across threads when the
    /// verifier proved a parallel loop; unverified engines keep the
    /// historical trust-the-synthesizer behavior. Verification does not
    /// decide the execution backend: kernels run with or without it.
    pub verify_plans: bool,
    /// Validate every input container against its source descriptor's
    /// quantifier obligations before binding (default `true`). The
    /// static verifier proves plans correct *assuming* those obligations
    /// hold; this is the runtime half of that contract. It is also the
    /// precondition of every native kernel, so `false` turns kernels off.
    /// Disable only for trusted inputs on hot paths — violations then
    /// surface as typed execution errors at best and silent garbage at
    /// worst (the known silent classes are enumerated in
    /// `tests/fault_injection.rs`).
    pub validate_inputs: bool,
    /// Admission-control budget in bytes for the *estimated destination
    /// footprint* of each conversion (default `None` = unlimited).
    /// Conversions whose estimate exceeds the budget are refused with
    /// [`RunError::ResourceExhausted`] before any allocation — e.g. an
    /// antidiagonal matrix headed for DIA (`ND × NR` slots) or a
    /// skew-rowed matrix headed for ELL.
    pub memory_budget: Option<u64>,
    /// Per-batch wall-clock deadline (default `None` = unlimited). Items
    /// not yet *started* when it expires fail with
    /// [`RunError::DeadlineExceeded`]; items already executing run to
    /// completion.
    pub batch_deadline: Option<Duration>,
    /// Execution backend policy (default [`Backend::Auto`]: a registered
    /// kernel serves its pair). Kernels only ever run behind validated
    /// inputs, so engines with `validate_inputs: false` behave
    /// identically under either variant; [`Backend::InterpreterOnly`] is
    /// the one switch that turns kernels off for validated inputs.
    pub backend: Backend,
    /// Capacity of the exceptional-event ring buffer (default 1024).
    /// When full, the oldest event is overwritten and the dropped-event
    /// counter increments; writers never block. Minimum 1.
    pub event_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            capacity: 64,
            threads: 0,
            options: SynthesisOptions::default(),
            verify_plans: false,
            validate_inputs: true,
            memory_budget: None,
            batch_deadline: None,
            backend: Backend::Auto,
            event_capacity: 1024,
        }
    }
}

impl EngineConfig {
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// A thread-safe conversion service with a shared plan cache.
///
/// Cheap to share by reference across threads (`&Engine` is all the batch
/// workers use); every method takes `&self`.
pub struct Engine {
    config: EngineConfig,
    cache: PlanCache<Plan>,
    stats: StatsInner,
    subscriber: Arc<dyn Subscriber>,
    events: EventRing,
    pairs: PairHistograms,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

// The whole point of the engine is to be shared across threads; keep
// that guarantee from regressing (e.g. an `Rc` sneaking back into
// `Conversion`'s comparators).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Engine {
    /// An engine with [`EngineConfig::default`].
    pub fn new() -> Self {
        Engine::with_config(EngineConfig::default())
    }

    /// An engine with explicit configuration and the default
    /// [`NoopSubscriber`] (counters, event ring, and histograms still
    /// record; only the subscriber callbacks are skipped).
    pub fn with_config(config: EngineConfig) -> Self {
        Engine::with_subscriber(config, Arc::new(NoopSubscriber))
    }

    /// An engine with explicit configuration and a span/event
    /// [`Subscriber`]. The subscriber runs inline on the conversion hot
    /// path (concurrently from every batch worker), so implementations
    /// must be cheap and non-blocking.
    pub fn with_subscriber(config: EngineConfig, subscriber: Arc<dyn Subscriber>) -> Self {
        Engine {
            cache: PlanCache::new(config.capacity),
            events: EventRing::new(config.event_capacity),
            config,
            stats: StatsInner::default(),
            subscriber,
            pairs: PairHistograms::new(),
        }
    }

    /// This engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The cache key for a `(src, dst, options)` triple: both structural
    /// descriptor fingerprints plus the option flags. Exposed so callers
    /// can correlate engine behavior with specific pairs.
    pub fn plan_fingerprint(
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        options: SynthesisOptions,
    ) -> u64 {
        let mut h = StructuralHasher::new();
        h.write_u64(src.fingerprint());
        h.write_u64(dst.fingerprint());
        h.write_u64(options.optimize as u64);
        h.write_u64(options.binary_search as u64);
        h.finish()
    }

    /// Returns the compiled plan for `src → dst` under this engine's
    /// options, synthesizing at most once per cached lifetime of the
    /// pair. Under [`EngineConfig::verify_plans`], freshly synthesized
    /// plans additionally run through the static verifier, and plans with
    /// error-severity findings are refused *at synthesis time*.
    ///
    /// # Errors
    /// Propagates synthesis/lowering failures and verification rejections
    /// (neither is cached: a later call retries).
    pub fn plan(
        &self,
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
    ) -> Result<Arc<Plan>, EngineError> {
        // The stage clock covers fingerprinting too: on a warm call it is
        // most of the lookup's cost.
        let t0 = Instant::now();
        let options = self.config.options;
        let verify = self.config.verify_plans;
        // The verification flag changes what a cached entry *is* (plans
        // carry their report), so it is part of the key.
        let key = {
            let mut h = StructuralHasher::new();
            h.write_u64(Engine::plan_fingerprint(src, dst, options));
            h.write_u64(verify as u64);
            h.finish()
        };
        StatsInner::add(&self.stats.plan_lookups, 1);
        let lookup = self.cache.get_or_insert_with(key, || {
            // Contain synthesizer/verifier panics here so the engine's
            // counters stay exact; the cache's own catch_unwind is the
            // backstop for builders it doesn't control.
            match catch_unwind(AssertUnwindSafe(|| self.build_plan(src, dst, options, verify, key)))
            {
                Ok(built) => built,
                Err(payload) => {
                    StatsInner::add(&self.stats.panics_caught, 1);
                    StatsInner::add(&self.stats.plan_failures, 1);
                    self.note(EventKind::PlanFailed, key, 0, 0);
                    Err(format!("plan construction panicked: {}", panic_message(&*payload)))
                }
            }
        });
        // Hits and misses each have their own counter, incremented here
        // at the site where the outcome is known — never derived from
        // `lookups - misses`, which reported transient garbage whenever
        // a snapshot raced an in-flight lookup.
        let out = match lookup {
            Lookup::Hit(plan) => {
                StatsInner::add(&self.stats.cache_hits, 1);
                Ok(plan)
            }
            Lookup::Miss(plan) => {
                StatsInner::add(&self.stats.cache_misses, 1);
                Ok(plan)
            }
            Lookup::Failed(msg) => {
                StatsInner::add(&self.stats.cache_misses, 1);
                Err(EngineError::Plan(msg))
            }
        };
        let nanos = t0.elapsed().as_nanos() as u64;
        StatsInner::add(&self.stats.plan_nanos, nanos);
        if self.subscriber.enabled() {
            self.subscriber.span(Span { stage: Stage::Plan, pair: key, nanos, ok: out.is_ok() });
        }
        out
    }

    /// The cache-miss path of [`Engine::plan`]: synthesize, lower, and
    /// (optionally) verify one plan, with stats accounting.
    fn build_plan(
        &self,
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        options: SynthesisOptions,
        verify: bool,
        pair: u64,
    ) -> Result<Plan, String> {
        let t0 = Instant::now();
        let built = Conversion::new(src, dst, options).map_err(|e| e.to_string());
        StatsInner::add(&self.stats.synth_nanos, t0.elapsed().as_nanos() as u64);
        match &built {
            Ok(_) => StatsInner::add(&self.stats.plans_synthesized, 1),
            Err(_) => {
                StatsInner::add(&self.stats.plan_failures, 1);
                self.note(EventKind::PlanFailed, pair, t0.elapsed().as_nanos() as u64, 0);
            }
        }
        built.and_then(|conversion| {
            if !verify {
                return Ok(Plan { conversion, verification: None, pair });
            }
            let t1 = Instant::now();
            let report = sparse_analyze::verify(&conversion.synth);
            let verify_nanos = t1.elapsed().as_nanos() as u64;
            StatsInner::add(&self.stats.verify_nanos, verify_nanos);
            StatsInner::add(&self.stats.plans_verified, 1);
            if self.subscriber.enabled() {
                self.subscriber.span(Span {
                    stage: Stage::Verify,
                    pair,
                    nanos: verify_nanos,
                    ok: report.is_clean(),
                });
            }
            if !report.is_clean() {
                StatsInner::add(&self.stats.plans_rejected, 1);
                self.note(EventKind::PlanRejected, pair, verify_nanos, 0);
                return Err(format!(
                    "plan verification failed for {}:\n{}",
                    report.pair,
                    report.render_errors()
                ));
            }
            if report.has_parallel_loop() {
                StatsInner::add(&self.stats.parallel_plans, 1);
            }
            Ok(Plan { conversion, verification: Some(report), pair })
        })
    }

    /// Records one exceptional occurrence: into the engine's own ring
    /// (always) and out to the subscriber (when enabled).
    fn note(&self, kind: EventKind, pair: u64, nanos: u64, nnz: u64) {
        let event = Event { kind, pair, nanos, nnz };
        self.events.push(event);
        if self.subscriber.enabled() {
            self.subscriber.event(event);
        }
    }

    /// Converts one matrix from `src` to `dst`, returning the container
    /// the destination descriptor calls for.
    ///
    /// # Errors
    /// Fails on planning failures, a source/container mismatch, or
    /// execution/validation errors.
    pub fn convert(
        &self,
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        input: &AnyMatrix,
    ) -> Result<AnyMatrix, EngineError> {
        let plan = self.plan(src, dst)?;
        self.execute_one(&plan, input)
    }

    /// Converts one order-3 tensor from `src` to `dst`.
    ///
    /// # Errors
    /// Same contract as [`Engine::convert`].
    pub fn convert_tensor(
        &self,
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        input: &AnyTensor,
    ) -> Result<AnyTensor, EngineError> {
        let plan = self.plan(src, dst)?;
        let pair = plan.pair;
        let nnz = input.nnz() as u64;
        let started = Instant::now();
        if self.config.validate_inputs {
            let t0 = Instant::now();
            let checked = sparse_formats::validate_tensor(&plan.synth.src, input.as_ref());
            self.span_validate(pair, t0.elapsed().as_nanos() as u64, checked.is_ok());
            if let Err(e) = checked {
                StatsInner::add(&self.stats.inputs_rejected, 1);
                self.note(EventKind::InputRejected, pair, 0, nnz);
                return Err(EngineError::Run(e.into()));
            }
        }
        if let Some(budget) = self.config.memory_budget {
            let t0 = Instant::now();
            let (what, needed) =
                admission::estimate_tensor_output_bytes(&plan.synth.dst, input.as_ref());
            self.span_admission(pair, t0.elapsed().as_nanos() as u64, needed <= budget);
            if needed > budget {
                StatsInner::add(&self.stats.inputs_rejected, 1);
                self.note(EventKind::AdmissionRejected, pair, 0, nnz);
                return Err(EngineError::Run(RunError::ResourceExhausted {
                    what: what.to_string(),
                    needed,
                    budget,
                }));
            }
        }
        if self.kernel_eligible(&plan) {
            let t0 = Instant::now();
            let hit = catch_unwind(AssertUnwindSafe(|| plan.run_tensor_kernel(input.as_ref())));
            let kernel_nanos = t0.elapsed().as_nanos() as u64;
            if let Some(out) = self.settle_kernel_attempt(hit, pair, kernel_nanos, nnz) {
                self.pairs.record(
                    pair,
                    || plan.pair_label(),
                    started.elapsed().as_nanos() as u64,
                    nnz,
                );
                return Ok(out);
            }
            // Declined, missing, or panicked: the interpreter is the
            // answer, never an error.
        }
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            plan.run_tensor_observed(input.as_ref(), pair, &*self.subscriber)
        }));
        let exec_nanos = t0.elapsed().as_nanos() as u64;
        StatsInner::add(&self.stats.exec_nanos, exec_nanos);
        match out {
            Ok(Ok(out)) => {
                StatsInner::add(&self.stats.conversions, 1);
                StatsInner::add(&self.stats.interp_fallbacks, 1);
                StatsInner::add(&self.stats.nnz_moved, nnz);
                self.pairs.record(
                    pair,
                    || plan.pair_label(),
                    started.elapsed().as_nanos() as u64,
                    nnz,
                );
                Ok(out)
            }
            Ok(Err(e)) => {
                StatsInner::add(&self.stats.conversions_failed, 1);
                self.note(EventKind::RunFailed, pair, exec_nanos, nnz);
                Err(EngineError::Run(e))
            }
            Err(payload) => {
                StatsInner::add(&self.stats.conversions_failed, 1);
                StatsInner::add(&self.stats.panics_caught, 1);
                self.note(EventKind::InterpPanic, pair, exec_nanos, nnz);
                Err(EngineError::Panicked(panic_message(&*payload)))
            }
        }
    }

    /// Converts a batch of matrices from `src` to `dst` across this
    /// engine's worker threads, with **per-item fault isolation**: every
    /// input gets its own `Result`, in input order, and one corrupted or
    /// panicking item never discards its siblings' completed work.
    ///
    /// The plan is synthesized (or fetched) once and shared; inputs are
    /// split into contiguous chunks, one scoped thread per chunk, and
    /// each conversion builds its own interpreter environment. Worker
    /// panics are contained at the item boundary and surface as
    /// [`EngineError::Panicked`] for that item alone.
    ///
    /// Items whose parallel-path attempt fails with a *transient* error
    /// (execution fault or contained panic — not a validation, admission,
    /// dispatch, or deadline rejection) are retried **once** on the
    /// sequential reference path; each retry counts as a
    /// `degraded_conversions` stat.
    ///
    /// With [`EngineConfig::batch_deadline`] set, items not yet started
    /// when the deadline expires fail with [`RunError::DeadlineExceeded`]
    /// (already-running items complete); expired items are not retried.
    ///
    /// Under [`EngineConfig::verify_plans`], fan-out is gated on the
    /// verifier's dependence verdict: only plans with a statically proved
    /// parallel loop run across multiple workers, everything else falls
    /// back to one worker. (Batch elements are independent either way;
    /// the verdict is the engine's evidence that the plan's inspector
    /// behaves deterministically enough to be worth scheduling freely.)
    ///
    /// # Errors
    /// The outer `Err` is reserved for planning failures (there is no
    /// per-item work to preserve without a plan). Everything after
    /// planning is reported per item.
    pub fn convert_batch(
        &self,
        src: &FormatDescriptor,
        dst: &FormatDescriptor,
        inputs: &[AnyMatrix],
    ) -> Result<Vec<Result<AnyMatrix, EngineError>>, EngineError> {
        let plan = self.plan(src, dst)?;
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let deadline = self.config.batch_deadline.map(|d| (d, Instant::now() + d));
        let proved_parallel = match &plan.verification {
            Some(report) => report.has_parallel_loop(),
            None => !self.config.verify_plans,
        };
        let max_workers = if proved_parallel { self.config.effective_threads() } else { 1 };
        let workers = max_workers.clamp(1, inputs.len());

        let mut results: Vec<Result<AnyMatrix, EngineError>> = if workers == 1 {
            inputs.iter().map(|m| self.execute_deadlined(&plan, m, deadline)).collect()
        } else {
            let chunk = inputs.len().div_ceil(workers);
            let mut slots: Vec<Option<Result<AnyMatrix, EngineError>>> = Vec::new();
            slots.resize_with(inputs.len(), || None);
            std::thread::scope(|scope| {
                for (in_chunk, out_chunk) in inputs.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    let plan = &plan;
                    scope.spawn(move || {
                        for (input, out) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                            *out = Some(self.execute_deadlined(plan, input, deadline));
                        }
                    });
                }
            });
            // Per-item catch_unwind means workers always write their
            // slots; an empty slot would indicate a harness bug, reported
            // as a typed per-item error rather than a panic.
            let filled: Vec<_> = slots
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|| {
                        Err(EngineError::Panicked("batch slot never written".to_string()))
                    })
                })
                .collect();
            filled
        };

        // Degraded retry: transient parallel-path failures get one
        // sequential attempt. Deterministic rejections (invalid input,
        // admission, dispatch, deadline) would fail identically and are
        // not retried.
        if workers > 1 {
            for (input, slot) in inputs.iter().zip(results.iter_mut()) {
                if slot.as_ref().is_err_and(transient) {
                    StatsInner::add(&self.stats.degraded_conversions, 1);
                    *slot = self.execute_one(&plan, input);
                }
            }
        }

        let failed = results.iter().filter(|r| r.is_err()).count();
        StatsInner::add(&self.stats.items_failed, failed as u64);
        Ok(results)
    }

    /// One batch item: fail fast with [`RunError::DeadlineExceeded`] when
    /// the batch deadline has already expired, execute otherwise.
    fn execute_deadlined(
        &self,
        plan: &Plan,
        input: &AnyMatrix,
        deadline: Option<(Duration, Instant)>,
    ) -> Result<AnyMatrix, EngineError> {
        if let Some((budget, at)) = deadline {
            if Instant::now() >= at {
                StatsInner::add(&self.stats.deadline_expired, 1);
                self.note(EventKind::DeadlineExpired, plan.pair, 0, input.nnz() as u64);
                return Err(EngineError::Run(RunError::DeadlineExceeded { deadline: budget }));
            }
        }
        self.execute_one(plan, input)
    }

    /// A point-in-time snapshot of this engine's counters.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot(self.cache.evictions(), self.cache.len())
    }

    /// The engine's exceptional-event ring buffer: kernel panics and
    /// declines, failed runs, rejected inputs, plan failures. Lock-free,
    /// fixed-size, drop-oldest; [`EventRing::dump`] renders it as text.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// A structured-text dump of the exceptional-event log (newest ring
    /// contents plus recorded/dropped totals) for debugging failed
    /// conversions.
    pub fn events_dump(&self) -> String {
        self.events.dump()
    }

    /// Point-in-time copies of every `(src, dst)` pair's latency and nnz
    /// histograms, sorted by pair label. Only *successful* conversions
    /// record here (latency is end-to-end: validation + admission +
    /// execution).
    pub fn pair_histograms(&self) -> Vec<PairSnapshot> {
        self.pairs.snapshot()
    }

    /// This engine's counters, event-log totals, and per-pair histograms
    /// rendered as a Prometheus-style text page. Metric and label names
    /// are **stable API** (snapshot-tested): dashboards may key on them.
    pub fn metrics_text(&self) -> String {
        let s = self.stats();
        let mut page = sparse_obs::expo::MetricsText::new();
        page.counter("engine_plan_lookups_total", "Plan lookups received.", s.plan_lookups);
        page.counter(
            "engine_cache_hits_total",
            "Plan lookups answered from the cache.",
            s.cache_hits,
        );
        page.counter(
            "engine_cache_misses_total",
            "Plan lookups that synthesized or observed a failure.",
            s.cache_misses,
        );
        page.counter(
            "engine_cache_evictions_total",
            "Plans dropped under the capacity limit.",
            s.cache_evictions,
        );
        page.gauge("engine_cached_plans", "Plans currently resident.", s.cached_plans as u64);
        page.counter(
            "engine_plans_synthesized_total",
            "Plans built by the synthesizer.",
            s.plans_synthesized,
        );
        page.counter(
            "engine_plan_failures_total",
            "Plan constructions that failed.",
            s.plan_failures,
        );
        page.counter(
            "engine_plans_verified_total",
            "Plans run through the static verifier.",
            s.plans_verified,
        );
        page.counter(
            "engine_plans_rejected_total",
            "Plans the verifier refused.",
            s.plans_rejected,
        );
        page.counter(
            "engine_parallel_plans_total",
            "Verified plans with a proved parallel loop.",
            s.parallel_plans,
        );
        page.counter(
            "engine_conversions_total",
            "Conversions that completed successfully.",
            s.conversions,
        );
        page.counter(
            "engine_conversions_failed_total",
            "Executions that started and then failed or panicked.",
            s.conversions_failed,
        );
        page.counter(
            "engine_nnz_moved_total",
            "Stored entries moved by successful conversions.",
            s.nnz_moved,
        );
        page.counter(
            "engine_kernels_hit_total",
            "Conversions served by a native kernel.",
            s.kernels_hit,
        );
        page.counter(
            "engine_kernel_declines_total",
            "Kernel attempts that declined the input.",
            s.kernel_declines,
        );
        page.counter(
            "engine_kernel_panics_total",
            "Kernel attempts that panicked (contained).",
            s.kernel_panics,
        );
        page.counter(
            "engine_interp_fallbacks_total",
            "Successful conversions executed by the interpreter.",
            s.interp_fallbacks,
        );
        page.counter(
            "engine_inputs_rejected_total",
            "Inputs refused before execution (validation or admission).",
            s.inputs_rejected,
        );
        page.counter(
            "engine_items_failed_total",
            "Batch items whose final result was an error.",
            s.items_failed,
        );
        page.counter(
            "engine_panics_caught_total",
            "Panics contained at an isolation boundary.",
            s.panics_caught,
        );
        page.counter(
            "engine_degraded_conversions_total",
            "Batch items retried on the sequential path.",
            s.degraded_conversions,
        );
        page.counter(
            "engine_deadline_expired_total",
            "Batch items that never started before the deadline.",
            s.deadline_expired,
        );
        page.counter(
            "engine_synth_nanoseconds_total",
            "Wall time in synthesis and lowering.",
            s.synth_time.as_nanos() as u64,
        );
        page.counter(
            "engine_verify_nanoseconds_total",
            "Wall time in static plan verification.",
            s.verify_time.as_nanos() as u64,
        );
        page.counter(
            "engine_validate_nanoseconds_total",
            "Wall time in input validation and admission estimation.",
            s.validate_time.as_nanos() as u64,
        );
        page.counter(
            "engine_exec_nanoseconds_total",
            "Wall time in interpreter execution.",
            s.exec_time.as_nanos() as u64,
        );
        page.counter(
            "engine_kernel_nanoseconds_total",
            "Wall time in native kernels that hit.",
            s.kernel_time.as_nanos() as u64,
        );
        page.counter(
            "engine_kernel_declined_nanoseconds_total",
            "Wall time in kernel attempts that declined or panicked.",
            s.kernel_declined_time.as_nanos() as u64,
        );
        page.counter(
            "engine_events_recorded_total",
            "Exceptional events recorded.",
            self.events.recorded(),
        );
        page.counter(
            "engine_events_dropped_total",
            "Exceptional events dropped by the ring.",
            self.events.dropped(),
        );
        let pairs = self.pairs.snapshot();
        for (i, snap) in pairs.iter().enumerate() {
            page.summary(
                "engine_pair_latency_nanoseconds",
                "End-to-end successful-conversion latency per pair.",
                &[("pair", &snap.label)],
                &snap.latency_nanos,
                i == 0,
            );
        }
        for (i, snap) in pairs.iter().enumerate() {
            page.summary(
                "engine_pair_nnz",
                "Input stored-entry counts per pair.",
                &[("pair", &snap.label)],
                &snap.nnz,
                i == 0,
            );
        }
        page.finish()
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// The single-item execution path shared by [`Engine::convert`] and
    /// every batch item: validate → admission check → execute under
    /// `catch_unwind`. The panic guard makes this the engine's fault
    /// boundary — nothing downstream of it can take out a caller.
    fn execute_one(&self, plan: &Plan, input: &AnyMatrix) -> Result<AnyMatrix, EngineError> {
        let pair = plan.pair;
        let nnz = input.nnz() as u64;
        let started = Instant::now();
        if self.config.validate_inputs {
            let t0 = Instant::now();
            let checked = sparse_formats::validate_matrix(&plan.synth.src, input.as_ref());
            self.span_validate(pair, t0.elapsed().as_nanos() as u64, checked.is_ok());
            if let Err(e) = checked {
                StatsInner::add(&self.stats.inputs_rejected, 1);
                self.note(EventKind::InputRejected, pair, 0, nnz);
                return Err(EngineError::Run(e.into()));
            }
        }
        if let Some(budget) = self.config.memory_budget {
            let t0 = Instant::now();
            let (what, needed) =
                admission::estimate_matrix_output_bytes(&plan.synth.dst, input.as_ref());
            self.span_admission(pair, t0.elapsed().as_nanos() as u64, needed <= budget);
            if needed > budget {
                StatsInner::add(&self.stats.inputs_rejected, 1);
                self.note(EventKind::AdmissionRejected, pair, 0, nnz);
                return Err(EngineError::Run(RunError::ResourceExhausted {
                    what: what.to_string(),
                    needed,
                    budget,
                }));
            }
        }
        if self.kernel_eligible(plan) {
            let t0 = Instant::now();
            let hit = catch_unwind(AssertUnwindSafe(|| plan.run_matrix_kernel(input.as_ref())));
            let kernel_nanos = t0.elapsed().as_nanos() as u64;
            if let Some(out) = self.settle_kernel_attempt(hit, pair, kernel_nanos, nnz) {
                self.pairs.record(
                    pair,
                    || plan.pair_label(),
                    started.elapsed().as_nanos() as u64,
                    nnz,
                );
                return Ok(out);
            }
            // Declined, missing, or panicked: fall through to the
            // interpreter — fallback is never an error. The attempt's
            // cost and cause were attributed by `settle_kernel_attempt`.
        }
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            plan.run_matrix_observed(input.as_ref(), pair, &*self.subscriber)
        }));
        let exec_nanos = t0.elapsed().as_nanos() as u64;
        StatsInner::add(&self.stats.exec_nanos, exec_nanos);
        match out {
            Ok(Ok(out)) => {
                StatsInner::add(&self.stats.conversions, 1);
                StatsInner::add(&self.stats.interp_fallbacks, 1);
                StatsInner::add(&self.stats.nnz_moved, nnz);
                self.pairs.record(
                    pair,
                    || plan.pair_label(),
                    started.elapsed().as_nanos() as u64,
                    nnz,
                );
                Ok(out)
            }
            Ok(Err(e)) => {
                StatsInner::add(&self.stats.conversions_failed, 1);
                self.note(EventKind::RunFailed, pair, exec_nanos, nnz);
                Err(EngineError::Run(e))
            }
            Err(payload) => {
                StatsInner::add(&self.stats.conversions_failed, 1);
                StatsInner::add(&self.stats.panics_caught, 1);
                self.note(EventKind::InterpPanic, pair, exec_nanos, nnz);
                Err(EngineError::Panicked(panic_message(&*payload)))
            }
        }
    }

    /// Settles one guarded kernel attempt, attributing its cost and
    /// outcome: a hit counts `kernels_hit`/`conversions` and returns the
    /// output; a decline or contained panic counts its own stat, banks
    /// the attempt's wall time under `kernel_declined_time` (so stage
    /// times still sum to wall time), emits an event, and returns `None`
    /// so the caller falls back to the interpreter. An earlier regime
    /// collapsed all three non-hit cases into a silent fall-through,
    /// dropping both the panic count and the attempt's time.
    fn settle_kernel_attempt<T>(
        &self,
        attempt: std::thread::Result<Option<Result<T, RunError>>>,
        pair: u64,
        kernel_nanos: u64,
        nnz: u64,
    ) -> Option<T> {
        let out = match attempt {
            Ok(Some(Ok(out))) => {
                StatsInner::add(&self.stats.kernel_nanos, kernel_nanos);
                StatsInner::add(&self.stats.kernels_hit, 1);
                StatsInner::add(&self.stats.conversions, 1);
                StatsInner::add(&self.stats.nnz_moved, nnz);
                Some(out)
            }
            Ok(Some(Err(_declined))) => {
                StatsInner::add(&self.stats.kernel_declines, 1);
                StatsInner::add(&self.stats.kernel_declined_nanos, kernel_nanos);
                self.note(EventKind::KernelDecline, pair, kernel_nanos, nnz);
                None
            }
            // A kernel registered for the other rank only: nothing ran,
            // nothing to account.
            Ok(None) => return None,
            Err(_payload) => {
                StatsInner::add(&self.stats.kernel_panics, 1);
                StatsInner::add(&self.stats.panics_caught, 1);
                StatsInner::add(&self.stats.kernel_declined_nanos, kernel_nanos);
                self.note(EventKind::KernelPanic, pair, kernel_nanos, nnz);
                None
            }
        };
        if self.subscriber.enabled() {
            self.subscriber.span(Span {
                stage: Stage::Kernel,
                pair,
                nanos: kernel_nanos,
                ok: out.is_some(),
            });
        }
        out
    }

    /// Emits one `validate` stage span (stats time is always banked; the
    /// subscriber call is skipped when disabled).
    fn span_validate(&self, pair: u64, nanos: u64, ok: bool) {
        StatsInner::add(&self.stats.validate_nanos, nanos);
        if self.subscriber.enabled() {
            self.subscriber.span(Span { stage: Stage::Validate, pair, nanos, ok });
        }
    }

    /// Emits one `admission` stage span (estimation time banked under
    /// `validate_time` alongside input validation).
    fn span_admission(&self, pair: u64, nanos: u64, ok: bool) {
        StatsInner::add(&self.stats.validate_nanos, nanos);
        if self.subscriber.enabled() {
            self.subscriber.span(Span { stage: Stage::Admission, pair, nanos, ok });
        }
    }

    /// The kernel-backend gate: a native kernel may serve a conversion
    /// only when the policy allows it ([`Backend::Auto`]), the inputs
    /// have passed source-descriptor validation, and a kernel is
    /// registered for the pair's structural fingerprints. Everything else
    /// interprets. These are the two facts a kernel's correctness rests
    /// on: the differential suites prove each registered fingerprint pair
    /// bit-identical to the interpreter, on exactly the inputs validation
    /// admits. A verification report is not required — it speaks about
    /// the synthesized plan, which the kernel does not run.
    fn kernel_eligible(&self, plan: &Plan) -> bool {
        self.config.backend == Backend::Auto && self.config.validate_inputs && plan.has_kernel()
    }
}

/// Whether a per-item failure is worth one sequential retry: execution
/// faults and contained panics may be scheduling artifacts; validation,
/// admission, dispatch, and deadline rejections are deterministic
/// functions of the input and would fail identically.
fn transient(e: &EngineError) -> bool {
    match e {
        EngineError::Panicked(_) => true,
        EngineError::Plan(_) => false,
        EngineError::Run(run) => matches!(
            run,
            RunError::Exec(_) | RunError::Format(_) | RunError::MissingOutput(_)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse_formats::descriptors::{self, ScanInfo};
    use sparse_formats::CooMatrix;
    use spf_ir::order::{Comparator, KeyDim, OrderKey};
    use spf_ir::{parse_relation, parse_set, LinExpr, UfSignature, VarId};

    /// A COO-like destination ordered by a user-defined comparator — the
    /// one catalog mechanism that runs arbitrary caller code inside the
    /// interpreter, and therefore the engine's only genuine panic vector
    /// now that binds and validation are typed-error-complete.
    fn userfn_dst() -> FormatDescriptor {
        let mut ufs = spf_ir::UfEnvironment::new();
        ufs.insert(
            UfSignature::parse("rowx", "{ [x] : 0 <= x < NNZ }", "{ [i] : 0 <= i < NR }", None)
                .unwrap(),
        );
        ufs.insert(
            UfSignature::parse("colx", "{ [x] : 0 <= x < NNZ }", "{ [j] : 0 <= j < NC }", None)
                .unwrap(),
        );
        let mut scan_set =
            parse_set("{ [n, i, j] : i = rowx(n) && j = colx(n) && 0 <= n < NNZ }").unwrap();
        scan_set.simplify();
        FormatDescriptor {
            name: "XCOO".into(),
            rank: 2,
            sparse_to_dense: parse_relation(
                "{ [n, ii, jj] -> [i, j] : rowx(n) = i && colx(n) = j && ii = i && jj = j \
                 && 0 <= n < NNZ }",
            )
            .unwrap(),
            data_access: parse_relation("{ [n, ii, jj] -> [d0] : d0 = n }").unwrap(),
            scan: Some(ScanInfo {
                set: scan_set,
                dense_pos: vec![1, 2],
                data_index: LinExpr::var(VarId(0)),
            }),
            ufs,
            order: Some(OrderKey {
                comparator: Comparator::UserFn("EXPLODES".into()),
                dims: vec![KeyDim::coord(2, 0), KeyDim::coord(2, 1)],
            }),
            data_name: "Ax".into(),
            data_size: vec![LinExpr::sym("NNZ")],
            dim_syms: vec!["NR".into(), "NC".into()],
            nnz_sym: "NNZ".into(),
            extra_syms: vec![],
            coord_ufs: vec![Some("rowx".into()), Some("colx".into())],
            contiguous_data: true,
        }
    }

    #[test]
    fn execution_panic_is_contained_as_typed_error() {
        let engine = Engine::new();
        let mut conversion =
            Conversion::new(&descriptors::scoo(), &userfn_dst(), SynthesisOptions::default())
                .unwrap();
        conversion.register_comparator(
            "EXPLODES",
            Arc::new(|_: &[i64], _: &[i64]| panic!("comparator exploded")),
        );
        let plan = Plan { conversion, verification: None, pair: 0 };
        let input = AnyMatrix::Coo(
            CooMatrix::from_triplets(
                4,
                4,
                vec![0, 1, 2, 3],
                vec![1, 0, 3, 2],
                vec![1.0, 2.0, 3.0, 4.0],
            )
            .unwrap(),
        );

        let err = engine.execute_one(&plan, &input).unwrap_err();
        match err {
            EngineError::Panicked(m) => assert!(m.contains("comparator exploded"), "{m}"),
            other => panic!("expected a contained panic, got: {other}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.panics_caught, 1, "the panic must be counted");
        assert_eq!(stats.conversions, 0, "a panicked execution is not a conversion");
        assert_eq!(stats.conversions_failed, 1, "it is a failed conversion");
        assert_eq!(stats.interp_fallbacks, 0, "fallbacks count successes only");
        assert_eq!(stats.nnz_moved, 0, "panicked conversions move no nnz");

        // The engine — cache, counters, later converts — survives intact.
        let out = engine
            .convert(&descriptors::scoo(), &descriptors::csr(), &input)
            .unwrap();
        assert!(matches!(out, AnyMatrix::Csr(_)));
        assert_eq!(engine.stats().panics_caught, 1);
    }

    /// A kernel-eligible plan for scoo -> csr (unverified, as a default
    /// engine builds it) whose native kernel is replaced by `kernel`
    /// through the fault-injection hook.
    fn kernel_plan(kernel: sparse_synthesis::MatrixKernelFn) -> Plan {
        let mut conversion =
            Conversion::new(&descriptors::scoo(), &descriptors::csr(), SynthesisOptions::default())
                .unwrap();
        conversion.override_matrix_kernel(kernel);
        Plan { conversion, verification: None, pair: 42 }
    }

    fn sorted_input() -> AnyMatrix {
        AnyMatrix::Coo(
            CooMatrix::from_triplets(
                4,
                4,
                vec![0, 1, 2, 3],
                vec![1, 0, 3, 2],
                vec![1.0, 2.0, 3.0, 4.0],
            )
            .unwrap(),
        )
    }

    /// Regression: a panicking kernel used to be swallowed by the
    /// `if let Ok(Some(Ok(..)))` fall-through — no `panics_caught`, no
    /// event, no time attributed. The fallback behavior (interpreter
    /// answers, caller sees success) is pinned unchanged.
    #[test]
    fn panicking_kernel_is_counted_and_falls_back() {
        let engine = Engine::new();
        let plan = kernel_plan(|_| panic!("kernel exploded"));
        assert!(engine.kernel_eligible(&plan), "the test must exercise the kernel gate");

        let out = engine.execute_one(&plan, &sorted_input()).unwrap();
        assert!(matches!(out, AnyMatrix::Csr(_)), "fallback must still answer");
        let stats = engine.stats();
        assert_eq!(stats.kernel_panics, 1, "the kernel panic must be counted");
        assert_eq!(stats.panics_caught, 1, "and roll up into panics_caught");
        assert_eq!(stats.kernels_hit, 0);
        assert_eq!(stats.conversions, 1, "the interpreter completed the conversion");
        assert_eq!(stats.interp_fallbacks, 1);
        assert_eq!(stats.conversions_failed, 0, "a contained kernel panic is not a failure");
        assert!(engine.events_dump().contains("kernel-panic"), "{}", engine.events_dump());
    }

    /// Regression: a declining kernel's probe time used to be dropped on
    /// the floor (`t0` was only banked on a hit), so per-conversion stage
    /// times did not sum to wall time.
    #[test]
    fn declining_kernel_time_is_attributed() {
        let engine = Engine::new();
        let plan = kernel_plan(|_| {
            std::thread::sleep(Duration::from_millis(5));
            Err(RunError::Unsupported("declined by test".into()))
        });

        let out = engine.execute_one(&plan, &sorted_input()).unwrap();
        assert!(matches!(out, AnyMatrix::Csr(_)));
        let stats = engine.stats();
        assert_eq!(stats.kernel_declines, 1);
        assert_eq!(stats.kernels_hit, 0);
        assert_eq!(stats.kernel_time, Duration::ZERO, "no hit, no kernel_time");
        assert!(
            stats.kernel_declined_time >= Duration::from_millis(5),
            "the declined attempt's {:?} must be attributed",
            stats.kernel_declined_time
        );
        assert_eq!(stats.conversions, 1);
        assert_eq!(stats.interp_fallbacks, 1);
        assert_eq!(stats.panics_caught, 0, "declining is not a panic");
        assert!(engine.events_dump().contains("kernel-decline"), "{}", engine.events_dump());
    }
}
