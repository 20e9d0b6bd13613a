//! The traced replay (`--trace 1`). For every operation it runs the
//! engine's `convert` untraced, with the `EngineStats` ledger read around
//! it, and separately replays the same conversion by calling each layer's
//! public entry point in the engine's order, timing every call from here:
//!
//! `Engine::plan` -> validate -> kernel, or bind -> `execute_env_quiet`
//! -> extract.
//!
//! Nothing inside the program is instrumented: the spans are the
//! benchmark's own, around the calls it makes.

use std::time::{Duration, Instant};

use sparse_engine::{Backend, Engine, EngineConfig, EngineError, EngineStats, Plan};
use sparse_formats::AnyMatrix;
use sparse_synthesis::{
    bind_matrix, bind_tensor, extract_matrix, extract_tensor, Conversion, RunError,
};
use spf_codegen::runtime::RtEnv;

use crate::catalog::Pair;
use crate::check::{Checker, Output};
use crate::measure::convert;
use crate::report::{median, ratio, Metric, Obj};
use crate::workload::{corrupt, Input, Item, Op, Rng, Workload};

/// Repetitions of the synthesis timing (verification is timed once).
const SYNTH_REPS: usize = 3;
/// Bulk workloads have no batches of their own; this many of their
/// matrix ops are also sent as a two-item batch to measure fan-out.
const BATCH_PROBES: usize = 6;

/// Layer times summed over calls, in nanoseconds, with the work they
/// covered.
#[derive(Default, Clone)]
pub struct Acc {
    /// Single-call replays.
    calls: u64,
    /// `Engine::convert` wall time, untraced.
    wall: u64,
    /// The same conversions' stage times from the engine's own ledger.
    ledger: u64,
    /// Outer wall time of the traced replays.
    replay: u64,
    plan: u64,
    validate: u64,
    validate_nnz: u64,
    reject: u64,
    rejects: u64,
    kernel: u64,
    kernel_nnz: u64,
    bind: u64,
    interp: u64,
    interp_calls: u64,
    interp_nnz: u64,
    extract: u64,
}

impl Acc {
    /// Every traced layer call except the plan lookup: what the engine's
    /// stage ledger also covers.
    fn stages(&self) -> u64 {
        self.validate + self.reject + self.kernel + self.bind + self.interp + self.extract
    }

    fn traced(&self) -> u64 {
        self.plan + self.stages()
    }

    fn add(&mut self, o: &Acc) {
        self.calls += o.calls;
        self.wall += o.wall;
        self.ledger += o.ledger;
        self.replay += o.replay;
        self.plan += o.plan;
        self.validate += o.validate;
        self.validate_nnz += o.validate_nnz;
        self.reject += o.reject;
        self.rejects += o.rejects;
        self.kernel += o.kernel;
        self.kernel_nnz += o.kernel_nnz;
        self.bind += o.bind;
        self.interp += o.interp;
        self.interp_calls += o.interp_calls;
        self.interp_nnz += o.interp_nnz;
        self.extract += o.extract;
    }

    fn row(&self, label: &str) -> String {
        let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
        Obj::default()
            .str("trace_pair", label)
            .int("calls", self.calls)
            .num("wall_us", per(self.wall, self.calls) / 1e3)
            .num("plan_us", per(self.plan, self.calls) / 1e3)
            .num("validate_ns_per_nnz", per(self.validate, self.validate_nnz))
            .int("rejects", self.rejects)
            .num("reject_us", per(self.reject, self.rejects) / 1e3)
            .num("kernel_ns_per_nnz", per(self.kernel, self.kernel_nnz))
            .num("bind_us", per(self.bind, self.interp_calls) / 1e3)
            .num("interp_ns_per_nnz", per(self.interp, self.interp_nnz))
            .num("extract_ns_per_nnz", per(self.extract, self.interp_nnz))
            .num(
                "wall_gap_share",
                ratio(self.wall as f64 - self.traced() as f64, self.wall as f64),
            )
            .num(
                "ledger_gap_share",
                ratio(
                    self.ledger as f64 - self.stages() as f64,
                    self.stages() as f64,
                ),
            )
            .render()
    }
}

fn nanos(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The engine's kernel gate, from public fields: the default policy,
/// validated inputs, a verified plan and a registered kernel.
fn kernel_eligible(cfg: &EngineConfig, plan: &Plan) -> bool {
    cfg.backend == Backend::Auto
        && cfg.validate_inputs
        && plan.verification.is_some()
        && plan.has_kernel()
}

/// Replays one conversion layer by layer, adding each call's time to
/// `acc`.
fn replay(
    engine: &Engine,
    pair: &Pair,
    input: &Input,
    acc: &mut Acc,
) -> Result<Output, EngineError> {
    let outer = Instant::now();
    let out = replay_layers(engine, pair, input, acc);
    acc.replay += nanos(outer);
    acc.calls += 1;
    out
}

fn replay_layers(
    engine: &Engine,
    pair: &Pair,
    input: &Input,
    acc: &mut Acc,
) -> Result<Output, EngineError> {
    let nnz = input.nnz() as u64;
    let t = Instant::now();
    let plan = engine.plan(&pair.src_desc, &pair.dst_desc)?;
    acc.plan += nanos(t);

    let t = Instant::now();
    let valid = match input {
        Input::M(m) => sparse_formats::validate_matrix(&plan.synth.src, m.as_ref()),
        Input::T(x) => sparse_formats::validate_tensor(&plan.synth.src, x.as_ref()),
    };
    let ns = nanos(t);
    if let Err(e) = valid {
        acc.reject += ns;
        acc.rejects += 1;
        return Err(EngineError::Run(e.into()));
    }
    acc.validate += ns;
    acc.validate_nnz += nnz;

    if kernel_eligible(engine.config(), &plan) {
        if let Some(out) = kernel(&plan, input, acc) {
            return Ok(out);
        }
        // Declined: the interpreter answers, as in the engine.
    }
    Ok(interpret(&plan, input, acc)?)
}

/// The native kernel on a validated input; `None` when it declines (its
/// time is still the kernel layer's).
fn kernel(plan: &Plan, input: &Input, acc: &mut Acc) -> Option<Output> {
    let t = Instant::now();
    let out = match input {
        Input::M(m) => plan.run_matrix_kernel(m.as_ref()).map(|r| r.map(Output::M)),
        Input::T(x) => plan.run_tensor_kernel(x.as_ref()).map(|r| r.map(Output::T)),
    };
    acc.kernel += nanos(t);
    let out = out?.ok()?;
    acc.kernel_nnz += input.nnz() as u64;
    Some(out)
}

/// Bind, interpret and extract on a validated input, each timed.
fn interpret(plan: &Plan, input: &Input, acc: &mut Acc) -> Result<Output, RunError> {
    let t = Instant::now();
    let mut env = RtEnv::new();
    match input {
        Input::M(m) => bind_matrix(&mut env, &plan.synth.src, m.as_ref())?,
        Input::T(x) => bind_tensor(&mut env, &plan.synth.src, x.as_ref())?,
    }
    acc.bind += nanos(t);

    let t = Instant::now();
    plan.execute_env_quiet(&mut env)?;
    acc.interp += nanos(t);
    acc.interp_calls += 1;
    acc.interp_nnz += input.nnz() as u64;

    let t = Instant::now();
    let out = match input {
        Input::M(m) => {
            let (nr, nc) = m.dims();
            extract_matrix(&mut env, &plan.synth.dst, nr, nc).map(Output::M)
        }
        Input::T(x) => extract_tensor(&mut env, &plan.synth.dst, x.dims()).map(Output::T),
    }?;
    acc.extract += nanos(t);
    Ok(out)
}

/// Times, once per pair, the layer the engine's route skips on this
/// workload: the kernel where the engine interprets a pair that has one,
/// and bind, interpret and extract where it runs the kernel. Each probe
/// uses the pair's first valid single-call input, and its output is
/// checked like any other. Without this a layer the route skips would
/// read 0 on every run.
fn probe_skipped_layers(
    engine: &Engine,
    w: &Workload,
    checker: &mut Checker,
) -> Result<Acc, String> {
    let mut probe = Acc::default();
    let mut probed = vec![false; w.pairs.len()];
    for (oi, op) in w.ops.iter().enumerate() {
        let Op::Single { pair, src, item } = op else {
            continue;
        };
        if item.corrupt || std::mem::replace(&mut probed[*pair], true) {
            continue;
        }
        let p = &w.pairs[*pair];
        let plan = engine
            .plan(&p.src_desc, &p.dst_desc)
            .map_err(|e| e.to_string())?;
        let input = &w.sources[*src];
        let out = if kernel_eligible(engine.config(), &plan) {
            interpret(&plan, input, &mut probe).map_err(EngineError::Run)
        } else if plan.has_kernel() {
            match kernel(&plan, input, &mut probe) {
                Some(out) => Ok(out),
                None => continue,
            }
        } else {
            continue;
        };
        checker.check(oi, 0, item, p.dst, &w.bases, out);
    }
    Ok(probe)
}

fn ledger(s: &EngineStats) -> Duration {
    s.validate_time + s.exec_time + s.kernel_time + s.kernel_declined_time
}

/// `Engine::convert`, untraced, with its wall time and ledger delta.
fn convert_ledgered(
    engine: &Engine,
    pair: &Pair,
    input: &Input,
    acc: &mut Acc,
) -> Result<Output, EngineError> {
    let before = engine.stats();
    let t = Instant::now();
    let out = convert(engine, pair, input);
    acc.wall += nanos(t);
    acc.ledger += (ledger(&engine.stats()) - ledger(&before)).as_nanos() as u64;
    out
}

/// Per-layer results of one traced run.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// One JSON row per pair, as supporting data.
    pub rows: Vec<String>,
}

/// Replays operations, one `Acc` per pair.
struct Replayer<'a> {
    engine: &'a Engine,
    w: &'a Workload,
    per_pair: Vec<Acc>,
    flip: bool,
    /// Per call: `convert` wall time minus the replay's summed layer
    /// times on the same input, in ns.
    dispatch: Vec<f64>,
}

impl Replayer<'_> {
    /// One conversion both ways, untraced and replayed, checking both
    /// outputs; returns the untraced wall time.
    fn one(
        &mut self,
        oi: usize,
        k: usize,
        pair: usize,
        input: &Input,
        item: &Item,
        checker: &mut Checker,
    ) -> u64 {
        // Alternate which path runs first so neither always finds the
        // input warm in cache.
        self.flip = !self.flip;
        let (engine, p) = (self.engine, &self.w.pairs[pair]);
        let acc = &mut self.per_pair[pair];
        let (wall_before, traced_before) = (acc.wall, acc.traced());
        let (a, b) = if self.flip {
            let a = convert_ledgered(engine, p, input, acc);
            (a, replay(engine, p, input, acc))
        } else {
            let b = replay(engine, p, input, acc);
            (convert_ledgered(engine, p, input, acc), b)
        };
        let wall = acc.wall - wall_before;
        self.dispatch
            .push(wall as f64 - (acc.traced() - traced_before) as f64);
        checker.check(oi, k, item, p.dst, &self.w.bases, a);
        checker.check(oi, k, item, p.dst, &self.w.bases, b);
        wall
    }
}

/// The whole traced replay: synthesis and verification timings, the
/// batch, rejection and skipped-layer probes, then `seconds` of replayed
/// operations.
pub fn run(
    engine: &Engine,
    w: &Workload,
    checker: &mut Checker,
    seconds: f64,
    seed: u64,
) -> Result<Traced, String> {
    let (synth_ms, verify_ms) = synth_and_verify_ms(w)?;
    let mut r = Replayer {
        engine,
        w,
        per_pair: vec![Acc::default(); w.pairs.len()],
        flip: false,
        dispatch: vec![],
    };
    let (mut batch_ns, mut seq_ns) = (0u64, 0u64);

    // Bulk workloads: a few ops also go through `convert_batch` as two
    // copies, and each distinct matrix source is also sent corrupted.
    let bulk = w.ops.iter().all(|op| matches!(op, Op::Single { .. }));
    if bulk {
        let singles: Vec<(usize, usize, usize, Item)> = w
            .ops
            .iter()
            .enumerate()
            .filter_map(|(oi, op)| match op {
                Op::Single { pair, src, item } if !w.pairs[*pair].is_tensor() => {
                    Some((oi, *pair, *src, *item))
                }
                _ => None,
            })
            .collect();
        let step = singles.len().div_ceil(BATCH_PROBES).max(1);
        for &(oi, pair, src, item) in singles.iter().step_by(step) {
            let Input::M(m) = &w.sources[src] else {
                continue;
            };
            let p = &w.pairs[pair];
            let twice: Vec<AnyMatrix> = vec![m.clone(), m.clone()];
            let t = Instant::now();
            let results = engine.convert_batch(&p.src_desc, &p.dst_desc, &twice);
            batch_ns += nanos(t);
            drop(twice);
            for out in results.map_err(|e| e.to_string())? {
                checker.check(oi, 0, &item, p.dst, &w.bases, out.map(Output::M));
            }
            for _ in 0..2 {
                let t = Instant::now();
                let out = convert(engine, p, &w.sources[src]);
                seq_ns += nanos(t);
                checker.check(oi, 0, &item, p.dst, &w.bases, out);
            }
        }
        let mut rng = Rng::new(seed, "reject-probes");
        let mut seen = std::collections::BTreeSet::new();
        for &(_, pair, src, _) in &singles {
            let Input::M(m) = &w.sources[src] else {
                continue;
            };
            if !seen.insert(src) {
                continue;
            }
            let p = &w.pairs[pair];
            let Some(bad) = corrupt(m, p.src, &mut rng) else {
                continue;
            };
            let bad = Input::M(bad);
            let acc = &mut r.per_pair[pair];
            checker.expect_rejection(&p.label, convert_ledgered(engine, p, &bad, acc));
            checker.expect_rejection(&p.label, replay(engine, p, &bad, acc));
        }
    }

    let probe = probe_skipped_layers(engine, w, checker)?;

    let before = engine.stats();
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        passes += 1;
        for (oi, op) in w.ops.iter().enumerate() {
            match op {
                Op::Single { pair, src, item } => {
                    r.one(oi, 0, *pair, &w.sources[*src], item, checker);
                }
                Op::Batch {
                    pair,
                    inputs,
                    items,
                } => {
                    let p = &w.pairs[*pair];
                    let t = Instant::now();
                    let results = engine.convert_batch(&p.src_desc, &p.dst_desc, inputs);
                    batch_ns += nanos(t);
                    for (k, out) in results.map_err(|e| e.to_string())?.into_iter().enumerate() {
                        checker.check(oi, k, &items[k], p.dst, &w.bases, out.map(Output::M));
                    }
                    for (k, (m, item)) in inputs.iter().zip(items).enumerate() {
                        // Batch items replay one by one; their untraced
                        // `convert` time is the sequential baseline.
                        let input = Input::M(m.clone());
                        seq_ns += r.one(oi, k, *pair, &input, item, checker);
                    }
                }
            }
        }
    }
    let after = engine.stats();

    let (per_pair, dispatch) = (r.per_pair, r.dispatch);
    let mut all = Acc::default();
    per_pair.iter().for_each(|a| all.add(a));
    let rows = w
        .used
        .iter()
        .filter(|&&p| per_pair[p].calls > 0)
        .map(|&p| per_pair[p].row(&w.pairs[p].label))
        .chain(std::iter::once(all.row("all")))
        .collect();

    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    // Layers the engine's route skipped come from the probe.
    let interp = if all.interp_calls > 0 { &all } else { &probe };
    let kern = if all.kernel_nnz > 0 { &all } else { &probe };
    let metrics = vec![
        Metric {
            name: "engine.plan_warm_us",
            unit: "us",
            value: per(all.plan, all.calls) / 1e3,
        },
        Metric {
            name: "engine.cache_hit_ratio",
            unit: "ratio",
            value: per(
                after.cache_hits - before.cache_hits,
                after.plan_lookups - before.plan_lookups,
            ),
        },
        Metric {
            name: "engine.kernel_share",
            unit: "ratio",
            value: per(
                after.kernels_hit - before.kernels_hit,
                after.conversions - before.conversions,
            ),
        },
        Metric {
            name: "engine.dispatch_us_per_call",
            unit: "us",
            value: median(&dispatch) / 1e3,
        },
        Metric {
            name: "engine.batch_speedup",
            unit: "x",
            value: per(seq_ns, batch_ns),
        },
        Metric {
            name: "core.synth_ms",
            unit: "ms",
            value: synth_ms,
        },
        Metric {
            name: "analyze.verify_ms",
            unit: "ms",
            value: verify_ms,
        },
        Metric {
            name: "formats.validate_ns_per_nnz",
            unit: "ns/nnz",
            value: per(all.validate, all.validate_nnz),
        },
        Metric {
            name: "formats.reject_us",
            unit: "us",
            value: per(all.reject, all.rejects) / 1e3,
        },
        Metric {
            name: "core.bind_us",
            unit: "us",
            value: per(interp.bind, interp.interp_calls) / 1e3,
        },
        Metric {
            name: "core.extract_ns_per_nnz",
            unit: "ns/nnz",
            value: per(interp.extract, interp.interp_nnz),
        },
        Metric {
            name: "codegen.interp_ns_per_nnz",
            unit: "ns/nnz",
            value: per(interp.interp, interp.interp_nnz),
        },
        Metric {
            name: "codegen.kernel_ns_per_nnz",
            unit: "ns/nnz",
            value: per(kern.kernel, kern.kernel_nnz),
        },
        Metric {
            name: "trace.wall_gap_share",
            unit: "ratio",
            value: ratio(all.wall as f64 - all.traced() as f64, all.wall as f64),
        },
        Metric {
            name: "trace.ledger_gap_share",
            unit: "ratio",
            value: ratio(all.ledger as f64 - all.stages() as f64, all.stages() as f64),
        },
        Metric {
            name: "trace.overhead_share",
            unit: "ratio",
            value: ratio(all.replay as f64 - all.wall as f64, all.wall as f64),
        },
    ];
    Ok(Traced { metrics, rows })
}

/// The median over `SYNTH_REPS` of `Conversion::new` summed over the
/// workload's pairs, and `sparse_analyze::verify` summed over them once
/// (it takes seconds on DIA destinations), in ms. Both are timed whether
/// or not the workload's engine verifies plans.
fn synth_and_verify_ms(w: &Workload) -> Result<(f64, f64), String> {
    let mut synth = vec![];
    let mut verify = Duration::ZERO;
    for rep in 0..SYNTH_REPS {
        let mut s = Duration::ZERO;
        for &p in &w.used {
            let pair = &w.pairs[p];
            let t = Instant::now();
            let conv = Conversion::new(&pair.src_desc, &pair.dst_desc, w.config.options)
                .map_err(|e| format!("synthesizing {} failed: {e}", pair.label))?;
            s += t.elapsed();
            if rep == 0 {
                let t = Instant::now();
                std::hint::black_box(sparse_analyze::verify(&conv.synth));
                verify += t.elapsed();
            }
        }
        synth.push(s.as_secs_f64() * 1e3);
    }
    Ok((median(&synth), verify.as_secs_f64() * 1e3))
}
