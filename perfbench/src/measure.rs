//! The untraced, end-to-end measurement: set-up on fresh engines, one
//! warm-up pass, then a closed loop with one caller that times each call
//! into the engine's public API and nothing else.

use std::time::Instant;

use sparse_engine::{Engine, EngineError};

use crate::catalog::Pair;
use crate::check::{Checker, Output};
use crate::report::{geomean, median, peak_rss_mb, percentile, Metric};
use crate::workload::{Input, Op, Workload};

/// Fresh-engine set-ups before the timed loop; one more follows every
/// timed pass, so the reported median samples the whole run.
const SETUPS_BEFORE: usize = 3;

/// `convert` or `convert_tensor`, by the input's rank.
pub fn convert(engine: &Engine, pair: &Pair, input: &Input) -> Result<Output, EngineError> {
    match input {
        Input::M(m) => engine
            .convert(&pair.src_desc, &pair.dst_desc, m)
            .map(Output::M),
        Input::T(t) => engine
            .convert_tensor(&pair.src_desc, &pair.dst_desc, t)
            .map(Output::T),
    }
}

/// A fresh engine with a cached plan for every pair `w` uses, and the
/// seconds that took.
pub fn setup(w: &Workload) -> Result<(Engine, f64), String> {
    let t0 = Instant::now();
    let engine = Engine::with_config(w.config);
    for &p in &w.used {
        let pair = &w.pairs[p];
        engine
            .plan(&pair.src_desc, &pair.dst_desc)
            .map_err(|e| format!("planning {} failed: {e}", pair.label))?;
    }
    Ok((engine, t0.elapsed().as_secs_f64()))
}

/// One timed single call.
struct Sample {
    pair: usize,
    ns: u64,
    nnz: usize,
    converted: bool,
}

/// What the timed loop saw.
#[derive(Default)]
struct Timed {
    singles: Vec<Sample>,
    /// Sum of the timed calls: the caller's checking between calls is
    /// not on the clock.
    busy_ns: u128,
    items: u64,
    nnz_converted: u64,
    passes: u64,
}

impl Timed {
    fn single(&mut self, pair: usize, ns: u64, nnz: usize, converted: bool) {
        self.singles.push(Sample {
            pair,
            ns,
            nnz,
            converted,
        });
        self.busy_ns += ns as u128;
        self.items += 1;
        if converted {
            self.nnz_converted += nnz as u64;
        }
    }
}

/// Runs op `oi` once through the engine, timing the call and checking
/// every item's outcome afterwards.
fn run_op(engine: &Engine, w: &Workload, oi: usize, checker: &mut Checker, rec: &mut Timed) {
    match &w.ops[oi] {
        Op::Single { pair, src, item } => {
            let p = &w.pairs[*pair];
            let t0 = Instant::now();
            let out = convert(engine, p, &w.sources[*src]);
            let ns = t0.elapsed().as_nanos() as u64;
            let converted = out.is_ok();
            checker.check(oi, 0, item, p.dst, &w.bases, out);
            rec.single(*pair, ns, item.nnz, converted);
        }
        Op::Batch {
            pair,
            inputs,
            items,
        } => {
            let p = &w.pairs[*pair];
            let t0 = Instant::now();
            let out = engine.convert_batch(&p.src_desc, &p.dst_desc, inputs);
            rec.busy_ns += t0.elapsed().as_nanos();
            rec.items += items.len() as u64;
            match out {
                Ok(results) => {
                    for (k, (r, item)) in results.into_iter().zip(items).enumerate() {
                        if r.is_ok() {
                            rec.nnz_converted += item.nnz as u64;
                        }
                        checker.check(oi, k, item, p.dst, &w.bases, r.map(Output::M));
                    }
                }
                Err(e) => {
                    for (k, item) in items.iter().enumerate() {
                        let err = EngineError::Plan(e.to_string());
                        checker.check(oi, k, item, p.dst, &w.bases, Err(err));
                    }
                }
            }
        }
    }
}

/// One untimed pass over every op: fills caches, and checks each
/// distinct output against its reference.
pub fn warm_up(engine: &Engine, w: &Workload, checker: &mut Checker) {
    let mut scratch = Timed::default();
    for oi in 0..w.ops.len() {
        run_op(engine, w, oi, checker, &mut scratch);
    }
}

/// The end-to-end metrics of `--trace 0`.
pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    /// Supporting figures for the report line.
    pub samples: usize,
    pub beyond_tail: usize,
    pub passes: u64,
    pub wall_s: f64,
    pub setups: Vec<f64>,
}

/// The timed closed loop: whole passes over the ops, so every op weighs
/// the same, until `seconds` have passed; then derives every end-to-end
/// metric. `first_setup` is the set-up time of `engine`; more fresh
/// set-ups are timed before the loop and after every pass (off the
/// clock), and `setup_s` is their median.
pub fn run(
    engine: &Engine,
    w: &Workload,
    checker: &mut Checker,
    seconds: f64,
    first_setup: f64,
) -> Result<EndToEnd, String> {
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS_BEFORE {
        setups.push(setup(w)?.1);
    }
    let mut rec = Timed::default();
    let start = Instant::now();
    while rec.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for oi in 0..w.ops.len() {
            run_op(engine, w, oi, checker, &mut rec);
        }
        rec.passes += 1;
        setups.push(setup(w)?.1);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let busy_s = rec.busy_ns as f64 / 1e9;

    let latencies: Vec<f64> = rec.singles.iter().map(|s| s.ns as f64 / 1e3).collect();
    let (tail, beyond_tail) = percentile(&latencies, w.tail_pct);
    let mut per_pair: Vec<Vec<f64>> = vec![vec![]; w.pairs.len()];
    for s in rec.singles.iter().filter(|s| s.converted && s.nnz > 0) {
        per_pair[s.pair].push(s.ns as f64 / s.nnz as f64);
    }
    let pair_medians: Vec<f64> = per_pair
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();

    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setups),
        },
        Metric {
            name: "throughput_mnnz_s",
            unit: "Mnnz/s",
            value: rec.nnz_converted as f64 / busy_s / 1e6,
        },
        Metric {
            name: "ops_per_s",
            unit: "1/s",
            value: rec.items as f64 / busy_s,
        },
        Metric {
            name: "geomean_ns_per_nnz",
            unit: "ns/nnz",
            value: geomean(&pair_medians),
        },
        Metric {
            name: "latency_p50_us",
            unit: "us",
            value: median(&latencies),
        },
        Metric {
            name: "latency_tail_us",
            unit: "us",
            value: tail,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb(),
        },
    ];
    Ok(EndToEnd {
        metrics,
        samples: latencies.len(),
        beyond_tail,
        passes: rec.passes,
        wall_s,
        setups,
    })
}
