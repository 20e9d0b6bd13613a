//! The repository benchmark: seeded workloads driven through the public
//! API of the workspace crates from one process with one closed-loop
//! caller, every output checked against a reference.
//!
//! ```text
//! perfbench --workload <suite_default|kernel_large|small_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! per-layer replay instead. Supporting lines (context, per-pair rows)
//! come first; the last line of standard output is the result object.

mod catalog;
mod check;
mod measure;
mod report;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use check::Checker;
use report::{nproc, number, result_line, string, Obj};
use sparse_synthesis::KernelRegistry;
use workload::{Op, Workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// The run's context: machine, engine configuration, workload shape.
fn context(w: &Workload, args: &Args, gen_s: f64) -> String {
    let (lo, hi) = w.nnz_range();
    let batches = w
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Batch { .. }))
        .count();
    Obj::default()
        .str("workload", w.name)
        .int("seed", args.seed)
        .int("trace", args.trace as u64)
        .int("nproc", nproc() as u64)
        .int("l3_bytes", report::l3_bytes())
        .str("engine_config", &format!("{:?}", w.config))
        .int("kernel_registry_len", KernelRegistry::global().len() as u64)
        .int("pairs", w.used.len() as u64)
        .int(
            "kernel_pairs",
            w.used.iter().filter(|&&p| w.pairs[p].has_kernel()).count() as u64,
        )
        .int("ops", w.ops.len() as u64)
        .int("batches", batches as u64)
        .int("items", w.item_count() as u64)
        .raw("nnz_range", format!("[{lo}, {hi}]"))
        .num("tail_percentile", w.tail_pct)
        .str("loop", "closed, one caller")
        .num("generate_s", gen_s)
        .render()
}

fn run(args: &Args) -> Result<String, String> {
    let t0 = Instant::now();
    let w = Workload::build(&args.workload, args.seed).ok_or("unknown workload")?;
    println!(
        "{}",
        Obj::default()
            .raw("context", context(&w, args, t0.elapsed().as_secs_f64()))
            .render()
    );

    let mut checker = Checker::new(w.ops.iter().map(|op| match op {
        Op::Single { .. } => 1,
        Op::Batch { items, .. } => items.len(),
    }));
    let (engine, first_setup) = measure::setup(&w)?;
    measure::warm_up(&engine, &w, &mut checker);

    let metrics = if args.trace {
        let traced = trace::run(&engine, &w, &mut checker, args.seconds, args.seed)?;
        for row in &traced.rows {
            println!("{row}");
        }
        traced.metrics
    } else {
        let e2e = measure::run(&engine, &w, &mut checker, args.seconds, first_setup)?;
        let error_rate = report::ratio(checker.failed as f64, checker.attempted as f64);
        let summary = Obj::default()
            .raw(
                "setups_s",
                format!(
                    "[{}]",
                    e2e.setups
                        .iter()
                        .map(|s| number(*s))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .int("latency_samples", e2e.samples as u64)
            .int("latency_samples_beyond_tail", e2e.beyond_tail as u64)
            .int("passes", e2e.passes)
            .num("timed_wall_s", e2e.wall_s)
            .num("error_rate", error_rate)
            .int("expected_rejections", checker.rejected)
            .render();
        println!("{}", Obj::default().raw("summary", summary).render());
        for m in &e2e.metrics {
            println!("{} {} {}", m.name, number(m.value), m.unit);
        }
        e2e.metrics
    };
    for note in &checker.notes {
        println!("{}", Obj::default().raw("failure", string(note)).render());
    }
    Ok(result_line(checker.attempted, checker.failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
