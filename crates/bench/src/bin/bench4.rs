//! Measures the native kernel backend against the SPF-IR interpreter on
//! every kernel-backed catalog pair and writes the results to
//! `BENCH_4.json` (per-pair ns/nnz for both backends plus the speedup).
//! Also gates the observability layer: the instrumented interpreter path
//! with the default `NoopSubscriber` must cost <5% over the
//! uninstrumented one, summed across all pairs. Both sides run the
//! stats-free interpreter, so the gate compares like with like.
//!
//! Usage:
//!
//! ```text
//! bench4 [--n N] [--nnz M] [--reps K] [--out PATH]
//! ```
//!
//! Defaults: `--n 10000` (a 10k×10k matrix), `--nnz 1000000`,
//! `--reps 3` (minima are reported), `--out BENCH_4.json`.

use std::fmt::Write as _;

use sparse_bench::{run_bare, time_min};
use sparse_formats::descriptors;
use sparse_formats::{
    AnyMatrix, AnyTensor, CooMatrix, CscMatrix, CsrMatrix, FormatDescriptor, MortonCooMatrix,
};
use sparse_matgen::generators::{random_uniform, shuffle_perm, skewed_tensor};
use sparse_engine::NoopSubscriber;
use sparse_synthesis::{Conversion, Operand, SynthesisOptions};

struct Args {
    n: usize,
    nnz: usize,
    reps: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args =
        Args { n: 10_000, nnz: 1_000_000, reps: 3, out: "BENCH_4.json".to_string() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--n" => args.n = it.next().and_then(|v| v.parse().ok()).expect("--n takes N"),
            "--nnz" => {
                args.nnz = it.next().and_then(|v| v.parse().ok()).expect("--nnz takes M")
            }
            "--reps" => {
                args.reps = it.next().and_then(|v| v.parse().ok()).expect("--reps takes K")
            }
            "--out" => args.out = it.next().expect("--out takes a path"),
            "--help" | "-h" => {
                println!("bench4 [--n N] [--nnz M] [--reps K] [--out PATH]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    args
}

/// How a generated COO matrix is presented to the pair's source format.
#[derive(Clone, Copy)]
enum Src {
    Unsorted,
    Sorted,
    Morton,
    Csr,
    Csc,
}

fn matrix_pairs() -> Vec<(Src, FormatDescriptor, FormatDescriptor)> {
    use descriptors as d;
    vec![
        (Src::Sorted, d::scoo(), d::csr()),
        (Src::Unsorted, d::coo(), d::csr()),
        (Src::Sorted, d::scoo(), d::csc()),
        (Src::Csr, d::csr(), d::csc()),
        (Src::Csc, d::csc(), d::csr()),
        (Src::Csr, d::csr(), d::coo()),
        (Src::Csc, d::csc(), d::coo()),
        (Src::Sorted, d::scoo(), d::mcoo()),
        (Src::Morton, d::mcoo(), d::csr()),
        (Src::Unsorted, d::coo(), d::scoo().with_suffix("_d")),
    ]
}

/// `m` with its entries in a seeded scrambled order.
fn shuffled(mut m: CooMatrix, seed: u64) -> CooMatrix {
    m.permute(&shuffle_perm(m.nnz(), seed));
    m
}

struct Row {
    pair: String,
    nnz: usize,
    interp_ns: f64,
    kernel_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.interp_ns / self.kernel_ns
    }
}

/// Times one kernel-backed pair on `input`: the instrumented interpreter,
/// the uninstrumented one, and the native kernel (minima over `reps`).
/// Returns the row and the two interpreter times for the overhead gate.
fn measure<'a, I: Operand<'a>>(
    src: &FormatDescriptor,
    dst: &FormatDescriptor,
    input: I,
    reps: usize,
) -> (Row, f64, f64) {
    let pair = format!("{} -> {}", src.name, dst.name);
    let conv = Conversion::new(src, dst, SynthesisOptions::default())
        .unwrap_or_else(|e| panic!("{pair}: synthesis failed: {e}"));
    assert!(conv.has_kernel(), "{pair}: no registered kernel");
    let nnz = input.nnz();

    // One untimed warmup so the first timed section doesn't absorb
    // allocator/page-fault startup and skew the overhead gate.
    conv.run(input, false, 0, &NoopSubscriber).unwrap();
    let interp = time_min(reps, || {
        conv.run(input, false, 0, &NoopSubscriber).unwrap();
    });
    let bare = time_min(reps, || {
        run_bare(&conv, input);
    });
    let kernel = time_min(reps, || {
        input.kernel(&conv).unwrap().unwrap();
    });
    let row = Row {
        pair,
        nnz,
        interp_ns: interp * 1e9 / nnz as f64,
        kernel_ns: kernel * 1e9 / nnz as f64,
    };
    eprintln!(
        "  {:<18} interp {:>8.2} ns/nnz   kernel {:>8.2} ns/nnz   {:>6.2}x",
        row.pair,
        row.interp_ns,
        row.kernel_ns,
        row.speedup()
    );
    (row, interp, bare)
}

fn main() {
    let args = parse_args();
    let base = random_uniform(args.n, args.n, args.nnz, 42);
    eprintln!(
        "bench4: {}x{} matrix, {} distinct nnz, reps={}",
        args.n,
        args.n,
        base.nnz(),
        args.reps
    );

    // The interpreter timings run through the *instrumented* path
    // (`Conversion::run` with a `NoopSubscriber`); the totals pin its
    // overhead against the uninstrumented stats-free path (`run_bare`)
    // across every pair.
    let mut rows: Vec<Row> = Vec::new();
    let mut quiet_total = 0.0f64;
    let mut bare_total = 0.0f64;
    let mut record = |(row, interp, bare): (Row, f64, f64)| {
        quiet_total += interp;
        bare_total += bare;
        rows.push(row);
    };
    for (kind, src, dst) in matrix_pairs() {
        let input = match kind {
            Src::Unsorted => AnyMatrix::Coo(shuffled(base.clone(), 7)),
            Src::Sorted => AnyMatrix::Coo(base.clone()),
            Src::Morton => AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(&base)),
            Src::Csr => AnyMatrix::Csr(CsrMatrix::from_coo(&base)),
            Src::Csc => AnyMatrix::Csc(CscMatrix::from_coo(&base)),
        };
        record(measure(&src, &dst, input.as_ref(), args.reps));
    }

    // Tensor pairs: same matgen scale in three modes.
    let dim = (args.n / 8).max(8);
    let t = skewed_tensor((dim, dim, dim), args.nnz, 42);
    let mut sorted = t.clone();
    sorted.sort_by(|a, b| a.cmp(b));
    for (src, dst, input) in [
        (descriptors::coo3(), descriptors::mcoo3(), AnyTensor::Coo3(t)),
        (descriptors::scoo3(), descriptors::mcoo3(), AnyTensor::Coo3(sorted)),
    ] {
        record(measure(&src, &dst, input.as_ref(), args.reps));
    }

    let at_least_3x = rows.iter().filter(|r| r.speedup() >= 3.0).count();
    eprintln!("bench4: {}/{} pairs at >= 3x", at_least_3x, rows.len());

    // Observability gate: summed across every pair, the instrumented
    // interpreter (default `NoopSubscriber`) must sit within 5% of the
    // uninstrumented path; neither side collects `ExecStats`.
    let obs_overhead = quiet_total / bare_total - 1.0;
    eprintln!(
        "bench4: instrumented interp {:.3}s vs bare {:.3}s, overhead {:+.2}%",
        quiet_total,
        bare_total,
        obs_overhead * 100.0
    );
    assert!(
        obs_overhead < 0.05,
        "NoopSubscriber instrumentation must cost <5% of interpreter time (got {:+.2}%)",
        obs_overhead * 100.0
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"experiment\": \"native kernel backend vs SPF-IR interpreter\",");
    let _ = writeln!(json, "  \"matrix\": {{\"nr\": {}, \"nc\": {}, \"requested_nnz\": {}}},", args.n, args.n, args.nnz);
    let _ = writeln!(json, "  \"reps\": {},", args.reps);
    let _ = writeln!(json, "  \"pairs_at_least_3x\": {at_least_3x},");
    let _ = writeln!(json, "  \"pairs\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"pair\": \"{}\", \"nnz\": {}, \"interp_ns_per_nnz\": {:.3}, \"kernel_ns_per_nnz\": {:.3}, \"speedup\": {:.3}}}{}",
            r.pair, r.nnz, r.interp_ns, r.kernel_ns, r.speedup(), comma
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, json).expect("writing the output file");
    eprintln!("bench4: wrote {}", args.out);
}
