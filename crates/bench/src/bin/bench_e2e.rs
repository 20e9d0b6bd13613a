//! End-to-end conversions on the default engine: every synthesizable
//! catalog pair (31 matrix, 6 tensor) through `Engine::new()`, cold (a
//! fresh engine, so synthesis is paid) and warm (cached plan), with each
//! conversion's wall time split by stage from the engine's own
//! `EngineStats` ledger, plus the backend that actually ran. Writes
//! `BENCH_E2E.json`.
//!
//! Gate: for every pair, size and phase, the ledger's stage times (plan
//! lookup, validation, kernel, declined kernel, interpreter) must sum to
//! within 5% of the measured wall time. Synthesis and verification are
//! reported too, as the parts of the plan stage a cold call pays.
//!
//! A second table prices kernel declines: unordered COO with duplicate
//! coordinates makes the sort-based kernels decline after their full
//! sort, so the default engine pays that sort and then the interpreter.
//! It compares the default engine with a `Backend::InterpreterOnly` one
//! on the same input.
//!
//! Usage:
//!
//! ```text
//! bench_e2e [--full] [--reps K] [--out PATH]
//! ```
//!
//! Default (quick): 1e4 and 1e5 nnz, `--reps 3` (warm minima), written
//! to `target/bench/BENCH_E2E.quick.json`. `--full` adds 1e6 nnz and
//! writes `BENCH_E2E.json`.

use std::fmt::Write as _;
use std::time::Instant;

use sparse_engine::{Backend, Engine, EngineConfig, EngineError, EngineStats};
use sparse_formats::{
    descriptors, AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, EllMatrix,
    FormatDescriptor, MortonCoo3Tensor, MortonCooMatrix,
};
use sparse_matgen::catalog::{pair_descriptors, MATRIX_PAIRS, TENSOR_PAIRS};
use sparse_matgen::{banded, random_uniform, shuffle_perm, skewed_tensor, spread_offsets};

/// Largest allowed `|wall - Σ stages| / wall`.
const MAX_GAP: f64 = 0.05;

struct Args {
    full: bool,
    reps: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        full: false,
        reps: 3,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => args.full = true,
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps takes K")
            }
            "--out" => args.out = Some(it.next().expect("--out takes a path")),
            "--help" | "-h" => {
                println!("bench_e2e [--full] [--reps K] [--out PATH]");
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

/// The sorted inputs of one size: a uniform matrix (10 nnz per row), a
/// banded one with 8 diagonals for DIA destinations and ELL sources (a
/// uniform matrix would blow DIA up to one diagonal per entry), and a
/// skewed tensor.
struct Bases {
    uniform: CooMatrix,
    banded: CooMatrix,
    tensor: Coo3Tensor,
}

impl Bases {
    fn new(nnz: usize) -> Bases {
        let n = (nnz / 10).max(1);
        let rows = (nnz / 8).max(1);
        let dim = ((nnz as f64).cbrt() as usize * 2).max(8);
        Bases {
            uniform: random_uniform(n, n, nnz, 42),
            banded: banded(rows, &spread_offsets(8, 64), 1.0, 42),
            tensor: skewed_tensor((dim, dim, dim), nnz, 42),
        }
    }
}

enum Input {
    M(AnyMatrix),
    T(AnyTensor),
}

impl Input {
    fn nnz(&self) -> usize {
        match self {
            Input::M(m) => m.nnz(),
            Input::T(t) => t.nnz(),
        }
    }
}

fn source(src: &str, dst: &str, bases: &Bases) -> Input {
    let m = if dst == "dia" || src == "ell" {
        &bases.banded
    } else {
        &bases.uniform
    };
    match src {
        "coo" => {
            let mut c = m.clone();
            c.permute(&shuffle_perm(c.nnz(), 7));
            Input::M(AnyMatrix::Coo(c))
        }
        "scoo" => Input::M(AnyMatrix::Coo(m.clone())),
        "csr" => Input::M(AnyMatrix::Csr(CsrMatrix::from_coo(m))),
        "csc" => Input::M(AnyMatrix::Csc(CscMatrix::from_coo(m))),
        "mcoo" => Input::M(AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(m))),
        "ell" => Input::M(AnyMatrix::Ell(EllMatrix::from_coo(m))),
        "coo3" => {
            let mut t = bases.tensor.clone();
            t.permute(&shuffle_perm(t.nnz(), 7));
            Input::T(AnyTensor::Coo3(t))
        }
        "scoo3" => Input::T(AnyTensor::Coo3(bases.tensor.clone())),
        "mcoo3" => Input::T(AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(
            &bases.tensor,
        ))),
        _ => unreachable!("not a catalog source: {src}"),
    }
}

fn convert(
    engine: &Engine,
    s: &FormatDescriptor,
    d: &FormatDescriptor,
    input: &Input,
) -> Result<(), EngineError> {
    match input {
        Input::M(m) => engine.convert(s, d, m).map(drop),
        Input::T(t) => engine.convert_tensor(s, d, t).map(drop),
    }
}

/// One conversion's stage times in nanoseconds, from a stats delta.
/// `synth` and `verify` are parts of `plan`.
#[derive(Clone, Copy, Default)]
struct Stages {
    plan: u64,
    synth: u64,
    verify: u64,
    validate: u64,
    kernel: u64,
    declined: u64,
    interp: u64,
}

impl Stages {
    fn delta(a: &EngineStats, b: &EngineStats) -> Stages {
        let ns = |x: std::time::Duration, y: std::time::Duration| (y - x).as_nanos() as u64;
        Stages {
            plan: ns(a.plan_time, b.plan_time),
            synth: ns(a.synth_time, b.synth_time),
            verify: ns(a.verify_time, b.verify_time),
            validate: ns(a.validate_time, b.validate_time),
            kernel: ns(a.kernel_time, b.kernel_time),
            declined: ns(a.kernel_declined_time, b.kernel_declined_time),
            interp: ns(a.exec_time, b.exec_time),
        }
    }

    fn sum(&self) -> u64 {
        self.plan + self.validate + self.kernel + self.declined + self.interp
    }
}

/// The backend one conversion used, from a stats delta.
fn backend(a: &EngineStats, b: &EngineStats) -> &'static str {
    if b.kernels_hit > a.kernels_hit {
        "kernel"
    } else if b.kernel_declines > a.kernel_declines {
        "declined-interp"
    } else {
        "interp"
    }
}

struct Row {
    pair: String,
    nnz: usize,
    phase: &'static str,
    backend: &'static str,
    wall: u64,
    stages: Stages,
}

impl Row {
    fn gap(&self) -> f64 {
        (self.wall as f64 - self.stages.sum() as f64).abs() / self.wall as f64
    }
}

/// Times one conversion on `engine`, reading its stages off the ledger.
/// A failed conversion panics unless `may_fail`.
fn measure(
    engine: &Engine,
    s: &FormatDescriptor,
    d: &FormatDescriptor,
    input: &Input,
    may_fail: bool,
) -> (u64, Stages, &'static str) {
    let before = engine.stats();
    let t0 = Instant::now();
    let out = convert(engine, s, d, input);
    let wall = t0.elapsed().as_nanos() as u64;
    if let (Err(e), false) = (out, may_fail) {
        panic!("{} -> {}: {e}", s.name, d.name);
    }
    let after = engine.stats();
    (
        wall,
        Stages::delta(&before, &after),
        backend(&before, &after),
    )
}

fn pair_rows(src: &str, dst: &str, bases: &Bases, reps: usize) -> [Row; 2] {
    let (s, d) = pair_descriptors(src, dst);
    let input = source(src, dst, bases);
    let pair = format!("{}->{}", s.name, d.name);
    let nnz = input.nnz();

    let engine = Engine::new();
    let (wall, stages, used) = measure(&engine, &s, &d, &input, false);
    let cold = Row {
        pair: pair.clone(),
        nnz,
        phase: "cold",
        backend: used,
        wall,
        stages,
    };
    // Warm: the fastest of `reps` calls on the cached plan.
    let mut warm: Option<Row> = None;
    for _ in 0..reps.max(1) {
        let (wall, stages, used) = measure(&engine, &s, &d, &input, false);
        if warm.as_ref().is_none_or(|w| wall < w.wall) {
            warm = Some(Row {
                pair: pair.clone(),
                nnz,
                phase: "warm",
                backend: used,
                wall,
                stages,
            });
        }
    }
    [cold, warm.expect("at least one warm rep")]
}

/// Unordered COO (or COO3) with every tenth coordinate repeated, shuffled.
fn with_duplicates(bases: &Bases, tensor: bool) -> Input {
    if tensor {
        let mut t = bases.tensor.clone();
        for k in (0..t.nnz()).step_by(10) {
            let (a, b, c, v) = (t.i0[k], t.i1[k], t.i2[k], t.val[k]);
            t.i0.push(a);
            t.i1.push(b);
            t.i2.push(c);
            t.val.push(v + 1.0);
        }
        t.permute(&shuffle_perm(t.nnz(), 9));
        Input::T(AnyTensor::Coo3(t))
    } else {
        let mut m = bases.uniform.clone();
        for k in (0..m.nnz()).step_by(10) {
            let (i, j, v) = (m.row[k], m.col[k], m.val[k]);
            m.row.push(i);
            m.col.push(j);
            m.val.push(v + 1.0);
        }
        m.permute(&shuffle_perm(m.nnz(), 9));
        Input::M(AnyMatrix::Coo(m))
    }
}

struct DeclineRow {
    pair: String,
    nnz: usize,
    default_ns: u64,
    interp_only_ns: u64,
    declined_ns: u64,
}

/// Warm minimum wall time of the default engine (kernel declines, then
/// the interpreter answers) against an interpreter-only engine.
fn decline_row(
    s: &FormatDescriptor,
    d: &FormatDescriptor,
    bases: &Bases,
    reps: usize,
) -> DeclineRow {
    let input = with_duplicates(bases, s.rank == 3);
    let default = Engine::new();
    let interp_only = Engine::with_config(EngineConfig {
        backend: Backend::InterpreterOnly,
        ..Default::default()
    });
    // On duplicates some of these plans fail output validation; the
    // outcome is the interpreter's either way, and only its cost matters.
    let _ = convert(&default, s, d, &input);
    let _ = convert(&interp_only, s, d, &input);
    let (mut default_ns, mut interp_only_ns, mut declined_ns) = (u64::MAX, u64::MAX, 0);
    for _ in 0..reps.max(1) {
        let (wall, stages, used) = measure(&default, s, d, &input, true);
        assert_eq!(
            used, "declined-interp",
            "{} -> {}: duplicates must decline",
            s.name, d.name
        );
        if wall < default_ns {
            default_ns = wall;
            declined_ns = stages.declined;
        }
        interp_only_ns = interp_only_ns.min(measure(&interp_only, s, d, &input, true).0);
    }
    DeclineRow {
        pair: format!("{}->{}", s.name, d.name),
        nnz: input.nnz(),
        default_ns,
        interp_only_ns,
        declined_ns,
    }
}

fn per_nnz(ns: u64, nnz: usize) -> f64 {
    ns as f64 / nnz.max(1) as f64
}

fn main() {
    let args = parse_args();
    let mut sizes = vec![10_000, 100_000];
    if args.full {
        sizes.push(1_000_000);
    }
    let out = args.out.clone().unwrap_or_else(|| {
        if args.full {
            "BENCH_E2E.json".to_string()
        } else {
            std::fs::create_dir_all("target/bench").expect("creating target/bench");
            "target/bench/BENCH_E2E.quick.json".to_string()
        }
    });
    eprintln!(
        "bench_e2e: sizes {sizes:?}, reps {}, EngineConfig::default()",
        args.reps
    );

    let mut rows = Vec::new();
    let mut declines = Vec::new();
    for &nnz in &sizes {
        let bases = Bases::new(nnz);
        for &(src, dst) in MATRIX_PAIRS.iter().chain(&TENSOR_PAIRS) {
            for row in pair_rows(src, dst, &bases, args.reps) {
                eprintln!(
                    "  {:<14} {:>8} nnz {:<4} {:<15} wall {:>9.1} ns/nnz  ledger gap {:>5.2}%",
                    row.pair,
                    row.nnz,
                    row.phase,
                    row.backend,
                    per_nnz(row.wall, row.nnz),
                    row.gap() * 100.0
                );
                rows.push(row);
            }
        }
        for (s, d) in [
            (descriptors::coo(), descriptors::scoo().with_suffix("_d")),
            pair_descriptors("coo", "mcoo"),
            pair_descriptors("coo3", "mcoo3"),
        ] {
            let row = decline_row(&s, &d, &bases, args.reps);
            eprintln!(
                "  decline {:<14} {:>8} nnz  default {:>8.1} ns/nnz  interp-only {:>8.1} ns/nnz  declined {:>6.1} ns/nnz",
                row.pair,
                row.nnz,
                per_nnz(row.default_ns, row.nnz),
                per_nnz(row.interp_only_ns, row.nnz),
                per_nnz(row.declined_ns, row.nnz)
            );
            declines.push(row);
        }
    }

    let worst = rows.iter().map(Row::gap).fold(0.0f64, f64::max);
    let kernel_rows = rows
        .iter()
        .filter(|r| r.phase == "warm" && r.backend == "kernel")
        .count();
    let warm_rows = rows.iter().filter(|r| r.phase == "warm").count();
    eprintln!(
        "bench_e2e: {kernel_rows}/{warm_rows} warm rows ran a kernel; worst ledger gap {:.2}%",
        worst * 100.0
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"experiment\": \"end-to-end conversions on the default engine\","
    );
    let _ = writeln!(json, "  \"engine_config\": \"EngineConfig::default()\",");
    let _ = writeln!(json, "  \"sizes\": {sizes:?},");
    let _ = writeln!(json, "  \"reps\": {},", args.reps);
    let _ = writeln!(json, "  \"max_ledger_gap\": {MAX_GAP},");
    let _ = writeln!(json, "  \"worst_ledger_gap\": {worst:.4},");
    let _ = writeln!(json, "  \"warm_kernel_rows\": {kernel_rows},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let st = &r.stages;
        let f = |ns: u64| per_nnz(ns, r.nnz);
        let _ = write!(
            json,
            "    {{\"pair\": \"{}\", \"nnz\": {}, \"phase\": \"{}\", \"backend\": \"{}\", \"wall_ns_per_nnz\": {:.3}, \
             \"stages_ns_per_nnz\": {{\"plan\": {:.3}, \"synth\": {:.3}, \"verify\": {:.3}, \"validate\": {:.3}, \
             \"kernel\": {:.3}, \"kernel_declined\": {:.3}, \"interp\": {:.3}}}, \"ledger_gap\": {:.4}}}",
            r.pair, r.nnz, r.phase, r.backend, f(r.wall), f(st.plan), f(st.synth), f(st.verify),
            f(st.validate), f(st.kernel), f(st.declined), f(st.interp), r.gap()
        );
        let _ = writeln!(json, "{}", if i + 1 == rows.len() { "" } else { "," });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"duplicate_declines\": [");
    for (i, r) in declines.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"pair\": \"{}\", \"nnz\": {}, \"default_ns_per_nnz\": {:.3}, \"interp_only_ns_per_nnz\": {:.3}, \
             \"kernel_declined_ns_per_nnz\": {:.3}, \"overhead\": {:.4}}}",
            r.pair,
            r.nnz,
            per_nnz(r.default_ns, r.nnz),
            per_nnz(r.interp_only_ns, r.nnz),
            per_nnz(r.declined_ns, r.nnz),
            r.default_ns as f64 / r.interp_only_ns as f64 - 1.0
        );
        let _ = writeln!(json, "{}", if i + 1 == declines.len() { "" } else { "," });
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out, json).expect("writing the output file");
    eprintln!("bench_e2e: wrote {out}");

    assert!(
        worst <= MAX_GAP,
        "stage times must sum to within {:.0}% of wall time (worst gap {:.2}%)",
        MAX_GAP * 100.0,
        worst * 100.0
    );
}
