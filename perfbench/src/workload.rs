//! Seeded construction of the three workloads. Everything here depends
//! only on `--seed`: the same seed yields the same inputs, pair draws and
//! schedule, so the program under test sees only the generated containers.

use std::collections::BTreeMap;

use sparse_engine::EngineConfig;
use sparse_formats::{
    AnyMatrix, AnyTensor, Coo3Tensor, CooMatrix, CscMatrix, CsrMatrix, EllMatrix, MortonCoo3Tensor,
    MortonCooMatrix,
};
use sparse_matgen::corrupt::{corrupt_matrix, Corruption};
use sparse_matgen::{
    banded, fem_like, power_law, random_uniform, skewed_tensor, spread_offsets, stencil5,
    table3_suite, table4_suite, MatrixSpec,
};

use crate::catalog::{pairs, Fmt, Pair};

/// Target stored entries per `suite_default` input.
pub const SUITE_NNZ: usize = 100_000;
/// Target stored entries per `kernel_large` input.
pub const LARGE_NNZ: usize = 1_000_000;
/// `small_mixed` input sizes are log-uniform in this range.
pub const SMALL_NNZ: (usize, usize) = (16, 4096);
/// `small_mixed` single calls per pair.
const SMALL_SINGLES_PER_PAIR: usize = 60;
/// `small_mixed` batch items per matrix pair, in two groups of 8-64.
const SMALL_BATCHED_PER_PAIR: usize = 72;
/// One `small_mixed` matrix item in this many is corrupted.
const CORRUPT_ONE_IN: usize = 20;

pub const WORKLOADS: [&str; 3] = ["suite_default", "kernel_large", "small_mixed"];

/// SplitMix64: small, seedable and stable across platforms.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)`.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut r = Rng(seed ^ 0x243F_6A88_85A3_08D3);
        for b in stream.bytes() {
            r.0 ^= b as u64;
            r.next_u64();
        }
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, from: &'a [T]) -> &'a T {
        &from[self.range(0, from.len() - 1)]
    }

    /// A uniformly random permutation of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.range(0, i));
        }
        p
    }
}

/// The sorted, duplicate-free ground truth an item was made from; the
/// reference outputs are derived from it.
#[derive(Debug, Clone)]
pub enum Base {
    M(CooMatrix),
    T(Coo3Tensor),
}

/// A source container as the engine receives it.
#[derive(Debug, Clone)]
pub enum Input {
    M(AnyMatrix),
    T(AnyTensor),
}

impl Input {
    pub fn nnz(&self) -> usize {
        match self {
            Input::M(m) => m.nnz(),
            Input::T(t) => t.nnz(),
        }
    }
}

/// What one conversion is made of and what must come back.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    pub base: usize,
    /// Stored entries of the input.
    pub nnz: usize,
    /// Mangled input: must come back as a typed `InvalidInput`.
    pub corrupt: bool,
}

/// One call into the engine.
#[derive(Debug, Clone)]
pub enum Op {
    /// `convert` / `convert_tensor` on `sources[src]`.
    Single { pair: usize, src: usize, item: Item },
    /// `convert_batch` on `inputs`.
    Batch {
        pair: usize,
        inputs: Vec<AnyMatrix>,
        items: Vec<Item>,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub config: EngineConfig,
    pub pairs: Vec<Pair>,
    /// Indices into `pairs` of the pairs this workload converts.
    pub used: Vec<usize>,
    pub bases: Vec<Base>,
    pub sources: Vec<Input>,
    pub ops: Vec<Op>,
    /// The percentile reported as `latency_tail_us`, fixed per workload
    /// so that a faster program (more samples) does not change what the
    /// metric means.
    pub tail_pct: f64,
}

impl Workload {
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "suite_default" => Some(suite_default(seed)),
            "kernel_large" => Some(kernel_large(seed, LARGE_NNZ)),
            "small_mixed" => Some(small_mixed(seed)),
            _ => None,
        }
    }

    /// `(min, max)` input nnz over all items.
    pub fn nnz_range(&self) -> (usize, usize) {
        let mut lo = usize::MAX;
        let mut hi = 0;
        for op in &self.ops {
            let items: &[Item] = match op {
                Op::Single { item, .. } => std::slice::from_ref(item),
                Op::Batch { items, .. } => items,
            };
            for it in items {
                lo = lo.min(it.nnz);
                hi = hi.max(it.nnz);
            }
        }
        (lo, hi)
    }

    pub fn item_count(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Single { .. } => 1,
                Op::Batch { items, .. } => items.len(),
            })
            .sum()
    }
}

/// The bases of a workload and the source containers derived from them.
struct Inputs {
    rng: Rng,
    bases: Vec<Base>,
    sources: Vec<Input>,
    memo: BTreeMap<(usize, Fmt), usize>,
}

impl Inputs {
    fn new(seed: u64, stream: &str) -> Inputs {
        Inputs {
            rng: Rng::new(seed, stream),
            bases: vec![],
            sources: vec![],
            memo: BTreeMap::new(),
        }
    }

    fn base(&mut self, b: Base) -> usize {
        self.bases.push(b);
        self.bases.len() - 1
    }

    /// The `fmt` container of base `base`, built once and shared.
    fn source(&mut self, base: usize, fmt: Fmt) -> usize {
        if let Some(&i) = self.memo.get(&(base, fmt)) {
            return i;
        }
        let input = container(&self.bases[base], fmt, &mut self.rng);
        self.sources.push(input);
        self.memo.insert((base, fmt), self.sources.len() - 1);
        self.sources.len() - 1
    }

    fn item(&self, base: usize) -> Item {
        let nnz = match &self.bases[base] {
            Base::M(m) => m.nnz(),
            Base::T(t) => t.nnz(),
        };
        Item {
            base,
            nnz,
            corrupt: false,
        }
    }
}

/// Builds the `fmt` source container from a sorted base. Unordered
/// sources are shuffled so they are genuinely unsorted.
fn container(base: &Base, fmt: Fmt, rng: &mut Rng) -> Input {
    match (base, fmt) {
        (Base::M(m), Fmt::Coo) => {
            let mut c = m.clone();
            c.permute(&rng.permutation(c.nnz()));
            Input::M(AnyMatrix::Coo(c))
        }
        (Base::M(m), Fmt::Scoo) => Input::M(AnyMatrix::Coo(m.clone())),
        (Base::M(m), Fmt::Csr) => Input::M(AnyMatrix::Csr(CsrMatrix::from_coo(m))),
        (Base::M(m), Fmt::Csc) => Input::M(AnyMatrix::Csc(CscMatrix::from_coo(m))),
        (Base::M(m), Fmt::Mcoo) => Input::M(AnyMatrix::MortonCoo(MortonCooMatrix::from_coo(m))),
        (Base::M(m), Fmt::Ell) => Input::M(AnyMatrix::Ell(EllMatrix::from_coo(m))),
        (Base::T(t), Fmt::Coo3) => {
            let mut c = t.clone();
            c.permute(&rng.permutation(c.nnz()));
            Input::T(AnyTensor::Coo3(c))
        }
        (Base::T(t), Fmt::Scoo3) => Input::T(AnyTensor::Coo3(t.clone())),
        (Base::T(t), Fmt::Mcoo3) => Input::T(AnyTensor::MortonCoo3(MortonCoo3Tensor::from_coo3(t))),
        (_, fmt) => unreachable!("{fmt:?} is not a catalog source for this base"),
    }
}

/// DIA destinations and ELL sources only take matrices with a bounded
/// diagonal count / row length.
fn needs_banded(p: &Pair) -> bool {
    p.dst == Fmt::Dia || p.src == Fmt::Ell
}

/// Deals a seeded permutation of `pool`, cycling when it runs out. Draws
/// are without replacement, so every seed uses the same mix (of twins, of
/// generator classes) and only its assignment changes.
struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(pool: Vec<usize>, rng: &mut Rng) -> Deck {
        let order = rng
            .permutation(pool.len())
            .into_iter()
            .map(|i| pool[i])
            .collect();
        Deck { order, next: 0 }
    }

    fn draw(&mut self) -> usize {
        self.next += 1;
        self.order[(self.next - 1) % self.order.len()]
    }
}

/// The twin scale that brings `nnz` at scale 1 nearest `SUITE_NNZ`.
fn suite_scale(nnz: usize) -> usize {
    ((nnz as f64 / SUITE_NNZ as f64).round() as usize).max(1)
}

/// All 37 pairs through the default engine, one Table-3 / Table-4 twin of
/// about `SUITE_NNZ` entries per pair, dealt by the seed.
fn suite_default(seed: u64) -> Workload {
    let pairs = pairs();
    let mut b = Inputs::new(seed, "suite_default");
    let specs = table3_suite();
    let tspecs = table4_suite();
    let banded_specs = (0..specs.len())
        .filter(|&i| specs[i].dia_friendly())
        .collect();
    let mut banded_deck = Deck::new(banded_specs, &mut b.rng);
    let mut matrix_deck = Deck::new((0..specs.len()).collect(), &mut b.rng);
    let mut tensor_deck = Deck::new((0..tspecs.len()).collect(), &mut b.rng);
    let mut made: BTreeMap<&str, usize> = BTreeMap::new();
    let mut ops = vec![];
    for (pi, pair) in pairs.iter().enumerate() {
        let base = if pair.is_tensor() {
            let spec = &tspecs[tensor_deck.draw()];
            *made
                .entry(spec.name)
                .or_insert_with(|| b.base(Base::T(spec.generate(suite_scale(spec.nnz)))))
        } else {
            let deck = if needs_banded(pair) {
                &mut banded_deck
            } else {
                &mut matrix_deck
            };
            let spec: &MatrixSpec = &specs[deck.draw()];
            *made
                .entry(spec.name)
                .or_insert_with(|| b.base(Base::M(spec.generate(suite_scale(spec.nnz)))))
        };
        let src = b.source(base, pair.src);
        ops.push(Op::Single {
            pair: pi,
            src,
            item: b.item(base),
        });
    }
    Workload {
        name: "suite_default",
        config: EngineConfig::default(),
        used: (0..pairs.len()).collect(),
        pairs,
        bases: b.bases,
        sources: b.sources,
        ops,
        tail_pct: 90.0,
    }
}

/// Every pair with a registered native kernel, through an engine with
/// verification on, on a uniform and a power-law matrix and a skewed
/// tensor of about `nnz` entries each.
fn kernel_large(seed: u64, nnz: usize) -> Workload {
    let pairs = pairs();
    let mut b = Inputs::new(seed, "kernel_large");
    let used: Vec<usize> = (0..pairs.len())
        .filter(|&i| pairs[i].has_kernel())
        .collect();
    // Fixed shapes: the seed draws the entries only. Shapes that moved
    // with the seed reordered the ops' latencies, and the median call
    // then jumped between two ops.
    let nr = nnz / 10;
    let uniform = random_uniform(nr, nr, nnz, b.rng.next_u64());
    let skewed = power_law(nr, nr, nnz, b.rng.next_u64());
    let d = (nnz as f64).sqrt() as usize * 32;
    let tensor = skewed_tensor((d, d, 512), nnz, b.rng.next_u64());
    let bases = [b.base(Base::M(uniform)), b.base(Base::M(skewed))];
    let tbase = b.base(Base::T(tensor));
    let mut ops = vec![];
    for base in bases {
        for &pi in used.iter().filter(|&&i| !pairs[i].is_tensor()) {
            let src = b.source(base, pairs[pi].src);
            ops.push(Op::Single {
                pair: pi,
                src,
                item: b.item(base),
            });
        }
    }
    for &pi in used.iter().filter(|&&i| pairs[i].is_tensor()) {
        let src = b.source(tbase, pairs[pi].src);
        ops.push(Op::Single {
            pair: pi,
            src,
            item: b.item(tbase),
        });
    }
    Workload {
        name: "kernel_large",
        config: EngineConfig {
            verify_plans: true,
            ..EngineConfig::default()
        },
        pairs,
        used,
        bases: b.bases,
        sources: b.sources,
        ops,
        tail_pct: 90.0,
    }
}

/// A small matrix of about `nnz` entries from generator class `class`
/// (0-1 banded, 2-4 unstructured).
fn small_matrix(rng: &mut Rng, nnz: usize, class: usize) -> CooMatrix {
    let seed = rng.next_u64();
    let mut m = match class {
        0 => {
            let side = ((nnz as f64 / 5.0).sqrt().round() as usize).max(2);
            stencil5(side, side)
        }
        1 => {
            let k = *rng.pick(&[3usize, 5, 7]);
            let n = (nnz * 10 / (k * 7)).max(16);
            banded(
                n,
                &spread_offsets(k, (n as i64 / 8).max(k as i64)),
                0.7,
                seed,
            )
        }
        2 => {
            let block = rng.range(2, 4);
            fem_like((nnz * 10 / (block * 18)).max(block), block, 2, seed)
        }
        3 => {
            let nr = (nnz / 3).max(16);
            random_uniform(nr, nr, nnz, seed)
        }
        _ => {
            let nr = (nnz / 3).max(16);
            power_law(nr, nr, nnz, seed)
        }
    };
    if !m.is_sorted_row_major() {
        m.sort_row_major();
    }
    m
}

/// `n` sizes, one from each of `n` equal strata of the log-uniform
/// `SMALL_NNZ` range, in seeded order: every group covers the whole range.
fn stratified_sizes(rng: &mut Rng, n: usize) -> Vec<usize> {
    let (lo, hi) = ((SMALL_NNZ.0 as f64).ln(), (SMALL_NNZ.1 as f64).ln());
    rng.permutation(n)
        .into_iter()
        .map(|j| (lo + (j as f64 + rng.unit()) / n as f64 * (hi - lo)).exp() as usize)
        .collect()
}

/// Corruption classes the source descriptor's validation must reject.
/// Duplicate coordinates are legal in unordered COO, and only
/// compressed formats have a pointer array to swap.
fn corruptions(src: Fmt) -> Vec<Corruption> {
    let mut out = vec![
        Corruption::TruncateArray,
        Corruption::NegativeIndex,
        Corruption::OversizedIndex,
        Corruption::NonFiniteValue,
        Corruption::ExtraLength,
    ];
    if src != Fmt::Coo {
        out.push(Corruption::DuplicateCoordinate);
    }
    if matches!(src, Fmt::Csr | Fmt::Csc) {
        out.push(Corruption::SwapPointerPair);
    }
    out
}

/// A corrupted copy of `input` whose rejection the validator must
/// report, or `None` when no class applies to it.
pub fn corrupt(input: &AnyMatrix, src: Fmt, rng: &mut Rng) -> Option<AnyMatrix> {
    let classes = corruptions(src);
    let first = rng.range(0, classes.len() - 1);
    (0..classes.len()).find_map(|k| corrupt_matrix(input, classes[(first + k) % classes.len()]))
}

/// Many small inputs over all 37 pairs: half single calls, half batch
/// items in groups of 8-64, one matrix item in 20 corrupted. Sizes,
/// generator classes and group totals are stratified per pair, so seeds
/// change the inputs but not the workload's mix.
fn small_mixed(seed: u64) -> Workload {
    let pairs = pairs();
    let mut b = Inputs::new(seed, "small_mixed");
    let mut until_corrupt = b.rng.range(1, CORRUPT_ONE_IN);
    // The inputs of `n` items of one pair: fresh bases and their source
    // containers, every CORRUPT_ONE_IN-th matrix item corrupted.
    let mut draw = |b: &mut Inputs, pair: &Pair, n: usize| -> Vec<(Input, Item)> {
        let classes: Vec<usize> = if needs_banded(pair) {
            vec![0, 1]
        } else {
            (0..5).collect()
        };
        let mut class_deck = Deck::new(classes, &mut b.rng);
        let mut out = vec![];
        for nnz in stratified_sizes(&mut b.rng, n) {
            let base = if pair.is_tensor() {
                let d = (nnz / 4).max(8);
                let t = skewed_tensor((d, d, 16), nnz, b.rng.next_u64());
                b.base(Base::T(t))
            } else {
                let m = small_matrix(&mut b.rng, nnz, class_deck.draw());
                b.base(Base::M(m))
            };
            let mut item = b.item(base);
            let mut input = container(&b.bases[base], pair.src, &mut b.rng);
            if let Input::M(m) = &input {
                until_corrupt -= 1;
                if until_corrupt == 0 {
                    until_corrupt = CORRUPT_ONE_IN;
                    if let Some(bad) = corrupt(m, pair.src, &mut b.rng) {
                        input = Input::M(bad);
                        item.corrupt = true;
                    }
                }
            }
            out.push((input, item));
        }
        out
    };
    let mut ops = vec![];
    for (pi, pair) in pairs.iter().enumerate() {
        for (input, item) in draw(&mut b, pair, SMALL_SINGLES_PER_PAIR) {
            b.sources.push(input);
            ops.push(Op::Single {
                pair: pi,
                src: b.sources.len() - 1,
                item,
            });
        }
        if pair.is_tensor() {
            continue; // the engine batches matrices only
        }
        let mut items = draw(&mut b, pair, SMALL_BATCHED_PER_PAIR);
        let first = b.rng.range(8, SMALL_BATCHED_PER_PAIR - 8);
        let rest = items.split_off(first);
        for group in [items, rest] {
            let (inputs, items) = group
                .into_iter()
                .map(|(input, item)| match input {
                    Input::M(m) => (m, item),
                    Input::T(_) => unreachable!("matrix pairs have matrix inputs"),
                })
                .unzip();
            ops.push(Op::Batch {
                pair: pi,
                inputs,
                items,
            });
        }
    }
    // Interleave singles and batches.
    let order = b.rng.permutation(ops.len());
    let mut slots: Vec<Option<Op>> = ops.into_iter().map(Some).collect();
    let ops = order
        .into_iter()
        .map(|i| slots[i].take().expect("each op taken once"))
        .collect();
    Workload {
        name: "small_mixed",
        config: EngineConfig::default(),
        used: (0..pairs.len()).collect(),
        pairs,
        bases: b.bases,
        sources: b.sources,
        ops,
        tail_pct: 99.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{digest_matrix, digest_tensor};

    /// Digests of everything the program under test receives, in order,
    /// with the pair and reference draws. Digests, not `==`, because
    /// corrupted inputs may hold NaN.
    fn fingerprint(w: &Workload) -> Vec<u64> {
        let base = |b: &Base| match b {
            Base::M(m) => digest_matrix(&AnyMatrix::Coo(m.clone())),
            Base::T(t) => digest_tensor(&AnyTensor::Coo3(t.clone())),
        };
        let input = |i: &Input| match i {
            Input::M(m) => digest_matrix(m),
            Input::T(t) => digest_tensor(t),
        };
        let mut out: Vec<u64> = w.used.iter().map(|&p| p as u64).collect();
        out.extend(w.bases.iter().map(base));
        out.extend(w.sources.iter().map(input));
        for op in &w.ops {
            match op {
                Op::Single { pair, src, item } => out.extend([
                    *pair as u64,
                    *src as u64,
                    item.base as u64,
                    item.corrupt as u64,
                ]),
                Op::Batch {
                    pair,
                    inputs,
                    items,
                } => {
                    out.push(*pair as u64);
                    out.extend(inputs.iter().map(digest_matrix));
                    out.extend(
                        items
                            .iter()
                            .map(|i| i.base as u64 ^ (i.corrupt as u64) << 63),
                    );
                }
            }
        }
        out
    }

    fn assert_seeded(make: impl Fn(u64) -> Workload) {
        let (a, b, c) = (make(7), make(7), make(8));
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "one seed, one set of inputs"
        );
        assert_ne!(
            fingerprint(&a),
            fingerprint(&c),
            "another seed, other inputs"
        );
    }

    #[test]
    fn suite_default_is_seeded() {
        assert_seeded(suite_default);
    }

    #[test]
    fn kernel_large_is_seeded() {
        assert_seeded(|s| kernel_large(s, 20_000));
    }

    #[test]
    fn small_mixed_is_seeded() {
        assert_seeded(small_mixed);
    }

    #[test]
    fn suite_default_deals_twins_per_seed() {
        // The twin each pair gets, by its nnz.
        let draws = |s| {
            let w = suite_default(s);
            w.ops
                .iter()
                .map(|op| match op {
                    Op::Single { item, .. } => item.nnz,
                    Op::Batch { .. } => unreachable!("suite_default has no batches"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(3), draws(4));
    }
}
