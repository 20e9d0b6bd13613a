//! Runtime support for generated inspectors: the environment binding
//! uninterpreted functions to index arrays, and the `OrderedList`
//! permutation abstraction of §3.2 of the paper.
//!
//! The paper's synthesized code for COO→MCOO is:
//!
//! ```c
//! P = new OrderedList(2, 1, MORTON(), "<");
//! for (int c0 = 0; c0 < NNZ; c0++) {
//!     P.insert(row1(c0), col1(c0));
//! }
//! ```
//!
//! [`OrderedList`] implements that abstraction: keys are inserted in source
//! order, `finalize` sorts them with the declared comparator (stably, so
//! insertion order breaks ties), and `rank` retrieves the re-ordered
//! position of a nonzero — the permutation `P`. The paper attributes its
//! gap to HiCOO to this rank retrieval. Here a rank is an array read:
//! `finalize` records the rank of every insertion ordinal, and `rank`
//! answers from that table while queries arrive in insertion order, which
//! is how every synthesized plan walks its insert nest again. Any other
//! query goes through a hash index built on the first such query.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

use crate::keysort::{sort_perm, PackedOrder};

/// Maximum key width supported by [`OrderedList`].
pub const MAX_KEY_WIDTH: usize = 4;

/// Fixed-width key buffer used by the key index.
type KeyBuf = [i64; MAX_KEY_WIDTH];

/// Maps each distinct key to one insertion ordinal that holds it.
type KeyIndex = HashMap<KeyBuf, usize>;

fn key_buf(key: &[i64]) -> KeyBuf {
    let mut buf = [i64::MIN; MAX_KEY_WIDTH];
    buf[..key.len()].copy_from_slice(key);
    buf
}

/// A shared user-defined comparison function over integer key tuples.
pub type CmpFn = Arc<dyn Fn(&[i64], &[i64]) -> Ordering + Send + Sync>;

/// Comparison semantics of an [`OrderedList`].
#[derive(Clone)]
pub enum ListOrder {
    /// Keep insertion order (no reordering quantifier on the destination).
    Insertion,
    /// Lexicographic over the key tuple.
    Lexicographic,
    /// Morton / Z-order over the key tuple.
    Morton,
    /// User-defined comparison function (the paper requires full
    /// definitions for functions appearing only in universal quantifiers).
    Custom(CmpFn),
}

impl fmt::Debug for ListOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListOrder::Insertion => write!(f, "Insertion"),
            ListOrder::Lexicographic => write!(f, "Lexicographic"),
            ListOrder::Morton => write!(f, "Morton"),
            ListOrder::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// Errors raised by [`OrderedList`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListError {
    /// Key width differs from the declared width.
    WidthMismatch {
        /// Declared width.
        expect: usize,
        /// Provided width.
        got: usize,
    },
    /// `rank`/`key_col` called before `finalize`.
    NotFinalized,
    /// `insert` called after `finalize`.
    AlreadyFinalized,
    /// `rank` key was never inserted.
    UnknownKey(Vec<i64>),
    /// Column index out of range in `key_col`.
    BadColumn(usize),
}

impl fmt::Display for ListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListError::WidthMismatch { expect, got } => {
                write!(f, "key width mismatch: expected {expect}, got {got}")
            }
            ListError::NotFinalized => write!(f, "ordered list not finalized"),
            ListError::AlreadyFinalized => write!(f, "ordered list already finalized"),
            ListError::UnknownKey(k) => write!(f, "key {k:?} not present"),
            ListError::BadColumn(c) => write!(f, "key column {c} out of range"),
        }
    }
}

impl std::error::Error for ListError {}

/// The permutation abstraction: an insert-then-sort list of integer keys
/// with rank retrieval.
///
/// Keys stay in insertion order; `finalize` computes the sorted order and
/// the rank of every insertion ordinal. `rank` keeps a cursor on the next
/// ordinal and answers with one array read whenever the queried key is the
/// one inserted there. Other queries are answered from a key index built on
/// the first of them, and move the cursor after the ordinal they found.
#[derive(Debug)]
pub struct OrderedList {
    width: usize,
    unique: bool,
    order: ListOrder,
    /// Keys in insertion order, `width` columns per ordinal.
    keys: Vec<i64>,
    finalized: bool,
    /// Insertion ordinal of the key at each sorted position (one per
    /// distinct key when `unique`).
    sorted: Vec<usize>,
    /// Rank of each insertion ordinal.
    ranks: Vec<i64>,
    /// The ordinal the next in-order `rank` query is expected to hit. A
    /// hint only: every use re-checks the key, and it guards no other
    /// data, so `Relaxed` suffices.
    cursor: AtomicUsize,
    index: OnceLock<KeyIndex>,
}

impl Clone for OrderedList {
    fn clone(&self) -> Self {
        OrderedList {
            width: self.width,
            unique: self.unique,
            order: self.order.clone(),
            keys: self.keys.clone(),
            finalized: self.finalized,
            sorted: self.sorted.clone(),
            ranks: self.ranks.clone(),
            cursor: AtomicUsize::new(self.cursor.load(AtomicOrdering::Relaxed)),
            index: self.index.clone(),
        }
    }
}

impl OrderedList {
    /// Creates a list of `width`-column keys ordered by `order`. With
    /// `unique`, duplicate keys collapse at finalize (used to build DIA's
    /// `off` array, where many nonzeros share one diagonal).
    ///
    /// # Panics
    /// Panics when `width` is zero or exceeds [`MAX_KEY_WIDTH`].
    pub fn new(width: usize, order: ListOrder, unique: bool) -> Self {
        assert!(
            (1..=MAX_KEY_WIDTH).contains(&width),
            "key width must be in 1..={MAX_KEY_WIDTH}"
        );
        OrderedList {
            width,
            unique,
            order,
            keys: Vec::new(),
            finalized: false,
            sorted: Vec::new(),
            ranks: Vec::new(),
            cursor: AtomicUsize::new(0),
            index: OnceLock::new(),
        }
    }

    /// Declared key width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns `true` once [`OrderedList::finalize`] has run.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Inserts a key in source order.
    ///
    /// # Errors
    /// Fails when the width differs from the declaration or the list is
    /// already finalized.
    pub fn insert(&mut self, key: &[i64]) -> Result<(), ListError> {
        if self.finalized {
            return Err(ListError::AlreadyFinalized);
        }
        if key.len() != self.width {
            return Err(ListError::WidthMismatch { expect: self.width, got: key.len() });
        }
        self.keys.extend_from_slice(key);
        Ok(())
    }

    fn key(&self, ordinal: usize) -> &[i64] {
        &self.keys[ordinal * self.width..(ordinal + 1) * self.width]
    }

    /// Sorts the keys by the declared comparator (stable, so insertion
    /// order breaks ties), optionally deduplicates, and records the rank of
    /// every inserted key. Idempotent once called.
    ///
    /// Without `unique`, equal keys all take the rank of the first of them
    /// in sorted order; with it, they share one rank and one sorted
    /// position.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        let w = self.width;
        let n = self.keys.len() / w;
        let keys = &self.keys;
        let packed = |order| sort_perm(n, w, order, |p, d| keys[p * w + d]);
        let perm = match &self.order {
            ListOrder::Insertion => (0..n).collect(),
            ListOrder::Lexicographic => packed(PackedOrder::Lexicographic),
            ListOrder::Morton => packed(PackedOrder::Morton),
            ListOrder::Custom(f) => {
                let mut perm: Vec<usize> = (0..n).collect();
                perm.sort_by(|&a, &b| f(self.key(a), self.key(b)));
                perm
            }
        };
        self.rank_sorted(perm);
        self.finalized = true;
    }

    /// Fills `ranks` and `sorted` from the sorted ordinals `perm`. Each
    /// group of equal keys takes its rank from the group's first entry in
    /// sorted order.
    fn rank_sorted(&mut self, perm: Vec<usize>) {
        self.ranks = vec![0; perm.len()];
        if matches!(self.order, ListOrder::Lexicographic | ListOrder::Morton) {
            self.rank_runs(perm);
        } else {
            self.rank_hashed(perm);
        }
    }

    /// [`OrderedList::rank_sorted`] for orders in which equal keys are
    /// adjacent (lexicographic, Morton).
    fn rank_runs(&mut self, perm: Vec<usize>) {
        let mut run_rank = 0i64;
        let mut prev: Option<usize> = None;
        for (pos, &p) in perm.iter().enumerate() {
            let same = prev.is_some_and(|q| self.key(q) == self.key(p));
            if !same {
                run_rank = if self.unique {
                    self.sorted.len() as i64
                } else {
                    pos as i64
                };
                if self.unique {
                    self.sorted.push(p);
                }
            }
            self.ranks[p] = run_rank;
            prev = Some(p);
        }
        if !self.unique {
            self.sorted = perm;
        }
    }

    /// [`OrderedList::rank_sorted`] for orders in which equal keys need
    /// not be adjacent (insertion order, user comparators): the first entry
    /// of each key goes through the key index, which is then kept for
    /// `rank`.
    fn rank_hashed(&mut self, perm: Vec<usize>) {
        let mut index = KeyIndex::with_capacity(perm.len());
        for (pos, &p) in perm.iter().enumerate() {
            match index.entry(key_buf(self.key(p))) {
                Entry::Vacant(e) => {
                    e.insert(p);
                    self.ranks[p] = if self.unique {
                        self.sorted.len() as i64
                    } else {
                        pos as i64
                    };
                    if self.unique {
                        self.sorted.push(p);
                    }
                }
                Entry::Occupied(e) => self.ranks[p] = self.ranks[*e.get()],
            }
        }
        if !self.unique {
            self.sorted = perm;
        }
        self.index = OnceLock::from(index);
    }

    /// Number of (unique) keys; before finalize, the raw insertion count.
    pub fn len(&self) -> usize {
        if self.finalized {
            self.sorted.len()
        } else {
            self.keys.len() / self.width
        }
    }

    /// Returns `true` when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Retrieves the re-ordered position of `key` — the permutation
    /// `P(key)`.
    ///
    /// # Errors
    /// Fails before finalize or for unknown keys.
    pub fn rank(&self, key: &[i64]) -> Result<i64, ListError> {
        self.rank_traced(key).map(|(rank, _)| rank)
    }

    /// [`OrderedList::rank`] that also reports whether the answer came
    /// from the ordinal table (`true`) rather than the key index.
    #[inline]
    pub(crate) fn rank_traced(&self, key: &[i64]) -> Result<(i64, bool), ListError> {
        if !self.finalized {
            return Err(ListError::NotFinalized);
        }
        if key.len() != self.width {
            return Err(ListError::WidthMismatch { expect: self.width, got: key.len() });
        }
        let c = self.cursor.load(AtomicOrdering::Relaxed);
        if self.keys.get(c * self.width..(c + 1) * self.width) == Some(key) {
            self.cursor.store(c + 1, AtomicOrdering::Relaxed);
            return Ok((self.ranks[c], true));
        }
        let index = self.index.get_or_init(|| {
            let n = self.ranks.len();
            let mut index = KeyIndex::with_capacity(n);
            for p in 0..n {
                index.entry(key_buf(self.key(p))).or_insert(p);
            }
            index
        });
        let p = *index
            .get(&key_buf(key))
            .ok_or_else(|| ListError::UnknownKey(key.to_vec()))?;
        self.cursor.store(p + 1, AtomicOrdering::Relaxed);
        Ok((self.ranks[p], false))
    }

    /// Value of key column `dim` at sorted position `pos`.
    ///
    /// # Errors
    /// Fails before finalize or for a column out of range.
    pub fn key_col(&self, pos: usize, dim: usize) -> Result<i64, ListError> {
        if !self.finalized {
            return Err(ListError::NotFinalized);
        }
        if dim >= self.width {
            return Err(ListError::BadColumn(dim));
        }
        Ok(self.keys[self.sorted[pos] * self.width + dim])
    }
}

/// The runtime environment a generated inspector executes against:
/// symbolic constants, integer index arrays (the uninterpreted functions),
/// f64 data spaces, and ordered lists.
///
/// Index and data arrays are [`Cow`] slices so containers bind without
/// copying: the source matrix's arrays enter as `Cow::Borrowed` in O(1),
/// and the interpreter clones an array only on its first write
/// (copy-on-write). Arrays the inspector allocates itself are
/// `Cow::Owned`, so extracting a freshly produced output is an O(1) move
/// (see [`RtEnv::take_uf`]) rather than a full clone.
#[derive(Debug, Default)]
pub struct RtEnv<'a> {
    /// Symbolic constants such as `NR`, `NC`, `NNZ`; inspectors may add
    /// more (e.g. `ND`) during execution.
    pub syms: BTreeMap<String, i64>,
    /// Index arrays keyed by UF name.
    pub ufs: BTreeMap<String, Cow<'a, [i64]>>,
    /// Data arrays keyed by data-space name.
    pub data: BTreeMap<String, Cow<'a, [f64]>>,
    /// Ordered lists keyed by name; must be declared (inserted here)
    /// before executing programs that reference them.
    pub lists: BTreeMap<String, OrderedList>,
}

impl<'a> RtEnv<'a> {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a symbolic constant (builder style).
    pub fn with_sym(mut self, name: impl Into<String>, v: i64) -> Self {
        self.syms.insert(name.into(), v);
        self
    }

    /// Binds an index array (builder style); accepts an owned `Vec` or a
    /// borrowed slice (zero-copy).
    pub fn with_uf(mut self, name: impl Into<String>, v: impl Into<Cow<'a, [i64]>>) -> Self {
        self.ufs.insert(name.into(), v.into());
        self
    }

    /// Binds a data array (builder style); accepts an owned `Vec` or a
    /// borrowed slice (zero-copy).
    pub fn with_data(mut self, name: impl Into<String>, v: impl Into<Cow<'a, [f64]>>) -> Self {
        self.data.insert(name.into(), v.into());
        self
    }

    /// Declares an ordered list (builder style).
    pub fn with_list(mut self, name: impl Into<String>, l: OrderedList) -> Self {
        self.lists.insert(name.into(), l);
        self
    }

    /// Removes an index array and returns it owned — O(1) for arrays the
    /// inspector produced (`Cow::Owned`), a clone only for arrays still
    /// borrowed from the caller.
    pub fn take_uf(&mut self, name: &str) -> Option<Vec<i64>> {
        self.ufs.remove(name).map(Cow::into_owned)
    }

    /// Removes a data array and returns it owned; same cost profile as
    /// [`RtEnv::take_uf`].
    pub fn take_data(&mut self, name: &str) -> Option<Vec<f64>> {
        self.data.remove(name).map(Cow::into_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_list_keeps_order() {
        let mut l = OrderedList::new(2, ListOrder::Insertion, false);
        l.insert(&[5, 1]).unwrap();
        l.insert(&[2, 9]).unwrap();
        l.finalize();
        assert_eq!(l.rank(&[5, 1]).unwrap(), 0);
        assert_eq!(l.rank(&[2, 9]).unwrap(), 1);
    }

    #[test]
    fn lexicographic_sort_and_rank() {
        let mut l = OrderedList::new(2, ListOrder::Lexicographic, false);
        for k in [[2i64, 3], [0, 1], [2, 0], [1, 7]] {
            l.insert(&k).unwrap();
        }
        l.finalize();
        assert_eq!(l.rank(&[0, 1]).unwrap(), 0);
        assert_eq!(l.rank(&[1, 7]).unwrap(), 1);
        assert_eq!(l.rank(&[2, 0]).unwrap(), 2);
        assert_eq!(l.rank(&[2, 3]).unwrap(), 3);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn unique_list_dedups_like_dia_offsets() {
        let mut l = OrderedList::new(1, ListOrder::Lexicographic, true);
        for k in [3i64, -1, 3, 0, -1, 3] {
            l.insert(&[k]).unwrap();
        }
        l.finalize();
        assert_eq!(l.len(), 3);
        assert_eq!(l.key_col(0, 0).unwrap(), -1);
        assert_eq!(l.key_col(1, 0).unwrap(), 0);
        assert_eq!(l.key_col(2, 0).unwrap(), 3);
        assert_eq!(l.rank(&[-1]).unwrap(), 0);
        assert_eq!(l.rank(&[3]).unwrap(), 2);
    }

    #[test]
    fn morton_list_orders_by_z_curve() {
        let mut l = OrderedList::new(2, ListOrder::Morton, false);
        // Z-order on 2x2: (0,0) (1,0) (0,1) (1,1).
        for k in [[1i64, 1], [0, 1], [1, 0], [0, 0]] {
            l.insert(&k).unwrap();
        }
        l.finalize();
        assert_eq!(l.rank(&[0, 0]).unwrap(), 0);
        assert_eq!(l.rank(&[1, 0]).unwrap(), 1);
        assert_eq!(l.rank(&[0, 1]).unwrap(), 2);
        assert_eq!(l.rank(&[1, 1]).unwrap(), 3);
    }

    #[test]
    fn custom_comparator() {
        // Reverse lexicographic.
        let cmp: CmpFn = Arc::new(|a, b| b.cmp(a));
        let mut l = OrderedList::new(1, ListOrder::Custom(cmp), false);
        for k in [1i64, 3, 2] {
            l.insert(&[k]).unwrap();
        }
        l.finalize();
        assert_eq!(l.rank(&[3]).unwrap(), 0);
        assert_eq!(l.rank(&[1]).unwrap(), 2);
    }

    #[test]
    fn errors_are_reported() {
        let mut l = OrderedList::new(2, ListOrder::Lexicographic, false);
        assert_eq!(
            l.insert(&[1]),
            Err(ListError::WidthMismatch { expect: 2, got: 1 })
        );
        assert_eq!(l.rank(&[1, 2]), Err(ListError::NotFinalized));
        l.insert(&[1, 2]).unwrap();
        l.finalize();
        assert_eq!(l.insert(&[3, 4]), Err(ListError::AlreadyFinalized));
        assert_eq!(l.rank(&[9, 9]), Err(ListError::UnknownKey(vec![9, 9])));
        assert_eq!(l.key_col(0, 5), Err(ListError::BadColumn(5)));
    }

    #[test]
    fn env_builders() {
        let env = RtEnv::new()
            .with_sym("NNZ", 4)
            .with_uf("row1", vec![0, 0, 1, 1])
            .with_data("A", vec![1.0, 2.0, 3.0, 4.0])
            .with_list("P", OrderedList::new(2, ListOrder::Lexicographic, false));
        assert_eq!(env.syms["NNZ"], 4);
        assert_eq!(env.ufs["row1"].len(), 4);
        assert_eq!(env.data["A"].len(), 4);
        assert!(env.lists.contains_key("P"));
    }
}
