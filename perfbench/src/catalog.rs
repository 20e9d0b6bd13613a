//! The 37 synthesizable catalog pairs (31 matrix, 6 tensor) the benchmark
//! drives, fixed by name so the benchmark does not drift when the
//! synthesizable fragment grows.

use sparse_formats::{descriptors, FormatDescriptor};

/// A catalog format, as a conversion source or destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fmt {
    /// Unordered coordinates.
    Coo,
    /// Row-major sorted coordinates.
    Scoo,
    Csr,
    Csc,
    Dia,
    /// Morton-ordered coordinates.
    Mcoo,
    Ell,
    /// Unordered order-3 coordinates.
    Coo3,
    /// Lexicographically sorted order-3 coordinates.
    Scoo3,
    /// Morton-ordered order-3 coordinates.
    Mcoo3,
}

impl Fmt {
    pub fn descriptor(self) -> FormatDescriptor {
        match self {
            Fmt::Coo => descriptors::coo(),
            Fmt::Scoo => descriptors::scoo(),
            Fmt::Csr => descriptors::csr(),
            Fmt::Csc => descriptors::csc(),
            Fmt::Dia => descriptors::dia(),
            Fmt::Mcoo => descriptors::mcoo(),
            Fmt::Ell => descriptors::ell(),
            Fmt::Coo3 => descriptors::coo3(),
            Fmt::Scoo3 => descriptors::scoo3(),
            Fmt::Mcoo3 => descriptors::mcoo3(),
        }
    }

    pub fn is_tensor(self) -> bool {
        matches!(self, Fmt::Coo3 | Fmt::Scoo3 | Fmt::Mcoo3)
    }
}

/// One `(src, dst)` conversion with the descriptors the engine receives.
pub struct Pair {
    pub src: Fmt,
    pub dst: Fmt,
    pub src_desc: FormatDescriptor,
    pub dst_desc: FormatDescriptor,
    pub label: String,
}

impl Pair {
    /// Builds the pair's descriptors. A destination that shares UF names
    /// with its source (e.g. COO -> SCOO) is alpha-renamed with `_v`, the
    /// rule the catalog lint example uses.
    pub fn new(src: Fmt, dst: Fmt) -> Pair {
        let src_desc = src.descriptor();
        let mut dst_desc = dst.descriptor();
        let src_ufs = src_desc.uf_names();
        if dst_desc.uf_names().iter().any(|n| src_ufs.contains(n)) {
            dst_desc = dst_desc.with_suffix("_v");
        }
        let label = format!("{}->{}", src_desc.name, dst_desc.name);
        Pair {
            src,
            dst,
            src_desc,
            dst_desc,
            label,
        }
    }

    pub fn is_tensor(&self) -> bool {
        self.src.is_tensor()
    }

    /// True when the built-in kernel registry holds a native kernel for
    /// this pair's structural fingerprints.
    pub fn has_kernel(&self) -> bool {
        let reg = sparse_synthesis::KernelRegistry::global();
        let (s, d) = (self.src_desc.fingerprint(), self.dst_desc.fingerprint());
        reg.matrix_kernel(s, d).is_some() || reg.tensor_kernel(s, d).is_some()
    }
}

/// Every synthesizable ordered pair of the catalog, in a stable order.
const CATALOG: [(Fmt, Fmt); 37] = {
    use Fmt::*;
    [
        (Coo, Scoo),
        (Coo, Csr),
        (Coo, Csc),
        (Coo, Dia),
        (Coo, Mcoo),
        (Scoo, Coo),
        (Scoo, Csr),
        (Scoo, Csc),
        (Scoo, Dia),
        (Scoo, Mcoo),
        (Csr, Coo),
        (Csr, Scoo),
        (Csr, Csc),
        (Csr, Dia),
        (Csr, Mcoo),
        (Csc, Coo),
        (Csc, Scoo),
        (Csc, Csr),
        (Csc, Dia),
        (Csc, Mcoo),
        (Mcoo, Coo),
        (Mcoo, Scoo),
        (Mcoo, Csr),
        (Mcoo, Csc),
        (Mcoo, Dia),
        (Ell, Coo),
        (Ell, Scoo),
        (Ell, Csr),
        (Ell, Csc),
        (Ell, Dia),
        (Ell, Mcoo),
        (Coo3, Scoo3),
        (Coo3, Mcoo3),
        (Scoo3, Coo3),
        (Scoo3, Mcoo3),
        (Mcoo3, Coo3),
        (Mcoo3, Scoo3),
    ]
};

pub fn pairs() -> Vec<Pair> {
    CATALOG.iter().map(|&(s, d)| Pair::new(s, d)).collect()
}
