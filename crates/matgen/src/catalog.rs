//! The synthesizable conversion catalog as test and benchmark inputs: the
//! 31 matrix and 6 tensor ordered `(source, destination)` pairs the
//! synthesizer handles, named after their `sparse_formats::descriptors`
//! constructors.

use sparse_formats::{descriptors, FormatDescriptor};

/// The 31 synthesizable matrix pairs. ELL is a source only, DIA a
/// destination only.
pub const MATRIX_PAIRS: [(&str, &str); 31] = [
    ("coo", "scoo"),
    ("coo", "csr"),
    ("coo", "csc"),
    ("coo", "dia"),
    ("coo", "mcoo"),
    ("scoo", "coo"),
    ("scoo", "csr"),
    ("scoo", "csc"),
    ("scoo", "dia"),
    ("scoo", "mcoo"),
    ("csr", "coo"),
    ("csr", "scoo"),
    ("csr", "csc"),
    ("csr", "dia"),
    ("csr", "mcoo"),
    ("csc", "coo"),
    ("csc", "scoo"),
    ("csc", "csr"),
    ("csc", "dia"),
    ("csc", "mcoo"),
    ("mcoo", "coo"),
    ("mcoo", "scoo"),
    ("mcoo", "csr"),
    ("mcoo", "csc"),
    ("mcoo", "dia"),
    ("ell", "coo"),
    ("ell", "scoo"),
    ("ell", "csr"),
    ("ell", "csc"),
    ("ell", "dia"),
    ("ell", "mcoo"),
];

/// The 6 synthesizable order-3 tensor pairs.
pub const TENSOR_PAIRS: [(&str, &str); 6] = [
    ("coo3", "scoo3"),
    ("coo3", "mcoo3"),
    ("scoo3", "coo3"),
    ("scoo3", "mcoo3"),
    ("mcoo3", "coo3"),
    ("mcoo3", "scoo3"),
];

/// The catalog descriptor built by `descriptors::<name>()`.
///
/// # Panics
/// Panics when `name` is not one of the catalog formats above.
pub fn descriptor(name: &str) -> FormatDescriptor {
    match name {
        "coo" => descriptors::coo(),
        "scoo" => descriptors::scoo(),
        "csr" => descriptors::csr(),
        "csc" => descriptors::csc(),
        "dia" => descriptors::dia(),
        "mcoo" => descriptors::mcoo(),
        "ell" => descriptors::ell(),
        "coo3" => descriptors::coo3(),
        "scoo3" => descriptors::scoo3(),
        "mcoo3" => descriptors::mcoo3(),
        _ => panic!("not a catalog format: {name}"),
    }
}

/// A pair's descriptors, alpha-renaming (`with_suffix("_v")`) a
/// destination that shares UF names with its source, which synthesis
/// requires.
pub fn pair_descriptors(src: &str, dst: &str) -> (FormatDescriptor, FormatDescriptor) {
    let (s, mut d) = (descriptor(src), descriptor(dst));
    if d.uf_names().iter().any(|n| s.uf_names().contains(n)) {
        d = d.with_suffix("_v");
    }
    (s, d)
}
