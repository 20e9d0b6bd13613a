//! # sparse-matgen
//!
//! Deterministic synthetic generators reproducing the structure classes
//! and statistics of the paper's evaluation data — the 21 SuiteSparse
//! matrices of Table 3 and the three FROSTT tensors of Table 4 — plus
//! MatrixMarket I/O for substituting real data when available.
//!
//! ```
//! use sparse_matgen::suite::table3_suite;
//!
//! let suite = table3_suite();
//! assert_eq!(suite.len(), 21);
//! // `ecology1` is the paper's best DIA case: exactly 5 diagonals.
//! let eco = suite.iter().find(|s| s.name == "ecology1").unwrap();
//! let m = eco.generate(256); // scaled down 256x for a quick run
//! assert_eq!(m.diagonals().len(), 5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod corrupt;
pub mod generators;
pub mod mm;
pub mod suite;
pub mod tns;

pub use corrupt::{corrupt_matrix, Corruption};
pub use generators::{
    banded, dedup_coo, fem_like, power_law, random_uniform, shuffle_perm, skewed_tensor,
    spread_offsets, stencil5, stencil7,
};
pub use mm::{read_matrix_market, write_matrix_market, MmError};
pub use tns::{read_tns, write_tns, TnsError};
pub use suite::{table3_suite, table4_suite, MatrixClass, MatrixSpec, TensorSpec};
