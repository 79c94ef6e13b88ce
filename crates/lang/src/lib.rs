//! # synquid-lang
//!
//! The benchmark suite of the paper's evaluation and the helpers that
//! locate it: the Table 1 and Table 2 metadata (each transcribed Table 1
//! row names its `.sq` specification under `specs/`), the Fig. 7 SyGuS
//! generators (`max_n`, `array_search_n`, parameterised by `n` and
//! therefore built in Rust), the spec-corpus loaders, and the Table 1
//! column configurations ([`Variant`]). Running goals is the job of
//! `synquid-engine`.
//!
//! ## Example
//!
//! ```
//! use synquid_lang::table1;
//!
//! let replicate = table1()
//!     .into_iter()
//!     .find(|b| b.name == "replicate")
//!     .expect("replicate is a Table 1 row");
//! let goal = replicate.load_goal().expect("transcribed").expect("spec loads");
//! assert_eq!(goal.name, "replicate");
//! assert_eq!(replicate.bounds, (3, 0));
//! ```

pub mod benchmarks;
pub mod components;
pub mod runner;
pub mod spec;

pub use benchmarks::{array_search_n, max_n, sygus, table1, table2, transcribed, Benchmark};
pub use runner::{goal_label, Variant};
pub use synquid_core::SynthesisStats;
