//! # rcb-bench — experiment regeneration and benchmarks
//!
//! The paper has no empirical tables or figures — its "evaluation" is its
//! theorems. This crate regenerates **every theorem and load-bearing lemma
//! as an empirical table** (experiments E1–E12, indexed in DESIGN.md §4 and
//! recorded in EXPERIMENTS.md):
//!
//! ```text
//! cargo run --release -p rcb-bench --bin repro -- --exp all      # quick scale
//! cargo run --release -p rcb-bench --bin repro -- --exp e5 --full
//! cargo run --release -p rcb-bench --bin repro -- --list
//! ```

pub mod experiments;
pub mod scale;

pub use experiments::{all_experiments, Experiment};
pub use scale::Scale;
