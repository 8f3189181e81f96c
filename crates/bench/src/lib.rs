//! # rcb-bench — experiment regeneration
//!
//! The paper has no empirical tables or figures — its "evaluation" is its
//! theorems. This crate regenerates **every theorem and load-bearing lemma
//! as an empirical table**: experiments E1–E12 cover the paper's claims and
//! E13–E18 extensions (adaptive jammers, three ablations, multi-hop and
//! multi-message broadcast); `repro --list` prints the index with each
//! claim.
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
