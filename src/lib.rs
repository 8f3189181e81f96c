//! # rcb — resource-competitive broadcast in multi-channel radio networks
//!
//! A full reproduction of **Chen & Zheng, *Fast and Resource Competitive
//! Broadcast in Multi-channel Radio Networks*, SPAA 2019** as a Rust
//! workspace:
//!
//! * [`sim`] — the slot-synchronous multi-channel radio simulator (the
//!   paper's Section 3 model, implemented exactly);
//! * [`adversary`] — oblivious jamming strategies for Eve, budget-enforced;
//! * [`core`](mod@core) — the protocols: `MultiCastCore`, `MultiCast`,
//!   `MultiCastAdv`, `MultiCast(C)`, `MultiCastAdv(C)`, plus baselines;
//! * [`stats`] — streaming aggregation and the log-log fits the
//!   experiments use to verify scaling exponents;
//! * [`harness`] — a declarative, parallel Monte-Carlo trial runner;
//! * [`campaign`] — a named scenario catalog plus a parallel campaign
//!   engine with streaming aggregation and schema-versioned JSON
//!   artifacts (the `rcb` binary).
//!
//! This facade crate re-exports everything and hosts the runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`).
//!
//! ## The paper in one paragraph
//!
//! A source must broadcast a message to `n − 1` other nodes over a
//! multi-channel radio network while an adversary ("Eve") with an energy
//! budget `T` jams. Sending, listening, or jamming one channel for one slot
//! all cost one energy unit. A *resource-competitive* algorithm guarantees
//! each node spends `o(T)` — so jammers go bankrupt long before the
//! protocol does. The paper shows multiple channels buy *time*: `MultiCast`
//! finishes in `Õ(T/n)` slots at `Õ(√(T/n))` energy per node (the best
//! single-channel algorithms need `Õ(T + n)` time at the same energy), and
//! variants handle unknown `n` and limited channel counts.
//!
//! ## Quick start
//!
//! ```
//! use rcb::core::MultiCast;
//! use rcb::adversary::UniformFraction;
//! use rcb::sim::Simulation;
//!
//! // 64 nodes (the protocol uses n/2 = 32 channels); Eve holds 20k energy
//! // and jams half the band every slot until she is broke.
//! let mut protocol = MultiCast::new(64);
//! let mut eve = UniformFraction::new(20_000, 0.5, 7);
//! let outcome = Simulation::new(&mut protocol).adversary(&mut eve).run(42);
//!
//! assert!(outcome.all_informed && outcome.all_halted);
//! assert_eq!(outcome.safety_violations(), 0);
//! // Eve outspends every node by an order of magnitude:
//! assert!(outcome.max_cost() * 2 < outcome.eve_spent);
//! ```

pub use rcb_adversary as adversary;
pub use rcb_campaign as campaign;
pub use rcb_core as core;
pub use rcb_harness as harness;
pub use rcb_sim as sim;
pub use rcb_stats as stats;

/// Crate version, for examples that print a banner.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
