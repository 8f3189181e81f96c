//! # rcb-stats — statistics, fitting, and table formatting
//!
//! Numerics for the experiment harness: summary statistics with confidence
//! intervals, log-log regression for scaling-exponent fits (the main
//! instrument for verifying the paper's `O(T/n)`, `O(√(T/n))`, `O(n^{2α})`
//! shapes), streaming moments and quantile sketches for campaign
//! aggregation, and the markdown/CSV tables that `repro` and `rcb` print.
//!
//! Everything is hand-rolled on `std` — the experiment pipeline needs only
//! means, quantiles, and least squares, not a stats dependency.

pub mod plot;
pub mod regression;
pub mod streaming;
pub mod summary;
pub mod table;

pub use plot::loglog_plot;
pub use regression::{fit_linear, fit_power_law, LinearFit};
pub use streaming::{QuantileSketch, StreamingMoments};
pub use summary::Summary;
pub use table::Table;
