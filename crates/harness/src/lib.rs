//! # rcb-harness — parallel Monte-Carlo experiment runner
//!
//! Describes trials as plain data ([`TrialSpec`] = protocol × adversary ×
//! topology × seed), runs them in parallel across CPU cores, and distills
//! each run into a [`TrialResult`].
//!
//! Every parallel run in the workspace goes through one pool,
//! [`run_ordered`]: std scoped workers claim indices from an atomic cursor,
//! and the results reach the caller strictly in index order, with an early
//! stop. One worker runs inline: the calling thread runs the jobs itself,
//! with no spawned thread or channel. [`run_trials`] collects results with
//! it; the campaign engine (`rcb-campaign`) aggregates, checkpoints and
//! kills through it.
//!
//! The data-description layer exists so that sweeps are declarative: a
//! workload is a list of `TrialSpec`s, and every trial is reproducible from
//! its spec alone — the spec carries the master seed, and node streams,
//! engine sampling, adversary randomness, and topology generation all
//! derive from it (see `rcb_sim::derive_seed`). [`ProtocolKind`],
//! [`AdversaryKind`], and [`TopologyKind`] are `Clone + Send` enums, so
//! grids can be built with ordinary iterator code and shipped across
//! threads; [`AdversaryKind::is_adaptive`] marks the execution-observing
//! strategies, which [`run_trial`] mounts into the adaptive seat of the
//! engine's unified `Eve` enum automatically — every trial is one
//! `rcb_sim::Simulation` build. Per-trial knobs beyond the spec (a base
//! engine config, an observer) go through [`TrialOptions`] and
//! [`run_trial_opts`].
//!
//! Worker-count resolution is shared by every CLI through
//! [`resolve_threads`]: an explicit `--threads K` wins, otherwise the
//! `RCB_THREADS` environment variable, otherwise one worker per available
//! core.
//!
//! ```
//! use rcb_harness::{run_trials, AdversaryKind, ProtocolKind, TrialSpec};
//!
//! // A 2-cell sweep: MultiCast vs the classic reactive jammer and its
//! // windowed generalization, one seed each.
//! let specs: Vec<TrialSpec> = [
//!     AdversaryKind::Reactive { t: 5_000, max_channels: 8 },
//!     AdversaryKind::ReactiveWindow { t: 5_000, window: 4, max_channels: 8, threshold: 2 },
//! ]
//! .into_iter()
//! .map(|adv| TrialSpec::new(
//!     ProtocolKind::MultiCast { n: 16, params: Default::default() },
//!     adv,
//!     11,
//! ))
//! .collect();
//! for r in run_trials(&specs, 0) {
//!     assert!(r.completed && r.safety_violations == 0);
//! }
//! ```
//!
//! The campaign layer (`rcb-campaign`) builds on this crate for streaming
//! aggregation over many seeds; use the harness directly when you need
//! per-trial results or a custom observer.

pub mod report;
pub mod runner;
pub mod spec;

pub use report::{sweep_by, SweepPoint};
pub use runner::{
    cell_trial_seed, resolve_threads, run_ordered, run_trial, run_trial_opts, run_trial_telemetry,
    run_trials, TrialOptions, TrialResult,
};
pub use spec::{
    AdversaryKind, ProtocolKind, ScheduleEventKind, ScheduleSpec, TopologyKind, TrialSpec,
};
