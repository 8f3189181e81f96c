//! # rcb-campaign — scenario catalog + parallel campaign engine
//!
//! Turns the per-trial harness (`rcb-harness`) into a production workload
//! driver:
//!
//! * [`scenario`] — a **registry of named scenarios**, each a TOML spec
//!   file under `crates/campaign/scenarios/` (protocol × adversary ×
//!   topology × schedule cells, with sweep axes as arrays) embedded at
//!   build time and parsed by [`specfile`], the `rcb run --spec` loader.
//!   The files cover the core reproduction, unknown-`n`, limited channels,
//!   adaptive-jammer proxies, Gilbert–Elliott bursty noise, sweeping
//!   interference, baseline races, scaling ladders, multi-hop topology
//!   families and nemesis fault injection. Adding a workload is one file
//!   plus one registry line.
//! * [`engine`] — a **parallel campaign runner** that shards trials across
//!   cores with positional seed derivation
//!   (`cell_trial_seed(campaign_seed, cell, replicate)`) and strict-order
//!   streaming aggregation, so a campaign's result is **bit-identical at
//!   any thread count** and memory stays flat no matter how many trials
//!   run. [`engine::run_campaign_service`] layers the resumable campaign
//!   service on the same engine: per-cell checkpoints ([`checkpoint`]),
//!   `--resume` with kill-anywhere byte-identity, incremental `--trials`
//!   growth, and a content-addressed result store ([`store`]) that serves
//!   unchanged cells without simulating — see `docs/CAMPAIGN_SERVICE.md`.
//! * [`report`] — the **schema-versioned JSON artifact**
//!   (`BENCH_<scenario>.json`-ready) plus a human summary table.
//!
//! Performance tooling rides on the same catalog:
//!
//! * [`bench`](mod@bench) — `rcb bench`: single-threaded engine-throughput
//!   measurement per scenario cell (slots/sec, wall time, fast-forward
//!   speedup vs the slot-by-slot reference), emitted as a schema-versioned
//!   `BENCH_*.json` artifact — the repo's perf trajectory.
//! * [`diff`](mod@diff) + [`jsonin`] — `rcb diff a.json b.json`: structural
//!   comparison of two artifacts with per-leaf relative deltas and a
//!   threshold gate (the perf/behavior regression gate in CI). Wall-clock
//!   leaves and the build stamp are ignored by default
//!   ([`diff::DEFAULT_IGNORES`]).
//! * [`profile`](mod@profile) — `rcb profile <scenario> <cell>`: per-phase
//!   wall-clock and telemetry-counter breakdown of one cell ("why is this
//!   cell slow?").
//! * [`tracefile`] — `rcb run --trace-out t.jsonl`: schema-versioned JSONL
//!   trace of every trial's state-change events, via the engine's
//!   `Observer` seat.
//!
//! Every artifact embeds engine telemetry: a `perf` block per cell
//! (deterministic counters always; wall-clock phases opt-in via
//! `rcb run --perf`) and a `code_version` build stamp in the header — see
//! `docs/OBSERVABILITY.md`.
//!
//! The `rcb` binary (`src/bin/rcb.rs`) is the command-line face:
//!
//! ```text
//! rcb list
//! rcb describe core-repro
//! rcb run core-repro --trials 1000 --seed 1 --out BENCH_core.json
//! rcb run core-repro --trials 2 --trace-out trace.jsonl
//! rcb run --spec crates/campaign/scenarios/nemesis.toml --trials 100
//! rcb bench --quick --out BENCH_engine.json
//! rcb profile epidemic-race 2 --trials 3
//! rcb diff BENCH_engine.json new.json --threshold 0.5
//! ```

pub mod bench;
pub mod checkpoint;
pub mod diff;
pub mod engine;
pub mod json;
pub mod jsonin;
pub mod profile;
pub mod report;
pub mod scenario;
pub mod shard;
#[cfg(test)]
mod source_hash;
pub mod specfile;
pub mod store;
pub mod tracefile;

pub use bench::{run_bench, BenchConfig, BenchReport, BENCH_SCHEMA_VERSION};
pub use checkpoint::{
    checkpoint_path, load_checkpoint, CellCheckpoint, ServiceError, CHECKPOINT_SCHEMA_VERSION,
};
pub use diff::{diff, DiffKind, DiffOutput, DiffRow, DEFAULT_IGNORES};
pub use engine::{
    run_campaign, run_campaign_service, run_campaign_traced, validate_service_flags,
    CampaignConfig, ServiceConfig, ServiceRun,
};
pub use json::Json;
pub use profile::{profile_cell, ProfileConfig};
pub use report::{
    code_version, CampaignReport, CellReport, HelperPhaseCount, MetricReport, ScheduleReport,
    TimelineEntry, SCHEMA_VERSION,
};
pub use scenario::{describe_campaign, find, registry, CampaignSpec, CellSpec, Scenario};
pub use shard::{
    load_plan, shard_merge, shard_status, shard_work, write_plan, CellState, CellStatus,
    MergeOutcome, PlanOptions, ShardPlan, WorkerOptions, WorkerOutcome, SHARD_SCHEMA_VERSION,
};
pub use specfile::{load_spec, parse_spec, SpecError};
pub use store::{
    checkpoint_key, store_key, EntrySummary, Store, TrendRow, DEFAULT_STORE_DIR,
    STORE_SCHEMA_VERSION,
};
pub use tracefile::{TraceWriter, TrialTraceObserver, TRACE_SCHEMA_VERSION};
