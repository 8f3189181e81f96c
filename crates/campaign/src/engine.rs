//! The parallel campaign engine.
//!
//! Executes every cell of a [`CampaignSpec`] for `trials_per_cell` seeds,
//! sharding trials across worker threads, and aggregates **streamingly**:
//! no `TrialResult` vector is ever materialized. Workers distill each trial
//! into a ~100-byte `TrialMetrics`, which the harness's ordered pool
//! ([`rcb_harness::run_ordered`]) hands back to the calling thread to feed
//! per-cell accumulators (`CellAccumulator`) built from `rcb-stats`
//! streaming moments and quantile sketches. Memory is `O(cells · sketch)` +
//! a small reorder window, independent of the trial count: the work
//! schedule (`TrialSchedule`) is a replicate range per cell, not a list of
//! trials.
//!
//! ## Determinism
//!
//! Two mechanisms make a campaign bit-identical for a given seed at *any*
//! thread count:
//!
//! 1. **Seed derivation is positional.** Trial `g` (global index: cell
//!    `c = g / trials_per_cell`, replicate `t = g % trials_per_cell`)
//!    always runs with master seed `cell_trial_seed(campaign_seed, c, t)`
//!    — a per-cell stream, then the replicate's draw within it — no matter
//!    which worker claims it. Because a cell's stream depends only on
//!    `(campaign_seed, c)`, growing `--trials` extends each stream in
//!    place, which is what makes incremental resume possible.
//! 2. **Aggregation order is positional.** The pool delivers metrics
//!    strictly in increasing `g`, whichever worker finished first.
//!    Floating-point accumulation order is therefore fixed, so even the
//!    non-associative Welford updates produce identical bits.
//!
//! ## The resumable service
//!
//! [`run_campaign_service`] wraps the same engine with per-cell
//! checkpointing, incremental resume, and a content-addressed result store
//! (see [`crate::checkpoint`] and [`crate::store`]). [`run_campaign`] is
//! the service with every feature off. Both determinism mechanisms carry
//! over verbatim: a resumed cell restores its accumulator bit-exactly from
//! the checkpoint and re-runs only replicates `watermark..trials`, whose
//! seeds are the same as in an uninterrupted run — so the final artifact is
//! byte-identical at any kill point and thread count
//! (`tests/resume_equivalence.rs` pins this).
//!
//! A cell's durable state has one owner, `CellKeeper`: the validated
//! checkpoint load, the store lookup, the boundary checkpoint write, the
//! store publish, and the drive loop with its kill switch. The shard
//! worker ([`crate::shard`]) runs its cells through the same keeper and
//! adds only its lease, as a fence the drive loop consults before each
//! write; that shared code is why a merged fleet's bytes equal `rcb run`'s.

use crate::checkpoint::{
    checkpoint_path, load_cell_checkpoint, write_checkpoint, CellCheckpoint, ServiceError,
};
use crate::report::{
    code_version, CampaignReport, CellPerf, CellReport, MetricReport, ScheduleReport, TimelineEntry,
};
use crate::scenario::{CampaignSpec, CellSpec};
use crate::store::{checkpoint_key, Store};
use crate::tracefile::{TraceWriter, TrialTraceObserver};
use rcb_harness::{cell_trial_seed, run_trial_telemetry, TrialOptions, TrialResult, TrialSpec};
use rcb_sim::{EngineConfig, EngineTelemetry, ScheduleMarker};
use rcb_stats::{QuantileSketch, StreamingMoments};
use std::borrow::Cow;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How a campaign is executed. Everything that affects the *artifact's
/// deterministic leaves* is here except `threads`, `progress`, and
/// `telemetry`, which by design cannot affect them (`telemetry` only fills
/// the wall-clock leaves of the `perf` block, which are zero otherwise).
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign master seed; every trial seed derives from it.
    pub seed: u64,
    /// Trials per cell.
    pub trials_per_cell: u64,
    /// Worker threads; 0 = one per available core.
    pub threads: usize,
    /// Override every cell's engine slot cap (None = use the cell's own).
    pub max_slots: Option<u64>,
    /// Print progress lines to stderr while running.
    pub progress: bool,
    /// Collect wall-clock phase timing into each cell's `perf` block
    /// (`rcb run --perf`). Off by default so artifacts stay byte-identical
    /// across hosts and repeats; the deterministic perf *counters* are
    /// always collected regardless of this flag.
    pub telemetry: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            trials_per_cell: 100,
            threads: 0,
            max_slots: None,
            progress: false,
            telemetry: false,
        }
    }
}

/// The distilled per-trial record a worker hands to the aggregating
/// calling thread (through the pool's channel, or directly at one
/// worker). Near-fixed-size — the helper list is empty for every protocol
/// except `MultiCastAdv`, where it holds at most one entry per node —
/// so campaigns never hold meaningful per-trial data beyond the pool's
/// reorder window.
#[derive(Clone, Debug)]
struct TrialMetrics {
    completion_slots: u64,
    max_cost: u64,
    mean_cost: f64,
    source_cost: u64,
    eve_spent: u64,
    completed: bool,
    all_informed: bool,
    safety_violations: u64,
    /// `(epoch, phase)` of each helper-promotion event (`MultiCastAdv`).
    helper_phases: Vec<(u32, u32)>,
    /// Crash-model outcome fields (all zero/`survivors == n`-shaped for
    /// unscheduled cells; only reported on scheduled ones).
    crashed: u32,
    survivors: u32,
    survivors_informed: u32,
    /// Application markers of the trial's world-schedule events, in spec
    /// order (a strict prefix of the schedule when the run ended early).
    timeline: Vec<ScheduleMarker>,
    /// Engine telemetry of the trial (counters always; phase clocks only
    /// under [`CampaignConfig::telemetry`]).
    telemetry: EngineTelemetry,
}

impl TrialMetrics {
    fn new(r: &TrialResult, telemetry: EngineTelemetry) -> Self {
        Self {
            completion_slots: r.completion_time(),
            max_cost: r.max_cost,
            mean_cost: r.mean_cost,
            source_cost: r.source_cost,
            eve_spent: r.eve_spent,
            completed: r.completed,
            all_informed: r.all_informed,
            safety_violations: r.safety_violations as u64,
            helper_phases: r.helper_phases.clone(),
            crashed: r.crashed,
            survivors: r.survivors,
            survivors_informed: r.survivors_informed,
            timeline: r.timeline.clone(),
            telemetry,
        }
    }
}

/// Streaming aggregate over one cell's trials.
///
/// Every field is part of the resumable-service state: the checkpoint
/// codec ([`crate::checkpoint`]) serializes and restores this struct
/// **exactly** (f64s as bit patterns), which is what makes a resumed
/// campaign's artifact byte-identical to an uninterrupted run's.
#[derive(Clone, Debug)]
pub(crate) struct CellAccumulator {
    pub(crate) trials: u64,
    pub(crate) completed: u64,
    pub(crate) all_informed: u64,
    pub(crate) safety_violations: u64,
    pub(crate) completion_slots: MetricAcc,
    pub(crate) max_cost: MetricAcc,
    pub(crate) mean_cost: MetricAcc,
    pub(crate) source_cost: MetricAcc,
    pub(crate) eve_spent: MetricAcc,
    /// Count per distinct helper `(epoch, phase)` across the cell's trials
    /// (bounded by the handful of phases a schedule visits, not by trials).
    pub(crate) helper_events: std::collections::BTreeMap<(u32, u32), u64>,
    /// Crash-model distributions (reported only for scheduled cells).
    pub(crate) crashed: MetricAcc,
    pub(crate) survivors: MetricAcc,
    pub(crate) survivors_informed: MetricAcc,
    /// Per-event application aggregate: `(applied_trials, min, max)` of the
    /// application slot. Index-aligned with the cell's schedule because
    /// events apply strictly in spec order.
    pub(crate) timeline: Vec<(u64, u64, u64)>,
    /// Engine telemetry merged over the cell's trials (fixed-size).
    pub(crate) telemetry: EngineTelemetry,
}

/// Moments + quantile sketch for one metric.
#[derive(Clone, Debug)]
pub(crate) struct MetricAcc {
    pub(crate) moments: StreamingMoments,
    pub(crate) sketch: QuantileSketch,
}

impl MetricAcc {
    pub(crate) fn new() -> Self {
        Self {
            moments: StreamingMoments::new(),
            sketch: QuantileSketch::new(),
        }
    }

    pub(crate) fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.sketch.push(x);
    }

    fn report(&self) -> MetricReport {
        MetricReport {
            count: self.moments.count(),
            mean: self.moments.mean(),
            std_dev: self.moments.std_dev(),
            min: self.moments.min().unwrap_or(0.0),
            max: self.moments.max().unwrap_or(0.0),
            p50: self.sketch.quantile(0.5).unwrap_or(0.0),
            p90: self.sketch.quantile(0.9).unwrap_or(0.0),
            p99: self.sketch.quantile(0.99).unwrap_or(0.0),
        }
    }
}

impl CellAccumulator {
    pub(crate) fn new() -> Self {
        Self {
            trials: 0,
            completed: 0,
            all_informed: 0,
            safety_violations: 0,
            completion_slots: MetricAcc::new(),
            max_cost: MetricAcc::new(),
            mean_cost: MetricAcc::new(),
            source_cost: MetricAcc::new(),
            eve_spent: MetricAcc::new(),
            helper_events: std::collections::BTreeMap::new(),
            crashed: MetricAcc::new(),
            survivors: MetricAcc::new(),
            survivors_informed: MetricAcc::new(),
            timeline: Vec::new(),
            telemetry: EngineTelemetry::default(),
        }
    }

    fn push(&mut self, m: &TrialMetrics) {
        self.trials += 1;
        self.completed += m.completed as u64;
        self.all_informed += m.all_informed as u64;
        self.safety_violations += m.safety_violations;
        self.completion_slots.push(m.completion_slots as f64);
        self.max_cost.push(m.max_cost as f64);
        self.mean_cost.push(m.mean_cost);
        self.source_cost.push(m.source_cost as f64);
        self.eve_spent.push(m.eve_spent as f64);
        for &(epoch, phase) in &m.helper_phases {
            *self.helper_events.entry((epoch, phase)).or_insert(0) += 1;
        }
        self.crashed.push(f64::from(m.crashed));
        self.survivors.push(f64::from(m.survivors));
        self.survivors_informed
            .push(f64::from(m.survivors_informed));
        for (i, marker) in m.timeline.iter().enumerate() {
            match self.timeline.get_mut(i) {
                Some((applied, min, max)) => {
                    *applied += 1;
                    *min = (*min).min(marker.applied_at);
                    *max = (*max).max(marker.applied_at);
                }
                None => self
                    .timeline
                    .push((1, marker.applied_at, marker.applied_at)),
            }
        }
        self.telemetry.merge(&m.telemetry);
    }

    pub(crate) fn report(&self, cell: &CellSpec, max_slots: u64) -> CellReport {
        CellReport {
            protocol: cell.protocol.name().to_string(),
            adversary: cell.adversary.name().to_string(),
            topology: cell.topology.name().to_string(),
            n: cell.protocol.n(),
            budget: cell.adversary.budget(),
            max_slots,
            trials: self.trials,
            completed: self.completed,
            all_informed: self.all_informed,
            completion_rate: if self.trials == 0 {
                0.0
            } else {
                self.completed as f64 / self.trials as f64
            },
            safety_violations: self.safety_violations,
            completion_slots: self.completion_slots.report(),
            max_node_cost: self.max_cost.report(),
            mean_node_cost: self.mean_cost.report(),
            source_cost: self.source_cost.report(),
            eve_spent: self.eve_spent.report(),
            helper_events: self
                .helper_events
                .iter()
                .map(
                    |(&(epoch, phase), &count)| crate::report::HelperPhaseCount {
                        epoch,
                        phase,
                        count,
                    },
                )
                .collect(),
            // Integer phase nanos sum deterministically across the ordered
            // ingest, so the artifact stays thread-count independent even
            // with timing on (for one fixed run's metrics stream).
            perf: CellPerf::from_telemetry(
                &self.telemetry,
                self.telemetry.phases.total() as f64 * 1e-9,
            ),
            schedule: (!cell.schedule.is_empty()).then(|| ScheduleReport {
                events: cell.schedule.len() as u64,
                first_slot: cell.schedule.first_slot().unwrap_or(0),
                last_slot: cell.schedule.last_slot().unwrap_or(0),
                detail: cell.schedule.detail(),
                kinds: cell
                    .schedule
                    .events
                    .iter()
                    .map(|(_, e)| e.name().to_string())
                    .collect(),
                // One entry per scheduled event: aggregated markers where
                // trials reached it, an explicit zero record where none did.
                timeline: cell
                    .schedule
                    .events
                    .iter()
                    .enumerate()
                    .map(|(i, &(scheduled_at, _))| {
                        let (applied, min, max) =
                            self.timeline.get(i).copied().unwrap_or((0, 0, 0));
                        TimelineEntry {
                            scheduled_at,
                            applied_trials: applied,
                            applied_at_min: min,
                            applied_at_max: max,
                        }
                    })
                    .collect(),
                crashed: self.crashed.report(),
                survivors: self.survivors.report(),
                survivors_informed: self.survivors_informed.report(),
                schedule_events: self.telemetry.schedule_events,
                crashed_node_slots: self.telemetry.crashed_node_slots,
            }),
        }
    }
}

/// Build the `TrialSpec` for global trial index `g`.
fn trial_spec(spec: &CampaignSpec, cfg: &CampaignConfig, g: u64) -> TrialSpec {
    let cell = &spec.cells[(g / cfg.trials_per_cell) as usize];
    TrialSpec::new(
        cell.protocol.clone(),
        cell.adversary.clone(),
        cell_trial_seed(cfg.seed, g / cfg.trials_per_cell, g % cfg.trials_per_cell),
    )
    .with_topology(cell.topology.clone())
    .with_schedule(cell.schedule.clone())
    .with_max_slots(cfg.max_slots.unwrap_or(cell.max_slots))
}

/// The [`TrialOptions`] every campaign trial runs under: default engine
/// plus the campaign's wall-clock opt-in.
fn trial_options<'a>(cfg: &CampaignConfig) -> TrialOptions<'a> {
    TrialOptions::with_engine(EngineConfig {
        time_phases: cfg.telemetry,
        ..EngineConfig::default()
    })
}

/// Stderr progress reporter: one line per `total/20` ingested trials plus a
/// guaranteed `total/total (100%)` line, naming the cell the last trial
/// belonged to and the cumulative simulated-slot throughput.
struct Progress {
    enabled: bool,
    step: u64,
    started: Instant,
    slots_done: u64,
}

impl Progress {
    fn new(enabled: bool, total: u64) -> Self {
        Self {
            enabled,
            step: (total / 20).max(1),
            started: Instant::now(),
            slots_done: 0,
        }
    }

    /// Record trial `g`'s metrics as ingested (`expected` of `total` done).
    fn tick(
        &mut self,
        spec: &CampaignSpec,
        cfg: &CampaignConfig,
        g: u64,
        m: &TrialMetrics,
        expected: u64,
        total: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.slots_done += m.telemetry.slots_total();
        if !(expected.is_multiple_of(self.step) || expected == total) {
            return;
        }
        let cell = &spec.cells[(g / cfg.trials_per_cell) as usize];
        let rate = self.slots_done as f64 / self.started.elapsed().as_secs_f64().max(1e-9);
        eprintln!(
            "[rcb] {}: {expected}/{total} trials ({:.0}%) — {}/{} — {:.1}M slots/s",
            spec.name,
            100.0 * expected as f64 / total as f64,
            cell.protocol.name(),
            cell.adversary.name(),
            rate * 1e-6,
        );
    }
}

/// The global trials still to simulate, described per cell rather than
/// listed: replicates `watermarks[c]..trials_per_cell` of every cell `c`,
/// so a resumed cell starts at its watermark. Memory is `O(cells)`: a
/// claim index maps to its global trial arithmetically, so the schedule
/// does not grow with the trial count.
pub(crate) struct TrialSchedule {
    trials_per_cell: u64,
    /// Per cell, the first replicate still to simulate.
    from: Vec<u64>,
    /// Per cell, the claim index of its first scheduled trial; one
    /// trailing entry holds the total trial count.
    first_claim: Vec<u64>,
}

impl TrialSchedule {
    /// Schedule replicates `watermarks[c]..trials_per_cell` of every cell
    /// `c`, in ascending global order.
    pub(crate) fn new(watermarks: &[u64], trials_per_cell: u64) -> Self {
        let mut first_claim = Vec::with_capacity(watermarks.len() + 1);
        let mut claims = 0;
        for &w in watermarks {
            first_claim.push(claims);
            claims += trials_per_cell - w;
        }
        first_claim.push(claims);
        Self {
            trials_per_cell,
            from: watermarks.to_vec(),
            first_claim,
        }
    }

    /// How many trials the schedule holds.
    pub(crate) fn trial_count(&self) -> u64 {
        *self.first_claim.last().expect("a trailing total")
    }

    /// The global trial index of claim `i < trial_count()`.
    pub(crate) fn trial(&self, i: u64) -> u64 {
        // The last cell whose first claim is at or before `i`; cells with
        // nothing scheduled share their successor's first claim and are
        // passed over.
        let c = self.first_claim.partition_point(|&f| f <= i) - 1;
        c as u64 * self.trials_per_cell + self.from[c] + (i - self.first_claim[c])
    }
}

/// Every cell's checkpoint identity key ([`checkpoint_key`]) under `cfg`.
pub(crate) fn cell_keys(spec: &CampaignSpec, cfg: &CampaignConfig) -> Vec<String> {
    spec.cells
        .iter()
        .enumerate()
        .map(|(c, cell)| {
            let max_slots = cfg.max_slots.unwrap_or(cell.max_slots);
            checkpoint_key(&spec.name, cfg.seed, c as u64, cell, max_slots)
        })
        .collect()
}

/// The one owner of a campaign's durable cell state, and the loop that
/// drives its cells (see the module docs).
pub(crate) struct CellKeeper<'a> {
    pub(crate) cfg: CampaignConfig,
    /// Per-cell identity keys ([`cell_keys`], or a shard plan's pinned
    /// copy of them).
    pub(crate) keys: Cow<'a, [String]>,
    /// Where checkpoints live; `None` keeps none.
    pub(crate) state_dir: Option<&'a Path>,
    /// Boundary cadence on a cell's absolute watermark; 0 checkpoints only
    /// at cell completion.
    pub(crate) checkpoint_every: u64,
    pub(crate) store: Option<&'a Store>,
}

/// How [`CellKeeper::drive`] ended.
pub(crate) enum Driven {
    /// Every scheduled trial was simulated and ingested.
    Complete { simulated: u64 },
    /// The kill switch fired after `simulated` trials, right after that
    /// trial's boundary checkpoint (if any) was written.
    Killed { simulated: u64 },
    /// The fence refused: the caller may no longer write this state.
    Fenced,
}

impl CellKeeper<'_> {
    fn max_slots(&self, cell: &CellSpec) -> u64 {
        self.cfg.max_slots.unwrap_or(cell.max_slots)
    }

    /// Cell `c`'s resume point from its validated checkpoint: the
    /// watermark and the state at it, or `(0, empty)` for a fresh cell or
    /// without a state directory.
    pub(crate) fn load(&self, c: usize) -> Result<(u64, CellAccumulator), ServiceError> {
        let n = self.cfg.trials_per_cell;
        let ckpt = match self.state_dir {
            Some(dir) => load_cell_checkpoint(&checkpoint_path(dir, c), &self.keys[c], n)?,
            None => None,
        };
        Ok(ckpt.map_or((0, CellAccumulator::new()), |k| (k.trials_done, k.state)))
    }

    /// Cell `c`'s complete state from the store, if it holds the cell at
    /// this exact trial count.
    pub(crate) fn lookup(
        &self,
        spec: &CampaignSpec,
        c: usize,
    ) -> Result<Option<CellAccumulator>, ServiceError> {
        let Some(store) = self.store else {
            return Ok(None);
        };
        let (cell, n) = (&spec.cells[c], self.cfg.trials_per_cell);
        store.lookup_cell(
            &spec.name,
            self.cfg.seed,
            c as u64,
            cell,
            self.max_slots(cell),
            n,
        )
    }

    /// Write cell `c`'s checkpoint at watermark `trials_done` (a no-op
    /// without a state directory).
    pub(crate) fn checkpoint(
        &self,
        spec: &CampaignSpec,
        c: usize,
        trials_done: u64,
        state: &CellAccumulator,
    ) -> Result<(), ServiceError> {
        let Some(dir) = self.state_dir else {
            return Ok(());
        };
        let ckpt = CellCheckpoint {
            key: self.keys[c].clone(),
            campaign: spec.name.clone(),
            cell_index: c as u64,
            seed: self.cfg.seed,
            trials_done,
            state: state.clone(),
        };
        write_checkpoint(dir, &ckpt)
    }

    /// Publish completed cell `c` to the store (a no-op without one).
    pub(crate) fn publish(
        &self,
        spec: &CampaignSpec,
        c: usize,
        state: &CellAccumulator,
    ) -> Result<(), ServiceError> {
        let Some(store) = self.store else {
            return Ok(());
        };
        let (cell, n) = (&spec.cells[c], self.cfg.trials_per_cell);
        let max_slots = self.max_slots(cell);
        store.insert_cell(
            &spec.name,
            self.cfg.seed,
            c as u64,
            cell,
            max_slots,
            n,
            state,
        )?;
        Ok(())
    }

    /// Simulate replicates `watermarks[c]..trials` of every cell `c` on the
    /// ordered pool and ingest them into `accs`/`watermarks` **strictly in
    /// ascending global-index order** (the positional-aggregation
    /// determinism mechanism — see the module docs).
    ///
    /// After each ingested trial, in order: `fence(boundary)` decides
    /// whether the caller may still write this state (`boundary` says a
    /// checkpoint is due); a boundary — every `checkpoint_every` trials of
    /// the cell's absolute watermark, plus cell completion — writes the
    /// checkpoint; and the kill switch stops the run once `kill_after`
    /// trials have been simulated. Killing after persistence is exactly a
    /// hard kill between two checkpoint writes: whatever was ingested past
    /// the last boundary is lost.
    pub(crate) fn drive(
        &self,
        spec: &CampaignSpec,
        accs: &mut [CellAccumulator],
        watermarks: &mut [u64],
        kill_after: Option<u64>,
        fence: &mut dyn FnMut(bool) -> Result<bool, ServiceError>,
    ) -> Result<Driven, ServiceError> {
        let (cfg, n) = (&self.cfg, self.cfg.trials_per_cell);
        let schedule = TrialSchedule::new(watermarks, n);
        let scheduled = schedule.trial_count();
        let mut progress = Progress::new(cfg.progress, scheduled.max(1));
        let mut simulated = 0;
        let stop = rcb_harness::run_ordered(
            scheduled,
            cfg.threads,
            |i| {
                let ts = trial_spec(spec, cfg, schedule.trial(i));
                let (r, tel) = run_trial_telemetry(&ts, trial_options(cfg));
                TrialMetrics::new(&r, tel)
            },
            |i, m| {
                let g = schedule.trial(i);
                let c = (g / n) as usize;
                accs[c].push(&m);
                watermarks[c] = g % n + 1;
                simulated += 1;
                progress.tick(spec, cfg, g, &m, simulated, scheduled);
                let w = watermarks[c];
                let boundary = w == n
                    || (self.checkpoint_every > 0 && w.is_multiple_of(self.checkpoint_every));
                match fence(boundary) {
                    Ok(true) => {}
                    Ok(false) => return ControlFlow::Break(Ok(Driven::Fenced)),
                    Err(e) => return ControlFlow::Break(Err(e)),
                }
                if boundary {
                    if let Err(e) = self.checkpoint(spec, c, w, &accs[c]) {
                        return ControlFlow::Break(Err(e));
                    }
                }
                if kill_after.is_some_and(|k| simulated >= k) {
                    return ControlFlow::Break(Ok(Driven::Killed { simulated }));
                }
                ControlFlow::Continue(())
            },
        );
        match stop {
            ControlFlow::Break(driven) => driven,
            ControlFlow::Continue(()) => Ok(Driven::Complete { simulated }),
        }
    }
}

/// Assemble the final artifact from the filled per-cell accumulators.
pub(crate) fn assemble_report(
    spec: &CampaignSpec,
    cfg: &CampaignConfig,
    accs: &[CellAccumulator],
) -> CampaignReport {
    CampaignReport {
        campaign: spec.name.clone(),
        description: spec.description.clone(),
        code_version: code_version().to_string(),
        seed: cfg.seed,
        trials_per_cell: cfg.trials_per_cell,
        total_trials: spec.cells.len() as u64 * cfg.trials_per_cell,
        cells: spec
            .cells
            .iter()
            .zip(accs)
            .map(|(cell, acc)| acc.report(cell, cfg.max_slots.unwrap_or(cell.max_slots)))
            .collect(),
    }
}

/// Service features layered over the campaign engine by
/// [`run_campaign_service`]. The default (all `None`/off) is exactly the
/// plain campaign engine — [`run_campaign`] is that default.
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// Directory for per-cell checkpoint files (`rcb run --state-dir`).
    /// `None` disables checkpointing entirely.
    pub state_dir: Option<PathBuf>,
    /// Load checkpoints from `state_dir` before running and continue each
    /// cell from its watermark (`rcb run --resume`). Requires `state_dir`.
    pub resume: bool,
    /// Write a checkpoint every this-many trials of a cell, measured on the
    /// cell's **absolute** watermark — so the set of boundary files on disk
    /// is the same however often the campaign is killed and resumed. 0
    /// checkpoints only at cell completion. Ignored without `state_dir`.
    pub checkpoint_every: u64,
    /// Content-addressed store directory (`rcb run --store`): consulted
    /// per cell before simulating, populated with every cell this run
    /// computes. `None` disables the store.
    pub store_dir: Option<PathBuf>,
    /// Test hook (`rcb run --max-trials-then-exit N`): stop ingesting after
    /// `N` newly simulated trials and return [`ServiceRun::Killed`] without
    /// assembling an artifact — a deterministic stand-in for `kill -9` that
    /// leaves exactly the on-disk state a real kill would.
    pub kill_after_trials: Option<u64>,
}

/// Validate a [`ServiceConfig`] assembled from CLI flags before any work
/// happens, so flag misuse fails fast with `flag: message` context instead
/// of panicking or silently defaulting.
///
/// `explicit_checkpoint_every` is the value of `--checkpoint-every` **iff
/// the user typed the flag**: an explicit `0` is rejected (it would silently
/// mean "completion-only", almost certainly not what was asked for) and an
/// explicit value without `--state-dir` is rejected (it would silently be
/// ignored). The programmatic default — `checkpoint_every: 0`, no flag —
/// stays legal.
///
/// # Errors
/// Returns a [`ServiceError`] whose message begins with the offending flag.
pub fn validate_service_flags(
    svc: &ServiceConfig,
    explicit_checkpoint_every: Option<u64>,
) -> Result<(), ServiceError> {
    if svc.resume && svc.state_dir.is_none() {
        return Err(ServiceError::msg(
            "--resume: requires --state-dir (there is no checkpoint directory to resume from)",
        ));
    }
    if let Some(every) = explicit_checkpoint_every {
        if every == 0 {
            return Err(ServiceError::msg(
                "--checkpoint-every: must be at least 1; omit the flag to checkpoint only at \
                 cell completion",
            ));
        }
        if svc.state_dir.is_none() {
            return Err(ServiceError::msg(
                "--checkpoint-every: requires --state-dir (checkpoints need a directory to \
                 land in)",
            ));
        }
    }
    if svc.kill_after_trials == Some(0) {
        return Err(ServiceError::msg(
            "--max-trials-then-exit: must be at least 1 (the hook fires after a trial is \
             ingested, so 0 can never trigger)",
        ));
    }
    Ok(())
}

/// Outcome of [`run_campaign_service`].
#[derive(Debug)]
pub enum ServiceRun {
    /// The campaign ran (or resumed) to completion.
    Complete {
        /// The assembled artifact — byte-identical to an uninterrupted
        /// single-shot run of the same `(spec, cfg)`.
        report: CampaignReport,
        /// Cells served whole from the content-addressed store.
        store_hits: u64,
        /// Trials restored from checkpoint watermarks instead of re-run.
        resumed_trials: u64,
        /// Trials actually simulated by this invocation.
        simulated_trials: u64,
    },
    /// The kill hook fired: the process state is exactly what a hard kill
    /// at that point would leave — boundary checkpoints on disk, no
    /// artifact.
    Killed {
        /// Trials simulated before the hook fired.
        simulated_trials: u64,
    },
}

/// Run a campaign with checkpointing, resume, and the content-addressed
/// store — the engine behind `rcb run`'s service flags. With the default
/// [`ServiceConfig`] this is exactly [`run_campaign`].
///
/// Per cell, in order: a warm store entry (same content key, same trial
/// count) preloads the full accumulator — zero simulation; otherwise a
/// valid checkpoint (under `resume`) preloads the accumulator at its
/// watermark and only replicates `watermark..trials` are scheduled; fresh
/// cells run whole. However a cell's state was obtained, the artifact
/// assembled at the end is byte-identical to an uninterrupted run's.
///
/// # Errors
/// Flag misuse, as [`validate_service_flags`] words it. Any
/// checkpoint/store file that is unreadable, corrupt (checksum),
/// truncated, from a different schema version, or inconsistent with the
/// requested campaign is a [`ServiceError`] naming the file — never a
/// panic, never a silent recompute-from-zero.
///
/// # Panics
/// Panics if the spec has no cells or `trials_per_cell` is 0.
pub fn run_campaign_service(
    spec: &CampaignSpec,
    cfg: &CampaignConfig,
    svc: &ServiceConfig,
) -> Result<ServiceRun, ServiceError> {
    assert!(!spec.cells.is_empty(), "campaign has no cells");
    assert!(cfg.trials_per_cell > 0, "campaign needs at least one trial");
    validate_service_flags(svc, None)?;
    let n = cfg.trials_per_cell;
    let store = svc.store_dir.as_deref().map(Store::new);
    let keeper = CellKeeper {
        cfg: cfg.clone(),
        keys: Cow::Owned(cell_keys(spec, cfg)),
        state_dir: svc.state_dir.as_deref(),
        checkpoint_every: svc.checkpoint_every,
        store: store.as_ref(),
    };

    let mut accs: Vec<CellAccumulator> =
        spec.cells.iter().map(|_| CellAccumulator::new()).collect();
    // Trials already ingested per cell (0 = fresh).
    let mut watermarks: Vec<u64> = vec![0; spec.cells.len()];
    let mut from_store: Vec<bool> = vec![false; spec.cells.len()];
    let mut store_hits = 0u64;
    let mut resumed_trials = 0u64;

    for c in 0..spec.cells.len() {
        // Warm store first: a hit covers the whole cell at this exact
        // trial count, so neither simulation nor checkpoints are needed.
        if let Some(state) = keeper.lookup(spec, c)? {
            accs[c] = state;
            watermarks[c] = n;
            from_store[c] = true;
            store_hits += 1;
        } else if svc.resume {
            (watermarks[c], accs[c]) = keeper.load(c)?;
            resumed_trials += watermarks[c];
        }
    }

    let simulated = match keeper.drive(
        spec,
        &mut accs,
        &mut watermarks,
        svc.kill_after_trials,
        &mut |_| Ok(true),
    )? {
        Driven::Complete { simulated } => simulated,
        Driven::Killed { simulated } => {
            return Ok(ServiceRun::Killed {
                simulated_trials: simulated,
            })
        }
        Driven::Fenced => unreachable!("the service's fence always passes"),
    };

    // Populate the store with every cell this run computed (cells served
    // *from* the store are already there).
    for c in (0..spec.cells.len()).filter(|&c| !from_store[c]) {
        keeper.publish(spec, c, &accs[c])?;
    }

    Ok(ServiceRun::Complete {
        report: assemble_report(spec, cfg, &accs),
        store_hits,
        resumed_trials,
        simulated_trials: simulated,
    })
}

/// Run a campaign: every cell × `trials_per_cell` seeds, aggregated
/// streamingly. See the module docs for the determinism argument. This is
/// [`run_campaign_service`] with every service feature off — no state
/// directory, no store, no kill hook — which is also why it cannot fail.
///
/// # Panics
/// Panics if the spec has no cells or `trials_per_cell` is 0.
pub fn run_campaign(spec: &CampaignSpec, cfg: &CampaignConfig) -> CampaignReport {
    match run_campaign_service(spec, cfg, &ServiceConfig::default()) {
        Ok(ServiceRun::Complete { report, .. }) => report,
        Ok(ServiceRun::Killed { .. }) => {
            unreachable!("the default service config has no kill hook")
        }
        Err(e) => unreachable!("the default service config does no file I/O: {e}"),
    }
}

/// Run a campaign sequentially while streaming a structured JSONL trace of
/// every trial into `sink` (`rcb run --trace-out`). See
/// [`crate::tracefile`] for the line schema.
///
/// Trials run in global-index order on the calling thread — trace lines
/// interleave per-trial events, so deterministic ordering requires a single
/// writer. The returned report is byte-identical to [`run_campaign`]'s for
/// the same config: tracing mounts an extra observer, and observers cannot
/// influence a run.
///
/// # Errors
/// Returns the first I/O error the sink raised; the campaign stops at the
/// trial that hit it.
///
/// # Panics
/// Panics if the spec has no cells or `trials_per_cell` is 0.
pub fn run_campaign_traced(
    spec: &CampaignSpec,
    cfg: &CampaignConfig,
    sink: &mut dyn std::io::Write,
) -> std::io::Result<CampaignReport> {
    assert!(!spec.cells.is_empty(), "campaign has no cells");
    assert!(cfg.trials_per_cell > 0, "campaign needs at least one trial");
    let total = spec.cells.len() as u64 * cfg.trials_per_cell;

    let mut accs: Vec<CellAccumulator> =
        spec.cells.iter().map(|_| CellAccumulator::new()).collect();
    let mut writer = TraceWriter::new(sink);
    writer.header(&spec.name, cfg.seed, cfg.trials_per_cell, total);

    let mut progress = Progress::new(cfg.progress, total);
    for g in 0..total {
        let ts = trial_spec(spec, cfg, g);
        writer.trial_start(g, g / cfg.trials_per_cell, ts.seed);
        let (r, tel) = {
            let mut obs = TrialTraceObserver::new(&mut writer, g);
            let mut opts = trial_options(cfg);
            opts.observer = Some(&mut obs);
            run_trial_telemetry(&ts, opts)
        };
        writer.trial_end(g, &r);
        writer.check()?;
        let m = TrialMetrics::new(&r, tel);
        accs[(g / cfg.trials_per_cell) as usize].push(&m);
        progress.tick(spec, cfg, g, &m, g + 1, total);
    }
    writer.finish()?;

    Ok(assemble_report(spec, cfg, &accs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_harness::{AdversaryKind, ProtocolKind};

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            description: "test".into(),
            cells: vec![
                CellSpec::new(
                    ProtocolKind::Naive {
                        n: 16,
                        act_prob: 1.0,
                    },
                    AdversaryKind::Silent,
                )
                .with_max_slots(100_000),
                CellSpec::new(
                    ProtocolKind::Naive {
                        n: 16,
                        act_prob: 1.0,
                    },
                    AdversaryKind::Uniform { t: 500, frac: 0.5 },
                )
                .with_max_slots(100_000),
            ],
        }
    }

    /// The trial list the engine scheduled from before the compact
    /// [`TrialSchedule`]: every global trial still to simulate, in order.
    fn trial_list(watermarks: &[u64], n: u64) -> Vec<u64> {
        let mut list = Vec::new();
        for (c, &w) in watermarks.iter().enumerate() {
            for t in w..n {
                list.push(c as u64 * n + t);
            }
        }
        list
    }

    #[test]
    fn compact_schedule_yields_the_block_list() {
        let mut rng = rcb_sim::Xoshiro256::seeded(0x5C4E);
        for _ in 0..400 {
            let n = 1 + rng.gen_range(40);
            let cells = 1 + rng.gen_range(6) as usize;
            // Watermarks anywhere in 0..=n, with fresh and finished cells
            // over-represented.
            let watermarks: Vec<u64> = (0..cells)
                .map(|_| match rng.gen_range(4) {
                    0 => 0,
                    1 => n,
                    _ => rng.gen_range(n + 1),
                })
                .collect();
            let want = trial_list(&watermarks, n);
            let schedule = TrialSchedule::new(&watermarks, n);
            let got: Vec<u64> = (0..schedule.trial_count())
                .map(|i| schedule.trial(i))
                .collect();
            assert_eq!(got, want, "n {n}, watermarks {watermarks:?}");
        }
    }

    #[test]
    fn service_flag_misuse_is_rejected_with_flag_context() {
        // --resume without --state-dir.
        let svc = ServiceConfig {
            resume: true,
            ..Default::default()
        };
        let err = validate_service_flags(&svc, None).expect_err("resume without state dir");
        assert!(
            err.to_string().starts_with("--resume:"),
            "missing flag context: {err}"
        );

        // Explicit --checkpoint-every 0.
        let svc = ServiceConfig {
            state_dir: Some(PathBuf::from("/tmp/x")),
            ..Default::default()
        };
        let err = validate_service_flags(&svc, Some(0)).expect_err("checkpoint-every 0");
        assert!(
            err.to_string().starts_with("--checkpoint-every:"),
            "missing flag context: {err}"
        );

        // Explicit --checkpoint-every without --state-dir would be silently
        // ignored; that is an error too.
        let err = validate_service_flags(&ServiceConfig::default(), Some(2))
            .expect_err("checkpoint-every without state dir");
        assert!(
            err.to_string().starts_with("--checkpoint-every:"),
            "missing flag context: {err}"
        );

        // --max-trials-then-exit 0 can never fire.
        let svc = ServiceConfig {
            kill_after_trials: Some(0),
            ..Default::default()
        };
        let err = validate_service_flags(&svc, None).expect_err("kill after 0");
        assert!(
            err.to_string().starts_with("--max-trials-then-exit:"),
            "missing flag context: {err}"
        );

        // The library entry point runs the same check, in the same words.
        let svc = ServiceConfig {
            resume: true,
            ..Default::default()
        };
        let err = run_campaign_service(&tiny_spec(), &CampaignConfig::default(), &svc)
            .expect_err("library resume without state dir");
        assert!(
            err.to_string().starts_with("--resume:"),
            "missing flag context: {err}"
        );

        // The programmatic default (checkpoint_every 0, no explicit flag)
        // stays legal, as does a well-formed service config.
        validate_service_flags(&ServiceConfig::default(), None).expect("default config");
        let svc = ServiceConfig {
            state_dir: Some(PathBuf::from("/tmp/x")),
            resume: true,
            checkpoint_every: 2,
            kill_after_trials: Some(5),
            ..Default::default()
        };
        validate_service_flags(&svc, Some(2)).expect("well-formed config");
    }

    #[test]
    fn campaign_aggregates_every_trial() {
        let report = run_campaign(
            &tiny_spec(),
            &CampaignConfig {
                seed: 7,
                trials_per_cell: 10,
                threads: 2,
                ..Default::default()
            },
        );
        assert_eq!(report.total_trials, 20);
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert_eq!(cell.trials, 10);
            assert_eq!(cell.completed, 10, "naive epidemic always completes");
            assert_eq!(cell.safety_violations, 0);
            assert_eq!(cell.completion_slots.count, 10);
            assert!(cell.completion_slots.mean > 0.0);
            assert!(cell.completion_slots.min <= cell.completion_slots.p50);
            assert!(cell.completion_slots.p50 <= cell.completion_slots.max * 1.02);
        }
        // The jammed cell can only be slower on average.
        assert!(
            report.cells[1].completion_slots.mean >= report.cells[0].completion_slots.mean * 0.5
        );
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let spec = tiny_spec();
        let run = |threads| {
            run_campaign(
                &spec,
                &CampaignConfig {
                    seed: 42,
                    trials_per_cell: 16,
                    threads,
                    ..Default::default()
                },
            )
            .to_json()
        };
        let one = run(1);
        assert_eq!(one, run(4), "1 vs 4 threads");
        assert_eq!(one, run(8), "1 vs 8 threads");
    }

    #[test]
    fn different_seeds_differ() {
        let spec = tiny_spec();
        let run = |seed| {
            run_campaign(
                &spec,
                &CampaignConfig {
                    seed,
                    trials_per_cell: 8,
                    threads: 2,
                    ..Default::default()
                },
            )
            .to_json()
        };
        assert_ne!(run(1), run(2));
    }

    fn crash_spec() -> CampaignSpec {
        use rcb_harness::{ScheduleEventKind, ScheduleSpec};
        CampaignSpec {
            name: "sched".into(),
            description: "crash two nodes at slot 0".into(),
            cells: vec![CellSpec::new(
                ProtocolKind::Naive {
                    n: 16,
                    act_prob: 1.0,
                },
                AdversaryKind::Silent,
            )
            .with_schedule(ScheduleSpec::new().at(
                0,
                ScheduleEventKind::CrashNodes {
                    nodes: vec![14, 15],
                },
            ))
            .with_max_slots(100_000)],
        }
    }

    #[test]
    fn scheduled_cell_reports_the_schedule_block() {
        let report = run_campaign(
            &crash_spec(),
            &CampaignConfig {
                seed: 3,
                trials_per_cell: 6,
                threads: 2,
                ..Default::default()
            },
        );
        let cell = &report.cells[0];
        let sched = cell.schedule.as_ref().expect("scheduled cell");
        assert_eq!(sched.events, 1);
        assert_eq!(sched.kinds, vec!["crash".to_string()]);
        assert_eq!(sched.detail, "crash@0");
        assert_eq!(sched.timeline[0].applied_trials, 6);
        assert_eq!(sched.timeline[0].applied_at_min, 0);
        assert_eq!(sched.timeline[0].applied_at_max, 0);
        assert_eq!(sched.crashed.mean, 2.0);
        assert_eq!(sched.survivors.mean, 14.0);
        assert_eq!(sched.survivors_informed.mean, 14.0);
        assert_eq!(sched.schedule_events, 6, "one boundary per trial");
        assert!(sched.crashed_node_slots > 0);
        // Survivor-relative verdict: the 14 live nodes all get informed, so
        // the cell completes even though the crashed pair never hears.
        assert_eq!(cell.completed, 6);
        assert_eq!(cell.all_informed, 0);
        assert_eq!(cell.safety_violations, 0);
        // The JSON carries the conditional block.
        assert!(report.to_json().contains("\"schedule\""));
    }

    #[test]
    fn unscheduled_cells_never_grow_a_schedule_block() {
        let report = run_campaign(
            &tiny_spec(),
            &CampaignConfig {
                seed: 5,
                trials_per_cell: 4,
                threads: 2,
                ..Default::default()
            },
        );
        assert!(report.cells.iter().all(|c| c.schedule.is_none()));
        assert!(!report.to_json().contains("\"schedule\""));
    }

    #[test]
    fn thread_count_does_not_change_a_scheduled_report() {
        let spec = crash_spec();
        let run = |threads| {
            run_campaign(
                &spec,
                &CampaignConfig {
                    seed: 11,
                    trials_per_cell: 12,
                    threads,
                    ..Default::default()
                },
            )
            .to_json()
        };
        let one = run(1);
        assert_eq!(one, run(4), "1 vs 4 threads");
    }

    #[test]
    #[should_panic(expected = "no cells")]
    fn empty_campaign_panics() {
        let spec = CampaignSpec {
            name: "x".into(),
            description: String::new(),
            cells: vec![],
        };
        run_campaign(&spec, &CampaignConfig::default());
    }
}
