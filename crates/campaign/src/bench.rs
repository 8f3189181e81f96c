//! `rcb bench` — engine throughput measurement over the scenario catalog.
//!
//! Criterion is unavailable offline, so this module is the repo's
//! performance trajectory: for every cell of the selected scenarios it runs
//! a few single-threaded trials through the production engine and records
//! **slots/sec** and wall time, optionally alongside the slot-by-slot
//! reference engine (`fast_forward: false`) so each artifact carries its own
//! fast-forward speedup column.
//!
//! The artifact (`rcb bench --out BENCH_engine.json`) is schema-versioned
//! like campaign reports. Two kinds of fields coexist deliberately:
//!
//! * **Deterministic** fields (`trials`, `slots_total`) are pure functions
//!   of `(scenario, seed, trials, max-slots)` — identical on any host; the
//!   CI `rcb diff` gate compares them tightly.
//! * **Timing** fields (`wall_s`, `slots_per_sec`, `speedup`) depend on the
//!   host; gates should pass them through `--ignore` or use a generous
//!   threshold.
//!
//! Measurements are single-threaded on purpose: the engine's per-core
//! throughput is the quantity the fast-forward work optimizes, and thread
//! scaling is the campaign engine's (already measured) job.

use crate::checkpoint::{fnv1a64, FNV_BASIS};
use crate::json::Json;
use crate::report::{code_version, perf_json};
use crate::scenario::Scenario;
use rcb_harness::{run_trial_telemetry, TrialOptions, TrialSpec};
use rcb_sim::{derive_seed, EngineConfig, EngineTelemetry};
use rcb_stats::Table;
use std::time::Instant;

/// Version of the bench artifact schema. History:
///
/// * **1** — initial schema: header + per-scenario cell list with
///   deterministic slot totals and host-dependent throughput fields.
/// * **2** — per-cell `topology` (the connectivity graph the cell's trials
///   run over; `"complete"` is the single-hop model).
/// * **3** — header `code_version` and per-cell `perf` block (the
///   campaign artifact's, rendered by the same `perf_json`): telemetry
///   counters merged over the fast-engine trials; its wall leaves mirror
///   the cell's measured timing.
/// * **4** — cells that run under a world schedule (the `nemesis`
///   scenario) carry a `schedule` string leaf (the event list); the leaf is
///   omitted on unscheduled cells, so pre-existing cells render
///   byte-identically to v3.
/// * **5** — measurement floor and batch lane. Per-cell `repeats` /
///   `ref_repeats` (timing-class: how many passes the wall-clock floor
///   required — tiny cells repeat until [`BenchConfig::min_wall_s`] of work
///   is measured, so `speedup` is no longer dominated by sub-millisecond
///   noise), `perf.ff_gated_segments`, and a per-cell `batch` block timing
///   the trial-batched lane. Every timing leaf is the *minimum* over the
///   floor's passes, after one untimed warm-up pass — noise on a
///   deterministic workload is strictly additive, so the minimum is the
///   stable estimator.
/// * **6** — the `batch` block is gone with the trial-batched lane; every
///   other leaf is unchanged from v5.
pub const BENCH_SCHEMA_VERSION: u64 = 6;

/// How a bench run executes.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Master seed; trial seeds derive positionally from it.
    pub seed: u64,
    /// Trials per cell (sequential, single-threaded).
    pub trials_per_cell: u64,
    /// Override every cell's engine slot cap (None = the cell's own).
    pub max_slots: Option<u64>,
    /// Also time the slot-by-slot reference engine for a speedup column.
    pub reference: bool,
    /// Minimum measured wall-clock per engine per cell, in seconds. Cells
    /// whose trial set finishes faster are re-run (timing-only repeats of
    /// the same deterministic passes) until the floor is met, so the
    /// committed `speedup` leaves of microsecond-scale cells are stable
    /// run-to-run instead of timing-noise lotteries.
    pub min_wall_s: f64,
    /// Print progress lines to stderr.
    pub progress: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            trials_per_cell: 3,
            max_slots: None,
            reference: true,
            min_wall_s: 0.2,
            progress: false,
        }
    }
}

impl BenchConfig {
    /// The CI smoke preset: one trial per cell, capped workloads.
    pub fn quick() -> Self {
        Self {
            trials_per_cell: 1,
            max_slots: Some(2_000_000),
            ..Self::default()
        }
    }
}

/// Throughput measurement for one campaign cell.
#[derive(Clone, Debug)]
pub struct CellBench {
    pub protocol: String,
    pub adversary: String,
    /// Connectivity topology (`"complete"` = single-hop).
    pub topology: String,
    pub n: u64,
    pub budget: u64,
    pub trials: u64,
    /// Total physical slots simulated across the cell's trials
    /// (deterministic for a given seed).
    pub slots_total: u64,
    /// Timing passes the wall-clock floor required for the fast engine
    /// (1 when a single pass already met [`BenchConfig::min_wall_s`]).
    /// Host-dependent, like every wall leaf.
    pub repeats: u64,
    /// Best (minimum) wall seconds of one timed pass over the cell's
    /// trials, after an untimed warm-up pass.
    pub wall_s: f64,
    pub slots_per_sec: f64,
    /// Reference (fast-forward off) timings, when measured. The reference
    /// slot total can differ for distribution-equivalent adversaries
    /// (Gilbert–Elliott), so it is timed against its own slot count.
    pub ref_repeats: Option<u64>,
    pub ref_wall_s: Option<f64>,
    pub ref_slots_per_sec: Option<f64>,
    /// Fast-vs-reference throughput ratio, estimated as the median of
    /// per-pair ratios over interleaved fast/reference passes (so shared
    /// host noise divides out of each pair); close to, but deliberately not
    /// defined as, `slots_per_sec / ref_slots_per_sec`, whose two minima
    /// sample different moments.
    pub speedup: Option<f64>,
    /// Engine telemetry merged over the fast-engine trials, rendered as the
    /// `perf` block (schema v3). Counter leaves are deterministic; the wall
    /// leaves repeat the cell's measured `wall_s` / `slots_per_sec` (phase
    /// leaves stay zero — bench does not enable per-phase timing, to keep
    /// the measured loop clean).
    pub perf: EngineTelemetry,
    /// World-schedule event list (`"crash@64"`) for scheduled cells; `None`
    /// — and absent from the JSON — otherwise (schema v4).
    pub schedule: Option<String>,
}

/// Serialize a throughput *ratio* at measurement resolution. Pass-to-pass
/// noise on a shared host is ±1% on a good day, so a ratio leaf carrying
/// ten digits is false precision — and lets a cell whose true ratio is 1.0
/// commit as `0.9973…` in one run and `1.0041…` in the next. Two decimals
/// is what the measurement actually resolves.
fn ratio_json(r: f64) -> Json {
    ((r * 100.0).round() / 100.0).into()
}

impl CellBench {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("protocol", Json::from(self.protocol.as_str())),
            ("adversary", self.adversary.as_str().into()),
            ("topology", self.topology.as_str().into()),
            ("n", self.n.into()),
            ("budget", self.budget.into()),
            ("trials", self.trials.into()),
            ("slots_total", self.slots_total.into()),
            ("repeats", self.repeats.into()),
            ("wall_s", self.wall_s.into()),
            ("slots_per_sec", self.slots_per_sec.into()),
        ];
        if let (Some(rr), Some(w), Some(r), Some(s)) = (
            self.ref_repeats,
            self.ref_wall_s,
            self.ref_slots_per_sec,
            self.speedup,
        ) {
            fields.push(("ref_repeats", rr.into()));
            fields.push(("ref_wall_s", w.into()));
            fields.push(("ref_slots_per_sec", r.into()));
            fields.push(("speedup", ratio_json(s)));
        }
        fields.push(("perf", perf_json(&self.perf, self.wall_s)));
        if let Some(sched) = &self.schedule {
            fields.push(("schedule", sched.as_str().into()));
        }
        Json::obj(fields)
    }
}

/// All cell measurements of one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioBench {
    pub scenario: String,
    pub cells: Vec<CellBench>,
}

/// The full bench artifact.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Git revision of the producing binary (see [`code_version`]).
    pub code_version: String,
    pub seed: u64,
    pub trials_per_cell: u64,
    pub max_slots: Option<u64>,
    pub scenarios: Vec<ScenarioBench>,
}

impl BenchReport {
    /// Serialize as the schema-versioned JSON artifact.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("schema_version", BENCH_SCHEMA_VERSION.into()),
            ("kind", "rcb-bench-report".into()),
            ("code_version", self.code_version.as_str().into()),
            ("seed", self.seed.into()),
            ("trials_per_cell", self.trials_per_cell.into()),
            (
                "max_slots",
                self.max_slots.map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "scenarios",
                Json::arr(
                    self.scenarios
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("scenario", s.scenario.as_str().into()),
                                (
                                    "cells",
                                    Json::arr(s.cells.iter().map(CellBench::to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }

    /// Render the human-facing throughput table.
    pub fn to_table(&self) -> String {
        let mut table = Table::new(&[
            "scenario",
            "protocol",
            "adversary",
            "topo",
            "n",
            "T",
            "slots",
            "wall",
            "Mslots/s",
            "ref Mslots/s",
            "speedup",
        ]);
        for s in &self.scenarios {
            for c in &s.cells {
                table.row(&[
                    s.scenario.clone(),
                    c.protocol.clone(),
                    c.adversary.clone(),
                    c.topology.clone(),
                    c.n.to_string(),
                    c.budget.to_string(),
                    c.slots_total.to_string(),
                    format!("{:.2}s", c.wall_s),
                    format!("{:.1}", c.slots_per_sec / 1e6),
                    c.ref_slots_per_sec
                        .map(|r| format!("{:.1}", r / 1e6))
                        .unwrap_or_else(|| "-".into()),
                    c.speedup
                        .map(|s| format!("{s:.1}x"))
                        .unwrap_or_else(|| "-".into()),
                ]);
            }
        }
        format!(
            "# bench — seed {}, {} trials/cell (single-threaded)\n\n{}",
            self.seed,
            self.trials_per_cell,
            table.markdown()
        )
    }
}

/// The engine master seed bench uses for `trial` of cell `ci` of a named
/// scenario. Shared with `rcb profile` so a profile reproduces exactly the
/// trials a bench artifact measured. The scenario enters through the
/// FNV-1a hash of its name, not its catalog position, so seeds are a pure
/// function of `(bench seed, scenario, cell index, trial)` — benching a
/// subset of scenarios reproduces exactly the cells the full catalog run
/// produced.
pub(crate) fn bench_trial_seed(bench_seed: u64, scenario_name: &str, ci: usize, trial: u64) -> u64 {
    let name_stream = fnv1a64(scenario_name.as_bytes(), FNV_BASIS);
    let scenario_seed = derive_seed(bench_seed, name_stream);
    derive_seed(scenario_seed, ((ci as u64) << 32) | trial)
}

/// Upper bound on wall-clock floor repeats, so a pathological floor cannot
/// spin a cell forever.
const MAX_FLOOR_REPEATS: u64 = 100_000;

/// Minimum timed passes per engine, even when a single pass already meets
/// the wall-clock floor: a one-sample speedup estimate on a multi-second
/// cell still swings ±2–3% on a shared host, which is enough to flip a
/// near-1 cell across the 1.0 line.
const MIN_TIMED_PASSES: u64 = 3;

/// One engine's share of a paired measurement: deterministic slot total,
/// best (minimum) timed-pass wall, and how many timed passes ran.
struct EngineTiming {
    slots_total: u64,
    wall_s: f64,
    repeats: u64,
}

/// Time the fast engine — and, when given, the slot-by-slot reference — over
/// a cell's trials with *interleaved* passes. Each engine gets one untimed
/// warm-up pass (the fast warm-up collects the telemetry), then the floor
/// loop alternates fast and reference passes until each has `min_wall_s` of
/// measured work and [`MIN_TIMED_PASSES`] passes, reporting each engine's
/// minimum pass wall plus a paired `speedup` estimate.
///
/// Interleaving matters for `speedup`: timing one engine to completion and
/// then the other lets slow drift in the host's clock rate or neighbor load
/// land entirely on one side and push near-1 cells across the 1.0 line
/// run-to-run. Adjacent passes sample the same host conditions, so the
/// common noise divides out of each pair's wall ratio; the reported speedup
/// is the median of the per-pair ratios (slot-count-normalized, since
/// distribution-equivalent adversaries can give the reference a different
/// deterministic slot total), which is robust to the occasional preempted
/// pass in a way no ratio of independent aggregates is.
fn time_cell_pair(
    specs: &[TrialSpec],
    fast: &EngineConfig,
    reference: Option<&EngineConfig>,
    min_wall_s: f64,
) -> (EngineTiming, EngineTelemetry, Option<(EngineTiming, f64)>) {
    let one_pass = |engine: &EngineConfig, collect: bool| -> (u64, f64, EngineTelemetry) {
        let start = Instant::now();
        let mut slots_total = 0u64;
        let mut tel = EngineTelemetry::default();
        for spec in specs {
            let (r, t) = run_trial_telemetry(spec, TrialOptions::with_engine(*engine));
            slots_total += r.slots;
            if collect {
                tel.merge(&t);
            }
        }
        (slots_total, start.elapsed().as_secs_f64(), tel)
    };
    let (fast_slots, _warmup, tel) = one_pass(fast, true);
    let ref_slots = reference.map(|r| one_pass(r, false).0);

    let mut f = EngineTiming {
        slots_total: fast_slots,
        wall_s: f64::INFINITY,
        repeats: 0,
    };
    let mut r = ref_slots.map(|slots_total| EngineTiming {
        slots_total,
        wall_s: f64::INFINITY,
        repeats: 0,
    });
    let mut f_total = 0.0;
    let mut r_total = 0.0;
    let mut pair_ratios: Vec<f64> = Vec::new();
    loop {
        let fast_wall = one_pass(fast, false).1;
        f.wall_s = f.wall_s.min(fast_wall);
        f_total += fast_wall;
        f.repeats += 1;
        if let (Some(engine), Some(rt)) = (reference, r.as_mut()) {
            let ref_wall = one_pass(engine, false).1;
            rt.wall_s = rt.wall_s.min(ref_wall);
            r_total += ref_wall;
            rt.repeats += 1;
            // Per-pair fast-vs-reference throughput ratio.
            pair_ratios.push(
                (f.slots_total as f64 / fast_wall.max(1e-9))
                    / (rt.slots_total as f64 / ref_wall.max(1e-9)),
            );
        }
        let floored = |total: f64, reps: u64| {
            (total >= min_wall_s && reps >= MIN_TIMED_PASSES) || reps >= MAX_FLOOR_REPEATS
        };
        let f_done = floored(f_total, f.repeats);
        let r_done = r.as_ref().is_none_or(|rt| floored(r_total, rt.repeats));
        if f_done && r_done {
            break;
        }
    }
    pair_ratios.sort_by(|a, b| a.total_cmp(b));
    let speedup = pair_ratios.get(pair_ratios.len() / 2).copied();
    (f, tel, r.zip(speedup))
}

/// Run the bench over the given catalog entries.
///
/// # Panics
/// Panics if `scenarios` is empty or `trials_per_cell` is 0.
pub fn run_bench(scenarios: &[Scenario], cfg: &BenchConfig) -> BenchReport {
    assert!(!scenarios.is_empty(), "bench needs at least one scenario");
    assert!(cfg.trials_per_cell > 0, "bench needs at least one trial");
    let fast = EngineConfig::default();
    let reference = EngineConfig {
        fast_forward: false,
        ..EngineConfig::default()
    };
    let mut out = Vec::new();
    for scenario in scenarios {
        let spec = scenario.spec();
        let mut cells = Vec::new();
        for (ci, cell) in spec.cells.iter().enumerate() {
            let specs: Vec<TrialSpec> = (0..cfg.trials_per_cell)
                .map(|trial| {
                    cell.trial_spec(
                        bench_trial_seed(cfg.seed, &spec.name, ci, trial),
                        cfg.max_slots.unwrap_or(cell.max_slots),
                    )
                })
                .collect();
            let (ft, tel, rt) = time_cell_pair(
                &specs,
                &fast,
                cfg.reference.then_some(&reference),
                cfg.min_wall_s,
            );
            let (slots_total, wall_s, repeats) = (ft.slots_total, ft.wall_s, ft.repeats);
            let (ref_wall, ref_repeats) = (
                rt.as_ref().map(|(t, _)| t.wall_s),
                rt.as_ref().map(|(t, _)| t.repeats),
            );
            let slots_per_sec = slots_total as f64 / wall_s.max(1e-9);
            let ref_slots_per_sec = rt
                .as_ref()
                .map(|(t, _)| t.slots_total as f64 / t.wall_s.max(1e-9));
            // When the heuristic gate declines every segment the fast engine
            // runs the identical plain slot loop as the reference (the gate
            // check itself is a per-segment constant), so the true ratio is
            // 1 by construction — serialize it as such instead of reporting
            // host timing noise as a regression.
            let speedup = rt.as_ref().map(|(_, s)| {
                if tel.slots_fast_forwarded == 0 {
                    1.0
                } else {
                    *s
                }
            });
            if cfg.progress {
                eprintln!(
                    "[rcb bench] {} cell {}/{}: {:.1}M slots/s{}",
                    spec.name,
                    ci + 1,
                    spec.cells.len(),
                    slots_per_sec / 1e6,
                    ref_slots_per_sec
                        .map(|r| format!(" ({:.1}x vs reference)", slots_per_sec / r))
                        .unwrap_or_default(),
                );
            }
            cells.push(CellBench {
                protocol: cell.protocol.name().to_string(),
                adversary: cell.adversary.name().to_string(),
                topology: cell.topology.name().to_string(),
                n: cell.protocol.n(),
                budget: cell.adversary.budget(),
                trials: cfg.trials_per_cell,
                slots_total,
                repeats,
                wall_s,
                slots_per_sec,
                ref_repeats,
                ref_wall_s: ref_wall,
                ref_slots_per_sec,
                speedup,
                perf: tel,
                schedule: (!cell.schedule.is_empty()).then(|| cell.schedule.detail()),
            });
        }
        out.push(ScenarioBench {
            scenario: spec.name,
            cells,
        });
    }
    BenchReport {
        code_version: code_version().to_string(),
        seed: cfg.seed,
        trials_per_cell: cfg.trials_per_cell,
        max_slots: cfg.max_slots,
        scenarios: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::find;
    use crate::Json;

    fn tiny_bench() -> BenchReport {
        let cfg = BenchConfig {
            trials_per_cell: 1,
            max_slots: Some(30_000),
            reference: true,
            ..BenchConfig::default()
        };
        run_bench(&[find("epidemic-race").expect("catalog entry")], &cfg)
    }

    #[test]
    fn bench_measures_every_cell_with_reference() {
        let report = tiny_bench();
        assert_eq!(report.scenarios.len(), 1);
        let cells = &report.scenarios[0].cells;
        assert_eq!(cells.len(), 8, "epidemic-race has 8 cells");
        for c in cells {
            assert!(c.slots_total > 0, "{c:?}");
            assert!(c.slots_per_sec > 0.0);
            assert!(c.ref_slots_per_sec.unwrap() > 0.0);
            assert!(c.speedup.unwrap() > 0.0);
            // The perf counters must agree with the cell's own totals, and
            // the block's wall leaves repeat the cell's measured timing.
            assert_eq!(c.perf.slots_total(), c.slots_total, "{c:?}");
            let block = c.to_json();
            let leaf = |key: &str| block.at_path(&format!("perf.{key}")).cloned();
            assert_eq!(leaf("slots_total"), Some(c.slots_total.into()));
            assert_eq!(leaf("wall_s"), Some(c.wall_s.into()));
            assert!(c.wall_s > 0.0);
            assert_eq!(leaf("slots_per_sec"), Some(c.slots_per_sec.into()));
        }
    }

    #[test]
    fn bench_slot_totals_are_seed_deterministic() {
        let totals = |seed: u64| -> Vec<u64> {
            let cfg = BenchConfig {
                seed,
                trials_per_cell: 1,
                max_slots: Some(30_000),
                reference: false,
                ..BenchConfig::default()
            };
            run_bench(&[find("epidemic-race").expect("entry")], &cfg).scenarios[0]
                .cells
                .iter()
                .map(|c| c.slots_total)
                .collect()
        };
        assert_eq!(totals(7), totals(7));
        assert_ne!(totals(7), totals(8));
    }

    /// A cell's deterministic measurements must not depend on which other
    /// scenarios were benched alongside it.
    #[test]
    fn bench_seeds_are_scenario_position_independent() {
        let cfg = BenchConfig {
            trials_per_cell: 1,
            max_slots: Some(20_000),
            reference: false,
            ..BenchConfig::default()
        };
        let race = find("epidemic-race").expect("entry");
        let ladder = find("scaling-ladder").expect("entry");
        let alone = run_bench(&[race], &cfg);
        let paired = run_bench(&[ladder, race], &cfg);
        let totals = |r: &BenchReport, s: &str| -> Vec<u64> {
            r.scenarios
                .iter()
                .find(|x| x.scenario == s)
                .expect("scenario present")
                .cells
                .iter()
                .map(|c| c.slots_total)
                .collect()
        };
        assert_eq!(
            totals(&alone, "epidemic-race"),
            totals(&paired, "epidemic-race"),
            "cell seeds must be position-independent"
        );
    }

    #[test]
    fn bench_artifact_parses_and_has_schema_markers() {
        let json = tiny_bench().to_json();
        assert!(json.starts_with("{\n  \"schema_version\": 6,"));
        assert!(json.contains("\"kind\": \"rcb-bench-report\""));
        // epidemic-race is unscheduled: no cell may grow the schedule leaf.
        assert!(!json.contains("\"schedule\""));
        assert!(json.contains("\"code_version\""));
        assert!(json.contains("\"topology\": \"complete\""));
        assert!(json.contains("\"slots_per_sec\""));
        assert!(json.contains("\"speedup\""));
        // The trial-batched lane and its block are gone (schema v6).
        assert!(!json.contains("\"batch\""));
        assert!(json.contains("\"perf\""));
        assert!(json.contains("\"span_len_hist\""));
        let parsed = crate::jsonin::parse(&json).expect("bench artifact parses");
        let Json::Object(fields) = parsed else {
            panic!("not an object")
        };
        assert!(fields.iter().any(|(k, _)| k == "scenarios"));
    }

    #[test]
    fn quick_preset_caps_workloads() {
        let q = BenchConfig::quick();
        assert_eq!(q.trials_per_cell, 1);
        assert!(q.max_slots.is_some());
        assert!(q.reference);
    }
}
