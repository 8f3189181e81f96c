//! Campaign artifacts: the schema-versioned JSON report and the human
//! table.
//!
//! The JSON artifact is the machine-readable product of a campaign — the
//! file that seeds the repo's `BENCH_<scenario>.json` performance
//! trajectory. Its byte content is a pure function of (scenario, seed,
//! trials, max-slots override); thread count, wall-clock time, and host
//! never leak into it. Bump [`SCHEMA_VERSION`] on any field change.

use crate::json::Json;
use rcb_sim::EngineTelemetry;
use rcb_stats::Table;

/// Version of the JSON artifact schema. History:
///
/// * **1** — initial schema: campaign header + per-cell
///   counts/rates/metric distributions (mean/std/min/max/p50/p90/p99).
/// * **2** — per-cell `topology` (connectivity graph of the cell's trials;
///   `"complete"` is the paper's single-hop model) and `helper_events`
///   (count per distinct `MultiCastAdv` helper `(epoch, phase)`).
/// * **3** — header `code_version` (build stamp of the producing binary)
///   and per-cell `perf` block (`perf_json`): engine telemetry counter
///   sums plus opt-in wall-clock phase timing. The counter leaves are
///   deterministic; the wall-clock leaves are host-dependent and are
///   ignored by `rcb diff` by default (zeros unless timing was requested).
/// * **4** — per-cell `schedule` block ([`ScheduleReport`]) on cells that
///   run under a world schedule (nemesis fault injection): the event list,
///   the aggregated application timeline, survivor-relative outcome
///   distributions, and the schedule telemetry counters
///   (`schedule_events`, `crashed_node_slots`). The block is **omitted
///   entirely** for unscheduled cells, so every pre-existing cell's JSON is
///   byte-identical to its v3 rendering.
/// * **5** — `perf.ff_gated_segments`: segments where the heuristic
///   fast-forward gate fell back to the plain slot loop.
pub const SCHEMA_VERSION: u64 = 5;

/// Build stamp of this binary, `<git12|unknown>+<hash>` (stamped into
/// every artifact header as `code_version`, and part of every store key).
/// The hash is a content hash of the campaign's sources (`build.rs`), so it
/// changes with any source edit; the git revision is only a label, and
/// `unknown` when git was unavailable at build time.
pub fn code_version() -> &'static str {
    env!("RCB_CODE_VERSION")
}

/// Render the per-cell `perf` block: engine telemetry merged over the
/// cell's trials, plus a wall-clock total.
///
/// Two kinds of leaves live here, deliberately in one block:
///
/// * **Deterministic counters** (`slots_*`, `spans`, `rng_*`, `jam_*`,
///   `observer_events`, `ff_gated_segments`, the sparse log₂ span-length
///   histogram and the ratios derived from them) — pure functions of
///   (scenario, seed, trials); byte-identical across hosts, thread counts,
///   and whether timing was enabled.
/// * **Host-dependent timing** (`wall_s`, `slots_per_sec`, and the four
///   `*_s` phase leaves) — all zero unless the producer opted into
///   wall-clock collection (`rcb run --perf`, `rcb bench`, `rcb profile`).
///   `rcb diff` ignores these leaves by default ([`crate::diff::DEFAULT_IGNORES`]).
///
/// Pass `wall_s = 0.0` when no timing was collected; `slots_per_sec` then
/// stays zero rather than dividing by a meaningless duration.
pub(crate) fn perf_json(tel: &EngineTelemetry, wall_s: f64) -> Json {
    let secs = |ns: u64| Json::from(ns as f64 * 1e-9);
    let slots_per_sec = if wall_s > 0.0 {
        tel.slots_total() as f64 / wall_s
    } else {
        0.0
    };
    // Non-empty buckets only, ascending: `count` spans had length in
    // `[2^log2, 2^(log2+1))`.
    let span_len_hist = tel
        .span_len_hist
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(log2, &count)| Json::obj(vec![("log2", log2.into()), ("count", count.into())]))
        .collect();
    Json::obj(vec![
        ("slots_total", tel.slots_total().into()),
        ("slots_stepped", tel.slots_stepped.into()),
        ("slots_fast_forwarded", tel.slots_fast_forwarded.into()),
        ("ff_skip_ratio", tel.ff_skip_ratio().into()),
        ("spans", tel.spans.into()),
        ("mean_span_len", tel.mean_span_len().into()),
        ("ff_gated_segments", tel.ff_gated_segments.into()),
        ("span_len_hist", Json::arr(span_len_hist)),
        ("rng_engine_draws", tel.rng_engine_draws.into()),
        ("rng_node_draws", tel.rng_node_draws.into()),
        ("jam_spent_stepped", tel.jam_spent_stepped.into()),
        ("jam_spent_spans", tel.jam_spent_spans.into()),
        ("observer_events", tel.observer_events.into()),
        ("wall_s", wall_s.into()),
        ("slots_per_sec", slots_per_sec.into()),
        ("setup_s", secs(tel.phases.setup)),
        ("slot_loop_s", secs(tel.phases.slot_loop)),
        ("fast_forward_s", secs(tel.phases.fast_forward)),
        ("finalize_s", secs(tel.phases.finalize)),
    ])
}

/// Aggregated application record of one scheduled world event (schema v4).
///
/// Events apply at the first round start at or after their scheduled slot,
/// and they apply in spec order, so entry `i` of a cell's timeline always
/// corresponds to event `i` of the cell's schedule. A trial that ends
/// before reaching an event leaves no marker, which is what
/// `applied_trials < trials` records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Slot the event was scheduled at.
    pub scheduled_at: u64,
    /// Trials in which the event was actually applied.
    pub applied_trials: u64,
    /// Earliest application slot seen across those trials.
    pub applied_at_min: u64,
    /// Latest application slot seen across those trials.
    pub applied_at_max: u64,
}

impl TimelineEntry {
    fn to_json(self, kind: &str) -> Json {
        Json::obj(vec![
            ("kind", kind.into()),
            ("scheduled_at", self.scheduled_at.into()),
            ("applied_trials", self.applied_trials.into()),
            ("applied_at_min", self.applied_at_min.into()),
            ("applied_at_max", self.applied_at_max.into()),
        ])
    }
}

/// The per-cell `schedule` block (schema v4): present only on cells that
/// run under a non-empty world schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleReport {
    /// Number of scheduled events.
    pub events: u64,
    /// Slot of the first scheduled event.
    pub first_slot: u64,
    /// Slot of the last scheduled event.
    pub last_slot: u64,
    /// Human-readable event list (`"crash@64, recover@640"`).
    pub detail: String,
    /// Event kinds, aligned with [`Self::timeline`].
    pub kinds: Vec<String>,
    /// Aggregated application record per event, in schedule order.
    pub timeline: Vec<TimelineEntry>,
    /// Crashed-node count at end of run, over trials.
    pub crashed: MetricReport,
    /// Survivor-relative informed target, over trials.
    pub survivors: MetricReport,
    /// Survivors actually informed, over trials.
    pub survivors_informed: MetricReport,
    /// Total schedule boundaries the engine processed (telemetry sum).
    pub schedule_events: u64,
    /// Integral of crashed-node count over slots (telemetry sum).
    pub crashed_node_slots: u64,
}

impl ScheduleReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("events", self.events.into()),
            ("first_slot", self.first_slot.into()),
            ("last_slot", self.last_slot.into()),
            ("detail", self.detail.as_str().into()),
            (
                "timeline",
                Json::arr(
                    self.timeline
                        .iter()
                        .zip(&self.kinds)
                        .map(|(t, kind)| t.to_json(kind))
                        .collect(),
                ),
            ),
            ("crashed", self.crashed.to_json()),
            ("survivors", self.survivors.to_json()),
            ("survivors_informed", self.survivors_informed.to_json()),
            ("schedule_events", self.schedule_events.into()),
            ("crashed_node_slots", self.crashed_node_slots.into()),
        ])
    }
}

/// How many trials saw a helper promotion at a given `(epoch, phase)` of
/// the `MultiCastAdv` schedule (Lemmas 6.1–6.3 localize these events).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HelperPhaseCount {
    pub epoch: u32,
    pub phase: u32,
    pub count: u64,
}

impl HelperPhaseCount {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("epoch", self.epoch.into()),
            ("phase", self.phase.into()),
            ("count", self.count.into()),
        ])
    }
}

/// Distribution summary of one metric over a cell's trials.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricReport {
    pub count: u64,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
    /// Quantiles from the streaming sketch (1% relative error).
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl MetricReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", self.count.into()),
            ("mean", self.mean.into()),
            ("std_dev", self.std_dev.into()),
            ("min", self.min.into()),
            ("max", self.max.into()),
            ("p50", self.p50.into()),
            ("p90", self.p90.into()),
            ("p99", self.p99.into()),
        ])
    }
}

/// Aggregated results for one campaign cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReport {
    pub protocol: String,
    pub adversary: String,
    /// Connectivity topology the cell ran over (`"complete"` = single-hop).
    pub topology: String,
    pub n: u64,
    /// Eve's budget `T` for this cell.
    pub budget: u64,
    /// Engine slot cap the cell ran under.
    pub max_slots: u64,
    pub trials: u64,
    pub completed: u64,
    pub all_informed: u64,
    pub completion_rate: f64,
    /// Summed over trials; any nonzero value is a protocol bug.
    pub safety_violations: u64,
    pub completion_slots: MetricReport,
    pub max_node_cost: MetricReport,
    pub mean_node_cost: MetricReport,
    pub source_cost: MetricReport,
    pub eve_spent: MetricReport,
    /// Helper promotions per `(epoch, phase)` over the cell's trials
    /// (`MultiCastAdv` only; empty otherwise).
    pub helper_events: Vec<HelperPhaseCount>,
    /// Engine telemetry merged over the cell's trials, rendered as the
    /// `perf` block (schema v3) with the phase clocks' sum as its wall.
    pub perf: EngineTelemetry,
    /// World-schedule block (schema v4); `None` — and absent from the
    /// JSON — for unscheduled cells.
    pub schedule: Option<ScheduleReport>,
}

impl CellReport {
    pub(crate) fn to_json(&self) -> Json {
        let mut fields = vec![
            ("protocol", self.protocol.as_str().into()),
            ("adversary", self.adversary.as_str().into()),
            ("topology", self.topology.as_str().into()),
            ("n", self.n.into()),
            ("budget", self.budget.into()),
            ("max_slots", self.max_slots.into()),
            ("trials", self.trials.into()),
            ("completed", self.completed.into()),
            ("all_informed", self.all_informed.into()),
            ("completion_rate", self.completion_rate.into()),
            ("safety_violations", self.safety_violations.into()),
            (
                "metrics",
                Json::obj(vec![
                    ("completion_slots", self.completion_slots.to_json()),
                    ("max_node_cost", self.max_node_cost.to_json()),
                    ("mean_node_cost", self.mean_node_cost.to_json()),
                    ("source_cost", self.source_cost.to_json()),
                    ("eve_spent", self.eve_spent.to_json()),
                ]),
            ),
            (
                "helper_events",
                Json::arr(self.helper_events.iter().map(|h| h.to_json()).collect()),
            ),
            // Integer phase nanos sum deterministically across the ordered
            // ingest, so the artifact stays thread-count independent even
            // with timing on (for one fixed run's metrics stream).
            (
                "perf",
                perf_json(&self.perf, self.perf.phases.total() as f64 * 1e-9),
            ),
        ];
        if let Some(sched) = &self.schedule {
            fields.push(("schedule", sched.to_json()));
        }
        Json::obj(fields)
    }
}

/// The full campaign artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    pub campaign: String,
    pub description: String,
    /// Git revision of the binary that produced the artifact
    /// (`"unknown"` when git was unavailable at build time). Ignored by
    /// `rcb diff` by default.
    pub code_version: String,
    pub seed: u64,
    pub trials_per_cell: u64,
    pub total_trials: u64,
    /// One entry per cell, in spec order.
    pub cells: Vec<CellReport>,
}

impl CampaignReport {
    /// Serialize as the schema-versioned, pretty-printed JSON artifact.
    /// Deterministic: same report ⇒ same bytes.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("schema_version", SCHEMA_VERSION.into()),
            ("kind", "rcb-campaign-report".into()),
            ("code_version", self.code_version.as_str().into()),
            ("campaign", self.campaign.as_str().into()),
            ("description", self.description.as_str().into()),
            ("seed", self.seed.into()),
            ("trials_per_cell", self.trials_per_cell.into()),
            ("total_trials", self.total_trials.into()),
            (
                "cells",
                Json::arr(self.cells.iter().map(CellReport::to_json).collect()),
            ),
        ])
        .to_pretty()
    }

    /// Render the human-facing summary table (via `rcb-stats`).
    pub fn to_table(&self) -> String {
        let mut table = Table::new(&[
            "protocol",
            "adversary",
            "topo",
            "n",
            "T",
            "trials",
            "ok",
            "time p50",
            "time p99",
            "maxcost p50",
            "eve mean",
            "viol",
        ]);
        for c in &self.cells {
            table.row(&[
                c.protocol.clone(),
                c.adversary.clone(),
                c.topology.clone(),
                c.n.to_string(),
                c.budget.to_string(),
                c.trials.to_string(),
                format!("{:.0}%", 100.0 * c.completion_rate),
                format!("{:.0}", c.completion_slots.p50),
                format!("{:.0}", c.completion_slots.p99),
                format!("{:.0}", c.max_node_cost.p50),
                format!("{:.0}", c.eve_spent.mean),
                c.safety_violations.to_string(),
            ]);
        }
        format!(
            "# campaign `{}` — seed {}, {} trials/cell, {} total\n\n{}",
            self.campaign,
            self.seed,
            self.trials_per_cell,
            self.total_trials,
            table.markdown()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(v: f64) -> MetricReport {
        MetricReport {
            count: 3,
            mean: v,
            std_dev: 0.5,
            min: v - 1.0,
            max: v + 1.0,
            p50: v,
            p90: v + 0.5,
            p99: v + 0.9,
        }
    }

    fn report() -> CampaignReport {
        CampaignReport {
            campaign: "demo".into(),
            description: "a \"quoted\" description".into(),
            code_version: "deadbeef".into(),
            seed: 9,
            trials_per_cell: 3,
            total_trials: 3,
            cells: vec![CellReport {
                protocol: "MultiCast".into(),
                adversary: "uniform".into(),
                topology: "line".into(),
                n: 64,
                budget: 1000,
                max_slots: 5000,
                trials: 3,
                completed: 3,
                all_informed: 3,
                completion_rate: 1.0,
                safety_violations: 0,
                completion_slots: metric(120.0),
                max_node_cost: metric(14.0),
                mean_node_cost: metric(9.0),
                source_cost: metric(11.0),
                eve_spent: metric(800.0),
                helper_events: vec![HelperPhaseCount {
                    epoch: 7,
                    phase: 3,
                    count: 2,
                }],
                perf: EngineTelemetry::default(),
                schedule: None,
            }],
        }
    }

    #[test]
    fn json_has_schema_version_and_escapes() {
        let j = report().to_json();
        assert!(j.starts_with("{\n  \"schema_version\": 5,"));
        assert!(j.contains("\"kind\": \"rcb-campaign-report\""));
        assert!(j.contains("\"code_version\": \"deadbeef\""));
        assert!(j.contains(r#"a \"quoted\" description"#));
        assert!(j.contains("\"completion_slots\""));
        assert!(j.contains("\"topology\": \"line\""));
        assert!(j.contains("\"helper_events\""));
        assert!(j.contains("\"epoch\": 7"));
        assert!(j.contains("\"perf\""));
        assert!(j.contains("\"ff_skip_ratio\""));
        assert!(j.ends_with("}\n"));
    }

    /// The `perf` block's keys, their order and every float expression,
    /// pinned byte for byte: seconds are `ns * 1e-9`, `slots_per_sec` is
    /// `slots_total / wall_s`, the histogram lists non-empty buckets only.
    /// The schedule counters belong to the `schedule` block, not this one.
    #[test]
    fn cell_perf_from_telemetry_derives_ratios() {
        let mut tel = EngineTelemetry {
            slots_stepped: 1_234,
            slots_fast_forwarded: 56_789,
            spans: 7,
            rng_engine_draws: 4_242,
            rng_node_draws: 9_191,
            jam_spent_stepped: 77,
            jam_spent_spans: 555,
            observer_events: 31,
            schedule_events: 2,
            ff_gated_segments: 5,
            crashed_node_slots: 64,
            phases: rcb_sim::PhaseNanos {
                setup: 1_500,
                slot_loop: 2_345_678,
                fast_forward: 987_654,
                finalize: 321,
            },
            ..EngineTelemetry::default()
        };
        tel.span_len_hist[3] = 4;
        tel.span_len_hist[12] = 3;
        assert_eq!(
            perf_json(&tel, 0.0123).to_compact(),
            concat!(
                r#"{"slots_total":58023,"slots_stepped":1234,"slots_fast_forwarded":56789,"#,
                r#""ff_skip_ratio":0.9787325715664478,"spans":7,"#,
                r#""mean_span_len":8112.714285714285,"ff_gated_segments":5,"#,
                r#""span_len_hist":[{"log2":3,"count":4},{"log2":12,"count":3}],"#,
                r#""rng_engine_draws":4242,"rng_node_draws":9191,"jam_spent_stepped":77,"#,
                r#""jam_spent_spans":555,"observer_events":31,"wall_s":0.0123,"#,
                r#""slots_per_sec":4717317.073170732,"setup_s":0.0000015,"#,
                r#""slot_loop_s":0.0023456780000000003,"fast_forward_s":0.0009876540000000001,"#,
                r#""finalize_s":0.00000032100000000000003}"#,
            )
        );
        // Untimed and empty: every ratio and wall-clock leaf is exactly 0.
        assert_eq!(
            perf_json(&EngineTelemetry::default(), 0.0).to_compact(),
            concat!(
                r#"{"slots_total":0,"slots_stepped":0,"slots_fast_forwarded":0,"#,
                r#""ff_skip_ratio":0,"spans":0,"mean_span_len":0,"ff_gated_segments":0,"#,
                r#""span_len_hist":[],"rng_engine_draws":0,"rng_node_draws":0,"#,
                r#""jam_spent_stepped":0,"jam_spent_spans":0,"observer_events":0,"#,
                r#""wall_s":0,"slots_per_sec":0,"setup_s":0,"slot_loop_s":0,"#,
                r#""fast_forward_s":0,"finalize_s":0}"#,
            )
        );
    }

    /// Schema v4's central compatibility promise: the `schedule` block is a
    /// *conditional* leaf set. Absent → the cell JSON is byte-identical to
    /// its v3 rendering; present → the block carries the timeline and the
    /// survivor-relative distributions.
    #[test]
    fn schedule_block_is_emitted_only_for_scheduled_cells() {
        let mut r = report();
        let without = r.to_json();
        assert!(!without.contains("\"schedule\""));

        r.cells[0].schedule = Some(ScheduleReport {
            events: 2,
            first_slot: 64,
            last_slot: 640,
            detail: "crash@64, recover@640".into(),
            kinds: vec!["crash".into(), "recover".into()],
            timeline: vec![
                TimelineEntry {
                    scheduled_at: 64,
                    applied_trials: 3,
                    applied_at_min: 64,
                    applied_at_max: 64,
                },
                TimelineEntry {
                    scheduled_at: 640,
                    applied_trials: 2,
                    applied_at_min: 640,
                    applied_at_max: 672,
                },
            ],
            crashed: metric(4.0),
            survivors: metric(60.0),
            survivors_informed: metric(60.0),
            schedule_events: 5,
            crashed_node_slots: 2304,
        });
        let with = r.to_json();
        assert!(with.contains("\"schedule\""));
        assert!(with.contains("\"detail\": \"crash@64, recover@640\""));
        assert!(with.contains("\"kind\": \"recover\""));
        assert!(with.contains("\"applied_trials\": 2"));
        assert!(with.contains("\"survivors_informed\""));
        assert!(with.contains("\"schedule_events\": 5"));
        assert!(with.contains("\"crashed_node_slots\": 2304"));
        // Everything before the schedule block is untouched: the scheduled
        // rendering extends the unscheduled one rather than rewriting it.
        let common = with
            .bytes()
            .zip(without.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        let perf_at = without.find("\"perf\"").expect("perf block");
        assert!(
            common > perf_at,
            "divergence must come after the perf block"
        );
    }

    #[test]
    fn code_version_is_nonempty() {
        assert!(!code_version().is_empty());
    }

    #[test]
    fn json_is_reproducible() {
        assert_eq!(report().to_json(), report().to_json());
    }

    #[test]
    fn table_renders_every_cell() {
        let t = report().to_table();
        assert!(t.contains("MultiCast"));
        assert!(t.contains("| 100%"));
        assert!(t.contains("campaign `demo`"));
    }
}
